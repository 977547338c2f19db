//! A compressed multibit trie for longest-prefix-match at internet
//! scale.
//!
//! The binary trie that originally backed [`RouteTable`] walks one
//! address bit per node — fine at 34 PoPs, painful at a million learned
//! prefixes (32 pointer hops and 32 potential cache misses per lookup).
//! [`LpmTrie`] is the poptrie-style replacement: a **stride-4 multibit
//! trie with stride-aligned path compression**.
//!
//! * **Stride 4**: every node fans out over the next 4 address bits
//!   (16 children), so a full-depth /32 walk is at most 8 nodes.
//! * **Internal prefix slots**: prefixes whose length ends *within* a
//!   node (0–4 bits past the node's depth) are stored in a 31-slot
//!   array inside the node (`1 + 2 + 4 + 8 + 16` slots for relative
//!   lengths 0..=4), so sibling /32s pack 16-to-a-node instead of one
//!   leaf each.
//! * **Path compression**: a node may skip a run of address bits shared
//!   by everything beneath it (`skip_len`, always a multiple of the
//!   stride so splits happen on stride boundaries). A lone /32 under an
//!   otherwise-empty /8 costs 3 nodes, not 8.
//! * **Arena storage**: nodes live in a `Vec` addressed by `u32`
//!   indices with a free list, which keeps the structure compact,
//!   cache-friendly, and accountable — [`LpmTrie::mem_bytes`] is the
//!   peak-table-bytes number the `megacdn` bench records.
//!
//! The trie is generic over its value type: [`RouteTable`] stores route
//! indices, the mega-CDN bench stores learned windows directly.
//!
//! [`RouteTable`]: crate::route::RouteTable
//!
//! # Examples
//!
//! ```
//! use riptide_linuxnet::lpm::LpmTrie;
//! use riptide_linuxnet::prefix::Ipv4Prefix;
//! use std::net::Ipv4Addr;
//!
//! let mut trie: LpmTrie<u32> = LpmTrie::new();
//! trie.insert(Ipv4Prefix::default_route(), 10);
//! trie.insert("10.0.1.0/24".parse()?, 40);
//! trie.insert("10.0.1.7".parse()?, 80);
//!
//! // Longest prefix wins: /32 over /24 over /0.
//! let (prefix, window) = trie.lookup(Ipv4Addr::new(10, 0, 1, 7)).unwrap();
//! assert_eq!((prefix.len(), *window), (32, 80));
//! let (prefix, window) = trie.lookup(Ipv4Addr::new(10, 0, 1, 9)).unwrap();
//! assert_eq!((prefix.len(), *window), (24, 40));
//! assert_eq!(trie.lookup(Ipv4Addr::new(192, 0, 2, 1)).map(|(_, w)| *w), Some(10));
//!
//! assert_eq!(trie.remove(&"10.0.1.7".parse()?), Some(80));
//! assert_eq!(trie.len(), 2);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::net::Ipv4Addr;

use crate::prefix::Ipv4Prefix;

/// Address bits consumed per trie level.
const STRIDE: u8 = 4;
/// Children per node: `2^STRIDE`.
const FANOUT: usize = 1 << STRIDE;
/// Internal prefix slots per node: one per (relative length, value)
/// pair for relative lengths `0..=STRIDE`, i.e. `2^(STRIDE+1) - 1`.
const INTERNAL_SLOTS: usize = (1 << (STRIDE + 1)) - 1;
/// Sentinel child index meaning "no child".
const NO_CHILD: u32 = u32::MAX;

/// The bits of `bits` at absolute positions `[pos, pos + len)`,
/// most-significant-bit first, returned right-aligned.
#[inline]
fn bits_at(bits: u32, pos: u8, len: u8) -> u32 {
    debug_assert!(pos + len <= 32);
    if len == 0 {
        0
    } else {
        ((u64::from(bits) >> (32 - pos - len)) & ((1u64 << len) - 1)) as u32
    }
}

/// The internal-array slot for a prefix ending `rel` bits into a node
/// with value `value` on those bits: levels pack as `1 + 2 + 4 + …`.
#[inline]
fn slot_index(rel: u8, value: u32) -> usize {
    debug_assert!(rel <= STRIDE && u64::from(value) < (1u64 << rel));
    ((1usize << rel) - 1) + value as usize
}

/// One arena node. `skip_len` bits (a multiple of [`STRIDE`]) shared by
/// everything below are compressed into `skip_bits`; prefixes ending
/// 0..=[`STRIDE`] bits past the skip live in `internal`; longer ones
/// descend through `children` on the next [`STRIDE`] bits.
#[derive(Debug, Clone)]
struct Node<T> {
    skip_len: u8,
    skip_bits: u32,
    internal: [Option<T>; INTERNAL_SLOTS],
    children: [u32; FANOUT],
}

impl<T> Node<T> {
    fn empty() -> Self {
        Node {
            skip_len: 0,
            skip_bits: 0,
            internal: std::array::from_fn(|_| None),
            children: [NO_CHILD; FANOUT],
        }
    }

    fn is_unused(&self) -> bool {
        self.internal.iter().all(Option::is_none) && self.children.iter().all(|&c| c == NO_CHILD)
    }
}

/// A compressed stride-4 multibit trie mapping IPv4 prefixes to values,
/// with longest-prefix-match lookup. See the [module docs](self) for
/// the layout.
#[derive(Debug, Clone)]
pub struct LpmTrie<T> {
    nodes: Vec<Node<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for LpmTrie<T> {
    fn default() -> Self {
        LpmTrie::new()
    }
}

impl<T> LpmTrie<T> {
    /// Creates an empty trie (one root node, no prefixes).
    pub fn new() -> Self {
        LpmTrie {
            nodes: vec![Node::empty()],
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of stored prefixes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores no prefixes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Live arena nodes (allocated minus freed) — the structure the
    /// memory budget in DESIGN.md is worked from.
    pub fn node_count(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Resident bytes of the trie structure itself (arena + free list;
    /// heap owned by the values is not visible from here).
    pub fn mem_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.nodes.capacity() * std::mem::size_of::<Node<T>>()
            + self.free.capacity() * std::mem::size_of::<u32>()
    }

    fn alloc(&mut self, node: Node<T>) -> u32 {
        match self.free.pop() {
            Some(idx) => {
                self.nodes[idx as usize] = node;
                idx
            }
            None => {
                let idx = u32::try_from(self.nodes.len()).expect("trie arena exceeds u32 indices");
                assert_ne!(idx, NO_CHILD, "trie arena exhausted");
                self.nodes.push(node);
                idx
            }
        }
    }

    /// A maximally compressed leaf holding `prefix`'s tail from
    /// absolute bit `depth` on: the skip absorbs all but the last
    /// 1..=[`STRIDE`] bits, which index an internal slot.
    fn make_leaf(&mut self, bits: u32, depth: u8, plen: u8, value: T) -> u32 {
        let rem = plen - depth;
        debug_assert!(rem >= 1);
        let skip_len = (rem - 1) & !(STRIDE - 1);
        let rel = rem - skip_len;
        let mut node = Node::empty();
        node.skip_len = skip_len;
        node.skip_bits = bits_at(bits, depth, skip_len);
        node.internal[slot_index(rel, bits_at(bits, depth + skip_len, rel))] = Some(value);
        self.alloc(node)
    }

    /// Inserts `prefix → value`, returning the previous value if the
    /// prefix was already present (`ip route replace` semantics).
    pub fn insert(&mut self, prefix: Ipv4Prefix, value: T) -> Option<T> {
        let bits = prefix.raw_bits();
        let plen = prefix.len();
        let mut idx = 0u32;
        let mut depth = 0u8;
        loop {
            let (skip_len, skip_bits) = {
                let n = &self.nodes[idx as usize];
                (n.skip_len, n.skip_bits)
            };
            let rem = plen - depth;
            // Leading bits on which the prefix tail and the skip agree.
            let m = rem.min(skip_len);
            let ours = bits_at(bits, depth, m);
            let theirs = if m == 0 {
                0
            } else {
                skip_bits >> (skip_len - m)
            };
            let diff = ours ^ theirs;
            let common = if diff == 0 {
                m
            } else {
                diff.leading_zeros() as u8 - (32 - m)
            };

            if common == skip_len {
                // The whole skip matched (so rem >= skip_len): the
                // prefix ends in this node or descends through a child.
                let below = depth + skip_len;
                let rem = rem - skip_len;
                if rem <= STRIDE {
                    let slot = slot_index(rem, bits_at(bits, below, rem));
                    let old = self.nodes[idx as usize].internal[slot].replace(value);
                    if old.is_none() {
                        self.len += 1;
                    }
                    return old;
                }
                let branch = bits_at(bits, below, STRIDE) as usize;
                let child = self.nodes[idx as usize].children[branch];
                if child != NO_CHILD {
                    idx = child;
                    depth = below + STRIDE;
                    continue;
                }
                let leaf = self.make_leaf(bits, below + STRIDE, plen, value);
                self.nodes[idx as usize].children[branch] = leaf;
                self.len += 1;
                return None;
            }

            // Divergence (or prefix end) inside the skip: split it at
            // the last stride boundary the prefix still agrees on. The
            // node keeps the head of the skip; its old contents move to
            // a freshly allocated tail child.
            let head_len = common & !(STRIDE - 1);
            let tail_skip = skip_len - head_len - STRIDE;
            let tail_branch = bits_at(skip_bits << (32 - skip_len), head_len, STRIDE) as usize;
            let tail = {
                let node = &mut self.nodes[idx as usize];
                let tail = Node {
                    skip_len: tail_skip,
                    skip_bits: if tail_skip == 0 {
                        0
                    } else {
                        skip_bits & ((1u32 << tail_skip) - 1)
                    },
                    internal: std::mem::replace(&mut node.internal, std::array::from_fn(|_| None)),
                    children: std::mem::replace(&mut node.children, [NO_CHILD; FANOUT]),
                };
                node.skip_len = head_len;
                node.skip_bits = if head_len == 0 {
                    0
                } else {
                    skip_bits >> (skip_len - head_len)
                };
                tail
            };
            let tail_idx = self.alloc(tail);
            self.nodes[idx as usize].children[tail_branch] = tail_idx;

            let below = depth + head_len;
            let rem = plen - below;
            if rem <= STRIDE {
                let slot = slot_index(rem, bits_at(bits, below, rem));
                self.nodes[idx as usize].internal[slot] = Some(value);
            } else {
                // The prefix's next stride must differ from the tail's
                // (otherwise `common` would have reached it).
                let branch = bits_at(bits, below, STRIDE) as usize;
                debug_assert_ne!(branch, tail_branch);
                let leaf = self.make_leaf(bits, below + STRIDE, plen, value);
                self.nodes[idx as usize].children[branch] = leaf;
            }
            self.len += 1;
            return None;
        }
    }

    /// Walks to the node and internal slot where `prefix` would live.
    fn locate(
        &self,
        prefix: &Ipv4Prefix,
        path: Option<&mut Vec<(u32, usize)>>,
    ) -> Option<(u32, usize)> {
        let bits = prefix.raw_bits();
        let plen = prefix.len();
        let mut path = path;
        let mut idx = 0u32;
        let mut depth = 0u8;
        loop {
            let node = &self.nodes[idx as usize];
            let rem = plen - depth;
            if rem < node.skip_len || bits_at(bits, depth, node.skip_len) != node.skip_bits {
                return None;
            }
            let below = depth + node.skip_len;
            let rem = rem - node.skip_len;
            if rem <= STRIDE {
                return Some((idx, slot_index(rem, bits_at(bits, below, rem))));
            }
            let branch = bits_at(bits, below, STRIDE) as usize;
            let child = node.children[branch];
            if child == NO_CHILD {
                return None;
            }
            if let Some(p) = path.as_deref_mut() {
                p.push((idx, branch));
            }
            idx = child;
            depth = below + STRIDE;
        }
    }

    /// The value stored for exactly `prefix`, if any.
    pub fn get(&self, prefix: &Ipv4Prefix) -> Option<&T> {
        let (idx, slot) = self.locate(prefix, None)?;
        self.nodes[idx as usize].internal[slot].as_ref()
    }

    /// Removes the value stored for exactly `prefix`, returning it.
    /// Nodes emptied by the removal are unlinked and recycled; removal
    /// does not re-merge skips, so a remove-heavy trie may be less
    /// compressed than one built fresh (lookups stay correct either
    /// way).
    pub fn remove(&mut self, prefix: &Ipv4Prefix) -> Option<T> {
        let mut path = Vec::new();
        let (idx, slot) = self.locate(prefix, Some(&mut path))?;
        let old = self.nodes[idx as usize].internal[slot].take();
        if old.is_some() {
            self.len -= 1;
            let mut child = idx;
            while let Some((parent, branch)) = path.pop() {
                if !self.nodes[child as usize].is_unused() {
                    break;
                }
                self.nodes[parent as usize].children[branch] = NO_CHILD;
                self.nodes[child as usize] = Node::empty();
                self.free.push(child);
                child = parent;
            }
        }
        old
    }

    /// Longest-prefix-match: the most specific stored prefix covering
    /// `addr`, with its value.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<(Ipv4Prefix, &T)> {
        let bits = u32::from(addr);
        let mut best: Option<(u8, u32, usize)> = None;
        let mut idx = 0u32;
        let mut depth = 0u8;
        loop {
            let node = &self.nodes[idx as usize];
            if 32 - depth < node.skip_len || bits_at(bits, depth, node.skip_len) != node.skip_bits {
                break;
            }
            let below = depth + node.skip_len;
            let max_rel = STRIDE.min(32 - below);
            for rel in 0..=max_rel {
                let slot = slot_index(rel, bits_at(bits, below, rel));
                if node.internal[slot].is_some() {
                    best = Some((below + rel, idx, slot));
                }
            }
            if below >= 32 {
                break;
            }
            let child = node.children[bits_at(bits, below, STRIDE) as usize];
            if child == NO_CHILD {
                break;
            }
            idx = child;
            depth = below + STRIDE;
        }
        best.map(|(plen, idx, slot)| {
            let value = self.nodes[idx as usize].internal[slot]
                .as_ref()
                .expect("best slot recorded as occupied");
            (Ipv4Prefix::new(addr, plen), value)
        })
    }

    /// Visits every stored value mutably, in an unspecified order — for a
    /// caller that renumbers what the values point at without touching
    /// the prefixes. Walks down from the root, so the cost follows the
    /// prefixes stored now, not the arena's high-water mark.
    pub(crate) fn for_each_value_mut<F: FnMut(&mut T)>(&mut self, mut f: F) {
        let mut pending = vec![0u32];
        while let Some(idx) = pending.pop() {
            let node = &mut self.nodes[idx as usize];
            node.internal.iter_mut().flatten().for_each(&mut f);
            pending.extend(node.children.iter().filter(|&&child| child != NO_CHILD));
        }
    }

    /// Visits every stored `(prefix, value)` pair. The order is
    /// deterministic (a fixed depth-first walk) but otherwise
    /// unspecified.
    pub fn for_each<F: FnMut(Ipv4Prefix, &T)>(&self, mut f: F) {
        self.visit(0, 0, 0, &mut f);
    }

    fn visit<F: FnMut(Ipv4Prefix, &T)>(&self, idx: u32, depth: u8, acc: u32, f: &mut F) {
        let node = &self.nodes[idx as usize];
        let acc = if node.skip_len == 0 {
            acc
        } else {
            acc | (node.skip_bits << (32 - depth - node.skip_len))
        };
        let below = depth + node.skip_len;
        for rel in 0..=STRIDE.min(32 - below) {
            for value in 0..(1u32 << rel) {
                if let Some(v) = &node.internal[slot_index(rel, value)] {
                    let bits = if rel == 0 {
                        acc
                    } else {
                        acc | (value << (32 - below - rel))
                    };
                    f(Ipv4Prefix::new(Ipv4Addr::from(bits), below + rel), v);
                }
            }
        }
        if below < 32 {
            for (branch, &child) in node.children.iter().enumerate() {
                if child != NO_CHILD {
                    let bits = acc | ((branch as u32) << (32 - below - STRIDE));
                    self.visit(child, below + STRIDE, bits, f);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Ipv4Prefix {
        s.parse().unwrap()
    }

    fn ip(s: &str) -> Ipv4Addr {
        s.parse().unwrap()
    }

    fn lookup_len(t: &LpmTrie<u32>, addr: &str) -> Option<(u8, u32)> {
        t.lookup(ip(addr)).map(|(pfx, v)| (pfx.len(), *v))
    }

    #[test]
    fn empty_trie_misses() {
        let t: LpmTrie<u32> = LpmTrie::new();
        assert!(t.is_empty());
        assert_eq!(t.lookup(ip("10.0.0.1")), None);
        assert_eq!(t.node_count(), 1, "just the root");
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = LpmTrie::new();
        t.insert(Ipv4Prefix::default_route(), 7u32);
        assert_eq!(lookup_len(&t, "0.0.0.0"), Some((0, 7)));
        assert_eq!(lookup_len(&t, "255.255.255.255"), Some((0, 7)));
        assert_eq!(t.get(&Ipv4Prefix::default_route()), Some(&7));
        assert_eq!(t.node_count(), 1, "stored in the root's slot 0");
    }

    #[test]
    fn longest_prefix_wins_across_all_lengths() {
        let mut t = LpmTrie::new();
        t.insert(p("0.0.0.0/0"), 0u32);
        t.insert(p("10.0.0.0/8"), 8);
        t.insert(p("10.1.0.0/16"), 16);
        t.insert(p("10.1.2.0/24"), 24);
        t.insert(p("10.1.2.3"), 32);
        assert_eq!(lookup_len(&t, "10.1.2.3"), Some((32, 32)));
        assert_eq!(lookup_len(&t, "10.1.2.4"), Some((24, 24)));
        assert_eq!(lookup_len(&t, "10.1.3.1"), Some((16, 16)));
        assert_eq!(lookup_len(&t, "10.2.0.1"), Some((8, 8)));
        assert_eq!(lookup_len(&t, "11.0.0.1"), Some((0, 0)));
    }

    #[test]
    fn odd_lengths_are_exact() {
        // Lengths that do not land on stride boundaries exercise the
        // internal slot arithmetic.
        let mut t = LpmTrie::new();
        for (s, v) in [
            ("128.0.0.0/1", 1u32),
            ("192.0.0.0/3", 3),
            ("192.0.2.4/30", 30),
            ("10.0.0.0/9", 9),
            ("10.128.0.0/10", 10),
        ] {
            t.insert(p(s), v);
        }
        assert_eq!(lookup_len(&t, "192.0.2.6"), Some((30, 30)));
        assert_eq!(lookup_len(&t, "192.0.3.1"), Some((3, 3)));
        assert_eq!(lookup_len(&t, "10.1.0.1"), Some((9, 9)));
        assert_eq!(lookup_len(&t, "10.129.0.1"), Some((10, 10)));
        assert_eq!(lookup_len(&t, "160.0.0.1"), Some((1, 1)));
        assert_eq!(t.get(&p("10.0.0.0/9")), Some(&9));
        assert_eq!(t.get(&p("10.0.0.0/10")), None, "exact length only");
    }

    #[test]
    fn insert_replaces_and_reports_old() {
        let mut t = LpmTrie::new();
        assert_eq!(t.insert(p("10.0.0.1"), 50u32), None);
        assert_eq!(t.insert(p("10.0.0.1"), 90), Some(50));
        assert_eq!(t.len(), 1);
        assert_eq!(lookup_len(&t, "10.0.0.1"), Some((32, 90)));
    }

    #[test]
    fn remove_restores_covering_prefix() {
        let mut t = LpmTrie::new();
        t.insert(p("10.0.0.0/16"), 30u32);
        t.insert(p("10.0.1.0/24"), 99);
        assert_eq!(lookup_len(&t, "10.0.1.1"), Some((24, 99)));
        assert_eq!(t.remove(&p("10.0.1.0/24")), Some(99));
        assert_eq!(lookup_len(&t, "10.0.1.1"), Some((16, 30)));
        assert_eq!(t.remove(&p("10.0.1.0/24")), None, "already gone");
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn removal_recycles_nodes() {
        let mut t = LpmTrie::new();
        let used_empty = t.node_count();
        for i in 0..64u32 {
            t.insert(p(&format!("10.{i}.0.1")), i);
        }
        let used_full = t.node_count();
        assert!(used_full > used_empty);
        for i in 0..64u32 {
            assert_eq!(t.remove(&p(&format!("10.{i}.0.1"))), Some(i));
        }
        assert!(t.is_empty());
        assert_eq!(t.node_count(), 1, "everything but the root recycled");
        // Reinserting reuses freed arena slots instead of growing.
        let bytes_before = t.mem_bytes();
        for i in 0..64u32 {
            t.insert(p(&format!("10.{i}.0.1")), i);
        }
        assert_eq!(t.mem_bytes(), bytes_before, "free list reused");
    }

    #[test]
    fn for_each_value_mut_reaches_exactly_the_stored_values() {
        let mut t = LpmTrie::new();
        let keep = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.2.0/23",
            "10.1.2.3",
            "192.168.7.9",
        ];
        for (i, prefix) in keep.iter().enumerate() {
            t.insert(p(prefix), i as u32);
        }
        // Removed prefixes leave recycled nodes in the arena; the walk
        // must not find anything in them.
        for host in 0..64u32 {
            t.insert(
                Ipv4Prefix::host(Ipv4Addr::from(0xac10_0000 + host * 4099)),
                999,
            );
        }
        for host in 0..64u32 {
            t.remove(&Ipv4Prefix::host(Ipv4Addr::from(0xac10_0000 + host * 4099)));
        }
        let mut seen = Vec::new();
        t.for_each_value_mut(|v| {
            seen.push(*v);
            *v += 100;
        });
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4]);
        for (i, prefix) in keep.iter().enumerate() {
            assert_eq!(t.get(&p(prefix)), Some(&(i as u32 + 100)));
        }
    }

    #[test]
    fn path_compression_keeps_sparse_tries_small() {
        let mut t = LpmTrie::new();
        t.insert(p("10.1.2.3"), 1u32);
        // A /32 under an empty trie: root + one branch + one compressed
        // leaf that skips the middle 24 bits.
        assert_eq!(t.node_count(), 2);
        // A second host in the same /28 shares the leaf's slot array.
        t.insert(p("10.1.2.5"), 2);
        assert_eq!(t.node_count(), 2);
        // A divergent host splits the skip once.
        t.insert(p("10.9.9.9"), 3);
        assert!(t.node_count() <= 4);
        assert_eq!(lookup_len(&t, "10.1.2.3"), Some((32, 1)));
        assert_eq!(lookup_len(&t, "10.1.2.5"), Some((32, 2)));
        assert_eq!(lookup_len(&t, "10.9.9.9"), Some((32, 3)));
    }

    #[test]
    fn dense_slash24_packs_sixteen_hosts_per_node() {
        let mut t = LpmTrie::new();
        for h in 0..=255u32 {
            t.insert(p(&format!("10.0.0.{h}")), h);
        }
        assert_eq!(t.len(), 256);
        // 16 depth-28 nodes of 16 internal /32s each, plus the shared
        // spine above them.
        assert!(t.node_count() <= 20, "got {}", t.node_count());
        for h in (0..=255u32).step_by(17) {
            assert_eq!(lookup_len(&t, &format!("10.0.0.{h}")), Some((32, h)));
        }
    }

    #[test]
    fn for_each_visits_every_prefix_once() {
        let mut t = LpmTrie::new();
        let want = [
            "0.0.0.0/0",
            "10.0.0.0/8",
            "10.1.0.0/16",
            "10.1.2.0/24",
            "10.1.2.3",
            "192.0.2.4/30",
        ];
        for (i, s) in want.iter().enumerate() {
            t.insert(p(s), i as u32);
        }
        let mut seen = Vec::new();
        t.for_each(|pfx, &v| seen.push((pfx, v)));
        seen.sort();
        let mut expect: Vec<(Ipv4Prefix, u32)> = want
            .iter()
            .enumerate()
            .map(|(i, s)| (p(s), i as u32))
            .collect();
        expect.sort();
        assert_eq!(seen, expect);
    }

    #[test]
    fn mem_accounting_is_monotone_in_nodes() {
        let mut t = LpmTrie::new();
        let empty = t.mem_bytes();
        for i in 0..1024u32 {
            t.insert(Ipv4Prefix::host(Ipv4Addr::from(0x0a00_0000 + i * 257)), i);
        }
        assert!(t.mem_bytes() > empty);
        assert!(t.node_count() > 1);
    }
}
