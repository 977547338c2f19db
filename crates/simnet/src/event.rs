//! Deterministic discrete-event queue.
//!
//! A future-event list ordered by `(SimTime, sequence)`. Two events
//! scheduled for the same instant pop in the order they were scheduled, so a
//! simulation run is a pure function of its inputs and RNG seed — never of
//! hash-map iteration order or tie-breaking accidents of the container.
//!
//! # Structure
//!
//! A hashed timing wheel whose slots are sorted lazily. Payloads live in a
//! slab of nodes (`at`, `seq`, payload, and an intrusive `next` index);
//! freed nodes are recycled through a free list threaded through the same
//! `next` field, so a steady-state run stops allocating once the slab has
//! reached the high-water mark of concurrently pending events.
//!
//! Time is cut into slots of 2^20 ns (≈ 1.05 ms); an event's slot is
//! `at >> 20`. The queue keeps one slot *open* — the latest one the clock has
//! reached — and files every pending event in one of three tiers by its slot
//! relative to the open one:
//!
//! * **`near`** — the open slot or any earlier one. The open slot's events
//!   that were already waiting when it was opened sit in `run`, a reused
//!   `Vec<(at, seq, node)>` sorted once, descending, and popped from the end;
//!   events scheduled into the open-or-an-earlier slot *after* that (a delay
//!   shorter than what is left of the slot, or a time earlier than the last
//!   pop — the API allows both) go to a small binary heap, `near`.
//! * **the wheel** — the next 4 095 slots (≈ 4.3 s). `schedule` links the
//!   node at the head of its slot's list: one `u32` head per slot and a
//!   64-word occupancy bitmap, O(1) and no comparison. Nothing in a wheel
//!   slot is ordered until the clock reaches it.
//! * **`far`** — 4 096 slots or more ahead: a binary heap that is decanted
//!   into the wheel whenever the open slot moves.
//!
//! `pop` takes the smaller of `run`'s last entry and `near`'s top. When both
//! are empty the next occupied slot is found through the bitmap (or, with
//! the wheel empty, through `far`'s top), `far` entries that now fall inside
//! the wheel's span are linked in, and the slot's list is unlinked into `run`
//! and sorted. [`EventQueue::pop_before`] refuses to open a slot that starts
//! after its deadline: `World::run_until(d)` leaves the clock at `d`, and
//! a slot opened beyond `d` would send everything scheduled between `d` and
//! that slot through the `near` heap.
//!
//! # Why the order is still a pure function of `(at, seq)`
//!
//! The tiers partition pending events by slot, and the slot is a monotone
//! function of `at`: everything in `run` ∪ `near` fires before everything in
//! the wheel, which fires before everything in `far`; within the wheel an
//! earlier slot fires before a later one. Inside a tier the order is decided
//! only by comparing `(at, seq)` — `seq` is unique, so the node index that
//! rides along in the tuples never decides a comparison, and the order in
//! which a slot's list happened to be linked is erased by the sort. The
//! pop sequence is therefore the one a single `(at, seq)`-ordered heap
//! would produce (`tests/repro/event_queue_differential.rs` holds it to that
//! against a `BTreeMap` model).
//!
//! # Why these constants, and what was tried instead
//!
//! Traffic of the three simulator workloads of the repo benchmark, seed
//! 2016, measured when the wheel replaced the heap:
//!
//! | | `probe-fleet` | `bulk-bottleneck` |
//! |---|---|---|
//! | event mix | 35 % segments, 35 % acks, 30 % `Rto` | the same |
//! | stale `Rto` | the large majority | nearly all: 1.16 M `Rto` events, 2 942 retransmits |
//! | `DelAck` events | 0 | 0 |
//! | pending events, mean / max | 550 / 5 400 | 3 700 / 4 500 |
//! | paths carrying them | 1 122 | 2 |
//!
//! Every workload schedules about 0.05 events per simulated µs (≈ 50 per
//! slot), path delays are ≥ 1 ms and RTOs ≥ 200 ms, so almost nothing lands
//! in the open slot and almost nothing beyond the span; slots of 2^17, 2^20
//! and 2^23 ns measured the same, which is why width and size are constants
//! and not options. Fixed cost is 16 KB of heads plus the bitmap per queue.
//!
//! * **Per-slot storage must stay O(1) words.** A `Vec` per slot keeps each
//!   slot's high-water capacity for the life of the queue — by estimate
//!   6–10 MB per `World` at `bulk-bottleneck`'s density, against that
//!   workload's whole 4.2 MB resident set.
//! * **A radix heap** was prototyped and rejected: no faster than the
//!   binary heap and 4.3 → 8.0 MB resident, because the superseded `Rto`
//!   timers cluster in one high bucket and are re-scanned on every
//!   redistribution.
//! * **Per-path FIFOs with a heap of path heads** (packets on one path
//!   arrive in order) cannot pay: on `bulk-bottleneck` ~3 300 of the ~3 700
//!   pending events are those timers, not packets, and on `probe-fleet` the
//!   packets are spread over 1 122 paths.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::time::SimTime;

/// log2 of the slot width in nanoseconds.
const SLOT_SHIFT: u32 = 20;
/// Slots in the wheel; a power of two so the index is a mask.
const WHEEL_SLOTS: usize = 4096;
const BITMAP_WORDS: usize = WHEEL_SLOTS / 64;
/// End of an intrusive list.
const NIL: u32 = u32::MAX;

/// What the ordered tiers hold: the node index never decides a comparison
/// because `seq` is unique.
type Entry = (SimTime, u64, u32);

#[derive(Debug, Clone)]
struct Node<E> {
    at: SimTime,
    seq: u64,
    /// Next node of the same wheel slot, or of the free list.
    next: u32,
    /// `None` marks a free node.
    payload: Option<E>,
}

fn slot_of(at: SimTime) -> u64 {
    at.as_nanos() >> SLOT_SHIFT
}

/// The intrusive list starting at `head`, as `(index, node)` pairs.
fn list<E>(nodes: &[Node<E>], head: u32) -> impl Iterator<Item = (u32, &Node<E>)> {
    let entry = |index: u32| (index != NIL).then(|| (index, &nodes[index as usize]));
    std::iter::successors(entry(head), move |&(_, node)| entry(node.next))
}

/// A deterministic future-event list.
///
/// # Examples
///
/// ```
/// use riptide_simnet::event::EventQueue;
/// use riptide_simnet::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(5), "later");
/// q.schedule(SimTime::from_millis(1), "sooner");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "sooner")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(5), "later")));
/// assert_eq!(q.pop(), None);
/// ```
#[derive(Clone)]
pub struct EventQueue<E> {
    /// Payload slab; every pending event owns one node.
    nodes: Vec<Node<E>>,
    /// Head of the free list through `Node::next`.
    free: u32,
    /// The open slot (absolute, `at >> SLOT_SHIFT`): the wheel holds slots
    /// `open + 1 .. open + WHEEL_SLOTS`, each at index `slot % WHEEL_SLOTS`.
    open: u64,
    /// The open slot's events as of its opening, sorted descending.
    run: Vec<Entry>,
    /// Events scheduled into the open or an earlier slot since.
    near: BinaryHeap<Reverse<Entry>>,
    /// Per-slot list heads.
    heads: Box<[u32; WHEEL_SLOTS]>,
    /// Bit `i` is set iff `heads[i]` is not `NIL`.
    occupied: [u64; BITMAP_WORDS],
    /// Events `WHEEL_SLOTS` or more slots past the open one.
    far: BinaryHeap<Reverse<Entry>>,
    len: usize,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // The derived form would print 4 096 list heads.
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("next", &self.peek_time())
            .field("scheduled_total", &self.next_seq)
            .finish_non_exhaustive()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            nodes: Vec::new(),
            free: NIL,
            open: 0,
            run: Vec::new(),
            near: BinaryHeap::new(),
            heads: Box::new([NIL; WHEEL_SLOTS]),
            occupied: [0; BITMAP_WORDS],
            far: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// Events at equal instants fire in scheduling order.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let node = Node {
            at,
            seq,
            next: NIL,
            payload: Some(payload),
        };
        let index = if self.free == NIL {
            let index = u32::try_from(self.nodes.len())
                .ok()
                .filter(|&i| i != NIL)
                .expect("event slab full");
            self.nodes.push(node);
            index
        } else {
            let index = self.free;
            self.free = self.nodes[index as usize].next;
            self.nodes[index as usize] = node;
            index
        };
        let slot = slot_of(at);
        if slot <= self.open {
            self.near.push(Reverse((at, seq, index)));
        } else if slot - self.open < WHEEL_SLOTS as u64 {
            self.link(slot, index);
        } else {
            self.far.push(Reverse((at, seq, index)));
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.pop_before(SimTime::MAX)
    }

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`.
    ///
    /// Prefer this to `peek_time` followed by `pop` when draining up to an
    /// instant: it is one look at the front of the queue instead of two,
    /// and it leaves slots that start after `deadline` unopened, so events
    /// scheduled next — from `deadline` on — still take the O(1) path.
    pub fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, E)> {
        if self.run.is_empty() && self.near.is_empty() && !self.open_next(deadline) {
            return None;
        }
        let run = self.run.last().copied();
        let near = self.near.peek().map(|&Reverse(e)| e);
        let from_near = near.is_some_and(|n| run.is_none_or(|r| n < r));
        let (at, _, index) = if from_near { near } else { run }?;
        if at > deadline {
            return None;
        }
        if from_near {
            self.near.pop();
        } else {
            self.run.pop();
        }
        let node = &mut self.nodes[index as usize];
        let payload = node.payload.take().expect("pending node holds a payload");
        node.next = self.free;
        self.free = index;
        self.len -= 1;
        Some((at, payload))
    }

    /// The instant of the earliest pending event.
    ///
    /// Cannot open a slot, so with `run` and `near` both drained it walks
    /// the next occupied slot's list: O(that slot's population).
    pub fn peek_time(&self) -> Option<SimTime> {
        let opened = [
            self.run.last().map(|e| e.0),
            self.near.peek().map(|Reverse(e)| e.0),
        ];
        if let Some(at) = opened.into_iter().flatten().min() {
            return Some(at);
        }
        if let Some(slot) = self.next_occupied() {
            let head = self.heads[slot as usize % WHEEL_SLOTS];
            return list(&self.nodes, head).map(|(_, node)| node.at).min();
        }
        self.far.peek().map(|Reverse(e)| e.0)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events ever scheduled (for throughput accounting).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// Links node `index` at the head of wheel slot `slot`'s list.
    fn link(&mut self, slot: u64, index: u32) {
        let i = slot as usize % WHEEL_SLOTS;
        self.nodes[index as usize].next = self.heads[i];
        self.heads[i] = index;
        self.occupied[i / 64] |= 1 << (i % 64);
    }

    /// The earliest occupied wheel slot (absolute), if the wheel holds
    /// anything.
    fn next_occupied(&self) -> Option<u64> {
        // Index `open % WHEEL_SLOTS` is the open slot's own and is empty, so
        // the circular scan may start on it, and the distance it finds is
        // in `1..WHEEL_SLOTS`.
        let start = self.open as usize % WHEEL_SLOTS;
        let (word, bit) = (start / 64, start % 64);
        let ahead = self.occupied[word] >> bit;
        let distance = if ahead != 0 {
            ahead.trailing_zeros() as usize
        } else {
            (1..=BITMAP_WORDS).find_map(|k| {
                let bits = self.occupied[(word + k) % BITMAP_WORDS];
                (bits != 0).then(|| k * 64 - bit + bits.trailing_zeros() as usize)
            })?
        };
        Some(self.open + distance as u64)
    }

    /// With `run` and `near` drained, moves the open slot to the next one
    /// that holds anything and sorts that slot into `run` — unless it starts
    /// after `deadline`. Returns whether a slot was opened.
    fn open_next(&mut self, deadline: SimTime) -> bool {
        debug_assert!(self.run.is_empty() && self.near.is_empty());
        // `far` is never earlier than the wheel: it starts a whole span
        // past a slot at or before the wheel's first.
        let next = self
            .next_occupied()
            .or_else(|| self.far.peek().map(|Reverse(e)| slot_of(e.0)));
        let Some(slot) = next.filter(|&s| s <= slot_of(deadline)) else {
            return false;
        };
        self.open = slot;
        while let Some(&Reverse((at, _, index))) = self.far.peek() {
            if slot_of(at) - slot >= WHEEL_SLOTS as u64 {
                break;
            }
            self.far.pop();
            self.link(slot_of(at), index);
        }
        let i = slot as usize % WHEEL_SLOTS;
        let head = std::mem::replace(&mut self.heads[i], NIL);
        self.occupied[i / 64] &= !(1 << (i % 64));
        self.run
            .extend(list(&self.nodes, head).map(|(index, node)| (node.at, node.seq, index)));
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        true
    }

    /// `[slab, run, near, far]` capacities: what a warm queue must not grow.
    #[cfg(test)]
    fn capacities(&self) -> [usize; 4] {
        [
            self.nodes.capacity(),
            self.run.capacity(),
            self.near.capacity(),
            self.far.capacity(),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DetRng;
    use crate::time::SimDuration;

    const SLOT_NS: u64 = 1 << SLOT_SHIFT;
    const SPAN_NS: u64 = SLOT_NS * WHEEL_SLOTS as u64;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(30), 3);
        q.schedule(SimTime::from_millis(10), 1);
        q.schedule(SimTime::from_millis(20), 2);
        assert_eq!(drain(&mut q), vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_millis(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_millis(1), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        assert_eq!(q.pop().unwrap().0, SimTime::from_millis(1));
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
    }

    #[test]
    fn len_and_totals_track() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, ());
        q.schedule(SimTime::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.scheduled_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.scheduled_total(), 2);
    }

    #[test]
    fn clone_preserves_pending_order() {
        let mut q = EventQueue::new();
        for i in (0..50).rev() {
            q.schedule(SimTime::from_millis(i), i);
        }
        // Leave the clone something in every tier.
        assert_eq!(q.pop(), Some((SimTime::ZERO, 0)));
        q.schedule(SimTime::from_nanos(5), 100);
        q.schedule(SimTime::from_secs(60), 101);
        let mut c = q.clone();
        assert_eq!(drain(&mut q), drain(&mut c));
    }

    #[test]
    fn every_tier_pops_in_order_across_the_span_boundary() {
        let mut q = EventQueue::new();
        let times = [
            SPAN_NS + SLOT_NS, // far
            SPAN_NS,           // first slot past the span: far
            SPAN_NS - 1,       // last wheel slot
            SLOT_NS,           // first wheel slot
            SLOT_NS - 1,       // open slot: near
            0,
            u64::MAX,
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_nanos(t), i);
        }
        assert_eq!(
            [q.near.len(), q.far.len()],
            [2, 3],
            "tiers are cut at the open slot and one span past it"
        );
        assert_eq!(drain(&mut q), vec![5, 4, 3, 2, 1, 0, 6]);
    }

    #[test]
    fn earlier_than_the_last_pop_still_orders() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), "b");
        q.schedule(SimTime::from_secs(3), "d");
        assert_eq!(q.pop().unwrap().1, "b");
        q.schedule(SimTime::from_secs(1), "a");
        q.schedule(SimTime::from_secs(2), "c");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1)));
        assert_eq!(drain(&mut q), vec!["a", "c", "d"]);
    }

    #[test]
    fn pop_before_is_inclusive_and_leaves_later_slots_unopened() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(50), "late");
        assert_eq!(q.pop_before(SimTime::from_millis(10)), None);
        assert_eq!(q.open, 0, "the slot at 50 ms starts after the deadline");
        // Scheduled from the deadline on, events still take the wheel.
        q.schedule(SimTime::from_millis(20), "early");
        assert!(q.near.is_empty());
        assert_eq!(q.pop_before(SimTime::from_millis(20)).unwrap().1, "early");
        assert_eq!(q.pop_before(SimTime::from_nanos(50_000_000 - 1)), None);
        assert_eq!(q.pop_before(SimTime::from_millis(50)).unwrap().1, "late");
        assert_eq!(q.pop_before(SimTime::MAX), None);
    }

    #[test]
    fn idle_gap_longer_than_a_revolution() {
        let mut q = EventQueue::new();
        let mut now = SimTime::ZERO;
        for round in 0..5u64 {
            // The bitmap is empty each time the index wraps.
            now += SimDuration::from_nanos(SPAN_NS * 3 + round * SLOT_NS + 7);
            q.schedule(now, round);
            q.schedule(now + SimDuration::from_nanos(SLOT_NS), round + 100);
            assert_eq!(q.pop(), Some((now, round)));
            assert_eq!(q.pop().unwrap().1, round + 100);
            assert_eq!(q.pop(), None);
        }
    }

    /// The hold model: pop the earliest, schedule one `step()` later.
    fn hold(q: &mut EventQueue<u64>, ops: usize, mut step: impl FnMut() -> u64) {
        for _ in 0..ops {
            let (at, payload) = q.pop().expect("the queue holds its depth");
            q.schedule(at + SimDuration::from_nanos(step()), payload);
        }
    }

    #[test]
    fn slots_are_recycled_after_pop() {
        // Interleaved schedule/pop must not grow the slab past the
        // high-water mark of concurrently pending events.
        let mut q = EventQueue::new();
        for round in 0..1000u64 {
            q.schedule(SimTime::from_millis(round), round);
            q.schedule(SimTime::from_millis(round), round + 1);
            let (_, v) = q.pop().unwrap();
            assert_eq!(v, round);
            q.pop().unwrap();
        }
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 2000);
        assert!(
            q.nodes.len() <= 2,
            "slab bounded by peak pending events, got {}",
            q.nodes.len()
        );
    }

    #[test]
    fn steady_state_allocates_nothing() {
        // `bulk-bottleneck`'s shape: 4 000 pending, a third of the steps
        // RTO-sized, the rest path delays; now and then a backed-off timer
        // beyond the wheel's span, and a step shorter than a slot.
        const DEPTH: usize = 4_000;
        let mut rng = DetRng::for_stream(2016, 0x4556);
        let mut step = move || match rng.below(300) {
            0 => 5_000_000_000 + rng.below(1_000_000_000) as u64,
            1 => rng.below(SLOT_NS as usize) as u64,
            2..=99 => 200_000_000 + rng.below(50_000_000) as u64,
            _ => 1_000_000 + rng.below(20_000_000) as u64,
        };
        let mut q = EventQueue::new();
        for i in 0..DEPTH {
            q.schedule(SimTime::from_nanos(step()), i as u64);
        }
        hold(&mut q, 200_000, &mut step);
        let warm = q.capacities();
        hold(&mut q, 1_000_000, &mut step);
        assert_eq!(q.capacities(), warm, "[slab, run, near, far] grew");
        assert_eq!(q.len(), DEPTH);
        assert!(
            q.nodes.len() <= DEPTH,
            "slab bounded by peak pending events, got {}",
            q.nodes.len()
        );
    }
}
