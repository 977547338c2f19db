//! A Linux-style IPv4 routing table with longest-prefix-match lookup and
//! per-route TCP attributes (`initcwnd`, `initrwnd`).
//!
//! This is the kernel structure Riptide manipulates: since Linux refuses a
//! per-socket initial-congestion-window API (§III-C), the only sanctioned
//! control point is a route attribute, and Riptide therefore installs one
//! route per destination it has learned about. The table implements the
//! semantics of `ip route add/replace/del` plus longest-prefix-match
//! lookup, backed by the compressed multibit trie in [`crate::lpm`] so it
//! stays fast at a million learned prefixes.

use std::convert::Infallible;
use std::fmt;
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::lpm::LpmTrie;
use crate::prefix::Ipv4Prefix;

/// Route origin, mirroring `ip route`'s `proto` attribute.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RouteProto {
    /// Installed by an administrator or tool (`proto static`) — what
    /// Riptide uses.
    #[default]
    Static,
    /// Installed by the kernel (`proto kernel`), e.g. connected subnets.
    Kernel,
    /// Installed at boot (`proto boot`).
    Boot,
}

impl fmt::Display for RouteProto {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RouteProto::Static => "static",
            RouteProto::Kernel => "kernel",
            RouteProto::Boot => "boot",
        };
        f.write_str(s)
    }
}

/// Attributes carried by a route.
///
/// Only the attributes the paper's tool touches are modelled; `initcwnd`
/// is the one Riptide exists to set, and §III-C requires `initrwnd` be
/// raised alongside it on receivers.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RouteAttrs {
    /// Next hop (`via`).
    pub via: Option<Ipv4Addr>,
    /// Output device (`dev`).
    pub dev: Option<String>,
    /// Route origin (`proto`).
    pub proto: RouteProto,
    /// Initial congestion window for new connections over this route, in
    /// segments.
    pub initcwnd: Option<u32>,
    /// Initial receive window advertised for connections over this route,
    /// in segments.
    pub initrwnd: Option<u32>,
}

impl RouteAttrs {
    /// Attributes for a Riptide-style static route with the given
    /// initcwnd.
    pub fn initcwnd(window: u32) -> Self {
        RouteAttrs {
            initcwnd: Some(window),
            ..RouteAttrs::default()
        }
    }
}

/// One routing-table entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Route {
    /// Destination prefix.
    pub prefix: Ipv4Prefix,
    /// Attributes.
    pub attrs: RouteAttrs,
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.prefix)?;
        if let Some(dev) = &self.attrs.dev {
            write!(f, " dev {dev}")?;
        }
        write!(f, " proto {}", self.attrs.proto)?;
        if let Some(w) = self.attrs.initcwnd {
            write!(f, " initcwnd {w}")?;
        }
        if let Some(w) = self.attrs.initrwnd {
            write!(f, " initrwnd {w}")?;
        }
        if let Some(via) = self.attrs.via {
            write!(f, " via {via}")?;
        }
        Ok(())
    }
}

/// An error produced when parsing a route line from `ip route show`
/// output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseRouteError {
    message: String,
}

impl ParseRouteError {
    fn new(message: impl Into<String>) -> Self {
        ParseRouteError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseRouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid route line: {}", self.message)
    }
}

impl std::error::Error for ParseRouteError {}

impl FromStr for Route {
    type Err = ParseRouteError;

    /// Parses one `ip route show` line, e.g.
    /// `10.0.0.127 dev eth0 proto static initcwnd 80 via 10.0.0.1`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // A value read through its `FromStr`; the error names the key.
        fn parsed<T: FromStr<Err: fmt::Display>>(key: &str, v: &str) -> Result<T, ParseRouteError> {
            v.parse()
                .map_err(|e| ParseRouteError::new(format!("bad {key} {v:?}: {e}")))
        }
        let mut toks = s.split_whitespace();
        let prefix_tok = toks
            .next()
            .ok_or_else(|| ParseRouteError::new("empty line"))?;
        let prefix: crate::prefix::Ipv4Prefix = prefix_tok
            .parse()
            .map_err(|e| ParseRouteError::new(format!("{e}")))?;
        let mut attrs = RouteAttrs::default();
        while let Some(key) = toks.next() {
            let mut value = || {
                toks.next()
                    .ok_or_else(|| ParseRouteError::new(format!("{key} needs a value")))
            };
            match key {
                "dev" => attrs.dev = Some(value()?.to_string()),
                "via" => attrs.via = Some(parsed(key, value()?)?),
                "proto" => {
                    attrs.proto = match value()? {
                        "static" => RouteProto::Static,
                        "kernel" => RouteProto::Kernel,
                        "boot" => RouteProto::Boot,
                        other => {
                            return Err(ParseRouteError::new(format!("unknown proto {other:?}")))
                        }
                    };
                }
                "initcwnd" => attrs.initcwnd = Some(parsed(key, value()?)?),
                "initrwnd" => attrs.initrwnd = Some(parsed(key, value()?)?),
                other => return Err(ParseRouteError::new(format!("unknown attribute {other:?}"))),
            }
        }
        Ok(Route { prefix, attrs })
    }
}

/// Errors from route-table mutations, matching the errno surface of the
/// real `ip` tool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// `ip route add` on an existing prefix (`EEXIST: File exists`).
    AlreadyExists(Ipv4Prefix),
    /// `ip route del` on a missing prefix (`ESRCH: No such process`).
    NotFound(Ipv4Prefix),
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::AlreadyExists(p) => write!(f, "route to {p} already exists"),
            RouteError::NotFound(p) => write!(f, "no route to {p}"),
        }
    }
}

impl std::error::Error for RouteError {}

/// An IPv4 routing table with longest-prefix-match lookup.
///
/// # Examples
///
/// ```
/// use riptide_linuxnet::route::{RouteAttrs, RouteTable};
/// use riptide_linuxnet::prefix::Ipv4Prefix;
/// use std::net::Ipv4Addr;
///
/// let mut table = RouteTable::new();
/// table.add(Ipv4Prefix::default_route(), RouteAttrs::default())?;
/// table.add("10.0.1.0/24".parse()?, RouteAttrs::initcwnd(80))?;
///
/// // LPM: the /24 wins over the default route.
/// let route = table.lookup(Ipv4Addr::new(10, 0, 1, 9)).unwrap();
/// assert_eq!(route.attrs.initcwnd, Some(80));
/// assert_eq!(table.initcwnd_for(Ipv4Addr::new(10, 9, 9, 9)), None);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct RouteTable {
    /// Prefix → index into `routes`. The trie answers containment and
    /// LPM; the `routes` vec owns the entries and preserves insertion
    /// order for [`RouteTable::iter`]. A replaced or deleted route leaves
    /// a `None` tombstone behind (reusing the slot would reorder
    /// `iter`); [`RouteTable::compact_if_sparse`] squeezes them out.
    trie: LpmTrie<u32>,
    routes: Vec<Option<Route>>,
    len: usize,
}

/// Tombstones tolerated on top of one per live route before the arena is
/// compacted, so a table of a handful of routes is not re-packed on every
/// other update.
const TOMBSTONE_SLACK: usize = 64;

impl RouteTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        RouteTable::default()
    }

    /// Number of installed routes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no routes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn next_index(&self) -> u32 {
        u32::try_from(self.routes.len()).expect("route arena exceeds u32 indices")
    }

    /// Installs a new route (`ip route add`).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::AlreadyExists`] if a route to exactly this
    /// prefix is present, as the real tool does.
    pub fn add(&mut self, prefix: Ipv4Prefix, attrs: RouteAttrs) -> Result<(), RouteError> {
        if self.trie.get(&prefix).is_some() {
            return Err(RouteError::AlreadyExists(prefix));
        }
        let idx = self.next_index();
        self.routes.push(Some(Route { prefix, attrs }));
        self.trie.insert(prefix, idx);
        self.len += 1;
        Ok(())
    }

    /// Installs or overwrites a route (`ip route replace`). Returns the
    /// previous route if one existed.
    pub fn replace(&mut self, prefix: Ipv4Prefix, attrs: RouteAttrs) -> Option<Route> {
        let idx = self.next_index();
        self.routes.push(Some(Route { prefix, attrs }));
        match self.trie.insert(prefix, idx) {
            Some(old_idx) => {
                let old = self.routes[old_idx as usize].take();
                self.compact_if_sparse();
                old
            }
            None => {
                self.len += 1;
                None
            }
        }
    }

    /// Squeezes the tombstones out of the arena once they outnumber the
    /// live routes (plus [`TOMBSTONE_SLACK`]), keeping the live routes'
    /// relative order and rewriting the trie's indices. Every compaction
    /// is paid for by at least as many replaces and deletes as it moves
    /// routes, so the cost is amortised O(1) per update and the arena
    /// stays within `2 × len() + TOMBSTONE_SLACK` slots for ever.
    fn compact_if_sparse(&mut self) {
        if self.routes.len() - self.len <= self.len + TOMBSTONE_SLACK {
            return;
        }
        let mut live = 0u32;
        let moved_to: Vec<u32> = self
            .routes
            .iter()
            .map(|slot| {
                let to = live;
                live += u32::from(slot.is_some());
                to
            })
            .collect();
        self.routes.retain(Option::is_some);
        self.trie
            .for_each_value_mut(|idx| *idx = moved_to[*idx as usize]);
    }

    /// Removes the route to exactly `prefix` (`ip route del`).
    ///
    /// # Errors
    ///
    /// Returns [`RouteError::NotFound`] if no such route exists.
    pub fn del(&mut self, prefix: Ipv4Prefix) -> Result<Route, RouteError> {
        match self.trie.remove(&prefix) {
            Some(idx) => {
                self.len -= 1;
                let route = self.routes[idx as usize]
                    .take()
                    .expect("route slot populated");
                self.compact_if_sparse();
                Ok(route)
            }
            None => Err(RouteError::NotFound(prefix)),
        }
    }

    /// Returns the route to exactly `prefix`, if installed.
    pub fn get(&self, prefix: Ipv4Prefix) -> Option<&Route> {
        let idx = *self.trie.get(&prefix)?;
        self.routes[idx as usize].as_ref()
    }

    /// Longest-prefix-match lookup: the most specific route covering
    /// `addr`.
    pub fn lookup(&self, addr: Ipv4Addr) -> Option<&Route> {
        let (_, &idx) = self.trie.lookup(addr)?;
        self.routes[idx as usize].as_ref()
    }

    /// The effective initial congestion window for new connections to
    /// `addr`: the `initcwnd` attribute of its longest-prefix-match route,
    /// if any. This is the exact question the kernel asks at connect time.
    pub fn initcwnd_for(&self, addr: Ipv4Addr) -> Option<u32> {
        self.lookup(addr).and_then(|r| r.attrs.initcwnd)
    }

    /// Iterates installed routes in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = &Route> {
        self.routes.iter().filter_map(|r| r.as_ref())
    }

    /// Renders the table in `ip route show` style, one route per line,
    /// in insertion order.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for r in self.iter() {
            out.push_str(&r.to_string());
            out.push('\n');
        }
        out
    }

    /// Parses `ip route show`-style text into a table — how a real agent
    /// would ingest the current kernel state at startup before
    /// recovering stale routes.
    ///
    /// # Errors
    ///
    /// Returns the first line's parse failure, or an
    /// [`RouteError::AlreadyExists`]-derived parse error on duplicate
    /// prefixes.
    pub fn parse(text: &str) -> Result<Self, ParseRouteError> {
        Self::scan(text, Err)
    }

    /// Parses `ip route show`-style text, salvaging every line that
    /// parses instead of failing on the first defect — the ingestion
    /// mode the reconciler's audit loop needs, since a real kernel dump
    /// contains routes (and attributes) installed by other tools that
    /// this model does not cover. Returns one error per skipped line, in
    /// input order; `parse_lossy(t).1.is_empty()` exactly when
    /// [`RouteTable::parse`] succeeds.
    pub fn parse_lossy(text: &str) -> (Self, Vec<ParseRouteError>) {
        let mut errors = Vec::new();
        let Ok(table) = Self::scan(text, |e| {
            errors.push(e);
            Ok::<(), Infallible>(())
        });
        (table, errors)
    }

    /// The line loop behind [`RouteTable::parse`] and
    /// [`RouteTable::parse_lossy`]: every defect goes to `sink`, which
    /// ends the scan with it (strict) or keeps it (lossy).
    fn scan<E>(
        text: &str,
        mut sink: impl FnMut(ParseRouteError) -> Result<(), E>,
    ) -> Result<Self, E> {
        let mut table = RouteTable::new();
        for line in text.lines().filter(|line| !line.trim().is_empty()) {
            let added = line.parse::<Route>().and_then(|route| {
                let added = table.add(route.prefix, route.attrs);
                added.map_err(|e| ParseRouteError::new(e.to_string()))
            });
            if let Err(e) = added {
                sink(e)?;
            }
        }
        Ok(table)
    }
}

impl<'a> IntoIterator for &'a RouteTable {
    type Item = &'a Route;
    type IntoIter = Box<dyn Iterator<Item = &'a Route> + 'a>;

    fn into_iter(self) -> Self::IntoIter {
        Box::new(self.iter())
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

    #[test]
    fn add_get_del_round_trip() {
        let mut t = RouteTable::new();
        t.add(p("10.0.0.127"), RouteAttrs::initcwnd(80)).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(p("10.0.0.127")).unwrap().attrs.initcwnd, Some(80));
        let removed = t.del(p("10.0.0.127")).unwrap();
        assert_eq!(removed.attrs.initcwnd, Some(80));
        assert!(t.is_empty());
    }

    #[test]
    fn add_duplicate_fails_like_ip() {
        let mut t = RouteTable::new();
        t.add(p("10.0.0.0/24"), RouteAttrs::default()).unwrap();
        let err = t.add(p("10.0.0.99/24"), RouteAttrs::default()).unwrap_err();
        assert_eq!(err, RouteError::AlreadyExists(p("10.0.0.0/24")));
    }

    #[test]
    fn del_missing_fails_like_ip() {
        let mut t = RouteTable::new();
        assert_eq!(
            t.del(p("10.0.0.0/24")).unwrap_err(),
            RouteError::NotFound(p("10.0.0.0/24"))
        );
    }

    #[test]
    fn replace_overwrites_and_reports_old() {
        let mut t = RouteTable::new();
        assert!(t.replace(p("10.0.0.1"), RouteAttrs::initcwnd(50)).is_none());
        let old = t.replace(p("10.0.0.1"), RouteAttrs::initcwnd(90)).unwrap();
        assert_eq!(old.attrs.initcwnd, Some(50));
        assert_eq!(t.len(), 1);
        assert_eq!(t.initcwnd_for(ip("10.0.0.1")), Some(90));
    }

    #[test]
    fn lpm_prefers_most_specific() {
        let mut t = RouteTable::new();
        t.add(Ipv4Prefix::default_route(), RouteAttrs::initcwnd(10))
            .unwrap();
        t.add(p("10.0.0.0/8"), RouteAttrs::initcwnd(20)).unwrap();
        t.add(p("10.1.0.0/16"), RouteAttrs::initcwnd(40)).unwrap();
        t.add(p("10.1.2.0/24"), RouteAttrs::initcwnd(80)).unwrap();
        t.add(p("10.1.2.3"), RouteAttrs::initcwnd(160)).unwrap();

        assert_eq!(t.initcwnd_for(ip("10.1.2.3")), Some(160));
        assert_eq!(t.initcwnd_for(ip("10.1.2.4")), Some(80));
        assert_eq!(t.initcwnd_for(ip("10.1.3.1")), Some(40));
        assert_eq!(t.initcwnd_for(ip("10.2.0.1")), Some(20));
        assert_eq!(t.initcwnd_for(ip("11.0.0.1")), Some(10));
    }

    #[test]
    fn lookup_without_default_route_can_miss() {
        let mut t = RouteTable::new();
        t.add(p("10.0.0.0/24"), RouteAttrs::initcwnd(44)).unwrap();
        assert!(t.lookup(ip("192.168.0.1")).is_none());
        assert_eq!(t.initcwnd_for(ip("192.168.0.1")), None);
    }

    #[test]
    fn route_without_initcwnd_yields_none() {
        let mut t = RouteTable::new();
        t.add(p("10.0.0.0/24"), RouteAttrs::default()).unwrap();
        assert!(t.lookup(ip("10.0.0.5")).is_some());
        assert_eq!(t.initcwnd_for(ip("10.0.0.5")), None);
    }

    #[test]
    fn deleting_specific_falls_back_to_covering() {
        let mut t = RouteTable::new();
        t.add(p("10.0.0.0/16"), RouteAttrs::initcwnd(30)).unwrap();
        t.add(p("10.0.1.0/24"), RouteAttrs::initcwnd(99)).unwrap();
        assert_eq!(t.initcwnd_for(ip("10.0.1.1")), Some(99));
        t.del(p("10.0.1.0/24")).unwrap();
        assert_eq!(t.initcwnd_for(ip("10.0.1.1")), Some(30));
    }

    #[test]
    fn iter_yields_live_routes_only() {
        let mut t = RouteTable::new();
        t.add(p("10.0.0.1"), RouteAttrs::initcwnd(1)).unwrap();
        t.add(p("10.0.0.2"), RouteAttrs::initcwnd(2)).unwrap();
        t.del(p("10.0.0.1")).unwrap();
        let prefixes: Vec<String> = t.iter().map(|r| r.prefix.to_string()).collect();
        assert_eq!(prefixes, vec!["10.0.0.2"]);
    }

    #[test]
    fn display_matches_ip_route_style() {
        let r = Route {
            prefix: p("10.0.0.127"),
            attrs: RouteAttrs {
                via: Some(ip("10.0.0.1")),
                dev: Some("eth0".into()),
                proto: RouteProto::Static,
                initcwnd: Some(80),
                initrwnd: None,
            },
        };
        assert_eq!(
            r.to_string(),
            "10.0.0.127 dev eth0 proto static initcwnd 80 via 10.0.0.1"
        );
    }

    #[test]
    fn render_is_ip_route_show_shaped() {
        let mut t = RouteTable::new();
        t.add(p("10.0.2.1"), RouteAttrs::initcwnd(80)).unwrap();
        assert_eq!(t.render(), "10.0.2.1 proto static initcwnd 80\n");
    }

    #[test]
    fn render_parse_round_trip() {
        let mut t = RouteTable::new();
        t.add(
            p("10.0.0.127"),
            RouteAttrs {
                via: Some(ip("10.0.0.1")),
                dev: Some("eth0".into()),
                proto: RouteProto::Static,
                initcwnd: Some(80),
                initrwnd: Some(200),
            },
        )
        .unwrap();
        t.add(
            p("10.9.0.0/16"),
            RouteAttrs {
                proto: RouteProto::Kernel,
                ..RouteAttrs::default()
            },
        )
        .unwrap();
        let parsed = RouteTable::parse(&t.render()).unwrap();
        assert_eq!(parsed.len(), 2);
        assert_eq!(parsed.initcwnd_for(ip("10.0.0.127")), Some(80));
        assert_eq!(
            parsed.get(p("10.0.0.127")).unwrap().attrs,
            t.get(p("10.0.0.127")).unwrap().attrs
        );
        assert_eq!(parsed.render(), t.render());
    }

    #[test]
    fn parse_rejects_garbage_lines() {
        assert!(RouteTable::parse("10.0.0.1 proto warp\n").is_err());
        assert!(RouteTable::parse("notanip proto static\n").is_err());
        assert!(RouteTable::parse("10.0.0.1 initcwnd\n").is_err());
        // Duplicate prefixes in show output would be a kernel bug; we
        // reject them.
        let dup = "10.0.0.1 proto static\n10.0.0.1 proto static\n";
        assert!(RouteTable::parse(dup).is_err());
        // Blank lines are tolerated.
        assert_eq!(RouteTable::parse("\n\n").unwrap().len(), 0);
    }

    #[test]
    fn parse_lossy_salvages_known_routes_among_foreign_lines() {
        // A realistic kernel dump: connected subnets, a dhcp default
        // route with attributes we don't model, and two Riptide routes.
        let dump = "default via 10.0.0.1 dev eth0 proto dhcp metric 100\n\
                    10.0.0.0/24 dev eth0 proto kernel\n\
                    10.0.1.7 proto static initcwnd 80\n\
                    10.0.1.8 proto static initcwnd 44\n";
        let (table, errors) = RouteTable::parse_lossy(dump);
        assert_eq!(errors.len(), 1, "only the dhcp line is unparseable");
        assert_eq!(table.len(), 3);
        assert_eq!(table.initcwnd_for(ip("10.0.1.7")), Some(80));
        assert!(table.get(p("10.0.0.0/24")).is_some(), "kernel route kept");
    }

    #[test]
    fn parse_lossy_agrees_with_strict_parse_on_clean_input() {
        let mut t = RouteTable::new();
        t.add(p("10.0.2.1"), RouteAttrs::initcwnd(80)).unwrap();
        let (lossy, errors) = RouteTable::parse_lossy(&t.render());
        assert!(errors.is_empty());
        assert_eq!(lossy.render(), t.render());
    }

    #[test]
    fn arena_stays_bounded_under_endless_replace_and_del() {
        // A daemon's life: the same hundred prefixes replaced and deleted
        // for ever. The reference keeps routes in a plain list, moving a
        // replaced route to the end — `iter`'s order with no arena at all.
        let prefixes: Vec<Ipv4Prefix> = (0..100u32)
            .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0a00_0000 + (i << 6)), 26 + (i % 7) as u8))
            .collect();
        let mut t = RouteTable::new();
        let mut reference: Vec<(Ipv4Prefix, u32)> = Vec::new();
        let mut state = 0x2016u64;
        for step in 0..1_000_000u32 {
            // xorshift: cheap, deterministic, and mixes deletes in.
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let prefix = prefixes[(state % 100) as usize];
            let held = reference.iter().position(|(p, _)| *p == prefix);
            if (state >> 32).is_multiple_of(3) {
                assert_eq!(t.del(prefix).is_ok(), held.is_some());
                if let Some(at) = held {
                    reference.remove(at);
                }
            } else {
                let window = step % 90 + 10;
                let old = t.replace(prefix, RouteAttrs::initcwnd(window));
                assert_eq!(old.is_some(), held.is_some());
                if let Some(at) = held {
                    reference.remove(at);
                }
                reference.push((prefix, window));
            }
            assert!(
                t.routes.len() <= 2 * t.len() + TOMBSTONE_SLACK,
                "step {step}: {} slots for {} routes",
                t.routes.len(),
                t.len()
            );
            assert_eq!(t.len(), reference.len());
        }
        let want: String = reference
            .iter()
            .map(|(p, w)| format!("{p} proto static initcwnd {w}\n"))
            .collect();
        assert_eq!(t.render(), want);
        for (p, w) in &reference {
            assert_eq!(t.get(*p).unwrap().attrs.initcwnd, Some(*w));
            // The prefixes are disjoint, so LPM must land on the same
            // renumbered slot.
            assert_eq!(t.initcwnd_for(p.network()), Some(*w));
        }
    }

    #[test]
    fn many_routes_scale() {
        let mut t = RouteTable::new();
        for i in 0..1000u32 {
            let addr = Ipv4Addr::from(0x0a00_0000 + i);
            t.add(Ipv4Prefix::host(addr), RouteAttrs::initcwnd(i % 200 + 1))
                .unwrap();
        }
        assert_eq!(t.len(), 1000);
        for i in (0..1000u32).step_by(97) {
            let addr = Ipv4Addr::from(0x0a00_0000 + i);
            assert_eq!(t.initcwnd_for(addr), Some(i % 200 + 1));
        }
    }
}
