//! The agent's final-values table: one learned window per destination
//! key, with history state and TTL bookkeeping.

use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::ops::RangeInclusive;

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::{SimDuration, SimTime};

use crate::flat;
use crate::policy::{HistoryState, LearningPolicy, PolicyInput};

/// One destination's learned state.
#[derive(Debug, Clone, PartialEq)]
pub struct FinalEntry {
    /// The clamped window currently installed for this destination.
    pub window: u32,
    /// History accumulator feeding the next blend.
    pub history: HistoryState,
    /// The most recent *fresh* (pre-blend) combined value — what the
    /// trend policy differentiates.
    pub last_fresh: f64,
    /// When the entry was last refreshed by an observation.
    pub last_updated: SimTime,
}

impl FinalEntry {
    /// A first-seen destination's entry: empty history, no window
    /// committed yet.
    pub fn new(policy: &LearningPolicy, fresh: f64, now: SimTime) -> Self {
        FinalEntry {
            window: 0,
            history: policy.new_state(),
            last_fresh: fresh,
            last_updated: now,
        }
    }

    /// Feeds one observation group through the policy, stamps the entry
    /// with `now`, and returns the blended pre-clamp value.
    pub fn observe(&mut self, input: &PolicyInput, policy: &LearningPolicy, now: SimTime) -> f64 {
        self.last_updated = now;
        let blended = policy.observe(&mut self.history, input);
        self.last_fresh = input.fresh;
        blended
    }

    fn is_stale(&self, now: SimTime, ttl: SimDuration) -> bool {
        now.saturating_since(self.last_updated) > ttl
    }
}

/// The per-destination table of Algorithm 1's "final window values".
///
/// Keys are routing prefixes (the configured granularity applied to
/// destination addresses). The entries are one key-sorted `Vec`:
/// iteration is in key order, so route updates replay identically across
/// runs, and a tick's walk of a million entries reads memory in order. A
/// lookup is a binary search. A single insert out of key order shifts
/// every later entry (`O(n)`); the agent's own writes come in key-ordered
/// batches (a tick's sweep, a restore, a gossip merge) and merge in one
/// pass.
///
/// A table may be *capacity-bounded* ([`FinalTable::bounded`]): when an
/// update would grow it past its capacity, the least-recently-updated
/// entries are evicted first (ties broken by key order, so eviction is
/// deterministic). This bounds kernel route-table growth when the agent
/// faces millions of distinct destinations.
///
/// # Examples
///
/// ```
/// use riptide::table::FinalTable;
/// use riptide::policy::LearningPolicy;
/// use riptide_simnet::time::{SimDuration, SimTime};
///
/// let strategy = LearningPolicy::Ewma { alpha: 0.5 };
/// let mut t = FinalTable::new();
/// let key = "10.0.0.127".parse()?;
///
/// // Blend an observation, then commit the clamped window.
/// let blended = t.blend(key, 80.0, &strategy, SimTime::from_secs(1));
/// t.set_window(&key, blended.round() as u32);
/// assert_eq!(t.window(&key), Some(80));
///
/// // Entries expire once unrefreshed for longer than the TTL.
/// let dead = t.expire(SimTime::from_secs(200), SimDuration::from_secs(90));
/// assert_eq!(dead, vec![key]);
/// assert!(t.is_empty());
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct FinalTable {
    /// Strictly ascending by key.
    entries: Vec<(Ipv4Prefix, FinalEntry)>,
    capacity: Option<usize>,
}

impl FinalTable {
    /// Creates an empty, unbounded table.
    pub fn new() -> Self {
        FinalTable::default()
    }

    /// Creates an empty table holding at most `capacity` destinations.
    pub fn bounded(capacity: usize) -> Self {
        FinalTable {
            entries: Vec::new(),
            capacity: Some(capacity),
        }
    }

    /// The capacity bound, if any.
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Evicts least-recently-updated entries (ties broken by key order)
    /// until the table fits its capacity, returning the evicted keys in
    /// eviction order. A no-op on unbounded tables.
    ///
    /// Cost is `O(n + k log k)` for `k` evictions (one scan plus a
    /// partial sort of the victims), not `O(n·k)` — the property the
    /// `megacdn` bench gates at a million entries.
    ///
    /// # Examples
    ///
    /// ```
    /// use riptide::table::FinalTable;
    /// use riptide::policy::LearningPolicy;
    /// use riptide_simnet::time::SimTime;
    ///
    /// let strategy = LearningPolicy::None;
    /// let mut t = FinalTable::bounded(2);
    /// for (n, at) in [(1u8, 10u64), (2, 20), (3, 30)] {
    ///     let key = format!("10.0.0.{n}").parse()?;
    ///     t.blend(key, 40.0, &strategy, SimTime::from_secs(at));
    /// }
    /// // Oldest entry out first.
    /// assert_eq!(t.enforce_capacity(), vec!["10.0.0.1".parse()?]);
    /// assert_eq!(t.len(), 2);
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn enforce_capacity(&mut self) -> Vec<Ipv4Prefix> {
        self.enforce_capacity_grouped(|_| None)
    }

    /// Capacity enforcement with aggregation-aware accounting: entries
    /// mapped to the same group by `group_of` are charged as **one**
    /// unit against the capacity (an aggregated `/24` covering 200
    /// learned `/32`s occupies one route, so it costs one slot), and are
    /// evicted together. A group's recency is its *newest* member's
    /// `last_updated` (the covering route is live as long as any member
    /// is); ungrouped entries (`group_of` returns `None`) behave exactly
    /// as in [`FinalTable::enforce_capacity`]. Victim order is
    /// deterministic: ascending `(last_updated, unit key)`, members in
    /// key order within a group.
    pub fn enforce_capacity_grouped(
        &mut self,
        group_of: impl Fn(&Ipv4Prefix) -> Option<Ipv4Prefix>,
    ) -> Vec<Ipv4Prefix> {
        let Some(cap) = self.capacity else {
            return Vec::new();
        };
        if self.entries.len() <= cap {
            return Vec::new();
        }
        // One charged unit per group (or per ungrouped key), stamped
        // with the newest member update. Table order makes member lists
        // key-ordered.
        let mut units: BTreeMap<Ipv4Prefix, (SimTime, Vec<Ipv4Prefix>)> = BTreeMap::new();
        for (k, e) in &self.entries {
            let unit = group_of(k).unwrap_or(*k);
            let slot = units
                .entry(unit)
                .or_insert_with(|| (e.last_updated, Vec::new()));
            slot.0 = slot.0.max(e.last_updated);
            slot.1.push(*k);
        }
        if units.len() <= cap {
            return Vec::new();
        }
        let excess = units.len() - cap;
        let mut order: Vec<(SimTime, Ipv4Prefix)> =
            units.iter().map(|(u, (at, _))| (*at, *u)).collect();
        // Only the `excess` oldest units need a total order: select,
        // then sort just that head.
        if excess < order.len() {
            order.select_nth_unstable(excess - 1);
        }
        order.truncate(excess);
        order.sort_unstable();
        let mut evicted = Vec::new();
        for (_, unit) in order {
            evicted.extend_from_slice(&units[&unit].1);
        }
        let mut doomed = evicted.clone();
        self.remove_keys(&mut doomed);
        evicted
    }

    /// Number of live destinations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Occupancy as a fraction of capacity, in `[0, 1]` (`None` for
    /// unbounded tables) — telemetry's view of eviction pressure.
    pub fn utilization(&self) -> Option<f64> {
        self.capacity
            .map(|cap| self.entries.len() as f64 / cap.max(1) as f64)
    }

    /// Where `key` sits: `Ok` at its entry, `Err` where it would go.
    fn position(&self, key: &Ipv4Prefix) -> Result<usize, usize> {
        self.entries.binary_search_by(|(k, _)| k.cmp(key))
    }

    /// The entry for `key`, if present.
    pub fn get(&self, key: &Ipv4Prefix) -> Option<&FinalEntry> {
        let at = self.position(key).ok()?;
        Some(&self.entries[at].1)
    }

    /// The installed window for `key`, if present.
    pub fn window(&self, key: &Ipv4Prefix) -> Option<u32> {
        self.get(key).map(|e| e.window)
    }

    /// Records the final clamped window for `key` after
    /// [`FinalTable::blend`] (a second step because the clamp depends on
    /// the blended value).
    pub fn set_window(&mut self, key: &Ipv4Prefix, window: u32) {
        if let Ok(at) = self.position(key) {
            self.entries[at].1.window = window;
        }
    }

    /// Blends `fresh` through the history for `key` without committing a
    /// window yet, creating the entry if needed.
    pub fn blend(
        &mut self,
        key: Ipv4Prefix,
        fresh: f64,
        policy: &LearningPolicy,
        now: SimTime,
    ) -> f64 {
        self.observe(key, &PolicyInput::fresh_only(fresh), policy, now)
    }

    /// Feeds a full observation group (fresh value plus loss counters)
    /// through the policy for `key` without committing a window yet,
    /// creating the entry if needed — the loss-aware generalisation of
    /// [`FinalTable::blend`].
    pub fn observe(
        &mut self,
        key: Ipv4Prefix,
        input: &PolicyInput,
        policy: &LearningPolicy,
        now: SimTime,
    ) -> f64 {
        let at = match self.position(&key) {
            Ok(at) => at,
            Err(at) => {
                let entry = FinalEntry::new(policy, input.fresh, now);
                self.entries.insert(at, (key, entry));
                at
            }
        };
        self.entries[at].1.observe(input, policy, now)
    }

    /// Removes and returns every key whose entry is older than `ttl` at
    /// `now` — Algorithm 1's expiry step on its own: a sweep that asks
    /// for no key, so it passes (and age-checks) every entry.
    pub fn expire(&mut self, now: SimTime, ttl: SimDuration) -> Vec<Ipv4Prefix> {
        let swept = self.sweep(now, ttl).finish();
        self.settle(swept)
    }

    /// Starts one ordered pass over the whole table at `now` — the walk
    /// an agent tick makes. The caller asks the [`Sweep`] for keys in
    /// ascending order and gets each one's entry to update in place;
    /// every entry the sweep passes *without* being asked for is checked
    /// against `ttl`, so the pass doubles as Algorithm 1's expiry step.
    /// Nothing is inserted or removed until the finished sweep is handed
    /// to [`FinalTable::settle`].
    pub(crate) fn sweep(&mut self, now: SimTime, ttl: SimDuration) -> Sweep<'_> {
        Sweep::over(&mut self.entries, now, ttl)
    }

    /// Starts one [`FinalTable::sweep`] per key range, for passes that
    /// run side by side: the table is cut before each of `bounds`
    /// (ascending), so part `i` holds the entries from `bounds[i - 1]` up
    /// to, not including, `bounds[i]`, the first part everything below
    /// `bounds[0]` and the last everything from the last bound up. Each
    /// part's caller asks only for keys in its own range. Join the
    /// finished parts in part order ([`Swept::append`]) and settle that.
    pub(crate) fn sweep_parts<'a>(
        &'a mut self,
        now: SimTime,
        ttl: SimDuration,
        bounds: &'a [Ipv4Prefix],
    ) -> impl Iterator<Item = Sweep<'a>> {
        flat::cut_before(&mut self.entries, bounds).map(move |part| Sweep::over(part, now, ttl))
    }

    /// Applies a finished sweep: removes the entries it found expired,
    /// merges in the first-seen entries it buffered, and returns the
    /// expired keys in key order. A sweep that found neither leaves the
    /// table as it is; into an empty table (a cold first tick) the
    /// buffer of first-seen entries moves whole, and room it reserved
    /// and did not fill is given back.
    pub(crate) fn settle(&mut self, mut swept: Swept) -> Vec<Ipv4Prefix> {
        self.remove_keys(&mut swept.stale);
        flat::merge_new(&mut self.entries, swept.first_seen, vacant);
        swept.stale
    }

    /// Removes the entries of `keys`, which the table holds, in one
    /// compaction. Sorts `keys`.
    fn remove_keys(&mut self, keys: &mut [Ipv4Prefix]) {
        keys.sort_unstable();
        flat::remove_keys(&mut self.entries, keys);
    }

    /// Inserts every entry of `batch`, replacing any held for the same
    /// key; of equal keys in `batch` the last wins, as a loop of
    /// [`FinalTable::restore_entry`] would leave it. A batch already in
    /// key order (a snapshot's entries) is not sorted again; held keys
    /// are replaced where they stand and the rest merge in one pass, so
    /// into an empty table the batch becomes the table as it is, at its
    /// own capacity.
    pub(crate) fn insert_batch(&mut self, batch: Vec<(Ipv4Prefix, FinalEntry)>) {
        flat::insert_batch(&mut self.entries, batch, vacant);
    }

    /// Iterates live entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&Ipv4Prefix, &FinalEntry)> {
        self.entries.iter().map(|(key, entry)| (key, entry))
    }

    /// The entries whose keys lie in `keys`, in key order.
    pub(crate) fn range(
        &self,
        keys: RangeInclusive<Ipv4Prefix>,
    ) -> impl Iterator<Item = (&Ipv4Prefix, &FinalEntry)> {
        let start = self.entries.partition_point(|(k, _)| k < keys.start());
        let end = start + self.entries[start..].partition_point(|(k, _)| k <= keys.end());
        self.entries[start..end]
            .iter()
            .map(|(key, entry)| (key, entry))
    }

    /// Inserts a fully-formed entry, replacing any existing one: an entry
    /// rebuilt from stored or a peer's values (including their original
    /// `last_updated` stamps, so TTL keeps running) instead of re-learned
    /// through [`FinalTable::blend`]. An insert out of key order shifts
    /// every later entry, so the agent's warm restart and gossip merge,
    /// which write many entries at once, hand them over as one batch
    /// instead.
    ///
    /// Callers are responsible for validating the entry first (the
    /// agent's merge clamps windows and seeds unknown keys' history);
    /// the table itself stores what it is given.
    pub fn restore_entry(&mut self, key: Ipv4Prefix, entry: FinalEntry) {
        match self.position(&key) {
            Ok(at) => self.entries[at].1 = entry,
            Err(at) => self.entries.insert(at, (key, entry)),
        }
    }
}

/// The placeholder a merge opens the table's new slots with; every one is
/// overwritten before the merge returns.
fn vacant() -> (Ipv4Prefix, FinalEntry) {
    let entry = FinalEntry {
        window: 0,
        history: HistoryState::None,
        last_fresh: 0.0,
        last_updated: SimTime::ZERO,
    };
    (Ipv4Prefix::host(Ipv4Addr::UNSPECIFIED), entry)
}

/// One ordered pass over a [`FinalTable`]: a merge-join cursor between
/// the table (key-ordered) and a caller walking its own keys in ascending
/// order. See [`FinalTable::sweep`].
#[derive(Debug)]
pub(crate) struct Sweep<'a> {
    entries: std::slice::IterMut<'a, (Ipv4Prefix, FinalEntry)>,
    now: SimTime,
    ttl: SimDuration,
    swept: Swept,
}

/// What a finished [`Sweep`] leaves to apply: first-seen entries to
/// insert and expired keys to remove. Hand it to [`FinalTable::settle`].
#[derive(Debug, Default)]
#[must_use = "a sweep changes nothing until FinalTable::settle applies it"]
pub(crate) struct Swept {
    first_seen: Vec<(Ipv4Prefix, FinalEntry)>,
    stale: Vec<Ipv4Prefix>,
    /// Entries the sweep passed or handed out.
    visited: usize,
}

impl Swept {
    /// How many of the table's entries the sweep visited.
    pub(crate) fn visited(&self) -> usize {
        self.visited
    }

    /// Appends what a sweep of the next key range up found, as if one
    /// sweep had passed both ranges. (A first-seen buffer with room for
    /// `later`'s entries takes them without growing.)
    pub(crate) fn append(&mut self, mut later: Swept) {
        self.first_seen.append(&mut later.first_seen);
        self.stale.append(&mut later.stale);
        self.visited += later.visited;
    }
}

impl<'a> Sweep<'a> {
    fn over(entries: &'a mut [(Ipv4Prefix, FinalEntry)], now: SimTime, ttl: SimDuration) -> Self {
        Sweep {
            entries: entries.iter_mut(),
            now,
            ttl,
            swept: Swept::default(),
        }
    }

    /// Advances to `key` — which must be greater than every key asked for
    /// before — and returns its entry if the table holds one. Entries
    /// passed on the way were not refreshed this pass; the expired ones
    /// are noted for removal.
    pub(crate) fn seek(&mut self, key: &Ipv4Prefix) -> Option<&mut FinalEntry> {
        let Sweep {
            entries,
            now,
            ttl,
            swept,
        } = self;
        let found = flat::seek(entries, key, |passed, entry| {
            swept.note_passed(passed, entry, *now, *ttl)
        });
        swept.visited += usize::from(found.is_some());
        found
    }

    /// Buffers a first-seen entry for `key` — for which
    /// [`Sweep::seek`] just returned `None` — and returns it for the rest
    /// of this pass's updates.
    pub(crate) fn insert(&mut self, key: Ipv4Prefix, entry: FinalEntry) -> &mut FinalEntry {
        debug_assert!(
            self.swept
                .first_seen
                .last()
                .is_none_or(|(last, _)| *last < key),
            "sweep keys must ascend"
        );
        self.swept.first_seen.push((key, entry));
        let (_, entry) = self.swept.first_seen.last_mut().expect("just pushed");
        entry
    }

    /// Makes room for `additional` first-seen entries up front, so the
    /// buffer is never copied to grow.
    pub(crate) fn reserve(&mut self, additional: usize) {
        self.swept.first_seen.reserve_exact(additional);
    }

    /// Passes every remaining entry and releases the table.
    pub(crate) fn finish(mut self) -> Swept {
        for (passed, entry) in self.entries {
            self.swept.note_passed(passed, entry, self.now, self.ttl);
        }
        self.swept
    }
}

impl Swept {
    fn note_passed(
        &mut self,
        key: &Ipv4Prefix,
        entry: &FinalEntry,
        now: SimTime,
        ttl: SimDuration,
    ) {
        self.visited += 1;
        if entry.is_stale(now, ttl) {
            self.stale.push(*key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n))
    }

    #[test]
    fn blend_then_set_window_round_trip() {
        let strategy = LearningPolicy::Ewma { alpha: 0.5 };
        let mut t = FinalTable::new();
        let b = t.blend(key(1), 60.0, &strategy, SimTime::from_secs(1));
        assert_eq!(b, 60.0);
        t.set_window(&key(1), 60);
        assert_eq!(t.window(&key(1)), Some(60));
        // Second observation blends 50/50.
        let b = t.blend(key(1), 100.0, &strategy, SimTime::from_secs(2));
        assert_eq!(b, 80.0);
    }

    #[test]
    fn expire_removes_stale_entries_only() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::new();
        t.blend(key(1), 50.0, &strategy, SimTime::from_secs(0));
        t.blend(key(2), 50.0, &strategy, SimTime::from_secs(80));
        let dead = t.expire(SimTime::from_secs(85), SimDuration::from_secs(90));
        assert!(dead.is_empty(), "nothing older than 90s yet");
        let dead = t.expire(SimTime::from_secs(95), SimDuration::from_secs(90));
        assert_eq!(dead, vec![key(1)]);
        assert_eq!(t.len(), 1);
        assert!(t.get(&key(2)).is_some());
    }

    #[test]
    fn refresh_resets_ttl() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::new();
        t.blend(key(1), 50.0, &strategy, SimTime::from_secs(0));
        t.blend(key(1), 55.0, &strategy, SimTime::from_secs(60));
        let dead = t.expire(SimTime::from_secs(100), SimDuration::from_secs(90));
        assert!(dead.is_empty(), "refresh at t=60 keeps it alive at t=100");
    }

    #[test]
    fn sweep_hands_out_entries_in_place_and_buffers_first_seen_keys() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::new();
        for n in [2u8, 4, 6] {
            t.blend(key(n), 50.0, &strategy, SimTime::from_secs(0));
        }
        let now = SimTime::from_secs(100);
        let mut sweep = t.sweep(now, SimDuration::from_secs(90));
        // A first-seen key before, between and after the known ones.
        for n in [1u8, 4, 5, 7] {
            let entry = match sweep.seek(&key(n)) {
                Some(entry) => entry,
                None => sweep.insert(key(n), FinalEntry::new(&strategy, 60.0, now)),
            };
            entry.observe(&PolicyInput::fresh_only(60.0), &strategy, now);
            entry.window = 60;
        }
        let swept = sweep.finish();
        assert_eq!(t.len(), 3, "nothing moves until the sweep is settled");
        // 2 was passed on the way to 4, 6 by finish(): both stale. 4 was
        // asked for, so its age was never looked at.
        assert_eq!(t.settle(swept), vec![key(2), key(6)]);
        let keys: Vec<_> = t.iter().map(|(k, e)| (*k, e.window)).collect();
        assert_eq!(keys, [1u8, 4, 5, 7].map(|n| (key(n), 60)).to_vec());
    }

    #[test]
    fn bounded_table_evicts_lru_deterministically() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::bounded(2);
        assert_eq!(t.capacity(), Some(2));
        t.blend(key(1), 50.0, &strategy, SimTime::from_secs(10));
        t.blend(key(2), 50.0, &strategy, SimTime::from_secs(20));
        t.blend(key(3), 50.0, &strategy, SimTime::from_secs(30));
        let evicted = t.enforce_capacity();
        assert_eq!(evicted, vec![key(1)], "oldest entry goes first");
        assert_eq!(t.len(), 2);
        // Refreshing key(2) makes key(3) the LRU victim.
        t.blend(key(2), 55.0, &strategy, SimTime::from_secs(40));
        t.blend(key(4), 50.0, &strategy, SimTime::from_secs(50));
        assert_eq!(t.enforce_capacity(), vec![key(3)]);
        assert!(t.get(&key(2)).is_some() && t.get(&key(4)).is_some());
    }

    #[test]
    fn bounded_table_ties_break_by_key_order() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::bounded(1);
        // Same timestamp: the lowest key is evicted first.
        t.blend(key(9), 1.0, &strategy, SimTime::from_secs(5));
        t.blend(key(3), 1.0, &strategy, SimTime::from_secs(5));
        t.blend(key(6), 1.0, &strategy, SimTime::from_secs(5));
        assert_eq!(t.enforce_capacity(), vec![key(3), key(6)]);
        assert!(t.get(&key(9)).is_some());
    }

    #[test]
    fn grouped_capacity_charges_an_aggregate_as_one_entry() {
        // Regression: an aggregated prefix covering N learned /32s must
        // count as ONE entry against the capacity, not N. Here 6 learned
        // hosts collapse into 2 aggregate units + 1 loner = 3 charged
        // units, which fits a capacity of 3 even though len() is 7.
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::bounded(3);
        let group = |k: &Ipv4Prefix| (k.len() == 32).then(|| k.covering(24));
        for n in [1u8, 2, 3] {
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n)),
                1.0,
                &strategy,
                SimTime::from_secs(10),
            );
        }
        for n in [1u8, 2, 3] {
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n)),
                1.0,
                &strategy,
                SimTime::from_secs(20),
            );
        }
        t.blend(
            "10.0.9.0/24".parse().unwrap(),
            1.0,
            &strategy,
            SimTime::from_secs(30),
        );
        assert_eq!(t.len(), 7);
        assert!(
            t.enforce_capacity_grouped(group).is_empty(),
            "3 charged units fit capacity 3 despite 7 raw entries"
        );
        // Ungrouped accounting would have evicted 4 of the 7.
        assert_eq!(t.clone().enforce_capacity().len(), 4);

        // One more unit (a fourth group) forces the oldest whole group
        // out: all three 10.0.0.x members leave together, oldest first.
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 0, 2, 1)),
            1.0,
            &strategy,
            SimTime::from_secs(40),
        );
        let evicted = t.enforce_capacity_grouped(group);
        assert_eq!(
            evicted,
            vec![
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 1)),
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 2)),
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 3)),
            ]
        );
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn grouped_recency_is_newest_member() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::bounded(1);
        let group = |k: &Ipv4Prefix| (k.len() == 32).then(|| k.covering(24));
        // Group A has an old member and a fresh one; loner B sits in
        // between. The group's recency (t=50) beats B (t=30), so B is
        // the victim even though A contains the globally oldest entry.
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 1)),
            1.0,
            &strategy,
            SimTime::from_secs(10),
        );
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 2)),
            1.0,
            &strategy,
            SimTime::from_secs(50),
        );
        t.blend(
            Ipv4Prefix::host(Ipv4Addr::new(10, 9, 9, 9)),
            1.0,
            &strategy,
            SimTime::from_secs(30),
        );
        assert_eq!(
            t.enforce_capacity_grouped(group),
            vec![Ipv4Prefix::host(Ipv4Addr::new(10, 9, 9, 9))]
        );
    }

    #[test]
    fn sorted_eviction_matches_repeated_min_scan() {
        // The single-sort eviction must reproduce the historical
        // one-victim-at-a-time order exactly.
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::bounded(3);
        let stamps = [7u64, 3, 3, 9, 1, 5, 3, 8];
        for (i, at) in stamps.iter().enumerate() {
            t.blend(
                Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, (100 - i) as u8)),
                1.0,
                &strategy,
                SimTime::from_secs(*at),
            );
        }
        let mut reference = t.clone();
        let mut want = Vec::new();
        while reference.len() > 3 {
            let victim = reference
                .iter()
                .min_by_key(|(k, e)| (e.last_updated, **k))
                .map(|(k, _)| *k)
                .unwrap();
            reference.remove_keys(&mut [victim]);
            want.push(victim);
        }
        assert_eq!(t.enforce_capacity(), want);
    }

    #[test]
    fn utilization_reports_eviction_pressure() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::bounded(4);
        assert_eq!(t.utilization(), Some(0.0));
        t.blend(key(1), 1.0, &strategy, SimTime::ZERO);
        t.blend(key(2), 1.0, &strategy, SimTime::ZERO);
        assert_eq!(t.utilization(), Some(0.5));
        assert_eq!(FinalTable::new().utilization(), None, "unbounded");
    }

    #[test]
    fn unbounded_table_never_evicts() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::new();
        for n in 0..=255u8 {
            t.blend(key(n), 1.0, &strategy, SimTime::ZERO);
        }
        assert!(t.enforce_capacity().is_empty());
        assert_eq!(t.len(), 256);
    }

    #[test]
    fn iteration_is_key_ordered() {
        let strategy = LearningPolicy::None;
        let mut t = FinalTable::new();
        t.blend(key(9), 1.0, &strategy, SimTime::ZERO);
        t.blend(key(1), 1.0, &strategy, SimTime::ZERO);
        t.blend(key(5), 1.0, &strategy, SimTime::ZERO);
        let keys: Vec<_> = t.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![key(1), key(5), key(9)]);
    }

    /// The storage's reference: the `BTreeMap` the table used to be, with
    /// each operation written the obvious way.
    #[derive(Default)]
    struct Model {
        entries: BTreeMap<Ipv4Prefix, FinalEntry>,
        capacity: Option<usize>,
    }

    impl Model {
        fn expire(&mut self, now: SimTime, ttl: SimDuration) -> Vec<Ipv4Prefix> {
            let stale: Vec<Ipv4Prefix> = self
                .entries
                .iter()
                .filter(|(_, e)| e.is_stale(now, ttl))
                .map(|(k, _)| *k)
                .collect();
            for key in &stale {
                self.entries.remove(key);
            }
            stale
        }

        /// One stalest unit at a time, until the units fit.
        fn enforce_capacity(
            &mut self,
            group_of: impl Fn(&Ipv4Prefix) -> Option<Ipv4Prefix>,
        ) -> Vec<Ipv4Prefix> {
            let Some(cap) = self.capacity else {
                return Vec::new();
            };
            let mut evicted = Vec::new();
            loop {
                let mut units: BTreeMap<Ipv4Prefix, (SimTime, Vec<Ipv4Prefix>)> = BTreeMap::new();
                for (k, e) in &self.entries {
                    let slot = units
                        .entry(group_of(k).unwrap_or(*k))
                        .or_insert((e.last_updated, Vec::new()));
                    slot.0 = slot.0.max(e.last_updated);
                    slot.1.push(*k);
                }
                if units.len() <= cap {
                    return evicted;
                }
                let (_, unit) = units.iter().map(|(u, (at, _))| (*at, *u)).min().unwrap();
                for k in &units[&unit].1 {
                    self.entries.remove(k);
                    evicted.push(*k);
                }
            }
        }
    }

    proptest::proptest! {
        // Random interleavings of every write the table takes, through the
        // flat table and through the map: both hold the same entries in
        // the same order after every step, and return the same keys and
        // blends. Keys come from a small pool (host routes in two /24s
        // and the /24s themselves), so writes keep landing on held keys,
        // in front of them and between them.
        #[test]
        fn the_flat_table_matches_a_map(seed in proptest::prelude::any::<u64>()) {
            use riptide_simnet::rng::DetRng;
            let mut rng = DetRng::for_stream(seed, 0x5441_424c); // "TABL"
            let policy = [
                LearningPolicy::None,
                LearningPolicy::Ewma { alpha: 0.5 },
                LearningPolicy::WindowedMean { window: 3 },
            ][rng.below(3)];
            let capacity = rng.chance(0.5).then(|| 1 + rng.below(12));
            let mut table = capacity.map_or_else(FinalTable::new, FinalTable::bounded);
            let mut model = Model { capacity, ..Model::default() };
            let mut pool: Vec<Ipv4Prefix> = (0..2u8)
                .flat_map(|slab| {
                    let hosts = (0..12u8).map(move |n| Ipv4Prefix::host(Ipv4Addr::new(10, 0, slab, n * 7)));
                    hosts.chain([Ipv4Prefix::new(Ipv4Addr::new(10, 0, slab, 0), 24)])
                })
                .collect();
            pool.sort_unstable();
            let group = |k: &Ipv4Prefix| (k.len() == 32).then(|| k.covering(24));
            let ttl = SimDuration::from_secs(20);
            let mut secs = 0;
            for step in 0..60 {
                secs += rng.below(8);
                let now = SimTime::from_secs(secs as u64);
                let key = pool[rng.below(pool.len())];
                let fresh = 10.0 + rng.below(90) as f64;
                let entry = |rng: &mut DetRng| FinalEntry {
                    window: rng.below(100) as u32,
                    history: policy.seeded(fresh),
                    last_fresh: fresh,
                    last_updated: SimTime::from_secs(rng.below(secs + 1) as u64),
                };
                match rng.below(9) {
                    0 => {
                        let input = PolicyInput { fresh, retrans: rng.below(5) as u64, ecn_marks: 0, bytes_acked: 1 };
                        let want = model
                            .entries
                            .entry(key)
                            .or_insert_with(|| FinalEntry::new(&policy, fresh, now))
                            .observe(&input, &policy, now);
                        proptest::prop_assert_eq!(table.observe(key, &input, &policy, now), want);
                    }
                    1 => {
                        let want = model
                            .entries
                            .entry(key)
                            .or_insert_with(|| FinalEntry::new(&policy, fresh, now))
                            .observe(&PolicyInput::fresh_only(fresh), &policy, now);
                        proptest::prop_assert_eq!(table.blend(key, fresh, &policy, now), want);
                        table.set_window(&key, fresh as u32);
                        if let Some(e) = model.entries.get_mut(&key) {
                            e.window = fresh as u32;
                        }
                    }
                    2 => {
                        let e = entry(&mut rng);
                        model.entries.insert(key, e.clone());
                        table.restore_entry(key, e);
                    }
                    3 => proptest::prop_assert_eq!(table.expire(now, ttl), model.expire(now, ttl)),
                    4 => proptest::prop_assert_eq!(
                        table.enforce_capacity(),
                        model.enforce_capacity(|_| None)
                    ),
                    5 => proptest::prop_assert_eq!(
                        table.enforce_capacity_grouped(group),
                        model.enforce_capacity(group)
                    ),
                    6 | 7 => {
                        // Repeated keys, in any order: the last one wins.
                        let batch: Vec<_> = (0..rng.below(8))
                            .map(|_| (pool[rng.below(pool.len())], entry(&mut rng)))
                            .collect();
                        for (k, e) in &batch {
                            model.entries.insert(*k, e.clone());
                        }
                        table.insert_batch(batch);
                    }
                    _ => {
                        // A tick's walk, cut into key-range parts at random
                        // bounds: ask for an ascending subset, each key of
                        // the part whose range holds it, update what is
                        // held, buffer what is not.
                        let asked: Vec<Ipv4Prefix> =
                            pool.iter().copied().filter(|_| rng.chance(0.3)).collect();
                        let bounds: Vec<Ipv4Prefix> =
                            pool.iter().copied().filter(|_| rng.chance(0.1)).collect();
                        let mut sweeps: Vec<_> = table.sweep_parts(now, ttl, &bounds).collect();
                        for k in &asked {
                            let input = PolicyInput::fresh_only(fresh);
                            let sweep = &mut sweeps[bounds.partition_point(|b| b <= k)];
                            let entry = match sweep.seek(k) {
                                Some(entry) => entry,
                                None => sweep.insert(*k, FinalEntry::new(&policy, fresh, now)),
                            };
                            let got = entry.observe(&input, &policy, now);
                            let want = model
                                .entries
                                .entry(*k)
                                .or_insert_with(|| FinalEntry::new(&policy, fresh, now))
                                .observe(&input, &policy, now);
                            proptest::prop_assert_eq!(got, want);
                        }
                        let mut swept = Swept::default();
                        for part in sweeps {
                            swept.append(part.finish());
                        }
                        proptest::prop_assert_eq!(table.settle(swept), model.expire(now, ttl));
                    }
                }
                let got: Vec<_> = table.iter().map(|(k, e)| (*k, e.clone())).collect();
                let want: Vec<_> = model.entries.iter().map(|(k, e)| (*k, e.clone())).collect();
                proptest::prop_assert_eq!(got, want, "step {}", step);
            }
        }
    }
}
