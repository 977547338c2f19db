//! Key-sorted flat tables: a `Vec` of `(key, value)` pairs, strictly
//! ascending by key. The learned table ([`crate::table::FinalTable`]) and
//! the loss guard's breakers ([`crate::guard::LossGuard`]) are both one,
//! and a tick walks both the same way: cut into key-range parts at the
//! same bounds, each part advanced by one cursor, with the keys a part
//! meets for the first time buffered and merged in one pass afterwards.
//!
//! A lookup is a binary search; a single insert out of key order shifts
//! every later entry, so whatever writes many keys goes through a batch.

use std::cmp::Ordering;

use riptide_linuxnet::prefix::Ipv4Prefix;

/// One entry of a flat table.
pub(crate) type Entry<V> = (Ipv4Prefix, V);

/// Cuts `entries` before each of `bounds` (ascending): part `i` holds the
/// entries from `bounds[i - 1]` up to, not including, `bounds[i]`, the
/// first part everything below `bounds[0]` and the last everything from
/// the last bound up.
pub(crate) fn cut_before<'a, V>(
    entries: &'a mut [Entry<V>],
    bounds: &'a [Ipv4Prefix],
) -> impl Iterator<Item = &'a mut [Entry<V>]> {
    let mut rest = Some(entries);
    let mut bounds = bounds.iter();
    std::iter::from_fn(move || {
        let entries = rest.take()?;
        match bounds.next() {
            Some(bound) => {
                let below = entries.partition_point(|(k, _)| k < bound);
                let (part, above) = entries.split_at_mut(below);
                rest = Some(above);
                Some(part)
            }
            None => Some(entries),
        }
    })
}

/// Advances `cursor` to `key` — which must be greater than every key
/// asked for before — and returns its value if the table holds it. Every
/// entry passed on the way goes to `passed`.
#[inline(always)]
pub(crate) fn seek<'a, V>(
    cursor: &mut std::slice::IterMut<'a, Entry<V>>,
    key: &Ipv4Prefix,
    mut passed: impl FnMut(&Ipv4Prefix, &V),
) -> Option<&'a mut V> {
    loop {
        let (next, _) = cursor.as_slice().first()?;
        match next.cmp(key) {
            Ordering::Greater => return None,
            Ordering::Equal => return cursor.next().map(|(_, value)| value),
            Ordering::Less => {
                let (key, value) = cursor.next().expect("looked at above");
                passed(key, value);
            }
        }
    }
}

/// Removes the entries of `keys` (ascending) in one compaction. A key the
/// table does not hold is passed over.
pub(crate) fn remove_keys<V>(entries: &mut Vec<Entry<V>>, keys: &[Ipv4Prefix]) {
    if keys.is_empty() {
        return;
    }
    let mut doomed = keys.iter().peekable();
    entries.retain(|(key, _)| {
        while doomed.next_if(|doomed| *doomed < key).is_some() {}
        doomed.next_if(|doomed| *doomed == key).is_none()
    });
}

/// Merges `batch` — strictly ascending, and holding no key the table
/// holds — into `entries` in place: the table grows once, opening its new
/// slots with `vacant`, and each entry above the first new key moves
/// once, from the top down. Into an empty table the batch becomes the
/// table, and room it reserved and did not fill is given back.
pub(crate) fn merge_new<V>(
    entries: &mut Vec<Entry<V>>,
    mut batch: Vec<Entry<V>>,
    vacant: fn() -> Entry<V>,
) {
    if batch.is_empty() {
        return;
    }
    if entries.is_empty() {
        batch.shrink_to_fit();
        *entries = batch;
        return;
    }
    let mut held = entries.len();
    entries.resize_with(held + batch.len(), vacant);
    let mut slot = entries.len();
    while let Some((key, _)) = batch.last() {
        slot -= 1;
        if held > 0 && entries[held - 1].0 > *key {
            held -= 1;
            entries.swap(held, slot);
        } else {
            entries[slot] = batch.pop().expect("looked at above");
        }
    }
}

/// Inserts every entry of `batch`, replacing any held for the same key;
/// of equal keys in `batch` the last wins, as a loop of single inserts
/// would leave it. A batch already in key order is not sorted again; held
/// keys are replaced where they stand and the rest merge in one pass
/// ([`merge_new`]).
pub(crate) fn insert_batch<V>(
    entries: &mut Vec<Entry<V>>,
    mut batch: Vec<Entry<V>>,
    vacant: fn() -> Entry<V>,
) {
    if !batch.is_sorted_by(|(a, _), (b, _)| a < b) {
        // Stable, so equal keys keep their batch order; each later one
        // then moves into the slot the first one holds.
        batch.sort_by_key(|(key, _)| *key);
        batch.dedup_by(|later, kept| {
            let same = later.0 == kept.0;
            if same {
                std::mem::swap(later, kept);
            }
            same
        });
    }
    if !entries.is_empty() {
        let mut from = 0;
        batch.retain_mut(|(key, value)| {
            from += entries[from..].partition_point(|(k, _)| k < key);
            match entries.get_mut(from) {
                Some((held, old)) if held == key => {
                    std::mem::swap(old, value);
                    false
                }
                _ => true,
            }
        });
    }
    merge_new(entries, batch, vacant);
}
