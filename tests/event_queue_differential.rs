//! Differential test for the simulator's future-event list.
//!
//! `simnet::event::EventQueue` is a timing wheel with a `near` heap in
//! front of it and a `far` heap behind; what it promises is what the
//! single `(time, seq)`-ordered heap it replaced promised. The reference
//! model here is that contract written the obvious way — a
//! `BTreeMap<(SimTime, u64), payload>` keyed by instant and scheduling
//! order — and every interleaving of `schedule`, `pop`, `pop_before`,
//! `peek_time`, `len` and `clone` must get the same answers from both.
//!
//! Instants are drawn from the wheel's edges, not uniformly: the constants
//! below restate `event.rs`'s slot width and wheel size for that purpose
//! only (were they to change there, this test would still hold the queue to
//! the model, with blunter edges).

use std::collections::BTreeMap;

use proptest::prelude::*;
use riptide_repro::simnet::event::EventQueue;
use riptide_repro::simnet::rng::DetRng;
use riptide_repro::simnet::time::SimTime;

/// The clock never follows an event past this, so `clock + delay` cannot
/// overflow; `SimTime::MAX` sentinels are scheduled and popped all the same.
const HORIZON: u64 = 1 << 62;

/// One wheel slot, in nanoseconds.
const SLOT: u64 = 1 << 20;
/// Slots in the wheel.
const SLOTS: u64 = 4096;
/// One revolution.
const SPAN: u64 = SLOT * SLOTS;

/// The deleted heap's contract.
#[derive(Clone, Default)]
struct Model {
    pending: BTreeMap<(SimTime, u64), u64>,
    scheduled: u64,
}

impl Model {
    fn schedule(&mut self, at: SimTime, payload: u64) {
        self.pending.insert((at, self.scheduled), payload);
        self.scheduled += 1;
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.pending.keys().next().map(|&(at, _)| at)
    }

    fn pop_before(&mut self, deadline: SimTime) -> Option<(SimTime, u64)> {
        let entry = self.pending.first_entry()?;
        let at = entry.key().0;
        (at <= deadline).then(|| (at, entry.remove()))
    }
}

/// An instant near one of the structure's edges, relative to `base` (the
/// clock: the last pop or the last deadline run to).
fn edge_instant(rng: &mut DetRng, base: u64) -> SimTime {
    let slot_start = base / SLOT * SLOT;
    // ± 1 ns around a point, or the point itself.
    let around = |rng: &mut DetRng, point: u64| (point + rng.below(3) as u64).saturating_sub(1);
    let ns = match rng.below(12) {
        0 => base,
        // The same slot as the clock.
        1 => slot_start + rng.below(SLOT as usize) as u64,
        // A boundary a few slots on.
        2 => {
            let boundary = slot_start + SLOT * (1 + rng.below(3) as u64);
            around(rng, boundary)
        }
        // The far side of the wheel: one span on, give or take a slot.
        3 => {
            let boundary = slot_start + SPAN + SLOT * rng.below(3) as u64 - SLOT;
            around(rng, boundary)
        }
        4 => around(rng, base + SPAN),
        // Beyond the span, by up to a few revolutions.
        5 => base + SPAN + rng.below(3 * SPAN as usize) as u64,
        6 => u64::MAX - rng.below(2) as u64,
        // Earlier than the clock: a little, a revolution, or time zero.
        7 => base.saturating_sub(rng.below(3 * SLOT as usize) as u64),
        8 => [
            0,
            base.saturating_sub(SPAN),
            base.saturating_sub(SPAN + SLOT),
        ][rng.below(3)],
        // What the simulator schedules: path delays and RTOs.
        9 | 10 => base + 1_000_000 + rng.below(80_000_000) as u64,
        _ => base + 200_000_000 + rng.below(1_000_000_000) as u64,
    };
    SimTime::from_nanos(ns)
}

proptest! {
    #[test]
    fn wheel_matches_the_ordered_map(seed in any::<u64>()) {
        let mut rng = DetRng::for_stream(seed, 0x5748_454c); // "WHEL"
        let mut queue: EventQueue<u64> = EventQueue::new();
        let mut model = Model::default();
        // Some runs start deep into simulated time, some at its origin.
        let mut clock = [0, 0, SPAN - 1, 977 * SPAN + 5][rng.below(4)];
        // How eagerly this run pops: the queue ranges from near-empty
        // (the index wraps with the bitmap empty) to hundreds deep.
        let pop_bias = 2 + rng.below(5);
        let mut used: Vec<SimTime> = Vec::new();
        for step in 0..(200 + rng.below(500)) {
            match rng.below(10) {
                0..=2 => {
                    // Half the time an instant already used: a tie whose
                    // halves were filed from different distances, so in
                    // different tiers.
                    let at = if !used.is_empty() && rng.chance(0.5) {
                        used[rng.below(used.len())]
                    } else {
                        edge_instant(&mut rng, clock)
                    };
                    used.push(at);
                    queue.schedule(at, model.scheduled);
                    model.schedule(at, model.scheduled);
                }
                3 => {
                    // A burst interleaving two adjacent instants, now and
                    // then long enough that sorting its slot is not an
                    // insertion sort: ties pop in schedule order.
                    let at = edge_instant(&mut rng, clock).min(SimTime::from_nanos(u64::MAX - 1));
                    let burst = if rng.chance(0.2) { 24 + rng.below(40) } else { 2 + rng.below(5) };
                    for _ in 0..burst {
                        let at = SimTime::from_nanos(at.as_nanos() + rng.below(2) as u64);
                        queue.schedule(at, model.scheduled);
                        model.schedule(at, model.scheduled);
                    }
                }
                4 => {
                    // Run to a deadline, as `World::run_until` does; the
                    // clock then stands at the deadline.
                    let deadline = edge_instant(&mut rng, clock);
                    loop {
                        let got = queue.pop_before(deadline);
                        prop_assert_eq!(got, model.pop_before(deadline), "step {} pop_before({:?})", step, deadline);
                        if got.is_none() {
                            break;
                        }
                    }
                    if deadline.as_nanos() < HORIZON {
                        clock = clock.max(deadline.as_nanos());
                    }
                }
                5 => {
                    let deadline = edge_instant(&mut rng, clock);
                    let got = queue.pop_before(deadline);
                    prop_assert_eq!(got, model.pop_before(deadline), "step {} one pop_before({:?})", step, deadline);
                    if let Some((at, _)) = got.filter(|&(at, _)| at.as_nanos() < HORIZON) {
                        clock = at.as_nanos();
                    }
                }
                6 => {
                    let mut forked = queue.clone();
                    let mut forked_model = model.clone();
                    while let Some(want) = forked_model.pop_before(SimTime::MAX) {
                        prop_assert_eq!(forked.pop(), Some(want), "step {} clone", step);
                    }
                    prop_assert_eq!(forked.pop(), None);
                    prop_assert_eq!(forked.scheduled_total(), model.scheduled);
                }
                _ => {
                    for _ in 0..rng.below(pop_bias) {
                        let got = queue.pop();
                        prop_assert_eq!(got, model.pop_before(SimTime::MAX), "step {} pop", step);
                        if let Some((at, _)) = got.filter(|&(at, _)| at.as_nanos() < HORIZON) {
                            clock = at.as_nanos();
                        }
                    }
                }
            }
            prop_assert_eq!(queue.peek_time(), model.peek_time(), "step {} peek_time", step);
            prop_assert_eq!(queue.len(), model.pending.len(), "step {} len", step);
            prop_assert_eq!(queue.is_empty(), model.pending.is_empty());
            prop_assert_eq!(queue.scheduled_total(), model.scheduled);
        }
        while let Some(want) = model.pop_before(SimTime::MAX) {
            prop_assert_eq!(queue.pop(), Some(want), "final drain");
        }
        prop_assert_eq!(queue.pop(), None);
        prop_assert_eq!(queue.peek_time(), None);
    }
}
