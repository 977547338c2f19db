//! Work-stealing shard scheduler for the experiment engine.
//!
//! [`RunPlan::run_with_threads`](crate::engine::RunPlan::run_with_threads)
//! used to hand workers shards in plan enumeration order through one
//! shared cursor. That is already a
//! greedy list schedule, but plan order is *scenario-major*: the long
//! shards of one arm sit next to each other, so the pool routinely
//! drains to a single worker grinding the last long shard while the
//! rest idle — the classic LPT tail problem.
//!
//! This module replaces the cursor with a two-level scheduler:
//!
//! 1. **LPT seeding** — every shard gets a deterministic cost estimate
//!    ([`estimated_events`], proportional to simulated time × traffic
//!    breadth). Shards are dealt to per-worker deques in descending
//!    cost order ([`lpt_order`]), each to the currently least-loaded
//!    worker, so the longest shards start first and the short ones pad
//!    the tail.
//! 2. **Stealing** — a worker that drains its own deque pops work from
//!    the *back* of another worker's deque (the victim's cheapest
//!    remaining shard), scanning from a seed-derived offset. No worker
//!    idles while any shard is unstarted, whatever the estimate error.
//!
//! ## Why digests cannot drift
//!
//! The scheduler only decides *which worker* runs a shard and *when* —
//! never what the shard computes. Each shard is sealed: its RNG stream
//! is forked from the plan seed at enumeration time, and its result is
//! written into a slot indexed by plan position. Reports merge slots in
//! plan order, so the digest is a pure function of the plan, invariant
//! under thread count, steal order, and the victim-selection seed.
//! `tests/repro/scheduler.rs` property-tests exactly that, and
//! `tests/repro/digest_golden.rs` pins the rendered bytes.

use std::collections::VecDeque;
use std::sync::Mutex;

use riptide_simnet::rng::DetRng;

use crate::engine::{ShardSpec, ShardWork};

/// Deterministic cost estimate for one shard, in arbitrary
/// events-proportional units: simulated seconds × (machines generating
/// organic traffic + probing senders). Only *relative* order matters —
/// LPT uses it to start the slowest shards first.
pub fn estimated_events(spec: &ShardSpec) -> u64 {
    let secs = spec.scale.total().as_secs_f64().round() as u64;
    let machines = (spec.scale.sites * spec.scale.machines_per_pop) as u64;
    let senders = match &spec.work {
        ShardWork::ProbeArm { senders, .. } | ShardWork::ScenarioArm { senders, .. } => {
            senders.len() as u64
        }
        ShardWork::CwndDistribution { .. }
        | ShardWork::TrafficProfile
        | ShardWork::Convergence { .. } => 0,
    };
    secs.saturating_mul(machines + senders).max(1)
}

/// Indices of `costs` in LPT order: descending estimated cost, ties
/// broken by ascending index. The tie-break makes the schedule a pure
/// function of the plan — equal-cost shards (the common case inside
/// one experiment arm) always start in enumeration order.
pub fn lpt_order(costs: &[u64]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..costs.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(costs[i]), i));
    order
}

/// A shared pool of shard indices, LPT-seeded across per-worker deques
/// with back-of-deque stealing.
pub struct StealPool {
    /// One deque of shard indices per worker. Owners pop the front
    /// (their largest remaining shard), thieves pop the back.
    queues: Vec<Mutex<VecDeque<usize>>>,
}

impl StealPool {
    /// Deals `costs.len()` shards to `workers` deques: LPT order, each
    /// shard to the deque with the smallest estimated load so far
    /// (ties to the lowest worker index). Deterministic for a given
    /// `(costs, workers)` pair.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is 0.
    pub fn new(costs: &[u64], workers: usize) -> StealPool {
        assert!(workers >= 1, "need at least one worker");
        let mut queues: Vec<VecDeque<usize>> = (0..workers).map(|_| VecDeque::new()).collect();
        let mut loads = vec![0u64; workers];
        for i in lpt_order(costs) {
            let lightest = (0..workers)
                .min_by_key(|&w| (loads[w], w))
                .expect("at least one worker");
            loads[lightest] = loads[lightest].saturating_add(costs[i]);
            queues[lightest].push_back(i);
        }
        StealPool {
            queues: queues.into_iter().map(Mutex::new).collect(),
        }
    }

    /// The deque a worker was seeded with, for tests and introspection.
    pub fn seeded_queue(&self, worker: usize) -> Vec<usize> {
        self.queues[worker]
            .lock()
            .expect("queue lock")
            .iter()
            .copied()
            .collect()
    }

    /// The next shard index for `worker`: its own front if any, else a
    /// steal from the back of another worker's deque. Victims are
    /// scanned starting at an offset drawn from `steal_rng`, so tests
    /// can force adversarial interleavings; every shard index is
    /// returned exactly once across all workers. `None` means the pool
    /// is drained (some shards may still be *running* on other
    /// workers, but none are unstarted).
    pub fn next(&self, worker: usize, steal_rng: &mut DetRng) -> Option<usize> {
        if let Some(i) = self.queues[worker].lock().expect("queue lock").pop_front() {
            return Some(i);
        }
        let n = self.queues.len();
        let start = steal_rng.below(n.max(1));
        for k in 0..n {
            let victim = (start + k) % n;
            if victim == worker {
                continue;
            }
            if let Some(i) = self.queues[victim].lock().expect("queue lock").pop_back() {
                return Some(i);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lpt_order_is_descending_with_index_tiebreak() {
        assert_eq!(lpt_order(&[5, 9, 9, 1, 9]), vec![1, 2, 4, 0, 3]);
        assert_eq!(lpt_order(&[]), Vec::<usize>::new());
    }

    #[test]
    fn lpt_order_is_deterministic_for_equal_costs() {
        // Equal-cost shards — every shard of one probe arm — must
        // schedule in enumeration order, every time.
        let costs = vec![7u64; 16];
        let first = lpt_order(&costs);
        assert_eq!(first, (0..16).collect::<Vec<_>>());
        for _ in 0..10 {
            assert_eq!(lpt_order(&costs), first);
        }
    }

    #[test]
    fn pool_seeds_longest_first_and_balances_load() {
        // Costs 8,7,2,1 on 2 workers: LPT gives w0={8,1}, w1={7,2}.
        let pool = StealPool::new(&[1, 2, 7, 8], 2);
        assert_eq!(pool.seeded_queue(0), vec![3, 0]);
        assert_eq!(pool.seeded_queue(1), vec![2, 1]);
    }

    #[test]
    fn every_index_is_handed_out_exactly_once() {
        let costs: Vec<u64> = (0..23).map(|i| (i * 13 % 7) + 1).collect();
        for workers in [1usize, 2, 3, 8] {
            for seed in [0u64, 1, 99] {
                let pool = StealPool::new(&costs, workers);
                let mut seen = Vec::new();
                let mut rngs: Vec<DetRng> = (0..workers)
                    .map(|w| DetRng::for_stream(seed, w as u64))
                    .collect();
                // Round-robin the workers so steals actually happen.
                loop {
                    let mut progressed = false;
                    for (w, rng) in rngs.iter_mut().enumerate() {
                        if let Some(i) = pool.next(w, rng) {
                            seen.push(i);
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                }
                seen.sort_unstable();
                assert_eq!(seen, (0..costs.len()).collect::<Vec<_>>());
            }
        }
    }
}
