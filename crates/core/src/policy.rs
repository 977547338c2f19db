//! The window estimator: how fresh observations become the value the
//! agent clamps and installs (§III-B "The use of history is also
//! flexible").
//!
//! The paper's deployed estimator — an EWMA with weight `α` on history,
//! damping both "dangerous increases" and the collapse when every
//! connection to a destination momentarily closes — is one point in a
//! design space §III-B explicitly leaves open. [`LearningPolicy`] is that
//! whole space as one flat enum, so every member races through the same
//! agent, persistence and experiment machinery:
//!
//! * [`LearningPolicy::Ewma`], [`LearningPolicy::None`] and
//!   [`LearningPolicy::WindowedMean`] are the paper's own three: the
//!   deployed blend, no history at all (react fast), and the "longer-view
//!   historical analysis" as a sliding-window mean. They are loss-blind.
//! * [`LearningPolicy::Percentile`] keeps a bounded ring of observed
//!   values and answers a fixed quantile of it: p25 is a conservative
//!   estimator (a window a quarter of recent observations stayed
//!   under), p75 an aggressive one.
//! * [`LearningPolicy::LossUtility`] is a Pied-Piper-style delivery
//!   score: the fresh value earns `gain` credit, discounted by
//!   `penalty × loss_rate` from the group's retransmit share, then
//!   smoothed by an EWMA. Heavy loss drives the utility down (even
//!   negative — the clamp floors it at `c_min`), so a destination that
//!   only looks fast while retransmitting never jump-starts high.
//!
//! A policy carries a stable [`LearningPolicy::name`] that flows into the
//! decision journal ([`DecisionCause::Learned`]) and bench reports, and
//! owns one [`HistoryState`] per destination, whose variants are what
//! [`crate::persist`] writes.
//!
//! [`DecisionCause::Learned`]: crate::telemetry::DecisionCause::Learned

use std::collections::VecDeque;

/// The MSS used to convert `bytes_acked` into a segment count for loss
/// rates, matching [`crate::guard`]'s accounting.
const LOSS_MSS: u64 = 1448;

/// Everything a policy may consume from one observation group: the
/// combined fresh value plus the group's cumulative loss counters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PolicyInput {
    /// The combined (post-[`CombineStrategy`]) fresh window value.
    ///
    /// [`CombineStrategy`]: crate::combine::CombineStrategy
    pub fresh: f64,
    /// Cumulative retransmitted segments across the group.
    pub retrans: u64,
    /// Cumulative ECN-echo window reductions across the group —
    /// congestion signalled without loss. Zero when ECN is off, so
    /// policies that sum it with `retrans` are arithmetic-identical to
    /// their pre-ECN behaviour on non-ECN scenarios.
    pub ecn_marks: u64,
    /// Cumulative acknowledged bytes across the group.
    pub bytes_acked: u64,
}

impl PolicyInput {
    /// An input carrying only the fresh value (no loss signal) — all the
    /// paper's three strategies consume.
    pub fn fresh_only(fresh: f64) -> Self {
        PolicyInput {
            fresh,
            retrans: 0,
            ecn_marks: 0,
            bytes_acked: 0,
        }
    }
}

/// A window estimator: turns a stream of per-destination observations
/// into the pre-clamp value the agent installs.
///
/// The contract every variant (and the cross-policy proptests in
/// `tests/invariants.rs`) must honor:
///
/// * [`new_state`] creates a state [`observe`] accepts; `observe` on a
///   state from a different policy is a caller logic error and panics.
/// * A constant loss-free input stream converges to that constant (the
///   estimator must not drift on steady evidence).
/// * The returned value is finite for finite input; the agent's clamp
///   maps anything else to `c_min`.
/// * [`name`] is stable across runs — it is journaled and persisted into
///   bench baselines.
///
/// [`new_state`]: LearningPolicy::new_state
/// [`observe`]: LearningPolicy::observe
/// [`name`]: LearningPolicy::name
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearningPolicy {
    /// `final = α·previous + (1−α)·fresh` — the deployed choice.
    Ewma {
        /// Weight on the historical value, in `[0, 1]`.
        alpha: f64,
    },
    /// No history: the fresh value is used directly.
    None,
    /// Mean over the last `window` fresh values — the "longer-view
    /// historical analysis" variant.
    WindowedMean {
        /// Number of recent values retained (≥ 1).
        window: usize,
    },
    /// A fixed quantile over a bounded ring of observed values.
    Percentile {
        /// The quantile answered, in `[0, 1]` (0.25 = conservative p25,
        /// 0.75 = aggressive p75).
        fraction: f64,
        /// Ring capacity: how many recent observations are retained
        /// (1..=4096, the persistence codec's bound).
        capacity: usize,
    },
    /// Pied-Piper-style loss-utility score: `fresh × (gain − penalty ×
    /// loss_rate)`, EWMA-smoothed with weight `alpha` on history.
    LossUtility {
        /// Credit multiplier on the fresh value (1.0 = converge to the
        /// fresh value when loss-free).
        gain: f64,
        /// Penalty multiplier on the retransmit share.
        penalty: f64,
        /// EWMA weight on the historical utility, in `[0, 1]`.
        alpha: f64,
    },
}

/// The paper's name for the same knob. A synonym kept only because the
/// frozen `benchmark/` package spells `HistoryStrategy::None`; new code
/// says [`LearningPolicy`].
pub type HistoryStrategy = LearningPolicy;

impl Default for LearningPolicy {
    fn default() -> Self {
        LearningPolicy::Ewma { alpha: 0.7 }
    }
}

/// Upper bound on a percentile ring, matching the persistence codec's
/// `MAX_HISTORY_WINDOW`.
const MAX_RING: usize = 4096;

impl LearningPolicy {
    /// A short stable identifier for journals, benches, and reports.
    pub fn name(&self) -> &'static str {
        match self {
            LearningPolicy::Ewma { .. } => "ewma",
            LearningPolicy::None => "none",
            LearningPolicy::WindowedMean { .. } => "windowed-mean",
            LearningPolicy::Percentile { fraction, .. } => {
                if (fraction - 0.25).abs() < 1e-9 {
                    "p25"
                } else if (fraction - 0.5).abs() < 1e-9 {
                    "p50"
                } else if (fraction - 0.75).abs() < 1e-9 {
                    "p75"
                } else {
                    "percentile"
                }
            }
            LearningPolicy::LossUtility { .. } => "loss-utility",
        }
    }

    /// Checks parameter ranges.
    ///
    /// # Errors
    ///
    /// Returns a description of the first out-of-range parameter.
    pub fn validate(&self) -> Result<(), String> {
        let unit_alpha = |alpha: f64| {
            if !(0.0..=1.0).contains(&alpha) || alpha.is_nan() {
                return Err(format!("alpha must be in [0, 1], got {alpha}"));
            }
            Ok(())
        };
        match *self {
            LearningPolicy::Ewma { alpha } => unit_alpha(alpha),
            LearningPolicy::None => Ok(()),
            LearningPolicy::WindowedMean { window } => {
                if window == 0 {
                    return Err("window must be at least 1".into());
                }
                Ok(())
            }
            LearningPolicy::Percentile { fraction, capacity } => {
                if !(0.0..=1.0).contains(&fraction) || fraction.is_nan() {
                    return Err(format!(
                        "percentile fraction must be in [0, 1], got {fraction}"
                    ));
                }
                if capacity == 0 || capacity > MAX_RING {
                    return Err(format!(
                        "ring capacity must be in 1..={MAX_RING}, got {capacity}"
                    ));
                }
                Ok(())
            }
            LearningPolicy::LossUtility {
                gain,
                penalty,
                alpha,
            } => {
                if !gain.is_finite() || gain <= 0.0 {
                    return Err(format!("gain must be finite and positive, got {gain}"));
                }
                if !penalty.is_finite() || penalty < 0.0 {
                    return Err(format!(
                        "penalty must be finite and non-negative, got {penalty}"
                    ));
                }
                unit_alpha(alpha)
            }
        }
    }

    /// Creates the per-destination state this policy updates.
    pub fn new_state(&self) -> HistoryState {
        match *self {
            LearningPolicy::Ewma { .. } => HistoryState::Ewma { value: None },
            LearningPolicy::None => HistoryState::None,
            LearningPolicy::WindowedMean { window } => HistoryState::Window {
                values: Box::new(VecDeque::with_capacity(window)),
            },
            LearningPolicy::Percentile { capacity, .. } => HistoryState::Ring {
                values: Box::new(VecDeque::with_capacity(capacity)),
            },
            LearningPolicy::LossUtility { .. } => HistoryState::Utility { value: None },
        }
    }

    /// Whether `state` is the variant this policy's `observe` accepts —
    /// the warm-restart compatibility check (a persisted state from a
    /// different policy is re-seeded, not fed in raw).
    pub fn state_matches(&self, state: &HistoryState) -> bool {
        matches!(
            (self, state),
            (LearningPolicy::Ewma { .. }, HistoryState::Ewma { .. })
                | (LearningPolicy::None, HistoryState::None)
                | (
                    LearningPolicy::WindowedMean { .. },
                    HistoryState::Window { .. }
                )
                | (LearningPolicy::Percentile { .. }, HistoryState::Ring { .. })
                | (
                    LearningPolicy::LossUtility { .. },
                    HistoryState::Utility { .. }
                )
        )
    }

    /// Feeds one observation group through the estimator, returning the
    /// value to shape and clamp.
    ///
    /// # Panics
    ///
    /// Panics if `state` was created by a different policy (a logic
    /// error in the caller — see [`LearningPolicy::state_matches`]).
    pub fn observe(&self, state: &mut HistoryState, input: &PolicyInput) -> f64 {
        let fresh = input.fresh;
        match (*self, state) {
            (LearningPolicy::Ewma { alpha }, HistoryState::Ewma { value }) => {
                let blended = match *value {
                    None => fresh,
                    Some(prev) => alpha * prev + (1.0 - alpha) * fresh,
                };
                *value = Some(blended);
                blended
            }
            (LearningPolicy::None, HistoryState::None) => fresh,
            (LearningPolicy::WindowedMean { window }, HistoryState::Window { values }) => {
                push_bounded(values, fresh, window);
                values.iter().sum::<f64>() / values.len() as f64
            }
            (LearningPolicy::Percentile { fraction, capacity }, HistoryState::Ring { values }) => {
                push_bounded(values, fresh, capacity);
                let mut sorted: Vec<f64> = values.iter().copied().collect();
                sorted.sort_by(f64::total_cmp);
                // Nearest-rank quantile: exact on a singleton, and the
                // constant itself on a constant stream.
                let idx = ((sorted.len() - 1) as f64 * fraction).round() as usize;
                sorted[idx.min(sorted.len() - 1)]
            }
            (
                LearningPolicy::LossUtility {
                    gain,
                    penalty,
                    alpha,
                },
                HistoryState::Utility { value },
            ) => {
                // Loss rate as the retransmit share of delivered
                // segments, the same accounting the guard uses. A group
                // that acked nothing yet counts one segment so a single
                // retransmit cannot read as 100% loss.
                let segments = (input.bytes_acked / LOSS_MSS).max(1);
                // ECN echoes count as congestion events alongside
                // retransmits: a marking AQM signals overload without
                // dropping anything, and ignoring it would make the
                // utility blind to exactly the congestion this policy
                // exists to price in. With ECN off the term is zero and
                // the arithmetic is bit-identical to the pre-ECN form.
                let congestion = input.retrans + input.ecn_marks;
                let loss_rate = congestion as f64 / (congestion as f64 + segments as f64);
                let utility = fresh * (gain - penalty * loss_rate);
                let blended = match *value {
                    None => utility,
                    Some(prev) => alpha * prev + (1.0 - alpha) * utility,
                };
                *value = Some(blended);
                blended
            }
            (policy, state) => {
                panic!("history state {state:?} does not match policy {policy:?}")
            }
        }
    }

    /// [`LearningPolicy::observe`] with only a fresh value — what callers
    /// with no loss signal (kernel agent, gossip seeding) use.
    pub fn blend(&self, state: &mut HistoryState, fresh: f64) -> f64 {
        self.observe(state, &PolicyInput::fresh_only(fresh))
    }

    /// A fresh state that has seen `fresh` once — how an entry that
    /// arrives without a usable history (gossip, a restart under a
    /// different policy) starts out.
    pub(crate) fn seeded(&self, fresh: f64) -> HistoryState {
        let mut state = self.new_state();
        self.blend(&mut state, fresh);
        state
    }

    /// Parses a policy spec as written in `riptided --policy` and the
    /// conf file's `policy =` key (and its older synonym `history =`):
    ///
    /// ```text
    /// ewma | ewma:<alpha> | ewma-fast | none | windowed:<n>
    /// p25 | p50 | p75 | percentile:<fraction>:<capacity>
    /// loss-utility | loss-utility:<gain>:<penalty>:<alpha>
    /// ```
    ///
    /// Registered competitor names ([`registered_policies`]) resolve to
    /// their registered parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first unparsable token; the result
    /// is additionally [`LearningPolicy::validate`]d.
    pub fn from_spec(spec: &str) -> Result<LearningPolicy, String> {
        let spec = spec.trim();
        if let Some((_, policy)) = registered_policies().into_iter().find(|(n, _)| *n == spec) {
            return Ok(policy);
        }
        let parsed = if let Some(a) = spec.strip_prefix("ewma:") {
            LearningPolicy::Ewma {
                alpha: a.parse().map_err(|e| format!("bad alpha: {e}"))?,
            }
        } else if spec == "none" {
            LearningPolicy::None
        } else if let Some(n) = spec.strip_prefix("windowed:") {
            LearningPolicy::WindowedMean {
                window: n.parse().map_err(|e| format!("bad window: {e}"))?,
            }
        } else if spec == "p50" {
            LearningPolicy::Percentile {
                fraction: 0.5,
                capacity: 64,
            }
        } else if let Some(rest) = spec.strip_prefix("percentile:") {
            let (frac, cap) = rest
                .split_once(':')
                .ok_or("percentile needs <fraction>:<capacity>")?;
            LearningPolicy::Percentile {
                fraction: frac.parse().map_err(|e| format!("bad fraction: {e}"))?,
                capacity: cap.parse().map_err(|e| format!("bad capacity: {e}"))?,
            }
        } else if let Some(rest) = spec.strip_prefix("loss-utility:") {
            let mut parts = rest.splitn(3, ':');
            let mut next = |what: &str| {
                parts
                    .next()
                    .ok_or_else(|| format!("loss-utility missing {what}"))
            };
            LearningPolicy::LossUtility {
                gain: next("gain")?
                    .parse()
                    .map_err(|e| format!("bad gain: {e}"))?,
                penalty: next("penalty")?
                    .parse()
                    .map_err(|e| format!("bad penalty: {e}"))?,
                alpha: next("alpha")?
                    .parse()
                    .map_err(|e| format!("bad alpha: {e}"))?,
            }
        } else {
            return Err(format!("unknown policy {spec:?}"));
        };
        parsed.validate()?;
        Ok(parsed)
    }
}

/// Appends `fresh` to a ring of at most `capacity` values, oldest out first.
fn push_bounded(values: &mut VecDeque<f64>, fresh: f64, capacity: usize) {
    values.push_back(fresh);
    while values.len() > capacity {
        values.pop_front();
    }
}

/// The competitors the policy-ablation arena races, in arena arm order:
/// `(registered name, policy)`. The first entry is the paper's deployed
/// default — its arena arm is labeled `riptide` so its shard digests
/// stay byte-identical to `probe_comparison`'s.
pub fn registered_policies() -> Vec<(&'static str, LearningPolicy)> {
    vec![
        ("ewma", LearningPolicy::Ewma { alpha: 0.7 }),
        ("ewma-fast", LearningPolicy::Ewma { alpha: 0.3 }),
        (
            "p25",
            LearningPolicy::Percentile {
                fraction: 0.25,
                capacity: 64,
            },
        ),
        (
            "p75",
            LearningPolicy::Percentile {
                fraction: 0.75,
                capacity: 64,
            },
        ),
        (
            "loss-utility",
            LearningPolicy::LossUtility {
                gain: 1.0,
                penalty: 2.0,
                alpha: 0.7,
            },
        ),
    ]
}

/// Per-destination memory owned by the agent's table, created by
/// [`LearningPolicy::new_state`].
///
/// The deques of `Window` and `Ring` are boxed so the enum stays 24
/// bytes, the size an `Option<f64>` variant needs: inline, a `VecDeque`
/// made every variant 40, and a table (and every snapshot of it) holds
/// one state per destination, a million of them at fleet scale, while
/// the deployed EWMA needs only the `Option<f64>`.
#[derive(Debug, Clone, PartialEq)]
pub enum HistoryState {
    /// EWMA accumulator ([`LearningPolicy::Ewma`]).
    Ewma {
        /// Last blended value, if any update has happened.
        value: Option<f64>,
    },
    /// No memory ([`LearningPolicy::None`]).
    None,
    /// Recent fresh values, newest last ([`LearningPolicy::WindowedMean`]).
    Window {
        /// Retained values.
        values: Box<VecDeque<f64>>,
    },
    /// Bounded ring of observed values for the percentile policies
    /// ([`LearningPolicy::Percentile`]), newest last.
    Ring {
        /// Retained observations.
        values: Box<VecDeque<f64>>,
    },
    /// Smoothed loss-utility score for [`LearningPolicy::LossUtility`].
    Utility {
        /// Last smoothed utility, if any update has happened.
        value: Option<f64>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fed(policy: LearningPolicy, values: &[f64]) -> Vec<f64> {
        let mut st = policy.new_state();
        values.iter().map(|&v| policy.blend(&mut st, v)).collect()
    }

    #[test]
    fn default_policy_is_the_deployment_ewma() {
        assert_eq!(
            LearningPolicy::default(),
            LearningPolicy::Ewma { alpha: 0.7 }
        );
        assert_eq!(LearningPolicy::default().name(), "ewma");
    }

    #[test]
    fn ewma_blend_is_bit_for_bit_the_recorded_one() {
        // The deployed estimator's arithmetic is what keeps every golden
        // digest unchanged: these are the bits `α·prev + (1−α)·fresh`
        // produced before the estimators were folded into one enum.
        let got = fed(
            LearningPolicy::Ewma { alpha: 0.7 },
            &[50.0, 150.0, 10.0, 77.3, 99.9],
        );
        let want: [u64; 5] = [
            0x4049_0000_0000_0000, // 50
            0x4054_0000_0000_0000, // 80
            0x404d_8000_0000_0000, // 59
            0x4050_1f5c_28f5_c28f, // 64.49
            0x4052_c73b_645a_1cac, // 75.113
        ];
        assert_eq!(got.iter().map(|v| v.to_bits()).collect::<Vec<_>>(), want);
    }

    #[test]
    fn ewma_first_value_passes_through() {
        assert_eq!(fed(LearningPolicy::Ewma { alpha: 0.7 }, &[50.0]), [50.0]);
    }

    #[test]
    fn ewma_damps_jumps() {
        let v = fed(LearningPolicy::Ewma { alpha: 0.7 }, &[50.0, 150.0, 10.0]);
        // A spike to 150 moves the value only 30% of the way.
        assert!((v[1] - 80.0).abs() < 1e-9, "got {}", v[1]);
        // A collapse to 10 is likewise damped.
        assert!((v[2] - 59.0).abs() < 1e-9, "got {}", v[2]);
    }

    #[test]
    fn ewma_alpha_zero_ignores_history() {
        let v = fed(LearningPolicy::Ewma { alpha: 0.0 }, &[50.0, 90.0]);
        assert_eq!(v[1], 90.0);
    }

    #[test]
    fn ewma_alpha_one_freezes() {
        let v = fed(LearningPolicy::Ewma { alpha: 1.0 }, &[50.0, 90.0]);
        assert_eq!(v[1], 50.0);
    }

    #[test]
    fn ewma_converges_to_steady_input() {
        let mut input = vec![10.0];
        input.extend([100.0; 100]);
        let v = fed(LearningPolicy::Ewma { alpha: 0.7 }, &input);
        let last = v[v.len() - 1];
        assert!((last - 100.0).abs() < 0.01, "converged to {last}");
    }

    #[test]
    fn none_strategy_is_memoryless() {
        assert_eq!(fed(LearningPolicy::None, &[42.0, 7.0]), [42.0, 7.0]);
    }

    #[test]
    fn windowed_mean_slides() {
        let v = fed(
            LearningPolicy::WindowedMean { window: 3 },
            &[10.0, 20.0, 30.0, 40.0],
        );
        // Window full at the fourth value: the 10 falls out.
        assert_eq!(v, [10.0, 15.0, 20.0, 30.0]);
    }

    #[test]
    fn percentile_answers_the_requested_quantile() {
        let values = [40.0, 10.0, 30.0, 20.0, 50.0];
        let p25 = LearningPolicy::Percentile {
            fraction: 0.25,
            capacity: 8,
        };
        // Sorted ring [10, 20, 30, 40, 50]: nearest-rank p25 = 20.
        assert_eq!(fed(p25, &values)[4], 20.0);
        let p75 = LearningPolicy::Percentile {
            fraction: 0.75,
            capacity: 8,
        };
        assert_eq!(fed(p75, &values)[4], 40.0);
    }

    #[test]
    fn percentile_ring_is_bounded() {
        let policy = LearningPolicy::Percentile {
            fraction: 0.75,
            capacity: 3,
        };
        let mut st = policy.new_state();
        for v in 1..=10 {
            policy.blend(&mut st, v as f64);
        }
        match &st {
            HistoryState::Ring { values } => {
                assert_eq!(values.iter().copied().collect::<Vec<_>>(), [8.0, 9.0, 10.0]);
            }
            other => panic!("wrong state {other:?}"),
        }
    }

    #[test]
    fn loss_utility_converges_when_loss_free() {
        let policy = LearningPolicy::LossUtility {
            gain: 1.0,
            penalty: 2.0,
            alpha: 0.7,
        };
        let mut st = policy.new_state();
        let mut v = 0.0;
        for _ in 0..200 {
            v = policy.observe(
                &mut st,
                &PolicyInput {
                    fresh: 80.0,
                    retrans: 0,
                    ecn_marks: 0,
                    bytes_acked: 1 << 20,
                },
            );
        }
        assert!((v - 80.0).abs() < 1e-6, "converged to {v}");
    }

    #[test]
    fn loss_utility_discounts_retransmits() {
        let policy = LearningPolicy::LossUtility {
            gain: 1.0,
            penalty: 2.0,
            alpha: 0.0, // no smoothing: inspect the raw score
        };
        let mut st = policy.new_state();
        let clean = policy.observe(
            &mut st,
            &PolicyInput {
                fresh: 80.0,
                retrans: 0,
                ecn_marks: 0,
                bytes_acked: 1448 * 100,
            },
        );
        assert_eq!(clean, 80.0);
        // 100 retransmits against 100 delivered segments: 50% loss rate,
        // utility 80 × (1 − 2·0.5) = 0.
        let lossy = policy.observe(
            &mut st,
            &PolicyInput {
                fresh: 80.0,
                retrans: 100,
                ecn_marks: 0,
                bytes_acked: 1448 * 100,
            },
        );
        assert!(lossy.abs() < 1e-9, "got {lossy}");
    }

    #[test]
    fn validation() {
        assert!(LearningPolicy::Ewma { alpha: 0.5 }.validate().is_ok());
        assert!(LearningPolicy::Ewma { alpha: 1.1 }.validate().is_err());
        assert!(LearningPolicy::Ewma { alpha: f64::NAN }.validate().is_err());
        assert!(LearningPolicy::WindowedMean { window: 0 }
            .validate()
            .is_err());
        assert!(LearningPolicy::WindowedMean { window: 5 }
            .validate()
            .is_ok());
        assert!(LearningPolicy::None.validate().is_ok());
    }

    #[test]
    fn registered_policies_validate_and_have_unique_names() {
        let regs = registered_policies();
        assert!(regs.len() >= 4, "the arena needs at least 4 competitors");
        let mut names: Vec<&str> = regs.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), regs.len(), "registered names must be unique");
        for (name, policy) in regs {
            policy.validate().unwrap_or_else(|e| panic!("{name}: {e}"));
            // Every registered policy round-trips through the spec
            // parser under its registered name.
            assert_eq!(LearningPolicy::from_spec(name).unwrap(), policy);
        }
    }

    #[test]
    fn spec_parsing_covers_the_grammar() {
        assert_eq!(
            LearningPolicy::from_spec("ewma:0.3").unwrap(),
            LearningPolicy::Ewma { alpha: 0.3 }
        );
        assert_eq!(
            LearningPolicy::from_spec("none").unwrap(),
            LearningPolicy::None
        );
        assert_eq!(
            LearningPolicy::from_spec("windowed:5").unwrap(),
            LearningPolicy::WindowedMean { window: 5 }
        );
        assert_eq!(
            LearningPolicy::from_spec("percentile:0.9:128").unwrap(),
            LearningPolicy::Percentile {
                fraction: 0.9,
                capacity: 128
            }
        );
        assert_eq!(
            LearningPolicy::from_spec("p50").unwrap(),
            LearningPolicy::Percentile {
                fraction: 0.5,
                capacity: 64
            }
        );
        assert_eq!(
            LearningPolicy::from_spec("loss-utility:1.5:3.0:0.5").unwrap(),
            LearningPolicy::LossUtility {
                gain: 1.5,
                penalty: 3.0,
                alpha: 0.5
            }
        );
        assert!(LearningPolicy::from_spec("vibes").is_err());
        assert!(LearningPolicy::from_spec("ewma:1.5").is_err(), "validated");
        assert!(
            LearningPolicy::from_spec("windowed:0").is_err(),
            "validated"
        );
        assert!(LearningPolicy::from_spec("percentile:0.5:0").is_err());
        assert!(LearningPolicy::from_spec("loss-utility:0:1:0.5").is_err());
    }

    #[test]
    fn state_matching_covers_every_pair() {
        let policies = [
            LearningPolicy::Ewma { alpha: 0.7 },
            LearningPolicy::None,
            LearningPolicy::WindowedMean { window: 4 },
            LearningPolicy::Percentile {
                fraction: 0.25,
                capacity: 8,
            },
            LearningPolicy::LossUtility {
                gain: 1.0,
                penalty: 2.0,
                alpha: 0.7,
            },
        ];
        for (i, p) in policies.iter().enumerate() {
            for (j, q) in policies.iter().enumerate() {
                let state = q.new_state();
                assert_eq!(
                    p.state_matches(&state),
                    i == j,
                    "policy {i} vs state of {j}"
                );
            }
        }
    }

    #[test]
    fn mismatched_state_panics() {
        // A paper strategy on another's state, and a competitor on a
        // paper strategy's.
        for (policy, mut st) in [
            (LearningPolicy::None, LearningPolicy::default().new_state()),
            (
                LearningPolicy::Percentile {
                    fraction: 0.25,
                    capacity: 8,
                },
                HistoryState::None,
            ),
        ] {
            let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                policy.blend(&mut st, 1.0);
            }));
            assert!(r.is_err(), "{policy:?}");
        }
    }
}
