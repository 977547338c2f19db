//! Riptide's tunable parameters (Table I of the paper) and their builder.

use riptide_simnet::time::SimDuration;

use crate::aggregate::AggregationPolicy;
use crate::combine::CombineStrategy;
use crate::granularity::Granularity;
use crate::guard::GuardConfig;
use crate::policy::LearningPolicy;
use crate::trend::TrendPolicy;

/// The agent's configuration: Table I of the paper plus the §III-B
/// strategy choices.
///
/// | Paper | Field | Deployment value |
/// |-------|-------|------------------|
/// | `α` | part of [`LearningPolicy::Ewma`] | weight on history (unspecified in the paper; 0.7 here) |
/// | `i_u` | `update_interval` | 1 s (§IV-A) |
/// | `t` | `ttl` | 90 s (§III-B) |
/// | `c_max` | `cwnd_max` | 100 (§IV-B knee) |
/// | `c_min` | `cwnd_min` | 10 (the kernel default floor) |
///
/// # Examples
///
/// ```
/// use riptide::config::RiptideConfig;
/// use riptide_simnet::time::SimDuration;
///
/// let cfg = RiptideConfig::builder()
///     .cwnd_max(100)
///     .update_interval(SimDuration::from_secs(1))
///     .alpha(0.7)
///     .build()?;
/// assert_eq!(cfg.cwnd_max, 100);
/// # Ok::<(), riptide::config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct RiptideConfig {
    /// `i_u`: how often the agent polls open connections and refreshes
    /// routes.
    pub update_interval: SimDuration,
    /// `t`: how long a learned value survives without fresh observations
    /// before its route is withdrawn (default restored).
    pub ttl: SimDuration,
    /// `c_max`: ceiling on any installed initial window.
    pub cwnd_max: u32,
    /// `c_min`: floor on any installed initial window.
    pub cwnd_min: u32,
    /// How simultaneous observations to one destination are combined
    /// (§III-B "Combination Algorithm").
    pub combine: CombineStrategy,
    /// The window estimator: how fresh combined values become the value
    /// to clamp and install. The EWMA, no history and the windowed mean
    /// are the paper's §III-B history strategies (the EWMA is the
    /// deployment default); the other variants are registered
    /// competitors raced by the policy-ablation arena.
    pub policy: LearningPolicy,
    /// Destination grouping: per-host /32 routes or per-prefix routes
    /// (§III-B "Destinations as Routes").
    pub granularity: Granularity,
    /// Optional trend-based damping (§V): react to sharp per-destination
    /// window collapses faster than the history blend would.
    pub trend: Option<crate::trend::TrendPolicy>,
    /// Optional loss-aware circuit breaker: demote jump-started
    /// destinations whose post-install retransmit rate says the learned
    /// window is now the harm (closes the §IV-D no-harm loop).
    pub guard: Option<crate::guard::GuardConfig>,
    /// Optional bound on the learned table: at most this many
    /// destinations, least-recently-updated evicted first. `None` (the
    /// paper's deployment) grows without limit.
    pub table_capacity: Option<usize>,
    /// Optional prefix aggregation: keep learning at the configured
    /// granularity, but coalesce sibling routes into a covering prefix
    /// while their windows agree within the policy's band, splitting on
    /// divergence. `None` (the paper's deployment) installs one route
    /// per learned key.
    pub aggregation: Option<crate::aggregate::AggregationPolicy>,
}

impl RiptideConfig {
    /// The paper's deployment configuration: 1 s polling, 90 s TTL,
    /// windows clamped to `[10, 100]`, per-destination averaging with an
    /// EWMA over history, host-granularity routes.
    pub fn deployment() -> Self {
        RiptideConfig {
            update_interval: SimDuration::from_secs(1),
            ttl: SimDuration::from_secs(90),
            cwnd_max: 100,
            cwnd_min: 10,
            combine: CombineStrategy::Average,
            policy: LearningPolicy::Ewma { alpha: 0.7 },
            granularity: Granularity::Host,
            trend: None,
            guard: None,
            table_capacity: None,
            aggregation: None,
        }
    }

    /// Starts building a configuration from the deployment defaults.
    pub fn builder() -> RiptideConfigBuilder {
        RiptideConfigBuilder {
            config: RiptideConfig::deployment(),
        }
    }

    /// Clamps a computed window into `[cwnd_min, cwnd_max]`.
    ///
    /// Non-finite input (a NaN or infinity escaping some upstream
    /// arithmetic) maps to the conservative floor `cwnd_min` — never to
    /// an out-of-range window. (`NaN as u32` would otherwise saturate to
    /// 0 and install a window below `c_min`.)
    pub fn clamp(&self, window: f64) -> u32 {
        if !window.is_finite() {
            return self.cwnd_min;
        }
        let w = window.round();
        let w = if w < self.cwnd_min as f64 {
            self.cwnd_min as f64
        } else if w > self.cwnd_max as f64 {
            self.cwnd_max as f64
        } else {
            w
        };
        w as u32
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if bounds are inverted, intervals are zero,
    /// or the history strategy's parameters are out of range.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cwnd_min == 0 {
            return Err(ConfigError::new("cwnd_min must be at least 1"));
        }
        if self.cwnd_min > self.cwnd_max {
            return Err(ConfigError::new(format!(
                "cwnd_min ({}) must not exceed cwnd_max ({})",
                self.cwnd_min, self.cwnd_max
            )));
        }
        if self.update_interval.is_zero() {
            return Err(ConfigError::new("update_interval must be non-zero"));
        }
        if self.ttl < self.update_interval {
            return Err(ConfigError::new(
                "ttl shorter than update_interval would expire entries between polls",
            ));
        }
        self.policy
            .validate()
            .map_err(|e| ConfigError::new(format!("policy: {e}")))?;
        self.granularity
            .validate()
            .map_err(|e| ConfigError::new(format!("granularity: {e}")))?;
        if let Some(trend) = &self.trend {
            trend
                .validate()
                .map_err(|e| ConfigError::new(format!("trend: {e}")))?;
        }
        if let Some(guard) = &self.guard {
            guard.validate()?;
        }
        if self.table_capacity == Some(0) {
            return Err(ConfigError::new("table_capacity must be at least 1"));
        }
        if let Some(aggregation) = &self.aggregation {
            aggregation
                .validate()
                .map_err(|e| ConfigError::new(format!("aggregation: {e}")))?;
            if let Granularity::Prefix(len) = self.granularity {
                if len <= aggregation.aggregate_len {
                    return Err(ConfigError::new(format!(
                        "aggregation into /{} needs keys more specific than it \
                         (granularity is /{len})",
                        aggregation.aggregate_len
                    )));
                }
            }
        }
        Ok(())
    }
}

impl Default for RiptideConfig {
    fn default() -> Self {
        RiptideConfig::deployment()
    }
}

/// Builder for [`RiptideConfig`], starting from deployment defaults.
#[derive(Debug, Clone)]
pub struct RiptideConfigBuilder {
    config: RiptideConfig,
}

impl RiptideConfigBuilder {
    /// Sets `i_u`, the polling interval.
    pub fn update_interval(mut self, v: SimDuration) -> Self {
        self.config.update_interval = v;
        self
    }

    /// Sets `t`, the entry time-to-live.
    pub fn ttl(mut self, v: SimDuration) -> Self {
        self.config.ttl = v;
        self
    }

    /// Sets `c_max`.
    pub fn cwnd_max(mut self, v: u32) -> Self {
        self.config.cwnd_max = v;
        self
    }

    /// Sets `c_min`.
    pub fn cwnd_min(mut self, v: u32) -> Self {
        self.config.cwnd_min = v;
        self
    }

    /// Sets the combination strategy.
    pub fn combine(mut self, v: CombineStrategy) -> Self {
        self.config.combine = v;
        self
    }

    /// Sets the learning policy (the window estimator).
    pub fn policy(mut self, v: LearningPolicy) -> Self {
        self.config.policy = v;
        self
    }

    /// A synonym of [`RiptideConfigBuilder::policy`], kept only because
    /// the frozen `benchmark/` package calls it.
    pub fn history(self, v: LearningPolicy) -> Self {
        self.policy(v)
    }

    /// Shorthand: use the EWMA policy with the given `α`.
    pub fn alpha(self, alpha: f64) -> Self {
        self.policy(LearningPolicy::Ewma { alpha })
    }

    /// Sets the destination granularity.
    pub fn granularity(mut self, v: Granularity) -> Self {
        self.config.granularity = v;
        self
    }

    /// Enables trend-based damping (§V).
    pub fn trend(mut self, v: crate::trend::TrendPolicy) -> Self {
        self.config.trend = Some(v);
        self
    }

    /// Enables the loss-aware circuit breaker.
    pub fn guard(mut self, v: crate::guard::GuardConfig) -> Self {
        self.config.guard = Some(v);
        self
    }

    /// Bounds the learned table to at most `capacity` destinations.
    pub fn table_capacity(mut self, capacity: usize) -> Self {
        self.config.table_capacity = Some(capacity);
        self
    }

    /// Enables prefix aggregation with the given policy.
    pub fn aggregation(mut self, policy: crate::aggregate::AggregationPolicy) -> Self {
        self.config.aggregation = Some(policy);
        self
    }

    /// Finishes the build.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if the assembled configuration fails
    /// [`RiptideConfig::validate`].
    pub fn build(self) -> Result<RiptideConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

impl RiptideConfigBuilder {
    /// Applies one `key = value` setting of the grammar
    /// [`RiptideConfig::from_conf_str`] documents. This is the one place a
    /// setting is parsed: conf-file lines and `riptided`'s agent flags
    /// both come through here. Nothing is validated until
    /// [`RiptideConfigBuilder::build`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on an unknown key or a malformed value.
    pub fn set(self, key: &str, value: &str) -> Result<Self, ConfigError> {
        fn num<T: std::str::FromStr>(what: &str, v: &str) -> Result<T, ConfigError>
        where
            T::Err: std::fmt::Display,
        {
            v.parse()
                .map_err(|e| ConfigError::new(format!("bad {what}: {e}")))
        }
        let err = |msg: String| Err(ConfigError::new(msg));
        Ok(match key {
            "alpha" => self.alpha(num("alpha", value)?),
            "policy" | "history" => self.policy(
                LearningPolicy::from_spec(value)
                    .map_err(|e| ConfigError::new(format!("bad {key}: {e}")))?,
            ),
            "interval" => self.update_interval(SimDuration::from_secs(num("interval", value)?)),
            "ttl" => self.ttl(SimDuration::from_secs(num("ttl", value)?)),
            "cmax" => self.cwnd_max(num("cmax", value)?),
            "cmin" => self.cwnd_min(num("cmin", value)?),
            "combine" => self.combine(match value {
                "average" => CombineStrategy::Average,
                "max" => CombineStrategy::Max,
                "traffic-weighted" => CombineStrategy::TrafficWeighted,
                other => return err(format!("unknown combine {other:?}")),
            }),
            "granularity" => self.granularity(match (value, value.strip_prefix('/')) {
                ("host", _) => Granularity::Host,
                (_, Some(len)) => Granularity::Prefix(num("prefix", len)?),
                _ => return err(format!("unknown granularity {value:?}")),
            }),
            "trend" => match (value, value.split_once(':')) {
                ("off", _) => self,
                ("on", _) => self.trend(TrendPolicy::default()),
                (_, Some((drop, overshoot))) => self.trend(TrendPolicy {
                    drop_fraction: num("drop", drop)?,
                    overshoot: num("overshoot", overshoot)?,
                }),
                _ => return err("trend must be off | on | <drop>:<overshoot>".into()),
            },
            "guard" => match value {
                "off" => self,
                "on" => self.guard(GuardConfig::default()),
                thr => self.guard(GuardConfig {
                    retrans_threshold: num("guard threshold", thr)?,
                    ..GuardConfig::default()
                }),
            },
            "capacity" => match value {
                "unbounded" => self,
                n => self.table_capacity(num("capacity", n)?),
            },
            "aggregate" => match (value, value.strip_prefix('/')) {
                ("off", _) => self,
                ("on", _) => self.aggregation(AggregationPolicy::default()),
                (_, Some(spec)) => {
                    let mut parts = spec.splitn(3, ':');
                    let mut next = |what: &str| {
                        let part = parts.next();
                        part.ok_or_else(|| ConfigError::new(format!("aggregate missing {what}")))
                    };
                    self.aggregation(AggregationPolicy {
                        aggregate_len: num("aggregate length", next("length")?)?,
                        band: num("aggregate band", next("band")?)?,
                        min_siblings: num("aggregate min siblings", next("min siblings")?)?,
                    })
                }
                _ => return err("aggregate must be off | on | /<len>:<band>:<min siblings>".into()),
            },
            other => return err(format!("unknown key {other:?}")),
        })
    }

    /// Applies a conf file's lines in order through
    /// [`RiptideConfigBuilder::set`]: one `key = value` pair per line,
    /// `#` comments and blank lines skipped. An error names its line;
    /// nothing is validated until [`RiptideConfigBuilder::build`].
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on a line that is not `key = value`, an
    /// unknown key or a malformed value.
    pub fn conf_lines(mut self, text: &str) -> Result<Self, ConfigError> {
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let at =
                |e: ConfigError| ConfigError::new(format!("line {}: {}", lineno + 1, e.message));
            let Some((key, value)) = line.split_once('=') else {
                return Err(at(ConfigError::new("expected key = value")));
            };
            self = self.set(key.trim(), value.trim()).map_err(at)?;
        }
        Ok(self)
    }
}

impl RiptideConfig {
    /// Parses a deployment-style configuration file: one `key = value`
    /// pair per line, `#` comments, unknown keys rejected. The 13 keys
    /// mirror Table I and the §III-B strategy choices; this block is the
    /// deployment default, spelled out:
    ///
    /// ```
    /// # use riptide::config::RiptideConfig;
    /// # use riptide_simnet::time::SimDuration;
    /// let conf = "
    /// alpha = 0.7            # shorthand for policy = ewma:0.7
    /// policy = ewma          # a LearningPolicy::from_spec spec: none | p25 | windowed:<n> …
    /// history = ewma         # an older synonym of policy
    /// interval = 1           # seconds (i_u)
    /// ttl = 90               # seconds (t)
    /// cmax = 100
    /// cmin = 10
    /// combine = average      # average | max | traffic-weighted
    /// granularity = host     # host | /<len>
    /// trend = off            # off | on | <drop>:<overshoot>
    /// guard = off            # off | on | <retrans rate threshold>
    /// capacity = unbounded   # unbounded | <max destinations>
    /// aggregate = off        # off | on | /<len>:<band>:<min siblings>
    /// ";
    /// let cfg = RiptideConfig::from_conf_str(conf)?;
    /// assert_eq!(cfg.ttl, SimDuration::from_secs(90));
    /// assert_eq!((cfg.cwnd_min, cfg.cwnd_max), (10, 100));
    /// assert!(cfg.guard.is_none() && cfg.table_capacity.is_none());
    /// assert_eq!(cfg, RiptideConfig::deployment());
    /// # Ok::<(), riptide::config::ConfigError>(())
    /// ```
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] on unknown keys, malformed values, or a
    /// configuration failing [`RiptideConfig::validate`].
    pub fn from_conf_str(text: &str) -> Result<Self, ConfigError> {
        RiptideConfig::builder().conf_lines(text)?.build()
    }
}

/// An invalid [`RiptideConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    message: String,
}

impl ConfigError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        ConfigError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid riptide config: {}", self.message)
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_matches_paper() {
        let cfg = RiptideConfig::deployment();
        cfg.validate().unwrap();
        assert_eq!(cfg.update_interval, SimDuration::from_secs(1));
        assert_eq!(cfg.ttl, SimDuration::from_secs(90));
        assert_eq!(cfg.cwnd_max, 100);
        assert_eq!(cfg.cwnd_min, 10);
        assert_eq!(cfg.combine, CombineStrategy::Average);
        assert_eq!(cfg.granularity, Granularity::Host);
    }

    #[test]
    fn clamp_bounds_both_sides() {
        let cfg = RiptideConfig::deployment();
        assert_eq!(cfg.clamp(3.0), 10);
        assert_eq!(cfg.clamp(55.4), 55);
        assert_eq!(cfg.clamp(55.6), 56);
        assert_eq!(cfg.clamp(250.0), 100);
    }

    #[test]
    fn clamp_maps_non_finite_to_the_floor() {
        let cfg = RiptideConfig::deployment();
        assert_eq!(cfg.clamp(f64::NAN), 10, "NaN must not saturate to 0");
        assert_eq!(cfg.clamp(f64::INFINITY), 10);
        assert_eq!(cfg.clamp(f64::NEG_INFINITY), 10);
    }

    #[test]
    fn builder_overrides_fields() {
        let cfg = RiptideConfig::builder()
            .cwnd_max(250)
            .cwnd_min(2)
            .ttl(SimDuration::from_secs(30))
            .update_interval(SimDuration::from_secs(5))
            .combine(CombineStrategy::Max)
            .granularity(Granularity::Prefix(24))
            .build()
            .unwrap();
        assert_eq!(cfg.cwnd_max, 250);
        assert_eq!(cfg.cwnd_min, 2);
        assert_eq!(cfg.combine, CombineStrategy::Max);
        assert_eq!(cfg.granularity, Granularity::Prefix(24));
    }

    #[test]
    fn inverted_bounds_rejected() {
        let err = RiptideConfig::builder()
            .cwnd_min(200)
            .cwnd_max(100)
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("cwnd_min"));
    }

    #[test]
    fn ttl_shorter_than_interval_rejected() {
        assert!(RiptideConfig::builder()
            .ttl(SimDuration::from_millis(500))
            .build()
            .is_err());
    }

    #[test]
    fn bad_alpha_rejected() {
        assert!(RiptideConfig::builder().alpha(1.5).build().is_err());
        assert!(RiptideConfig::builder().alpha(-0.1).build().is_err());
        assert!(RiptideConfig::builder().alpha(0.0).build().is_ok());
        assert!(RiptideConfig::builder().alpha(1.0).build().is_ok());
    }

    #[test]
    fn conf_file_round_trip() {
        let conf = "
            # deployment config
            alpha = 0.7
            interval = 1   # i_u
            ttl = 90
            cmax = 100
            cmin = 10
            combine = average
            granularity = host
            trend = off
        ";
        let cfg = RiptideConfig::from_conf_str(conf).unwrap();
        assert_eq!(cfg, RiptideConfig::deployment());
    }

    #[test]
    fn conf_file_alternatives() {
        let cfg = RiptideConfig::from_conf_str(
            "history = windowed:5\ncombine = max\ngranularity = /24\ntrend = 0.3:0.6\n",
        )
        .unwrap();
        assert_eq!(cfg.policy, LearningPolicy::WindowedMean { window: 5 });
        assert_eq!(cfg.combine, CombineStrategy::Max);
        assert_eq!(cfg.granularity, Granularity::Prefix(24));
        let trend = cfg.trend.unwrap();
        assert!((trend.drop_fraction - 0.3).abs() < 1e-12);
        assert!((trend.overshoot - 0.6).abs() < 1e-12);
        let on = RiptideConfig::from_conf_str("trend = on\n").unwrap();
        assert!(on.trend.is_some());
    }

    #[test]
    fn conf_file_policy_key() {
        let cfg = RiptideConfig::from_conf_str("policy = p25\n").unwrap();
        assert_eq!(
            cfg.policy,
            LearningPolicy::Percentile {
                fraction: 0.25,
                capacity: 64
            }
        );
        let cfg = RiptideConfig::from_conf_str("policy = loss-utility:1.0:2.0:0.7\n").unwrap();
        assert_eq!(
            cfg.policy,
            LearningPolicy::LossUtility {
                gain: 1.0,
                penalty: 2.0,
                alpha: 0.7
            }
        );
        // The default spec is exactly the deployment configuration.
        let cfg = RiptideConfig::from_conf_str("policy = ewma\n").unwrap();
        assert_eq!(cfg, RiptideConfig::deployment());
        assert!(RiptideConfig::from_conf_str("policy = vibes\n").is_err());
    }

    #[test]
    fn conf_file_guard_and_capacity() {
        let cfg = RiptideConfig::from_conf_str("guard = on\ncapacity = 500\n").unwrap();
        assert_eq!(cfg.guard, Some(crate::guard::GuardConfig::default()));
        assert_eq!(cfg.table_capacity, Some(500));
        let cfg = RiptideConfig::from_conf_str("guard = 0.1\n").unwrap();
        assert!((cfg.guard.unwrap().retrans_threshold - 0.1).abs() < 1e-12);
        let off = RiptideConfig::from_conf_str("guard = off\ncapacity = unbounded\n").unwrap();
        assert_eq!(off, RiptideConfig::deployment());
        assert!(RiptideConfig::from_conf_str("capacity = 0\n").is_err());
        assert!(RiptideConfig::from_conf_str("guard = vibes\n").is_err());
    }

    #[test]
    fn conf_file_aggregation() {
        let cfg = RiptideConfig::from_conf_str("aggregate = on\n").unwrap();
        assert_eq!(
            cfg.aggregation,
            Some(crate::aggregate::AggregationPolicy::default())
        );
        let cfg = RiptideConfig::from_conf_str("aggregate = /20:6:3\n").unwrap();
        let policy = cfg.aggregation.unwrap();
        assert_eq!(policy.aggregate_len, 20);
        assert_eq!(policy.band, 6);
        assert_eq!(policy.min_siblings, 3);
        let off = RiptideConfig::from_conf_str("aggregate = off\n").unwrap();
        assert_eq!(off, RiptideConfig::deployment());
        assert!(RiptideConfig::from_conf_str("aggregate = 24:8:2\n").is_err());
        assert!(RiptideConfig::from_conf_str("aggregate = /24:8\n").is_err());
        assert!(RiptideConfig::from_conf_str("aggregate = /32:8:2\n").is_err());
        // Aggregating /24 keys into /24 covers nothing: rejected.
        assert!(RiptideConfig::from_conf_str("granularity = /24\naggregate = on\n").is_err());
        // More specific prefix keys still aggregate fine.
        assert!(RiptideConfig::from_conf_str("granularity = /28\naggregate = on\n").is_ok());
    }

    #[test]
    fn guard_config_validated_at_build() {
        let err = RiptideConfig::builder()
            .guard(crate::guard::GuardConfig {
                retrans_threshold: 1.5,
                ..crate::guard::GuardConfig::default()
            })
            .build()
            .unwrap_err();
        assert!(err.to_string().contains("retrans_threshold"), "{err}");
    }

    #[test]
    fn conf_file_errors_carry_line_numbers() {
        let err = RiptideConfig::from_conf_str("alpha = 0.5\nwhat = 7\n").unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        assert!(RiptideConfig::from_conf_str("alpha 0.5\n").is_err());
        assert!(RiptideConfig::from_conf_str("combine = vibes\n").is_err());
        assert!(RiptideConfig::from_conf_str("cmax = -3\n").is_err());
        // Validation errors surface too (cmin > cmax).
        assert!(RiptideConfig::from_conf_str("cmin = 500\n").is_err());
    }

    #[test]
    fn empty_conf_is_the_deployment_default() {
        let cfg = RiptideConfig::from_conf_str("# nothing\n\n").unwrap();
        assert_eq!(cfg, RiptideConfig::deployment());
    }

    #[test]
    fn zero_interval_rejected() {
        assert!(RiptideConfig::builder()
            .update_interval(SimDuration::ZERO)
            .build()
            .is_err());
    }
}
