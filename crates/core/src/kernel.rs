//! The §V "Kernel Implementation" variant.
//!
//! The paper: *"Riptide could further be implemented directly in the
//! Linux kernel. Such an implementation would likely reduce load, as an
//! external program no longer has to monitor all open connections, and
//! potentially enable higher granularity computations. It could further
//! allow setting of initial congestion windows on a per connection
//! basis, rather than per route."*
//!
//! [`KernelAgent`] is that design: event-driven instead of polled — the
//! stack pushes a window sample whenever one changes (or a connection
//! closes), and each `connect()` asks for its initial window directly.
//! No `ss` parsing, no route churn, no `i_u` staleness: a sample is
//! reflected in the very next connection. The userspace
//! [`crate::agent::RiptideAgent`] remains the deployable tool (the paper
//! keeps it for operational reasons); this type exists to quantify what
//! the kernel path would buy.

use std::net::Ipv4Addr;

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::SimTime;

use crate::config::{ConfigError, RiptideConfig};
use crate::table::FinalTable;

/// An in-stack, event-driven Riptide.
///
/// # Examples
///
/// ```
/// use riptide::kernel::KernelAgent;
/// use riptide::config::RiptideConfig;
/// use riptide_simnet::time::SimTime;
/// use std::net::Ipv4Addr;
///
/// let mut k = KernelAgent::new(RiptideConfig::deployment())?;
/// let dst = Ipv4Addr::new(10, 0, 1, 1);
/// // The stack reports a window sample the moment it changes…
/// k.on_window_sample(dst, 80, SimTime::from_secs(1));
/// // …and the very next connect() sees it — no polling interval.
/// assert_eq!(k.initial_cwnd(dst, SimTime::from_secs(1)), Some(80));
/// # Ok::<(), riptide::config::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct KernelAgent {
    config: RiptideConfig,
    table: FinalTable,
    samples: u64,
}

impl KernelAgent {
    /// Creates a kernel-style agent.
    ///
    /// # Errors
    ///
    /// Returns the configuration's validation error, if any. The
    /// `update_interval` field is ignored — there is no polling.
    pub fn new(config: RiptideConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        Ok(KernelAgent {
            config,
            table: FinalTable::new(),
            samples: 0,
        })
    }

    /// The agent's configuration.
    pub fn config(&self) -> &RiptideConfig {
        &self.config
    }

    /// Total samples consumed.
    pub fn samples(&self) -> u64 {
        self.samples
    }

    /// Live destinations currently known.
    pub fn len(&self) -> usize {
        self.table.len()
    }

    /// Whether nothing has been learned (or everything expired).
    pub fn is_empty(&self) -> bool {
        self.table.is_empty()
    }

    /// Ingests one congestion-window sample for a connection to `dst`.
    ///
    /// In a kernel build this is the `cong_control`/close hook; each
    /// sample blends immediately through the configured history strategy
    /// (there is no poll-time group to combine — the event stream *is*
    /// the higher-granularity computation the paper anticipates).
    pub fn on_window_sample(&mut self, dst: Ipv4Addr, cwnd: u32, now: SimTime) {
        self.samples += 1;
        let key = self.config.granularity.key(dst);
        let blended = self.table.blend(key, cwnd as f64, &self.config.policy, now);
        let window = self.config.clamp(blended);
        self.table.set_window(&key, window);
    }

    /// The initial window a new connection to `dst` should use, if the
    /// destination is known and not expired at `now`. This is the
    /// per-connection lookup the paper contrasts with per-route control.
    pub fn initial_cwnd(&self, dst: Ipv4Addr, now: SimTime) -> Option<u32> {
        let key = self.config.granularity.key(dst);
        let entry = self.table.get(&key)?;
        if now.saturating_since(entry.last_updated) > self.config.ttl {
            return None; // stale: fall back to the stack default
        }
        Some(entry.window)
    }

    /// Drops expired destinations; returns what was removed. Unlike the
    /// userspace agent there are no routes to withdraw — expiry is just
    /// memory reclamation, since [`KernelAgent::initial_cwnd`] already
    /// ignores stale entries.
    pub fn expire(&mut self, now: SimTime) -> Vec<Ipv4Prefix> {
        self.table.expire(now, self.config.ttl)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::LearningPolicy;

    fn agent() -> KernelAgent {
        KernelAgent::new(
            RiptideConfig::builder()
                .policy(LearningPolicy::None)
                .build()
                .unwrap(),
        )
        .unwrap()
    }

    fn dst() -> Ipv4Addr {
        Ipv4Addr::new(10, 0, 1, 1)
    }

    #[test]
    fn sample_visible_immediately() {
        let mut k = agent();
        assert_eq!(k.initial_cwnd(dst(), SimTime::ZERO), None);
        k.on_window_sample(dst(), 64, SimTime::from_secs(5));
        assert_eq!(k.initial_cwnd(dst(), SimTime::from_secs(5)), Some(64));
        assert_eq!(k.samples(), 1);
    }

    #[test]
    fn clamp_applies() {
        let mut k = agent();
        k.on_window_sample(dst(), 500, SimTime::from_secs(1));
        assert_eq!(k.initial_cwnd(dst(), SimTime::from_secs(1)), Some(100));
        k.on_window_sample(dst(), 2, SimTime::from_secs(2));
        assert_eq!(k.initial_cwnd(dst(), SimTime::from_secs(2)), Some(10));
    }

    #[test]
    fn lookup_is_lazily_ttl_checked() {
        let mut k = agent();
        k.on_window_sample(dst(), 64, SimTime::from_secs(0));
        assert_eq!(k.initial_cwnd(dst(), SimTime::from_secs(89)), Some(64));
        assert_eq!(
            k.initial_cwnd(dst(), SimTime::from_secs(91)),
            None,
            "stale entries never leak into new connections"
        );
        // The entry still occupies memory until expire() runs.
        assert_eq!(k.len(), 1);
        let dead = k.expire(SimTime::from_secs(91));
        assert_eq!(dead.len(), 1);
        assert!(k.is_empty());
    }

    #[test]
    fn ewma_history_still_applies_per_sample() {
        let mut k = KernelAgent::new(RiptideConfig::builder().alpha(0.5).build().unwrap()).unwrap();
        k.on_window_sample(dst(), 40, SimTime::from_secs(1));
        k.on_window_sample(dst(), 80, SimTime::from_secs(2));
        assert_eq!(k.initial_cwnd(dst(), SimTime::from_secs(2)), Some(60));
    }

    #[test]
    fn kernel_mode_reacts_faster_than_polling() {
        // The quantitative §V claim: a window change lands in the very
        // next connection, instead of after up to i_u seconds.
        let mut k = agent();
        let t0 = SimTime::from_millis(1);
        k.on_window_sample(dst(), 90, t0);
        // 1 ms later — far inside any polling interval — the new value
        // is already live.
        assert_eq!(k.initial_cwnd(dst(), SimTime::from_millis(2)), Some(90));
    }

    #[test]
    fn per_connection_granularity_is_host_by_default() {
        let mut k = agent();
        k.on_window_sample(Ipv4Addr::new(10, 0, 1, 1), 70, SimTime::from_secs(1));
        assert_eq!(
            k.initial_cwnd(Ipv4Addr::new(10, 0, 1, 2), SimTime::from_secs(1)),
            None,
            "host granularity: sibling host unknown"
        );
    }
}
