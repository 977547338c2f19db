//! Route control outputs: how the agent's decisions reach the kernel.

use std::cell::RefCell;
use std::fmt;
use std::rc::Rc;

use riptide_linuxnet::ip_cmd::IpRouteCmd;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::{RouteError, RouteTable};

/// A failed route-control action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ControlError {
    message: String,
}

impl ControlError {
    /// Creates an error with a human-readable description.
    pub fn new(message: impl Into<String>) -> Self {
        ControlError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ControlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "route control failed: {}", self.message)
    }
}

impl std::error::Error for ControlError {}

impl From<RouteError> for ControlError {
    fn from(e: RouteError) -> Self {
        ControlError::new(e.to_string())
    }
}

/// The agent's actuator: install or withdraw per-destination initial
/// congestion windows.
///
/// In the simulated deployment this fronts a [`RouteTable`]; a real
/// deployment would shell out to `ip route` with exactly the commands
/// [`SharedRouteController::drain_commands`] hands over.
pub trait RouteController {
    /// Installs (or updates) the initial window for `key`.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError`] if the underlying route operation fails.
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError>;

    /// Withdraws the window for `key`, restoring the stack default.
    ///
    /// # Errors
    ///
    /// Returns [`ControlError`] if the route does not exist or cannot be
    /// removed.
    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError>;
}

impl<C: RouteController + ?Sized> RouteController for &mut C {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        (**self).set_initcwnd(key, window)
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        (**self).clear_initcwnd(key)
    }
}

impl RouteController for RouteTable {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        IpRouteCmd::set_initcwnd(key, window).apply(self)?;
        Ok(())
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        IpRouteCmd::del(key).apply(self)?;
        Ok(())
    }
}

/// A shared routing table is a controller, as the table itself is: the
/// shape the simulation needs, where the table is at once the world's
/// initcwnd policy and the agent's actuator, and nothing reads the
/// commands back, so none is kept.
impl RouteController for Rc<RefCell<RouteTable>> {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        self.borrow_mut().set_initcwnd(key, window)
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        self.borrow_mut().clear_initcwnd(key)
    }
}

/// A controller that drives a shared routing table and records every
/// action as the `ip route` command a shell deployment would run: what
/// `riptided` prints, draining the log after every poll.
#[derive(Debug, Clone)]
pub struct SharedRouteController {
    table: Rc<RefCell<RouteTable>>,
    log: Vec<IpRouteCmd>,
}

impl SharedRouteController {
    /// Wraps a shared routing table.
    pub fn new(table: Rc<RefCell<RouteTable>>) -> Self {
        SharedRouteController {
            table,
            log: Vec::new(),
        }
    }

    /// Takes the commands issued since the last drain, oldest first,
    /// leaving the log empty — what a long-running caller prints after
    /// every poll so the log does not grow for the life of the process.
    pub fn drain_commands(&mut self) -> Vec<IpRouteCmd> {
        std::mem::take(&mut self.log)
    }

    /// The shared table handle.
    pub fn table(&self) -> Rc<RefCell<RouteTable>> {
        Rc::clone(&self.table)
    }
}

/// The window-range invariant, enforced at the last hop before the
/// kernel: a `CheckedController` refuses any install outside
/// `[c_min, c_max]` (§IV-D's no-harm property — a misbehaving layer above
/// must never leave a window in the kernel that the algorithm could not
/// have produced).
///
/// Wrap it *innermost* in a controller stack, directly in front of the
/// table, so that every path to an install — direct, retried, or
/// delayed-and-replayed — passes the check.
#[derive(Debug, Clone)]
pub struct CheckedController<C> {
    inner: C,
    lo: u32,
    hi: u32,
    installs: u64,
    breaches: u64,
    min_installed: u32,
    max_installed: u32,
}

impl<C: RouteController> CheckedController<C> {
    /// Wraps `inner`, allowing only windows in `[lo, hi]` through.
    pub fn new(inner: C, lo: u32, hi: u32) -> Self {
        assert!(lo <= hi, "empty window range [{lo}, {hi}]");
        CheckedController {
            inner,
            lo,
            hi,
            installs: 0,
            breaches: 0,
            min_installed: u32::MAX,
            max_installed: 0,
        }
    }

    /// The accepted range.
    pub fn bounds(&self) -> (u32, u32) {
        (self.lo, self.hi)
    }

    /// Installs that passed the check and reached the inner controller.
    pub fn installs(&self) -> u64 {
        self.installs
    }

    /// Rejected installs (out-of-range windows). Zero in a healthy run.
    pub fn breaches(&self) -> u64 {
        self.breaches
    }

    /// The extreme windows actually installed, or `None` before the
    /// first install. Both are within bounds by construction.
    pub fn installed_range(&self) -> Option<(u32, u32)> {
        (self.installs > 0).then_some((self.min_installed, self.max_installed))
    }

    /// The wrapped controller.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// Unwraps.
    pub fn into_inner(self) -> C {
        self.inner
    }
}

impl<C: RouteController> RouteController for CheckedController<C> {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        if window < self.lo || window > self.hi {
            self.breaches += 1;
            return Err(ControlError::new(format!(
                "window {window} outside [{}, {}] for {key}",
                self.lo, self.hi
            )));
        }
        self.inner.set_initcwnd(key, window)?;
        self.installs += 1;
        self.min_installed = self.min_installed.min(window);
        self.max_installed = self.max_installed.max(window);
        Ok(())
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        self.inner.clear_initcwnd(key)
    }
}

/// Startup recovery: removes routes a previous (crashed) agent instance
/// left behind, so learning restarts from a clean slate instead of
/// trusting stale windows of unknown age. Returns how many routes were
/// removed.
///
/// Only `proto static` routes carrying an `initcwnd` attribute — the
/// exact signature of Riptide's own installs — are touched; everything
/// else in the table is someone else's.
pub fn recover_stale_routes(table: &mut riptide_linuxnet::route::RouteTable) -> usize {
    use riptide_linuxnet::route::RouteProto;
    let stale: Vec<Ipv4Prefix> = table
        .iter()
        .filter(|r| r.attrs.proto == RouteProto::Static && r.attrs.initcwnd.is_some())
        .map(|r| r.prefix)
        .collect();
    for prefix in &stale {
        table.del(*prefix).expect("route listed a moment ago");
    }
    stale.len()
}

impl RouteController for SharedRouteController {
    fn set_initcwnd(&mut self, key: Ipv4Prefix, window: u32) -> Result<(), ControlError> {
        let cmd = IpRouteCmd::set_initcwnd(key, window);
        cmd.apply(&mut self.table.borrow_mut())?;
        self.log.push(cmd);
        Ok(())
    }

    fn clear_initcwnd(&mut self, key: Ipv4Prefix) -> Result<(), ControlError> {
        let cmd = IpRouteCmd::del(key);
        cmd.apply(&mut self.table.borrow_mut())?;
        self.log.push(cmd);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, n))
    }

    #[test]
    fn route_table_is_a_controller() {
        let mut t = RouteTable::new();
        t.set_initcwnd(key(1), 80).unwrap();
        assert_eq!(t.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(80));
        t.set_initcwnd(key(1), 90).unwrap();
        assert_eq!(t.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), Some(90));
        t.clear_initcwnd(key(1)).unwrap();
        assert_eq!(t.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), None);
    }

    #[test]
    fn clear_missing_is_an_error() {
        let mut t = RouteTable::new();
        assert!(t.clear_initcwnd(key(1)).is_err());
    }

    #[test]
    fn shared_controller_logs_shell_commands() {
        let table = Rc::new(RefCell::new(RouteTable::new()));
        let mut ctl = SharedRouteController::new(Rc::clone(&table));
        ctl.set_initcwnd(key(7), 80).unwrap();
        ctl.clear_initcwnd(key(7)).unwrap();
        let log: Vec<String> = ctl.drain_commands().iter().map(|c| c.to_string()).collect();
        assert_eq!(
            log,
            [
                "ip route replace 10.0.1.7 proto static initcwnd 80",
                "ip route del 10.0.1.7"
            ]
        );
        assert!(table.borrow().is_empty());

        // Draining hands the commands over once and starts afresh.
        assert!(ctl.drain_commands().is_empty());
        ctl.set_initcwnd(key(8), 44).unwrap();
        assert_eq!(
            ctl.drain_commands(),
            vec![IpRouteCmd::set_initcwnd(key(8), 44)]
        );
    }

    #[test]
    fn recovery_removes_only_riptide_signature_routes() {
        use riptide_linuxnet::route::{RouteAttrs, RouteProto};
        let mut t = RouteTable::new();
        // A dead predecessor's installs:
        t.set_initcwnd(key(1), 80).unwrap();
        t.set_initcwnd(key(2), 60).unwrap();
        // An operator's static route without initcwnd, and a kernel route:
        t.add("10.9.0.0/16".parse().unwrap(), RouteAttrs::default())
            .unwrap();
        t.add(
            "10.8.0.0/16".parse().unwrap(),
            RouteAttrs {
                proto: RouteProto::Kernel,
                initcwnd: Some(10),
                ..RouteAttrs::default()
            },
        )
        .unwrap();
        let removed = recover_stale_routes(&mut t);
        assert_eq!(removed, 2);
        assert_eq!(t.len(), 2, "non-riptide routes untouched");
        assert_eq!(t.initcwnd_for(Ipv4Addr::new(10, 0, 1, 1)), None);
    }

    #[test]
    fn checked_controller_blocks_out_of_range_windows() {
        let mut ctl = CheckedController::new(RouteTable::new(), 10, 100);
        ctl.set_initcwnd(key(1), 10).unwrap();
        ctl.set_initcwnd(key(2), 100).unwrap();
        assert!(ctl.set_initcwnd(key(3), 9).is_err());
        assert!(ctl.set_initcwnd(key(3), 101).is_err());
        assert!(ctl.set_initcwnd(key(3), 0).is_err());
        assert_eq!(ctl.installs(), 2);
        assert_eq!(ctl.breaches(), 3);
        assert_eq!(ctl.installed_range(), Some((10, 100)));
        // The rejected window never reached the table.
        assert_eq!(ctl.inner().initcwnd_for(Ipv4Addr::new(10, 0, 1, 3)), None);
        ctl.clear_initcwnd(key(1)).unwrap();
        assert_eq!(ctl.into_inner().len(), 1);
    }

    #[test]
    fn mut_references_are_controllers_too() {
        fn drive(ctl: &mut impl RouteController) {
            ctl.set_initcwnd(Ipv4Prefix::host(Ipv4Addr::new(10, 0, 1, 9)), 44)
                .unwrap();
        }
        let mut t = RouteTable::new();
        drive(&mut &mut t);
        assert_eq!(t.initcwnd_for(Ipv4Addr::new(10, 0, 1, 9)), Some(44));
    }

    #[test]
    fn shared_controller_mutations_visible_through_handle() {
        let table = Rc::new(RefCell::new(RouteTable::new()));
        let mut ctl = SharedRouteController::new(Rc::clone(&table));
        ctl.set_initcwnd(key(2), 55).unwrap();
        // The world-side policy would read the same table.
        assert_eq!(
            table.borrow().initcwnd_for(Ipv4Addr::new(10, 0, 1, 2)),
            Some(55)
        );
    }
}
