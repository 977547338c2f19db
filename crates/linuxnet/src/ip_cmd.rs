//! The `ip route` command surface Riptide drives.
//!
//! §III-C: per-route initial congestion windows "may be set on a per-route
//! basis … intended to be done through the `ip` command-line utility". The
//! paper's Fig. 8 shows the exact invocation:
//!
//! ```text
//! ip route add 10.0.0.127 dev eth0 proto static initcwnd 80 via 10.0.0.1
//! ```
//!
//! [`IpRouteCmd`] models that command: it parses from and formats to the
//! utility's syntax and applies against a [`RouteTable`], so the agent's
//! control actions round-trip through the same text a shell deployment
//! would execute.

use std::fmt;
use std::str::FromStr;

use crate::prefix::Ipv4Prefix;
use crate::route::{ParseRouteError, Route, RouteAttrs, RouteError, RouteProto, RouteTable};

/// The verb of an `ip route` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IpRouteAction {
    /// `ip route add` — fails if the route exists.
    Add,
    /// `ip route replace` — add-or-overwrite.
    Replace,
    /// `ip route del` — fails if the route is missing.
    Del,
}

impl fmt::Display for IpRouteAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            IpRouteAction::Add => "add",
            IpRouteAction::Replace => "replace",
            IpRouteAction::Del => "del",
        };
        f.write_str(s)
    }
}

/// A parsed `ip route` command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IpRouteCmd {
    /// The verb.
    pub action: IpRouteAction,
    /// Destination prefix (a bare address means a /32 host route).
    pub prefix: Ipv4Prefix,
    /// Attributes following the prefix.
    pub attrs: RouteAttrs,
}

impl IpRouteCmd {
    /// The Riptide command: install-or-update a static route carrying an
    /// initial congestion window (uses `replace` so repeated updates
    /// succeed).
    pub fn set_initcwnd(prefix: Ipv4Prefix, window: u32) -> Self {
        IpRouteCmd {
            action: IpRouteAction::Replace,
            prefix,
            attrs: RouteAttrs {
                proto: RouteProto::Static,
                initcwnd: Some(window),
                ..RouteAttrs::default()
            },
        }
    }

    /// The expiry command: remove the route, restoring the kernel default
    /// initial window.
    pub fn del(prefix: Ipv4Prefix) -> Self {
        IpRouteCmd {
            action: IpRouteAction::Del,
            prefix,
            attrs: RouteAttrs::default(),
        }
    }

    /// Applies the command to a routing table, returning the displaced
    /// route (for `replace`/`del`), as the kernel would.
    ///
    /// # Errors
    ///
    /// Propagates [`RouteError`] exactly as the `ip` tool surfaces
    /// `EEXIST`/`ESRCH`.
    pub fn apply(&self, table: &mut RouteTable) -> Result<Option<Route>, RouteError> {
        match self.action {
            IpRouteAction::Add => {
                table.add(self.prefix, self.attrs.clone())?;
                Ok(None)
            }
            IpRouteAction::Replace => Ok(table.replace(self.prefix, self.attrs.clone())),
            IpRouteAction::Del => table.del(self.prefix).map(Some),
        }
    }
}

impl fmt::Display for IpRouteCmd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ip route {} {}", self.action, self.prefix)?;
        if let Some(dev) = &self.attrs.dev {
            write!(f, " dev {dev}")?;
        }
        if self.action != IpRouteAction::Del {
            write!(f, " proto {}", self.attrs.proto)?;
        }
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

/// Error from parsing an `ip route` command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseIpCmdError {
    message: String,
}

impl ParseIpCmdError {
    fn new(message: impl Into<String>) -> Self {
        ParseIpCmdError {
            message: message.into(),
        }
    }
}

impl fmt::Display for ParseIpCmdError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid ip route command: {}", self.message)
    }
}

impl std::error::Error for ParseIpCmdError {}

impl FromStr for IpRouteCmd {
    type Err = ParseIpCmdError;

    /// `ip route <action>`, then the route in `ip route show` syntax —
    /// one attribute grammar, [`Route`]'s.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        // The first whitespace-separated word of `s`, and what follows it.
        fn word(s: &str) -> (&str, &str) {
            let s = s.trim_start();
            s.split_at(s.find(char::is_whitespace).unwrap_or(s.len()))
        }
        let (ip, rest) = word(s);
        let (route, rest) = word(rest);
        if (ip, route) != ("ip", "route") {
            return Err(ParseIpCmdError::new("must start with `ip route`"));
        }
        let (action, rest) = word(rest);
        let action = match action {
            "add" => IpRouteAction::Add,
            "replace" => IpRouteAction::Replace,
            "del" | "delete" => IpRouteAction::Del,
            other => return Err(ParseIpCmdError::new(format!("unknown action {other:?}"))),
        };
        if rest.trim().is_empty() {
            return Err(ParseIpCmdError::new("missing destination"));
        }
        let Route { prefix, attrs } = rest
            .parse()
            .map_err(|e: ParseRouteError| ParseIpCmdError::new(e.to_string()))?;
        Ok(IpRouteCmd {
            action,
            prefix,
            attrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::Ipv4Addr;

    /// The exact command the paper prints in Fig. 8.
    const FIG8: &str = "ip route add 10.0.0.127 dev eth0 proto static initcwnd 80 via 10.0.0.1";

    #[test]
    fn parses_the_papers_fig8_command() {
        let cmd: IpRouteCmd = FIG8.parse().unwrap();
        assert_eq!(cmd.action, IpRouteAction::Add);
        assert_eq!(cmd.prefix, Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, 127)));
        assert_eq!(cmd.attrs.dev.as_deref(), Some("eth0"));
        assert_eq!(cmd.attrs.proto, RouteProto::Static);
        assert_eq!(cmd.attrs.initcwnd, Some(80));
        assert_eq!(cmd.attrs.via, Some(Ipv4Addr::new(10, 0, 0, 1)));
    }

    #[test]
    fn format_parse_round_trip() {
        let cmd: IpRouteCmd = FIG8.parse().unwrap();
        let reparsed: IpRouteCmd = cmd.to_string().parse().unwrap();
        assert_eq!(cmd, reparsed);
    }

    #[test]
    fn apply_fig8_installs_initcwnd() {
        let cmd: IpRouteCmd = FIG8.parse().unwrap();
        let mut table = RouteTable::new();
        cmd.apply(&mut table).unwrap();
        assert_eq!(
            table.initcwnd_for(Ipv4Addr::new(10, 0, 0, 127)),
            Some(80),
            "new connections to the destination start at the learned window"
        );
    }

    #[test]
    fn set_and_del_round_trip_through_table() {
        let prefix: Ipv4Prefix = "10.0.1.0/24".parse().unwrap();
        let mut table = RouteTable::new();
        IpRouteCmd::set_initcwnd(prefix, 100)
            .apply(&mut table)
            .unwrap();
        assert_eq!(table.initcwnd_for(Ipv4Addr::new(10, 0, 1, 7)), Some(100));
        // Update in place (replace semantics).
        IpRouteCmd::set_initcwnd(prefix, 60)
            .apply(&mut table)
            .unwrap();
        assert_eq!(table.initcwnd_for(Ipv4Addr::new(10, 0, 1, 7)), Some(60));
        // TTL expiry removes the route, restoring the kernel default.
        IpRouteCmd::del(prefix).apply(&mut table).unwrap();
        assert_eq!(table.initcwnd_for(Ipv4Addr::new(10, 0, 1, 7)), None);
    }

    #[test]
    fn add_twice_surfaces_eexist() {
        let cmd: IpRouteCmd = FIG8.parse().unwrap();
        let mut table = RouteTable::new();
        cmd.apply(&mut table).unwrap();
        assert!(matches!(
            cmd.apply(&mut table),
            Err(RouteError::AlreadyExists(_))
        ));
    }

    #[test]
    fn del_missing_surfaces_esrch() {
        let mut table = RouteTable::new();
        let cmd = IpRouteCmd::del("10.9.9.9".parse().unwrap());
        assert!(matches!(
            cmd.apply(&mut table),
            Err(RouteError::NotFound(_))
        ));
    }

    #[test]
    fn parse_rejects_malformed() {
        for bad in [
            "route add 10.0.0.1",
            "ip route frobnicate 10.0.0.1",
            "ip route add",
            "ip route add 10.0.0.1 initcwnd",
            "ip route add 10.0.0.1 initcwnd many",
            "ip route add 10.0.0.1 wormhole on",
            "ip route add 999.0.0.1",
        ] {
            assert!(bad.parse::<IpRouteCmd>().is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn errors_say_what_is_wrong() {
        let err = |s: &str| s.parse::<IpRouteCmd>().unwrap_err().to_string();
        assert!(err("ip route add").contains("missing destination"));
        assert!(err("ip route add \t ").contains("missing destination"));
        assert!(err("ip route").contains("unknown action"));
        // The attribute grammar is the route line's, and so is its text.
        assert!(err("ip route add 10.0.0.1 initcwnd").contains("initcwnd needs a value"));
        assert!(err("ip route add 10.0.0.1 initcwnd many").contains("bad initcwnd \"many\""));
    }

    #[test]
    fn delete_alias_accepted() {
        let cmd: IpRouteCmd = "ip route delete 10.0.0.1".parse().unwrap();
        assert_eq!(cmd.action, IpRouteAction::Del);
    }

    #[test]
    fn prefix_routes_parse() {
        let cmd: IpRouteCmd = "ip route replace 10.0.4.0/24 proto static initcwnd 90"
            .parse()
            .unwrap();
        assert_eq!(cmd.prefix.len(), 24);
        assert_eq!(cmd.attrs.initcwnd, Some(90));
    }
}
