//! Totality of this crate's text surfaces on hostile input.
//!
//! `ss` output, `ip route show` dumps and `ip route` command lines are
//! bytes from outside the program. Whatever arrives — arbitrary bytes
//! (decoded lossily, as a daemon reading a pipe would), a valid text cut
//! short, a valid text with one field replaced — each parser must return,
//! in time linear in the input, and report a defect as an error rather
//! than as a row with made-up values.

use std::net::Ipv4Addr;
use std::str::FromStr;
use std::time::{Duration, Instant};

use proptest::collection::vec;
use proptest::prelude::*;
use riptide_linuxnet::ip_cmd::IpRouteCmd;
use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_linuxnet::route::{RouteAttrs, RouteProto, RouteTable};
use riptide_linuxnet::ss::{SockEntry, SockState, SockTable};

/// Fragments no field of either grammar accepts — not as an integer, a
/// float (before a slash or whole), a count after a slash, an address, a
/// prefix, a state, a protocol or a key — shaped like things they do.
const HOSTILE: &[&str] = &[
    "",
    "-",
    "+",
    "1e",
    "0x7f",
    "/",
    "256.0.0.1",
    "010.0.0.1",
    "1.2.3",
    "10.0.0.1/33x",
    "10.0.0.1/-1",
    "\u{fffd}",
    "\u{0}",
    "\u{661}\u{662}",
    "\u{ff19}",
    "a\u{a0}b",
    ":",
    "::",
    "%s%n",
];

fn pick<T: Copy>(from: &[T], by: usize) -> T {
    from[by % from.len()]
}

fn sock_table(rows: &[u64]) -> SockTable {
    rows.iter()
        .enumerate()
        .map(|(i, &seed)| SockEntry {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::from(0x0a40_0000 + i as u32),
            state: pick(
                &[
                    SockState::Established,
                    SockState::SynSent,
                    SockState::CloseWait,
                ],
                seed as usize,
            ),
            cc: pick(&["cubic", "reno", "bbr"], (seed >> 2) as usize).into(),
            cwnd: (seed >> 4) as u32 % 500,
            ssthresh: (seed >> 13 & 1 == 1).then_some((seed >> 14) as u32 % 900),
            rtt_ms: (seed >> 24 & 1 == 1).then_some(((seed >> 25) % 400_000) as f64 / 1000.0),
            bytes_acked: seed >> 3,
            retrans: (seed >> 44) % 3 * (seed >> 46) % 1000,
            lost: (seed >> 56) % 2 * (seed >> 57) % 40,
        })
        .collect()
}

fn route_table(rows: &[u64]) -> RouteTable {
    let mut table = RouteTable::new();
    for (i, &seed) in rows.iter().enumerate() {
        let attrs = RouteAttrs {
            via: (seed & 1 == 1).then(|| Ipv4Addr::from((seed >> 8) as u32)),
            dev: (seed >> 1 & 1 == 1).then(|| "eth0".to_string()),
            proto: pick(
                &[RouteProto::Static, RouteProto::Kernel, RouteProto::Boot],
                (seed >> 2) as usize,
            ),
            initcwnd: (seed >> 4 & 1 == 1).then_some((seed >> 40) as u32),
            initrwnd: (seed >> 5 & 1 == 1).then_some((seed >> 20) as u32),
        };
        let len = 8 + (seed >> 6) as u8 % 25;
        // Distinct networks, so `add` never collides.
        let prefix = Ipv4Prefix::new(Ipv4Addr::from((i as u32 + 1) << 24 | 0x00ff_ffff), len);
        let _ = table.add(prefix, attrs);
    }
    table
}

/// Replaces the `nth` whitespace-separated field of `line` (modulo their
/// number), keeping every separator; `keyed` fields keep their `key:`.
fn replace_field(line: &str, nth: usize, with: &str) -> String {
    let fields: Vec<&str> = line.split_whitespace().collect();
    let target = fields[nth % fields.len()];
    let at = target.as_ptr() as usize - line.as_ptr() as usize;
    let keep = target.find(':').map_or(0, |colon| colon + 1);
    format!(
        "{}{}{}",
        &line[..at + keep],
        with,
        &line[at + target.len()..]
    )
}

/// `lines` as a text again, line `which` replaced.
fn with_line(lines: &[&str], which: usize, replacement: &str) -> String {
    let mut text = String::new();
    for (i, line) in lines.iter().enumerate() {
        text.push_str(if i == which { replacement } else { line });
        text.push('\n');
    }
    text
}

/// Every way in: nothing may panic, and strict and lossy must agree on
/// whether there was a defect.
fn feed_everything(text: &str) {
    let strict = SockTable::parse(text);
    let (rows, errors) = SockTable::parse_lossy(text);
    assert_eq!(strict.is_ok(), errors.is_empty(), "ss on {text:?}");
    if let Ok(table) = strict {
        // Through `Debug`: `rtt:nan` parses, and a NaN equals nothing.
        assert_eq!(format!("{table:?}"), format!("{rows:?}"));
    }
    // A row needs its two lines.
    assert!(rows.len() * 2 <= text.lines().count());

    let strict = RouteTable::parse(text);
    let (routes, errors) = RouteTable::parse_lossy(text);
    assert_eq!(strict.is_ok(), errors.is_empty(), "route on {text:?}");
    assert!(routes.len() + errors.len() <= text.lines().count());

    for line in text.lines().take(8) {
        if let Ok(cmd) = IpRouteCmd::from_str(line) {
            assert_eq!(cmd.to_string().parse(), Ok(cmd), "command {line:?}");
        }
        for token in line.split_whitespace().take(8) {
            if let Ok(prefix) = Ipv4Prefix::from_str(token) {
                assert!(prefix.len() <= 32);
                assert_eq!(prefix.to_string().parse(), Ok(prefix), "prefix {token:?}");
            }
        }
    }
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_a_parser(bytes in vec(any::<u8>(), 0..400)) {
        feed_everything(&String::from_utf8_lossy(&bytes));
    }

    // The same, over the bytes these grammars are made of, so that the
    // draws get past the first token.
    #[test]
    fn grammar_soup_never_panics_a_parser(picks in vec(any::<usize>(), 0..120)) {
        const ALPHABET: &[&str] = &[
            " ", " ", "\t", "\n", "\n", "\r", "\x0b", "\u{a0}", ":", "/", ".", "-", "+", "0", "1",
            "9", "255", "256", "10.0.0.1", "ESTAB", "cubic", "cwnd:", "rtt:", "retrans:", "lost:",
            "bytes_acked:", "ip", "route", "add", "replace", "del", "dev", "eth0", "via", "proto",
            "static", "initcwnd", "initrwnd", "18446744073709551615", "4294967296", "\u{fffd}",
        ];
        let text: String = picks.iter().map(|&by| pick(ALPHABET, by)).collect();
        feed_everything(&text);
    }

    #[test]
    fn truncated_tables_never_panic_and_keep_their_whole_rows(
        rows in vec(any::<u64>(), 1..6),
        cut in any::<usize>(),
    ) {
        let table = sock_table(&rows);
        let text = table.render();
        let cut = cut % text.len();
        let truncated = String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned();
        feed_everything(&truncated);
        // Rows whose two lines arrived whole are salvaged as they were.
        let whole = truncated.matches('\n').count() / 2;
        let (salvaged, _) = SockTable::parse_lossy(&truncated);
        prop_assert!(salvaged.len() >= whole);
        prop_assert_eq!(&salvaged.entries()[..whole], &table.entries()[..whole]);

        let routes = route_table(&rows).render();
        feed_everything(&String::from_utf8_lossy(&routes.as_bytes()[..cut % routes.len()]));
    }

    #[test]
    fn a_hostile_field_costs_its_row_and_only_its_row(
        rows in vec(any::<u64>(), 1..6),
        which in any::<usize>(),
        field in any::<usize>(),
        with in any::<usize>(),
    ) {
        let table = sock_table(&rows);
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        let which = which % lines.len();
        // Not the congestion-control name, an info line's first field:
        // any token will do for one.
        let fields = lines[which].split_whitespace().count();
        let field = if which % 2 == 1 { 1 + field % (fields - 1) } else { field };
        let hostile = replace_field(lines[which], field, pick(HOSTILE, with));
        let mutated = with_line(&lines, which, &hostile);
        feed_everything(&mutated);
        prop_assert!(SockTable::parse(&mutated).is_err(), "accepted {:?}", hostile);
        let (salvaged, errors) = SockTable::parse_lossy(&mutated);
        prop_assert!(!errors.is_empty());
        let mut survivors = table.entries().to_vec();
        survivors.remove(which / 2);
        prop_assert_eq!(salvaged.entries(), &survivors[..], "after {:?}", hostile);
    }

    #[test]
    fn a_hostile_route_field_costs_its_line_and_only_its_line(
        rows in vec(any::<u64>(), 1..6),
        which in any::<usize>(),
        field in any::<usize>(),
        with in any::<usize>(),
    ) {
        let table = route_table(&rows);
        let text = table.render();
        let lines: Vec<&str> = text.lines().collect();
        let which = which % lines.len();
        let fields = lines[which].split_whitespace().count();
        // `dev` takes any name: leave its value alone.
        let dev = lines[which].split_whitespace().position(|f| f == "dev");
        let field = (0..fields)
            .map(|i| (field + i) % fields)
            .find(|&i| Some(i) != dev.map(|at| at + 1))
            .unwrap();
        let hostile = replace_field(lines[which], field, pick(HOSTILE, with));
        let mutated = with_line(&lines, which, &hostile);
        feed_everything(&mutated);
        // An emptied field shifts its neighbours into key position, which
        // is malformed all the same.
        prop_assert!(RouteTable::parse(&mutated).is_err(), "accepted {:?}", hostile);
        let (salvaged, errors) = RouteTable::parse_lossy(&mutated);
        prop_assert_eq!(errors.len(), 1);
        let mut survivors: Vec<_> = table.iter().collect();
        survivors.remove(which);
        prop_assert_eq!(salvaged.iter().collect::<Vec<_>>(), survivors, "after {:?}", hostile);

        let command = format!("ip route replace {hostile}");
        prop_assert!(IpRouteCmd::from_str(&command).is_err(), "accepted {:?}", command);
    }
}

/// A megabyte with no newline, a megabyte of nothing but newlines, and a
/// megabyte of one-byte lines: a parser that re-scans from the start of
/// anything is quadratic on one of them and does not come back.
#[test]
fn a_megabyte_is_linear_work() {
    const MB: usize = 1 << 20;
    let inputs = [
        "x".repeat(MB),
        "cwnd:1 ".repeat(MB / 7),
        "\n".repeat(MB),
        "\u{a0}".repeat(MB / 2),
        "1\n".repeat(MB / 8),
        format!("ESTAB 10.0.0.1 10.0.0.2\n\t{}", " cubic".repeat(MB / 6)),
    ];
    for text in &inputs {
        let started = Instant::now();
        let _ = SockTable::parse(text);
        let (_, ss_errors) = SockTable::parse_lossy(text);
        let _ = RouteTable::parse(text);
        let (_, route_errors) = RouteTable::parse_lossy(text);
        let _ = IpRouteCmd::from_str(text);
        let _ = Ipv4Prefix::from_str(text);
        assert!(ss_errors.len() + route_errors.len() <= 2 * MB);
        // Generous for a debug build on a busy machine; a quadratic pass
        // over a megabyte takes hours.
        assert!(
            started.elapsed() < Duration::from_secs(20),
            "{:?}…",
            &text[..16]
        );
    }
}
