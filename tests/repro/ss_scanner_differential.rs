//! Differential test for the `ss -i` scanner.
//!
//! `linuxnet::ss::SockTable::{parse, parse_lossy}` are one byte-level
//! pass. What that pass promises is what the parser it replaced did, for
//! every `&str`: the same table, the same errors, in the same order. The
//! reference model below *is* that parser — `lines()` → `trim()` →
//! `split_whitespace()` → `split_once(':')` → `str::parse`, pasted in as
//! it stood — so whatever the std iterators make of `\r\n`, vertical
//! tabs, U+00A0, `+7`, `1e3` or `010.0.0.1` is the contract by
//! construction.
//!
//! Inputs are rendered tables and a real `ss -ti` capture, put through
//! mutations aimed at the places a hand-written scanner can drift:
//! whitespace classes, token and line boundaries, number and address
//! syntax, line pairing.

use std::net::Ipv4Addr;

use proptest::collection::vec;
use proptest::prelude::*;
use riptide_repro::linuxnet::ss::{SockEntry, SockState, SockTable};

/// The retired parser: the contract.
mod model {
    use std::fmt;
    use std::net::Ipv4Addr;

    use riptide_repro::linuxnet::ss::{SockEntry, SockState, SockTable};

    #[derive(Debug, Clone, PartialEq, Eq)]
    pub struct ParseSsError {
        message: String,
    }

    impl ParseSsError {
        fn new(message: impl Into<String>) -> Self {
            ParseSsError {
                message: message.into(),
            }
        }
    }

    impl fmt::Display for ParseSsError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "invalid ss output: {}", self.message)
        }
    }

    fn parse_state(s: &str) -> Result<SockState, ParseSsError> {
        match s {
            "ESTAB" => Ok(SockState::Established),
            "SYN-SENT" => Ok(SockState::SynSent),
            "CLOSE-WAIT" => Ok(SockState::CloseWait),
            other => Err(ParseSsError::new(format!("unknown socket state {other:?}"))),
        }
    }

    pub fn parse(text: &str) -> Result<SockTable, ParseSsError> {
        let mut table = SockTable::new();
        let mut pending: Option<(SockState, Ipv4Addr, Ipv4Addr)> = None;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if !line.starts_with(['\t', ' ']) {
                if pending.is_some() {
                    return Err(ParseSsError::new("socket line without info line"));
                }
                pending = Some(parse_socket_line(line)?);
            } else {
                let head = pending
                    .take()
                    .ok_or_else(|| ParseSsError::new("info line without socket line"))?;
                table.push(parse_info_line(head, line)?);
            }
        }
        if pending.is_some() {
            return Err(ParseSsError::new("trailing socket line without info line"));
        }
        Ok(table)
    }

    pub fn parse_lossy(text: &str) -> (SockTable, Vec<ParseSsError>) {
        let mut table = SockTable::new();
        let mut errors = Vec::new();
        let mut pending: Option<(SockState, Ipv4Addr, Ipv4Addr)> = None;
        for line in text.lines() {
            if line.trim().is_empty() {
                continue;
            }
            if !line.starts_with(['\t', ' ']) {
                if pending.take().is_some() {
                    errors.push(ParseSsError::new("socket line without info line"));
                }
                match parse_socket_line(line) {
                    Ok(head) => pending = Some(head),
                    Err(e) => errors.push(e),
                }
            } else {
                match pending.take() {
                    None => errors.push(ParseSsError::new("info line without socket line")),
                    Some(head) => match parse_info_line(head, line) {
                        Ok(entry) => table.push(entry),
                        Err(e) => errors.push(e),
                    },
                }
            }
        }
        if pending.is_some() {
            errors.push(ParseSsError::new("trailing socket line without info line"));
        }
        (table, errors)
    }

    fn parse_socket_line(line: &str) -> Result<(SockState, Ipv4Addr, Ipv4Addr), ParseSsError> {
        let mut parts = line.split_whitespace();
        let state = parse_state(
            parts
                .next()
                .ok_or_else(|| ParseSsError::new("empty socket line"))?,
        )?;
        let src = parse_addr(parts.next())?;
        let dst = parse_addr(parts.next())?;
        Ok((state, src, dst))
    }

    fn parse_info_line(
        (state, src, dst): (SockState, Ipv4Addr, Ipv4Addr),
        line: &str,
    ) -> Result<SockEntry, ParseSsError> {
        let mut cc = String::new();
        let mut cwnd = None;
        let mut ssthresh = None;
        let mut rtt_ms = None;
        let mut bytes_acked = 0;
        let mut retrans = 0;
        let mut lost = 0;
        for tok in line.split_whitespace() {
            match tok.split_once(':') {
                // The first bare token is the congestion-control name; later
                // bare tokens (`send 4.1Mbps`, `app_limited`…) are noise.
                None => {
                    if cc.is_empty() {
                        cc = tok.to_string();
                    }
                }
                Some(("cwnd", v)) => cwnd = Some(parse_num(v)?),
                Some(("ssthresh", v)) => ssthresh = Some(parse_num(v)?),
                Some(("rtt", v)) => {
                    // Real `ss` prints `rtt:srtt/rttvar`; the smoothed RTT is
                    // before the slash.
                    let srtt = v.split_once('/').map_or(v, |(s, _)| s);
                    rtt_ms = Some(
                        srtt.parse::<f64>()
                            .map_err(|e| ParseSsError::new(format!("bad rtt {v:?}: {e}")))?,
                    )
                }
                Some(("bytes_acked", v)) => {
                    bytes_acked = v
                        .parse::<u64>()
                        .map_err(|e| ParseSsError::new(format!("bad bytes_acked {v:?}: {e}")))?
                }
                Some(("retrans", v)) => {
                    // `retrans:cur/total` — the lifetime total is after the
                    // slash; a bare number (older ss) is taken as the total.
                    let total = v.split_once('/').map_or(v, |(_, t)| t);
                    retrans = total
                        .parse::<u64>()
                        .map_err(|e| ParseSsError::new(format!("bad retrans {v:?}: {e}")))?
                }
                Some(("lost", v)) => {
                    lost = v
                        .parse::<u64>()
                        .map_err(|e| ParseSsError::new(format!("bad lost {v:?}: {e}")))?
                }
                Some(_) => {} // unknown key: ignore, like real parsers must
            }
        }
        Ok(SockEntry {
            src,
            dst,
            state,
            cc: cc.into(),
            cwnd: cwnd.ok_or_else(|| ParseSsError::new("info line missing cwnd"))?,
            ssthresh,
            rtt_ms,
            bytes_acked,
            retrans,
            lost,
        })
    }

    fn parse_addr(tok: Option<&str>) -> Result<Ipv4Addr, ParseSsError> {
        let tok = tok.ok_or_else(|| ParseSsError::new("socket line missing address"))?;
        tok.parse()
            .map_err(|e| ParseSsError::new(format!("bad address {tok:?}: {e}")))
    }

    fn parse_num(v: &str) -> Result<u32, ParseSsError> {
        v.parse()
            .map_err(|e| ParseSsError::new(format!("bad number {v:?}: {e}")))
    }
}

/// Real `ss -ti` output (iproute2 5.15, loss on the path) — the capture
/// `ss.rs`'s own tests pin.
const REAL_SS_TI: &str = "\
ESTAB 10.128.0.4 10.132.0.9
\t cubic wscale:7,7 rto:304 rtt:103.741/1.557 ato:40 mss:1408 pmtu:1500 rcvmss:536 advmss:1448 cwnd:38 ssthresh:29 bytes_sent:6561280 bytes_retrans:191488 bytes_acked:6369793 segs_out:4663 segs_in:2333 data_segs_out:4661 send 4.1Mbps lastsnd:44 lastrcv:103404 pacing_rate 4.9Mbps delivery_rate 3.3Mbps delivered:4526 busy:102120ms unacked:136 retrans:1/136 lost:9 sacked:84 reordering:27 rcv_space:14480 rcv_ssthresh:64088 notsent:1253376 minrtt:98.124
ESTAB 10.128.0.4 10.132.0.10
\t cubic wscale:7,7 rto:204 rtt:2.184/0.253 ato:40 mss:1448 cwnd:10 bytes_sent:1872 bytes_acked:1873 segs_out:14 segs_in:11 send 53Mbps delivery_rate 41.5Mbps delivered:14 app_limited busy:28ms rcv_space:14480 minrtt:1.918
";

/// What a row must agree on, with `rtt_ms` by bit pattern: `rtt:nan`
/// parses, and a NaN equals nothing.
fn row_bits(e: &SockEntry) -> impl PartialEq + std::fmt::Debug + '_ {
    (
        (e.src, e.dst, e.state, &*e.cc),
        (e.cwnd, e.ssthresh, e.rtt_ms.map(f64::to_bits)),
        (e.bytes_acked, e.retrans, e.lost),
    )
}

fn same_table(got: &SockTable, want: &SockTable) -> Result<(), String> {
    let (got, want) = (got.entries(), want.entries());
    if got.len() != want.len() {
        return Err(format!("{} rows, the model has {}", got.len(), want.len()));
    }
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        if row_bits(g) != row_bits(w) {
            return Err(format!("row {i}: {g:?}, the model has {w:?}"));
        }
    }
    Ok(())
}

fn strings<E: ToString>(errors: &[E]) -> Vec<String> {
    errors.iter().map(E::to_string).collect()
}

/// The whole contract on one input.
fn agree(text: &str) -> Result<(), String> {
    let strict = SockTable::parse(text);
    match (&strict, model::parse(text)) {
        (Ok(got), Ok(want)) => same_table(got, &want).map_err(|e| format!("parse: {e}"))?,
        (Err(got), Err(want)) if got.to_string() == want.to_string() => {}
        (got, want) => return Err(format!("parse: {got:?}, the model has {want:?}")),
    }
    let (table, errors) = SockTable::parse_lossy(text);
    let (want_table, want_errors) = model::parse_lossy(text);
    same_table(&table, &want_table).map_err(|e| format!("parse_lossy: {e}"))?;
    if strings(&errors) != strings(&want_errors) {
        return Err(format!(
            "parse_lossy errors: {:?}, the model has {:?}",
            strings(&errors),
            strings(&want_errors)
        ));
    }
    if errors.is_empty() != strict.is_ok() {
        return Err(format!(
            "parse_lossy has {} errors where parse says {strict:?}",
            errors.len()
        ));
    }
    Ok(())
}

/// Picks from a list by a generated index.
fn pick<T: Copy>(from: &[T], by: usize) -> T {
    from[by % from.len()]
}

const CC_NAMES: &[&str] = &["cubic", "reno", "bbr", "dctcp", "", "c\u{e9}", "x:y"];
const STATES: &[SockState] = &[
    SockState::Established,
    SockState::Established,
    SockState::SynSent,
    SockState::CloseWait,
];

/// A row from one draw: all three states, optional fields present or
/// not, counters zero (elided by `render`) or not, values at the edges
/// of their types.
fn row(seed: u64) -> SockEntry {
    let bit = |n: u32| seed >> n & 1 == 1;
    let edge = |n: u32, small: u64, max: u64| match seed >> n & 3 {
        0 => 0,
        1 => max,
        _ => (seed >> 7) % small,
    };
    SockEntry {
        src: Ipv4Addr::from((seed >> 3) as u32),
        dst: Ipv4Addr::from((seed >> 29) as u32),
        state: pick(STATES, (seed >> 5) as usize),
        cc: pick(CC_NAMES, (seed >> 11) as usize).into(),
        cwnd: edge(14, 300, u64::from(u32::MAX)) as u32,
        ssthresh: bit(16).then(|| edge(17, 500, u64::from(u32::MAX)) as u32),
        rtt_ms: bit(19).then(|| match seed >> 20 & 3 {
            0 => 0.0,
            1 => 1e300,
            _ => (seed >> 22) as f64 / 1024.0,
        }),
        bytes_acked: edge(24, 10_000_000_000, u64::MAX),
        retrans: if bit(26) { edge(27, 1000, u64::MAX) } else { 0 },
        lost: if bit(30) { edge(31, 50, u64::MAX) } else { 0 },
    }
}

/// Whitespace as `str::split_whitespace` sees it, ASCII and not, plus
/// two bytes that look like it and are not (U+001F, U+200B).
const SPACES: &[&str] = &[
    " ", "\t", "\n", "\r", "\r\n", "\x0b", "\x0c", "\u{85}", "\u{a0}", "\u{2003}", "\u{3000}",
    "\u{1f}", "\u{200b}",
];
/// Values for a `key:` that the std number parsers each have a view on.
const NUMBERS: &[&str] = &[
    "",
    "+7",
    "-7",
    "+",
    "-",
    "007",
    "0",
    "4294967295",
    "4294967296",
    "+4294967295",
    "0000000000004294967295",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999",
    "1e3",
    "1E-3",
    ".5",
    "5.",
    "inf",
    "-inf",
    "nan",
    "NaN",
    "infinity",
    "0x10",
    "1_000",
    "\u{ff11}\u{ff12}",
    "1/",
    "/1",
    "1/2",
    "1/2/3",
    "/",
    "1/+2",
    "1.5/nan",
    "nan/1",
    "7:8",
    ":",
];
/// Address tokens around `Ipv4Addr::from_str`'s edges.
const ADDRESSES: &[&str] = &[
    "010.0.0.1",
    "256.1.1.1",
    "00.0.0.0",
    "1.2.3.04",
    "0001.2.3.4",
    "1.2.3",
    "1.2.3.4.5",
    "1..2.3",
    ".1.2.3.4",
    "1.2.3.4.",
    "+1.2.3.4",
    "1.2.3.-4",
    "0.0.0.0",
    "255.255.255.255",
    "255.255.255.256",
    "1.2.3.4:80",
    "\u{661}.2.3.4",
    "999999999999.1.1.1",
    "::1",
];
const KEYS: &[&str] = &[
    "cwnd",
    "ssthresh",
    "rtt",
    "bytes_acked",
    "retrans",
    "lost",
    "mss",
    "",
    "CWND",
    "cwnd ",
];
const STATE_TOKENS: &[&str] = &[
    "ESTAB",
    "SYN-SENT",
    "CLOSE-WAIT",
    "LISTEN",
    "estab",
    "ESTAB:",
];

/// The largest char boundary at or below `at`.
fn boundary(text: &str, at: usize) -> usize {
    let mut at = at.min(text.len());
    while !text.is_char_boundary(at) {
        at -= 1;
    }
    at
}

/// Rewrites one line's tokens, keeping the line's leading whitespace (its
/// kind) and every other line as it is.
fn edit_line(text: &str, which: usize, edit: impl FnOnce(&mut Vec<String>)) -> String {
    let lines: Vec<&str> = text.split_inclusive('\n').collect();
    if lines.is_empty() {
        return text.to_string();
    }
    let which = which % lines.len();
    let line = lines[which];
    let lead = &line[..line.len() - line.trim_start().len()];
    let mut tokens: Vec<String> = line.split_whitespace().map(str::to_string).collect();
    edit(&mut tokens);
    let mut out: String = lines[..which].concat();
    out.push_str(lead);
    out.push_str(&tokens.join(" "));
    if line.ends_with('\n') {
        out.push('\n');
    }
    out.push_str(&lines[which + 1..].concat());
    out
}

/// One mutation. `kind` selects it, `a` and `b` are its free choices.
fn mutate(text: &str, (kind, a, b): (u8, usize, usize)) -> String {
    match kind {
        // Truncation at any byte: mid-token, mid-number, mid-character
        // (the lossy decode then ends the text in U+FFFD).
        0 => {
            let cut = a % (text.len() + 1);
            String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned()
        }
        // A flipped bit or a replaced byte, decoded the way a daemon
        // reading a pipe would.
        1 | 2 => {
            let mut bytes = text.as_bytes().to_vec();
            if bytes.is_empty() {
                return String::new();
            }
            let at = a % bytes.len();
            if kind == 1 {
                bytes[at] ^= 1 << (b % 8);
            } else {
                bytes[at] = b as u8;
            }
            String::from_utf8_lossy(&bytes).into_owned()
        }
        // Whitespace of every class, anywhere: inside tokens, at line
        // starts (which decide socket or info), before newlines.
        3 => {
            let at = boundary(text, a % (text.len() + 1));
            format!("{}{}{}", &text[..at], pick(SPACES, b), &text[at..])
        }
        // The same, at the start of a line.
        4 => {
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let which = a % (lines.len() + 1);
            let mut out: String = lines[..which].concat();
            out.push_str(pick(SPACES, b));
            out.push_str(&lines[which..].concat());
            out
        }
        // A blank or whitespace-only line between two lines.
        5 => {
            let lines: Vec<&str> = text.split_inclusive('\n').collect();
            let which = a % (lines.len() + 1);
            let mut out: String = lines[..which].concat();
            for i in 0..b % 4 {
                out.push_str(pick(SPACES, b / 4 + i));
            }
            out.push('\n');
            out.push_str(&lines[which..].concat());
            out
        }
        // Token deleted, duplicated, swapped with its neighbour.
        6 => edit_line(text, a, |tokens| {
            if !tokens.is_empty() {
                tokens.remove(b % tokens.len());
            }
        }),
        7 => edit_line(text, a, |tokens| {
            if !tokens.is_empty() {
                let at = b % tokens.len();
                tokens.insert((b / 7) % (tokens.len() + 1), tokens[at].clone());
            }
        }),
        8 => edit_line(text, a, |tokens| {
            if tokens.len() > 1 {
                let at = b % (tokens.len() - 1);
                tokens.swap(at, at + 1);
            }
        }),
        // A key's value replaced; or a fresh `key:value` appended, so a
        // key turns up twice (the last one wins) or for the first time.
        9 => edit_line(text, a, |tokens| {
            let keyed: Vec<usize> = (0..tokens.len())
                .filter(|&i| tokens[i].contains(':'))
                .collect();
            if !keyed.is_empty() {
                let at = pick(&keyed, b);
                let key = tokens[at].split(':').next().unwrap_or("").to_string();
                tokens[at] = format!("{key}:{}", pick(NUMBERS, b / 16));
            }
        }),
        10 => edit_line(text, a, |tokens| {
            let token = format!("{}:{}", pick(KEYS, b), pick(NUMBERS, b / 16));
            tokens.insert((b / 1024) % (tokens.len() + 1), token);
        }),
        // An address or a state replaced (on an info line that is one
        // more bare token).
        11 => edit_line(text, a, |tokens| {
            if !tokens.is_empty() {
                let at = b % tokens.len().min(3);
                tokens[at] = if at == 0 {
                    pick(STATE_TOKENS, b / 4).to_string()
                } else {
                    pick(ADDRESSES, b / 4).to_string()
                };
            }
        }),
        // A line dropped (orphans its partner) or doubled.
        12 => {
            let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
            if !lines.is_empty() {
                lines.remove(a % lines.len());
            }
            lines.concat()
        }
        _ => {
            let mut lines: Vec<&str> = text.split_inclusive('\n').collect();
            if !lines.is_empty() {
                let at = a % lines.len();
                lines.insert((b % (lines.len() + 1)).max(at), lines[at]);
            }
            lines.concat()
        }
    }
}

const MUTATIONS: u8 = 14;

proptest! {
    // Rendered tables, unmutated: the round trip the daemon lives on.
    #[test]
    fn scanner_matches_the_retired_parser_on_rendered_tables(
        rows in vec(any::<u64>(), 0..8),
    ) {
        let table: SockTable = rows.iter().map(|&seed| row(seed)).collect();
        let text = table.render();
        if let Err(why) = agree(&text) {
            prop_assert!(false, "{} on {:?}", why, text);
        }
    }

    // Mutated tables and a mutated real capture.
    #[test]
    fn scanner_matches_the_retired_parser_on_mutated_text(
        rows in vec(any::<u64>(), 0..5),
        real in any::<bool>(),
        mutations in vec((0..MUTATIONS, any::<usize>(), any::<usize>()), 1..6),
    ) {
        let mut text = if real {
            REAL_SS_TI.to_string()
        } else {
            rows.iter().map(|&seed| row(seed)).collect::<SockTable>().render()
        };
        for &mutation in &mutations {
            text = mutate(&text, mutation);
            if let Err(why) = agree(&text) {
                prop_assert!(false, "{} after {:?} on {:?}", why, mutations, text);
            }
        }
    }

    // Bytes with no structure at all, drawn from the alphabet the
    // scanner branches on.
    #[test]
    fn scanner_matches_the_retired_parser_on_token_soup(
        picks in vec((any::<usize>(), any::<usize>()), 0..40),
    ) {
        let text: String = picks
            .iter()
            .map(|&(kind, which)| match kind % 7 {
                0 | 1 => pick(SPACES, which),
                2 => pick(STATE_TOKENS, which),
                3 => pick(ADDRESSES, which),
                4 => pick(KEYS, which),
                5 => ":",
                _ => pick(NUMBERS, which),
            })
            .collect();
        if let Err(why) = agree(&text) {
            prop_assert!(false, "{} on {:?}", why, text);
        }
    }
}

/// The shapes the issue names, each on its own, whatever the seed draws.
#[test]
fn scanner_matches_the_retired_parser_on_the_named_shapes() {
    let head = "ESTAB 10.0.0.1 10.0.1.1\n";
    let info = "\t cubic cwnd:10 bytes_acked:5\n";
    let mut shapes: Vec<String> = vec![
        String::new(),
        "\n".into(),
        "\n\n\r\n \t \n".into(),
        REAL_SS_TI.into(),
        REAL_SS_TI.replace('\n', "\r\n"),
        REAL_SS_TI.trim_end().into(),
        format!("{head}{info}").repeat(3),
        // Orphans, doubles, a trailing socket line, a bare `\r` at the end.
        info.into(),
        format!("{head}{head}{info}"),
        format!("{head}{info}{info}"),
        head.into(),
        head.trim_end().into(),
        format!("{head}{info}\r"),
        format!("{head}\r{info}"),
        // A line that opens with whitespace other than tab or space is a
        // socket line.
        format!("{head}\u{a0}cubic cwnd:10\n"),
        format!("{head}\u{2003}cubic cwnd:10\n"),
        format!("{head}\x0b cubic cwnd:10\n"),
        format!("{head}\r\t cubic cwnd:10\n"),
        format!("{head} \u{a0}cubic\u{2003}cwnd:10\u{85}lost:1\n"),
        format!("{head}\tcubic\x0bcwnd:10\x0clost:1\n"),
        format!("{head}\t cwnd:10 cwnd:11 rtt:1 rtt:2/3 retrans:4 retrans:5/6\n"),
        format!("{head}\t cubic reno bbr cwnd:10\n"),
        format!("{head}\t :cubic cwnd:10\n"),
        format!("{head}\t cubic\n"),
        format!("{head}\t cwnd:x lost:y\n"),
        "ESTAB\n".into(),
        "ESTAB 10.0.0.1\n".into(),
        "ESTAB 10.0.0.1 10.0.1.1 extra tokens here\n\t cwnd:1\n".into(),
        "WAT 999.0.0.1 10.0.1.1\n\t cwnd:1\n".into(),
        "ESTAB \u{fffd} 10.0.1.1\n".into(),
    ];
    for value in NUMBERS {
        for key in [
            "cwnd",
            "ssthresh",
            "rtt",
            "bytes_acked",
            "retrans",
            "lost",
            "mss",
        ] {
            shapes.push(format!(
                "{head}\t cubic cwnd:10 {key}:{value} bytes_acked:5\n"
            ));
        }
    }
    for address in ADDRESSES {
        shapes.push(format!("ESTAB {address} 10.0.1.1\n{info}"));
        shapes.push(format!("ESTAB 10.0.0.1 {address}\n{info}"));
    }
    for shape in &shapes {
        if let Err(why) = agree(shape) {
            panic!("{why} on {shape:?}");
        }
    }
}
