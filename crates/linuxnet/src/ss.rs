//! An `ss -i`-shaped socket-statistics view.
//!
//! Riptide's only *input* is the output of the `ss` utility: one row per
//! TCP socket with the extended-info line carrying `cwnd`, `rtt` and
//! `bytes_acked`. This module provides that table as a data structure
//! ([`SockTable`]) plus a text renderer and parser matching the utility's
//! format closely enough that the agent can be driven from either a live
//! table or captured text — the same dual a real deployment has (library
//! vs. shelling out).

use std::borrow::Cow;
use std::convert::Infallible;
use std::fmt::{self, Write as _};
use std::net::Ipv4Addr;
use std::str::FromStr;

use crate::parts::{cores, in_parts};

/// TCP socket state (only the states `ss -t` shows for data sockets).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SockState {
    /// Established and usable.
    #[default]
    Established,
    /// Handshake in progress.
    SynSent,
    /// Half-closed.
    CloseWait,
}

impl fmt::Display for SockState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SockState::Established => "ESTAB",
            SockState::SynSent => "SYN-SENT",
            SockState::CloseWait => "CLOSE-WAIT",
        };
        f.write_str(s)
    }
}

impl FromStr for SockState {
    type Err = ParseSsError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ESTAB" => Ok(SockState::Established),
            "SYN-SENT" => Ok(SockState::SynSent),
            "CLOSE-WAIT" => Ok(SockState::CloseWait),
            other => Err(ParseSsError::new(format!("unknown socket state {other:?}"))),
        }
    }
}

/// One socket row: the fields of `ss -i` output that Riptide consumes.
#[derive(Debug, Clone, PartialEq)]
pub struct SockEntry {
    /// Local address.
    pub src: Ipv4Addr,
    /// Peer address — the key Riptide groups on.
    pub dst: Ipv4Addr,
    /// Socket state.
    pub state: SockState,
    /// Congestion-control algorithm name (`cubic`, `reno`, …). The parser
    /// borrows the names Linux ships and owns any other, so a poll of
    /// well-formed text allocates nothing per row.
    pub cc: Cow<'static, str>,
    /// Current congestion window, in segments.
    pub cwnd: u32,
    /// Slow-start threshold, in segments, if set.
    pub ssthresh: Option<u32>,
    /// Smoothed RTT in milliseconds, if measured.
    pub rtt_ms: Option<f64>,
    /// Bytes acknowledged over the socket's lifetime.
    pub bytes_acked: u64,
    /// Cumulative retransmitted segments over the socket's lifetime —
    /// the figure after the slash in `ss`'s `retrans:cur/total`. The
    /// loss signal the guard layer consumes.
    pub retrans: u64,
    /// Segments currently considered lost (`lost:`), per RFC 6582
    /// accounting.
    pub lost: u64,
}

/// Error from parsing rendered `ss` text.
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

impl std::error::Error for ParseSsError {}

/// A snapshot of all sockets on a host, in `ss` row order.
///
/// # Examples
///
/// ```
/// use riptide_linuxnet::ss::{SockEntry, SockState, SockTable};
/// use std::net::Ipv4Addr;
///
/// let mut table = SockTable::new();
/// table.push(SockEntry {
///     src: Ipv4Addr::new(10, 0, 0, 1),
///     dst: Ipv4Addr::new(10, 0, 1, 1),
///     state: SockState::Established,
///     cc: "cubic".into(),
///     cwnd: 80,
///     ssthresh: None,
///     rtt_ms: Some(120.0),
///     bytes_acked: 1_000_000,
///     retrans: 3,
///     lost: 0,
/// });
/// let text = table.render();
/// let parsed = SockTable::parse(&text)?;
/// assert_eq!(parsed, table);
/// # Ok::<(), riptide_linuxnet::ss::ParseSsError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SockTable {
    entries: Vec<SockEntry>,
}

impl SockTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        SockTable::default()
    }

    /// Appends a socket row.
    pub fn push(&mut self, entry: SockEntry) {
        self.entries.push(entry);
    }

    /// All rows, in order.
    pub fn entries(&self) -> &[SockEntry] {
        &self.entries
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rows in `Established` state — the ones whose windows mean anything.
    pub fn established(&self) -> impl Iterator<Item = &SockEntry> {
        self.entries
            .iter()
            .filter(|e| e.state == SockState::Established)
    }

    /// Renders in an `ss -i`-like two-lines-per-socket format.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.entries.len() * 96);
        for e in &self.entries {
            // Writing into a `String` cannot fail, hence the `let _`s.
            let _ = writeln!(out, "{} {} {}", e.state, e.src, e.dst);
            let _ = write!(out, "\t {} cwnd:{}", e.cc, e.cwnd);
            if let Some(ss) = e.ssthresh {
                let _ = write!(out, " ssthresh:{ss}");
            }
            if let Some(rtt) = e.rtt_ms {
                let _ = write!(out, " rtt:{rtt:.3}");
            }
            let _ = write!(out, " bytes_acked:{}", e.bytes_acked);
            // `ss` prints retrans as current/lifetime; we render the
            // lifetime total and omit both counters when clean, matching
            // the utility's own field elision.
            if e.retrans > 0 {
                let _ = write!(out, " retrans:0/{}", e.retrans);
            }
            if e.lost > 0 {
                let _ = write!(out, " lost:{}", e.lost);
            }
            out.push('\n');
        }
        out
    }

    /// Parses text produced by [`SockTable::render`] (tolerant of extra
    /// whitespace). Long text is scanned in parts, one per core, on scoped
    /// threads; the result is the one-part scan's.
    ///
    /// # Errors
    ///
    /// Returns [`ParseSsError`] on malformed rows, unknown states, or an
    /// info line without its preceding socket line.
    pub fn parse(text: &str) -> Result<Self, ParseSsError> {
        let (table, _) = scan(text, parts_for(text.len()), |e, _| Err(e))?;
        Ok(table)
    }

    /// Parses like [`SockTable::parse`] but salvages every complete,
    /// well-formed row instead of failing on the first defect — the
    /// behaviour a production poller needs when `ss` output arrives
    /// truncated (a timeout mid-write) or interleaved with garbage.
    ///
    /// Returns the salvaged table together with one error per defect, in
    /// input order. `parse_lossy(t).1.is_empty()` exactly when
    /// `parse(t)` succeeds.
    pub fn parse_lossy(text: &str) -> (Self, Vec<ParseSsError>) {
        let Ok(scanned) = scan(text, parts_for(text.len()), |e, errors| {
            errors.push(e);
            Ok::<(), Infallible>(())
        });
        scanned
    }
}

/// The congestion-control modules Linux ships (`net/ipv4/tcp_*.c`),
/// the likeliest first.
const KNOWN_CC: &[&str] = &[
    "cubic",
    "bbr",
    "reno",
    "dctcp",
    "bic",
    "cdg",
    "highspeed",
    "htcp",
    "hybla",
    "illinois",
    "lp",
    "nv",
    "scalable",
    "vegas",
    "veno",
    "westwood",
    "yeah",
];

/// A congestion-control name as [`SockEntry::cc`] holds it: borrowed when
/// Linux ships a module of that name, owned otherwise.
fn cc_name(name: &str) -> Cow<'static, str> {
    match KNOWN_CC.iter().find(|&&known| known == name) {
        Some(&known) => Cow::Borrowed(known),
        None => Cow::Owned(name.to_owned()),
    }
}

/// Text per part below which [`SockTable::parse`] scans in one part.
/// The scan costs about 3.5 ns a byte and a scoped thread's spawn and
/// join about 29 µs on a 2-thread 2.1 GHz Xeon: a part this large scans
/// for some fifteen times its thread's cost.
const MIN_PART_BYTES: usize = 128 * 1024;

/// How many text-range parts a scan of `len` bytes runs in: one per
/// hardware thread while each part keeps [`MIN_PART_BYTES`].
fn parts_for(len: usize) -> usize {
    cores().min(len / MIN_PART_BYTES).max(1)
}

/// Where to cut `text` into at most `parts` ranges: the start of every
/// range after the first. Each cut is the first line at or after the next
/// `len / parts`-th byte that opens with printable non-space ASCII — a
/// socket line to [`scan`], which so never pairs an info line with a head
/// across a cut. A cut that finds none is dropped, so a scan may run
/// fewer parts than asked.
fn cuts(text: &str, parts: usize) -> Vec<usize> {
    let bytes = text.as_bytes();
    let mut cuts = Vec::new();
    for part in 1..parts {
        let from = (bytes.len() * part / parts).max(cuts.last().map_or(1, |&cut| cut + 1));
        match (from..bytes.len()).find(|&at| bytes[at - 1] == b'\n' && bytes[at].is_ascii_graphic())
        {
            Some(at) => cuts.push(at),
            None => break,
        }
    }
    cuts
}

/// What one part of a scan leaves: its rows, its defects, and whether it
/// ends on a socket line still waiting for its info line.
type Part = (Vec<SockEntry>, Vec<ParseSsError>, bool);

/// The scan behind [`SockTable::parse`] and [`SockTable::parse_lossy`],
/// in at most `parts` text-range parts. A defect goes to `sink` with its
/// part's defects, and `sink` ends the scan with it (strict) or keeps it
/// (lossy). The parts are joined in text order; a part that ends on a
/// pending socket line is followed by the defect the next part's first
/// line, a socket line, would have raised in one scan. So every part
/// count gives the one-part result.
fn scan<E: Send>(
    text: &str,
    parts: usize,
    sink: impl Fn(ParseSsError, &mut Vec<ParseSsError>) -> Result<(), E> + Sync,
) -> Result<(SockTable, Vec<ParseSsError>), E> {
    let cuts = cuts(text, parts);
    let starts = std::iter::once(0).chain(cuts.iter().copied());
    let ends = cuts.iter().copied().chain([text.len()]);
    // A row is two lines, so a part's newlines bound its rows. Room for
    // that many, but for no more than one row per 64 bytes (text that is
    // mostly newlines would ask for far more than it can fill), leaves a
    // rendered table no regrowth on the way. The first part gets room
    // for every part's rows, so the join moves the others' in without
    // growing, and every buffer is made here, on the calling thread: the
    // memory goes back to this thread's allocator, not to a worker's,
    // where later work could not reuse it.
    let ranges: Vec<&str> = starts
        .zip(ends)
        .map(|(start, end)| &text[start..end])
        .collect();
    let rooms: Vec<usize> = ranges
        .iter()
        .map(|part| {
            let lines = part.bytes().filter(|&b| b == b'\n').count() + 1;
            (lines / 2).min(part.len() / 64)
        })
        .collect();
    let all: usize = rooms.iter().sum();
    let work = ranges
        .into_iter()
        .zip(rooms)
        .enumerate()
        .map(|(at, (part, room))| (part, Vec::with_capacity(if at == 0 { all } else { room })));
    let (first, later) = in_parts(work, |(part, rows)| -> Result<Part, E> {
        let mut errors = Vec::new();
        let (rows, pending) = scan_part(part, rows, |e| sink(e, &mut errors))?;
        Ok((rows, errors, pending))
    })
    .expect("a scan has at least one part");
    let (mut entries, mut errors, mut pending) = first?;
    for part in later {
        if pending {
            sink(
                ParseSsError::new("socket line without info line"),
                &mut errors,
            )?;
        }
        let (mut rows, mut defects, ends_pending) = part?;
        entries.append(&mut rows);
        errors.append(&mut defects);
        pending = ends_pending;
    }
    if pending {
        sink(
            ParseSsError::new("trailing socket line without info line"),
            &mut errors,
        )?;
    }
    Ok((SockTable { entries }, errors))
}

/// What a socket line says.
type Head = (SockState, Ipv4Addr, Ipv4Addr);

/// One part's pass, line by line, pushing rows onto `entries`. A defect
/// goes to `sink`, which ends the part with it or keeps it, and the pass
/// goes on with the next line. Returns the rows and whether the last
/// socket line still waits for its info line.
///
/// A line without a token is blank; one whose first byte is a tab or a
/// space is an info line; any other is a socket line — also one that opens
/// with other whitespace (`\r`, U+00A0, …), as `str::starts_with` had it.
fn scan_part<E>(
    text: &str,
    mut entries: Vec<SockEntry>,
    mut sink: impl FnMut(ParseSsError) -> Result<(), E>,
) -> Result<(Vec<SockEntry>, bool), E> {
    let mut pending = None;
    let mut line = Scanner { text, pos: 0 };
    while let Some(&lead) = text.as_bytes().get(line.pos) {
        let parsed = match (line.token(), lead) {
            (None, _) => Ok(()),
            (Some(first), b'\t' | b' ') => match pending.take() {
                None => Err(ParseSsError::new("info line without socket line")),
                Some(head) => line.info(head, first).map(|entry| entries.push(entry)),
            },
            (Some(state), _) => {
                if pending.take().is_some() {
                    sink(ParseSsError::new("socket line without info line"))?;
                }
                line.socket(state).map(|head| pending = Some(head))
            }
        };
        if let Err(e) = parsed {
            sink(e)?;
        }
        // On to the next line, whatever this one still holds.
        let rest = &text.as_bytes()[line.pos..];
        line.pos += rest
            .iter()
            .position(|&b| b == b'\n')
            .map_or(rest.len(), |at| at + 1);
    }
    Ok((entries, pending.is_some()))
}

/// A cursor over the text, used one line at a time.
struct Scanner<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Scanner<'a> {
    /// The length of the whitespace character at the cursor, if that is
    /// what is there — the newline excepted, which ends the line. The
    /// ASCII members of `White_Space` are listed; of a multi-byte character
    /// `char::is_whitespace` has the say, so that tokens are
    /// `str::split_whitespace`'s and nothing else.
    fn space(&self) -> Option<usize> {
        match *self.text.as_bytes().get(self.pos)? {
            b'\t' | 0x0b | 0x0c | b'\r' | b' ' => Some(1),
            0xc0.. => {
                let c = self.text[self.pos..].chars().next()?;
                c.is_whitespace().then(|| c.len_utf8())
            }
            _ => None,
        }
    }

    /// The next token of the current line; `None`, with the cursor on the
    /// newline or at the end of the text, when the line has no more.
    /// Inlined by force: left to itself the compiler calls it nine times a
    /// socket, which costs a tenth of the parse.
    #[inline(always)]
    fn token(&mut self) -> Option<&'a str> {
        while let Some(len) = self.space() {
            self.pos += len;
        }
        let start = self.pos;
        while let Some(&b) = self.text.as_bytes().get(self.pos) {
            // Printable ASCII is all a real line holds but for its blanks.
            if !(b'!'..=b'~').contains(&b) && (b == b'\n' || self.space().is_some()) {
                break;
            }
            self.pos += 1;
        }
        (start < self.pos).then(|| &self.text[start..self.pos])
    }

    /// The rest of a socket line whose first token is `state`; tokens
    /// after the peer address are not looked at.
    fn socket(&mut self, state: &str) -> Result<Head, ParseSsError> {
        let state = state.parse()?;
        Ok((state, parse_addr(self.token())?, parse_addr(self.token())?))
    }

    /// The info line that starts with token `first`, for the socket `head`.
    fn info(&mut self, head: Head, first: &'a str) -> Result<SockEntry, ParseSsError> {
        let (state, src, dst) = head;
        let mut cwnd = None;
        let mut row = SockEntry {
            src,
            dst,
            state,
            cc: Cow::Borrowed(""),
            cwnd: 0,
            ssthresh: None,
            rtt_ms: None,
            bytes_acked: 0,
            retrans: 0,
            lost: 0,
        };
        let mut next = Some(first);
        while let Some(tok) = next {
            let colon = tok.bytes().position(|b| b == b':');
            match colon.map(|at| (&tok[..at], &tok[at + 1..])) {
                // The first bare token is the congestion-control name; later
                // bare tokens (`send 4.1Mbps`, `app_limited`…) are noise.
                None if row.cc.is_empty() => row.cc = cc_name(tok),
                Some(("cwnd", v)) => cwnd = Some(parse_int("number", v, v)?),
                Some(("ssthresh", v)) => row.ssthresh = Some(parse_int("number", v, v)?),
                // Real `ss` prints `rtt:srtt/rttvar`; the smoothed RTT is
                // before the slash.
                Some(("rtt", v)) => {
                    let srtt = v.bytes().position(|b| b == b'/').map_or(v, |at| &v[..at]);
                    row.rtt_ms = Some(srtt.parse().map_err(|e| bad("rtt", v, e))?)
                }
                Some(("bytes_acked", v)) => row.bytes_acked = parse_int("bytes_acked", v, v)?,
                // `retrans:cur/total` — the lifetime total is after the
                // slash; a bare number (older ss) is taken as the total.
                Some(("retrans", v)) => {
                    let slash = v.bytes().position(|b| b == b'/');
                    row.retrans = parse_int("retrans", v, slash.map_or(v, |at| &v[at + 1..]))?
                }
                Some(("lost", v)) => row.lost = parse_int("lost", v, v)?,
                _ => {} // unknown key: ignore, like real parsers must
            }
            next = self.token();
        }
        row.cwnd = cwnd.ok_or_else(|| ParseSsError::new("info line missing cwnd"))?;
        Ok(row)
    }
}

impl FromIterator<SockEntry> for SockTable {
    fn from_iter<I: IntoIterator<Item = SockEntry>>(iter: I) -> Self {
        SockTable {
            entries: iter.into_iter().collect(),
        }
    }
}

impl Extend<SockEntry> for SockTable {
    fn extend<I: IntoIterator<Item = SockEntry>>(&mut self, iter: I) {
        self.entries.extend(iter);
    }
}

#[cold]
fn bad(what: &str, v: &str, e: impl fmt::Display) -> ParseSsError {
    ParseSsError::new(format!("bad {what} {v:?}: {e}"))
}

/// The value of one to 19 ASCII digits, which cannot overflow.
fn digits(s: &str) -> Option<u64> {
    let digit = |n: u64, b: u8| b.is_ascii_digit().then(|| n * 10 + u64::from(b - b'0'));
    match s.len() {
        1..=19 => s.bytes().try_fold(0, digit),
        _ => None,
    }
}

/// The integer in `number`; an error names `what` and quotes the key's
/// whole value, `v`. Everything but plain digits that fit (`+7`, empty,
/// overlong, too large for `T`) is left to `str::parse`, so its verdicts
/// and messages are the only ones.
fn parse_int<T>(what: &str, v: &str, number: &str) -> Result<T, ParseSsError>
where
    T: TryFrom<u64> + FromStr<Err = std::num::ParseIntError>,
{
    let plain = digits(number).and_then(|n| T::try_from(n).ok());
    plain.map_or_else(|| number.parse().map_err(|e| bad(what, v, e)), Ok)
}

/// A plain `a.b.c.d`: octets without leading zeros, each at most 255 (the
/// checked `u8` arithmetic is that bound). The rest is likewise
/// `str::parse`'s.
fn dotted_quad(tok: &str) -> Option<Ipv4Addr> {
    let mut octets = [0u8; 4];
    let (mut filled, mut digits) = (0, 0);
    for &b in tok.as_bytes() {
        match b {
            b'0'..=b'9' if digits == 0 || octets[filled] != 0 => {
                octets[filled] = octets[filled].checked_mul(10)?.checked_add(b - b'0')?;
                digits += 1;
            }
            b'.' if digits > 0 && filled < 3 => (filled, digits) = (filled + 1, 0),
            _ => return None,
        }
    }
    (filled == 3 && digits > 0).then(|| Ipv4Addr::from(octets))
}

fn parse_addr(tok: Option<&str>) -> Result<Ipv4Addr, ParseSsError> {
    let tok = tok.ok_or_else(|| ParseSsError::new("socket line missing address"))?;
    dotted_quad(tok).map_or_else(|| tok.parse().map_err(|e| bad("address", tok, e)), Ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(dst: [u8; 4], cwnd: u32) -> SockEntry {
        SockEntry {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::from(dst),
            state: SockState::Established,
            cc: "cubic".into(),
            cwnd,
            ssthresh: Some(64),
            rtt_ms: Some(118.25),
            bytes_acked: 42_000,
            retrans: 0,
            lost: 0,
        }
    }

    #[test]
    fn render_parse_round_trip() {
        let table: SockTable = vec![entry([10, 0, 1, 1], 80), entry([10, 0, 2, 1], 12)]
            .into_iter()
            .collect();
        let text = table.render();
        assert_eq!(SockTable::parse(&text).unwrap(), table);
    }

    #[test]
    fn render_shape_is_ss_like() {
        let table: SockTable = vec![entry([10, 0, 1, 1], 80)].into_iter().collect();
        let text = table.render();
        assert!(text.starts_with("ESTAB 10.0.0.1 10.0.1.1\n"));
        assert!(text.contains("cubic cwnd:80 ssthresh:64 rtt:118.250 bytes_acked:42000"));
    }

    #[test]
    fn optional_fields_can_be_absent() {
        let mut e = entry([10, 0, 1, 1], 80);
        e.ssthresh = None;
        e.rtt_ms = None;
        let table: SockTable = vec![e].into_iter().collect();
        let parsed = SockTable::parse(&table.render()).unwrap();
        assert_eq!(parsed.entries()[0].ssthresh, None);
        assert_eq!(parsed.entries()[0].rtt_ms, None);
    }

    #[test]
    fn established_filter() {
        let mut syn = entry([10, 0, 3, 1], 10);
        syn.state = SockState::SynSent;
        let table: SockTable = vec![entry([10, 0, 1, 1], 80), syn].into_iter().collect();
        assert_eq!(table.established().count(), 1);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn parse_rejects_orphan_info_line() {
        assert!(SockTable::parse("\t cubic cwnd:10 bytes_acked:0\n").is_err());
    }

    #[test]
    fn parse_rejects_missing_cwnd() {
        let text = "ESTAB 10.0.0.1 10.0.1.1\n\t cubic bytes_acked:0\n";
        assert!(SockTable::parse(text).is_err());
    }

    #[test]
    fn parse_rejects_unknown_state() {
        let text = "WAT 10.0.0.1 10.0.1.1\n\t cubic cwnd:10 bytes_acked:0\n";
        assert!(SockTable::parse(text).is_err());
    }

    #[test]
    fn parse_ignores_unknown_keys() {
        let text = "ESTAB 10.0.0.1 10.0.1.1\n\t cubic wscale:7,7 cwnd:33 mss:1448 bytes_acked:5\n";
        let t = SockTable::parse(text).unwrap();
        assert_eq!(t.entries()[0].cwnd, 33);
        assert_eq!(t.entries()[0].bytes_acked, 5);
    }

    #[test]
    fn parse_lossy_salvages_rows_before_a_truncation() {
        // Two complete rows, then output cut off mid-socket (the info
        // line never arrived) — the shape of a timed-out `ss` write.
        let table: SockTable = vec![entry([10, 0, 1, 1], 80), entry([10, 0, 2, 1], 12)]
            .into_iter()
            .collect();
        let mut text = table.render();
        text.push_str("ESTAB 10.0.0.1 10.0.3.1\n");
        assert!(SockTable::parse(&text).is_err(), "strict parse refuses");
        let (salvaged, errors) = SockTable::parse_lossy(&text);
        assert_eq!(salvaged, table);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].to_string().contains("trailing socket line"));
    }

    #[test]
    fn parse_lossy_skips_garbage_rows_and_keeps_the_rest() {
        let text = "ESTAB 10.0.0.1 10.0.1.1\n\
                    \t cubic cwnd:40 bytes_acked:9\n\
                    WAT 10.0.0.1 10.0.2.1\n\
                    \t cubic cwnd:not_a_number bytes_acked:0\n\
                    ESTAB 10.0.0.1 10.0.3.1\n\
                    \t reno cwnd:22 bytes_acked:7\n";
        let (salvaged, errors) = SockTable::parse_lossy(text);
        assert_eq!(salvaged.len(), 2);
        assert_eq!(salvaged.entries()[0].cwnd, 40);
        assert_eq!(salvaged.entries()[1].cwnd, 22);
        // The bad state line AND its orphaned info line each count.
        assert_eq!(errors.len(), 2);
    }

    #[test]
    fn parse_lossy_agrees_with_strict_parse_on_clean_input() {
        let table: SockTable = vec![entry([10, 0, 1, 1], 80)].into_iter().collect();
        let text = table.render();
        let (salvaged, errors) = SockTable::parse_lossy(&text);
        assert!(errors.is_empty());
        assert_eq!(salvaged, SockTable::parse(&text).unwrap());
    }

    #[test]
    fn parse_empty_is_empty() {
        assert!(SockTable::parse("").unwrap().is_empty());
        assert!(SockTable::parse("\n\n").unwrap().is_empty());
    }

    #[test]
    fn retrans_and_lost_round_trip() {
        let mut e = entry([10, 0, 1, 1], 80);
        e.retrans = 17;
        e.lost = 3;
        let table: SockTable = vec![e, entry([10, 0, 2, 1], 12)].into_iter().collect();
        let text = table.render();
        assert!(text.contains("retrans:0/17 lost:3"));
        assert_eq!(SockTable::parse(&text).unwrap(), table);
        // Clean sockets omit both counters, like the real utility.
        let second_row = text.lines().nth(3).unwrap();
        assert!(!second_row.contains("retrans"));
        assert!(!second_row.contains("lost"));
    }

    // A fixture captured from real `ss -ti` output (iproute2 5.15, loss
    // on the path): the parser must pull the lifetime retrans total out
    // of the `cur/total` pair while skipping every field we don't model.
    const REAL_SS_TI: &str = "\
ESTAB 10.128.0.4 10.132.0.9
\t cubic wscale:7,7 rto:304 rtt:103.741/1.557 ato:40 mss:1408 pmtu:1500 rcvmss:536 advmss:1448 cwnd:38 ssthresh:29 bytes_sent:6561280 bytes_retrans:191488 bytes_acked:6369793 segs_out:4663 segs_in:2333 data_segs_out:4661 send 4.1Mbps lastsnd:44 lastrcv:103404 pacing_rate 4.9Mbps delivery_rate 3.3Mbps delivered:4526 busy:102120ms unacked:136 retrans:1/136 lost:9 sacked:84 reordering:27 rcv_space:14480 rcv_ssthresh:64088 notsent:1253376 minrtt:98.124
ESTAB 10.128.0.4 10.132.0.10
\t cubic wscale:7,7 rto:204 rtt:2.184/0.253 ato:40 mss:1448 cwnd:10 bytes_sent:1872 bytes_acked:1873 segs_out:14 segs_in:11 send 53Mbps delivery_rate 41.5Mbps delivered:14 app_limited busy:28ms rcv_space:14480 minrtt:1.918
";

    #[test]
    fn parses_real_ss_ti_capture() {
        let table = SockTable::parse(REAL_SS_TI).unwrap();
        assert_eq!(table.len(), 2);
        let lossy = &table.entries()[0];
        assert_eq!(lossy.cc, "cubic");
        assert_eq!(lossy.cwnd, 38);
        assert_eq!(lossy.ssthresh, Some(29));
        assert_eq!(lossy.rtt_ms, Some(103.741), "srtt, not rttvar");
        assert_eq!(lossy.retrans, 136, "lifetime total, not the in-flight 1");
        assert_eq!(lossy.lost, 9);
        assert_eq!(lossy.bytes_acked, 6_369_793);
        let clean = &table.entries()[1];
        assert_eq!(clean.cwnd, 10);
        assert_eq!((clean.retrans, clean.lost), (0, 0));
    }

    #[test]
    fn known_cc_names_are_borrowed_and_others_owned() {
        for name in KNOWN_CC {
            assert!(
                matches!(cc_name(name), Cow::Borrowed(n) if n == *name),
                "{name}"
            );
        }
        for name in ["mycc", "Cubic", "cubic2", "c\u{e9}", "x:y"] {
            assert!(
                matches!(cc_name(name), Cow::Owned(ref n) if n == name),
                "{name}"
            );
        }
        let text =
            "ESTAB 10.0.0.1 10.0.1.1\n\t bbr cwnd:10\nESTAB 10.0.0.1 10.0.2.1\n\t mycc cwnd:10\n";
        let table = SockTable::parse(text).unwrap();
        assert!(matches!(table.entries()[0].cc, Cow::Borrowed("bbr")));
        assert!(matches!(&table.entries()[1].cc, Cow::Owned(n) if n == "mycc"));
    }

    /// A row from one draw, fields present or not.
    fn drawn_row(bits: u64) -> SockEntry {
        SockEntry {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::from(0x0a40_0000 | (bits >> 40) as u32),
            state: [SockState::Established, SockState::SynSent][(bits & 1) as usize],
            cc: ["cubic", "reno", "mycc"][(bits >> 1) as usize % 3].into(),
            cwnd: (bits >> 3) as u32 % 300,
            ssthresh: (bits >> 12 & 1 == 1).then_some((bits >> 13) as u32 % 900),
            rtt_ms: (bits >> 23 & 1 == 1).then_some((bits >> 24) as f64 % 4000.0 / 8.0),
            bytes_acked: bits >> 20,
            retrans: (bits >> 30) % 3,
            lost: (bits >> 33) % 2,
        }
    }

    /// Lines no rendered table holds: bad states, addresses and values,
    /// socket and info lines without their partners, tokens alone.
    const GARBAGE: &[&str] = &[
        "WAT 10.0.0.1 10.0.1.1",
        "ESTAB 10.0.0.1 10.0.9.1",
        "ESTAB 10.0.0.1",
        "ESTAB 10.0.0.1 256.0.0.1",
        "\t cubic cwnd:x bytes_acked:1",
        "\t reno bytes_acked:7",
        " cubic cwnd:5",
        "x",
        ":",
    ];
    /// Blank and whitespace-led lines, multi-byte whitespace included. A
    /// line that opens with whitespace other than a tab or a space is a
    /// socket line to the scan, but no cut lands on it.
    const WHITE: &[&str] = &[
        "",
        " ",
        "\t \t",
        "\r",
        "\u{a0}",
        "\u{2003}\u{3000}",
        "\u{85}",
        "\x0b\x0c",
        "\u{a0}cubic cwnd:10",
        "\u{2003}ESTAB 10.0.0.1 10.0.1.1",
        "\rESTAB 10.0.0.1 10.0.1.1",
        "\x0bcubic cwnd:3",
    ];

    /// The start of the line `at` falls in.
    fn line_start(text: &str, at: usize) -> usize {
        text.as_bytes()[..at]
            .iter()
            .rposition(|&b| b == b'\n')
            .map_or(0, |nl| nl + 1)
    }

    /// Every defect strict or lossy, and the rows lossy keeps.
    fn scanned(
        text: &str,
        parts: usize,
    ) -> (
        Result<SockTable, ParseSsError>,
        (SockTable, Vec<ParseSsError>),
    ) {
        let strict = scan(text, parts, |e, _| Err(e)).map(|(table, _)| table);
        let Ok(lossy) = scan(text, parts, |e, errors| {
            errors.push(e);
            Ok::<(), Infallible>(())
        });
        (strict, lossy)
    }

    /// Defects of one part scanned alone, and whether it ends pending.
    fn part_alone(text: &str) -> (usize, bool) {
        let mut defects = 0;
        let Ok((_, pending)) = scan_part(text, Vec::new(), |_| {
            defects += 1;
            Ok::<(), Infallible>(())
        });
        (defects, pending)
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        // The scan in text-range parts against the scan in one: rendered
        // tables, truncated, with garbage lines, dropped info lines and
        // blank or whitespace-led lines put in, most of them where a cut
        // of 2–4 parts falls, scanned in 1–4 parts, strict and lossy,
        // give the same table and the same defects in the same order. A
        // case fails unless a junction followed a pending socket line, a
        // junction came right after a defect, and a cut found no socket
        // line.
        #[test]
        fn a_scan_in_parts_matches_the_scan_in_one(seed in proptest::prelude::any::<u64>()) {
            let mut state = seed;
            let mut draw = move || {
                // splitmix64
                state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                z ^ (z >> 31)
            };
            let mut seen = [false; 3]; // pending at a junction, defect at a junction, cut dropped
            for _ in 0..48 {
                let rows = draw() % 9;
                let mut text = (0..rows).map(|_| drawn_row(draw())).collect::<SockTable>().render();
                for _ in 0..1 + draw() % 3 {
                    // Where a cut of 2–4 parts would fall, or anywhere.
                    let parts = 2 + draw() as usize % 3;
                    let at = match cuts(&text, parts).as_slice() {
                        cuts if !cuts.is_empty() && draw() % 4 != 0 => cuts[draw() as usize % cuts.len()],
                        _ => line_start(&text, draw() as usize % (text.len() + 1)),
                    };
                    let pick = |from: &[&'static str], by: u64| from[by as usize % from.len()];
                    match draw() % 4 {
                        // Truncation, at the cut or a little after it.
                        0 => {
                            let mut end = (at + draw() as usize % 24).min(text.len());
                            while !text.is_char_boundary(end) {
                                end -= 1;
                            }
                            text.truncate(end);
                        }
                        1 => text.insert_str(at, &format!("{}\n", pick(GARBAGE, draw()))),
                        // The info line before the cut dropped: the part
                        // before it ends on a pending socket line.
                        2 if at > 0 => {
                            let start = line_start(&text, at - 1);
                            if matches!(text.as_bytes()[start], b'\t' | b' ') {
                                text.replace_range(start..at, "");
                            }
                        }
                        _ => text.insert_str(at, &format!("{}\n", pick(WHITE, draw()))),
                    }
                }

                let one = scanned(&text, 1);
                for parts in 2..=4 {
                    proptest::prop_assert_eq!(&scanned(&text, parts), &one, "{} parts of {:?}", parts, text);
                    let cuts = cuts(&text, parts);
                    seen[2] |= cuts.len() < parts - 1;
                    let starts = std::iter::once(0).chain(cuts.iter().copied());
                    for (start, cut) in starts.zip(cuts.iter().copied()) {
                        let last = line_start(&text, cut - 1);
                        let (defects, pending) = part_alone(&text[start..cut]);
                        seen[0] |= pending;
                        seen[1] |= defects > part_alone(&text[start..last]).0;
                    }
                }
            }
            let [pending, after_defect, dropped] = seen;
            proptest::prop_assert!(pending, "no junction after a pending socket line");
            proptest::prop_assert!(after_defect, "no junction right after a defect");
            proptest::prop_assert!(dropped, "no cut that found no socket line");
        }
    }

    #[test]
    fn a_table_long_enough_for_parts_parses_to_its_rows() {
        let mut bits = 0x5eed_u64;
        let table: SockTable = (0..)
            .map(|_| {
                bits = bits
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                drawn_row(bits)
            })
            .take(4_000)
            .collect();
        let text = table.render();
        // At least two parts on any host with two cores.
        assert!(text.len() >= 2 * MIN_PART_BYTES, "{} bytes", text.len());
        assert!(parts_for(text.len()) >= cores().min(2));
        assert_eq!(SockTable::parse(&text).unwrap(), table);
        assert_eq!(SockTable::parse_lossy(&text), (table, Vec::new()));
    }
}
