//! Warm-restart persistence: a versioned binary snapshot of the learned
//! table plus a CRC-guarded append-only journal of route deltas.
//!
//! The paper's agent learns alone and dies alone: a crashed Riptide
//! daemon restarts with an empty final-values table and relearns every
//! window at slow-start speed (§IV-A's ramp, paid again). This module is
//! the durability half of the fix — a WAL-hybrid state file in the
//! snapshot-plus-journal shape Redis made canonical:
//!
//! * **Snapshot** ([`TableSnapshot`]): the full learned state — every
//!   [`FinalEntry`]'s window, history accumulator and TTL stamp, the
//!   agent's installed-routes view, and the loss guard's breaker states
//!   ([`GuardExport`]) — encoded as one versioned, CRC-trailed block.
//!   Written on an interval and on graceful shutdown.
//! * **Journal** ([`JournalRecord`]): fixed-size install/withdraw/evict
//!   deltas appended between snapshots, each record carrying its own
//!   CRC. A `kill -9` mid-append leaves a torn tail; decoding stops at
//!   the first short or corrupt record and keeps everything before it,
//!   so a torn write truncates cleanly instead of poisoning the table.
//!
//! # Format
//!
//! All integers are little-endian; `f64`s travel as raw bit patterns
//! ([`f64::to_bits`]) so encode→decode is bit-exact; times are
//! [`SimTime`] nanoseconds as `u64`.
//!
//! ```text
//! state file  := snapshot journal-record*
//! snapshot    := "RPTS" version:u16 taken_at:u64
//!                n_entries:u32 n_installs:u32 n_guards:u32
//!                entry* install* guard* crc:u32
//! entry       := prefix window:u32 last_fresh:u64 last_updated:u64 history
//! prefix      := bits:u32 len:u8            (len <= 32 or the block is rejected)
//! history     := tag:u8 len:u16 payload     (v2: len = payload bytes)
//! payload     := ε                          (0x00 EWMA unseeded, 0x02 no
//!                                            history, 0x05 utility unseeded)
//!              | value:u64                  (0x01 EWMA seeded, 0x06 utility
//!                                            seeded)
//!              | n:u16 value:u64 * n        (0x03 windowed mean, 0x04
//!                                            percentile ring)
//! install     := prefix window:u32
//! guard       := prefix breaker:u8 penalty:u64 penalty_at:u64 clean_streak:u32
//! journal-record := tag:u8 at:u64 prefix window:u32 crc:u32   (22 bytes)
//! ```
//!
//! Version 1 files (no `len` after the history tag, tags 0x00–0x03 only)
//! still decode. The v2 length prefix is the forward-compat story: a
//! decoder meeting a history tag it does not know skips `len` bytes and
//! drops that entry alone — counted in
//! [`TableSnapshot::skipped_entries`] and surfaced by the agent as the
//! `riptide_persist_skipped_entries_total` metric — instead of rejecting
//! the whole snapshot, so a version rollback costs the unknown entries,
//! not the entire learned table.
//!
//! The snapshot CRC covers every byte from the magic through the last
//! guard record; each journal record's CRC covers its first 18 bytes.
//! CRCs are CRC-32 (IEEE 802.3), computed by the in-tree [`crc32`] with
//! slicing-by-8 (eight bytes per table step).
//!
//! # Replay rules
//!
//! [`replay`] folds journal records into a decoded snapshot in order:
//! installs upsert (last writer wins), withdrawals and evictions remove.
//! Both operations are assignments, so replaying a journal twice — or
//! replaying an already-replayed state — reaches the same final state:
//! replay is idempotent, which is what makes "snapshot, then reapply
//! whatever journal survived" safe without knowing where the snapshot
//! was cut. It costs one pass over the snapshot: the journal is folded
//! into the few keys it touches, which are then merge-joined with the
//! snapshot's key-ordered entries.
//!
//! Decoding **never panics on hostile bytes**: every length is checked
//! against the remaining input, prefix lengths above 32 and unknown
//! tags reject the block, and the worst outcome of corruption is an
//! `Err` (snapshot) or a clean truncation (journal). The agent-side
//! restore ([`RiptideAgent::restore_state`]) additionally clamps every
//! window into `[c_min, c_max]`, so even a maliciously edited state
//! file cannot install an out-of-bounds window.
//!
//! [`FinalEntry`]: crate::table::FinalEntry
//! [`GuardExport`]: crate::guard::GuardExport
//! [`RiptideAgent::restore_state`]: crate::agent::RiptideAgent::restore_state

use std::collections::BTreeMap;
use std::net::Ipv4Addr;

use riptide_linuxnet::prefix::Ipv4Prefix;
use riptide_simnet::time::SimTime;

use crate::guard::{BreakerState, GuardExport};
use crate::policy::HistoryState;

/// Snapshot magic: "RPTS".
const MAGIC: [u8; 4] = *b"RPTS";
/// Current snapshot format version. Version 1 (unprefixed history
/// encodings, tags 0x00–0x03 only) is still decoded.
pub const FORMAT_VERSION: u16 = 2;
/// Encoded size of one journal record.
pub const JOURNAL_RECORD_BYTES: usize = 22;
/// Upper bound on a windowed-mean history's retained values — far above
/// any configured window, low enough that a corrupt count cannot ask
/// for gigabytes.
const MAX_HISTORY_WINDOW: usize = 4096;

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over `bytes`.
///
/// Slicing-by-8 (Kounavis & Berry, 2005): eight 256-entry tables, built
/// at first use (the workspace is dependency-free), fold eight input
/// bytes per step instead of one; the tail goes a byte at a time through
/// the first table, which is the classic byte-wise table. A million
/// destinations make a 29 MB state file, and byte-wise the CRC was most
/// of its encode and decode.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLES: std::sync::OnceLock<[[u32; 256]; 8]> = std::sync::OnceLock::new();
    let t = TABLES.get_or_init(|| {
        let mut t = [[0u32; 256]; 8];
        for (i, slot) in t[0].iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        // Table k advances a byte through k more zero bytes.
        for k in 1..8 {
            for i in 0..256 {
                let prev = t[k - 1][i];
                t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            }
        }
        t
    });
    let at = |table: usize, word: u32, shift: u32| t[table][((word >> shift) & 0xFF) as usize];
    let mut crc = !0u32;
    let mut chunks = bytes.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = crc ^ u32::from_le_bytes(chunk[..4].try_into().unwrap());
        let hi = u32::from_le_bytes(chunk[4..].try_into().unwrap());
        crc = at(7, lo, 0)
            ^ at(6, lo, 8)
            ^ at(5, lo, 16)
            ^ at(4, lo, 24)
            ^ at(3, hi, 0)
            ^ at(2, hi, 8)
            ^ at(1, hi, 16)
            ^ at(0, hi, 24);
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ at(0, crc ^ b as u32, 0);
    }
    !crc
}

/// Why a snapshot block failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The input is shorter than the structure it declares — a torn
    /// snapshot write.
    Truncated,
    /// The leading magic is not `RPTS`.
    BadMagic,
    /// The format version is newer than this build understands.
    UnsupportedVersion(u16),
    /// The trailing CRC does not match the block's contents.
    CrcMismatch,
    /// A field holds an impossible value (prefix length over 32, an
    /// unknown tag, an oversized history window).
    Malformed(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "state block truncated"),
            PersistError::BadMagic => write!(f, "not a riptide state file"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported state version {v}"),
            PersistError::CrcMismatch => write!(f, "state block CRC mismatch"),
            PersistError::Malformed(what) => write!(f, "malformed state block: {what}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// One learned destination as persisted: the fields of
/// [`crate::table::FinalEntry`] plus its key.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotEntry {
    /// The destination key.
    pub key: Ipv4Prefix,
    /// The clamped window recorded for the destination.
    pub window: u32,
    /// The most recent fresh (pre-blend) combined value.
    pub last_fresh: f64,
    /// When the entry was last refreshed — the TTL clock, which keeps
    /// running across the restart: an entry that would have expired
    /// during the downtime is dropped at restore, not resurrected.
    pub last_updated: SimTime,
    /// The history accumulator.
    pub history: HistoryState,
}

/// A point-in-time copy of everything the agent would lose in a crash.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TableSnapshot {
    /// When the snapshot was taken.
    pub taken_at: SimTime,
    /// Learned entries, key-ordered.
    pub entries: Vec<SnapshotEntry>,
    /// The agent's installed-routes view: `(key, window)`, key-ordered.
    pub installs: Vec<(Ipv4Prefix, u32)>,
    /// Loss-guard breaker states, key-ordered.
    pub guards: Vec<GuardExport>,
    /// Decode-side diagnostic (never encoded): entries dropped because
    /// their history tag is unknown to this build — written by a newer
    /// version whose policies this one does not have. Zero on snapshots
    /// built in memory.
    pub skipped_entries: u32,
}

/// What a journal record did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalOp {
    /// A route was installed or updated with this window.
    Install {
        /// The window issued.
        window: u32,
    },
    /// The destination's route was withdrawn (TTL expiry, shutdown).
    Withdraw,
    /// The destination was evicted by the capacity bound.
    Evict,
}

/// One append-only journal delta.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JournalRecord {
    /// When the delta happened.
    pub at: SimTime,
    /// The destination key.
    pub key: Ipv4Prefix,
    /// What happened.
    pub op: JournalOp,
}

fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn put_prefix(out: &mut Vec<u8>, p: Ipv4Prefix) {
    put_u32(out, u32::from(p.network()));
    out.push(p.len());
}

/// A bounds-checked little-endian reader over the input slice.
struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        let end = self.pos.checked_add(n).ok_or(PersistError::Truncated)?;
        if end > self.bytes.len() {
            return Err(PersistError::Truncated);
        }
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, PersistError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, PersistError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, PersistError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn prefix(&mut self) -> Result<Ipv4Prefix, PersistError> {
        let bits = self.u32()?;
        let len = self.u8()?;
        if len > 32 {
            return Err(PersistError::Malformed("prefix length over 32"));
        }
        Ok(Ipv4Prefix::new(Ipv4Addr::from(bits), len))
    }
}

impl TableSnapshot {
    /// Encodes the snapshot as one CRC-trailed block.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.entries.len() * 32);
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, FORMAT_VERSION);
        put_u64(&mut out, self.taken_at.as_nanos());
        put_u32(&mut out, self.entries.len() as u32);
        put_u32(&mut out, self.installs.len() as u32);
        put_u32(&mut out, self.guards.len() as u32);
        for e in &self.entries {
            put_prefix(&mut out, e.key);
            put_u32(&mut out, e.window);
            put_u64(&mut out, e.last_fresh.to_bits());
            put_u64(&mut out, e.last_updated.as_nanos());
            // v2: every history is `tag len:u16 payload`, so a decoder
            // can skip payloads whose tag it does not know.
            match &e.history {
                HistoryState::Ewma { value: None } => {
                    out.push(0x00);
                    put_u16(&mut out, 0);
                }
                HistoryState::Ewma { value: Some(v) } => {
                    out.push(0x01);
                    put_u16(&mut out, 8);
                    put_u64(&mut out, v.to_bits());
                }
                HistoryState::None => {
                    out.push(0x02);
                    put_u16(&mut out, 0);
                }
                HistoryState::Window { values } => {
                    out.push(0x03);
                    let n = values.len().min(MAX_HISTORY_WINDOW);
                    put_u16(&mut out, (2 + 8 * n) as u16);
                    put_u16(&mut out, n as u16);
                    for v in values.iter().take(n) {
                        put_u64(&mut out, v.to_bits());
                    }
                }
                HistoryState::Ring { values } => {
                    out.push(0x04);
                    let n = values.len().min(MAX_HISTORY_WINDOW);
                    put_u16(&mut out, (2 + 8 * n) as u16);
                    put_u16(&mut out, n as u16);
                    for v in values.iter().take(n) {
                        put_u64(&mut out, v.to_bits());
                    }
                }
                HistoryState::Utility { value: None } => {
                    out.push(0x05);
                    put_u16(&mut out, 0);
                }
                HistoryState::Utility { value: Some(v) } => {
                    out.push(0x06);
                    put_u16(&mut out, 8);
                    put_u64(&mut out, v.to_bits());
                }
            }
        }
        for &(key, window) in &self.installs {
            put_prefix(&mut out, key);
            put_u32(&mut out, window);
        }
        for g in &self.guards {
            put_prefix(&mut out, g.key);
            out.push(match g.breaker {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            });
            put_u64(&mut out, g.penalty.to_bits());
            put_u64(&mut out, g.penalty_at.as_nanos());
            put_u32(&mut out, g.clean_streak);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    /// Decodes one snapshot block from the front of `bytes`, returning
    /// the snapshot and the number of bytes it consumed (the journal
    /// starts right after).
    ///
    /// # Errors
    ///
    /// Returns [`PersistError`] on truncation, a bad magic or version,
    /// a CRC mismatch, or any impossible field — never panics, whatever
    /// the input.
    pub fn decode(bytes: &[u8]) -> Result<(TableSnapshot, usize), PersistError> {
        let mut r = Reader::new(bytes);
        if r.take(4)? != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = r.u16()?;
        if version != 1 && version != FORMAT_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let taken_at = SimTime::from_nanos(r.u64()?);
        let n_entries = r.u32()? as usize;
        let n_installs = r.u32()? as usize;
        let n_guards = r.u32()? as usize;
        // Cheap plausibility bound before allocating: every declared
        // record costs at least 5 bytes of input.
        let min_needed = n_entries
            .saturating_add(n_installs)
            .saturating_add(n_guards)
            .saturating_mul(5);
        if min_needed > bytes.len() {
            return Err(PersistError::Truncated);
        }
        let mut entries = Vec::with_capacity(n_entries);
        let mut skipped_entries: u32 = 0;
        for _ in 0..n_entries {
            let key = r.prefix()?;
            let window = r.u32()?;
            let last_fresh = f64::from_bits(r.u64()?);
            let last_updated = SimTime::from_nanos(r.u64()?);
            let tag = r.u8()?;
            let history = if version == 1 {
                // v1: no length prefix; the tag dictates the payload, so
                // an unknown tag leaves the reader unalignable and the
                // whole block must be rejected.
                match tag {
                    0x00 => HistoryState::Ewma { value: None },
                    0x01 => HistoryState::Ewma {
                        value: Some(f64::from_bits(r.u64()?)),
                    },
                    0x02 => HistoryState::None,
                    0x03 => {
                        let n = r.u16()? as usize;
                        if n > MAX_HISTORY_WINDOW {
                            return Err(PersistError::Malformed("history window too large"));
                        }
                        let mut values = std::collections::VecDeque::with_capacity(n);
                        for _ in 0..n {
                            values.push_back(f64::from_bits(r.u64()?));
                        }
                        HistoryState::Window {
                            values: Box::new(values),
                        }
                    }
                    _ => return Err(PersistError::Malformed("unknown history tag")),
                }
            } else {
                // v2: length-prefixed payload. Known tags must consume
                // the payload exactly; an unknown tag (a policy from a
                // newer build) skips cleanly and drops only this entry.
                let len = r.u16()? as usize;
                let payload = r.take(len)?;
                let mut p = Reader::new(payload);
                let history = match tag {
                    0x00 => Some(HistoryState::Ewma { value: None }),
                    0x01 => Some(HistoryState::Ewma {
                        value: Some(f64::from_bits(p.u64()?)),
                    }),
                    0x02 => Some(HistoryState::None),
                    0x03 | 0x04 => {
                        let n = p.u16()? as usize;
                        if n > MAX_HISTORY_WINDOW {
                            return Err(PersistError::Malformed("history window too large"));
                        }
                        let mut values = std::collections::VecDeque::with_capacity(n);
                        for _ in 0..n {
                            values.push_back(f64::from_bits(p.u64()?));
                        }
                        let values = Box::new(values);
                        Some(if tag == 0x03 {
                            HistoryState::Window { values }
                        } else {
                            HistoryState::Ring { values }
                        })
                    }
                    0x05 => Some(HistoryState::Utility { value: None }),
                    0x06 => Some(HistoryState::Utility {
                        value: Some(f64::from_bits(p.u64()?)),
                    }),
                    _ => None,
                };
                match history {
                    Some(history) => {
                        if p.pos != payload.len() {
                            return Err(PersistError::Malformed("history payload length mismatch"));
                        }
                        history
                    }
                    None => {
                        skipped_entries += 1;
                        continue;
                    }
                }
            };
            entries.push(SnapshotEntry {
                key,
                window,
                last_fresh,
                last_updated,
                history,
            });
        }
        let mut installs = Vec::with_capacity(n_installs);
        for _ in 0..n_installs {
            let key = r.prefix()?;
            installs.push((key, r.u32()?));
        }
        let mut guards = Vec::with_capacity(n_guards);
        for _ in 0..n_guards {
            let key = r.prefix()?;
            let breaker = match r.u8()? {
                0 => BreakerState::Closed,
                1 => BreakerState::Open,
                2 => BreakerState::HalfOpen,
                _ => return Err(PersistError::Malformed("unknown breaker state")),
            };
            let penalty = f64::from_bits(r.u64()?);
            let penalty_at = SimTime::from_nanos(r.u64()?);
            let clean_streak = r.u32()?;
            guards.push(GuardExport {
                key,
                breaker,
                penalty,
                penalty_at,
                clean_streak,
            });
        }
        let body_len = r.pos;
        let want = r.u32()?;
        if crc32(&bytes[..body_len]) != want {
            return Err(PersistError::CrcMismatch);
        }
        Ok((
            TableSnapshot {
                taken_at,
                entries,
                installs,
                guards,
                skipped_entries,
            },
            body_len + 4,
        ))
    }
}

impl JournalRecord {
    /// Appends the record's fixed-size CRC-guarded encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let start = out.len();
        let (tag, window) = match self.op {
            JournalOp::Install { window } => (1u8, window),
            JournalOp::Withdraw => (2, 0),
            JournalOp::Evict => (3, 0),
        };
        out.push(tag);
        put_u64(out, self.at.as_nanos());
        put_prefix(out, self.key);
        put_u32(out, window);
        let crc = crc32(&out[start..]);
        put_u32(out, crc);
        debug_assert_eq!(out.len() - start, JOURNAL_RECORD_BYTES);
    }
}

/// Decodes journal records until the input runs dry, a record is torn
/// (fewer than [`JOURNAL_RECORD_BYTES`] remain) or a record fails its
/// CRC or field checks. Returns the records that decoded cleanly and
/// whether a torn/corrupt tail was dropped — the clean-truncation
/// semantics a `kill -9` mid-append demands.
pub fn decode_journal(bytes: &[u8]) -> (Vec<JournalRecord>, bool) {
    let mut records = Vec::new();
    let mut pos = 0;
    while bytes.len() - pos >= JOURNAL_RECORD_BYTES {
        let rec = &bytes[pos..pos + JOURNAL_RECORD_BYTES];
        let body = &rec[..JOURNAL_RECORD_BYTES - 4];
        let want = u32::from_le_bytes(rec[JOURNAL_RECORD_BYTES - 4..].try_into().unwrap());
        if crc32(body) != want {
            return (records, true);
        }
        let mut r = Reader::new(body);
        let parsed = (|| -> Result<JournalRecord, PersistError> {
            let tag = r.u8()?;
            let at = SimTime::from_nanos(r.u64()?);
            let key = r.prefix()?;
            let window = r.u32()?;
            let op = match tag {
                1 => JournalOp::Install { window },
                2 => JournalOp::Withdraw,
                3 => JournalOp::Evict,
                _ => return Err(PersistError::Malformed("unknown journal tag")),
            };
            Ok(JournalRecord { at, key, op })
        })();
        match parsed {
            Ok(record) => records.push(record),
            // CRC held but a field is impossible (e.g. a bit flip that
            // happened to preserve the checksum cannot; an unknown tag
            // from a future version can): stop cleanly here too.
            Err(_) => return (records, true),
        }
        pos += JOURNAL_RECORD_BYTES;
    }
    (records, pos < bytes.len())
}

/// A decoded state file: the snapshot plus whatever journal survived.
#[derive(Debug, Clone, PartialEq)]
pub struct StateFile {
    /// The snapshot block.
    pub snapshot: TableSnapshot,
    /// Journal records appended after the snapshot, oldest first.
    pub journal: Vec<JournalRecord>,
    /// Whether a torn or corrupt journal tail was dropped.
    pub torn_tail: bool,
}

/// Encodes a snapshot followed by journal records — the full state-file
/// image an atomic rewrite installs.
pub fn encode_state(snapshot: &TableSnapshot, journal: &[JournalRecord]) -> Vec<u8> {
    let mut out = snapshot.encode();
    for rec in journal {
        rec.encode_into(&mut out);
    }
    out
}

/// Decodes a state file: the snapshot block, then journal records to
/// the (possibly torn) end of input.
///
/// # Errors
///
/// Returns [`PersistError`] when the snapshot block itself is damaged —
/// the caller starts empty in that case. Journal damage is not an
/// error; the journal just truncates at the first bad record.
pub fn decode_state(bytes: &[u8]) -> Result<StateFile, PersistError> {
    let (snapshot, used) = TableSnapshot::decode(bytes)?;
    let (journal, torn_tail) = decode_journal(&bytes[used..]);
    Ok(StateFile {
        snapshot,
        journal,
        torn_tail,
    })
}

/// Folds `journal` into `snapshot`, oldest record first: installs
/// upsert the entry and installed view (last writer wins), withdrawals
/// and evictions remove both. Entries created by the journal carry an
/// unseeded history (the agent's restore re-seeds to its configured
/// strategy). Replay is idempotent: applying the same journal again
/// reaches the same state.
///
/// The output is key-ordered with one item per key. A snapshot built in
/// memory or decoded from an agent's file already is; any other is put
/// in key order first, the last of equal keys winning.
pub fn replay(snapshot: &TableSnapshot, journal: &[JournalRecord]) -> TableSnapshot {
    let mut fates: BTreeMap<Ipv4Prefix, Fate> = BTreeMap::new();
    let mut taken_at = snapshot.taken_at;
    for rec in journal {
        taken_at = taken_at.max(rec.at);
        let fate = match rec.op {
            JournalOp::Install { window } => {
                let (fresh, over_snapshot) = match fates.get(&rec.key) {
                    // The key's first record patches the snapshot's
                    // entry, or creates one if there is none.
                    None => (window as f64, true),
                    Some(Fate::Removed) => (window as f64, false),
                    // A later install moves only the window and stamp.
                    Some(&Fate::Installed {
                        fresh,
                        over_snapshot,
                        ..
                    }) => (fresh, over_snapshot),
                };
                Fate::Installed {
                    window,
                    at: rec.at,
                    fresh,
                    over_snapshot,
                }
            }
            JournalOp::Withdraw | JournalOp::Evict => Fate::Removed,
        };
        fates.insert(rec.key, fate);
    }
    let entries = merge_fates(
        &snapshot.entries,
        |e| e.key,
        &fates,
        |key, entry, fate| {
            let Fate::Installed {
                window,
                at,
                fresh,
                over_snapshot,
            } = fate
            else {
                return None;
            };
            Some(match entry.filter(|_| over_snapshot) {
                Some(entry) => SnapshotEntry {
                    window,
                    last_updated: at,
                    ..entry.clone()
                },
                None => SnapshotEntry {
                    key,
                    window,
                    last_fresh: fresh,
                    last_updated: at,
                    history: HistoryState::Ewma { value: None },
                },
            })
        },
    );
    let installs = merge_fates(
        &snapshot.installs,
        |i| i.0,
        &fates,
        |key, _, fate| match fate {
            Fate::Installed { window, .. } => Some((key, window)),
            Fate::Removed => None,
        },
    );
    TableSnapshot {
        taken_at,
        entries,
        installs,
        guards: snapshot.guards.clone(),
        skipped_entries: snapshot.skipped_entries,
    }
}

/// What a journal leaves of one key it touches.
#[derive(Debug, Clone, Copy)]
enum Fate {
    /// Its last record withdrew or evicted it.
    Removed,
    /// Its last record installed `window` at `at`. With `over_snapshot`
    /// (no removal came first) that patches the snapshot's entry; without
    /// one, or after a removal, the entry is new and its `last_fresh` is
    /// `fresh`, the window of the install that created it.
    Installed {
        window: u32,
        at: SimTime,
        fresh: f64,
        over_snapshot: bool,
    },
}

/// One key-ordered pass over `base` and the journal's `fates`: a key
/// the journal did not touch keeps its `base` item, a touched one becomes
/// what `apply` makes of its fate and its `base` item, if any (`None`
/// drops it). `base` is first put in key order (stable, so on an ordered
/// slice it is one comparison per item), and of equal keys only the
/// last counts, as collecting it into a map would keep.
fn merge_fates<T: Clone>(
    base: &[T],
    key: impl Fn(&T) -> Ipv4Prefix,
    fates: &BTreeMap<Ipv4Prefix, Fate>,
    apply: impl Fn(Ipv4Prefix, Option<&T>, Fate) -> Option<T>,
) -> Vec<T> {
    let mut ordered: Vec<&T> = base.iter().collect();
    ordered.sort_by_key(|item| key(item));
    let mut base = ordered
        .chunk_by(|a, b| key(a) == key(b))
        .map(|run| run[run.len() - 1])
        .peekable();
    let mut fates = fates.iter().peekable();
    let mut out = Vec::with_capacity(ordered.len() + fates.len());
    loop {
        let next_base = base.peek().map(|item| key(item));
        let touched = fates
            .next_if(|(k, _)| next_base.is_none_or(|b| **k <= b))
            .map(|(k, fate)| (*k, *fate));
        match touched {
            Some((k, fate)) => {
                let item = base.next_if(|item| key(item) == k);
                out.extend(apply(k, item, fate));
            }
            None => match base.next() {
                Some(item) => out.push(item.clone()),
                None => break,
            },
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8) -> Ipv4Prefix {
        Ipv4Prefix::host(Ipv4Addr::new(10, 0, 0, n))
    }

    fn sample_snapshot() -> TableSnapshot {
        TableSnapshot {
            taken_at: SimTime::from_secs(100),
            entries: vec![
                SnapshotEntry {
                    key: key(1),
                    window: 80,
                    last_fresh: 81.5,
                    last_updated: SimTime::from_secs(90),
                    history: HistoryState::Ewma { value: Some(79.25) },
                },
                SnapshotEntry {
                    key: key(2),
                    window: 40,
                    last_fresh: 40.0,
                    last_updated: SimTime::from_secs(99),
                    history: HistoryState::Window {
                        values: Box::new([38.0, 41.0, 40.0].into_iter().collect()),
                    },
                },
                SnapshotEntry {
                    key: key(3),
                    window: 12,
                    last_fresh: 12.0,
                    last_updated: SimTime::from_secs(98),
                    history: HistoryState::None,
                },
            ],
            installs: vec![(key(1), 80), (key(2), 40)],
            guards: vec![GuardExport {
                key: key(1),
                breaker: BreakerState::Open,
                penalty: 1000.0,
                penalty_at: SimTime::from_secs(95),
                clean_streak: 0,
            }],
            skipped_entries: 0,
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The classic IEEE 802.3 check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The reference: the byte-at-a-time table CRC that slicing-by-8
    /// replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut crc = i as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
            }
            *slot = crc;
        }
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_one() {
        // splitmix64 bytes: deterministic, and every byte value occurs.
        let mut state = 0x5EED_u64;
        let mut bytes = |n: usize| -> Vec<u8> {
            (0..n)
                .map(|_| {
                    state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                    let mut z = state;
                    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                    (z ^ (z >> 31)) as u8
                })
                .collect()
        };
        // Every tail length around the 8-byte step, from every start
        // offset of one buffer (so every alignment of the slice).
        let buf = bytes(8 + 64);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "start {start} len {len}"
                );
            }
        }
        for n in [100, 1_000, 4_093, 65_536] {
            let buf = bytes(n);
            assert_eq!(crc32(&buf), crc32_bytewise(&buf), "random buffer of {n}");
        }
    }

    #[test]
    fn per_destination_entries_stay_small() {
        // A table, a snapshot and its replayed image each hold one of
        // these per destination: at a million destinations every byte
        // of them is a megabyte per copy. A learned entry's breaker slot
        // is one pointer.
        assert_eq!(std::mem::size_of::<HistoryState>(), 24);
        assert_eq!(std::mem::size_of::<crate::table::FinalEntry>(), 56);
        assert_eq!(std::mem::size_of::<SnapshotEntry>(), 56);
    }

    #[test]
    fn snapshot_round_trips_bit_exact() {
        let snap = sample_snapshot();
        let bytes = snap.encode();
        let (decoded, used) = TableSnapshot::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, snap);
    }

    #[test]
    fn empty_snapshot_round_trips() {
        let snap = TableSnapshot::default();
        let (decoded, _) = TableSnapshot::decode(&snap.encode()).unwrap();
        assert_eq!(decoded, snap);
    }

    #[test]
    fn truncated_snapshot_is_rejected_not_panicking() {
        let bytes = sample_snapshot().encode();
        for cut in 0..bytes.len() {
            let err = TableSnapshot::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, PersistError::Truncated | PersistError::CrcMismatch),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn bit_flips_are_rejected_not_panicking() {
        let bytes = sample_snapshot().encode();
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            assert!(
                TableSnapshot::decode(&corrupt).is_err(),
                "flip at byte {i} went undetected"
            );
        }
    }

    #[test]
    fn bad_magic_and_version_are_distinct_errors() {
        let mut bytes = sample_snapshot().encode();
        bytes[0] = b'X';
        assert_eq!(
            TableSnapshot::decode(&bytes).unwrap_err(),
            PersistError::BadMagic
        );
        let mut bytes = sample_snapshot().encode();
        bytes[4] = 0xFF; // version low byte
        assert!(matches!(
            TableSnapshot::decode(&bytes).unwrap_err(),
            // The CRC catches the edit first only if we recompute it;
            // here the CRC no longer matches, either error is a rejection.
            PersistError::UnsupportedVersion(_) | PersistError::CrcMismatch
        ));
    }

    #[test]
    fn huge_declared_counts_do_not_allocate() {
        // A snapshot header claiming 4 billion entries against a
        // 30-byte input must fail fast on the plausibility bound.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&MAGIC);
        put_u16(&mut bytes, FORMAT_VERSION);
        put_u64(&mut bytes, 0);
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, u32::MAX);
        put_u32(&mut bytes, u32::MAX);
        assert_eq!(
            TableSnapshot::decode(&bytes).unwrap_err(),
            PersistError::Truncated
        );
    }

    #[test]
    fn journal_round_trips_and_truncates_cleanly() {
        let records = vec![
            JournalRecord {
                at: SimTime::from_secs(101),
                key: key(4),
                op: JournalOp::Install { window: 64 },
            },
            JournalRecord {
                at: SimTime::from_secs(102),
                key: key(1),
                op: JournalOp::Withdraw,
            },
            JournalRecord {
                at: SimTime::from_secs(103),
                key: key(2),
                op: JournalOp::Evict,
            },
        ];
        let mut bytes = Vec::new();
        for r in &records {
            r.encode_into(&mut bytes);
        }
        assert_eq!(bytes.len(), 3 * JOURNAL_RECORD_BYTES);
        let (decoded, torn) = decode_journal(&bytes);
        assert_eq!(decoded, records);
        assert!(!torn);

        // A torn tail: the last record loses its final 5 bytes. The
        // first two records survive, the tail is flagged.
        let (decoded, torn) = decode_journal(&bytes[..bytes.len() - 5]);
        assert_eq!(decoded, records[..2]);
        assert!(torn);

        // A bit flip mid-journal stops replay at the damaged record.
        let mut corrupt = bytes.clone();
        corrupt[JOURNAL_RECORD_BYTES + 3] ^= 0x01;
        let (decoded, torn) = decode_journal(&corrupt);
        assert_eq!(decoded, records[..1]);
        assert!(torn);
    }

    #[test]
    fn state_file_round_trips_with_journal() {
        let snap = sample_snapshot();
        let journal = vec![JournalRecord {
            at: SimTime::from_secs(105),
            key: key(9),
            op: JournalOp::Install { window: 33 },
        }];
        let bytes = encode_state(&snap, &journal);
        let state = decode_state(&bytes).unwrap();
        assert_eq!(state.snapshot, snap);
        assert_eq!(state.journal, journal);
        assert!(!state.torn_tail);
    }

    #[test]
    fn replay_applies_installs_withdrawals_and_evictions() {
        let snap = sample_snapshot();
        let journal = vec![
            // Update an existing destination.
            JournalRecord {
                at: SimTime::from_secs(101),
                key: key(1),
                op: JournalOp::Install { window: 90 },
            },
            // Install a brand-new one.
            JournalRecord {
                at: SimTime::from_secs(102),
                key: key(7),
                op: JournalOp::Install { window: 25 },
            },
            // Withdraw and evict.
            JournalRecord {
                at: SimTime::from_secs(103),
                key: key(2),
                op: JournalOp::Withdraw,
            },
            JournalRecord {
                at: SimTime::from_secs(104),
                key: key(3),
                op: JournalOp::Evict,
            },
        ];
        let replayed = replay(&snap, &journal);
        assert_eq!(replayed.taken_at, SimTime::from_secs(104));
        let keys: Vec<Ipv4Prefix> = replayed.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![key(1), key(7)]);
        assert_eq!(replayed.entries[0].window, 90);
        assert_eq!(
            replayed.entries[0].last_updated,
            SimTime::from_secs(101),
            "install refreshes the TTL stamp"
        );
        assert_eq!(replayed.installs, vec![(key(1), 90), (key(7), 25)]);
        assert_eq!(replayed.guards, snap.guards, "guard state rides along");
    }

    #[test]
    fn replay_is_idempotent() {
        let snap = sample_snapshot();
        let journal = vec![
            JournalRecord {
                at: SimTime::from_secs(101),
                key: key(1),
                op: JournalOp::Install { window: 55 },
            },
            JournalRecord {
                at: SimTime::from_secs(102),
                key: key(3),
                op: JournalOp::Evict,
            },
        ];
        let once = replay(&snap, &journal);
        let twice = replay(&once, &journal);
        assert_eq!(once, twice);
    }

    #[test]
    fn last_writer_wins_on_repeated_installs() {
        let snap = TableSnapshot::default();
        let journal = vec![
            JournalRecord {
                at: SimTime::from_secs(1),
                key: key(5),
                op: JournalOp::Install { window: 20 },
            },
            JournalRecord {
                at: SimTime::from_secs(2),
                key: key(5),
                op: JournalOp::Install { window: 70 },
            },
        ];
        let replayed = replay(&snap, &journal);
        assert_eq!(replayed.installs, vec![(key(5), 70)]);
        assert_eq!(replayed.entries[0].window, 70);
    }

    /// Re-encodes a snapshot in the v1 format (no history length
    /// prefixes) — old state files a v2 decoder must still read.
    fn encode_v1(snap: &TableSnapshot) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        put_u16(&mut out, 1);
        put_u64(&mut out, snap.taken_at.as_nanos());
        put_u32(&mut out, snap.entries.len() as u32);
        put_u32(&mut out, snap.installs.len() as u32);
        put_u32(&mut out, snap.guards.len() as u32);
        for e in &snap.entries {
            put_prefix(&mut out, e.key);
            put_u32(&mut out, e.window);
            put_u64(&mut out, e.last_fresh.to_bits());
            put_u64(&mut out, e.last_updated.as_nanos());
            match &e.history {
                HistoryState::Ewma { value: None } => out.push(0x00),
                HistoryState::Ewma { value: Some(v) } => {
                    out.push(0x01);
                    put_u64(&mut out, v.to_bits());
                }
                HistoryState::None => out.push(0x02),
                HistoryState::Window { values } => {
                    out.push(0x03);
                    put_u16(&mut out, values.len() as u16);
                    for v in values.iter() {
                        put_u64(&mut out, v.to_bits());
                    }
                }
                other => panic!("v1 cannot encode {other:?}"),
            }
        }
        for &(key, window) in &snap.installs {
            put_prefix(&mut out, key);
            put_u32(&mut out, window);
        }
        for g in &snap.guards {
            put_prefix(&mut out, g.key);
            out.push(match g.breaker {
                BreakerState::Closed => 0,
                BreakerState::Open => 1,
                BreakerState::HalfOpen => 2,
            });
            put_u64(&mut out, g.penalty.to_bits());
            put_u64(&mut out, g.penalty_at.as_nanos());
            put_u32(&mut out, g.clean_streak);
        }
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        out
    }

    #[test]
    fn v1_snapshots_still_decode() {
        let snap = sample_snapshot();
        let bytes = encode_v1(&snap);
        let (decoded, used) = TableSnapshot::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, snap);
    }

    #[test]
    fn v1_unknown_history_tag_still_rejects_the_block() {
        // Without a length prefix an unknown tag is unalignable; the v1
        // path must keep its original whole-block rejection.
        let snap = TableSnapshot {
            entries: vec![SnapshotEntry {
                key: key(1),
                window: 80,
                last_fresh: 80.0,
                last_updated: SimTime::from_secs(90),
                history: HistoryState::None,
            }],
            ..TableSnapshot::default()
        };
        let mut bytes = encode_v1(&snap);
        let tag_pos = bytes.len() - 4 - 1; // tag is the last body byte
        assert_eq!(bytes[tag_pos], 0x02);
        bytes[tag_pos] = 0x7F;
        let crc = crc32(&bytes[..bytes.len() - 4]);
        let end = bytes.len();
        bytes[end - 4..].copy_from_slice(&crc.to_le_bytes());
        assert_eq!(
            TableSnapshot::decode(&bytes).unwrap_err(),
            PersistError::Malformed("unknown history tag")
        );
    }

    #[test]
    fn new_history_variants_round_trip() {
        let snap = TableSnapshot {
            taken_at: SimTime::from_secs(50),
            entries: vec![
                SnapshotEntry {
                    key: key(4),
                    window: 30,
                    last_fresh: 31.0,
                    last_updated: SimTime::from_secs(45),
                    history: HistoryState::Ring {
                        values: Box::new([28.0, 33.0, 30.5].into_iter().collect()),
                    },
                },
                SnapshotEntry {
                    key: key(5),
                    window: 60,
                    last_fresh: 61.0,
                    last_updated: SimTime::from_secs(46),
                    history: HistoryState::Utility { value: Some(58.75) },
                },
                SnapshotEntry {
                    key: key(6),
                    window: 20,
                    last_fresh: 20.0,
                    last_updated: SimTime::from_secs(47),
                    history: HistoryState::Utility { value: None },
                },
            ],
            ..TableSnapshot::default()
        };
        let bytes = snap.encode();
        let (decoded, used) = TableSnapshot::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded, snap);
    }

    #[test]
    fn unknown_v2_history_tag_skips_only_that_entry() {
        // Encode three entries, rewrite the middle one's tag to a value
        // no build knows, and fix up the CRC: the other two entries must
        // survive and the skip must be counted.
        let snap = sample_snapshot();
        let mut bytes = snap.encode();
        // Locate the second entry's tag: walk the first two entries.
        let entry_head = 5 + 4 + 8 + 8; // prefix + window + fresh + updated
        let mut pos = 4 + 2 + 8 + 12; // magic version taken_at counts
        pos += entry_head; // first entry fields
        assert_eq!(bytes[pos], 0x01, "first entry: seeded EWMA");
        pos += 1 + 2 + 8; // tag len payload
        pos += entry_head; // second entry fields
        assert_eq!(bytes[pos], 0x03, "second entry: windowed mean");
        bytes[pos] = 0x7F;
        let body_len = bytes.len() - 4;
        let crc = crc32(&bytes[..body_len]);
        bytes[body_len..].copy_from_slice(&crc.to_le_bytes());

        let (decoded, used) = TableSnapshot::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(decoded.skipped_entries, 1);
        let keys: Vec<Ipv4Prefix> = decoded.entries.iter().map(|e| e.key).collect();
        assert_eq!(keys, vec![key(1), key(3)], "only the tagged entry drops");
        assert_eq!(decoded.installs, snap.installs);
        assert_eq!(decoded.guards, snap.guards);
    }

    #[test]
    fn prefix_length_over_32_is_rejected() {
        // Hand-build a snapshot whose single install has len = 40, with
        // a valid CRC — the field check itself must reject it.
        let mut body = Vec::new();
        body.extend_from_slice(&MAGIC);
        put_u16(&mut body, FORMAT_VERSION);
        put_u64(&mut body, 0);
        put_u32(&mut body, 0);
        put_u32(&mut body, 1);
        put_u32(&mut body, 0);
        put_u32(&mut body, 0x0A00_0001);
        body.push(40); // impossible length
        put_u32(&mut body, 80);
        let crc = crc32(&body);
        put_u32(&mut body, crc);
        assert_eq!(
            TableSnapshot::decode(&body).unwrap_err(),
            PersistError::Malformed("prefix length over 32")
        );
    }
}
