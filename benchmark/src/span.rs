//! Spans recorded from outside the library crates: the benchmark opens
//! one around each call into a layer's public function, keeps them in
//! memory, and writes them out when the run ends.
//!
//! A span is usually one call. Where a layer is entered thousands of
//! times per cycle (a route install), the timing wrapper sums the calls
//! and hands over one *aggregated* span per cycle: `calls` says how many
//! it stands for and `busy_ns` is their summed duration, so self-time
//! arithmetic stays exact while the trace stays small.

use std::io::Write;
use std::time::Instant;

use crate::json::Json;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.agent.tick`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// The cycle or shard the span belongs to; spans of one cycle share it.
    pub id: u64,
    /// Calls this span stands for (1 unless aggregated).
    pub calls: u64,
    /// Time inside the layer: `end − start` unless aggregated.
    pub busy_ns: u64,
}

/// Handle to a span that is still open.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

/// The in-memory span store. A disabled tracer records nothing, so the
/// untraced pass runs the same code with one branch per boundary.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    /// A tracer that records.
    pub fn on() -> Self {
        Tracer {
            enabled: true,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// A tracer that ignores everything.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::on()
        }
    }

    /// Whether spans are being recorded — the switch for the timing
    /// wrappers, which exist only in the traced pass.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds from the epoch to `at`.
    pub fn stamp(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span under whichever span is currently open.
    pub fn open(&mut self, name: &'static str, id: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let index = self.spans.len();
        let now = self.stamp(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            id,
            calls: 1,
            busy_ns: 0,
        });
        self.stack.push(index);
        Open(Some(index))
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn close(&mut self, open: Open) {
        let Some(index) = open.0 else { return };
        let now = self.stamp(Instant::now());
        assert_eq!(self.stack.pop(), Some(index), "spans close innermost first");
        let span = &mut self.spans[index];
        span.end_ns = now;
        span.busy_ns = now - span.start_ns;
    }

    /// Times `f` as one span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name, id);
        let out = f();
        self.close(open);
        out
    }

    /// Records a span a timing wrapper measured while `parent` was open:
    /// `calls` calls between `first` and `last` that were busy for
    /// `busy_ns` in total.
    pub fn child(
        &mut self,
        parent: Open,
        name: &'static str,
        (first, last): (Instant, Instant),
        calls: u64,
        busy_ns: u64,
    ) {
        let Some(parent_index) = parent.0 else { return };
        let id = self.spans[parent_index].id;
        self.spans.push(Span {
            name,
            start_ns: self.stamp(first),
            end_ns: self.stamp(last),
            parent: Some(parent_index),
            id,
            calls,
            busy_ns,
        });
    }

    /// All spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed busy time of every span called `name`.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.busy_ns).sum()
    }

    /// Summed call count of every span called `name`.
    pub fn calls(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.calls).sum()
    }

    /// Busy time of every span called `name`, one value per span.
    pub fn each_busy_ns(&self, name: &str) -> Vec<u64> {
        self.named(name).map(|s| s.busy_ns).collect()
    }

    /// Summed self time of every span called `name`: its busy time minus
    /// the busy time of the spans it directly caused.
    pub fn self_ns(&self, name: &str) -> u64 {
        let mut child_busy = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_busy[parent] += span.busy_ns;
            }
        }
        self.spans
            .iter()
            .zip(&child_busy)
            .filter(|(s, _)| s.name == name)
            .map(|(s, &children)| s.busy_ns.saturating_sub(children))
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Writes one JSON object per span, one per line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error that stopped the write, flush included.
    pub fn write_jsonl(&self, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        for (index, span) in self.spans.iter().enumerate() {
            let line = Json::obj([
                ("span", Json::Num(index as f64)),
                ("name", Json::str(span.name)),
                ("start_ns", Json::Num(span.start_ns as f64)),
                ("end_ns", Json::Num(span.end_ns as f64)),
                (
                    "parent",
                    span.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("id", Json::Num(span.id as f64)),
                ("calls", Json::Num(span.calls as f64)),
                ("busy_ns", Json::Num(span.busy_ns as f64)),
            ]);
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// A tracer with hand-placed spans, so the arithmetic is exact.
    fn fixture() -> Tracer {
        let mut t = Tracer::on();
        let span = |name, start, end, parent, calls, busy| Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 7,
            calls,
            busy_ns: busy,
        };
        t.spans = vec![
            span("cycle", 0, 1_000, None, 1, 1_000),
            span("tick", 100, 900, Some(0), 1, 800),
            span("observe", 110, 210, Some(1), 1, 100),
            // 40 installs of 5 ns each, spread over the tick.
            span("install", 300, 850, Some(1), 40, 200),
            span("tick", 2_000, 2_500, None, 1, 500),
        ];
        t
    }

    #[test]
    fn self_time_is_busy_minus_direct_children() {
        let t = fixture();
        // cycle: 1000 − tick 800 (grandchildren are not subtracted twice).
        assert_eq!(t.self_ns("cycle"), 200);
        // first tick: 800 − 100 − 200; second tick has no children: 500.
        assert_eq!(t.self_ns("tick"), 500 + 500);
        assert_eq!(t.self_ns("observe"), 100);
        assert_eq!(t.self_ns("install"), 200);
        assert_eq!(t.self_ns("absent"), 0);
    }

    #[test]
    fn totals_and_calls_sum_over_same_named_spans() {
        let t = fixture();
        assert_eq!(t.busy_ns("tick"), 1_300);
        assert_eq!(t.calls("tick"), 2);
        assert_eq!(t.calls("install"), 40);
        assert_eq!(t.each_busy_ns("tick"), vec![800, 500]);
    }

    #[test]
    fn open_close_nests_and_children_attach_to_their_parent() {
        let mut t = Tracer::on();
        let outer = t.open("outer", 3);
        let inner = t.open("inner", 3);
        std::thread::sleep(Duration::from_millis(2));
        t.close(inner);
        let first = Instant::now();
        t.child(outer, "agg", (first, first), 5, 1_000);
        t.close(outer);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(
            (spans[2].id, spans[2].calls, spans[2].busy_ns),
            (3, 5, 1_000)
        );
        assert!(spans[1].busy_ns >= 2_000_000);
        assert!(spans[0].busy_ns >= spans[1].busy_ns);
        assert!(t.self_ns("outer") <= spans[0].busy_ns - spans[1].busy_ns);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let open = t.open("x", 0);
        t.child(open, "y", (Instant::now(), Instant::now()), 1, 1);
        t.close(open);
        assert_eq!(t.span("z", 0, || 41 + 1), 42);
        assert!(t.spans().is_empty() && !t.enabled());
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_span() {
        let mut bytes = Vec::new();
        fixture().write_jsonl(&mut bytes).unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5);
        let install = Json::parse(lines[3]).unwrap();
        assert_eq!(install.get("name"), Some(&Json::str("install")));
        assert_eq!(install.get("parent").unwrap().as_f64(), Some(1.0));
        assert_eq!(install.get("calls").unwrap().as_f64(), Some(40.0));
        assert_eq!(
            Json::parse(lines[0]).unwrap().get("parent"),
            Some(&Json::Null)
        );
    }
}
