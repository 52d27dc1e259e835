//! Harness-side spans: one record per call from the harness into a layer, kept in memory
//! and written out when the workload ends. Only the traced run records them; the untraced
//! run pays one branch per call site.
//!
//! Spans nest by call structure on the recording thread, so a span's children never
//! overlap each other and a layer's *self time* is its span minus its direct children.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-boundary name (e.g. `algos.fft`).
    pub name: &'static str,
    /// Start, ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, ns since the recorder's epoch (equals `start_ns` while still open).
    pub end_ns: u64,
    /// Index of the span that caused this one, if any.
    pub parent: Option<usize>,
    /// The workload iteration this span belongs to: spans of one iteration share it.
    pub iteration: u64,
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    records: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; when `enabled` is false every call is a no-op.
    pub fn new(enabled: bool) -> Self {
        Spans { enabled, epoch: Instant::now(), records: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Run `f` inside a span named `name`; spans opened by `f` become its children.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        iteration: u64,
        f: impl FnOnce(&mut Spans) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let start_ns = self.now_ns();
        let id = self.records.len();
        let parent = self.open.last().copied();
        self.records.push(Span { name, start_ns, end_ns: start_ns, parent, iteration });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.records[id].end_ns = self.now_ns();
        out
    }

    /// Everything recorded so far.
    pub fn records(&self) -> &[Span] {
        &self.records
    }

    /// Per span name: `(count, total ns, self ns)`, where self time is the span's duration
    /// minus its direct children's.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        self_times(&self.records)
    }

    /// The spans as a JSON document (`rws-benchmark-spans/v1`).
    pub fn to_json(&self, workload: &str) -> String {
        let mut out = String::with_capacity(64 + self.records.len() * 96);
        let _ = write!(
            out,
            "{{\"schema\":\"rws-benchmark-spans/v1\",\"workload\":\"{workload}\",\"spans\":["
        );
        for (i, s) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"iteration\":{}}}",
                s.name, s.start_ns, s.end_ns, s.iteration
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self-time arithmetic over a finished recording (see [`Spans::self_times`]).
pub fn self_times(records: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns = vec![0u64; records.len()];
    for s in records {
        if let Some(p) = s.parent {
            child_ns[p] += s.end_ns - s.start_ns;
        }
    }
    let mut by_name: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (s, children) in records.iter().zip(child_ns) {
        let total = s.end_ns - s.start_ns;
        let row = by_name.entry(s.name).or_default();
        row.0 += 1;
        row.1 += total;
        row.2 += total.saturating_sub(children);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns, end_ns, parent, iteration: 0 }
    }

    #[test]
    fn self_time_is_the_span_minus_its_direct_children() {
        // pass [0, 100) ── fft [10, 40) ── install [12, 30)
        //                └─ sort [50, 90)
        let records = vec![
            span("pass", 0, 100, None),
            span("fft", 10, 40, Some(0)),
            span("install", 12, 30, Some(1)),
            span("sort", 50, 90, Some(0)),
        ];
        let t = self_times(&records);
        assert_eq!(t["pass"], (1, 100, 30), "100 − (30 + 40); the grandchild is not counted twice");
        assert_eq!(t["fft"], (1, 30, 12));
        assert_eq!(t["install"], (1, 18, 18));
        assert_eq!(t["sort"], (1, 40, 40));
        let self_sum: u64 = t.values().map(|r| r.2).sum();
        assert_eq!(self_sum, 100, "self times partition the root span");
    }

    #[test]
    fn same_named_spans_accumulate() {
        let records = vec![
            span("pass", 0, 10, None),
            span("k", 1, 4, Some(0)),
            span("pass", 10, 30, None),
            span("k", 12, 20, Some(2)),
        ];
        let t = self_times(&records);
        assert_eq!(t["pass"], (2, 30, 19));
        assert_eq!(t["k"], (2, 11, 11));
    }

    #[test]
    fn recorder_nests_by_call_structure_and_disabled_records_nothing() {
        let mut spans = Spans::new(true);
        let got = spans.span("outer", 7, |s| s.span("inner", 7, |_| 42));
        assert_eq!(got, 42);
        let r = spans.records();
        assert_eq!(r.len(), 2);
        assert_eq!((r[0].name, r[0].parent, r[0].iteration), ("outer", None, 7));
        assert_eq!((r[1].name, r[1].parent), ("inner", Some(0)));
        assert!(r[0].start_ns <= r[1].start_ns && r[1].end_ns <= r[0].end_ns);
        let doc = spans.to_json("w");
        rws_lab::json::validate(&doc).expect("span document is well-formed JSON");

        let mut off = Spans::new(false);
        assert_eq!(off.span("outer", 0, |s| s.span("inner", 0, |_| 1)), 1);
        assert!(off.records().is_empty());
    }
}
