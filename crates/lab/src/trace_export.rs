//! Exporters for the runtime's flight recorder: a [`rws_runtime::trace::TraceSnapshot`] rendered as
//! the compact `rws-trace/v2` document, as a Chrome `trace_event` JSON file (loadable in
//! `chrome://tracing` / Perfetto), and as the one-object summary embedded in chaos reports.
//!
//! The exporters live here rather than in `rws-trace` so the recorder crate stays
//! zero-dependency and the whole workspace keeps exactly one JSON writer ([`crate::json`]).
//!
//! `rws-trace/v2` layout (all keys always present):
//!
//! ```text
//! {
//!   "schema": "rws-trace/v2",
//!   "label": <run label>, "workers": N, "capacity": C,
//!   "lanes": [ { "lane", "recorded", "dropped" } ],
//!   "profile": {
//!     "workers": [ { "lane", "busy_ns", "steal_ns", "park_ns", "overhead_ns", "span_ns",
//!                    "busy_frac", "steal_frac", "park_frac", "overhead_frac",
//!                    "jobs", "steals", "batch_steals", "empty_probes", "retries",
//!                    "parks", "cancel_checks" } ],
//!     "service": { "enqueued", "claimed", "settled", "outcomes",
//!                  "queue_pairs", "queue_mean_ns", "queue_max_ns",
//!                  "service_pairs", "service_mean_ns", "service_max_ns" }
//!   },
//!   "events": [ { "ts_ns", "lane", "kind", "aux", "arg" } ]
//! }
//! ```
//!
//! The document is bounded by construction: each lane's ring holds at most `capacity`
//! events, so `events` never exceeds `(workers + 1) * capacity` entries however long the
//! traced run was (overwritten history is accounted in `lanes[].dropped`, not emitted).

use crate::json::{self, obj, Json};
use rws_runtime::trace::{EventKind, JobKind, TraceSnapshot, WorkerProfile};

/// The schema tag of the emitted `rws-trace/v2` document.
pub const SCHEMA: &str = "rws-trace/v2";

fn frac(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn mean(sum_ns: u64, pairs: u64) -> u64 {
    sum_ns.checked_div(pairs).unwrap_or(0)
}

fn worker_profile_json(lane: usize, w: &WorkerProfile) -> Json {
    obj([
        ("lane", lane.into()),
        ("busy_ns", w.busy_ns.into()),
        ("steal_ns", w.steal_ns.into()),
        ("park_ns", w.park_ns.into()),
        ("overhead_ns", w.overhead_ns.into()),
        ("span_ns", w.span_ns.into()),
        ("busy_frac", frac(w.busy_ns, w.span_ns).into()),
        ("steal_frac", frac(w.steal_ns, w.span_ns).into()),
        ("park_frac", frac(w.park_ns, w.span_ns).into()),
        ("overhead_frac", frac(w.overhead_ns, w.span_ns).into()),
        ("jobs", w.jobs.into()),
        ("steals", w.steals.into()),
        ("batch_steals", w.batch_steals.into()),
        ("empty_probes", w.empty_probes.into()),
        ("retries", w.retries.into()),
        ("parks", w.parks.into()),
        ("cancel_checks", w.cancel_checks.into()),
    ])
}

fn profile_json(snap: &TraceSnapshot) -> Json {
    let p = snap.profile();
    let s = &p.service;
    obj([
        (
            "workers",
            Json::Arr(
                p.workers.iter().enumerate().map(|(i, w)| worker_profile_json(i, w)).collect(),
            ),
        ),
        (
            "service",
            obj([
                ("enqueued", s.enqueued.into()),
                ("claimed", s.claimed.into()),
                ("settled", s.settled.into()),
                ("outcomes", Json::Arr(s.outcomes.iter().map(|&o| o.into()).collect())),
                ("queue_pairs", s.queue_pairs.into()),
                ("queue_mean_ns", mean(s.queue_ns, s.queue_pairs).into()),
                ("queue_max_ns", s.queue_max_ns.into()),
                ("service_pairs", s.service_pairs.into()),
                ("service_mean_ns", mean(s.service_ns, s.service_pairs).into()),
                ("service_max_ns", s.service_max_ns.into()),
            ]),
        ),
    ])
}

/// Render a snapshot as the full `rws-trace/v2` [`Json`] document.
pub fn trace_document(snap: &TraceSnapshot, label: &str) -> Json {
    let lanes: Vec<Json> = snap
        .lanes
        .iter()
        .enumerate()
        .map(|(i, l)| {
            obj([
                ("lane", i.into()),
                ("recorded", l.recorded.into()),
                ("dropped", l.dropped.into()),
            ])
        })
        .collect();
    let events: Vec<Json> = snap
        .events
        .iter()
        .map(|e| {
            obj([
                ("ts_ns", e.ts_ns.into()),
                ("lane", e.lane.into()),
                ("kind", e.kind.name().into()),
                ("aux", u64::from(e.aux).into()),
                ("arg", e.arg.into()),
            ])
        })
        .collect();
    obj([
        ("schema", SCHEMA.into()),
        ("label", label.into()),
        ("workers", snap.workers.into()),
        ("capacity", snap.capacity.into()),
        ("lanes", lanes.into()),
        ("profile", profile_json(snap)),
        ("events", events.into()),
    ])
}

/// Validate an emitted `rws-trace/v2` document: well-formed JSON carrying the schema tag
/// and the required top-level keys.
pub fn validate_trace_document(doc: &str) -> Result<(), String> {
    json::validate_with_keys(doc, &["schema", "label", "workers", "lanes", "profile", "events"])?;
    if !doc.contains(SCHEMA) {
        return Err(format!("document does not carry the `{SCHEMA}` schema tag"));
    }
    Ok(())
}

/// Microsecond timestamp for the Chrome `trace_event` format (which uses f64 µs).
fn us(ts_ns: u64) -> Json {
    Json::F64(ts_ns as f64 / 1_000.0)
}

fn chrome_complete(name: &str, tid: usize, start_ns: u64, end_ns: u64, args: Json) -> Json {
    obj([
        ("name", name.into()),
        ("ph", "X".into()),
        ("pid", 1u64.into()),
        ("tid", (tid + 1).into()),
        ("ts", us(start_ns)),
        ("dur", us(end_ns.saturating_sub(start_ns))),
        ("args", args),
    ])
}

fn chrome_instant(name: &str, tid: usize, ts_ns: u64, args: Json) -> Json {
    obj([
        ("name", name.into()),
        ("ph", "i".into()),
        ("s", "t".into()),
        ("pid", 1u64.into()),
        ("tid", (tid + 1).into()),
        ("ts", us(ts_ns)),
        ("args", args),
    ])
}

/// Render a snapshot as a Chrome `trace_event` JSON object (open in `chrome://tracing` or
/// Perfetto): one process, one thread track per lane, `X` complete events for job
/// executions and parks, `i` instants for steals and service lifecycle points.
pub fn chrome_trace(snap: &TraceSnapshot, label: &str) -> Json {
    let mut events: Vec<Json> = Vec::new();
    // Thread-name metadata rows: worker lanes plus the shared external lane.
    for lane in 0..snap.lanes.len() {
        let name =
            if lane < snap.workers { format!("worker {lane}") } else { "external".to_string() };
        events.push(obj([
            ("name", "thread_name".into()),
            ("ph", "M".into()),
            ("pid", 1u64.into()),
            ("tid", (lane + 1).into()),
            ("args", obj([("name", name.as_str().into())])),
        ]));
    }

    // Per-lane interval state: open job starts nest (a join branch inside its root), open
    // parks do not.
    let mut job_stack: Vec<Vec<(u64, u8)>> = vec![Vec::new(); snap.lanes.len()];
    let mut park_since: Vec<Option<u64>> = vec![None; snap.lanes.len()];
    for e in &snap.events {
        match e.kind {
            EventKind::JobStart => job_stack[e.lane].push((e.ts_ns, e.aux)),
            EventKind::JobEnd => {
                if let Some((start, aux)) = job_stack[e.lane].pop() {
                    events.push(chrome_complete(
                        JobKind::from_code(aux).name(),
                        e.lane,
                        start,
                        e.ts_ns,
                        Json::Obj(vec![]),
                    ));
                }
            }
            EventKind::Park => park_since[e.lane] = Some(e.ts_ns),
            EventKind::Unpark => {
                if let Some(start) = park_since[e.lane].take() {
                    events.push(chrome_complete("park", e.lane, start, e.ts_ns, Json::Obj(vec![])));
                }
            }
            EventKind::StealOk => events.push(chrome_instant(
                "steal_ok",
                e.lane,
                e.ts_ns,
                obj([("batch", u64::from(e.aux).into()), ("victim", e.arg.into())]),
            )),
            EventKind::StealEmpty | EventKind::StealRetry => events.push(chrome_instant(
                e.kind.name(),
                e.lane,
                e.ts_ns,
                obj([("victim", e.arg.into())]),
            )),
            EventKind::ServiceEnqueue | EventKind::ServiceClaim | EventKind::ServiceSettle => {
                events.push(chrome_instant(
                    e.kind.name(),
                    e.lane,
                    e.ts_ns,
                    obj([("seq", e.arg.into()), ("aux", u64::from(e.aux).into())]),
                ))
            }
            EventKind::CancelCheck => events.push(chrome_instant(
                e.kind.name(),
                e.lane,
                e.ts_ns,
                obj([("arg", e.arg.into())]),
            )),
        }
    }
    obj([
        ("traceEvents", events.into()),
        ("displayTimeUnit", "ms".into()),
        ("otherData", obj([("label", label.into()), ("schema", SCHEMA.into())])),
    ])
}

/// Validate an emitted Chrome trace file: well-formed JSON whose `traceEvents` is an array.
pub fn validate_chrome_trace(doc: &str) -> Result<(), String> {
    let parsed = json::parse(doc)?;
    match parsed.get("traceEvents").and_then(Json::as_array) {
        Some(_) => Ok(()),
        None => Err("missing `traceEvents` array".into()),
    }
}

/// The compact one-object summary of a snapshot, embedded as the `trace_summary` key of
/// chaos reports (and usable anywhere a full event dump would be noise).
pub fn trace_summary(snap: &TraceSnapshot) -> Json {
    let p = snap.profile();
    let (busy, steal, park, overhead, span) =
        p.workers.iter().fold((0u64, 0u64, 0u64, 0u64, 0u64), |acc, w| {
            (
                acc.0 + w.busy_ns,
                acc.1 + w.steal_ns,
                acc.2 + w.park_ns,
                acc.3 + w.overhead_ns,
                acc.4 + w.span_ns,
            )
        });
    let jobs: u64 = p.workers.iter().map(|w| w.jobs).sum();
    let steals: u64 = p.workers.iter().map(|w| w.steals).sum();
    let parks: u64 = p.workers.iter().map(|w| w.parks).sum();
    obj([
        ("schema", SCHEMA.into()),
        ("events_recorded", snap.total_recorded().into()),
        ("events_dropped", snap.total_dropped().into()),
        ("workers", snap.workers.into()),
        ("jobs", jobs.into()),
        ("steals", steals.into()),
        ("parks", parks.into()),
        ("busy_frac", frac(busy, span).into()),
        ("steal_frac", frac(steal, span).into()),
        ("park_frac", frac(park, span).into()),
        ("overhead_frac", frac(overhead, span).into()),
        (
            "service",
            obj([
                ("enqueued", p.service.enqueued.into()),
                ("claimed", p.service.claimed.into()),
                ("settled", p.service.settled.into()),
                ("queue_mean_ns", mean(p.service.queue_ns, p.service.queue_pairs).into()),
                ("service_mean_ns", mean(p.service.service_ns, p.service.service_pairs).into()),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rws_runtime::trace::{TraceRecorder, LADDER_STAGE_PARK};

    fn sample_snapshot() -> TraceSnapshot {
        let rec = TraceRecorder::new(2, 256);
        rec.record(0, EventKind::JobStart, JobKind::InjectedRoot as u8, 0);
        rec.record(0, EventKind::JobStart, JobKind::JoinBranch as u8, 0);
        rec.record(0, EventKind::JobEnd, JobKind::JoinBranch as u8, 0);
        rec.record(0, EventKind::JobEnd, JobKind::InjectedRoot as u8, 0);
        rec.record(1, EventKind::StealOk, 2, 0);
        rec.record(1, EventKind::StealEmpty, 0, 0);
        rec.record(1, EventKind::Park, LADDER_STAGE_PARK, 5);
        rec.record(1, EventKind::Unpark, 0, 0);
        rec.record_external(EventKind::ServiceEnqueue, 0, 42);
        rec.record(1, EventKind::ServiceClaim, 0, 42);
        rec.record(1, EventKind::ServiceSettle, 1, 42);
        rec.snapshot()
    }

    #[test]
    fn trace_document_renders_and_validates() {
        let snap = sample_snapshot();
        let doc = trace_document(&snap, "sample").render();
        validate_trace_document(&doc).expect("emitted trace document must validate");
        for key in ["\"busy_frac\"", "\"queue_mean_ns\"", "\"steal_ok\"", "\"dropped\""] {
            assert!(doc.contains(key), "missing {key} in\n{doc}");
        }
        let parsed = json::parse(&doc).unwrap();
        assert_eq!(parsed.get("schema").and_then(Json::as_str), Some(SCHEMA));
        assert_eq!(parsed.get("workers").and_then(Json::as_u64), Some(2));
        let events = parsed.get("events").and_then(Json::as_array).unwrap();
        assert_eq!(events.len(), snap.events.len());
    }

    #[test]
    fn validate_trace_document_rejects_foreign_documents() {
        assert!(validate_trace_document("{}").is_err());
        assert!(validate_trace_document("not json").is_err());
        let wrong = trace_document(&sample_snapshot(), "x").render().replace(SCHEMA, "other/v9");
        assert!(validate_trace_document(&wrong).is_err());
    }

    #[test]
    fn chrome_trace_pairs_intervals_and_validates() {
        let snap = sample_snapshot();
        let doc = chrome_trace(&snap, "sample").render();
        validate_chrome_trace(&doc).expect("chrome trace must validate");
        let parsed = json::parse(&doc).unwrap();
        let events = parsed.get("traceEvents").and_then(Json::as_array).unwrap();
        // 3 thread_name metadata rows (2 workers + external lane) precede the data.
        let meta =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("M")).count();
        assert_eq!(meta, 3);
        let complete: Vec<&Json> =
            events.iter().filter(|e| e.get("ph").and_then(Json::as_str) == Some("X")).collect();
        // Two nested job intervals plus one park interval.
        assert_eq!(complete.len(), 3, "{doc}");
        assert!(complete
            .iter()
            .any(|e| e.get("name").and_then(Json::as_str) == Some("join_branch")));
        assert!(complete.iter().any(|e| e.get("name").and_then(Json::as_str) == Some("park")));
        // Instants carry their kind names; tids are 1-based lanes.
        assert!(doc.contains("\"steal_empty\""));
        assert!(doc.contains("\"service_settle\""));
    }

    #[test]
    fn trace_summary_is_compact_and_consistent_with_the_profile() {
        let snap = sample_snapshot();
        let summary = trace_summary(&snap).render();
        let parsed = json::parse(&summary).unwrap();
        assert_eq!(parsed.get("jobs").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("steals").and_then(Json::as_u64), Some(2));
        assert_eq!(parsed.get("parks").and_then(Json::as_u64), Some(1));
        assert_eq!(
            parsed.get("events_recorded").and_then(Json::as_u64),
            Some(snap.total_recorded())
        );
        let service = parsed.get("service").unwrap();
        assert_eq!(service.get("enqueued").and_then(Json::as_u64), Some(1));
        assert_eq!(service.get("settled").and_then(Json::as_u64), Some(1));
        // The four fractions partition each worker's span. The renderer rounds each to six
        // decimals, so the parsed sum can overshoot 1 by up to four half-ulps (4 * 5e-7).
        let total: f64 = ["busy_frac", "steal_frac", "park_frac", "overhead_frac"]
            .iter()
            .map(|k| parsed.get(k).and_then(Json::as_f64).unwrap())
            .sum();
        assert!(total <= 1.0000025, "fractions partition the span, got {total}");
    }
}
