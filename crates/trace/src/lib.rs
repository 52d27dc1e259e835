//! Scheduler flight recorder: lock-free per-worker event rings and the analyses built on
//! top of them.
//!
//! The recorder is **always compiled, default off**: a pool built without
//! `ThreadPoolBuilder::trace(capacity)` carries no recorder and pays one never-taken branch
//! per hook site. With a recorder attached, every worker owns one bounded
//! `EventRing` — fixed capacity, overwrite-oldest — and records each scheduler event as
//! two `u64` words (a nanosecond timestamp since the recorder's epoch, plus a packed
//! kind/aux/arg payload). The record path is a handful of relaxed stores and an index bump:
//! **no CAS, no lock, no allocation after setup** (asserted by the counting-allocator test
//! in `rws-runtime`).
//!
//! Torn reads are impossible by construction — every word in a slot is an `AtomicU64` — but
//! *inconsistent* reads (a timestamp from one event paired with the payload of the event
//! that overwrote it) are prevented by a per-slot sequence lock: the writer marks the slot
//! odd, writes, then marks it even with the slot's generation number; a reader accepts a
//! slot only when the sequence is even and unchanged across its reads, and the generation
//! encoded in the sequence lets the reader reconstruct each event's global record index, so
//! a drained lane is provably in single-writer program order. The last ring is a shared
//! **external lane** for non-worker threads (service submitters, the supervisor); its head
//! is claimed with `fetch_add`, making it multi-producer at the cost of a best-effort
//! consistency guarantee under wrap-around collisions — the strict guarantee holds for the
//! per-worker lanes, which carry the hot-path events.
//!
//! On top of the rings:
//! * [`TraceRecorder::snapshot`] drains every lane into one time-ordered [`TraceSnapshot`];
//! * [`TraceSnapshot::profile`] derives per-worker busy/steal/park/overhead time fractions
//!   and per-job queue/service latencies from event pairs — the counts it derives are
//!   designed to agree *exactly* with `PoolStats` (each event hook sits next to its counter
//!   bump and follows the same gating) whenever no ring overwrote.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a recorded event describes. The discriminants are the wire encoding (bits 56..64 of
/// the packed payload word) and the `rws-trace/v2` `kind` codes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum EventKind {
    /// A worker began executing a job; `aux` is the [`JobKind`] code.
    JobStart = 1,
    /// The matching end of a [`EventKind::JobStart`]; `aux` is the [`JobKind`] code.
    JobEnd = 2,
    /// A successful steal: `aux` is the number of tasks moved (1: a steal takes the victim's
    /// oldest job and nothing else), `arg` the victim index.
    StealOk = 3,
    /// A steal probe that found nothing on offer at the victim; `arg` is the victim index.
    StealEmpty = 4,
    /// A steal attempt that found the victim's offer taken by another thief
    /// (`Steal::Retry`); `arg` as for [`EventKind::StealEmpty`].
    StealRetry = 5,
    /// The worker is about to park; `arg` is the sleep-ladder round it reached (the full
    /// spin+yield budget), `aux` the ladder stage code (always [`LADDER_STAGE_PARK`]).
    Park = 6,
    /// The worker returned from a park; `aux` is 1 for a meaningful wake (notification or
    /// visible work) and 0 for the 1ms backstop timeout.
    Unpark = 7,
    /// A service submission was accepted; `arg` is the job's server sequence number.
    ServiceEnqueue = 8,
    /// A worker claimed a service job for execution; `arg` is the sequence number.
    ServiceClaim = 9,
    /// A service job settled; `aux` is the `JobOutcome` code, `arg` the sequence number.
    ServiceSettle = 10,
    // Codes 11 and 12 are reserved: they were `WorkerDead` and `WorkerRespawn` in
    // `rws-trace/v1`, when a worker's scheduling loop restarted after an unwind. Nothing
    // writes them now, and `from_code` reads them as unknown.
    /// A cooperative cancellation check at a fork point ran (and did not unwind).
    CancelCheck = 13,
}

impl EventKind {
    /// Decode a wire kind code.
    pub fn from_code(code: u8) -> Option<EventKind> {
        Some(match code {
            1 => EventKind::JobStart,
            2 => EventKind::JobEnd,
            3 => EventKind::StealOk,
            4 => EventKind::StealEmpty,
            5 => EventKind::StealRetry,
            6 => EventKind::Park,
            7 => EventKind::Unpark,
            8 => EventKind::ServiceEnqueue,
            9 => EventKind::ServiceClaim,
            10 => EventKind::ServiceSettle,
            13 => EventKind::CancelCheck,
            _ => return None,
        })
    }

    /// Stable lowercase name (the `rws-trace/v2` and Chrome-trace label).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::JobStart => "job_start",
            EventKind::JobEnd => "job_end",
            EventKind::StealOk => "steal_ok",
            EventKind::StealEmpty => "steal_empty",
            EventKind::StealRetry => "steal_retry",
            EventKind::Park => "park",
            EventKind::Unpark => "unpark",
            EventKind::ServiceEnqueue => "service_enqueue",
            EventKind::ServiceClaim => "service_claim",
            EventKind::ServiceSettle => "service_settle",
            EventKind::CancelCheck => "cancel_check",
        }
    }
}

/// What kind of job a [`EventKind::JobStart`]/[`EventKind::JobEnd`] pair executed (the
/// event's `aux` byte).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum JobKind {
    /// The right branch of a `join` (stack job).
    JoinBranch = 0,
    /// A scoped spawn (`Scope::spawn`, one boxed job).
    ScopedSpawn = 1,
    /// An injected root job (`spawn`, cross-thread `install`, service submissions).
    InjectedRoot = 2,
}

impl JobKind {
    /// Decode an `aux` byte (unknown codes fall back to [`JobKind::InjectedRoot`]).
    pub fn from_code(code: u8) -> JobKind {
        match code {
            0 => JobKind::JoinBranch,
            1 => JobKind::ScopedSpawn,
            _ => JobKind::InjectedRoot,
        }
    }

    /// Stable lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            JobKind::JoinBranch => "join_branch",
            JobKind::ScopedSpawn => "scoped_spawn",
            JobKind::InjectedRoot => "injected_root",
        }
    }
}

/// The `aux` ladder-stage code recorded on [`EventKind::Park`] events (spin and yield
/// rounds are not individually recorded; the park event carries the round count reached).
pub const LADDER_STAGE_PARK: u8 = 2;

const ARG_BITS: u32 = 48;
const ARG_MASK: u64 = (1 << ARG_BITS) - 1;

#[inline]
fn pack(kind: EventKind, aux: u8, arg: u64) -> u64 {
    ((kind as u64) << 56) | ((aux as u64) << 48) | (arg & ARG_MASK)
}

/// One decoded event out of a [`TraceSnapshot`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Nanoseconds since the recorder's epoch.
    pub ts_ns: u64,
    /// Originating lane: worker index, or [`TraceSnapshot::workers`] for the external lane.
    pub lane: usize,
    /// What happened.
    pub kind: EventKind,
    /// Kind-specific byte (batch size, job kind, outcome, wake meaningfulness).
    pub aux: u8,
    /// Kind-specific 48-bit argument (victim index, job sequence number, ladder round).
    pub arg: u64,
}

/// One slot of an [`EventRing`]: a per-slot sequence lock plus the event's two words. All
/// three words are atomics, so even a racing read is a valid `u64` — the sequence only
/// guards *cross-word* consistency.
#[derive(Debug, Default)]
struct Slot {
    /// `2 * generation + 2` once generation `g`'s write completes; odd mid-write; 0 never
    /// written. The generation encodes the event's global record index (see `drain_lane`).
    seq: AtomicU64,
    ts: AtomicU64,
    data: AtomicU64,
}

/// One bounded, overwrite-oldest event ring. Single-producer on worker lanes (the worker
/// thread itself); the external lane claims indices with `fetch_add` instead.
#[derive(Debug)]
struct EventRing {
    slots: Vec<Slot>,
    mask: u64,
    shift: u32,
    /// Total events ever recorded into this ring (not capped by capacity).
    head: AtomicU64,
}

impl EventRing {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.next_power_of_two().max(8);
        EventRing {
            slots: (0..capacity).map(|_| Slot::default()).collect(),
            mask: capacity as u64 - 1,
            shift: capacity.trailing_zeros(),
            head: AtomicU64::new(0),
        }
    }

    #[inline]
    fn write_slot(&self, index: u64, ts: u64, data: u64) {
        let slot = &self.slots[(index & self.mask) as usize];
        let generation = index >> self.shift;
        slot.seq.store(2 * generation + 1, Ordering::Relaxed);
        // Orders the odd marker before the payload stores (and the payload stores before
        // the even marker via its release), so a reader that sees a stable even sequence
        // saw both words of exactly that generation's event.
        fence(Ordering::Release);
        slot.ts.store(ts, Ordering::Relaxed);
        slot.data.store(data, Ordering::Relaxed);
        slot.seq.store(2 * generation + 2, Ordering::Release);
    }

    /// Single-producer record: only the owning worker thread may call this.
    #[inline]
    fn record(&self, ts: u64, data: u64) {
        let index = self.head.load(Ordering::Relaxed);
        self.write_slot(index, ts, data);
        self.head.store(index + 1, Ordering::Release);
    }

    /// Multi-producer record for the external lane (index claimed atomically).
    #[inline]
    fn record_shared(&self, ts: u64, data: u64) {
        let index = self.head.fetch_add(1, Ordering::Relaxed);
        self.write_slot(index, ts, data);
    }

    /// Drain every readable slot into `(global_index, ts, data)` triples, sorted by global
    /// record index (single-writer program order on worker lanes). Slots mid-write or
    /// overwritten during the scan are skipped, never returned inconsistent.
    fn drain(&self) -> (Vec<(u64, u64, u64)>, u64) {
        let head = self.head.load(Ordering::Acquire);
        let mut out = Vec::with_capacity(self.slots.len().min(head as usize));
        for (pos, slot) in self.slots.iter().enumerate() {
            let s1 = slot.seq.load(Ordering::Acquire);
            if s1 == 0 || s1 % 2 == 1 {
                continue;
            }
            let ts = slot.ts.load(Ordering::Relaxed);
            let data = slot.data.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            let s2 = slot.seq.load(Ordering::Relaxed);
            if s1 != s2 {
                continue; // overwritten mid-read; the newer event will be seen next drain
            }
            let generation = s1 / 2 - 1;
            let index = (generation << self.shift) + pos as u64;
            out.push((index, ts, data));
        }
        out.sort_unstable_by_key(|&(index, _, _)| index);
        (out, head)
    }
}

/// Per-lane accounting in a [`TraceSnapshot`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneInfo {
    /// Events ever recorded into this lane (not capped by capacity).
    pub recorded: u64,
    /// Events lost to overwrite-oldest (`recorded` minus what the drain could still see).
    pub dropped: u64,
}

/// The flight recorder: one ring per worker plus one shared external lane.
#[derive(Debug)]
pub struct TraceRecorder {
    epoch: Instant,
    workers: usize,
    capacity: usize,
    rings: Vec<EventRing>,
}

impl TraceRecorder {
    /// A recorder for `workers` workers with `capacity` events per lane (rounded up to a
    /// power of two, minimum 8). Allocates everything up front; recording never allocates.
    pub fn new(workers: usize, capacity: usize) -> Arc<TraceRecorder> {
        let rings = (0..=workers).map(|_| EventRing::new(capacity)).collect();
        Arc::new(TraceRecorder {
            epoch: Instant::now(),
            workers,
            capacity: capacity.next_power_of_two().max(8),
            rings,
        })
    }

    /// Number of worker lanes (the external lane is one more).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Per-lane ring capacity in events.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Nanoseconds since the recorder's epoch (the timestamp the record hooks use).
    #[inline]
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record an event on worker lane `worker`. **Single-producer contract**: only the
    /// worker thread owning that lane may call this.
    #[inline]
    pub fn record(&self, worker: usize, kind: EventKind, aux: u8, arg: u64) {
        self.rings[worker].record(self.now_ns(), pack(kind, aux, arg));
    }

    /// Record an event on the shared external lane (safe from any thread).
    #[inline]
    pub fn record_external(&self, kind: EventKind, aux: u8, arg: u64) {
        self.rings[self.workers].record_shared(self.now_ns(), pack(kind, aux, arg));
    }

    /// Drain every lane into one time-ordered snapshot. Non-destructive; intended to run
    /// when the pool is quiescent (events recorded mid-drain may be skipped or missed).
    pub fn snapshot(&self) -> TraceSnapshot {
        let mut events = Vec::new();
        let mut lanes = Vec::with_capacity(self.rings.len());
        for (lane, ring) in self.rings.iter().enumerate() {
            let (drained, recorded) = ring.drain();
            lanes.push(LaneInfo {
                recorded,
                dropped: recorded.saturating_sub(drained.len() as u64),
            });
            for (index, ts_ns, data) in drained {
                let kind = match EventKind::from_code((data >> 56) as u8) {
                    Some(k) => k,
                    None => continue,
                };
                let aux = (data >> 48) as u8;
                let arg = data & ARG_MASK;
                events.push((ts_ns, lane, index, kind, aux, arg));
            }
        }
        events.sort_unstable_by_key(|&(ts, lane, index, ..)| (ts, lane, index));
        TraceSnapshot {
            workers: self.workers,
            capacity: self.capacity,
            lanes,
            events: events
                .into_iter()
                .map(|(ts_ns, lane, _, kind, aux, arg)| TraceEvent { ts_ns, lane, kind, aux, arg })
                .collect(),
        }
    }
}

/// A drained, merged, time-ordered view of every lane. See [`TraceRecorder::snapshot`].
#[derive(Clone, Debug)]
pub struct TraceSnapshot {
    /// Worker lanes `0..workers`; lane `workers` is the external lane.
    pub workers: usize,
    /// Per-lane ring capacity the recorder was built with.
    pub capacity: usize,
    /// Per-lane recorded/dropped accounting (`workers + 1` entries).
    pub lanes: Vec<LaneInfo>,
    /// All drained events, sorted by `(ts_ns, lane)`.
    pub events: Vec<TraceEvent>,
}

impl TraceSnapshot {
    /// Events recorded across all lanes (including any since lost to overwrite).
    pub fn total_recorded(&self) -> u64 {
        self.lanes.iter().map(|l| l.recorded).sum()
    }

    /// Events lost to overwrite-oldest across all lanes. When this is nonzero the
    /// profile's counts are lower bounds, not exact matches for `PoolStats`.
    pub fn total_dropped(&self) -> u64 {
        self.lanes.iter().map(|l| l.dropped).sum()
    }

    /// Derive the time-attribution profile (busy/steal/park/overhead fractions, event
    /// counts, service latencies) from this snapshot's event pairs.
    pub fn profile(&self) -> TraceProfile {
        profile_snapshot(self)
    }
}

/// Where one worker's wall time went, derived from its event stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkerProfile {
    /// Time inside top-level job executions (nested inline joins fold into their root).
    pub busy_ns: u64,
    /// Time in work-finding sweeps that ended in a steal-related event.
    pub steal_ns: u64,
    /// Time parked (between matched park/unpark pairs).
    pub park_ns: u64,
    /// Everything else inside the observed span.
    pub overhead_ns: u64,
    /// The observed span: first event timestamp to last event timestamp on this lane.
    pub span_ns: u64,
    /// Jobs executed (every `job_start`, nested or not — matches the worker's `jobs` in a
    /// `PoolStats` snapshot).
    pub jobs: u64,
    /// Tasks migrated by successful steals (batch sizes summed — matches the snapshot's
    /// `steals`).
    pub steals: u64,
    /// Successful steal visits (one per `steal_ok` event).
    pub batch_steals: u64,
    /// Empty-victim probes recorded (same first-sweep gating as `PoolStats`).
    pub empty_probes: u64,
    /// Lost CAS races recorded (same gating).
    pub retries: u64,
    /// Parks.
    pub parks: u64,
    /// Unparks whose `aux` says the 1ms backstop timer fired (no notification arrived) —
    /// matches the snapshot's `backstop_wakes`.
    pub backstop_wakes: u64,
    /// Cooperative cancellation checks observed at fork points.
    pub cancel_checks: u64,
}

/// Service-lifecycle aggregates derived from enqueue → claim → settle event chains linked
/// by job sequence number.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ServiceProfile {
    /// `service_enqueue` events seen.
    pub enqueued: u64,
    /// `service_claim` events seen (jobs that started executing).
    pub claimed: u64,
    /// `service_settle` events seen.
    pub settled: u64,
    /// Settles per outcome code (index = outcome code 1..=5; index 0 unused).
    pub outcomes: [u64; 6],
    /// Enqueue → claim latencies paired by sequence number: count and nanosecond sum.
    pub queue_pairs: u64,
    /// Sum of paired queue latencies in nanoseconds.
    pub queue_ns: u64,
    /// Maximum paired queue latency in nanoseconds.
    pub queue_max_ns: u64,
    /// Claim → settle latencies paired by sequence number: count.
    pub service_pairs: u64,
    /// Sum of paired service latencies in nanoseconds.
    pub service_ns: u64,
    /// Maximum paired service latency in nanoseconds.
    pub service_max_ns: u64,
}

/// The full attribution profile of a snapshot.
#[derive(Clone, Debug, Default)]
pub struct TraceProfile {
    /// One entry per worker lane.
    pub workers: Vec<WorkerProfile>,
    /// Service-lifecycle aggregates (zeroed when the trace has no service events).
    pub service: ServiceProfile,
}

fn profile_snapshot(snap: &TraceSnapshot) -> TraceProfile {
    let mut workers = vec![WorkerProfile::default(); snap.workers];
    let mut service = ServiceProfile::default();

    // Per-worker interval state machine.
    struct LaneState {
        first_ts: Option<u64>,
        last_ts: u64,
        cursor: u64,
        depth: u32,
        parked: bool,
    }
    let mut states: Vec<LaneState> = (0..snap.workers)
        .map(|_| LaneState { first_ts: None, last_ts: 0, cursor: 0, depth: 0, parked: false })
        .collect();

    // Service pairing tables keyed by job sequence number.
    let mut enq: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
    let mut claim: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();

    for ev in &snap.events {
        match ev.kind {
            EventKind::ServiceEnqueue => {
                service.enqueued += 1;
                enq.insert(ev.arg, ev.ts_ns);
            }
            EventKind::ServiceClaim => {
                service.claimed += 1;
                claim.insert(ev.arg, ev.ts_ns);
                if let Some(&t0) = enq.get(&ev.arg) {
                    let d = ev.ts_ns.saturating_sub(t0);
                    service.queue_pairs += 1;
                    service.queue_ns += d;
                    service.queue_max_ns = service.queue_max_ns.max(d);
                }
            }
            EventKind::ServiceSettle => {
                service.settled += 1;
                let code = (ev.aux as usize).min(5);
                service.outcomes[code] += 1;
                if let Some(&t0) = claim.get(&ev.arg) {
                    let d = ev.ts_ns.saturating_sub(t0);
                    service.service_pairs += 1;
                    service.service_ns += d;
                    service.service_max_ns = service.service_max_ns.max(d);
                }
            }
            _ => {}
        }

        let Some(w) = workers.get_mut(ev.lane) else { continue };
        let st = &mut states[ev.lane];
        if st.first_ts.is_none() {
            st.first_ts = Some(ev.ts_ns);
            st.cursor = ev.ts_ns;
        }
        st.last_ts = ev.ts_ns;
        let gap = ev.ts_ns.saturating_sub(st.cursor);
        // Attribute the gap since the previous event on this lane by the state the worker
        // was in (or, when idle-searching, by what this event says the search was doing).
        if st.depth > 0 {
            w.busy_ns += gap;
        } else if st.parked {
            w.park_ns += gap;
        } else if matches!(
            ev.kind,
            EventKind::StealOk | EventKind::StealEmpty | EventKind::StealRetry
        ) {
            w.steal_ns += gap;
        } else {
            w.overhead_ns += gap;
        }
        st.cursor = ev.ts_ns;

        match ev.kind {
            EventKind::JobStart => {
                w.jobs += 1;
                st.depth += 1;
            }
            EventKind::JobEnd => st.depth = st.depth.saturating_sub(1),
            EventKind::StealOk => {
                w.steals += ev.aux as u64;
                w.batch_steals += 1;
            }
            EventKind::StealEmpty => w.empty_probes += 1,
            EventKind::StealRetry => w.retries += 1,
            EventKind::Park => {
                w.parks += 1;
                st.parked = true;
            }
            EventKind::Unpark => {
                st.parked = false;
                if ev.aux == 0 {
                    w.backstop_wakes += 1;
                }
            }
            EventKind::CancelCheck => w.cancel_checks += 1,
            _ => {}
        }
    }

    for (w, st) in workers.iter_mut().zip(&states) {
        if let Some(first) = st.first_ts {
            w.span_ns = st.last_ts.saturating_sub(first);
        }
    }
    TraceProfile { workers, service }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn pack_roundtrips_through_snapshot() {
        let rec = TraceRecorder::new(2, 64);
        rec.record(0, EventKind::StealOk, 3, 1);
        rec.record(1, EventKind::Park, LADDER_STAGE_PARK, 9);
        rec.record_external(EventKind::ServiceEnqueue, 0, 0xABCD);
        let snap = rec.snapshot();
        assert_eq!(snap.events.len(), 3);
        let steal = snap.events.iter().find(|e| e.kind == EventKind::StealOk).unwrap();
        assert_eq!((steal.lane, steal.aux, steal.arg), (0, 3, 1));
        let enq = snap.events.iter().find(|e| e.kind == EventKind::ServiceEnqueue).unwrap();
        assert_eq!((enq.lane, enq.arg), (2, 0xABCD));
        assert_eq!(snap.total_dropped(), 0);
    }

    #[test]
    fn arg_is_masked_to_48_bits() {
        let rec = TraceRecorder::new(1, 8);
        rec.record(0, EventKind::StealEmpty, 0, u64::MAX);
        let snap = rec.snapshot();
        assert_eq!(snap.events[0].arg, (1 << 48) - 1);
        assert_eq!(snap.events[0].kind, EventKind::StealEmpty);
    }

    #[test]
    fn overwrite_keeps_the_newest_events_in_order() {
        let rec = TraceRecorder::new(1, 8);
        for i in 0..100u64 {
            rec.record(0, EventKind::JobStart, 0, i);
        }
        let snap = rec.snapshot();
        assert_eq!(snap.lanes[0].recorded, 100);
        assert_eq!(snap.lanes[0].dropped, 100 - snap.events.len() as u64);
        let args: Vec<u64> = snap.events.iter().map(|e| e.arg).collect();
        assert_eq!(args, (100 - args.len() as u64..100).collect::<Vec<_>>());
    }

    #[test]
    fn timestamps_are_monotone_per_lane() {
        let rec = TraceRecorder::new(1, 1024);
        for i in 0..500u64 {
            rec.record(0, EventKind::JobStart, 0, i);
        }
        let snap = rec.snapshot();
        let mut last = 0;
        for e in &snap.events {
            assert!(e.ts_ns >= last);
            last = e.ts_ns;
        }
    }

    #[test]
    fn profile_attributes_busy_park_and_counts() {
        // Hand-build an event stream via the recorder, then check the derived profile's
        // counts (the timing attribution itself is checked end-to-end in rws-runtime).
        let rec = TraceRecorder::new(1, 256);
        rec.record(0, EventKind::JobStart, JobKind::InjectedRoot as u8, 0);
        rec.record(0, EventKind::JobStart, JobKind::JoinBranch as u8, 0);
        rec.record(0, EventKind::JobEnd, JobKind::JoinBranch as u8, 0);
        rec.record(0, EventKind::JobEnd, JobKind::InjectedRoot as u8, 0);
        rec.record(0, EventKind::StealEmpty, 0, 1);
        rec.record(0, EventKind::StealOk, 4, 3);
        rec.record(0, EventKind::Park, LADDER_STAGE_PARK, 9);
        rec.record(0, EventKind::Unpark, 1, 0);
        let p = rec.snapshot().profile();
        let w = &p.workers[0];
        assert_eq!(w.jobs, 2, "nested job starts both count (PoolStats semantics)");
        assert_eq!(w.steals, 4, "batch of 4 counts 4 migrations");
        assert_eq!(w.batch_steals, 1);
        assert_eq!(w.empty_probes, 1);
        assert_eq!(w.parks, 1);
        assert_eq!(
            w.busy_ns + w.steal_ns + w.park_ns + w.overhead_ns,
            w.span_ns,
            "attribution partitions the observed span"
        );
    }

    #[test]
    fn profile_pairs_service_latencies_by_sequence() {
        let rec = TraceRecorder::new(1, 64);
        rec.record_external(EventKind::ServiceEnqueue, 0, 7);
        rec.record(0, EventKind::ServiceClaim, 0, 7);
        rec.record(0, EventKind::ServiceSettle, 1, 7); // Completed
        rec.record_external(EventKind::ServiceEnqueue, 0, 8);
        rec.record_external(EventKind::ServiceSettle, 5, 8); // Shed without a claim
        let p = rec.snapshot().profile();
        assert_eq!(p.service.enqueued, 2);
        assert_eq!(p.service.claimed, 1);
        assert_eq!(p.service.settled, 2);
        assert_eq!(p.service.outcomes[1], 1);
        assert_eq!(p.service.outcomes[5], 1);
        assert_eq!(p.service.queue_pairs, 1);
        assert_eq!(p.service.service_pairs, 1, "shed jobs contribute no service pair");
    }

    /// Satellite: seeded multi-thread stress — concurrent overwrite + drain must never
    /// yield an inconsistent (torn) event or break single-writer order within one lane.
    #[test]
    fn concurrent_overwrite_never_yields_torn_or_out_of_order_events() {
        const WRITERS: usize = 3;
        const EVENTS: u64 = 20_000;
        let rec = TraceRecorder::new(WRITERS, 64); // tiny rings: constant overwrite
        let stop = Arc::new(AtomicBool::new(false));
        let handles: Vec<_> = (0..WRITERS)
            .map(|lane| {
                let rec = Arc::clone(&rec);
                thread::spawn(move || {
                    // Seeded jitter (splitmix64) so writer cadences differ per lane.
                    let mut s = 0x9E37_79B9_7F4A_7C15u64.wrapping_mul(lane as u64 + 1);
                    for i in 0..EVENTS {
                        // aux carries a checksum of arg: a payload can never contradict
                        // itself, so any cross-word tearing shows up as ts/arg disorder.
                        rec.record(lane, EventKind::JobStart, (i & 0xFF) as u8, i);
                        s ^= s << 13;
                        s ^= s >> 7;
                        s ^= s << 17;
                        for _ in 0..(s % 8) {
                            std::hint::spin_loop();
                        }
                    }
                })
            })
            .collect();
        let reader = {
            let rec = Arc::clone(&rec);
            let stop = Arc::clone(&stop);
            thread::spawn(move || {
                let mut drains = 0u64;
                while !stop.load(Ordering::Acquire) {
                    let snap = rec.snapshot();
                    verify_snapshot(&snap);
                    drains += 1;
                }
                drains
            })
        };
        for h in handles {
            h.join().unwrap();
        }
        stop.store(true, Ordering::Release);
        let drains = reader.join().unwrap();
        assert!(drains > 0, "the reader must have raced the writers");
        // Final quiescent drain: the newest `capacity` events of each lane, in order.
        let snap = rec.snapshot();
        verify_snapshot(&snap);
        for lane in 0..WRITERS {
            let args: Vec<u64> =
                snap.events.iter().filter(|e| e.lane == lane).map(|e| e.arg).collect();
            assert_eq!(args.len(), snap.capacity, "quiescent drain sees a full ring");
            assert_eq!(*args.last().unwrap(), EVENTS - 1, "the newest event survives");
        }
    }

    fn verify_snapshot(snap: &TraceSnapshot) {
        for lane in 0..snap.workers {
            let mut last_arg: Option<u64> = None;
            let mut last_ts = 0u64;
            for e in snap.events.iter().filter(|e| e.lane == lane) {
                assert_eq!(e.aux as u64, e.arg & 0xFF, "payload checksum intact (not torn)");
                if let Some(prev) = last_arg {
                    assert!(e.arg > prev, "single-writer program order within a lane");
                }
                assert!(e.ts_ns >= last_ts, "timestamps monotone within a lane");
                last_arg = Some(e.arg);
                last_ts = e.ts_ns;
            }
        }
    }
}
