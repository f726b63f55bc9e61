//! Request-scoped traces: ids, spans, a thread-local recorder, and a
//! bounded store of recently completed traces.
//!
//! A [`TraceId`] is a nonzero 64-bit identifier minted when a request
//! enters the system (at frame time on the event loop) or adopted from
//! an inbound `x-trace-id` (16 hex chars) or W3C `traceparent` header
//! (low 64 bits of the trace-id field). The id travels with the work item through the
//! queue and the worker, and each stage appends a [`Span`] to the
//! thread-local [`SpanRecorder`]. When the response is built the
//! recorder is finished into a [`TraceRecord`] and committed to the
//! [`TraceStore`], which retains the most recent N for the
//! `/debug/trace/<id>` and `/debug/slow` endpoints.
//!
//! Stages that run after commit (the socket write, which in epoll
//! mode happens on the event-loop thread) are patched in afterwards
//! via [`TraceStore::append_span_at`], which also extends the
//! recorded total so that span durations always sum to at most the
//! total.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A nonzero 64-bit trace identifier. Rendered as 16 lowercase hex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(u64);

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn process_seed() -> u64 {
    static SEED: OnceLock<u64> = OnceLock::new();
    *SEED.get_or_init(|| {
        // RandomState is seeded per-process from the OS; hashing a
        // constant extracts that entropy without any new dependency.
        let mut h = RandomState::new().build_hasher();
        h.write_u64(0x0074_6770_5f6f_6273);
        h.finish()
    })
}

impl TraceId {
    /// The absent trace id (0). Never minted.
    pub const NONE: TraceId = TraceId(0);

    /// Mint a fresh process-unique id.
    pub fn mint() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let id = splitmix64(process_seed().wrapping_add(n));
        TraceId(if id == 0 { 1 } else { id })
    }

    /// Raw value (0 means "none").
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Rebuild from a raw value.
    pub fn from_u64(v: u64) -> TraceId {
        TraceId(v)
    }

    /// True for [`TraceId::NONE`].
    pub fn is_none(self) -> bool {
        self.0 == 0
    }

    /// Parse 1–16 hex chars (the `x-trace-id` header format).
    /// Zero parses to `None` (it means "absent" on the wire).
    pub fn parse_hex(s: &str) -> Option<TraceId> {
        let s = s.trim();
        if s.is_empty() || s.len() > 16 {
            return None;
        }
        match u64::from_str_radix(s, 16) {
            Ok(0) | Err(_) => None,
            Ok(v) => Some(TraceId(v)),
        }
    }

    /// Adopt the low 64 bits of a W3C `traceparent` header
    /// (`00-<32 hex trace-id>-<16 hex parent-id>-<2 hex flags>`).
    pub fn from_traceparent(value: &str) -> Option<TraceId> {
        let mut parts = value.trim().split('-');
        let _version = parts.next()?;
        let trace_id = parts.next()?;
        if trace_id.len() != 32 {
            return None;
        }
        Self::parse_hex(&trace_id[16..])
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// A named request stage. The fixed set keeps per-stage histograms
/// and span rendering allocation-free.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Time between enqueue and a worker picking the work up.
    Queue,
    /// HTTP request parsing of the framed bytes on a worker.
    Parse,
    /// Streaming flat-array ingest: scanning the raw body straight
    /// into flat graph arrays without materializing a JSON tree.
    /// Recorded for every body the streaming parser scans, including
    /// the ones it declines and hands to the JSON-tree parser (that
    /// time is wasted ingest): every `/v1/partition` body, and session
    /// re-solves of spilled graphs whose objective streams.
    Ingest,
    /// Result-cache probe.
    Cache,
    /// Session-store work: resident-graph lookup, edit-batch
    /// application, journal append.
    Session,
    /// Solver execution.
    Solve,
    /// Response body rendering.
    Serialize,
    /// Flushing the response bytes to the socket.
    Write,
    /// Cooperative deadline/cancel preemption: the sliver between the
    /// solve noticing its budget expired and the error response being
    /// built. Present only on traces that were cut short.
    Cancelled,
}

impl Stage {
    /// All stages, in pipeline order (must match declaration order —
    /// [`Stage::index`] is the discriminant).
    pub const ALL: [Stage; 9] = [
        Stage::Queue,
        Stage::Parse,
        Stage::Ingest,
        Stage::Cache,
        Stage::Session,
        Stage::Solve,
        Stage::Serialize,
        Stage::Write,
        Stage::Cancelled,
    ];

    /// Stable lowercase label (metrics `stage=` label, span JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Parse => "parse",
            Stage::Ingest => "ingest",
            Stage::Cache => "cache",
            Stage::Session => "session",
            Stage::Solve => "solve",
            Stage::Serialize => "serialize",
            Stage::Write => "write",
            Stage::Cancelled => "cancelled",
        }
    }

    /// Dense index into [`Stage::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }
}

/// One timed stage within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Which stage.
    pub stage: Stage,
    /// Nanoseconds from the trace base to the span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// A completed request trace.
#[derive(Debug, Clone)]
pub struct TraceRecord {
    /// Trace id.
    pub id: TraceId,
    /// Endpoint label (e.g. `partition`).
    pub endpoint: &'static str,
    /// Objective label, `-` when not applicable.
    pub objective: &'static str,
    /// HTTP status of the response.
    pub status: u16,
    /// End-to-end nanoseconds covered by the trace (enqueue →
    /// response built, extended by patched-in write spans).
    pub total_ns: u64,
    /// Recorded spans in completion order.
    pub spans: Vec<Span>,
}

/// Collects spans for one in-flight request on the worker thread.
#[derive(Debug)]
pub struct SpanRecorder {
    id: TraceId,
    base: Instant,
    spans: Vec<Span>,
}

impl SpanRecorder {
    /// Start recording. `base` is the instant the trace's clock
    /// starts (the enqueue instant when known, else dequeue).
    pub fn new(id: TraceId, base: Instant) -> SpanRecorder {
        SpanRecorder {
            id,
            base,
            spans: Vec::with_capacity(Stage::ALL.len()),
        }
    }

    /// The current trace id.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Replace the id (adopting a client-supplied one at parse time).
    pub fn set_id(&mut self, id: TraceId) {
        if !id.is_none() {
            self.id = id;
        }
    }

    /// Record a span that started at `start` and ran for `dur`.
    pub fn add(&mut self, stage: Stage, start: Instant, dur: Duration) {
        let start_ns = start.saturating_duration_since(self.base).as_nanos() as u64;
        self.spans.push(Span {
            stage,
            start_ns,
            dur_ns: dur.as_nanos() as u64,
        });
    }

    /// Finish into a [`TraceRecord`]; the total covers base → now.
    pub fn finish(
        self,
        endpoint: &'static str,
        objective: &'static str,
        status: u16,
    ) -> TraceRecord {
        self.finish_at(Instant::now(), endpoint, objective, status)
    }

    /// [`SpanRecorder::finish`] ended at an instant the caller already
    /// read; the total covers base → `at`.
    pub fn finish_at(
        self,
        at: Instant,
        endpoint: &'static str,
        objective: &'static str,
        status: u16,
    ) -> TraceRecord {
        TraceRecord {
            id: self.id,
            endpoint,
            objective,
            status,
            total_ns: at.saturating_duration_since(self.base).as_nanos() as u64,
            spans: self.spans,
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<SpanRecorder>> = const { RefCell::new(None) };
}

/// Install `recorder` as the thread's active trace context,
/// replacing any stale one.
pub fn begin(recorder: SpanRecorder) {
    CURRENT.with(|c| *c.borrow_mut() = Some(recorder));
}

/// The active trace id on this thread, if any.
pub fn current_id() -> Option<TraceId> {
    CURRENT.with(|c| c.borrow().as_ref().map(|r| r.id()))
}

/// Adopt a (client-supplied) id into the active recorder.
pub fn adopt_id(id: TraceId) {
    CURRENT.with(|c| {
        if let Some(r) = c.borrow_mut().as_mut() {
            r.set_id(id);
        }
    });
}

/// Append a span to the active recorder; no-op when none is active
/// (e.g. batch subtasks running on sibling workers).
pub fn record(stage: Stage, start: Instant, dur: Duration) {
    CURRENT.with(|c| {
        if let Some(r) = c.borrow_mut().as_mut() {
            r.add(stage, start, dur);
        }
    });
}

/// Take the active recorder off the thread and finish it.
/// Returns `None` when no trace was active.
pub fn finish(endpoint: &'static str, objective: &'static str, status: u16) -> Option<TraceRecord> {
    finish_at(Instant::now(), endpoint, objective, status)
}

/// [`finish`] ended at an instant the caller already read.
pub fn finish_at(
    at: Instant,
    endpoint: &'static str,
    objective: &'static str,
    status: u16,
) -> Option<TraceRecord> {
    CURRENT
        .with(|c| c.borrow_mut().take())
        .map(|r| r.finish_at(at, endpoint, objective, status))
}

/// Bounded store of recently completed traces (newest first wins on
/// id collision lookups). One short-critical-section mutex; taken
/// once per completed request, never on a per-span basis.
pub struct TraceStore {
    inner: Mutex<StoreInner>,
    capacity: usize,
}

/// The queue plus a monotone commit counter: record `i` of `q` has
/// sequence `next_seq - q.len() + i`, which is what lets
/// [`TraceStore::append_span_at`] patch by index instead of scanning.
#[derive(Debug, Default)]
struct StoreInner {
    q: VecDeque<TraceRecord>,
    next_seq: u64,
}

impl fmt::Debug for TraceStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceStore")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl TraceStore {
    /// Retain up to `capacity` most recent traces (min 1).
    pub fn new(capacity: usize) -> TraceStore {
        TraceStore {
            inner: Mutex::new(StoreInner::default()),
            capacity: capacity.max(1),
        }
    }

    /// Commit a completed trace, evicting the oldest beyond capacity.
    /// Returns the trace's commit sequence — the O(1) handle for
    /// patching a late span in with [`TraceStore::append_span_at`].
    pub fn commit(&self, record: TraceRecord) -> u64 {
        let mut inner = self.inner.lock().unwrap();
        if inner.q.len() == self.capacity {
            inner.q.pop_front();
        }
        inner.q.push_back(record);
        let seq = inner.next_seq;
        inner.next_seq += 1;
        seq
    }

    /// Most recent trace with this id, if still retained.
    pub fn get(&self, id: TraceId) -> Option<TraceRecord> {
        let inner = self.inner.lock().unwrap();
        inner.q.iter().rev().find(|r| r.id == id).cloned()
    }

    /// The `n` slowest retained traces, slowest first.
    pub fn slowest(&self, n: usize) -> Vec<TraceRecord> {
        let inner = self.inner.lock().unwrap();
        let mut all: Vec<TraceRecord> = inner.q.iter().cloned().collect();
        drop(inner);
        all.sort_by_key(|r| std::cmp::Reverse(r.total_ns));
        all.truncate(n);
        all
    }

    /// Patch a span into an already-committed trace (the epoll write
    /// completes on the loop thread after commit). `seq` is the handle
    /// [`TraceStore::commit`] returned, making the lookup an index
    /// computation rather than a scan — under load the write can
    /// resolve hundreds of commits later, and a per-patch scan with
    /// the lock held is exactly the stall this store must not cause.
    /// The span starts at the current recorded total and extends it,
    /// so span durations sum to at most `total_ns` by construction.
    /// Returns `false` when the trace was evicted (or `seq`/`id`
    /// disagree — a recycled handle).
    pub fn append_span_at(&self, seq: u64, id: TraceId, stage: Stage, dur: Duration) -> bool {
        let dur_ns = dur.as_nanos() as u64;
        let mut inner = self.inner.lock().unwrap();
        let front_seq = inner.next_seq - inner.q.len() as u64;
        if seq < front_seq || seq >= inner.next_seq {
            return false;
        }
        let r = &mut inner.q[(seq - front_seq) as usize];
        if r.id != id {
            return false;
        }
        r.spans.push(Span {
            stage,
            start_ns: r.total_ns,
            dur_ns,
        });
        r.total_ns += dur_ns;
        true
    }

    /// Number of retained traces.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().q.len()
    }

    /// True when no traces are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn minted_ids_are_nonzero_and_distinct() {
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let id = TraceId::mint();
            assert!(!id.is_none());
            assert!(seen.insert(id.as_u64()));
        }
    }

    #[test]
    fn hex_roundtrip_and_parsing() {
        let id = TraceId::from_u64(0x00c0_ffee_0ddf_00d1);
        let s = id.to_string();
        assert_eq!(s.len(), 16);
        assert_eq!(TraceId::parse_hex(&s), Some(id));
        assert_eq!(
            TraceId::parse_hex("deadbeef"),
            Some(TraceId::from_u64(0xdead_beef))
        );
        assert_eq!(TraceId::parse_hex(""), None);
        assert_eq!(TraceId::parse_hex("0"), None);
        assert_eq!(TraceId::parse_hex("xyz"), None);
        assert_eq!(TraceId::parse_hex("11112222333344445"), None); // 17 chars
    }

    #[test]
    fn traceparent_adopts_low_64_bits() {
        let tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01";
        assert_eq!(
            TraceId::from_traceparent(tp),
            Some(TraceId::from_u64(0xa3ce_929d_0e0e_4736))
        );
        assert_eq!(TraceId::from_traceparent("garbage"), None);
        assert_eq!(TraceId::from_traceparent("00-short-x-01"), None);
    }

    #[test]
    fn recorder_collects_spans_relative_to_base() {
        let base = Instant::now();
        let mut r = SpanRecorder::new(TraceId::mint(), base);
        r.add(Stage::Queue, base, Duration::from_micros(10));
        r.add(
            Stage::Solve,
            base + Duration::from_micros(10),
            Duration::from_micros(5),
        );
        // The recorded total is real wall time since `base`; wait until
        // it covers the synthetic span durations above.
        while base.elapsed() < Duration::from_micros(20) {
            std::hint::spin_loop();
        }
        let rec = r.finish("partition", "bandwidth", 200);
        assert_eq!(rec.spans.len(), 2);
        assert_eq!(rec.spans[0].stage, Stage::Queue);
        assert_eq!(rec.spans[0].start_ns, 0);
        assert_eq!(rec.spans[1].start_ns, 10_000);
        assert_eq!(rec.spans[1].dur_ns, 5_000);
        let span_sum: u64 = rec.spans.iter().map(|s| s.dur_ns).sum();
        assert!(span_sum <= rec.total_ns);
    }

    #[test]
    fn thread_local_roundtrip_and_adoption() {
        begin(SpanRecorder::new(TraceId::from_u64(7), Instant::now()));
        assert_eq!(current_id(), Some(TraceId::from_u64(7)));
        adopt_id(TraceId::from_u64(9));
        assert_eq!(current_id(), Some(TraceId::from_u64(9)));
        adopt_id(TraceId::NONE); // ignored
        assert_eq!(current_id(), Some(TraceId::from_u64(9)));
        record(Stage::Parse, Instant::now(), Duration::from_nanos(100));
        let rec = finish("partition", "-", 200).unwrap();
        assert_eq!(rec.id, TraceId::from_u64(9));
        assert_eq!(rec.spans.len(), 1);
        assert!(finish("partition", "-", 200).is_none());
        assert_eq!(current_id(), None);
    }

    fn rec(id: u64, total_ns: u64) -> TraceRecord {
        TraceRecord {
            id: TraceId::from_u64(id),
            endpoint: "partition",
            objective: "bandwidth",
            status: 200,
            total_ns,
            spans: Vec::new(),
        }
    }

    #[test]
    fn store_evicts_oldest_and_finds_newest() {
        let store = TraceStore::new(3);
        for i in 1..=4u64 {
            store.commit(rec(i, i * 100));
        }
        assert_eq!(store.len(), 3);
        assert!(store.get(TraceId::from_u64(1)).is_none());
        assert!(store.get(TraceId::from_u64(4)).is_some());
        // Duplicate id: newest wins.
        store.commit(rec(4, 999));
        assert_eq!(store.get(TraceId::from_u64(4)).unwrap().total_ns, 999);
    }

    #[test]
    fn slowest_sorts_by_total() {
        let store = TraceStore::new(8);
        for (id, total) in [(1, 300), (2, 100), (3, 500)] {
            store.commit(rec(id, total));
        }
        let top = store.slowest(2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].id, TraceId::from_u64(3));
        assert_eq!(top[1].id, TraceId::from_u64(1));
    }

    #[test]
    fn append_span_extends_total() {
        let store = TraceStore::new(2);
        let seq = store.commit(rec(5, 1_000));
        assert!(store.append_span_at(
            seq,
            TraceId::from_u64(5),
            Stage::Write,
            Duration::from_nanos(250)
        ));
        let r = store.get(TraceId::from_u64(5)).unwrap();
        assert_eq!(r.total_ns, 1_250);
        assert_eq!(r.spans.len(), 1);
        assert_eq!(r.spans[0].start_ns, 1_000);
        assert_eq!(r.spans[0].dur_ns, 250);
        // A mismatched id on a live seq is refused (recycled handle).
        assert!(!store.append_span_at(seq, TraceId::from_u64(99), Stage::Write, Duration::ZERO));
    }

    #[test]
    fn append_span_refuses_evicted_and_unknown_seqs() {
        let store = TraceStore::new(2);
        let first = store.commit(rec(1, 100));
        store.commit(rec(2, 200));
        store.commit(rec(3, 300)); // evicts seq `first`
        assert!(!store.append_span_at(first, TraceId::from_u64(1), Stage::Write, Duration::ZERO));
        assert!(!store.append_span_at(
            first + 10, // never committed
            TraceId::from_u64(3),
            Stage::Write,
            Duration::ZERO
        ));
        // Live seqs still patch.
        assert!(store.append_span_at(
            first + 2,
            TraceId::from_u64(3),
            Stage::Write,
            Duration::from_nanos(7)
        ));
        assert_eq!(store.get(TraceId::from_u64(3)).unwrap().total_ns, 307);
    }
}
