//! Lock-free fixed-capacity MPSC event journal.
//!
//! The journal is a ring of fixed-size slots. Any number of producer
//! threads append concurrently; each append claims a monotonically
//! increasing ticket with one `fetch_add` and writes its event into
//! slot `ticket % capacity`. When the ring is full the oldest entries
//! are overwritten (drop-oldest) and [`Journal::overwritten`] counts
//! how many were lost. Readers never block writers: each slot carries
//! a sequence word (seqlock) that lets a snapshot detect and discard
//! slots that were mid-overwrite while being copied.
//!
//! Every field of a slot is an `AtomicU64`, so torn reads are
//! impossible at the language level; the sequence protocol only
//! decides whether the copied fields belong to one consistent event.

use std::fmt;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use std::time::Instant;

/// What happened. Encoded as a `u64` inside the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// A connection was accepted by the event loop (`a` = slot index).
    Accept,
    /// A connection was closed (`a` = slot index).
    Close,
    /// A connection timer fired (`a` = slot index, `b` = 0 read / 1 write / 2 idle).
    Timeout,
    /// The framer rejected bytes on a connection (`a` = slot index).
    FrameError,
    /// A request was pushed onto the worker queue (`a` = connection
    /// index).
    Enqueue,
    /// A worker popped the work item (`a` = connection index,
    /// `b` = queue-wait nanoseconds).
    Dequeue,
    /// The queue was full and the work was shed (`a` = connection index).
    Shed,
    /// Result cache hit.
    CacheHit,
    /// Result cache miss.
    CacheMiss,
    /// A response was produced by a worker (`a` = HTTP status,
    /// `b` = handler nanoseconds).
    Respond,
    /// A response finished flushing to the socket (`a` = connection
    /// index, `b` = write nanoseconds).
    WriteDone,
}

impl EventKind {
    const ALL: [EventKind; 11] = [
        EventKind::Accept,
        EventKind::Close,
        EventKind::Timeout,
        EventKind::FrameError,
        EventKind::Enqueue,
        EventKind::Dequeue,
        EventKind::Shed,
        EventKind::CacheHit,
        EventKind::CacheMiss,
        EventKind::Respond,
        EventKind::WriteDone,
    ];

    fn code(self) -> u64 {
        self as u64
    }

    fn from_code(code: u64) -> Option<EventKind> {
        Self::ALL.get(code as usize).copied()
    }

    /// Stable lowercase name, used by `/debug/events` JSON.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Accept => "accept",
            EventKind::Close => "close",
            EventKind::Timeout => "timeout",
            EventKind::FrameError => "frame_error",
            EventKind::Enqueue => "enqueue",
            EventKind::Dequeue => "dequeue",
            EventKind::Shed => "shed",
            EventKind::CacheHit => "cache_hit",
            EventKind::CacheMiss => "cache_miss",
            EventKind::Respond => "respond",
            EventKind::WriteDone => "write_done",
        }
    }
}

/// One decoded journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Ticket number (position in the global append order).
    pub seq: u64,
    /// Nanoseconds since the journal was created.
    pub nanos: u64,
    /// Trace id the event belongs to (0 when not request-scoped).
    pub trace: u64,
    /// Event kind.
    pub kind: EventKind,
    /// Kind-specific payload (see [`EventKind`] docs).
    pub a: u64,
    /// Second kind-specific payload.
    pub b: u64,
}

/// Slot layout: a seqlock word plus five payload words.
///
/// `seq == 2*ticket + 1` while the writer for `ticket` is mid-store,
/// `seq == 2*ticket + 2` once the event for `ticket` is complete.
struct Slot {
    seq: AtomicU64,
    nanos: AtomicU64,
    trace: AtomicU64,
    kind: AtomicU64,
    a: AtomicU64,
    b: AtomicU64,
}

impl Slot {
    fn empty() -> Slot {
        Slot {
            seq: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            kind: AtomicU64::new(0),
            a: AtomicU64::new(0),
            b: AtomicU64::new(0),
        }
    }
}

/// Lock-free fixed-capacity MPSC ring-buffer event journal.
pub struct Journal {
    slots: Box<[Slot]>,
    head: AtomicU64,
    epoch: Instant,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("capacity", &self.slots.len())
            .field("appended", &self.appended())
            .field("overwritten", &self.overwritten())
            .finish()
    }
}

impl Journal {
    /// Create a journal retaining the last `capacity` events
    /// (rounded up to at least 8).
    pub fn new(capacity: usize) -> Journal {
        let capacity = capacity.max(8);
        Journal {
            slots: (0..capacity).map(|_| Slot::empty()).collect(),
            head: AtomicU64::new(0),
            epoch: Instant::now(),
        }
    }

    /// Number of events the ring retains.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Nanoseconds elapsed since the journal was created; the
    /// timestamp base for every event.
    pub fn now_nanos(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Append one event. Lock-free: one `fetch_add` plus six atomic
    /// stores; never blocks, drops the oldest entry when full.
    pub fn append(&self, kind: EventKind, trace: u64, a: u64, b: u64) {
        self.append_nanos(self.now_nanos(), kind, trace, a, b);
    }

    /// [`Journal::append`] stamped with an instant the caller already
    /// read — hot paths that just took a timestamp reuse it instead of
    /// paying a second clock read.
    pub fn append_at(&self, at: Instant, kind: EventKind, trace: u64, a: u64, b: u64) {
        let nanos = at.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.append_nanos(nanos, kind, trace, a, b);
    }

    fn append_nanos(&self, nanos: u64, kind: EventKind, trace: u64, a: u64, b: u64) {
        let ticket = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Seqlock write protocol: mark the slot dirty, publish the
        // fields, then mark it clean with the ticket's even sequence.
        // The fences order the field stores between the two markers so
        // a concurrent snapshot can detect a mid-overwrite slot.
        slot.seq.store(ticket * 2 + 1, Ordering::Relaxed);
        fence(Ordering::Release);
        slot.nanos.store(nanos, Ordering::Relaxed);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.kind.store(kind.code(), Ordering::Relaxed);
        slot.a.store(a, Ordering::Relaxed);
        slot.b.store(b, Ordering::Relaxed);
        slot.seq.store(ticket * 2 + 2, Ordering::Release);
    }

    /// Total events ever appended.
    pub fn appended(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Events lost to drop-oldest overwrite.
    pub fn overwritten(&self) -> u64 {
        self.appended().saturating_sub(self.slots.len() as u64)
    }

    /// Copy out up to `max` most-recent events, oldest first.
    ///
    /// Non-blocking: slots being overwritten concurrently are skipped
    /// (they belong to events newer than the snapshot point anyway).
    pub fn snapshot(&self, max: usize) -> Vec<Event> {
        let head = self.head.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let window = head.min(cap).min(max as u64);
        let mut out = Vec::with_capacity(window as usize);
        for ticket in (head - window)..head {
            let slot = &self.slots[(ticket % cap) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before != ticket * 2 + 2 {
                continue; // not yet written, or already overwritten
            }
            let nanos = slot.nanos.load(Ordering::Relaxed);
            let trace = slot.trace.load(Ordering::Relaxed);
            let kind = slot.kind.load(Ordering::Relaxed);
            let a = slot.a.load(Ordering::Relaxed);
            let b = slot.b.load(Ordering::Relaxed);
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != seq_before {
                continue; // overwritten while copying
            }
            let Some(kind) = EventKind::from_code(kind) else {
                continue;
            };
            out.push(Event {
                seq: ticket,
                nanos,
                trace,
                kind,
                a,
                b,
            });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn append_and_snapshot_in_order() {
        let j = Journal::new(16);
        for i in 0..5 {
            j.append(EventKind::Enqueue, 42, i, i * 10);
        }
        let events = j.snapshot(16);
        assert_eq!(events.len(), 5);
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.seq, i as u64);
            assert_eq!(e.kind, EventKind::Enqueue);
            assert_eq!(e.trace, 42);
            assert_eq!(e.a, i as u64);
            assert_eq!(e.b, i as u64 * 10);
        }
        assert_eq!(j.appended(), 5);
        assert_eq!(j.overwritten(), 0);
    }

    #[test]
    fn wrap_around_keeps_newest_and_counts_overflow() {
        let j = Journal::new(8);
        for i in 0..20 {
            j.append(EventKind::Respond, 0, i, 0);
        }
        assert_eq!(j.appended(), 20);
        assert_eq!(j.overwritten(), 12);
        let events = j.snapshot(64);
        assert_eq!(events.len(), 8);
        let payloads: Vec<u64> = events.iter().map(|e| e.a).collect();
        assert_eq!(payloads, (12..20).collect::<Vec<u64>>());
    }

    #[test]
    fn snapshot_max_limits_to_most_recent() {
        let j = Journal::new(32);
        for i in 0..10 {
            j.append(EventKind::Close, 0, i, 0);
        }
        let events = j.snapshot(3);
        assert_eq!(events.len(), 3);
        assert_eq!(
            events.iter().map(|e| e.a).collect::<Vec<u64>>(),
            vec![7, 8, 9]
        );
    }

    #[test]
    fn timestamps_are_monotonic_per_producer() {
        let j = Journal::new(8);
        j.append(EventKind::Accept, 0, 0, 0);
        j.append(EventKind::Close, 0, 0, 0);
        let events = j.snapshot(8);
        assert!(events[0].nanos <= events[1].nanos);
    }

    #[test]
    fn concurrent_producers_lose_nothing_but_overwritten() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 5_000;
        let j = Arc::new(Journal::new(1024));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let j = Arc::clone(&j);
                thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        j.append(EventKind::Enqueue, t, i, t * PER_THREAD + i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(j.appended(), THREADS * PER_THREAD);
        assert_eq!(j.overwritten(), THREADS * PER_THREAD - 1024);
        let events = j.snapshot(2048);
        // Quiescent ring: nearly every slot holds a complete event (a
        // writer descheduled for more than a full ring lap can leave a
        // stale slot that the snapshot correctly skips).
        assert!(events.len() >= 1000, "only {} readable", events.len());
        assert!(events.len() <= 1024);
        // Events decode consistently: payload b encodes (trace, a).
        for e in &events {
            assert_eq!(e.b, e.trace * PER_THREAD + e.a, "torn slot: {e:?}");
        }
        // Snapshot is in global ticket order.
        for pair in events.windows(2) {
            assert!(pair[0].seq < pair[1].seq);
        }
    }

    #[test]
    fn snapshot_during_concurrent_writes_never_tears() {
        let j = Arc::new(Journal::new(64));
        let stop = Arc::new(AtomicU64::new(0));
        let writers: Vec<_> = (0..4u64)
            .map(|t| {
                let j = Arc::clone(&j);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut i = 0u64;
                    while stop.load(Ordering::Relaxed) == 0 {
                        j.append(EventKind::Dequeue, t, i, t.wrapping_mul(1_000_000) ^ i);
                        i += 1;
                    }
                })
            })
            .collect();
        for _ in 0..200 {
            for e in j.snapshot(64) {
                assert_eq!(
                    e.b,
                    e.trace.wrapping_mul(1_000_000) ^ e.a,
                    "torn slot: {e:?}"
                );
            }
        }
        stop.store(1, Ordering::Relaxed);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn minimum_capacity_is_enforced() {
        let j = Journal::new(0);
        assert_eq!(j.capacity(), 8);
    }
}
