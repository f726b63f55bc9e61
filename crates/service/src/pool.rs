//! A bounded MPMC queue feeding the worker pool.
//!
//! The event loop pushes framed requests with [`BoundedQueue::try_push`];
//! when the queue is full the push fails immediately and the loop sheds
//! load with a canned 503 instead of letting latency grow without
//! bound. Workers block in [`BoundedQueue::pop`] until work arrives or
//! the queue is closed for shutdown.
//!
//! The queue carries [`Work`]: framed requests from the event loop
//! *and* individual batch subtasks scattered by a worker coordinating a
//! `/v1/partition` batch (see [`crate::api::BatchSubtask`] for why that
//! can never deadlock).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use crate::api::BatchSubtask;
use tgp_net::{ConnId, LoopHandle};
use tgp_obs::TraceId;

/// One unit of work a pool worker can execute.
#[derive(Debug)]
pub enum Work {
    /// One complete framed request: parse, handle, and submit the
    /// response back through the event loop. The worker never touches a
    /// socket.
    Request {
        /// Which connection the request arrived on.
        conn: ConnId,
        /// The exact wire bytes of one request (head + body).
        bytes: Vec<u8>,
        /// Where to deliver the serialized response.
        reply: LoopHandle,
        /// Trace id minted when the request was framed.
        trace: TraceId,
        /// When the loop pushed the request onto the queue.
        enqueued_at: Instant,
        /// Absolute deadline parsed from the `x-deadline-ms` header at
        /// frame time. Workers drop still-queued requests whose
        /// deadline already passed without parsing them.
        deadline: Option<Instant>,
    },
    /// One chunk of a scattered partition batch.
    Batch(BatchSubtask),
}

/// Why a push was refused.
#[derive(Debug)]
pub enum PushError<T> {
    /// The queue was at capacity; the item is handed back.
    Full(T),
    /// The queue was closed (server shutting down); the item is handed
    /// back.
    Closed(T),
}

#[derive(Debug)]
struct Inner<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// Fixed-capacity blocking queue.
#[derive(Debug)]
pub struct BoundedQueue<T> {
    inner: Mutex<Inner<T>>,
    available: Condvar,
    capacity: usize,
}

impl<T> BoundedQueue<T> {
    /// Creates a queue holding at most `capacity` items.
    pub fn new(capacity: usize) -> Self {
        BoundedQueue {
            inner: Mutex::new(Inner {
                items: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            available: Condvar::new(),
            capacity,
        }
    }

    /// Enqueues without blocking; fails when full or closed.
    pub fn try_push(&self, item: T) -> Result<(), PushError<T>> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        if inner.closed {
            return Err(PushError::Closed(item));
        }
        if inner.items.len() >= self.capacity {
            return Err(PushError::Full(item));
        }
        inner.items.push_back(item);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available; returns `None` once the queue
    /// is closed *and* drained, which is each worker's exit signal.
    pub fn pop(&self) -> Option<T> {
        let mut inner = self.inner.lock().expect("queue poisoned");
        loop {
            if let Some(item) = inner.items.pop_front() {
                return Some(item);
            }
            if inner.closed {
                return None;
            }
            inner = self.available.wait(inner).expect("queue poisoned");
        }
    }

    /// Closes the queue: pending items still drain, new pushes fail, and
    /// blocked workers wake.
    pub fn close(&self) {
        self.inner.lock().expect("queue poisoned").closed = true;
        self.available.notify_all();
    }

    /// Current number of queued items.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("queue poisoned").items.len()
    }

    /// The fixed capacity the queue was created with.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the queue is currently empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The per-loop queues of a sharded server, behind one facade.
///
/// Each event loop of a [`tgp_net::LoopSet`] pushes its framed requests
/// onto its *own* [`BoundedQueue`], and its pinned worker slice pops
/// only from that queue — the request hot path never takes a queue lock
/// that another loop contends on. The cross-loop surface is limited to:
///
/// - **batch scatter** ([`QueueSet::try_push_rotating`]): a coordinator
///   spreads subtasks round-robin across all shards so a big batch uses
///   every core, not just its own loop's workers (a full shard is
///   skipped; if all are full the push fails and the coordinator runs
///   the chunk inline — same no-deadlock argument as before);
/// - **occupancy reads** ([`QueueSet::len`]/[`QueueSet::capacity`]):
///   admission control sheds on *total* occupancy, one lock per shard
///   per probe, off the per-request path of other loops.
#[derive(Debug)]
pub struct QueueSet<T = Work> {
    shards: Vec<Arc<BoundedQueue<T>>>,
    /// Round-robin cursor for batch scatter.
    rr: std::sync::atomic::AtomicUsize,
}

impl<T> QueueSet<T> {
    /// Wraps per-loop queues; `shards` must be non-empty.
    pub fn new(shards: Vec<Arc<BoundedQueue<T>>>) -> QueueSet<T> {
        assert!(!shards.is_empty(), "QueueSet needs at least one shard");
        QueueSet {
            shards,
            rr: std::sync::atomic::AtomicUsize::new(0),
        }
    }

    /// A single-queue set (a 1-loop server).
    pub fn single(queue: Arc<BoundedQueue<T>>) -> QueueSet<T> {
        QueueSet::new(vec![queue])
    }

    /// Shard `i`'s queue (`None` beyond the shard count).
    pub fn shard(&self, i: usize) -> Option<&Arc<BoundedQueue<T>>> {
        self.shards.get(i)
    }

    /// Number of per-loop queues.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Pushes onto the next shard in round-robin order, falling through
    /// full shards; fails only when *every* shard refuses. Used by
    /// batch scatter so subtasks spread across all loops' workers.
    pub fn try_push_rotating(&self, mut item: T) -> Result<(), PushError<T>> {
        let start = self.rr.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut last = None;
        for offset in 0..self.shards.len() {
            let shard = &self.shards[(start + offset) % self.shards.len()];
            match shard.try_push(item) {
                Ok(()) => return Ok(()),
                Err(PushError::Full(back)) => {
                    item = back;
                    last = Some(false);
                }
                Err(PushError::Closed(back)) => {
                    item = back;
                    last = Some(true);
                }
            }
        }
        Err(if last == Some(true) {
            PushError::Closed(item)
        } else {
            PushError::Full(item)
        })
    }

    /// Total queued items across every shard.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|q| q.len()).sum()
    }

    /// Whether every shard is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total capacity across every shard.
    pub fn capacity(&self) -> usize {
        self.shards.iter().map(|q| q.capacity()).sum()
    }

    /// Closes every shard (shutdown).
    pub fn close(&self) {
        for shard in &self.shards {
            shard.close();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_set_rotates_and_falls_through_full_shards() {
        let shards = [
            Arc::new(BoundedQueue::new(1)),
            Arc::new(BoundedQueue::new(1)),
        ];
        let set = QueueSet::new(vec![Arc::clone(&shards[0]), Arc::clone(&shards[1])]);
        set.try_push_rotating(10).unwrap();
        set.try_push_rotating(20).unwrap();
        // Round-robin: one item per shard, not two on one.
        assert_eq!(shards[0].len(), 1);
        assert_eq!(shards[1].len(), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.capacity(), 2);
        // Every shard full → the item comes back.
        match set.try_push_rotating(30) {
            Err(PushError::Full(30)) => {}
            other => panic!("expected Full(30), got {other:?}"),
        }
        // One shard drains → the rotating push lands there even if the
        // cursor points at the still-full one.
        assert!(shards[0].pop().is_some());
        set.try_push_rotating(40).unwrap();
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn queue_set_close_closes_every_shard() {
        let set: QueueSet<u32> = QueueSet::new(vec![
            Arc::new(BoundedQueue::new(2)),
            Arc::new(BoundedQueue::new(2)),
        ]);
        set.close();
        match set.try_push_rotating(1) {
            Err(PushError::Closed(1)) => {}
            other => panic!("expected Closed(1), got {other:?}"),
        }
    }

    #[test]
    fn push_pop_fifo() {
        let q = BoundedQueue::new(4);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        assert_eq!(q.pop(), Some(1));
        assert_eq!(q.pop(), Some(2));
    }

    #[test]
    fn full_queue_refuses_without_blocking() {
        let q = BoundedQueue::new(2);
        q.try_push(1).unwrap();
        q.try_push(2).unwrap();
        match q.try_push(3) {
            Err(PushError::Full(3)) => {}
            other => panic!("expected Full(3), got {other:?}"),
        }
    }

    #[test]
    fn close_drains_then_wakes_poppers() {
        let q = Arc::new(BoundedQueue::new(4));
        q.try_push(7).unwrap();
        q.close();
        assert_eq!(q.pop(), Some(7)); // still drains
        assert_eq!(q.pop(), None); // then signals exit
        match q.try_push(8) {
            Err(PushError::Closed(8)) => {}
            other => panic!("expected Closed(8), got {other:?}"),
        }
    }

    #[test]
    fn blocked_worker_wakes_on_push() {
        let q = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.try_push(99).unwrap();
        assert_eq!(handle.join().unwrap(), Some(99));
    }

    #[test]
    fn blocked_worker_wakes_on_close() {
        let q: Arc<BoundedQueue<u32>> = Arc::new(BoundedQueue::new(1));
        let q2 = Arc::clone(&q);
        let handle = std::thread::spawn(move || q2.pop());
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.close();
        assert_eq!(handle.join().unwrap(), None);
    }

    #[test]
    fn many_producers_many_consumers() {
        let q = Arc::new(BoundedQueue::new(64));
        let mut producers = Vec::new();
        for t in 0..4 {
            let q = Arc::clone(&q);
            producers.push(std::thread::spawn(move || {
                let mut pushed = 0u32;
                for i in 0..500u32 {
                    if q.try_push(t * 1000 + i).is_ok() {
                        pushed += 1;
                    }
                    std::thread::yield_now();
                }
                pushed
            }));
        }
        let consumers: Vec<_> = (0..4)
            .map(|_| {
                let q = Arc::clone(&q);
                std::thread::spawn(move || {
                    let mut got = 0u32;
                    while q.pop().is_some() {
                        got += 1;
                    }
                    got
                })
            })
            .collect();
        let pushed: u32 = producers.into_iter().map(|p| p.join().unwrap()).sum();
        q.close();
        let got: u32 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
        assert_eq!(pushed, got);
    }
}
