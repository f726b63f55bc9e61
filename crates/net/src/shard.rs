//! The sharded multi-loop runtime: N `SO_REUSEPORT` listeners, one
//! [`EventLoop`] per core.
//!
//! A single event loop owns one accept path, one timer wheel, and one
//! eventfd — which caps dispatch at one core no matter how many workers
//! compute behind it. A [`LoopSet`] removes that ceiling with the same
//! shared-memory discipline the partitioning paper applies to task
//! graphs: give each of the p processors its own slice of the contended
//! state. Concretely:
//!
//! - every loop binds its *own* listener to the *same* address with
//!   `SO_REUSEPORT` set before bind, so the kernel hashes incoming
//!   connections (by 4-tuple) across the listeners' accept queues — no
//!   user-space accept lock, no thundering herd;
//! - every loop has its own epoll set, timer wheel, eventfd waker, and
//!   generation-tagged token space; a [`crate::ConnId`] carries the
//!   loop's `shard` id so ids stay distinct across loops;
//! - every loop gets its own [`NetCounters`] (so `/metrics` can both
//!   label per-loop series and sum request totals) and its own
//!   [`Handler`] (so the service can pin a worker-pool slice per loop
//!   and never take a queue lock across loops).
//!
//! Closing one listener (see [`LoopSet::shutdown_one`]) makes the
//! kernel redistribute new connections over the remaining shards, which
//! is what makes losing a loop a capacity event instead of an outage.
//!
//! Binding is Linux-only (it needs the raw `SO_REUSEPORT` socket path
//! in the private `sys` module); elsewhere [`LoopSet::bind`] reports
//! `Unsupported`, matching the stub [`EventLoop`].

use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;

use crate::{EventLoop, Handler, LoopHandle, NetConfig, NetCounters};

/// Everything one shard of a [`LoopSet`] needs: its listener (from
/// [`LoopSet::bind`]), its own counters, and its own handler.
pub struct ShardSpec {
    /// The shard's `SO_REUSEPORT` listener.
    pub listener: TcpListener,
    /// Per-loop counters; the service renders them with `loop=` labels
    /// and sums them for the totals.
    pub counters: Arc<NetCounters>,
    /// Per-loop request handler (typically wrapping a per-loop queue).
    pub handler: Arc<dyn Handler>,
}

impl std::fmt::Debug for ShardSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardSpec")
            .field("listener", &self.listener)
            .finish_non_exhaustive()
    }
}

/// A set of running event loops sharing one listening address.
#[derive(Debug)]
pub struct LoopSet {
    /// `None` marks a shard that was individually shut down.
    loops: Vec<Option<EventLoop>>,
}

impl LoopSet {
    /// Binds `n` `SO_REUSEPORT` listeners to `addr` and returns them
    /// with the resolved local address. Port 0 works: the first bind
    /// picks the ephemeral port and the remaining listeners join it.
    #[cfg(target_os = "linux")]
    pub fn bind(addr: &SocketAddr, n: usize) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
        let n = n.max(1);
        let first = crate::sys::reuseport_listener(addr)?;
        let local = first.local_addr()?;
        let mut listeners = Vec::with_capacity(n);
        listeners.push(first);
        for _ in 1..n {
            listeners.push(crate::sys::reuseport_listener(&local)?);
        }
        Ok((listeners, local))
    }

    /// `SO_REUSEPORT` binding needs the Linux socket path; off Linux
    /// this reports `Unsupported` like the stub [`EventLoop`].
    #[cfg(not(target_os = "linux"))]
    pub fn bind(_addr: &SocketAddr, _n: usize) -> io::Result<(Vec<TcpListener>, SocketAddr)> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "sharded listeners require Linux (SO_REUSEPORT)",
        ))
    }

    /// Starts one event loop per [`ShardSpec`], shard ids assigned in
    /// order. On a mid-way spawn failure the already-started loops are
    /// shut down before the error is returned.
    pub fn spawn(shards: Vec<ShardSpec>, config: &NetConfig) -> io::Result<LoopSet> {
        let mut loops: Vec<Option<EventLoop>> = Vec::with_capacity(shards.len());
        for (id, spec) in shards.into_iter().enumerate() {
            match EventLoop::spawn_shard(
                id as u32,
                spec.listener,
                config.clone(),
                spec.counters,
                spec.handler,
            ) {
                Ok(event_loop) => loops.push(Some(event_loop)),
                Err(e) => {
                    for started in loops.into_iter().flatten() {
                        started.shutdown();
                    }
                    return Err(e);
                }
            }
        }
        Ok(LoopSet { loops })
    }

    /// Number of shards the set was spawned with (including any since
    /// shut down individually).
    pub fn len(&self) -> usize {
        self.loops.len()
    }

    /// `true` when the set has no shards at all.
    pub fn is_empty(&self) -> bool {
        self.loops.is_empty()
    }

    /// The submit/shutdown handle of shard `i` (`None` when that shard
    /// was already shut down).
    pub fn handle(&self, i: usize) -> Option<LoopHandle> {
        self.loops
            .get(i)
            .and_then(|l| l.as_ref())
            .map(EventLoop::handle)
    }

    /// Shuts down shard `i` alone and waits for its drain: its listener
    /// closes, so the kernel redistributes new connections across the
    /// remaining shards. Returns `false` if `i` was already down.
    /// This is the degraded-capacity path (and the robustness-test
    /// hook); whole-set teardown is [`LoopSet::shutdown`].
    pub fn shutdown_one(&mut self, i: usize) -> bool {
        match self.loops.get_mut(i).and_then(Option::take) {
            Some(event_loop) => {
                event_loop.shutdown();
                true
            }
            None => false,
        }
    }

    /// Signals every loop to drain, then joins them all. Signalling
    /// first means the shards drain concurrently — total teardown time
    /// is one drain window, not one per shard.
    pub fn shutdown(self) {
        for event_loop in self.loops.iter().flatten() {
            event_loop.handle().shutdown();
        }
        for event_loop in self.loops.into_iter().flatten() {
            event_loop.shutdown();
        }
    }
}
