//! Non-Linux placeholder: the API shape of the epoll loop, with
//! [`EventLoop::spawn`] reporting `Unsupported`. The library and the
//! solver commands still compile on these targets, but the service
//! cannot start; the framer and timer wheel remain fully functional and
//! tested.

use std::io;
use std::net::TcpListener;
use std::sync::Arc;

use crate::{ConnId, Handler, NetConfig, NetCounters, WriteTag};

/// Stand-in for the Linux event loop; cannot be constructed.
#[derive(Debug)]
pub struct EventLoop {
    _private: (),
}

/// Stand-in handle; obtainable only from an [`EventLoop`], so never.
#[derive(Clone, Debug)]
pub struct LoopHandle {
    _private: (),
}

impl LoopHandle {
    /// No loop exists to deliver to; unreachable in practice.
    pub fn submit(&self, _: ConnId, _: Vec<u8>, _: bool, _: Option<WriteTag>) {}

    /// No loop exists to stop; unreachable in practice.
    pub fn shutdown(&self) {}
}

impl EventLoop {
    /// Always fails with [`io::ErrorKind::Unsupported`] off Linux.
    pub fn spawn(
        _listener: TcpListener,
        _config: NetConfig,
        _counters: Arc<NetCounters>,
        _handler: Arc<dyn Handler>,
    ) -> io::Result<EventLoop> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the tgp-net event loop requires Linux (epoll)",
        ))
    }

    /// Always fails with [`io::ErrorKind::Unsupported`] off Linux.
    pub fn spawn_shard(
        _shard: u32,
        listener: TcpListener,
        config: NetConfig,
        counters: Arc<NetCounters>,
        handler: Arc<dyn Handler>,
    ) -> io::Result<EventLoop> {
        EventLoop::spawn(listener, config, counters, handler)
    }

    /// Unreachable: no [`EventLoop`] can exist on this target.
    pub fn handle(&self) -> LoopHandle {
        LoopHandle { _private: () }
    }

    /// Unreachable: no [`EventLoop`] can exist on this target.
    pub fn shutdown(self) {}
}
