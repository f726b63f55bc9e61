//! The epoll event loop: accept, per-connection state machines,
//! timeouts, and the completion channel back from worker threads.
//!
//! One thread runs [`EventLoop`]; everything it owns — the listener,
//! the connection slab, the timer wheel — is single-threaded and
//! lock-free. The only cross-thread surface is [`LoopHandle`]: a
//! mutex-guarded completion vector plus an eventfd waker, which worker
//! threads use to hand finished responses back.
//!
//! Connection lifecycle:
//!
//! ```text
//!  accept ──► Reading ──frame──► Dispatched ──submit──► Writing ──┐
//!               ▲   │ (complete)  (parked,               │        │
//!               │   │             interest ∅)            │ done   │
//!               │   └─► [frame error] ────► Writing ─────┤        │
//!               │                          (then close)  ▼        │
//!               └────────────── keep-alive ◄── residual? ┴─ close ◄┘
//! ```
//!
//! Timeout policy (one armed timer per connection, superseded by
//! generation bump): *read* = total deadline per request from its
//! first byte; *write* = progress-based deadline per response (the
//! timer renews while at least [`WRITE_MIN_BYTES`] reach the socket per
//! interval, so large responses to slow-but-live readers survive while
//! byte-at-a-time readers still reap); *idle* = quiet keep-alive
//! connection. Dispatched connections carry no timer — the worker pool
//! owns their latency.
//!
//! One `EventLoop` is a complete single-threaded runtime; a
//! [`crate::LoopSet`] runs several of them over `SO_REUSEPORT` listener
//! shards, each loop carrying its own `shard` id so [`ConnId`]s stay
//! distinct across loops.

use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use tgp_obs::EventKind;

use crate::framer::{frame, FrameLimits, FrameStatus};
use crate::poll::{Event, Interest, Poller, Token, Waker};
use crate::sys;
use crate::timer::{TimeoutKind, TimerWheel};
use crate::{Action, ConnId, Handler, NetConfig, NetCounters, WriteTag, WRITE_MIN_BYTES};

const LISTENER_TOKEN: Token = u64::MAX;
const WAKER_TOKEN: Token = u64::MAX - 1;

/// Most bytes one connection may pull off its socket per readiness
/// event. A client shoving pipelined requests faster than the loop
/// drains them would otherwise keep `read()` returning data forever,
/// pinning the loop thread on one connection and growing `read_buf`
/// without bound. Level-triggered epoll redelivers, so the remainder is
/// picked up next iteration — after every other ready fd had a turn.
/// It is also the size of the loop's one scratch buffer, which every
/// `read` fills before its bytes are appended to the connection's
/// `read_buf`: a whole event's budget in one system call, while a
/// connection's own buffer still grows only by the bytes that arrived.
const READ_BUDGET_PER_EVENT: usize = 64 * 1024;

/// How long accepting stays paused after `accept` fails with
/// EMFILE/ENFILE. Those errors leave the pending connection in the
/// kernel queue, so retrying immediately fails identically forever; a
/// short pause lets closes free fds (a close also resumes eagerly).
const ACCEPT_EXHAUSTION_PAUSE: Duration = Duration::from_millis(100);

/// A worker's finished response travelling back to the loop.
struct Completion {
    conn: ConnId,
    bytes: Vec<u8>,
    keep_alive: bool,
    tag: Option<WriteTag>,
}

/// State shared between the loop thread and [`LoopHandle`] clones.
struct Shared {
    completions: Mutex<Vec<Completion>>,
    stop: AtomicBool,
    waker: Waker,
}

/// Cheap-to-clone handle for answering dispatched requests and for
/// shutting the loop down. Safe to use from any thread.
#[derive(Clone)]
pub struct LoopHandle {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for LoopHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LoopHandle").finish_non_exhaustive()
    }
}

impl LoopHandle {
    /// Queues the wire response for `conn` and wakes the loop. If the
    /// connection died in the meantime the response is dropped — the
    /// generation in [`ConnId`] guarantees it can never reach a peer
    /// that reused the slot. `tag` comes back through
    /// [`Handler::on_write_complete`] once the response is flushed.
    pub fn submit(&self, conn: ConnId, bytes: Vec<u8>, keep_alive: bool, tag: Option<WriteTag>) {
        self.shared.completions.lock().unwrap().push(Completion {
            conn,
            bytes,
            keep_alive,
            tag,
        });
        self.shared.waker.wake();
    }

    /// Asks the loop to drain and exit: accepting stops immediately,
    /// idle connections close, and in-flight requests get
    /// `drain_timeout` to finish.
    pub fn shutdown(&self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.waker.wake();
    }
}

/// A running event loop (the thread plus its [`LoopHandle`]).
pub struct EventLoop {
    handle: LoopHandle,
    thread: JoinHandle<()>,
}

impl std::fmt::Debug for EventLoop {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventLoop").finish_non_exhaustive()
    }
}

impl EventLoop {
    /// Takes ownership of `listener` and starts the loop thread.
    /// Requests surface through `handler`; counters through `counters`.
    /// A standalone loop is shard 0.
    pub fn spawn(
        listener: TcpListener,
        config: NetConfig,
        counters: Arc<NetCounters>,
        handler: Arc<dyn Handler>,
    ) -> io::Result<EventLoop> {
        EventLoop::spawn_shard(0, listener, config, counters, handler)
    }

    /// [`EventLoop::spawn`] for one shard of a [`crate::LoopSet`]:
    /// `shard` is stamped into every [`ConnId`] the loop hands out.
    pub fn spawn_shard(
        shard: u32,
        listener: TcpListener,
        config: NetConfig,
        counters: Arc<NetCounters>,
        handler: Arc<dyn Handler>,
    ) -> io::Result<EventLoop> {
        listener.set_nonblocking(true)?;
        let poller = Poller::new(config.max_connections.min(1024) + 2)?;
        poller.register(&listener, LISTENER_TOKEN, Interest::READ)?;
        let waker = Waker::new(&poller, WAKER_TOKEN)?;
        let shared = Arc::new(Shared {
            completions: Mutex::new(Vec::new()),
            stop: AtomicBool::new(false),
            waker,
        });
        let handle = LoopHandle {
            shared: Arc::clone(&shared),
        };
        let state = Loop {
            shard,
            poller,
            listener,
            accept_paused: false,
            accept_resume_at: None,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            wheel: TimerWheel::new(Instant::now()),
            timer_seq: 0,
            limits: FrameLimits {
                max_head_bytes: config.max_head_bytes,
                max_body_bytes: config.max_body_bytes,
            },
            scratch: vec![0; READ_BUDGET_PER_EVENT].into_boxed_slice(),
            config,
            counters,
            handler,
            handle: handle.clone(),
            drain_deadline: None,
        };
        let thread = thread::Builder::new()
            .name(format!("tgp-net-loop-{shard}"))
            .spawn(move || state.run())?;
        Ok(EventLoop { handle, thread })
    }

    /// A handle for workers to answer through.
    pub fn handle(&self) -> LoopHandle {
        self.handle.clone()
    }

    /// Signals shutdown and waits for the drain to finish.
    pub fn shutdown(self) {
        self.handle.shutdown();
        let _ = self.thread.join();
    }
}

/// What a connection is currently doing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConnState {
    /// Accumulating request bytes until the framer says complete.
    Reading,
    /// A complete request is with the worker pool; no readiness
    /// interest, no timer.
    Dispatched,
    /// Flushing a response, resuming on `EPOLLOUT` after short writes.
    Writing,
}

struct Connection {
    stream: TcpStream,
    state: ConnState,
    interest: Interest,
    /// Wheel generation of the currently armed timer (0 = none).
    timer_gen: u64,
    read_buf: Vec<u8>,
    write_buf: Vec<u8>,
    written: usize,
    /// `written` as of the last write-timer arm/renewal; the progress
    /// baseline the next firing compares against.
    write_mark: usize,
    /// Reuse the connection after the current response.
    keep_alive: bool,
    /// Peer half-closed (EPOLLRDHUP): finish the in-flight response,
    /// then close instead of waiting for more requests.
    rdhup: bool,
    /// When the current response's first write was attempted; reported
    /// to [`Handler::on_write_complete`] once the flush finishes.
    write_started: Option<Instant>,
    /// The current response's [`WriteTag`], handed back with it.
    write_tag: Option<WriteTag>,
}

/// One slab slot. `generation` survives reuse so stale tokens and
/// completions are detectable.
struct Slot {
    generation: u32,
    conn: Option<Connection>,
}

struct Loop {
    /// This loop's id within its [`crate::LoopSet`] (0 standalone);
    /// stamped into every [`ConnId`] handed across the thread boundary.
    shard: u32,
    poller: Poller,
    listener: TcpListener,
    accept_paused: bool,
    /// When set, a paused listener re-registers at this instant (the
    /// timed recovery path for fd exhaustion; cap-triggered pauses
    /// resume on connection close instead).
    accept_resume_at: Option<Instant>,
    slots: Vec<Slot>,
    free: Vec<usize>,
    open: usize,
    wheel: TimerWheel,
    /// Monotonic wheel-generation source (never reused, so entries from
    /// a slot's previous occupant can never match its current one).
    timer_seq: u64,
    limits: FrameLimits,
    /// Where each `read` lands first (see [`READ_BUDGET_PER_EVENT`]).
    scratch: Box<[u8]>,
    config: NetConfig,
    counters: Arc<NetCounters>,
    handler: Arc<dyn Handler>,
    handle: LoopHandle,
    drain_deadline: Option<Instant>,
}

impl Loop {
    /// Appends a connection-lifecycle event to the configured journal
    /// (no-op without one). Trace ids are unknown at this layer; the
    /// service journals the request-scoped events.
    fn journal_event(&self, kind: EventKind, a: u64, b: u64) {
        if let Some(journal) = &self.config.journal {
            journal.append(kind, 0, a, b);
        }
    }

    fn run(mut self) {
        loop {
            let now = Instant::now();
            self.fire_timers(now);
            if self.accept_resume_at.is_some_and(|at| now >= at) {
                self.resume_accept();
            }
            self.drain_completions();
            if self.handle.shared.stop.load(Ordering::Acquire) && self.drain_deadline.is_none() {
                self.begin_drain(now);
            }
            if let Some(deadline) = self.drain_deadline {
                if self.open == 0 || now >= deadline {
                    break;
                }
            }
            let timeout_ms = self.wait_budget_ms(now);
            let events = match self.poller.wait(timeout_ms) {
                Ok(events) => events,
                Err(_) => break, // epoll fd itself failed; nothing to salvage
            };
            if !events.is_empty() {
                self.counters
                    .readiness_wakeups
                    .fetch_add(1, Ordering::Relaxed);
            }
            for event in events {
                match event.token {
                    LISTENER_TOKEN => self.accept_ready(),
                    WAKER_TOKEN => self.handle.shared.waker.drain(),
                    token => self.conn_event(token, event),
                }
            }
        }
        // Force-close whatever outlived the drain deadline.
        for idx in 0..self.slots.len() {
            if self.slots[idx].conn.is_some() {
                self.close_conn(idx);
            }
        }
    }

    /// How long `epoll_wait` may block: until the next timer sweep, the
    /// drain deadline, or the accept-resume instant, whichever is
    /// sooner. Minimum 1 ms so a just-missed tick does not busy-spin.
    fn wait_budget_ms(&self, now: Instant) -> i32 {
        let mut budget = self.wheel.next_sweep_in(now);
        if let Some(deadline) = self.drain_deadline {
            budget = budget.min(deadline.saturating_duration_since(now));
        }
        if let Some(resume_at) = self.accept_resume_at {
            budget = budget.min(resume_at.saturating_duration_since(now));
        }
        (budget.as_millis() as i32).max(1)
    }

    fn fire_timers(&mut self, now: Instant) {
        for expired in self.wheel.expire(now) {
            let live = self
                .slots
                .get(expired.conn)
                .and_then(|slot| slot.conn.as_ref())
                .is_some_and(|conn| conn.timer_gen == expired.generation);
            if live {
                if expired.kind == TimeoutKind::Write && self.renew_write_timer(expired.conn) {
                    continue;
                }
                self.counters
                    .timeout_closes(expired.kind)
                    .fetch_add(1, Ordering::Relaxed);
                self.journal_event(
                    EventKind::Timeout,
                    expired.conn as u64,
                    match expired.kind {
                        TimeoutKind::Read => 0,
                        TimeoutKind::Write => 1,
                        TimeoutKind::Idle => 2,
                    },
                );
                self.close_conn(expired.conn);
            }
        }
    }

    /// A live write timer fired: renew it (and return `true`) if the
    /// connection flushed at least [`WRITE_MIN_BYTES`] since the timer
    /// was armed — the reader is slow but draining.
    fn renew_write_timer(&mut self, idx: usize) -> bool {
        let progressed = self.slots[idx]
            .conn
            .as_mut()
            .filter(|conn| conn.state == ConnState::Writing)
            .is_some_and(|conn| {
                let moved = conn.written.saturating_sub(conn.write_mark) >= WRITE_MIN_BYTES;
                if moved {
                    conn.write_mark = conn.written;
                }
                moved
            });
        if progressed {
            self.arm_timer(idx, TimeoutKind::Write);
        }
        progressed
    }

    // ---- accept ---------------------------------------------------

    fn accept_ready(&mut self) {
        loop {
            if self.open >= self.config.max_connections {
                self.pause_accept();
                return;
            }
            match self.listener.accept() {
                Ok((stream, _)) => self.add_conn(stream),
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => return,
                // The peer aborted between the kernel queue and our
                // accept: that slot is consumed, keep accepting.
                Err(ref e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    // EMFILE/ENFILE do NOT consume the pending
                    // connection — accept would fail identically on an
                    // immediate retry, so park the listener until a
                    // close frees an fd or the pause elapses.
                    if matches!(e.raw_os_error(), Some(sys::EMFILE | sys::ENFILE)) {
                        self.pause_accept();
                        self.accept_resume_at = Some(Instant::now() + ACCEPT_EXHAUSTION_PAUSE);
                    }
                    // Anything else: bail out of the inner loop so
                    // timers, completions, and open connections keep
                    // being serviced; level-triggered epoll redelivers
                    // the listener if it is still ready.
                    return;
                }
            }
        }
    }

    fn pause_accept(&mut self) {
        if !self.accept_paused {
            self.accept_paused = true;
            self.counters
                .accept_backpressure
                .fetch_add(1, Ordering::Relaxed);
            let _ = self.poller.deregister(&self.listener);
        }
    }

    fn resume_accept(&mut self) {
        if self.accept_paused && self.drain_deadline.is_none() {
            self.accept_paused = false;
            self.accept_resume_at = None;
            let _ = self
                .poller
                .register(&self.listener, LISTENER_TOKEN, Interest::READ);
        }
    }

    fn add_conn(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        let _ = stream.set_nodelay(true);
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot {
                generation: 0,
                conn: None,
            });
            self.slots.len() - 1
        });
        let token = self.token_of(idx);
        if self
            .poller
            .register(&stream, token, Interest::READ)
            .is_err()
        {
            self.free.push(idx);
            return;
        }
        self.slots[idx].conn = Some(Connection {
            stream,
            state: ConnState::Reading,
            interest: Interest::READ,
            timer_gen: 0,
            read_buf: Vec::new(),
            write_buf: Vec::new(),
            written: 0,
            write_mark: 0,
            keep_alive: true,
            rdhup: false,
            write_started: None,
            write_tag: None,
        });
        self.open += 1;
        self.counters
            .open_connections
            .fetch_add(1, Ordering::Relaxed);
        self.counters.accepted_total.fetch_add(1, Ordering::Relaxed);
        self.journal_event(EventKind::Accept, idx as u64, 0);
        // The first request's total deadline starts at accept.
        self.arm_timer(idx, TimeoutKind::Read);
    }

    fn token_of(&self, idx: usize) -> Token {
        self.conn_id(idx).token()
    }

    fn conn_id(&self, idx: usize) -> ConnId {
        ConnId {
            shard: self.shard,
            index: idx as u32,
            generation: self.slots[idx].generation,
        }
    }

    fn close_conn(&mut self, idx: usize) {
        if let Some(conn) = self.slots[idx].conn.take() {
            // Dropping the stream closes the fd, which also removes it
            // from the epoll set.
            drop(conn);
            self.journal_event(EventKind::Close, idx as u64, 0);
            self.slots[idx].generation = self.slots[idx].generation.wrapping_add(1);
            self.free.push(idx);
            self.open -= 1;
            self.counters
                .open_connections
                .fetch_sub(1, Ordering::Relaxed);
            self.resume_accept();
        }
    }

    // ---- timers ---------------------------------------------------

    fn arm_timer(&mut self, idx: usize, kind: TimeoutKind) {
        let duration = match kind {
            TimeoutKind::Read => self.config.read_timeout,
            TimeoutKind::Write => self.config.write_timeout,
            TimeoutKind::Idle => self.config.idle_timeout,
        };
        self.timer_seq += 1;
        let generation = self.timer_seq;
        if let Some(conn) = self.slots[idx].conn.as_mut() {
            conn.timer_gen = generation;
        }
        self.wheel
            .arm(idx, generation, Instant::now() + duration, kind);
    }

    fn cancel_timer(&mut self, idx: usize) {
        if let Some(conn) = self.slots[idx].conn.as_mut() {
            conn.timer_gen = 0;
        }
    }

    // ---- readiness dispatch --------------------------------------

    fn conn_event(&mut self, token: Token, event: Event) {
        let id = ConnId::from_token(token, self.shard);
        let idx = id.index as usize;
        let (state, rdhup_recorded) = {
            let Some(slot) = self.slots.get_mut(idx) else {
                return;
            };
            if slot.generation != id.generation {
                return; // stale event for a previous occupant
            }
            let Some(conn) = slot.conn.as_mut() else {
                return;
            };
            let mut rdhup_recorded = false;
            if event.readable && conn.state != ConnState::Reading {
                // EPOLLRDHUP while writing or dispatched: the peer
                // half-closed. The in-flight response still goes out
                // (their read half may be open) but the connection is
                // not reused afterwards.
                if !conn.rdhup {
                    conn.rdhup = true;
                    rdhup_recorded = true;
                }
                if conn.state == ConnState::Writing {
                    conn.keep_alive = false;
                }
            }
            (conn.state, rdhup_recorded)
        };
        if event.closed {
            self.close_conn(idx);
            return;
        }
        if rdhup_recorded {
            // The half-close is level-triggered: with EPOLLRDHUP still
            // subscribed, every epoll_wait would return this connection
            // immediately until the worker answers or the write
            // finishes. Re-register with the same readiness bits minus
            // RDHUP (set_interest drops it now that conn.rdhup is set).
            let current = self.slots[idx].conn.as_ref().unwrap().interest;
            self.set_interest(idx, current);
            if self.slots[idx].conn.is_none() {
                return; // re-registration failed and closed the conn
            }
        }
        match state {
            ConnState::Reading if event.readable && self.fill_read_buf(idx) => {
                self.advance(idx);
            }
            ConnState::Writing if event.writable => self.advance(idx),
            _ => {}
        }
    }

    /// Reads what is currently available, up to
    /// [`READ_BUDGET_PER_EVENT`] bytes — level-triggered epoll
    /// redelivers the remainder on the next loop iteration, so one
    /// fire-hose client cannot pin the loop thread or grow `read_buf`
    /// unboundedly while other connections wait. Returns `false` if the
    /// connection was closed (EOF or error).
    fn fill_read_buf(&mut self, idx: usize) -> bool {
        let was_empty = {
            let conn = self.slots[idx].conn.as_ref().unwrap();
            conn.read_buf.is_empty()
        };
        let mut budget = READ_BUDGET_PER_EVENT;
        while budget > 0 {
            let conn = self.slots[idx].conn.as_mut().unwrap();
            match conn.stream.read(&mut self.scratch[..budget]) {
                Ok(0) => {
                    // EOF — but a client that shut down its write half
                    // after a complete request still deserves its
                    // response, so let the framer decide: already
                    // buffered bytes may frame a final request. With
                    // nothing buffered there is nothing to serve.
                    if conn.read_buf.is_empty() {
                        self.close_conn(idx);
                        return false;
                    }
                    conn.rdhup = true;
                    break;
                }
                Ok(n) => {
                    conn.read_buf.extend_from_slice(&self.scratch[..n]);
                    budget = budget.saturating_sub(n);
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return false;
                }
            }
        }
        let conn = self.slots[idx].conn.as_ref().unwrap();
        if was_empty && !conn.read_buf.is_empty() {
            // First byte of a new request: the idle timer (if any)
            // yields to the request's total read deadline.
            self.arm_timer(idx, TimeoutKind::Read);
        }
        true
    }

    /// Drives a connection's state machine as far as it can go without
    /// blocking. Iterative (not recursive) so a buffer full of
    /// pipelined requests cannot grow the stack.
    fn advance(&mut self, idx: usize) {
        loop {
            let state = match self.slots[idx].conn.as_ref() {
                Some(conn) => conn.state,
                None => return,
            };
            match state {
                ConnState::Dispatched => return,
                ConnState::Reading => {
                    if !self.try_frame(idx) {
                        return;
                    }
                }
                ConnState::Writing => match self.try_write(idx) {
                    WriteOutcome::Blocked | WriteOutcome::Closed => return,
                    WriteOutcome::Done => {
                        if !self.finish_response(idx) {
                            return;
                        }
                    }
                },
            }
        }
    }

    /// Attempts to frame the next request. Returns `true` if the state
    /// machine should keep advancing (a write was started), `false` if
    /// the connection is parked (partial request, dispatched, closed).
    fn try_frame(&mut self, idx: usize) -> bool {
        let status = {
            let conn = self.slots[idx].conn.as_ref().unwrap();
            frame(&conn.read_buf, &self.limits)
        };
        match status {
            FrameStatus::Partial => {
                // A half-closed peer can never finish this request, and
                // its level-triggered EOF would spin the loop if we
                // kept read interest.
                if self.slots[idx].conn.as_ref().unwrap().rdhup {
                    self.close_conn(idx);
                } else {
                    self.set_interest(idx, Interest::READ);
                }
                false
            }
            FrameStatus::Complete { len } => {
                let id = self.conn_id(idx);
                // The frame buffer itself goes to the handler, so the
                // request is not copied; only bytes past it (pipelined
                // requests) move into a fresh buffer.
                let request = {
                    let conn = self.slots[idx].conn.as_mut().unwrap();
                    let rest = conn.read_buf.split_off(len);
                    std::mem::replace(&mut conn.read_buf, rest)
                };
                self.cancel_timer(idx);
                match self.handler.on_request(id, request, &self.handle) {
                    Action::Pending => {
                        let conn = self.slots[idx].conn.as_mut().unwrap();
                        conn.state = ConnState::Dispatched;
                        self.set_interest(idx, Interest::NONE);
                        false
                    }
                    Action::Respond { bytes, keep_alive } => {
                        self.start_write(idx, bytes, keep_alive, None);
                        true
                    }
                }
            }
            FrameStatus::Error(err) => {
                self.journal_event(EventKind::FrameError, idx as u64, 0);
                let response = self.handler.on_frame_error(err);
                self.start_write(idx, response, false, None);
                true
            }
        }
    }

    fn start_write(&mut self, idx: usize, bytes: Vec<u8>, keep_alive: bool, tag: Option<WriteTag>) {
        {
            let conn = self.slots[idx].conn.as_mut().unwrap();
            conn.write_buf = bytes;
            conn.written = 0;
            conn.write_mark = 0;
            conn.keep_alive = keep_alive && !conn.rdhup;
            conn.state = ConnState::Writing;
            conn.write_started = Some(Instant::now());
            conn.write_tag = tag;
        }
        self.arm_timer(idx, TimeoutKind::Write);
    }

    /// Writes as much of the pending response as the socket accepts.
    fn try_write(&mut self, idx: usize) -> WriteOutcome {
        loop {
            let conn = self.slots[idx].conn.as_mut().unwrap();
            if conn.written >= conn.write_buf.len() {
                return WriteOutcome::Done;
            }
            let offset = conn.written;
            match conn.stream.write(&conn.write_buf[offset..]) {
                Ok(0) => {
                    self.close_conn(idx);
                    return WriteOutcome::Closed;
                }
                Ok(n) => {
                    let conn = self.slots[idx].conn.as_mut().unwrap();
                    conn.written += n;
                }
                Err(ref e) if e.kind() == io::ErrorKind::WouldBlock => {
                    self.set_interest(idx, Interest::WRITE);
                    return WriteOutcome::Blocked;
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.close_conn(idx);
                    return WriteOutcome::Closed;
                }
            }
        }
    }

    /// A response fully flushed: close, or rotate back to reading.
    /// Returns `true` if the state machine should keep advancing
    /// (pipelined bytes are already buffered).
    fn finish_response(&mut self, idx: usize) -> bool {
        let (keep_alive, tag, write_elapsed) = {
            let conn = self.slots[idx].conn.as_mut().unwrap();
            let elapsed = conn
                .write_started
                .take()
                .map(|started| started.elapsed())
                .unwrap_or_default();
            let keep_alive = conn.keep_alive && self.drain_deadline.is_none();
            (keep_alive, conn.write_tag.take(), elapsed)
        };
        let id = self.conn_id(idx);
        self.handler.on_write_complete(id, tag, write_elapsed);
        if !keep_alive {
            self.close_conn(idx);
            return false;
        }
        let has_residual = {
            let conn = self.slots[idx].conn.as_mut().unwrap();
            conn.write_buf = Vec::new();
            conn.written = 0;
            conn.state = ConnState::Reading;
            !conn.read_buf.is_empty()
        };
        if has_residual {
            // The next pipelined request's deadline starts now.
            self.arm_timer(idx, TimeoutKind::Read);
            true
        } else {
            self.arm_timer(idx, TimeoutKind::Idle);
            self.set_interest(idx, Interest::READ);
            false
        }
    }

    fn set_interest(&mut self, idx: usize, interest: Interest) {
        let token = self.token_of(idx);
        let conn = self.slots[idx].conn.as_mut().unwrap();
        // A recorded half-close is a level-triggered condition that
        // never clears; keep it out of every later registration or it
        // wakes the loop on each epoll_wait.
        let interest = if conn.rdhup {
            interest.without_rdhup()
        } else {
            interest
        };
        if conn.interest != interest {
            if self
                .poller
                .reregister(&conn.stream, token, interest)
                .is_err()
            {
                self.close_conn(idx);
                return;
            }
            let conn = self.slots[idx].conn.as_mut().unwrap();
            conn.interest = interest;
        }
    }

    // ---- completions from workers --------------------------------

    fn drain_completions(&mut self) {
        let completions = std::mem::take(&mut *self.handle.shared.completions.lock().unwrap());
        for completion in completions {
            if completion.conn.shard != self.shard {
                continue; // submitted through the wrong loop's handle
            }
            let idx = completion.conn.index as usize;
            let live = self
                .slots
                .get(idx)
                .filter(|slot| slot.generation == completion.conn.generation)
                .and_then(|slot| slot.conn.as_ref())
                .is_some_and(|conn| conn.state == ConnState::Dispatched);
            if !live {
                continue; // connection died while the worker computed
            }
            self.start_write(idx, completion.bytes, completion.keep_alive, completion.tag);
            self.advance(idx);
        }
    }

    // ---- shutdown -------------------------------------------------

    fn begin_drain(&mut self, now: Instant) {
        self.drain_deadline = Some(now + self.config.drain_timeout);
        self.accept_resume_at = None; // the listener never resumes now
        if !self.accept_paused {
            let _ = self.poller.deregister(&self.listener);
            self.accept_paused = true;
        }
        // Idle and mid-request connections close now; dispatched and
        // writing ones get until the deadline to finish.
        for idx in 0..self.slots.len() {
            let reading = self.slots[idx]
                .conn
                .as_ref()
                .is_some_and(|conn| conn.state == ConnState::Reading);
            if reading {
                self.close_conn(idx);
            }
        }
    }
}

enum WriteOutcome {
    Done,
    Blocked,
    Closed,
}
