//! The readiness-based serving core: one acceptor, N event-loop shards,
//! a retained worker pool for uncached estimation.
//!
//! ## Topology
//!
//! ```text
//!           accept(2)                 eventfd ring            mpsc
//!  peers ──► acceptor ──round-robin──► shard 0..N ──uncached──► workers
//!                                        ▲    │   ◄─completions─┘
//!                                        │    └─ hot hits, healthz,
//!                                     epoll       metrics, errors:
//!                                                 answered on the loop
//! ```
//!
//! Each shard owns an epoll [`Poller`], a connection [`Slab`] (slot
//! index = epoll token), and a `Mailbox` other threads reach it
//! through. Reads are nonblocking and drive the incremental
//! [`RequestParser`](crate::http::RequestParser); writes are flushed
//! eagerly and fall back to
//! `EPOLLOUT`-driven resume on short writes. Cache-hot estimate bodies
//! are answered directly on the loop thread with the `Arc`'d rendered
//! bytes (zero body copies); everything uncached travels to the worker
//! pool and comes back through the mailbox + eventfd doorbell.
//!
//! ## Determinism under async
//!
//! A connection has **at most one request in flight**: while a request
//! sits at the workers, the shard disarms read interest (kernel-level
//! backpressure) and stops polling the parser, so pipelined responses
//! are written strictly in request order without a sequencing queue.
//! Worker completions are matched against a per-slot generation stamp —
//! a completion for a slot that was reclaimed (peer died mid-estimate)
//! is discarded instead of answering the wrong connection.
//!
//! ## Shutdown
//!
//! The shutdown flag is polled every `TICK` (25 ms). The acceptor stops
//! accepting; each shard keeps serving until every slot has drained
//! (busy requests complete and flush, responses announce
//! `Connection: close`, idle keep-alive connections close at the next
//! sweep) and its mailbox holds no handed-over connections, then exits.
//! Workers exit when the last shard drops its job sender.

use crate::conn::Conn;
use crate::http::{self, HttpError, HttpRequest, HttpResponse};
use crate::poll::{Event, EventFd, Interest, Poller};
use crate::service::EstimateService;
use crate::slab::Slab;
use std::collections::VecDeque;
use std::io::{self, ErrorKind, Read};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

/// Shutdown-poll cadence; also bounds deadline-sweep latency.
const TICK: Duration = Duration::from_millis(25);

/// Epoll token reserved for the shard's mailbox eventfd.
const WAKE: u64 = u64::MAX;

/// Per-read scratch size.
const READ_CHUNK: usize = 16 * 1024;

/// Once this many response bytes are queued on one connection, the shard
/// stops parsing further pipelined requests until the peer drains some
/// (memory backpressure against read-everything-write-nothing clients).
const WRITE_HIGH_WATER: usize = 1 << 20;

/// Accept backlog requested on top of std's hard-coded 128 (a 10k
/// connection ramp overflows 128 instantly).
const LISTEN_BACKLOG: i32 = 4096;

/// Knobs the server passes down; a subset of `ServerConfig`.
pub(crate) struct LoopConfig {
    /// Event-loop shards.
    pub shards: usize,
    /// Estimation worker threads.
    pub workers: usize,
    /// Request-body limit, bytes.
    pub max_body: usize,
    /// Mid-request (and write-stall) deadline.
    pub deadline: Duration,
}

/// An uncached request traveling to the worker pool.
struct Job {
    shard: usize,
    token: usize,
    generation: u64,
    request: HttpRequest,
}

/// A finished estimation traveling back to its shard.
struct Completion {
    token: usize,
    generation: u64,
    response: HttpResponse,
    /// The originating request's keep-alive preference.
    keep_alive: bool,
}

/// How other threads reach a shard. Both queues are checked every loop
/// pass; the eventfd only bounds wakeup latency when the shard is parked
/// in `epoll_wait`.
struct Mailbox {
    wake: EventFd,
    incoming: Mutex<VecDeque<TcpStream>>,
    done: Mutex<VecDeque<Completion>>,
}

impl Mailbox {
    fn new() -> io::Result<Mailbox> {
        Ok(Mailbox {
            wake: EventFd::new()?,
            incoming: Mutex::new(VecDeque::new()),
            done: Mutex::new(VecDeque::new()),
        })
    }

    // Mailbox lock recovery: each critical section is a single
    // push/pop on a `VecDeque`, which never exposes a half-written
    // entry, so a poisoned lock is safe to keep using — dropping
    // queued connections on a peer's panic would be strictly worse.
    fn push_incoming(&self, stream: TcpStream) {
        self.incoming
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(stream);
        self.wake.ring();
    }

    fn push_done(&self, completion: Completion) {
        self.done
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push_back(completion);
        self.wake.ring();
    }
}

/// Runs the event-loop server on the calling thread until shutdown and
/// drain complete. The caller reads the lifetime summary off the
/// service's metrics afterwards.
pub(crate) fn run(
    listener: TcpListener,
    service: Arc<EstimateService>,
    shutdown: Arc<AtomicBool>,
    config: LoopConfig,
) -> io::Result<()> {
    let shards = config.shards.max(1);
    let workers = config.workers.max(1);
    service.metrics().init_shards(shards);

    let mailboxes: Vec<Arc<Mailbox>> = (0..shards)
        .map(|_| Mailbox::new().map(Arc::new))
        .collect::<io::Result<_>>()?;
    let (job_tx, job_rx) = mpsc::channel::<Job>();
    let job_rx = Arc::new(Mutex::new(job_rx));

    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let rx = Arc::clone(&job_rx);
            let service = Arc::clone(&service);
            let mailboxes = mailboxes.clone();
            std::thread::Builder::new()
                .name(format!("estimate-{i}"))
                .spawn(move || estimate_worker(&rx, &service, &mailboxes))
                // lint: allow(panic-in-library) -- thread spawn fails only on OS resource exhaustion at startup; a loud stop beats serving with a silently smaller pool
                .expect("spawn worker")
        })
        .collect();

    // Shards must not finish their drain while the acceptor can still
    // hand over one last connection; this flag closes that race.
    let accept_done = Arc::new(AtomicBool::new(false));
    let shard_handles: Vec<_> = (0..shards)
        .map(|i| {
            let mailbox = Arc::clone(&mailboxes[i]);
            let service = Arc::clone(&service);
            let shutdown = Arc::clone(&shutdown);
            let accept_done = Arc::clone(&accept_done);
            let jobs = job_tx.clone();
            let deadline = config.deadline;
            let max_body = config.max_body;
            std::thread::Builder::new()
                .name(format!("shard-{i}"))
                .spawn(move || {
                    let result = Shard::new(
                        i,
                        mailbox,
                        service,
                        jobs,
                        Arc::clone(&shutdown),
                        accept_done,
                        deadline,
                        max_body,
                    )
                    .and_then(|mut shard| shard.run());
                    if result.is_err() {
                        // A shard that dies (epoll failure) must not keep
                        // receiving round-robin handoffs nobody will ever
                        // adopt: take the whole server into shutdown so
                        // the acceptor stops and the peers drain.
                        shutdown.store(true, Ordering::Relaxed);
                    }
                    result
                })
                // lint: allow(panic-in-library) -- thread spawn fails only on OS resource exhaustion at startup; a loud stop beats running with missing shards
                .expect("spawn shard")
        })
        .collect();
    // The shards own the only remaining job senders: when the last shard
    // drains and exits, the channel closes and the workers follow.
    drop(job_tx);

    let accept_result = accept_loop(&listener, &mailboxes, &shutdown);
    // Whatever ended the accept loop (shutdown or an epoll failure), the
    // shards must still drain and the threads must still join.
    shutdown.store(true, Ordering::Relaxed);
    drop(listener);
    accept_done.store(true, Ordering::Relaxed);
    for mb in &mailboxes {
        mb.wake.ring();
    }

    let mut shard_result = Ok(());
    for h in shard_handles {
        match h.join() {
            Ok(Ok(())) => {}
            Ok(Err(e)) => shard_result = Err(e),
            Err(_) => shard_result = Err(io::Error::other("event-loop shard panicked")),
        }
    }
    for h in worker_handles {
        let _ = h.join();
    }
    accept_result?;
    shard_result
}

/// The acceptor: epoll on the listener, round-robin handoff to shards.
fn accept_loop(
    listener: &TcpListener,
    mailboxes: &[Arc<Mailbox>],
    shutdown: &AtomicBool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    // Best effort: a failed backlog bump degrades ramp speed, not
    // correctness.
    let _ = crate::poll::raise_listen_backlog(listener.as_raw_fd(), LISTEN_BACKLOG);

    let poller = Poller::new()?;
    poller.add(listener.as_raw_fd(), 0, Interest::READ)?;
    let mut events = Vec::new();
    let mut next_shard = 0usize;

    while !shutdown.load(Ordering::Relaxed) {
        poller.wait(&mut events, Some(TICK))?;
        if events.is_empty() {
            continue;
        }
        loop {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    mailboxes[next_shard % mailboxes.len()].push_incoming(stream);
                    next_shard = next_shard.wrapping_add(1);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => {
                    // Transient failures (EMFILE during load spikes) must
                    // not kill the server — but the listener stays level-
                    // triggered readable, so going straight back to
                    // `epoll_wait` would busy-spin. Back off one tick.
                    eprintln!("accept error: {e}");
                    std::thread::sleep(TICK);
                    break;
                }
            }
        }
    }
    Ok(())
}

/// The worker pool: uncached requests through the full service, results
/// back to the owning shard.
fn estimate_worker(
    rx: &Mutex<mpsc::Receiver<Job>>,
    service: &EstimateService,
    mailboxes: &[Arc<Mailbox>],
) {
    loop {
        // Hold the lock only for the pop, never while estimating.
        let job = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        let keep_alive = job.request.keep_alive;
        // A panicking estimate must not take its worker down: the peer
        // still gets an answer and later misses still find a worker.
        // Estimation runs outside every cache-shard lock
        // (`estimate_one_cached` is get, compute, insert), so an unwind
        // cannot leave a poisoned shard behind.
        let response = panic::catch_unwind(AssertUnwindSafe(|| service.handle(&job.request)))
            .unwrap_or_else(|_| service.worker_panic_response());
        mailboxes[job.shard].push_done(Completion {
            token: job.token,
            generation: job.generation,
            response,
            keep_alive,
        });
    }
}

/// Why a connection is being torn down (decides the reset counter).
#[derive(Clone, Copy, PartialEq)]
enum CloseKind {
    /// Protocol-clean: idle keep-alive close, `Connection: close` served.
    Clean,
    /// Peer died or stalled mid-request/mid-response.
    Reset,
}

/// One event-loop shard: poller, slab, and the readiness state machine.
struct Shard {
    id: usize,
    poller: Poller,
    slab: Slab<Conn>,
    mailbox: Arc<Mailbox>,
    service: Arc<EstimateService>,
    jobs: mpsc::Sender<Job>,
    shutdown: Arc<AtomicBool>,
    /// Set once the acceptor has exited: no more handovers can arrive,
    /// so an empty slab + empty mailbox really is the end.
    accept_done: Arc<AtomicBool>,
    deadline: Duration,
    max_body: usize,
    /// Next generation stamp (monotonic per shard; never reused).
    next_generation: u64,
}

impl Shard {
    #[allow(clippy::too_many_arguments)]
    fn new(
        id: usize,
        mailbox: Arc<Mailbox>,
        service: Arc<EstimateService>,
        jobs: mpsc::Sender<Job>,
        shutdown: Arc<AtomicBool>,
        accept_done: Arc<AtomicBool>,
        deadline: Duration,
        max_body: usize,
    ) -> io::Result<Shard> {
        let poller = Poller::new()?;
        poller.add(mailbox.wake.raw(), WAKE, Interest::READ)?;
        Ok(Shard {
            id,
            poller,
            slab: Slab::new(),
            mailbox,
            service,
            jobs,
            shutdown,
            accept_done,
            deadline,
            max_body,
            next_generation: 0,
        })
    }

    fn stats(&self) -> &crate::metrics::ShardStats {
        self.service.metrics().shard(self.id)
    }

    fn run(&mut self) -> io::Result<()> {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.poller.wait(&mut events, Some(TICK))?;
            if !events.is_empty() {
                self.stats()
                    .readiness_events
                    .fetch_add(events.len() as u64, Ordering::Relaxed);
            }
            for &ev in events.iter() {
                if ev.token == WAKE {
                    self.stats().wakeups.fetch_add(1, Ordering::Relaxed);
                    self.mailbox.wake.drain();
                    continue;
                }
                self.on_conn_event(ev);
            }
            // Mailboxes are swept every pass (not just on doorbell rings),
            // so a coalesced or raced ring can never strand work.
            self.apply_completions();
            self.adopt_incoming();
            self.sweep_deadlines();
            if self.shutdown.load(Ordering::Relaxed)
                && self.accept_done.load(Ordering::Relaxed)
                && self.drained()
            {
                return Ok(());
            }
        }
    }

    /// Drain is complete when no slot is live and nothing is waiting in
    /// the mailbox (completions for dead slots don't count).
    fn drained(&self) -> bool {
        self.slab.is_empty()
            && self
                .mailbox
                .incoming
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_empty()
    }

    /// Registers connections the acceptor handed over.
    fn adopt_incoming(&mut self) {
        loop {
            let next = self
                .mailbox
                .incoming
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            let Some(stream) = next else { return };
            let generation = self.next_generation;
            self.next_generation += 1;
            let fd = stream.as_raw_fd();
            let token = self
                .slab
                .insert(Conn::new(stream, self.max_body, generation));
            if self.poller.add(fd, token as u64, Interest::READ).is_err() {
                // Registration failed (fd pressure): drop the connection
                // rather than serve it blind.
                self.slab.remove(token);
                continue;
            }
            self.stats()
                .open_connections
                .fetch_add(1, Ordering::Relaxed);
            // Bytes may already be waiting; level-triggered epoll will
            // report them on the next wait, no speculative read needed.
        }
    }

    /// Routes worker results back onto their connections.
    fn apply_completions(&mut self) {
        loop {
            let next = self
                .mailbox
                .done
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop_front();
            let Some(done) = next else { return };
            let Some(conn) = self.slab.get_mut(done.token) else {
                // The peer died while its request was estimating; the
                // slot is gone and the answer has no addressee.
                continue;
            };
            if conn.generation != done.generation {
                // Same slot, different connection: a stale completion for
                // a reclaimed slot must never answer the new occupant.
                continue;
            }
            conn.busy = false;
            self.queue_response(done.token, &done.response, done.keep_alive);
            if self.slab.get(done.token).is_some() {
                // Pipelined bytes may already be buffered; resume parsing
                // now that the one-in-flight slot is free again.
                self.pump_parser(done.token);
            }
        }
    }

    /// Handles readiness for one connection token. The slot may vanish
    /// at any step (error paths close it); every step re-checks.
    fn on_conn_event(&mut self, ev: Event) {
        let token = ev.token as usize;
        if ev.readable {
            self.do_read(token);
        }
        if ev.writable {
            self.do_write(token);
        }
        if ev.closed {
            if let Some(conn) = self.slab.get_mut(token) {
                // `EPOLLERR`/`EPOLLHUP`: the socket is dead in both
                // directions, so nothing queued can be delivered anymore.
                // Anything still pending — parsed-but-unanswered bytes, a
                // busy estimate, unflushed response bytes — makes this a
                // reset; a quiet keep-alive connection closing is the
                // normal end of its life.
                let kind = if conn.busy || conn.parser.is_mid_request() || !conn.out.is_empty() {
                    CloseKind::Reset
                } else {
                    CloseKind::Clean
                };
                self.close(token, kind);
            }
        } else if ev.rdhup {
            // `EPOLLRDHUP`: the peer half-closed (shutdown(SHUT_WR)) but
            // can still read; a response it is owed must still reach it.
            self.on_read_closed(token);
        }
    }

    /// EOF or `EPOLLRDHUP`: the peer will never send another byte. Close
    /// now unless a response is still owed (busy at the workers or
    /// unflushed output) — then the write path finishes the exchange
    /// first and the teardown is deferred until the queue drains (a peer
    /// that stops draining is still cut by the write-stall deadline).
    fn on_read_closed(&mut self, token: usize) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        conn.read_closed = true;
        if conn.busy || !conn.out.is_empty() {
            // Defer; drop read-side interest (level-triggered RDHUP
            // would re-fire on every wait until the slot is gone).
            self.sync_interest(token);
        } else if conn.parser.is_mid_request() {
            // A trailing partial request can never complete now.
            self.close(token, CloseKind::Reset);
        } else {
            self.close(token, CloseKind::Clean);
        }
    }

    /// Nonblocking read: feed the parser, pump it, stop at `EAGAIN` or
    /// when the connection pauses itself (busy/backpressure/close).
    fn do_read(&mut self, token: usize) {
        let mut scratch = [0u8; READ_CHUNK];
        loop {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if conn.busy || conn.close_after_flush {
                return;
            }
            match conn.stream.read(&mut scratch) {
                Ok(0) => {
                    // EOF: same contract as `EPOLLRDHUP`.
                    self.on_read_closed(token);
                    return;
                }
                Ok(n) => {
                    conn.parser.feed(&scratch[..n]);
                    if conn.read_deadline.is_none() && conn.parser.is_mid_request() {
                        // First byte of a request: the whole request must
                        // arrive within the deadline (progress does not
                        // reset the clock — that's the slow-loris hole).
                        conn.read_deadline = Some(Instant::now() + self.deadline);
                    }
                    self.pump_parser(token);
                    if n < READ_CHUNK {
                        return; // short read: the socket is drained
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => {
                    self.close(token, CloseKind::Reset);
                    return;
                }
            }
        }
    }

    /// `EPOLLOUT`: resume the blocked flush; on drain, resume parsing.
    fn do_write(&mut self, token: usize) {
        if self.slab.get(token).is_none() {
            return;
        }
        self.flush(token);
        let Some(conn) = self.slab.get(token) else {
            return;
        };
        if !conn.write_blocked && !conn.busy && !conn.close_after_flush {
            self.pump_parser(token);
        }
    }

    /// Polls the parser until it needs more bytes, dispatching or
    /// answering each completed request. Stops early when the connection
    /// goes busy, closes, or hits the write high-water mark.
    fn pump_parser(&mut self, token: usize) {
        loop {
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            if conn.busy || conn.close_after_flush {
                return;
            }
            if conn.out.pending_bytes() >= WRITE_HIGH_WATER {
                // Backpressure: stop parsing until the peer drains.
                self.sync_interest(token);
                return;
            }
            match conn.parser.poll() {
                Ok(Some(request)) => {
                    if let Some(interim) = conn.parser.take_interim() {
                        conn.out.push_owned(interim.to_vec());
                    }
                    // The request is fully received: its read deadline is
                    // met. The next request's clock starts at its first
                    // byte (which may already be buffered).
                    conn.read_deadline = if conn.parser.is_mid_request() {
                        Some(Instant::now() + self.deadline)
                    } else {
                        None
                    };
                    self.respond_or_dispatch(token, request);
                }
                Ok(None) => {
                    if let Some(interim) = conn.parser.take_interim() {
                        // `Expect: 100-continue` head complete, body
                        // pending: unblock the client now.
                        conn.out.push_owned(interim.to_vec());
                        self.flush(token);
                    }
                    let Some(conn) = self.slab.get_mut(token) else {
                        return; // the interim flush may have closed it
                    };
                    if conn.read_closed {
                        // EOF/RDHUP already seen: no further bytes can
                        // complete another request. Deliver whatever is
                        // queued, then tear the slot down.
                        conn.close_after_flush = true;
                        self.flush(token);
                        return;
                    }
                    if conn.parser.is_mid_request() && conn.read_deadline.is_none() {
                        // Buffered partial-request bytes must always sit
                        // under a deadline, whichever path got us here —
                        // an unarmed clock here is a slow-loris hole.
                        conn.read_deadline = Some(Instant::now() + self.deadline);
                    }
                    self.sync_interest(token);
                    return;
                }
                Err(err) => {
                    self.fail_protocol(token, &err);
                    return;
                }
            }
        }
    }

    /// One parsed request: hot-cache answer on the loop, cheap routes
    /// inline, uncached estimation to the workers.
    fn respond_or_dispatch(&mut self, token: usize, request: HttpRequest) {
        let is_estimate = request.method == "POST" && request.target == "/v1/estimate";
        if is_estimate {
            if let Some(hot) = self.service.try_hot(&request.body) {
                // Zero-copy fast path: head owned (tiny), body shared.
                let keep = request.keep_alive && !self.shutdown.load(Ordering::Relaxed);
                let Some(conn) = self.slab.get_mut(token) else {
                    return;
                };
                conn.out.push_owned(http::response_head(
                    200,
                    "application/json",
                    hot.body.len(),
                    keep,
                ));
                conn.out.push_shared(hot.body);
                if !keep {
                    conn.close_after_flush = true;
                }
                self.flush(token);
                return;
            }
            // Uncached: hand to the workers; reads pause until the
            // completion returns (one in flight per connection).
            let Some(conn) = self.slab.get_mut(token) else {
                return;
            };
            conn.busy = true;
            if !conn.parser.is_mid_request() {
                // Only an idle connection sheds its deadline. Buffered
                // bytes of a pipelined next request keep the clock
                // `pump_parser` just armed: clearing it here would leave
                // the connection mid-request with no deadline once the
                // completion returns — unexpirable by any sweep, held
                // forever by a stalled peer, and a drain blocker.
                conn.read_deadline = None;
            }
            let job = Job {
                shard: self.id,
                token,
                generation: conn.generation,
                request,
            };
            if self.jobs.send(job).is_err() {
                // Workers gone (shutdown torn down mid-flight): the
                // request cannot be answered.
                self.close(token, CloseKind::Reset);
                return;
            }
            self.sync_interest(token);
            return;
        }
        // healthz / metrics / 404 / 405: cheap, answered on the loop.
        let response = self.service.handle(&request);
        self.queue_response(token, &response, request.keep_alive);
    }

    /// A protocol failure: answer with the mapped status (413/431/400)
    /// and close, or drop silently when nothing can be said.
    fn fail_protocol(&mut self, token: usize, err: &HttpError) {
        match self.service.handle_protocol_error(err) {
            Some(response) => {
                // handle_protocol_error always sets `close`.
                self.queue_response(token, &response, true);
            }
            None => {
                self.close(token, CloseKind::Reset);
            }
        }
    }

    /// Queues head + body and flushes. The connection stays open unless
    /// the request or response says close — or the server is draining.
    fn queue_response(&mut self, token: usize, response: &HttpResponse, request_keep: bool) {
        let keep = request_keep && !response.close && !self.shutdown.load(Ordering::Relaxed);
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        conn.out.push_owned(http::response_head(
            response.status,
            response.content_type,
            response.body.len(),
            keep,
        ));
        conn.out.push_owned(response.body.clone());
        if !keep {
            conn.close_after_flush = true;
        }
        self.flush(token);
    }

    /// Writes as much as the socket takes; arms/disarms write interest;
    /// closes on completion of a closing connection.
    fn flush(&mut self, token: usize) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        let before = conn.out.pending_bytes();
        match conn.out.write_to(&mut conn.stream) {
            Ok(true) => {
                conn.write_blocked = false;
                conn.write_blocked_since = None;
                if conn.close_after_flush {
                    // A peer that hung up its write side mid-exchange was
                    // served best-effort, but still counts as a reset —
                    // same contract as EOF with output pending.
                    let kind = if conn.read_closed {
                        CloseKind::Reset
                    } else {
                        CloseKind::Clean
                    };
                    self.close(token, kind);
                    return;
                }
                self.sync_interest(token);
            }
            Ok(false) => {
                conn.write_blocked = true;
                match conn.write_blocked_since {
                    // Any forward progress restarts the stall clock; only
                    // a peer taking nothing at all for a full deadline is
                    // dropped.
                    Some(_) if conn.out.pending_bytes() < before => {
                        conn.write_blocked_since = Some(Instant::now());
                    }
                    Some(_) => {}
                    None => conn.write_blocked_since = Some(Instant::now()),
                }
                self.sync_interest(token);
            }
            Err(_) => {
                self.close(token, CloseKind::Reset);
            }
        }
    }

    /// Reconciles epoll interest with the connection's state, issuing
    /// `epoll_ctl` only on actual change.
    fn sync_interest(&mut self, token: usize) {
        let Some(conn) = self.slab.get_mut(token) else {
            return;
        };
        let desired = Interest {
            readable: !conn.busy
                && !conn.close_after_flush
                && !conn.read_closed
                && conn.out.pending_bytes() < WRITE_HIGH_WATER,
            writable: conn.write_blocked,
            // Once the half-close is observed there is nothing left to
            // learn from RDHUP; leaving it armed would busy-spin the
            // shard (level-triggered) while a deferred response flushes.
            rdhup: !conn.read_closed,
        };
        if desired != conn.armed {
            let fd = conn.stream.as_raw_fd();
            if self.poller.modify(fd, token as u64, desired).is_ok() {
                conn.armed = desired;
            }
        }
    }

    /// Drops slow peers (read or write deadline) and, during shutdown
    /// drain, closes idle keep-alive connections.
    fn sweep_deadlines(&mut self) {
        let now = Instant::now();
        let draining = self.shutdown.load(Ordering::Relaxed);
        for token in self.slab.occupied() {
            let Some(conn) = self.slab.get_mut(token) else {
                continue;
            };
            let read_expired = conn.read_deadline.is_some_and(|dl| now >= dl);
            let write_expired = conn
                .write_blocked_since
                .is_some_and(|since| now >= since + self.deadline);
            if read_expired || write_expired {
                self.close(token, CloseKind::Reset);
                continue;
            }
            if draining && !conn.busy && !conn.parser.is_mid_request() && conn.out.is_empty() {
                // Idle keep-alive connection during drain: nothing owed.
                self.close(token, CloseKind::Clean);
            }
        }
    }

    /// Tears a slot down: deregister, count, drop (closing the fd).
    fn close(&mut self, token: usize, kind: CloseKind) {
        let Some(conn) = self.slab.remove(token) else {
            return;
        };
        let _ = self.poller.remove(conn.stream.as_raw_fd());
        self.stats()
            .open_connections
            .fetch_sub(1, Ordering::Relaxed);
        if kind == CloseKind::Reset {
            self.service
                .metrics()
                .conn_resets
                .fetch_add(1, Ordering::Relaxed);
        }
        // `conn` drops here; the TcpStream closes the fd.
    }
}
