//! The mapping daemon: event-driven I/O shards over a fixed worker pool,
//! serving protocol v2 of [`crate::protocol`] over TCP.
//!
//! Life of a request:
//!
//! 1. The acceptor thread round-robins each accepted connection to an **I/O
//!    shard** (`--shards`); the shard owns the socket for its whole life —
//!    read buffer, write buffer, handshake state and in-flight count all
//!    live in the shard's slab, so no per-connection thread or lock exists.
//! 2. Each shard runs a nonblocking readiness loop ([`crate::sys::Poller`]:
//!    `epoll` on Linux, `poll(2)` elsewhere on Unix).  Frames are decoded
//!    as they arrive; a connection may **pipeline** any number of requests.
//! 3. The first frame must be the v2 hello; anything else (including a bare
//!    v1 request) is answered with a typed
//!    [`WireError::UnsupportedVersion`] and the connection is closed.
//! 4. Cheap verbs (`health`, `reset`, `shutdown`, `metrics`, `dump`) are
//!    answered inline on the shard.  A plain `map` request first probes the
//!    shared cache's **summary level** (config fingerprint → kernel source →
//!    the summary of the finished mapping, see
//!    [`MappingCache::summary`](fpfa_core::cache::MappingCache::summary)),
//!    which every shard and worker reads and every successful map fills,
//!    the disk tier's summaries included.  A hit answers inline without
//!    queueing, which is the common warm-traffic fast path: the summary,
//!    the request's own name and the server time are encoded straight into
//!    the connection's write buffer.  Everything else takes the queue.
//! 5. Cold work goes through **admission control**: the job is pushed onto
//!    a bounded queue with a non-blocking `try_push`.  A full queue answers
//!    [`WireError::Overloaded`] *immediately* — the server sheds load
//!    instead of buffering without bound.
//! 6. A worker pops the job, first checking its **deadline budget** (a job
//!    that waited out its budget in the queue is answered
//!    [`WireError::DeadlineExceeded`] without being mapped), maps through
//!    the shared [`MappingService`], and pushes the finished response onto
//!    the owning shard's completion queue, waking its poller.  The shard
//!    writes it back — so responses complete **out of order** relative to
//!    their submission, matched to requests by the echoed id.  A plain map
//!    keeps only its summary and post-transform artifacts in the shared
//!    cache ([`Retain::Summary`]): the summary level answers its repeats,
//!    and a worker answers a plain map it finds there, such as a repeat
//!    queued while its kernel was mapped, before it leads a run.  A
//!    `verify` or `simulate` map uses the mapping itself, so it keeps it.  A
//!    worker whose map panics answers [`WireError::MapFailed`] and lives on.
//!
//! Latency histograms measure frame-decode → response write-back, so time
//! spent queueing (and time a response waits behind a slow client's socket)
//! is part of every observation.
//!
//! **Graceful shutdown** (the `shutdown` verb or [`ServerHandle::shutdown`])
//! stops the acceptor, lets the workers drain every already-admitted job,
//! answers new mapping requests with [`WireError::ShuttingDown`], keeps
//! connections alive for a configurable grace window so drained responses
//! reach their clients, and joins every thread before [`Server::run`]
//! returns.

use crate::protocol::{
    append_response_frame, decode_request_frame, request_id_of, write_frame, CacheFlavor,
    FrameBuffer, HealthSummary, Hello, HelloAck, KernelSource, MapKnobs, MapSummary, MetricsFormat,
    Request, Response, SimSummary, WireError, PROTOCOL_VERSION, UNKNOWN_REQUEST_ID,
};
use crate::sys::{Event, Interest, Poller, WakeSender, Waker, WAKE_TOKEN};
use fpfa_core::cache::{CacheOutcome, Retain};
use fpfa_core::pipeline::MappingResult;
use fpfa_core::service::MappingService;
use fpfa_core::summary::MappingSummary;
use fpfa_obs::{FlightEntry, FlightRecorder, Registry, Snapshot, SpanEvent, TraceSink};
use std::collections::{HashMap, VecDeque};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::os::fd::{AsRawFd, RawFd};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Upper bound on the tile-array size a request may ask for (a typed
/// `Invalid` rejection, so a stray knob cannot make a worker build an
/// arbitrarily large array model).
pub const MAX_TILES: u32 = 64;
/// Upper bound on the processing parts per tile a request may ask for (a
/// typed `Invalid` rejection: the allocator lists every part at each
/// schedule level, so a stray knob must not size that list).
pub const MAX_PPS: u32 = 64;
/// Upper bound on queued (worker-path) requests one connection may have in
/// flight; advertised in the [`HelloAck`] so clients can self-limit.
pub const MAX_CONN_IN_FLIGHT: u32 = 1024;

/// Cap on the auto-selected shard count (`shards == 0`).
const MAX_AUTO_SHARDS: usize = 8;
/// Cap on an explicitly requested shard count.
const MAX_SHARDS: usize = 64;
/// Read chunk per `read(2)` on a readable connection.
const READ_CHUNK: usize = 64 * 1024;
/// A connection whose un-flushed write buffer exceeds this is dropped: the
/// peer is pipelining requests without reading responses.
const WBUF_LIMIT: usize = 64 * 1024 * 1024;
/// Poll timeout while draining, bounding how often shards re-check the
/// shutdown conditions.
const SHUTDOWN_POLL: Duration = Duration::from_millis(25);
/// Span events retained by the trace ring (each is a few dozen bytes; the
/// ring answers "where did the last sampled requests' time go").
const TRACE_RING_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Tuning knobs of the daemon.
#[derive(Clone, Copy, Debug)]
pub struct ServerConfig {
    /// Worker threads mapping kernels (≥ 1).
    pub workers: usize,
    /// Bounded job-queue capacity; a full queue rejects with `Overloaded`.
    pub queue_depth: usize,
    /// Deadline budget applied when a request carries `deadline_ms == 0`.
    /// [`Duration::ZERO`] means "no deadline".
    pub default_deadline: Duration,
    /// I/O shards owning connections; `0` selects one per available core,
    /// capped at 8.
    pub shards: usize,
    /// How long draining connections keep being served after shutdown
    /// begins, so lingering clients receive typed `ShuttingDown` answers
    /// instead of a closed socket.
    pub drain_grace: Duration,
    /// Trace-sampling rate: every Nth request id is traced (span events go
    /// to the ring-buffer sink and slow-request lines carry a per-stage
    /// breakdown).  `0` disables tracing entirely.
    pub trace_sample: u32,
    /// A request whose decode → write-back latency exceeds this threshold
    /// is logged on stderr with its span breakdown.  [`Duration::ZERO`]
    /// disables slow-request logging.
    pub slow_threshold: Duration,
    /// Flight-recorder entries retained per I/O shard.
    pub flight_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            queue_depth: 64,
            default_deadline: Duration::from_secs(5),
            shards: 0,
            drain_grace: Duration::from_secs(1),
            trace_sample: 0,
            slow_threshold: Duration::ZERO,
            flight_capacity: fpfa_obs::DEFAULT_FLIGHT_CAPACITY,
        }
    }
}

fn effective_shards(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .min(MAX_AUTO_SHARDS)
    } else {
        requested.min(MAX_SHARDS)
    }
}

// ---------------------------------------------------------------------------
// Bounded job queue (the admission-control primitive)
// ---------------------------------------------------------------------------

/// Why [`JobQueue::try_push`] refused an item.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PushRefused {
    /// The queue holds `capacity` items; shed the load.
    Full,
    /// The queue was closed for shutdown.
    Closed,
}

struct QueueState<T> {
    items: VecDeque<T>,
    closed: bool,
}

/// A bounded MPMC queue: producers never block (admission control wants an
/// immediate full/empty verdict), consumers block until an item arrives or
/// the queue is closed *and* drained.
pub(crate) struct JobQueue<T> {
    capacity: usize,
    state: Mutex<QueueState<T>>,
    available: Condvar,
}

fn lock_state<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // Every structure behind these locks (queues, inboxes) cannot be left
    // torn by a panicking holder, so a poisoned lock stays usable.
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

impl<T> JobQueue<T> {
    pub(crate) fn new(capacity: usize) -> Self {
        JobQueue {
            capacity: capacity.max(1),
            state: Mutex::new(QueueState {
                items: VecDeque::new(),
                closed: false,
            }),
            available: Condvar::new(),
        }
    }

    /// Admits `item` unless the queue is at capacity or closed.  Never
    /// blocks — this is the admission-control decision point.
    pub(crate) fn try_push(&self, item: T) -> Result<(), PushRefused> {
        let mut state = lock_state(&self.state);
        if state.closed {
            return Err(PushRefused::Closed);
        }
        if state.items.len() >= self.capacity {
            return Err(PushRefused::Full);
        }
        state.items.push_back(item);
        drop(state);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks until an item is available; `None` once the queue is closed
    /// and fully drained (workers use this as their exit signal, which is
    /// what makes shutdown drain in-flight work instead of dropping it).
    pub(crate) fn pop(&self) -> Option<T> {
        let mut state = lock_state(&self.state);
        loop {
            if let Some(item) = state.items.pop_front() {
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self
                .available
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// Closes the queue: producers are refused, consumers drain what is
    /// left and then see `None`.
    pub(crate) fn close(&self) {
        lock_state(&self.state).closed = true;
        self.available.notify_all();
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        lock_state(&self.state).items.len()
    }
}

// ---------------------------------------------------------------------------
// Stats
// ---------------------------------------------------------------------------

/// The daemon's counters: typed handles onto the shared [`Registry`], so
/// the hot path records with relaxed atomics while the `metrics` verb,
/// [`ServerHandle::join`] and `--metrics-file` snapshots read the very same
/// cells.
pub struct ServerStats {
    connections: fpfa_obs::Counter,
    accepted: fpfa_obs::Counter,
    served_ok: fpfa_obs::Counter,
    served_err: fpfa_obs::Counter,
    verify_failures: fpfa_obs::Counter,
    rejected_overload: fpfa_obs::Counter,
    rejected_deadline: fpfa_obs::Counter,
    rejected_shutdown: fpfa_obs::Counter,
    rejected_version: fpfa_obs::Counter,
    protocol_errors: fpfa_obs::Counter,
    l0_hits: fpfa_obs::Counter,
    worker_panics: fpfa_obs::Counter,
    in_flight: fpfa_obs::Gauge,
    map_latency: fpfa_obs::Histogram,
    /// Decode → worker-pop wait of queued (cold-path) jobs.
    queue_wait: fpfa_obs::Histogram,
}

impl ServerStats {
    fn new(registry: &Registry) -> Self {
        ServerStats {
            connections: registry.counter("serve.connections", &[]),
            accepted: registry.counter("serve.accepted", &[]),
            served_ok: registry.counter("serve.served", &[("outcome", "ok")]),
            served_err: registry.counter("serve.served", &[("outcome", "err")]),
            verify_failures: registry.counter("serve.verify_failures", &[("verb", "map")]),
            rejected_overload: registry.counter("serve.rejected", &[("reason", "overload")]),
            rejected_deadline: registry.counter("serve.rejected", &[("reason", "deadline")]),
            rejected_shutdown: registry.counter("serve.rejected", &[("reason", "shutdown")]),
            rejected_version: registry.counter("serve.rejected", &[("reason", "version")]),
            protocol_errors: registry.counter("serve.protocol_errors", &[]),
            l0_hits: registry.counter("serve.l0_hits", &[]),
            worker_panics: registry.counter("serve.worker_panics", &[]),
            in_flight: registry.gauge("serve.in_flight", &[]),
            map_latency: registry.histogram("serve.map.latency", &[]),
            queue_wait: registry.histogram("serve.queue.wait", &[]),
        }
    }
}

/// Bridges the cache and persistence counters (owned by `fpfa-core`, which
/// knows nothing of the registry) into it as snapshot-time callback gauges.
fn register_cache_gauges(registry: &Registry, service: &MappingService) {
    type CacheRead = fn(&fpfa_core::cache::MappingCache) -> u64;
    const READS: &[(&str, CacheRead)] = &[
        ("cache.mapping.hits", |c| c.stats().mapping_hits),
        ("cache.mapping.misses", |c| c.stats().mapping_misses),
        ("cache.post.hits", |c| c.stats().post_transform_hits),
        ("cache.post.misses", |c| c.stats().post_transform_misses),
        ("cache.mapping.coalesced", |c| c.stats().coalesced),
        ("cache.mapping.entries", |c| c.stats().mapping_entries),
        ("cache.post.entries", |c| c.stats().post_entries),
        ("cache.entries", |c| c.stats().entries),
        ("cache.summary.entries", |c| c.stats().summary_entries),
        ("cache.capacity", |c| c.capacity() as u64),
        ("persist.loads", |c| c.persist_stats().loads),
        ("persist.stores", |c| c.persist_stats().stores),
        ("persist.corrupt_skipped", |c| {
            c.persist_stats().corrupt_skipped
        }),
        ("persist.warm_start_entries", |c| {
            c.persist_stats().warm_start_entries
        }),
        ("persist.compactions", |c| c.persist_stats().compactions),
        ("persist.scanned_bytes", |c| c.persist_stats().scanned_bytes),
    ];
    for &(name, read) in READS {
        let cache = Arc::clone(service.cache());
        registry.gauge_fn(name, &[], move || read(&cache));
    }
}

/// Per-shard serving counters, registered under `shard.*` names with a
/// `shard` label.
struct ShardCounters {
    open: fpfa_obs::Gauge,
    accepted: fpfa_obs::Counter,
    served: fpfa_obs::Counter,
    bytes_in: fpfa_obs::Counter,
    bytes_out: fpfa_obs::Counter,
}

impl ShardCounters {
    fn new(registry: &Registry, shard: usize) -> Self {
        let shard = shard.to_string();
        let labels: &[(&str, &str)] = &[("shard", shard.as_str())];
        ShardCounters {
            open: registry.gauge("shard.open", labels),
            accepted: registry.counter("shard.accepted", labels),
            served: registry.counter("shard.served", labels),
            bytes_in: registry.counter("shard.bytes_in", labels),
            bytes_out: registry.counter("shard.bytes_out", labels),
        }
    }
}

// ---------------------------------------------------------------------------
// Jobs and completions
// ---------------------------------------------------------------------------

struct Job {
    shard: usize,
    conn: usize,
    generation: u64,
    request_id: u64,
    decoded_at: Instant,
    kernel: KernelSource,
    knobs: MapKnobs,
    /// Whether this request was selected by `--trace-sample`: the worker
    /// then collects per-flow-stage timings for its span breakdown.
    traced: bool,
}

/// Per-flow-stage wall times in microseconds, in flow order.
type StageTimings = Vec<(&'static str, u64)>;

/// Worker-path timing attached to every completion: where the request's
/// time went, measured honestly at each boundary (decode → pop → done →
/// write-back) rather than derived.
struct JobTiming {
    /// Decode → worker-pop wait.
    queue_us: u64,
    /// Worker service time (deadline check + map work).
    service_us: u64,
    /// When the worker finished; the shard derives respond time from it.
    completed_at: Instant,
    /// Per-flow-stage wall times bridged from `FlowContext`, present only
    /// on traced jobs.
    stages: Option<StageTimings>,
}

struct Completion {
    conn: usize,
    generation: u64,
    request_id: u64,
    decoded_at: Instant,
    response: Response,
    timing: JobTiming,
}

/// The mailbox through which the acceptor and the workers reach a shard.
struct ShardMailbox {
    inbox: Mutex<Vec<TcpStream>>,
    completions: Mutex<VecDeque<Completion>>,
    wake: WakeSender,
    waker: Mutex<Option<Waker>>,
    counters: ShardCounters,
    /// Ring of recent request summaries, dumped on drain / SIGUSR1 / `dump`.
    flight: FlightRecorder,
}

// ---------------------------------------------------------------------------
// The server
// ---------------------------------------------------------------------------

struct Inner {
    base: MappingService,
    config: ServerConfig,
    addr: SocketAddr,
    queue: JobQueue<Job>,
    stats: ServerStats,
    /// The unified metrics registry every counter above is a handle onto.
    registry: Registry,
    /// Ring-buffer sink for sampled request spans.
    trace: TraceSink,
    shutting_down: AtomicBool,
    workers_done: AtomicBool,
    started: Instant,
    shards: Vec<ShardMailbox>,
}

impl Inner {
    /// The service for one request's knobs: the base service's cache shared
    /// under a mapper derived from the daemon's configured mapper.  `tiles`
    /// / `pps` of `0` inherit the daemon defaults; the boolean toggles can
    /// only disable features relative to them.  Building a mapper is a
    /// couple of copies, so no per-knob memoisation is needed.
    fn service_for(&self, knobs: &MapKnobs) -> MappingService {
        let mut mapper = self.base.mapper().clone();
        if knobs.pps != 0 {
            let config = self.base.mapper().config().with_num_pps(knobs.pps as usize);
            mapper = mapper.with_config(config);
        }
        if knobs.tiles != 0 {
            mapper = mapper.with_tiles(knobs.tiles as usize);
        }
        if !knobs.clustering {
            mapper = mapper.without_clustering();
        }
        if !knobs.locality {
            mapper = mapper.without_locality();
        }
        if knobs.verify {
            mapper = mapper.with_verify();
        }
        self.base.with_mapper(mapper)
    }

    fn deadline_of(&self, knobs: &MapKnobs) -> Duration {
        if knobs.deadline_ms > 0 {
            Duration::from_millis(u64::from(knobs.deadline_ms))
        } else {
            self.config.default_deadline
        }
    }

    fn reset_counters(&self) {
        // One sweep over the registry zeroes every counter and histogram —
        // the daemon's, the shards', and the queue-wait tracker — while
        // gauges (`serve.in_flight`, `shard.open`, cache occupancy) keep
        // describing current state.
        self.registry.reset();
        for mailbox in &self.shards {
            mailbox.flight.clear();
        }
        self.trace.clear();
    }

    /// Whether a request id falls in the `--trace-sample` sample.
    fn traced(&self, request_id: u64) -> bool {
        let sample = self.config.trace_sample;
        sample > 0 && request_id.is_multiple_of(u64::from(sample))
    }

    /// Composes the flight-recorder dump across every shard, plus the
    /// sampled trace events.
    fn flight_json(&self) -> String {
        let shards: Vec<(usize, Vec<FlightEntry>)> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, mailbox)| (i, mailbox.flight.snapshot()))
            .collect();
        fpfa_obs::dump_json(&shards, &self.trace.to_json())
    }
}

/// A bound-but-not-yet-running daemon (bind first so callers can learn the
/// OS-assigned port of `addr:0` before serving).
pub struct Server {
    listener: TcpListener,
    inner: Arc<Inner>,
}

/// Control handle for a daemon running on a background thread.
pub struct ServerHandle {
    inner: Arc<Inner>,
    thread: std::thread::JoinHandle<()>,
}

impl ServerHandle {
    /// The address the daemon is serving on.
    pub fn addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// Begins a graceful shutdown (idempotent): stop accepting, drain the
    /// queue, answer new work with `ShuttingDown`.
    pub fn shutdown(&self) {
        initiate_shutdown(&self.inner);
    }

    /// A cloneable handle that can begin the same graceful shutdown from
    /// another thread (e.g. a signal watcher) while this handle sits in
    /// [`join`](Self::join).
    pub fn shutdown_trigger(&self) -> ShutdownTrigger {
        ShutdownTrigger {
            inner: Arc::clone(&self.inner),
        }
    }

    /// The daemon's metrics registry (same cells the `metrics` verb
    /// renders), for out-of-band snapshots like `--metrics-file`.
    pub fn registry(&self) -> Registry {
        self.inner.registry.clone()
    }

    /// The flight-recorder dump (same JSON as the `dump` verb), for drain-
    /// time and SIGUSR1 snapshots without a connection.
    pub fn flight_json(&self) -> String {
        self.inner.flight_json()
    }

    /// Waits for the daemon to finish draining and exit; returns the final
    /// snapshot of its metrics registry.
    pub fn join(self) -> Snapshot {
        let _ = self.thread.join();
        self.inner.registry.snapshot()
    }
}

/// A detached, cloneable shutdown switch for a running daemon — see
/// [`ServerHandle::shutdown_trigger`].
#[derive(Clone)]
pub struct ShutdownTrigger {
    inner: Arc<Inner>,
}

impl ShutdownTrigger {
    /// Begins the graceful shutdown (idempotent).
    pub fn shutdown(&self) {
        initiate_shutdown(&self.inner);
    }

    /// The flight-recorder dump — available from the detached trigger so a
    /// signal watcher can snapshot on SIGUSR1, and so the final dump can be
    /// taken after [`ServerHandle::join`] consumed the handle.
    pub fn flight_json(&self) -> String {
        self.inner.flight_json()
    }
}

fn initiate_shutdown(inner: &Inner) {
    if inner.shutting_down.swap(true, Ordering::SeqCst) {
        return;
    }
    inner.queue.close();
    // Shards blocked in `wait(None)` re-check the flag once woken.
    for mailbox in &inner.shards {
        mailbox.wake.wake();
    }
    // Unblock the acceptor: it re-checks the flag per connection, so one
    // throwaway connection is enough.
    let _ = TcpStream::connect(inner.addr);
}

impl Server {
    /// Binds the daemon to `addr` (use port 0 for an OS-assigned port).
    ///
    /// # Errors
    /// Propagates socket errors (including the per-shard waker pipes).
    pub fn bind(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        service: MappingService,
    ) -> io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let config = ServerConfig {
            workers: config.workers.max(1),
            queue_depth: config.queue_depth.max(1),
            default_deadline: config.default_deadline,
            shards: effective_shards(config.shards),
            drain_grace: config.drain_grace,
            trace_sample: config.trace_sample,
            slow_threshold: config.slow_threshold,
            flight_capacity: config.flight_capacity.max(1),
        };
        let registry = Registry::new();
        let stats = ServerStats::new(&registry);
        register_cache_gauges(&registry, &service);
        let mut shards = Vec::with_capacity(config.shards);
        for shard_id in 0..config.shards {
            let waker = Waker::new()?;
            shards.push(ShardMailbox {
                inbox: Mutex::new(Vec::new()),
                completions: Mutex::new(VecDeque::new()),
                wake: waker.sender()?,
                waker: Mutex::new(Some(waker)),
                counters: ShardCounters::new(&registry, shard_id),
                flight: FlightRecorder::new(config.flight_capacity),
            });
        }
        Ok(Server {
            listener,
            inner: Arc::new(Inner {
                base: service,
                config,
                addr: local,
                queue: JobQueue::new(config.queue_depth),
                stats,
                registry,
                trace: TraceSink::new(TRACE_RING_CAPACITY),
                shutting_down: AtomicBool::new(false),
                workers_done: AtomicBool::new(false),
                started: Instant::now(),
                shards,
            }),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a graceful shutdown completes: shard and worker threads
    /// spawned, every connection handled, queue drained, all threads joined.
    ///
    /// # Errors
    /// Propagates socket errors from the accept loop and poller-creation
    /// errors discovered at startup.
    pub fn run(self) -> io::Result<()> {
        let Server { listener, inner } = self;

        // Create every poller before spawning anything, so a failure here
        // aborts cleanly instead of leaving threads behind.
        let mut pollers = Vec::with_capacity(inner.config.shards);
        for _ in 0..inner.config.shards {
            pollers.push(Poller::new()?);
        }

        let mut workers = Vec::with_capacity(inner.config.workers);
        for _ in 0..inner.config.workers {
            let inner = Arc::clone(&inner);
            workers.push(std::thread::spawn(move || worker_loop(&inner)));
        }
        let mut shard_threads = Vec::with_capacity(inner.config.shards);
        for (shard_id, poller) in pollers.into_iter().enumerate() {
            let inner = Arc::clone(&inner);
            shard_threads.push(std::thread::spawn(move || {
                shard_loop(&inner, shard_id, poller);
            }));
        }

        let mut outcome = Ok(());
        let mut next_shard = 0usize;
        for stream in listener.incoming() {
            if inner.shutting_down.load(Ordering::SeqCst) {
                break;
            }
            match stream {
                Ok(stream) => {
                    inner.stats.connections.inc();
                    let mailbox = &inner.shards[next_shard % inner.shards.len()];
                    next_shard = next_shard.wrapping_add(1);
                    lock_state(&mailbox.inbox).push(stream);
                    mailbox.wake.wake();
                }
                Err(e) if e.kind() == io::ErrorKind::ConnectionAborted => continue,
                Err(e) => {
                    initiate_shutdown(&inner);
                    outcome = Err(e);
                    break;
                }
            }
        }

        // Drain: the queue is closed, workers finish every admitted job and
        // hand the completions to the shards, which write them back within
        // the drain-grace window.
        inner.queue.close();
        for handle in workers {
            let _ = handle.join();
        }
        inner.workers_done.store(true, Ordering::SeqCst);
        for mailbox in &inner.shards {
            mailbox.wake.wake();
        }
        for handle in shard_threads {
            let _ = handle.join();
        }
        outcome
    }

    /// Runs the daemon on a background thread, returning a control handle.
    ///
    /// # Errors
    /// Propagates socket errors discovered while reading the bound address.
    pub fn spawn(self) -> io::Result<ServerHandle> {
        let inner = Arc::clone(&self.inner);
        let thread = std::thread::spawn(move || {
            // The handle owns shutdown; accept-loop errors end the thread.
            let _ = self.run();
        });
        Ok(ServerHandle { inner, thread })
    }
}

// ---------------------------------------------------------------------------
// Worker side
// ---------------------------------------------------------------------------

fn worker_loop(inner: &Inner) {
    while let Some(job) = inner.queue.pop() {
        // Decode → pop is the queue wait (plus the negligible shard-side
        // validation between decode and push).
        let queue_us = job.decoded_at.elapsed().as_micros() as u64;
        inner.stats.queue_wait.record(queue_us);
        let shard = job.shard.min(inner.shards.len().saturating_sub(1));
        let completion = process_job(inner, job, queue_us);
        let mailbox = &inner.shards[shard];
        lock_state(&mailbox.completions).push_back(completion);
        mailbox.wake.wake();
    }
}

fn process_job(inner: &Inner, job: Job, queue_us: u64) -> Completion {
    let Job {
        conn,
        generation,
        request_id,
        decoded_at,
        kernel,
        knobs,
        traced,
        ..
    } = job;
    let service_started = Instant::now();
    let done = |response: Response, stages: Option<StageTimings>| Completion {
        conn,
        generation,
        request_id,
        decoded_at,
        response,
        timing: JobTiming {
            queue_us,
            service_us: service_started.elapsed().as_micros() as u64,
            completed_at: Instant::now(),
            stages,
        },
    };

    let deadline = inner.deadline_of(&knobs);
    if !deadline.is_zero() && decoded_at.elapsed() > deadline {
        inner.stats.rejected_deadline.inc();
        let budget_ms = deadline.as_millis() as u64;
        return done(
            Response::Error(WireError::DeadlineExceeded { budget_ms }),
            None,
        );
    }

    let service = inner.service_for(&knobs);
    // A panic anywhere in the flow must not take the worker down with it,
    // or its client would wait forever: it becomes this request's answer.
    let served = panic::catch_unwind(AssertUnwindSafe(|| {
        serve_map_job(&service, &kernel, &knobs, decoded_at, traced)
    }))
    .unwrap_or_else(|payload| {
        inner.stats.worker_panics.inc();
        Err(WireError::MapFailed {
            name: kernel.name.clone(),
            error: format!("the mapper panicked: {}", panic_message(&*payload)),
        })
    });
    match served {
        Ok((summary, stages)) => {
            inner.stats.served_ok.inc();
            done(Response::Mapped(summary), stages)
        }
        Err(error) => {
            let counter = if matches!(error, WireError::VerifyFailed { .. }) {
                &inner.stats.verify_failures
            } else {
                &inner.stats.served_err
            };
            counter.inc();
            done(Response::Error(error), None)
        }
    }
}

/// The message a panic was raised with, when it was a string.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

fn serve_map_job(
    service: &MappingService,
    kernel: &KernelSource,
    knobs: &MapKnobs,
    decoded_at: Instant,
    traced: bool,
) -> Result<(MapSummary, Option<StageTimings>), WireError> {
    #[cfg(test)]
    tests::on_map(&kernel.name);
    // Verification and simulation use the mapping itself, so they keep it.
    // A plain map's repeats are answered from summaries, and so is a plain
    // map whose kernel finished while it waited in the queue.
    let plain = !knobs.verify && !knobs.simulate;
    if plain {
        let fingerprint = service.mapper().cache_fingerprint();
        if let Some(value) = service.cache().summary(fingerprint, &kernel.source) {
            let micros = decoded_at.elapsed().as_micros() as u64;
            let name = kernel.name.clone();
            let summary = map_summary(&value, name, CacheFlavor::MappingHit, None, micros);
            return Ok((summary, None));
        }
    }
    let retain = if plain {
        Retain::Summary
    } else {
        Retain::Mapping
    };
    let (result, outcome) = service
        .map_source_shared(&kernel.source, retain)
        .map_err(|error| WireError::MapFailed {
            name: kernel.name.clone(),
            error: error.to_string(),
        })?;
    if knobs.verify {
        verify(service, kernel, &result)?;
    }
    let sim = if knobs.simulate {
        Some(simulate(&result).map_err(|error| WireError::MapFailed {
            name: kernel.name.clone(),
            error,
        })?)
    } else {
        None
    };
    // The per-flow-stage child spans, bridged straight from the
    // `FlowContext` timings the pipeline already collects.  Only sampled
    // requests pay the (small) allocation.  A mapping hit ran no stage: its
    // trace is the one the cached mapping was built with.
    let stages = (traced && outcome != CacheOutcome::MappingHit).then(|| {
        result
            .trace
            .timings
            .iter()
            .map(|timing| (timing.stage, timing.wall.as_micros() as u64))
            .collect()
    });
    let summary = map_summary(
        &MappingSummary::of(&result),
        kernel.name.clone(),
        CacheFlavor::from(outcome),
        sim,
        decoded_at.elapsed().as_micros() as u64,
    );
    Ok((summary, stages))
}

/// Lints the kernel source and statically verifies its mapping; a
/// deny-level finding is the typed [`WireError::VerifyFailed`] to answer
/// with.
fn verify(
    service: &MappingService,
    kernel: &KernelSource,
    result: &MappingResult,
) -> Result<(), WireError> {
    // The source mapped, so it parses; an analyzer parse error is
    // unreachable here and degrades to "no lint findings".
    let mut report = fpfa_verify::analyze(&kernel.source).unwrap_or_default();
    report.merge(fpfa_verify::Verifier::for_mapper(service.mapper()).verify(result));
    if report.is_clean() {
        return Ok(());
    }
    let first = report
        .diagnostics
        .iter()
        .find(|d| d.severity == fpfa_verify::Severity::Deny)
        .map(ToString::to_string)
        .unwrap_or_default();
    Err(WireError::VerifyFailed {
        name: kernel.name.clone(),
        denies: report.deny_count() as u64,
        first,
    })
}

/// The wire answer for one request: the mapping's summary plus the
/// request's name, cache flavor, simulation outcome and server time.
fn map_summary(
    value: &MappingSummary,
    name: String,
    cache: CacheFlavor,
    sim: Option<SimSummary>,
    server_micros: u64,
) -> MapSummary {
    MapSummary {
        name,
        digest: value.digest,
        operations: value.operations,
        clusters: value.clusters,
        levels: value.levels,
        cycles: value.cycles,
        tiles: value.tiles,
        inter_tile_transfers: value.inter_tile_transfers,
        cache,
        sim,
        server_micros,
    }
}

fn simulate(mapping: &MappingResult) -> Result<SimSummary, String> {
    let inputs = fpfa_sim::test_inputs(mapping);
    let outcome = fpfa_sim::simulate(mapping, &inputs).map_err(|e| e.to_string())?;
    let checksum = outcome
        .scalars
        .values()
        .fold(0i64, |acc, v| acc.wrapping_add(*v));
    Ok(SimSummary {
        cycles: outcome.counts.cycles,
        checksum,
    })
}

fn validate(knobs: &MapKnobs) -> Result<(), String> {
    if knobs.tiles > MAX_TILES {
        return Err(format!(
            "tiles {} exceeds the {MAX_TILES} limit",
            knobs.tiles
        ));
    }
    if knobs.pps > MAX_PPS {
        return Err(format!("pps {} exceeds the {MAX_PPS} limit", knobs.pps));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Shard side
// ---------------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum ConnState {
    AwaitHello,
    Ready,
}

struct Conn {
    stream: TcpStream,
    fd: RawFd,
    token: usize,
    generation: u64,
    state: ConnState,
    rbuf: FrameBuffer,
    wbuf: Vec<u8>,
    wpos: usize,
    in_flight: u32,
    want_write: bool,
    close_after_flush: bool,
    saw_eof: bool,
}

fn closable(conn: &Conn) -> bool {
    let flushed = conn.wpos >= conn.wbuf.len();
    flushed && (conn.close_after_flush || (conn.saw_eof && conn.in_flight == 0))
}

/// One decoded inbound frame, owned so the read buffer can be re-borrowed.
enum Step {
    HelloOk,
    BadVersion(u32),
    GarbledHello,
    Request(u64, Request),
    Malformed(u64, String),
}

fn shard_loop(inner: &Arc<Inner>, shard_id: usize, mut poller: Poller) {
    let waker = lock_state(&inner.shards[shard_id].waker).take();
    let Some(waker) = waker else { return };
    if poller
        .register(waker.fd(), WAKE_TOKEN, Interest::READ)
        .is_err()
    {
        return;
    }
    let mut rt = ShardRt {
        inner,
        shard_id,
        poller,
        waker,
        conns: Vec::new(),
        generations: Vec::new(),
        free: Vec::new(),
        live: 0,
        knob_fingerprints: HashMap::new(),
        scratch: vec![0u8; READ_CHUNK],
        drain_deadline: None,
    };
    rt.run();
}

struct ShardRt<'a> {
    inner: &'a Inner,
    shard_id: usize,
    poller: Poller,
    waker: Waker,
    conns: Vec<Option<Conn>>,
    generations: Vec<u64>,
    free: Vec<usize>,
    live: usize,
    knob_fingerprints: HashMap<(u32, u32, bool, bool), u64>,
    scratch: Vec<u8>,
    drain_deadline: Option<Instant>,
}

impl<'a> ShardRt<'a> {
    fn mailbox(&self) -> &'a ShardMailbox {
        &self.inner.shards[self.shard_id]
    }

    fn run(&mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            self.adopt_new_conns();
            self.drain_completions();
            if self.should_exit() {
                break;
            }
            let timeout = self
                .inner
                .shutting_down
                .load(Ordering::SeqCst)
                .then_some(SHUTDOWN_POLL);
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for &event in &events {
                if event.token == WAKE_TOKEN {
                    self.waker.drain();
                    continue;
                }
                if event.writable {
                    self.handle_writable(event.token);
                }
                if event.readable {
                    self.handle_readable(event.token);
                }
            }
        }
    }

    fn should_exit(&mut self) -> bool {
        if !self.inner.shutting_down.load(Ordering::SeqCst) {
            return false;
        }
        let now = Instant::now();
        let deadline = *self
            .drain_deadline
            .get_or_insert(now + self.inner.config.drain_grace);
        if !self.inner.workers_done.load(Ordering::SeqCst) {
            return false;
        }
        if self.inner.stats.in_flight.get() != 0 {
            return false;
        }
        self.live == 0 || now >= deadline
    }

    fn adopt_new_conns(&mut self) {
        let streams = std::mem::take(&mut *lock_state(&self.mailbox().inbox));
        for stream in streams {
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let _ = stream.set_nodelay(true);
            let fd = stream.as_raw_fd();
            let idx = self.free.pop().unwrap_or_else(|| {
                self.conns.push(None);
                self.generations.push(0);
                self.conns.len() - 1
            });
            let token = idx + 1;
            if self.poller.register(fd, token, Interest::READ).is_err() {
                self.free.push(idx);
                continue;
            }
            let counters = &self.mailbox().counters;
            counters.accepted.inc();
            counters.open.inc();
            self.conns[idx] = Some(Conn {
                stream,
                fd,
                token,
                generation: self.generations[idx],
                state: ConnState::AwaitHello,
                rbuf: FrameBuffer::new(),
                wbuf: Vec::new(),
                wpos: 0,
                in_flight: 0,
                want_write: false,
                close_after_flush: false,
                saw_eof: false,
            });
            self.live += 1;
        }
    }

    fn drop_conn(&mut self, conn: Conn, idx: usize) {
        let _ = self.poller.deregister(conn.fd);
        self.generations[idx] = self.generations[idx].wrapping_add(1);
        self.free.push(idx);
        self.live -= 1;
        self.mailbox().counters.open.dec();
    }

    fn handle_readable(&mut self, token: usize) {
        let idx = token.wrapping_sub(1);
        if idx >= self.conns.len() {
            return;
        }
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        let mut keep = self.service_conn(&mut conn, idx);
        if keep {
            keep = self.flush_conn(&mut conn);
        }
        if keep && !closable(&conn) {
            self.conns[idx] = Some(conn);
        } else {
            self.drop_conn(conn, idx);
        }
    }

    fn handle_writable(&mut self, token: usize) {
        let idx = token.wrapping_sub(1);
        if idx >= self.conns.len() {
            return;
        }
        let Some(mut conn) = self.conns[idx].take() else {
            return;
        };
        if self.flush_conn(&mut conn) && !closable(&conn) {
            self.conns[idx] = Some(conn);
        } else {
            self.drop_conn(conn, idx);
        }
    }

    /// Reads everything available, parses complete frames, serves them.
    /// Returns `false` when the connection must be torn down.
    fn service_conn(&mut self, conn: &mut Conn, idx: usize) -> bool {
        loop {
            match conn.stream.read(&mut self.scratch) {
                Ok(0) => {
                    conn.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.mailbox().counters.bytes_in.add(n as u64);
                    conn.rbuf.extend(&self.scratch[..n]);
                    if n < self.scratch.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }

        loop {
            if conn.close_after_flush {
                break;
            }
            let step = match conn.rbuf.next_frame() {
                Ok(None) => break,
                Err(_) => {
                    // An oversized announced length cannot be resynchronised.
                    self.inner.stats.protocol_errors.inc();
                    return false;
                }
                Ok(Some(frame)) => match conn.state {
                    ConnState::AwaitHello => {
                        if Hello::looks_like_hello(frame) {
                            match Hello::decode(frame) {
                                Ok(hello) if hello.version == PROTOCOL_VERSION => Step::HelloOk,
                                Ok(hello) => Step::BadVersion(hello.version),
                                Err(_) => Step::GarbledHello,
                            }
                        } else {
                            // No magic: almost certainly a bare v1 request.
                            Step::BadVersion(1)
                        }
                    }
                    ConnState::Ready => {
                        let id = request_id_of(frame).unwrap_or(UNKNOWN_REQUEST_ID);
                        match decode_request_frame(frame) {
                            Ok((id, request)) => Step::Request(id, request),
                            Err(error) => Step::Malformed(id, error.to_string()),
                        }
                    }
                },
            };
            let decoded_at = Instant::now();
            match step {
                Step::HelloOk => {
                    let ack = HelloAck {
                        version: PROTOCOL_VERSION,
                        shards: self.inner.config.shards as u32,
                        max_in_flight: MAX_CONN_IN_FLIGHT,
                    };
                    self.append_plain(conn, &Response::Hello(ack));
                    conn.state = ConnState::Ready;
                }
                Step::BadVersion(requested) => {
                    self.inner.stats.rejected_version.inc();
                    self.append_plain(
                        conn,
                        &Response::Error(WireError::UnsupportedVersion {
                            requested,
                            supported: PROTOCOL_VERSION,
                        }),
                    );
                    conn.close_after_flush = true;
                }
                Step::GarbledHello => {
                    self.inner.stats.protocol_errors.inc();
                    self.append_plain(
                        conn,
                        &Response::Error(WireError::Invalid("malformed hello".to_string())),
                    );
                    conn.close_after_flush = true;
                }
                Step::Request(id, request) => {
                    self.serve_request(conn, idx, id, request, decoded_at)
                }
                Step::Malformed(id, error) => {
                    // The frame boundary survived, so the stream stays
                    // usable; only this request is answered with `Invalid`.
                    self.inner.stats.protocol_errors.inc();
                    self.append_response(conn, id, &Response::Error(WireError::Invalid(error)));
                }
            }
        }
        true
    }

    fn serve_request(
        &mut self,
        conn: &mut Conn,
        idx: usize,
        id: u64,
        request: Request,
        decoded_at: Instant,
    ) {
        let inner = self.inner;
        match request {
            Request::Health => {
                let health = HealthSummary {
                    uptime_micros: inner.started.elapsed().as_micros() as u64,
                    in_flight: inner.stats.in_flight.get(),
                    draining: inner.shutting_down.load(Ordering::SeqCst),
                };
                self.finish_control(conn, id, &Response::Health(health), decoded_at, "health");
            }
            Request::Metrics { format } => {
                let body = match format {
                    MetricsFormat::Prometheus => inner.registry.render_prometheus(),
                    MetricsFormat::Json => inner.registry.render_json(),
                };
                self.finish_control(
                    conn,
                    id,
                    &Response::Metrics { format, body },
                    decoded_at,
                    "metrics",
                );
            }
            Request::Dump => {
                let json = inner.flight_json();
                self.finish_control(conn, id, &Response::Dump { json }, decoded_at, "dump");
            }
            Request::Reset => {
                let dropped = inner.base.clear_cache() as u64;
                inner.base.cache().reset_stats();
                inner.reset_counters();
                self.finish_control(
                    conn,
                    id,
                    &Response::ResetDone {
                        dropped_entries: dropped,
                    },
                    decoded_at,
                    "reset",
                );
            }
            Request::Shutdown => {
                initiate_shutdown(inner);
                self.finish_control(conn, id, &Response::ShutdownStarted, decoded_at, "shutdown");
            }
            Request::Map { kernel, knobs } => {
                self.serve_map(conn, idx, id, kernel, knobs, decoded_at)
            }
        }
    }

    /// The map fast path: the shared summary level, then the queue.
    /// `simulate` and `verify` requests always take the queue — they need
    /// the mapping itself, and simulation is real compute that must not
    /// stall the I/O loop.
    fn serve_map(
        &mut self,
        conn: &mut Conn,
        idx: usize,
        id: u64,
        kernel: KernelSource,
        knobs: MapKnobs,
        decoded_at: Instant,
    ) {
        let inner = self.inner;
        if let Err(reason) = validate(&knobs) {
            let response = Response::Error(WireError::Invalid(reason));
            self.finish(conn, id, &response, decoded_at, None);
            return;
        }
        if inner.shutting_down.load(Ordering::SeqCst) {
            inner.stats.rejected_shutdown.inc();
            let response = Response::Error(WireError::ShuttingDown);
            self.finish(conn, id, &response, decoded_at, None);
            return;
        }
        // Verify requests must actually verify: the summary level holds
        // digested answers, not full mappings, so it cannot vouch for
        // legality.
        if !knobs.simulate && !knobs.verify {
            let fingerprint = self.fingerprint_of(&knobs);
            if let Some(value) = inner.base.cache().summary(fingerprint, &kernel.source) {
                self.finish_inline(conn, id, kernel.name, value, decoded_at);
                return;
            }
        }
        self.submit_job(conn, idx, id, kernel, knobs, decoded_at);
    }

    fn submit_job(
        &mut self,
        conn: &mut Conn,
        idx: usize,
        id: u64,
        kernel: KernelSource,
        knobs: MapKnobs,
        decoded_at: Instant,
    ) {
        let inner = self.inner;
        if conn.in_flight >= MAX_CONN_IN_FLIGHT {
            inner.stats.rejected_overload.inc();
            let response = Response::Error(WireError::Overloaded {
                queue_depth: u64::from(MAX_CONN_IN_FLIGHT),
            });
            self.finish(conn, id, &response, decoded_at, None);
            return;
        }
        inner.stats.in_flight.inc();
        let job = Job {
            shard: self.shard_id,
            conn: idx,
            generation: conn.generation,
            request_id: id,
            decoded_at,
            kernel,
            knobs,
            traced: inner.traced(id),
        };
        match inner.queue.try_push(job) {
            Ok(()) => {
                inner.stats.accepted.inc();
                conn.in_flight += 1;
            }
            Err(refused) => {
                inner.stats.in_flight.dec();
                let response = match refused {
                    PushRefused::Full => {
                        inner.stats.rejected_overload.inc();
                        Response::Error(WireError::Overloaded {
                            queue_depth: inner.config.queue_depth as u64,
                        })
                    }
                    PushRefused::Closed => {
                        inner.stats.rejected_shutdown.inc();
                        Response::Error(WireError::ShuttingDown)
                    }
                };
                self.finish(conn, id, &response, decoded_at, None);
            }
        }
    }

    fn drain_completions(&mut self) {
        let inner = self.inner;
        let mut completions = std::mem::take(&mut *lock_state(&self.mailbox().completions));
        if completions.is_empty() {
            return;
        }
        let mut touched: Vec<usize> = Vec::with_capacity(completions.len());
        for completion in completions.drain(..) {
            inner.stats.in_flight.dec();
            let idx = completion.conn;
            let alive = self
                .conns
                .get(idx)
                .and_then(|slot| slot.as_ref())
                .is_some_and(|c| c.generation == completion.generation);
            if !alive {
                continue;
            }
            let Some(mut conn) = self.conns[idx].take() else {
                continue;
            };
            conn.in_flight = conn.in_flight.saturating_sub(1);
            self.finish(
                &mut conn,
                completion.request_id,
                &completion.response,
                completion.decoded_at,
                Some(&completion.timing),
            );
            self.conns[idx] = Some(conn);
            touched.push(idx);
        }
        touched.sort_unstable();
        touched.dedup();
        for idx in touched {
            let Some(mut conn) = self.conns[idx].take() else {
                continue;
            };
            if self.flush_conn(&mut conn) && !closable(&conn) {
                self.conns[idx] = Some(conn);
            } else {
                self.drop_conn(conn, idx);
            }
        }
    }

    /// Appends a `map` response frame, records its decode → write-back
    /// latency, and feeds the observability sinks (flight ring, trace ring,
    /// slow log).  `timing` carries the worker-side decomposition when the
    /// request went through the queue; shard-side rejections pass `None`.
    fn finish(
        &mut self,
        conn: &mut Conn,
        id: u64,
        response: &Response,
        decoded_at: Instant,
        timing: Option<&JobTiming>,
    ) {
        let bytes = self.append_response(conn, id, response);
        let micros = decoded_at.elapsed().as_micros() as u64;
        self.inner.stats.map_latency.record(micros);
        let outcome = match response {
            Response::Error(_) => "error",
            _ => "ok",
        };
        self.observe(id, "map", outcome, micros, bytes, timing);
    }

    /// Appends a control-verb response (health, metrics, …).  These land in
    /// the flight recorder so a dump shows the whole conversation, but stay
    /// out of the map latency histogram so the serving percentiles keep
    /// describing real mapping work.
    fn finish_control(
        &mut self,
        conn: &mut Conn,
        id: u64,
        response: &Response,
        decoded_at: Instant,
        verb: &'static str,
    ) {
        let bytes = self.append_response(conn, id, response);
        let micros = decoded_at.elapsed().as_micros() as u64;
        self.observe(id, verb, "ok", micros, bytes, None);
    }

    /// Feeds one finished request into the observability sinks: a flight
    /// entry on this shard's ring always; trace spans and the slow-request
    /// log only when the worker-side timing is available.
    fn observe(
        &mut self,
        id: u64,
        verb: &'static str,
        outcome: &'static str,
        e2e_us: u64,
        bytes: u64,
        timing: Option<&JobTiming>,
    ) {
        let inner = self.inner;
        self.mailbox().flight.record(FlightEntry {
            id,
            verb,
            outcome,
            queue_us: timing.map_or(0, |t| t.queue_us),
            e2e_us,
            bytes,
            at_us: inner.started.elapsed().as_micros() as u64,
        });
        let Some(timing) = timing else {
            return;
        };
        let respond_us = timing.completed_at.elapsed().as_micros() as u64;
        if inner.traced(id) {
            // Reconstruct the span tree from the boundary timestamps: the
            // request span covers decode → write-back, its children lay the
            // queue wait, the worker service (with the flow stages nested
            // inside it) and the write-back transit end to end.
            let now = inner.trace.now_us();
            let start = now.saturating_sub(e2e_us);
            inner.trace.record(SpanEvent {
                trace_id: id,
                name: "request",
                start_us: start,
                dur_us: e2e_us,
            });
            inner.trace.record(SpanEvent {
                trace_id: id,
                name: "queue.wait",
                start_us: start,
                dur_us: timing.queue_us,
            });
            inner.trace.record(SpanEvent {
                trace_id: id,
                name: "map.service",
                start_us: start + timing.queue_us,
                dur_us: timing.service_us,
            });
            if let Some(stages) = &timing.stages {
                let mut stage_start = start + timing.queue_us;
                for &(stage, wall) in stages {
                    inner.trace.record(SpanEvent {
                        trace_id: id,
                        name: stage,
                        start_us: stage_start,
                        dur_us: wall,
                    });
                    stage_start += wall;
                }
            }
            inner.trace.record(SpanEvent {
                trace_id: id,
                name: "respond",
                start_us: now.saturating_sub(respond_us),
                dur_us: respond_us,
            });
        }
        let threshold = inner.config.slow_threshold;
        if !threshold.is_zero() && Duration::from_micros(e2e_us) >= threshold {
            let stages = timing.stages.as_deref().unwrap_or(&[]);
            let mut stage_list = String::new();
            for (i, (stage, wall)) in stages.iter().enumerate() {
                if i > 0 {
                    stage_list.push(',');
                }
                stage_list.push_str(stage);
                stage_list.push(':');
                stage_list.push_str(&wall.to_string());
            }
            eprintln!(
                "fpfa-serve: slow-request id={id} verb={verb} outcome={outcome} \
                 e2e_us={e2e_us} queue_us={} map_us={} respond_us={respond_us} \
                 stages={stage_list}",
                timing.queue_us, timing.service_us,
            );
        }
    }

    /// Encodes a response frame straight into the write buffer; returns
    /// the number of bytes buffered (payload plus length prefix).
    fn append_response(&mut self, conn: &mut Conn, id: u64, response: &Response) -> u64 {
        self.mailbox().counters.served.inc();
        append_response_frame(&mut conn.wbuf, id, response) as u64
    }

    /// A raw (un-id'd) frame — only the handshake speaks these.
    fn append_plain(&mut self, conn: &mut Conn, response: &Response) {
        self.mailbox().counters.served.inc();
        // Writing into a `Vec` cannot fail, and a handshake answer is far
        // below the frame limit.
        let _ = write_frame(&mut conn.wbuf, &response.encode());
    }

    /// Writes as much of the buffered output as the socket accepts,
    /// toggling write interest when it backs up.  Returns `false` when the
    /// connection must be torn down.
    fn flush_conn(&mut self, conn: &mut Conn) -> bool {
        while conn.wpos < conn.wbuf.len() {
            match conn.stream.write(&conn.wbuf[conn.wpos..]) {
                Ok(0) => return false,
                Ok(n) => {
                    conn.wpos += n;
                    self.mailbox().counters.bytes_out.add(n as u64);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => return false,
            }
        }
        if conn.wpos >= conn.wbuf.len() {
            conn.wbuf.clear();
            conn.wpos = 0;
            if conn.want_write {
                conn.want_write = false;
                if self
                    .poller
                    .reregister(conn.fd, conn.token, Interest::READ)
                    .is_err()
                {
                    return false;
                }
            }
        } else {
            if conn.wbuf.len() - conn.wpos > WBUF_LIMIT {
                return false;
            }
            if conn.wpos > READ_CHUNK {
                conn.wbuf.drain(..conn.wpos);
                conn.wpos = 0;
            }
            if !conn.want_write {
                conn.want_write = true;
                if self
                    .poller
                    .reregister(conn.fd, conn.token, Interest::READ_WRITE)
                    .is_err()
                {
                    return false;
                }
            }
        }
        true
    }

    /// The cache fingerprint of the mapper a knob set derives, memoised per
    /// shard so the fast path never rebuilds a mapper.
    fn fingerprint_of(&mut self, knobs: &MapKnobs) -> u64 {
        let quad = (knobs.tiles, knobs.pps, knobs.clustering, knobs.locality);
        if let Some(&fingerprint) = self.knob_fingerprints.get(&quad) {
            return fingerprint;
        }
        let fingerprint = self.inner.service_for(knobs).mapper().cache_fingerprint();
        self.knob_fingerprints.insert(quad, fingerprint);
        fingerprint
    }

    /// Answers a `map` inline from the summary of a finished mapping: a
    /// `Mapped` response carrying the request's own name, `MappingHit` and
    /// the server time, encoded like every other response, and flight
    /// recorded as `l0`.
    fn finish_inline(
        &mut self,
        conn: &mut Conn,
        id: u64,
        name: String,
        value: MappingSummary,
        decoded_at: Instant,
    ) {
        let inner = self.inner;
        inner.stats.l0_hits.inc();
        inner.stats.served_ok.inc();
        let micros = decoded_at.elapsed().as_micros() as u64;
        let summary = map_summary(&value, name, CacheFlavor::MappingHit, None, micros);
        let bytes = self.append_response(conn, id, &Response::Mapped(summary));
        inner.stats.map_latency.record(micros);
        self.observe(id, "map", "l0", micros, bytes, None);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use fpfa_core::pipeline::Mapper;
    use std::sync::PoisonError;

    /// Kernel names whose maps panic, armed by tests.
    static PANICS_ON: Mutex<Vec<&str>> = Mutex::new(Vec::new());
    /// Kernel names whose maps wait on their worker until a test releases
    /// them.
    static HELD: Mutex<Vec<&str>> = Mutex::new(Vec::new());
    static RELEASED: Condvar = Condvar::new();

    pub(super) fn on_map(name: &str) {
        let armed = PANICS_ON
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .contains(&name);
        if armed {
            panic!("injected panic mapping `{name}`");
        }
        let mut held = HELD.lock().unwrap_or_else(PoisonError::into_inner);
        while held.contains(&name) {
            held = RELEASED.wait(held).unwrap_or_else(PoisonError::into_inner);
        }
    }

    fn release(name: &str) {
        HELD.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .retain(|held| *held != name);
        RELEASED.notify_all();
    }

    /// A plain repeat that waited in the queue while its kernel's leader
    /// ran is answered by the worker from the summary the leader left: a
    /// mapping hit that runs no stage.  Without the worker's probe it would
    /// find no mapping (plain maps keep none) and no flight to follow, and
    /// re-run frontend and transform as a post-transform hit.
    #[test]
    fn a_plain_repeat_queued_behind_its_leader_runs_no_stage() {
        HELD.lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push("held-leader");
        let config = ServerConfig {
            workers: 1,
            shards: 1,
            ..ServerConfig::default()
        };
        let service = MappingService::new(Mapper::new());
        let server = Server::bind("127.0.0.1:0", config, service).expect("bind on port 0");
        let handle = server.spawn().expect("spawn server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let map = |name: &str| Request::Map {
            kernel: KernelSource::new(name, "void main() { int a[3]; int r; r = a[2] - a[0]; }"),
            knobs: MapKnobs::default(),
        };
        let leader = client.submit(&map("held-leader")).expect("submit");
        let repeat = client.submit(&map("repeat")).expect("submit");
        client.flush().expect("flush");
        let value = |name| match handle.registry().snapshot().get(name, &[]) {
            Some(fpfa_obs::MetricValue::Counter(v) | fpfa_obs::MetricValue::Gauge(v)) => *v,
            other => panic!("{name} is not a counter or gauge: {other:?}"),
        };
        // The only worker holds the leader, so the repeat is queued.
        let started = Instant::now();
        while value("serve.accepted") < 2 {
            assert!(
                started.elapsed() < Duration::from_secs(60),
                "the repeat never queued"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        release("held-leader");
        let answer = |response| match response {
            Ok(Response::Mapped(summary)) => summary,
            other => panic!("expected a mapping, got {other:?}"),
        };
        let leader = answer(client.wait(leader));
        let repeat = answer(client.wait(repeat));
        assert_eq!(leader.cache, CacheFlavor::Miss);
        assert_eq!(repeat.cache, CacheFlavor::MappingHit);
        assert_eq!(
            (repeat.name.as_str(), repeat.digest),
            ("repeat", leader.digest)
        );
        // One flow run, and no post-transform lookup for the repeat.
        assert_eq!(value("cache.post.misses"), 1);
        assert_eq!(value("cache.post.hits"), 0);
        assert_eq!(value("serve.l0_hits"), 0);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn a_panicking_map_answers_a_typed_error_and_keeps_its_worker() {
        PANICS_ON
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push("boom");
        let config = ServerConfig {
            workers: 1,
            shards: 1,
            ..ServerConfig::default()
        };
        let service = MappingService::new(Mapper::new());
        let server = Server::bind("127.0.0.1:0", config, service).expect("bind on port 0");
        let handle = server.spawn().expect("spawn server");
        let mut client = Client::connect(handle.addr()).expect("connect");
        let kernel = "void main() { int a[2]; int r; r = a[0] + a[1]; }";
        match client.map("boom", kernel, MapKnobs::default()) {
            Err(ClientError::Server(WireError::MapFailed { name, error })) => {
                assert_eq!(name, "boom");
                assert!(error.contains("panicked"), "{error}");
            }
            other => panic!("expected a typed MapFailed, got {other:?}"),
        }
        // The daemon's only worker lives on: the next map, of another
        // kernel, is served.
        let other = "void main() { int a[2]; int r; r = a[0] * a[1]; }";
        let served = client
            .map("fine", other, MapKnobs::default())
            .expect("the worker survives the panic");
        assert!(served.operations > 0);
        let stats = handle.registry().snapshot();
        let value = |name, labels: &[(&str, &str)]| match stats.get(name, labels) {
            Some(fpfa_obs::MetricValue::Counter(v) | fpfa_obs::MetricValue::Gauge(v)) => *v,
            other => panic!("{name} is not a counter or gauge: {other:?}"),
        };
        assert_eq!(value("serve.worker_panics", &[]), 1);
        assert_eq!(value("serve.in_flight", &[]), 0);
        assert_eq!(value("serve.served", &[("outcome", "err")]), 1);
        handle.shutdown();
        handle.join();
    }

    #[test]
    fn queue_admission_is_immediate_and_bounded() {
        let queue: JobQueue<u32> = JobQueue::new(2);
        assert_eq!(queue.try_push(1), Ok(()));
        assert_eq!(queue.try_push(2), Ok(()));
        assert_eq!(queue.try_push(3), Err(PushRefused::Full));
        assert_eq!(queue.len(), 2);
        assert_eq!(queue.pop(), Some(1));
        assert_eq!(queue.try_push(3), Ok(()));
        queue.close();
        assert_eq!(queue.try_push(4), Err(PushRefused::Closed));
        // Closing drains what was admitted before signalling exit.
        assert_eq!(queue.pop(), Some(2));
        assert_eq!(queue.pop(), Some(3));
        assert_eq!(queue.pop(), None);
    }

    #[test]
    fn queue_pop_blocks_until_push() {
        let queue: Arc<JobQueue<u32>> = Arc::new(JobQueue::new(1));
        let popper = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(queue.try_push(7), Ok(()));
        assert_eq!(popper.join().unwrap(), Some(7));

        let waiter = {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        };
        std::thread::sleep(Duration::from_millis(20));
        queue.close();
        assert_eq!(waiter.join().unwrap(), None);
    }

    #[test]
    fn knob_validation_rejects_out_of_range() {
        let good = MapKnobs::default();
        assert!(validate(&good).is_ok());
        // 0 is the "inherit the daemon default" sentinel, not an error.
        let inherit_tiles = MapKnobs { tiles: 0, ..good };
        assert!(validate(&inherit_tiles).is_ok());
        let huge = MapKnobs {
            tiles: MAX_TILES + 1,
            ..good
        };
        assert!(validate(&huge).is_err());
        let at_limit = MapKnobs {
            tiles: MAX_TILES,
            pps: MAX_PPS,
            ..good
        };
        assert!(validate(&at_limit).is_ok());
        for pps in [MAX_PPS + 1, u32::MAX] {
            assert!(validate(&MapKnobs { pps, ..good }).is_err(), "pps {pps}");
        }
    }

    #[test]
    fn shard_auto_selection_is_capped() {
        assert!(effective_shards(0) >= 1);
        assert!(effective_shards(0) <= MAX_AUTO_SHARDS);
        assert_eq!(effective_shards(3), 3);
        assert_eq!(effective_shards(10_000), MAX_SHARDS);
    }
}
