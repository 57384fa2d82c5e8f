//! `fpfa-loadgen` — load generator for `fpfa-serve`.
//!
//! Two modes share warmup, digest verification and the final server-side
//! cross-check, read from the daemon's metrics registry (the `metrics`
//! verb's JSON snapshot).  It includes a latency sanity gate: the
//! client-observed p99 of the measured phase is compared against the
//! server's own decode → write-back histogram for the same phase (pre-phase
//! counts subtracted), and a gross disagreement — client p99 more than 8x
//! below the server's bucket floor — fails the run:
//!
//! * **Closed loop** (default): N connections, each issuing map requests
//!   back-to-back (one outstanding request per connection), cycling through
//!   the `fpfa-workloads` registry.
//! * **Open loop** (`--open-loop --rate R`): one event-driven thread
//!   drives all N pipelined v2 connections off a fixed-rate schedule.
//!   Latency is measured from each request's *scheduled* send time, not
//!   the actual one, so queueing delay inside the generator counts against
//!   the server's percentiles instead of being silently absorbed
//!   (coordinated-omission correction).  Every ~256th request is paired
//!   with a `simulate` probe on the same connection; the probe takes the
//!   server's worker path while the paired request is answered inline, so
//!   observing the pair complete out of order proves response reordering
//!   end to end.
//!
//! ```text
//! fpfa-loadgen --addr 127.0.0.1:9417                  # 4 connections, 2000 requests each
//! fpfa-loadgen --connections 8 --requests 5000
//! fpfa-loadgen --open-loop --rate 60000               # fixed-rate pipelined mode
//! fpfa-loadgen --tiles 4                              # multi-tile knob on every request
//!                                                     # (default: the daemon's own tile setting)
//! fpfa-loadgen --min-hit-ratio 0.9 --forbid-overload  # CI assertions
//! fpfa-loadgen --min-throughput 1000                  # req/s floor (exit non-zero below)
//! fpfa-loadgen --cold-storm                           # reset the cache before measuring
//! fpfa-loadgen --verify                               # server-side verification on every request
//! fpfa-loadgen --shutdown                             # stop the daemon afterwards
//! ```
//!
//! With `FPFA_BENCH_QUICK` set, the per-connection request count drops to a
//! smoke-test size (the CI `serve-smoke` mode).
//!
//! A warmup pass maps every registry kernel once before the measured phase
//! (so a fresh daemon serves the measured phase from a warm cache) and
//! records each kernel's program digest; every measured response is checked
//! against it — a digest mismatch means the server handed out a different
//! mapping for the same kernel and counts as a failure.
//!
//! `--cold-storm` issues a `reset` between the warmup pass and the measured
//! phase, so the storm of concurrent requests hits an empty mapping cache
//! and the latency percentiles describe the *cold* mapping path under
//! contention (the digests recorded during warmup still apply: a cold remap
//! must reproduce the same program).  Cache hit ratios are naturally low in
//! this mode; combine with `--min-hit-ratio` only if you know what you are
//! asserting.

use fpfa::server::protocol::{decode_response_frame, read_frame, write_frame, FrameBuffer, Hello};
use fpfa::server::sys::{Event, Interest, Poller};
use fpfa::server::{Client, MapKnobs, MetricsFormat, Request, Response, WireError};
use fpfa_obs::{quantile_upper_bound, MetricValue, Snapshot, HISTOGRAM_BUCKETS};
use report::count;
use std::collections::HashMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

mod report;

struct Options {
    addr: String,
    connections: usize,
    requests: usize,
    tiles: usize,
    open_loop: bool,
    rate: Option<f64>,
    min_hit_ratio: Option<f64>,
    min_throughput: Option<f64>,
    forbid_overload: bool,
    cold_storm: bool,
    verify: bool,
    shutdown: bool,
}

fn usage() -> &'static str {
    "usage: fpfa-loadgen [--addr HOST:PORT] [--connections N] [--requests N] [--tiles N] \
     [--open-loop --rate R] [--min-hit-ratio F] [--min-throughput F] [--forbid-overload] \
     [--cold-storm] [--verify] [--shutdown]"
}

fn quick_mode() -> bool {
    std::env::var_os("FPFA_BENCH_QUICK").is_some()
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:9417".to_string(),
        connections: 4,
        requests: if quick_mode() { 150 } else { 2000 },
        // 0 = the wire sentinel for "inherit the daemon's tile default".
        tiles: 0,
        open_loop: false,
        rate: None,
        min_hit_ratio: None,
        min_throughput: None,
        forbid_overload: false,
        cold_storm: false,
        verify: false,
        shutdown: false,
    };
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let mut value_of = |flag: &str| {
            iter.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match arg.as_str() {
            "--addr" => options.addr = value_of("--addr")?,
            "--connections" => {
                options.connections = parse_positive(&value_of("--connections")?, "--connections")?;
            }
            "--requests" => {
                options.requests = parse_positive(&value_of("--requests")?, "--requests")?;
            }
            "--tiles" => options.tiles = parse_positive(&value_of("--tiles")?, "--tiles")?,
            "--open-loop" => options.open_loop = true,
            "--rate" => {
                let rate: f64 = value_of("--rate")?
                    .parse()
                    .map_err(|_| "--rate needs a number".to_string())?;
                if !rate.is_finite() || rate <= 0.0 {
                    return Err("--rate needs a positive request rate".to_string());
                }
                options.rate = Some(rate);
            }
            "--min-hit-ratio" => {
                options.min_hit_ratio = Some(
                    value_of("--min-hit-ratio")?
                        .parse()
                        .map_err(|_| "--min-hit-ratio needs a number".to_string())?,
                );
            }
            "--min-throughput" => {
                options.min_throughput = Some(
                    value_of("--min-throughput")?
                        .parse()
                        .map_err(|_| "--min-throughput needs a number".to_string())?,
                );
            }
            "--forbid-overload" => options.forbid_overload = true,
            "--cold-storm" => options.cold_storm = true,
            "--verify" => options.verify = true,
            "--shutdown" => options.shutdown = true,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    if options.open_loop && options.rate.is_none() {
        return Err("--open-loop needs --rate R (target requests per second)".to_string());
    }
    if options.rate.is_some() && !options.open_loop {
        return Err("--rate only applies to --open-loop mode".to_string());
    }
    Ok(options)
}

fn parse_positive(value: &str, flag: &str) -> Result<usize, String> {
    let parsed: usize = value
        .parse()
        .map_err(|_| format!("{flag} needs a number"))?;
    if parsed == 0 {
        return Err(format!("{flag} needs at least 1"));
    }
    Ok(parsed)
}

/// Outcome counts and latencies of one connection's closed loop.
#[derive(Default)]
struct WorkerOutcome {
    latencies_us: Vec<u64>,
    overloaded: usize,
    failures: Vec<String>,
}

/// What one measured phase (either mode) produced.
struct LoadOutcome {
    latencies_us: Vec<u64>,
    overloaded: usize,
    failures: Vec<String>,
    wall: Duration,
    attempted: usize,
    mode: String,
    /// Mode-specific report lines (probe stats, pacing notes).
    extra_lines: Vec<String>,
}

fn percentile(sorted_us: &[u64], q: f64) -> u64 {
    if sorted_us.is_empty() {
        return 0;
    }
    let rank = ((sorted_us.len() as f64 * q).ceil() as usize).clamp(1, sorted_us.len());
    sorted_us[rank - 1]
}

/// Scrapes the daemon's metrics registry over `client`.
fn scrape(client: &mut Client) -> Result<Snapshot, String> {
    let json = client
        .metrics(MetricsFormat::Json)
        .map_err(|e| format!("metrics scrape failed: {e}"))?;
    Snapshot::from_json(&json).map_err(|e| format!("metrics scrape does not parse: {e}"))
}

/// The bucket counts of the histogram `name`.
fn histogram(snapshot: &Snapshot, name: &str) -> Result<[u64; HISTOGRAM_BUCKETS], String> {
    match snapshot.get(name, &[]) {
        Some(MetricValue::Histogram { buckets, .. }) => Ok(*buckets),
        other => Err(format!(
            "the server reports no histogram `{name}`: {other:?}"
        )),
    }
}

fn run(options: &Options) -> Result<(), String> {
    let kernels: Vec<(String, String)> = fpfa::workloads::registry()
        .into_iter()
        .map(|kernel| (kernel.name, kernel.source))
        .collect();
    let knobs = MapKnobs {
        tiles: options.tiles as u32,
        verify: options.verify,
        ..MapKnobs::default()
    };

    // Warmup: one pass over the registry fills the server's cache and
    // records the expected program digest per kernel.
    let mut warm = Client::connect(&options.addr)
        .map_err(|e| format!("cannot connect to {}: {e}", options.addr))?;
    let mut digests: HashMap<String, u64> = HashMap::new();
    for (name, source) in &kernels {
        let summary = warm
            .map(name, source, knobs)
            .map_err(|e| format!("warmup mapping of `{name}` failed: {e}"))?;
        digests.insert(name.clone(), summary.digest);
    }
    println!(
        "fpfa-loadgen: warmed {} registry kernel(s) on {}",
        kernels.len(),
        options.addr
    );

    if options.cold_storm {
        let dropped = warm
            .reset()
            .map_err(|e| format!("cold-storm reset failed: {e}"))?;
        println!(
            "fpfa-loadgen: cold storm — dropped {dropped} cache entr(ies); \
             the measured phase starts against an empty mapping cache"
        );
    }

    // Snapshot the server's map-latency histogram before the measured
    // phase, so the cross-check below compares phase-against-phase instead
    // of letting the warmup mappings pollute the server side.
    let before = histogram(&scrape(&mut warm)?, "serve.map.latency")?;
    drop(warm);

    // Measured phase.
    let mut outcome = if options.open_loop {
        run_open_loop(options, &kernels, knobs, &digests)?
    } else {
        run_closed_loop(options, &kernels, knobs, &digests)
    };
    outcome.latencies_us.sort_unstable();
    let ok = outcome.latencies_us.len();
    let throughput = ok as f64 / outcome.wall.as_secs_f64().max(1e-9);

    println!(
        "fpfa-loadgen: {} connection(s), {}: {ok} ok, {} failed, {} overloaded in {:.2?}",
        options.connections,
        outcome.mode,
        outcome.failures.len(),
        outcome.overloaded,
        outcome.wall,
    );
    println!(
        "  throughput {throughput:.1} req/s ({} attempted)",
        outcome.attempted
    );
    println!(
        "  latency p50 {} us  p95 {} us  p99 {} us  max {} us",
        percentile(&outcome.latencies_us, 0.50),
        percentile(&outcome.latencies_us, 0.95),
        percentile(&outcome.latencies_us, 0.99),
        outcome.latencies_us.last().copied().unwrap_or(0),
    );
    for line in &outcome.extra_lines {
        println!("  {line}");
    }

    // Cross-check with the server's own counters.
    let mut control =
        Client::connect(&options.addr).map_err(|e| format!("cannot reconnect for metrics: {e}"))?;
    let server = scrape(&mut control)?;
    let counter = |name| count(&server, name, &[]);
    let protocol_errors = counter("serve.protocol_errors")?;
    println!(
        "  server: accepted {}, served ok {}, map failures {}, overloaded {}, \
         deadline-expired {}, fast-path hits {} (L0 {}), protocol errors {protocol_errors}",
        counter("serve.accepted")?,
        count(&server, "serve.served", &[("outcome", "ok")])?,
        count(&server, "serve.served", &[("outcome", "err")])?,
        count(&server, "serve.rejected", &[("reason", "overload")])?,
        count(&server, "serve.rejected", &[("reason", "deadline")])?,
        counter("serve.fast_hits")?,
        counter("serve.l0_hits")?,
    );
    let verify_failures = count(&server, "serve.verify_failures", &[("verb", "map")])?;
    if options.verify || verify_failures > 0 {
        println!("  server: {verify_failures} verify failure(s)");
    }
    let hits = counter("cache.mapping.hits")?;
    let hit_ratio = report::hit_ratio(&server)?.unwrap_or(0.0);
    println!(
        "  cache: {hits}/{} mapping hit(s), ratio {hit_ratio:.3}, {} resident entr(ies)",
        hits + counter("cache.mapping.misses")?,
        counter("cache.entries")?,
    );
    if counter("persist.loads")?
        + counter("persist.stores")?
        + counter("persist.warm_start_entries")?
        > 0
    {
        println!("  {}", report::persist_line(&server)?);
    }
    for line in report::shard_lines(&server)? {
        println!("  {line}");
    }
    let after = histogram(&server, "serve.map.latency")?;
    if let Some(p99) = quantile_upper_bound(&after, 0.99) {
        println!("  server-side map p99 < {p99} us (decode \u{2192} write-back)");
    }

    // Cross-check the two latency views of the measured phase: subtract
    // the pre-phase histogram from the post-phase one so only the storm's
    // own requests remain, then compare the server's decode → write-back
    // p99 against the client-observed p99.  The client side always
    // contains the server side (plus network and generator overhead), so a
    // client p99 *grossly below* the server's own p99 means one of the two
    // measurement paths is broken — fail loudly rather than report it.
    let phase: [u64; HISTOGRAM_BUCKETS] =
        std::array::from_fn(|i| after[i].saturating_sub(before[i]));
    if let Some(server_p99) = quantile_upper_bound(&phase, 0.99) {
        let client_p99 = percentile(&outcome.latencies_us, 0.99);
        println!(
            "  cross-check: client p99 {client_p99} us vs server map p99 < {server_p99} us \
             (measured phase only)"
        );
        // The server bound is its bucket's upper edge; the true value is
        // at least half that.  8x on top of the 2x bucket slack separates
        // "clock noise" from "a measurement path is lying".
        let server_floor = server_p99 / 2;
        if client_p99 > 0 && client_p99.saturating_mul(8) < server_floor {
            return Err(format!(
                "client-observed p99 ({client_p99} us) is more than 8x below the server's \
                 own map-latency floor ({server_floor} us) for the same phase — the client \
                 and server latency measurements disagree grossly"
            ));
        }
    }

    if options.shutdown {
        control
            .shutdown()
            .map_err(|e| format!("shutdown failed: {e}"))?;
        println!("  daemon asked to shut down");
    }

    for failure in outcome.failures.iter().take(5) {
        eprintln!("fpfa-loadgen: failure: {failure}");
    }
    if !outcome.failures.is_empty() {
        return Err(format!("{} request(s) failed", outcome.failures.len()));
    }
    if protocol_errors > 0 {
        return Err(format!(
            "server counted {protocol_errors} protocol error(s) during the run"
        ));
    }
    if options.forbid_overload && outcome.overloaded > 0 {
        return Err(format!(
            "{} request(s) were rejected as overloaded (--forbid-overload)",
            outcome.overloaded
        ));
    }
    if let Some(min) = options.min_hit_ratio {
        if hit_ratio < min {
            return Err(format!(
                "cache hit ratio {hit_ratio:.3} is below the required {min:.3}"
            ));
        }
    }
    if let Some(min) = options.min_throughput {
        if throughput < min {
            return Err(format!(
                "throughput {throughput:.1} req/s is below the required {min:.1}"
            ));
        }
    }
    Ok(())
}

/// Closed loop: one thread per connection, one outstanding request each.
fn run_closed_loop(
    options: &Options,
    kernels: &[(String, String)],
    knobs: MapKnobs,
    digests: &HashMap<String, u64>,
) -> LoadOutcome {
    let cursor = AtomicUsize::new(0);
    let started = Instant::now();
    let mut outcomes: Vec<WorkerOutcome> = Vec::with_capacity(options.connections);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(options.connections);
        for _ in 0..options.connections {
            let cursor = &cursor;
            handles.push(scope.spawn(move || {
                let mut outcome = WorkerOutcome::default();
                let mut client = match Client::connect(&options.addr) {
                    Ok(client) => client,
                    Err(e) => {
                        outcome.failures.push(format!("connect failed: {e}"));
                        return outcome;
                    }
                };
                outcome.latencies_us.reserve(options.requests);
                for _ in 0..options.requests {
                    // A global cursor interleaves the kernels across
                    // connections so every connection exercises the whole
                    // registry.
                    let index = cursor.fetch_add(1, Ordering::Relaxed) % kernels.len();
                    let (name, source) = &kernels[index];
                    let request = Request::Map {
                        kernel: fpfa::server::KernelSource::new(name.clone(), source.clone()),
                        knobs,
                    };
                    let sent = Instant::now();
                    match client.call(&request) {
                        Ok(Response::Mapped(summary)) => {
                            outcome.latencies_us.push(sent.elapsed().as_micros() as u64);
                            if digests.get(name) != Some(&summary.digest) {
                                outcome.failures.push(format!(
                                    "`{name}`: digest {:#x} differs from warmup",
                                    summary.digest
                                ));
                            }
                        }
                        Ok(Response::Error(WireError::Overloaded { .. })) => {
                            outcome.overloaded += 1;
                        }
                        Ok(Response::Error(error)) => {
                            outcome.failures.push(format!("`{name}`: {error}"));
                        }
                        Ok(_) => {
                            outcome
                                .failures
                                .push(format!("`{name}`: unexpected response kind"));
                        }
                        Err(e) => {
                            outcome.failures.push(format!("`{name}`: transport: {e}"));
                            return outcome; // the connection is gone
                        }
                    }
                }
                outcome
            }));
        }
        for handle in handles {
            if let Ok(outcome) = handle.join() {
                outcomes.push(outcome);
            }
        }
    });
    let wall = started.elapsed();

    let mut latencies: Vec<u64> = Vec::new();
    let mut overloaded = 0usize;
    let mut failures: Vec<String> = Vec::new();
    for outcome in outcomes {
        latencies.extend(outcome.latencies_us);
        overloaded += outcome.overloaded;
        failures.extend(outcome.failures);
    }
    LoadOutcome {
        latencies_us: latencies,
        overloaded,
        failures,
        wall,
        attempted: options.connections * options.requests,
        mode: format!("closed loop x {} request(s)", options.requests),
        extra_lines: Vec::new(),
    }
}

/// How often the open loop pairs a paced request with a `simulate` probe
/// on the same connection (the probe takes the worker path, the paced
/// request is answered inline, so the pair reliably completes out of
/// order).
const PROBE_EVERY: usize = 256;

/// Read chunk for draining open-loop sockets.
const OPEN_READ_CHUNK: usize = 64 * 1024;

/// Consecutive scheduled requests share a connection in blocks of this
/// size, so a burst of due sends coalesces into one `write` and the
/// responses coalesce on the read side — without starving the other
/// connections (the block cursor still round-robins).
const OPEN_SEND_BLOCK: usize = 16;

/// The pacer wakes once per this many scheduled requests and sends them as
/// one burst (they land on the same connection thanks to
/// [`OPEN_SEND_BLOCK`]); each request still carries its own scheduled
/// basis, so the coalescing delay is measured, not hidden.
const OPEN_PACE_BATCH: usize = 8;

struct OpenPending {
    kernel: usize,
    /// Latency basis: the *scheduled* send instant for paced requests
    /// (coordinated-omission corrected), the actual send instant for
    /// probes.
    basis: Instant,
    probe: bool,
    /// For a paced request sent right behind a probe: the probe's id.
    paired_probe: Option<u64>,
}

struct OpenConn {
    stream: TcpStream,
    rbuf: FrameBuffer,
    wbuf: Vec<u8>,
    wpos: usize,
    next_id: u64,
    pending: HashMap<u64, OpenPending>,
    want_write: bool,
    dead: bool,
}

/// Appends one length-prefixed v2 request frame to the connection's write
/// buffer.
fn enqueue_frame(conn: &mut OpenConn, id: u64, body: &[u8]) {
    let len = (8 + body.len()) as u32;
    conn.wbuf.extend_from_slice(&len.to_le_bytes());
    conn.wbuf.extend_from_slice(&id.to_le_bytes());
    conn.wbuf.extend_from_slice(body);
}

/// Writes as much buffered data as the socket accepts, toggling write
/// interest so the poller finishes the job when the socket drains.
fn flush_open_conn(conn: &mut OpenConn, token: usize, poller: &mut Poller) -> Result<(), String> {
    while conn.wpos < conn.wbuf.len() {
        match conn.stream.write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return Err("connection closed while writing".to_string()),
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(format!("write: {e}")),
        }
    }
    if conn.wpos == conn.wbuf.len() {
        conn.wbuf.clear();
        conn.wpos = 0;
        if conn.want_write {
            conn.want_write = false;
            poller
                .reregister(conn.stream.as_raw_fd(), token, Interest::READ)
                .map_err(|e| format!("reregister: {e}"))?;
        }
    } else if !conn.want_write {
        conn.want_write = true;
        poller
            .reregister(conn.stream.as_raw_fd(), token, Interest::READ_WRITE)
            .map_err(|e| format!("reregister: {e}"))?;
    }
    Ok(())
}

/// Tears one connection down, counting its in-flight requests as lost.
fn kill_conn(
    conn: &mut OpenConn,
    token: usize,
    reason: &str,
    poller: &mut Poller,
    failures: &mut Vec<String>,
    outstanding: &mut usize,
) {
    let lost = conn.pending.len();
    *outstanding -= lost;
    failures.push(format!(
        "connection {token} failed ({reason}); {lost} in-flight request(s) lost"
    ));
    conn.pending.clear();
    conn.dead = true;
    let _ = poller.deregister(conn.stream.as_raw_fd());
}

/// Open loop: one event-driven thread drives every pipelined connection
/// off a fixed-rate schedule.
fn run_open_loop(
    options: &Options,
    kernels: &[(String, String)],
    knobs: MapKnobs,
    digests: &HashMap<String, u64>,
) -> Result<LoadOutcome, String> {
    let rate = options.rate.unwrap_or(1.0);
    let total = options.connections * options.requests;
    let interval = Duration::from_secs_f64(1.0 / rate);

    // Pre-encode each kernel's request body once; steady-state sending
    // only prepends the 12-byte header.
    let mut plain_bodies = Vec::with_capacity(kernels.len());
    for (name, source) in kernels {
        let kernel = fpfa::server::KernelSource::new(name.clone(), source.clone());
        plain_bodies.push(Request::Map { kernel, knobs }.encode());
    }
    // Probes always use the smallest registry kernel: the point of a probe
    // is proving the worker-path detour and response reordering, and a big
    // kernel's simulation would monopolize a small machine's core for long
    // enough to distort the paced traffic it is probing.
    let probe_kernel = kernels
        .iter()
        .enumerate()
        .min_by_key(|(_, (_, source))| source.len())
        .map(|(index, _)| index)
        .unwrap_or(0);
    let probe_body = {
        let (name, source) = &kernels[probe_kernel];
        Request::Map {
            kernel: fpfa::server::KernelSource::new(name.clone(), source.clone()),
            knobs: MapKnobs {
                simulate: true,
                ..knobs
            },
        }
        .encode()
    };

    // Connect and handshake in blocking mode, then flip each socket to
    // nonblocking and hand it to the poller (token = connection index).
    let mut poller = Poller::new().map_err(|e| format!("poller: {e}"))?;
    let mut conns: Vec<OpenConn> = Vec::with_capacity(options.connections);
    for token in 0..options.connections {
        let mut stream = TcpStream::connect(&options.addr)
            .map_err(|e| format!("cannot connect to {}: {e}", options.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        write_frame(&mut stream, &Hello::current().encode())
            .map_err(|e| format!("handshake write: {e}"))?;
        let ack = read_frame(&mut stream)
            .map_err(|e| format!("handshake read: {e}"))?
            .ok_or_else(|| "server closed during the handshake".to_string())?;
        match Response::decode(&ack) {
            Ok(Response::Hello(_)) => {}
            Ok(Response::Error(error)) => return Err(format!("handshake rejected: {error}")),
            other => return Err(format!("unexpected handshake reply: {other:?}")),
        }
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        poller
            .register(stream.as_raw_fd(), token, Interest::READ)
            .map_err(|e| format!("register: {e}"))?;
        conns.push(OpenConn {
            stream,
            rbuf: FrameBuffer::new(),
            wbuf: Vec::new(),
            wpos: 0,
            next_id: 0,
            pending: HashMap::new(),
            want_write: false,
            dead: false,
        });
    }

    let started = Instant::now();
    let hard_deadline = started + interval.mul_f64(total as f64) + Duration::from_secs(10);
    let mut events: Vec<Event> = Vec::new();
    let mut scratch = vec![0u8; OPEN_READ_CHUNK];
    let mut latencies: Vec<u64> = Vec::with_capacity(total);
    let mut probe_latencies: Vec<u64> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    let mut overloaded = 0usize;
    let mut sent = 0usize;
    let mut probes_sent = 0usize;
    let mut out_of_order = 0usize;
    let mut outstanding = 0usize;
    let mut skipped_dead = 0usize;
    let mut touched: Vec<usize> = Vec::new();

    loop {
        // Send every request whose scheduled instant has passed; lateness
        // here is *not* forgiven — the latency basis stays the schedule.
        let now = Instant::now();
        touched.clear();
        while sent < total {
            let due = started + interval.mul_f64(sent as f64);
            if due > now {
                break;
            }
            let token = (sent / OPEN_SEND_BLOCK) % conns.len();
            let kernel = sent % kernels.len();
            let conn = &mut conns[token];
            if conn.dead {
                skipped_dead += 1;
                sent += 1;
                continue;
            }
            let paired_probe = if sent % PROBE_EVERY == PROBE_EVERY - 1 {
                let probe_id = conn.next_id;
                conn.next_id += 1;
                conn.pending.insert(
                    probe_id,
                    OpenPending {
                        kernel: probe_kernel,
                        basis: now,
                        probe: true,
                        paired_probe: None,
                    },
                );
                enqueue_frame(conn, probe_id, &probe_body);
                probes_sent += 1;
                outstanding += 1;
                Some(probe_id)
            } else {
                None
            };
            let id = conn.next_id;
            conn.next_id += 1;
            conn.pending.insert(
                id,
                OpenPending {
                    kernel,
                    basis: due,
                    probe: false,
                    paired_probe,
                },
            );
            enqueue_frame(conn, id, &plain_bodies[kernel]);
            outstanding += 1;
            if !touched.contains(&token) {
                touched.push(token);
            }
            sent += 1;
        }
        for &token in &touched {
            if let Err(reason) = flush_open_conn(&mut conns[token], token, &mut poller) {
                kill_conn(
                    &mut conns[token],
                    token,
                    &reason,
                    &mut poller,
                    &mut failures,
                    &mut outstanding,
                );
            }
        }

        if sent >= total && outstanding == 0 {
            break;
        }
        let now = Instant::now();
        if now > hard_deadline {
            failures.push(format!(
                "{outstanding} response(s) never arrived before the deadline"
            ));
            break;
        }

        let timeout = if sent < total {
            // Wake when a small *block* of requests is due, not each one:
            // the block coalesces into one `write` per connection, cutting
            // per-request syscalls several-fold.  Requests keep their own
            // scheduled basis, so the bounded extra wait is charged to
            // latency like any other generator-side delay.
            let target = (sent + OPEN_PACE_BATCH - 1).min(total - 1);
            let due = started + interval.mul_f64(target as f64);
            let until = due.saturating_duration_since(now);
            // Sub-millisecond epoll timeouts round up to a full
            // millisecond, which would quantize the whole schedule.  Pace
            // with an hrtimer sleep instead — blocking (rather than
            // spinning) here matters on small machines: it hands the core
            // to the daemon between sends instead of contending for it,
            // and any oversleep is charged to latency by the
            // scheduled-send basis anyway.
            if until >= Duration::from_millis(1) {
                until
            } else {
                if !until.is_zero() {
                    std::thread::sleep(until);
                }
                Duration::ZERO
            }
        } else {
            Duration::from_millis(50)
        };
        poller
            .wait(&mut events, Some(timeout))
            .map_err(|e| format!("poll: {e}"))?;

        'events: for event in &events {
            let token = event.token;
            if conns[token].dead {
                continue;
            }
            if event.writable {
                if let Err(reason) = flush_open_conn(&mut conns[token], token, &mut poller) {
                    kill_conn(
                        &mut conns[token],
                        token,
                        &reason,
                        &mut poller,
                        &mut failures,
                        &mut outstanding,
                    );
                    continue;
                }
            }
            if !event.readable {
                continue;
            }
            // Drain the socket fully, then parse every complete frame.
            let mut closed = false;
            loop {
                match conns[token].stream.read(&mut scratch) {
                    Ok(0) => {
                        closed = true;
                        break;
                    }
                    Ok(n) => conns[token].rbuf.extend(&scratch[..n]),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(e) => {
                        let reason = format!("read: {e}");
                        kill_conn(
                            &mut conns[token],
                            token,
                            &reason,
                            &mut poller,
                            &mut failures,
                            &mut outstanding,
                        );
                        continue 'events;
                    }
                }
            }
            let conn = &mut conns[token];
            loop {
                let frame = match conn.rbuf.next_frame() {
                    Ok(Some(frame)) => frame,
                    Ok(None) => break,
                    Err(e) => {
                        let reason = format!("frame error: {e}");
                        kill_conn(
                            conn,
                            token,
                            &reason,
                            &mut poller,
                            &mut failures,
                            &mut outstanding,
                        );
                        continue 'events;
                    }
                };
                let (id, response) = match decode_response_frame(frame) {
                    Ok(pair) => pair,
                    Err(e) => {
                        let reason = format!("protocol error: {e}");
                        kill_conn(
                            conn,
                            token,
                            &reason,
                            &mut poller,
                            &mut failures,
                            &mut outstanding,
                        );
                        continue 'events;
                    }
                };
                let Some(pending) = conn.pending.remove(&id) else {
                    failures.push(format!("connection {token}: response for unknown id {id}"));
                    continue;
                };
                outstanding -= 1;
                let name = &kernels[pending.kernel].0;
                match response {
                    Response::Mapped(summary) => {
                        if digests.get(name) != Some(&summary.digest) {
                            failures.push(format!(
                                "`{name}`: digest {:#x} differs from warmup",
                                summary.digest
                            ));
                        }
                        let micros = pending.basis.elapsed().as_micros() as u64;
                        if pending.probe {
                            probe_latencies.push(micros);
                        } else {
                            latencies.push(micros);
                            // The probe was sent *before* this request on
                            // the same connection; if it is still pending,
                            // this response overtook it.
                            if let Some(probe_id) = pending.paired_probe {
                                if conn.pending.contains_key(&probe_id) {
                                    out_of_order += 1;
                                }
                            }
                        }
                    }
                    Response::Error(WireError::Overloaded { .. }) => overloaded += 1,
                    Response::Error(error) => failures.push(format!("`{name}`: {error}")),
                    _ => failures.push(format!("`{name}`: unexpected response kind")),
                }
            }
            if closed {
                kill_conn(
                    &mut conns[token],
                    token,
                    "server closed the connection",
                    &mut poller,
                    &mut failures,
                    &mut outstanding,
                );
            }
        }
    }
    let wall = started.elapsed();

    if skipped_dead > 0 {
        failures.push(format!(
            "{skipped_dead} request(s) skipped on dead connections"
        ));
    }
    if probes_sent >= 10 && out_of_order == 0 {
        failures.push(
            "no out-of-order completion observed across probe pairs (expected the \
             paced response to overtake its paired simulate probe)"
                .to_string(),
        );
    }
    probe_latencies.sort_unstable();
    let extra_lines = vec![
        "open loop: latency is measured from each request's *scheduled* send \
         (coordinated-omission corrected)"
            .to_string(),
        format!(
            "probes: {probes_sent} simulate probe(s) sent, {} answered (p99 {} us), \
             {out_of_order} pair(s) completed out of order",
            probe_latencies.len(),
            percentile(&probe_latencies, 0.99),
        ),
    ];
    Ok(LoadOutcome {
        latencies_us: latencies,
        overloaded,
        failures,
        wall,
        attempted: total + probes_sent,
        mode: format!("open loop @ {rate:.0} req/s target"),
        extra_lines,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let options = match parse_args(&args) {
        Ok(options) => options,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::FAILURE;
        }
    };
    match run(&options) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fpfa-loadgen: {message}");
            ExitCode::FAILURE
        }
    }
}
