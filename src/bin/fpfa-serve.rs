//! `fpfa-serve` — the mapping daemon.
//!
//! Serves the framed wire protocol of `fpfa-server` over TCP: a fixed
//! worker pool maps kernels through one shared, content-addressed
//! `MappingService` cache; a bounded job queue sheds load with typed
//! `Overloaded` responses; `shutdown` drains in-flight work before exit.
//!
//! ```text
//! fpfa-serve                          # defaults: 127.0.0.1:9417, one worker per core
//! fpfa-serve --addr 0.0.0.0:7000     # explicit listen address (port 0 = OS-assigned)
//! fpfa-serve --workers 8 --queue-depth 128
//! fpfa-serve --shards 2              # I/O shards (default: one per core, capped)
//! fpfa-serve --deadline-ms 2000      # default per-request budget
//! fpfa-serve --cache-capacity 1024   # mapping-cache entries per level
//! fpfa-serve --cache-dir /var/cache/fpfa  # persistent (L2) mapping cache
//! fpfa-serve --tiles 4 --pps 3       # default mapper configuration (each at most 64)
//! fpfa-serve --metrics-file m.prom   # periodic Prometheus-text snapshots
//! fpfa-serve --flight-file f.json    # flight-recorder dump on drain/SIGUSR1
//! fpfa-serve --trace-sample 100      # trace every 100th request
//! fpfa-serve --slow-us 5000          # log requests slower than 5 ms
//! ```
//!
//! The daemon prints one `listening on <addr>` line once it accepts
//! connections (scripts wait for it), serves until a client sends the
//! `shutdown` verb — or, on Linux, until `SIGTERM`/`SIGINT` arrives —
//! then drains in-flight work and prints a report read from the final
//! snapshot of its metrics registry.
//!
//! With `--cache-dir`, mapped kernels are also written through to
//! append-only segment files in that directory, and a restarted daemon
//! warm-starts from them: previously served kernels are answered from the
//! cache on the very first pass after the restart.
//!
//! Observability (see `docs/OBSERVABILITY.md`): `--metrics-file` writes
//! the metrics registry to disk every `--metrics-interval-ms` (atomic
//! tmp-then-rename, final write on drain), `--flight-file` receives the
//! flight-recorder JSON on graceful drain and whenever `SIGUSR1` arrives
//! (the daemon keeps serving), `--trace-sample N` records span breakdowns
//! for every Nth request, and `--slow-us` logs any slower request with its
//! queue/service/respond decomposition.

use fpfa::arch::TileConfig;
use fpfa::core::cache::DEFAULT_CAPACITY;
use fpfa::core::pipeline::Mapper;
use fpfa::core::MappingService;
use fpfa::server::server::{MAX_PPS, MAX_TILES};
use fpfa::server::sys::{TermSignals, SIGUSR1};
use fpfa::server::{Server, ServerConfig};
use fpfa_obs::Snapshot;
use report::count;
use std::path::Path;
use std::process::ExitCode;
use std::time::Duration;

mod report;

struct Options {
    addr: String,
    workers: Option<usize>,
    queue_depth: usize,
    shards: usize,
    deadline_ms: u64,
    cache_capacity: Option<usize>,
    cache_dir: Option<String>,
    tiles: usize,
    pps: usize,
    metrics_file: Option<String>,
    metrics_interval_ms: u64,
    flight_file: Option<String>,
    trace_sample: u32,
    slow_us: u64,
}

fn usage() -> &'static str {
    "usage: fpfa-serve [--addr HOST:PORT] [--workers N] [--queue-depth N] [--shards N] \
     [--deadline-ms N] [--cache-capacity N] [--cache-dir DIR] [--tiles N] [--pps N] \
     [--metrics-file PATH] [--metrics-interval-ms N] [--flight-file PATH] \
     [--trace-sample N] [--slow-us N]"
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        addr: "127.0.0.1:9417".to_string(),
        workers: None,
        queue_depth: 64,
        // 0 = auto-select (one I/O shard per available core, capped).
        shards: 0,
        deadline_ms: 5000,
        cache_capacity: None,
        cache_dir: None,
        tiles: 1,
        pps: TileConfig::paper().num_pps,
        metrics_file: None,
        metrics_interval_ms: 1000,
        flight_file: None,
        trace_sample: 0,
        slow_us: 0,
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
            "--workers" => {
                options.workers = Some(parse_positive(&value_of("--workers")?, "--workers")?);
            }
            "--queue-depth" => {
                options.queue_depth = parse_positive(&value_of("--queue-depth")?, "--queue-depth")?;
            }
            "--shards" => {
                options.shards = parse_positive(&value_of("--shards")?, "--shards")?;
            }
            "--deadline-ms" => {
                // 0 is meaningful here: no deadline.
                options.deadline_ms = value_of("--deadline-ms")?
                    .parse()
                    .map_err(|_| "--deadline-ms needs a number".to_string())?;
            }
            "--cache-capacity" => {
                options.cache_capacity = Some(parse_positive(
                    &value_of("--cache-capacity")?,
                    "--cache-capacity",
                )?);
            }
            "--cache-dir" => options.cache_dir = Some(value_of("--cache-dir")?),
            "--tiles" => {
                options.tiles = parse_bounded(&value_of("--tiles")?, "--tiles", MAX_TILES)?
            }
            "--pps" => options.pps = parse_bounded(&value_of("--pps")?, "--pps", MAX_PPS)?,
            "--metrics-file" => options.metrics_file = Some(value_of("--metrics-file")?),
            "--metrics-interval-ms" => {
                options.metrics_interval_ms =
                    parse_positive(&value_of("--metrics-interval-ms")?, "--metrics-interval-ms")?
                        as u64;
            }
            "--flight-file" => options.flight_file = Some(value_of("--flight-file")?),
            "--trace-sample" => {
                // 0 is meaningful here: tracing disabled.
                options.trace_sample = value_of("--trace-sample")?
                    .parse()
                    .map_err(|_| "--trace-sample needs a number".to_string())?;
            }
            "--slow-us" => {
                // 0 is meaningful here: slow-request logging disabled.
                options.slow_us = value_of("--slow-us")?
                    .parse()
                    .map_err(|_| "--slow-us needs a number".to_string())?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown option `{other}`\n{}", usage())),
        }
    }
    Ok(options)
}

/// Writes via a sibling `.tmp` file and renames over the target, so a
/// scraper never reads a half-written snapshot.
fn write_atomic(path: &Path, contents: &[u8]) -> std::io::Result<()> {
    let mut tmp = path.as_os_str().to_os_string();
    tmp.push(".tmp");
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
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

/// A positive value no larger than `max`, the bound a request's knob is
/// held to: a zero knob inherits this default, so it obeys the same bound.
fn parse_bounded(value: &str, flag: &str, max: u32) -> Result<usize, String> {
    let parsed = parse_positive(value, flag)?;
    if parsed > max as usize {
        return Err(format!("{flag} {parsed} exceeds the {max} limit"));
    }
    Ok(parsed)
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

    // Mask SIGTERM/SIGINT before any thread exists so every thread the
    // server spawns inherits the mask; a dedicated watcher thread turns the
    // signal into a graceful drain.  Unsupported (non-Linux) is fine: the
    // daemon still stops on the `shutdown` verb.
    let signals = TermSignals::install().ok();

    let mapper = Mapper::new()
        .with_config(TileConfig::paper().with_num_pps(options.pps))
        .with_tiles(options.tiles);
    let service = match (&options.cache_dir, options.cache_capacity) {
        (Some(dir), capacity) => {
            match MappingService::with_cache_dir(mapper, capacity.unwrap_or(DEFAULT_CAPACITY), dir)
            {
                Ok(service) => service,
                Err(e) => {
                    eprintln!("fpfa-serve: cannot open cache dir {dir}: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        (None, Some(capacity)) => MappingService::with_capacity(mapper, capacity),
        (None, None) => MappingService::new(mapper),
    };
    if options.cache_dir.is_some() {
        let persist = service.cache().persist_stats();
        println!(
            "fpfa-serve: warm-started {} cached mapping(s) from {} ({} byte(s) scanned)",
            persist.warm_start_entries,
            options.cache_dir.as_deref().unwrap_or_default(),
            persist.scanned_bytes
        );
    }

    let mut config = ServerConfig {
        queue_depth: options.queue_depth,
        shards: options.shards,
        default_deadline: Duration::from_millis(options.deadline_ms),
        trace_sample: options.trace_sample,
        slow_threshold: Duration::from_micros(options.slow_us),
        ..ServerConfig::default()
    };
    if let Some(workers) = options.workers {
        config.workers = workers;
    }

    let server = match Server::bind(&options.addr, config, service) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("fpfa-serve: cannot bind {}: {e}", options.addr);
            return ExitCode::FAILURE;
        }
    };
    let addr = match server.local_addr() {
        Ok(addr) => addr,
        Err(e) => {
            eprintln!("fpfa-serve: cannot read bound address: {e}");
            return ExitCode::FAILURE;
        }
    };
    let shard_label = if options.shards == 0 {
        "auto".to_string()
    } else {
        options.shards.to_string()
    };
    println!(
        "fpfa-serve: listening on {addr} ({} workers, {} shard(s), queue depth {}, deadline {} ms)",
        config.workers, shard_label, config.queue_depth, options.deadline_ms
    );
    // Scripts wait for the line above before starting clients.
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    let handle = match server.spawn() {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("fpfa-serve: cannot start: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trigger = handle.shutdown_trigger();
    if let Some(signals) = signals {
        let trigger = trigger.clone();
        let flight_file = options.flight_file.clone();
        std::thread::spawn(move || {
            // SIGUSR1 dumps the flight recorder and keeps serving; any
            // other masked signal begins the graceful drain.
            while let Ok(signo) = signals.wait() {
                if signo == SIGUSR1 {
                    let json = trigger.flight_json();
                    match &flight_file {
                        Some(path) => match write_atomic(Path::new(path), json.as_bytes()) {
                            Ok(()) => eprintln!("fpfa-serve: SIGUSR1: flight dump -> {path}"),
                            Err(e) => {
                                eprintln!("fpfa-serve: SIGUSR1: cannot write {path}: {e}")
                            }
                        },
                        None => eprintln!("fpfa-serve: SIGUSR1 flight dump: {json}"),
                    }
                    continue;
                }
                eprintln!("fpfa-serve: caught signal {signo}, draining");
                trigger.shutdown();
                break;
            }
        });
    }
    // The metrics writer wakes every interval until `main` drops the
    // channel sender after the drain, then exits; the final on-disk
    // snapshot is written below so it reflects the fully drained state.
    let metrics_stop = options.metrics_file.as_ref().map(|path| {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let registry = handle.registry();
        let path = path.clone();
        let interval = Duration::from_millis(options.metrics_interval_ms);
        std::thread::spawn(move || {
            while rx.recv_timeout(interval) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                if let Err(e) =
                    write_atomic(Path::new(&path), registry.render_prometheus().as_bytes())
                {
                    eprintln!("fpfa-serve: cannot write {path}: {e}");
                    break;
                }
            }
        });
        tx
    });
    let snapshot = handle.join();
    drop(metrics_stop);
    if let Some(path) = &options.metrics_file {
        if let Err(e) = write_atomic(Path::new(path), snapshot.to_prometheus().as_bytes()) {
            eprintln!("fpfa-serve: cannot write {path}: {e}");
        }
    }
    if let Some(path) = &options.flight_file {
        match write_atomic(Path::new(path), trigger.flight_json().as_bytes()) {
            Ok(()) => println!("fpfa-serve: flight dump -> {path}"),
            Err(e) => eprintln!("fpfa-serve: cannot write {path}: {e}"),
        }
    }
    match drain_report(&snapshot, options.cache_dir.is_some()) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("fpfa-serve: {message}");
            ExitCode::FAILURE
        }
    }
}

/// Prints the drain report from the final registry snapshot.
fn drain_report(snapshot: &Snapshot, persist: bool) -> Result<(), String> {
    let counter = |name| count(snapshot, name, &[]);
    println!(
        "fpfa-serve: drained and stopped; {} connection(s), {} request(s) accepted, \
         {} served ok, {} map failure(s), {} verify failure(s), \
         {} overloaded, {} deadline-expired",
        counter("serve.connections")?,
        counter("serve.accepted")?,
        count(snapshot, "serve.served", &[("outcome", "ok")])?,
        count(snapshot, "serve.served", &[("outcome", "err")])?,
        count(snapshot, "serve.verify_failures", &[("verb", "map")])?,
        count(snapshot, "serve.rejected", &[("reason", "overload")])?,
        count(snapshot, "serve.rejected", &[("reason", "deadline")])?,
    );
    if let Some(rate) = report::hit_ratio(snapshot)? {
        println!("fpfa-serve: final cache hit ratio {rate:.3}");
    }
    println!(
        "fpfa-serve: {} fast-path hit(s), {} version rejection(s), {} protocol error(s)",
        counter("serve.l0_hits")?,
        count(snapshot, "serve.rejected", &[("reason", "version")])?,
        counter("serve.protocol_errors")?,
    );
    if persist {
        println!("fpfa-serve: {}", report::persist_line(snapshot)?);
    }
    for line in report::shard_lines(snapshot)? {
        println!("fpfa-serve: {line}");
    }
    Ok(())
}
