//! Integration test of the serving binaries: spawn the real `fpfa-serve`
//! daemon on an OS-assigned port, drive it with the real `fpfa-loadgen`
//! closed-loop generator, and check the loadgen's assertions (100% success,
//! warm-cache hit ratio) plus the daemon's graceful drain — the same
//! choreography as the CI `serve-smoke` job.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};

/// Spawns `fpfa-serve` on an OS-assigned port and returns the child, the
/// address it printed in its listen line, and any preamble lines printed
/// before it (e.g. the `--cache-dir` warm-start report).
fn spawn_daemon(extra_args: &[&str]) -> (Child, String, String) {
    let mut daemon = Command::new(env!("CARGO_BIN_EXE_fpfa-serve"))
        .args(["--addr", "127.0.0.1:0", "--queue-depth", "64"])
        .args(extra_args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn fpfa-serve");
    let daemon_stdout = daemon.stdout.take().expect("daemon stdout");
    let mut reader = BufReader::new(daemon_stdout);
    let mut preamble = String::new();
    let addr = loop {
        let mut line = String::new();
        let read = reader.read_line(&mut line).expect("daemon stdout readable");
        assert!(
            read > 0,
            "daemon exited before its listen line:\n{preamble}"
        );
        if let Some(rest) = line.split("listening on ").nth(1) {
            break rest
                .split_whitespace()
                .next()
                .unwrap_or_else(|| panic!("unparseable listen line: {line}"))
                .to_string();
        }
        preamble.push_str(&line);
    };
    // Nothing beyond the listen line is printed until the drain report, so
    // handing the raw pipe back to the child loses no buffered output.
    daemon.stdout = Some(reader.into_inner());
    (daemon, addr, preamble)
}

#[test]
fn daemon_serves_loadgen_and_drains_on_shutdown() {
    let (mut daemon, addr, _) = spawn_daemon(&[]);

    let loadgen = Command::new(env!("CARGO_BIN_EXE_fpfa-loadgen"))
        .args([
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "30",
            "--min-hit-ratio",
            "0.5",
            "--forbid-overload",
            "--shutdown",
        ])
        .output()
        .expect("run fpfa-loadgen");
    let stdout = String::from_utf8_lossy(&loadgen.stdout);
    let stderr = String::from_utf8_lossy(&loadgen.stderr);
    assert!(
        loadgen.status.success(),
        "loadgen failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("throughput"), "{stdout}");
    assert!(stdout.contains("60 ok, 0 failed, 0 overloaded"), "{stdout}");
    assert!(stdout.contains("daemon asked to shut down"), "{stdout}");

    // The daemon drains and exits zero, reporting its final counters.
    let tail = drain_daemon(&mut daemon);
    assert!(tail.contains("drained and stopped"), "{tail}");
    assert!(tail.contains("cache hit ratio"), "{tail}");
}

/// Waits for the daemon to exit zero and returns the rest of its stdout.
fn drain_daemon(daemon: &mut Child) -> String {
    use std::io::Read as _;
    let mut tail = String::new();
    let mut stdout = daemon.stdout.take().expect("daemon stdout");
    stdout.read_to_string(&mut tail).expect("readable stdout");
    let status = daemon.wait().expect("daemon exits");
    assert!(status.success(), "daemon exited with {status:?}\n{tail}");
    tail
}

/// The open-loop pipelined mode against a real daemon: fixed-rate schedule,
/// digest verification, simulate probes, and per-shard counters in the
/// daemon's drain report.
#[test]
fn daemon_serves_open_loop_pipelined_traffic() {
    let (mut daemon, addr, _) = spawn_daemon(&["--shards", "2"]);

    let loadgen = Command::new(env!("CARGO_BIN_EXE_fpfa-loadgen"))
        .args([
            "--addr",
            &addr,
            "--open-loop",
            "--rate",
            "500",
            "--connections",
            "8",
            "--requests",
            "40",
            "--forbid-overload",
            "--shutdown",
        ])
        .output()
        .expect("run fpfa-loadgen");
    let stdout = String::from_utf8_lossy(&loadgen.stdout);
    let stderr = String::from_utf8_lossy(&loadgen.stderr);
    assert!(
        loadgen.status.success(),
        "loadgen failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains("open loop @ 500 req/s target"), "{stdout}");
    assert!(
        stdout.contains("320 ok, 0 failed, 0 overloaded"),
        "{stdout}"
    );
    assert!(
        stdout.contains("coordinated-omission corrected"),
        "{stdout}"
    );
    assert!(stdout.contains("protocol errors 0"), "{stdout}");
    // The client-vs-server p99 cross-check must have run, not skipped.
    assert!(stdout.contains("cross-check: client p99"), "{stdout}");

    let tail = drain_daemon(&mut daemon);
    assert!(tail.contains("drained and stopped"), "{tail}");
    assert!(tail.contains("shard 0:"), "{tail}");
    assert!(tail.contains("shard 1:"), "{tail}");
    // The shards adopted every connection the loadgen opened: warmup, the
    // 8 open-loop connections and the final control connection.
    let adopted: u64 = tail
        .lines()
        .filter(|line| line.starts_with("fpfa-serve: shard "))
        .map(|line| {
            let (head, _) = line
                .split_once(" conn(s) adopted")
                .unwrap_or_else(|| panic!("no adopted count in: {line}"));
            let count = head.rsplit(' ').next().expect("a count");
            count.parse::<u64>().expect("a number")
        })
        .sum();
    assert_eq!(adopted, 10, "{tail}");
}

/// Maps the whole workload registry once over one connection and returns
/// each kernel's program digest, plus the server's mapping hit rate over
/// exactly that pass.
fn map_registry(addr: &str) -> (Vec<(String, u64)>, f64) {
    use fpfa::server::{Client, MapKnobs};
    let mut client = Client::connect(addr).expect("connect to daemon");
    let digests: Vec<(String, u64)> = fpfa::workloads::registry()
        .into_iter()
        .map(|kernel| {
            let summary = client
                .map(&kernel.name, &kernel.source, MapKnobs::default())
                .expect("registry kernel maps");
            (kernel.name, summary.digest)
        })
        .collect();
    let json = client
        .metrics(fpfa::server::MetricsFormat::Json)
        .expect("metrics verb");
    let snapshot = fpfa_obs::Snapshot::from_json(&json).expect("scrape parses");
    let gauge = |name| match snapshot.get(name, &[]) {
        Some(fpfa_obs::MetricValue::Gauge(v)) => *v,
        other => panic!("{name} is not a gauge: {other:?}"),
    };
    let hits = gauge("cache.mapping.hits");
    let lookups = hits + gauge("cache.mapping.misses");
    (digests, hits as f64 / lookups.max(1) as f64)
}

/// A full warm-restart cycle through the persistent disk tier: warm a
/// `--cache-dir` daemon, drain it with SIGTERM, restart it over the same
/// directory, and check the restarted daemon's *first* pass over the
/// registry is digest-identical with a ≥0.9 hit ratio.
#[cfg(target_os = "linux")]
#[test]
fn daemon_warm_restarts_from_the_disk_tier() {
    let dir = std::env::temp_dir().join(format!("fpfa-serve-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy().into_owned();

    // Lifetime 1: loadgen warms the daemon, then a direct pass records the
    // authoritative digest per kernel; every cold map stores through to the
    // segment files.
    let (mut daemon, addr, _) = spawn_daemon(&["--cache-dir", &dir_arg]);
    let loadgen = Command::new(env!("CARGO_BIN_EXE_fpfa-loadgen"))
        .args([
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "30",
            "--min-hit-ratio",
            "0.5",
            "--forbid-overload",
        ])
        .output()
        .expect("run fpfa-loadgen");
    assert!(
        loadgen.status.success(),
        "warmup loadgen failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&loadgen.stdout),
        String::from_utf8_lossy(&loadgen.stderr)
    );
    let (cold_digests, _) = map_registry(&addr);

    // SIGTERM drains the daemon exactly like the shutdown verb.
    let killed = Command::new("kill")
        .args(["-TERM", &daemon.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(killed.success(), "kill -TERM failed");
    let tail = drain_daemon(&mut daemon);
    assert!(tail.contains("drained and stopped"), "{tail}");
    assert!(tail.contains("persist:"), "{tail}");
    assert!(tail.contains("store(s)"), "{tail}");

    // Lifetime 2 over the same directory: the daemon announces the
    // warm-start, and the first pass over the registry is answered from
    // the disk tier — identical digests, ≥0.9 hit ratio without a single
    // cold map having run in this lifetime.
    let (mut daemon, addr, preamble) = spawn_daemon(&["--cache-dir", &dir_arg]);
    assert!(preamble.contains("warm-started"), "{preamble}");
    let (warm_digests, hit_rate) = map_registry(&addr);
    assert_eq!(cold_digests, warm_digests);
    assert!(
        hit_rate >= 0.9,
        "restarted daemon hit rate {hit_rate} < 0.9"
    );

    // A second loadgen holds the warmed daemon to the full hit-ratio bar
    // and shuts it down; the drain report accounts for the disk loads.
    let loadgen = Command::new(env!("CARGO_BIN_EXE_fpfa-loadgen"))
        .args([
            "--addr",
            &addr,
            "--connections",
            "2",
            "--requests",
            "30",
            "--min-hit-ratio",
            "0.9",
            "--forbid-overload",
            "--shutdown",
        ])
        .output()
        .expect("run fpfa-loadgen");
    assert!(
        loadgen.status.success(),
        "warm loadgen failed\nstdout:\n{}\nstderr:\n{}",
        String::from_utf8_lossy(&loadgen.stdout),
        String::from_utf8_lossy(&loadgen.stderr)
    );
    let tail = drain_daemon(&mut daemon);
    assert!(tail.contains("drained and stopped"), "{tail}");
    assert!(tail.contains("load(s)"), "{tail}");
    assert!(tail.contains("warm-start"), "{tail}");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Pulls `key=value` fields out of a slow-request log line.
fn log_field(line: &str, key: &str) -> u64 {
    line.split_whitespace()
        .find_map(|field| field.strip_prefix(&format!("{key}=")))
        .unwrap_or_else(|| panic!("no {key}= field in: {line}"))
        .parse()
        .unwrap_or_else(|_| panic!("unparseable {key}= field in: {line}"))
}

/// The observability surface through the real binary: periodic
/// `--metrics-file` snapshots, a SIGUSR1 flight dump that does not stop the
/// daemon, the final drain-time dump, and a `--slow-us` log line whose
/// traced stages decompose the end-to-end latency within 10%.
#[cfg(target_os = "linux")]
#[test]
fn daemon_writes_metrics_flight_and_slow_request_logs() {
    use fpfa::server::{Client, MapKnobs};

    let dir = std::env::temp_dir().join(format!("fpfa-serve-obs-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("obs scratch dir");
    let metrics_path = dir.join("metrics.prom");
    let flight_path = dir.join("flight.json");
    let (mut daemon, addr, _) = spawn_daemon(&[
        "--metrics-file",
        &metrics_path.to_string_lossy(),
        "--metrics-interval-ms",
        "25",
        "--flight-file",
        &flight_path.to_string_lossy(),
        "--trace-sample",
        "1",
        "--slow-us",
        "1",
    ]);

    let mut client = Client::connect(&addr).expect("connect to daemon");
    let kernel = "void main() { int a[2]; int r; r = a[0] + a[1]; }";
    client
        .map("obs-cli", kernel, MapKnobs::default())
        .expect("cold map");

    // The metrics writer ticks every 25ms; wait for a snapshot that has the
    // request counted.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let scrape = loop {
        let contents = std::fs::read_to_string(&metrics_path).unwrap_or_default();
        if contents.contains("serve_served{outcome=\"ok\"} 1") {
            break contents;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no metrics snapshot with the request; last scrape:\n{contents}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    assert!(
        scrape.contains("# TYPE serve_map_latency histogram"),
        "{scrape}"
    );
    assert!(scrape.contains("serve_queue_wait_p99"), "{scrape}");

    // SIGUSR1 dumps the flight recorder without stopping the daemon.
    let killed = Command::new("kill")
        .args(["-USR1", &daemon.id().to_string()])
        .status()
        .expect("send SIGUSR1");
    assert!(killed.success(), "kill -USR1 failed");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let dump = loop {
        let contents = std::fs::read_to_string(&flight_path).unwrap_or_default();
        if contents.contains("\"verb\":\"map\"") {
            break contents;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "no SIGUSR1 flight dump; last contents:\n{contents}"
        );
        std::thread::sleep(std::time::Duration::from_millis(25));
    };
    assert!(dump.contains("\"shards\""), "{dump}");
    assert!(dump.contains("\"name\":\"queue.wait\""), "{dump}");
    client
        .map("obs-cli", kernel, MapKnobs::default())
        .expect("daemon still serves after SIGUSR1");
    std::fs::remove_file(&flight_path).expect("clear the SIGUSR1 dump");

    // Graceful drain rewrites the flight dump and a final metrics snapshot.
    client.shutdown().expect("shutdown verb");
    drop(client);
    let tail = drain_daemon(&mut daemon);
    assert!(tail.contains("drained and stopped"), "{tail}");
    assert!(tail.contains("flight dump ->"), "{tail}");
    let final_dump = std::fs::read_to_string(&flight_path).expect("drain-time flight dump");
    assert!(final_dump.contains("\"verb\":\"map\""), "{final_dump}");
    // Both maps (cold worker path + inline repeat) are in the drain-time
    // snapshot written after the periodic writer stopped.
    let final_scrape = std::fs::read_to_string(&metrics_path).expect("final metrics snapshot");
    assert!(
        final_scrape.contains("serve_served{outcome=\"ok\"} 2"),
        "{final_scrape}"
    );

    // With --slow-us 1 every worker-path request logs a breakdown; the
    // traced stages must sum to the end-to-end latency within 10%.
    use std::io::Read as _;
    let mut errs = String::new();
    daemon
        .stderr
        .take()
        .expect("daemon stderr")
        .read_to_string(&mut errs)
        .expect("readable stderr");
    let slow = errs
        .lines()
        .find(|line| line.contains("slow-request") && line.contains("verb=map"))
        .unwrap_or_else(|| panic!("no slow-request map line in stderr:\n{errs}"));
    let e2e = log_field(slow, "e2e_us");
    let sum =
        log_field(slow, "queue_us") + log_field(slow, "map_us") + log_field(slow, "respond_us");
    assert!(
        e2e.abs_diff(sum) * 10 <= e2e,
        "slow-request stages ({sum} us) stray more than 10% from e2e ({e2e} us): {slow}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The `Threads:` count of a live process, read from `/proc/<pid>/status`.
#[cfg(target_os = "linux")]
fn thread_count(status: &std::path::Path) -> u64 {
    let text = std::fs::read_to_string(status).expect("readable /proc status");
    text.lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|count| count.trim().parse().ok())
        .unwrap_or_else(|| panic!("no Threads: line in:\n{text}"))
}

/// A distinct cold 4-tile kernel per index: a small 2D convolution whose
/// added constant keeps every source a cache miss.
#[cfg(target_os = "linux")]
fn cold_conv(index: usize) -> String {
    fpfa::workloads::conv2d_3x3(8, 8)
        .source
        .replace("acc = acc +", &format!("acc = acc + {} +", index + 1))
}

/// Many kernels travel as pipelined `map` requests, and the daemon maps
/// them on the threads it starts with: a `--workers 1 --shards 1` daemon
/// serves eight cold 4-tile kernels in flight at once without starting a
/// single thread.  A sampler polls the thread count every millisecond; a
/// missed sample can only hide a thread, never add one, so the check does
/// not fail spuriously.
#[cfg(target_os = "linux")]
#[test]
fn daemon_maps_pipelined_kernels_on_the_threads_it_starts_with() {
    use fpfa::server::{Client, KernelSource, MapKnobs, Request, Response};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    // No default deadline: eight kernels queue behind one worker.
    let (mut daemon, addr, _) =
        spawn_daemon(&["--workers", "1", "--shards", "1", "--deadline-ms", "0"]);
    let knobs = MapKnobs {
        tiles: 4,
        ..MapKnobs::default()
    };
    let mut client = Client::connect(&addr).expect("connect to daemon");
    // One cold map first, so every thread the daemon starts exists.
    client
        .map("warm-up", &cold_conv(0), knobs)
        .expect("warm-up map");
    let status = std::path::PathBuf::from(format!("/proc/{}/status", daemon.id()));
    let idle = thread_count(&status);

    let stop = Arc::new(AtomicBool::new(false));
    let sampler = {
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0;
            while !stop.load(Ordering::SeqCst) {
                peak = peak.max(thread_count(&status));
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            peak.max(thread_count(&status))
        })
    };
    let tickets: Vec<_> = (1..=8)
        .map(|index| {
            let kernel = KernelSource::new(format!("conv-{index}"), cold_conv(index));
            client
                .submit(&Request::Map { kernel, knobs })
                .expect("submit")
        })
        .collect();
    let answers: Vec<Response> = tickets
        .into_iter()
        .map(|ticket| client.wait(ticket).expect("an answer"))
        .collect();
    stop.store(true, Ordering::SeqCst);
    let peak = sampler.join().expect("sampler thread");

    for answer in &answers {
        assert!(
            matches!(answer, Response::Mapped(summary) if summary.tiles == 4),
            "expected a 4-tile mapping, got {answer:?}"
        );
    }
    assert_eq!(
        peak, idle,
        "the daemon started threads while mapping ({idle} idle, {peak} at peak)"
    );
    client.shutdown().expect("shutdown verb");
    drop(client);
    let tail = drain_daemon(&mut daemon);
    assert!(tail.contains("drained and stopped"), "{tail}");
}

/// A 6 KB kernel nested 3,000 parentheses deep once overflowed a worker's
/// 2 MiB stack, which aborts the whole daemon and drops every connection.
/// The frontend refuses it at the syntax-depth limit, so the daemon answers
/// `MapFailed` and maps the next kernel on the same connection.
#[test]
fn daemon_answers_a_too_deep_kernel_and_keeps_mapping() {
    use fpfa::server::{Client, ClientError, MapKnobs, WireError};

    let (mut daemon, addr, _) = spawn_daemon(&["--workers", "1"]);
    let mut client = Client::connect(&addr).expect("connect to daemon");
    let deep = format!(
        "void main() {{ int x; x = {}1{}; }}",
        "(".repeat(3_000),
        ")".repeat(3_000)
    );
    match client.map("deep", &deep, MapKnobs::default()) {
        Err(ClientError::Server(WireError::MapFailed { name, error })) => {
            assert_eq!(name, "deep");
            assert!(error.contains("nesting deeper than 256 levels"), "{error}");
        }
        other => panic!("expected a typed MapFailed, got {other:?}"),
    }
    let kernel = &fpfa::workloads::registry()[0];
    let summary = client
        .map(&kernel.name, &kernel.source, MapKnobs::default())
        .expect("the same connection still maps");
    assert!(summary.operations > 0);
    client.shutdown().expect("shutdown verb");
    drop(client);
    let tail = drain_daemon(&mut daemon);
    assert!(tail.contains("drained and stopped"), "{tail}");
}
