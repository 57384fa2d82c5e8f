//! End-to-end tests of the daemon: concurrent clients against a real
//! socket, byte-agreement with direct `MappingService` calls, typed
//! `Overloaded` rejections under queue saturation, deadline budgets, and
//! graceful shutdown.

use fpfa_core::cache::Retain;
use fpfa_core::pipeline::Mapper;
use fpfa_core::service::MappingService;
use fpfa_obs::{MetricValue, Snapshot};
use fpfa_server::protocol::{
    decode_response_frame, encode_request_frame, read_frame, write_frame, Hello, KernelSource,
    MapKnobs, MetricsFormat, Request, Response, WireError, PROTOCOL_VERSION,
};
use fpfa_server::server::{Server, ServerConfig, ServerHandle};
use fpfa_server::{program_digest, Client, ClientError};
use std::io::Write as _;
use std::net::TcpStream;
use std::time::Duration;

fn start(config: ServerConfig, mapper: Mapper) -> ServerHandle {
    serve(config, MappingService::new(mapper))
}

/// A server over `service`; a clone kept by the caller shares its cache
/// and disk tier.
fn serve(config: ServerConfig, service: MappingService) -> ServerHandle {
    let server = Server::bind("127.0.0.1:0", config, service).expect("bind on port 0");
    server.spawn().expect("spawn server")
}

/// A unique heavy kernel per index: a 2D convolution whose added constant
/// makes every source a cold cache miss.  At 16×16 it holds a worker for
/// about a second in the debug test profile (70 ms in release), far longer
/// than a probe's round trip.
fn heavy_kernel(index: usize) -> String {
    fpfa_workloads::conv2d_3x3(16, 16)
        .source
        .replace("acc = acc +", &format!("acc = acc + {} +", index + 1))
}

const TRIVIAL: &str = "void main() { int a[2]; int r; r = a[0] + a[1]; }";

/// The value of the counter or gauge `name{labels}`; a metric the snapshot
/// does not hold fails the test.
fn value(snapshot: &Snapshot, name: &str, labels: &[(&str, &str)]) -> u64 {
    match snapshot.get(name, labels) {
        Some(MetricValue::Counter(v) | MetricValue::Gauge(v)) => *v,
        other => panic!("{name} {labels:?} is not a counter or gauge: {other:?}"),
    }
}

/// Samples recorded by the histogram `name` (no labels).
fn samples(snapshot: &Snapshot, name: &str) -> u64 {
    match snapshot.get(name, &[]) {
        Some(MetricValue::Histogram { buckets, .. }) => buckets.iter().sum(),
        other => panic!("{name} is not a histogram: {other:?}"),
    }
}

/// Polls the server's registry until `ready` holds, failing after a minute.
fn wait_until(handle: &ServerHandle, what: &str, ready: impl Fn(&Snapshot) -> bool) {
    let started = std::time::Instant::now();
    loop {
        let snapshot = handle.registry().snapshot();
        if ready(&snapshot) {
            return;
        }
        assert!(
            started.elapsed() < Duration::from_secs(60),
            "timed out waiting for {what}:\n{}",
            snapshot.to_prometheus()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// The daemon's registry, scraped over the wire (the `metrics` verb's
/// JSON).
fn scrape(client: &mut Client) -> Snapshot {
    let json = client.metrics(MetricsFormat::Json).expect("metrics scrape");
    Snapshot::from_json(&json).expect("scrape parses")
}

#[test]
fn concurrent_clients_agree_with_direct_service_calls() {
    // Direct (in-process) ground truth over the whole registry.
    let direct = MappingService::new(Mapper::new());
    let kernels: Vec<(String, String)> = fpfa_workloads::registry()
        .into_iter()
        .map(|kernel| (kernel.name, kernel.source))
        .collect();
    let expected: Vec<(String, u64, u64)> = kernels
        .iter()
        .map(|(name, source)| {
            let result = direct.map_source(source).expect("registry kernels map");
            (
                name.clone(),
                program_digest(&result),
                result.report.cycles as u64,
            )
        })
        .collect();

    // Four clients send the registry in lockstep, so on any core count
    // several workers ask for the same kernel at once.
    for workers in [1, 2, 4, 8] {
        let handle = start(
            ServerConfig {
                workers,
                ..ServerConfig::default()
            },
            Mapper::new(),
        );
        let addr = handle.addr();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let kernels = &kernels;
                let expected = &expected;
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    for ((name, source), (_, digest, cycles)) in kernels.iter().zip(expected) {
                        let summary = client
                            .map(name, source, MapKnobs::default())
                            .unwrap_or_else(|e| panic!("mapping `{name}` failed: {e}"));
                        assert_eq!(summary.digest, *digest, "digest of `{name}`");
                        assert_eq!(summary.cycles, *cycles, "cycles of `{name}`");
                        assert_eq!(summary.name, *name);
                    }
                });
            }
        });

        let stats = scrape(&mut Client::connect(addr).expect("connect for metrics"));
        let text = stats.to_prometheus();
        assert_eq!(
            value(&stats, "serve.served", &[("outcome", "ok")]),
            4 * kernels.len() as u64,
            "{workers} worker(s):\n{text}"
        );
        assert_eq!(value(&stats, "serve.served", &[("outcome", "err")]), 0);
        assert_eq!(
            value(&stats, "serve.rejected", &[("reason", "overload")]),
            0
        );
        // Each kernel runs the flow once, however many workers race for it:
        // a request for a kernel in flight follows that run, and a later
        // one is answered from a summary or the post-transform level.
        assert_eq!(
            value(&stats, "cache.post.misses", &[]),
            kernels.len() as u64,
            "flow runs with {workers} worker(s):\n{text}"
        );
        handle.shutdown();
        handle.join();
    }
}

#[test]
fn multi_tile_requests_agree_and_do_not_alias_single_tile() {
    let direct = MappingService::new(Mapper::new().with_tiles(4));
    let source = &fpfa_workloads::fir(64).source;
    let expected = direct.map_source(source).expect("fir64 maps on 4 tiles");

    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let four = client
        .map(
            "fir64",
            source,
            MapKnobs {
                tiles: 4,
                ..MapKnobs::default()
            },
        )
        .expect("4-tile mapping");
    assert_eq!(four.tiles, 4);
    assert_eq!(four.digest, program_digest(&expected));
    assert_eq!(four.cycles, expected.report.cycles as u64);
    assert_eq!(
        four.inter_tile_transfers,
        expected.report.inter_tile_transfers as u64
    );

    let one = client
        .map(
            "fir64",
            source,
            MapKnobs {
                tiles: 1,
                ..MapKnobs::default()
            },
        )
        .expect("1-tile mapping");
    assert_eq!(one.tiles, 1);
    assert_ne!(one.digest, four.digest, "tile counts must not alias");
    handle.shutdown();
    handle.join();
}

/// A kernel whose if/else merges four scalars is served with the digest a
/// one-shot map in this process gives: the daemon's workers lower it to
/// the same CDFG as any other caller.
#[test]
fn a_four_scalar_branch_merge_is_served_with_the_one_shot_digest() {
    let source = include_str!("../../../examples/kernels/threshold.c");
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    for tiles in [1u32, 4] {
        let one_shot = Mapper::new()
            .with_tiles(tiles as usize)
            .map_source(source)
            .expect("the threshold kernel maps");
        let served = client
            .map(
                "threshold",
                source,
                MapKnobs {
                    tiles,
                    ..MapKnobs::default()
                },
            )
            .expect("the daemon maps the threshold kernel");
        assert_eq!(served.digest, program_digest(&one_shot), "{tiles} tile(s)");
    }
    handle.shutdown();
    handle.join();
}

#[test]
fn zero_knobs_inherit_the_daemon_defaults() {
    // A daemon configured for a 2-tile array: requests with the `0` tile
    // sentinel map on 2 tiles, explicit knobs still override it.
    let handle = start(ServerConfig::default(), Mapper::new().with_tiles(2));
    let mut client = Client::connect(handle.addr()).expect("connect");
    let source = &fpfa_workloads::fir(64).source;
    let inherited = client
        .map("fir64", source, MapKnobs::default())
        .expect("default-knob mapping");
    assert_eq!(inherited.tiles, 2, "tiles=0 inherits the daemon default");
    let expected = MappingService::new(Mapper::new().with_tiles(2))
        .map_source(source)
        .expect("direct 2-tile mapping");
    assert_eq!(inherited.digest, program_digest(&expected));
    let overridden = client
        .map(
            "fir64",
            source,
            MapKnobs {
                tiles: 1,
                ..MapKnobs::default()
            },
        )
        .expect("explicit single-tile mapping");
    assert_eq!(overridden.tiles, 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn simulate_knob_returns_consistent_outcomes() {
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let knobs = MapKnobs {
        simulate: true,
        ..MapKnobs::default()
    };
    let source = &fpfa_workloads::fir(5).source;
    let cold = client
        .map("fir5", source, knobs)
        .expect("simulated mapping");
    let sim = cold.sim.expect("simulate knob produces a sim summary");
    assert_eq!(sim.cycles, cold.cycles, "simulator agrees with allocator");
    // A cache-served repeat simulates the identical program.
    let warm = client.map("fir5", source, knobs).expect("warm repeat");
    assert_eq!(warm.sim, cold.sim);
    handle.shutdown();
    handle.join();
}

#[test]
fn saturated_queue_rejects_with_typed_overloaded() {
    let handle = start(
        ServerConfig {
            workers: 1,
            queue_depth: 1,
            default_deadline: Duration::ZERO,
            ..ServerConfig::default()
        },
        Mapper::new(),
    );
    let addr = handle.addr();
    let map_heavy = |index: usize| {
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("connect heavy");
            client
                .map(
                    &format!("heavy{index}"),
                    &heavy_kernel(index),
                    MapKnobs::default(),
                )
                .expect("heavy kernel maps")
        })
    };
    let in_flight = |snapshot: &Snapshot| value(snapshot, "serve.in_flight", &[]);

    // Fill the server on observed state, not on timing: the first heavy
    // kernel is admitted and taken off the queue by the only worker (one
    // queue-wait sample), so the second finds the queue empty and waits in
    // its single slot.
    let mut heavies = vec![map_heavy(0)];
    wait_until(&handle, "the worker to take the first heavy kernel", |s| {
        in_flight(s) == 1 && samples(s, "serve.queue.wait") == 1
    });
    heavies.push(map_heavy(1));
    wait_until(&handle, "one heavy kernel running and one queued", |s| {
        in_flight(s) == 2
    });

    // A distinct cold probe cannot be answered from an I/O shard's warm
    // table, and the full queue sheds it.
    let mut probe = Client::connect(addr).expect("connect probe");
    let source = "void main() { int a[2]; int r; r = a[0] + a[1] + 7; }";
    match probe.call(&Request::Map {
        kernel: KernelSource::new("probe", source),
        knobs: MapKnobs::default(),
    }) {
        Ok(Response::Error(WireError::Overloaded { queue_depth })) => assert_eq!(queue_depth, 1),
        other => panic!("a probe against a full 1-deep queue got {other:?}"),
    }

    for heavy in heavies {
        heavy.join().expect("heavy mapping thread");
    }
    // The shedding connection stays healthy: the same probe client now gets
    // served once capacity frees up.
    let served = probe
        .map("probe", TRIVIAL, MapKnobs::default())
        .expect("probe maps after the burst");
    assert!(served.cycles > 0);
    let stats = handle.registry().snapshot();
    assert!(value(&stats, "serve.rejected", &[("reason", "overload")]) >= 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn lapsed_deadline_budget_is_a_typed_rejection() {
    let handle = start(
        ServerConfig {
            workers: 1,
            queue_depth: 4,
            default_deadline: Duration::ZERO,
            ..ServerConfig::default()
        },
        Mapper::new(),
    );
    let addr = handle.addr();
    // Busy the single worker with a heavy cold kernel...
    let source = heavy_kernel(99);
    let heavy = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("connect heavy");
        client
            .map("heavy", &source, MapKnobs::default())
            .expect("heavy maps")
    });
    // ... then queue a request whose 1 ms budget lapses while it waits.
    // (Retry in case the heavy kernel had not reached the worker yet; each
    // attempt is a distinct cold kernel so the shard's warm table cannot
    // answer it inline.)
    let mut client = Client::connect(addr).expect("connect");
    let mut saw_deadline = false;
    for attempt in 0..50 {
        let source = format!("void main() {{ int a[2]; int r; r = a[0] + a[1] + {attempt}; }}");
        match client.map(
            "impatient",
            &source,
            MapKnobs {
                deadline_ms: 1,
                ..MapKnobs::default()
            },
        ) {
            Err(ClientError::Server(WireError::DeadlineExceeded { budget_ms })) => {
                assert_eq!(budget_ms, 1);
                saw_deadline = true;
                break;
            }
            Ok(_) => {}
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(
        saw_deadline,
        "a 1 ms budget behind a heavy job never lapsed"
    );
    heavy.join().expect("heavy thread");
    let stats = handle.registry().snapshot();
    assert!(value(&stats, "serve.rejected", &[("reason", "deadline")]) >= 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn invalid_knobs_and_payloads_are_typed_not_fatal() {
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let oversized_array = client
        .map(
            "k",
            TRIVIAL,
            MapKnobs {
                tiles: fpfa_server::server::MAX_TILES + 1,
                ..MapKnobs::default()
            },
        )
        .unwrap_err();
    assert!(matches!(
        oversized_array,
        ClientError::Server(WireError::Invalid(_))
    ));
    // Processing parts are bounded the same way.  One past the bound is
    // enough: an unbounded `pps` would size the allocator's per-level part
    // list, so a regression must fail here rather than exhaust memory.
    let oversized_parts = client
        .map(
            "k",
            TRIVIAL,
            MapKnobs {
                pps: fpfa_server::server::MAX_PPS + 1,
                ..MapKnobs::default()
            },
        )
        .unwrap_err();
    match oversized_parts {
        ClientError::Server(WireError::Invalid(reason)) => {
            assert!(reason.contains("pps"), "unexpected reason: {reason}");
        }
        other => panic!("expected Invalid, got {other:?}"),
    }
    // A kernel that fails to map is a typed MapFailed naming the kernel.
    let failed = client
        .map("broken", "void main() { x = 1; }", MapKnobs::default())
        .unwrap_err();
    match failed {
        ClientError::Server(WireError::MapFailed { name, .. }) => assert_eq!(name, "broken"),
        other => panic!("expected MapFailed, got {other:?}"),
    }
    // The connection survives both rejections.
    assert!(client.map("k", TRIVIAL, MapKnobs::default()).is_ok());

    // A v2 frame carrying the retired `stats` tag (3) is a typed `Invalid`
    // answer under its request id, and the same connection then maps.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    write_frame(&mut raw, &Hello::current().encode()).expect("hello");
    raw.flush().expect("flush hello");
    let ack = read_frame(&mut raw).expect("ack").expect("ack frame");
    assert!(matches!(Response::decode(&ack), Ok(Response::Hello(_))));
    let mut retired = 5u64.to_le_bytes().to_vec();
    retired.push(3);
    write_frame(&mut raw, &retired).expect("write tag 3");
    raw.flush().expect("flush tag 3");
    let reply = read_frame(&mut raw).expect("reply").expect("a reply");
    match decode_response_frame(&reply).expect("reply decodes") {
        (5, Response::Error(WireError::Invalid(reason))) => {
            assert!(
                reason.contains("request tag"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected a typed Invalid for tag 3, got {other:?}"),
    }
    let map = Request::Map {
        kernel: KernelSource::new("k", TRIVIAL),
        knobs: MapKnobs::default(),
    };
    write_frame(&mut raw, &encode_request_frame(6, &map)).expect("write map");
    raw.flush().expect("flush map");
    let reply = read_frame(&mut raw).expect("reply").expect("a reply");
    assert!(matches!(
        decode_response_frame(&reply),
        Ok((6, Response::Mapped(_)))
    ));

    // So is a well-formed frame of the retired `batch` verb (tag 2): a
    // kernel count of one, then that kernel and its knobs.
    let mut retired = encode_request_frame(7, &map);
    retired[8] = 2;
    retired.splice(9..9, 1u32.to_le_bytes());
    write_frame(&mut raw, &retired).expect("write tag 2");
    raw.flush().expect("flush tag 2");
    let reply = read_frame(&mut raw).expect("reply").expect("a reply");
    match decode_response_frame(&reply).expect("reply decodes") {
        (7, Response::Error(WireError::Invalid(reason))) => {
            assert!(
                reason.contains("request tag"),
                "unexpected reason: {reason}"
            );
        }
        other => panic!("expected a typed Invalid for tag 2, got {other:?}"),
    }
    write_frame(&mut raw, &encode_request_frame(8, &map)).expect("write map");
    raw.flush().expect("flush map");
    let reply = read_frame(&mut raw).expect("reply").expect("a reply");
    assert!(matches!(
        decode_response_frame(&reply),
        Ok((8, Response::Mapped(_)))
    ));
    assert_eq!(metric(&handle, "serve.protocol_errors"), 2);
    handle.shutdown();
    handle.join();
}

#[test]
fn verify_knob_rejects_bad_kernels_with_a_typed_error() {
    // Maps fine (the flow has no bounds model) but carries a deny-level
    // FS006 lint: the constant index 7 is out of bounds for `a[4]`.
    const OOB: &str = "void main() { int a[4]; int x; int y; x = a[7]; y = x; }";

    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");

    // Without the knob the kernel is served — and seeds the shard's warm
    // table, so the verified retry below also proves the fast path cannot
    // vouch for a request that asked for verification.
    let unchecked = client
        .map("oob", OOB, MapKnobs::default())
        .expect("maps without verification");
    assert_eq!(unchecked.name, "oob");

    let verify = MapKnobs {
        verify: true,
        ..MapKnobs::default()
    };
    let rejected = client.map("oob", OOB, verify).unwrap_err();
    match rejected {
        ClientError::Server(WireError::VerifyFailed {
            name,
            denies,
            first,
        }) => {
            assert_eq!(name, "oob");
            assert!(denies >= 1);
            assert!(first.contains("FS006"), "unexpected diagnostic: {first}");
        }
        other => panic!("expected VerifyFailed, got {other:?}"),
    }

    // The rejection is typed, not fatal: the same connection keeps serving,
    // and a clean kernel passes verification (cold and cache-served alike).
    let cold = client.map("k", TRIVIAL, verify).expect("clean verifies");
    let warm = client.map("k", TRIVIAL, verify).expect("warm re-verify");
    assert_eq!(warm.digest, cold.digest);

    let stats = handle.registry().snapshot();
    assert!(
        value(&stats, "serve.verify_failures", &[("verb", "map")]) >= 1,
        "map rejections:\n{}",
        stats.to_prometheus()
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn stats_reset_clears_cache_and_counters() {
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let miss = client.map("k", TRIVIAL, MapKnobs::default()).expect("cold");
    let hit = client.map("k", TRIVIAL, MapKnobs::default()).expect("warm");
    assert_eq!(miss.cache, fpfa_server::CacheFlavor::Miss);
    assert_eq!(hit.cache, fpfa_server::CacheFlavor::MappingHit);

    let health = client.health().expect("health");
    assert!(!health.draining);

    let stats = scrape(&mut client);
    assert_eq!(value(&stats, "serve.served", &[("outcome", "ok")]), 2);
    assert_eq!(value(&stats, "cache.mapping.hits", &[]), 1);
    assert!(value(&stats, "cache.entries", &[]) >= 1);
    match stats.get("serve.map.latency", &[]) {
        Some(MetricValue::Histogram { buckets, .. }) => {
            assert!(buckets.iter().sum::<u64>() >= 2)
        }
        other => panic!("serve.map.latency is not a histogram: {other:?}"),
    }

    let dropped = client.reset().expect("reset");
    assert!(dropped >= 1, "reset drops the resident entries");
    let stats = scrape(&mut client);
    assert_eq!(value(&stats, "serve.served", &[("outcome", "ok")]), 0);
    assert_eq!(value(&stats, "cache.mapping.hits", &[]), 0);
    assert_eq!(value(&stats, "cache.entries", &[]), 0);
    // The next map is a cold miss again.
    let cold = client
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("re-map");
    assert_eq!(cold.cache, fpfa_server::CacheFlavor::Miss);
    handle.shutdown();
    handle.join();
}

#[test]
fn reset_truncates_the_disk_tier_and_the_l0_tables() {
    let dir = std::env::temp_dir().join(format!("fpfa-e2e-reset-tier-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let service = MappingService::with_cache_dir(Mapper::new(), 64, &dir).expect("open disk tier");
    let server = Server::bind("127.0.0.1:0", ServerConfig::default(), service).expect("bind");
    let handle = server.spawn().expect("spawn server");
    let mut client = Client::connect(handle.addr()).expect("connect");

    let cold = client.map("k", TRIVIAL, MapKnobs::default()).expect("cold");
    assert_eq!(cold.cache, fpfa_server::CacheFlavor::Miss);
    let warm = client.map("k", TRIVIAL, MapKnobs::default()).expect("warm");
    assert_eq!(warm.cache, fpfa_server::CacheFlavor::MappingHit);
    assert_eq!(warm.digest, cold.digest);
    let repeat = client
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("repeat");
    assert_eq!(repeat.digest, cold.digest);

    let stats = scrape(&mut client);
    assert!(
        value(&stats, "persist.stores", &[]) >= 1,
        "cold mappings are written through to the disk tier"
    );
    assert!(
        value(&stats, "serve.l0_hits", &[]) >= 1,
        "the identical repeat was answered from the shard's L0 table"
    );

    // `reset` (the `--cold-storm` primitive) must invalidate every tier:
    // the shards' L0 tables, the in-memory cache AND the on-disk segments.
    // A subsequent map must be a genuine cold miss — if the disk tier
    // survived the reset it would come back as a warm mapping hit.
    let dropped = client.reset().expect("reset");
    assert!(dropped >= 1);
    let cold_again = client
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("re-map");
    assert_eq!(cold_again.cache, fpfa_server::CacheFlavor::Miss);
    assert_eq!(
        cold_again.digest, cold.digest,
        "a cold re-map reproduces the program"
    );

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn v1_clients_are_rejected_with_a_typed_unsupported_version() {
    let handle = start(ServerConfig::default(), Mapper::new());

    // A bare v1 request (no hello) is answered with a typed
    // `UnsupportedVersion`, then the connection is closed — not hung.
    let mut v1 = TcpStream::connect(handle.addr()).expect("connect raw");
    write_frame(&mut v1, &Request::Health.encode()).expect("write v1 frame");
    v1.flush().expect("flush");
    let payload = read_frame(&mut v1)
        .expect("read rejection")
        .expect("a reply, not a hang");
    match Response::decode(&payload).expect("typed rejection decodes") {
        Response::Error(WireError::UnsupportedVersion {
            requested,
            supported,
        }) => {
            assert_eq!(requested, 1);
            assert_eq!(supported, PROTOCOL_VERSION);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }
    assert!(
        read_frame(&mut v1).expect("clean close").is_none(),
        "the connection closes after the rejection"
    );

    // A future version in the hello is rejected the same way.
    let mut future = TcpStream::connect(handle.addr()).expect("connect raw");
    write_frame(&mut future, &Hello { version: 99 }.encode()).expect("write hello");
    future.flush().expect("flush");
    let payload = read_frame(&mut future)
        .expect("read rejection")
        .expect("a reply");
    match Response::decode(&payload).expect("decodes") {
        Response::Error(WireError::UnsupportedVersion { requested, .. }) => {
            assert_eq!(requested, 99);
        }
        other => panic!("expected UnsupportedVersion, got {other:?}"),
    }

    let stats = handle.registry().snapshot();
    assert!(value(&stats, "serve.rejected", &[("reason", "version")]) >= 2);
    handle.shutdown();
    handle.join();
}

#[test]
fn pipelined_requests_complete_out_of_order_by_request_id() {
    let handle = start(ServerConfig::default(), Mapper::new());

    // Handshake + warm the kernel through the plain client first.
    let mut warmup = Client::connect(handle.addr()).expect("connect warmup");
    let expected = warmup
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("warmup map");

    // Raw v2 connection: hello, a plain map that seeds this connection's
    // shard's L0 table (the connection may live on another shard than the
    // warmup's), then two back-to-back requests — a `simulate` map (always
    // the worker path) followed by a plain map (the L0 table answers it
    // inline).  The second response must overtake the first on the wire.
    let mut raw = TcpStream::connect(handle.addr()).expect("connect raw");
    write_frame(&mut raw, &Hello::current().encode()).expect("hello");
    raw.flush().expect("flush hello");
    let ack = read_frame(&mut raw).expect("ack").expect("ack frame");
    assert!(matches!(
        Response::decode(&ack).expect("ack decodes"),
        Response::Hello(_)
    ));

    let slow = Request::Map {
        kernel: KernelSource::new("k", TRIVIAL),
        knobs: MapKnobs {
            simulate: true,
            ..MapKnobs::default()
        },
    };
    let fast = Request::Map {
        kernel: KernelSource::new("k", TRIVIAL),
        knobs: MapKnobs::default(),
    };
    write_frame(&mut raw, &encode_request_frame(6, &fast)).expect("write seed");
    raw.flush().expect("flush seed");
    let seed = read_frame(&mut raw).expect("seed").expect("seed frame");
    assert_eq!(decode_response_frame(&seed).expect("seed decodes").0, 6);
    write_frame(&mut raw, &encode_request_frame(7, &slow)).expect("write slow");
    write_frame(&mut raw, &encode_request_frame(8, &fast)).expect("write fast");
    raw.flush().expect("flush both");

    let first = read_frame(&mut raw).expect("first").expect("first frame");
    let (first_id, first_response) = decode_response_frame(&first).expect("first decodes");
    let second = read_frame(&mut raw).expect("second").expect("second frame");
    let (second_id, second_response) = decode_response_frame(&second).expect("second decodes");
    assert_eq!(
        (first_id, second_id),
        (8, 7),
        "the inline warm answer must overtake the queued simulate job"
    );
    match (&first_response, &second_response) {
        (Response::Mapped(fast_summary), Response::Mapped(slow_summary)) => {
            assert_eq!(fast_summary.digest, expected.digest);
            assert_eq!(slow_summary.digest, expected.digest);
            assert!(slow_summary.sim.is_some());
        }
        other => panic!("expected two mappings, got {other:?}"),
    }

    // The pipelined client API reassembles the same interleaving by ticket.
    let mut client = Client::connect(handle.addr()).expect("connect pipelined");
    let slow_ticket = client.submit(&slow).expect("submit slow");
    let fast_ticket = client.submit(&fast).expect("submit fast");
    let slow_response = client.wait(slow_ticket).expect("wait slow");
    let fast_response = client.wait(fast_ticket).expect("wait fast");
    assert!(matches!(slow_response, Response::Mapped(s) if s.sim.is_some()));
    assert!(matches!(fast_response, Response::Mapped(s) if s.sim.is_none()));

    handle.shutdown();
    handle.join();
}

#[test]
fn per_shard_counters_are_reported() {
    let handle = start(
        ServerConfig {
            shards: 2,
            ..ServerConfig::default()
        },
        Mapper::new(),
    );
    let mut a = Client::connect(handle.addr()).expect("connect a");
    let mut b = Client::connect(handle.addr()).expect("connect b");
    a.map("k", TRIVIAL, MapKnobs::default()).expect("map a");
    b.map("k", TRIVIAL, MapKnobs::default()).expect("map b");
    let stats = scrape(&mut a);
    // One counter set per shard: shards 0 and 1, no shard 2.
    assert_eq!(stats.get("shard.accepted", &[("shard", "2")]), None);
    let total = |name| -> u64 {
        ["0", "1"]
            .iter()
            .map(|&shard| value(&stats, name, &[("shard", shard)]))
            .sum()
    };
    let text = stats.to_prometheus();
    assert_eq!(
        total("shard.accepted"),
        2,
        "exactly the two connections adopted:\n{text}"
    );
    assert_eq!(
        total("shard.open"),
        2,
        "both connections still open:\n{text}"
    );
    assert!(
        total("shard.served") >= 3,
        "two maps + handshakes served:\n{text}"
    );
    assert!(total("shard.bytes_in") > 0 && total("shard.bytes_out") > 0);
    handle.shutdown();
    handle.join();
}

#[test]
fn graceful_shutdown_drains_and_rejects_new_work() {
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.map("k", TRIVIAL, MapKnobs::default()).expect("map");

    let mut controller = Client::connect(handle.addr()).expect("connect controller");
    controller.shutdown().expect("shutdown ack");

    // The existing connection is answered with a typed ShuttingDown for new
    // mapping work (not a dropped socket).
    let refused = client.map("k", TRIVIAL, MapKnobs::default()).unwrap_err();
    assert!(matches!(
        refused,
        ClientError::Server(WireError::ShuttingDown)
            | ClientError::Io(_)
            | ClientError::Disconnected
    ));

    // join() returns only after the drain: workers exited, every
    // connection thread joined, the listener dropped.
    let stats = handle.join();
    assert!(value(&stats, "serve.served", &[("outcome", "ok")]) >= 1);
    assert!(
        value(&stats, "serve.rejected", &[("reason", "shutdown")]) >= 1,
        "the refused request is accounted:\n{}",
        stats.to_prometheus()
    );
}

#[test]
fn metrics_verb_renders_prometheus_and_json_over_the_registry() {
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.map("k", TRIVIAL, MapKnobs::default()).expect("cold");
    client.map("k", TRIVIAL, MapKnobs::default()).expect("warm");

    let text = client
        .metrics(MetricsFormat::Prometheus)
        .expect("prometheus scrape");
    assert!(
        text.contains("# TYPE serve_served counter"),
        "served family missing:\n{text}"
    );
    assert!(
        text.contains("serve_served{outcome=\"ok\"} 2"),
        "served{{ok}} sample missing:\n{text}"
    );
    assert!(
        text.contains("# TYPE serve_map_latency histogram")
            && text.contains("serve_map_latency_p99"),
        "map-latency histogram missing:\n{text}"
    );
    // The cold map went through the queue, so the queue-wait histogram has
    // at least one observation and renders its quantile lines.
    assert!(
        text.contains("serve_queue_wait_p99"),
        "queue-wait p99 missing:\n{text}"
    );
    assert!(
        text.contains("cache_mapping_hits 1"),
        "cache gauges missing:\n{text}"
    );
    assert!(
        text.contains("shard_served{shard=\"0\"}"),
        "per-shard counters missing:\n{text}"
    );

    // The JSON exposition round-trips through the obs parser and agrees
    // with the registry read in process.
    let scraped = scrape(&mut client);
    assert_eq!(
        scraped.get("serve.served", &[("outcome", "ok")]),
        Some(&MetricValue::Counter(2))
    );
    assert_eq!(
        scraped.get("serve.served", &[("outcome", "ok")]),
        handle
            .registry()
            .snapshot()
            .get("serve.served", &[("outcome", "ok")])
    );

    // `reset` zeroes the registry's counters.
    client.reset().expect("reset");
    let text = client
        .metrics(MetricsFormat::Prometheus)
        .expect("post-reset scrape");
    assert!(
        text.contains("serve_served{outcome=\"ok\"} 0"),
        "reset must zero the registry:\n{text}"
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn dump_verb_reports_flight_entries_and_sampled_spans_decompose() {
    let handle = start(
        ServerConfig {
            trace_sample: 1,
            ..ServerConfig::default()
        },
        Mapper::new(),
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    // A cold map takes the worker path, so its flight entry carries a queue
    // wait and its sampled trace carries the full span decomposition.
    client.map("k", TRIVIAL, MapKnobs::default()).expect("cold");
    // A warm repeat is answered from the L0 tier and still flight-recorded.
    client.map("k", TRIVIAL, MapKnobs::default()).expect("warm");

    let dump = client.dump().expect("dump");
    let parsed = fpfa_obs::json::parse(&dump).expect("dump is valid JSON");
    let top = parsed.as_object().expect("dump is an object");
    let shards = top
        .get("shards")
        .and_then(|v| v.as_array())
        .expect("shards array");
    let entries: Vec<_> = shards
        .iter()
        .flat_map(|shard| {
            shard
                .as_object()
                .and_then(|o| o.get("recent"))
                .and_then(|v| v.as_array())
                .map(<[fpfa_obs::json::JsonValue]>::to_vec)
                .unwrap_or_default()
        })
        .collect();
    let outcome_of = |entry: &fpfa_obs::json::JsonValue, want: &str| {
        entry
            .as_object()
            .and_then(|o| o.get("outcome"))
            .and_then(|v| v.as_str().map(|s| s == want))
            .unwrap_or(false)
    };
    assert!(
        entries.iter().any(|e| outcome_of(e, "ok")),
        "no worker-path flight entry in: {dump}"
    );
    assert!(
        entries.iter().any(|e| outcome_of(e, "l0")),
        "no L0 flight entry in: {dump}"
    );

    // The sampled trace decomposes the worker-path request: queue wait,
    // worker service and write-back transit must sum to the request span's
    // end-to-end duration within 10%.
    let traces = top
        .get("traces")
        .and_then(|v| v.as_array())
        .expect("traces array");
    let span = |trace_id: u64, name: &str| -> Option<u64> {
        traces.iter().find_map(|span| {
            let span = span.as_object()?;
            (span.get("trace_id")?.as_u64()? == trace_id && span.get("name")?.as_str()? == name)
                .then(|| span.get("dur_us").and_then(|v| v.as_u64()))?
        })
    };
    let request_id = traces
        .iter()
        .find_map(|span| {
            let span = span.as_object()?;
            (span.get("name")?.as_str()? == "request").then(|| span.get("trace_id")?.as_u64())?
        })
        .expect("a sampled request span");
    let e2e = span(request_id, "request").expect("request span");
    let queue = span(request_id, "queue.wait").expect("queue.wait child");
    let service = span(request_id, "map.service").expect("map.service child");
    let respond = span(request_id, "respond").expect("respond child");
    let sum = queue + service + respond;
    let gap = e2e.abs_diff(sum);
    assert!(
        gap * 10 <= e2e,
        "span decomposition ({queue} + {service} + {respond} = {sum} us) strays more \
         than 10% from the request span ({e2e} us)"
    );
    // The flow's own stage spans ride along under the same trace id.
    assert!(
        span(request_id, "frontend").is_some() && span(request_id, "schedule").is_some(),
        "flow stage spans missing from: {dump}"
    );

    handle.shutdown();
    handle.join();

    // Every inline answer is tagged with the tier that produced it.  A
    // restarted server answers its first request from the disk tier's
    // summaries, the repeat from the L0 entry that answer seeded, and a
    // kernel mapped beside the daemon, through a clone of its service, from
    // the disk summary that mapping stored through.
    let dir = std::env::temp_dir().join(format!("fpfa-e2e-dump-tiers-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let first = start_with_cache_dir(&dir);
    let mut client = Client::connect(first.addr()).expect("connect");
    client.map("k", TRIVIAL, MapKnobs::default()).expect("cold");
    first.shutdown();
    first.join();
    let service = MappingService::with_cache_dir(Mapper::new(), 64, &dir).expect("open disk tier");
    let restarted = serve(ServerConfig::default(), service.clone());
    let mut client = Client::connect(restarted.addr()).expect("connect");
    client
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("from disk");
    client
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("from L0");
    let beside = "void main() { int a[2]; int r; r = a[0] * a[1]; }";
    service
        .map_source_shared(beside, Retain::Mapping)
        .expect("maps beside the daemon");
    client
        .map("b", beside, MapKnobs::default())
        .expect("from disk");
    let dump = client.dump().expect("dump");
    assert_eq!(
        map_outcomes(&dump),
        ["disk", "l0", "disk"],
        "inline answers mis-tagged in: {dump}"
    );
    restarted.shutdown();
    restarted.join();
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);

    // Without a disk tier, a kernel only the shared in-memory cache holds
    // goes once through a worker: a mapping hit that runs no flow stage.
    // Its completion seeds the shard's L0 table, which answers the repeat.
    let service = MappingService::new(Mapper::new());
    let handle = serve(
        ServerConfig {
            trace_sample: 1,
            ..ServerConfig::default()
        },
        service.clone(),
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    service
        .map_source_shared(beside, Retain::Mapping)
        .expect("maps beside the daemon");
    let worker = client
        .map("b", beside, MapKnobs::default())
        .expect("from a worker");
    assert_eq!(worker.cache, fpfa_server::CacheFlavor::MappingHit);
    let repeat = client
        .map("b", beside, MapKnobs::default())
        .expect("from L0");
    assert_eq!(repeat.cache, fpfa_server::CacheFlavor::MappingHit);
    assert_eq!(repeat.digest, worker.digest);
    assert_eq!(metric(&handle, "serve.accepted"), 1);
    let dump = client.dump().expect("dump");
    assert_eq!(
        map_outcomes(&dump),
        ["ok", "l0"],
        "answers mis-tagged in: {dump}"
    );
    let parsed = fpfa_obs::json::parse(&dump).expect("dump is valid JSON");
    let spans: Vec<(u64, String)> = parsed
        .as_object()
        .and_then(|top| top.get("traces"))
        .and_then(|v| v.as_array())
        .expect("traces array")
        .iter()
        .filter_map(|span| {
            let span = span.as_object()?;
            let id = span.get("trace_id")?.as_u64()?;
            Some((id, span.get("name")?.as_str()?.to_string()))
        })
        .collect();
    // Client ids count from zero: the worker-path map is 0.
    let names: Vec<&str> = spans
        .iter()
        .filter(|(id, _)| *id == 0)
        .map(|(_, name)| name.as_str())
        .collect();
    assert_eq!(
        names,
        ["request", "queue.wait", "map.service", "respond"],
        "a mapping hit carries no stage span: {dump}"
    );
    handle.shutdown();
    handle.join();
}

/// A server with a persistent disk tier under `dir`.
fn start_with_cache_dir(dir: &std::path::Path) -> ServerHandle {
    let service = MappingService::with_cache_dir(Mapper::new(), 64, dir).expect("open disk tier");
    serve(ServerConfig::default(), service)
}

/// The flight-recorder outcomes of a dump's `map` entries, in id order.
fn map_outcomes(dump: &str) -> Vec<String> {
    let parsed = fpfa_obs::json::parse(dump).expect("dump is valid JSON");
    let mut entries: Vec<(u64, String)> = parsed
        .as_object()
        .and_then(|top| top.get("shards"))
        .and_then(|v| v.as_array())
        .expect("shards array")
        .iter()
        .flat_map(|shard| {
            shard
                .as_object()
                .and_then(|o| o.get("recent"))
                .and_then(|v| v.as_array())
                .map(<[fpfa_obs::json::JsonValue]>::to_vec)
                .unwrap_or_default()
        })
        .filter_map(|entry| {
            let entry = entry.as_object()?;
            (entry.get("verb")?.as_str()? == "map").then_some(())?;
            let id = entry.get("id")?.as_u64()?;
            Some((id, entry.get("outcome")?.as_str()?.to_string()))
        })
        .collect();
    entries.sort();
    entries.into_iter().map(|(_, outcome)| outcome).collect()
}

/// One connection maps the registry, then maps it again: every repeat is
/// answered from the shard's L0 table with the first pass's digest, without
/// queueing.  The table is keyed by kernel source, so a third pass under new
/// names is answered from it too, each answer echoing its own name.
#[test]
fn warm_repeats_are_answered_from_l0_under_any_name() {
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    let kernels = fpfa_workloads::registry();
    let cold: Vec<u64> = kernels
        .iter()
        .map(|k| {
            client
                .map(&k.name, &k.source, MapKnobs::default())
                .expect("registry kernels map")
                .digest
        })
        .collect();
    let accepted = metric(&handle, "serve.accepted");
    assert_eq!(accepted, kernels.len() as u64);

    for (pass, suffix) in [(1, ""), (2, "#renamed")] {
        let l0_hits = metric(&handle, "serve.l0_hits");
        for (kernel, digest) in kernels.iter().zip(&cold) {
            let name = format!("{}{suffix}", kernel.name);
            let warm = client
                .map(&name, &kernel.source, MapKnobs::default())
                .expect("warm map");
            assert_eq!(warm.cache, fpfa_server::CacheFlavor::MappingHit);
            assert_eq!(warm.digest, *digest, "digest of `{name}`");
            assert_eq!(warm.name, name);
        }
        assert_eq!(
            metric(&handle, "serve.l0_hits") - l0_hits,
            kernels.len() as u64,
            "L0 hits of warm pass {pass}"
        );
        assert_eq!(metric(&handle, "serve.accepted"), accepted);
    }
    handle.shutdown();
    handle.join();
}

/// The value of an unlabelled counter or gauge in a server's registry.
fn metric(handle: &ServerHandle, name: &str) -> u64 {
    value(&handle.registry().snapshot(), name, &[])
}

/// What the shared cache pins, read from a scrape: a plain map keeps its
/// post-transform artifacts but no full mapping, since its repeats are
/// answered from summaries; a `verify` map keeps its mapping, so a second
/// `verify` of the same source is a mapping hit that runs no stage.
#[test]
fn plain_maps_pin_no_mapping_and_verified_maps_keep_theirs() {
    let handle = start(
        ServerConfig {
            workers: 2,
            shards: 1,
            ..ServerConfig::default()
        },
        Mapper::new(),
    );
    let mut client = Client::connect(handle.addr()).expect("connect");
    let plain = 5;
    for index in 0..plain {
        let source = format!(
            "void main() {{ int a[{}]; int r; r = a[0] + a[1]; }}",
            index + 2
        );
        client
            .map(&format!("k{index}"), &source, MapKnobs::default())
            .expect("plain map");
    }
    let entries = |stats: &Snapshot| {
        (
            value(stats, "cache.mapping.entries", &[]),
            value(stats, "cache.post.entries", &[]),
            value(stats, "cache.entries", &[]),
        )
    };
    let stats = scrape(&mut client);
    assert_eq!(
        entries(&stats),
        (0, plain, plain),
        "{}",
        stats.to_prometheus()
    );

    let verify = MapKnobs {
        verify: true,
        ..MapKnobs::default()
    };
    let source = "void main() { int a[3]; int r; r = a[0] + a[1] * a[2]; }";
    let first = client.map("v", source, verify).expect("verified map");
    assert_eq!(first.cache, fpfa_server::CacheFlavor::Miss);
    let stats = scrape(&mut client);
    assert_eq!(entries(&stats), (1, plain + 1, plain + 2));
    let post_lookups = |stats: &Snapshot| {
        value(stats, "cache.post.hits", &[]) + value(stats, "cache.post.misses", &[])
    };
    let before = post_lookups(&stats);

    let second = client.map("v", source, verify).expect("verified repeat");
    assert_eq!(second.cache, fpfa_server::CacheFlavor::MappingHit);
    assert_eq!(second.digest, first.digest);
    // Frontend and transform run before the post-transform probe: with no
    // probe, no stage ran.
    let stats = scrape(&mut client);
    assert_eq!(post_lookups(&stats), before, "{}", stats.to_prometheus());
    assert_eq!(entries(&stats), (1, plain + 1, plain + 2));
    handle.shutdown();
    handle.join();
}

/// With two shards and no disk tier, a kernel mapped on one connection is
/// answered inline on a connection the other shard owns: a worker's
/// completion seeds the L0 table of every shard, not only the owner's.
#[test]
fn a_completion_seeds_the_l0_table_of_every_shard() {
    let handle = start(
        ServerConfig {
            workers: 2,
            shards: 2,
            ..ServerConfig::default()
        },
        Mapper::new(),
    );
    // The acceptor deals connections round-robin, so these two sit on
    // different shards.
    let mut first = Client::connect(handle.addr()).expect("connect first");
    let mut second = Client::connect(handle.addr()).expect("connect second");
    let cold = first
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("cold map");
    assert_eq!(cold.cache, fpfa_server::CacheFlavor::Miss);
    let accepted = metric(&handle, "serve.accepted");
    let repeat = second
        .map("k", TRIVIAL, MapKnobs::default())
        .expect("repeat on the other shard");
    assert_eq!(repeat.cache, fpfa_server::CacheFlavor::MappingHit);
    assert_eq!(repeat.digest, cold.digest);
    assert_eq!(metric(&handle, "serve.accepted"), accepted);
    let stats = handle.registry().snapshot();
    for shard in ["0", "1"] {
        assert_eq!(value(&stats, "shard.accepted", &[("shard", shard)]), 1);
    }
    let mut outcomes = map_outcomes(&second.dump().expect("dump"));
    outcomes.sort();
    assert_eq!(outcomes, ["l0", "ok"]);
    handle.shutdown();
    handle.join();
}

/// A second server over the first one's cache directory answers the
/// registry's first pass inline from the persisted summaries: the cold
/// digests, no record decoded, no job queued, and not one byte of the
/// post-transform records read.  A `verify` request needs the mapping
/// itself, so it scans the `post-` files, rebuilds the mapping from its
/// persisted post-transform record and verifies it.
#[test]
fn restarted_server_answers_from_persisted_summaries_without_decoding() {
    let dir = std::env::temp_dir().join(format!("fpfa-e2e-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let kernels = fpfa_workloads::registry();

    let first = start_with_cache_dir(&dir);
    let mut client = Client::connect(first.addr()).expect("connect");
    let cold: Vec<u64> = kernels
        .iter()
        .map(|k| {
            let summary = client
                .map(&k.name, &k.source, MapKnobs::default())
                .expect("registry kernels map");
            summary.digest
        })
        .collect();
    first.shutdown();
    first.join();
    let bytes_of = |prefix: &str| -> u64 {
        std::fs::read_dir(&dir)
            .expect("cache dir listable")
            .map(|entry| entry.expect("dir entry"))
            .filter(|entry| entry.file_name().to_string_lossy().starts_with(prefix))
            .map(|entry| entry.metadata().expect("file metadata").len())
            .sum()
    };
    let (seg_bytes, post_bytes) = (bytes_of("seg-"), bytes_of("post-"));
    assert!(post_bytes > seg_bytes, "{post_bytes} <= {seg_bytes}");

    let restarted = start_with_cache_dir(&dir);
    let mut client = Client::connect(restarted.addr()).expect("connect");
    for (kernel, digest) in kernels.iter().zip(&cold) {
        let summary = client
            .map(&kernel.name, &kernel.source, MapKnobs::default())
            .expect("warm map");
        assert_eq!(summary.digest, *digest, "digest of `{}`", kernel.name);
        assert_eq!(summary.cache, fpfa_server::CacheFlavor::MappingHit);
    }
    assert_eq!(metric(&restarted, "persist.loads"), 0);
    assert_eq!(metric(&restarted, "persist.scanned_bytes"), seg_bytes);
    assert_eq!(metric(&restarted, "serve.accepted"), 0);
    assert_eq!(
        metric(&restarted, "cache.mapping.hits"),
        kernels.len() as u64
    );

    let kernel = &kernels[0];
    let verified = client
        .map(
            &kernel.name,
            &kernel.source,
            MapKnobs {
                verify: true,
                ..MapKnobs::default()
            },
        )
        .expect("a persisted mapping verifies clean");
    assert_eq!(verified.digest, cold[0]);
    assert_eq!(verified.cache, fpfa_server::CacheFlavor::PostTransformHit);
    assert_eq!(metric(&restarted, "persist.loads"), 1);
    assert_eq!(metric(&restarted, "persist.stores"), 0);
    assert_eq!(
        metric(&restarted, "persist.scanned_bytes"),
        seg_bytes + post_bytes
    );
    assert_eq!(metric(&restarted, "serve.accepted"), 1);
    restarted.shutdown();
    restarted.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_servers_record_flight_entries_but_no_spans() {
    let handle = start(ServerConfig::default(), Mapper::new());
    let mut client = Client::connect(handle.addr()).expect("connect");
    client.map("k", TRIVIAL, MapKnobs::default()).expect("map");
    let dump = client.dump().expect("dump");
    let parsed = fpfa_obs::json::parse(&dump).expect("valid JSON");
    let top = parsed.as_object().expect("object");
    assert!(
        top.get("traces")
            .and_then(|v| v.as_array())
            .is_some_and(<[fpfa_obs::json::JsonValue]>::is_empty),
        "trace_sample=0 must not record spans: {dump}"
    );
    handle.shutdown();
    handle.join();
}
