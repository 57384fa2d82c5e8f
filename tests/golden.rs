//! The golden contract.
//!
//! Every registry kernel maps to the program digests checked into
//! `GOLDEN.json`, at 1 and 4 tiles, both cold and served from a
//! `MappingService`'s cache.  A change that moves any mapped program, or
//! lets the cache serve a different one, fails here.  A change that moves a
//! digest on purpose edits `GOLDEN.json` and says why.
//!
//! [`program_digest`] hashes only per-cycle counts, so two more columns pin
//! the bytes: the FNV-1a hash of each cold mapping's encoded post-transform
//! record.  They see a wrong register, address or operand, and they show
//! that records already written to a cache directory still decode to the
//! same mapping.  Decoding a record and encoding it again gives back the
//! same bytes.
//!
//! In release builds the same registry must also map cold within the
//! per-kernel wall-clock budget.

use fpfa::core::cache::PostTransformArtifacts;
use fpfa::core::codec::{decode_post_transform, encode_post_transform};
use fpfa::core::pipeline::{Mapper, MappingResult};
use fpfa::core::{program_digest, CacheOutcome, MappingService};
use fpfa_obs::json::{self, JsonValue};

const GOLDEN: &str = include_str!("../GOLDEN.json");

/// The digest columns of a golden row, in the order they are checked: the
/// program digests, then the record digests.
const COLUMNS: [&str; 6] = [
    "t1_cold",
    "t1_cached",
    "t4_cold",
    "t4_cached",
    "t1_record",
    "t4_record",
];

/// FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// The digest of a mapping's encoded post-transform record, after checking
/// that the record decodes and re-encodes to the same bytes.
fn record_digest(name: &str, mapping: &MappingResult) -> u64 {
    let record = encode_post_transform(&PostTransformArtifacts::of(mapping));
    let decoded = decode_post_transform(&record).expect("a fresh record decodes");
    assert!(
        encode_post_transform(&decoded) == record,
        "{name}: decoding then re-encoding the record changed its bytes"
    );
    fnv1a(&record)
}

/// `(kernel name, digests in COLUMNS order)` for every row of the golden file.
fn checked_in_digests() -> Vec<(String, [u64; 6])> {
    let doc = json::parse(GOLDEN).expect("GOLDEN.json parses");
    let rows = doc
        .as_object()
        .and_then(|top| top.get("kernels"))
        .and_then(JsonValue::as_array)
        .expect("a `kernels` array");
    rows.iter()
        .map(|row| {
            let row = row.as_object().expect("kernel rows are objects");
            let name = row["name"].as_str().expect("a kernel name");
            let digests = row["digests"].as_object().expect("a digests object");
            let digest = |column: &str| {
                let text = digests[column].as_str().expect("digests are strings");
                let hex = text.strip_prefix("0x").expect("digests start with 0x");
                u64::from_str_radix(hex, 16).expect("digests are hex")
            };
            (name.to_string(), COLUMNS.map(digest))
        })
        .collect()
}

#[test]
fn registry_kernels_map_to_the_checked_in_digests() {
    let expected = checked_in_digests();
    let registry = fpfa::workloads::registry();
    let names: Vec<&str> = registry.iter().map(|kernel| kernel.name.as_str()).collect();
    let listed: Vec<&str> = expected.iter().map(|(name, _)| name.as_str()).collect();
    assert_eq!(
        listed, names,
        "the golden file covers the registry in order"
    );

    let mut actual = vec![[0u64; 6]; registry.len()];
    for (tiles, cold_column, record_column) in [(1, 0, 4), (4, 2, 5)] {
        let mapper = Mapper::new().with_tiles(tiles);
        let service = MappingService::new(mapper.clone());
        for (kernel, digests) in registry.iter().zip(&mut actual) {
            let cold = mapper.map_source(&kernel.source).unwrap();
            service.map_source(&kernel.source).unwrap();
            let cached = service.map_source(&kernel.source).unwrap();
            assert_eq!(cached.report.cache, CacheOutcome::MappingHit);
            digests[cold_column] = program_digest(&cold);
            digests[cold_column + 1] = program_digest(&cached);
            digests[record_column] = record_digest(&kernel.name, &cold);
        }
    }

    let mut drifted = Vec::new();
    for ((name, want), got) in expected.iter().zip(&actual) {
        for (column, (want, got)) in COLUMNS.iter().zip(want.iter().zip(got)) {
            if want != got {
                drifted.push(format!(
                    "{name} {column}: {got:#018x}, expected {want:#018x}"
                ));
            }
        }
    }
    assert!(
        drifted.is_empty(),
        "mapped programs drifted from GOLDEN.json:\n{}",
        drifted.join("\n")
    );
}

/// The cold single-kernel budget.
const BUDGET_MS: f64 = 10.0;
/// The test fails when the slowest kernel exceeds the budget by this factor.
const BUDGET_SLACK: f64 = 1.2;
/// Cold maps per kernel; a kernel's time is its fastest, to damp scheduler
/// noise.
const REPEATS: usize = 3;
/// Every registry kernel maps cold at 1 tile, through a fresh `Mapper`,
/// within `BUDGET_MS × BUDGET_SLACK`.  A run's time is the total wall of its
/// trace, the sum of its seven stage walls, and the same kernel must map to
/// the same digest on every run.
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a wall-clock budget only holds for release builds"
)]
fn registry_cold_maps_fit_the_budget() {
    let registry = fpfa::workloads::registry();
    let map_cold = |source: &str| Mapper::new().with_tiles(1).map_source(source).unwrap();
    // One throwaway mapping warms the process (page faults, lazy allocator
    // state), so the first measured kernel is not penalised.
    map_cold(&registry[0].source);

    let mut times = Vec::with_capacity(registry.len());
    for kernel in &registry {
        let mut best_ms = f64::INFINITY;
        let mut digests = Vec::with_capacity(REPEATS);
        for _ in 0..REPEATS {
            let mapping = map_cold(&kernel.source);
            digests.push(program_digest(&mapping));
            best_ms = best_ms.min(mapping.trace.total_wall().as_secs_f64() * 1e3);
        }
        assert!(
            digests.iter().all(|&digest| digest == digests[0]),
            "{}: the cold digest differs between runs: {digests:#x?}",
            kernel.name
        );
        times.push((kernel.name.as_str(), best_ms));
    }

    let worst = times.iter().map(|&(_, ms)| ms).fold(0.0_f64, f64::max);
    let table: Vec<String> = times
        .iter()
        .map(|(name, ms)| format!("{name:<12} {ms:7.2} ms"))
        .collect();
    assert!(
        worst <= BUDGET_MS * BUDGET_SLACK,
        "the slowest cold map took {worst:.2} ms, over the {BUDGET_MS} ms budget by more \
         than {:.0}% (best of {REPEATS}):\n{}",
        (BUDGET_SLACK - 1.0) * 100.0,
        table.join("\n")
    );
}
