//! The digest contract: every registry kernel maps to the program digests
//! checked into `BENCH_cold_map.json`, at 1 and 4 tiles, both cold and
//! served from a `MappingService`'s cache.  A change that moves any mapped
//! program, or lets the cache serve a different one, fails here rather than
//! only in a regenerated bench file.

use fpfa::core::pipeline::Mapper;
use fpfa::core::{program_digest, CacheOutcome, MappingService};
use fpfa_obs::json::{self, JsonValue};

const BENCH: &str = include_str!("../BENCH_cold_map.json");

/// The four digest columns of a bench row, in the order they are checked.
const COLUMNS: [&str; 4] = ["t1_cold", "t1_cached", "t4_cold", "t4_cached"];

/// `(kernel name, digests in COLUMNS order)` for every row of the bench file.
fn checked_in_digests() -> Vec<(String, [u64; 4])> {
    let doc = json::parse(BENCH).expect("BENCH_cold_map.json parses");
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
    assert_eq!(listed, names, "the bench file covers the registry in order");

    let mut actual = vec![[0u64; 4]; registry.len()];
    for (tiles, cold_column) in [(1, 0), (4, 2)] {
        let mapper = Mapper::new().with_tiles(tiles);
        let service = MappingService::new(mapper.clone());
        for (kernel, digests) in registry.iter().zip(&mut actual) {
            let cold = mapper.map_source(&kernel.source).unwrap();
            service.map_source(&kernel.source).unwrap();
            let cached = service.map_source(&kernel.source).unwrap();
            assert_eq!(cached.report.cache, CacheOutcome::MappingHit);
            digests[cold_column] = program_digest(&cold);
            digests[cold_column + 1] = program_digest(&cached);
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
        "mapped programs drifted from BENCH_cold_map.json:\n{}",
        drifted.join("\n")
    );
}
