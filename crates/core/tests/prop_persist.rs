//! Property tests for the persistent (L2) mapping-cache tier: arbitrary
//! cached mappings are rebuilt after a restart from their persisted
//! post-transform records, their persisted summaries match the mappings
//! they summarise, and arbitrary corruption — bit flips anywhere in a
//! segment, truncated tails — yields a *typed miss* that falls through to a
//! cold re-map with an identical program. Never a panic, never a wrong
//! answer.

use fpfa_core::cache::CacheOutcome;
use fpfa_core::pipeline::Mapper;
use fpfa_core::service::MappingService;
use fpfa_core::summary::{program_digest, MappingSummary};
use fpfa_workloads::straight_line_kernel;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};

/// A fresh, unique cache directory per proptest case.
fn case_dir() -> PathBuf {
    static CASE: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "fpfa-prop-persist-{}-{}",
        std::process::id(),
        CASE.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segment_files(dir: &PathBuf) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("cache dir listable")
        .filter_map(|entry| entry.ok())
        .map(|entry| entry.path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "fpfa"))
        .collect();
    files.sort();
    files
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Round trip: mappings stored by one process-lifetime are rebuilt by
    /// the next, bit-for-bit.  Then arbitrary byte flips and a truncated
    /// tail: a third lifetime still answers every kernel with the identical
    /// program — from the surviving records where the digests still verify,
    /// from a cold re-map where they do not.
    #[test]
    fn prop_persist(
        ops in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 4..16),
        tiles in 1usize..3,
        flips in prop::collection::vec((any::<u32>(), any::<u8>()), 1..6),
        chop in any::<u16>(),
    ) {
        let dir = case_dir();
        let sources = [
            straight_line_kernel(&ops),
            "void main() { int a[3]; int r; r = a[0] + a[1] * a[2]; }".to_string(),
        ];
        let mapper = || Mapper::new().with_tiles(tiles);

        // Lifetime 1: cold maps, stored through to the segment files.
        let service = MappingService::with_cache_dir(mapper(), 64, &dir).expect("open tier");
        let mut programs = Vec::new();
        for source in &sources {
            let cold = service.map_source(source).expect("random kernels map");
            prop_assert_eq!(cold.report.cache, CacheOutcome::Miss);
            programs.push((cold.program.clone(), cold.multi.clone()));
        }
        prop_assert!(service.cache().persist_stats().stores >= sources.len() as u64);
        drop(service);

        // Lifetime 2: a fresh cache over the same directory warm-starts and
        // rebuilds every kernel as a post-transform hit with the identical
        // program: frontend and transform re-run, phases 1-3 come from disk,
        // and the rebuild appends no record.  Before any load, the summary
        // level the open filled already holds each kernel's summary: the
        // summary of the rebuilt mapping, with the digest of a one-shot map.
        let service = MappingService::with_cache_dir(mapper(), 64, &dir).expect("reopen tier");
        let fingerprint = service.mapper().cache_fingerprint();
        prop_assert!(service.cache().persist_stats().warm_start_entries >= sources.len() as u64);
        let mut summaries = Vec::new();
        for (source, (program, multi)) in sources.iter().zip(&programs) {
            let Some(summary) = service.cache().summary(fingerprint, source) else {
                return Err(TestCaseError::fail("no persisted summary"));
            };
            let warm = service.map_source(source).expect("warm-started kernels map");
            prop_assert_eq!(warm.report.cache, CacheOutcome::PostTransformHit);
            prop_assert_eq!(&warm.program, program);
            prop_assert_eq!(&warm.multi, multi);
            prop_assert_eq!(summary, MappingSummary::of(&warm));
            let stages: Vec<&str> = warm.trace.timings.iter().map(|t| t.stage).collect();
            prop_assert_eq!(stages, ["frontend", "transform"]);
            let one_shot = mapper().map_source(source).expect("random kernels map");
            prop_assert_eq!(summary.digest, program_digest(&one_shot));
            summaries.push(summary);
        }
        prop_assert_eq!(service.cache().persist_stats().loads, sources.len() as u64);
        prop_assert_eq!(service.cache().persist_stats().stores, 0);
        drop(service);

        // Corruption: flip bytes at arbitrary offsets (magic, framing,
        // digests, payloads — wherever they land) and chop the tail of the
        // last segment.
        let files = segment_files(&dir);
        prop_assert!(!files.is_empty());
        for (offset, xor) in &flips {
            let target = &files[*offset as usize % files.len()];
            let mut bytes = std::fs::read(target).expect("segment readable");
            if bytes.is_empty() {
                continue;
            }
            let at = *offset as usize % bytes.len();
            bytes[at] ^= (*xor % 255) + 1; // a guaranteed-nonzero flip
            std::fs::write(target, &bytes).expect("segment writable");
        }
        let last = files.last().expect("at least one segment");
        let len = std::fs::metadata(last).expect("segment metadata").len();
        let keep = len.saturating_sub(u64::from(chop) % len.max(1));
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(last)
            .expect("segment opens for truncation");
        file.set_len(keep).expect("segment truncates");
        drop(file);

        // Lifetime 3: every corruption is a typed miss — the open never
        // fails, the lookup never panics, and every kernel still maps to
        // the identical program (warm where the record survived, cold
        // re-map where it did not).
        let service = MappingService::with_cache_dir(mapper(), 64, &dir)
            .expect("corrupt contents never fail the open");
        // The summary level the open filled answers with the true summary or
        // not at all.
        for (source, summary) in sources.iter().zip(&summaries) {
            let probed = service.cache().summary(fingerprint, source);
            prop_assert!(
                probed.is_none() || probed == Some(*summary),
                "corrupt summary served: {:?}",
                probed
            );
        }
        for (source, (program, multi)) in sources.iter().zip(&programs) {
            let result = service
                .map_source(source)
                .expect("corruption never turns into a mapping error");
            prop_assert!(matches!(
                result.report.cache,
                CacheOutcome::Miss | CacheOutcome::MappingHit | CacheOutcome::PostTransformHit
            ));
            prop_assert_eq!(&result.program, program);
            prop_assert_eq!(&result.multi, multi);
        }
        // The tier keeps serving (and re-storing) after the damage.
        let again = service.map_source(&sources[0]).expect("stable after re-map");
        prop_assert_eq!(&again.program, &programs[0].0);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
