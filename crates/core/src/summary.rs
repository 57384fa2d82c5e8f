//! The served summary of a mapping.
//!
//! A client of the mapping service sees seven numbers per mapped kernel — a
//! structural [`program_digest`] plus the headline report figures — not the
//! mapping itself.  [`MappingSummary`] is that answer.  The serving layer
//! keeps it in each I/O shard's warm table and encodes every warm response
//! from it, and the disk tier
//! ([`crate::persist`]) stores it in place of every full mapping, so a
//! restarted service answers a persisted kernel from its summary alone.

use crate::pipeline::MappingResult;
use crate::program::TileProgram;

/// What a mapping request answers: the program digest and the headline
/// report numbers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MappingSummary {
    /// Structural digest of the mapped program ([`program_digest`]).
    pub digest: u64,
    /// Operations in the mapping graph (after simplification).
    pub operations: u64,
    /// Clusters after phase 1.
    pub clusters: u64,
    /// Schedule levels after phase 2.
    pub levels: u64,
    /// Total clock cycles after phase 3.
    pub cycles: u64,
    /// Tiles the mapping targets (at least 1).
    pub tiles: u64,
    /// Values routed over the inter-tile interconnect.
    pub inter_tile_transfers: u64,
}

impl MappingSummary {
    /// Digests a finished mapping into its served summary.
    pub fn of(result: &MappingResult) -> Self {
        let report = &result.report;
        MappingSummary {
            digest: program_digest(result),
            operations: report.operations as u64,
            clusters: report.clusters as u64,
            levels: report.levels as u64,
            cycles: report.cycles as u64,
            tiles: report.tiles.max(1) as u64,
            inter_tile_transfers: report.inter_tile_transfers as u64,
        }
    }
}

/// FNV-1a, the classic dependency-free stable hash: unlike
/// `DefaultHasher`, its output is fixed by its definition, identical across
/// processes and toolchains, so a digest computed by the daemon can be
/// compared against one computed by a test or a client on the other side of
/// the wire, and a fingerprint stored on disk still matches after an upgrade.
pub(crate) struct Fnv(u64);

impl Fnv {
    pub(crate) fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// The hash of everything written so far.
    pub(crate) fn finish(&self) -> u64 {
        self.0
    }

    pub(crate) fn byte(&mut self, byte: u8) {
        self.0 ^= u64::from(byte);
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }

    fn u64(&mut self, value: u64) {
        for byte in value.to_le_bytes() {
            self.byte(byte);
        }
    }

    pub(crate) fn usize(&mut self, value: usize) {
        self.u64(value as u64);
    }

    fn str(&mut self, value: &str) {
        self.usize(value.len());
        for byte in value.as_bytes() {
            self.byte(*byte);
        }
    }
}

/// A stable structural digest of a mapped program: the headline report
/// numbers, the per-cycle occupancy pattern of every tile, and the scalar
/// output names.  Equal digests mean the server handed out the same mapping
/// — the cheap cross-process identity check used by the end-to-end tests
/// and the load generator (building the full listing per request would cost
/// more than a warm cache hit itself).
pub fn program_digest(result: &MappingResult) -> u64 {
    let mut fnv = Fnv::new();
    let report = &result.report;
    for value in [
        report.operations,
        report.clusters,
        report.levels,
        report.cycles,
        report.stall_cycles,
        report.alus_used,
        report.register_hits,
        report.register_misses,
        report.mem_writebacks,
        report.crossbar_transfers,
        report.tiles.max(1),
        report.inter_tile_transfers,
    ] {
        fnv.usize(value);
    }
    let mut digest_tile = |program: &TileProgram| {
        fnv.usize(program.cycle_count());
        for cycle in program.cycles() {
            fnv.usize(cycle.alus.len());
            fnv.usize(cycle.moves.len());
            fnv.usize(cycle.writebacks.len());
        }
    };
    match &result.multi {
        Some(multi) => {
            for tile in &multi.program.tiles {
                digest_tile(tile);
            }
            fnv.usize(multi.program.transfers.len());
            for (name, (tile, _)) in multi.program.scalar_outputs.iter() {
                fnv.str(name);
                fnv.usize(tile);
            }
        }
        None => {
            digest_tile(&result.program);
            for (name, _) in result.program.scalar_outputs.iter() {
                fnv.str(name);
            }
        }
    }
    fnv.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Mapper;

    #[test]
    fn digest_distinguishes_programs() {
        let mapper = Mapper::new();
        let fir = mapper
            .map_source(
                "void main() { int a[4]; int c[4]; int s; int i; s = 0; i = 0;
                  while (i < 4) { s = s + a[i] * c[i]; i = i + 1; } }",
            )
            .unwrap();
        let other = mapper
            .map_source("void main() { int a[2]; int r; r = a[0] + a[1]; }")
            .unwrap();
        assert_eq!(program_digest(&fir), program_digest(&fir));
        assert_ne!(program_digest(&fir), program_digest(&other));
        let summary = MappingSummary::of(&fir);
        assert_eq!(summary.digest, program_digest(&fir));
        assert_eq!(summary.cycles, fir.report.cycles as u64);
        assert_eq!(summary.tiles, 1);
    }
}
