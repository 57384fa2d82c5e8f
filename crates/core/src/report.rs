//! Summary statistics of one mapping run.

use crate::cache::CacheOutcome;
use crate::program::{AllocationStats, TileProgram};
use std::fmt;

/// Headline numbers describing a mapping (used by the experiment tables).
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MappingReport {
    /// Kernel name.
    pub kernel: String,
    /// Operations in the mapping graph (after simplification).
    pub operations: usize,
    /// Number of clusters after phase 1.
    pub clusters: usize,
    /// Critical path of the cluster graph (minimum levels with unbounded
    /// ALUs).
    pub critical_path: usize,
    /// Number of schedule levels after phase 2.
    pub levels: usize,
    /// Total clock cycles after phase 3 (including inserted load cycles).
    pub cycles: usize,
    /// Stall (pure load) cycles inserted by the allocator.
    pub stall_cycles: usize,
    /// Largest number of ALUs busy in any level.
    pub alus_used: usize,
    /// Average ALU utilisation over the whole program (0..1).
    pub alu_utilization: f64,
    /// Operand reads served from registers already holding the value.
    pub register_hits: usize,
    /// Operand reads that needed a memory-to-register move.
    pub register_misses: usize,
    /// Results written back to local memories.
    pub mem_writebacks: usize,
    /// Values routed over the crossbar.
    pub crossbar_transfers: usize,
    /// Number of tiles the mapping targets (1 for the paper's single-tile
    /// flow).
    pub tiles: usize,
    /// Values routed over the inter-tile interconnect (0 on a single tile).
    pub inter_tile_transfers: usize,
    /// Time spent in the mapping phases, in microseconds (clustering +
    /// scheduling + allocation).
    pub mapping_time_us: u128,
    /// Fixpoint rounds of the incremental minimiser (0 when simplification
    /// was skipped).
    pub transform_rounds: usize,
    /// Nodes the incremental minimiser examined across all rounds — the
    /// output-sensitivity measure reported by `--timings`.
    pub transform_visited_nodes: usize,
    /// Largest live-node count the minimiser faced at the start of a round.
    /// Loops unroll inside a round, so this is not the transform's memory
    /// high-water ([`TransformStats::arena_slots`] is).
    ///
    /// [`TransformStats::arena_slots`]: crate::flow::TransformStats::arena_slots
    pub transform_peak_graph_nodes: usize,
    /// How this mapping interacted with a [`MappingCache`]
    /// ([`CacheOutcome::Uncached`] for plain [`Mapper`] runs).
    ///
    /// [`MappingCache`]: crate::cache::MappingCache
    /// [`Mapper`]: crate::pipeline::Mapper
    pub cache: CacheOutcome,
}

impl MappingReport {
    /// `true` when the two reports describe the same mapping: every field is
    /// equal except the wall-clock (`mapping_time_us`) and the cache
    /// provenance (`cache`), which legitimately differ between a cold run
    /// and a cache hit of the *same* kernel.
    pub fn same_mapping(&self, other: &Self) -> bool {
        let normalise = |report: &MappingReport| MappingReport {
            mapping_time_us: 0,
            cache: CacheOutcome::Uncached,
            ..report.clone()
        };
        normalise(self) == normalise(other)
    }
    /// Register hit rate (`None` when no operands were read).
    pub fn register_hit_rate(&self) -> Option<f64> {
        let total = self.register_hits + self.register_misses;
        if total == 0 {
            None
        } else {
            Some(self.register_hits as f64 / total as f64)
        }
    }

    /// Fills the allocation-related fields from the allocated tile programs
    /// (one per tile, on one global timeline; a single-tile mapping passes
    /// its one program) and their aggregate counters.
    pub fn absorb_tiles(&mut self, tiles: &[TileProgram], stats: &AllocationStats) {
        let cycles = tiles.first().map_or(0, TileProgram::cycle_count);
        self.tiles = tiles.len();
        self.cycles = cycles;
        self.stall_cycles = stats.stall_cycles;
        self.alu_utilization = if tiles.is_empty() {
            0.0
        } else {
            tiles.iter().map(TileProgram::alu_utilization).sum::<f64>() / tiles.len() as f64
        };
        self.alus_used = (0..cycles)
            .map(|cycle| {
                tiles
                    .iter()
                    .map(|tile| tile.cycle(cycle).busy_alus())
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0);
        self.register_hits = stats.register_hits;
        self.register_misses = stats.register_misses;
        self.mem_writebacks = stats.mem_writebacks;
        self.crossbar_transfers = stats.crossbar_transfers;
        self.inter_tile_transfers = stats.inter_tile_transfers;
    }
}

impl fmt::Display for MappingReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{}: {} ops -> {} clusters (critical path {}) -> {} levels -> {} cycles ({} stalls)",
            self.kernel,
            self.operations,
            self.clusters,
            self.critical_path,
            self.levels,
            self.cycles,
            self.stall_cycles
        )?;
        write!(
            f,
            "  ALUs used {} (utilization {:.2}), reg hits/misses {}/{}, writebacks {}, crossbar {}",
            self.alus_used,
            self.alu_utilization,
            self.register_hits,
            self.register_misses,
            self.mem_writebacks,
            self.crossbar_transfers
        )?;
        if self.tiles > 1 {
            write!(
                f,
                "\n  tiles {} (inter-tile transfers {})",
                self.tiles, self.inter_tile_transfers
            )?;
        }
        if self.transform_visited_nodes > 0 {
            write!(
                f,
                "\n  minimiser: {} node visits over {} round(s), peak graph {} node(s)",
                self.transform_visited_nodes,
                self.transform_rounds,
                self.transform_peak_graph_nodes
            )?;
        }
        if self.cache != CacheOutcome::Uncached {
            write!(f, "\n  cache: {}", self.cache)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_and_display() {
        let report = MappingReport {
            kernel: "fir".into(),
            register_hits: 1,
            register_misses: 3,
            ..MappingReport::default()
        };
        assert!((report.register_hit_rate().unwrap() - 0.25).abs() < 1e-9);
        assert!(report.to_string().contains("fir"));
        assert_eq!(MappingReport::default().register_hit_rate(), None);
    }

    #[test]
    fn same_mapping_ignores_wall_clock_and_cache_provenance() {
        let cold = MappingReport {
            kernel: "fir".into(),
            cycles: 12,
            mapping_time_us: 840,
            cache: CacheOutcome::Miss,
            ..MappingReport::default()
        };
        let warm = MappingReport {
            mapping_time_us: 2,
            cache: CacheOutcome::MappingHit,
            ..cold.clone()
        };
        assert!(cold.same_mapping(&warm));
        let different = MappingReport {
            cycles: 13,
            ..cold.clone()
        };
        assert!(!cold.same_mapping(&different));
        // A hit's provenance shows up in the human-readable report.
        assert!(warm.to_string().contains("cache: mapping hit"));
        assert!(!MappingReport::default().to_string().contains("cache:"));
    }
}
