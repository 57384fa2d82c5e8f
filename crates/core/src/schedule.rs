//! Phase 2: scheduling clusters level by level onto the physical ALUs.
//!
//! "In the scheduling phase, the graph obtained from the clustering phase is
//! scheduled according to the maximum number of ALUs (in our case 5). This
//! means that at most 5 clusters can be on the same level. [...] The clusters
//! that do not belong to any critical path can be moved up and down within
//! the range where the dependence relations among the tasks are satisfied.
//! Here we adopt a heuristic procedure in which the clusters are scheduled
//! level by level. The complexity is thus linear to the number of clusters."
//! (Section VI-B, Fig. 4)
//!
//! The placement loop is [`MultiScheduler`], which schedules a tile array of
//! any size; the paper's single tile is an array of one. [`Scheduler`] is the
//! one-tile entry point the experiment binaries and examples call, and this
//! module keeps the [`Schedule`] type and the level bookkeeping both share.

use crate::cluster::{ClusterId, ClusteredGraph};
use crate::error::MapError;
use crate::multi::MultiScheduler;
use crate::partition::TileAssignment;
use std::collections::HashMap;
use std::fmt;

/// The level-by-level schedule of a clustered graph.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Schedule {
    levels: Vec<Vec<ClusterId>>,
    /// `level_of[c]` = level of cluster `c`, [`UNPLACED`] for a cluster the
    /// schedule does not hold (another tile's, in an array schedule).
    level_of: Vec<u32>,
}

/// The `level_of` entry of a cluster the schedule does not place.
const UNPLACED: u32 = u32::MAX;

impl Schedule {
    /// Number of levels (machine cycles of ALU work before allocation).
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Clusters scheduled at `level`.
    pub fn level(&self, level: usize) -> &[ClusterId] {
        self.levels.get(level).map(Vec::as_slice).unwrap_or(&[])
    }

    /// All levels in order.
    pub fn levels(&self) -> &[Vec<ClusterId>] {
        &self.levels
    }

    /// The level a cluster was scheduled at.
    pub fn level_of(&self, cluster: ClusterId) -> Option<usize> {
        match self.level_of.get(cluster.index()) {
            Some(&level) if level != UNPLACED => Some(level as usize),
            _ => None,
        }
    }

    /// Records that `cluster` sits at `level`.
    fn set_level(&mut self, cluster: ClusterId, level: usize) {
        if cluster.index() >= self.level_of.len() {
            self.level_of.resize(cluster.index() + 1, UNPLACED);
        }
        self.level_of[cluster.index()] =
            u32::try_from(level).expect("a schedule with fewer than 2^32 levels");
    }

    /// The largest number of clusters sharing one level.
    pub fn max_parallelism(&self) -> usize {
        self.levels.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Places a cluster at a level, growing the level list as needed (used
    /// by the scheduler to build per-tile schedules on a shared global level
    /// timeline).
    pub(crate) fn place(&mut self, cluster: ClusterId, level: usize) {
        if level >= self.levels.len() {
            self.levels.resize(level + 1, Vec::new());
        }
        self.levels[level].push(cluster);
        self.set_level(cluster, level);
    }

    /// Grows the level list to `count` levels (trailing levels stay empty) so
    /// every per-tile schedule of an array spans the same timeline.
    pub(crate) fn pad_levels(&mut self, count: usize) {
        if self.levels.len() < count {
            self.levels.resize(count, Vec::new());
        }
    }

    /// Swaps the contents of two levels wholesale.
    ///
    /// This deliberately produces an *illegal* schedule whenever a dependence
    /// crosses the two levels; it exists so mutation harnesses (such as the
    /// `fpfa-verify` kill suite) can seed known-bad schedules. The flow never
    /// calls it. Out-of-range or equal indices are a no-op.
    pub fn swap_levels(&mut self, a: usize, b: usize) {
        if a == b || a >= self.levels.len() || b >= self.levels.len() {
            return;
        }
        self.levels.swap(a, b);
        for level in [a, b] {
            for index in 0..self.levels[level].len() {
                self.set_level(self.levels[level][index], level);
            }
        }
    }

    /// Moves one cluster to the given level, growing the level list as
    /// needed.
    ///
    /// Like [`Schedule::swap_levels`] this is a mutation-harness hook: it
    /// happily oversubscribes a level or breaks dependence ordering, which is
    /// exactly what a verifier kill suite needs to seed. The flow never calls
    /// it.
    pub fn move_cluster(&mut self, cluster: ClusterId, level: usize) {
        if let Some(old) = self.level_of(cluster) {
            self.levels[old].retain(|c| *c != cluster);
        }
        if level >= self.levels.len() {
            self.levels.resize(level + 1, Vec::new());
        }
        self.levels[level].push(cluster);
        self.set_level(cluster, level);
    }

    /// Average number of busy ALUs per level.
    pub fn average_parallelism(&self) -> f64 {
        if self.levels.is_empty() {
            return 0.0;
        }
        let total: usize = self.levels.iter().map(Vec::len).sum();
        total as f64 / self.levels.len() as f64
    }
}

impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, level) in self.levels.iter().enumerate() {
            let names: Vec<String> = level.iter().map(|c| c.to_string()).collect();
            writeln!(f, "level {i}: {}", names.join(" "))?;
        }
        Ok(())
    }
}

/// The level scheduler of one tile.
#[derive(Clone, Copy, Debug)]
pub struct Scheduler {
    /// Number of physical ALUs (5 on the paper's tile).
    pub num_alus: usize,
}

impl Scheduler {
    /// Creates a scheduler for a tile with `num_alus` processing parts.
    pub fn new(num_alus: usize) -> Self {
        Scheduler { num_alus }
    }

    /// Schedules the clustered graph level by level on one tile: the array
    /// scheduler ([`MultiScheduler`]) on a one-tile array, so the paper's
    /// tile and a tile array share one placement loop.
    ///
    /// # Errors
    /// [`MapError::AllocationFailed`] when `num_alus` is zero.
    pub fn schedule(&self, clustered: &ClusteredGraph) -> Result<Schedule, MapError> {
        let one_tile = TileAssignment::single_tile(clustered.len());
        let array = MultiScheduler::new(self.num_alus, 0).schedule(clustered, &one_tile)?;
        Ok(array.tile(0).clone())
    }
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(5)
    }
}

/// Returns the first possibly-free level at or after `from`, compressing the
/// skip pointers along the way.
pub(crate) fn find_free_level(next_free: &mut Vec<usize>, from: usize) -> usize {
    if from >= next_free.len() {
        next_free.extend(next_free.len()..=from);
    }
    // Follow the skip chain.
    let mut level = from;
    let mut path = Vec::new();
    while next_free[level] != level {
        path.push(level);
        level = next_free[level];
        if level >= next_free.len() {
            next_free.extend(next_free.len()..=level);
        }
    }
    // Path compression.
    for visited in path {
        next_free[visited] = level;
    }
    level
}

/// Marks `level` as full so that future searches resolve to `level + 1`.
pub(crate) fn mark_full(next_free: &mut Vec<usize>, level: usize) {
    if level + 1 >= next_free.len() {
        next_free.extend(next_free.len()..=level + 1);
    }
    next_free[level] = level + 1;
}

pub(crate) fn asap_levels(
    clustered: &ClusteredGraph,
    order: &[ClusterId],
) -> HashMap<ClusterId, usize> {
    let mut asap = HashMap::new();
    for &id in order {
        let level = clustered
            .predecessors(id)
            .iter()
            .map(|p| asap.get(p).copied().unwrap_or(0) + 1)
            .max()
            .unwrap_or(0);
        asap.insert(id, level);
    }
    asap
}

pub(crate) fn alap_levels(
    clustered: &ClusteredGraph,
    order: &[ClusterId],
) -> HashMap<ClusterId, usize> {
    let depth = clustered.critical_path();
    let mut height = HashMap::new();
    for &id in order.iter().rev() {
        let h = clustered
            .successors(id)
            .iter()
            .map(|s| height.get(s).copied().unwrap_or(0) + 1)
            .max()
            .unwrap_or(0);
        height.insert(id, h);
    }
    order
        .iter()
        .map(|id| (*id, depth.saturating_sub(1).saturating_sub(height[id])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clusterer;
    use crate::dfg::MappingGraph;
    use fpfa_transform::WorklistDriver;

    fn clustered_fir(taps: usize) -> (MappingGraph, ClusteredGraph) {
        let src = format!(
            r#"
            void main() {{
                int a[{taps}];
                int c[{taps}];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < {taps}) {{ sum = sum + a[i] * c[i]; i = i + 1; }}
            }}
            "#
        );
        let program = fpfa_frontend::compile(&src).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        let clustered = Clusterer::default().cluster(&m).unwrap();
        (m, clustered)
    }

    #[test]
    fn dependences_are_respected() {
        let (_, clustered) = clustered_fir(8);
        let schedule = Scheduler::new(5).schedule(&clustered).unwrap();
        for id in clustered.ids() {
            let level = schedule.level_of(id).unwrap();
            for pred in clustered.predecessors(id) {
                assert!(schedule.level_of(*pred).unwrap() < level);
            }
        }
    }

    #[test]
    fn no_level_exceeds_the_alu_count() {
        for alus in [1usize, 2, 5] {
            let (_, clustered) = clustered_fir(12);
            let schedule = Scheduler::new(alus).schedule(&clustered).unwrap();
            assert!(schedule.max_parallelism() <= alus);
            // Every cluster is scheduled exactly once.
            let total: usize = schedule.levels().iter().map(Vec::len).sum();
            assert_eq!(total, clustered.len());
        }
    }

    #[test]
    fn schedule_length_is_bounded_below_by_critical_path() {
        let (_, clustered) = clustered_fir(10);
        let schedule = Scheduler::new(5).schedule(&clustered).unwrap();
        assert!(schedule.level_count() >= clustered.critical_path());
    }

    #[test]
    fn fewer_alus_never_shorten_the_schedule() {
        let (_, clustered) = clustered_fir(16);
        let with_one = Scheduler::new(1).schedule(&clustered).unwrap();
        let with_five = Scheduler::new(5).schedule(&clustered).unwrap();
        assert!(with_one.level_count() >= with_five.level_count());
        // A single ALU serialises everything.
        assert_eq!(with_one.level_count(), clustered.len());
    }

    #[test]
    fn zero_alus_is_rejected() {
        let (_, clustered) = clustered_fir(4);
        assert!(matches!(
            Scheduler::new(0).schedule(&clustered),
            Err(MapError::AllocationFailed { .. })
        ));
    }

    #[test]
    fn display_lists_levels() {
        let (_, clustered) = clustered_fir(4);
        let schedule = Scheduler::new(5).schedule(&clustered).unwrap();
        let text = schedule.to_string();
        assert!(text.contains("level 0:"));
        assert!(schedule.average_parallelism() > 0.0);
    }
}
