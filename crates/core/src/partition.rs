//! Inter-tile partitioning: split the clustered graph across an FPFA tile
//! array.
//!
//! The paper maps one kernel onto one tile; the architecture it targets is an
//! array of tiles behind an inter-tile interconnect whose transfers are
//! slower and more expensive than the intra-tile crossbar. The partitioner
//! therefore solves a classic bounded-load edge-cut problem over the cluster
//! graph:
//!
//! 1. **Greedy seeding** — clusters are visited in topological order and
//!    placed on the tile with the highest *locality score* (number of
//!    dataflow edges from clusters already on that tile), tempered by a load
//!    penalty so no tile collects much more than its share of operations.
//! 2. **Kernighan–Lin-style refinement** — single-cluster moves and
//!    cluster-pair swaps between tiles are applied as long as they reduce the
//!    number of values crossing tile boundaries without violating the load
//!    bound.
//!
//! The unit of traffic is one *transfer*: a value produced on one tile and
//! consumed by at least one cluster on another tile counts once per
//! `(value, consuming tile)` pair — exactly the entries of the
//! [`TrafficReport`](crate::multi::TrafficReport) and the words the
//! interconnect must move.

use crate::cluster::{ClusterId, ClusteredGraph};
use crate::dfg::{MappingGraph, OpId, ValueRef};
use crate::error::MapError;
use fpfa_arch::TileId;
use std::collections::HashMap;

/// One value crossing a tile boundary: produced on `from`, consumed by at
/// least one cluster on `to`.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct CutEdge {
    /// The operation whose result crosses the boundary.
    pub op: OpId,
    /// The tile that produces the value.
    pub from: TileId,
    /// The tile that consumes the value.
    pub to: TileId,
}

/// The result of partitioning: one tile per cluster.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TileAssignment {
    tiles: Vec<TileId>,
    num_tiles: usize,
}

impl TileAssignment {
    /// Rebuilds an assignment from its serialized parts (the binary codec's
    /// decode path).
    pub(crate) fn from_parts(tiles: Vec<TileId>, num_tiles: usize) -> Self {
        TileAssignment { tiles, num_tiles }
    }

    /// The per-cluster tile assignments, indexed by cluster id (the binary
    /// codec's encode path).
    pub(crate) fn tiles(&self) -> &[TileId] {
        &self.tiles
    }

    /// The trivial assignment placing every cluster on tile 0.
    pub fn single_tile(cluster_count: usize) -> Self {
        TileAssignment {
            tiles: vec![0; cluster_count],
            num_tiles: 1,
        }
    }

    /// Number of tiles the assignment targets.
    pub fn num_tiles(&self) -> usize {
        self.num_tiles
    }

    /// Number of clusters assigned.
    pub fn len(&self) -> usize {
        self.tiles.len()
    }

    /// `true` when no clusters were assigned (empty kernels).
    pub fn is_empty(&self) -> bool {
        self.tiles.is_empty()
    }

    /// The tile a cluster was assigned to.
    ///
    /// # Panics
    /// Panics when the cluster id does not belong to the partitioned graph.
    pub fn tile_of(&self, cluster: ClusterId) -> TileId {
        self.tiles[cluster.index()]
    }

    /// The clusters placed on one tile, in id order.
    pub fn clusters_on(&self, tile: TileId) -> Vec<ClusterId> {
        self.tiles
            .iter()
            .enumerate()
            .filter(|(_, t)| **t == tile)
            .map(|(i, _)| ClusterId(i as u32))
            .collect()
    }

    /// Number of tiles that actually received at least one cluster.
    pub fn tiles_used(&self) -> usize {
        let mut used = vec![false; self.num_tiles];
        for &t in &self.tiles {
            used[t] = true;
        }
        used.iter().filter(|u| **u).count()
    }

    /// Every value crossing a tile boundary, once per `(value, consuming
    /// tile)` pair, sorted for deterministic reporting.
    pub fn cut_edges(&self, graph: &MappingGraph, clustered: &ClusteredGraph) -> Vec<CutEdge> {
        let mut edges = Vec::new();
        for id in graph.op_ids() {
            let consumer_tile = self.tile_of(clustered.owner_of(id));
            for input in graph.op(id).inputs {
                if let ValueRef::Op(producer) = input {
                    let producer_tile = self.tile_of(clustered.owner_of(*producer));
                    if producer_tile != consumer_tile {
                        edges.push(CutEdge {
                            op: *producer,
                            from: producer_tile,
                            to: consumer_tile,
                        });
                    }
                }
            }
        }
        edges.sort_unstable();
        edges.dedup();
        edges
    }

    /// Number of inter-tile transfers implied by the assignment (the length
    /// of [`TileAssignment::cut_edges`]).
    pub fn cut_size(&self, graph: &MappingGraph, clustered: &ClusteredGraph) -> usize {
        self.cut_edges(graph, clustered).len()
    }
}

/// The inter-tile partitioning engine.
#[derive(Clone, Copy, Debug)]
pub struct Partitioner {
    num_tiles: usize,
    /// Maximum number of refinement passes (each pass tries every move and
    /// every swap once).
    refinement_passes: usize,
    /// Load slack: a tile may hold up to `ceil(total / num_tiles) * slack`
    /// operations (never less than the largest single cluster).
    balance_slack: f64,
}

impl Partitioner {
    /// Creates a partitioner targeting `num_tiles` tiles.
    pub fn new(num_tiles: usize) -> Self {
        Partitioner {
            num_tiles: num_tiles.max(1),
            refinement_passes: 8,
            balance_slack: 1.2,
        }
    }

    /// Overrides the refinement-pass budget (0 disables refinement).
    pub fn with_refinement_passes(mut self, passes: usize) -> Self {
        self.refinement_passes = passes;
        self
    }

    /// Partitions a clustered graph across the tiles.
    ///
    /// # Errors
    /// Currently infallible for well-formed inputs; returns a
    /// [`MapError`] to keep room for capacity checks.
    pub fn partition(
        &self,
        graph: &MappingGraph,
        clustered: &ClusteredGraph,
    ) -> Result<TileAssignment, MapError> {
        if self.num_tiles == 1 || clustered.len() <= 1 {
            let mut assignment = TileAssignment::single_tile(clustered.len());
            assignment.num_tiles = self.num_tiles;
            return Ok(assignment);
        }

        let weights: Vec<usize> = clustered
            .ids()
            .map(|id| clustered.cluster(id).len())
            .collect();
        let total: usize = weights.iter().sum();
        let cap = self.load_cap(total, &weights);

        let mut state = CutState::new(graph, clustered, self.num_tiles);

        // --- Greedy seeding in topological order --------------------------
        for cluster in clustered.topo_order() {
            let weight = weights[cluster.index()];
            let mut best: Option<(i64, TileId)> = None;
            for tile in 0..self.num_tiles {
                if state.load[tile] + weight > cap {
                    continue;
                }
                // Locality: one point per predecessor cluster already on the
                // tile; load penalty keeps the seed roughly balanced.
                let affinity = clustered
                    .predecessors(cluster)
                    .iter()
                    .filter(|p| state.tile_of[p.index()] == Some(tile))
                    .count() as i64;
                let score = affinity * 4 - state.load[tile] as i64;
                if best.map(|(s, _)| score > s).unwrap_or(true) {
                    best = Some((score, tile));
                }
            }
            // Every tile at the cap: fall back to the least loaded one.
            let tile = best.map(|(_, t)| t).unwrap_or_else(|| {
                (0..self.num_tiles)
                    .min_by_key(|t| state.load[*t])
                    .unwrap_or(0)
            });
            state.place(cluster, tile, weight);
        }

        // --- Kernighan–Lin-style refinement -------------------------------
        for _ in 0..self.refinement_passes {
            let mut improved = false;
            // Single-cluster moves (Fiduccia–Mattheyses flavour).
            for cluster in clustered.ids() {
                let weight = weights[cluster.index()];
                let from = state.tile_of[cluster.index()].expect("seeded");
                let mut best: Option<(i64, TileId)> = None;
                for to in 0..self.num_tiles {
                    if to == from || state.load[to] + weight > cap {
                        continue;
                    }
                    let gain = state.move_gain(cluster, to);
                    if gain > 0 && best.map(|(g, _)| gain > g).unwrap_or(true) {
                        best = Some((gain, to));
                    }
                }
                if let Some((_, to)) = best {
                    state.apply_move(cluster, to, weight);
                    improved = true;
                }
            }
            // Pair swaps: catch the moves a load bound blocks one-way.
            for a in clustered.ids() {
                for b in clustered.ids() {
                    if b.index() <= a.index() {
                        continue;
                    }
                    let (ta, tb) = (
                        state.tile_of[a.index()].expect("seeded"),
                        state.tile_of[b.index()].expect("seeded"),
                    );
                    if ta == tb {
                        continue;
                    }
                    let (wa, wb) = (weights[a.index()], weights[b.index()]);
                    if state.load[tb] - wb + wa > cap || state.load[ta] - wa + wb > cap {
                        continue;
                    }
                    let gain = state.swap_gain(a, b);
                    if gain > 0 {
                        state.apply_move(a, tb, wa);
                        state.apply_move(b, ta, wb);
                        improved = true;
                    }
                }
            }
            if !improved {
                break;
            }
        }

        let tiles = state
            .tile_of
            .iter()
            .map(|t| t.expect("every cluster placed"))
            .collect();
        Ok(TileAssignment {
            tiles,
            num_tiles: self.num_tiles,
        })
    }

    fn load_cap(&self, total: usize, weights: &[usize]) -> usize {
        let target = total.div_ceil(self.num_tiles);
        let slacked = ((target as f64) * self.balance_slack).ceil() as usize;
        slacked
            .max(weights.iter().copied().max().unwrap_or(0))
            .max(1)
    }
}

/// Incremental bookkeeping of the cut while clusters move between tiles.
///
/// The cut is the number of `(value, consuming tile)` pairs whose producer
/// sits on a different tile; `consumers[v][t]` counts the clusters on tile
/// `t` consuming value `v`, so move/swap gains are O(incident edges).
struct CutState<'a> {
    graph: &'a MappingGraph,
    clustered: &'a ClusteredGraph,
    num_tiles: usize,
    tile_of: Vec<Option<TileId>>,
    load: Vec<usize>,
    /// Per produced value: number of consuming clusters on every tile.
    consumers: HashMap<OpId, Vec<usize>>,
    /// Per cluster: distinct externally produced values it consumes.
    consumed_by: Vec<Vec<OpId>>,
    /// Per cluster: distinct values it produces that other clusters consume.
    produced_by: Vec<Vec<OpId>>,
}

impl<'a> CutState<'a> {
    fn new(graph: &'a MappingGraph, clustered: &'a ClusteredGraph, num_tiles: usize) -> Self {
        let n = clustered.len();
        let mut consumed_by: Vec<Vec<OpId>> = vec![Vec::new(); n];
        let mut produced_by: Vec<Vec<OpId>> = vec![Vec::new(); n];
        for id in graph.op_ids() {
            let consumer = clustered.owner_of(id);
            for input in graph.op(id).inputs {
                if let ValueRef::Op(producer) = input {
                    let owner = clustered.owner_of(*producer);
                    if owner != consumer {
                        let list = &mut consumed_by[consumer.index()];
                        if !list.contains(producer) {
                            list.push(*producer);
                        }
                        let out = &mut produced_by[owner.index()];
                        if !out.contains(producer) {
                            out.push(*producer);
                        }
                    }
                }
            }
        }
        CutState {
            graph,
            clustered,
            num_tiles,
            tile_of: vec![None; n],
            load: vec![0; num_tiles],
            consumers: HashMap::new(),
            consumed_by,
            produced_by,
        }
    }

    /// Seeds a cluster on a tile (no prior placement).
    fn place(&mut self, cluster: ClusterId, tile: TileId, weight: usize) {
        self.tile_of[cluster.index()] = Some(tile);
        self.load[tile] += weight;
        let num_tiles = self.num_tiles;
        for value in &self.consumed_by[cluster.index()] {
            self.consumers
                .entry(*value)
                .or_insert_with(|| vec![0; num_tiles])[tile] += 1;
        }
    }

    fn producer_tile(&self, value: OpId) -> TileId {
        self.tile_of[self.clustered.owner_of(value).index()].expect("producer placed")
    }

    /// Cut contribution of one value given a producer tile: one transfer per
    /// consuming tile other than the producer's.
    fn value_cost(&self, value: OpId, producer_tile: TileId) -> i64 {
        let Some(counts) = self.consumers.get(&value) else {
            return 0;
        };
        counts
            .iter()
            .enumerate()
            .filter(|(tile, count)| **count > 0 && *tile != producer_tile)
            .count() as i64
    }

    /// Gain (cut reduction) of moving `cluster` to `to`.
    fn move_gain(&mut self, cluster: ClusterId, to: TileId) -> i64 {
        let from = self.tile_of[cluster.index()].expect("placed");
        let before = self.local_cost(cluster);
        self.shift(cluster, from, to);
        let after = self.local_cost(cluster);
        self.shift(cluster, to, from);
        before - after
    }

    /// Gain of swapping two clusters on different tiles.
    fn swap_gain(&mut self, a: ClusterId, b: ClusterId) -> i64 {
        let ta = self.tile_of[a.index()].expect("placed");
        let tb = self.tile_of[b.index()].expect("placed");
        let before = self.local_cost(a) + self.local_cost(b);
        self.shift(a, ta, tb);
        self.shift(b, tb, ta);
        let after = self.local_cost(a) + self.local_cost(b);
        self.shift(a, tb, ta);
        self.shift(b, ta, tb);
        before - after
    }

    /// Cut contribution of every value incident to `cluster` (consumed or
    /// produced by it) under the current placement.
    fn local_cost(&self, cluster: ClusterId) -> i64 {
        let mut cost = 0;
        for value in &self.consumed_by[cluster.index()] {
            cost += self.value_cost(*value, self.producer_tile(*value));
        }
        for value in &self.produced_by[cluster.index()] {
            // Avoid double counting values both produced and consumed here
            // (impossible: a cluster never externally consumes its own op).
            cost += self.value_cost(*value, self.producer_tile(*value));
        }
        cost
    }

    /// Moves the consumer counts and placement of `cluster` from one tile to
    /// another without touching loads (used for tentative gain evaluation).
    fn shift(&mut self, cluster: ClusterId, from: TileId, to: TileId) {
        for value in &self.consumed_by[cluster.index()] {
            let counts = self.consumers.get_mut(value).expect("seeded");
            counts[from] -= 1;
            counts[to] += 1;
        }
        self.tile_of[cluster.index()] = Some(to);
    }

    /// Commits a move, updating the loads.
    fn apply_move(&mut self, cluster: ClusterId, to: TileId, weight: usize) {
        let from = self.tile_of[cluster.index()].expect("placed");
        self.shift(cluster, from, to);
        self.load[from] -= weight;
        self.load[to] += weight;
        // Silence the "field is never read" pattern: graph is kept for
        // future capacity checks on op kinds.
        let _ = self.graph;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Clusterer;
    use fpfa_transform::WorklistDriver;
    use std::collections::HashSet;

    fn clustered_kernel(src: &str) -> (MappingGraph, ClusteredGraph) {
        let program = fpfa_frontend::compile(src).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        let clustered = Clusterer::default().cluster(&m).unwrap();
        (m, clustered)
    }

    fn fir(taps: usize) -> (MappingGraph, ClusteredGraph) {
        clustered_kernel(&format!(
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
        ))
    }

    #[test]
    fn every_cluster_is_assigned_exactly_one_tile() {
        let (m, clustered) = fir(16);
        let assignment = Partitioner::new(4).partition(&m, &clustered).unwrap();
        assert_eq!(assignment.len(), clustered.len());
        for id in clustered.ids() {
            assert!(assignment.tile_of(id) < 4);
        }
        // clusters_on() partitions the id space.
        let mut seen = HashSet::new();
        for tile in 0..4 {
            for cluster in assignment.clusters_on(tile) {
                assert!(seen.insert(cluster), "{cluster} on two tiles");
                assert_eq!(assignment.tile_of(cluster), tile);
            }
        }
        assert_eq!(seen.len(), clustered.len());
    }

    #[test]
    fn single_tile_assignment_has_no_cut() {
        let (m, clustered) = fir(8);
        let assignment = Partitioner::new(1).partition(&m, &clustered).unwrap();
        assert_eq!(assignment.num_tiles(), 1);
        assert_eq!(assignment.cut_size(&m, &clustered), 0);
        assert_eq!(assignment.tiles_used(), 1);
    }

    #[test]
    fn loads_stay_within_the_balance_bound() {
        let (m, clustered) = fir(24);
        let num_tiles = 4;
        let assignment = Partitioner::new(num_tiles)
            .partition(&m, &clustered)
            .unwrap();
        let total: usize = clustered.ids().map(|id| clustered.cluster(id).len()).sum();
        let largest = clustered
            .ids()
            .map(|id| clustered.cluster(id).len())
            .max()
            .unwrap();
        let cap = ((total.div_ceil(num_tiles) as f64) * 1.2).ceil() as usize;
        let cap = cap.max(largest);
        for tile in 0..num_tiles {
            let load: usize = assignment
                .clusters_on(tile)
                .iter()
                .map(|c| clustered.cluster(*c).len())
                .sum();
            assert!(load <= cap, "tile {tile} holds {load} ops, cap {cap}");
        }
    }

    #[test]
    fn refinement_never_worsens_the_cut() {
        let (m, clustered) = fir(20);
        let refined = Partitioner::new(3).partition(&m, &clustered).unwrap();
        let unrefined = Partitioner::new(3)
            .with_refinement_passes(0)
            .partition(&m, &clustered)
            .unwrap();
        assert!(refined.cut_size(&m, &clustered) <= unrefined.cut_size(&m, &clustered));
    }

    #[test]
    fn cut_edges_are_unique_and_cross_tiles() {
        let (m, clustered) = fir(16);
        let assignment = Partitioner::new(4).partition(&m, &clustered).unwrap();
        let edges = assignment.cut_edges(&m, &clustered);
        let mut seen = HashSet::new();
        for edge in &edges {
            assert_ne!(edge.from, edge.to);
            assert_eq!(assignment.tile_of(clustered.owner_of(edge.op)), edge.from);
            assert!(seen.insert((edge.op, edge.to)), "duplicate edge {edge:?}");
        }
    }

    #[test]
    fn empty_graphs_partition_trivially() {
        let m = MappingGraph::default();
        let clustered = Clusterer::default().cluster(&m).unwrap();
        let assignment = Partitioner::new(4).partition(&m, &clustered).unwrap();
        assert!(assignment.is_empty());
        assert_eq!(assignment.cut_size(&m, &clustered), 0);
    }
}
