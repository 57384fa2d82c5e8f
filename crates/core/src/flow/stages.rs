//! The concrete stages of the FPFA mapping flow.
//!
//! Each phase of the paper's flow is a [`Stage`] with a typed payload, so the
//! whole pipeline is the composition
//!
//! ```text
//! SourceInput --frontend--> CompiledKernel --transform--> SimplifiedKernel
//!   --extract--> ExtractedKernel --cluster--> ClusteredKernel
//!   --schedule--> ScheduledKernel --allocate--> AllocatedKernel
//! ```
//!
//! (`fpfa-sim` adds a `simulate` stage over the finished mapping.)  The
//! stages read the tile configuration and feature toggles from the
//! [`FlowContext`] and leave their wall-clock and change counts in it.

use super::{FlowContext, Stage, TransformStats};
use crate::cluster::{ClusteredGraph, Clusterer};
use crate::dfg::MappingGraph;
use crate::error::MapError;
use crate::multi::{MultiSchedule, MultiScheduler, MultiTileAllocator, MultiTileMapping};
use crate::partition::{Partitioner, TileAssignment};
use crate::program::TileProgram;
use crate::schedule::Schedule;
use fpfa_cdfg::Cdfg;
use fpfa_frontend::MemoryLayout;

/// Input of the flow: a C-subset source string.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SourceInput {
    /// The C-subset source text.
    pub source: String,
}

impl SourceInput {
    /// Wraps a source string.
    pub fn new(source: impl Into<String>) -> Self {
        SourceInput {
            source: source.into(),
        }
    }
}

/// Output of the frontend stage.
#[derive(Clone, PartialEq, Debug)]
pub struct CompiledKernel {
    /// The lowered CDFG.
    pub cdfg: Cdfg,
    /// Statespace layout of the source program's arrays.
    pub layout: MemoryLayout,
}

/// Output of the transform stage.
#[derive(Clone, PartialEq, Debug)]
pub struct SimplifiedKernel {
    /// The CDFG after (optional) simplification.
    pub simplified: Cdfg,
    /// Statespace layout, forwarded unchanged.
    pub layout: MemoryLayout,
}

/// Output of the extract stage.
#[derive(Clone, PartialEq, Debug)]
pub struct ExtractedKernel {
    /// The simplified CDFG (kept for the final result and equivalence checks).
    pub simplified: Cdfg,
    /// Statespace layout, forwarded unchanged.
    pub layout: MemoryLayout,
    /// The loop-free mapping IR extracted from the CDFG.
    pub graph: MappingGraph,
}

/// Output of the cluster stage.
#[derive(Clone, PartialEq, Debug)]
pub struct ClusteredKernel {
    /// The simplified CDFG.
    pub simplified: Cdfg,
    /// Statespace layout.
    pub layout: MemoryLayout,
    /// The mapping IR.
    pub graph: MappingGraph,
    /// The phase-1 clustering.
    pub clustered: ClusteredGraph,
}

/// Output of the partition stage.
#[derive(Clone, PartialEq, Debug)]
pub struct PartitionedKernel {
    /// The simplified CDFG.
    pub simplified: Cdfg,
    /// Statespace layout.
    pub layout: MemoryLayout,
    /// The mapping IR.
    pub graph: MappingGraph,
    /// The phase-1 clustering.
    pub clustered: ClusteredGraph,
    /// Which tile each cluster is assigned to (all on tile 0 for single-tile
    /// flows).
    pub partition: TileAssignment,
}

/// Output of the schedule stage.
#[derive(Clone, PartialEq, Debug)]
pub struct ScheduledKernel {
    /// The simplified CDFG.
    pub simplified: Cdfg,
    /// Statespace layout.
    pub layout: MemoryLayout,
    /// The mapping IR.
    pub graph: MappingGraph,
    /// The phase-1 clustering.
    pub clustered: ClusteredGraph,
    /// The tile assignment.
    pub partition: TileAssignment,
    /// The phase-2 level schedule of tile 0 (the whole schedule for
    /// single-tile flows).
    pub schedule: Schedule,
    /// The per-tile level schedules on the shared global timeline.
    pub multi_schedule: MultiSchedule,
}

/// Output of the allocate stage: everything the flow produced.
#[derive(Clone, PartialEq, Debug)]
pub struct AllocatedKernel {
    /// The simplified CDFG.
    pub simplified: Cdfg,
    /// Statespace layout.
    pub layout: MemoryLayout,
    /// The mapping IR.
    pub graph: MappingGraph,
    /// The phase-1 clustering.
    pub clustered: ClusteredGraph,
    /// The phase-2 level schedule (tile 0's schedule for multi-tile flows).
    pub schedule: Schedule,
    /// The phase-3 allocated tile program (tile 0's program for multi-tile
    /// flows; see `multi` for the whole array).
    pub program: TileProgram,
    /// The multi-tile mapping, when the flow targeted more than one tile.
    pub multi: Option<MultiTileMapping>,
}

/// Compiles C-subset source into a CDFG (stage `frontend`).
#[derive(Clone, Copy, Default, Debug)]
pub struct FrontendStage;

impl Stage<SourceInput, CompiledKernel> for FrontendStage {
    fn name(&self) -> &'static str {
        "frontend"
    }

    fn run(&self, input: SourceInput, cx: &mut FlowContext) -> Result<CompiledKernel, MapError> {
        let program = fpfa_frontend::compile(&input.source)?;
        cx.info(
            self.name(),
            format!(
                "{} nodes, {} arrays",
                program.cdfg.node_count(),
                program.layout.arrays().len()
            ),
        );
        Ok(CompiledKernel {
            cdfg: program.cdfg,
            layout: program.layout,
        })
    }
}

/// Simplifies the CDFG (stage `transform`).
///
/// The stage runs the nine standard passes
/// ([`fpfa_transform::standard_local_rewrites`]) on the worklist-driven
/// incremental rewrite engine ([`fpfa_transform::WorklistDriver`]), which
/// only re-examines the neighbourhood of earlier rewrites and reports
/// per-round visited-node counts against the graph size ([`TransformStats`]
/// on the [`FlowContext`]).  `fpfa_transform::Pipeline`, the
/// scan-until-fixpoint loop over the same passes, is the reference the
/// engine is tested against; no flow runs it.
///
/// Simplified or not (with [`FlowToggles::simplify`](super::FlowToggles)
/// off), the stage hands on the graph [`Cdfg::compact`]ed: dense and exactly
/// sized, with the node, edge and per-port sink order of the rewritten graph,
/// so later stages decide exactly as they would on the graph with holes.
pub struct TransformStage;

impl TransformStage {
    /// The paper's "full simplification" recipe, the only one the stage
    /// runs.
    pub fn standard() -> Self {
        TransformStage
    }
}

impl Stage<CompiledKernel, SimplifiedKernel> for TransformStage {
    fn name(&self) -> &'static str {
        "transform"
    }

    fn run(
        &self,
        input: CompiledKernel,
        cx: &mut FlowContext,
    ) -> Result<SimplifiedKernel, MapError> {
        let CompiledKernel { mut cdfg, layout } = input;
        if !cx.toggles.simplify {
            cx.info(self.name(), "simplification disabled");
        } else {
            let outcome = fpfa_transform::WorklistDriver::new()
                .run_standard(&mut cdfg)
                .map_err(MapError::Transform)?;
            cx.record_changes(self.name(), outcome.report.total_changes());
            let mut stats = TransformStats {
                rounds: outcome.report.rounds,
                visited_nodes: outcome.visited_total(),
                peak_graph_nodes: 0,
                changes: outcome.report.total_changes(),
                arena_slots: cdfg.node_bound(),
            };
            for round in &outcome.round_stats {
                stats.peak_graph_nodes = stats.peak_graph_nodes.max(round.graph_nodes);
                cx.info(
                    self.name(),
                    format!(
                        "round {}: visited {} of {} nodes, {} changes",
                        round.round, round.visited, round.graph_nodes, round.changes
                    ),
                );
            }
            cx.info(
                self.name(),
                format!(
                    "{} rounds, {} changes ({} node visits, {} arena slots)",
                    stats.rounds, stats.changes, stats.visited_nodes, stats.arena_slots
                ),
            );
            cx.transform_stats = Some(stats);
        }
        // Unrolling and folding leave most arena slots as holes; every later
        // stage and cache tier holds the graph, so hand it on dense.
        let (cdfg, _) = cdfg.compact();
        Ok(SimplifiedKernel {
            simplified: cdfg,
            layout,
        })
    }
}

/// Extracts the loop-free mapping IR from the CDFG (stage `extract`).
#[derive(Clone, Copy, Default, Debug)]
pub struct ExtractStage;

impl Stage<SimplifiedKernel, ExtractedKernel> for ExtractStage {
    fn name(&self) -> &'static str {
        "extract"
    }

    fn run(
        &self,
        input: SimplifiedKernel,
        cx: &mut FlowContext,
    ) -> Result<ExtractedKernel, MapError> {
        let graph = MappingGraph::from_cdfg(&input.simplified)?;
        cx.info(self.name(), format!("{} operations", graph.op_count()));
        Ok(ExtractedKernel {
            simplified: input.simplified,
            layout: input.layout,
            graph,
        })
    }
}

/// Phase 1: clustering & ALU data-path mapping (stage `cluster`).
#[derive(Clone, Copy, Default, Debug)]
pub struct ClusterStage;

impl Stage<ExtractedKernel, ClusteredKernel> for ClusterStage {
    fn name(&self) -> &'static str {
        "cluster"
    }

    fn run(
        &self,
        input: ExtractedKernel,
        cx: &mut FlowContext,
    ) -> Result<ClusteredKernel, MapError> {
        let clusterer = if cx.toggles.clustering {
            Clusterer::new(cx.config.alu)
        } else {
            Clusterer::disabled(cx.config.alu)
        };
        let clustered = clusterer.cluster(&input.graph)?;
        cx.info(
            self.name(),
            format!(
                "{} clusters, critical path {}",
                clustered.len(),
                clustered.critical_path()
            ),
        );
        Ok(ClusteredKernel {
            simplified: input.simplified,
            layout: input.layout,
            graph: input.graph,
            clustered,
        })
    }
}

/// Inter-tile partitioning of the clustered graph (stage `partition`).
///
/// For single-tile flows this is the trivial everything-on-tile-0 assignment;
/// for multi-tile flows it runs the greedy edge-cut partitioner with
/// Kernighan–Lin-style refinement.
#[derive(Clone, Copy, Default, Debug)]
pub struct PartitionStage;

impl Stage<ClusteredKernel, PartitionedKernel> for PartitionStage {
    fn name(&self) -> &'static str {
        "partition"
    }

    fn run(
        &self,
        input: ClusteredKernel,
        cx: &mut FlowContext,
    ) -> Result<PartitionedKernel, MapError> {
        let partition =
            Partitioner::new(cx.array.num_tiles).partition(&input.graph, &input.clustered)?;
        if cx.array.num_tiles > 1 {
            cx.info(
                self.name(),
                format!(
                    "{} clusters over {} tile(s), {} cut value(s)",
                    input.clustered.len(),
                    partition.tiles_used(),
                    partition.cut_size(&input.graph, &input.clustered)
                ),
            );
        }
        Ok(PartitionedKernel {
            simplified: input.simplified,
            layout: input.layout,
            graph: input.graph,
            clustered: input.clustered,
            partition,
        })
    }
}

/// Phase 2: level scheduling onto the physical ALUs (stage `schedule`).
///
/// Runs the array scheduler for every tile count: each tile's levels hold at
/// most `num_pps` clusters and cross-tile dependences are separated by the
/// interconnect's hop latency. The paper's single tile is an array of one.
#[derive(Clone, Copy, Default, Debug)]
pub struct ScheduleStage;

impl Stage<PartitionedKernel, ScheduledKernel> for ScheduleStage {
    fn name(&self) -> &'static str {
        "schedule"
    }

    fn run(
        &self,
        input: PartitionedKernel,
        cx: &mut FlowContext,
    ) -> Result<ScheduledKernel, MapError> {
        let multi_schedule = MultiScheduler::new(cx.config.num_pps, cx.array.hop_latency)
            .schedule(&input.clustered, &input.partition)?;
        cx.info(
            self.name(),
            format!("{} levels", multi_schedule.level_count()),
        );
        Ok(ScheduledKernel {
            simplified: input.simplified,
            layout: input.layout,
            graph: input.graph,
            clustered: input.clustered,
            partition: input.partition,
            schedule: multi_schedule.tile(0).clone(),
            multi_schedule,
        })
    }
}

/// Phase 3: resource allocation into a per-cycle tile program
/// (stage `allocate`).
///
/// Runs the array allocator for every tile count: the tiles stay on one
/// global timeline and inter-tile transfers are scheduled onto the
/// interconnect. A one-tile array's program is folded into one
/// [`TileProgram`] and the mapping carries no multi-tile data.
#[derive(Clone, Copy, Default, Debug)]
pub struct AllocateStage;

impl Stage<ScheduledKernel, AllocatedKernel> for AllocateStage {
    fn name(&self) -> &'static str {
        "allocate"
    }

    fn run(
        &self,
        input: ScheduledKernel,
        cx: &mut FlowContext,
    ) -> Result<AllocatedKernel, MapError> {
        let allocator = if cx.toggles.locality {
            MultiTileAllocator::new(cx.config, cx.array)
        } else {
            MultiTileAllocator::new(cx.config, cx.array).without_locality()
        };
        let program = allocator.allocate(
            &input.graph,
            &input.clustered,
            &input.partition,
            &input.multi_schedule,
        )?;
        if program.tile_count() == 1 {
            let program = program.into_one_tile();
            cx.info(
                self.name(),
                format!(
                    "{} cycles ({} stalls)",
                    program.cycle_count(),
                    program.stats.stall_cycles
                ),
            );
            return Ok(AllocatedKernel {
                simplified: input.simplified,
                layout: input.layout,
                graph: input.graph,
                clustered: input.clustered,
                schedule: input.schedule,
                program,
                multi: None,
            });
        }
        cx.info(
            self.name(),
            format!(
                "{} cycles on {} tile(s), {} inter-tile transfer(s)",
                program.cycle_count(),
                program.tile_count(),
                program.transfers.len()
            ),
        );
        let tile0 = program.tiles[0].clone();
        let multi = MultiTileMapping {
            array: cx.array,
            partition: input.partition,
            schedule: input.multi_schedule,
            program,
        };
        Ok(AllocatedKernel {
            simplified: input.simplified,
            layout: input.layout,
            graph: input.graph,
            clustered: input.clustered,
            schedule: input.schedule,
            program: tile0,
            multi: Some(multi),
        })
    }
}
