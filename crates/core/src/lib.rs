//! The FPFA mapper: clustering, scheduling and resource allocation.
//!
//! This crate implements the paper's primary contribution (Section VI): a
//! three-phase decomposition, based on Sarkar's two-phase multiprocessor
//! scheduling, that maps a minimised CDFG onto one FPFA tile:
//!
//! 1. **Clustering & ALU data-path mapping** ([`cluster`]) — the task graph
//!    is partitioned over an unbounded number of fully connected ALUs;
//!    operations are packed into clusters that fit the FPFA ALU data-path
//!    (multiply-accumulate style groups).
//! 2. **Scheduling** ([`schedule`]) — clusters are scheduled level by level
//!    onto the five physical ALUs of a tile; at most five clusters share a
//!    level, non-critical clusters move within their mobility range, and a
//!    new level is inserted when a level would overflow (Fig. 4).
//! 3. **Resource allocation** ([`allocate`]) — the heuristic of Fig. 5:
//!    per level, allocate the ALUs, store every output to a local memory,
//!    move every input into the proper register bank up to four cycles ahead
//!    of its use, and insert extra clock cycles when the inputs cannot be
//!    moved in time. Locality of reference is exploited by preferring the
//!    processing part that already holds a cluster's operands.
//!
//! The phases communicate through the mapping IR of [`dfg`] (a loop-free
//! data-path graph extracted from the CDFG) and produce a [`TileProgram`]
//! — the per-cycle job of the tile — which `fpfa-sim` executes cycle by
//! cycle.
//!
//! [`pipeline::Mapper`] packages the whole flow (frontend → transformations →
//! clustering → scheduling → allocation) behind one call; [`baseline`]
//! provides the reference points used in the evaluation (single-ALU
//! sequential mapping, clustering disabled, locality disabled).
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fpfa_core::pipeline::Mapper;
//!
//! let source = r#"
//!     void main() {
//!         int a[4];
//!         int c[4];
//!         int sum;
//!         int i;
//!         sum = 0; i = 0;
//!         while (i < 4) { sum = sum + a[i] * c[i]; i = i + 1; }
//!     }
//! "#;
//! let mapping = Mapper::new().map_source(source)?;
//! assert!(mapping.program.cycle_count() > 0);
//! assert!(mapping.report.alus_used <= 5);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod allocate;
pub mod baseline;
pub mod cache;
pub mod cluster;
pub mod codec;
pub mod dfg;
pub mod error;
pub mod flow;
pub mod multi;
pub mod partition;
pub mod persist;
pub mod pipeline;
pub mod program;
pub mod report;
pub mod schedule;
pub mod service;
pub mod summary;
pub mod viz;

pub use allocate::Allocator;
pub use cache::{CacheOutcome, CacheStats, MappingCache, Retain};
pub use cluster::{Cluster, ClusterId, ClusteredGraph, Clusterer};
pub use dfg::{MappingGraph, OpId, OpKind, ValueRef};
pub use error::MapError;
pub use flow::{
    BatchEntry, BatchReport, FlowContext, FlowDriver, FlowToggles, FlowTrace, KernelSpec, Stage,
    StageExt, StageTiming, TransformStats,
};
pub use multi::{
    MultiSchedule, MultiScheduler, MultiTileAllocator, MultiTileMapping, MultiTileProgram,
    TrafficReport, TransferJob,
};
pub use partition::{CutEdge, Partitioner, TileAssignment};
pub use pipeline::{Mapper, MappingResult};
pub use program::{AluJob, CycleJob, Location, MoveJob, TileProgram, WritebackJob};
pub use report::MappingReport;
pub use schedule::{Schedule, Scheduler};
pub use service::MappingService;
pub use summary::{program_digest, MappingSummary};
