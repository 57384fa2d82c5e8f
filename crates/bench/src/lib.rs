//! Reproduction binaries for the paper's tables and figures.
//!
//! The `src/bin/` binaries print the numbers behind the paper's tables
//! (`table*`), figures (`fig*`) and ablations (`ablation_*`); this library
//! only hosts the table printer they share.  Timing lives in one harness,
//! `perfbench/`, outside the workspace.

pub mod table;
