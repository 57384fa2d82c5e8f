//! The staged flow engine: a generic [`Stage`] trait, a [`FlowDriver`] that
//! times stages, and a [`FlowContext`] threaded through the whole mapping
//! flow.
//!
//! The original `Mapper` hand-wired frontend → transformations → clustering →
//! scheduling → allocation and only timed the middle of that sequence.  This
//! module turns each phase into a [`Stage<In, Out>`] so that
//!
//! * every phase is instrumented uniformly (per-stage wall-clock and change
//!   counts end up in the [`FlowContext`], and in the
//!   [`FlowTrace`] of every
//!   [`MappingResult`](crate::pipeline::MappingResult));
//! * stages compose with [`StageExt::then`], so alternative flows (ablation
//!   baselines, future loop-capable pipelines) are assembled instead of
//!   re-implemented;
//! * independent kernels can be mapped in parallel through
//!   [`Mapper::map_many`](crate::pipeline::Mapper::map_many), which
//!   aggregates the per-stage numbers into a [`BatchReport`].
//!
//! The concrete mapping stages live in [`stages`]; batching lives in
//! [`batch`].

pub mod batch;
pub mod stages;

pub use batch::{BatchEntry, BatchReport, KernelSpec, StageTotal};
pub use stages::{
    AllocateStage, AllocatedKernel, ClusterStage, ClusteredKernel, CompiledKernel, ExtractStage,
    ExtractedKernel, FrontendStage, PartitionStage, PartitionedKernel, ScheduleStage,
    ScheduledKernel, SimplifiedKernel, SourceInput, TransformStage,
};

use crate::error::MapError;
use fpfa_arch::{ArrayConfig, TileConfig};
use std::fmt;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Context, timings and diagnostics
// ---------------------------------------------------------------------------

/// Feature toggles of the mapping flow (the `Mapper` builder switches).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct FlowToggles {
    /// Phase-1 clustering (disabled = one operation per cluster).
    pub clustering: bool,
    /// Locality of reference in the allocator.
    pub locality: bool,
    /// CDFG simplification before mapping.
    pub simplify: bool,
    /// Run the static mapping verifier (`fpfa-verify`) over every produced
    /// mapping.  The flag is advisory — the core crate cannot depend on the
    /// verifier — so callers (CLI bins, the server) consult it to decide
    /// whether to verify.  Deliberately *excluded* from
    /// [`config_fingerprint`](crate::cache::config_fingerprint):
    /// verification is an observer, so a verified and an unverified request
    /// must share cache entries and config fingerprints.
    pub verify: bool,
}

impl Default for FlowToggles {
    fn default() -> Self {
        FlowToggles {
            clustering: true,
            locality: true,
            simplify: true,
            verify: false,
        }
    }
}

/// Instrumentation of the transform stage: how output-sensitive the
/// minimiser was on this kernel.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct TransformStats {
    /// Fixpoint rounds executed.
    pub rounds: usize,
    /// Total node visits across all rounds and passes.
    pub visited_nodes: usize,
    /// Live nodes in the graph when the largest round started (the scale the
    /// engine was up against).  Unrolling happens inside a round, so this is
    /// not the stage's memory high-water: see
    /// [`arena_slots`](Self::arena_slots).
    pub peak_graph_nodes: usize,
    /// Graph changes made in total.
    pub changes: usize,
    /// Arena slots of the rewritten graph just before the stage's final
    /// compaction ([`Cdfg::node_bound`](fpfa_cdfg::Cdfg::node_bound)).  The
    /// flow never reuses node ids, so this counts every node the frontend
    /// or the stage created: the real memory high-water of the transform.
    /// Unrolling splices only a body's operations, never its interface
    /// nodes, so the slots the unroller leaves empty are its removed loop
    /// nodes (`matmul10`: unrolling leaves 15,151 slots for 15,040 live
    /// nodes, and the stage ends at 21,561 slots).
    pub arena_slots: usize,
}

/// Wall-clock (and change count) of one stage of a flow run.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct StageTiming {
    /// Stage name (`"frontend"`, `"transform"`, `"cluster"`, ...).
    pub stage: &'static str,
    /// Total wall-clock spent in the stage.
    pub wall: Duration,
    /// Graph changes attributed to the stage (fixpoint stages only).
    pub changes: usize,
}

/// How serious a [`Diagnostic`] is.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Severity {
    /// Progress information (cluster counts, pass statistics).
    Info,
    /// Something suspicious that did not fail the flow.
    Warning,
}

/// A structured message emitted by a stage.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Diagnostic {
    /// The stage that emitted the message.
    pub stage: &'static str,
    /// Severity of the message.
    pub severity: Severity,
    /// Human-readable text.
    pub message: String,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = match self.severity {
            Severity::Info => "info",
            Severity::Warning => "warn",
        };
        write!(f, "[{tag}] {}: {}", self.stage, self.message)
    }
}

/// Everything a flow run left behind: per-stage timings and diagnostics.
///
/// Stored in every [`MappingResult`](crate::pipeline::MappingResult) and
/// aggregated across kernels by [`BatchReport`].
#[derive(Clone, PartialEq, Debug, Default)]
pub struct FlowTrace {
    /// Per-stage wall-clock and change counts, in completion order.
    pub timings: Vec<StageTiming>,
    /// Structured diagnostics, in emission order.
    pub diagnostics: Vec<Diagnostic>,
}

impl FlowTrace {
    /// Wall-clock of a stage, if it ran.
    pub fn wall_of(&self, stage: &str) -> Option<Duration> {
        self.timings
            .iter()
            .find(|t| t.stage == stage)
            .map(|t| t.wall)
    }

    /// Total wall-clock across all recorded stages.
    pub fn total_wall(&self) -> Duration {
        self.timings.iter().map(|t| t.wall).sum()
    }

    /// The per-stage timings as one JSON array of
    /// `{"stage":..,"wall_micros":..,"changes":..}` objects, in completion
    /// order — the machine-readable counterpart of the `Display` listing,
    /// consumed by `fpfa-map --timings-json` and the serving layer's span
    /// bridge.  Stage names are identifier-like, so no escaping is needed.
    pub fn timings_json(&self) -> String {
        let mut out = String::from("[");
        for (i, timing) in self.timings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"stage\":\"{}\",\"wall_micros\":{},\"changes\":{}}}",
                timing.stage,
                timing.wall.as_micros(),
                timing.changes
            ));
        }
        out.push(']');
        out
    }
}

impl fmt::Display for FlowTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "stage timings (total {:?}):", self.total_wall())?;
        for timing in &self.timings {
            write!(f, "  {:<10} {:>12?}", timing.stage, timing.wall)?;
            if timing.changes > 0 {
                write!(f, "  ({} changes)", timing.changes)?;
            }
            writeln!(f)?;
        }
        for diagnostic in &self.diagnostics {
            writeln!(f, "  {diagnostic}")?;
        }
        Ok(())
    }
}

/// Shared state threaded through every stage of a flow run.
#[derive(Clone, Debug)]
pub struct FlowContext {
    /// The tile configuration the flow targets.
    pub config: TileConfig,
    /// The tile-array configuration (a single-tile array unless the mapper
    /// targets several tiles).
    pub array: ArrayConfig,
    /// Feature toggles consulted by the stages.
    pub toggles: FlowToggles,
    /// Visited-versus-size instrumentation left behind by the transform
    /// stage (`None` when simplification was skipped).
    pub transform_stats: Option<TransformStats>,
    timings: Vec<StageTiming>,
    diagnostics: Vec<Diagnostic>,
}

impl FlowContext {
    /// A context targeting `config` with all optimisations enabled.
    pub fn new(config: TileConfig) -> Self {
        FlowContext {
            config,
            array: ArrayConfig::single_tile(),
            toggles: FlowToggles::default(),
            transform_stats: None,
            timings: Vec::new(),
            diagnostics: Vec::new(),
        }
    }

    /// Overrides the feature toggles.
    pub fn with_toggles(mut self, toggles: FlowToggles) -> Self {
        self.toggles = toggles;
        self
    }

    /// Targets a tile array instead of the default single tile.
    pub fn with_array(mut self, array: ArrayConfig) -> Self {
        self.array = array;
        self
    }

    /// Adds wall-clock to a stage (merging repeated runs of the same stage).
    pub fn record_wall(&mut self, stage: &'static str, wall: Duration) {
        if let Some(entry) = self.timings.iter_mut().find(|t| t.stage == stage) {
            entry.wall += wall;
        } else {
            self.timings.push(StageTiming {
                stage,
                wall,
                changes: 0,
            });
        }
    }

    /// Attributes `changes` graph changes to a stage.
    pub fn record_changes(&mut self, stage: &'static str, changes: usize) {
        if let Some(entry) = self.timings.iter_mut().find(|t| t.stage == stage) {
            entry.changes += changes;
        } else {
            self.timings.push(StageTiming {
                stage,
                wall: Duration::ZERO,
                changes,
            });
        }
    }

    /// Emits an informational diagnostic.
    pub fn info(&mut self, stage: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            stage,
            severity: Severity::Info,
            message: message.into(),
        });
    }

    /// Emits a warning diagnostic.
    pub fn warn(&mut self, stage: &'static str, message: impl Into<String>) {
        self.diagnostics.push(Diagnostic {
            stage,
            severity: Severity::Warning,
            message: message.into(),
        });
    }

    /// Per-stage timings recorded so far.
    pub fn timings(&self) -> &[StageTiming] {
        &self.timings
    }

    /// Diagnostics recorded so far.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Wall-clock of a stage, if it ran.
    pub fn wall_of(&self, stage: &str) -> Option<Duration> {
        self.timings
            .iter()
            .find(|t| t.stage == stage)
            .map(|t| t.wall)
    }

    /// Converts the recorded instrumentation into a portable trace.
    pub fn into_trace(self) -> FlowTrace {
        FlowTrace {
            timings: self.timings,
            diagnostics: self.diagnostics,
        }
    }
}

// ---------------------------------------------------------------------------
// The Stage abstraction
// ---------------------------------------------------------------------------

/// One phase of a flow: consumes `In`, produces `Out`, reads configuration
/// from (and reports instrumentation into) the [`FlowContext`].
pub trait Stage<In, Out> {
    /// Short, stable stage name used in timings and diagnostics.
    fn name(&self) -> &'static str;

    /// Runs the stage.
    ///
    /// # Errors
    /// Returns a [`MapError`] when the phase cannot proceed.
    fn run(&self, input: In, cx: &mut FlowContext) -> Result<Out, MapError>;

    /// Composite stages (like [`Chain`]) time their children individually
    /// instead of being timed as one unit.
    fn is_composite(&self) -> bool {
        false
    }
}

/// Runs a stage, recording its wall-clock in the context (composite stages
/// delegate timing to their children).
///
/// # Errors
/// Propagates the stage's error.
pub fn run_timed<In, Out, S>(stage: &S, input: In, cx: &mut FlowContext) -> Result<Out, MapError>
where
    S: Stage<In, Out> + ?Sized,
{
    if stage.is_composite() {
        return stage.run(input, cx);
    }
    let started = Instant::now();
    let result = stage.run(input, cx);
    cx.record_wall(stage.name(), started.elapsed());
    result
}

/// Two stages run in sequence (see [`StageExt::then`]).
#[derive(Clone, Debug)]
pub struct Chain<S1, S2, Mid> {
    first: S1,
    second: S2,
    _mid: std::marker::PhantomData<fn() -> Mid>,
}

impl<In, Mid, Out, S1, S2> Stage<In, Out> for Chain<S1, S2, Mid>
where
    S1: Stage<In, Mid>,
    S2: Stage<Mid, Out>,
{
    fn name(&self) -> &'static str {
        "chain"
    }

    fn is_composite(&self) -> bool {
        true
    }

    fn run(&self, input: In, cx: &mut FlowContext) -> Result<Out, MapError> {
        let mid = run_timed(&self.first, input, cx)?;
        run_timed(&self.second, mid, cx)
    }
}

/// Combinators available on every stage.
pub trait StageExt<In, Out>: Stage<In, Out> + Sized {
    /// Chains `self` with `next`, feeding `self`'s output into `next`.
    fn then<Out2, S2: Stage<Out, Out2>>(self, next: S2) -> Chain<Self, S2, Out> {
        Chain {
            first: self,
            second: next,
            _mid: std::marker::PhantomData,
        }
    }
}

impl<In, Out, S: Stage<In, Out>> StageExt<In, Out> for S {}

// ---------------------------------------------------------------------------
// The driver
// ---------------------------------------------------------------------------

/// Runs stages, recording each stage's wall-clock in the [`FlowContext`]
/// (a composite stage built with [`StageExt::then`] times its children
/// individually).
#[derive(Clone, Copy, Default, Debug)]
pub struct FlowDriver;

impl FlowDriver {
    /// Creates a driver.
    pub fn new() -> Self {
        FlowDriver
    }

    /// Runs a (possibly composite) stage, timing it into the context.
    ///
    /// # Errors
    /// Propagates the stage's error.
    pub fn run<In, Out, S>(
        &self,
        stage: &S,
        input: In,
        cx: &mut FlowContext,
    ) -> Result<Out, MapError>
    where
        S: Stage<In, Out> + ?Sized,
    {
        run_timed(stage, input, cx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    /// Adds a suffix to a string (and optionally sleeps so timings are
    /// observable).
    struct Append(&'static str, &'static str);

    impl Stage<String, String> for Append {
        fn name(&self) -> &'static str {
            self.0
        }
        fn run(&self, input: String, cx: &mut FlowContext) -> Result<String, MapError> {
            cx.info(self.0, "ran");
            sleep(Duration::from_micros(50));
            Ok(input + self.1)
        }
    }

    /// A stage that always fails.
    struct Explode;

    impl Stage<String, String> for Explode {
        fn name(&self) -> &'static str {
            "explode"
        }
        fn run(&self, _input: String, _cx: &mut FlowContext) -> Result<String, MapError> {
            Err(MapError::AllocationFailed {
                reason: "boom".into(),
            })
        }
    }

    fn cx() -> FlowContext {
        FlowContext::new(TileConfig::paper())
    }

    #[test]
    fn chained_stages_run_in_order_and_are_timed_individually() {
        let flow = Append("first", "a")
            .then(Append("second", "b"))
            .then(Append("third", "c"));
        let mut cx = cx();
        let out = FlowDriver::new()
            .run(&flow, String::from("x"), &mut cx)
            .unwrap();
        assert_eq!(out, "xabc");
        let stages: Vec<_> = cx.timings().iter().map(|t| t.stage).collect();
        assert_eq!(stages, vec!["first", "second", "third"]);
        for timing in cx.timings() {
            assert!(timing.wall > Duration::ZERO, "{} not timed", timing.stage);
        }
        assert_eq!(cx.diagnostics().len(), 3);
    }

    #[test]
    fn chain_stops_at_the_first_failing_stage() {
        let flow = Append("first", "a")
            .then(Explode)
            .then(Append("third", "c"));
        let mut cx = cx();
        let err = FlowDriver::new()
            .run(&flow, String::from("x"), &mut cx)
            .unwrap_err();
        assert!(matches!(err, MapError::AllocationFailed { .. }));
        // The first stage ran (and was timed); the third never did.
        assert!(cx.wall_of("first").is_some());
        assert!(cx.wall_of("third").is_none());
        // The failing stage is still timed (its wall-clock was spent).
        assert!(cx.wall_of("explode").is_some());
    }

    #[test]
    fn repeated_stage_runs_merge_their_wall_clock() {
        let stage = Append("same", "y");
        let mut cx = cx();
        let driver = FlowDriver::new();
        driver.run(&stage, String::from("a"), &mut cx).unwrap();
        driver.run(&stage, String::from("b"), &mut cx).unwrap();
        assert_eq!(cx.timings().len(), 1);
        assert!(cx.wall_of("same").unwrap() >= Duration::from_micros(100));
    }

    #[test]
    fn trace_display_lists_stages_and_diagnostics() {
        let mut cx = cx();
        cx.record_wall("frontend", Duration::from_micros(120));
        cx.record_changes("transform", 9);
        cx.warn("transform", "something odd");
        let trace = cx.into_trace();
        let text = trace.to_string();
        assert!(text.contains("frontend"));
        assert!(text.contains("9 changes"));
        assert!(text.contains("[warn] transform: something odd"));
    }
}
