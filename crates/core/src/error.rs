//! Error type for the mapping flow.

use fpfa_arch::ArchError;
use fpfa_cdfg::{CdfgError, NodeId};
use fpfa_frontend::FrontendError;
use fpfa_transform::TransformError;
use std::fmt;

/// Errors produced while mapping a program onto an FPFA tile.
#[derive(Clone, PartialEq, Debug)]
pub enum MapError {
    /// The frontend rejected the source program.
    Frontend(FrontendError),
    /// A graph transformation failed (for example a loop that cannot be
    /// unrolled, which the mapping phases require).
    Transform(TransformError),
    /// A CDFG-level operation failed.
    Graph(CdfgError),
    /// The architecture model rejected a configuration or reference.
    Arch(ArchError),
    /// The graph still contains structured loops; the mapping phases only
    /// accept loop-free graphs (the paper lists loop support as future work).
    LoopsRemain {
        /// Number of loop nodes left in the graph.
        count: usize,
    },
    /// A statespace access uses an address that is not a compile-time
    /// constant; indexed addressing is outside the supported mapping subset.
    DynamicAddress {
        /// The offending `FE`/`ST`/`DEL` node.
        node: NodeId,
    },
    /// A fetch reads through an unresolved store (the store-to-load
    /// forwarding pass has not been run or could not resolve aliasing).
    UnresolvedStore {
        /// The fetch node.
        fetch: NodeId,
        /// The blocking store node.
        store: NodeId,
    },
    /// A `DEL` primitive survived simplification; deletes have no
    /// representation on the tile (they only matter for statespace
    /// book-keeping) and must be removed before mapping.
    DeleteUnsupported {
        /// The delete node.
        node: NodeId,
    },
    /// An operation cannot be packed into any ALU cluster (it violates the
    /// ALU capability even on its own).
    UnmappableOperation {
        /// The offending operation.
        node: NodeId,
        /// Why it does not fit.
        reason: String,
    },
    /// The program needs more storage than the tile provides.
    CapacityExceeded {
        /// Which resource ran out.
        resource: String,
        /// How much was needed.
        needed: usize,
        /// How much the tile provides.
        available: usize,
    },
    /// The allocator could not find a feasible placement even after inserting
    /// stall cycles (this indicates a configuration with pathologically few
    /// buses/ports).
    AllocationFailed {
        /// Description of the failure.
        reason: String,
    },
    /// A simulation stage failed to execute the mapped program (missing
    /// inputs, data-dependent faults like division by zero, or a structural
    /// violation caught by the simulator's checks).
    Simulation {
        /// Description of the failure.
        reason: String,
    },
    /// The static mapping verifier rejected the result (deny-level
    /// diagnostics were found).
    VerificationFailed {
        /// Number of deny-level diagnostics.
        denies: usize,
        /// The first deny-level diagnostic, rendered.
        first: String,
    },
    /// Another request was mapping the same kernel under the same
    /// configuration, and this one waited for it, but it stopped (it
    /// panicked) before it produced a mapping or an error.
    Abandoned,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Frontend(e) => write!(f, "frontend error: {e}"),
            MapError::Transform(e) => write!(f, "transformation error: {e}"),
            MapError::Graph(e) => write!(f, "graph error: {e}"),
            MapError::Arch(e) => write!(f, "architecture error: {e}"),
            MapError::LoopsRemain { count } => {
                write!(f, "{count} loop(s) remain in the graph; the mapper requires a fully unrolled graph")
            }
            MapError::DynamicAddress { node } => {
                write!(f, "statespace access at {node} uses a non-constant address")
            }
            MapError::UnresolvedStore { fetch, store } => write!(
                f,
                "fetch {fetch} reads through store {store}; run store-to-load forwarding first"
            ),
            MapError::DeleteUnsupported { node } => {
                write!(f, "DEL primitive {node} cannot be mapped onto the tile")
            }
            MapError::UnmappableOperation { node, reason } => {
                write!(f, "operation {node} cannot be mapped: {reason}")
            }
            MapError::CapacityExceeded {
                resource,
                needed,
                available,
            } => write!(
                f,
                "tile capacity exceeded: {resource} needs {needed}, only {available} available"
            ),
            MapError::AllocationFailed { reason } => {
                write!(f, "resource allocation failed: {reason}")
            }
            MapError::Simulation { reason } => {
                write!(f, "simulation failed: {reason}")
            }
            MapError::VerificationFailed { denies, first } => {
                write!(
                    f,
                    "verification failed with {denies} error(s); first: {first}"
                )
            }
            MapError::Abandoned => f.write_str(
                "the concurrent mapping of the same kernel this request waited for stopped \
                 without a result",
            ),
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Frontend(e) => Some(e),
            MapError::Transform(e) => Some(e),
            MapError::Graph(e) => Some(e),
            MapError::Arch(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrontendError> for MapError {
    fn from(e: FrontendError) -> Self {
        MapError::Frontend(e)
    }
}

impl From<TransformError> for MapError {
    fn from(e: TransformError) -> Self {
        MapError::Transform(e)
    }
}

impl From<CdfgError> for MapError {
    fn from(e: CdfgError) -> Self {
        MapError::Graph(e)
    }
}

impl From<ArchError> for MapError {
    fn from(e: ArchError) -> Self {
        MapError::Arch(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: MapError = CdfgError::CycleDetected.into();
        assert!(e.to_string().contains("cycle"));
        let e: MapError = ArchError::UnknownPp(3).into();
        assert!(e.to_string().contains("processing part 3"));
        let e = MapError::LoopsRemain { count: 2 };
        assert!(e.to_string().contains("2 loop"));
        assert!(std::error::Error::source(&MapError::Graph(CdfgError::CycleDetected)).is_some());
        assert!(std::error::Error::source(&e).is_none());
    }
}
