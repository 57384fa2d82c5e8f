//! CDFG edges: directed, port-indexed dataflow connections.

use crate::ids::NodeId;
use std::fmt;

/// One end of an edge: a node plus the index of the port on that node.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct Endpoint {
    /// The node this endpoint attaches to.
    pub node: NodeId,
    /// The port index on that node (output port for sources, input port for
    /// destinations).
    pub port: u16,
}

impl Endpoint {
    /// Creates an endpoint.
    pub fn new(node: NodeId, port: usize) -> Self {
        Endpoint {
            node,
            port: port as u16,
        }
    }

    /// The port index as a `usize`.
    pub fn port_index(&self) -> usize {
        self.port as usize
    }
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.{}", self.node, self.port)
    }
}

/// A directed dataflow edge from an output port to an input port.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Edge {
    /// Producing endpoint (an output port).
    pub from: Endpoint,
    /// Consuming endpoint (an input port).
    pub to: Endpoint,
}

impl Edge {
    /// The slot of a removed edge in a graph's edge table: it starts at
    /// [`NodeId::NONE`], where no live edge does, so a slot needs no
    /// `Option` around it.
    pub(crate) const DEAD: Edge = Edge {
        from: Endpoint {
            node: NodeId::NONE,
            port: 0,
        },
        to: Endpoint {
            node: NodeId::NONE,
            port: 0,
        },
    };

    /// Creates an edge between two endpoints.
    pub fn new(from: Endpoint, to: Endpoint) -> Self {
        Edge { from, to }
    }

    /// `false` for [`Edge::DEAD`].
    pub(crate) fn is_live(&self) -> bool {
        self.from.node != NodeId::NONE
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.from, self.to)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    #[test]
    fn endpoint_display() {
        let e = Endpoint::new(NodeId::from_index(3), 1);
        assert_eq!(e.to_string(), "n3.1");
        assert_eq!(e.port_index(), 1);
    }

    #[test]
    fn edge_display() {
        let e = Edge::new(
            Endpoint::new(NodeId::from_index(0), 0),
            Endpoint::new(NodeId::from_index(1), 2),
        );
        assert_eq!(e.to_string(), "n0.0 -> n1.2");
    }
}
