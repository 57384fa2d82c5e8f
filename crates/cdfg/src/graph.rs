//! The CDFG graph container and its mutation primitives.
//!
//! Storage is a flat arena in struct-of-arrays form: node operations
//! ([`NodeKind`]) and port connectivity (`PortRecord`) live in parallel
//! vectors indexed by the dense `u32` inside [`NodeId`].  A node's port
//! connectivity is one small buffer of edge ids: its input slots followed by
//! its outgoing edges in connect order.  Up to seven entries live on the
//! 40-byte record itself, so nearly every node of a simplified graph
//! allocates nothing on the heap; larger sets spill into one `Vec`.  An
//! outgoing edge's port is not stored on the record: it is read from the
//! edge table.  [`Node`] is a cheap `Copy` *view* over one arena slot, not an
//! owned record.

use crate::edge::{Edge, Endpoint};
use crate::error::CdfgError;
use crate::ids::{EdgeId, NodeId, NodeRemap};
use crate::node::NodeKind;
use crate::observer::ChangeJournal;
use std::fmt;

/// Sentinel for an unconnected input-port slot.
const NO_EDGE: u32 = u32::MAX;

/// Inline capacity of a node's port buffer, in entries.  Fixed node kinds
/// have at most three input ports and one output port, so they stay inline
/// up to a fan-out of four; loop headers (arity = carried variables) and
/// high-fanout values spill to the heap.
const INLINE_SLOTS: usize = 7;

/// Entry storage of a [`PortRecord`]: inline up to [`INLINE_SLOTS`], one heap
/// `Vec` beyond.  A buffer that spilled stays spilled.
#[derive(Clone, Debug)]
enum Slots {
    Inline([u32; INLINE_SLOTS]),
    Spilled(Vec<u32>),
}

/// Port connectivity of one arena slot: one buffer holding `ins` input-edge
/// slots ([`NO_EDGE`] while unconnected) followed by the outgoing edge ids in
/// connect order across all output ports.  An out entry's port is the
/// edge's own `from.port`.
///
/// Equality compares the logical entries, so a record that spilled equals an
/// inline one with the same entries.
#[derive(Clone, Debug)]
struct PortRecord {
    slots: Slots,
    /// Live entries: `inline[..len]`, or the whole spilled `Vec`.
    len: u32,
    /// Number of input ports (fixed by the node kind; ports are `u16`, as in
    /// [`Endpoint`]).
    ins: u16,
    /// Number of output ports (fixed by the node kind).
    out_ports: u16,
}

// Every copy of a graph pays this per node slot: keep the record small.
const _: () = assert!(std::mem::size_of::<PortRecord>() <= 40);

impl Default for PortRecord {
    fn default() -> Self {
        PortRecord::new(0, 0)
    }
}

impl PartialEq for PortRecord {
    fn eq(&self, other: &Self) -> bool {
        self.ins == other.ins
            && self.out_ports == other.out_ports
            && self.entries() == other.entries()
    }
}

impl PortRecord {
    /// A record with `ins` unconnected input slots and no outgoing edges.
    fn new(ins: usize, out_ports: usize) -> Self {
        let slots = if ins <= INLINE_SLOTS {
            Slots::Inline([NO_EDGE; INLINE_SLOTS])
        } else {
            Slots::Spilled(vec![NO_EDGE; ins])
        };
        PortRecord {
            slots,
            len: ins as u32,
            ins: ins as u16,
            out_ports: out_ports as u16,
        }
    }

    fn entries(&self) -> &[u32] {
        match &self.slots {
            Slots::Inline(inline) => &inline[..self.len as usize],
            Slots::Spilled(spilled) => spilled,
        }
    }

    /// Input slots in port order.
    fn in_slots(&self) -> &[u32] {
        &self.entries()[..usize::from(self.ins)]
    }

    fn in_slots_mut(&mut self) -> &mut [u32] {
        let ins = usize::from(self.ins);
        match &mut self.slots {
            Slots::Inline(inline) => &mut inline[..ins],
            Slots::Spilled(spilled) => &mut spilled[..ins],
        }
    }

    /// Outgoing edge ids in connect order, across all output ports.
    fn out_edges(&self) -> &[u32] {
        &self.entries()[usize::from(self.ins)..]
    }

    /// Appends an outgoing edge.
    fn push_out(&mut self, edge: u32) {
        let len = self.len as usize;
        match &mut self.slots {
            Slots::Inline(inline) if len < INLINE_SLOTS => inline[len] = edge,
            Slots::Inline(inline) => {
                let mut spilled = inline.to_vec();
                spilled.push(edge);
                self.slots = Slots::Spilled(spilled);
            }
            Slots::Spilled(spilled) => spilled.push(edge),
        }
        self.len += 1;
    }

    /// Removes an outgoing edge, keeping the order of the others.
    fn remove_out(&mut self, edge: u32) {
        let Some(offset) = self.out_edges().iter().position(|out| *out == edge) else {
            return;
        };
        let at = usize::from(self.ins) + offset;
        match &mut self.slots {
            Slots::Inline(inline) => inline.copy_within(at + 1..self.len as usize, at),
            Slots::Spilled(spilled) => {
                spilled.remove(at);
            }
        }
        self.len -= 1;
    }

    /// The outgoing edges leaving output port `port`, in connect order.
    /// Single-output kinds skip the edge table: all their edges leave port 0.
    fn port_out_edges<'g>(
        &'g self,
        edges: &'g [Option<Edge>],
        port: usize,
    ) -> impl Iterator<Item = u32> + 'g {
        let outs = if port < usize::from(self.out_ports) {
            self.out_edges()
        } else {
            &[]
        };
        let single = self.out_ports == 1;
        outs.iter().copied().filter(move |raw| {
            single
                || edges
                    .get(*raw as usize)
                    .and_then(Option::as_ref)
                    .is_some_and(|edge| edge.from.port_index() == port)
        })
    }
}

/// A read-only view of one node: its operation plus port connectivity.
///
/// The graph stores nodes in flat parallel arrays (see [`Cdfg`]); `Node` is
/// a cheap `Copy` view into one slot of that storage, not an owned record.
#[derive(Clone, Copy)]
pub struct Node<'g> {
    /// The operation performed by this node.
    pub kind: &'g NodeKind,
    ports: &'g PortRecord,
    /// The graph's edge table, where out-edge ports are read.
    edges: &'g [Option<Edge>],
}

impl fmt::Debug for Node<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Node")
            .field("kind", self.kind)
            .field("ins", &self.ports.in_slots())
            .field("outs", &self.ports.out_edges())
            .finish()
    }
}

impl<'g> Node<'g> {
    /// Incoming edge connected to input port `port`, if any.
    pub fn input_edge(&self, port: usize) -> Option<EdgeId> {
        self.ports
            .in_slots()
            .get(port)
            .copied()
            .filter(|raw| *raw != NO_EDGE)
            .map(|raw| EdgeId::from_index(raw as usize))
    }

    /// Iterates over the connected input edges in port order.
    pub fn input_edges(self) -> impl Iterator<Item = EdgeId> + 'g {
        self.ports
            .in_slots()
            .iter()
            .filter(|raw| **raw != NO_EDGE)
            .map(|raw| EdgeId::from_index(*raw as usize))
    }

    /// Iterates over the edges leaving output port `port`, allocation-free.
    pub fn output_edges(self, port: usize) -> impl Iterator<Item = EdgeId> + 'g {
        self.ports
            .port_out_edges(self.edges, port)
            .map(|raw| EdgeId::from_index(raw as usize))
    }

    /// Number of input ports.
    pub fn input_count(&self) -> usize {
        usize::from(self.ports.ins)
    }

    /// Number of output ports.
    pub fn output_count(&self) -> usize {
        usize::from(self.ports.out_ports)
    }

    /// Total number of edges leaving this node across all output ports.
    pub fn fanout(&self) -> usize {
        self.ports.out_edges().len()
    }

    /// `true` when every input port has an incoming edge.
    pub fn fully_connected(&self) -> bool {
        self.ports.in_slots().iter().all(|raw| *raw != NO_EDGE)
    }
}

/// Reusable scratch buffers for [`Cdfg::topo_order_into`].
///
/// The worklist driver and the analyses call the topological sort on every
/// fixpoint round; keeping one `TopoScratch` alive across calls means the
/// in-degree table, the ready stack and the order buffer are reused instead
/// of reallocated per invocation.
#[derive(Clone, Debug, Default)]
pub struct TopoScratch {
    in_deg: Vec<u32>,
    /// Per-node edge multiplicity, reset to zero after each visit.
    counts: Vec<u32>,
    distinct: Vec<NodeId>,
    /// The visited node's `(output port, consumer)` pairs, in port order.
    sinks: Vec<(u16, NodeId)>,
    ready: Vec<NodeId>,
    order: Vec<NodeId>,
}

impl TopoScratch {
    /// Fresh, empty scratch space.
    pub fn new() -> Self {
        Self::default()
    }

    /// The order produced by the last successful
    /// [`Cdfg::topo_order_into`] call.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }
}

/// A Control Data Flow Graph.
///
/// The graph owns its nodes and edges. Nodes expose a fixed number of input
/// and output ports determined by their [`NodeKind`]; each input port is
/// driven by at most one edge, while output ports may fan out to any number of
/// consumers. Removed nodes and edges leave holes in the arena so that
/// identifiers stay stable while a graph is rewritten, and ids are never
/// handed out again; [`Cdfg::compact`] rebuilds a dense, exactly sized graph
/// (the mapping flow's `transform` stage ends with it, so every later stage
/// and cache tier holds no holes).
///
/// Every mutation primitive records the nodes it touches in an optional
/// [`ChangeJournal`] (see [`Cdfg::enable_journal`]); the incremental rewrite
/// engine uses the journal to learn which nodes a rewrite touched.  Equality
/// compares only graph structure (name, nodes, edges) — journal state and
/// cached counters are ignored.
#[derive(Clone, Debug, Default)]
pub struct Cdfg {
    name: String,
    /// SoA arena: operation per slot (`None` = hole).
    kinds: Vec<Option<NodeKind>>,
    /// SoA arena: port connectivity per slot, parallel to `kinds`.
    ports: Vec<PortRecord>,
    edges: Vec<Option<Edge>>,
    live_nodes: usize,
    live_edges: usize,
    journal: Option<ChangeJournal>,
}

impl PartialEq for Cdfg {
    fn eq(&self, other: &Self) -> bool {
        self.name == other.name
            && self.kinds == other.kinds
            && self.ports == other.ports
            && self.edges == other.edges
    }
}

impl Cdfg {
    /// Creates an empty graph with a descriptive name.
    pub fn new(name: impl Into<String>) -> Self {
        Cdfg {
            name: name.into(),
            ..Cdfg::default()
        }
    }

    // ------------------------------------------------------------------
    // Change journal
    // ------------------------------------------------------------------

    /// Installs a fresh [`ChangeJournal`]: every subsequent mutation records
    /// the nodes it touches until [`Cdfg::disable_journal`] is called.
    pub fn enable_journal(&mut self) {
        self.journal = Some(ChangeJournal::new());
    }

    /// Removes the journal (if any) and returns it with its pending nodes.
    pub fn disable_journal(&mut self) -> Option<ChangeJournal> {
        self.journal.take()
    }

    /// `true` while a journal is installed.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Moves the nodes touched since the last drain into `out`, each once, in
    /// first-touch order (nothing when no journal is installed).
    pub fn drain_touched_into(&mut self, out: &mut Vec<NodeId>) {
        if let Some(journal) = &mut self.journal {
            journal.drain_nodes_into(out);
        }
    }

    fn touch(&mut self, id: NodeId) {
        if let Some(journal) = &mut self.journal {
            journal.record(id);
        }
    }

    /// Reserves room for at least `nodes` more nodes and `edges` more
    /// edges, so a builder that knows roughly how large its graph gets
    /// does not copy the arena as it grows.
    pub fn reserve(&mut self, nodes: usize, edges: usize) {
        self.kinds.reserve(nodes);
        self.ports.reserve(nodes);
        self.edges.reserve(edges);
    }

    /// Gives back the arena capacity past the current slots.
    pub fn shrink_to_fit(&mut self) {
        self.kinds.shrink_to_fit();
        self.ports.shrink_to_fit();
        self.edges.shrink_to_fit();
    }

    /// Descriptive name of the graph (usually the source function name).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Renames the graph.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    // ------------------------------------------------------------------
    // Node and edge accessors
    // ------------------------------------------------------------------

    /// Number of live nodes (O(1): maintained across every mutation).
    pub fn node_count(&self) -> usize {
        self.live_nodes
    }

    /// Number of live edges (O(1): maintained across every mutation).
    pub fn edge_count(&self) -> usize {
        self.live_edges
    }

    /// Upper bound of node indices (including holes); useful for dense side
    /// tables indexed by [`NodeId::index`].
    pub fn node_bound(&self) -> usize {
        self.kinds.len()
    }

    /// Returns a view of the node with the given id.
    ///
    /// # Errors
    /// [`CdfgError::UnknownNode`] if the id is stale or out of range.
    pub fn node(&self, id: NodeId) -> Result<Node<'_>, CdfgError> {
        match self.kinds.get(id.index()) {
            Some(Some(kind)) => Ok(Node {
                kind,
                ports: &self.ports[id.index()],
                edges: &self.edges,
            }),
            _ => Err(CdfgError::UnknownNode(id)),
        }
    }

    /// Returns the kind of a node.
    ///
    /// # Errors
    /// [`CdfgError::UnknownNode`] if the id is stale or out of range.
    pub fn kind(&self, id: NodeId) -> Result<&NodeKind, CdfgError> {
        self.kinds
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(CdfgError::UnknownNode(id))
    }

    /// Returns the edge with the given id.
    ///
    /// # Errors
    /// [`CdfgError::UnknownEdge`] if the id is stale or out of range.
    pub fn edge(&self, id: EdgeId) -> Result<&Edge, CdfgError> {
        self.edges
            .get(id.index())
            .and_then(Option::as_ref)
            .ok_or(CdfgError::UnknownEdge(id))
    }

    /// `true` when the node id refers to a live node.
    pub fn contains_node(&self, id: NodeId) -> bool {
        self.kinds
            .get(id.index())
            .map(Option::is_some)
            .unwrap_or(false)
    }

    /// Iterates over `(id, node)` pairs of live nodes in id order.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, Node<'_>)> + '_ {
        self.kinds
            .iter()
            .zip(&self.ports)
            .enumerate()
            .filter_map(|(i, (kind, ports))| {
                kind.as_ref().map(|kind| {
                    let node = Node {
                        kind,
                        ports,
                        edges: &self.edges,
                    };
                    (NodeId::from_index(i), node)
                })
            })
    }

    /// Iterates over the ids of live nodes in id order.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().map(|(id, _)| id)
    }

    /// Iterates over `(id, edge)` pairs of live edges in id order.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (EdgeId::from_index(i), e)))
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Adds a node and returns its id, one past every id handed out before.
    pub fn add_node(&mut self, kind: NodeKind) -> NodeId {
        let id = NodeId::from_index(self.kinds.len());
        self.ports
            .push(PortRecord::new(kind.input_arity(), kind.output_arity()));
        self.kinds.push(Some(kind));
        self.live_nodes += 1;
        self.touch(id);
        id
    }

    /// Connects output port `from_port` of `from` to input port `to_port` of
    /// `to` and returns the new edge id.
    ///
    /// # Errors
    /// * [`CdfgError::UnknownNode`] if either node does not exist;
    /// * [`CdfgError::PortOutOfRange`] if a port index exceeds the node arity;
    /// * [`CdfgError::PortAlreadyDriven`] if the input port already has a
    ///   driver.
    pub fn connect(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
    ) -> Result<EdgeId, CdfgError> {
        {
            let from_node = self.node(from)?;
            if from_port >= from_node.output_count() {
                return Err(CdfgError::PortOutOfRange {
                    node: from,
                    port: from_port,
                    arity: from_node.output_count(),
                    is_input: false,
                });
            }
            let to_node = self.node(to)?;
            if to_port >= to_node.input_count() {
                return Err(CdfgError::PortOutOfRange {
                    node: to,
                    port: to_port,
                    arity: to_node.input_count(),
                    is_input: true,
                });
            }
            if to_node.input_edge(to_port).is_some() {
                return Err(CdfgError::PortAlreadyDriven {
                    node: to,
                    port: to_port,
                });
            }
        }
        let edge = Edge::new(Endpoint::new(from, from_port), Endpoint::new(to, to_port));
        let id = EdgeId::from_index(self.edges.len());
        self.edges.push(Some(edge));
        self.ports[from.index()].push_out(id.index() as u32);
        self.ports[to.index()].in_slots_mut()[to_port] = id.index() as u32;
        self.live_edges += 1;
        self.touch(from);
        self.touch(to);
        Ok(id)
    }

    /// Removes an edge, leaving the destination port unconnected.
    ///
    /// # Errors
    /// [`CdfgError::UnknownEdge`] if the edge does not exist.
    pub fn disconnect(&mut self, id: EdgeId) -> Result<Edge, CdfgError> {
        let edge = self.edge(id).copied()?;
        let raw = id.index() as u32;
        if let Some(record) = self.ports.get_mut(edge.from.node.index()) {
            record.remove_out(raw);
        }
        if let Some(record) = self.ports.get_mut(edge.to.node.index()) {
            let port = edge.to.port_index();
            let ins = record.in_slots_mut();
            if port < ins.len() && ins[port] == raw {
                ins[port] = NO_EDGE;
            }
        }
        self.edges[id.index()] = None;
        self.live_edges -= 1;
        self.touch(edge.from.node);
        self.touch(edge.to.node);
        Ok(edge)
    }

    /// Removes a node and every edge attached to it, returning its kind.
    ///
    /// The attached edges are collected from the node's own port lists, so
    /// removal costs O(degree) instead of a scan over the whole edge table.
    ///
    /// # Errors
    /// [`CdfgError::UnknownNode`] if the node does not exist.
    pub fn remove_node(&mut self, id: NodeId) -> Result<NodeKind, CdfgError> {
        let node = self.node(id)?;
        let mut attached: Vec<EdgeId> = node.input_edges().collect();
        attached.extend(
            node.ports
                .out_edges()
                .iter()
                .map(|raw| EdgeId::from_index(*raw as usize)),
        );
        // A self-edge appears in both the input and the output port lists;
        // deduplicate so it is disconnected exactly once.
        attached.sort_unstable();
        attached.dedup();
        for eid in attached {
            self.disconnect(eid)?;
        }
        self.live_nodes -= 1;
        self.touch(id);
        let kind = self.kinds[id.index()].take().expect("checked above");
        self.ports[id.index()] = PortRecord::default();
        Ok(kind)
    }

    /// Source endpoint driving input port `port` of `node`, if connected.
    pub fn input_source(&self, node: NodeId, port: usize) -> Option<Endpoint> {
        let n = self.node(node).ok()?;
        let eid = n.input_edge(port)?;
        self.edge(eid).ok().map(|e| e.from)
    }

    /// All `(node, port)` endpoints consuming output port `port` of `node`.
    ///
    /// Allocates the result; [`Cdfg::output_sinks_iter`] is the
    /// allocation-free variant for hot paths.
    pub fn output_sinks(&self, node: NodeId, port: usize) -> Vec<Endpoint> {
        self.output_sinks_iter(node, port).collect()
    }

    /// Iterates over the `(node, port)` endpoints consuming output port
    /// `port` of `node`, without allocating.
    pub fn output_sinks_iter(
        &self,
        node: NodeId,
        port: usize,
    ) -> impl Iterator<Item = Endpoint> + '_ {
        self.node(node)
            .into_iter()
            .flat_map(move |n| n.ports.port_out_edges(&self.edges, port))
            .filter_map(|raw| self.edge_at(raw).map(|e| e.to))
    }

    /// Iterates over every sink endpoint of `node` across all output ports,
    /// in connect order, without allocating.  Duplicate target nodes are
    /// *not* removed — one entry per edge.
    pub fn sink_endpoints(&self, node: NodeId) -> impl Iterator<Item = Endpoint> + '_ {
        let outs = match self.node(node) {
            Ok(n) => n.ports.out_edges(),
            Err(_) => &[],
        };
        outs.iter()
            .filter_map(|raw| self.edge_at(*raw).map(|e| e.to))
    }

    /// Iterates over the source endpoints driving `node`'s input ports, in
    /// port order, without allocating.  Duplicate source nodes are *not*
    /// removed — one entry per connected port.
    pub fn source_endpoints(&self, node: NodeId) -> impl Iterator<Item = Endpoint> + '_ {
        let ins = match self.node(node) {
            Ok(n) => n.ports.in_slots(),
            Err(_) => &[],
        };
        ins.iter()
            .filter(|raw| **raw != NO_EDGE)
            .filter_map(|raw| self.edge_at(*raw).map(|e| e.from))
    }

    /// The live edge with raw id `raw`, if any.
    fn edge_at(&self, raw: u32) -> Option<&Edge> {
        self.edges.get(raw as usize).and_then(Option::as_ref)
    }

    /// Predecessor nodes of `node` (one entry per connected input port, in
    /// port order, deduplicated).
    pub fn predecessors(&self, node: NodeId) -> Vec<NodeId> {
        let mut preds = Vec::new();
        for source in self.source_endpoints(node) {
            if !preds.contains(&source.node) {
                preds.push(source.node);
            }
        }
        preds
    }

    /// Successor nodes of `node` (deduplicated, in port order then connect
    /// order).
    pub fn successors(&self, node: NodeId) -> Vec<NodeId> {
        let Ok(n) = self.node(node) else {
            return Vec::new();
        };
        let mut succs = Vec::new();
        // Linear scan for small fan-outs; a hash set above that (constants
        // shared by hundreds of consumers would otherwise make this
        // quadratic).
        let mut seen: Option<std::collections::HashSet<NodeId>> = None;
        for port in 0..n.output_count() {
            for eid in n.output_edges(port) {
                if let Ok(edge) = self.edge(eid) {
                    let to = edge.to.node;
                    let fresh = match &mut seen {
                        Some(set) => set.insert(to),
                        None => {
                            if succs.len() >= 16 {
                                let mut set: std::collections::HashSet<NodeId> =
                                    succs.iter().copied().collect();
                                let fresh = set.insert(to);
                                seen = Some(set);
                                fresh
                            } else {
                                !succs.contains(&to)
                            }
                        }
                    };
                    if fresh {
                        succs.push(to);
                    }
                }
            }
        }
        succs
    }

    /// Rewires every consumer of output `from_port` of `from` so that it is
    /// driven by output `to_port` of `to` instead, returning the number of
    /// rewired edges.
    ///
    /// This is the workhorse of the transformation passes ("replace all uses
    /// of X with Y").
    ///
    /// # Errors
    /// Propagates [`CdfgError::UnknownNode`]/[`CdfgError::PortOutOfRange`]
    /// errors from the underlying connect operations.
    pub fn replace_uses(
        &mut self,
        from: NodeId,
        from_port: usize,
        to: NodeId,
        to_port: usize,
    ) -> Result<usize, CdfgError> {
        let uses: Vec<Endpoint> = self.output_sinks(from, from_port);
        let mut moved = 0;
        for sink in uses {
            let eid = self.node(sink.node)?.input_edge(sink.port_index()).ok_or(
                CdfgError::PortUnconnected {
                    node: sink.node,
                    port: sink.port_index(),
                },
            )?;
            self.disconnect(eid)?;
            self.connect(to, to_port, sink.node, sink.port_index())?;
            moved += 1;
        }
        Ok(moved)
    }

    // ------------------------------------------------------------------
    // Interface nodes
    // ------------------------------------------------------------------

    /// All `Input` nodes as `(name, id)` pairs in id order.
    pub fn inputs(&self) -> Vec<(String, NodeId)> {
        self.nodes()
            .filter_map(|(id, n)| match &n.kind {
                NodeKind::Input(name) => Some((name.clone(), id)),
                _ => None,
            })
            .collect()
    }

    /// All `Output` nodes as `(name, id)` pairs in id order.
    pub fn outputs(&self) -> Vec<(String, NodeId)> {
        self.nodes()
            .filter_map(|(id, n)| match &n.kind {
                NodeKind::Output(name) => Some((name.clone(), id)),
                _ => None,
            })
            .collect()
    }

    /// Finds the first `Input` node with the given name.
    pub fn input_named(&self, name: &str) -> Option<NodeId> {
        self.nodes().find_map(|(id, n)| match n.kind {
            NodeKind::Input(input) if input == name => Some(id),
            _ => None,
        })
    }

    /// Finds the first `Output` node with the given name.
    pub fn output_named(&self, name: &str) -> Option<NodeId> {
        self.nodes().find_map(|(id, n)| match n.kind {
            NodeKind::Output(output) if output == name => Some(id),
            _ => None,
        })
    }

    // ------------------------------------------------------------------
    // Ordering
    // ------------------------------------------------------------------

    /// Topological order of all live nodes (Kahn's algorithm).
    ///
    /// Allocates fresh buffers per call; the worklist driver and other
    /// repeat callers should hold a [`TopoScratch`] and use
    /// [`Cdfg::topo_order_into`] instead.
    ///
    /// # Errors
    /// [`CdfgError::CycleDetected`] when the graph contains a cycle.
    pub fn topo_order(&self) -> Result<Vec<NodeId>, CdfgError> {
        let mut scratch = TopoScratch::new();
        self.topo_order_into(&mut scratch)?;
        Ok(std::mem::take(&mut scratch.order))
    }

    /// Topological order of all live nodes into reusable scratch buffers:
    /// the allocation-free variant of [`Cdfg::topo_order`].  On success the
    /// order is available as [`TopoScratch::order`].
    ///
    /// # Errors
    /// [`CdfgError::CycleDetected`] when the graph contains a cycle.
    pub fn topo_order_into(&self, scratch: &mut TopoScratch) -> Result<(), CdfgError> {
        let bound = self.node_bound();
        scratch.in_deg.clear();
        scratch.in_deg.resize(bound, 0);
        // `counts` is zeroed between visits below, so only its size needs
        // refreshing here.
        scratch.counts.resize(bound, 0);
        scratch.distinct.clear();
        scratch.ready.clear();
        scratch.order.clear();

        let mut live = 0usize;
        for (id, node) in self.nodes() {
            live += 1;
            let connected = node
                .ports
                .in_slots()
                .iter()
                .filter(|raw| **raw != NO_EDGE)
                .count() as u32;
            scratch.in_deg[id.index()] = connected;
            if connected == 0 {
                scratch.ready.push(id);
            }
        }
        scratch.order.reserve(live);
        while let Some(id) = scratch.ready.pop() {
            scratch.order.push(id);
            // Distinct successors in port order then connect order, each
            // with its edge multiplicity, using the zeroed `counts` table as
            // the seen-marker.
            let record = &self.ports[id.index()];
            let edge = |raw: u32| {
                self.edges[raw as usize]
                    .as_ref()
                    .expect("port lists only hold live edges")
            };
            fn count(counts: &mut [u32], distinct: &mut Vec<NodeId>, to: NodeId) {
                if counts[to.index()] == 0 {
                    distinct.push(to);
                }
                counts[to.index()] += 1;
            }
            if record.out_ports > 1 {
                // A node with several output ports (a loop) lists its edges
                // in connect order across ports: sort them by port once,
                // stably, instead of scanning the list once per port.
                scratch.sinks.clear();
                scratch.sinks.extend(record.out_edges().iter().map(|&raw| {
                    let edge = edge(raw);
                    (edge.from.port, edge.to.node)
                }));
                scratch.sinks.sort_by_key(|&(port, _)| port);
                for &(_, to) in &scratch.sinks {
                    count(&mut scratch.counts, &mut scratch.distinct, to);
                }
            } else {
                for &raw in record.out_edges() {
                    count(
                        &mut scratch.counts,
                        &mut scratch.distinct,
                        edge(raw).to.node,
                    );
                }
            }
            // A successor may be connected through several ports; decrement
            // once per connecting edge.  A successor's counter reaches zero
            // exactly once (each predecessor is processed once), so it is
            // pushed exactly once — no membership scan needed.
            for i in 0..scratch.distinct.len() {
                let succ = scratch.distinct[i];
                let multiplicity = std::mem::take(&mut scratch.counts[succ.index()]);
                let slot = &mut scratch.in_deg[succ.index()];
                let was_positive = *slot > 0;
                *slot = slot.saturating_sub(multiplicity);
                if *slot == 0 && was_positive {
                    scratch.ready.push(succ);
                }
            }
            scratch.distinct.clear();
        }
        if scratch.order.len() == live {
            Ok(())
        } else {
            Err(CdfgError::CycleDetected)
        }
    }

    /// `true` when the graph is acyclic.
    pub fn is_acyclic(&self) -> bool {
        self.topo_order().is_ok()
    }

    /// Rebuilds the graph without holes, returning the compacted graph and a
    /// dense mapping from old to new node ids.
    ///
    /// The result is exactly sized: its node and edge arenas reserve the live
    /// counts and nothing more.  Live nodes keep their relative order (the
    /// remap is strictly increasing) and edges are re-created in id order, so
    /// [`Cdfg::edges`] yields the same sequence.  Edge ids grow in connect
    /// order, so every output port also keeps its sink order, and walks that
    /// follow id or connect order (the topological sort, extraction) visit
    /// the compacted graph in the same order as the original.
    pub fn compact(&self) -> (Cdfg, NodeRemap) {
        let mut out = Cdfg {
            name: self.name.clone(),
            kinds: Vec::with_capacity(self.live_nodes),
            ports: Vec::with_capacity(self.live_nodes),
            edges: Vec::with_capacity(self.live_edges),
            ..Cdfg::default()
        };
        let mut remap = NodeRemap::with_bound(self.node_bound());
        for (id, node) in self.nodes() {
            let new_id = out.add_node(node.kind.clone());
            remap.insert(id, new_id);
        }
        for (_, edge) in self.edges() {
            let from = remap[edge.from.node];
            let to = remap[edge.to.node];
            out.connect(from, edge.from.port_index(), to, edge.to.port_index())
                .expect("edges of a well-formed graph remain connectable");
        }
        (out, remap)
    }

    /// Splices one copy of `body`'s operations into this graph, wired to
    /// host values instead of the body's interface nodes, which are not
    /// copied: one iteration of complete loop unrolling.
    ///
    /// `inputs[k]` is the host endpoint bound to the `k`-th `Input` of `body`
    /// in id order; every consumer of that input is driven by it directly.
    /// Returns, for every `Output` of `body` in id order, the host endpoint
    /// that carries its value: the copy of the operation feeding it, or the
    /// endpoint bound to the input feeding it (`None` when it is undriven).
    ///
    /// The copies are created in body id order, then the internal edges are
    /// connected in body edge order, then the edges from the bound inputs
    /// (inputs in id order, each input's edges in body edge order).  That is
    /// the relative node and edge order a verbatim copy would leave once its
    /// interface nodes were rewired away and removed, so [`Cdfg::compact`]
    /// hands on the same graph either way.
    ///
    /// # Errors
    /// [`CdfgError::Invalid`] when `inputs` does not bind every body `Input`
    /// exactly once, [`CdfgError::UnknownNode`] or
    /// [`CdfgError::PortOutOfRange`] when a bound endpoint is not an output
    /// port of a live host node.  The graph is left unchanged on error.
    pub fn splice(
        &mut self,
        body: &Cdfg,
        inputs: &[Endpoint],
    ) -> Result<Vec<Option<Endpoint>>, CdfgError> {
        let is_input = |id: NodeId| matches!(body.kind(id), Ok(NodeKind::Input(_)));
        let is_output = |id: NodeId| matches!(body.kind(id), Ok(NodeKind::Output(_)));
        let body_inputs = body.node_ids().filter(|id| is_input(*id)).count();
        if inputs.len() != body_inputs {
            return Err(CdfgError::Invalid(format!(
                "splice binds {} endpoints to {body_inputs} body inputs",
                inputs.len()
            )));
        }
        for bound in inputs {
            let arity = self.node(bound.node)?.output_count();
            if bound.port_index() >= arity {
                return Err(CdfgError::PortOutOfRange {
                    node: bound.node,
                    port: bound.port_index(),
                    arity,
                    is_input: false,
                });
            }
        }
        // Where port 0 of each body node lands in the host: port 0 of its
        // copy, or the endpoint bound to an input (whose only port is 0).
        let mut host: Vec<Option<Endpoint>> = vec![None; body.node_bound()];
        let at = |host: &[Option<Endpoint>], end: Endpoint| {
            let base = host[end.node.index()].expect("body edges join body nodes");
            Endpoint::new(base.node, base.port_index() + end.port_index())
        };
        let mut bound = inputs.iter();
        for (id, node) in body.nodes() {
            host[id.index()] = match node.kind {
                NodeKind::Input(_) => bound.next().copied(),
                NodeKind::Output(_) => None,
                kind => Some(Endpoint::new(self.add_node(kind.clone()), 0)),
            };
        }
        let (mut from_inputs, internal): (Vec<Edge>, Vec<Edge>) = body
            .edges()
            .map(|(_, edge)| *edge)
            .filter(|edge| !is_output(edge.to.node))
            .partition(|edge| is_input(edge.from.node));
        // Stable: each input keeps its edges in body edge order.
        from_inputs.sort_by_key(|edge| edge.from.node);
        for edge in internal.into_iter().chain(from_inputs) {
            let (from, to) = (at(&host, edge.from), at(&host, edge.to));
            self.connect(from.node, from.port_index(), to.node, to.port_index())
                .expect("body edges and bound endpoints remain connectable");
        }
        Ok(body
            .nodes()
            .filter(|(id, _)| is_output(*id))
            .map(|(id, _)| body.input_source(id, 0).map(|src| at(&host, src)))
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::BinOp;
    use std::collections::HashMap;

    fn mac_graph() -> (Cdfg, NodeId, NodeId, NodeId, NodeId, NodeId, NodeId) {
        let mut g = Cdfg::new("mac");
        let a = g.add_node(NodeKind::Input("a".into()));
        let b = g.add_node(NodeKind::Input("b".into()));
        let c = g.add_node(NodeKind::Input("c".into()));
        let mul = g.add_node(NodeKind::BinOp(BinOp::Mul));
        let add = g.add_node(NodeKind::BinOp(BinOp::Add));
        let out = g.add_node(NodeKind::Output("out".into()));
        g.connect(a, 0, mul, 0).unwrap();
        g.connect(b, 0, mul, 1).unwrap();
        g.connect(mul, 0, add, 0).unwrap();
        g.connect(c, 0, add, 1).unwrap();
        g.connect(add, 0, out, 0).unwrap();
        (g, a, b, c, mul, add, out)
    }

    #[test]
    fn build_and_count() {
        let (g, ..) = mac_graph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        assert_eq!(g.inputs().len(), 3);
        assert_eq!(g.outputs().len(), 1);
        assert_eq!(g.name(), "mac");
    }

    #[test]
    fn connect_rejects_bad_ports() {
        let mut g = Cdfg::new("t");
        let a = g.add_node(NodeKind::Const(1));
        let add = g.add_node(NodeKind::BinOp(BinOp::Add));
        assert!(matches!(
            g.connect(a, 1, add, 0),
            Err(CdfgError::PortOutOfRange {
                is_input: false,
                ..
            })
        ));
        assert!(matches!(
            g.connect(a, 0, add, 2),
            Err(CdfgError::PortOutOfRange { is_input: true, .. })
        ));
        g.connect(a, 0, add, 0).unwrap();
        assert!(matches!(
            g.connect(a, 0, add, 0),
            Err(CdfgError::PortAlreadyDriven { .. })
        ));
    }

    #[test]
    fn connect_rejects_unknown_nodes() {
        let mut g = Cdfg::new("t");
        let a = g.add_node(NodeKind::Const(1));
        let ghost = NodeId::from_index(99);
        assert!(matches!(
            g.connect(a, 0, ghost, 0),
            Err(CdfgError::UnknownNode(_))
        ));
        assert!(matches!(
            g.connect(ghost, 0, a, 0),
            Err(CdfgError::UnknownNode(_))
        ));
    }

    #[test]
    fn predecessors_and_successors() {
        let (g, a, b, c, mul, add, out) = mac_graph();
        assert_eq!(g.predecessors(mul), vec![a, b]);
        assert_eq!(g.predecessors(add), vec![mul, c]);
        assert_eq!(g.successors(mul), vec![add]);
        assert_eq!(g.successors(add), vec![out]);
        assert!(g.predecessors(a).is_empty());
        assert!(g.successors(out).is_empty());
    }

    #[test]
    fn node_view_connectivity() {
        let (g, a, _b, _c, mul, add, out) = mac_graph();
        let mul_view = g.node(mul).unwrap();
        assert_eq!(mul_view.input_count(), 2);
        assert_eq!(mul_view.output_count(), 1);
        assert!(mul_view.fully_connected());
        assert_eq!(mul_view.fanout(), 1);
        assert_eq!(mul_view.output_edges(5).count(), 0);
        assert!(g.node(out).unwrap().input_edge(0).is_some());
        let a_view = g.node(a).unwrap();
        assert_eq!(a_view.input_count(), 0);
        assert_eq!(a_view.fanout(), 1);
        assert!(g.node(add).unwrap().input_edge(1).is_some());
    }

    #[test]
    fn inline_ports_spill_on_high_fanout() {
        // A constant fanned out to more consumers than the inline capacity
        // exercises the heap-spill path of the out-edge list.
        let mut g = Cdfg::new("fanout");
        let c = g.add_node(NodeKind::Const(7));
        let mut sinks = Vec::new();
        for i in 0..INLINE_SLOTS + 3 {
            let out = g.add_node(NodeKind::Output(format!("o{i}")));
            g.connect(c, 0, out, 0).unwrap();
            sinks.push(out);
        }
        assert_eq!(g.node(c).unwrap().fanout(), INLINE_SLOTS + 3);
        let observed: Vec<NodeId> = g.output_sinks(c, 0).iter().map(|e| e.node).collect();
        assert_eq!(observed, sinks);
        // Disconnecting from a spilled list keeps the remaining order.
        let first = g.node(c).unwrap().output_edges(0).next().unwrap();
        g.disconnect(first).unwrap();
        let observed: Vec<NodeId> = g.output_sinks(c, 0).iter().map(|e| e.node).collect();
        assert_eq!(observed, sinks[1..]);
        // Shrunk below the inline capacity, the record stays spilled, yet it
        // equals an inline record built with the same entries.
        while g.node(c).unwrap().fanout() > 2 {
            let edge = g.node(c).unwrap().output_edges(0).nth(1).unwrap();
            g.disconnect(edge).unwrap();
        }
        let spilled = &g.ports[c.index()];
        let mut inline = PortRecord::new(usize::from(spilled.ins), usize::from(spilled.out_ports));
        for &edge in spilled.out_edges() {
            inline.push_out(edge);
        }
        assert!(matches!(spilled.slots, Slots::Spilled(_)));
        assert!(matches!(inline.slots, Slots::Inline(_)));
        assert_eq!(&inline, spilled);
    }

    #[test]
    fn disconnect_and_remove() {
        let (mut g, _a, _b, _c, mul, add, _out) = mac_graph();
        let eid = g.node(add).unwrap().input_edge(0).unwrap();
        let edge = g.disconnect(eid).unwrap();
        assert_eq!(edge.from.node, mul);
        assert_eq!(g.edge_count(), 4);
        assert!(g.node(add).unwrap().input_edge(0).is_none());

        let kind = g.remove_node(mul).unwrap();
        assert_eq!(kind, NodeKind::BinOp(BinOp::Mul));
        assert!(!g.contains_node(mul));
        assert!(matches!(g.node(mul), Err(CdfgError::UnknownNode(_))));
        // Edges from a and b into mul are gone too.
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn replace_uses_rewires_consumers() {
        let (mut g, _a, _b, c, mul, add, _out) = mac_graph();
        // Replace uses of mul's output with c: add.0 should now be driven by c.
        let moved = g.replace_uses(mul, 0, c, 0).unwrap();
        assert_eq!(moved, 1);
        assert_eq!(g.input_source(add, 0).unwrap().node, c);
        assert!(g.output_sinks(mul, 0).is_empty());
    }

    #[test]
    fn topo_order_is_consistent() {
        let (g, ..) = mac_graph();
        let order = g.topo_order().unwrap();
        assert_eq!(order.len(), 6);
        let pos: HashMap<NodeId, usize> =
            order.iter().enumerate().map(|(i, id)| (*id, i)).collect();
        for (_, edge) in g.edges() {
            assert!(pos[&edge.from.node] < pos[&edge.to.node]);
        }
    }

    #[test]
    fn topo_scratch_is_reusable() {
        let (mut g, ..) = mac_graph();
        let mut scratch = TopoScratch::new();
        g.topo_order_into(&mut scratch).unwrap();
        let first: Vec<NodeId> = scratch.order().to_vec();
        assert_eq!(first, g.topo_order().unwrap());
        // Mutate, then reuse the same scratch: the result tracks the graph.
        let extra = g.add_node(NodeKind::Const(3));
        g.topo_order_into(&mut scratch).unwrap();
        assert_eq!(scratch.order().len(), 7);
        assert!(scratch.order().contains(&extra));
    }

    #[test]
    fn remove_node_handles_self_edges() {
        let mut g = Cdfg::new("self");
        let x = g.add_node(NodeKind::Copy);
        g.connect(x, 0, x, 0).unwrap();
        assert_eq!(g.edge_count(), 1);
        g.remove_node(x).unwrap();
        assert!(!g.contains_node(x));
        assert_eq!(g.node_count(), 0);
        assert_eq!(g.edge_count(), 0);
    }

    #[test]
    fn cycle_detection() {
        let mut g = Cdfg::new("cyc");
        let x = g.add_node(NodeKind::Copy);
        let y = g.add_node(NodeKind::Copy);
        g.connect(x, 0, y, 0).unwrap();
        g.connect(y, 0, x, 0).unwrap();
        assert!(!g.is_acyclic());
        assert!(matches!(g.topo_order(), Err(CdfgError::CycleDetected)));
    }

    #[test]
    fn compact_preserves_structure() {
        let (mut g, _a, _b, _c, mul, _add, _out) = mac_graph();
        g.remove_node(mul).unwrap();
        let (compacted, remap) = g.compact();
        assert_eq!(compacted.node_count(), 5);
        assert_eq!(compacted.edge_count(), g.edge_count());
        assert_eq!(remap.len(), 5);
        assert_eq!(compacted.node_bound(), 5);
        assert_eq!(remap.get(mul), None);
    }

    #[test]
    fn splice_binds_inputs_and_copies_no_interface_node() {
        let (mut g, a, b, c, mul, add, _out) = mac_graph();
        let (body, ..) = mac_graph();
        let before_nodes = g.node_count();
        let before_edges = g.edge_count();
        // Feed the body `a * b + c` with the host's `mul`, `c` and `add`.
        let bound = [mul, c, add].map(|id| Endpoint::new(id, 0));
        let produced = g.splice(&body, &bound).unwrap();
        // Only the body's two operations are copied; the three input edges
        // and the internal edge are re-created, the output edge is not.
        assert_eq!(g.node_count(), before_nodes + 2);
        assert_eq!(g.node_bound(), before_nodes + 2);
        assert_eq!(g.edge_count(), before_edges + 4);
        let sum = produced[0].unwrap();
        let product = g.input_source(sum.node, 0).unwrap();
        assert_eq!(g.kind(product.node).unwrap(), &NodeKind::BinOp(BinOp::Mul));
        assert_eq!(g.input_source(product.node, 0).unwrap().node, mul);
        assert_eq!(g.input_source(product.node, 1).unwrap().node, c);
        assert_eq!(g.input_source(sum.node, 1).unwrap().node, add);
        // Wrong bindings are rejected before anything is copied.
        let bound_edges = g.edge_count();
        assert!(matches!(
            g.splice(&body, &[Endpoint::new(a, 0)]),
            Err(CdfgError::Invalid(_))
        ));
        assert!(matches!(
            g.splice(&body, &[a, b, mul].map(|id| Endpoint::new(id, 1))),
            Err(CdfgError::PortOutOfRange { .. })
        ));
        assert_eq!(g.node_bound(), before_nodes + 2);
        assert_eq!(g.edge_count(), bound_edges);
    }

    #[test]
    fn splice_passes_a_bound_input_straight_to_an_output() {
        let mut body = Cdfg::new("through");
        let x = body.add_node(NodeKind::Input("x".into()));
        let y = body.add_node(NodeKind::Output("y".into()));
        body.add_node(NodeKind::Output("undriven".into()));
        body.connect(x, 0, y, 0).unwrap();
        let (mut g, _a, _b, _c, mul, ..) = mac_graph();
        let before = g.clone();
        let produced = g.splice(&body, &[Endpoint::new(mul, 0)]).unwrap();
        assert_eq!(produced, vec![Some(Endpoint::new(mul, 0)), None]);
        assert_eq!(g, before);
    }

    #[test]
    fn cached_counts_track_every_mutation() {
        let (mut g, _a, _b, _c, mul, add, _out) = mac_graph();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 5);
        let eid = g.node(add).unwrap().input_edge(1).unwrap();
        g.disconnect(eid).unwrap();
        assert_eq!(g.edge_count(), 4);
        g.remove_node(mul).unwrap();
        assert_eq!(g.node_count(), 5);
        assert_eq!(g.edge_count(), 1);
        let extra = g.add_node(NodeKind::Const(1));
        g.connect(extra, 0, add, 0).unwrap();
        assert_eq!(g.node_count(), 6);
        assert_eq!(g.edge_count(), 2);
        // Splice and compact keep the caches consistent too.
        let (other, ..) = mac_graph();
        g.splice(&other, &[Endpoint::new(extra, 0); 3]).unwrap();
        assert_eq!(g.node_count(), 8);
        assert_eq!(g.edge_count(), 6);
        let (compacted, _) = g.compact();
        assert_eq!(compacted.node_count(), 8);
        assert_eq!(compacted.edge_count(), 6);
        // The caches agree with a full scan.
        assert_eq!(g.node_count(), g.nodes().count());
        assert_eq!(g.edge_count(), g.edges().count());
    }

    #[test]
    fn journal_records_each_touched_node_once_per_drain() {
        let (mut g, _a, _b, c, mul, add, out) = mac_graph();
        let drain = |g: &mut Cdfg| {
            let mut touched = Vec::new();
            g.drain_touched_into(&mut touched);
            touched
        };
        assert!(!g.journal_enabled());
        assert!(drain(&mut g).is_empty());
        g.enable_journal();
        assert!(g.journal_enabled());

        let n = g.add_node(NodeKind::Const(9));
        assert_eq!(drain(&mut g), vec![n]);

        g.connect(n, 0, add, 0).unwrap_err(); // port already driven: no record
        assert!(drain(&mut g).is_empty());

        // replace_uses disconnects and reconnects `add`'s first port: the
        // old source, the consumer and the new source, each recorded once.
        g.replace_uses(mul, 0, c, 0).unwrap();
        assert_eq!(drain(&mut g), vec![mul, add, c]);

        // After a drain the same nodes are recorded again: `add` loses both
        // input edges, then the node itself goes.
        g.remove_node(add).unwrap();
        assert_eq!(drain(&mut g), vec![c, add, out]);

        let journal = g.disable_journal().unwrap();
        assert!(journal.is_empty());
        g.add_node(NodeKind::Const(0));
        assert!(drain(&mut g).is_empty());
    }

    #[test]
    fn equality_ignores_journal_state() {
        let (mut g1, ..) = mac_graph();
        let (g2, ..) = mac_graph();
        assert_eq!(g1, g2);
        g1.enable_journal();
        assert_eq!(g1, g2);
    }

    #[test]
    fn interface_lookup() {
        let (g, a, ..) = mac_graph();
        assert_eq!(g.input_named("a"), Some(a));
        assert_eq!(g.input_named("missing"), None);
        assert!(g.output_named("out").is_some());
    }
}
