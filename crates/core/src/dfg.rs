//! The mapping IR: a loop-free data-path graph extracted from a CDFG.
//!
//! The clustering, scheduling and allocation phases do not work on the CDFG
//! directly; they work on a simpler view of it:
//!
//! * **operations** ([`MapOp`]) — the word operations that must execute on an
//!   ALU (binary/unary operators and multiplexers);
//! * **values** ([`ValueRef`]) — constants, scalar kernel inputs, words of
//!   the initial statespace (`FE` of a constant address) and operation
//!   results;
//! * **memory writes** ([`MemWrite`]) — `ST` primitives, i.e. values that
//!   must be committed to the statespace address they target;
//! * **scalar outputs** — named kernel results.
//!
//! [`MappingGraph::from_cdfg`] performs the extraction and rejects graphs the
//! mapper cannot handle: remaining loops, non-constant statespace addresses,
//! conditional statespace updates and `DEL` primitives (all listed as future
//! work in the paper).
//!
//! # Flat layout
//!
//! The graph is immutable once extracted, so it is frozen, once, into a few
//! exactly sized arrays: one row per operation (its kind and where its
//! inputs and consumers end), every operation's inputs in one array, the
//! consumer index in another (compressed sparse row: the consumers of op
//! `p` follow those of op `p - 1`), and the scalar names in [`Names`]
//! tables.  Extraction stages the operations in growable vectors and the
//! binary codec decodes into the same vectors; both freeze them through one
//! constructor, which derives the consumer index.  The codec's byte format
//! is the nested layout's, unchanged, so records written before the
//! flattening still decode.
//! Readers see slices: [`MappingGraph::op`] gives an operation's kind and
//! inputs, [`MappingGraph::consumers`] its consumers.

use crate::error::MapError;
use fpfa_cdfg::{BinOp, Cdfg, NodeId, NodeKind, UnOp};
use std::collections::HashMap;
use std::fmt;

/// Identifier of an operation inside a [`MappingGraph`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct OpId(pub(crate) u32);

impl OpId {
    /// Raw index of the operation.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OpId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op{}", self.0)
    }
}

/// A word value available during execution of the mapped program.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ValueRef {
    /// A compile-time constant (becomes an immediate in the configuration).
    Const(i64),
    /// A named scalar kernel input (index into
    /// [`MappingGraph::scalar_inputs`]).
    ScalarInput(u32),
    /// A word of the *initial* statespace at the given address.
    MemWord(i64),
    /// The result of an operation.
    Op(OpId),
}

impl ValueRef {
    /// `true` when the value needs no storage resource (it is an immediate).
    pub fn is_const(&self) -> bool {
        matches!(self, ValueRef::Const(_))
    }
}

impl fmt::Display for ValueRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValueRef::Const(c) => write!(f, "#{c}"),
            ValueRef::ScalarInput(i) => write!(f, "in{i}"),
            ValueRef::MemWord(a) => write!(f, "mem[{a}]"),
            ValueRef::Op(id) => write!(f, "{id}"),
        }
    }
}

/// The kind of an ALU operation.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum OpKind {
    /// A binary word operation.
    Bin(BinOp),
    /// A unary word operation.
    Un(UnOp),
    /// A multiplexer (`inputs[0] != 0 ? inputs[1] : inputs[2]`).
    Mux,
}

impl OpKind {
    /// `true` for multiplications (the scarce ALU resource).
    pub fn is_multiply(&self) -> bool {
        matches!(self, OpKind::Bin(BinOp::Mul))
    }

    /// Short mnemonic.
    pub fn mnemonic(&self) -> String {
        match self {
            OpKind::Bin(op) => op.mnemonic().to_string(),
            OpKind::Un(op) => op.mnemonic().to_string(),
            OpKind::Mux => "mux".to_string(),
        }
    }
}

/// One ALU operation of the mapping graph: a view into the graph's flat
/// arrays.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MapOp<'g> {
    /// What the operation computes.
    pub kind: OpKind,
    /// Input values in port order.
    pub inputs: &'g [ValueRef],
}

/// A value that must be committed to the statespace.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct MemWrite {
    /// Target statespace address.
    pub address: i64,
    /// The value to store.
    pub value: ValueRef,
    /// Program order of the write (writes to the same address must commit in
    /// increasing `seq` order).
    pub seq: usize,
}

/// Strings packed into one buffer, in index order: the name table of the
/// flat layout (two heap blocks however many names it holds).
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Names {
    text: Box<str>,
    /// `ends[i]` is the end of name `i` in `text`; it starts where name
    /// `i - 1` ends.
    ends: Box<[u32]>,
}

impl Names {
    /// Number of names.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` when the table holds no name.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// The name with the given index, if any.
    pub fn get(&self, index: usize) -> Option<&str> {
        let end = *self.ends.get(index)? as usize;
        let start = index.checked_sub(1).map_or(0, |i| self.ends[i] as usize);
        self.text.get(start..end)
    }

    /// All names in index order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &str> + '_ {
        let mut start = 0;
        self.ends.iter().map(move |&end| {
            let name = &self.text[start..end as usize];
            start = end as usize;
            name
        })
    }
}

impl<S: AsRef<str>> FromIterator<S> for Names {
    fn from_iter<I: IntoIterator<Item = S>>(names: I) -> Self {
        let mut text = String::new();
        let mut ends = Vec::new();
        for name in names {
            text.push_str(name.as_ref());
            ends.push(u32::try_from(text.len()).expect("a name table under 4 GiB"));
        }
        Names {
            text: text.into_boxed_str(),
            ends: ends.into_boxed_slice(),
        }
    }
}

/// Named values in the flat layout: a [`Names`] table and one value per
/// name.
#[derive(Clone, PartialEq, Debug)]
pub struct Named<T> {
    names: Names,
    values: Box<[T]>,
}

impl<T> Default for Named<T> {
    fn default() -> Self {
        Named {
            names: Names::default(),
            values: Box::default(),
        }
    }
}

impl<T: Copy> Named<T> {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` when there is no entry.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The values, in entry order.
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// `(name, value)` pairs in entry order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (&str, T)> + '_ {
        self.names.iter().zip(self.values.iter().copied())
    }
}

impl<S: AsRef<str>, T> FromIterator<(S, T)> for Named<T> {
    fn from_iter<I: IntoIterator<Item = (S, T)>>(entries: I) -> Self {
        let (names, values): (Vec<S>, Vec<T>) = entries.into_iter().unzip();
        Named {
            names: names.iter().collect(),
            values: values.into_boxed_slice(),
        }
    }
}

/// One operation's row in the flat layout: its kind and where its inputs
/// and consumers end in the graph's shared arrays (each starts where the
/// previous operation's ends).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) struct OpEntry {
    kind: OpKind,
    inputs_end: u32,
    consumers_end: u32,
}

impl OpEntry {
    /// An operation whose inputs end at `inputs_end`; the consumer range is
    /// filled in when the graph is frozen.
    pub(crate) fn new(kind: OpKind, inputs_end: usize) -> Self {
        OpEntry {
            kind,
            inputs_end: u32::try_from(inputs_end).expect("fewer than 2^32 operand references"),
            consumers_end: 0,
        }
    }
}

/// The loop-free data-path view of a kernel.
///
/// The graph is immutable once extracted, and frozen into a flat layout:
/// every operation's inputs sit in one array and its consumers in another
/// (a compressed sparse row index), each addressed by the per-operation
/// ends in one row array, and the scalar names in two string tables.  A
/// graph thus holds a dozen exactly sized heap blocks however many
/// operations it has.  [`MappingGraph::op`] and [`MappingGraph::consumers`]
/// read it through slices.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct MappingGraph {
    /// Kernel name (from the CDFG).
    pub name: String,
    /// Names of the scalar kernel inputs, indexed by
    /// [`ValueRef::ScalarInput`].
    pub scalar_inputs: Names,
    ops: Box<[OpEntry]>,
    inputs: Box<[ValueRef]>,
    /// Consumers of each op, distinct and in id order (built once at
    /// extraction: the clusterer asks for consumers on every merge
    /// candidate).
    consumers: Box<[OpId]>,
    /// Values that must be written back to the statespace.
    pub mem_writes: Vec<MemWrite>,
    /// Named scalar results.
    pub scalar_outputs: Named<ValueRef>,
    /// Statespace addresses read by the kernel (constant addresses of
    /// surviving `FE` nodes), sorted ascending, each once: the allocator
    /// finds an address's input row by binary search.
    pub mem_reads: Vec<i64>,
}

impl MappingGraph {
    /// Freezes a graph from its parts: `ops` in topological order, each
    /// ending its inputs at its `inputs_end` in `inputs`.  Derives the
    /// consumer index and sizes every array exactly (the one freeze step of
    /// both extraction and the binary codec's decode path).
    pub(crate) fn from_parts(
        name: String,
        scalar_inputs: Names,
        mut ops: Vec<OpEntry>,
        inputs: Vec<ValueRef>,
        mut mem_writes: Vec<MemWrite>,
        scalar_outputs: Named<ValueRef>,
        mut mem_reads: Vec<i64>,
    ) -> Self {
        // One (producer, consumer) edge per consuming op: an op using the
        // same producer on several ports still counts once.  A stable sort
        // by producer keeps each producer's consumers in id order.
        let mut edges: Vec<(OpId, OpId)> = Vec::new();
        let mut start = 0;
        for (consumer, op) in ops.iter().enumerate() {
            let first = edges.len();
            for input in &inputs[start..op.inputs_end as usize] {
                if let ValueRef::Op(producer) = *input {
                    let edge = (producer, OpId(consumer as u32));
                    if !edges[first..].contains(&edge) {
                        edges.push(edge);
                    }
                }
            }
            start = op.inputs_end as usize;
        }
        edges.sort_by_key(|&(producer, _)| producer);
        let mut end = 0;
        for (index, op) in ops.iter_mut().enumerate() {
            while edges
                .get(end)
                .is_some_and(|(producer, _)| producer.index() == index)
            {
                end += 1;
            }
            op.consumers_end = end as u32;
        }
        let consumers = edges.into_iter().map(|(_, consumer)| consumer).collect();
        mem_writes.shrink_to_fit();
        mem_reads.shrink_to_fit();
        ops.shrink_to_fit();
        MappingGraph {
            name,
            scalar_inputs,
            ops: ops.into_boxed_slice(),
            inputs: inputs.into_boxed_slice(),
            consumers,
            mem_writes,
            scalar_outputs,
            mem_reads,
        }
    }

    /// Number of ALU operations.
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// All operation ids in creation (topological) order.
    pub fn op_ids(&self) -> impl Iterator<Item = OpId> + '_ {
        (0..self.ops.len()).map(|i| OpId(i as u32))
    }

    /// Start of op `index`'s row in the shared arrays: where the previous
    /// op's row ends.
    fn row_start(&self, index: usize) -> (usize, usize) {
        index.checked_sub(1).map_or((0, 0), |previous| {
            let op = &self.ops[previous];
            (op.inputs_end as usize, op.consumers_end as usize)
        })
    }

    /// The operation with the given id.
    ///
    /// # Panics
    /// Panics when the id does not belong to this graph.
    pub fn op(&self, id: OpId) -> MapOp<'_> {
        let entry = self.ops[id.index()];
        let (start, _) = self.row_start(id.index());
        MapOp {
            kind: entry.kind,
            inputs: &self.inputs[start..entry.inputs_end as usize],
        }
    }

    /// Ids of the operations that consume the result of `id` (distinct, in
    /// id order).
    pub fn consumers(&self, id: OpId) -> &[OpId] {
        let Some(entry) = self.ops.get(id.index()) else {
            return &[];
        };
        let (_, start) = self.row_start(id.index());
        &self.consumers[start..entry.consumers_end as usize]
    }

    /// Ids of the operations whose results feed `id`.
    pub fn producers(&self, id: OpId) -> Vec<OpId> {
        self.op(id)
            .inputs
            .iter()
            .filter_map(|v| match v {
                ValueRef::Op(p) => Some(*p),
                _ => None,
            })
            .collect()
    }

    /// `true` when the result of `id` is observable outside the operation
    /// graph (a scalar output or a statespace write).
    pub fn is_externally_used(&self, id: OpId) -> bool {
        self.scalar_outputs.values().contains(&ValueRef::Op(id))
            || self.mem_writes.iter().any(|w| w.value == ValueRef::Op(id))
    }

    /// Number of multiplication operations.
    pub fn multiply_count(&self) -> usize {
        self.ops.iter().filter(|op| op.kind.is_multiply()).count()
    }

    /// Extracts the mapping IR from a loop-free, simplified CDFG.
    ///
    /// # Errors
    /// * [`MapError::LoopsRemain`] when loop nodes survive;
    /// * [`MapError::DynamicAddress`] for non-constant statespace addresses;
    /// * [`MapError::DeleteUnsupported`] for surviving `DEL` primitives;
    /// * [`MapError::UnmappableOperation`] for conditional statespace updates
    ///   (a `Mux` over statespace tokens).
    pub fn from_cdfg(graph: &Cdfg) -> Result<Self, MapError> {
        let loops = graph
            .nodes()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Loop(_)))
            .count();
        if loops > 0 {
            return Err(MapError::LoopsRemain { count: loops });
        }

        let mut out = Extraction::default();
        // Classification of values produced by each (node, port): either a
        // word value or a statespace token (represented by the node that
        // produced it, for chain walking).
        #[derive(Clone, Copy, PartialEq, Debug)]
        enum Produced {
            Word(ValueRef),
            State(NodeId),
        }
        let mut produced: HashMap<NodeId, Produced> = HashMap::new();
        let mut scalar_input_ids: HashMap<String, u32> = HashMap::new();
        let mut seq = 0usize;

        // Identify which Input nodes carry the statespace: an input is a
        // state input when some consumer uses it at the statespace port of a
        // statespace primitive.
        let state_inputs: Vec<NodeId> = graph
            .inputs()
            .iter()
            .filter(|(_, id)| {
                graph.output_sinks(*id, 0).iter().any(|sink| {
                    matches!(
                        graph.kind(sink.node),
                        Ok(NodeKind::Store) | Ok(NodeKind::Fetch) | Ok(NodeKind::Delete)
                    ) && sink.port == 0
                }) || graph.output_sinks(*id, 0).iter().all(|sink| {
                    // An input whose only consumers are outputs named like the
                    // statespace is also treated as state (identity kernels).
                    matches!(graph.kind(sink.node), Ok(NodeKind::Output(name)) if name == "mem")
                }) && graph
                    .inputs()
                    .iter()
                    .any(|(name, nid)| nid == id && name == "mem")
            })
            .map(|(_, id)| *id)
            .collect();

        let order = graph.topo_order().map_err(MapError::Graph)?;
        for id in order {
            let node = graph.node(id).map_err(MapError::Graph)?;
            let word_input =
                |port: usize, produced: &HashMap<NodeId, Produced>| -> Result<ValueRef, MapError> {
                    let src = graph.input_source(id, port).ok_or(MapError::Graph(
                        fpfa_cdfg::CdfgError::PortUnconnected { node: id, port },
                    ))?;
                    match produced.get(&src.node) {
                        Some(Produced::Word(v)) => Ok(*v),
                        Some(Produced::State(_)) | None => Err(MapError::UnmappableOperation {
                            node: id,
                            reason: "expected a word operand, found a statespace token".into(),
                        }),
                    }
                };
            let state_input =
                |port: usize, produced: &HashMap<NodeId, Produced>| -> Result<NodeId, MapError> {
                    let src = graph.input_source(id, port).ok_or(MapError::Graph(
                        fpfa_cdfg::CdfgError::PortUnconnected { node: id, port },
                    ))?;
                    match produced.get(&src.node) {
                        Some(Produced::State(n)) => Ok(*n),
                        _ => Err(MapError::UnmappableOperation {
                            node: id,
                            reason: "expected a statespace token".into(),
                        }),
                    }
                };

            match &node.kind {
                NodeKind::Const(c) => {
                    produced.insert(id, Produced::Word(ValueRef::Const(*c)));
                }
                NodeKind::Input(name) => {
                    if state_inputs.contains(&id) {
                        produced.insert(id, Produced::State(id));
                    } else {
                        let next = scalar_input_ids.len() as u32;
                        let index = *scalar_input_ids.entry(name.clone()).or_insert(next);
                        if index as usize == out.scalar_inputs.len() {
                            out.scalar_inputs.push(name.clone());
                        }
                        produced.insert(id, Produced::Word(ValueRef::ScalarInput(index)));
                    }
                }
                NodeKind::Copy => {
                    let src = graph.input_source(id, 0).ok_or(MapError::Graph(
                        fpfa_cdfg::CdfgError::PortUnconnected { node: id, port: 0 },
                    ))?;
                    let value = produced.get(&src.node).copied().ok_or_else(|| {
                        MapError::UnmappableOperation {
                            node: id,
                            reason: "copy of an unavailable value".into(),
                        }
                    })?;
                    produced.insert(id, value);
                }
                NodeKind::BinOp(op) => {
                    let inputs = [word_input(0, &produced)?, word_input(1, &produced)?];
                    let op_id = out.push_op(OpKind::Bin(*op), &inputs);
                    produced.insert(id, Produced::Word(ValueRef::Op(op_id)));
                }
                NodeKind::UnOp(op) => {
                    let op_id = out.push_op(OpKind::Un(*op), &[word_input(0, &produced)?]);
                    produced.insert(id, Produced::Word(ValueRef::Op(op_id)));
                }
                NodeKind::Mux => {
                    // A mux over statespace tokens (conditional store) cannot
                    // be mapped.
                    let all_words = (0..3).all(|port| {
                        graph
                            .input_source(id, port)
                            .and_then(|s| produced.get(&s.node))
                            .map(|p| matches!(p, Produced::Word(_)))
                            .unwrap_or(false)
                    });
                    if !all_words {
                        return Err(MapError::UnmappableOperation {
                            node: id,
                            reason: "conditional statespace update (mux over memory state)".into(),
                        });
                    }
                    let inputs = [
                        word_input(0, &produced)?,
                        word_input(1, &produced)?,
                        word_input(2, &produced)?,
                    ];
                    let op_id = out.push_op(OpKind::Mux, &inputs);
                    produced.insert(id, Produced::Word(ValueRef::Op(op_id)));
                }
                NodeKind::Fetch => {
                    let address = match word_input(1, &produced)? {
                        ValueRef::Const(a) => a,
                        _ => return Err(MapError::DynamicAddress { node: id }),
                    };
                    let mut chain = state_input(0, &produced)?;
                    // Walk the store chain back to the initial statespace,
                    // forwarding stored data when the addresses match.
                    let value = loop {
                        match graph.kind(chain).map_err(MapError::Graph)? {
                            NodeKind::Store => {
                                let store_addr = graph
                                    .input_source(chain, 1)
                                    .and_then(|s| produced.get(&s.node).copied())
                                    .and_then(|p| match p {
                                        Produced::Word(ValueRef::Const(a)) => Some(a),
                                        _ => None,
                                    })
                                    .ok_or(MapError::DynamicAddress { node: chain })?;
                                if store_addr == address {
                                    // Forward the stored data.
                                    let data_src = graph.input_source(chain, 2).ok_or(
                                        MapError::Graph(fpfa_cdfg::CdfgError::PortUnconnected {
                                            node: chain,
                                            port: 2,
                                        }),
                                    )?;
                                    match produced.get(&data_src.node) {
                                        Some(Produced::Word(v)) => break *v,
                                        _ => {
                                            return Err(MapError::UnresolvedStore {
                                                fetch: id,
                                                store: chain,
                                            })
                                        }
                                    }
                                }
                                chain = state_input_of(graph, chain)?;
                            }
                            NodeKind::Input(_) => {
                                out.mem_reads.push(address);
                                break ValueRef::MemWord(address);
                            }
                            _ => {
                                return Err(MapError::UnresolvedStore {
                                    fetch: id,
                                    store: chain,
                                })
                            }
                        }
                    };
                    produced.insert(id, Produced::Word(value));
                }
                NodeKind::Store => {
                    let address = match word_input(1, &produced)? {
                        ValueRef::Const(a) => a,
                        _ => return Err(MapError::DynamicAddress { node: id }),
                    };
                    let value = word_input(2, &produced)?;
                    let _upstream = state_input(0, &produced)?;
                    out.mem_writes.push(MemWrite {
                        address,
                        value,
                        seq,
                    });
                    seq += 1;
                    produced.insert(id, Produced::State(id));
                }
                NodeKind::Delete => {
                    return Err(MapError::DeleteUnsupported { node: id });
                }
                NodeKind::Output(name) => {
                    let src = graph.input_source(id, 0).ok_or(MapError::Graph(
                        fpfa_cdfg::CdfgError::PortUnconnected { node: id, port: 0 },
                    ))?;
                    match produced.get(&src.node) {
                        Some(Produced::Word(v)) => {
                            out.scalar_outputs.push((name.clone(), *v));
                        }
                        Some(Produced::State(_)) => {
                            // The final statespace: the memory writes already
                            // capture it.
                        }
                        None => {
                            return Err(MapError::UnmappableOperation {
                                node: id,
                                reason: "output of an unavailable value".into(),
                            })
                        }
                    }
                }
                NodeKind::Loop(_) => unreachable!("loops were counted above"),
            }
        }
        out.mem_reads.sort_unstable();
        out.mem_reads.dedup();
        Ok(MappingGraph::from_parts(
            graph.name().to_string(),
            out.scalar_inputs.iter().collect(),
            out.ops,
            out.inputs,
            out.mem_writes,
            out.scalar_outputs.into_iter().collect(),
            out.mem_reads,
        ))
    }
}

/// A graph under extraction, in growable form until
/// [`MappingGraph::from_parts`] freezes it.
#[derive(Default)]
struct Extraction {
    scalar_inputs: Vec<String>,
    ops: Vec<OpEntry>,
    inputs: Vec<ValueRef>,
    mem_writes: Vec<MemWrite>,
    scalar_outputs: Vec<(String, ValueRef)>,
    mem_reads: Vec<i64>,
}

impl Extraction {
    /// Appends an operation reading `inputs` and returns its id.
    fn push_op(&mut self, kind: OpKind, inputs: &[ValueRef]) -> OpId {
        let id = OpId(self.ops.len() as u32);
        self.inputs.extend_from_slice(inputs);
        self.ops.push(OpEntry::new(kind, self.inputs.len()));
        id
    }
}

/// Helper: the statespace source feeding port 0 of `node`, as a chain node.
fn state_input_of(graph: &Cdfg, node: NodeId) -> Result<NodeId, MapError> {
    graph
        .input_source(node, 0)
        .map(|s| s.node)
        .ok_or(MapError::Graph(fpfa_cdfg::CdfgError::PortUnconnected {
            node,
            port: 0,
        }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fpfa_cdfg::CdfgBuilder;
    use fpfa_transform::WorklistDriver;

    fn fir_graph() -> Cdfg {
        let src = r#"
            void main() {
                int a[4];
                int c[4];
                int sum;
                int i;
                sum = 0; i = 0;
                while (i < 4) { sum = sum + a[i] * c[i]; i = i + 1; }
            }
        "#;
        let program = fpfa_frontend::compile(src).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        g
    }

    #[test]
    fn extracts_fir_data_path() {
        let g = fir_graph();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        // 4 multiplies and 3 or 4 adds (sum chain; the +0 was simplified).
        assert_eq!(m.multiply_count(), 4);
        assert!(m.op_count() >= 7);
        // All 8 array words are read.
        assert_eq!(m.mem_reads.len(), 8);
        // sum and i are scalar outputs; i folds to a constant.
        assert!(m.scalar_outputs.iter().any(|(n, _)| n == "sum"));
        let i_out = m.scalar_outputs.iter().find(|(n, _)| *n == "i").unwrap();
        assert_eq!(i_out.1, ValueRef::Const(4));
        assert!(m.mem_writes.is_empty());
    }

    #[test]
    fn rejects_graphs_with_loops() {
        let src =
            "void main() { int s; int i; s = 0; i = 0; while (i < 4) { s = s + i; i = i + 1; } }";
        let program = fpfa_frontend::compile(src).unwrap();
        let err = MappingGraph::from_cdfg(&program.cdfg).unwrap_err();
        assert!(matches!(err, MapError::LoopsRemain { count: 1 }));
    }

    #[test]
    fn rejects_dynamic_addresses() {
        let mut b = CdfgBuilder::new("t");
        let mem = b.input("mem");
        let p = b.input("p");
        let fe = b.fetch(mem, p);
        b.output("r", fe);
        b.output("mem", mem);
        let g = b.finish().unwrap();
        let err = MappingGraph::from_cdfg(&g).unwrap_err();
        assert!(matches!(err, MapError::DynamicAddress { .. }));
    }

    #[test]
    fn rejects_delete_primitives() {
        let mut b = CdfgBuilder::new("t");
        let mem = b.input("mem");
        let addr = b.constant(1);
        let del = b.delete(mem, addr);
        b.output("mem", del);
        let g = b.finish().unwrap();
        assert!(matches!(
            MappingGraph::from_cdfg(&g).unwrap_err(),
            MapError::DeleteUnsupported { .. }
        ));
    }

    #[test]
    fn forwards_fetch_through_matching_store() {
        let mut b = CdfgBuilder::new("t");
        let mem = b.input("mem");
        let addr = b.constant(7);
        let x = b.input("x");
        let st = b.store(mem, addr, x);
        let fe = b.fetch(st, addr);
        let two = b.constant(2);
        let double = b.mul(fe, two);
        b.output("r", double);
        b.output("mem", st);
        let g = b.finish().unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        // The fetch is forwarded to the scalar input x, so no MemWord read.
        assert!(m.mem_reads.is_empty());
        assert_eq!(m.op_count(), 1);
        assert_eq!(m.op(OpId(0)).inputs[0], ValueRef::ScalarInput(0));
        assert_eq!(m.mem_writes.len(), 1);
    }

    #[test]
    fn fetch_skips_unrelated_stores() {
        let mut b = CdfgBuilder::new("t");
        let mem = b.input("mem");
        let a9 = b.constant(9);
        let a3 = b.constant(3);
        let x = b.input("x");
        let st = b.store(mem, a9, x);
        let fe = b.fetch(st, a3);
        b.output("r", fe);
        b.output("mem", st);
        let g = b.finish().unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        assert_eq!(m.mem_reads, vec![3]);
        assert_eq!(m.scalar_outputs.values(), [ValueRef::MemWord(3)]);
    }

    #[test]
    fn rejects_conditional_statespace_updates() {
        let src = "void main() { int a[2]; int x; if (x > 0) { a[0] = 9; } }";
        let program = fpfa_frontend::compile(src).unwrap();
        let mut g = program.cdfg;
        WorklistDriver::new().run_standard(&mut g).unwrap();
        let err = MappingGraph::from_cdfg(&g).unwrap_err();
        assert!(matches!(err, MapError::UnmappableOperation { .. }));
    }

    #[test]
    fn producer_consumer_queries() {
        let g = fir_graph();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        // Every multiply feeds at least one consumer (the add chain).
        for id in m.op_ids() {
            if m.op(id).kind.is_multiply() {
                assert!(!m.consumers(id).is_empty());
                assert!(m.producers(id).is_empty());
            }
        }
        // The final add is externally used (it is `sum`).
        let last_add = m
            .op_ids()
            .filter(|id| matches!(m.op(*id).kind, OpKind::Bin(BinOp::Add)))
            .last()
            .unwrap();
        assert!(m.is_externally_used(last_add));
    }

    #[test]
    fn scalar_inputs_are_registered_once() {
        let mut b = CdfgBuilder::new("t");
        let x = b.input("x");
        let y = b.input("y");
        let s = b.add(x, y);
        let p = b.mul(x, s);
        b.output("r", p);
        let g = b.finish().unwrap();
        let m = MappingGraph::from_cdfg(&g).unwrap();
        let mut names: Vec<&str> = m.scalar_inputs.iter().collect();
        names.sort();
        assert_eq!(names, ["x", "y"]);
        assert_eq!(m.op_count(), 2);
    }
}
