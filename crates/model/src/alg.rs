//! The algorithm model: a cyclically-executed data-flow graph (paper §3.2).
//!
//! Vertices are *operations*, edges are *data-dependencies*. The graph is
//! executed once per input event (an *iteration*). Operations are:
//!
//! * [`OpKind::Comp`] — pure computation: outputs depend only on inputs;
//! * [`OpKind::Mem`] — memory: holds a value *between* iterations; its output
//!   precedes its input like a register, so edges **into** a `mem` carry no
//!   intra-iteration precedence (they are the next iteration's state);
//! * [`OpKind::Extio`] — external input/output; sources of the graph are
//!   sensor interfaces, sinks are actuator interfaces.

use ftbar_graph::{topo_order, DiGraph, EdgeId, NodeId};
use serde::{Deserialize, Serialize};

use crate::error::ModelError;
use crate::ids::{DepId, OpId};

/// The kind of an operation (paper §3.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Pure computation; no internal state, no side effect.
    Comp,
    /// Inter-iteration memory (register-like; output precedes input).
    Mem,
    /// External input/output interface (sensor or actuator).
    Extio,
}

impl OpKind {
    /// The keyword used by the spec language for this kind.
    pub fn keyword(self) -> &'static str {
        match self {
            OpKind::Comp => "comp",
            OpKind::Mem => "mem",
            OpKind::Extio => "extio",
        }
    }
}

/// An operation vertex.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Operation {
    name: String,
    kind: OpKind,
}

impl Operation {
    /// The operation's unique name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The operation's kind.
    pub fn kind(&self) -> OpKind {
        self.kind
    }
}

/// A data-dependency edge between two operations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataDep {
    /// Abstract amount of data transmitted; used to derive transmission
    /// times when no explicit per-link table entry exists.
    size: f64,
}

impl DataDep {
    /// Abstract data size (default 1.0).
    pub fn size(&self) -> f64 {
        self.size
    }
}

/// Builder for [`Alg`]. Construct with [`Alg::builder`].
#[derive(Debug, Clone)]
pub struct AlgBuilder {
    name: String,
    graph: DiGraph<Operation, DataDep>,
}

impl AlgBuilder {
    /// Adds an operation; returns its id.
    ///
    /// Name uniqueness is checked at [`AlgBuilder::build`] time.
    pub fn op(&mut self, name: impl Into<String>, kind: OpKind) -> OpId {
        let id = self.graph.add_node(Operation {
            name: name.into(),
            kind,
        });
        OpId(id.0)
    }

    /// Adds a computation operation (shorthand for [`AlgBuilder::op`]).
    pub fn comp(&mut self, name: impl Into<String>) -> OpId {
        self.op(name, OpKind::Comp)
    }

    /// Adds an external I/O operation.
    pub fn extio(&mut self, name: impl Into<String>) -> OpId {
        self.op(name, OpKind::Extio)
    }

    /// Adds a memory operation.
    pub fn mem(&mut self, name: impl Into<String>) -> OpId {
        self.op(name, OpKind::Mem)
    }

    /// Adds a data-dependency with data size 1.
    pub fn dep(&mut self, src: OpId, dst: OpId) -> DepId {
        self.dep_sized(src, dst, 1.0)
    }

    /// Adds a data-dependency with an explicit data size.
    ///
    /// # Panics
    ///
    /// Panics if `size` is not finite and positive, or on unknown ids.
    pub fn dep_sized(&mut self, src: OpId, dst: OpId, size: f64) -> DepId {
        assert!(
            size.is_finite() && size > 0.0,
            "dependency size must be positive"
        );
        let id = self
            .graph
            .add_edge(NodeId(src.0), NodeId(dst.0), DataDep { size });
        DepId(id.0)
    }

    /// Validates and freezes the algorithm graph.
    ///
    /// # Errors
    ///
    /// * [`ModelError::EmptyAlg`] if there is no operation;
    /// * [`ModelError::DuplicateName`] / [`ModelError::InvalidName`];
    /// * [`ModelError::AlgCycle`] if the intra-iteration precedence graph
    ///   (all edges except those entering a `mem`) is cyclic;
    /// * [`ModelError::ExtioNotInterface`] if an `extio` has both
    ///   predecessors and successors.
    pub fn build(self) -> Result<Alg, ModelError> {
        if self.graph.node_count() == 0 {
            return Err(ModelError::EmptyAlg);
        }
        let mut seen = std::collections::HashSet::new();
        for v in self.graph.node_ids() {
            let name = self.graph.node(v).name.as_str();
            if name.is_empty() || name.chars().any(|c| c.is_whitespace()) {
                return Err(ModelError::InvalidName {
                    name: name.to_owned(),
                });
            }
            if !seen.insert(name) {
                return Err(ModelError::DuplicateName {
                    name: name.to_owned(),
                    kind: "operation",
                });
            }
        }
        // Build the intra-iteration precedence graph and check acyclicity.
        let sched = sched_graph(&self.graph);
        let order = topo_order(&sched)?;
        for v in self.graph.node_ids() {
            let op = self.graph.node(v);
            if op.kind == OpKind::Extio
                && self.graph.in_degree(v) > 0
                && self.graph.out_degree(v) > 0
            {
                return Err(ModelError::ExtioNotInterface {
                    op: op.name.clone(),
                });
            }
        }
        Ok(Alg {
            name: self.name,
            topo: order.into_iter().map(|n| OpId(n.0)).collect(),
            graph: self.graph,
        })
    }
}

/// Projects the full data-flow graph onto intra-iteration precedence:
/// edges into `mem` operations are dropped (they are inter-iteration state
/// updates).
fn sched_graph(g: &DiGraph<Operation, DataDep>) -> DiGraph<(), ()> {
    let mut s: DiGraph<(), ()> = DiGraph::with_capacity(g.node_count(), g.edge_count());
    for _ in g.node_ids() {
        s.add_node(());
    }
    for e in g.edge_refs() {
        if g.node(e.dst).kind != OpKind::Mem {
            s.add_edge(e.src, e.dst, ());
        }
    }
    s
}

/// A validated algorithm graph (immutable).
///
/// # Example
///
/// ```
/// use ftbar_model::{Alg, OpKind};
///
/// let mut b = Alg::builder("sense-compute-act");
/// let i = b.extio("I");
/// let c = b.comp("C");
/// let o = b.extio("O");
/// b.dep(i, c);
/// b.dep(c, o);
/// let alg = b.build()?;
/// assert_eq!(alg.op_count(), 3);
/// assert_eq!(alg.sched_preds(o).count(), 1);
/// # Ok::<(), ftbar_model::ModelError>(())
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Alg {
    name: String,
    graph: DiGraph<Operation, DataDep>,
    /// Topological order of the intra-iteration graph (deterministic).
    topo: Vec<OpId>,
}

impl Alg {
    /// Starts building an algorithm graph with the given name.
    pub fn builder(name: impl Into<String>) -> AlgBuilder {
        AlgBuilder {
            name: name.into(),
            graph: DiGraph::new(),
        }
    }

    /// The algorithm's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of operations.
    pub fn op_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of data-dependencies.
    pub fn dep_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Iterates over all operation ids in insertion order.
    pub fn ops(&self) -> impl ExactSizeIterator<Item = OpId> + '_ {
        self.graph.node_ids().map(|n| OpId(n.0))
    }

    /// Iterates over all dependency ids in insertion order.
    pub fn deps(&self) -> impl ExactSizeIterator<Item = DepId> + '_ {
        (0..self.graph.edge_count() as u32).map(DepId)
    }

    /// Returns an operation by id.
    pub fn op(&self, id: OpId) -> &Operation {
        self.graph.node(NodeId(id.0))
    }

    /// Returns a dependency by id.
    pub fn dep(&self, id: DepId) -> &DataDep {
        self.graph.edge(EdgeId(id.0))
    }

    /// Returns the `(producer, consumer)` operations of a dependency.
    pub fn dep_endpoints(&self, id: DepId) -> (OpId, OpId) {
        let (s, d) = self.graph.edge_endpoints(EdgeId(id.0));
        (OpId(s.0), OpId(d.0))
    }

    /// Human-readable name of a dependency: `"A -> B"`.
    pub fn dep_name(&self, id: DepId) -> String {
        let (s, d) = self.dep_endpoints(id);
        format!("{} -> {}", self.op(s).name(), self.op(d).name())
    }

    /// Finds an operation by name.
    pub fn op_by_name(&self, name: &str) -> Option<OpId> {
        self.ops().find(|&o| self.op(o).name() == name)
    }

    /// Finds the dependency between two named operations.
    pub fn dep_by_names(&self, src: &str, dst: &str) -> Option<DepId> {
        let s = self.op_by_name(src)?;
        let d = self.op_by_name(dst)?;
        self.deps().find(|&e| self.dep_endpoints(e) == (s, d))
    }

    /// All dependencies entering `op` (including inter-iteration edges into
    /// a `mem`). Yields `(dep, producer)` pairs.
    pub fn preds(&self, op: OpId) -> impl Iterator<Item = (DepId, OpId)> + '_ {
        self.graph.in_edges(NodeId(op.0)).iter().map(move |&e| {
            let (s, _) = self.graph.edge_endpoints(e);
            (DepId(e.0), OpId(s.0))
        })
    }

    /// All dependencies leaving `op`. Yields `(dep, consumer)` pairs.
    pub fn succs(&self, op: OpId) -> impl Iterator<Item = (DepId, OpId)> + '_ {
        self.graph.out_edges(NodeId(op.0)).iter().map(move |&e| {
            let (_, d) = self.graph.edge_endpoints(e);
            (DepId(e.0), OpId(d.0))
        })
    }

    /// Dependencies entering `op` that constrain it *within* an iteration:
    /// empty when `op` is a `mem` (its inputs are next-iteration state).
    pub fn sched_preds(&self, op: OpId) -> impl Iterator<Item = (DepId, OpId)> + '_ {
        let mem = self.op(op).kind() == OpKind::Mem;
        self.preds(op).take(if mem { 0 } else { usize::MAX })
    }

    /// Dependencies leaving `op` that constrain the consumer within the
    /// iteration (excludes edges into `mem` operations).
    pub fn sched_succs(&self, op: OpId) -> impl Iterator<Item = (DepId, OpId)> + '_ {
        self.succs(op)
            .filter(move |&(_, d)| self.op(d).kind() != OpKind::Mem)
    }

    /// True if the dependency constrains execution within one iteration.
    pub fn is_sched_dep(&self, dep: DepId) -> bool {
        let (_, dst) = self.dep_endpoints(dep);
        self.op(dst).kind() != OpKind::Mem
    }

    /// A topological order of the intra-iteration precedence graph
    /// (deterministic: smallest id first among ready operations).
    pub fn topo_order(&self) -> &[OpId] {
        &self.topo
    }

    /// Operations with no intra-iteration predecessor, in id order.
    pub fn entry_ops(&self) -> Vec<OpId> {
        self.ops()
            .filter(|&o| self.sched_preds(o).next().is_none())
            .collect()
    }

    /// Operations with no intra-iteration successor, in id order.
    pub fn exit_ops(&self) -> Vec<OpId> {
        self.ops()
            .filter(|&o| self.sched_succs(o).next().is_none())
            .collect()
    }

    /// Borrow of the underlying graph, for generic graph algorithms.
    pub fn graph(&self) -> &DiGraph<Operation, DataDep> {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple() -> Alg {
        let mut b = Alg::builder("t");
        let i = b.extio("I");
        let a = b.comp("A");
        let o = b.extio("O");
        b.dep(i, a);
        b.dep_sized(a, o, 2.0);
        b.build().unwrap()
    }

    #[test]
    fn builds_and_queries() {
        let alg = simple();
        assert_eq!(alg.op_count(), 3);
        assert_eq!(alg.dep_count(), 2);
        let a = alg.op_by_name("A").unwrap();
        assert_eq!(alg.op(a).kind(), OpKind::Comp);
        assert_eq!(alg.preds(a).count(), 1);
        assert_eq!(alg.succs(a).count(), 1);
        let d = alg.dep_by_names("A", "O").unwrap();
        assert_eq!(alg.dep(d).size(), 2.0);
        assert_eq!(alg.dep_name(d), "A -> O");
        assert!(alg.dep_by_names("O", "A").is_none());
    }

    #[test]
    fn topo_order_is_deterministic_and_valid() {
        let alg = simple();
        let order = alg.topo_order();
        assert_eq!(order.len(), 3);
        let pos = |o: OpId| order.iter().position(|&x| x == o).unwrap();
        for d in alg.deps() {
            let (s, t) = alg.dep_endpoints(d);
            assert!(pos(s) < pos(t));
        }
    }

    #[test]
    fn entry_and_exit_ops() {
        let alg = simple();
        let i = alg.op_by_name("I").unwrap();
        let o = alg.op_by_name("O").unwrap();
        assert_eq!(alg.entry_ops(), vec![i]);
        assert_eq!(alg.exit_ops(), vec![o]);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut b = Alg::builder("t");
        b.comp("X");
        b.comp("X");
        assert!(matches!(
            b.build(),
            Err(ModelError::DuplicateName {
                kind: "operation",
                ..
            })
        ));
    }

    #[test]
    fn invalid_names_rejected() {
        let mut b = Alg::builder("t");
        b.comp("has space");
        assert!(matches!(b.build(), Err(ModelError::InvalidName { .. })));
        let mut b = Alg::builder("t");
        b.comp("");
        assert!(matches!(b.build(), Err(ModelError::InvalidName { .. })));
    }

    #[test]
    fn empty_alg_rejected() {
        assert!(matches!(
            Alg::builder("t").build(),
            Err(ModelError::EmptyAlg)
        ));
    }

    #[test]
    fn cycles_rejected() {
        let mut b = Alg::builder("t");
        let a = b.comp("A");
        let c = b.comp("B");
        b.dep(a, c);
        b.dep(c, a);
        assert!(matches!(b.build(), Err(ModelError::AlgCycle(_))));
    }

    #[test]
    fn mem_breaks_cycles() {
        // A -> M (state update), M -> A (current state): legal because the
        // edge into the mem is inter-iteration.
        let mut b = Alg::builder("counter");
        let a = b.comp("A");
        let m = b.mem("M");
        b.dep(a, m);
        b.dep(m, a);
        let alg = b.build().unwrap();
        let m = alg.op_by_name("M").unwrap();
        let a = alg.op_by_name("A").unwrap();
        assert_eq!(alg.sched_preds(m).count(), 0);
        assert_eq!(alg.preds(m).count(), 1);
        assert_eq!(alg.sched_preds(a).count(), 1);
        // The mem is an entry of the iteration, A is the exit.
        assert_eq!(alg.entry_ops(), vec![m]);
        assert!(alg.exit_ops().contains(&a));
    }

    #[test]
    fn extio_must_be_interface() {
        let mut b = Alg::builder("t");
        let a = b.comp("A");
        let x = b.extio("X");
        let c = b.comp("B");
        b.dep(a, x);
        b.dep(x, c);
        assert!(matches!(
            b.build(),
            Err(ModelError::ExtioNotInterface { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_size_dep_panics() {
        let mut b = Alg::builder("t");
        let a = b.comp("A");
        let c = b.comp("B");
        b.dep_sized(a, c, 0.0);
    }

    #[test]
    fn kind_keywords() {
        assert_eq!(OpKind::Comp.keyword(), "comp");
        assert_eq!(OpKind::Mem.keyword(), "mem");
        assert_eq!(OpKind::Extio.keyword(), "extio");
    }
}
