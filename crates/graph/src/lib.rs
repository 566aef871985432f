//! Directed-graph substrate for the `ftbar` workspace.
//!
//! This crate provides the small, sharp set of graph primitives that the
//! FTBAR scheduler and its models need:
//!
//! * [`DiGraph`]: a growable directed graph with typed node/edge weights,
//!   stored as index-based adjacency lists (no `unsafe`, no pointer soup);
//! * topological ordering and cycle detection ([`topo_order`],
//!   [`find_cycle`]);
//! * weighted longest-path machinery ([`longest_path_lengths`],
//!   [`top_levels`], [`bottom_levels`], [`critical_path`]);
//! * structural helpers: [`DiGraph::sources`], [`DiGraph::sinks`],
//!   reachability ([`descendants`], [`ancestors`]), level assignment
//!   ([`node_levels`]), transitive reduction ([`transitive_reduction`]);
//! * routing: k vertex-disjoint paths via unit-capacity max-flow
//!   ([`vertex_disjoint_paths`]), the substrate of fault-disjoint
//!   communication routing;
//! * Graphviz export ([`dot::Dot`]).
//!
//! It is written from scratch (rather than pulling in `petgraph`) so that the
//! workspace controls exactly the invariants the schedulers rely on —
//! deterministic iteration order by insertion index above all.
//!
//! # Example
//!
//! ```
//! use ftbar_graph::{DiGraph, topo_order};
//!
//! let mut g: DiGraph<&str, f64> = DiGraph::new();
//! let a = g.add_node("A");
//! let b = g.add_node("B");
//! g.add_edge(a, b, 1.5);
//! let order = topo_order(&g).expect("acyclic");
//! assert_eq!(order, vec![a, b]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod algo;
mod digraph;
pub mod dot;
mod routes;
mod topo;

pub use algo::{
    ancestors, bottom_levels, critical_path, descendants, longest_path_lengths, node_levels,
    top_levels, transitive_reduction,
};
pub use digraph::{DiGraph, EdgeId, EdgeRef, Edges, Neighbors, NodeId, NodeIds};
pub use routes::vertex_disjoint_paths;
pub use topo::{find_cycle, is_acyclic, topo_order, CycleError};
