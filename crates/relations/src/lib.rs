//! Dense binary relations over finite index sets.
//!
//! This crate is the algorithmic substrate for the event-ordering library.
//! A *program execution* in the Netzer–Miller model is a triple
//! ⟨E, →T, →D⟩ where →T (temporal ordering) and →D (shared-data
//! dependence) are binary relations over the finite event set E. Everything
//! upstream — the exact feasibility engine, the polynomial baselines, the
//! race detector — manipulates such relations, so this crate provides:
//!
//! * [`BitSet`]: a compact fixed-capacity bit set (the row type of a
//!   relation matrix);
//! * [`Relation`]: an n×n bit-matrix binary relation with relation algebra
//!   (union, intersection, transpose, composition) and order-theoretic
//!   queries (irreflexivity, acyclicity, partial-order checks);
//! * [`closure`]: transitive-closure and reduction algorithms (bit-parallel
//!   Warshall, DFS-based closure for sparse inputs);
//! * [`digraph`]: an adjacency-list directed graph with topological sorting,
//!   reachability, and ancestor queries (used by the Emrath–Ghosh–Padua
//!   task-graph baseline, which needs "closest common ancestor" queries);
//! * [`vector_clock`]: classic vector clocks, the workhorse of the
//!   polynomial happened-before baseline;
//! * [`fxhash`]: a small in-repo Fx-style hasher so hot index-keyed maps do
//!   not pay SipHash costs (per the Rust perf-book guidance) without adding
//!   an external dependency.
//!
//! Indices are plain `usize`; upstream crates map their typed event ids
//! onto dense indices before using this crate.
//!
//! ```
//! use eo_relations::Relation;
//!
//! // A fork/join diamond: 0 → {1,2} → 3, as a relation.
//! let edges = Relation::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]);
//! let order = edges.transitive_closure();
//! assert!(order.contains(0, 3));
//! assert!(order.unordered(1, 2)); // the two branches are concurrent
//! assert!(order.is_strict_partial_order());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bitset;
pub mod closure;
pub mod digraph;
pub mod fxhash;
pub mod relation;
pub mod vector_clock;

pub use bitset::BitSet;
pub use digraph::Digraph;
pub use relation::Relation;
pub use vector_clock::{ClockOrdering, VectorClock};
