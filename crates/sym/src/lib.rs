//! Symbolic ordering backend: partial-order CNF encodings over an
//! incremental CDCL solver.
//!
//! ROADMAP item 1 realized: instead of enumerating interleavings, encode
//! the feasibility constraints of ⟨E, →T, →D⟩ directly as CNF — in the
//! style of Alglave–Kroening–Tautschnig's partial-order BMC encoding —
//! and answer MHB/CHB/CCW and witness queries with incremental
//! `solve_assuming` calls against a single shared formula (one per CHB
//! query, up to two per CCW query). Learned
//! clauses accumulate across a whole batch of queries, which is where the
//! symbolic backend earns its keep on the query-heavy serve workloads
//! (experiment E19 measures both the enumeration↔symbolic crossover and
//! the batched-incremental vs. per-query-fresh gap).
//!
//! The crate is deliberately small: [`encode::PoEncoding`] owns the
//! encoding and the embedded [`eo_sat::Solver`]; budget integration and
//! engine-facing plumbing live in `eo-engine`'s `sat_backend`, and the
//! serve-layer knob (`--backend sat`) lives in `eo-serve`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;

pub use encode::{count_dependence_classes, PoEncoding, SymOutcome};
