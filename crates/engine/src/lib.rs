//! Exact computation of the paper's six ordering relations.
//!
//! Given a program execution **P = ⟨E, →T, →D⟩**, the set **F(P)** of
//! *feasible program executions* contains every execution that performs
//! the same events and preserves the shared-data dependences (conditions
//! F1–F3 of the paper). Table 1 defines six relations quantifying over
//! F(P); this crate computes all of them **exactly** — which Theorems 1–4
//! prove must take exponential time in the worst case, and it does.
//!
//! ## How F(P) is represented
//!
//! Operationally, a feasible execution is a complete *schedule* of E that
//! respects program order, the synchronization semantics (driven by
//! `eo-model`'s [`Machine`](eo_model::Machine)), and →D. Each schedule
//! *induces* a partial order →T′ (see [`eo_model::induce`]); schedules
//! inducing the same →T′ are the same element of F(P).
//!
//! ## The two engines inside
//!
//! * [`statespace`] — a memoized exploration of the *cut lattice* (states
//!   = per-process progress + event-variable flags). One pass yields, for
//!   every pair, whether some feasible schedule runs `a` before `b`
//!   (→ CHB and, by complementation, MHB) and whether `a` and `b` can be
//!   *simultaneously enabled* in a completable state (→ the operational
//!   "could execute concurrently", the relation race detection needs).
//!   The cut lattice is exponentially smaller than the schedule space but
//!   still exponential in the number of processes — as it must be.
//! * [`enumerate`] — enumeration of the distinct induced orders of F(P),
//!   quotienting schedules by a pluggable trace equivalence ([`equiv`]):
//!   sleep-set pruned Mazurkiewicz classes (the default), or the coarser
//!   canonical-representative search over pairing histories
//!   (normal-form), which visits one schedule per element of F(P) on
//!   every committed workload.
//!   The class-quantified relations (MCW, MOW, COW, and the induced
//!   variant of CCW) are computed from this set.
//!
//! ## Semantics note
//!
//! The paper leaves the fine structure of →T to its model axioms; we make
//! the choices explicit. `a CHB b` is read *temporally*: some feasible
//! execution has `a` completing before `b` begins — equivalently some
//! feasible schedule orders `a` first. `a CCW b` is read *operationally*:
//! some feasible execution reaches a state where both are ready to run
//! (and can still finish), so a parallel machine could overlap them. The
//! `∀`-quantified relations (MHB, MCW, MOW) quantify over the induced
//! orders of F(P): "ordered" there means *forced* by synchronization and
//! dependences, which is the only reading under which the paper's
//! must-relations are non-trivial (under a purely temporal reading, any
//! pair can be serialized by chance, making MCW empty). The summary
//! exposes both CCW readings ([`OrderingSummary::ccw`] operational,
//! [`OrderingSummary::ccw_induced`] class-based); the operational one
//! always contains the induced one.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod api;
pub mod budget;
pub mod config;
pub mod ctx;
pub mod degraded;
pub mod engine;
pub mod enumerate;
pub mod equiv;
#[cfg(feature = "fault-injection")]
pub mod faultpoint;
pub mod pool;
pub mod queries;
pub mod sat_backend;
pub mod statespace;
pub mod statetable;
pub mod summary;

pub use api::{Answer, EngineOptions, Query, QueryBackend, Response};
pub use budget::{Budget, CancelHandle};
pub use config::EngineConfig;
pub use ctx::{FeasibilityMode, SearchCtx};
pub use degraded::{DegradedSummary, Fact};
pub use engine::{AnalysisOutcome, EngineError, ExactEngine};
pub use enumerate::{
    enumerate_classes, enumerate_classes_with, enumerate_naive, EnumerationResult,
};
pub use equiv::EquivStrategy;
#[cfg(feature = "fault-injection")]
pub use faultpoint::{Fault, FaultPlan};
pub use pool::run_tasks;
pub use queries::{QueryMemo, QuerySession};
pub use sat_backend::{chb_via_sat, chb_via_sat_budgeted, mhb_via_sat, SatSession};
pub use statespace::{
    explore_statespace, explore_statespace_baseline, explore_statespace_budgeted, StateSpaceResult,
};
pub use statetable::{StateId, StateTable};
pub use summary::OrderingSummary;
