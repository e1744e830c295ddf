//! The formal model of a shared-memory parallel program execution
//! (Netzer & Miller 1990, Section 2).
//!
//! A *program execution* is a triple **P = ⟨E, →T, →D⟩**:
//!
//! * **E** — a finite set of [`Event`]s, each an execution instance of a
//!   group of consecutively executed statements of one process. An event is
//!   either a *synchronization event* (an instance of a synchronization
//!   operation: `P`/`V` on a counting semaphore, `Post`/`Wait`/`Clear` on
//!   an event variable, or `fork`/`join`) or a *computation event*;
//! * **→T** — the *temporal ordering* relation: `a →T b` means `a`
//!   completes before `b` begins; `a ∥T b` means they execute concurrently;
//! * **→D** — the *shared-data dependence* relation: `a →D b` means `a`
//!   accesses a shared variable that `b` later accesses, at least one of
//!   the accesses being a write. (The paper folds flow-, anti- and
//!   output-dependence into this single relation.)
//!
//! This crate provides the concrete data types:
//!
//! * [`Trace`] — one *observed* execution: the events in the total order a
//!   sequentially consistent machine interleaved them, plus declarations of
//!   the processes, semaphores, event variables and shared variables
//!   involved. [`Trace::validate`] replays the observed order through the
//!   synchronization [`machine`] and rejects logs that no sequentially
//!   consistent execution could have produced.
//! * [`ProgramExecution`] — the triple ⟨E, →T, →D⟩ derived from a valid
//!   trace: →D is computed from the per-variable conflicting-access order,
//!   and →T is the partial order *induced* by the observed schedule (see
//!   [`induce`] for exactly which orderings a schedule forces).
//! * [`machine::Machine`] — the sequentially consistent synchronization
//!   state machine (semaphore counters, event-variable flags, fork/join
//!   bookkeeping). Both trace validation and the exact feasibility engine
//!   in `eo-engine` drive this machine; it is the single source of truth
//!   for what "a valid schedule" means.
//! * [`fixtures`] — small hand-built executions (including the paper's
//!   Figure 1 fragment) shared by test suites across the workspace.
//!
//! Traces travel as JSON ([`Trace::to_json`], [`Trace::from_json`]), read
//! and written through `eo_obs::json`, the workspace's one JSON codec.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod depend;
pub mod event;
pub mod execution;
pub mod fixtures;
pub mod ids;
pub mod induce;
pub mod machine;
pub mod render;
pub mod trace;

pub use depend::Dependence;
pub use event::{Event, Op};
pub use execution::ProgramExecution;
pub use ids::{EvVarId, EventId, ProcessId, SemId, VarId};
pub use machine::{BlockReason, MachState, Machine, ReplayError};
pub use trace::{Trace, TraceBuilder, TraceError};
