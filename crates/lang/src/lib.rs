//! A small concurrent language and its sequentially consistent
//! interpreter.
//!
//! The paper studies *executions* of shared-memory parallel programs that
//! use fork/join plus counting semaphores or Post/Wait/Clear event
//! synchronization. This crate is the substrate that produces such
//! executions: a program AST ([`ast`]), an interleaving interpreter
//! ([`interp`]) that runs a program under a pluggable [`Scheduler`] on a
//! sequentially consistent memory, and emits the observed [`Trace`]
//! (`eo-model`'s type) that all analyses consume.
//!
//! The language is deliberately exactly as expressive as the paper needs:
//!
//! * processes are static definitions; root processes exist from the
//!   start, others are created by `fork` and awaited by `join`;
//! * shared variables hold integers (initially 0), written by `assign`,
//!   inspected by `if var = const then … else …`;
//! * synchronization is `P`/`V` on counting semaphores and
//!   `Post`/`Wait`/`Clear` on event variables;
//! * abstract `compute` statements declare read/write sets without values
//!   (for workload generation where only the conflict structure matters).
//!
//! On top of that core, three *surface* primitive families — barriers,
//! mutex/condvar monitors, and bounded channels — are defined by sound
//! desugaring into semaphores ([`desugar()`]): the paper's Theorems 1–4
//! and every analysis layer apply unchanged to the core form, while the
//! interpreter also executes the surface form *directly* (a second,
//! independent reference semantics) so the two can be differentially
//! compared schedule-for-schedule ([`explore`]).
//!
//! There are no loops: the paper's model is about *finite executions*, and
//! every construction in the paper (and reduction in `eo-reductions`) is
//! loop-free. Bounded repetition is expressed by unrolling at build time.
//!
//! ```
//! use eo_lang::{run_to_trace, ProgramBuilder, Scheduler};
//!
//! let mut b = ProgramBuilder::new();
//! let s = b.semaphore("s");
//! let p0 = b.process("p0");
//! b.sem_v(p0, s);
//! let p1 = b.process("p1");
//! b.sem_p(p1, s);
//! let trace = run_to_trace(&b.build(), &mut Scheduler::deterministic()).unwrap();
//! assert_eq!(trace.n_events(), 2);
//! assert!(trace.validate().is_ok());
//! ```
//!
//! [`Trace`]: eo_model::Trace

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ast;
pub mod builder;
pub mod desugar;
pub mod explore;
pub mod gallery;
pub mod generator;
pub mod interp;
pub mod reconstruct;
pub mod scheduler;
pub mod stmt;

pub use ast::{
    BarrierDef, BarrierId, ChanId, ChannelDef, CondId, CondvarDef, EvVarDef, MutexDef, MutexId,
    ProcDef, ProcRef, Program, ProgramError, SemDef, Stmt, StmtKind,
};
pub use builder::ProgramBuilder;
pub use desugar::{desugar, DesugarMap, DesugarRole, Desugared};
pub use explore::{enumerate_desugared_schedules, enumerate_schedules, ScheduleSet};
pub use interp::{run_to_trace, run_to_trace_anchored, AnchoredRun, RunError};
pub use reconstruct::program_from_trace;
pub use scheduler::Scheduler;
pub use stmt::{BranchSide, StmtId, StmtMap};
