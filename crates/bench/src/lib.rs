//! The experiment harness: one function per experiment of DESIGN.md's
//! index (E1–E20), run and timed by the `report` binary, which prints the
//! tables recorded in EXPERIMENTS.md (`report -- eN` for one experiment).
//!
//! The paper has no empirical section — its "results" are Table 1, Figure
//! 1, and four theorems — so each experiment here is the *executable*
//! counterpart of one of those artifacts: E1 reproduces the Figure 1 gap,
//! E2 materializes Table 1 on concrete executions, E3–E5 and E8 exercise
//! the reductions, and E6/E7/E9 measure the exponential-vs-polynomial
//! trade-off the theorems predict.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod server_load;
pub mod table;

pub use experiments::*;
pub use server_load::*;
