//! # eo-obs — observability for the event-ordering engine
//!
//! The exact MHB/CHB/CCW analyses are co-NP-/NP-hard (Netzer & Miller,
//! Theorems 1–4), so runtime behaviour is wildly input-dependent; this crate
//! provides the visibility layer that explains *where* a run's budget went:
//!
//! - a span/counter/gauge recording API ([`span()`], [`counter()`],
//!   [`gauge()`], and the matching [`span!`]/[`counter!`]/[`gauge!`]
//!   macros) backed by lock-free per-thread buffers;
//! - a post-run aggregator ([`report::aggregate`]) producing Chrome-trace
//!   JSON ([`report::trace_to_json`]), a flat metrics JSON document with a
//!   fixed schema ([`report::ENGINE_METRICS`]), and a human profile table
//!   ([`report::render_profile`]);
//! - the workspace's one JSON reader/writer ([`json`]), through which
//!   traces, configs, reports, serve replies and BENCH files all pass.
//!
//! ## Zero cost when disabled
//!
//! All recording entry points exist unconditionally, so engine code calls
//! them without any `cfg`. With the `enabled` cargo feature off (the
//! default) they are empty `#[inline(always)]` functions and the span guard
//! has no `Drop` impl — instrumented code compiles to exactly what it would
//! be with the probes deleted. Workspaces turn everything on through a
//! single feature edge (`event-ordering`'s `obs` → `eo-obs/enabled`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
mod macros;
mod record;
pub mod report;

pub use record::{
    counter, finish, gauge, gauge_f64, gauge_str, recording, span, start, Event, RunData,
    SpanGuard, ThreadLog,
};
