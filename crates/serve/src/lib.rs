//! eo-serve: batched multi-query analysis sessions over the exact engine.
//!
//! Deciding one ordering query is NP-hard (Netzer & Miller 1990), so the
//! exact engine's cost is dominated by state-space search. But real
//! clients — race explorers, debuggers, CI gates — ask *many* questions
//! about *one* execution, and the questions overlap: by symmetry
//! (CCW(a,b) = CCW(b,a)), by complement (CHB(a,b) = ¬MHB(b,a)), by
//! transitivity (MHB), and by plain repetition. This crate amortizes the
//! exponential work across a whole batch:
//!
//! * [`AnalysisSession`] owns one interned state space (the engine's
//!   [`QueryMemo`](eo_engine::QueryMemo)) for the program, so every
//!   search a query runs enlarges a shared arena instead of a throwaway
//!   one, plus a [`cache`] layer (pairwise fact store + witness LRU)
//!   that answers implied queries without searching at all.
//! * [`protocol`] is the JSON request/response vocabulary `eo serve`
//!   speaks: NDJSON on stdin or a `--batch` array file in, one
//!   response document per request out, stamped with the current `SCHEMA_VERSION`.
//! * [`server`] shards a batch across panic-isolated workers (one
//!   session each) under one shared, cancellation-linked budget and
//!   publishes `serve.*` cache counters through `eo-obs`.
//!
//! The contract throughout: answers are **bit-identical** to one-shot
//! [`ExactEngine::query`](eo_engine::ExactEngine::query) runs with the
//! same [`EngineOptions`](eo_engine::EngineOptions) — caching changes
//! cost, never answers. `tests/batch_differential.rs` pins this on every
//! fixture and generated-workload family, cache on and off.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod net;
pub mod protocol;
pub mod server;
pub mod session;

pub use net::{NetClient, Server, ServerConfig, ServerHandle, ServerReport};
pub use protocol::{parse_one, parse_requests, render_error_at, ParsedRequest, ServeOp};
pub use server::{serve_batch, serve_requests, ServeConfig, ServeOutcome};
pub use session::{fingerprint, AnalysisSession, SessionConfig, SessionReply, SessionStats};
