//! The unified query surface of the engine.
//!
//! Every point question the engine answers — the decision forms of MHB /
//! CHB / CCW, the two witness searches, and the full six-relation summary
//! — is one variant of [`Query`], answered by
//! [`ExactEngine::query`](crate::ExactEngine::query) with a [`Response`].
//! One entry point means one place to budget, observe, cache, and
//! serialize: the serving layer (`eo-serve`) speaks this vocabulary over
//! the wire, and the legacy per-relation methods on
//! [`ExactEngine`](crate::ExactEngine) are thin wrappers over it.
//!
//! Engine construction is likewise collapsed into one bag of options:
//! [`EngineOptions`] carries the feasibility mode, an optional supervisor
//! [`Budget`] and the trace equivalence, with `Default` meaning "the
//! paper's F(P), default caps, no supervisor".

use crate::budget::Budget;
use crate::ctx::FeasibilityMode;
use crate::equiv::EquivStrategy;
use crate::summary::OrderingSummary;
use eo_model::EventId;

/// One point question about a program execution.
///
/// `Query` is `Hash + Eq`, so it can key result caches directly; the
/// serving layer relies on this. Non-exhaustive: the vocabulary grows
/// (downstream matches need a wildcard arm).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Query {
    /// Does `a` must-have-happened-before `b` — does every feasible
    /// execution run `a` before `b`?
    Mhb {
        /// First event of the pair.
        a: EventId,
        /// Second event of the pair.
        b: EventId,
    },
    /// Could `a` have happened before `b` — does some feasible execution
    /// run `a` before `b`?
    Chb {
        /// First event of the pair.
        a: EventId,
        /// Second event of the pair.
        b: EventId,
    },
    /// Could `a` and `b` have executed concurrently (operational
    /// reading)? Symmetric: `Ccw{a,b}` and `Ccw{b,a}` have equal answers.
    Ccw {
        /// First event of the pair.
        a: EventId,
        /// Second event of the pair.
        b: EventId,
    },
    /// A complete feasible schedule running `first` strictly before
    /// `second`, if one exists (the NP witness of Theorem 2).
    WitnessBefore {
        /// The event that must come first in the witness.
        first: EventId,
        /// The event that must come later.
        second: EventId,
    },
    /// A feasible schedule prefix reaching a state where both events are
    /// simultaneously ready (and completion stays reachable), if one
    /// exists.
    WitnessOverlap {
        /// First event of the pair.
        a: EventId,
        /// Second event of the pair.
        b: EventId,
    },
    /// The full six-relation [`OrderingSummary`].
    Summary,
}

impl Query {
    /// A short lowercase label for this query kind (metrics keys, CLI
    /// protocol `op` fields, log lines).
    pub fn op_name(&self) -> &'static str {
        match self {
            Query::Mhb { .. } => "mhb",
            Query::Chb { .. } => "chb",
            Query::Ccw { .. } => "ccw",
            Query::WitnessBefore { .. } => "witness_before",
            Query::WitnessOverlap { .. } => "witness_overlap",
            Query::Summary => "summary",
        }
    }
}

/// The payload of a [`Response`], shaped by the query kind.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub enum Answer {
    /// A decided relation instance ([`Query::Mhb`] / [`Query::Chb`] /
    /// [`Query::Ccw`]).
    Decided(bool),
    /// A witness schedule (or prefix), or `None` when no witness exists —
    /// which is itself an exact answer, not a failure.
    Witness(Option<Vec<EventId>>),
    /// The full summary ([`Query::Summary`]). Boxed: the summary holds
    /// five relation matrices and would dominate the enum's size.
    Summary(Box<OrderingSummary>),
}

impl Answer {
    /// The decided boolean, if this is a [`Answer::Decided`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Answer::Decided(b) => Some(*b),
            _ => None,
        }
    }

    /// The witness schedule, if this is a [`Answer::Witness`].
    pub fn as_witness(&self) -> Option<&Option<Vec<EventId>>> {
        match self {
            Answer::Witness(w) => Some(w),
            _ => None,
        }
    }

    /// The summary, if this is a [`Answer::Summary`].
    pub fn as_summary(&self) -> Option<&OrderingSummary> {
        match self {
            Answer::Summary(s) => Some(s),
            _ => None,
        }
    }
}

/// What [`ExactEngine::query`](crate::ExactEngine::query) returns: the
/// query echoed back (batching callers correlate by it) plus its answer.
#[derive(Clone, Debug)]
#[non_exhaustive]
pub struct Response {
    /// The query this answers.
    pub query: Query,
    /// The exact answer.
    pub answer: Answer,
}

impl Response {
    /// Pairs a query with its answer. The struct is non-exhaustive, so
    /// layers that answer queries without running the engine (the serving
    /// layer's caches) build responses through this constructor.
    pub fn new(query: Query, answer: Answer) -> Self {
        Response { query, answer }
    }
}

/// Which decision procedure answers the point queries (MHB / CHB / CCW
/// and the witness searches).
///
/// Both backends are exact and agree on every query; what differs is the
/// cost profile. `Exact` explores the cut lattice with memoized witness
/// searches; `Sat` encodes ⟨E, →T, →D⟩ as CNF once, answers what the
/// schedules it keeps already prove, and solves the rest incrementally
/// against a shared CDCL solver ([`crate::sat_backend::SatSession`]),
/// amortizing learned clauses across a batch. Experiment E19 measures
/// the crossover.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum QueryBackend {
    /// The enumeration/state-space engines (the default).
    #[default]
    Exact,
    /// The symbolic partial-order CNF backend.
    Sat,
}

impl QueryBackend {
    /// A short lowercase label (CLI flag values, protocol fields).
    pub fn label(&self) -> &'static str {
        match self {
            QueryBackend::Exact => "exact",
            QueryBackend::Sat => "sat",
        }
    }
}

impl std::str::FromStr for QueryBackend {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exact" => Ok(QueryBackend::Exact),
            "sat" => Ok(QueryBackend::Sat),
            other => Err(format!("unknown backend `{other}` (expected exact|sat)")),
        }
    }
}

/// The state cap a budget that sets none runs under.
const DEFAULT_MAX_STATES: usize = 1 << 22;

/// The schedule cap a budget that sets none runs under.
const DEFAULT_MAX_SCHEDULES: usize = 1 << 20;

/// Everything configurable about an [`ExactEngine`](crate::ExactEngine),
/// in one struct with a [`Default`]: the paper's dependence-preserving
/// F(P), default caps, no supervisor budget.
///
/// The `with_mode` / `with_budget` / `with_equiv` builder methods remain
/// and delegate here; `EngineOptions` is the one place new knobs land.
#[derive(Clone, Debug, Default)]
pub struct EngineOptions {
    /// Which feasibility notion the engine uses.
    pub mode: FeasibilityMode,
    /// Optional supervisor budget (deadline, caps, cancellation); caps it
    /// leaves unset fall back to the defaults of 2^22 states and 2^20
    /// schedules.
    pub budget: Option<Budget>,
    /// Which trace equivalence the F(P) enumeration quotients by. The
    /// default (Mazurkiewicz sleep sets) is the differential baseline;
    /// the coarser strategies visit fewer schedules with bit-identical
    /// answers.
    pub equiv: EquivStrategy,
}

impl EngineOptions {
    /// Options for the given feasibility mode, everything else default.
    pub fn with_mode(mode: FeasibilityMode) -> Self {
        EngineOptions {
            mode,
            ..Default::default()
        }
    }

    /// The budget queries actually run under: the attached [`Budget`]
    /// (or an unconstrained one), with any caps it leaves unset filled
    /// from the defaults. [`ExactEngine::query`](crate::ExactEngine::query)
    /// and the serving layer's sessions both resolve their budgets here,
    /// so a batched query and a one-shot query of the same engine
    /// configuration are stopped by identical bounds.
    pub fn effective_budget(&self) -> Budget {
        self.budget
            .clone()
            .unwrap_or_default()
            .with_default_caps(DEFAULT_MAX_STATES, DEFAULT_MAX_SCHEDULES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_the_papers_reading() {
        let opts = EngineOptions::default();
        assert_eq!(opts.mode, FeasibilityMode::PreserveDependences);
        assert!(opts.budget.is_none());
        let budget = opts.effective_budget();
        assert_eq!(budget.schedules_cap(), DEFAULT_MAX_SCHEDULES);
        assert!(budget.check_states(DEFAULT_MAX_STATES).is_ok());
        assert!(budget.check_states(DEFAULT_MAX_STATES + 1).is_err());
    }

    #[test]
    fn query_hashes_and_labels() {
        use std::collections::HashMap;
        let (a, b) = (EventId::new(0), EventId::new(1));
        let mut m: HashMap<Query, u32> = HashMap::new();
        m.insert(Query::Mhb { a, b }, 1);
        m.insert(Query::Ccw { a, b }, 2);
        assert_eq!(m.get(&Query::Mhb { a, b }), Some(&1));
        assert_eq!(Query::Summary.op_name(), "summary");
        assert_eq!(
            Query::WitnessBefore {
                first: a,
                second: b
            }
            .op_name(),
            "witness_before"
        );
    }
}
