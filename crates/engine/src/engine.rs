//! The user-facing engine facade.

use crate::api::{Answer, EngineOptions, Query, Response};
use crate::budget::Budget;
use crate::ctx::{FeasibilityMode, SearchCtx};
use crate::degraded::DegradedSummary;
use crate::enumerate::{enumerate_classes_budgeted_with, EnumerationResult};
use crate::equiv::EquivStrategy;
use crate::queries::{QueryMemo, QuerySession};
use crate::statespace;
use crate::summary::OrderingSummary;
use eo_model::{EventId, ProgramExecution};

/// Why an exact analysis could not finish within its budget.
///
/// Non-exhaustive: supervisors grow failure modes; downstream matches
/// need a wildcard arm.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// The cut lattice outgrew the state cap: the [`Budget`]'s, or the
    /// engine's default.
    StateSpaceExceeded {
        /// The configured bound.
        limit: usize,
    },
    /// The class enumeration outgrew the schedule cap: the [`Budget`]'s,
    /// or the engine's default.
    ScheduleBudgetExceeded {
        /// The configured bound.
        limit: usize,
    },
    /// The wall-clock deadline of the [`Budget`] passed.
    DeadlineExceeded {
        /// The configured deadline in milliseconds.
        ms: u64,
    },
    /// The analysis state storage outgrew the
    /// [`Budget`] heap-bytes cap.
    MemoryExceeded {
        /// The configured bound in bytes.
        limit: usize,
    },
    /// The analysis was cancelled through a
    /// [`CancelHandle`](crate::CancelHandle).
    Cancelled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::StateSpaceExceeded { limit } => {
                write!(f, "state space exceeded the {limit}-state budget")
            }
            EngineError::ScheduleBudgetExceeded { limit } => {
                write!(
                    f,
                    "schedule enumeration exceeded the {limit}-schedule budget"
                )
            }
            EngineError::DeadlineExceeded { ms } => {
                write!(f, "analysis exceeded its {ms} ms wall-clock deadline")
            }
            EngineError::MemoryExceeded { limit } => {
                write!(f, "analysis storage exceeded the {limit}-byte budget")
            }
            EngineError::Cancelled => write!(f, "analysis cancelled"),
        }
    }
}

impl EngineError {
    /// A short machine-readable label for the exhausted resource, used as
    /// the `degradation.cause` metric and in CLI output (`"none"` is
    /// reserved for runs that did not degrade).
    pub fn cause_label(&self) -> &'static str {
        match self {
            EngineError::StateSpaceExceeded { .. } => "state-cap",
            EngineError::ScheduleBudgetExceeded { .. } => "schedule-cap",
            EngineError::DeadlineExceeded { .. } => "deadline",
            EngineError::MemoryExceeded { .. } => "memory",
            EngineError::Cancelled => "cancelled",
        }
    }
}

impl std::error::Error for EngineError {}

/// Exact computation of the six Table-1 ordering relations for one
/// program execution.
///
/// ```
/// use eo_engine::ExactEngine;
/// use eo_model::fixtures;
///
/// let (trace, ids) = fixtures::sem_handshake();
/// let exec = trace.to_execution().unwrap();
/// let engine = ExactEngine::new(&exec);
/// assert!(engine.mhb(ids.v, ids.p));          // V must precede P
/// assert!(!engine.chb(ids.p, ids.v));         // P can never precede V
/// assert!(engine.ccw(ids.after_v, ids.after_p)); // the tails can overlap
/// ```
pub struct ExactEngine<'a> {
    ctx: SearchCtx<'a>,
    opts: EngineOptions,
}

/// What [`ExactEngine::analyze`] produced: the full exact summary, or the
/// supervisor's sound partial answer when a budget ran out mid-flight.
#[derive(Clone, Debug)]
pub enum AnalysisOutcome {
    /// Every budget held; the summary is the complete exact answer.
    Exact(OrderingSummary),
    /// A budget was exhausted (or a worker failed); the facts proved by
    /// the partial pass, sandwiched between the sound polynomial bounds.
    Degraded(DegradedSummary),
}

impl<'a> ExactEngine<'a> {
    /// Engine over the paper's F(P) (dependence-preserving feasibility).
    pub fn new(exec: &'a ProgramExecution) -> Self {
        Self::with_options(exec, EngineOptions::default())
    }

    /// Engine configured by one [`EngineOptions`] bag — the primary
    /// constructor; every other builder delegates here.
    pub fn with_options(exec: &'a ProgramExecution, opts: EngineOptions) -> Self {
        ExactEngine {
            ctx: SearchCtx::new(exec, opts.mode),
            opts,
        }
    }

    /// Engine with an explicit feasibility mode (Section 5.3's
    /// dependence-ignoring variant is [`FeasibilityMode::IgnoreDependences`]).
    pub fn with_mode(exec: &'a ProgramExecution, mode: FeasibilityMode) -> Self {
        Self::with_options(exec, EngineOptions::with_mode(mode))
    }

    /// Attaches a supervisor [`Budget`] (deadline, caps, cancellation).
    /// Caps the budget leaves unset fall back to the engine's defaults
    /// (see [`EngineOptions::effective_budget`]).
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.opts.budget = Some(budget);
        self
    }

    /// Selects the trace-equivalence strategy the F(P) enumeration
    /// quotients by (see [`EquivStrategy`]). All strategies produce
    /// bit-identical summaries; the coarser ones visit fewer schedules.
    pub fn with_equiv(mut self, equiv: EquivStrategy) -> Self {
        self.opts.equiv = equiv;
        self
    }

    /// The options this engine was built with.
    pub fn options(&self) -> &EngineOptions {
        &self.opts
    }

    /// The budget every pass runs under: the attached one (with the
    /// default caps filling unset caps) or a cap-only default budget.
    fn effective_budget(&self) -> Budget {
        self.opts.effective_budget()
    }

    /// The underlying search context (for direct use of the lower-level
    /// APIs).
    pub fn ctx(&self) -> &SearchCtx<'a> {
        &self.ctx
    }

    /// Computes the full six-relation summary, or reports the exceeded
    /// budget (the first exhausted resource — state/schedule caps,
    /// deadline, memory, or cancellation when a [`Budget`] is attached).
    pub fn try_summary(&self) -> Result<OrderingSummary, EngineError> {
        eo_obs::span!("engine.try_summary");
        let budget = self.effective_budget();
        let mut memo = QueryMemo::with_budget(&self.ctx, budget.clone());
        statespace::chart(&self.ctx, &mut memo)?;
        let space = statespace::finalize(&self.ctx, &mut memo);
        let (classes, stopped) =
            enumerate_classes_budgeted_with(&self.ctx, Some(&memo), &budget, self.opts.equiv);
        if let Some(e) = stopped {
            return Err(e);
        }
        let summary = OrderingSummary::from_parts(&space, &classes);
        debug_assert_eq!(summary.check_identities(), Ok(()));
        Ok(summary)
    }

    /// The supervised analysis: runs the exact passes under the attached
    /// [`Budget`] and, instead of failing when a resource runs out,
    /// returns a [`DegradedSummary`] — every pairwise fact the partial
    /// pass *proved*, sandwiched between the sound polynomial bounds of
    /// `eo_approx` (see [`crate::degraded`]).
    ///
    /// Degraded answers never contradict the exact oracle; the
    /// differential suite asserts this on every fixture.
    pub fn analyze(&self) -> AnalysisOutcome {
        eo_obs::span!("engine.analyze");
        let budget = self.effective_budget();
        let mut memo = QueryMemo::with_budget(&self.ctx, budget.clone());
        let stopped = statespace::chart(&self.ctx, &mut memo).err();
        let space_complete = stopped.is_none();
        let space = statespace::finalize(&self.ctx, &mut memo);
        // Enumeration still runs after a truncated space pass: its orders
        // are complete feasible executions in their own right, and every
        // one sharpens the degraded facts. It walks the memo's chart when
        // the pass completed it. After a truncated pass it steps the
        // machine instead, since extending the chart would intern states
        // past the cap. The budget is already exhausted in the
        // deadline/cancel cases, so the first checkpoint stops it
        // immediately; cap-based cases keep their own caps.
        let (classes, enum_stopped) = enumerate_classes_budgeted_with(
            &self.ctx,
            space_complete.then_some(&memo),
            &budget,
            self.opts.equiv,
        );
        // Headroom at completion: how much of each budgeted resource was
        // left over (-1 = that resource was uncapped). Gated so the
        // bookkeeping costs nothing outside a recording run.
        if eo_obs::recording() {
            eo_obs::gauge!(
                "budget.headroom_ms",
                budget.headroom_ms().map_or(-1, |ms| ms as i64)
            );
            eo_obs::gauge!(
                "budget.headroom_states",
                budget
                    .max_states()
                    .map_or(-1, |cap| cap.saturating_sub(space.states) as i64)
            );
            eo_obs::gauge!(
                "budget.headroom_bytes",
                budget
                    .max_heap_bytes()
                    .map_or(-1, |cap| cap.saturating_sub(space.approx_heap_bytes) as i64)
            );
        }
        match stopped.or(enum_stopped) {
            None => {
                let summary = OrderingSummary::from_parts(&space, &classes);
                debug_assert_eq!(summary.check_identities(), Ok(()));
                AnalysisOutcome::Exact(summary)
            }
            Some(reason) => AnalysisOutcome::Degraded(DegradedSummary::build(
                &self.ctx,
                &space,
                space_complete,
                &classes.orders,
                reason,
            )),
        }
    }

    /// Computes the full summary.
    ///
    /// # Panics
    /// Panics if the budget is exceeded; use
    /// [`try_summary`](Self::try_summary) when the input may be
    /// adversarial.
    pub fn summary(&self) -> OrderingSummary {
        match self.try_summary() {
            Ok(s) => s,
            Err(e) => panic!("exact summary did not fit the budget: {e}"),
        }
    }

    /// Enumerates F(P) (the distinct induced partial orders).
    pub fn feasible_set(&self) -> Result<EnumerationResult, EngineError> {
        let (r, stopped) = enumerate_classes_budgeted_with(
            &self.ctx,
            None,
            &self.effective_budget(),
            self.opts.equiv,
        );
        match stopped {
            Some(e) => Err(e),
            None => Ok(r),
        }
    }

    /// Answers one [`Query`] under the engine's effective budget: the
    /// attached [`Budget`] (with the default caps filling unset caps) or
    /// a cap-only default budget. This is the single entry point the
    /// per-relation methods below and the serving layer route through.
    ///
    /// Point queries run an early-exit witness search in a fresh
    /// [`QuerySession`]; [`Query::Summary`] runs the full
    /// [`try_summary`](Self::try_summary) passes. Errors at the first
    /// exhausted budget resource.
    pub fn query(&self, query: Query) -> Result<Response, EngineError> {
        self.query_with_budget(query, self.effective_budget())
    }

    /// [`query`](Self::query) against an explicit budget (the infallible
    /// legacy wrappers pass [`Budget::unlimited`], preserving their
    /// never-fails contract even on a budgeted engine).
    fn query_with_budget(&self, query: Query, budget: Budget) -> Result<Response, EngineError> {
        let mut session = QuerySession::with_budget(&self.ctx, budget);
        let answer = match query {
            Query::Mhb { a, b } => Answer::Decided(session.try_must_happen_before(a, b)?),
            Query::Chb { a, b } => Answer::Decided(session.try_could_happen_before(a, b)?),
            Query::Ccw { a, b } => Answer::Decided(session.try_could_be_concurrent(a, b)?),
            Query::WitnessBefore { first, second } => {
                Answer::Witness(session.try_witness_before(first, second)?)
            }
            Query::WitnessOverlap { a, b } => Answer::Witness(session.try_witness_overlap(a, b)?),
            Query::Summary => Answer::Summary(Box::new(self.try_summary()?)),
        };
        Ok(Response { query, answer })
    }

    /// Unwraps a query that cannot fail (unlimited budget, non-summary).
    fn query_infallible(&self, query: Query) -> Response {
        self.query_with_budget(query, Budget::unlimited())
            .unwrap_or_else(|e| panic!("unbudgeted {} query failed: {e}", query.op_name()))
    }

    /// Decides `a MHB b` by early-exit witness search (no full summary).
    #[doc(alias = "query")]
    pub fn mhb(&self, a: EventId, b: EventId) -> bool {
        self.query_infallible(Query::Mhb { a, b })
            .answer
            .as_bool()
            .expect("mhb answers are booleans")
    }

    /// Decides `a CHB b` by early-exit witness search.
    #[doc(alias = "query")]
    pub fn chb(&self, a: EventId, b: EventId) -> bool {
        self.query_infallible(Query::Chb { a, b })
            .answer
            .as_bool()
            .expect("chb answers are booleans")
    }

    /// Decides operational `a CCW b` by early-exit witness search.
    #[doc(alias = "query")]
    pub fn ccw(&self, a: EventId, b: EventId) -> bool {
        self.query_infallible(Query::Ccw { a, b })
            .answer
            .as_bool()
            .expect("ccw answers are booleans")
    }

    /// A feasible schedule running `first` strictly before `second`, if
    /// one exists (the NP witness of Theorem 2).
    #[doc(alias = "query")]
    pub fn witness_before(&self, first: EventId, second: EventId) -> Option<Vec<EventId>> {
        match self
            .query_infallible(Query::WitnessBefore { first, second })
            .answer
        {
            Answer::Witness(w) => w,
            _ => unreachable!("witness queries answer with witnesses"),
        }
    }

    /// A feasible schedule prefix reaching a state where both events are
    /// ready, if one exists.
    #[doc(alias = "query")]
    pub fn witness_overlap(&self, a: EventId, b: EventId) -> Option<Vec<EventId>> {
        match self.query_infallible(Query::WitnessOverlap { a, b }).answer {
            Answer::Witness(w) => w,
            _ => unreachable!("witness queries answer with witnesses"),
        }
    }

    /// Budgeted twin of [`mhb`](Self::mhb): decides under the engine's
    /// effective budget, erroring at the first exhausted resource.
    #[doc(alias = "query")]
    pub fn try_mhb(&self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        Ok(self
            .query(Query::Mhb { a, b })?
            .answer
            .as_bool()
            .expect("mhb answers are booleans"))
    }

    /// Budgeted twin of [`chb`](Self::chb).
    #[doc(alias = "query")]
    pub fn try_chb(&self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        Ok(self
            .query(Query::Chb { a, b })?
            .answer
            .as_bool()
            .expect("chb answers are booleans"))
    }

    /// Budgeted twin of [`ccw`](Self::ccw).
    #[doc(alias = "query")]
    pub fn try_ccw(&self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        Ok(self
            .query(Query::Ccw { a, b })?
            .answer
            .as_bool()
            .expect("ccw answers are booleans"))
    }

    /// Budgeted twin of [`witness_before`](Self::witness_before).
    #[doc(alias = "query")]
    pub fn try_witness_before(
        &self,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        match self.query(Query::WitnessBefore { first, second })?.answer {
            Answer::Witness(w) => Ok(w),
            _ => unreachable!("witness queries answer with witnesses"),
        }
    }

    /// Budgeted twin of [`witness_overlap`](Self::witness_overlap).
    #[doc(alias = "query")]
    pub fn try_witness_overlap(
        &self,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        match self.query(Query::WitnessOverlap { a, b })?.answer {
            Answer::Witness(w) => Ok(w),
            _ => unreachable!("witness queries answer with witnesses"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eo_model::fixtures;

    #[test]
    fn facade_summary_matches_point_queries() {
        let (trace, _ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let engine = ExactEngine::new(&exec);
        let summary = engine.summary();
        for a in 0..exec.n_events() {
            for b in 0..exec.n_events() {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                assert_eq!(engine.mhb(ea, eb), summary.mhb(ea, eb), "mhb({a},{b})");
                assert_eq!(engine.chb(ea, eb), summary.chb(ea, eb), "chb({a},{b})");
                assert_eq!(engine.ccw(ea, eb), summary.ccw(ea, eb), "ccw({a},{b})");
            }
        }
    }

    #[test]
    fn budget_errors_are_reported() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let tiny = ExactEngine::new(&exec).with_budget(Budget::unlimited().with_max_states(2));
        assert!(matches!(
            tiny.try_summary(),
            Err(EngineError::StateSpaceExceeded { limit: 2 })
        ));

        // The clear chain has many schedule classes; a budget of 1 truncates.
        let (trace2, _ids) = fixtures::post_wait_clear_chain();
        let exec2 = trace2.to_execution().unwrap();
        let tiny2 = ExactEngine::new(&exec2).with_budget(Budget::unlimited().with_max_schedules(1));
        assert!(matches!(
            tiny2.try_summary(),
            Err(EngineError::ScheduleBudgetExceeded { limit: 1 })
        ));
    }

    #[test]
    fn query_path_matches_legacy_wrappers() {
        let (trace, _ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let engine = ExactEngine::new(&exec);
        for a in 0..exec.n_events() {
            for b in 0..exec.n_events() {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                let q = Query::Mhb { a: ea, b: eb };
                let r = engine.query(q).unwrap();
                assert_eq!(r.query, q, "responses echo their query");
                assert_eq!(r.answer.as_bool(), Some(engine.mhb(ea, eb)));
                assert_eq!(engine.try_chb(ea, eb).unwrap(), engine.chb(ea, eb));
                assert_eq!(engine.try_ccw(ea, eb).unwrap(), engine.ccw(ea, eb));
                assert_eq!(
                    engine.try_witness_before(ea, eb).unwrap(),
                    engine.witness_before(ea, eb)
                );
                assert_eq!(
                    engine.try_witness_overlap(ea, eb).unwrap(),
                    engine.witness_overlap(ea, eb)
                );
            }
        }
        let s = engine.query(Query::Summary).unwrap();
        let direct = engine.summary();
        let via = s.answer.as_summary().expect("summary answer");
        assert_eq!(via.class_count(), direct.class_count());
        assert_eq!(via.state_count(), direct.state_count());
    }

    #[test]
    fn budgeted_twins_honor_the_attached_budget() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let engine = ExactEngine::new(&exec).with_budget(Budget::unlimited().with_max_states(1));
        let (a, b) = (EventId::new(0), EventId::new(1));
        assert!(matches!(
            engine.try_mhb(a, b),
            Err(EngineError::StateSpaceExceeded { limit: 1 })
        ));
        // The infallible wrappers keep their never-fails contract even on
        // a budgeted engine: they run unbudgeted, as they always have.
        let _ = engine.mhb(a, b);
        let _ = engine.witness_overlap(a, b);
    }

    #[test]
    fn with_options_equals_builder_chain() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let exec = trace.to_execution().unwrap();
        let opts = EngineOptions {
            mode: FeasibilityMode::IgnoreDependences,
            budget: None,
            equiv: EquivStrategy::default(),
        };
        let via_options = ExactEngine::with_options(&exec, opts);
        let via_builders = ExactEngine::with_mode(&exec, FeasibilityMode::IgnoreDependences);
        assert_eq!(via_options.mhb(inc0, inc1), via_builders.mhb(inc0, inc1));
        assert_eq!(via_options.ccw(inc0, inc1), via_builders.ccw(inc0, inc1));
        assert_eq!(
            via_options.options().mode,
            FeasibilityMode::IgnoreDependences
        );
    }

    #[test]
    fn ignore_mode_changes_answers() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let exec = trace.to_execution().unwrap();
        let strict = ExactEngine::new(&exec);
        assert!(strict.mhb(inc0, inc1));
        assert!(!strict.ccw(inc0, inc1));
        let relaxed = ExactEngine::with_mode(&exec, FeasibilityMode::IgnoreDependences);
        assert!(!relaxed.mhb(inc0, inc1));
        assert!(relaxed.ccw(inc0, inc1));
    }
}
