//! Deciding ordering queries by SAT — the reduction run in reverse.
//!
//! Theorems 1–4 map SAT *to* ordering queries; this module maps an
//! ordering query *back* to SAT, giving the workspace an independent
//! decision procedure for MHB/CHB/CCW (besides the cut-lattice pass and
//! the early-exit witness search). The procedures are cross-validated
//! against each other in the property suites and the nightly
//! differential-fuzz lane.
//!
//! The encoding itself lives in [`eo_sym::PoEncoding`]: one Boolean
//! variable per unordered event pair, unit facts for the transitive
//! closure of →T and (mode permitting) →D, two "no 3-cycle" clauses per
//! triple the base order leaves open, a token matching per semaphore, and
//! trigger variables for event-variable causality. This module owns the
//! *engine-facing* plumbing:
//!
//! * [`SatSession`] — a long-lived query session over one encoding. Every
//!   query is one (CCW: up to two) incremental `solve_assuming` call
//!   against the shared CDCL solver, so conflict clauses learned by one
//!   query prune the next, and the schedules the solves find are kept:
//!   a CHB or MHB question one of them already answers costs no solve.
//!   This is the `--backend sat` path of `eo serve` and the subject of
//!   experiment E19.
//! * the one-shot [`chb_via_sat`] / [`mhb_via_sat`] free functions and
//!   their budgeted variants, which build a fresh encoding per call —
//!   the historical cross-validation surface, kept verbatim.
//!
//! Budgets thread through the solver's stop callback: the supervisor
//! [`Budget`] is polled before the (cubic) encoding is built and
//! periodically *inside* unit propagation, so a deadline or cancellation
//! interrupts even a pathological propagation cascade — not just the
//! next decision.

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use eo_model::EventId;
use eo_sat::Solver;
use eo_sym::{PoEncoding, SymOutcome};

/// A long-lived SAT-backed query session over one execution.
///
/// Construction encodes the full feasibility theory of ⟨E, →T, →D⟩ once;
/// each query then adds at most a handful of activation clauses and runs
/// one incremental solve under assumptions. Learned clauses persist
/// across queries — a batch against one session shares all refutation
/// work, which is where the symbolic backend beats per-query-fresh
/// solving (experiment E19 quantifies the gap). So do the schedules the
/// solves decode: a before-query that one of them answers skips the
/// solver.
///
/// Answers are exact and agree with the witness-search engine
/// ([`crate::queries`]) on every query; the differential suites pin this.
pub struct SatSession {
    enc: PoEncoding,
    budget: Budget,
    /// Solver counters already surfaced through `eo_obs`, so repeated
    /// queries against one incremental solver emit deltas, not totals.
    emitted: (u64, u64, u64),
    /// Complete schedules the solves have decoded, overlap models
    /// included (before truncation). One is kept only if it runs some
    /// pair in an order no kept schedule does, so a long-lived session
    /// keeps at most one per ordered pair.
    schedules: Vec<Vec<EventId>>,
    /// For the ordered pair `(a, b)`, at `a * n + b`: the index of a kept
    /// schedule running `a` before `b`, or `NO_SCHEDULE`. A CHB question
    /// with an entry here needs no solve.
    runs_before: Vec<u32>,
}

/// The `runs_before` entry of a pair no kept schedule runs in that order.
const NO_SCHEDULE: u32 = u32::MAX;

impl SatSession {
    /// Opens an unbudgeted session for `ctx`'s execution (and feasibility
    /// mode — the encoding bakes in `ctx.effective_d()`).
    pub fn new(ctx: &SearchCtx<'_>) -> SatSession {
        SatSession::with_budget(ctx, Budget::unlimited())
    }

    /// Opens a session whose queries run under `budget`.
    pub fn with_budget(ctx: &SearchCtx<'_>, budget: Budget) -> SatSession {
        eo_obs::span!("sat.encode");
        let enc = PoEncoding::with_dependence(ctx.exec().trace(), &ctx.effective_dependence());
        eo_obs::counter!("sat.clauses", enc.core_clause_count() as u64);
        let n = enc.n_events();
        SatSession {
            enc,
            budget,
            emitted: (0, 0, 0),
            schedules: Vec::new(),
            runs_before: vec![NO_SCHEDULE; n * n],
        }
    }

    /// Replaces the budget subsequent queries run under, keeping the
    /// encoding and every learned clause intact (the serve layer renews
    /// budgets per request).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The underlying encoding (diagnostics and tests).
    pub fn encoding(&self) -> &PoEncoding {
        &self.enc
    }

    /// Runs one solve under the session budget (the caller has already
    /// checked it once), mapping `Interrupted` to the budget's error,
    /// surfacing solver-counter deltas, and keeping the decoded schedule.
    fn solve(
        &mut self,
        run: impl FnOnce(&mut PoEncoding, &mut dyn FnMut(u64) -> bool) -> SymOutcome,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        let mut stop_err: Option<EngineError> = None;
        let outcome = {
            let budget = &self.budget;
            let mut stop = |_nodes: u64| match budget.check(0) {
                Ok(()) => false,
                Err(e) => {
                    stop_err = Some(e);
                    true
                }
            };
            run(&mut self.enc, &mut stop)
        };
        self.surface_metrics();
        match outcome {
            SymOutcome::Sat(model) => {
                let schedule = self.enc.decode_schedule(&model);
                self.keep(&schedule);
                Ok(Some(schedule))
            }
            SymOutcome::Unsat => Ok(None),
            SymOutcome::Interrupted => Err(stop_err.unwrap_or(EngineError::Cancelled)),
        }
    }

    /// Keeps `schedule` if it runs some pair in an order no kept schedule
    /// does, and indexes it under every such pair.
    fn keep(&mut self, schedule: &[EventId]) {
        let n = schedule.len();
        let index = self.schedules.len() as u32;
        let mut orders_a_new_pair = false;
        for (i, a) in schedule.iter().enumerate() {
            for b in &schedule[i + 1..] {
                let entry = &mut self.runs_before[a.index() * n + b.index()];
                if *entry == NO_SCHEDULE {
                    *entry = index;
                    orders_a_new_pair = true;
                }
            }
        }
        if orders_a_new_pair {
            self.schedules.push(schedule.to_vec());
        }
    }

    /// Emits the solver counters accrued since the last emission under
    /// the historical `sat.dpll_*` metric names.
    fn surface_metrics(&mut self) {
        let s = self.enc.solver();
        let (nodes, decisions, backtracks) = (s.nodes_visited, s.decisions, s.backtracks);
        eo_obs::counter!("sat.dpll_nodes", nodes - self.emitted.0);
        eo_obs::counter!("sat.dpll_decisions", decisions - self.emitted.1);
        eo_obs::counter!("sat.dpll_backtracks", backtracks - self.emitted.2);
        self.emitted = (nodes, decisions, backtracks);
    }

    /// A complete feasible schedule running `first` strictly before
    /// `second`, or `None` when every feasible execution orders them the
    /// other way. A schedule an earlier solve of this session found is
    /// returned when one runs `first` first; otherwise one incremental
    /// solve.
    ///
    /// # Panics
    /// Panics if `first == second`.
    pub fn try_witness_before(
        &mut self,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(first, second, "witness queries need two distinct events");
        self.budget.check(0)?;
        let kept = self.runs_before[first.index() * self.enc.n_events() + second.index()];
        if kept != NO_SCHEDULE {
            return Ok(Some(self.schedules[kept as usize].clone()));
        }
        self.solve(|enc, stop| enc.solve_before(first, second, stop))
    }

    /// A feasible schedule prefix reaching a state where `a` and `b` are
    /// simultaneously enabled (and completion stays reachable), or `None`.
    /// Up to two incremental solves (one per firing order).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn try_witness_overlap(
        &mut self,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(a, b, "witness queries need two distinct events");
        self.budget.check(0)?;
        let schedule = self.solve(|enc, stop| enc.solve_overlap(a, b, stop))?;
        Ok(schedule.map(|mut schedule| {
            // The model schedules the pair back to back with both enabled
            // at the state just before; the witness is the prefix up to
            // that state, matching the search engine's contract.
            let overlap_at = schedule
                .iter()
                .position(|&e| e == a || e == b)
                .expect("decoded schedule contains every event");
            schedule.truncate(overlap_at);
            schedule
        }))
    }

    /// Decides `a MHB b`: no feasible schedule runs `b` before `a`.
    pub fn try_must_happen_before(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(b, a)?.is_none())
    }

    /// Decides `a CHB b`: some feasible schedule runs `a` before `b`.
    pub fn try_could_happen_before(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(a, b)?.is_some())
    }

    /// Decides operational `a CCW b`: some feasible schedule reaches a
    /// state with both enabled and still completes.
    pub fn try_could_be_concurrent(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_overlap(a, b)?.is_some())
    }
}

/// Surfaces a one-shot solver's work counters through the observability
/// layer (`sat.dpll_nodes` / `sat.dpll_decisions` / `sat.dpll_backtracks`
/// — the names predate the CDCL rewrite and are part of the metrics
/// schema).
fn emit_solver_metrics(solver: &Solver) {
    eo_obs::counter!("sat.dpll_nodes", solver.nodes_visited);
    eo_obs::counter!("sat.dpll_decisions", solver.decisions);
    eo_obs::counter!("sat.dpll_backtracks", solver.backtracks);
}

/// Decides `first CHB second` by SAT, returning the witness schedule on
/// success. One-shot: builds a fresh encoding per call — batching callers
/// should hold a [`SatSession`] instead.
pub fn chb_via_sat(ctx: &SearchCtx<'_>, first: EventId, second: EventId) -> Option<Vec<EventId>> {
    assert_ne!(first, second);
    let mut session = SatSession::new(ctx);
    let result = session
        .try_witness_before(first, second)
        .expect("an unlimited budget cannot interrupt the solver");
    emit_solver_metrics(session.enc.solver());
    result
}

/// Decides `a MHB b` by SAT: no feasible schedule runs `b` before `a`.
pub fn mhb_via_sat(ctx: &SearchCtx<'_>, a: EventId, b: EventId) -> bool {
    a != b && chb_via_sat(ctx, b, a).is_none()
}

/// [`chb_via_sat`] under a supervisor [`Budget`]: the budget is checked
/// before the (cubic) encoding is built and periodically inside unit
/// propagation, so a deadline or cancellation interrupts even a
/// pathological solve. Errors with the first exhausted resource.
pub fn chb_via_sat_budgeted(
    ctx: &SearchCtx<'_>,
    first: EventId,
    second: EventId,
    budget: &Budget,
) -> Result<Option<Vec<EventId>>, EngineError> {
    assert_ne!(first, second);
    budget.check(0)?;
    let mut session = SatSession::with_budget(ctx, budget.clone());
    let result = session.try_witness_before(first, second);
    emit_solver_metrics(session.enc.solver());
    result
}

/// [`mhb_via_sat`] under a supervisor [`Budget`]; see
/// [`chb_via_sat_budgeted`].
pub fn mhb_via_sat_budgeted(
    ctx: &SearchCtx<'_>,
    a: EventId,
    b: EventId,
    budget: &Budget,
) -> Result<bool, EngineError> {
    Ok(a != b && chb_via_sat_budgeted(ctx, b, a, budget)?.is_none())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FeasibilityMode;
    use crate::queries;
    use eo_model::{fixtures, Op};

    fn ctx_of(exec: &eo_model::ProgramExecution) -> SearchCtx<'_> {
        SearchCtx::new(exec, FeasibilityMode::PreserveDependences)
    }

    fn all_fixtures() -> Vec<eo_model::Trace> {
        vec![
            fixtures::independent_pair().0,
            fixtures::sem_handshake().0,
            fixtures::fork_join_diamond().0,
            fixtures::crossing().0,
            fixtures::figure1().0,
            fixtures::post_wait_clear_chain().0,
            fixtures::shared_counter_race().0,
        ]
    }

    #[test]
    fn handshake_sat_backend() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(mhb_via_sat(&ctx, ids.v, ids.p));
        assert!(chb_via_sat(&ctx, ids.p, ids.v).is_none());
        let witness = chb_via_sat(&ctx, ids.after_p, ids.after_v).expect("tails reorder");
        assert!(
            ctx.machine().replay(&witness).is_ok(),
            "decoded schedule replays"
        );
    }

    #[test]
    fn figure1_sat_backend_sees_the_dependence() {
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(mhb_via_sat(&ctx, ids.post_left, ids.post_right));
        let relaxed = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
        assert!(!mhb_via_sat(&relaxed, ids.post_left, ids.post_right));
    }

    #[test]
    fn clear_chain_deadlock_branches_are_not_models() {
        let (trace, ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        // wait1 before post1 is infeasible; the SAT backend must agree
        // even though the machine can deadlock down those branches.
        assert!(chb_via_sat(&ctx, ids[1], ids[0]).is_none());
        assert!(mhb_via_sat(&ctx, ids[0], ids[1]));
    }

    #[test]
    fn sat_backend_agrees_with_witness_search_on_fixtures() {
        for trace in all_fixtures() {
            let exec = trace.to_execution().unwrap();
            let ctx = ctx_of(&exec);
            let n = exec.n_events();
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    assert_eq!(
                        chb_via_sat(&ctx, ea, eb).is_some(),
                        queries::could_happen_before(&ctx, ea, eb),
                        "chb({a},{b}) disagrees"
                    );
                }
            }
        }
    }

    #[test]
    fn sat_session_agrees_with_witness_search_on_all_queries() {
        for trace in all_fixtures() {
            for mode in [
                FeasibilityMode::PreserveDependences,
                FeasibilityMode::IgnoreDependences,
            ] {
                let exec = trace.to_execution().unwrap();
                let ctx = SearchCtx::new(&exec, mode);
                let mut session = SatSession::new(&ctx);
                let n = exec.n_events();
                for a in 0..n {
                    for b in 0..n {
                        if a == b {
                            continue;
                        }
                        let (ea, eb) = (EventId::new(a), EventId::new(b));
                        assert_eq!(
                            session.try_must_happen_before(ea, eb).unwrap(),
                            queries::must_happen_before(&ctx, ea, eb),
                            "mhb({a},{b}) disagrees in {mode:?}"
                        );
                        assert_eq!(
                            session.try_could_happen_before(ea, eb).unwrap(),
                            queries::could_happen_before(&ctx, ea, eb),
                            "chb({a},{b}) disagrees in {mode:?}"
                        );
                        assert_eq!(
                            session.try_could_be_concurrent(ea, eb).unwrap(),
                            queries::could_be_concurrent(&ctx, ea, eb),
                            "ccw({a},{b}) disagrees in {mode:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn session_overlap_witness_is_a_replayable_prefix() {
        for trace in all_fixtures() {
            let exec = trace.to_execution().unwrap();
            let ctx = ctx_of(&exec);
            let mut session = SatSession::new(&ctx);
            let n = exec.n_events();
            for a in 0..n {
                for b in (a + 1)..n {
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    if let Some(prefix) = session.try_witness_overlap(ea, eb).unwrap() {
                        assert!(
                            !prefix.contains(&ea) && !prefix.contains(&eb),
                            "the overlap prefix stops before the pair"
                        );
                        let m = ctx.machine();
                        let mut st = m.initial_state();
                        for &e in &prefix {
                            assert!(
                                m.enabled_events(&st).iter().any(|&(_, ev)| ev == e),
                                "overlap prefix for ({a},{b}) replays"
                            );
                            m.step(&mut st, exec.trace().event(e).process);
                        }
                        let enabled = m.enabled_events(&st);
                        assert!(
                            enabled.iter().any(|&(_, ev)| ev == ea)
                                && enabled.iter().any(|&(_, ev)| ev == eb),
                            "both of ({a},{b}) enabled at the prefix state"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn decoded_witnesses_order_the_pair() {
        let (trace, a, b) = fixtures::crossing();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let w = chb_via_sat(&ctx, b, a).expect("either order feasible");
        let pos = |e: EventId| w.iter().position(|&x| x == e).unwrap();
        assert!(pos(b) < pos(a));
        assert!(ctx.machine().replay(&w).is_ok());
    }

    #[test]
    fn initial_tokens_are_anonymous_sources() {
        let mut tb = eo_model::TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 1);
        let q = tb.push(p0, Op::SemP(s));
        let v = tb.push(p1, Op::SemV(s));
        let exec = tb.build().unwrap().to_execution().unwrap();
        let ctx = ctx_of(&exec);
        // The P may precede the V (initial token) or follow it.
        assert!(chb_via_sat(&ctx, q, v).is_some());
        assert!(chb_via_sat(&ctx, v, q).is_some());
    }

    #[test]
    fn encoding_size_is_reported() {
        let (trace, _) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let session = SatSession::new(&ctx);
        // 4 events, 2 base units (one per process). Each of the C(4,3) = 4
        // triples has exactly one base-ordered pair, which satisfies one
        // of its two cycle clauses and shortens the other to two literals.
        // The token matching adds 2 units: the P's only source serves it,
        // so V before P.
        assert_eq!(session.encoding().core_clause_count(), 2 + 4 + 2);
    }

    /// The solver's work counters, to tell a solve from a kept answer.
    fn work(session: &SatSession) -> (u64, u64) {
        let s = session.encoding().solver();
        (s.decisions, s.propagations)
    }

    #[test]
    fn kept_schedules_answer_before_queries_without_a_solve() {
        let (trace, a, b) = fixtures::crossing();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let replays = |w: &[EventId], first: EventId, second: EventId| {
            let pos = |e: EventId| w.iter().position(|&x| x == e).unwrap();
            ctx.machine().replay(w).is_ok() && pos(first) < pos(second)
        };
        let mut session = SatSession::new(&ctx);
        let found = session.try_witness_before(a, b).unwrap().expect("a first");
        assert!(replays(&found, a, b));

        // The kept schedule orders its first event before its last one:
        // that question is answered from it, and the solver does nothing.
        let (p, q) = (found[0], found[found.len() - 1]);
        let before = work(&session);
        let reused = session.try_witness_before(p, q).unwrap().expect("kept");
        assert_eq!(work(&session), before, "a kept schedule needs no solve");
        assert_eq!(reused, found);
        assert!(replays(&reused, p, q));

        // No kept schedule runs b first, so that question is solved.
        let before = work(&session);
        let solved = session.try_witness_before(b, a).unwrap().expect("b first");
        assert_ne!(work(&session), before, "an unanswered pair runs a solve");
        assert!(replays(&solved, b, a));
        let before = work(&session);
        assert!(!session.try_must_happen_before(a, b).unwrap());
        assert_eq!(work(&session), before, "MHB reads the kept schedules too");

        // Overlap models are kept before truncation: the complete schedule
        // behind an overlap witness answers one of the two orientations.
        let (trace, x, y) = fixtures::independent_pair();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = SatSession::new(&ctx);
        assert!(session.try_witness_overlap(x, y).unwrap().is_some());
        let mut solves = 0;
        for (p, q) in [(x, y), (y, x)] {
            let before = work(&session);
            assert!(session.try_could_happen_before(p, q).unwrap());
            solves += usize::from(work(&session) != before);
        }
        assert_eq!(solves, 1, "the overlap model answers one orientation");

        // Only a schedule that orders some pair anew is kept, so repeated
        // queries do not grow the session.
        for _ in 0..10 {
            session.try_witness_overlap(x, y).unwrap();
        }
        assert_eq!(session.schedules.len(), 2, "one per orientation");
    }

    #[test]
    fn session_reuses_learned_clauses_across_a_batch() {
        let (trace, _, _) = fixtures::shared_counter_race();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = SatSession::new(&ctx);
        let n = exec.n_events();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let _ = session
                        .try_could_happen_before(EventId::new(a), EventId::new(b))
                        .unwrap();
                }
            }
        }
        let conflicts_first_sweep = session.encoding().solver().conflicts;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let _ = session
                        .try_could_happen_before(EventId::new(a), EventId::new(b))
                        .unwrap();
                }
            }
        }
        let conflicts_second_sweep = session.encoding().solver().conflicts - conflicts_first_sweep;
        assert!(
            conflicts_second_sweep <= conflicts_first_sweep,
            "a repeated batch must not fight the same conflicts again \
             ({conflicts_second_sweep} > {conflicts_first_sweep})"
        );
    }

    #[test]
    fn exhausted_budget_interrupts_the_session() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let budget = Budget::unlimited();
        budget.cancel_handle().cancel();
        let mut session = SatSession::with_budget(&ctx, budget);
        assert!(matches!(
            session.try_could_happen_before(ids.v, ids.p),
            Err(EngineError::Cancelled)
        ));
        // Renewing the budget revives the session in place.
        session.set_budget(Budget::unlimited());
        assert!(session.try_could_happen_before(ids.v, ids.p).unwrap());
    }
}
