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
//! closure of →T and (mode permitting) →D, "no 3-cycle" clauses only
//! where that base order leaves transitivity open, a token matching per
//! semaphore, and trigger variables for event-variable causality. This
//! module owns the *engine-facing* plumbing:
//!
//! * [`SatSession`] — a long-lived query session over one encoding. A
//!   "yes" has a certificate, a schedule that a linear replay checks, so
//!   the session looks for one before it solves, in three steps:
//!   1. **kept** — it keeps complete feasible schedules (the trace's
//!      observed order, then the ones it finds) and answers a CHB or MHB
//!      question that one of them orders from it;
//!   2. **spliced** — a CCW or overlap question whose pair a kept
//!      schedule co-enables is answered by splicing the pair back to back
//!      at that prefix, if the splice replays to completion;
//!   3. **constructed** — otherwise it replays one schedule from the
//!      initial state. It fires the target as soon as it is co-enabled:
//!      `first` for a before-query, `a` and `b` back to back, in either
//!      order, for an overlap query. Until then it fires the co-enabled
//!      event that `cl(base)` orders before a target, failing that the
//!      one earliest in the observed order, and never `second` (or `a`,
//!      `b`) early. After the target it completes in observed order. A
//!      completed construction is the witness; an incomplete one proves
//!      nothing.
//!
//!   Only the rest reach the shared CDCL solver, as one incremental
//!   `solve_assuming` call (CCW: up to two), so conflict clauses learned
//!   by one query prune the next. A "no" always comes from a solve. The
//!   `sat.answers_{kept,spliced,constructed,solved}` counters say which
//!   step found each "yes", and `sat.answers_refuted` counts the "no"s.
//!   This is the `--backend sat` path of `eo serve` and the subject of
//!   experiment E19.
//! * the one-shot [`chb_via_sat`] / [`mhb_via_sat`] free functions and
//!   their budgeted variants, which build a fresh session per call —
//!   the historical cross-validation surface.
//!
//! Budgets thread through the solver's stop callback: the supervisor
//! [`Budget`] is polled before the (cubic) encoding is built and
//! periodically *inside* unit propagation, so a deadline or cancellation
//! interrupts even a pathological propagation cascade — not just the
//! next decision.

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use eo_model::{EventId, ProcessId};
use eo_sat::Solver;
use eo_sym::{PoEncoding, SymOutcome};

/// A long-lived SAT-backed query session over one execution.
///
/// Construction encodes the full feasibility theory of ⟨E, →T, →D⟩ once;
/// each query then adds at most a handful of activation clauses and runs
/// one incremental solve under assumptions. Learned clauses persist
/// across queries — a batch against one session shares all refutation
/// work, which is where the symbolic backend beats per-query-fresh
/// solving (experiment E19 quantifies the gap).
///
/// The session also keeps complete feasible schedules, starting with the
/// trace's observed order, and proves what it can without a solve: a
/// before-query that one of them answers gets it back, and an overlap
/// query whose pair one of them co-enables is answered by splicing the
/// pair back to back at that prefix and replaying the result to
/// completion under the context (machine plus →D gating). What they miss
/// it tries to construct, by one greedy replay from the initial state,
/// before it solves.
///
/// Every query takes the [`SearchCtx`] the session was opened for, as
/// [`crate::QueryMemo`]'s do; passing another context is a logic error.
/// Answers are exact and agree with the witness-search engine
/// ([`crate::queries`]) on every query; the differential suites pin this.
pub struct SatSession {
    enc: PoEncoding,
    budget: Budget,
    /// Solver counters already surfaced through `eo_obs`, so repeated
    /// queries against one incremental solver emit deltas, not totals.
    emitted: (u64, u64, u64),
    /// Complete schedules that replay under the session's context: the
    /// observed order, then the ones the solves decode (overlap models
    /// before truncation). A schedule is kept only if it runs some pair
    /// in an order no kept schedule does or co-enables a pair no kept
    /// schedule does, or if a solved overlap query points at it, so a
    /// session keeps at most 2·n·(n−1) of them.
    schedules: Vec<Vec<EventId>>,
    /// For the ordered pair `(a, b)`, at `a * n + b`: the index of a kept
    /// schedule running `a` before `b`, or `NO_SCHEDULE`. A CHB question
    /// with an entry here needs no solve.
    runs_before: Vec<u32>,
    /// For the unordered pair `{a, b}`, at `min * n + max`: a kept
    /// schedule and a prefix of it after which both are co-enabled — the
    /// first such prefix of the first schedule that had one, or the
    /// overlap point of the last solve that proved the pair.
    co_enabled_at: Vec<Cut>,
    /// The co-enabled list `keep` and `construct` reuse at each step of
    /// their replays.
    enabled: Vec<(ProcessId, EventId)>,
    /// Each event's position in the observed order, which breaks ties in
    /// `construct`.
    observed_at: Vec<u32>,
}

/// What a construction must fire.
#[derive(Clone, Copy)]
enum Goal {
    /// `first` as soon as it is co-enabled, `second` not before it.
    Before { first: EventId, second: EventId },
    /// `a` and `b` back to back, in either order, once both are
    /// co-enabled, and neither of them before that.
    Overlap { a: EventId, b: EventId },
}

/// The `runs_before` entry of a pair no kept schedule runs in that order.
const NO_SCHEDULE: u32 = u32::MAX;

/// A prefix of a kept schedule: its first `at` events.
#[derive(Clone, Copy)]
struct Cut {
    schedule: u32,
    at: u32,
}

impl Cut {
    /// The `co_enabled_at` entry of a pair no kept schedule co-enables.
    const NONE: Cut = Cut {
        schedule: NO_SCHEDULE,
        at: 0,
    };
}

impl SatSession {
    /// Opens an unbudgeted session for `ctx`'s execution (and feasibility
    /// mode — the encoding bakes in `ctx.effective_d()`).
    pub fn new(ctx: &SearchCtx<'_>) -> SatSession {
        SatSession::with_budget(ctx, Budget::unlimited())
    }

    /// Opens a session whose queries run under `budget`, seeded with the
    /// trace's observed order (feasible by definition).
    pub fn with_budget(ctx: &SearchCtx<'_>, budget: Budget) -> SatSession {
        eo_obs::span!("sat.encode");
        // The per-class →D counts are metrics only: the encoding needs the
        // flat →D, so the typed one is read only while recording.
        if eo_obs::recording() {
            eo_sym::count_dependence_classes(&ctx.effective_dependence());
        }
        let enc = PoEncoding::new(ctx.exec().trace(), ctx.effective_d());
        eo_obs::counter!("sat.clauses", enc.core_clause_count() as u64);
        let n = enc.n_events();
        let observed = ctx.exec().trace().observed_order();
        let mut observed_at = vec![0; n];
        for (at, e) in observed.iter().enumerate() {
            observed_at[e.index()] = at as u32;
        }
        let mut session = SatSession {
            enc,
            budget,
            emitted: (0, 0, 0),
            schedules: Vec::new(),
            runs_before: vec![NO_SCHEDULE; n * n],
            co_enabled_at: vec![Cut::NONE; n * n],
            enabled: Vec::new(),
            observed_at,
        };
        session.keep(ctx, &observed, false);
        session
    }

    /// Replaces the budget subsequent queries run under, keeping the
    /// encoding, every learned clause and every kept schedule intact (the
    /// serve layer renews budgets per request).
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// The underlying encoding (diagnostics and tests).
    pub fn encoding(&self) -> &PoEncoding {
        &self.enc
    }

    /// How many complete schedules the session keeps (diagnostics).
    pub fn kept_schedules(&self) -> usize {
        self.schedules.len()
    }

    /// Runs one solve under the session budget (the caller has already
    /// checked it once), mapping `Interrupted` to the budget's error,
    /// surfacing solver-counter deltas, and decoding the model.
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
            SymOutcome::Sat(model) => Ok(Some(self.enc.decode_schedule(&model))),
            SymOutcome::Unsat => Ok(None),
            SymOutcome::Interrupted => Err(stop_err.unwrap_or(EngineError::Cancelled)),
        }
    }

    /// The `co_enabled_at` slot of the unordered pair `{a, b}`.
    fn pair_slot(&self, a: EventId, b: EventId) -> usize {
        let (lo, hi) = (a.index().min(b.index()), a.index().max(b.index()));
        lo * self.enc.n_events() + hi
    }

    /// Keeps `schedule` if it runs some pair in a new order or co-enables
    /// a new pair (or if `always`), indexing it under every such pair, and
    /// returns its index when kept. The replay under `ctx` that finds the
    /// co-enabled pairs cannot block: solved schedules are models of an
    /// exact encoding, and the observed order is validated with the trace.
    fn keep(&mut self, ctx: &SearchCtx<'_>, schedule: &[EventId], always: bool) -> Option<u32> {
        let n = self.enc.n_events();
        let index = u32::try_from(self.schedules.len()).expect("kept schedules fit u32 indices");
        let mut fresh = false;
        let mut st = ctx.initial_state();
        for (at, &e) in schedule.iter().enumerate() {
            ctx.co_enabled_into(&st, &mut self.enabled);
            for (i, &(_, x)) in self.enabled.iter().enumerate() {
                for &(_, y) in &self.enabled[i + 1..] {
                    let slot = self.pair_slot(x, y);
                    if self.co_enabled_at[slot].schedule == NO_SCHEDULE {
                        self.co_enabled_at[slot] = Cut {
                            schedule: index,
                            at: at as u32,
                        };
                        fresh = true;
                    }
                }
            }
            ctx.step(&mut st, ctx.exec().event(e).process);
        }
        for (i, a) in schedule.iter().enumerate() {
            for b in &schedule[i + 1..] {
                let entry = &mut self.runs_before[a.index() * n + b.index()];
                if *entry == NO_SCHEDULE {
                    *entry = index;
                    fresh = true;
                }
            }
        }
        if !(fresh || always) {
            return None;
        }
        self.schedules.push(schedule.to_vec());
        Some(index)
    }

    /// Proves `a` and `b` co-enabled from a kept schedule: splices the
    /// pair back to back, in either order, at the prefix where that
    /// schedule co-enables them, and returns the prefix if a splice
    /// replays to completion under `ctx`.
    fn splice(&self, ctx: &SearchCtx<'_>, a: EventId, b: EventId) -> Option<Vec<EventId>> {
        let cut = self.co_enabled_at[self.pair_slot(a, b)];
        if cut.schedule == NO_SCHEDULE {
            return None;
        }
        let (prefix, rest) = self.schedules[cut.schedule as usize].split_at(cut.at as usize);
        let completes = |x: EventId, y: EventId| {
            let spliced = prefix
                .iter()
                .copied()
                .chain([x, y])
                .chain(rest.iter().copied().filter(|&e| e != a && e != b));
            ctx.replay(spliced).is_some_and(|st| ctx.is_complete(&st))
        };
        (completes(a, b) || completes(b, a)).then(|| prefix.to_vec())
    }

    /// Tries to build a witness for `goal` without a solve: one replay
    /// from the initial state under `ctx`. It fires the goal's target as
    /// soon as it is co-enabled (for an overlap, the pair back to back in
    /// whichever order fires). Until then it fires the co-enabled event
    /// that `cl(base)` orders before a target, failing that the one
    /// earliest in the observed order, never one of the goal's pair.
    /// After the target it completes in observed order. Returns the
    /// complete schedule, or `None` if the replay blocks first, or if an
    /// overlap pair is co-enabled but fires back to back in neither
    /// order. `None` decides nothing.
    fn construct(&mut self, ctx: &SearchCtx<'_>, goal: Goal) -> Option<Vec<EventId>> {
        // Neither event may fire early; the construction heads for the
        // targets: `first`, or both of the overlap pair.
        let held = match goal {
            Goal::Before { first, second } => [first, second],
            Goal::Overlap { a, b } => [a, b],
        };
        let targets = match goal {
            Goal::Before { .. } => &held[..1],
            Goal::Overlap { .. } => &held[..],
        };
        let base = self.enc.base_order();
        let feeds = |e: EventId| targets.iter().any(|t| base.contains(e.index(), t.index()));
        let process = |e: EventId| ctx.exec().event(e).process;
        let mut enabled = std::mem::take(&mut self.enabled);
        let mut schedule = Vec::with_capacity(self.enc.n_events());
        let mut st = ctx.initial_state();
        let mut reached = false;
        let complete = loop {
            ctx.co_enabled_into(&st, &mut enabled);
            let has = |e: EventId| enabled.iter().any(|&(_, f)| f == e);
            if !reached {
                match goal {
                    Goal::Before { first, .. } if has(first) => {
                        ctx.step(&mut st, process(first));
                        schedule.push(first);
                        reached = true;
                        continue;
                    }
                    Goal::Overlap { a, b } if has(a) && has(b) => {
                        let fired = [(a, b), (b, a)].into_iter().find_map(|(x, y)| {
                            let mut next = st.clone();
                            ctx.step(&mut next, process(x));
                            ctx.can_fire(&next, y).then(|| {
                                ctx.step(&mut next, process(y));
                                (next, x, y)
                            })
                        });
                        let Some((next, x, y)) = fired else {
                            break false;
                        };
                        st = next;
                        schedule.extend([x, y]);
                        reached = true;
                        continue;
                    }
                    _ => {}
                }
            }
            let next = enabled
                .iter()
                .map(|&(_, e)| e)
                .filter(|e| reached || !held.contains(e))
                .min_by_key(|&e| (reached || !feeds(e), self.observed_at[e.index()]));
            match next {
                Some(e) => {
                    ctx.step(&mut st, process(e));
                    schedule.push(e);
                }
                None => break ctx.is_complete(&st),
            }
        };
        self.enabled = enabled;
        complete.then_some(schedule)
    }

    /// Keeps a complete schedule that fires the overlap pair `{a, b}` back
    /// to back with both co-enabled just before, moves the pair's cut to
    /// that point (so asking again splices this schedule), and returns
    /// the prefix before the pair: the witness, as the search engine
    /// gives it.
    fn keep_overlap(
        &mut self,
        ctx: &SearchCtx<'_>,
        schedule: &[EventId],
        a: EventId,
        b: EventId,
    ) -> Vec<EventId> {
        let at = schedule
            .iter()
            .position(|&e| e == a || e == b)
            .expect("a complete schedule contains every event");
        let index = self.keep(ctx, schedule, true).expect("kept always");
        let slot = self.pair_slot(a, b);
        self.co_enabled_at[slot] = Cut {
            schedule: index,
            at: at as u32,
        };
        schedule[..at].to_vec()
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
    /// other way. A kept schedule is returned when one runs `first`
    /// first; otherwise a constructed one, kept in turn; otherwise one
    /// incremental solve.
    ///
    /// # Panics
    /// Panics if `first == second`.
    pub fn try_witness_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(first, second, "witness queries need two distinct events");
        self.budget.check(0)?;
        let kept = self.runs_before[first.index() * self.enc.n_events() + second.index()];
        if kept != NO_SCHEDULE {
            eo_obs::counter!("sat.answers_kept", 1);
            return Ok(Some(self.schedules[kept as usize].clone()));
        }
        let schedule = match self.construct(ctx, Goal::Before { first, second }) {
            Some(schedule) => {
                eo_obs::counter!("sat.answers_constructed", 1);
                Some(schedule)
            }
            None => {
                let solved = self.solve(|enc, stop| enc.solve_before(first, second, stop))?;
                count_solve(solved.is_some());
                solved
            }
        };
        if let Some(schedule) = &schedule {
            self.keep(ctx, schedule, false);
        }
        Ok(schedule)
    }

    /// A feasible schedule prefix reaching a state where `a` and `b` are
    /// simultaneously enabled and firing them back to back, in one order
    /// or the other, keeps completion reachable; or `None`. A splice of a
    /// kept schedule answers when one replays; otherwise a construction
    /// when one completes; otherwise up to two incremental solves (one
    /// per firing order).
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn try_witness_overlap(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(a, b, "witness queries need two distinct events");
        self.budget.check(0)?;
        if let Some(prefix) = self.splice(ctx, a, b) {
            eo_obs::counter!("sat.answers_spliced", 1);
            return Ok(Some(prefix));
        }
        // A constructed schedule, like a model, fires the pair back to
        // back with both enabled at the state just before.
        let schedule = match self.construct(ctx, Goal::Overlap { a, b }) {
            Some(schedule) => {
                eo_obs::counter!("sat.answers_constructed", 1);
                schedule
            }
            None => {
                let solved = self.solve(|enc, stop| enc.solve_overlap(a, b, stop))?;
                count_solve(solved.is_some());
                let Some(schedule) = solved else {
                    return Ok(None);
                };
                schedule
            }
        };
        Ok(Some(self.keep_overlap(ctx, &schedule, a, b)))
    }

    /// Decides `a MHB b`: no feasible schedule runs `b` before `a`.
    pub fn try_must_happen_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(ctx, b, a)?.is_none())
    }

    /// Decides `a CHB b`: some feasible schedule runs `a` before `b`.
    pub fn try_could_happen_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(ctx, a, b)?.is_some())
    }

    /// Decides operational `a CCW b`: some feasible schedule reaches a
    /// state with both enabled and still completes.
    pub fn try_could_be_concurrent(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_overlap(ctx, a, b)?.is_some())
    }
}

/// Counts a solved answer: `sat.answers_solved` for a witness a model
/// gave, `sat.answers_refuted` for a "no".
fn count_solve(found: bool) {
    if found {
        eo_obs::counter!("sat.answers_solved", 1);
    } else {
        eo_obs::counter!("sat.answers_refuted", 1);
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
/// success. One-shot: opens a fresh session per call — batching callers
/// should hold a [`SatSession`] instead.
pub fn chb_via_sat(ctx: &SearchCtx<'_>, first: EventId, second: EventId) -> Option<Vec<EventId>> {
    assert_ne!(first, second);
    let mut session = SatSession::new(ctx);
    let result = session
        .try_witness_before(ctx, first, second)
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
    let result = session.try_witness_before(ctx, first, second);
    emit_solver_metrics(session.enc.solver());
    result
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
                            session.try_must_happen_before(&ctx, ea, eb).unwrap(),
                            queries::must_happen_before(&ctx, ea, eb),
                            "mhb({a},{b}) disagrees in {mode:?}"
                        );
                        assert_eq!(
                            session.try_could_happen_before(&ctx, ea, eb).unwrap(),
                            queries::could_happen_before(&ctx, ea, eb),
                            "chb({a},{b}) disagrees in {mode:?}"
                        );
                        assert_eq!(
                            session.try_could_be_concurrent(&ctx, ea, eb).unwrap(),
                            queries::could_be_concurrent(&ctx, ea, eb),
                            "ccw({a},{b}) disagrees in {mode:?}"
                        );
                    }
                }
            }
        }
    }

    /// Seeded random programs in both synchronization styles, small
    /// enough for the checker's plain completion search.
    fn random_traces() -> Vec<eo_model::Trace> {
        use eo_lang::generator::{generate_trace, WorkloadSpec};
        (1..=6u64)
            .flat_map(|seed| {
                let mut sem = WorkloadSpec::small_semaphore(seed);
                let mut ev = WorkloadSpec::small_events(seed);
                ev.clears = seed % 2 == 0;
                for spec in [&mut sem, &mut ev] {
                    spec.processes = 3;
                    spec.events_per_process = 3;
                }
                [generate_trace(&sem, 100), generate_trace(&ev, 100)]
            })
            .collect()
    }

    /// How a session is about to answer: from a kept schedule, by a
    /// splice, by a construction, or by a solve.
    #[derive(Clone, Copy, Debug)]
    enum Path {
        Kept,
        Spliced,
        Constructed,
        Solved,
    }

    #[test]
    fn every_session_witness_passes_the_replay_checker() {
        let mut traces = all_fixtures();
        traces.extend(random_traces());
        traces.push(one_token_race().0);
        let mut answered = [0usize; 4];
        for trace in traces {
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
                        let path = if session.runs_before[a * n + b] != NO_SCHEDULE {
                            Path::Kept
                        } else if session
                            .construct(
                                &ctx,
                                Goal::Before {
                                    first: ea,
                                    second: eb,
                                },
                            )
                            .is_some()
                        {
                            Path::Constructed
                        } else {
                            Path::Solved
                        };
                        let w = session.try_witness_before(&ctx, ea, eb).unwrap();
                        assert_eq!(
                            w.is_some(),
                            queries::could_happen_before(&ctx, ea, eb),
                            "chb({a},{b}) in {mode:?}"
                        );
                        if let Some(w) = w {
                            ctx.check_witness_before(ea, eb, &w).unwrap_or_else(|e| {
                                panic!("{path:?} before-witness ({a},{b}) in {mode:?}: {e}")
                            });
                            answered[path as usize] += 1;
                        }

                        let path = if session.splice(&ctx, ea, eb).is_some() {
                            Path::Spliced
                        } else if session
                            .construct(&ctx, Goal::Overlap { a: ea, b: eb })
                            .is_some()
                        {
                            Path::Constructed
                        } else {
                            Path::Solved
                        };
                        let w = session.try_witness_overlap(&ctx, ea, eb).unwrap();
                        assert_eq!(
                            w.is_some(),
                            queries::could_be_concurrent(&ctx, ea, eb),
                            "ccw({a},{b}) in {mode:?}"
                        );
                        if let Some(w) = w {
                            ctx.check_witness_overlap(ea, eb, &w).unwrap_or_else(|e| {
                                panic!("{path:?} overlap witness ({a},{b}) in {mode:?}: {e}")
                            });
                            answered[path as usize] += 1;
                        }
                    }
                }
            }
        }
        assert!(
            answered.iter().all(|&k| k > 0),
            "kept, spliced, constructed and solved witnesses are all checked: {answered:?}"
        );
    }

    #[test]
    fn every_unanswered_query_comes_from_a_solve() {
        // A construction never answers "no": each None of both witness
        // queries ran the solver, and each constructed "yes" did not.
        let mut traces = all_fixtures();
        traces.extend(random_traces());
        traces.push(one_token_race().0);
        let (mut refuted, mut constructed) = (0, 0);
        for trace in traces {
            for mode in [
                FeasibilityMode::PreserveDependences,
                FeasibilityMode::IgnoreDependences,
            ] {
                let exec = trace.to_execution().unwrap();
                let ctx = SearchCtx::new(&exec, mode);
                let mut session = SatSession::new(&ctx);
                let n = exec.n_events();
                for a in 0..n {
                    for b in (0..n).filter(|&b| b != a) {
                        let (ea, eb) = (EventId::new(a), EventId::new(b));
                        for goal in [
                            Goal::Before {
                                first: ea,
                                second: eb,
                            },
                            Goal::Overlap { a: ea, b: eb },
                        ] {
                            let built = session.construct(&ctx, goal).is_some();
                            let before = solves(&session);
                            let answer = match goal {
                                Goal::Before { .. } => session.try_witness_before(&ctx, ea, eb),
                                Goal::Overlap { .. } => session.try_witness_overlap(&ctx, ea, eb),
                            };
                            let solved = solves(&session) > before;
                            if answer.unwrap().is_none() {
                                assert!(!built && solved, "a \"no\" for ({a}, {b}) in {mode:?}");
                                refuted += 1;
                            } else if built {
                                assert!(!solved, "({a}, {b}) was constructed in {mode:?}");
                                constructed += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            refuted > 0 && constructed > 0,
            "{refuted} refuted, {constructed} constructed"
        );
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

    /// How many solves the session's solver has run.
    fn solves(session: &SatSession) -> u64 {
        session.encoding().solver().solves
    }

    #[test]
    fn kept_schedules_answer_before_queries_without_a_solve() {
        let (trace, a, b) = fixtures::crossing();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let replays = |w: &[EventId], first: EventId, second: EventId| {
            ctx.check_witness_before(first, second, w).is_ok()
        };
        // The session opens with the observed order kept. It runs a
        // before b, so that question is answered from it, and the solver
        // does nothing.
        let mut session = SatSession::new(&ctx);
        assert_eq!(session.kept_schedules(), 1);
        let observed = session
            .try_witness_before(&ctx, a, b)
            .unwrap()
            .expect("kept");
        assert_eq!(solves(&session), 0, "a kept schedule needs no solve");
        assert_eq!(observed, exec.trace().observed_order());
        assert!(replays(&observed, a, b));

        // No kept schedule runs b first, so that schedule is constructed:
        // it fires b as soon as it is co-enabled. It orders a pair anew,
        // so it is kept.
        let constructed = session
            .try_witness_before(&ctx, b, a)
            .unwrap()
            .expect("b first");
        assert_eq!(solves(&session), 0, "a constructed schedule needs no solve");
        assert!(replays(&constructed, b, a));
        assert_eq!(session.kept_schedules(), 2);
        assert!(!session.try_must_happen_before(&ctx, a, b).unwrap());
        assert_eq!(solves(&session), 0, "MHB reads the kept schedules too");

        // a needs p1's V(t), so a before it is refuted: the construction
        // blocks, and the question is solved.
        let v_t = EventId::new(1);
        assert_eq!(exec.event(v_t).op, Op::SemV(eo_model::SemId::new(1)));
        assert!(session.try_witness_before(&ctx, a, v_t).unwrap().is_none());
        assert_eq!(solves(&session), 1, "an unanswered pair runs a solve");
        assert_eq!(session.kept_schedules(), 2);

        // Overlap queries splice a kept schedule: the observed order
        // co-enables the independent pair at the initial state.
        let (trace, x, y) = fixtures::independent_pair();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = SatSession::new(&ctx);
        assert_eq!(
            session.try_witness_overlap(&ctx, x, y).unwrap(),
            Some(vec![])
        );
        // The observed order runs x first; y first is constructed.
        for (p, q) in [(x, y), (y, x)] {
            assert!(session.try_could_happen_before(&ctx, p, q).unwrap());
        }
        assert_eq!(
            solves(&session),
            0,
            "a splice and a construction need no solve"
        );

        // Only a schedule that orders or co-enables some pair anew is
        // kept, so repeated queries do not grow the session.
        for _ in 0..10 {
            session.try_witness_overlap(&ctx, x, y).unwrap();
            session.try_witness_before(&ctx, y, x).unwrap();
        }
        assert_eq!(session.kept_schedules(), 2, "one per orientation");
    }

    /// One token: A runs P; V, B runs P, C runs V; observed A.P, C.V,
    /// B.P, A.V. Both P's are enabled at the initial state, but with a
    /// single token neither can follow the other there; after C's V they
    /// can. Returns the trace, A's P, B's P and C's V.
    fn one_token_race() -> (eo_model::Trace, EventId, EventId, EventId) {
        let mut tb = eo_model::TraceBuilder::new();
        let (pa, pb, pc) = (tb.process("A"), tb.process("B"), tb.process("C"));
        let s = tb.semaphore("s", 1);
        let a1 = tb.push(pa, Op::SemP(s));
        let c1 = tb.push(pc, Op::SemV(s));
        let b1 = tb.push(pb, Op::SemP(s));
        tb.push(pa, Op::SemV(s));
        (tb.build().unwrap(), a1, b1, c1)
    }

    #[test]
    fn a_failed_splice_falls_back_to_a_solve_and_moves_the_cut() {
        let (trace, a1, b1, c1) = one_token_race();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = SatSession::new(&ctx);
        assert!(
            session.splice(&ctx, a1, b1).is_none(),
            "no splice at the start"
        );

        // Both P's are co-enabled at the start, where neither can follow
        // the other, so the construction stops there too.
        assert!(session
            .construct(&ctx, Goal::Overlap { a: a1, b: b1 })
            .is_none());
        let prefix = session
            .try_witness_overlap(&ctx, a1, b1)
            .unwrap()
            .expect("ccw");
        assert_eq!(solves(&session), 1, "a failed splice runs a solve");
        assert!(prefix.contains(&c1), "the second token must be in first");
        ctx.check_witness_overlap(a1, b1, &prefix).unwrap();

        // The solve moved the pair's cut to its own overlap point, so the
        // same question is now spliced from the model it kept.
        assert_eq!(
            session.try_witness_overlap(&ctx, b1, a1).unwrap(),
            Some(prefix)
        );
        assert_eq!(solves(&session), 1, "asked again, the pair is spliced");
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
                        .try_could_happen_before(&ctx, EventId::new(a), EventId::new(b))
                        .unwrap();
                }
            }
        }
        let conflicts_first_sweep = session.encoding().solver().conflicts;
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let _ = session
                        .try_could_happen_before(&ctx, EventId::new(a), EventId::new(b))
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
            session.try_could_happen_before(&ctx, ids.v, ids.p),
            Err(EngineError::Cancelled)
        ));
        // The budget is checked before the kept schedules are read: the
        // observed order answers these two, yet both error.
        assert!(session.splice(&ctx, ids.after_v, ids.p).is_some());
        assert!(matches!(
            session.try_witness_overlap(&ctx, ids.after_v, ids.p),
            Err(EngineError::Cancelled)
        ));
        assert!(matches!(
            session.try_witness_before(&ctx, ids.v, ids.after_p),
            Err(EngineError::Cancelled)
        ));
        // Renewing the budget revives the session in place.
        session.set_budget(Budget::unlimited());
        assert!(session.try_could_happen_before(&ctx, ids.v, ids.p).unwrap());
        assert!(session
            .try_could_be_concurrent(&ctx, ids.after_v, ids.p)
            .unwrap());
    }
}
