//! Differential suite for the interned hot path.
//!
//! The engine overhaul (state arena + successor-table walks + threaded
//! executed sets) must be a pure layout change: every relation, count, and
//! witness the old code produced, the new code must reproduce **bit for
//! bit**. This suite pits the interned explorer against the preserved
//! pre-overhaul baseline ([`explore_statespace_baseline`]) and the
//! per-pair witness queries — on the model
//! fixtures and on both E9 workload families (the pairing-pitfall ladder
//! and the random semaphore workloads race detection sweeps).
//!
//! The same contract covers the trace-equivalence strategies: however
//! coarsely `normal-form` quotients the schedule space, the set of
//! induced orders — and every summary relation built from it — must be
//! bit-identical to the sleep-set Mazurkiewicz baseline.
//!
//! And it covers the incremental enumeration leaves: the sleep-set search
//! that closes each pairing-edge set once must visit, count, truncate and
//! record exactly like a plain sleep-set DFS that rebuilds every
//! schedule's induced order from scratch.
//!
//! Finally it covers the witness-query chart: a [`QueryMemo`] that charts
//! the cut lattice once and memoizes completability must return the same
//! witnesses, intern the same states and trip the same state caps as a
//! search that clones, steps and interns on every edge it walks.

use eo_engine::EquivStrategy;
use eo_engine::{enumerate_classes, enumerate_classes_with};
use eo_engine::{
    explore_statespace, explore_statespace_baseline, queries, Budget, EngineError, FeasibilityMode,
    OrderingSummary, QueryMemo, QuerySession, SearchCtx, StateId, StateSpaceResult,
};
use eo_model::{EventId, MachState, ProcessId, ProgramExecution};
use eo_relations::fxhash::FxHashMap;
use eo_relations::{BitSet, Relation};
use std::collections::HashSet;

const BUDGET: usize = 1 << 22;

/// Runs the interned explorer and the baseline and asserts the semantic
/// fields agree exactly.
fn assert_explorers_agree(exec: &ProgramExecution, mode: FeasibilityMode) -> StateSpaceResult {
    let ctx = SearchCtx::new(exec, mode);
    let interned = explore_statespace(&ctx, BUDGET).expect("state budget");
    let baseline = explore_statespace_baseline(&ctx, BUDGET).expect("state budget");
    assert_eq!(interned.chb, baseline.chb, "chb");
    assert_eq!(interned.overlap, baseline.overlap, "overlap");
    assert_eq!(interned.states, baseline.states, "states");
    assert_eq!(
        interned.completable_states, baseline.completable_states,
        "completable_states"
    );
    assert_eq!(
        interned.deadlock_reachable, baseline.deadlock_reachable,
        "deadlock_reachable"
    );
    interned
}

/// Asserts the witness queries — through one shared session *and* as
/// one-shots — agree with `space` on every pair.
fn assert_queries_agree(exec: &ProgramExecution, mode: FeasibilityMode, space: &StateSpaceResult) {
    let ctx = SearchCtx::new(exec, mode);
    let mut session = QuerySession::new(&ctx);
    let n = exec.n_events();
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            assert_eq!(
                session.could_happen_before(ea, eb),
                space.chb.contains(a, b),
                "session chb({a},{b})"
            );
            assert_eq!(
                session.could_be_concurrent(ea, eb),
                space.overlap.contains(a, b),
                "session overlap({a},{b})"
            );
        }
    }
    // Spot-check the one-shot wrappers on the first row (the full
    // quadratic sweep above already covers the session path).
    if n > 1 {
        let ea = EventId::new(0);
        for b in 1..n {
            let eb = EventId::new(b);
            assert_eq!(
                queries::could_happen_before(&ctx, ea, eb),
                space.chb.contains(0, b),
                "one-shot chb(0,{b})"
            );
            assert_eq!(
                queries::could_be_concurrent(&ctx, ea, eb),
                space.overlap.contains(0, b),
                "one-shot overlap(0,{b})"
            );
        }
    }
}

/// Enumerates F(P) under `normal-form` and asserts the order set — and
/// the summary built from it — is bit-identical to the Mazurkiewicz
/// baseline.
fn assert_strategies_agree(exec: &ProgramExecution, mode: FeasibilityMode) {
    let ctx = SearchCtx::new(exec, mode);
    let base = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::Mazurkiewicz);
    assert!(!base.truncated, "differential workloads must not truncate");
    let space = explore_statespace(&ctx, BUDGET).unwrap();
    let old = OrderingSummary::from_parts(&space, &base);
    let mut base_fps: Vec<u128> = base.orders.iter().map(|o| o.fingerprint128()).collect();
    base_fps.sort_unstable();
    let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
    assert!(!r.truncated);
    let mut fps: Vec<u128> = r.orders.iter().map(|o| o.fingerprint128()).collect();
    fps.sort_unstable();
    assert_eq!(base_fps, fps, "F(P) differs from baseline");
    assert!(
        r.schedules_explored <= base.schedules_explored,
        "coarsening must not explore more schedules"
    );
    let new = OrderingSummary::from_parts(&space, &r);
    assert_eq!(old.mhb_relation(), new.mhb_relation(), "mhb");
    assert_eq!(old.chb_relation(), new.chb_relation(), "chb");
    assert_eq!(old.ccw_relation(), new.ccw_relation(), "ccw");
    assert_eq!(
        old.ccw_induced_relation(),
        new.ccw_induced_relation(),
        "ccw_induced"
    );
    assert_eq!(
        old.all_ordered_relation(),
        new.all_ordered_relation(),
        "all_ordered"
    );
    assert_eq!(old.class_count(), new.class_count(), "classes");
}

fn fixture_traces() -> Vec<eo_model::Trace> {
    use eo_model::fixtures;
    vec![
        fixtures::independent_pair().0,
        fixtures::sem_handshake().0,
        fixtures::fork_join_diamond().0,
        fixtures::figure1().0,
        fixtures::post_wait_clear_chain().0,
        fixtures::shared_counter_race().0,
        fixtures::crossing().0,
    ]
}

#[test]
fn fixtures_bit_identical_across_explorers_and_queries() {
    for trace in fixture_traces() {
        let exec = trace.to_execution().unwrap();
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let space = assert_explorers_agree(&exec, mode);
            assert_queries_agree(&exec, mode, &space);
            assert_strategies_agree(&exec, mode);
        }
    }
}

#[test]
fn fixture_summaries_bit_identical() {
    for trace in fixture_traces() {
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let classes = enumerate_classes(&ctx, 1 << 20);
        let interned = explore_statespace(&ctx, BUDGET).unwrap();
        let baseline = explore_statespace_baseline(&ctx, BUDGET).unwrap();
        let new = OrderingSummary::from_parts(&interned, &classes);
        let old = OrderingSummary::from_parts(&baseline, &classes);
        let n = exec.n_events();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                assert_eq!(new.mhb(ea, eb), old.mhb(ea, eb), "mhb({a},{b})");
                assert_eq!(new.chb(ea, eb), old.chb(ea, eb), "chb({a},{b})");
                assert_eq!(new.mcw(ea, eb), old.mcw(ea, eb), "mcw({a},{b})");
                assert_eq!(new.ccw(ea, eb), old.ccw(ea, eb), "ccw({a},{b})");
                assert_eq!(new.mow(ea, eb), old.mow(ea, eb), "mow({a},{b})");
                assert_eq!(new.cow(ea, eb), old.cow(ea, eb), "cow({a},{b})");
            }
        }
    }
}

/// The E9 pairing-pitfall family: a writer's `V` observably paired with
/// the reader's guarding `P`, plus `decoys` other `V`s that could have
/// served it instead. Race detection runs these under the
/// dependence-ignoring feasibility of the paper's Section 5.3.
fn pitfall_exec(decoys: usize) -> ProgramExecution {
    let mut b = eo_lang::ProgramBuilder::new();
    let s = b.semaphore("s");
    let x = b.variable("x");
    let w = b.process("writer");
    b.compute_rw(w, &[], &[x], "write_x");
    b.sem_v(w, s);
    for k in 0..decoys {
        let d = b.process(&format!("decoy_{k}"));
        b.sem_v(d, s);
    }
    let r = b.process("reader");
    b.sem_p(r, s);
    b.compute_rw(r, &[x], &[], "read_x");
    let program = b.build();
    eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::deterministic())
        .expect("pitfall program cannot deadlock")
        .to_execution()
        .expect("interpreter traces are valid")
}

#[test]
fn e9_pitfall_family_bit_identical() {
    for decoys in 1..=4 {
        let exec = pitfall_exec(decoys);
        let space = assert_explorers_agree(&exec, FeasibilityMode::IgnoreDependences);
        assert_queries_agree(&exec, FeasibilityMode::IgnoreDependences, &space);
        assert_strategies_agree(&exec, FeasibilityMode::IgnoreDependences);
    }
}

#[test]
fn e9_random_semaphore_family_bit_identical() {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    for seed in 0..6 {
        let mut spec = WorkloadSpec::small_semaphore(seed);
        spec.variables = 3;
        spec.write_fraction = 0.5;
        let exec = generate_trace(&spec, 100).to_execution().unwrap();
        // Race detection queries this family under IgnoreDependences; the
        // scaling experiments explore it under PreserveDependences. Check
        // both.
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let space = assert_explorers_agree(&exec, mode);
            assert_strategies_agree(&exec, mode);
            if seed < 2 {
                // The quadratic query sweep is expensive; two seeds per
                // mode keep the suite fast while still crossing the
                // query/explorer boundary on random inputs.
                assert_queries_agree(&exec, mode, &space);
            }
        }
    }
}

#[test]
fn e6_scaling_workloads_bit_identical() {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    for (processes, events_per_process, seed) in [(3, 4, 11), (4, 4, 12), (5, 3, 13)] {
        let mut spec = WorkloadSpec::small_semaphore(seed);
        spec.processes = processes;
        spec.events_per_process = events_per_process;
        spec.semaphores = (processes / 2).max(1);
        let exec = generate_trace(&spec, 100).to_execution().unwrap();
        assert_explorers_agree(&exec, FeasibilityMode::PreserveDependences);
        assert_strategies_agree(&exec, FeasibilityMode::PreserveDependences);
    }
}

/// A plain sleep-set DFS over schedules, kept here as the reference for
/// the engine's incremental one: every child state is a fresh clone, every
/// child sleep set is filtered bit by bit through
/// [`SearchCtx::statically_dependent`], and every complete schedule's
/// order is rebuilt from scratch by [`SearchCtx::induced_order`] and
/// deduplicated on the full matrix.
struct ReferenceSleepDfs<'c, 'a> {
    ctx: &'c SearchCtx<'a>,
    cap: usize,
    schedule: Vec<EventId>,
    seen: HashSet<Relation>,
    orders: Vec<Relation>,
    schedules_explored: usize,
    truncated: bool,
    pruned_branches: usize,
}

impl ReferenceSleepDfs<'_, '_> {
    fn run(ctx: &SearchCtx<'_>, cap: usize) -> (Vec<Relation>, usize, bool, usize) {
        let mut dfs = ReferenceSleepDfs {
            ctx,
            cap,
            schedule: Vec::new(),
            seen: HashSet::new(),
            orders: Vec::new(),
            schedules_explored: 0,
            truncated: false,
            pruned_branches: 0,
        };
        dfs.explore(&ctx.initial_state(), &BitSet::new(ctx.n_events()));
        (
            dfs.orders,
            dfs.schedules_explored,
            dfs.truncated,
            dfs.pruned_branches,
        )
    }

    fn explore(&mut self, st: &MachState, sleep: &BitSet) {
        if self.truncated {
            return;
        }
        if self.ctx.is_complete(st) {
            if self.schedules_explored >= self.cap {
                self.truncated = true;
                return;
            }
            self.schedules_explored += 1;
            let order = self.ctx.induced_order(&self.schedule);
            if self.seen.insert(order.clone()) {
                self.orders.push(order);
            }
            return;
        }
        let mut local_sleep = sleep.clone();
        for (p, e) in self.ctx.co_enabled(st) {
            if local_sleep.contains(e.index()) {
                self.pruned_branches += 1;
                continue;
            }
            let mut st2 = st.clone();
            self.ctx.step(&mut st2, p);
            let mut child_sleep = BitSet::new(local_sleep.capacity());
            for s in local_sleep.iter() {
                if !self.ctx.statically_dependent(EventId::new(s), e) {
                    child_sleep.insert(s);
                }
            }
            self.schedule.push(e);
            self.explore(&st2, &child_sleep);
            self.schedule.pop();
            if self.truncated {
                break;
            }
            local_sleep.insert(e.index());
        }
    }
}

/// Asserts the incremental sleep-set search records the same `orders`
/// sequence, visits and prunes the same schedules, and truncates at the
/// same point as the from-scratch reference, at caps from one schedule up
/// to 2²⁰.
fn assert_replays_reference(label: &str, exec: &ProgramExecution, mode: FeasibilityMode) {
    let ctx = SearchCtx::new(exec, mode);
    for cap in [1, 2, 17, 1 << 16, 1 << 20] {
        let fast = enumerate_classes_with(&ctx, cap, EquivStrategy::Mazurkiewicz);
        let (orders, schedules, truncated, pruned) = ReferenceSleepDfs::run(&ctx, cap);
        assert_eq!(fast.orders, orders, "{label} cap {cap}: orders");
        assert_eq!(
            fast.schedules_explored, schedules,
            "{label} cap {cap}: schedules"
        );
        assert_eq!(fast.truncated, truncated, "{label} cap {cap}: truncated");
        assert_eq!(
            fast.pruned_branches, pruned,
            "{label} cap {cap}: pruned branches"
        );
    }
}

#[test]
fn incremental_leaves_replay_the_reference_on_fixtures() {
    for (i, trace) in fixture_traces().into_iter().enumerate() {
        let exec = trace.to_execution().unwrap();
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            assert_replays_reference(&format!("fixture {i} {mode:?}"), &exec, mode);
        }
    }
}

/// Event-style programs with `Clear`, where distinct pairing-edge sets
/// can close to the same order (seeds 0 and 41 do), so the order dedup
/// behind the edge-set memo is exercised too.
#[test]
fn incremental_leaves_replay_the_reference_on_event_programs() {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    for seed in [0, 1, 2, 3, 41] {
        let mut spec = WorkloadSpec::small_events(seed);
        spec.processes = 4;
        spec.events_per_process = 4;
        let exec = generate_trace(&spec, 100).to_execution().unwrap();
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            assert_replays_reference(&format!("events-4x4 seed {seed} {mode:?}"), &exec, mode);
        }
    }
}

// The pitfall ladder: the 7-decoy rung truncates at 2¹⁶ schedules, the 8-
// and 9-decoy rungs at 2²⁰ too. One test per heavy rung, so the harness
// runs them side by side.

#[test]
fn incremental_leaves_replay_the_reference_on_pitfall_4_to_7() {
    for decoys in 4..=7 {
        let exec = pitfall_exec(decoys);
        let label = format!("pitfall-{decoys}");
        assert_replays_reference(&label, &exec, FeasibilityMode::IgnoreDependences);
    }
}

#[test]
fn incremental_leaves_replay_the_reference_on_pitfall_8() {
    let exec = pitfall_exec(8);
    assert_replays_reference("pitfall-8", &exec, FeasibilityMode::IgnoreDependences);
}

#[test]
fn incremental_leaves_replay_the_reference_on_pitfall_9() {
    let exec = pitfall_exec(9);
    assert_replays_reference("pitfall-9", &exec, FeasibilityMode::IgnoreDependences);
}

/// The witness search without a chart, kept here as the reference for the
/// engine's charted one: every edge a search walks clones the parent state,
/// steps the machine and probes its own index; each frame recomputes its
/// co-enabled list into a pooled buffer; the only persistent memo is the
/// dead set. It stores states its own way, one `MachState` per id plus a
/// map from state to id (as `explore_statespace_baseline` does), so it
/// checks the engine's state table rather than sharing it. Its one budget
/// is a state cap.
struct ReferenceQueryMemo {
    states: Vec<MachState>,
    index: FxHashMap<MachState, StateId>,
    root: StateId,
    dead: Vec<bool>,
    stamp: Vec<u32>,
    epoch: u32,
    pool: Vec<Vec<(ProcessId, EventId)>>,
    tail: Vec<EventId>,
    scratch: MachState,
    max_states: Option<usize>,
}

struct ReferenceFrame {
    id: StateId,
    enabled: Vec<(ProcessId, EventId)>,
    k: usize,
}

impl ReferenceQueryMemo {
    fn new(ctx: &SearchCtx<'_>, max_states: Option<usize>) -> Self {
        let root = StateId::new(0);
        let initial = ctx.initial_state();
        ReferenceQueryMemo {
            states: vec![initial.clone()],
            index: FxHashMap::from_iter([(initial, root)]),
            root,
            dead: vec![false],
            stamp: vec![0],
            epoch: 0,
            pool: Vec::new(),
            tail: Vec::new(),
            scratch: ctx.initial_state(),
            max_states,
        }
    }

    fn checkpoint(&self) -> Result<(), EngineError> {
        match self.max_states {
            Some(limit) if self.states.len() > limit => {
                Err(EngineError::StateSpaceExceeded { limit })
            }
            _ => Ok(()),
        }
    }

    fn interned_states(&self) -> usize {
        self.states.len()
    }

    fn state(&self, id: StateId) -> &MachState {
        &self.states[id.index()]
    }

    fn intern_scratch(&mut self) -> StateId {
        if let Some(&id) = self.index.get(&self.scratch) {
            return id;
        }
        let id = StateId::new(self.states.len());
        self.states.push(self.scratch.clone());
        self.index.insert(self.scratch.clone(), id);
        self.dead.push(false);
        self.stamp.push(0);
        id
    }

    fn step_and_intern(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        p: ProcessId,
        e: EventId,
    ) -> StateId {
        self.scratch.clone_from(&self.states[id.index()]);
        assert_eq!(ctx.step(&mut self.scratch, p), e, "a stale co-enabled list");
        self.intern_scratch()
    }

    fn next_epoch(&mut self) -> u32 {
        self.epoch += 1;
        self.epoch
    }

    fn frame(&mut self, ctx: &SearchCtx<'_>, id: StateId) -> ReferenceFrame {
        let mut enabled = self.pool.pop().unwrap_or_default();
        ctx.co_enabled_into(&self.states[id.index()], &mut enabled);
        ReferenceFrame { id, enabled, k: 0 }
    }

    fn release(&mut self, stack: Vec<ReferenceFrame>) {
        self.pool.extend(stack.into_iter().map(|f| f.enabled));
    }

    fn try_complete_from(
        &mut self,
        ctx: &SearchCtx<'_>,
        start: StateId,
        out: &mut Vec<EventId>,
    ) -> Result<bool, EngineError> {
        if ctx.is_complete(self.state(start)) {
            return Ok(true);
        }
        if self.dead[start.index()] {
            return Ok(false);
        }
        let mut stack = vec![self.frame(ctx, start)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            if top.k >= top.enabled.len() {
                let f = stack.pop().expect("non-empty");
                self.dead[f.id.index()] = true;
                self.pool.push(f.enabled);
                if !stack.is_empty() {
                    out.pop();
                }
                continue;
            }
            let (p, e) = top.enabled[top.k];
            top.k += 1;
            let id = top.id;
            let cid = self.step_and_intern(ctx, id, p, e);
            if ctx.is_complete(self.state(cid)) {
                out.push(e);
                self.release(stack);
                return Ok(true);
            }
            if self.dead[cid.index()] {
                continue;
            }
            out.push(e);
            stack.push(self.frame(ctx, cid));
        }
        Ok(false)
    }

    fn try_witness_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        let epoch = self.next_epoch();
        let mut prefix = Vec::new();
        self.stamp[self.root.index()] = epoch;
        let root = self.root;
        let mut stack = vec![self.frame(ctx, root)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            if top.k >= top.enabled.len() {
                let f = stack.pop().expect("non-empty");
                self.pool.push(f.enabled);
                if !stack.is_empty() {
                    prefix.pop();
                }
                continue;
            }
            let (p, e) = top.enabled[top.k];
            top.k += 1;
            let id = top.id;
            let cid = self.step_and_intern(ctx, id, p, e);
            let child = self.state(cid);
            let first_done = ctx.machine().executed(child, first);
            let second_done = ctx.machine().executed(child, second);
            if second_done && !first_done {
                continue;
            }
            if first_done && !second_done {
                prefix.push(e);
                let depth = prefix.len();
                if self.try_complete_from(ctx, cid, &mut prefix)? {
                    self.release(stack);
                    return Ok(Some(prefix));
                }
                prefix.truncate(depth - 1);
                continue;
            }
            if self.stamp[cid.index()] == epoch {
                continue;
            }
            self.stamp[cid.index()] = epoch;
            prefix.push(e);
            stack.push(self.frame(ctx, cid));
        }
        Ok(None)
    }

    fn try_witness_overlap(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        let epoch = self.next_epoch();
        let mut prefix = Vec::new();
        self.stamp[self.root.index()] = epoch;
        let root = self.root;
        self.checkpoint()?;
        if self.try_pair_overlaps_at(ctx, root, a, b)? {
            return Ok(Some(prefix));
        }
        let mut stack = vec![self.frame(ctx, root)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            if top.k >= top.enabled.len() {
                let f = stack.pop().expect("non-empty");
                self.pool.push(f.enabled);
                if !stack.is_empty() {
                    prefix.pop();
                }
                continue;
            }
            let (p, e) = top.enabled[top.k];
            top.k += 1;
            let id = top.id;
            let cid = self.step_and_intern(ctx, id, p, e);
            let child = self.state(cid);
            if ctx.machine().executed(child, a) || ctx.machine().executed(child, b) {
                continue;
            }
            if self.stamp[cid.index()] == epoch {
                continue;
            }
            self.stamp[cid.index()] = epoch;
            prefix.push(e);
            if self.try_pair_overlaps_at(ctx, cid, a, b)? {
                self.release(stack);
                return Ok(Some(prefix));
            }
            stack.push(self.frame(ctx, cid));
        }
        Ok(None)
    }

    fn try_pair_overlaps_at(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(self.try_both_fire_completably(ctx, id, a, b)?
            || self.try_both_fire_completably(ctx, id, b, a)?)
    }

    fn try_both_fire_completably(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        x: EventId,
        y: EventId,
    ) -> Result<bool, EngineError> {
        let mut enabled = self.pool.pop().unwrap_or_default();
        ctx.co_enabled_into(&self.states[id.index()], &mut enabled);
        let px = enabled.iter().find(|&&(_, ev)| ev == x).map(|&(p, _)| p);
        let py = enabled.iter().find(|&&(_, ev)| ev == y).map(|&(p, _)| p);
        let landed = match (px, py) {
            (Some(px), Some(py)) => {
                self.scratch.clone_from(&self.states[id.index()]);
                ctx.step(&mut self.scratch, px);
                ctx.co_enabled_into(&self.scratch, &mut enabled);
                if enabled.iter().any(|&(p, _)| p == py) {
                    ctx.step(&mut self.scratch, py);
                    Some(self.intern_scratch())
                } else {
                    None
                }
            }
            _ => None,
        };
        self.pool.push(enabled);
        match landed {
            Some(cid) => {
                let mut tail = std::mem::take(&mut self.tail);
                tail.clear();
                let ok = self.try_complete_from(ctx, cid, &mut tail);
                self.tail = tail;
                ok
            }
            None => Ok(false),
        }
    }
}

/// One query of the stream both memos answer.
#[derive(Clone, Copy, Debug)]
enum Ask {
    Before,
    Overlap,
    Mhb,
    Chb,
    Ccw,
}

/// A query's answer: the witness for the witness kinds, the decision for
/// the others.
#[derive(Debug, PartialEq)]
enum Reply {
    Witness(Option<Vec<EventId>>),
    Decision(bool),
}

fn ask_memo(
    memo: &mut QueryMemo,
    ctx: &SearchCtx<'_>,
    ask: Ask,
    a: EventId,
    b: EventId,
) -> Result<Reply, EngineError> {
    Ok(match ask {
        Ask::Before => Reply::Witness(memo.try_witness_before(ctx, a, b)?),
        Ask::Overlap => Reply::Witness(memo.try_witness_overlap(ctx, a, b)?),
        Ask::Mhb => Reply::Decision(memo.try_must_happen_before(ctx, a, b)?),
        Ask::Chb => Reply::Decision(memo.try_could_happen_before(ctx, a, b)?),
        Ask::Ccw => Reply::Decision(memo.try_could_be_concurrent(ctx, a, b)?),
    })
}

fn ask_reference(
    reference: &mut ReferenceQueryMemo,
    ctx: &SearchCtx<'_>,
    ask: Ask,
    a: EventId,
    b: EventId,
) -> Result<Reply, EngineError> {
    Ok(match ask {
        Ask::Before => Reply::Witness(reference.try_witness_before(ctx, a, b)?),
        Ask::Overlap => Reply::Witness(reference.try_witness_overlap(ctx, a, b)?),
        Ask::Mhb => Reply::Decision(reference.try_witness_before(ctx, b, a)?.is_none()),
        Ask::Chb => Reply::Decision(reference.try_witness_before(ctx, a, b)?.is_some()),
        Ask::Ccw => Reply::Decision(reference.try_witness_overlap(ctx, a, b)?.is_some()),
    })
}

/// What a capped stream does once the cap trips.
#[derive(Clone, Copy, PartialEq)]
enum OnTrip {
    /// End the stream.
    Stop,
    /// Lift the cap on both memos and finish the stream, which checks
    /// that an aborted search leaves each memo sound.
    Lift,
}

/// Puts one shared [`QueryMemo`] and one shared [`ReferenceQueryMemo`],
/// both under `max_states`, through the same stream of queries over every
/// ordered pair: both witness kinds, then the three decisions. Every
/// answer (witness schedule, `None` or error) and the interned-state count
/// after every query must agree. Returns the number of interned states at
/// the end, and whether the cap tripped.
fn assert_memo_replays_reference(
    label: &str,
    exec: &ProgramExecution,
    mode: FeasibilityMode,
    max_states: Option<usize>,
    on_trip: OnTrip,
) -> (usize, bool) {
    let ctx = SearchCtx::new(exec, mode);
    let budget = match max_states {
        Some(cap) => Budget::unlimited().with_max_states(cap),
        None => Budget::unlimited(),
    };
    let mut memo = QueryMemo::with_budget(&ctx, budget);
    let mut reference = ReferenceQueryMemo::new(&ctx, max_states);
    let n = exec.n_events();
    let mut tripped = false;
    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            for ask in [Ask::Before, Ask::Overlap, Ask::Mhb, Ask::Chb, Ask::Ccw] {
                let at = format!("{label} cap {max_states:?}: {ask:?}({a},{b})");
                let got = ask_memo(&mut memo, &ctx, ask, ea, eb);
                assert_eq!(
                    got,
                    ask_reference(&mut reference, &ctx, ask, ea, eb),
                    "{at}"
                );
                assert_eq!(
                    memo.interned_states(),
                    reference.interned_states(),
                    "{at}: interned states"
                );
                if got.is_err() {
                    assert!(!tripped, "{at}: a lifted cap tripped");
                    tripped = true;
                    if on_trip == OnTrip::Stop {
                        return (memo.interned_states(), true);
                    }
                    memo.set_budget(Budget::unlimited());
                    reference.max_states = None;
                }
            }
        }
    }
    (memo.interned_states(), tripped)
}

/// 4x4 random programs of the given style, seeds 0–3.
fn four_by_four(events: bool) -> Vec<ProgramExecution> {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    (0..4)
        .map(|seed| {
            let mut spec = if events {
                WorkloadSpec::small_events(seed)
            } else {
                WorkloadSpec::small_semaphore(seed)
            };
            spec.processes = 4;
            spec.events_per_process = 4;
            generate_trace(&spec, 100).to_execution().unwrap()
        })
        .collect()
}

const BOTH_MODES: [FeasibilityMode; 2] = [
    FeasibilityMode::PreserveDependences,
    FeasibilityMode::IgnoreDependences,
];

/// Replays the stream uncapped, then under state caps 1, 8 and 64,
/// lifting each cap once it trips; with `sweep`, also under every cap
/// below the lattice the uncapped stream touches. Wherever a cap is below
/// that lattice both memos must trip, at the same query with the same
/// error.
fn assert_memo_replays_reference_under_caps(
    label: &str,
    exec: &ProgramExecution,
    mode: FeasibilityMode,
    sweep: Option<OnTrip>,
) {
    let (touched, _) = assert_memo_replays_reference(label, exec, mode, None, OnTrip::Stop);
    for cap in [1, 8, 64] {
        let (_, tripped) =
            assert_memo_replays_reference(label, exec, mode, Some(cap), OnTrip::Lift);
        assert_eq!(
            tripped,
            cap < touched,
            "{label}: cap {cap} of {touched} states"
        );
    }
    if let Some(on_trip) = sweep {
        for cap in 1..touched {
            let (_, tripped) = assert_memo_replays_reference(label, exec, mode, Some(cap), on_trip);
            assert!(tripped, "{label}: cap {cap} of {touched} states must trip");
        }
    }
}

#[test]
fn charted_memo_replays_the_reference_on_fixtures() {
    for (i, trace) in fixture_traces().into_iter().enumerate() {
        let exec = trace.to_execution().unwrap();
        for mode in BOTH_MODES {
            let label = format!("fixture {i} {mode:?}");
            assert_memo_replays_reference_under_caps(&label, &exec, mode, Some(OnTrip::Lift));
        }
    }
}

#[test]
fn charted_memo_replays_the_reference_on_pitfall_4_to_7() {
    for decoys in 4..=7 {
        let exec = pitfall_exec(decoys);
        let label = format!("pitfall-{decoys}");
        let mode = FeasibilityMode::IgnoreDependences;
        assert_memo_replays_reference_under_caps(&label, &exec, mode, None);
    }
}

/// Lifting a cap reruns the rest of the stream, so the every-cap sweep
/// here stops at each trip.
#[test]
fn charted_memo_replays_the_reference_on_4x4_programs() {
    for events in [false, true] {
        for (seed, exec) in four_by_four(events).iter().enumerate() {
            for mode in BOTH_MODES {
                let label = format!("4x4 events={events} seed {seed} {mode:?}");
                assert_memo_replays_reference_under_caps(&label, exec, mode, Some(OnTrip::Stop));
            }
        }
    }
}

/// A fixed shuffle of `items` (xorshift-driven Fisher–Yates).
fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    for i in (1..items.len()).rev() {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        items.swap(i, (x % (i as u64 + 1)) as usize);
    }
}

/// The stream in a seeded random order, on small random programs: a
/// witness search's frames are live once it succeeds, yet a later walk
/// from one of them may intern states, so marking them would change the
/// interned sequence; the pair-ordered streams above happen not to show
/// it. Half the runs trip a cap partway and lift it.
#[test]
fn charted_memo_replays_the_reference_on_shuffled_streams() {
    use eo_lang::generator::{generate_trace, WorkloadSpec};
    for seed in 0..40u64 {
        for events in [false, true] {
            let mut spec = if events {
                WorkloadSpec::small_events(seed)
            } else {
                WorkloadSpec::small_semaphore(seed)
            };
            spec.processes = 3 + seed as usize % 2;
            spec.events_per_process = 3;
            let exec = generate_trace(&spec, 100).to_execution().unwrap();
            let n = exec.n_events();
            let mut stream = Vec::new();
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    for ask in [Ask::Before, Ask::Overlap, Ask::Mhb, Ask::Chb, Ask::Ccw] {
                        stream.push((ask, EventId::new(a), EventId::new(b)));
                    }
                }
            }
            shuffle(&mut stream, seed);
            for mode in BOTH_MODES {
                let ctx = SearchCtx::new(&exec, mode);
                let cap = (seed % 2 == 1).then_some(5 + seed as usize * 7 % 40);
                let budget = cap.map_or_else(Budget::unlimited, |c| {
                    Budget::unlimited().with_max_states(c)
                });
                let mut memo = QueryMemo::with_budget(&ctx, budget);
                let mut reference = ReferenceQueryMemo::new(&ctx, cap);
                for &(ask, a, b) in &stream {
                    let at = format!(
                        "seed {seed} events={events} {mode:?} cap {cap:?}: {ask:?}({a},{b})"
                    );
                    let got = ask_memo(&mut memo, &ctx, ask, a, b);
                    assert_eq!(got, ask_reference(&mut reference, &ctx, ask, a, b), "{at}");
                    assert_eq!(
                        memo.interned_states(),
                        reference.interned_states(),
                        "{at}: interned states"
                    );
                    if got.is_err() {
                        memo.set_budget(Budget::unlimited());
                        reference.max_states = None;
                    }
                }
            }
        }
    }
}
