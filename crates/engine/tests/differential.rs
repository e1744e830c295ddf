//! Differential suite for the interned hot path.
//!
//! The engine overhaul (state arena + successor-table walks + threaded
//! executed sets) must be a pure layout change: every relation, count, and
//! witness the old code produced, the new code must reproduce **bit for
//! bit**. This suite pits the interned sequential explorer against the
//! preserved pre-overhaul baseline ([`explore_statespace_baseline`]), the
//! parallel explorer, and the per-pair witness queries — on the model
//! fixtures and on both E9 workload families (the pairing-pitfall ladder
//! and the random semaphore workloads race detection sweeps).
//!
//! The same contract covers the trace-equivalence strategies: however
//! coarsely `normal-form` and `grain` quotient the schedule space, the
//! set of induced orders — and every summary relation built from it —
//! must be bit-identical to the sleep-set Mazurkiewicz baseline.
//!
//! And it covers the incremental enumeration leaves: the sleep-set search
//! that closes each pairing-edge set once must visit, count, truncate and
//! record exactly like a plain sleep-set DFS that rebuilds every
//! schedule's induced order from scratch.

use eo_engine::EquivStrategy;
use eo_engine::{enumerate_classes, enumerate_classes_with, parallel::explore_statespace_parallel};
use eo_engine::{
    explore_statespace, explore_statespace_baseline, queries, FeasibilityMode, OrderingSummary,
    QuerySession, SearchCtx, StateSpaceResult,
};
use eo_model::{EventId, MachState, ProgramExecution};
use eo_relations::{BitSet, Relation};
use std::collections::HashSet;

const BUDGET: usize = 1 << 22;

/// Runs all three explorers and asserts the semantic fields agree exactly.
fn assert_explorers_agree(exec: &ProgramExecution, mode: FeasibilityMode) -> StateSpaceResult {
    let ctx = SearchCtx::new(exec, mode);
    let interned = explore_statespace(&ctx, BUDGET).expect("state budget");
    let baseline = explore_statespace_baseline(&ctx, BUDGET).expect("state budget");
    let parallel = explore_statespace_parallel(&ctx, BUDGET, 3).expect("state budget");
    for (name, other) in [("baseline", &baseline), ("parallel", &parallel)] {
        assert_eq!(interned.chb, other.chb, "chb vs {name}");
        assert_eq!(interned.overlap, other.overlap, "overlap vs {name}");
        assert_eq!(interned.states, other.states, "states vs {name}");
        assert_eq!(
            interned.completable_states, other.completable_states,
            "completable_states vs {name}"
        );
        assert_eq!(
            interned.deadlock_reachable, other.deadlock_reachable,
            "deadlock_reachable vs {name}"
        );
    }
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

/// Enumerates F(P) under every equivalence strategy and asserts the
/// order sets — and the summaries built from them — are bit-identical to
/// the Mazurkiewicz baseline. Grain's canonical key *is* the induced
/// order, so its perfect pruning (one schedule per order) is asserted
/// unconditionally.
fn assert_strategies_agree(exec: &ProgramExecution, mode: FeasibilityMode) {
    let ctx = SearchCtx::new(exec, mode);
    let base = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::Mazurkiewicz);
    assert!(!base.truncated, "differential workloads must not truncate");
    let space = explore_statespace(&ctx, BUDGET).unwrap();
    let old = OrderingSummary::from_parts(&space, &base);
    let mut base_fps: Vec<u128> = base.orders.iter().map(|o| o.fingerprint128()).collect();
    base_fps.sort_unstable();
    for strategy in [EquivStrategy::NormalForm, EquivStrategy::Grain] {
        let r = enumerate_classes_with(&ctx, 1 << 20, strategy);
        assert!(!r.truncated, "{strategy}");
        let mut fps: Vec<u128> = r.orders.iter().map(|o| o.fingerprint128()).collect();
        fps.sort_unstable();
        assert_eq!(base_fps, fps, "{strategy}: F(P) differs from baseline");
        assert!(
            r.schedules_explored <= base.schedules_explored,
            "{strategy}: coarsening must not explore more schedules"
        );
        if strategy == EquivStrategy::Grain {
            assert_eq!(
                r.schedules_explored,
                r.orders.len(),
                "grain: one schedule per induced order"
            );
        }
        let new = OrderingSummary::from_parts(&space, &r);
        assert_eq!(old.mhb_relation(), new.mhb_relation(), "{strategy}: mhb");
        assert_eq!(old.chb_relation(), new.chb_relation(), "{strategy}: chb");
        assert_eq!(old.ccw_relation(), new.ccw_relation(), "{strategy}: ccw");
        assert_eq!(
            old.ccw_induced_relation(),
            new.ccw_induced_relation(),
            "{strategy}: ccw_induced"
        );
        assert_eq!(
            old.all_ordered_relation(),
            new.all_ordered_relation(),
            "{strategy}: all_ordered"
        );
        assert_eq!(old.class_count(), new.class_count(), "{strategy}: classes");
    }
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
