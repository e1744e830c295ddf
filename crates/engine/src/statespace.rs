//! Memoized exploration of the cut lattice.
//!
//! A *state* is how far each process has progressed plus the current
//! synchronization state (semaphore counters are determined by the
//! progress vector; event-variable flags are not — see
//! [`eo_model::machine::MachState`]). Distinct schedules reaching the same
//! state have identical futures, so the schedule space folds into a DAG of
//! states layered by executed-event count. One exploration of this DAG
//! answers, for **every** pair of events at once:
//!
//! * **`chb(a, b)`** — does some feasible schedule run `a` strictly before
//!   `b`? (`a` executed, `b` pending, in some completable state.) This is
//!   the could-have-happened-before relation, and its complement gives
//!   must-have-happened-before: `MHB(a,b) ⇔ a ≠ b ∧ ¬chb(b,a)`.
//! * **`overlap(a, b)`** — is there a completable state where `a` and `b`
//!   are *both* ready to execute (and executing both, in some order, stays
//!   completable)? This is the operational could-be-concurrent relation.
//!
//! "Completable" matters: with `Clear` operations (or `join` on processes
//! whose fork sits in an untaken branch) the machine can deadlock, and a
//! state inside a deadlocked branch witnesses nothing — feasible program
//! executions perform *all* of E (condition F1).
//!
//! ## The chart
//!
//! The pass charts the lattice into a fresh [`QueryMemo`], the same
//! store the witness queries search: states live **once**, in the memo's
//! `StateTable` arena keyed by [`StateId`], and every state's co-enabled
//! list sits back to back in one edge arena, each edge with an aligned
//! `u32` successor slot. Four consequences shape the inner loops:
//!
//! * successor lookups hash a state once (precomputed fingerprint) instead
//!   of re-hashing full vectors per probe;
//! * no state stores its *executed* set: it is one prefix per process,
//!   picked by the state's progress vector. The accumulation pass gathers
//!   the pending sets per process and progress, never querying the
//!   machine per event, and fills each event's `chb` row once at the end;
//! * the overlap check "fire `p1` then `p2`, land completable?" is two
//!   successor-slot reads instead of clone + 2×step + hash lookup;
//! * states are expanded breadth-first, so ids rise with the executed
//!   count and every successor has a larger id than its parent:
//!   completability is decided in one reverse-id sweep, without a sort,
//!   and written into the memo as each state's reach — the fact a witness
//!   query would otherwise search for.
//!
//! A complete chart is also where the enumeration of F(P) reads its
//! successors ([`crate::enumerate`]): a walk over the chart visits the
//! same children in the same order as one that steps the machine.
//!
//! [`explore_statespace_baseline`] preserves the pre-interning
//! implementation verbatim as the ablation baseline and differential-test
//! oracle; results are asserted bit-identical.

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::queries::QueryMemo;
use crate::statetable::StateId;
use eo_model::{EventId, MachState, ProcessId};
use eo_relations::fxhash::FxHashMap;
use eo_relations::{BitSet, Relation};

/// Everything one pass over the cut lattice proves.
#[derive(Clone, Debug)]
pub struct StateSpaceResult {
    /// `chb.contains(a, b)` ⇔ some feasible schedule executes `a` strictly
    /// before `b`.
    pub chb: Relation,
    /// Symmetric: `overlap.contains(a, b)` ⇔ the two events can be
    /// simultaneously enabled in a completable state.
    pub overlap: Relation,
    /// Total states visited (including non-completable ones).
    pub states: usize,
    /// States from which a complete schedule is still reachable.
    pub completable_states: usize,
    /// Whether any reachable state is a deadlock (live events, none
    /// executable).
    pub deadlock_reachable: bool,
    /// Approximate heap bytes the exploration's state storage held at its
    /// peak: the memo's running estimate, which the memory budget is
    /// checked against. Not part of the semantic result — equality checks
    /// between explorers compare the relations and counts, not this.
    pub approx_heap_bytes: usize,
}

/// Explores the full reachable state space of `ctx`, bounded by
/// `max_states`.
///
/// Errors with [`EngineError::StateSpaceExceeded`] when the bound is hit —
/// the honest outcome the paper predicts for adversarial inputs.
pub fn explore_statespace(
    ctx: &SearchCtx<'_>,
    max_states: usize,
) -> Result<StateSpaceResult, EngineError> {
    explore_statespace_budgeted(ctx, &Budget::unlimited().with_max_states(max_states))
}

/// Budgeted variant of [`explore_statespace`]: every [`Budget`] resource
/// is honored at per-expansion granularity. All-or-nothing — for the
/// partial chart a degraded analysis salvages, see `chart`.
pub fn explore_statespace_budgeted(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
) -> Result<StateSpaceResult, EngineError> {
    let mut memo = QueryMemo::with_budget(ctx, budget.clone());
    chart(ctx, &mut memo)?;
    Ok(finalize(ctx, &mut memo))
}

/// Charts `memo`, freshly opened under the pass's budget, breadth-first
/// through every reachable state ([`QueryMemo::chart_breadth_first`]).
/// On exhaustion the chart built so far stays in the memo, consistent,
/// for [`finalize`] to salvage; the error says which resource ran out.
pub(crate) fn chart(ctx: &SearchCtx<'_>, memo: &mut QueryMemo) -> Result<(), EngineError> {
    eo_obs::span!("engine.build_graph");
    let charted = memo.chart_breadth_first(ctx);
    if eo_obs::recording() {
        // States charted, fingerprint collisions, storage, and lattice
        // depth: the last state's level, since ids rise with it.
        let table = memo.table();
        let states = memo.charted_states();
        eo_obs::counter!("engine.states_interned", states as u64);
        eo_obs::counter!("engine.fp_collisions", table.collisions());
        eo_obs::gauge!("engine.arena_bytes", memo.approx_bytes() as i64);
        let last = table.executed(StateId::new(states - 1));
        eo_obs::gauge!("engine.bfs_levels", last as i64 + 1);
    }
    charted
}

/// Completability plus pairwise-fact accumulation over a breadth-first
/// [`chart`]: [`QueryMemo::decide_reach`] writes every state's reach into
/// the memo, then the facts accumulate over the completable states. On a
/// budget-truncated chart the result is a **sound under-approximation**
/// of the full answer:
///
/// * a state is marked completable only when a charted complete state is
///   reachable through *recorded* edges, so every `chb`/`overlap` bit set
///   here is witnessed by a genuinely feasible complete execution and
///   holds in the full result too;
/// * missing states / missing edges can only *withhold* facts, never
///   invent them (the expansion guards in [`accumulate`] keep
///   partially-expanded states out of the overlap walks);
/// * `deadlock_reachable = true` is still definite — co-enabled lists are
///   charted when states are interned, so an incomplete state with none
///   is a real deadlock — but `false` now means "not proved".
pub(crate) fn finalize(ctx: &SearchCtx<'_>, memo: &mut QueryMemo) -> StateSpaceResult {
    eo_obs::span!("engine.finalize");
    let deadlock_reachable = memo.decide_reach(ctx);
    let (chb, overlap, completable_states) = accumulate(ctx, memo);
    StateSpaceResult {
        chb,
        overlap,
        states: memo.charted_states(),
        completable_states,
        deadlock_reachable,
        approx_heap_bytes: memo.approx_bytes(),
    }
}

/// Accumulates the pairwise facts (`chb`, `overlap`) over every
/// completable charted state, returning them with the completable-state
/// count.
fn accumulate(ctx: &SearchCtx<'_>, memo: &QueryMemo) -> (Relation, Relation, usize) {
    let n = ctx.n_events();
    let per_process = ctx.machine().per_process();
    // Slot `base[p] + k` stands for process `p` having run its first `k`
    // events: `prefixes` holds those events, `pending_at` every event some
    // completable state with that progress has still to run. No state
    // stores its executed set; its progress vector picks one prefix per
    // process.
    let mut base = Vec::with_capacity(per_process.len());
    let mut prefixes = Vec::with_capacity(n + per_process.len());
    for events in per_process {
        base.push(prefixes.len());
        let mut prefix = BitSet::new(n);
        prefixes.push(prefix.clone());
        for e in events {
            prefix.insert(e.index());
            prefixes.push(prefix.clone());
        }
    }
    let mut pending_at = vec![BitSet::new(n); prefixes.len()];
    let mut overlap = Relation::new(n);
    let mut completable_states = 0;
    let mut pending = BitSet::new(n);
    for i in 0..memo.charted_states() {
        let id = StateId::new(i);
        if !memo.completable(ctx, id) {
            continue;
        }
        completable_states += 1;
        let progress = memo.table().progress(id);
        pending.set_all();
        for (&b, &k) in base.iter().zip(progress) {
            pending.difference_with(&prefixes[b + k as usize]);
        }
        for (&b, &k) in base.iter().zip(progress) {
            if k > 0 {
                pending_at[b + k as usize].union_with(&pending);
            }
        }

        // Simultaneously enabled pairs that can both fire and stay
        // completable ⇒ overlap. On a truncated chart a state whose
        // successor slots are not all filled witnesses nothing.
        let Some(edges) = memo.stepped_edges(id) else {
            continue;
        };
        for x in edges.clone() {
            for y in (x + 1)..edges.end {
                let (p1, e1) = memo.edge(x);
                let (p2, e2) = memo.edge(y);
                if overlap.contains(e1.index(), e2.index()) {
                    continue;
                }
                if pair_fires_completably(ctx, memo, x, p2)
                    || pair_fires_completably(ctx, memo, y, p1)
                {
                    overlap.insert(e1.index(), e2.index());
                    overlap.insert(e2.index(), e1.index());
                }
            }
        }
    }
    // a executed, b pending ⇒ chb(a, b). The `j`-th event of process `p`
    // has run wherever `p` has run more than `j` events.
    let mut chb = Relation::new(n);
    let mut later = BitSet::new(n);
    for (events, &b) in per_process.iter().zip(&base) {
        later.clear();
        for (j, a) in events.iter().enumerate().rev() {
            later.union_with(&pending_at[b + j + 1]);
            chb.row_mut(a.index()).union_with(&later);
        }
    }
    (chb, overlap, completable_states)
}

/// Can the pair fire back-to-back from an expanded state — first the
/// event of its edge `first`, then `second`'s next event — and leave a
/// completable state? Pure successor-slot reads: the first event lands
/// on its edge's slot; `second` still being enabled there is a scan of
/// that state's edges; the final state is one more slot read. No
/// cloning, stepping, or hashing.
#[inline]
fn pair_fires_completably(
    ctx: &SearchCtx<'_>,
    memo: &QueryMemo,
    first: usize,
    second: ProcessId,
) -> bool {
    // On a truncated chart a frontier state's slots are unset; it
    // witnesses nothing. Complete charts always pass this guard.
    let Some(mut edges) = memo.stepped_edges(memo.target(first)) else {
        return false;
    };
    edges
        .find(|&k| memo.edge(k).0 == second)
        .is_some_and(|k| memo.completable(ctx, memo.target(k)))
}

// --------------------------------------------------------------------------
// Pre-interning baseline (ablation + differential oracle).
// --------------------------------------------------------------------------

struct BaselineNode {
    state: MachState,
    enabled: Vec<(ProcessId, EventId)>,
    succs: Vec<usize>,
    completable: bool,
}

/// The pre-overhaul sequential explorer, kept verbatim as the ablation
/// baseline (`report -- e12`) and the differential-test oracle: a
/// clone-keyed `FxHashMap<MachState, usize>` index (every state stored
/// twice), per-state executed sets rebuilt by O(n) machine queries, and
/// overlap probes that clone + 2×step + hash-look-up.
///
/// Semantically identical to [`explore_statespace`] — the differential
/// suite asserts bit-equality of every relation and count on every
/// workload family.
pub fn explore_statespace_baseline(
    ctx: &SearchCtx<'_>,
    max_states: usize,
) -> Result<StateSpaceResult, EngineError> {
    let mut index: FxHashMap<MachState, usize> = FxHashMap::default();
    let mut nodes: Vec<BaselineNode> = Vec::new();

    let init = ctx.initial_state();
    index.insert(init.clone(), 0);
    nodes.push(BaselineNode {
        enabled: ctx.co_enabled(&init),
        state: init,
        succs: Vec::new(),
        completable: false,
    });

    // Expand breadth-agnostically: every node is expanded exactly once.
    let mut cursor = 0;
    while cursor < nodes.len() {
        let (state, enabled) = {
            let node = &nodes[cursor];
            (node.state.clone(), node.enabled.clone())
        };
        for (p, _e) in enabled {
            let mut st2 = state.clone();
            ctx.step(&mut st2, p);
            let id = match index.get(&st2) {
                Some(&id) => id,
                None => {
                    if nodes.len() >= max_states {
                        return Err(EngineError::StateSpaceExceeded { limit: max_states });
                    }
                    let id = nodes.len();
                    index.insert(st2.clone(), id);
                    nodes.push(BaselineNode {
                        enabled: ctx.co_enabled(&st2),
                        state: st2,
                        succs: Vec::new(),
                        completable: false,
                    });
                    id
                }
            };
            nodes[cursor].succs.push(id);
        }
        cursor += 1;
    }

    // Completability, oldest-style: sort by layer, propagate backwards.
    let mut order: Vec<usize> = (0..nodes.len()).collect();
    order.sort_unstable_by_key(|&i| std::cmp::Reverse(nodes[i].state.executed_count()));
    let mut deadlock_reachable = false;
    for i in order {
        let node = &nodes[i];
        let completable = if ctx.is_complete(&node.state) {
            true
        } else {
            if node.enabled.is_empty() {
                deadlock_reachable = true;
            }
            node.succs.iter().any(|&s| nodes[s].completable)
        };
        nodes[i].completable = completable;
    }

    let n = ctx.n_events();
    let machine = ctx.machine();
    let mut chb = Relation::new(n);
    let mut overlap = Relation::new(n);
    let mut completable_states = 0;
    let pair_fires = |nodes: &[BaselineNode], i: usize, first: ProcessId, second: ProcessId| {
        let mut st = nodes[i].state.clone();
        ctx.step(&mut st, first);
        if !ctx.co_enabled(&st).iter().any(|&(p, _)| p == second) {
            return false;
        }
        ctx.step(&mut st, second);
        nodes[index[&st]].completable // reachable by construction
    };
    for (i, node) in nodes.iter().enumerate() {
        if !node.completable {
            continue;
        }
        completable_states += 1;
        let mut executed = BitSet::new(n);
        for e in 0..n {
            if machine.executed(&nodes[i].state, EventId::new(e)) {
                executed.insert(e);
            }
        }
        let mut pending = BitSet::full(n);
        pending.difference_with(&executed);
        for a in executed.iter() {
            chb.row_mut(a).union_with(&pending);
        }
        let enabled = nodes[i].enabled.clone();
        for x in 0..enabled.len() {
            for y in (x + 1)..enabled.len() {
                let (p1, e1) = enabled[x];
                let (p2, e2) = enabled[y];
                if overlap.contains(e1.index(), e2.index()) {
                    continue;
                }
                if pair_fires(&nodes, i, p1, p2) || pair_fires(&nodes, i, p2, p1) {
                    overlap.insert(e1.index(), e2.index());
                    overlap.insert(e2.index(), e1.index());
                }
            }
        }
    }

    // Double storage: every state once in its node, once as an index key.
    let per_state = nodes.first().map_or(0, |nd| {
        std::mem::size_of_val(&nd.state) + nd.state.heap_bytes()
    });
    let approx_heap_bytes = nodes
        .iter()
        .map(|nd| {
            2 * per_state
                + std::mem::size_of::<BaselineNode>()
                + nd.enabled.len() * std::mem::size_of::<(ProcessId, EventId)>()
                + nd.succs.len() * std::mem::size_of::<usize>()
                + std::mem::size_of::<usize>() // index value slot
        })
        .sum();

    Ok(StateSpaceResult {
        chb,
        overlap,
        states: nodes.len(),
        completable_states,
        deadlock_reachable,
        approx_heap_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FeasibilityMode;
    use eo_model::fixtures;
    use eo_model::ProgramExecution;

    fn space(exec: &ProgramExecution, mode: FeasibilityMode) -> StateSpaceResult {
        let ctx = SearchCtx::new(exec, mode);
        let r = explore_statespace(&ctx, 1 << 20).unwrap();
        // Every test doubles as a differential check against the
        // pre-interning baseline.
        let base = explore_statespace_baseline(&ctx, 1 << 20).unwrap();
        assert_eq!(r.chb, base.chb, "interned chb must match the baseline");
        assert_eq!(r.overlap, base.overlap, "interned overlap must match");
        assert_eq!(r.states, base.states);
        assert_eq!(r.completable_states, base.completable_states);
        assert_eq!(r.deadlock_reachable, base.deadlock_reachable);
        r
    }

    #[test]
    fn independent_pair_can_go_either_way() {
        let (trace, a, b) = fixtures::independent_pair();
        let exec = trace.to_execution().unwrap();
        let r = space(&exec, FeasibilityMode::PreserveDependences);
        assert!(r.chb.contains(a.index(), b.index()));
        assert!(r.chb.contains(b.index(), a.index()));
        assert!(r.overlap.contains(a.index(), b.index()));
        assert!(!r.deadlock_reachable);
        // States: (0,0),(1,0),(0,1),(1,1).
        assert_eq!(r.states, 4);
        assert_eq!(r.completable_states, 4);
    }

    #[test]
    fn handshake_forces_v_before_p() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let r = space(&exec, FeasibilityMode::PreserveDependences);
        assert!(r.chb.contains(ids.v.index(), ids.p.index()));
        assert!(
            !r.chb.contains(ids.p.index(), ids.v.index()),
            "no feasible schedule runs the P first"
        );
        assert!(!r.overlap.contains(ids.v.index(), ids.p.index()));
        // The tails may interleave freely.
        assert!(r.overlap.contains(ids.after_v.index(), ids.after_p.index()));
    }

    #[test]
    fn dependences_pin_the_race_order() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let exec = trace.to_execution().unwrap();

        let strict = space(&exec, FeasibilityMode::PreserveDependences);
        assert!(strict.chb.contains(inc0.index(), inc1.index()));
        assert!(!strict.chb.contains(inc1.index(), inc0.index()));
        assert!(!strict.overlap.contains(inc0.index(), inc1.index()));

        let relaxed = space(&exec, FeasibilityMode::IgnoreDependences);
        assert!(
            relaxed.chb.contains(inc1.index(), inc0.index()),
            "reorderable now"
        );
        assert!(
            relaxed.overlap.contains(inc0.index(), inc1.index()),
            "the race shows"
        );
    }

    #[test]
    fn diamond_workers_overlap() {
        let (trace, ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let r = space(&exec, FeasibilityMode::PreserveDependences);
        assert!(r.overlap.contains(ids.left.index(), ids.right.index()));
        assert!(!r.chb.contains(ids.join.index(), ids.left.index()));
        assert!(r.chb.contains(ids.fork.index(), ids.join.index()));
        assert!(
            !r.chb.contains(ids.post.index(), ids.pre.index()),
            "post-join tail can never precede the pre-fork head"
        );
    }

    #[test]
    fn figure1_posts_are_ordered_in_every_feasible_execution() {
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let r = space(&exec, FeasibilityMode::PreserveDependences);
        // MHB(post_left, post_right): no schedule runs post_right first.
        assert!(!r
            .chb
            .contains(ids.post_right.index(), ids.post_left.index()));
        assert!(r
            .chb
            .contains(ids.post_left.index(), ids.post_right.index()));
        assert!(!r
            .overlap
            .contains(ids.post_left.index(), ids.post_right.index()));
        // Ignoring dependences (the EGP/HMW notion), the order dissolves.
        let relaxed = space(&exec, FeasibilityMode::IgnoreDependences);
        assert!(relaxed
            .chb
            .contains(ids.post_right.index(), ids.post_left.index()));
    }

    #[test]
    fn crossing_tails_overlap() {
        let (trace, a, b) = fixtures::crossing();
        let exec = trace.to_execution().unwrap();
        let r = space(&exec, FeasibilityMode::PreserveDependences);
        assert!(r.overlap.contains(a.index(), b.index()));
        assert!(r.chb.contains(a.index(), b.index()));
        assert!(r.chb.contains(b.index(), a.index()));
    }

    #[test]
    fn clear_deadlock_branches_are_discounted() {
        // Post; Wait; Clear (three processes). Schedules that run the
        // Clear before the Wait deadlock; the Wait must still be ordered
        // after the Post in every *feasible* (complete) execution.
        let (trace, ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let r = space(&exec, FeasibilityMode::PreserveDependences);
        assert!(r.deadlock_reachable, "clear-first branches deadlock");
        let post1 = ids[0];
        let wait1 = ids[1];
        assert!(!r.chb.contains(wait1.index(), post1.index()));
    }

    #[test]
    fn state_bound_is_honored() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        match explore_statespace(&ctx, 3) {
            Err(EngineError::StateSpaceExceeded { limit }) => assert_eq!(limit, 3),
            other => panic!("expected StateSpaceExceeded, got {other:?}"),
        }
        match explore_statespace_baseline(&ctx, 3) {
            Err(EngineError::StateSpaceExceeded { limit }) => assert_eq!(limit, 3),
            other => panic!("expected StateSpaceExceeded, got {other:?}"),
        }
    }

    #[test]
    fn semaphore_contention_is_not_overlap() {
        // One token shared by two critical P's (the first holder V's it
        // back): the P's can never run concurrently, though either may go
        // first.
        let mut tb = eo_model::TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 1);
        let q0 = tb.push(p0, eo_model::Op::SemP(s));
        tb.push(p0, eo_model::Op::SemV(s));
        let q1 = tb.push(p1, eo_model::Op::SemP(s));
        let trace = tb.build().unwrap();
        let exec = trace.to_execution().unwrap();
        let r = space(&exec, FeasibilityMode::PreserveDependences);
        assert!(
            !r.overlap.contains(q0.index(), q1.index()),
            "one token cannot serve two concurrent P's"
        );
        assert!(r.chb.contains(q0.index(), q1.index()));
        // q1 grabbing the initial token first starves q0 (its V comes
        // after), so that branch deadlocks and witnesses nothing.
        assert!(!r.chb.contains(q1.index(), q0.index()));
        assert!(r.deadlock_reachable);
    }

    /// The memo's running estimate is what the memory budget checks
    /// across the analysis: at every cap from below the root's cost to
    /// above the full pass, `analyze` is exact, or degraded by the memory
    /// cap and consistent with the exact summary.
    #[test]
    fn memory_caps_degrade_soundly_across_the_pass() {
        use crate::{AnalysisOutcome, ExactEngine};
        let programs = [
            ("figure1", fixtures::figure1().0.to_execution().unwrap()),
            ("pitfall-4", crate::enumerate::tests::pitfall_exec(4)),
        ];
        for (label, exec) in &programs {
            for mode in [
                FeasibilityMode::PreserveDependences,
                FeasibilityMode::IgnoreDependences,
            ] {
                let ctx = SearchCtx::new(exec, mode);
                let full = ExactEngine::with_mode(exec, mode).summary();
                let root = QueryMemo::new(&ctx).approx_bytes();
                let pass = explore_statespace(&ctx, 1 << 20).unwrap().approx_heap_bytes;
                let (lo, hi) = (root - 1, 2 * pass);
                let (mut exact, mut degraded) = (0, 0);
                for cap in (lo..=hi).step_by((hi - lo) / 200 + 1) {
                    let at = format!("{label} {mode:?} cap {cap}");
                    let budget = Budget::unlimited().with_max_heap_bytes(cap);
                    match ExactEngine::with_mode(exec, mode)
                        .with_budget(budget)
                        .analyze()
                    {
                        AnalysisOutcome::Exact(s) => {
                            assert!(cap >= pass, "{at}: the pass fit under its cap");
                            assert_eq!(s.chb_relation(), full.chb_relation(), "{at}");
                            assert_eq!(s.ccw_relation(), full.ccw_relation(), "{at}");
                            assert_eq!(s.class_count(), full.class_count(), "{at}");
                            exact += 1;
                        }
                        AnalysisOutcome::Degraded(d) => {
                            assert_eq!(d.reason(), &EngineError::MemoryExceeded { limit: cap });
                            d.check_consistency_against(&full)
                                .unwrap_or_else(|e| panic!("{at}: {e}"));
                            degraded += 1;
                        }
                    }
                }
                assert!(
                    exact > 0 && degraded > 0,
                    "{label} {mode:?}: the sweep spans both"
                );
            }
        }
    }

    #[test]
    fn interning_stores_each_state_once() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let new = explore_statespace(&ctx, 1 << 20).unwrap();
        let old = explore_statespace_baseline(&ctx, 1 << 20).unwrap();
        assert!(
            new.approx_heap_bytes < old.approx_heap_bytes,
            "arena layout ({} B) must undercut the double-stored baseline ({} B)",
            new.approx_heap_bytes,
            old.approx_heap_bytes
        );
    }
}
