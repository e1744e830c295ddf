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
//! ## The hot-path layout
//!
//! States live **once**, in a [`StateTable`] arena keyed by [`StateId`]
//! (the old design stored every state twice: as a hash-map key *and* in
//! its node). Three consequences shape the inner loops:
//!
//! * successor lookups hash a state once (precomputed fingerprint) instead
//!   of re-hashing full vectors per probe;
//! * each node's *executed* set is threaded incrementally along graph
//!   edges into a flat [`BitMatrix`] — a successor's row is its parent's
//!   row plus exactly one bit, so the accumulation pass never queries the
//!   machine per event;
//! * the overlap check "fire `p1` then `p2`, land completable?" is two
//!   successor-table indexings (`Node::succs` is aligned with
//!   `Node::enabled`) instead of clone + 2×step + hash lookup.
//!
//! [`explore_statespace_baseline`] preserves the pre-interning
//! implementation verbatim as the ablation baseline and differential-test
//! oracle; results are asserted bit-identical.

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::statetable::{StateId, StateTable};
use eo_model::{EventId, MachState, ProcessId};
use eo_relations::fxhash::FxHashMap;
use eo_relations::{BitMatrix, BitSet, Relation};

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
    /// peak (arena + executed rows + successor tables). Not part of the
    /// semantic result — equality checks between explorers compare the
    /// relations and counts, not this.
    pub approx_heap_bytes: usize,
}

/// Per-state graph record. `succs[k]` is the state reached by firing
/// `enabled[k]` — the alignment every successor-table walk relies on.
struct Node {
    enabled: Vec<(ProcessId, EventId)>,
    succs: Vec<u32>,
    completable: bool,
}

/// The fully-built cut-lattice graph: interned states, per-state nodes
/// (indexed identically to the arena), and the executed-set matrix with
/// one row per state.
pub(crate) struct StateGraph {
    table: StateTable,
    nodes: Vec<Node>,
    executed: BitMatrix,
}

impl StateGraph {
    /// Emits the standard arena metrics for a finished (or truncated)
    /// graph: states interned, fingerprint collisions, arena bytes, and
    /// lattice depth. The O(states) depth scan only runs while a recording
    /// is active, so uninstrumented runs never pay for it.
    fn emit_metrics(&self) {
        if !eo_obs::recording() {
            return;
        }
        eo_obs::counter!("engine.states_interned", self.nodes.len() as u64);
        eo_obs::counter!("engine.fp_collisions", self.table.collisions());
        eo_obs::gauge!("engine.arena_bytes", self.approx_bytes() as i64);
        let levels = (0..self.nodes.len())
            .map(|i| self.table.get(StateId::new(i)).executed_count())
            .max()
            .map_or(0, |d| d + 1);
        eo_obs::gauge!("engine.bfs_levels", levels as i64);
    }

    /// A graph seeded with the initial state of `ctx`.
    fn seeded(ctx: &SearchCtx<'_>) -> Self {
        let init = ctx.initial_state();
        let mut table = StateTable::new();
        let enabled = ctx.co_enabled(&init);
        let (root, fresh) = table.intern(init);
        debug_assert!(fresh && root.index() == 0);
        let mut executed = BitMatrix::new(ctx.n_events());
        executed.push_empty_row();
        StateGraph {
            table,
            nodes: vec![Node {
                enabled,
                succs: Vec::new(),
                completable: false,
            }],
            executed,
        }
    }

    /// Approximate heap bytes of the state storage (arena, executed rows,
    /// enabled/successor tables).
    fn approx_bytes(&self) -> usize {
        let node_payload: usize = self
            .nodes
            .iter()
            .map(|n| {
                n.enabled.len() * std::mem::size_of::<(ProcessId, EventId)>()
                    + n.succs.len() * std::mem::size_of::<u32>()
                    + std::mem::size_of::<Node>()
            })
            .sum();
        self.table.approx_bytes() + self.executed.word_bytes() + node_payload
    }
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
/// partial graph a degraded analysis salvages, see
/// `build_graph_budgeted`.
pub fn explore_statespace_budgeted(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
) -> Result<StateSpaceResult, EngineError> {
    let b = build_graph_budgeted(ctx, budget);
    match b.stopped {
        Some(e) => Err(e),
        None => {
            let mut graph = b.graph;
            Ok(finalize(ctx, &mut graph, true))
        }
    }
}

/// A possibly-truncated exploration: the graph built so far plus the
/// budget error that stopped it (`None` = ran to completion).
///
/// The truncated graph is *consistent*: every node's `enabled` list is
/// filled when the node is pushed, and `succs` is either complete or a
/// prefix of `enabled`'s alignment (frontier nodes have no successors
/// recorded yet). [`finalize`] turns it into sound
/// under-approximations.
pub(crate) struct PartialExploration {
    pub(crate) graph: StateGraph,
    pub(crate) stopped: Option<EngineError>,
}

/// Expands every reachable state exactly once into a [`StateGraph`],
/// checking the deadline / memory / cancel budget once per expanded node
/// and the state cap per fresh state. On exhaustion the graph built so
/// far is returned alongside the error instead of being discarded.
pub(crate) fn build_graph_budgeted(ctx: &SearchCtx<'_>, budget: &Budget) -> PartialExploration {
    eo_obs::span!("engine.build_graph");
    let mut graph = StateGraph::seeded(ctx);
    // One scratch state walks every lattice edge: `clone_from` reuses its
    // buffers and `intern_ref` clones only on a fresh insert, so the
    // expansion loop allocates per *state*, never per edge.
    let mut scratch = ctx.initial_state();
    // O(1) running storage estimate (`approx_bytes` is O(nodes), far too
    // slow for a per-checkpoint call): arena payload per state plus the
    // executed-row stride, node overhead, and per-edge bookkeeping.
    let state_bytes = std::mem::size_of::<eo_model::MachState>()
        + scratch.heap_bytes()
        + ctx.n_events().div_ceil(64) * 8
        + std::mem::size_of::<Node>();
    let edge_bytes = std::mem::size_of::<u32>() + std::mem::size_of::<(ProcessId, EventId)>();
    let mut est_bytes = state_bytes + graph.nodes[0].enabled.len() * edge_bytes;
    let mut stopped = None;
    let mut cursor = 0;
    'expand: while cursor < graph.nodes.len() {
        if let Err(e) = budget.check(est_bytes) {
            stopped = Some(e);
            break;
        }
        let parent_fp = graph.table.fingerprint(StateId::new(cursor));
        for k in 0..graph.nodes[cursor].enabled.len() {
            let (p, e) = graph.nodes[cursor].enabled[k];
            scratch.clone_from(graph.table.get(StateId::new(cursor)));
            let mut fp = parent_fp;
            ctx.apply_keyed(&mut scratch, p, e, &mut fp);
            let (id, fresh) = graph.table.intern_ref_keyed(&scratch, fp);
            if fresh {
                if let Err(err) = budget.check_states(graph.nodes.len() + 1) {
                    stopped = Some(err);
                    break 'expand;
                }
                debug_assert_eq!(id.index(), graph.nodes.len());
                let enabled = ctx.co_enabled(graph.table.get(id));
                est_bytes += state_bytes + enabled.len() * edge_bytes;
                graph.nodes.push(Node {
                    enabled,
                    succs: Vec::new(),
                    completable: false,
                });
                // The successor executed exactly one more event than its
                // parent: inherit the row, add one bit.
                let row = graph.executed.push_row_copy(cursor);
                debug_assert_eq!(row, id.index());
                graph.executed.set(row, e.index());
            }
            graph.nodes[cursor].succs.push(id.index() as u32);
        }
        cursor += 1;
    }
    graph.emit_metrics();
    PartialExploration { graph, stopped }
}

/// Completability back-propagation plus pairwise-fact accumulation over an
/// already-built state graph. `complete_graph` says whether every
/// reachable state was expanded. A budget-truncated graph
/// (`complete_graph = false`) yields a **sound under-approximation** of
/// the full answer:
///
/// * a node is marked completable only when an explored complete state is
///   reachable through *recorded* edges, so every `chb`/`overlap` bit set
///   here is witnessed by a genuinely feasible complete execution and
///   holds in the full result too;
/// * missing states / missing edges can only *withhold* facts, never
///   invent them (the alignment guard in [`pair_fires_completably`] keeps
///   partially-expanded nodes out of the overlap walks);
/// * `deadlock_reachable = true` is still definite — `enabled` lists are
///   computed when nodes are pushed, so an incomplete empty-enabled node
///   is a real deadlock — but `false` now means "not proved".
pub(crate) fn finalize(
    ctx: &SearchCtx<'_>,
    graph: &mut StateGraph,
    complete_graph: bool,
) -> StateSpaceResult {
    eo_obs::span!("engine.finalize");
    let deadlock_reachable = propagate_completability(ctx, graph, complete_graph);
    let (chb, overlap, completable_states) = accumulate(ctx, graph);
    StateSpaceResult {
        chb,
        overlap,
        states: graph.nodes.len(),
        completable_states,
        deadlock_reachable,
        approx_heap_bytes: graph.approx_bytes(),
    }
}

/// Marks every node from which a complete schedule is reachable; returns
/// whether any reachable state is a deadlock.
///
/// The state DAG is layered by executed count, so processing nodes in
/// decreasing layer order sees successors first.
/// `complete_graph` says whether every reachable state was expanded; a
/// truncated graph legitimately under-approximates completability (and
/// may even fail to reach any complete state), so the root invariant is
/// asserted only for full graphs.
fn propagate_completability(
    ctx: &SearchCtx<'_>,
    graph: &mut StateGraph,
    complete_graph: bool,
) -> bool {
    let mut order: Vec<usize> = (0..graph.nodes.len()).collect();
    order.sort_unstable_by_key(|&i| {
        std::cmp::Reverse(graph.table.get(StateId::new(i)).executed_count())
    });
    let mut deadlock_reachable = false;
    for i in order {
        let node = &graph.nodes[i];
        let completable = if ctx.is_complete(graph.table.get(StateId::new(i))) {
            true
        } else {
            if node.enabled.is_empty() {
                deadlock_reachable = true;
            }
            node.succs
                .iter()
                .any(|&s| graph.nodes[s as usize].completable)
        };
        graph.nodes[i].completable = completable;
    }
    debug_assert!(
        !complete_graph || graph.nodes[0].completable,
        "the observed execution is itself feasible, so the initial state must be completable"
    );
    deadlock_reachable
}

/// Accumulates the pairwise facts (`chb`, `overlap`) over every
/// completable state, returning them with the completable-state count.
fn accumulate(ctx: &SearchCtx<'_>, graph: &StateGraph) -> (Relation, Relation, usize) {
    let n = ctx.n_events();
    let nodes = &graph.nodes;
    let mut chb = Relation::new(n);
    let mut overlap = Relation::new(n);
    let mut completable_states = 0;
    let mut executed = BitSet::new(n);
    let mut pending = BitSet::new(n);
    for (i, node) in nodes.iter().enumerate() {
        if !node.completable {
            continue;
        }
        completable_states += 1;

        // a executed, b pending ⇒ chb(a, b). The executed set was threaded
        // along the graph edges at build time — two scratch-row loads here,
        // no per-event machine queries.
        graph.executed.load_row(i, &mut executed);
        pending.set_all();
        pending.difference_with(&executed);
        for a in executed.iter() {
            chb.row_mut(a).union_with(&pending);
        }

        // Simultaneously enabled pairs that can both fire and stay
        // completable ⇒ overlap.
        let enabled = &node.enabled;
        for x in 0..enabled.len() {
            for y in (x + 1)..enabled.len() {
                let (p1, e1) = enabled[x];
                let (p2, e2) = enabled[y];
                if overlap.contains(e1.index(), e2.index()) {
                    continue;
                }
                if pair_fires_completably(nodes, i, x, p2)
                    || pair_fires_completably(nodes, i, y, p1)
                {
                    overlap.insert(e1.index(), e2.index());
                    overlap.insert(e2.index(), e1.index());
                }
            }
        }
    }
    (chb, overlap, completable_states)
}

/// From node `i`, can the pair fire back-to-back — first the event at
/// position `first_idx` of `i`'s enabled list, then `second`'s next event
/// — and leave a completable state? Pure successor-table walks: firing
/// `enabled[first_idx]` lands on `succs[first_idx]`; `second` still being
/// enabled there is a scan of that node's enabled list; the final state is
/// one more aligned indexing. No cloning, stepping, or hashing.
#[inline]
fn pair_fires_completably(nodes: &[Node], i: usize, first_idx: usize, second: ProcessId) -> bool {
    // On a budget-truncated graph a node's successor list may be missing
    // or shorter than its enabled list (frontier / interrupted nodes);
    // such nodes witness nothing. Full graphs always pass both guards.
    if nodes[i].succs.len() != nodes[i].enabled.len() {
        return false;
    }
    let mid = &nodes[nodes[i].succs[first_idx] as usize];
    if mid.succs.len() != mid.enabled.len() {
        return false;
    }
    match mid.enabled.iter().position(|&(p, _)| p == second) {
        Some(k) => nodes[mid.succs[k] as usize].completable,
        None => false,
    }
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
