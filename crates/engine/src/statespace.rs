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
//! The pass records the lattice it walks as a `Chart`, stored flat the
//! way the witness queries' memo stores theirs. States live **once**, in a
//! [`StateTable`] arena keyed by [`StateId`]. Every state's co-enabled
//! list sits back to back in one edge arena, each edge with an aligned
//! `u32` successor slot, and each state has one completable flag. Four
//! consequences shape the inner loops:
//!
//! * successor lookups hash a state once (precomputed fingerprint) instead
//!   of re-hashing full vectors per probe;
//! * each state's *executed* set is threaded incrementally along chart
//!   edges into a flat [`BitMatrix`] — a successor's row is its parent's
//!   row plus exactly one bit, so the accumulation pass never queries the
//!   machine per event;
//! * the overlap check "fire `p1` then `p2`, land completable?" is two
//!   successor-slot reads instead of clone + 2×step + hash lookup;
//! * states are expanded breadth-first, so ids rise with the executed
//!   count and every successor has a larger id than its parent:
//!   completability propagates in one reverse-id sweep, without a sort.
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
use crate::statetable::{StateId, StateTable};
use eo_model::{EventId, MachState, ProcessId};
use eo_relations::fxhash::FxHashMap;
use eo_relations::{BitMatrix, BitSet, Relation};
use std::mem::size_of;
use std::ops::Range;

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
    /// peak (arena + executed rows + chart). Not part of the semantic
    /// result — equality checks between explorers compare the relations
    /// and counts, not this.
    pub approx_heap_bytes: usize,
}

/// A successor slot of an edge whose state the pass never expanded.
const UNSET: u32 = u32::MAX;

/// An edge-arena offset as a `u32`.
fn offset(k: usize) -> u32 {
    u32::try_from(k).expect("edge arena outgrew u32 offsets")
}

/// The charted cut lattice: interned states, their co-enabled lists in
/// one flat edge arena with aligned successor slots, a completable flag
/// per state, and the executed-set matrix with one row per state. Ids
/// index every per-state array alike.
pub(crate) struct Chart {
    table: StateTable,
    /// `edges[start[id]..start[id + 1]]` is state `id`'s co-enabled list,
    /// sorted by process id; one entry per charted state, plus the end.
    start: Vec<u32>,
    /// Every charted co-enabled list, back to back.
    edges: Vec<(ProcessId, EventId)>,
    /// `succ[k]` = the state edge `k` leads to, or [`UNSET`] until its
    /// state is expanded. A state's slots fill in edge order.
    succ: Vec<u32>,
    /// Whether a complete state is reachable through recorded edges;
    /// decided by [`finalize`].
    completable: Vec<bool>,
    executed: BitMatrix,
}

impl Chart {
    /// A chart holding only the initial state of `ctx`.
    fn seeded(ctx: &SearchCtx<'_>, enabled: &mut Vec<(ProcessId, EventId)>) -> Self {
        let mut table = StateTable::new();
        let (root, fresh) = table.intern(ctx.initial_state());
        debug_assert!(fresh && root.index() == 0);
        let mut executed = BitMatrix::new(ctx.n_events());
        executed.push_empty_row();
        let mut chart = Chart {
            table,
            start: vec![0],
            edges: Vec::new(),
            succ: Vec::new(),
            completable: Vec::new(),
            executed,
        };
        chart.chart_state(ctx, root, enabled);
        chart
    }

    /// Appends the co-enabled list of the freshly interned `id`, with
    /// unset successor slots. `enabled` is scratch.
    fn chart_state(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        enabled: &mut Vec<(ProcessId, EventId)>,
    ) {
        debug_assert_eq!(id.index(), self.states());
        ctx.co_enabled_into(self.table.get(id), enabled);
        self.edges.extend_from_slice(enabled);
        self.succ.resize(self.edges.len(), UNSET);
        self.start.push(offset(self.edges.len()));
        self.completable.push(false);
    }

    /// Number of charted states. When the state cap stops the pass, the
    /// table holds one more: the state that tripped it, never charted.
    #[inline]
    pub(crate) fn states(&self) -> usize {
        self.start.len() - 1
    }

    /// The interned state behind `id`.
    #[inline]
    pub(crate) fn state(&self, id: StateId) -> &MachState {
        self.table.get(id)
    }

    /// `id`'s edges as a range of the edge arena.
    #[inline]
    fn edge_range(&self, id: usize) -> Range<usize> {
        self.start[id] as usize..self.start[id + 1] as usize
    }

    /// The number of events co-enabled at `id`.
    #[inline]
    pub(crate) fn out_degree(&self, id: StateId) -> usize {
        self.edge_range(id.index()).len()
    }

    /// The `k`-th event co-enabled at `id`.
    #[inline]
    pub(crate) fn event(&self, id: StateId, k: usize) -> EventId {
        self.edges[self.start[id.index()] as usize + k].1
    }

    /// The state firing the `k`-th event co-enabled at `id` leads to.
    /// `id` must be expanded.
    #[inline]
    pub(crate) fn successor(&self, id: StateId, k: usize) -> StateId {
        let slot = self.succ[self.start[id.index()] as usize + k];
        debug_assert_ne!(slot, UNSET, "walked an edge of an unexpanded state");
        StateId::new(slot as usize)
    }

    /// Whether every successor slot of `id` is filled. Slots fill in edge
    /// order, so the last one decides.
    #[inline]
    fn expanded(&self, id: usize) -> bool {
        let r = self.edge_range(id);
        r.is_empty() || self.succ[r.end - 1] != UNSET
    }

    /// Whether every charted state is expanded: the pass ran to the end.
    pub(crate) fn is_complete(&self) -> bool {
        !self.succ.contains(&UNSET)
    }

    /// Approximate heap bytes of the state storage (arena, executed rows
    /// and the chart), from lengths alone: O(1).
    fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
            + self.executed.word_bytes()
            + self.start.len() * size_of::<u32>()
            + self.edges.len() * size_of::<(ProcessId, EventId)>()
            + self.succ.len() * size_of::<u32>()
            + self.completable.len() * size_of::<bool>()
    }

    /// Emits the standard arena metrics for a finished (or truncated)
    /// chart: states charted, fingerprint collisions, arena bytes, and
    /// lattice depth — the last state's level, since ids rise with it.
    fn emit_metrics(&self) {
        if !eo_obs::recording() {
            return;
        }
        let states = self.states();
        eo_obs::counter!("engine.states_interned", states as u64);
        eo_obs::counter!("engine.fp_collisions", self.table.collisions());
        eo_obs::gauge!("engine.arena_bytes", self.approx_bytes() as i64);
        let last = StateId::new(states - 1);
        eo_obs::gauge!(
            "engine.bfs_levels",
            self.table.get(last).executed_count() as i64 + 1
        );
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
/// partial chart a degraded analysis salvages, see `chart_budgeted`.
pub fn explore_statespace_budgeted(
    ctx: &SearchCtx<'_>,
    budget: &Budget,
) -> Result<StateSpaceResult, EngineError> {
    let b = chart_budgeted(ctx, budget);
    match b.stopped {
        Some(e) => Err(e),
        None => {
            let mut chart = b.chart;
            Ok(finalize(ctx, &mut chart))
        }
    }
}

/// A possibly-truncated exploration: the chart built so far plus the
/// budget error that stopped it (`None` = ran to completion).
///
/// The truncated chart is *consistent*: every state's co-enabled list is
/// charted when the state is interned, and its successor slots are
/// either all filled or an unfilled suffix (frontier states have none
/// filled yet). [`finalize`] turns it into sound under-approximations.
pub(crate) struct PartialExploration {
    pub(crate) chart: Chart,
    pub(crate) stopped: Option<EngineError>,
}

/// Expands every reachable state exactly once, breadth-first, into a
/// [`Chart`], checking the deadline / memory / cancel budget once per
/// expanded state and the state cap per fresh state. On exhaustion the
/// chart built so far is returned alongside the error instead of being
/// discarded.
pub(crate) fn chart_budgeted(ctx: &SearchCtx<'_>, budget: &Budget) -> PartialExploration {
    eo_obs::span!("engine.build_graph");
    let mut enabled = Vec::new();
    let mut chart = Chart::seeded(ctx, &mut enabled);
    // One scratch state walks every lattice edge: `clone_from` reuses its
    // buffers and `intern_ref` clones only on a fresh insert, so the
    // expansion loop allocates per *state*, never per edge.
    let mut scratch = ctx.initial_state();
    let mut stopped = None;
    let mut cursor = 0;
    'expand: while cursor < chart.states() {
        if let Err(e) = budget.check(chart.approx_bytes()) {
            stopped = Some(e);
            break;
        }
        let parent = StateId::new(cursor);
        let parent_fp = chart.table.fingerprint(parent);
        for k in chart.edge_range(cursor) {
            let (p, e) = chart.edges[k];
            scratch.clone_from(chart.table.get(parent));
            let mut fp = parent_fp;
            ctx.apply_keyed(&mut scratch, p, e, &mut fp);
            let (id, fresh) = chart.table.intern_ref_keyed(&scratch, fp);
            if fresh {
                if let Err(err) = budget.check_states(chart.states() + 1) {
                    stopped = Some(err);
                    break 'expand;
                }
                chart.chart_state(ctx, id, &mut enabled);
                // The successor executed exactly one more event than its
                // parent: inherit the row, add one bit.
                let row = chart.executed.push_row_copy(cursor);
                debug_assert_eq!(row, id.index());
                chart.executed.set(row, e.index());
            }
            chart.succ[k] = id.index() as u32;
        }
        cursor += 1;
    }
    chart.emit_metrics();
    PartialExploration { chart, stopped }
}

/// Completability back-propagation plus pairwise-fact accumulation over an
/// already-built chart. On a budget-truncated chart (one that is not
/// [complete](Chart::is_complete)) the result is a **sound
/// under-approximation** of the full answer:
///
/// * a state is marked completable only when an explored complete state
///   is reachable through *recorded* edges, so every `chb`/`overlap` bit
///   set here is witnessed by a genuinely feasible complete execution and
///   holds in the full result too;
/// * missing states / missing edges can only *withhold* facts, never
///   invent them (the expansion guard in [`pair_fires_completably`] keeps
///   partially-expanded states out of the overlap walks);
/// * `deadlock_reachable = true` is still definite — co-enabled lists are
///   charted when states are interned, so an incomplete state with none
///   is a real deadlock — but `false` now means "not proved".
pub(crate) fn finalize(ctx: &SearchCtx<'_>, chart: &mut Chart) -> StateSpaceResult {
    eo_obs::span!("engine.finalize");
    let deadlock_reachable = propagate_completability(ctx, chart);
    let (chb, overlap, completable_states) = accumulate(ctx, chart);
    StateSpaceResult {
        chb,
        overlap,
        states: chart.states(),
        completable_states,
        deadlock_reachable,
        approx_heap_bytes: chart.approx_bytes(),
    }
}

/// Marks every state from which a complete schedule is reachable; returns
/// whether any reachable state is a deadlock.
///
/// Breadth-first ids rise with the executed count, and every edge adds
/// one executed event, so each successor has a larger id than its
/// parent: one sweep in decreasing id order sees successors first. A
/// truncated chart legitimately under-approximates completability (and
/// may even fail to reach any complete state), so the root invariant is
/// asserted only for complete charts.
fn propagate_completability(ctx: &SearchCtx<'_>, chart: &mut Chart) -> bool {
    let mut deadlock_reachable = false;
    for i in (0..chart.states()).rev() {
        let st = chart.table.get(StateId::new(i));
        debug_assert!(
            i == 0 || chart.table.get(StateId::new(i - 1)).executed_count() <= st.executed_count(),
            "breadth-first ids are level-monotone"
        );
        let edges = chart.edge_range(i);
        let completable = if ctx.is_complete(st) {
            true
        } else {
            if edges.is_empty() {
                deadlock_reachable = true;
            }
            chart.succ[edges]
                .iter()
                .any(|&s| s != UNSET && chart.completable[s as usize])
        };
        chart.completable[i] = completable;
    }
    debug_assert!(
        !chart.is_complete() || chart.completable[0],
        "the observed execution is itself feasible, so the initial state must be completable"
    );
    deadlock_reachable
}

/// Accumulates the pairwise facts (`chb`, `overlap`) over every
/// completable state, returning them with the completable-state count.
fn accumulate(ctx: &SearchCtx<'_>, chart: &Chart) -> (Relation, Relation, usize) {
    let n = ctx.n_events();
    let mut chb = Relation::new(n);
    let mut overlap = Relation::new(n);
    let mut completable_states = 0;
    let mut executed = BitSet::new(n);
    let mut pending = BitSet::new(n);
    for i in 0..chart.states() {
        if !chart.completable[i] {
            continue;
        }
        completable_states += 1;

        // a executed, b pending ⇒ chb(a, b). The executed set was threaded
        // along the chart edges at build time — two scratch-row loads
        // here, no per-event machine queries.
        chart.executed.load_row(i, &mut executed);
        pending.set_all();
        pending.difference_with(&executed);
        for a in executed.iter() {
            chb.row_mut(a).union_with(&pending);
        }

        // Simultaneously enabled pairs that can both fire and stay
        // completable ⇒ overlap.
        let edges = chart.edge_range(i);
        for x in edges.clone() {
            for y in (x + 1)..edges.end {
                let (p1, e1) = chart.edges[x];
                let (p2, e2) = chart.edges[y];
                if overlap.contains(e1.index(), e2.index()) {
                    continue;
                }
                if pair_fires_completably(chart, i, x, p2)
                    || pair_fires_completably(chart, i, y, p1)
                {
                    overlap.insert(e1.index(), e2.index());
                    overlap.insert(e2.index(), e1.index());
                }
            }
        }
    }
    (chb, overlap, completable_states)
}

/// From state `i`, can the pair fire back-to-back — first the event of
/// edge `first` (one of `i`'s), then `second`'s next event — and leave a
/// completable state? Pure successor-slot reads: firing edge `first`
/// lands on `succ[first]`; `second` still being enabled there is a scan
/// of that state's edges; the final state is one more slot read. No
/// cloning, stepping, or hashing.
#[inline]
fn pair_fires_completably(chart: &Chart, i: usize, first: usize, second: ProcessId) -> bool {
    // On a budget-truncated chart a state's successor slots may be unset
    // (frontier / interrupted states); such states witness nothing.
    // Complete charts always pass both guards.
    if !chart.expanded(i) {
        return false;
    }
    let mid = chart.succ[first] as usize;
    if !chart.expanded(mid) {
        return false;
    }
    let edges = chart.edge_range(mid);
    match chart.edges[edges.clone()]
        .iter()
        .position(|&(p, _)| p == second)
    {
        Some(k) => chart.completable[chart.succ[edges.start + k] as usize],
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
