//! Enumeration of the feasible-execution set F(P).
//!
//! Every complete feasible schedule induces a partial order →T′; the set
//! of *distinct* induced orders is the paper's F(P). The search that
//! discovers them quotients schedules by a pluggable trace equivalence
//! ([`EquivStrategy`]):
//!
//! * [`EquivStrategy::Mazurkiewicz`] — depth-first search over schedules
//!   pruned with **sleep sets** (Godefroid): after exploring event `e`
//!   from a state, `e` is put to sleep for the sibling branches and stays
//!   asleep along them until a statically *dependent* event executes.
//!   Schedules that differ only by commuting independent events are
//!   explored once. The static dependence used
//!   ([`SearchCtx::statically_dependent`]) also fixes the order of all
//!   same-semaphore and same-event-variable operations within a class, so
//!   the canonical induced-order extraction of [`eo_model::induce`] is
//!   class-invariant.
//! * [`EquivStrategy::NormalForm`] — memoized quotient-graph DFS: a
//!   prefix is extended only if it is the first (least, children in
//!   event-index order) path to reach its canonical node — the
//!   future-relevant synchronization state of [`crate::equiv::ScanState`]
//!   combined with the raw pairing history. It never uses sleep sets:
//!   memoization plus history-dependent pruning is unsound, so canonical
//!   search explores every enabled event at each *fresh* node and prunes
//!   only exact revisits.
//! * [`enumerate_naive`] — the same search with no pruning: every
//!   interleaving. Used as the ground-truth oracle in tests and as the
//!   ablation baseline (DESIGN.md §5); all strategies must produce the
//!   same set of induced orders.
//!
//! **Incremental leaves.** Every pruned strategy carries the
//! [`ScanState`] down the DFS, so each complete schedule arrives with its
//! pairing-edge set and that set's 128-bit XOR key. The induced order is
//! `cl(base edges ∪ pairing edges)` — a function of the edge set — so a
//! leaf whose key was already seen repeats a recorded order and costs one
//! hash probe; only a new set is closed, starting from the base edges
//! closed once per enumeration. The unpruned oracle keeps the
//! from-scratch [`SearchCtx::induced_order`] leaf as the reference. The
//! visit order is the same as with from-scratch leaves, so
//! `schedules_explored`, `pruned_branches`, the truncation point and the
//! `orders` sequence are too.
//!
//! **Where successors come from.** The DFS is written once, generic over
//! its successor source. [`ExactEngine::analyze`](crate::ExactEngine::analyze)
//! and [`try_summary`](crate::ExactEngine::try_summary) pass the
//! [`QueryMemo`] their state-space pass charted to completion
//! ([`crate::statespace`]): a step reads the child's state id from the
//! parent's successor slot, and the canonical key comes from the interned
//! state, so nothing is cloned, stepped or re-derived. Machine stepping
//! remains only where no complete chart exists — the public
//! `enumerate_classes*`, `feasible_set`,
//! [`enumerate_naive`], and the enumeration after a budget-truncated
//! space pass, which must not intern states past the state cap; there,
//! machine states are pooled per depth. The chart lists co-enabled
//! events in the machine's order, so both sources visit the same
//! children in the same order, with the same four results. Sleep sets
//! are pooled per depth too: in steady state the search allocates only
//! for a new order.
//!
//! All variants deduplicate induced orders — by 128-bit matrix
//! fingerprint ([`eo_relations::Relation::fingerprint128`]), with the
//! full matrices retained as a collision oracle under
//! `debug_assertions` (the edge-set keys get the same oracle) — so the
//! result is F(P) itself (up to the documented canonical extraction), not
//! a multiset of schedules.

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::equiv::{closed_insert, combine_key, EquivStrategy, ScanState, ScanUndo};
use crate::queries::QueryMemo;
use crate::statetable::StateId;
use eo_model::{induce, EventId, MachState, ProcessId};
use eo_relations::fxhash::FxHashSet;
use eo_relations::{closure, BitSet, Relation};
use std::mem::size_of;

/// The outcome of enumerating F(P).
#[derive(Clone, Debug)]
pub struct EnumerationResult {
    /// The distinct induced partial orders — the elements of F(P).
    pub orders: Vec<Relation>,
    /// Complete schedules visited (≥ `orders.len()`; equality means the
    /// pruning was perfect for this input). Under the canonical
    /// strategy this counts distinct complete canonical nodes — each is
    /// reached exactly once.
    pub schedules_explored: usize,
    /// True iff the search stopped at the schedule budget; the relation
    /// summary refuses to quantify over a truncated set.
    pub truncated: bool,
    /// The equivalence strategy that produced this result (the unpruned
    /// oracle reports [`EquivStrategy::Mazurkiewicz`]'s independence but
    /// no pruning; it is only reachable via [`enumerate_naive`]).
    pub strategy: EquivStrategy,
    /// Branches the strategy pruned: sleep-set skips (Mazurkiewicz) or
    /// canonical-prefix memo hits (normal-form). The
    /// `enumerate.sleep_prunes` metric.
    pub pruned_branches: usize,
}

/// Dedup store of relations by 128-bit key — induced orders by
/// fingerprint, pairing-edge sets by [`ScanState::edge_key`]. Release
/// builds keep only the keys; debug builds also keep the full matrices
/// and assert both dedup decisions agree (the collision oracle).
struct SeenKeys {
    keys: FxHashSet<u128>,
    #[cfg(debug_assertions)]
    full: FxHashSet<Relation>,
}

impl SeenKeys {
    fn new() -> Self {
        SeenKeys {
            keys: FxHashSet::default(),
            #[cfg(debug_assertions)]
            full: FxHashSet::default(),
        }
    }

    /// Inserts `key`; `full` builds the keyed relation, which only the
    /// debug oracle needs. True iff the key is new.
    fn insert(&mut self, key: u128, full: impl FnOnce() -> Relation) -> bool {
        let fresh = self.keys.insert(key);
        #[cfg(debug_assertions)]
        {
            let full_fresh = self.full.insert(full());
            assert_eq!(
                fresh, full_fresh,
                "128-bit key collided with a distinct matrix"
            );
        }
        #[cfg(not(debug_assertions))]
        let _ = full;
        fresh
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// Approximate heap bytes of one n×n bit matrix plus container overhead.
fn matrix_bytes(n: usize) -> usize {
    (n * n).div_ceil(8) + 64
}

/// Where the schedule DFS reads each state's co-enabled events and
/// children from. The search holds one state per depth of the current
/// path; a source answers for the state at a depth and moves the next
/// depth to a child. Both sources list a state's co-enabled events in
/// the same (process) order, so the DFS visits the same children in the
/// same order whichever one it walks.
trait Successors {
    /// Whether the state at `depth` has executed every event.
    fn is_complete(&self, ctx: &SearchCtx<'_>, depth: usize) -> bool;
    /// Loads the co-enabled events of the state at `depth` and returns
    /// how many there are.
    fn expand(&mut self, ctx: &SearchCtx<'_>, depth: usize) -> usize;
    /// The `k`-th co-enabled event of the state at `depth`, after
    /// [`Successors::expand`].
    fn event(&self, depth: usize, k: usize) -> EventId;
    /// Makes the state at `depth + 1` the one firing the `k`-th
    /// co-enabled event at `depth` leads to.
    fn descend(&mut self, ctx: &SearchCtx<'_>, depth: usize, k: usize);
    /// The progress counters and flag words of the state at `depth`,
    /// the parts of it [`ScanState::state_key`] reads.
    fn key_parts(&self, depth: usize) -> (&[u32], &[u32]);
    /// Heap bytes the source holds, fixed from construction on.
    fn heap_bytes(&self) -> usize;
}

/// Successors by stepping the machine, wherever no complete chart
/// exists: each depth owns a machine state and a co-enabled buffer,
/// overwritten in place (`clone_from`), so in steady state stepping
/// allocates nothing.
struct MachineSteps {
    /// `states[d]`: the machine state after the first `d` events of the
    /// current path.
    states: Vec<MachState>,
    /// `enabled[d]`: the co-enabled list of `states[d]`.
    enabled: Vec<Vec<(ProcessId, EventId)>>,
}

impl MachineSteps {
    fn new(ctx: &SearchCtx<'_>) -> Self {
        let n = ctx.n_events();
        MachineSteps {
            states: vec![ctx.initial_state(); n + 1],
            enabled: vec![Vec::new(); n + 1],
        }
    }
}

impl Successors for MachineSteps {
    fn is_complete(&self, ctx: &SearchCtx<'_>, depth: usize) -> bool {
        ctx.is_complete(&self.states[depth])
    }

    fn expand(&mut self, ctx: &SearchCtx<'_>, depth: usize) -> usize {
        ctx.co_enabled_into(&self.states[depth], &mut self.enabled[depth]);
        self.enabled[depth].len()
    }

    fn event(&self, depth: usize, k: usize) -> EventId {
        self.enabled[depth][k].1
    }

    fn descend(&mut self, ctx: &SearchCtx<'_>, depth: usize, k: usize) {
        let p = self.enabled[depth][k].0;
        let (cur, next) = self.states.split_at_mut(depth + 1);
        next[0].clone_from(&cur[depth]);
        ctx.step(&mut next[0], p);
    }

    fn key_parts(&self, depth: usize) -> (&[u32], &[u32]) {
        let st = &self.states[depth];
        (st.progress(), st.flags())
    }

    fn heap_bytes(&self) -> usize {
        self.states.len() * self.states[0].heap_bytes()
    }
}

/// Successors read from a [`QueryMemo`] charted to completion: each
/// depth holds a state id, a state's co-enabled events are its charted
/// edges, and a child is the edge's successor slot. No state is cloned,
/// stepped or hashed.
struct ChartWalk<'g> {
    memo: &'g QueryMemo,
    /// `path[d]`: the state after the first `d` events of the current
    /// path.
    path: Vec<StateId>,
    /// `first[d]`: the index of `path[d]`'s first edge.
    first: Vec<usize>,
}

impl Successors for ChartWalk<'_> {
    fn is_complete(&self, ctx: &SearchCtx<'_>, depth: usize) -> bool {
        self.memo.is_complete(ctx, self.path[depth])
    }

    fn expand(&mut self, _: &SearchCtx<'_>, depth: usize) -> usize {
        let edges = self
            .memo
            .stepped_edges(self.path[depth])
            .expect("the chart walk needs every edge stepped");
        self.first[depth] = edges.start;
        edges.len()
    }

    fn event(&self, depth: usize, k: usize) -> EventId {
        self.memo.edge(self.first[depth] + k).1
    }

    fn descend(&mut self, _: &SearchCtx<'_>, depth: usize, k: usize) {
        self.path[depth + 1] = self.memo.target(self.first[depth] + k);
    }

    fn key_parts(&self, depth: usize) -> (&[u32], &[u32]) {
        let table = self.memo.table();
        (
            table.progress(self.path[depth]),
            table.flags(self.path[depth]),
        )
    }

    fn heap_bytes(&self) -> usize {
        self.path.len() * (size_of::<StateId>() + size_of::<usize>())
    }
}

struct Enumerator<'c, 'a, S> {
    ctx: &'c SearchCtx<'a>,
    /// Where each state's co-enabled events and children come from.
    src: S,
    max_schedules: usize,
    use_sleep: bool,
    schedule: Vec<EventId>,
    seen: SeenKeys,
    orders: Vec<Relation>,
    schedules_explored: usize,
    truncated: bool,
    pruned_branches: usize,
    /// Supervisor budget, checked once per DFS step; `None` is the
    /// zero-overhead legacy path.
    budget: Option<&'c Budget>,
    /// First budget failure; once set the search unwinds without
    /// recording anything further.
    stopped: Option<EngineError>,
    /// Approximate bytes one recorded order costs (matrix + fingerprint),
    /// for the memory budget.
    order_bytes: usize,
    /// Heap bytes allocated once per enumeration and never grown: the
    /// successor source, the dependence rows, the closed base and leaf
    /// scratch, and the scan.
    fixed_bytes: usize,
    // --- sleep sets (engaged iff `use_sleep`) ---
    /// `sleeps[d]`: the sleep set at depth `d`, grown in place with each
    /// explored sibling.
    sleeps: Vec<BitSet>,
    /// `dep[e]`: the events statically dependent with `e`. A child's
    /// sleep set is its parent's minus `dep[e]`, word-parallel.
    dep: Vec<BitSet>,
    // --- incremental induced orders (engaged iff `scan.is_some()`, i.e.
    // for every pruned strategy) ---
    /// Incremental induced-edge scan mirrored along the DFS path.
    scan: Option<ScanState>,
    /// Pairing edges emitted along the current path (a stack; each depth
    /// remembers its start index).
    edge_stack: Vec<(EventId, EventId)>,
    /// Pairing-edge sets of the complete schedules recorded so far.
    edge_sets: SeenKeys,
    /// `cl(base edges)`, the schedule-independent part of every order.
    closed_base: Relation,
    /// Leaf scratch: `closed_base` plus the current path's edges, closed.
    leaf: Relation,
    /// Scratch successor row for `closed_insert`.
    row_scratch: BitSet,
    // --- canonical-search state (engaged for normal-form) ---
    /// Canonical nodes already fully explored (or currently on the DFS
    /// path, which cannot recur — progress strictly increases).
    visited: FxHashSet<u128>,
}

impl<S: Successors> Enumerator<'_, '_, S> {
    fn record(&mut self) {
        // Truncation means "there was more to record than the budget
        // allowed": trip it only when an (N+1)-th schedule shows up, so an
        // enumeration that finishes at exactly the budget is complete.
        if self.schedules_explored >= self.max_schedules {
            self.truncated = true;
            return;
        }
        self.schedules_explored += 1;
        let Some(scan) = &self.scan else {
            // The unpruned oracle: the from-scratch reference leaf.
            let order = self.ctx.induced_order(&self.schedule);
            if self.seen.insert(order.fingerprint128(), || order.clone()) {
                self.orders.push(order);
            }
            return;
        };
        // The order is cl(base ∪ pairing edges): a repeated edge set
        // repeats an order the first schedule with that set recorded.
        let n = self.closed_base.len();
        let edges = &self.edge_stack;
        let edge_set =
            || Relation::from_edges(n, edges.iter().map(|&(a, b)| (a.index(), b.index())));
        if !self.edge_sets.insert(scan.edge_key(), edge_set) {
            return;
        }
        self.leaf.clone_from(&self.closed_base);
        for &(a, b) in edges {
            closed_insert(&mut self.leaf, a.index(), b.index(), &mut self.row_scratch);
        }
        let order = &self.leaf;
        debug_assert_eq!(
            *order,
            self.ctx.induced_order(&self.schedule),
            "incremental induced order diverged from the reference leaf"
        );
        if self.seen.insert(order.fingerprint128(), || order.clone()) {
            self.orders.push(order.clone());
        }
    }

    fn heap_estimate(&self) -> usize {
        let memo = (self.visited.len() + self.edge_sets.len()) * 2 * size_of::<u128>();
        let edges = self.edge_stack.capacity() * size_of::<(EventId, EventId)>();
        self.fixed_bytes + self.orders.len() * self.order_bytes + memo + edges
    }

    /// False once the search must unwind: truncated, or stopped by the
    /// budget, which is checked here once per DFS step.
    fn proceed(&mut self) -> bool {
        if self.truncated || self.stopped.is_some() {
            return false;
        }
        if let Some(budget) = self.budget {
            if let Err(e) = budget.check(self.heap_estimate()) {
                self.stopped = Some(e);
                return false;
            }
        }
        true
    }

    /// Fires `e`, the `k`-th co-enabled event at the current depth, into
    /// the next: the source's state, the schedule, and the scan when
    /// pruning. The result undoes the scan step via
    /// [`Enumerator::ascend`].
    fn descend(&mut self, k: usize, e: EventId) -> Option<(ScanUndo, usize)> {
        self.src.descend(self.ctx, self.schedule.len(), k);
        self.schedule.push(e);
        let mark = self.edge_stack.len();
        let undo = self
            .scan
            .as_mut()?
            .apply(self.ctx.exec().trace(), e, &mut self.edge_stack);
        Some((undo, mark))
    }

    /// Reverses [`Enumerator::descend`].
    fn ascend(&mut self, undo: Option<(ScanUndo, usize)>) {
        self.schedule.pop();
        if let (Some((undo, mark)), Some(scan)) = (undo, self.scan.as_mut()) {
            scan.undo(undo, &self.edge_stack[mark..]);
            self.edge_stack.truncate(mark);
        }
    }

    /// Sleep-set / naive schedule DFS (the Mazurkiewicz baseline and the
    /// oracle) from the state at the current depth.
    fn explore(&mut self) {
        if !self.proceed() {
            return;
        }
        let depth = self.schedule.len();
        if self.src.is_complete(self.ctx, depth) {
            self.record();
            return;
        }
        for k in 0..self.src.expand(self.ctx, depth) {
            let e = self.src.event(depth, k);
            if self.use_sleep {
                if self.sleeps[depth].contains(e.index()) {
                    self.pruned_branches += 1;
                    continue;
                }
                // Events stay asleep only while independent of what
                // executes.
                let (cur, next) = self.sleeps.split_at_mut(depth + 1);
                next[0].clone_from(&cur[depth]);
                next[0].difference_with(&self.dep[e.index()]);
            }
            let undo = self.descend(k, e);
            self.explore();
            self.ascend(undo);
            if self.truncated || self.stopped.is_some() {
                break;
            }
            if self.use_sleep {
                self.sleeps[depth].insert(e.index());
            }
        }
    }

    /// Memoized quotient-graph DFS for the canonical strategy. No sleep
    /// sets (unsound under memoization); instead, a node reached a second
    /// time — same future-relevant machine/scan state and same pairing
    /// history — is pruned wholesale. Children are tried in event-index
    /// order, so the surviving representative of every canonical node is
    /// the lexicographically least path to it.
    fn explore_canon(&mut self) {
        if !self.proceed() {
            return;
        }
        let depth = self.schedule.len();
        let scan = self.scan.as_ref().expect("canonical search seeds the scan");
        let (progress, flags) = self.src.key_parts(depth);
        let key = combine_key(scan.state_key(progress, flags), scan.edge_hash());
        if !self.visited.insert(key) {
            self.pruned_branches += 1;
            return;
        }
        if self.src.is_complete(self.ctx, depth) {
            self.record();
            return;
        }
        for k in 0..self.src.expand(self.ctx, depth) {
            let e = self.src.event(depth, k);
            let undo = self.descend(k, e);
            self.explore_canon();
            self.ascend(undo);
            if self.truncated || self.stopped.is_some() {
                break;
            }
        }
    }
}

/// Internal search configuration: which pruning the DFS runs with.
#[derive(Clone, Copy)]
struct SearchConfig {
    strategy: EquivStrategy,
    /// `false` only for the naive oracle.
    prune: bool,
}

fn run<S: Successors>(
    ctx: &SearchCtx<'_>,
    src: S,
    max_schedules: usize,
    config: SearchConfig,
    budget: Option<&Budget>,
) -> (EnumerationResult, Option<EngineError>) {
    let n = ctx.n_events();
    eo_obs::span!("engine.enumerate");
    let canon = config.prune && config.strategy.canonical();
    let use_sleep = config.prune && !canon;
    let trace = ctx.exec().trace();

    // Schedule-independent work, once per enumeration.
    let (sleeps, dep) = if use_sleep {
        let dep = (0..n)
            .map(|e| {
                let mut row = BitSet::new(n);
                for s in 0..n {
                    if ctx.statically_dependent(EventId::new(s), EventId::new(e)) {
                        row.insert(s);
                    }
                }
                row
            })
            .collect();
        (vec![BitSet::new(n); n + 1], dep)
    } else {
        (Vec::new(), Vec::new())
    };
    let scan = config.prune.then(|| ScanState::new(trace));
    let closed_base = if config.prune {
        closure::dfs_closure(&induce::base_edges(trace, ctx.effective_d()))
            .expect("base edges of a valid execution form a DAG")
    } else {
        Relation::new(0)
    };
    // None of the above ever grows: the memory budget counts it once.
    let leaf_matrices = if config.prune { 2 } else { 0 };
    let fixed_bytes = src.heap_bytes()
        + (sleeps.len() + dep.len()) * n.div_ceil(64) * size_of::<u64>()
        + leaf_matrices * matrix_bytes(n)
        + scan.as_ref().map_or(0, ScanState::heap_bytes);

    let mut en = Enumerator {
        ctx,
        src,
        max_schedules,
        use_sleep,
        schedule: Vec::with_capacity(n),
        seen: SeenKeys::new(),
        orders: Vec::new(),
        schedules_explored: 0,
        truncated: false,
        pruned_branches: 0,
        budget,
        stopped: None,
        // One Relation plus its 128-bit fingerprint per recorded order; a
        // closed n×n bit matrix plus container overhead.
        order_bytes: matrix_bytes(n) + 2 * size_of::<u128>(),
        fixed_bytes,
        sleeps,
        dep,
        scan,
        edge_stack: Vec::new(),
        edge_sets: SeenKeys::new(),
        leaf: closed_base.clone(),
        closed_base,
        row_scratch: BitSet::new(n),
        visited: FxHashSet::default(),
    };
    if canon {
        en.explore_canon();
    } else {
        en.explore();
    }
    // Once per enumeration, never per DFS step: the ≤2% overhead budget
    // rules out probes inside the search itself.
    eo_obs::counter!("engine.schedules", en.schedules_explored as u64);
    eo_obs::counter!("enum.orders", en.orders.len() as u64);
    if eo_obs::recording() {
        eo_obs::counter!("enumerate.classes", en.orders.len() as u64);
        eo_obs::counter!("enumerate.schedules", en.schedules_explored as u64);
        eo_obs::counter!("enumerate.sleep_prunes", en.pruned_branches as u64);
        let redundancy = if en.orders.is_empty() {
            0.0
        } else {
            en.schedules_explored as f64 / en.orders.len() as f64
        };
        eo_obs::gauge_f64("enumerate.redundancy_ratio", redundancy);
        eo_obs::gauge_str("enumerate.strategy", config.strategy.label());
    }
    (
        EnumerationResult {
            orders: en.orders,
            schedules_explored: en.schedules_explored,
            truncated: en.truncated,
            strategy: config.strategy,
            pruned_branches: en.pruned_branches,
        },
        en.stopped,
    )
}

/// The pruned search under `strategy` with successors from `chart`, a
/// memo charted to completion, when given, else from the machine.
fn run_pruned(
    ctx: &SearchCtx<'_>,
    chart: Option<&QueryMemo>,
    max_schedules: usize,
    strategy: EquivStrategy,
    budget: Option<&Budget>,
) -> (EnumerationResult, Option<EngineError>) {
    let config = SearchConfig {
        strategy,
        prune: true,
    };
    match chart {
        Some(memo) => {
            let depths = ctx.n_events() + 1;
            let walk = ChartWalk {
                memo,
                path: vec![StateId::new(0); depths],
                first: vec![0; depths],
            };
            run(ctx, walk, max_schedules, config, budget)
        }
        None => run(ctx, MachineSteps::new(ctx), max_schedules, config, budget),
    }
}

/// Pruned enumeration under the default (Mazurkiewicz sleep-set)
/// strategy: visits (roughly) one schedule per Mazurkiewicz class.
pub fn enumerate_classes(ctx: &SearchCtx<'_>, max_schedules: usize) -> EnumerationResult {
    enumerate_classes_with(ctx, max_schedules, EquivStrategy::default())
}

/// Pruned enumeration under an explicit [`EquivStrategy`].
pub fn enumerate_classes_with(
    ctx: &SearchCtx<'_>,
    max_schedules: usize,
    strategy: EquivStrategy,
) -> EnumerationResult {
    run_pruned(ctx, None, max_schedules, strategy, None).0
}

/// Unpruned enumeration of every interleaving — the oracle/ablation
/// variant. Factorially expensive; keep inputs tiny.
pub fn enumerate_naive(ctx: &SearchCtx<'_>, max_schedules: usize) -> EnumerationResult {
    run(
        ctx,
        MachineSteps::new(ctx),
        max_schedules,
        SearchConfig {
            strategy: EquivStrategy::Mazurkiewicz,
            prune: false,
        },
        None,
    )
    .0
}

/// Pruned enumeration under a supervisor [`Budget`] and an explicit
/// [`EquivStrategy`]: the budget is checked once per DFS step, and the
/// schedule cap comes from the budget itself. Successors come from
/// `chart`, a memo charted to completion, when one is given; without one
/// the search steps the machine. The second component reports why the
/// search stopped early, if it did.
pub(crate) fn enumerate_classes_budgeted_with(
    ctx: &SearchCtx<'_>,
    chart: Option<&QueryMemo>,
    budget: &Budget,
    strategy: EquivStrategy,
) -> (EnumerationResult, Option<EngineError>) {
    let cap = budget.schedules_cap();
    let (result, stopped) = run_pruned(ctx, chart, cap, strategy, Some(budget));
    let stopped = stopped.or(if result.truncated {
        Some(EngineError::ScheduleBudgetExceeded { limit: cap })
    } else {
        None
    });
    (result, stopped)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::ctx::FeasibilityMode;
    use eo_model::fixtures;

    fn sorted_orders(r: &EnumerationResult) -> Vec<Relation> {
        let mut v = r.orders.clone();
        v.sort_by_key(|r| r.pairs().collect::<Vec<_>>());
        v
    }

    fn classes(trace: &eo_model::Trace) -> EnumerationResult {
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let r = enumerate_classes(&ctx, 1 << 20);
        assert!(!r.truncated);
        // Cross-check against the unpruned oracle: identical F(P).
        let naive = enumerate_naive(&ctx, 1 << 20);
        assert_eq!(
            sorted_orders(&r),
            sorted_orders(&naive),
            "sleep-set pruning must not change F(P)"
        );
        assert!(r.schedules_explored <= naive.schedules_explored);
        // And the coarser strategy agrees too, visiting at most the
        // schedules the oracle explored.
        let coarse = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
        assert!(!coarse.truncated);
        assert_eq!(
            sorted_orders(&coarse),
            sorted_orders(&naive),
            "normal-form changed F(P)"
        );
        assert!(coarse.schedules_explored <= naive.schedules_explored);
        r
    }

    #[test]
    fn independent_pair_has_one_induced_order() {
        // Both schedules induce the same (empty) order: F(P) has a single
        // element in which the two events are concurrent.
        let (trace, a, b) = fixtures::independent_pair();
        let r = classes(&trace);
        assert_eq!(r.orders.len(), 1);
        assert!(r.orders[0].unordered(a.index(), b.index()));
        assert_eq!(
            r.schedules_explored, 1,
            "sleep sets visit the commuting pair once"
        );
    }

    #[test]
    fn handshake_has_one_class() {
        let (trace, ids) = fixtures::sem_handshake();
        let r = classes(&trace);
        assert_eq!(r.orders.len(), 1, "V→P is forced; the tails commute");
        assert!(r.orders[0].contains(ids.v.index(), ids.p.index()));
    }

    #[test]
    fn crossing_orders() {
        // V(s)/V(t) can be issued in either order, but with all
        // same-semaphore ops dependent each V is ordered only against its
        // own P; both schedules induce the same order.
        let (trace, a, b) = fixtures::crossing();
        let r = classes(&trace);
        assert!(!r.orders.is_empty());
        for o in &r.orders {
            assert!(
                o.unordered(a.index(), b.index()),
                "tails concurrent in all of F(P)"
            );
        }
    }

    #[test]
    fn figure1_posts_ordered_in_every_class() {
        let (trace, ids) = fixtures::figure1();
        let r = classes(&trace);
        for o in &r.orders {
            assert!(
                o.contains(ids.post_left.index(), ids.post_right.index()),
                "the data dependence forces the Posts in every feasible execution"
            );
        }
    }

    #[test]
    fn race_pair_single_order_with_dependences() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let r = classes(&trace);
        assert_eq!(r.orders.len(), 1);
        assert!(r.orders[0].contains(inc0.index(), inc1.index()));

        // Ignoring dependences, nothing forces the increments: F collapses
        // to a single induced order in which the pair is unordered (the
        // race is visible as concurrency, not as two orderings).
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
        let relaxed = enumerate_classes(&ctx, 1 << 20);
        assert_eq!(relaxed.orders.len(), 1);
        assert!(relaxed.orders[0].unordered(inc0.index(), inc1.index()));
    }

    #[test]
    fn truncation_reports_only_when_something_was_cut() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        // Sleep sets explore exactly one schedule here: a budget of 1 is
        // sufficient and must NOT be reported as truncation.
        let pruned = enumerate_classes(&ctx, 1);
        assert!(!pruned.truncated, "complete-at-budget is not truncated");
        assert_eq!(pruned.schedules_explored, 1);
        // The naive enumerator wants 2 schedules: budget 1 really cuts.
        let naive = enumerate_naive(&ctx, 1);
        assert!(naive.truncated);
        assert_eq!(naive.schedules_explored, 1);
    }

    #[test]
    fn deadlocked_branches_contribute_nothing() {
        let (trace, ids) = fixtures::post_wait_clear_chain();
        let r = classes(&trace);
        // Every recorded order is a complete execution: wait1 after post1.
        for o in &r.orders {
            assert!(o.contains(ids[0].index(), ids[1].index()));
        }
    }

    #[test]
    fn sleep_sets_prune_diamond_substantially() {
        let (trace, _ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let pruned = enumerate_classes(&ctx, 1 << 20);
        let naive = enumerate_naive(&ctx, 1 << 20);
        assert!(pruned.schedules_explored < naive.schedules_explored);
        assert_eq!(pruned.orders.len(), naive.orders.len());
        assert!(pruned.pruned_branches > 0, "the skips are counted");
    }

    /// The headline property of the canonical strategy: on the fixture
    /// gallery it visits exactly one complete schedule per element of
    /// F(P) — `schedules_explored == orders.len()` — where sleep sets
    /// leave redundancy (post_wait_clear_chain: 18 Mazurkiewicz classes,
    /// 10 orders).
    #[test]
    fn canonical_strategies_reach_perfect_pruning_on_gallery() {
        let gallery: Vec<eo_model::Trace> = vec![
            fixtures::independent_pair().0,
            fixtures::sem_handshake().0,
            fixtures::fork_join_diamond().0,
            fixtures::crossing().0,
            fixtures::figure1().0,
            fixtures::post_wait_clear_chain().0,
            fixtures::shared_counter_race().0,
        ];
        for trace in &gallery {
            let exec = trace.to_execution().unwrap();
            let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
            let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
            assert!(!r.truncated);
            assert_eq!(r.schedules_explored, r.orders.len(), "imperfect pruning");
        }
    }

    #[test]
    fn canonical_strategies_beat_sleep_sets_on_pairing_redundancy() {
        // 18 sleep-set schedules vs 10 orders on post_wait_clear_chain;
        // the canonical strategy must close the gap entirely.
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let maz = enumerate_classes(&ctx, 1 << 20);
        assert_eq!(maz.schedules_explored, 18);
        assert_eq!(maz.orders.len(), 10);
        let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
        assert_eq!(r.schedules_explored, 10);
        assert_eq!(sorted_orders(&r), sorted_orders(&maz));
    }

    /// IgnoreDependences flips enabledness and the induced →D content;
    /// the strategies must agree there too.
    #[test]
    fn strategies_agree_in_ignore_mode() {
        for trace in [
            fixtures::figure1().0,
            fixtures::post_wait_clear_chain().0,
            fixtures::crossing().0,
        ] {
            let exec = trace.to_execution().unwrap();
            let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
            let base = enumerate_classes(&ctx, 1 << 20);
            let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
            assert_eq!(sorted_orders(&r), sorted_orders(&base));
            assert!(r.schedules_explored <= base.schedules_explored);
        }
    }

    /// A canonical search that hits the schedule cap reports truncation,
    /// exactly like the baseline.
    #[test]
    fn canonical_truncation_is_reported() {
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let r = enumerate_classes_with(&ctx, 3, EquivStrategy::NormalForm);
        assert!(r.truncated, "10 complete nodes > cap 3");
        assert_eq!(r.schedules_explored, 3);
        // Complete-at-cap is not truncation.
        let exact = enumerate_classes_with(&ctx, 10, EquivStrategy::NormalForm);
        assert!(!exact.truncated);
    }

    // --- the chart walk against the machine walk ---

    /// The E9 pairing pitfall: a writer's `V` observably paired with the
    /// reader's guarding `P`, plus `decoys` other `V`s that could have
    /// served it instead.
    pub(crate) fn pitfall_exec(decoys: usize) -> eo_model::ProgramExecution {
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
        eo_lang::run_to_trace(&b.build(), &mut eo_lang::Scheduler::deterministic())
            .expect("pitfall program cannot deadlock")
            .to_execution()
            .expect("interpreter traces are valid")
    }

    /// Runs both successor sources on `exec` at caps from one schedule up
    /// to 2²⁰, in both feasibility modes and under both strategies: the
    /// walk over the complete chart must record the same `orders`
    /// sequence, visit and prune the same schedules, and truncate at the
    /// same point as the walk that steps the machine.
    fn assert_chart_walk_replays_machine(label: &str, exec: &eo_model::ProgramExecution) {
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let ctx = SearchCtx::new(exec, mode);
            let mut memo = QueryMemo::new(&ctx);
            assert!(
                memo.chart_breadth_first(&ctx).is_ok(),
                "{label}: the chart completes"
            );
            for strategy in EquivStrategy::ALL {
                for cap in [1, 2, 17, 1 << 16, 1 << 20] {
                    let at = format!("{label} {mode:?} {strategy} cap {cap}");
                    let (machine, _) = run_pruned(&ctx, None, cap, strategy, None);
                    let (walk, _) = run_pruned(&ctx, Some(&memo), cap, strategy, None);
                    assert_eq!(walk.orders, machine.orders, "{at}: orders");
                    assert_eq!(
                        walk.schedules_explored, machine.schedules_explored,
                        "{at}: schedules"
                    );
                    assert_eq!(walk.truncated, machine.truncated, "{at}: truncated");
                    assert_eq!(
                        walk.pruned_branches, machine.pruned_branches,
                        "{at}: pruned branches"
                    );
                }
            }
        }
    }

    #[test]
    fn chart_walk_replays_the_machine_walk_on_fixtures() {
        let gallery = [
            ("independent_pair", fixtures::independent_pair().0),
            ("sem_handshake", fixtures::sem_handshake().0),
            ("fork_join_diamond", fixtures::fork_join_diamond().0),
            ("crossing", fixtures::crossing().0),
            ("figure1", fixtures::figure1().0),
            ("post_wait_clear_chain", fixtures::post_wait_clear_chain().0),
            ("shared_counter_race", fixtures::shared_counter_race().0),
        ];
        for (label, trace) in gallery {
            assert_chart_walk_replays_machine(label, &trace.to_execution().unwrap());
        }
    }

    #[test]
    fn chart_walk_replays_the_machine_walk_on_generated_programs() {
        use eo_lang::generator::{generate_trace, WorkloadSpec};
        for seed in 0..4 {
            let mut spec = WorkloadSpec::small_semaphore(seed);
            spec.processes = 4;
            spec.events_per_process = 4;
            let exec = generate_trace(&spec, 100).to_execution().unwrap();
            assert_chart_walk_replays_machine(&format!("semaphores seed {seed}"), &exec);
        }
        // Event-style programs with `Clear`: deadlocking branches, and
        // distinct pairing-edge sets closing to one order (seeds 0, 41).
        for seed in [0, 1, 2, 3, 41] {
            let mut spec = WorkloadSpec::small_events(seed);
            spec.processes = 4;
            spec.events_per_process = 4;
            let exec = generate_trace(&spec, 100).to_execution().unwrap();
            assert_chart_walk_replays_machine(&format!("events seed {seed}"), &exec);
        }
    }

    /// The 7-decoy rung truncates the sleep-set search at 2¹⁶ schedules.
    #[test]
    fn chart_walk_replays_the_machine_walk_on_pitfall_4_to_7() {
        for decoys in 4..=7 {
            assert_chart_walk_replays_machine(&format!("pitfall-{decoys}"), &pitfall_exec(decoys));
        }
    }

    /// Under a state cap that truncates the space pass, `analyze` has no
    /// complete chart: the enumeration steps the machine, finds what an
    /// enumeration without a chart finds, and interns nothing past the
    /// cap.
    #[test]
    fn analyze_steps_the_machine_after_a_truncated_space_pass() {
        use crate::{AnalysisOutcome, ExactEngine};
        let exec = pitfall_exec(4);
        let mode = FeasibilityMode::IgnoreDependences;
        let full = ExactEngine::with_mode(&exec, mode).summary();
        let cap = 40;
        assert!(full.state_count() > cap, "the cap must truncate the space");
        let engine = ExactEngine::with_mode(&exec, mode)
            .with_budget(Budget::unlimited().with_max_states(cap));
        let AnalysisOutcome::Degraded(d) = engine.analyze() else {
            panic!("a truncated space pass degrades the analysis");
        };
        assert_eq!(d.reason(), &EngineError::StateSpaceExceeded { limit: cap });
        assert!(!d.space_complete());
        assert!(d.states_explored() <= cap);
        let machine = enumerate_classes(&SearchCtx::new(&exec, mode), 1 << 20);
        assert!(!machine.truncated);
        assert_eq!(d.orders_found(), machine.orders.len());
        assert_eq!(d.orders_found(), full.class_count());
        d.check_consistency_against(&full).unwrap();
    }
}
