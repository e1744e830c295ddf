//! Targeted witness queries with early exit.
//!
//! Deciding a *single* relation instance (e.g. "could `b` have happened
//! before `a`?" — the NP-hard question of Theorem 2) does not require
//! materializing all of F(P): a depth-first search over the cut lattice
//! can stop at the first witness. These queries power the theorem
//! benchmarks and give the engine its decision-procedure face:
//! satisfiability of the reduced formula is literally read off
//! [`witness_before`]'s answer.
//!
//! ## Sessions and memos
//!
//! All state is held in a [`QueryMemo`], the engine's one store of the
//! cut lattice: states are interned into a [`StateTable`] arena, so the
//! memo tables are indexed by dense [`StateId`]s instead of hashing full
//! states per probe. Three memo lifetimes coexist:
//!
//! * the **chart** is the part of the cut lattice searches have walked so
//!   far. Each interned state's co-enabled list is computed once, into one
//!   flat edge arena, and each edge carries a successor slot that the
//!   first search to step it fills. A later search walks the edge by
//!   reading the slot: no state clone, no machine step, no intern probe.
//!   The chart describes the lattice alone, so it persists for the life of
//!   the memo;
//! * **completability** ("is a complete schedule reachable from here?")
//!   is also a property of the state alone — independent of which pair a
//!   query asks about — so it persists too. A state is *dead* once a
//!   completion walk has exhausted it and *live* once it sat on the stack
//!   of a completion walk that succeeded. Both witness searches skip dead
//!   children, whose subtrees hold no witness and are already fully
//!   interned, and the pair probe answers at once when the state it lands
//!   in is already decided;
//! * **visited** sets are per-query (a state pruned while hunting one pair
//!   may matter for another), implemented as an epoch stamp per arena slot
//!   so starting a query is O(1), not O(states).
//!
//! The whole-program summary ([`crate::statespace`]) fills the same memo
//! the other way round: it charts a fresh memo breadth-first, every
//! state and edge, then decides every state's completability in one
//! reverse sweep. The enumeration of F(P) then walks that chart
//! ([`crate::enumerate`]), and a witness query on it steps no edge and
//! interns no state.
//!
//! The memos change the cost of a query, never its outcome: every answer
//! and witness schedule, and the sequence in which states are interned,
//! are those of a search that re-derives the lattice on every walk (the
//! differential suite keeps such a search as its reference). The pair
//! probe still steps the state between its two events in a scratch state
//! and interns only the state both land in, so
//! [`QueryMemo::interned_states`] and every state-cap trip point are
//! those of that search too. The memory budget is checked against a
//! running estimate that counts each interned state's table and memo
//! slots and each charted edge.
//!
//! A [`QueryMemo`] does not borrow the [`SearchCtx`] it searches — every
//! query method takes the context as a parameter — so long-lived callers
//! (the serving layer's sessions) can own both side by side. The
//! borrowing [`QuerySession`] wrapper pairs a memo with one context for
//! the common scoped-use case.
//!
//! Race detection asks about *many* pairs of one execution; routing them
//! through one memo turns the per-pair searches from cold starts into
//! incremental probes of a shared lattice. The free functions below wrap a
//! throwaway session for one-shot use.
//!
//! All searches are explicit-stack (no recursion — adversarial inputs make
//! the lattice deep) and build their witness schedules front-to-back, so a
//! witness costs O(length), not O(length²).

use crate::budget::Budget;
use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::statetable::{StateId, StateTable};
use eo_model::{EventId, MachState, ProcessId};
use std::mem::size_of;
use std::ops::Range;

/// What the memo knows about reaching completion from a state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Reach {
    /// Not decided yet.
    Unknown,
    /// No complete schedule is reachable.
    Dead,
    /// Some complete schedule is reachable (and the state is not itself
    /// complete).
    Live,
}

/// An unfilled chart entry: an edge no search has stepped yet, or a state
/// whose co-enabled list is not charted yet.
const UNSET: u32 = u32::MAX;

/// The memo's record of one interned state.
#[derive(Clone, Copy, Debug)]
struct Slot {
    /// `edges[start..end]` is the state's co-enabled list; `start` is
    /// [`UNSET`] until the list is charted.
    start: u32,
    end: u32,
    /// `stamp == epoch` ⇔ the current query visited the state.
    stamp: u32,
    /// Whether completion is reachable from the state. Query-independent,
    /// hence persistent.
    reach: Reach,
}

impl Slot {
    /// A freshly interned state's record: uncharted, unvisited, undecided.
    const FRESH: Slot = Slot {
        start: UNSET,
        end: UNSET,
        stamp: 0,
        reach: Reach::Unknown,
    };
}

/// One DFS stack frame: a state and a cursor into its charted edges.
type Frame = (StateId, u32);

/// Bytes one charted edge costs: its `(process, event)` entry plus its
/// successor slot.
const EDGE_BYTES: usize = size_of::<(ProcessId, EventId)>() + size_of::<u32>();

/// An edge-arena offset as a `u32`.
fn offset(k: usize) -> u32 {
    u32::try_from(k).expect("edge arena outgrew u32 offsets")
}

/// Reusable witness-query state for one execution: the interned state
/// arena, the lattice chart, the persistent completability memo and the
/// per-query visited stamps. See the module docs for why the memo
/// lifetimes differ.
///
/// A memo is built *from* a [`SearchCtx`] but does not borrow it; every
/// query takes the context as a parameter. Passing a context other than
/// the one the memo was opened for (same execution, same mode) is a logic
/// error: the interned states, chart and completability memo would
/// describe a different lattice and the answers would be garbage.
pub struct QueryMemo {
    table: StateTable,
    root: StateId,
    /// `slots[id]` = the memo's record of state `id`.
    slots: Vec<Slot>,
    /// Every charted co-enabled list, back to back.
    edges: Vec<(ProcessId, EventId)>,
    /// `succ[k]` = the state edge `k` leads to, or [`UNSET`] until some
    /// search steps it.
    succ: Vec<u32>,
    /// The current query's stamp.
    epoch: u32,
    /// Scratch for completion tails probed (and discarded) by overlap
    /// checks.
    tail: Vec<EventId>,
    /// Scratch co-enabled list, copied into `edges` when a state is
    /// charted.
    enabled: Vec<(ProcessId, EventId)>,
    /// The one state the machine steps: a state is loaded into it from
    /// the table (one slice copy into its buffer) before its co-enabled
    /// list is charted or an edge out of it is stepped, so nothing is
    /// allocated per state or per edge.
    scratch: MachState,
    /// Supervisor budget, checked once per DFS step (an unlimited budget
    /// makes every check one relaxed atomic load).
    budget: Budget,
    /// Bytes each interned state costs: its table slots plus its memo
    /// slots.
    per_state: usize,
    /// Running storage estimate for the memory budget: every interned
    /// state at `per_state` plus every charted edge at [`EDGE_BYTES`].
    bytes: usize,
}

impl QueryMemo {
    /// Opens a memo over `ctx`'s execution with the initial state interned
    /// and no budget constraints.
    pub fn new(ctx: &SearchCtx<'_>) -> Self {
        QueryMemo::with_budget(ctx, Budget::unlimited())
    }

    /// Opens a memo whose queries obey `budget`: the `try_*` query
    /// variants check it once per DFS step and surface the first
    /// exhausted resource as an [`EngineError`].
    pub fn with_budget(ctx: &SearchCtx<'_>, budget: Budget) -> Self {
        let initial = ctx.initial_state();
        let per_state = StateTable::bytes_per_state(&initial) + size_of::<Slot>();
        let mut table = StateTable::new();
        let (root, _) = table.intern(&initial);
        QueryMemo {
            table,
            root,
            slots: vec![Slot::FRESH],
            edges: Vec::new(),
            succ: Vec::new(),
            epoch: 0,
            tail: Vec::new(),
            enabled: Vec::new(),
            scratch: initial,
            budget,
            per_state,
            bytes: per_state,
        }
    }

    /// Replaces the budget later queries run under. The interned arena,
    /// chart and completability memo are kept — they are
    /// budget-independent facts.
    pub fn set_budget(&mut self, budget: Budget) {
        self.budget = budget;
    }

    /// One budget checkpoint: the interned-state count is the state-cap
    /// measure, the running byte count the storage estimate.
    #[inline]
    fn checkpoint(&self) -> Result<(), EngineError> {
        self.budget.check_states(self.table.len())?;
        self.budget.check(self.bytes)
    }

    /// Number of distinct states interned so far — grows monotonically as
    /// queries explore; a rough measure of how much lattice the memo has
    /// had to touch.
    #[inline]
    pub fn interned_states(&self) -> usize {
        self.table.len()
    }

    /// The heap bytes the memo's per-state and per-edge stores hold, by
    /// length: what the running estimate must never fall below.
    #[cfg(test)]
    fn heap_bytes(&self) -> usize {
        self.table.approx_bytes()
            + self.slots.len() * size_of::<Slot>()
            + self.edges.len() * size_of::<(ProcessId, EventId)>()
            + self.succ.len() * size_of::<u32>()
    }

    /// The running storage estimate the memory budget is checked against.
    #[inline]
    pub(crate) fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// The interned states.
    #[inline]
    pub(crate) fn table(&self) -> &StateTable {
        &self.table
    }

    /// The states a [breadth-first chart](Self::chart_breadth_first)
    /// holds: every interned state but the one that tripped the state
    /// cap, which alone is never charted.
    pub(crate) fn charted_states(&self) -> usize {
        let n = self.table.len();
        n - usize::from(self.slots[n - 1].start == UNSET)
    }

    /// The `(process, event)` pair edge `k` fires.
    #[inline]
    pub(crate) fn edge(&self, k: usize) -> (ProcessId, EventId) {
        self.edges[k]
    }

    /// The state edge `k` leads to. Some walk must have stepped it.
    #[inline]
    pub(crate) fn target(&self, k: usize) -> StateId {
        debug_assert_ne!(self.succ[k], UNSET, "edge {k} was never stepped");
        StateId::new(self.succ[k] as usize)
    }

    /// `id`'s charted co-enabled list, sorted by process id, as a range
    /// of edge indices — if some walk has stepped every one of its edges.
    /// Slots fill in edge order, so the last one decides.
    #[inline]
    pub(crate) fn stepped_edges(&self, id: StateId) -> Option<Range<usize>> {
        let Slot { start, end, .. } = self.slots[id.index()];
        let stepped = start != UNSET && (start == end || self.succ[end as usize - 1] != UNSET);
        stepped.then_some(start as usize..end as usize)
    }

    /// Whether state `id` has executed every event.
    #[inline]
    pub(crate) fn is_complete(&self, ctx: &SearchCtx<'_>, id: StateId) -> bool {
        self.table.executed(id) as usize == ctx.n_events()
    }

    /// Whether the memo knows a complete schedule to be reachable from
    /// `id`: it is complete, or live.
    #[inline]
    pub(crate) fn completable(&self, ctx: &SearchCtx<'_>, id: StateId) -> bool {
        self.slots[id.index()].reach == Reach::Live || self.is_complete(ctx, id)
    }

    /// Charts the lattice breadth-first from the root of a fresh memo,
    /// so ids rise with the executed count. Each state's co-enabled list
    /// is charted when the state is interned. The budget is checked as
    /// the summary pass always has: deadline, memory and cancellation once
    /// per expanded state, the state cap once per fresh state. A state
    /// past the cap stays interned but unlinked, so the memo charts
    /// exactly the states the cap admits. Errors at the first exhausted
    /// resource, leaving the chart consistent: every admitted state is
    /// charted, and its successor slots are all filled or an unfilled
    /// suffix.
    pub(crate) fn chart_breadth_first(&mut self, ctx: &SearchCtx<'_>) -> Result<(), EngineError> {
        debug_assert_eq!(self.table.len(), 1, "breadth-first ids need a fresh memo");
        // Charted before the first checkpoint, so a pass stopped there
        // still holds the root.
        self.chart(ctx, self.root);
        let mut cursor = 0;
        while cursor < self.table.len() {
            self.budget.check(self.bytes)?;
            let id = StateId::new(cursor);
            let (start, end) = self.chart(ctx, id);
            for k in start..end {
                let interned = self.table.len();
                let cid = self.successor(ctx, id, k);
                if self.table.len() > interned {
                    if let Err(e) = self.budget.check_states(self.table.len()) {
                        self.succ[k as usize] = UNSET;
                        return Err(e);
                    }
                    self.chart(ctx, cid);
                }
            }
            cursor += 1;
        }
        Ok(())
    }

    /// Decides [`Reach`] for every state of a breadth-first chart in one
    /// sweep, in decreasing id order, and returns whether one of them is
    /// a deadlock. Every edge adds one executed event, so each successor
    /// has a larger id than its parent and the sweep sees it first. A
    /// state is live once an edge leads to a completable state, and dead
    /// once all its edges are stepped and lead to dead states. On a
    /// truncated chart the rest stay unknown, so what the sweep decides
    /// is what the chart proves.
    pub(crate) fn decide_reach(&mut self, ctx: &SearchCtx<'_>) -> bool {
        let mut deadlock_reachable = false;
        let mut undecided = false;
        for i in (0..self.charted_states()).rev() {
            let id = StateId::new(i);
            debug_assert!(
                i == 0 || self.table.executed(StateId::new(i - 1)) <= self.table.executed(id),
                "breadth-first ids are level-monotone"
            );
            if self.is_complete(ctx, id) {
                continue;
            }
            let Slot { start, end, .. } = self.slots[i];
            deadlock_reachable |= start == end;
            let mut reach = Reach::Dead;
            for &s in &self.succ[start as usize..end as usize] {
                if s == UNSET {
                    reach = Reach::Unknown;
                    break;
                }
                let s = StateId::new(s as usize);
                if self.completable(ctx, s) {
                    reach = Reach::Live;
                    break;
                }
                if self.slots[s.index()].reach == Reach::Unknown {
                    reach = Reach::Unknown;
                }
            }
            undecided |= reach == Reach::Unknown;
            self.slots[i].reach = reach;
        }
        debug_assert!(
            undecided || self.completable(ctx, self.root),
            "the observed execution is itself feasible, so the initial state must be completable"
        );
        deadlock_reachable
    }

    /// `id`'s co-enabled list as a range of `edges`, charted the first
    /// time any search asks for it.
    fn chart(&mut self, ctx: &SearchCtx<'_>, id: StateId) -> (u32, u32) {
        let slot = &self.slots[id.index()];
        if slot.start != UNSET {
            return (slot.start, slot.end);
        }
        self.table.load(id, &mut self.scratch);
        ctx.co_enabled_into(&self.scratch, &mut self.enabled);
        let start = offset(self.edges.len());
        self.edges.extend_from_slice(&self.enabled);
        self.succ.resize(self.edges.len(), UNSET);
        self.bytes += self.enabled.len() * EDGE_BYTES;
        let end = offset(self.edges.len());
        let slot = &mut self.slots[id.index()];
        (slot.start, slot.end) = (start, end);
        (start, end)
    }

    /// The state that charted edge `k`, out of `id`, leads to. The first
    /// search to take the edge steps the scratch state and interns the
    /// result; later ones read the successor slot.
    fn successor(&mut self, ctx: &SearchCtx<'_>, id: StateId, k: u32) -> StateId {
        let slot = self.succ[k as usize];
        if slot != UNSET {
            return StateId::new(slot as usize);
        }
        let (p, e) = self.edges[k as usize];
        self.table.load(id, &mut self.scratch);
        let mut fp = self.table.fingerprint(id);
        ctx.apply_keyed(&mut self.scratch, p, e, &mut fp);
        let cid = self.intern_scratch(fp);
        self.succ[k as usize] = cid.index() as u32;
        cid
    }

    /// Interns the scratch state, whose key fingerprint is `fp`, growing
    /// the per-state memo slots on a fresh insert.
    fn intern_scratch(&mut self, fp: u64) -> StateId {
        let (cid, fresh) = self.table.intern_keyed(&self.scratch, fp);
        if fresh {
            self.slots.push(Slot::FRESH);
            self.bytes += self.per_state;
        }
        cid
    }

    /// Starts a query: bumps the epoch (recycling stamps on the
    /// astronomically-unlikely wrap) and returns it.
    fn next_epoch(&mut self) -> u32 {
        if self.epoch == u32::MAX {
            self.epoch = 0;
            self.slots.iter_mut().for_each(|slot| slot.stamp = 0);
        }
        self.epoch += 1;
        self.epoch
    }

    /// Appends to `out` a complete feasible schedule from `start` onward,
    /// if one exists (returning whether it does; on failure `out` may hold
    /// a partial tail the caller must discard). Every state fully explored
    /// without success is marked dead, and every state on the path to a
    /// completion live — permanently, for all future queries. Errors at
    /// the first exhausted budget resource.
    fn try_complete_from(
        &mut self,
        ctx: &SearchCtx<'_>,
        start: StateId,
        out: &mut Vec<EventId>,
    ) -> Result<bool, EngineError> {
        if self.is_complete(ctx, start) {
            return Ok(true);
        }
        if self.slots[start.index()].reach == Reach::Dead {
            return Ok(false);
        }
        let mut stack: Vec<Frame> = vec![(start, self.chart(ctx, start).0)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            let (id, k) = *top;
            if k == self.slots[id.index()].end {
                stack.pop();
                self.slots[id.index()].reach = Reach::Dead;
                if !stack.is_empty() {
                    out.pop(); // retract the edge that led here
                }
                continue;
            }
            top.1 += 1;
            let cid = self.successor(ctx, id, k);
            let e = self.edges[k as usize].1;
            if self.is_complete(ctx, cid) {
                out.push(e);
                // Only this walk's frames are marked: a later walk from
                // any of them would retrace this one past branches already
                // marked dead, so skipping it skips no interning. A
                // witness search's frames can reach completion too, but a
                // walk from one of them may step branches it never took.
                for &(id, _) in &stack {
                    self.slots[id.index()].reach = Reach::Live;
                }
                return Ok(true);
            }
            if self.slots[cid.index()].reach == Reach::Dead {
                continue;
            }
            out.push(e);
            stack.push((cid, self.chart(ctx, cid).0));
            // The lattice is a DAG (executed count strictly increases), so
            // a state can never sit on the stack twice; any state reached
            // again was fully explored already and is covered by `reach`.
        }
        Ok(false)
    }

    /// Searches for a complete feasible schedule in which `first` executes
    /// strictly before `second`, returning it as a witness. `Ok(None)`
    /// means no feasible execution orders them that way — i.e. `second`
    /// MHB `first` (when `first ≠ second`). Errors at the first exhausted
    /// budget resource.
    pub fn try_witness_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        // Per-query granularity: a counter event per query and the arena
        // growth it caused — never per DFS step, which is far too hot.
        eo_obs::counter!("query.witness_queries", 1);
        let interned_before = self.table.len();
        let result = self.witness_before_search(ctx, first, second);
        eo_obs::counter!(
            "query.states_interned",
            (self.table.len() - interned_before) as u64
        );
        result
    }

    fn witness_before_search(
        &mut self,
        ctx: &SearchCtx<'_>,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(first, second, "witness_before needs two distinct events");
        let epoch = self.next_epoch();
        let mut prefix: Vec<EventId> = Vec::new();
        // The initial state has executed nothing, so it starts in the
        // neither-executed regime the stamp set covers.
        self.slots[self.root.index()].stamp = epoch;
        let root = self.root;
        let mut stack: Vec<Frame> = vec![(root, self.chart(ctx, root).0)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            let (id, k) = *top;
            if k == self.slots[id.index()].end {
                stack.pop();
                if !stack.is_empty() {
                    prefix.pop();
                }
                continue;
            }
            top.1 += 1;
            let cid = self.successor(ctx, id, k);
            if self.slots[cid.index()].reach == Reach::Dead {
                continue; // nothing completes from here, so no witness does
            }
            // Every state on the stack has executed neither event, so the
            // child has executed exactly the one its edge fires, if any.
            let e = self.edges[k as usize].1;
            if e == second {
                continue; // this path already ordered them the wrong way
            }
            if e == first {
                // Any completion now places `first` before `second`.
                prefix.push(e);
                let depth = prefix.len();
                if self.try_complete_from(ctx, cid, &mut prefix)? {
                    return Ok(Some(prefix));
                }
                prefix.truncate(depth - 1);
                continue;
            }
            // Neither executed yet.
            if self.slots[cid.index()].stamp == epoch {
                continue;
            }
            self.slots[cid.index()].stamp = epoch;
            prefix.push(e);
            stack.push((cid, self.chart(ctx, cid).0));
        }
        Ok(None)
    }

    /// Searches for a feasible execution in which `a` and `b` are
    /// simultaneously ready to execute (and running both keeps completion
    /// reachable). Returns the schedule prefix up to that state.
    ///
    /// This decides the operational could-be-concurrent relation;
    /// `Ok(None)` means the pair is must-ordered in the operational sense.
    /// Errors at the first exhausted budget resource.
    pub fn try_witness_overlap(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        eo_obs::counter!("query.witness_queries", 1);
        let interned_before = self.table.len();
        let result = self.witness_overlap_search(ctx, a, b);
        eo_obs::counter!(
            "query.states_interned",
            (self.table.len() - interned_before) as u64
        );
        result
    }

    fn witness_overlap_search(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        assert_ne!(a, b, "witness_overlap needs two distinct events");
        let epoch = self.next_epoch();
        let mut prefix: Vec<EventId> = Vec::new();
        self.slots[self.root.index()].stamp = epoch;
        let root = self.root;
        // Checkpoint before the root shortcut so an already-exhausted
        // budget (e.g. an external cancel) stops the query promptly even
        // when the witness would be found at the initial state.
        self.checkpoint()?;
        if self.try_pair_overlaps_at(ctx, root, a, b)? {
            return Ok(Some(prefix));
        }
        let mut stack: Vec<Frame> = vec![(root, self.chart(ctx, root).0)];
        loop {
            self.checkpoint()?;
            let Some(top) = stack.last_mut() else { break };
            let (id, k) = *top;
            if k == self.slots[id.index()].end {
                stack.pop();
                if !stack.is_empty() {
                    prefix.pop();
                }
                continue;
            }
            top.1 += 1;
            let cid = self.successor(ctx, id, k);
            if self.slots[cid.index()].reach == Reach::Dead {
                continue; // nothing completes from here, so no witness does
            }
            // As in the before-search, the stack holds only states that
            // have executed neither event.
            let e = self.edges[k as usize].1;
            if e == a || e == b {
                continue; // overlap must be witnessed before either runs
            }
            if self.slots[cid.index()].stamp == epoch {
                continue;
            }
            self.slots[cid.index()].stamp = epoch;
            prefix.push(e);
            if self.try_pair_overlaps_at(ctx, cid, a, b)? {
                return Ok(Some(prefix));
            }
            stack.push((cid, self.chart(ctx, cid).0));
        }
        Ok(None)
    }

    /// Can `a` and `b` fire back-to-back (either order) from `id` and
    /// leave completion reachable?
    fn try_pair_overlaps_at(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        let (start, end) = self.chart(ctx, id);
        let enabled = &self.edges[start as usize..end as usize];
        let process_of = |ev: EventId| enabled.iter().find(|&&(_, e)| e == ev).map(|&(p, _)| p);
        let (Some(pa), Some(pb)) = (process_of(a), process_of(b)) else {
            return Ok(false);
        };
        Ok(self.try_both_fire_completably(ctx, id, (pa, a), (pb, b))?
            || self.try_both_fire_completably(ctx, id, (pb, b), (pa, a))?)
    }

    /// Can `x`, then `y`, both co-enabled at `id`, fire back-to-back and
    /// leave completion reachable?
    fn try_both_fire_completably(
        &mut self,
        ctx: &SearchCtx<'_>,
        id: StateId,
        (px, x): (ProcessId, EventId),
        (py, y): (ProcessId, EventId),
    ) -> Result<bool, EngineError> {
        // Step x then y through the scratch state, interning only the
        // state both land in. `py` differs from `px` (a process has one
        // next event), so its next event is still `y` after x fires.
        self.table.load(id, &mut self.scratch);
        let mut fp = self.table.fingerprint(id);
        ctx.apply_keyed(&mut self.scratch, px, x, &mut fp);
        if ctx.machine().enabled(&self.scratch, py).is_err()
            || !ctx.deps_satisfied(&self.scratch, y)
        {
            return Ok(false);
        }
        ctx.apply_keyed(&mut self.scratch, py, y, &mut fp);
        let landed = self.intern_scratch(fp);
        match self.slots[landed.index()].reach {
            Reach::Dead => Ok(false),
            // Decided already: skip the walk, but keep the checkpoint it
            // would have opened with, so state caps trip where they did.
            Reach::Live => self.checkpoint().map(|()| true),
            Reach::Unknown => {
                let mut tail = std::mem::take(&mut self.tail);
                tail.clear();
                let ok = self.try_complete_from(ctx, landed, &mut tail);
                self.tail = tail;
                ok
            }
        }
    }

    /// Decides `a MHB b` by witness search: true iff **no** feasible
    /// schedule runs `b` before `a`. Errors at the first exhausted budget
    /// resource.
    pub fn try_must_happen_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(ctx, b, a)?.is_none())
    }

    /// Decides `a CHB b` by witness search: true iff some feasible
    /// schedule runs `a` before `b`. Errors at the first exhausted budget
    /// resource.
    pub fn try_could_happen_before(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_before(ctx, a, b)?.is_some())
    }

    /// Decides operational `a CCW b` by witness search. Errors at the
    /// first exhausted budget resource.
    pub fn try_could_be_concurrent(
        &mut self,
        ctx: &SearchCtx<'_>,
        a: EventId,
        b: EventId,
    ) -> Result<bool, EngineError> {
        Ok(a != b && self.try_witness_overlap(ctx, a, b)?.is_some())
    }
}

/// Reusable witness-query state bound to one [`SearchCtx`]: a
/// [`QueryMemo`] paired with the context it searches, for scoped use
/// where threading the context through every call is noise.
pub struct QuerySession<'c, 'e> {
    ctx: &'c SearchCtx<'e>,
    memo: QueryMemo,
}

impl<'c, 'e> QuerySession<'c, 'e> {
    /// Opens a session over `ctx` with the initial state interned and no
    /// budget constraints.
    pub fn new(ctx: &'c SearchCtx<'e>) -> Self {
        QuerySession::with_budget(ctx, Budget::unlimited())
    }

    /// Opens a session whose queries obey `budget`: the `try_*` query
    /// variants check it once per DFS step and surface the first
    /// exhausted resource as an [`EngineError`].
    pub fn with_budget(ctx: &'c SearchCtx<'e>, budget: Budget) -> Self {
        QuerySession {
            ctx,
            memo: QueryMemo::with_budget(ctx, budget),
        }
    }

    /// The context this session searches.
    #[inline]
    pub fn ctx(&self) -> &'c SearchCtx<'e> {
        self.ctx
    }

    /// The underlying context-free memo (to move into a longer-lived
    /// owner once the scoped borrow ends).
    pub fn into_memo(self) -> QueryMemo {
        self.memo
    }

    /// Number of distinct states interned so far — grows monotonically as
    /// queries explore; a rough measure of how much lattice the session
    /// has had to touch.
    #[inline]
    pub fn interned_states(&self) -> usize {
        self.memo.interned_states()
    }

    /// Searches for a complete feasible schedule in which `first` executes
    /// strictly before `second`, returning it as a witness. `Ok(None)`
    /// means no feasible execution orders them that way — i.e. `second`
    /// MHB `first` (when `first ≠ second`). Errors at the first exhausted
    /// budget resource.
    pub fn try_witness_before(
        &mut self,
        first: EventId,
        second: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        self.memo.try_witness_before(self.ctx, first, second)
    }

    /// Infallible [`QuerySession::try_witness_before`] for unbudgeted
    /// sessions.
    ///
    /// # Panics
    /// Panics if the session's budget is exhausted mid-query; sessions
    /// opened with [`QuerySession::new`] never are.
    pub fn witness_before(&mut self, first: EventId, second: EventId) -> Option<Vec<EventId>> {
        self.try_witness_before(first, second)
            .unwrap_or_else(|e| panic!("witness query exceeded its budget: {e}"))
    }

    /// Searches for a feasible execution in which `a` and `b` are
    /// simultaneously ready to execute (and running both keeps completion
    /// reachable). Returns the schedule prefix up to that state.
    ///
    /// This decides the operational could-be-concurrent relation;
    /// `Ok(None)` means the pair is must-ordered in the operational sense.
    /// Errors at the first exhausted budget resource.
    pub fn try_witness_overlap(
        &mut self,
        a: EventId,
        b: EventId,
    ) -> Result<Option<Vec<EventId>>, EngineError> {
        self.memo.try_witness_overlap(self.ctx, a, b)
    }

    /// Infallible [`QuerySession::try_witness_overlap`] for unbudgeted
    /// sessions.
    ///
    /// # Panics
    /// Panics if the session's budget is exhausted mid-query; sessions
    /// opened with [`QuerySession::new`] never are.
    pub fn witness_overlap(&mut self, a: EventId, b: EventId) -> Option<Vec<EventId>> {
        self.try_witness_overlap(a, b)
            .unwrap_or_else(|e| panic!("witness query exceeded its budget: {e}"))
    }

    /// Decides `a MHB b` by witness search: true iff **no** feasible
    /// schedule runs `b` before `a`. Errors at the first exhausted budget
    /// resource.
    pub fn try_must_happen_before(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        self.memo.try_must_happen_before(self.ctx, a, b)
    }

    /// Decides `a CHB b` by witness search: true iff some feasible
    /// schedule runs `a` before `b`. Errors at the first exhausted budget
    /// resource.
    pub fn try_could_happen_before(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        self.memo.try_could_happen_before(self.ctx, a, b)
    }

    /// Decides operational `a CCW b` by witness search. Errors at the
    /// first exhausted budget resource.
    pub fn try_could_be_concurrent(&mut self, a: EventId, b: EventId) -> Result<bool, EngineError> {
        self.memo.try_could_be_concurrent(self.ctx, a, b)
    }

    /// Decides `a MHB b` by witness search: true iff **no** feasible
    /// schedule runs `b` before `a`.
    pub fn must_happen_before(&mut self, a: EventId, b: EventId) -> bool {
        a != b && self.witness_before(b, a).is_none()
    }

    /// Decides `a CHB b` by witness search: true iff some feasible
    /// schedule runs `a` before `b`.
    pub fn could_happen_before(&mut self, a: EventId, b: EventId) -> bool {
        a != b && self.witness_before(a, b).is_some()
    }

    /// Decides operational `a CCW b` by witness search.
    pub fn could_be_concurrent(&mut self, a: EventId, b: EventId) -> bool {
        a != b && self.witness_overlap(a, b).is_some()
    }
}

/// One-shot [`QuerySession::witness_before`]. Callers with many queries
/// against one execution should hold a session instead.
pub fn witness_before(
    ctx: &SearchCtx<'_>,
    first: EventId,
    second: EventId,
) -> Option<Vec<EventId>> {
    QuerySession::new(ctx).witness_before(first, second)
}

/// Decides `a MHB b` by witness search: true iff **no** feasible schedule
/// runs `b` before `a`.
pub fn must_happen_before(ctx: &SearchCtx<'_>, a: EventId, b: EventId) -> bool {
    QuerySession::new(ctx).must_happen_before(a, b)
}

/// Decides `a CHB b` by witness search: true iff some feasible schedule
/// runs `a` before `b`.
pub fn could_happen_before(ctx: &SearchCtx<'_>, a: EventId, b: EventId) -> bool {
    QuerySession::new(ctx).could_happen_before(a, b)
}

/// Decides operational `a CCW b` by witness search.
pub fn could_be_concurrent(ctx: &SearchCtx<'_>, a: EventId, b: EventId) -> bool {
    QuerySession::new(ctx).could_be_concurrent(a, b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::FeasibilityMode;
    use crate::statespace::explore_statespace;
    use eo_model::fixtures;

    fn ctx_of(exec: &eo_model::ProgramExecution) -> SearchCtx<'_> {
        SearchCtx::new(exec, FeasibilityMode::PreserveDependences)
    }

    #[test]
    fn witness_is_a_valid_schedule() {
        let (trace, a, b) = fixtures::independent_pair();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let w = witness_before(&ctx, b, a).expect("b can go first");
        assert_eq!(w.len(), exec.n_events());
        assert!(ctx.machine().replay(&w).is_ok(), "witness replays cleanly");
        let pos = |e: EventId| w.iter().position(|&x| x == e).unwrap();
        assert!(pos(b) < pos(a));
    }

    #[test]
    fn handshake_mhb_via_witness() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(must_happen_before(&ctx, ids.v, ids.p));
        assert!(!must_happen_before(&ctx, ids.after_v, ids.after_p));
        assert!(could_happen_before(&ctx, ids.after_p, ids.after_v));
    }

    #[test]
    fn figure1_mhb_via_witness() {
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(must_happen_before(&ctx, ids.post_left, ids.post_right));
        assert!(witness_before(&ctx, ids.post_right, ids.post_left).is_none());
    }

    #[test]
    fn overlap_witness_prefix_replays() {
        let (trace, ids) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let prefix = QuerySession::new(&ctx)
            .witness_overlap(ids.left, ids.right)
            .expect("workers overlap");
        // The prefix must be a valid partial schedule: replay it step by
        // step on the machine.
        let mut st = ctx.initial_state();
        for &e in &prefix {
            let p = exec.event(e).process;
            assert!(ctx.co_enabled(&st).iter().any(|&(_, ev)| ev == e));
            ctx.step(&mut st, p);
        }
        // At the witness state both events are co-enabled.
        let enabled: Vec<EventId> = ctx.co_enabled(&st).iter().map(|&(_, e)| e).collect();
        assert!(enabled.contains(&ids.left) && enabled.contains(&ids.right));
    }

    #[test]
    fn no_overlap_for_forced_pairs() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        assert!(!could_be_concurrent(&ctx, ids.v, ids.p));
        assert!(could_be_concurrent(&ctx, ids.after_v, ids.after_p));
    }

    #[test]
    fn queries_agree_with_statespace_on_fixtures() {
        for (trace, _x, _y) in [
            fixtures::independent_pair(),
            fixtures::shared_counter_race(),
        ] {
            let exec = trace.to_execution().unwrap();
            let ctx = ctx_of(&exec);
            let space = explore_statespace(&ctx, 1 << 20).unwrap();
            let n = exec.n_events();
            // One shared session across every pair: the persistent dead
            // memo and the per-query stamps must not bleed answers between
            // queries.
            let mut session = QuerySession::new(&ctx);
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    assert_eq!(
                        session.could_happen_before(ea, eb),
                        space.chb.contains(a, b),
                        "chb({a},{b})"
                    );
                    assert_eq!(
                        could_happen_before(&ctx, ea, eb),
                        space.chb.contains(a, b),
                        "one-shot chb({a},{b})"
                    );
                    assert_eq!(
                        session.could_be_concurrent(ea, eb),
                        space.overlap.contains(a, b),
                        "overlap({a},{b})"
                    );
                    assert_eq!(
                        could_be_concurrent(&ctx, ea, eb),
                        space.overlap.contains(a, b),
                        "one-shot overlap({a},{b})"
                    );
                }
            }
            assert!(session.interned_states() <= space.states);
        }
    }

    #[test]
    fn session_reuse_matches_one_shot_witnesses() {
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = QuerySession::new(&ctx);
        let n = exec.n_events();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                assert_eq!(
                    session.witness_before(ea, eb),
                    witness_before(&ctx, ea, eb),
                    "witness_before({a},{b}) must not depend on session history"
                );
                assert_eq!(
                    session.witness_overlap(ea, eb),
                    QuerySession::new(&ctx).witness_overlap(ea, eb),
                    "witness_overlap({a},{b}) must not depend on session history"
                );
            }
        }
        let _ = ids;
    }

    #[test]
    fn detached_memo_survives_its_session() {
        // The serve layer's pattern: open a scoped session, run a query,
        // detach the memo, rebuild a context later, and keep querying —
        // the dead-set must carry over (interned count must not reset).
        let (trace, ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut session = QuerySession::new(&ctx);
        let w1 = session.witness_before(ids.post_left, ids.post_right);
        let after_first = session.interned_states();
        let mut memo = session.into_memo();
        let ctx2 = ctx_of(&exec);
        let w2 = memo
            .try_witness_before(&ctx2, ids.post_left, ids.post_right)
            .unwrap();
        assert_eq!(w1, w2, "same query, same answer through the detached memo");
        assert!(memo.interned_states() >= after_first);
        assert_eq!(
            memo.try_must_happen_before(&ctx2, ids.post_left, ids.post_right)
                .unwrap(),
            must_happen_before(&ctx, ids.post_left, ids.post_right)
        );
    }

    #[test]
    fn storage_estimate_covers_the_table_and_the_chart() {
        let (trace, _ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let mut memo = QueryMemo::new(&ctx);
        assert!(memo.bytes >= memo.heap_bytes());
        let n = exec.n_events();
        for a in 0..n {
            for b in 0..n {
                if a != b {
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    memo.try_witness_before(&ctx, ea, eb).unwrap();
                    memo.try_witness_overlap(&ctx, ea, eb).unwrap();
                    assert!(memo.bytes >= memo.heap_bytes(), "({a},{b})");
                }
            }
        }
        assert!(!memo.edges.is_empty(), "the batch charted edges");
        assert!(memo.bytes > memo.table.approx_bytes() + memo.edges.len() * 8);
        // A memo the summary pass charts to completion: the whole lattice.
        let mut charted = QueryMemo::new(&ctx);
        assert!(charted.bytes >= charted.heap_bytes());
        crate::statespace::chart(&ctx, &mut charted).unwrap();
        assert!(charted.bytes >= charted.heap_bytes());
        let space = crate::statespace::finalize(&ctx, &mut charted);
        assert_eq!(space.approx_heap_bytes, charted.bytes);
        assert_eq!(charted.interned_states(), space.states);
        assert!(charted.edges.len() >= memo.edges.len());
    }

    /// Opens a fresh memo, interns `st` into it, and asks whether a
    /// complete schedule is reachable from there.
    fn fresh_completes_from(ctx: &SearchCtx<'_>, st: &MachState) -> bool {
        let mut fresh = QueryMemo::new(ctx);
        fresh.scratch.clone_from(st);
        let id = fresh.intern_scratch(st.key_fingerprint());
        fresh.try_complete_from(ctx, id, &mut Vec::new()).unwrap()
    }

    /// After the summary pass charts a memo to completion, the reach it
    /// decided for every state is what a completion search on a fresh
    /// memo finds, and every witness query on it returns the answer and
    /// the schedule a fresh memo returns, interning nothing new.
    fn assert_summary_memo_answers_like_a_fresh_one(
        label: &str,
        exec: &eo_model::ProgramExecution,
    ) {
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let ctx = SearchCtx::new(exec, mode);
            let mut charted = QueryMemo::new(&ctx);
            crate::statespace::chart(&ctx, &mut charted).unwrap();
            let space = crate::statespace::finalize(&ctx, &mut charted);
            let mut st = ctx.initial_state();
            for i in 0..space.states {
                let id = StateId::new(i);
                charted.table.load(id, &mut st);
                let at = format!("{label} {mode:?}: state {i}");
                assert_eq!(
                    charted.completable(&ctx, id),
                    fresh_completes_from(&ctx, &st),
                    "{at}"
                );
                assert!(
                    charted.slots[i].reach != Reach::Unknown || ctx.is_complete(&st),
                    "{at}: reach left undecided"
                );
            }
            let n = exec.n_events();
            for a in 0..n {
                for b in (0..n).filter(|&b| b != a) {
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    let at = format!("{label} {mode:?}: ({a},{b})");
                    assert_eq!(
                        charted.try_witness_before(&ctx, ea, eb).unwrap(),
                        QueryMemo::new(&ctx)
                            .try_witness_before(&ctx, ea, eb)
                            .unwrap(),
                        "{at}: witness_before"
                    );
                    assert_eq!(
                        charted.try_witness_overlap(&ctx, ea, eb).unwrap(),
                        QueryMemo::new(&ctx)
                            .try_witness_overlap(&ctx, ea, eb)
                            .unwrap(),
                        "{at}: witness_overlap"
                    );
                }
            }
            assert_eq!(charted.interned_states(), space.states, "{label} {mode:?}");
        }
    }

    #[test]
    fn summary_memo_answers_like_a_fresh_one_on_fixtures() {
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
            assert_summary_memo_answers_like_a_fresh_one(label, &trace.to_execution().unwrap());
        }
    }

    #[test]
    fn summary_memo_answers_like_a_fresh_one_on_pitfall_4_to_7() {
        for decoys in 4..=7 {
            let exec = crate::enumerate::tests::pitfall_exec(decoys);
            assert_summary_memo_answers_like_a_fresh_one(&format!("pitfall-{decoys}"), &exec);
        }
    }

    /// The 4×4 semaphore and event programs of the differential suite,
    /// seeds 0–3.
    #[test]
    fn summary_memo_answers_like_a_fresh_one_on_4x4_programs() {
        use eo_lang::generator::{generate_trace, WorkloadSpec};
        for events in [false, true] {
            for seed in 0..4 {
                let mut spec = if events {
                    WorkloadSpec::small_events(seed)
                } else {
                    WorkloadSpec::small_semaphore(seed)
                };
                spec.processes = 4;
                spec.events_per_process = 4;
                let exec = generate_trace(&spec, 100).to_execution().unwrap();
                let label = format!("4x4 events={events} seed {seed}");
                assert_summary_memo_answers_like_a_fresh_one(&label, &exec);
            }
        }
    }

    #[test]
    fn aborted_walks_mark_nothing_live() {
        // A walk the budget stops proves nothing about the states on its
        // stack: none may come out marked live.
        let (trace, _ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        for cap in 1..exec.n_events() {
            let budget = Budget::unlimited().with_max_states(cap);
            let mut memo = QueryMemo::with_budget(&ctx, budget);
            let root = memo.root;
            assert!(memo.try_complete_from(&ctx, root, &mut Vec::new()).is_err());
            assert!(
                memo.slots.iter().all(|s| s.reach != Reach::Live),
                "cap {cap}"
            );
        }
        let mut memo = QueryMemo::new(&ctx);
        let root = memo.root;
        let mut path = Vec::new();
        assert!(memo.try_complete_from(&ctx, root, &mut path).unwrap());
        let live = memo.slots.iter().filter(|s| s.reach == Reach::Live).count();
        assert_eq!(
            live,
            path.len(),
            "every state on the path but the complete one"
        );
    }

    #[test]
    fn clear_deadlock_paths_do_not_fool_witness_search() {
        let (trace, ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = ctx_of(&exec);
        let post1 = ids[0];
        let wait1 = ids[1];
        // Running the wait before its post is impossible in a *complete*
        // execution.
        assert!(must_happen_before(&ctx, post1, wait1));
    }
}
