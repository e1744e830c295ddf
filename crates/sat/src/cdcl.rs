//! A CDCL satisfiability solver with incremental solving under
//! assumptions.
//!
//! This is the production solver behind the symbolic ordering backend
//! (ROADMAP item 1): two-watched-literal propagation with blocking
//! literals, 1-UIP conflict analysis with clause learning, activity-based
//! (VSIDS-style) branching with exponential decay, phase saving, Luby
//! restarts, and learnt-clause database reduction. Every clause's literals
//! live in one flat arena, compacted once deleted learnt clauses leave
//! more than half of it unused, and branching pops an order heap that
//! picks exactly what a scan over every variable would. The piece the serve
//! layer leans on is [`Solver::solve_assuming`]: assumptions are enqueued
//! as pseudo-decision levels below the search proper, so every clause
//! *learnt* during a call is derived by resolution from input clauses
//! only and therefore remains a sound consequence of the formula when the
//! next call arrives with different assumptions. One encoded formula plus one learned-clause
//! database can thus serve an entire batch of ordering queries.
//!
//! When a `solve_assuming` call returns [`SolveOutcome::Unsat`], the
//! subset of assumptions that were actually used in the refutation is
//! available from [`Solver::unsat_core`] (MiniSat's `analyzeFinal`), so a
//! caller can tell *which* ordering hypothesis failed.
//!
//! The cooperative stop callback is consulted both at decision points and
//! inside the unit-propagation loop, so a long propagation cascade cannot
//! overshoot a caller's deadline unboundedly (the fix pinned by
//! `stop_fires_inside_propagation_cascade`).

use crate::formula::{Formula, Lit, Var};
use crate::solver::SolveOutcome;

/// Index into the clause headers.
type ClauseRef = usize;

/// A clause: its literals are `arena[start .. start + len]`. Deleted
/// learnt clauses leave a tombstone until the next compaction, so
/// `ClauseRef`s stored as reasons and watches stay valid in between.
#[derive(Clone, Copy)]
struct ClauseData {
    start: u32,
    len: u32,
    learnt: bool,
    deleted: bool,
    activity: f64,
}

impl ClauseData {
    /// The clause's span in the arena.
    #[inline]
    fn span(&self) -> std::ops::Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// One watch-list entry: a clause watching the list's literal, plus a
/// *blocker* — another literal of the clause. While the blocker is true
/// the clause is satisfied, and propagation skips it without touching
/// the clause's memory (MiniSat's blocking literals).
#[derive(Clone, Copy)]
struct Watcher {
    cref: ClauseRef,
    blocker: Lit,
}

/// Encodes a literal as a watch-list index: `2 * var + (negative ? 1 : 0)`.
fn code(l: Lit) -> usize {
    2 * l.var.index() + usize::from(!l.positive)
}

/// The `x`-th term of the Luby restart sequence (1, 1, 2, 1, 1, 2, 4, …),
/// 0-indexed.
fn luby(mut x: u64) -> u64 {
    let mut size = 1u64;
    let mut seq = 0u32;
    while size < x + 1 {
        seq += 1;
        size = 2 * size + 1;
    }
    while size - 1 != x {
        size = (size - 1) / 2;
        seq -= 1;
        x %= size;
    }
    1u64 << seq
}

/// Restart interval unit: the Luby term is multiplied by this many
/// conflicts.
const RESTART_BASE: u64 = 128;
/// Variable-activity decay per conflict (MiniSat's 0.95).
const VAR_DECAY: f64 = 0.95;
/// Clause-activity decay per conflict.
const CLAUSE_DECAY: f64 = 0.999;
/// How often the stop callback is consulted inside the propagation loop.
/// Low enough that even a level-0 unit cascade of a few dozen literals
/// hits it; cheap enough to be noise at scale.
const STOP_CHECK_INTERVAL: u64 = 16;

/// The order-heap position of a variable that is not in the heap.
const NOT_IN_HEAP: u32 = u32::MAX;

/// The branching candidates: a binary max-heap of variables by activity,
/// ties going to the lower index. Every unassigned variable is in it;
/// assigned ones leave lazily, when popped. Its top is therefore what a
/// scan over all unassigned variables for the highest activity (the
/// first one on a tie) would pick.
struct OrderHeap {
    heap: Vec<u32>,
    /// Each variable's position in `heap`, or [`NOT_IN_HEAP`].
    index: Vec<u32>,
}

impl OrderHeap {
    /// A heap of the variables `0..n_vars`, all at activity 0.
    fn new(n_vars: usize) -> Self {
        OrderHeap {
            heap: (0..n_vars as u32).collect(),
            index: (0..n_vars as u32).collect(),
        }
    }

    /// Whether `a` ranks above `b`.
    #[inline]
    fn above(activity: &[f64], a: u32, b: u32) -> bool {
        let (x, y) = (activity[a as usize], activity[b as usize]);
        x > y || (x == y && a < b)
    }

    /// Registers a fresh variable (with the lowest activity possible, 0,
    /// and the highest index, so it sits at the bottom).
    fn push_var(&mut self) {
        let v = self.index.len() as u32;
        self.index.push(self.heap.len() as u32);
        self.heap.push(v);
    }

    fn insert(&mut self, v: usize, activity: &[f64]) {
        if self.index[v] == NOT_IN_HEAP {
            self.index[v] = self.heap.len() as u32;
            self.heap.push(v as u32);
            self.sift_up(self.heap.len() - 1, activity);
        }
    }

    /// Restores the order after `v`'s activity rose.
    fn raised(&mut self, v: usize, activity: &[f64]) {
        if self.index[v] != NOT_IN_HEAP {
            self.sift_up(self.index[v] as usize, activity);
        }
    }

    /// Removes and returns the top variable.
    fn pop(&mut self, activity: &[f64]) -> Option<usize> {
        let top = *self.heap.first()?;
        let last = self.heap.pop().expect("non-empty");
        self.index[top as usize] = NOT_IN_HEAP;
        if !self.heap.is_empty() {
            self.heap[0] = last;
            self.index[last as usize] = 0;
            self.sift_down(0, activity);
        }
        Some(top as usize)
    }

    /// Re-establishes the heap order from scratch (after a rescale, which
    /// may round distinct activities to equal ones).
    fn rebuild(&mut self, activity: &[f64]) {
        for i in (0..self.heap.len() / 2).rev() {
            self.sift_down(i, activity);
        }
    }

    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::above(activity, v, self.heap[parent]) {
                break;
            }
            self.heap[i] = self.heap[parent];
            self.index[self.heap[i] as usize] = i as u32;
            i = parent;
        }
        self.heap[i] = v;
        self.index[v as usize] = i as u32;
    }

    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        loop {
            let left = 2 * i + 1;
            if left >= self.heap.len() {
                break;
            }
            let right = left + 1;
            let child = if right < self.heap.len()
                && Self::above(activity, self.heap[right], self.heap[left])
            {
                right
            } else {
                left
            };
            if !Self::above(activity, self.heap[child], v) {
                break;
            }
            self.heap[i] = self.heap[child];
            self.index[self.heap[i] as usize] = i as u32;
            i = child;
        }
        self.heap[i] = v;
        self.index[v as usize] = i as u32;
    }
}

/// A conflict-driven clause-learning (CDCL) satisfiability solver.
///
/// Drop-in replacement for the old DPLL solver's API ([`Solver::new`],
/// [`Solver::solve`], [`Solver::solve_with_stop`], the public work
/// counters) plus the incremental interface the symbolic backend needs:
/// [`Solver::add_clause`] to grow the formula between calls and
/// [`Solver::solve_assuming`] to solve under temporary assumptions while
/// keeping every learnt clause for the next call. The old DPLL survives as
/// [`crate::solver::ReferenceSolver`], the oracle this solver is
/// differentially tested against.
pub struct Solver {
    /// Number of variables (watch lists etc. are sized to this).
    n_vars: usize,
    /// Clause headers: problem clauses first, learnt clauses appended.
    clauses: Vec<ClauseData>,
    /// Every clause's literals, back to back.
    arena: Vec<Lit>,
    /// Arena literals that belong to deleted clauses.
    wasted: usize,
    /// The buffer `add_clause` simplifies into.
    scratch: Vec<Lit>,
    /// For each literal code, the clauses currently watching that
    /// literal, each with its blocker.
    watches: Vec<Vec<Watcher>>,
    /// Per-variable assignment (`None` = unassigned).
    assign: Vec<Option<bool>>,
    /// Decision level at which each variable was assigned.
    level: Vec<u32>,
    /// The clause that propagated each variable (`None` for decisions).
    reason: Vec<Option<ClauseRef>>,
    /// Assignment order; `trail_lim[i]` is where decision level `i + 1`
    /// begins.
    trail: Vec<Lit>,
    trail_lim: Vec<usize>,
    /// Next trail position to propagate from.
    qhead: usize,
    /// VSIDS activity per variable and the current bump amount.
    activity: Vec<f64>,
    var_inc: f64,
    /// The branching candidates by activity.
    order: OrderHeap,
    /// Current clause-activity bump amount.
    clause_inc: f64,
    /// Saved phase per variable (last assigned polarity; default `false`).
    phase: Vec<bool>,
    /// Scratch marker used by conflict analysis.
    seen: Vec<bool>,
    /// `false` once the formula is unsatisfiable independent of
    /// assumptions (empty clause derived at level 0).
    ok: bool,
    /// Learnt clauses allowed before the database is reduced.
    max_learnts: usize,
    /// Live (non-deleted) learnt clause count.
    n_learnts: usize,
    /// Problem clauses kept by `add_clause`: stored clauses plus the unit
    /// facts it fixed at level 0.
    n_problem: usize,
    /// Assumptions that refuted the last Unsat `solve_assuming` call
    /// (empty when the formula is unsatisfiable on its own).
    core: Vec<Lit>,
    /// Decisions + propagations: the work measure reported to stop
    /// callbacks and the benches (same role as the DPLL node count).
    pub nodes_visited: u64,
    /// Branch points (assumption pseudo-decisions excluded).
    pub decisions: u64,
    /// Non-chronological backjumps taken after conflicts.
    pub backtracks: u64,
    /// Conflicts analyzed.
    pub conflicts: u64,
    /// Literals propagated by the watched-literal loop.
    pub propagations: u64,
    /// Luby restarts performed.
    pub restarts: u64,
    /// `solve_assuming` calls (every `solve*` call is one).
    pub solves: u64,
    /// Branch picks checked against a full scan (tests only).
    #[cfg(test)]
    picks_checked: u64,
}

impl Solver {
    /// Creates a solver over `formula`'s variables and clauses.
    ///
    /// Returns a working solver even if the formula is trivially
    /// unsatisfiable — the contradiction is discovered by `solve`.
    pub fn new(formula: Formula) -> Self {
        let mut s = Solver::with_vars(formula.n_vars);
        for clause in &formula.clauses {
            s.add_clause(&clause.0);
        }
        s
    }

    /// Creates an empty incremental solver over `n_vars` variables; grow
    /// with [`Solver::add_var`] and [`Solver::add_clause`].
    pub fn with_vars(n_vars: usize) -> Self {
        Solver {
            n_vars,
            clauses: Vec::new(),
            arena: Vec::new(),
            wasted: 0,
            scratch: Vec::new(),
            watches: vec![Vec::new(); 2 * n_vars],
            assign: vec![None; n_vars],
            level: vec![0; n_vars],
            reason: vec![None; n_vars],
            trail: Vec::new(),
            trail_lim: Vec::new(),
            qhead: 0,
            activity: vec![0.0; n_vars],
            var_inc: 1.0,
            order: OrderHeap::new(n_vars),
            clause_inc: 1.0,
            phase: vec![false; n_vars],
            seen: vec![false; n_vars],
            ok: true,
            max_learnts: 0,
            n_learnts: 0,
            n_problem: 0,
            core: Vec::new(),
            nodes_visited: 0,
            decisions: 0,
            backtracks: 0,
            conflicts: 0,
            propagations: 0,
            restarts: 0,
            solves: 0,
            #[cfg(test)]
            picks_checked: 0,
        }
    }

    /// Adds a fresh variable and returns it.
    pub fn add_var(&mut self) -> Var {
        let v = Var(self.n_vars as u32);
        self.n_vars += 1;
        self.watches.push(Vec::new());
        self.watches.push(Vec::new());
        self.assign.push(None);
        self.level.push(0);
        self.reason.push(None);
        self.activity.push(0.0);
        self.order.push_var();
        self.phase.push(false);
        self.seen.push(false);
        v
    }

    /// Number of variables currently known to the solver.
    pub fn num_vars(&self) -> usize {
        self.n_vars
    }

    /// Live learnt clauses currently in the database.
    pub fn num_learnts(&self) -> usize {
        self.n_learnts
    }

    /// Problem clauses [`Solver::add_clause`] has kept: every stored
    /// clause plus every unit it fixed at level 0. Clauses it dropped as
    /// satisfied, tautological or duplicate units are not counted.
    pub fn num_clauses(&self) -> usize {
        self.n_problem
    }

    /// Adds a clause to the formula (permanently — it participates in all
    /// later `solve*` calls). Must be called between solves, not during
    /// one. Returns `false` if the formula is now unsatisfiable regardless
    /// of assumptions.
    ///
    /// # Panics
    /// Panics on an empty clause or a literal over an unknown variable.
    pub fn add_clause(&mut self, lits: &[Lit]) -> bool {
        assert!(
            self.trail_lim.is_empty(),
            "add_clause is only valid between solves (decision level 0)"
        );
        assert!(!lits.is_empty(), "clauses must be non-empty");
        if !self.ok {
            return false;
        }
        for &l in lits {
            assert!(l.var.index() < self.n_vars, "literal over unknown variable");
        }
        // Simplify against the level-0 assignment into the scratch
        // buffer: skip satisfied clauses and tautologies, drop false
        // literals, deduplicate.
        if lits.iter().any(|&l| self.value(l) == Some(true)) {
            return true;
        }
        let mut simplified = std::mem::take(&mut self.scratch);
        simplified.clear();
        let mut tautology = false;
        for &l in lits {
            if self.value(l).is_some() {
                continue; // false: a true literal returned above
            }
            if simplified.contains(&l.negated()) {
                tautology = true;
                break;
            }
            if !simplified.contains(&l) {
                simplified.push(l);
            }
        }
        let ok = match simplified.len() {
            _ if tautology => true,
            0 => {
                self.ok = false;
                false
            }
            1 => {
                // Enqueue but don't propagate: consequences are derived by
                // the next solve, which keeps even a level-0 unit cascade
                // under the stop callback's control.
                self.unchecked_enqueue(simplified[0], None);
                self.n_problem += 1;
                true
            }
            _ => {
                self.attach_clause(&simplified, false);
                self.n_problem += 1;
                true
            }
        };
        self.scratch = simplified;
        ok
    }

    /// Decides satisfiability; returns a model if satisfiable.
    pub fn solve(&mut self) -> Option<Vec<bool>> {
        match self.solve_assuming(&[], &mut |_| false) {
            SolveOutcome::Sat(model) => Some(model),
            SolveOutcome::Unsat => None,
            SolveOutcome::Interrupted => unreachable!("the never-stop callback fired"),
        }
    }

    /// Decides satisfiability with a cooperative stop check: `stop`
    /// receives the running work count (decisions + propagations) and a
    /// `true` return abandons the search at the next opportunity. The
    /// check runs inside the propagation loop as well as at decisions, so
    /// even a single giant unit cascade honors the deadline.
    pub fn solve_with_stop(&mut self, stop: &mut dyn FnMut(u64) -> bool) -> SolveOutcome {
        self.solve_assuming(&[], stop)
    }

    /// Convenience: decide satisfiability of a formula.
    pub fn satisfiable(formula: &Formula) -> bool {
        Solver::new(formula.clone()).solve().is_some()
    }

    /// Decides satisfiability under temporary `assumptions` (literals
    /// forced true for this call only). Learnt clauses are kept and remain
    /// sound for later calls with different assumptions, because analysis
    /// only ever resolves reason clauses — never the assumptions
    /// themselves. On [`SolveOutcome::Unsat`], [`Solver::unsat_core`]
    /// names the subset of assumptions the refutation used.
    pub fn solve_assuming(
        &mut self,
        assumptions: &[Lit],
        stop: &mut dyn FnMut(u64) -> bool,
    ) -> SolveOutcome {
        self.core.clear();
        self.solves += 1;
        if !self.ok {
            return SolveOutcome::Unsat;
        }
        // Consult the stop callback once up front so an already-exhausted
        // deadline interrupts even a trivially small solve, matching the
        // reference solver's first-node check.
        if stop(self.nodes_visited) {
            return SolveOutcome::Interrupted;
        }
        if self.max_learnts == 0 {
            self.max_learnts = (self.clauses.len() / 3).max(100);
        }
        let mut restart_budget = RESTART_BASE * luby(self.restarts);
        let mut conflicts_here: u64 = 0;

        loop {
            let confl = match self.propagate(stop) {
                Ok(c) => c,
                Err(Interrupted) => {
                    self.cancel_until(0);
                    return SolveOutcome::Interrupted;
                }
            };
            if let Some(confl) = confl {
                self.conflicts += 1;
                conflicts_here += 1;
                if self.decision_level() == 0 {
                    // Contradiction below every assumption: unsatisfiable
                    // outright, so the core is empty.
                    self.ok = false;
                    self.cancel_until(0);
                    return SolveOutcome::Unsat;
                }
                let (learnt, bt_level) = self.analyze(confl);
                self.cancel_until(bt_level);
                self.backtracks += 1;
                self.record_learnt(learnt);
                self.decay_activities();
            } else {
                if conflicts_here >= restart_budget {
                    self.restarts += 1;
                    restart_budget = RESTART_BASE * luby(self.restarts);
                    conflicts_here = 0;
                    self.cancel_until(0);
                    continue;
                }
                if self.n_learnts >= self.max_learnts {
                    self.reduce_db();
                }
                // Re-establish assumptions (one pseudo-decision level
                // each), then take a real decision.
                let mut next: Option<Lit> = None;
                while self.decision_level() < assumptions.len() as u32 {
                    let p = assumptions[self.decision_level() as usize];
                    match self.value(p) {
                        Some(true) => {
                            // Already implied: dummy level keeps the
                            // level ↔ assumption-index alignment.
                            self.trail_lim.push(self.trail.len());
                        }
                        Some(false) => {
                            self.core = self.analyze_final(p);
                            self.cancel_until(0);
                            return SolveOutcome::Unsat;
                        }
                        None => {
                            next = Some(p);
                            break;
                        }
                    }
                }
                let next = match next {
                    Some(p) => p,
                    None => match self.pick_branch() {
                        Some(p) => {
                            self.decisions += 1;
                            self.nodes_visited += 1;
                            if stop(self.nodes_visited) {
                                // The pick left the heap unassigned.
                                self.order.insert(p.var.index(), &self.activity);
                                self.cancel_until(0);
                                return SolveOutcome::Interrupted;
                            }
                            p
                        }
                        None => {
                            // All variables assigned: model found.
                            let model = self.assign.iter().map(|v| v.unwrap_or(false)).collect();
                            self.cancel_until(0);
                            return SolveOutcome::Sat(model);
                        }
                    },
                };
                self.trail_lim.push(self.trail.len());
                self.unchecked_enqueue(next, None);
            }
        }
    }

    /// After an Unsat [`Solver::solve_assuming`], the subset of that
    /// call's assumptions used by the refutation (empty when the formula
    /// is unsatisfiable with no assumptions at all). Each returned literal
    /// is one of the assumption literals as passed.
    pub fn unsat_core(&self) -> &[Lit] {
        &self.core
    }

    /// Current value of a literal under the partial assignment.
    fn value(&self, l: Lit) -> Option<bool> {
        self.assign[l.var.index()].map(|v| l.satisfied_by(v))
    }

    fn decision_level(&self) -> u32 {
        self.trail_lim.len() as u32
    }

    /// The literals of clause `cref`.
    #[inline]
    fn lits(&self, cref: ClauseRef) -> &[Lit] {
        &self.arena[self.clauses[cref].span()]
    }

    /// Copies `lits` into the arena and hooks up its first two literals as
    /// watches. Callers guarantee `lits.len() >= 2` and that watching the
    /// first two literals is valid (for learnt clauses: lits[0] is the
    /// asserting literal, lits[1] has the backjump level).
    fn attach_clause(&mut self, lits: &[Lit], learnt: bool) -> ClauseRef {
        debug_assert!(lits.len() >= 2);
        let cref = self.clauses.len();
        let start = u32::try_from(self.arena.len()).expect("the clause arena fits u32 offsets");
        self.watches[code(lits[0])].push(Watcher {
            cref,
            blocker: lits[1],
        });
        self.watches[code(lits[1])].push(Watcher {
            cref,
            blocker: lits[0],
        });
        if learnt {
            self.n_learnts += 1;
        }
        self.arena.extend_from_slice(lits);
        self.clauses.push(ClauseData {
            start,
            len: lits.len() as u32,
            learnt,
            deleted: false,
            activity: 0.0,
        });
        cref
    }

    /// Assigns `p` true at the current decision level with an optional
    /// reason clause, and queues it for propagation.
    fn unchecked_enqueue(&mut self, p: Lit, reason: Option<ClauseRef>) {
        let v = p.var.index();
        debug_assert!(self.assign[v].is_none());
        self.assign[v] = Some(p.positive);
        self.level[v] = self.decision_level();
        self.reason[v] = reason;
        self.trail.push(p);
    }

    /// Unassigns everything above decision `level`, saving phases and
    /// returning each variable to the order heap.
    fn cancel_until(&mut self, level: u32) {
        if self.decision_level() <= level {
            return;
        }
        let keep = self.trail_lim[level as usize];
        for i in (keep..self.trail.len()).rev() {
            let v = self.trail[i].var.index();
            self.phase[v] = self.assign[v].expect("on trail");
            self.assign[v] = None;
            self.reason[v] = None;
            self.order.insert(v, &self.activity);
        }
        self.trail.truncate(keep);
        self.trail_lim.truncate(level as usize);
        self.qhead = self.trail.len();
    }

    /// Two-watched-literal unit propagation to fixpoint. Returns a
    /// conflicting clause, or `None` at fixpoint. The stop callback is
    /// consulted every [`STOP_CHECK_INTERVAL`] propagated literals so a
    /// long cascade stays interruptible.
    fn propagate(
        &mut self,
        stop: &mut dyn FnMut(u64) -> bool,
    ) -> Result<Option<ClauseRef>, Interrupted> {
        while self.qhead < self.trail.len() {
            let p = self.trail[self.qhead];
            self.qhead += 1;
            self.propagations += 1;
            self.nodes_visited += 1;
            if self.propagations % STOP_CHECK_INTERVAL == 0 && stop(self.nodes_visited) {
                return Err(Interrupted);
            }
            // Clauses watching ¬p just lost that watch.
            let false_lit = p.negated();
            let widx = code(false_lit);
            let mut ws = std::mem::take(&mut self.watches[widx]);
            let mut i = 0;
            let mut conflict: Option<ClauseRef> = None;
            'clauses: while i < ws.len() {
                let Watcher { cref, blocker } = ws[i];
                if self.value(blocker) == Some(true) {
                    i += 1;
                    continue;
                }
                let clause = self.clauses[cref];
                if clause.deleted {
                    ws.swap_remove(i);
                    continue;
                }
                let lits = &mut self.arena[clause.span()];
                // Normalize: the false watch sits at position 1.
                if lits[0] == false_lit {
                    lits.swap(0, 1);
                }
                debug_assert_eq!(lits[1], false_lit);
                let first = lits[0];
                if self.assign[first.var.index()].map(|v| first.satisfied_by(v)) == Some(true) {
                    // Satisfied through the other watch: block on it next time.
                    ws[i].blocker = first;
                    i += 1;
                    continue;
                }
                // Look for a non-false literal to watch instead.
                for k in 2..lits.len() {
                    let l = lits[k];
                    if self.assign[l.var.index()].map(|v| l.satisfied_by(v)) != Some(false) {
                        lits.swap(1, k);
                        self.watches[code(l)].push(Watcher {
                            cref,
                            blocker: first,
                        });
                        ws.swap_remove(i);
                        continue 'clauses;
                    }
                }
                // No replacement: clause is unit or conflicting.
                if self.assign[first.var.index()].map(|v| first.satisfied_by(v)) == Some(false) {
                    conflict = Some(cref);
                    self.qhead = self.trail.len();
                    break;
                }
                self.unchecked_enqueue(first, Some(cref));
                i += 1;
            }
            self.watches[widx] = ws;
            if conflict.is_some() {
                return Ok(conflict);
            }
        }
        Ok(None)
    }

    /// 1-UIP conflict analysis. Returns the learnt clause (asserting
    /// literal first, a literal of the backjump level second when the
    /// clause has ≥ 2 literals) and the level to backjump to.
    fn analyze(&mut self, confl: ClauseRef) -> (Vec<Lit>, u32) {
        let current = self.decision_level();
        let mut learnt: Vec<Lit> = vec![Lit::pos(Var(0))]; // slot 0 = asserting lit
        let mut path_count: u32 = 0;
        let mut p: Option<Lit> = None;
        let mut index = self.trail.len();
        let mut confl = Some(confl);

        loop {
            let cref = confl.expect("resolved literal must have a reason");
            self.bump_clause(cref);
            // For reason clauses lits[0] is the propagated literal itself —
            // skip it; for the seed conflict every literal participates.
            let span = self.clauses[cref].span();
            let skip = usize::from(p.is_some());
            for k in span.start + skip..span.end {
                let q = self.arena[k];
                let v = q.var.index();
                if !self.seen[v] && self.level[v] > 0 {
                    self.seen[v] = true;
                    self.bump_var(v);
                    if self.level[v] >= current {
                        path_count += 1;
                    } else {
                        learnt.push(q);
                    }
                }
            }
            // Walk the trail backwards to the next marked literal.
            loop {
                index -= 1;
                if self.seen[self.trail[index].var.index()] {
                    break;
                }
            }
            let pl = self.trail[index];
            confl = self.reason[pl.var.index()];
            self.seen[pl.var.index()] = false;
            path_count -= 1;
            p = Some(pl);
            if path_count == 0 {
                break;
            }
        }
        learnt[0] = p.expect("loop ran").negated();

        // Backjump level: highest level among the non-asserting literals.
        let bt_level = if learnt.len() == 1 {
            0
        } else {
            let mut max_i = 1;
            for k in 2..learnt.len() {
                if self.level[learnt[k].var.index()] > self.level[learnt[max_i].var.index()] {
                    max_i = k;
                }
            }
            learnt.swap(1, max_i);
            self.level[learnt[1].var.index()]
        };
        for &l in &learnt[1..] {
            self.seen[l.var.index()] = false;
        }
        (learnt, bt_level)
    }

    /// Installs a freshly learnt clause and enqueues its asserting
    /// literal. Must run after `cancel_until(bt_level)`.
    fn record_learnt(&mut self, learnt: Vec<Lit>) {
        let asserting = learnt[0];
        if learnt.len() == 1 {
            self.unchecked_enqueue(asserting, None);
        } else {
            let cref = self.attach_clause(&learnt, true);
            self.bump_clause(cref);
            self.unchecked_enqueue(asserting, Some(cref));
        }
    }

    /// MiniSat's `analyzeFinal`: given an assumption `p` found false,
    /// walks the implication graph of `¬p` down to the decisions (which
    /// are all assumptions, since the conflict arose while re-asserting
    /// them) and returns the responsible assumptions plus `p` itself.
    fn analyze_final(&mut self, p: Lit) -> Vec<Lit> {
        let mut out = vec![p];
        if self.decision_level() == 0 {
            return out;
        }
        self.seen[p.var.index()] = true;
        let bottom = self.trail_lim[0];
        for i in (bottom..self.trail.len()).rev() {
            let x = self.trail[i];
            let v = x.var.index();
            if !self.seen[v] {
                continue;
            }
            match self.reason[v] {
                None => {
                    debug_assert!(self.level[v] > 0);
                    // A decision below the search proper is an assumption,
                    // enqueued as itself.
                    out.push(x);
                }
                Some(cref) => {
                    for k in self.clauses[cref].span().skip(1) {
                        let q = self.arena[k];
                        if self.level[q.var.index()] > 0 {
                            self.seen[q.var.index()] = true;
                        }
                    }
                }
            }
            self.seen[v] = false;
        }
        self.seen[p.var.index()] = false;
        out
    }

    /// The unassigned variable with the highest activity, the lowest
    /// index on a tie, with its saved phase: the top of the order heap
    /// once the assigned variables above it are dropped.
    fn pick_branch(&mut self) -> Option<Lit> {
        let v = loop {
            let v = self.order.pop(&self.activity)?;
            if self.assign[v].is_none() {
                break v;
            }
        };
        #[cfg(test)]
        {
            assert_eq!(
                Some(v),
                self.scan_pick(),
                "the heap picks what a scan picks"
            );
            self.picks_checked += 1;
        }
        Some(if self.phase[v] {
            Lit::pos(Var(v as u32))
        } else {
            Lit::neg(Var(v as u32))
        })
    }

    /// The pick of a linear scan over every variable, which the heap
    /// replaces (the test oracle).
    #[cfg(test)]
    fn scan_pick(&self) -> Option<usize> {
        let mut best: Option<usize> = None;
        for v in 0..self.n_vars {
            if self.assign[v].is_none() && best.is_none_or(|b| self.activity[v] > self.activity[b])
            {
                best = Some(v);
            }
        }
        best
    }

    fn bump_var(&mut self, v: usize) {
        self.activity[v] += self.var_inc;
        if self.activity[v] > 1e100 {
            for a in &mut self.activity {
                *a *= 1e-100;
            }
            self.var_inc *= 1e-100;
            self.order.rebuild(&self.activity);
        } else {
            self.order.raised(v, &self.activity);
        }
    }

    fn bump_clause(&mut self, cref: ClauseRef) {
        let c = &mut self.clauses[cref];
        if !c.learnt {
            return;
        }
        c.activity += self.clause_inc;
        if c.activity > 1e20 {
            for cl in &mut self.clauses {
                cl.activity *= 1e-20;
            }
            self.clause_inc *= 1e-20;
        }
    }

    fn decay_activities(&mut self) {
        self.var_inc /= VAR_DECAY;
        self.clause_inc /= CLAUSE_DECAY;
    }

    /// Halves the learnt-clause database: the lower-activity half is
    /// tombstoned and detached, except binary clauses and clauses locked
    /// as the reason of a current assignment. The allowance then grows so
    /// reductions stay amortized, and the arena is compacted once more
    /// than half of it belongs to deleted clauses.
    fn reduce_db(&mut self) {
        let mut learnt_refs: Vec<ClauseRef> = (0..self.clauses.len())
            .filter(|&c| {
                let cl = &self.clauses[c];
                cl.learnt && !cl.deleted && cl.len > 2
            })
            .collect();
        learnt_refs.sort_by(|&a, &b| {
            self.clauses[a]
                .activity
                .partial_cmp(&self.clauses[b].activity)
                .expect("activities are finite")
        });
        let target = learnt_refs.len() / 2;
        let mut removed = 0;
        for &cref in &learnt_refs {
            if removed >= target {
                break;
            }
            if self.is_locked(cref) {
                continue;
            }
            self.delete_clause(cref);
            removed += 1;
        }
        self.max_learnts = self.max_learnts + self.max_learnts / 10 + 1;
        if 2 * self.wasted > self.arena.len() {
            self.compact();
        }
    }

    /// Drops the deleted clauses from the headers and the arena, keeping
    /// the live ones in order, and remaps every watch and reason to the
    /// clauses' new indices. Deleted clauses are neither watched (their
    /// watches go when they are deleted) nor reasons (locked clauses are
    /// never deleted).
    fn compact(&mut self) {
        let mut remap: Vec<ClauseRef> = vec![ClauseRef::MAX; self.clauses.len()];
        let mut arena = Vec::with_capacity(self.arena.len() - self.wasted);
        let mut clauses = Vec::with_capacity(self.clauses.len());
        for (old, c) in self.clauses.iter().enumerate() {
            if c.deleted {
                continue;
            }
            remap[old] = clauses.len();
            let start = arena.len() as u32;
            arena.extend_from_slice(&self.arena[c.span()]);
            clauses.push(ClauseData { start, ..*c });
        }
        for w in self.watches.iter_mut().flatten() {
            w.cref = remap[w.cref];
        }
        for r in self.reason.iter_mut().flatten() {
            *r = remap[*r];
        }
        debug_assert!(self
            .watches
            .iter()
            .flatten()
            .all(|w| w.cref != ClauseRef::MAX));
        debug_assert!(self.reason.iter().flatten().all(|&r| r != ClauseRef::MAX));
        self.arena = arena;
        self.clauses = clauses;
        self.wasted = 0;
    }

    /// A clause is locked while it is the reason for a current assignment.
    fn is_locked(&self, cref: ClauseRef) -> bool {
        let first = self.lits(cref)[0];
        self.reason[first.var.index()] == Some(cref)
            && self.assign[first.var.index()].map(|v| first.satisfied_by(v)) == Some(true)
    }

    /// Tombstones a clause and eagerly removes its two watch entries; its
    /// literals stay in the arena, counted as wasted, until compaction.
    fn delete_clause(&mut self, cref: ClauseRef) {
        let (w0, w1) = {
            let lits = self.lits(cref);
            (code(lits[0]), code(lits[1]))
        };
        self.watches[w0].retain(|w| w.cref != cref);
        self.watches[w1].retain(|w| w.cref != cref);
        let c = &mut self.clauses[cref];
        c.deleted = true;
        self.wasted += c.len as usize;
        self.n_learnts -= 1;
    }
}

/// Private marker: the stop callback fired mid-search.
#[derive(Debug)]
struct Interrupted;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formula::Clause;
    use crate::solver::{brute_force_satisfiable, solve_reference};

    fn never(_: u64) -> bool {
        false
    }

    #[test]
    fn solves_trivially_sat() {
        let f = Formula::trivially_sat(5, 8);
        let model = Solver::new(f.clone()).solve().expect("satisfiable");
        assert!(f.satisfied_by(&model));
    }

    #[test]
    fn rejects_unsat_families() {
        assert!(Solver::new(Formula::unsat_tiny()).solve().is_none());
        assert!(Solver::new(Formula::unsat_eight()).solve().is_none());
    }

    #[test]
    fn unit_propagation_chains() {
        let f = Formula::new(
            3,
            vec![
                Clause(vec![Lit::pos(Var(0))]),
                Clause(vec![Lit::neg(Var(0)), Lit::pos(Var(1))]),
                Clause(vec![Lit::neg(Var(1)), Lit::pos(Var(2))]),
            ],
        );
        let model = Solver::new(f).solve().unwrap();
        assert_eq!(model, vec![true, true, true]);
    }

    #[test]
    fn contradictory_units_are_unsat() {
        let f = Formula::new(
            1,
            vec![
                Clause(vec![Lit::pos(Var(0))]),
                Clause(vec![Lit::neg(Var(0))]),
            ],
        );
        assert!(Solver::new(f).solve().is_none());
    }

    #[test]
    fn agrees_with_reference_dpll_near_threshold() {
        // Clause/variable ratio near the hard threshold (~4.26), where
        // both SAT and UNSAT instances occur.
        for seed in 0..120 {
            let f = Formula::random_3cnf(8, 34, seed);
            let cdcl = Solver::new(f.clone()).solve();
            let dpll = solve_reference(&f);
            assert_eq!(
                cdcl.is_some(),
                dpll.is_some(),
                "seed {seed}: {}",
                f.display()
            );
            if let Some(model) = cdcl {
                assert!(f.satisfied_by(&model), "seed {seed}");
            }
        }
    }

    #[test]
    fn agrees_with_brute_force() {
        for seed in 0..60 {
            let f = Formula::random_3cnf(5, 21, seed);
            let cdcl = Solver::new(f.clone()).solve().is_some();
            let brute = brute_force_satisfiable(&f).is_some();
            assert_eq!(cdcl, brute, "seed {seed}: {}", f.display());
        }
    }

    #[test]
    fn assumptions_flip_a_satisfiable_formula() {
        // (x0 ∨ x1): satisfiable alone, and under each single assumption,
        // but not under both negated.
        let f = Formula::new(2, vec![Clause(vec![Lit::pos(Var(0)), Lit::pos(Var(1))])]);
        let mut s = Solver::new(f);
        assert!(matches!(
            s.solve_assuming(&[], &mut never),
            SolveOutcome::Sat(_)
        ));
        let a = [Lit::neg(Var(0))];
        match s.solve_assuming(&a, &mut never) {
            SolveOutcome::Sat(m) => assert!(!m[0] && m[1]),
            o => panic!("expected Sat, got {o:?}"),
        }
        let both = [Lit::neg(Var(0)), Lit::neg(Var(1))];
        assert!(matches!(
            s.solve_assuming(&both, &mut never),
            SolveOutcome::Unsat
        ));
        // And the solver is not poisoned: the unconstrained call still
        // succeeds afterwards.
        assert!(matches!(
            s.solve_assuming(&[], &mut never),
            SolveOutcome::Sat(_)
        ));
    }

    #[test]
    fn unsat_core_names_the_guilty_assumptions() {
        // x0 ∧ x1 → x2 is forced; assuming ¬x2 alongside x3 (irrelevant)
        // must produce a core that omits x3.
        let f = Formula::new(
            4,
            vec![
                Clause(vec![Lit::pos(Var(0))]),
                Clause(vec![Lit::pos(Var(1))]),
                Clause(vec![Lit::neg(Var(0)), Lit::neg(Var(1)), Lit::pos(Var(2))]),
            ],
        );
        let mut s = Solver::new(f);
        let assumptions = [Lit::pos(Var(3)), Lit::neg(Var(2))];
        assert!(matches!(
            s.solve_assuming(&assumptions, &mut never),
            SolveOutcome::Unsat
        ));
        let core = s.unsat_core().to_vec();
        assert!(
            core.contains(&Lit::neg(Var(2))),
            "core {core:?} must contain ¬x2"
        );
        assert!(
            !core.contains(&Lit::pos(Var(3))),
            "core {core:?} must omit x3"
        );
        // Core literals are always a subset of the assumptions passed.
        assert!(core.iter().all(|l| assumptions.contains(l)));
    }

    #[test]
    fn unsat_core_is_empty_once_formula_unsat_is_known() {
        let mut s = Solver::new(Formula::unsat_tiny());
        assert!(s.solve().is_none());
        // The formula is refuted on its own; assumptions cannot be blamed.
        assert!(matches!(
            s.solve_assuming(&[Lit::pos(Var(0))], &mut never),
            SolveOutcome::Unsat
        ));
        assert!(s.unsat_core().is_empty());
    }

    #[test]
    fn learned_clauses_persist_across_assuming_calls() {
        // A formula hard enough to force learning; the second identical
        // call must reuse the learnt database (strictly fewer conflicts).
        let f = Formula::random_3cnf(12, 51, 7);
        let mut s = Solver::new(f);
        let a = [Lit::pos(Var(0))];
        let first = s.solve_assuming(&a, &mut never);
        let conflicts_first = s.conflicts;
        let second = s.solve_assuming(&a, &mut never);
        let conflicts_second = s.conflicts - conflicts_first;
        assert_eq!(
            matches!(first, SolveOutcome::Sat(_)),
            matches!(second, SolveOutcome::Sat(_))
        );
        assert!(
            conflicts_second <= conflicts_first,
            "second call must not re-learn everything: {conflicts_second} > {conflicts_first}"
        );
    }

    #[test]
    fn incremental_add_clause_narrows_models() {
        let mut s = Solver::with_vars(3);
        assert!(s.add_clause(&[Lit::pos(Var(0)), Lit::pos(Var(1))]));
        assert!(matches!(
            s.solve_assuming(&[], &mut never),
            SolveOutcome::Sat(_)
        ));
        assert!(s.add_clause(&[Lit::neg(Var(0))]));
        match s.solve_assuming(&[], &mut never) {
            SolveOutcome::Sat(m) => assert!(!m[0] && m[1]),
            o => panic!("expected Sat, got {o:?}"),
        }
        assert!(!s.add_clause(&[Lit::neg(Var(1))]) || s.solve().is_none());
        assert!(matches!(
            s.solve_assuming(&[], &mut never),
            SolveOutcome::Unsat
        ));
    }

    #[test]
    fn add_clause_keeps_only_what_level_0_leaves_open() {
        let mut s = Solver::with_vars(3);
        assert!(s.add_clause(&[Lit::pos(Var(0))]));
        // Satisfied by the unit: dropped.
        assert!(s.add_clause(&[Lit::pos(Var(0)), Lit::pos(Var(1))]));
        // A tautology: dropped.
        assert!(s.add_clause(&[Lit::pos(Var(1)), Lit::neg(Var(1))]));
        assert_eq!(s.num_clauses(), 1, "only the unit is kept so far");
        // Shortened by the unit to the binary (x1 ∨ x2): kept.
        assert!(s.add_clause(&[Lit::neg(Var(0)), Lit::pos(Var(1)), Lit::pos(Var(2))]));
        assert_eq!(s.num_clauses(), 2);
        match s.solve_assuming(&[Lit::neg(Var(1))], &mut never) {
            SolveOutcome::Sat(m) => assert!(m[0] && !m[1] && m[2]),
            o => panic!("expected Sat, got {o:?}"),
        }
    }

    #[test]
    fn stop_fires_inside_propagation_cascade() {
        // A pure implication chain: solving it never makes a single
        // decision, so the stop callback can only fire if the propagation
        // loop checks it (the bug this pins: the old solver checked only
        // at decision points).
        let n = 4 * STOP_CHECK_INTERVAL as usize;
        let mut clauses = vec![Clause(vec![Lit::pos(Var(0))])];
        for v in 0..n - 1 {
            clauses.push(Clause(vec![
                Lit::neg(Var(v as u32)),
                Lit::pos(Var(v as u32 + 1)),
            ]));
        }
        let f = Formula::new(n, clauses);
        let mut s = Solver::new(f);
        let mut calls = 0u64;
        let outcome = s.solve_with_stop(&mut |_| {
            calls += 1;
            true
        });
        assert_eq!(s.decisions, 0, "an implication chain needs no decisions");
        assert!(calls > 0, "stop must be consulted inside propagation");
        assert!(matches!(outcome, SolveOutcome::Interrupted));
    }

    #[test]
    fn interrupted_solver_recovers() {
        let f = Formula::random_3cnf(10, 42, 11);
        let mut s = Solver::new(f.clone());
        let _ = s.solve_with_stop(&mut |n| n > 8);
        // After an interrupt the solver must still answer correctly.
        let answer = s.solve();
        assert_eq!(answer.is_some(), solve_reference(&f).is_some());
    }

    #[test]
    fn db_reduction_does_not_change_answers() {
        // Enough conflicts to trigger at least one reduce_db pass.
        for seed in [3u64, 19, 42] {
            let f = Formula::random_3cnf(14, 59, seed);
            let mut s = Solver::new(f.clone());
            s.max_learnts = 4; // force aggressive reduction
            let cdcl = s.solve().is_some();
            assert_eq!(cdcl, solve_reference(&f).is_some(), "seed {seed}");
        }
    }

    #[test]
    fn the_order_heap_picks_what_a_scan_picks() {
        // `pick_branch` asserts, under test, that the heap's pick equals a
        // linear scan's; this drives it through restarts, reductions and
        // assumption calls and checks that every decision was compared.
        let mut decisions = 0;
        for seed in 0..40u64 {
            let f = Formula::random_3cnf(20, 85, seed);
            let mut s = Solver::new(f.clone());
            s.max_learnts = 8;
            let model = s.solve();
            assert_eq!(
                model.is_some(),
                solve_reference(&f).is_some(),
                "seed {seed}"
            );
            for v in 0..4 {
                let a = [Lit::neg(Var(v)), Lit::pos(Var(v + 5))];
                let _ = s.solve_assuming(&a, &mut never);
            }
            // An interrupted pick goes back to the heap.
            let _ = s.solve_with_stop(&mut |n| n > 20);
            let _ = s.solve();
            assert_eq!(s.picks_checked, s.decisions, "seed {seed}");
            decisions += s.decisions;
        }
        assert!(decisions > 500, "the check saw real branching: {decisions}");
    }

    /// Adds a pigeonhole instance (`holes + 1` pigeons, `holes` holes)
    /// over fresh variables, every clause guarded by a fresh selector, and
    /// returns the selector: assuming it is a hard refutation, and the
    /// formula stays satisfiable without it.
    fn add_guarded_pigeonhole(s: &mut Solver, holes: usize) -> Lit {
        let sel = Lit::pos(s.add_var());
        let p: Vec<Vec<Var>> = (0..=holes)
            .map(|_| (0..holes).map(|_| s.add_var()).collect())
            .collect();
        for row in &p {
            let mut somewhere: Vec<Lit> = row.iter().map(|&v| Lit::pos(v)).collect();
            somewhere.push(sel.negated());
            s.add_clause(&somewhere);
        }
        for h in 0..holes {
            for (i, first) in p.iter().enumerate() {
                for second in &p[i + 1..] {
                    s.add_clause(&[sel.negated(), Lit::neg(first[h]), Lit::neg(second[h])]);
                }
            }
        }
        sel
    }

    #[test]
    fn the_arena_stays_bounded_across_reductions() {
        // One solver refutes a fresh guarded pigeonhole instance per round
        // with a tiny learnt allowance, so reduce_db runs over and over.
        // After each round no more than half of the arena belongs to
        // deleted clauses, and the arena holds exactly the live clauses'
        // literals plus that waste.
        let mut s = Solver::with_vars(0);
        s.max_learnts = 4;
        let mut compactions = 0;
        for round in 0..25 {
            let sel = add_guarded_pigeonhole(&mut s, 5);
            let before = s.arena.len();
            assert!(matches!(
                s.solve_assuming(&[sel], &mut never),
                SolveOutcome::Unsat
            ));
            compactions += usize::from(s.arena.len() < before);
            assert!(2 * s.wasted <= s.arena.len(), "round {round}");
            let live: usize = s
                .clauses
                .iter()
                .filter(|c| !c.deleted)
                .map(|c| c.len as usize)
                .sum();
            assert_eq!(s.arena.len(), live + s.wasted, "round {round}");
            let tombstones = s.clauses.iter().filter(|c| c.deleted).count();
            assert!(tombstones <= s.clauses.len() - tombstones, "round {round}");
        }
        assert!(s.conflicts > 2_000, "enough conflicts to reduce many times");
        assert!(compactions > 0, "compaction ran");
        assert!(matches!(
            s.solve_assuming(&[], &mut never),
            SolveOutcome::Sat(_)
        ));
    }

    #[test]
    fn luby_sequence_prefix() {
        let prefix: Vec<u64> = (0..15).map(luby).collect();
        assert_eq!(prefix, vec![1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8]);
    }

    #[test]
    fn counters_move_and_relate() {
        let f = Formula::random_3cnf(10, 42, 5);
        let mut s = Solver::new(f);
        s.solve();
        assert!(s.nodes_visited > 0);
        assert!(s.propagations > 0);
        assert_eq!(s.nodes_visited, s.decisions + s.propagations);
        assert!(s.backtracks <= s.conflicts);
    }
}
