//! Sound whole-program may-happen-in-parallel (MHP) analysis.
//!
//! Netzer & Miller prove that deciding *guaranteed* ordering across all
//! executions of a program is co-NP-hard (Section 6), which is exactly the
//! invitation to compute a polynomial, sound, static over-approximation:
//! for every pair of static statements, a three-valued verdict
//! ([`Verdict`]) —
//!
//! * [`Verdict::NeverConcurrent`] — in **every** execution of the program,
//!   the two statements never execute concurrently (they are ordered,
//!   mutually exclusive, or never co-execute at all);
//! * [`Verdict::Unreachable`] — at least one of the two can never execute
//!   in **any** execution;
//! * [`Verdict::MayBeConcurrent`] — everything else (the sound default).
//!
//! The fixpoint extends the Callahan–Subhlok `prec`-set framework
//! (`eo_approx::cs`, paper Section 4) with two ingredients the guaranteed-
//! ordering baseline deliberately leaves out:
//!
//! * **a sound semaphore meet rule** — a `P(s)` on a semaphore with
//!   initial count 0 can only complete after *some* `V(s)` completed, so
//!   its `prec` set absorbs the **intersection** over all `V(s)`
//!   statements `v` of `{v} ∪ prec(v)`. Counting semaphores with a
//!   nonzero initial count contribute nothing (the `P` may fire off an
//!   initial token with no `V` at all) — that is where the analysis is
//!   deliberately conservative, mirroring how `Clear` disables the
//!   Post/Wait rule (a cleared flag may have been re-posted by anyone);
//! * **unreachability detection** — a statement on a `prec` self-cycle
//!   (it would have to complete before itself), a `Wait(v)` on a flag
//!   with no `Post(v)` anywhere and not initially set, or a `P(s)` with
//!   initial 0 and no `V(s)` anywhere can never execute; neither can any
//!   statement whose `prec` set contains such a statement.
//!
//! Soundness contract (enforced by the differential suites in
//! `tests/`): any statement pair the exact engine ever observes as
//! could-be-concurrent (CCW) in any explored trace is `MayBeConcurrent`
//! statically, and a `NeverConcurrent` pair never appears in an exact
//! race. The contract holds because every `prec` claim is an
//! all-executions guarantee and at the paper's event granularity
//! (atomic events) "a guaranteed before b" refutes operational overlap
//! outright — the same argument that licenses
//! `eo_race::pruned_exact_races`.
//!
//! Statements are numbered by `eo-lang`'s shared
//! [`StmtMap`] flattening, so the verdicts
//! interoperate with anchored interpreter runs
//! (`eo_lang::run_to_trace_anchored`), the `eo-lint` diagnostics, and —
//! through [`MhpAnalysis::event_orderings`] — event-level consumers like
//! `eo-serve`'s static prefilter tier.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eo_lang::stmt::StmtMap;
use eo_lang::{Program, StmtKind};
use eo_relations::{BitSet, Relation};

pub use eo_lang::stmt::StmtId;

/// The three-valued answer for one statement pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// In every execution of the program the two statements never execute
    /// concurrently. Holds in **all** executions — the sound claim.
    NeverConcurrent,
    /// The analysis cannot refute concurrency — the sound default.
    MayBeConcurrent,
    /// At least one of the two statements can never execute in any
    /// execution of the program.
    Unreachable,
}

impl Verdict {
    /// Stable machine-readable name (JSON output, metrics).
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::NeverConcurrent => "never-concurrent",
            Verdict::MayBeConcurrent => "may-be-concurrent",
            Verdict::Unreachable => "unreachable",
        }
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One flattened statement of the analyzed program.
#[derive(Clone, Debug)]
pub struct MhpStmt {
    /// The owning process definition.
    pub process: eo_lang::ProcRef,
    /// Mnemonic of the statement kind.
    pub kind: &'static str,
    /// The statement's label, if any.
    pub label: Option<String>,
    /// Human-readable location (process name, index, kind, label).
    pub location: String,
}

/// A statically detected possibly-racy shared-access pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StaticRace {
    /// The lower-numbered statement.
    pub first: StmtId,
    /// The higher-numbered statement.
    pub second: StmtId,
}

/// The result of the MHP fixpoint on one program.
pub struct MhpAnalysis {
    stmts: Vec<MhpStmt>,
    /// `guaranteed.contains(a, b)` ⇔ statement `a` completes before `b`
    /// in every execution in which `b` executes.
    guaranteed: Relation,
    /// Symmetric: `a` and `b` sit on opposite branches of a common
    /// conditional, so no single execution runs both.
    mutex: Relation,
    /// Statements that can never execute in any execution.
    unreachable: BitSet,
    /// Conflicting shared-access candidate pairs (first < second).
    candidates: Vec<StaticRace>,
    rounds: usize,
}

impl MhpAnalysis {
    /// Runs the dataflow fixpoint on `program`.
    ///
    /// Programs using the surface primitives (barriers, mutex/condvar
    /// monitors, bounded channels) are desugared to the semaphore core
    /// first and the fixpoint runs there; verdicts are mapped back to
    /// surface numbering through the provenance map (the private
    /// `analyze_surface` documents the mapping rules). Barrier
    /// awareness falls out of the existing semaphore meet rule: every
    /// handshake `P` in the lowering has exactly one `V` supplier, so the
    /// intersection degenerates to that supplier and the fixpoint derives
    /// the all-to-all pre-barrier → post-barrier guarantee with no
    /// barrier-specific transfer function.
    ///
    /// # Panics
    /// Panics if the program fails static validation.
    pub fn analyze(program: &Program) -> MhpAnalysis {
        eo_obs::span!("mhp.analyze");
        program
            .validate()
            .expect("analyze requires a valid program");
        if program.uses_surface_sync() {
            return Self::analyze_surface(program);
        }
        let map = StmtMap::build(program);
        let n = map.len();

        // Index the synchronization vocabulary: posts and clears per event
        // variable, V's per semaphore, fork sites per definition.
        let n_ev = program.event_vars.len();
        let mut posts: Vec<Vec<StmtId>> = vec![Vec::new(); n_ev];
        let mut has_clear = vec![false; n_ev];
        let initially_set: Vec<bool> = program.event_vars.iter().map(|v| v.initially_set).collect();
        let n_sem = program.semaphores.len();
        let mut vees: Vec<Vec<StmtId>> = vec![Vec::new(); n_sem];
        let sem_initial: Vec<u32> = program.semaphores.iter().map(|s| s.initial).collect();
        for id in map.ids() {
            match map.kind(id) {
                StmtKind::Post(v) => posts[v.index()].push(id),
                StmtKind::Clear(v) => has_clear[v.index()] = true,
                StmtKind::SemV(s) => vees[s.index()].push(id),
                _ => {}
            }
        }
        let mut fork_site: Vec<Option<StmtId>> = vec![None; program.processes.len()];
        for id in map.ids() {
            if let StmtKind::Fork(targets) = map.kind(id) {
                for t in targets {
                    fork_site[t.index()] = Some(id);
                }
            }
        }

        let env = FlowEnv {
            posts: &posts,
            has_clear: &has_clear,
            initially_set: &initially_set,
            vees: &vees,
            sem_initial: &sem_initial,
        };

        let mut prec: Vec<BitSet> = (0..n).map(|_| BitSet::new(n)).collect();
        let mut rounds = 0;
        loop {
            rounds += 1;
            let mut changed = false;
            for (pi, def) in program.processes.iter().enumerate() {
                let mut flow_in = BitSet::new(n);
                if !def.root {
                    if let Some(fork) = fork_site[pi] {
                        flow_in.union_with(&prec[fork.index()]);
                        flow_in.insert(fork.index());
                    }
                }
                let body = map.body(eo_lang::ProcRef(pi as u32));
                changed |= walk_block(&map, body, flow_in, &mut prec, &env).1;
            }
            if !changed {
                break;
            }
        }

        // Unreachability: base rules (prec self-cycle; a blocking statement
        // whose supplier vocabulary is empty), then propagate through prec —
        // "c completed before s in every execution where s executes" with c
        // never executing means s never executes either.
        let mut unreachable = BitSet::new(n);
        for id in map.ids() {
            let i = id.index();
            if prec[i].contains(i) {
                unreachable.insert(i);
                continue;
            }
            match map.kind(id) {
                StmtKind::Wait(v) if posts[v.index()].is_empty() && !initially_set[v.index()] => {
                    unreachable.insert(i);
                }
                StmtKind::SemP(s) if vees[s.index()].is_empty() && sem_initial[s.index()] == 0 => {
                    unreachable.insert(i);
                }
                _ => {}
            }
        }
        loop {
            let mut changed = false;
            for (i, preds) in prec.iter().enumerate() {
                if !unreachable.contains(i) && preds.intersects(&unreachable) {
                    changed |= unreachable.insert(i);
                }
            }
            if !changed {
                break;
            }
        }

        let mut guaranteed = Relation::new(n);
        for (b, preds) in prec.iter().enumerate() {
            for a in preds.iter() {
                guaranteed.insert(a, b);
            }
        }

        let mut mutex = Relation::new(n);
        for a in map.ids() {
            for b in map.ids() {
                if a < b && map.mutually_exclusive(a, b) {
                    mutex.insert(a.index(), b.index());
                    mutex.insert(b.index(), a.index());
                }
            }
        }

        let candidates = conflicting_pairs(&map);
        let stmts: Vec<MhpStmt> = map
            .ids()
            .map(|id| MhpStmt {
                process: map.process(id),
                kind: map.kind_name(id),
                label: map.node(id).label.clone(),
                location: map.describe(id),
            })
            .collect();

        eo_obs::counter!("mhp.analyses", 1u64);
        eo_obs::counter!("mhp.stmts", n as u64);
        eo_obs::counter!("mhp.rounds", rounds as u64);
        eo_obs::counter!("mhp.unreachable_stmts", unreachable.count() as u64);

        MhpAnalysis {
            stmts,
            guaranteed,
            mutex,
            unreachable,
            candidates,
            rounds,
        }
    }

    /// The surface path: desugar, analyze the core, map back.
    ///
    /// Mapping rules (each a sound consequence of the desugaring's
    /// schedule-set agreement with the direct micro-step semantics):
    ///
    /// * **guaranteed(a, b)** ⇔ every core statement of `a` is
    ///   core-guaranteed before every core statement of `b` — a surface
    ///   statement spans all events its core statements produce, so the
    ///   all-pairs condition is exactly "all of `a` completes before any
    ///   of `b` begins, in every execution";
    /// * **unreachable(a)** ⇔ the *first* core statement of `a` is
    ///   core-unreachable — then no event of `a` ever happens. (A
    ///   partially-executable statement, e.g. a `cond_wait` whose condvar
    ///   is never signalled, stays reachable: its release step runs.)
    /// * **mutex** and the race **candidates** come from the surface
    ///   statement map directly — branch structure is preserved by the
    ///   lowering and surface sync statements carry no variable
    ///   footprint.
    fn analyze_surface(program: &Program) -> MhpAnalysis {
        let lowered = eo_lang::desugar(program).expect("program was validated");
        let core = Self::analyze(&lowered.program);
        let map = StmtMap::build(program);
        let n = map.len();

        let mut unreachable = BitSet::new(n);
        for id in map.ids() {
            let cores = lowered.map.cores_of(id);
            if cores.first().is_some_and(|&c| core.unreachable(c)) {
                unreachable.insert(id.index());
            }
        }

        let mut guaranteed = Relation::new(n);
        for a in map.ids() {
            let ca = lowered.map.cores_of(a);
            for b in map.ids() {
                if a == b {
                    continue;
                }
                let cb = lowered.map.cores_of(b);
                let all = !ca.is_empty()
                    && !cb.is_empty()
                    && ca
                        .iter()
                        .all(|&x| cb.iter().all(|&y| core.guaranteed_before(x, y)));
                if all {
                    guaranteed.insert(a.index(), b.index());
                }
            }
        }

        let mut mutex = Relation::new(n);
        for a in map.ids() {
            for b in map.ids() {
                if a < b && map.mutually_exclusive(a, b) {
                    mutex.insert(a.index(), b.index());
                    mutex.insert(b.index(), a.index());
                }
            }
        }

        let candidates = conflicting_pairs(&map);
        let stmts: Vec<MhpStmt> = map
            .ids()
            .map(|id| MhpStmt {
                process: map.process(id),
                kind: map.kind_name(id),
                label: map.node(id).label.clone(),
                location: map.describe(id),
            })
            .collect();

        eo_obs::counter!("mhp.surface_analyses", 1u64);

        MhpAnalysis {
            stmts,
            guaranteed,
            mutex,
            unreachable,
            candidates,
            rounds: core.rounds,
        }
    }

    /// Number of static statements.
    pub fn n_stmts(&self) -> usize {
        self.stmts.len()
    }

    /// The flattened statement table.
    pub fn stmts(&self) -> &[MhpStmt] {
        &self.stmts
    }

    /// Fixpoint rounds taken.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Is `a` guaranteed to complete before `b` in every execution in
    /// which `b` executes?
    pub fn guaranteed_before(&self, a: StmtId, b: StmtId) -> bool {
        self.guaranteed.contains(a.index(), b.index())
    }

    /// Can `s` never execute in any execution of the program?
    pub fn unreachable(&self, s: StmtId) -> bool {
        self.unreachable.contains(s.index())
    }

    /// All statements that can never execute, in numbering order.
    pub fn unreachable_stmts(&self) -> impl Iterator<Item = StmtId> + '_ {
        self.unreachable.iter().map(|i| StmtId(i as u32))
    }

    /// The three-valued verdict for a statement pair.
    ///
    /// `NeverConcurrent` when the pair is guaranteed-ordered in some
    /// direction, sits on opposite branches of one conditional, or is the
    /// same statement (loop-free programs execute a statement at most
    /// once). `Unreachable` dominates: a pair with a never-executing side
    /// trivially never races, but the caller usually wants to know *why*.
    pub fn verdict(&self, a: StmtId, b: StmtId) -> Verdict {
        if self.unreachable(a) || self.unreachable(b) {
            return Verdict::Unreachable;
        }
        if a == b
            || self.mutex.contains(a.index(), b.index())
            || self.guaranteed_before(a, b)
            || self.guaranteed_before(b, a)
        {
            return Verdict::NeverConcurrent;
        }
        Verdict::MayBeConcurrent
    }

    /// Does the analysis refute concurrency of the pair — i.e. is the
    /// verdict anything other than [`Verdict::MayBeConcurrent`]?
    pub fn never_concurrent(&self, a: StmtId, b: StmtId) -> bool {
        self.verdict(a, b) != Verdict::MayBeConcurrent
    }

    /// The full guaranteed-ordering relation over statement ids.
    pub fn relation(&self) -> &Relation {
        &self.guaranteed
    }

    /// The first statement carrying `label`.
    pub fn stmt_labeled(&self, label: &str) -> Option<StmtId> {
        self.stmts
            .iter()
            .position(|s| s.label.as_deref() == Some(label))
            .map(|i| StmtId(i as u32))
    }

    /// Conflicting shared-access candidate pairs (two statements accessing
    /// a common variable, at least one writing, in different processes).
    pub fn candidates(&self) -> &[StaticRace] {
        &self.candidates
    }

    /// The candidate pairs the analysis could **not** refute — the static
    /// shared-access race report.
    pub fn static_races(&self) -> Vec<StaticRace> {
        self.candidates
            .iter()
            .copied()
            .filter(|c| self.verdict(c.first, c.second) == Verdict::MayBeConcurrent)
            .collect()
    }

    /// How many candidate pairs the analysis refuted (verdict other than
    /// `MayBeConcurrent`) — the zero-exploration prefilter's yield.
    pub fn refuted_candidates(&self) -> usize {
        self.candidates
            .iter()
            .filter(|c| self.verdict(c.first, c.second) != Verdict::MayBeConcurrent)
            .count()
    }

    /// Projects the guaranteed-ordering relation onto the events of an
    /// anchored run: `out.contains(a, b)` ⇔ the statement that produced
    /// event `a` is guaranteed before the statement that produced event
    /// `b` (`stmt_of[e]` is the anchor table, as produced by
    /// `eo_lang::run_to_trace_anchored` or trace reconstruction).
    ///
    /// Events observed in a real trace did execute, so their anchors are
    /// reachable and cycle-free; the projected relation soundly refutes
    /// operational overlap for any interleaving of the same events.
    pub fn event_orderings(&self, stmt_of: &[StmtId]) -> Relation {
        let n = stmt_of.len();
        let mut out = Relation::new(n);
        for (a, &sa) in stmt_of.iter().enumerate() {
            for (b, &sb) in stmt_of.iter().enumerate() {
                if a != b && sa != sb && self.guaranteed_before(sa, sb) {
                    out.insert(a, b);
                }
            }
        }
        out
    }
}

/// The read/write variable footprint of one statement.
fn accesses(kind: &StmtKind) -> (Vec<eo_model::VarId>, Vec<eo_model::VarId>) {
    match kind {
        StmtKind::Compute { reads, writes } => (reads.clone(), writes.clone()),
        StmtKind::Assign { var, .. } => (Vec::new(), vec![*var]),
        StmtKind::If { var, .. } => (vec![*var], Vec::new()),
        _ => (Vec::new(), Vec::new()),
    }
}

/// All conflicting shared-access pairs: common variable, at least one
/// side writing, different processes (same-process pairs are program-
/// ordered and can never race).
fn conflicting_pairs(map: &StmtMap<'_>) -> Vec<StaticRace> {
    let footprints: Vec<_> = map.ids().map(|id| accesses(map.kind(id))).collect();
    let mut out = Vec::new();
    for a in map.ids() {
        let (ref ra, ref wa) = footprints[a.index()];
        if ra.is_empty() && wa.is_empty() {
            continue;
        }
        for b in map.ids() {
            if b <= a || map.process(a) == map.process(b) {
                continue;
            }
            let (ref rb, ref wb) = footprints[b.index()];
            let conflict = wa.iter().any(|v| rb.contains(v) || wb.contains(v))
                || wb.iter().any(|v| ra.contains(v));
            if conflict {
                out.push(StaticRace {
                    first: a,
                    second: b,
                });
            }
        }
    }
    out
}

/// Environment threaded through the block walk.
struct FlowEnv<'a> {
    posts: &'a [Vec<StmtId>],
    has_clear: &'a [bool],
    initially_set: &'a [bool],
    vees: &'a [Vec<StmtId>],
    sem_initial: &'a [u32],
}

/// Walks a block with the given inflow; returns (outflow, changed). The
/// transfer rules mirror `eo_approx::cs::walk_block` with the semaphore
/// meet rule added.
fn walk_block(
    map: &StmtMap<'_>,
    ids: &[StmtId],
    mut flow: BitSet,
    prec: &mut [BitSet],
    env: &FlowEnv<'_>,
) -> (BitSet, bool) {
    let mut changed = false;
    for &id in ids {
        changed |= prec[id.index()].union_with(&flow);

        match map.kind(id) {
            StmtKind::Wait(v) => {
                let vi = v.index();
                // Sound only when a Post is the ONLY way the flag gets
                // set: no Clears, not initially set, and posts exist.
                if !env.has_clear[vi] && !env.initially_set[vi] && !env.posts[vi].is_empty() {
                    changed |= absorb_meet(&mut prec[..], id, &env.posts[vi]);
                }
            }
            StmtKind::SemP(s) => {
                let si = s.index();
                // A P on an initially-empty semaphore consumes a token
                // some V produced: whichever V it was, that V and its own
                // guarantees completed first — intersection over all V's.
                // A nonzero initial count withdraws the rule entirely (the
                // token may be an initial one), the same conservatism that
                // Clear forces on the Wait rule.
                if env.sem_initial[si] == 0 && !env.vees[si].is_empty() {
                    changed |= absorb_meet(&mut prec[..], id, &env.vees[si]);
                }
            }
            StmtKind::Join(targets) => {
                for t in targets {
                    let body = map.body(*t);
                    let all_paths = guaranteed_through(map, body);
                    changed |= prec[id.index()].union_with(&all_paths);
                    if let Some(&first) = body.first() {
                        let entry = prec[first.index()].clone();
                        changed |= prec[id.index()].union_with(&entry);
                    }
                }
            }
            StmtKind::If { .. } => {
                let mut branch_in = prec[id.index()].clone();
                branch_in.insert(id.index());
                let (then_out, c1) =
                    walk_block(map, map.then_branch(id), branch_in.clone(), prec, env);
                let (else_out, c2) = walk_block(map, map.else_branch(id), branch_in, prec, env);
                changed |= c1 | c2;
                // Continuation: test + inflow + meet of branch outflows.
                let mut meet = then_out;
                meet.intersect_with(&else_out);
                flow = prec[id.index()].clone();
                flow.insert(id.index());
                flow.union_with(&meet);
                continue;
            }
            _ => {}
        }

        flow = prec[id.index()].clone();
        flow.insert(id.index());
    }
    (flow, changed)
}

/// `prec[waiter] ∪= ⋂ over suppliers s of ({s} ∪ prec(s))` — the shared
/// shape of the Post/Wait and V/P meet rules.
fn absorb_meet(prec: &mut [BitSet], waiter: StmtId, suppliers: &[StmtId]) -> bool {
    let mut meet: Option<BitSet> = None;
    for &s in suppliers {
        let mut contrib = prec[s.index()].clone();
        contrib.insert(s.index());
        match &mut meet {
            None => meet = Some(contrib),
            Some(m) => {
                m.intersect_with(&contrib);
            }
        }
    }
    match meet {
        Some(m) => prec[waiter.index()].union_with(&m),
        None => false,
    }
}

/// Statements on *all* paths through a block: every non-If statement,
/// plus recursively each If's test and the meet of its branches.
fn guaranteed_through(map: &StmtMap<'_>, ids: &[StmtId]) -> BitSet {
    let n = map.len();
    let mut out = BitSet::new(n);
    for &id in ids {
        out.insert(id.index());
        if let StmtKind::If { .. } = map.kind(id) {
            let mut meet = guaranteed_through(map, map.then_branch(id));
            meet.intersect_with(&guaranteed_through(map, map.else_branch(id)));
            out.union_with(&meet);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eo_lang::ProgramBuilder;

    #[test]
    fn straight_line_statements_are_never_concurrent() {
        let mut b = ProgramBuilder::new();
        let p = b.process("p");
        b.compute(p, "a").compute(p, "b");
        let mhp = MhpAnalysis::analyze(&b.build());
        let (a, b_) = (
            mhp.stmt_labeled("a").unwrap(),
            mhp.stmt_labeled("b").unwrap(),
        );
        assert_eq!(mhp.verdict(a, b_), Verdict::NeverConcurrent);
        assert_eq!(mhp.verdict(a, a), Verdict::NeverConcurrent, "reflexive");
    }

    #[test]
    fn parallel_processes_may_be_concurrent() {
        let mut b = ProgramBuilder::new();
        let p0 = b.process("p0");
        let p1 = b.process("p1");
        b.compute(p0, "a");
        b.compute(p1, "b");
        let mhp = MhpAnalysis::analyze(&b.build());
        assert_eq!(
            mhp.verdict(
                mhp.stmt_labeled("a").unwrap(),
                mhp.stmt_labeled("b").unwrap()
            ),
            Verdict::MayBeConcurrent
        );
    }

    #[test]
    fn semaphore_handshake_orders_across_processes() {
        // The rule C&S leaves out: initial-0 semaphore, one V, one P.
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let p0 = b.process("p0");
        b.compute(p0, "a");
        b.sem_v(p0, s);
        let p1 = b.process("p1");
        b.sem_p(p1, s);
        b.compute(p1, "b");
        let mhp = MhpAnalysis::analyze(&b.build());
        let (a, b_) = (
            mhp.stmt_labeled("a").unwrap(),
            mhp.stmt_labeled("b").unwrap(),
        );
        assert!(mhp.guaranteed_before(a, b_), "V's prologue precedes the P");
        assert_eq!(mhp.verdict(a, b_), Verdict::NeverConcurrent);
    }

    #[test]
    fn two_vees_guarantee_only_their_meet() {
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let p0 = b.process("p0");
        b.compute(p0, "pre0");
        b.sem_v(p0, s);
        let p1 = b.process("p1");
        b.compute(p1, "pre1");
        b.sem_v(p1, s);
        let p2 = b.process("p2");
        b.sem_p(p2, s);
        b.compute(p2, "after");
        let mhp = MhpAnalysis::analyze(&b.build());
        let after = mhp.stmt_labeled("after").unwrap();
        assert!(!mhp.guaranteed_before(mhp.stmt_labeled("pre0").unwrap(), after));
        assert!(!mhp.guaranteed_before(mhp.stmt_labeled("pre1").unwrap(), after));
    }

    #[test]
    fn nonzero_initial_count_withdraws_the_semaphore_rule() {
        let mut b = ProgramBuilder::new();
        let s = b.semaphore_init("s", 1);
        let p0 = b.process("p0");
        b.compute(p0, "a");
        b.sem_v(p0, s);
        let p1 = b.process("p1");
        b.sem_p(p1, s);
        b.compute(p1, "b");
        let mhp = MhpAnalysis::analyze(&b.build());
        assert_eq!(
            mhp.verdict(
                mhp.stmt_labeled("a").unwrap(),
                mhp.stmt_labeled("b").unwrap()
            ),
            Verdict::MayBeConcurrent,
            "the P may consume the initial token before any V"
        );
    }

    #[test]
    fn opposite_branches_are_never_concurrent() {
        let mut b = ProgramBuilder::new();
        let x = b.variable("x");
        let p = b.process("p");
        b.if_eq_labeled(
            p,
            x,
            0,
            "t",
            |t| {
                t.compute_here("then_work");
            },
            |e| {
                e.compute_here("else_work");
            },
        );
        let mhp = MhpAnalysis::analyze(&b.build());
        assert_eq!(
            mhp.verdict(
                mhp.stmt_labeled("then_work").unwrap(),
                mhp.stmt_labeled("else_work").unwrap()
            ),
            Verdict::NeverConcurrent,
            "no single execution runs both branches"
        );
    }

    #[test]
    fn wait_with_no_post_is_unreachable_and_poisons_its_successors() {
        let mut b = ProgramBuilder::new();
        let ev = b.event_var("never");
        let p = b.process("p");
        b.labeled(p, StmtKind::Wait(ev), "stuck");
        b.compute(p, "after");
        let q = b.process("q");
        b.compute(q, "other");
        let mhp = MhpAnalysis::analyze(&b.build());
        let stuck = mhp.stmt_labeled("stuck").unwrap();
        let after = mhp.stmt_labeled("after").unwrap();
        let other = mhp.stmt_labeled("other").unwrap();
        assert!(mhp.unreachable(stuck));
        assert!(mhp.unreachable(after), "downstream of a stuck wait");
        assert!(!mhp.unreachable(other));
        assert_eq!(mhp.verdict(after, other), Verdict::Unreachable);
    }

    #[test]
    fn initially_set_flag_keeps_the_wait_reachable() {
        let mut b = ProgramBuilder::new();
        let ev = b.event_var_init("pre_set", true);
        let p = b.process("p");
        b.labeled(p, StmtKind::Wait(ev), "w");
        let mhp = MhpAnalysis::analyze(&b.build());
        assert!(!mhp.unreachable(mhp.stmt_labeled("w").unwrap()));
    }

    #[test]
    fn p_with_no_v_and_zero_initial_is_unreachable() {
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let p = b.process("p");
        b.labeled(p, StmtKind::SemP(s), "stuck_p");
        let mhp = MhpAnalysis::analyze(&b.build());
        assert!(mhp.unreachable(mhp.stmt_labeled("stuck_p").unwrap()));
    }

    #[test]
    fn self_supplying_wait_cycle_is_unreachable() {
        // The only post of the flag sits *after* the wait in the same
        // process: prec(wait) ∋ post and prec(post) ∋ wait — a self-cycle.
        let mut b = ProgramBuilder::new();
        let ev = b.event_var("ev");
        let p = b.process("p");
        b.labeled(p, StmtKind::Wait(ev), "w");
        b.labeled(p, StmtKind::Post(ev), "po");
        let mhp = MhpAnalysis::analyze(&b.build());
        assert!(mhp.unreachable(mhp.stmt_labeled("w").unwrap()));
        assert!(mhp.unreachable(mhp.stmt_labeled("po").unwrap()));
    }

    #[test]
    fn static_races_report_the_unordered_conflicts_only() {
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let x = b.variable("x");
        let y = b.variable("y");
        let w = b.process("w");
        b.compute_rw(w, &[], &[x], "write_x");
        b.sem_v(w, s);
        b.compute_rw(w, &[], &[y], "write_y_w");
        let r = b.process("r");
        b.sem_p(r, s);
        b.compute_rw(r, &[x], &[], "read_x");
        b.compute_rw(r, &[], &[y], "write_y_r");
        let mhp = MhpAnalysis::analyze(&b.build());
        let races = mhp.static_races();
        let write_x = mhp.stmt_labeled("write_x").unwrap();
        let read_x = mhp.stmt_labeled("read_x").unwrap();
        assert!(
            !races
                .iter()
                .any(|c| (c.first, c.second) == (write_x, read_x)),
            "the handshake orders write_x before read_x"
        );
        let wy = mhp.stmt_labeled("write_y_w").unwrap();
        let ry = mhp.stmt_labeled("write_y_r").unwrap();
        assert!(
            races.iter().any(|c| (c.first, c.second) == (wy, ry)),
            "the y writes are unordered: a genuine static race"
        );
        assert_eq!(mhp.refuted_candidates(), 1);
        assert_eq!(mhp.candidates().len(), 2);
    }

    #[test]
    fn fork_join_orders_the_tree() {
        let mut b = ProgramBuilder::new();
        let main = b.process("main");
        let w = b.subprocess("w");
        b.compute(main, "pre");
        b.compute(w, "work");
        b.fork(main, &[w]);
        b.join(main, &[w]);
        b.compute(main, "post");
        let mhp = MhpAnalysis::analyze(&b.build());
        let pre = mhp.stmt_labeled("pre").unwrap();
        let work = mhp.stmt_labeled("work").unwrap();
        let post = mhp.stmt_labeled("post").unwrap();
        assert_eq!(mhp.verdict(pre, work), Verdict::NeverConcurrent);
        assert_eq!(mhp.verdict(work, post), Verdict::NeverConcurrent);
    }

    #[test]
    fn event_projection_mirrors_statement_verdicts() {
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let p0 = b.process("p0");
        b.compute(p0, "a");
        b.sem_v(p0, s);
        let p1 = b.process("p1");
        b.sem_p(p1, s);
        b.compute(p1, "b");
        let program = b.build();
        let mhp = MhpAnalysis::analyze(&program);
        let run =
            eo_lang::run_to_trace_anchored(&program, &mut eo_lang::Scheduler::deterministic())
                .unwrap();
        let rel = mhp.event_orderings(&run.stmt_of);
        for (a, &sa) in run.stmt_of.iter().enumerate() {
            for (b, &sb) in run.stmt_of.iter().enumerate() {
                assert_eq!(
                    rel.contains(a, b),
                    a != b && mhp.guaranteed_before(sa, sb),
                    "event pair ({a},{b})"
                );
            }
        }
    }

    #[test]
    fn barrier_orders_pre_against_post_all_to_all() {
        // p0: a ; barrier ; c        p1: b ; barrier ; d
        // Everything before the barrier is guaranteed before everything
        // after it, across processes — derived purely by the semaphore
        // meet rule over the desugared pairwise handshakes.
        let mut b = ProgramBuilder::new();
        let bar = b.barrier("bar", 2);
        let p0 = b.process("p0");
        b.compute(p0, "a").barrier_wait(p0, bar).compute(p0, "c");
        let p1 = b.process("p1");
        b.compute(p1, "b").barrier_wait(p1, bar).compute(p1, "d");
        let mhp = MhpAnalysis::analyze(&b.build());
        let s = |l: &str| mhp.stmt_labeled(l).unwrap();
        assert_eq!(mhp.verdict(s("a"), s("d")), Verdict::NeverConcurrent);
        assert_eq!(mhp.verdict(s("b"), s("c")), Verdict::NeverConcurrent);
        assert!(mhp.guaranteed_before(s("a"), s("d")));
        assert!(mhp.guaranteed_before(s("b"), s("c")));
        // The pre-barrier computations themselves stay concurrent…
        assert_eq!(mhp.verdict(s("a"), s("b")), Verdict::MayBeConcurrent);
        // …as do the two barrier_wait statements (arrival phases overlap).
        let waits: Vec<StmtId> = (0..mhp.n_stmts())
            .map(|i| StmtId(i as u32))
            .filter(|&i| mhp.stmts()[i.index()].kind == "barrier_wait")
            .collect();
        assert_eq!(waits.len(), 2);
        assert_eq!(mhp.verdict(waits[0], waits[1]), Verdict::MayBeConcurrent);
    }

    #[test]
    fn condvar_signal_orders_its_prologue_before_the_woken_body() {
        let mut b = ProgramBuilder::new();
        let m = b.mutex("m");
        let cv = b.condvar("cv");
        let p0 = b.process("p0");
        b.compute(p0, "produced").cond_signal(p0, cv);
        let p1 = b.process("p1");
        b.lock(p1, m)
            .cond_wait(p1, cv, m)
            .compute(p1, "consumed")
            .unlock(p1, m);
        let mhp = MhpAnalysis::analyze(&b.build());
        let s = |l: &str| mhp.stmt_labeled(l).unwrap();
        assert!(
            mhp.guaranteed_before(s("produced"), s("consumed")),
            "the only signal supplies the wait's token"
        );
        assert_eq!(
            mhp.verdict(s("produced"), s("consumed")),
            Verdict::NeverConcurrent
        );
    }

    #[test]
    fn channel_send_orders_against_the_sole_receive() {
        let mut b = ProgramBuilder::new();
        let ch = b.channel("ch", 1);
        let p0 = b.process("p0");
        b.compute(p0, "make").send(p0, ch);
        let p1 = b.process("p1");
        b.recv(p1, ch).compute(p1, "use");
        let mhp = MhpAnalysis::analyze(&b.build());
        let s = |l: &str| mhp.stmt_labeled(l).unwrap();
        assert!(mhp.guaranteed_before(s("make"), s("use")));
        assert_eq!(mhp.verdict(s("make"), s("use")), Verdict::NeverConcurrent);
    }

    #[test]
    fn mutex_critical_sections_stay_may_be_concurrent() {
        // Mutual exclusion is disjunctive ("one or the other first"), which
        // prec sets cannot express — the sound answer is MayBeConcurrent.
        let mut b = ProgramBuilder::new();
        let m = b.mutex("m");
        let p0 = b.process("p0");
        b.lock(p0, m).compute(p0, "cs0").unlock(p0, m);
        let p1 = b.process("p1");
        b.lock(p1, m).compute(p1, "cs1").unlock(p1, m);
        let mhp = MhpAnalysis::analyze(&b.build());
        let s = |l: &str| mhp.stmt_labeled(l).unwrap();
        assert_eq!(mhp.verdict(s("cs0"), s("cs1")), Verdict::MayBeConcurrent);
    }

    #[test]
    fn never_signalled_cond_wait_blocks_its_successors_not_itself() {
        // The wait's release step still runs (the statement begins), so
        // the wait itself stays reachable; everything after it is not.
        let mut b = ProgramBuilder::new();
        let m = b.mutex("m");
        let cv = b.condvar("cv");
        let p = b.process("p");
        b.lock(p, m).cond_wait(p, cv, m).compute(p, "after");
        let q = b.process("q");
        b.compute(q, "other");
        let mhp = MhpAnalysis::analyze(&b.build());
        let s = |l: &str| mhp.stmt_labeled(l).unwrap();
        assert!(mhp.unreachable(s("after")), "past a wait that never wakes");
        assert!(!mhp.unreachable(s("other")));
        assert_eq!(mhp.verdict(s("after"), s("other")), Verdict::Unreachable);
    }

    #[test]
    fn surface_numbering_matches_the_surface_stmt_map() {
        let mut b = ProgramBuilder::new();
        let bar = b.barrier("bar", 2);
        let p0 = b.process("p0");
        b.compute(p0, "a").barrier_wait(p0, bar);
        let p1 = b.process("p1");
        b.barrier_wait(p1, bar).compute(p1, "z");
        let prog = b.build();
        let mhp = MhpAnalysis::analyze(&prog);
        let map = StmtMap::build(&prog);
        assert_eq!(mhp.n_stmts(), map.len(), "surface numbering, not core");
        assert_eq!(mhp.stmts()[1].kind, "barrier_wait");
    }

    #[test]
    fn numbering_agrees_with_the_shared_stmt_map() {
        let mut b = ProgramBuilder::new();
        let x = b.variable("x");
        let p = b.process("p");
        b.compute(p, "a");
        b.if_eq_labeled(
            p,
            x,
            0,
            "t",
            |t| {
                t.compute_here("then");
            },
            |e| {
                e.compute_here("else");
            },
        );
        b.compute(p, "z");
        let prog = b.build();
        let mhp = MhpAnalysis::analyze(&prog);
        let map = StmtMap::build(&prog);
        assert_eq!(mhp.n_stmts(), map.len());
        for label in ["a", "t", "then", "else", "z"] {
            assert_eq!(mhp.stmt_labeled(label), map.labeled(label), "label {label}");
        }
    }
}
