//! The direct ⟨E, →T, →D⟩ → CNF partial-order encoding.
//!
//! A feasible execution is a total order of E respecting the
//! synchronization semantics and →D. One Boolean variable per unordered
//! event pair (`o(a,b)` ⇔ "a executes before b", with `o(b,a) = ¬o(a,b)`
//! by sign convention) plus:
//!
//! * **base facts** — a unit clause for every pair of `cl(base)`: program
//!   order, fork/join edges and (in dependence-preserving mode) every →D
//!   pair, closed transitively. They are asserted first, so the solver
//!   simplifies every later clause against the whole base order;
//! * **totality + transitivity** — totality is the sign convention; a
//!   tournament is transitive iff it has no 3-cycle, so a triple
//!   `i < j < k` that no base pair orders gets exactly two clauses, one
//!   per cyclic orientation (`¬o(i,j) ∨ ¬o(j,k) ∨ ¬o(k,i)` and its
//!   mirror). A transitive tournament is exactly a strict total order, so
//!   any model *is* a schedule. Transitivity is emitted only where the
//!   base order leaves it open (see *Transitivity along covering edges*
//!   below): a triple whose one base pair `(y, z)` is a covering edge of
//!   `cl(base)` gets the binary `¬o(x,y) ∨ o(x,z)`, and every other triple
//!   gets nothing;
//! * **semaphore tokens** — a matching variable `m_{t,p}` for every P
//!   event `p` and every token source `t` (a V event or one of the
//!   semaphore's initial tokens): each P claims at least one source, each
//!   source serves at most one P, and claiming a V implies executing
//!   after it. Any such matching makes every prefix token-sound (each
//!   executed P's source is already executed and sources are distinct),
//!   and any valid schedule admits one (FIFO), so the constraint is exact;
//! * **event-variable causality** — a trigger variable `t_{p,w}` for
//!   every Wait `w` and candidate Post `p` (plus an "initially set"
//!   trigger when the flag starts true): some trigger holds; a triggering
//!   Post precedes the Wait; and every Clear of the variable is ordered
//!   outside the (trigger, Wait) window — before the trigger or after the
//!   Wait.
//!
//! ## Queries as assumptions
//!
//! The encoding is built **once** into an incremental CDCL solver
//! ([`eo_sat::Solver`]); every query is then one
//! [`eo_sat::Solver::solve_assuming`] call per orientation it tries (CHB:
//! one; CCW: up to two), so all clauses the solver learns while answering
//! one query shorten the next. The encoding solves whatever it is asked;
//! `eo-engine`'s `SatSession` asks it only for what the schedules it
//! keeps cannot prove, since a "yes" has a certificate that replays in
//! linear time and only a "no" needs a refutation:
//!
//! * `first` CHB `second` — assume the one literal `o(first, second)`;
//! * `a` MHB `b` — the CHB query `b` before `a` is unsatisfiable;
//! * `a` CCW `b` (operational could-be-concurrent) — two *activation
//!   literals*, one per orientation. `act(a,b)` guards clauses asserting
//!   the model schedules `a` and `b` back to back (every other event is
//!   before `a` or after `b`) **and** that `b` was already enabled in the
//!   state `S` = {e : o(e,a)} reached just before `a` fires (see below).
//!   `a CCW b` iff assuming `act(a,b)` or assuming `act(b,a)` is
//!   satisfiable — exactly the exact engine's witness-overlap search,
//!   which looks for a reachable state with both events co-enabled and a
//!   completable back-to-back firing in either order. Activation clauses
//!   all contain `¬act`, so they are vacuous whenever the activation
//!   literal is not assumed; they stay in the database and are reused
//!   when the same pair is queried again.
//!
//! ## Enabledness of `b` at `S`
//!
//! `S` is a prefix of the model's schedule, so it is downward closed;
//! `b`'s enabledness gates mirror the machine's (`eo_model::Machine`):
//!
//! * *next in process* — `b`'s immediate program-order predecessor is in
//!   `S` (transitivity pulls in the rest of the chain);
//! * *process started* — the fork that created `b`'s process is in `S`
//!   (only needed explicitly when `b` is its process's first event);
//! * *→D predecessors* — each is in `S` (dependence-preserving mode);
//! * *`P(s)`* — `b`'s claimed token source is available at `S`: claiming
//!   a V source implies that V is in `S` (anonymous initial tokens are
//!   always available). Exclusivity of the matching then gives the
//!   counter ≥ 1 at `S`: every P in `S` claims a distinct source in `S`,
//!   and `b`'s source is yet another;
//! * *`Wait(u)`* — `b`'s trigger Post is in `S`; the base clauses already
//!   force every Clear outside the (trigger, Wait) window, and `b` runs
//!   immediately after `a`, so no Clear can sit between the trigger and
//!   `S`'s end;
//! * *`Join(children)`* — each child's last event is in `S` (program
//!   order pulls in the rest; the fork → first-event edge pulls in the
//!   creation), or the child's fork is in `S` for eventless children.
//!
//! `a`'s own enabledness at `S`, `b`'s at `S·a`, and reachability of `S`
//! need no extra clauses: the model is a feasible schedule that fires `a`
//! and `b` right there.
//!
//! ## Transitivity along covering edges
//!
//! Every model must be a transitive tournament: no triple may be ordered
//! as a 3-cycle. The base units already settle most triples, so only
//! these keep clauses:
//!
//! * **No base pair.** The triple keeps both "no 3-cycle" clauses.
//! * **One base pair `(y, z)`, a covering edge** of `cl(base)` (no `w`
//!   with `y < w < z`). The cycle through `y → z` is `x → y → z → x`, so
//!   the triple keeps `¬o(x,y) ∨ o(x,z)`. The other cycle needs `z`
//!   before `y`, which the unit `o(y,z)` already forbids.
//!
//! Nothing else is emitted, and every omitted triple is still safe:
//!
//! * **Two or more base pairs.** Either they form a path, `x < y` and
//!   `y < z`, and then the closure orders `x < z` as a unit, so the whole
//!   triple is fixed. Or they share an endpoint, as `x < y` and `x < z`
//!   (or `y < x` and `z < x`). Each 3-cycle orientation runs one of those
//!   two pairs backwards, so the units refute both cycles.
//! * **One base pair `(y, z)` that is not covering**, with `x` unordered
//!   with both. Take a covering chain `y = w₀ < w₁ < … < w_m = z` of
//!   `cl(base)`. Every `wᵢ` is unordered with `x` too: `wᵢ < x` would
//!   give `y < x`, and `x < wᵢ` would give `x < z`. So each triple
//!   `(x, wᵢ, wᵢ₊₁)` has one base pair, a covering edge, and keeps the
//!   binary `o(x,wᵢ) → o(x,wᵢ₊₁)`. Chained, they force
//!   `o(x,y) → o(x,z)`, which is this triple's one cycle clause.
//!
//! Every "no 3-cycle" clause of the full encoding is thus implied, and
//! the models are unchanged. The triples left open are few where the base
//! order is dense; a single-process trace adds no transitivity clause at
//! all. E19 measures the backend against the enumerating engine.

use eo_model::{EventId, Op, Trace};
use eo_relations::Relation;
use eo_sat::{Lit, SolveOutcome, Solver, Var};
use std::collections::HashMap;

/// What a symbolic query ended with. Alias of the solver's outcome: a
/// model (decodable into a schedule), unsatisfiability, or interruption
/// by the caller's stop callback.
pub type SymOutcome = SolveOutcome;

/// A partial-order CNF encoding of one execution, with an embedded
/// incremental CDCL solver shared by every query asked of it.
pub struct PoEncoding {
    n: usize,
    solver: Solver,
    /// For each SemP event: its matching variables, each paired with the
    /// source's event id (`None` = an anonymous initial token).
    sem_claims: HashMap<usize, Vec<(Var, Option<usize>)>>,
    /// For each Wait event: its trigger variables, each paired with the
    /// triggering Post's event id (`None` = the initially-set flag).
    wait_triggers: HashMap<usize, Vec<(Var, Option<usize>)>>,
    /// Immediate program-order predecessor of each event.
    po_pred: Vec<Option<usize>>,
    /// The fork event that created each event's process (`None` = root).
    creator: Vec<Option<usize>>,
    /// For each Join event: per child, the event that must be in `S` for
    /// the child to count as complete (last event, or fork if eventless).
    join_gates: HashMap<usize, Vec<usize>>,
    /// →D predecessors of each event under the encoding's feasibility
    /// mode (empty in dependence-ignoring mode).
    d_preds: Vec<Vec<usize>>,
    /// `cl(base)`: the order every feasible schedule keeps.
    base: Relation,
    /// Lazily created activation literals for overlap queries, keyed by
    /// the ordered pair (first-to-fire, second-to-fire).
    overlap_acts: HashMap<(usize, usize), Lit>,
    /// Clauses the solver kept of the feasibility core (diagnostics).
    core_clauses: usize,
}

impl PoEncoding {
    /// Builds the feasibility encoding of `trace` under the effective
    /// dependence relation `d` (pass the real →D for
    /// dependence-preserving feasibility, an empty relation to ignore
    /// dependences) and loads it into a fresh incremental solver.
    pub fn new(trace: &Trace, d: &Relation) -> PoEncoding {
        eo_obs::span!("sym.encode");
        let n = trace.n_events();
        let n_pairs = n * n.saturating_sub(1) / 2;
        let mut solver = Solver::with_vars(n_pairs);

        let before = |a: usize, b: usize| before_lit(n, a, b);

        // Base facts first, so every later clause is simplified against
        // the whole base order.
        let base = eo_model::induce::base_edges(trace, d).transitive_closure();
        for (a, b) in base.pairs() {
            // A cyclic base also puts (a, a) in its closure; its (a, b) and
            // (b, a) units already make the encoding unsatisfiable.
            if a != b {
                solver.add_clause(&[before(a, b)]);
            }
        }

        // Totality is implicit (o or ¬o); transitivity is "no 3-cycle",
        // emitted only where the base order leaves it open (the module
        // docs argue that the rest follow): both cycle clauses for a
        // triple with no base pair, and the binary ¬o(x,y) ∨ o(x,z) for a
        // triple whose one base pair y < z is a covering edge.
        let through = base.compose(&base);
        let ordered = |a: usize, b: usize| !base.unordered(a, b);
        // The binary of the triple {a, b, x} whose one base pair is {a, b}.
        let along_edge = |solver: &mut Solver, a: usize, b: usize, x: usize| {
            let (y, z) = if base.contains(a, b) { (a, b) } else { (b, a) };
            if !through.contains(y, z) {
                solver.add_clause(&[before(x, y).negated(), before(x, z)]);
            }
        };
        for i in 0..n {
            for j in (i + 1)..n {
                let ij = ordered(i, j);
                for k in (j + 1)..n {
                    match (ij, ordered(j, k), ordered(i, k)) {
                        (false, false, false) => {
                            for (x, y, z) in [(i, j, k), (i, k, j)] {
                                solver.add_clause(&[
                                    before(x, y).negated(),
                                    before(y, z).negated(),
                                    before(z, x).negated(),
                                ]);
                            }
                        }
                        (true, false, false) => along_edge(&mut solver, i, j, k),
                        (false, true, false) => along_edge(&mut solver, j, k, i),
                        (false, false, true) => along_edge(&mut solver, i, k, j),
                        _ => {}
                    }
                }
            }
        }

        // Semaphore token matching.
        let mut sem_claims: HashMap<usize, Vec<(Var, Option<usize>)>> = HashMap::new();
        for s in 0..trace.semaphores.len() {
            let sid = eo_model::SemId::new(s);
            let vs: Vec<usize> = trace
                .events
                .iter()
                .filter(|e| e.op == Op::SemV(sid))
                .map(|e| e.id.index())
                .collect();
            let ps: Vec<usize> = trace
                .events
                .iter()
                .filter(|e| e.op == Op::SemP(sid))
                .map(|e| e.id.index())
                .collect();
            if ps.is_empty() {
                continue;
            }
            let initial = trace.semaphores[s].initial as usize;
            // Token sources: every V, plus `initial` anonymous tokens.
            let sources: Vec<Option<usize>> = vs
                .iter()
                .map(|&v| Some(v))
                .chain((0..initial).map(|_| None))
                .collect();
            // m[src][pi]: source `src` serves P event `ps[pi]`.
            let m: Vec<Vec<Var>> = sources
                .iter()
                .map(|_| ps.iter().map(|_| solver.add_var()).collect())
                .collect();

            for (pi, &p) in ps.iter().enumerate() {
                // At least one source per P.
                let at_least: Vec<Lit> = m.iter().map(|row| Lit::pos(row[pi])).collect();
                solver.add_clause(&at_least);
                // Claiming a V implies running after it.
                for (src, source) in sources.iter().enumerate() {
                    if let Some(v) = *source {
                        solver.add_clause(&[Lit::neg(m[src][pi]), before(v, p)]);
                    }
                }
                sem_claims.insert(
                    p,
                    sources
                        .iter()
                        .enumerate()
                        .map(|(src, &source)| (m[src][pi], source))
                        .collect(),
                );
            }
            // Each source serves at most one P.
            for row in &m {
                for pi in 0..ps.len() {
                    for pj in (pi + 1)..ps.len() {
                        solver.add_clause(&[Lit::neg(row[pi]), Lit::neg(row[pj])]);
                    }
                }
            }
        }

        // Event-variable causality.
        let mut wait_triggers: HashMap<usize, Vec<(Var, Option<usize>)>> = HashMap::new();
        for u in 0..trace.event_vars.len() {
            let uid = eo_model::EvVarId::new(u);
            let posts: Vec<usize> = trace
                .events
                .iter()
                .filter(|e| e.op == Op::Post(uid))
                .map(|e| e.id.index())
                .collect();
            let waits: Vec<usize> = trace
                .events
                .iter()
                .filter(|e| e.op == Op::Wait(uid))
                .map(|e| e.id.index())
                .collect();
            let clears: Vec<usize> = trace
                .events
                .iter()
                .filter(|e| e.op == Op::Clear(uid))
                .map(|e| e.id.index())
                .collect();
            let initially = trace.event_vars[u].initially_set;

            for &w in &waits {
                let triggers: Vec<(Var, Option<usize>)> = posts
                    .iter()
                    .map(|&p| Some(p))
                    .chain(initially.then_some(None))
                    .map(|p| (solver.add_var(), p))
                    .collect();

                // Some trigger explains the Wait.
                let some: Vec<Lit> = triggers.iter().map(|&(t, _)| Lit::pos(t)).collect();
                solver.add_clause(&some);
                for &(t, post) in &triggers {
                    match post {
                        Some(p) => {
                            // Triggering post precedes the wait…
                            solver.add_clause(&[Lit::neg(t), before(p, w)]);
                            // …and no Clear sits between: each is before
                            // the post or after the wait.
                            for &c in &clears {
                                solver.add_clause(&[Lit::neg(t), before(c, p), before(w, c)]);
                            }
                        }
                        None => {
                            // The initial flag triggered it: every Clear
                            // is after the wait.
                            for &c in &clears {
                                solver.add_clause(&[Lit::neg(t), before(w, c)]);
                            }
                        }
                    }
                }
                wait_triggers.insert(w, triggers);
            }
        }

        // Per-event structural facts for the overlap (CCW) clauses.
        let per_process = trace.per_process();
        let mut po_pred: Vec<Option<usize>> = vec![None; n];
        for list in &per_process {
            for pair in list.windows(2) {
                po_pred[pair[1].index()] = Some(pair[0].index());
            }
        }
        let creator: Vec<Option<usize>> = trace
            .events
            .iter()
            .map(|e| {
                trace.processes[e.process.index()]
                    .created_by
                    .map(|f| f.index())
            })
            .collect();
        let mut join_gates: HashMap<usize, Vec<usize>> = HashMap::new();
        for e in &trace.events {
            if let Op::Join(children) = &e.op {
                let gates = children
                    .iter()
                    .filter_map(|c| match per_process[c.index()].last() {
                        Some(&last) => Some(last.index()),
                        None => trace.processes[c.index()].created_by.map(|f| f.index()),
                    })
                    .collect();
                join_gates.insert(e.id.index(), gates);
            }
        }
        let mut d_preds: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (a, b) in d.pairs() {
            d_preds[b].push(a);
        }

        let core_clauses = solver.num_clauses();
        eo_obs::counter!("sym.clauses", core_clauses as u64);
        PoEncoding {
            n,
            solver,
            sem_claims,
            wait_triggers,
            po_pred,
            creator,
            join_gates,
            d_preds,
            base,
            overlap_acts: HashMap::new(),
            core_clauses,
        }
    }

    /// Builds the encoding from a **typed** dependence input
    /// ([`eo_model::Dependence`]): the →D unit facts asserted are the
    /// per-class relations' fold, and per-class fact counts are published
    /// by [`count_dependence_classes`]. The emitted CNF is
    /// **bit-identical** to [`PoEncoding::new`] over `dep.flat()` — the
    /// classes refine the input, never the theory — which the encoding
    /// tests pin.
    pub fn with_dependence(trace: &Trace, dep: &eo_model::Dependence) -> PoEncoding {
        count_dependence_classes(dep);
        PoEncoding::new(trace, dep.flat())
    }

    /// Number of events in the encoded execution.
    pub fn n_events(&self) -> usize {
        self.n
    }

    /// Number of clauses the solver kept of the feasibility core: its
    /// level-0 units plus its stored clauses. Clauses dropped as already
    /// satisfied are not counted (diagnostics).
    pub fn core_clause_count(&self) -> usize {
        self.core_clauses
    }

    /// The shared solver's work counters, for metrics emission.
    pub fn solver(&self) -> &Solver {
        &self.solver
    }

    /// `cl(base)`, the transitive closure of program order, fork/join and
    /// the encoded →D: the order every feasible schedule keeps.
    pub fn base_order(&self) -> &Relation {
        &self.base
    }

    /// The literal asserting "a executes before b".
    ///
    /// # Panics
    /// Panics if `a == b`.
    pub fn before(&self, a: usize, b: usize) -> Lit {
        before_lit(self.n, a, b)
    }

    /// Decides "some feasible schedule runs `first` strictly before
    /// `second`" (the CHB query) as one incremental solve. Returns the
    /// witness schedule on success.
    pub fn solve_before(
        &mut self,
        first: EventId,
        second: EventId,
        stop: &mut dyn FnMut(u64) -> bool,
    ) -> SymOutcome {
        assert_ne!(first, second, "order query needs two distinct events");
        let assumption = self.before(first.index(), second.index());
        let span = eo_obs::span("sym.solve");
        let outcome = self.solver.solve_assuming(&[assumption], stop);
        span.end();
        outcome
    }

    /// Decides whether `a` and `b` can be concurrent in the operational
    /// sense (the CCW query): some feasible schedule reaches a state
    /// where both are enabled and fires them back to back, in either
    /// order, and still completes. Two incremental solves, one per
    /// orientation; the activation clauses are created on first use and
    /// reused thereafter.
    ///
    /// `Sat` carries the witnessing schedule's model; `Interrupted` is
    /// returned as soon as either orientation's solve is interrupted.
    pub fn solve_overlap(
        &mut self,
        a: EventId,
        b: EventId,
        stop: &mut dyn FnMut(u64) -> bool,
    ) -> SymOutcome {
        assert_ne!(a, b, "overlap query needs two distinct events");
        let span = eo_obs::span("sym.solve");
        let mut last = SymOutcome::Unsat;
        for (x, y) in [(a, b), (b, a)] {
            let act = self.overlap_activation(x.index(), y.index());
            match self.solver.solve_assuming(&[act], stop) {
                SymOutcome::Sat(model) => {
                    span.end();
                    return SymOutcome::Sat(model);
                }
                SymOutcome::Unsat => {}
                SymOutcome::Interrupted => {
                    last = SymOutcome::Interrupted;
                    break;
                }
            }
        }
        span.end();
        last
    }

    /// The activation literal for "x fires, then y immediately after,
    /// with y already enabled before x fired", creating its guarded
    /// clauses on first use.
    fn overlap_activation(&mut self, x: usize, y: usize) -> Lit {
        if let Some(&act) = self.overlap_acts.get(&(x, y)) {
            return act;
        }
        let act = Lit::pos(self.solver.add_var());
        let nact = act.negated();
        let n = self.n;

        // x fires, then y: o(x, y) …
        self.solver.add_clause(&[nact, before_lit(n, x, y)]);
        // … immediately after — every other event is before x or after y.
        for e in 0..n {
            if e == x || e == y {
                continue;
            }
            self.solver
                .add_clause(&[nact, before_lit(n, e, x), before_lit(n, y, e)]);
        }

        // Enabledness of y at S = {e : o(e, x)}. Each gate is an "event
        // in S" requirement; a gate on x or y itself can never hold (x
        // and y are outside S), so the orientation is infeasible outright.
        let mut gates: Vec<usize> = Vec::new();
        match self.po_pred[y] {
            Some(prev) => gates.push(prev),
            // First event of its process: the creating fork must be in S.
            None => gates.extend(self.creator[y]),
        }
        gates.extend(self.d_preds[y].iter().copied());
        if let Some(join_gates) = self.join_gates.get(&y) {
            gates.extend(join_gates.iter().copied());
        }
        let infeasible = gates.iter().any(|&g| g == x || g == y);
        if infeasible {
            self.solver.add_clause(&[nact]);
        } else {
            for g in gates {
                self.solver.add_clause(&[nact, before_lit(n, g, x)]);
            }
            // P(s): the claimed V source must already be in S.
            if let Some(claims) = self.sem_claims.get(&y).cloned() {
                for &(m, source) in claims.iter() {
                    if let Some(v) = source {
                        if v == x {
                            // Claiming x's own token means the counter was
                            // not positive before x fired.
                            self.solver.add_clause(&[nact, Lit::neg(m)]);
                        } else {
                            self.solver
                                .add_clause(&[nact, Lit::neg(m), before_lit(n, v, x)]);
                        }
                    }
                }
            }
            // Wait(u): the trigger post must already be in S.
            if let Some(triggers) = self.wait_triggers.get(&y).cloned() {
                for &(t, post) in triggers.iter() {
                    if let Some(p) = post {
                        if p == x {
                            self.solver.add_clause(&[nact, Lit::neg(t)]);
                        } else {
                            self.solver
                                .add_clause(&[nact, Lit::neg(t), before_lit(n, p, x)]);
                        }
                    }
                }
            }
        }

        self.overlap_acts.insert((x, y), act);
        act
    }

    /// Reads the schedule out of a model: events sorted with the pair
    /// literal as the comparator. A model's pair literals form a strict
    /// total order (a transitive tournament), so the sort is well defined
    /// and costs O(n log n) literal lookups.
    pub fn decode_schedule(&self, model: &[bool]) -> Vec<EventId> {
        let before = |a: usize, b: usize| {
            let lit = self.before(a, b);
            lit.satisfied_by(model[lit.var.index()])
        };
        let mut order: Vec<usize> = (0..self.n).collect();
        order.sort_by(|&a, &b| match a.cmp(&b) {
            std::cmp::Ordering::Equal => std::cmp::Ordering::Equal,
            _ if before(a, b) => std::cmp::Ordering::Less,
            _ => std::cmp::Ordering::Greater,
        });
        order.into_iter().map(EventId::new).collect()
    }
}

/// Publishes the per-class →D fact counts of `dep` through `eo_obs`
/// (`sym.dep.co` / `.wr` / `.fr` / `.unclassified`; a pair in several
/// classes is attributed to the first of co, wr, fr). Callers that encode
/// from the flat →D call this only while a recording is active, so the
/// count costs nothing otherwise.
pub fn count_dependence_classes(dep: &eo_model::Dependence) {
    let (mut co, mut wr, mut fr, mut other) = (0u64, 0u64, 0u64, 0u64);
    for (a, b) in dep.flat().pairs() {
        if dep.co.contains(a, b) {
            co += 1;
        } else if dep.wr.contains(a, b) {
            wr += 1;
        } else if dep.fr.contains(a, b) {
            fr += 1;
        } else {
            // From-flat compatibility inputs carry no classes.
            other += 1;
        }
    }
    eo_obs::counter!("sym.dep.co", co);
    eo_obs::counter!("sym.dep.wr", wr);
    eo_obs::counter!("sym.dep.fr", fr);
    eo_obs::counter!("sym.dep.unclassified", other);
}

/// The pair literal for "a before b" over `n` events (sign convention:
/// the variable is allocated for the `a < b` orientation).
fn before_lit(n: usize, a: usize, b: usize) -> Lit {
    assert_ne!(a, b, "no order literal for a pair of equal events");
    if a < b {
        Lit::pos(Var(pair_index(n, a, b) as u32))
    } else {
        Lit::neg(Var(pair_index(n, b, a) as u32))
    }
}

#[inline]
fn pair_index(n: usize, a: usize, b: usize) -> usize {
    debug_assert!(a < b && b < n);
    // Row-major upper triangle: offset of row a + (b - a - 1).
    a * n - a * (a + 1) / 2 + (b - a - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eo_model::fixtures;

    fn never(_: u64) -> bool {
        false
    }

    fn encoding_of(trace: &Trace) -> PoEncoding {
        let exec = trace.to_execution().unwrap();
        PoEncoding::new(exec.trace(), exec.d())
    }

    #[test]
    fn typed_dependence_input_encodes_identically() {
        // The typed path must assert exactly the facts of the flat path:
        // same clause count, same verdicts on representative queries —
        // for both a classified input and a from-flat compat input.
        let (trace, _) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let mut flat_enc = PoEncoding::new(exec.trace(), exec.d());
        let mut typed_enc = PoEncoding::with_dependence(exec.trace(), exec.dependence());
        let compat = eo_model::Dependence::from_flat(exec.d().clone());
        let mut compat_enc = PoEncoding::with_dependence(exec.trace(), &compat);
        assert_eq!(
            flat_enc.core_clause_count(),
            typed_enc.core_clause_count(),
            "typed input must add no clause beyond the flat fold"
        );
        assert_eq!(flat_enc.core_clause_count(), compat_enc.core_clause_count());
        let n = trace.n_events();
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (x, y) = (eo_model::EventId::new(a), eo_model::EventId::new(b));
                let f = matches!(flat_enc.solve_before(x, y, &mut never), SymOutcome::Sat(_));
                let t = matches!(typed_enc.solve_before(x, y, &mut never), SymOutcome::Sat(_));
                let c = matches!(
                    compat_enc.solve_before(x, y, &mut never),
                    SymOutcome::Sat(_)
                );
                assert_eq!(f, t, "typed verdict diverges on ({a}, {b})");
                assert_eq!(f, c, "compat verdict diverges on ({a}, {b})");
            }
        }
    }

    #[test]
    fn a_single_process_trace_needs_no_transitivity_clause() {
        // Program order is total, so cl(base) orders every pair: the
        // encoding is one unit per pair and nothing else.
        let mut tb = eo_model::TraceBuilder::new();
        let p = tb.process("main");
        let x = tb.variable("x");
        tb.write(p, x, "x:=1");
        tb.compute(p, "work");
        tb.read(p, x, "if x");
        tb.compute(p, "more");
        tb.write(p, x, "x:=2");
        let trace = tb.build().unwrap();
        let n = trace.n_events();
        let mut enc = encoding_of(&trace);
        assert_eq!(enc.core_clause_count(), n * (n - 1) / 2);
        let last = eo_model::EventId::new(n - 1);
        let first = eo_model::EventId::new(0);
        assert!(matches!(
            enc.solve_before(last, first, &mut never),
            SymOutcome::Unsat
        ));
        assert_eq!(enc.solver().decisions, 0, "the units decide everything");
    }

    #[test]
    fn each_open_triple_keeps_one_clause_per_cyclic_orientation() {
        // A synchronization-free trace, so its core is the base units plus
        // transitivity: p0 = a0; a1, p1 = b0; b1, p2 = c. A triple keeps
        // both cycle clauses while no pair of it is base-ordered (the 4
        // triples a_i, b_j, c), one shortened clause while exactly one is
        // (the other 6), and none once two are.
        let mut tb = eo_model::TraceBuilder::new();
        for (name, events) in [("p0", 2), ("p1", 2), ("p2", 1)] {
            let p = tb.process(name);
            for k in 0..events {
                tb.compute(p, &format!("{name}.{k}"));
            }
        }
        let trace = tb.build().unwrap();
        let enc = encoding_of(&trace);
        assert_eq!(enc.core_clause_count(), 2 + 4 * 2 + 6);

        // On the fork/join diamond the base order settles every triple:
        // its only unordered pair is the two children, and any third
        // event is ordered with both, so the core is the units alone.
        let (trace, _) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let cl = eo_model::induce::base_edges(exec.trace(), exec.d()).transitive_closure();
        assert_eq!(encoding_of(&trace).core_clause_count(), cl.pairs().count());
    }

    #[test]
    fn only_covering_edges_keep_a_binary() {
        // p0 = a0; a1; a2 and p1 = c: a three-event chain and one event
        // unordered with all three. The chain's 3 units settle its own
        // triple. Of the triples with c, (a0, a1, c) and (a1, a2, c) each
        // have one base pair, a covering edge, and keep a binary; the
        // binary of (a0, a2, c) is their chain, so it is not emitted.
        let mut tb = eo_model::TraceBuilder::new();
        let p0 = tb.process("p0");
        let a: Vec<EventId> = (0..3).map(|k| tb.compute(p0, &format!("a{k}"))).collect();
        let p1 = tb.process("p1");
        let c = tb.compute(p1, "c");
        let trace = tb.build().unwrap();
        let mut enc = encoding_of(&trace);
        assert_eq!(enc.core_clause_count(), 3 + 2);

        // The omitted clause still holds: c between a0 and a2 needs c
        // between a0 and a1 or between a1 and a2, and both orders of c
        // against each chain event stay feasible.
        for (x, y) in [(a[0], c), (c, a[2]), (c, a[0]), (a[2], c)] {
            assert!(matches!(
                enc.solve_before(x, y, &mut never),
                SymOutcome::Sat(_)
            ));
        }
        match enc.solve_before(a[0], c, &mut never) {
            SymOutcome::Sat(model) => {
                let schedule = enc.decode_schedule(&model);
                let pos = |e: EventId| schedule.iter().position(|&x| x == e).unwrap();
                assert!(pos(a[0]) < pos(a[1]) && pos(a[1]) < pos(a[2]));
            }
            o => panic!("expected Sat, got {o:?}"),
        }
    }

    #[test]
    fn pair_index_is_a_bijection() {
        let n = 7;
        let mut seen = std::collections::HashSet::new();
        for a in 0..n {
            for b in (a + 1)..n {
                assert!(seen.insert(pair_index(n, a, b)));
            }
        }
        assert_eq!(seen.len(), n * (n - 1) / 2);
        assert_eq!(seen.iter().max(), Some(&(n * (n - 1) / 2 - 1)));
    }

    #[test]
    fn handshake_orders() {
        let (trace, ids) = fixtures::sem_handshake();
        let mut enc = encoding_of(&trace);
        // v before p is forced; p before v is infeasible.
        assert!(matches!(
            enc.solve_before(ids.v, ids.p, &mut never),
            SymOutcome::Sat(_)
        ));
        assert!(matches!(
            enc.solve_before(ids.p, ids.v, &mut never),
            SymOutcome::Unsat
        ));
        // The tails can run in either order; the decoded witness replays.
        match enc.solve_before(ids.after_p, ids.after_v, &mut never) {
            SymOutcome::Sat(model) => {
                let schedule = enc.decode_schedule(&model);
                let exec = trace.to_execution().unwrap();
                let machine = eo_model::Machine::new(exec.trace());
                assert!(
                    machine.replay(&schedule).is_ok(),
                    "decoded schedule replays"
                );
            }
            o => panic!("tails must reorder, got {o:?}"),
        }
    }

    #[test]
    fn overlap_on_independent_pair() {
        let (trace, a, b) = fixtures::independent_pair();
        let mut enc = encoding_of(&trace);
        assert!(matches!(
            enc.solve_overlap(a, b, &mut never),
            SymOutcome::Sat(_)
        ));
    }

    #[test]
    fn overlap_rejects_handshake_order() {
        let (trace, ids) = fixtures::sem_handshake();
        let mut enc = encoding_of(&trace);
        // v MHB p: they can never be co-enabled.
        assert!(matches!(
            enc.solve_overlap(ids.v, ids.p, &mut never),
            SymOutcome::Unsat
        ));
    }

    #[test]
    fn overlap_activation_clauses_are_reused() {
        let (trace, a, b) = fixtures::independent_pair();
        let mut enc = encoding_of(&trace);
        let _ = enc.solve_overlap(a, b, &mut never);
        let acts_after_first = enc.overlap_acts.len();
        let _ = enc.solve_overlap(a, b, &mut never);
        assert_eq!(
            enc.overlap_acts.len(),
            acts_after_first,
            "no fresh activations"
        );
    }

    #[test]
    fn interrupts_propagate() {
        let (trace, a, b) = fixtures::independent_pair();
        let mut enc = encoding_of(&trace);
        assert!(matches!(
            enc.solve_overlap(a, b, &mut |_| true),
            SymOutcome::Interrupted
        ));
    }
}
