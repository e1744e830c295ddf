//! The partial order a schedule *induces*.
//!
//! Given one valid schedule σ of a trace's events, which orderings did
//! that execution actually force? The paper's →T for the observed
//! execution — and the →T′ of every alternate feasible execution the
//! engine explores — is the transitive closure of:
//!
//! 1. **program order** — consecutive events of the same process;
//! 2. **fork/join edges** — fork → first event of each child, last event
//!    of each child → join (or fork → join directly for eventless
//!    children);
//! 3. **shared-data dependences** — the →D pairs (condition F3 carries
//!    them into every feasible execution, so they are part of every
//!    induced order);
//! 4. **semaphore pairings** — matching the i-th completed `P(s)` with the
//!    i-th `V(s)` of σ (initial tokens match nothing). Any injective
//!    V-to-P matching yields a valid execution, so the FIFO matching is a
//!    canonical choice; every linear extension of the closed relation is
//!    again a valid schedule (each executed `P`'s matched `V` precedes it,
//!    and matched `V`s are distinct, so counters never go negative);
//! 5. **event-variable causality** — each `Wait(v)` is ordered after the
//!    `Post(v)` that (most recently) set the flag it observed, every
//!    earlier `Clear(v)` is ordered before that Post, and every `Clear(v)`
//!    is ordered after all `Wait`s it follows. These placement edges make
//!    the induced order *self-consistent*: no linear extension can slide a
//!    `Clear` between a Post and the Wait it triggered, so every extension
//!    remains a valid schedule.
//!
//! Two schedules inducing the same relation are the same *feasible program
//! execution* in the sense of the paper's F(P); the engine deduplicates on
//! exactly this value.

use crate::event::Op;
use crate::ids::EventId;
use crate::trace::Trace;
use eo_relations::{closure, Relation};

/// The static constraint edges every feasible execution shares: program
/// order, fork/join edges, and the shared-data dependences `d`.
///
/// This is the schedule-independent part of the induced order; the engine
/// uses it to gate which events may execute (an event must wait for its
/// program-order, fork and →D predecessors).
pub fn base_edges(trace: &Trace, d: &Relation) -> Relation {
    let n = trace.n_events();
    let mut rel = Relation::new(n);
    let per_process = trace.per_process();

    // Program order (immediate edges; closure restores the rest).
    for list in &per_process {
        for pair in list.windows(2) {
            rel.insert(pair[0].index(), pair[1].index());
        }
    }

    // Fork and join edges.
    for e in &trace.events {
        match &e.op {
            Op::Fork(children) => {
                for c in children {
                    if let Some(&first) = per_process[c.index()].first() {
                        rel.insert(e.id.index(), first.index());
                    }
                }
            }
            Op::Join(children) => {
                for c in children {
                    match per_process[c.index()].last() {
                        Some(&last) => {
                            rel.insert(last.index(), e.id.index());
                        }
                        None => {
                            // Eventless child: the join still cannot fire
                            // before the child exists, i.e. before its fork.
                            if let Some(fork) = trace.processes[c.index()].created_by {
                                rel.insert(fork.index(), e.id.index());
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }

    // Shared-data dependences.
    for (a, b) in d.pairs() {
        rel.insert(a, b);
    }
    rel
}

/// The edge set the schedule `order` induces (see the module docs for the
/// five edge families). Not transitively closed; pair with
/// [`induced_order`] for the closed relation.
///
/// `order` must be a valid complete schedule of `trace`'s events (the
/// engine guarantees this by construction; [`crate::Machine::replay`]
/// checks arbitrary input).
pub fn induced_edges(trace: &Trace, d: &Relation, order: &[EventId]) -> Relation {
    let mut rel = base_edges(trace, d);
    scan_pairings(trace, order, |a, b| {
        rel.insert(a.index(), b.index());
    });
    rel
}

/// The schedule-dependent part of [`induced_edges`]: the semaphore
/// pairings and event-variable causality edges of `order` (families 4
/// and 5), without the base edges. The induced edge set is exactly
/// `base_edges(trace, d) ∪ pairing_edges(trace, order)`.
pub fn pairing_edges(trace: &Trace, order: &[EventId]) -> Relation {
    let mut rel = Relation::new(trace.n_events());
    scan_pairings(trace, order, |a, b| {
        rel.insert(a.index(), b.index());
    });
    rel
}

/// The pairing scan behind [`induced_edges`] and [`pairing_edges`]:
/// replays `order` through per-semaphore FIFO token queues and
/// per-event-variable causality state, calling `emit(a, b)` for every
/// pairing edge `a → b` (a clear→post placement edge once per Wait that
/// observes the post).
fn scan_pairings(trace: &Trace, order: &[EventId], mut emit: impl FnMut(EventId, EventId)) {
    // Per-semaphore FIFO token queues. `None` entries are initial tokens.
    let mut tokens: Vec<std::collections::VecDeque<Option<EventId>>> = trace
        .semaphores
        .iter()
        .map(|s| (0..s.initial).map(|_| None).collect())
        .collect();

    // Per-event-variable causality state.
    struct EvState {
        current_post: Option<EventId>,
        clears: Vec<EventId>,
        waits: Vec<EventId>,
        flag: bool,
    }
    let mut evs: Vec<EvState> = trace
        .event_vars
        .iter()
        .map(|v| EvState {
            current_post: None,
            clears: Vec::new(),
            waits: Vec::new(),
            flag: v.initially_set,
        })
        .collect();

    for &eid in order {
        let e = trace.event(eid);
        match &e.op {
            Op::SemV(s) => tokens[s.index()].push_back(Some(eid)),
            Op::SemP(s) => {
                let token = tokens[s.index()]
                    .pop_front()
                    .expect("invalid schedule: P on an empty semaphore");
                if let Some(v) = token {
                    emit(v, eid);
                }
            }
            Op::Post(v) => {
                let st = &mut evs[v.index()];
                st.current_post = Some(eid);
                st.flag = true;
            }
            Op::Clear(v) => {
                let st = &mut evs[v.index()];
                st.current_post = None;
                st.flag = false;
                // Every Wait that already fired must stay before this
                // Clear in any re-execution of this class.
                for &w in &st.waits {
                    emit(w, eid);
                }
                st.clears.push(eid);
            }
            Op::Wait(v) => {
                let st = &mut evs[v.index()];
                assert!(st.flag, "invalid schedule: Wait on a clear flag");
                if let Some(p) = st.current_post {
                    emit(p, eid);
                    // All earlier Clears precede the triggering Post (a
                    // Clear between would have unset the flag).
                    for &c in &st.clears {
                        emit(c, p);
                    }
                }
                // `current_post == None` with the flag set means the
                // initial flag triggered this Wait; there can have been no
                // Clear yet, so nothing to place.
                st.waits.push(eid);
            }
            Op::Compute | Op::Fork(_) | Op::Join(_) => {}
        }
    }
}

/// The transitively closed partial order induced by `order` — one element
/// of the paper's F(P).
///
/// # Panics
/// Panics (debug assertion) if the edge set is cyclic, which would mean
/// `order` was not a valid schedule.
pub fn induced_order(trace: &Trace, d: &Relation, order: &[EventId]) -> Relation {
    let edges = induced_edges(trace, d, order);
    match closure::dfs_closure(&edges) {
        Some(closed) => closed,
        None => unreachable!("induced edges of a valid schedule form a DAG"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    #[test]
    fn program_order_is_induced() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        let a = tb.compute(p, "a");
        let b = tb.compute(p, "b");
        let c = tb.compute(p, "c");
        let t = tb.build().unwrap();
        let d = Relation::new(3);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.contains(a.index(), b.index()));
        assert!(r.contains(a.index(), c.index()), "closure includes a->c");
        assert!(!r.contains(c.index(), a.index()));
    }

    #[test]
    fn independent_processes_stay_unordered() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let a = tb.compute(p0, "a");
        let b = tb.compute(p1, "b");
        let t = tb.build().unwrap();
        let d = Relation::new(2);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(
            r.unordered(a.index(), b.index()),
            "observed order is not forced"
        );
    }

    #[test]
    fn semaphore_pairing_is_fifo() {
        // V1 V2 P1 P2: FIFO matches V1->P1, V2->P2; V2->P1 is NOT forced.
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let p2 = tb.process("p2");
        let p3 = tb.process("p3");
        let s = tb.semaphore("s", 0);
        let v1 = tb.push(p0, Op::SemV(s));
        let v2 = tb.push(p1, Op::SemV(s));
        let q1 = tb.push(p2, Op::SemP(s));
        let q2 = tb.push(p3, Op::SemP(s));
        let t = tb.build().unwrap();
        let d = Relation::new(4);
        let edges = induced_edges(&t, &d, &t.observed_order());
        assert!(edges.contains(v1.index(), q1.index()));
        assert!(edges.contains(v2.index(), q2.index()));
        assert!(!edges.contains(v2.index(), q1.index()));
        assert!(!edges.contains(v1.index(), q2.index()));
    }

    #[test]
    fn pairing_edges_complete_the_base_edges() {
        // σ = Clear; V; Post; P; Wait: one edge of each pairing family on
        // top of the program order of the two-event process.
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let p2 = tb.process("p2");
        let s = tb.semaphore("s", 0);
        let v = tb.event_var("v", true);
        let c = tb.push(p0, Op::Clear(v));
        let sv = tb.push(p0, Op::SemV(s));
        let post = tb.push(p1, Op::Post(v));
        let sp = tb.push(p1, Op::SemP(s));
        let w = tb.push(p2, Op::Wait(v));
        let t = tb.build().unwrap();
        let d = Relation::new(5);
        let order = t.observed_order();
        let pairing = pairing_edges(&t, &order);
        let mut want = Relation::new(5);
        for (a, b) in [(sv, sp), (post, w), (c, post)] {
            want.insert(a.index(), b.index());
        }
        assert_eq!(pairing, want);
        let mut rebuilt = base_edges(&t, &d);
        rebuilt.union_with(&pairing);
        assert_eq!(rebuilt, induced_edges(&t, &d, &order));
    }

    #[test]
    fn initial_tokens_force_nothing() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 1);
        let q = tb.push(p0, Op::SemP(s)); // consumes the initial token
        let v = tb.push(p1, Op::SemV(s));
        let t = tb.build().unwrap();
        let d = Relation::new(2);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.unordered(q.index(), v.index()));
    }

    #[test]
    fn wait_is_ordered_after_its_post() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let v = tb.event_var("v", false);
        let post = tb.push(p0, Op::Post(v));
        let wait = tb.push(p1, Op::Wait(v));
        let t = tb.build().unwrap();
        let d = Relation::new(2);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.contains(post.index(), wait.index()));
    }

    #[test]
    fn clear_placement_edges_protect_the_trigger() {
        // σ = Clear(c); Post(p); Wait(w): induced order must force c -> p,
        // otherwise the extension p, c, w would be invalid.
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("clearer");
        let p1 = tb.process("poster");
        let p2 = tb.process("waiter");
        let v = tb.event_var("v", true); // set so the leading Clear is meaningful
        let c = tb.push(p0, Op::Clear(v));
        let p = tb.push(p1, Op::Post(v));
        let w = tb.push(p2, Op::Wait(v));
        let t = tb.build().unwrap();
        let d = Relation::new(3);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(
            r.contains(c.index(), p.index()),
            "clear forced before the post"
        );
        assert!(r.contains(p.index(), w.index()));
        assert!(r.contains(c.index(), w.index()), "by transitivity");
    }

    #[test]
    fn fired_wait_is_ordered_before_later_clear() {
        // σ = Post; Wait; Clear: the Wait must stay before the Clear.
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("poster");
        let p1 = tb.process("waiter");
        let p2 = tb.process("clearer");
        let v = tb.event_var("v", false);
        tb.push(p0, Op::Post(v));
        let w = tb.push(p1, Op::Wait(v));
        let c = tb.push(p2, Op::Clear(v));
        let t = tb.build().unwrap();
        let d = Relation::new(3);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.contains(w.index(), c.index()));
    }

    #[test]
    fn initially_set_wait_has_no_trigger_edge() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("waiter");
        let p1 = tb.process("other");
        let v = tb.event_var("v", true);
        let w = tb.push(p0, Op::Wait(v));
        let x = tb.compute(p1, "x");
        let t = tb.build().unwrap();
        let d = Relation::new(2);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.unordered(w.index(), x.index()));
        assert_eq!(r.pair_count(), 0);
    }

    #[test]
    fn dependences_enter_the_induced_order() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("writer");
        let p1 = tb.process("reader");
        let x = tb.variable("x");
        let w = tb.write(p0, x, "w");
        let r_ = tb.read(p1, x, "r");
        let t = tb.build().unwrap();
        let mut d = Relation::new(2);
        d.insert(w.index(), r_.index());
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.contains(w.index(), r_.index()));
    }

    #[test]
    fn fork_join_edges() {
        let mut tb = TraceBuilder::new();
        let main = tb.process("main");
        let (f, kids) = tb.fork(main, &["a"]);
        let work = tb.compute(kids[0], "w");
        let j = tb.join(main, &kids);
        let t = tb.build().unwrap();
        let d = Relation::new(3);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.contains(f.index(), work.index()));
        assert!(r.contains(work.index(), j.index()));
        assert!(r.contains(f.index(), j.index()));
    }

    #[test]
    fn eventless_child_still_orders_join_after_fork() {
        let mut tb = TraceBuilder::new();
        let main = tb.process("main");
        let (f, kids) = tb.fork(main, &["empty"]);
        let j = tb.join(main, &kids);
        let t = tb.build().unwrap();
        let d = Relation::new(2);
        let edges = base_edges(&t, &d);
        assert!(edges.contains(f.index(), j.index()));
    }

    #[test]
    fn induced_order_is_a_strict_partial_order() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 0);
        tb.push(p0, Op::SemV(s));
        tb.compute(p0, "mid");
        tb.push(p1, Op::SemP(s));
        tb.compute(p1, "tail");
        let t = tb.build().unwrap();
        let d = Relation::new(4);
        let r = induced_order(&t, &d, &t.observed_order());
        assert!(r.is_strict_partial_order());
    }
}
