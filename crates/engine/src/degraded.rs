//! Sound degraded answers for analyses the supervisor stopped early.
//!
//! Theorems 1–4 make the exact relations intractable in the worst case,
//! so a budgeted run can end with the state space or the class
//! enumeration only partially explored. This module squeezes every drop
//! of *sound* information out of such a partial run by sandwiching it
//! between two one-sided approximations:
//!
//! * **Existential facts from the partial exact pass.** The truncated
//!   cut-lattice pass only marks a state completable when a fully
//!   explored complete state is reachable from it through recorded
//!   edges, so every CHB/overlap bit it sets is witnessed by a genuinely
//!   feasible execution — a partial graph under-approximates but never
//!   fabricates. Likewise every induced order the truncated enumeration
//!   recorded came from a complete feasible schedule. Facts proved this
//!   way are tagged [`Fact::Exact`].
//! * **Universal facts from the polynomial guarantee baselines.** The
//!   happened-before closure of `eo_approx`'s HMW safe orderings
//!   ([`SafeOrderings`](eo_approx::SafeOrderings)) and EGP task graph
//!   ([`TaskGraph`](eo_approx::TaskGraph)) hold in *every* execution of
//!   the same events — they are sound under-approximations of MHB in
//!   both feasibility modes. `G(a,b)` therefore proves `a MHB b` and
//!   refutes `b CHB a`. It also refutes `CCW(a,b)`, though not because
//!   of MHB: every edge of G is an enablement order (`b` is never enabled
//!   before `a` has executed; DESIGN.md §10 gives the argument rule by
//!   rule), so the two are never enabled together. None of these facts
//!   needs a search; they are tagged [`Fact::Bounded`].
//!
//!   (The vector-clock baseline is deliberately **not** used here: as
//!   DESIGN.md and experiment E7 show, its Lamport-style V→P matching
//!   can order events that a different feasible token matching leaves
//!   concurrent, so it is not a sound bound on MHB.)
//!
//! Pairs neither side decides are [`Fact::Unknown`]. By construction a
//! decided fact never contradicts the unbudgeted oracle — the
//! differential test suite asserts exactly that on every fixture.

use crate::ctx::SearchCtx;
use crate::engine::EngineError;
use crate::statespace::StateSpaceResult;
use crate::summary::OrderingSummary;
use eo_model::EventId;
use eo_relations::Relation;

/// What a degraded run knows about one relation instance.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fact {
    /// Decided by the partial exact pass (a concrete witness, or a
    /// complete state space): the oracle's answer.
    Exact(bool),
    /// Decided by a sound polynomial bound (HMW ∪ EGP): guaranteed to
    /// match the oracle, but proved without search.
    Bounded(bool),
    /// The budget ran out before either side could decide.
    Unknown,
}

impl Fact {
    /// The decided value, if any.
    #[inline]
    pub fn decided(self) -> Option<bool> {
        match self {
            Fact::Exact(v) | Fact::Bounded(v) => Some(v),
            Fact::Unknown => None,
        }
    }

    /// Whether the fact is decided at all.
    #[inline]
    pub fn is_decided(self) -> bool {
        !matches!(self, Fact::Unknown)
    }
}

/// The structured result of an analysis the supervisor stopped early:
/// per-pair MHB/CHB/CCW facts, each tagged with how it was decided, plus
/// the stop reason and partial-progress counters.
///
/// Built by [`ExactEngine::analyze`](crate::ExactEngine::analyze) when
/// the budget runs out; every decided fact is consistent with what the
/// unbudgeted engine would answer (see the module docs for why).
#[derive(Clone, Debug)]
pub struct DegradedSummary {
    n: usize,
    reason: EngineError,
    /// Row-major n×n fact matrices (diagonal entries are `Exact(false)`).
    mhb: Vec<Fact>,
    chb: Vec<Fact>,
    ccw: Vec<Fact>,
    states_explored: usize,
    completable_states: usize,
    orders_found: usize,
    space_complete: bool,
}

impl DegradedSummary {
    /// Derives the fact matrices from a (possibly partial) cut-lattice
    /// pass and the induced orders a (possibly truncated) enumeration
    /// recorded. `space_complete` says the lattice pass finished — its
    /// relations are then exact even though the enumeration was cut.
    pub(crate) fn build(
        ctx: &SearchCtx<'_>,
        space: &StateSpaceResult,
        space_complete: bool,
        orders: &[Relation],
        reason: EngineError,
    ) -> DegradedSummary {
        let n = ctx.n_events();
        let exec = ctx.exec();
        eo_obs::gauge_str(eo_obs::report::DEGRADATION_CAUSE, reason.cause_label());

        // The guarantee relation G: sound MHB under-approximation.
        let mut g = eo_approx::SafeOrderings::compute(exec).relation().clone();
        g.union_with(eo_approx::TaskGraph::build(exec).relation());

        // Witnesses from the recorded complete schedules.
        let mut ord_some = Relation::new(n);
        let mut unord_some = Relation::new(n);
        for order in orders {
            ord_some.union_with(order);
            for a in 0..n {
                for b in (a + 1)..n {
                    if order.unordered(a, b) {
                        unord_some.insert(a, b);
                        unord_some.insert(b, a);
                    }
                }
            }
        }

        let mut mhb = vec![Fact::Unknown; n * n];
        let mut chb = vec![Fact::Unknown; n * n];
        let mut ccw = vec![Fact::Unknown; n * n];
        for a in 0..n {
            for b in 0..n {
                let i = a * n + b;
                if a == b {
                    mhb[i] = Fact::Exact(false);
                    chb[i] = Fact::Exact(false);
                    ccw[i] = Fact::Exact(false);
                    continue;
                }
                if space_complete {
                    // A finished lattice pass answers all three exactly,
                    // independent of how far the enumeration got.
                    mhb[i] = Fact::Exact(!space.chb.contains(b, a));
                    chb[i] = Fact::Exact(space.chb.contains(a, b));
                    ccw[i] = Fact::Exact(space.overlap.contains(a, b));
                    continue;
                }
                // A recorded order leaving the pair unordered witnesses
                // both temporal orders (and an operational overlap, since
                // induced concurrency implies operational concurrency).
                let chb_ab_true = space.chb.contains(a, b)
                    || ord_some.contains(a, b)
                    || unord_some.contains(a, b);
                let chb_ba_true = space.chb.contains(b, a)
                    || ord_some.contains(b, a)
                    || unord_some.contains(a, b);

                chb[i] = if chb_ab_true {
                    Fact::Exact(true)
                } else if g.contains(b, a) {
                    // b before a in every execution: a never precedes b.
                    Fact::Bounded(false)
                } else {
                    Fact::Unknown
                };
                // a MHB b ⇔ ¬CHB(b,a); a CHB(b,a) witness refutes it
                // exactly, and G proves it outright.
                mhb[i] = if chb_ba_true {
                    Fact::Exact(false)
                } else if g.contains(a, b) {
                    Fact::Bounded(true)
                } else {
                    Fact::Unknown
                };
                ccw[i] = if space.overlap.contains(a, b) || unord_some.contains(a, b) {
                    Fact::Exact(true)
                } else if g.contains(a, b) || g.contains(b, a) {
                    // A guaranteed order in either direction rules out
                    // any overlap.
                    Fact::Bounded(false)
                } else {
                    Fact::Unknown
                };
            }
        }

        DegradedSummary {
            n,
            reason,
            mhb,
            chb,
            ccw,
            states_explored: space.states,
            completable_states: space.completable_states,
            orders_found: orders.len(),
            space_complete,
        }
    }

    /// Number of events.
    #[inline]
    pub fn n_events(&self) -> usize {
        self.n
    }

    /// Why the supervisor stopped the exact analysis.
    pub fn reason(&self) -> &EngineError {
        &self.reason
    }

    /// What the run knows about `a MHB b`.
    pub fn mhb(&self, a: EventId, b: EventId) -> Fact {
        self.mhb[a.index() * self.n + b.index()]
    }

    /// What the run knows about `a CHB b`.
    pub fn chb(&self, a: EventId, b: EventId) -> Fact {
        self.chb[a.index() * self.n + b.index()]
    }

    /// What the run knows about operational `a CCW b`.
    pub fn ccw(&self, a: EventId, b: EventId) -> Fact {
        self.ccw[a.index() * self.n + b.index()]
    }

    /// Cut-lattice states explored before the stop.
    #[inline]
    pub fn states_explored(&self) -> usize {
        self.states_explored
    }

    /// States proved completable in the partial lattice.
    #[inline]
    pub fn completable_states(&self) -> usize {
        self.completable_states
    }

    /// Distinct induced orders recorded before the stop (a lower bound on
    /// |F(P)|).
    #[inline]
    pub fn orders_found(&self) -> usize {
        self.orders_found
    }

    /// Whether the cut-lattice pass ran to completion (only the class
    /// enumeration was cut).
    #[inline]
    pub fn space_complete(&self) -> bool {
        self.space_complete
    }

    /// `(exact, bounded, unknown)` tallies for one fact matrix over the
    /// off-diagonal pairs.
    fn tally(&self, facts: &[Fact]) -> (usize, usize, usize) {
        let mut t = (0, 0, 0);
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                match facts[a * self.n + b] {
                    Fact::Exact(_) => t.0 += 1,
                    Fact::Bounded(_) => t.1 += 1,
                    Fact::Unknown => t.2 += 1,
                }
            }
        }
        t
    }

    /// `(exact, bounded, unknown)` MHB tallies over ordered pairs.
    pub fn mhb_counts(&self) -> (usize, usize, usize) {
        self.tally(&self.mhb)
    }

    /// `(exact, bounded, unknown)` CHB tallies over ordered pairs.
    pub fn chb_counts(&self) -> (usize, usize, usize) {
        self.tally(&self.chb)
    }

    /// `(exact, bounded, unknown)` CCW tallies over ordered pairs.
    pub fn ccw_counts(&self) -> (usize, usize, usize) {
        self.tally(&self.ccw)
    }

    /// Total relation instances the summary covers: MHB, CHB and CCW over
    /// every ordered pair of distinct events.
    pub fn total_pairs(&self) -> usize {
        3 * self.n * self.n.saturating_sub(1)
    }

    /// How many of [`total_pairs`](Self::total_pairs) are decided
    /// (exactly or by a bound).
    pub fn decided_pairs(&self) -> usize {
        let (me, mb, _) = self.mhb_counts();
        let (ce, cb, _) = self.chb_counts();
        let (oe, ob, _) = self.ccw_counts();
        me + mb + ce + cb + oe + ob
    }

    /// Fraction of relation instances decided, in `[0, 1]` (1.0 for an
    /// empty event set).
    pub fn decided_fraction(&self) -> f64 {
        let total = self.total_pairs();
        if total == 0 {
            1.0
        } else {
            self.decided_pairs() as f64 / total as f64
        }
    }

    /// Upgrades `Unknown` facts from an external guarantee-style ordering
    /// relation: `ordered(a, b)` must mean "`a` completes before `b`
    /// begins in every execution" (for example the event-level projection
    /// of the `eo-mhp` whole-program verdicts). The rules are exactly the
    /// ones the polynomial G bound uses — `ordered(a,b)` proves `a MHB b`,
    /// refutes `b CHB a`, and refutes `CCW(a,b)` — so upgraded facts are
    /// tagged [`Fact::Bounded`] and stay consistent with the oracle.
    /// Already-decided facts are never overwritten.
    ///
    /// # Panics
    /// Panics if the relation's dimension differs from the event count.
    pub fn apply_static_bounds(&mut self, ordered: &Relation) {
        assert_eq!(
            ordered.len(),
            self.n,
            "static ordering relation must be over this summary's events"
        );
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                let i = a * self.n + b;
                let (ab, ba) = (ordered.contains(a, b), ordered.contains(b, a));
                if self.mhb[i] == Fact::Unknown && ab {
                    self.mhb[i] = Fact::Bounded(true);
                }
                if self.chb[i] == Fact::Unknown && ba {
                    self.chb[i] = Fact::Bounded(false);
                }
                if self.ccw[i] == Fact::Unknown && (ab || ba) {
                    self.ccw[i] = Fact::Bounded(false);
                }
            }
        }
    }

    /// Verifies every decided fact against an unbudgeted oracle summary,
    /// returning a description of the first contradiction. The
    /// differential suite runs this on every fixture; a failure means a
    /// soundness bug, not bad luck.
    pub fn check_consistency_against(&self, oracle: &OrderingSummary) -> Result<(), String> {
        if self.n != oracle.n_events() {
            return Err(format!(
                "event-count mismatch: degraded {} vs oracle {}",
                self.n,
                oracle.n_events()
            ));
        }
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                let checks = [
                    ("MHB", self.mhb(ea, eb), oracle.mhb(ea, eb)),
                    ("CHB", self.chb(ea, eb), oracle.chb(ea, eb)),
                    ("CCW", self.ccw(ea, eb), oracle.ccw(ea, eb)),
                ];
                for (name, fact, truth) in checks {
                    if let Some(claim) = fact.decided() {
                        if claim != truth {
                            return Err(format!(
                                "{name}({ea},{eb}): degraded claims {claim} ({fact:?}) \
                                 but the oracle says {truth}"
                            ));
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fact_decided_projection() {
        assert_eq!(Fact::Exact(true).decided(), Some(true));
        assert_eq!(Fact::Bounded(false).decided(), Some(false));
        assert_eq!(Fact::Unknown.decided(), None);
        assert!(Fact::Exact(false).is_decided());
        assert!(!Fact::Unknown.is_decided());
    }
}
