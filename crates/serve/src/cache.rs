//! Cross-query caches: the pairwise fact store and the witness LRU.
//!
//! A session answers many queries about one program, and the queries
//! overlap heavily: MHB and CHB are complements across the diagonal
//! (`a CHB b ⇔ ¬(b MHB a)`), CCW is symmetric, MHB is transitive, and a
//! witness query decides the corresponding relation instance as a side
//! effect. The crate-private `FactStore` exploits exactly those identities — and only
//! those: every derivation rule here is an identity the exact engine
//! itself satisfies, so a fact-served answer is bit-identical to what a
//! fresh engine run would return.
//!
//! Deliberately **not** a rule: `a MHB b` does *not* refute `a CCW b`.
//! The operational could-be-concurrent relation asks whether both events
//! can be simultaneously *ready*, which a forced execution order does not
//! preclude. CCW facts come only from CCW-shaped answers (engine results,
//! the summary, or the polynomial guarantee relation, whose edges are
//! enablement orders and so refute CCW; see `decide_from_guarantee` in
//! `session.rs`).

use eo_engine::Query;
use eo_model::EventId;
use eo_relations::fxhash::FxHashMap;
use eo_relations::{BitSet, Relation};

/// Which decided relation a fact belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum FactKind {
    /// must-have-happened-before.
    Mhb,
    /// could-have-happened-before.
    Chb,
    /// operational could-be-concurrent.
    Ccw,
}

/// Decided pairwise facts for one program, with sound derivation.
///
/// Internally everything reduces to two matrices per relation family:
/// proved-true and proved-false MHB pairs (CHB is stored through the
/// complement identity) plus symmetric proved/refuted CCW pairs. MHB
/// truths are kept transitively closed incrementally, so proving `a → b`
/// and `b → c` separately still answers `a → c` without a search.
pub(crate) struct FactStore {
    n: usize,
    mhb_yes: Relation,
    mhb_no: Relation,
    /// Symmetric, keyed min→max.
    ccw_yes: Relation,
    /// Symmetric, keyed min→max.
    ccw_no: Relation,
}

impl FactStore {
    pub(crate) fn new(n: usize) -> Self {
        FactStore {
            n,
            mhb_yes: Relation::new(n),
            mhb_no: Relation::new(n),
            ccw_yes: Relation::new(n),
            ccw_no: Relation::new(n),
        }
    }

    /// Looks up a decided fact. `a == b` pairs are handled by the session
    /// (every relation here is irreflexive), not stored.
    pub(crate) fn lookup(&self, kind: FactKind, a: EventId, b: EventId) -> Option<bool> {
        let (a, b) = (a.index(), b.index());
        match kind {
            FactKind::Mhb => self.mhb(a, b),
            // a CHB b ⇔ ¬(b MHB a): the engine decides both through the
            // same witness search, so the identity is exact, not a bound.
            FactKind::Chb => self.mhb(b, a).map(|v| !v),
            FactKind::Ccw => {
                let (x, y) = (a.min(b), a.max(b));
                if self.ccw_yes.contains(x, y) {
                    Some(true)
                } else if self.ccw_no.contains(x, y) {
                    Some(false)
                } else {
                    None
                }
            }
        }
    }

    fn mhb(&self, a: usize, b: usize) -> Option<bool> {
        if self.mhb_yes.contains(a, b) {
            Some(true)
        } else if self.mhb_no.contains(a, b) {
            Some(false)
        } else {
            None
        }
    }

    /// Records a decided fact (an engine answer, a guarantee-relation
    /// consequence, or a summary entry).
    pub(crate) fn record(&mut self, kind: FactKind, a: EventId, b: EventId, value: bool) {
        let (a, b) = (a.index(), b.index());
        match kind {
            FactKind::Mhb => self.record_mhb(a, b, value),
            FactKind::Chb => self.record_mhb(b, a, !value),
            FactKind::Ccw => {
                let (x, y) = (a.min(b), a.max(b));
                if value {
                    self.ccw_yes.insert(x, y);
                } else {
                    self.ccw_no.insert(x, y);
                }
            }
        }
    }

    fn record_mhb(&mut self, a: usize, b: usize, value: bool) {
        if !value {
            self.mhb_no.insert(a, b);
            return;
        }
        if self.mhb_yes.contains(a, b) {
            return;
        }
        // Incremental transitive closure: everything reaching `a` now also
        // reaches `b` and everything `b` reaches. MHB is transitive (it
        // quantifies over the same set of induced orders), so the derived
        // pairs are exact engine answers, not approximations.
        let mut b_row: BitSet = self.mhb_yes.row(b).clone();
        b_row.insert(b);
        for x in 0..self.n {
            if x == a || self.mhb_yes.contains(x, a) {
                self.mhb_yes.row_mut(x).union_with(&b_row);
            }
        }
    }

    /// Seeds the store from the polynomial guarantee relation `g` (HMW
    /// safe orderings ∪ EGP task graph, transitively closed by the
    /// caller): `g(a,b)` proves `a MHB b` and refutes `CCW(a,b)` — the
    /// same sound rules `eo_engine::degraded` uses.
    pub(crate) fn seed_guarantee(&mut self, g: &Relation) {
        self.mhb_yes.union_with(g);
        self.mhb_yes.close_transitively();
        for (a, b) in g.pairs() {
            let (x, y) = (a.min(b), a.max(b));
            self.ccw_no.insert(x, y);
        }
    }

    /// Seeds every pairwise fact from a full exact summary: after one
    /// `summary` query, every later point query is a cache hit.
    pub(crate) fn seed_summary(&mut self, summary: &eo_engine::OrderingSummary) {
        for a in 0..self.n {
            for b in 0..self.n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                self.record_mhb(a, b, summary.mhb(ea, eb));
                if a < b {
                    self.record(FactKind::Ccw, ea, eb, summary.ccw(ea, eb));
                }
            }
        }
    }
}

/// A small LRU for witness schedules, keyed on the query (each session
/// owns one, over one program). Witnesses are the bulky answers — full schedules — so unlike
/// the bit-matrix fact store they are capacity-bounded: when full, the
/// least-recently-used entry is evicted (an O(capacity) scan; capacities
/// are small enough that a heap would cost more than it saves).
pub(crate) struct WitnessCache {
    capacity: usize,
    clock: u64,
    map: FxHashMap<Query, Entry>,
}

/// A cached witness answer (`None` = proved absent) plus its LRU stamp.
struct Entry {
    stamp: u64,
    witness: Option<Vec<EventId>>,
}

impl WitnessCache {
    pub(crate) fn new(capacity: usize) -> Self {
        WitnessCache {
            capacity,
            clock: 0,
            map: FxHashMap::default(),
        }
    }

    /// The cached witness for `query`, refreshing its recency. The outer
    /// `Option` is hit/miss; the inner one is the cached answer (`None`
    /// meaning "proved: no witness exists").
    pub(crate) fn get(&mut self, query: Query) -> Option<Option<Vec<EventId>>> {
        self.clock += 1;
        let clock = self.clock;
        let entry = self.map.get_mut(&query)?;
        entry.stamp = clock;
        Some(entry.witness.clone())
    }

    pub(crate) fn put(&mut self, query: Query, witness: Option<Vec<EventId>>) {
        if self.capacity == 0 {
            return;
        }
        self.clock += 1;
        self.map.insert(
            query,
            Entry {
                stamp: self.clock,
                witness,
            },
        );
        if self.map.len() > self.capacity {
            if let Some(oldest) = self
                .map
                .iter()
                .min_by_key(|(_, entry)| entry.stamp)
                .map(|(k, _)| *k)
            {
                self.map.remove(&oldest);
            }
        }
    }

    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: usize) -> EventId {
        EventId::new(i)
    }

    #[test]
    fn chb_is_served_through_the_mhb_complement() {
        let mut f = FactStore::new(4);
        f.record(FactKind::Mhb, e(1), e(2), true);
        assert_eq!(f.lookup(FactKind::Chb, e(2), e(1)), Some(false));
        assert_eq!(f.lookup(FactKind::Chb, e(1), e(2)), None, "not implied");
        f.record(FactKind::Chb, e(0), e(3), true);
        assert_eq!(f.lookup(FactKind::Mhb, e(3), e(0)), Some(false));
    }

    #[test]
    fn mhb_truths_close_transitively_but_falsehoods_do_not() {
        let mut f = FactStore::new(4);
        f.record(FactKind::Mhb, e(0), e(1), true);
        f.record(FactKind::Mhb, e(1), e(2), true);
        assert_eq!(f.lookup(FactKind::Mhb, e(0), e(2)), Some(true));
        f.record(FactKind::Mhb, e(2), e(3), false);
        assert_eq!(f.lookup(FactKind::Mhb, e(1), e(3)), None);
    }

    #[test]
    fn ccw_is_symmetric_and_mhb_does_not_refute_it() {
        let mut f = FactStore::new(4);
        f.record(FactKind::Ccw, e(2), e(1), true);
        assert_eq!(f.lookup(FactKind::Ccw, e(1), e(2)), Some(true));
        f.record(FactKind::Mhb, e(0), e(3), true);
        assert_eq!(
            f.lookup(FactKind::Ccw, e(0), e(3)),
            None,
            "an execution-order fact must not decide operational overlap"
        );
    }

    #[test]
    fn witness_lru_evicts_the_least_recently_used() {
        let mut c = WitnessCache::new(2);
        let q = |i: usize| Query::WitnessBefore {
            first: e(i),
            second: e(i + 1),
        };
        c.put(q(0), Some(vec![e(0)]));
        c.put(q(1), None);
        assert_eq!(c.get(q(0)), Some(Some(vec![e(0)]))); // refresh q(0)
        c.put(q(2), None); // evicts q(1)
        assert_eq!(c.len(), 2);
        assert!(c.get(q(1)).is_none());
        assert_eq!(c.get(q(0)), Some(Some(vec![e(0)])));
    }
}
