//! An n×n bit-matrix binary relation.
//!
//! [`Relation`] represents a binary relation R ⊆ {0..n}² as one [`BitSet`]
//! row per source index: `rel.contains(a, b)` means `a R b`. In the
//! event-ordering library this is the concrete form of the paper's →T
//! (temporal ordering) and →D (shared-data dependence) relations, of every
//! induced partial order the feasibility engine produces, and of every
//! baseline's output — so the six ordering relations of Table 1 all come
//! out of relation algebra on this type.

use crate::bitset::BitSet;
use crate::closure;

/// A binary relation over the index set `0..len`, stored as a dense bit
/// matrix (row-major; row `a` holds the successors of `a`).
///
/// `Relation` implements `Hash`/`Eq`, which the feasibility engine uses to
/// deduplicate induced partial orders: two feasible program executions are
/// the same element of F(P) exactly when their induced →T′ matrices are
/// equal.
#[derive(PartialEq, Eq, Hash)]
pub struct Relation {
    len: usize,
    rows: Vec<BitSet>,
}

impl Clone for Relation {
    #[inline]
    fn clone(&self) -> Self {
        Relation {
            len: self.len,
            rows: self.rows.clone(),
        }
    }

    /// Buffer-reusing `clone_from`: row by row through
    /// [`BitSet::clone_from`], so copying between equal-size relations
    /// allocates nothing.
    #[inline]
    fn clone_from(&mut self, src: &Self) {
        self.len = src.len;
        self.rows.clone_from(&src.rows);
    }
}

impl Relation {
    /// Creates the empty relation over `0..len`.
    pub fn new(len: usize) -> Self {
        Relation {
            len,
            rows: (0..len).map(|_| BitSet::new(len)).collect(),
        }
    }

    /// Creates the identity relation { (i,i) } over `0..len`.
    pub fn identity(len: usize) -> Self {
        let mut r = Relation::new(len);
        for i in 0..len {
            r.insert(i, i);
        }
        r
    }

    /// Creates a relation from an edge list.
    ///
    /// # Panics
    /// Panics if any endpoint is `>= len`.
    pub fn from_edges(len: usize, edges: impl IntoIterator<Item = (usize, usize)>) -> Self {
        let mut r = Relation::new(len);
        for (a, b) in edges {
            r.insert(a, b);
        }
        r
    }

    /// The number of indices the relation ranges over.
    ///
    /// (`is_empty` would be ambiguous here — empty *domain* vs. empty
    /// *pair set* — so the sibling predicates are the explicit
    /// [`Relation::is_empty_domain`] and `pair_count() == 0`.)
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True iff the index set is empty (a relation over zero indices).
    #[inline]
    pub fn is_empty_domain(&self) -> bool {
        self.len == 0
    }

    /// Adds the pair `(a, b)`, returning `true` if it was newly added.
    ///
    /// # Panics
    /// Panics if `a >= len` or `b >= len`.
    #[inline]
    pub fn insert(&mut self, a: usize, b: usize) -> bool {
        assert!(
            a < self.len,
            "Relation source {a} out of range {}",
            self.len
        );
        self.rows[a].insert(b)
    }

    /// Removes the pair `(a, b)`, returning `true` if it was present.
    #[inline]
    pub fn remove(&mut self, a: usize, b: usize) -> bool {
        assert!(
            a < self.len,
            "Relation source {a} out of range {}",
            self.len
        );
        self.rows[a].remove(b)
    }

    /// Tests whether `a R b`.
    #[inline]
    pub fn contains(&self, a: usize, b: usize) -> bool {
        a < self.len && self.rows[a].contains(b)
    }

    /// True iff `a` and `b` are unordered by this relation in both
    /// directions — the "concurrent" test when the relation is a temporal
    /// partial order (the paper's `a ∥T b`).
    #[inline]
    pub fn unordered(&self, a: usize, b: usize) -> bool {
        !self.contains(a, b) && !self.contains(b, a)
    }

    /// The successor row of `a` (all `b` with `a R b`).
    #[inline]
    pub fn row(&self, a: usize) -> &BitSet {
        &self.rows[a]
    }

    /// Mutable successor row of `a` (for word-parallel row updates).
    #[inline]
    pub fn row_mut(&mut self, a: usize) -> &mut BitSet {
        &mut self.rows[a]
    }

    /// Number of pairs in the relation.
    pub fn pair_count(&self) -> usize {
        self.rows.iter().map(BitSet::count).sum()
    }

    /// A 128-bit fingerprint of the full bit matrix.
    ///
    /// Equal relations always fingerprint equally; the converse holds
    /// modulo a 2⁻¹²⁸-scale collision chance, which is what lets the
    /// enumeration engine deduplicate induced orders by fingerprint
    /// instead of retaining every closed matrix (the `debug_assertions`
    /// builds keep the matrices too and assert the two dedup decisions
    /// agree). Two independent lanes: an XOR lane over position-salted
    /// word mixes (order-free, so zero words cost nothing) and a
    /// sequentially-chained lane, so single-word and transposition-style
    /// differences perturb both halves.
    pub fn fingerprint128(&self) -> u128 {
        let mut h1: u64 = 0x9E37_79B9_7F4A_7C15 ^ (self.len as u64);
        let mut h2: u64 = 0xC2B2_AE3D_27D4_EB4F ^ ((self.len as u64) << 32);
        for (i, row) in self.rows.iter().enumerate() {
            for (j, &w) in row.words().iter().enumerate() {
                if w != 0 {
                    let m = mix64(w ^ ((i as u64) << 32) ^ ((j as u64) << 8));
                    h1 ^= m;
                    h2 = mix64(h2 ^ m);
                }
            }
        }
        ((h1 as u128) << 64) | h2 as u128
    }

    /// Iterates over all pairs `(a, b)` in row-major order.
    pub fn pairs(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.rows
            .iter()
            .enumerate()
            .flat_map(|(a, row)| row.iter().map(move |b| (a, b)))
    }

    /// In-place union: `self ← self ∪ other`. Returns `true` if `self`
    /// changed.
    ///
    /// # Panics
    /// Panics if domain sizes differ.
    pub fn union_with(&mut self, other: &Relation) -> bool {
        assert_eq!(self.len, other.len, "Relation domain mismatch");
        let mut changed = false;
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            changed |= a.union_with(b);
        }
        changed
    }

    /// In-place intersection: `self ← self ∩ other`. Returns `true` if
    /// `self` changed.
    ///
    /// # Panics
    /// Panics if domain sizes differ.
    pub fn intersect_with(&mut self, other: &Relation) -> bool {
        assert_eq!(self.len, other.len, "Relation domain mismatch");
        let mut changed = false;
        for (a, b) in self.rows.iter_mut().zip(&other.rows) {
            changed |= a.intersect_with(b);
        }
        changed
    }

    /// The transpose (inverse) relation { (b,a) : a R b }.
    pub fn transpose(&self) -> Relation {
        let mut t = Relation::new(self.len);
        for (a, b) in self.pairs() {
            t.insert(b, a);
        }
        t
    }

    /// Relational composition `self ; other` = { (a,c) : ∃b. a R b ∧ b S c }.
    ///
    /// Implemented row-wise and word-parallel: row `a` of the result is the
    /// union of `other`'s rows selected by row `a` of `self`.
    ///
    /// # Panics
    /// Panics if domain sizes differ.
    pub fn compose(&self, other: &Relation) -> Relation {
        assert_eq!(self.len, other.len, "Relation domain mismatch");
        let mut out = Relation::new(self.len);
        for a in 0..self.len {
            // Split borrow: build the row separately, then store it.
            let mut acc = BitSet::new(self.len);
            for b in self.rows[a].iter() {
                acc.union_with(&other.rows[b]);
            }
            out.rows[a] = acc;
        }
        out
    }

    /// Returns the transitive closure of this relation (Warshall's
    /// algorithm, word-parallel rows; O(n³/64)).
    pub fn transitive_closure(&self) -> Relation {
        let mut c = self.clone();
        closure::warshall_in_place(&mut c);
        c
    }

    /// Closes this relation transitively in place.
    pub fn close_transitively(&mut self) {
        closure::warshall_in_place(self);
    }

    /// True iff no index is related to itself.
    pub fn is_irreflexive(&self) -> bool {
        (0..self.len).all(|i| !self.contains(i, i))
    }

    /// True iff the relation, viewed as a digraph, has no directed cycle.
    /// (Self-loops count as cycles.)
    pub fn is_acyclic(&self) -> bool {
        closure::topological_order(self).is_some()
    }

    /// True iff this relation is a strict partial order: irreflexive and
    /// transitive (antisymmetry follows).
    pub fn is_strict_partial_order(&self) -> bool {
        if !self.is_irreflexive() {
            return false;
        }
        // Transitive: R;R ⊆ R.
        let comp = self.compose(self);
        for a in 0..self.len {
            if !comp.rows[a].is_subset(&self.rows[a]) {
                return false;
            }
        }
        true
    }

    /// True iff the relation is a strict *total* order on its domain.
    pub fn is_strict_total_order(&self) -> bool {
        self.is_strict_partial_order()
            && (0..self.len).all(|a| (0..a).all(|b| !self.unordered(a, b)))
    }

    /// The set of pairs `(a, b)` with `a < b` that are unordered — i.e. the
    /// "concurrency" pairs when the relation is a temporal partial order.
    pub fn unordered_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for a in 0..self.len {
            for b in (a + 1)..self.len {
                if self.unordered(a, b) {
                    out.push((a, b));
                }
            }
        }
        out
    }

    /// Restricts the relation to pairs whose endpoints are both in `keep`,
    /// re-indexing densely in the order of `keep`'s iteration (increasing).
    ///
    /// Returns the restricted relation and the mapping from new index to
    /// old index.
    pub fn restrict(&self, keep: &BitSet) -> (Relation, Vec<usize>) {
        let old_of_new: Vec<usize> = keep.iter().collect();
        let mut new_of_old = vec![usize::MAX; self.len];
        for (new, &old) in old_of_new.iter().enumerate() {
            new_of_old[old] = new;
        }
        let mut out = Relation::new(old_of_new.len());
        for (a, b) in self.pairs() {
            if keep.contains(a) && keep.contains(b) {
                out.insert(new_of_old[a], new_of_old[b]);
            }
        }
        (out, old_of_new)
    }
}

/// Finalizer of `splitmix64`: cheap bijective mixing with full avalanche,
/// used to salt matrix words by position in [`Relation::fingerprint128`].
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl std::fmt::Debug for Relation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Relation({} indices) {{", self.len)?;
        let mut first = true;
        for (a, b) in self.pairs() {
            if !first {
                write!(f, ",")?;
            }
            write!(f, " {a}->{b}")?;
            first = false;
        }
        write!(f, " }}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains() {
        let mut r = Relation::new(4);
        assert!(r.insert(0, 1));
        assert!(!r.insert(0, 1));
        assert!(r.contains(0, 1));
        assert!(!r.contains(1, 0));
        assert!(r.unordered(2, 3));
        assert!(!r.unordered(0, 1));
        assert_eq!(r.pair_count(), 1);
    }

    #[test]
    fn from_edges_and_pairs_round_trip() {
        let edges = vec![(0, 1), (1, 2), (3, 0)];
        let r = Relation::from_edges(4, edges.clone());
        let mut got: Vec<_> = r.pairs().collect();
        got.sort_unstable();
        let mut want = edges;
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn clone_from_copies_across_sizes() {
        let src = Relation::from_edges(5, [(0, 4), (3, 1)]);
        for len in [0, 3, 5, 70] {
            let mut dst = Relation::from_edges(len, (1..len).map(|i| (i - 1, i)));
            dst.clone_from(&src);
            assert_eq!(dst, src, "clone_from into a relation over {len}");
        }
    }

    #[test]
    fn transitive_closure_of_chain() {
        let r = Relation::from_edges(4, [(0, 1), (1, 2), (2, 3)]);
        let c = r.transitive_closure();
        for a in 0..4 {
            for b in 0..4 {
                assert_eq!(c.contains(a, b), a < b, "pair ({a},{b})");
            }
        }
        assert!(c.is_strict_total_order());
    }

    #[test]
    fn closure_is_idempotent() {
        let r = Relation::from_edges(5, [(0, 2), (2, 4), (1, 3)]);
        let c1 = r.transitive_closure();
        let c2 = c1.transitive_closure();
        assert_eq!(c1, c2);
    }

    #[test]
    fn compose_matches_definition() {
        let r = Relation::from_edges(3, [(0, 1), (1, 2)]);
        let s = Relation::from_edges(3, [(1, 0), (2, 1)]);
        let rs = r.compose(&s);
        // (0,1);(1,0) -> (0,0); (1,2);(2,1) -> (1,1)
        assert!(rs.contains(0, 0));
        assert!(rs.contains(1, 1));
        assert_eq!(rs.pair_count(), 2);
    }

    #[test]
    fn transpose_involution() {
        let r = Relation::from_edges(6, [(0, 5), (2, 3), (4, 1), (1, 4)]);
        assert_eq!(r.transpose().transpose(), r);
        assert!(r.transpose().contains(5, 0));
    }

    #[test]
    fn partial_and_total_order_checks() {
        let chain = Relation::from_edges(3, [(0, 1), (1, 2), (0, 2)]);
        assert!(chain.is_strict_partial_order());
        assert!(chain.is_strict_total_order());

        let v = Relation::from_edges(3, [(0, 1), (0, 2)]);
        assert!(v.is_strict_partial_order());
        assert!(!v.is_strict_total_order());

        let not_transitive = Relation::from_edges(3, [(0, 1), (1, 2)]);
        assert!(!not_transitive.is_strict_partial_order());

        let reflexive = Relation::identity(2);
        assert!(!reflexive.is_strict_partial_order());
    }

    #[test]
    fn acyclicity() {
        assert!(Relation::from_edges(3, [(0, 1), (1, 2)]).is_acyclic());
        assert!(!Relation::from_edges(3, [(0, 1), (1, 0)]).is_acyclic());
        assert!(!Relation::from_edges(1, [(0, 0)]).is_acyclic());
        assert!(Relation::new(0).is_acyclic(), "empty domain is acyclic");
    }

    #[test]
    fn unordered_pairs_of_diamond() {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3, closed.
        let r = Relation::from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)]).transitive_closure();
        assert_eq!(r.unordered_pairs(), vec![(1, 2)]);
    }

    #[test]
    fn union_intersection() {
        let a = Relation::from_edges(3, [(0, 1), (1, 2)]);
        let b = Relation::from_edges(3, [(1, 2), (2, 0)]);
        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.pair_count(), 3);
        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.pairs().collect::<Vec<_>>(), vec![(1, 2)]);
    }

    #[test]
    fn restrict_reindexes_densely() {
        let r = Relation::from_edges(5, [(0, 2), (2, 4), (1, 3)]);
        let keep: BitSet = [0usize, 2, 4].into_iter().collect();
        // capacity of `keep` is 5 already (max index 4 + 1)
        let (sub, old_of_new) = r.restrict(&keep);
        assert_eq!(old_of_new, vec![0, 2, 4]);
        assert_eq!(sub.len(), 3);
        assert!(sub.contains(0, 1), "0->2 survives as 0->1");
        assert!(sub.contains(1, 2), "2->4 survives as 1->2");
        assert_eq!(sub.pair_count(), 2, "1->3 is dropped");
    }

    #[test]
    fn relations_dedupe_in_hash_set() {
        use std::collections::HashSet;
        let a = Relation::from_edges(3, [(0, 1)]);
        let b = Relation::from_edges(3, [(0, 1)]);
        let c = Relation::from_edges(3, [(1, 0)]);
        let mut set = HashSet::new();
        assert!(set.insert(a));
        assert!(!set.insert(b));
        assert!(set.insert(c));
    }

    #[test]
    fn clone_preserves_edges() {
        let r = Relation::from_edges(4, [(0, 3), (2, 1)]);
        let back = r.clone();
        assert_eq!(r, back);
        assert!(back.contains(0, 3) && back.contains(2, 1));
    }
}
