//! A compact fixed-capacity bit set.
//!
//! [`BitSet`] is the row type of [`crate::Relation`] and the visited-set
//! type of the graph algorithms. It stores bits in `u64` words, supports
//! the usual set algebra word-parallel (64 elements per instruction), and
//! implements `Hash`/`Eq` so whole rows — and, upstream, whole relations —
//! can be deduplicated cheaply.

/// A fixed-capacity set of `usize` indices in `0..len`, stored as packed
/// 64-bit words.
///
/// Unlike `std::collections::HashSet<usize>`, all operations are
/// allocation-free after construction and set algebra runs word-parallel.
/// The capacity is fixed at construction; inserting an index `>= len`
/// panics (that is always a logic error upstream, never data-dependent).
#[derive(PartialEq, Eq, Hash)]
pub struct BitSet {
    len: usize,
    words: Vec<u64>,
}

impl Clone for BitSet {
    #[inline]
    fn clone(&self) -> Self {
        BitSet {
            len: self.len,
            words: self.words.clone(),
        }
    }

    /// Buffer-reusing `clone_from` (the derive would drop and
    /// reallocate): copying between equal-capacity sets allocates nothing.
    #[inline]
    fn clone_from(&mut self, src: &Self) {
        self.len = src.len;
        self.words.clone_from(&src.words);
    }
}

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(64)
}

impl BitSet {
    /// Creates an empty set with capacity for indices `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; word_count(len)],
        }
    }

    /// Creates a set containing every index in `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        s.set_all();
        s
    }

    /// Fills the set with every index in `0..capacity` (word-parallel;
    /// the partial last word is masked so `Eq`/`Hash` stay canonical).
    pub fn set_all(&mut self) {
        self.words.fill(!0u64);
        let tail = self.len % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// The packed word representation (64 indices per word, LSB-first).
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The capacity (number of addressable indices), *not* the number of
    /// elements currently present; see [`BitSet::count`] for the latter.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.len
    }

    /// Inserts `i`, returning `true` if it was newly inserted.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "BitSet index {i} out of capacity {}",
            self.len
        );
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i`, returning `true` if it was present.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        assert!(
            i < self.len,
            "BitSet index {i} out of capacity {}",
            self.len
        );
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Tests membership of `i`. Out-of-capacity indices are simply absent.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        if i >= self.len {
            return false;
        }
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of elements present.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True iff no element is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Removes all elements, keeping the capacity.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union: `self ← self ∪ other`. Returns `true` if `self`
    /// changed.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a |= b;
            changed |= *a != old;
        }
        changed
    }

    /// In-place intersection: `self ← self ∩ other`. Returns `true` if
    /// `self` changed.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            let old = *a;
            *a &= b;
            changed |= *a != old;
        }
        changed
    }

    /// In-place difference: `self ← self ∖ other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn difference_with(&mut self, other: &BitSet) {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// True iff `self ∩ other` is nonempty.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn intersects(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        self.words.iter().zip(&other.words).any(|(a, b)| a & b != 0)
    }

    /// True iff every element of `self` is in `other`.
    ///
    /// # Panics
    /// Panics if capacities differ.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        assert_eq!(self.len, other.len, "BitSet capacity mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over present indices in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(wi, &w)| {
            let mut bits = w;
            std::iter::from_fn(move || {
                if bits == 0 {
                    None
                } else {
                    let tz = bits.trailing_zeros() as usize;
                    bits &= bits - 1;
                    Some(wi * 64 + tz)
                }
            })
        })
    }
}

impl std::fmt::Debug for BitSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects indices into a set whose capacity is `max + 1` (or 0 when
    /// the iterator is empty). Mostly useful in tests; production code
    /// should size sets explicitly.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let items: Vec<usize> = iter.into_iter().collect();
        let cap = items.iter().copied().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for i in items {
            s.insert(i);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(129), "second insert reports not-fresh");
        assert!(s.contains(0) && s.contains(64) && s.contains(129));
        assert!(!s.contains(1));
        assert!(!s.contains(10_000), "out of capacity is absent, not panic");
        assert_eq!(s.count(), 3);
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn empty_and_full() {
        let e = BitSet::new(70);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        let f = BitSet::full(70);
        assert_eq!(f.count(), 70);
        assert!(e.is_subset(&f));
        assert!(!f.is_subset(&e));
    }

    #[test]
    fn zero_capacity_set_is_usable() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_out_of_capacity_panics() {
        BitSet::new(10).insert(10);
    }

    #[test]
    fn set_algebra() {
        let a: BitSet = [1usize, 3, 5, 64, 65].into_iter().collect();
        let mut a = resize(a, 100);
        let b: BitSet = [3usize, 4, 65, 99].into_iter().collect();
        let b = resize(b, 100);

        let mut u = a.clone();
        assert!(u.union_with(&b));
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 3, 4, 5, 64, 65, 99]);
        assert!(!u.union_with(&b), "second union is a no-op");

        let mut i = a.clone();
        assert!(i.intersect_with(&b));
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![3, 65]);

        a.difference_with(&b);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![1, 5, 64]);

        assert!(i.intersects(&b));
        assert!(!i.intersects(&a));
    }

    #[test]
    fn iteration_order_is_increasing() {
        let s: BitSet = [99usize, 0, 63, 64, 7].into_iter().collect();
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 7, 63, 64, 99]);
    }

    #[test]
    fn hash_eq_consistency() {
        use std::collections::HashSet;
        let a: BitSet = [1usize, 2, 3].into_iter().collect();
        let b: BitSet = [1usize, 2, 3].into_iter().collect();
        let mut set = HashSet::new();
        set.insert(a);
        assert!(!set.insert(b), "equal bitsets deduplicate in a hash set");
    }

    #[test]
    fn clone_preserves_contents_across_word_boundaries() {
        let s: BitSet = [0usize, 5, 66].into_iter().collect();
        let back = s.clone();
        assert_eq!(s, back);
        assert!(back.contains(66));
    }

    fn resize(s: BitSet, cap: usize) -> BitSet {
        let mut out = BitSet::new(cap);
        for i in s.iter() {
            out.insert(i);
        }
        out
    }
}
