//! The interned state arena shared by every engine search.
//!
//! Before this table existed, each explorer kept a
//! `FxHashMap<MachState, usize>` next to a node vector — every state was
//! stored **twice** (once as a map key, once in its node), and every
//! lookup re-hashed the full progress/semaphore/flag vectors through the
//! map's hasher. [`StateTable`] stores each [`MachState`] exactly once in
//! a dense arena keyed by [`StateId`], with a precomputed 64-bit
//! [key fingerprint](MachState::key_fingerprint) per state — for states of
//! one machine the semaphore counters and executed count are functions of
//! the progress vector, so probes hash and compare only the progress/flag
//! key ([`MachState::key_eq`]), roughly halving per-probe work on top of
//! not re-hashing. Lookups hash the probe state once, then compare 8-byte
//! fingerprints down a (almost always unit-length) bucket, touching state
//! vectors only to confirm the final match.
//!
//! The table is the arena of [`QueryMemo`](crate::QueryMemo), the one
//! store of the cut lattice that the summary pass charts breadth-first and
//! the witness queries search depth-first — one abstraction, one storage
//! cost, one id space. Only the differential oracle,
//! `explore_statespace_baseline`, keeps states its own way.

use eo_model::MachState;
use eo_relations::fxhash::FxHashMap;

/// Dense handle into a [`StateTable`] arena. Ids are assigned in
/// interning order, so they double as indices into the memo's per-state
/// slots.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(u32);

impl StateId {
    /// The arena index as a `usize`.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs an id from an arena index (engine-internal; ids are
    /// only meaningful against the table that issued them).
    #[inline]
    pub fn new(index: usize) -> Self {
        StateId(u32::try_from(index).expect("state arena outgrew u32 ids"))
    }
}

/// An append-only intern table of machine states: one arena slot per
/// distinct state, bucketed by precomputed fingerprint.
pub struct StateTable {
    states: Vec<MachState>,
    fingerprints: Vec<u64>,
    /// fingerprint → first arena id bearing it. The value sits inline in
    /// the map (no per-bucket heap allocation to chase on a probe);
    /// further ids with the same fingerprint — rare 64-bit collisions —
    /// hang off [`StateTable::chain`].
    buckets: FxHashMap<u64, u32>,
    /// `chain[id]` = next arena id with `id`'s fingerprint, or
    /// [`NO_ID`] — the overflow list for fingerprint collisions.
    chain: Vec<u32>,
    /// How many interned states landed on an already-occupied fingerprint
    /// (i.e. chain appends). Expected ~0; a sustained non-zero rate would
    /// mean the Zobrist key fingerprint is misbehaving, so the
    /// observability layer surfaces it as `engine.fp_collisions`.
    collisions: u64,
}

/// Sentinel terminating a fingerprint collision chain.
const NO_ID: u32 = u32::MAX;

impl StateTable {
    /// An empty table.
    pub fn new() -> Self {
        StateTable {
            states: Vec::new(),
            fingerprints: Vec::new(),
            buckets: FxHashMap::default(),
            chain: Vec::new(),
            collisions: 0,
        }
    }

    /// Number of fingerprint collisions observed while interning (states
    /// appended to a non-empty bucket chain).
    #[inline]
    pub fn collisions(&self) -> u64 {
        self.collisions
    }

    /// Number of distinct states interned.
    #[inline]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True iff nothing has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state behind `id`.
    #[inline]
    pub fn get(&self, id: StateId) -> &MachState {
        &self.states[id.index()]
    }

    /// The precomputed fingerprint of `id`.
    #[inline]
    pub fn fingerprint(&self, id: StateId) -> u64 {
        self.fingerprints[id.index()]
    }

    /// Interns `st`: returns its id plus whether it was newly inserted.
    /// The state is hashed exactly once; a hit costs one map probe and a
    /// fingerprint comparison per bucket entry.
    pub fn intern(&mut self, st: MachState) -> (StateId, bool) {
        let fp = st.key_fingerprint();
        match self.probe(&st, fp) {
            Probe::Hit(id) => (id, false),
            link => (self.insert(st, fp, link), true),
        }
    }

    /// [`StateTable::intern`] by reference: probes without taking
    /// ownership and clones `st` only when it is new. The engine's inner
    /// loops drive this with a reused scratch state, so the hit path — the
    /// overwhelmingly common one, since every lattice edge is probed but
    /// each state is fresh exactly once — allocates nothing at all.
    pub fn intern_ref(&mut self, st: &MachState) -> (StateId, bool) {
        self.intern_ref_keyed(st, st.key_fingerprint())
    }

    /// [`StateTable::intern_ref`] with the caller supplying `st`'s key
    /// fingerprint — the form the engine's inner loops use, where the
    /// fingerprint was maintained incrementally across a machine step
    /// ([`eo_model::machine::Machine::step_keyed`]) and re-hashing the
    /// state here would waste the savings.
    pub fn intern_ref_keyed(&mut self, st: &MachState, fp: u64) -> (StateId, bool) {
        debug_assert_eq!(fp, st.key_fingerprint());
        match self.probe(st, fp) {
            Probe::Hit(id) => (id, false),
            link => (self.insert(st.clone(), fp, link), true),
        }
    }

    /// Walks the bucket/chain for `fp`, reporting a hit or where a fresh
    /// id must be linked.
    #[inline]
    fn probe(&self, st: &MachState, fp: u64) -> Probe {
        let Some(&head) = self.buckets.get(&fp) else {
            return Probe::NewBucket;
        };
        let mut id = head;
        loop {
            if self.states[id as usize].key_eq(st) {
                return Probe::Hit(StateId(id));
            }
            match self.chain[id as usize] {
                NO_ID => return Probe::AppendAfter(id),
                next => id = next,
            }
        }
    }

    /// Pushes `st` into the arena and links it per `link`.
    fn insert(&mut self, st: MachState, fp: u64, link: Probe) -> StateId {
        let id = u32::try_from(self.states.len()).expect("state arena outgrew u32 ids");
        self.states.push(st);
        self.fingerprints.push(fp);
        self.chain.push(NO_ID);
        match link {
            Probe::NewBucket => {
                self.buckets.insert(fp, id);
            }
            Probe::AppendAfter(tail) => {
                self.chain[tail as usize] = id;
                self.collisions += 1;
            }
            Probe::Hit(_) => unreachable!("insert after a probe hit"),
        }
        StateId(id)
    }

    /// Finds `st` without inserting it.
    pub fn lookup(&self, st: &MachState) -> Option<StateId> {
        match self.probe(st, st.key_fingerprint()) {
            Probe::Hit(id) => Some(id),
            _ => None,
        }
    }

    /// Bytes one interned state like `st` costs the table at most: the
    /// state and its heap vectors, its fingerprint and chain slots, and a
    /// bucket entry. Callers keeping a running storage estimate charge
    /// this per fresh insert, so the estimate never falls below
    /// [`StateTable::approx_bytes`].
    pub(crate) fn bytes_per_state(st: &MachState) -> usize {
        std::mem::size_of_val(st)
            + st.heap_bytes()
            + 2 * std::mem::size_of::<u64>()
            + 2 * std::mem::size_of::<u32>()
    }

    /// Approximate heap bytes held by the arena and its buckets, from
    /// lengths: the floor a running storage estimate must never fall
    /// below.
    pub fn approx_bytes(&self) -> usize {
        let per_state: usize = self
            .states
            .first()
            .map_or(0, |s| std::mem::size_of_val(s) + s.heap_bytes());
        self.states.len() * (per_state + std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
            + self.buckets.len() * (std::mem::size_of::<u64>() + std::mem::size_of::<u32>())
    }
}

/// Outcome of a bucket/chain walk: a hit, or the link site for a fresh id.
enum Probe {
    /// The state is already interned under this id.
    Hit(StateId),
    /// No state bears the fingerprint yet; a fresh id starts the bucket.
    NewBucket,
    /// Fingerprint collision: a fresh id is chained after this one.
    AppendAfter(u32),
}

impl Default for StateTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{FeasibilityMode, SearchCtx};
    use eo_model::fixtures;

    #[test]
    fn intern_deduplicates_and_lookup_agrees() {
        let (trace, _ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let mut table = StateTable::new();

        let init = ctx.initial_state();
        let (root, fresh) = table.intern(init.clone());
        assert!(fresh);
        assert_eq!(root.index(), 0);
        let (again, fresh2) = table.intern(init.clone());
        assert!(!fresh2, "re-interning the same state is a hit");
        assert_eq!(root, again);
        assert_eq!(table.lookup(&init), Some(root));
        assert_eq!(table.len(), 1);

        let mut st2 = init.clone();
        let procs: Vec<_> = ctx.co_enabled(&init).iter().map(|&(p, _)| p).collect();
        ctx.step(&mut st2, procs[0]);
        assert_eq!(table.lookup(&st2), None, "unvisited state is absent");
        let (child, fresh3) = table.intern(st2);
        assert!(fresh3);
        assert_eq!(child.index(), 1);
        assert_eq!(table.fingerprint(child), table.get(child).key_fingerprint());
        assert!(table.approx_bytes() > 0);
    }
}
