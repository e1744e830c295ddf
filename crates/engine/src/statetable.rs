//! The interned state arena shared by every engine search.
//!
//! [`StateTable`] stores every interned state once, as a row of
//! [`MachState::words`] in one flat `Vec<u32>` at a fixed stride (all
//! states of one machine have rows of one width), beside per-state
//! executed counts, 64-bit [key fingerprints](MachState::key_fingerprint)
//! and a collision chain, all keyed by dense [`StateId`]s. Interning a
//! fresh state appends one row to the flat vector: no allocation per
//! state, and no per-state header. Lookups hash the probe state once
//! (callers usually maintain its fingerprint incrementally), then compare
//! 8-byte fingerprints down a (almost always unit-length) bucket, touching
//! a row only to confirm the final match with one slice compare. For
//! states of one machine the semaphore counters and executed count are
//! functions of progress, so row equality is key equality.
//!
//! Readers take the parts they need: [`StateTable::progress`],
//! [`StateTable::flags`] and [`StateTable::executed`] as slices and
//! counts, or [`StateTable::load`] to copy a row into a scratch
//! [`MachState`] the machine can step.
//!
//! The table is the arena of [`QueryMemo`](crate::QueryMemo), the one
//! store of the cut lattice that the summary pass charts breadth-first and
//! the witness queries search depth-first — one abstraction, one storage
//! cost, one id space. Only the differential oracles,
//! `explore_statespace_baseline` and the test suite's reference search,
//! keep states their own way.

use eo_model::MachState;
use eo_relations::fxhash::FxHashMap;
use std::mem::size_of;

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

/// An append-only intern table of machine states: one row per distinct
/// state in a flat arena, bucketed by precomputed fingerprint.
pub struct StateTable {
    /// Every interned state's row, back to back, `stride` words each.
    rows: Vec<u32>,
    /// Words per row; fixed by the first state interned.
    stride: usize,
    /// Progress words at the start of each row (the process count).
    procs: usize,
    /// Where the flag words start within a row.
    flags_at: usize,
    /// `executed[id]` = events executed to reach state `id`.
    executed: Vec<u32>,
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

/// Table bytes per state besides its row: executed count, fingerprint
/// and chain slot.
const PER_STATE_SLOTS: usize = size_of::<u32>() + size_of::<u64>() + size_of::<u32>();

/// Bytes one bucket entry costs: a fingerprint and an id.
const BUCKET_BYTES: usize = size_of::<u64>() + size_of::<u32>();

impl StateTable {
    /// An empty table.
    pub fn new() -> Self {
        StateTable {
            rows: Vec::new(),
            stride: 0,
            procs: 0,
            flags_at: 0,
            executed: Vec::new(),
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
        self.fingerprints.len()
    }

    /// True iff nothing has been interned yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.fingerprints.is_empty()
    }

    /// The row of `id`: progress, semaphore counters, then flags.
    #[inline]
    fn row(&self, id: usize) -> &[u32] {
        let at = id * self.stride;
        &self.rows[at..at + self.stride]
    }

    /// The per-process progress counters of `id`
    /// ([`MachState::progress`]).
    #[inline]
    pub fn progress(&self, id: StateId) -> &[u32] {
        &self.row(id.index())[..self.procs]
    }

    /// The event-variable flag words of `id` ([`MachState::flags`]).
    #[inline]
    pub fn flags(&self, id: StateId) -> &[u32] {
        &self.row(id.index())[self.flags_at..]
    }

    /// How many events have executed to reach `id`
    /// ([`MachState::executed_count`]).
    #[inline]
    pub fn executed(&self, id: StateId) -> u32 {
        self.executed[id.index()]
    }

    /// Copies state `id` into `st`, a state of the same machine, reusing
    /// its buffer: one slice copy, no allocation.
    #[inline]
    pub fn load(&self, id: StateId, st: &mut MachState) {
        st.load(self.row(id.index()), self.executed[id.index()]);
    }

    /// The precomputed fingerprint of `id`.
    #[inline]
    pub fn fingerprint(&self, id: StateId) -> u64 {
        self.fingerprints[id.index()]
    }

    /// Interns `st`: returns its id plus whether it was newly inserted.
    /// The state is hashed exactly once; a hit costs one map probe and a
    /// fingerprint comparison per bucket entry. Nothing is allocated per
    /// state: a fresh state's row is appended to the flat arena.
    pub fn intern(&mut self, st: &MachState) -> (StateId, bool) {
        self.intern_under(st, st.key_fingerprint())
    }

    /// [`StateTable::intern`] with the caller supplying `st`'s key
    /// fingerprint — the form the engine's inner loops use, where the
    /// fingerprint was maintained incrementally across a machine step
    /// ([`eo_model::machine::Machine::step_keyed`]) and re-hashing the
    /// state here would waste the savings.
    pub fn intern_keyed(&mut self, st: &MachState, fp: u64) -> (StateId, bool) {
        debug_assert_eq!(fp, st.key_fingerprint());
        self.intern_under(st, fp)
    }

    /// Interns `st` under the fingerprint `fp`, which the callers above
    /// guarantee is its key fingerprint (the tests pick others to force
    /// collisions).
    fn intern_under(&mut self, st: &MachState, fp: u64) -> (StateId, bool) {
        match self.probe(st.words(), fp) {
            Probe::Hit(id) => (id, false),
            link => (self.insert(st, fp, link), true),
        }
    }

    /// Walks the bucket/chain for `fp`, reporting a hit or where a fresh
    /// id must be linked.
    #[inline]
    fn probe(&self, words: &[u32], fp: u64) -> Probe {
        let Some(&head) = self.buckets.get(&fp) else {
            return Probe::NewBucket;
        };
        let mut id = head;
        loop {
            if self.row(id as usize) == words {
                return Probe::Hit(StateId(id));
            }
            match self.chain[id as usize] {
                NO_ID => return Probe::AppendAfter(id),
                next => id = next,
            }
        }
    }

    /// Appends `st`'s row to the arena and links it per `link`. The first
    /// state fixes the row layout.
    fn insert(&mut self, st: &MachState, fp: u64, link: Probe) -> StateId {
        let id = u32::try_from(self.len()).expect("state arena outgrew u32 ids");
        let words = st.words();
        if id == 0 {
            self.stride = words.len();
            self.procs = st.progress().len();
            self.flags_at = words.len() - st.flags().len();
        }
        assert_eq!(words.len(), self.stride, "a state of another machine");
        self.rows.extend_from_slice(words);
        self.executed.push(st.executed_count());
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
        match self.probe(st.words(), st.key_fingerprint()) {
            Probe::Hit(id) => Some(id),
            _ => None,
        }
    }

    /// Bytes one interned state like `st` costs the table at most: its
    /// row, executed count, fingerprint and chain slots, and a bucket
    /// entry. Callers keeping a running storage estimate charge this per
    /// fresh insert, so the estimate never falls below
    /// [`StateTable::approx_bytes`].
    pub(crate) fn bytes_per_state(st: &MachState) -> usize {
        st.heap_bytes() + PER_STATE_SLOTS + BUCKET_BYTES
    }

    /// Approximate heap bytes held by the arena and its buckets, from
    /// lengths: the floor a running storage estimate must never fall
    /// below.
    pub fn approx_bytes(&self) -> usize {
        self.rows.len() * size_of::<u32>()
            + self.len() * PER_STATE_SLOTS
            + self.buckets.len() * BUCKET_BYTES
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
    use crate::queries::QueryMemo;
    use eo_model::{fixtures, ProgramExecution};

    /// Finds `st` under the fingerprint `fp` instead of its own.
    fn lookup_under(table: &StateTable, st: &MachState, fp: u64) -> Option<StateId> {
        match table.probe(st.words(), fp) {
            Probe::Hit(id) => Some(id),
            _ => None,
        }
    }

    #[test]
    fn intern_deduplicates_and_lookup_agrees() {
        let (trace, _ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let mut table = StateTable::new();

        let init = ctx.initial_state();
        let (root, fresh) = table.intern(&init);
        assert!(fresh);
        assert_eq!(root.index(), 0);
        let (again, fresh2) = table.intern(&init);
        assert!(!fresh2, "re-interning the same state is a hit");
        assert_eq!(root, again);
        assert_eq!(table.lookup(&init), Some(root));
        assert_eq!(table.len(), 1);

        let mut st2 = init.clone();
        let procs: Vec<_> = ctx.co_enabled(&init).iter().map(|&(p, _)| p).collect();
        ctx.step(&mut st2, procs[0]);
        assert_eq!(table.lookup(&st2), None, "unvisited state is absent");
        let (child, fresh3) = table.intern(&st2);
        assert!(fresh3);
        assert_eq!(child.index(), 1);
        assert_eq!(table.fingerprint(child), st2.key_fingerprint());
        assert_eq!(table.executed(child), 1);
        assert_eq!(table.progress(child), st2.progress());
        assert_eq!(table.flags(child), st2.flags());
        assert!(table.approx_bytes() > 0);
    }

    #[test]
    fn states_sharing_a_fingerprint_chain_apart() {
        let (trace, _ids) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let a = ctx.initial_state();
        let mut b = a.clone();
        let (p, _) = ctx.co_enabled(&a)[0];
        ctx.step(&mut b, p);
        assert_ne!(a, b);

        const FP: u64 = 0x5EED;
        let mut table = StateTable::new();
        let (ia, fresh_a) = table.intern_under(&a, FP);
        let (ib, fresh_b) = table.intern_under(&b, FP);
        assert!(fresh_a && fresh_b, "distinct rows are distinct states");
        assert_ne!(ia, ib);
        assert_eq!(
            table.collisions(),
            1,
            "the second state chained after the first"
        );
        assert_eq!(table.buckets.len(), 1);
        assert_eq!(lookup_under(&table, &a, FP), Some(ia));
        assert_eq!(lookup_under(&table, &b, FP), Some(ib));
        assert_eq!(table.intern_under(&b, FP), (ib, false), "a chained hit");
        assert_eq!(table.collisions(), 1);

        let mut st = ctx.initial_state();
        table.load(ib, &mut st);
        assert_eq!(st, b);
        table.load(ia, &mut st);
        assert_eq!(st, a);
    }

    /// Charts `exec`'s whole cut lattice in both modes and checks every
    /// row reads back as the state it was interned as.
    fn assert_rows_load_back(label: &str, exec: &ProgramExecution) {
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let ctx = SearchCtx::new(exec, mode);
            let mut memo = QueryMemo::new(&ctx);
            crate::statespace::chart(&ctx, &mut memo).unwrap();
            let table = memo.table();
            assert!(table.len() > 1, "{label} {mode:?}: the chart grew");
            let mut st = ctx.initial_state();
            for i in 0..table.len() {
                let id = StateId::new(i);
                let at = format!("{label} {mode:?}: state {i}");
                table.load(id, &mut st);
                assert_eq!(table.lookup(&st), Some(id), "{at}");
                assert_eq!(st.key_fingerprint(), table.fingerprint(id), "{at}");
                let progress: u32 = table.progress(id).iter().sum();
                assert_eq!(table.executed(id), progress, "{at}");
                assert_eq!(st.executed_count(), progress, "{at}");
                assert_eq!(st.progress(), table.progress(id), "{at}");
                assert_eq!(st.flags(), table.flags(id), "{at}");
            }
        }
    }

    #[test]
    fn charted_rows_load_back_on_fixtures_and_pitfall_4() {
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
            assert_rows_load_back(label, &trace.to_execution().unwrap());
        }
        assert_rows_load_back("pitfall-4", &crate::enumerate::tests::pitfall_exec(4));
    }
}
