//! The sequentially consistent synchronization machine.
//!
//! [`Machine`] interprets the synchronization semantics of a fixed
//! [`Trace`]'s events: semaphore counters for `P`/`V`, a boolean flag per
//! event variable for `Post`/`Wait`/`Clear`, and fork/join process
//! lifecycle. It answers one question — *which events may execute next
//! from a given state* — and is therefore the single source of truth for
//! what a **valid schedule** of the trace's events is.
//!
//! Two consumers drive it:
//!
//! * [`Trace::validate`](crate::Trace::validate) replays the observed order
//!   to confirm the log is sequentially consistent;
//! * the exact feasibility engine (`eo-engine`) explores *alternate*
//!   schedules of the same events; those schedules, extended with the
//!   shared-data-dependence gate (condition F3 of the paper), are exactly
//!   the feasible program executions F(P).
//!
//! The machine state is one flat row of `u32` words (progress, then
//! semaphore counters, then event-variable flags), because the engine's
//! search copies it at every branch point and its state tables store
//! and compare it as a plain slice.

use crate::event::Op;
use crate::ids::{EventId, ProcessId};
use crate::trace::Trace;

/// Immutable interpretation context for one trace: per-process event lists,
/// fork back-pointers, and per-event positions. Built once; shared by all
/// states.
pub struct Machine<'a> {
    trace: &'a Trace,
    per_process: Vec<Vec<EventId>>,
    /// For each process: the creating fork as (creator process, index of
    /// the fork within the creator's event list); `None` for roots.
    creator: Vec<Option<(ProcessId, u32)>>,
    /// For each event: its index within its process's event list.
    pos_in_process: Vec<u32>,
}

/// A point in the schedule space: how far each process has executed, plus
/// the current synchronization state.
///
/// The state is one row of words: the progress counter of each process,
/// then each semaphore's counter, then each event variable's flag as a
/// 0/1 word. Counters are derivable from progress (counts of executed `V`s
/// and `P`s), but flags are **not**: they depend on the *order* in which
/// `Post`s and `Clear`s interleaved, so states with equal progress can
/// differ. Both are kept, counters for O(1) enabledness and flags for
/// correctness. All states of one machine have rows of one width, so
/// copying a state is one slice copy and comparing two is one slice
/// compare; `Hash`/`Eq` make the state directly usable as a memoization
/// key.
#[derive(Debug, PartialEq, Eq, Hash)]
pub struct MachState {
    words: Vec<u32>,
    /// Index of the first semaphore counter in `words`: the process count.
    sems_at: u32,
    /// Index of the first flag in `words`.
    flags_at: u32,
    executed: u32,
}

impl Clone for MachState {
    fn clone(&self) -> Self {
        MachState {
            words: self.words.clone(),
            ..*self
        }
    }

    /// Buffer-reusing `clone_from` (the derive would drop and reallocate):
    /// all states of one machine have rows of one width, so a scratch
    /// state that walks the lattice via `clone_from` + `step` allocates
    /// exactly once — the pattern every engine inner loop uses.
    fn clone_from(&mut self, src: &Self) {
        self.words.clone_from(&src.words);
        self.sems_at = src.sems_at;
        self.flags_at = src.flags_at;
        self.executed = src.executed;
    }
}

impl MachState {
    /// How many events have executed to reach this state. Monotone along
    /// every schedule, which makes the state graph a DAG layered by this
    /// count — the engine's completability pass relies on that.
    #[inline]
    pub fn executed_count(&self) -> u32 {
        self.executed
    }

    /// Fingerprint of the state's *deduplication key*: the progress
    /// counters and the event-variable flags. For a fixed machine the
    /// semaphore counters are a function of progress (counts of executed
    /// `V`s minus `P`s) and `executed` is its sum, so two states of the
    /// same machine are equal iff their keys are — and iff their
    /// [`words`](MachState::words) are. Never mix fingerprints of states
    /// from different machines.
    ///
    /// The fingerprint is a Zobrist-style XOR of one well-mixed word per
    /// occupied key slot. XOR is self-inverse, so a single machine step —
    /// which touches one progress slot and at most one flag — updates the
    /// fingerprint in O(1) ([`Machine::step_keyed`]) instead of re-hashing
    /// every word, which is what makes interning cheap per lattice
    /// *edge* rather than per state.
    pub fn key_fingerprint(&self) -> u64 {
        let mut fp = 0u64;
        for (p, &x) in self.progress().iter().enumerate() {
            fp ^= zobrist_next(p as u32, x);
        }
        for (v, &b) in self.flags().iter().enumerate() {
            if b != 0 {
                fp ^= zobrist_flag(v as u32);
            }
        }
        fp
    }

    /// Per-process progress counters: `progress()[p]` is how many events
    /// of process `p` have executed. Together with [`MachState::flags`]
    /// this is the state's full deduplication key (see
    /// [`MachState::key_fingerprint`]); the engine's equivalence
    /// strategies read the components directly so they can hash *subsets*
    /// of the key (e.g. dropping flags no future event observes).
    #[inline]
    pub fn progress(&self) -> &[u32] {
        &self.words[..self.sems_at as usize]
    }

    /// Current event-variable flags, indexed by variable: 1 if set, 0 if
    /// clear.
    #[inline]
    pub fn flags(&self) -> &[u32] {
        &self.words[self.flags_at as usize..]
    }

    /// The whole state row: progress, semaphore counters, then flags.
    /// Rows of two states of one machine are equal iff the states are.
    #[inline]
    pub fn words(&self) -> &[u32] {
        &self.words
    }

    /// Overwrites this state with `words`, the [row](MachState::words)
    /// of a state of the same machine, and that state's executed count:
    /// one slice copy, no allocation. The engine's state tables store
    /// rows flat and load them back through this.
    ///
    /// # Panics
    /// Panics if `words` is not as wide as this state's row.
    #[inline]
    pub fn load(&mut self, words: &[u32], executed: u32) {
        self.words.copy_from_slice(words);
        self.executed = executed;
    }

    /// Heap bytes owned by this state's row (memory accounting for the
    /// engine's state arenas; excludes the struct header itself).
    pub fn heap_bytes(&self) -> usize {
        self.words.len() * std::mem::size_of::<u32>()
    }

    #[inline]
    fn sem(&self, s: usize) -> u32 {
        self.words[self.sems_at as usize + s]
    }

    #[inline]
    fn flag(&self, v: usize) -> u32 {
        self.words[self.flags_at as usize + v]
    }

    #[inline]
    fn sem_mut(&mut self, s: usize) -> &mut u32 {
        &mut self.words[self.sems_at as usize + s]
    }

    #[inline]
    fn flag_mut(&mut self, v: usize) -> &mut u32 {
        &mut self.words[self.flags_at as usize + v]
    }
}

/// Finalizer of `splitmix64`: a cheap bijective mixer with full avalanche,
/// used to derive Zobrist table entries on the fly instead of storing a
/// random table per (slot, value) pair.
#[inline]
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Zobrist word for "process `p` has executed `x` events". The
/// (slot, value) pair packs injectively into the mixer input.
#[inline]
fn zobrist_next(p: u32, x: u32) -> u64 {
    splitmix64(((p as u64) << 32) | x as u64)
}

/// Zobrist word for "event variable `v` is set" (top bit keeps the input
/// space disjoint from [`zobrist_next`]'s).
#[inline]
fn zobrist_flag(v: u32) -> u64 {
    splitmix64((1u64 << 63) | v as u64)
}

/// Why an event could not execute at some point of a replay.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BlockReason {
    /// The event is not the next unexecuted event of its process.
    NotNextInProcess,
    /// The event's process has not been created yet (its fork has not
    /// executed).
    ProcessNotStarted,
    /// `P` on a semaphore whose counter is zero.
    SemaphoreZero,
    /// `Wait` on an event variable whose flag is clear.
    EventVarClear,
    /// `join` while some joined process has unexecuted events.
    JoinChildrenIncomplete,
    /// The replay ended before every event executed.
    Incomplete,
}

impl std::fmt::Display for BlockReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            BlockReason::NotNextInProcess => "event is not next in its process",
            BlockReason::ProcessNotStarted => "process has not been forked yet",
            BlockReason::SemaphoreZero => "P on a zero semaphore",
            BlockReason::EventVarClear => "Wait on a clear event variable",
            BlockReason::JoinChildrenIncomplete => "join on unfinished processes",
            BlockReason::Incomplete => "schedule ended with events unexecuted",
        };
        f.write_str(s)
    }
}

/// A replay failure: which step of the order failed and why.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReplayError {
    /// Index into the replayed order (or the order's length for
    /// [`BlockReason::Incomplete`]).
    pub position: usize,
    /// The event that could not execute (the last event for
    /// [`BlockReason::Incomplete`]).
    pub event: EventId,
    /// Why it could not execute.
    pub reason: BlockReason,
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "step {}: event {}: {}",
            self.position, self.event, self.reason
        )
    }
}

impl std::error::Error for ReplayError {}

impl<'a> Machine<'a> {
    /// Builds the interpretation context for `trace`.
    ///
    /// Assumes the trace passed structural validation (dense ids, in-range
    /// references, fork/creator agreement); replay-level properties are
    /// *not* assumed — checking them is this type's job.
    pub fn new(trace: &'a Trace) -> Self {
        let per_process = trace.per_process();
        let mut pos_in_process = vec![0u32; trace.n_events()];
        for list in &per_process {
            for (i, &e) in list.iter().enumerate() {
                pos_in_process[e.index()] = i as u32;
            }
        }
        let creator = trace
            .processes
            .iter()
            .map(|p| {
                p.created_by.map(|fork| {
                    let fp = trace.event(fork).process;
                    (fp, pos_in_process[fork.index()])
                })
            })
            .collect();
        Machine {
            trace,
            per_process,
            creator,
            pos_in_process,
        }
    }

    /// The trace this machine interprets.
    #[inline]
    pub fn trace(&self) -> &'a Trace {
        self.trace
    }

    /// Per-process event lists in program order.
    #[inline]
    pub fn per_process(&self) -> &[Vec<EventId>] {
        &self.per_process
    }

    /// The index of `e` within its process's event list.
    #[inline]
    pub fn position_in_process(&self, e: EventId) -> u32 {
        self.pos_in_process[e.index()]
    }

    /// The state before anything has executed.
    pub fn initial_state(&self) -> MachState {
        let trace = self.trace;
        let sems_at = trace.processes.len();
        let flags_at = sems_at + trace.semaphores.len();
        let mut words = Vec::with_capacity(flags_at + trace.event_vars.len());
        words.resize(sems_at, 0);
        words.extend(trace.semaphores.iter().map(|s| s.initial));
        words.extend(trace.event_vars.iter().map(|v| u32::from(v.initially_set)));
        MachState {
            words,
            sems_at: u32::try_from(sems_at).expect("process count fits u32"),
            flags_at: u32::try_from(flags_at).expect("state width fits u32"),
            executed: 0,
        }
    }

    /// True iff process `p` exists at `st` (root, or its fork executed).
    pub fn started(&self, st: &MachState, p: ProcessId) -> bool {
        match self.creator[p.index()] {
            None => true,
            Some((creator, fork_pos)) => st.words[creator.index()] > fork_pos,
        }
    }

    /// True iff process `p` has executed all its events (and exists).
    pub fn process_complete(&self, st: &MachState, p: ProcessId) -> bool {
        st.words[p.index()] as usize == self.per_process[p.index()].len() && self.started(st, p)
    }

    /// The next unexecuted event of process `p`, if any.
    pub fn next_event(&self, st: &MachState, p: ProcessId) -> Option<EventId> {
        self.per_process[p.index()]
            .get(st.words[p.index()] as usize)
            .copied()
    }

    /// True iff event `e` has executed at `st`.
    #[inline]
    pub fn executed(&self, st: &MachState, e: EventId) -> bool {
        self.pos_in_process[e.index()] < st.words[self.trace.event(e).process.index()]
    }

    /// Whether the next event of process `p` can execute at `st`; `Ok(e)`
    /// if so, the blocking reason otherwise. `Err(Incomplete)` means the
    /// process has no events left.
    pub fn enabled(&self, st: &MachState, p: ProcessId) -> Result<EventId, BlockReason> {
        let Some(e) = self.next_event(st, p) else {
            return Err(BlockReason::Incomplete);
        };
        if !self.started(st, p) {
            return Err(BlockReason::ProcessNotStarted);
        }
        match &self.trace.event(e).op {
            Op::Compute | Op::SemV(_) | Op::Post(_) | Op::Clear(_) | Op::Fork(_) => Ok(e),
            Op::SemP(s) => {
                if st.sem(s.index()) > 0 {
                    Ok(e)
                } else {
                    Err(BlockReason::SemaphoreZero)
                }
            }
            Op::Wait(v) => {
                if st.flag(v.index()) != 0 {
                    Ok(e)
                } else {
                    Err(BlockReason::EventVarClear)
                }
            }
            Op::Join(children) => {
                if children.iter().all(|&c| self.process_complete(st, c)) {
                    Ok(e)
                } else {
                    Err(BlockReason::JoinChildrenIncomplete)
                }
            }
        }
    }

    /// All processes whose next event can execute at `st`, with that event.
    pub fn enabled_events(&self, st: &MachState) -> Vec<(ProcessId, EventId)> {
        let mut out = Vec::new();
        self.enabled_events_into(st, &mut out);
        out
    }

    /// [`Machine::enabled_events`] into a caller-provided buffer (cleared
    /// first) — the allocation-free form the engine's hot loops use.
    pub fn enabled_events_into(&self, st: &MachState, out: &mut Vec<(ProcessId, EventId)>) {
        out.clear();
        for pi in 0..self.trace.processes.len() {
            let p = ProcessId::new(pi);
            if let Ok(e) = self.enabled(st, p) {
                out.push((p, e));
            }
        }
    }

    /// Executes the next event of process `p`, mutating `st`.
    ///
    /// # Panics
    /// Panics if that event is not enabled — callers check first; an
    /// unchecked step is always an engine bug, never input-dependent.
    pub fn step(&self, st: &mut MachState, p: ProcessId) -> EventId {
        let e = match self.enabled(st, p) {
            Ok(e) => e,
            Err(r) => panic!("step on blocked process {p}: {r}"),
        };
        match &self.trace.event(e).op {
            Op::SemP(s) => *st.sem_mut(s.index()) -= 1,
            Op::SemV(s) => *st.sem_mut(s.index()) += 1,
            Op::Post(v) => *st.flag_mut(v.index()) = 1,
            Op::Clear(v) => *st.flag_mut(v.index()) = 0,
            Op::Compute | Op::Wait(_) | Op::Fork(_) | Op::Join(_) => {}
        }
        st.words[p.index()] += 1;
        st.executed += 1;
        e
    }

    /// [`Machine::step`] that also maintains `fp`, the state's
    /// [key fingerprint](MachState::key_fingerprint), incrementally: one
    /// step moves a single progress slot and flips at most one flag, so the
    /// Zobrist XOR updates in O(1) where recomputation would re-mix every
    /// key slot. `fp` must hold the fingerprint of `st` on entry and holds
    /// the stepped state's on return.
    ///
    /// # Panics
    /// Panics if the next event of `p` is not enabled, like
    /// [`Machine::step`].
    pub fn step_keyed(&self, st: &mut MachState, p: ProcessId, fp: &mut u64) -> EventId {
        let e = match self.enabled(st, p) {
            Ok(e) => e,
            Err(r) => panic!("step on blocked process {p}: {r}"),
        };
        self.apply_keyed(st, p, e, fp);
        e
    }

    /// Executes `e` — which the caller guarantees is the currently enabled
    /// next event of `p` — maintaining the key fingerprint like
    /// [`Machine::step_keyed`]. The engine's expansion loops read `(p, e)`
    /// straight out of a node's precomputed enabled list; re-deriving and
    /// re-validating `e` per edge would repeat the work done when that
    /// list was built, and this is the hottest line of the whole engine.
    pub fn apply_keyed(&self, st: &mut MachState, p: ProcessId, e: EventId, fp: &mut u64) {
        debug_assert_eq!(self.enabled(st, p), Ok(e), "apply of a non-enabled event");
        match &self.trace.event(e).op {
            Op::SemP(s) => *st.sem_mut(s.index()) -= 1,
            Op::SemV(s) => *st.sem_mut(s.index()) += 1,
            Op::Post(v) => {
                let flag = st.flag_mut(v.index());
                if *flag == 0 {
                    *flag = 1;
                    *fp ^= zobrist_flag(v.index() as u32);
                }
            }
            Op::Clear(v) => {
                let flag = st.flag_mut(v.index());
                if *flag != 0 {
                    *flag = 0;
                    *fp ^= zobrist_flag(v.index() as u32);
                }
            }
            Op::Compute | Op::Wait(_) | Op::Fork(_) | Op::Join(_) => {}
        }
        let pi = p.index();
        let x = st.words[pi];
        *fp ^= zobrist_next(pi as u32, x) ^ zobrist_next(pi as u32, x + 1);
        st.words[pi] = x + 1;
        st.executed += 1;
        debug_assert_eq!(*fp, st.key_fingerprint());
    }

    /// True iff every event has executed.
    #[inline]
    pub fn is_complete(&self, st: &MachState) -> bool {
        st.executed as usize == self.trace.n_events()
    }

    /// True iff nothing can execute but events remain — the state is a
    /// deadlock (possible with `Clear`, as the paper notes of the
    /// Theorem 3 construction).
    pub fn is_deadlocked(&self, st: &MachState) -> bool {
        !self.is_complete(st) && self.enabled_events(st).is_empty()
    }

    /// Replays `order` from the initial state, requiring every event to
    /// execute exactly once.
    pub fn replay(&self, order: &[EventId]) -> Result<(), ReplayError> {
        let mut st = self.initial_state();
        for (position, &e) in order.iter().enumerate() {
            let p = self.trace.event(e).process;
            match self.enabled(&st, p) {
                Ok(next) if next == e => {
                    self.step(&mut st, p);
                }
                Ok(_) => {
                    return Err(ReplayError {
                        position,
                        event: e,
                        reason: BlockReason::NotNextInProcess,
                    })
                }
                Err(reason) => {
                    // Distinguish "blocked" from "not even next".
                    let reason = if self.next_event(&st, p) == Some(e) {
                        reason
                    } else {
                        BlockReason::NotNextInProcess
                    };
                    return Err(ReplayError {
                        position,
                        event: e,
                        reason,
                    });
                }
            }
        }
        if self.is_complete(&st) {
            Ok(())
        } else {
            Err(ReplayError {
                position: order.len(),
                // The last event actually replayed (EventId(0) only for an
                // empty order, where no event exists to blame).
                event: order.last().copied().unwrap_or(EventId::new(0)),
                reason: BlockReason::Incomplete,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceBuilder;

    fn handshake() -> Trace {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 0);
        tb.push(p0, Op::SemV(s));
        tb.push(p1, Op::SemP(s));
        tb.build().unwrap()
    }

    #[test]
    fn initial_enabledness() {
        let t = handshake();
        let m = Machine::new(&t);
        let st = m.initial_state();
        let enabled = m.enabled_events(&st);
        assert_eq!(
            enabled,
            vec![(ProcessId(0), EventId(0))],
            "only the V is enabled"
        );
        assert_eq!(
            m.enabled(&st, ProcessId(1)),
            Err(BlockReason::SemaphoreZero)
        );
    }

    #[test]
    fn step_unblocks_p() {
        let t = handshake();
        let m = Machine::new(&t);
        let mut st = m.initial_state();
        assert_eq!(m.step(&mut st, ProcessId(0)), EventId(0));
        assert_eq!(m.enabled(&st, ProcessId(1)), Ok(EventId(1)));
        m.step(&mut st, ProcessId(1));
        assert!(m.is_complete(&st));
        assert!(!m.is_deadlocked(&st));
    }

    #[test]
    #[should_panic(expected = "step on blocked process")]
    fn step_on_blocked_process_panics() {
        let t = handshake();
        let m = Machine::new(&t);
        let mut st = m.initial_state();
        m.step(&mut st, ProcessId(1));
    }

    #[test]
    fn executed_tracks_positions() {
        let t = handshake();
        let m = Machine::new(&t);
        let mut st = m.initial_state();
        assert!(!m.executed(&st, EventId(0)));
        m.step(&mut st, ProcessId(0));
        assert!(m.executed(&st, EventId(0)));
        assert!(!m.executed(&st, EventId(1)));
    }

    #[test]
    fn clear_then_wait_deadlocks() {
        // p0: Post; p1: Clear; p2: Wait — schedule Post, Clear leaves the
        // Wait blocked forever.
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("poster");
        let p1 = tb.process("clearer");
        let p2 = tb.process("waiter");
        let v = tb.event_var("v", false);
        tb.push(p0, Op::Post(v));
        tb.push(p2, Op::Wait(v)); // observed: wait fires between post and clear
        tb.push(p1, Op::Clear(v));
        let t = tb.build().unwrap();

        let m = Machine::new(&t);
        let mut st = m.initial_state();
        m.step(&mut st, p0); // Post
        m.step(&mut st, p1); // Clear before the Wait
        assert_eq!(m.enabled(&st, p2), Err(BlockReason::EventVarClear));
        assert!(m.is_deadlocked(&st));
    }

    #[test]
    fn join_waits_for_all_children() {
        let mut tb = TraceBuilder::new();
        let main = tb.process("main");
        let (_f, kids) = tb.fork(main, &["a", "b"]);
        tb.compute(kids[0], "wa");
        tb.compute(kids[1], "wb");
        tb.join(main, &kids);
        let t = tb.build().unwrap();

        let m = Machine::new(&t);
        let mut st = m.initial_state();
        assert!(
            !m.started(&st, kids[0]),
            "children do not exist before the fork"
        );
        m.step(&mut st, main); // fork
        assert!(m.started(&st, kids[0]));
        assert_eq!(
            m.enabled(&st, main),
            Err(BlockReason::JoinChildrenIncomplete)
        );
        m.step(&mut st, kids[0]);
        assert_eq!(
            m.enabled(&st, main),
            Err(BlockReason::JoinChildrenIncomplete)
        );
        m.step(&mut st, kids[1]);
        assert_eq!(m.enabled(&st, main), Ok(EventId(3)));
    }

    #[test]
    fn replay_accepts_alternate_valid_order() {
        // Two independent processes: both orders replay.
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let a = tb.compute(p0, "a");
        let b = tb.compute(p1, "b");
        let t = tb.build().unwrap();
        let m = Machine::new(&t);
        assert!(m.replay(&[a, b]).is_ok());
        assert!(m.replay(&[b, a]).is_ok(), "swapped order is also valid");
    }

    #[test]
    fn replay_rejects_duplicates_and_gaps() {
        let t = handshake();
        let m = Machine::new(&t);
        let err = m.replay(&[EventId(0), EventId(0)]).unwrap_err();
        assert_eq!(err.reason, BlockReason::NotNextInProcess);
        let err = m.replay(&[EventId(0)]).unwrap_err();
        assert_eq!(err.reason, BlockReason::Incomplete);
    }

    #[test]
    fn states_with_equal_next_can_differ_by_flags() {
        // p0: Post(v); p1: Clear(v). Executing both in either order yields
        // the same progress but different flags — the state must
        // distinguish.
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let v = tb.event_var("v", false);
        tb.push(p0, Op::Post(v));
        tb.push(p1, Op::Clear(v));
        let t = tb.build().unwrap();
        let m = Machine::new(&t);

        let mut post_then_clear = m.initial_state();
        m.step(&mut post_then_clear, p0);
        m.step(&mut post_then_clear, p1);

        let mut clear_then_post = m.initial_state();
        m.step(&mut clear_then_post, p1);
        m.step(&mut clear_then_post, p0);

        assert_ne!(post_then_clear, clear_then_post);
        assert_eq!(post_then_clear.progress(), clear_then_post.progress());
        assert_ne!(post_then_clear.words(), clear_then_post.words());
    }

    #[test]
    fn the_row_holds_progress_then_counters_then_flags() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 2);
        let v = tb.event_var("v", true);
        let w = tb.event_var("w", false);
        tb.push(p0, Op::SemP(s));
        tb.push(p1, Op::Clear(v));
        tb.push(p1, Op::Post(w));
        let t = tb.build().unwrap();
        let m = Machine::new(&t);

        let init = m.initial_state();
        assert_eq!(init.words(), &[0, 0, 2, 1, 0]);
        assert_eq!(init.progress(), &[0, 0]);
        assert_eq!(init.flags(), &[1, 0]);
        let mut st = init.clone();
        let mut fp = st.key_fingerprint();
        m.step_keyed(&mut st, p0, &mut fp);
        m.step_keyed(&mut st, p1, &mut fp);
        m.step_keyed(&mut st, p1, &mut fp);
        assert_eq!(st.words(), &[1, 2, 1, 0, 1]);
        assert_eq!(st.executed_count(), 3);
        assert_eq!(fp, st.key_fingerprint());

        // Loading a row back is a copy into the same width.
        let mut loaded = init.clone();
        loaded.load(st.words(), st.executed_count());
        assert_eq!(loaded, st);
        assert_eq!(loaded.key_fingerprint(), fp);
    }
}
