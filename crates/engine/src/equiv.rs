//! Pluggable trace-equivalence strategies for the F(P) enumeration core.
//!
//! The paper's hardness results live in enumerating the feasible-execution
//! set F(P); how fast that is in practice is entirely a question of *which
//! schedules the search can afford not to visit*. This module makes the
//! equivalence the enumerator quotients by a pluggable [`EquivStrategy`],
//! with two variants:
//!
//! * [`EquivStrategy::Mazurkiewicz`] — the baseline: depth-first search
//!   with Godefroid sleep sets over the static independence relation.
//!   Visits one schedule per Mazurkiewicz trace class. Sound and simple,
//!   but a Mazurkiewicz class is often much finer than an element of F(P):
//!   all same-semaphore and same-event-variable operations are declared
//!   dependent, so e.g. the n! interleavings of n `V(s)` operations whose
//!   tokens are never consumed are n! distinct classes with one induced
//!   order.
//!
//! * [`EquivStrategy::NormalForm`] — canonical representative generation
//!   in the style of Maarand–Uustalu: a memoized quotient-graph DFS that
//!   extends a prefix only if it is the first (lexicographically least,
//!   children in event-index order) path to its *canonical node*. The
//!   canonical node is the future-relevant synchronization state plus the
//!   **pairing history** (the set of induced pairing edges emitted so
//!   far); see [`ScanState`]. Every complete canonical node is visited
//!   exactly once, so `schedules_explored` equals the number of distinct
//!   pairing histories — on the fixture gallery exactly `orders.len()`.
//!
//! # Soundness
//!
//! The canonical strategy never combines memoization with
//! history-dependent pruning (sleep sets or a static normal-form test on
//! the word) — that combination is the classic stateful-POR unsoundness:
//! a memo hit would trust a subtree that was only partially explored
//! *relative to the new incoming history*. Instead it explores **all**
//! enabled events at every fresh node and prunes only exact revisits of a
//! canonical node. Soundness then reduces to the key being *future-deciding*:
//! two prefixes with equal keys must have (a) the same set of feasible
//! completions and (b) completions inducing the same orders. See
//! [`ScanState::state_key`] for the component-by-component argument,
//! and DESIGN.md §12 for the full version. The differential suite pins the
//! conclusion: both strategies (and the unpruned oracle) must produce
//! bit-identical order sets on every fixture, both E9 families, and seeded
//! generated programs, in both feasibility modes.

use eo_model::{EventId, Op, Trace};
use eo_relations::Relation;
use std::collections::VecDeque;
use std::fmt;
use std::str::FromStr;

/// Which trace equivalence the enumerator quotients schedules by. The
/// engine-facing knob ([`crate::EngineOptions::equiv`], `--equiv` on the
/// CLI); [`EquivStrategy::canonical`] is what the search reads of it.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum EquivStrategy {
    /// Sleep-set DFS over static independence (one schedule per
    /// Mazurkiewicz class). The baseline every coarser strategy is
    /// differentially checked against.
    #[default]
    Mazurkiewicz,
    /// Canonical-representative generation over pairing histories: only
    /// the least representative of each canonical prefix is extended.
    NormalForm,
}

impl EquivStrategy {
    /// All strategies, baseline first — the order ablations report in.
    pub const ALL: [EquivStrategy; 2] = [EquivStrategy::Mazurkiewicz, EquivStrategy::NormalForm];

    /// Stable machine-readable name (CLI value, metrics label, JSON key).
    pub fn label(self) -> &'static str {
        match self {
            EquivStrategy::Mazurkiewicz => "mazurkiewicz",
            EquivStrategy::NormalForm => "normal-form",
        }
    }

    /// The canonical-form check: `true` switches the enumerator to the
    /// memoized quotient-graph search keyed on pairing histories; `false`
    /// keeps the plain schedule DFS pruned by sleep sets. Sleep sets and
    /// canonical memoization never combine — history-dependent pruning
    /// under prefix memoization is unsound (see the module docs).
    pub fn canonical(self) -> bool {
        self == EquivStrategy::NormalForm
    }
}

impl fmt::Display for EquivStrategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl FromStr for EquivStrategy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "mazurkiewicz" | "maz" => Ok(EquivStrategy::Mazurkiewicz),
            "normal-form" | "nf" => Ok(EquivStrategy::NormalForm),
            other => Err(format!(
                "unknown equivalence strategy `{other}` \
                 (expected mazurkiewicz|normal-form)"
            )),
        }
    }
}

// ------------------------------------------------------------------------
// Incremental induced-edge scan.

/// Opaque undo record for one [`ScanState::apply`] step. The edges the
/// step emitted are undone separately (the caller keeps them on its own
/// stack and hands the slice back to [`ScanState::undo`] — XOR keying
/// makes re-mixing them self-inverse).
#[derive(Clone, Copy, Debug)]
pub struct ScanUndo(UndoKind);

#[derive(Clone, Copy, Debug)]
enum UndoKind {
    /// Compute/Fork/Join — no pairing state touched.
    None,
    /// A `V(s)`: pop the token we pushed.
    SemV { sem: usize },
    /// A `P(s)`: push the popped token back to the front.
    SemP { sem: usize, token: Option<EventId> },
    /// A `Post(v)`: restore the previous post/flush state.
    Post {
        var: usize,
        prev_post: Option<EventId>,
        prev_flushed: bool,
    },
    /// A `Clear(v)`: pop the clear, restore post/flush state.
    Clear {
        var: usize,
        prev_post: Option<EventId>,
        prev_flushed: bool,
    },
    /// A `Wait(v)`: pop the wait, restore the flush flag.
    Wait { var: usize, prev_flushed: bool },
}

/// The incremental mirror of [`eo_model::induce::induced_edges`]'s scan:
/// per-semaphore FIFO token queues and per-event-variable causality state,
/// maintained with O(1)-amortized apply/undo along the enumeration DFS,
/// plus bookkeeping that lets the canonical strategy hash only the
/// *future-relevant* projection of that state:
///
/// * token queues are hashed truncated to their first `remaining_P(s)`
///   entries — FIFO pairing means later pops consume exactly the oldest
///   still-poppable tokens, so tokens beyond that horizon are dead weight
///   that can never produce an edge or affect enabledness (`sem ≥ queue
///   length ≥ remaining pops`);
/// * a variable's flag, current post and clear list are hashed only while
///   a `Wait(v)` is still outstanding (they are read by nothing else);
/// * a variable's fired-wait list is hashed only while a `Clear(v)` is
///   still outstanding (only Clears read it).
///
/// Two prefixes with equal machine progress and equal projections
/// therefore have the same enabled events forever, emit the same future
/// edge deltas, and complete to the same schedules — which is exactly the
/// property that makes memoizing on the projection sound.
///
/// The scan also keys the *set* of pairing edges emitted so far
/// ([`ScanState::edge_key`]). A complete schedule's induced order is
/// `cl(base edges ∪ that set)`, so every pruned strategy dedups its
/// leaves on this key before building any relation. Every buffer is
/// reserved at its largest possible size up front: apply/undo never
/// allocate, and [`ScanState::heap_bytes`] is fixed from construction on.
pub struct ScanState {
    /// Per-semaphore FIFO token queues; `None` entries are initial tokens.
    tokens: Vec<VecDeque<Option<EventId>>>,
    /// Per-variable: the Post currently holding the flag up, if any.
    current_post: Vec<Option<EventId>>,
    /// Per-variable: every Clear executed so far (never shrinks — later
    /// Waits place all earlier Clears before their triggering Post).
    clears: Vec<Vec<EventId>>,
    /// Per-variable: every Wait fired so far (never shrinks — later
    /// Clears are ordered after all of them).
    waits: Vec<Vec<EventId>>,
    /// Per-variable: whether the `clear → current post` placement edges
    /// of the *current* post were already emitted (by its first Wait).
    /// Guards the XOR edge key against double-mixing: every subsequent
    /// Wait on the same post would re-emit the identical edges.
    flushed: Vec<bool>,
    /// Per-semaphore count of `P(s)` operations not yet executed.
    rem_p: Vec<u32>,
    /// Per-variable count of `Wait(v)` operations not yet executed.
    rem_wait: Vec<u32>,
    /// Per-variable count of `Clear(v)` operations not yet executed.
    rem_clear: Vec<u32>,
    /// XOR accumulator over position-free 128-bit mixes of the emitted
    /// pairing edges (each edge enters exactly once; XOR makes undo free).
    edge_key: u128,
}

impl ScanState {
    /// The initial scan state of `trace`, with the remaining-operation
    /// totals counted from the full event list and every queue and list
    /// reserved at its final length.
    pub fn new(trace: &Trace) -> Self {
        let mut rem_p = vec![0u32; trace.semaphores.len()];
        let mut n_v = vec![0usize; trace.semaphores.len()];
        let mut rem_wait = vec![0u32; trace.event_vars.len()];
        let mut rem_clear = vec![0u32; trace.event_vars.len()];
        for e in &trace.events {
            match &e.op {
                Op::SemV(s) => n_v[s.index()] += 1,
                Op::SemP(s) => rem_p[s.index()] += 1,
                Op::Wait(v) => rem_wait[v.index()] += 1,
                Op::Clear(v) => rem_clear[v.index()] += 1,
                _ => {}
            }
        }
        let reserved = |counts: &[u32]| -> Vec<Vec<EventId>> {
            counts
                .iter()
                .map(|&k| Vec::with_capacity(k as usize))
                .collect()
        };
        ScanState {
            tokens: trace
                .semaphores
                .iter()
                .zip(&n_v)
                .map(|(s, &vs)| {
                    let mut q = VecDeque::with_capacity(s.initial as usize + vs);
                    q.extend((0..s.initial).map(|_| None));
                    q
                })
                .collect(),
            current_post: vec![None; trace.event_vars.len()],
            clears: reserved(&rem_clear),
            waits: reserved(&rem_wait),
            flushed: vec![false; trace.event_vars.len()],
            rem_p,
            rem_wait,
            rem_clear,
            edge_key: 0,
        }
    }

    /// Executes `eid`'s scan step. Newly induced pairing edges are
    /// appended to `edges_out`; the returned record (plus that same edge
    /// slice) undoes the step exactly.
    pub fn apply(
        &mut self,
        trace: &Trace,
        eid: EventId,
        edges_out: &mut Vec<(EventId, EventId)>,
    ) -> ScanUndo {
        let mut emit = |key: &mut u128, a: EventId, b: EventId| {
            *key ^= mix_edge(a, b);
            edges_out.push((a, b));
        };
        match &trace.event(eid).op {
            Op::SemV(s) => {
                self.tokens[s.index()].push_back(Some(eid));
                ScanUndo(UndoKind::SemV { sem: s.index() })
            }
            Op::SemP(s) => {
                let token = self.tokens[s.index()]
                    .pop_front()
                    .expect("invalid schedule: P on an empty semaphore");
                self.rem_p[s.index()] -= 1;
                if let Some(v) = token {
                    emit(&mut self.edge_key, v, eid);
                }
                ScanUndo(UndoKind::SemP {
                    sem: s.index(),
                    token,
                })
            }
            Op::Post(v) => {
                let i = v.index();
                let undo = ScanUndo(UndoKind::Post {
                    var: i,
                    prev_post: self.current_post[i],
                    prev_flushed: self.flushed[i],
                });
                self.current_post[i] = Some(eid);
                self.flushed[i] = false;
                undo
            }
            Op::Clear(v) => {
                let i = v.index();
                let undo = ScanUndo(UndoKind::Clear {
                    var: i,
                    prev_post: self.current_post[i],
                    prev_flushed: self.flushed[i],
                });
                for &w in &self.waits[i] {
                    emit(&mut self.edge_key, w, eid);
                }
                self.current_post[i] = None;
                self.flushed[i] = false;
                self.clears[i].push(eid);
                self.rem_clear[i] -= 1;
                undo
            }
            Op::Wait(v) => {
                let i = v.index();
                let undo = ScanUndo(UndoKind::Wait {
                    var: i,
                    prev_flushed: self.flushed[i],
                });
                if let Some(p) = self.current_post[i] {
                    emit(&mut self.edge_key, p, eid);
                    // The clear→post placements belong to the *post*, so
                    // only this post's first Wait mixes them (a Clear
                    // cannot intervene between two Waits on one post — it
                    // would reset `current_post`).
                    if !self.flushed[i] {
                        for &c in &self.clears[i] {
                            emit(&mut self.edge_key, c, p);
                        }
                        self.flushed[i] = true;
                    }
                }
                self.waits[i].push(eid);
                self.rem_wait[i] -= 1;
                undo
            }
            Op::Compute | Op::Fork(_) | Op::Join(_) => ScanUndo(UndoKind::None),
        }
    }

    /// Reverses one [`ScanState::apply`]; `edges` must be exactly the
    /// slice that step appended.
    pub fn undo(&mut self, undo: ScanUndo, edges: &[(EventId, EventId)]) {
        for &(a, b) in edges {
            self.edge_key ^= mix_edge(a, b);
        }
        match undo.0 {
            UndoKind::None => {}
            UndoKind::SemV { sem } => {
                self.tokens[sem].pop_back();
            }
            UndoKind::SemP { sem, token } => {
                self.tokens[sem].push_front(token);
                self.rem_p[sem] += 1;
            }
            UndoKind::Post {
                var,
                prev_post,
                prev_flushed,
            } => {
                self.current_post[var] = prev_post;
                self.flushed[var] = prev_flushed;
            }
            UndoKind::Clear {
                var,
                prev_post,
                prev_flushed,
            } => {
                self.clears[var].pop();
                self.current_post[var] = prev_post;
                self.flushed[var] = prev_flushed;
                self.rem_clear[var] += 1;
            }
            UndoKind::Wait { var, prev_flushed } => {
                self.waits[var].pop();
                self.flushed[var] = prev_flushed;
                self.rem_wait[var] += 1;
            }
        }
    }

    /// 64-bit XOR hash of the pairing edges emitted so far (the ordering
    /// component of the canonical key): the low lane of
    /// [`ScanState::edge_key`].
    #[inline]
    pub fn edge_hash(&self) -> u64 {
        self.edge_key as u64
    }

    /// 128-bit XOR key of the *set* of pairing edges emitted so far. Each
    /// edge is emitted at most once along a schedule (a P, Wait or Clear
    /// is the target of its own edges, and a post's clear placements are
    /// flushed once), so equal sets have equal keys; distinct sets
    /// collide with probability about 2⁻¹²⁸ per pair.
    #[inline]
    pub fn edge_key(&self) -> u128 {
        self.edge_key
    }

    /// The future-relevant canonical key of `(st, self)`, for a machine
    /// state `st` given by its [progress](eo_model::MachState::progress)
    /// and [flags](eo_model::MachState::flags), **excluding** the ordering
    /// component (callers fold in [`ScanState::edge_hash`] via
    /// [`combine_key`]).
    ///
    /// Soundness of every truncation, component by component:
    ///
    /// * per-process progress is always included — it determines the
    ///   remaining events, program-order/fork-join gating and →D gating;
    /// * `flag[v]` is included only while Waits on `v` remain: the flag
    ///   gates nothing else, and future Posts/Clears overwrite it
    ///   identically on both sides of a merge;
    /// * token queues are included up to `min(len, remaining_P)`: FIFO
    ///   pairing consumes exactly the oldest `remaining_P` tokens, and
    ///   enabledness of a future `P` only needs queue length ≥ 1, which
    ///   the kept prefix decides (a truncated queue is nonempty iff the
    ///   original is, because truncation only happens when `len ≥
    ///   remaining_P ≥` the pops that will ever occur);
    /// * `current_post`/`flushed`/`clears` are read only by future Waits,
    ///   `waits` only by future Clears — dropped when none remain.
    pub fn state_key(&self, progress: &[u32], flags: &[u32]) -> u128 {
        let mut h1: u64 = 0x243F_6A88_85A3_08D3;
        let mut h2: u64 = 0x1319_8A2E_0370_7344;
        let mut put = |w: u64| {
            let m = mix64(w);
            h1 ^= m;
            h2 = mix64(h2 ^ m);
        };
        for (p, &x) in progress.iter().enumerate() {
            put(tag(1, p as u64, x as u64));
        }
        for (v, &set) in flags.iter().enumerate() {
            if set != 0 && self.rem_wait[v] > 0 {
                put(tag(2, v as u64, 1));
            }
        }
        for (s, q) in self.tokens.iter().enumerate() {
            let keep = q.len().min(self.rem_p[s] as usize);
            for (i, tok) in q.iter().take(keep).enumerate() {
                let val = tok.map_or(0, |e| e.index() as u64 + 1);
                put(tag(3, ((s as u64) << 20) | i as u64, val));
            }
        }
        for v in 0..self.current_post.len() {
            if self.rem_wait[v] > 0 {
                let post = self.current_post[v].map_or(0, |e| e.index() as u64 + 1);
                put(tag(4, v as u64, (post << 1) | self.flushed[v] as u64));
                for (i, &c) in self.clears[v].iter().enumerate() {
                    put(tag(5, ((v as u64) << 20) | i as u64, c.index() as u64));
                }
            }
            if self.rem_clear[v] > 0 {
                for (i, &w) in self.waits[v].iter().enumerate() {
                    put(tag(6, ((v as u64) << 20) | i as u64, w.index() as u64));
                }
            }
        }
        ((h1 as u128) << 64) | h2 as u128
    }

    /// Approximate heap bytes of the scan state (budget accounting).
    /// Constant after [`ScanState::new`], which reserves every buffer at
    /// its final size.
    pub fn heap_bytes(&self) -> usize {
        let deques: usize = self.tokens.iter().map(|q| q.capacity() * 16).sum();
        let lists: usize = self
            .clears
            .iter()
            .chain(&self.waits)
            .map(|l| l.capacity() * std::mem::size_of::<EventId>())
            .sum();
        deques + lists + self.current_post.len() * 16
    }
}

/// Folds an ordering-component hash into a structural key.
#[inline]
pub fn combine_key(state_key: u128, ordering_hash: u64) -> u128 {
    let lo = mix64(ordering_hash ^ 0x4528_21E6_38D0_1377);
    let hi = mix64(ordering_hash ^ 0xBE54_66CF_34E9_0C6C);
    state_key ^ (((hi as u128) << 64) | lo as u128)
}

/// Inserts `a → b` into the transitively closed `rel`, restoring closure:
/// every predecessor of `a` (and `a`) gains every successor of `b` (and
/// `b`). `scratch` is a caller-reused successor-row buffer. O(n²/64).
pub fn closed_insert(rel: &mut Relation, a: usize, b: usize, scratch: &mut eo_relations::BitSet) {
    if a == b || rel.contains(a, b) {
        return;
    }
    scratch.clone_from(rel.row(b));
    scratch.insert(b);
    rel.row_mut(a).union_with(scratch);
    for x in 0..rel.len() {
        if rel.contains(x, a) {
            rel.row_mut(x).union_with(scratch);
        }
    }
}

/// Zobrist-style slot packing: `(tag, slot, value)` into one mixer input.
/// Tags keep component families from aliasing; slots stay well under 2⁴⁰.
#[inline]
fn tag(kind: u64, slot: u64, value: u64) -> u64 {
    (kind << 60) ^ (slot << 24) ^ value
}

/// 128-bit mixer for one pairing edge; XOR-accumulated, so apply/undo
/// are the same operation. The low lane is the 64-bit pairing-history
/// hash; the high lane mixes the same edge under another salt.
#[inline]
fn mix_edge(a: EventId, b: EventId) -> u128 {
    let edge = ((a.index() as u64) << 32) ^ b.index() as u64;
    let lo = mix64(0x9E4C_55AB_0E5B_D3A1 ^ edge);
    let hi = mix64(0x5851_F42D_4C95_7F2D ^ edge.rotate_left(29));
    ((hi as u128) << 64) | lo as u128
}

/// Finalizer of `splitmix64` (full-avalanche bijective mixing).
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::{FeasibilityMode, SearchCtx};
    use eo_model::fixtures;
    use eo_model::induce;

    /// Replaying a complete schedule through the incremental scan must
    /// reproduce exactly the edge set (and XOR key) of the reference
    /// scan in `eo_model::induce`, and undoing everything must return to
    /// the pristine state.
    #[test]
    fn scan_mirrors_induce_and_undo_restores() {
        let (trace, _ids) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        // Drive one specific complete schedule.
        let schedule: Vec<EventId> = (0..5).map(EventId::new).collect();
        let mut scan = ScanState::new(exec.trace());
        let init = ctx.initial_state();
        let initial_key = scan.state_key(init.progress(), init.flags());
        let heap = scan.heap_bytes();
        let mut st = ctx.initial_state();
        let mut edges = Vec::new();
        let mut undos = Vec::new();
        let mut marks = Vec::new();
        for &e in &schedule {
            marks.push(edges.len());
            undos.push(scan.apply(exec.trace(), e, &mut edges));
            ctx.step(&mut st, exec.trace().event(e).process);
        }
        assert_eq!(scan.heap_bytes(), heap, "the scan reserves up front");
        // The emitted pairing edges + base edges = the reference edges.
        let d = ctx.effective_d();
        let reference = induce::induced_edges(exec.trace(), d, &schedule);
        let mut rebuilt = induce::base_edges(exec.trace(), d);
        for &(a, b) in &edges {
            rebuilt.insert(a.index(), b.index());
        }
        assert_eq!(rebuilt, reference);
        // The incremental key is the key of the reference pairing-edge
        // set, recomputed from scratch.
        let pairing = induce::pairing_edges(exec.trace(), &schedule);
        assert!(pairing.pair_count() > 0, "the schedule pairs something");
        let recomputed = pairing.pairs().fold(0u128, |k, (a, b)| {
            k ^ mix_edge(EventId::new(a), EventId::new(b))
        });
        assert_eq!(scan.edge_key(), recomputed);
        assert_eq!(scan.edge_hash(), recomputed as u64);
        // Undo everything: keys and structural key return to initial.
        for (undo, mark) in undos.into_iter().zip(marks).rev() {
            let tail: Vec<_> = edges.drain(mark..).collect();
            scan.undo(undo, &tail);
        }
        assert_eq!(scan.edge_key(), 0);
        assert_eq!(scan.edge_hash(), 0);
        assert_eq!(scan.state_key(init.progress(), init.flags()), initial_key);
    }

    #[test]
    fn closed_insert_matches_full_closure() {
        let mut rel = Relation::new(5);
        let mut scratch = eo_relations::BitSet::new(5);
        let edges = [(0usize, 1usize), (1, 2), (3, 1), (2, 4)];
        let mut raw = Relation::new(5);
        for &(a, b) in &edges {
            closed_insert(&mut rel, a, b, &mut scratch);
            raw.insert(a, b);
            let full = raw.transitive_closure();
            assert_eq!(rel, full, "incremental closure diverged at ({a},{b})");
        }
    }

    #[test]
    fn strategy_labels_round_trip() {
        for s in EquivStrategy::ALL {
            assert_eq!(s.label().parse::<EquivStrategy>().unwrap(), s);
        }
        assert!("bogus".parse::<EquivStrategy>().is_err());
        let err = "grain".parse::<EquivStrategy>().unwrap_err();
        assert!(err.contains("mazurkiewicz|normal-form)"), "{err}");
        assert_eq!(
            "maz".parse::<EquivStrategy>().unwrap(),
            EquivStrategy::Mazurkiewicz
        );
        assert_eq!(
            "nf".parse::<EquivStrategy>().unwrap(),
            EquivStrategy::NormalForm
        );
    }
}
