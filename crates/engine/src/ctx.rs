//! The search context: synchronization machine + dependence gating.

use eo_model::{EventId, MachState, Machine, ProcessId, ProgramExecution};
use eo_relations::Relation;
use std::borrow::Cow;

/// Which feasibility notion the engine uses.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FeasibilityMode {
    /// The paper's F(P): alternate executions must preserve the observed
    /// shared-data dependences (condition F3). Default.
    #[default]
    PreserveDependences,
    /// The Section 5.3 variant: all executions performing the same events
    /// are feasible, regardless of the original dependences. (The related
    /// work — EGP, HMW — computes orderings under this notion; the
    /// intractability results hold here too since the reduction programs
    /// have no dependences at all.)
    IgnoreDependences,
}

/// Everything a schedule-space search needs about one program execution:
/// the synchronization [`Machine`] and, per event, the list of →D
/// predecessors that must have executed first (empty in
/// [`FeasibilityMode::IgnoreDependences`]).
pub struct SearchCtx<'a> {
    exec: &'a ProgramExecution,
    machine: Machine<'a>,
    mode: FeasibilityMode,
    /// `dep_preds[e]` = events that must precede `e` by →D.
    dep_preds: Vec<Vec<EventId>>,
    /// The →D in force: borrowed from the execution, or the empty
    /// relation (built once here) when dependences are ignored.
    effective_d: Cow<'a, Relation>,
}

impl<'a> SearchCtx<'a> {
    /// Builds a context for `exec` under `mode`.
    pub fn new(exec: &'a ProgramExecution, mode: FeasibilityMode) -> Self {
        let n = exec.n_events();
        let mut dep_preds = vec![Vec::new(); n];
        let effective_d = match mode {
            FeasibilityMode::PreserveDependences => {
                for (a, b) in exec.d().pairs() {
                    dep_preds[b].push(EventId::new(a));
                }
                Cow::Borrowed(exec.d())
            }
            FeasibilityMode::IgnoreDependences => Cow::Owned(Relation::new(n)),
        };
        SearchCtx {
            exec,
            machine: Machine::new(exec.trace()),
            mode,
            dep_preds,
            effective_d,
        }
    }

    /// The execution being analyzed.
    #[inline]
    pub fn exec(&self) -> &'a ProgramExecution {
        self.exec
    }

    /// The underlying synchronization machine.
    #[inline]
    pub fn machine(&self) -> &Machine<'a> {
        &self.machine
    }

    /// The feasibility mode in force.
    #[inline]
    pub fn mode(&self) -> FeasibilityMode {
        self.mode
    }

    /// Number of events.
    #[inline]
    pub fn n_events(&self) -> usize {
        self.exec.n_events()
    }

    /// The dependence relation in force: the execution's →D, or the empty
    /// relation when dependences are ignored. Built once per context.
    #[inline]
    pub fn effective_d(&self) -> &Relation {
        &self.effective_d
    }

    /// The **typed** dependence input in force ([`eo_model::Dependence`]):
    /// the execution's per-class →D, borrowed, or the empty dependence
    /// when dependences are ignored. Its flat fold equals
    /// [`Self::effective_d`].
    pub fn effective_dependence(&self) -> Cow<'a, eo_model::Dependence> {
        match self.mode {
            FeasibilityMode::PreserveDependences => Cow::Borrowed(self.exec.dependence()),
            FeasibilityMode::IgnoreDependences => {
                Cow::Owned(eo_model::Dependence::empty(self.n_events()))
            }
        }
    }

    /// True iff all →D predecessors of `e` have executed at `st`.
    #[inline]
    pub fn deps_satisfied(&self, st: &MachState, e: EventId) -> bool {
        self.dep_preds[e.index()]
            .iter()
            .all(|&p| self.machine.executed(st, p))
    }

    /// The events executable at `st` under full feasibility (machine
    /// semantics **and** dependence gating), as (process, event) pairs
    /// sorted by process id.
    pub fn co_enabled(&self, st: &MachState) -> Vec<(ProcessId, EventId)> {
        let mut out = Vec::new();
        self.co_enabled_into(st, &mut out);
        out
    }

    /// [`SearchCtx::co_enabled`] into a caller-provided buffer (cleared
    /// first). The engine's inner loops call this once per visited state
    /// and per witness probe; routing every call through a reused scratch
    /// buffer keeps the search allocation-free in steady state.
    pub fn co_enabled_into(&self, st: &MachState, out: &mut Vec<(ProcessId, EventId)>) {
        self.machine.enabled_events_into(st, out);
        out.retain(|&(_, e)| self.deps_satisfied(st, e));
    }

    /// The initial search state.
    pub fn initial_state(&self) -> MachState {
        self.machine.initial_state()
    }

    /// Executes the next event of `p` (which must be co-enabled).
    pub fn step(&self, st: &mut MachState, p: ProcessId) -> EventId {
        let e = self.machine.step(st, p);
        debug_assert!(
            self.dep_preds[e.index()]
                .iter()
                .all(|&q| self.machine.executed(st, q)),
            "stepped an event whose dependences were unsatisfied"
        );
        e
    }

    /// [`SearchCtx::step`] that also maintains the state's key
    /// fingerprint incrementally — see
    /// [`Machine::step_keyed`](eo_model::machine::Machine::step_keyed).
    /// The engine's expansion and witness loops pair this with
    /// fingerprint-supplied interning so each lattice edge costs an O(1)
    /// fingerprint update instead of a full re-hash.
    pub fn step_keyed(&self, st: &mut MachState, p: ProcessId, fp: &mut u64) -> EventId {
        let e = self.machine.step_keyed(st, p, fp);
        debug_assert!(
            self.dep_preds[e.index()]
                .iter()
                .all(|&q| self.machine.executed(st, q)),
            "stepped an event whose dependences were unsatisfied"
        );
        e
    }

    /// [`SearchCtx::step_keyed`] when the caller already knows `e` — the
    /// `(p, e)` pairs in a node's enabled list were validated when the
    /// list was built, so the expansion loop applies them without
    /// re-deriving the event (see
    /// [`Machine::apply_keyed`](eo_model::machine::Machine::apply_keyed)).
    pub fn apply_keyed(&self, st: &mut MachState, p: ProcessId, e: EventId, fp: &mut u64) {
        self.machine.apply_keyed(st, p, e, fp);
        debug_assert!(
            self.dep_preds[e.index()]
                .iter()
                .all(|&q| self.machine.executed(st, q)),
            "applied an event whose dependences were unsatisfied"
        );
    }

    /// True iff every event has executed.
    #[inline]
    pub fn is_complete(&self, st: &MachState) -> bool {
        self.machine.is_complete(st)
    }

    /// True iff `e` is co-enabled at `st`: it is its process's next
    /// event, the machine enables it, and its →D predecessors have
    /// executed.
    pub fn can_fire(&self, st: &MachState, e: EventId) -> bool {
        let p = self.exec.event(e).process;
        matches!(self.machine.enabled(st, p), Ok(next) if next == e) && self.deps_satisfied(st, e)
    }

    /// Replays `order` from the initial state under full feasibility
    /// (machine semantics **and** dependence gating). Returns the state
    /// reached, or `None` at the first event that is not co-enabled when
    /// its turn comes (a repeated event never is: its process has moved
    /// past it).
    pub fn replay(&self, order: impl IntoIterator<Item = EventId>) -> Option<MachState> {
        let mut st = self.initial_state();
        for e in order {
            if !self.can_fire(&st, e) {
                return None;
            }
            self.machine.step(&mut st, self.exec.event(e).process);
        }
        Some(st)
    }

    /// Checks a `witness_before` answer on its own terms: `schedule` is
    /// complete, replays under full feasibility and runs `first` before
    /// `second`. The error says which part fails.
    pub fn check_witness_before(
        &self,
        first: EventId,
        second: EventId,
        schedule: &[EventId],
    ) -> Result<(), String> {
        let st = self
            .replay(schedule.iter().copied())
            .ok_or("the schedule does not replay")?;
        if !self.is_complete(&st) {
            return Err("the schedule is incomplete".into());
        }
        let pos = |e: EventId| schedule.iter().position(|&x| x == e);
        if pos(first) < pos(second) {
            Ok(())
        } else {
            Err(format!("the schedule runs {second} before {first}"))
        }
    }

    /// Checks a `witness_overlap` answer on its own terms: `prefix` holds
    /// neither event and replays under full feasibility to a state where
    /// both are co-enabled, and firing them back to back there, in one
    /// order or the other, leaves a complete schedule reachable (found by
    /// a plain search, so keep the program small).
    pub fn check_witness_overlap(
        &self,
        a: EventId,
        b: EventId,
        prefix: &[EventId],
    ) -> Result<(), String> {
        if prefix.contains(&a) || prefix.contains(&b) {
            return Err("the prefix runs one of the pair".into());
        }
        let st = self
            .replay(prefix.iter().copied())
            .ok_or("the prefix does not replay")?;
        let enabled = self.co_enabled(&st);
        if ![a, b].iter().all(|&e| enabled.iter().any(|&(_, f)| f == e)) {
            return Err("the pair is not co-enabled after the prefix".into());
        }
        let completes = |x: EventId, y: EventId| {
            self.replay(prefix.iter().copied().chain([x, y]))
                .is_some_and(|st| self.completable(st))
        };
        if completes(a, b) || completes(b, a) {
            Ok(())
        } else {
            Err("no back-to-back firing of the pair completes".into())
        }
    }

    /// Whether some complete schedule is reachable from `st`: a
    /// depth-first search over co-enabled steps, each state visited once.
    fn completable(&self, st: MachState) -> bool {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![st];
        let mut enabled = Vec::new();
        while let Some(st) = stack.pop() {
            if self.is_complete(&st) {
                return true;
            }
            self.co_enabled_into(&st, &mut enabled);
            for &(p, _) in &enabled {
                let mut next = st.clone();
                self.machine.step(&mut next, p);
                if seen.insert(next.clone()) {
                    stack.push(next);
                }
            }
        }
        false
    }

    /// The induced partial order →T′ of a complete schedule under this
    /// context's feasibility mode, computed from scratch (the reference
    /// the incremental enumeration leaves are checked against).
    pub fn induced_order(&self, order: &[EventId]) -> Relation {
        eo_model::induce::induced_order(self.exec.trace(), self.effective_d(), order)
    }

    /// Static symmetric dependence between two events, for Mazurkiewicz
    /// class pruning: same process, a shared-variable conflict, the same
    /// semaphore, or the same event variable. (Fork/join orderings need no
    /// entry here: a fork and its descendants' events are never
    /// co-enabled, so they can never be commuted by the search.)
    pub fn statically_dependent(&self, e1: EventId, e2: EventId) -> bool {
        let a = self.exec.event(e1);
        let b = self.exec.event(e2);
        if a.process == b.process {
            return true;
        }
        if a.conflicts_with(b) {
            return true;
        }
        match (a.op.semaphore(), b.op.semaphore()) {
            (Some(s1), Some(s2)) if s1 == s2 => return true,
            _ => {}
        }
        matches!((a.op.event_var(), b.op.event_var()), (Some(v1), Some(v2)) if v1 == v2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eo_model::fixtures;

    #[test]
    fn dependence_gating_blocks_reordering() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let st = ctx.initial_state();
        let enabled: Vec<EventId> = ctx.co_enabled(&st).into_iter().map(|(_, e)| e).collect();
        assert_eq!(enabled, vec![inc0], "inc1 is gated by inc0 →D inc1");
        assert!(!ctx.deps_satisfied(&st, inc1));
    }

    #[test]
    fn ignore_mode_drops_the_gate() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
        let st = ctx.initial_state();
        let enabled: Vec<EventId> = ctx.co_enabled(&st).into_iter().map(|(_, e)| e).collect();
        assert_eq!(enabled, vec![inc0, inc1], "both increments are schedulable");
        assert_eq!(ctx.effective_d().pair_count(), 0);
    }

    #[test]
    fn static_dependence_classification() {
        let (trace, ids) = fixtures::sem_handshake();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        assert!(ctx.statically_dependent(ids.v, ids.p), "same semaphore");
        assert!(ctx.statically_dependent(ids.v, ids.after_v), "same process");
        assert!(
            !ctx.statically_dependent(ids.after_v, ids.after_p),
            "different processes, no conflict, no common sync object"
        );
    }

    #[test]
    fn step_advances_completion() {
        let (trace, a, b) = fixtures::independent_pair();
        let exec = trace.to_execution().unwrap();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let mut st = ctx.initial_state();
        assert!(!ctx.is_complete(&st));
        let got_a = ctx.step(&mut st, exec.event(a).process);
        assert_eq!(got_a, a);
        ctx.step(&mut st, exec.event(b).process);
        assert!(ctx.is_complete(&st));
    }
}
