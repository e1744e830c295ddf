//! Construction of [`Program`]s.
//!
//! [`ProgramBuilder`] appends statements to named process definitions;
//! nested blocks (conditional branches) are built through [`BlockBuilder`]
//! closures. `build()` panics on a statically malformed program — builder
//! misuse is a bug in the *calling* code (the reductions construct
//! thousands of programs this way and rely on validity), while
//! [`ProgramBuilder::try_build`] returns the error for callers assembling
//! programs from untrusted descriptions.
//!
//! Declaring a process and filling in its body are separate steps.
//! Process indices, and with them the event ids of every trace, follow
//! declaration order, and the reductions rely on that: the single-semaphore
//! reduction declares every job before filling in bodies that join other
//! jobs, and the event-style reduction declares each `var_i` before the
//! side processes it forks.

use crate::ast::{
    BarrierDef, BarrierId, ChanId, ChannelDef, CondId, CondvarDef, EvVarDef, MutexDef, MutexId,
    ProcDef, ProcRef, Program, ProgramError, SemDef, Stmt, StmtKind,
};
use eo_model::{EvVarId, SemId, VarId};

/// Builds a [`Program`] incrementally.
#[derive(Default)]
pub struct ProgramBuilder {
    program: Program,
}

impl ProgramBuilder {
    /// A fresh builder with no declarations.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a root process (exists from the start).
    pub fn process(&mut self, name: &str) -> ProcRef {
        self.add_proc(name, true)
    }

    /// Declares a non-root process (must be forked exactly once).
    pub fn subprocess(&mut self, name: &str) -> ProcRef {
        self.add_proc(name, false)
    }

    fn add_proc(&mut self, name: &str, root: bool) -> ProcRef {
        let r = ProcRef(self.program.processes.len() as u32);
        self.program.processes.push(ProcDef {
            name: name.to_string(),
            root,
            body: Vec::new(),
        });
        r
    }

    /// Declares a counting semaphore initialized to zero (the paper's
    /// convention).
    pub fn semaphore(&mut self, name: &str) -> SemId {
        self.semaphore_init(name, 0)
    }

    /// Declares a counting semaphore with an explicit initial value.
    pub fn semaphore_init(&mut self, name: &str, initial: u32) -> SemId {
        let id = SemId::new(self.program.semaphores.len());
        self.program.semaphores.push(SemDef {
            name: name.to_string(),
            initial,
        });
        id
    }

    /// Declares an event variable, initially clear.
    pub fn event_var(&mut self, name: &str) -> EvVarId {
        self.event_var_init(name, false)
    }

    /// Declares an event variable with an explicit initial flag.
    pub fn event_var_init(&mut self, name: &str, initially_set: bool) -> EvVarId {
        let id = EvVarId::new(self.program.event_vars.len());
        self.program.event_vars.push(EvVarDef {
            name: name.to_string(),
            initially_set,
        });
        id
    }

    /// Declares a shared variable (initially 0).
    pub fn variable(&mut self, name: &str) -> VarId {
        let id = VarId::new(self.program.variables.len());
        self.program.variables.push(name.to_string());
        id
    }

    /// Declares a barrier for `parties` participating processes.
    pub fn barrier(&mut self, name: &str, parties: u32) -> BarrierId {
        let id = BarrierId::new(self.program.barriers.len() as u32);
        self.program.barriers.push(BarrierDef {
            name: name.to_string(),
            parties,
        });
        id
    }

    /// Declares a mutex (initially unlocked).
    pub fn mutex(&mut self, name: &str) -> MutexId {
        let id = MutexId::new(self.program.mutexes.len() as u32);
        self.program.mutexes.push(MutexDef {
            name: name.to_string(),
        });
        id
    }

    /// Declares a condition variable.
    pub fn condvar(&mut self, name: &str) -> CondId {
        let id = CondId::new(self.program.condvars.len() as u32);
        self.program.condvars.push(CondvarDef {
            name: name.to_string(),
        });
        id
    }

    /// Declares a bounded channel with the given capacity (≥ 1).
    pub fn channel(&mut self, name: &str, capacity: u32) -> ChanId {
        let id = ChanId::new(self.program.channels.len() as u32);
        self.program.channels.push(ChannelDef {
            name: name.to_string(),
            capacity,
        });
        id
    }

    fn push(&mut self, p: ProcRef, stmt: Stmt) {
        self.program.processes[p.index()].body.push(stmt);
    }

    /// Appends a labeled no-access computation event (the paper's
    /// `label: skip`).
    pub fn compute(&mut self, p: ProcRef, label: &str) -> &mut Self {
        self.push(
            p,
            Stmt::labeled(
                StmtKind::Compute {
                    reads: vec![],
                    writes: vec![],
                },
                label,
            ),
        );
        self
    }

    /// Appends an unlabeled skip.
    pub fn skip(&mut self, p: ProcRef) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Skip));
        self
    }

    /// Appends an abstract computation with explicit read/write sets.
    pub fn compute_rw(
        &mut self,
        p: ProcRef,
        reads: &[VarId],
        writes: &[VarId],
        label: &str,
    ) -> &mut Self {
        self.push(
            p,
            Stmt::labeled(
                StmtKind::Compute {
                    reads: reads.to_vec(),
                    writes: writes.to_vec(),
                },
                label,
            ),
        );
        self
    }

    /// Appends `var := value`.
    pub fn assign(&mut self, p: ProcRef, var: VarId, value: i64) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Assign { var, value }));
        self
    }

    /// Appends `P(sem)`.
    pub fn sem_p(&mut self, p: ProcRef, sem: SemId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::SemP(sem)));
        self
    }

    /// Appends `V(sem)`.
    pub fn sem_v(&mut self, p: ProcRef, sem: SemId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::SemV(sem)));
        self
    }

    /// Appends `Post(ev)`.
    pub fn post(&mut self, p: ProcRef, ev: EvVarId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Post(ev)));
        self
    }

    /// Appends `Wait(ev)`.
    pub fn wait(&mut self, p: ProcRef, ev: EvVarId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Wait(ev)));
        self
    }

    /// Appends `Clear(ev)`.
    pub fn clear(&mut self, p: ProcRef, ev: EvVarId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Clear(ev)));
        self
    }

    /// Appends `barrier_wait(b)` (top level only; see
    /// [`StmtKind::BarrierWait`]).
    pub fn barrier_wait(&mut self, p: ProcRef, b: BarrierId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::BarrierWait(b)));
        self
    }

    /// Appends `lock(m)`.
    pub fn lock(&mut self, p: ProcRef, m: MutexId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Lock(m)));
        self
    }

    /// Appends `unlock(m)`.
    pub fn unlock(&mut self, p: ProcRef, m: MutexId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Unlock(m)));
        self
    }

    /// Appends `cond_wait(c, m)`.
    pub fn cond_wait(&mut self, p: ProcRef, c: CondId, m: MutexId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::CondWait(c, m)));
        self
    }

    /// Appends `cond_signal(c)`.
    pub fn cond_signal(&mut self, p: ProcRef, c: CondId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::CondSignal(c)));
        self
    }

    /// Appends `send(ch)`.
    pub fn send(&mut self, p: ProcRef, ch: ChanId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Send(ch)));
        self
    }

    /// Appends `recv(ch)`.
    pub fn recv(&mut self, p: ProcRef, ch: ChanId) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Recv(ch)));
        self
    }

    /// Appends a labeled synchronization statement (same op as the
    /// unlabeled variants, but carrying a label into the trace).
    pub fn labeled(&mut self, p: ProcRef, kind: StmtKind, label: &str) -> &mut Self {
        self.push(p, Stmt::labeled(kind, label));
        self
    }

    /// Appends `fork {targets…}`.
    pub fn fork(&mut self, p: ProcRef, targets: &[ProcRef]) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Fork(targets.to_vec())));
        self
    }

    /// Appends `join {targets…}`.
    pub fn join(&mut self, p: ProcRef, targets: &[ProcRef]) -> &mut Self {
        self.push(p, Stmt::new(StmtKind::Join(targets.to_vec())));
        self
    }

    /// Appends `if var = value then … else …`, building the branches with
    /// the given closures.
    pub fn if_eq(
        &mut self,
        p: ProcRef,
        var: VarId,
        value: i64,
        then_f: impl FnOnce(&mut BlockBuilder),
        else_f: impl FnOnce(&mut BlockBuilder),
    ) -> &mut Self {
        let mut then_b = BlockBuilder::default();
        then_f(&mut then_b);
        let mut else_b = BlockBuilder::default();
        else_f(&mut else_b);
        self.push(
            p,
            Stmt::new(StmtKind::If {
                var,
                equals: value,
                then_branch: then_b.stmts,
                else_branch: else_b.stmts,
            }),
        );
        self
    }

    /// Labeled variant of [`ProgramBuilder::if_eq`] (the branch test event
    /// carries the label).
    #[allow(clippy::too_many_arguments)]
    pub fn if_eq_labeled(
        &mut self,
        p: ProcRef,
        var: VarId,
        value: i64,
        label: &str,
        then_f: impl FnOnce(&mut BlockBuilder),
        else_f: impl FnOnce(&mut BlockBuilder),
    ) -> &mut Self {
        let mut then_b = BlockBuilder::default();
        then_f(&mut then_b);
        let mut else_b = BlockBuilder::default();
        else_f(&mut else_b);
        self.push(
            p,
            Stmt::labeled(
                StmtKind::If {
                    var,
                    equals: value,
                    then_branch: then_b.stmts,
                    else_branch: else_b.stmts,
                },
                label,
            ),
        );
        self
    }

    /// Finishes, panicking on a statically malformed program.
    ///
    /// # Panics
    /// Panics if validation fails — see [`ProgramBuilder::try_build`] for
    /// the fallible version.
    pub fn build(self) -> Program {
        match self.try_build() {
            Ok(p) => p,
            Err(e) => panic!("ProgramBuilder produced an invalid program: {e}"),
        }
    }

    /// Finishes, returning the validation error if the program is
    /// malformed.
    pub fn try_build(self) -> Result<Program, ProgramError> {
        self.program.validate()?;
        Ok(self.program)
    }
}

/// Builds the statement list of one conditional branch.
#[derive(Default)]
pub struct BlockBuilder {
    stmts: Vec<Stmt>,
}

impl BlockBuilder {
    /// Appends a labeled computation event.
    pub fn compute_here(&mut self, label: &str) -> &mut Self {
        self.stmts.push(Stmt::labeled(
            StmtKind::Compute {
                reads: vec![],
                writes: vec![],
            },
            label,
        ));
        self
    }

    /// Appends `var := value`.
    pub fn assign_here(&mut self, var: VarId, value: i64) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Assign { var, value }));
        self
    }

    /// Appends `P(sem)`.
    pub fn sem_p_here(&mut self, sem: SemId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::SemP(sem)));
        self
    }

    /// Appends `V(sem)`.
    pub fn sem_v_here(&mut self, sem: SemId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::SemV(sem)));
        self
    }

    /// Appends `Post(ev)`.
    pub fn post_here(&mut self, ev: EvVarId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Post(ev)));
        self
    }

    /// Appends `Wait(ev)`.
    pub fn wait_here(&mut self, ev: EvVarId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Wait(ev)));
        self
    }

    /// Appends `Clear(ev)`.
    pub fn clear_here(&mut self, ev: EvVarId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Clear(ev)));
        self
    }

    /// Appends `lock(m)`.
    pub fn lock_here(&mut self, m: MutexId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Lock(m)));
        self
    }

    /// Appends `unlock(m)`.
    pub fn unlock_here(&mut self, m: MutexId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Unlock(m)));
        self
    }

    /// Appends `cond_wait(c, m)`.
    pub fn cond_wait_here(&mut self, c: CondId, m: MutexId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::CondWait(c, m)));
        self
    }

    /// Appends `cond_signal(c)`.
    pub fn cond_signal_here(&mut self, c: CondId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::CondSignal(c)));
        self
    }

    /// Appends `send(ch)`.
    pub fn send_here(&mut self, ch: ChanId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Send(ch)));
        self
    }

    /// Appends `recv(ch)`.
    pub fn recv_here(&mut self, ch: ChanId) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Recv(ch)));
        self
    }

    /// Appends `fork {targets…}`.
    pub fn fork_here(&mut self, targets: &[ProcRef]) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Fork(targets.to_vec())));
        self
    }

    /// Appends `join {targets…}`.
    pub fn join_here(&mut self, targets: &[ProcRef]) -> &mut Self {
        self.stmts.push(Stmt::new(StmtKind::Join(targets.to_vec())));
        self
    }

    /// Appends a nested conditional.
    pub fn if_eq_here(
        &mut self,
        var: VarId,
        value: i64,
        then_f: impl FnOnce(&mut BlockBuilder),
        else_f: impl FnOnce(&mut BlockBuilder),
    ) -> &mut Self {
        let mut then_b = BlockBuilder::default();
        then_f(&mut then_b);
        let mut else_b = BlockBuilder::default();
        else_f(&mut else_b);
        self.stmts.push(Stmt::new(StmtKind::If {
            var,
            equals: value,
            then_branch: then_b.stmts,
            else_branch: else_b.stmts,
        }));
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_assembles_declarations() {
        let mut b = ProgramBuilder::new();
        let p = b.process("main");
        let s = b.semaphore("s");
        let ev = b.event_var("ev");
        let x = b.variable("x");
        b.sem_v(p, s).post(p, ev).assign(p, x, 3).compute(p, "done");
        let prog = b.build();
        assert_eq!(prog.processes.len(), 1);
        assert_eq!(prog.semaphores.len(), 1);
        assert_eq!(prog.event_vars.len(), 1);
        assert_eq!(prog.variables, vec!["x".to_string()]);
        assert_eq!(prog.processes[0].body.len(), 4);
    }

    #[test]
    fn nested_if_builds() {
        let mut b = ProgramBuilder::new();
        let p = b.process("main");
        let x = b.variable("x");
        let y = b.variable("y");
        b.if_eq(
            p,
            x,
            0,
            |then| {
                then.if_eq_here(
                    y,
                    1,
                    |inner| {
                        inner.compute_here("deep");
                    },
                    |_e| {},
                );
            },
            |els| {
                els.compute_here("shallow");
            },
        );
        let prog = b.build();
        assert_eq!(prog.max_events(), 3, "outer if + inner if + deep");
    }

    #[test]
    #[should_panic(expected = "invalid program")]
    fn build_panics_on_orphan_subprocess() {
        let mut b = ProgramBuilder::new();
        b.process("main");
        b.subprocess("orphan"); // never forked
        let _ = b.build();
    }

    #[test]
    fn try_build_reports_orphan_subprocess() {
        let mut b = ProgramBuilder::new();
        b.process("main");
        b.subprocess("orphan");
        assert!(b.try_build().is_err());
    }

    #[test]
    fn typed_handles_cover_all_sync_objects() {
        let mut b = ProgramBuilder::new();
        let bar = b.barrier("bar", 2);
        let m = b.mutex("m");
        let c = b.condvar("c");
        let ch = b.channel("ch", 1);
        let a = b.process("a");
        b.lock(a, m)
            .cond_signal(a, c)
            .unlock(a, m)
            .send(a, ch)
            .barrier_wait(a, bar);
        let p = b.process("b");
        b.lock(p, m)
            .cond_wait(p, c, m)
            .unlock(p, m)
            .recv(p, ch)
            .barrier_wait(p, bar);
        let prog = b.build();
        assert!(prog.uses_surface_sync());
        assert_eq!(prog.barriers.len(), 1);
        assert_eq!(prog.mutexes.len(), 1);
        assert_eq!(prog.condvars.len(), 1);
        assert_eq!(prog.channels.len(), 1);
    }

    #[test]
    fn semaphore_initial_values() {
        let mut b = ProgramBuilder::new();
        let _p = b.process("main");
        b.semaphore("zero");
        let k = b.semaphore_init("k", 5);
        let prog = b.build();
        assert_eq!(prog.semaphores[k.index()].initial, 5);
        assert_eq!(prog.semaphores[0].initial, 0);
    }
}
