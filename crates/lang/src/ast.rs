//! The program AST.

use eo_model::{EvVarId, SemId, VarId};

/// Reference to a process *definition* within a [`Program`]. Distinct from
/// `eo_model::ProcessId`, which identifies a runtime process instance in a
/// trace (they coincide numerically here because each definition is
/// instantiated at most once per execution, but the types keep the two
/// worlds apart).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ProcRef(pub u32);

impl ProcRef {
    /// Dense index into [`Program::processes`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Reference to a [`BarrierDef`] within a [`Program`]. Barriers are a
/// *surface* primitive: they never reach a trace — [`crate::desugar()`]
/// lowers every wait to pairwise semaphore handshakes first.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BarrierId(u32);

/// Reference to a [`MutexDef`] within a [`Program`] (surface primitive).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MutexId(u32);

/// Reference to a [`CondvarDef`] within a [`Program`] (surface primitive).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CondId(u32);

/// Reference to a [`ChannelDef`] within a [`Program`] (surface primitive).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChanId(u32);

macro_rules! surface_id {
    ($t:ident) => {
        impl $t {
            /// Constructs from a dense index.
            #[inline]
            pub fn new(ix: u32) -> Self {
                $t(ix)
            }
            /// Dense index into the corresponding declaration list.
            #[inline]
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }
    };
}
surface_id!(BarrierId);
surface_id!(MutexId);
surface_id!(CondId);
surface_id!(ChanId);

/// A statement: an executable kind plus an optional label that flows into
/// the emitted event (the reductions label their endpoints `"a"`/`"b"`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Stmt {
    /// What the statement does.
    pub kind: StmtKind,
    /// Carried into the emitted [`eo_model::Event::label`].
    pub label: Option<String>,
}

impl Stmt {
    /// An unlabeled statement.
    pub fn new(kind: StmtKind) -> Self {
        Stmt { kind, label: None }
    }

    /// A labeled statement.
    pub fn labeled(kind: StmtKind, label: impl Into<String>) -> Self {
        Stmt {
            kind,
            label: Some(label.into()),
        }
    }
}

/// Statement kinds.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StmtKind {
    /// No-op computation (the paper's `skip`); still an event.
    Skip,
    /// Abstract computation declaring shared accesses without values.
    Compute {
        /// Variables read.
        reads: Vec<VarId>,
        /// Variables written (their stored values are left unchanged).
        writes: Vec<VarId>,
    },
    /// `var := value` — a concrete write.
    Assign {
        /// Target variable.
        var: VarId,
        /// Value stored.
        value: i64,
    },
    /// `P(sem)` — blocks until positive, then decrements.
    SemP(SemId),
    /// `V(sem)` — increments.
    SemV(SemId),
    /// `Post(ev)` — sets the flag.
    Post(EvVarId),
    /// `Wait(ev)` — blocks until the flag is set.
    Wait(EvVarId),
    /// `Clear(ev)` — resets the flag.
    Clear(EvVarId),
    /// `fork` — instantiates the listed (non-root) definitions.
    Fork(Vec<ProcRef>),
    /// `join` — blocks until the listed instances have finished.
    Join(Vec<ProcRef>),
    /// `if var = value then … else …` — reads `var`, then executes the
    /// chosen branch's statements. The test itself is an event (with
    /// `var` in its read set); branch statements become further events.
    If {
        /// Variable inspected.
        var: VarId,
        /// Constant compared against.
        equals: i64,
        /// Taken when `var == equals`.
        then_branch: Vec<Stmt>,
        /// Taken otherwise.
        else_branch: Vec<Stmt>,
    },
    /// `barrier_wait(b)` — blocks until all `parties` participants of the
    /// current generation have arrived, then all depart. Surface
    /// primitive; desugared to pairwise semaphore handshakes. Barrier
    /// waits must sit at the top level of a process body (not inside a
    /// conditional) so generations are statically known.
    BarrierWait(BarrierId),
    /// `lock(m)` — blocks until the mutex token is available, then takes
    /// it. Surface primitive; desugared to `P` on a binary semaphore.
    Lock(MutexId),
    /// `unlock(m)` — returns the mutex token. Surface primitive;
    /// desugared to `V`. Token semantics: an unlock without a matching
    /// lock mints an extra token (EO-L013 lints the misuse; the
    /// semantics stay well-defined and match the desugaring).
    Unlock(MutexId),
    /// `cond_wait(c, m)` — atomically-in-three-steps: release `m`, block
    /// for a wake token on `c`, re-acquire `m`. Wake tokens are counted
    /// (a signal with no waiter is remembered), which is exactly what the
    /// semaphore desugaring can express; DESIGN.md §15 spells out how
    /// this differs from lost-wakeup condvars.
    CondWait(CondId, MutexId),
    /// `cond_signal(c)` — deposits one wake token on `c`.
    CondSignal(CondId),
    /// `send(ch)` — blocks while the bounded channel is full, then
    /// deposits one item (two steps: reserve a slot, publish the item).
    /// Channels carry synchronization only, not data — the calculus is
    /// value-free.
    Send(ChanId),
    /// `recv(ch)` — blocks while the channel is empty, then removes one
    /// item (two steps: take the item, release the slot).
    Recv(ChanId),
}

/// One process definition.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcDef {
    /// Human-readable name (flows into the trace's process declaration).
    pub name: String,
    /// `true` for processes that exist from the start of the execution;
    /// `false` for processes created by some `fork`.
    pub root: bool,
    /// The statement sequence.
    pub body: Vec<Stmt>,
}

/// Declaration of a semaphore at the program level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemDef {
    /// Name.
    pub name: String,
    /// Initial counter.
    pub initial: u32,
}

/// Declaration of an event variable at the program level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvVarDef {
    /// Name.
    pub name: String,
    /// Whether the flag starts set.
    pub initially_set: bool,
}

/// Declaration of a barrier at the program level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BarrierDef {
    /// Name.
    pub name: String,
    /// Number of participating processes per generation. Validation
    /// requires exactly this many processes to contain waits on the
    /// barrier (and all of them to wait the same number of times).
    pub parties: u32,
}

/// Declaration of a mutex at the program level. The token starts
/// available (unlocked).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MutexDef {
    /// Name.
    pub name: String,
}

/// Declaration of a condition variable at the program level. Pairing
/// with a mutex happens per `cond_wait` site, not at declaration.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CondvarDef {
    /// Name.
    pub name: String,
}

/// Declaration of a bounded channel at the program level.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChannelDef {
    /// Name.
    pub name: String,
    /// Buffer capacity; must be ≥ 1 (rendezvous channels are not
    /// expressible as a sound semaphore desugaring in this calculus).
    pub capacity: u32,
}

/// A complete program.
#[derive(Clone, Debug, PartialEq, Eq, Default)]
pub struct Program {
    /// All process definitions, indexed by [`ProcRef`].
    pub processes: Vec<ProcDef>,
    /// Semaphores, indexed by [`SemId`].
    pub semaphores: Vec<SemDef>,
    /// Event variables, indexed by [`EvVarId`].
    pub event_vars: Vec<EvVarDef>,
    /// Shared variables (all initially 0), indexed by [`VarId`]; the
    /// strings are names.
    pub variables: Vec<String>,
    /// Barriers, indexed by [`BarrierId`] (surface primitive).
    pub barriers: Vec<BarrierDef>,
    /// Mutexes, indexed by [`MutexId`] (surface primitive).
    pub mutexes: Vec<MutexDef>,
    /// Condition variables, indexed by [`CondId`] (surface primitive).
    pub condvars: Vec<CondvarDef>,
    /// Bounded channels, indexed by [`ChanId`] (surface primitive).
    pub channels: Vec<ChannelDef>,
}

/// Why a program is statically malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// A statement references a process/semaphore/event-variable/variable
    /// that is not declared.
    DanglingReference {
        /// The defining process.
        process: ProcRef,
        /// What dangled.
        what: &'static str,
    },
    /// A `fork` targets a root process (roots exist already).
    ForkOfRoot {
        /// The forking process.
        process: ProcRef,
        /// The root target.
        target: ProcRef,
    },
    /// A definition is targeted by more than one `fork` statement, or by
    /// the same `fork` twice — each definition is instantiated at most
    /// once per execution.
    MultiplyForked {
        /// The over-targeted definition.
        target: ProcRef,
    },
    /// A non-root definition is never targeted by any `fork` (it could
    /// never execute).
    NeverForked {
        /// The orphaned definition.
        target: ProcRef,
    },
    /// A process forks itself (directly).
    SelfFork {
        /// The offender.
        process: ProcRef,
    },
    /// A `barrier_wait` sits inside a conditional branch — generations
    /// must be statically known for the desugaring to be sound.
    BarrierInBranch {
        /// The process whose branch contains the wait.
        process: ProcRef,
    },
    /// A barrier's declared party count does not match the number of
    /// processes that wait on it (or is zero while the barrier is used).
    BarrierParties {
        /// The barrier.
        barrier: BarrierId,
        /// Parties declared.
        declared: u32,
        /// Processes actually waiting.
        waiting: u32,
    },
    /// The processes waiting on a barrier disagree on how many times
    /// they wait — every participant must pass the same generations.
    BarrierRounds {
        /// The barrier.
        barrier: BarrierId,
    },
    /// A channel is declared with capacity zero.
    ChannelCapacity {
        /// The channel.
        channel: ChanId,
    },
}

impl std::fmt::Display for ProgramError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProgramError::DanglingReference { process, what } => {
                write!(f, "process #{} references an undeclared {what}", process.0)
            }
            ProgramError::ForkOfRoot { process, target } => {
                write!(f, "process #{} forks root process #{}", process.0, target.0)
            }
            ProgramError::MultiplyForked { target } => {
                write!(f, "process #{} is forked more than once", target.0)
            }
            ProgramError::NeverForked { target } => {
                write!(f, "non-root process #{} is never forked", target.0)
            }
            ProgramError::SelfFork { process } => {
                write!(f, "process #{} forks itself", process.0)
            }
            ProgramError::BarrierInBranch { process } => {
                write!(
                    f,
                    "process #{} waits on a barrier inside a conditional branch",
                    process.0
                )
            }
            ProgramError::BarrierParties {
                barrier,
                declared,
                waiting,
            } => {
                write!(
                    f,
                    "barrier #{} declares {declared} parties but {waiting} processes wait on it",
                    barrier.0
                )
            }
            ProgramError::BarrierRounds { barrier } => {
                write!(
                    f,
                    "the processes waiting on barrier #{} wait unequal numbers of times",
                    barrier.0
                )
            }
            ProgramError::ChannelCapacity { channel } => {
                write!(f, "channel #{} has capacity zero", channel.0)
            }
        }
    }
}

impl std::error::Error for ProgramError {}

impl Program {
    /// Static validation: references resolve, fork targets are non-root,
    /// every non-root definition is forked exactly once, no self-forks,
    /// barrier waits are top-level with consistent party/round counts,
    /// channels have nonzero capacity.
    pub fn validate(&self) -> Result<(), ProgramError> {
        for (ci, ch) in self.channels.iter().enumerate() {
            if ch.capacity == 0 {
                return Err(ProgramError::ChannelCapacity {
                    channel: ChanId::new(ci as u32),
                });
            }
        }
        let mut fork_count = vec![0usize; self.processes.len()];
        // bar_waits[barrier][process] = top-level waits in that process.
        let mut bar_waits = vec![vec![0u32; self.processes.len()]; self.barriers.len()];
        for (pi, def) in self.processes.iter().enumerate() {
            let p = ProcRef(pi as u32);
            self.check_block(p, &def.body, &mut fork_count, Some(&mut bar_waits))?;
        }
        for (bi, def) in self.barriers.iter().enumerate() {
            let b = BarrierId::new(bi as u32);
            let waiting: Vec<u32> = bar_waits[bi].iter().copied().filter(|&c| c > 0).collect();
            if waiting.is_empty() {
                continue; // declared but unused: fine, like an unused semaphore
            }
            if waiting.len() as u32 != def.parties {
                return Err(ProgramError::BarrierParties {
                    barrier: b,
                    declared: def.parties,
                    waiting: waiting.len() as u32,
                });
            }
            if waiting.iter().any(|&c| c != waiting[0]) {
                return Err(ProgramError::BarrierRounds { barrier: b });
            }
        }
        for (ti, def) in self.processes.iter().enumerate() {
            let t = ProcRef(ti as u32);
            if def.root && fork_count[ti] > 0 {
                // Reported at the fork site below; keep a stable error here
                // in case check order changes.
                return Err(ProgramError::ForkOfRoot {
                    process: t,
                    target: t,
                });
            }
            if !def.root {
                match fork_count[ti] {
                    0 => return Err(ProgramError::NeverForked { target: t }),
                    1 => {}
                    _ => return Err(ProgramError::MultiplyForked { target: t }),
                }
            }
        }
        Ok(())
    }

    /// `bar_waits` is `Some` at the top level of a process body and
    /// `None` inside conditional branches, where barrier waits are
    /// rejected outright.
    fn check_block(
        &self,
        p: ProcRef,
        block: &[Stmt],
        fork_count: &mut [usize],
        mut bar_waits: Option<&mut Vec<Vec<u32>>>,
    ) -> Result<(), ProgramError> {
        for stmt in block {
            match &stmt.kind {
                StmtKind::Skip => {}
                StmtKind::Compute { reads, writes } => {
                    for v in reads.iter().chain(writes) {
                        self.check_var(p, *v)?;
                    }
                }
                StmtKind::Assign { var, .. } => self.check_var(p, *var)?,
                StmtKind::SemP(s) | StmtKind::SemV(s) => {
                    if s.index() >= self.semaphores.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "semaphore",
                        });
                    }
                }
                StmtKind::Post(v) | StmtKind::Wait(v) | StmtKind::Clear(v) => {
                    if v.index() >= self.event_vars.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "event variable",
                        });
                    }
                }
                StmtKind::Fork(targets) => {
                    for &t in targets {
                        if t.index() >= self.processes.len() {
                            return Err(ProgramError::DanglingReference {
                                process: p,
                                what: "process",
                            });
                        }
                        if t == p {
                            return Err(ProgramError::SelfFork { process: p });
                        }
                        if self.processes[t.index()].root {
                            return Err(ProgramError::ForkOfRoot {
                                process: p,
                                target: t,
                            });
                        }
                        fork_count[t.index()] += 1;
                        if fork_count[t.index()] > 1 {
                            return Err(ProgramError::MultiplyForked { target: t });
                        }
                    }
                }
                StmtKind::Join(targets) => {
                    for &t in targets {
                        if t.index() >= self.processes.len() {
                            return Err(ProgramError::DanglingReference {
                                process: p,
                                what: "process",
                            });
                        }
                    }
                }
                StmtKind::If {
                    var,
                    then_branch,
                    else_branch,
                    ..
                } => {
                    self.check_var(p, *var)?;
                    self.check_block(p, then_branch, fork_count, None)?;
                    self.check_block(p, else_branch, fork_count, None)?;
                }
                StmtKind::BarrierWait(b) => {
                    if b.index() >= self.barriers.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "barrier",
                        });
                    }
                    match bar_waits.as_deref_mut() {
                        Some(w) => w[b.index()][p.index()] += 1,
                        None => return Err(ProgramError::BarrierInBranch { process: p }),
                    }
                }
                StmtKind::Lock(m) | StmtKind::Unlock(m) => {
                    if m.index() >= self.mutexes.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "mutex",
                        });
                    }
                }
                StmtKind::CondWait(c, m) => {
                    if c.index() >= self.condvars.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "condition variable",
                        });
                    }
                    if m.index() >= self.mutexes.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "mutex",
                        });
                    }
                }
                StmtKind::CondSignal(c) => {
                    if c.index() >= self.condvars.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "condition variable",
                        });
                    }
                }
                StmtKind::Send(ch) | StmtKind::Recv(ch) => {
                    if ch.index() >= self.channels.len() {
                        return Err(ProgramError::DanglingReference {
                            process: p,
                            what: "channel",
                        });
                    }
                }
            }
        }
        Ok(())
    }

    fn check_var(&self, p: ProcRef, v: VarId) -> Result<(), ProgramError> {
        if v.index() >= self.variables.len() {
            return Err(ProgramError::DanglingReference {
                process: p,
                what: "shared variable",
            });
        }
        Ok(())
    }

    /// Upper bound on the number of events one execution of this program
    /// can produce under the direct interpretation (counting the longer
    /// side of every conditional and every micro-step of the surface
    /// primitives). The desugared core form has its own — possibly
    /// larger — bound, computed on the desugared [`Program`].
    pub fn max_events(&self) -> usize {
        fn block(stmts: &[Stmt]) -> usize {
            stmts
                .iter()
                .map(|s| match &s.kind {
                    StmtKind::If {
                        then_branch,
                        else_branch,
                        ..
                    } => 1 + block(then_branch).max(block(else_branch)),
                    other => crate::interp::micro_steps(other),
                })
                .sum()
        }
        self.processes.iter().map(|p| block(&p.body)).sum()
    }

    /// Whether the program uses any surface primitive (barriers,
    /// mutexes/condvars, channels) and therefore needs
    /// [`crate::desugar::desugar`] before trace-level analysis.
    pub fn uses_surface_sync(&self) -> bool {
        fn block(stmts: &[Stmt]) -> bool {
            stmts.iter().any(|s| match &s.kind {
                StmtKind::BarrierWait(_)
                | StmtKind::Lock(_)
                | StmtKind::Unlock(_)
                | StmtKind::CondWait(..)
                | StmtKind::CondSignal(_)
                | StmtKind::Send(_)
                | StmtKind::Recv(_) => true,
                StmtKind::If {
                    then_branch,
                    else_branch,
                    ..
                } => block(then_branch) || block(else_branch),
                _ => false,
            })
        }
        self.processes.iter().any(|p| block(&p.body))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn leaf(kind: StmtKind) -> Stmt {
        Stmt::new(kind)
    }

    #[test]
    fn valid_minimal_program() {
        let prog = Program {
            processes: vec![ProcDef {
                name: "main".into(),
                root: true,
                body: vec![leaf(StmtKind::Skip)],
            }],
            ..Default::default()
        };
        assert!(prog.validate().is_ok());
    }

    #[test]
    fn dangling_semaphore_rejected() {
        let prog = Program {
            processes: vec![ProcDef {
                name: "main".into(),
                root: true,
                body: vec![leaf(StmtKind::SemV(SemId::new(0)))],
            }],
            ..Default::default()
        };
        assert!(matches!(
            prog.validate(),
            Err(ProgramError::DanglingReference {
                what: "semaphore",
                ..
            })
        ));
    }

    #[test]
    fn never_forked_child_rejected() {
        let prog = Program {
            processes: vec![
                ProcDef {
                    name: "main".into(),
                    root: true,
                    body: vec![],
                },
                ProcDef {
                    name: "orphan".into(),
                    root: false,
                    body: vec![],
                },
            ],
            ..Default::default()
        };
        assert!(matches!(
            prog.validate(),
            Err(ProgramError::NeverForked { .. })
        ));
    }

    #[test]
    fn doubly_forked_child_rejected() {
        let fork = leaf(StmtKind::Fork(vec![ProcRef(1)]));
        let prog = Program {
            processes: vec![
                ProcDef {
                    name: "main".into(),
                    root: true,
                    body: vec![fork.clone(), fork],
                },
                ProcDef {
                    name: "child".into(),
                    root: false,
                    body: vec![],
                },
            ],
            ..Default::default()
        };
        assert!(matches!(
            prog.validate(),
            Err(ProgramError::MultiplyForked { .. })
        ));
    }

    #[test]
    fn fork_of_root_rejected() {
        let prog = Program {
            processes: vec![
                ProcDef {
                    name: "main".into(),
                    root: true,
                    body: vec![leaf(StmtKind::Fork(vec![ProcRef(1)]))],
                },
                ProcDef {
                    name: "other-root".into(),
                    root: true,
                    body: vec![],
                },
            ],
            ..Default::default()
        };
        assert!(matches!(
            prog.validate(),
            Err(ProgramError::ForkOfRoot { .. })
        ));
    }

    #[test]
    fn fork_inside_branch_counts() {
        let prog = Program {
            processes: vec![
                ProcDef {
                    name: "main".into(),
                    root: true,
                    body: vec![leaf(StmtKind::If {
                        var: VarId::new(0),
                        equals: 0,
                        then_branch: vec![leaf(StmtKind::Fork(vec![ProcRef(1)]))],
                        else_branch: vec![],
                    })],
                },
                ProcDef {
                    name: "child".into(),
                    root: false,
                    body: vec![],
                },
            ],
            semaphores: vec![],
            event_vars: vec![],
            variables: vec!["x".into()],
            ..Default::default()
        };
        assert!(prog.validate().is_ok());
    }

    #[test]
    fn max_events_takes_longer_branch() {
        let prog = Program {
            processes: vec![ProcDef {
                name: "main".into(),
                root: true,
                body: vec![leaf(StmtKind::If {
                    var: VarId::new(0),
                    equals: 0,
                    then_branch: vec![leaf(StmtKind::Skip), leaf(StmtKind::Skip)],
                    else_branch: vec![leaf(StmtKind::Skip)],
                })],
            }],
            variables: vec!["x".into()],
            ..Default::default()
        };
        assert_eq!(prog.max_events(), 3, "if-event plus longer branch");
    }
}
