//! Observed execution traces.
//!
//! A [`Trace`] records one execution of a shared-memory parallel program on
//! a sequentially consistent machine: the declarations of every process,
//! semaphore, event variable and shared variable, plus the events in the
//! total order in which they were observed to execute. The trace is the
//! raw material from which [`crate::ProgramExecution`] derives the paper's
//! ⟨E, →T, →D⟩ triple.
//!
//! Traces can be produced three ways, all converging on the same type:
//! by the `eo-lang` interpreter (running a program), by [`TraceBuilder`]
//! (hand construction, in tests and reductions), or by deserializing the
//! JSON form ([`Trace::from_json`]).

use crate::event::{Event, Op};
use crate::ids::{EvVarId, EventId, ProcessId, SemId, VarId};
use crate::machine::{Machine, ReplayError};
use eo_obs::json::{self, Value};

/// Declaration of one process.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProcessDecl {
    /// Human-readable name (diagnostics only; need not be unique).
    pub name: String,
    /// The fork event that created this process, or `None` for a root
    /// process that exists from the start of the execution.
    pub created_by: Option<EventId>,
}

/// Declaration of one counting semaphore.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SemDecl {
    /// Human-readable name.
    pub name: String,
    /// Initial counter value. The paper's constructions assume 0; the
    /// single-semaphore reduction uses a nonzero budget.
    pub initial: u32,
}

/// Declaration of one event variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EvVarDecl {
    /// Human-readable name.
    pub name: String,
    /// Whether the flag starts set.
    pub initially_set: bool,
}

/// Declaration of one shared variable.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VarDecl {
    /// Human-readable name.
    pub name: String,
}

/// A validated-on-demand observed execution.
///
/// Field invariants (checked by [`Trace::validate`], which every consumer
/// calls before deriving anything):
///
/// * `events[i].id.index() == i` — ids are observed positions;
/// * every id mentioned anywhere is in range of its declaration table;
/// * fork events and `created_by` back-pointers agree;
/// * the observed order replays cleanly through the synchronization
///   [`Machine`] — i.e. some sequentially consistent execution really
///   could have produced this log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace {
    /// Events in observed execution order.
    pub events: Vec<Event>,
    /// Process declarations, indexed by [`ProcessId`].
    pub processes: Vec<ProcessDecl>,
    /// Semaphore declarations, indexed by [`SemId`].
    pub semaphores: Vec<SemDecl>,
    /// Event-variable declarations, indexed by [`EvVarId`].
    pub event_vars: Vec<EvVarDecl>,
    /// Shared-variable declarations, indexed by [`VarId`].
    pub variables: Vec<VarDecl>,
}

/// Why a trace failed validation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// `events[i].id != i`.
    NonDenseEventId {
        /// Position in the event vector.
        position: usize,
        /// The id found there.
        found: EventId,
    },
    /// An event references a process/semaphore/event-variable/shared
    /// variable that is not declared.
    DanglingReference {
        /// The offending event.
        event: EventId,
        /// What kind of id dangled.
        what: &'static str,
    },
    /// A process's `created_by` points at an event that is not a fork
    /// listing that process.
    CreatorMismatch {
        /// The process with the bad back-pointer.
        process: ProcessId,
    },
    /// A fork lists a child whose `created_by` is not that fork (including
    /// children claimed by two forks, and forks listing themselves).
    ForkChildMismatch {
        /// The fork event.
        fork: EventId,
        /// The offending child.
        child: ProcessId,
    },
    /// The observed order cannot be replayed on a sequentially consistent
    /// machine.
    NotSchedulable(ReplayError),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::NonDenseEventId { position, found } => {
                write!(f, "event at position {position} has id {found}")
            }
            TraceError::DanglingReference { event, what } => {
                write!(f, "event {event} references an undeclared {what}")
            }
            TraceError::CreatorMismatch { process } => {
                write!(f, "process {process}'s created_by is not a fork listing it")
            }
            TraceError::ForkChildMismatch { fork, child } => {
                write!(
                    f,
                    "fork {fork} lists child {child} whose created_by disagrees"
                )
            }
            TraceError::NotSchedulable(e) => write!(f, "observed order is not schedulable: {e}"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Number of events.
    #[inline]
    pub fn n_events(&self) -> usize {
        self.events.len()
    }

    /// The event with the given id.
    ///
    /// # Panics
    /// Panics if the id is out of range.
    #[inline]
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id.index()]
    }

    /// The observed schedule: every event id in observed order. (Ids *are*
    /// positions, so this is simply `0..n`.)
    pub fn observed_order(&self) -> Vec<EventId> {
        (0..self.n_events()).map(EventId::new).collect()
    }

    /// Per-process event lists in program order, indexed by [`ProcessId`].
    pub fn per_process(&self) -> Vec<Vec<EventId>> {
        let mut out = vec![Vec::new(); self.processes.len()];
        for e in &self.events {
            out[e.process.index()].push(e.id);
        }
        out
    }

    /// The first event (if any) with the given label.
    pub fn event_labeled(&self, label: &str) -> Option<EventId> {
        self.events
            .iter()
            .find(|e| e.label.as_deref() == Some(label))
            .map(|e| e.id)
    }

    /// Full structural + replay validation; see the type-level docs for the
    /// invariant list.
    pub fn validate(&self) -> Result<(), TraceError> {
        self.validate_structure()?;
        let machine = Machine::new(self);
        machine
            .replay(&self.observed_order())
            .map_err(TraceError::NotSchedulable)?;
        Ok(())
    }

    fn validate_structure(&self) -> Result<(), TraceError> {
        for (i, e) in self.events.iter().enumerate() {
            if e.id.index() != i {
                return Err(TraceError::NonDenseEventId {
                    position: i,
                    found: e.id,
                });
            }
            if e.process.index() >= self.processes.len() {
                return Err(TraceError::DanglingReference {
                    event: e.id,
                    what: "process",
                });
            }
            if let Some(s) = e.op.semaphore() {
                if s.index() >= self.semaphores.len() {
                    return Err(TraceError::DanglingReference {
                        event: e.id,
                        what: "semaphore",
                    });
                }
            }
            if let Some(v) = e.op.event_var() {
                if v.index() >= self.event_vars.len() {
                    return Err(TraceError::DanglingReference {
                        event: e.id,
                        what: "event variable",
                    });
                }
            }
            if let Op::Fork(children) | Op::Join(children) = &e.op {
                if children.iter().any(|c| c.index() >= self.processes.len()) {
                    return Err(TraceError::DanglingReference {
                        event: e.id,
                        what: "process",
                    });
                }
            }
            for v in e.reads.iter().chain(&e.writes) {
                if v.index() >= self.variables.len() {
                    return Err(TraceError::DanglingReference {
                        event: e.id,
                        what: "shared variable",
                    });
                }
            }
        }

        // created_by back-pointers point at forks that list the process.
        for (pi, p) in self.processes.iter().enumerate() {
            if let Some(creator) = p.created_by {
                let ok = creator.index() < self.events.len()
                    && matches!(
                        &self.events[creator.index()].op,
                        Op::Fork(children) if children.contains(&ProcessId::new(pi))
                    );
                if !ok {
                    return Err(TraceError::CreatorMismatch {
                        process: ProcessId::new(pi),
                    });
                }
            }
        }

        // Forks list children that point back (no double-claims, no
        // self-forks).
        for e in &self.events {
            if let Op::Fork(children) = &e.op {
                for &c in children {
                    let claimed = self.processes[c.index()].created_by == Some(e.id);
                    if !claimed || c == e.process {
                        return Err(TraceError::ForkChildMismatch {
                            fork: e.id,
                            child: c,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Serializes the trace as pretty JSON (the on-disk trace format).
    pub fn to_json(&self) -> String {
        self.to_value().pretty()
    }

    /// Deserializes a trace from JSON and validates it.
    pub fn from_json(json: &str) -> Result<Trace, Box<dyn std::error::Error>> {
        let t = Trace::from_value(&json::parse(json)?)?;
        t.validate()?;
        Ok(t)
    }

    /// The trace as a JSON tree (field order fixed by the on-disk format).
    pub fn to_value(&self) -> Value {
        let id = |n: u32| Value::Int(i64::from(n));
        let ids = |xs: &[VarId]| Value::Arr(xs.iter().map(|v| id(v.0)).collect());
        let procs = |xs: &[ProcessId]| Value::Arr(xs.iter().map(|p| id(p.0)).collect());
        let op = |op: &Op| match op {
            Op::Compute => Value::Str("Compute".into()),
            Op::SemP(s) => Value::Obj(vec![("SemP".into(), id(s.0))]),
            Op::SemV(s) => Value::Obj(vec![("SemV".into(), id(s.0))]),
            Op::Post(v) => Value::Obj(vec![("Post".into(), id(v.0))]),
            Op::Wait(v) => Value::Obj(vec![("Wait".into(), id(v.0))]),
            Op::Clear(v) => Value::Obj(vec![("Clear".into(), id(v.0))]),
            Op::Fork(children) => Value::Obj(vec![("Fork".into(), procs(children))]),
            Op::Join(children) => Value::Obj(vec![("Join".into(), procs(children))]),
        };
        let opt_str = |s: &Option<String>| match s {
            Some(s) => Value::Str(s.clone()),
            None => Value::Null,
        };
        let events = self
            .events
            .iter()
            .map(|e| {
                Value::Obj(vec![
                    ("id".into(), id(e.id.0)),
                    ("process".into(), id(e.process.0)),
                    ("op".into(), op(&e.op)),
                    ("reads".into(), ids(&e.reads)),
                    ("writes".into(), ids(&e.writes)),
                    ("label".into(), opt_str(&e.label)),
                ])
            })
            .collect();
        let processes = self
            .processes
            .iter()
            .map(|p| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(p.name.clone())),
                    (
                        "created_by".into(),
                        match p.created_by {
                            Some(e) => id(e.0),
                            None => Value::Null,
                        },
                    ),
                ])
            })
            .collect();
        let semaphores = self
            .semaphores
            .iter()
            .map(|s| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(s.name.clone())),
                    ("initial".into(), id(s.initial)),
                ])
            })
            .collect();
        let event_vars = self
            .event_vars
            .iter()
            .map(|v| {
                Value::Obj(vec![
                    ("name".into(), Value::Str(v.name.clone())),
                    ("initially_set".into(), Value::Bool(v.initially_set)),
                ])
            })
            .collect();
        let variables = self
            .variables
            .iter()
            .map(|v| Value::Obj(vec![("name".into(), Value::Str(v.name.clone()))]))
            .collect();
        Value::Obj(vec![
            ("events".into(), Value::Arr(events)),
            ("processes".into(), Value::Arr(processes)),
            ("semaphores".into(), Value::Arr(semaphores)),
            ("event_vars".into(), Value::Arr(event_vars)),
            ("variables".into(), Value::Arr(variables)),
        ])
    }

    /// Decodes a trace from a JSON tree (shape errors only — call
    /// [`Trace::validate`] for the semantic invariants). Errors name the
    /// member at fault.
    pub fn from_value(value: &Value) -> Result<Trace, String> {
        let op = |op: &Value| -> Result<Op, String> {
            let tag = match op {
                Value::Str(name) if name == "Compute" => return Ok(Op::Compute),
                Value::Str(other) => return Err(format!("unknown op {other:?}")),
                Value::Obj(fields) if fields.len() == 1 => fields[0].0.as_str(),
                _ => return Err("\"op\" must be \"Compute\" or a one-member object".into()),
            };
            Ok(match tag {
                "SemP" => Op::SemP(SemId(uint(op, tag)?)),
                "SemV" => Op::SemV(SemId(uint(op, tag)?)),
                "Post" => Op::Post(EvVarId(uint(op, tag)?)),
                "Wait" => Op::Wait(EvVarId(uint(op, tag)?)),
                "Clear" => Op::Clear(EvVarId(uint(op, tag)?)),
                "Fork" => Op::Fork(uints(op, tag, ProcessId)?),
                "Join" => Op::Join(uints(op, tag, ProcessId)?),
                other => return Err(format!("unknown op {other:?}")),
            })
        };
        Ok(Trace {
            events: list(value, "events", |e| {
                Ok(Event {
                    id: EventId(uint(e, "id")?),
                    process: ProcessId(uint(e, "process")?),
                    op: op(member(e, "op")?)?,
                    reads: uints(e, "reads", VarId)?,
                    writes: uints(e, "writes", VarId)?,
                    label: match member(e, "label")? {
                        Value::Null => None,
                        _ => Some(string(e, "label")?),
                    },
                })
            })?,
            processes: list(value, "processes", |p| {
                Ok(ProcessDecl {
                    name: string(p, "name")?,
                    created_by: match member(p, "created_by")? {
                        Value::Null => None,
                        _ => Some(EventId(uint(p, "created_by")?)),
                    },
                })
            })?,
            semaphores: list(value, "semaphores", |s| {
                Ok(SemDecl {
                    name: string(s, "name")?,
                    initial: uint(s, "initial")?,
                })
            })?,
            event_vars: list(value, "event_vars", |v| {
                Ok(EvVarDecl {
                    name: string(v, "name")?,
                    initially_set: match member(v, "initially_set")? {
                        Value::Bool(b) => *b,
                        _ => return Err("\"initially_set\" must be a boolean".into()),
                    },
                })
            })?,
            variables: list(value, "variables", |v| {
                Ok(VarDecl {
                    name: string(v, "name")?,
                })
            })?,
        })
    }
}

// Shape checks for `Trace::from_value`: each looks up `key` in the object
// `obj` and names it in the error.

fn member<'v>(obj: &'v Value, key: &str) -> Result<&'v Value, String> {
    obj.get(key)
        .ok_or_else(|| format!("missing member {key:?}"))
}

fn string(obj: &Value, key: &str) -> Result<String, String> {
    match member(obj, key)? {
        Value::Str(s) => Ok(s.clone()),
        _ => Err(format!("{key:?} must be a string")),
    }
}

/// A dense id or counter: integer text in the `u32` range.
fn as_u32(v: &Value) -> Option<u32> {
    match v {
        Value::Int(n) => u32::try_from(*n).ok(),
        _ => None,
    }
}

fn uint(obj: &Value, key: &str) -> Result<u32, String> {
    as_u32(member(obj, key)?).ok_or_else(|| format!("{key:?} must be an integer in 0..=4294967295"))
}

fn uints<T>(obj: &Value, key: &str, make: fn(u32) -> T) -> Result<Vec<T>, String> {
    list(obj, key, |v| {
        as_u32(v)
            .map(make)
            .ok_or_else(|| format!("{key:?} must hold integers in 0..=4294967295"))
    })
}

fn list<T>(
    obj: &Value,
    key: &str,
    item: impl Fn(&Value) -> Result<T, String>,
) -> Result<Vec<T>, String> {
    member(obj, key)?
        .as_array()
        .ok_or_else(|| format!("{key:?} must be an array"))?
        .iter()
        .map(item)
        .collect()
}

/// Incremental construction of hand-built traces.
///
/// Events are appended in *observed order* — the builder is literally
/// writing down the schedule. `build()` validates the result, so a
/// mis-ordered hand trace (e.g. a `P` before any `V`) is caught
/// immediately.
///
/// ```
/// use eo_model::{Op, TraceBuilder};
///
/// let mut tb = TraceBuilder::new();
/// let p0 = tb.process("producer");
/// let p1 = tb.process("consumer");
/// let s = tb.semaphore("full", 0);
/// tb.push(p0, Op::SemV(s));
/// tb.push(p1, Op::SemP(s));
/// let trace = tb.build().unwrap();
/// assert_eq!(trace.n_events(), 2);
/// ```
#[derive(Default)]
pub struct TraceBuilder {
    events: Vec<Event>,
    processes: Vec<ProcessDecl>,
    semaphores: Vec<SemDecl>,
    event_vars: Vec<EvVarDecl>,
    variables: Vec<VarDecl>,
}

impl TraceBuilder {
    /// A fresh, empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares a root process.
    pub fn process(&mut self, name: &str) -> ProcessId {
        let id = ProcessId::new(self.processes.len());
        self.processes.push(ProcessDecl {
            name: name.to_string(),
            created_by: None,
        });
        id
    }

    /// Declares a counting semaphore with the given initial value.
    pub fn semaphore(&mut self, name: &str, initial: u32) -> SemId {
        let id = SemId::new(self.semaphores.len());
        self.semaphores.push(SemDecl {
            name: name.to_string(),
            initial,
        });
        id
    }

    /// Declares an event variable (initially clear unless stated).
    pub fn event_var(&mut self, name: &str, initially_set: bool) -> EvVarId {
        let id = EvVarId::new(self.event_vars.len());
        self.event_vars.push(EvVarDecl {
            name: name.to_string(),
            initially_set,
        });
        id
    }

    /// Declares a shared variable.
    pub fn variable(&mut self, name: &str) -> VarId {
        let id = VarId::new(self.variables.len());
        self.variables.push(VarDecl {
            name: name.to_string(),
        });
        id
    }

    /// Appends an event with no shared accesses and no label.
    pub fn push(&mut self, process: ProcessId, op: Op) -> EventId {
        self.push_full(process, op, &[], &[], None)
    }

    /// Appends an event with full detail.
    pub fn push_full(
        &mut self,
        process: ProcessId,
        op: Op,
        reads: &[VarId],
        writes: &[VarId],
        label: Option<&str>,
    ) -> EventId {
        let id = EventId::new(self.events.len());
        self.events.push(Event {
            id,
            process,
            op,
            reads: reads.to_vec(),
            writes: writes.to_vec(),
            label: label.map(str::to_string),
        });
        id
    }

    /// Appends a labeled computation event with no shared accesses.
    pub fn compute(&mut self, process: ProcessId, label: &str) -> EventId {
        self.push_full(process, Op::Compute, &[], &[], Some(label))
    }

    /// Appends a computation event reading one shared variable.
    pub fn read(&mut self, process: ProcessId, var: VarId, label: &str) -> EventId {
        self.push_full(process, Op::Compute, &[var], &[], Some(label))
    }

    /// Appends a computation event writing one shared variable.
    pub fn write(&mut self, process: ProcessId, var: VarId, label: &str) -> EventId {
        self.push_full(process, Op::Compute, &[], &[var], Some(label))
    }

    /// Appends a fork event and declares its children, returning
    /// `(fork_event, child_ids)`.
    pub fn fork(&mut self, process: ProcessId, child_names: &[&str]) -> (EventId, Vec<ProcessId>) {
        let fork_id = EventId::new(self.events.len());
        let children: Vec<ProcessId> = child_names
            .iter()
            .map(|name| {
                let id = ProcessId::new(self.processes.len());
                self.processes.push(ProcessDecl {
                    name: name.to_string(),
                    created_by: Some(fork_id),
                });
                id
            })
            .collect();
        self.events.push(Event {
            id: fork_id,
            process,
            op: Op::Fork(children.clone()),
            reads: Vec::new(),
            writes: Vec::new(),
            label: None,
        });
        (fork_id, children)
    }

    /// Appends a join event waiting for the listed processes.
    pub fn join(&mut self, process: ProcessId, children: &[ProcessId]) -> EventId {
        self.push(process, Op::Join(children.to_vec()))
    }

    /// Finishes and validates the trace.
    pub fn build(self) -> Result<Trace, TraceError> {
        let t = Trace {
            events: self.events,
            processes: self.processes,
            semaphores: self.semaphores,
            event_vars: self.event_vars,
            variables: self.variables,
        };
        t.validate()?;
        Ok(t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_produces_valid_semaphore_trace() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 0);
        tb.push(p0, Op::SemV(s));
        tb.push(p1, Op::SemP(s));
        let t = tb.build().unwrap();
        assert_eq!(t.n_events(), 2);
        assert_eq!(t.per_process(), vec![vec![EventId(0)], vec![EventId(1)]]);
    }

    #[test]
    fn p_before_v_is_rejected() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let s = tb.semaphore("s", 0);
        tb.push(p1, Op::SemP(s));
        tb.push(p0, Op::SemV(s));
        assert!(matches!(tb.build(), Err(TraceError::NotSchedulable(_))));
    }

    #[test]
    fn initial_semaphore_tokens_allow_leading_p() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        let s = tb.semaphore("s", 1);
        tb.push(p, Op::SemP(s));
        assert!(tb.build().is_ok());
    }

    #[test]
    fn wait_before_post_is_rejected() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let p1 = tb.process("p1");
        let v = tb.event_var("v", false);
        tb.push(p1, Op::Wait(v));
        tb.push(p0, Op::Post(v));
        assert!(matches!(tb.build(), Err(TraceError::NotSchedulable(_))));
    }

    #[test]
    fn initially_set_event_var_allows_leading_wait() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        let v = tb.event_var("v", true);
        tb.push(p, Op::Wait(v));
        assert!(tb.build().is_ok());
    }

    #[test]
    fn wait_after_clear_is_rejected() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        let v = tb.event_var("v", false);
        tb.push(p, Op::Post(v));
        tb.push(p, Op::Clear(v));
        tb.push(p, Op::Wait(v));
        assert!(matches!(tb.build(), Err(TraceError::NotSchedulable(_))));
    }

    #[test]
    fn fork_orders_child_events() {
        let mut tb = TraceBuilder::new();
        let main = tb.process("main");
        let (_f, kids) = tb.fork(main, &["child"]);
        tb.compute(kids[0], "work");
        tb.join(main, &kids);
        let t = tb.build().unwrap();
        assert_eq!(t.n_events(), 3);
    }

    #[test]
    fn child_event_before_fork_is_rejected() {
        // Build manually so the child's event precedes the fork in the
        // observed order.
        let mut tb = TraceBuilder::new();
        let main = tb.process("main");
        let (fork_id, kids) = tb.fork(main, &["child"]);
        tb.compute(kids[0], "work");
        let mut t = Trace {
            events: tb.events,
            processes: tb.processes,
            semaphores: tb.semaphores,
            event_vars: tb.event_vars,
            variables: tb.variables,
        };
        t.events.swap(0, 1);
        // Fix ids to stay dense after the swap.
        for (i, e) in t.events.iter_mut().enumerate() {
            e.id = EventId::new(i);
        }
        // After renumbering, created_by must track the fork's new position.
        let _ = fork_id;
        t.processes[1].created_by = Some(EventId::new(1));
        assert!(matches!(t.validate(), Err(TraceError::NotSchedulable(_))));
    }

    #[test]
    fn join_before_child_finishes_is_rejected() {
        let mut tb = TraceBuilder::new();
        let main = tb.process("main");
        let (_f, kids) = tb.fork(main, &["child"]);
        tb.join(main, &kids); // join while child still has an event pending
        tb.compute(kids[0], "late-work");
        assert!(matches!(tb.build(), Err(TraceError::NotSchedulable(_))));
    }

    #[test]
    fn non_dense_ids_are_rejected() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        tb.compute(p, "x");
        let mut t = Trace {
            events: tb.events,
            processes: tb.processes,
            semaphores: tb.semaphores,
            event_vars: tb.event_vars,
            variables: tb.variables,
        };
        t.events[0].id = EventId::new(5);
        assert!(matches!(
            t.validate(),
            Err(TraceError::NonDenseEventId { .. })
        ));
    }

    #[test]
    fn dangling_semaphore_is_rejected() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        tb.push(p, Op::SemV(SemId::new(9)));
        assert!(matches!(
            tb.build(),
            Err(TraceError::DanglingReference {
                what: "semaphore",
                ..
            })
        ));
    }

    #[test]
    fn creator_mismatch_is_rejected() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        tb.compute(p, "x");
        let mut t = Trace {
            events: tb.events,
            processes: tb.processes,
            semaphores: tb.semaphores,
            event_vars: tb.event_vars,
            variables: tb.variables,
        };
        // Claim p was created by its own compute event (not a fork).
        t.processes[0].created_by = Some(EventId::new(0));
        assert!(matches!(
            t.validate(),
            Err(TraceError::CreatorMismatch { .. })
        ));
    }

    #[test]
    fn json_round_trip() {
        let mut tb = TraceBuilder::new();
        let p0 = tb.process("p0");
        let x = tb.variable("x");
        tb.write(p0, x, "init");
        let (_f, kids) = tb.fork(p0, &["worker"]);
        tb.read(kids[0], x, "use");
        tb.join(p0, &kids);
        let t = tb.build().unwrap();
        let back = Trace::from_json(&t.to_json()).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn json_ids_must_be_u32_integers() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        tb.semaphore("s", 0);
        tb.push(p, Op::Compute);
        let text = tb.build().unwrap().to_json();
        let max = Trace::from_json(&text.replace("\"initial\": 0", "\"initial\": 4294967295"));
        assert_eq!(max.unwrap().semaphores[0].initial, u32::MAX);
        for bad in ["4294967296", "1.5", "-1"] {
            let err = Trace::from_json(&text.replace("\"id\": 0", &format!("\"id\": {bad}")))
                .expect_err(bad)
                .to_string();
            assert!(err.contains("\"id\""), "{bad}: {err}");
        }
    }

    #[test]
    fn event_labeled_finds_first_match() {
        let mut tb = TraceBuilder::new();
        let p = tb.process("p");
        let first = tb.compute(p, "dup");
        tb.compute(p, "dup");
        let t = tb.build().unwrap();
        assert_eq!(t.event_labeled("dup"), Some(first));
        assert_eq!(t.event_labeled("absent"), None);
    }
}
