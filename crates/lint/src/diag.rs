//! Structured diagnostics: what a lint found, where, and how bad.

use eo_lang::StmtId;
use eo_model::EventId;
use eo_obs::json::Value;

/// How serious a diagnostic is.
///
/// Ordering is by severity: `Info < Warning < Error`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Style or informational finding; never indicates a possible hang.
    Info,
    /// The program *may* misbehave (block forever, lose a signal) in some
    /// execution.
    Warning,
    /// The program *will* misbehave on every execution reaching the
    /// flagged statement.
    Error,
}

impl Severity {
    /// Lowercase name used in rendered output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

impl std::fmt::Display for Severity {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// What a diagnostic points at.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Anchor {
    /// The whole program (aggregate findings, e.g. semaphore imbalance).
    Program,
    /// A static statement (AST-level lints).
    Stmt(StmtId),
    /// An observed event (trace-level lints).
    Event(EventId),
}

/// One lint finding.
#[derive(Clone, Debug)]
pub struct Diagnostic {
    /// Stable machine-readable code (`EO-L0xx`).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// What the finding points at.
    pub anchor: Anchor,
    /// Human-readable rendering of the anchor (process, index, kind).
    pub location: String,
    /// One-line description of the finding.
    pub message: String,
    /// Supporting detail (supplier sites, cycle edges, counts).
    pub notes: Vec<String>,
}

/// The outcome of a lint run: every finding, ordered most severe first
/// (ties broken by anchor position, then code).
#[derive(Clone, Debug, Default)]
pub struct LintReport {
    /// All findings.
    pub diagnostics: Vec<Diagnostic>,
}

impl LintReport {
    /// Sorts diagnostics into report order: severity descending, then
    /// anchor position, then code.
    pub(crate) fn finish(mut self) -> LintReport {
        self.diagnostics.sort_by(|a, b| {
            b.severity
                .cmp(&a.severity)
                .then_with(|| anchor_key(&a.anchor).cmp(&anchor_key(&b.anchor)))
                .then_with(|| a.code.cmp(b.code))
        });
        self
    }

    /// No findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Clean for synchronization purposes: nothing at `Warning` or above.
    /// (`Info`-level style findings do not count against cleanliness.)
    pub fn is_clean(&self) -> bool {
        !self.worst_at_least(Severity::Warning)
    }

    /// Any `Error`-level findings?
    pub fn has_errors(&self) -> bool {
        self.worst_at_least(Severity::Error)
    }

    /// The most severe finding, if any.
    pub fn max_severity(&self) -> Option<Severity> {
        self.diagnostics.iter().map(|d| d.severity).max()
    }

    /// Is any finding at least `sev`?
    pub fn worst_at_least(&self, sev: Severity) -> bool {
        self.diagnostics.iter().any(|d| d.severity >= sev)
    }

    /// Number of findings at exactly `sev`.
    pub fn count(&self, sev: Severity) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == sev)
            .count()
    }

    /// All findings carrying `code`.
    pub fn with_code(&self, code: &str) -> Vec<&Diagnostic> {
        self.diagnostics.iter().filter(|d| d.code == code).collect()
    }

    /// Renders the report as compiler-style text, one block per finding.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&format!("{}[{}]: {}\n", d.severity, d.code, d.message));
            out.push_str(&format!("  --> {}\n", d.location));
            for note in &d.notes {
                out.push_str(&format!("  note: {note}\n"));
            }
        }
        let (e, w, i) = (
            self.count(Severity::Error),
            self.count(Severity::Warning),
            self.count(Severity::Info),
        );
        if self.diagnostics.is_empty() {
            out.push_str("clean: no findings\n");
        } else {
            out.push_str(&format!(
                "{e} error(s), {w} warning(s), {i} info finding(s)\n"
            ));
        }
        out
    }

    /// Renders the report as a JSON value (the `--json` output of
    /// `eo lint`).
    pub fn to_json(&self) -> Value {
        let diags = self
            .diagnostics
            .iter()
            .map(|d| {
                let anchor = match d.anchor {
                    Anchor::Program => Value::Obj(vec![(
                        "kind".to_string(),
                        Value::Str("program".to_string()),
                    )]),
                    Anchor::Stmt(s) => Value::Obj(vec![
                        ("kind".to_string(), Value::Str("stmt".to_string())),
                        ("index".to_string(), Value::Int(s.index() as i64)),
                    ]),
                    Anchor::Event(e) => Value::Obj(vec![
                        ("kind".to_string(), Value::Str("event".to_string())),
                        ("index".to_string(), Value::Int(e.index() as i64)),
                    ]),
                };
                Value::Obj(vec![
                    ("code".to_string(), Value::Str(d.code.to_string())),
                    (
                        "severity".to_string(),
                        Value::Str(d.severity.name().to_string()),
                    ),
                    ("anchor".to_string(), anchor),
                    ("location".to_string(), Value::Str(d.location.clone())),
                    ("message".to_string(), Value::Str(d.message.clone())),
                    (
                        "notes".to_string(),
                        Value::Arr(d.notes.iter().map(|n| Value::Str(n.clone())).collect()),
                    ),
                ])
            })
            .collect();
        Value::Obj(vec![
            (
                "schema_version".to_string(),
                Value::Int(eo_obs::report::SCHEMA_VERSION),
            ),
            ("diagnostics".to_string(), Value::Arr(diags)),
            (
                "errors".to_string(),
                Value::Int(self.count(Severity::Error) as i64),
            ),
            (
                "warnings".to_string(),
                Value::Int(self.count(Severity::Warning) as i64),
            ),
            (
                "infos".to_string(),
                Value::Int(self.count(Severity::Info) as i64),
            ),
        ])
    }
}

fn anchor_key(a: &Anchor) -> (u8, usize) {
    match a {
        Anchor::Program => (0, 0),
        Anchor::Stmt(s) => (1, s.index()),
        Anchor::Event(e) => (1, e.index()),
    }
}

/// Stable diagnostic codes, one per lint.
pub mod codes {
    /// `Wait(v)` where `v` is never posted anywhere and starts clear.
    pub const WAIT_NEVER_POSTED: &str = "EO-L001";
    /// `Wait(v)` where `v` also has `Clear`s that may race the posts.
    pub const WAIT_CLEAR_RACE: &str = "EO-L002";
    /// `P(s)` that no execution can ever supply.
    pub const SEM_NEVER_SUPPLIED: &str = "EO-L003";
    /// More possible `P(s)` than guaranteed supply — some execution may
    /// starve.
    pub const SEM_MAY_STARVE: &str = "EO-L004";
    /// `Post(v)` always erased by a `Clear(v)` before any `Wait` can
    /// observe it.
    pub const DEAD_POST: &str = "EO-L005";
    /// `join` on a process whose `fork` is not guaranteed to happen
    /// first.
    pub const JOIN_MAYBE_UNFORKED: &str = "EO-L006";
    /// A cycle in the static wait-for graph — potential deadlock.
    pub const DEADLOCK_CYCLE: &str = "EO-L007";
    /// A forked process no `join` ever awaits (style).
    pub const FORKED_NEVER_JOINED: &str = "EO-L008";
    /// `Wait(v)` whose posts are all conditional — some execution may
    /// never supply it.
    pub const WAIT_MAYBE_UNSUPPLIED: &str = "EO-L009";
    /// Two conflicting shared-variable accesses the MHP analysis cannot
    /// order: a potential data race (opt-in, `LintOptions::mhp`).
    pub const MHP_STATIC_RACE: &str = "EO-L010";
    /// A statement the MHP analysis proves can never execute in any
    /// execution (opt-in, `LintOptions::mhp`).
    pub const MHP_UNREACHABLE: &str = "EO-L011";
    /// A blocking `Wait`/`P` the MHP analysis proves can never fire — its
    /// process hangs forever (opt-in, `LintOptions::mhp`).
    pub const MHP_BLOCKED_FOREVER: &str = "EO-L012";
    /// Misuse of a surface primitive (barrier, mutex/condvar monitor,
    /// bounded channel): unlocking a mutex the process does not hold,
    /// `cond_wait` without the lock, relocking a held (non-reentrant)
    /// mutex, receiving on a never-sent channel, over-sending past
    /// capacity plus receives, or (style) signalling a condvar nothing
    /// awaits.
    pub const SURFACE_MISUSE: &str = "EO-L013";

    /// The codes that indicate a potential (or certain) permanent block —
    /// the "may deadlock" family used by the cross-checks against the
    /// interpreter's dynamic deadlock detection.
    pub const BLOCKING_FAMILY: &[&str] = &[
        WAIT_NEVER_POSTED,
        WAIT_CLEAR_RACE,
        SEM_NEVER_SUPPLIED,
        SEM_MAY_STARVE,
        JOIN_MAYBE_UNFORKED,
        DEADLOCK_CYCLE,
        WAIT_MAYBE_UNSUPPLIED,
    ];
}
