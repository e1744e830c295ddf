//! `eo` — command-line front end to the event-ordering analyses.
//!
//! ```text
//! eo analyze <trace.json> [--config <file.json>] [--ignore-deps] [--matrix]
//!            [--fixture <name>] [--json] [--equiv <strategy>]
//!            [--timeout <ms>] [--max-mem <bytes>] [--max-states <n>]
//!            [--no-degrade] [--static-prefilter]
//!            [--trace-out <f>] [--metrics-out <f>]
//!            [--profile]                            six relations of a trace
//! eo serve   <trace.json> [--batch <req.json>] [--threads <n>]
//!            [--config <file.json>]
//!            [--timeout <ms>] [--max-mem <bytes>] [--max-states <n>]
//!            [--no-cache] [--no-prefilter] [--static-prefilter]
//!            [--ignore-deps] [--equiv <strategy>] [--backend exact|sat]
//!            [--metrics-out <f>]                    batched query sessions
//! eo races   <trace.json>                           exact vs clock race report
//! eo sat     <n_vars> <n_clauses> <seed> [--events] SAT via Theorem 1/2 (or 3/4)
//! eo lint    <trace.json>... [--json] [--mhp] [--deny <level>]
//!            [--metrics-out <f>]                    static synchronization lints
//! eo lint    --theorem3 [n m seed] [--json]         lint the Theorem 3 program
//! eo lint    --fixture <name> [--json] [--mhp]      lint a gallery fixture
//! eo mhp     <trace.json> [--json] [--metrics-out <f>]
//! eo mhp     --figure1 [--json]                     static MHP verdict report
//! eo mhp     --fixture <name> [--json]              MHP on a gallery fixture
//! eo figure1                                        the paper's Figure 1 demo
//! ```
//!
//! `analyze` runs under a supervisor budget: `--timeout`, `--max-mem` and
//! `--max-states` bound the exact passes, and when a bound is hit the
//! command prints the sound degraded report instead of failing. `^C` (or
//! SIGTERM) cancels the same way: the engine stops at its next budget
//! checkpoint and the command prints the degraded report for whatever
//! was explored so far. Exit codes: **0** exact answer, **2** degraded
//! answer (including interruption), **3** budget exceeded with
//! `--no-degrade`, **1** usage or input errors.
//!
//! `--trace-out` writes a Chrome-trace JSON of the engine's spans,
//! `--metrics-out` a flat metrics JSON, and `--profile` prints the top
//! spans by self-time. All three flush on every analysis exit path —
//! exact (0), degraded (2), and `--no-degrade` hard failure (3) — and
//! need a binary built with the `obs` feature to record anything.
//!
//! `lint` exits nonzero when any finding reaches the `--deny` level
//! (default `error`; `warning` and `info` tighten it). Several trace
//! files can be linted in one run: each gets its own per-file report and
//! the exit code aggregates across all of them. `--mhp` additionally runs
//! the `eo-mhp` may-happen-in-parallel fixpoint and reports static races
//! (`EO-L010`), unreachable statements (`EO-L011`) and statements blocked
//! forever (`EO-L012`).
//!
//! `mhp` runs the static may-happen-in-parallel analysis alone on the
//! program reconstructed from a trace (or, with `--figure1`, on the
//! paper's branchy Figure 1 program) and prints the per-pair verdict
//! summary plus every conflicting access pair it cannot order.
//!
//! `--static-prefilter` (on `analyze` and `serve`) consults those same
//! statically proved orderings before any exploration: exact answers are
//! bit-identical with the flag on or off (soundness means the static tier
//! can only refute what exploration would also refute), degraded answers
//! can only gain decided facts, and the `mhp.*` / `serve.*` metrics
//! expose how much work the static tier absorbed.
//!
//! `--config <file.json>` seeds every engine knob (feasibility mode,
//! equivalence, backend, static prefilter, budget caps) from one
//! serializable `EngineConfig` document; explicit flags override
//! individual fields. The same file is accepted identically by `eo
//! analyze`, `eo serve`, and `eo-server`, and serve responses echo the
//! non-default settings in an additive `config` object.
//!
//! `serve` answers a batch of ordering queries against one program in one
//! long-lived session (shared interned state space, cross-query caches):
//! newline-delimited JSON requests on stdin, or a JSON array via
//! `--batch`; one JSON response per request on stdout, in request order.
//! Exit codes: **0** every answer exact, **2** any response degraded or
//! rejected, **1** usage or input errors.

use eo_engine::{
    AnalysisOutcome, Budget, DegradedSummary, EngineError, ExactEngine, Fact, FeasibilityMode,
    OrderingSummary,
};
use eo_model::{render, EventId, ProgramExecution, Trace};
use eo_obs::report::SCHEMA_VERSION;
use eo_sat::Formula;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cmd = args.first().map(String::as_str);
    let rest = &args[1.min(args.len())..];
    match cmd {
        Some("analyze") => analyze(rest),
        Some("serve") => serve(rest),
        Some("races") => races(rest),
        Some("sat") => sat(rest),
        Some("lint") => lint(rest),
        Some("mhp") => mhp(rest),
        Some("figure1") => figure1(),
        _ => {
            eprintln!(
                "usage:\n  eo analyze <trace.json> [--config <file.json>] [--ignore-deps] [--matrix]\n      \
                 [--fixture <name>] [--json] [--timeout <ms>] [--max-mem <bytes>] [--max-states <n>]\n      \
                 [--no-degrade] [--static-prefilter] [--equiv <strategy>]\n      \
                 [--trace-out <file>] [--metrics-out <file>] [--profile]\n  \
                 eo serve <trace.json> [--batch <requests.json>] [--threads <n>]\n      \
                 [--config <file.json>] [--timeout <ms>] [--max-mem <bytes>] [--max-states <n>]\n      \
                 [--no-cache] [--no-prefilter] [--static-prefilter] [--ignore-deps]\n      \
                 [--backend exact|sat] [--equiv mazurkiewicz|normal-form]\n      \
                 [--metrics-out <file>]\n  \
                 eo races <trace.json>\n  eo sat <n_vars> <n_clauses> <seed> [--events]\n  \
                 eo lint <trace.json>... [--json] [--mhp] [--deny error|warning|info] \
                 [--metrics-out <file>]\n  \
                 eo lint --theorem3 [n m seed] [--json] [--deny <level>]\n  \
                 eo lint --fixture <name> [--json] [--mhp] [--deny <level>]\n  \
                 eo mhp <trace.json> [--json] [--metrics-out <file>]\n  \
                 eo mhp --figure1 | --fixture <name> [--json]\n  \
                 eo figure1"
            );
            ExitCode::FAILURE
        }
    }
}

fn load(path: &str) -> Result<ProgramExecution, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let trace = Trace::from_json(&text).map_err(|e| format!("parsing {path}: {e}"))?;
    trace
        .to_execution()
        .map_err(|e| format!("validating {path}: {e}"))
}

/// Resolves a `--fixture <name>` gallery program, with the available
/// names in the error message.
fn fixture_program(name: &str) -> Result<eo_lang::Program, String> {
    eo_lang::gallery::fixture(name).ok_or_else(|| {
        format!(
            "unknown fixture `{name}`; available: {}",
            eo_lang::gallery::names().join(", ")
        )
    })
}

/// Builds the execution for a named gallery fixture: desugars the
/// surface program to core form and records one deterministic complete
/// run as the analyzed trace.
fn fixture_exec(name: &str) -> Result<ProgramExecution, String> {
    let program = fixture_program(name)?;
    let desugared = eo_lang::desugar(&program).map_err(|e| format!("fixture {name}: {e}"))?;
    let trace = eo_lang::run_to_trace(&desugared.program, &mut eo_lang::Scheduler::round_robin())
        .map_err(|e| format!("fixture {name} did not complete: {e:?}"))?;
    trace
        .to_execution()
        .map_err(|e| format!("fixture {name}: {e}"))
}

/// Parses `--<name> <number>` anywhere in `args`.
fn num_flag(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1).map(|s| s.parse::<u64>()) {
            Some(Ok(v)) => Ok(Some(v)),
            other => Err(format!("analyze: {name} takes a number, got {other:?}")),
        },
    }
}

/// Parses `--<name> <value>` anywhere in `args`.
fn str_flag(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("analyze: {name} takes a file path")),
        },
    }
}

/// The effective engine config for a subcommand: the `--config` file (or
/// the default) with explicit engine-knob flags folded over it. Shared
/// verbatim with `eo-server` via [`eo_engine::EngineConfig::from_cli`],
/// so the three front ends accept one config file identically.
fn engine_config(args: &[String]) -> Result<eo_engine::EngineConfig, String> {
    eo_engine::EngineConfig::from_cli(args)
}

/// The observability outputs one `eo analyze` run was asked for.
///
/// [`flush`](ObsOut::flush) runs on *every* analysis exit path — exact,
/// degraded, and `--no-degrade` hard failure — so a budget-exhausted run
/// still leaves its trace and metrics behind for post-mortems.
struct ObsOut {
    trace_out: Option<String>,
    metrics_out: Option<String>,
    profile: bool,
}

impl ObsOut {
    fn wanted(&self) -> bool {
        self.trace_out.is_some() || self.metrics_out.is_some() || self.profile
    }

    /// Arms recording (and warns when the binary can't record at all).
    fn begin(&self) {
        if !self.wanted() {
            return;
        }
        eo_obs::start();
        if !eo_obs::recording() {
            eprintln!(
                "warning: this eo binary was built without the `obs` feature; \
                 --trace-out/--metrics-out/--profile will report empty data \
                 (rebuild with `cargo build --features obs`)"
            );
        }
    }

    /// Stops recording and writes every requested output. I/O errors are
    /// reported but do not change the analysis exit code: telemetry must
    /// never mask the answer.
    fn flush(&self) {
        if !self.wanted() {
            return;
        }
        let run = eo_obs::finish();
        let report = eo_obs::report::aggregate(&run);
        if let Some(path) = &self.metrics_out {
            let text = eo_obs::report::metrics_to_json(&report.metrics_with_defaults());
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("warning: writing {path}: {e}");
            }
        }
        if let Some(path) = &self.trace_out {
            let text = eo_obs::report::trace_to_json(&report);
            if let Err(e) = std::fs::write(path, text) {
                eprintln!("warning: writing {path}: {e}");
            }
        }
        if self.profile {
            eprint!("{}", eo_obs::report::render_profile(&report, 10));
        }
    }
}

/// One engine error as a JSON object (stable `kind` strings for scripts).
fn error_json(e: &EngineError) -> String {
    match e {
        EngineError::StateSpaceExceeded { limit } => {
            format!(r#"{{"kind":"state_space_exceeded","limit":{limit}}}"#)
        }
        EngineError::ScheduleBudgetExceeded { limit } => {
            format!(r#"{{"kind":"schedule_budget_exceeded","limit":{limit}}}"#)
        }
        EngineError::DeadlineExceeded { ms } => {
            format!(r#"{{"kind":"deadline_exceeded","ms":{ms}}}"#)
        }
        EngineError::MemoryExceeded { limit } => {
            format!(r#"{{"kind":"memory_exceeded","limit":{limit}}}"#)
        }
        EngineError::Cancelled => r#"{"kind":"cancelled"}"#.to_string(),
        // EngineError is non-exhaustive: future variants degrade to a
        // generic kind instead of breaking the CLI.
        other => format!(r#"{{"kind":"engine_error","message":"{other}"}}"#),
    }
}

/// Standard output for every `eo` subcommand's report. A closed pipe
/// (`eo analyze … | head -1`) ends the report quietly instead of
/// panicking, so the command still exits with its own code; any other
/// write error panics, as `println!` does.
struct ReportOut {
    stdout: std::io::Stdout,
    closed: bool,
}

impl ReportOut {
    fn new() -> Self {
        ReportOut {
            stdout: std::io::stdout(),
            closed: false,
        }
    }

    fn print(&mut self, args: std::fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        if let Err(e) = std::io::Write::write_fmt(&mut self.stdout, args) {
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                panic!("failed printing to stdout: {e}");
            }
            self.closed = true;
        }
    }
}

/// `print!` into a [`ReportOut`].
macro_rules! out {
    ($out:expr, $($arg:tt)*) => {
        $out.print(format_args!($($arg)*))
    };
}

/// `println!` into a [`ReportOut`].
macro_rules! outln {
    ($out:expr, $($arg:tt)*) => {
        $out.print(format_args!("{}\n", format_args!($($arg)*)))
    };
}

fn print_exact_report(
    out: &mut ReportOut,
    exec: &ProgramExecution,
    mode: FeasibilityMode,
    summary: &OrderingSummary,
) {
    outln!(
        out,
        "\nfeasibility: {:?}; |F(P)| = {}, cut-lattice states = {}",
        mode,
        summary.class_count(),
        summary.state_count()
    );

    outln!(out, "\nmust-have-happened-before (transitive reduction):");
    out!(
        out,
        "{}",
        render::render_relation(exec, &summary.mhb_relation(), true)
    );
    outln!(out, "\ncould-be-concurrent pairs:");
    let ccw = summary.ccw_relation();
    for a in 0..exec.n_events() {
        for b in (a + 1)..exec.n_events() {
            if ccw.contains(a, b) {
                outln!(
                    out,
                    "{} || {}",
                    render::event_name(exec, EventId::new(a)),
                    render::event_name(exec, EventId::new(b))
                );
            }
        }
    }
}

fn print_degraded_report(out: &mut ReportOut, exec: &ProgramExecution, d: &DegradedSummary) {
    outln!(
        out,
        "\nDEGRADED ANALYSIS — budget exhausted: {}",
        d.reason()
    );
    outln!(
        out,
        "partial exact pass: {} states explored ({} completable, lattice {}), \
         {} induced orders recorded",
        d.states_explored(),
        d.completable_states(),
        if d.space_complete() {
            "complete"
        } else {
            "truncated"
        },
        d.orders_found()
    );
    let (me, mb, mu) = d.mhb_counts();
    let (ce, cb, cu) = d.chb_counts();
    let (oe, ob, ou) = d.ccw_counts();
    outln!(out, "facts decided (exact / bounded / unknown):");
    outln!(out, "  MHB: {me} / {mb} / {mu}");
    outln!(out, "  CHB: {ce} / {cb} / {cu}");
    outln!(out, "  CCW: {oe} / {ob} / {ou}");
    outln!(
        out,
        "decided {:.1}% of {} relation instances",
        d.decided_fraction() * 100.0,
        d.total_pairs()
    );
    let n = exec.n_events();
    outln!(out, "\nproved must-have-happened-before pairs:");
    for a in 0..n {
        for b in 0..n {
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            if d.mhb(ea, eb).decided() == Some(true) {
                let tag = match d.mhb(ea, eb) {
                    Fact::Bounded(_) => " (bounded)",
                    _ => "",
                };
                outln!(
                    out,
                    "{} -> {}{tag}",
                    render::event_name(exec, ea),
                    render::event_name(exec, eb)
                );
            }
        }
    }
    outln!(out, "\nproved could-be-concurrent pairs:");
    for a in 0..n {
        for b in (a + 1)..n {
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            if d.ccw(ea, eb).decided() == Some(true) {
                outln!(
                    out,
                    "{} || {}",
                    render::event_name(exec, ea),
                    render::event_name(exec, eb)
                );
            }
        }
    }
}

fn analyze(args: &[String]) -> ExitCode {
    let mut out = ReportOut::new();
    let fixture = match str_flag(args, "--fixture") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let path = match (args.first(), &fixture) {
        (Some(p), _) => p.clone(),
        (None, Some(_)) => String::new(),
        (None, None) => {
            eprintln!("analyze: missing trace path (or pass --fixture <name>)");
            return ExitCode::FAILURE;
        }
    };
    let matrix = args.iter().any(|a| a == "--matrix");
    let json = args.iter().any(|a| a == "--json");
    let no_degrade = args.iter().any(|a| a == "--no-degrade");
    // `--config <file.json>` seeds every engine knob; explicit flags
    // override individual fields.
    let cfg = match engine_config(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let static_prefilter = cfg.static_prefilter;
    let obs = match (
        str_flag(args, "--trace-out"),
        str_flag(args, "--metrics-out"),
    ) {
        (Ok(trace_out), Ok(metrics_out)) => ObsOut {
            trace_out,
            metrics_out,
            profile: args.iter().any(|a| a == "--profile"),
        },
        (t, m) => {
            for r in [t, m] {
                if let Err(e) = r {
                    eprintln!("{e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let exec = match &fixture {
        Some(name) => fixture_exec(name),
        None => load(&path),
    };
    let exec = match exec {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if exec.n_events() == 0 {
        // An empty program has exactly one (empty) feasible execution and
        // every relation is empty; say so explicitly instead of printing a
        // vacuous relation report.
        obs.begin();
        if json {
            outln!(
                out,
                r#"{{"schema_version":{SCHEMA_VERSION},"status":"exact","classes":1,"states":1,"note":"no events"}}"#
            );
        } else {
            outln!(
                out,
                "no events: the trace is empty; all six ordering relations are empty"
            );
        }
        obs.flush();
        return ExitCode::SUCCESS;
    }

    if !json {
        outln!(out, "trace ({} events):", exec.n_events());
        out!(out, "{}", render::render_trace(exec.trace()));
    }

    let mode = cfg.mode;
    let budget = cfg.budget().unwrap_or_else(Budget::unlimited);
    // ^C / SIGTERM raise the budget's cancel flag; the supervisor notices
    // at its next checkpoint and the run finishes as a *sound degraded
    // report* (exit 2, reason `cancelled`) instead of a killed process.
    // The guard keeps the poller alive across the whole analysis.
    let cancel = budget.cancel_handle();
    let _signal_watch = eo_signal::watch(move || cancel.cancel());
    let engine = ExactEngine::with_mode(&exec, mode)
        .with_budget(budget)
        .with_equiv(cfg.equiv);
    obs.begin();
    // The static tier never changes an exact answer (its refutations are
    // a subset of what exploration proves), so exact runs are
    // bit-identical with the flag on or off; the orderings are kept
    // around to upgrade a *degraded* summary's unknown facts.
    let static_orderings = static_prefilter.then(|| static_event_orderings(&exec));

    if no_degrade {
        // Strict mode: an exhausted budget is a hard failure (exit 3).
        let code = match engine.try_summary() {
            Ok(summary) => {
                if json {
                    outln!(
                        out,
                        r#"{{"schema_version":{SCHEMA_VERSION},"status":"exact","classes":{},"states":{}}}"#,
                        summary.class_count(),
                        summary.state_count()
                    );
                } else {
                    print_exact_report(&mut out, &exec, mode, &summary);
                    if matrix {
                        outln!(out, "\nMHB matrix:");
                        out!(out, "{}", render::render_matrix(&summary.mhb_relation()));
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                // try_summary never builds a DegradedSummary, so record
                // the cause here for the flushed metrics.
                eo_obs::gauge_str(eo_obs::report::DEGRADATION_CAUSE, e.cause_label());
                if json {
                    outln!(
                        out,
                        r#"{{"schema_version":{SCHEMA_VERSION},"status":"error","error":{}}}"#,
                        error_json(&e)
                    );
                } else {
                    eprintln!("analysis exceeded its budget: {e}");
                }
                ExitCode::from(3)
            }
        };
        obs.flush();
        return code;
    }

    let code = match engine.analyze() {
        AnalysisOutcome::Exact(summary) => {
            if json {
                outln!(
                    out,
                    r#"{{"schema_version":{SCHEMA_VERSION},"status":"exact","classes":{},"states":{}}}"#,
                    summary.class_count(),
                    summary.state_count()
                );
            } else {
                print_exact_report(&mut out, &exec, mode, &summary);
                if matrix {
                    outln!(out, "\nMHB matrix:");
                    out!(out, "{}", render::render_matrix(&summary.mhb_relation()));
                }
            }
            ExitCode::SUCCESS
        }
        AnalysisOutcome::Degraded(mut d) => {
            if let Some(ordered) = &static_orderings {
                // Sound upgrade only: statically proved orderings can
                // decide facts exploration ran out of budget for, never
                // contradict the ones it already decided.
                d.apply_static_bounds(ordered);
            }
            if json {
                let (me, mb, mu) = d.mhb_counts();
                let (ce, cb, cu) = d.chb_counts();
                let (oe, ob, ou) = d.ccw_counts();
                outln!(
                    out,
                    r#"{{"schema_version":{SCHEMA_VERSION},"status":"degraded","reason":{},"states_explored":{},"completable_states":{},"space_complete":{},"orders_found":{},"decided_fraction":{:.4},"mhb":{{"exact":{me},"bounded":{mb},"unknown":{mu}}},"chb":{{"exact":{ce},"bounded":{cb},"unknown":{cu}}},"ccw":{{"exact":{oe},"bounded":{ob},"unknown":{ou}}}}}"#,
                    error_json(d.reason()),
                    d.states_explored(),
                    d.completable_states(),
                    d.space_complete(),
                    d.orders_found(),
                    d.decided_fraction(),
                );
            } else {
                print_degraded_report(&mut out, &exec, &d);
            }
            ExitCode::from(2)
        }
    };
    obs.flush();
    code
}

/// Statically proved event orderings for a trace: reconstructs the
/// (branch-free) program behind the observed events, runs the `eo-mhp`
/// fixpoint, and projects its guaranteed statement orderings onto the
/// trace's events. Sound over every feasibility mode: a guarantee-style
/// ordering holds in *all* executions, in particular the observed one.
fn static_event_orderings(exec: &ProgramExecution) -> eo_relations::Relation {
    let (program, event_of_stmt) = eo_lang::program_from_trace(exec.trace());
    let mhp = eo_mhp::MhpAnalysis::analyze(&program);
    let mut stmt_of = vec![eo_mhp::StmtId(0); event_of_stmt.len()];
    for (si, ev) in event_of_stmt.iter().enumerate() {
        stmt_of[ev.index()] = eo_mhp::StmtId(si as u32);
    }
    mhp.event_orderings(&stmt_of)
}

fn serve(args: &[String]) -> ExitCode {
    use eo_serve::{serve_batch, ServeConfig, SessionConfig};

    let mut out = ReportOut::new();
    let Some(path) = args.first().filter(|a| !a.starts_with("--")) else {
        eprintln!("serve: missing trace path");
        return ExitCode::FAILURE;
    };
    let (batch, metrics_out) = match (str_flag(args, "--batch"), str_flag(args, "--metrics-out")) {
        (Ok(b), Ok(m)) => (b, m),
        (b, m) => {
            for r in [b, m] {
                if let Err(e) = r {
                    eprintln!("{e}");
                }
            }
            return ExitCode::FAILURE;
        }
    };
    let threads = match num_flag(args, "--threads") {
        Ok(n) => n,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    // `--config <file.json>` seeds every engine knob; explicit flags
    // override individual fields — identically to `eo analyze`.
    let cfg = match engine_config(args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let exec = match load(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let input = match &batch {
        Some(file) => match std::fs::read_to_string(file) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("serve: reading {file}: {e}");
                return ExitCode::FAILURE;
            }
        },
        None => match std::io::read_to_string(std::io::stdin()) {
            Ok(text) => text,
            Err(e) => {
                eprintln!("serve: reading stdin: {e}");
                return ExitCode::FAILURE;
            }
        },
    };

    // The effective EngineConfig drives the whole session (same budget
    // semantics as `analyze`: unset caps fall back to the engine's default
    // limits) and its non-default fields are echoed in every response.
    let mut session = SessionConfig::from_engine_config(&cfg);
    session.cache = !args.iter().any(|a| a == "--no-cache");
    session.prefilter = !args.iter().any(|a| a == "--no-prefilter");
    let config = ServeConfig {
        session,
        threads: threads.unwrap_or(1) as usize,
    };

    let obs = ObsOut {
        trace_out: None,
        metrics_out,
        profile: false,
    };
    obs.begin();
    let outcome = serve_batch(&exec, &input, &config);
    for response in &outcome.responses {
        outln!(out, "{response}");
    }
    obs.flush();
    if outcome.any_degraded || outcome.any_error {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    }
}

fn races(args: &[String]) -> ExitCode {
    let mut out = ReportOut::new();
    let Some(path) = args.first() else {
        eprintln!("races: missing trace path");
        return ExitCode::FAILURE;
    };
    let exec = match load(path) {
        Ok(e) => e,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let cmp = eo_race::compare(&exec);
    outln!(out, "conflicting pairs: {}", cmp.candidates);
    let mut show = |title: &str, races: &[eo_race::Race]| {
        outln!(out, "{title} ({}):", races.len());
        for r in races {
            outln!(
                out,
                "  {} / {}",
                render::event_name(&exec, r.first),
                render::event_name(&exec, r.second)
            );
        }
    };
    show("agreed races", &cmp.agreed);
    show("missed by vector clocks", &cmp.missed_by_vc);
    show("spurious in vector clocks", &cmp.spurious_in_vc);
    ExitCode::SUCCESS
}

fn sat(args: &[String]) -> ExitCode {
    let mut out = ReportOut::new();
    if args.len() < 3 {
        eprintln!("sat: need <n_vars> <n_clauses> <seed>");
        return ExitCode::FAILURE;
    }
    let parse = |s: &String| s.parse::<u64>().map_err(|e| format!("bad number {s}: {e}"));
    let (n, m, seed) = match (parse(&args[0]), parse(&args[1]), parse(&args[2])) {
        (Ok(n), Ok(m), Ok(s)) => (n as usize, m as usize, s),
        _ => {
            eprintln!("sat: numeric arguments required");
            return ExitCode::FAILURE;
        }
    };
    let use_events = args.iter().any(|a| a == "--events");
    let f = Formula::random_3cnf(n, m, seed);
    outln!(out, "B = {}", f.display());

    let (sat_via_ordering, kind) = if use_events {
        let red = eo_reductions::EventReduction::build(&f);
        (red.witness_b_before_a().is_some(), "Theorem 3/4 (events)")
    } else {
        let red = eo_reductions::SemaphoreReduction::build(&f);
        (
            red.witness_b_before_a().is_some(),
            "Theorem 1/2 (semaphores)",
        )
    };
    let dpll = eo_sat::Solver::satisfiable(&f);
    outln!(
        out,
        "{kind}: b CHB a = {sat_via_ordering}  →  sat = {sat_via_ordering}"
    );
    outln!(out, "DPLL:               sat = {dpll}");
    if sat_via_ordering == dpll {
        outln!(out, "consistent ✓");
        ExitCode::SUCCESS
    } else {
        outln!(out, "INCONSISTENT ✗ — this would falsify the reduction");
        ExitCode::FAILURE
    }
}

/// Positional (non-flag) arguments, skipping the values consumed by the
/// flags in `value_flags` and any bare numbers (the `--theorem3` shape
/// parameters).
fn positional_args<'a>(args: &'a [String], value_flags: &[&str]) -> Vec<&'a String> {
    let mut out = Vec::new();
    let mut skip = false;
    for a in args {
        if skip {
            skip = false;
            continue;
        }
        if value_flags.iter().any(|f| f == a) {
            skip = true;
            continue;
        }
        if a.starts_with("--") || a.parse::<u64>().is_ok() {
            continue;
        }
        out.push(a);
    }
    out
}

fn lint(args: &[String]) -> ExitCode {
    use eo_lint::{lint_program, lint_trace, LintOptions, LintReport, Severity};
    use eo_obs::json::Value;

    let mut out = ReportOut::new();
    let json = args.iter().any(|a| a == "--json");
    let deny = match args.iter().position(|a| a == "--deny") {
        None => Severity::Error,
        Some(i) => match args.get(i + 1).map(String::as_str) {
            Some("error") => Severity::Error,
            Some("warning") => Severity::Warning,
            Some("info") => Severity::Info,
            other => {
                eprintln!("lint: --deny takes error|warning|info, got {other:?}");
                return ExitCode::FAILURE;
            }
        },
    };
    let opts = LintOptions {
        mhp: args.iter().any(|a| a == "--mhp"),
        ..LintOptions::for_trace()
    };
    let obs = match str_flag(args, "--metrics-out") {
        Ok(metrics_out) => ObsOut {
            trace_out: None,
            metrics_out,
            profile: false,
        },
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    if args.iter().any(|a| a == "--theorem3") {
        // Demo: lint the paper's Theorem 3 (event-style) construction —
        // the one the paper itself notes can deadlock.
        let nums: Vec<u64> = args.iter().filter_map(|a| a.parse().ok()).collect();
        let (n, m, seed) = match nums[..] {
            [n, m, s, ..] => (n as usize, m as usize, s),
            _ => (3, 3, 1),
        };
        let f = Formula::random_3cnf(n, m, seed);
        eprintln!("linting the Theorem 3 program for B = {}", f.display());
        let red = eo_reductions::EventReduction::build(&f);
        obs.begin();
        let report = match lint_program(
            &red.program,
            &LintOptions {
                mhp: opts.mhp,
                ..LintOptions::default()
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("lint: constructed program invalid: {e}");
                obs.flush();
                return ExitCode::FAILURE;
            }
        };
        if json {
            outln!(out, "{}", report.to_json().pretty());
        } else {
            out!(out, "{}", report.render_text());
        }
        obs.flush();
        return if report.worst_at_least(deny) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    if let Some(name) = match str_flag(args, "--fixture") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    } {
        // Lint a gallery fixture as a surface *program*: the EO-L013
        // misuse lints and the provenance-remapped core findings only
        // exist at this level (a trace has already been desugared).
        let program = match fixture_program(&name) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        obs.begin();
        let report = match lint_program(
            &program,
            &LintOptions {
                mhp: opts.mhp,
                ..LintOptions::default()
            },
        ) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("lint: fixture {name} invalid: {e}");
                obs.flush();
                return ExitCode::FAILURE;
            }
        };
        if json {
            outln!(out, "{}", report.to_json().pretty());
        } else {
            out!(out, "{}", report.render_text());
        }
        obs.flush();
        return if report.worst_at_least(deny) {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }

    let paths = positional_args(args, &["--deny", "--metrics-out"]);
    if paths.is_empty() {
        eprintln!("lint: missing trace path");
        return ExitCode::FAILURE;
    }

    obs.begin();
    // Lint every file even when an early one fails to load: the per-file
    // reports are independent, only the exit code aggregates.
    let mut reports: Vec<(&String, LintReport)> = Vec::new();
    let mut input_error = false;
    for path in &paths {
        let report = std::fs::read_to_string(path)
            .map_err(|e| format!("reading {path}: {e}"))
            .and_then(|text| Trace::from_json(&text).map_err(|e| format!("parsing {path}: {e}")))
            .and_then(|trace| lint_trace(&trace, &opts).map_err(|e| format!("lint: {e}")));
        match report {
            Ok(r) => reports.push((path, r)),
            Err(e) => {
                eprintln!("{e}");
                input_error = true;
            }
        }
    }
    let denied = reports.iter().any(|(_, r)| r.worst_at_least(deny));

    if paths.len() == 1 {
        // Single-file output is the original (pinned) format.
        if let Some((_, report)) = reports.first() {
            if json {
                outln!(out, "{}", report.to_json().pretty());
            } else {
                out!(out, "{}", report.render_text());
            }
        }
    } else if json {
        let files: Vec<Value> = reports
            .iter()
            .map(|(path, report)| {
                Value::Obj(vec![
                    ("path".to_string(), Value::Str((*path).clone())),
                    ("report".to_string(), report.to_json()),
                ])
            })
            .collect();
        let count = |sev| -> i64 { reports.iter().map(|(_, r)| r.count(sev) as i64).sum() };
        let doc = Value::Obj(vec![
            ("schema_version".to_string(), Value::Int(SCHEMA_VERSION)),
            ("files".to_string(), Value::Arr(files)),
            ("errors".to_string(), Value::Int(count(Severity::Error))),
            ("warnings".to_string(), Value::Int(count(Severity::Warning))),
            ("infos".to_string(), Value::Int(count(Severity::Info))),
        ]);
        outln!(out, "{}", doc.pretty());
    } else {
        for (path, report) in &reports {
            outln!(out, "== {path} ==");
            out!(out, "{}", report.render_text());
        }
        outln!(
            out,
            "{} file(s) linted: {} error(s), {} warning(s), {} info finding(s)",
            reports.len(),
            reports
                .iter()
                .map(|(_, r)| r.count(Severity::Error))
                .sum::<usize>(),
            reports
                .iter()
                .map(|(_, r)| r.count(Severity::Warning))
                .sum::<usize>(),
            reports
                .iter()
                .map(|(_, r)| r.count(Severity::Info))
                .sum::<usize>(),
        );
    }
    obs.flush();
    if input_error || denied {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn mhp(args: &[String]) -> ExitCode {
    use eo_obs::json::Value;

    let mut out = ReportOut::new();
    let json = args.iter().any(|a| a == "--json");
    let obs = match str_flag(args, "--metrics-out") {
        Ok(metrics_out) => ObsOut {
            trace_out: None,
            metrics_out,
            profile: false,
        },
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };

    let fixture = match str_flag(args, "--fixture") {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let program = if args.iter().any(|a| a == "--figure1") {
        // The live Figure 1 *program* (with its branch), not a trace of
        // one observed execution: this is the one input where the static
        // analysis sees strictly more than any single trace.
        eo_lang::generator::figure1_program()
    } else if let Some(name) = &fixture {
        // A gallery fixture is analyzed as the surface *program*: the
        // fixpoint desugars it internally and maps verdicts back, so
        // barrier/monitor/channel separation shows up here directly.
        match fixture_program(name) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        let paths = positional_args(args, &["--metrics-out"]);
        let Some(path) = paths.first() else {
            eprintln!("mhp: missing trace path (or pass --figure1)");
            return ExitCode::FAILURE;
        };
        let exec = match load(path) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        };
        let (program, _) = eo_lang::program_from_trace(exec.trace());
        program
    };

    obs.begin();
    let analysis = eo_mhp::MhpAnalysis::analyze(&program);
    obs.flush();

    let n = analysis.n_stmts();
    let (mut never, mut may, mut unreachable_pairs) = (0i64, 0i64, 0i64);
    for a in 0..n {
        for b in (a + 1)..n {
            use eo_mhp::Verdict;
            match analysis.verdict(eo_mhp::StmtId(a as u32), eo_mhp::StmtId(b as u32)) {
                Verdict::NeverConcurrent => never += 1,
                Verdict::MayBeConcurrent => may += 1,
                Verdict::Unreachable => unreachable_pairs += 1,
            }
        }
    }
    let unreachable: Vec<eo_mhp::StmtId> = analysis.unreachable_stmts().collect();
    let races = analysis.static_races();
    let loc = |s: eo_mhp::StmtId| analysis.stmts()[s.index()].location.clone();

    if json {
        let doc = Value::Obj(vec![
            ("schema_version".to_string(), Value::Int(SCHEMA_VERSION)),
            ("stmts".to_string(), Value::Int(n as i64)),
            ("rounds".to_string(), Value::Int(analysis.rounds() as i64)),
            (
                "unreachable".to_string(),
                Value::Arr(
                    unreachable
                        .iter()
                        .map(|s| Value::Int(s.index() as i64))
                        .collect(),
                ),
            ),
            (
                "pairs".to_string(),
                Value::Obj(vec![
                    ("never_concurrent".to_string(), Value::Int(never)),
                    ("may_be_concurrent".to_string(), Value::Int(may)),
                    ("unreachable".to_string(), Value::Int(unreachable_pairs)),
                ]),
            ),
            (
                "may_races".to_string(),
                Value::Arr(
                    races
                        .iter()
                        .map(|r| {
                            Value::Obj(vec![
                                ("first".to_string(), Value::Int(r.first.index() as i64)),
                                ("second".to_string(), Value::Int(r.second.index() as i64)),
                                ("first_loc".to_string(), Value::Str(loc(r.first))),
                                ("second_loc".to_string(), Value::Str(loc(r.second))),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        outln!(out, "{}", doc.pretty());
    } else {
        outln!(
            out,
            "statements: {n} (fixpoint converged in {} rounds)",
            analysis.rounds()
        );
        outln!(
            out,
            "pair verdicts: {never} never-concurrent, {may} may-be-concurrent, \
             {unreachable_pairs} unreachable"
        );
        if !unreachable.is_empty() {
            outln!(out, "unreachable statements:");
            for s in &unreachable {
                outln!(out, "  {}", loc(*s));
            }
        }
        outln!(
            out,
            "may-happen-in-parallel conflicting accesses ({}):",
            races.len()
        );
        for r in &races {
            outln!(out, "  {} || {}", loc(r.first), loc(r.second));
        }
    }
    ExitCode::SUCCESS
}

fn figure1() -> ExitCode {
    let mut out = ReportOut::new();
    let (trace, ids) = eo_model::fixtures::figure1();
    let exec = trace.to_execution().unwrap();
    out!(out, "{}", render::render_trace(exec.trace()));
    let tg = eo_approx::TaskGraph::build(&exec);
    let exact = ExactEngine::new(&exec);
    outln!(
        out,
        "\nEGP orders the Posts: {}\nexact MHB orders the Posts: {}",
        tg.guaranteed_before(ids.post_left, ids.post_right),
        exact.mhb(ids.post_left, ids.post_right)
    );
    ExitCode::SUCCESS
}
