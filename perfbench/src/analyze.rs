//! `analyze`: `eo analyze`'s call sequence on a seeded pool of traces,
//! each analysed from scratch as a user's run would be:
//! `Trace::from_json` → `to_execution` → `ExactEngine::analyze` under the
//! trace's `EngineConfig` → a rendered report.

use crate::gen::{self, Rng, Shape};
use crate::span::Tracer;
use crate::stats::Answers;
use crate::{digest, Clock, Fastest, Phase, Size, Workload, DEFAULT_SEED, MIN_PASSES};
use eo_engine::{
    enumerate_classes_with, explore_statespace_budgeted, AnalysisOutcome, Budget, DegradedSummary,
    EngineConfig, ExactEngine, FeasibilityMode, OrderingSummary,
};
use eo_model::{render, EventId, ProgramExecution, Trace};
use std::fmt::Write as _;
use std::time::Instant;

/// The schedule cap every analysis runs under: the deterministic cap a
/// CI user would set. Hitting it ends the analysis degraded.
const MAX_SCHEDULES: usize = 65_536;

/// Decoy counts of the pitfall ladder, analysed once per pass. The
/// default equivalence hits the schedule cap from 7 decoys up; 8 and 9
/// decoys only lengthen a pass, at about 200 ms each.
const PITFALL_DECOYS: std::ops::RangeInclusive<usize> = 4..=7;

/// The random rungs of the shape ladder: (label prefix, shape, whether
/// the analysis ignores dependences, traces drawn). Their per-trace cost
/// spreads with a CV near 1, so the p90 over them still moves with the
/// seed (by an eighth over 600 traces); the heavy tail comes from the
/// pitfall ladder, whose work is the same for every seed. Random 5x4
/// shapes and race 4x4 spread with a CV of 2–3 (single traces up to
/// 270 ms), which moved the pool's mean cost with the seed by a fifth.
fn ladder() -> Vec<(&'static str, Shape, bool, usize)> {
    vec![
        ("sem", Shape::semaphores(4, 4), false, 450),
        ("evt", Shape::events(4, 4), false, 450),
        ("race", Shape::race(4, 3), true, 250),
        ("race", Shape::race(3, 4), true, 250),
    ]
}

/// One generated input: the trace and the engine config, as text.
struct Input {
    label: String,
    trace: String,
    config: String,
}

/// What the timed phases saw for one input.
#[derive(Default)]
struct Seen {
    digest: Option<u64>,
    digests_differ: bool,
    degraded: Option<bool>,
    /// The last exact summary, kept for the identity checks.
    summary: Option<OrderingSummary>,
}

/// The `analyze` workload.
pub struct Analyze {
    seed: u64,
    size: Size,
    pool: Vec<Input>,
    visits: gen::Cycle,
    seen: Vec<Seen>,
}

fn config_json(ignore_deps: bool) -> String {
    let mode = if ignore_deps {
        "ignore-dependences"
    } else {
        "preserve-dependences"
    };
    format!("{{\"mode\":\"{mode}\",\"max_schedules\":{MAX_SCHEDULES}}}")
}

impl Workload for Analyze {
    fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let rng = Rng::new(seed);
        let mut pool = Vec::new();
        let mut groups = Vec::new();
        for (i, (prefix, shape, ignore, count)) in ladder().into_iter().enumerate() {
            let count = match size {
                Size::Full => count,
                Size::Smoke => 5,
            };
            let mut rung_rng = rng.fork(i as u64);
            for k in 0..count {
                let (trace, _) = gen::random_trace(&shape, &mut rung_rng);
                pool.push(Input {
                    label: format!("{}#{k}", shape.label(prefix)),
                    trace,
                    config: config_json(ignore),
                });
            }
            groups.push(count);
        }
        let decoys = match size {
            Size::Full => PITFALL_DECOYS,
            Size::Smoke => 3..=4,
        };
        groups.push(decoys.clone().count());
        let mut pitfall_rng = rng.fork(1000);
        for d in decoys {
            pool.push(Input {
                label: format!("pitfall-{d}"),
                trace: gen::pitfall_trace(d, &mut pitfall_rng).0,
                config: config_json(true),
            });
        }
        // Every input must parse before anything is timed.
        for input in &pool {
            parse(input)?;
        }
        let seen = pool.iter().map(|_| Seen::default()).collect();
        Ok(Analyze {
            seed,
            size,
            pool,
            visits: gen::Cycle::new(groups, rng),
            seen,
        })
    }

    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Phase, String> {
        let mut fastest = Fastest::new(self.pool.len());
        let mut answers = Answers::default();
        let mut clock = Clock::start(seconds);
        let mut op = 0u64;
        let start = self.visits.passes();
        while !(clock.time_up() && self.visits.passes() - start >= MIN_PASSES) {
            let i = self.visits.next().ok_or("the pool is empty")?;
            op += 1;
            let input = &self.pool[i];
            let result = if tracer.enabled() {
                // The traced op must know up front whether to decompose
                // the engine; an input not yet seen is classified once,
                // off the clock.
                let degraded = match self.seen[i].degraded {
                    Some(d) => d,
                    None => clock.exclude(|| analyze_plain(input))?.degraded,
                };
                let t = Instant::now();
                let traced = analyze_traced(input, degraded, op, tracer)?;
                fastest.op(i, t.elapsed());
                if let Some(parent) = traced.summary_span {
                    clock.exclude(|| remeasure_degraded(input, parent, tracer))?;
                }
                traced.result
            } else {
                let t = Instant::now();
                let r = analyze_plain(input)?;
                fastest.op(i, t.elapsed());
                r
            };
            answers.add(Answers {
                attempted: 1,
                exact: u64::from(!result.degraded),
                degraded: u64::from(result.degraded),
                errors: 0,
            });
            self.record(i, result);
        }
        Ok(fastest.phase(answers))
    }

    fn check(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        let expected = if self.seed == DEFAULT_SEED && self.size == Size::Full {
            Some(expected_digests())
        } else {
            None
        };
        for (input, seen) in self.pool.iter().zip(&self.seen) {
            let label = &input.label;
            if seen.digests_differ {
                errors.push(format!(
                    "{label}: repeated analyses rendered different reports"
                ));
            }
            if let (Some(expected), Some(d)) = (&expected, seen.digest) {
                match expected.iter().find(|(l, _)| l == label) {
                    Some((_, e)) if *e == d => {}
                    Some((_, e)) => errors.push(format!(
                        "{label}: report digest {d:016x}, expected {e:016x}"
                    )),
                    None => errors.push(format!("{label}: no expected digest recorded")),
                }
            }
            if let Some(summary) = &seen.summary {
                if let Err(e) = check_summary(input, summary) {
                    errors.push(format!("{label}: {e}"));
                }
            }
        }
        errors
    }
}

impl Analyze {
    fn record(&mut self, i: usize, result: Analysed) {
        let seen = &mut self.seen[i];
        if seen.digest.is_some_and(|d| d != result.digest) {
            seen.digests_differ = true;
        }
        seen.digest = Some(result.digest);
        seen.degraded = Some(result.degraded);
        if result.summary.is_some() {
            seen.summary = result.summary;
        }
    }

    /// `label digest` lines for every input that was analysed: the
    /// content of the expected-digest file at the default seed.
    pub fn digest_lines(&self) -> String {
        let mut out = String::new();
        for (input, seen) in self.pool.iter().zip(&self.seen) {
            if let Some(d) = seen.digest {
                let _ = writeln!(out, "{} {d:016x}", input.label);
            }
        }
        out
    }

    /// Swaps a recorded exact summary for one of another trace, as a
    /// wrong answer would; the checks must catch it.
    #[doc(hidden)]
    pub fn corrupt(&mut self) -> bool {
        let Some(seen) = self.seen.iter_mut().find(|s| s.summary.is_some()) else {
            return false;
        };
        let other = Trace::from_json(&gen::pitfall_trace(1, &mut Rng::new(0)).0)
            .expect("pitfall trace parses")
            .to_execution()
            .expect("pitfall trace is valid");
        seen.summary = Some(ExactEngine::new(&other).summary());
        true
    }
}

/// The expected report digests at the default seed.
fn expected_digests() -> Vec<(String, u64)> {
    include_str!("../expected/analyze.digests")
        .lines()
        .filter_map(|line| {
            let (label, hex) = line.split_once(' ')?;
            Some((label.to_owned(), u64::from_str_radix(hex.trim(), 16).ok()?))
        })
        .collect()
}

/// One analysis, as the op produced it.
struct Analysed {
    digest: u64,
    degraded: bool,
    summary: Option<OrderingSummary>,
}

fn parse(input: &Input) -> Result<(ProgramExecution, EngineConfig), String> {
    let trace = Trace::from_json(&input.trace).map_err(|e| format!("{}: {e}", input.label))?;
    let exec = trace
        .to_execution()
        .map_err(|e| format!("{}: {e}", input.label))?;
    let cfg = EngineConfig::from_json_str(&input.config)?;
    Ok((exec, cfg))
}

fn engine<'e>(exec: &'e ProgramExecution, cfg: &EngineConfig) -> ExactEngine<'e> {
    ExactEngine::with_mode(exec, cfg.mode)
        .with_budget(cfg.budget().unwrap_or_else(Budget::unlimited))
        .with_equiv(cfg.equiv)
}

/// The untraced op: exactly `eo analyze`'s sequence.
fn analyze_plain(input: &Input) -> Result<Analysed, String> {
    let (exec, cfg) = parse(input)?;
    let outcome = engine(&exec, &cfg).analyze();
    let report = render_report(&exec, cfg.mode, &outcome);
    Ok(match outcome {
        AnalysisOutcome::Exact(s) => Analysed {
            digest: digest(report.as_bytes()),
            degraded: false,
            summary: Some(s),
        },
        AnalysisOutcome::Degraded(_) => Analysed {
            digest: digest(report.as_bytes()),
            degraded: true,
            summary: None,
        },
    })
}

struct TracedOp {
    result: Analysed,
    /// The `ExactEngine::analyze` span of a degraded input, whose passes
    /// are re-measured after the op.
    summary_span: Option<crate::span::SpanId>,
}

/// The traced op. An input known to finish exact runs the engine's
/// public passes one by one (the same passes `analyze` runs); a degraded
/// one needs `ExactEngine::analyze` itself, the only public route to a
/// degraded summary.
fn analyze_traced(
    input: &Input,
    known_degraded: bool,
    op: u64,
    tr: &mut Tracer,
) -> Result<TracedOp, String> {
    let root = tr.begin("op", op);
    let trace = tr
        .span("model.parse", op, || Trace::from_json(&input.trace))
        .map_err(|e| format!("{}: {e}", input.label))?;
    let exec = tr
        .span("model.build", op, || trace.to_execution())
        .map_err(|e| format!("{}: {e}", input.label))?;
    let cfg = EngineConfig::from_json_str(&input.config)?;
    let engine = engine(&exec, &cfg);
    let (outcome, summary_span) = if known_degraded {
        let id = tr.begin("engine.summary", op);
        let outcome = engine.analyze();
        tr.end(id);
        (outcome, id)
    } else {
        let budget = engine.options().effective_budget();
        let space = tr
            .span("engine.statespace", op, || {
                explore_statespace_budgeted(engine.ctx(), &budget)
            })
            .map_err(|e| format!("{}: state space: {e}", input.label))?;
        let classes = tr.span("engine.enumerate", op, || {
            enumerate_classes_with(engine.ctx(), MAX_SCHEDULES, cfg.equiv)
        });
        if classes.truncated {
            return Err(format!(
                "{}: classified exact but the enumeration was truncated",
                input.label
            ));
        }
        count_passes(tr, space.states, &classes);
        let summary = tr.span("engine.summary", op, || {
            OrderingSummary::from_parts(&space, &classes)
        });
        (AnalysisOutcome::Exact(summary), None)
    };
    let report = tr.span("model.render", op, || {
        render_report(&exec, cfg.mode, &outcome)
    });
    tr.end(root);
    let digest = digest(report.as_bytes());
    let result = match outcome {
        AnalysisOutcome::Exact(s) => Analysed {
            digest,
            degraded: false,
            summary: Some(s),
        },
        AnalysisOutcome::Degraded(_) => Analysed {
            digest,
            degraded: true,
            summary: None,
        },
    };
    if result.degraded != known_degraded {
        return Err(format!(
            "{}: exact/degraded outcome changed between runs",
            input.label
        ));
    }
    Ok(TracedOp {
        result,
        summary_span,
    })
}

fn count_passes(tr: &mut Tracer, states: usize, classes: &eo_engine::EnumerationResult) {
    tr.count("engine.states", states as f64);
    tr.count("engine.schedules", classes.schedules_explored as f64);
    tr.count("engine.orders", classes.orders.len() as f64);
    tr.count("engine.enumerations", 1.0);
    tr.count("engine.truncated", f64::from(u8::from(classes.truncated)));
}

/// Re-measures the state-space and enumeration passes a degraded
/// `ExactEngine::analyze` ran, and lays them inside its span, so the
/// span's self time is the remainder: the degraded summary itself.
fn remeasure_degraded(
    input: &Input,
    parent: crate::span::SpanId,
    tr: &mut Tracer,
) -> Result<(), String> {
    let (exec, cfg) = parse(input)?;
    let engine = engine(&exec, &cfg);
    let budget = engine.options().effective_budget();
    let t = Instant::now();
    let space = explore_statespace_budgeted(engine.ctx(), &budget)
        .map_err(|e| format!("{}: state space: {e}", input.label))?;
    let space_ns = t.elapsed().as_nanos() as u64;
    let t = Instant::now();
    let classes = enumerate_classes_with(engine.ctx(), MAX_SCHEDULES, cfg.equiv);
    let enum_ns = t.elapsed().as_nanos() as u64;
    tr.attribute(Some(parent), "engine.statespace", space_ns);
    tr.attribute(Some(parent), "engine.enumerate", enum_ns);
    count_passes(tr, space.states, &classes);
    Ok(())
}

/// The report `eo analyze` prints for one trace.
fn render_report(
    exec: &ProgramExecution,
    mode: FeasibilityMode,
    outcome: &AnalysisOutcome,
) -> String {
    let mut out = format!("trace ({} events):\n", exec.n_events());
    out.push_str(&render::render_trace(exec.trace()));
    match outcome {
        AnalysisOutcome::Exact(s) => {
            let _ = writeln!(
                out,
                "\nfeasibility: {mode:?}; |F(P)| = {}, cut-lattice states = {}",
                s.class_count(),
                s.state_count()
            );
            out.push_str("\nmust-have-happened-before (transitive reduction):\n");
            out.push_str(&render::render_relation(exec, &s.mhb_relation(), true));
            out.push_str("\ncould-be-concurrent pairs:\n");
            let ccw = s.ccw_relation();
            push_pairs(&mut out, exec, |a, b| ccw.contains(a, b));
        }
        AnalysisOutcome::Degraded(d) => render_degraded(&mut out, exec, d),
    }
    out
}

fn render_degraded(out: &mut String, exec: &ProgramExecution, d: &DegradedSummary) {
    let _ = writeln!(
        out,
        "\nDEGRADED ANALYSIS — budget exhausted: {}",
        d.reason()
    );
    let _ = writeln!(
        out,
        "partial exact pass: {} states explored ({} completable, lattice {}), {} induced orders recorded",
        d.states_explored(),
        d.completable_states(),
        if d.space_complete() { "complete" } else { "truncated" },
        d.orders_found()
    );
    let (me, mb, mu) = d.mhb_counts();
    let (ce, cb, cu) = d.chb_counts();
    let (oe, ob, ou) = d.ccw_counts();
    let _ = writeln!(out, "facts decided (exact / bounded / unknown):");
    let _ = writeln!(out, "  MHB: {me} / {mb} / {mu}");
    let _ = writeln!(out, "  CHB: {ce} / {cb} / {cu}");
    let _ = writeln!(out, "  CCW: {oe} / {ob} / {ou}");
    let _ = writeln!(
        out,
        "decided {:.1}% of {} relation instances",
        d.decided_fraction() * 100.0,
        d.total_pairs()
    );
    let n = exec.n_events();
    out.push_str("\nproved must-have-happened-before pairs:\n");
    for a in 0..n {
        for b in 0..n {
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            if d.mhb(ea, eb).decided() == Some(true) {
                let _ = writeln!(
                    out,
                    "{} -> {}",
                    render::event_name(exec, ea),
                    render::event_name(exec, eb)
                );
            }
        }
    }
    out.push_str("\nproved could-be-concurrent pairs:\n");
    push_pairs(out, exec, |a, b| {
        d.ccw(EventId::new(a), EventId::new(b)).decided() == Some(true)
    });
}

fn push_pairs(out: &mut String, exec: &ProgramExecution, holds: impl Fn(usize, usize) -> bool) {
    for a in 0..exec.n_events() {
        for b in (a + 1)..exec.n_events() {
            if holds(a, b) {
                let _ = writeln!(
                    out,
                    "{} || {}",
                    render::event_name(exec, EventId::new(a)),
                    render::event_name(exec, EventId::new(b))
                );
            }
        }
    }
}

/// An exact summary must satisfy the relation identities and its MHB
/// must contain the polynomial HMW ∪ EGP guarantee relation.
fn check_summary(input: &Input, summary: &OrderingSummary) -> Result<(), String> {
    summary.check_identities()?;
    let (exec, _) = parse(input)?;
    if summary.n_events() != exec.n_events() {
        return Err(format!(
            "summary has {} events, the trace {}",
            summary.n_events(),
            exec.n_events()
        ));
    }
    let mut guarantee = eo_approx::SafeOrderings::compute(&exec).relation().clone();
    guarantee.union_with(eo_approx::TaskGraph::build(&exec).relation());
    let mhb = summary.mhb_relation();
    if let Some((a, b)) = guarantee.pairs().find(|&(a, b)| !mhb.contains(a, b)) {
        return Err(format!(
            "guaranteed ordering {a} -> {b} is missing from MHB"
        ));
    }
    Ok(())
}
