//! `diffuzz` — nightly differential fuzzing of the ordering backends.
//!
//! Generates a corpus of programs (the fixture gallery, the E9
//! pairing-pitfall ladder, and seeded random workloads in both
//! synchronization styles) and checks, for every event pair in every
//! feasibility mode, that the three decision procedures agree:
//!
//! * **exact** — the witness-search engine ([`eo_engine::QuerySession`]),
//!   the reference semantics;
//! * **sat** — the symbolic CNF backend ([`eo_engine::SatSession`]),
//!   which must be bit-identical on every decided MHB/CHB/CCW instance,
//!   and whose every witness must pass the replay checkers
//!   ([`SearchCtx::check_witness_before`],
//!   [`SearchCtx::check_witness_overlap`]) — kept, spliced and solved
//!   answers alike;
//! * **cnf** — a second, fresh [`eo_sym::PoEncoding`] asked every CHB and
//!   CCW pair directly, so the encoding stays cross-validated even though
//!   the session answers most satisfiable queries from kept schedules;
//!   its decoded witnesses are replay-checked too;
//! * **HMW/EGP** — the polynomial approximations, which are one-sided:
//!   a guaranteed ordering must be confirmed by exact MHB (soundness);
//!   disagreement the other way is expected imprecision, not a bug.
//!
//! On divergence the offending workload is **shrunk in spec space**
//! (fewer processes, shorter processes, fewer synchronization objects —
//! regenerating and re-checking after each step) and the minimal
//! reproducer is written as a JSON artifact to `--out` (default
//! `target/diffuzz/`), one file per divergent program. Exit code 1 with
//! artifacts on any divergence, 0 on a clean sweep.
//!
//! ```text
//! diffuzz [--smoke] [--rounds <n>] [--seed <u64>] [--out <dir>]
//! ```
//!
//! `--smoke` is the PR-CI slice: the deterministic corpus plus a handful
//! of seeded workloads, small enough to finish in seconds. The nightly
//! lane runs the full default rounds with a fresh base seed.

use eo_approx::{SafeOrderings, TaskGraph};
use eo_engine::{FeasibilityMode, QuerySession, SatSession, SearchCtx};
use eo_lang::generator::{generate_trace, SyncStyle, WorkloadSpec};
use eo_model::{fixtures, EventId, ProgramExecution, Trace};
use eo_sym::{PoEncoding, SymOutcome};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::process::ExitCode;

/// One corpus entry: where the trace came from (shrinkable only when
/// spec-generated) and which feasibility mode to check it under.
struct CorpusItem {
    label: String,
    trace: Trace,
    mode: FeasibilityMode,
    spec: Option<WorkloadSpec>,
}

/// One backend disagreement on one pair, or a witness the replay
/// checker rejects (then `detail` says why).
#[derive(Debug)]
struct Divergence {
    kind: &'static str,
    a: usize,
    b: usize,
    exact: bool,
    other: bool,
    detail: Option<String>,
}

impl Divergence {
    fn decision(kind: &'static str, a: usize, b: usize, exact: bool, other: bool) -> Self {
        Divergence {
            kind,
            a,
            b,
            exact,
            other,
            detail: None,
        }
    }

    /// A witness that fails its checker: the backend answered "yes".
    fn witness(kind: &'static str, a: usize, b: usize, detail: String) -> Self {
        Divergence {
            kind,
            a,
            b,
            exact: true,
            other: true,
            detail: Some(detail),
        }
    }
}

fn exec_of(trace: &Trace) -> ProgramExecution {
    trace
        .clone()
        .to_execution()
        .expect("corpus traces are valid")
}

/// Sweeps every pair of `trace` under `mode` and returns the first
/// disagreement between the exact engine and the SAT session or a fresh
/// encoding, the first SAT witness that fails its replay checker, or an
/// HMW/EGP guarantee the exact engine refutes (an approximation
/// soundness bug).
fn first_divergence(trace: &Trace, mode: FeasibilityMode) -> Option<Divergence> {
    let exec = exec_of(trace);
    let ctx = SearchCtx::new(&exec, mode);
    let mut exact = QuerySession::new(&ctx);
    let mut sat = SatSession::new(&ctx);
    let mut cnf = PoEncoding::with_dependence(exec.trace(), &ctx.effective_dependence());
    let n = exec.n_events();

    let mut guarantee = SafeOrderings::compute(&exec).relation().clone();
    guarantee.union_with(TaskGraph::build(&exec).relation());
    guarantee.close_transitively();

    for a in 0..n {
        for b in 0..n {
            if a == b {
                continue;
            }
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            let mhb = exact.must_happen_before(ea, eb);
            let chb = exact.could_happen_before(ea, eb);
            let sat_mhb = sat
                .try_must_happen_before(&ctx, ea, eb)
                .expect("unbudgeted");
            if sat_mhb != mhb {
                return Some(Divergence::decision("mhb:exact-vs-sat", a, b, mhb, sat_mhb));
            }
            let sat_before = sat.try_witness_before(&ctx, ea, eb).expect("unbudgeted");
            if sat_before.is_some() != chb {
                let other = sat_before.is_some();
                return Some(Divergence::decision("chb:exact-vs-sat", a, b, chb, other));
            }
            if let Some(Err(e)) = sat_before.map(|w| ctx.check_witness_before(ea, eb, &w)) {
                return Some(Divergence::witness("chb:sat-witness", a, b, e));
            }
            let cnf_before = match cnf.solve_before(ea, eb, &mut |_| false) {
                SymOutcome::Sat(model) => Some(cnf.decode_schedule(&model)),
                _ => None,
            };
            if cnf_before.is_some() != chb {
                let other = cnf_before.is_some();
                return Some(Divergence::decision("chb:exact-vs-cnf", a, b, chb, other));
            }
            if let Some(Err(e)) = cnf_before.map(|w| ctx.check_witness_before(ea, eb, &w)) {
                return Some(Divergence::witness("chb:cnf-witness", a, b, e));
            }
            // HMW ∪ EGP soundness: a guaranteed order must be a must-order.
            if guarantee.contains(a, b) && !mhb {
                return Some(Divergence::decision(
                    "mhb:exact-vs-hmw-egp",
                    a,
                    b,
                    mhb,
                    true,
                ));
            }
            if b > a {
                let ccw = exact.could_be_concurrent(ea, eb);
                let sat_overlap = sat.try_witness_overlap(&ctx, ea, eb).expect("unbudgeted");
                if sat_overlap.is_some() != ccw {
                    let other = sat_overlap.is_some();
                    return Some(Divergence::decision("ccw:exact-vs-sat", a, b, ccw, other));
                }
                if let Some(Err(e)) = sat_overlap.map(|w| ctx.check_witness_overlap(ea, eb, &w)) {
                    return Some(Divergence::witness("ccw:sat-witness", a, b, e));
                }
                let cnf_overlap = match cnf.solve_overlap(ea, eb, &mut |_| false) {
                    SymOutcome::Sat(model) => {
                        let schedule = cnf.decode_schedule(&model);
                        let at = schedule.iter().position(|&e| e == ea || e == eb);
                        Some(schedule[..at.expect("a model runs every event")].to_vec())
                    }
                    _ => None,
                };
                if cnf_overlap.is_some() != ccw {
                    let other = cnf_overlap.is_some();
                    return Some(Divergence::decision("ccw:exact-vs-cnf", a, b, ccw, other));
                }
                if let Some(Err(e)) = cnf_overlap.map(|w| ctx.check_witness_overlap(ea, eb, &w)) {
                    return Some(Divergence::witness("ccw:cnf-witness", a, b, e));
                }
            }
        }
    }
    None
}

/// Greedy spec-space shrinking: repeatedly try the candidate reductions
/// and keep any that still diverges, until no reduction reproduces.
fn shrink(spec: &WorkloadSpec, mode: FeasibilityMode) -> (WorkloadSpec, Trace, Divergence) {
    let mut current = spec.clone();
    let mut trace = generate_trace(&current, 100);
    let mut div = first_divergence(&trace, mode).expect("shrink starts from a divergence");
    loop {
        let mut reduced = false;
        for candidate in reductions(&current) {
            let cand_trace = generate_trace(&candidate, 100);
            if let Some(d) = first_divergence(&cand_trace, mode) {
                current = candidate;
                trace = cand_trace;
                div = d;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return (current, trace, div);
        }
    }
}

/// Candidate one-step reductions of a spec, most aggressive first.
fn reductions(spec: &WorkloadSpec) -> Vec<WorkloadSpec> {
    let mut out = Vec::new();
    let mut push = |f: &dyn Fn(&mut WorkloadSpec) -> bool| {
        let mut s = spec.clone();
        if f(&mut s) {
            out.push(s);
        }
    };
    push(&|s| {
        s.processes > 2 && {
            s.processes -= 1;
            true
        }
    });
    push(&|s| {
        s.events_per_process > 1 && {
            s.events_per_process -= 1;
            true
        }
    });
    push(&|s| {
        s.semaphores > 1 && {
            s.semaphores -= 1;
            true
        }
    });
    push(&|s| {
        s.event_vars > 1 && {
            s.event_vars -= 1;
            true
        }
    });
    push(&|s| {
        s.variables > 1 && {
            s.variables -= 1;
            true
        }
    });
    push(&|s| {
        s.clears && {
            s.clears = false;
            true
        }
    });
    out
}

/// Writes one divergence artifact: the minimal spec (when shrinkable),
/// the exact trace, and the disagreeing query.
fn write_artifact(
    dir: &str,
    label: &str,
    mode: FeasibilityMode,
    spec: Option<&WorkloadSpec>,
    trace: &Trace,
    div: &Divergence,
) -> std::io::Result<String> {
    std::fs::create_dir_all(dir)?;
    let path = format!("{dir}/{label}.json");
    let spec_field = match spec {
        Some(s) => format!("{s:?}").replace('"', "'"),
        None => "fixture (not spec-generated)".to_owned(),
    };
    let doc = format!(
        "{{\n  \"label\": \"{label}\",\n  \"mode\": \"{mode:?}\",\n  \
         \"kind\": \"{}\",\n  \"pair\": [{}, {}],\n  \"exact\": {},\n  \
         \"other\": {},\n  \"detail\": \"{}\",\n  \"spec\": \"{spec_field}\",\n  \
         \"trace\": {}\n}}\n",
        div.kind,
        div.a,
        div.b,
        div.exact,
        div.other,
        div.detail.as_deref().unwrap_or("").replace('"', "'"),
        trace.to_json(),
    );
    std::fs::write(&path, doc)?;
    Ok(path)
}

/// The E9 pairing-pitfall program (mirrors `eo-bench`'s family).
fn pitfall_trace(decoys: usize) -> Trace {
    let mut b = eo_lang::ProgramBuilder::new();
    let s = b.semaphore("s");
    let x = b.variable("x");
    let w = b.process("writer");
    b.compute_rw(w, &[], &[x], "write_x");
    b.sem_v(w, s);
    for k in 0..decoys {
        let d = b.process(&format!("decoy_{k}"));
        b.sem_v(d, s);
    }
    let r = b.process("reader");
    b.sem_p(r, s);
    b.compute_rw(r, &[x], &[], "read_x");
    let program = b.build();
    eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::deterministic())
        .expect("pitfall program cannot deadlock")
}

/// A random spec drawn small enough that the exact full-pair sweep stays
/// fast (the cut lattice is exponential in processes).
fn random_spec(rng: &mut SmallRng, seed: u64) -> WorkloadSpec {
    // Every synchronization vocabulary the language offers, surface
    // primitives included — their desugared core forms must agree across
    // the three decision procedures exactly like native core programs.
    let style = match rng.gen_range(0u32..5) {
        0 => SyncStyle::Semaphores,
        1 => SyncStyle::Events,
        2 => SyncStyle::Monitors,
        3 => SyncStyle::Channels,
        _ => SyncStyle::Barriers,
    };
    let mut spec = match style {
        SyncStyle::Semaphores => WorkloadSpec::small_semaphore(seed),
        SyncStyle::Events => WorkloadSpec::small_events(seed),
        SyncStyle::Monitors => WorkloadSpec::small_monitors(seed),
        SyncStyle::Channels => WorkloadSpec::small_channels(seed),
        SyncStyle::Barriers => WorkloadSpec::small_barriers(seed),
    };
    spec.processes = rng.gen_range(2usize..=4);
    // Surface slots expand (a monitor bracket is three statements, a
    // barrier phase adds one per process), so keep those specs a notch
    // smaller to hold the exact sweep's cut lattice in check.
    let max_events = match style {
        SyncStyle::Monitors | SyncStyle::Barriers => 3,
        _ => 4,
    };
    spec.events_per_process = rng.gen_range(2usize..=max_events);
    spec.variables = rng.gen_range(1usize..=3);
    if style != SyncStyle::Barriers {
        spec.sync_density = rng.gen_range(0.3f64..=0.8);
    }
    spec.write_fraction = rng.gen_range(0.2f64..=0.7);
    if style == SyncStyle::Events {
        spec.clears = rng.gen_bool(0.5);
    }
    if style == SyncStyle::Barriers {
        spec.semaphores = rng.gen_range(1usize..=2); // phases
    }
    spec
}

fn corpus(rounds: usize, base_seed: u64) -> Vec<CorpusItem> {
    use FeasibilityMode::{IgnoreDependences, PreserveDependences};
    let mut out = Vec::new();
    for (name, trace) in [
        ("independent_pair", fixtures::independent_pair().0),
        ("sem_handshake", fixtures::sem_handshake().0),
        ("fork_join_diamond", fixtures::fork_join_diamond().0),
        ("crossing", fixtures::crossing().0),
        ("figure1", fixtures::figure1().0),
        ("post_wait_clear_chain", fixtures::post_wait_clear_chain().0),
        ("shared_counter_race", fixtures::shared_counter_race().0),
    ] {
        for mode in [PreserveDependences, IgnoreDependences] {
            out.push(CorpusItem {
                label: format!("{name}-{mode:?}"),
                trace: trace.clone(),
                mode,
                spec: None,
            });
        }
    }
    for decoys in [2, 4] {
        out.push(CorpusItem {
            label: format!("e9-pitfall-{decoys}"),
            trace: pitfall_trace(decoys),
            mode: IgnoreDependences,
            spec: None,
        });
    }
    // One deterministic draw of each surface-primitive style, so even the
    // PR `--smoke` slice exercises barrier/monitor/channel desugarings in
    // both feasibility modes (the random rounds sample them too, but not
    // guaranteed at 6 rounds).
    for (name, spec) in [
        ("monitors", WorkloadSpec::small_monitors(11)),
        ("channels", WorkloadSpec::small_channels(11)),
        ("barriers", WorkloadSpec::small_barriers(11)),
    ] {
        for mode in [PreserveDependences, IgnoreDependences] {
            out.push(CorpusItem {
                label: format!("surface-{name}-{mode:?}"),
                trace: generate_trace(&spec, 100),
                mode,
                spec: Some(spec.clone()),
            });
        }
    }
    let mut rng = SmallRng::seed_from_u64(base_seed);
    for round in 0..rounds {
        let seed = base_seed.wrapping_add(round as u64).wrapping_mul(0x9E37);
        let spec = random_spec(&mut rng, seed);
        let mode = if rng.gen_bool(0.5) {
            PreserveDependences
        } else {
            IgnoreDependences
        };
        out.push(CorpusItem {
            label: format!("gen-{round}-seed{seed}-{mode:?}"),
            trace: generate_trace(&spec, 100),
            mode,
            spec: Some(spec),
        });
    }
    out
}

fn num_flag(args: &[String], name: &str) -> Option<u64> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let rounds = num_flag(&args, "--rounds").unwrap_or(if smoke { 6 } else { 48 }) as usize;
    let base_seed = num_flag(&args, "--seed").unwrap_or(0xD1FF);
    let out_dir = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "target/diffuzz".to_owned());

    let items = corpus(rounds, base_seed);
    println!(
        "diffuzz: {} programs ({} seeded), base seed {base_seed}{}",
        items.len(),
        rounds,
        if smoke { " [smoke]" } else { "" }
    );

    let mut failures = 0usize;
    for item in &items {
        match first_divergence(&item.trace, item.mode) {
            None => println!("  ok   {}", item.label),
            Some(div) => {
                failures += 1;
                println!("  FAIL {} — {:?}", item.label, div);
                let (spec, trace, div) = match &item.spec {
                    Some(spec) => {
                        let (s, t, d) = shrink(spec, item.mode);
                        println!("       shrunk to {s:?}");
                        (Some(s), t, d)
                    }
                    None => (None, item.trace.clone(), div),
                };
                match write_artifact(
                    &out_dir,
                    &item.label,
                    item.mode,
                    spec.as_ref(),
                    &trace,
                    &div,
                ) {
                    Ok(path) => println!("       artifact: {path}"),
                    Err(e) => eprintln!("       artifact write failed: {e}"),
                }
            }
        }
    }

    if failures == 0 {
        println!("diffuzz: clean sweep — backends agree on every pair");
        ExitCode::SUCCESS
    } else {
        eprintln!("diffuzz: {failures} divergent program(s); artifacts in {out_dir}/");
        ExitCode::FAILURE
    }
}
