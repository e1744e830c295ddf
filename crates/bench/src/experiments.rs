//! The experiments of DESIGN.md §4 (E1–E11) as callable functions.

use eo_engine::{
    enumerate_classes, enumerate_classes_with, explore_statespace, EquivStrategy, ExactEngine,
    FeasibilityMode, SearchCtx,
};
use eo_lang::generator::{generate_trace, SyncStyle, WorkloadSpec};
use eo_model::{fixtures, EventId, ProgramExecution};
use eo_reductions::{event_style, semaphore, single_semaphore, SequencingInstance};
use eo_sat::{Formula, Solver};
use std::time::{Duration, Instant};

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

// ---------------------------------------------------------------- E1 --

/// E1 — the Figure 1 gap: what each analysis says about the two Posts.
#[derive(Clone, Debug)]
pub struct Figure1Report {
    /// EGP task graph: left Post guaranteed before right Post?
    pub egp_orders_posts: bool,
    /// EGP task graph: fork guaranteed before the Wait (the figure's
    /// "solid line")?
    pub egp_fork_before_wait: bool,
    /// Vector clocks: posts ordered?
    pub vc_orders_posts: bool,
    /// HMW safe orderings: posts ordered? (HMW is semaphore-only, so this
    /// is necessarily false — recorded for the table.)
    pub hmw_orders_posts: bool,
    /// Exact engine, dependences preserved: left MHB right?
    pub exact_mhb_posts: bool,
    /// Exact engine, dependences ignored (§5.3): left MHB right?
    pub exact_mhb_posts_ignoring_d: bool,
    /// Callahan–Subhlok-style static analysis on the Figure 1 *program*:
    /// post_left guaranteed before the then-branch post?
    pub cs_orders_posts: bool,
}

/// Runs E1 on the paper's Figure 1 execution.
pub fn e1_figure1() -> Figure1Report {
    let (trace, ids) = fixtures::figure1();
    let exec = trace.to_execution().expect("fixture is valid");
    let tg = eo_approx::TaskGraph::build(&exec);
    let vc = eo_approx::VectorClockHb::compute(&exec);
    let hmw = eo_approx::SafeOrderings::compute(&exec);
    let exact = ExactEngine::new(&exec);
    let relaxed = ExactEngine::with_mode(&exec, FeasibilityMode::IgnoreDependences);
    // Static analysis runs on the *program* (with the live conditional).
    let program = eo_lang::generator::figure1_program();
    let cs = eo_approx::StaticOrderings::analyze(&program);
    let cs_orders_posts = match (cs.stmt_labeled("post_left"), cs.stmt_labeled("if_x")) {
        // The right-most Post is the then-branch statement right after the
        // test; guaranteed-before the *test* is the closest static proxy
        // (the branch post itself is the following statement id).
        (Some(left), Some(test)) => cs.guaranteed_before(left, test),
        _ => false,
    };
    Figure1Report {
        egp_orders_posts: tg.guaranteed_before(ids.post_left, ids.post_right),
        egp_fork_before_wait: tg.guaranteed_before(ids.fork, ids.wait),
        vc_orders_posts: vc.happened_before(ids.post_left, ids.post_right),
        hmw_orders_posts: hmw.guaranteed_before(ids.post_left, ids.post_right),
        exact_mhb_posts: exact.mhb(ids.post_left, ids.post_right),
        exact_mhb_posts_ignoring_d: relaxed.mhb(ids.post_left, ids.post_right),
        cs_orders_posts,
    }
}

// ---------------------------------------------------------------- E2 --

/// E2 — Table 1 materialized: pair counts of each relation on a fixture.
#[derive(Clone, Debug)]
pub struct Table1Row {
    /// Fixture name.
    pub fixture: &'static str,
    /// |E|.
    pub events: usize,
    /// |F(P)| (distinct induced orders).
    pub classes: usize,
    /// Ordered-pair counts of each relation.
    pub mhb: usize,
    /// could-have-happened-before count.
    pub chb: usize,
    /// must-be-concurrent count (unordered pairs, both directions).
    pub mcw: usize,
    /// could-be-concurrent count (operational).
    pub ccw: usize,
    /// must-be-ordered count.
    pub mow: usize,
    /// could-be-ordered count.
    pub cow: usize,
}

/// Runs E2 over the fixture gallery.
pub fn e2_table1() -> Vec<Table1Row> {
    let gallery: Vec<(&'static str, eo_model::Trace)> = vec![
        ("independent_pair", fixtures::independent_pair().0),
        ("sem_handshake", fixtures::sem_handshake().0),
        ("fork_join_diamond", fixtures::fork_join_diamond().0),
        ("crossing", fixtures::crossing().0),
        ("figure1", fixtures::figure1().0),
        ("post_wait_clear", fixtures::post_wait_clear_chain().0),
    ];
    gallery
        .into_iter()
        .map(|(name, trace)| {
            let exec = trace.to_execution().expect("fixture is valid");
            let summary = ExactEngine::new(&exec).summary();
            let n = exec.n_events();
            let mut row = Table1Row {
                fixture: name,
                events: n,
                classes: summary.class_count(),
                mhb: 0,
                chb: 0,
                mcw: 0,
                ccw: 0,
                mow: 0,
                cow: 0,
            };
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    row.mhb += summary.mhb(ea, eb) as usize;
                    row.chb += summary.chb(ea, eb) as usize;
                    row.mcw += summary.mcw(ea, eb) as usize;
                    row.ccw += summary.ccw(ea, eb) as usize;
                    row.mow += summary.mow(ea, eb) as usize;
                    row.cow += summary.cow(ea, eb) as usize;
                }
            }
            row
        })
        .collect()
}

// ------------------------------------------------------------ E3/E4/E5 --

/// One reduction measurement: a formula, both ordering answers, timings.
#[derive(Clone, Debug)]
pub struct TheoremRow {
    /// Variables in the formula.
    pub n_vars: usize,
    /// Clauses in the formula.
    pub n_clauses: usize,
    /// Formula seed.
    pub seed: u64,
    /// Events in the constructed execution.
    pub events: usize,
    /// DPLL verdict.
    pub sat: bool,
    /// Engine verdict on `a MHB b`.
    pub mhb_ab: bool,
    /// Engine verdict on `b CHB a`.
    pub chb_ba: bool,
    /// Did the theorem's biconditionals hold?
    pub consistent: bool,
    /// Time for the MHB decision (the co-NP-hard direction).
    pub mhb_time: Duration,
    /// Time for the CHB decision (the NP-hard direction).
    pub chb_time: Duration,
    /// DPLL time on the same formula.
    pub dpll_time: Duration,
}

/// Which reduction family a theorem sweep uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReductionKind {
    /// Theorems 1–2 (counting semaphores).
    Semaphore,
    /// Theorems 3–4 (Post/Wait/Clear).
    EventStyle,
}

/// Runs one reduction instance end to end with timings.
#[allow(clippy::nonminimal_bool)] // `mhb == !sat` mirrors the theorem statement
pub fn run_theorem_instance(kind: ReductionKind, f: &Formula, seed: u64) -> TheoremRow {
    let (sat, dpll_time) = timed(|| Solver::satisfiable(f));
    let (events, mhb_ab, mhb_time, chb_ba, chb_time) = match kind {
        ReductionKind::Semaphore => {
            let red = semaphore::SemaphoreReduction::build(f);
            let (mhb, t1) = timed(|| red.decide_mhb());
            let (chb, t2) = timed(|| red.witness_b_before_a().is_some());
            (red.exec.n_events(), mhb, t1, chb, t2)
        }
        ReductionKind::EventStyle => {
            let red = event_style::EventReduction::build(f);
            let (mhb, t1) = timed(|| red.decide_mhb());
            let (chb, t2) = timed(|| red.witness_b_before_a().is_some());
            (red.exec.n_events(), mhb, t1, chb, t2)
        }
    };
    TheoremRow {
        n_vars: f.n_vars,
        n_clauses: f.clauses.len(),
        seed,
        events,
        sat,
        mhb_ab,
        chb_ba,
        consistent: mhb_ab == !sat && chb_ba == sat,
        mhb_time,
        chb_time,
        dpll_time,
    }
}

/// E3/E4 (semaphores) or E5 (event style): sweep random 3CNF formulas.
pub fn theorem_sweep(kind: ReductionKind, sizes: &[(usize, usize)], seeds: u64) -> Vec<TheoremRow> {
    let mut out = Vec::new();
    for &(n, m) in sizes {
        for seed in 0..seeds {
            let f = Formula::random_3cnf(n, m, seed);
            out.push(run_theorem_instance(kind, &f, seed));
        }
    }
    // One guaranteed-unsatisfiable instance per kind, to exercise the
    // co-NP direction even when every random formula is satisfiable.
    out.push(run_theorem_instance(kind, &Formula::unsat_tiny(), u64::MAX));
    out
}

// ---------------------------------------------------------------- E6 --

/// E6 — exact vs. polynomial analysis cost on the same trace.
#[derive(Clone, Debug)]
pub struct ScalingRow {
    /// Root processes in the workload.
    pub processes: usize,
    /// Events in the trace.
    pub events: usize,
    /// Cut-lattice states the exact pass visited.
    pub states: usize,
    /// Distinct feasible executions (classes), when enumerated within
    /// budget.
    pub classes: Option<usize>,
    /// Cut-lattice pass time (MHB/CHB/CCW for all pairs).
    pub space_time: Duration,
    /// Class-enumeration time (`None` if the budget truncated it).
    pub classes_time: Option<Duration>,
    /// HMW safe-orderings time.
    pub hmw_time: Duration,
    /// Vector-clock time.
    pub vc_time: Duration,
}

/// Runs E6 at one size (semaphore workloads; `processes` roots with
/// `events_per_process` statements each).
pub fn e6_point(processes: usize, events_per_process: usize, seed: u64) -> ScalingRow {
    let mut spec = WorkloadSpec::small_semaphore(seed);
    spec.processes = processes;
    spec.events_per_process = events_per_process;
    spec.semaphores = (processes / 2).max(1);
    let trace = generate_trace(&spec, 100);
    let exec = trace.to_execution().expect("generated traces are valid");

    let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
    let (space, space_time) = timed(|| explore_statespace(&ctx, 1 << 24).expect("state budget"));
    let (classes, classes_time) = timed(|| enumerate_classes(&ctx, 200_000));
    let (_hmw, hmw_time) = timed(|| eo_approx::SafeOrderings::compute(&exec));
    let (_vc, vc_time) = timed(|| eo_approx::VectorClockHb::compute(&exec));

    ScalingRow {
        processes,
        events: exec.n_events(),
        states: space.states,
        classes: (!classes.truncated).then_some(classes.orders.len()),
        space_time,
        classes_time: (!classes.truncated).then_some(classes_time),
        hmw_time,
        vc_time,
    }
}

// ---------------------------------------------------------------- E7 --

/// E7 — precision of the polynomial baselines against exact MHB.
#[derive(Clone, Debug, Default)]
pub struct QualityRow {
    /// Workload style.
    pub style: &'static str,
    /// Seeds aggregated.
    pub traces: usize,
    /// Exact MHB pairs (dependence-ignoring feasibility, the baselines'
    /// own ground truth), summed over traces.
    pub exact_mhb_pairs: usize,
    /// Of those, pairs the baseline also reports (completeness).
    pub baseline_found: usize,
    /// Pairs the baseline claims that exact MHB refutes (soundness
    /// violations — expected 0 for EGP/HMW, positive for phase-1/VC).
    pub baseline_unsound: usize,
    /// Which baseline this row measures.
    pub baseline: &'static str,
}

/// Runs E7 for one workload family over several seeds.
pub fn e7_quality(style: SyncStyle, seeds: u64) -> Vec<QualityRow> {
    let style_name = match style {
        SyncStyle::Semaphores => "semaphores",
        SyncStyle::Events => "events",
        SyncStyle::Monitors => "monitors",
        SyncStyle::Channels => "channels",
        SyncStyle::Barriers => "barriers",
    };
    let mut rows: Vec<QualityRow> = ["egp", "hmw", "phase1", "vc"]
        .into_iter()
        .map(|b| QualityRow {
            style: style_name,
            baseline: b,
            ..Default::default()
        })
        .collect();

    for seed in 0..seeds {
        let spec = match style {
            SyncStyle::Semaphores => WorkloadSpec::small_semaphore(seed),
            SyncStyle::Events => {
                let mut s = WorkloadSpec::small_events(seed);
                // Keep clears out of the E7 workloads: deadlockable traces
                // are fine for the engine but EGP candidate sets get
                // degenerate, muddying the precision signal.
                s.clears = false;
                s
            }
            SyncStyle::Monitors => WorkloadSpec::small_monitors(seed),
            SyncStyle::Channels => WorkloadSpec::small_channels(seed),
            SyncStyle::Barriers => WorkloadSpec::small_barriers(seed),
        };
        let trace = generate_trace(&spec, 100);
        let exec = trace.to_execution().expect("generated traces are valid");
        let exact = ExactEngine::with_mode(&exec, FeasibilityMode::IgnoreDependences);
        let exact_mhb = exact.summary().mhb_relation();

        let baselines: Vec<(usize, eo_relations::Relation)> = vec![
            (0, eo_approx::TaskGraph::build(&exec).relation().clone()),
            (
                1,
                eo_approx::SafeOrderings::compute(&exec).relation().clone(),
            ),
            (2, eo_approx::hmw::unsafe_phase1(&exec)),
            (
                3,
                eo_approx::VectorClockHb::compute(&exec).relation().clone(),
            ),
        ];
        for (bi, rel) in baselines {
            rows[bi].traces += 1;
            rows[bi].exact_mhb_pairs += exact_mhb.pair_count();
            for (a, b) in exact_mhb.pairs() {
                if rel.contains(a, b) {
                    rows[bi].baseline_found += 1;
                }
            }
            for (a, b) in rel.pairs() {
                if !exact_mhb.contains(a, b) {
                    rows[bi].baseline_unsound += 1;
                }
            }
        }
    }
    rows
}

// ---------------------------------------------------------------- E8 --

/// E8 — the single-semaphore reduction: feasibility vs. ordering answers.
#[derive(Clone, Debug)]
pub struct SingleSemRow {
    /// Jobs in the instance.
    pub jobs: usize,
    /// Instance seed.
    pub seed: u64,
    /// Subset-DP feasibility.
    pub feasible: bool,
    /// Did the ordering answers match (`b CHB a ⇔ feasible`,
    /// `a MHB b ⇔ infeasible`)?
    pub consistent: bool,
    /// Ordering-engine time (both queries).
    pub engine_time: Duration,
    /// Subset-DP time.
    pub dp_time: Duration,
}

/// Runs E8 on one random instance.
pub fn e8_point(jobs: usize, seed: u64) -> SingleSemRow {
    let inst = SequencingInstance::random(jobs, 2, 0.3, 2, seed);
    let (feasible, dp_time) = timed(|| inst.feasible());
    let (check, engine_time) = timed(|| single_semaphore::verify(&inst));
    SingleSemRow {
        jobs,
        seed,
        feasible,
        consistent: check.consistent() && check.sat == feasible,
        engine_time,
        dp_time,
    }
}

// ---------------------------------------------------------------- E9 --

/// E9 — exact vs. vector-clock race detection.
#[derive(Clone, Debug)]
pub struct RaceRow {
    /// Workload seed.
    pub seed: u64,
    /// Events in the trace.
    pub events: usize,
    /// Conflicting candidate pairs.
    pub candidates: usize,
    /// Feasible races (exact).
    pub exact_races: usize,
    /// Clock-reported races.
    pub vc_races: usize,
    /// Feasible races the clocks missed.
    pub missed_by_vc: usize,
    /// Clock reports the exact detector refuted.
    pub spurious_in_vc: usize,
    /// Exact-detector time.
    pub exact_time: Duration,
    /// Clock-detector time.
    pub vc_time: Duration,
}

/// The "pairing pitfall" execution family for E9: a writer whose `V`
/// observably paired with the reader's guarding `P`, plus `decoys` other
/// processes each contributing another `V` that *could* have served the
/// `P` instead. The write/read race is feasible for any `decoys ≥ 1`, yet
/// vector clocks (which trust the observed pairing) never report it.
pub fn pitfall_exec(decoys: usize) -> ProgramExecution {
    let program = pitfall_program(decoys);
    let trace = eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::deterministic())
        .expect("pitfall program cannot deadlock");
    trace.to_execution().expect("interpreter traces are valid")
}

/// Runs E9 on one pitfall instance, labeled by decoy count.
pub fn e9_pitfall(decoys: usize) -> RaceRow {
    let exec = pitfall_exec(decoys);
    let (exact, exact_time) = timed(|| eo_race::exact_races(&exec));
    let (vc, vc_time) = timed(|| eo_race::vc_races(&exec));
    let cmp = eo_race::compare(&exec);
    RaceRow {
        seed: decoys as u64,
        events: exec.n_events(),
        candidates: cmp.candidates,
        exact_races: exact.len(),
        vc_races: vc.len(),
        missed_by_vc: cmp.missed_by_vc.len(),
        spurious_in_vc: cmp.spurious_in_vc.len(),
        exact_time,
        vc_time,
    }
}

/// Runs E9 on one random semaphore workload.
pub fn e9_point(seed: u64) -> RaceRow {
    let mut spec = WorkloadSpec::small_semaphore(seed);
    spec.variables = 3;
    spec.write_fraction = 0.5;
    let trace = generate_trace(&spec, 100);
    let exec = trace.to_execution().expect("generated traces are valid");
    let (exact, exact_time) = timed(|| eo_race::exact_races(&exec));
    let (vc, vc_time) = timed(|| eo_race::vc_races(&exec));
    let cmp = eo_race::compare(&exec);
    RaceRow {
        seed,
        events: exec.n_events(),
        candidates: cmp.candidates,
        exact_races: exact.len(),
        vc_races: vc.len(),
        missed_by_vc: cmp.missed_by_vc.len(),
        spurious_in_vc: cmp.spurious_in_vc.len(),
        exact_time,
        vc_time,
    }
}

// ---------------------------------------------------------------- E10 --

/// E10 — the paper's open problem, probed empirically: the hardness
/// proofs for event-style synchronization lean on `Clear` (the
/// mutual-exclusion gadget of Theorem 3), and the paper leaves the
/// Clear-free case open. This experiment measures how the *structure* of
/// the analysis changes when Clear disappears: EGP's candidate reasoning
/// becomes exact on our workload family, and |F(P)| collapses.
#[derive(Clone, Debug)]
pub struct NoClearRow {
    /// Whether the workload family may emit `Clear`.
    pub clears: bool,
    /// Traces aggregated.
    pub traces: usize,
    /// Exact MHB pairs (dependence-ignoring), summed.
    pub exact_mhb_pairs: usize,
    /// Of those, found by the EGP task graph.
    pub egp_found: usize,
    /// Total |F(P)| summed over traces (how much the could-relations
    /// branch).
    pub total_classes: usize,
    /// Traces on which the machine could deadlock under some schedule.
    pub deadlockable: usize,
}

/// Runs E10 for one family (with or without Clear) over several seeds.
pub fn e10_no_clear(clears: bool, seeds: u64) -> NoClearRow {
    let mut row = NoClearRow {
        clears,
        traces: 0,
        exact_mhb_pairs: 0,
        egp_found: 0,
        total_classes: 0,
        deadlockable: 0,
    };
    for seed in 0..seeds {
        let mut spec = WorkloadSpec::small_events(seed);
        spec.clears = clears;
        let trace = generate_trace(&spec, 100);
        let exec = trace.to_execution().expect("generated traces are valid");
        let engine = ExactEngine::with_mode(&exec, FeasibilityMode::IgnoreDependences);
        let summary = engine.summary();
        let exact = summary.mhb_relation();
        let egp = eo_approx::TaskGraph::build(&exec);

        row.traces += 1;
        row.exact_mhb_pairs += exact.pair_count();
        row.egp_found += exact
            .pairs()
            .filter(|&(a, b)| egp.relation().contains(a, b))
            .count();
        row.total_classes += summary.class_count();
        let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
        let space = explore_statespace(&ctx, 1 << 22).expect("budget");
        row.deadlockable += space.deadlock_reachable as usize;
    }
    row
}

/// E10's adversarial counterpart: the Theorem 3 reduction execution for
/// the canonical unsatisfiable formula. The exact engine proves
/// `a MHB b`; the polynomial analyses cannot (if one could, it would
/// decide 3CNF-unsatisfiability in polynomial time).
#[derive(Clone, Copy, Debug)]
pub struct AdversarialRow {
    /// Exact engine's verdict on `a MHB b` (true — the formula is unsat).
    pub exact_mhb: bool,
    /// EGP task graph's verdict.
    pub egp_mhb: bool,
    /// Vector clocks' verdict.
    pub vc_mhb: bool,
}

/// Runs the adversarial E10 row.
pub fn e10_adversarial() -> AdversarialRow {
    let red = event_style::EventReduction::build(&Formula::unsat_tiny());
    let egp = eo_approx::TaskGraph::build(&red.exec);
    let vc = eo_approx::VectorClockHb::compute(&red.exec);
    AdversarialRow {
        exact_mhb: red.decide_mhb(),
        egp_mhb: egp.guaranteed_before(red.a, red.b),
        vc_mhb: vc.happened_before(red.a, red.b),
    }
}

// ---------------------------------------------------------------- E11 --

/// E11 — exact race detection with vs. without the static
/// (Callahan–Subhlok `prec`-based) candidate-pruning pre-pass. Both sides
/// return the identical race set (asserted); the row records how many
/// could-be-concurrent engine queries the linear static pass discharged.
#[derive(Clone, Debug)]
pub struct PruneRaceRow {
    /// Workload label.
    pub label: String,
    /// Events in the trace.
    pub events: usize,
    /// Conflicting candidate pairs.
    pub candidates: usize,
    /// Candidates discharged statically (no engine query).
    pub pruned: usize,
    /// Engine queries actually issued.
    pub engine_queries: usize,
    /// Feasible races (identical for both detectors, asserted).
    pub races: usize,
    /// Unpruned exact-detector time.
    pub unpruned_time: Duration,
    /// Pruned-detector time (includes the static analysis itself).
    pub pruned_time: Duration,
}

/// The E11 workload set: Figure 1 plus the first E9-style semaphore
/// workloads that complete under some schedule and expose conflicting
/// pairs (random sync placement can produce programs that deadlock under
/// every schedule — those are skipped, not hidden).
pub fn e11_workloads() -> Vec<(String, eo_lang::Program)> {
    let mut out = vec![("figure1".to_string(), eo_lang::generator::figure1_program())];
    for seed in 0..20u64 {
        if out.len() >= 3 {
            break;
        }
        let mut spec = WorkloadSpec::small_semaphore(seed);
        spec.variables = 3;
        spec.write_fraction = 0.5;
        spec.processes = 4;
        spec.events_per_process = 6;
        let program = eo_lang::generator::random_program(&spec);
        let usable = e11_anchored(&program).is_some_and(|run| {
            let exec = run
                .trace
                .to_execution()
                .expect("interpreter traces are valid");
            exec.dependence_pairs().len() >= 2
        });
        if usable {
            out.push((format!("sem_{seed}"), program));
        }
    }
    out
}

fn e11_anchored(program: &eo_lang::Program) -> Option<eo_lang::AnchoredRun> {
    (0..50).find_map(|seed| {
        eo_lang::run_to_trace_anchored(program, &mut eo_lang::Scheduler::random(seed)).ok()
    })
}

/// Runs E11 on one program: anchor a run, then race-detect with and
/// without the static pre-pass.
pub fn e11_point(label: &str, program: &eo_lang::Program) -> PruneRaceRow {
    let run = e11_anchored(program).expect("E11 workloads are pre-screened to complete");
    let exec = run
        .trace
        .to_execution()
        .expect("interpreter traces are valid");
    let (unpruned, unpruned_time) = timed(|| eo_race::exact_races(&exec));
    let (pruned, pruned_time) = timed(|| {
        let so = eo_approx::cs::StaticOrderings::analyze(program);
        eo_race::pruned_exact_races(&exec, &so, &run.stmt_of)
    });
    assert_eq!(
        pruned.races, unpruned,
        "{label}: pruning must not change the answer"
    );
    PruneRaceRow {
        label: label.to_string(),
        events: exec.n_events(),
        candidates: pruned.candidates,
        pruned: pruned.pruned,
        engine_queries: pruned.engine_queries,
        races: pruned.races.len(),
        unpruned_time,
        pruned_time,
    }
}

// ------------------------------------------------------------ ablations --

/// Ablation: sleep-set pruning vs. naive enumeration on one execution.
#[derive(Clone, Debug)]
pub struct PruningRow {
    /// Fixture/workload label.
    pub label: String,
    /// Schedules visited with sleep sets.
    pub pruned_schedules: usize,
    /// Schedules visited naively.
    pub naive_schedules: usize,
    /// |F(P)| (identical for both, asserted).
    pub classes: usize,
    /// Pruned time.
    pub pruned_time: Duration,
    /// Naive time.
    pub naive_time: Duration,
}

/// Runs the pruning ablation on one execution.
pub fn ablation_pruning(label: &str, exec: &ProgramExecution) -> PruningRow {
    let ctx = SearchCtx::new(exec, FeasibilityMode::PreserveDependences);
    let (pruned, pruned_time) = timed(|| enumerate_classes(&ctx, 1 << 22));
    let (naive, naive_time) = timed(|| eo_engine::enumerate::enumerate_naive(&ctx, 1 << 22));
    assert_eq!(
        pruned.orders.len(),
        naive.orders.len(),
        "pruning must not change F(P)"
    );
    PruningRow {
        label: label.to_string(),
        pruned_schedules: pruned.schedules_explored,
        naive_schedules: naive.schedules_explored,
        classes: pruned.orders.len(),
        pruned_time,
        naive_time,
    }
}

// ---------------------------------------------------------------- E12 --

/// E12 — the engine hot-path overhaul, measured: the interned explorer
/// (state arena + threaded executed rows + successor-table walks) against
/// the preserved pre-overhaul baseline
/// ([`eo_engine::explore_statespace_baseline`]) on fixed E6/E9 workloads.
/// Results are asserted bit-identical per row; the numbers are pure
/// layout/throughput deltas.
#[derive(Clone, Debug)]
pub struct EngineBenchRow {
    /// Workload label.
    pub label: String,
    /// Events in the trace.
    pub events: usize,
    /// States in the cut lattice (identical for both, asserted).
    pub states: usize,
    /// Pre-overhaul explorer time (best of N).
    pub baseline_time: Duration,
    /// Interned explorer time (best of N).
    pub interned_time: Duration,
    /// Pre-overhaul peak state-storage estimate (bytes).
    pub baseline_bytes: usize,
    /// Interned peak state-storage estimate (bytes).
    pub interned_bytes: usize,
}

impl EngineBenchRow {
    /// Wall-clock speed-up of the interned explorer over the baseline.
    pub fn speedup(&self) -> f64 {
        self.baseline_time.as_secs_f64() / self.interned_time.as_secs_f64()
    }

    /// Trace events fully analyzed per second (events / wall time).
    pub fn events_per_sec(&self, d: Duration) -> f64 {
        self.events as f64 / d.as_secs_f64()
    }

    /// Lattice states processed per second (states / wall time).
    pub fn states_per_sec(&self, d: Duration) -> f64 {
        self.states as f64 / d.as_secs_f64()
    }
}

/// Best-of-`n` timing: runs `f` once to warm caches, then keeps the
/// fastest of `n` timed runs (the low-noise estimator a 1-core CI
/// container needs).
fn timed_best<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let mut out = f();
    let mut best = Duration::MAX;
    for _ in 0..n {
        let (o, d) = timed(&mut f);
        if d < best {
            best = d;
            out = o;
        }
    }
    (out, best)
}

/// Runs E12 on one execution under `mode`.
pub fn e12_engine_point(
    label: &str,
    exec: &ProgramExecution,
    mode: FeasibilityMode,
) -> EngineBenchRow {
    let ctx = SearchCtx::new(exec, mode);
    let (base, baseline_time) = timed_best(5, || {
        eo_engine::explore_statespace_baseline(&ctx, 1 << 24).expect("budget")
    });
    let (new, interned_time) = timed_best(5, || explore_statespace(&ctx, 1 << 24).expect("budget"));
    assert_eq!(base.chb, new.chb, "{label}: explorers must agree (chb)");
    assert_eq!(base.overlap, new.overlap, "{label}: overlap");
    assert_eq!(base.states, new.states, "{label}: states");
    EngineBenchRow {
        label: label.to_string(),
        events: exec.n_events(),
        states: new.states,
        baseline_time,
        interned_time,
        baseline_bytes: base.approx_heap_bytes,
        interned_bytes: new.approx_heap_bytes,
    }
}

/// The fixed E12 workload set: E6-style scaling semaphore workloads
/// (dependence-preserving, the mode the scaling experiments explore) and
/// E9-style race inputs (dependence-ignoring, the mode race detection
/// queries), including the pairing-pitfall ladder.
pub fn e12_workloads() -> Vec<(String, ProgramExecution, FeasibilityMode)> {
    let mut out = Vec::new();
    for (procs, epp) in [(5usize, 4usize), (7, 4), (8, 5)] {
        let mut spec = WorkloadSpec::small_semaphore(7);
        spec.processes = procs;
        spec.events_per_process = epp;
        spec.semaphores = (procs / 2).max(1);
        let exec = generate_trace(&spec, 100)
            .to_execution()
            .expect("generated traces are valid");
        out.push((
            format!("e6-{procs}x{epp}"),
            exec,
            FeasibilityMode::PreserveDependences,
        ));
    }
    for decoys in [6usize, 9] {
        out.push((
            format!("e9-pitfall-{decoys}"),
            pitfall_exec(decoys),
            FeasibilityMode::IgnoreDependences,
        ));
    }
    {
        let mut spec = WorkloadSpec::small_semaphore(3);
        spec.variables = 3;
        spec.write_fraction = 0.5;
        spec.processes = 6;
        spec.events_per_process = 4;
        let exec = generate_trace(&spec, 100)
            .to_execution()
            .expect("generated traces are valid");
        out.push((
            "e9-random-6x4".to_string(),
            exec,
            FeasibilityMode::IgnoreDependences,
        ));
    }
    out
}

// ---------------------------------------------------------------- E17 --

/// One (workload × strategy) measurement in the E17 equivalence ablation.
#[derive(Clone, Debug)]
pub struct EquivRow {
    /// Workload label (shared across the strategy rows).
    pub workload: String,
    /// The trace equivalence the enumeration quotiented by.
    pub strategy: EquivStrategy,
    /// Events in the trace.
    pub events: usize,
    /// Distinct induced orders found (= |F(P)| when not truncated).
    pub orders: usize,
    /// Representative schedules the search actually completed.
    pub schedules: usize,
    /// Whether the search hit the schedule cap before finishing.
    pub truncated: bool,
    /// Best-of-3 wall time.
    pub time: Duration,
}

impl EquivRow {
    /// Explored schedules per distinct order — 1.0 is perfect pruning.
    pub fn redundancy(&self) -> f64 {
        if self.orders == 0 {
            0.0
        } else {
            self.schedules as f64 / self.orders as f64
        }
    }
}

/// The E17 ceiling workload: the pairing pitfall widened into `lanes + 1`
/// producer processes of `vs_per_lane` V operations each, plus one
/// consumer P. All V's target one semaphore, so they are pairwise
/// statically dependent and the Mazurkiewicz class count is the full
/// multinomial interleaving of the producer chains — while only the
/// identity of the globally first V (one per producer, by program order)
/// can change the induced order. At `(3, 20)` this is 83 events: more
/// than twice `e6-8x5`, guaranteed to truncate the sleep-set baseline at
/// the default schedule cap, and exactly enumerable by the canonical
/// strategies in seconds.
pub fn wide_pitfall_exec(lanes: usize, vs_per_lane: usize) -> ProgramExecution {
    let mut b = eo_lang::ProgramBuilder::new();
    let s = b.semaphore("s");
    let x = b.variable("x");
    let w = b.process("writer");
    b.compute_rw(w, &[], &[x], "write_x");
    for _ in 0..vs_per_lane {
        b.sem_v(w, s);
    }
    for k in 0..lanes {
        let d = b.process(&format!("lane_{k}"));
        for _ in 0..vs_per_lane {
            b.sem_v(d, s);
        }
    }
    let r = b.process("reader");
    b.sem_p(r, s);
    b.compute_rw(r, &[x], &[], "read_x");
    let program = b.build();
    let trace = eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::deterministic())
        .expect("wide pitfall cannot deadlock");
    trace.to_execution().expect("interpreter traces are valid")
}

/// The fixture gallery the enumeration differential suite runs on.
fn e17_gallery() -> Vec<(String, ProgramExecution)> {
    let traces: Vec<(&str, eo_model::Trace)> = vec![
        ("independent_pair", fixtures::independent_pair().0),
        ("sem_handshake", fixtures::sem_handshake().0),
        ("fork_join_diamond", fixtures::fork_join_diamond().0),
        ("figure1", fixtures::figure1().0),
        ("post_wait_clear_chain", fixtures::post_wait_clear_chain().0),
        ("shared_counter_race", fixtures::shared_counter_race().0),
        ("crossing", fixtures::crossing().0),
    ];
    traces
        .into_iter()
        .map(|(name, t)| {
            (
                name.to_string(),
                t.to_execution().expect("fixtures are valid"),
            )
        })
        .collect()
}

/// The E17 workload set, in row order: every gallery fixture, every E12
/// workload, and the 83-event ceiling workload.
pub fn e17_workloads() -> Vec<(String, ProgramExecution, FeasibilityMode)> {
    let mut inputs: Vec<_> = e17_gallery()
        .into_iter()
        .map(|(l, e)| (l, e, FeasibilityMode::PreserveDependences))
        .collect();
    inputs.extend(e12_workloads());
    inputs.push((
        "wide-pitfall-3x20".to_string(),
        wide_pitfall_exec(3, 20),
        FeasibilityMode::PreserveDependences,
    ));
    inputs
}

/// Measures one workload under one strategy. Sub-second searches are
/// timed best-of-3; slower ones run once (their counts are deterministic
/// and their wall times are long enough to be stable). Returns the row
/// plus the sorted fingerprints of the orders found, for cross-strategy
/// differential comparison.
pub fn e17_point(
    label: &str,
    exec: &ProgramExecution,
    mode: FeasibilityMode,
    strategy: EquivStrategy,
    max_schedules: usize,
) -> (EquivRow, Vec<u128>) {
    let ctx = SearchCtx::new(exec, mode);
    let (mut r, mut time) = timed(|| enumerate_classes_with(&ctx, max_schedules, strategy));
    if time < Duration::from_secs(1) {
        for _ in 0..2 {
            let (r2, t2) = timed(|| enumerate_classes_with(&ctx, max_schedules, strategy));
            if t2 < time {
                (r, time) = (r2, t2);
            }
        }
    }
    let mut fps: Vec<u128> = r.orders.iter().map(|o| o.fingerprint128()).collect();
    fps.sort_unstable();
    let row = EquivRow {
        workload: label.to_string(),
        strategy,
        events: exec.n_events(),
        orders: r.orders.len(),
        schedules: r.schedules_explored,
        truncated: r.truncated,
        time,
    };
    (row, fps)
}

/// The full E17 ablation: every gallery fixture, every E12 workload, and
/// the 83-event ceiling workload, each under both strategies at the
/// default schedule cap. Asserts the coarsening soundness and pruning
/// bars inline, so a bench run doubles as an acceptance check:
///
/// * strategies that finish agree on the exact order set (bit-identical
///   class answers, hence bit-identical summaries);
/// * the canonical strategy reaches perfect pruning
///   (`schedules == orders`) on every workload it finishes;
/// * normal-form explores strictly fewer schedules than Mazurkiewicz on
///   the E9 semaphore family;
/// * the ceiling workload (≥ 2× the events of `e6-8x5`) truncates the
///   sleep-set baseline but is enumerated exactly by normal-form under
///   the same budget.
pub fn e17_rows() -> Vec<EquivRow> {
    let cap = 1 << 20;
    let mut rows = Vec::new();
    for (label, exec, mode) in &e17_workloads() {
        let mut orders_of_finishers: Option<(EquivStrategy, Vec<u128>)> = None;
        for strategy in EquivStrategy::ALL {
            let (row, fps) = e17_point(label, exec, *mode, strategy, cap);
            if !row.truncated {
                // Soundness bar: every strategy that finishes reports the
                // same F(P), compared as exact order fingerprints.
                match &orders_of_finishers {
                    None => orders_of_finishers = Some((strategy, fps)),
                    Some((first, expected)) => assert_eq!(
                        *expected, fps,
                        "{label}: {strategy} and {first} disagree on F(P)"
                    ),
                }
                if strategy.canonical() {
                    assert_eq!(
                        row.schedules, row.orders,
                        "{label}: {strategy} fell short of perfect pruning"
                    );
                }
            }
            rows.push(row);
        }
    }

    // E9 coarsening bar: normal-form merges Mazurkiewicz classes on the
    // semaphore pairing family.
    for family in ["e9-pitfall-6", "e9-random-6x4"] {
        let maz = rows
            .iter()
            .find(|r| r.workload == family && r.strategy == EquivStrategy::Mazurkiewicz)
            .expect("E9 rows present");
        let nf = rows
            .iter()
            .find(|r| r.workload == family && r.strategy == EquivStrategy::NormalForm)
            .expect("E9 rows present");
        assert!(
            nf.schedules < maz.schedules,
            "{family}: normal-form must merge Mazurkiewicz classes ({} vs {})",
            nf.schedules,
            maz.schedules
        );
    }

    // Ceiling bar: ≥ 2× the events of e6-8x5, baseline truncated, exact
    // canonical completion under the same schedule budget.
    let e6_events = rows
        .iter()
        .find(|r| r.workload == "e6-8x5")
        .expect("e6-8x5 present")
        .events;
    let maz = rows
        .iter()
        .find(|r| r.workload == "wide-pitfall-3x20" && r.strategy == EquivStrategy::Mazurkiewicz)
        .expect("ceiling row present");
    let nf = rows
        .iter()
        .find(|r| r.workload == "wide-pitfall-3x20" && r.strategy == EquivStrategy::NormalForm)
        .expect("ceiling row present");
    assert!(maz.events >= 2 * e6_events, "ceiling must be ≥ 2× e6-8x5");
    assert!(maz.truncated, "the baseline must hit the schedule cap");
    assert!(!nf.truncated, "normal-form must finish exactly");
    rows
}

// ---------------------------------------------------------------- E13 --

/// One budgeted re-run of a workload inside an E13 row.
#[derive(Clone, Debug)]
pub struct DegradedPoint {
    /// The wall-clock deadline handed to the supervisor.
    pub deadline: Duration,
    /// Whether the budgeted run still finished exactly.
    pub exact: bool,
    /// Fraction of the `3·n·(n−1)` pairwise relation instances decided
    /// (`Exact` or `Bounded`); `1.0` when the run finished exactly.
    pub decided_fraction: f64,
    /// Lattice states the budgeted run explored.
    pub states_explored: usize,
}

/// E13 — graceful degradation: the fraction of pairwise ordering facts a
/// deadline-stopped analysis still decides, at 10% and 50% of the
/// full-budget wall time. Every degraded answer is checked against the
/// unbudgeted oracle before being reported.
#[derive(Clone, Debug)]
pub struct DegradationRow {
    /// Workload label.
    pub label: String,
    /// Events in the trace.
    pub events: usize,
    /// Unbudgeted full-analysis wall time.
    pub full_time: Duration,
    /// States in the full cut lattice.
    pub full_states: usize,
    /// Re-run with a deadline at 10% of `full_time`.
    pub at_10pct: DegradedPoint,
    /// Re-run with a deadline at 50% of `full_time`.
    pub at_50pct: DegradedPoint,
}

/// Runs E13 on one execution under `mode`. Returns `None` when the
/// *unbudgeted* analysis itself does not fit the engine's default limits
/// (no oracle ⇒ nothing to measure degradation against).
pub fn e13_point(
    label: &str,
    exec: &ProgramExecution,
    mode: FeasibilityMode,
) -> Option<DegradationRow> {
    use eo_engine::{AnalysisOutcome, Budget};
    let (full, full_time) = timed(|| ExactEngine::with_mode(exec, mode).try_summary());
    let full = full.ok()?;
    let point = |deadline: Duration| {
        let engine = ExactEngine::with_mode(exec, mode)
            .with_budget(Budget::unlimited().with_deadline(deadline));
        match engine.analyze() {
            AnalysisOutcome::Exact(s) => DegradedPoint {
                deadline,
                exact: true,
                decided_fraction: 1.0,
                states_explored: s.state_count(),
            },
            AnalysisOutcome::Degraded(d) => {
                d.check_consistency_against(&full).unwrap_or_else(|msg| {
                    panic!("{label}: degraded run contradicts oracle: {msg}")
                });
                DegradedPoint {
                    deadline,
                    exact: false,
                    decided_fraction: d.decided_fraction(),
                    states_explored: d.states_explored(),
                }
            }
        }
    };
    Some(DegradationRow {
        label: label.to_string(),
        events: exec.n_events(),
        full_states: full.state_count(),
        at_10pct: point(full_time / 10),
        at_50pct: point(full_time / 2),
        full_time,
    })
}

/// Runs E13 over the fixed [`e12_workloads`] set; workloads whose full
/// enumeration exceeds the engine's default limits are skipped (they have
/// no exact oracle to degrade against).
pub fn e13_degradation() -> Vec<DegradationRow> {
    e12_workloads()
        .iter()
        .filter_map(|(label, exec, mode)| e13_point(label, exec, *mode))
        .collect()
}

// ---------------------------------------------------------------- E14 --

/// E14 — observability overhead ablation: the same interned exploration
/// timed with recording disarmed and armed. In a build without the `obs`
/// feature both legs are byte-for-byte the same code (every probe is an
/// empty `#[inline(always)]` call), so the row doubles as the "0% when
/// disabled" evidence; with the feature on, the armed leg pays one
/// relaxed atomic load per phase-granular probe and must stay within the
/// ≤2% budget DESIGN.md §9 commits to.
#[derive(Clone, Debug)]
pub struct ObsOverheadRow {
    /// Workload label.
    pub label: String,
    /// Events in the trace.
    pub events: usize,
    /// States in the cut lattice (asserted identical across legs).
    pub states: usize,
    /// Best-of-N wall time with recording disarmed.
    pub off_time: Duration,
    /// Best-of-N wall time with recording armed.
    pub on_time: Duration,
    /// Whether arming actually recorded (false in a build without the
    /// `obs` feature, where `eo_obs::start` is a no-op).
    pub recording_armed: bool,
}

impl ObsOverheadRow {
    /// Armed-over-disarmed overhead in percent (negative = noise).
    pub fn overhead_pct(&self) -> f64 {
        (self.on_time.as_secs_f64() / self.off_time.as_secs_f64() - 1.0) * 100.0
    }
}

/// Runs E14 over the fixed [`e12_workloads`] set. The armed leg's results
/// are asserted bit-identical to the disarmed leg's — instrumentation
/// must never change an answer.
pub fn e14_obs_overhead() -> Vec<ObsOverheadRow> {
    e12_workloads()
        .iter()
        .map(|(label, exec, mode)| {
            let ctx = SearchCtx::new(exec, *mode);
            let (off, off_time) =
                timed_best(7, || explore_statespace(&ctx, 1 << 24).expect("budget"));
            eo_obs::start();
            let recording_armed = eo_obs::recording();
            let (on, on_time) =
                timed_best(7, || explore_statespace(&ctx, 1 << 24).expect("budget"));
            let _ = eo_obs::finish();
            assert_eq!(off.chb, on.chb, "{label}: recording must not change CHB");
            assert_eq!(off.overlap, on.overlap, "{label}: overlap");
            assert_eq!(off.states, on.states, "{label}: states");
            ObsOverheadRow {
                label: label.clone(),
                events: exec.n_events(),
                states: off.states,
                off_time,
                on_time,
                recording_armed,
            }
        })
        .collect()
}

// ------------------------------------------------------------------ E15 --

/// E15 row: a batch of point queries served through one
/// [`eo_serve::AnalysisSession`] vs the same queries as cold one-shot
/// [`ExactEngine`] runs (fresh engine, fresh state space per query).
#[derive(Clone, Debug)]
pub struct ServeBenchRow {
    /// Workload label (shared with E12's fixed workloads).
    pub label: String,
    /// Events in the execution.
    pub events: usize,
    /// Queries in the batch.
    pub queries: usize,
    /// Wall time for the cold one-shot runs (best of 3).
    pub cold_time: Duration,
    /// Wall time for the whole batch through one session (best of 3).
    pub batch_time: Duration,
    /// Queries the session answered from cross-query caches.
    pub cache_hits: u64,
    /// Cache misses decided by the polynomial prefilter alone.
    pub prefilter_hits: u64,
}

impl ServeBenchRow {
    /// Cold time over batch time.
    pub fn speedup(&self) -> f64 {
        self.cold_time.as_secs_f64() / self.batch_time.as_secs_f64().max(1e-9)
    }
}

/// The E15 query mix: 100 point queries with the redundancy real clients
/// produce — straight repeats, CCW symmetry, MHB/CHB complement pairs,
/// and every fifth query a witness request.
pub fn e15_query_batch(exec: &ProgramExecution) -> Vec<eo_engine::Query> {
    use eo_engine::Query;
    let n = exec.n_events();
    assert!(n >= 2, "E15 workloads have at least two events");
    let mut out = Vec::with_capacity(100);
    let mut k = 0usize;
    while out.len() < 100 {
        let a = k % n;
        let b = (k * 7 + 3) % n;
        let b = if a == b { (b + 1) % n } else { b };
        let (ea, eb) = (EventId::new(a), EventId::new(b));
        match k % 5 {
            0 => out.push(Query::Mhb { a: ea, b: eb }),
            // The complement of the MHB query above — a fact-store hit.
            1 => out.push(Query::Chb { a: eb, b: ea }),
            2 => out.push(Query::Ccw { a: ea, b: eb }),
            // The symmetric repeat of the CCW query above.
            3 => out.push(Query::Ccw { a: eb, b: ea }),
            _ => out.push(Query::WitnessBefore {
                first: ea,
                second: eb,
            }),
        }
        k += 1;
    }
    out
}

/// Runs E15 on one execution: answers are asserted bit-identical between
/// the batched session and the cold one-shot runs before any timing is
/// reported.
pub fn e15_serve_point(
    label: &str,
    exec: &ProgramExecution,
    mode: FeasibilityMode,
) -> ServeBenchRow {
    use eo_engine::{Answer, EngineOptions};
    use eo_serve::{AnalysisSession, SessionConfig};
    let opts = EngineOptions::with_mode(mode);
    let batch = e15_query_batch(exec);
    let (cold, cold_time) = timed_best(3, || {
        batch
            .iter()
            .map(|&q| {
                ExactEngine::with_options(exec, opts.clone())
                    .query(q)
                    .expect("E15 workloads fit the default caps")
                    .answer
            })
            .collect::<Vec<_>>()
    });
    let ((batched, stats), batch_time) = timed_best(3, || {
        let mut session = AnalysisSession::with_config(
            exec,
            SessionConfig {
                engine: opts.clone(),
                ..Default::default()
            },
        );
        let answers: Vec<_> = session
            .query_batch(&batch)
            .into_iter()
            .map(|r| {
                r.expect("E15 workloads fit the default caps")
                    .response
                    .answer
            })
            .collect();
        (answers, session.stats())
    });
    for (i, (c, s)) in cold.iter().zip(&batched).enumerate() {
        let same = match (c, s) {
            (Answer::Decided(x), Answer::Decided(y)) => x == y,
            (Answer::Witness(x), Answer::Witness(y)) => x == y,
            _ => false,
        };
        assert!(
            same,
            "{label}: query #{i} ({:?}) differs between batched and cold runs",
            batch[i]
        );
    }
    ServeBenchRow {
        label: label.to_string(),
        events: exec.n_events(),
        queries: batch.len(),
        cold_time,
        batch_time,
        cache_hits: stats.cache_hits,
        prefilter_hits: stats.prefilter_hits,
    }
}

// ------------------------------------------------------------------ E16 --

/// E16 row: exact race detection behind the static may-happen-in-parallel
/// prefilter (`eo-mhp`) vs the Callahan–Subhlok tier alone vs no pruning.
/// All three return the identical race set (asserted), and every event
/// ordering the static analysis claims is checked against the exact
/// engine's §5.3 dependence-ignoring MHB oracle before the row is
/// reported.
#[derive(Clone, Debug)]
pub struct MhpRaceRow {
    /// Workload label.
    pub label: String,
    /// Events in the anchored trace.
    pub events: usize,
    /// Statements in the program.
    pub stmts: usize,
    /// Conflicting candidate pairs.
    pub candidates: usize,
    /// Candidates discharged by the Callahan–Subhlok tier alone.
    pub cs_pruned: usize,
    /// Candidates discharged statically with the MHP tier in front
    /// (always ≥ `cs_pruned`: the MHP verdict subsumes the CS rules).
    pub mhp_pruned: usize,
    /// Of `mhp_pruned`, candidates the MHP tier refuted with *zero*
    /// exploration — before any per-pair analysis ran.
    pub static_refuted: usize,
    /// Engine queries issued with the MHP tier in front.
    pub engine_queries: usize,
    /// Feasible races (identical for all three detectors, asserted).
    pub races: usize,
    /// Event pairs the static analysis proves ordered in all executions.
    pub static_ordered_pairs: usize,
    /// Exact MHB pairs under the dependence-ignoring oracle.
    pub exact_mhb_pairs: usize,
    /// Unpruned exact-detector time.
    pub unpruned_time: Duration,
    /// CS-pruned detector time (includes the CS analysis itself).
    pub cs_time: Duration,
    /// MHP-prefiltered detector time (includes the MHP fixpoint itself).
    pub mhp_time: Duration,
}

/// The E16 workload set: the E11 programs (Figure 1 plus the screened
/// E9-style semaphore workloads) and the E9 pairing-pitfall ladder as
/// *programs*, so the static analysis sees the source, not one trace.
pub fn e16_workloads() -> Vec<(String, eo_lang::Program)> {
    let mut out = e11_workloads();
    for decoys in [1usize, 2, 4] {
        out.push((format!("pitfall-{decoys}"), pitfall_program(decoys)));
    }
    out
}

/// The E9 pitfall family as a program (the E9 rows build the execution
/// directly; E16 needs the program for the static passes).
fn pitfall_program(decoys: usize) -> eo_lang::Program {
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
    b.build()
}

/// Runs E16 on one program: anchor a run, race-detect three ways, then
/// audit the static orderings against the exact oracle.
pub fn e16_point(label: &str, program: &eo_lang::Program) -> MhpRaceRow {
    let run = e11_anchored(program).expect("E16 workloads are pre-screened to complete");
    let exec = run
        .trace
        .to_execution()
        .expect("interpreter traces are valid");
    let (unpruned, unpruned_time) = timed(|| eo_race::exact_races(&exec));
    let (cs, cs_time) = timed(|| {
        let so = eo_approx::cs::StaticOrderings::analyze(program);
        eo_race::pruned_exact_races(&exec, &so, &run.stmt_of)
    });
    let ((mhp_run, analysis), mhp_time) = timed(|| {
        let so = eo_approx::cs::StaticOrderings::analyze(program);
        let mhp = eo_mhp::MhpAnalysis::analyze(program);
        let prefilter = eo_race::StaticPrefilter::new(&mhp, &run.stmt_of);
        let pruned =
            eo_race::pruned_exact_races_with_prefilter(&exec, &so, &run.stmt_of, Some(&prefilter));
        (pruned, mhp)
    });
    assert_eq!(
        cs.races, unpruned,
        "{label}: CS pruning must not change the answer"
    );
    assert_eq!(
        mhp_run.races, unpruned,
        "{label}: the static MHP tier must not change the answer"
    );
    assert!(
        mhp_run.pruned >= cs.pruned,
        "{label}: the MHP tier subsumes the CS rules"
    );
    // Soundness vs the oracle: every ordering the static analysis proves
    // must be an exact MHB fact under the weakest (§5.3
    // dependence-ignoring) feasibility mode.
    let ordered = analysis.event_orderings(&run.stmt_of);
    let summary = ExactEngine::with_mode(&exec, FeasibilityMode::IgnoreDependences).summary();
    let exact_mhb = summary.mhb_relation();
    let mut static_ordered_pairs = 0usize;
    for (a, b) in ordered.pairs() {
        assert!(
            exact_mhb.contains(a, b),
            "{label}: static ordering {a:?} -> {b:?} is not exact MHB"
        );
        static_ordered_pairs += 1;
    }
    MhpRaceRow {
        label: label.to_string(),
        events: exec.n_events(),
        stmts: analysis.n_stmts(),
        candidates: mhp_run.candidates,
        cs_pruned: cs.pruned,
        mhp_pruned: mhp_run.pruned,
        static_refuted: mhp_run.static_refuted,
        engine_queries: mhp_run.engine_queries,
        races: mhp_run.races.len(),
        static_ordered_pairs,
        exact_mhb_pairs: exact_mhb.pair_count(),
        unpruned_time,
        cs_time,
        mhp_time,
    }
}

// ------------------------------------------------- perf-regression gate --

/// Wall-time regressions above this fraction fail the gate. The gate
/// compares *speedup ratios* (baseline-explorer ms over interned ms, both
/// measured in the same process), not absolute times, so a slower CI
/// machine does not trip it — only a change that slows the interned hot
/// path relative to the preserved baseline explorer does.
pub const MAX_TIME_REGRESSION: f64 = 0.25;

/// Peak state-storage growth above this fraction fails the gate. Bytes
/// are deterministic per workload, so these compare absolutely.
pub const MAX_BYTES_REGRESSION: f64 = 0.15;

/// One workload's verdict from the perf-regression gate.
#[derive(Clone, Debug)]
pub struct RegressionCheck {
    /// Workload label.
    pub workload: String,
    /// Speedup recorded in the committed baseline file.
    pub committed_speedup: f64,
    /// Speedup measured by this run.
    pub current_speedup: f64,
    /// Peak interned-explorer bytes recorded in the baseline file.
    pub committed_peak_bytes: u64,
    /// Peak interned-explorer bytes measured by this run.
    pub current_peak_bytes: u64,
    /// Human-readable failures; empty = the workload passed.
    pub failures: Vec<String>,
}

/// Compares freshly measured E12 rows against a committed
/// `BENCH_engine.json`, returning one verdict per baseline workload.
/// Errors on unparseable baselines; a baseline workload the current run
/// did not measure is itself a failure (the gate must not silently lose
/// coverage).
pub fn check_regression_against(
    baseline_json: &str,
    current: &[EngineBenchRow],
) -> Result<Vec<RegressionCheck>, String> {
    let parsed = eo_obs::json::parse(baseline_json)
        .map_err(|e| format!("baseline JSON at byte {}: {}", e.offset, e.message))?;
    let rows = parsed
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("baseline JSON has no \"rows\" array")?;
    let mut out = Vec::new();
    for row in rows {
        let field = |name: &str| {
            row.get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("baseline row missing numeric \"{name}\""))
        };
        let workload = row
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or("baseline row missing \"workload\"")?
            .to_string();
        let committed_speedup = field("speedup")?;
        let committed_peak_bytes = field("interned_peak_bytes")? as u64;
        let mut check = RegressionCheck {
            workload: workload.clone(),
            committed_speedup,
            current_speedup: 0.0,
            committed_peak_bytes,
            current_peak_bytes: 0,
            failures: Vec::new(),
        };
        match current.iter().find(|r| r.label == workload) {
            None => check
                .failures
                .push("baseline workload was not re-measured".to_string()),
            Some(r) => {
                check.current_speedup = r.speedup();
                check.current_peak_bytes = r.interned_bytes as u64;
                // speedup = baseline_ms / interned_ms, so a wall-time
                // regression of f in the interned explorer divides the
                // speedup by (1 + f).
                let floor = committed_speedup / (1.0 + MAX_TIME_REGRESSION);
                if check.current_speedup < floor {
                    check.failures.push(format!(
                        "wall-time regression > {:.0}%: speedup {:.2}x (committed {:.2}x, floor {:.2}x)",
                        MAX_TIME_REGRESSION * 100.0,
                        check.current_speedup,
                        committed_speedup,
                        floor,
                    ));
                }
                let bytes_cap = (committed_peak_bytes as f64 * (1.0 + MAX_BYTES_REGRESSION)) as u64;
                if check.current_peak_bytes > bytes_cap {
                    check.failures.push(format!(
                        "peak bytes regression > {:.0}%: {} (committed {}, cap {})",
                        MAX_BYTES_REGRESSION * 100.0,
                        check.current_peak_bytes,
                        committed_peak_bytes,
                        bytes_cap,
                    ));
                }
            }
        }
        out.push(check);
    }
    if out.is_empty() {
        return Err("baseline has no workload rows".to_string());
    }
    Ok(out)
}

/// Class-count ratios above `committed × (1 + this)` fail the equivalence
/// gate. The explored-schedule counts are deterministic per workload, so
/// the slack only absorbs representation changes, not real regressions.
pub const MAX_REDUNDANCY_REGRESSION: f64 = 0.01;

/// One (workload × strategy) verdict from the equivalence-strategy gate.
#[derive(Clone, Debug)]
pub struct EquivRegressionCheck {
    /// Workload label.
    pub workload: String,
    /// Strategy label (`mazurkiewicz` / `normal-form`).
    pub strategy: String,
    /// Schedules-per-order ratio recorded in the committed baseline.
    pub committed_redundancy: f64,
    /// Schedules-per-order ratio measured by this run.
    pub current_redundancy: f64,
    /// Committed wall-time speedup over the Mazurkiewicz row of the same
    /// workload (1.0 for the Mazurkiewicz rows themselves).
    pub committed_speedup: f64,
    /// The same speedup measured by this run.
    pub current_speedup: f64,
    /// Human-readable failures; empty = the row passed.
    pub failures: Vec<String>,
}

/// Compares freshly measured E17 rows against a committed
/// `BENCH_equiv.json`: exact order counts and truncation flags must
/// match, the class-count (schedules-per-order) ratio must not grow, and
/// on workloads slow enough to time reliably the speedup over the
/// sleep-set baseline must not regress more than [`MAX_TIME_REGRESSION`].
/// Speedups are measured in-process against the same run's Mazurkiewicz
/// row, so the verdict is machine-independent.
pub fn check_equiv_against(
    baseline_json: &str,
    current: &[EquivRow],
) -> Result<Vec<EquivRegressionCheck>, String> {
    let parsed = eo_obs::json::parse(baseline_json)
        .map_err(|e| format!("equiv baseline JSON at byte {}: {}", e.offset, e.message))?;
    let rows = parsed
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("equiv baseline JSON has no \"rows\" array")?;
    let committed_ms = |workload: &str, strategy: &str| {
        rows.iter()
            .find(|r| {
                r.get("workload").and_then(|v| v.as_str()) == Some(workload)
                    && r.get("strategy").and_then(|v| v.as_str()) == Some(strategy)
            })
            .and_then(|r| r.get("time_ms"))
            .and_then(|v| v.as_f64())
    };
    let current_time = |workload: &str, strategy: &str| {
        current
            .iter()
            .find(|r| r.workload == workload && r.strategy.label() == strategy)
            .map(|r| r.time.as_secs_f64() * 1e3)
    };
    let mut out = Vec::new();
    for row in rows {
        let str_field = |name: &str| {
            row.get(name)
                .and_then(|v| v.as_str())
                .map(str::to_string)
                .ok_or_else(|| format!("equiv baseline row missing \"{name}\""))
        };
        let num_field = |name: &str| {
            row.get(name)
                .and_then(|v| v.as_f64())
                .ok_or_else(|| format!("equiv baseline row missing numeric \"{name}\""))
        };
        let workload = str_field("workload")?;
        let strategy = str_field("strategy")?;
        let committed_orders = num_field("orders")? as usize;
        let committed_schedules = num_field("schedules")? as usize;
        let committed_truncated = match row.get("truncated") {
            Some(eo_obs::json::Value::Bool(b)) => *b,
            _ => return Err("equiv baseline row missing \"truncated\"".to_string()),
        };
        let committed_time = num_field("time_ms")?;
        let committed_maz = committed_ms(&workload, "mazurkiewicz").unwrap_or(committed_time);
        let committed_speedup = committed_maz / committed_time.max(1e-9);
        let committed_redundancy = if committed_orders == 0 {
            0.0
        } else {
            committed_schedules as f64 / committed_orders as f64
        };
        let mut check = EquivRegressionCheck {
            workload: workload.clone(),
            strategy: strategy.clone(),
            committed_redundancy,
            current_redundancy: 0.0,
            committed_speedup,
            current_speedup: 0.0,
            failures: Vec::new(),
        };
        match current
            .iter()
            .find(|r| r.workload == workload && r.strategy.label() == strategy)
        {
            None => check
                .failures
                .push("baseline row was not re-measured".to_string()),
            Some(r) => {
                check.current_redundancy = r.redundancy();
                let maz_now =
                    current_time(&workload, "mazurkiewicz").unwrap_or(r.time.as_secs_f64() * 1e3);
                check.current_speedup = maz_now / (r.time.as_secs_f64() * 1e3).max(1e-9);
                if r.orders != committed_orders && !committed_truncated {
                    check.failures.push(format!(
                        "order count changed: {} (committed {})",
                        r.orders, committed_orders
                    ));
                }
                if r.truncated != committed_truncated {
                    check.failures.push(format!(
                        "truncation changed: {} (committed {})",
                        r.truncated, committed_truncated
                    ));
                }
                let cap = committed_redundancy * (1.0 + MAX_REDUNDANCY_REGRESSION);
                if check.current_redundancy > cap {
                    check.failures.push(format!(
                        "class-count ratio regressed: {:.2} schedules/order (committed {:.2})",
                        check.current_redundancy, committed_redundancy,
                    ));
                }
                // Time ratios only where they are meaningful: rows where
                // the strategy beats the sleep-set baseline by ≥ 2× and
                // the baseline side is slow enough to time reliably.
                // Everything else (µs-scale fixtures, and the small dense
                // workloads where sleep sets keep up) gates on counts
                // alone.
                if strategy != "mazurkiewicz" && committed_maz >= 20.0 && committed_speedup >= 2.0 {
                    let floor = committed_speedup / (1.0 + MAX_TIME_REGRESSION);
                    if check.current_speedup < floor {
                        check.failures.push(format!(
                            "wall-time regression > {:.0}%: {:.2}x over the sleep-set baseline (committed {:.2}x, floor {:.2}x)",
                            MAX_TIME_REGRESSION * 100.0,
                            check.current_speedup,
                            committed_speedup,
                            floor,
                        ));
                    }
                }
            }
        }
        out.push(check);
    }
    if out.is_empty() {
        return Err("equiv baseline has no workload rows".to_string());
    }
    Ok(out)
}

// ---------------------------------------------------------------- E19 --

/// One workload's measurement in the E19 enumeration-vs-symbolic study.
#[derive(Clone, Debug)]
pub struct SatBenchRow {
    /// Workload label.
    pub workload: String,
    /// Events in the trace.
    pub events: usize,
    /// Decision queries in the batch (MHB/CHB/CCW over sampled pairs).
    pub queries: usize,
    /// Best-of-3 wall time for the exact witness-search session
    /// answering the whole batch.
    pub exact_time: Duration,
    /// Best-of-11 wall time for ONE incremental SAT session answering
    /// the whole batch (shared formula + learned-clause DB).
    pub sat_batch_time: Duration,
    /// Best-of-11 wall time answering the batch with a FRESH SAT session
    /// per query (re-encode, empty clause DB every time).
    pub sat_fresh_time: Duration,
    /// Complete schedules the incremental session kept by the end of the
    /// batch (the observed order included).
    pub kept_schedules: usize,
    /// Whether the symbolic batch beat the exact session on this
    /// workload. The sweep is ordered by state-space size, so the
    /// `false→true` transition is the enumeration↔symbolic crossover.
    pub sat_wins: bool,
}

impl SatBenchRow {
    /// How much the shared formula + learned clauses buy over re-encoding
    /// per query: fresh time / batched time.
    pub fn incremental_speedup(&self) -> f64 {
        self.sat_fresh_time.as_secs_f64() / self.sat_batch_time.as_secs_f64().max(1e-12)
    }
}

/// The fixed E19 sweep, ordered by exact-engine cost: the cut lattice
/// grows exponentially in processes while the CNF encoding grows
/// polynomially, so the tail of the sweep is where the symbolic backend
/// must win.
pub fn e19_workloads() -> Vec<(String, ProgramExecution, FeasibilityMode)> {
    let mut out = Vec::new();
    for (procs, epp) in [(2usize, 4usize), (3, 4), (4, 4), (5, 4), (6, 4), (7, 4)] {
        let mut spec = WorkloadSpec::small_semaphore(7);
        spec.processes = procs;
        spec.events_per_process = epp;
        spec.semaphores = (procs / 2).max(1);
        let exec = generate_trace(&spec, 100)
            .to_execution()
            .expect("generated traces are valid");
        out.push((
            format!("e6-{procs}x{epp}"),
            exec,
            FeasibilityMode::PreserveDependences,
        ));
    }
    out.push((
        "e9-pitfall-6".to_string(),
        pitfall_exec(6),
        FeasibilityMode::IgnoreDependences,
    ));
    out
}

/// The deterministic decision batch E19 times: MHB, CHB, and CCW over a
/// stride-sampled set of ordered pairs, capped so the batch size stays
/// comparable across workloads.
fn e19_batch(n_events: usize) -> Vec<(usize, EventId, EventId)> {
    const MAX_PAIRS: usize = 60;
    let total = n_events * n_events.saturating_sub(1);
    let stride = total.div_ceil(MAX_PAIRS).max(1);
    let mut batch = Vec::new();
    let mut k = 0usize;
    for a in 0..n_events {
        for b in 0..n_events {
            if a == b {
                continue;
            }
            if k % stride == 0 {
                for kind in 0..3usize {
                    batch.push((kind, EventId::new(a), EventId::new(b)));
                }
            }
            k += 1;
        }
    }
    batch
}

/// How many runs E19's SAT columns take the fastest of.
const SAT_RUNS: usize = 11;

/// Runs E19 on one execution under `mode`. Every decision is asserted
/// bit-identical across the exact session, the incremental SAT session,
/// and the per-query-fresh SAT sessions — the timings are only
/// meaningful because all three compute the same answers.
pub fn e19_sat_point(label: &str, exec: &ProgramExecution, mode: FeasibilityMode) -> SatBenchRow {
    use eo_engine::{QuerySession, SatSession};
    let ctx = SearchCtx::new(exec, mode);
    let batch = e19_batch(exec.n_events());

    let answer_exact =
        |s: &mut QuerySession<'_, '_>, (kind, a, b): (usize, EventId, EventId)| match kind {
            0 => s.must_happen_before(a, b),
            1 => s.could_happen_before(a, b),
            _ => s.could_be_concurrent(a, b),
        };
    let answer_sat = |s: &mut SatSession, (kind, a, b): (usize, EventId, EventId)| match kind {
        0 => s.try_must_happen_before(&ctx, a, b),
        1 => s.try_could_happen_before(&ctx, a, b),
        _ => s.try_could_be_concurrent(&ctx, a, b),
    };

    let (exact_answers, exact_time) = timed_best(3, || {
        let mut session = QuerySession::new(&ctx);
        batch
            .iter()
            .map(|&q| answer_exact(&mut session, q))
            .collect::<Vec<bool>>()
    });
    // The SAT columns run in 0.1–10 ms, where a best-of-3 still moved
    // the incremental ratio by a quarter between runs; they take the
    // fastest of 11.
    let ((batch_answers, kept_schedules), sat_batch_time) = timed_best(SAT_RUNS, || {
        let mut session = SatSession::new(&ctx);
        let answers = batch
            .iter()
            .map(|&q| answer_sat(&mut session, q).expect("unbudgeted"))
            .collect::<Vec<bool>>();
        (answers, session.kept_schedules())
    });
    let (fresh_answers, sat_fresh_time) = timed_best(SAT_RUNS, || {
        batch
            .iter()
            .map(|&q| answer_sat(&mut SatSession::new(&ctx), q).expect("unbudgeted"))
            .collect::<Vec<bool>>()
    });
    assert_eq!(
        exact_answers, batch_answers,
        "{label}: incremental SAT diverged from the exact session"
    );
    assert_eq!(
        batch_answers, fresh_answers,
        "{label}: per-query-fresh SAT diverged from the incremental session"
    );
    SatBenchRow {
        workload: label.to_string(),
        events: exec.n_events(),
        queries: batch.len(),
        exact_time,
        sat_batch_time,
        sat_fresh_time,
        kept_schedules,
        sat_wins: sat_batch_time < exact_time,
    }
}

/// Incremental-speedup loss above this fraction fails the symbolic gate:
/// the ratio (fresh time / batched time) is measured in-process on the
/// same machine, so a drop means the shared-formula path itself got
/// slower relative to re-encoding, not that the machine changed.
pub const MAX_SPEEDUP_REGRESSION: f64 = 0.25;

/// One workload's verdict from the symbolic-backend gate.
#[derive(Clone, Debug)]
pub struct SatRegressionCheck {
    /// Workload label.
    pub workload: String,
    /// Whether the committed baseline had the symbolic batch beating the
    /// exact session on this workload.
    pub committed_sat_wins: bool,
    /// The same question measured by this run.
    pub current_sat_wins: bool,
    /// Incremental (fresh/batched) speedup recorded in the baseline.
    pub committed_incremental_speedup: f64,
    /// The same speedup measured by this run.
    pub current_incremental_speedup: f64,
    /// Human-readable failures; empty = the workload passed.
    pub failures: Vec<String>,
}

/// Compares freshly measured E19 rows against a committed
/// `BENCH_sat.json`: the enumeration↔symbolic crossover must not drift
/// (a workload the symbolic backend won must still be won), and the
/// incremental-vs-fresh speedup must not lose more than
/// [`MAX_SPEEDUP_REGRESSION`]. Both verdicts compare same-machine
/// ratios, so they are machine-independent.
pub fn check_sat_against(
    baseline_json: &str,
    current: &[SatBenchRow],
) -> Result<Vec<SatRegressionCheck>, String> {
    let parsed = eo_obs::json::parse(baseline_json)
        .map_err(|e| format!("sat baseline JSON at byte {}: {}", e.offset, e.message))?;
    let rows = parsed
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("sat baseline JSON has no \"rows\" array")?;
    let mut out = Vec::new();
    for row in rows {
        let workload = row
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or("sat baseline row missing \"workload\"")?
            .to_string();
        let committed_sat_wins = match row.get("sat_wins") {
            Some(eo_obs::json::Value::Bool(b)) => *b,
            _ => return Err("sat baseline row missing \"sat_wins\"".to_string()),
        };
        let committed_speedup = row
            .get("incremental_speedup")
            .and_then(|v| v.as_f64())
            .ok_or("sat baseline row missing numeric \"incremental_speedup\"")?;
        let committed_exact_ms = row
            .get("exact_ms")
            .and_then(|v| v.as_f64())
            .ok_or("sat baseline row missing numeric \"exact_ms\"")?;
        let committed_batch_ms = row
            .get("sat_batch_ms")
            .and_then(|v| v.as_f64())
            .ok_or("sat baseline row missing numeric \"sat_batch_ms\"")?;
        let mut check = SatRegressionCheck {
            workload: workload.clone(),
            committed_sat_wins,
            current_sat_wins: false,
            committed_incremental_speedup: committed_speedup,
            current_incremental_speedup: 0.0,
            failures: Vec::new(),
        };
        match current.iter().find(|r| r.workload == workload) {
            None => check
                .failures
                .push("baseline workload was not re-measured".to_string()),
            Some(r) => {
                check.current_sat_wins = r.sat_wins;
                check.current_incremental_speedup = r.incremental_speedup();
                // Crossover drift is one-sided (the symbolic backend
                // losing a workload it used to win is a regression; newly
                // winning one is progress) and only gated where the
                // committed win was decisive: slow enough to time
                // reliably and won by a clear margin. Near the crossover
                // point the winner is a coin flip and must not flap CI.
                let decisive =
                    committed_exact_ms >= 20.0 && committed_exact_ms >= 1.5 * committed_batch_ms;
                if committed_sat_wins && decisive && !r.sat_wins {
                    check.failures.push(
                        "crossover drifted: the symbolic backend lost a workload it won at commit time"
                            .to_string(),
                    );
                }
                let floor = committed_speedup / (1.0 + MAX_SPEEDUP_REGRESSION);
                if check.current_incremental_speedup < floor {
                    check.failures.push(format!(
                        "incremental speedup loss > {:.0}%: {:.2}x fresh/batched (committed {:.2}x, floor {:.2}x)",
                        MAX_SPEEDUP_REGRESSION * 100.0,
                        check.current_incremental_speedup,
                        committed_speedup,
                        floor,
                    ));
                }
            }
        }
        out.push(check);
    }
    if out.is_empty() {
        return Err("sat baseline has no workload rows".to_string());
    }
    Ok(out)
}

// ---------------------------------------------------------------- E20 --

/// One workload's measurement in the E20 surface-primitive study: how
/// much program the desugaring to the semaphore core adds, what the
/// order space of the desugared form looks like under both feasibility
/// modes, and whether the exact and symbolic backends agree on it.
#[derive(Clone, Debug)]
pub struct PrimitiveBenchRow {
    /// Workload label (`monitors-2x3` = style, processes × slots).
    pub workload: String,
    /// Top-level statements in the surface program.
    pub surface_stmts: usize,
    /// Top-level statements after desugaring to the semaphore core.
    pub core_stmts: usize,
    /// Events in the deterministic generated core trace.
    pub events: usize,
    /// |F(P)| with dependences preserved.
    pub exact_orders: usize,
    /// |F(P)| with dependences ignored (the §5.3 relaxation).
    pub relaxed_orders: usize,
    /// Best-of-3 wall time for the exact witness-search session on the
    /// E19-style decision batch over the desugared trace.
    pub exact_time: Duration,
    /// Best-of-3 wall time for one incremental SAT session on the same
    /// batch. Answers are asserted bit-identical to the exact session.
    pub sat_time: Duration,
}

impl PrimitiveBenchRow {
    /// Statement expansion factor of the desugaring.
    pub fn expansion(&self) -> f64 {
        self.core_stmts as f64 / self.surface_stmts.max(1) as f64
    }
}

/// Top-level statement count (generator surface programs are flat, so
/// this is the full program size for every E20 workload).
fn stmt_count(program: &eo_lang::Program) -> usize {
    program.processes.iter().map(|p| p.body.len()).sum()
}

/// The fixed E20 sweep: each surface primitive family at two sizes,
/// deterministic seeds. Kept small enough that `enumerate_classes`
/// never truncates — the order counts below are exact and the committed
/// JSON gates them bit-for-bit.
pub fn e20_workloads() -> Vec<(String, WorkloadSpec)> {
    type SpecCtor = fn(u64) -> WorkloadSpec;
    let styles: [(&str, SpecCtor); 3] = [
        ("monitors", WorkloadSpec::small_monitors),
        ("channels", WorkloadSpec::small_channels),
        ("barriers", WorkloadSpec::small_barriers),
    ];
    let mut out = Vec::new();
    for (style, make) in styles {
        for (procs, epp) in [(2usize, 3usize), (3, 3)] {
            let mut spec = make(7);
            spec.processes = procs;
            spec.events_per_process = epp;
            if spec.style == SyncStyle::Barriers {
                // One phase: an n-party round already adds 2(n-1)
                // core statements per process.
                spec.semaphores = 1;
            }
            out.push((format!("{style}-{procs}x{epp}"), spec));
        }
    }
    out
}

/// Runs E20 on one workload. The exact and SAT sessions answer the same
/// decision batch and every answer is asserted bit-identical, so the
/// two timings are comparable; the structural counts are deterministic
/// functions of the spec.
pub fn e20_point(label: &str, spec: &WorkloadSpec) -> PrimitiveBenchRow {
    use eo_engine::{QuerySession, SatSession};
    let program = eo_lang::generator::random_program(spec);
    let desugared = eo_lang::desugar(&program).expect("generator programs desugar");
    let exec = generate_trace(spec, 100)
        .to_execution()
        .expect("generated traces are valid");

    let mut orders = [0usize; 2];
    let modes = [
        FeasibilityMode::PreserveDependences,
        FeasibilityMode::IgnoreDependences,
    ];
    for (slot, mode) in orders.iter_mut().zip(modes) {
        let ctx = SearchCtx::new(&exec, mode);
        let r = enumerate_classes(&ctx, 1 << 20);
        assert!(!r.truncated, "{label}: E20 workloads must enumerate fully");
        *slot = r.orders.len();
    }

    let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
    let batch = e19_batch(exec.n_events());
    let (exact_answers, exact_time) = timed_best(3, || {
        let mut session = QuerySession::new(&ctx);
        batch
            .iter()
            .map(|&(kind, a, b)| match kind {
                0 => session.must_happen_before(a, b),
                1 => session.could_happen_before(a, b),
                _ => session.could_be_concurrent(a, b),
            })
            .collect::<Vec<bool>>()
    });
    let (sat_answers, sat_time) = timed_best(3, || {
        let mut session = SatSession::new(&ctx);
        batch
            .iter()
            .map(|&(kind, a, b)| {
                match kind {
                    0 => session.try_must_happen_before(&ctx, a, b),
                    1 => session.try_could_happen_before(&ctx, a, b),
                    _ => session.try_could_be_concurrent(&ctx, a, b),
                }
                .expect("unbudgeted")
            })
            .collect::<Vec<bool>>()
    });
    assert_eq!(
        exact_answers, sat_answers,
        "{label}: SAT diverged from the exact session on the desugared form"
    );

    PrimitiveBenchRow {
        workload: label.to_string(),
        surface_stmts: stmt_count(&program),
        core_stmts: stmt_count(&desugared.program),
        events: exec.n_events(),
        exact_orders: orders[0],
        relaxed_orders: orders[1],
        exact_time,
        sat_time,
    }
}

/// One workload's verdict from the surface-primitive gate.
#[derive(Clone, Debug)]
pub struct PrimitiveRegressionCheck {
    /// Workload label.
    pub workload: String,
    /// `surface→core` statement counts committed / measured.
    pub committed_shape: String,
    /// The same counts measured by this run.
    pub current_shape: String,
    /// Human-readable failures; empty = the workload passed.
    pub failures: Vec<String>,
}

/// Compares freshly measured E20 rows against a committed
/// `BENCH_primitives.json`. Everything gated here is a deterministic
/// function of the fixed specs — statement counts, trace size, and the
/// exact |F(P)| under both feasibility modes — so any drift means the
/// desugaring or the engine changed meaning, not that the machine got
/// slower. Timings are recorded in the JSON but deliberately not gated.
pub fn check_primitives_against(
    baseline_json: &str,
    current: &[PrimitiveBenchRow],
) -> Result<Vec<PrimitiveRegressionCheck>, String> {
    let parsed = eo_obs::json::parse(baseline_json).map_err(|e| {
        format!(
            "primitives baseline JSON at byte {}: {}",
            e.offset, e.message
        )
    })?;
    let rows = parsed
        .get("rows")
        .and_then(|r| r.as_array())
        .ok_or("primitives baseline JSON has no \"rows\" array")?;
    let field = |row: &eo_obs::json::Value, key: &str| -> Result<usize, String> {
        row.get(key)
            .and_then(|v| v.as_f64())
            .map(|v| v as usize)
            .ok_or_else(|| format!("primitives baseline row missing numeric \"{key}\""))
    };
    let mut out = Vec::new();
    for row in rows {
        let workload = row
            .get("workload")
            .and_then(|v| v.as_str())
            .ok_or("primitives baseline row missing \"workload\"")?
            .to_string();
        let committed = [
            ("surface_stmts", field(row, "surface_stmts")?),
            ("core_stmts", field(row, "core_stmts")?),
            ("events", field(row, "events")?),
            ("exact_orders", field(row, "exact_orders")?),
            ("relaxed_orders", field(row, "relaxed_orders")?),
        ];
        let mut check = PrimitiveRegressionCheck {
            workload: workload.clone(),
            committed_shape: format!("{}→{}", committed[0].1, committed[1].1),
            current_shape: "-".to_string(),
            failures: Vec::new(),
        };
        match current.iter().find(|r| r.workload == workload) {
            None => check
                .failures
                .push("baseline workload was not re-measured".to_string()),
            Some(r) => {
                check.current_shape = format!("{}→{}", r.surface_stmts, r.core_stmts);
                let measured = [
                    ("surface_stmts", r.surface_stmts),
                    ("core_stmts", r.core_stmts),
                    ("events", r.events),
                    ("exact_orders", r.exact_orders),
                    ("relaxed_orders", r.relaxed_orders),
                ];
                for ((key, want), (_, got)) in committed.iter().zip(measured) {
                    if *want != got {
                        check
                            .failures
                            .push(format!("{key} drifted: committed {want}, measured {got}"));
                    }
                }
            }
        }
        out.push(check);
    }
    if out.is_empty() {
        return Err("primitives baseline has no workload rows".to_string());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e1_reproduces_the_paper_story() {
        let r = e1_figure1();
        assert!(!r.egp_orders_posts, "the task graph misses the ordering");
        assert!(r.egp_fork_before_wait, "…but has the solid line");
        assert!(!r.vc_orders_posts);
        assert!(!r.hmw_orders_posts);
        assert!(r.exact_mhb_posts, "the exact engine proves the ordering");
        assert!(
            !r.exact_mhb_posts_ignoring_d,
            "and the ordering indeed comes from the data dependence"
        );
        assert!(
            !r.cs_orders_posts,
            "the static framework is blind to it too"
        );
    }

    #[test]
    fn e2_rows_are_internally_consistent() {
        for row in e2_table1() {
            let pairs = row.events * (row.events - 1);
            assert!(row.mhb <= row.chb, "{}: MHB ⊆ CHB", row.fixture);
            assert!(row.mcw <= row.ccw, "{}: MCW ⊆ CCW", row.fixture);
            assert!(row.mow <= row.cow, "{}: MOW ⊆ COW", row.fixture);
            assert!(row.cow <= pairs);
            assert!(row.classes >= 1);
        }
    }

    #[test]
    fn theorem_sweeps_stay_consistent() {
        for kind in [ReductionKind::Semaphore, ReductionKind::EventStyle] {
            for row in theorem_sweep(kind, &[(3, 2)], 2) {
                assert!(row.consistent, "{kind:?} seed {}", row.seed);
            }
        }
    }

    #[test]
    fn e6_point_runs() {
        let row = e6_point(3, 3, 1);
        assert!(row.events > 0);
        assert!(row.states > 0);
    }

    #[test]
    fn e7_baselines_sound_and_unsafe_as_expected() {
        for rows in [
            e7_quality(SyncStyle::Semaphores, 3),
            e7_quality(SyncStyle::Events, 3),
        ] {
            for row in rows {
                if row.baseline == "egp" || row.baseline == "hmw" {
                    assert_eq!(row.baseline_unsound, 0, "{} must be sound", row.baseline);
                }
                assert!(row.baseline_found <= row.exact_mhb_pairs);
            }
        }
    }

    #[test]
    fn e8_point_is_consistent() {
        for seed in 0..3 {
            assert!(e8_point(4, seed).consistent, "seed {seed}");
        }
    }

    #[test]
    fn e9_point_counts_align() {
        let row = e9_point(2);
        assert_eq!(
            row.exact_races,
            row.vc_races + row.missed_by_vc - row.spurious_in_vc
        );
    }

    #[test]
    fn e10_adversarial_separates_exact_from_polynomial() {
        let r = e10_adversarial();
        assert!(r.exact_mhb, "unsat formula ⇒ a MHB b");
        assert!(!r.egp_mhb, "EGP cannot see through the Clear gadgets");
        // The observed schedule happens to order a before b, but clocks
        // must not *guarantee* it: the claim would be justified here yet
        // unprovable for clocks in general — record whatever they say.
        let _ = r.vc_mhb;
    }

    #[test]
    fn e10_rows_are_sane() {
        let free = e10_no_clear(false, 2);
        assert_eq!(
            free.deadlockable, 0,
            "clear-free event programs cannot deadlock"
        );
        assert!(free.egp_found <= free.exact_mhb_pairs);
        let with = e10_no_clear(true, 2);
        assert!(with.egp_found <= with.exact_mhb_pairs);
    }

    #[test]
    fn e11_pruning_discharges_work_on_figure1() {
        let program = eo_lang::generator::figure1_program();
        let row = e11_point("figure1", &program);
        assert!(row.pruned >= 1, "Figure 1 has fork-ordered candidate pairs");
        assert_eq!(row.pruned + row.engine_queries, row.candidates);
    }

    #[test]
    fn e16_static_tier_subsumes_cs_and_stays_sound() {
        let program = eo_lang::generator::figure1_program();
        let row = e16_point("figure1", &program);
        assert!(
            row.static_refuted >= 1,
            "Figure 1 has fork-ordered candidate pairs the MHP tier refutes"
        );
        assert!(row.mhp_pruned >= row.cs_pruned);
        assert_eq!(row.mhp_pruned + row.engine_queries, row.candidates);
        assert!(row.static_ordered_pairs <= row.exact_mhb_pairs);
    }

    #[test]
    fn e13_point_is_sound_on_a_fixture() {
        let (trace, _) = fixtures::figure1();
        let exec = trace.to_execution().unwrap();
        // e13_point panics if any degraded answer contradicts the oracle.
        let row = e13_point("figure1", &exec, FeasibilityMode::PreserveDependences)
            .expect("figure1 fits the default limits");
        assert!(row.at_10pct.decided_fraction <= 1.0);
        assert!(row.at_50pct.decided_fraction <= 1.0);
        assert!(row.full_states > 0);
    }

    #[test]
    fn ablations_run_on_a_fixture() {
        let (trace, _) = fixtures::fork_join_diamond();
        let exec = trace.to_execution().unwrap();
        let p = ablation_pruning("diamond", &exec);
        assert!(p.pruned_schedules <= p.naive_schedules);
    }

    /// A fake measured row matching the synthetic baselines below.
    fn measured_row(speedup: f64, peak_bytes: usize) -> EngineBenchRow {
        EngineBenchRow {
            label: "w".to_string(),
            events: 10,
            states: 100,
            baseline_time: Duration::from_secs_f64(speedup / 1000.0),
            interned_time: Duration::from_millis(1),
            baseline_bytes: 2 * peak_bytes,
            interned_bytes: peak_bytes,
        }
    }

    fn baseline_json(speedup: f64, peak_bytes: u64) -> String {
        format!(
            "{{\"experiment\": \"e12\", \"rows\": [{{\"workload\": \"w\", \
             \"speedup\": {speedup}, \"interned_peak_bytes\": {peak_bytes}}}]}}"
        )
    }

    #[test]
    fn regression_gate_passes_on_matching_numbers() {
        let current = [measured_row(2.0, 1000)];
        let checks = check_regression_against(&baseline_json(2.0, 1000), &current).unwrap();
        assert_eq!(checks.len(), 1);
        assert!(checks[0].failures.is_empty(), "{:?}", checks[0].failures);
        // Noise inside the tolerance also passes.
        let checks = check_regression_against(&baseline_json(2.2, 1000), &current).unwrap();
        assert!(checks[0].failures.is_empty(), "{:?}", checks[0].failures);
    }

    #[test]
    fn regression_gate_fails_on_synthetic_2x_slowdown() {
        // Committed speedup 4.0x vs measured 2.0x = the interned explorer
        // got 2x slower; far past the 25% tolerance.
        let current = [measured_row(2.0, 1000)];
        let checks = check_regression_against(&baseline_json(4.0, 1000), &current).unwrap();
        assert_eq!(checks[0].failures.len(), 1);
        assert!(checks[0].failures[0].contains("wall-time regression"));
    }

    #[test]
    fn regression_gate_fails_on_peak_bytes_growth() {
        let current = [measured_row(2.0, 1300)];
        let checks = check_regression_against(&baseline_json(2.0, 1000), &current).unwrap();
        assert_eq!(checks[0].failures.len(), 1);
        assert!(checks[0].failures[0].contains("peak bytes"));
    }

    #[test]
    fn regression_gate_flags_lost_coverage_and_bad_baselines() {
        let checks = check_regression_against(&baseline_json(2.0, 1000), &[]).unwrap();
        assert!(checks[0].failures[0].contains("not re-measured"));
        assert!(check_regression_against("not json", &[]).is_err());
        assert!(check_regression_against("{\"rows\": []}", &[]).is_err());
    }

    /// A fake measured E17 row matching the synthetic baselines below.
    fn equiv_row(strategy: EquivStrategy, schedules: usize, time_ms: f64) -> EquivRow {
        EquivRow {
            workload: "w".to_string(),
            strategy,
            events: 10,
            orders: 4,
            schedules,
            truncated: false,
            time: Duration::from_secs_f64(time_ms / 1e3),
        }
    }

    fn equiv_baseline_json(nf_schedules: usize, nf_time_ms: f64) -> String {
        format!(
            "{{\"experiment\": \"e17\", \"rows\": [\
             {{\"workload\": \"w\", \"strategy\": \"mazurkiewicz\", \"orders\": 4, \
              \"schedules\": 400, \"truncated\": false, \"time_ms\": 100.0}}, \
             {{\"workload\": \"w\", \"strategy\": \"normal-form\", \"orders\": 4, \
              \"schedules\": {nf_schedules}, \"truncated\": false, \"time_ms\": {nf_time_ms}}}]}}"
        )
    }

    #[test]
    fn equiv_gate_passes_on_matching_numbers() {
        let current = [
            equiv_row(EquivStrategy::Mazurkiewicz, 400, 100.0),
            equiv_row(EquivStrategy::NormalForm, 4, 10.0),
        ];
        let checks = check_equiv_against(&equiv_baseline_json(4, 10.0), &current).unwrap();
        assert_eq!(checks.len(), 2);
        for c in &checks {
            assert!(c.failures.is_empty(), "{:?}", c.failures);
        }
    }

    #[test]
    fn equiv_gate_fails_on_class_count_growth() {
        // The normal-form search suddenly explores 3 schedules per order:
        // a pruning (class-count ratio) regression, whatever the clock says.
        let current = [
            equiv_row(EquivStrategy::Mazurkiewicz, 400, 100.0),
            equiv_row(EquivStrategy::NormalForm, 12, 10.0),
        ];
        let checks = check_equiv_against(&equiv_baseline_json(4, 10.0), &current).unwrap();
        let nf = &checks[1];
        assert_eq!(nf.strategy, "normal-form");
        assert_eq!(nf.failures.len(), 1, "{:?}", nf.failures);
        assert!(nf.failures[0].contains("class-count ratio"));
    }

    #[test]
    fn equiv_gate_fails_on_relative_slowdown() {
        // Committed 10x over the baseline, measured 5x: past the tolerance.
        let current = [
            equiv_row(EquivStrategy::Mazurkiewicz, 400, 100.0),
            equiv_row(EquivStrategy::NormalForm, 4, 20.0),
        ];
        let checks = check_equiv_against(&equiv_baseline_json(4, 10.0), &current).unwrap();
        assert!(checks[1].failures[0].contains("wall-time regression"));
    }

    #[test]
    fn equiv_gate_fails_on_order_count_or_truncation_drift() {
        let mut drifted = equiv_row(EquivStrategy::NormalForm, 4, 10.0);
        drifted.orders = 5;
        drifted.schedules = 5;
        let current = [equiv_row(EquivStrategy::Mazurkiewicz, 400, 100.0), drifted];
        let checks = check_equiv_against(&equiv_baseline_json(4, 10.0), &current).unwrap();
        assert!(checks[1]
            .failures
            .iter()
            .any(|f| f.contains("order count changed")));

        let mut truncated = equiv_row(EquivStrategy::NormalForm, 4, 10.0);
        truncated.truncated = true;
        let current = [
            equiv_row(EquivStrategy::Mazurkiewicz, 400, 100.0),
            truncated,
        ];
        let checks = check_equiv_against(&equiv_baseline_json(4, 10.0), &current).unwrap();
        assert!(checks[1]
            .failures
            .iter()
            .any(|f| f.contains("truncation changed")));
    }

    #[test]
    fn equiv_gate_flags_lost_coverage_and_bad_baselines() {
        let checks = check_equiv_against(&equiv_baseline_json(4, 10.0), &[]).unwrap();
        assert!(checks[0].failures[0].contains("not re-measured"));
        assert!(check_equiv_against("not json", &[]).is_err());
        assert!(check_equiv_against("{\"rows\": []}", &[]).is_err());
    }

    #[test]
    fn e17_small_points_hold_the_bars() {
        // The full e17_rows() is a minutes-scale release-mode run; prove
        // the three bars on its fastest representatives instead.
        let (trace, _) = fixtures::post_wait_clear_chain();
        let exec = trace.to_execution().unwrap();
        let mode = FeasibilityMode::PreserveDependences;
        let (maz, maz_fps) = e17_point("pwc", &exec, mode, EquivStrategy::Mazurkiewicz, 1 << 20);
        let (nf, nf_fps) = e17_point("pwc", &exec, mode, EquivStrategy::NormalForm, 1 << 20);
        assert_eq!(maz_fps, nf_fps, "normal-form must report the same F(P)");
        assert_eq!(nf.schedules, nf.orders, "perfect pruning");
        assert!(maz.schedules > maz.orders, "the baseline is redundant here");

        let pitfall = pitfall_exec(6);
        let imode = FeasibilityMode::IgnoreDependences;
        let (pm, _) = e17_point("p6", &pitfall, imode, EquivStrategy::Mazurkiewicz, 1 << 20);
        let (pn, _) = e17_point("p6", &pitfall, imode, EquivStrategy::NormalForm, 1 << 20);
        assert!(
            pn.schedules < pm.schedules,
            "normal-form must merge Mazurkiewicz classes on the E9 family"
        );
        assert!((pn.redundancy() - 1.0).abs() < f64::EPSILON);
    }

    #[test]
    fn e14_runs_on_a_small_subset() {
        // Full e14 is a timing loop; here just prove one row's invariants
        // hold (legs agree, overhead is finite) on the smallest workload.
        let (label, exec, mode) = e12_workloads().swap_remove(3); // e9-pitfall-6
        let ctx = SearchCtx::new(&exec, mode);
        let off = explore_statespace(&ctx, 1 << 24).unwrap();
        eo_obs::start();
        let on = explore_statespace(&ctx, 1 << 24).unwrap();
        let _ = eo_obs::finish();
        assert_eq!(off.chb, on.chb, "{label}");
        assert_eq!(off.states, on.states, "{label}");
    }
}
