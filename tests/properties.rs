//! Property-based tests over randomly generated workloads: the engine's
//! internal identities, equivalence of its independent algorithms, and
//! soundness of every polynomial baseline.

use eo_engine::{
    enumerate::{enumerate_classes, enumerate_classes_with, enumerate_naive},
    explore_statespace, queries, EquivStrategy, ExactEngine, FeasibilityMode, SearchCtx,
};
use eo_lang::generator::{generate_trace, SyncStyle, WorkloadSpec};
use eo_model::{EventId, ProgramExecution};
use proptest::prelude::*;

/// Strategy: a small workload spec (kept tiny — every property runs the
/// exponential engine).
fn small_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        2usize..=3,      // processes
        2usize..=4,      // events per process
        1usize..=2,      // sync objects
        0u64..1000,      // seed
        prop::bool::ANY, // style
        0.0f64..=0.8,    // sync density
    )
        .prop_map(|(procs, epp, syncs, seed, sem_style, density)| {
            let mut spec = if sem_style {
                WorkloadSpec::small_semaphore(seed)
            } else {
                let mut s = WorkloadSpec::small_events(seed);
                s.clears = false; // keep F(P) exploration well-behaved in size
                s
            };
            spec.processes = procs;
            spec.events_per_process = epp;
            match spec.style {
                SyncStyle::Semaphores => spec.semaphores = syncs,
                SyncStyle::Events => spec.event_vars = syncs,
                // This strategy draws only the two core styles; the
                // surface styles get their own strategy below.
                _ => unreachable!("small_spec draws core styles only"),
            }
            spec.sync_density = density;
            spec
        })
}

/// Strategy: a tiny surface-primitive spec (monitors, channels, or
/// barrier phases). Kept *very* small — the desugar-vs-direct
/// differential enumerates raw interleavings, which is worse than
/// exponential in program size.
fn surface_spec() -> impl Strategy<Value = WorkloadSpec> {
    (
        0u32..3,    // style: monitors / channels / barriers
        2usize..=3, // processes
        2usize..=3, // slots per process
        0u64..1000, // seed
    )
        .prop_map(|(style, procs, epp, seed)| {
            let mut spec = match style {
                0 => WorkloadSpec::small_monitors(seed),
                1 => WorkloadSpec::small_channels(seed),
                _ => WorkloadSpec::small_barriers(seed),
            };
            spec.processes = procs;
            spec.events_per_process = epp;
            if spec.style == SyncStyle::Barriers {
                spec.semaphores = 1; // one phase keeps the product space small
            }
            spec
        })
}

fn exec_of(spec: &WorkloadSpec) -> ProgramExecution {
    generate_trace(spec, 100)
        .to_execution()
        .expect("generated traces are valid")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The summary's internal identity set holds on arbitrary workloads.
    #[test]
    fn summary_identities(spec in small_spec()) {
        let exec = exec_of(&spec);
        let summary = ExactEngine::new(&exec).summary();
        prop_assert_eq!(summary.check_identities(), Ok(()));
    }

    /// Two independent engines — the cut-lattice statespace pass and the
    /// early-exit witness queries — agree on CHB and overlap for every
    /// pair.
    #[test]
    fn statespace_agrees_with_witness_queries(spec in small_spec()) {
        let exec = exec_of(&spec);
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let space = explore_statespace(&ctx, 1 << 22).unwrap();
        let n = exec.n_events();
        for a in 0..n {
            for b in (a + 1)..n {
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                prop_assert_eq!(
                    space.chb.contains(a, b),
                    queries::could_happen_before(&ctx, ea, eb),
                    "chb({},{})", a, b
                );
                prop_assert_eq!(
                    space.overlap.contains(a, b),
                    queries::could_be_concurrent(&ctx, ea, eb),
                    "overlap({},{})", a, b
                );
            }
        }
    }

    /// Sleep-set pruning never changes F(P), only the work done.
    #[test]
    fn pruned_enumeration_equals_naive(spec in small_spec()) {
        let exec = exec_of(&spec);
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let pruned = enumerate_classes(&ctx, 1 << 20);
        let naive = enumerate_naive(&ctx, 1 << 20);
        prop_assume!(!pruned.truncated && !naive.truncated);
        let mut a = pruned.orders.clone();
        let mut b = naive.orders.clone();
        a.sort_by_key(|r| r.pairs().collect::<Vec<_>>());
        b.sort_by_key(|r| r.pairs().collect::<Vec<_>>());
        prop_assert_eq!(a, b);
        prop_assert!(pruned.schedules_explored <= naive.schedules_explored);
    }

    /// The SAT-encoding backend (third independent engine) agrees with
    /// the witness search on CHB for every pair.
    #[test]
    fn sat_backend_agrees_with_witness_search(spec in small_spec()) {
        let exec = exec_of(&spec);
        prop_assume!(exec.n_events() <= 12); // the encoding is cubic
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        for a in 0..exec.n_events() {
            for b in 0..exec.n_events() {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                prop_assert_eq!(
                    eo_engine::sat_backend::chb_via_sat(&ctx, ea, eb).is_some(),
                    queries::could_happen_before(&ctx, ea, eb),
                    "sat-vs-search chb({},{})", a, b
                );
            }
        }
    }

    /// Every baseline's claims are contained in exact MHB under the
    /// baseline's own (dependence-ignoring) feasibility.
    #[test]
    fn baselines_are_sound(spec in small_spec()) {
        let exec = exec_of(&spec);
        let relaxed = ExactEngine::with_mode(&exec, FeasibilityMode::IgnoreDependences);
        let exact = relaxed.summary().mhb_relation();
        for (a, b) in eo_approx::TaskGraph::build(&exec).relation().pairs() {
            prop_assert!(exact.contains(a, b), "EGP claimed e{}->e{}", a, b);
        }
        for (a, b) in eo_approx::SafeOrderings::compute(&exec).relation().pairs() {
            prop_assert!(exact.contains(a, b), "HMW claimed e{}->e{}", a, b);
        }
    }

    /// Witness schedules replay as valid executions and order the pair as
    /// requested.
    #[test]
    fn witnesses_replay(spec in small_spec()) {
        let exec = exec_of(&spec);
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let n = exec.n_events();
        prop_assume!(n >= 2);
        let (a, b) = (EventId::new(0), EventId::new(n - 1));
        if let Some(w) = queries::witness_before(&ctx, b, a) {
            prop_assert!(ctx.machine().replay(&w).is_ok());
            let pos = |e: EventId| w.iter().position(|&x| x == e).unwrap();
            prop_assert!(pos(b) < pos(a));
        }
    }

    /// MHB is transitively closed and antisymmetric (it is the
    /// intersection of partial orders).
    #[test]
    fn mhb_is_a_partial_order(spec in small_spec()) {
        let exec = exec_of(&spec);
        let mhb = ExactEngine::new(&exec).summary().mhb_relation();
        prop_assert!(mhb.is_strict_partial_order());
    }

    /// The observed execution's →T is always a member of the feasible
    /// set.
    #[test]
    fn observed_order_is_feasible(spec in small_spec()) {
        let exec = exec_of(&spec);
        let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
        let classes = enumerate_classes(&ctx, 1 << 20);
        prop_assume!(!classes.truncated);
        prop_assert!(
            classes.orders.contains(exec.t()),
            "the observed induced order must appear in F(P)"
        );
    }

    /// Both trace-equivalence strategies enumerate the same F(P), hence
    /// the same six-relation summary — and the canonical one does it with
    /// exactly one schedule per induced order.
    #[test]
    fn equivalence_strategies_summarize_identically(spec in small_spec()) {
        let exec = exec_of(&spec);
        let base = ExactEngine::new(&exec).summary();
        let s = ExactEngine::new(&exec).with_equiv(EquivStrategy::NormalForm).summary();
        prop_assert_eq!(base.mhb_relation(), s.mhb_relation());
        prop_assert_eq!(base.chb_relation(), s.chb_relation());
        prop_assert_eq!(base.ccw_relation(), s.ccw_relation());
        prop_assert_eq!(base.ccw_induced_relation(), s.ccw_induced_relation());
        prop_assert_eq!(base.all_ordered_relation(), s.all_ordered_relation());
        prop_assert_eq!(base.class_count(), s.class_count());
        prop_assert_eq!(base.state_count(), s.state_count());
        // And in the race-detection feasibility mode, the canonical
        // search reaches perfect pruning: one schedule per induced order.
        let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
        let maz = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::Mazurkiewicz);
        prop_assume!(!maz.truncated);
        let r = enumerate_classes_with(&ctx, 1 << 20, EquivStrategy::NormalForm);
        prop_assert!(!r.truncated);
        prop_assert_eq!(r.orders.len(), maz.orders.len());
        prop_assert_eq!(r.schedules_explored, r.orders.len());
    }

    /// Race sets are identical under every strategy, whether detected by
    /// the standalone detector or a serving session configured with a
    /// coarser equivalence.
    #[test]
    fn equivalence_strategies_race_identically(spec in small_spec()) {
        let exec = exec_of(&spec);
        let baseline = eo_race::exact_races(&exec);
        for strategy in EquivStrategy::ALL {
            let mut config = eo_serve::SessionConfig::default();
            config.engine.equiv = strategy;
            let mut session = eo_serve::AnalysisSession::with_config(&exec, config);
            let (races, degraded) = session.races().expect("unbudgeted sessions do not degrade");
            prop_assert!(!degraded);
            prop_assert_eq!(&races, &baseline, "{}", strategy);
        }
    }

    /// Exact races (ignore-D concurrency on conflicting pairs) are always
    /// a subset of the conflict candidates, and the comparison's counts
    /// are conserved.
    #[test]
    fn race_counts_conserved(spec in small_spec()) {
        let exec = exec_of(&spec);
        let cmp = eo_race::compare(&exec);
        let exact = eo_race::exact_races(&exec).len();
        let vc = eo_race::vc_races(&exec).len();
        prop_assert_eq!(cmp.agreed.len() + cmp.missed_by_vc.len(), exact);
        prop_assert_eq!(cmp.agreed.len() + cmp.spurious_in_vc.len(), vc);
        prop_assert!(exact <= cmp.candidates);
    }
}

// Surface-primitive properties: every new `eo_lang` primitive (barriers,
// mutex/condvar monitors, bounded channels) is pinned three ways —
// desugar-vs-direct schedule-set bit-identity, engine order-set
// bit-identity across enumeration algorithms in both feasibility modes,
// and static-MHP soundness against the exact concurrency relation.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Soundness of the desugaring itself: the surface program under the
    /// direct reference interpretation and its desugared core form admit
    /// *bit-identical* schedule sets — the same committed-statement
    /// sequences for completing schedules and the same deadlock prefixes.
    #[test]
    fn desugared_and_direct_schedule_sets_agree(spec in surface_spec()) {
        let program = eo_lang::generator::random_program(&spec);
        let direct = eo_lang::explore::enumerate_schedules(&program, 200_000).unwrap();
        let lowered = eo_lang::desugar(&program).unwrap();
        let core = eo_lang::explore::enumerate_desugared_schedules(&lowered, 200_000).unwrap();
        prop_assume!(!direct.truncated && !core.truncated);
        prop_assert_eq!(&direct.completed, &core.completed);
        prop_assert_eq!(&direct.deadlocked, &core.deadlocked);
    }

    /// On desugared surface workloads the engine's induced order set is
    /// bit-identical between naive enumeration and the sleep-set pruned
    /// pass, in both feasibility modes.
    #[test]
    fn surface_order_sets_bit_identical_in_both_modes(spec in surface_spec()) {
        let exec = exec_of(&spec);
        for mode in [FeasibilityMode::PreserveDependences, FeasibilityMode::IgnoreDependences] {
            let ctx = SearchCtx::new(&exec, mode);
            let naive = enumerate_naive(&ctx, 1 << 20);
            let pruned = enumerate_classes(&ctx, 1 << 20);
            prop_assume!(!naive.truncated && !pruned.truncated);
            prop_assert_eq!(&naive.orders, &pruned.orders, "{:?}", mode);
        }
    }

    /// Static MHP is sound on surface programs: no pair of events the
    /// exact engine proves could execute concurrently maps to surface
    /// statements the fixpoint claims are never concurrent. Checked in
    /// both feasibility modes (ignore-D yields the larger concurrent set).
    #[test]
    fn mhp_never_refutes_exactly_concurrent_surface_pairs(spec in surface_spec()) {
        let program = eo_lang::generator::random_program(&spec);
        let mhp = eo_mhp::MhpAnalysis::analyze(&program);
        let lowered = eo_lang::desugar(&program).unwrap();
        // An anchored run of the core form ties every event to its core
        // statement, and the provenance map lifts that to the surface.
        let mut anchored = None;
        for seed in 0..64u64 {
            let mut sched = eo_lang::Scheduler::random(spec.seed.wrapping_add(seed));
            if let Ok(run) = eo_lang::run_to_trace_anchored(&lowered.program, &mut sched) {
                anchored = Some(run);
                break;
            }
        }
        prop_assume!(anchored.is_some());
        let run = anchored.unwrap();
        let exec = run.trace.to_execution().unwrap();
        for mode in [FeasibilityMode::PreserveDependences, FeasibilityMode::IgnoreDependences] {
            let summary = ExactEngine::with_mode(&exec, mode).summary();
            let ccw = summary.ccw_relation();
            for a in 0..exec.n_events() {
                for b in (a + 1)..exec.n_events() {
                    if !ccw.contains(a, b) {
                        continue;
                    }
                    let sa = lowered.map.surface_of(run.stmt_of[a]);
                    let sb = lowered.map.surface_of(run.stmt_of[b]);
                    if sa == sb {
                        continue; // micro-steps of one surface statement
                    }
                    prop_assert!(
                        !mhp.never_concurrent(sa, sb),
                        "{:?}: events {a}/{b} are exactly concurrent but MHP \
                         claims surface statements {sa:?}/{sb:?} never are",
                        mode
                    );
                }
            }
        }
    }
}
