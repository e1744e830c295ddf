//! Differential suite for the supervisor's sound degradation: whatever
//! resource runs out, the degraded answer must never contradict the
//! unbudgeted exact oracle.

use eo_engine::{
    AnalysisOutcome, Budget, DegradedSummary, EngineError, ExactEngine, FeasibilityMode,
    OrderingSummary,
};
use eo_lang::generator::{generate_trace, WorkloadSpec};
use eo_model::{fixtures, ProgramExecution, Trace};
use std::time::{Duration, Instant};

/// Every fixture trace, by name (for failure messages).
fn fixture_traces() -> Vec<(&'static str, Trace)> {
    vec![
        ("independent_pair", fixtures::independent_pair().0),
        ("sem_handshake", fixtures::sem_handshake().0),
        ("fork_join_diamond", fixtures::fork_join_diamond().0),
        ("figure1", fixtures::figure1().0),
        ("post_wait_clear_chain", fixtures::post_wait_clear_chain().0),
        ("shared_counter_race", fixtures::shared_counter_race().0),
        ("crossing", fixtures::crossing().0),
    ]
}

/// Small traces from both E9 workload families.
fn workload_traces() -> Vec<(String, Trace)> {
    let mut out = Vec::new();
    for seed in 0..3 {
        out.push((
            format!("small_semaphore({seed})"),
            generate_trace(&WorkloadSpec::small_semaphore(seed), 24),
        ));
        out.push((
            format!("small_events({seed})"),
            generate_trace(&WorkloadSpec::small_events(seed), 24),
        ));
    }
    out
}

fn oracle(exec: &ProgramExecution, mode: FeasibilityMode) -> OrderingSummary {
    ExactEngine::with_mode(exec, mode).summary()
}

fn assert_consistent(name: &str, d: &DegradedSummary, oracle: &OrderingSummary) {
    if let Err(msg) = d.check_consistency_against(oracle) {
        panic!("{name}: degraded answer contradicts the oracle: {msg}");
    }
}

#[test]
fn state_cap_degradation_is_consistent_on_fixtures() {
    for (name, trace) in fixture_traces() {
        let exec = trace.to_execution().unwrap();
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let full = oracle(&exec, mode);
            for cap in [1, 2, 4, 8] {
                let engine = ExactEngine::with_mode(&exec, mode)
                    .with_budget(Budget::unlimited().with_max_states(cap));
                match engine.analyze() {
                    AnalysisOutcome::Exact(s) => {
                        assert_eq!(s.check_identities(), Ok(()), "{name} cap {cap}");
                    }
                    AnalysisOutcome::Degraded(d) => {
                        assert!(matches!(d.reason(), EngineError::StateSpaceExceeded { .. }));
                        assert!(d.states_explored() <= cap);
                        assert_consistent(name, &d, &full);
                    }
                }
            }
        }
    }
}

#[test]
fn schedule_cap_degradation_is_consistent_on_fixtures() {
    for (name, trace) in fixture_traces() {
        let exec = trace.to_execution().unwrap();
        let full = oracle(&exec, FeasibilityMode::PreserveDependences);
        let engine = ExactEngine::new(&exec).with_budget(Budget::unlimited().with_max_schedules(1));
        match engine.analyze() {
            // The lattice pass is complete here, so even with the
            // enumeration cut the pairwise facts are all exact.
            AnalysisOutcome::Exact(s) => assert_eq!(s.check_identities(), Ok(()), "{name}"),
            AnalysisOutcome::Degraded(d) => {
                assert!(
                    d.space_complete(),
                    "{name}: only the enumeration was capped"
                );
                assert_eq!(d.mhb_counts().2, 0, "{name}: complete lattice decides MHB");
                assert_consistent(name, &d, &full);
            }
        }
    }
}

#[test]
fn degradation_is_consistent_on_generated_workloads() {
    for (name, trace) in workload_traces() {
        let exec = trace.to_execution().unwrap();
        let full = oracle(&exec, FeasibilityMode::PreserveDependences);
        for cap in [2, 16, 128] {
            let engine =
                ExactEngine::new(&exec).with_budget(Budget::unlimited().with_max_states(cap));
            if let AnalysisOutcome::Degraded(d) = engine.analyze() {
                assert_consistent(&name, &d, &full);
                assert!(d.decided_fraction() <= 1.0);
            }
        }
    }
}

#[test]
fn escalating_caps_reach_the_exact_answer() {
    let (trace, _) = fixtures::post_wait_clear_chain();
    let exec = trace.to_execution().unwrap();
    let full = oracle(&exec, FeasibilityMode::PreserveDependences);
    let mut cap = 1;
    loop {
        let engine = ExactEngine::new(&exec).with_budget(Budget::unlimited().with_max_states(cap));
        match engine.analyze() {
            AnalysisOutcome::Degraded(d) => {
                assert_consistent("post_wait_clear_chain", &d, &full);
                assert!(cap < 1 << 20, "never reached the exact answer");
                cap *= 2;
            }
            AnalysisOutcome::Exact(s) => {
                // The escalated run must reproduce the oracle bit for bit.
                for a in 0..exec.n_events() {
                    for b in 0..exec.n_events() {
                        let (ea, eb) = (eo_model::EventId::new(a), eo_model::EventId::new(b));
                        assert_eq!(s.mhb(ea, eb), full.mhb(ea, eb));
                        assert_eq!(s.chb(ea, eb), full.chb(ea, eb));
                        assert_eq!(s.ccw(ea, eb), full.ccw(ea, eb));
                    }
                }
                break;
            }
        }
    }
}

#[test]
fn pre_cancelled_budget_degrades_with_cancelled_reason() {
    let (trace, _) = fixtures::fork_join_diamond();
    let exec = trace.to_execution().unwrap();
    let full = oracle(&exec, FeasibilityMode::PreserveDependences);
    let budget = Budget::unlimited();
    budget.cancel_handle().cancel();
    let engine = ExactEngine::new(&exec).with_budget(budget.clone());
    assert_eq!(engine.try_summary().err(), Some(EngineError::Cancelled));
    match engine.analyze() {
        AnalysisOutcome::Degraded(d) => {
            assert_eq!(*d.reason(), EngineError::Cancelled);
            assert_consistent("fork_join_diamond", &d, &full);
        }
        AnalysisOutcome::Exact(_) => panic!("a cancelled analysis cannot be exact"),
    }
    assert_eq!(engine.feasible_set().err(), Some(EngineError::Cancelled));
}

#[test]
fn memory_cap_degrades_with_memory_reason() {
    let (trace, _) = fixtures::fork_join_diamond();
    let exec = trace.to_execution().unwrap();
    let full = oracle(&exec, FeasibilityMode::PreserveDependences);
    let engine = ExactEngine::new(&exec).with_budget(Budget::unlimited().with_max_heap_bytes(16));
    assert!(matches!(
        engine.try_summary(),
        Err(EngineError::MemoryExceeded { limit: 16 })
    ));
    match engine.analyze() {
        AnalysisOutcome::Degraded(d) => {
            assert!(matches!(d.reason(), EngineError::MemoryExceeded { .. }));
            assert_consistent("fork_join_diamond", &d, &full);
        }
        AnalysisOutcome::Exact(_) => panic!("a 16-byte heap budget cannot suffice"),
    }
}

#[test]
fn zero_deadline_degrades_without_panicking_everywhere() {
    for (name, trace) in fixture_traces() {
        let exec = trace.to_execution().unwrap();
        let budget = Budget::unlimited().with_deadline(Duration::ZERO);
        let engine = ExactEngine::new(&exec).with_budget(budget);
        assert!(
            matches!(
                engine.try_summary(),
                Err(EngineError::DeadlineExceeded { .. })
            ),
            "{name}"
        );
        assert!(
            matches!(
                engine.feasible_set(),
                Err(EngineError::DeadlineExceeded { .. })
            ),
            "{name}"
        );
        let full = oracle(&exec, FeasibilityMode::PreserveDependences);
        match engine.analyze() {
            AnalysisOutcome::Degraded(d) => {
                assert!(matches!(d.reason(), EngineError::DeadlineExceeded { .. }));
                assert_consistent(name, &d, &full);
            }
            AnalysisOutcome::Exact(_) => panic!("{name}: zero deadline cannot be exact"),
        }
    }
}

/// The acceptance criterion: a deadline at ~10% of the full-budget wall
/// time must come back with a (possibly degraded) answer whose facts are
/// consistent with the unbudgeted oracle — never a panic or a hang.
#[test]
fn ten_percent_deadline_is_sound() {
    let trace = generate_trace(&WorkloadSpec::small_semaphore(2), 36);
    let exec = trace.to_execution().unwrap();

    let t0 = Instant::now();
    let full = oracle(&exec, FeasibilityMode::PreserveDependences);
    let full_time = t0.elapsed();

    for divisor in [10, 2] {
        let deadline = full_time / divisor;
        let engine =
            ExactEngine::new(&exec).with_budget(Budget::unlimited().with_deadline(deadline));
        match engine.analyze() {
            AnalysisOutcome::Exact(s) => {
                // Timing is allowed to win; the answer must still be right.
                assert_eq!(s.check_identities(), Ok(()));
            }
            AnalysisOutcome::Degraded(d) => {
                assert!(matches!(d.reason(), EngineError::DeadlineExceeded { .. }));
                assert_consistent("small_semaphore(2)", &d, &full);
            }
        }
    }
}
