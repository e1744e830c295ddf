//! Deterministic fault-injection coverage for the supervisor.
//!
//! Every [`EngineError`] variant the budget can raise is reached here via
//! a [`FaultPlan`] tripping at a chosen checkpoint, and every degraded
//! answer produced under an injected fault is checked against the
//! unbudgeted oracle.

#![cfg(feature = "fault-injection")]

use eo_engine::sat_backend::{chb_via_sat, chb_via_sat_budgeted, SatSession};
use eo_engine::{
    AnalysisOutcome, Budget, EngineError, ExactEngine, Fault, FaultPlan, FeasibilityMode,
    QuerySession, SearchCtx,
};
use eo_model::fixtures;

fn faulty(at: u64, fault: Fault) -> Budget {
    Budget::unlimited().with_fault(FaultPlan::trip_at(at, fault))
}

#[test]
fn every_coordinator_fault_surfaces_as_its_error_variant() {
    let (trace, _) = fixtures::figure1();
    let exec = trace.to_execution().unwrap();
    let cases = [
        (Fault::Deadline, EngineError::DeadlineExceeded { ms: 0 }),
        (Fault::Memory, EngineError::MemoryExceeded { limit: 0 }),
        (Fault::Cancel, EngineError::Cancelled),
    ];
    for (fault, expected) in cases {
        let engine = ExactEngine::new(&exec).with_budget(faulty(1, fault));
        assert_eq!(
            engine.try_summary().err(),
            Some(expected.clone()),
            "{fault:?}"
        );
        assert_eq!(engine.feasible_set().err(), Some(expected), "{fault:?}");
    }
}

#[test]
fn analyze_degrades_consistently_at_every_fault_point() {
    let (trace, _) = fixtures::figure1();
    let exec = trace.to_execution().unwrap();
    let full = ExactEngine::new(&exec).summary();
    for at in [1, 3, 10] {
        for fault in [Fault::Deadline, Fault::Memory, Fault::Cancel] {
            let engine = ExactEngine::new(&exec).with_budget(faulty(at, fault));
            match engine.analyze() {
                AnalysisOutcome::Exact(_) => {
                    panic!("fault {fault:?}@{at} never tripped")
                }
                AnalysisOutcome::Degraded(d) => {
                    let expected_kind = match fault {
                        Fault::Deadline => {
                            matches!(d.reason(), EngineError::DeadlineExceeded { .. })
                        }
                        Fault::Memory => matches!(d.reason(), EngineError::MemoryExceeded { .. }),
                        Fault::Cancel => *d.reason() == EngineError::Cancelled,
                    };
                    assert!(expected_kind, "{fault:?}@{at} gave {:?}", d.reason());
                    if let Err(msg) = d.check_consistency_against(&full) {
                        panic!("{fault:?}@{at}: degraded answer contradicts oracle: {msg}");
                    }
                }
            }
        }
    }
}

#[test]
fn later_fault_points_decide_no_fewer_pairs() {
    let (trace, _, _) = fixtures::crossing();
    let exec = trace.to_execution().unwrap();
    let mut prev = 0usize;
    for at in [1, 4, 16] {
        let engine = ExactEngine::new(&exec).with_budget(faulty(at, Fault::Deadline));
        let AnalysisOutcome::Degraded(d) = engine.analyze() else {
            // The whole analysis fit under `at` checkpoints; nothing more
            // to compare.
            return;
        };
        assert!(
            d.decided_pairs() >= prev,
            "more budget decided fewer pairs ({} < {prev}) at fault point {at}",
            d.decided_pairs()
        );
        prev = d.decided_pairs();
    }
}

#[test]
fn witness_queries_report_injected_exhaustion() {
    let (trace, ids) = fixtures::sem_handshake();
    let exec = trace.to_execution().unwrap();
    let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
    let (a, b) = (ids.v, ids.p);

    let mut session = QuerySession::with_budget(&ctx, faulty(1, Fault::Deadline));
    assert!(matches!(
        session.try_witness_before(a, b),
        Err(EngineError::DeadlineExceeded { .. })
    ));

    let mut session = QuerySession::with_budget(&ctx, faulty(1, Fault::Memory));
    assert!(matches!(
        session.try_witness_overlap(a, b),
        Err(EngineError::MemoryExceeded { .. })
    ));

    let mut session = QuerySession::with_budget(&ctx, faulty(1, Fault::Cancel));
    assert_eq!(
        session.try_must_happen_before(a, b),
        Err(EngineError::Cancelled)
    );

    // An untripped plan leaves answers identical to the unbudgeted path.
    let mut faulted = QuerySession::with_budget(&ctx, faulty(1_000_000, Fault::Deadline));
    let mut plain = QuerySession::new(&ctx);
    assert_eq!(
        faulted.try_could_happen_before(a, b).unwrap(),
        plain.could_happen_before(a, b)
    );
}

#[test]
fn sat_backend_honours_injected_faults() {
    let (trace, a, b) = fixtures::crossing();
    let exec = trace.to_execution().unwrap();
    let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);

    // Fault before the encoding is even built.
    assert!(matches!(
        chb_via_sat_budgeted(&ctx, a, b, &faulty(1, Fault::Deadline)),
        Err(EngineError::DeadlineExceeded { .. })
    ));
    // Fault deep inside the CDCL search (checkpoints 1–2 are the
    // pre/post-encoding checks, so 3+ lands on solver nodes). Only a
    // refuted question reaches the solver: the session answers `b`
    // before `a` by construction. `a` needs p1's V(t) first, so `a`
    // before V(t) is refuted.
    let v_t = exec.trace().observed_order()[1];
    assert!(chb_via_sat_budgeted(&ctx, b, a, &faulty(3, Fault::Cancel)).is_ok());
    assert!(matches!(
        chb_via_sat_budgeted(&ctx, a, v_t, &faulty(3, Fault::Cancel)),
        Err(EngineError::Cancelled)
    ));
    // An untripped plan must not change the verdict.
    let untripped = faulty(1_000_000_000, Fault::Memory);
    for (x, y) in [(b, a), (a, v_t)] {
        assert_eq!(
            chb_via_sat_budgeted(&ctx, x, y, &untripped)
                .unwrap()
                .is_some(),
            chb_via_sat(&ctx, x, y).is_some()
        );
    }
}

#[test]
fn sat_session_cancellation_lands_mid_propagation() {
    let (trace, ids) = fixtures::figure1();
    let exec = trace.to_execution().unwrap();
    let ctx = SearchCtx::new(&exec, FeasibilityMode::PreserveDependences);
    // The observed order runs `post_left` first and the session keeps
    // it, so asking for `post_right` first is what reaches the solver.
    let (a, b) = (ids.post_right, ids.post_left);

    // Checkpoints 1–2 are the session's entry check and the solver's
    // up-front stop poll; 3 lands on a poll *inside* the first unit
    // propagation cascade (the encoding's base facts, one unit per pair
    // of cl(base), are a level-0 cascade longer than one poll interval),
    // before any decision is made.
    let mut session = SatSession::with_budget(&ctx, faulty(3, Fault::Cancel));
    assert_eq!(
        session.try_could_happen_before(&ctx, a, b),
        Err(EngineError::Cancelled)
    );
    let solver = session.encoding().solver();
    assert_eq!(
        solver.decisions, 0,
        "the fault must trip before the first decision"
    );
    assert!(
        solver.propagations > 0,
        "the fault must trip inside propagation, not at entry"
    );

    // Renewing the budget revives the session in place, learned state
    // intact, and the answer matches the one-shot oracle.
    session.set_budget(Budget::unlimited());
    assert_eq!(
        session.try_could_happen_before(&ctx, a, b).unwrap(),
        chb_via_sat(&ctx, a, b).is_some()
    );

    // Deadline and memory faults surface as their own variants through
    // the same mid-propagation poll.
    let mut session = SatSession::with_budget(&ctx, faulty(3, Fault::Deadline));
    assert!(matches!(
        session.try_witness_before(&ctx, a, b),
        Err(EngineError::DeadlineExceeded { .. })
    ));
    let mut session = SatSession::with_budget(&ctx, faulty(3, Fault::Memory));
    assert!(matches!(
        session.try_witness_overlap(&ctx, a, b),
        Err(EngineError::MemoryExceeded { .. })
    ));
}
