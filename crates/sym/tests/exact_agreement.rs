//! The encoding against the exact engine: on every fixture, in both
//! feasibility modes, each ordered pair's CHB and CCW decision from a
//! fresh [`PoEncoding`] equals the witness search's, and every decoded
//! before-schedule replays and runs the pair in the asked order.

use eo_engine::{queries, FeasibilityMode, SearchCtx};
use eo_model::{fixtures, EventId, Trace};
use eo_sym::{PoEncoding, SymOutcome};

fn never(_: u64) -> bool {
    false
}

fn all_fixtures() -> Vec<Trace> {
    vec![
        fixtures::independent_pair().0,
        fixtures::sem_handshake().0,
        fixtures::fork_join_diamond().0,
        fixtures::crossing().0,
        fixtures::figure1().0,
        fixtures::post_wait_clear_chain().0,
        fixtures::shared_counter_race().0,
    ]
}

#[test]
fn every_decision_on_the_fixtures_equals_the_exact_engine() {
    for trace in all_fixtures() {
        let exec = trace.to_execution().unwrap();
        for mode in [
            FeasibilityMode::PreserveDependences,
            FeasibilityMode::IgnoreDependences,
        ] {
            let ctx = SearchCtx::new(&exec, mode);
            let mut enc = PoEncoding::with_dependence(exec.trace(), &ctx.effective_dependence());
            let n = exec.n_events();
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    let (ea, eb) = (EventId::new(a), EventId::new(b));
                    let chb = match enc.solve_before(ea, eb, &mut never) {
                        SymOutcome::Sat(model) => {
                            let w = enc.decode_schedule(&model);
                            let pos = |e: EventId| w.iter().position(|&x| x == e).unwrap();
                            assert!(
                                ctx.machine().replay(&w).is_ok() && pos(ea) < pos(eb),
                                "witness for chb({a},{b}) in {mode:?} must replay in order"
                            );
                            true
                        }
                        SymOutcome::Unsat => false,
                        SymOutcome::Interrupted => unreachable!("never stops"),
                    };
                    assert_eq!(
                        chb,
                        queries::could_happen_before(&ctx, ea, eb),
                        "chb({a},{b}) disagrees in {mode:?}"
                    );
                    let ccw = matches!(enc.solve_overlap(ea, eb, &mut never), SymOutcome::Sat(_));
                    assert_eq!(
                        ccw,
                        queries::could_be_concurrent(&ctx, ea, eb),
                        "ccw({a},{b}) disagrees in {mode:?}"
                    );
                }
            }
        }
    }
}
