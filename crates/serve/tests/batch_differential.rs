//! The serving contract, pinned: a batch of N queries answered through an
//! [`AnalysisSession`] is bit-identical to N one-shot [`ExactEngine`]
//! runs — on every fixture, on the E9 pairing-pitfall ladder, and on
//! generated semaphore workloads; with the cross-query caches on and off,
//! and with the prefilter on and off. Caching may only ever change cost.

use eo_engine::{Answer, EngineOptions, ExactEngine, FeasibilityMode, Query};
use eo_model::{fixtures, EventId, ProgramExecution, Trace};
use eo_serve::{AnalysisSession, SessionConfig};

fn exec_of(trace: Trace) -> ProgramExecution {
    trace.to_execution().expect("test traces are valid")
}

/// The E9 "pairing pitfall" family: a writer's `V` observably paired with
/// the reader's guarding `P`, plus `decoys` other `V`s that could have
/// served it instead (mirrors `eo-bench`'s family; rebuilt here because
/// the bench crate depends on this one).
fn pitfall_exec(decoys: usize) -> ProgramExecution {
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
    let trace = eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::deterministic())
        .expect("pitfall program cannot deadlock");
    exec_of(trace)
}

fn generated_exec(seed: u64) -> ProgramExecution {
    let mut spec = eo_lang::generator::WorkloadSpec::small_semaphore(seed);
    spec.variables = 3;
    spec.write_fraction = 0.5;
    exec_of(eo_lang::generator::generate_trace(&spec, 100))
}

/// Every program × feasibility mode the differential sweep covers.
fn programs() -> Vec<(String, ProgramExecution, FeasibilityMode)> {
    use FeasibilityMode::{IgnoreDependences, PreserveDependences};
    let mut out: Vec<(String, ProgramExecution, FeasibilityMode)> = vec![
        (
            "independent_pair".into(),
            exec_of(fixtures::independent_pair().0),
            PreserveDependences,
        ),
        (
            "sem_handshake".into(),
            exec_of(fixtures::sem_handshake().0),
            PreserveDependences,
        ),
        (
            "fork_join_diamond".into(),
            exec_of(fixtures::fork_join_diamond().0),
            PreserveDependences,
        ),
        (
            "figure1".into(),
            exec_of(fixtures::figure1().0),
            PreserveDependences,
        ),
        (
            "figure1-ignore".into(),
            exec_of(fixtures::figure1().0),
            IgnoreDependences,
        ),
        (
            "post_wait_clear_chain".into(),
            exec_of(fixtures::post_wait_clear_chain().0),
            PreserveDependences,
        ),
        (
            "shared_counter_race".into(),
            exec_of(fixtures::shared_counter_race().0),
            IgnoreDependences,
        ),
        (
            "crossing".into(),
            exec_of(fixtures::crossing().0),
            PreserveDependences,
        ),
    ];
    for decoys in [2, 4] {
        out.push((
            format!("e9-pitfall-{decoys}"),
            pitfall_exec(decoys),
            IgnoreDependences,
        ));
    }
    for seed in [7, 11] {
        out.push((
            format!("e9-random-{seed}"),
            generated_exec(seed),
            PreserveDependences,
        ));
    }
    out
}

/// Every point query over the program, including repeats of symmetric CCW
/// pairs and reflexive pairs — exactly the redundancy the caches exploit.
fn batch_for(exec: &ProgramExecution) -> Vec<Query> {
    let n = exec.n_events();
    let mut batch = Vec::new();
    for a in 0..n {
        for b in 0..n {
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            batch.push(Query::Mhb { a: ea, b: eb });
            batch.push(Query::Chb { a: ea, b: eb });
            batch.push(Query::Ccw { a: ea, b: eb });
            if a != b {
                batch.push(Query::WitnessBefore {
                    first: ea,
                    second: eb,
                });
                batch.push(Query::WitnessOverlap { a: ea, b: eb });
            }
        }
    }
    batch.push(Query::Summary);
    batch
}

fn assert_answers_match(
    label: &str,
    config: &str,
    query: Query,
    session: &Answer,
    oneshot: &Answer,
) {
    match (session, oneshot) {
        (Answer::Decided(s), Answer::Decided(o)) => {
            assert_eq!(s, o, "{label} [{config}] {query:?}: decided answers differ")
        }
        (Answer::Witness(s), Answer::Witness(o)) => {
            assert_eq!(s, o, "{label} [{config}] {query:?}: witnesses differ")
        }
        (Answer::Summary(s), Answer::Summary(o)) => {
            assert_eq!(s.class_count(), o.class_count(), "{label}: class counts");
            assert_eq!(s.state_count(), o.state_count(), "{label}: state counts");
            assert_eq!(s.mhb_relation(), o.mhb_relation(), "{label}: MHB");
            assert_eq!(s.chb_relation(), o.chb_relation(), "{label}: CHB");
            assert_eq!(s.ccw_relation(), o.ccw_relation(), "{label}: CCW");
        }
        _ => panic!("{label} [{config}] {query:?}: answer shapes differ"),
    }
}

/// The (cache, prefilter, static prefilter) session configs both
/// differentials sweep.
const CONFIGS: [(bool, bool, bool); 5] = [
    (true, true, false),
    (true, false, false),
    (false, false, false),
    (true, true, true),
    (false, false, true),
];

#[test]
fn batched_sessions_match_one_shot_engines_everywhere() {
    for (label, exec, mode) in programs() {
        let opts = EngineOptions::with_mode(mode);
        let batch = batch_for(&exec);
        // One-shot baseline: a fresh engine per query, nothing shared.
        let baseline: Vec<Answer> = batch
            .iter()
            .map(|&q| {
                ExactEngine::with_options(&exec, opts.clone())
                    .query(q)
                    .expect("unbudgeted test programs never degrade")
                    .answer
            })
            .collect();
        for (cache, prefilter, static_prefilter) in CONFIGS {
            let config = format!("cache={cache},prefilter={prefilter},static={static_prefilter}");
            let mut session = AnalysisSession::with_config(
                &exec,
                SessionConfig {
                    engine: opts.clone(),
                    cache,
                    prefilter,
                    static_prefilter,
                    ..Default::default()
                },
            );
            for (replied, (&query, expected)) in session
                .query_batch(&batch)
                .into_iter()
                .zip(batch.iter().zip(&baseline))
            {
                let reply = replied.expect("unbudgeted test programs never degrade");
                assert_answers_match(&label, &config, query, &reply.response.answer, expected);
            }
            let stats = session.stats();
            assert_eq!(stats.queries as usize, batch.len(), "{label} [{config}]");
            if cache {
                assert!(
                    stats.cache_hits > 0,
                    "{label} [{config}]: redundant batches must produce cache hits"
                );
            } else {
                assert_eq!(stats.cache_hits, 0, "{label} [{config}]");
            }
        }
    }
}

#[test]
fn races_match_the_standalone_detector_in_both_modes() {
    for (label, exec, mode) in programs() {
        let expected = eo_race::exact_races(&exec);
        for (cache, prefilter, static_prefilter) in CONFIGS {
            let config = format!("cache={cache},prefilter={prefilter},static={static_prefilter}");
            let mut session = AnalysisSession::with_config(
                &exec,
                SessionConfig {
                    engine: EngineOptions::with_mode(mode),
                    cache,
                    prefilter,
                    static_prefilter,
                    ..Default::default()
                },
            );
            let (first, cached_first) = session.races().expect("no budget attached");
            let (second, cached_second) = session.races().expect("no budget attached");
            assert_eq!(first, expected, "{label} [{config}]: session races differ");
            assert_eq!(
                second, expected,
                "{label} [{config}]: repeated races differ"
            );
            assert!(!cached_first, "{label} [{config}]");
            assert_eq!(
                cached_second, cache,
                "{label} [{config}]: a second race query is memoized iff caching is on"
            );
        }
    }
}

/// A writer pipeline whose three writes of `x` are ordered by semaphore
/// handshakes, beside an idle process that multiplies the lattice and one
/// genuine race on `y` that is enabled from the start.
fn ordered_pipeline_exec() -> ProgramExecution {
    let mut b = eo_lang::ProgramBuilder::new();
    let (s, t) = (b.semaphore("s"), b.semaphore("t"));
    let (x, y) = (b.variable("x"), b.variable("y"));
    let p0 = b.process("p0");
    b.compute_rw(p0, &[], &[x], "w0");
    b.sem_v(p0, s);
    let p1 = b.process("p1");
    b.sem_p(p1, s);
    b.compute_rw(p1, &[], &[x], "w1");
    b.sem_v(p1, t);
    let p2 = b.process("p2");
    b.sem_p(p2, t);
    b.compute_rw(p2, &[], &[x], "w2");
    let idle = b.process("idle");
    for k in 0..4 {
        b.compute_rw(idle, &[], &[], &format!("c{k}"));
    }
    let r0 = b.process("r0");
    b.compute_rw(r0, &[], &[y], "y0");
    let r1 = b.process("r1");
    b.compute_rw(r1, &[], &[y], "y1");
    let program = b.build();
    let trace = eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::deterministic())
        .expect("the pipeline cannot deadlock");
    exec_of(trace)
}

#[test]
fn the_guarantee_tier_keeps_races_under_a_state_cap_the_full_walk_trips() {
    let exec = ordered_pipeline_exec();
    let expected = eo_race::exact_races(&exec);
    assert_eq!(expected.len(), 1, "only the two writes of y race");
    let races_under = |prefilter: bool, max_states: usize| {
        let budget = eo_engine::Budget::unlimited().with_max_states(max_states);
        AnalysisSession::with_config(
            &exec,
            SessionConfig {
                engine: EngineOptions {
                    mode: FeasibilityMode::IgnoreDependences,
                    budget: Some(budget),
                    ..Default::default()
                },
                prefilter,
                ..Default::default()
            },
        )
        .races()
        .map(|(races, _)| races)
    };
    // Unbudgeted, walking all four candidates interns 107 states; with G
    // refuting the three ordered writes of x, the race on y takes 13.
    let cap = 32;
    assert!(
        matches!(
            races_under(false, cap),
            Err(eo_engine::EngineError::StateSpaceExceeded { limit }) if limit == cap
        ),
        "walking every candidate must trip the {cap}-state cap"
    );
    assert_eq!(
        races_under(true, cap).expect("G refutes the ordered writes"),
        expected
    );
}
