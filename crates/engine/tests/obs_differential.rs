//! Differential suite: recording must never change an answer.
//!
//! Every fixture is analyzed twice — once with the recorder disarmed and
//! once inside a `start()`/`finish()` window — and the results must be
//! bit-identical. In a build without `eo-obs/enabled` both legs are the
//! same code (arming is a no-op), so the suite passing there pins the
//! complementary claim: the disabled build behaves as if the probes were
//! never written. The last test pins the other direction for the worker
//! pool: everything its workers record reaches the run.

use eo_engine::{run_tasks, AnalysisOutcome, ExactEngine, FeasibilityMode};
use eo_model::{fixtures, EventId, Trace};
use std::sync::Mutex;
use std::time::Duration;

/// The recorder is process-global; tests that arm it must not overlap.
static RECORDER_LOCK: Mutex<()> = Mutex::new(());

fn gallery() -> Vec<(&'static str, Trace)> {
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

/// The full pairwise answer set of one analysis, in comparable form.
fn answers(trace: &Trace, mode: FeasibilityMode) -> Vec<(usize, usize, bool, bool, bool)> {
    let exec = trace.to_execution().expect("fixtures are valid");
    let engine = ExactEngine::with_mode(&exec, mode);
    let summary = match engine.analyze() {
        AnalysisOutcome::Exact(s) => s,
        AnalysisOutcome::Degraded(d) => {
            panic!(
                "fixtures fit the default limits, got degraded: {}",
                d.reason()
            )
        }
    };
    let n = exec.n_events();
    let mut out = Vec::with_capacity(n * n);
    for a in 0..n {
        for b in 0..n {
            let (ea, eb) = (EventId::new(a), EventId::new(b));
            out.push((
                a,
                b,
                summary.mhb(ea, eb),
                summary.chb(ea, eb),
                summary.ccw(ea, eb),
            ));
        }
    }
    out
}

#[test]
fn recording_is_invisible_to_every_fixture_answer() {
    let _serial = RECORDER_LOCK.lock().unwrap();
    for mode in [
        FeasibilityMode::PreserveDependences,
        FeasibilityMode::IgnoreDependences,
    ] {
        for (label, trace) in gallery() {
            let plain = answers(&trace, mode);
            eo_obs::start();
            let recorded = answers(&trace, mode);
            let run = eo_obs::finish();
            assert_eq!(
                plain, recorded,
                "{label} ({mode:?}): recording changed an answer"
            );
            // With the feature on the run must actually have captured the
            // engine's spans; with it off, RunData is structurally empty.
            let total_events: usize = run.threads.iter().map(|t| t.events.len()).sum();
            if eo_obs::recording() {
                unreachable!("finish() must disarm recording");
            }
            let report = eo_obs::report::aggregate(&run);
            if total_events > 0 {
                assert!(
                    report.spans.iter().any(|s| s.name == "engine.analyze"),
                    "{label}: armed run missing the engine.analyze span"
                );
                let metrics = report.metrics_with_defaults();
                assert!(
                    metrics.contains_key("engine.states_interned"),
                    "{label}: registry key missing"
                );
            }
        }
    }
}

/// Delays a thread's exit: a thread-local destructor registered after the
/// recorder's buffer runs before that buffer flushes, so a worker that
/// touches it hands its records to the sink a moment after its closure
/// has returned — the window a pool that does not join its workers loses
/// records in.
struct SlowExit;

impl Drop for SlowExit {
    fn drop(&mut self) {
        std::thread::sleep(Duration::from_millis(1));
    }
}

thread_local! {
    static SLOW_EXIT: SlowExit = const { SlowExit };
}

/// `run_tasks` joins every worker before it returns, so each worker's
/// thread-local records have reached the sink by the time `finish()`
/// collects them, however late its thread-local destructors run.
#[test]
fn run_tasks_workers_always_reach_the_recording() {
    let _serial = RECORDER_LOCK.lock().unwrap();
    const ITEMS: usize = 8;
    for run in 0..200 {
        eo_obs::start();
        let out = run_tasks(2, (0..ITEMS).collect(), |i| {
            // Record first, so the recorder's buffer is registered
            // before the slow destructor on this thread.
            eo_obs::counter!("test.items", 1);
            SLOW_EXIT.with(|_| ());
            i + 1
        });
        let data = eo_obs::finish();
        assert!(out.iter().all(Option::is_some), "run {run}");
        // Without the recording feature RunData is structurally empty.
        if data.threads.is_empty() {
            continue;
        }
        let report = eo_obs::report::aggregate(&data);
        assert_eq!(
            report.counters.get("pool.tasks"),
            Some(&(ITEMS as u64)),
            "run {run}: a worker's pool.tasks record was lost"
        );
        assert!(
            report.gauges.contains_key("pool.workers"),
            "run {run}: pool.workers missing"
        );
    }
}
