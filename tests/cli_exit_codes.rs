//! Pins the `eo analyze` exit-code contract and the rule that requested
//! observability outputs are flushed on *every* analysis exit path:
//!
//! * `0` — exact answer within budget
//! * `2` — degraded (sound partial) answer
//! * `3` — budget exhausted under `--no-degrade`
//! * `1` — usage / input errors
//!
//! The metrics assertions that depend on real recording only run when the
//! binary was built with the `obs` feature; the file-flushing contract
//! holds either way (a disabled build writes the default registry).

use std::path::PathBuf;
use std::process::Command;

const FIGURE1: &str = "testdata/figure1.trace.json";

fn eo(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_eo"))
        .args(args)
        .output()
        .expect("spawning eo")
}

fn tmp(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("eo-cli-test-{}-{name}", std::process::id()));
    p
}

fn read_metrics(path: &PathBuf) -> std::collections::BTreeMap<String, eo_obs::report::MetricValue> {
    let text = std::fs::read_to_string(path).expect("metrics file must exist");
    std::fs::remove_file(path).ok();
    eo_obs::report::metrics_from_json(&text).expect("metrics file must parse")
}

#[test]
fn exact_run_exits_zero_and_flushes_metrics() {
    let m = tmp("exact.json");
    let out = eo(&[
        "analyze",
        FIGURE1,
        "--json",
        "--metrics-out",
        m.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = read_metrics(&m);
    // The full registry is always present (defaults fill unrecorded keys).
    for key in eo_obs::report::ENGINE_METRICS {
        assert!(metrics.contains_key(*key), "missing registry key {key}");
    }
    assert_eq!(
        metrics.get("degradation.cause"),
        Some(&eo_obs::report::MetricValue::Str("none".to_string()))
    );
    #[cfg(feature = "obs")]
    {
        use eo_obs::report::MetricValue;
        // figure1's cut lattice has 11 states and never touches SAT; the
        // E12/E13 numbers for this fixture are pinned in BENCH files.
        assert_eq!(
            metrics.get("engine.states_interned"),
            Some(&MetricValue::Int(11))
        );
        assert_eq!(metrics.get("sat.dpll_nodes"), Some(&MetricValue::Int(0)));
        match metrics.get("budget.headroom_states") {
            Some(MetricValue::Int(h)) => assert!(*h > 0, "default state cap leaves headroom"),
            other => panic!("budget.headroom_states: {other:?}"),
        }
    }
}

#[test]
fn degraded_run_exits_two_and_still_flushes() {
    let m = tmp("degraded.json");
    let t = tmp("degraded-trace.json");
    let out = eo(&[
        "analyze",
        FIGURE1,
        "--timeout",
        "0",
        "--json",
        "--metrics-out",
        m.to_str().unwrap(),
        "--trace-out",
        t.to_str().unwrap(),
    ]);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let metrics = read_metrics(&m);
    let trace_text = std::fs::read_to_string(&t).expect("trace file flushed on exit 2");
    std::fs::remove_file(&t).ok();
    assert!(trace_text.contains("traceEvents"));
    #[cfg(feature = "obs")]
    assert_eq!(
        metrics.get("degradation.cause"),
        Some(&eo_obs::report::MetricValue::Str("deadline".to_string()))
    );
    #[cfg(not(feature = "obs"))]
    assert!(metrics.contains_key("degradation.cause"));
}

#[test]
fn no_degrade_budget_exhaustion_always_exits_three() {
    // Both budget shapes: a zero deadline and a tiny state cap. Neither
    // may ever be reported as success.
    for extra in [&["--timeout", "0"][..], &["--max-states", "1"][..]] {
        let m = tmp(&format!("hard-{}.json", extra[0].trim_start_matches('-')));
        let mut args = vec!["analyze", FIGURE1, "--no-degrade", "--json"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--metrics-out", m.to_str().unwrap()]);
        let out = eo(&args);
        assert_eq!(
            out.status.code(),
            Some(3),
            "{extra:?} stderr: {}",
            String::from_utf8_lossy(&out.stderr)
        );
        let metrics = read_metrics(&m);
        #[cfg(feature = "obs")]
        match metrics.get("degradation.cause") {
            Some(eo_obs::report::MetricValue::Str(cause)) => {
                assert_ne!(cause, "none", "exit 3 must record its cause")
            }
            other => panic!("degradation.cause: {other:?}"),
        }
        #[cfg(not(feature = "obs"))]
        assert!(metrics.contains_key("degradation.cause"));
    }
}

#[test]
fn empty_program_reports_no_events_explicitly() {
    // An empty trace has exactly one (empty) feasible execution; the CLI
    // must say so instead of printing a vacuous relation report.
    let path = tmp("empty.trace.json");
    std::fs::write(
        &path,
        r#"{"events": [], "processes": [], "semaphores": [], "event_vars": [], "variables": []}"#,
    )
    .expect("writing empty trace");
    let text = eo(&["analyze", path.to_str().unwrap()]);
    assert_eq!(text.status.code(), Some(0));
    assert!(
        String::from_utf8_lossy(&text.stdout).contains("no events"),
        "stdout: {}",
        String::from_utf8_lossy(&text.stdout)
    );
    let json = eo(&["analyze", path.to_str().unwrap(), "--json"]);
    std::fs::remove_file(&path).ok();
    assert_eq!(json.status.code(), Some(0));
    let stdout = String::from_utf8_lossy(&json.stdout);
    assert!(
        stdout.contains(r#""note":"no events""#) && stdout.contains(r#""schema_version":2"#),
        "stdout: {stdout}"
    );
}

#[test]
fn serve_exit_codes_follow_the_worst_response() {
    let batch = tmp("serve-batch.json");
    // All-exact batch → 0.
    std::fs::write(
        &batch,
        r#"[{"id":1,"op":"mhb","a":0,"b":1},{"op":"summary"}]"#,
    )
    .expect("writing batch");
    let out = eo(&["serve", FIGURE1, "--batch", batch.to_str().unwrap()]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(stdout.lines().count(), 2, "one response per request");
    assert!(stdout.lines().all(|l| l.contains(r#""schema_version":2"#)));

    // A malformed request degrades the batch exit to 2 but the other
    // responses still come back.
    std::fs::write(&batch, r#"[{"op":"mhb","a":0,"b":1},{"op":"nope"}]"#).expect("writing batch");
    let out = eo(&["serve", FIGURE1, "--batch", batch.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert_eq!(String::from_utf8_lossy(&out.stdout).lines().count(), 2);

    // A budget that stops the search degrades rather than lies: still 2.
    std::fs::write(&batch, r#"[{"op":"ccw","a":3,"b":4}]"#).expect("writing batch");
    let out = eo(&[
        "serve",
        FIGURE1,
        "--batch",
        batch.to_str().unwrap(),
        "--timeout",
        "0",
        "--no-prefilter",
    ]);
    std::fs::remove_file(&batch).ok();
    assert_eq!(out.status.code(), Some(2));
    assert!(
        String::from_utf8_lossy(&out.stdout).contains(r#""status":"degraded""#),
        "stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );

    // Usage errors stay 1.
    assert_eq!(eo(&["serve"]).status.code(), Some(1));
    assert_eq!(eo(&["serve", "no-such.json"]).status.code(), Some(1));
}

#[test]
fn usage_errors_exit_one() {
    assert_eq!(eo(&["analyze"]).status.code(), Some(1));
    assert_eq!(eo(&["analyze", "no-such-file.json"]).status.code(), Some(1));
    assert_eq!(
        eo(&["analyze", FIGURE1, "--metrics-out"]).status.code(),
        Some(1),
        "--metrics-out without a path is a usage error"
    );
    assert_eq!(eo(&["frobnicate"]).status.code(), Some(1));
}

/// Runs `eo` with its stdout read end closed at once and asserts it
/// exits with `code` and no panic. Every caller's report is longer than a
/// pipe holds (64 KiB), so the writes after the read end closes fail with
/// EPIPE however the two processes are scheduled.
fn assert_quiet_on_closed_stdout(args: &[&str], code: i32) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_eo"))
        .args(args)
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawning eo");
    drop(child.stdout.take());
    let out = child.wait_with_output().expect("waiting for eo");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        !stderr.contains("panicked"),
        "eo {args:?}: stderr: {stderr}"
    );
    assert_eq!(
        out.status.code(),
        Some(code),
        "eo {args:?}: stderr: {stderr}"
    );
}

/// A trace JSON of `processes` unsynchronized root processes, each
/// running `per_process` Compute events; with `write`, every event writes
/// the one variable.
fn computes_trace_json(processes: usize, per_process: usize, write: bool) -> String {
    let writes = if write { "0" } else { "" };
    let events: Vec<String> = (0..processes * per_process)
        .map(|i| {
            let (p, k) = (i / per_process, i % per_process);
            format!(
                r#"{{"id":{i},"process":{p},"op":"Compute","reads":[],"writes":[{writes}],"label":"p{p}-op{k}"}}"#
            )
        })
        .collect();
    let processes: Vec<String> = (0..processes)
        .map(|p| format!(r#"{{"name":"p{p}","created_by":null}}"#))
        .collect();
    let variables = if write { r#"{"name":"x"}"# } else { "" };
    format!(
        r#"{{"events":[{}],"processes":[{}],"semaphores":[],"event_vars":[],"variables":[{variables}]}}"#,
        events.join(","),
        processes.join(",")
    )
}

#[test]
fn a_closed_stdout_ends_the_report_quietly() {
    // `eo analyze … | head -1`: the reader goes away mid-report. A
    // one-process trace of 1,500 events prints about 90 KB.
    let trace = tmp("long.trace.json");
    std::fs::write(&trace, computes_trace_json(1, 1500, false)).expect("writing the trace");
    assert_quiet_on_closed_stdout(&["analyze", trace.to_str().unwrap()], 0);
    std::fs::remove_file(&trace).ok();

    // `eo serve --batch … | head -1`: 3,000 answers of about 100 bytes.
    let batch = tmp("closed-stdout-batch.json");
    let requests: Vec<String> = (0..3000)
        .map(|i| {
            let (a, b) = (i % 7, (i / 7 + 1 + i % 7) % 7);
            let b = if a == b { (b + 1) % 7 } else { b };
            let op = ["mhb", "chb", "ccw"][i % 3];
            format!(r#"{{"id":{i},"op":"{op}","a":{a},"b":{b}}}"#)
        })
        .collect();
    std::fs::write(&batch, format!("[{}]", requests.join(","))).expect("writing the batch");
    assert_quiet_on_closed_stdout(&["serve", FIGURE1, "--batch", batch.to_str().unwrap()], 0);
    std::fs::remove_file(&batch).ok();

    // `eo races … | head -1`: two unsynchronized writers of 70 events each
    // race on all 4,900 cross pairs, one report line of about 20 bytes per
    // pair.
    let trace = tmp("racy.trace.json");
    std::fs::write(&trace, computes_trace_json(2, 70, true)).expect("writing the trace");
    assert_quiet_on_closed_stdout(&["races", trace.to_str().unwrap()], 0);
    std::fs::remove_file(&trace).ok();
}
