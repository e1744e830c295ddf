//! The interruption contract of `eo analyze`: ^C (SIGINT) or SIGTERM
//! mid-analysis must produce the *sound degraded report* with reason
//! `cancelled` and exit code 2 — never a killed process, never a
//! corrupted or missing answer.

#![cfg(unix)]

use std::process::{Child, Command, Stdio};
use std::time::Duration;

#[path = "support/mod.rs"]
mod support;
use support::slow_trace_json;

/// CPU time the child spends before it is signalled. Parsing the small
/// fixture takes well under a millisecond, so by then the engine is
/// exploring, and the whole analysis takes over a second in any build.
const BUSY_CPU_MS: u64 = 100;

/// Returns once `child` is past argument parsing and into exploration
/// (the handler is installed before the engine starts, so any later
/// point is safe; this only makes "mid-analysis" true). On Linux that is
/// once the child has used [`BUSY_CPU_MS`] of CPU, which holds however
/// fast or loaded the host is; elsewhere a fixed 600 ms sleep stands in.
/// Panics if the child exits first.
fn wait_until_mid_analysis(child: &mut Child) {
    #[cfg(target_os = "linux")]
    while cpu_ms(child.id()).is_none_or(|ms| ms < BUSY_CPU_MS) {
        assert_still_running(child);
        std::thread::sleep(Duration::from_millis(2));
    }
    #[cfg(not(target_os = "linux"))]
    std::thread::sleep(Duration::from_millis(600));
    assert_still_running(child);
}

fn assert_still_running(child: &mut Child) {
    if let Some(status) = child.try_wait().expect("polling eo analyze") {
        panic!(
            "eo analyze exited ({status}) before it was signalled: \
             slow_trace_json() no longer runs long enough to interrupt"
        );
    }
}

/// The CPU time `pid` has used, user plus system, from `/proc/<pid>/stat`
/// (fields 14 and 15, in ticks of 1/100 s: the `USER_HZ` Linux reports on
/// every architecture this test runs on).
#[cfg(target_os = "linux")]
fn cpu_ms(pid: u32) -> Option<u64> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?;
    // The command name (field 2) may hold spaces; count from its `)`.
    let fields: Vec<&str> = stat[stat.rfind(')')? + 1..].split_whitespace().collect();
    let ticks = |field: usize| fields.get(field - 3)?.parse::<u64>().ok();
    Some((ticks(14)? + ticks(15)?) * 10)
}

#[test]
fn sigint_mid_analysis_yields_a_sound_degraded_report_and_exit_2() {
    let trace_path = std::env::temp_dir().join(format!(
        "eo-analyze-interrupt-{}.trace.json",
        std::process::id()
    ));
    std::fs::write(&trace_path, slow_trace_json()).expect("writing trace fixture");

    let mut child = Command::new(env!("CARGO_BIN_EXE_eo"))
        .arg("analyze")
        .arg(&trace_path)
        .args(["--ignore-deps", "--json"])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawning eo analyze");

    wait_until_mid_analysis(&mut child);
    let status = Command::new("kill")
        .args(["-INT", &child.id().to_string()])
        .status()
        .expect("running kill");
    assert!(status.success(), "kill -INT failed");

    let out = child.wait_with_output().expect("waiting for eo analyze");
    let _ = std::fs::remove_file(&trace_path);
    assert_eq!(
        out.status.code(),
        Some(2),
        "interrupted analyze must exit 2 (a degraded answer), not die on the signal; stdout: {}",
        String::from_utf8_lossy(&out.stdout)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let report = stdout
        .lines()
        .last()
        .expect("a report line on stdout")
        .to_owned();
    assert!(
        report.contains(r#""status":"degraded""#),
        "expected a degraded report, got: {report}"
    );
    assert!(
        report.contains(r#""reason":{"kind":"cancelled"}"#),
        "expected reason `cancelled`, got: {report}"
    );
}
