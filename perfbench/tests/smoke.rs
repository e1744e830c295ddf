//! Smoke-size runs of every workload, untraced and traced, and a
//! corrupted answer on each, which the output checks must catch.

use eo_perfbench::analyze::Analyze;
use eo_perfbench::serve::{Serve, ServeSat};
use eo_perfbench::span::Tracer;
use eo_perfbench::tcp::ServerTcp;
use eo_perfbench::{report, run_workload, Size, Workload};

const SEED: u64 = 7;

fn smoke<W: Workload>(name: &str) {
    for trace in [false, true] {
        let o = run_workload::<W>(SEED, 0.2, trace, Size::Smoke).expect("smoke run");
        assert!(o.check_errors.is_empty(), "{name}: {:?}", o.check_errors);
        let (text, line) = report::render(name, SEED, 0.2, &o).expect("report renders");
        assert!(text.contains("output checks: passed"), "{text}");
        assert!(line.starts_with("{\"correct\": true, "), "{line}");
        let expected: Vec<&str> = if trace {
            report::per_layer_names().collect()
        } else {
            vec![
                "setup_s",
                "ops_per_s",
                "latency_p50_ms",
                "latency_tail_ms",
                "exact_ratio",
                "peak_rss_mb",
            ]
        };
        for metric in expected {
            assert!(
                line.contains(&format!("\"{metric}\": {{\"value\": ")),
                "{metric} missing: {line}"
            );
        }
        if trace {
            assert!(text.contains("largest layer: "), "{text}");
        }
    }
}

/// Sets up, runs and stops a smoke workload, then corrupts one recorded
/// answer: the checks must pass before and fail after.
fn caught<W: Workload>(corrupt: impl FnOnce(&mut W) -> bool) {
    let mut w = W::setup(SEED, Size::Smoke).expect("setup");
    let mut off = Tracer::new(false);
    w.run(0.1, &mut off).expect("run");
    w.finish(&mut off).expect("finish");
    assert!(w.check().is_empty(), "clean run must pass");
    assert!(corrupt(&mut w), "nothing to corrupt");
    assert!(!w.check().is_empty(), "corrupted answer went unnoticed");
}

#[test]
fn analyze_smoke() {
    smoke::<Analyze>("analyze");
}

#[test]
fn serve_smoke() {
    smoke::<Serve>("serve");
}

#[test]
fn serve_sat_smoke() {
    smoke::<ServeSat>("serve-sat");
}

#[test]
fn server_tcp_smoke() {
    smoke::<ServerTcp>("server-tcp");
}

#[test]
fn corrupted_answers_are_caught() {
    caught::<Analyze>(Analyze::corrupt);
    caught::<Serve>(Serve::corrupt);
    caught::<ServeSat>(|w| w.0.corrupt());
    caught::<ServerTcp>(ServerTcp::corrupt);
}
