//! E12's state counts and peak bytes and E17's order counts as plain
//! tests. All are deterministic per workload, so they gate here with no
//! timing in the way: the charted cut lattice of each E12 workload, its
//! storage estimate, and the |F(P)| that `ExactEngine::try_summary`
//! enumerates over that chart under each equivalence strategy.

use eo_bench::e12_workloads;
use eo_engine::{explore_statespace, EquivStrategy, ExactEngine, SearchCtx};

/// The E12 workloads and the cut-lattice states each charts
/// (BENCH_engine.json).
const STATES: [(&str, usize); 6] = [
    ("e6-5x4", 666),
    ("e6-7x4", 2_624),
    ("e6-8x5", 4_771),
    ("e9-pitfall-6", 572),
    ("e9-pitfall-9", 4_604),
    ("e9-random-6x4", 4_015),
];

#[test]
fn e12_workloads_chart_their_pinned_state_counts() {
    let workloads = e12_workloads();
    let labels: Vec<&str> = workloads.iter().map(|(l, _, _)| l.as_str()).collect();
    let expected: Vec<&str> = STATES.iter().map(|&(l, _)| l).collect();
    assert_eq!(labels, expected, "the E12 workload set changed");
    for ((label, exec, mode), (_, states)) in workloads.iter().zip(STATES) {
        let space = explore_statespace(&SearchCtx::new(exec, *mode), 1 << 24).unwrap();
        assert_eq!(space.states, states, "{label}: cut-lattice states");
    }
}

/// E12's peak-bytes gate: the storage estimate of each workload's
/// state-space pass stays within 15% of BENCH_engine.json's committed
/// `interned_peak_bytes`, as `report -- check-regression` requires.
#[test]
fn e12_workloads_stay_within_their_committed_peak_bytes() {
    const PEAK_BYTES: [(&str, usize); 6] = [
        ("e6-5x4", 154_944),
        ("e6-7x4", 668_864),
        ("e6-8x5", 1_248_048),
        ("e9-pitfall-6", 146_256),
        ("e9-pitfall-9", 1_316_496),
        ("e9-random-6x4", 995_504),
    ];
    for ((label, exec, mode), (pinned, committed)) in e12_workloads().iter().zip(PEAK_BYTES) {
        assert_eq!(label, pinned, "the E12 workload set changed");
        let space = explore_statespace(&SearchCtx::new(exec, *mode), 1 << 24).unwrap();
        assert!(
            space.approx_heap_bytes * 100 <= committed * 115,
            "{label}: {} peak bytes, over 1.15 × the committed {committed}",
            space.approx_heap_bytes
        );
    }
}

/// `try_summary`'s |F(P)| on the E12 workloads equals E17's `orders`
/// (BENCH_equiv.json) under both strategies. Left out: Mazurkiewicz on
/// `e9-pitfall-9`, which truncates at the default cap of 2²⁰ schedules,
/// too many for an unoptimized test build.
#[test]
fn try_summary_counts_e17s_orders_under_both_strategies() {
    use EquivStrategy::{Mazurkiewicz, NormalForm};
    let rows = [
        ("e6-5x4", Mazurkiewicz, 2),
        ("e6-5x4", NormalForm, 2),
        ("e6-7x4", Mazurkiewicz, 12),
        ("e6-7x4", NormalForm, 12),
        ("e6-8x5", Mazurkiewicz, 80),
        ("e6-8x5", NormalForm, 80),
        ("e9-pitfall-6", Mazurkiewicz, 7),
        ("e9-pitfall-6", NormalForm, 7),
        ("e9-pitfall-9", NormalForm, 10),
        ("e9-random-6x4", Mazurkiewicz, 18),
        ("e9-random-6x4", NormalForm, 18),
    ];
    let workloads = e12_workloads();
    for (label, strategy, orders) in rows {
        let (_, exec, mode) = workloads
            .iter()
            .find(|(l, _, _)| l == label)
            .expect("an E12 workload");
        let summary = ExactEngine::with_mode(exec, *mode)
            .with_equiv(strategy)
            .try_summary()
            .unwrap_or_else(|e| panic!("{label} {strategy}: {e}"));
        assert_eq!(summary.class_count(), orders, "{label} {strategy}: |F(P)|");
        let states = STATES.iter().find(|&&(l, _)| l == label).unwrap().1;
        assert_eq!(summary.state_count(), states, "{label} {strategy}: states");
    }
}
