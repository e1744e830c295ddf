//! E12's state counts and E17's order counts as plain tests. Both are
//! deterministic per workload, so they gate here exactly, with no timing
//! in the way: the charted cut lattice of each E12 workload, and the
//! |F(P)| that `ExactEngine::try_summary` enumerates over that chart under
//! each equivalence strategy.

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
