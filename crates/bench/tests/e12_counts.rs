//! E12's state counts and peak bytes and E17's order counts as plain
//! tests. All are deterministic per workload, so they gate here with no
//! timing in the way: the charted cut lattice of each E12 workload, its
//! storage estimate, the |F(P)| that `ExactEngine::try_summary`
//! enumerates over that chart under each equivalence strategy, and every
//! E17 row's orders, schedules and truncation flag.
//!
//! The E17 rows that take over 0.1 s in a release build run only in
//! builds without debug assertions:
//! `cargo test --release -p eo-bench --test e12_counts`.

use eo_bench::{e12_workloads, e17_workloads};
use eo_engine::{
    enumerate_classes_with, explore_statespace, EquivStrategy, ExactEngine, SearchCtx,
};
use EquivStrategy::{Mazurkiewicz, NormalForm};

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

/// One E17 row (BENCH_equiv.json): workload, strategy, then the orders,
/// schedules and truncation flag `enumerate_classes_with` reports at
/// E17's cap of 2²⁰ schedules.
type E17Row = (&'static str, EquivStrategy, usize, usize, bool);

/// The E17 rows that finish within 0.1 s in a release build.
const E17_FAST_ROWS: [E17Row; 23] = [
    ("independent_pair", Mazurkiewicz, 1, 1, false),
    ("independent_pair", NormalForm, 1, 1, false),
    ("sem_handshake", Mazurkiewicz, 1, 1, false),
    ("sem_handshake", NormalForm, 1, 1, false),
    ("fork_join_diamond", Mazurkiewicz, 1, 1, false),
    ("fork_join_diamond", NormalForm, 1, 1, false),
    ("figure1", Mazurkiewicz, 2, 2, false),
    ("figure1", NormalForm, 2, 2, false),
    ("post_wait_clear_chain", Mazurkiewicz, 10, 18, false),
    ("post_wait_clear_chain", NormalForm, 10, 10, false),
    ("shared_counter_race", Mazurkiewicz, 1, 1, false),
    ("shared_counter_race", NormalForm, 1, 1, false),
    ("crossing", Mazurkiewicz, 1, 1, false),
    ("crossing", NormalForm, 1, 1, false),
    ("e6-5x4", Mazurkiewicz, 2, 14, false),
    ("e6-5x4", NormalForm, 2, 2, false),
    ("e6-7x4", Mazurkiewicz, 12, 273, false),
    ("e6-7x4", NormalForm, 12, 12, false),
    ("e6-8x5", NormalForm, 80, 80, false),
    ("e9-pitfall-6", Mazurkiewicz, 7, 50_400, false),
    ("e9-pitfall-6", NormalForm, 7, 7, false),
    ("e9-pitfall-9", NormalForm, 10, 10, false),
    ("e9-random-6x4", NormalForm, 18, 18, false),
];

/// The E17 rows that take over 0.1 s in a release build.
const E17_SLOW_ROWS: [E17Row; 5] = [
    ("e6-8x5", Mazurkiewicz, 80, 3_222, false),
    ("e9-pitfall-9", Mazurkiewicz, 1, 1 << 20, true),
    ("e9-random-6x4", Mazurkiewicz, 18, 64_230, false),
    ("wide-pitfall-3x20", Mazurkiewicz, 1, 1 << 20, true),
    ("wide-pitfall-3x20", NormalForm, 4, 4, false),
];

/// Enumerates each row's workload under its strategy at E17's cap and
/// asserts the pinned counts.
fn assert_e17_rows(rows: &[E17Row]) {
    let workloads = e17_workloads();
    for &(label, strategy, orders, schedules, truncated) in rows {
        let (_, exec, mode) = workloads
            .iter()
            .find(|(l, _, _)| l == label)
            .expect("an E17 workload");
        let r = enumerate_classes_with(&SearchCtx::new(exec, *mode), 1 << 20, strategy);
        assert_eq!(r.orders.len(), orders, "{label} {strategy}: orders");
        assert_eq!(
            r.schedules_explored, schedules,
            "{label} {strategy}: schedules"
        );
        assert_eq!(r.truncated, truncated, "{label} {strategy}: truncated");
    }
}

/// The fast and slow rows together are every E17 row: each workload
/// under each strategy, once.
#[test]
fn e17_rows_cover_every_workload_and_strategy() {
    let mut pinned: Vec<String> = E17_FAST_ROWS
        .iter()
        .chain(&E17_SLOW_ROWS)
        .map(|(label, strategy, ..)| format!("{label} {strategy}"))
        .collect();
    pinned.sort();
    let mut all: Vec<String> = e17_workloads()
        .iter()
        .flat_map(|(label, ..)| EquivStrategy::ALL.map(|s| format!("{label} {s}")))
        .collect();
    all.sort();
    assert_eq!(pinned, all);
}

#[test]
fn e17_fast_rows_enumerate_their_pinned_counts() {
    assert_e17_rows(&E17_FAST_ROWS);
}

#[cfg(not(debug_assertions))]
#[test]
fn e17_slow_rows_enumerate_their_pinned_counts() {
    assert_e17_rows(&E17_SLOW_ROWS);
}
