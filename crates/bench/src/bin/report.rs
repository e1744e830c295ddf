//! Regenerates every experiment table (E1–E20 + ablations) and prints them
//! in the form recorded in EXPERIMENTS.md.
//!
//! ```text
//! cargo run --release -p eo-bench --bin report            # all experiments
//! cargo run --release -p eo-bench --bin report -- e3 e7   # a subset
//! cargo run --release -p eo-bench --features obs --bin report -- e14
//! cargo run --release -p eo-bench --bin report -- check-regression \
//!     [--baseline BENCH_engine.json]                      # the CI perf gate
//! ```
//!
//! `check-regression` re-measures the fixed E12 workloads and fails
//! (exit 1) if any workload's wall time regressed more than 25% relative
//! to the committed baseline — compared as baseline/interned speedup
//! ratios, so the verdict is machine-independent — or its peak bytes grew
//! more than 15%. When a committed `BENCH_equiv.json` is present (or
//! `--equiv-baseline <file>` is given), it also re-measures the E17
//! equivalence-strategy ablation and gates its class-count and time
//! ratios the same way. When a committed `BENCH_server.json` is present
//! (or `--server-baseline <file>` is given), it re-runs the E18 server
//! load/fault harness at smoke scale and gates its robustness
//! *invariants* — zero lost answers, byte parity with `eo serve`, total
//! rejection under zero quota, sound degradation, clean drain. When a
//! committed `BENCH_sat.json` is present (or `--sat-baseline <file>` is
//! given), it re-measures the E19 enumeration-vs-symbolic study and
//! gates its crossover (a workload the SAT backend won must stay won)
//! and its incremental-vs-fresh speedup (>25% loss fails).
//!
//! The experiments that record a `BENCH_*.json` (E12–E20) write it into
//! the current directory only when no such file exists there. Run from
//! the repository root, they keep the committed baseline and say so;
//! delete the file first to re-baseline.

use eo_bench::table::render;
use eo_bench::*;
use eo_lang::generator::SyncStyle;
use eo_model::fixtures;
use std::io::{ErrorKind, Write};
use std::path::Path;
use std::time::Duration;

fn ms(d: Duration) -> String {
    format!("{:.3}", d.as_secs_f64() * 1e3)
}

/// Writes an experiment's `BENCH_*.json` only when `path` is absent, and
/// otherwise keeps the file and says so.
fn write_baseline(path: &Path, json: &str) {
    let shown = path.display();
    match std::fs::File::create_new(path) {
        Ok(mut f) => {
            f.write_all(json.as_bytes())
                .unwrap_or_else(|e| panic!("write {shown}: {e}"));
            println!("wrote {shown}");
        }
        Err(e) if e.kind() == ErrorKind::AlreadyExists => {
            println!("kept {shown}: it already exists (delete it to re-baseline)");
        }
        Err(e) => panic!("create {shown}: {e}"),
    }
}

/// The perf-regression gate (CI's `perf-gate` job; also runnable locally).
/// Exits the process: 0 when every workload passes, 1 otherwise.
fn check_regression(args: &[String]) -> ! {
    let baseline_path = match args.iter().position(|a| a == "--baseline") {
        None => "BENCH_engine.json".to_string(),
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("check-regression: --baseline takes a file path");
                std::process::exit(1);
            }
        },
    };
    let baseline = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("check-regression: reading {baseline_path}: {e}");
            std::process::exit(1);
        }
    };
    println!("== perf-regression gate: re-measuring E12 against {baseline_path} ==");
    let current: Vec<_> = e12_workloads()
        .iter()
        .map(|(label, exec, mode)| e12_engine_point(label, exec, *mode))
        .collect();
    let checks = match check_regression_against(&baseline, &current) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("check-regression: {e}");
            std::process::exit(1);
        }
    };
    let mut rows = Vec::new();
    let mut failed = false;
    for c in &checks {
        rows.push(vec![
            c.workload.clone(),
            format!("{:.2}x", c.committed_speedup),
            format!("{:.2}x", c.current_speedup),
            c.committed_peak_bytes.to_string(),
            c.current_peak_bytes.to_string(),
            if c.failures.is_empty() {
                "ok".into()
            } else {
                "FAIL".into()
            },
        ]);
        for f in &c.failures {
            eprintln!("FAIL {}: {f}", c.workload);
            failed = true;
        }
    }
    println!(
        "{}",
        render(
            &[
                "workload",
                "committed",
                "measured",
                "committed_B",
                "measured_B",
                "verdict"
            ],
            &rows
        )
    );
    let equiv_baseline_path = match args.iter().position(|a| a == "--equiv-baseline") {
        None => "BENCH_equiv.json".to_string(),
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("check-regression: --equiv-baseline takes a file path");
                std::process::exit(1);
            }
        },
    };
    let mut gated = checks.len();
    match std::fs::read_to_string(&equiv_baseline_path) {
        Err(e) => {
            // The engine gate can run without the equivalence ablation
            // committed, but an explicitly named baseline must exist.
            if args.iter().any(|a| a == "--equiv-baseline") {
                eprintln!("check-regression: reading {equiv_baseline_path}: {e}");
                std::process::exit(1);
            }
            println!("(no {equiv_baseline_path}; skipping the equivalence-strategy gate)");
        }
        Ok(baseline) => {
            println!(
                "== equivalence-strategy gate: re-measuring E17 against {equiv_baseline_path} =="
            );
            let current = e17_rows();
            let echecks = match check_equiv_against(&baseline, &current) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("check-regression: {e}");
                    std::process::exit(1);
                }
            };
            let mut erows = Vec::new();
            for c in &echecks {
                erows.push(vec![
                    c.workload.clone(),
                    c.strategy.clone(),
                    format!("{:.2}", c.committed_redundancy),
                    format!("{:.2}", c.current_redundancy),
                    format!("{:.2}x", c.committed_speedup),
                    format!("{:.2}x", c.current_speedup),
                    if c.failures.is_empty() {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ]);
                for f in &c.failures {
                    eprintln!("FAIL {} [{}]: {f}", c.workload, c.strategy);
                    failed = true;
                }
            }
            println!(
                "{}",
                render(
                    &[
                        "workload",
                        "strategy",
                        "committed_s/o",
                        "measured_s/o",
                        "committed",
                        "measured",
                        "verdict"
                    ],
                    &erows
                )
            );
            gated += echecks.len();
        }
    }
    let server_baseline_path = match args.iter().position(|a| a == "--server-baseline") {
        None => "BENCH_server.json".to_string(),
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("check-regression: --server-baseline takes a file path");
                std::process::exit(1);
            }
        },
    };
    match std::fs::read_to_string(&server_baseline_path) {
        Err(e) => {
            // Same contract as the equivalence gate: optional unless named.
            if args.iter().any(|a| a == "--server-baseline") {
                eprintln!("check-regression: reading {server_baseline_path}: {e}");
                std::process::exit(1);
            }
            println!("(no {server_baseline_path}; skipping the server-robustness gate)");
        }
        Ok(baseline) => {
            println!(
                "== server-robustness gate: smoke-scale E18 against {server_baseline_path} =="
            );
            // The gate re-runs the harness at smoke scale and checks
            // *invariants* (nothing lost, byte parity, total rejection
            // under zero quota, sound degradation, clean drain) — not
            // machine-dependent throughput numbers.
            let current = e18_server_load(&ServerLoadConfig::smoke());
            let schecks = match check_server_against(&baseline, &current) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("check-regression: {e}");
                    std::process::exit(1);
                }
            };
            let mut srows = Vec::new();
            for c in &schecks {
                srows.push(vec![
                    c.invariant.clone(),
                    c.committed.clone(),
                    c.current.clone(),
                    if c.failures.is_empty() {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ]);
                for f in &c.failures {
                    eprintln!("FAIL {}: {f}", c.invariant);
                    failed = true;
                }
            }
            println!(
                "{}",
                render(&["invariant", "committed", "measured", "verdict"], &srows)
            );
            gated += schecks.len();
        }
    }
    let sat_baseline_path = match args.iter().position(|a| a == "--sat-baseline") {
        None => "BENCH_sat.json".to_string(),
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("check-regression: --sat-baseline takes a file path");
                std::process::exit(1);
            }
        },
    };
    match std::fs::read_to_string(&sat_baseline_path) {
        Err(e) => {
            // Same contract as the equivalence gate: optional unless named.
            if args.iter().any(|a| a == "--sat-baseline") {
                eprintln!("check-regression: reading {sat_baseline_path}: {e}");
                std::process::exit(1);
            }
            println!("(no {sat_baseline_path}; skipping the symbolic-backend gate)");
        }
        Ok(baseline) => {
            println!("== symbolic-backend gate: re-measuring E19 against {sat_baseline_path} ==");
            let current: Vec<_> = e19_workloads()
                .iter()
                .map(|(label, exec, mode)| e19_sat_point(label, exec, *mode))
                .collect();
            let satchecks = match check_sat_against(&baseline, &current) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("check-regression: {e}");
                    std::process::exit(1);
                }
            };
            let mut satrows = Vec::new();
            for c in &satchecks {
                satrows.push(vec![
                    c.workload.clone(),
                    c.committed_sat_wins.to_string(),
                    c.current_sat_wins.to_string(),
                    format!("{:.2}x", c.committed_incremental_speedup),
                    format!("{:.2}x", c.current_incremental_speedup),
                    if c.failures.is_empty() {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ]);
                for f in &c.failures {
                    eprintln!("FAIL {}: {f}", c.workload);
                    failed = true;
                }
            }
            println!(
                "{}",
                render(
                    &[
                        "workload",
                        "sat_won",
                        "sat_wins",
                        "committed",
                        "measured",
                        "verdict"
                    ],
                    &satrows
                )
            );
            gated += satchecks.len();
        }
    }
    let prim_baseline_path = match args.iter().position(|a| a == "--primitives-baseline") {
        None => "BENCH_primitives.json".to_string(),
        Some(i) => match args.get(i + 1) {
            Some(p) => p.clone(),
            None => {
                eprintln!("check-regression: --primitives-baseline takes a file path");
                std::process::exit(1);
            }
        },
    };
    match std::fs::read_to_string(&prim_baseline_path) {
        Err(e) => {
            // Same contract as the other optional gates.
            if args.iter().any(|a| a == "--primitives-baseline") {
                eprintln!("check-regression: reading {prim_baseline_path}: {e}");
                std::process::exit(1);
            }
            println!("(no {prim_baseline_path}; skipping the surface-primitive gate)");
        }
        Ok(baseline) => {
            println!("== surface-primitive gate: re-measuring E20 against {prim_baseline_path} ==");
            let current: Vec<_> = e20_workloads()
                .iter()
                .map(|(label, spec)| e20_point(label, spec))
                .collect();
            let pchecks = match check_primitives_against(&baseline, &current) {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("check-regression: {e}");
                    std::process::exit(1);
                }
            };
            let mut prows = Vec::new();
            for c in &pchecks {
                prows.push(vec![
                    c.workload.clone(),
                    c.committed_shape.clone(),
                    c.current_shape.clone(),
                    if c.failures.is_empty() {
                        "ok".into()
                    } else {
                        "FAIL".into()
                    },
                ]);
                for f in &c.failures {
                    eprintln!("FAIL {}: {f}", c.workload);
                    failed = true;
                }
            }
            println!(
                "{}",
                render(&["workload", "committed", "measured", "verdict"], &prows)
            );
            gated += pchecks.len();
        }
    }
    if failed {
        eprintln!("perf-regression gate FAILED");
        std::process::exit(1);
    }
    println!("perf-regression gate passed ({gated} rows)");
    std::process::exit(0);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-regression") {
        check_regression(&args[1..]);
    }
    let want = |name: &str| args.is_empty() || args.iter().any(|a| a == name);

    if want("e1") {
        let r = e1_figure1();
        println!("== E1: Figure 1 — who sees the forced ordering between the two Posts? ==");
        let rows = vec![
            vec!["EGP task graph".into(), r.egp_orders_posts.to_string()],
            vec!["HMW safe orderings".into(), r.hmw_orders_posts.to_string()],
            vec!["vector clocks".into(), r.vc_orders_posts.to_string()],
            vec![
                "exact MHB (preserve →D)".into(),
                r.exact_mhb_posts.to_string(),
            ],
            vec![
                "exact MHB (ignore →D, §5.3)".into(),
                r.exact_mhb_posts_ignoring_d.to_string(),
            ],
            vec![
                "EGP fork→Wait (solid line)".into(),
                r.egp_fork_before_wait.to_string(),
            ],
            vec![
                "C&S static (on the program)".into(),
                r.cs_orders_posts.to_string(),
            ],
        ];
        println!("{}", render(&["analysis", "orders the Posts?"], &rows));
    }

    if want("e2") {
        println!(
            "== E2: Table 1 relations materialized on the fixture gallery (ordered-pair counts) =="
        );
        let rows: Vec<Vec<String>> = e2_table1()
            .into_iter()
            .map(|r| {
                vec![
                    r.fixture.into(),
                    r.events.to_string(),
                    r.classes.to_string(),
                    r.mhb.to_string(),
                    r.chb.to_string(),
                    r.mcw.to_string(),
                    r.ccw.to_string(),
                    r.mow.to_string(),
                    r.cow.to_string(),
                ]
            })
            .collect();
        println!(
            "{}",
            render(
                &["fixture", "|E|", "|F|", "MHB", "CHB", "MCW", "CCW", "MOW", "COW"],
                &rows
            )
        );
    }

    for (tag, kind, title) in [
        (
            "e3",
            ReductionKind::Semaphore,
            "E3/E4: Theorems 1–2 (semaphores) — a MHB b ⇔ unsat, b CHB a ⇔ sat",
        ),
        (
            "e5",
            ReductionKind::EventStyle,
            "E5: Theorems 3–4 (Post/Wait/Clear) — same claims",
        ),
    ] {
        if want(tag) {
            println!("== {title} ==");
            let rows: Vec<Vec<String>> = theorem_sweep(kind, &[(3, 2), (3, 3), (4, 4)], 3)
                .into_iter()
                .map(|r| {
                    vec![
                        format!("{}v/{}c", r.n_vars, r.n_clauses),
                        r.seed.to_string(),
                        r.events.to_string(),
                        r.sat.to_string(),
                        r.mhb_ab.to_string(),
                        r.chb_ba.to_string(),
                        r.consistent.to_string(),
                        ms(r.mhb_time),
                        ms(r.chb_time),
                        ms(r.dpll_time),
                    ]
                })
                .collect();
            println!(
                "{}",
                render(
                    &[
                        "size", "seed", "|E|", "sat", "aMHBb", "bCHBa", "ok", "mhb_ms", "chb_ms",
                        "dpll_ms"
                    ],
                    &rows
                )
            );
        }
    }

    if want("e6") {
        println!("== E6: exact (exponential) vs polynomial analyses, semaphore workloads ==");
        let mut rows = Vec::new();
        for (procs, epp) in [(2usize, 4usize), (3, 4), (4, 4), (5, 4), (6, 4), (7, 4)] {
            let r = e6_point(procs, epp, 7);
            rows.push(vec![
                r.processes.to_string(),
                r.events.to_string(),
                r.states.to_string(),
                r.classes.map_or("> budget".into(), |c| c.to_string()),
                ms(r.space_time),
                r.classes_time.map_or("—".into(), ms),
                ms(r.hmw_time),
                ms(r.vc_time),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "procs",
                    "|E|",
                    "states",
                    "|F|",
                    "space_ms",
                    "classes_ms",
                    "hmw_ms",
                    "vc_ms"
                ],
                &rows
            )
        );
    }

    if want("e7") {
        println!("== E7: baseline precision vs exact MHB (dependence-ignoring ground truth) ==");
        let mut rows = Vec::new();
        for style in [SyncStyle::Semaphores, SyncStyle::Events] {
            for r in e7_quality(style, 8) {
                let completeness = if r.exact_mhb_pairs == 0 {
                    "n/a".to_string()
                } else {
                    format!(
                        "{:.1}%",
                        100.0 * r.baseline_found as f64 / r.exact_mhb_pairs as f64
                    )
                };
                rows.push(vec![
                    r.style.into(),
                    r.baseline.into(),
                    r.traces.to_string(),
                    r.exact_mhb_pairs.to_string(),
                    r.baseline_found.to_string(),
                    completeness,
                    r.baseline_unsound.to_string(),
                ]);
            }
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "baseline",
                    "traces",
                    "exact_pairs",
                    "found",
                    "completeness",
                    "unsound"
                ],
                &rows
            )
        );
    }

    if want("e8") {
        println!("== E8: single counting semaphore — sequencing feasibility ⇔ b CHB a ==");
        let mut rows = Vec::new();
        for jobs in [3usize, 4, 5] {
            for seed in 0..3u64 {
                let r = e8_point(jobs, seed);
                rows.push(vec![
                    r.jobs.to_string(),
                    r.seed.to_string(),
                    r.feasible.to_string(),
                    r.consistent.to_string(),
                    ms(r.engine_time),
                    ms(r.dp_time),
                ]);
            }
        }
        println!(
            "{}",
            render(
                &["jobs", "seed", "feasible", "ok", "engine_ms", "dp_ms"],
                &rows
            )
        );
    }

    if want("e9") {
        println!("== E9: exhaustive vs vector-clock race detection ==");
        println!("(rows 'pitfall-k': k decoy V's hide the feasible race from the clocks)");
        let mut rows = Vec::new();
        for decoys in [1usize, 2, 4] {
            let r = e9_pitfall(decoys);
            rows.push(vec![
                format!("pitfall-{decoys}"),
                r.events.to_string(),
                r.candidates.to_string(),
                r.exact_races.to_string(),
                r.vc_races.to_string(),
                r.missed_by_vc.to_string(),
                r.spurious_in_vc.to_string(),
                ms(r.exact_time),
                ms(r.vc_time),
            ]);
        }
        for seed in 0..8u64 {
            let r = e9_point(seed);
            rows.push(vec![
                format!("random-{}", r.seed),
                r.events.to_string(),
                r.candidates.to_string(),
                r.exact_races.to_string(),
                r.vc_races.to_string(),
                r.missed_by_vc.to_string(),
                r.spurious_in_vc.to_string(),
                ms(r.exact_time),
                ms(r.vc_time),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "workload", "|E|", "cands", "exact", "vc", "missed", "spurious", "exact_ms",
                    "vc_ms"
                ],
                &rows
            )
        );
    }

    if want("e10") {
        println!("== E10: the open problem probed — event workloads with vs without Clear ==");
        let mut rows = Vec::new();
        for clears in [false, true] {
            let r = e10_no_clear(clears, 8);
            let completeness = if r.exact_mhb_pairs == 0 {
                "n/a".to_string()
            } else {
                format!(
                    "{:.1}%",
                    100.0 * r.egp_found as f64 / r.exact_mhb_pairs as f64
                )
            };
            rows.push(vec![
                if clears { "with Clear" } else { "no Clear" }.into(),
                r.traces.to_string(),
                r.exact_mhb_pairs.to_string(),
                r.egp_found.to_string(),
                completeness,
                r.total_classes.to_string(),
                r.deadlockable.to_string(),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "family",
                    "traces",
                    "exact_pairs",
                    "egp_found",
                    "egp_compl",
                    "Σ|F|",
                    "deadlockable"
                ],
                &rows
            )
        );
        let adv = e10_adversarial();
        println!(
            "adversarial instance (Theorem 3 program, unsat formula): \
             exact a MHB b = {}, EGP = {}, clocks = {}\n",
            adv.exact_mhb, adv.egp_mhb, adv.vc_mhb
        );
    }

    if want("e11") {
        println!("== E11: race detection with vs without static candidate pruning ==");
        println!("(both sides return the identical race set — asserted per row)");
        let mut rows = Vec::new();
        for (label, program) in e11_workloads() {
            let r = e11_point(&label, &program);
            rows.push(vec![
                r.label,
                r.events.to_string(),
                r.candidates.to_string(),
                r.pruned.to_string(),
                r.engine_queries.to_string(),
                r.races.to_string(),
                ms(r.unpruned_time),
                ms(r.pruned_time),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "|E|",
                    "cands",
                    "pruned",
                    "queries",
                    "races",
                    "unpruned_ms",
                    "pruned_ms"
                ],
                &rows
            )
        );
    }

    if want("ablation") {
        println!("== Ablation: sleep-set pruning ==");
        let gallery = vec![
            ("diamond", fixtures::fork_join_diamond().0),
            ("crossing", fixtures::crossing().0),
            ("figure1", fixtures::figure1().0),
        ];
        let mut prows = Vec::new();
        for (label, trace) in gallery {
            let exec = trace.to_execution().unwrap();
            let p = ablation_pruning(label, &exec);
            prows.push(vec![
                p.label.clone(),
                p.classes.to_string(),
                p.pruned_schedules.to_string(),
                p.naive_schedules.to_string(),
                ms(p.pruned_time),
                ms(p.naive_time),
            ]);
        }
        // Pruning also on a generated workload (bigger gap).
        {
            let mut spec = eo_lang::generator::WorkloadSpec::small_semaphore(3);
            spec.processes = 4;
            spec.events_per_process = 3;
            let exec = eo_lang::generator::generate_trace(&spec, 100)
                .to_execution()
                .unwrap();
            let p = ablation_pruning("workload-4x3", &exec);
            prows.push(vec![
                p.label.clone(),
                p.classes.to_string(),
                p.pruned_schedules.to_string(),
                p.naive_schedules.to_string(),
                ms(p.pruned_time),
                ms(p.naive_time),
            ]);
        }
        println!(
            "{}",
            render(
                &[
                    "input",
                    "|F|",
                    "pruned_scheds",
                    "naive_scheds",
                    "pruned_ms",
                    "naive_ms"
                ],
                &prows
            )
        );
    }

    if want("e12") {
        println!(
            "== E12: engine hot-path overhaul — interned explorer vs pre-overhaul baseline =="
        );
        println!("(results asserted bit-identical per row; best-of-5 timings)");
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        for (label, exec, mode) in e12_workloads() {
            let r = e12_engine_point(&label, &exec, mode);
            rows.push(vec![
                r.label.clone(),
                r.events.to_string(),
                r.states.to_string(),
                ms(r.baseline_time),
                ms(r.interned_time),
                format!("{:.2}x", r.speedup()),
                (r.baseline_bytes / 1024).to_string(),
                (r.interned_bytes / 1024).to_string(),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, \"states\": {}, ",
                    "\"baseline_ms\": {:.3}, \"interned_ms\": {:.3}, \"speedup\": {:.2}, ",
                    "\"baseline_events_per_sec\": {:.0}, \"interned_events_per_sec\": {:.0}, ",
                    "\"baseline_states_per_sec\": {:.0}, \"interned_states_per_sec\": {:.0}, ",
                    "\"baseline_peak_bytes\": {}, \"interned_peak_bytes\": {}}}"
                ),
                r.label,
                r.events,
                r.states,
                r.baseline_time.as_secs_f64() * 1e3,
                r.interned_time.as_secs_f64() * 1e3,
                r.speedup(),
                r.events_per_sec(r.baseline_time),
                r.events_per_sec(r.interned_time),
                r.states_per_sec(r.baseline_time),
                r.states_per_sec(r.interned_time),
                r.baseline_bytes,
                r.interned_bytes,
            ));
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "|E|",
                    "states",
                    "baseline_ms",
                    "interned_ms",
                    "speedup",
                    "base_KiB",
                    "int_KiB"
                ],
                &rows
            )
        );
        let json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e12_engine_hot_path\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_engine.json"), &json);
    }

    if want("e17") {
        println!("== E17: trace-equivalence ablation — schedules explored per strategy ==");
        println!("(order sets asserted identical across finishing strategies per workload)");
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        for r in e17_rows() {
            rows.push(vec![
                r.workload.clone(),
                r.strategy.to_string(),
                r.events.to_string(),
                r.orders.to_string(),
                r.schedules.to_string(),
                format!("{:.2}", r.redundancy()),
                if r.truncated {
                    "TRUNC".into()
                } else {
                    "exact".into()
                },
                ms(r.time),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"strategy\": \"{}\", \"events\": {}, ",
                    "\"orders\": {}, \"schedules\": {}, \"redundancy\": {:.4}, ",
                    "\"truncated\": {}, \"time_ms\": {:.3}}}"
                ),
                r.workload,
                r.strategy.label(),
                r.events,
                r.orders,
                r.schedules,
                r.redundancy(),
                r.truncated,
                r.time.as_secs_f64() * 1e3,
            ));
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "strategy",
                    "|E|",
                    "orders",
                    "schedules",
                    "sched/order",
                    "status",
                    "time_ms"
                ],
                &rows
            )
        );
        let json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e17_trace_equivalence\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_equiv.json"), &json);
    }

    if want("e13") {
        println!(
            "== E13: graceful degradation — pairwise facts decided under 10% / 50% deadlines =="
        );
        println!("(every degraded answer is consistency-checked against the unbudgeted oracle)");
        let pct = |p: &DegradedPoint| {
            if p.exact {
                "exact".to_string()
            } else {
                format!("{:.1}%", p.decided_fraction * 100.0)
            }
        };
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        for r in e13_degradation() {
            rows.push(vec![
                r.label.clone(),
                r.events.to_string(),
                r.full_states.to_string(),
                ms(r.full_time),
                pct(&r.at_10pct),
                r.at_10pct.states_explored.to_string(),
                pct(&r.at_50pct),
                r.at_50pct.states_explored.to_string(),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, \"full_states\": {}, ",
                    "\"full_ms\": {:.3}, ",
                    "\"at_10pct\": {{\"exact\": {}, \"decided_fraction\": {:.4}, ",
                    "\"states_explored\": {}}}, ",
                    "\"at_50pct\": {{\"exact\": {}, \"decided_fraction\": {:.4}, ",
                    "\"states_explored\": {}}}}}"
                ),
                r.label,
                r.events,
                r.full_states,
                r.full_time.as_secs_f64() * 1e3,
                r.at_10pct.exact,
                r.at_10pct.decided_fraction,
                r.at_10pct.states_explored,
                r.at_50pct.exact,
                r.at_50pct.decided_fraction,
                r.at_50pct.states_explored,
            ));
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "|E|",
                    "states",
                    "full_ms",
                    "decided@10%",
                    "st@10%",
                    "decided@50%",
                    "st@50%"
                ],
                &rows
            )
        );
        let json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e13_degradation\",\n  \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_degradation.json"), &json);
    }

    if want("e14") {
        println!("== E14: observability overhead — interned explorer, recording off vs on ==");
        println!("(results asserted bit-identical per row; best-of-7 timings)");
        let results = e14_obs_overhead();
        let armed = results.iter().any(|r| r.recording_armed);
        if !armed {
            println!("(binary built without the `obs` feature: both legs are identical code)");
        }
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        let (mut total_off, mut total_on) = (0.0f64, 0.0f64);
        for r in &results {
            total_off += r.off_time.as_secs_f64();
            total_on += r.on_time.as_secs_f64();
            rows.push(vec![
                r.label.clone(),
                r.events.to_string(),
                r.states.to_string(),
                ms(r.off_time),
                ms(r.on_time),
                format!("{:+.2}%", r.overhead_pct()),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, \"states\": {}, ",
                    "\"off_ms\": {:.3}, \"on_ms\": {:.3}, \"overhead_pct\": {:.2}}}"
                ),
                r.label,
                r.events,
                r.states,
                r.off_time.as_secs_f64() * 1e3,
                r.on_time.as_secs_f64() * 1e3,
                r.overhead_pct(),
            ));
        }
        println!(
            "{}",
            render(
                &["workload", "|E|", "states", "off_ms", "on_ms", "overhead"],
                &rows
            )
        );
        let total_pct = (total_on / total_off - 1.0) * 100.0;
        let json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e14_obs_overhead\",\n  \"recording_armed\": {},\n  \
             \"total_off_ms\": {:.3},\n  \"total_on_ms\": {:.3},\n  \
             \"total_overhead_pct\": {:.2},\n  \"rows\": [\n{}\n  ]\n}}\n",
            armed,
            total_off * 1e3,
            total_on * 1e3,
            total_pct,
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_obs.json"), &json);
        println!("aggregate overhead {total_pct:+.2}%");
        // The DESIGN.md §9 contract: ≤2% aggregate overhead with the
        // feature on (and noise-level with it off). Aggregate, not
        // per-row — sub-millisecond rows are pure jitter.
        assert!(
            total_pct <= 2.0,
            "observability overhead {total_pct:.2}% exceeds the 2% budget"
        );
    }

    if want("e15") {
        println!("== E15: eo-serve — batch of 100 queries, one session vs 100 cold engine runs ==");
        println!("(answers asserted bit-identical per query; best-of-3 timings)");
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        let mut e6_5x4_speedup = None;
        for (label, exec, mode) in e12_workloads() {
            let r = e15_serve_point(&label, &exec, mode);
            if r.label == "e6-5x4" {
                e6_5x4_speedup = Some(r.speedup());
            }
            rows.push(vec![
                r.label.clone(),
                r.events.to_string(),
                r.queries.to_string(),
                ms(r.cold_time),
                ms(r.batch_time),
                format!("{:.2}x", r.speedup()),
                r.cache_hits.to_string(),
                r.prefilter_hits.to_string(),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, \"queries\": {}, ",
                    "\"cold_ms\": {:.3}, \"batch_ms\": {:.3}, \"speedup\": {:.2}, ",
                    "\"cache_hits\": {}, \"prefilter_hits\": {}}}"
                ),
                r.label,
                r.events,
                r.queries,
                r.cold_time.as_secs_f64() * 1e3,
                r.batch_time.as_secs_f64() * 1e3,
                r.speedup(),
                r.cache_hits,
                r.prefilter_hits,
            ));
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "|E|",
                    "queries",
                    "cold_ms",
                    "batch_ms",
                    "speedup",
                    "hits",
                    "prefilter"
                ],
                &rows
            )
        );
        let json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e15_serve_batching\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_serve.json"), &json);
        // The tentpole's acceptance bar: batching must amortize at least
        // 10x on the e6-5x4 workload.
        let speedup = e6_5x4_speedup.expect("e12_workloads always includes e6-5x4");
        assert!(
            speedup >= 10.0,
            "serve batching speedup {speedup:.2}x on e6-5x4 is below the 10x bar"
        );
    }

    if want("e16") {
        println!("== E16: static MHP prefilter — zero-exploration race refutation ==");
        println!(
            "(race sets asserted bit-identical per row; every static ordering \
             checked against the §5.3 dependence-ignoring oracle)"
        );
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        let mut sem_static_refuted = 0usize;
        for (label, program) in e16_workloads() {
            let r = e16_point(&label, &program);
            if r.label != "figure1" {
                sem_static_refuted += r.static_refuted;
            }
            rows.push(vec![
                r.label.clone(),
                r.events.to_string(),
                r.stmts.to_string(),
                r.candidates.to_string(),
                r.cs_pruned.to_string(),
                r.mhp_pruned.to_string(),
                r.static_refuted.to_string(),
                r.engine_queries.to_string(),
                r.races.to_string(),
                ms(r.unpruned_time),
                ms(r.mhp_time),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, \"stmts\": {}, ",
                    "\"candidates\": {}, \"cs_pruned\": {}, \"mhp_pruned\": {}, ",
                    "\"static_refuted\": {}, \"engine_queries\": {}, \"races\": {}, ",
                    "\"static_ordered_pairs\": {}, \"exact_mhb_pairs\": {}, ",
                    "\"unpruned_ms\": {:.3}, \"cs_ms\": {:.3}, \"mhp_ms\": {:.3}}}"
                ),
                r.label,
                r.events,
                r.stmts,
                r.candidates,
                r.cs_pruned,
                r.mhp_pruned,
                r.static_refuted,
                r.engine_queries,
                r.races.to_string(),
                r.static_ordered_pairs,
                r.exact_mhb_pairs,
                r.unpruned_time.as_secs_f64() * 1e3,
                r.cs_time.as_secs_f64() * 1e3,
                r.mhp_time.as_secs_f64() * 1e3,
            ));
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "|E|",
                    "stmts",
                    "cands",
                    "cs",
                    "mhp",
                    "static",
                    "queries",
                    "races",
                    "unpruned_ms",
                    "mhp_ms"
                ],
                &rows
            )
        );
        let json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e16_static_mhp_prefilter\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_mhp.json"), &json);
        // The tentpole's acceptance bar: the static tier must discharge
        // real work — candidates refuted with zero exploration — on the
        // E9-style semaphore workloads.
        assert!(
            sem_static_refuted > 0,
            "the static MHP tier refuted no candidates on the E9-style semaphore workloads"
        );
    }

    if want("e19") {
        println!("== E19: enumeration vs symbolic — exact session vs incremental SAT session ==");
        println!(
            "(decisions asserted bit-identical across all three runs per row; \
             exact best-of-3, SAT best-of-11 timings; sweep ordered by state-space size)"
        );
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        let mut best_incremental = 0.0f64;
        for (label, exec, mode) in e19_workloads() {
            let r = e19_sat_point(&label, &exec, mode);
            best_incremental = best_incremental.max(r.incremental_speedup());
            rows.push(vec![
                r.workload.clone(),
                r.events.to_string(),
                r.queries.to_string(),
                ms(r.exact_time),
                ms(r.sat_batch_time),
                ms(r.sat_fresh_time),
                format!("{:.2}x", r.incremental_speedup()),
                r.kept_schedules.to_string(),
                if r.sat_wins { "sat" } else { "exact" }.into(),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"events\": {}, \"queries\": {}, ",
                    "\"exact_ms\": {:.3}, \"sat_batch_ms\": {:.3}, \"sat_fresh_ms\": {:.3}, ",
                    "\"incremental_speedup\": {:.2}, \"kept_schedules\": {}, \"sat_wins\": {}}}"
                ),
                r.workload,
                r.events,
                r.queries,
                r.exact_time.as_secs_f64() * 1e3,
                r.sat_batch_time.as_secs_f64() * 1e3,
                r.sat_fresh_time.as_secs_f64() * 1e3,
                r.incremental_speedup(),
                r.kept_schedules,
                r.sat_wins,
            ));
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "|E|",
                    "queries",
                    "exact_ms",
                    "sat_batch_ms",
                    "sat_fresh_ms",
                    "incremental",
                    "kept",
                    "winner"
                ],
                &rows
            )
        );
        let json = format!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e19_symbolic_backend\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_sat.json"), &json);
        // The tentpole's acceptance bar: sharing one formula and its
        // learned clauses across a batch must amortize at least 2x over
        // re-encoding per query somewhere in the sweep.
        assert!(
            best_incremental >= 2.0,
            "best incremental speedup {best_incremental:.2}x is below the 2x bar"
        );
    }

    if want("e20") {
        println!("== E20: surface primitives — desugaring overhead and backend agreement ==");
        println!(
            "(deterministic specs; order counts are exact; SAT answers asserted \
             bit-identical to the exact session; best-of-3 timings)"
        );
        let mut rows = Vec::new();
        let mut json_rows = Vec::new();
        for (label, spec) in e20_workloads() {
            let r = e20_point(&label, &spec);
            rows.push(vec![
                r.workload.clone(),
                format!("{}\u{2192}{}", r.surface_stmts, r.core_stmts),
                format!("{:.2}x", r.expansion()),
                r.events.to_string(),
                r.exact_orders.to_string(),
                r.relaxed_orders.to_string(),
                ms(r.exact_time),
                ms(r.sat_time),
            ]);
            json_rows.push(format!(
                concat!(
                    "    {{\"workload\": \"{}\", \"surface_stmts\": {}, \"core_stmts\": {}, ",
                    "\"expansion\": {:.2}, \"events\": {}, \"exact_orders\": {}, ",
                    "\"relaxed_orders\": {}, \"exact_ms\": {:.3}, \"sat_ms\": {:.3}}}"
                ),
                r.workload,
                r.surface_stmts,
                r.core_stmts,
                r.expansion(),
                r.events,
                r.exact_orders,
                r.relaxed_orders,
                r.exact_time.as_secs_f64() * 1e3,
                r.sat_time.as_secs_f64() * 1e3,
            ));
            // The §5.3 relaxation can only grow the order space.
            assert!(
                r.relaxed_orders >= r.exact_orders,
                "{}: ignoring dependences shrank F(P)",
                r.workload
            );
        }
        println!(
            "{}",
            render(
                &[
                    "workload",
                    "stmts",
                    "expansion",
                    "|E|",
                    "orders",
                    "orders(no-D)",
                    "exact_ms",
                    "sat_ms"
                ],
                &rows
            )
        );
        let json = format!(
            "{{\n  \"schema_version\": 2,\n  \"experiment\": \"e20_surface_primitives\",\n  \
             \"rows\": [\n{}\n  ]\n}}\n",
            json_rows.join(",\n")
        );
        write_baseline(Path::new("BENCH_primitives.json"), &json);
    }

    if want("e18") {
        println!("== E18: network server under load and fault injection ==");
        println!(
            "(a million pipelined queries, thousands of clients, a hostile cohort; \
             every well-formed query must be answered, a verification cohort \
             byte-identical to `eo serve`)"
        );
        let r = e18_server_load(&ServerLoadConfig::full());
        println!(
            "{}",
            render(
                &[
                    "clients", "faulty", "queries", "answered", "lost", "qps", "p50_us", "p99_us",
                    "p999_us", "parity"
                ],
                &[vec![
                    r.good_clients.to_string(),
                    r.fault_clients.to_string(),
                    r.queries.to_string(),
                    r.answered.to_string(),
                    r.lost.to_string(),
                    format!("{:.0}", r.qps),
                    r.p50_us.to_string(),
                    r.p99_us.to_string(),
                    r.p999_us.to_string(),
                    r.parity_ok.to_string(),
                ]]
            )
        );
        println!(
            "{}",
            render(
                &[
                    "bad_frames",
                    "shed",
                    "timeout_kills",
                    "rejected",
                    "degraded",
                    "evictions",
                    "orphaned",
                    "drained_clean"
                ],
                &[vec![
                    r.report.bad_frames.to_string(),
                    r.report.shed.to_string(),
                    r.report.timeout_kills.to_string(),
                    format!("{}/{}", r.admission_rejected, r.admission_queries),
                    format!("{}/{}", r.degradation_degraded, r.degradation_queries),
                    r.report.evictions.to_string(),
                    r.report.orphaned.to_string(),
                    r.report.drained_clean.to_string(),
                ]]
            )
        );
        let json = server_load_json(&r);
        write_baseline(Path::new("BENCH_server.json"), &json);
        // The tentpole's acceptance bars: nothing lost, byte parity with
        // the one-shot path, hostility absorbed, drain clean.
        assert_eq!(r.lost, 0, "a well-formed query went unanswered");
        assert!(r.parity_ok, "network responses diverged from `eo serve`");
        assert!(r.report.bad_frames > 0 && r.report.shed > 0);
        assert!(
            r.report.drained_clean,
            "the load server did not drain cleanly"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::write_baseline;

    #[test]
    fn write_baseline_creates_an_absent_file_and_keeps_an_existing_one() {
        let dir = std::env::temp_dir().join(format!("eo-report-baseline-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_test.json");
        let _ = std::fs::remove_file(&path);

        write_baseline(&path, "{\"run\": 1}\n");
        assert_eq!(std::fs::read(&path).unwrap(), b"{\"run\": 1}\n");

        write_baseline(&path, "{\"run\": 2}\n");
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"{\"run\": 1}\n",
            "an existing baseline is left byte-identical"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
