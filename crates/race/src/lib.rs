//! Data-race detection — the paper's closing implication, made runnable.
//!
//! The conclusion of the paper: "exhaustively detecting all data races
//! potentially exhibited by a given program execution is an intractable
//! problem", because a race is a *could-be-concurrent* pair of conflicting
//! accesses, and computing could-be-concurrent is NP-hard. This crate
//! implements both sides of that trade-off:
//!
//! * [`exact_races`] — the exhaustive detector: a conflicting pair (two
//!   events touching a common shared variable, at least one writing) is a
//!   **feasible race** iff the exact engine says the pair could have been
//!   simultaneously ready in some alternate execution performing the same
//!   events. Following the paper's Section 5.3 (and the race literature
//!   it spawned), the re-execution space here *ignores* the observed
//!   shared-data dependences — preserving →D would order every
//!   conflicting pair by construction and no race could ever surface;
//! * [`vc_races`] — the polynomial approximation a practical detector
//!   uses: conflicting pairs whose vector clocks (over the observed
//!   synchronization pairing) are incomparable. Fast, but both unsound
//!   and incomplete against the exact answer; [`compare`] quantifies the
//!   gap, and experiment E9 sweeps it over workload families.

//! ```
//! use eo_model::fixtures;
//!
//! let (trace, inc0, inc1) = fixtures::shared_counter_race();
//! let exec = trace.to_execution().unwrap();
//! let races = eo_race::exact_races(&exec);
//! assert_eq!(races, vec![eo_race::Race { first: inc0, second: inc1 }]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use eo_approx::cs::{StaticOrderings, StmtId};
use eo_approx::VectorClockHb;
use eo_engine::{EngineError, FeasibilityMode, QueryMemo, QuerySession, SearchCtx};
use eo_model::{EventId, ProgramExecution};

/// A (potential) data race: an unordered conflicting pair. Stored with
/// `first < second` (observed order).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Race {
    /// The conflicting event observed earlier.
    pub first: EventId,
    /// The conflicting event observed later.
    pub second: EventId,
}

/// All conflicting pairs of the execution, in observed order — the
/// candidate set every detector filters.
pub fn conflicting_pairs(exec: &ProgramExecution) -> Vec<Race> {
    exec.dependence_pairs()
        .into_iter()
        .map(|(a, b)| Race {
            first: a,
            second: b,
        })
        .collect()
}

/// The exhaustive detector: conflicting pairs that could have executed
/// concurrently in some alternate execution of the same events (the
/// dependence-ignoring feasibility of the paper's Section 5.3).
///
/// Worst-case exponential — that is the theorem.
pub fn exact_races(exec: &ProgramExecution) -> Vec<Race> {
    let ctx = SearchCtx::new(exec, FeasibilityMode::IgnoreDependences);
    // One session across every candidate pair: the interned state arena,
    // the lattice chart and the completability memo carry over from query
    // to query, so later pairs walk a lattice the earlier pairs charted.
    let mut session = QuerySession::new(&ctx);
    conflicting_pairs(exec)
        .into_iter()
        .filter(|r| session.could_be_concurrent(r.first, r.second))
        .collect()
}

/// [`exact_races`] probing a caller-owned [`QueryMemo`] under the memo's
/// budget — the serving layer's entry point: a long-lived session keeps
/// one dependence-ignoring memo, so repeated race queries (and the
/// could-be-concurrent point queries sharing the memo) re-walk a lattice
/// that is already charted.
///
/// `ctx` must be the dependence-ignoring context the memo was opened for
/// (races are defined over the Section 5.3 feasibility space; a
/// dependence-preserving context would order every candidate by
/// construction). `refutes(a, b)` is the caller's refutation tier: a
/// candidate pair it refutes skips the could-be-concurrent search and
/// consumes none of the memo's budget. It must be sound — true only for
/// pairs that are never simultaneously enabled — and then the answer is
/// identical to [`exact_races`]; the serving layer passes the HMW ∪ EGP
/// guarantee relation in both directions and the [`StaticPrefilter`].
/// `|_, _| false` walks every candidate. Errors at the memo budget's first
/// exhausted resource.
///
/// # Panics
/// Panics if `ctx` preserves dependences.
pub fn try_exact_races_with_memo(
    ctx: &SearchCtx<'_>,
    memo: &mut QueryMemo,
    refutes: impl Fn(EventId, EventId) -> bool,
) -> Result<Vec<Race>, EngineError> {
    assert_eq!(
        ctx.mode(),
        FeasibilityMode::IgnoreDependences,
        "race detection searches the dependence-ignoring space"
    );
    let mut races = Vec::new();
    for r in conflicting_pairs(ctx.exec()) {
        if refutes(r.first, r.second) {
            continue;
        }
        if memo.try_could_be_concurrent(ctx, r.first, r.second)? {
            races.push(r);
        }
    }
    Ok(races)
}

/// Outcome of the statically pruned exact detector
/// ([`pruned_exact_races`]): the same races, plus an account of how much
/// engine work the pre-pass saved.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PrunedRaces {
    /// The feasible races — byte-identical to [`exact_races`].
    pub races: Vec<Race>,
    /// Conflicting pairs considered.
    pub candidates: usize,
    /// Pairs discharged statically, without consulting the engine.
    pub pruned: usize,
    /// Pairs that still needed a could-be-concurrent search.
    pub engine_queries: usize,
    /// Of the pruned pairs, how many the whole-program MHP prefilter
    /// discharged (zero state-space exploration; a subset of `pruned`).
    pub static_refuted: usize,
}

/// The zero-exploration refutation tier: `eo-mhp` verdicts of the program
/// that produced an execution, projected onto events through the anchored
/// statement map.
///
/// Soundness: an [`eo_mhp::Verdict::NeverConcurrent`] pair of statements
/// never executes concurrently in *any* execution of the program. Both
/// events of a candidate pair executed in the observed trace, and the
/// race search space ranges over alternate executions performing those
/// same events — every one of which is an execution of the same program —
/// so the pair can never be simultaneously ready and is refuted without
/// consulting the engine.
pub struct StaticPrefilter<'a> {
    mhp: &'a eo_mhp::MhpAnalysis,
    stmt_of: &'a [StmtId],
}

impl<'a> StaticPrefilter<'a> {
    /// Wraps an MHP analysis and the event→statement anchor map of one
    /// observed execution of the same program.
    pub fn new(mhp: &'a eo_mhp::MhpAnalysis, stmt_of: &'a [StmtId]) -> StaticPrefilter<'a> {
        StaticPrefilter { mhp, stmt_of }
    }

    /// True iff the pair is statically proven non-concurrent. Two events
    /// anchored at the *same* statement are never refuted (the verdict
    /// for a statement against itself speaks about one event, not two).
    pub fn refutes(&self, a: EventId, b: EventId) -> bool {
        let (sa, sb) = (self.stmt_of[a.index()], self.stmt_of[b.index()]);
        sa != sb && self.mhp.never_concurrent(sa, sb)
    }
}

/// The exhaustive detector with a *sound* static pre-pass: conflicting
/// pairs whose anchor statements the Callahan–Subhlok `prec` analysis
/// orders (in either direction) are discharged without running the
/// exponential could-be-concurrent search.
///
/// Soundness: a CS guaranteed ordering `a → b` holds in *every* execution
/// of the program in which `b`'s statement executes. Both events of a
/// candidate pair executed in the observed trace, and the race search
/// space ranges over alternate executions performing those same events —
/// so the ordering applies to every execution the engine would explore,
/// and the pair can never be simultaneously ready. The result is
/// therefore identical to [`exact_races`]; the tests assert equality
/// pair-for-pair.
///
/// `stmt_of` maps each observed event to the statement that emitted it —
/// the [`eo_approx::cs::StmtId`] anchors produced by
/// `eo_lang::run_to_trace_anchored`; `so` is the CS analysis of the
/// program that produced the execution.
pub fn pruned_exact_races(
    exec: &ProgramExecution,
    so: &StaticOrderings,
    stmt_of: &[StmtId],
) -> PrunedRaces {
    pruned_exact_races_with_prefilter(exec, so, stmt_of, None)
}

/// [`pruned_exact_races`] with an optional extra refutation tier in
/// front: the whole-program MHP verdicts (see [`StaticPrefilter`]),
/// consulted *before* the Callahan–Subhlok orderings. Both tiers are
/// sound, so the result stays byte-identical to [`exact_races`]; the MHP
/// tier strictly subsumes the CS one (same `prec` rules plus the
/// semaphore meet, branch mutual exclusion, and unreachability), so every
/// pair it refutes costs nothing downstream.
pub fn pruned_exact_races_with_prefilter(
    exec: &ProgramExecution,
    so: &StaticOrderings,
    stmt_of: &[StmtId],
    prefilter: Option<&StaticPrefilter<'_>>,
) -> PrunedRaces {
    let ctx = SearchCtx::new(exec, FeasibilityMode::IgnoreDependences);
    let mut session = QuerySession::new(&ctx);
    let mut out = PrunedRaces::default();
    for r in conflicting_pairs(exec) {
        out.candidates += 1;
        if prefilter.is_some_and(|pf| pf.refutes(r.first, r.second)) {
            out.pruned += 1;
            out.static_refuted += 1;
            continue;
        }
        let (sa, sb) = (stmt_of[r.first.index()], stmt_of[r.second.index()]);
        if so.ordered_either_way(sa, sb) {
            out.pruned += 1;
            continue;
        }
        out.engine_queries += 1;
        if session.could_be_concurrent(r.first, r.second) {
            out.races.push(r);
        }
    }
    out
}

/// The vector-clock detector: conflicting pairs whose observed-pairing
/// clocks are incomparable.
pub fn vc_races(exec: &ProgramExecution) -> Vec<Race> {
    let vc = VectorClockHb::compute(exec);
    conflicting_pairs(exec)
        .into_iter()
        .filter(|r| vc.concurrent(r.first, r.second))
        .collect()
}

/// The *safe* polynomial filter: conflicting pairs **not** ordered by the
/// Helmbold–McDowell–Wang safe orderings in either direction. Because HMW
/// orderings hold in every execution with the same events, every feasible
/// race survives this filter — it over-approximates [`exact_races`]
/// (never misses, may overreport), the dual failure mode to the
/// vector-clock detector's. Tests assert the containment.
pub fn hmw_candidate_races(exec: &ProgramExecution) -> Vec<Race> {
    let safe = eo_approx::SafeOrderings::compute(exec);
    conflicting_pairs(exec)
        .into_iter()
        .filter(|r| {
            !safe.guaranteed_before(r.first, r.second) && !safe.guaranteed_before(r.second, r.first)
        })
        .collect()
}

/// Side-by-side outcome of the two detectors on one execution.
#[derive(Clone, Debug, Default)]
pub struct RaceComparison {
    /// Conflicting pairs considered.
    pub candidates: usize,
    /// Races both detectors agree on.
    pub agreed: Vec<Race>,
    /// Real (feasible) races the clock detector missed — *false
    /// negatives* of the approximation.
    pub missed_by_vc: Vec<Race>,
    /// Clock-reported pairs the exact detector refutes — *false
    /// positives* of the approximation.
    pub spurious_in_vc: Vec<Race>,
}

impl RaceComparison {
    /// True iff the approximation matched the exact answer on this input.
    pub fn exact_match(&self) -> bool {
        self.missed_by_vc.is_empty() && self.spurious_in_vc.is_empty()
    }
}

/// Runs both detectors and aligns their answers.
pub fn compare(exec: &ProgramExecution) -> RaceComparison {
    let exact: Vec<Race> = exact_races(exec);
    let vc: Vec<Race> = vc_races(exec);
    let mut cmp = RaceComparison {
        candidates: conflicting_pairs(exec).len(),
        ..Default::default()
    };
    for r in &exact {
        if vc.contains(r) {
            cmp.agreed.push(*r);
        } else {
            cmp.missed_by_vc.push(*r);
        }
    }
    for r in &vc {
        if !exact.contains(r) {
            cmp.spurious_in_vc.push(*r);
        }
    }
    cmp
}

#[cfg(test)]
mod tests {
    use super::*;
    use eo_lang::ProgramBuilder;
    use eo_model::fixtures;

    #[test]
    fn unsynchronized_conflict_is_a_race_for_both() {
        let (trace, inc0, inc1) = fixtures::shared_counter_race();
        let exec = trace.to_execution().unwrap();
        let expected = vec![Race {
            first: inc0,
            second: inc1,
        }];
        assert_eq!(exact_races(&exec), expected);
        assert_eq!(vc_races(&exec), expected);
        assert!(compare(&exec).exact_match());
    }

    #[test]
    fn semaphore_ordering_suppresses_the_race() {
        // writer: write x; V(s)        reader: P(s); read x
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let x = b.variable("x");
        let w = b.process("writer");
        b.compute_rw(w, &[], &[x], "write");
        b.sem_v(w, s);
        let r = b.process("reader");
        b.sem_p(r, s);
        b.compute_rw(r, &[x], &[], "read");
        let prog = b.build();
        let trace = eo_lang::generator::run_deterministic(&prog);
        let exec = trace.to_execution().unwrap();
        assert!(
            exact_races(&exec).is_empty(),
            "the V→P edge orders the pair"
        );
        assert!(vc_races(&exec).is_empty());
    }

    #[test]
    fn observed_pairing_hides_a_feasible_race_from_clocks() {
        // Two V's, one P guarding the reader's access; the writer V's
        // after its write. The observed run pairs the reader's P with the
        // *writer's* V, so clocks order write→read; but the other V could
        // have served the P, making the race feasible — the exact detector
        // finds what the clock detector misses.
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let x = b.variable("x");
        let w = b.process("writer");
        b.compute_rw(w, &[], &[x], "write");
        b.sem_v(w, s);
        let other = b.process("other_v");
        b.sem_v(other, s);
        let r = b.process("reader");
        b.sem_p(r, s);
        b.compute_rw(r, &[x], &[], "read");
        let prog = b.build();
        let trace = eo_lang::run_to_trace(&prog, &mut eo_lang::Scheduler::deterministic()).unwrap();
        let exec = trace.to_execution().unwrap();

        let cmp = compare(&exec);
        assert_eq!(cmp.candidates, 1);
        assert_eq!(cmp.missed_by_vc.len(), 1, "clocks miss the feasible race");
        assert!(cmp.spurious_in_vc.is_empty());
        assert!(!cmp.exact_match());
    }

    #[test]
    fn fork_join_concurrent_writes_race() {
        let mut b = ProgramBuilder::new();
        let x = b.variable("x");
        let main = b.process("main");
        let c1 = b.subprocess("w1");
        let c2 = b.subprocess("w2");
        b.compute_rw(c1, &[], &[x], "w1");
        b.compute_rw(c2, &[], &[x], "w2");
        b.fork(main, &[c1, c2]);
        b.join(main, &[c1, c2]);
        let prog = b.build();
        let trace = eo_lang::generator::run_deterministic(&prog);
        let exec = trace.to_execution().unwrap();
        assert_eq!(exact_races(&exec).len(), 1);
        assert_eq!(vc_races(&exec).len(), 1);
    }

    #[test]
    fn read_read_is_never_a_candidate() {
        let mut b = ProgramBuilder::new();
        let x = b.variable("x");
        let p0 = b.process("p0");
        let p1 = b.process("p1");
        b.compute_rw(p0, &[x], &[], "r0");
        b.compute_rw(p1, &[x], &[], "r1");
        let prog = b.build();
        let trace = eo_lang::generator::run_deterministic(&prog);
        let exec = trace.to_execution().unwrap();
        assert!(conflicting_pairs(&exec).is_empty());
    }

    /// The guarantee relation the serving layer filters race candidates
    /// with: HMW safe orderings ∪ the EGP task graph, closed.
    fn guarantee(exec: &ProgramExecution) -> eo_relations::Relation {
        let mut g = eo_approx::SafeOrderings::compute(exec).relation().clone();
        g.union_with(eo_approx::TaskGraph::build(exec).relation());
        g.close_transitively();
        g
    }

    #[test]
    fn hmw_filter_never_misses_a_feasible_race() {
        use eo_lang::generator::{fork_join_tree, generate_trace, WorkloadSpec};
        let mut traces = Vec::new();
        for seed in 0..6 {
            for mut spec in [
                WorkloadSpec::small_semaphore(seed),
                WorkloadSpec::small_events(seed),
            ] {
                spec.variables = 3;
                spec.write_fraction = 0.5;
                traces.push((
                    format!("{:?} seed {seed}", spec.style),
                    generate_trace(&spec, 50),
                ));
            }
        }
        for (depth, fanout) in [(1, 3), (2, 2)] {
            let program = fork_join_tree(depth, fanout);
            let trace =
                eo_lang::run_to_trace(&program, &mut eo_lang::Scheduler::random(u64::from(depth)))
                    .expect("fork/join trees always complete");
            traces.push((format!("fork_join_tree({depth}, {fanout})"), trace));
        }
        let mut ordered_pairs = 0;
        for (label, trace) in traces {
            let exec = trace.to_execution().unwrap();
            let exact = exact_races(&exec);
            let candidates = hmw_candidate_races(&exec);
            for r in &exact {
                assert!(
                    candidates.contains(r),
                    "{label}: HMW filter dropped feasible race {r:?}"
                );
            }
            // The closed HMW ∪ EGP relation refutes overlap outright: no
            // pair it orders is ever enabled together, in either mode.
            let g = guarantee(&exec);
            for mode in [
                FeasibilityMode::IgnoreDependences,
                FeasibilityMode::PreserveDependences,
            ] {
                let ctx = SearchCtx::new(&exec, mode);
                let mut session = QuerySession::new(&ctx);
                for (a, b) in g.pairs() {
                    let (a, b) = (EventId::new(a), EventId::new(b));
                    assert!(
                        !session.could_be_concurrent(a, b),
                        "{label} {mode:?}: G orders {a} before {b}, yet they overlap"
                    );
                    ordered_pairs += 1;
                }
            }
        }
        assert!(ordered_pairs > 0, "G should order some pairs");
    }

    #[test]
    fn hmw_filter_excludes_handshake_ordered_pairs() {
        let mut b = ProgramBuilder::new();
        let s = b.semaphore("s");
        let x = b.variable("x");
        let w = b.process("writer");
        b.compute_rw(w, &[], &[x], "write");
        b.sem_v(w, s);
        let r = b.process("reader");
        b.sem_p(r, s);
        b.compute_rw(r, &[x], &[], "read");
        let prog = b.build();
        let exec = eo_lang::generator::run_deterministic(&prog)
            .to_execution()
            .unwrap();
        assert!(
            hmw_candidate_races(&exec).is_empty(),
            "the 1V/1P handshake is safe"
        );
    }

    /// Runs `program` to a completed anchored trace, retrying schedules
    /// until one finishes (generator programs can deadlock under some
    /// interleavings).
    fn anchored_run(program: &eo_lang::Program) -> Option<eo_lang::AnchoredRun> {
        (0..50).find_map(|seed| {
            eo_lang::run_to_trace_anchored(program, &mut eo_lang::Scheduler::random(seed)).ok()
        })
    }

    #[test]
    fn pruned_detector_matches_exact_on_random_workloads() {
        use eo_lang::generator::{random_program, WorkloadSpec};
        let mut pruned_total = 0;
        for seed in 0..8 {
            let mut spec = WorkloadSpec::small_semaphore(seed);
            spec.variables = 3;
            spec.write_fraction = 0.5;
            let program = random_program(&spec);
            let Some(run) = anchored_run(&program) else {
                continue;
            };
            let exec = run.trace.to_execution().unwrap();
            let so = StaticOrderings::analyze(&program);
            let pruned = pruned_exact_races(&exec, &so, &run.stmt_of);
            assert_eq!(pruned.races, exact_races(&exec), "seed {seed}");
            assert_eq!(
                pruned.pruned + pruned.engine_queries,
                pruned.candidates,
                "seed {seed}: every candidate is either pruned or queried"
            );
            pruned_total += pruned.pruned;
        }
        assert!(pruned_total > 0, "the pre-pass should discharge some pairs");
    }

    #[test]
    fn pruned_detector_matches_exact_on_event_workloads() {
        use eo_lang::generator::{random_program, WorkloadSpec};
        for seed in 0..8 {
            let mut spec = WorkloadSpec::small_events(seed);
            spec.variables = 3;
            spec.write_fraction = 0.5;
            let program = random_program(&spec);
            let Some(run) = anchored_run(&program) else {
                continue;
            };
            let exec = run.trace.to_execution().unwrap();
            let so = StaticOrderings::analyze(&program);
            let pruned = pruned_exact_races(&exec, &so, &run.stmt_of);
            assert_eq!(pruned.races, exact_races(&exec), "seed {seed}");
        }
    }

    #[test]
    fn figure1_prunes_fork_ordered_pairs() {
        let program = eo_lang::generator::figure1_program();
        let run =
            eo_lang::run_to_trace_anchored(&program, &mut eo_lang::Scheduler::deterministic())
                .unwrap();
        let exec = run.trace.to_execution().unwrap();
        let so = StaticOrderings::analyze(&program);
        let pruned = pruned_exact_races(&exec, &so, &run.stmt_of);
        assert_eq!(pruned.races, exact_races(&exec));
        assert!(
            pruned.pruned >= 1,
            "main's pre-fork write is statically ordered before the workers' accesses: \
             {pruned:?}"
        );
        assert!(
            pruned.engine_queries < pruned.candidates,
            "at least one engine query is skipped"
        );
    }

    #[test]
    fn static_prefilter_matches_exact_on_random_workloads() {
        use eo_lang::generator::{random_program, WorkloadSpec};
        let mut static_total = 0;
        for family in ["sem", "events"] {
            for seed in 0..8 {
                let mut spec = match family {
                    "sem" => WorkloadSpec::small_semaphore(seed),
                    _ => WorkloadSpec::small_events(seed),
                };
                spec.variables = 3;
                spec.write_fraction = 0.5;
                let program = random_program(&spec);
                let Some(run) = anchored_run(&program) else {
                    continue;
                };
                let exec = run.trace.to_execution().unwrap();
                let so = StaticOrderings::analyze(&program);
                let mhp = eo_mhp::MhpAnalysis::analyze(&program);
                let pf = StaticPrefilter::new(&mhp, &run.stmt_of);
                let pruned = pruned_exact_races_with_prefilter(&exec, &so, &run.stmt_of, Some(&pf));
                assert_eq!(
                    pruned.races,
                    exact_races(&exec),
                    "{family} seed {seed}: the static tier must not change the answer"
                );
                assert_eq!(
                    pruned.pruned + pruned.engine_queries,
                    pruned.candidates,
                    "{family} seed {seed}"
                );
                assert!(
                    pruned.static_refuted <= pruned.pruned,
                    "{family} seed {seed}"
                );
                static_total += pruned.static_refuted;
            }
        }
        assert!(
            static_total > 0,
            "the MHP tier should refute some pairs with zero exploration"
        );
    }

    #[test]
    fn static_tier_subsumes_the_cs_tier() {
        use eo_lang::generator::{random_program, WorkloadSpec};
        for seed in 0..8 {
            let mut spec = WorkloadSpec::small_semaphore(seed);
            spec.variables = 3;
            spec.write_fraction = 0.5;
            let program = random_program(&spec);
            let Some(run) = anchored_run(&program) else {
                continue;
            };
            let exec = run.trace.to_execution().unwrap();
            let so = StaticOrderings::analyze(&program);
            let mhp = eo_mhp::MhpAnalysis::analyze(&program);
            let pf = StaticPrefilter::new(&mhp, &run.stmt_of);
            let without = pruned_exact_races(&exec, &so, &run.stmt_of);
            let with = pruned_exact_races_with_prefilter(&exec, &so, &run.stmt_of, Some(&pf));
            assert_eq!(with.races, without.races, "seed {seed}");
            assert!(
                with.static_refuted >= without.pruned,
                "seed {seed}: every CS-refutable pair is MHP-refutable \
                 ({} static vs {} cs)",
                with.static_refuted,
                without.pruned
            );
            assert!(with.engine_queries <= without.engine_queries, "seed {seed}");
        }
    }

    #[test]
    fn memo_detector_matches_exact_and_is_idempotent() {
        use eo_lang::generator::{generate_trace, WorkloadSpec};
        for trace in [
            fixtures::shared_counter_race().0,
            fixtures::figure1().0,
            generate_trace(&WorkloadSpec::small_semaphore(3), 40),
        ] {
            let exec = trace.to_execution().unwrap();
            let ctx = SearchCtx::new(&exec, FeasibilityMode::IgnoreDependences);
            let expected = exact_races(&exec);
            let g = guarantee(&exec);
            // One hook refutes nothing, the other every pair G orders.
            for use_g in [false, true] {
                let hook = |a: EventId, b: EventId| {
                    use_g && (g.contains(a.index(), b.index()) || g.contains(b.index(), a.index()))
                };
                let mut memo = QueryMemo::new(&ctx);
                // A second pass over the warm memo must answer identically —
                // the memo never changes answers, only their cost, and a
                // sound refutation hook only skips searches.
                for pass in ["cold", "warm"] {
                    assert_eq!(
                        try_exact_races_with_memo(&ctx, &mut memo, hook).unwrap(),
                        expected,
                        "G hook {use_g}, {pass} memo"
                    );
                }
            }
        }
    }

    #[test]
    fn comparison_counts_are_consistent_on_random_workloads() {
        use eo_lang::generator::{generate_trace, WorkloadSpec};
        for seed in 0..5 {
            let trace = generate_trace(&WorkloadSpec::small_semaphore(seed), 50);
            let exec = trace.to_execution().unwrap();
            let cmp = compare(&exec);
            assert_eq!(
                cmp.agreed.len() + cmp.missed_by_vc.len(),
                exact_races(&exec).len(),
                "seed {seed}"
            );
            assert!(cmp.candidates >= cmp.agreed.len() + cmp.missed_by_vc.len());
        }
    }
}
