//! [`AnalysisSession`]: one program, one interned state space, many
//! queries.
//!
//! A session owns the engine-side [`QueryMemo`] (interned state arena,
//! lattice chart, completability memo, epoch-stamped visit sets) plus the
//! serving-side caches from [`crate::cache`]. Every answer it produces is
//! exact and bit-identical to a fresh one-shot
//! [`eo_engine::ExactEngine`] run of the same query under the same
//! [`EngineOptions`] — the differential test
//! `tests/batch_differential.rs` pins this. What the session changes is
//! *cost*: repeated, symmetric, complementary, or transitively implied
//! queries are answered from caches without touching the state space, and
//! queries that do search reuse every state interned so far.
//!
//! With [`SessionConfig::backend`] set to [`QueryBackend::Sat`], the
//! engine tier answers through the symbolic CNF backend instead of the
//! witness search. Decisions stay bit-identical (both procedures are
//! exact — `tests/backend_differential.rs` pins the agreement); witness
//! *schedules* may legitimately differ, since any feasible schedule with
//! the required property is a valid witness.

use crate::cache::{FactKind, FactStore, WitnessCache};
use eo_approx::{SafeOrderings, TaskGraph};
use eo_engine::{
    Answer, Budget, EngineConfig, EngineError, EngineOptions, ExactEngine, FeasibilityMode,
    OrderingSummary, Query, QueryBackend, QueryMemo, Response, SatSession, SearchCtx,
};
use eo_model::{EventId, ProgramExecution};
use eo_race::Race;
use eo_relations::fxhash::FxHasher;
use eo_relations::Relation;
use std::hash::Hasher;

/// Capacity of a session's witness-schedule LRU (entries, not bytes).
const WITNESS_CAPACITY: usize = 256;

/// Serving-side configuration for an [`AnalysisSession`].
#[derive(Clone, Debug)]
pub struct SessionConfig {
    /// Engine configuration (feasibility mode, budget, equivalence). The
    /// session resolves budgets through
    /// [`EngineOptions::effective_budget`], exactly as one-shot queries
    /// do.
    pub engine: EngineOptions,
    /// Cross-query result caching (fact store, witness LRU, memoized
    /// summary and race reports). Answers are identical either way; off
    /// exists for differential testing and benchmarking.
    pub cache: bool,
    /// The polynomial guaranteed-ordering prefilter (HMW safe orderings ∪
    /// EGP task graph): sound fast-path answers for pairs the cheap
    /// analyses already decide.
    pub prefilter: bool,
    /// The whole-program static prefilter: run the `eo-mhp` fixpoint on
    /// the program reconstructed from the trace and refute queries its
    /// guaranteed orderings decide — with zero state-space exploration.
    /// Off by default (`eo serve --static-prefilter` turns it on);
    /// answers are identical either way.
    pub static_prefilter: bool,
    /// Which decision procedure answers queries that reach the engine
    /// tier (`eo serve --backend {exact,sat}`). Decided answers are
    /// identical either way; witness *schedules* may differ (both are
    /// valid witnesses). [`QueryBackend::Sat`] answers from the complete
    /// schedules its session keeps when they prove the query, and
    /// otherwise with incremental solves against a shared CNF encoding,
    /// amortizing learned clauses across the batch.
    pub backend: QueryBackend,
    /// The non-default [`EngineConfig`] fields this session was opened
    /// with, echoed additively on every reply as a `config` object.
    /// Empty (no echo, byte-stable responses) unless the session was
    /// built from an explicit config via
    /// [`SessionConfig::from_engine_config`].
    pub config_echo: Vec<(&'static str, String)>,
}

impl Default for SessionConfig {
    fn default() -> Self {
        SessionConfig {
            engine: EngineOptions::default(),
            cache: true,
            prefilter: true,
            static_prefilter: false,
            backend: QueryBackend::Exact,
            config_echo: Vec::new(),
        }
    }
}

impl SessionConfig {
    /// A session config carrying every knob of one [`EngineConfig`]:
    /// mode, equivalence, and budget caps into the engine options,
    /// `backend` and `static_prefilter` into the serving layer, and the
    /// config's non-default fields into the per-reply `config` echo.
    pub fn from_engine_config(cfg: &EngineConfig) -> SessionConfig {
        SessionConfig {
            engine: cfg.engine_options(),
            static_prefilter: cfg.static_prefilter,
            backend: cfg.backend,
            config_echo: cfg.non_default_fields(),
            ..SessionConfig::default()
        }
    }
}

/// Running counters for one session; the server aggregates these into the
/// `serve.*` metrics in [`eo_obs`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SessionStats {
    /// Queries answered (including degraded ones).
    pub queries: u64,
    /// Queries answered from a cross-query cache without any search.
    pub cache_hits: u64,
    /// Queries that were not cache hits.
    pub cache_misses: u64,
    /// Cache misses decided by the polynomial guarantee relation alone.
    pub prefilter_hits: u64,
    /// Cache misses decided by the whole-program MHP static prefilter,
    /// with zero state-space exploration.
    pub static_prefilter_hits: u64,
}

impl SessionStats {
    /// Accumulates another session's counters (used when a batch is
    /// split across worker sessions).
    pub fn merge(&mut self, other: &SessionStats) {
        self.queries += other.queries;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.prefilter_hits += other.prefilter_hits;
        self.static_prefilter_hits += other.static_prefilter_hits;
    }
}

/// A [`Response`] plus serving metadata: where the answer came from.
#[derive(Clone, Debug)]
pub struct SessionReply {
    /// The query and its exact answer.
    pub response: Response,
    /// Answered from a cross-query cache (fact store, witness LRU,
    /// memoized summary) without running any search.
    pub cached: bool,
    /// Decided by the polynomial guarantee prefilter.
    pub prefilter: bool,
    /// Decided by the whole-program MHP static prefilter (no trace-level
    /// analysis, no state-space exploration).
    pub static_prefilter: bool,
    /// The backend configured for the engine tier of this session
    /// (echoed on every reply; the protocol layer renders it additively
    /// so default `exact` responses stay byte-stable).
    pub backend: QueryBackend,
    /// Non-default engine-config fields (additive `config` echo; empty
    /// for sessions not built from an explicit [`EngineConfig`]).
    pub config_echo: Vec<(&'static str, String)>,
    /// The synchronization primitive classes present in this program's
    /// trace, echoed on `summary` responses (stable order).
    pub primitives: Vec<&'static str>,
}

/// A long-lived analysis session over one program execution.
///
/// Construction is cheap (the state space grows lazily, query by query).
/// The session is `!Sync` by design — one mutable owner per state space;
/// the server shards batches across independent sessions instead.
pub struct AnalysisSession<'e> {
    exec: &'e ProgramExecution,
    config: SessionConfig,
    ctx: SearchCtx<'e>,
    memo: QueryMemo,
    /// Race detection requires the operational F(P) (`IgnoreDependences`);
    /// when the session's own mode differs, a second context + memo are
    /// built lazily for it.
    race_ctx: Option<SearchCtx<'e>>,
    race_memo: Option<QueryMemo>,
    /// The symbolic backend, built lazily on the first engine-tier query
    /// when `config.backend` is [`QueryBackend::Sat`]. Owns its own CNF
    /// encoding and learned-clause database, shared by every query of
    /// the session.
    sat: Option<SatSession>,
    facts: FactStore,
    witnesses: WitnessCache,
    summary: Option<Box<OrderingSummary>>,
    races: Option<Vec<Race>>,
    guarantee: Option<Relation>,
    /// Whether a point query has consulted `guarantee` yet (and, with
    /// caching on, seeded it into the fact store).
    guarantee_seeded: bool,
    static_facts: Option<Box<StaticFacts>>,
    stats: SessionStats,
}

/// Lazily built whole-program static facts: the `eo-mhp` fixpoint of the
/// program the trace reconstructs, with its statement verdicts projected
/// onto this execution's events.
struct StaticFacts {
    /// `ordered.contains(a, b)` ⇔ event `a`'s statement is guaranteed to
    /// complete before event `b`'s statement begins, in every execution.
    ordered: Relation,
    mhp: eo_mhp::MhpAnalysis,
    /// Statement anchor of each event (branch-free reconstruction:
    /// preorder statement numbering is process-major event order).
    stmt_of: Vec<eo_mhp::StmtId>,
}

impl<'e> AnalysisSession<'e> {
    /// Opens a session with default configuration.
    pub fn new(exec: &'e ProgramExecution) -> Self {
        AnalysisSession::with_config(exec, SessionConfig::default())
    }

    /// Opens a session with explicit configuration.
    pub fn with_config(exec: &'e ProgramExecution, config: SessionConfig) -> Self {
        let ctx = SearchCtx::new(exec, config.engine.mode);
        let memo = QueryMemo::with_budget(&ctx, config.engine.effective_budget());
        let n = exec.n_events();
        AnalysisSession {
            exec,
            witnesses: WitnessCache::new(WITNESS_CAPACITY),
            config,
            ctx,
            memo,
            race_ctx: None,
            race_memo: None,
            sat: None,
            facts: FactStore::new(n),
            summary: None,
            races: None,
            guarantee: None,
            guarantee_seeded: false,
            static_facts: None,
            stats: SessionStats::default(),
        }
    }

    /// The program execution this session analyses.
    pub fn exec(&self) -> &'e ProgramExecution {
        self.exec
    }

    /// Counters so far.
    pub fn stats(&self) -> SessionStats {
        self.stats
    }

    /// Replaces the budget every subsequent query runs under, leaving all
    /// caches and interned state intact. Long-lived sessions need this:
    /// a [`Budget`] deadline is absolute from construction and its cancel
    /// flag is sticky, so a server that kept the opening budget would
    /// eventually degrade every query. Renewing per request restores the
    /// one-shot contract — each query sees a fresh clock — without
    /// rebuilding the session.
    pub fn set_budget(&mut self, budget: Budget) {
        // `Query::Summary` builds a one-shot engine from these options, so
        // they must carry the renewed budget too.
        self.config.engine.budget = Some(budget);
        // The memos take the *resolved* budget (unset caps filled from the
        // engine limits), exactly as construction does.
        let effective = self.config.engine.effective_budget();
        self.memo.set_budget(effective.clone());
        if let Some(memo) = &mut self.race_memo {
            memo.set_budget(effective.clone());
        }
        if let Some(sat) = &mut self.sat {
            sat.set_budget(effective);
        }
    }

    /// The symbolic backend, built on first use (its construction pays
    /// the cubic encoding once; every query after that is incremental),
    /// with the context its queries take.
    fn sat_session(&mut self) -> (&SearchCtx<'e>, &mut SatSession) {
        let ctx = &self.ctx;
        let budget = self.config.engine.effective_budget();
        let sat = self
            .sat
            .get_or_insert_with(|| SatSession::with_budget(ctx, budget));
        (ctx, sat)
    }

    /// States interned in the session's main state arena so far.
    pub fn interned_states(&self) -> usize {
        self.memo.interned_states()
    }

    /// Answers one query. Exact: the reply is bit-identical to
    /// [`ExactEngine::query`] with the same [`EngineOptions`]; `Err` means
    /// the budget stopped the search (degraded, not wrong).
    ///
    /// # Panics
    ///
    /// Panics if a query names an event id out of range, or if a witness
    /// query repeats the same event (the protocol layer validates both).
    pub fn query(&mut self, query: Query) -> Result<SessionReply, EngineError> {
        self.stats.queries += 1;
        match query {
            Query::Mhb { a, b } => self.decide(query, FactKind::Mhb, a, b),
            Query::Chb { a, b } => self.decide(query, FactKind::Chb, a, b),
            Query::Ccw { a, b } => self.decide(query, FactKind::Ccw, a, b),
            Query::WitnessBefore { first, second } => self.witness(query, first, second, false),
            Query::WitnessOverlap { a, b } => self.witness(query, a, b, true),
            Query::Summary => self.summary_query(),
            other => {
                // `Query` is non-exhaustive; a session refusing a new
                // variant loudly beats silently mis-answering it.
                unimplemented!("serve session does not handle {other:?}")
            }
        }
    }

    /// Answers a batch in order, collecting per-query results. Budget
    /// errors degrade the affected queries only; later queries still run
    /// (and may still be served from caches).
    pub fn query_batch(&mut self, queries: &[Query]) -> Vec<Result<SessionReply, EngineError>> {
        queries.iter().map(|&q| self.query(q)).collect()
    }

    /// The exact race report for this program (operational F(P)). Memoized
    /// after the first call when caching is on. Candidate pairs pass the
    /// refutation tiers a point query passes before any search: the
    /// whole-program static verdicts when `static_prefilter` is on, and
    /// the guarantee relation G in either direction when `prefilter` is
    /// on (the comment in `decide_from_guarantee` says why G refutes
    /// overlap).
    pub fn races(&mut self) -> Result<(Vec<Race>, bool), EngineError> {
        self.stats.queries += 1;
        if self.config.cache {
            if let Some(r) = &self.races {
                self.stats.cache_hits += 1;
                return Ok((r.clone(), true));
            }
        }
        self.stats.cache_misses += 1;
        if self.config.static_prefilter {
            self.static_facts();
        }
        if self.config.prefilter {
            self.guarantee_relation();
        }
        let g = self.guarantee.as_ref();
        let facts = self.static_facts.as_deref();
        let static_tier = facts.map(|f| eo_race::StaticPrefilter::new(&f.mhp, &f.stmt_of));
        let refutes = |a: EventId, b: EventId| {
            g.is_some_and(|g| g.contains(a.index(), b.index()) || g.contains(b.index(), a.index()))
                || static_tier.as_ref().is_some_and(|pf| pf.refutes(a, b))
        };
        let races = if self.config.engine.mode == FeasibilityMode::IgnoreDependences {
            eo_race::try_exact_races_with_memo(&self.ctx, &mut self.memo, refutes)?
        } else {
            let ctx = self.race_ctx.get_or_insert_with(|| {
                SearchCtx::new(self.exec, FeasibilityMode::IgnoreDependences)
            });
            let memo = self.race_memo.get_or_insert_with(|| {
                QueryMemo::with_budget(ctx, self.config.engine.effective_budget())
            });
            eo_race::try_exact_races_with_memo(ctx, memo, refutes)?
        };
        if self.config.cache {
            self.races = Some(races.clone());
        }
        Ok((races, false))
    }

    fn reply(&self, query: Query, answer: Answer, cached: bool, prefilter: bool) -> SessionReply {
        SessionReply {
            response: Response::new(query, answer),
            cached,
            prefilter,
            static_prefilter: false,
            backend: self.config.backend,
            config_echo: self.config.config_echo.clone(),
            // The primitive-set echo rides only on whole-program summary
            // replies; point queries stay lean.
            primitives: match query {
                Query::Summary => primitive_set(self.exec),
                _ => Vec::new(),
            },
        }
    }

    fn reply_static(&self, query: Query, answer: Answer) -> SessionReply {
        SessionReply {
            static_prefilter: true,
            ..self.reply(query, answer, false, false)
        }
    }

    fn decide(
        &mut self,
        query: Query,
        kind: FactKind,
        a: EventId,
        b: EventId,
    ) -> Result<SessionReply, EngineError> {
        assert!(
            a.index() < self.exec.n_events() && b.index() < self.exec.n_events(),
            "event id out of range for this program"
        );
        if a == b {
            // Irreflexive by definition; the engine answers without
            // searching and so do we (counted as neither hit nor miss).
            return Ok(self.reply(query, Answer::Decided(false), false, false));
        }
        if self.config.cache {
            if let Some(v) = self.facts.lookup(kind, a, b) {
                self.stats.cache_hits += 1;
                return Ok(self.reply(query, Answer::Decided(v), true, false));
            }
        }
        self.stats.cache_misses += 1;
        if self.config.static_prefilter {
            let g = &self.static_facts().ordered;
            if let Some(v) = decide_from_guarantee(g, kind, a, b) {
                self.stats.static_prefilter_hits += 1;
                if self.config.cache {
                    self.facts.record(kind, a, b, v);
                }
                return Ok(self.reply_static(query, Answer::Decided(v)));
            }
        }
        if self.config.prefilter {
            if let Some(v) = self.prefilter_decide(kind, a, b) {
                self.stats.prefilter_hits += 1;
                if self.config.cache {
                    self.facts.record(kind, a, b, v);
                }
                return Ok(self.reply(query, Answer::Decided(v), false, true));
            }
        }
        let v = if self.config.backend == QueryBackend::Sat {
            let (ctx, sat) = self.sat_session();
            match kind {
                FactKind::Mhb => sat.try_must_happen_before(ctx, a, b)?,
                FactKind::Chb => sat.try_could_happen_before(ctx, a, b)?,
                FactKind::Ccw => sat.try_could_be_concurrent(ctx, a, b)?,
            }
        } else {
            match kind {
                FactKind::Mhb => self.memo.try_must_happen_before(&self.ctx, a, b)?,
                FactKind::Chb => self.memo.try_could_happen_before(&self.ctx, a, b)?,
                FactKind::Ccw => self.memo.try_could_be_concurrent(&self.ctx, a, b)?,
            }
        };
        if self.config.cache {
            self.facts.record(kind, a, b, v);
        }
        Ok(self.reply(query, Answer::Decided(v), false, false))
    }

    fn witness(
        &mut self,
        query: Query,
        a: EventId,
        b: EventId,
        overlap: bool,
    ) -> Result<SessionReply, EngineError> {
        assert!(
            a.index() < self.exec.n_events() && b.index() < self.exec.n_events(),
            "event id out of range for this program"
        );
        assert!(a != b, "witness queries need two distinct events");
        // Overlap witnesses are symmetric in (a, b) — the search visits the
        // same states either way — so the cache key is order-normalized.
        let key = if overlap {
            Query::WitnessOverlap {
                a: EventId::new(a.index().min(b.index())),
                b: EventId::new(a.index().max(b.index())),
            }
        } else {
            query
        };
        if self.config.cache {
            if let Some(w) = self.witnesses.get(key) {
                self.stats.cache_hits += 1;
                return Ok(self.reply(query, Answer::Witness(w), true, false));
            }
            // A refuted relation instance refutes the witness too: no
            // schedule to exhibit. (The converse — an affirmed instance —
            // still needs a search to produce the schedule itself.)
            let refuted = if overlap {
                self.facts.lookup(FactKind::Ccw, a, b) == Some(false)
            } else {
                self.facts.lookup(FactKind::Chb, a, b) == Some(false)
            };
            if refuted {
                self.stats.cache_hits += 1;
                return Ok(self.reply(query, Answer::Witness(None), true, false));
            }
        }
        self.stats.cache_misses += 1;
        if self.config.static_prefilter {
            let g = &self.static_facts().ordered;
            // A static order refutes the witness the same way the dynamic
            // guarantee does: no execution runs the events the other way.
            let refuted = if overlap {
                decide_from_guarantee(g, FactKind::Ccw, a, b) == Some(false)
            } else {
                g.contains(b.index(), a.index())
            };
            if refuted {
                self.stats.static_prefilter_hits += 1;
                if self.config.cache {
                    let kind = if overlap {
                        FactKind::Ccw
                    } else {
                        FactKind::Chb
                    };
                    self.facts.record(kind, a, b, false);
                    self.witnesses.put(key, None);
                }
                return Ok(self.reply_static(query, Answer::Witness(None)));
            }
        }
        if self.config.prefilter {
            let refuted = if overlap {
                self.prefilter_decide(FactKind::Ccw, a, b) == Some(false)
            } else {
                // G(b, a) forces b before a in every execution: no witness
                // runs a first.
                self.guarantee().contains(b.index(), a.index())
            };
            if refuted {
                self.stats.prefilter_hits += 1;
                if self.config.cache {
                    let kind = if overlap {
                        FactKind::Ccw
                    } else {
                        FactKind::Chb
                    };
                    self.facts.record(kind, a, b, false);
                    self.witnesses.put(key, None);
                }
                return Ok(self.reply(query, Answer::Witness(None), false, true));
            }
        }
        let w = if self.config.backend == QueryBackend::Sat {
            let (ctx, sat) = self.sat_session();
            if overlap {
                sat.try_witness_overlap(ctx, a, b)?
            } else {
                sat.try_witness_before(ctx, a, b)?
            }
        } else if overlap {
            self.memo.try_witness_overlap(&self.ctx, a, b)?
        } else {
            self.memo.try_witness_before(&self.ctx, a, b)?
        };
        if self.config.cache {
            let kind = if overlap {
                FactKind::Ccw
            } else {
                FactKind::Chb
            };
            self.facts.record(kind, a, b, w.is_some());
            self.witnesses.put(key, w.clone());
        }
        Ok(self.reply(query, Answer::Witness(w), false, false))
    }

    fn summary_query(&mut self) -> Result<SessionReply, EngineError> {
        if self.config.cache {
            if let Some(s) = &self.summary {
                self.stats.cache_hits += 1;
                return Ok(self.reply(Query::Summary, Answer::Summary(s.clone()), true, false));
            }
        }
        self.stats.cache_misses += 1;
        let engine = ExactEngine::with_options(self.exec, self.config.engine.clone());
        let summary = Box::new(engine.try_summary()?);
        if self.config.cache {
            // One summary decides every pairwise instance; seed the fact
            // store so later point queries are O(1) hits.
            self.facts.seed_summary(&summary);
            self.summary = Some(summary.clone());
        }
        Ok(self.reply(Query::Summary, Answer::Summary(summary), false, false))
    }

    /// A sound fast-path decision from the guarantee relation, or `None`
    /// when the cheap analyses don't decide this pair.
    fn prefilter_decide(&mut self, kind: FactKind, a: EventId, b: EventId) -> Option<bool> {
        decide_from_guarantee(self.guarantee(), kind, a, b)
    }

    /// The whole-program static facts — built lazily on first use by
    /// reconstructing the trace's canonical program, running the `eo-mhp`
    /// fixpoint on it, and projecting the statement verdicts onto events.
    /// When caching is on the event orderings are seeded into the fact
    /// store through the same guarantee rules the polynomial prefilter
    /// uses, so cached facts and static facts can never disagree.
    fn static_facts(&mut self) -> &StaticFacts {
        if self.static_facts.is_none() {
            let (program, event_of_stmt) = eo_lang::program_from_trace(self.exec.trace());
            let mhp = eo_mhp::MhpAnalysis::analyze(&program);
            let mut stmt_of = vec![eo_mhp::StmtId(0); event_of_stmt.len()];
            for (si, ev) in event_of_stmt.iter().enumerate() {
                stmt_of[ev.index()] = eo_mhp::StmtId(si as u32);
            }
            let ordered = mhp.event_orderings(&stmt_of);
            if self.config.cache {
                self.facts.seed_guarantee(&ordered);
            }
            self.static_facts = Some(Box::new(StaticFacts {
                ordered,
                mhp,
                stmt_of,
            }));
        }
        self.static_facts
            .as_deref()
            .expect("static facts just built")
    }

    /// The guarantee relation G = HMW safe orderings ∪ EGP task graph,
    /// transitively closed — built lazily by the first point query or
    /// race report that needs it.
    fn guarantee_relation(&mut self) -> &Relation {
        let exec = self.exec;
        self.guarantee.get_or_insert_with(|| {
            let mut g = SafeOrderings::compute(exec).relation().clone();
            g.union_with(TaskGraph::build(exec).relation());
            g.close_transitively();
            g
        })
    }

    /// G as point queries consult it: the first one seeds it into the
    /// fact store when caching is on. A race report builds G without
    /// seeding, so whether a later point query is a cache hit or a
    /// prefilter answer does not depend on where the race report stood
    /// in the batch.
    fn guarantee(&mut self) -> &Relation {
        if !self.guarantee_seeded {
            self.guarantee_seeded = true;
            self.guarantee_relation();
            if self.config.cache {
                let g = self.guarantee.as_ref().expect("guarantee just built");
                self.facts.seed_guarantee(g);
            }
        }
        self.guarantee.as_ref().expect("guarantee built above")
    }
}

/// A sound fast-path decision from a guarantee-style ordering relation
/// (`g(a,b)` ⇔ `a` completes before `b` begins in every execution): used
/// by both the polynomial prefilter and the whole-program static
/// prefilter, which therefore can never disagree where both decide.
fn decide_from_guarantee(g: &Relation, kind: FactKind, a: EventId, b: EventId) -> Option<bool> {
    let (ai, bi) = (a.index(), b.index());
    match kind {
        // G(a,b) ⇒ a before b in every feasible execution ⇒ MHB. The
        // converse direction is not decided by G's absence.
        FactKind::Mhb => g.contains(ai, bi).then_some(true),
        // G(a,b) ⇒ a before b in *some* execution too (F(P) contains
        // the observed run), so CHB(a,b) holds; G(b,a) refutes it.
        FactKind::Chb => {
            if g.contains(ai, bi) {
                Some(true)
            } else if g.contains(bi, ai) {
                Some(false)
            } else {
                None
            }
        }
        // A guaranteed order in either direction rules out overlap. Not
        // because G ⊆ MHB: a forced execution order still lets two events
        // be enabled at once. It holds because every edge of G is an
        // *enablement order* — `b` is not enabled in any reachable state
        // in which `a` has not executed:
        // * program order and fork/join: `b`'s process reaches `b`, a
        //   child its first event, a join its turn, only after `a`;
        // * HMW's counting rule: once a P `p` is enabled, its R-earlier
        //   P's have run, so enough V's have run to cover them and `p`;
        //   no V that R orders after `p` can have run, so when the
        //   candidate set C is exactly that large, every member of C has;
        // * EGP: a Wait is enabled only once some candidate Post has set
        //   its flag, and each closest common ancestor precedes every
        //   candidate.
        // Enablement orders compose, so the closure keeps the property,
        // and no rule reads →D, so it holds in both feasibility modes. If
        // `a` and `b` were ever enabled together, neither would have
        // executed, so G orders them in neither direction. The static
        // tier's relation carries its own proof of the same property
        // (`eo_mhp::MhpAnalysis::event_orderings`).
        FactKind::Ccw => (g.contains(ai, bi) || g.contains(bi, ai)).then_some(false),
    }
}

/// The synchronization primitive classes present in a program's trace,
/// in a stable order. Traces are always in the core calculus (surface
/// barriers/monitors/channels reach the engine desugared to semaphores),
/// so the vocabulary here is the core one.
pub fn primitive_set(exec: &ProgramExecution) -> Vec<&'static str> {
    use eo_model::Op;
    let (mut compute, mut sem, mut ev, mut fj) = (false, false, false, false);
    for i in 0..exec.n_events() {
        match &exec.trace().event(eo_model::EventId::new(i)).op {
            Op::Compute => compute = true,
            Op::SemP(_) | Op::SemV(_) => sem = true,
            Op::Post(_) | Op::Wait(_) | Op::Clear(_) => ev = true,
            Op::Fork(_) | Op::Join(_) => fj = true,
        }
    }
    let mut out = Vec::new();
    for (present, name) in [
        (compute, "compute"),
        (ev, "event-var"),
        (fj, "fork-join"),
        (sem, "semaphore"),
    ] {
        if present {
            out.push(name);
        }
    }
    out
}

/// Fingerprints a program execution by hashing its canonical trace JSON:
/// the network server's session store keys open programs by it.
pub fn fingerprint(exec: &ProgramExecution) -> u64 {
    let mut h = FxHasher::default();
    h.write(exec.trace().to_json().as_bytes());
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eo_model::fixtures;

    fn decided(reply: &SessionReply) -> bool {
        match reply.response.answer {
            Answer::Decided(v) => v,
            ref other => panic!("expected a decided answer, got {other:?}"),
        }
    }

    /// The satellite invariant: a fact served from the cross-query cache
    /// and a fact decided by the whole-program static prefilter can never
    /// disagree — the static tier seeds the fact store through the same
    /// sound guarantee rules, and both must match the engine oracle.
    #[test]
    fn cached_facts_and_static_facts_never_disagree() {
        let (trace, _) = fixtures::figure1();
        let exec = ProgramExecution::from_trace(trace).expect("fixture is valid");
        let mut oracle = AnalysisSession::with_config(
            &exec,
            SessionConfig {
                cache: false,
                prefilter: false,
                static_prefilter: false,
                ..Default::default()
            },
        );
        let mut session = AnalysisSession::with_config(
            &exec,
            SessionConfig {
                prefilter: false,
                static_prefilter: true,
                ..Default::default()
            },
        );
        let n = exec.n_events();
        let mut static_answers = 0u64;
        for a in 0..n {
            for b in 0..n {
                if a == b {
                    continue;
                }
                let (ea, eb) = (EventId::new(a), EventId::new(b));
                for q in [
                    Query::Mhb { a: ea, b: eb },
                    Query::Chb { a: ea, b: eb },
                    Query::Ccw { a: ea, b: eb },
                ] {
                    let expected = decided(&oracle.query(q).expect("no budget"));
                    let first = session.query(q).expect("no budget");
                    assert_eq!(decided(&first), expected, "{q:?}");
                    if first.static_prefilter {
                        static_answers += 1;
                    }
                    // Ask again: the answer is now in the fact store (the
                    // static tier and engine answers both seed it), and
                    // the cached fact must agree with what was served.
                    let again = session.query(q).expect("no budget");
                    assert_eq!(decided(&again), expected, "{q:?} (cached)");
                    assert!(again.cached, "{q:?}: second ask must be a cache hit");
                }
            }
        }
        assert!(
            session.stats().static_prefilter_hits + static_answers > 0
                || session.stats().cache_hits > 0,
            "the static tier (directly or via seeded facts) must answer something"
        );
        assert!(
            session.stats().static_prefilter_hits == static_answers,
            "reply markers and counters agree"
        );
    }
}
