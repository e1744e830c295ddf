//! `serve` and `serve-sat`: one `serve_batch` call per program, each a
//! seeded NDJSON stream of point queries in which about half the
//! requests re-ask an earlier question (verbatim, in its symmetric form
//! or as its complement). `serve` adds one `races` request per stream
//! and uses the default configuration; `serve-sat` takes the point-query
//! streams of the same programs of 28 or more events and serves them
//! with `backend: sat`.

use crate::gen::{self, Rng, Shape};
use crate::span::{SpanId, Tracer};
use crate::stats::Answers;
use crate::{digest, Clock, Fastest, Phase, Size, Workload, MIN_PASSES};
use eo_engine::{
    Answer, EngineConfig, ExactEngine, FeasibilityMode, Query, QueryBackend, SatSession, SearchCtx,
};
use eo_model::{EventId, ProgramExecution, Trace};
use eo_obs::json::{self, Value};
use eo_serve::protocol::{render_degraded, render_races, render_reply};
use eo_serve::{
    parse_requests, render_error_at, serve_batch, AnalysisSession, ServeConfig, ServeOp,
    SessionConfig,
};
use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Point requests per stream.
const REQUESTS: usize = 150;

/// Programs smaller than this are left out of `serve-sat` (README's
/// crossover advice for `--backend sat`).
const SAT_MIN_EVENTS: usize = 28;

/// The program ladder: (label prefix, shape, programs drawn). The 28-event
/// rungs are narrow (4 processes × 7 statements): their batches cost
/// about twice as much as the 20-event rungs, and `serve-sat` serves their
/// 112 programs. The small rungs outnumber them, so that the median falls
/// among the three 20-event rungs and the p90 inside the narrow ones
/// rather than in a gap between rungs, where it moved with the seed by a
/// tenth. Wider programs (6 × 4, 7 × 4) cost up to ten times more with a
/// per-program spread (CV 0.6–0.9) that moved every metric with the seed.
fn ladder() -> Vec<(&'static str, Shape, usize)> {
    vec![
        ("sem", Shape::semaphores(4, 4), 48),
        ("sem", Shape::semaphores(5, 4), 48),
        ("evt", Shape::events(4, 4), 48),
        ("evt", Shape::events(5, 4), 48),
        ("race", Shape::race(5, 4), 48),
        ("sem", Shape::semaphores(4, 7), 56),
        ("race", Shape::race(4, 7), 56),
    ]
}

/// The question kinds a stream asks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Ask {
    /// `mhb`
    Mhb,
    /// `chb`
    Chb,
    /// `ccw`
    Ccw,
    /// `witness_before`
    WitnessBefore,
    /// `witness_overlap`
    WitnessOverlap,
}

impl Ask {
    const ALL: [Ask; 5] = [
        Ask::Mhb,
        Ask::Chb,
        Ask::Ccw,
        Ask::WitnessBefore,
        Ask::WitnessOverlap,
    ];

    fn op(self) -> &'static str {
        match self {
            Ask::Mhb => "mhb",
            Ask::Chb => "chb",
            Ask::Ccw => "ccw",
            Ask::WitnessBefore => "witness_before",
            Ask::WitnessOverlap => "witness_overlap",
        }
    }

    fn query(self, a: usize, b: usize) -> Query {
        let (a, b) = (EventId::new(a), EventId::new(b));
        match self {
            Ask::Mhb => Query::Mhb { a, b },
            Ask::Chb => Query::Chb { a, b },
            Ask::Ccw => Query::Ccw { a, b },
            Ask::WitnessBefore => Query::WitnessBefore {
                first: a,
                second: b,
            },
            Ask::WitnessOverlap => Query::WitnessOverlap { a, b },
        }
    }

    /// The same question asked another way: the symmetric form of a
    /// symmetric relation, otherwise the complementary relation.
    fn rephrase(self, a: usize, b: usize, symmetric: bool) -> (Ask, usize, usize) {
        match (self, symmetric) {
            (Ask::Ccw | Ask::WitnessOverlap, true) => (self, b, a),
            // a MHB b ⇔ ¬ b CHB a.
            (Ask::Mhb, _) => (Ask::Chb, b, a),
            (Ask::Chb, _) => (Ask::Mhb, b, a),
            // A before-witness exists ⇔ a CHB b; an overlap one ⇔ CCW.
            (Ask::WitnessBefore, _) => (Ask::Chb, a, b),
            (Ask::Ccw, false) => (Ask::WitnessOverlap, a, b),
            (Ask::WitnessOverlap, false) => (Ask::Ccw, a, b),
        }
    }
}

/// One request of a stream: a point question, or the race report.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Request {
    /// A point query.
    Point(Ask, usize, usize),
    /// `races`.
    Races,
}

/// A seeded stream for a program of `n` events.
fn stream(n: usize, rng: &mut Rng, requests: usize, races: bool) -> Vec<Request> {
    let mut asked: Vec<(Ask, usize, usize)> = Vec::with_capacity(requests);
    let mut out = Vec::with_capacity(requests + 1);
    for _ in 0..requests {
        let q = if !asked.is_empty() && rng.chance(0.5) {
            let (ask, a, b) = asked[rng.below(asked.len())];
            match rng.below(3) {
                0 => (ask, a, b),
                k => ask.rephrase(a, b, k == 1),
            }
        } else {
            let a = rng.below(n);
            let b = (a + 1 + rng.below(n - 1)) % n;
            (Ask::ALL[rng.below(Ask::ALL.len())], a, b)
        };
        asked.push(q);
        out.push(Request::Point(q.0, q.1, q.2));
    }
    if races {
        let at = rng.below(out.len() + 1);
        out.insert(at, Request::Races);
    }
    out
}

/// The stream as NDJSON, ids counting from 1.
fn ndjson(requests: &[Request]) -> String {
    let mut out = String::new();
    for (i, r) in requests.iter().enumerate() {
        let id = i + 1;
        match r {
            Request::Point(ask, a, b) => {
                let _ = writeln!(
                    out,
                    "{{\"id\":{id},\"op\":\"{}\",\"a\":{a},\"b\":{b}}}",
                    ask.op()
                );
            }
            Request::Races => {
                let _ = writeln!(out, "{{\"id\":{id},\"op\":\"races\"}}");
            }
        }
    }
    out
}

/// The `"status"` of a response document.
pub(crate) fn status(response: &str) -> &str {
    response
        .split_once("\"status\":\"")
        .and_then(|(_, rest)| rest.split_once('"'))
        .map_or("", |(s, _)| s)
}

/// Tallies responses by status; `expected` of them were owed.
pub(crate) fn tally(responses: &[String], expected: usize) -> Answers {
    let mut a = Answers {
        attempted: expected as u64,
        ..Answers::default()
    };
    for r in responses.iter().take(expected) {
        match status(r) {
            "exact" => a.exact += 1,
            "degraded" => a.degraded += 1,
            _ => a.errors += 1,
        }
    }
    a
}

/// One program with its stream.
struct Program {
    label: String,
    exec: ProgramExecution,
    requests: Vec<Request>,
    input: String,
    /// Digest of the first batch's responses, and whether a later batch
    /// differed.
    digest: Option<u64>,
    digests_differ: bool,
    /// The responses of the last batch, for the checks.
    responses: Vec<String>,
}

/// Which of the two batch workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Backend {
    Exact,
    Sat,
}

/// The `serve` workload (default config) or, through [`ServeSat`], the
/// `serve-sat` workload.
pub struct Serve {
    backend: Backend,
    config: ServeConfig,
    programs: Vec<Program>,
    visits: gen::Cycle,
}

/// The `serve-sat` workload.
pub struct ServeSat(pub Serve);

impl Serve {
    fn setup_with(seed: u64, size: Size, backend: Backend) -> Result<Serve, String> {
        let rng = Rng::new(seed);
        let mut programs = Vec::new();
        let mut groups = Vec::new();
        for (i, (prefix, shape, count)) in ladder().into_iter().enumerate() {
            let count = match size {
                Size::Full => count,
                Size::Smoke if shape.per_process == 7 => 10,
                Size::Smoke => 0,
            };
            let mut program_rng = rng.fork(i as u64);
            let before = programs.len();
            for k in 0..count {
                let (text, n) = gen::random_trace(&shape, &mut program_rng);
                let requests = match size {
                    Size::Full => REQUESTS,
                    Size::Smoke => 40,
                };
                // Both workloads draw the same stream; serve-sat drops the
                // race report, which the SAT backend does not answer.
                let mut requests = stream(n, &mut program_rng, requests, true);
                if backend == Backend::Sat {
                    if n < SAT_MIN_EVENTS {
                        continue;
                    }
                    requests.retain(|r| *r != Request::Races);
                }
                let exec = Trace::from_json(&text)
                    .map_err(|e| e.to_string())?
                    .to_execution()
                    .map_err(|e| e.to_string())?;
                programs.push(Program {
                    label: format!("{}#{k}", shape.label(prefix)),
                    exec,
                    input: ndjson(&requests),
                    requests,
                    digest: None,
                    digests_differ: false,
                    responses: Vec::new(),
                });
            }
            if programs.len() > before {
                groups.push(programs.len() - before);
            }
        }
        if programs.is_empty() {
            return Err("no program qualified for this workload".to_owned());
        }
        let session = match backend {
            Backend::Exact => SessionConfig::default(),
            Backend::Sat => SessionConfig::from_engine_config(&EngineConfig {
                backend: QueryBackend::Sat,
                ..EngineConfig::default()
            }),
        };
        Ok(Serve {
            backend,
            config: ServeConfig {
                session,
                threads: 1,
            },
            programs,
            visits: gen::Cycle::new(groups, rng),
        })
    }

    fn run_phase(&mut self, seconds: f64, tr: &mut Tracer) -> Result<Phase, String> {
        let mut fastest = Fastest::new(self.programs.len());
        let mut answers = Answers::default();
        let mut clock = Clock::start(seconds);
        let mut op = 0u64;
        let start = self.visits.passes();
        while !(clock.time_up() && self.visits.passes() - start >= MIN_PASSES) {
            let i = self.visits.next().ok_or("the pool is empty")?;
            op += 1;
            let p = &self.programs[i];
            let t = Instant::now();
            let (responses, first_miss) = if tr.enabled() {
                traced_batch(p, &self.config, op, tr)
            } else {
                (serve_batch(&p.exec, &p.input, &self.config).responses, None)
            };
            fastest.op(i, t.elapsed());
            if tr.enabled() {
                clock.exclude(|| remeasure(p, self.backend, first_miss, tr));
            }
            answers.add(tally(&responses, p.requests.len()));
            let p = &mut self.programs[i];
            let d = digest(responses.concat().as_bytes());
            p.digests_differ |= p.digest.is_some_and(|old| old != d);
            p.digest = Some(d);
            p.responses = responses;
        }
        Ok(fastest.phase(answers))
    }

    fn check_all(&self) -> Vec<String> {
        let mut errors = Vec::new();
        for p in &self.programs {
            if p.digests_differ {
                errors.push(format!(
                    "{}: batches of one stream answered differently",
                    p.label
                ));
            }
            if let Err(e) = check_program(p, self.backend) {
                errors.push(format!("{}: {e}", p.label));
            }
        }
        errors
    }

    /// Flips the first decided answer of the recorded responses, as a
    /// wrong answer would; the checks must catch it.
    #[doc(hidden)]
    pub fn corrupt(&mut self) -> bool {
        for p in &mut self.programs {
            for r in &mut p.responses {
                for (from, to) in [
                    ("\"answer\":true", "\"answer\":false"),
                    ("\"answer\":false", "\"answer\":true"),
                ] {
                    if r.contains(from) {
                        *r = r.replace(from, to);
                        return true;
                    }
                }
            }
        }
        false
    }
}

impl Workload for Serve {
    fn setup(seed: u64, size: Size) -> Result<Self, String> {
        Serve::setup_with(seed, size, Backend::Exact)
    }

    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Phase, String> {
        self.run_phase(seconds, tracer)
    }

    fn check(&mut self) -> Vec<String> {
        self.check_all()
    }
}

impl Workload for ServeSat {
    fn setup(seed: u64, size: Size) -> Result<Self, String> {
        Serve::setup_with(seed, size, Backend::Sat).map(ServeSat)
    }

    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Phase, String> {
        self.0.run_phase(seconds, tracer)
    }

    fn check(&mut self) -> Vec<String> {
        self.0.check_all()
    }
}

/// `serve_batch` with threads 1, call by call: the same parse, session
/// and render functions it runs, each in its own span. Returns the
/// responses and the span of the first query that missed the cache
/// (where the session built its guarantee relation and SAT encoding).
fn traced_batch(
    p: &Program,
    config: &ServeConfig,
    op: u64,
    tr: &mut Tracer,
) -> (Vec<String>, Option<SpanId>) {
    let root = tr.begin("op", op);
    let requests = tr.span("serve.parse", op, || parse_requests(&p.exec, &p.input));
    let mut session = tr.span("serve.open", op, || {
        AnalysisSession::with_config(&p.exec, config.session.clone())
    });
    let mut responses = Vec::with_capacity(requests.len());
    let mut first_miss = None;
    for request in &requests {
        let rendered = match &request.op {
            Err(message) => tr.span("serve.render", op, || {
                render_error_at(&request.id, message, request.line)
            }),
            Ok(ServeOp::Query(query)) => {
                let id = tr.begin("serve.query", op);
                let reply = session.query(*query);
                tr.end(id);
                let layer = match &reply {
                    Ok(r) if r.cached => "serve.cache",
                    Ok(r) if r.prefilter || r.static_prefilter => "serve.prefilter",
                    _ if config.session.backend == QueryBackend::Sat => "serve.sat",
                    _ => "serve.engine",
                };
                tr.rename(id, layer);
                if layer != "serve.cache" && first_miss.is_none() {
                    first_miss = id;
                }
                tr.span("serve.render", op, || match &reply {
                    Ok(r) => render_reply(&request.id, r),
                    Err(e) => render_degraded(&request.id, query.op_name(), e),
                })
            }
            Ok(ServeOp::Races) => {
                let races = tr.span("race.races", op, || session.races());
                tr.span("serve.render", op, || match &races {
                    Ok((races, cached)) => render_races(&request.id, races, *cached),
                    Err(e) => render_degraded(&request.id, "races", e),
                })
            }
        };
        responses.push(rendered);
    }
    tr.count("engine.interned_states", session.interned_states() as f64);
    tr.end(root);
    (responses, first_miss)
}

/// Re-measures the layers a session runs lazily inside its first cache
/// miss (the guarantee relation; for `serve-sat` the SAT encoding) and
/// counts the race candidates, all outside the op's clock.
fn remeasure(p: &Program, backend: Backend, first_miss: Option<SpanId>, tr: &mut Tracer) {
    let t = Instant::now();
    let mut g = eo_approx::SafeOrderings::compute(&p.exec)
        .relation()
        .clone();
    g.union_with(eo_approx::TaskGraph::build(&p.exec).relation());
    g.close_transitively();
    tr.attribute(
        first_miss,
        "approx.guarantee",
        t.elapsed().as_nanos() as u64,
    );
    if backend == Backend::Sat {
        let ctx = SearchCtx::new(&p.exec, FeasibilityMode::PreserveDependences);
        let t = Instant::now();
        let sat = SatSession::new(&ctx);
        tr.attribute(first_miss, "sym.encode", t.elapsed().as_nanos() as u64);
        tr.count("sym.clauses", sat.encoding().core_clause_count() as f64);
    }
    if p.requests.contains(&Request::Races) {
        tr.count(
            "race.candidates",
            eo_race::conflicting_pairs(&p.exec).len() as f64,
        );
    }
}

/// Every answer of the program's last batch against a cold one-shot
/// `ExactEngine::query` (for `serve-sat`: every decision and every
/// witness's presence), and the race report against
/// `eo_race::exact_races`.
fn check_program(p: &Program, backend: Backend) -> Result<(), String> {
    if p.responses.len() != p.requests.len() {
        return Err(format!(
            "{} responses to {} requests",
            p.responses.len(),
            p.requests.len()
        ));
    }
    let engine = ExactEngine::new(&p.exec);
    let mut cold: HashMap<Request, Answer> = HashMap::new();
    for (i, (request, response)) in p.requests.iter().zip(&p.responses).enumerate() {
        let doc = json::parse(response).map_err(|e| format!("response {}: {e}", i + 1))?;
        if doc.get("id").and_then(Value::as_i64) != Some(i as i64 + 1) {
            return Err(format!("response {} answers another request", i + 1));
        }
        if status(response) != "exact" {
            return Err(format!(
                "response {} is {}, not exact",
                i + 1,
                status(response)
            ));
        }
        let ok = match *request {
            Request::Races => {
                let expected: Vec<(i64, i64)> = eo_race::exact_races(&p.exec)
                    .iter()
                    .map(|r| (r.first.index() as i64, r.second.index() as i64))
                    .collect();
                let got: Option<Vec<(i64, i64)>> =
                    doc.get("races").and_then(Value::as_array).map(|rs| {
                        rs.iter()
                            .map(|r| {
                                let f = |k| r.get(k).and_then(Value::as_i64).unwrap_or(-1);
                                (f("first"), f("second"))
                            })
                            .collect()
                    });
                got.as_ref() == Some(&expected)
            }
            Request::Point(ask, a, b) => {
                let answer = match cold.get(request) {
                    Some(answer) => answer.clone(),
                    None => {
                        let r = engine
                            .query(ask.query(a, b))
                            .map_err(|e| format!("cold query {}: {e}", i + 1))?;
                        cold.insert(*request, r.answer.clone());
                        r.answer
                    }
                };
                matches_answer(&doc, &answer, backend)
            }
        };
        if !ok {
            return Err(format!(
                "response {} disagrees with the exact engine: {response}",
                i + 1
            ));
        }
    }
    Ok(())
}

fn matches_answer(doc: &Value, answer: &Answer, backend: Backend) -> bool {
    match answer {
        Answer::Decided(v) => doc.get("answer") == Some(&Value::Bool(*v)),
        Answer::Witness(w) => {
            let Some(got) = doc.get("witness") else {
                return false;
            };
            match (w, got) {
                (None, Value::Null) => true,
                (Some(_), Value::Null) | (None, _) => false,
                // SAT witnesses are valid schedules but need not be the
                // exact engine's; their presence is what must agree.
                (Some(_), _) if backend == Backend::Sat => true,
                (Some(schedule), got) => {
                    let expected: Vec<i64> = schedule.iter().map(|e| e.index() as i64).collect();
                    got.as_array().map(|xs| {
                        xs.iter()
                            .map(|x| x.as_i64().unwrap_or(-1))
                            .collect::<Vec<_>>()
                    }) == Some(expected)
                }
            }
        }
        _ => false,
    }
}
