//! `server-tcp`: an in-process `eo_serve::net::Server` on loopback with
//! the default `ServerConfig`, driven by two connections from one client
//! thread. Each connection is an interactive caller asking cheap point
//! queries about small programs, one request at a time; the two take
//! turns, so one request is in flight at a time. Every `SEGMENT` requests
//! a caller reopens another of its programs. Set-up opens every program
//! and asks each of its questions once, so timed queries are answered
//! from the session cache and the reactor sets the latency.
//!
//! Callers with requests in flight at once phase-lock against the
//! reactor's idle sleep: how often one caller's answer rode along with
//! the other's set the mean round trip, and with it the rate, which swung
//! by up to half between runs while the median held. Taking turns leaves
//! one latency mode.
//!
//! The two connections never share a program, so each program's session
//! sees exactly one caller's requests, in order, and its responses can be
//! checked byte for byte against `serve_batch` on the same stream.

use crate::gen::{self, Rng, Shape};
use crate::serve::status;
use crate::span::{SpanId, Tracer};
use crate::stats::{self, Answers};
use crate::{digest_update, Clock, Phase, Size, Workload, DIGEST_INIT, MIN_OPS};
use eo_model::{ProgramExecution, Trace};
use eo_serve::net::{encode, FrameDecoder, FrameEvent};
use eo_serve::protocol::render_reply;
use eo_serve::{
    parse_one, serve_batch, AnalysisSession, NetClient, ServeConfig, ServeOp, Server, ServerConfig,
    ServerHandle, ServerReport, SessionConfig,
};
use std::fmt::Write as _;
use std::thread::JoinHandle;
use std::time::Instant;

/// Connections, each owning `PROGRAMS / CONNS` programs.
const CONNS: usize = 2;
/// Programs resident in the server (its default store holds 8, so none
/// is ever evicted).
const PROGRAMS: usize = 8;
/// Requests a connection sends before reopening its next program.
const SEGMENT: usize = 200;
/// Distinct questions asked about each program.
const QUESTIONS: usize = 24;
/// Round trips in each run `ops_per_s` takes its median over: about a
/// tenth of a second's worth.
const RATE_RUN: usize = 100;

/// Program shapes: small programs whose queries cost microseconds.
fn shapes() -> [Shape; PROGRAMS] {
    [
        Shape::semaphores(3, 4),
        Shape::events(3, 4),
        Shape::semaphores(4, 3),
        Shape::race(3, 4),
        Shape::semaphores(3, 4),
        Shape::events(3, 4),
        Shape::semaphores(4, 3),
        Shape::race(3, 4),
    ]
}

const OPS: [&str; 3] = ["mhb", "chb", "ccw"];

struct Program {
    trace: String,
    exec: ProgramExecution,
    /// The questions callers ask: (op index, a, b).
    questions: Vec<(usize, usize, usize)>,
    /// Every request sent for this program, in order: (id, question).
    sent: Vec<(u64, usize)>,
    /// Digest of every response received, in order, and how many came
    /// back exact.
    digest: u64,
    exact: usize,
}

impl Program {
    fn request(&self, id: u64, q: usize) -> String {
        let (op, a, b) = self.questions[q];
        format!("{{\"id\":{id},\"op\":\"{}\",\"a\":{a},\"b\":{b}}}", OPS[op])
    }

    fn record(&mut self, id: u64, q: usize, response: &str) {
        self.sent.push((id, q));
        self.digest = digest_update(digest_update(self.digest, response.as_bytes()), b"\n");
        self.exact += usize::from(status(response) == "exact");
    }
}

struct Conn {
    client: NetClient,
    /// The connection's own programs and the one it is attached to.
    programs: Vec<usize>,
    attached: usize,
    /// Requests sent since the last (re)open.
    in_segment: usize,
    rng: Rng,
    next_id: u64,
}

/// A request in flight: program, id, question, send time.
type Outstanding = (usize, u64, usize, Instant);

/// The `server-tcp` workload.
pub struct ServerTcp {
    programs: Vec<Program>,
    conns: Vec<Conn>,
    handle: ServerHandle,
    server: Option<JoinHandle<ServerReport>>,
    report: Option<ServerReport>,
    size: Size,
}

fn io(e: std::io::Error) -> String {
    format!("server-tcp: {e}")
}

impl ServerTcp {
    /// Opens the connection's next program (a round trip).
    fn reopen(&mut self, c: usize, tr: &mut Tracer) -> Result<(), String> {
        let conn = &mut self.conns[c];
        conn.attached = (conn.attached + 1) % conn.programs.len();
        conn.in_segment = 0;
        let p = conn.programs[conn.attached];
        let id = tr.begin("net.open", 0);
        let reply = conn.client.open(&self.programs[p].trace).map_err(io)?;
        tr.end(id);
        if !reply.contains("\"status\":\"ok\"") {
            return Err(format!("server-tcp: open failed: {reply}"));
        }
        Ok(())
    }

    /// Sends question `q` (or a seeded random one) about the attached
    /// program.
    fn send(&mut self, c: usize, q: Option<usize>) -> Result<Outstanding, String> {
        let conn = &mut self.conns[c];
        let p = conn.programs[conn.attached];
        let q = q.unwrap_or_else(|| conn.rng.below(QUESTIONS));
        conn.next_id += 1;
        conn.in_segment += 1;
        let id = conn.next_id;
        let request = self.programs[p].request(id, q);
        let t = Instant::now();
        conn.client.send(&request).map_err(io)?;
        Ok((p, id, q, t))
    }
}

impl Workload for ServerTcp {
    fn setup(seed: u64, size: Size) -> Result<Self, String> {
        let rng = Rng::new(seed);
        let mut programs = Vec::with_capacity(PROGRAMS);
        for (i, shape) in shapes().iter().enumerate() {
            let mut prng = rng.fork(i as u64);
            let (trace, n) = gen::random_trace(shape, &mut prng);
            let exec = Trace::from_json(&trace)
                .map_err(|e| e.to_string())?
                .to_execution()
                .map_err(|e| e.to_string())?;
            let questions = (0..QUESTIONS)
                .map(|_| {
                    let a = prng.below(n);
                    (prng.below(OPS.len()), a, (a + 1 + prng.below(n - 1)) % n)
                })
                .collect();
            programs.push(Program {
                trace,
                exec,
                questions,
                sent: Vec::new(),
                digest: DIGEST_INIT,
                exact: 0,
            });
        }
        let server = Server::bind(ServerConfig::default()).map_err(io)?;
        let addr = server.local_addr().map_err(io)?;
        let handle = server.handle();
        let thread = std::thread::spawn(move || server.run());
        let per = PROGRAMS / CONNS;
        let mut conns = Vec::with_capacity(CONNS);
        for c in 0..CONNS {
            conns.push(Conn {
                client: NetClient::connect(addr).map_err(io)?,
                programs: (c * per..(c + 1) * per).collect(),
                attached: per - 1,
                in_segment: 0,
                rng: rng.fork(100 + c as u64),
                next_id: 0,
            });
        }
        let mut w = ServerTcp {
            programs,
            conns,
            handle,
            server: Some(thread),
            report: None,
            size,
        };
        // Open every program and ask each question once, one round trip
        // at a time, leaving each connection on its first program.
        let mut off = Tracer::new(false);
        for c in 0..CONNS {
            for _ in 0..per {
                w.reopen(c, &mut off)?;
                for q in 0..QUESTIONS {
                    let (p, id, q, _) = w.send(c, Some(q))?;
                    let response = w.conns[c].client.recv().map_err(io)?;
                    w.programs[p].record(id, q, &response);
                }
            }
        }
        Ok(w)
    }

    fn run(&mut self, seconds: f64, tr: &mut Tracer) -> Result<Phase, String> {
        let segment = match self.size {
            Size::Full => SEGMENT,
            Size::Smoke => 10,
        };
        // The replicas borrow their own copy of the programs, so the loop
        // below stays free to record into `self`.
        let execs: Vec<ProgramExecution> = self.programs.iter().map(|p| p.exec.clone()).collect();
        let mut replay = tr.enabled().then(|| Replay::new(&execs, &self.programs));
        let mut latencies = Vec::new();
        let mut done_at = Vec::new();
        let mut answers = Answers::default();
        let mut clock = Clock::start(seconds);
        let mut c = 0;
        loop {
            let (p, id, q, sent_at) = self.send(c, None)?;
            let response = self.conns[c]
                .client
                .recv()
                .map_err(|e| format!("server-tcp: response lost: {e}"))?;
            let latency = sent_at.elapsed();
            answers.attempted += 1;
            latencies.push(latency.as_secs_f64());
            match status(&response) {
                "exact" => answers.exact += 1,
                "degraded" => answers.degraded += 1,
                _ => answers.errors += 1,
            }
            if let Some(replay) = replay.as_mut() {
                // The round trip is the op; once the re-measured service
                // and framing are laid inside it, its self time is the
                // reactor's share.
                let op = latencies.len() as u64;
                let span = tr.record("net.reactor", op, sent_at, latency);
                let request = self.programs[p].request(id, q);
                clock.exclude(|| replay.probe(p, &request, &response, span, tr));
            }
            self.programs[p].record(id, q, &response);
            done_at.push(clock.now());
            if clock.time_up() && latencies.len() >= MIN_OPS {
                break;
            }
            c = (c + 1) % CONNS;
            if self.conns[c].in_segment >= segment {
                self.reopen(c, tr)?;
            }
        }
        Ok(Phase {
            ops: latencies.len(),
            ops_per_s: stats::median_rate(&done_at, RATE_RUN),
            basis: format!("every round trip; ops_per_s is the median over runs of {RATE_RUN}"),
            latencies,
            answers,
        })
    }

    fn finish(&mut self, tr: &mut Tracer) -> Result<(), String> {
        self.handle.drain();
        let report = self
            .server
            .take()
            .map(|t| {
                t.join()
                    .map_err(|_| "server-tcp: server thread panicked".to_owned())
            })
            .transpose()?;
        if let Some(report) = &report {
            tr.count("net.rejected", report.rejected as f64);
            tr.count("net.shed", report.shed as f64);
            tr.count("net.orphaned", report.orphaned as f64);
        }
        self.report = report;
        Ok(())
    }

    fn check(&mut self) -> Vec<String> {
        let mut errors = Vec::new();
        if let Some(r) = &self.report {
            if r.rejected + r.shed + r.orphaned + r.degraded + r.errors > 0 {
                errors.push(format!("server report shows lost or refused work: {r:?}"));
            }
        }
        let config = ServeConfig {
            session: SessionConfig::default(),
            threads: 1,
        };
        for (i, p) in self.programs.iter().enumerate() {
            let mut input = String::new();
            for &(id, q) in &p.sent {
                let _ = writeln!(input, "{}", p.request(id, q));
            }
            let batch = serve_batch(&p.exec, &input, &config).responses;
            let expected = batch.iter().fold(DIGEST_INIT, |h, r| {
                digest_update(digest_update(h, r.as_bytes()), b"\n")
            });
            if batch.len() != p.sent.len() || expected != p.digest {
                errors.push(format!(
                    "program {i}: its {} responses differ from serve_batch on the same stream",
                    p.sent.len()
                ));
            }
            if p.exact != p.sent.len() {
                errors.push(format!(
                    "program {i}: {} of {} answers were exact",
                    p.exact,
                    p.sent.len()
                ));
            }
        }
        errors
    }
}

impl ServerTcp {
    /// Alters the record of one program's responses, as a misrouted
    /// answer would; the checks must catch it.
    #[doc(hidden)]
    pub fn corrupt(&mut self) -> bool {
        self.programs[0].digest ^= 1;
        true
    }
}

/// In-process replicas of the server's sessions, fed the same request
/// history, used to re-measure the service and framing time of each
/// round trip in the traced run.
struct Replay<'e> {
    execs: &'e [ProgramExecution],
    sessions: Vec<AnalysisSession<'e>>,
    decoder: FrameDecoder,
}

impl<'e> Replay<'e> {
    fn new(execs: &'e [ProgramExecution], programs: &[Program]) -> Replay<'e> {
        let mut sessions = Vec::with_capacity(execs.len());
        for (exec, p) in execs.iter().zip(programs) {
            let mut s = AnalysisSession::with_config(exec, SessionConfig::default());
            for &(id, q) in &p.sent {
                let _ = service(exec, &mut s, &p.request(id, q));
            }
            sessions.push(s);
        }
        Replay {
            execs,
            sessions,
            decoder: FrameDecoder::new(ServerConfig::default().max_frame),
        }
    }

    fn probe(
        &mut self,
        p: usize,
        request: &str,
        response: &str,
        span: Option<SpanId>,
        tr: &mut Tracer,
    ) {
        let t = Instant::now();
        let replayed = service(&self.execs[p], &mut self.sessions[p], request);
        let service_ns = t.elapsed().as_nanos() as u64;
        let t = Instant::now();
        for payload in [request, response] {
            self.decoder.push(&encode(payload));
            while let Some(FrameEvent::Frame(_)) = self.decoder.next_event() {}
        }
        let frame_ns = t.elapsed().as_nanos() as u64;
        tr.attribute(span, "net.service", service_ns);
        tr.attribute(span, "net.frame", frame_ns);
        if replayed.as_deref() != Some(response) {
            tr.count("net.replay_mismatches", 1.0);
        }
    }
}

/// The server's per-request service path: `parse_one` →
/// `AnalysisSession::query` → `render_reply`.
fn service(
    exec: &ProgramExecution,
    session: &mut AnalysisSession<'_>,
    request: &str,
) -> Option<String> {
    let v = eo_obs::json::parse(request).ok()?;
    let parsed = parse_one(exec, &v, None);
    match parsed.op {
        Ok(ServeOp::Query(q)) => session.query(q).ok().map(|r| render_reply(&parsed.id, &r)),
        _ => None,
    }
}
