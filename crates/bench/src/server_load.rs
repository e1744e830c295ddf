//! E18: the server load/fault harness — millions of pipelined queries
//! from thousands of sequentially simulated clients, a fault cohort that
//! misbehaves on purpose, and dedicated admission-control and
//! degradation probes, all against the in-process [`eo_serve::net`]
//! server (the same reactor `eo-server` boots).
//!
//! The harness measures throughput and pipelined latency percentiles,
//! but its real product is the robustness ledger: every well-formed
//! query from a well-behaved client must get exactly one response
//! (`lost == 0`), a verification cohort must be answered bit-identically
//! to `eo serve` on stdin (`parity_ok`), overload must surface as
//! structured `overloaded` rejections, deadline pressure as sound
//! `degraded` answers, and hostile traffic as shed/killed *connections*
//! — never as lost answers or a dead server.

use eo_engine::{EngineOptions, FeasibilityMode};
use eo_model::fixtures;
use eo_model::TraceBuilder;
use eo_obs::json::{self, Value};
use eo_serve::net::client::open_request;
use eo_serve::net::{NetClient, Server, ServerConfig, ServerReport};
use eo_serve::{serve_batch, ServeConfig, SessionConfig};
use std::time::{Duration, Instant};

/// Deterministic driver for client scheduling and fault selection.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    fn pick(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Knobs for one harness run.
#[derive(Clone, Debug)]
pub struct ServerLoadConfig {
    /// Well-behaved clients (run sequentially, each pipelining a burst).
    pub good_clients: usize,
    /// Queries pipelined per well-behaved client.
    pub queries_per_client: usize,
    /// Misbehaving clients interleaved into the run.
    pub fault_clients: usize,
    /// Garbage lines each never-reading spammer floods (drives shedding).
    pub spam_lines: usize,
    /// Queries for the admission-control probe (a zero-quota server).
    pub admission_queries: usize,
    /// Queries for the degradation probe (a 1 ms per-query deadline).
    pub degradation_queries: usize,
    /// LCG seed for fault selection and query mixing.
    pub seed: u64,
}

impl ServerLoadConfig {
    /// The committed-report configuration: one million well-formed
    /// queries across two thousand clients plus two hundred hostile ones.
    pub fn full() -> Self {
        ServerLoadConfig {
            good_clients: 2000,
            queries_per_client: 500,
            fault_clients: 200,
            spam_lines: 60_000,
            admission_queries: 1000,
            degradation_queries: 200,
            seed: 0xe18_0001,
        }
    }

    /// A seconds-scale configuration for tests and the CI gate: the same
    /// phases and invariants at a fraction of the volume.
    pub fn smoke() -> Self {
        ServerLoadConfig {
            good_clients: 60,
            queries_per_client: 100,
            fault_clients: 12,
            spam_lines: 4000,
            admission_queries: 100,
            degradation_queries: 20,
            seed: 0xe18_0002,
        }
    }
}

/// Everything one harness run measured (written to `BENCH_server.json`).
#[derive(Clone, Debug)]
pub struct ServerLoadResult {
    /// Well-behaved clients simulated.
    pub good_clients: usize,
    /// Misbehaving clients simulated.
    pub fault_clients: usize,
    /// Well-formed queries sent by well-behaved clients (parity cohort
    /// included).
    pub queries: u64,
    /// Responses those clients received.
    pub answered: u64,
    /// Queries that never got a response (the invariant: zero).
    pub lost: u64,
    /// Client-visible `exact` answers.
    pub exact: u64,
    /// Client-visible `error` answers (the parity cohort's deliberate
    /// malformed requests).
    pub errors: u64,
    /// Load-phase wall time.
    pub wall: Duration,
    /// Load-phase queries per second.
    pub qps: f64,
    /// Pipelined time-to-response percentiles over every good query.
    pub p50_us: u64,
    /// 99th percentile, microseconds.
    pub p99_us: u64,
    /// 99.9th percentile, microseconds.
    pub p999_us: u64,
    /// The verification cohort matched `eo serve` byte-for-byte.
    pub parity_ok: bool,
    /// The load server's own counters after drain.
    pub report: ServerReport,
    /// Admission probe: queries sent to the zero-quota server.
    pub admission_queries: u64,
    /// Admission probe: structured `overloaded` rejections received.
    pub admission_rejected: u64,
    /// The `retry_after_ms` hint carried by the first rejection.
    pub admission_retry_after_ms: i64,
    /// Degradation probe: queries sent under a 1 ms deadline.
    pub degradation_queries: u64,
    /// Degradation probe: sound `degraded` answers received.
    pub degradation_degraded: u64,
}

/// A trace whose exhaustive summary under `IgnoreDependences` runs for
/// many seconds: four processes of four conflicting writes each, so
/// every interleaving is feasible.
fn slow_trace_json() -> String {
    let mut tb = TraceBuilder::new();
    let main = tb.process("main");
    let x = tb.variable("X");
    let (_, kids) = tb.fork(main, &["t1", "t2", "t3"]);
    for p in std::iter::once(main).chain(kids) {
        for i in 0..4 {
            tb.push_full(p, eo_model::Op::Compute, &[x], &[x], Some(&format!("w{i}")));
        }
    }
    tb.build().expect("slow trace is valid").to_json()
}

fn fixture_gallery() -> Vec<String> {
    vec![
        fixtures::figure1().0.to_json(),
        fixtures::crossing().0.to_json(),
        fixtures::fork_join_diamond().0.to_json(),
    ]
}

fn status_of(doc: &str) -> String {
    json::parse(doc)
        .ok()
        .and_then(|v| v.get("status").and_then(Value::as_str).map(str::to_owned))
        .unwrap_or_else(|| format!("unparseable: {doc}"))
}

/// The deterministic verification cohort: a mixed request stream
/// (relations, witnesses, summary, races, and two deliberate errors)
/// whose network responses must be byte-identical to `eo serve`.
fn parity_requests() -> Vec<String> {
    let mut reqs = Vec::new();
    let mut id = 0usize;
    for a in 0..7usize {
        for b in 0..7usize {
            for op in ["mhb", "chb", "ccw", "witness_before", "witness_overlap"] {
                reqs.push(format!(
                    r#"{{"id": {id}, "op": "{op}", "a": {a}, "b": {b}}}"#
                ));
                id += 1;
            }
        }
    }
    reqs.push(format!(r#"{{"id": {id}, "op": "summary"}}"#));
    reqs.push(format!(r#"{{"id": {}, "op": "races"}}"#, id + 1));
    // Two deliberate errors: an unknown op and an out-of-range event.
    // Their error responses carry `line` positions, so byte parity also
    // pins the frame-sequence-to-line alignment.
    reqs.push(format!(r#"{{"id": {}, "op": "frobnicate"}}"#, id + 2));
    reqs.push(format!(
        r#"{{"id": {}, "op": "mhb", "a": 0, "b": 99}}"#,
        id + 3
    ));
    reqs
}

/// Runs the parity cohort against the network server and `serve_batch`,
/// returning (queries, answered, errors, all-byte-identical).
fn run_parity(addr: std::net::SocketAddr, figure1_json: &str) -> (u64, u64, u64, bool) {
    let mut client = NetClient::connect(addr).expect("parity connect");
    let opened = client.open(figure1_json).expect("parity open");
    assert_eq!(status_of(&opened), "ok", "parity open failed: {opened}");
    let requests = parity_requests();
    for r in &requests {
        client.send(r).expect("parity send");
    }
    let from_net: Vec<String> = requests
        .iter()
        .map(|_| client.recv().expect("parity recv"))
        .collect();

    let (trace, _) = fixtures::figure1();
    let exec = trace.to_execution().expect("fixture is valid");
    // The network side numbers frames from 1 and the open consumed frame
    // 1, so the batch replay gets one leading blank line to align the
    // `line` fields of the error responses.
    let batch_input = format!("\n{}\n", requests.join("\n"));
    let outcome = serve_batch(
        &exec,
        &batch_input,
        &ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    let parity_ok = from_net == outcome.responses;
    let errors = from_net.iter().filter(|r| status_of(r) == "error").count() as u64;
    (
        requests.len() as u64,
        from_net.len() as u64,
        errors,
        parity_ok,
    )
}

/// One misbehaving client. Returns how many well-formed queries it sent
/// and how many answers it read (both usually zero), plus optionally the
/// connection itself when the fault is "stall forever".
fn run_fault_client(
    rng: &mut Lcg,
    addr: std::net::SocketAddr,
    spam_lines: usize,
    max_frame: usize,
) -> Option<NetClient> {
    match rng.pick(4) {
        // Mid-request disconnect: a prefix of a valid frame, then gone.
        0 => {
            let full = b"39:{\"id\": 1, \"op\": \"mhb\", \"a\": 0, \"b\": 1}\n";
            let cut = 1 + rng.pick(full.len() - 1);
            let mut client = NetClient::connect(addr).expect("fault connect");
            let _ = client.send_raw(&full[..cut]);
            None
        }
        // Garbage frames, politely read back: each line costs exactly
        // one error and the connection stays usable.
        1 => {
            let mut client = NetClient::connect(addr).expect("fault connect");
            for _ in 0..50 {
                let _ = client.send_raw(b"not a frame at all\n");
            }
            let _ = client.send(r#"{"id": "sync", "op": "ping"}"#);
            while let Ok(doc) = client.recv() {
                if status_of(&doc) == "ok" {
                    break;
                }
            }
            None
        }
        // Oversized program: refused as an oversized frame; the
        // connection survives to hear the refusal.
        2 => {
            let mut client = NetClient::connect(addr).expect("fault connect");
            let huge = open_request(&"x".repeat(2 * max_frame), None);
            let _ = client.send(&huge);
            let _ = client.recv();
            None
        }
        // Stalled reader: floods garbage and never reads. Its droppable
        // error responses are shed once the write queue saturates, and
        // the write timeout eventually kills the connection during
        // drain. Returned to the caller so it stays open until then.
        3 => {
            let mut client = NetClient::connect(addr).expect("fault connect");
            let chunk: Vec<u8> = b"spam spam spam spam spam\n".repeat(256);
            let mut line = 0usize;
            while line < spam_lines {
                if client.send_raw(&chunk).is_err() {
                    break;
                }
                line += 256;
            }
            Some(client)
        }
        _ => unreachable!(),
    }
}

/// The full harness: parity cohort, load+fault phase, admission probe,
/// degradation probe. Panics on any violated invariant.
pub fn e18_server_load(config: &ServerLoadConfig) -> ServerLoadResult {
    // --- Load server: shedding made observable (small write queue, no
    // read backpressure so spammers cannot wedge the harness), write
    // timeout short so stalled readers die during drain, frames capped
    // small so oversized programs are cheap to test.
    let server_config = ServerConfig {
        max_frame: 64 * 1024,
        max_programs: 2, // three programs rotate: LRU eviction on every shift
        max_write_queue: 256,
        write_high_watermark: 64 << 20,
        write_timeout: Duration::from_millis(1500),
        read_timeout: Duration::from_secs(10),
        idle_timeout: Duration::from_secs(60),
        drain_deadline: Duration::from_secs(10),
        drain_grace: Duration::from_secs(5),
        ..Default::default()
    };
    let max_frame = server_config.max_frame;
    let server = Server::bind(server_config).expect("bind load server");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());

    let gallery = fixture_gallery();
    let figure1_json = &gallery[0];

    let (parity_sent, parity_answered, parity_errors, parity_ok) = run_parity(addr, figure1_json);

    // --- Load phase: good clients pipeline bursts, fault clients strike
    // between them at a deterministic cadence.
    let mut rng = Lcg(config.seed);
    let mut latencies_us: Vec<u64> =
        Vec::with_capacity(config.good_clients * config.queries_per_client);
    let mut sent = parity_sent;
    let mut answered = parity_answered;
    let mut exact = 0u64;
    let mut errors = parity_errors;
    let mut stalled = Vec::new();
    let fault_every = config
        .good_clients
        .checked_div(config.fault_clients)
        .map_or(usize::MAX, |n| n.max(1));
    let mut faults_launched = 0usize;
    let started = Instant::now();
    for c in 0..config.good_clients {
        if c % fault_every == 0 && faults_launched < config.fault_clients {
            if let Some(client) = run_fault_client(&mut rng, addr, config.spam_lines, max_frame) {
                stalled.push(client);
            }
            faults_launched += 1;
        }
        let program = &gallery[c % gallery.len()];
        let mut client = NetClient::connect(addr).expect("client connect");
        let opened = client.open(program).expect("open");
        assert_eq!(status_of(&opened), "ok", "open failed: {opened}");
        let events = 6usize; // every gallery fixture has at least 6 events
        let mut send_times = Vec::with_capacity(config.queries_per_client);
        for q in 0..config.queries_per_client {
            let (a, b) = (rng.pick(events), rng.pick(events));
            let op = ["mhb", "chb", "ccw"][q % 3];
            client
                .send(&format!(
                    r#"{{"id": {q}, "op": "{op}", "a": {a}, "b": {b}}}"#
                ))
                .expect("send query");
            send_times.push(Instant::now());
            sent += 1;
        }
        for sent_at in send_times.iter().take(config.queries_per_client) {
            let doc = client.recv().expect("query response");
            latencies_us.push(sent_at.elapsed().as_micros() as u64);
            answered += 1;
            match status_of(&doc).as_str() {
                "exact" => exact += 1,
                "error" => errors += 1,
                other => panic!("unexpected status {other} under plain load: {doc}"),
            }
        }
    }
    let wall = started.elapsed();

    // --- Drain: stalled readers are still attached with queued frames;
    // the write timeout kills them and the drain completes cleanly.
    handle.drain();
    let report = join.join().expect("load server thread");
    drop(stalled);

    assert!(parity_ok, "network responses diverged from `eo serve`");
    let lost = sent - answered;
    assert_eq!(lost, 0, "a well-formed query went unanswered");

    latencies_us.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies_us.is_empty() {
            return 0;
        }
        let idx = ((latencies_us.len() as f64 * p) as usize).min(latencies_us.len() - 1);
        latencies_us[idx]
    };
    let (p50_us, p99_us, p999_us) = (pct(0.50), pct(0.99), pct(0.999));
    let qps = (sent - parity_sent) as f64 / wall.as_secs_f64().max(1e-9);

    // --- Admission probe: a zero-quota server must reject every query
    // with a structured `overloaded` response carrying `retry_after_ms`.
    let admission_config = ServerConfig {
        per_tenant_inflight: 0,
        retry_after_ms: 25,
        ..Default::default()
    };
    let server = Server::bind(admission_config).expect("bind admission server");
    let addr = server.local_addr().expect("addr");
    let admission_handle = server.handle();
    let admission_join = std::thread::spawn(move || server.run());
    let mut client = NetClient::connect(addr).expect("admission connect");
    let opened = client.open(figure1_json).expect("admission open");
    assert_eq!(status_of(&opened), "ok");
    for q in 0..config.admission_queries {
        client
            .send(&format!(r#"{{"id": {q}, "op": "mhb", "a": 0, "b": 1}}"#))
            .expect("send admission query");
    }
    let mut admission_rejected = 0u64;
    let mut admission_retry_after_ms = -1i64;
    for _ in 0..config.admission_queries {
        let doc = client.recv().expect("admission response");
        if status_of(&doc) == "overloaded" {
            admission_rejected += 1;
            if admission_retry_after_ms < 0 {
                admission_retry_after_ms = json::parse(&doc)
                    .ok()
                    .and_then(|v| v.get("retry_after_ms").and_then(Value::as_i64))
                    .unwrap_or(-1);
            }
        }
    }
    drop(client);
    admission_handle.drain();
    let _ = admission_join.join();
    assert_eq!(
        admission_rejected, config.admission_queries as u64,
        "the zero-quota server must reject every query"
    );
    assert!(
        admission_retry_after_ms >= 0,
        "rejections carry retry_after_ms"
    );

    // --- Degradation probe: a 1 ms per-query deadline on a workload
    // whose summary cannot finish that fast yields sound degraded
    // answers — never errors, never silence. Under `--ignore-deps` the
    // conflicting writes below make every interleaving feasible, so the
    // schedule space dwarfs any millisecond budget.
    let slow_json = slow_trace_json();
    let degradation_config = ServerConfig {
        query_deadline_ms: 1,
        session: SessionConfig {
            engine: EngineOptions::with_mode(FeasibilityMode::IgnoreDependences),
            cache: false,
            prefilter: false,
            ..Default::default()
        },
        ..Default::default()
    };
    let server = Server::bind(degradation_config).expect("bind degradation server");
    let addr = server.local_addr().expect("addr");
    let degradation_handle = server.handle();
    let degradation_join = std::thread::spawn(move || server.run());
    let mut client = NetClient::connect(addr).expect("degradation connect");
    let opened = client.open(&slow_json).expect("degradation open");
    assert_eq!(status_of(&opened), "ok");
    let mut degradation_degraded = 0u64;
    for q in 0..config.degradation_queries {
        let doc = client
            .request(&format!(r#"{{"id": {q}, "op": "summary"}}"#))
            .expect("degradation response");
        match status_of(&doc).as_str() {
            "degraded" => degradation_degraded += 1,
            "exact" => {}
            other => panic!("unexpected status {other} under deadline pressure: {doc}"),
        }
    }
    drop(client);
    degradation_handle.drain();
    let _ = degradation_join.join();
    assert!(
        degradation_degraded > 0,
        "the 1 ms deadline must degrade at least one summary"
    );

    ServerLoadResult {
        good_clients: config.good_clients,
        fault_clients: faults_launched,
        queries: sent,
        answered,
        lost,
        exact,
        errors,
        wall,
        qps,
        p50_us,
        p99_us,
        p999_us,
        parity_ok,
        report,
        admission_queries: config.admission_queries as u64,
        admission_rejected,
        admission_retry_after_ms,
        degradation_queries: config.degradation_queries as u64,
        degradation_degraded,
    }
}

/// Renders one harness run as the committed `BENCH_server.json` document.
pub fn server_load_json(r: &ServerLoadResult) -> String {
    format!(
        concat!(
            "{{\n  \"schema_version\": 1,\n  \"experiment\": \"e18_server_load\",\n",
            "  \"load\": {{\"good_clients\": {}, \"fault_clients\": {}, \"queries\": {}, ",
            "\"answered\": {}, \"lost\": {}, \"exact\": {}, \"errors\": {}, ",
            "\"wall_ms\": {:.3}, \"qps\": {:.0}, ",
            "\"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"parity_ok\": {}}},\n",
            "  \"server\": {{\"accepted\": {}, \"refused_conns\": {}, \"frames\": {}, ",
            "\"bad_frames\": {}, \"requests\": {}, \"responses\": {}, \"rejected\": {}, ",
            "\"shed\": {}, \"timeout_kills\": {}, \"sessions_rebuilt\": {}, ",
            "\"evictions\": {}, \"orphaned\": {}, \"drained_clean\": {}}},\n",
            "  \"admission\": {{\"queries\": {}, \"rejected\": {}, \"retry_after_ms\": {}}},\n",
            "  \"degradation\": {{\"queries\": {}, \"degraded\": {}}}\n}}\n"
        ),
        r.good_clients,
        r.fault_clients,
        r.queries,
        r.answered,
        r.lost,
        r.exact,
        r.errors,
        r.wall.as_secs_f64() * 1e3,
        r.qps,
        r.p50_us,
        r.p99_us,
        r.p999_us,
        r.parity_ok,
        r.report.accepted,
        r.report.refused_conns,
        r.report.frames,
        r.report.bad_frames,
        r.report.requests,
        r.report.responses,
        r.report.rejected,
        r.report.shed,
        r.report.timeout_kills,
        r.report.sessions_rebuilt,
        r.report.evictions,
        r.report.orphaned,
        r.report.drained_clean,
        r.admission_queries,
        r.admission_rejected,
        r.admission_retry_after_ms,
        r.degradation_queries,
        r.degradation_degraded,
    )
}

/// One invariant's verdict from the server-robustness gate.
#[derive(Clone, Debug)]
pub struct ServerCheck {
    /// What was checked.
    pub invariant: String,
    /// The committed baseline's value, rendered.
    pub committed: String,
    /// This run's value, rendered.
    pub current: String,
    /// Human-readable failures; empty = passed.
    pub failures: Vec<String>,
}

/// Compares a committed `BENCH_server.json` and a freshly measured
/// (smoke-scale) run. The gated properties are *invariants*, not
/// machine-dependent throughput: zero lost answers, byte-parity with
/// `eo serve`, total rejection under zero quota, sound degradation under
/// deadline pressure, hostile traffic absorbed, clean drain.
pub fn check_server_against(
    baseline_json: &str,
    current: &ServerLoadResult,
) -> Result<Vec<ServerCheck>, String> {
    let parsed = eo_obs::json::parse(baseline_json)
        .map_err(|e| format!("server baseline JSON at byte {}: {}", e.offset, e.message))?;
    let section = |name: &str| {
        parsed
            .get(name)
            .cloned()
            .ok_or_else(|| format!("server baseline has no \"{name}\" section"))
    };
    let load = section("load")?;
    let server = section("server")?;
    let admission = section("admission")?;
    let degradation = section("degradation")?;
    let num = |v: &Value, name: &str| {
        v.get(name)
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("server baseline missing numeric \"{name}\""))
    };
    let boolean = |v: &Value, name: &str| match v.get(name) {
        Some(Value::Bool(b)) => Ok(*b),
        _ => Err(format!("server baseline missing boolean \"{name}\"")),
    };

    let mut out = Vec::new();
    let mut check =
        |invariant: &str, committed: String, now: String, ok_committed: bool, ok_now: bool| {
            let mut failures = Vec::new();
            if !ok_committed {
                failures.push(format!("committed baseline violates: {invariant}"));
            }
            if !ok_now {
                failures.push(format!("re-measured run violates: {invariant}"));
            }
            out.push(ServerCheck {
                invariant: invariant.to_string(),
                committed,
                current: now,
                failures,
            });
        };

    let b_lost = num(&load, "lost")?;
    check(
        "zero lost answers",
        b_lost.to_string(),
        current.lost.to_string(),
        b_lost == 0,
        current.lost == 0,
    );
    let b_parity = boolean(&load, "parity_ok")?;
    check(
        "byte parity with eo serve",
        b_parity.to_string(),
        current.parity_ok.to_string(),
        b_parity,
        current.parity_ok,
    );
    let (b_adm_q, b_adm_r) = (num(&admission, "queries")?, num(&admission, "rejected")?);
    check(
        "zero quota rejects every query",
        format!("{b_adm_r}/{b_adm_q}"),
        format!(
            "{}/{}",
            current.admission_rejected, current.admission_queries
        ),
        b_adm_q > 0 && b_adm_r == b_adm_q,
        current.admission_queries > 0 && current.admission_rejected == current.admission_queries,
    );
    let b_deg = num(&degradation, "degraded")?;
    check(
        "deadline pressure degrades soundly",
        b_deg.to_string(),
        current.degradation_degraded.to_string(),
        b_deg > 0,
        current.degradation_degraded > 0,
    );
    let b_bad = num(&server, "bad_frames")?;
    check(
        "hostile frames absorbed",
        b_bad.to_string(),
        current.report.bad_frames.to_string(),
        b_bad > 0,
        current.report.bad_frames > 0,
    );
    let b_drained = boolean(&server, "drained_clean")?;
    check(
        "drain completes cleanly",
        b_drained.to_string(),
        current.report.drained_clean.to_string(),
        b_drained,
        current.report.drained_clean,
    );
    Ok(out)
}
