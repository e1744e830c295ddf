//! Protocol-hostility tests: a seeded corpus of malformed, truncated,
//! and oversized inputs thrown at both serving front ends — `serve_batch`
//! (the `eo serve --batch`/stdin path) and the TCP server. The invariants
//! under fire:
//!
//! * no panic, no hang, no killed connection or process;
//! * every malformed input costs exactly one structured error response
//!   (at the right `line` for the batch path);
//! * well-formed requests interleaved with the hostility are still
//!   answered, exactly and in order.
//!
//! Randomness is a seeded LCG so every run exercises the identical
//! corpus; bump `ROUNDS` locally for a longer soak.

use eo_model::fixtures;
use eo_obs::json::{self, Value};
use eo_serve::net::{NetClient, Server, ServerConfig, ServerHandle, ServerReport};
use eo_serve::{serve_batch, ServeConfig};
use std::net::SocketAddr;
use std::time::Duration;

/// Deterministic corpus driver (numerical-recipes LCG).
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

fn figure1_json() -> String {
    let (trace, _) = fixtures::figure1();
    trace.to_json()
}

fn status_of(doc: &str) -> String {
    json::parse(doc)
        .expect("response is valid JSON")
        .get("status")
        .and_then(Value::as_str)
        .expect("response carries status")
        .to_owned()
}

/// Hostile *line* payloads for the NDJSON batch path: each is one input
/// line that must produce exactly one `status: "error"` response.
fn hostile_line(rng: &mut Lcg) -> String {
    match rng.pick(7) {
        0 => "this is not json at all".to_owned(),
        1 => r#"{"id": 1, "op": "mhb""#.to_owned(), // truncated JSON
        2 => r#"{"id": [1,2], "op": 42}"#.to_owned(), // wrong types
        3 => format!(
            r#"{{"id": 1, "op": "mhb", "a": {}, "b": 0}}"#,
            "9".repeat(40)
        ),
        4 => format!("{{\"junk\": \"{}\"}}", "x".repeat(64 * 1024)), // huge but valid JSON, no op
        5 => r#"{"id": 7, "op": "frobnicate"}"#.to_owned(),          // unknown op
        6 => "\u{1}\u{2}\u{3}garbage\u{7f}".to_owned(),              // control chars
        _ => unreachable!(),
    }
}

#[test]
fn the_batch_path_answers_every_hostile_line_with_one_positioned_error() {
    let (trace, _) = fixtures::figure1();
    let exec = trace.to_execution().expect("fixture is valid");
    let mut rng = Lcg(0x5eed_0001);

    const ROUNDS: usize = 60;
    let mut lines = Vec::new();
    let mut expect_error = Vec::new(); // 1-based line numbers owed an error
    for i in 0..ROUNDS {
        if i % 3 == 0 {
            lines.push(format!(r#"{{"id": {i}, "op": "mhb", "a": 0, "b": 1}}"#));
        } else {
            lines.push(hostile_line(&mut rng));
            expect_error.push(lines.len());
        }
    }
    let input = lines.join("\n");
    let outcome = serve_batch(
        &exec,
        &input,
        &ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );

    assert_eq!(
        outcome.responses.len(),
        lines.len(),
        "exactly one response per input line"
    );
    let mut errored_lines = Vec::new();
    for response in &outcome.responses {
        let v = json::parse(response).expect("every response is valid JSON");
        match v.get("status").and_then(Value::as_str) {
            Some("error") => {
                let line = v
                    .get("line")
                    .and_then(Value::as_i64)
                    .expect("batch errors carry the offending line");
                errored_lines.push(line as usize);
            }
            Some("exact") => {}
            other => panic!("unexpected status {other:?} in {response}"),
        }
    }
    assert_eq!(
        errored_lines, expect_error,
        "each hostile line errors at its own position, nothing else does"
    );
}

/// A megabyte of `[`, 8,192 times `json::MAX_DEPTH`: a parser without a
/// nesting limit overflows its stack on it.
fn bracket_bomb() -> String {
    "[".repeat(1 << 20)
}

fn error_message(doc: &str) -> String {
    json::parse(doc)
        .expect("response is valid JSON")
        .get("error")
        .and_then(Value::as_str)
        .expect("error responses carry a message")
        .to_owned()
}

#[test]
fn a_megabyte_line_of_open_brackets_costs_one_positioned_error() {
    let (trace, _) = fixtures::figure1();
    let exec = trace.to_execution().expect("fixture is valid");
    let query = r#"{"id": 1, "op": "mhb", "a": 0, "b": 1}"#;
    let config = ServeConfig {
        threads: 1,
        ..Default::default()
    };

    // Mid-stream: one error at the bomb's line; the queries around it are
    // still answered.
    let input = format!("{query}\n{}\n{query}", bracket_bomb());
    let outcome = serve_batch(&exec, &input, &config);
    let statuses: Vec<String> = outcome.responses.iter().map(|r| status_of(r)).collect();
    assert_eq!(statuses, ["exact", "error", "exact"]);
    let bomb = json::parse(&outcome.responses[1]).expect("valid JSON");
    assert_eq!(bomb.get("line").and_then(Value::as_i64), Some(2));
    let depth = json::MAX_DEPTH.to_string();
    assert!(
        error_message(&outcome.responses[1]).contains(&depth),
        "the error names the nesting limit: {}",
        outcome.responses[1]
    );

    // As the whole input it reads as a JSON-array batch: one error, line 1.
    let outcome = serve_batch(&exec, &bracket_bomb(), &config);
    assert_eq!(outcome.responses.len(), 1);
    assert_eq!(status_of(&outcome.responses[0]), "error");
    let doc = json::parse(&outcome.responses[0]).expect("valid JSON");
    assert_eq!(doc.get("line").and_then(Value::as_i64), Some(1));
    assert!(error_message(&outcome.responses[0]).contains(&depth));
}

#[test]
fn a_megabyte_frame_of_open_brackets_costs_one_error_reply() {
    let config = ServerConfig {
        max_frame: 2 << 20,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let (addr, handle, join) = start(config);
    let mut client = NetClient::connect(addr).expect("connect");
    let opened = client.open(&figure1_json()).expect("open");
    assert_eq!(status_of(&opened), "ok");

    let reply = client
        .request(&bracket_bomb())
        .expect("a reply to the bomb");
    assert_eq!(status_of(&reply), "error");
    assert!(
        error_message(&reply).contains(&json::MAX_DEPTH.to_string()),
        "the error names the nesting limit: {reply}"
    );
    let answer = client
        .request(r#"{"id": "after", "op": "mhb", "a": 0, "b": 1}"#)
        .expect("query after the bomb");
    assert_eq!(status_of(&answer), "exact");

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert!(report.drained_clean);
}

fn start(
    config: ServerConfig,
) -> (
    SocketAddr,
    ServerHandle,
    std::thread::JoinHandle<ServerReport>,
) {
    let server = Server::bind(config).expect("bind");
    let addr = server.local_addr().expect("addr");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.run());
    (addr, handle, join)
}

/// Hostile *frame* byte sequences. Each is self-terminating (resyncs at
/// its trailing newline) and owes exactly one error response.
fn hostile_frame(rng: &mut Lcg, max_frame: usize) -> Vec<u8> {
    match rng.pick(8) {
        0 => b"complete garbage, no frame shape\n".to_vec(),
        1 => format!("{}:too big\n", max_frame + 1).into_bytes(), // oversized declared length
        2 => b"abc:not a number\n".to_vec(),                      // non-numeric prefix
        3 => b"123456789:way too many digits\n".to_vec(),
        4 => b"4:\xff\xfe\xfd\xfc\n".to_vec(), // right length, not UTF-8
        5 => b"7:not-jsonX\n".to_vec(),        // wrong terminator position
        6 => b"12:{\"truncated\"\n".to_vec(),  // valid frame, invalid JSON
        7 => b"0:\n".to_vec(),                 // empty payload
        _ => unreachable!(),
    }
}

#[test]
fn the_tcp_server_survives_a_hostile_frame_storm_and_still_answers() {
    let config = ServerConfig {
        max_frame: 16 * 1024,
        read_timeout: Duration::from_secs(5),
        write_timeout: Duration::from_secs(5),
        idle_timeout: Duration::from_secs(30),
        drain_deadline: Duration::from_secs(5),
        drain_grace: Duration::from_secs(5),
        ..Default::default()
    };
    let max_frame = config.max_frame;
    let (addr, handle, join) = start(config);
    let mut client = NetClient::connect(addr).expect("connect");
    let opened = client.open(&figure1_json()).expect("open");
    assert_eq!(status_of(&opened), "ok");

    let mut rng = Lcg(0x5eed_0002);
    const ROUNDS: usize = 100;
    let mut sent_hostile = 0usize;
    let mut sent_queries = 0usize;
    // Interleave: hostile bytes, then a well-formed request, pipelined.
    for i in 0..ROUNDS {
        client
            .send_raw(&hostile_frame(&mut rng, max_frame))
            .expect("send hostile bytes");
        sent_hostile += 1;
        if i % 4 == 0 {
            client
                .send(&format!(r#"{{"id": {i}, "op": "mhb", "a": 0, "b": 1}}"#))
                .expect("send query");
            sent_queries += 1;
        } else {
            client
                .send(&format!(r#"{{"id": "p{i}", "op": "ping"}}"#))
                .expect("send ping");
        }
    }

    // One response per input, hostile or not: collect them all and sort
    // by status. Errors are droppable under pressure, but a promptly
    // reading client applies no pressure, so nothing sheds here.
    let mut errors = 0usize;
    let mut exact = 0usize;
    let mut pongs = 0usize;
    for _ in 0..(2 * ROUNDS) {
        let doc = client.recv().expect("response");
        match status_of(&doc).as_str() {
            "error" => errors += 1,
            "exact" => exact += 1,
            "ok" => pongs += 1,
            other => panic!("unexpected status {other} in {doc}"),
        }
    }
    assert_eq!(
        errors, sent_hostile,
        "one structured error per hostile input"
    );
    assert_eq!(exact, sent_queries, "hostility never costs a real answer");
    assert_eq!(pongs, ROUNDS - sent_queries);

    // An oversized *program* is refused as an oversized frame, and the
    // connection (and everyone else's session) lives on.
    let huge_program = eo_serve::net::client::open_request(&"x".repeat(2 * max_frame), None);
    client.send(&huge_program).expect("send oversized open");
    let refused = client.recv().expect("refusal");
    assert_eq!(status_of(&refused), "error");
    let answer = client
        .request(r#"{"id": "after", "op": "mhb", "a": 0, "b": 1}"#)
        .expect("query after oversized open");
    assert_eq!(status_of(&answer), "exact");

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert!(report.drained_clean, "drain stays clean under hostility");
    assert_eq!(report.shed, 0, "a reading client suffers no shedding");
}

#[test]
fn a_truncated_frame_followed_by_disconnect_is_harmless() {
    let config = ServerConfig {
        read_timeout: Duration::from_secs(5),
        drain_deadline: Duration::from_secs(5),
        ..Default::default()
    };
    let (addr, handle, join) = start(config);

    // A batch of clients that each send a *prefix* of a valid frame and
    // vanish mid-request: no response is owed, nothing may crash.
    let full = b"39:{\"id\": 1, \"op\": \"mhb\", \"a\": 0, \"b\": 1}\n".to_vec();
    let mut rng = Lcg(0x5eed_0003);
    for _ in 0..20 {
        let cut = 1 + rng.pick(full.len() - 1);
        let mut client = NetClient::connect(addr).expect("connect");
        client.send_raw(&full[..cut]).expect("send truncated frame");
        drop(client); // mid-request disconnect
    }

    // The server is still fully alive for a well-behaved client.
    let mut client = NetClient::connect(addr).expect("connect");
    let opened = client.open(&figure1_json()).expect("open");
    assert_eq!(status_of(&opened), "ok");
    let answer = client
        .request(r#"{"id": 1, "op": "mhb", "a": 0, "b": 1}"#)
        .expect("query");
    assert_eq!(status_of(&answer), "exact");

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert!(report.drained_clean);
    assert_eq!(report.accepted, 21);
}
