//! In-process integration tests for the network server: protocol round
//! trips, byte-parity with batch serving, admission control, LRU
//! eviction, timeouts, panic rebuild, and graceful drain.

use eo_model::fixtures;
use eo_obs::json::{self, Value};
use eo_serve::net::client::open_request;
use eo_serve::net::{NetClient, Server, ServerConfig, ServerHandle, ServerReport};
use eo_serve::{serve_batch, ServeConfig};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

fn figure1_json() -> String {
    let (trace, _) = fixtures::figure1();
    trace.to_json()
}

fn crossing_json() -> String {
    let (trace, _, _) = fixtures::crossing();
    trace.to_json()
}

fn test_config() -> ServerConfig {
    ServerConfig {
        read_timeout: Duration::from_secs(2),
        write_timeout: Duration::from_secs(2),
        idle_timeout: Duration::from_secs(20),
        drain_deadline: Duration::from_secs(2),
        drain_grace: Duration::from_secs(2),
        ..Default::default()
    }
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

fn status_of(doc: &str) -> String {
    json::parse(doc)
        .expect("response is valid JSON")
        .get("status")
        .and_then(Value::as_str)
        .expect("response carries status")
        .to_owned()
}

#[test]
fn network_replay_is_byte_identical_to_batch_serving() {
    let (addr, handle, join) = start(test_config());
    let mut client = NetClient::connect(addr).expect("connect");
    let opened = client.open(&figure1_json()).expect("open");
    assert_eq!(status_of(&opened), "ok");

    // A mixed request stream, malformed entries included: net frame
    // sequence numbers count the open frame, so the batch input gets one
    // leading blank line to align error positions. Byte parity then
    // covers errors too.
    let requests = [
        r#"{"id": 1, "op": "mhb", "a": 0, "b": 1}"#,
        r#"{"id": 2, "op": "ccw", "a": 2, "b": 5}"#,
        r#"{"id": 3, "op": "witness_overlap", "a": 2, "b": 5}"#,
        r#"{"id": 4, "op": "nope"}"#,
        r#"{"id": 5, "op": "mhb", "a": 0, "b": 99}"#,
        r#"{"id": 6, "op": "summary"}"#,
        r#"{"id": 7, "op": "races"}"#,
        r#"{"id": 8, "op": "mhb", "a": 0, "b": 1}"#,
    ];
    // Pipelined: all frames out, then all responses in, in order.
    for r in &requests {
        client.send(r).expect("send");
    }
    let from_net: Vec<String> = requests
        .iter()
        .map(|_| client.recv().expect("recv"))
        .collect();

    let (trace, _) = fixtures::figure1();
    let exec = trace.to_execution().expect("fixture is valid");
    let batch_input = format!("\n{}\n", requests.join("\n"));
    let from_batch = serve_batch(
        &exec,
        &batch_input,
        &ServeConfig {
            threads: 1,
            ..Default::default()
        },
    );
    assert_eq!(from_net, from_batch.responses, "byte-identical responses");

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert!(report.drained_clean);
    assert_eq!(report.accepted, 1);
    assert_eq!(report.requests, requests.len() as u64);
    assert_eq!(report.responses, requests.len() as u64);
}

#[test]
fn ping_works_and_queries_before_open_are_errors() {
    let (addr, handle, join) = start(test_config());
    let mut client = NetClient::connect(addr).expect("connect");
    let pong = client
        .request(r#"{"id": "p", "op": "ping"}"#)
        .expect("ping");
    let v = json::parse(&pong).expect("valid JSON");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("ok"));
    assert_eq!(v.get("id").and_then(Value::as_str), Some("p"));

    let early = client
        .request(r#"{"id": 9, "op": "mhb", "a": 0, "b": 1}"#)
        .expect("request");
    let v = json::parse(&early).expect("valid JSON");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    assert_eq!(v.get("line").and_then(Value::as_i64), Some(2));

    let bad_open = client
        .request(&open_request("this is not a trace", None))
        .expect("open");
    assert_eq!(status_of(&bad_open), "error");

    // The connection survived all of it.
    let opened = client.open(&figure1_json()).expect("open");
    assert_eq!(status_of(&opened), "ok");
    let answer = client
        .request(r#"{"id": 10, "op": "mhb", "a": 0, "b": 1}"#)
        .expect("query");
    assert_eq!(status_of(&answer), "exact");

    drop(client);
    handle.drain();
    join.join().expect("server thread");
}

#[test]
fn a_full_store_rejects_new_programs_then_admits_after_eviction() {
    let config = ServerConfig {
        max_programs: 1,
        ..test_config()
    };
    let (addr, handle, join) = start(config);

    let mut holder = NetClient::connect(addr).expect("connect");
    assert_eq!(
        status_of(&holder.open(&figure1_json()).expect("open")),
        "ok"
    );

    let mut second = NetClient::connect(addr).expect("connect");
    let refused = second.open(&crossing_json()).expect("open");
    let v = json::parse(&refused).expect("valid JSON");
    assert_eq!(
        v.get("status").and_then(Value::as_str),
        Some("overloaded"),
        "a full store of busy tenants rejects up front: {refused}"
    );
    assert!(
        v.get("retry_after_ms").and_then(Value::as_i64).is_some(),
        "the rejection tells the client when to retry"
    );

    // Release the resident program; the retry should evict it and admit.
    drop(holder);
    let deadline = Instant::now() + Duration::from_secs(10);
    let admitted = loop {
        let response = second.open(&crossing_json()).expect("open retry");
        if status_of(&response) == "ok" {
            break response;
        }
        assert!(Instant::now() < deadline, "open never admitted: {response}");
        std::thread::sleep(Duration::from_millis(20));
    };
    let v = json::parse(&admitted).expect("valid JSON");
    assert_eq!(v.get("fresh"), Some(&Value::Bool(true)));

    drop(second);
    handle.drain();
    let report = join.join().expect("server thread");
    assert!(report.rejected >= 1);
    assert_eq!(report.evictions, 1);
}

#[test]
fn a_zero_quota_tenant_gets_structured_overload_rejections() {
    let config = ServerConfig {
        per_tenant_inflight: 0,
        retry_after_ms: 123,
        ..test_config()
    };
    let (addr, handle, join) = start(config);
    let mut client = NetClient::connect(addr).expect("connect");
    assert_eq!(
        status_of(&client.open(&figure1_json()).expect("open")),
        "ok"
    );
    for i in 0..10 {
        let response = client
            .request(&format!(r#"{{"id": {i}, "op": "mhb", "a": 0, "b": 1}}"#))
            .expect("request");
        let v = json::parse(&response).expect("valid JSON");
        assert_eq!(v.get("status").and_then(Value::as_str), Some("overloaded"));
        assert_eq!(v.get("retry_after_ms").and_then(Value::as_i64), Some(123));
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(i));
    }
    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert_eq!(report.rejected, 10);
    assert_eq!(report.requests, 0, "nothing was admitted");
}

#[test]
fn configured_engine_caps_bound_network_queries() {
    // The operator's `--max-states`/`--max-mem` budget lives in
    // `session.engine.budget`; the per-request budget is renewed from it,
    // so a cap that would degrade an `eo serve` query must degrade the
    // same query over the network — not silently run unbounded.
    let mut config = test_config();
    config.session.prefilter = false;
    config.session.static_prefilter = false;
    config.session.engine.budget = Some(eo_engine::Budget::unlimited().with_max_states(1));
    let (addr, handle, join) = start(config);

    let mut client = NetClient::connect(addr).expect("connect");
    assert_eq!(
        status_of(&client.open(&figure1_json()).expect("open")),
        "ok"
    );
    // Every search-requiring query trips the one-state cap; later
    // requests still get their own fresh deadline and cancel flag, so
    // each degrades independently instead of failing harder.
    for i in 0..3 {
        let answer = client
            .request(&format!(r#"{{"id": {i}, "op": "ccw", "a": 2, "b": 5}}"#))
            .expect("query");
        assert_eq!(status_of(&answer), "degraded", "{answer}");
    }

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert_eq!(report.degraded, 3);
    assert_eq!(report.exact, 0);
}

#[test]
fn malformed_frames_cost_one_error_each_and_never_the_connection() {
    let (addr, handle, join) = start(test_config());
    let mut client = NetClient::connect(addr).expect("connect");
    assert_eq!(
        status_of(&client.open(&figure1_json()).expect("open")),
        "ok"
    );

    // Garbage that is not even a frame, then a well-formed frame whose
    // payload is not JSON, then a real query: the connection answers all
    // three in order.
    client.send_raw(b"complete garbage\n").expect("send");
    let bad_frame = client.recv().expect("recv");
    assert_eq!(status_of(&bad_frame), "error");

    client.send("this is not json").expect("send");
    let bad_json = client.recv().expect("recv");
    let v = json::parse(&bad_json).expect("valid JSON");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    assert!(
        v.get("error")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("invalid request JSON")),
        "{bad_json}"
    );

    let answer = client
        .request(r#"{"id": 1, "op": "ccw", "a": 2, "b": 5}"#)
        .expect("query");
    assert_eq!(status_of(&answer), "exact");

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert_eq!(report.bad_frames, 1);
}

#[test]
fn a_slowloris_connection_is_killed_without_harming_others() {
    let config = ServerConfig {
        read_timeout: Duration::from_millis(200),
        ..test_config()
    };
    let (addr, handle, join) = start(config);

    let mut slow = NetClient::connect_with_timeout(addr, Duration::from_secs(5)).expect("connect");
    slow.send_raw(b"5:ab").expect("partial frame");
    // The server must cut us off once the partial frame outlives the
    // read timeout.
    let killed = matches!(
        slow.recv(),
        Err(ref e) if e.kind() == std::io::ErrorKind::UnexpectedEof
            || e.kind() == std::io::ErrorKind::ConnectionReset
    );
    assert!(killed, "partial frame past the read timeout kills the conn");

    // The server itself is fine.
    let mut live = NetClient::connect(addr).expect("connect");
    assert_eq!(status_of(&live.open(&figure1_json()).expect("open")), "ok");
    let answer = live
        .request(r#"{"id": 1, "op": "mhb", "a": 0, "b": 1}"#)
        .expect("query");
    assert_eq!(status_of(&answer), "exact");

    drop(live);
    drop(slow);
    handle.drain();
    let report = join.join().expect("server thread");
    assert!(report.timeout_kills >= 1);
}

#[test]
fn a_backpressured_connection_is_exempt_from_the_slowloris_clock() {
    // A pipelining client with a partial frame buffered must not be
    // killed as a slowloris while the *reactor* is the one refusing to
    // read (in-flight backpressure): the owed in-flight responses would
    // be orphaned, breaking the exactly-one-response invariant.
    let mut config = ServerConfig {
        per_conn_inflight: 1,
        read_timeout: Duration::from_millis(100),
        query_deadline_ms: 250,
        ..test_config()
    };
    config.session.cache = false;
    config.session.prefilter = false;
    // A wide program of mutually conflicting events under the
    // ignore-dependences reading: ~10^48 Mazurkiewicz classes, so a
    // summary enumeration cannot finish inside the deadline — each query
    // deterministically occupies the worker for the full 250ms, far past
    // `read_timeout`.
    config.session.engine =
        eo_engine::EngineOptions::with_mode(eo_engine::FeasibilityMode::IgnoreDependences);
    config.session.engine.budget = Some(eo_engine::Budget::unlimited().with_max_states(1 << 30));
    let (addr, handle, join) = start(config);

    let mut tb = eo_model::TraceBuilder::new();
    let shared = tb.variable("shared");
    for p in 0..10 {
        let pid = tb.process(&format!("p{p}"));
        for e in 0..6 {
            tb.push_full(
                pid,
                eo_model::Op::Compute,
                &[shared],
                &[shared],
                Some(&format!("c{p}_{e}")),
            );
        }
    }
    let big = tb.build().expect("trace is valid").to_json();

    let mut client =
        NetClient::connect_with_timeout(addr, Duration::from_secs(30)).expect("connect");
    assert_eq!(status_of(&client.open(&big).expect("open")), "ok");

    // One write carrying two whole query frames plus the head of a third:
    // the reactor decodes and routes both queries (going backpressured at
    // per_conn_inflight = 1) and is left holding the partial frame for
    // the whole ~500ms the worker needs — several read timeouts.
    use eo_serve::net::encode;
    let tail = encode(r#"{"id": "tail", "op": "ping"}"#);
    let mut burst = encode(r#"{"id": 1, "op": "summary"}"#);
    burst.extend_from_slice(&encode(r#"{"id": 2, "op": "summary"}"#));
    burst.extend_from_slice(&tail[..5]);
    client.send_raw(&burst).expect("send burst");

    for i in 1..=2 {
        let doc = client
            .recv()
            .expect("owed responses survive the stale partial frame");
        let v = json::parse(&doc).expect("valid JSON");
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(i));
        assert_eq!(status_of(&doc), "degraded", "{doc}");
    }
    // Backpressure has lifted; finishing the frame now proves the
    // slowloris clock was reset while we were unreadable, not left to
    // expire the instant reading resumed.
    client.send_raw(&tail[5..]).expect("finish the tail frame");
    let pong = client.recv().expect("tail frame answered");
    assert_eq!(status_of(&pong), "ok");

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert_eq!(report.timeout_kills, 0, "{report:?}");
    assert_eq!(report.responses, 2);
}

#[cfg(feature = "fault-injection")]
#[test]
fn a_worker_panic_rebuilds_the_session_and_keeps_serving() {
    let (addr, handle, join) = start(test_config());
    let mut client = NetClient::connect(addr).expect("connect");
    assert_eq!(
        status_of(&client.open(&figure1_json()).expect("open")),
        "ok"
    );

    // Warm the cache, then panic the worker, then re-ask: the rebuilt
    // session must answer (the cache loss is invisible in the answer).
    let before = client
        .request(r#"{"id": 1, "op": "mhb", "a": 0, "b": 1}"#)
        .expect("query");
    assert_eq!(status_of(&before), "exact");

    let boom = client
        .request(r#"{"id": 2, "op": "__fault_panic"}"#)
        .expect("panic request");
    let v = json::parse(&boom).expect("valid JSON");
    assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
    assert!(
        v.get("error")
            .and_then(Value::as_str)
            .is_some_and(|m| m.contains("rebuilt")),
        "{boom}"
    );

    let after = client
        .request(r#"{"id": 3, "op": "mhb", "a": 0, "b": 1}"#)
        .expect("query");
    let (va, vb) = (
        json::parse(&before).expect("valid"),
        json::parse(&after).expect("valid"),
    );
    assert_eq!(va.get("answer"), vb.get("answer"));
    assert_eq!(
        vb.get("cached"),
        Some(&Value::Bool(false)),
        "the rebuilt session starts cold"
    );

    drop(client);
    handle.drain();
    let report = join.join().expect("server thread");
    assert_eq!(report.sessions_rebuilt, 1);
}

#[test]
fn drain_finishes_owed_work_and_reports_clean() {
    let (addr, handle, join) = start(test_config());
    let mut client = NetClient::connect(addr).expect("connect");
    assert_eq!(
        status_of(&client.open(&figure1_json()).expect("open")),
        "ok"
    );
    // Pipeline a burst, then a ping barrier: frames are processed in
    // order and pings are answered inline at read time, so the pong
    // proves every query frame has been read and routed. Draining at
    // that point tests exactly the owed-work guarantee — accepted
    // requests must still be answered.
    let n = 64u64;
    for i in 0..n {
        client
            .send(&format!(
                r#"{{"id": {i}, "op": "ccw", "a": 0, "b": {}}}"#,
                i % 6
            ))
            .expect("send");
    }
    client
        .send(r#"{"id": "sync", "op": "ping"}"#)
        .expect("ping");
    let mut got = 0u64;
    let mut drained = false;
    while got < n {
        let doc = client.recv().unwrap_or_else(|e| {
            panic!("lost {} owed responses: {e}", n - got);
        });
        let v = json::parse(&doc).expect("valid JSON");
        if v.get("id").and_then(Value::as_str) == Some("sync") {
            handle.drain();
            drained = true;
        } else {
            assert!(matches!(status_of(&doc).as_str(), "exact" | "degraded"));
            got += 1;
        }
    }
    assert!(drained, "the ping barrier must have come back");
    drop(client);
    let report = join.join().expect("server thread");
    assert!(report.drained_clean, "{report:?}");
    assert_eq!(report.responses, n);
}
