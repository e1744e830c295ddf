//! Round-trip tests for the hand-rolled JSON layer and the trace/metrics
//! schemas, plus aggregation unit checks over hand-built event logs.

use eo_obs::json::{self, Value};
use eo_obs::report::{
    aggregate, metrics_from_json, metrics_to_json, render_profile, trace_from_json, trace_to_json,
    MetricValue, DEGRADATION_CAUSE, ENGINE_METRICS,
};
use eo_obs::{Event, RunData, ThreadLog};
use std::collections::BTreeMap;

// ---------------------------------------------------------------------------
// json module
// ---------------------------------------------------------------------------

#[test]
fn json_value_round_trips_through_text() {
    let doc = Value::Obj(vec![
        ("int".to_owned(), Value::Int(666)),
        ("neg".to_owned(), Value::Int(-42)),
        ("float".to_owned(), Value::Num(1.249)),
        ("tiny".to_owned(), Value::Num(2.5e-4)),
        (
            "text".to_owned(),
            Value::Str("hello \"world\"\n\t\\ üñï".to_owned()),
        ),
        ("flag".to_owned(), Value::Bool(true)),
        ("nothing".to_owned(), Value::Null),
        (
            "list".to_owned(),
            Value::Arr(vec![
                Value::Int(1),
                Value::Str("x".to_owned()),
                Value::Bool(false),
            ]),
        ),
        (
            "nested".to_owned(),
            Value::Obj(vec![("k".to_owned(), Value::Num(0.5))]),
        ),
    ]);
    let text = doc.to_json();
    let back = json::parse(&text).expect("writer output must parse");
    assert_eq!(back, doc);
    // And the reparse of the re-serialization is textually stable.
    assert_eq!(back.to_json(), text);
}

#[test]
fn json_integers_print_without_fraction() {
    assert_eq!(Value::Num(666.0).to_json(), "666");
    assert_eq!(Value::Num(-1.0).to_json(), "-1");
    assert_eq!(Value::Num(0.482).to_json(), "0.482");
}

#[test]
fn json_parses_escapes_and_unicode() {
    let v = json::parse(r#""aA\n\t\"\\é 😀""#).expect("escapes parse");
    assert_eq!(v.as_str(), Some("aA\n\t\"\\é 😀"));
}

#[test]
fn json_rejects_malformed_documents() {
    for bad in [
        "",
        "{",
        "[1,",
        "{\"a\":}",
        "nul",
        "\"unterminated",
        "1 2",
        "{\"a\" 1}",
        "[1,]",
    ] {
        assert!(json::parse(bad).is_err(), "should reject {bad:?}");
    }
}

#[test]
fn json_pretty_output_is_serde_shaped_and_round_trips() {
    let v = Value::Obj(vec![
        ("name".into(), Value::Str("x\"y".into())),
        ("ids".into(), Value::Arr(vec![Value::Int(0), Value::Int(1)])),
        ("empty".into(), Value::Arr(vec![])),
        ("flag".into(), Value::Null),
    ]);
    let text = v.pretty();
    assert_eq!(json::parse(&text).unwrap(), v);
    assert!(text.contains("\"ids\": [\n    0,\n    1\n  ]"), "{text}");
    assert!(text.contains("\"empty\": []"));
}

#[test]
fn json_parses_scalars_and_nested_structures() {
    assert_eq!(json::parse("null").unwrap(), Value::Null);
    assert_eq!(json::parse(" true ").unwrap(), Value::Bool(true));
    assert_eq!(json::parse("-42").unwrap(), Value::Int(-42));
    let v = json::parse(r#"{"xs": [1, 2], "o": {"k": null}}"#).unwrap();
    assert_eq!(
        v.get("xs").and_then(Value::as_array).map(<[_]>::len),
        Some(2)
    );
    assert_eq!(v.get("o").and_then(|o| o.get("k")), Some(&Value::Null));
}

#[test]
fn json_compact_output_round_trips() {
    let v = json::parse(r#"{"a":[true,false],"b":"s"}"#).unwrap();
    assert_eq!(json::parse(&v.to_json()).unwrap(), v);
}

#[test]
fn json_members_write_what_the_value_writer_writes() {
    let awkward = "q\"b\\c\u{1}\n\u{7f}é";
    let id = Value::Arr(vec![Value::Num(0.5), Value::Null, Value::Int(-3)]);
    let mut out = String::from("prefix ");
    let mut doc = json::Members::open(&mut out);
    doc.int("n", i64::MIN)
        .bool("t", true)
        .bool("f", false)
        .str(awkward, awkward)
        .value("id", &id);
    let mut nested = doc.object("o");
    nested.str("k", "v");
    nested.object("empty").close();
    nested.close();
    let mut list = doc.array("xs");
    list.int(7).str(awkward);
    let mut item = list.object();
    item.int("first", 1).int("second", 2);
    item.close();
    list.close();
    doc.array("none").close();
    doc.close();

    let expected = Value::Obj(vec![
        ("n".to_owned(), Value::Int(i64::MIN)),
        ("t".to_owned(), Value::Bool(true)),
        ("f".to_owned(), Value::Bool(false)),
        (awkward.to_owned(), Value::Str(awkward.to_owned())),
        ("id".to_owned(), id),
        (
            "o".to_owned(),
            Value::Obj(vec![
                ("k".to_owned(), Value::Str("v".to_owned())),
                ("empty".to_owned(), Value::Obj(vec![])),
            ]),
        ),
        (
            "xs".to_owned(),
            Value::Arr(vec![
                Value::Int(7),
                Value::Str(awkward.to_owned()),
                Value::Obj(vec![
                    ("first".to_owned(), Value::Int(1)),
                    ("second".to_owned(), Value::Int(2)),
                ]),
            ]),
        ),
        ("none".to_owned(), Value::Arr(vec![])),
    ]);
    assert_eq!(out, format!("prefix {}", expected.to_json()));
    let mut empty = String::new();
    json::Members::open(&mut empty).close();
    assert_eq!(empty, "{}");
}

#[test]
fn json_integers_are_exact_over_the_i64_range() {
    for n in [i64::MIN, -1, 0, (1 << 53) + 1, i64::MAX] {
        assert_eq!(json::parse(&n.to_string()).unwrap(), Value::Int(n));
        assert_eq!(Value::Int(n).to_json(), n.to_string());
    }
    // Fractions, exponents and integers past i64 are floats.
    assert_eq!(json::parse("1.0").unwrap(), Value::Num(1.0));
    assert_eq!(json::parse("1e3").unwrap().as_i64(), Some(1000));
    assert_eq!(
        json::parse("9223372036854775808").unwrap(),
        Value::Num(9.223_372_036_854_776e18)
    );
}

#[test]
fn json_long_strings_parse_in_linear_time() {
    // 2 MiB of runs cut by escapes and multibyte characters; decoding used
    // to re-validate the rest of the input per character (minutes here).
    let body = "0123456789abcdefghijklmnopqrstuvwxyz\u{e9}\u{1F600}\\\"".repeat((2 << 20) / 44 + 1);
    let doc = format!("{{\"program\": \"{body}\"}}");
    let start = std::time::Instant::now();
    let v = json::parse(&doc).expect("long string parses");
    let elapsed = start.elapsed();
    assert_eq!(
        v.get("program").and_then(Value::as_str),
        Some(body.replace("\\\"", "\"").as_str())
    );
    assert!(elapsed.as_secs_f64() < 2.0, "took {elapsed:?}");
}

#[test]
fn json_nesting_is_bounded_at_max_depth() {
    let nest = |depth: usize, open: &str, close: &str| {
        format!("{}{}", open.repeat(depth), close.repeat(depth))
    };
    // Exactly the limit parses, arrays and objects alike.
    let deepest = json::parse(&nest(json::MAX_DEPTH, "[", "]")).expect("at the limit");
    let mut v = &deepest;
    for _ in 1..json::MAX_DEPTH {
        v = &v.as_array().expect("nested array")[0];
    }
    assert_eq!(v, &Value::Arr(vec![]));
    assert!(json::parse(&nest(json::MAX_DEPTH, r#"{"k":"#, "}").replace(":}", ":1}")).is_ok());

    // One level more is an error at the bracket past the limit, naming it.
    for (open, close) in [("[", "]"), (r#"{"k":"#, "}")] {
        let doc = nest(json::MAX_DEPTH + 1, open, close);
        let err = json::parse(&doc).expect_err("past the limit");
        assert_eq!(err.offset, json::MAX_DEPTH * open.len(), "{open}");
        assert!(
            err.message.contains(&json::MAX_DEPTH.to_string()),
            "{}",
            err.message
        );
    }

    // A megabyte of brackets is the same error, not a stack overflow.
    let err = json::parse(&"[".repeat(1 << 20)).expect_err("hostile depth");
    assert_eq!(err.offset, json::MAX_DEPTH);
}

#[test]
fn json_string_runs_split_at_multibyte_characters_and_escapes() {
    let v = json::parse(r#""é\"ü\u00e9😀\ud83d\ude00€\\ñ\n""#).unwrap();
    assert_eq!(v.as_str(), Some("é\"üé😀😀€\\ñ\n"));
}

#[test]
fn json_accessors_navigate_bench_shaped_documents() {
    let text =
        r#"{"experiment":"e12","rows":[{"workload":"e6-5x4","interned_ms":0.482,"states":666}]}"#;
    let doc = json::parse(text).unwrap();
    assert_eq!(doc.get("experiment").and_then(Value::as_str), Some("e12"));
    let rows = doc.get("rows").and_then(Value::as_array).unwrap();
    assert_eq!(rows[0].get("states").and_then(Value::as_i64), Some(666));
    assert_eq!(
        rows[0].get("interned_ms").and_then(Value::as_f64),
        Some(0.482)
    );
}

// ---------------------------------------------------------------------------
// metrics schema
// ---------------------------------------------------------------------------

#[test]
fn metrics_map_round_trips() {
    let mut metrics: BTreeMap<String, MetricValue> = BTreeMap::new();
    metrics.insert("engine.states_interned".to_owned(), MetricValue::Int(666));
    metrics.insert("budget.headroom_ms".to_owned(), MetricValue::Int(-1));
    metrics.insert("analyze.wall_ms".to_owned(), MetricValue::Float(12.75));
    metrics.insert(
        DEGRADATION_CAUSE.to_owned(),
        MetricValue::Str("deadline".to_owned()),
    );
    let text = metrics_to_json(&metrics);
    let back = metrics_from_json(&text).expect("metrics JSON parses");
    assert_eq!(back, metrics);
}

#[test]
fn metrics_defaults_cover_the_whole_registry() {
    let report = aggregate(&RunData::default());
    let metrics = report.metrics_with_defaults();
    for name in ENGINE_METRICS {
        assert_eq!(
            metrics.get(*name),
            Some(&MetricValue::Int(0)),
            "missing default {name}"
        );
    }
    assert_eq!(
        metrics.get(DEGRADATION_CAUSE),
        Some(&MetricValue::Str("none".to_owned()))
    );
    // The defaulted document round-trips too.
    let back = metrics_from_json(&metrics_to_json(&metrics)).unwrap();
    assert_eq!(back, metrics);
}

// ---------------------------------------------------------------------------
// trace schema + aggregation
// ---------------------------------------------------------------------------

/// Two threads: tid 0 has a parent span with two children plus counters and
/// gauges; tid 1 has one span left open (truncated log).
fn sample_run() -> RunData {
    RunData {
        threads: vec![
            ThreadLog {
                tid: 0,
                events: vec![
                    Event::Begin {
                        name: "engine.analyze",
                        t_us: 100,
                    },
                    Event::Counter {
                        name: "engine.states_interned",
                        delta: 600,
                    },
                    Event::Begin {
                        name: "engine.build_graph",
                        t_us: 120,
                    },
                    Event::Counter {
                        name: "engine.states_interned",
                        delta: 66,
                    },
                    Event::End { t_us: 300 },
                    Event::Begin {
                        name: "engine.finalize",
                        t_us: 310,
                    },
                    Event::End { t_us: 350 },
                    Event::GaugeI {
                        name: "budget.headroom_ms",
                        value: 950,
                    },
                    Event::GaugeS {
                        name: DEGRADATION_CAUSE,
                        value: "none".to_owned(),
                    },
                    Event::End { t_us: 400 },
                ],
            },
            ThreadLog {
                tid: 1,
                events: vec![
                    Event::Begin {
                        name: "pool.worker",
                        t_us: 150,
                    },
                    Event::Counter {
                        name: "pool.tasks",
                        delta: 3,
                    },
                    // no End: the log was truncated at t=150 (last seen).
                ],
            },
        ],
    }
}

#[test]
fn aggregation_computes_durations_self_time_and_totals() {
    let report = aggregate(&sample_run());
    assert_eq!(report.counters["engine.states_interned"], 666);
    assert_eq!(report.counters["pool.tasks"], 3);
    assert_eq!(report.gauges["budget.headroom_ms"], MetricValue::Int(950));

    let find = |name: &str| report.spans.iter().find(|s| s.name == name).unwrap();
    let analyze = find("engine.analyze");
    assert_eq!((analyze.start_us, analyze.dur_us), (100, 300));
    // self = 300 total - (180 build + 40 finalize) children.
    assert_eq!(analyze.self_us, 80);
    assert_eq!(find("engine.build_graph").dur_us, 180);
    assert_eq!(find("engine.finalize").self_us, 40);
    // The truncated span closes at the thread's last timestamp.
    let worker = find("pool.worker");
    assert_eq!((worker.tid, worker.dur_us), (1, 0));
}

#[test]
fn trace_json_round_trips() {
    let report = aggregate(&sample_run());
    let text = trace_to_json(&report);
    let back = trace_from_json(&text).expect("trace JSON parses");
    assert_eq!(back, report.spans);
    // Spot-check the Chrome shape: every event is a complete ("X") event.
    let doc = json::parse(&text).unwrap();
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    assert_eq!(events.len(), report.spans.len());
    for ev in events {
        assert_eq!(ev.get("ph").and_then(Value::as_str), Some("X"));
        assert_eq!(ev.get("pid").and_then(Value::as_i64), Some(1));
    }
}

#[test]
fn profile_table_sorts_by_self_time() {
    let report = aggregate(&sample_run());
    let table = render_profile(&report, 10);
    let analyze_at = table.find("engine.analyze").unwrap();
    let build_at = table.find("engine.build_graph").unwrap();
    let finalize_at = table.find("engine.finalize").unwrap();
    // build (180 self) > analyze (80) > finalize (40).
    assert!(
        build_at < analyze_at && analyze_at < finalize_at,
        "bad order:\n{table}"
    );
    let truncated = render_profile(&report, 1);
    assert!(
        truncated.contains("more span name(s)"),
        "missing truncation note:\n{truncated}"
    );
}

// ---------------------------------------------------------------------------
// recording layer (live only with the `enabled` feature)
// ---------------------------------------------------------------------------

/// The recorder is process-global; serialize the tests that arm it.
#[cfg(feature = "enabled")]
static RECORDER_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(feature = "enabled")]
#[test]
fn recording_captures_spans_counters_and_worker_threads() {
    let _guard = RECORDER_LOCK.lock().unwrap();
    eo_obs::start();
    assert!(eo_obs::recording());
    {
        eo_obs::span!("test.outer");
        eo_obs::counter!("test.count", 2);
        eo_obs::counter!("test.count", 3);
        eo_obs::gauge!("test.gauge", 7);
        eo_obs::gauge_str("test.cause", "demo");
        // Join the handle: the scope's implicit wait can return before
        // the worker's buffer is flushed by its thread-local destructor.
        std::thread::scope(|s| {
            s.spawn(|| {
                eo_obs::span!("test.worker");
                eo_obs::counter!("test.count", 5);
            })
            .join()
            .unwrap();
        });
    }
    let data = eo_obs::finish();
    assert!(!eo_obs::recording());
    let report = aggregate(&data);
    assert_eq!(report.counters["test.count"], 10);
    assert_eq!(report.gauges["test.gauge"], MetricValue::Int(7));
    assert_eq!(
        report.gauges["test.cause"],
        MetricValue::Str("demo".to_owned())
    );
    let names: Vec<&str> = report.spans.iter().map(|s| s.name.as_str()).collect();
    assert!(
        names.contains(&"test.outer") && names.contains(&"test.worker"),
        "{names:?}"
    );
    // The worker recorded on a different thread than the outer span.
    let outer = report
        .spans
        .iter()
        .find(|s| s.name == "test.outer")
        .unwrap();
    let worker = report
        .spans
        .iter()
        .find(|s| s.name == "test.worker")
        .unwrap();
    assert_ne!(outer.tid, worker.tid);

    // A second run starts clean.
    eo_obs::start();
    let empty = eo_obs::finish();
    assert!(empty.threads.is_empty(), "sink not cleared between runs");
}

#[cfg(feature = "enabled")]
#[test]
fn events_outside_a_run_are_dropped() {
    let _guard = RECORDER_LOCK.lock().unwrap();
    // Not started (or already finished): nothing is buffered.
    eo_obs::counter!("test.orphan", 1);
    {
        eo_obs::span!("test.orphan_span");
    }
    assert!(!eo_obs::recording());
}

#[cfg(not(feature = "enabled"))]
#[test]
fn disabled_build_records_nothing() {
    eo_obs::start();
    assert!(!eo_obs::recording());
    {
        eo_obs::span!("test.noop");
        eo_obs::counter!("test.noop", 1);
        eo_obs::gauge!("test.noop", 1);
    }
    let data = eo_obs::finish();
    assert!(data.threads.is_empty());
}
