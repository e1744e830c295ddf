//! The serve wire protocol: JSON requests in, JSON responses out.
//!
//! Requests are newline-delimited JSON objects (or one JSON array of
//! such objects, as accepted by `eo serve --batch`):
//!
//! ```json
//! {"id": 1, "op": "mhb", "a": 0, "b": 3}
//! {"id": 2, "op": "witness_overlap", "a": "p1.w", "b": "p2.w"}
//! {"id": 3, "op": "summary"}
//! {"id": 4, "op": "races"}
//! ```
//!
//! `op` is one of `mhb`, `chb`, `ccw`, `witness_before`,
//! `witness_overlap`, `summary`, `races`. Event references `a` / `b` are
//! either zero-based event indices or event label strings. `id` is echoed
//! back verbatim (any JSON value) so clients can correlate out-of-order
//! processing; it is optional.
//!
//! Every response is one JSON object carrying the current `SCHEMA_VERSION` and a
//! `status` of `"exact"` (the answer is exact), `"degraded"` (a budget
//! stopped the search; `cause` says which bound), or `"error"` (the
//! request itself was malformed). Exact responses also say whether they
//! were served from a cross-query cache (`cached`) or decided by the
//! polynomial prefilter (`prefilter`).

use crate::session::SessionReply;
use eo_engine::{Answer, EngineError, Query, QueryBackend};
use eo_model::{EventId, ProgramExecution};
use eo_obs::json::{self, Members, Value};
use eo_obs::report::SCHEMA_VERSION;
use eo_race::Race;

/// One operation a serve session can perform: an engine [`Query`] or the
/// serve-level race report (races are a derived analysis over CCW, not an
/// engine query, so they live in this layer's vocabulary).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ServeOp {
    /// A point query answered by the engine/session.
    Query(Query),
    /// The exact race report for the whole program.
    Races,
}

impl ServeOp {
    /// The protocol `op` string for this operation.
    pub fn name(&self) -> &'static str {
        match self {
            ServeOp::Query(q) => q.op_name(),
            ServeOp::Races => "races",
        }
    }
}

/// One parsed request line: the echoed `id` (if any) plus either the
/// operation or a parse error to report back.
#[derive(Clone, Debug)]
pub struct ParsedRequest {
    /// The client's correlation id, echoed back verbatim.
    pub id: Option<Value>,
    /// The operation, or why the request line was rejected.
    pub op: Result<ServeOp, String>,
    /// Where the request came from in its batch: the 1-based input line
    /// for NDJSON streams, the 1-based entry index for `--batch` arrays.
    /// Error responses echo it (`"line"`) so a client staring at a
    /// malformed batch knows *which* line to fix; exact responses don't
    /// carry it (the `id` echo already correlates those).
    pub line: Option<usize>,
}

/// Parses a request stream: newline-delimited JSON objects, or a single
/// JSON array of request objects. Blank lines are skipped. Malformed
/// entries become `Err` items (one response is still owed per request,
/// carrying the offending line number), never a whole-batch failure —
/// requests after a malformed line are still parsed and answered.
pub fn parse_requests(exec: &ProgramExecution, input: &str) -> Vec<ParsedRequest> {
    let trimmed = input.trim_start();
    if trimmed.starts_with('[') {
        return match json::parse(trimmed) {
            Ok(Value::Arr(items)) => items
                .iter()
                .enumerate()
                .map(|(i, v)| parse_one(exec, v, Some(i + 1)))
                .collect(),
            Ok(_) => vec![ParsedRequest {
                id: None,
                op: Err("batch file must be a JSON array of request objects".to_owned()),
                line: Some(1),
            }],
            Err(e) => vec![ParsedRequest {
                id: None,
                op: Err(format!("invalid batch JSON: {e}")),
                line: Some(1),
            }],
        };
    }
    input
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| match json::parse(line) {
            Ok(v) => parse_one(exec, &v, Some(i + 1)),
            Err(e) => ParsedRequest {
                id: None,
                op: Err(format!("invalid request JSON: {e}")),
                line: Some(i + 1),
            },
        })
        .collect()
}

/// Parses one request value (already JSON-decoded) with its batch
/// position. The network server uses this directly: each frame is one
/// request, and `line` is the connection's frame sequence number.
pub fn parse_one(exec: &ProgramExecution, v: &Value, line: Option<usize>) -> ParsedRequest {
    let id = v.get("id").cloned();
    ParsedRequest {
        id,
        op: parse_op(exec, v),
        line,
    }
}

fn parse_op(exec: &ProgramExecution, v: &Value) -> Result<ServeOp, String> {
    if !matches!(v, Value::Obj(_)) {
        return Err("each request must be a JSON object".to_owned());
    }
    let op = v
        .get("op")
        .and_then(Value::as_str)
        .ok_or_else(|| "request needs a string \"op\" field".to_owned())?;
    let pair = |distinct: bool| -> Result<(EventId, EventId), String> {
        let a = event_ref(exec, v, "a")?;
        let b = event_ref(exec, v, "b")?;
        if distinct && a == b {
            return Err(format!(
                "op \"{op}\" needs two distinct events, got \"a\" == \"b\""
            ));
        }
        Ok((a, b))
    };
    let q = match op {
        "mhb" => {
            let (a, b) = pair(false)?;
            Query::Mhb { a, b }
        }
        "chb" => {
            let (a, b) = pair(false)?;
            Query::Chb { a, b }
        }
        "ccw" => {
            let (a, b) = pair(false)?;
            Query::Ccw { a, b }
        }
        "witness_before" => {
            let (first, second) = pair(true)?;
            Query::WitnessBefore { first, second }
        }
        "witness_overlap" => {
            let (a, b) = pair(true)?;
            Query::WitnessOverlap { a, b }
        }
        "summary" => Query::Summary,
        "races" => return Ok(ServeOp::Races),
        other => {
            return Err(format!(
                "unknown op {other:?} (expected mhb, chb, ccw, witness_before, \
                 witness_overlap, summary, or races)"
            ))
        }
    };
    Ok(ServeOp::Query(q))
}

/// Resolves an event reference: a zero-based index or a label string.
fn event_ref(exec: &ProgramExecution, v: &Value, key: &str) -> Result<EventId, String> {
    let n = exec.n_events();
    match v.get(key) {
        None => Err(format!("op needs an event reference in \"{key}\"")),
        Some(Value::Str(label)) => exec
            .event_labeled(label)
            .ok_or_else(|| format!("no event labeled {label:?}")),
        Some(value) => match value.as_i64() {
            Some(i) if i >= 0 && (i as usize) < n => Ok(EventId::new(i as usize)),
            Some(i) => Err(format!(
                "event index {i} out of range (program has {n} events)"
            )),
            None => Err(format!(
                "\"{key}\" must be an event index or a label string"
            )),
        },
    }
}

/// Writes one response document: the header every reply carries
/// (`schema_version`, the echoed `id`, `op`, `status`), then the members
/// `body` adds, as compact JSON in one `String`. The network server's own
/// documents (`ping`, `open`, `overloaded`) go through it too.
pub(crate) fn render_doc(
    id: &Option<Value>,
    op: &str,
    status: &str,
    body: impl FnOnce(&mut Members<'_>),
) -> String {
    // Room for a point reply (about 100 bytes) or a short witness, so
    // most documents never regrow.
    let mut out = String::with_capacity(160);
    let mut doc = Members::open(&mut out);
    doc.int("schema_version", SCHEMA_VERSION)
        .value("id", id.as_ref().unwrap_or(&Value::Null))
        .str("op", op)
        .str("status", status);
    body(&mut doc);
    doc.close();
    out
}

/// Renders one exact session reply as a response document.
pub fn render_reply(id: &Option<Value>, reply: &SessionReply) -> String {
    render_doc(id, reply.response.query.op_name(), "exact", |doc| {
        doc.bool("cached", reply.cached)
            .bool("prefilter", reply.prefilter || reply.static_prefilter);
        // Additive disposition marker: present only when the whole-program
        // static tier answered, so default-config responses are byte-stable.
        if reply.static_prefilter {
            doc.str("prefilter_tier", "static");
        }
        // Same additive pattern for the non-default backend: `--backend sat`
        // sessions tag every reply, default sessions stay byte-stable.
        if reply.backend != QueryBackend::Exact {
            doc.str("backend", reply.backend.label());
        }
        // Additive engine-config echo: sessions opened from an explicit
        // `EngineConfig` (`--config`) tag every reply with the non-default
        // fields; default sessions carry no `config` object at all.
        if !reply.config_echo.is_empty() {
            let mut config = doc.object("config");
            for (k, v) in &reply.config_echo {
                config.str(k, v);
            }
            config.close();
        }
        // Whole-program summary replies also echo the primitive classes the
        // analyzed trace uses (always the core calculus — surface primitives
        // reach the engine desugared).
        if !reply.primitives.is_empty() {
            let mut primitives = doc.array("primitives");
            for p in &reply.primitives {
                primitives.str(p);
            }
            primitives.close();
        }
        match &reply.response.answer {
            Answer::Decided(v) => {
                doc.bool("answer", *v);
            }
            Answer::Witness(None) => {
                doc.value("witness", &Value::Null);
            }
            Answer::Witness(Some(schedule)) => {
                let mut witness = doc.array("witness");
                for e in schedule {
                    witness.int(e.index() as i64);
                }
                witness.close();
            }
            Answer::Summary(s) => {
                let mut summary = doc.object("summary");
                summary
                    .int("events", s.n_events() as i64)
                    .int("classes", s.class_count() as i64)
                    .int("states", s.state_count() as i64)
                    .int("mhb_pairs", s.mhb_relation().pair_count() as i64)
                    .int("chb_pairs", s.chb_relation().pair_count() as i64)
                    .int("ccw_pairs", s.ccw_relation().pair_count() as i64);
                summary.close();
            }
            other => {
                doc.str("answer_debug", &format!("{other:?}"));
            }
        }
    })
}

/// Renders the race report response.
pub fn render_races(id: &Option<Value>, races: &[Race], cached: bool) -> String {
    render_doc(id, "races", "exact", |doc| {
        // The guarantee tier only spares a report some of its searches;
        // it never decides the report, so `prefilter` stays false.
        doc.bool("cached", cached)
            .bool("prefilter", false)
            .int("count", races.len() as i64);
        let mut list = doc.array("races");
        for r in races {
            let mut pair = list.object();
            pair.int("first", r.first.index() as i64)
                .int("second", r.second.index() as i64);
            pair.close();
        }
        list.close();
    })
}

/// Renders a degraded response: the budget stopped this query's search.
pub fn render_degraded(id: &Option<Value>, op: &str, error: &EngineError) -> String {
    render_doc(id, op, "degraded", |doc| {
        doc.str("cause", error.cause_label())
            .str("error", &error.to_string());
    })
}

/// Renders a request-level error response (malformed request, unknown
/// event, worker failure).
pub fn render_error(id: &Option<Value>, message: &str) -> String {
    render_error_at(id, message, None)
}

/// [`render_error`] with the offending batch position: parse failures
/// carry the 1-based input line (NDJSON) or entry index (`--batch`
/// array) as `"line"`, so `status:"error"` responses are attributable
/// even when the malformed line had no parseable `id`. The field is
/// additive — responses without a known position render exactly as
/// before.
pub fn render_error_at(id: &Option<Value>, message: &str, line: Option<usize>) -> String {
    render_doc(id, "error", "error", |doc| {
        if let Some(n) = line {
            doc.int("line", n as i64);
        }
        doc.str("error", message);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::AnalysisSession;
    use eo_engine::Response;
    use eo_model::{fixtures, ProgramExecution};

    fn figure1() -> ProgramExecution {
        let (trace, _) = fixtures::figure1();
        ProgramExecution::from_trace(trace).expect("fixture is valid")
    }

    #[test]
    fn parses_ndjson_with_indices_labels_and_errors() {
        let exec = figure1();
        let input = "\n{\"id\": 1, \"op\": \"mhb\", \"a\": 0, \"b\": 1}\n\
                     {\"id\": 2, \"op\": \"witness_before\", \"a\": 3, \"b\": 3}\n\
                     {\"op\": \"races\"}\n\
                     not json\n";
        let reqs = parse_requests(&exec, input);
        assert_eq!(reqs.len(), 4);
        assert_eq!(
            reqs[0].op,
            Ok(ServeOp::Query(Query::Mhb {
                a: EventId::new(0),
                b: EventId::new(1)
            }))
        );
        assert!(reqs[1].op.as_ref().is_err_and(|e| e.contains("distinct")));
        assert_eq!(reqs[2].op, Ok(ServeOp::Races));
        assert!(reqs[2].id.is_none());
        assert!(reqs[3].op.is_err());
    }

    #[test]
    fn parses_a_json_array_batch() {
        let exec = figure1();
        let input = r#"[{"id": "x", "op": "summary"}, {"op": "ccw", "a": 90, "b": 0}]"#;
        let reqs = parse_requests(&exec, input);
        assert_eq!(reqs.len(), 2);
        assert_eq!(reqs[0].op, Ok(ServeOp::Query(Query::Summary)));
        assert_eq!(reqs[0].id, Some(Value::Str("x".to_owned())));
        assert!(reqs[1]
            .op
            .as_ref()
            .is_err_and(|e| e.contains("out of range")));
    }

    #[test]
    fn parse_positions_point_at_the_offending_input_line() {
        let exec = figure1();
        // The blank first line still counts: positions are raw 1-based
        // input lines, exactly what an editor shows.
        let input = "\n{\"id\": 1, \"op\": \"mhb\", \"a\": 0, \"b\": 1}\n\
                     not json\n\
                     \n\
                     {\"op\": \"nope\"}\n";
        let reqs = parse_requests(&exec, input);
        assert_eq!(reqs.len(), 3);
        assert_eq!(reqs[0].line, Some(2));
        assert_eq!(reqs[1].line, Some(3));
        assert_eq!(reqs[2].line, Some(5));

        let array = parse_requests(&exec, r#"[{"op": "summary"}, {"op": "nope"}]"#);
        assert_eq!(array[0].line, Some(1), "array entries are 1-based indices");
        assert_eq!(array[1].line, Some(2));

        let rendered = render_error_at(&None, "bad", Some(3));
        let v = eo_obs::json::parse(&rendered).expect("valid JSON");
        assert_eq!(v.get("line").and_then(Value::as_i64), Some(3));
        let plain = render_error(&None, "bad");
        assert!(
            eo_obs::json::parse(&plain)
                .expect("valid JSON")
                .get("line")
                .is_none(),
            "positionless errors render exactly as before"
        );
    }

    #[test]
    fn responses_carry_schema_version_and_echo_ids() {
        let rendered = render_error(&Some(Value::Int(7)), "boom");
        let v = eo_obs::json::parse(&rendered).expect("valid JSON");
        assert_eq!(
            v.get("schema_version").and_then(Value::as_i64),
            Some(eo_obs::report::SCHEMA_VERSION)
        );
        assert_eq!(v.get("id").and_then(Value::as_i64), Some(7));
        assert_eq!(v.get("status").and_then(Value::as_str), Some("error"));
        assert_eq!(v.get("error").and_then(Value::as_str), Some("boom"));

        // Exact bytes of the reply shapes the committed golden batch never
        // produces, so any change to the writer shows up here.
        fn e(i: usize) -> EventId {
            EventId::new(i)
        }
        fn point(query: Query, answer: Answer) -> SessionReply {
            SessionReply {
                response: Response::new(query, answer),
                cached: false,
                prefilter: false,
                static_prefilter: false,
                backend: QueryBackend::Exact,
                config_echo: Vec::new(),
                primitives: Vec::new(),
            }
        }
        let awkward = Some(Value::Str("q\"b\\c\u{1}\n".to_owned()));
        let object_id = Some(Value::Obj(vec![
            ("run".to_owned(), Value::Str("r1".to_owned())),
            (
                "seq".to_owned(),
                Value::Arr(vec![Value::Int(3), Value::Null, Value::Num(0.5)]),
            ),
        ]));
        let mhb = Query::Mhb { a: e(0), b: e(2) };
        let static_ccw = SessionReply {
            static_prefilter: true,
            ..point(Query::Ccw { a: e(1), b: e(3) }, Answer::Decided(false))
        };
        let sat_chb = SessionReply {
            backend: QueryBackend::Sat,
            cached: true,
            ..point(Query::Chb { a: e(3), b: e(1) }, Answer::Decided(true))
        };
        let echoed = SessionReply {
            prefilter: true,
            backend: QueryBackend::Sat,
            config_echo: vec![
                ("backend", "sat".to_owned()),
                ("equiv", "odd \"value\"\\\t".to_owned()),
            ],
            ..point(Query::Mhb { a: e(1), b: e(2) }, Answer::Decided(true))
        };
        let no_witness = point(
            Query::WitnessBefore {
                first: e(2),
                second: e(0),
            },
            Answer::Witness(None),
        );
        let witness = point(
            Query::WitnessOverlap { a: e(0), b: e(3) },
            Answer::Witness(Some(vec![e(0), e(1), e(3), e(2)])),
        );
        let exec = figure1();
        let summary = AnalysisSession::new(&exec)
            .query(Query::Summary)
            .expect("no budget");
        let two = [
            Race {
                first: e(0),
                second: e(4),
            },
            Race {
                first: e(2),
                second: e(3),
            },
        ];
        let cases: Vec<(String, &str)> = vec![
            (
                render_reply(&awkward, &point(mhb, Answer::Decided(true))),
                r#"{"schema_version":2,"id":"q\"b\\c\u0001\n","op":"mhb","status":"exact","cached":false,"prefilter":false,"answer":true}"#,
            ),
            (
                render_reply(&object_id, &point(mhb, Answer::Decided(false))),
                r#"{"schema_version":2,"id":{"run":"r1","seq":[3,null,0.5]},"op":"mhb","status":"exact","cached":false,"prefilter":false,"answer":false}"#,
            ),
            (
                render_reply(&Some(Value::Int(5)), &static_ccw),
                r#"{"schema_version":2,"id":5,"op":"ccw","status":"exact","cached":false,"prefilter":true,"prefilter_tier":"static","answer":false}"#,
            ),
            (
                render_reply(&None, &sat_chb),
                r#"{"schema_version":2,"id":null,"op":"chb","status":"exact","cached":true,"prefilter":false,"backend":"sat","answer":true}"#,
            ),
            (
                render_reply(&Some(Value::Bool(true)), &echoed),
                r#"{"schema_version":2,"id":true,"op":"mhb","status":"exact","cached":false,"prefilter":true,"backend":"sat","config":{"backend":"sat","equiv":"odd \"value\"\\\t"},"answer":true}"#,
            ),
            (
                render_reply(&Some(Value::Int(8)), &no_witness),
                r#"{"schema_version":2,"id":8,"op":"witness_before","status":"exact","cached":false,"prefilter":false,"witness":null}"#,
            ),
            (
                render_reply(&Some(Value::Int(9)), &witness),
                r#"{"schema_version":2,"id":9,"op":"witness_overlap","status":"exact","cached":false,"prefilter":false,"witness":[0,1,3,2]}"#,
            ),
            (
                render_reply(&Some(Value::Str("sum".to_owned())), &summary),
                r#"{"schema_version":2,"id":"sum","op":"summary","status":"exact","cached":false,"prefilter":false,"primitives":["compute","event-var","fork-join"],"summary":{"events":7,"classes":2,"states":11,"mhb_pairs":18,"chb_pairs":24,"ccw_pairs":6}}"#,
            ),
            (
                render_races(&Some(Value::Int(10)), &[], false),
                r#"{"schema_version":2,"id":10,"op":"races","status":"exact","cached":false,"prefilter":false,"count":0,"races":[]}"#,
            ),
            (
                render_races(&Some(Value::Int(11)), &two, true),
                r#"{"schema_version":2,"id":11,"op":"races","status":"exact","cached":true,"prefilter":false,"count":2,"races":[{"first":0,"second":4},{"first":2,"second":3}]}"#,
            ),
            (
                render_degraded(
                    &Some(Value::Int(12)),
                    "ccw",
                    &EngineError::StateSpaceExceeded { limit: 64 },
                ),
                r#"{"schema_version":2,"id":12,"op":"ccw","status":"degraded","cause":"state-cap","error":"state space exceeded the 64-state budget"}"#,
            ),
            (
                render_degraded(&None, "races", &EngineError::DeadlineExceeded { ms: 250 }),
                r#"{"schema_version":2,"id":null,"op":"races","status":"degraded","cause":"deadline","error":"analysis exceeded its 250 ms wall-clock deadline"}"#,
            ),
            (
                render_degraded(&Some(Value::Int(13)), "summary", &EngineError::Cancelled),
                r#"{"schema_version":2,"id":13,"op":"summary","status":"degraded","cause":"cancelled","error":"analysis cancelled"}"#,
            ),
            (
                render_error_at(&Some(Value::Int(14)), "no event labeled \"x\\y\"", Some(3)),
                r#"{"schema_version":2,"id":14,"op":"error","status":"error","line":3,"error":"no event labeled \"x\\y\""}"#,
            ),
            (
                // DEL (0x7f) is printable JSON and passes through raw.
                render_error_at(&awkward, "bad\u{7f}\u{1f}", Some(41)),
                concat!(
                    r#"{"schema_version":2,"id":"q\"b\\c\u0001\n","op":"error","status":"error","line":41,"error":"bad"#,
                    "\u{7f}",
                    r#"\u001f"}"#
                ),
            ),
            (
                render_error(&None, "worker failed while serving this request"),
                r#"{"schema_version":2,"id":null,"op":"error","status":"error","error":"worker failed while serving this request"}"#,
            ),
        ];
        for (rendered, expected) in cases {
            assert_eq!(rendered, expected);
        }
    }
}
