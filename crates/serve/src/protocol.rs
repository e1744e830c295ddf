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
use eo_obs::json::{self, Value};
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

fn base_fields(id: &Option<Value>, op: &str, status: &str) -> Vec<(String, Value)> {
    vec![
        ("schema_version".to_owned(), Value::Int(SCHEMA_VERSION)),
        ("id".to_owned(), id.clone().unwrap_or(Value::Null)),
        ("op".to_owned(), Value::Str(op.to_owned())),
        ("status".to_owned(), Value::Str(status.to_owned())),
    ]
}

fn witness_value(witness: &Option<Vec<EventId>>) -> Value {
    match witness {
        None => Value::Null,
        Some(schedule) => Value::Arr(
            schedule
                .iter()
                .map(|e| Value::Int(e.index() as i64))
                .collect(),
        ),
    }
}

/// Renders one exact session reply as a response document.
pub fn render_reply(id: &Option<Value>, reply: &SessionReply) -> String {
    let mut fields = base_fields(id, reply.response.query.op_name(), "exact");
    fields.push(("cached".to_owned(), Value::Bool(reply.cached)));
    fields.push((
        "prefilter".to_owned(),
        Value::Bool(reply.prefilter || reply.static_prefilter),
    ));
    // Additive disposition marker: present only when the whole-program
    // static tier answered, so default-config responses are byte-stable.
    if reply.static_prefilter {
        fields.push(("prefilter_tier".to_owned(), Value::Str("static".to_owned())));
    }
    // Same additive pattern for the non-default backend: `--backend sat`
    // sessions tag every reply, default sessions stay byte-stable.
    if reply.backend != QueryBackend::Exact {
        fields.push((
            "backend".to_owned(),
            Value::Str(reply.backend.label().to_owned()),
        ));
    }
    // Additive engine-config echo: sessions opened from an explicit
    // `EngineConfig` (`--config`) tag every reply with the non-default
    // fields; default sessions carry no `config` object at all.
    if !reply.config_echo.is_empty() {
        fields.push((
            "config".to_owned(),
            Value::Obj(
                reply
                    .config_echo
                    .iter()
                    .map(|(k, v)| ((*k).to_owned(), Value::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    // Whole-program summary replies also echo the primitive classes the
    // analyzed trace uses (always the core calculus — surface primitives
    // reach the engine desugared).
    if !reply.primitives.is_empty() {
        fields.push((
            "primitives".to_owned(),
            Value::Arr(
                reply
                    .primitives
                    .iter()
                    .map(|p| Value::Str((*p).to_owned()))
                    .collect(),
            ),
        ));
    }
    match &reply.response.answer {
        Answer::Decided(v) => fields.push(("answer".to_owned(), Value::Bool(*v))),
        Answer::Witness(w) => fields.push(("witness".to_owned(), witness_value(w))),
        Answer::Summary(s) => {
            let mhb_pairs = s.mhb_relation().pair_count();
            fields.push((
                "summary".to_owned(),
                Value::Obj(vec![
                    ("events".to_owned(), Value::Int(s.n_events() as i64)),
                    ("classes".to_owned(), Value::Int(s.class_count() as i64)),
                    ("states".to_owned(), Value::Int(s.state_count() as i64)),
                    ("mhb_pairs".to_owned(), Value::Int(mhb_pairs as i64)),
                    (
                        "chb_pairs".to_owned(),
                        Value::Int(s.chb_relation().pair_count() as i64),
                    ),
                    (
                        "ccw_pairs".to_owned(),
                        Value::Int(s.ccw_relation().pair_count() as i64),
                    ),
                ]),
            ));
        }
        other => fields.push(("answer_debug".to_owned(), Value::Str(format!("{other:?}")))),
    }
    Value::Obj(fields).to_json()
}

/// Renders the race report response.
pub fn render_races(id: &Option<Value>, races: &[Race], cached: bool) -> String {
    let mut fields = base_fields(id, "races", "exact");
    fields.push(("cached".to_owned(), Value::Bool(cached)));
    fields.push(("prefilter".to_owned(), Value::Bool(false)));
    fields.push(("count".to_owned(), Value::Int(races.len() as i64)));
    fields.push((
        "races".to_owned(),
        Value::Arr(
            races
                .iter()
                .map(|r| {
                    Value::Obj(vec![
                        ("first".to_owned(), Value::Int(r.first.index() as i64)),
                        ("second".to_owned(), Value::Int(r.second.index() as i64)),
                    ])
                })
                .collect(),
        ),
    ));
    Value::Obj(fields).to_json()
}

/// Renders a degraded response: the budget stopped this query's search.
pub fn render_degraded(id: &Option<Value>, op: &str, error: &EngineError) -> String {
    let mut fields = base_fields(id, op, "degraded");
    fields.push((
        "cause".to_owned(),
        Value::Str(error.cause_label().to_owned()),
    ));
    fields.push(("error".to_owned(), Value::Str(error.to_string())));
    Value::Obj(fields).to_json()
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
    let mut fields = base_fields(id, "error", "error");
    if let Some(n) = line {
        fields.push(("line".to_owned(), Value::Int(n as i64)));
    }
    fields.push(("error".to_owned(), Value::Str(message.to_owned())));
    Value::Obj(fields).to_json()
}

#[cfg(test)]
mod tests {
    use super::*;
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
    }
}
