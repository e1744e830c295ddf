//! Post-run aggregation: raw per-thread event logs → spans, counters,
//! gauges — plus the Chrome-trace / flat-metrics JSON emitters and their
//! readers (used by the round-trip tests and the bench regression gate).

use crate::json::{self, Value};
use crate::record::{Event, RunData};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// A closed span reconstructed from a thread's Begin/End event stream.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Span name.
    pub name: String,
    /// Recording thread id.
    pub tid: u64,
    /// Start, microseconds since the recording epoch.
    pub start_us: u64,
    /// Total (inclusive) duration in microseconds.
    pub dur_us: u64,
    /// Self time: duration minus time spent in direct child spans.
    pub self_us: u64,
}

/// One aggregated metric value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Integer metric (counters, sizes, counts).
    Int(i64),
    /// Float metric (ratios, milliseconds).
    Float(f64),
    /// String metric (e.g. a degradation cause).
    Str(String),
}

impl MetricValue {
    fn to_value(&self) -> Value {
        match self {
            MetricValue::Int(v) => Value::Int(*v),
            MetricValue::Float(v) => Value::Num(*v),
            MetricValue::Str(s) => Value::Str(s.clone()),
        }
    }
}

/// Aggregated view of one recording run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// All closed spans across all threads, in (tid, start) order.
    pub spans: Vec<SpanRecord>,
    /// Counter totals summed across threads.
    pub counters: BTreeMap<String, u64>,
    /// Gauges, last write wins.
    pub gauges: BTreeMap<String, MetricValue>,
}

/// Version stamped into every JSON document this module emits (and every
/// other `eo` JSON emitter — lint reports, degraded summaries, serve
/// responses) as a top-level `"schema_version"` field, so downstream
/// consumers can detect incompatible evolutions of the formats.
///
/// History: **1** — the original formats; **2** — serve responses gained
/// the additive `config` echo (non-default [`EngineConfig`] fields) and
/// the `primitives` vocabulary on summary replies, and every front end
/// started accepting `--config <file.json>`. Version 2 documents are a
/// superset of version 1: no field was renamed or removed.
///
/// [`EngineConfig`]: https://docs.rs/eo-engine
pub const SCHEMA_VERSION: i64 = 2;

/// The well-known engine metrics registry.
///
/// [`Report::metrics_with_defaults`] guarantees every name below appears in
/// the flat metrics JSON even when its subsystem never ran (e.g.
/// `sat.dpll_nodes` stays 0 for an analysis that never touched the SAT
/// backend), so downstream tooling can rely on a fixed schema.
pub const ENGINE_METRICS: &[&str] = &[
    "engine.states_interned",
    "engine.fp_collisions",
    "engine.arena_bytes",
    "engine.bfs_levels",
    "engine.schedules",
    "enum.orders",
    "enumerate.classes",
    "enumerate.schedules",
    "enumerate.redundancy_ratio",
    "enumerate.sleep_prunes",
    "query.witness_queries",
    "query.states_interned",
    "sat.dpll_nodes",
    "sat.dpll_decisions",
    "sat.dpll_backtracks",
    "sat.clauses",
    "pool.workers",
    "pool.tasks",
    "pool.parks",
    "pool.max_queue_depth",
    "budget.headroom_ms",
    "budget.headroom_states",
    "budget.headroom_bytes",
    "serve.queries",
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.prefilter_hits",
    "serve.static_prefilter_hits",
    "mhp.analyses",
    "mhp.stmts",
    "mhp.rounds",
    "mhp.unreachable_stmts",
    "lint.programs",
    "lint.diagnostics",
];

/// Name of the string metric recording why an analysis degraded.
pub const DEGRADATION_CAUSE: &str = "degradation.cause";

/// Folds the raw per-thread logs into spans, counters, and gauges.
///
/// Span reconstruction is per-thread and stack-based: a `Begin` pushes, an
/// `End` closes the innermost open span. Spans left open at the end of a
/// thread's log (truncated or panicking runs) are closed at the thread's
/// last observed timestamp; stray `End`s are ignored.
pub fn aggregate(data: &RunData) -> Report {
    let mut report = Report::default();
    for thread in &data.threads {
        let mut stack: Vec<(
            /*name*/ &str,
            /*start*/ u64,
            /*child_dur*/ u64,
        )> = Vec::new();
        let mut last_t = 0u64;
        for ev in &thread.events {
            match ev {
                Event::Begin { name, t_us } => {
                    last_t = last_t.max(*t_us);
                    stack.push((name, *t_us, 0));
                }
                Event::End { t_us } => {
                    last_t = last_t.max(*t_us);
                    if let Some((name, start, child_dur)) = stack.pop() {
                        let dur = t_us.saturating_sub(start);
                        if let Some(parent) = stack.last_mut() {
                            parent.2 += dur;
                        }
                        report.spans.push(SpanRecord {
                            name: name.to_owned(),
                            tid: thread.tid,
                            start_us: start,
                            dur_us: dur,
                            self_us: dur.saturating_sub(child_dur),
                        });
                    }
                }
                Event::Counter { name, delta } => {
                    *report.counters.entry((*name).to_owned()).or_insert(0) += delta;
                }
                Event::GaugeI { name, value } => {
                    report
                        .gauges
                        .insert((*name).to_owned(), MetricValue::Int(*value));
                }
                Event::GaugeF { name, value } => {
                    report
                        .gauges
                        .insert((*name).to_owned(), MetricValue::Float(*value));
                }
                Event::GaugeS { name, value } => {
                    report
                        .gauges
                        .insert((*name).to_owned(), MetricValue::Str(value.clone()));
                }
            }
        }
        // Close anything still open at the last timestamp seen on the thread.
        while let Some((name, start, child_dur)) = stack.pop() {
            let dur = last_t.saturating_sub(start);
            if let Some(parent) = stack.last_mut() {
                parent.2 += dur;
            }
            report.spans.push(SpanRecord {
                name: name.to_owned(),
                tid: thread.tid,
                start_us: start,
                dur_us: dur,
                self_us: dur.saturating_sub(child_dur),
            });
        }
    }
    report.spans.sort_by_key(|s| (s.tid, s.start_us));
    report
}

impl Report {
    /// The flat metrics map: counters and gauges merged (gauges win on a
    /// name collision, which instrumentation avoids by convention).
    pub fn metrics(&self) -> BTreeMap<String, MetricValue> {
        let mut out: BTreeMap<String, MetricValue> = self
            .counters
            .iter()
            .map(|(k, v)| (k.clone(), MetricValue::Int(*v as i64)))
            .collect();
        for (k, v) in &self.gauges {
            out.insert(k.clone(), v.clone());
        }
        out
    }

    /// Like [`Report::metrics`], with every registry name present:
    /// missing [`ENGINE_METRICS`] default to `0` and a missing
    /// [`DEGRADATION_CAUSE`] defaults to `"none"`.
    pub fn metrics_with_defaults(&self) -> BTreeMap<String, MetricValue> {
        let mut out = self.metrics();
        for name in ENGINE_METRICS {
            out.entry((*name).to_owned()).or_insert(MetricValue::Int(0));
        }
        out.entry(DEGRADATION_CAUSE.to_owned())
            .or_insert_with(|| MetricValue::Str("none".to_owned()));
        out
    }
}

/// Serializes a flat metrics map to a single JSON object (sorted keys,
/// preceded by a [`SCHEMA_VERSION`] stamp).
pub fn metrics_to_json(metrics: &BTreeMap<String, MetricValue>) -> String {
    let mut fields: Vec<(String, Value)> =
        vec![("schema_version".to_owned(), Value::Int(SCHEMA_VERSION))];
    fields.extend(metrics.iter().map(|(k, v)| (k.clone(), v.to_value())));
    let mut text = Value::Obj(fields).to_json();
    text.push('\n');
    text
}

/// Parses a flat metrics JSON object back into a metrics map.
///
/// Numbers with no fractional part come back as [`MetricValue::Int`], so an
/// integer metric round-trips exactly; anything non-numeric and non-string
/// is rejected. The `"schema_version"` stamp is format metadata, not a
/// metric, and is stripped on the way in.
pub fn metrics_from_json(text: &str) -> Result<BTreeMap<String, MetricValue>, json::ParseError> {
    let parsed = json::parse(text)?;
    let Value::Obj(fields) = parsed else {
        return Err(json::ParseError {
            offset: 0,
            message: "expected a JSON object",
        });
    };
    let mut out = BTreeMap::new();
    for (key, value) in fields {
        if key == "schema_version" {
            continue;
        }
        let mv = match value {
            Value::Int(_) | Value::Num(_) => match value.as_i64() {
                Some(i) => MetricValue::Int(i),
                None => MetricValue::Float(value.as_f64().unwrap_or(0.0)),
            },
            Value::Str(s) => MetricValue::Str(s),
            _ => {
                return Err(json::ParseError {
                    offset: 0,
                    message: "metric values must be numbers or strings",
                })
            }
        };
        out.insert(key, mv);
    }
    Ok(out)
}

/// Serializes the report's spans as a Chrome-trace-format JSON document.
///
/// Each span becomes a `ph:"X"` complete event (`ts`/`dur` in microseconds);
/// the computed self time rides along in `args.self_us` so the document
/// round-trips through [`trace_from_json`] without loss.
pub fn trace_to_json(report: &Report) -> String {
    let events: Vec<Value> = report
        .spans
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("name".to_owned(), Value::Str(s.name.clone())),
                ("cat".to_owned(), Value::Str("eo".to_owned())),
                ("ph".to_owned(), Value::Str("X".to_owned())),
                ("ts".to_owned(), Value::Int(s.start_us as i64)),
                ("dur".to_owned(), Value::Int(s.dur_us as i64)),
                ("pid".to_owned(), Value::Int(1)),
                ("tid".to_owned(), Value::Int(s.tid as i64)),
                (
                    "args".to_owned(),
                    Value::Obj(vec![("self_us".to_owned(), Value::Int(s.self_us as i64))]),
                ),
            ])
        })
        .collect();
    let doc = Value::Obj(vec![
        ("schema_version".to_owned(), Value::Int(SCHEMA_VERSION)),
        ("traceEvents".to_owned(), Value::Arr(events)),
        ("displayTimeUnit".to_owned(), Value::Str("ms".to_owned())),
    ]);
    let mut text = doc.to_json();
    text.push('\n');
    text
}

/// Parses a Chrome-trace document produced by [`trace_to_json`] back into
/// span records. Non-`"X"` events are skipped.
pub fn trace_from_json(text: &str) -> Result<Vec<SpanRecord>, json::ParseError> {
    let parsed = json::parse(text)?;
    let events = parsed
        .get("traceEvents")
        .and_then(Value::as_array)
        .ok_or(json::ParseError {
            offset: 0,
            message: "missing traceEvents array",
        })?;
    let mut spans = Vec::new();
    for ev in events {
        if ev.get("ph").and_then(Value::as_str) != Some("X") {
            continue;
        }
        let field_u64 = |key: &str| -> Result<u64, json::ParseError> {
            ev.get(key)
                .and_then(Value::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .ok_or(json::ParseError {
                    offset: 0,
                    message: "bad trace event field",
                })
        };
        let dur_us = field_u64("dur")?;
        spans.push(SpanRecord {
            name: ev
                .get("name")
                .and_then(Value::as_str)
                .ok_or(json::ParseError {
                    offset: 0,
                    message: "trace event missing name",
                })?
                .to_owned(),
            tid: field_u64("tid")?,
            start_us: field_u64("ts")?,
            dur_us,
            self_us: ev
                .get("args")
                .and_then(|a| a.get("self_us"))
                .and_then(Value::as_i64)
                .and_then(|v| u64::try_from(v).ok())
                .unwrap_or(dur_us),
        });
    }
    Ok(spans)
}

/// Renders the human `--profile` table: spans grouped by name, sorted by
/// total self time descending, truncated to `top` rows.
pub fn render_profile(report: &Report, top: usize) -> String {
    struct Row {
        calls: u64,
        total_us: u64,
        self_us: u64,
    }
    let mut by_name: BTreeMap<&str, Row> = BTreeMap::new();
    for s in &report.spans {
        let row = by_name.entry(&s.name).or_insert(Row {
            calls: 0,
            total_us: 0,
            self_us: 0,
        });
        row.calls += 1;
        row.total_us += s.dur_us;
        row.self_us += s.self_us;
    }
    let grand_self: u64 = by_name.values().map(|r| r.self_us).sum();
    let mut rows: Vec<(&str, Row)> = by_name.into_iter().collect();
    rows.sort_by(|a, b| b.1.self_us.cmp(&a.1.self_us).then(a.0.cmp(b.0)));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<32} {:>7} {:>12} {:>12} {:>7}",
        "span", "calls", "total_ms", "self_ms", "self%"
    );
    if rows.is_empty() {
        let _ = writeln!(out, "(no spans recorded)");
        return out;
    }
    for (name, row) in rows.iter().take(top) {
        let pct = if grand_self == 0 {
            0.0
        } else {
            100.0 * row.self_us as f64 / grand_self as f64
        };
        let _ = writeln!(
            out,
            "{:<32} {:>7} {:>12.3} {:>12.3} {:>6.1}%",
            name,
            row.calls,
            row.total_us as f64 / 1000.0,
            row.self_us as f64 / 1000.0,
            pct
        );
    }
    if rows.len() > top {
        let _ = writeln!(out, "... {} more span name(s)", rows.len() - top);
    }
    out
}
