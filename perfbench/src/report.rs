//! Metric definitions and the printed report: a human-readable table,
//! then, as the last line of standard output, one JSON object with the
//! run's verdict and metrics.

use crate::span::{LayerTime, Tracer};
use crate::stats::{self, Latency};
use crate::{Outcome, Phase};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value as measured.
    pub value: f64,
}

/// The end-to-end metrics of one phase, and the latency summary they
/// came from.
pub fn end_to_end(
    setup_s: f64,
    phase: &Phase,
    peak_rss_mb: f64,
    tail: f64,
) -> Result<(Vec<Metric>, Latency), String> {
    let lat = stats::latency(&phase.latencies, tail)?;
    let answers = &phase.answers;
    let exact_ratio = if answers.attempted == 0 {
        0.0
    } else {
        answers.exact as f64 / answers.attempted as f64
    };
    let metric = |name, unit, value| Metric { name, unit, value };
    Ok((
        vec![
            metric("setup_s", "s", setup_s),
            metric("ops_per_s", "1/s", phase.ops_per_s),
            metric("latency_p50_ms", "ms", lat.p50 * 1e3),
            metric("latency_tail_ms", "ms", lat.tail_value * 1e3),
            metric("exact_ratio", "ratio", exact_ratio),
            metric("peak_rss_mb", "MiB", peak_rss_mb),
        ],
        lat,
    ))
}

/// How a per-layer metric is derived from the trace.
enum Stat {
    /// Mean self time per call of a layer, nanoseconds times the scale.
    SelfTime(&'static str, f64),
    /// Calls of a layer per op.
    CallsPerOp(&'static str),
    /// A counter per op.
    PerOp(&'static str),
    /// One counter over another.
    Ratio(&'static str, &'static str),
    /// A counter over the calls of a layer.
    PerCall(&'static str, &'static str),
    /// Cache hits over all point queries.
    CacheShare,
    /// A counter's end-of-run value.
    Total(&'static str),
}

const MS: f64 = 1e-6;
const US: f64 = 1e-3;

/// The query tiers a served point query is attributed to.
const QUERY_TIERS: [&str; 4] = [
    "serve.cache",
    "serve.prefilter",
    "serve.engine",
    "serve.sat",
];

/// Every per-layer metric, in `BENCHMARK.json` order.
const PER_LAYER: &[(&str, &str, Stat)] = &[
    ("model.parse_ms", "ms", Stat::SelfTime("model.parse", MS)),
    ("model.build_ms", "ms", Stat::SelfTime("model.build", MS)),
    ("model.render_ms", "ms", Stat::SelfTime("model.render", MS)),
    (
        "engine.statespace_ms",
        "ms",
        Stat::SelfTime("engine.statespace", MS),
    ),
    (
        "engine.states",
        "count",
        Stat::Ratio("engine.states", "engine.enumerations"),
    ),
    (
        "engine.enumerate_ms",
        "ms",
        Stat::SelfTime("engine.enumerate", MS),
    ),
    (
        "engine.schedules",
        "count",
        Stat::Ratio("engine.schedules", "engine.enumerations"),
    ),
    (
        "engine.orders",
        "count",
        Stat::Ratio("engine.orders", "engine.enumerations"),
    ),
    (
        "engine.useful_ratio",
        "ratio",
        Stat::Ratio("engine.orders", "engine.schedules"),
    ),
    (
        "engine.truncated",
        "ratio",
        Stat::Ratio("engine.truncated", "engine.enumerations"),
    ),
    (
        "engine.summary_ms",
        "ms",
        Stat::SelfTime("engine.summary", MS),
    ),
    ("serve.parse_us", "us", Stat::SelfTime("serve.parse", US)),
    ("serve.render_us", "us", Stat::SelfTime("serve.render", US)),
    ("serve.open_us", "us", Stat::SelfTime("serve.open", US)),
    (
        "approx.guarantee_ms",
        "ms",
        Stat::SelfTime("approx.guarantee", MS),
    ),
    ("serve.cache_hits", "count", Stat::CallsPerOp("serve.cache")),
    ("serve.cache_hit_ratio", "ratio", Stat::CacheShare),
    ("serve.cache_us", "us", Stat::SelfTime("serve.cache", US)),
    (
        "serve.prefilter_hits",
        "count",
        Stat::CallsPerOp("serve.prefilter"),
    ),
    (
        "serve.prefilter_us",
        "us",
        Stat::SelfTime("serve.prefilter", US),
    ),
    (
        "serve.engine_queries",
        "count",
        Stat::CallsPerOp("serve.engine"),
    ),
    ("serve.engine_us", "us", Stat::SelfTime("serve.engine", US)),
    (
        "engine.interned_states",
        "count",
        Stat::PerOp("engine.interned_states"),
    ),
    ("race.races_ms", "ms", Stat::SelfTime("race.races", MS)),
    ("race.candidates", "count", Stat::PerOp("race.candidates")),
    ("serve.sat_queries", "count", Stat::CallsPerOp("serve.sat")),
    ("serve.sat_us", "us", Stat::SelfTime("serve.sat", US)),
    ("sym.encode_ms", "ms", Stat::SelfTime("sym.encode", MS)),
    (
        "sym.clauses",
        "count",
        Stat::PerCall("sym.clauses", "sym.encode"),
    ),
    ("net.open_ms", "ms", Stat::SelfTime("net.open", MS)),
    ("net.service_us", "us", Stat::SelfTime("net.service", US)),
    ("net.frame_us", "us", Stat::SelfTime("net.frame", US)),
    ("net.reactor_us", "us", Stat::SelfTime("net.reactor", US)),
    ("net.rejected", "count", Stat::Total("net.rejected")),
    ("net.shed", "count", Stat::Total("net.shed")),
    ("net.orphaned", "count", Stat::Total("net.orphaned")),
];

/// Names of every per-layer metric.
pub fn per_layer_names() -> impl Iterator<Item = &'static str> {
    PER_LAYER.iter().map(|(name, _, _)| *name)
}

/// The per-layer metrics of a traced phase with `ops` ops. A layer the
/// workload never crosses reads 0.
pub fn per_layer(tracer: &Tracer, ops: usize) -> Vec<Metric> {
    let times = tracer.self_times();
    let calls = |layer: &str| times.get(layer).map_or(0, |t| t.calls) as f64;
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let ops = ops as f64;
    PER_LAYER
        .iter()
        .map(|(name, unit, stat)| {
            let value = match stat {
                Stat::SelfTime(layer, scale) => times
                    .get(layer)
                    .map_or(0.0, |t| ratio(t.self_ns as f64, t.calls as f64) * scale),
                Stat::CallsPerOp(layer) => ratio(calls(layer), ops),
                Stat::PerOp(counter) => ratio(tracer.counter(counter), ops),
                Stat::Ratio(num, den) => ratio(tracer.counter(num), tracer.counter(den)),
                Stat::PerCall(counter, layer) => ratio(tracer.counter(counter), calls(layer)),
                Stat::CacheShare => ratio(
                    calls("serve.cache"),
                    QUERY_TIERS.iter().map(|l| calls(l)).sum(),
                ),
                Stat::Total(counter) => tracer.counter(counter),
            };
            Metric { name, unit, value }
        })
        .collect()
}

/// The JSON verdict line.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

fn metric_table(out: &mut String, metrics: &[Metric], lat: &Latency, phase: &Phase) {
    for m in metrics {
        let _ = write!(out, "  {:<16} {:>14.6} {:<6}", m.name, m.value, m.unit);
        match m.name {
            "latency_tail_ms" => {
                let _ = write!(
                    out,
                    " p{} of {} samples, {} beyond it",
                    lat.tail.percentile, lat.n, lat.tail.beyond
                );
            }
            "exact_ratio" => {
                let a = &phase.answers;
                let _ = write!(
                    out,
                    " fail_ratio {:.6}: {} degraded, {} error, {} lost of {} answers",
                    a.fail_ratio(),
                    a.degraded,
                    a.errors,
                    a.lost(),
                    a.attempted
                );
            }
            "setup_s" => {
                let _ = write!(out, " median of {} set-ups", crate::SETUP_REPEATS);
            }
            _ => {}
        }
        out.push('\n');
    }
    let _ = writeln!(out, "  timed: {}", phase.basis);
}

/// The self-time table of a traced phase, and its largest layer.
pub fn self_time_table(
    times: &BTreeMap<&'static str, LayerTime>,
) -> (String, Option<&'static str>) {
    let total: u64 = times.values().map(|t| t.self_ns).sum();
    let mut rows: Vec<(&&str, &LayerTime)> = times.iter().collect();
    rows.sort_by(|a, b| b.1.self_ns.cmp(&a.1.self_ns).then(a.0.cmp(b.0)));
    let mut out = format!(
        "  {:<20} {:>12} {:>7} {:>9} {:>14}\n",
        "layer", "self ms", "share", "calls", "self us/call"
    );
    for (name, t) in &rows {
        let label = if **name == "op" {
            "(op, outside layers)"
        } else {
            name
        };
        let _ = writeln!(
            out,
            "  {:<20} {:>12.3} {:>6.1}% {:>9} {:>14.3}",
            label,
            t.self_ns as f64 / 1e6,
            100.0 * t.self_ns as f64 / total.max(1) as f64,
            t.calls,
            t.self_ns as f64 / t.calls.max(1) as f64 / 1e3
        );
    }
    let largest = rows.iter().map(|(n, _)| **n).find(|n| *n != "op");
    (out, largest)
}

/// Prints the report and returns the verdict line's inputs.
pub fn render(
    workload: &str,
    seed: u64,
    seconds: f64,
    o: &Outcome,
) -> Result<(String, String), String> {
    let mut out = String::new();
    let (plain, plain_lat) = end_to_end(o.setup_s, &o.plain, o.peak_rss_mb, o.tail_percentile)?;
    let traced = o.traced.is_some();
    let _ = writeln!(
        out,
        "workload {workload}, seed {seed}, {seconds} s{}",
        if traced {
            " (traced: the first half untraced, the second traced)"
        } else {
            ""
        }
    );
    out.push_str(if traced {
        "untraced phase:\n"
    } else {
        "end-to-end:\n"
    });
    metric_table(&mut out, &plain, &plain_lat, &o.plain);
    let mut answers = o.plain.answers;
    let metrics = match &o.traced {
        None => plain,
        Some((phase, tracer)) => {
            answers.add(phase.answers);
            let (tm, tlat) = end_to_end(o.setup_s, phase, o.peak_rss_mb, o.tail_percentile)?;
            out.push_str("traced phase:\n");
            metric_table(&mut out, &tm, &tlat, phase);
            out.push_str("tracing overhead (traced vs untraced, same inputs):\n");
            for (p, t) in plain.iter().zip(&tm) {
                if matches!(p.name, "ops_per_s" | "latency_p50_ms" | "latency_tail_ms") {
                    let _ = writeln!(
                        out,
                        "  {:<16} {:>+8.2}%",
                        p.name,
                        100.0 * (t.value - p.value) / p.value
                    );
                }
            }
            let (table, largest) = self_time_table(&tracer.self_times());
            let _ = writeln!(out, "self time by layer ({} traced ops):", phase.ops);
            out.push_str(&table);
            let _ = writeln!(out, "largest layer: {}", largest.unwrap_or("none"));
            if tracer.counter("net.replay_mismatches") > 0.0 {
                let _ = writeln!(
                    out,
                    "note: {} replayed responses differed from the server's",
                    tracer.counter("net.replay_mismatches")
                );
            }
            out.push_str("per-layer metrics:\n");
            let layer = per_layer(tracer, phase.ops);
            for m in &layer {
                let _ = writeln!(out, "  {:<24} {:>14.6} {}", m.name, m.value, m.unit);
            }
            layer
        }
    };
    if o.check_errors.is_empty() {
        out.push_str("output checks: passed\n");
    } else {
        let _ = writeln!(out, "output checks: FAILED ({})", o.check_errors.len());
        for e in o.check_errors.iter().take(20) {
            let _ = writeln!(out, "  {e}");
        }
    }
    let line = json_line(
        o.check_errors.is_empty(),
        answers.attempted,
        answers.failed(),
        &metrics,
    );
    Ok((out, line))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_line_is_one_json_object_with_every_metric() {
        let m = [
            Metric {
                name: "setup_s",
                unit: "s",
                value: 0.25,
            },
            Metric {
                name: "ops_per_s",
                unit: "1/s",
                value: 1234.5,
            },
        ];
        assert_eq!(
            json_line(true, 10, 0, &m),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, \"ops_per_s\": {\"value\": 1234.5, \"unit\": \"1/s\"}}}"
        );
    }

    #[test]
    fn per_layer_reports_every_metric_even_when_unused() {
        let t = Tracer::new(true);
        let m = per_layer(&t, 0);
        assert_eq!(m.len(), PER_LAYER.len());
        assert!(m.iter().all(|m| m.value == 0.0));
    }
}
