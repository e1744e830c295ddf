//! [`EngineConfig`]: one serializable bag for every analysis knob.
//!
//! Before this module, the knobs were scattered: feasibility mode and
//! budget caps lived in [`EngineOptions`], the trace equivalence in
//! `--equiv`, the decision backend in `--backend`, and the static
//! prefilter in the serving layer's session config — each front end
//! (`eo analyze`, `eo serve`, `eo-server`) re-parsed its own subset.
//! `EngineConfig` is the union: a plain-data struct with a JSON form, so
//! one `--config <file.json>` is accepted *identically* by all three
//! front ends (explicit CLI flags still override individual fields), and
//! non-default settings are echoed additively in serve protocol
//! responses so a client can tell what configuration answered it.
//!
//! The JSON form is strict on purpose: unknown keys are rejected (a typo
//! in a config file must not silently run a default analysis), and every
//! field is optional with the documented default.

use crate::api::{EngineOptions, QueryBackend};
use crate::budget::Budget;
use crate::ctx::FeasibilityMode;
use crate::equiv::EquivStrategy;
use eo_obs::json::{self, Value};

/// Every analysis knob, in one serializable struct. See the
/// [module docs](self).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Feasibility notion (`"mode"`: `"preserve-dependences"` |
    /// `"ignore-dependences"`).
    pub mode: FeasibilityMode,
    /// Trace equivalence the enumeration quotients by (`"equiv"`).
    pub equiv: EquivStrategy,
    /// Decision procedure for point queries (`"backend"`: `"exact"` |
    /// `"sat"`).
    pub backend: QueryBackend,
    /// Whole-program MHP static prefilter (`"static_prefilter"`).
    pub static_prefilter: bool,
    /// Wall-clock deadline per analysis/request (`"timeout_ms"`).
    pub timeout_ms: Option<u64>,
    /// Approximate heap-bytes cap (`"max_mem_bytes"`).
    pub max_mem_bytes: Option<u64>,
    /// Distinct machine-state cap (`"max_states"`).
    pub max_states: Option<u64>,
    /// Complete-schedule cap (`"max_schedules"`).
    pub max_schedules: Option<u64>,
}

impl EngineConfig {
    /// All-defaults config (the paper's reading, exact backend, no caps).
    pub fn is_default(&self) -> bool {
        *self == EngineConfig::default()
    }

    /// Parses the JSON form. Every field is optional; unknown keys are an
    /// error (config typos must fail loudly, not run a default analysis).
    pub fn from_json(v: &Value) -> Result<EngineConfig, String> {
        let Value::Obj(fields) = v else {
            return Err("engine config must be a JSON object".to_owned());
        };
        let mut cfg = EngineConfig::default();
        for (key, value) in fields {
            match key.as_str() {
                "mode" => {
                    cfg.mode = match str_field(value, key)? {
                        "preserve-dependences" => FeasibilityMode::PreserveDependences,
                        "ignore-dependences" => FeasibilityMode::IgnoreDependences,
                        other => {
                            return Err(format!(
                                "mode: unknown `{other}` \
                                 (expected preserve-dependences|ignore-dependences)"
                            ))
                        }
                    }
                }
                "equiv" => {
                    cfg.equiv = str_field(value, key)?
                        .parse()
                        .map_err(|e| format!("equiv: {e}"))?
                }
                "backend" => {
                    cfg.backend = str_field(value, key)?
                        .parse()
                        .map_err(|e| format!("backend: {e}"))?
                }
                "static_prefilter" => {
                    cfg.static_prefilter = match value {
                        Value::Bool(b) => *b,
                        _ => return Err("static_prefilter must be a boolean".to_owned()),
                    }
                }
                // `null` caps mean "unset" so the full to_json form
                // round-trips.
                "timeout_ms" => cfg.timeout_ms = cap_field(value, key)?,
                "max_mem_bytes" => cfg.max_mem_bytes = cap_field(value, key)?,
                "max_states" => cfg.max_states = cap_field(value, key)?,
                "max_schedules" => cfg.max_schedules = cap_field(value, key)?,
                other => return Err(format!("unknown engine config key `{other}`")),
            }
        }
        Ok(cfg)
    }

    /// Parses the JSON text form (the `--config <file.json>` contents).
    pub fn from_json_str(text: &str) -> Result<EngineConfig, String> {
        let v = json::parse(text).map_err(|e| format!("engine config: {e}"))?;
        EngineConfig::from_json(&v)
    }

    /// The full JSON form (every field, including defaults) — the
    /// round-trip serialization.
    pub fn to_json(&self) -> Value {
        let cap = |c: &Option<u64>| match c {
            None => Value::Null,
            Some(n) => Value::Int(*n as i64),
        };
        Value::Obj(vec![
            (
                "mode".to_owned(),
                Value::Str(mode_label(self.mode).to_owned()),
            ),
            (
                "equiv".to_owned(),
                Value::Str(self.equiv.label().to_owned()),
            ),
            (
                "backend".to_owned(),
                Value::Str(self.backend.label().to_owned()),
            ),
            (
                "static_prefilter".to_owned(),
                Value::Bool(self.static_prefilter),
            ),
            ("timeout_ms".to_owned(), cap(&self.timeout_ms)),
            ("max_mem_bytes".to_owned(), cap(&self.max_mem_bytes)),
            ("max_states".to_owned(), cap(&self.max_states)),
            ("max_schedules".to_owned(), cap(&self.max_schedules)),
        ])
    }

    /// Only the fields that differ from the defaults, as (key, rendered
    /// value) pairs. This is what serve responses echo — additively, so
    /// default-config responses carry no `config` object at all and stay
    /// byte-stable.
    pub fn non_default_fields(&self) -> Vec<(&'static str, String)> {
        let d = EngineConfig::default();
        let mut out = Vec::new();
        if self.mode != d.mode {
            out.push(("mode", mode_label(self.mode).to_owned()));
        }
        if self.equiv != d.equiv {
            out.push(("equiv", self.equiv.label().to_owned()));
        }
        if self.backend != d.backend {
            out.push(("backend", self.backend.label().to_owned()));
        }
        if self.static_prefilter {
            out.push(("static_prefilter", "true".to_owned()));
        }
        for (name, cap) in [
            ("timeout_ms", self.timeout_ms),
            ("max_mem_bytes", self.max_mem_bytes),
            ("max_states", self.max_states),
            ("max_schedules", self.max_schedules),
        ] {
            if let Some(n) = cap {
                out.push((name, n.to_string()));
            }
        }
        out
    }

    /// The engine-tier slice of this config as [`EngineOptions`]: mode,
    /// equivalence, and (when any cap is set) a [`Budget`] carrying the
    /// caps. `backend` and `static_prefilter` are serving-layer knobs and
    /// do not appear in the options.
    pub fn engine_options(&self) -> EngineOptions {
        let mut opts = EngineOptions::with_mode(self.mode);
        opts.equiv = self.equiv;
        opts.budget = self.budget();
        opts
    }

    /// The shared CLI surface: loads `--config <file.json>` (the default
    /// config when the flag is absent) and folds over it the engine-knob
    /// flags every front end accepts — `--ignore-deps`, `--equiv`,
    /// `--backend`, `--static-prefilter`, `--timeout`, `--max-mem`,
    /// `--max-states`. A flag that is present always wins over the file;
    /// absent flags leave the file's choice (or the default) in place.
    /// `eo analyze`, `eo serve`, and `eo-server` all call exactly this,
    /// which is what makes one config file mean the same thing to all
    /// three.
    pub fn from_cli(args: &[String]) -> Result<EngineConfig, String> {
        let mut cfg = match cli_str(args, "--config")? {
            None => EngineConfig::default(),
            Some(path) => {
                let text =
                    std::fs::read_to_string(&path).map_err(|e| format!("--config {path}: {e}"))?;
                EngineConfig::from_json_str(&text).map_err(|e| format!("--config {path}: {e}"))?
            }
        };
        if args.iter().any(|a| a == "--ignore-deps") {
            cfg.mode = FeasibilityMode::IgnoreDependences;
        }
        if let Some(v) = cli_str(args, "--equiv")? {
            cfg.equiv = v.parse().map_err(|e| format!("--equiv: {e}"))?;
        }
        if let Some(v) = cli_str(args, "--backend")? {
            cfg.backend = v.parse().map_err(|e| format!("--backend: {e}"))?;
        }
        if args.iter().any(|a| a == "--static-prefilter") {
            cfg.static_prefilter = true;
        }
        if let Some(n) = cli_num(args, "--timeout")? {
            cfg.timeout_ms = Some(n);
        }
        if let Some(n) = cli_num(args, "--max-mem")? {
            cfg.max_mem_bytes = Some(n);
        }
        if let Some(n) = cli_num(args, "--max-states")? {
            cfg.max_states = Some(n);
        }
        if let Some(n) = cli_num(args, "--max-schedules")? {
            cfg.max_schedules = Some(n);
        }
        Ok(cfg)
    }

    /// The budget implied by the caps, or `None` when no cap is set.
    pub fn budget(&self) -> Option<Budget> {
        if self.timeout_ms.is_none()
            && self.max_mem_bytes.is_none()
            && self.max_states.is_none()
            && self.max_schedules.is_none()
        {
            return None;
        }
        let mut b = Budget::unlimited();
        if let Some(ms) = self.timeout_ms {
            b = b.with_deadline_ms(ms);
        }
        if let Some(bytes) = self.max_mem_bytes {
            b = b.with_max_heap_bytes(bytes as usize);
        }
        if let Some(n) = self.max_states {
            b = b.with_max_states(n as usize);
        }
        if let Some(n) = self.max_schedules {
            b = b.with_max_schedules(n as usize);
        }
        Some(b)
    }
}

/// Stable label for the feasibility mode (JSON value, protocol echo).
pub fn mode_label(mode: FeasibilityMode) -> &'static str {
    match mode {
        FeasibilityMode::PreserveDependences => "preserve-dependences",
        FeasibilityMode::IgnoreDependences => "ignore-dependences",
    }
}

/// Parses `--<name> <value>` anywhere in `args`.
fn cli_str(args: &[String], name: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == name) {
        None => Ok(None),
        Some(i) => match args.get(i + 1) {
            Some(v) if !v.starts_with("--") => Ok(Some(v.clone())),
            _ => Err(format!("{name} takes a value")),
        },
    }
}

/// Parses `--<name> <number>` anywhere in `args`.
fn cli_num(args: &[String], name: &str) -> Result<Option<u64>, String> {
    match cli_str(args, name)? {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("{name} takes a number, got `{v}`")),
    }
}

fn str_field<'v>(v: &'v Value, key: &str) -> Result<&'v str, String> {
    v.as_str().ok_or_else(|| format!("{key} must be a string"))
}

fn cap_field(v: &Value, key: &str) -> Result<Option<u64>, String> {
    match v {
        Value::Null => Ok(None),
        _ => match v.as_i64() {
            Some(n) if n >= 0 => Ok(Some(n as u64)),
            _ => Err(format!("{key} must be a non-negative integer or null")),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_round_trips_through_json() {
        let cfg = EngineConfig::default();
        let text = cfg.to_json().pretty();
        let back = EngineConfig::from_json_str(&text).expect("parses");
        assert_eq!(back, cfg);
        assert!(cfg.is_default());
        assert!(cfg.non_default_fields().is_empty());
        assert!(cfg.budget().is_none());
    }

    #[test]
    fn full_config_round_trips_and_echoes() {
        let cfg = EngineConfig {
            mode: FeasibilityMode::IgnoreDependences,
            equiv: EquivStrategy::NormalForm,
            backend: QueryBackend::Sat,
            static_prefilter: true,
            timeout_ms: Some(1000),
            max_mem_bytes: Some(1 << 20),
            max_states: Some(5000),
            max_schedules: Some(9000),
        };
        let back = EngineConfig::from_json_str(&cfg.to_json().pretty()).expect("parses");
        assert_eq!(back, cfg);
        let echo = cfg.non_default_fields();
        assert_eq!(echo.len(), 8, "{echo:?}");
        assert!(echo.contains(&("mode", "ignore-dependences".to_owned())));
        assert!(echo.contains(&("backend", "sat".to_owned())));
        let budget = cfg.budget().expect("caps imply a budget");
        assert_eq!(budget.max_states(), Some(5000));
        assert_eq!(budget.max_heap_bytes(), Some(1 << 20));
    }

    #[test]
    fn sparse_config_fills_defaults() {
        let cfg = EngineConfig::from_json_str(r#"{"equiv": "nf", "max_states": 10}"#).unwrap();
        assert_eq!(cfg.equiv, EquivStrategy::NormalForm);
        assert_eq!(cfg.max_states, Some(10));
        assert_eq!(cfg.mode, FeasibilityMode::PreserveDependences);
        assert_eq!(cfg.backend, QueryBackend::Exact);
        let opts = cfg.engine_options();
        assert_eq!(opts.equiv, EquivStrategy::NormalForm);
        assert!(opts.budget.is_some());
    }

    #[test]
    fn cli_flags_override_config_file() {
        let path = std::env::temp_dir().join(format!("eo-config-test-{}.json", std::process::id()));
        std::fs::write(
            &path,
            r#"{"equiv": "nf", "max_states": 10, "backend": "sat"}"#,
        )
        .unwrap();
        let args: Vec<String> = [
            "--config",
            path.to_str().unwrap(),
            "--equiv",
            "mazurkiewicz",
            "--max-states",
            "7",
            "--ignore-deps",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let cfg = EngineConfig::from_cli(&args).expect("parses");
        std::fs::remove_file(&path).ok();
        // Flags win where present...
        assert_eq!(cfg.equiv, EquivStrategy::Mazurkiewicz);
        assert_eq!(cfg.max_states, Some(7));
        assert_eq!(cfg.mode, FeasibilityMode::IgnoreDependences);
        // ...and the file's choice survives where they are absent.
        assert_eq!(cfg.backend, QueryBackend::Sat);
        // No flags and no file is simply the default.
        assert!(EngineConfig::from_cli(&[]).unwrap().is_default());
        // A missing file or bad flag value fails loudly.
        assert!(EngineConfig::from_cli(&["--config".into(), "/nonexistent.json".into()]).is_err());
        assert!(EngineConfig::from_cli(&["--timeout".into(), "soon".into()]).is_err());
        let err = EngineConfig::from_cli(&["--equiv".into(), "grain".into()]).unwrap_err();
        assert!(err.contains("mazurkiewicz|normal-form)"), "{err}");
    }

    #[test]
    fn caps_round_trip_exactly_past_two_to_the_53() {
        let cfg = EngineConfig {
            max_mem_bytes: Some((1 << 53) + 1),
            ..EngineConfig::default()
        };
        let back = EngineConfig::from_json_str(&cfg.to_json().pretty()).expect("parses");
        assert_eq!(back.max_mem_bytes, Some((1 << 53) + 1));
    }

    #[test]
    fn unknown_keys_and_bad_values_are_rejected() {
        assert!(EngineConfig::from_json_str(r#"{"equivv": "nf"}"#).is_err());
        assert!(EngineConfig::from_json_str(r#"{"equiv": "grain"}"#).is_err());
        assert!(EngineConfig::from_json_str(r#"{"mode": "both"}"#).is_err());
        assert!(EngineConfig::from_json_str(r#"{"timeout_ms": -1}"#).is_err());
        assert!(EngineConfig::from_json_str(r#"{"static_prefilter": "yes"}"#).is_err());
        assert!(EngineConfig::from_json_str("[]").is_err());
    }
}
