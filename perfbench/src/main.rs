//! `eo-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload (`analyze`, `serve`, `serve-sat`, `server-tcp`),
//! prints a report, and ends standard output with one JSON line:
//! `{"correct": …, "attempted": …, "failed": …, "metrics": {…}}`. With
//! `--trace 0` the metrics are the end-to-end ones; with `--trace 1`,
//! the per-layer ones; `--spans <file>` also writes the traced run's
//! spans there, one JSON object per line. Exits 1 when an output check
//! fails, 2 on a usage or run error. `--print-digests` prints the
//! `analyze` report digests (the content of `expected/analyze.digests`
//! at the default seed).

use eo_perfbench::analyze::Analyze;
use eo_perfbench::serve::{Serve, ServeSat};
use eo_perfbench::tcp::ServerTcp;
use eo_perfbench::{report, run_workload, Outcome, Size, Workload, DEFAULT_SEED};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: Option<String>,
    print_digests: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        spans: None,
        print_digests: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--print-digests" {
            args.print_digests = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--spans" => args.spans = Some(value),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn run<W: Workload>(args: &Args) -> Result<Outcome, String> {
    run_workload::<W>(args.seed, args.seconds, args.trace, Size::Full)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("eo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.print_digests {
        return print_digests(&args);
    }
    let outcome = match args.workload.as_str() {
        "analyze" => run::<Analyze>(&args),
        "serve" => run::<Serve>(&args),
        "serve-sat" => run::<ServeSat>(&args),
        "server-tcp" => run::<ServerTcp>(&args),
        other => Err(format!(
            "unknown workload `{other}` (expected analyze, serve, serve-sat or server-tcp)"
        )),
    };
    let rendered = outcome
        .and_then(|o| report::render(&args.workload, args.seed, args.seconds, &o).map(|r| (r, o)));
    match rendered {
        Ok(((text, line), o)) => {
            print!("{text}");
            println!("{line}");
            if let (Some(path), Some((_, tracer))) = (&args.spans, &o.traced) {
                let written = std::fs::File::create(path).and_then(|f| {
                    let mut out = std::io::BufWriter::new(f);
                    tracer.write_jsonl(&mut out)?;
                    std::io::Write::flush(&mut out)
                });
                if let Err(e) = written {
                    eprintln!("eo-perfbench: writing {path}: {e}");
                    return ExitCode::from(2);
                }
            }
            if o.check_errors.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("eo-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn print_digests(args: &Args) -> ExitCode {
    let mut w = match Analyze::setup(args.seed, Size::Full) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("eo-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match w.run(args.seconds, &mut eo_perfbench::span::Tracer::new(false)) {
        Ok(_) => {
            print!("{}", w.digest_lines());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("eo-perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
