//! The repository benchmark: seeded front-end workloads that drive the
//! program only through its public functions, time each call from
//! outside, check the outputs, and report end-to-end and per-layer
//! metrics. See `README.md` in this directory for the workloads, the
//! metrics and how to run them.

pub mod analyze;
pub mod gen;
pub mod report;
pub mod serve;
pub mod span;
pub mod stats;
pub mod tcp;

use span::Tracer;
use stats::Answers;
use std::time::{Duration, Instant};

/// The seed the expected-output files were recorded at.
pub const DEFAULT_SEED: u64 = 1;

/// Set-up runs per invocation; `setup_s` is their median. A set-up
/// takes 0.03–0.15 s, short enough for a burst of the host's other load
/// to move any one of them by half.
pub const SETUP_REPEATS: usize = 11;

/// Ops a timed round-trip phase completes even when its time is up, so
/// that it has a tail percentile to report.
pub const MIN_OPS: usize = 20;

/// Passes over its pool a timed phase completes even when its time is
/// up, so that every input's fastest time is the best of several.
pub const MIN_PASSES: usize = 3;

/// How much input a workload generates.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Size {
    /// The benchmark proper.
    Full,
    /// A few small inputs, for the benchmark's own tests.
    Smoke,
}

/// What one timed phase measured.
#[derive(Clone, Debug, Default)]
pub struct Phase {
    /// Ops completed.
    pub ops: usize,
    /// The op latencies the latency metrics are drawn from, seconds.
    pub latencies: Vec<f64>,
    /// Ops completed per second.
    pub ops_per_s: f64,
    /// How the latencies and the rate were taken, for the report.
    pub basis: String,
    /// Answers attempted and how they ended.
    pub answers: Answers,
}

/// Each input's fastest op in a phase that visits a fixed pool of inputs
/// pass after pass. An op on the same input does the same work every
/// time, and a shared host's other tenants only ever slow it down, so the
/// fastest of the passes, spread over the whole phase, is the op's own
/// cost: the figures drawn from it hold still while the host's load
/// comes and goes.
pub struct Fastest {
    best: Vec<f64>,
    runs: Vec<u32>,
}

impl Fastest {
    /// No op timed yet on any of `inputs` inputs.
    pub fn new(inputs: usize) -> Fastest {
        Fastest {
            best: vec![f64::INFINITY; inputs],
            runs: vec![0; inputs],
        }
    }

    /// Records one op on `input`.
    pub fn op(&mut self, input: usize, latency: Duration) {
        let best = &mut self.best[input];
        *best = best.min(latency.as_secs_f64());
        self.runs[input] += 1;
    }

    /// The phase: every timed input's fastest latency, and the ops per
    /// second of a pass in which every op takes its fastest time.
    pub fn phase(self, answers: Answers) -> Phase {
        let latencies: Vec<f64> = self.best.into_iter().filter(|b| b.is_finite()).collect();
        let timed = self.runs.iter().filter(|&&r| r > 0);
        let (fewest, most) = timed.fold((u32::MAX, 0), |(lo, hi), &r| (lo.min(r), hi.max(r)));
        Phase {
            ops: self.runs.iter().map(|&r| r as usize).sum(),
            ops_per_s: latencies.len() as f64 / latencies.iter().sum::<f64>(),
            basis: format!(
                "{} inputs, each at its fastest of {fewest}-{most} runs spread over the phase",
                latencies.len()
            ),
            latencies,
            answers,
        }
    }
}

/// A timed phase's clock: wall time since the start, minus the
/// re-measurements a traced run makes outside its ops.
pub struct Clock {
    start: Instant,
    excluded: Duration,
    budget: Duration,
}

impl Clock {
    /// Starts a phase of `seconds`.
    pub fn start(seconds: f64) -> Clock {
        Clock {
            start: Instant::now(),
            excluded: Duration::ZERO,
            budget: Duration::from_secs_f64(seconds),
        }
    }

    /// Phase time so far, seconds.
    pub fn now(&self) -> f64 {
        (self.start.elapsed() - self.excluded).as_secs_f64()
    }

    /// Runs `f` off the clock.
    pub fn exclude<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.excluded += t.elapsed();
        out
    }

    /// Whether the phase's time is up.
    pub fn time_up(&self) -> bool {
        self.now() >= self.budget.as_secs_f64()
    }
}

/// One workload: generated from a seed, timed in phases, then checked.
pub trait Workload: Sized {
    /// The percentile `latency_tail_ms` reports. It has well over ten
    /// samples beyond it at full run length; a short run falls back down
    /// the ladder rather than report a thinner tail.
    const TAIL_PERCENTILE: f64 = 90.0;

    /// Generates inputs and brings the program to its ready state
    /// (server bound, programs opened, caches warm where users have
    /// them warm). Everything here counts toward `setup_s`.
    fn setup(seed: u64, size: Size) -> Result<Self, String>;

    /// Runs the closed loop for `seconds` (and at least [`MIN_PASSES`]
    /// passes or [`MIN_OPS`] round trips).
    fn run(&mut self, seconds: f64, tracer: &mut Tracer) -> Result<Phase, String>;

    /// Stops whatever `setup` started and records end-of-run counters.
    fn finish(&mut self, _tracer: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Checks every output the timed phases produced; one message per
    /// mismatch.
    fn check(&mut self) -> Vec<String>;
}

/// Everything one invocation measured.
pub struct Outcome {
    /// The workload's tail percentile.
    pub tail_percentile: f64,
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// The untraced phase.
    pub plain: Phase,
    /// The traced phase and its spans, in a traced invocation.
    pub traced: Option<(Phase, Tracer)>,
    /// Output-check failures.
    pub check_errors: Vec<String>,
    /// Peak resident set of the process, MiB.
    pub peak_rss_mb: f64,
}

/// Runs workload `W`: set-up [`SETUP_REPEATS`] times, one untraced phase
/// of `seconds` (a traced invocation splits `seconds` between an
/// untraced and a traced phase over the same inputs), then the checks.
pub fn run_workload<W: Workload>(
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(mut previous) = workload.take() {
            W::finish(&mut previous, &mut Tracer::new(false))?;
        }
        let t = Instant::now();
        workload = Some(W::setup(seed, size)?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up ran");
    let (plain, traced) = if trace {
        let plain = w.run(seconds / 2.0, &mut Tracer::new(false))?;
        let mut tracer = Tracer::new(true);
        let traced = w.run(seconds / 2.0, &mut tracer)?;
        w.finish(&mut tracer)?;
        (plain, Some((traced, tracer)))
    } else {
        let plain = w.run(seconds, &mut Tracer::new(false))?;
        w.finish(&mut Tracer::new(false))?;
        (plain, None)
    };
    let check_errors = w.check();
    Ok(Outcome {
        tail_percentile: W::TAIL_PERCENTILE,
        setup_s: stats::median(&setups),
        plain,
        traced,
        check_errors,
        peak_rss_mb: stats::peak_rss_mb().unwrap_or(0.0),
    })
}

/// The starting value of an output digest.
pub const DIGEST_INIT: u64 = 0xCBF2_9CE4_8422_2325;

/// Extends a 64-bit FNV-1a digest with `bytes`.
pub fn digest_update(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3))
}

/// The 64-bit FNV-1a digest of `bytes`.
pub fn digest(bytes: &[u8]) -> u64 {
    digest_update(DIGEST_INIT, bytes)
}
