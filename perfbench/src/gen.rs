//! Seeded input generation. Every input a workload hands the program is
//! built here from the run's seed, as text (trace JSON, engine-config
//! JSON, NDJSON request streams); the program only ever sees that text.
//!
//! The generator is the benchmark's own rather than `eo-lang`'s so that
//! a change to the program cannot silently change the benchmark's
//! inputs: the same seed gives the same bytes at every commit.

use std::fmt::Write as _;

/// SplitMix64: small, seedable, and identical on every platform.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated from neighbouring seeds.
    pub fn new(seed: u64) -> Rng {
        let mut r = Rng(seed ^ 0x6A09_E667_F3BC_C909);
        r.next_u64();
        r
    }

    /// An independent stream derived from this one and a salt, so adding
    /// a draw to one input does not shift every later input.
    pub fn fork(&self, salt: u64) -> Rng {
        Rng::new(self.0 ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        ((self.next_u64() >> 11) as f64) / ((1u64 << 53) as f64) < p
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Synchronization style of a generated program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Style {
    /// Counting semaphores (`P`/`V`), all starting at zero.
    Semaphores,
    /// Event variables (`Post`/`Wait`/`Clear`), all starting clear.
    Events,
}

/// One rung of a shape ladder: the parameters a random program is drawn
/// from.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Synchronization style.
    pub style: Style,
    /// Root processes.
    pub processes: usize,
    /// Statements per process (sync pairs can add a few more).
    pub per_process: usize,
    /// Semaphores or event variables.
    pub objects: usize,
    /// Shared variables.
    pub variables: usize,
    /// Share of statements that synchronize.
    pub sync_density: f64,
    /// Probability that a computation's access is a write.
    pub write_fraction: f64,
}

impl Shape {
    /// A semaphore program of `processes` × `per_process` statements.
    pub fn semaphores(processes: usize, per_process: usize) -> Shape {
        Shape {
            style: Style::Semaphores,
            processes,
            per_process,
            objects: (processes / 2).max(1),
            variables: 2,
            sync_density: 0.5,
            write_fraction: 0.4,
        }
    }

    /// An event-style program with `Clear`s.
    pub fn events(processes: usize, per_process: usize) -> Shape {
        Shape {
            style: Style::Events,
            objects: 2,
            ..Shape::semaphores(processes, per_process)
        }
    }

    /// A race-hunting semaphore program: more variables, more writes.
    pub fn race(processes: usize, per_process: usize) -> Shape {
        Shape {
            variables: 3,
            write_fraction: 0.5,
            objects: 2,
            ..Shape::semaphores(processes, per_process)
        }
    }

    /// Short name, e.g. `sem-6x4`.
    pub fn label(&self, prefix: &str) -> String {
        format!("{prefix}-{}x{}", self.processes, self.per_process)
    }
}

#[derive(Clone, Debug, PartialEq, Eq)]
enum Stmt {
    Compute {
        read: Option<usize>,
        write: Option<usize>,
    },
    P(usize),
    V(usize),
    Post(usize),
    Wait(usize),
    Clear(usize),
}

/// A generated program plus one complete observed schedule of it.
struct Run {
    shape: Shape,
    program: Vec<Vec<Stmt>>,
    /// `(process, statement index)` in observed order.
    order: Vec<(usize, usize)>,
}

fn random_program(shape: &Shape, rng: &mut Rng) -> Vec<Vec<Stmt>> {
    let n = shape.processes;
    let mut procs: Vec<Vec<Stmt>> = vec![Vec::new(); n];
    let budget = ((n * shape.per_process) as f64 * shape.sync_density) as usize;
    let mut emitted = 0;
    // Sync operations come in matched pairs placed in random processes,
    // so every acquire has a release somewhere.
    while emitted + 2 <= budget {
        let o = rng.below(shape.objects);
        match shape.style {
            Style::Semaphores => {
                procs[rng.below(n)].push(Stmt::V(o));
                procs[rng.below(n)].push(Stmt::P(o));
                emitted += 2;
            }
            Style::Events => {
                procs[rng.below(n)].push(Stmt::Post(o));
                procs[rng.below(n)].push(Stmt::Wait(o));
                emitted += 2;
                if rng.chance(0.25) && emitted < budget {
                    procs[rng.below(n)].push(Stmt::Clear(o));
                    emitted += 1;
                }
            }
        }
    }
    for stmts in procs.iter_mut() {
        while stmts.len() < shape.per_process {
            let var = rng.below(shape.variables);
            stmts.push(if rng.chance(shape.write_fraction) {
                Stmt::Compute {
                    read: None,
                    write: Some(var),
                }
            } else {
                Stmt::Compute {
                    read: Some(var),
                    write: None,
                }
            });
        }
        rng.shuffle(stmts);
    }
    procs
}

/// Runs `program` under a random scheduler; `None` when it deadlocks.
fn random_schedule(
    shape: &Shape,
    program: &[Vec<Stmt>],
    rng: &mut Rng,
) -> Option<Vec<(usize, usize)>> {
    let mut next = vec![0usize; program.len()];
    let mut sem = vec![0u32; shape.objects];
    let mut flag = vec![false; shape.objects];
    let total: usize = program.iter().map(Vec::len).sum();
    let mut order = Vec::with_capacity(total);
    let mut enabled = Vec::with_capacity(program.len());
    while order.len() < total {
        enabled.clear();
        for (p, stmts) in program.iter().enumerate() {
            let ready = match stmts.get(next[p]) {
                None => false,
                Some(Stmt::P(s)) => sem[*s] > 0,
                Some(Stmt::Wait(v)) => flag[*v],
                Some(_) => true,
            };
            if ready {
                enabled.push(p);
            }
        }
        if enabled.is_empty() {
            return None;
        }
        let p = enabled[rng.below(enabled.len())];
        match program[p][next[p]] {
            Stmt::P(s) => sem[s] -= 1,
            Stmt::V(s) => sem[s] += 1,
            Stmt::Post(v) => flag[v] = true,
            Stmt::Clear(v) => flag[v] = false,
            Stmt::Compute { .. } | Stmt::Wait(_) => {}
        }
        order.push((p, next[p]));
        next[p] += 1;
    }
    Some(order)
}

fn complete_run(shape: &Shape, rng: &mut Rng) -> Run {
    for _ in 0..1000 {
        let program = random_program(shape, rng);
        for _ in 0..32 {
            if let Some(order) = random_schedule(shape, &program, rng) {
                return Run {
                    shape: *shape,
                    program,
                    order,
                };
            }
        }
    }
    panic!("no completing schedule for {shape:?}: the shape cannot produce a trace");
}

impl Run {
    fn to_json(&self) -> String {
        let (sems, evs) = match self.shape.style {
            Style::Semaphores => (self.shape.objects, 0),
            Style::Events => (0, self.shape.objects),
        };
        let mut out = String::from("{\"events\":[");
        for (id, &(p, i)) in self.order.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let (op, reads, writes, label) = match &self.program[p][i] {
                Stmt::Compute { read, write } => (
                    "\"Compute\"".to_owned(),
                    read.map(|v| v.to_string()).unwrap_or_default(),
                    write.map(|v| v.to_string()).unwrap_or_default(),
                    format!("\"c{p}_{i}\""),
                ),
                Stmt::P(s) => (
                    format!("{{\"SemP\":{s}}}"),
                    String::new(),
                    String::new(),
                    "null".to_owned(),
                ),
                Stmt::V(s) => (
                    format!("{{\"SemV\":{s}}}"),
                    String::new(),
                    String::new(),
                    "null".to_owned(),
                ),
                Stmt::Post(v) => (
                    format!("{{\"Post\":{v}}}"),
                    String::new(),
                    String::new(),
                    "null".to_owned(),
                ),
                Stmt::Wait(v) => (
                    format!("{{\"Wait\":{v}}}"),
                    String::new(),
                    String::new(),
                    "null".to_owned(),
                ),
                Stmt::Clear(v) => (
                    format!("{{\"Clear\":{v}}}"),
                    String::new(),
                    String::new(),
                    "null".to_owned(),
                ),
            };
            let _ = write!(
                out,
                "{{\"id\":{id},\"process\":{p},\"op\":{op},\"reads\":[{reads}],\"writes\":[{writes}],\"label\":{label}}}"
            );
        }
        out.push_str("],\"processes\":[");
        push_list(&mut out, self.program.len(), |o, p| {
            let _ = write!(o, "{{\"name\":\"p{p}\",\"created_by\":null}}");
        });
        out.push_str("],\"semaphores\":[");
        push_list(&mut out, sems, |o, s| {
            let _ = write!(o, "{{\"name\":\"s{s}\",\"initial\":0}}");
        });
        out.push_str("],\"event_vars\":[");
        push_list(&mut out, evs, |o, v| {
            let _ = write!(o, "{{\"name\":\"ev{v}\",\"initially_set\":false}}");
        });
        out.push_str("],\"variables\":[");
        push_list(&mut out, self.shape.variables, |o, v| {
            let _ = write!(o, "{{\"name\":\"x{v}\"}}");
        });
        out.push_str("]}");
        out
    }
}

fn push_list(out: &mut String, n: usize, mut item: impl FnMut(&mut String, usize)) {
    for i in 0..n {
        if i > 0 {
            out.push(',');
        }
        item(out, i);
    }
}

/// A random trace of `shape` as trace JSON, with its event count.
pub fn random_trace(shape: &Shape, rng: &mut Rng) -> (String, usize) {
    let run = complete_run(shape, rng);
    (run.to_json(), run.order.len())
}

/// The pairing-pitfall trace with `decoys` extra `V`s: a writer that
/// writes `x` then `V`s the semaphore, decoy processes that each `V` it
/// too, and a reader that `P`s it and reads `x`. Every `V` could serve
/// the `P`, and all of them hit one semaphore, so the Mazurkiewicz class
/// count grows factorially with `decoys`. The seed draws the process
/// numbering and the observed schedule; the program, and so the work an
/// analysis does, is the same for every seed.
pub fn pitfall_trace(decoys: usize, rng: &mut Rng) -> (String, usize) {
    let mut program = vec![
        vec![
            Stmt::Compute {
                read: None,
                write: Some(0),
            },
            Stmt::V(0),
        ],
        vec![
            Stmt::P(0),
            Stmt::Compute {
                read: Some(0),
                write: None,
            },
        ],
    ];
    program.extend((0..decoys).map(|_| vec![Stmt::V(0)]));
    rng.shuffle(&mut program);
    let shape = Shape {
        style: Style::Semaphores,
        processes: program.len(),
        per_process: 1,
        objects: 1,
        variables: 1,
        sync_density: 0.0,
        write_fraction: 0.0,
    };
    let order =
        random_schedule(&shape, &program, rng).expect("V never blocks, so the pitfall completes");
    let run = Run {
        shape,
        program,
        order,
    };
    (run.to_json(), decoys + 4)
}

/// A visiting order for `groups` (group sizes, items numbered group by
/// group) in which every group is spread evenly, each group's items in a
/// seeded order. Any stretch of the order then holds every group in
/// proportion, so a timed phase that ends mid-pass still sees the whole
/// mix.
fn spread_order(groups: &[usize], rng: &mut Rng) -> Vec<usize> {
    let mut keyed = Vec::new();
    let mut first = 0;
    for (g, &n) in groups.iter().enumerate() {
        let mut items: Vec<usize> = (first..first + n).collect();
        rng.shuffle(&mut items);
        let phase = rng.below(1 << 20) as f64 / f64::from(1 << 20);
        for (k, item) in items.into_iter().enumerate() {
            keyed.push(((k as f64 + phase) / n as f64, g, item));
        }
        first += n;
    }
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, _, item)| item).collect()
}

/// An endless visiting order over grouped items: every pass is a fresh
/// [`spread_order`].
pub struct Cycle {
    groups: Vec<usize>,
    order: Vec<usize>,
    cursor: usize,
    passes: usize,
    rng: Rng,
}

impl Cycle {
    /// Visits items numbered group by group, `groups` giving the sizes.
    pub fn new(groups: Vec<usize>, mut rng: Rng) -> Cycle {
        let order = spread_order(&groups, &mut rng);
        Cycle {
            groups,
            order,
            cursor: 0,
            passes: 0,
            rng,
        }
    }

    /// Passes completed so far.
    pub fn passes(&self) -> usize {
        self.passes
    }
}

impl Iterator for Cycle {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.cursor == self.order.len() {
            self.order = spread_order(&self.groups, &mut self.rng);
            self.cursor = 0;
        }
        self.cursor += 1;
        if self.cursor == self.order.len() {
            self.passes += 1;
        }
        self.order.get(self.cursor - 1).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_bytes_and_traces_parse() {
        for shape in [
            Shape::semaphores(5, 4),
            Shape::events(4, 4),
            Shape::race(5, 4),
        ] {
            let a = random_trace(&shape, &mut Rng::new(7));
            let b = random_trace(&shape, &mut Rng::new(7));
            assert_eq!(a, b);
            let trace = eo_model::Trace::from_json(&a.0).expect("generated traces are valid");
            assert_eq!(trace.n_events(), a.1);
        }
        for decoys in [1, 4] {
            let (json, n) = pitfall_trace(decoys, &mut Rng::new(decoys as u64));
            let trace = eo_model::Trace::from_json(&json).expect("pitfall trace is valid");
            assert_eq!(trace.n_events(), n);
        }
    }

    #[test]
    fn spread_order_visits_everything_once_and_evenly() {
        let order = spread_order(&[8, 2, 4], &mut Rng::new(3));
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..14).collect::<Vec<_>>());
        // Each half of the order holds half of every group.
        let first_half = &order[..7];
        assert_eq!(first_half.iter().filter(|&&i| i < 8).count(), 4);
        assert_eq!(
            first_half.iter().filter(|&&i| (8..10).contains(&i)).count(),
            1
        );
    }
}
