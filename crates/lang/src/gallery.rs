//! The surface-primitive fixture gallery.
//!
//! Small, named programs — one per new primitive family plus one
//! deliberate misuse — whose `eo analyze`/`eo mhp`/`eo lint` output is
//! golden-pinned under `testdata/gallery/` (see
//! `tests/fixture_gallery.rs`). Each is built with [`ProgramBuilder`],
//! so the gallery doubles as the builder's surface-primitive examples.

use crate::ast::Program;
use crate::builder::ProgramBuilder;

/// Names of every gallery fixture, in presentation order.
pub fn names() -> Vec<&'static str> {
    gallery().into_iter().map(|(n, _)| n).collect()
}

/// The whole gallery: `(name, program)` pairs.
pub fn gallery() -> Vec<(&'static str, Program)> {
    vec![
        ("barrier-pipeline", barrier_pipeline()),
        ("monitor-handoff", monitor_handoff()),
        ("channel-pipeline", channel_pipeline()),
        ("channel-starved", channel_starved()),
    ]
}

/// Looks up one fixture by name.
pub fn fixture(name: &str) -> Option<Program> {
    gallery()
        .into_iter()
        .find(|(n, _)| *n == name)
        .map(|(_, p)| p)
}

/// Three workers produce into per-worker slots, cross a barrier, then
/// each reads its neighbour's slot. The phase-1 writes and phase-2
/// reads conflict on the same variables, but the barrier orders them:
/// MHP proves every cross-phase pair never-concurrent, so the program
/// is race-free *because of* the barrier.
pub fn barrier_pipeline() -> Program {
    let mut b = ProgramBuilder::new();
    let bar = b.barrier("phase", 3);
    let slots = [b.variable("x0"), b.variable("x1"), b.variable("x2")];
    for i in 0..3usize {
        let w = b.process(&format!("w{i}"));
        b.compute_rw(w, &[], &[slots[i]], &format!("produce{i}"))
            .barrier_wait(w, bar)
            .compute_rw(w, &[slots[(i + 1) % 3]], &[], &format!("consume{i}"));
    }
    b.build()
}

/// A one-slot handoff through a mutex + condvar: the producer fills
/// `data` and signals; the consumer waits, then drains. The signal/wait
/// edge (not the lock) is what orders `fill` before `drain`.
pub fn monitor_handoff() -> Program {
    let mut b = ProgramBuilder::new();
    let m = b.mutex("m");
    let ready = b.condvar("ready");
    let data = b.variable("data");
    let producer = b.process("producer");
    b.compute_rw(producer, &[], &[data], "fill")
        .lock(producer, m)
        .cond_signal(producer, ready)
        .unlock(producer, m);
    let consumer = b.process("consumer");
    b.lock(consumer, m)
        .cond_wait(consumer, ready, m)
        .unlock(consumer, m)
        .compute_rw(consumer, &[data], &[], "drain");
    b.build()
}

/// A producer/consumer pair over a bounded channel of capacity 1: the
/// send publishes `item`, the recv orders `consume` after `produce`,
/// and the producer's trailing `next` stays concurrent with the
/// consumer.
pub fn channel_pipeline() -> Program {
    let mut b = ProgramBuilder::new();
    let ch = b.channel("ch", 1);
    let item = b.variable("item");
    let producer = b.process("producer");
    b.compute_rw(producer, &[], &[item], "produce")
        .send(producer, ch)
        .compute(producer, "next");
    let consumer = b.process("consumer");
    b.recv(consumer, ch)
        .compute_rw(consumer, &[item], &[], "consume");
    b.build()
}

/// Deliberate misuse for the lint gallery: a channel that is received
/// on but never sent to. `eo lint` flags it EO-L013 (error) — the
/// second receive can never be satisfied and the consumer wedges.
pub fn channel_starved() -> Program {
    let mut b = ProgramBuilder::new();
    let ch = b.channel("ch", 1);
    let dead = b.channel("dead", 1);
    let producer = b.process("producer");
    b.compute(producer, "work").send(producer, ch);
    let consumer = b.process("consumer");
    b.recv(consumer, ch)
        .recv(consumer, dead)
        .compute(consumer, "never");
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fixture_desugars_and_the_clean_ones_complete() {
        for (name, program) in gallery() {
            let d = crate::desugar(&program).unwrap_or_else(|e| panic!("{name}: {e}"));
            if name == "channel-starved" {
                continue; // wedges by design
            }
            let mut sched = crate::Scheduler::round_robin();
            crate::run_to_trace(&d.program, &mut sched)
                .unwrap_or_else(|e| panic!("{name} must complete: {e:?}"));
        }
    }

    #[test]
    fn lookup_matches_the_gallery() {
        for name in names() {
            assert!(fixture(name).is_some(), "{name}");
        }
        assert!(fixture("no-such").is_none());
    }
}
