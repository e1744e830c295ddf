//! The recording layer: span guards, counters, gauges, per-thread buffers.
//!
//! Design constraints (DESIGN.md §9):
//!
//! - **Zero cost when disabled.** Without the `enabled` cargo feature every
//!   entry point below is an empty `#[inline(always)]` function and
//!   [`SpanGuard`] is a unit type with no `Drop` impl, so instrumented code
//!   compiles to exactly what it would be with the probes deleted.
//! - **Lock-free recording.** With the feature on, events go into a
//!   thread-local `Vec` — no atomics or locks on the hot path beyond one
//!   relaxed load of the global "recording" flag. A thread's buffer is
//!   flushed into a global sink by its thread-local destructor, which runs
//!   after the thread's closure returns; the calling thread is flushed
//!   explicitly by [`finish`]. So a worker's records reach [`finish`] once
//!   its handle has been joined. A `std::thread::scope` alone does not
//!   guarantee this: its implicit wait can end before the destructors
//!   run, which is why the engine's worker pool joins every handle.
//! - **Run-scoped.** [`start`] clears the sink and arms recording;
//!   [`finish`] disarms it and returns everything recorded in between.

/// One raw event as recorded on some thread, in program order.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span was opened.
    Begin {
        /// Static span name, e.g. `"engine.build_graph"`.
        name: &'static str,
        /// Microseconds since the process-wide recording epoch.
        t_us: u64,
    },
    /// The innermost open span on this thread was closed.
    End {
        /// Microseconds since the process-wide recording epoch.
        t_us: u64,
    },
    /// A monotonically accumulating count (summed across threads).
    Counter {
        /// Metric name, e.g. `"engine.states_interned"`.
        name: &'static str,
        /// Amount to add.
        delta: u64,
    },
    /// A point-in-time integer measurement (last write wins).
    GaugeI {
        /// Metric name.
        name: &'static str,
        /// Recorded value.
        value: i64,
    },
    /// A point-in-time float measurement (last write wins).
    GaugeF {
        /// Metric name.
        name: &'static str,
        /// Recorded value.
        value: f64,
    },
    /// A point-in-time string measurement (last write wins).
    GaugeS {
        /// Metric name.
        name: &'static str,
        /// Recorded value.
        value: String,
    },
}

/// All events recorded by a single thread, in recording order.
#[derive(Debug, Clone, Default)]
pub struct ThreadLog {
    /// Dense id assigned at first recording on the thread.
    pub tid: u64,
    /// The thread's events in program order.
    pub events: Vec<Event>,
}

/// Everything recorded between [`start`] and [`finish`].
#[derive(Debug, Clone, Default)]
pub struct RunData {
    /// Per-thread logs, sorted by `tid` for determinism.
    pub threads: Vec<ThreadLog>,
}

#[cfg(feature = "enabled")]
mod imp {
    use super::{Event, ThreadLog};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
    use std::sync::{Mutex, OnceLock};
    use std::time::Instant;

    pub(super) static RECORDING: AtomicBool = AtomicBool::new(false);
    static NEXT_TID: AtomicU64 = AtomicU64::new(0);
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    static SINK: Mutex<Vec<ThreadLog>> = Mutex::new(Vec::new());

    struct LocalBuf {
        tid: u64,
        events: Vec<Event>,
    }

    impl Drop for LocalBuf {
        fn drop(&mut self) {
            flush_into_sink(self.tid, &mut self.events);
        }
    }

    fn flush_into_sink(tid: u64, events: &mut Vec<Event>) {
        if events.is_empty() {
            return;
        }
        let events = std::mem::take(events);
        // A poisoned sink only loses telemetry, never affects the engine.
        if let Ok(mut sink) = SINK.lock() {
            sink.push(ThreadLog { tid, events });
        }
    }

    thread_local! {
        static LOCAL: RefCell<LocalBuf> = RefCell::new(LocalBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            events: Vec::new(),
        });
    }

    pub(super) fn now_us() -> u64 {
        EPOCH.get_or_init(Instant::now).elapsed().as_micros() as u64
    }

    pub(super) fn push(ev: Event) {
        // try_with: during thread teardown the TLS slot may already be gone;
        // dropping the event is the only sound option then.
        let _ = LOCAL.try_with(|buf| buf.borrow_mut().events.push(ev));
    }

    pub(super) fn begin_run() {
        // Pin the epoch before arming so the first event never precedes it.
        let _ = EPOCH.get_or_init(Instant::now);
        if let Ok(mut sink) = SINK.lock() {
            sink.clear();
        }
        // Discard anything buffered on this thread from before the run.
        let _ = LOCAL.try_with(|buf| buf.borrow_mut().events.clear());
        RECORDING.store(true, Ordering::SeqCst);
    }

    pub(super) fn end_run() -> Vec<ThreadLog> {
        RECORDING.store(false, Ordering::SeqCst);
        let _ = LOCAL.try_with(|buf| {
            let mut buf = buf.borrow_mut();
            let tid = buf.tid;
            flush_into_sink(tid, &mut buf.events);
        });
        let mut threads = SINK
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default();
        threads.sort_by_key(|t| t.tid);
        threads
    }
}

// ---------------------------------------------------------------------------
// Public API, `enabled` build.
// ---------------------------------------------------------------------------

/// RAII guard closing a span when dropped. Created by [`span`].
#[cfg(feature = "enabled")]
#[must_use = "dropping the guard immediately records an empty span"]
pub struct SpanGuard {
    active: bool,
}

#[cfg(feature = "enabled")]
impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            imp::push(Event::End {
                t_us: imp::now_us(),
            });
        }
    }
}

#[cfg(feature = "enabled")]
impl SpanGuard {
    /// Closes the span now, before the end of scope (consumes the guard).
    pub fn end(self) {}
}

/// Whether a recording run is currently active.
///
/// Instrumentation sites use this to skip *computing* a metric whose
/// computation itself is not free (e.g. an O(states) scan).
#[cfg(feature = "enabled")]
#[inline]
pub fn recording() -> bool {
    imp::RECORDING.load(std::sync::atomic::Ordering::Relaxed)
}

/// Starts a recording run: clears the sink and arms event capture.
#[cfg(feature = "enabled")]
pub fn start() {
    imp::begin_run();
}

/// Stops the current run and returns everything recorded since [`start`].
///
/// Flushes the calling thread's buffer; other threads contribute their
/// buffers as they exit. A worker's records are included once its handle
/// has been joined (the engine's worker pool joins every handle before it
/// returns); an unjoined scoped thread may still be flushing.
#[cfg(feature = "enabled")]
pub fn finish() -> RunData {
    RunData {
        threads: imp::end_run(),
    }
}

/// Opens a span named `name`; the span closes when the guard drops.
#[cfg(feature = "enabled")]
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    if !recording() {
        return SpanGuard { active: false };
    }
    imp::push(Event::Begin {
        name,
        t_us: imp::now_us(),
    });
    SpanGuard { active: true }
}

/// Adds `delta` to the counter `name` (summed across all threads).
#[cfg(feature = "enabled")]
#[inline]
pub fn counter(name: &'static str, delta: u64) {
    if recording() {
        imp::push(Event::Counter { name, delta });
    }
}

/// Records an integer gauge (last write wins).
#[cfg(feature = "enabled")]
#[inline]
pub fn gauge(name: &'static str, value: i64) {
    if recording() {
        imp::push(Event::GaugeI { name, value });
    }
}

/// Records a float gauge (last write wins).
#[cfg(feature = "enabled")]
#[inline]
pub fn gauge_f64(name: &'static str, value: f64) {
    if recording() {
        imp::push(Event::GaugeF { name, value });
    }
}

/// Records a string gauge (last write wins).
#[cfg(feature = "enabled")]
#[inline]
pub fn gauge_str(name: &'static str, value: &str) {
    if recording() {
        imp::push(Event::GaugeS {
            name,
            value: value.to_owned(),
        });
    }
}

// ---------------------------------------------------------------------------
// Public API, disabled build: every function is an inlineable no-op and the
// guard has no `Drop` impl, so instrumentation vanishes entirely.
// ---------------------------------------------------------------------------

/// RAII guard closing a span when dropped (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[must_use = "binding the guard gives the span its extent"]
pub struct SpanGuard;

#[cfg(not(feature = "enabled"))]
impl SpanGuard {
    /// Closes the span now (no-op: `enabled` is off).
    #[inline(always)]
    pub fn end(self) {}
}

/// Whether a recording run is currently active (always `false` here).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn recording() -> bool {
    false
}

/// Starts a recording run (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn start() {}

/// Stops the current run (no-op: `enabled` is off; always empty).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn finish() -> RunData {
    RunData::default()
}

/// Opens a span (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn span(_name: &'static str) -> SpanGuard {
    SpanGuard
}

/// Adds to a counter (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn counter(_name: &'static str, _delta: u64) {}

/// Records an integer gauge (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn gauge(_name: &'static str, _value: i64) {}

/// Records a float gauge (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn gauge_f64(_name: &'static str, _value: f64) {}

/// Records a string gauge (no-op: `enabled` is off).
#[cfg(not(feature = "enabled"))]
#[inline(always)]
pub fn gauge_str(_name: &'static str, _value: &str) {}
