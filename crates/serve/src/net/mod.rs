//! `eo-server`: fault-tolerant network serving over
//! [`AnalysisSession`](crate::AnalysisSession)s.
//!
//! A single-threaded nonblocking reactor (plain `std::net`, no runtime
//! dependency) owns the listener and every connection; per-program worker
//! threads own the sessions (see the `store` submodule). The division of labor is
//! strict: the reactor does framing, admission, routing, backpressure,
//! and timeouts — never analysis; workers do analysis — never I/O. One
//! slow query therefore cannot stall the event loop, and one dead
//! connection cannot corrupt a session.
//!
//! # Wire protocol
//!
//! Frames are `<decimal-length>:<json>\n` (see the `frame` submodule). A
//! connection
//! first sends `{"op": "open", "program": "<trace json>"}` to attach to a
//! program, then streams ordinary `eo serve` request documents; query
//! responses are rendered by the *same* code path as `eo serve`, which is
//! what makes a network replay byte-identical to a batch run. Control
//! responses (`open`, `ping`) and the structured `overloaded` rejection
//! (`retry_after_ms` tells the client when to try again) are this
//! module's own vocabulary, all documents stamped with the current `SCHEMA_VERSION`.
//!
//! # Robustness contract
//!
//! * A malformed frame, unparseable JSON, unknown op, or oversized
//!   program is a *per-request* error response — never a dropped
//!   connection, never a dead process.
//! * Admission control rejects up front (`overloaded` + `retry_after_ms`)
//!   instead of queueing unboundedly: per-tenant and global in-flight
//!   quotas, plus a bounded LRU session store.
//! * Write queues are bounded by shedding droppable frames only
//!   (rejections and malformed-frame errors); owed responses are never
//!   shed, and a partially-written frame is never torn.
//! * Slowloris readers and writers are killed by read/write/idle
//!   timeouts; their in-flight work is cancelled through each request's
//!   [`Budget`] cancel handle.
//! * On drain (SIGTERM bridged via [`ServerHandle::drain`]): stop
//!   accepting, stop reading, finish in-flight work — or degrade it by
//!   cancelling budgets at the drain deadline — flush every owed byte,
//!   and return cleanly so the process can exit 0.

mod conn;
mod frame;
mod store;

pub mod client;

pub use client::NetClient;
pub use frame::{encode, FrameDecoder, FrameEvent};

use crate::protocol::{render_doc, render_error_at};
use crate::server::Disposition;
use crate::session::SessionConfig;
use conn::{Conn, ReadOutcome};
use eo_engine::{Budget, CancelHandle};
use eo_obs::json::{self, Value};
use std::collections::HashMap;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Receiver;
use std::sync::Arc;
use std::time::{Duration, Instant};
use store::{Completion, Job, OpenOutcome, SessionStore};

/// Everything tunable about the server. The defaults suit an interactive
/// deployment; the tests and the load harness shrink the timeouts.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `127.0.0.1:0` picks a free port.
    pub addr: String,
    /// Per-program session configuration (cache, prefilter, engine).
    pub session: SessionConfig,
    /// Resident-program cap for the LRU session store.
    pub max_programs: usize,
    /// Concurrent-connection cap; excess connects get one best-effort
    /// `overloaded` frame and are refused.
    pub max_conns: usize,
    /// Largest accepted frame payload in bytes (bounds read buffering).
    pub max_frame: usize,
    /// Per-connection in-flight request cap — beyond it the reactor stops
    /// reading that connection (TCP backpressure, not rejection).
    pub per_conn_inflight: usize,
    /// Per-program in-flight quota; beyond it requests are rejected with
    /// `overloaded` (one tenant cannot starve the rest).
    pub per_tenant_inflight: usize,
    /// Server-wide in-flight cap, the final admission gate.
    pub global_inflight: usize,
    /// Write-queue length (frames) above which droppable frames are shed.
    pub max_write_queue: usize,
    /// Queued unwritten bytes above which the reactor stops reading the
    /// connection.
    pub write_high_watermark: usize,
    /// Wall-clock deadline for each routed request's [`Budget`].
    pub query_deadline_ms: u64,
    /// A partial frame older than this kills the connection (slowloris).
    pub read_timeout: Duration,
    /// A non-empty write queue making no progress for this long kills the
    /// connection (stalled reader).
    pub write_timeout: Duration,
    /// A fully idle connection older than this is closed.
    pub idle_timeout: Duration,
    /// How long drain waits for in-flight work before cancelling it.
    pub drain_deadline: Duration,
    /// Extra window after cancellation for degraded responses to land.
    pub drain_grace: Duration,
    /// The `retry_after_ms` hint carried by `overloaded` responses.
    pub retry_after_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            session: SessionConfig::default(),
            max_programs: 8,
            max_conns: 256,
            max_frame: 4 << 20,
            per_conn_inflight: 256,
            per_tenant_inflight: 512,
            global_inflight: 2048,
            max_write_queue: 1024,
            write_high_watermark: 4 << 20,
            query_deadline_ms: 10_000,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            idle_timeout: Duration::from_secs(60),
            drain_deadline: Duration::from_secs(5),
            drain_grace: Duration::from_secs(2),
            retry_after_ms: 50,
        }
    }
}

/// What one server run did, returned by [`Server::run`] after drain and
/// also published as `server.*` observability counters.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServerReport {
    /// Connections accepted.
    pub accepted: u64,
    /// Connections refused at the connection cap.
    pub refused_conns: u64,
    /// Frames decoded (well-formed and bad).
    pub frames: u64,
    /// Malformed frames (each answered with one droppable error).
    pub bad_frames: u64,
    /// Requests routed to session workers.
    pub requests: u64,
    /// Worker responses delivered to a still-open connection's queue.
    pub responses: u64,
    /// Exact answers among delivered responses.
    pub exact: u64,
    /// Budget-degraded answers among delivered responses.
    pub degraded: u64,
    /// Error answers (malformed requests, worker panics) delivered.
    pub errors: u64,
    /// Requests rejected up front with `overloaded`.
    pub rejected: u64,
    /// Droppable frames shed from over-watermark write queues.
    pub shed: u64,
    /// Connections killed by read/write/idle timeouts.
    pub timeout_kills: u64,
    /// Worker sessions rebuilt after a panic.
    pub sessions_rebuilt: u64,
    /// Idle sessions evicted by LRU pressure.
    pub evictions: u64,
    /// Completions whose connection had already gone away.
    pub orphaned: u64,
    /// Drain finished every in-flight request and flushed every owed
    /// frame before the hard deadline.
    pub drained_clean: bool,
}

/// A clonable handle that asks a running server to drain and stop. This
/// is the bridge the binary ties to SIGTERM/SIGINT.
#[derive(Clone, Debug, Default)]
pub struct ServerHandle {
    drain: Arc<AtomicBool>,
}

impl ServerHandle {
    /// Begins graceful drain: stop accepting and reading, finish (or at
    /// the deadline, degrade) in-flight work, flush, and return.
    pub fn drain(&self) {
        self.drain.store(true, Ordering::Relaxed);
    }

    /// Whether drain has been requested.
    pub fn is_draining(&self) -> bool {
        self.drain.load(Ordering::Relaxed)
    }
}

/// A bound-but-not-yet-running server. Binding is separate from running
/// so callers can learn the OS-assigned port before blocking.
pub struct Server {
    listener: TcpListener,
    config: ServerConfig,
    handle: ServerHandle,
}

impl Server {
    /// Binds the listener (nonblocking) without serving yet.
    pub fn bind(config: ServerConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        Ok(Server {
            listener,
            config,
            handle: ServerHandle::default(),
        })
    }

    /// The bound address (port resolved).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The drain handle to trigger graceful shutdown from another thread
    /// or a signal watcher.
    pub fn handle(&self) -> ServerHandle {
        self.handle.clone()
    }

    /// Serves until drained. Blocks the calling thread; run it on a
    /// dedicated thread when the caller needs to stay responsive.
    pub fn run(self) -> ServerReport {
        let (tx, rx) = std::sync::mpsc::channel::<Completion>();
        let store = SessionStore::new(self.config.max_programs, self.config.session.clone(), tx);
        let mut reactor = Reactor {
            listener: Some(self.listener),
            config: self.config,
            handle: self.handle,
            conns: HashMap::new(),
            next_conn_id: 0,
            store,
            completions: rx,
            inflight_cancels: HashMap::new(),
            global_inflight: 0,
            report: ServerReport::default(),
        };
        reactor.run()
    }
}

struct Reactor {
    listener: Option<TcpListener>,
    config: ServerConfig,
    handle: ServerHandle,
    conns: HashMap<u64, Conn>,
    next_conn_id: u64,
    store: SessionStore,
    completions: Receiver<Completion>,
    /// Cancel handle of every routed-but-unanswered request, keyed by
    /// (connection, frame sequence): drain and dead-connection cleanup
    /// cancel through these.
    inflight_cancels: HashMap<(u64, usize), CancelHandle>,
    global_inflight: usize,
    report: ServerReport,
}

enum Phase {
    Serving,
    Draining { since: Instant, cancelled: bool },
}

impl Reactor {
    fn run(&mut self) -> ServerReport {
        let mut phase = Phase::Serving;
        let mut buf = vec![0u8; 16 * 1024];
        loop {
            let now = Instant::now();
            let mut progress = false;

            if matches!(phase, Phase::Serving) && self.handle.is_draining() {
                // Drain step 1: close the listener — new connects are
                // refused by the OS from this instant.
                self.listener = None;
                phase = Phase::Draining {
                    since: now,
                    cancelled: false,
                };
            }

            progress |= self.sweep_accept(now);
            progress |= self.pump_completions();
            if matches!(phase, Phase::Serving) {
                // Drain step 2 is implicit: draining stops reading, so no
                // new requests are admitted while owed ones finish.
                progress |= self.sweep_reads(&mut buf, now);
            }
            progress |= self.sweep_writes(now);
            self.sweep_timeouts(now, matches!(phase, Phase::Serving));

            if let Phase::Draining {
                since,
                ref mut cancelled,
            } = phase
            {
                let flushed = self.conns.values().all(Conn::is_flushed);
                if self.global_inflight == 0 && flushed {
                    self.report.drained_clean = true;
                    break;
                }
                let elapsed = now.saturating_duration_since(since);
                if !*cancelled && elapsed >= self.config.drain_deadline {
                    // Drain step 3: past the deadline, degrade what's
                    // left — every in-flight budget is cancelled, so
                    // workers answer `degraded` promptly instead of
                    // holding the process open.
                    for handle in self.inflight_cancels.values() {
                        handle.cancel();
                    }
                    *cancelled = true;
                }
                if elapsed >= self.config.drain_deadline + self.config.drain_grace {
                    self.report.drained_clean = false;
                    break;
                }
            }

            if !progress {
                std::thread::sleep(Duration::from_micros(300));
            }
        }
        // Connections drop here (sockets close after the flush above);
        // workers are then hung up on and joined.
        self.conns.clear();
        self.store.shutdown();
        while self.completions.try_recv().is_ok() {
            self.report.orphaned += 1;
        }
        self.report.evictions = self.store.evictions;
        self.publish_obs();
        self.report.clone()
    }

    fn sweep_accept(&mut self, now: Instant) -> bool {
        let mut progress = false;
        while let Some(listener) = &self.listener {
            match listener.accept() {
                Ok((stream, _)) => {
                    progress = true;
                    if self.conns.len() >= self.config.max_conns {
                        self.report.refused_conns += 1;
                        // Best-effort structured refusal, then close.
                        let _ = stream.set_nonblocking(true);
                        let doc = render_overloaded(&None, "connect", self.config.retry_after_ms);
                        let mut stream = stream;
                        let _ = stream.write(&frame::encode(&doc));
                        continue;
                    }
                    self.report.accepted += 1;
                    let _ = stream.set_nodelay(true);
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let id = self.next_conn_id;
                    self.next_conn_id += 1;
                    self.conns
                        .insert(id, Conn::new(stream, self.config.max_frame, now));
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(_) => break, // transient accept errors: retry next sweep
            }
        }
        progress
    }

    fn pump_completions(&mut self) -> bool {
        let mut progress = false;
        while let Ok(c) = self.completions.try_recv() {
            progress = true;
            self.store.complete(c.fingerprint);
            self.global_inflight = self.global_inflight.saturating_sub(1);
            self.inflight_cancels.remove(&(c.conn_id, c.seq));
            if c.rebuilt {
                self.report.sessions_rebuilt += 1;
            }
            match c.disposition {
                Disposition::Exact => self.report.exact += 1,
                Disposition::Degraded => self.report.degraded += 1,
                Disposition::Error => self.report.errors += 1,
            }
            match self.conns.get_mut(&c.conn_id) {
                None => self.report.orphaned += 1,
                Some(conn) => {
                    conn.inflight = conn.inflight.saturating_sub(1);
                    self.report.responses += 1;
                    // Owed: a routed request's answer is never shed.
                    self.report.shed += conn.enqueue(
                        frame::encode(&c.rendered),
                        false,
                        self.config.max_write_queue,
                    );
                }
            }
        }
        progress
    }

    fn sweep_reads(&mut self, buf: &mut [u8], now: Instant) -> bool {
        let mut progress = false;
        let ids: Vec<u64> = self.conns.keys().copied().collect();
        for id in ids {
            let Some(mut conn) = self.conns.remove(&id) else {
                continue;
            };
            let mut alive = true;
            let backpressured = |c: &Conn, cfg: &ServerConfig| {
                c.backpressured(cfg.per_conn_inflight, cfg.write_high_watermark)
            };
            if !conn.read_closed && !backpressured(&conn, &self.config) {
                // A few reads per sweep per connection: drains fast
                // senders without starving the rest of the loop.
                for _ in 0..4 {
                    match conn.read_some(buf, now) {
                        Ok(ReadOutcome::Data) => {
                            progress = true;
                            while let Some(event) = conn.decoder.next_event() {
                                if matches!(event, FrameEvent::Frame(_)) {
                                    conn.last_frame = now;
                                }
                                self.handle_event(id, &mut conn, event);
                            }
                            if backpressured(&conn, &self.config) {
                                break;
                            }
                        }
                        Ok(ReadOutcome::Closed) => {
                            progress = true;
                            conn.read_closed = true;
                            break;
                        }
                        Ok(ReadOutcome::WouldBlock) => break,
                        Err(_) => {
                            alive = false;
                            break;
                        }
                    }
                }
            }
            if !alive || (conn.read_closed && conn.inflight == 0 && conn.is_flushed()) {
                self.retire_conn(id, &mut conn);
            } else {
                self.conns.insert(id, conn);
            }
        }
        progress
    }

    fn sweep_writes(&mut self, now: Instant) -> bool {
        let mut progress = false;
        let mut dead: Vec<u64> = Vec::new();
        for (&id, conn) in self.conns.iter_mut() {
            match conn.flush(now) {
                Ok(p) => {
                    progress |= p;
                    if conn.read_closed && conn.inflight == 0 && conn.is_flushed() {
                        dead.push(id);
                    }
                }
                Err(_) => dead.push(id),
            }
        }
        for id in dead {
            if let Some(mut conn) = self.conns.remove(&id) {
                self.retire_conn(id, &mut conn);
            }
        }
        progress
    }

    /// `reading` is whether the reactor is in its serving phase at all
    /// (drain stops reading every connection).
    fn sweep_timeouts(&mut self, now: Instant, reading: bool) {
        let cfg = &self.config;
        let (read_timeout, write_timeout, idle_timeout) =
            (cfg.read_timeout, cfg.write_timeout, cfg.idle_timeout);
        let (per_conn_inflight, write_high_watermark) =
            (cfg.per_conn_inflight, cfg.write_high_watermark);
        let mut expired: Vec<u64> = Vec::new();
        for (&id, c) in self.conns.iter_mut() {
            let since = |t: Instant| now.saturating_duration_since(t);
            let stalled_writer = !c.is_flushed() && since(c.last_write) > write_timeout;
            // The slowloris clock only runs while the reactor is actually
            // willing to read this connection. While *we* are the ones not
            // reading — backpressure, drain, or a half-closed peer — a
            // buffered partial frame is not the client's fault, so the
            // clock is reset instead: once reading resumes the client gets
            // a full fresh `read_timeout` window to finish the frame.
            let willing = reading
                && !c.read_closed
                && !c.backpressured(per_conn_inflight, write_high_watermark);
            let slowloris = if willing {
                c.decoder.buffered() > 0 && since(c.last_frame) > read_timeout
            } else {
                c.last_frame = now;
                false
            };
            let idle = c.is_flushed()
                && c.inflight == 0
                && c.decoder.buffered() == 0
                && since(c.last_read) > idle_timeout;
            if stalled_writer || slowloris || idle {
                expired.push(id);
            }
        }
        for id in expired {
            if let Some(mut conn) = self.conns.remove(&id) {
                self.report.timeout_kills += 1;
                self.retire_conn(id, &mut conn);
            }
        }
    }

    /// Final bookkeeping for a connection leaving the map: release its
    /// program attachment and cancel its in-flight work (a gone client's
    /// answers are pure waste — cancelling frees worker time for live
    /// ones; the orphaned completions are counted and dropped).
    fn retire_conn(&mut self, id: u64, conn: &mut Conn) {
        if let Some(fp) = conn.attached.take() {
            self.store.detach(fp);
        }
        for (key, handle) in &self.inflight_cancels {
            if key.0 == id {
                handle.cancel();
            }
        }
    }

    fn handle_event(&mut self, conn_id: u64, conn: &mut Conn, event: FrameEvent) {
        conn.frames_seen += 1;
        let seq = conn.frames_seen;
        self.report.frames += 1;
        match event {
            FrameEvent::Bad(reason) => {
                self.report.bad_frames += 1;
                // Droppable: the sender already broke framing; the error
                // is a courtesy, not a debt.
                let doc = render_error_at(&None, &reason, Some(seq));
                self.enqueue(conn, &doc, true);
            }
            FrameEvent::Frame(payload) => {
                let value = match json::parse(&payload) {
                    Ok(v) => v,
                    Err(e) => {
                        // Same wording as `eo serve` on a bad NDJSON line
                        // (the byte-parity contract covers errors too).
                        let doc = render_error_at(
                            &None,
                            &format!("invalid request JSON: {e}"),
                            Some(seq),
                        );
                        self.enqueue(conn, &doc, false);
                        return;
                    }
                };
                match value.get("op").and_then(Value::as_str) {
                    Some("ping") => {
                        let doc = render_doc(&value.get("id").cloned(), "ping", "ok", |_| {});
                        self.enqueue(conn, &doc, false);
                    }
                    Some("open") => self.handle_open(conn, &value, seq),
                    _ => self.handle_query(conn_id, conn, value, seq),
                }
            }
        }
    }

    fn handle_open(&mut self, conn: &mut Conn, value: &Value, seq: usize) {
        let id = value.get("id").cloned();
        let Some(text) = value.get("program").and_then(Value::as_str) else {
            let doc = render_error_at(
                &id,
                "open needs the program trace JSON (as a string) in \"program\"",
                Some(seq),
            );
            self.enqueue(conn, &doc, false);
            return;
        };
        // Parsing/validating happens inline on the reactor: it is linear
        // in the frame size, which `max_frame` already bounds.
        let text = text.to_owned();
        match self.store.open(&text) {
            OpenOutcome::Invalid(message) => {
                let doc = render_error_at(&id, &message, Some(seq));
                self.enqueue(conn, &doc, false);
            }
            OpenOutcome::Rejected => {
                self.report.rejected += 1;
                let doc = render_overloaded(&id, "open", self.config.retry_after_ms);
                self.enqueue(conn, &doc, true);
            }
            OpenOutcome::Opened {
                fingerprint,
                events,
                fresh,
            } => {
                if let Some(old) = conn.attached.take() {
                    self.store.detach(old);
                }
                conn.attached = Some(fingerprint);
                let doc = render_doc(&id, "open", "ok", |doc| {
                    doc.str("program", &format!("{fingerprint:016x}"))
                        .int("events", events as i64)
                        .bool("fresh", fresh);
                });
                self.enqueue(conn, &doc, false);
            }
        }
    }

    fn handle_query(&mut self, conn_id: u64, conn: &mut Conn, value: Value, seq: usize) {
        let id = value.get("id").cloned();
        let Some(fp) = conn.attached else {
            let doc = render_error_at(
                &id,
                "no program opened on this connection (send an \"open\" frame first)",
                Some(seq),
            );
            self.enqueue(conn, &doc, false);
            return;
        };
        let op = value
            .get("op")
            .and_then(Value::as_str)
            .unwrap_or("request")
            .to_owned();
        if self.global_inflight >= self.config.global_inflight
            || self.store.inflight(fp) >= self.config.per_tenant_inflight
        {
            // Admission control proper: reject before any work happens.
            self.report.rejected += 1;
            let doc = render_overloaded(&id, &op, self.config.retry_after_ms);
            self.enqueue(conn, &doc, true);
            return;
        }
        // A fresh budget per request, renewed from the operator's
        // configured caps (`--max-mem`/`--max-states` must bound network
        // queries exactly as they bound `eo serve`): `renewed` keeps the
        // caps but gives this request its own deadline clock — started
        // now, because queue wait is latency the client experiences — and
        // its own cancel handle, which stays with the reactor for
        // drain/cleanup without being able to cancel anyone else's work.
        let budget = self
            .config
            .session
            .engine
            .budget
            .as_ref()
            .map_or_else(Budget::unlimited, Budget::renewed)
            .with_deadline_ms(self.config.query_deadline_ms);
        let cancel = budget.cancel_handle();
        let routed = self.store.submit(
            fp,
            Job {
                conn_id,
                seq,
                request: value,
                budget,
            },
        );
        if routed {
            conn.inflight += 1;
            self.global_inflight += 1;
            self.report.requests += 1;
            self.inflight_cancels.insert((conn_id, seq), cancel);
        } else {
            let doc = render_error_at(
                &id,
                "session worker unavailable; re-send \"open\" to rebuild it",
                Some(seq),
            );
            self.enqueue(conn, &doc, false);
        }
    }

    fn enqueue(&mut self, conn: &mut Conn, doc: &str, droppable: bool) {
        self.report.shed +=
            conn.enqueue(frame::encode(doc), droppable, self.config.max_write_queue);
    }

    fn publish_obs(&self) {
        let r = &self.report;
        eo_obs::counter!("server.accepted", r.accepted);
        eo_obs::counter!("server.refused_conns", r.refused_conns);
        eo_obs::counter!("server.frames", r.frames);
        eo_obs::counter!("server.bad_frames", r.bad_frames);
        eo_obs::counter!("server.requests", r.requests);
        eo_obs::counter!("server.responses", r.responses);
        eo_obs::counter!("server.exact", r.exact);
        eo_obs::counter!("server.degraded", r.degraded);
        eo_obs::counter!("server.errors", r.errors);
        eo_obs::counter!("server.rejected", r.rejected);
        eo_obs::counter!("server.shed", r.shed);
        eo_obs::counter!("server.timeout_kills", r.timeout_kills);
        eo_obs::counter!("server.sessions_rebuilt", r.sessions_rebuilt);
        eo_obs::counter!("server.evictions", r.evictions);
        eo_obs::counter!("server.orphaned", r.orphaned);
        eo_obs::gauge!("server.resident_programs", self.store.len() as i64);
    }
}

/// The structured admission-rejection document: the client should retry
/// after `retry_after_ms` (with jitter of its own choosing).
fn render_overloaded(id: &Option<Value>, op: &str, retry_after_ms: u64) -> String {
    render_doc(id, op, "overloaded", |doc| {
        doc.int("retry_after_ms", retry_after_ms as i64);
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn server_documents_keep_their_bytes() {
        let awkward = Some(Value::Str("q\"b\\c\u{1}\n".to_owned()));
        let open = render_doc(&awkward, "open", "ok", |doc| {
            doc.str("program", &format!("{:016x}", 0x00ab_cdef_u64))
                .int("events", 12)
                .bool("fresh", true);
        });
        for (rendered, expected) in [
            (
                render_doc(&Some(Value::Int(1)), "ping", "ok", |_| {}),
                r#"{"schema_version":2,"id":1,"op":"ping","status":"ok"}"#,
            ),
            (
                open,
                r#"{"schema_version":2,"id":"q\"b\\c\u0001\n","op":"open","status":"ok","program":"0000000000abcdef","events":12,"fresh":true}"#,
            ),
            (
                render_overloaded(&None, "connect", 25),
                r#"{"schema_version":2,"id":null,"op":"connect","status":"overloaded","retry_after_ms":25}"#,
            ),
            (
                render_overloaded(&Some(Value::Int(4)), "witness_before", 100),
                r#"{"schema_version":2,"id":4,"op":"witness_before","status":"overloaded","retry_after_ms":100}"#,
            ),
        ] {
            assert_eq!(rendered, expected);
        }
    }
}
