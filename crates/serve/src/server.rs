//! The multi-tenant session server.
//!
//! Architecture (DESIGN.md §12): one acceptor loop runs on the runner
//! thread; each accepted connection is handed to a dedicated bounded
//! thread so one slow client never stalls another. Sessions live in a
//! sharded map — `shard = fnv("tenant/session") % shards` — each shard
//! an independent [`Webhouse`] behind its own mutex, so tenants on
//! different shards never contend. Admission control
//! ([`crate::tenant`]) runs before any work; over-budget requests are
//! refused with an explicit `Shed` frame, never queued.
//!
//! Durability: with a journal root configured, every session journals
//! through the group-commit WAL (batched [`FlushPolicy`]); the `Sync`
//! op is the client-visible durability barrier. On restart the server
//! scans the journal root and recovers every session in one concurrent
//! fan-out ([`Session::recover_all`]) — byte-identical at any pool
//! width — and each session's recovery outcome (including
//! `Recovered{dropped_records}`) stays visible in responses and stats.
//! A recovered session's source ([`CatalogSource`]) is generated at
//! the first request that reaches it, so a cold start does only the
//! work the first Asks need.
//!
//! Fault posture: a misbehaving client (garbage frames, bad CRC,
//! partial frame then silence, half-close, disconnect mid-request,
//! slow-loris trickle) degrades exactly its own connection. Session
//! state is only ever mutated under a shard lock by a successfully
//! decoded, admitted request, so a degraded connection cannot poison a
//! tenant or the fleet.

use std::collections::BTreeMap;
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_query::parse::parse_ps_query;
use iixml_store::{FlushPolicy, RecoveryStatus};
use iixml_webhouse::{
    DegradeCause, LocalAnswer, RecoveryReport, Session, Source, Webhouse, WebhouseError,
};

use crate::conn::{ConnError, DeadlineStream};
use crate::lock;
use crate::proto::{self, ReqOp, Request, RespOp};
use crate::source::CatalogSource;
use crate::tenant::{Admission, AdmissionConfig, Shed, TenantGate};

// The eight server event counters. Each event is counted once, here,
// with collection on or off (`add_always`); `stats_json` reads them and
// the three containment counters back from the obs registry.
static OBS_ACCEPTED: LazyCounter = LazyCounter::new(keys::SERVE_ACCEPTED);
static OBS_REQUESTS: LazyCounter = LazyCounter::new(keys::SERVE_REQUESTS);
static OBS_SHED: LazyCounter = LazyCounter::new(keys::SERVE_SHED);
static OBS_FRAME_ERRORS: LazyCounter = LazyCounter::new(keys::SERVE_FRAME_ERRORS);
static OBS_TIMEOUTS: LazyCounter = LazyCounter::new(keys::SERVE_CONN_TIMEOUTS);
static OBS_OPENED: LazyCounter = LazyCounter::new(keys::SERVE_SESSIONS_OPENED);
static OBS_RECOVERED: LazyCounter = LazyCounter::new(keys::SERVE_SESSIONS_RECOVERED);
static OBS_CLOSED: LazyCounter = LazyCounter::new(keys::SERVE_SESSIONS_CLOSED);
static OBS_FRAME_BYTES: LazyHistogram = LazyHistogram::new(keys::SERVE_FRAME_BYTES);

/// Fleet-wide cap on live connections; past it new connections get an
/// immediate `Shed` frame (overload) and a close.
const MAX_CONNS: usize = 1024;

/// Max `read` syscalls per request frame (the slow-loris budget).
const FRAME_READ_BUDGET: u32 = 64;

/// Server configuration. [`ServeConfig::from_env`] reads the port, the
/// shard count, the admission limits and the deadlines from the
/// `IIXML_SERVE_*` environment (see the README table); `refill_ms`,
/// `journal_root` and `batched_journal` have no env counterpart.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// TCP port to bind on 127.0.0.1 (0 = ephemeral).
    pub port: u16,
    /// Session-map shard count.
    pub shards: usize,
    /// Per-tenant admission limits.
    pub admission: AdmissionConfig,
    /// Per-connection read deadline (ms).
    pub read_timeout_ms: u64,
    /// Per-connection write deadline (ms).
    pub write_timeout_ms: u64,
    /// Journal root; `None` = in-memory sessions only.
    pub journal_root: Option<PathBuf>,
    /// Use the batched group-commit flush policy (the `Sync` op is the
    /// durability barrier); `false` = flush every record.
    pub batched_journal: bool,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            port: 0,
            shards: 8,
            admission: AdmissionConfig {
                max_sessions: 64,
                max_inflight: 8,
                quota_burst: 256,
                quota_refill: 256,
                refill_ms: 50,
            },
            read_timeout_ms: 2000,
            write_timeout_ms: 2000,
            journal_root: None,
            batched_journal: true,
        }
    }
}

fn env_parse<T: std::str::FromStr>(key: &str, default: T) -> T {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

impl ServeConfig {
    /// The default configuration overridden by the `IIXML_SERVE_*`
    /// environment (unparsable values fall back to the default).
    pub fn from_env() -> ServeConfig {
        let d = ServeConfig::default();
        ServeConfig {
            port: env_parse(keys::ENV_SERVE_PORT, d.port),
            shards: env_parse(keys::ENV_SERVE_SHARDS, d.shards).max(1),
            admission: AdmissionConfig {
                max_sessions: env_parse(keys::ENV_SERVE_MAX_SESSIONS, d.admission.max_sessions)
                    .max(1),
                max_inflight: env_parse(keys::ENV_SERVE_MAX_INFLIGHT, d.admission.max_inflight)
                    .max(1),
                quota_burst: env_parse(keys::ENV_SERVE_QUOTA, d.admission.quota_burst).max(1),
                quota_refill: env_parse(keys::ENV_SERVE_QUOTA, d.admission.quota_refill).max(1),
                refill_ms: d.admission.refill_ms,
            },
            read_timeout_ms: env_parse(keys::ENV_SERVE_READ_TIMEOUT_MS, d.read_timeout_ms).max(1),
            write_timeout_ms: env_parse(keys::ENV_SERVE_WRITE_TIMEOUT_MS, d.write_timeout_ms)
                .max(1),
            journal_root: d.journal_root,
            batched_journal: d.batched_journal,
        }
    }
}

/// Why the server could not start or shut down cleanly.
#[derive(Debug)]
pub enum ServeError {
    /// Socket-level failure (bind, accept setup).
    Io(String),
    /// Journal scan / session recovery failure at restart.
    Recover(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Io(m) => write!(f, "server io error: {m}"),
            ServeError::Recover(m) => write!(f, "session recovery failed: {m}"),
        }
    }
}

/// What the server remembers about a session beyond the webhouse
/// state: its tenant and its durability story (recovery outcome +
/// sticky journal fault). The session's [`CatalogSource`] knows how to
/// rebuild its document.
#[derive(Debug, Clone)]
struct SessionMeta {
    tenant: String,
    /// Set when this session came back through crash recovery.
    recovery: Option<RecoveryReport>,
    /// Sticky durability fault: once the journal fails, the session
    /// keeps serving un-journaled and every answer carries the fault.
    fault: Option<String>,
}

impl SessionMeta {
    /// The durability marker line carried by every answer for this
    /// session: `ok`, `recovered:<dropped>`, or `fault:<error>`.
    fn marker(&self) -> String {
        if let Some(f) = &self.fault {
            return format!("fault:{f}");
        }
        if let Some(rec) = &self.recovery {
            if let RecoveryStatus::Recovered { dropped_records } = rec.status {
                return format!("recovered:{dropped_records}");
            }
        }
        "ok".to_string()
    }
}

struct Shard {
    house: Webhouse<CatalogSource>,
    meta: BTreeMap<String, SessionMeta>,
}

struct Inner {
    cfg: ServeConfig,
    listener: TcpListener,
    shards: Vec<Mutex<Shard>>,
    admission: Admission,
    shutdown: AtomicBool,
    active_conns: AtomicUsize,
}

/// FNV-1a; the shard router (stable across platforms and runs).
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn shard_of(inner: &Inner, scoped: &str) -> usize {
    (fnv1a(scoped) % inner.cfg.shards as u64) as usize
}

fn err_frame(code: &str, detail: &str) -> Vec<u8> {
    proto::encode_frame(RespOp::Err.byte(), format!("{code}\n{detail}").as_bytes())
}

fn shed_frame(shed: Shed, refill_ms: u64) -> Vec<u8> {
    let body = format!("{}\n{}", shed.reason(), shed.retry_after_ms(refill_ms));
    proto::encode_frame(RespOp::Shed.byte(), body.as_bytes())
}

fn resp_frame(op: RespOp, body: &str) -> Vec<u8> {
    proto::encode_frame(op.byte(), body.as_bytes())
}

/// What `shutdown()` reports back: how many sessions synced cleanly
/// and which ones could not.
#[derive(Debug)]
pub struct DrainReport {
    /// Sessions whose journals reached their durability barrier.
    pub synced: usize,
    /// Sessions whose final sync failed: `(scoped_name, error)`.
    pub faults: Vec<(String, String)>,
}

/// A running server. Dropping the handle without calling
/// [`Server::shutdown`] leaves sessions unsynced (like a crash, minus
/// losing the in-memory buffers).
pub struct Server {
    inner: Arc<Inner>,
    runner: Option<thread::JoinHandle<()>>,
    ticker: Option<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds, recovers any journaled sessions under the configured
    /// root, and starts serving.
    pub fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let listener = TcpListener::bind(("127.0.0.1", cfg.port))
            .map_err(|e| ServeError::Io(e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServeError::Io(e.to_string()))?;
        let shard_count = cfg.shards.max(1);
        let mut shards = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            shards.push(Mutex::new(Shard {
                house: Webhouse::new(),
                meta: BTreeMap::new(),
            }));
        }
        let inner = Arc::new(Inner {
            admission: Admission::new(cfg.admission),
            cfg,
            listener,
            shards,
            shutdown: AtomicBool::new(false),
            active_conns: AtomicUsize::new(0),
        });
        recover_fleet(&inner)?;
        let runner = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("iixml-serve-runner".into())
                // One acceptor suffices: every accepted connection is
                // served on its own thread (`dispatch_conn`).
                .spawn(move || accept_loop(&inner))
                .map_err(|e| ServeError::Io(e.to_string()))?
        };
        let ticker = {
            let inner = Arc::clone(&inner);
            thread::Builder::new()
                .name("iixml-serve-ticker".into())
                .spawn(move || {
                    while !inner.shutdown.load(Ordering::Acquire) {
                        thread::sleep(Duration::from_millis(inner.cfg.admission.refill_ms));
                        inner.admission.refill_all();
                    }
                })
                .map_err(|e| ServeError::Io(e.to_string()))?
        };
        Ok(Server {
            inner,
            runner: Some(runner),
            ticker: Some(ticker),
        })
    }

    /// The bound port (useful with `port: 0`).
    pub fn port(&self) -> u16 {
        self.inner.listener.local_addr().map_or(0, |a| a.port())
    }

    /// Signals shutdown and waits for acceptors and live connections
    /// to wind down (bounded by the read deadline), then drives every
    /// journaled session through its durability barrier.
    pub fn shutdown(mut self) -> DrainReport {
        self.stop_threads();
        let mut report = DrainReport {
            synced: 0,
            faults: Vec::new(),
        };
        for shard in &self.inner.shards {
            let mut shard = lock(shard);
            let names: Vec<String> = shard.meta.keys().cloned().collect();
            for name in names {
                let Some(sess) = shard.house.session(&name) else {
                    continue;
                };
                match sess.sync_journal() {
                    Ok(()) => report.synced += 1,
                    Err(e) => report.faults.push((name, e.to_string())),
                }
            }
        }
        report
    }

    /// Models kill -9 for tests: stops serving, then *forgets* all
    /// session state without flushing or closing anything — bytes
    /// buffered past the last group-commit barrier are lost exactly as
    /// they would be when the process dies. (The forgotten state leaks;
    /// test-only by design.)
    pub fn crash(mut self) {
        self.stop_threads();
        for shard in &self.inner.shards {
            let mut shard = lock(shard);
            let house = std::mem::take(&mut shard.house);
            std::mem::forget(house);
            shard.meta.clear();
        }
    }

    fn stop_threads(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        if let Some(h) = self.runner.take() {
            let _ = h.join();
        }
        if let Some(h) = self.ticker.take() {
            let _ = h.join();
        }
        while self.inner.active_conns.load(Ordering::Acquire) > 0 {
            thread::sleep(Duration::from_millis(2));
        }
    }

    /// Runs `f` on a live session (tests and the CLI stats path).
    pub fn with_session<R>(
        &self,
        tenant: &str,
        session: &str,
        f: impl FnOnce(&mut Session<CatalogSource>) -> R,
    ) -> Option<R> {
        let scoped = format!("{tenant}/{session}");
        let idx = shard_of(&self.inner, &scoped);
        let mut shard = lock(self.inner.shards.get(idx)?);
        shard.house.session(&scoped).map(f)
    }

    /// All live scoped session names, sorted.
    pub fn session_names(&self) -> Vec<String> {
        let mut names = Vec::new();
        for shard in &self.inner.shards {
            let shard = lock(shard);
            names.extend(shard.meta.keys().cloned());
        }
        names.sort();
        names
    }

    /// The stats JSON served to `Stats` requests and `--stats`.
    pub fn stats_json(&self) -> String {
        stats_json(&self.inner)
    }
}

/// Scans the journal root and recovers every session found in one
/// fan-out ([`Session::recover_all`]), then adopts each session into
/// its shard. A recovered session's source is a lazy [`CatalogSource`]:
/// the journal stores knowledge, not the remote document, and the
/// catalog is regenerated from `(products, seed)` only when a request
/// reaches the source.
fn recover_fleet(inner: &Arc<Inner>) -> Result<(), ServeError> {
    let Some(root) = inner.cfg.journal_root.clone() else {
        return Ok(());
    };
    if !root.exists() {
        return Ok(());
    }
    let mut journals = Vec::new();
    let mut metas: BTreeMap<String, SessionMeta> = BTreeMap::new();
    for tenant in sorted_dir(&root).map_err(ServeError::Recover)? {
        let tname = tenant
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        if !proto::name_ok(&tname) || !tenant.is_dir() {
            continue;
        }
        for entry in sorted_dir(&tenant).map_err(ServeError::Recover)? {
            let fname = entry
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let Some(session) = fname.strip_suffix(".meta") else {
                continue;
            };
            if !proto::name_ok(session) {
                continue;
            }
            let text = std::fs::read_to_string(&entry)
                .map_err(|e| ServeError::Recover(format!("{}: {e}", entry.display())))?;
            let mut lines = text.lines();
            let products: usize = lines.next().and_then(|l| l.parse().ok()).unwrap_or(0);
            let seed: u64 = lines.next().and_then(|l| l.parse().ok()).unwrap_or(0);
            if products == 0 {
                continue; // torn meta write; the session was never acked
            }
            let jdir = tenant.join(format!("{session}.j"));
            if !jdir.is_dir() {
                continue;
            }
            let scoped = format!("{tname}/{session}");
            let source = CatalogSource::lazy(products, seed);
            journals.push((scoped.clone(), jdir, source));
            metas.insert(
                scoped,
                SessionMeta {
                    tenant: tname.clone(),
                    recovery: None,
                    fault: None,
                },
            );
        }
    }
    let recovered =
        Session::recover_all(journals).map_err(|e| ServeError::Recover(e.to_string()))?;
    for (name, mut session, report) in recovered {
        let Some(mut meta) = metas.remove(&name) else {
            continue;
        };
        let Some(shard_mutex) = inner.shards.get(shard_of(inner, &name)) else {
            continue;
        };
        if inner.cfg.batched_journal {
            let _ = session.set_journal_flush_policy(FlushPolicy::batched());
        }
        meta.recovery = Some(report);
        inner.admission.gate(&meta.tenant).adopt_session();
        let mut shard = lock(shard_mutex);
        shard.house.adopt(name.clone(), session);
        shard.meta.insert(name, meta);
        OBS_RECOVERED.add_always(1);
    }
    Ok(())
}

fn sorted_dir(dir: &Path) -> Result<Vec<PathBuf>, String> {
    let rd = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut out = Vec::new();
    for entry in rd {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        out.push(entry.path());
    }
    out.sort();
    Ok(out)
}

fn accept_loop(inner: &Arc<Inner>) {
    while !inner.shutdown.load(Ordering::Acquire) {
        match inner.listener.accept() {
            Ok((stream, _addr)) => {
                OBS_ACCEPTED.add_always(1);
                dispatch_conn(inner, stream);
            }
            // Nonblocking listener: `WouldBlock` (or a transient error)
            // means poll again shortly.
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Hands an accepted socket to its own thread, or sheds it when the
/// fleet-wide connection cap is reached.
fn dispatch_conn(inner: &Arc<Inner>, stream: TcpStream) {
    let cfg = &inner.cfg;
    let Ok(mut ds) = DeadlineStream::new(
        stream,
        cfg.read_timeout_ms,
        cfg.write_timeout_ms,
        FRAME_READ_BUDGET,
    ) else {
        return;
    };
    if inner.active_conns.load(Ordering::Acquire) >= MAX_CONNS {
        OBS_SHED.add_always(1);
        let _ = ds.write_frame(&shed_frame(Shed::Inflight, cfg.admission.refill_ms));
        ds.shutdown();
        return;
    }
    inner.active_conns.fetch_add(1, Ordering::AcqRel);
    let inner2 = Arc::clone(inner);
    let spawned = thread::Builder::new()
        .name("iixml-serve-conn".into())
        .spawn(move || {
            conn_main(&inner2, &mut ds);
            inner2.active_conns.fetch_sub(1, Ordering::AcqRel);
        });
    if spawned.is_err() {
        // Could not even spawn: treat as overload.
        inner.active_conns.fetch_sub(1, Ordering::AcqRel);
        OBS_SHED.add_always(1);
    }
}

/// One connection's life: frames in, frames out, until close or fault.
fn conn_main(inner: &Arc<Inner>, ds: &mut DeadlineStream) {
    let mut tenant: Option<(String, Arc<TenantGate>)> = None;
    loop {
        if inner.shutdown.load(Ordering::Acquire) {
            ds.shutdown();
            return;
        }
        match ds.read_frame() {
            Ok(None) => {
                // Clean close or half-close at a frame boundary.
                ds.shutdown();
                return;
            }
            Ok(Some((op, body))) => {
                OBS_FRAME_BYTES.observe(body.len() as u64);
                match handle_frame(inner, &mut tenant, op, &body) {
                    Outcome::Reply(frame) => {
                        if ds.write_frame(&frame).is_err() {
                            OBS_TIMEOUTS.add_always(1);
                            ds.shutdown();
                            return;
                        }
                    }
                    Outcome::Degrade(last) => {
                        OBS_FRAME_ERRORS.add_always(1);
                        if let Some(frame) = last {
                            let _ = ds.write_frame(&frame);
                        }
                        ds.shutdown();
                        return;
                    }
                }
            }
            Err(ConnError::Timeout | ConnError::SlowLoris) => {
                OBS_TIMEOUTS.add_always(1);
                ds.shutdown();
                return;
            }
            Err(ConnError::Frame(e)) => {
                // Garbage, bad CRC, or a version we don't speak: tell
                // the peer why (best effort), then degrade.
                OBS_FRAME_ERRORS.add_always(1);
                let code = if matches!(e, proto::FrameError::BadVersion(_)) {
                    "version"
                } else {
                    "frame"
                };
                let _ = ds.write_frame(&err_frame(code, &e.to_string()));
                ds.shutdown();
                return;
            }
            Err(ConnError::ClosedMidFrame | ConnError::Io(_)) => {
                // Disconnect mid-request / reset: connection-local.
                OBS_FRAME_ERRORS.add_always(1);
                ds.shutdown();
                return;
            }
        }
    }
}

enum Outcome {
    /// Write this frame and keep the connection.
    Reply(Vec<u8>),
    /// Misbehaving client: optionally write a final frame, then close.
    Degrade(Option<Vec<u8>>),
}

fn handle_frame(
    inner: &Arc<Inner>,
    conn_tenant: &mut Option<(String, Arc<TenantGate>)>,
    op: u8,
    body: &[u8],
) -> Outcome {
    let Some(req_op) = ReqOp::from_byte(op) else {
        return Outcome::Degrade(Some(err_frame("frame", "unknown opcode")));
    };
    let req = match proto::parse_request(req_op, body) {
        Ok(req) => req,
        Err(e) => return Outcome::Degrade(Some(err_frame("frame", &e.to_string()))),
    };
    match req {
        Request::Hello { tenant } => {
            let gate = inner.admission.gate(&tenant);
            *conn_tenant = Some((tenant, gate));
            Outcome::Reply(resp_frame(RespOp::Ok, "hello"))
        }
        Request::Ping => Outcome::Reply(resp_frame(RespOp::Pong, "")),
        Request::Stats => Outcome::Reply(resp_frame(RespOp::StatsBody, &stats_json(inner))),
        req => {
            let Some((tenant, gate)) = conn_tenant.clone() else {
                return Outcome::Degrade(Some(err_frame(
                    "hello-first",
                    "send Hello before session requests",
                )));
            };
            // Admission: refuse over-budget work *before* doing it.
            let _guard = match inner.admission.try_request(&gate) {
                Ok(g) => g,
                Err(shed) => {
                    OBS_SHED.add_always(1);
                    return Outcome::Reply(shed_frame(shed, inner.cfg.admission.refill_ms));
                }
            };
            OBS_REQUESTS.add_always(1);
            Outcome::Reply(handle_session_request(inner, &tenant, &gate, req))
        }
    }
}

fn handle_session_request(
    inner: &Arc<Inner>,
    tenant: &str,
    gate: &Arc<TenantGate>,
    req: Request,
) -> Vec<u8> {
    match req {
        Request::Open {
            session,
            products,
            seed,
        } => open_session(inner, tenant, gate, &session, products, seed),
        Request::Fetch { session, query } => with_session(inner, tenant, &session, |sess, meta| {
            let q = match parse_ps_query(&query, sess.alphabet_mut()) {
                Ok(q) => q,
                Err(e) => return err_frame("bad-query", &e.to_string()),
            };
            let hits = sess.containment_hits();
            let res = sess.fetch(&q);
            note_fault(sess, meta, res.as_ref().err());
            let hit = sess.containment_hits() > hits;
            match res {
                Ok(ans) => resp_frame(
                    RespOp::Answer,
                    &format!(
                        "{}\nnodes={}\ncontain={}",
                        meta.marker(),
                        ans.len(),
                        hit_word(hit)
                    ),
                ),
                Err(e) => err_frame("session", &e.to_string()),
            }
        }),
        Request::Ask { session, query } => with_session(inner, tenant, &session, |sess, meta| {
            let q = match parse_ps_query(&query, sess.alphabet_mut()) {
                Ok(q) => q,
                Err(e) => return err_frame("bad-query", &e.to_string()),
            };
            let ans = sess.answer_locally(&q);
            note_fault(sess, meta, None);
            local_answer_frame(&ans, &meta.marker(), None)
        }),
        Request::Mediate { session, query } => {
            with_session(inner, tenant, &session, |sess, meta| {
                let q = match parse_ps_query(&query, sess.alphabet_mut()) {
                    Ok(q) => q,
                    Err(e) => return err_frame("bad-query", &e.to_string()),
                };
                let hits = sess.containment_hits();
                let ans = sess.answer_resilient(&q);
                note_fault(sess, meta, None);
                let hit = sess.containment_hits() > hits;
                local_answer_frame(&ans, &meta.marker(), Some(hit))
            })
        }
        Request::Sync { session } => with_session(inner, tenant, &session, |sess, meta| {
            let res = sess.sync_journal();
            note_fault(sess, meta, res.as_ref().err());
            match res {
                Ok(()) => resp_frame(RespOp::Ok, &format!("synced\n{}", meta.marker())),
                Err(e) => err_frame("session", &e.to_string()),
            }
        }),
        Request::Close { session } => close_session(inner, tenant, gate, &session),
        // Hello/Stats/Ping are handled before admission; unreachable
        // here, but answer harmlessly rather than assert.
        Request::Hello { .. } | Request::Stats | Request::Ping => resp_frame(RespOp::Ok, ""),
    }
}

/// Records a durability fault on the session's meta so it stays
/// visible (the webhouse clears its own sticky fault once reported).
fn note_fault(sess: &Session<CatalogSource>, meta: &mut SessionMeta, err: Option<&WebhouseError>) {
    if let Some(WebhouseError::Store(e)) = err {
        meta.fault = Some(e.to_string());
    }
    if let Some(e) = sess.journal_fault() {
        meta.fault = Some(e.to_string());
    }
}

fn hit_word(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

fn local_answer_frame(ans: &LocalAnswer, marker: &str, contain: Option<bool>) -> Vec<u8> {
    let contain_line = match contain {
        Some(hit) => format!("\ncontain={}", hit_word(hit)),
        None => String::new(),
    };
    match ans {
        LocalAnswer::Complete(t) => {
            let nodes = t.as_ref().map_or(0, |t| t.len());
            resp_frame(
                RespOp::Answer,
                &format!("{marker}\nnodes={nodes}{contain_line}"),
            )
        }
        LocalAnswer::Partial(_) => {
            resp_frame(RespOp::Partial, &format!("{marker}\npartial{contain_line}"))
        }
        LocalAnswer::Degraded { cause, .. } => {
            let word = match cause {
                DegradeCause::SourceUnavailable(_) => "source-unavailable",
                DegradeCause::Quarantined(_) => "quarantined",
                DegradeCause::Durability(_) => "durability",
            };
            resp_frame(RespOp::Degraded, &format!("{marker}\n{word}{contain_line}"))
        }
    }
}

fn with_session(
    inner: &Arc<Inner>,
    tenant: &str,
    session: &str,
    f: impl FnOnce(&mut Session<CatalogSource>, &mut SessionMeta) -> Vec<u8>,
) -> Vec<u8> {
    let scoped = format!("{tenant}/{session}");
    let idx = shard_of(inner, &scoped);
    let Some(shard_mutex) = inner.shards.get(idx) else {
        return err_frame("no-session", &scoped);
    };
    let mut shard = lock(shard_mutex);
    let shard = &mut *shard;
    let (Some(sess), Some(meta)) = (shard.house.session(&scoped), shard.meta.get_mut(&scoped))
    else {
        return err_frame("no-session", &scoped);
    };
    f(sess, meta)
}

fn open_session(
    inner: &Arc<Inner>,
    tenant: &str,
    gate: &Arc<TenantGate>,
    session: &str,
    products: usize,
    seed: u64,
) -> Vec<u8> {
    let scoped = format!("{tenant}/{session}");
    let idx = shard_of(inner, &scoped);
    let Some(shard_mutex) = inner.shards.get(idx) else {
        return err_frame("session", "shard routing failed");
    };
    let mut shard = lock(shard_mutex);
    if let Some(meta) = shard.meta.get(&scoped) {
        return resp_frame(RespOp::Opened, &format!("attached\n{}", meta.marker()));
    }
    if let Err(shed) = gate.try_open_session(inner.admission.config()) {
        OBS_SHED.add_always(1);
        return shed_frame(shed, inner.cfg.admission.refill_ms);
    }
    let cat = iixml_gen::catalog(products, seed);
    let source = CatalogSource::built(products, seed, Source::new(cat.doc, Some(cat.ty)));
    let meta = SessionMeta {
        tenant: tenant.to_string(),
        recovery: None,
        fault: None,
    };
    if let Some(root) = &inner.cfg.journal_root {
        let tdir = root.join(tenant);
        let jdir = tdir.join(format!("{session}.j"));
        let register = std::fs::create_dir_all(&tdir)
            .map_err(|e| e.to_string())
            .and_then(|_| write_meta(&tdir, session, products, seed))
            .and_then(|_| {
                shard
                    .house
                    .register_journaled(&scoped, cat.alpha, source, &jdir)
                    .map_err(|e| e.to_string())
            });
        if let Err(e) = register {
            gate.release_session();
            return err_frame("session", &e);
        }
        if inner.cfg.batched_journal {
            if let Some(sess) = shard.house.session(&scoped) {
                let _ = sess.set_journal_flush_policy(FlushPolicy::batched());
            }
        }
    } else {
        shard.house.register(&scoped, cat.alpha, source);
    }
    shard.meta.insert(scoped, meta);
    OBS_OPENED.add_always(1);
    resp_frame(RespOp::Opened, "created\nok")
}

/// Writes `<session>.meta` (products, seed) atomically: tmp + rename,
/// so a crash mid-write leaves either the old meta or none — never a
/// half-written one that would resurrect a wrong source.
fn write_meta(tdir: &Path, session: &str, products: usize, seed: u64) -> Result<(), String> {
    let tmp = tdir.join(format!("{session}.meta.tmp"));
    let dst = tdir.join(format!("{session}.meta"));
    std::fs::write(&tmp, format!("{products}\n{seed}\n")).map_err(|e| e.to_string())?;
    std::fs::rename(&tmp, &dst).map_err(|e| e.to_string())
}

fn close_session(
    inner: &Arc<Inner>,
    tenant: &str,
    gate: &Arc<TenantGate>,
    session: &str,
) -> Vec<u8> {
    let scoped = format!("{tenant}/{session}");
    let idx = shard_of(inner, &scoped);
    let Some(shard_mutex) = inner.shards.get(idx) else {
        return err_frame("no-session", &scoped);
    };
    let mut shard = lock(shard_mutex);
    let shard = &mut *shard;
    let Some(meta) = shard.meta.get_mut(&scoped) else {
        return err_frame("no-session", &scoped);
    };
    let sync_err = match shard.house.session(&scoped) {
        Some(sess) => {
            let res = sess.sync_journal();
            if let Err(WebhouseError::Store(e)) = &res {
                meta.fault = Some(e.to_string());
            }
            res.err().map(|e| e.to_string())
        }
        None => None,
    };
    let marker = meta.marker();
    drop(shard.house.remove_session(&scoped));
    shard.meta.remove(&scoped);
    if let Some(root) = &inner.cfg.journal_root {
        let tdir = root.join(tenant);
        let _ = std::fs::remove_dir_all(tdir.join(format!("{session}.j")));
        let _ = std::fs::remove_file(tdir.join(format!("{session}.meta")));
    }
    gate.release_session();
    OBS_CLOSED.add_always(1);
    match sync_err {
        None => resp_frame(RespOp::Ok, &format!("closed\n{marker}")),
        Some(e) => resp_frame(RespOp::Ok, &format!("closed\nfault:{e}")),
    }
}

/// Builds the stats snapshot: the process's event counters (read from
/// the obs registry), per-tenant admission state, and per-session
/// durability (recovery outcome + sticky fault) — satellite visibility
/// for degraded durability.
fn stats_json(inner: &Arc<Inner>) -> String {
    use iixml_obs::json::Json;
    let count = |key: &str| iixml_obs::counter(key).get();
    let counters = Json::obj()
        .set("accepted", count(keys::SERVE_ACCEPTED))
        .set("requests", count(keys::SERVE_REQUESTS))
        .set("shed", count(keys::SERVE_SHED))
        .set("frame_errors", count(keys::SERVE_FRAME_ERRORS))
        .set("conn_timeouts", count(keys::SERVE_CONN_TIMEOUTS))
        .set("sessions_opened", count(keys::SERVE_SESSIONS_OPENED))
        .set("sessions_recovered", count(keys::SERVE_SESSIONS_RECOVERED))
        .set("sessions_closed", count(keys::SERVE_SESSIONS_CLOSED))
        .set(
            "containment_checks",
            count(keys::MEDIATOR_CONTAINMENT_CHECKS),
        )
        .set("containment_hits", count(keys::MEDIATOR_CONTAINMENT_HITS))
        .set(
            "containment_fast_rejects",
            count(keys::MEDIATOR_CONTAINMENT_FAST_REJECTS),
        );
    let tenants: Vec<Json> = inner
        .admission
        .snapshot()
        .into_iter()
        .map(|(name, sessions, inflight, tokens)| {
            Json::obj()
                .set("tenant", name)
                .set("sessions", sessions)
                .set("inflight", inflight)
                .set("tokens", tokens)
        })
        .collect();
    let mut sessions: Vec<Json> = Vec::new();
    for shard_mutex in &inner.shards {
        let mut shard = lock(shard_mutex);
        let shard = &mut *shard;
        for (name, meta) in shard.meta.iter() {
            let mut j = Json::obj()
                .set("session", name.as_str())
                .set("tenant", meta.tenant.as_str())
                .set("durability", meta.marker());
            if let Some(sess) = shard.house.session(name) {
                j = j.set("knowledge_size", sess.knowledge().size());
            }
            if let Some(rec) = &meta.recovery {
                let dropped = match rec.status {
                    RecoveryStatus::Clean => 0usize,
                    RecoveryStatus::Recovered { dropped_records } => dropped_records,
                };
                j = j
                    .set("recovered", true)
                    .set("replayed", rec.replayed)
                    .set("dropped_records", dropped)
                    .set("rebased", rec.rebased);
            }
            sessions.push(j);
        }
    }
    // Shard-order collection; present sorted by session name.
    sessions.sort_by(|a, b| {
        let key = |j: &Json| match j {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == "session")
                .map(|(_, v)| v.render())
                .unwrap_or_default(),
            _ => String::new(),
        };
        key(a).cmp(&key(b))
    });
    Json::obj()
        .set("counters", counters)
        .set("tenants", Json::Arr(tenants))
        .set("sessions", Json::Arr(sessions))
        .render_pretty()
}
