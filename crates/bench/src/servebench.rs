//! The `serve` bench area: end-to-end server workloads.
//!
//! Three measurements against an in-process `iixml-serve` server with
//! journaled sessions (batched group commit, the production shape):
//!
//! * `honest` — the seeded query mix over concurrent connections:
//!   p50/p99 request latency, requests/sec, sessions/sec;
//! * `chaos` — the misbehaving-client storm running *while* a second
//!   honest load runs: the server must stay live and the honest load's
//!   p99 stays bounded (robustness as a benchmark, not just a test);
//! * `restart` — drain-and-sync shutdown followed by a cold start that
//!   recovers every journaled session: fleet recovery wall time.
//!
//! The gates hold on any host speed: the server outlives the storm,
//! the honest load on a quiet server sees zero transport errors and
//! zero sheds, restart recovers every journaled session, and the
//! throughput floors (500 req/s, 8 sessions/s) and the 50 ms p99
//! ceiling sit an order of magnitude from the committed run — they
//! catch the server falling over, not scheduler jitter.
//!
//! `cargo run -p iixml-bench --bin report -- --bench serve` runs this
//! and writes `BENCH_serve.json`; `--quick` shrinks the load.

use crate::loadgen::{run_chaos, run_load, ChaosReport, LoadConfig, LoadReport};
use crate::row::Row;
use iixml_serve::{ServeConfig, Server};
use std::path::PathBuf;
use std::time::Instant;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iixml-serve-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn server_config(journal_root: PathBuf) -> ServeConfig {
    let mut cfg = ServeConfig {
        port: 0,
        journal_root: Some(journal_root),
        batched_journal: true,
        ..ServeConfig::default()
    };
    // Generous quotas: the honest load must not shed (sheds are the
    // chaos measurement's business).
    cfg.admission.max_sessions = 4096;
    cfg.admission.max_inflight = 256;
    cfg.admission.quota_burst = 1_000_000;
    cfg.admission.quota_refill = 1_000_000;
    cfg
}

/// The gated metrics of this area.
pub const GATES: &[&str] = &[
    "p99_us",
    "requests_per_sec",
    "sessions_per_sec",
    "errors",
    "shed",
    "server_alive",
    "unrecovered_sessions",
];

/// The full server report.
pub struct ServeReport {
    /// Sessions in the honest load.
    pub sessions: usize,
    /// Requests per session.
    pub requests_per_session: usize,
    /// Honest load, quiet server.
    pub honest: LoadReport,
    /// Honest load measured *during* the chaos storm.
    pub honest_under_chaos: LoadReport,
    /// The storm itself.
    pub chaos: ChaosReport,
    /// Journaled sessions recovered at restart.
    pub recovered_sessions: usize,
    /// Cold-start fleet recovery wall time (ms).
    pub restart_ms: f64,
}

/// Runs every group; `quick` shrinks the load.
pub fn run(quick: bool) -> ServeReport {
    iixml_obs::set_enabled(true);
    let root = scratch("bench");
    let sessions = if quick { 16 } else { 64 };
    let requests_per_session = if quick { 8 } else { 32 };
    let chaos_conns = if quick { 24 } else { 96 };

    // -- honest load on a quiet server ---------------------------------
    let server = Server::start(server_config(root.clone())).expect("server start");
    let port = server.port();
    let cfg = LoadConfig {
        port,
        tenants: 4,
        sessions,
        requests_per_session,
        products: 3,
        seed: 0x5EBE,
        concurrency: 8,
        sync_at_end: true,
        close_at_end: false,
        ..LoadConfig::default()
    };
    let honest = run_load(&cfg);

    // -- chaos storm concurrent with a second honest load --------------
    // Fresh session names so opens don't collide with round one.
    let chaos_cfg = LoadConfig {
        seed: 0xC405,
        sessions: sessions / 2,
        tenants: 2,
        ..cfg.clone()
    };
    let (honest_under_chaos, chaos) = std::thread::scope(|s| {
        let storm = s.spawn(|| run_chaos(port, chaos_conns, 0x57AB, 16));
        // Interleave: the honest load runs while connections misbehave.
        let load = run_load(&chaos_cfg);
        (load, storm.join().expect("chaos thread"))
    });

    // -- drain, restart, recover ---------------------------------------
    let drain = server.shutdown();
    assert!(drain.faults.is_empty(), "drain faults: {:?}", drain.faults);
    let t0 = Instant::now();
    let server2 = Server::start(server_config(root.clone())).expect("server restart");
    let restart_ms = t0.elapsed().as_secs_f64() * 1e3;
    let recovered_sessions = server2.session_names().len();
    drop(server2.shutdown());
    let _ = std::fs::remove_dir_all(&root);

    ServeReport {
        sessions,
        requests_per_session,
        honest,
        honest_under_chaos,
        chaos,
        recovered_sessions,
        restart_ms,
    }
}

impl ServeReport {
    /// Honest load on a quiet server, the chaos storm, then restart.
    pub fn rows(&self) -> Vec<Row> {
        let h = &self.honest;
        let c = &self.honest_under_chaos;
        let count = |metric: &str, v: f64| Row::lower("serve", metric, "count", v);
        let unrecovered = h
            .sessions_done
            .saturating_sub(self.recovered_sessions as u64);
        vec![
            Row::higher("serve", "sessions", "count", self.sessions as f64),
            Row::higher(
                "serve",
                "requests_per_session",
                "count",
                self.requests_per_session as f64,
            ),
            Row::higher("serve", "requests", "count", h.requests as f64),
            Row::lower("serve", "p50_us", "us", h.p50_us),
            Row::lower("serve", "p99_us", "us", h.p99_us).bound(50_000.0),
            Row::higher("serve", "requests_per_sec", "/s", h.requests_per_sec).bound(500.0),
            Row::higher("serve", "sessions_per_sec", "/s", h.sessions_per_sec).bound(8.0),
            count("errors", h.errors as f64).bound(1.0),
            count("shed", h.shed as f64).bound(1.0),
            Row::higher(
                "serve",
                "chaos_connections",
                "count",
                self.chaos.connections as f64,
            ),
            Row::higher(
                "serve",
                "server_alive",
                "bool",
                f64::from(u8::from(self.chaos.server_alive)),
            )
            .bound(1.0),
            Row::lower("serve", "chaos_honest_p99_us", "us", c.p99_us),
            Row::lower("serve", "chaos_p99_inflation", "x", c.p99_us / h.p99_us),
            count("chaos_honest_errors", c.errors as f64),
            Row::higher(
                "serve",
                "recovered_sessions",
                "count",
                self.recovered_sessions as f64,
            ),
            count("unrecovered_sessions", unrecovered as f64).bound(1.0),
            Row::lower("serve", "restart_ms", "ms", self.restart_ms),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_run_is_coherent() {
        let report = run(true);
        assert!(report.honest.requests > 0);
        let rows = report.rows();
        assert_eq!(crate::row::gated(&rows), GATES);
        for row in &rows {
            // Throughput and latency are timings, too noisy to assert
            // in a unit test; the gate run checks them.
            if row.unit != "/s" && row.unit != "us" {
                assert!(row.passes(), "{row:?}");
            }
        }
    }
}
