//! The server's Stats counters count each server event once.
//!
//! A scripted sequence runs through [`Client`] and a raw socket, with
//! metric collection off, and the test checks the exact change of each
//! of the 11 `counters` fields of the Stats body between two Stats
//! calls:
//!
//! * connections accepted, requests admitted, requests shed, frame
//!   errors and connection timeouts;
//! * sessions opened, recovered and closed;
//! * containment-cache checks, hits and fast rejects (Corollary 3.15:
//!   a query contained in an exactly answered one is fully answerable,
//!   so a hit is served without the source).
//!
//! A restart on the same journal root then recovers the sessions the
//! first server left open, and its Stats report exactly that fleet.
//!
//! The counters live in one registry for the whole process, so the test
//! runs one server at a time in a single test function.

use iixml_serve::{Client, Resp, RespOp, ServeConfig, Server};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};

const TENANT: &str = "ta";
const PRODUCTS: usize = 6;
const SEED: u64 = 29;

/// The 11 counter fields of the Stats body, in body order.
const FIELDS: [&str; 11] = [
    "accepted",
    "requests",
    "shed",
    "frame_errors",
    "conn_timeouts",
    "sessions_opened",
    "sessions_recovered",
    "sessions_closed",
    "containment_checks",
    "containment_hits",
    "containment_fast_rejects",
];

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iixml-servestats-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Long deadlines, so an idle test connection never times out between
/// two steps of the script.
fn server_cfg(journal_root: &Path) -> ServeConfig {
    let mut cfg = ServeConfig {
        port: 0,
        read_timeout_ms: 60_000,
        write_timeout_ms: 60_000,
        journal_root: Some(journal_root.to_path_buf()),
        batched_journal: true,
        ..ServeConfig::default()
    };
    cfg.admission.refill_ms = 10;
    cfg
}

fn connect(port: u16, tenant: &str) -> Client {
    Client::connect(port, tenant, 60_000, 60_000).expect("connect")
}

/// The value of one counter field in a Stats body.
fn counter(stats: &str, field: &str) -> u64 {
    let key = format!("\"{field}\": ");
    let at = stats
        .find(&key)
        .unwrap_or_else(|| panic!("no {field} in stats:\n{stats}"));
    let digits: String = stats[at + key.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{field} is not a count:\n{stats}"))
}

fn counters(stats: &Resp) -> Vec<u64> {
    assert_eq!(stats.op, RespOp::StatsBody, "{}", stats.body);
    FIELDS.iter().map(|f| counter(&stats.body, f)).collect()
}

/// The change of every counter between two Stats bodies, by name.
fn deltas(before: &[u64], after: &[u64]) -> Vec<(&'static str, u64)> {
    FIELDS
        .iter()
        .zip(before.iter().zip(after))
        .map(|(&f, (&b, &a))| {
            assert!(a >= b, "{f} went down: {b} -> {a}");
            (f, a - b)
        })
        .collect()
}

fn expect(pairs: &[(&'static str, u64)]) -> Vec<(&'static str, u64)> {
    FIELDS
        .iter()
        .map(|&f| (f, pairs.iter().find(|p| p.0 == f).map_or(0, |p| p.1)))
        .collect()
}

fn contain_word(resp: &Resp) -> &str {
    resp.lines()
        .last()
        .and_then(|l| l.strip_prefix("contain="))
        .unwrap_or_else(|| panic!("no contain= line: {resp:?}"))
}

#[test]
fn stats_counters_change_by_exactly_the_scripted_events() {
    iixml_obs::set_enabled(false);
    let root = scratch("fleet");

    // The first server starts on an empty root and recovers nothing.
    let server = Server::start(server_cfg(&root)).expect("start");
    let port = server.port();
    let mut ops = connect(port, "ops");
    let before = counters(&ops.stats().unwrap());

    let mut c = connect(port, TENANT);
    for s in ["keep1", "keep2", "s"] {
        let resp = c.open(s, PRODUCTS, SEED).unwrap();
        assert_eq!(resp.op, RespOp::Opened, "{}", resp.body);
    }
    let wide = c.fetch("s", "catalog/product{name, price[< 300]}").unwrap();
    assert_eq!(wide.op, RespOp::Answer, "{}", wide.body);
    assert_eq!(contain_word(&wide), "miss");
    // Contained in the first Fetch: served from the cache.
    let narrow = c.fetch("s", "catalog/product{name, price[< 200]}").unwrap();
    assert_eq!(narrow.op, RespOp::Answer, "{}", narrow.body);
    assert_eq!(contain_word(&narrow), "hit");
    // Another label skeleton: the recorded entry is rejected fast and
    // the mediator asks the source.
    let mediated = c.mediate("s", "catalog/product/name").unwrap();
    assert_eq!(mediated.op, RespOp::Answer, "{}", mediated.body);
    assert_eq!(contain_word(&mediated), "miss");
    for s in ["keep1", "keep2"] {
        let resp = c.fetch(s, "catalog/product{name, price[< 100]}").unwrap();
        assert_eq!(resp.op, RespOp::Answer, "{}", resp.body);
        let resp = c.sync(s).unwrap();
        assert_eq!(resp.op, RespOp::Ok, "{}", resp.body);
    }
    let closed = c.close("s").unwrap();
    assert_eq!(closed.op, RespOp::Ok, "{}", closed.body);

    // A garbage frame degrades its own connection: the server answers
    // with an error frame and closes.
    let mut raw = TcpStream::connect(("127.0.0.1", port)).unwrap();
    raw.write_all(b"GARBAGE-FRAME-GARBAGE-FRAME").unwrap();
    let mut reply = Vec::new();
    let _ = raw.read_to_end(&mut reply);
    assert!(!reply.is_empty(), "the server explains the frame error");

    let after = counters(&ops.stats().unwrap());
    assert_eq!(
        deltas(&before, &after),
        expect(&[
            // The tenant's client and the raw socket.
            ("accepted", 2),
            // 3 Opens, 4 Fetches, 1 Mediate, 2 Syncs and 1 Close.
            ("requests", 11),
            ("frame_errors", 1),
            ("sessions_opened", 3),
            ("sessions_closed", 1),
            // Every Fetch and Mediate looks in the session's cache.
            ("containment_checks", 5),
            ("containment_hits", 1),
            ("containment_fast_rejects", 1),
        ]),
    );
    drop((c, ops, raw));
    let drain = server.shutdown();
    assert_eq!(drain.synced, 2);
    assert!(drain.faults.is_empty(), "{:?}", drain.faults);

    // The restart recovers the two sessions left open. Its bucket holds
    // one token and never refills, so the second request is shed.
    let mut cfg = server_cfg(&root);
    cfg.admission.quota_burst = 1;
    cfg.admission.quota_refill = 0;
    let server = Server::start(cfg).expect("restart");
    let mut ops = connect(server.port(), "ops");
    let stats = ops.stats().unwrap();
    // No earlier server in this process recovered a session.
    assert_eq!(counter(&stats.body, "sessions_recovered"), 2);
    let before = counters(&stats);

    let mut c = connect(server.port(), TENANT);
    let asked = c.ask("keep1", "catalog/product/name").unwrap();
    assert_ne!(asked.op, RespOp::Shed, "{}", asked.body);
    let shed = c.ask("keep2", "catalog/product/name").unwrap();
    assert!(shed.is_shed(), "{shed:?}");
    assert!(shed.body.starts_with("quota"), "{}", shed.body);

    let after = counters(&ops.stats().unwrap());
    assert_eq!(
        deltas(&before, &after),
        expect(&[("accepted", 1), ("requests", 1), ("shed", 1)]),
    );
    drop((c, ops));
    let drain = server.shutdown();
    assert_eq!(drain.synced, 2);
    let _ = std::fs::remove_dir_all(&root);
}
