//! The serve fault-model acceptance tests (PR 7): a seeded
//! misbehaving-client storm over a live multi-tenant server, and the
//! kill -9 durability contract.
//!
//! The properties under test are exactly the server's promises:
//!
//! * a storm of garbage frames, partial frames, slow-loris drips,
//!   half-closes, mid-request disconnects, and over-quota floods
//!   degrades only the offending connections — the server stays live,
//!   honest tenants see zero transport errors and bounded p99;
//! * every surviving session's knowledge is `well_formed()` and
//!   serializes byte-identically across `iixml-par` widths 1 and 4;
//! * kill -9 (modeled by [`Server::crash`], which drops all state
//!   without flushing) loses nothing acknowledged before the last
//!   `sync()` barrier: restart recovery lands each session exactly on
//!   the barrier knowledge, byte-identically, at any recovery width;
//! * a query nested far past the parser's bound is refused with a
//!   `bad-query` error instead of overflowing a connection thread's
//!   stack and taking the whole process down.

use iixml_bench::loadgen::{run_chaos, run_load, LoadConfig};
use iixml_core::io::write_incomplete_xml;
use iixml_gen::rng::DetRng;
use iixml_gen::{catalog, testkit};
use iixml_query::parse::parse_ps_query;
use iixml_serve::{Client, RespOp, ServeConfig, Server};
use iixml_webhouse::{Session, Source};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iixml-servechaos-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A server config with quotas sized so honest tenants never shed;
/// admission is the chaos tests' subject only where they flood.
fn server_cfg(journal_root: &Path) -> ServeConfig {
    let mut cfg = ServeConfig {
        port: 0,
        journal_root: Some(journal_root.to_path_buf()),
        batched_journal: true,
        ..ServeConfig::default()
    };
    cfg.admission.max_sessions = 1024;
    cfg.admission.max_inflight = 128;
    cfg.admission.quota_burst = 1_000_000;
    cfg.admission.quota_refill = 1_000_000;
    cfg
}

/// Serializes every live session's knowledge, checking well-formedness
/// on the way: `scoped name -> incomplete-tree XML`.
fn harvest(server: &Server) -> BTreeMap<String, String> {
    let mut out = BTreeMap::new();
    for scoped in server.session_names() {
        let (tenant, session) = scoped.split_once('/').expect("scoped name");
        let xml = server
            .with_session(tenant, session, |sess| {
                sess.knowledge().well_formed().unwrap_or_else(|e| {
                    panic!("{scoped}: knowledge not well-formed after the storm: {e:?}")
                });
                write_incomplete_xml(sess.knowledge(), sess.alphabet())
            })
            .expect("session listed but not present");
        out.insert(scoped, xml);
    }
    out
}

/// One full storm at a given par width: an honest load of 32 sessions
/// x 64 requests runs while two 48-connection chaos storms misbehave
/// (up to 8 + 2 x 32 concurrent connections). Returns the honest
/// tenants' knowledge for the cross-width comparison.
fn storm_at_width(width: usize) -> BTreeMap<String, String> {
    iixml_par::set_threads(Some(width));
    let root = scratch(&format!("storm-w{width}"));
    let server = Server::start(server_cfg(&root)).expect("server start");
    let port = server.port();

    // All seeds fork off IIXML_TEST_SEED: CI pins it for a replayable
    // trajectory and runs a second pass with a commit-derived value so
    // the fault space is explored over time. Within one run both widths
    // see the same seeds — that is what makes the byte comparison fair.
    let base = testkit::base_seed();
    let mut forks = DetRng::new(base);
    let (seed_honest, seed_a, seed_b) = (forks.next_u64(), forks.next_u64(), forks.next_u64());
    eprintln!("serve chaos storm: IIXML_TEST_SEED={base} (width {width})");

    let cfg = LoadConfig {
        port,
        tenants: 4,
        sessions: 32,
        requests_per_session: 64,
        products: 3,
        seed: seed_honest,
        concurrency: 8,
        sync_at_end: true,
        close_at_end: false,
        ..LoadConfig::default()
    };
    let (honest, storm_a, storm_b) = std::thread::scope(|s| {
        let a = s.spawn(|| run_chaos(port, 48, seed_a, 32));
        let b = s.spawn(|| run_chaos(port, 48, seed_b, 32));
        let honest = run_load(&cfg);
        (
            honest,
            a.join().expect("storm a"),
            b.join().expect("storm b"),
        )
    });

    // The storm was big enough to mean something...
    assert!(
        honest.requests + storm_a.requests_issued + storm_b.requests_issued >= 2000,
        "storm too small: {} honest + {} + {} chaos requests",
        honest.requests,
        storm_a.requests_issued,
        storm_b.requests_issued
    );
    // ...and the server outlived it.
    assert!(storm_a.server_alive && storm_b.server_alive, "server died");
    let mut probe = Client::connect(port, "probe", 2000, 2000).expect("post-storm connect");
    probe.ping().expect("post-storm ping");

    // Honest tenants were isolated from the faults: no transport
    // errors, no sheds (their quotas were never the scarce resource),
    // and p99 bounded well under the connection deadlines.
    assert_eq!(honest.errors, 0, "honest load hit transport errors");
    assert_eq!(honest.shed, 0, "honest load was shed");
    assert_eq!(honest.sessions_done, 32, "honest sessions did not finish");
    assert!(
        honest.p99_us < 2_000_000.0,
        "honest p99 {}us not bounded under chaos",
        honest.p99_us
    );

    let mut knowledge = harvest(&server);
    // Chaos connections may or may not get an Open processed before
    // their disconnect lands; only honest tenants' sessions are part of
    // the determinism contract.
    knowledge.retain(|name, _| !name.starts_with("chaos"));
    let drain = server.shutdown();
    assert!(drain.faults.is_empty(), "drain faults: {:?}", drain.faults);
    let _ = std::fs::remove_dir_all(&root);
    knowledge
}

#[test]
fn chaos_storm_degrades_only_the_misbehaving_connections() {
    let at1 = storm_at_width(1);
    let at4 = storm_at_width(4);
    iixml_par::set_threads(None);
    assert_eq!(at1.len(), 32, "expected every honest session to survive");
    assert_eq!(
        at1, at4,
        "honest sessions' knowledge must be byte-identical across par widths"
    );
}

/// The queries the crash test drives, in order. The first
/// `SYNC_BARRIER` are fetched before the explicit `sync()`; the rest
/// are acknowledged but only group-commit-buffered when the server
/// dies.
const CRASH_BOUNDS: [i64; 8] = [150, 200, 250, 300, 400, 500, 175, 225];
const SYNC_BARRIER: usize = 5;

#[test]
fn kill_minus_9_recovers_every_session_to_its_last_sync_barrier() {
    iixml_par::set_threads(None);
    let root = scratch("crash");
    let server = Server::start(server_cfg(&root)).expect("server start");
    let port = server.port();

    // Six sessions across two tenants, each driven through the same
    // fetch sequence with a sync() barrier partway.
    let sessions: Vec<(String, String, u64)> = (0..6)
        .map(|i| {
            (
                format!("t{:02}", i % 2),
                format!("s{i:03}"),
                0xBA5E + i as u64,
            )
        })
        .collect();
    for (tenant, session, seed) in &sessions {
        let mut c = Client::connect(port, tenant, 5000, 5000).expect("connect");
        let resp = c.open(session, 3, *seed).expect("open");
        assert!(resp.body.starts_with("created"), "{}", resp.body);
        for (k, bound) in CRASH_BOUNDS.iter().enumerate() {
            if k == SYNC_BARRIER {
                c.sync(session).expect("sync barrier");
            }
            let q = format!("catalog/product{{name, price[< {bound}]}}");
            c.fetch(session, &q).expect("fetch");
        }
        // No sync after the tail: those records sit in the group-commit
        // buffer when the power goes out.
    }

    // kill -9: all in-memory state dropped, nothing flushed.
    server.crash();

    // The contract: recovery lands on the barrier. Build each session's
    // expected knowledge by replaying exactly the synced prefix against
    // a fresh source.
    let mut want = BTreeMap::new();
    for (tenant, session, seed) in &sessions {
        let cat = catalog(3, *seed);
        let mut alpha = cat.alpha.clone();
        let mut reference = Session::open(cat.alpha, Source::new(cat.doc, Some(cat.ty)));
        for bound in &CRASH_BOUNDS[..SYNC_BARRIER] {
            let q = format!("catalog/product{{name, price[< {bound}]}}");
            let q = parse_ps_query(&q, &mut alpha).expect("query");
            reference.fetch(&q).expect("reference fetch");
        }
        want.insert(
            format!("{tenant}/{session}"),
            write_incomplete_xml(reference.knowledge(), &alpha),
        );
    }

    // Restart and compare, at recovery width 1 and width 4: both must
    // land on the same bytes.
    let mut recovered = Vec::new();
    for width in [1usize, 4] {
        iixml_par::set_threads(Some(width));
        let server = Server::start(server_cfg(&root)).expect("restart");
        let got = harvest(&server);
        // Reconnecting clients see the recovery marker, not a fault.
        let (tenant, session, _) = &sessions[0];
        let mut c = Client::connect(server.port(), tenant, 5000, 5000).expect("reconnect");
        let resp = c.open(session, 3, sessions[0].2).expect("reattach");
        assert!(
            resp.body.starts_with("attached"),
            "expected attach, got {}",
            resp.body
        );
        let marker = resp.marker().unwrap_or_default();
        assert!(
            marker == "ok" || marker.starts_with("recovered:"),
            "expected a clean or recovered marker, got {marker:?}"
        );
        drop(c);
        let drain = server.shutdown();
        assert!(drain.faults.is_empty(), "drain faults: {:?}", drain.faults);
        recovered.push(got);
    }
    iixml_par::set_threads(None);

    assert_eq!(
        recovered[0], recovered[1],
        "recovery must be byte-identical across par widths"
    );
    assert_eq!(
        recovered[0], want,
        "recovery must land exactly on each session's last sync() barrier"
    );
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn deep_queries_are_refused_and_the_server_lives_on() {
    let root = scratch("deep");
    let server = Server::start(server_cfg(&root)).expect("server start");
    let port = server.port();
    // 40 000 levels, 80 KB: well inside one frame.
    let deep = format!("catalog{}", "/a".repeat(40_000));

    let mut c = Client::connect(port, "t00", 5000, 5000).expect("connect");
    c.open("deep", 3, 0xDEE9).expect("open");
    let replies = [
        ("fetch", c.fetch("deep", &deep)),
        ("ask", c.ask("deep", &deep)),
        ("mediate", c.mediate("deep", &deep)),
    ];
    for (what, reply) in replies {
        let resp = reply.unwrap_or_else(|e| panic!("{what}: no reply: {e}"));
        assert_eq!(resp.op, RespOp::Err, "{what}: {}", resp.body);
        assert_eq!(resp.lines().first().copied(), Some("bad-query"), "{what}");
    }
    let pong = c.ping().expect("ping after deep queries");
    assert_eq!(pong.op, RespOp::Pong);

    // Another session still gets normal answers.
    let mut other = Client::connect(port, "t01", 5000, 5000).expect("connect");
    other.open("plain", 3, 0xBA5E).expect("open");
    let resp = other
        .fetch("plain", "catalog/product{name, price[< 200]}")
        .expect("fetch");
    assert_eq!(resp.op, RespOp::Answer, "{}", resp.body);

    drop((c, other));
    let drain = server.shutdown();
    assert!(drain.faults.is_empty(), "drain faults: {:?}", drain.faults);
    let _ = std::fs::remove_dir_all(&root);
}
