//! Cold start of a journaled fleet (DESIGN §11–§12).
//!
//! A restarted server needs each session's knowledge before its first
//! Ask, and the session's source document only at the first request
//! that reaches the source. `Server::start` recovers every journal in
//! one fan-out and gives each recovered session a [`CatalogSource`]
//! that generates its catalog on first use. On a 16-session fleet at
//! par widths 1 and 4 this checks:
//!
//! * Asks after the start generate no source;
//! * the first Fetch generates the source and answers as a fresh
//!   session fed the same history would, leaving the same knowledge;
//! * a session whose log head is destroyed rebases exactly as
//!   `Session::recover` does in process: same knowledge, same journal
//!   files;
//! * recovered knowledge is byte-identical at both widths;
//! * one journal that cannot be recovered still fails `Server::start`.

use iixml_core::io::write_incomplete_xml;
use iixml_gen::rng::DetRng;
use iixml_gen::testkit;
use iixml_query::parse::parse_ps_query;
use iixml_serve::{CatalogSource, Client, Resp, RespOp, ServeConfig, ServeError, Server};
use iixml_store::format::SEGMENT_HEADER_LEN;
use iixml_store::wal::Wal;
use iixml_webhouse::{LocalAnswer, Session, Source, SourceEndpoint};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Catalog size of every session.
const PRODUCTS: usize = 6;
/// Fetches before the restart: past the snapshot at record 32, with a
/// tail the recovery replays.
const FETCHES: usize = 36;
/// The session whose log head is destroyed before the restart.
const HEADLESS: &str = "ta/s0";

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("iixml-serverecovery-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_tree(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        let dst = to.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_tree(&entry.path(), &dst);
        } else {
            std::fs::copy(entry.path(), dst).unwrap();
        }
    }
}

/// Every file of a journal directory, by name, with its bytes.
fn files(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let e = e.unwrap();
            let name = e.file_name().to_string_lossy().into_owned();
            (name, std::fs::read(e.path()).unwrap())
        })
        .collect()
}

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

/// The price window `k` of the `restart` workload.
fn window(k: usize) -> String {
    let lo = 10 + 5 * k;
    format!("catalog/product{{name, price[>= {lo} & < {}]}}", lo + 5)
}

/// What a fresh in-process session with a plan's history gives.
struct Expect {
    /// Knowledge after the plan's windows.
    knowledge: String,
    /// Nodes answering the Ask of the middle window.
    ask: usize,
    /// Nodes answering the first Fetch after the restart.
    fetch: usize,
    /// Knowledge after that Fetch.
    after: String,
}

/// One session of the fleet: where it lives, its catalog seed, and the
/// windows it fetched before the restart.
struct Plan {
    tenant: String,
    session: String,
    seed: u64,
    windows: Vec<usize>,
}

impl Plan {
    fn scoped(&self) -> String {
        format!("{}/{}", self.tenant, self.session)
    }

    /// The window its first Fetch after the restart asks for.
    fn next_window(&self) -> usize {
        (0..98).find(|k| !self.windows.contains(k)).unwrap()
    }

    /// A fresh in-process session on the same catalog, fed `windows`.
    fn fresh(&self, windows: &[usize]) -> Session<Source> {
        let cat = iixml_gen::catalog(PRODUCTS, self.seed);
        let mut s = Session::open(cat.alpha, Source::new(cat.doc, Some(cat.ty)));
        for &k in windows {
            let q = parse_ps_query(&window(k), s.alphabet_mut()).unwrap();
            s.fetch(&q).unwrap();
        }
        s
    }

    /// What a fresh session with this plan's history gives.
    fn expect(&self) -> Expect {
        let mut fresh = self.fresh(&self.windows);
        let before = knowledge(&fresh);
        let ask = parse_ps_query(&window(self.windows[FETCHES / 2]), fresh.alphabet_mut()).unwrap();
        let ask = fresh.answer_locally(&ask);
        let ask = match ask {
            LocalAnswer::Complete(t) => t.map_or(0, |t| t.len()),
            other => panic!(
                "{}: a fetched window must be answered: {other:?}",
                self.scoped()
            ),
        };
        let q = parse_ps_query(&window(self.next_window()), fresh.alphabet_mut()).unwrap();
        let fetch = fresh.fetch(&q).unwrap().len();
        Expect {
            knowledge: before,
            ask,
            fetch,
            after: knowledge(&fresh),
        }
    }
}

/// `n` sessions over two tenants, each with its own catalog seed and
/// `FETCHES` distinct windows in random order, drawn from the test
/// seed.
fn plans(n: usize) -> Vec<Plan> {
    let mut rng = DetRng::new(testkit::base_seed() ^ 0xC01D);
    (0..n)
        .map(|i| {
            let mut all: Vec<usize> = (0..98).collect();
            for j in (1..all.len()).rev() {
                all.swap(j, rng.below(j as u64 + 1) as usize);
            }
            all.truncate(FETCHES);
            Plan {
                tenant: ["ta", "tb"][i % 2].to_string(),
                session: format!("s{}", i / 2),
                seed: rng.next_u64(),
                windows: all,
            }
        })
        .collect()
}

/// Runs every plan against a fresh server journaling under `root`,
/// syncs, and shuts the server down.
fn write_fleet(root: &Path, plans: &[Plan]) {
    let server = Server::start(server_cfg(root)).expect("server start");
    for p in plans {
        let mut c = Client::connect(server.port(), &p.tenant, 5000, 5000).unwrap();
        let resp = c.open(&p.session, PRODUCTS, p.seed).unwrap();
        assert!(resp.body.starts_with("created"), "{}", resp.body);
        for &k in &p.windows {
            assert_eq!(c.fetch(&p.session, &window(k)).unwrap().op, RespOp::Answer);
        }
        assert_eq!(c.sync(&p.session).unwrap().op, RespOp::Ok);
    }
    let drain = server.shutdown();
    assert!(drain.faults.is_empty(), "drain faults: {:?}", drain.faults);
}

/// Truncates every log segment of a journal to its header, keeping the
/// snapshots: recovery must then rebase onto a fresh log.
fn destroy_log_head(jdir: &Path) {
    for (_, seg) in Wal::segments(jdir).unwrap() {
        let file = std::fs::OpenOptions::new().write(true).open(seg).unwrap();
        file.set_len(SEGMENT_HEADER_LEN as u64).unwrap();
    }
}

fn jdir(root: &Path, scoped: &str) -> PathBuf {
    let (tenant, session) = scoped.split_once('/').unwrap();
    root.join(tenant).join(format!("{session}.j"))
}

fn knowledge<E: SourceEndpoint>(s: &Session<E>) -> String {
    write_incomplete_xml(s.knowledge(), s.alphabet())
}

/// Every live session's knowledge and whether its source is built.
fn harvest(server: &Server) -> BTreeMap<String, (String, bool)> {
    server
        .session_names()
        .into_iter()
        .map(|scoped| {
            let (tenant, session) = scoped.split_once('/').unwrap();
            let got = server
                .with_session(tenant, session, |s| (knowledge(s), s.source().is_built()))
                .unwrap();
            (scoped, got)
        })
        .collect()
}

fn nodes(resp: &Resp) -> usize {
    let line = resp.lines().into_iter().find(|l| l.starts_with("nodes="));
    line.and_then(|l| l["nodes=".len()..].parse().ok())
        .unwrap_or_else(|| panic!("no node count in {:?} {}", resp.op, resp.body))
}

#[test]
fn a_cold_start_builds_each_source_on_first_use() {
    let base = scratch("fleet");
    let image = base.join("image");
    let plans = plans(16);
    write_fleet(&image, &plans);

    // The in-process reference for the headless session: recover a copy
    // of the same image with `Session::recover` and its own source.
    let headless = plans.iter().find(|p| p.scoped() == HEADLESS).unwrap();
    let in_process = base.join("in-process");
    copy_tree(&image, &in_process);
    destroy_log_head(&jdir(&in_process, HEADLESS));
    let cat = iixml_gen::catalog(PRODUCTS, headless.seed);
    let (mut rebased, report) = Session::recover(
        &jdir(&in_process, HEADLESS),
        Source::new(cat.doc, Some(cat.ty)),
    )
    .unwrap();
    assert!(report.rebased, "a destroyed log head must be rebased");
    let rebased_knowledge = knowledge(&rebased);
    let q = parse_ps_query(&window(headless.next_window()), rebased.alphabet_mut()).unwrap();
    let rebased_fetch = rebased.fetch(&q).unwrap().len();
    let rebased_after = knowledge(&rebased);
    rebased.sync_journal().unwrap();
    drop(rebased);
    let rebased_files = files(&jdir(&in_process, HEADLESS));

    let expect: BTreeMap<String, Expect> = plans.iter().map(|p| (p.scoped(), p.expect())).collect();

    let mut at_start = Vec::new();
    let mut after_fetch = Vec::new();
    for width in [1usize, 4] {
        let root = base.join(format!("w{width}"));
        copy_tree(&image, &root);
        destroy_log_head(&jdir(&root, HEADLESS));
        iixml_par::set_threads(Some(width));
        let server = Server::start(server_cfg(&root)).expect("restart");
        iixml_par::set_threads(None);
        let stats = server.stats_json();
        assert_eq!(
            stats.matches("\"rebased\": true").count(),
            1,
            "width {width}: exactly the headless session rebases:\n{stats}"
        );

        // Only the rebase needed a declared type, so only the headless
        // session's source is built.
        let started = harvest(&server);
        assert_eq!(started.len(), plans.len());
        for (scoped, (_, built)) in &started {
            assert_eq!(*built, scoped == HEADLESS, "width {width}: {scoped} built");
        }

        // Asks are answered from the knowledge and build nothing.
        for p in &plans {
            let mut c = Client::connect(server.port(), &p.tenant, 5000, 5000).unwrap();
            let resp = c.ask(&p.session, &window(p.windows[FETCHES / 2])).unwrap();
            assert_eq!(resp.op, RespOp::Answer, "{}: {}", p.scoped(), resp.body);
            assert_eq!(nodes(&resp), expect[&p.scoped()].ask, "{}", p.scoped());
        }
        let asked = harvest(&server);
        for (scoped, (text, built)) in &asked {
            assert_eq!(
                *built,
                scoped == HEADLESS,
                "width {width}: an Ask built {scoped}"
            );
            let want = if scoped == HEADLESS {
                &rebased_knowledge
            } else {
                &expect[scoped].knowledge
            };
            assert_eq!(text, want, "width {width}: {scoped} recovered knowledge");
        }
        at_start.push(asked);

        // The first Fetch builds the source and answers as a fresh
        // session with the same history does.
        for p in &plans {
            let mut c = Client::connect(server.port(), &p.tenant, 5000, 5000).unwrap();
            let resp = c.fetch(&p.session, &window(p.next_window())).unwrap();
            assert_eq!(resp.op, RespOp::Answer, "{}: {}", p.scoped(), resp.body);
            let want = if p.scoped() == HEADLESS {
                rebased_fetch
            } else {
                expect[&p.scoped()].fetch
            };
            assert_eq!(nodes(&resp), want, "{}", p.scoped());
        }
        let fetched = harvest(&server);
        for (scoped, (text, built)) in &fetched {
            assert!(built, "width {width}: a Fetch left {scoped} unbuilt");
            let want = if scoped == HEADLESS {
                &rebased_after
            } else {
                &expect[scoped].after
            };
            assert_eq!(text, want, "width {width}: {scoped} after its first Fetch");
        }
        after_fetch.push(fetched);
        let drain = server.shutdown();
        assert!(drain.faults.is_empty(), "drain faults: {:?}", drain.faults);
        assert_eq!(
            files(&jdir(&root, HEADLESS)),
            rebased_files,
            "width {width}: the rebased journal differs from the in-process rebase"
        );
    }
    assert_eq!(at_start[0], at_start[1], "recovery differs across widths");
    assert_eq!(
        after_fetch[0], after_fetch[1],
        "first Fetches differ across widths"
    );
    let _ = std::fs::remove_dir_all(&base);
}

#[test]
fn one_unrecoverable_journal_fails_the_start() {
    let root = scratch("corrupt");
    let plans = plans(4);
    write_fleet(&root, &plans[..]);
    // Garbage over every segment of one journal, with no snapshot to
    // fall back on.
    let dir = jdir(&root, &plans[1].scoped());
    for (_, path) in iixml_store::snapshot::list(&dir).unwrap() {
        std::fs::remove_file(path).unwrap();
    }
    for (_, seg) in Wal::segments(&dir).unwrap() {
        let len = std::fs::metadata(&seg).unwrap().len() as usize;
        std::fs::write(&seg, vec![0xA5u8; len]).unwrap();
    }
    match Server::start(server_cfg(&root)) {
        Err(ServeError::Recover(_)) => {}
        Err(e) => panic!("expected a recovery failure, got {e}"),
        Ok(server) => {
            let names = server.session_names();
            server.shutdown();
            panic!("the server started over an unrecoverable journal: {names:?}");
        }
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// The endpoint the server gives a session reports what it has
/// shipped only once built.
#[test]
fn a_lazy_catalog_source_builds_on_its_first_query() {
    let mut lazy = CatalogSource::lazy(PRODUCTS, 7);
    assert!(!lazy.is_built());
    assert_eq!(lazy.queries_served(), 0);
    let cat = iixml_gen::catalog(PRODUCTS, 7);
    let mut alpha = cat.alpha.clone();
    let q = parse_ps_query(&window(3), &mut alpha).unwrap();
    let mut eager = Source::new(cat.doc, Some(cat.ty));
    let want = eager.ask(&q).unwrap();
    let got = lazy.ask(&q).unwrap();
    assert!(lazy.is_built());
    assert_eq!(got.len(), want.len());
    assert_eq!(lazy.queries_served(), 1);
}
