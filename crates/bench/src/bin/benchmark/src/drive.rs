//! `run`: the end-to-end measurement. An in-process `Server` over real
//! TCP, driven by `CLIENTS` closed-loop client threads (each sends its
//! next request only after the previous reply), with no tracing.

use crate::pipeline::{self, Op, Pipeline};
use crate::report::{self, Metric, Outcome, Tally};
use crate::workload::{self, ClientPlan, Kind, Script, Sizes, Step, Workload};
use iixml_core::io::write_incomplete_xml;
use iixml_obs::json::Json;
use iixml_query::parse_ps_query;
use iixml_serve::{Client, Request, Resp, RespOp, ServeConfig, Server};
use iixml_webhouse::{Session, Source};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per `run`; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// Resident-set sampling period during the measured phase.
const RSS_EVERY: Duration = Duration::from_millis(100);
/// Leading share of the measured window that is checked but not timed.
const WARMUP: f64 = 0.05;
/// Client deadlines: generous, so only a hung server trips them.
const TIMEOUT_MS: u64 = 30_000;

/// `ServeConfig::default()` with a journal root, the batched
/// group-commit journal, and admission caps the honest load never hits.
pub fn serve_config(root: &Path) -> ServeConfig {
    let mut cfg = ServeConfig {
        journal_root: Some(root.to_path_buf()),
        batched_journal: true,
        ..ServeConfig::default()
    };
    cfg.admission.max_sessions = 1 << 20;
    cfg.admission.max_inflight = 1 << 20;
    cfg.admission.quota_burst = 1 << 40;
    cfg.admission.quota_refill = 1 << 40;
    cfg
}

/// The wire request for `step` on `session`.
pub fn request(session: &str, step: &Step) -> Request {
    let session = session.to_string();
    let query = step.query.clone();
    match step.kind {
        Kind::Fetch | Kind::Revisit => Request::Fetch { session, query },
        Kind::Ask => Request::Ask { session, query },
        Kind::Mediate => Request::Mediate { session, query },
        Kind::Sync => Request::Sync { session },
        Kind::Close => Request::Close { session },
        Kind::Open | Kind::Restart => unreachable!("built by open_request / Server::start"),
    }
}

pub fn open_request(session: &str, script: &Script) -> Request {
    Request::Open {
        session: session.to_string(),
        products: script.products,
        seed: script.cat_seed,
    }
}

pub const OPEN: Step = Step {
    kind: Kind::Open,
    query: String::new(),
    expect: 0,
};

/// Does `r` carry exactly the answer `step` must get, with the `ok`
/// durability marker?
pub fn answer_ok(step: &Step, r: &Resp) -> bool {
    let lines = r.lines();
    let nodes = format!("nodes={}", step.expect);
    let contain = |l: &str| l == "contain=hit" || l == "contain=miss";
    match step.kind {
        Kind::Open => r.op == RespOp::Opened && lines == ["created", "ok"],
        Kind::Fetch | Kind::Revisit | Kind::Mediate => {
            r.op == RespOp::Answer
                && lines.len() == 3
                && lines[0] == "ok"
                && lines[1] == nodes
                && contain(lines[2])
        }
        Kind::Ask => r.op == RespOp::Answer && lines == ["ok", nodes.as_str()],
        Kind::Sync => r.op == RespOp::Ok && lines == ["synced", "ok"],
        Kind::Close => r.op == RespOp::Ok && lines == ["closed", "ok"],
        Kind::Restart => false,
    }
}

/// The serialized knowledge of a live server session.
fn knowledge_xml(server: &Server, tenant: &str, session: &str) -> Option<String> {
    server.with_session(tenant, session, |s| {
        write_incomplete_xml(s.knowledge(), s.alphabet())
    })
}

/// The knowledge a session holds after its first `fetches` Fetches,
/// rebuilt in-process from the script alone.
pub fn knowledge_after(script: &Script, fetches: usize) -> String {
    let cat = iixml_gen::catalog(script.products, script.cat_seed);
    let mut s = Session::open(cat.alpha, Source::new(cat.doc, Some(cat.ty)));
    for st in script
        .steps
        .iter()
        .filter(|s| matches!(s.kind, Kind::Fetch | Kind::Revisit))
        .take(fetches)
    {
        let q = parse_ps_query(&st.query, s.alphabet_mut()).expect("generated queries parse");
        s.fetch(&q).expect("a reliable source answers");
    }
    write_incomplete_xml(s.knowledge(), s.alphabet())
}

/// A session still open when its client stopped.
struct Live {
    client: usize,
    script: usize,
    name: String,
    /// Fetches covered by the last acknowledged Sync.
    synced: usize,
}

/// What one client thread saw.
struct ClientOut {
    lat: Vec<Vec<u64>>,
    tally: Tally,
    timed: u64,
    last_end: Option<Instant>,
    lookups: u64,
    hits: u64,
    live: Vec<Live>,
    broken: bool,
}

impl ClientOut {
    fn new() -> ClientOut {
        ClientOut {
            lat: vec![Vec::new(); Kind::ALL.len()],
            tally: Tally::default(),
            timed: 0,
            last_end: None,
            lookups: 0,
            hits: 0,
            live: Vec::new(),
            broken: false,
        }
    }

    /// Sends `req`, checks the reply against `step`, and times it when
    /// it starts after `warm_end`. Returns false once the connection is
    /// unusable.
    fn exchange(
        &mut self,
        client: &mut Client,
        req: &Request,
        step: &Step,
        warm_end: Instant,
    ) -> bool {
        let t0 = Instant::now();
        let resp = client.call(req);
        let end = Instant::now();
        match resp {
            Ok(r) => {
                if t0 >= warm_end {
                    self.lat[step.kind.ix()].push((end - t0).as_nanos() as u64);
                    self.timed += 1;
                    self.last_end = Some(end);
                }
                if matches!(step.kind, Kind::Fetch | Kind::Revisit | Kind::Mediate) {
                    self.lookups += 1;
                    self.hits += u64::from(r.body.ends_with("contain=hit"));
                }
                self.tally.check(answer_ok(step, &r), || {
                    format!(
                        "{:?} {:?} -> {:?} {:?}",
                        step.kind, step.query, r.op, r.body
                    )
                });
                true
            }
            Err(e) => {
                self.tally
                    .check(false, || format!("{:?}: transport error {e}", step.kind));
                self.broken = true;
                false
            }
        }
    }
}

/// Opens each script's session (under its fixed name) and sends its
/// steps: the set-up of `ReadHeavy`.
fn fill(w: Workload, plan: &ClientPlan, client: &mut Client) -> ClientOut {
    let never = Instant::now() + Duration::from_secs(86_400);
    let mut out = ClientOut::new();
    for (i, script) in plan.scripts.iter().enumerate() {
        let name = workload::session_name(w, i, 0);
        if !out.exchange(client, &open_request(&name, script), &OPEN, never) {
            return out;
        }
        for st in &script.steps {
            if !out.exchange(client, &request(&name, st), st, never) {
                return out;
            }
        }
    }
    out
}

/// Session lives back to back until `deadline`; the session in progress
/// at the deadline stays open.
fn drive_sessions(
    w: Workload,
    c: usize,
    plan: &ClientPlan,
    client: &mut Client,
    warm_end: Instant,
    deadline: Instant,
) -> ClientOut {
    let mut out = ClientOut::new();
    for cycle in 0u64.. {
        for (i, script) in plan.scripts.iter().enumerate() {
            if Instant::now() >= deadline {
                return out;
            }
            let name = workload::session_name(w, i, cycle);
            if !out.exchange(client, &open_request(&name, script), &OPEN, warm_end) {
                return out;
            }
            let mut live = Live {
                client: c,
                script: i,
                name,
                synced: 0,
            };
            let mut fetched = 0;
            for st in &script.steps {
                if Instant::now() >= deadline {
                    out.live.push(live);
                    return out;
                }
                if !out.exchange(client, &request(&live.name, st), st, warm_end) {
                    return out;
                }
                match st.kind {
                    Kind::Fetch | Kind::Revisit => fetched += 1,
                    Kind::Sync => live.synced = fetched,
                    _ => {}
                }
            }
        }
    }
    out
}

/// `reads`, cycled, until `deadline`.
fn drive_reads(
    w: Workload,
    plan: &ClientPlan,
    client: &mut Client,
    warm_end: Instant,
    deadline: Instant,
) -> ClientOut {
    let mut out = ClientOut::new();
    for (s, st) in plan.reads.iter().cycle() {
        if Instant::now() >= deadline {
            break;
        }
        let req = request(&workload::session_name(w, *s, 0), st);
        if !out.exchange(client, &req, st, warm_end) {
            break;
        }
    }
    out
}

/// A set-up fleet, ready for the measured phase.
struct Fleet {
    plans: Vec<ClientPlan>,
    root: PathBuf,
    server: Option<Server>,
    clients: Vec<Client>,
    /// `Restart`: every session's knowledge before shutdown, and the
    /// journal root's size, which restarts must leave unchanged.
    before: Vec<(String, String, Option<String>)>,
    disk: u64,
}

fn connect(port: u16, plans: &[ClientPlan]) -> Result<Vec<Client>, String> {
    plans
        .iter()
        .map(|p| {
            Client::connect(port, &p.tenant, TIMEOUT_MS, TIMEOUT_MS)
                .map_err(|e| format!("connect: {e}"))
        })
        .collect()
}

fn set_up(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    root: &Path,
    tally: &mut Tally,
) -> Result<Fleet, String> {
    let plans = workload::plan(w, sizes, seed);
    let _ = std::fs::remove_dir_all(root);
    std::fs::create_dir_all(root).map_err(|e| format!("{}: {e}", root.display()))?;
    if w == Workload::Restart {
        return Ok(write_fleet(sizes, plans, root, tally));
    }
    let server = Server::start(serve_config(root)).map_err(|e| e.to_string())?;
    let mut clients = connect(server.port(), &plans)?;
    if w == Workload::ReadHeavy {
        let outs: Vec<ClientOut> = std::thread::scope(|sc| {
            let handles: Vec<_> = plans
                .iter()
                .zip(clients.iter_mut())
                .map(|(p, c)| sc.spawn(move || fill(w, p, c)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("set-up client thread"))
                .collect()
        });
        for o in outs {
            tally.merge(o.tally);
        }
    }
    Ok(Fleet {
        plans,
        root: root.to_path_buf(),
        server: Some(server),
        clients,
        before: Vec::new(),
        disk: 0,
    })
}

/// `Restart`'s set-up: the fleet's journals are written by the
/// in-process pipeline on this thread (the server's calls, with
/// byte-identical journals). Written through a server, they would leave
/// its connection threads' allocator arenas holding memory that varies
/// from process to process and swamps `rss_mb`.
fn write_fleet(sizes: &Sizes, plans: Vec<ClientPlan>, root: &Path, tally: &mut Tally) -> Fleet {
    let w = Workload::Restart;
    let mut p = Pipeline::new(root, false, 0);
    let (setup, _) = pipeline::trace_ops(w, sizes, &plans);
    let mut before = Vec::new();
    for op in &setup {
        if matches!(op, Op::Shutdown) {
            before = p.knowledge(w, &plans);
        }
        p.run_op(&plans, op, tally);
    }
    drop(p);
    Fleet {
        disk: report::dir_bytes(root),
        plans,
        root: root.to_path_buf(),
        server: None,
        clients: Vec::new(),
        before,
    }
}

fn drain(server: Server, tally: &mut Tally) {
    let report = server.shutdown();
    tally.check(report.faults.is_empty(), || {
        format!("drain faults: {:?}", report.faults)
    });
}

fn tear_down(mut fleet: Fleet, tally: &mut Tally) {
    fleet.clients.clear();
    if let Some(server) = fleet.server.take() {
        drain(server, tally);
    }
    let _ = std::fs::remove_dir_all(&fleet.root);
}

/// Measures workload `w` for `seconds`, then times `setups - 1` more
/// set-ups. The extra set-ups come after the measured phase so the
/// memory they leave behind never shows in `rss_mb`.
pub fn run(
    w: Workload,
    sizes: &Sizes,
    seed: u64,
    seconds: f64,
    out_dir: &Path,
    setups: usize,
) -> Result<Outcome, String> {
    let mut tally = Tally::default();
    let mut setup_s = Vec::new();
    let mut timed_set_up = |k: usize, tally: &mut Tally| -> Result<Fleet, String> {
        let root = out_dir.join(format!("journal-{}-{}-{k}", w.name(), std::process::id()));
        let t = Instant::now();
        let f = set_up(w, sizes, seed, &root, tally)?;
        setup_s.push(t.elapsed().as_secs_f64());
        Ok(f)
    };
    let mut fleet = timed_set_up(0, &mut tally)?;
    let start = Instant::now();
    let warm_end = start + Duration::from_secs_f64(seconds * WARMUP);
    let deadline = start + Duration::from_secs_f64(seconds);
    let (mut m, rss) = std::thread::scope(|sc| {
        let sampler = sc.spawn(|| sample_rss(warm_end, deadline));
        let m = measure(w, sizes, &mut fleet, warm_end, deadline, &mut tally);
        (m, sampler.join().expect("rss sampler thread"))
    });
    tear_down(fleet, &mut tally);
    for k in 1..setups {
        let f = timed_set_up(k, &mut tally)?;
        tear_down(f, &mut tally);
    }

    let (op1, op2) = w.roles();
    // Recorded, not a metric: on a shared VM the top 1% of latencies
    // follows the hypervisor's pauses, not the program (see README.md).
    let op1_p99_us = report::quantile(&mut m.lat1, 0.99) / 1e3;
    let metrics = vec![
        Metric::new("ops_per_s", m.ops_per_s, "op/s"),
        Metric::new(
            "op1_p50_us",
            report::quantile(&mut m.lat1, 0.50) / 1e3,
            "us",
        )
        .with_n(m.lat1.len()),
        Metric::new(
            "op2_p50_us",
            report::quantile(&mut m.lat2, 0.50) / 1e3,
            "us",
        )
        .with_n(m.lat2.len()),
        Metric::new("setup_s", report::median(&setup_s), "s").with_n(setup_s.len()),
        Metric::new("rss_mb", report::median(&rss), "MiB").with_n(rss.len()),
    ];
    let info = m
        .info
        .set("op1", op1.name())
        .set("op2", op2.name())
        .set("op1_p99_us", op1_p99_us)
        .set("seconds", seconds);
    Ok(Outcome {
        metrics,
        tally,
        info,
    })
}

/// Resident set size every 100 ms from `from` to `until`.
fn sample_rss(from: Instant, until: Instant) -> Vec<f64> {
    std::thread::sleep(from.saturating_duration_since(Instant::now()));
    let mut v = vec![report::resident_mb()];
    while Instant::now() + RSS_EVERY < until {
        std::thread::sleep(RSS_EVERY);
        v.push(report::resident_mb());
    }
    v
}

/// Timings of the measured phase.
struct Measured {
    ops_per_s: f64,
    lat1: Vec<u64>,
    lat2: Vec<u64>,
    info: Json,
}

fn measure(
    w: Workload,
    sizes: &Sizes,
    fleet: &mut Fleet,
    warm_end: Instant,
    deadline: Instant,
    tally: &mut Tally,
) -> Measured {
    if w == Workload::Restart {
        let r = restarts(fleet, sizes, warm_end, deadline, tally);
        let secs: f64 = r.starts.iter().map(|&ns| ns as f64 / 1e9).sum();
        return Measured {
            ops_per_s: r.recovered as f64 / secs.max(f64::MIN_POSITIVE),
            info: Json::obj()
                .set("timed_restarts", r.starts.len())
                .set("restarts", r.cycles),
            lat1: r.asks,
            lat2: r.starts,
        };
    }
    let server = fleet.server.take().expect("serving");
    let plans = &fleet.plans;
    let outs: Vec<ClientOut> = std::thread::scope(|sc| {
        let handles: Vec<_> = plans
            .iter()
            .zip(fleet.clients.iter_mut())
            .enumerate()
            .map(|(c, (p, cl))| {
                sc.spawn(move || match w {
                    Workload::ReadHeavy => drive_reads(w, p, cl, warm_end, deadline),
                    _ => drive_sessions(w, c, p, cl, warm_end, deadline),
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    fleet.clients.clear();
    let end = outs
        .iter()
        .filter_map(|o| o.last_end)
        .max()
        .unwrap_or(warm_end);
    let timed: u64 = outs.iter().map(|o| o.timed).sum();
    let (lookups, hits) = outs
        .iter()
        .fold((0, 0), |(l, h), o| (l + o.lookups, h + o.hits));
    let mut m = Measured {
        ops_per_s: timed as f64 / (end - warm_end).as_secs_f64().max(f64::MIN_POSITIVE),
        lat1: Vec::new(),
        lat2: Vec::new(),
        info: Json::obj()
            .set("timed_requests", timed)
            .set("containment_hit_frac", hits as f64 / lookups.max(1) as f64),
    };
    let (op1, op2) = w.roles();
    let mut live = Vec::new();
    let mut broken = false;
    for mut o in outs {
        m.lat1.append(&mut o.lat[op1.ix()]);
        m.lat2.append(&mut o.lat[op2.ix()]);
        live.append(&mut o.live);
        broken |= o.broken;
        tally.merge(o.tally);
    }
    if w == Workload::DurableWrite && !broken {
        m.info = m.info.set("crashed_live_sessions", live.len());
        crash_check(server, fleet, &live, tally);
    } else {
        drain(server, tally);
    }
    m
}

/// `Server::crash()` with sessions mid-life, then a cold start: every
/// open session must come back exactly as of its last acknowledged
/// Sync.
fn crash_check(server: Server, fleet: &Fleet, live: &[Live], tally: &mut Tally) {
    server.crash();
    let server = match Server::start(serve_config(&fleet.root)) {
        Ok(s) => s,
        Err(e) => return tally.check(false, || format!("restart after crash: {e}")),
    };
    let names = server.session_names();
    tally.check(names.len() == live.len(), || {
        format!(
            "{} sessions recovered, {} were open",
            names.len(),
            live.len()
        )
    });
    for l in live {
        let plan = &fleet.plans[l.client];
        let want = knowledge_after(&plan.scripts[l.script], l.synced);
        let got = knowledge_xml(&server, &plan.tenant, &l.name);
        tally.check(got.as_deref() == Some(want.as_str()), || {
            format!(
                "{}/{} did not recover to its last Sync",
                plan.tenant, l.name
            )
        });
    }
    drain(server, tally);
}

struct Restarts {
    asks: Vec<u64>,
    starts: Vec<u64>,
    recovered: usize,
    cycles: usize,
}

/// Cold starts until `deadline`. After each, every session answers one
/// Ask, then its knowledge and the journal root are compared with the
/// state before the first shutdown.
fn restarts(
    fleet: &Fleet,
    sizes: &Sizes,
    warm_end: Instant,
    deadline: Instant,
    tally: &mut Tally,
) -> Restarts {
    let w = Workload::Restart;
    let mut r = Restarts {
        asks: Vec::new(),
        starts: Vec::new(),
        recovered: 0,
        cycles: 0,
    };
    while Instant::now() < deadline {
        let t0 = Instant::now();
        let server = match Server::start(serve_config(&fleet.root)) {
            Ok(s) => s,
            Err(e) => {
                tally.check(false, || format!("cold start: {e}"));
                break;
            }
        };
        let start_ns = t0.elapsed().as_nanos() as u64;
        let timed = t0 >= warm_end;
        let cycle = r.cycles;
        let port = server.port();
        let outs: Vec<ClientOut> = std::thread::scope(|sc| {
            let handles: Vec<_> = fleet
                .plans
                .iter()
                .map(|p| {
                    sc.spawn(move || {
                        let mut out = ClientOut::new();
                        let mut client =
                            match Client::connect(port, &p.tenant, TIMEOUT_MS, TIMEOUT_MS) {
                                Ok(c) => c,
                                Err(e) => {
                                    out.tally.check(false, || format!("connect: {e}"));
                                    return out;
                                }
                            };
                        let when = if timed {
                            t0
                        } else {
                            Instant::now() + Duration::from_secs(86_400)
                        };
                        for j in 0..sizes.sessions {
                            let (s, st) = &p.reads[(cycle * sizes.sessions + j) % p.reads.len()];
                            let req = request(&workload::session_name(w, *s, 0), st);
                            if !out.exchange(&mut client, &req, st, when) {
                                break;
                            }
                        }
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let names = server.session_names();
        tally.check(names.len() == fleet.before.len(), || {
            format!(
                "{} sessions recovered of {}",
                names.len(),
                fleet.before.len()
            )
        });
        for (tenant, name, xml) in &fleet.before {
            let got = knowledge_xml(&server, tenant, name);
            tally.check(xml.is_some() && got == *xml, || {
                format!("{tenant}/{name}: recovered knowledge differs")
            });
        }
        drain(server, tally);
        let disk = report::dir_bytes(&fleet.root);
        tally.check(disk == fleet.disk, || {
            format!(
                "journal root changed across a restart: {} -> {disk} bytes",
                fleet.disk
            )
        });
        for mut o in outs {
            r.asks.append(&mut o.lat[Kind::Ask.ix()]);
            tally.merge(o.tally);
        }
        if timed {
            r.starts.push(start_ns);
            r.recovered += names.len();
        }
        r.cycles += 1;
    }
    r
}
