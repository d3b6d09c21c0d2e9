//! The serve pipeline replayed in-process for `trace`: the same public
//! calls, in the same order, that `iixml-serve`'s request handling and
//! `Session` make, each wrapped in a span. Only the TCP transport,
//! connection threads and shard locks are left out; `serve.residual_us`
//! measures what they cost. The test at the bottom replays every
//! workload through this pipeline and through a real `Session` and
//! requires byte-identical knowledge and journal files after each step,
//! so the breakdown cannot drift from the program unnoticed; a second
//! test does the same against a real `Server` for the whole journal
//! root, `.meta` files included.

use crate::drive::{answer_ok, OPEN};
use crate::report::{self, Tally};
use crate::spans::{Site, Tracer};
use crate::workload::{self, ClientPlan, Kind, Script, Sizes, Step, Workload};
use iixml_contain::AnswerCache;
use iixml_core::io::write_incomplete_xml;
use iixml_core::refine::{intersect, query_answer_tree};
use iixml_core::type_intersect::restrict_to_type;
use iixml_core::{IncompleteTree, Refiner};
use iixml_mediator::Mediator;
use iixml_obs::keys;
use iixml_query::{parse_ps_query, Answer, PsQuery};
use iixml_serve::proto::{self, ReqOp, Request, RespOp, HEADER_LEN};
use iixml_serve::{Admission, Resp, ServeConfig, TenantGate};
use iixml_store::{RecoveryMode, SessionJournal, StoreIo};
use iixml_tree::Alphabet;
use iixml_webhouse::validate::validate_answer;
use iixml_webhouse::{FlushPolicy, RecoveryStatus, Source, SourceEndpoint, Webhouse};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// One request of a replay, or a fleet-wide event.
#[derive(Debug, Clone)]
pub enum Op<'a> {
    Open {
        client: usize,
        name: String,
        script: &'a Script,
    },
    Step {
        client: usize,
        name: String,
        step: &'a Step,
    },
    /// A cold start recovering every journal under the root.
    Restart,
    /// Sync and drop every session (a clean shutdown).
    Shutdown,
}

/// Yields one client's session lives back to back (the `run` loop of
/// `RefineHeavy` and `DurableWrite`).
fn session_ops<'a>(w: Workload, c: usize, plan: &'a ClientPlan) -> impl Iterator<Item = Op<'a>> {
    (0u64..).flat_map(move |cycle| {
        plan.scripts
            .iter()
            .enumerate()
            .flat_map(move |(i, script)| {
                let name = workload::session_name(w, i, cycle);
                std::iter::once(Op::Open {
                    client: c,
                    name: name.clone(),
                    script,
                })
                .chain(script.steps.iter().map(move |step| Op::Step {
                    client: c,
                    name: name.clone(),
                    step,
                }))
            })
    })
}

/// Round-robin over the clients' op streams, one op each in turn.
fn interleave<'a>(streams: Vec<Vec<Op<'a>>>) -> Vec<Op<'a>> {
    let longest = streams.iter().map(Vec::len).max().unwrap_or(0);
    let mut iters: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..longest {
        for it in &mut iters {
            out.extend(it.next());
        }
    }
    out
}

/// The set-up ops and the measured ops `trace` replays: the first
/// `sizes.trace_ops` requests of each client, interleaved.
pub fn trace_ops<'a>(
    w: Workload,
    sizes: &Sizes,
    plans: &'a [ClientPlan],
) -> (Vec<Op<'a>>, Vec<Op<'a>>) {
    let fill = |c: usize, plan: &'a ClientPlan| -> Vec<Op<'a>> {
        let mut ops = Vec::new();
        for (i, script) in plan.scripts.iter().enumerate() {
            let name = workload::session_name(w, i, 0);
            ops.push(Op::Open {
                client: c,
                name: name.clone(),
                script,
            });
            for step in &script.steps {
                ops.push(Op::Step {
                    client: c,
                    name: name.clone(),
                    step,
                });
            }
        }
        ops
    };
    let reads = |c: usize, plan: &'a ClientPlan, from: usize, n: usize| -> Vec<Op<'a>> {
        (from..from + n)
            .map(|i| {
                let (s, step) = &plan.reads[i % plan.reads.len()];
                Op::Step {
                    client: c,
                    name: workload::session_name(w, *s, 0),
                    step,
                }
            })
            .collect()
    };
    let each = |f: &dyn Fn(usize, &'a ClientPlan) -> Vec<Op<'a>>| {
        interleave(plans.iter().enumerate().map(|(c, p)| f(c, p)).collect())
    };
    match w {
        Workload::ReadHeavy => (each(&fill), each(&|c, p| reads(c, p, 0, sizes.trace_ops))),
        Workload::RefineHeavy | Workload::DurableWrite => (
            Vec::new(),
            each(&|c, p| session_ops(w, c, p).take(sizes.trace_ops).collect()),
        ),
        Workload::Restart => {
            let mut setup = each(&fill);
            setup.push(Op::Shutdown);
            let mut measured = Vec::new();
            for cycle in 0..sizes.trace_ops {
                measured.push(Op::Restart);
                measured.extend(each(&|c, p| {
                    reads(c, p, cycle * sizes.sessions, sizes.sessions)
                }));
                measured.push(Op::Shutdown);
            }
            (setup, measured)
        }
    }
}

/// Counts gathered over measured requests.
#[derive(Debug, Default)]
pub struct Counts {
    pub requests: u64,
    pub frame_bytes: u64,
    pub lookups: u64,
    pub hits: u64,
    pub fast_rejects: u64,
    pub source_calls: u64,
    pub mediates: u64,
    pub local_queries: u64,
    pub disk_growth: u64,
    pub knowledge_sizes: Vec<u64>,
}

/// A session as the server's `Session` holds it, with the fields
/// spelled out so each call can be timed.
struct Live {
    alpha: Alphabet,
    source: Source,
    knowledge: IncompleteTree,
    cache: AnswerCache,
    journal: SessionJournal,
    jdir: PathBuf,
    disk: u64,
}

/// Shard count of the default server config; recovery groups sessions
/// by shard as the server does.
fn shards() -> usize {
    ServeConfig::default().shards.max(1)
}

/// The server's shard router (FNV-1a of `tenant/session`).
fn shard_of(scoped: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in scoped.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % shards() as u64) as usize
}

/// `IIXML_CONTAIN_CACHE`, read the way `Session` reads it.
fn contain_enabled() -> bool {
    match std::env::var(keys::ENV_CONTAIN_CACHE) {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

/// A journaled session found by the restart scan.
struct Found {
    scoped: String,
    jdir: PathBuf,
    products: usize,
    seed: u64,
}

/// The server's restart scan: `<root>/<tenant>/<session>.meta` holding
/// the catalog size and seed, next to the `<session>.j` journal.
fn scan(root: &Path) -> Vec<Found> {
    let sorted = |dir: &Path| -> Vec<PathBuf> {
        let mut v: Vec<PathBuf> = std::fs::read_dir(dir)
            .map(|rd| rd.filter_map(|e| e.ok().map(|e| e.path())).collect())
            .unwrap_or_default();
        v.sort();
        v
    };
    let name = |p: &Path| {
        p.file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string()
    };
    let mut out = Vec::new();
    for tenant in sorted(root) {
        let tname = name(&tenant);
        if !proto::name_ok(&tname) || !tenant.is_dir() {
            continue;
        }
        for entry in sorted(&tenant) {
            let fname = name(&entry);
            let Some(session) = fname.strip_suffix(".meta") else {
                continue;
            };
            let text = std::fs::read_to_string(&entry).unwrap_or_default();
            let mut lines = text.lines();
            let products = lines.next().and_then(|l| l.parse().ok()).unwrap_or(0);
            let seed = lines.next().and_then(|l| l.parse().ok()).unwrap_or(0);
            let jdir = tenant.join(format!("{session}.j"));
            if proto::name_ok(session) && products > 0 && jdir.is_dir() {
                out.push(Found {
                    scoped: format!("{tname}/{session}"),
                    jdir,
                    products,
                    seed,
                });
            }
        }
    }
    out
}

/// What recovering the live fleet once more at the end of a replay
/// shows.
#[derive(Debug, Default)]
pub struct Probe {
    pub sessions: usize,
    pub disk_bytes: u64,
    pub recover_seq_ns: u64,
    pub recover_fleet_ns: u64,
    pub replayed: usize,
}

pub struct Pipeline {
    pub tr: Tracer,
    pub counts: Counts,
    /// Whether requests from now on are measured (counted in `counts`
    /// and in the shares) or set-up.
    pub measured: bool,
    root: PathBuf,
    admission: Admission,
    gates: BTreeMap<String, Arc<TenantGate>>,
    contain: bool,
    live: BTreeMap<String, Live>,
    /// Sessions brought back by `restart`, per shard, with their
    /// durability markers.
    recovered: Vec<(Webhouse<Source>, BTreeMap<String, String>)>,
    /// Recovery errors (the server would refuse to start).
    pub faults: Vec<String>,
}

impl Pipeline {
    pub fn new(root: &Path, spans_on: bool, capacity: usize) -> Pipeline {
        let _ = std::fs::remove_dir_all(root);
        let _ = std::fs::create_dir_all(root);
        Pipeline {
            tr: Tracer::new(spans_on, capacity),
            counts: Counts::default(),
            measured: false,
            root: root.to_path_buf(),
            admission: Admission::new(crate::drive::serve_config(root).admission),
            gates: BTreeMap::new(),
            contain: contain_enabled(),
            live: BTreeMap::new(),
            recovered: Vec::new(),
            faults: Vec::new(),
        }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    /// Runs `op` and checks the reply against the op's expected answer.
    pub fn run_op(&mut self, plans: &[ClientPlan], op: &Op, tally: &mut Tally) {
        let Some(resp) = self.apply(plans, op) else {
            return;
        };
        let step = match op {
            Op::Step { step, .. } => *step,
            _ => &OPEN,
        };
        tally.check(answer_ok(step, &resp), || {
            format!(
                "{:?} {:?} -> {:?} {:?}",
                step.kind, step.query, resp.op, resp.body
            )
        });
    }

    /// Runs one op; returns the reply a client would decode (`None` for
    /// fleet-wide events).
    pub fn apply(&mut self, plans: &[ClientPlan], op: &Op) -> Option<Resp> {
        match op {
            Op::Open {
                client,
                name,
                script,
            } => {
                let req = crate::drive::open_request(name, script);
                Some(self.exchange(&plans[*client].tenant, Kind::Open, &req))
            }
            Op::Step { client, name, step } => {
                let req = crate::drive::request(name, step);
                Some(self.exchange(&plans[*client].tenant, step.kind, &req))
            }
            Op::Restart => {
                self.restart();
                None
            }
            Op::Shutdown => {
                self.shutdown();
                None
            }
        }
    }

    /// One request through encode, decode, admission, the handler, the
    /// reply and its decode.
    fn exchange(&mut self, tenant: &str, kind: Kind, req: &Request) -> Resp {
        let gate = match self.gates.get(tenant) {
            Some(g) => Arc::clone(g),
            None => {
                let g = self.admission.gate(tenant);
                self.gates.insert(tenant.to_string(), Arc::clone(&g));
                g
            }
        };
        self.tr.begin_req(kind, self.measured);
        let frame = self
            .tr
            .span(Site::EncodeRequest, || proto::encode_request(req));
        let decoded = self.tr.span(Site::DecodeRequest, || {
            decode(&frame, |op| {
                ReqOp::from_byte(op).ok_or(proto::FrameError::BadOp(op))
            })
            .and_then(|(op, body)| proto::parse_request(op, &body))
        });
        let guard = self
            .tr
            .span(Site::Admission, || self.admission.try_request(&gate));
        let reply = match (decoded, guard) {
            (Ok(req), Ok(_guard)) => self.handle(tenant, req),
            (Err(e), _) => err_frame("frame", &e.to_string()),
            (_, Err(shed)) => err_frame("shed", shed.reason()),
        };
        let resp = self.tr.span(Site::DecodeReply, || {
            decode(&reply, |op| {
                RespOp::from_byte(op).ok_or(proto::FrameError::BadOp(op))
            })
            .map(|(op, body)| Resp {
                op,
                body: String::from_utf8(body).unwrap_or_default(),
            })
        });
        self.tr.end_req();
        let session = match req {
            Request::Open { session, .. }
            | Request::Fetch { session, .. }
            | Request::Ask { session, .. }
            | Request::Mediate { session, .. }
            | Request::Sync { session }
            | Request::Close { session } => Some(format!("{tenant}/{session}")),
            _ => None,
        };
        if self.measured {
            self.counts.requests += 1;
            self.counts.frame_bytes += (frame.len() + reply.len()) as u64;
            if let Some(scoped) = session {
                if let Some(s) = self.live.get_mut(&scoped) {
                    self.counts.knowledge_sizes.push(s.knowledge.size() as u64);
                    let now = report::dir_bytes(&s.jdir);
                    self.counts.disk_growth += now.saturating_sub(s.disk);
                    s.disk = now;
                } else if let Some((house, _)) = self.recovered.get_mut(shard_of(&scoped)) {
                    if let Some(s) = house.session(&scoped) {
                        self.counts
                            .knowledge_sizes
                            .push(s.knowledge().size() as u64);
                    }
                }
            }
        }
        resp.unwrap_or_else(|e| Resp {
            op: RespOp::Err,
            body: e.to_string(),
        })
    }

    fn handle(&mut self, tenant: &str, req: Request) -> Vec<u8> {
        let tr = &mut self.tr;
        match req {
            Request::Open {
                session,
                products,
                seed,
            } => {
                let scoped = format!("{tenant}/{session}");
                match self.open(tenant, &session, products, seed) {
                    Ok(s) => {
                        self.live.insert(scoped, s);
                        reply(&mut self.tr, RespOp::Opened, || "created\nok".to_string())
                    }
                    Err(e) => err_frame("session", &e),
                }
            }
            Request::Fetch { session, query } => {
                let Some(s) = self.live.get_mut(&format!("{tenant}/{session}")) else {
                    return err_frame("no-session", &session);
                };
                let q = match parse(tr, &query, &mut s.alpha) {
                    Ok(q) => q,
                    Err(frame) => return frame,
                };
                match fetch(tr, &mut self.counts, self.measured, self.contain, s, &q) {
                    Ok((ans, hit)) => reply(tr, RespOp::Answer, || {
                        format!("ok\nnodes={}\ncontain={}", ans.len(), hit_word(hit))
                    }),
                    Err(e) => err_frame("session", &e),
                }
            }
            Request::Ask { session, query } => {
                let scoped = format!("{tenant}/{session}");
                if let Some(s) = self.live.get_mut(&scoped) {
                    return match parse(tr, &query, &mut s.alpha) {
                        Ok(q) => local_answer(tr, &s.knowledge, &q, "ok"),
                        Err(frame) => frame,
                    };
                }
                let Some((house, markers)) = self.recovered.get_mut(shard_of(&scoped)) else {
                    return err_frame("no-session", &scoped);
                };
                let marker = markers.get(&scoped).cloned().unwrap_or_default();
                let Some(s) = house.session(&scoped) else {
                    return err_frame("no-session", &scoped);
                };
                match parse(tr, &query, s.alphabet_mut()) {
                    Ok(q) => local_answer(tr, s.knowledge(), &q, &marker),
                    Err(frame) => frame,
                }
            }
            Request::Mediate { session, query } => {
                let Some(s) = self.live.get_mut(&format!("{tenant}/{session}")) else {
                    return err_frame("no-session", &session);
                };
                let q = match parse(tr, &query, &mut s.alpha) {
                    Ok(q) => q,
                    Err(frame) => return frame,
                };
                match mediate(tr, &mut self.counts, self.measured, self.contain, s, &q) {
                    Ok((tree, hit)) => reply(tr, RespOp::Answer, || {
                        let nodes = tree.as_ref().map_or(0, |t| t.len());
                        format!("ok\nnodes={nodes}\ncontain={}", hit_word(hit))
                    }),
                    Err(e) => err_frame("session", &e),
                }
            }
            Request::Sync { session } => {
                let Some(s) = self.live.get_mut(&format!("{tenant}/{session}")) else {
                    return err_frame("no-session", &session);
                };
                match tr.span(Site::Sync, || s.journal.sync()) {
                    Ok(()) => reply(tr, RespOp::Ok, || "synced\nok".to_string()),
                    Err(e) => err_frame("session", &e.to_string()),
                }
            }
            Request::Close { session } => {
                let scoped = format!("{tenant}/{session}");
                let Some(mut s) = self.live.remove(&scoped) else {
                    return err_frame("no-session", &scoped);
                };
                let synced = tr.span(Site::Sync, || s.journal.sync());
                tr.span(Site::StoreClose, || drop(s));
                tr.span(Site::SessionFs, || {
                    let tdir = self.root.join(tenant);
                    let _ = std::fs::remove_dir_all(tdir.join(format!("{session}.j")));
                    let _ = std::fs::remove_file(tdir.join(format!("{session}.meta")));
                });
                if let Some(g) = self.gates.get(tenant) {
                    g.release_session();
                }
                match synced {
                    Ok(()) => reply(tr, RespOp::Ok, || "closed\nok".to_string()),
                    Err(e) => reply(tr, RespOp::Ok, || format!("closed\nfault:{e}")),
                }
            }
            Request::Hello { .. } | Request::Stats | Request::Ping => err_frame("frame", "unused"),
        }
    }

    /// `open_session` + `Session::open_journaled` + the batched flush
    /// policy.
    fn open(
        &mut self,
        tenant: &str,
        session: &str,
        products: usize,
        seed: u64,
    ) -> Result<Live, String> {
        let tr = &mut self.tr;
        if let Some(g) = self.gates.get(tenant) {
            tr.span(Site::Admission, || {
                g.try_open_session(self.admission.config())
            })
            .map_err(|shed| shed.reason().to_string())?;
        }
        let cat = tr.span(Site::Catalog, || iixml_gen::catalog(products, seed));
        let source = Source::new(cat.doc, Some(cat.ty));
        let tdir = self.root.join(tenant);
        let jdir = tdir.join(format!("{session}.j"));
        tr.span(Site::SessionFs, || -> std::io::Result<()> {
            std::fs::create_dir_all(&tdir)?;
            let tmp = tdir.join(format!("{session}.meta.tmp"));
            std::fs::write(&tmp, format!("{products}\n{seed}\n"))?;
            std::fs::rename(&tmp, tdir.join(format!("{session}.meta")))
        })
        .map_err(|e| e.to_string())?;
        let alpha = cat.alpha;
        let universal = tr.span(Site::Universal, || Refiner::new(&alpha));
        let knowledge = match source.declared_type() {
            Some(ty) => tr.span(Site::Restrict, || restrict_to_type(universal.current(), ty)),
            None => universal.current().clone(),
        };
        let journal = tr
            .span(
                Site::StoreOpen,
                || -> Result<SessionJournal, iixml_store::StoreError> {
                    let mut j = SessionJournal::create_with_io(&jdir, StoreIo::from_env())?;
                    j.log_open(&alpha, &knowledge)?;
                    j.set_flush_policy(FlushPolicy::batched())?;
                    Ok(j)
                },
            )
            .map_err(|e| e.to_string())?;
        Ok(Live {
            alpha,
            source,
            knowledge,
            cache: AnswerCache::new(),
            journal,
            jdir,
            disk: 0,
        })
    }

    /// `Server::start`'s recovery: scan, regenerate each source, recover
    /// shard by shard on the `iixml-par` pool, re-apply the batched
    /// flush policy. Timed as one request.
    fn restart(&mut self) {
        self.tr.begin_req(Kind::Restart, self.measured);
        self.recover_all();
        self.tr.end_req();
    }

    /// Returns the wall time spent in `Webhouse::recover_sessions`.
    fn recover_all(&mut self) -> u64 {
        let tr = &mut self.tr;
        let found = tr.span(Site::Scan, || scan(&self.root));
        let mut per_shard: Vec<Vec<Found>> = (0..shards()).map(|_| Vec::new()).collect();
        for f in found {
            per_shard[shard_of(&f.scoped)].push(f);
        }
        let mut fleet_ns = 0;
        self.recovered = (0..shards())
            .map(|_| (Webhouse::new(), BTreeMap::new()))
            .collect();
        for (ix, group) in per_shard.into_iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let journals: Vec<(String, PathBuf, Source)> = group
                .into_iter()
                .map(|f| {
                    let cat = tr.span(Site::Catalog, || iixml_gen::catalog(f.products, f.seed));
                    (f.scoped, f.jdir, Source::new(cat.doc, Some(cat.ty)))
                })
                .collect();
            let (house, markers) = &mut self.recovered[ix];
            let t = Instant::now();
            let reports = tr.span(Site::RecoverFleet, || house.recover_sessions(journals));
            fleet_ns += t.elapsed().as_nanos() as u64;
            let reports = match reports {
                Ok(r) => r,
                Err(e) => {
                    self.faults.push(e.to_string());
                    continue;
                }
            };
            for (name, rep) in reports {
                let marker = match rep.status {
                    RecoveryStatus::Clean => "ok".to_string(),
                    RecoveryStatus::Recovered { dropped_records } => {
                        format!("recovered:{dropped_records}")
                    }
                };
                if let Some(s) = house.session(&name) {
                    let _ = tr.span(Site::StoreOpen, || {
                        s.set_journal_flush_policy(FlushPolicy::batched())
                    });
                }
                markers.insert(name, marker);
            }
        }
        fleet_ns
    }

    /// Syncs and drops every session, as `Server::shutdown` and the end
    /// of the server's life do.
    pub fn shutdown(&mut self) {
        for s in self.live.values_mut() {
            let _ = s.journal.sync();
        }
        self.live.clear();
        for (house, _) in &mut self.recovered {
            for (_, s) in house.sessions_mut() {
                let _ = s.sync_journal();
            }
        }
        self.recovered.clear();
    }

    /// Open sessions (live or recovered).
    #[cfg(test)]
    pub fn session_count(&self) -> usize {
        self.live.len() + self.recovered.iter().map(|(_, m)| m.len()).sum::<usize>()
    }

    /// `(tenant, session, knowledge)` of every session the plans open
    /// under a fixed name, in plan order.
    pub fn knowledge(
        &mut self,
        w: Workload,
        plans: &[ClientPlan],
    ) -> Vec<(String, String, Option<String>)> {
        let mut v = Vec::new();
        for plan in plans {
            for i in 0..plan.scripts.len() {
                let name = workload::session_name(w, i, 0);
                let xml = self.knowledge_xml(&plan.tenant, &name);
                v.push((plan.tenant.clone(), name, xml));
            }
        }
        v
    }

    /// The serialized knowledge of session `tenant/session`.
    pub fn knowledge_xml(&mut self, tenant: &str, session: &str) -> Option<String> {
        let scoped = format!("{tenant}/{session}");
        if let Some(s) = self.live.get(&scoped) {
            return Some(write_incomplete_xml(&s.knowledge, &s.alpha));
        }
        let (house, _) = self.recovered.get_mut(shard_of(&scoped))?;
        house
            .session(&scoped)
            .map(|s| write_incomplete_xml(s.knowledge(), s.alphabet()))
    }

    #[cfg(test)]
    pub fn journal_dir(&self, tenant: &str, session: &str) -> PathBuf {
        self.root.join(tenant).join(format!("{session}.j"))
    }

    /// Shuts the fleet down and recovers it twice, untraced: each
    /// journal on its own through `iixml_store::recover`, then all of
    /// them through `Webhouse::recover_sessions` as a restart does.
    pub fn probe(&mut self) -> Probe {
        self.shutdown();
        self.tr.set_spans(false);
        let found = scan(&self.root);
        let mut p = Probe {
            sessions: found.len(),
            disk_bytes: report::dir_bytes(&self.root),
            ..Probe::default()
        };
        for f in found {
            let t = Instant::now();
            let rec = iixml_store::recover(&f.jdir, RecoveryMode::Degrade);
            p.recover_seq_ns += t.elapsed().as_nanos() as u64;
            if let Ok(rec) = rec {
                p.replayed += rec.replayed;
            }
        }
        p.recover_fleet_ns = self.recover_all();
        self.shutdown();
        p
    }
}

/// Decodes one frame the way `DeadlineStream::read_frame` does.
fn decode<T>(
    frame: &[u8],
    op: impl FnOnce(u8) -> Result<T, proto::FrameError>,
) -> Result<(T, Vec<u8>), proto::FrameError> {
    let header: &[u8; HEADER_LEN] = frame
        .get(..HEADER_LEN)
        .and_then(|h| h.try_into().ok())
        .ok_or(proto::FrameError::BadBody("short header"))?;
    let (code, len) = proto::decode_header(header)?;
    let body = proto::check_body(code, &frame[HEADER_LEN..], len)?.to_vec();
    Ok((op(code)?, body))
}

fn err_frame(code: &str, detail: &str) -> Vec<u8> {
    proto::encode_frame(RespOp::Err.byte(), format!("{code}\n{detail}").as_bytes())
}

/// `parse_ps_query` against the session's alphabet; a parse error
/// becomes the server's `bad-query` reply.
fn parse(tr: &mut Tracer, query: &str, alpha: &mut Alphabet) -> Result<PsQuery, Vec<u8>> {
    tr.span(Site::Parse, || parse_ps_query(query, alpha))
        .map_err(|e| err_frame("bad-query", &e.to_string()))
}

fn reply(tr: &mut Tracer, op: RespOp, body: impl FnOnce() -> String) -> Vec<u8> {
    tr.span(Site::Reply, || {
        proto::encode_frame(op.byte(), body().as_bytes())
    })
}

fn hit_word(hit: bool) -> &'static str {
    if hit {
        "hit"
    } else {
        "miss"
    }
}

/// `Session::answer_locally` plus the server's reply.
fn local_answer(tr: &mut Tracer, knowledge: &IncompleteTree, q: &PsQuery, marker: &str) -> Vec<u8> {
    let answer = tr.span(Site::LocalQuery, || {
        let qt = knowledge.query(q);
        qt.fully_answerable().then(|| qt.the_answer())
    });
    match answer {
        Some(t) => reply(tr, RespOp::Answer, || {
            format!("{marker}\nnodes={}", t.as_ref().map_or(0, |t| t.len()))
        }),
        None => reply(tr, RespOp::Partial, || format!("{marker}\npartial")),
    }
}

/// `AnswerCache::lookup`, when the cache is on.
fn lookup(
    tr: &mut Tracer,
    c: &mut Counts,
    measured: bool,
    on: bool,
    s: &mut Live,
    q: &PsQuery,
) -> Option<Answer> {
    if !on {
        return None;
    }
    let rejects = s.cache.fast_rejects();
    let hit = tr.span(Site::Lookup, || s.cache.lookup(q));
    if measured {
        c.lookups += 1;
        c.hits += u64::from(hit.is_some());
        c.fast_rejects += s.cache.fast_rejects() - rejects;
    }
    hit
}

/// `Session::ask_source` for one (local) query, with validation.
fn ask_source(
    tr: &mut Tracer,
    c: &mut Counts,
    measured: bool,
    s: &mut Live,
    q: &PsQuery,
    at: Option<iixml_tree::Nid>,
) -> Result<Answer, String> {
    if measured {
        c.source_calls += 1;
    }
    let ans = tr
        .span(Site::SourceAsk, || match at {
            None => s.source.ask(q),
            Some(n) => s.source.ask_at(q, n),
        })
        .map_err(|e| e.to_string())?;
    tr.span(Site::Validate, || {
        validate_answer(q, &ans, at, s.source.declared_type())
    })
    .map_err(|e| e.to_string())?;
    Ok(ans)
}

/// `Session::apply_refine`: the journal check, Refine's four steps
/// (`T ← minimize(trim(T ∩ T_{q,A}))`), then the append and snapshot.
/// Intermediate trees are dropped inside the span that made them.
fn apply_refine(tr: &mut Tracer, s: &mut Live, q: &PsQuery, ans: &Answer) -> Result<(), String> {
    tr.span(Site::Check, || {
        SessionJournal::check_journalable(&s.alpha, q, ans)
    })
    .map_err(|e| e.to_string())?;
    let tqa = tr
        .span(Site::Tqa, || query_answer_tree(q, ans, &s.alpha))
        .map_err(|e| e.to_string())?;
    let combined = tr
        .span(Site::Intersect, || {
            let c = intersect(&s.knowledge, &tqa);
            drop(tqa);
            c
        })
        .map_err(|e| e.to_string())?;
    let trimmed = tr.span(Site::Trim, || {
        let t = combined.trim();
        drop(combined);
        t
    });
    tr.span(Site::Minimize, || {
        let m = trimmed.minimize();
        drop(trimmed);
        drop(std::mem::replace(&mut s.knowledge, m));
    });
    tr.span(Site::Append, || s.journal.log_refine(&s.alpha, q, ans))
        .map_err(|e| e.to_string())?;
    tr.span(Site::Snapshot, || {
        s.journal.maybe_snapshot(&s.alpha, &s.knowledge)
    })
    .map_err(|e| e.to_string())?;
    Ok(())
}

/// `Session::fetch`; returns the answer and whether the cache hit.
fn fetch(
    tr: &mut Tracer,
    c: &mut Counts,
    measured: bool,
    on: bool,
    s: &mut Live,
    q: &PsQuery,
) -> Result<(Answer, bool), String> {
    if let Some(ans) = lookup(tr, c, measured, on, s, q) {
        apply_refine(tr, s, q, &ans)?;
        return Ok((ans, true));
    }
    let ans = ask_source(tr, c, measured, s, q, None)?;
    apply_refine(tr, s, q, &ans)?;
    if on {
        tr.span(Site::Record, || s.cache.record(q, &ans));
    }
    Ok((ans, false))
}

/// `Session::answer_resilient` on a reliable source: mediation, then
/// the `rep = ∅` check.
fn mediate(
    tr: &mut Tracer,
    c: &mut Counts,
    measured: bool,
    on: bool,
    s: &mut Live,
    q: &PsQuery,
) -> Result<(Option<iixml_tree::DataTree>, bool), String> {
    if measured {
        c.mediates += 1;
    }
    let (tree, hit) = match lookup(tr, c, measured, on, s, q) {
        Some(ans) => (ans.tree, true),
        None => {
            let local = tr.span(Site::LocalQuery, || {
                let qt = s.knowledge.query(q);
                qt.fully_answerable().then(|| qt.the_answer())
            });
            match local {
                Some(t) => (t, false),
                None => (mediate_miss(tr, c, measured, on, s, q)?, false),
            }
        }
    };
    if tr.span(Site::EmptyCheck, || s.knowledge.is_empty()) {
        return Err("knowledge became unsatisfiable".into());
    }
    Ok((tree, hit))
}

/// The completion path of `Session::answer_with_mediation`.
fn mediate_miss(
    tr: &mut Tracer,
    c: &mut Counts,
    measured: bool,
    on: bool,
    s: &mut Live,
    q: &PsQuery,
) -> Result<Option<iixml_tree::DataTree>, String> {
    let completion = tr.span(Site::Complete, || Mediator::new(&s.knowledge).complete(q));
    if measured {
        c.local_queries += completion.queries.len() as u64;
    }
    let mut known = tr.span(Site::DataTree, || s.knowledge.data_tree());
    for lq in &completion.queries {
        let ans = ask_source(tr, c, measured, s, &lq.query, lq.at)?;
        let Some(t) = ans.tree else { continue };
        match &mut known {
            Some(k) => tr.span(Site::Graft, || k.graft(&t))?,
            slot @ None => *slot = Some(t),
        }
    }
    let answer = tr.span(Site::Eval, || match &known {
        Some(k) => q.eval(k),
        None => Answer::empty(),
    });
    apply_refine(tr, s, q, &answer)?;
    if on {
        tr.span(Site::Record, || s.cache.record(q, &answer));
    }
    Ok(answer.tree)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{answer_ok, open_request, request, serve_config};
    use iixml_serve::{Client, Server};
    use iixml_webhouse::{LocalAnswer, Session};

    /// Every file under `dir`, sorted by name, with its bytes.
    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut v: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .map(|rd| {
                rd.filter_map(|e| e.ok())
                    .map(|e| {
                        let name = e.file_name().to_string_lossy().into_owned();
                        (name, std::fs::read(e.path()).unwrap_or_default())
                    })
                    .collect()
            })
            .unwrap_or_default();
        v.sort();
        v
    }

    /// Applies `op` to real `Session`s journaling under `root`, the way
    /// the server drives them.
    fn reference(
        plans: &[ClientPlan],
        root: &Path,
        live: &mut BTreeMap<String, Session<Source>>,
        op: &Op,
    ) {
        match op {
            Op::Open {
                client,
                name,
                script,
            } => {
                let cat = iixml_gen::catalog(script.products, script.cat_seed);
                let dir = root.join(&plans[*client].tenant).join(format!("{name}.j"));
                std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
                let mut s =
                    Session::open_journaled(cat.alpha, Source::new(cat.doc, Some(cat.ty)), &dir)
                        .unwrap();
                s.set_journal_flush_policy(FlushPolicy::batched()).unwrap();
                live.insert(format!("{}/{name}", plans[*client].tenant), s);
            }
            Op::Step { client, name, step } => {
                let key = format!("{}/{name}", plans[*client].tenant);
                let s = live.get_mut(&key).unwrap();
                match step.kind {
                    Kind::Fetch | Kind::Revisit => {
                        let q = parse_ps_query(&step.query, s.alphabet_mut()).unwrap();
                        assert_eq!(s.fetch(&q).unwrap().len(), step.expect);
                    }
                    Kind::Ask => {
                        let q = parse_ps_query(&step.query, s.alphabet_mut()).unwrap();
                        assert!(s.answer_locally(&q).is_complete());
                    }
                    Kind::Mediate => {
                        let q = parse_ps_query(&step.query, s.alphabet_mut()).unwrap();
                        match s.answer_resilient(&q) {
                            LocalAnswer::Complete(t) => {
                                assert_eq!(t.map_or(0, |t| t.len()), step.expect)
                            }
                            other => panic!("mediation degraded: {other:?}"),
                        }
                    }
                    Kind::Sync => s.sync_journal().unwrap(),
                    Kind::Close => {
                        s.sync_journal().unwrap();
                        live.remove(&key);
                        std::fs::remove_dir_all(
                            root.join(&plans[*client].tenant).join(format!("{name}.j")),
                        )
                        .unwrap();
                    }
                    Kind::Open | Kind::Restart => unreachable!(),
                }
            }
            Op::Shutdown => {
                for s in live.values_mut() {
                    s.sync_journal().unwrap();
                }
                live.clear();
            }
            Op::Restart => {
                for p in plans {
                    for i in 0..p.scripts.len() {
                        let name = workload::session_name(Workload::Restart, i, 0);
                        let script = &p.scripts[i];
                        let cat = iixml_gen::catalog(script.products, script.cat_seed);
                        let dir = root.join(&p.tenant).join(format!("{name}.j"));
                        let (s, _) =
                            Session::recover(&dir, Source::new(cat.doc, Some(cat.ty))).unwrap();
                        live.insert(format!("{}/{name}", p.tenant), s);
                    }
                }
            }
        }
    }

    /// Every file under `dir`, recursively, by path relative to `dir`.
    fn tree(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut v = Vec::new();
        let mut todo = vec![dir.to_path_buf()];
        while let Some(d) = todo.pop() {
            for e in std::fs::read_dir(&d).unwrap().map(Result::unwrap) {
                let path = e.path();
                if path.is_dir() {
                    todo.push(path);
                } else {
                    let rel = path.strip_prefix(dir).unwrap().to_path_buf();
                    v.push((rel, std::fs::read(&path).unwrap()));
                }
            }
        }
        v.sort();
        v
    }

    type Serving = (Server, Vec<Client>);

    /// A real `Server` journaling under `root`, one client per plan.
    fn serve(plans: &[ClientPlan], root: &Path) -> Serving {
        let server = Server::start(serve_config(root)).unwrap();
        let clients = plans
            .iter()
            .map(|pl| Client::connect(server.port(), &pl.tenant, 30_000, 30_000).unwrap())
            .collect();
        (server, clients)
    }

    /// Sends `op` to the server as `run` does; `Restart` starts it and
    /// `Shutdown` stops it. Returns whether it stopped.
    fn server_op(
        plans: &[ClientPlan],
        root: &Path,
        serving: &mut Option<Serving>,
        op: &Op,
        at: &str,
    ) -> bool {
        let (client, req, step) = match op {
            Op::Open {
                client,
                name,
                script,
            } => (*client, open_request(name, script), &OPEN),
            Op::Step { client, name, step } => (*client, request(name, step), *step),
            Op::Restart => {
                *serving = Some(serve(plans, root));
                return false;
            }
            Op::Shutdown => {
                stop(serving.take().unwrap());
                return true;
            }
        };
        let (_, clients) = serving.as_mut().unwrap();
        let resp = clients[client].call(&req).unwrap();
        assert!(answer_ok(step, &resp), "{at}: server replied {resp:?}");
        false
    }

    fn stop((server, clients): Serving) {
        drop(clients);
        assert!(server.shutdown().faults.is_empty());
    }

    /// Every workload's ops go through the pipeline, through real
    /// `Session`s and through a real `Server` over TCP. After every op
    /// the pipeline's knowledge and journal files equal the `Session`s';
    /// at every shutdown its whole journal root, `.meta` files included,
    /// equals the server's. `restart`'s set-up writes its fleet through
    /// the pipeline, so this also keeps that fleet the one a server
    /// writes.
    #[test]
    fn pipeline_matches_session_and_server_byte_for_byte() {
        let base =
            std::env::temp_dir().join(format!("iixml-benchmark-equiv-{}", std::process::id()));
        for w in Workload::ALL {
            let sizes = Sizes::tiny(w);
            let plans = workload::plan(w, &sizes, 11);
            let (setup, measured) = trace_ops(w, &sizes, &plans);
            let dir = base.join(w.name());
            let (proot, rroot, sroot) = (dir.join("p"), dir.join("r"), dir.join("s"));
            for root in [&rroot, &sroot] {
                let _ = std::fs::remove_dir_all(root);
                std::fs::create_dir_all(root).unwrap();
            }
            let mut p = Pipeline::new(&proot, true, 1024);
            let mut live = BTreeMap::new();
            let mut serving = Some(serve(&plans, &sroot));
            for (i, op) in setup.iter().chain(&measured).enumerate() {
                let at = format!("{} op {i}", w.name());
                if let Some(resp) = p.apply(&plans, op) {
                    let step = match op {
                        Op::Step { step, .. } => step,
                        _ => &OPEN,
                    };
                    assert!(answer_ok(step, &resp), "{at}: {resp:?}");
                }
                reference(&plans, &rroot, &mut live, op);
                let mut names: Vec<String> = live.keys().cloned().collect();
                names.sort();
                assert_eq!(p.session_count(), names.len(), "{at}");
                for key in names {
                    let (tenant, session) = key.split_once('/').unwrap();
                    let s = &live[&key];
                    let want = write_incomplete_xml(s.knowledge(), s.alphabet());
                    assert_eq!(
                        p.knowledge_xml(tenant, session).as_deref(),
                        Some(want.as_str()),
                        "{at}: knowledge of {key}"
                    );
                    let rdir = rroot.join(tenant).join(format!("{session}.j"));
                    assert_eq!(
                        files(&p.journal_dir(tenant, session)),
                        files(&rdir),
                        "{at}: journal of {key}"
                    );
                }
                if server_op(&plans, &sroot, &mut serving, op, &at) {
                    assert_eq!(tree(&proot), tree(&sroot), "{at}: journal root");
                }
            }
            if let Some(s) = serving.take() {
                stop(s);
                p.shutdown();
                assert_eq!(tree(&proot), tree(&sroot), "{}: journal root", w.name());
            }
            let metas = tree(&sroot)
                .into_iter()
                .filter(|(f, _)| f.extension() == Some("meta".as_ref()))
                .count();
            assert!(metas > 0, "{}: no .meta files", w.name());
        }
        let _ = std::fs::remove_dir_all(&base);
    }
}
