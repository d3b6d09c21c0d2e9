//! Span recording for `trace`: one span per call into a layer, kept in
//! preallocated vectors and digested after the replay.

use crate::alloc;
use crate::workload::Kind;
use std::time::Instant;

/// The crate a call belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    Serve,
    Query,
    Core,
    Gen,
    Contain,
    Webhouse,
    Mediator,
    Tree,
    Store,
    Par,
}

impl Layer {
    pub const ALL: [Layer; 10] = [
        Layer::Serve,
        Layer::Query,
        Layer::Core,
        Layer::Gen,
        Layer::Contain,
        Layer::Webhouse,
        Layer::Mediator,
        Layer::Tree,
        Layer::Store,
        Layer::Par,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Layer::Serve => "serve",
            Layer::Query => "query",
            Layer::Core => "core",
            Layer::Gen => "gen",
            Layer::Contain => "contain",
            Layer::Webhouse => "webhouse",
            Layer::Mediator => "mediator",
            Layer::Tree => "tree",
            Layer::Store => "store",
            Layer::Par => "par",
        }
    }
}

/// A timed public call (or a short run of them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `proto::encode_request` (client side).
    EncodeRequest,
    /// `decode_header` + `check_body` + `parse_request` (server side).
    DecodeRequest,
    /// `Admission::try_request`.
    Admission,
    /// Reply body formatting + `encode_frame`.
    Reply,
    /// `decode_header` + `check_body` of the reply (client side).
    DecodeReply,
    /// Session directory and `.meta` file create/remove.
    SessionFs,
    /// Restart: journal-root scan and `.meta` reads.
    Scan,
    /// `parse_ps_query`.
    Parse,
    /// `PsQuery::eval` of the mediated answer.
    Eval,
    /// `Refiner::new` (the universal tree).
    Universal,
    /// `restrict_to_type`.
    Restrict,
    /// `query_answer_tree`.
    Tqa,
    /// `intersect`.
    Intersect,
    /// `IncompleteTree::trim`.
    Trim,
    /// `IncompleteTree::minimize`.
    Minimize,
    /// `IncompleteTree::query` + `fully_answerable` + `the_answer`.
    LocalQuery,
    /// `IncompleteTree::is_empty` after a mediation.
    EmptyCheck,
    /// `IncompleteTree::data_tree` (the known prefix).
    DataTree,
    /// `iixml_gen::catalog`.
    Catalog,
    /// `AnswerCache::lookup`.
    Lookup,
    /// `AnswerCache::record`.
    Record,
    /// `SourceEndpoint::ask` / `ask_at`.
    SourceAsk,
    /// `validate_answer`.
    Validate,
    /// `Mediator::complete`.
    Complete,
    /// `DataTree::graft`.
    Graft,
    /// `SessionJournal::check_journalable`.
    Check,
    /// `SessionJournal::log_refine`.
    Append,
    /// `SessionJournal::maybe_snapshot`.
    Snapshot,
    /// `SessionJournal::sync`.
    Sync,
    /// `SessionJournal::create_with_io` + `log_open`, and flush-policy
    /// changes.
    StoreOpen,
    /// Dropping a closed session's journal.
    StoreClose,
    /// `Webhouse::recover_sessions` (fan-out on the `iixml-par` pool).
    RecoverFleet,
}

impl Site {
    pub fn layer(self) -> Layer {
        use Site::*;
        match self {
            EncodeRequest | DecodeRequest | Admission | Reply | DecodeReply | SessionFs | Scan => {
                Layer::Serve
            }
            Parse | Eval => Layer::Query,
            Universal | Restrict | Tqa | Intersect | Trim | Minimize | LocalQuery | EmptyCheck
            | DataTree => Layer::Core,
            Catalog => Layer::Gen,
            Lookup | Record => Layer::Contain,
            SourceAsk | Validate => Layer::Webhouse,
            Complete => Layer::Mediator,
            Graft => Layer::Tree,
            Check | Append | Snapshot | Sync | StoreOpen | StoreClose => Layer::Store,
            RecoverFleet => Layer::Par,
        }
    }

    pub fn name(self) -> &'static str {
        use Site::*;
        match self {
            EncodeRequest => "serve.encode_request",
            DecodeRequest => "serve.decode_request",
            Admission => "serve.admission",
            Reply => "serve.reply",
            DecodeReply => "serve.decode_reply",
            SessionFs => "serve.session_fs",
            Scan => "serve.scan",
            Parse => "query.parse",
            Eval => "query.eval",
            Universal => "core.universal",
            Restrict => "core.restrict",
            Tqa => "core.tqa",
            Intersect => "core.intersect",
            Trim => "core.trim",
            Minimize => "core.minimize",
            LocalQuery => "core.local_query",
            EmptyCheck => "core.empty_check",
            DataTree => "core.data_tree",
            Catalog => "gen.catalog",
            Lookup => "contain.lookup",
            Record => "contain.record",
            SourceAsk => "webhouse.source",
            Validate => "webhouse.validate",
            Complete => "mediator.complete",
            Graft => "tree.graft",
            Check => "store.check",
            Append => "store.append",
            Snapshot => "store.snapshot",
            Sync => "store.sync",
            StoreOpen => "store.open",
            StoreClose => "store.close",
            RecoverFleet => "par.recover_fleet",
        }
    }
}

pub const NONE: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub site: Site,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span, or `NONE` when the request itself
    /// encloses it.
    pub parent: u32,
    pub req: u32,
    /// Allocations made between entry and exit (all threads).
    pub allocs: u64,
}

#[derive(Debug, Clone, Copy)]
pub struct Req {
    pub kind: Kind,
    /// False for set-up requests (traced, but outside the shares).
    pub measured: bool,
    pub start: u64,
    pub end: u64,
}

/// Records requests always and spans only when `spans_on`, so the
/// replay with spans off times the same pipeline untraced.
pub struct Tracer {
    spans_on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    pub reqs: Vec<Req>,
    stack: Vec<u32>,
}

impl Tracer {
    pub fn new(spans_on: bool, capacity: usize) -> Tracer {
        Tracer {
            spans_on,
            epoch: Instant::now(),
            spans: Vec::with_capacity(if spans_on { capacity } else { 0 }),
            reqs: Vec::with_capacity(capacity / 4),
            stack: Vec::with_capacity(16),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Turns span recording on or off (requests are always recorded).
    pub fn set_spans(&mut self, on: bool) {
        self.spans_on = on;
    }

    pub fn begin_req(&mut self, kind: Kind, measured: bool) {
        self.stack.clear();
        let start = self.now();
        self.reqs.push(Req {
            kind,
            measured,
            start,
            end: start,
        });
    }

    pub fn end_req(&mut self) {
        let end = self.now();
        if let Some(r) = self.reqs.last_mut() {
            r.end = end;
        }
    }

    pub fn enter(&mut self, site: Site) -> u32 {
        if !self.spans_on {
            return NONE;
        }
        let ix = self.spans.len() as u32;
        let parent = self.stack.last().copied().unwrap_or(NONE);
        let req = self.reqs.len().saturating_sub(1) as u32;
        let allocs = alloc::count();
        let start = self.now();
        self.spans.push(Span {
            site,
            start,
            end: start,
            parent,
            req,
            allocs,
        });
        self.stack.push(ix);
        ix
    }

    pub fn exit(&mut self, ix: u32) {
        if ix == NONE {
            return;
        }
        let end = self.now();
        let allocs = alloc::count();
        if let Some(s) = self.spans.get_mut(ix as usize) {
            s.end = end;
            s.allocs = allocs - s.allocs;
        }
        self.stack.pop();
    }

    /// Runs `f` inside a span at `site`.
    pub fn span<R>(&mut self, site: Site, f: impl FnOnce() -> R) -> R {
        let ix = self.enter(site);
        let r = f();
        self.exit(ix);
        r
    }
}

/// Self time and self allocations of every span, and the time of each
/// request not covered by any span.
pub struct Digest {
    pub span_self: Vec<u64>,
    pub span_self_allocs: Vec<u64>,
    pub req_self: Vec<u64>,
}

pub fn digest(tr: &Tracer) -> Digest {
    let n = tr.spans.len();
    let mut child = vec![0u64; n];
    let mut child_allocs = vec![0u64; n];
    let mut req_child = vec![0u64; tr.reqs.len()];
    for s in &tr.spans {
        let dur = s.end - s.start;
        if s.parent == NONE {
            req_child[s.req as usize] += dur;
        } else {
            child[s.parent as usize] += dur;
            child_allocs[s.parent as usize] += s.allocs;
        }
    }
    let span_self = tr
        .spans
        .iter()
        .zip(&child)
        .map(|(s, c)| (s.end - s.start).saturating_sub(*c))
        .collect();
    let span_self_allocs = tr
        .spans
        .iter()
        .zip(&child_allocs)
        .map(|(s, c)| s.allocs.saturating_sub(*c))
        .collect();
    let req_self = tr
        .reqs
        .iter()
        .zip(&req_child)
        .map(|(r, c)| (r.end - r.start).saturating_sub(*c))
        .collect();
    Digest {
        span_self,
        span_self_allocs,
        req_self,
    }
}
