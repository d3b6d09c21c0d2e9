#![warn(missing_docs)]

//! The Webhouse scenario (Section 1): an XML warehouse holding
//! incomplete information about remote documents, enriched by successive
//! queries and able to answer new queries either locally (from the
//! incomplete tree) or by fetching exactly the missing pieces through
//! the mediator.
//!
//! * [`Source`] simulates a remote XML document: a materialized data
//!   tree (with persistent node ids) plus an optional declared tree
//!   type. This substitutes for live web sources (see DESIGN.md): it
//!   answers ps-queries through exactly the same evaluation path.
//! * [`SourceEndpoint`] abstracts the source boundary so the session
//!   loop is written once against a *fallible* interface;
//!   [`FaultySource`] wraps a source with a deterministic, seeded fault
//!   injector for chaos testing.
//! * [`Session`] is the per-document state: the accumulated incomplete
//!   tree maintained by Algorithm Refine (plus the folded-in tree type).
//! * [`Webhouse`] manages named sessions and implements the two
//!   courses of action of the introduction: answer as best possible
//!   from local knowledge (sure/possible modalities), or complete the
//!   answer with non-redundant local queries against the source.
//!
//! # Fault model
//!
//! The paper assumes sources that always answer fully and correctly;
//! this crate drops that assumption. Every source interaction goes
//! through a retry loop ([`RetryPolicy`]: capped exponential backoff
//! with deterministic jitter, per-query budget) and every shipped
//! answer is validated ([`validate::validate_answer`]) against the
//! query pattern and the source's declared type before it is grafted
//! into the knowledge. [`Session::answer_resilient`] then guarantees an
//! outcome for every query:
//!
//! * **complete** — mediation succeeded; the exact answer.
//! * **degraded** — the source stayed unavailable after retries; the
//!   local partial answer (Theorem 3.14), optionally relaxed (§3.2)
//!   to a bounded size, is returned with the cause attached.
//! * **quarantined** — the accumulated knowledge was caught lying
//!   (a refine contradiction, `rep = ∅`, or a vanished anchor — the
//!   signatures of a source updated mid-session, Section 5). The
//!   session reinitializes to the declared type and retries once; if
//!   the retry also fails the degraded local answer reflects the fresh
//!   knowledge.

pub mod endpoint;
pub mod error;
pub mod retry;
pub mod validate;

pub use endpoint::{FaultCounts, FaultPlan, FaultySource, LatentSource, Source, SourceEndpoint};
pub use error::{SourceError, ValidationError, WebhouseError};
pub use iixml_store::{FlushPolicy, RecoveryStatus, StoreError};
pub use retry::RetryPolicy;

use iixml_core::{IncompleteTree, QueryOnIncomplete, Refiner, Verdict};
use iixml_gen::rng::DetRng;
use iixml_mediator::Mediator;
use iixml_obs::{keys, LazyCounter, LazyHistogram};
use iixml_query::{Answer, PsQuery};
use iixml_store::{RecoveryMode, SessionJournal};
use iixml_tree::{Alphabet, DataTree, Nid};
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};

/// Source queries retried after a retryable failure.
static OBS_RETRIES: LazyCounter = LazyCounter::new(keys::WEBHOUSE_RETRIES);
/// Source failures observed (pre-retry; includes validation rejects).
static OBS_SOURCE_ERRORS: LazyCounter = LazyCounter::new(keys::WEBHOUSE_SOURCE_ERRORS);
/// Answers rejected by validation before grafting.
static OBS_VALIDATION_REJECTS: LazyCounter = LazyCounter::new(keys::WEBHOUSE_VALIDATION_REJECTS);
/// Queries that fell back to the degraded (local partial) path.
static OBS_DEGRADED: LazyCounter = LazyCounter::new(keys::WEBHOUSE_DEGRADED_ANSWERS);
/// Sessions quarantined (knowledge discarded and reinitialized).
static OBS_QUARANTINES: LazyCounter = LazyCounter::new(keys::WEBHOUSE_QUARANTINES);
/// Backoff pauses (ns), simulated or slept.
static OBS_BACKOFF_NS: LazyHistogram = LazyHistogram::new(keys::WEBHOUSE_BACKOFF_NS);
// The three containment counters count with collection off too
// (`add_always`): the server's Stats body reports them.
/// Containment-cache lookups before fetch/mediation.
static OBS_CONTAIN_CHECKS: LazyCounter = LazyCounter::new(keys::MEDIATOR_CONTAINMENT_CHECKS);
/// Containment-cache lookups answered from recorded knowledge.
static OBS_CONTAIN_HITS: LazyCounter = LazyCounter::new(keys::MEDIATOR_CONTAINMENT_HITS);
/// Cache entries a lookup rejected because the label skeletons differ.
static OBS_CONTAIN_FAST_REJECTS: LazyCounter =
    LazyCounter::new(keys::MEDIATOR_CONTAINMENT_FAST_REJECTS);

/// Reads the containment-cache toggle from the environment: on unless
/// [`keys::ENV_CONTAIN_CACHE`] is set to an off value.
fn contain_cache_enabled_from_env() -> bool {
    match std::env::var(keys::ENV_CONTAIN_CACHE) {
        Ok(v) => !matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "0" | "false" | "off" | "no"
        ),
        Err(_) => true,
    }
}

/// Why a query was answered from degraded local knowledge instead of
/// exactly via mediation.
#[derive(Debug)]
pub enum DegradeCause {
    /// The source stayed unavailable after retries; local knowledge is
    /// intact, just not sufficient for an exact answer.
    SourceUnavailable(SourceError),
    /// The knowledge was caught contradicting the source (updated
    /// document, undetected lie); it was quarantined and reinitialized,
    /// and a fresh mediation attempt also failed.
    Quarantined(WebhouseError),
    /// The durability layer failed (journal append or snapshot); the
    /// knowledge is intact but the session stopped journaling, and the
    /// resilient path answers locally rather than risk compounding the
    /// fault with source traffic it cannot record.
    Durability(StoreError),
}

/// How a query against the webhouse was answered.
#[derive(Debug)]
pub enum LocalAnswer {
    /// The local information suffices: this is *the* answer
    /// (`None` = the empty answer).
    Complete(Option<DataTree>),
    /// Only partial information is available: a description of the
    /// possible answers (Theorem 3.14).
    Partial(QueryOnIncomplete),
    /// The source failed and the session fell back to local knowledge
    /// (possibly after a quarantine) — the fault-model outcome of
    /// [`Session::answer_resilient`].
    Degraded {
        /// The best available description of the possible answers.
        partial: QueryOnIncomplete,
        /// Which recovery path was taken.
        cause: DegradeCause,
    },
}

impl LocalAnswer {
    /// Was the query fully answered locally?
    pub fn is_complete(&self) -> bool {
        matches!(self, LocalAnswer::Complete(_))
    }
}

/// Per-document webhouse state, generic over the source endpoint (the
/// default, [`Source`], never fails; wrap it in [`FaultySource`] for
/// chaos testing).
pub struct Session<E: SourceEndpoint = Source> {
    alpha: Alphabet,
    source: E,
    refiner: Refiner,
    retry: RetryPolicy,
    jitter: DetRng,
    relax_target: Option<usize>,
    /// Queries answered from local knowledge without contacting the
    /// source.
    pub answered_locally: usize,
    /// Local queries issued by the mediator.
    pub mediator_queries: usize,
    /// Times the knowledge was quarantined and reinitialized after
    /// catching a contradiction (Section 5's dynamic-source policy).
    pub quarantines: usize,
    /// Label used in per-source metric names (set by
    /// [`Webhouse::register`]; anonymous sessions report as `anon`).
    obs_label: String,
    /// Durable journal, when the session was opened with
    /// [`Session::open_journaled`] or [`Session::recover`].
    journal: Option<SessionJournal>,
    /// Set when a journal append failed on a path that could not return
    /// it (quarantine inside `answer_resilient`); journaling stops and
    /// the fault is surfaced by the next fallible operation.
    journal_fault: Option<StoreError>,
    /// Containment-keyed answer cache: exact answers already obtained,
    /// replayed for queries they provably subsume (DESIGN.md §15).
    contain_cache: iixml_contain::AnswerCache,
    /// Toggle for the cache ([`keys::ENV_CONTAIN_CACHE`],
    /// [`Session::set_contain_cache`]). Off = every query pays the
    /// full reference path.
    contain_enabled: bool,
}

/// What [`Session::recover`] found in the journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Clean, or degraded with the number of dropped records.
    pub status: RecoveryStatus,
    /// Journal records reflected in the recovered knowledge.
    pub replayed: usize,
    /// Refine records among them.
    pub refines: usize,
    /// Quarantine records among them.
    pub quarantines: usize,
    /// Source-update records among them.
    pub source_updates: usize,
    /// Whether a torn tail (interrupted final write) was truncated.
    pub torn_tail: bool,
    /// Snapshot the replay started from, if any (records covered).
    pub from_snapshot: Option<u64>,
    /// Whether the journal was beyond continuation and was rebased: a
    /// fresh log seeded with the recovered state (snapshot-only
    /// recovery after losing the log's head).
    pub rebased: bool,
}

impl<E: SourceEndpoint> Session<E> {
    /// Opens a session on a source. The source's declared type (if any)
    /// is folded into the initial knowledge (Theorem 3.5).
    pub fn open(alpha: Alphabet, source: E) -> Session<E> {
        let refiner = initial_knowledge(&alpha, &source);
        Session {
            alpha,
            source,
            refiner,
            retry: RetryPolicy::default(),
            jitter: DetRng::new(0xB0FF),
            relax_target: None,
            answered_locally: 0,
            mediator_queries: 0,
            quarantines: 0,
            obs_label: "anon".to_string(),
            journal: None,
            journal_fault: None,
            contain_cache: iixml_contain::AnswerCache::new(),
            contain_enabled: contain_cache_enabled_from_env(),
        }
    }

    /// Opens a session whose event stream (open, refine, source-update,
    /// quarantine) is durably journaled in `dir`, with periodic
    /// snapshots. After a crash, [`Session::recover`] rebuilds the
    /// session from the journal.
    pub fn open_journaled(
        alpha: Alphabet,
        source: E,
        dir: &Path,
    ) -> Result<Session<E>, WebhouseError> {
        Session::open_journaled_with_io(alpha, source, dir, iixml_store::StoreIo::from_env())
    }

    /// [`Session::open_journaled`] through an explicit store I/O
    /// backend — chaos tests and the CLI's `--disk-fault-at`
    /// walkthrough inject write-path faults here. A fault poisons the
    /// journal writer; the session then degrades explicitly
    /// ([`DegradeCause::Durability`], sticky [`Session::journal_fault`])
    /// instead of silently losing records.
    pub fn open_journaled_with_io(
        alpha: Alphabet,
        source: E,
        dir: &Path,
        io: iixml_store::StoreIo,
    ) -> Result<Session<E>, WebhouseError> {
        let mut session = Session::open(alpha, source);
        let mut journal = SessionJournal::create_with_io(dir, io)?;
        journal.log_open(&session.alpha, session.refiner.current())?;
        session.journal = Some(journal);
        Ok(session)
    }

    /// Rebuilds a journaled session after a crash: verifies the journal,
    /// truncates a torn tail, replays the surviving records through
    /// Refine — from the newest valid snapshot when one exists — and
    /// reopens the journal for further appends. Mid-log corruption
    /// degrades to the longest verified prefix (the §5 posture: detect,
    /// then fall back to a sound state) and is reported as
    /// [`RecoveryStatus::Recovered`] in the returned report.
    ///
    /// `source` is the fresh endpoint for the same document (live
    /// connections do not survive a crash).
    pub fn recover(dir: &Path, source: E) -> Result<(Session<E>, RecoveryReport), WebhouseError> {
        Session::recover_with_io(dir, source, iixml_store::StoreIo::from_env())
    }

    /// [`Session::recover`] through an explicit store I/O backend for
    /// every write recovery makes: the reopened journal, or the rebase.
    pub fn recover_with_io(
        dir: &Path,
        source: E,
        io: iixml_store::StoreIo,
    ) -> Result<(Session<E>, RecoveryReport), WebhouseError> {
        let mut rec =
            iixml_store::journal::recover_with_io(dir, RecoveryMode::Degrade, io.clone())?;
        let rebased = rec.journal.is_none();
        if rebased {
            // The log's head is gone; the state came from a snapshot
            // alone. Rebase onto a fresh log whose open record carries
            // the true declared-type initial, so future quarantine
            // records replay correctly.
            let initial = initial_knowledge(&rec.alpha, &source);
            rec.rebase(dir, io, initial.current())?;
        }
        let report = RecoveryReport {
            status: rec.status,
            replayed: rec.replayed,
            refines: rec.refines,
            quarantines: rec.quarantines,
            source_updates: rec.source_updates,
            torn_tail: rec.torn_tail,
            from_snapshot: rec.from_snapshot,
            rebased,
        };
        let session = Session {
            alpha: rec.alpha,
            source,
            refiner: rec.refiner,
            retry: RetryPolicy::default(),
            jitter: DetRng::new(0xB0FF),
            relax_target: None,
            answered_locally: 0,
            mediator_queries: 0,
            quarantines: rec.quarantines,
            obs_label: "anon".to_string(),
            journal: rec.journal,
            journal_fault: None,
            // Recovery starts with a cold cache: answers are not
            // journaled, and a miss is always sound.
            contain_cache: iixml_contain::AnswerCache::new(),
            contain_enabled: contain_cache_enabled_from_env(),
        };
        Ok((session, report))
    }

    /// Recovers many crashed journaled sessions concurrently on the
    /// `iixml-par` pool, one task per `(name, dir, source)` journal, and
    /// returns them without registering them anywhere: a webhouse with N
    /// independent sessions restarts in roughly 1/min(N, threads) of
    /// the sequential time. Recovery order is irrelevant (journals are
    /// independent) but results come back in name order, each session
    /// labelled with its name for metrics, and are byte-identical at any
    /// pool width, width 1 included. If any journal fails to recover,
    /// the first error in name order is returned.
    pub fn recover_all(
        journals: Vec<(String, PathBuf, E)>,
    ) -> Result<Vec<(String, Session<E>, RecoveryReport)>, WebhouseError>
    where
        E: Send,
    {
        let mut journals = journals;
        journals.sort_by(|a, b| a.0.cmp(&b.0));
        iixml_par::par_map(journals, |(name, dir, source)| {
            let (mut session, report) = Session::recover(&dir, source)?;
            session.set_obs_label(&name);
            Ok((name, session, report))
        })
        .into_iter()
        .collect()
    }

    /// The durability barrier for batched journaling: flushes any
    /// group-committed records still in memory. After this returns
    /// `Ok`, every journaled event is on disk — call it at commit
    /// points when a batched [`FlushPolicy`] is active (the default
    /// policy flushes every record, making this a no-op).
    pub fn sync_journal(&mut self) -> Result<(), WebhouseError> {
        self.take_journal_fault()?;
        match &mut self.journal {
            Some(journal) => journal.sync().map_err(WebhouseError::Store),
            None => Ok(()),
        }
    }

    /// Replaces the journal's group-commit flush policy (see
    /// [`FlushPolicy`]). No-op on un-journaled sessions.
    pub fn set_journal_flush_policy(&mut self, policy: FlushPolicy) -> Result<(), WebhouseError> {
        match &mut self.journal {
            Some(journal) => journal
                .set_flush_policy(policy)
                .map_err(WebhouseError::Store),
            None => Ok(()),
        }
    }

    /// The durability fault that stopped journaling, if any. Once set,
    /// the session keeps operating un-journaled (availability over
    /// durability); the next fallible operation also returns the fault.
    pub fn journal_fault(&self) -> Option<&StoreError> {
        self.journal_fault.as_ref()
    }

    /// Surfaces (and clears) a sticky journal fault recorded on a path
    /// that could not return it.
    fn take_journal_fault(&mut self) -> Result<(), WebhouseError> {
        match self.journal_fault.take() {
            Some(e) => Err(WebhouseError::Store(e)),
            None => Ok(()),
        }
    }

    /// Journals one event through `log`, then snapshots if due. On
    /// failure, journaling stops (the log must not develop gaps) and the
    /// error is returned for the caller to surface.
    fn journal_event(
        &mut self,
        log: impl FnOnce(&mut SessionJournal, &Alphabet) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let Some(mut journal) = self.journal.take() else {
            return Ok(());
        };
        log(&mut journal, &self.alpha)?;
        journal.maybe_snapshot(&self.alpha, self.refiner.current())?;
        self.journal = Some(journal);
        Ok(())
    }

    /// One journaled Refine step: the durability check runs *before* the
    /// in-memory step, so a step the journal cannot spell is rejected
    /// with the knowledge unchanged, and the append lands *after* (redo
    /// order: a crash in between loses only the never-acknowledged
    /// step).
    fn apply_refine(&mut self, q: &PsQuery, ans: &Answer) -> Result<(), WebhouseError> {
        if self.journal.is_some() {
            SessionJournal::check_journalable(&self.alpha, q, ans)?;
        }
        self.refiner.refine(&self.alpha, q, ans)?;
        self.journal_event(|j, alpha| j.log_refine(alpha, q, ans))
            .map_err(WebhouseError::Store)
    }

    /// Sets the label under which this session reports per-source
    /// metrics (`webhouse.fetch_ns.<label>`).
    pub fn set_obs_label(&mut self, label: impl Into<String>) {
        self.obs_label = label.into();
    }

    /// Enables or disables the containment-keyed answer cache at
    /// runtime (overriding [`keys::ENV_CONTAIN_CACHE`]). Disabling
    /// does not drop recorded entries; re-enabling resumes with them.
    pub fn set_contain_cache(&mut self, enabled: bool) {
        self.contain_enabled = enabled;
    }

    /// Containment-cache lookups performed by this session.
    pub fn containment_checks(&self) -> u64 {
        self.contain_cache.checks()
    }

    /// Containment-cache lookups answered from recorded knowledge.
    pub fn containment_hits(&self) -> u64 {
        self.contain_cache.hits()
    }

    /// Tries the containment cache; the returned answer (if any) is
    /// byte-identical to what the source would ship for `q` right now.
    fn cache_lookup(&mut self, q: &PsQuery) -> Option<Answer> {
        if !self.contain_enabled {
            return None;
        }
        let rejects_before = self.contain_cache.fast_rejects();
        OBS_CONTAIN_CHECKS.add_always(1);
        let hit = self.contain_cache.lookup(q);
        OBS_CONTAIN_FAST_REJECTS.add_always(self.contain_cache.fast_rejects() - rejects_before);
        if hit.is_some() {
            OBS_CONTAIN_HITS.add_always(1);
        }
        hit
    }

    /// Records an exact source answer for future containment hits.
    fn cache_record(&mut self, q: &PsQuery, ans: &Answer) {
        if self.contain_enabled {
            self.contain_cache.record(q, ans);
        }
    }

    /// Sets how source failures are retried (default:
    /// [`RetryPolicy::default`]).
    pub fn set_retry(&mut self, policy: RetryPolicy) {
        self.retry = policy;
    }

    /// Reseeds the deterministic backoff jitter (sessions with the same
    /// seed and fault stream replay identical backoff schedules).
    pub fn set_backoff_seed(&mut self, seed: u64) {
        self.jitter = DetRng::new(seed);
    }

    /// Caps the knowledge size used for degraded answers: when set,
    /// degraded partial answers are computed on a copy relaxed (§3.2's
    /// graceful-information-loss heuristic) below `target` — bounded
    /// answer cost in exchange for a coarser description.
    pub fn set_relax_target(&mut self, target: Option<usize>) {
        self.relax_target = target;
    }

    /// The session's frozen alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alpha
    }

    /// Mutable alphabet access, for callers that parse query text
    /// against this session (parsing may intern labels the session has
    /// not seen; unknown labels simply never match existing symbols).
    pub fn alphabet_mut(&mut self) -> &mut Alphabet {
        &mut self.alpha
    }

    /// The accumulated incomplete tree.
    pub fn knowledge(&self) -> &IncompleteTree {
        self.refiner.current()
    }

    /// The known prefix of the document.
    pub fn data_tree(&self) -> Option<DataTree> {
        self.refiner.data_tree()
    }

    /// The source endpoint (for experiment accounting).
    pub fn source(&self) -> &E {
        &self.source
    }

    /// The source endpoint, mutably (chaos experiments adjust fault
    /// plans or peek fault counters mid-run).
    pub fn source_mut(&mut self) -> &mut E {
        &mut self.source
    }

    /// Asks the endpoint one local query (`at = None` means the
    /// document root), validating every shipped answer and retrying
    /// retryable failures per the session's [`RetryPolicy`].
    fn ask_source(&mut self, q: &PsQuery, at: Option<Nid>) -> Result<Answer, WebhouseError> {
        let mut spent_ns: u64 = 0;
        let mut attempt: u32 = 0;
        loop {
            let outcome = match at {
                None => self.source.ask(q),
                Some(n) => self.source.ask_at(q, n),
            };
            let err = match outcome {
                Ok(ans) => {
                    match validate::validate_answer(q, &ans, at, self.source.declared_type()) {
                        Ok(()) => return Ok(ans),
                        Err(v) => {
                            OBS_VALIDATION_REJECTS.incr();
                            SourceError::InvalidAnswer(v)
                        }
                    }
                }
                Err(e) => e,
            };
            OBS_SOURCE_ERRORS.incr();
            attempt += 1;
            if !err.retryable() || attempt >= self.retry.max_attempts {
                return Err(WebhouseError::Source(err));
            }
            let pause = self.retry.backoff_ns(attempt - 1, &mut self.jitter);
            if spent_ns.saturating_add(pause) > self.retry.budget_ns {
                return Err(WebhouseError::Source(err));
            }
            spent_ns += pause;
            OBS_BACKOFF_NS.observe(pause);
            OBS_RETRIES.incr();
            if self.retry.sleep {
                std::thread::sleep(std::time::Duration::from_nanos(pause));
            }
        }
    }

    /// Asks the source directly and refines the local knowledge with
    /// the query-answer pair (Theorem 3.4). Source failures are retried
    /// per the session's [`RetryPolicy`]; answers are validated before
    /// refinement, and refinement is transactional (an error leaves the
    /// knowledge unchanged).
    pub fn fetch(&mut self, q: &PsQuery) -> Result<Answer, WebhouseError> {
        self.take_journal_fault()?;
        // Per-source refine latency; the name is dynamic, so this takes
        // the registry lock — acceptable at fetch granularity.
        let _span = if iixml_obs::enabled() {
            Some(iixml_obs::time(&keys::webhouse_fetch_ns(&self.obs_label)))
        } else {
            None
        };
        // A containment hit replays the recorded answer instead of
        // contacting the source; the refine input — and therefore the
        // knowledge and journal bytes — are identical either way.
        if let Some(ans) = self.cache_lookup(q) {
            self.apply_refine(q, &ans)?;
            return Ok(ans);
        }
        let ans = self.ask_source(q, None)?;
        self.apply_refine(q, &ans)?;
        self.cache_record(q, &ans);
        Ok(ans)
    }

    /// Like [`Session::fetch`], but first asks Proposition 3.13's
    /// auxiliary path queries (all conditions cleared). This pins every
    /// node the query's conditions touch as a data node, guaranteeing
    /// the incomplete tree stays polynomial in the whole query sequence
    /// — the paper's standing size-control strategy.
    pub fn fetch_with_auxiliaries(&mut self, q: &PsQuery) -> Result<Answer, WebhouseError> {
        for aux in iixml_mediator::auxiliary_queries(q) {
            self.fetch(&aux)?;
        }
        self.fetch(q)
    }

    /// Answers from local knowledge only (Section 3.3): complete when
    /// possible, otherwise a description of the possible answers. The
    /// decision is [`Refiner::answer`]'s: from the known data tree when
    /// the knowledge determines the answer, through `q(T)` otherwise.
    pub fn answer_locally(&mut self, q: &PsQuery) -> LocalAnswer {
        match self.refiner.answer(q) {
            Verdict::Complete(a) => {
                self.answered_locally += 1;
                LocalAnswer::Complete(a)
            }
            Verdict::Partial(qt) => LocalAnswer::Partial(qt),
        }
    }

    /// Answers exactly, contacting the source only for the missing
    /// pieces (Section 3.4): generates a non-redundant completion, runs
    /// it with [`iixml_mediator::Completion::run`], asking each local
    /// query through the endpoint (validated and retried per the
    /// session's policy), and refines local knowledge with the now-exact
    /// answer. On any error the knowledge is left unchanged.
    pub fn answer_with_mediation(
        &mut self,
        q: &PsQuery,
    ) -> Result<Option<DataTree>, WebhouseError> {
        self.take_journal_fault()?;
        // A containment hit proves the knowledge already determines
        // `q` exactly (a recorded query subsuming `q` was refined in),
        // so the reference path below would answer locally without
        // refining; replaying the recorded answer skips the local
        // incomplete-tree evaluation too. Byte-identical knowledge is
        // pinned by tests/containment_props.rs.
        if let Some(ans) = self.cache_lookup(q) {
            self.answered_locally += 1;
            return Ok(ans.tree);
        }
        if let LocalAnswer::Complete(a) = self.answer_locally(q) {
            return Ok(a);
        }
        let completion = Mediator::new(self.refiner.current()).complete(q);
        self.mediator_queries += completion.queries.len();
        let (known, _) =
            completion.run(self.data_tree(), |lq| self.ask_source(&lq.query, lq.at))?;
        let answer = match &known {
            Some(k) => q.eval(k),
            None => Answer {
                tree: None,
                provenance: HashMap::new(),
            },
        };
        // The answer is now exact; fold it back into the knowledge.
        self.apply_refine(q, &answer)?;
        self.cache_record(q, &answer);
        Ok(answer.tree)
    }

    /// Answers with mediation, *always* producing an answer (the fault
    /// model's end-to-end guarantee):
    ///
    /// * mediation succeeds → [`LocalAnswer::Complete`];
    /// * the source stays unavailable (timeouts/transients/poisoned
    ///   answers exhausting retries) → [`LocalAnswer::Degraded`] with
    ///   the intact local partial answer;
    /// * the knowledge is caught lying — a refine contradiction,
    ///   `rep = ∅`, a vanished anchor, or a graft conflict — →
    ///   quarantine: the knowledge is reinitialized to the declared
    ///   type (Section 5) and mediation retried once; a second failure
    ///   degrades on the fresh knowledge.
    pub fn answer_resilient(&mut self, q: &PsQuery) -> LocalAnswer {
        let mut last_poison: Option<WebhouseError> = None;
        for _round in 0..2 {
            match self.answer_with_mediation(q) {
                Ok(a) => {
                    // A lie can slip past validation (e.g. a consistent
                    // truncation) and only surface as an unsatisfiable
                    // representation: rep = ∅ while a real document
                    // obviously exists.
                    if self.knowledge().is_empty() {
                        last_poison = Some(WebhouseError::Contradiction);
                        self.quarantine();
                        continue;
                    }
                    return LocalAnswer::Complete(a);
                }
                Err(WebhouseError::Source(e)) if !e.signals_update() => {
                    OBS_DEGRADED.incr();
                    return LocalAnswer::Degraded {
                        partial: self.partial_answer(q),
                        cause: DegradeCause::SourceUnavailable(e),
                    };
                }
                Err(WebhouseError::Store(e)) => {
                    // Durability faults do not poison the knowledge:
                    // answer locally, do not quarantine.
                    OBS_DEGRADED.incr();
                    return LocalAnswer::Degraded {
                        partial: self.partial_answer(q),
                        cause: DegradeCause::Durability(e),
                    };
                }
                Err(e) => {
                    last_poison = Some(e);
                    self.quarantine();
                }
            }
        }
        OBS_DEGRADED.incr();
        LocalAnswer::Degraded {
            partial: self.partial_answer(q),
            // The loop only falls through after quarantine rounds, which
            // always set a poison; a contradiction is the conservative
            // reading if that invariant ever breaks.
            cause: DegradeCause::Quarantined(last_poison.unwrap_or(WebhouseError::Contradiction)),
        }
    }

    /// The local partial answer, computed on a relaxed copy of the
    /// knowledge when a relax target is set.
    fn partial_answer(&self, q: &PsQuery) -> QueryOnIncomplete {
        match self.relax_target {
            Some(target) if self.knowledge().size() > target => {
                iixml_mediator::relax(self.knowledge(), target).query(q)
            }
            _ => self.knowledge().query(q),
        }
    }

    fn quarantine(&mut self) {
        self.quarantines += 1;
        OBS_QUARANTINES.incr();
        self.reset_knowledge();
        if let Err(e) = self.journal_event(|j, _| j.log_quarantine()) {
            self.journal_fault = Some(e);
        }
    }

    /// Reacts to a source update: knowledge is reinitialized to the
    /// declared type (the paper's conservative policy for dynamic
    /// sources).
    pub fn reinitialize(&mut self) {
        self.reset_knowledge();
        if let Err(e) = self.journal_event(|j, _| j.log_source_update()) {
            self.journal_fault = Some(e);
        }
    }

    /// Discards the knowledge and restarts from the declared type
    /// (shared by quarantine and source update, which journal different
    /// records).
    fn reset_knowledge(&mut self) {
        self.refiner = initial_knowledge(&self.alpha, &self.source);
        self.answered_locally = 0;
        self.mediator_queries = 0;
        // Cache invalidation rule (DESIGN.md §15): recorded answers
        // describe the *old* document/knowledge; drop them whenever
        // the knowledge restarts (quarantine, source update).
        self.contain_cache.clear();
    }
}

impl Session<Source> {
    /// Applies a source update then reinitializes.
    pub fn source_updated(&mut self, new_tree: DataTree) {
        self.source.update(new_tree);
        self.reinitialize();
    }
}

/// The knowledge a session starts from: the source's declared type (if
/// any) folded into the empty knowledge (Theorem 3.5). Open, reset and
/// rebase all start here.
fn initial_knowledge<E: SourceEndpoint>(alpha: &Alphabet, source: &E) -> Refiner {
    let empty = Refiner::new(alpha);
    match source.declared_type() {
        Some(ty) => Refiner::from_tree(iixml_core::type_intersect::restrict_to_type(
            empty.current(),
            ty,
        )),
        None => empty,
    }
}

impl<E: SourceEndpoint> fmt::Debug for Session<E> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Session")
            .field("knowledge_size", &self.knowledge().size())
            .field("answered_locally", &self.answered_locally)
            .field("quarantines", &self.quarantines)
            .finish()
    }
}

/// A session variant that tracks knowledge *conjunctively*
/// (Theorem 3.8): each fetched query-answer pair appends one layer, so
/// the representation stays linear in the whole query stream
/// (Corollary 3.9) no matter how adversarial the queries are — the
/// paper's answer to Algorithm Refine's exponential worst case.
///
/// The price (Theorem 3.10): questions that quantify over `rep` —
/// emptiness, certain/possible answers — become NP-hard, so this session
/// only offers the PTIME operations: membership and per-layer access.
pub struct ConjunctiveSession {
    alpha: Alphabet,
    source: Source,
    conj: iixml_core::ConjunctiveTree,
}

impl ConjunctiveSession {
    /// Opens a conjunctive session; the declared type (if any) becomes
    /// the base layer.
    pub fn open(alpha: Alphabet, source: Source) -> ConjunctiveSession {
        let mut conj = iixml_core::ConjunctiveTree::new(&alpha);
        if let Some(ty) = source.declared_type() {
            let labels: Vec<_> = alpha.labels().collect();
            let universal = IncompleteTree::universal(&labels);
            let base = iixml_core::type_intersect::restrict_to_type(&universal, ty);
            conj = iixml_core::ConjunctiveTree::from_layers(vec![base]);
        }
        ConjunctiveSession {
            alpha,
            source,
            conj,
        }
    }

    /// Asks the source and appends the constraint layer (Refine⁺).
    pub fn fetch(&mut self, q: &PsQuery) -> Result<Answer, iixml_core::ItreeError> {
        let ans = self.source.answer(q);
        self.conj.refine(&self.alpha, q, &ans)?;
        Ok(ans)
    }

    /// The accumulated conjunctive knowledge.
    pub fn knowledge(&self) -> &iixml_core::ConjunctiveTree {
        &self.conj
    }

    /// Representation size (linear in the query stream, Corollary 3.9).
    pub fn size(&self) -> usize {
        self.conj.size()
    }

    /// PTIME membership: could the source document be `t`?
    pub fn could_be(&self, t: &DataTree) -> bool {
        self.conj.contains(t)
    }

    /// The source (for experiment accounting).
    pub fn source(&self) -> &Source {
        &self.source
    }
}

/// A named collection of sessions — the warehouse itself. Generic over
/// the endpoint like [`Session`]; the default is the reliable
/// [`Source`].
pub struct Webhouse<E: SourceEndpoint = Source> {
    sessions: HashMap<String, Session<E>>,
}

impl<E: SourceEndpoint> Default for Webhouse<E> {
    fn default() -> Webhouse<E> {
        Webhouse {
            sessions: HashMap::new(),
        }
    }
}

impl<E: SourceEndpoint> Webhouse<E> {
    /// An empty webhouse.
    pub fn new() -> Webhouse<E> {
        Webhouse::default()
    }

    /// Registers a source under a name.
    pub fn register(&mut self, name: impl Into<String>, alpha: Alphabet, source: E) {
        let name = name.into();
        let mut session = Session::open(alpha, source);
        session.set_obs_label(&name);
        self.sessions.insert(name, session);
    }

    /// Registers a source whose session journals durably into `dir`
    /// (see [`Session::open_journaled`]).
    pub fn register_journaled(
        &mut self,
        name: impl Into<String>,
        alpha: Alphabet,
        source: E,
        dir: &Path,
    ) -> Result<(), WebhouseError> {
        let name = name.into();
        let mut session = Session::open_journaled(alpha, source, dir)?;
        session.set_obs_label(&name);
        self.sessions.insert(name, session);
        Ok(())
    }

    /// Recovers many crashed journaled sessions concurrently and
    /// registers them: [`Session::recover_all`], then each session
    /// under its name. All-or-nothing: if any journal fails to recover,
    /// the first error (in name order) is returned and no session is
    /// registered.
    pub fn recover_sessions(
        &mut self,
        journals: Vec<(String, PathBuf, E)>,
    ) -> Result<Vec<(String, RecoveryReport)>, WebhouseError>
    where
        E: Send,
    {
        let recovered = Session::recover_all(journals)?;
        let mut reports = Vec::with_capacity(recovered.len());
        for (name, session, report) in recovered {
            reports.push((name.clone(), report));
            self.adopt(name, session);
        }
        Ok(reports)
    }

    /// Registers an already built session under a name (for instance
    /// one returned by [`Session::recover_all`]), replacing any session
    /// of that name.
    pub fn adopt(&mut self, name: impl Into<String>, session: Session<E>) {
        self.sessions.insert(name.into(), session);
    }

    /// Accesses a session.
    pub fn session(&mut self, name: &str) -> Option<&mut Session<E>> {
        self.sessions.get_mut(name)
    }

    /// Iterates over (name, session).
    pub fn sessions(&self) -> impl Iterator<Item = (&String, &Session<E>)> {
        self.sessions.iter()
    }

    /// Iterates mutably over (name, session) — for callers that need to
    /// sync or reconfigure every session (e.g. a server draining at
    /// shutdown). Iteration order is unspecified; order-sensitive
    /// callers must sort by name.
    pub fn sessions_mut(&mut self) -> impl Iterator<Item = (&String, &mut Session<E>)> {
        self.sessions.iter_mut()
    }

    /// Unregisters and returns a session (e.g. a server closing it on
    /// client request). The caller decides what happens to its journal.
    pub fn remove_session(&mut self, name: &str) -> Option<Session<E>> {
        self.sessions.remove(name)
    }

    /// Answers `q` on every registered session, one task per source, so
    /// latency-bound sources overlap instead of queueing (the
    /// multi-source completion of Section 1 run concurrently). Results
    /// come back in session-name order regardless of thread count, and
    /// each session keeps its own retry budget, backoff jitter stream,
    /// and fault seed — a fan-out at any width replays byte-for-byte
    /// from the same seeds.
    pub fn fan_out(&mut self, q: &PsQuery) -> Vec<(String, LocalAnswer)>
    where
        E: Send,
    {
        let mut items: Vec<(&String, &mut Session<E>)> = self.sessions.iter_mut().collect();
        items.sort_by(|a, b| a.0.cmp(b.0));
        iixml_par::par_map(items, |(name, session)| {
            (name.clone(), session.answer_resilient(q))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_query::PsQueryBuilder;
    use iixml_tree::{Mult, Nid, TreeType, TreeTypeBuilder};
    use iixml_values::{Cond, Rat};

    fn catalog_setup() -> (Alphabet, TreeType, DataTree) {
        let mut alpha = Alphabet::new();
        let ty = TreeTypeBuilder::new(&mut alpha)
            .root("catalog")
            .rule("catalog", &[("product", Mult::Plus)])
            .rule(
                "product",
                &[
                    ("name", Mult::One),
                    ("price", Mult::One),
                    ("cat", Mult::One),
                    ("picture", Mult::Star),
                ],
            )
            .rule("cat", &[("subcat", Mult::One)])
            .build()
            .unwrap();
        let mut t = DataTree::new(Nid(0), alpha.get("catalog").unwrap(), Rat::ZERO);
        let mut next = 1u64;
        let mut add = |t: &mut DataTree, nm: i64, pr: i64, sub: i64, pics: &[i64]| {
            let root = t.root();
            let p = t
                .add_child(root, Nid(next), alpha.get("product").unwrap(), Rat::ZERO)
                .unwrap();
            next += 1;
            t.add_child(p, Nid(next), alpha.get("name").unwrap(), Rat::from(nm))
                .unwrap();
            next += 1;
            t.add_child(p, Nid(next), alpha.get("price").unwrap(), Rat::from(pr))
                .unwrap();
            next += 1;
            let c = t
                .add_child(p, Nid(next), alpha.get("cat").unwrap(), Rat::from(1))
                .unwrap();
            next += 1;
            t.add_child(c, Nid(next), alpha.get("subcat").unwrap(), Rat::from(sub))
                .unwrap();
            next += 1;
            for &v in pics {
                t.add_child(p, Nid(next), alpha.get("picture").unwrap(), Rat::from(v))
                    .unwrap();
                next += 1;
            }
        };
        add(&mut t, 100, 120, 10, &[501]);
        add(&mut t, 101, 199, 10, &[]);
        add(&mut t, 102, 175, 11, &[]);
        add(&mut t, 103, 250, 10, &[502]);
        (alpha, ty, t)
    }

    fn query1(alpha: &mut Alphabet) -> PsQuery {
        let mut b = PsQueryBuilder::new(alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "name", Cond::True).unwrap();
        b.child(p, "price", Cond::lt(Rat::from(200))).unwrap();
        let c = b.child(p, "cat", Cond::eq(Rat::from(1))).unwrap();
        b.child(c, "subcat", Cond::True).unwrap();
        b.build()
    }

    fn query3(alpha: &mut Alphabet) -> PsQuery {
        // Cheap cameras with at least one picture.
        let mut b = PsQueryBuilder::new(alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "name", Cond::True).unwrap();
        b.child(p, "price", Cond::lt(Rat::from(150))).unwrap();
        let c = b.child(p, "cat", Cond::eq(Rat::from(1))).unwrap();
        b.child(c, "subcat", Cond::eq(Rat::from(10))).unwrap();
        b.child(p, "picture", Cond::True).unwrap();
        b.build()
    }

    fn query4(alpha: &mut Alphabet) -> PsQuery {
        let mut b = PsQueryBuilder::new(alpha, "catalog", Cond::True);
        let root = b.root();
        let p = b.child(root, "product", Cond::True).unwrap();
        b.child(p, "name", Cond::True).unwrap();
        let c = b.child(p, "cat", Cond::eq(Rat::from(1))).unwrap();
        b.child(c, "subcat", Cond::eq(Rat::from(10))).unwrap();
        b.build()
    }

    #[test]
    fn example_3_4_scenario() {
        // The paper's "More catalog queries" example: after Query 1 (and
        // its sub-200 products), Query 3 (cheap cameras with pictures)
        // needs picture info not fetched by Query 1, so it is not yet
        // answerable; after also asking a picture-fetching query it is.
        let (mut alpha, ty, doc) = catalog_setup();
        let q1 = query1(&mut alpha);
        let q3 = query3(&mut alpha);
        let q4 = query4(&mut alpha);
        let mut session = Session::open(alpha.clone(), Source::new(doc, Some(ty)));

        session.fetch(&q1).unwrap();
        // Query 4 (all cameras) is NOT fully answerable: expensive
        // cameras are unknown.
        let a4 = session.answer_locally(&q4);
        assert!(!a4.is_complete());
        match a4 {
            LocalAnswer::Partial(p) => {
                // But a partial answer exists: possible answers are
                // described, and the sure part contains the two known
                // cheap cameras.
                assert!(p.possible_nonempty());
            }
            _ => unreachable!(),
        }
        // Query 3 involves pictures, which q1 did not fetch: partial.
        let a3 = session.answer_locally(&q3);
        assert!(!a3.is_complete());
        // Mediation answers q3 exactly.
        let exact = session.answer_with_mediation(&q3).unwrap();
        let expected = q3.eval(session.source().document()).tree;
        match (exact, expected) {
            (Some(a), Some(b)) => assert!(a.same_tree(&b)),
            (a, b) => assert_eq!(a.is_none(), b.is_none()),
        }
        // After mediation, q3 is locally answerable.
        assert!(session.answer_locally(&q3).is_complete());
    }

    #[test]
    fn repeat_query_needs_no_fetch() {
        let (mut alpha, ty, doc) = catalog_setup();
        let q1 = query1(&mut alpha);
        let mut session = Session::open(alpha.clone(), Source::new(doc, Some(ty)));
        session.fetch(&q1).unwrap();
        let before = session.source().queries_served;
        let a = session.answer_locally(&q1);
        assert!(a.is_complete());
        assert_eq!(session.source().queries_served, before);
        match a {
            LocalAnswer::Complete(Some(t)) => {
                assert!(t.same_tree(q1.eval(session.source().document()).tree.as_ref().unwrap()));
            }
            _ => panic!("expected a complete nonempty answer"),
        }
    }

    #[test]
    fn source_update_reinitializes() {
        let (mut alpha, ty, doc) = catalog_setup();
        let q1 = query1(&mut alpha);
        let mut session = Session::open(alpha.clone(), Source::new(doc, Some(ty.clone())));
        session.fetch(&q1).unwrap();
        assert!(session.data_tree().is_some());
        // New document: one product only.
        let mut doc2 = DataTree::new(Nid(100), alpha.get("catalog").unwrap(), Rat::ZERO);
        let p = doc2
            .add_child(
                doc2.root(),
                Nid(101),
                alpha.get("product").unwrap(),
                Rat::ZERO,
            )
            .unwrap();
        doc2.add_child(p, Nid(102), alpha.get("name").unwrap(), Rat::from(1))
            .unwrap();
        doc2.add_child(p, Nid(103), alpha.get("price").unwrap(), Rat::from(10))
            .unwrap();
        let c = doc2
            .add_child(p, Nid(104), alpha.get("cat").unwrap(), Rat::from(1))
            .unwrap();
        doc2.add_child(c, Nid(105), alpha.get("subcat").unwrap(), Rat::from(3))
            .unwrap();
        session.source_updated(doc2);
        assert!(session.data_tree().is_none(), "knowledge reset");
        // Old answers are forgotten; fetching again works on the new doc.
        let a = session.fetch(&q1).unwrap();
        assert_eq!(a.len(), 6); // catalog + product + name,price,cat,subcat
    }

    #[test]
    fn auxiliary_fetching_controls_size_on_adversarial_streams() {
        // Example 3.2's stream against a live source: plain fetching
        // doubles the knowledge per query; auxiliary-aided fetching
        // stays flat (Proposition 3.13).
        let mut alpha = Alphabet::new();
        let r = alpha.intern("root");
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut doc = DataTree::new(Nid(0), r, Rat::ZERO);
        doc.add_child(doc.root(), Nid(1), a, Rat::from(100))
            .unwrap();
        doc.add_child(doc.root(), Nid(2), b, Rat::from(200))
            .unwrap();
        let make_query = |alpha: &mut Alphabet, i: i64| {
            let mut bld = PsQueryBuilder::new(alpha, "root", Cond::True);
            let root = bld.root();
            bld.child(root, "a", Cond::eq(Rat::from(i))).unwrap();
            bld.child(root, "b", Cond::eq(Rat::from(i))).unwrap();
            bld.build()
        };
        let mut plain = Session::open(alpha.clone(), Source::new(doc.clone(), None));
        let mut aided = Session::open(alpha.clone(), Source::new(doc.clone(), None));
        for i in 1..=6 {
            let q = make_query(&mut alpha, i);
            plain.fetch(&q).unwrap();
            aided.fetch_with_auxiliaries(&q).unwrap();
        }
        assert!(
            aided.knowledge().size() * 4 < plain.knowledge().size(),
            "aided {} vs plain {}",
            aided.knowledge().size(),
            plain.knowledge().size()
        );
        // Both still track the source.
        assert!(plain.knowledge().contains(&doc));
        assert!(aided.knowledge().contains(&doc));
    }

    #[test]
    fn conjunctive_session_stays_linear_under_adversarial_streams() {
        // Build the Example 3.2 adversarial query stream against a real
        // source; the conjunctive session's size must grow by a constant
        // per query while still tracking the source exactly.
        let mut alpha = Alphabet::new();
        let r = alpha.intern("root");
        let a = alpha.intern("a");
        let b = alpha.intern("b");
        let mut doc = DataTree::new(Nid(0), r, Rat::ZERO);
        doc.add_child(doc.root(), Nid(1), a, Rat::from(100))
            .unwrap();
        doc.add_child(doc.root(), Nid(2), b, Rat::from(200))
            .unwrap();
        let mut session = ConjunctiveSession::open(alpha.clone(), Source::new(doc.clone(), None));
        let mut sizes = Vec::new();
        for i in 1..=10i64 {
            let mut bld = PsQueryBuilder::new(&mut alpha, "root", Cond::True);
            let root = bld.root();
            bld.child(root, "a", Cond::eq(Rat::from(i))).unwrap();
            bld.child(root, "b", Cond::eq(Rat::from(i))).unwrap();
            let q = bld.build();
            session.fetch(&q).unwrap();
            sizes.push(session.size());
        }
        let d = sizes[1] - sizes[0];
        for w in sizes.windows(2) {
            assert_eq!(w[1] - w[0], d, "linear growth: {sizes:?}");
        }
        // Membership still exact.
        assert!(session.could_be(&doc));
        let mut other = doc.clone();
        let aref = other.by_nid(Nid(1)).unwrap();
        other.set_value(aref, Rat::from(3));
        // Value 3 on node 1 contradicts the (pinned-by-nothing)…
        // actually node 1 is never pinned (all answers empty), but a=3
        // with b… query 3 asked a=3 AND b=3: doc has b=200 ≠ 3, so the
        // answer is still empty — consistent!
        assert!(session.could_be(&other));
        let mut excluded = doc.clone();
        let aref = excluded.by_nid(Nid(1)).unwrap();
        let bref = excluded.by_nid(Nid(2)).unwrap();
        excluded.set_value(aref, Rat::from(3));
        excluded.set_value(bref, Rat::from(3));
        assert!(!session.could_be(&excluded), "q3 would have answered");
    }

    #[test]
    fn webhouse_manages_sessions() {
        let (alpha, ty, doc) = catalog_setup();
        let mut wh = Webhouse::new();
        wh.register(
            "shop",
            alpha.clone(),
            Source::new(doc.clone(), Some(ty.clone())),
        );
        wh.register("mirror", alpha.clone(), Source::new(doc, Some(ty)));
        assert_eq!(wh.sessions().count(), 2);
        let mut a2 = alpha.clone();
        let q1 = query1(&mut a2);
        wh.session("shop").unwrap().fetch(&q1).unwrap();
        assert!(wh.session("shop").unwrap().data_tree().is_some());
        assert!(wh.session("mirror").unwrap().data_tree().is_none());
        assert!(wh.session("nope").is_none());
    }

    #[test]
    fn declared_type_strengthens_answers() {
        // With the DTD folded in, the webhouse knows every product has
        // exactly one price — so after q1, the *certain* part of a price
        // query on a known product is stronger than without the type.
        let (mut alpha, ty, doc) = catalog_setup();
        let q1 = query1(&mut alpha);
        let mut with_ty = Session::open(alpha.clone(), Source::new(doc.clone(), Some(ty)));
        let mut without_ty = Session::open(alpha.clone(), Source::new(doc, None));
        with_ty.fetch(&q1).unwrap();
        without_ty.fetch(&q1).unwrap();
        // Query: all products and their names (no price filter).
        let q_names = {
            let mut b = PsQueryBuilder::new(&mut alpha, "catalog", Cond::True);
            let root = b.root();
            let p = b.child(root, "product", Cond::True).unwrap();
            b.child(p, "name", Cond::True).unwrap();
            b.build()
        };
        let at = with_ty.knowledge().query(&q_names);
        let an = without_ty.knowledge().query(&q_names);
        // With the type: every product certainly has a name, so the
        // answer is certainly nonempty (the known products are there).
        assert!(at.certain_nonempty());
        // Both agree it's possibly nonempty.
        assert!(an.possible_nonempty());
    }

    #[test]
    fn persistent_timeouts_degrade_to_the_local_partial_answer() {
        let (mut alpha, ty, doc) = catalog_setup();
        let q1 = query1(&mut alpha);
        let q3 = query3(&mut alpha);
        let src = Source::new(doc, Some(ty));
        let mut session = Session::open(alpha, FaultySource::new(src, FaultPlan::none(), 7));
        session.set_retry(RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        });
        session.fetch(&q1).unwrap();
        let knowledge_before = session.knowledge().size();
        // Source goes dark: every further query times out.
        session.source_mut().set_plan(FaultPlan {
            timeout: 1.0,
            ..FaultPlan::none()
        });
        let a = session.answer_resilient(&q3);
        match a {
            LocalAnswer::Degraded {
                cause: DegradeCause::SourceUnavailable(SourceError::Timeout),
                partial,
            } => {
                // Knowledge from q1 is intact and still describes q3.
                assert!(partial.possible_nonempty());
            }
            other => panic!("expected a degraded answer, got {other:?}"),
        }
        assert_eq!(session.knowledge().size(), knowledge_before);
        assert_eq!(session.quarantines, 0);
        // The source recovers: the same query now completes exactly.
        session.source_mut().set_plan(FaultPlan::none());
        assert!(session.answer_resilient(&q3).is_complete());
    }

    #[test]
    fn transient_faults_are_retried_through() {
        let (mut alpha, ty, doc) = catalog_setup();
        let q1 = query1(&mut alpha);
        let src = Source::new(doc, Some(ty));
        let mut session = Session::open(alpha, FaultySource::new(src, FaultPlan::none(), 11));
        // 30% transient failures, 4 attempts: each query nearly always
        // gets through (p(fail) = 0.3^4 < 1%).
        session.source_mut().set_plan(FaultPlan {
            transient: 0.3,
            ..FaultPlan::none()
        });
        // Cache off so every fetch of the repeated query re-contacts
        // the source and exercises the retry loop.
        session.set_contain_cache(false);
        let mut completed = 0;
        for _ in 0..20 {
            if session.fetch(&q1).is_ok() {
                completed += 1;
            }
        }
        assert!(completed >= 18, "only {completed}/20 completed");
        assert!(session.source().faults.transients > 0, "no faults fired");
    }
}
