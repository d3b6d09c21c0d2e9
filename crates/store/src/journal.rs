//! The session journal: durable event log + snapshots + recovery.
//!
//! [`SessionJournal`] persists a session's event stream (open, refine,
//! source-update, quarantine) as WAL records and periodically snapshots
//! the current incomplete tree. [`recover`] rebuilds the session state
//! by replaying the surviving records through the *real* Refine code —
//! optionally starting from the newest valid snapshot — with the same
//! guarantees the paper's Section 5 demands of a webhouse that catches
//! its warehouse lying: detect, then degrade to a sound state rather
//! than continue from a corrupt one.
//!
//! ## Discipline
//!
//! Appends follow redo-log order: an event is journaled *after* it has
//! been applied in memory. Refinement is transactional (an error leaves
//! the in-memory state unchanged), so a crash between apply and append
//! loses at most the one event that was never acknowledged as durable —
//! recovery is exact "up to the last durable record".
//!
//! ## Alphabet freezing
//!
//! `Session::open` takes its alphabet by value and never grows it; every
//! refine runs against that frozen Σ (whose labels are the universe of
//! the τ_a symbols in Lemma 3.2's construction). The `Open` record
//! persists Σ by name, and replay re-interns those names in order, so
//! label ids — and therefore the serialized knowledge, byte for byte —
//! come out identical. The flip side: an event mentioning labels *beyond*
//! the frozen alphabet has no durable spelling and is rejected with
//! [`StoreError::Unjournalable`] before it is applied.

use crate::error::StoreError;
use crate::io::StoreIo;
use crate::record::Record;
use crate::snapshot::{self, Snapshot};
use crate::wal::{self, FlushPolicy, GroupCommit, Wal};
use iixml_core::io::{parse_incomplete_xml, write_incomplete_xml};
use iixml_core::{IncompleteTree, Refiner};
use iixml_obs::{keys, LazyCounter};
use iixml_query::{parse_ps_query, Answer, MatchKind, PsQuery, QNodeRef};
use iixml_tree::xmlio::{parse_tree, write_tree, MAX_TREE_DEPTH};
use iixml_tree::{Alphabet, Nid};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// Records replayed through Refine during recovery.
static OBS_REPLAYED: LazyCounter = LazyCounter::new(keys::STORE_REPLAYED);

/// A session's durable journal, open for appends.
pub struct SessionJournal {
    dir: PathBuf,
    writer: GroupCommit,
    /// Records appended so far (the journal's length).
    seq: u64,
    /// Take a snapshot every this many records (`None` = never).
    snapshot_every: Option<u64>,
    last_snapshot_seq: u64,
    /// The snapshot generation compaction may GC below: always one
    /// *behind* the newest snapshot, so the log keeps at least two
    /// `SnapshotRef` anchors and a torn tail that eats the newest one
    /// still leaves an anchor to re-align recovery.
    retire_floor: u64,
    /// The initial knowledge from the `Open` record, kept so snapshots
    /// can carry it (a compacted journal loses the `Open` record with
    /// its segment but must still replay quarantine resets).
    initial_xml: Option<String>,
}

impl SessionJournal {
    /// Default snapshot cadence for journaled sessions.
    pub const DEFAULT_SNAPSHOT_EVERY: u64 = 32;

    /// Creates a fresh journal in `dir` (which must not already hold
    /// one), durable every record ([`FlushPolicy::default`]; see
    /// [`SessionJournal::set_flush_policy`]). The I/O backend comes
    /// from the environment ([`StoreIo::from_env`], real unless a fault
    /// knob is set).
    pub fn create(dir: &Path) -> Result<SessionJournal, StoreError> {
        SessionJournal::create_with_io(dir, StoreIo::from_env())
    }

    /// [`SessionJournal::create`] through an explicit I/O backend (tests
    /// and chaos harnesses inject faults here).
    pub fn create_with_io(dir: &Path, io: StoreIo) -> Result<SessionJournal, StoreError> {
        let writer = GroupCommit::new(Wal::create_with(dir, io)?, FlushPolicy::default());
        Ok(SessionJournal {
            dir: dir.to_path_buf(),
            writer,
            seq: 0,
            snapshot_every: Some(SessionJournal::DEFAULT_SNAPSHOT_EVERY),
            last_snapshot_seq: 0,
            retire_floor: 0,
            initial_xml: None,
        })
    }

    /// The journal directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Records appended so far.
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Sets the snapshot cadence (`None` disables automatic snapshots).
    pub fn set_snapshot_every(&mut self, every: Option<u64>) {
        self.snapshot_every = every.filter(|&n| n > 0);
    }

    /// Appends one record. Under the default flush policy the record is
    /// durable when this returns; under a batched policy it is durable
    /// once its batch flushes (see [`SessionJournal::sync`]).
    pub fn append(&mut self, rec: &Record) -> Result<(), StoreError> {
        self.writer.append(&rec.encode())?;
        self.seq += 1;
        Ok(())
    }

    /// The durability barrier: flushes any batched records to disk.
    /// After `sync()` returns `Ok`, every appended record is durable.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.writer.sync()
    }

    /// Advances the group-commit linger clock without appending (call
    /// from externally-driven step loops).
    pub fn tick(&mut self) -> Result<(), StoreError> {
        self.writer.tick()
    }

    /// Records accepted but not yet flushed to disk.
    pub fn pending_records(&self) -> u64 {
        self.writer.pending_records()
    }

    /// The sticky write-path fault that poisoned this journal's writer,
    /// if any. Once set, every further append/sync returns it: the
    /// journal fails safe instead of retrying-and-pretending.
    pub fn fault(&self) -> Option<&StoreError> {
        self.writer.fault()
    }

    /// The I/O backend this journal writes through.
    pub fn io(&self) -> &StoreIo {
        self.writer.io()
    }

    /// Replaces the group-commit flush policy (flushing immediately if
    /// the buffered batch already exceeds the new bounds).
    pub fn set_flush_policy(&mut self, policy: FlushPolicy) -> Result<(), StoreError> {
        self.writer.set_policy(policy)
    }

    /// Sets the WAL segment roll threshold (tests and benches use small
    /// segments to exercise rolling and compaction).
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.writer.set_segment_bytes(bytes);
    }

    /// Journals the session opening: the frozen alphabet and the initial
    /// knowledge (already restricted to the source's declared type).
    pub fn log_open(
        &mut self,
        alpha: &Alphabet,
        initial: &IncompleteTree,
    ) -> Result<(), StoreError> {
        let names = alpha.labels().map(|l| alpha.name(l).to_string()).collect();
        let initial_xml = write_incomplete_xml(initial, alpha);
        self.initial_xml = Some(initial_xml.clone());
        self.append(&Record::Open {
            alpha: names,
            initial: initial_xml,
        })
    }

    /// Journals one applied Refine step. Fails with
    /// [`StoreError::Unjournalable`] when the query or answer uses
    /// labels the frozen alphabet cannot name — callers must perform
    /// this check *before* applying the step (use
    /// [`SessionJournal::check_journalable`]).
    pub fn log_refine(
        &mut self,
        alpha: &Alphabet,
        q: &PsQuery,
        ans: &Answer,
    ) -> Result<(), StoreError> {
        SessionJournal::check_journalable(alpha, q, ans)?;
        let mut provenance: Vec<(u64, bool, u32)> = ans
            .provenance
            .iter()
            .map(|(&nid, &kind)| match kind {
                MatchKind::Matched(m) => (nid.0, false, m.0),
                MatchKind::BarDescendant(m) => (nid.0, true, m.0),
            })
            .collect();
        provenance.sort_unstable();
        self.append(&Record::Refine {
            query: q.to_text(alpha),
            answer_tree: ans.tree.as_ref().map(|t| write_tree(t, alpha)),
            provenance,
        })
    }

    /// Verifies that a refine step has a durable spelling under the
    /// frozen alphabet — every label in the query and the answer tree
    /// must be nameable — and that replay can read the answer back: it
    /// nests at most [`MAX_TREE_DEPTH`] levels.
    pub fn check_journalable(
        alpha: &Alphabet,
        q: &PsQuery,
        ans: &Answer,
    ) -> Result<(), StoreError> {
        let named = alpha.len() as u32;
        for &m in q.preorder() {
            if q.label(m).0 >= named {
                return Err(StoreError::Unjournalable {
                    reason: format!(
                        "query node {} uses a label outside the session's frozen alphabet",
                        m.0
                    ),
                });
            }
        }
        if let Some(t) = &ans.tree {
            // A tree is no deeper than it has nodes: only large answers
            // need the walk.
            if t.len() > MAX_TREE_DEPTH && t.depth() > MAX_TREE_DEPTH {
                return Err(StoreError::Unjournalable {
                    reason: format!("answer nests deeper than {MAX_TREE_DEPTH} levels"),
                });
            }
            for r in t.preorder() {
                if t.label(r).0 >= named {
                    return Err(StoreError::Unjournalable {
                        reason: format!(
                            "answer node {} uses a label outside the session's frozen alphabet",
                            t.nid(r).0
                        ),
                    });
                }
            }
        }
        Ok(())
    }

    /// Journals a source update (knowledge reinitialized).
    pub fn log_source_update(&mut self) -> Result<(), StoreError> {
        self.append(&Record::SourceUpdate)
    }

    /// Journals a quarantine (knowledge caught lying, reinitialized).
    pub fn log_quarantine(&mut self) -> Result<(), StoreError> {
        self.append(&Record::Quarantine)
    }

    /// Takes a snapshot if the cadence says one is due. Call after every
    /// journaled event, passing the *current* knowledge.
    pub fn maybe_snapshot(
        &mut self,
        alpha: &Alphabet,
        knowledge: &IncompleteTree,
    ) -> Result<bool, StoreError> {
        match self.snapshot_every {
            Some(every) if self.seq - self.last_snapshot_seq >= every => {
                self.snapshot_now(alpha, knowledge)?;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Takes a snapshot unconditionally: syncs any batched records (so
    /// the snapshot never claims state beyond the durable log), writes
    /// the state atomically, journals a `SnapshotRef` pointing at it,
    /// syncs again, and retires any segments the snapshot now covers.
    pub fn snapshot_now(
        &mut self,
        alpha: &Alphabet,
        knowledge: &IncompleteTree,
    ) -> Result<(), StoreError> {
        self.sync()?;
        let snap = Snapshot {
            seq: self.seq,
            alpha: alpha.labels().map(|l| alpha.name(l).to_string()).collect(),
            initial: self.initial_xml.clone(),
            knowledge: write_incomplete_xml(knowledge, alpha),
        };
        let (file, crc) = snap.write_with(&self.dir, self.writer.io())?;
        let seq = self.seq;
        self.append(&Record::SnapshotRef { seq, file, crc })?;
        self.sync()?;
        self.retire_floor = self.retire_floor.max(self.last_snapshot_seq);
        self.last_snapshot_seq = seq;
        self.compact()?;
        Ok(())
    }

    /// Retires WAL segments fully covered by snapshots (file-level GC —
    /// no framing change). A segment is eligible when every record in
    /// it has index below the *previous* snapshot's `seq`: compaction
    /// deliberately lags one snapshot generation, so the log always
    /// keeps at least two `SnapshotRef` anchors — recovery of a
    /// compacted journal re-anchors scan positions on any surviving
    /// ref, and a torn tail that eats the newest ref must not take the
    /// only one. Only a contiguous oldest-first prefix is ever removed,
    /// and never the active segment. Returns the number of segments
    /// retired.
    pub fn compact(&mut self) -> Result<usize, StoreError> {
        if self.retire_floor == 0 {
            return Ok(0);
        }
        self.sync()?;
        let segs = Wal::segments(&self.dir)?;
        if segs.len() <= 1 {
            return Ok(0);
        }
        let outcome = wal::scan(&self.dir)?;
        if outcome.damage.is_some() {
            // Never compact around damage; recovery owns that path.
            return Ok(0);
        }
        // Earlier compactions may already have retired a prefix: the
        // surviving frames are always a contiguous suffix of the record
        // sequence, so the first frame's record index is seq − frames.
        let base = self.seq - outcome.frames.len() as u64;
        let covered = self.retire_floor;
        let mut last_in_segment: HashMap<PathBuf, u64> = HashMap::new();
        for (pos, frame) in outcome.frames.iter().enumerate() {
            last_in_segment.insert(frame.segment.clone(), base + pos as u64);
        }
        let mut retired = 0usize;
        for (_, path) in segs.iter().take(segs.len() - 1) {
            let retirable = match last_in_segment.get(path) {
                Some(&last) => last < covered,
                // A header-only segment holds no records.
                None => true,
            };
            if !retirable {
                break;
            }
            wal::retire_segment(&self.dir, self.writer.io(), path)?;
            retired += 1;
        }
        Ok(retired)
    }
}

/// How recovery reacts to mid-log corruption (torn tails are always
/// truncated — they are the normal crash artifact, not damage).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryMode {
    /// Surface mid-log corruption as a typed error.
    Strict,
    /// Degrade: keep the verified prefix (seeded from the last good
    /// snapshot when one exists), report what was dropped.
    Degrade,
}

/// What recovery had to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryStatus {
    /// Every durable record survived (at most a torn tail was
    /// truncated).
    Clean,
    /// Durable records were lost to corruption; the state reflects the
    /// longest verified prefix.
    Recovered {
        /// Records dropped (destroyed, stranded, or undecodable).
        dropped_records: usize,
    },
}

/// The result of recovering a journal.
pub struct Recovered {
    /// The journal, reopened for appends after the replayed prefix.
    /// `None` when the log itself is beyond continuation (state came
    /// from a snapshot alone) — [`Recovered::rebase`] starts a new one.
    pub journal: Option<SessionJournal>,
    /// The frozen alphabet from the `Open` record (or the snapshot, in
    /// the snapshot-only fallback).
    pub alpha: Alphabet,
    /// The initial knowledge from the `Open` record (`None` in the
    /// snapshot-only fallback).
    pub initial: Option<IncompleteTree>,
    /// The replayed session state.
    pub refiner: Refiner,
    /// Records reflected in the state (snapshot-covered + replayed).
    pub replayed: usize,
    /// Refine records among them.
    pub refines: usize,
    /// Quarantine records among them.
    pub quarantines: usize,
    /// Source-update records among them.
    pub source_updates: usize,
    /// Snapshot the replay started from, if any (records covered).
    pub from_snapshot: Option<u64>,
    /// Whether a torn tail was truncated.
    pub torn_tail: bool,
    /// Clean, or degraded with a drop count.
    pub status: RecoveryStatus,
}

impl Recovered {
    /// Rebases a journal recovery could not continue (`journal: None`,
    /// the state came from the snapshot `from_snapshot` alone) onto a
    /// fresh log in `dir`, through `io`. The new log opens with
    /// `initial` and an immediate snapshot of the recovered state. No
    /// op when the journal was continued.
    ///
    /// The order keeps the recovered state on disk at every step, so a
    /// crash or an I/O fault anywhere recovers to it again:
    ///
    /// 1. remove the dead segments, and every snapshot except the one
    ///    the state came from (none of them holds that state);
    /// 2. create the new log, with its `Open` record and its snapshot;
    /// 3. only then remove the source snapshot.
    pub fn rebase(
        &mut self,
        dir: &Path,
        io: StoreIo,
        initial: &IncompleteTree,
    ) -> Result<(), StoreError> {
        if self.journal.is_some() {
            return Ok(());
        }
        let source = self
            .from_snapshot
            .map(|seq| dir.join(Snapshot::file_name(seq)));
        for (_, path) in Wal::segments(dir)? {
            io.remove_file(&path)?;
        }
        for (_, path) in snapshot::list(dir)? {
            if Some(&path) != source.as_ref() {
                io.remove_file(&path)?;
            }
        }
        io.dir_sync(dir)?;
        let mut journal = SessionJournal::create_with_io(dir, io)?;
        journal.log_open(&self.alpha, initial)?;
        journal.snapshot_now(&self.alpha, self.refiner.current())?;
        let fresh = dir.join(Snapshot::file_name(journal.last_snapshot_seq));
        if let Some(path) = source.filter(|path| *path != fresh) {
            journal.io().remove_file(&path)?;
            journal.io().dir_sync(dir)?;
        }
        self.journal = Some(journal);
        Ok(())
    }
}

/// Recovers the journal in `dir`: verifies checksums, truncates a torn
/// tail, replays surviving records through Refine, and — per `mode` —
/// either surfaces mid-log corruption as a typed error or degrades to
/// the longest verified prefix. Never panics on arbitrary directory
/// contents. The reopened writer goes through [`StoreIo::from_env`].
pub fn recover(dir: &Path, mode: RecoveryMode) -> Result<Recovered, StoreError> {
    recover_with_io(dir, mode, StoreIo::from_env())
}

/// [`recover`] with an explicit I/O backend for the reopened writer.
/// The read/repair side (scan, truncate, sweep) always uses real I/O:
/// recovery itself must make progress even under an injector, and the
/// contract under test is the *write* path.
pub fn recover_with_io(
    dir: &Path,
    mode: RecoveryMode,
    io: StoreIo,
) -> Result<Recovered, StoreError> {
    // A directory with no segments left (a prior repair may have removed
    // them all) is an empty log, not a dead end: a surviving snapshot
    // can still supply the state. `Missing` resurfaces below only when
    // there is no snapshot either.
    let outcome = match wal::scan(dir) {
        Ok(outcome) => outcome,
        Err(StoreError::Missing { .. }) => wal::ScanOutcome {
            frames: Vec::new(),
            damage: None,
        },
        Err(e) => return Err(e),
    };
    let mut dropped = 0usize;
    let mut torn_tail = false;
    // First: resolve physical damage. The log is physically truncated at
    // the first bad byte either way; what differs is whether destroyed
    // durable records are an error or a degradation.
    if let Some(damage) = &outcome.damage {
        if damage.is_torn_tail() {
            torn_tail = true;
        } else {
            match mode {
                RecoveryMode::Strict => {
                    return Err(StoreError::Corrupt {
                        segment: damage.segment.clone(),
                        offset: damage.offset,
                        reason: damage.reason.clone(),
                        stranded: damage.stranded,
                    });
                }
                RecoveryMode::Degrade => dropped += damage.records_lost(),
            }
        }
        wal::repair(dir, damage)?;
    }
    // Clean up any half-written snapshot temp file and any segment
    // tombstone left by a crash mid-retirement.
    snapshot::sweep_tmp(dir)?;
    wal::sweep_retired(dir)?;

    // Second: decode the verified frames. A frame that passes its CRC
    // but does not decode is corruption at the record layer (e.g. a
    // rewritten payload with a recomputed checksum); the log is cut
    // there so recovery is idempotent.
    let mut records: Vec<Record> = Vec::with_capacity(outcome.frames.len());
    for (i, frame) in outcome.frames.iter().enumerate() {
        match Record::decode_at(&frame.payload, i) {
            Ok(r) => records.push(r),
            Err(e) => match mode {
                RecoveryMode::Strict => return Err(e),
                RecoveryMode::Degrade => {
                    dropped += outcome.frames.len() - i;
                    wal::truncate_at(dir, &frame.segment, frame.offset)?;
                    break;
                }
            },
        }
    }

    // Third: re-anchor scan positions to record indices. A compacted
    // journal no longer starts at record 0 — its leading segments were
    // retired under a snapshot — but any surviving `SnapshotRef` pins
    // the alignment: a ref carrying `seq` at scan position `p` means the
    // first surviving frame is record `seq − p`. All anchors agree,
    // because compaction only ever removes whole leading segments, so
    // the surviving frames are a contiguous suffix of the record
    // sequence. A journal opening with its `Open` record is anchored at
    // zero by construction.
    let open_first = matches!(records.first(), Some(Record::Open { .. }));
    let base: Option<u64> = if open_first {
        Some(0)
    } else {
        records.iter().enumerate().rev().find_map(|(p, r)| match r {
            Record::SnapshotRef { seq, .. } if *seq >= p as u64 => Some(*seq - p as u64),
            _ => None,
        })
    };
    // How many records the journal provably held, counting the retired
    // prefix (falls back to the surviving count when unanchored).
    let known_total = base.map_or(records.len() as u64, |b| b + records.len() as u64);

    // Find a starting state. Prefer the newest valid snapshot covering
    // no more records than the journal held; otherwise replay from the
    // Open record.
    let (usable_snapshot, newer) = best_snapshots(dir, known_total, mode == RecoveryMode::Degrade);

    // In Degrade mode, a verified snapshot *ahead* of the surviving log
    // is the Section 5 degradation target: the records between the
    // log's end and the snapshot were destroyed, but the snapshot is a
    // real, checksummed state the session reached — strictly more of
    // the history than the surviving prefix proves. The log below it
    // cannot be continued (appends after the gap would contradict the
    // state), so this path returns `journal: None` and the caller
    // rebases onto a fresh journal.
    if mode == RecoveryMode::Degrade {
        let ahead = newer
            .as_ref()
            .or(usable_snapshot.as_ref())
            .filter(|s| s.seq > known_total)
            // When the Open record survived, only trust a snapshot that
            // agrees with it on the alphabet.
            .filter(|s| match records.first() {
                Some(Record::Open { alpha, .. }) => &s.alpha == alpha,
                _ => true,
            });
        if let Some(s) = ahead {
            let alpha = Alphabet::from_names(s.alpha.iter().map(String::as_str));
            let mut parse_alpha = alpha.clone();
            let state = parse_incomplete_xml(&s.knowledge, &mut parse_alpha).map_err(|e| {
                StoreError::SnapshotCorrupt {
                    path: dir.join(Snapshot::file_name(s.seq)),
                    reason: format!("knowledge does not parse: {e}"),
                }
            })?;
            // At least the records between the surviving prefix and the
            // snapshot were destroyed; the damage-derived count may
            // undercount them (stranded frames beyond the first bad
            // byte are estimated, destroyed ones are not).
            let destroyed = (s.seq as usize).saturating_sub(known_total as usize);
            return Ok(Recovered {
                journal: None,
                alpha,
                initial: None,
                refiner: Refiner::from_tree(state),
                replayed: s.seq as usize,
                refines: 0,
                quarantines: 0,
                source_updates: 0,
                from_snapshot: Some(s.seq),
                torn_tail,
                status: RecoveryStatus::Recovered {
                    dropped_records: dropped.max(destroyed).max(1),
                },
            });
        }
    }

    // Anchored continuation: a compacted journal (no Open record, but a
    // SnapshotRef anchor) seeds from the snapshot the compaction was
    // taken under — which, since v2, carries the initial knowledge so
    // quarantine and source-update resets in the tail still replay —
    // then replays the surviving tail. Undamaged compacted journals
    // recover `Clean` this way in both modes: a retired prefix is GC,
    // not loss.
    if !open_first {
        if let Some(b) = base.filter(|&b| b > 0) {
            let seed = usable_snapshot
                .as_ref()
                .filter(|s| s.seq >= b && s.initial.is_some());
            if let Some(s) = seed {
                let alpha = Alphabet::from_names(s.alpha.iter().map(String::as_str));
                let mut parse_alpha = alpha.clone();
                let snap_path = dir.join(Snapshot::file_name(s.seq));
                let initial_xml = s.initial.clone().unwrap_or_default();
                let initial =
                    parse_incomplete_xml(&initial_xml, &mut parse_alpha).map_err(|e| {
                        StoreError::SnapshotCorrupt {
                            path: snap_path.clone(),
                            reason: format!("initial knowledge does not parse: {e}"),
                        }
                    })?;
                let state = parse_incomplete_xml(&s.knowledge, &mut parse_alpha).map_err(|e| {
                    StoreError::SnapshotCorrupt {
                        path: snap_path,
                        reason: format!("knowledge does not parse: {e}"),
                    }
                })?;
                let mut refiner = Refiner::from_tree(state);
                let mut refines = 0usize;
                let mut quarantines = 0usize;
                let mut source_updates = 0usize;
                // Scan position of the first record past the snapshot
                // (its own SnapshotRef — a replay noop).
                let start_pos = (s.seq - b) as usize;
                let mut applied = s.seq as usize;
                for (i, rec) in records.iter().enumerate().skip(start_pos) {
                    let index = b as usize + i;
                    let result =
                        replay_one(rec, &alpha, &mut parse_alpha, &mut refiner, &initial, index);
                    match result {
                        Ok(kind) => {
                            match kind {
                                ReplayKind::Refine => refines += 1,
                                ReplayKind::Quarantine => quarantines += 1,
                                ReplayKind::SourceUpdate => source_updates += 1,
                                ReplayKind::Noop => {}
                            }
                            applied = index + 1;
                            OBS_REPLAYED.incr();
                        }
                        Err(e) => match mode {
                            RecoveryMode::Strict => return Err(e),
                            RecoveryMode::Degrade => {
                                dropped += records.len() - i;
                                let frame = &outcome.frames[i];
                                wal::truncate_at(dir, &frame.segment, frame.offset)?;
                                break;
                            }
                        },
                    }
                }
                // Counters cover what is visible: the surviving records
                // below the snapshot plus the replayed tail (records
                // retired with their segments are gone entirely).
                for rec in records.iter().take(start_pos) {
                    match rec {
                        Record::Refine { .. } => refines += 1,
                        Record::Quarantine => quarantines += 1,
                        Record::SourceUpdate => source_updates += 1,
                        _ => {}
                    }
                }
                let writer =
                    GroupCommit::new(Wal::open_append_with(dir, io)?, FlushPolicy::default());
                let journal = SessionJournal {
                    dir: dir.to_path_buf(),
                    writer,
                    seq: applied as u64,
                    snapshot_every: Some(SessionJournal::DEFAULT_SNAPSHOT_EVERY),
                    last_snapshot_seq: s.seq,
                    retire_floor: 0,
                    initial_xml: Some(initial_xml),
                };
                return Ok(Recovered {
                    journal: Some(journal),
                    alpha,
                    initial: Some(initial),
                    refiner,
                    replayed: applied,
                    refines,
                    quarantines,
                    source_updates,
                    from_snapshot: Some(s.seq),
                    torn_tail,
                    status: if dropped > 0 {
                        RecoveryStatus::Recovered {
                            dropped_records: dropped,
                        }
                    } else {
                        RecoveryStatus::Clean
                    },
                });
            }
            // No usable anchored seed (snapshot files destroyed): fall
            // through — Degrade's snapshot-only fallback may still
            // apply; Strict surfaces the headless log below.
        }
    }

    let open = match records.first() {
        Some(Record::Open { alpha, initial }) => Some((alpha.clone(), initial.clone())),
        _ => None,
    };
    let (alpha, mut parse_alpha, mut refiner, initial, start, from_snapshot) =
        match (&open, &usable_snapshot) {
            (Some((names, initial_xml)), snap) => {
                let alpha = Alphabet::from_names(names.iter().map(String::as_str));
                let mut parse_alpha = alpha.clone();
                let initial = parse_incomplete_xml(initial_xml, &mut parse_alpha).map_err(|e| {
                    StoreError::BadRecord {
                        index: 0,
                        reason: format!("initial knowledge does not parse: {e}"),
                    }
                })?;
                // Only trust a snapshot that agrees with the Open record
                // on the alphabet (ids must line up for replayed text).
                let snap = snap.as_ref().filter(|s| &s.alpha == names);
                match snap {
                    Some(s) => {
                        let state =
                            parse_incomplete_xml(&s.knowledge, &mut parse_alpha).map_err(|e| {
                                StoreError::SnapshotCorrupt {
                                    path: dir.join(Snapshot::file_name(s.seq)),
                                    reason: format!("knowledge does not parse: {e}"),
                                }
                            })?;
                        let seq = s.seq;
                        (
                            alpha,
                            parse_alpha,
                            Refiner::from_tree(state),
                            initial,
                            seq as usize,
                            Some(seq),
                        )
                    }
                    None => (
                        alpha,
                        parse_alpha,
                        Refiner::from_tree(initial.clone()),
                        initial,
                        1,
                        None,
                    ),
                }
            }
            (None, Some(s)) => {
                // Snapshot-only fallback: the Open record (and with it
                // every earlier record) is gone, but a verified snapshot
                // still gives a sound state to degrade to.
                if mode == RecoveryMode::Strict {
                    return Err(StoreError::BadRecord {
                        index: 0,
                        reason: "journal does not start with an open record".into(),
                    });
                }
                let alpha = Alphabet::from_names(s.alpha.iter().map(String::as_str));
                let mut parse_alpha = alpha.clone();
                let state = parse_incomplete_xml(&s.knowledge, &mut parse_alpha).map_err(|e| {
                    StoreError::SnapshotCorrupt {
                        path: dir.join(Snapshot::file_name(s.seq)),
                        reason: format!("knowledge does not parse: {e}"),
                    }
                })?;
                dropped += records.len();
                return Ok(Recovered {
                    journal: None,
                    alpha,
                    initial: None,
                    refiner: Refiner::from_tree(state),
                    replayed: s.seq as usize,
                    refines: 0,
                    quarantines: 0,
                    source_updates: 0,
                    from_snapshot: Some(s.seq),
                    torn_tail,
                    status: RecoveryStatus::Recovered {
                        dropped_records: dropped.max(1),
                    },
                });
            }
            (None, None) => {
                return Err(match records.len() {
                    0 => StoreError::Missing {
                        dir: dir.to_path_buf(),
                    },
                    _ => StoreError::BadRecord {
                        index: 0,
                        reason: format!(
                            "journal starts with a {} record, not open",
                            records[0].kind()
                        ),
                    },
                });
            }
        };

    // Fourth: replay the tail through the real Refine code.
    let mut refines = 0usize;
    let mut quarantines = 0usize;
    let mut source_updates = 0usize;
    let mut applied = start;
    for (i, rec) in records.iter().enumerate().skip(start) {
        let result = replay_one(rec, &alpha, &mut parse_alpha, &mut refiner, &initial, i);
        match result {
            Ok(kind) => {
                match kind {
                    ReplayKind::Refine => refines += 1,
                    ReplayKind::Quarantine => quarantines += 1,
                    ReplayKind::SourceUpdate => source_updates += 1,
                    ReplayKind::Noop => {}
                }
                applied = i + 1;
                OBS_REPLAYED.incr();
            }
            Err(e) => match mode {
                RecoveryMode::Strict => return Err(e),
                RecoveryMode::Degrade => {
                    dropped += records.len() - i;
                    let frame = &outcome.frames[i];
                    wal::truncate_at(dir, &frame.segment, frame.offset)?;
                    break;
                }
            },
        }
    }

    // Reopen for appends after the surviving prefix.
    let writer = GroupCommit::new(Wal::open_append_with(dir, io)?, FlushPolicy::default());
    let journal = SessionJournal {
        dir: dir.to_path_buf(),
        writer,
        seq: applied as u64,
        snapshot_every: Some(SessionJournal::DEFAULT_SNAPSHOT_EVERY),
        last_snapshot_seq: from_snapshot.unwrap_or(0),
        retire_floor: 0,
        initial_xml: open.as_ref().map(|(_, xml)| xml.clone()),
    };
    // Session-level counters want totals over the whole journal, not
    // just the replayed tail: count the snapshot-covered prefix too.
    for rec in records.iter().take(start) {
        match rec {
            Record::Refine { .. } => refines += 1,
            Record::Quarantine => quarantines += 1,
            Record::SourceUpdate => source_updates += 1,
            _ => {}
        }
    }
    Ok(Recovered {
        journal: Some(journal),
        alpha,
        initial: Some(initial),
        refiner,
        replayed: applied,
        refines,
        quarantines,
        source_updates,
        from_snapshot,
        torn_tail,
        status: if dropped > 0 {
            RecoveryStatus::Recovered {
                dropped_records: dropped,
            }
        } else {
            RecoveryStatus::Clean
        },
    })
}

enum ReplayKind {
    Refine,
    Quarantine,
    SourceUpdate,
    Noop,
}

fn replay_one(
    rec: &Record,
    alpha: &Alphabet,
    parse_alpha: &mut Alphabet,
    refiner: &mut Refiner,
    initial: &IncompleteTree,
    index: usize,
) -> Result<ReplayKind, StoreError> {
    let bad = |reason: String| StoreError::BadRecord { index, reason };
    match rec {
        Record::Open { .. } => Err(bad("open record past position 0".into())),
        Record::Refine {
            query,
            answer_tree,
            provenance,
        } => {
            let q = parse_ps_query(query, parse_alpha)
                .map_err(|e| bad(format!("query does not parse: {e}")))?;
            let tree = match answer_tree {
                None => None,
                Some(text) => Some(
                    parse_tree(text, parse_alpha)
                        .map_err(|e| bad(format!("answer tree does not parse: {e}")))?,
                ),
            };
            let mut prov: HashMap<Nid, MatchKind> = HashMap::with_capacity(provenance.len());
            for &(nid, barred, qnode) in provenance {
                let kind = if barred {
                    MatchKind::BarDescendant(QNodeRef(qnode))
                } else {
                    MatchKind::Matched(QNodeRef(qnode))
                };
                prov.insert(Nid(nid), kind);
            }
            let ans = Answer {
                tree,
                provenance: prov,
            };
            refiner
                .refine(alpha, &q, &ans)
                .map_err(|e| bad(format!("refine replay failed: {e}")))?;
            Ok(ReplayKind::Refine)
        }
        Record::SourceUpdate => {
            *refiner = Refiner::from_tree(initial.clone());
            Ok(ReplayKind::SourceUpdate)
        }
        Record::Quarantine => {
            *refiner = Refiner::from_tree(initial.clone());
            Ok(ReplayKind::Quarantine)
        }
        Record::SnapshotRef { .. } => Ok(ReplayKind::Noop),
    }
}

/// From one listing of `dir`, newest first, loading (and so
/// CRC-checking) each snapshot at most once: the newest snapshot that
/// verifies and covers at most `max_seq` records, and, with `above`,
/// the newest that verifies above it, if any. So the newest snapshot
/// that verifies at all is the second, or else the first. Corrupt
/// snapshots are skipped (recovery falls back to older ones, then to
/// full replay).
fn best_snapshots(dir: &Path, max_seq: u64, above: bool) -> (Option<Snapshot>, Option<Snapshot>) {
    let Ok(list) = snapshot::list(dir) else {
        return (None, None);
    };
    let mut newer = None;
    for (seq, path) in list.iter().rev() {
        if *seq > max_seq && (!above || newer.is_some()) {
            continue;
        }
        let Ok(s) = Snapshot::load(path) else {
            continue;
        };
        if *seq <= max_seq {
            return (Some(s), newer);
        }
        newer = Some(s);
    }
    (None, newer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use iixml_tree::{DataTree, Label};
    use iixml_values::Rat;

    /// An answer whose tree is a chain of `levels` `a` nodes.
    fn chain_answer(levels: u64) -> Answer {
        let mut t = DataTree::new(Nid(0), Label(0), Rat::ZERO);
        let mut at = t.root();
        for i in 1..levels {
            at = t.add_child(at, Nid(i), Label(0), Rat::ZERO).unwrap();
        }
        Answer {
            tree: Some(t),
            provenance: HashMap::new(),
        }
    }

    #[test]
    fn answers_deeper_than_replay_reads_are_unjournalable() {
        let mut alpha = Alphabet::new();
        let q = parse_ps_query("a", &mut alpha).unwrap();
        let deepest = chain_answer(MAX_TREE_DEPTH as u64);
        SessionJournal::check_journalable(&alpha, &q, &deepest).unwrap();
        let text = write_tree(deepest.tree.as_ref().unwrap(), &alpha);
        assert!(
            parse_tree(&text, &mut alpha).is_ok(),
            "replay reads it back"
        );
        let err =
            SessionJournal::check_journalable(&alpha, &q, &chain_answer(MAX_TREE_DEPTH as u64 + 1))
                .unwrap_err();
        assert!(
            matches!(&err, StoreError::Unjournalable { reason } if reason.contains("deeper than")),
            "{err}"
        );
    }
}
