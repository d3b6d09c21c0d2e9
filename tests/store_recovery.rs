//! Crash-recovery invariants of the durable session journal under
//! seeded fault injection.
//!
//! The invariant (the tentpole's acceptance bar): recovering a journal
//! that suffered torn writes and bit flips either reproduces the exact
//! serialized knowledge the session had after the surviving record
//! prefix, or reports `Recovered { dropped_records > 0 }` — it never
//! panics and never silently diverges. Over a thousand seeded
//! injury cases drive that claim; `IIXML_TEST_SEED` rotates them.

use iixml_core::io::write_incomplete_xml;
use iixml_core::{IncompleteTree, Refiner};
use iixml_gen::rng::DetRng;
use iixml_gen::testkit;
use iixml_query::PsQuery;
use iixml_store::{recover, Corruptor, Injury, RecoveryMode, RecoveryStatus, SessionJournal};
use iixml_tree::Alphabet;
use std::path::{Path, PathBuf};

const FAMILIES: usize = 20;
const CASES_PER_FAMILY: usize = 52;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("iixml-storerec-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
    }
}

fn ser(refiner: &Refiner, alpha: &Alphabet) -> String {
    write_incomplete_xml(refiner.current(), alpha)
}

/// One journaled session history: the journal directory plus the
/// serialized knowledge after every record (`states[k]` = state once
/// `k` records are durable), built at the store level so the snapshot
/// cadence can be varied per family.
struct Family {
    dir: PathBuf,
    states: Vec<String>,
}

fn build_family(f: usize, seed: u64) -> Family {
    let mut rng = DetRng::new(seed);
    let mut cat = iixml_gen::catalog(2, rng.next_u64());
    // Pre-generate the query pool so the alphabet is complete (frozen)
    // before the Open record spells it out.
    let queries: Vec<PsQuery> = (0..6)
        .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
        .collect();
    let alpha = cat.alpha.clone();

    let dir = scratch(&format!("fam{f}"));
    let mut journal = SessionJournal::create(&dir).unwrap();
    journal.set_snapshot_every(*rng.choose(&[None, Some(2), Some(4)]));
    let mut refiner = Refiner::new(&alpha);
    let initial: IncompleteTree = refiner.current().clone();
    journal.log_open(&alpha, &initial).unwrap();
    // states[0] is the never-observable pre-open state; recovery always
    // reflects at least the Open record.
    let mut states = vec![String::new(), ser(&refiner, &alpha)];

    for _ in 0..rng.range_usize(4, 9) {
        match rng.below(10) {
            0 => {
                refiner = Refiner::from_tree(initial.clone());
                journal.log_quarantine().unwrap();
            }
            1 => {
                refiner = Refiner::from_tree(initial.clone());
                journal.log_source_update().unwrap();
            }
            _ => {
                let q = rng.choose(&queries).clone();
                let ans = q.eval(&cat.doc);
                refiner.refine(&alpha, &q, &ans).unwrap();
                journal.log_refine(&alpha, &q, &ans).unwrap();
            }
        }
        states.push(ser(&refiner, &alpha));
        if journal.maybe_snapshot(&alpha, refiner.current()).unwrap() {
            // The SnapshotRef record changes no state.
            states.push(ser(&refiner, &alpha));
        }
        assert_eq!(journal.seq() as usize, states.len() - 1);
    }
    Family { dir, states }
}

/// Flips one random byte of a random snapshot file, so recovery's
/// fall-back-past-corrupt-snapshots path gets exercised too (the
/// `Corruptor` itself only injures WAL segments).
fn maybe_injure_snapshot(rng: &mut DetRng, dir: &Path) {
    let snaps: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .filter_map(|e| {
            let p = e.unwrap().path();
            (p.extension().is_some_and(|x| x == "snap")).then_some(p)
        })
        .collect();
    if snaps.is_empty() || !rng.bool(0.3) {
        return;
    }
    let path = rng.choose(&snaps);
    let mut bytes = std::fs::read(path).unwrap();
    if bytes.is_empty() {
        return;
    }
    let i = rng.range_usize(0, bytes.len());
    bytes[i] ^= 1 << rng.below(8);
    std::fs::write(path, &bytes).unwrap();
}

// The acceptance floor: the injection sweep is at least a thousand cases.
const _: () = assert!(FAMILIES * CASES_PER_FAMILY >= 1000);

#[test]
fn recovery_never_diverges_under_seeded_injection() {
    let base = testkit::base_seed();
    let mut recovered_ok = 0usize;
    let mut typed_errors = 0usize;
    for f in 0..FAMILIES {
        let fam_seed = DetRng::new(base).fork(f as u64).next_u64();
        let fam = build_family(f, fam_seed);
        let total = fam.states.len() - 1;
        let case_dir = scratch(&format!("fam{f}-case"));
        for c in 0..CASES_PER_FAMILY {
            let case_seed = DetRng::new(fam_seed).fork(c as u64).next_u64();
            let ctx = format!(
                "family {f} case {c} — replay with IIXML_TEST_SEED={base} \
                 (family seed {fam_seed}, case seed {case_seed})"
            );
            copy_dir(&fam.dir, &case_dir);
            let mut rng = DetRng::new(case_seed);
            let mut corruptor = Corruptor::new(case_seed);
            let injuries: Vec<Injury> = (0..rng.range_usize(1, 3))
                .map(|_| corruptor.injure(&case_dir).unwrap())
                .collect();
            maybe_injure_snapshot(&mut rng, &case_dir);
            // A truncation landing exactly on a frame boundary is
            // indistinguishable from a shorter log (records the
            // recoverer never heard of cannot be missed) — so only
            // then may a clean recovery come up short without a torn
            // tail. Bit flips must never be silent.
            let tore = injuries
                .iter()
                .any(|i| matches!(i, Injury::Truncated { .. }));

            let rec = match recover(&case_dir, RecoveryMode::Degrade) {
                Ok(rec) => rec,
                Err(_) => {
                    // A typed error (journal destroyed beyond any sound
                    // prefix) is an acceptable outcome; a panic is not.
                    typed_errors += 1;
                    continue;
                }
            };
            recovered_ok += 1;
            assert!(
                rec.replayed >= 1 && rec.replayed <= total,
                "{ctx}: replayed {} of {total} records",
                rec.replayed
            );
            let got = ser(&rec.refiner, &rec.alpha);
            assert_eq!(
                got, fam.states[rec.replayed],
                "{ctx}: recovered state is not the state after {} records",
                rec.replayed
            );
            // Never silently diverge: losing durable records must be
            // visible — as a drop count, or as the torn tail that
            // legitimately ate the end of the log.
            match rec.status {
                RecoveryStatus::Clean => assert!(
                    rec.replayed == total || rec.torn_tail || tore,
                    "{ctx}: clean recovery lost {} records with no torn tail",
                    total - rec.replayed
                ),
                RecoveryStatus::Recovered { dropped_records } => assert!(
                    dropped_records > 0,
                    "{ctx}: Recovered with a zero drop count"
                ),
            }
            // Recovery repairs as it goes, so recovering again must
            // converge: same prefix, same bytes.
            let has_journal = rec.journal.is_some();
            let replayed = rec.replayed;
            drop(rec);
            let again = recover(&case_dir, RecoveryMode::Degrade)
                .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
            assert_eq!(again.replayed, replayed, "{ctx}: second recovery drifted");
            assert_eq!(
                ser(&again.refiner, &again.alpha),
                got,
                "{ctx}: second recovery changed the state"
            );
            if has_journal {
                assert_eq!(
                    again.status,
                    RecoveryStatus::Clean,
                    "{ctx}: repaired log still reports damage"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&fam.dir);
        let _ = std::fs::remove_dir_all(&case_dir);
    }
    // The harness must actually be recovering most of the time, not
    // hiding behind the typed-error escape hatch.
    assert!(
        recovered_ok >= FAMILIES * CASES_PER_FAMILY / 2,
        "only {recovered_ok} of {} cases recovered ({typed_errors} typed errors)",
        FAMILIES * CASES_PER_FAMILY
    );
}

/// Group-commit crash matrix: torn tails landing *inside* a batched
/// flush must recover to (at least) the last fully-fsynced batch, and
/// concurrent recovery of the whole case set through
/// `Webhouse::recover_sessions` must be byte-identical at par widths 1
/// and 4.
#[test]
fn torn_group_commit_batches_recover_to_last_synced_batch() {
    use iixml_store::FlushPolicy;
    use iixml_webhouse::{Source, Webhouse};

    const CASES: usize = 24;
    let base = testkit::base_seed();

    // Build the case set once: each case is a journaled history written
    // under a batch-everything policy, with one explicit sync() barrier
    // at a seeded point, then a crash tearing the final batch at a
    // seeded byte — the exact artifact of a process killed mid-flush.
    struct Case {
        name: String,
        dir: PathBuf,
        doc: iixml_tree::DataTree,
        states: Vec<String>,
        synced: usize,
        total: usize,
    }
    let mut cases: Vec<Case> = Vec::with_capacity(CASES);
    for c in 0..CASES {
        let seed = DetRng::new(base ^ 0xBA7C).fork(c as u64).next_u64();
        let mut rng = DetRng::new(seed);
        let mut cat = iixml_gen::catalog(2, rng.next_u64());
        let queries: Vec<PsQuery> = (0..5)
            .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
            .collect();
        let alpha = cat.alpha.clone();

        let dir = scratch(&format!("gcm-c{c}"));
        let mut journal = SessionJournal::create(&dir).unwrap();
        journal.set_snapshot_every(None);
        journal
            .set_flush_policy(FlushPolicy {
                max_batch_bytes: u64::MAX,
                max_batch_records: u64::MAX,
                max_linger_ticks: u64::MAX,
            })
            .unwrap();
        let mut refiner = Refiner::new(&alpha);
        let initial: IncompleteTree = refiner.current().clone();
        journal.log_open(&alpha, &initial).unwrap();
        let mut states = vec![String::new(), ser(&refiner, &alpha)];

        let steps = rng.range_usize(4, 8);
        let sync_after = rng.range_usize(1, steps); // refines durable at the barrier
        let mut synced_len = 0u64;
        for i in 0..steps {
            let q = rng.choose(&queries).clone();
            let ans = q.eval(&cat.doc);
            refiner.refine(&alpha, &q, &ans).unwrap();
            journal.log_refine(&alpha, &q, &ans).unwrap();
            states.push(ser(&refiner, &alpha));
            if i + 1 == sync_after {
                journal.sync().unwrap();
                let (_, seg) = iixml_store::wal::Wal::segments(&dir)
                    .unwrap()
                    .pop()
                    .unwrap();
                synced_len = std::fs::metadata(seg).unwrap().len();
            }
        }
        let synced = 1 + sync_after; // open + synced refines
        let total = 1 + steps;
        assert!(
            journal.pending_records() > 0,
            "case {c}: nothing left buffered — the tear would not land in a batch"
        );
        drop(journal); // drop flushes the rest; the tear below undoes part of it
        let (_, seg) = iixml_store::wal::Wal::segments(&dir)
            .unwrap()
            .pop()
            .unwrap();
        let full_len = std::fs::metadata(&seg).unwrap().len();
        assert!(full_len > synced_len, "case {c}: final batch wrote nothing");
        // Tear inside the final (unsynced) batch.
        let cut = synced_len + 1 + (rng.next_u64() % (full_len - synced_len));
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(cut)
            .unwrap();
        cases.push(Case {
            name: format!("case-{c:02}"),
            dir,
            doc: cat.doc.clone(),
            states,
            synced,
            total,
        });
    }

    // Recover the whole fleet concurrently at widths 1 and 4. The first
    // pass repairs the torn tails; the invariant (and the bytes) must
    // hold on every pass at every width.
    let mut per_width: Vec<Vec<String>> = Vec::new();
    for &width in &[1usize, 4] {
        iixml_par::set_threads(Some(width));
        let mut house: Webhouse<Source> = Webhouse::new();
        let journals: Vec<(String, PathBuf, Source)> = cases
            .iter()
            .map(|c| {
                (
                    c.name.clone(),
                    c.dir.clone(),
                    Source::new(c.doc.clone(), None),
                )
            })
            .collect();
        let reports = house
            .recover_sessions(journals)
            .expect("torn batches are benign; recovery must not error");
        assert_eq!(reports.len(), CASES);
        let mut knowledge = Vec::with_capacity(CASES);
        for (case, (name, report)) in cases.iter().zip(&reports) {
            assert_eq!(&case.name, name, "name order broke");
            assert_eq!(
                report.status,
                RecoveryStatus::Clean,
                "{name} width {width}: a torn batch is the benign crash shape"
            );
            assert!(
                report.replayed >= case.synced,
                "{name} width {width}: lost a record acknowledged by sync() \
                 (replayed {} < {} synced)",
                report.replayed,
                case.synced
            );
            assert!(report.replayed <= case.total, "{name}: replayed too much");
            let session = house.session(name).unwrap();
            let alpha = session.alphabet().clone();
            let got = write_incomplete_xml(session.knowledge(), &alpha);
            assert_eq!(
                got, case.states[report.replayed],
                "{name} width {width}: state is not the state after {} records",
                report.replayed
            );
            knowledge.push(got);
        }
        per_width.push(knowledge);
    }
    iixml_par::set_threads(None);
    assert_eq!(
        per_width[0], per_width[1],
        "recovery width changed the recovered bytes"
    );
    for case in &cases {
        let _ = std::fs::remove_dir_all(&case.dir);
    }
}

/// Segment compaction: once snapshots cover the old segments they are
/// retired (file-level GC), and recovery of the compacted journal —
/// which no longer starts with its Open record — re-anchors on a
/// SnapshotRef and comes back `Clean` in both modes, byte-identical to
/// the uncompacted history.
#[test]
fn compacted_journals_recover_clean_from_the_anchor() {
    let base = testkit::base_seed();
    let mut rng = DetRng::new(base ^ 0xC0DA);
    let mut cat = iixml_gen::catalog(2, rng.next_u64());
    let queries: Vec<PsQuery> = (0..6)
        .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
        .collect();
    let alpha = cat.alpha.clone();

    let dir = scratch("compact");
    let mut journal = SessionJournal::create(&dir).unwrap();
    journal.set_segment_bytes(512); // roll often so compaction has prey
    journal.set_snapshot_every(Some(4));
    let mut refiner = Refiner::new(&alpha);
    let initial: IncompleteTree = refiner.current().clone();
    journal.log_open(&alpha, &initial).unwrap();
    let mut states = vec![String::new(), ser(&refiner, &alpha)];
    for _ in 0..24 {
        match rng.below(8) {
            0 => {
                refiner = Refiner::from_tree(initial.clone());
                journal.log_quarantine().unwrap();
            }
            _ => {
                let q = rng.choose(&queries).clone();
                let ans = q.eval(&cat.doc);
                refiner.refine(&alpha, &q, &ans).unwrap();
                journal.log_refine(&alpha, &q, &ans).unwrap();
            }
        }
        states.push(ser(&refiner, &alpha));
        if journal.maybe_snapshot(&alpha, refiner.current()).unwrap() {
            states.push(ser(&refiner, &alpha));
        }
    }
    let total = journal.seq() as usize;
    assert_eq!(total, states.len() - 1);
    drop(journal);

    let segs = iixml_store::wal::Wal::segments(&dir).unwrap();
    assert!(
        segs[0].0 > 0,
        "no segment was retired — compaction never ran (segments: {segs:?})"
    );
    assert!(
        std::fs::read_dir(&dir).unwrap().all(|e| !e
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".retired")),
        "a retirement tombstone survived"
    );

    for mode in [RecoveryMode::Strict, RecoveryMode::Degrade] {
        let rec = recover(&dir, mode).expect("compacted journal must recover");
        assert_eq!(
            rec.status,
            RecoveryStatus::Clean,
            "{mode:?}: a retired prefix is GC, not loss"
        );
        assert_eq!(rec.replayed, total, "{mode:?}: replayed the wrong count");
        assert!(rec.from_snapshot.is_some(), "{mode:?}: did not re-anchor");
        assert!(rec.journal.is_some(), "{mode:?}: journal not continuable");
        assert_eq!(
            ser(&rec.refiner, &rec.alpha),
            states[total],
            "{mode:?}: compacted recovery diverged"
        );
        assert!(
            rec.initial.is_some(),
            "{mode:?}: initial knowledge lost (quarantine replay would break)"
        );
    }

    // A torn tail on top of the compacted journal stays benign.
    let (_, seg) = iixml_store::wal::Wal::segments(&dir)
        .unwrap()
        .pop()
        .unwrap();
    let len = std::fs::metadata(&seg).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(&seg)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    let rec = recover(&dir, RecoveryMode::Degrade).expect("torn compacted journal");
    assert_eq!(rec.status, RecoveryStatus::Clean);
    assert!(rec.torn_tail);
    assert!(rec.replayed < total && rec.replayed >= 1);
    assert_eq!(ser(&rec.refiner, &rec.alpha), states[rec.replayed]);
    // And the repaired journal continues: append + snapshot + compact
    // again, then one more clean recovery.
    let mut journal = rec.journal.expect("continuable");
    journal.log_quarantine().unwrap();
    let refiner = Refiner::from_tree(rec.initial.clone().unwrap());
    let after = ser(&refiner, &rec.alpha);
    journal.snapshot_now(&rec.alpha, refiner.current()).unwrap();
    let reseq = journal.seq() as usize;
    drop(journal);
    drop(refiner);
    let again = recover(&dir, RecoveryMode::Strict).expect("recovery after continuation");
    assert_eq!(again.status, RecoveryStatus::Clean);
    assert_eq!(again.replayed, reseq);
    assert_eq!(ser(&again.refiner, &again.alpha), after);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A chaos storm (PR 2's unreliable source) on a journaled session,
/// crashed at a seeded step and recovered: the recovered knowledge must
/// be byte-identical to the uncrashed run at the crash point, at
/// parallel widths 1 and 4 — and the whole trajectory must not depend
/// on the width.
#[test]
fn chaos_storm_crash_recovery_is_byte_identical_across_widths() {
    use iixml_webhouse::{FaultPlan, FaultySource, Session, Source};

    let base = testkit::base_seed();
    let steps = 24usize;
    let crash_at = (DetRng::new(base).fork(0xC4A5).next_u64() % steps as u64) as usize;
    let mut trajectories: Vec<Vec<String>> = Vec::new();

    for &width in &[1usize, 4] {
        iixml_par::set_threads(Some(width));
        let mut cat = iixml_gen::catalog(3, base ^ 0x5709);
        let mut queries: Vec<PsQuery> = [150i64, 200, 250, 300, 400, 500]
            .iter()
            .map(|&b| iixml_gen::catalog_query_price_below(&mut cat.alpha, b))
            .collect();
        queries.push(iixml_gen::catalog_query_camera_pictures(&mut cat.alpha));
        let alpha = cat.alpha.clone();
        let make_source = || {
            FaultySource::new(
                Source::new(cat.doc.clone(), Some(cat.ty.clone())),
                FaultPlan::uniform(0.2),
                base ^ 0xFA17,
            )
        };

        let dir = scratch(&format!("chaos-w{width}"));
        let crash_dir = scratch(&format!("chaos-w{width}-crash"));
        let mut session =
            Session::open_journaled(alpha.clone(), make_source(), &dir).expect("journaled open");
        session.set_backoff_seed(base);
        let mut states = Vec::with_capacity(steps);
        for (i, q) in queries.iter().cycle().take(steps).enumerate() {
            let _ = session.answer_resilient(q);
            assert!(
                session.journal_fault().is_none(),
                "journal fault during an uninjured storm"
            );
            states.push(write_incomplete_xml(session.knowledge(), &alpha));
            if i == crash_at {
                // The crash image: every acknowledged record is already
                // synced, so a copy of the directory is exactly what a
                // killed process would leave behind.
                copy_dir(&dir, &crash_dir);
            }
        }

        let (recovered, report) =
            Session::recover(&crash_dir, make_source()).expect("recovery of the crash image");
        assert_eq!(report.status, RecoveryStatus::Clean, "width {width}");
        assert!(
            !report.rebased,
            "width {width}: clean image forced a rebase"
        );
        assert_eq!(
            write_incomplete_xml(recovered.knowledge(), &alpha),
            states[crash_at],
            "width {width}: recovered knowledge diverged from the uncrashed run at step {crash_at}"
        );

        // The full (uncrashed) journal recovers to the final state too.
        drop(session);
        let (full, full_report) =
            Session::recover(&dir, make_source()).expect("recovery of the full journal");
        assert_eq!(full_report.status, RecoveryStatus::Clean, "width {width}");
        assert_eq!(
            write_incomplete_xml(full.knowledge(), &alpha),
            states[steps - 1],
            "width {width}: full-journal recovery diverged from the final state"
        );

        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&crash_dir);
        trajectories.push(states);
    }
    iixml_par::set_threads(None);
    assert_eq!(
        trajectories[0], trajectories[1],
        "thread width changed the session trajectory"
    );
}

/// ENOSPC mid-compaction: the fault strikes while retirement is
/// tearing down a snapshot-covered segment. The error must propagate
/// (never `.ok()`-swallowed), the `.retired` tombstone stays behind for
/// the sweep, the journal is *not* poisoned (only write-path faults
/// are), and recovery comes back `Clean` with every record — then
/// sweeps the tombstone.
#[test]
fn enospc_mid_compaction_propagates_and_recovery_sweeps_the_tombstone() {
    use iixml_store::{Fault, IoOp, StoreIo};

    let base = testkit::base_seed();
    let mut rng = DetRng::new(base ^ 0xE05C);
    let mut cat = iixml_gen::catalog(2, rng.next_u64());
    let queries: Vec<PsQuery> = (0..6)
        .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
        .collect();
    let alpha = cat.alpha.clone();

    let dir = scratch("enospc-compact");
    let io = StoreIo::faulty(base, 0.0); // injector with no random faults
    let mut journal = SessionJournal::create_with_io(&dir, io.clone()).unwrap();
    journal.set_segment_bytes(512); // roll often so compaction has prey
    journal.set_snapshot_every(Some(4));
    // The only Remove the store issues on a healthy run is retirement's
    // final unlink, so this one-shot waits for compaction to reach it.
    io.inject_once(IoOp::Remove, Fault::Enospc);

    let mut refiner = Refiner::new(&alpha);
    journal.log_open(&alpha, refiner.current()).unwrap();
    let mut states = vec![String::new(), ser(&refiner, &alpha)];
    let mut struck = false;
    for _ in 0..24 {
        let q = rng.choose(&queries).clone();
        let ans = q.eval(&cat.doc);
        refiner.refine(&alpha, &q, &ans).unwrap();
        journal.log_refine(&alpha, &q, &ans).unwrap();
        states.push(ser(&refiner, &alpha));
        match journal.maybe_snapshot(&alpha, refiner.current()) {
            Ok(true) => states.push(ser(&refiner, &alpha)),
            Ok(false) => {}
            Err(e) => {
                // snapshot_now appends the SnapshotRef (and syncs it)
                // before compaction runs, so the ref is in the log.
                assert!(
                    e.to_string().contains("No space left"),
                    "unexpected error mid-compaction: {e}"
                );
                states.push(ser(&refiner, &alpha));
                struck = true;
                break;
            }
        }
    }
    assert!(struck, "compaction never reached a retirement");
    let tombstones = || {
        std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .ends_with(".retired")
            })
            .count()
    };
    assert!(tombstones() > 0, "retirement failed without a tombstone");
    // A compaction fault is not a write-path fault: the journal is not
    // poisoned and keeps accepting records.
    assert!(
        journal.fault().is_none(),
        "compaction fault poisoned the writer"
    );
    let q = rng.choose(&queries).clone();
    let ans = q.eval(&cat.doc);
    refiner.refine(&alpha, &q, &ans).unwrap();
    journal.log_refine(&alpha, &q, &ans).unwrap();
    states.push(ser(&refiner, &alpha));
    let total = journal.seq() as usize;
    assert_eq!(total, states.len() - 1);
    drop(journal);

    for mode in [RecoveryMode::Strict, RecoveryMode::Degrade] {
        let rec = recover(&dir, mode).expect("journal with a stuck tombstone must recover");
        assert_eq!(
            rec.status,
            RecoveryStatus::Clean,
            "{mode:?}: GC debris is not loss"
        );
        assert_eq!(rec.replayed, total, "{mode:?}: replayed the wrong count");
        assert_eq!(
            ser(&rec.refiner, &rec.alpha),
            states[total],
            "{mode:?}: recovery diverged"
        );
    }
    assert_eq!(tombstones(), 0, "recovery did not sweep the tombstone");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fsync-failure-then-crash: a batched journal hits the fsyncgate
/// shape — the flush's fsync fails and the kernel drops the unsynced
/// pages. The sync must report the fault, the writer must stay
/// poisoned, and recovery must land exactly on the last acknowledged
/// barrier: nothing synced is lost, nothing unsynced is resurrected.
#[test]
fn fsync_failure_then_crash_recovers_exactly_the_acknowledged_barrier() {
    use iixml_store::{take_drop_fault, Fault, FlushPolicy, IoOp, StoreIo};

    let base = testkit::base_seed();
    let mut rng = DetRng::new(base ^ 0xF5BC);
    let mut cat = iixml_gen::catalog(2, rng.next_u64());
    let queries: Vec<PsQuery> = (0..6)
        .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
        .collect();
    let alpha = cat.alpha.clone();

    let dir = scratch("fsyncgate");
    let io = StoreIo::faulty(base, 0.0);
    let mut journal = SessionJournal::create_with_io(&dir, io.clone()).unwrap();
    journal.set_snapshot_every(None);
    journal
        .set_flush_policy(FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: u64::MAX,
            max_linger_ticks: u64::MAX,
        })
        .unwrap();
    let mut refiner = Refiner::new(&alpha);
    journal.log_open(&alpha, refiner.current()).unwrap();
    let mut states = vec![String::new(), ser(&refiner, &alpha)];
    for _ in 0..3 {
        let q = rng.choose(&queries).clone();
        let ans = q.eval(&cat.doc);
        refiner.refine(&alpha, &q, &ans).unwrap();
        journal.log_refine(&alpha, &q, &ans).unwrap();
        states.push(ser(&refiner, &alpha));
    }
    journal.sync().unwrap(); // the barrier: open + 3 refines durable
    let barrier = journal.seq() as usize;
    assert_eq!(barrier, 4);

    for _ in 0..3 {
        let q = rng.choose(&queries).clone();
        let ans = q.eval(&cat.doc);
        refiner.refine(&alpha, &q, &ans).unwrap();
        journal.log_refine(&alpha, &q, &ans).unwrap();
    }
    io.inject_once(IoOp::Sync, Fault::FsyncLoss);
    let err = journal.sync().expect_err("the injected fsync must fail");
    assert!(
        journal.fault().is_some(),
        "a failed fsync must poison the writer"
    );
    // Sticky: the journal refuses further records with the same fault.
    let q = rng.choose(&queries).clone();
    let ans = q.eval(&cat.doc);
    let again = journal
        .log_refine(&alpha, &q, &ans)
        .expect_err("poisoned journal accepted a record");
    assert_eq!(
        again.to_string(),
        err.to_string(),
        "the sticky fault drifted"
    );
    drop(journal); // crash; an already-poisoned writer drops quietly
    assert!(
        take_drop_fault().is_none(),
        "a poisoned writer re-reported its fault at drop"
    );

    let rec = recover(&dir, RecoveryMode::Strict).expect("the barrier prefix must recover");
    assert_eq!(
        rec.status,
        RecoveryStatus::Clean,
        "fsyncgate left no damage"
    );
    assert_eq!(
        rec.replayed, barrier,
        "recovery must land exactly on the acknowledged barrier"
    );
    assert_eq!(
        ser(&rec.refiner, &rec.alpha),
        states[barrier],
        "recovered state is not the barrier state"
    );
    assert!(
        rec.journal.is_some(),
        "journal not continuable after fsyncgate"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The rebase path with a write-path fault at every operation in turn.
/// The image is a journal whose log is lost (its segment holds only the
/// header) but whose snapshots survive, so recovery must rebase it onto
/// a fresh log. Whatever a fault leaves on disk, recovering again with
/// real I/O must bring back the snapshot's knowledge, byte for byte, and
/// never the declared-type initial; a completed rebase must then
/// recover without rebasing.
#[test]
fn rebase_keeps_the_snapshot_state_under_a_fault_at_every_op() {
    use iixml_store::format::SEGMENT_HEADER_LEN;
    use iixml_store::wal::Wal;
    use iixml_store::StoreIo;
    use iixml_webhouse::{Session, Source};

    let base = testkit::base_seed();
    let mut rng = DetRng::new(base ^ 0x2EBA5E);
    let mut cat = iixml_gen::catalog(3, rng.next_u64());
    let queries: Vec<PsQuery> = (0..6)
        .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
        .collect();
    let alpha = cat.alpha.clone();
    let source = || Source::new(cat.doc.clone(), Some(cat.ty.clone()));
    let knowledge = |s: &Session<Source>| write_incomplete_xml(s.knowledge(), s.alphabet());

    let image = scratch("rebase-image");
    let opened = Session::open(alpha.clone(), source());
    let initial = knowledge(&opened);
    let mut refiner = Refiner::from_tree(opened.knowledge().clone());
    let mut journal = SessionJournal::create(&image).unwrap();
    journal.set_snapshot_every(None);
    journal.log_open(&alpha, refiner.current()).unwrap();
    for half in queries.chunks(3) {
        for q in half {
            let ans = q.eval(&cat.doc);
            refiner.refine(&alpha, q, &ans).unwrap();
            journal.log_refine(&alpha, q, &ans).unwrap();
        }
        journal.snapshot_now(&alpha, refiner.current()).unwrap();
    }
    drop(journal);
    for (_, seg) in Wal::segments(&image).unwrap() {
        let file = std::fs::OpenOptions::new().write(true).open(seg).unwrap();
        file.set_len(SEGMENT_HEADER_LEN as u64).unwrap();
    }
    let want = ser(&refiner, &alpha);
    assert_ne!(want, initial, "the snapshot must differ from the initial");

    let dir = scratch("rebase-case");
    for n in 1u64.. {
        assert!(n < 200, "the rebase never ran fault-free");
        copy_dir(&image, &dir);
        let io = StoreIo::fail_at(base.wrapping_add(n), n);
        let first = Session::recover_with_io(&dir, source(), io.clone());
        let faulted = !io.injected().is_empty();
        match &first {
            Ok((s, report)) => {
                assert!(report.rebased, "op {n}: a lost log must be rebased");
                assert_eq!(knowledge(s), want, "op {n}: rebased state");
            }
            Err(e) => assert!(faulted, "op {n}: failed without a fault: {e}"),
        }
        drop(first);
        let (again, _) = Session::recover(&dir, source())
            .unwrap_or_else(|e| panic!("op {n}: recovery after the fault failed: {e}"));
        assert_eq!(
            knowledge(&again),
            want,
            "op {n}: recovery lost the snapshot's state"
        );
        drop(again);
        let (settled, report) = Session::recover(&dir, source()).unwrap();
        assert_eq!(knowledge(&settled), want, "op {n}: settled state");
        assert!(!report.rebased, "op {n}: a completed rebase must continue");
        if !faulted {
            break;
        }
    }
    let _ = std::fs::remove_dir_all(&image);
    let _ = std::fs::remove_dir_all(&dir);
}

/// `text` with an old-style history name on every symbol, the form
/// knowledge text took before symbols lost their names.
fn add_history_names(text: &str) -> String {
    text.replace(
        "<symbol ",
        "<symbol name=\"product&amp;product@q1&amp;any:price@bar\" ",
    )
}

/// A journal written before symbols lost their names still recovers:
/// one whose `Open` record and snapshot hold named knowledge text,
/// encoded by the real `Record` and `Snapshot` encoders, recovers to
/// the same knowledge as the same journal written name-free: the
/// snapshot's knowledge with the Refines after it replayed, and the
/// `Open` record's initial knowledge, which resets reload.
#[test]
fn named_knowledge_text_recovers_like_the_name_free_form() {
    use iixml_core::type_intersect::restrict_to_type;
    use iixml_store::{Record, Snapshot};

    let mut rng = DetRng::new(testkit::base_seed() ^ 0x0_1D_F0_27);
    let mut cat = iixml_gen::catalog(4, rng.next_u64());
    let queries: Vec<PsQuery> = (0..6)
        .map(|_| iixml_gen::catalog_query_price_below(&mut cat.alpha, rng.range_i64(50, 500)))
        .collect();
    let alpha = cat.alpha.clone();
    let names: Vec<String> = alpha.labels().map(|l| alpha.name(l).to_string()).collect();
    let labels: Vec<_> = alpha.labels().collect();
    let initial = restrict_to_type(&IncompleteTree::universal(&labels), &cat.ty);

    // Journals the same session with its knowledge text spelled by
    // `spell`; returns the live knowledge at the end.
    let journal_with = |dir: &Path, spell: fn(&str) -> String| -> String {
        let mut refiner = Refiner::from_tree(initial.clone());
        let mut journal = SessionJournal::create(dir).unwrap();
        journal.set_snapshot_every(None);
        let initial_text = spell(&write_incomplete_xml(&initial, &alpha));
        journal
            .append(&Record::Open {
                alpha: names.clone(),
                initial: initial_text.clone(),
            })
            .unwrap();
        let refine = |journal: &mut SessionJournal, refiner: &mut Refiner, q: &PsQuery| {
            let ans = q.eval(&cat.doc);
            refiner.refine(&alpha, q, &ans).unwrap();
            journal.log_refine(&alpha, q, &ans).unwrap();
        };
        for q in &queries[..3] {
            refine(&mut journal, &mut refiner, q);
        }
        let snap = Snapshot {
            seq: journal.seq(),
            alpha: names.clone(),
            initial: Some(initial_text),
            knowledge: spell(&ser(&refiner, &alpha)),
        };
        let (file, crc) = snap.write(dir).unwrap();
        journal
            .append(&Record::SnapshotRef {
                seq: snap.seq,
                file,
                crc,
            })
            .unwrap();
        for q in &queries[3..] {
            refine(&mut journal, &mut refiner, q);
        }
        journal.sync().unwrap();
        ser(&refiner, &alpha)
    };

    let plain_dir = scratch("names-plain");
    let named_dir = scratch("names-old-form");
    let want = journal_with(&plain_dir, str::to_string);
    assert_eq!(journal_with(&named_dir, add_history_names), want);
    let snapshot_text = std::fs::read(
        iixml_store::snapshot::list(&named_dir).unwrap()[0]
            .1
            .clone(),
    )
    .unwrap();
    assert!(
        String::from_utf8_lossy(&snapshot_text).contains("name=\"product&amp;product@q1"),
        "the old-form journal must hold named knowledge text"
    );

    let plain = recover(&plain_dir, RecoveryMode::Strict).unwrap();
    let named = recover(&named_dir, RecoveryMode::Strict).unwrap();
    for r in [&plain, &named] {
        assert_eq!(r.status, RecoveryStatus::Clean);
        assert_eq!(r.from_snapshot, Some(4), "replay starts from the snapshot");
        assert_eq!(write_incomplete_xml(r.refiner.current(), &r.alpha), want);
    }
    assert_eq!(
        write_incomplete_xml(named.initial.as_ref().unwrap(), &named.alpha),
        write_incomplete_xml(plain.initial.as_ref().unwrap(), &plain.alpha)
    );
    drop((plain, named));
    let _ = std::fs::remove_dir_all(&plain_dir);
    let _ = std::fs::remove_dir_all(&named_dir);
}
