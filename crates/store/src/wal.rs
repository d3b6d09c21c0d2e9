//! The write-ahead log: append-only segment files of checksummed,
//! length-prefixed frames.
//!
//! ## On-disk layout
//!
//! A journal directory holds segments `seg-NNNNNN.wal`. Each segment
//! starts with an 8-byte header — magic `IIXJWAL` plus one format
//! version byte (see CONTRIBUTING.md's versioning policy) — followed by
//! frames:
//!
//! ```text
//! +------+--------------+--------------+---------------+
//! | REC! | len: u32 LE  | crc32: u32 LE| payload (len) |
//! +------+--------------+--------------+---------------+
//! ```
//!
//! The per-frame magic makes frames re-synchronizable: after damage,
//! [`scan`] can count how many valid-looking frames are stranded beyond
//! it, which is what distinguishes a *torn tail* (the normal crash
//! artifact — nothing durable was lost) from *mid-log corruption* (bit
//! rot or tampering — durable records were destroyed).
//!
//! Segments roll at [`Wal::DEFAULT_SEGMENT_BYTES`] so long chains spread
//! over many files and damage stays localized.

use crate::crc::crc32;
use crate::error::StoreError;
use crate::io::{StoreFile, StoreIo};
use iixml_obs::{keys, LazyCounter};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Frames appended to the WAL.
static OBS_APPENDS: LazyCounter = LazyCounter::new(keys::STORE_APPENDS);
/// `fsync`/`sync_data` calls issued (appends and snapshot writes).
pub(crate) static OBS_FSYNCS: LazyCounter = LazyCounter::new(keys::STORE_FSYNCS);
/// Frames rejected by checksum verification during scans.
pub(crate) static OBS_CRC_REJECTS: LazyCounter = LazyCounter::new(keys::STORE_CRC_REJECTS);
/// Torn tails truncated during recovery.
static OBS_TORN_TAILS: LazyCounter = LazyCounter::new(keys::STORE_TORN_TAILS);
/// Records accepted into a group-commit buffer.
static OBS_BATCHED_APPENDS: LazyCounter = LazyCounter::new(keys::STORE_BATCHED_APPENDS);
/// Group-commit buffer flushes (each is one write + one fsync).
static OBS_BATCH_FLUSHES: LazyCounter = LazyCounter::new(keys::STORE_BATCH_FLUSHES);
/// Segments retired by compaction.
static OBS_SEGMENTS_RETIRED: LazyCounter = LazyCounter::new(keys::STORE_SEGMENTS_RETIRED);
/// Write-path I/O faults observed (each poisons its writer or aborts
/// its snapshot; see DESIGN.md §14).
pub(crate) static OBS_IO_FAULTS: LazyCounter = LazyCounter::new(keys::STORE_IO_FAULTS);
/// Directory-fsync failures (propagated to the caller and counted,
/// never `.is_ok()`-swallowed).
pub(crate) static OBS_DIR_SYNC_FAILS: LazyCounter = LazyCounter::new(keys::STORE_DIR_SYNC_FAILS);

/// The most recent flush failure recorded by a [`GroupCommit`] drop — a
/// crash-path fault with no caller left to report to. Held here so it
/// is *recorded*, never silently discarded; [`take_drop_fault`] hands
/// it to whoever inspects the wreckage next. No library crate reads it
/// (a webhouse session's sticky `journal_fault` holds only faults its
/// own appends and syncs return): the disk-fault and recovery tests
/// assert on it, and the CLI walkthrough clears it before a recovery.
static DROP_FAULT: Mutex<Option<StoreError>> = Mutex::new(None);

fn note_drop_fault(e: StoreError) {
    // The io-faults counter was already bumped when the WAL poisoned
    // itself; this slot only keeps the error itself reachable.
    match DROP_FAULT.lock() {
        Ok(mut slot) => *slot = Some(e),
        Err(poisoned) => *poisoned.into_inner() = Some(e),
    }
}

/// Takes (and clears) the most recent drop-time flush failure. `None`
/// means every dropped writer flushed cleanly since the last call. The
/// slot is process-global; its readers are the disk-fault and recovery
/// tests and the CLI walkthrough.
pub fn take_drop_fault() -> Option<StoreError> {
    match DROP_FAULT.lock() {
        Ok(mut slot) => slot.take(),
        Err(poisoned) => poisoned.into_inner().take(),
    }
}

pub use crate::format::{FORMAT_VERSION, FRAME_MAGIC, SEGMENT_MAGIC};

use crate::format::{FRAME_HEADER_LEN, SEGMENT_HEADER_LEN};

/// An open WAL, positioned for appends at the tail of the newest
/// segment.
///
/// ## Fail-safe poisoning
///
/// The first failed write, fsync, or roll permanently poisons the
/// writer: the fault is held sticky and every later append returns it.
/// After a write-path failure the on-disk suffix is unknown — a short
/// write may have torn a frame — and appending past it could bury the
/// tear under valid-looking bytes, turning a benign torn tail into
/// mid-log corruption. The writer stays down; recovery owns the
/// directory (DESIGN.md §14).
pub struct Wal {
    dir: PathBuf,
    io: StoreIo,
    seg_index: u64,
    file: StoreFile,
    seg_len: u64,
    /// Roll to a new segment once the current one exceeds this size.
    pub segment_bytes: u64,
    /// Issue `sync_data` after every append (on by default; benches may
    /// turn it off to measure the in-memory cost separately).
    pub sync: bool,
    /// The sticky fault, once a write-path operation has failed.
    fault: Option<StoreError>,
}

impl Wal {
    /// Default segment roll size.
    pub const DEFAULT_SEGMENT_BYTES: u64 = 64 * 1024;

    fn seg_path(dir: &Path, index: u64) -> PathBuf {
        dir.join(format!("seg-{index:06}.wal"))
    }

    /// Sorted (index, path) pairs of the segments present in `dir`.
    pub fn segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
        let mut out = Vec::new();
        let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io(dir, e))?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(idx) = name
                .strip_prefix("seg-")
                .and_then(|s| s.strip_suffix(".wal"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                out.push((idx, entry.path()));
            }
        }
        out.sort();
        Ok(out)
    }

    fn write_header(io: &StoreIo, path: &Path) -> Result<StoreFile, StoreError> {
        let mut file = io.create_new(path)?;
        let mut header = [0u8; SEGMENT_HEADER_LEN];
        header[..7].copy_from_slice(&SEGMENT_MAGIC);
        header[7] = FORMAT_VERSION;
        file.write_all(&header)?;
        Ok(file)
    }

    /// Creates a fresh WAL in `dir` (creating the directory if needed),
    /// on the I/O implementation the `IIXML_STORE_FAULT_*` environment
    /// selects (real unless the knobs are set). Fails if segments
    /// already exist — recovery, not blind appending, is the way into
    /// an existing journal.
    pub fn create(dir: &Path) -> Result<Wal, StoreError> {
        Wal::create_with(dir, StoreIo::from_env())
    }

    /// [`Wal::create`] on an explicit I/O implementation (tests and the
    /// CLI's disk-fault stage thread a faulty one here).
    pub fn create_with(dir: &Path, io: StoreIo) -> Result<Wal, StoreError> {
        std::fs::create_dir_all(dir).map_err(|e| StoreError::io(dir, e))?;
        if !Wal::segments(dir)?.is_empty() {
            return Err(StoreError::Io {
                path: dir.to_path_buf(),
                message: "journal already exists (recover it instead of overwriting)".into(),
            });
        }
        let path = Wal::seg_path(dir, 0);
        let file = Wal::write_header(&io, &path)?;
        Ok(Wal {
            dir: dir.to_path_buf(),
            io,
            seg_index: 0,
            file,
            seg_len: SEGMENT_HEADER_LEN as u64,
            segment_bytes: Wal::DEFAULT_SEGMENT_BYTES,
            sync: true,
            fault: None,
        })
    }

    /// Opens an existing WAL for appending at the tail of its newest
    /// segment. The caller is responsible for having scanned (and
    /// repaired) the log first — appending after unverified bytes would
    /// bury them.
    pub fn open_append(dir: &Path) -> Result<Wal, StoreError> {
        Wal::open_append_with(dir, StoreIo::from_env())
    }

    /// [`Wal::open_append`] on an explicit I/O implementation.
    pub fn open_append_with(dir: &Path, io: StoreIo) -> Result<Wal, StoreError> {
        let segs = Wal::segments(dir)?;
        let Some(&(seg_index, ref path)) = segs.last() else {
            return Err(StoreError::Missing {
                dir: dir.to_path_buf(),
            });
        };
        let file = io.open_append(path)?;
        let seg_len = file.len();
        Ok(Wal {
            dir: dir.to_path_buf(),
            io,
            seg_index,
            file,
            seg_len,
            segment_bytes: Wal::DEFAULT_SEGMENT_BYTES,
            sync: true,
            fault: None,
        })
    }

    /// The I/O implementation this writer runs on.
    pub fn io(&self) -> &StoreIo {
        &self.io
    }

    /// The sticky write-path fault, if this writer is poisoned.
    pub fn fault(&self) -> Option<&StoreError> {
        self.fault.as_ref()
    }

    /// Appends one frame and (by default) syncs it to disk.
    #[inline]
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        let mut frame = Vec::with_capacity(FRAME_HEADER_LEN + payload.len());
        encode_frame_into(&mut frame, payload);
        self.write_batch(&frame, 1)
    }

    /// Writes `records` already-encoded frames in one `write_all` and
    /// (when `sync` is on) one `sync_data`. The roll check happens once,
    /// before the write, so a whole batch always lands in a single
    /// segment — segments may overshoot `segment_bytes` by up to one
    /// batch, which scans and compaction are indifferent to.
    ///
    /// The first failure poisons the writer permanently (see the type
    /// docs); later calls return a clone of the same fault without
    /// touching the disk.
    #[inline]
    pub(crate) fn write_batch(&mut self, bytes: &[u8], records: u64) -> Result<(), StoreError> {
        if let Some(f) = &self.fault {
            return Err(f.clone());
        }
        let result = self.try_write_batch(bytes, records);
        if let Err(e) = &result {
            self.fault = Some(e.clone());
            OBS_IO_FAULTS.incr();
        }
        result
    }

    #[inline]
    fn try_write_batch(&mut self, bytes: &[u8], records: u64) -> Result<(), StoreError> {
        if self.seg_len >= self.segment_bytes {
            self.roll()?;
        }
        self.file.write_all(bytes)?;
        if self.sync {
            self.file.sync_data()?;
            OBS_FSYNCS.incr();
        }
        self.seg_len += bytes.len() as u64;
        OBS_APPENDS.add(records);
        Ok(())
    }

    fn roll(&mut self) -> Result<(), StoreError> {
        let path = Wal::seg_path(&self.dir, self.seg_index + 1);
        self.file = Wal::write_header(&self.io, &path)?;
        self.seg_index += 1;
        self.seg_len = SEGMENT_HEADER_LEN as u64;
        Ok(())
    }
}

/// Encodes one `REC!` frame (header + payload) onto the end of `buf`.
/// Public so the bench's raw-syscall baseline can produce byte-identical
/// frames without going through a writer.
pub fn encode_frame_into(buf: &mut Vec<u8>, payload: &[u8]) {
    buf.reserve(FRAME_HEADER_LEN + payload.len());
    buf.extend_from_slice(&FRAME_MAGIC);
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(&crc32(payload).to_le_bytes());
    buf.extend_from_slice(payload);
}

/// When a group-commit buffer is forced to disk.
///
/// The linger bound counts *logical ticks*, not wall-clock time: the
/// clock advances once per [`GroupCommit::append`] or
/// [`GroupCommit::tick`] call, so byte-for-byte reproducible runs stay
/// reproducible (iixml-vet's determinism rule bans wall-clock reads on
/// these paths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlushPolicy {
    /// Flush once the buffered frames reach this many bytes.
    pub max_batch_bytes: u64,
    /// Flush once this many records are buffered.
    pub max_batch_records: u64,
    /// Flush once the oldest buffered record has waited this many ticks.
    pub max_linger_ticks: u64,
}

impl Default for FlushPolicy {
    /// Durable-every-record: byte-compatible with the pre-group-commit
    /// writer. Every append flushes (and fsyncs) immediately, so an
    /// acknowledged record is always on disk — the assumption the
    /// existing crash tests and `Session::open_journaled` callers make.
    fn default() -> FlushPolicy {
        FlushPolicy {
            max_batch_bytes: Wal::DEFAULT_SEGMENT_BYTES,
            max_batch_records: 1,
            max_linger_ticks: 0,
        }
    }
}

impl FlushPolicy {
    /// A throughput-oriented policy: up to 64 records (or a segment's
    /// worth of bytes) per fsync, with a 64-tick linger bound.
    pub fn batched() -> FlushPolicy {
        FlushPolicy {
            max_batch_bytes: Wal::DEFAULT_SEGMENT_BYTES,
            max_batch_records: 64,
            max_linger_ticks: 64,
        }
    }
}

/// A group-commit writer over a [`Wal`]: appends buffer encoded frames
/// in memory and a *flush* moves the whole batch to disk with a single
/// `write_all` + `sync_data`, amortizing the fsync that dominates
/// per-record append cost.
///
/// Durability contract: a record is durable only once its batch has
/// flushed. [`GroupCommit::sync`] is the explicit barrier — after it
/// returns, every accepted record is on disk (read-your-writes at
/// commit points). A crash mid-batch tears the batch's frames at some
/// byte; the scan classifies that as a torn tail and recovery resumes
/// from the last fully-fsynced batch. Records never reorder: the
/// buffer preserves append order and flushes are sequential.
///
/// Fail-safe: the first failed flush poisons the underlying [`Wal`];
/// from then on `append`, `tick`, and `sync` all return the sticky
/// fault and nothing more reaches the disk — no retry-and-pretend over
/// an unknown on-disk suffix. Dropping a `GroupCommit` still flushes,
/// but a failure there is *recorded* (the drop-fault slot and the
/// `store.io_faults` counter — see [`take_drop_fault`]), never
/// silently discarded; callers that need the guarantee synchronously
/// call [`GroupCommit::sync`].
pub struct GroupCommit {
    wal: Wal,
    policy: FlushPolicy,
    buf: Vec<u8>,
    buffered: u64,
    tick: u64,
    oldest_tick: u64,
}

impl GroupCommit {
    /// Wraps `wal` with the given flush policy. The inner WAL's `sync`
    /// flag is forced on: the batch write is the one sync point.
    pub fn new(mut wal: Wal, policy: FlushPolicy) -> GroupCommit {
        wal.sync = true;
        GroupCommit {
            wal,
            policy,
            buf: Vec::new(),
            buffered: 0,
            tick: 0,
            oldest_tick: 0,
        }
    }

    /// Replaces the flush policy, flushing immediately if the buffered
    /// batch already exceeds the new bounds.
    pub fn set_policy(&mut self, policy: FlushPolicy) -> Result<(), StoreError> {
        self.policy = policy;
        self.flush_if_due()
    }

    /// Sets the segment roll threshold on the inner WAL.
    pub fn set_segment_bytes(&mut self, bytes: u64) {
        self.wal.segment_bytes = bytes.max(SEGMENT_HEADER_LEN as u64 + 1);
    }

    /// Records accepted but not yet flushed to disk.
    pub fn pending_records(&self) -> u64 {
        self.buffered
    }

    /// The I/O implementation the inner WAL runs on.
    pub fn io(&self) -> &StoreIo {
        self.wal.io()
    }

    /// The sticky write-path fault, if this writer is poisoned.
    pub fn fault(&self) -> Option<&StoreError> {
        self.wal.fault()
    }

    /// Accepts one record into the batch, flushing when the policy says
    /// the batch is due. Advances the logical clock by one tick.
    /// A poisoned writer accepts nothing and returns its sticky fault.
    pub fn append(&mut self, payload: &[u8]) -> Result<(), StoreError> {
        if let Some(f) = self.wal.fault() {
            return Err(f.clone());
        }
        self.tick += 1;
        if self.buffered == 0 {
            self.oldest_tick = self.tick;
        }
        encode_frame_into(&mut self.buf, payload);
        self.buffered += 1;
        OBS_BATCHED_APPENDS.incr();
        self.flush_if_due()
    }

    /// Advances the logical clock without appending, flushing when the
    /// oldest buffered record has lingered past the policy bound. Call
    /// this from externally-driven step loops so a lightly-loaded
    /// session cannot hold records in memory indefinitely.
    pub fn tick(&mut self) -> Result<(), StoreError> {
        self.tick += 1;
        self.flush_if_due()
    }

    fn flush_if_due(&mut self) -> Result<(), StoreError> {
        if self.buffered == 0 {
            return Ok(());
        }
        let due = self.buffered >= self.policy.max_batch_records
            || self.buf.len() as u64 >= self.policy.max_batch_bytes
            || self.tick.saturating_sub(self.oldest_tick) >= self.policy.max_linger_ticks;
        if due {
            self.sync()
        } else {
            Ok(())
        }
    }

    /// The durability barrier: flushes any buffered records (one write,
    /// one fsync). After `sync()` returns `Ok`, every accepted record is
    /// on disk. A no-op when nothing is buffered and the writer is
    /// healthy; a poisoned writer returns its sticky fault — it cannot
    /// promise durability for anything, buffered or not.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        if let Some(f) = self.wal.fault() {
            return Err(f.clone());
        }
        if self.buffered == 0 {
            return Ok(());
        }
        // On failure the batch stays buffered: the records were never
        // acknowledged as durable, and the poisoned WAL refuses them
        // anyway — recovery reports them as lost *with* the fault.
        self.wal.write_batch(&self.buf, self.buffered)?;
        self.buf.clear();
        self.buffered = 0;
        OBS_BATCH_FLUSHES.incr();
        Ok(())
    }
}

impl Drop for GroupCommit {
    fn drop(&mut self) {
        // A failed flush here has no caller to report to, but it must
        // not vanish: record it in the drop-fault slot and the
        // io-faults counter. An already-poisoned writer reported its
        // fault when it happened — drop stays quiet then.
        if self.wal.fault().is_some() {
            return;
        }
        if let Err(e) = self.sync() {
            note_drop_fault(e);
        }
    }
}

/// Atomically retires a snapshot-covered segment: rename to a
/// `.retired` name — invisible to [`Wal::segments`], so scans and
/// appends already behave as if it were gone — then directory sync,
/// then delete. A crash *or failure* between the steps leaves either
/// the live segment (retirement simply did not happen) or a `.retired`
/// tombstone, which [`sweep_retired`] removes at recovery; a failed
/// directory sync propagates (counted in `store.dir_sync_fails`)
/// instead of letting an unsynced rename masquerade as durable.
pub(crate) fn retire_segment(dir: &Path, io: &StoreIo, segment: &Path) -> Result<(), StoreError> {
    let Some(name) = segment.file_name() else {
        return Err(StoreError::Io {
            path: segment.to_path_buf(),
            message: "segment path has no file name".into(),
        });
    };
    let mut tomb = name.to_os_string();
    tomb.push(".retired");
    let tomb = dir.join(tomb);
    io.rename(segment, &tomb)?;
    match io.dir_sync(dir) {
        Ok(()) => OBS_FSYNCS.incr(),
        Err(e) => {
            // The tombstone stays behind; sweep_retired removes it the
            // next time recovery visits the directory.
            OBS_DIR_SYNC_FAILS.incr();
            return Err(e);
        }
    }
    io.remove_file(&tomb)?;
    OBS_SEGMENTS_RETIRED.incr();
    Ok(())
}

/// Removes `.retired` tombstones left by a crash mid-retirement (the
/// counterpart of [`crate::snapshot::sweep_tmp`] for segments).
pub(crate) fn sweep_retired(dir: &Path) -> Result<(), StoreError> {
    let entries = std::fs::read_dir(dir).map_err(|e| StoreError::io(dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io(dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if name.starts_with("seg-") && name.ends_with(".retired") {
            let path = entry.path();
            std::fs::remove_file(&path).map_err(|e| StoreError::io(&path, e))?;
        }
    }
    Ok(())
}

/// How a scan's first bad byte was classified.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DamageKind {
    /// The file ends inside a frame header or inside a frame's declared
    /// payload — the shape of an interrupted write.
    Torn,
    /// Bytes where a frame should start are not `REC!`.
    BadMagic,
    /// A complete frame is present but its checksum disagrees.
    BadCrc,
    /// A segment header is malformed (wrong magic).
    BadHeader,
}

/// The first damage a scan found, plus what lies beyond it.
#[derive(Debug, Clone)]
pub struct Damage {
    /// Segment file where the damage starts.
    pub segment: PathBuf,
    /// Byte offset of the first bad byte within that segment.
    pub offset: u64,
    /// Classification of the bad bytes.
    pub kind: DamageKind,
    /// Human-readable detail.
    pub reason: String,
    /// Valid-looking frames found beyond the damage (by re-syncing on
    /// the frame magic and in later segments). They are unusable —
    /// Refine chains are order-dependent — but their presence proves the
    /// damage is mid-log corruption rather than a torn tail.
    pub stranded: usize,
}

impl Damage {
    /// Is this the benign crash artifact (an interrupted final write),
    /// as opposed to destroyed durable records?
    ///
    /// A torn or garbage tail with nothing valid beyond it is benign —
    /// the interrupted record was never acknowledged as durable. A
    /// complete frame failing its CRC, or any valid frame stranded
    /// beyond the damage, means durable bytes were altered.
    pub fn is_torn_tail(&self) -> bool {
        self.stranded == 0 && matches!(self.kind, DamageKind::Torn | DamageKind::BadMagic)
    }

    /// Records destroyed by the damage: none for a torn tail; at least
    /// the damaged record plus everything stranded otherwise.
    pub fn records_lost(&self) -> usize {
        if self.is_torn_tail() {
            0
        } else {
            self.stranded + 1
        }
    }
}

/// One verified frame, with its physical position (so recovery can
/// truncate the log at any record boundary).
#[derive(Debug, Clone)]
pub struct Frame {
    /// The checksum-verified payload.
    pub payload: Vec<u8>,
    /// Segment file holding the frame.
    pub segment: PathBuf,
    /// Byte offset of the frame header within that segment.
    pub offset: u64,
}

/// The result of scanning a journal directory: every verified frame up
/// to the first damage, in append order, plus the damage (if any).
#[derive(Debug)]
pub struct ScanOutcome {
    /// Verified frames in order.
    pub frames: Vec<Frame>,
    /// The first damage found, if any. `None` means the log is clean to
    /// its end.
    pub damage: Option<Damage>,
}

/// Counts valid frames in `buf` starting at `from`, re-syncing on the
/// frame magic (used only beyond a damage point).
fn count_resynced_frames(buf: &[u8], mut from: usize) -> usize {
    let mut count = 0;
    while from + FRAME_HEADER_LEN <= buf.len() {
        if buf[from..from + 4] == FRAME_MAGIC {
            let len =
                u32::from_le_bytes([buf[from + 4], buf[from + 5], buf[from + 6], buf[from + 7]])
                    as usize;
            let crc =
                u32::from_le_bytes([buf[from + 8], buf[from + 9], buf[from + 10], buf[from + 11]]);
            let start = from + FRAME_HEADER_LEN;
            if let Some(end) = start.checked_add(len) {
                if end <= buf.len() && crc32(&buf[start..end]) == crc {
                    count += 1;
                    from = end;
                    continue;
                }
            }
        }
        from += 1;
    }
    count
}

/// Scans the journal in `dir`: verifies segment headers and every
/// frame's length and CRC, stopping at the first damage and classifying
/// it. Returns [`StoreError::Missing`] when no segments exist and
/// [`StoreError::VersionMismatch`] when the *first* segment announces a
/// format this build does not speak (later segments' headers are data
/// like any other — damage, not a version wall).
pub fn scan(dir: &Path) -> Result<ScanOutcome, StoreError> {
    let segs = Wal::segments(dir)?;
    if segs.is_empty() {
        return Err(StoreError::Missing {
            dir: dir.to_path_buf(),
        });
    }
    let mut frames: Vec<Frame> = Vec::new();
    let mut damage: Option<Damage> = None;
    let mut bufs: Vec<(PathBuf, Vec<u8>)> = Vec::with_capacity(segs.len());
    for (_, path) in &segs {
        let mut buf = Vec::new();
        File::open(path)
            .and_then(|mut f| f.read_to_end(&mut buf))
            .map_err(|e| StoreError::io(path, e))?;
        bufs.push((path.clone(), buf));
    }
    'segments: for (si, (path, buf)) in bufs.iter().enumerate() {
        // Header.
        if buf.len() < SEGMENT_HEADER_LEN || buf[..7] != SEGMENT_MAGIC {
            damage = Some(Damage {
                segment: path.clone(),
                offset: 0,
                kind: if buf.len() < SEGMENT_HEADER_LEN {
                    DamageKind::Torn
                } else {
                    DamageKind::BadHeader
                },
                reason: "segment header malformed".into(),
                stranded: count_resynced_frames(buf, 0)
                    + bufs[si + 1..]
                        .iter()
                        .map(|(_, b)| count_resynced_frames(b, 0))
                        .sum::<usize>(),
            });
            break 'segments;
        }
        if buf[7] != FORMAT_VERSION {
            if si == 0 {
                return Err(StoreError::VersionMismatch {
                    found: buf[7],
                    supported: FORMAT_VERSION,
                });
            }
            damage = Some(Damage {
                segment: path.clone(),
                offset: 7,
                kind: DamageKind::BadHeader,
                reason: format!("segment announces version {}", buf[7]),
                stranded: count_resynced_frames(buf, SEGMENT_HEADER_LEN)
                    + bufs[si + 1..]
                        .iter()
                        .map(|(_, b)| count_resynced_frames(b, 0))
                        .sum::<usize>(),
            });
            break 'segments;
        }
        // Frames.
        let mut pos = SEGMENT_HEADER_LEN;
        while pos < buf.len() {
            let bad = |kind: DamageKind, reason: String, resync_from: usize| Damage {
                segment: path.clone(),
                offset: pos as u64,
                kind,
                reason,
                stranded: count_resynced_frames(buf, resync_from)
                    + bufs[si + 1..]
                        .iter()
                        .map(|(_, b)| count_resynced_frames(b, 0))
                        .sum::<usize>(),
            };
            if pos + FRAME_HEADER_LEN > buf.len() {
                damage = Some(bad(
                    DamageKind::Torn,
                    "file ends inside a frame header".into(),
                    pos + 1,
                ));
                break 'segments;
            }
            if buf[pos..pos + 4] != FRAME_MAGIC {
                damage = Some(bad(
                    DamageKind::BadMagic,
                    "bytes where a frame should start are not a frame".into(),
                    pos + 1,
                ));
                break 'segments;
            }
            let len = u32::from_le_bytes([buf[pos + 4], buf[pos + 5], buf[pos + 6], buf[pos + 7]])
                as usize;
            let crc =
                u32::from_le_bytes([buf[pos + 8], buf[pos + 9], buf[pos + 10], buf[pos + 11]]);
            let start = pos + FRAME_HEADER_LEN;
            let Some(end) = start.checked_add(len) else {
                damage = Some(bad(
                    DamageKind::Torn,
                    "frame length overflows".into(),
                    pos + 1,
                ));
                break 'segments;
            };
            if end > buf.len() {
                damage = Some(bad(
                    DamageKind::Torn,
                    format!("file ends inside a {len}-byte frame"),
                    pos + 1,
                ));
                break 'segments;
            }
            if crc32(&buf[start..end]) != crc {
                OBS_CRC_REJECTS.incr();
                damage = Some(bad(
                    DamageKind::BadCrc,
                    "frame checksum mismatch".into(),
                    end,
                ));
                break 'segments;
            }
            frames.push(Frame {
                payload: buf[start..end].to_vec(),
                segment: path.clone(),
                offset: pos as u64,
            });
            pos = end;
        }
    }
    Ok(ScanOutcome { frames, damage })
}

/// Truncates the journal at a frame boundary: `segment` is cut at
/// `offset` (or removed entirely when the cut falls inside its header)
/// and every later segment is deleted. After truncation,
/// [`Wal::open_append`] continues cleanly from the preceding frame.
pub fn truncate_at(dir: &Path, segment: &Path, offset: u64) -> Result<(), StoreError> {
    let segs = Wal::segments(dir)?;
    let mut past = false;
    for (_, path) in &segs {
        if past {
            std::fs::remove_file(path).map_err(|e| StoreError::io(path, e))?;
            continue;
        }
        if path == segment {
            past = true;
            if offset < SEGMENT_HEADER_LEN as u64 {
                std::fs::remove_file(path).map_err(|e| StoreError::io(path, e))?;
            } else {
                let f = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| StoreError::io(path, e))?;
                f.set_len(offset).map_err(|e| StoreError::io(path, e))?;
                f.sync_data().map_err(|e| StoreError::io(path, e))?;
                OBS_FSYNCS.incr();
            }
        }
    }
    Ok(())
}

/// Truncates the journal at a scan's damage point: the damaged segment
/// is cut at the first bad byte (or removed entirely when the damage
/// starts in its header) and every later segment is deleted. After
/// repair, [`Wal::open_append`] continues cleanly from the last verified
/// frame.
pub fn repair(dir: &Path, damage: &Damage) -> Result<(), StoreError> {
    if damage.is_torn_tail() {
        OBS_TORN_TAILS.incr();
    }
    truncate_at(dir, &damage.segment, damage.offset)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("iixml-wal-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = tmp("roundtrip");
        let mut wal = Wal::create(&dir).unwrap();
        for i in 0..10u32 {
            wal.append(format!("payload-{i}").as_bytes()).unwrap();
        }
        let out = scan(&dir).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames.len(), 10);
        assert_eq!(out.frames[3].payload, b"payload-3");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_roll() {
        let dir = tmp("roll");
        let mut wal = Wal::create(&dir).unwrap();
        wal.segment_bytes = 64; // force frequent rolls
        for i in 0..20u32 {
            wal.append(format!("record number {i} with some padding").as_bytes())
                .unwrap();
        }
        assert!(Wal::segments(&dir).unwrap().len() > 1, "no roll happened");
        let out = scan(&dir).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames.len(), 20);
        // Appending after reopen continues the chain.
        let mut wal = Wal::open_append(&dir).unwrap();
        wal.append(b"after reopen").unwrap();
        assert_eq!(scan(&dir).unwrap().frames.len(), 21);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_benign_and_repairable() {
        let dir = tmp("torn");
        let mut wal = Wal::create(&dir).unwrap();
        for i in 0..5u32 {
            wal.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        // Tear the last frame: cut 3 bytes off the file.
        let (_, path) = Wal::segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let out = scan(&dir).unwrap();
        assert_eq!(out.frames.len(), 4);
        let damage = out.damage.unwrap();
        assert!(damage.is_torn_tail());
        assert_eq!(damage.records_lost(), 0);
        repair(&dir, &damage).unwrap();
        let out = scan(&dir).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames.len(), 4);
        // And the repaired log accepts appends again.
        let mut wal = Wal::open_append(&dir).unwrap();
        wal.append(b"rec-4-again").unwrap();
        assert_eq!(scan(&dir).unwrap().frames.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn midlog_bitflip_is_detected_with_stranded_count() {
        let dir = tmp("bitflip");
        let mut wal = Wal::create(&dir).unwrap();
        for i in 0..6u32 {
            wal.append(format!("record payload {i}").as_bytes())
                .unwrap();
        }
        let (_, path) = Wal::segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a bit inside the 3rd frame's payload.
        let frame = SEGMENT_HEADER_LEN + 2 * (FRAME_HEADER_LEN + b"record payload 0".len());
        bytes[frame + FRAME_HEADER_LEN + 4] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        let out = scan(&dir).unwrap();
        assert_eq!(out.frames.len(), 2);
        let damage = out.damage.unwrap();
        assert_eq!(damage.kind, DamageKind::BadCrc);
        assert!(!damage.is_torn_tail());
        assert_eq!(damage.stranded, 3, "three records stranded beyond the flip");
        assert_eq!(damage.records_lost(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_default_policy_is_durable_every_record() {
        let dir = tmp("gc-default");
        let mut gc = GroupCommit::new(Wal::create(&dir).unwrap(), FlushPolicy::default());
        gc.append(b"rec-0").unwrap();
        assert_eq!(
            gc.pending_records(),
            0,
            "default policy flushes each append"
        );
        assert_eq!(scan(&dir).unwrap().frames.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_record_threshold() {
        let dir = tmp("gc-records");
        let policy = FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: 4,
            max_linger_ticks: u64::MAX,
        };
        let mut gc = GroupCommit::new(Wal::create(&dir).unwrap(), policy);
        for i in 0..3u32 {
            gc.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        assert_eq!(gc.pending_records(), 3);
        assert_eq!(scan(&dir).unwrap().frames.len(), 0, "batch still in memory");
        gc.append(b"rec-3").unwrap();
        assert_eq!(gc.pending_records(), 0);
        let out = scan(&dir).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames.len(), 4);
        assert_eq!(out.frames[2].payload, b"rec-2");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_sync_is_the_read_your_writes_barrier() {
        let dir = tmp("gc-sync");
        let policy = FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: u64::MAX,
            max_linger_ticks: u64::MAX,
        };
        let mut gc = GroupCommit::new(Wal::create(&dir).unwrap(), policy);
        for i in 0..5u32 {
            gc.append(format!("rec-{i}").as_bytes()).unwrap();
        }
        assert_eq!(scan(&dir).unwrap().frames.len(), 0);
        gc.sync().unwrap();
        assert_eq!(gc.pending_records(), 0);
        assert_eq!(scan(&dir).unwrap().frames.len(), 5);
        // Idempotent.
        gc.sync().unwrap();
        assert_eq!(scan(&dir).unwrap().frames.len(), 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_linger_bound_flushes_on_ticks() {
        let dir = tmp("gc-linger");
        let policy = FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: u64::MAX,
            max_linger_ticks: 4,
        };
        let mut gc = GroupCommit::new(Wal::create(&dir).unwrap(), policy);
        gc.append(b"lonely").unwrap();
        for _ in 0..2 {
            gc.tick().unwrap();
            assert_eq!(gc.pending_records(), 1, "still within the linger bound");
        }
        for _ in 0..2 {
            gc.tick().unwrap();
        }
        assert_eq!(gc.pending_records(), 0, "linger bound reached");
        assert_eq!(scan(&dir).unwrap().frames.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_drop_flushes_best_effort() {
        let dir = tmp("gc-drop");
        let policy = FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: u64::MAX,
            max_linger_ticks: u64::MAX,
        };
        let mut gc = GroupCommit::new(Wal::create(&dir).unwrap(), policy);
        gc.append(b"rec-0").unwrap();
        gc.append(b"rec-1").unwrap();
        drop(gc);
        assert_eq!(scan(&dir).unwrap().frames.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_batch_recovers_to_last_flushed_batch() {
        let dir = tmp("gc-torn");
        let policy = FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: 3,
            max_linger_ticks: u64::MAX,
        };
        let mut gc = GroupCommit::new(Wal::create(&dir).unwrap(), policy);
        for i in 0..3u32 {
            gc.append(format!("first-batch-{i}").as_bytes()).unwrap();
        }
        let (_, path) = Wal::segments(&dir).unwrap().pop().unwrap();
        let flushed_len = std::fs::metadata(&path).unwrap().len();
        for i in 0..3u32 {
            gc.append(format!("second-batch-{i}").as_bytes()).unwrap();
        }
        drop(gc);
        // Tear the second batch mid-write: keep its first frame plus a
        // few bytes of the second, as an interrupted write would.
        let torn = flushed_len + (FRAME_HEADER_LEN + b"second-batch-0".len()) as u64 + 5;
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(torn)
            .unwrap();
        let out = scan(&dir).unwrap();
        assert_eq!(out.frames.len(), 4, "first batch plus the intact frame");
        let damage = out.damage.unwrap();
        assert!(
            damage.is_torn_tail(),
            "torn batch is the benign crash shape"
        );
        assert_eq!(damage.records_lost(), 0);
        repair(&dir, &damage).unwrap();
        let out = scan(&dir).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retired_segments_vanish_and_scans_continue() {
        let dir = tmp("retire");
        let mut wal = Wal::create(&dir).unwrap();
        wal.segment_bytes = 64; // force rolls
        for i in 0..20u32 {
            wal.append(format!("record number {i} with some padding").as_bytes())
                .unwrap();
        }
        let segs = Wal::segments(&dir).unwrap();
        assert!(segs.len() > 2);
        let before = scan(&dir).unwrap().frames.len();
        let dropped = {
            let first = &segs[0].1;
            let bytes = std::fs::read(first).unwrap();
            let count = scan(&dir)
                .unwrap()
                .frames
                .iter()
                .filter(|f| &f.segment == first)
                .count();
            assert!(bytes.len() > SEGMENT_HEADER_LEN);
            retire_segment(&dir, &StoreIo::real(), first).unwrap();
            count
        };
        let after = Wal::segments(&dir).unwrap();
        assert_eq!(after.len(), segs.len() - 1);
        assert!(after[0].0 > 0, "first index retired");
        let out = scan(&dir).unwrap();
        assert!(out.damage.is_none(), "scan tolerates a retired prefix");
        assert_eq!(out.frames.len(), before - dropped);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sweep_retired_removes_tombstones() {
        let dir = tmp("sweep-retired");
        let mut wal = Wal::create(&dir).unwrap();
        wal.append(b"live").unwrap();
        std::fs::write(dir.join("seg-000099.wal.retired"), b"junk").unwrap();
        sweep_retired(&dir).unwrap();
        assert!(!dir.join("seg-000099.wal.retired").exists());
        assert_eq!(scan(&dir).unwrap().frames.len(), 1, "live data untouched");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_flush_poisons_the_writer_permanently() {
        use crate::io::{Fault, IoOp};
        let dir = tmp("poison");
        let io = StoreIo::faulty(11, 0.0);
        let mut gc = GroupCommit::new(
            Wal::create_with(&dir, io.clone()).unwrap(),
            FlushPolicy::default(),
        );
        gc.append(b"durable").unwrap();
        io.inject_once(IoOp::Sync, Fault::Eio);
        let first = gc.append(b"doomed").unwrap_err();
        // Sticky: every later operation returns the same fault without
        // touching the disk, and nothing pretends to be durable.
        assert_eq!(gc.append(b"after").unwrap_err(), first);
        assert_eq!(gc.sync().unwrap_err(), first);
        assert_eq!(gc.tick().unwrap_err(), first);
        assert_eq!(gc.fault(), Some(&first));
        drop(gc);
        assert_eq!(
            take_drop_fault(),
            None,
            "an already-reported fault is not re-reported at drop"
        );
        // The acknowledged record survives. (The unacknowledged one may
        // too — a failed fsync leaves page-cache fate undefined, and
        // EIO without page loss keeps the bytes; that is not a *loss*.)
        let out = scan(&dir).unwrap();
        assert_eq!(out.frames[0].payload, b"durable");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drop_time_flush_failure_is_recorded_not_swallowed() {
        use crate::io::{Fault, IoOp};
        let dir = tmp("drop-fault");
        let io = StoreIo::faulty(13, 0.0);
        let policy = FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: u64::MAX,
            max_linger_ticks: u64::MAX,
        };
        let mut gc = GroupCommit::new(Wal::create_with(&dir, io.clone()).unwrap(), policy);
        let _ = take_drop_fault();
        gc.append(b"buffered").unwrap();
        io.inject_once(IoOp::Write, Fault::Enospc);
        drop(gc);
        let fault = take_drop_fault().expect("drop-time failure must be recorded");
        assert!(matches!(fault, StoreError::Io { .. }));
        assert_eq!(take_drop_fault(), None, "the slot is take-once");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_loss_rolls_back_to_the_sync_barrier() {
        use crate::io::{Fault, IoOp};
        let dir = tmp("fsyncgate");
        let io = StoreIo::faulty(17, 0.0);
        let policy = FlushPolicy {
            max_batch_bytes: u64::MAX,
            max_batch_records: 2,
            max_linger_ticks: u64::MAX,
        };
        let mut gc = GroupCommit::new(Wal::create_with(&dir, io.clone()).unwrap(), policy);
        gc.append(b"acked-0").unwrap();
        gc.append(b"acked-1").unwrap(); // flush: both durable
        io.inject_once(IoOp::Sync, Fault::FsyncLoss);
        gc.append(b"lost-0").unwrap();
        assert!(gc.append(b"lost-1").is_err(), "second flush fails");
        drop(gc);
        // The unsynced batch vanished with the failed fsync; the log is
        // clean up to the last acknowledged barrier.
        let out = scan(&dir).unwrap();
        assert!(out.damage.is_none());
        assert_eq!(out.frames.len(), 2);
        assert_eq!(out.frames[1].payload, b"acked-1");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retire_dir_sync_failure_propagates_and_leaves_the_tombstone() {
        use crate::io::{Fault, IoOp};
        let dir = tmp("retire-fault");
        let io = StoreIo::faulty(19, 0.0);
        let mut wal = Wal::create_with(&dir, io.clone()).unwrap();
        wal.segment_bytes = 64;
        for i in 0..20u32 {
            wal.append(format!("record number {i} with some padding").as_bytes())
                .unwrap();
        }
        let segs = Wal::segments(&dir).unwrap();
        let first = segs[0].1.clone();
        io.inject_once(IoOp::DirSync, Fault::Eio);
        assert!(retire_segment(&dir, &io, &first).is_err());
        let tomb = dir.join(format!(
            "{}.retired",
            first.file_name().unwrap().to_str().unwrap()
        ));
        assert!(tomb.exists(), "tombstone left for sweep_retired");
        assert!(!first.exists());
        sweep_retired(&dir).unwrap();
        assert!(!tomb.exists());
        assert!(scan(&dir).unwrap().damage.is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn scan_of_arbitrary_bytes_never_panics() {
        let dir = tmp("arb");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("seg-000000.wal");
        for junk in [
            &b""[..],
            &b"IIX"[..],
            &b"IIXJWAL\x01REC!\xff\xff\xff\xff\0\0\0\0"[..],
            &[0u8; 64][..],
        ] {
            std::fs::write(&path, junk).unwrap();
            let _ = scan(&dir);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
