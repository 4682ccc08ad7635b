//! The segmented, append-only history log.
//!
//! A log is a directory of segment files:
//!
//! ```text
//! <dir>/segment-00000000.mtclog
//! <dir>/segment-00000001.mtclog
//! ...
//! ```
//!
//! Every segment starts with a `SegmentHeader` frame binding it to the
//! stream (magic, format version, segment index, index of its first
//! transaction) followed by one frame per [`LogRecord`]. The first segment
//! carries the stream's [`StreamMeta`] as its first record. Frames are
//! CRC-checked ([`crate::frame`]); an append streams its records into one
//! buffer the writer keeps — frame header and value, no value tree and no
//! second copy — and hands a batch to the OS as one `write` (one per segment
//! it touches), and only [`LogWriter::sync`] and segment rotation `fsync`
//! (the crate docs spell out what that means for a process crash and for
//! power loss).
//!
//! ## Crash tolerance
//!
//! A crashed writer leaves at most a torn frame at the end of the *last*
//! segment. [`read_log`] therefore accepts a truncated or corrupt tail
//! frame in the final segment (reporting it via [`RecoveredLog::torn_tail`])
//! but treats damage anywhere else as [`StoreError::Corrupt`].
//! [`LogWriter::open_append`] reuses the same scan and truncates the torn
//! bytes before appending further records.

use crate::binval;
use crate::frame::{read_frame, write_frame_with, FrameError};
use crate::StoreError;
use mtc_core::IsolationLevel;
use mtc_history::Transaction;
use serde::{Deserialize, Emitter, Serialize};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Magic tag binding a file to this log format.
pub const LOG_MAGIC: &str = "mtc-store-log";
/// The log format version, the one this build writes and the one it reads:
/// a version 3 record is the record's positional [`binval`] payload alone —
/// no field name, no key table. A segment whose header names any other
/// version is refused with [`StoreError::Format`] before a record of it is
/// decoded, by [`read_log`] and [`LogWriter::open_append`] alike, and is
/// left as it is.
pub const LOG_VERSION: u32 = 3;
/// Default segment rotation threshold, in payload bytes.
pub const DEFAULT_SEGMENT_BYTES: usize = 4 << 20;

/// Per-segment header (the first frame of every segment file).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct SegmentHeader {
    magic: String,
    version: u32,
    segment: u64,
    /// Stream index of the first transaction recorded in this segment.
    first_txn: u64,
    /// Rotation threshold the log was created with, so `open_append`
    /// continues with the same segment geometry.
    segment_bytes: u64,
}

/// Stream-level metadata, recorded once at the head of the first segment.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct StreamMeta {
    /// Isolation level the stream is being checked against.
    pub level: IsolationLevel,
    /// Number of keys `⊥T` initializes (the checker seed).
    pub num_keys: u64,
}

/// One record of the history log.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum LogRecord {
    /// Stream metadata (first record of the stream).
    Meta(StreamMeta),
    /// One recorded transaction attempt, in stream (commit) order.
    Txn(Transaction),
}

/// A [`LogRecord`] by reference — the writer's hot path has no use for an
/// owned copy of the transaction. Emits what the owned record does: the
/// newtype variant of [`LogRecord`]'s index and name.
enum RecordRef<'a> {
    Meta(&'a StreamMeta),
    Txn(&'a Transaction),
}

impl Serialize for RecordRef<'_> {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        match self {
            RecordRef::Meta(meta) => {
                out.begin_variant(0, "Meta");
                meta.emit(out);
            }
            RecordRef::Txn(txn) => {
                out.begin_variant(1, "Txn");
                txn.emit(out);
            }
        }
        out.end_variant();
    }
}

fn segment_path(dir: &Path, index: u64) -> PathBuf {
    dir.join(format!("segment-{index:08}.mtclog"))
}

/// Lists the segment files of `dir` in index order.
fn segment_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(index) = name
            .strip_prefix("segment-")
            .and_then(|s| s.strip_suffix(".mtclog"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((index, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// An append-only writer over a segmented log directory.
pub struct LogWriter {
    dir: PathBuf,
    file: fs::File,
    segment: u64,
    segment_bytes: usize,
    written_in_segment: usize,
    /// Stream index of the next transaction to append.
    next_txn: u64,
    /// The frames being appended, kept between appends for their capacity.
    frames: Vec<u8>,
    /// Bytes of the record frames this writer appended.
    appended: u64,
}

impl std::fmt::Debug for LogWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LogWriter")
            .field("dir", &self.dir)
            .field("segment", &self.segment)
            .field("next_txn", &self.next_txn)
            .finish()
    }
}

impl LogWriter {
    /// Creates a fresh log in `dir` (created if absent; must not already
    /// contain segments) and writes the stream header.
    pub fn create(dir: impl AsRef<Path>, meta: &StreamMeta) -> Result<Self, StoreError> {
        Self::create_with_segment_bytes(dir, meta, DEFAULT_SEGMENT_BYTES)
    }

    /// [`LogWriter::create`] with an explicit segment rotation threshold.
    pub fn create_with_segment_bytes(
        dir: impl AsRef<Path>,
        meta: &StreamMeta,
        segment_bytes: usize,
    ) -> Result<Self, StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let segment_bytes = segment_bytes.max(1);
        fs::create_dir_all(&dir)?;
        if !segment_files(&dir)?.is_empty() {
            return Err(StoreError::Format(format!(
                "{} already contains a log",
                dir.display()
            )));
        }
        let mut w = LogWriter {
            file: open_segment(&dir, 0, 0, segment_bytes)?,
            dir,
            segment: 0,
            segment_bytes,
            written_in_segment: 0,
            next_txn: 0,
            frames: Vec::new(),
            appended: 0,
        };
        w.append_records([RecordRef::Meta(meta)])?;
        Ok(w)
    }

    /// Re-opens an existing log for appending: scans it (tolerating a torn
    /// tail, whose bytes are truncated away) and positions after the last
    /// intact record. Returns the writer together with the recovered
    /// contents, so a resuming process replays and appends from one scan.
    pub fn open_append(dir: impl AsRef<Path>) -> Result<(Self, RecoveredLog), StoreError> {
        let dir = dir.as_ref().to_path_buf();
        let mut recovered = read_log(&dir)?;
        if recovered.torn_tail && recovered.last_valid_offset == 0 {
            // The crash tore the freshly rotated segment's own header:
            // drop the file and rescan (the records all live before it).
            let (_, path) = segment_files(&dir)?.pop().expect("read_log found segments");
            fs::remove_file(path)?;
            recovered = read_log(&dir)?;
        }
        let segments = segment_files(&dir)?;
        let &(segment, ref last_path) = segments.last().expect("read_log found segments");
        if recovered.torn_tail {
            // In-place, metadata-only truncation: a read-then-rewrite would
            // open a window where a crash *during recovery* destroys the
            // intact records before the torn tail.
            let keep = recovered.last_valid_offset as u64;
            let file = fs::OpenOptions::new().write(true).open(last_path)?;
            file.set_len(keep)?;
            file.sync_all()?;
        }
        let file = fs::OpenOptions::new().append(true).open(last_path)?;
        let written_in_segment = fs::metadata(last_path)?.len() as usize;
        let writer = LogWriter {
            dir,
            file,
            segment,
            // Continue with the geometry the log was created with.
            segment_bytes: recovered.segment_bytes.max(1),
            written_in_segment,
            next_txn: recovered.txns.len() as u64,
            frames: Vec::new(),
            appended: 0,
        };
        Ok((writer, recovered))
    }

    /// Stream index the next appended transaction will get.
    pub fn next_txn_index(&self) -> u64 {
        self.next_txn
    }

    /// Appends one transaction, returning its stream index: an
    /// [`LogWriter::append_txns`] of one.
    pub fn append(&mut self, txn: &Transaction) -> Result<u64, StoreError> {
        self.append_txns(std::slice::from_ref(txn))
    }

    /// Appends `txns` in order, returning the stream index of the first. Their
    /// frames are encoded into one buffer and handed to the OS as one `write`
    /// — one per segment where a rotation falls inside the batch, which it
    /// does exactly where appending them one at a time would put it. The
    /// records are with the OS when this returns (safe against a process
    /// crash); call [`LogWriter::sync`] to force them down to the device.
    pub fn append_txns(&mut self, txns: &[Transaction]) -> Result<u64, StoreError> {
        let first = self.next_txn;
        self.append_records(txns.iter().map(RecordRef::Txn))?;
        Ok(first)
    }

    /// Bytes of the record frames this writer appended since it was created
    /// or opened.
    pub(crate) fn appended_bytes(&self) -> u64 {
        self.appended
    }

    /// Forces appended records down to the device (`fsync`). Counted, with
    /// the `fsync` of every segment rotation, in `store.log_syncs`.
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.file.sync_all()?;
        mtc_obs::counter!("store.log_syncs").inc();
        Ok(())
    }

    /// Appends each record as one frame, encoded in place into `frames`, and
    /// writes the frames of each segment with one `write`. A segment is full
    /// once the frames in it reach `segment_bytes`, checked before each
    /// record.
    fn append_records<'a>(
        &mut self,
        records: impl IntoIterator<Item = RecordRef<'a>>,
    ) -> Result<(), StoreError> {
        self.frames.clear();
        let mut txns = 0;
        for record in records {
            if self.written_in_segment + self.frames.len() >= self.segment_bytes {
                self.write_frames(txns)?;
                txns = 0;
                self.rotate()?;
            }
            {
                let _span = mtc_obs::sampled_span!("store.append.encode");
                write_frame_with(&mut self.frames, |out| binval::write_value(&record, out));
            }
            txns += matches!(record, RecordRef::Txn(_)) as u64;
        }
        self.write_frames(txns)
    }

    /// Hands the encoded frames, `txns` transaction records among them, to
    /// the OS.
    fn write_frames(&mut self, txns: u64) -> Result<(), StoreError> {
        if self.frames.is_empty() {
            return Ok(());
        }
        self.file.write_all(&self.frames)?;
        self.written_in_segment += self.frames.len();
        self.appended += self.frames.len() as u64;
        self.next_txn += txns;
        self.frames.clear();
        Ok(())
    }

    /// Fsyncs the current segment and moves on to a fresh one.
    fn rotate(&mut self) -> Result<(), StoreError> {
        self.sync()?;
        self.segment += 1;
        self.file = open_segment(&self.dir, self.segment, self.next_txn, self.segment_bytes)?;
        self.written_in_segment = 0;
        mtc_obs::counter!("store.segment_rotations").inc();
        Ok(())
    }
}

/// Creates segment file `index` with its header frame, returning the handle
/// positioned for appending.
fn open_segment(
    dir: &Path,
    index: u64,
    first_txn: u64,
    segment_bytes: usize,
) -> Result<fs::File, StoreError> {
    let path = segment_path(dir, index);
    let header = SegmentHeader {
        magic: LOG_MAGIC.to_string(),
        version: LOG_VERSION,
        segment: index,
        first_txn,
        segment_bytes: segment_bytes as u64,
    };
    let mut bytes = Vec::new();
    write_frame_with(&mut bytes, |out| binval::write_value(&header, out));
    let mut file = fs::OpenOptions::new()
        .create_new(true)
        .append(true)
        .open(&path)?;
    file.write_all(&bytes)?;
    Ok(file)
}

/// A scanned log directory.
#[derive(Clone, Debug)]
pub struct RecoveredLog {
    /// The stream metadata from the first segment.
    pub meta: StreamMeta,
    /// Every intact recorded transaction, in stream order.
    pub txns: Vec<Transaction>,
    /// True iff the last segment ended in a torn or corrupt frame (the
    /// crash signature); the damaged bytes carry no intact records.
    pub torn_tail: bool,
    /// Byte offset of the end of the last intact frame in the last segment.
    pub last_valid_offset: usize,
    /// Rotation threshold recorded in the segment headers.
    pub segment_bytes: usize,
}

/// Scans the log in `dir`, returning every intact transaction. Damage at
/// the tail of the last segment is tolerated (see [`RecoveredLog`]); damage
/// anywhere else is a [`StoreError::Corrupt`], and a segment of another
/// format version than [`LOG_VERSION`] a [`StoreError::Format`].
pub fn read_log(dir: impl AsRef<Path>) -> Result<RecoveredLog, StoreError> {
    let _span = mtc_obs::span(mtc_obs::histogram!("store.recover.log"));
    let dir = dir.as_ref();
    let segments = segment_files(dir)?;
    if segments.is_empty() {
        return Err(StoreError::Format(format!(
            "{} contains no log segments",
            dir.display()
        )));
    }
    let mut meta: Option<StreamMeta> = None;
    let mut txns: Vec<Transaction> = Vec::new();
    let mut torn_tail = false;
    let mut last_valid_offset = 0usize;
    let mut segment_bytes = DEFAULT_SEGMENT_BYTES;
    let last_index = segments.len() - 1;
    for (i, (expect_segment, path)) in segments.iter().enumerate() {
        let is_last = i == last_index;
        let bytes = fs::read(path)?;
        let mut pos = 0usize;
        // Header frame. A damaged header is only tolerable when the crash
        // happened right after a rotation created the (then-last) segment.
        let header: SegmentHeader = match read_frame(&bytes, &mut pos) {
            Ok(payload) => binval::from_bytes(payload)?,
            Err(e) if is_last && i > 0 => {
                let _ = e;
                torn_tail = true;
                // The previous segment's records stand; this one has none.
                // The torn segment is rewritten whole on open_append.
                last_valid_offset = 0;
                break;
            }
            Err(e) => {
                return Err(StoreError::Corrupt(format!(
                    "{}: {e} in segment header",
                    path.display()
                )))
            }
        };
        if header.magic != LOG_MAGIC {
            return Err(StoreError::Format(format!(
                "{}: not an mtc-store segment",
                path.display()
            )));
        }
        if header.version != LOG_VERSION {
            return Err(StoreError::Format(format!(
                "{}: unsupported log version {}",
                path.display(),
                header.version
            )));
        }
        if header.segment != *expect_segment || header.first_txn != txns.len() as u64 {
            return Err(StoreError::Corrupt(format!(
                "{}: segment header out of sequence",
                path.display()
            )));
        }
        segment_bytes = (header.segment_bytes as usize).max(1);
        if is_last {
            last_valid_offset = pos;
        }
        loop {
            let frame_start = pos;
            let payload = match read_frame(&bytes, &mut pos) {
                Ok(p) => p,
                Err(FrameError::Truncated) if pos == bytes.len() && frame_start == bytes.len() => {
                    break; // clean end of segment
                }
                Err(e) => {
                    if is_last {
                        torn_tail = true;
                        break;
                    }
                    return Err(StoreError::Corrupt(format!(
                        "{}: {e} at offset {frame_start} of a non-final segment",
                        path.display()
                    )));
                }
            };
            let decoded = {
                let _span = mtc_obs::sampled_span!("store.recover.decode");
                binval::from_bytes(payload)
            };
            let record: LogRecord = match decoded {
                Ok(r) => r,
                Err(e) => {
                    if is_last {
                        // A CRC-valid but undecodable record: treat as torn
                        // tail only at the very end; otherwise corrupt.
                        torn_tail = true;
                        let _ = e;
                        break;
                    }
                    return Err(StoreError::Corrupt(format!(
                        "{}: undecodable record at offset {frame_start}",
                        path.display()
                    )));
                }
            };
            match record {
                LogRecord::Meta(m) => {
                    if meta.is_some() {
                        return Err(StoreError::Corrupt(format!(
                            "{}: duplicate stream metadata",
                            path.display()
                        )));
                    }
                    meta = Some(m);
                }
                LogRecord::Txn(t) => txns.push(t),
            }
            if is_last {
                last_valid_offset = pos;
            }
        }
    }
    let meta = meta.ok_or_else(|| {
        StoreError::Format(format!("{}: log has no stream metadata", dir.display()))
    })?;
    Ok(RecoveredLog {
        meta,
        txns,
        torn_tail,
        last_valid_offset,
        segment_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::{Op, SessionId, TxnId};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mtc_store_seg_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> StreamMeta {
        StreamMeta {
            level: IsolationLevel::Serializability,
            num_keys: 4,
        }
    }

    fn txn(i: u32) -> Transaction {
        Transaction::committed(
            TxnId(0),
            SessionId(i % 3),
            vec![Op::read(0u64, 0u64), Op::write(0u64, 100 + u64::from(i))],
        )
        .with_times(u64::from(i) * 10, u64::from(i) * 10 + 5)
    }

    #[test]
    fn a_borrowed_txn_encodes_as_the_owned_record_does() {
        let aborted = Transaction {
            status: mtc_history::TxnStatus::Aborted,
            end: None,
            ..txn(3)
        };
        for t in [txn(0), txn(7), aborted] {
            assert_eq!(
                RecordRef::Txn(&t).to_json_value(),
                LogRecord::Txn(t.clone()).to_json_value()
            );
            assert_eq!(
                binval::to_bytes(&RecordRef::Txn(&t)),
                binval::to_bytes(&LogRecord::Txn(t))
            );
        }
        assert_eq!(
            binval::to_bytes(&RecordRef::Meta(&meta())),
            binval::to_bytes(&LogRecord::Meta(meta()))
        );
    }

    #[test]
    fn log_round_trips_across_segment_rotation() {
        let dir = tmpdir("rotate");
        let mut w = LogWriter::create_with_segment_bytes(&dir, &meta(), 256).unwrap();
        for i in 0..50 {
            assert_eq!(w.append(&txn(i)).unwrap(), u64::from(i));
        }
        w.sync().unwrap();
        assert!(
            segment_files(&dir).unwrap().len() > 1,
            "small threshold must rotate"
        );
        let log = read_log(&dir).unwrap();
        assert_eq!(log.meta, meta());
        assert_eq!(log.txns.len(), 50);
        assert!(!log.torn_tail);
        assert_eq!(log.txns[7], txn(7));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_in_last_segment_is_tolerated() {
        let dir = tmpdir("torn");
        let mut w = LogWriter::create(&dir, &meta()).unwrap();
        for i in 0..10 {
            w.append(&txn(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        // Simulate a crash mid-write: append half a frame.
        let (_, last) = segment_files(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&last).unwrap();
        let intact = bytes.len();
        bytes.extend_from_slice(&[42, 0, 0, 0, 9, 9]);
        fs::write(&last, &bytes).unwrap();
        let log = read_log(&dir).unwrap();
        assert_eq!(log.txns.len(), 10);
        assert!(log.torn_tail);
        assert_eq!(log.last_valid_offset, intact);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_a_non_final_segment_is_an_error() {
        let dir = tmpdir("mid_corrupt");
        let mut w = LogWriter::create_with_segment_bytes(&dir, &meta(), 128).unwrap();
        for i in 0..40 {
            w.append(&txn(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let segments = segment_files(&dir).unwrap();
        assert!(segments.len() >= 3);
        let (_, middle) = &segments[1];
        let mut bytes = fs::read(middle).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xff;
        fs::write(middle, &bytes).unwrap();
        assert!(matches!(read_log(&dir), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_truncates_the_torn_tail_and_continues() {
        let dir = tmpdir("append");
        let mut w = LogWriter::create(&dir, &meta()).unwrap();
        for i in 0..5 {
            w.append(&txn(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let (_, last) = segment_files(&dir).unwrap().pop().unwrap();
        let mut bytes = fs::read(&last).unwrap();
        bytes.extend_from_slice(&[7; 11]);
        fs::write(&last, &bytes).unwrap();

        let (mut w, recovered) = LogWriter::open_append(&dir).unwrap();
        assert_eq!(recovered.txns.len(), 5);
        assert!(recovered.torn_tail);
        assert_eq!(w.next_txn_index(), 5);
        w.append(&txn(5)).unwrap();
        w.sync().unwrap();
        drop(w);
        let log = read_log(&dir).unwrap();
        assert_eq!(log.txns.len(), 6);
        assert!(!log.torn_tail, "the torn bytes were truncated away");
        assert_eq!(log.txns[5], txn(5));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_keeps_the_created_segment_geometry() {
        let dir = tmpdir("geometry");
        let mut w = LogWriter::create_with_segment_bytes(&dir, &meta(), 256).unwrap();
        for i in 0..10 {
            w.append(&txn(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        let before = segment_files(&dir).unwrap().len();
        assert!(before > 1, "256-byte threshold must rotate");
        let (mut w, recovered) = LogWriter::open_append(&dir).unwrap();
        assert_eq!(recovered.segment_bytes, 256);
        for i in 10..20 {
            w.append(&txn(i)).unwrap();
        }
        w.sync().unwrap();
        drop(w);
        assert!(
            segment_files(&dir).unwrap().len() > before,
            "the reopened writer must keep rotating at the created threshold"
        );
        assert_eq!(read_log(&dir).unwrap().txns.len(), 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn fresh_create_refuses_an_existing_log() {
        let dir = tmpdir("exists");
        let _w = LogWriter::create(&dir, &meta()).unwrap();
        assert!(matches!(
            LogWriter::create(&dir, &meta()),
            Err(StoreError::Format(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
