//! # mtc-store
//!
//! Durable histories and checkpointed streaming verification for the MTC
//! workspace: an append-only, segmented, CRC-checked binary history log
//! with crash-tolerant tail recovery ([`segment`]), atomic checkpoint files
//! holding [`mtc_core::CheckerSnapshot`]s ([`checkpoint`]), and a facade
//! tying both to the write-ahead recording discipline ([`store`]).
//!
//! The point of this layer: a verification session is no longer a purely
//! in-memory affair. Every recorded transaction hits the log before the
//! checker sees it, snapshots of the checker land next to the log, and a
//! crashed session resumes from the newest intact checkpoint with a verdict
//! bit-identical to the uninterrupted run's. A logged session is also
//! re-checkable offline, against any checker, long after the database under
//! test is gone.
//!
//! [`MtcStore`] alone decides when to checkpoint. Its host appends each
//! transaction — alone or in a batch — before its checker consumes it and
//! calls [`MtcStore::recorded`] after the checker has; at every floor
//! ([`MtcStore::with_checkpoint_every`]) the store asks the host for a
//! snapshot if the log written since the newest checkpoint has paid for
//! one, and fsyncs the log if not. The first write that fails is the store's
//! last: every later append, sync and checkpoint returns that error, so what
//! recovers is the stream up to it.
//!
//! ## Crash model
//!
//! What "crashed" covers depends on what died.
//!
//! * **The process** (panic, `kill -9`, OOM kill): nothing admitted is lost.
//!   Every append is a `write` the kernel has accepted before
//!   [`MtcStore::append_txn`] (or [`MtcStore::append_txns`]) returns, and the kernel outlives the process;
//!   at worst the last frame is torn, and recovery truncates it. A
//!   checkpoint is written under a temporary name and renamed into place, so
//!   a kill mid-checkpoint leaves the older checkpoints intact and a stray
//!   `*.tmp` file that [`MtcStore::open_append`] deletes.
//! * **The machine** (power loss, kernel panic): the log is only as durable
//!   as its last `fsync`, and appends do not fsync. [`MtcStore::sync`],
//!   segment rotation and the log sync at the head of
//!   [`MtcStore::checkpoint`] do; everything appended since the last of
//!   those may be gone, whole frames of it, and the recovered log is then a
//!   clean *prefix* of what was admitted (same verdict on that prefix, and
//!   `torn_tail` may well be false). Checkpoint files are not fsynced
//!   either, nor is the directory after the rename: the newest checkpoint
//!   may come back torn, empty or absent. The frame CRCs catch the first two,
//!   and [`latest_checkpoint`] then degrades to the previous one, or to
//!   replaying the log from the start — slower, same answer. A checkpoint
//!   that survives ahead of its log (the log tail lost, the snapshot not)
//!   is passed over for the same reason, unread, to the newest one the log
//!   reaches.
//!
//! A caller that needs power-loss durability at a given grain calls
//! [`MtcStore::sync`] at that grain and pays one `fsync` each time.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binval;
pub mod checkpoint;
pub mod frame;
pub mod segment;
pub mod store;

pub use binval::{from_bytes, to_bytes, DecodeError};
pub use checkpoint::{
    latest_checkpoint, prune_checkpoints, read_checkpoint, write_checkpoint, CHECKPOINT_VERSION,
};
pub use frame::{crc32, read_frame, write_frame, write_frame_with, FrameError};
pub use segment::{read_log, LogRecord, LogWriter, RecoveredLog, StreamMeta, LOG_VERSION};
pub use store::{recover, MtcStore, Recovery, StoreStats, DEFAULT_CHECKPOINT_KEEP};

use std::io;

/// Errors produced by the store layer.
#[derive(Debug)]
pub enum StoreError {
    /// Underlying filesystem error.
    Io(io::Error),
    /// A frame or record failed its integrity check outside the tolerated
    /// torn tail.
    Corrupt(String),
    /// A binary value failed to decode.
    Decode(DecodeError),
    /// A decoded value did not deserialize into the expected type.
    Serde(String),
    /// Structurally invalid content (wrong magic, missing metadata, …).
    Format(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "i/o error: {e}"),
            StoreError::Corrupt(m) => write!(f, "corrupt store: {m}"),
            StoreError::Decode(e) => write!(f, "decode error: {e}"),
            StoreError::Serde(m) => write!(f, "serde error: {m}"),
            StoreError::Format(m) => write!(f, "format error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// A copy that displays as the original: an I/O error keeps its OS error
/// code, or else its kind and message. [`MtcStore`] returns its first
/// failure again from every later write.
impl Clone for StoreError {
    fn clone(&self) -> Self {
        match self {
            StoreError::Io(e) => StoreError::Io(match e.raw_os_error() {
                Some(code) => io::Error::from_raw_os_error(code),
                None => io::Error::new(e.kind(), e.to_string()),
            }),
            StoreError::Corrupt(m) => StoreError::Corrupt(m.clone()),
            StoreError::Decode(e) => StoreError::Decode(e.clone()),
            StoreError::Serde(m) => StoreError::Serde(m.clone()),
            StoreError::Format(m) => StoreError::Format(m.clone()),
        }
    }
}

impl From<io::Error> for StoreError {
    fn from(e: io::Error) -> Self {
        StoreError::Io(e)
    }
}

impl From<DecodeError> for StoreError {
    fn from(e: DecodeError) -> Self {
        StoreError::Decode(e)
    }
}
