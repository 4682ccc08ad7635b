//! Checkpoint files: framed, CRC-checked checker snapshots.
//!
//! A checkpoint holds one binval-encoded [`mtc_core::CheckerSnapshot`]
//! taken after consuming `consumed` recorded transactions:
//!
//! ```text
//! <dir>/checkpoint-000000001024.mtcck
//! <dir>/checkpoint-000000002048.mtcck
//! ```
//!
//! Each file is two frames — a small header binding it to the format, then
//! the snapshot — written to a temporary name and renamed into place, so a
//! crash mid-checkpoint never damages an older checkpoint.
//! [`latest_checkpoint`] walks the files newest-first and returns the first
//! one that loads: both frames check, the snapshot is of the
//! [`SNAPSHOT_VERSION`] this build resumes and decodes. A torn newest
//! checkpoint, or one another version wrote, so degrades to an older one
//! instead of failing recovery. The version is read first, on its own: a
//! snapshot is positional, so a body of another version is never decoded
//! by this build's layout.
//!
//! Only `checkpoint-<consumed>.mtcck` files are checkpoints: a file of any
//! other extension is never listed, so never opened, nor pruned. Pruning
//! goes by file names and reads nothing. Every byte read from a
//! checkpoint file is counted in `store.checkpoint_read_bytes`.

use crate::binval;
use crate::frame::{read_frame, write_frame_with, FrameError};
use crate::StoreError;
use mtc_core::{CheckerSnapshot, SNAPSHOT_VERSION};
use serde::{Deserialize, Head, Serialize, Source};
use std::fs;
use std::path::{Path, PathBuf};

/// Magic tag of checkpoint files.
pub const CHECKPOINT_MAGIC: &str = "mtc-store-checkpoint";
/// Current checkpoint file format version.
pub const CHECKPOINT_VERSION: u32 = 1;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct CheckpointHeader {
    magic: String,
    version: u32,
    /// Recorded transactions consumed by the snapshotted checker
    /// (excluding `⊥T`): the log index to resume replay from.
    consumed: u64,
}

/// The version a snapshot payload leads with: the first of its fields — by
/// position, or by name as snapshots up to version 5 spelt it, so that
/// those too are refused by their version.
struct LeadingVersion(u32);

impl Deserialize for LeadingVersion {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let named = match src.next()? {
            Head::Array(len) if len > 0 => false,
            Head::Object(len) if len > 0 => true,
            _ => return Err(serde::Error::expected("fields", "CheckerSnapshot")),
        };
        if named && src.key()? != "version" {
            return Err(serde::Error::missing_field("CheckerSnapshot", "version"));
        }
        u32::pull(src).map(LeadingVersion)
    }
}

fn checkpoint_path(dir: &Path, consumed: u64) -> PathBuf {
    dir.join(format!("checkpoint-{consumed:012}.mtcck"))
}

/// The checkpoints of `dir` by `consumed`, oldest first.
fn checkpoint_files(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if let Some(consumed) = name
            .strip_prefix("checkpoint-")
            .and_then(|s| s.strip_suffix(".mtcck"))
            .and_then(|s| s.parse::<u64>().ok())
        {
            out.push((consumed, entry.path()));
        }
    }
    out.sort_unstable();
    Ok(out)
}

/// The bytes of the checkpoint file of `snapshot`, taken after consuming
/// `consumed` recorded transactions: the header frame, then the snapshot
/// encoded in place in the second frame.
pub(crate) fn encode_checkpoint(consumed: u64, snapshot: &CheckerSnapshot) -> Vec<u8> {
    let header = CheckpointHeader {
        magic: CHECKPOINT_MAGIC.to_string(),
        version: CHECKPOINT_VERSION,
        consumed,
    };
    let mut bytes = Vec::new();
    write_frame_with(&mut bytes, |out| binval::write_value(&header, out));
    write_frame_with(&mut bytes, |out| binval::write_value(snapshot, out));
    bytes
}

/// Writes `bytes` ([`encode_checkpoint`] at `consumed`) as the checkpoint
/// file of `consumed` in the existing `dir`, atomically (write-then-rename).
/// Returns the final path.
pub(crate) fn write_checkpoint_file(
    dir: &Path,
    consumed: u64,
    bytes: &[u8],
) -> Result<PathBuf, StoreError> {
    let finals = checkpoint_path(dir, consumed);
    let mut tmp = finals.clone().into_os_string();
    tmp.push(".tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, &finals)?;
    Ok(finals)
}

/// Writes a checkpoint for a snapshot that consumed `consumed` recorded
/// transactions, atomically (write-then-rename). Returns the final path.
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    consumed: u64,
    snapshot: &CheckerSnapshot,
) -> Result<PathBuf, StoreError> {
    fs::create_dir_all(dir.as_ref())?;
    write_checkpoint_file(
        dir.as_ref(),
        consumed,
        &encode_checkpoint(consumed, snapshot),
    )
}

/// Deletes the `checkpoint-*.tmp` files a crash between write and rename
/// left in `dir`; returns how many. Only the directory's one writer may
/// call this (a live writer's temporary file looks the same).
pub(crate) fn remove_stale_tmp_files(dir: &Path) -> Result<usize, StoreError> {
    let mut removed = 0usize;
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with("checkpoint-") && name.ends_with(".tmp") {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

/// Reads and validates one checkpoint file: the `consumed` its header
/// records and its snapshot. The file is read whole, both frames checked,
/// the snapshot's version read and, if it is the [`SNAPSHOT_VERSION`] this
/// build resumes, the snapshot decoded.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<(u64, CheckerSnapshot), StoreError> {
    let path = path.as_ref();
    let read = mtc_obs::span(mtc_obs::histogram!("store.recover.read"));
    let bytes = fs::read(path)?;
    mtc_obs::counter!("store.checkpoint_read_bytes").add(bytes.len() as u64);
    let corrupt = |e: FrameError| StoreError::Corrupt(format!("{}: {e}", path.display()));
    let mut pos = 0usize;
    let header = read_frame(&bytes, &mut pos).map_err(corrupt)?;
    let payload = read_frame(&bytes, &mut pos).map_err(corrupt)?;
    let header: CheckpointHeader = binval::from_bytes(header)?;
    drop(read);
    if header.magic != CHECKPOINT_MAGIC {
        return Err(StoreError::Format(format!(
            "{}: not an mtc-store checkpoint",
            path.display()
        )));
    }
    if header.version != CHECKPOINT_VERSION {
        return Err(StoreError::Format(format!(
            "{}: unsupported checkpoint version {}",
            path.display(),
            header.version
        )));
    }
    let _span = mtc_obs::span(mtc_obs::histogram!("store.recover.snapshot"));
    let LeadingVersion(version) = binval::from_front(payload)?;
    if version != SNAPSHOT_VERSION {
        return Err(StoreError::Format(format!(
            "{}: unsupported snapshot version {version}",
            path.display(),
        )));
    }
    Ok((header.consumed, binval::from_bytes(payload)?))
}

/// The newest checkpoint in `dir` that loads, if any. Damaged newer
/// checkpoints are skipped (a crash mid-write leaves only a `.tmp` file, but
/// defense-in-depth costs one CRC pass), and so is one whose snapshot
/// another [`SNAPSHOT_VERSION`] wrote.
pub fn latest_checkpoint(
    dir: impl AsRef<Path>,
) -> Result<Option<(u64, CheckerSnapshot)>, StoreError> {
    latest_checkpoint_within(dir.as_ref(), u64::MAX)
}

/// [`latest_checkpoint`] among the checkpoints that consumed at most `limit`
/// transactions. A file whose name says it consumed more is not read.
pub(crate) fn latest_checkpoint_within(
    dir: &Path,
    limit: u64,
) -> Result<Option<(u64, CheckerSnapshot)>, StoreError> {
    Ok(checkpoint_files(dir)?
        .iter()
        .rev()
        .filter(|&&(named, _)| named <= limit)
        .find_map(|(_, path)| {
            read_checkpoint(path)
                .ok()
                .filter(|&(consumed, _)| consumed <= limit)
        }))
}

/// Deletes all but the newest `keep` checkpoints. Goes by file names and
/// reads no file. Returns how many files went.
pub fn prune_checkpoints(dir: impl AsRef<Path>, keep: usize) -> Result<usize, StoreError> {
    let files = checkpoint_files(dir.as_ref())?;
    let old = files.len().saturating_sub(keep);
    let mut removed = 0usize;
    for (_, path) in &files[..old] {
        match fs::remove_file(path) {
            // Somebody else already deleted it: the same outcome.
            Err(e) if e.kind() != std::io::ErrorKind::NotFound => return Err(e.into()),
            _ => removed += 1,
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    //! `store.checkpoint_read_bytes` is process-wide, so every unit test of
    //! this crate that reads a checkpoint file holds the `with_enabled` lock.
    use super::*;
    use mtc_core::{IncrementalChecker, IsolationLevel};
    use mtc_history::Op;
    use mtc_obs::test_support::with_enabled;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mtc_store_ck_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_snapshot(n: u64) -> CheckerSnapshot {
        let mut c =
            IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..4u64);
        let mut last = 0u64;
        for i in 0..n {
            c.push_committed(0, vec![Op::read(0u64, last), Op::write(0u64, i + 1)])
                .unwrap();
            last = i + 1;
        }
        c.checkpoint()
    }

    #[test]
    fn checkpoint_round_trips_and_resumes() {
        let _off = with_enabled(false);
        let dir = tmpdir("rt");
        let snapshot = sample_snapshot(20);
        write_checkpoint(&dir, 20, &snapshot).unwrap();
        let (consumed, loaded) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(consumed, 20);
        assert_eq!(loaded.txn_count(), snapshot.txn_count());
        let mut resumed = IncrementalChecker::resume(loaded);
        resumed
            .push_committed(0, vec![Op::read(0u64, 20u64), Op::write(0u64, 77u64)])
            .unwrap();
        assert!(resumed.finish().unwrap().is_satisfied());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_newest_checkpoint_falls_back_to_the_previous_one() {
        let _off = with_enabled(false);
        let dir = tmpdir("fallback");
        write_checkpoint(&dir, 10, &sample_snapshot(10)).unwrap();
        let newest = write_checkpoint(&dir, 20, &sample_snapshot(20)).unwrap();
        let mut bytes = fs::read(&newest).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0xff;
        fs::write(&newest, &bytes).unwrap();
        let (consumed, _) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(consumed, 10, "damaged newest must be skipped");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_keeps_the_newest() {
        let dir = tmpdir("prune");
        for consumed in [5u64, 10, 15, 20] {
            write_checkpoint(&dir, consumed, &sample_snapshot(consumed)).unwrap();
        }
        assert_eq!(prune_checkpoints(&dir, 2).unwrap(), 2);
        let files = checkpoint_files(&dir).unwrap();
        assert_eq!(
            files.iter().map(|&(c, _)| c).collect::<Vec<_>>(),
            vec![15, 20]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// A file named like a newer checkpoint, but not `.mtcck`, is passed
    /// over unread, and pruning leaves it alone.
    #[test]
    fn a_file_named_like_a_checkpoint_but_not_mtcck_is_never_opened() {
        let dir = tmpdir("other_ext");
        let good = write_checkpoint(&dir, 20, &sample_snapshot(20)).unwrap();
        let others = [
            "checkpoint-000000000030.mtccks",
            "checkpoint-000000000040.mtcck.old",
        ];
        for name in others {
            fs::write(dir.join(name), b"\xff\xff\xff\xff not a checkpoint").unwrap();
        }
        let _on = with_enabled(true);
        let read = || {
            mtc_obs::registry()
                .counter("store.checkpoint_read_bytes")
                .get()
        };
        let before = read();
        let (consumed, _) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(consumed, 20);
        assert_eq!(read() - before, fs::metadata(&good).unwrap().len());
        assert_eq!(prune_checkpoints(&dir, 1).unwrap(), 0);
        assert!(others.iter().all(|name| dir.join(name).exists()));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = tmpdir("empty");
        fs::create_dir_all(&dir).unwrap();
        assert!(latest_checkpoint(&dir).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
