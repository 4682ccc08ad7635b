//! Checkpoint files: framed, CRC-checked checker snapshots, full or delta.
//!
//! A *full* checkpoint holds one binval-encoded [`mtc_core::CheckerSnapshot`]
//! taken after consuming `consumed` recorded transactions; a *delta*
//! checkpoint holds [`crate::delta::DeltaOp`]s against the payload of the
//! previous checkpoint (itself full or delta), plus a CRC of the payload it
//! reconstructs:
//!
//! ```text
//! <dir>/checkpoint-000000001024.mtcck     full snapshot
//! <dir>/checkpoint-000000002048.mtcckd    delta against 1024
//! <dir>/checkpoint-000000003072.mtcckd    delta against 2048
//! ```
//!
//! Each file is two frames — a small header binding it to the format, then
//! the payload — written to a temporary name and renamed into place, so a
//! crash mid-checkpoint never damages an older checkpoint.
//! [`latest_checkpoint`] walks the files newest-first and returns the first
//! one that *fully resolves* (for a delta: every link of its base chain
//! loads and the reconstructed payload matches the recorded CRC), so a torn
//! or orphaned newest checkpoint degrades to an older one instead of
//! failing recovery — and so does one whose snapshot is not of the
//! [`SNAPSHOT_VERSION`] this build resumes. [`prune_checkpoints`] is chain-aware: a retained delta
//! pins its bases, however old.
//!
//! Pruning never reads a payload. What it needs of a file — its `consumed`
//! and, for a delta, its base — is one entry of a `Chain`, which is either
//! scanned from a directory's *header frames* ([`prune_checkpoints`]) or
//! kept in memory by the one writer that produced the files
//! ([`crate::MtcStore`], which so reads nothing back on its write path).
//! Every byte read from a checkpoint file is counted in
//! `store.checkpoint_read_bytes`.

use crate::binval;
use crate::delta;
use crate::frame::{crc32, read_frame, write_frame, FrameError, FRAME_HEADER};
use crate::StoreError;
use mtc_core::{CheckerSnapshot, SNAPSHOT_VERSION};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fs;
use std::io::Read;
use std::path::{Path, PathBuf};

/// Magic tag of full checkpoint files.
pub const CHECKPOINT_MAGIC: &str = "mtc-store-checkpoint";
/// Magic tag of delta checkpoint files.
pub const CHECKPOINT_DELTA_MAGIC: &str = "mtc-store-checkpoint-delta";
/// Current checkpoint file format version.
pub const CHECKPOINT_VERSION: u32 = 1;
/// Longest tolerated base chain under a delta (defense against a buggy or
/// hostile directory; the store's rebase cadence keeps real chains short).
const MAX_CHAIN: usize = 64;
/// Longest header frame payload the header-only reader accepts (real
/// headers are ~150 bytes; anything longer is not a checkpoint header).
const MAX_HEADER_LEN: usize = 1024;

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct CheckpointHeader {
    magic: String,
    version: u32,
    /// Recorded transactions consumed by the snapshotted checker
    /// (excluding `⊥T`): the log index to resume replay from.
    consumed: u64,
}

#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
struct DeltaHeader {
    magic: String,
    version: u32,
    /// Same meaning as [`CheckpointHeader::consumed`].
    consumed: u64,
    /// `consumed` of the checkpoint the ops apply against.
    base_consumed: u64,
    /// CRC-32 of the reconstructed full snapshot payload.
    snapshot_crc: u32,
}

fn checkpoint_path(dir: &Path, consumed: u64) -> PathBuf {
    dir.join(format!("checkpoint-{consumed:012}.mtcck"))
}

fn delta_checkpoint_path(dir: &Path, consumed: u64) -> PathBuf {
    dir.join(format!("checkpoint-{consumed:012}.mtcckd"))
}

/// Which kind of checkpoint a file holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum CkKind {
    Full,
    Delta,
}

/// Lists checkpoint files in `dir`, oldest first; a full and a delta at the
/// same `consumed` sort full-first.
fn checkpoint_files(dir: &Path) -> Result<Vec<(u64, CkKind, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let Some(rest) = name.strip_prefix("checkpoint-") else {
            continue;
        };
        let parsed = rest
            .strip_suffix(".mtcck")
            .map(|s| (s, CkKind::Full))
            .or_else(|| rest.strip_suffix(".mtcckd").map(|s| (s, CkKind::Delta)));
        if let Some((consumed, kind)) = parsed.and_then(|(s, k)| Some((s.parse::<u64>().ok()?, k)))
        {
            out.push((consumed, kind, entry.path()));
        }
    }
    out.sort_unstable_by_key(|&(c, k, _)| (c, k == CkKind::Delta));
    Ok(out)
}

/// Writes a full checkpoint for a snapshot that consumed `consumed`
/// recorded transactions, atomically (write-then-rename). Returns the
/// final path.
pub fn write_checkpoint(
    dir: impl AsRef<Path>,
    consumed: u64,
    snapshot: &CheckerSnapshot,
) -> Result<PathBuf, StoreError> {
    write_checkpoint_bytes(dir, consumed, &binval::to_bytes(snapshot))
}

/// [`write_checkpoint`] over an already-encoded snapshot payload.
pub fn write_checkpoint_bytes(
    dir: impl AsRef<Path>,
    consumed: u64,
    payload: &[u8],
) -> Result<PathBuf, StoreError> {
    fs::create_dir_all(dir.as_ref())?;
    Ok(write_full(dir.as_ref(), consumed, payload)?.0)
}

/// Writes a delta checkpoint: `payload` (the binval-encoded snapshot at
/// `consumed`) expressed against `base_payload` (the snapshot payload of
/// the checkpoint at `base_consumed`). Returns `None` — writing nothing —
/// when the delta would not undercut a full checkpoint, so callers fall
/// back to [`write_checkpoint_bytes`]; otherwise the final path.
pub fn write_checkpoint_delta(
    dir: impl AsRef<Path>,
    consumed: u64,
    base_consumed: u64,
    payload: &[u8],
    base_payload: &[u8],
) -> Result<Option<PathBuf>, StoreError> {
    assert!(
        base_consumed < consumed,
        "a delta base must be strictly older than the checkpoint"
    );
    let Some(encoded) = encode_delta(base_payload, payload) else {
        return Ok(None);
    };
    fs::create_dir_all(dir.as_ref())?;
    let (path, _) = write_delta(dir.as_ref(), consumed, base_consumed, payload, &encoded)?;
    Ok(Some(path))
}

/// `payload` as encoded delta ops against `base_payload`, or `None` when
/// they would not undercut the payload itself.
pub(crate) fn encode_delta(base_payload: &[u8], payload: &[u8]) -> Option<Vec<u8>> {
    let encoded = delta::encode_ops(&delta::compute(base_payload, payload));
    (encoded.len() < payload.len()).then_some(encoded)
}

/// Writes the full checkpoint file of `payload` into the existing `dir`,
/// returning its path and length in bytes.
pub(crate) fn write_full(
    dir: &Path,
    consumed: u64,
    payload: &[u8],
) -> Result<(PathBuf, u64), StoreError> {
    let header = CheckpointHeader {
        magic: CHECKPOINT_MAGIC.to_string(),
        version: CHECKPOINT_VERSION,
        consumed,
    };
    let finals = checkpoint_path(dir, consumed);
    let len = write_two_frames(&finals, &binval::to_bytes(&header), payload)?;
    Ok((finals, len))
}

/// Writes the delta checkpoint file holding `encoded` ([`encode_delta`] of
/// `payload` against the checkpoint at `base_consumed`) into the existing
/// `dir` (`base_consumed < consumed`), returning its path and length in
/// bytes. The one pass over `payload` here is its CRC.
pub(crate) fn write_delta(
    dir: &Path,
    consumed: u64,
    base_consumed: u64,
    payload: &[u8],
    encoded: &[u8],
) -> Result<(PathBuf, u64), StoreError> {
    let header = DeltaHeader {
        magic: CHECKPOINT_DELTA_MAGIC.to_string(),
        version: CHECKPOINT_VERSION,
        consumed,
        base_consumed,
        snapshot_crc: crc32(payload),
    };
    let finals = delta_checkpoint_path(dir, consumed);
    let len = write_two_frames(&finals, &binval::to_bytes(&header), encoded)?;
    Ok((finals, len))
}

/// Name a checkpoint file is written under before it is renamed into place.
fn tmp_path(finals: &Path) -> PathBuf {
    let mut name = finals.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Writes `header` and `body` as the two frames of a checkpoint file at
/// `finals`, atomically (write-then-rename). Returns the file's length.
fn write_two_frames(finals: &Path, header: &[u8], body: &[u8]) -> Result<u64, StoreError> {
    let mut bytes = Vec::with_capacity(2 * FRAME_HEADER + header.len() + body.len());
    write_frame(&mut bytes, header);
    write_frame(&mut bytes, body);
    let tmp = tmp_path(finals);
    fs::write(&tmp, &bytes)?;
    fs::rename(&tmp, finals)?;
    Ok(bytes.len() as u64)
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
        if name.starts_with("checkpoint-")
            && (name.ends_with(".mtcck.tmp") || name.ends_with(".mtcckd.tmp"))
        {
            fs::remove_file(entry.path())?;
            removed += 1;
        }
    }
    Ok(removed)
}

fn corrupt_frame(path: &Path, e: FrameError) -> StoreError {
    StoreError::Corrupt(format!("{}: {e}", path.display()))
}

/// The two validated frames of a checkpoint file: its parsed header (full
/// or delta) and the payload frame — in the buffer the file was read into,
/// shifted down over the header: a snapshot is copied once, off the disk.
fn read_frames(path: &Path) -> Result<(CkHeader, Vec<u8>), StoreError> {
    let mut bytes = fs::read(path)?;
    mtc_obs::counter!("store.checkpoint_read_bytes").add(bytes.len() as u64);
    let mut pos = 0usize;
    let corrupt = |e| corrupt_frame(path, e);
    let header = parse_header(read_frame(&bytes, &mut pos).map_err(corrupt)?, path)?;
    let len = read_frame(&bytes, &mut pos).map_err(corrupt)?.len();
    bytes.truncate(pos);
    bytes.drain(..pos - len);
    Ok((header, bytes))
}

/// The parsed header of a checkpoint file, reading its header frame and
/// nothing after it.
fn read_header(path: &Path) -> Result<CkHeader, StoreError> {
    let corrupt = |e| corrupt_frame(path, e);
    let mut file = fs::File::open(path)?;
    let mut frame = vec![0u8; FRAME_HEADER];
    let mut fill = |frame: &mut [u8]| match file.read_exact(frame) {
        Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => {
            Err(corrupt(FrameError::Truncated))
        }
        other => other.map_err(StoreError::from),
    };
    fill(&mut frame)?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as usize;
    if len > MAX_HEADER_LEN {
        return Err(corrupt(FrameError::Corrupt));
    }
    frame.resize(FRAME_HEADER + len, 0);
    fill(&mut frame[FRAME_HEADER..])?;
    mtc_obs::counter!("store.checkpoint_read_bytes").add(frame.len() as u64);
    parse_header(read_frame(&frame, &mut 0).map_err(corrupt)?, path)
}

/// Parses the payload of a checkpoint file's header frame.
fn parse_header(header_bytes: &[u8], path: &Path) -> Result<CkHeader, StoreError> {
    let unsupported = |version: u32| {
        StoreError::Format(format!(
            "{}: unsupported checkpoint version {version}",
            path.display()
        ))
    };
    // The magic discriminates the kinds. Both headers start with the magic
    // string, so a full-header parse that yields the full magic settles it;
    // anything else must decode as a delta header.
    match binval::from_bytes::<CheckpointHeader>(header_bytes) {
        Ok(h) if h.magic == CHECKPOINT_MAGIC => {
            if h.version != CHECKPOINT_VERSION {
                return Err(unsupported(h.version));
            }
            Ok(CkHeader::Full {
                consumed: h.consumed,
            })
        }
        _ => {
            let h: DeltaHeader = binval::from_bytes(header_bytes)?;
            if h.magic != CHECKPOINT_DELTA_MAGIC {
                return Err(StoreError::Format(format!(
                    "{}: not an mtc-store checkpoint",
                    path.display()
                )));
            }
            if h.version != CHECKPOINT_VERSION {
                return Err(unsupported(h.version));
            }
            Ok(CkHeader::Delta {
                consumed: h.consumed,
                base_consumed: h.base_consumed,
                snapshot_crc: h.snapshot_crc,
            })
        }
    }
}

#[derive(Clone, Debug)]
enum CkHeader {
    Full {
        consumed: u64,
    },
    Delta {
        consumed: u64,
        base_consumed: u64,
        snapshot_crc: u32,
    },
}

/// Resolves the full snapshot payload of the checkpoint at `path`,
/// following the delta chain through `by_consumed` (full files preferred
/// over deltas at the same `consumed`). Errors if any link is missing,
/// damaged, non-terminating or CRC-divergent.
fn resolve_payload(
    path: &Path,
    by_consumed: &HashMap<u64, Vec<PathBuf>>,
) -> Result<(u64, Vec<u8>), StoreError> {
    let mut chain: Vec<(Vec<u8>, u32)> = Vec::new();
    let mut cur = path.to_path_buf();
    let mut top_consumed: Option<u64> = None;
    let mut payload = loop {
        let (header, payload) = read_frames(&cur)?;
        match header {
            CkHeader::Full { consumed } => {
                top_consumed.get_or_insert(consumed);
                break payload;
            }
            CkHeader::Delta {
                consumed,
                base_consumed,
                snapshot_crc,
            } => {
                top_consumed.get_or_insert(consumed);
                if base_consumed >= consumed || chain.len() >= MAX_CHAIN {
                    return Err(StoreError::Corrupt(format!(
                        "{}: non-terminating delta chain",
                        path.display()
                    )));
                }
                chain.push((payload, snapshot_crc));
                cur = by_consumed
                    .get(&base_consumed)
                    .and_then(|paths| paths.first())
                    .ok_or_else(|| {
                        StoreError::Corrupt(format!(
                            "{}: delta base {base_consumed} is missing",
                            cur.display()
                        ))
                    })?
                    .clone();
            }
        }
    };
    // Replay the chain outward: oldest delta applies to the full payload.
    for (ops_bytes, want_crc) in chain.into_iter().rev() {
        let ops = delta::decode_ops(&ops_bytes).map_err(StoreError::Corrupt)?;
        payload = delta::apply(&payload, &ops).map_err(StoreError::Corrupt)?;
        if crc32(&payload) != want_crc {
            return Err(StoreError::Corrupt(format!(
                "{}: delta chain reconstructs a divergent snapshot",
                path.display()
            )));
        }
    }
    Ok((top_consumed.expect("loop sets it on first read"), payload))
}

/// Groups the directory's checkpoint files by `consumed`, full files first
/// within a group (the resolver prefers them as chain bases).
fn files_by_consumed(files: &[(u64, CkKind, PathBuf)]) -> HashMap<u64, Vec<PathBuf>> {
    let mut map: HashMap<u64, Vec<PathBuf>> = HashMap::new();
    for (consumed, _, path) in files {
        // `files` is sorted full-first within a `consumed`.
        map.entry(*consumed).or_default().push(path.clone());
    }
    map
}

/// The snapshot of the checkpoint at `path`, resolved through `by_consumed`
/// and decoded — if it is of the [`SNAPSHOT_VERSION`] this build resumes.
fn load(
    path: &Path,
    by_consumed: &HashMap<u64, Vec<PathBuf>>,
) -> Result<(u64, CheckerSnapshot), StoreError> {
    let (consumed, payload) = {
        let _span = mtc_obs::span(mtc_obs::histogram!("store.recover.chain"));
        resolve_payload(path, by_consumed)?
    };
    let _span = mtc_obs::span(mtc_obs::histogram!("store.recover.snapshot"));
    let snapshot: CheckerSnapshot = binval::from_bytes(&payload)?;
    if snapshot.version() != SNAPSHOT_VERSION {
        return Err(StoreError::Format(format!(
            "{}: unsupported snapshot version {}",
            path.display(),
            snapshot.version()
        )));
    }
    Ok((consumed, snapshot))
}

/// Reads and validates one checkpoint file; a delta file resolves its base
/// chain through its own directory.
pub fn read_checkpoint(path: impl AsRef<Path>) -> Result<(u64, CheckerSnapshot), StoreError> {
    let path = path.as_ref();
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    load(path, &files_by_consumed(&checkpoint_files(dir)?))
}

/// The newest checkpoint in `dir` that fully resolves, if any. Damaged or
/// orphaned newer checkpoints are skipped (a crash mid-write leaves only a
/// `.tmp` file, but defense-in-depth costs one CRC pass), and so is one whose
/// snapshot another [`SNAPSHOT_VERSION`] wrote.
pub fn latest_checkpoint(
    dir: impl AsRef<Path>,
) -> Result<Option<(u64, CheckerSnapshot)>, StoreError> {
    let mut files = checkpoint_files(dir.as_ref())?;
    let by_consumed = files_by_consumed(&files);
    files.reverse();
    Ok(files
        .iter()
        .find_map(|(_, _, path)| load(path, &by_consumed).ok()))
}

/// One checkpoint file as pruning sees it.
#[derive(Debug)]
struct ChainEntry {
    /// From the file name.
    consumed: u64,
    /// From the file name.
    kind: CkKind,
    /// `base_consumed` of its delta header; `None` for a full checkpoint
    /// (and for a file whose header frame does not read).
    base_consumed: Option<u64>,
    path: PathBuf,
}

impl ChainEntry {
    /// Directory order: oldest first, full before delta at one `consumed`.
    fn order(&self) -> (u64, bool) {
        (self.consumed, self.kind == CkKind::Delta)
    }
}

/// The checkpoint files of one directory, in directory order, with what
/// [`Chain::prune`] needs of each — and no payload.
#[derive(Debug, Default)]
pub(crate) struct Chain {
    entries: Vec<ChainEntry>,
}

impl Chain {
    /// Reads the chain of `dir` from its file names and header frames.
    pub(crate) fn scan(dir: &Path) -> Result<Self, StoreError> {
        let entries = checkpoint_files(dir)?
            .into_iter()
            .map(|(consumed, kind, path)| ChainEntry {
                consumed,
                kind,
                base_consumed: match read_header(&path) {
                    Ok(CkHeader::Delta { base_consumed, .. }) => Some(base_consumed),
                    _ => None,
                },
                path,
            })
            .collect();
        Ok(Chain { entries })
    }

    /// Notes the checkpoint file just written at `path`: a delta against
    /// `base_consumed`, or a full. A file written over an older one of the
    /// same name replaces its entry.
    pub(crate) fn record(&mut self, consumed: u64, base_consumed: Option<u64>, path: PathBuf) {
        let entry = ChainEntry {
            consumed,
            kind: match base_consumed {
                Some(_) => CkKind::Delta,
                None => CkKind::Full,
            },
            base_consumed,
            path,
        };
        match self
            .entries
            .binary_search_by_key(&entry.order(), ChainEntry::order)
        {
            Ok(at) => self.entries[at] = entry,
            Err(at) => self.entries.insert(at, entry),
        }
    }

    /// The entry a delta against `consumed` resolves through: the full
    /// file there if there is one, else the delta.
    fn base_at(&self, consumed: u64) -> Option<&ChainEntry> {
        let at = self.entries.partition_point(|e| e.consumed < consumed);
        self.entries.get(at).filter(|e| e.consumed == consumed)
    }

    /// Deletes the files of all but the newest `keep` checkpoints —
    /// chain-aware: a retained delta also retains every base its chain
    /// needs, however old. Returns how many files went.
    pub(crate) fn prune(&mut self, keep: usize) -> Result<usize, StoreError> {
        // Newest `keep` distinct consumed counts survive directly.
        let mut pinned: Vec<u64> = self.entries.iter().map(|e| e.consumed).collect();
        pinned.dedup();
        pinned.drain(..pinned.len().saturating_sub(keep));
        // Pin the base chains of every retained delta.
        let kept = pinned.len();
        for entry in &self.entries {
            if !pinned[..kept].contains(&entry.consumed) {
                continue;
            }
            let mut cur = entry;
            for _ in 0..MAX_CHAIN {
                let Some(base) = cur.base_consumed else { break };
                pinned.push(base);
                match self.base_at(base) {
                    Some(next) => cur = next,
                    None => break,
                }
            }
        }
        let mut removed = 0usize;
        let mut failed = None;
        self.entries.retain(|entry| {
            if failed.is_some() || pinned.contains(&entry.consumed) {
                return true;
            }
            match fs::remove_file(&entry.path) {
                // Somebody else already deleted it: the same outcome.
                Err(e) if e.kind() != std::io::ErrorKind::NotFound => {
                    failed = Some(e);
                    return true;
                }
                _ => {}
            }
            removed += 1;
            false
        });
        match failed {
            Some(e) => Err(e.into()),
            None => Ok(removed),
        }
    }
}

/// Deletes all but the newest `keep` checkpoints — chain-aware: a retained
/// delta also retains every base its chain needs, however old. Reads the
/// header frame of each checkpoint file and no payload; a delta whose
/// payload is damaged therefore still pins its bases.
pub fn prune_checkpoints(dir: impl AsRef<Path>, keep: usize) -> Result<usize, StoreError> {
    Chain::scan(dir.as_ref())?.prune(keep)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_core::{IncrementalChecker, IsolationLevel};
    use mtc_history::Op;

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
            files.iter().map(|&(c, _, _)| c).collect::<Vec<_>>(),
            vec![15, 20]
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// Writes a full at 10 and deltas at 20 and 30, returning the encoded
    /// payloads by consumed count.
    fn sample_chain(dir: &Path) -> Vec<(u64, Vec<u8>)> {
        let payloads: Vec<(u64, Vec<u8>)> = [10u64, 20, 30]
            .into_iter()
            .map(|n| (n, binval::to_bytes(&sample_snapshot(n))))
            .collect();
        write_checkpoint_bytes(dir, 10, &payloads[0].1).unwrap();
        for w in payloads.windows(2) {
            let (base_consumed, ref base) = w[0];
            let (consumed, ref payload) = w[1];
            write_checkpoint_delta(dir, consumed, base_consumed, payload, base)
                .unwrap()
                .expect("near-identical snapshots must delta below full size");
        }
        payloads
    }

    #[test]
    fn delta_chain_resolves_to_the_newest_snapshot() {
        let dir = tmpdir("chain");
        sample_chain(&dir);
        let (consumed, loaded) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(consumed, 30);
        assert_eq!(loaded.txn_count(), sample_snapshot(30).txn_count());
        // Resolving a mid-chain delta directly also works.
        let (consumed, _) = read_checkpoint(delta_checkpoint_path(&dir, 20)).unwrap();
        assert_eq!(consumed, 20);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_mid_chain_base_falls_back_to_the_full() {
        let dir = tmpdir("chain_damage");
        sample_chain(&dir);
        // Corrupt the payload of the delta at 20: the delta at 30 can no
        // longer resolve (its chain runs through 20), and 20 itself is
        // damaged, so recovery lands on the full at 10.
        let mid = delta_checkpoint_path(&dir, 20);
        let mut bytes = fs::read(&mid).unwrap();
        let at = bytes.len() - 5;
        bytes[at] ^= 0xff;
        fs::write(&mid, &bytes).unwrap();
        let (consumed, _) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(consumed, 10);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_delta_base_falls_back_and_crc_guard_catches_divergence() {
        let dir = tmpdir("chain_missing");
        sample_chain(&dir);
        fs::remove_file(delta_checkpoint_path(&dir, 20)).unwrap();
        let (consumed, _) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(consumed, 10, "orphaned delta at 30 must be skipped");
        // A delta applied against the wrong base trips the snapshot CRC.
        let wrong_base = binval::to_bytes(&sample_snapshot(11));
        write_checkpoint_bytes(&dir, 20, &wrong_base).unwrap();
        let err = read_checkpoint(delta_checkpoint_path(&dir, 30)).unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_pins_the_bases_of_retained_deltas() {
        let dir = tmpdir("chain_prune");
        sample_chain(&dir);
        // keep=1 directly retains only consumed=30, but 30 is a delta whose
        // chain needs 20 and 10 — nothing may be deleted.
        assert_eq!(prune_checkpoints(&dir, 1).unwrap(), 0);
        let (consumed, _) = latest_checkpoint(&dir).unwrap().unwrap();
        assert_eq!(consumed, 30);
        // A fresh full at 40 breaks the dependency; keep=1 now deletes the
        // whole older chain.
        write_checkpoint(&dir, 40, &sample_snapshot(40)).unwrap();
        assert_eq!(prune_checkpoints(&dir, 1).unwrap(), 3);
        let files = checkpoint_files(&dir).unwrap();
        assert_eq!(files.iter().map(|&(c, _, _)| c).collect::<Vec<_>>(), [40]);
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
