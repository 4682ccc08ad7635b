//! The store facade: one directory holding a history log and its
//! checkpoints, with a recovery path that stitches them back together.
//!
//! ```text
//! <dir>/segment-00000000.mtclog      append-only history log
//! <dir>/segment-00000001.mtclog
//! <dir>/checkpoint-000000002048.mtcck  checker snapshots
//! ```
//!
//! The write-ahead discipline is: a transaction is appended (and optionally
//! synced) to the log *before* it is fed to the checker, and checkpoints
//! record how many logged transactions the snapshotted checker had
//! consumed. After a crash, [`recover`] loads the newest intact checkpoint
//! the recovered log reaches and the logged suffix after it; replaying that
//! suffix into the resumed
//! checker reproduces the uninterrupted verdict. With no usable checkpoint
//! the whole log replays from scratch — slower, same answer.
//!
//! An open [`MtcStore`] is the directory's one writer, and the one module
//! that decides when to checkpoint. A host that checks what it logs appends
//! a transaction ([`MtcStore::append_txn`], or a batch of them with
//! [`MtcStore::append_txns`]) before its checker consumes it and calls
//! [`MtcStore::recorded`] after the checker has: every `checkpoint_every`
//! recorded transactions — the floor — the store writes a checkpoint if one
//! is worth its bytes and fsyncs the log if not. Writing a checkpoint reads
//! nothing back: every checkpoint is a full snapshot, and pruning goes by
//! file names. The first write that fails is the last: the store keeps it and
//! returns it from every later append, sync and checkpoint, so the log
//! stays a clean prefix of what was recorded.

use crate::checkpoint::{
    encode_checkpoint, latest_checkpoint_within, prune_checkpoints, remove_stale_tmp_files,
    write_checkpoint_file,
};
use crate::segment::{read_log, LogWriter, StreamMeta};
use crate::StoreError;
use mtc_core::{CheckerSnapshot, IncrementalChecker};
use mtc_history::{History, HistoryBuilder, Transaction};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How many checkpoints [`MtcStore::checkpoint`] retains.
pub const DEFAULT_CHECKPOINT_KEEP: usize = 3;

/// A writable store: history log plus checkpoints in one directory.
#[derive(Debug)]
pub struct MtcStore {
    dir: PathBuf,
    writer: LogWriter,
    checkpoint_keep: usize,
    /// The floor of [`MtcStore::recorded`]; `usize::MAX` until set.
    checkpoint_every: usize,
    /// `recorded` calls since the last floor.
    since_floor: usize,
    /// Logged transactions the host's checker has consumed: the log's length
    /// when the store was opened, plus one per `recorded` call. The log runs
    /// ahead of it by what was appended and not yet recorded.
    consumed: u64,
    /// Checkpoint bytes this store wrote.
    checkpoint_bytes: u64,
    /// Checkpoints this store wrote.
    checkpoints: u64,
    /// The newest checkpoint this store wrote; `None` before the first.
    newest: Option<Newest>,
    /// This store's append latency, owned rather than registered — the
    /// daemon's tenants come and go, and it surfaces this per tenant. Empty
    /// unless observability is enabled.
    append_hist: mtc_obs::Histogram,
    /// The first failed append, sync or checkpoint, returned by every later
    /// one.
    failed: Option<StoreError>,
}

/// The newest checkpoint a store wrote.
#[derive(Debug)]
struct Newest {
    /// The log's [`LogWriter::appended_bytes`] when it was written.
    log_at: u64,
    /// Its size in bytes.
    size: u64,
    /// When it finished.
    at: Instant,
}

/// What a store has written, and how fast: the daemon reports it per tenant,
/// so an operator can tell a slow tenant from a stalled log.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreStats {
    /// 99th-percentile latency of one append call, a whole batch for a host
    /// that appends batches (0 until observability is enabled: the
    /// histogram only records while the global switch is on).
    pub wal_append_p99_micros: u64,
    /// Microseconds since the newest checkpoint finished (`None` before
    /// the first one).
    pub last_checkpoint_age_micros: Option<u64>,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Log bytes appended since the store was created or opened.
    pub log_bytes: u64,
    /// Checkpoint bytes written. A checkpoint is due once the log since the
    /// newest one has grown to that one's size, so every checkpoint but the
    /// newest is paid for by `log_bytes`.
    pub checkpoint_bytes: u64,
    /// Failed appends, syncs and checkpoints: 0 or 1, since the first
    /// failure is the store's last write.
    pub errors: u64,
}

impl MtcStore {
    fn new(dir: &Path, writer: LogWriter) -> Self {
        MtcStore {
            consumed: writer.next_txn_index(),
            dir: dir.to_path_buf(),
            writer,
            checkpoint_keep: DEFAULT_CHECKPOINT_KEEP,
            checkpoint_every: usize::MAX,
            since_floor: 0,
            checkpoint_bytes: 0,
            checkpoints: 0,
            newest: None,
            append_hist: mtc_obs::Histogram::new(),
            failed: None,
        }
    }

    /// Creates a fresh store in `dir` (must not already contain a log).
    pub fn create(dir: impl AsRef<Path>, meta: &StreamMeta) -> Result<Self, StoreError> {
        Ok(Self::new(dir.as_ref(), LogWriter::create(&dir, meta)?))
    }

    /// Re-opens an existing store for appending, recovering its contents
    /// (torn tail truncated, newest intact checkpoint loaded) and deleting
    /// the temporary file of a checkpoint the previous writer died writing.
    /// The reopened store has written no checkpoint of its own, so its first
    /// floor writes one.
    pub fn open_append(dir: impl AsRef<Path>) -> Result<(Self, Recovery), StoreError> {
        let (writer, log) = LogWriter::open_append(&dir)?;
        remove_stale_tmp_files(dir.as_ref())?;
        let recovery = assemble(dir.as_ref(), log.meta, log.txns, log.torn_tail)?;
        Ok((Self::new(dir.as_ref(), writer), recovery))
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Overrides how many checkpoints are retained.
    pub fn with_checkpoint_keep(mut self, keep: usize) -> Self {
        self.checkpoint_keep = keep.max(1);
        self
    }

    /// Sets the floor of [`MtcStore::recorded`]: every `every` recorded
    /// transactions the log is fsynced, or a checkpoint written instead.
    /// Until set, `recorded` writes nothing.
    pub fn with_checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Appends one transaction to the log (write-ahead: call this *before*
    /// feeding the transaction to the checker). Returns its stream index.
    pub fn append_txn(&mut self, txn: &Transaction) -> Result<u64, StoreError> {
        self.append_txns(std::slice::from_ref(txn))
    }

    /// Appends `txns` to the log with one `write` ([`LogWriter::append_txns`])
    /// and returns the stream index of the first. Write-ahead: call this
    /// before feeding any of them to the checker, and [`MtcStore::recorded`]
    /// after each one it consumes. `store.wal_append_micros` times the call.
    pub fn append_txns(&mut self, txns: &[Transaction]) -> Result<u64, StoreError> {
        self.latched()?;
        let timer = mtc_obs::enabled().then(Instant::now);
        let idx = self.writer.append_txns(txns).map_err(|e| self.fail(e))?;
        if let Some(t0) = timer {
            let micros = t0.elapsed().as_micros() as u64;
            mtc_obs::histogram!("store.wal_append_micros").record(micros);
            self.append_hist.record(micros);
        }
        Ok(idx)
    }

    /// Stream index the next appended transaction will get.
    pub fn next_txn_index(&self) -> u64 {
        self.writer.next_txn_index()
    }

    /// Forces appended records down to the device (`fsync`).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        self.latched()?;
        self.writer.sync().map_err(|e| self.fail(e))
    }

    /// Called each time the checker has consumed one more logged
    /// transaction. At a floor ([`MtcStore::with_checkpoint_every`]) it
    /// checkpoints the checker, through `snapshot`, if one is due, and fsyncs
    /// the log if not, so the log is fsynced at every floor either way. The
    /// log may run ahead of the checker — by a batch a host appended before
    /// checking it — so a checkpoint records the transactions the checker
    /// consumed, counted here, not the log's length.
    ///
    /// A checkpoint is due when this store has written none yet, or the log
    /// it appended since its newest one has grown to that checkpoint's size.
    /// The ratio is 1 and not a knob. Each checkpoint is paid for by as many
    /// log bytes as the one before it weighs, so the checkpoint bytes written
    /// before the newest stay below the log bytes written — on a GC'd stream
    /// (a snapshot of steady size) the cost per logged transaction is fixed,
    /// on an un-GC'd one (a snapshot that grows with the stream) the number of
    /// checkpoints grows with the logarithm of its length. A recovery replays
    /// at most one checkpoint's worth of log, plus one floor and the batch
    /// the log ran ahead by.
    pub fn recorded(
        &mut self,
        snapshot: impl FnOnce() -> CheckerSnapshot,
    ) -> Result<(), StoreError> {
        self.latched()?;
        self.consumed += 1;
        debug_assert!(
            self.consumed <= self.next_txn_index(),
            "a transaction was recorded before it was logged"
        );
        self.since_floor += 1;
        if self.since_floor < self.checkpoint_every {
            return Ok(());
        }
        self.since_floor = 0;
        let due = self
            .newest
            .as_ref()
            .is_none_or(|n| self.writer.appended_bytes() - n.log_at >= n.size);
        if due {
            self.checkpoint(self.consumed, &snapshot()).map(drop)
        } else {
            self.sync()
        }
    }

    /// Persists a checker snapshot taken after consuming `consumed` logged
    /// transactions, syncing the log first (a checkpoint must never be
    /// newer than the log it indexes into) and pruning old checkpoints.
    /// Every checkpoint is a full snapshot, encoded straight into the frame
    /// of its file.
    pub fn checkpoint(
        &mut self,
        consumed: u64,
        snapshot: &CheckerSnapshot,
    ) -> Result<PathBuf, StoreError> {
        self.latched()?;
        self.write_checkpoint(consumed, snapshot)
            .map_err(|e| self.fail(e))
    }

    fn write_checkpoint(
        &mut self,
        consumed: u64,
        snapshot: &CheckerSnapshot,
    ) -> Result<PathBuf, StoreError> {
        let timer = mtc_obs::enabled().then(Instant::now);
        {
            let _span = mtc_obs::span(mtc_obs::histogram!("store.checkpoint.sync"));
            self.writer.sync()?;
        }
        let bytes = {
            let _span = mtc_obs::span(mtc_obs::histogram!("store.checkpoint.encode"));
            encode_checkpoint(consumed, snapshot)
        };
        let path = {
            let _span = mtc_obs::span(mtc_obs::histogram!("store.checkpoint.write"));
            write_checkpoint_file(&self.dir, consumed, &bytes)?
        };
        mtc_obs::counter!("store.checkpoint_full_bytes").add(bytes.len() as u64);
        self.checkpoint_bytes += bytes.len() as u64;
        self.checkpoints += 1;
        self.newest = Some(Newest {
            log_at: self.writer.appended_bytes(),
            size: bytes.len() as u64,
            at: Instant::now(),
        });
        {
            let _span = mtc_obs::span(mtc_obs::histogram!("store.checkpoint.prune"));
            prune_checkpoints(&self.dir, self.checkpoint_keep)?;
        }
        if let Some(t0) = timer {
            mtc_obs::histogram!("store.checkpoint_micros").record(t0.elapsed().as_micros() as u64);
        }
        Ok(path)
    }

    /// What this store has written since it was created or opened.
    pub fn stats(&self) -> StoreStats {
        StoreStats {
            wal_append_p99_micros: self.append_hist.snapshot().p99,
            last_checkpoint_age_micros: self
                .newest
                .as_ref()
                .map(|n| n.at.elapsed().as_micros() as u64),
            checkpoints: self.checkpoints,
            log_bytes: self.writer.appended_bytes(),
            checkpoint_bytes: self.checkpoint_bytes,
            errors: self.failed.is_some() as u64,
        }
    }

    /// The first failure, if a write has failed.
    fn latched(&self) -> Result<(), StoreError> {
        match &self.failed {
            Some(e) => Err(e.clone()),
            None => Ok(()),
        }
    }

    /// Latches `e` as the store's first failure and returns it.
    fn fail(&mut self, e: StoreError) -> StoreError {
        self.failed.insert(e).clone()
    }
}

/// Everything recovered from a store directory.
#[derive(Clone, Debug)]
pub struct Recovery {
    /// The stream metadata.
    pub meta: StreamMeta,
    /// The newest intact checkpoint, if any.
    pub snapshot: Option<CheckerSnapshot>,
    /// Log index replay resumes from (the checkpoint's consumed count, or 0).
    pub resume_from: u64,
    /// Every intact logged transaction, in stream order.
    pub txns: Vec<Transaction>,
    /// True iff the log ended in a torn frame (crash signature).
    pub torn_tail: bool,
}

impl Recovery {
    /// The logged transactions the resumed checker still has to replay.
    pub fn tail(&self) -> &[Transaction] {
        &self.txns[self.resume_from as usize..]
    }

    /// The checker as it stood after the last logged transaction: the
    /// newest snapshot — or, without one, a fresh checker over `meta` — with
    /// the tail replayed into it. Consumes the recovery: the snapshot and
    /// the tail move into the checker, uncopied.
    pub fn resume(self) -> IncrementalChecker {
        let mut checker = match self.snapshot {
            Some(snapshot) => IncrementalChecker::resume(snapshot),
            None => IncrementalChecker::new(self.meta.level).with_init_keys(0..self.meta.num_keys),
        };
        for txn in self.txns.into_iter().skip(self.resume_from as usize) {
            let _ = checker.push(txn);
        }
        checker
    }

    /// Rebuilds the complete logged history (`⊥T` over the recorded key
    /// range first), for offline re-checking with any batch or streaming
    /// checker.
    pub fn to_history(&self) -> History {
        let mut b = HistoryBuilder::new().with_init(self.meta.num_keys);
        for t in &self.txns {
            b.push_cloned(t.clone());
        }
        b.build()
    }
}

/// Read-only recovery: scans the log and loads the newest intact
/// checkpoint, without opening the store for appending.
pub fn recover(dir: impl AsRef<Path>) -> Result<Recovery, StoreError> {
    let log = read_log(&dir)?;
    assemble(dir.as_ref(), log.meta, log.txns, log.torn_tail)
}

fn assemble(
    dir: &Path,
    meta: StreamMeta,
    txns: Vec<Transaction>,
    torn_tail: bool,
) -> Result<Recovery, StoreError> {
    // A checkpoint ahead of the recovered log (log tail lost, snapshot
    // survived) cannot be replayed into: the newest one within it serves,
    // or, without one, a replay from scratch.
    let (resume_from, snapshot) = match latest_checkpoint_within(dir, txns.len() as u64)? {
        Some((consumed, snap)) => (consumed, Some(snap)),
        None => (0, None),
    };
    Ok(Recovery {
        meta,
        snapshot,
        resume_from,
        txns,
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_core::{check_streaming, IncrementalChecker, IsolationLevel};
    use mtc_history::{Op, SessionId, TxnId};
    use mtc_obs::test_support::with_enabled;
    use std::fs;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mtc_store_store_{tag}_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn meta() -> StreamMeta {
        StreamMeta {
            level: IsolationLevel::Serializability,
            num_keys: 2,
        }
    }

    fn txn(i: u64, read: u64, write: u64) -> Transaction {
        Transaction::committed(
            TxnId(0),
            SessionId((i % 2) as u32),
            vec![Op::read(0u64, read), Op::write(0u64, write)],
        )
        .with_times(10 * i + 1, 10 * i + 5)
    }

    #[test]
    fn record_checkpoint_crash_resume_matches_clean_run() {
        // Reads a checkpoint: see `checkpoint::tests`.
        let _off = with_enabled(false);
        let dir = tmpdir("resume");
        let mut store = MtcStore::create(&dir, &meta()).unwrap();
        let mut checker =
            IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
        let mut last = 0u64;
        for i in 0..30u64 {
            let t = txn(i, last, i + 1);
            store.append_txn(&t).unwrap();
            let _ = checker.push(t);
            last = i + 1;
            if i == 19 {
                let snap = checker.checkpoint();
                store.checkpoint(20, &snap).unwrap();
            }
        }
        store.sync().unwrap();
        drop(store);
        drop(checker); // "crash": no finish, no final checkpoint

        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.resume_from, 20);
        assert_eq!(recovery.tail().len(), 10);
        let mut resumed = IncrementalChecker::resume(recovery.snapshot.clone().unwrap());
        for t in recovery.tail() {
            let _ = resumed.push(t.clone());
        }
        let resumed_verdict = resumed.finish().unwrap();
        let clean =
            check_streaming(IsolationLevel::Serializability, &recovery.to_history()).unwrap();
        assert_eq!(resumed_verdict, clean);
        assert!(clean.is_satisfied());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_continues_the_stream_after_a_torn_tail() {
        let dir = tmpdir("continue");
        let mut store = MtcStore::create(&dir, &meta()).unwrap();
        for i in 0..8u64 {
            store.append_txn(&txn(i, i, i + 1)).unwrap();
        }
        store.sync().unwrap();
        drop(store);
        // Torn tail.
        let seg = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .find(|e| e.file_name().to_string_lossy().ends_with(".mtclog"))
            .unwrap()
            .path();
        let mut bytes = fs::read(&seg).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        fs::write(&seg, &bytes).unwrap();

        let (mut store, recovery) = MtcStore::open_append(&dir).unwrap();
        assert!(recovery.torn_tail);
        assert_eq!(recovery.txns.len(), 8);
        assert_eq!(store.next_txn_index(), 8);
        store.append_txn(&txn(8, 8, 9)).unwrap();
        store.sync().unwrap();
        drop(store);
        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.txns.len(), 9);
        assert!(!recovery.torn_tail);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_append_removes_the_temporary_file_of_a_checkpoint_that_never_landed() {
        let _off = with_enabled(false);
        let dir = tmpdir("stale_tmp");
        let mut store = MtcStore::create(&dir, &meta()).unwrap();
        let mut checker =
            IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
        for i in 0..20u64 {
            let t = txn(i, i, i + 1);
            store.append_txn(&t).unwrap();
            let _ = checker.push(t);
            if (i + 1) % 5 == 0 {
                store.checkpoint(i + 1, &checker.checkpoint()).unwrap();
            }
        }
        drop(store);
        let names = |dir: &Path| {
            let mut names: Vec<String> = fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            names
        };
        let chain = names(&dir);
        assert_eq!(
            chain
                .iter()
                .filter(|n| n.starts_with("checkpoint-"))
                .count(),
            DEFAULT_CHECKPOINT_KEEP,
            "{chain:?}"
        );
        // The crash: checkpoints written under their temporary names and
        // never renamed, newer than anything that landed.
        let stale = [
            "checkpoint-000000000025.mtcck.tmp",
            "checkpoint-000000000030.mtcck.tmp",
        ];
        for name in stale {
            fs::write(dir.join(name), b"half a checkpoint").unwrap();
        }
        // Read-only recovery leaves them alone (it is not the writer).
        assert_eq!(recover(&dir).unwrap().resume_from, 20);
        assert_eq!(names(&dir).len(), chain.len() + stale.len());

        let (mut store, recovery) = MtcStore::open_append(&dir).unwrap();
        assert_eq!(
            names(&dir),
            chain,
            "stale temporaries gone, the chain intact"
        );
        assert_eq!(recovery.resume_from, 20);
        // And the reopened store carries on over the chain it found.
        let t = txn(20, 20, 21);
        store.append_txn(&t).unwrap();
        let _ = checker.push(t);
        store.checkpoint(21, &checker.checkpoint()).unwrap();
        drop(store);
        assert_eq!(recover(&dir).unwrap().resume_from, 21);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn the_first_failed_write_is_the_last() {
        let dir = tmpdir("latch");
        let mut store = MtcStore::create(&dir, &meta())
            .unwrap()
            .with_checkpoint_every(4);
        let mut checker =
            IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
        // The first floor's checkpoint cannot be written: its temporary
        // file's name is taken by a directory.
        fs::create_dir(dir.join("checkpoint-000000000004.mtcck.tmp")).unwrap();
        for i in 0..3u64 {
            let t = txn(i, i, i + 1);
            store.append_txn(&t).unwrap();
            let _ = checker.push(t);
            store.recorded(|| checker.checkpoint()).unwrap();
        }
        let t = txn(3, 3, 4);
        store.append_txn(&t).unwrap();
        let _ = checker.push(t);
        let failed = store.recorded(|| checker.checkpoint()).unwrap_err();
        assert!(matches!(failed, StoreError::Io(_)), "{failed}");

        let segments = || {
            let mut lengths: Vec<(String, u64)> = fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap())
                .filter(|e| e.file_name().to_string_lossy().ends_with(".mtclog"))
                .map(|e| {
                    let len = e.metadata().unwrap().len();
                    (e.file_name().to_string_lossy().into_owned(), len)
                })
                .collect();
            lengths.sort();
            lengths
        };
        let before = segments();
        for i in 4..12u64 {
            let again = store.append_txn(&txn(i, i, i + 1)).unwrap_err();
            assert_eq!(again.to_string(), failed.to_string());
            let again = store.recorded(|| checker.checkpoint()).unwrap_err();
            assert_eq!(again.to_string(), failed.to_string());
        }
        assert_eq!(store.sync().unwrap_err().to_string(), failed.to_string());
        let snapshot = checker.checkpoint();
        let again = store.checkpoint(4, &snapshot).unwrap_err();
        assert_eq!(again.to_string(), failed.to_string());
        assert_eq!(segments(), before, "nothing written after the failure");
        let stats = store.stats();
        assert_eq!((stats.errors, stats.checkpoints), (1, 0));
        drop(store);

        let recovery = recover(&dir).unwrap();
        assert_eq!(recovery.txns.len(), 4);
        assert_eq!(recovery.txns[3], txn(3, 3, 4));
        assert!(recovery.snapshot.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_ahead_of_the_log_is_ignored() {
        // A snapshot claiming more consumed transactions than the log holds
        // (e.g. the log tail was lost but the checkpoint survived) must not
        // be used: replay falls back to scratch.
        let dir = tmpdir("ahead");
        let mut store = MtcStore::create(&dir, &meta()).unwrap();
        let mut checker =
            IncrementalChecker::new(IsolationLevel::Serializability).with_init_keys(0..2u64);
        for i in 0..5u64 {
            let t = txn(i, i, i + 1);
            store.append_txn(&t).unwrap();
            let _ = checker.push(t);
        }
        store.checkpoint(99, &checker.checkpoint()).unwrap();
        drop(store);
        let recovery = recover(&dir).unwrap();
        assert!(recovery.snapshot.is_none());
        assert_eq!(recovery.resume_from, 0);
        assert_eq!(recovery.tail().len(), 5);
        let _ = fs::remove_dir_all(&dir);
    }
}
