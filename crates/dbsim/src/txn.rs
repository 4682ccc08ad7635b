//! Transaction execution: snapshot reads, buffered writes, optimistic
//! commit-time validation, and the fault hooks.

use crate::db::Database;
use crate::faults::ActiveFaults;
use crate::store::StoredValue;
use mtc_history::{FastHashMap, Key, Value, INIT_VALUE};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Why a transaction aborted.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AbortReason {
    /// First-committer-wins: a written key has a version newer than the
    /// transaction's snapshot.
    WriteConflict,
    /// Commit-time read validation failed: a read key has a version newer
    /// than the transaction's snapshot.
    ReadConflict,
    /// The transaction was aborted by the injected `DirtyRelease` fault
    /// (after publishing its writes).
    InjectedAbort,
    /// The client explicitly rolled back.
    UserAbort,
    /// The transaction lost a wait-die conflict in a pessimistic (locking)
    /// engine: it requested a lock held by an older transaction and was
    /// killed instead of being allowed to wait (deadlock prevention).
    Deadlock,
    /// The connection to a remote backend failed (timeout, reset, refused)
    /// before the commit request was sent. No write can have been applied,
    /// so the attempt is safe to record as aborted and to retry.
    ConnectionLost,
    /// The connection to a remote backend failed *after* the commit request
    /// was sent but before its reply arrived: the transaction may or may
    /// not have committed on the server. The drivers neither record nor
    /// retry such attempts — recording them as aborted could contradict a
    /// commit that actually happened, and retrying could duplicate it.
    CommitStatusUnknown,
}

impl AbortReason {
    /// True iff a driver may retry the transaction template after this
    /// abort. [`AbortReason::InjectedAbort`] already published its writes
    /// (retrying would duplicate values) and
    /// [`AbortReason::CommitStatusUnknown`] may already have committed, so
    /// both are final; every other reason rolls back cleanly.
    pub fn is_retryable(&self) -> bool {
        !matches!(
            self,
            AbortReason::InjectedAbort | AbortReason::CommitStatusUnknown
        )
    }

    /// True iff the attempt's outcome is actually known to be an abort.
    /// [`AbortReason::CommitStatusUnknown`] is the one reason for which it
    /// is not: the drivers must keep such attempts out of the collected
    /// history (an attempt recorded as aborted whose writes committed on
    /// the server would be indistinguishable from a dirty-write anomaly).
    pub fn outcome_known(&self) -> bool {
        !matches!(self, AbortReason::CommitStatusUnknown)
    }
}

impl fmt::Display for AbortReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AbortReason::WriteConflict => write!(f, "write-write conflict"),
            AbortReason::ReadConflict => write!(f, "read validation conflict"),
            AbortReason::InjectedAbort => write!(f, "injected abort"),
            AbortReason::UserAbort => write!(f, "user abort"),
            AbortReason::Deadlock => write!(f, "wait-die deadlock victim"),
            AbortReason::ConnectionLost => write!(f, "connection to the backend lost"),
            AbortReason::CommitStatusUnknown => {
                write!(f, "connection lost awaiting the commit reply")
            }
        }
    }
}

/// Information returned by a successful commit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommitInfo {
    /// Commit timestamp assigned to the transaction.
    pub commit_ts: u64,
}

/// An open transaction.
pub struct TxnHandle<'db> {
    db: &'db Database,
    begin_ts: u64,
    faults: ActiveFaults,
    /// Keys read from the store, with the commit timestamp of the version
    /// observed (used for read validation).
    read_set: FastHashMap<Key, u64>,
    /// Buffered writes (applied at commit), in first-write order.
    write_buffer: FastHashMap<Key, StoredValue>,
    write_order: Vec<Key>,
}

impl<'db> TxnHandle<'db> {
    pub(crate) fn new(db: &'db Database, begin_ts: u64, faults: ActiveFaults) -> Self {
        TxnHandle {
            db,
            begin_ts,
            faults,
            read_set: FastHashMap::default(),
            write_buffer: FastHashMap::default(),
            write_order: Vec::new(),
        }
    }

    /// The transaction's begin timestamp (also its snapshot timestamp).
    pub fn begin_ts(&self) -> u64 {
        self.begin_ts
    }

    fn op_latency(&self) {
        let d = self.db.config.op_latency;
        if !d.is_zero() {
            std::thread::sleep(d);
        }
    }

    fn snapshot_ts(&self) -> u64 {
        if self.db.config.isolation.snapshot_reads() {
            self.begin_ts
        } else {
            u64::MAX // read-committed: always the latest committed version
        }
    }

    fn read_stored(&mut self, key: Key) -> StoredValue {
        self.op_latency();
        if let Some(v) = self.write_buffer.get(&key) {
            return v.clone();
        }
        let version = self
            .db
            .store
            .read(key, self.snapshot_ts(), self.faults.stale_versions);
        match version {
            Some(v) => {
                self.read_set.entry(key).or_insert(v.commit_ts);
                v.value
            }
            None => {
                self.read_set.entry(key).or_insert(0);
                StoredValue::Register(INIT_VALUE)
            }
        }
    }

    /// Reads the register at `key` (the implicit initial value if never
    /// written).
    pub fn read_register(&mut self, key: Key) -> Value {
        match self.read_stored(key) {
            StoredValue::Register(v) => v,
            StoredValue::List(_) => INIT_VALUE,
        }
    }

    /// Reads the list at `key` (empty if never written).
    pub fn read_list(&mut self, key: Key) -> Vec<Value> {
        match self.read_stored(key) {
            StoredValue::List(l) => l,
            StoredValue::Register(v) if v == INIT_VALUE => Vec::new(),
            StoredValue::Register(v) => vec![v],
        }
    }

    fn buffer_write(&mut self, key: Key, value: StoredValue) {
        self.op_latency();
        if !self.write_buffer.contains_key(&key) {
            self.write_order.push(key);
        }
        self.write_buffer.insert(key, value);
    }

    /// Writes `value` to the register at `key`.
    pub fn write_register(&mut self, key: Key, value: Value) {
        self.buffer_write(key, StoredValue::Register(value));
    }

    /// Appends `element` to the list at `key` (a read-modify-write on the
    /// whole list, as in SQL `UPDATE ... SET l = l || elem`).
    pub fn append(&mut self, key: Key, element: Value) {
        let mut list = self.read_list(key);
        list.push(element);
        self.buffer_write(key, StoredValue::List(list));
    }

    /// The keys this transaction has written so far.
    pub fn write_set(&self) -> &[Key] {
        &self.write_order
    }

    /// Attempts to commit. On success the buffered writes become visible
    /// atomically at the returned commit timestamp.
    pub fn commit(self) -> Result<CommitInfo, AbortReason> {
        let db = self.db;
        let commit_latency = db.config.commit_latency;
        let _guard = db.commit_lock.lock();

        // Injected dirty release: publish, then abort.
        if self.faults.dirty_release && !self.write_buffer.is_empty() {
            db.store.install_all(
                || db.tick(),
                self.write_order
                    .iter()
                    .map(|k| (*k, self.write_buffer.get(k).expect("buffered"))),
            );
            if !commit_latency.is_zero() {
                std::thread::sleep(commit_latency);
            }
            return Err(AbortReason::InjectedAbort);
        }

        let isolation = db.config.isolation;
        if isolation.validates_writes() && !self.faults.skip_write_validation {
            for key in &self.write_order {
                if db.store.has_newer_than(*key, self.begin_ts) {
                    return Err(AbortReason::WriteConflict);
                }
            }
        }
        if isolation.validates_reads() && !self.faults.skip_read_validation {
            for key in self.read_set.keys() {
                if db.store.has_newer_than(*key, self.begin_ts) {
                    return Err(AbortReason::ReadConflict);
                }
            }
        }

        let commit_ts = if self.write_buffer.is_empty() {
            db.tick()
        } else {
            db.store.install_all(
                || db.tick(),
                self.write_order
                    .iter()
                    .map(|k| (*k, self.write_buffer.get(k).expect("buffered"))),
            )
        };
        if !commit_latency.is_zero() {
            std::thread::sleep(commit_latency);
        }
        // Injected clock skew: the store installs at the true timestamp
        // (keeping version chains monotone) but the client — and therefore
        // the collected history — sees a commit instant from the past, never
        // earlier than the transaction's own begin.
        let reported = if self.faults.commit_ts_skew == 0 {
            commit_ts
        } else {
            commit_ts
                .saturating_sub(self.faults.commit_ts_skew)
                .max(self.begin_ts)
        };
        Ok(CommitInfo {
            commit_ts: reported,
        })
    }

    /// Rolls the transaction back. Buffered writes are discarded.
    pub fn abort(self) -> AbortReason {
        AbortReason::UserAbort
    }
}

// The simulated engine's operations never fail mid-transaction (all
// validation happens at commit), so the trait surface wraps the inherent
// methods in `Ok`.
impl<'db> crate::backend::DbTxn for TxnHandle<'db> {
    fn begin_ts(&self) -> u64 {
        TxnHandle::begin_ts(self)
    }

    fn read_register(&mut self, key: Key) -> Result<Value, AbortReason> {
        Ok(TxnHandle::read_register(self, key))
    }

    fn write_register(&mut self, key: Key, value: Value) -> Result<(), AbortReason> {
        TxnHandle::write_register(self, key, value);
        Ok(())
    }

    fn read_list(&mut self, key: Key) -> Result<Vec<Value>, AbortReason> {
        Ok(TxnHandle::read_list(self, key))
    }

    fn append(&mut self, key: Key, element: Value) -> Result<(), AbortReason> {
        TxnHandle::append(self, key, element);
        Ok(())
    }

    fn commit(self: Box<Self>) -> Result<CommitInfo, AbortReason> {
        TxnHandle::commit(*self)
    }

    fn abort(self: Box<Self>) -> AbortReason {
        TxnHandle::abort(*self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DbConfig, IsolationMode};
    use crate::faults::{FaultKind, FaultSpec};

    fn db(mode: IsolationMode) -> Database {
        Database::new(DbConfig::correct(mode, 4))
    }

    #[test]
    fn read_your_own_writes() {
        let db = db(IsolationMode::Serializable);
        let mut t = db.begin();
        assert_eq!(t.read_register(Key(0)), INIT_VALUE);
        t.write_register(Key(0), Value(42));
        assert_eq!(t.read_register(Key(0)), Value(42));
        t.commit().unwrap();
        assert_eq!(db.store().current_register(Key(0)), Value(42));
    }

    #[test]
    fn snapshot_isolation_hides_concurrent_commits() {
        let db = db(IsolationMode::Snapshot);
        let mut t1 = db.begin();
        // t2 commits a new value after t1 began.
        let mut t2 = db.begin();
        t2.write_register(Key(0), Value(7));
        t2.commit().unwrap();
        // t1 still sees the initial value.
        assert_eq!(t1.read_register(Key(0)), INIT_VALUE);
    }

    #[test]
    fn read_committed_sees_latest() {
        let db = db(IsolationMode::ReadCommitted);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t2.write_register(Key(0), Value(7));
        t2.commit().unwrap();
        assert_eq!(t1.read_register(Key(0)), Value(7));
    }

    #[test]
    fn first_committer_wins_aborts_the_second_writer() {
        let db = db(IsolationMode::Snapshot);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.write_register(Key(0), Value(1));
        t2.write_register(Key(0), Value(2));
        assert!(t1.commit().is_ok());
        assert_eq!(t2.commit(), Err(AbortReason::WriteConflict));
        assert_eq!(db.store().current_register(Key(0)), Value(1));
    }

    #[test]
    fn serializable_read_validation_prevents_write_skew() {
        let db = db(IsolationMode::Serializable);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        // Classic write skew: each reads both keys, writes the other one.
        t1.read_register(Key(0));
        t1.read_register(Key(1));
        t2.read_register(Key(0));
        t2.read_register(Key(1));
        t1.write_register(Key(0), Value(10));
        t2.write_register(Key(1), Value(20));
        assert!(t1.commit().is_ok());
        assert_eq!(t2.commit(), Err(AbortReason::ReadConflict));
    }

    #[test]
    fn snapshot_mode_allows_write_skew() {
        let db = db(IsolationMode::Snapshot);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.read_register(Key(0));
        t1.read_register(Key(1));
        t2.read_register(Key(0));
        t2.read_register(Key(1));
        t1.write_register(Key(0), Value(10));
        t2.write_register(Key(1), Value(20));
        assert!(t1.commit().is_ok());
        assert!(t2.commit().is_ok(), "SI must allow disjoint-key write skew");
    }

    #[test]
    fn skip_write_validation_fault_permits_lost_updates() {
        let cfg = DbConfig::correct(IsolationMode::Snapshot, 2)
            .with_faults(vec![FaultSpec::new(FaultKind::SkipWriteValidation, 1.0)], 1);
        let db = Database::new(cfg);
        let mut t1 = db.begin();
        let mut t2 = db.begin();
        t1.read_register(Key(0));
        t2.read_register(Key(0));
        t1.write_register(Key(0), Value(1));
        t2.write_register(Key(0), Value(2));
        assert!(t1.commit().is_ok());
        assert!(
            t2.commit().is_ok(),
            "fault must disable first-committer-wins"
        );
    }

    #[test]
    fn dirty_release_publishes_and_aborts() {
        let cfg = DbConfig::correct(IsolationMode::Snapshot, 1)
            .with_faults(vec![FaultSpec::new(FaultKind::DirtyRelease, 1.0)], 2);
        let db = Database::new(cfg);
        let mut t = db.begin();
        t.read_register(Key(0));
        t.write_register(Key(0), Value(99));
        assert_eq!(t.commit(), Err(AbortReason::InjectedAbort));
        // The "aborted" value is nevertheless visible.
        assert_eq!(db.store().current_register(Key(0)), Value(99));
    }

    #[test]
    fn lists_append_accumulates_elements() {
        let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 0));
        let mut t1 = db.begin();
        t1.append(Key(9), Value(1));
        t1.append(Key(9), Value(2));
        t1.commit().unwrap();
        let mut t2 = db.begin();
        assert_eq!(t2.read_list(Key(9)), vec![Value(1), Value(2)]);
        t2.append(Key(9), Value(3));
        t2.commit().unwrap();
        let mut t3 = db.begin();
        assert_eq!(t3.read_list(Key(9)), vec![Value(1), Value(2), Value(3)]);
    }

    #[test]
    fn user_abort_discards_writes() {
        let db = db(IsolationMode::Serializable);
        let mut t = db.begin();
        t.write_register(Key(0), Value(5));
        assert_eq!(t.abort(), AbortReason::UserAbort);
        assert_eq!(db.store().current_register(Key(0)), INIT_VALUE);
    }

    #[test]
    fn read_only_transactions_always_commit() {
        let db = db(IsolationMode::Snapshot);
        let mut t1 = db.begin();
        t1.read_register(Key(0));
        let mut t2 = db.begin();
        t2.write_register(Key(0), Value(3));
        t2.commit().unwrap();
        assert!(t1.commit().is_ok());
    }

    #[test]
    fn write_set_tracks_first_write_order() {
        let db = db(IsolationMode::Serializable);
        let mut t = db.begin();
        t.write_register(Key(2), Value(1));
        t.write_register(Key(0), Value(2));
        t.write_register(Key(2), Value(3));
        assert_eq!(t.write_set(), &[Key(2), Key(0)]);
    }

    #[test]
    fn commit_timestamp_skew_reports_a_past_instant() {
        let cfg = DbConfig::correct(IsolationMode::Snapshot, 1)
            .with_faults(vec![FaultSpec::new(FaultKind::CommitTimestampSkew, 1.0)], 3);
        let db = Database::new(cfg);
        let mut t = db.begin(); // begin_ts = 1
        t.read_register(Key(0));
        t.write_register(Key(0), Value(7));
        let begin = t.begin_ts();
        let info = t.commit().unwrap(); // installs at ts 2, skew >= 8 clamps to begin
        assert_eq!(
            info.commit_ts, begin,
            "skew must clamp at the begin instant"
        );
        // The store still installed the version at the true (later) instant.
        assert!(db.store().read(Key(0), begin, 0).unwrap().commit_ts == 0);
        assert_eq!(db.store().current_register(Key(0)), Value(7));
    }

    #[test]
    fn commit_timestamp_skew_produces_an_sser_only_violation() {
        use mtc_history::HistoryBuilder;
        // T1 writes x inside [1, 3] but, skewed, reports [1, 1]. T2 begins at
        // 2 — after T1's *reported* commit — and still reads the initial
        // value: a stale read after (claimed) commit. SER and SI accept the
        // history (T2 merely serializes before T1); SSER rejects it.
        let cfg = DbConfig::correct(IsolationMode::Snapshot, 1)
            .with_faults(vec![FaultSpec::new(FaultKind::CommitTimestampSkew, 1.0)], 3);
        let db = Database::new(cfg);
        let mut t1 = db.begin(); // begin_ts = 1
        t1.read_register(Key(0));
        t1.write_register(Key(0), Value(10));
        let b1 = t1.begin_ts();
        let mut t2 = db.begin(); // begin_ts = 2, inside T1's true window
        let b2 = t2.begin_ts();
        let read = t2.read_register(Key(0));
        assert_eq!(read, INIT_VALUE, "T1 is uncommitted at T2's snapshot");
        let i1 = t1.commit().unwrap();
        let i2 = t2.commit().unwrap();
        assert!(
            i1.commit_ts < b2,
            "the skew must backdate T1 past T2's begin"
        );

        let mut builder = HistoryBuilder::new().with_init(1);
        builder.committed_timed(
            0,
            vec![
                mtc_history::Op::read(0u64, 0u64),
                mtc_history::Op::write(0u64, 10u64),
            ],
            b1,
            i1.commit_ts,
        );
        builder.committed_timed(1, vec![mtc_history::Op::read(0u64, 0u64)], b2, i2.commit_ts);
        let h = builder.build();
        assert!(mtc_core::check_ser(&h).unwrap().is_satisfied());
        assert!(mtc_core::check_si(&h).unwrap().is_satisfied());
        assert!(mtc_core::check_sser(&h).unwrap().is_violated());
        assert!(mtc_core::check_sser_naive(&h).unwrap().is_violated());
    }

    #[test]
    fn abort_reason_display() {
        assert_eq!(
            AbortReason::WriteConflict.to_string(),
            "write-write conflict"
        );
        assert_eq!(AbortReason::InjectedAbort.to_string(), "injected abort");
    }
}
