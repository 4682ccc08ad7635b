//! Histories (Definition 2 of the paper).
//!
//! A history records, for every session, the sequence of transactions it
//! issued together with the client-visible results. From a history two
//! orders are derived:
//!
//! * the **session order** `SO`: `T1 → T2` iff both belong to the same
//!   session and `T1` was issued before `T2`, or `T1` is the initial
//!   transaction `⊥T`;
//! * the **real-time order** `RT ⊇ SO`: `T1 → T2` additionally when `T1`
//!   finished (in wall-clock time) before `T2` started.

use crate::op::Op;
use crate::session::SessionId;
use crate::txn::{Transaction, TxnId, TxnStatus};
use crate::value::{Key, Value, INIT_VALUE};
use crate::write_index::WriteIndex;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeSet, HashMap};

/// A complete execution history.
///
/// The transaction with id `TxnId(0)` is the initial transaction `⊥T` when
/// [`History::has_init`] is true; it writes [`INIT_VALUE`] to every object of
/// the history and precedes every other transaction in the session order.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct History {
    txns: Vec<Transaction>,
    /// Per-session transaction ids, in issue order. Does not include `⊥T`.
    sessions: Vec<Vec<TxnId>>,
    has_init: bool,
}

impl History {
    /// Number of transactions, including `⊥T` and aborted transactions.
    #[inline]
    pub fn len(&self) -> usize {
        self.txns.len()
    }

    /// True iff the history contains no transactions at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.txns.is_empty()
    }

    /// True iff the history has an initial transaction `⊥T`.
    #[inline]
    pub fn has_init(&self) -> bool {
        self.has_init
    }

    /// The id of the initial transaction, if present.
    #[inline]
    pub fn init_txn(&self) -> Option<TxnId> {
        if self.has_init {
            Some(TxnId(0))
        } else {
            None
        }
    }

    /// Access a transaction by id.
    #[inline]
    pub fn txn(&self, id: TxnId) -> &Transaction {
        &self.txns[id.index()]
    }

    /// All transactions (including aborted ones and `⊥T`).
    #[inline]
    pub fn txns(&self) -> &[Transaction] {
        &self.txns
    }

    /// Iterator over the ids of all transactions.
    pub fn ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        (0..self.txns.len() as u32).map(TxnId)
    }

    /// Iterator over committed transactions (includes `⊥T`).
    pub fn committed(&self) -> impl Iterator<Item = &Transaction> + '_ {
        self.txns.iter().filter(|t| t.is_committed())
    }

    /// Iterator over ids of committed transactions (includes `⊥T`).
    pub fn committed_ids(&self) -> impl Iterator<Item = TxnId> + '_ {
        self.txns.iter().filter(|t| t.is_committed()).map(|t| t.id)
    }

    /// Number of committed transactions, including `⊥T` if present.
    pub fn committed_count(&self) -> usize {
        self.txns.iter().filter(|t| t.is_committed()).count()
    }

    /// Number of aborted transactions.
    pub fn aborted_count(&self) -> usize {
        self.txns
            .iter()
            .filter(|t| t.status == TxnStatus::Aborted)
            .count()
    }

    /// Number of sessions (not counting the pseudo-session of `⊥T`).
    #[inline]
    pub fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Transaction ids of one session, in issue order.
    #[inline]
    pub fn session(&self, s: SessionId) -> &[TxnId] {
        &self.sessions[s.index()]
    }

    /// All sessions, indexed by [`SessionId`].
    #[inline]
    pub fn sessions(&self) -> &[Vec<TxnId>] {
        &self.sessions
    }

    /// The set of all keys touched by any transaction, sorted.
    pub fn keys(&self) -> Vec<Key> {
        let set: BTreeSet<Key> = self
            .txns
            .iter()
            .flat_map(|t| t.ops.iter().map(|o| o.key()))
            .collect();
        set.into_iter().collect()
    }

    /// Total number of operations across all transactions.
    pub fn op_count(&self) -> usize {
        self.txns.iter().map(|t| t.len()).sum()
    }

    /// True iff `a` precedes `b` in the session order.
    pub fn session_order(&self, a: TxnId, b: TxnId) -> bool {
        if a == b {
            return false;
        }
        if self.has_init {
            if a == TxnId(0) {
                return true;
            }
            if b == TxnId(0) {
                return false;
            }
        }
        let (ta, tb) = (self.txn(a), self.txn(b));
        if ta.session != tb.session {
            return false;
        }
        let order = self.session(ta.session);
        let pa = order.iter().position(|&t| t == a);
        let pb = order.iter().position(|&t| t == b);
        matches!((pa, pb), (Some(pa), Some(pb)) if pa < pb)
    }

    /// True iff `a` precedes `b` in the real-time order (`SO` union
    /// wall-clock precedence).
    pub fn real_time_order(&self, a: TxnId, b: TxnId) -> bool {
        if self.session_order(a, b) {
            return true;
        }
        self.txn(a).precedes_in_real_time(self.txn(b))
    }

    /// The session-order pairs `(pred, succ)` that generate `SO` over the
    /// committed transactions: each committed transaction of a session with
    /// the previous *committed* one of that session, or with `⊥T` when there
    /// is none before it. Aborted (and unknown-outcome) attempts are skipped,
    /// not cut at: a retry does not detach what follows it from what came
    /// before.
    ///
    /// The full `SO` relation is the transitive closure of these edges; the
    /// adjacent pairs suffice for acyclicity checking (Section IV-D).
    pub fn session_order_edges(&self) -> Vec<(TxnId, TxnId)> {
        let mut edges = Vec::new();
        for sess in &self.sessions {
            let mut prev = self.init_txn();
            for &t in sess.iter().filter(|&&t| self.txn(t).is_committed()) {
                edges.extend(prev.map(|p| (p, t)));
                prev = Some(t);
            }
        }
        edges
    }

    /// Map from `(key, value)` to the transactions whose *last* write on
    /// `key` installed `value`. With the unique-value convention every entry
    /// has exactly one writer; the `Vec` accommodates malformed histories.
    ///
    /// This is the reference definition, kept for the oracles (the baselines
    /// and the [`WriteIndex`] tests); the checkers read [`WriteIndex`].
    pub fn write_index(&self) -> HashMap<(Key, Value), Vec<TxnId>> {
        let mut index: HashMap<(Key, Value), Vec<TxnId>> = HashMap::new();
        for t in self.committed() {
            for (key, v, is_final) in t.writes_with_finality() {
                if is_final {
                    index.entry((key, v)).or_default().push(t.id);
                }
            }
        }
        index
    }

    /// The committed transactions that write to `key` (the set `WriteTxₓ`).
    pub fn writers_of(&self, key: Key) -> Vec<TxnId> {
        self.committed()
            .filter(|t| t.writes(key))
            .map(|t| t.id)
            .collect()
    }

    /// True iff every committed write in the history installs a unique value
    /// per object (the unique-value convention of Section II-A).
    pub fn has_unique_values(&self) -> bool {
        WriteIndex::new(self).duplicate().is_none()
    }

    /// Restricts the history to committed transactions whose ids satisfy
    /// `keep`, renumbering ids densely. Session structure is preserved.
    /// `⊥T` is always kept if present.
    pub fn filter_committed(&self) -> History {
        let mut builder = HistoryBuilder::new();
        if self.has_init {
            let init_keys: Vec<Key> = self.txn(TxnId(0)).write_set();
            builder = builder.with_init_keys(init_keys);
        }
        // Map old session ids to builder sessions implicitly: sessions keep
        // their indices, we simply skip aborted transactions.
        for (sid, sess) in self.sessions.iter().enumerate() {
            for &tid in sess {
                let t = self.txn(tid);
                if t.is_committed() {
                    let mut new_t = t.clone();
                    new_t.session = SessionId(sid as u32);
                    builder.push_cloned(new_t);
                }
            }
        }
        builder.build()
    }
}

/// Incremental construction of a [`History`].
///
/// ```
/// use mtc_history::{HistoryBuilder, Op};
///
/// let mut b = HistoryBuilder::new().with_init_keys([0u64, 1u64]);
/// let t1 = b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 10u64)]);
/// let t2 = b.committed(1, vec![Op::read(0u64, 10u64)]);
/// let h = b.build();
/// assert!(h.has_init());
/// assert_eq!(h.len(), 3); // ⊥T + two transactions
/// assert!(h.session_order(h.init_txn().unwrap(), t1));
/// assert!(!h.session_order(t1, t2)); // different sessions
/// ```
#[derive(Clone, Debug, Default)]
pub struct HistoryBuilder {
    txns: Vec<Transaction>,
    sessions: Vec<Vec<TxnId>>,
    init_keys: Option<Vec<Key>>,
}

impl HistoryBuilder {
    /// A builder for a history without an initial transaction.
    pub fn new() -> Self {
        HistoryBuilder::default()
    }

    /// Adds an initial transaction `⊥T` writing [`INIT_VALUE`] to `keys`.
    pub fn with_init_keys<K: Into<Key>, I: IntoIterator<Item = K>>(mut self, keys: I) -> Self {
        self.init_keys = Some(keys.into_iter().map(Into::into).collect());
        self
    }

    /// Adds an initial transaction `⊥T` writing [`INIT_VALUE`] to keys
    /// `0..num_keys`.
    pub fn with_init(self, num_keys: u64) -> Self {
        self.with_init_keys(0..num_keys)
    }

    fn ensure_session(&mut self, s: SessionId) {
        while self.sessions.len() <= s.index() {
            self.sessions.push(Vec::new());
        }
    }

    /// Ensures at least `n` sessions exist, even if some record no
    /// transactions. Needed to round-trip histories whose trailing sessions
    /// went silent (e.g. every attempt aborted and aborts were not
    /// recorded): the session *slots* are part of the history.
    pub fn ensure_sessions(&mut self, n: usize) {
        if n > 0 {
            self.ensure_session(SessionId(n as u32 - 1));
        }
    }

    fn next_id(&self) -> TxnId {
        // Id 0 is reserved for ⊥T when an init transaction was requested.
        let offset = usize::from(self.init_keys.is_some());
        TxnId((self.txns.len() + offset) as u32)
    }

    /// Appends a transaction with explicit status and returns its id.
    pub fn push(&mut self, session: u32, ops: Vec<Op>, status: TxnStatus) -> TxnId {
        let id = self.next_id();
        let session = SessionId(session);
        self.ensure_session(session);
        let txn = Transaction {
            id,
            session,
            ops,
            status,
            begin: None,
            end: None,
        };
        self.sessions[session.index()].push(id);
        self.txns.push(txn);
        id
    }

    /// Appends a committed transaction and returns its id.
    pub fn committed(&mut self, session: u32, ops: Vec<Op>) -> TxnId {
        self.push(session, ops, TxnStatus::Committed)
    }

    /// Appends an aborted transaction and returns its id.
    pub fn aborted(&mut self, session: u32, ops: Vec<Op>) -> TxnId {
        self.push(session, ops, TxnStatus::Aborted)
    }

    /// Appends a committed transaction with wall-clock begin/end instants.
    pub fn committed_timed(&mut self, session: u32, ops: Vec<Op>, begin: u64, end: u64) -> TxnId {
        self.push_timed(session, ops, TxnStatus::Committed, begin, end)
    }

    /// Appends a transaction with explicit status and wall-clock begin/end
    /// instants, returning its id.
    pub fn push_timed(
        &mut self,
        session: u32,
        ops: Vec<Op>,
        status: TxnStatus,
        begin: u64,
        end: u64,
    ) -> TxnId {
        let id = self.push(session, ops, status);
        let t = self.txns.last_mut().expect("just pushed");
        t.begin = Some(begin);
        t.end = Some(end);
        id
    }

    /// Appends an already-constructed transaction, renumbering its id and
    /// registering it under its session. Used when re-assembling histories.
    pub fn push_cloned(&mut self, mut txn: Transaction) -> TxnId {
        let id = self.next_id();
        txn.id = id;
        self.ensure_session(txn.session);
        self.sessions[txn.session.index()].push(id);
        self.txns.push(txn);
        id
    }

    /// Finalizes the history.
    pub fn build(self) -> History {
        let HistoryBuilder {
            mut txns,
            sessions,
            init_keys,
        } = self;
        let has_init = init_keys.is_some();
        if let Some(keys) = init_keys {
            let init_ops = keys
                .into_iter()
                .map(|k| Op::Write {
                    key: k,
                    value: INIT_VALUE,
                })
                .collect();
            let init = Transaction {
                id: TxnId(0),
                session: SessionId::INIT,
                ops: init_ops,
                status: TxnStatus::Committed,
                begin: Some(0),
                end: Some(0),
            };
            txns.insert(0, init);
        }
        History {
            txns,
            sessions,
            has_init,
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// The quadratic definition of [`History::write_index`]: one
    /// `last_write` scan per written key.
    pub(crate) fn write_index_reference(h: &History) -> HashMap<(Key, Value), Vec<TxnId>> {
        let mut index: HashMap<(Key, Value), Vec<TxnId>> = HashMap::new();
        for t in h.committed() {
            for key in t.write_set() {
                if let Some(v) = t.last_write(key) {
                    index.entry((key, v)).or_default().push(t.id);
                }
            }
        }
        index
    }

    fn sample() -> History {
        let mut b = HistoryBuilder::new().with_init(2);
        // session 0: T1, T2 ; session 1: T3 (aborted), T4
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 10u64)]);
        b.committed(0, vec![Op::read(0u64, 10u64), Op::write(0u64, 11u64)]);
        b.aborted(1, vec![Op::read(1u64, 0u64), Op::write(1u64, 99u64)]);
        b.committed(1, vec![Op::read(1u64, 0u64), Op::write(1u64, 20u64)]);
        b.build()
    }

    #[test]
    fn init_transaction_is_id_zero_and_writes_all_keys() {
        let h = sample();
        assert!(h.has_init());
        let init = h.txn(TxnId(0));
        assert_eq!(init.session, SessionId::INIT);
        assert_eq!(init.write_set(), vec![Key(0), Key(1)]);
        assert!(init.ops.iter().all(|o| o.value() == INIT_VALUE));
    }

    #[test]
    fn counts() {
        let h = sample();
        assert_eq!(h.len(), 5);
        assert_eq!(h.committed_count(), 4); // ⊥T + 3 committed
        assert_eq!(h.aborted_count(), 1);
        assert_eq!(h.session_count(), 2);
        assert_eq!(h.op_count(), 2 + 2 * 4);
        assert_eq!(h.keys(), vec![Key(0), Key(1)]);
    }

    #[test]
    fn session_order_within_and_across_sessions() {
        let h = sample();
        let (t1, t2, t4) = (TxnId(1), TxnId(2), TxnId(4));
        assert!(h.session_order(t1, t2));
        assert!(!h.session_order(t2, t1));
        assert!(!h.session_order(t1, t4)); // different session
        assert!(h.session_order(TxnId(0), t4)); // ⊥T precedes everything
        assert!(!h.session_order(t4, TxnId(0)));
        assert!(!h.session_order(t1, t1));
    }

    #[test]
    fn session_order_edges_are_adjacent_pairs_plus_init() {
        // Adjacent among the *committed* transactions: session 1's first
        // attempt T3 aborted, so ⊥T → T4, and nothing touches T3.
        let h = sample();
        let edges = h.session_order_edges();
        let (init, t1, t2, t4) = (TxnId(0), TxnId(1), TxnId(2), TxnId(4));
        assert_eq!(edges, vec![(init, t1), (t1, t2), (init, t4)]);

        // An aborted attempt between two committed transactions is skipped,
        // with or without ⊥T; an unknown outcome counts as not committed.
        let mut b = HistoryBuilder::new();
        let a = b.committed(0, vec![Op::write(0u64, 1u64)]);
        b.aborted(0, vec![Op::write(0u64, 2u64)]);
        b.push(0, vec![Op::write(0u64, 3u64)], TxnStatus::Unknown);
        let c = b.committed(0, vec![Op::read(0u64, 1u64)]);
        b.aborted(0, vec![Op::write(0u64, 4u64)]);
        assert_eq!(b.build().session_order_edges(), vec![(a, c)]);
    }

    #[test]
    fn real_time_order_uses_timestamps() {
        let mut b = HistoryBuilder::new();
        let a = b.committed_timed(0, vec![Op::write(0u64, 1u64)], 10, 20);
        let c = b.committed_timed(1, vec![Op::write(0u64, 2u64)], 30, 40);
        let d = b.committed_timed(2, vec![Op::write(0u64, 3u64)], 15, 35);
        let h = b.build();
        assert!(h.real_time_order(a, c));
        assert!(!h.real_time_order(c, a));
        assert!(!h.real_time_order(a, d)); // overlapping
        assert!(!h.real_time_order(d, c)); // overlapping
    }

    #[test]
    fn write_index_maps_values_to_writers() {
        let h = sample();
        let idx = h.write_index();
        assert_eq!(idx[&(Key(0), Value(10))], vec![TxnId(1)]);
        assert_eq!(idx[&(Key(0), Value(11))], vec![TxnId(2)]);
        assert_eq!(idx[&(Key(1), Value(20))], vec![TxnId(4)]);
        // The aborted write is not in the committed index.
        assert!(!idx.contains_key(&(Key(1), Value(99))));
    }

    #[test]
    fn writers_of_excludes_aborted() {
        let h = sample();
        assert_eq!(h.writers_of(Key(1)), vec![TxnId(0), TxnId(4)]);
    }

    #[test]
    fn unique_values_detection() {
        let h = sample();
        assert!(h.has_unique_values());

        let mut b = HistoryBuilder::new();
        b.committed(0, vec![Op::write(0u64, 5u64)]);
        b.committed(1, vec![Op::write(0u64, 5u64)]);
        let dup = b.build();
        assert!(!dup.has_unique_values());
    }

    #[test]
    fn filter_committed_drops_aborted_transactions() {
        let h = sample();
        let f = h.filter_committed();
        assert_eq!(f.aborted_count(), 0);
        assert_eq!(f.committed_count(), 4);
        assert!(f.has_init());
        // Session 1 now has a single transaction.
        assert_eq!(f.session(SessionId(1)).len(), 1);
    }

    #[test]
    fn history_without_init() {
        let mut b = HistoryBuilder::new();
        let t = b.committed(0, vec![Op::write(0u64, 1u64)]);
        let h = b.build();
        assert!(!h.has_init());
        assert_eq!(h.init_txn(), None);
        assert_eq!(t, TxnId(0));
    }
}
