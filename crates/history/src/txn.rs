//! Transactions (Definition 1 of the paper).
//!
//! A transaction is a sequence of operations in program order, issued by a
//! session, with a commit status and optional wall-clock begin/finish
//! instants (needed for the real-time order of strict serializability).

use crate::fasthash::FastHashSet;
use crate::op::{Instant, Op};
use crate::session::SessionId;
use crate::value::{Key, Value};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Operations in a mini-transaction at most (Definition 8): up to this
/// width, a per-key question is answered by scanning the few operations
/// around, allocation-free; past it, by one set of the transaction.
pub(crate) const MT_WIDTH: usize = 4;

/// Index of a transaction within a [`crate::History`].
///
/// Transaction `TxnId(0)` is conventionally the initial transaction `⊥T`
/// when the history contains one (see [`crate::HistoryBuilder`]).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default)]
pub struct TxnId(pub u32);

impl TxnId {
    /// The id as a usable index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Outcome of a transaction as observed by the client.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Debug)]
pub enum TxnStatus {
    /// The database acknowledged the commit.
    Committed,
    /// The database reported an abort (or the client rolled back).
    Aborted,
    /// The commit outcome is unknown (e.g. client timeout). Checkers treat
    /// these conservatively: their writes may or may not be visible.
    Unknown,
}

/// A transaction: a list of operations in program order plus metadata.
#[derive(Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Transaction {
    /// Identifier of this transaction within its history.
    pub id: TxnId,
    /// Session (client) that issued the transaction.
    pub session: SessionId,
    /// Operations in program order.
    pub ops: Vec<Op>,
    /// Commit status.
    pub status: TxnStatus,
    /// Wall-clock instant at which the transaction began, if known.
    pub begin: Option<Instant>,
    /// Wall-clock instant at which the transaction finished (commit
    /// acknowledgement), if known.
    pub end: Option<Instant>,
}

impl Transaction {
    /// Creates a committed transaction with no timing information.
    pub fn committed(id: TxnId, session: SessionId, ops: Vec<Op>) -> Self {
        Transaction {
            id,
            session,
            ops,
            status: TxnStatus::Committed,
            begin: None,
            end: None,
        }
    }

    /// Creates an aborted transaction with no timing information.
    pub fn aborted(id: TxnId, session: SessionId, ops: Vec<Op>) -> Self {
        Transaction {
            id,
            session,
            ops,
            status: TxnStatus::Aborted,
            begin: None,
            end: None,
        }
    }

    /// Attaches begin/end instants (builder style).
    pub fn with_times(mut self, begin: Instant, end: Instant) -> Self {
        self.begin = Some(begin);
        self.end = Some(end);
        self
    }

    /// True iff the transaction committed.
    #[inline]
    pub fn is_committed(&self) -> bool {
        self.status == TxnStatus::Committed
    }

    /// Number of operations.
    #[inline]
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True iff the transaction has no operations.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// `T ⊢ W(x, v)`: the *last* value this transaction writes to `x`,
    /// if it writes to `x` at all.
    pub fn last_write(&self, key: Key) -> Option<Value> {
        self.ops.iter().rev().find_map(|op| match *op {
            Op::Write { key: k, value } if k == key => Some(value),
            _ => None,
        })
    }

    /// `T ⊢ R(x, v)`: the value of the *first read of `x` that precedes any
    /// write of `x`* in this transaction — the transaction's *external* read
    /// of `x`. Reads that follow an own write observe internal state and do
    /// not create inter-transaction dependencies.
    pub fn external_read(&self, key: Key) -> Option<Value> {
        for op in &self.ops {
            match *op {
                Op::Write { key: k, .. } if k == key => return None,
                Op::Read { key: k, value } if k == key => return Some(value),
                _ => {}
            }
        }
        None
    }

    /// True iff this transaction writes to `key`.
    pub fn writes(&self, key: Key) -> bool {
        self.ops.iter().any(|op| op.is_write() && op.key() == key)
    }

    /// All keys written by the transaction, in first-write order, without
    /// duplicates.
    pub fn write_set(&self) -> Vec<Key> {
        self.first_picks(Op::is_write, |_| true)
    }

    /// All keys read externally by the transaction (first-read order, no
    /// duplicates).
    pub fn external_read_set(&self) -> Vec<Key> {
        self.first_picks(|_| true, Op::is_read)
    }

    /// All keys touched by the transaction (no duplicates, program order of
    /// first touch).
    pub fn key_set(&self) -> Vec<Key> {
        self.first_picks(|_| true, |_| true)
    }

    /// The key of each operation `pick` selects, once, in program order of
    /// the first selected operation on it — and kept only where `keep` holds
    /// for that first operation.
    ///
    /// A mini-transaction looks back over the few operations before; a wider
    /// one (the `⊥T` over the whole key space) asks one set, so the cost is
    /// linear in the width either way.
    fn first_picks(&self, pick: fn(&Op) -> bool, keep: fn(&Op) -> bool) -> Vec<Key> {
        let mut seen = (self.ops.len() > MT_WIDTH)
            .then(|| FastHashSet::with_capacity_and_hasher(self.ops.len(), Default::default()));
        let mut keys = Vec::new();
        for (i, op) in self.ops.iter().enumerate().filter(|(_, op)| pick(op)) {
            let first = match &mut seen {
                Some(seen) => seen.insert(op.key()),
                None => !self.ops[..i].iter().any(|o| pick(o) && o.key() == op.key()),
            };
            if first && keep(op) {
                keys.push(op.key());
            }
        }
        keys
    }

    /// Every write as `(key, value, is_final)` in program order, where
    /// `is_final` says the write is the transaction's last of its key — the
    /// one it installs. A mini-transaction looks ahead over the few
    /// operations after each write; a wider one first walks its operations
    /// backwards once through a set of the keys written after.
    pub(crate) fn writes_with_finality(&self) -> impl Iterator<Item = (Key, Value, bool)> + '_ {
        let overwritten: Option<Vec<bool>> = (self.ops.len() > MT_WIDTH).then(|| {
            let mut later =
                FastHashSet::with_capacity_and_hasher(self.ops.len(), Default::default());
            let mut overwritten = vec![false; self.ops.len()];
            for (i, op) in self
                .ops
                .iter()
                .enumerate()
                .rev()
                .filter(|(_, op)| op.is_write())
            {
                overwritten[i] = !later.insert(op.key());
            }
            overwritten
        });
        self.ops.iter().enumerate().filter_map(move |(i, op)| {
            let Op::Write { key, value } = *op else {
                return None;
            };
            let overwritten = match &overwritten {
                Some(overwritten) => overwritten[i],
                None => {
                    (self.ops[i + 1..].iter()).any(|later| later.is_write() && later.key() == key)
                }
            };
            Some((key, value, !overwritten))
        })
    }

    /// Number of read operations.
    pub fn read_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_read()).count()
    }

    /// Number of write operations.
    pub fn write_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_write()).count()
    }

    /// True iff `self` finishes before `other` begins according to the
    /// recorded wall-clock instants. Returns `false` when timing is unknown.
    pub fn precedes_in_real_time(&self, other: &Transaction) -> bool {
        match (self.end, other.begin) {
            (Some(end), Some(begin)) => end < begin,
            _ => false,
        }
    }
}

impl fmt::Debug for Transaction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}[s{}", self.id, self.session.0)?;
        if self.status != TxnStatus::Committed {
            write!(f, ",{:?}", self.status)?;
        }
        write!(f, "]{{")?;
        for (i, op) in self.ops.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{op:?}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use proptest::prelude::*;

    fn txn(ops: Vec<Op>) -> Transaction {
        Transaction::committed(TxnId(1), SessionId(0), ops)
    }

    /// The quadratic definitions the linear accessors are held to: one
    /// `Vec::contains` (and, for the external reads, one `external_read`)
    /// per operation.
    pub(crate) mod reference {
        use super::*;

        pub(crate) fn write_set(t: &Transaction) -> Vec<Key> {
            let mut keys = Vec::new();
            for op in &t.ops {
                if op.is_write() && !keys.contains(&op.key()) {
                    keys.push(op.key());
                }
            }
            keys
        }

        pub(crate) fn external_read_set(t: &Transaction) -> Vec<Key> {
            let mut keys = Vec::new();
            for op in &t.ops {
                if op.is_read() && !keys.contains(&op.key()) && t.external_read(op.key()).is_some()
                {
                    keys.push(op.key());
                }
            }
            keys
        }

        pub(crate) fn key_set(t: &Transaction) -> Vec<Key> {
            let mut keys = Vec::new();
            for op in &t.ops {
                if !keys.contains(&op.key()) {
                    keys.push(op.key());
                }
            }
            keys
        }
    }

    /// Key `k` spread over the `u64` range: distinct for distinct `k`, and
    /// far from a dense `0..n` key space.
    pub(crate) fn sparse(k: u64) -> u64 {
        k.wrapping_mul(0x9E37_79B9_7F4A_7C15)
    }

    /// Operations from `(write, key, value)` triples, the keys spread by
    /// [`sparse`] when `sparse` is set.
    pub(crate) fn ops_of(triples: Vec<(bool, u64, u64)>, sparse: bool) -> Vec<Op> {
        let spread = |k: u64| if sparse { self::sparse(k) } else { k };
        (triples.into_iter())
            .map(|(write, k, v)| {
                if write {
                    Op::write(spread(k), v)
                } else {
                    Op::read(spread(k), v)
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The linear accessors return what the quadratic ones did, order
        /// included, on both sides of the mini-transaction width; and a
        /// write is final exactly where `last_write` says its value is the
        /// key's.
        #[test]
        fn the_linear_accessors_are_the_quadratic_ones(
            triples in prop::collection::vec((any::<bool>(), 0u64..24, 0u64..4), 0..81),
            sparse in any::<bool>(),
        ) {
            let t = txn(ops_of(triples, sparse));
            prop_assert_eq!(t.write_set(), reference::write_set(&t));
            prop_assert_eq!(t.external_read_set(), reference::external_read_set(&t));
            prop_assert_eq!(t.key_set(), reference::key_set(&t));
            let writes: Vec<(Key, Value, bool)> = t.writes_with_finality().collect();
            prop_assert_eq!(writes.len(), t.write_count());
            let mut finals = 0;
            for (i, &(key, value, is_final)) in writes.iter().enumerate() {
                let later = writes[i + 1..].iter().any(|&(k, ..)| k == key);
                prop_assert_eq!(is_final, !later);
                if is_final {
                    finals += 1;
                    prop_assert_eq!(t.last_write(key), Some(value));
                }
            }
            prop_assert_eq!(finals, t.write_set().len());
        }
    }

    #[test]
    fn last_write_picks_the_final_write() {
        let t = txn(vec![
            Op::write(1u64, 10u64),
            Op::write(1u64, 20u64),
            Op::write(2u64, 30u64),
        ]);
        assert_eq!(t.last_write(Key(1)), Some(Value(20)));
        assert_eq!(t.last_write(Key(2)), Some(Value(30)));
        assert_eq!(t.last_write(Key(3)), None);
    }

    #[test]
    fn external_read_stops_at_own_write() {
        // R(x,5) W(x,6) R(x,6): the external read of x is 5.
        let t = txn(vec![
            Op::read(1u64, 5u64),
            Op::write(1u64, 6u64),
            Op::read(1u64, 6u64),
        ]);
        assert_eq!(t.external_read(Key(1)), Some(Value(5)));

        // W(x,6) R(x,6): no external read (the first access is a write).
        let t = txn(vec![Op::write(1u64, 6u64), Op::read(1u64, 6u64)]);
        assert_eq!(t.external_read(Key(1)), None);
    }

    #[test]
    fn read_write_sets() {
        let t = txn(vec![
            Op::read(1u64, 0u64),
            Op::read(2u64, 0u64),
            Op::write(1u64, 7u64),
            Op::write(1u64, 8u64),
        ]);
        assert_eq!(t.write_set(), vec![Key(1)]);
        assert_eq!(t.external_read_set(), vec![Key(1), Key(2)]);
        assert_eq!(t.key_set(), vec![Key(1), Key(2)]);
        assert_eq!(t.read_count(), 2);
        assert_eq!(t.write_count(), 2);
    }

    #[test]
    fn real_time_precedence_requires_timestamps() {
        let a = txn(vec![]).with_times(0, 5);
        let b = txn(vec![]).with_times(6, 9);
        let c = txn(vec![]); // no timing
        assert!(a.precedes_in_real_time(&b));
        assert!(!b.precedes_in_real_time(&a));
        assert!(!a.precedes_in_real_time(&c));
        assert!(!c.precedes_in_real_time(&b));
    }

    #[test]
    fn overlap_is_not_real_time_precedence() {
        let a = txn(vec![]).with_times(0, 5);
        let b = txn(vec![]).with_times(5, 9);
        assert!(!a.precedes_in_real_time(&b));
    }

    #[test]
    fn debug_rendering() {
        let t = txn(vec![Op::read(1u64, 2u64), Op::write(1u64, 3u64)]);
        assert_eq!(format!("{t:?}"), "T1[s0]{R(1,2), W(1,3)}");
    }
}
