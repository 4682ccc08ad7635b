//! The DIVERGENCE pattern (Definition 10 of the paper).
//!
//! A history contains a DIVERGENCE when two transactions read *the same
//! value* of an object from a third transaction and then both write
//! (different, by the unique-value convention) values to that object. As
//! proved in Lemma 1 and illustrated in Figure 3, any such pattern refutes
//! snapshot isolation regardless of how the write-write order is chosen —
//! which is why `CHECKSI` looks for it before any graph construction.

use crate::verdict::Violation;
use mtc_history::{FastHashMap, History, Key, Transaction, TxnId, Value, WriteIndex};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::Entry;

/// A concrete DIVERGENCE occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Divergence {
    /// Object concerned.
    pub key: Key,
    /// The value both readers observed.
    pub value: Value,
    /// The transaction that wrote `value` (None when the value is the
    /// initial value of a history without `⊥T`).
    pub writer: Option<TxnId>,
    /// First reader-then-writer.
    pub reader1: TxnId,
    /// Second reader-then-writer.
    pub reader2: TxnId,
}

impl Divergence {
    /// Converts the pattern into a [`Violation`].
    pub fn into_violation(self) -> Violation {
        Violation::Divergence {
            key: self.key,
            value: self.value,
            writer: self.writer,
            reader1: self.reader1,
            reader2: self.reader2,
        }
    }
}

/// The `(key, value)` pairs a transaction reads externally and then
/// overwrites, in first-write order: what DIVERGENCE buckets readers by.
fn overwritten_reads(txn: &Transaction) -> impl Iterator<Item = (Key, Value)> + '_ {
    txn.ops.iter().enumerate().filter_map(move |(i, op)| {
        let key = op.key();
        let rewrite = txn.ops[..i].iter().any(|w| w.is_write() && w.key() == key);
        if op.is_read() || rewrite {
            return None;
        }
        txn.external_read(key).map(|value| (key, value))
    })
}

/// Scans a history for the DIVERGENCE pattern.
///
/// Runs in `O(total number of operations)`: committed transactions are
/// bucketed by the `(key, value)` they read externally and also write.
pub fn find_divergence(history: &History) -> Option<Divergence> {
    find_divergence_with(history, &WriteIndex::new(history))
}

/// [`find_divergence`] over an index of `history` the caller already has.
pub(crate) fn find_divergence_with(history: &History, index: &WriteIndex) -> Option<Divergence> {
    // (key, value read) -> first transaction seen that read it and writes
    // key; sized once, for about one overwritten read per transaction.
    let mut first_reader_writer: FastHashMap<(Key, Value), TxnId> =
        FastHashMap::with_capacity_and_hasher(history.len(), Default::default());

    for txn in history.committed() {
        if Some(txn.id) == history.init_txn() {
            continue;
        }
        for (key, value) in overwritten_reads(txn) {
            match first_reader_writer.entry((key, value)) {
                Entry::Vacant(first) => {
                    first.insert(txn.id);
                }
                Entry::Occupied(first) if *first.get() != txn.id => {
                    return Some(Divergence {
                        key,
                        value,
                        writer: index.final_writer(key, value),
                        reader1: *first.get(),
                        reader2: txn.id,
                    });
                }
                Entry::Occupied(_) => {}
            }
        }
    }
    None
}

/// Finds *all* DIVERGENCE occurrences (one per `(key, value)` group with two
/// or more diverging readers). Useful for reporting and for the workload
/// effectiveness experiments that count distinct anomalies.
pub fn find_all_divergences(history: &History) -> Vec<Divergence> {
    let index = WriteIndex::new(history);
    let mut groups: FastHashMap<(Key, Value), Vec<TxnId>> = FastHashMap::default();
    for txn in history.committed() {
        if Some(txn.id) == history.init_txn() {
            continue;
        }
        for read in overwritten_reads(txn) {
            groups.entry(read).or_default().push(txn.id);
        }
    }
    let mut out: Vec<Divergence> = groups
        .into_iter()
        .filter(|(_, readers)| readers.len() >= 2)
        .map(|((key, value), readers)| Divergence {
            key,
            value,
            writer: index.final_writer(key, value),
            reader1: readers[0],
            reader2: readers[1],
        })
        .collect();
    out.sort_by_key(|d| (d.key, d.value));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::anomalies;
    use mtc_history::{HistoryBuilder, Op};

    #[test]
    fn figure3_divergence_is_found() {
        let h = anomalies::divergence();
        let d = find_divergence(&h).expect("divergence must be found");
        assert_eq!(d.key, Key(0));
        assert_eq!(d.value, Value(1));
        assert_ne!(d.reader1, d.reader2);
        assert_eq!(d.writer, Some(TxnId(1)));
    }

    #[test]
    fn lost_update_is_a_divergence() {
        let h = anomalies::lost_update();
        assert!(find_divergence(&h).is_some());
    }

    #[test]
    fn write_skew_is_not_a_divergence() {
        let h = anomalies::write_skew();
        assert!(find_divergence(&h).is_none());
    }

    #[test]
    fn long_fork_is_not_a_divergence() {
        let h = anomalies::long_fork();
        assert!(find_divergence(&h).is_none());
    }

    #[test]
    fn serial_updates_are_not_divergent() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        b.committed(0, vec![Op::read(0u64, 2u64), Op::write(0u64, 3u64)]);
        let h = b.build();
        assert!(find_divergence(&h).is_none());
        assert!(find_all_divergences(&h).is_empty());
    }

    #[test]
    fn readers_that_do_not_write_are_ignored() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        // Two pure readers of the same value: fine under SI.
        b.committed(1, vec![Op::read(0u64, 1u64)]);
        b.committed(2, vec![Op::read(0u64, 1u64)]);
        let h = b.build();
        assert!(find_divergence(&h).is_none());
    }

    #[test]
    fn divergence_on_the_initial_value() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 2u64)]);
        let h = b.build();
        let d = find_divergence(&h).unwrap();
        assert_eq!(d.writer, Some(h.init_txn().unwrap()));
    }

    #[test]
    fn aborted_transactions_do_not_cause_divergence() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.aborted(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 2u64)]);
        let h = b.build();
        assert!(find_divergence(&h).is_none());
    }

    #[test]
    fn all_divergences_reports_each_group_once() {
        let mut b = HistoryBuilder::new().with_init(2);
        // divergence on key 0 ...
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 2u64)]);
        // ... and on key 1
        b.committed(2, vec![Op::read(1u64, 0u64), Op::write(1u64, 3u64)]);
        b.committed(3, vec![Op::read(1u64, 0u64), Op::write(1u64, 4u64)]);
        let h = b.build();
        let all = find_all_divergences(&h);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].key, Key(0));
        assert_eq!(all[1].key, Key(1));
    }
}
