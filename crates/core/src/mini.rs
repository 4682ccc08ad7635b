//! Mini-transaction validation (Definitions 8 and 9 of the paper).
//!
//! A *mini-transaction* contains one or two read operations and at most two
//! write operations, and every write is (not necessarily immediately)
//! preceded by a read of the same object. A *mini-transaction history*
//! consists solely of mini-transactions (besides the initial transaction
//! `⊥T`) in which every committed write installs a unique value per object.
//!
//! The verifiers of [`mod@crate::check`] call [`validate_history`] before doing
//! any graph work: the linear-time guarantees only hold on valid MT
//! histories.

use mtc_history::{History, Key, Op, Transaction, TxnId, Value, WriteIndex};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Maximum number of read operations in a mini-transaction.
pub const MAX_READS: usize = 2;
/// Maximum number of write operations in a mini-transaction.
pub const MAX_WRITES: usize = 2;
/// Maximum number of operations in a mini-transaction.
pub const MAX_OPS: usize = 4;

/// Ways a transaction or history can fail to be a mini-transaction (history).
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum MtViolation {
    /// The transaction has no read operation.
    NoRead {
        /// Offending transaction.
        txn: TxnId,
    },
    /// The transaction has more than [`MAX_READS`] reads.
    TooManyReads {
        /// Offending transaction.
        txn: TxnId,
        /// Number of reads found.
        reads: usize,
    },
    /// The transaction has more than [`MAX_WRITES`] writes.
    TooManyWrites {
        /// Offending transaction.
        txn: TxnId,
        /// Number of writes found.
        writes: usize,
    },
    /// A write is not preceded by a read of the same object (the RMW pattern
    /// is broken).
    WriteWithoutRead {
        /// Offending transaction.
        txn: TxnId,
        /// Key written blindly.
        key: Key,
    },
    /// Two committed transactions wrote the same value to the same key.
    DuplicateValue {
        /// Offending key.
        key: Key,
        /// The duplicated value.
        value: Value,
        /// First writer.
        first: TxnId,
        /// Second writer.
        second: TxnId,
    },
}

impl fmt::Display for MtViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MtViolation::NoRead { txn } => write!(f, "{txn} contains no read operation"),
            MtViolation::TooManyReads { txn, reads } => {
                write!(f, "{txn} contains {reads} reads (max {MAX_READS})")
            }
            MtViolation::TooManyWrites { txn, writes } => {
                write!(f, "{txn} contains {writes} writes (max {MAX_WRITES})")
            }
            MtViolation::WriteWithoutRead { txn, key } => {
                write!(f, "{txn} writes key {key} without reading it first")
            }
            MtViolation::DuplicateValue {
                key,
                value,
                first,
                second,
            } => write!(
                f,
                "value {value} written to key {key} by both {first} and {second}"
            ),
        }
    }
}

impl std::error::Error for MtViolation {}

/// Checks that a single transaction is a mini-transaction (Definition 8).
pub fn validate_transaction(txn: &Transaction) -> Result<(), MtViolation> {
    validate_shape(txn.id, &txn.ops)
}

/// [`validate_transaction`] for the operations of transaction `txn`: the
/// streaming engine numbers a transaction itself, whatever id it carries.
pub(crate) fn validate_shape(txn: TxnId, ops: &[Op]) -> Result<(), MtViolation> {
    let reads = ops.iter().filter(|o| o.is_read()).count();
    let writes = ops.len() - reads;
    if reads == 0 {
        return Err(MtViolation::NoRead { txn });
    }
    if reads > MAX_READS {
        return Err(MtViolation::TooManyReads { txn, reads });
    }
    if writes > MAX_WRITES {
        return Err(MtViolation::TooManyWrites { txn, writes });
    }
    // RMW pattern: the first write of each key must be preceded by a read of
    // that key.
    for (i, op) in ops.iter().enumerate() {
        if op.is_write() {
            let key = op.key();
            let read_before = ops[..i].iter().any(|o| o.is_read() && o.key() == key);
            if !read_before {
                return Err(MtViolation::WriteWithoutRead { txn, key });
            }
        }
    }
    Ok(())
}

/// True iff the transaction is a mini-transaction.
pub fn is_mini_transaction(txn: &Transaction) -> bool {
    validate_transaction(txn).is_ok()
}

/// Checks that `history` is a mini-transaction history (Definition 9):
/// every transaction except `⊥T` is a mini-transaction, and committed writes
/// install unique values per object.
///
/// Aborted transactions are validated for shape as well (they were issued as
/// mini-transactions) but do not participate in the uniqueness check.
pub fn validate_history(history: &History) -> Result<(), MtViolation> {
    validate_shapes(history)?;
    check_unique_values(history)
}

/// The per-transaction half of [`validate_history`] (Definition 8).
pub(crate) fn validate_shapes(history: &History) -> Result<(), MtViolation> {
    for txn in history.txns() {
        if Some(txn.id) == history.init_txn() {
            continue;
        }
        validate_transaction(txn)?;
    }
    Ok(())
}

/// Checks only the unique-value condition of Definition 9.
pub fn check_unique_values(history: &History) -> Result<(), MtViolation> {
    unique_values(&WriteIndex::new(history))
}

/// [`check_unique_values`] over an index of the history the caller already
/// has: the index notices duplicates while it is built.
pub(crate) fn unique_values(index: &WriteIndex) -> Result<(), MtViolation> {
    match index.duplicate() {
        None => Ok(()),
        Some(d) => Err(MtViolation::DuplicateValue {
            key: d.key,
            value: d.value,
            first: d.first,
            second: d.second,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::{HistoryBuilder, Op, SessionId};

    fn txn(ops: Vec<Op>) -> Transaction {
        Transaction::committed(TxnId(1), SessionId(0), ops)
    }

    #[test]
    fn read_write_pair_is_a_mini_transaction() {
        let t = txn(vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        assert!(is_mini_transaction(&t));
    }

    #[test]
    fn double_rmw_is_a_mini_transaction() {
        let t = txn(vec![
            Op::read(0u64, 0u64),
            Op::write(0u64, 1u64),
            Op::read(1u64, 0u64),
            Op::write(1u64, 2u64),
        ]);
        assert!(is_mini_transaction(&t));
    }

    #[test]
    fn read_only_transactions_are_mini_transactions() {
        assert!(is_mini_transaction(&txn(vec![Op::read(0u64, 0u64)])));
        assert!(is_mini_transaction(&txn(vec![
            Op::read(0u64, 0u64),
            Op::read(1u64, 0u64)
        ])));
    }

    #[test]
    fn write_skew_shape_is_a_mini_transaction() {
        // Two reads then one write: needed for the WRITESKEW anomaly (Fig 5n).
        let t = txn(vec![
            Op::read(0u64, 0u64),
            Op::read(1u64, 0u64),
            Op::write(0u64, 1u64),
        ]);
        assert!(is_mini_transaction(&t));
    }

    #[test]
    fn blind_write_is_rejected() {
        let t = txn(vec![Op::write(0u64, 1u64)]);
        assert_eq!(
            validate_transaction(&t),
            Err(MtViolation::NoRead { txn: TxnId(1) })
        );
        let t = txn(vec![Op::read(1u64, 0u64), Op::write(0u64, 1u64)]);
        assert_eq!(
            validate_transaction(&t),
            Err(MtViolation::WriteWithoutRead {
                txn: TxnId(1),
                key: Key(0)
            })
        );
    }

    #[test]
    fn too_many_operations_rejected() {
        let t = txn(vec![
            Op::read(0u64, 0u64),
            Op::read(1u64, 0u64),
            Op::read(2u64, 0u64),
        ]);
        assert!(matches!(
            validate_transaction(&t),
            Err(MtViolation::TooManyReads { reads: 3, .. })
        ));
        let t = txn(vec![
            Op::read(0u64, 0u64),
            Op::read(1u64, 0u64),
            Op::write(0u64, 1u64),
            Op::write(1u64, 2u64),
            Op::write(1u64, 3u64),
        ]);
        assert!(matches!(
            validate_transaction(&t),
            Err(MtViolation::TooManyWrites { writes: 3, .. })
        ));
    }

    #[test]
    fn history_validation_ignores_the_init_transaction() {
        let mut b = HistoryBuilder::new().with_init(3);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        let h = b.build();
        // ⊥T performs blind writes but is exempt.
        assert!(validate_history(&h).is_ok());
    }

    #[test]
    fn duplicate_values_rejected() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        b.committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        let h = b.build();
        assert!(matches!(
            validate_history(&h),
            Err(MtViolation::DuplicateValue { .. })
        ));
    }

    #[test]
    fn duplicate_value_names_the_first_two_committed_writers() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.aborted(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        let first = b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        let second = b.committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        b.committed(2, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        let expected = MtViolation::DuplicateValue {
            key: Key(0),
            value: Value(5),
            first,
            second,
        };
        let h = b.build();
        assert_eq!(validate_history(&h), Err(expected.clone()));
        assert_eq!(check_unique_values(&h), Err(expected));
    }

    #[test]
    fn aborted_duplicates_are_tolerated() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        b.aborted(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        let h = b.build();
        assert!(validate_history(&h).is_ok());
    }

    #[test]
    fn anomaly_catalogue_is_mt_valid() {
        for (kind, h) in mtc_history::anomalies::catalogue() {
            assert!(
                validate_history(&h).is_ok(),
                "anomaly {kind} is not an MT history"
            );
        }
    }
}
