//! The `INT` axiom and the "read-your-writes"-style anomalies of
//! Figures 5a–5g of the paper.
//!
//! Before running any of the graph-based verifiers, MTC first checks the
//! history for *intra-transactional* anomalies and for reads of values that
//! were never (or not validly) installed — `THINAIRREAD`, `ABORTEDREAD`,
//! `FUTUREREAD`, `NOTMYLASTWRITE`, `NOTMYOWNWRITE`, `INTERMEDIATEREAD` and
//! `NONREPEATABLEREADS` (footnote 1, Section IV-B). Histories exhibiting any
//! of them trivially violate every strong isolation level.

use crate::history::History;
use crate::op::Op;
use crate::txn::{Transaction, TxnId};
use crate::value::{Key, Value, INIT_VALUE};
use crate::write_index::{first_final, WriteIndex, Writer};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// The anomalies detectable without building a dependency graph.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IntraAnomaly {
    /// A read returned a value no transaction ever wrote (Fig. 5a).
    ThinAirRead,
    /// A read returned a value written only by aborted transactions (Fig. 5b).
    AbortedRead,
    /// A read returned a value the same transaction writes only later (Fig. 5c).
    FutureRead,
    /// A read returned one of the transaction's own earlier writes, but not
    /// the latest one (Fig. 5d).
    NotMyLastWrite,
    /// A read following the transaction's own write returned a foreign value
    /// (Fig. 5e).
    NotMyOwnWrite,
    /// A read returned a value that its writer later overwrote inside the
    /// same writing transaction (Fig. 5f).
    IntermediateRead,
    /// Two reads of the same object within one transaction, with no
    /// intervening own write, returned different values (Fig. 5g).
    NonRepeatableReads,
}

impl fmt::Display for IntraAnomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            IntraAnomaly::ThinAirRead => "ThinAirRead",
            IntraAnomaly::AbortedRead => "AbortedRead",
            IntraAnomaly::FutureRead => "FutureRead",
            IntraAnomaly::NotMyLastWrite => "NotMyLastWrite",
            IntraAnomaly::NotMyOwnWrite => "NotMyOwnWrite",
            IntraAnomaly::IntermediateRead => "IntermediateRead",
            IntraAnomaly::NonRepeatableReads => "NonRepeatableReads",
        };
        f.write_str(name)
    }
}

/// A detected occurrence of an [`IntraAnomaly`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct IntraViolation {
    /// Which anomaly was detected.
    pub anomaly: IntraAnomaly,
    /// The transaction containing the offending read.
    pub txn: TxnId,
    /// Index of the offending read in the transaction's program order.
    pub op_index: usize,
    /// Object read.
    pub key: Key,
    /// Value returned.
    pub value: Value,
}

impl fmt::Display for IntraViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} at {}[{}]: R({},{})",
            self.anomaly, self.txn, self.op_index, self.key, self.value
        )
    }
}

/// Checks the `INT` axiom for a single transaction: every read of an object
/// must return the value of the latest preceding operation (read or write) on
/// that object within the transaction, if one exists.
pub fn check_int(txn: &Transaction) -> bool {
    let mut last_access: HashMap<Key, Value> = HashMap::new();
    for op in &txn.ops {
        match *op {
            Op::Read { key, value } => {
                if let Some(&prev) = last_access.get(&key) {
                    if prev != value {
                        return false;
                    }
                }
                last_access.insert(key, value);
            }
            Op::Write { key, value } => {
                last_access.insert(key, value);
            }
        }
    }
    true
}

/// Checks the `INT` axiom for every committed transaction of a history.
pub fn check_int_history(history: &History) -> bool {
    history.committed().all(check_int)
}

/// One external read of a committed transaction, resolved against a
/// [`WriteIndex`]: what `BUILDDEPENDENCY` turns into a `WR` edge, and a `WW`
/// edge beside it when the reader overwrites the version it read.
///
/// The value read is not kept: a history has one such list per check, one
/// entry per read, so every byte of an entry is paid on every read. The
/// reader's [`Transaction::external_read`] of `key` gives it back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ResolvedRead {
    /// The reading transaction.
    pub reader: TxnId,
    /// Object read.
    pub key: Key,
    /// The first committed transaction whose last write of `key` is the
    /// value read ([`WriteIndex::final_writer`]): the writer read from.
    /// `None` when no committed transaction installs the value.
    pub writer: Option<TxnId>,
    /// The reader writes `key` later in its program.
    pub overwrites: bool,
}

/// What the pre-scan of a history finds: its anomalies, and every external
/// read it resolved on the way.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReadScan {
    /// Every intra-transactional and read-provenance anomaly, as
    /// [`find_intra_anomalies`] reports them.
    pub violations: Vec<IntraViolation>,
    /// The external reads of the committed transactions other than `⊥T`, in
    /// transaction order, then program order — each looked up in the index
    /// once, here, and not again by whoever builds edges from it.
    pub reads: Vec<ResolvedRead>,
}

/// Scans a history for all intra-transactional and read-provenance anomalies.
///
/// Returns every detected violation; an empty result means the history passes
/// the `INT` axiom and contains neither thin-air, aborted, intermediate nor
/// future reads. Only *committed* transactions are scanned for offending
/// reads (aborted transactions never make it into dependency graphs), but
/// aborted transactions do count as potential writers for [`IntraAnomaly::AbortedRead`].
pub fn find_intra_anomalies(history: &History) -> Vec<IntraViolation> {
    scan_reads(history, &WriteIndex::new(history)).violations
}

/// The pre-scan of [`find_intra_anomalies`] over an index of `history` the
/// caller already has, keeping every external read it resolves.
pub fn scan_reads(history: &History, index: &WriteIndex) -> ReadScan {
    let mut scan = ReadScan {
        violations: Vec::new(),
        // One resolved read per read operation at most: sized once, and
        // what no read fills is never touched.
        reads: Vec::with_capacity(history.op_count()),
    };
    for txn in history.committed() {
        scan_transaction(history, txn, index, &mut scan);
    }
    scan
}

fn scan_transaction(history: &History, txn: &Transaction, index: &WriteIndex, scan: &mut ReadScan) {
    let resolves = Some(txn.id) != history.init_txn();
    for (i, op) in txn.ops.iter().enumerate() {
        let Op::Read { key, value } = *op else {
            continue;
        };
        // The transaction's latest earlier access of the object, read or
        // write. Transactions are a handful of operations long, so looking
        // back over them needs no per-transaction state.
        let earlier = &txn.ops[..i];
        let anomaly = match earlier.iter().rev().find(|prev| prev.key() == key) {
            // Internally consistent read.
            Some(prev) if prev.value() == value => None,
            // INT violation: classify it.
            Some(prev) if prev.is_write() => {
                let own = earlier
                    .iter()
                    .any(|w| w.is_write() && w.key() == key && w.value() == value);
                Some(if own {
                    IntraAnomaly::NotMyLastWrite
                } else {
                    IntraAnomaly::NotMyOwnWrite
                })
            }
            Some(_) => Some(IntraAnomaly::NonRepeatableReads),
            // External read: check where the value came from, and keep what
            // was found.
            None => {
                let writers = index.writers(key, value);
                if resolves {
                    let later = &txn.ops[i + 1..];
                    scan.reads.push(ResolvedRead {
                        reader: txn.id,
                        key,
                        writer: first_final(writers),
                        overwrites: later.iter().any(|op| op.is_write() && op.key() == key),
                    });
                }
                classify_external_read(history, txn.id, value, writers)
            }
        };
        if let Some(anomaly) = anomaly {
            scan.violations.push(IntraViolation {
                anomaly,
                txn: txn.id,
                op_index: i,
                key,
                value,
            });
        }
    }
}

/// Classifies an *external* read (no preceding own access of the object) of
/// `value`, whose writers in the index are `writers`.
fn classify_external_read(
    history: &History,
    reader: TxnId,
    value: Value,
    writers: &[Writer],
) -> Option<IntraAnomaly> {
    if writers.is_empty() {
        // Nobody ever wrote this value. Reading the conventional initial
        // value is acceptable only when the history has no ⊥T (otherwise
        // ⊥T would appear as a writer).
        let implicit_init = value == INIT_VALUE && !history.has_init();
        return (!implicit_init).then_some(IntraAnomaly::ThinAirRead);
    }
    // What the writers other than the reader itself did with the value.
    let (mut foreign, mut committed, mut installed) = (false, false, false);
    for w in writers.iter().filter(|w| w.txn != reader) {
        foreign = true;
        committed |= w.committed;
        installed |= w.committed && w.is_final;
    }
    if !foreign {
        // A future read: the only writes of this value live in the reading
        // transaction itself — later in it, the read being external.
        Some(IntraAnomaly::FutureRead)
    } else if !committed {
        // Aborted read: every external writer of the value aborted (or is
        // of unknown status).
        Some(IntraAnomaly::AbortedRead)
    } else if !installed {
        // Intermediate read: every committed writer overwrote the value
        // before committing.
        Some(IntraAnomaly::IntermediateRead)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;

    fn anomalies_of(h: &History) -> Vec<IntraAnomaly> {
        find_intra_anomalies(h)
            .into_iter()
            .map(|v| v.anomaly)
            .collect()
    }

    #[test]
    fn clean_history_has_no_violations() {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 10u64)]);
        b.committed(1, vec![Op::read(0u64, 10u64), Op::write(1u64, 20u64)]);
        let h = b.build();
        assert!(check_int_history(&h));
        assert!(find_intra_anomalies(&h).is_empty());
    }

    #[test]
    fn thin_air_read_detected() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 777u64)]);
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::ThinAirRead]);
    }

    #[test]
    fn reading_init_value_without_init_txn_is_allowed() {
        let mut b = HistoryBuilder::new();
        b.committed(0, vec![Op::read(0u64, 0u64)]);
        let h = b.build();
        assert!(find_intra_anomalies(&h).is_empty());
    }

    #[test]
    fn aborted_read_detected() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.aborted(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        b.committed(1, vec![Op::read(0u64, 5u64)]);
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::AbortedRead]);
    }

    #[test]
    fn future_read_detected() {
        // Fig 5c: T reads the value it only writes later.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 9u64), Op::write(0u64, 9u64)]);
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::FutureRead]);
    }

    #[test]
    fn not_my_last_write_detected() {
        // Fig 5d: R(x,0) W(x,1) W(x,2) R(x,1)
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(
            0,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 1u64),
                Op::write(0u64, 2u64),
                Op::read(0u64, 1u64),
            ],
        );
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::NotMyLastWrite]);
        assert!(!check_int_history(&h));
    }

    #[test]
    fn not_my_own_write_detected() {
        // Fig 5e: T writes 2 then reads 1 written by T'.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(
            0,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 2u64),
                Op::read(0u64, 1u64),
            ],
        );
        b.committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::NotMyOwnWrite]);
    }

    #[test]
    fn intermediate_read_detected() {
        // Fig 5f: T' writes 1 then 2; T reads 1.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 1u64)]);
        b.committed(
            1,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 1u64),
                Op::write(0u64, 2u64),
            ],
        );
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::IntermediateRead]);
    }

    #[test]
    fn non_repeatable_reads_detected() {
        // Fig 5g: T reads 1 then 2 from x.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 2u64)]);
        b.committed(2, vec![Op::read(0u64, 1u64), Op::read(0u64, 2u64)]);
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::NonRepeatableReads]);
    }

    #[test]
    fn read_your_own_write_is_fine() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(
            0,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 3u64),
                Op::read(0u64, 3u64),
            ],
        );
        let h = b.build();
        assert!(find_intra_anomalies(&h).is_empty());
        assert!(check_int_history(&h));
    }

    #[test]
    fn violation_reports_location() {
        let mut b = HistoryBuilder::new().with_init(1);
        let t = b.committed(0, vec![Op::read(0u64, 42u64)]);
        let h = b.build();
        let v = &find_intra_anomalies(&h)[0];
        assert_eq!(v.txn, t);
        assert_eq!(v.op_index, 0);
        assert_eq!(v.key, Key(0));
        assert_eq!(v.value, Value(42));
        let msg = v.to_string();
        assert!(msg.contains("ThinAirRead"));
        assert!(msg.contains("T1"));
    }

    #[test]
    fn aborted_transactions_reads_are_not_scanned() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.aborted(0, vec![Op::read(0u64, 999u64)]);
        let h = b.build();
        assert!(find_intra_anomalies(&h).is_empty());
    }
}
