//! One index of every write of a history, built in a single walk.
//!
//! Validation (unique values), the intra-transactional pre-scan (where did a
//! value come from?) and DIVERGENCE (who installed the value both readers
//! saw?) all ask about the writers of a `(key, value)` pair. A batch check
//! builds one [`WriteIndex`] and hands it to all of them, instead of each
//! walking the history into a map of its own.
//!
//! With the unique-value convention a value has exactly one writer, so a slot
//! holds that writer inline; only values written by several transactions
//! (malformed histories, or an aborted attempt and its retry installing the
//! same value) get a row in a side table.

use crate::fasthash::FastHashMap;
use crate::history::History;
use crate::txn::TxnId;
use crate::value::{Key, Value};

/// One transaction's writing of one `(key, value)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Writer {
    /// The writing transaction.
    pub txn: TxnId,
    /// It committed (aborted and unknown-outcome writers are indexed too:
    /// they are what an `ABORTEDREAD` reads from).
    pub committed: bool,
    /// The value is the transaction's *last* write of the key — what it
    /// installs — rather than one it overwrote itself.
    pub is_final: bool,
}

/// Two committed transactions wrote the same value to the same key.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DuplicateWrite {
    /// Offending key.
    pub key: Key,
    /// The duplicated value.
    pub value: Value,
    /// First committed writer.
    pub first: TxnId,
    /// The later committed writer at which the duplicate was noticed.
    pub second: TxnId,
}

/// `more` of a slot whose only writer is `first`.
const SOLE: u32 = u32::MAX;

struct Slot {
    /// The first transaction (of any status) writing the value.
    first: Writer,
    /// Row of `shared` listing every writer, `first` included, once there
    /// is more than one; [`SOLE`] before.
    more: u32,
}

/// Every write of a history by `(key, value)`; see the module docs.
pub struct WriteIndex {
    slots: FastHashMap<(Key, Value), Slot>,
    shared: Vec<Vec<Writer>>,
    duplicate: Option<DuplicateWrite>,
}

impl WriteIndex {
    /// Indexes every write of every transaction of `history`, whatever its
    /// status, in one walk (transactions in id order, operations in program
    /// order). Whether a write is its transaction's last of the key costs a
    /// look-ahead over a mini-transaction's few operations, and one set of a
    /// wider transaction: linear in the width, the `⊥T` over the whole key
    /// space included.
    pub fn new(history: &History) -> Self {
        let mut index = WriteIndex {
            slots: FastHashMap::with_capacity_and_hasher(
                history.op_count() / 2,
                Default::default(),
            ),
            shared: Vec::new(),
            duplicate: None,
        };
        for txn in history.txns() {
            let committed = txn.is_committed();
            for (key, value, is_final) in txn.writes_with_finality() {
                index.insert(
                    key,
                    value,
                    Writer {
                        txn: txn.id,
                        committed,
                        is_final,
                    },
                );
            }
        }
        index
    }

    fn insert(&mut self, key: Key, value: Value, writer: Writer) {
        use std::collections::hash_map::Entry;
        let slot = match self.slots.entry((key, value)) {
            Entry::Vacant(vacant) => {
                vacant.insert(Slot {
                    first: writer,
                    more: SOLE,
                });
                return;
            }
            Entry::Occupied(occupied) => occupied.into_mut(),
        };
        let writers = match slot.more {
            SOLE => std::slice::from_mut(&mut slot.first),
            row => self.shared[row as usize].as_mut_slice(),
        };
        // Transactions arrive one after the other, so a transaction writing
        // the value a second time finds itself last.
        let last = writers.last_mut().expect("a slot has a writer");
        if last.txn == writer.txn {
            last.is_final |= writer.is_final;
            return;
        }
        if writer.committed && self.duplicate.is_none() {
            self.duplicate = writers
                .iter()
                .find(|w| w.committed)
                .map(|first| DuplicateWrite {
                    key,
                    value,
                    first: first.txn,
                    second: writer.txn,
                });
        }
        if slot.more == SOLE {
            slot.more = self.shared.len() as u32;
            self.shared.push(vec![slot.first, writer]);
        } else {
            self.shared[slot.more as usize].push(writer);
        }
    }

    /// Every transaction that writes `value` to `key`, in id order; empty
    /// when nobody does.
    pub fn writers(&self, key: Key, value: Value) -> &[Writer] {
        match self.slots.get(&(key, value)) {
            None => &[],
            Some(slot) if slot.more == SOLE => std::slice::from_ref(&slot.first),
            Some(slot) => &self.shared[slot.more as usize],
        }
    }

    /// The first committed transaction whose last write of `key` is `value`:
    /// the transaction a reader of `(key, value)` reads from
    /// (`History::write_index()[&(key, value)][0]`).
    pub fn final_writer(&self, key: Key, value: Value) -> Option<TxnId> {
        first_final(self.writers(key, value))
    }

    /// The first violation of the unique-value convention in walk order, if
    /// any: a committed write of a value an earlier committed transaction
    /// also wrote to that key.
    pub fn duplicate(&self) -> Option<DuplicateWrite> {
        self.duplicate
    }
}

/// The first committed writer among `writers` (one slot's, in id order)
/// that installs the value: [`WriteIndex::final_writer`] of that slot.
pub(crate) fn first_final(writers: &[Writer]) -> Option<TxnId> {
    (writers.iter())
        .find(|w| w.committed && w.is_final)
        .map(|w| w.txn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::history::HistoryBuilder;
    use crate::intra::{find_intra_anomalies, IntraAnomaly};
    use crate::op::Op;
    use crate::txn::tests::{ops_of, sparse};
    use crate::txn::TxnStatus;
    use crate::value::INIT_VALUE;
    use proptest::prelude::*;

    const X: Key = Key(0);

    /// The look-ahead build of a [`WriteIndex`]: each write scans the rest of
    /// its transaction for a later write of its key.
    fn by_look_ahead(history: &History) -> WriteIndex {
        let mut index = WriteIndex {
            slots: FastHashMap::default(),
            shared: Vec::new(),
            duplicate: None,
        };
        for txn in history.txns() {
            for (i, op) in txn.ops.iter().enumerate() {
                let Op::Write { key, value } = *op else {
                    continue;
                };
                let overwritten =
                    (txn.ops[i + 1..].iter()).any(|later| later.is_write() && later.key() == key);
                let writer = Writer {
                    txn: txn.id,
                    committed: txn.is_committed(),
                    is_final: !overwritten,
                };
                index.insert(key, value, writer);
            }
        }
        index
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Over a sparse-key `⊥T` and committed, aborted and unknown
        /// transactions up to 40 operations wide that write a key several
        /// times, the index agrees with the look-ahead build slot for slot,
        /// and with `History::write_index()` — itself equal to the
        /// quadratic definition — on who installs what.
        #[test]
        fn the_wide_index_is_the_look_ahead_one(
            init_keys in 0u64..40,
            txns in prop::collection::vec(
                (0u8..3, prop::collection::vec((any::<bool>(), 0u64..48, 0u64..6), 0..41)),
                0..10,
            ),
        ) {
            let mut b = HistoryBuilder::new().with_init_keys((0..init_keys).map(sparse));
            for (session, (status_of, triples)) in txns.into_iter().enumerate() {
                let status = [TxnStatus::Committed, TxnStatus::Aborted, TxnStatus::Unknown];
                b.push(session as u32 % 3, ops_of(triples, true), status[status_of as usize]);
            }
            let h = b.build();
            let (index, reference) = (WriteIndex::new(&h), by_look_ahead(&h));
            prop_assert_eq!(index.duplicate(), reference.duplicate());
            let finals = h.write_index();
            prop_assert_eq!(&finals, &crate::history::tests::write_index_reference(&h));
            let written = h.txns().iter().flat_map(|t| t.ops.iter().filter(|op| op.is_write()));
            for op in written {
                let (key, value) = (op.key(), op.value());
                prop_assert_eq!(index.writers(key, value), reference.writers(key, value));
                let installers: Vec<TxnId> = (index.writers(key, value).iter())
                    .filter(|w| w.committed && w.is_final)
                    .map(|w| w.txn)
                    .collect();
                let listed = finals.get(&(key, value)).cloned().unwrap_or_default();
                prop_assert_eq!(&installers, &listed);
                prop_assert_eq!(index.final_writer(key, value), listed.first().copied());
            }
            prop_assert_eq!(index.slots.len(), reference.slots.len());
        }
    }

    fn anomalies_of(h: &History) -> Vec<IntraAnomaly> {
        find_intra_anomalies(h)
            .into_iter()
            .map(|v| v.anomaly)
            .collect()
    }

    #[test]
    fn a_unique_value_has_one_inline_writer() {
        let mut b = HistoryBuilder::new().with_init(1);
        let t1 = b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        let t2 = b.aborted(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        let h = b.build();
        let index = WriteIndex::new(&h);
        assert!(index.shared.is_empty());
        assert_eq!(index.duplicate(), None);
        assert_eq!(index.final_writer(X, INIT_VALUE), h.init_txn());
        assert_eq!(index.final_writer(X, Value(1)), Some(t1));
        // The aborted write is indexed (any status), but installs nothing.
        let aborted = Writer {
            txn: t2,
            committed: false,
            is_final: true,
        };
        assert_eq!(index.writers(X, Value(2)), [aborted]);
        assert_eq!(index.final_writer(X, Value(2)), None);
        assert!(index.writers(X, Value(3)).is_empty());
    }

    #[test]
    fn two_committed_writers_of_one_value_are_a_duplicate() {
        let mut b = HistoryBuilder::new().with_init(1);
        // An aborted first writer does not count as `first`.
        b.aborted(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        let t2 = b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        // Writes 5 but overwrites it: a duplicate all the same, though not a
        // final writer.
        let t3 = b.committed(
            1,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 5u64),
                Op::write(0u64, 6u64),
            ],
        );
        let t4 = b.committed(2, vec![Op::read(0u64, 6u64), Op::write(0u64, 5u64)]);
        let h = b.build();
        let index = WriteIndex::new(&h);
        assert_eq!(
            index.duplicate(),
            Some(DuplicateWrite {
                key: X,
                value: Value(5),
                first: t2,
                second: t3
            })
        );
        assert!(!h.has_unique_values());
        assert_eq!(index.writers(X, Value(5)).len(), 4);
        // The index and `History::write_index` name the same first final
        // writer, and the same set of them.
        let finals = &h.write_index()[&(X, Value(5))];
        assert_eq!(finals, &vec![t2, t4]);
        assert_eq!(index.final_writer(X, Value(5)), Some(finals[0]));
    }

    #[test]
    fn a_transaction_writing_a_value_twice_is_one_writer() {
        let mut b = HistoryBuilder::new().with_init(1);
        let t1 = b.committed(
            0,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 1u64),
                Op::write(0u64, 1u64),
            ],
        );
        let h = b.build();
        let index = WriteIndex::new(&h);
        assert_eq!(index.duplicate(), None);
        assert_eq!(index.writers(X, Value(1)).len(), 1);
        assert_eq!(index.final_writer(X, Value(1)), Some(t1));
    }

    #[test]
    fn a_value_only_an_aborted_transaction_wrote_is_an_aborted_read() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.aborted(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        b.push(
            1,
            vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)],
            crate::txn::TxnStatus::Unknown,
        );
        b.committed(2, vec![Op::read(0u64, 5u64)]);
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::AbortedRead]);
        // Uncommitted writers never make a duplicate.
        assert_eq!(WriteIndex::new(&h).duplicate(), None);
    }

    #[test]
    fn a_value_only_ever_overwritten_is_an_intermediate_read() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(
            0,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 1u64),
                Op::write(0u64, 2u64),
            ],
        );
        b.committed(1, vec![Op::read(0u64, 1u64)]);
        let h = b.build();
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::IntermediateRead]);
        assert_eq!(WriteIndex::new(&h).final_writer(X, Value(1)), None);

        // A second committed writer that installs the value makes the read
        // legitimate (the history is malformed, but that is validation's
        // finding, not the pre-scan's).
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(
            0,
            vec![
                Op::read(0u64, 0u64),
                Op::write(0u64, 1u64),
                Op::write(0u64, 2u64),
            ],
        );
        b.committed(1, vec![Op::read(0u64, 1u64)]);
        let t3 = b.committed(2, vec![Op::read(0u64, 2u64), Op::write(0u64, 1u64)]);
        let h = b.build();
        assert!(anomalies_of(&h).is_empty());
        assert_eq!(WriteIndex::new(&h).final_writer(X, Value(1)), Some(t3));
    }

    #[test]
    fn a_value_written_only_later_in_the_reader_is_a_future_read_not_thin_air() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 9u64), Op::write(0u64, 9u64)]);
        b.committed(1, vec![Op::read(0u64, 8u64)]);
        let h = b.build();
        assert_eq!(
            anomalies_of(&h),
            vec![IntraAnomaly::FutureRead, IntraAnomaly::ThinAirRead]
        );
        // Somebody else also writing the value turns the future read into an
        // ordinary one.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 9u64), Op::write(0u64, 9u64)]);
        b.committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 9u64)]);
        assert!(anomalies_of(&b.build()).is_empty());
    }

    #[test]
    fn the_initial_value_with_and_without_the_initial_transaction() {
        let read_init = vec![Op::read(0u64, INIT_VALUE), Op::read(7u64, INIT_VALUE)];
        // No ⊥T: nobody wrote the value, and reading it is fine.
        let mut b = HistoryBuilder::new();
        b.committed(0, read_init.clone());
        let h = b.build();
        assert!(WriteIndex::new(&h).writers(X, INIT_VALUE).is_empty());
        assert!(anomalies_of(&h).is_empty());
        // ⊥T over key 0 only: it is the writer there, and key 7 has none.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, read_init);
        let h = b.build();
        assert_eq!(
            WriteIndex::new(&h).final_writer(X, INIT_VALUE),
            h.init_txn()
        );
        assert_eq!(anomalies_of(&h), vec![IntraAnomaly::ThinAirRead]);
    }
}
