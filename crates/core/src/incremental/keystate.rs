//! Per-key state of the streaming checker: the provenance indexes every
//! dependency edge is derived from, the decomposition of a transaction into
//! per-key work, and the settled-prefix sweep. A snapshot writes each index
//! in key order, so how the maps lay their entries out in memory is never
//! part of the format.

use super::{keep_lowest, Findings};
use crate::divergence::Divergence;
use crate::mini::MtViolation;
use crate::verdict::CheckError;
use mtc_history::{
    Edge, EdgeKind, FastHashMap, FastHashSet, InlineSeq, IntraAnomaly, IntraViolation, Key, Op,
    Transaction, TxnId, TxnStatus, Value, INIT_VALUE,
};
use serde::{Deserialize, Serialize};

// ───────────────────────── per-key state ────────────────────────────────────

/// The readers (or the overwriting readers) of one version: the first
/// [`READERS_INLINE`] in place, the rest behind one pointer. Written as the
/// plain array a `Vec<TxnId>` would be.
pub(super) type Readers = InlineSeq<TxnId, READERS_INLINE>;

/// Transactions a reader list holds in place. On `live_uniform`'s stream
/// (seed 100) 71 % of the versions read are read by one transaction, 21 %
/// by two and 8 % by more, and a list of two takes the 24 bytes of the
/// `Vec` header it replaces while holding what the `Vec` put in a heap
/// block.
const READERS_INLINE: usize = 2;

/// Everything ever written as `(key, value)`, as far as the stream has been
/// consumed. Mirrors the role of `mtc_history::WriteIndex` in batch mode.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub(super) struct WriteReg {
    /// First committed transaction whose *last* write of the key installed
    /// the value (the version the WR relation points at).
    committed_last: Option<TxnId>,
    /// A committed transaction wrote the value but overwrote it before
    /// committing (`INTERMEDIATEREAD` witness).
    committed_intermediate: Option<TxnId>,
    /// A non-committed (aborted/unknown) transaction wrote the value
    /// (`ABORTEDREAD` candidate).
    non_committed: Option<TxnId>,
    /// First committed writer of the value, intermediate or not (duplicate
    /// detection, Definition 9).
    first_committed_any: Option<TxnId>,
    /// Most recent transaction that registered or read this version —
    /// the staleness clock of the settled-prefix GC.
    last_touch: TxnId,
}

/// An external read whose provenance cannot be classified yet.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub(super) struct PendingRead {
    txn: TxnId,
    op_index: usize,
    key: Key,
    value: Value,
    /// The reader itself writes this very value later in its own program
    /// order (`FUTUREREAD` if nobody else ever installs it).
    future_candidate: bool,
    /// The reader also writes the key (so a resolution adds a WW edge).
    writes_key: bool,
}

/// The per-key indexes of the streaming checker.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub(super) struct KeyState {
    /// Provenance of every value seen so far, per key.
    pub(super) writes: FastHashMap<(Key, Value), WriteReg>,
    /// Per `(writer, key)`: transactions that read this version, and those
    /// that read it and overwrote it (RW derivation, Algorithm 1).
    pub(super) readers_of: FastHashMap<(TxnId, Key), (Readers, Readers)>,
    /// Per `(key, value)`: first committed reader-writer (DIVERGENCE scan).
    pub(super) first_reader_writer: FastHashMap<(Key, Value), TxnId>,
    /// Reads waiting for their writer to appear in the stream.
    pub(super) pending: FastHashMap<(Key, Value), Vec<PendingRead>>,
    /// Value installed by the *newest* committed last-write per key — the
    /// version a well-behaved new reader is expected to observe. Stale
    /// versions (anything else, once old enough) are GC candidates.
    pub(super) latest: FastHashMap<Key, Value>,
    /// The transaction being derived, per key — pure scratch, refilled by
    /// every [`KeyState::derive`], kept for its capacity.
    #[serde(skip)]
    scratch: Decomposed,
}

/// The per-key slice of one transaction. The slot's index is the rank of
/// the key in the transaction's `key_set` order.
#[derive(Clone, Debug)]
struct KeyWork {
    key: Key,
    /// Rank of the key in the transaction's `write_set` order (`u32::MAX`
    /// when the key is not written) — fixes the divergence-check order.
    write_rank: u32,
    /// The external read of the key, with its op index.
    external_read: Option<(Value, usize)>,
    /// Value of the last write of the key; only read when the key is written.
    last_write: Value,
    /// True iff the external read returns a value the transaction itself
    /// installs later (FUTUREREAD candidate).
    future_candidate: bool,
}

impl KeyWork {
    /// True iff the transaction writes the key.
    fn writes_key(&self) -> bool {
        self.write_rank != u32::MAX
    }
}

/// One write operation, filed under its key's slot.
#[derive(Clone, Copy, Debug)]
struct KeyWrite {
    /// Index of the key's [`KeyWork`] (its `key_set` rank).
    slot: u32,
    /// Position of the write in the transaction's program order.
    op_index: u32,
    value: Value,
}

/// A transaction decomposed into its per-key slices by one pass over its
/// operations, into buffers that outlive it: a mini-transaction (≤ 2 keys,
/// ≤ 4 operations) costs no allocation, and a wide one — the 1 000-write
/// `⊥T` — one slot lookup per operation, as `Transaction::key_set` does.
#[derive(Clone, Debug, Default)]
struct Decomposed {
    /// The keys in `key_set` order.
    keys: Vec<KeyWork>,
    /// Every write, grouped by key in `key_set` order, program order within
    /// a key.
    writes: Vec<KeyWrite>,
    /// Slots of the written keys in `write_set` order.
    written: Vec<u32>,
}

impl Decomposed {
    fn fill(&mut self, ops: &[Op]) {
        self.keys.clear();
        self.writes.clear();
        self.written.clear();
        let mut grouped = true;
        for (i, op) in ops.iter().enumerate() {
            let key = op.key();
            let slot = match self.keys.iter().position(|w| w.key == key) {
                Some(slot) => slot,
                None => {
                    self.keys.push(KeyWork {
                        key,
                        write_rank: u32::MAX,
                        // Only the first operation on a key can be its
                        // external read.
                        external_read: op.is_read().then_some((op.value(), i)),
                        last_write: op.value(),
                        future_candidate: false,
                    });
                    self.keys.len() - 1
                }
            };
            if op.is_read() {
                continue;
            }
            let work = &mut self.keys[slot];
            if !work.writes_key() {
                work.write_rank = self.written.len() as u32;
                self.written.push(slot as u32);
            }
            work.last_write = op.value();
            work.future_candidate |= work.external_read.is_some_and(|(v, _)| v == op.value());
            grouped &= self.writes.last().is_none_or(|w| w.slot <= slot as u32);
            self.writes.push(KeyWrite {
                slot: slot as u32,
                op_index: i as u32,
                value: op.value(),
            });
        }
        if !grouped {
            self.writes.sort_unstable_by_key(|w| (w.slot, w.op_index));
        }
    }

    /// Every write as `(key rank, key, value, is_last)`, key by key in
    /// `key_set` order, program order within a key. `is_last` holds for
    /// every write whose value equals the key's last write's.
    fn writes(&self) -> impl Iterator<Item = (u32, Key, Value, bool)> + '_ {
        self.writes.iter().map(|w| {
            let work = &self.keys[w.slot as usize];
            (w.slot, work.key, w.value, w.value == work.last_write)
        })
    }
}

impl KeyState {
    /// Processes transaction `id` key by key: updates the indexes —
    /// completely, whatever is found — and records in `found` what the
    /// transaction entails. `scan_divergence` enables the SI-only DIVERGENCE
    /// scan.
    pub(super) fn derive(
        &mut self,
        id: TxnId,
        txn: &Transaction,
        is_init: bool,
        scan_divergence: bool,
        has_init: bool,
        found: &mut Findings,
    ) {
        let mut per_key = std::mem::take(&mut self.scratch);
        per_key.fill(&txn.ops);
        let committed = txn.status == TxnStatus::Committed;
        self.register_writes(id, committed, &per_key, found);
        if committed && !is_init {
            if scan_divergence {
                self.scan_divergence(id, &per_key, found);
            }
            self.resolve_own_reads(id, &per_key, has_init, found);
        }
        // `⊥T` is as wide as the key space: its buffers are not worth keeping.
        if !is_init {
            self.scratch = per_key;
        }
    }

    /// Registers the transaction's writes (duplicate detection) and, for a
    /// committed one, resolves the reads that were waiting for them.
    fn register_writes(
        &mut self,
        id: TxnId,
        committed: bool,
        per_key: &Decomposed,
        found: &mut Findings,
    ) {
        for (key_rank, key, value, is_last) in per_key.writes() {
            let reg = self.writes.entry((key, value)).or_default();
            reg.last_touch = reg.last_touch.max(id);
            if committed {
                let is_duplicate = |&first: &TxnId| first != id;
                if let Some(first) = reg.first_committed_any.filter(is_duplicate) {
                    let duplicate = MtViolation::DuplicateValue {
                        key,
                        value,
                        first,
                        second: id,
                    };
                    let error = CheckError::NotMiniTransaction(duplicate);
                    keep_lowest(&mut found.error, key_rank, error);
                }
                if reg.first_committed_any.is_none() {
                    reg.first_committed_any = Some(id);
                }
                if is_last {
                    if reg.committed_last.is_none() {
                        reg.committed_last = Some(id);
                    }
                    self.latest.insert(key, value);
                } else if reg.committed_intermediate.is_none() {
                    reg.committed_intermediate = Some(id);
                }
            } else if reg.non_committed.is_none() {
                reg.non_committed = Some(id);
            }
        }
        if !committed {
            return;
        }
        for (key_rank, key, value, is_last) in per_key.writes() {
            let Some(waiters) = self.pending.remove(&(key, value)) else {
                continue;
            };
            for waiter in waiters {
                if is_last {
                    // The version now exists: the deferred WR/WW/RW edges of
                    // every waiting reader, in arrival order.
                    let (reader, writes_key) = (waiter.txn, waiter.writes_key);
                    self.emit_reads_from(id, reader, key, writes_key, key_rank, &mut found.edges);
                } else {
                    // The value only ever existed mid-transaction.
                    let read = IntraViolation {
                        anomaly: IntraAnomaly::IntermediateRead,
                        txn: waiter.txn,
                        op_index: waiter.op_index,
                        key: waiter.key,
                        value: waiter.value,
                    };
                    keep_lowest(&mut found.intra, key_rank, read);
                }
            }
        }
    }

    /// The DIVERGENCE scan, in `write_set` order like `find_divergence`.
    fn scan_divergence(&mut self, id: TxnId, per_key: &Decomposed, found: &mut Findings) {
        for &slot in &per_key.written {
            let work = &per_key.keys[slot as usize];
            let Some((value, _)) = work.external_read else {
                continue;
            };
            let first = *self
                .first_reader_writer
                .entry((work.key, value))
                .or_insert(id);
            if first != id {
                let writer = self
                    .writes
                    .get(&(work.key, value))
                    .and_then(|r| r.committed_last);
                let divergence = Divergence {
                    key: work.key,
                    value,
                    writer,
                    reader1: first,
                    reader2: id,
                };
                keep_lowest(&mut found.divergence, work.write_rank, divergence);
            }
        }
    }

    /// Resolves the transaction's own external reads, in `key_set` order.
    fn resolve_own_reads(
        &mut self,
        id: TxnId,
        per_key: &Decomposed,
        has_init: bool,
        found: &mut Findings,
    ) {
        for (key_rank, work) in per_key.keys.iter().enumerate() {
            let key_rank = key_rank as u32;
            let Some((value, op_index)) = work.external_read else {
                continue;
            };
            if value == INIT_VALUE && !has_init {
                // Read of the implicit initial state: no dependency.
                continue;
            }
            let (committed_last, committed_intermediate) =
                match self.writes.get_mut(&(work.key, value)) {
                    Some(reg) => {
                        // Reads refresh the GC staleness clock of the version.
                        reg.last_touch = reg.last_touch.max(id);
                        (reg.committed_last, reg.committed_intermediate)
                    }
                    None => (None, None),
                };
            match committed_last {
                Some(writer) if writer != id => {
                    let writes_key = work.writes_key();
                    self.emit_reads_from(
                        writer,
                        id,
                        work.key,
                        writes_key,
                        key_rank,
                        &mut found.edges,
                    );
                }
                _ => {
                    // A *foreign* committed transaction overwrote the value
                    // before committing (the reader's own intermediate write
                    // is the FUTUREREAD case, settled at finish()).
                    let foreign_intermediate = committed_intermediate.is_some_and(|w| w != id);
                    if foreign_intermediate {
                        let read = IntraViolation {
                            anomaly: IntraAnomaly::IntermediateRead,
                            txn: id,
                            op_index,
                            key: work.key,
                            value,
                        };
                        keep_lowest(&mut found.intra, key_rank, read);
                        continue;
                    }
                    // Nobody (valid) has installed the value yet: defer.
                    self.pending
                        .entry((work.key, value))
                        .or_default()
                        .push(PendingRead {
                            txn: id,
                            op_index,
                            key: work.key,
                            value,
                            future_candidate: work.future_candidate,
                            writes_key: work.writes_key(),
                        });
                }
            }
        }
    }

    /// Records the WR / WW edges of "`reader` reads `key` from `writer`" plus
    /// the RW anti-dependencies derivable from the updated indexes.
    fn emit_reads_from(
        &mut self,
        writer: TxnId,
        reader: TxnId,
        key: Key,
        reader_writes_key: bool,
        key_rank: u32,
        edges: &mut Vec<(u32, Edge)>,
    ) {
        let mut edge = |from, to, kind| edges.push((key_rank, Edge { from, to, kind }));
        edge(writer, reader, EdgeKind::Wr(key));
        let (readers, overwriters) = self.readers_of.entry((writer, key)).or_default();
        // New reader anti-depends on every known overwriter of the version.
        for &overwriter in overwriters.iter().filter(|&&o| o != reader) {
            edge(reader, overwriter, EdgeKind::Rw(key));
        }
        if reader_writes_key {
            edge(writer, reader, EdgeKind::Ww(key));
            // Every known reader of the version anti-depends on the new
            // overwriter.
            for &other in readers.iter().filter(|&&r| r != reader) {
                edge(other, reader, EdgeKind::Rw(key));
            }
            overwriters.push(reader);
        }
        readers.push(reader);
    }

    /// Drains the still-unresolved reads for end-of-stream classification.
    pub(super) fn drain_pending(&mut self) -> Vec<PendingRead> {
        let mut all: Vec<PendingRead> = self.pending.drain().flat_map(|(_, v)| v).collect();
        all.sort_by_key(|p| (p.txn, p.op_index));
        all
    }

    /// Classifies a drained pending read exactly as the batch pre-scan
    /// would, now that the stream is complete.
    pub(super) fn classify_settled(&self, p: &PendingRead) -> IntraViolation {
        let reg = self
            .writes
            .get(&(p.key, p.value))
            .cloned()
            .unwrap_or_default();
        let foreign_non_committed = reg.non_committed.is_some_and(|w| w != p.txn);
        let foreign_intermediate = reg.committed_intermediate.is_some_and(|w| w != p.txn);
        let anomaly = if p.future_candidate && !foreign_non_committed && !foreign_intermediate {
            IntraAnomaly::FutureRead
        } else if foreign_non_committed {
            IntraAnomaly::AbortedRead
        } else if foreign_intermediate {
            IntraAnomaly::IntermediateRead
        } else {
            IntraAnomaly::ThinAirRead
        };
        IntraViolation {
            anomaly,
            txn: p.txn,
            op_index: p.op_index,
            key: p.key,
            value: p.value,
        }
    }

    /// Settled-prefix sweep: drops per-key state that can no longer affect
    /// any verdict under the GC's staleness window — versions that are not
    /// the latest of their key, were last touched before `watermark`, and
    /// have no pending read — together with their `readers_of` /
    /// `first_reader_writer` satellites, and trims reader/overwriter lists
    /// of live versions down to the window. Purely mutating — the set of
    /// transactions the surviving state still references is materialized
    /// separately by [`KeyState::refs`], and only at collection-commit
    /// epochs.
    pub(super) fn sweep(&mut self, watermark: TxnId) {
        let latest = &self.latest;
        let pending = &self.pending;
        let mut dropped: FastHashSet<(TxnId, Key)> = FastHashSet::default();
        self.writes.retain(|&(key, value), reg| {
            let is_latest = latest.get(&key) == Some(&value);
            let ids = [
                reg.committed_last,
                reg.committed_intermediate,
                reg.non_committed,
                reg.first_committed_any,
            ];
            let old = reg.last_touch < watermark && ids.iter().flatten().all(|&t| t < watermark);
            if is_latest || !old || pending.contains_key(&(key, value)) {
                return true;
            }
            if let Some(w) = reg.committed_last {
                dropped.insert((w, key));
            }
            false
        });
        self.readers_of.retain(|wk, _| !dropped.contains(wk));
        for (readers, overwriters) in self.readers_of.values_mut() {
            // Readers and overwriters below the window can no longer gain
            // RW edges that matter (out-of-window interactions are outside
            // the GC's contract); trimming them unpins their transactions.
            readers.retain(|r| r >= watermark);
            overwriters.retain(|o| o >= watermark);
        }
        let writes = &self.writes;
        self.first_reader_writer
            .retain(|kv, _| writes.contains_key(kv) || pending.contains_key(kv));
    }

    /// The set of transactions the current per-key state still references
    /// (they must stay resident through a collection). Called right after a
    /// [`KeyState::sweep`] at collection-commit epochs only — the sweeps in
    /// between skip this scan entirely.
    pub(super) fn refs(&self) -> FastHashSet<TxnId> {
        let mut refs: FastHashSet<TxnId> = FastHashSet::default();
        for reg in self.writes.values() {
            for id in [
                reg.committed_last,
                reg.committed_intermediate,
                reg.non_committed,
                reg.first_committed_any,
            ]
            .into_iter()
            .flatten()
            {
                refs.insert(id);
            }
        }
        for (&(w, _), (readers, overwriters)) in &self.readers_of {
            refs.insert(w);
            refs.extend(readers.iter().copied());
            refs.extend(overwriters.iter().copied());
        }
        refs.extend(self.first_reader_writer.values().copied());
        for waiters in self.pending.values() {
            refs.extend(waiters.iter().map(|p| p.txn));
        }
        refs
    }

    /// Longest resident reader list across all live versions.
    pub(super) fn max_reader_list_len(&self) -> usize {
        self.readers_of
            .values()
            .map(|(readers, _)| readers.len())
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::{SessionId, Transaction};
    use proptest::prelude::*;

    /// The per-key slice as it was built before the one-pass decomposition:
    /// straight from `Transaction`'s own accessors, one walk per question.
    #[derive(Debug, PartialEq)]
    struct ReferenceWork {
        key: Key,
        write_rank: u32,
        external_read: Option<(Value, usize)>,
        writes: Vec<(Value, bool)>,
        writes_key: bool,
        future_candidate: bool,
    }

    /// The reference decomposition, in `key_set` order.
    fn reference(txn: &Transaction) -> Vec<ReferenceWork> {
        let write_set = txn.write_set();
        txn.key_set()
            .iter()
            .map(|&key| {
                let external_read = txn.external_read(key).map(|value| {
                    let at = txn.ops.iter().position(|op| op.key() == key);
                    (value, at.expect("the key is in the key set"))
                });
                let last = txn.last_write(key);
                let writes: Vec<(Value, bool)> = txn
                    .ops
                    .iter()
                    .filter(|op| op.is_write() && op.key() == key)
                    .map(|op| (op.value(), Some(op.value()) == last))
                    .collect();
                let future_candidate = external_read.is_some_and(|(v, i)| {
                    txn.ops[i + 1..]
                        .iter()
                        .any(|op| op.is_write() && op.key() == key && op.value() == v)
                });
                ReferenceWork {
                    key,
                    write_rank: write_set
                        .iter()
                        .position(|&k| k == key)
                        .map_or(u32::MAX, |p| p as u32),
                    external_read,
                    writes_key: !writes.is_empty(),
                    writes,
                    future_candidate,
                }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Write-first keys, repeated values, more than two writes per key,
        /// interleaved keys (the writes need regrouping), the empty list.
        #[test]
        fn one_pass_decomposition_equals_the_accessor_built_slices(
            ops in prop::collection::vec((any::<bool>(), 0u64..4, 0u64..3), 0..13),
        ) {
            let ops: Vec<Op> = ops
                .into_iter()
                .map(|(write, k, v)| if write { Op::write(k, v) } else { Op::read(k, v) })
                .collect();
            let txn = Transaction::committed(TxnId(1), SessionId(0), ops);
            let mut per_key = Decomposed::default();
            // A used buffer: whatever the previous transaction left is gone.
            per_key.fill(&[Op::write(9u64, 9u64), Op::write(8u64, 8u64), Op::write(9u64, 7u64)]);
            per_key.fill(&txn.ops);
            let reference = reference(&txn);
            let rebuilt: Vec<ReferenceWork> = per_key
                .keys
                .iter()
                .enumerate()
                .map(|(rank, work)| ReferenceWork {
                    key: work.key,
                    write_rank: work.write_rank,
                    external_read: work.external_read,
                    writes: per_key
                        .writes()
                        .filter(|&(key_rank, ..)| key_rank as usize == rank)
                        .map(|(_, key, value, is_last)| {
                            assert_eq!(key, work.key);
                            (value, is_last)
                        })
                        .collect(),
                    writes_key: work.writes_key(),
                    future_candidate: work.future_candidate,
                })
                .collect();
            prop_assert_eq!(&rebuilt, &reference);
            // The flat write list is grouped by key rank, and `written` is
            // the write set in first-write order.
            let ranks: Vec<u32> = per_key.writes().map(|(rank, ..)| rank).collect();
            prop_assert!(ranks.windows(2).all(|w| w[0] <= w[1]), "{:?}", ranks);
            let written: Vec<Key> = per_key
                .written
                .iter()
                .map(|&slot| per_key.keys[slot as usize].key)
                .collect();
            prop_assert_eq!(written, txn.write_set());
        }
    }
}
