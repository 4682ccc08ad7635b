//! Per-key state of the streaming checker: the provenance indexes every
//! dependency edge is derived from, the decomposition of a transaction into
//! per-key work, and the settled-prefix sweep. Every index is keyed by key,
//! so key-disjoint states merge by union ([`KeyState::merge`]) — which is
//! how a snapshot written by a build that spread them over workers loads.

use super::gc::Eviction;
use super::{keep_lowest, Findings};
use crate::check::CheckOptions;
use crate::divergence::Divergence;
use crate::mini::MtViolation;
use crate::verdict::CheckError;
use mtc_history::{
    Edge, EdgeKind, FastHashMap, IntraAnomaly, IntraViolation, Key, Op, Transaction, TxnId,
    TxnStatus, Value, INIT_VALUE,
};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

// ───────────────────────── per-key state ────────────────────────────────────

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
    pub(super) readers_of: FastHashMap<(TxnId, Key), (Vec<TxnId>, Vec<TxnId>)>,
    /// Per `(key, value)`: first committed reader-writer (DIVERGENCE scan).
    pub(super) first_reader_writer: FastHashMap<(Key, Value), TxnId>,
    /// Reads waiting for their writer to appear in the stream.
    pub(super) pending: FastHashMap<(Key, Value), Vec<PendingRead>>,
    /// Value installed by the *newest* committed last-write per key — the
    /// version a well-behaved new reader is expected to observe. Stale
    /// versions (anything else, once old enough) are GC candidates.
    pub(super) latest: FastHashMap<Key, Value>,
    /// Value of the version `(writer, key)` points at in `readers_of` —
    /// the reverse index the GC uses to retire `readers_of` entries
    /// together with their version.
    pub(super) version_of: FastHashMap<(TxnId, Key), Value>,
    /// Explicit eviction markers: per `(writer, key)` version, how many
    /// reader entries the GC's reader-list cap has dropped (see
    /// [`GcPolicy`]'s reader-cap contract). Empty unless a cap is set.
    pub(super) evicted: FastHashMap<(TxnId, Key), u64>,
}

/// The per-key slice of one transaction, precomputed once so the derivation
/// never re-walks the full op list.
#[derive(Clone, Debug)]
struct KeyWork {
    key: Key,
    /// Rank of the key in the transaction's `key_set` order.
    key_rank: u32,
    /// Rank of the key in the transaction's `write_set` order (`u32::MAX`
    /// when the key is not written) — fixes the divergence-check order.
    write_rank: u32,
    /// The external read of the key, with its op index.
    external_read: Option<(Value, usize)>,
    /// Every write of the key, in program order, with "is last write" flags.
    writes: Vec<(Value, bool)>,
    /// True iff the transaction writes the key.
    writes_key: bool,
    /// True iff the external read returns a value the transaction itself
    /// installs later (FUTUREREAD candidate).
    future_candidate: bool,
}

/// A transaction decomposed into its per-key slices, in `key_set` order.
fn decompose(txn: &Transaction) -> Vec<KeyWork> {
    let write_set = txn.write_set();
    txn.key_set()
        .iter()
        .enumerate()
        .map(|(rank, &key)| {
            let external_read = txn.ops.iter().enumerate().find_map(|(i, op)| match *op {
                Op::Write { key: k, .. } if k == key => Some(None),
                Op::Read { key: k, value } if k == key => Some(Some((value, i))),
                _ => None,
            });
            let external_read = external_read.flatten();
            let writes: Vec<(Value, bool)> = {
                let last = txn.last_write(key);
                txn.ops
                    .iter()
                    .filter_map(|op| match *op {
                        Op::Write { key: k, value } if k == key => {
                            Some((value, Some(value) == last))
                        }
                        _ => None,
                    })
                    .collect()
            };
            let future_candidate = match external_read {
                Some((v, i)) => txn.ops[i + 1..]
                    .iter()
                    .any(|op| matches!(*op, Op::Write { key: k, value } if k == key && value == v)),
                None => false,
            };
            KeyWork {
                key,
                key_rank: rank as u32,
                write_rank: write_set
                    .iter()
                    .position(|&k| k == key)
                    .map(|p| p as u32)
                    .unwrap_or(u32::MAX),
                external_read,
                writes_key: !writes.is_empty(),
                writes,
                future_candidate,
            }
        })
        .collect()
}

impl KeyState {
    /// Processes `txn` key by key: updates the indexes — completely, whatever
    /// is found — and records in `found` what the transaction entails.
    /// `scan_divergence` enables the SI-only DIVERGENCE scan.
    pub(super) fn derive(
        &mut self,
        txn: &Transaction,
        is_init: bool,
        scan_divergence: bool,
        has_init: bool,
        opts: &CheckOptions,
        found: &mut Findings,
    ) {
        let committed = txn.status == TxnStatus::Committed;
        let per_key = decompose(txn);

        // ── register writes (duplicate detection + pending resolution) ──
        for work in &per_key {
            for &(value, is_last) in &work.writes {
                let reg = self.writes.entry((work.key, value)).or_default();
                reg.last_touch = reg.last_touch.max(txn.id);
                if committed {
                    let is_duplicate = |&first: &TxnId| opts.validate_mt && first != txn.id;
                    if let Some(first) = reg.first_committed_any.filter(is_duplicate) {
                        let duplicate = MtViolation::DuplicateValue {
                            key: work.key,
                            value,
                            first,
                            second: txn.id,
                        };
                        let error = CheckError::NotMiniTransaction(duplicate);
                        keep_lowest(&mut found.error, work.key_rank, error);
                    }
                    if reg.first_committed_any.is_none() {
                        reg.first_committed_any = Some(txn.id);
                    }
                    if is_last {
                        if reg.committed_last.is_none() {
                            reg.committed_last = Some(txn.id);
                            self.version_of.insert((txn.id, work.key), value);
                        }
                        self.latest.insert(work.key, value);
                    } else if reg.committed_intermediate.is_none() {
                        reg.committed_intermediate = Some(txn.id);
                    }
                } else if reg.non_committed.is_none() {
                    reg.non_committed = Some(txn.id);
                }
            }
        }

        // ── resolve reads that were waiting for these writes ──
        if committed {
            for work in &per_key {
                for &(value, is_last) in &work.writes {
                    let Some(waiters) = self.pending.remove(&(work.key, value)) else {
                        continue;
                    };
                    for waiter in waiters {
                        if is_last {
                            // The version now exists: the deferred WR/WW/RW
                            // edges of every waiting reader, in arrival order.
                            self.emit_reads_from(
                                txn.id,
                                waiter.txn,
                                work.key,
                                waiter.writes_key,
                                work.key_rank,
                                &mut found.edges,
                            );
                        } else if opts.prescan_intra {
                            // The value only ever existed mid-transaction.
                            let read = IntraViolation {
                                anomaly: IntraAnomaly::IntermediateRead,
                                txn: waiter.txn,
                                op_index: waiter.op_index,
                                key: waiter.key,
                                value: waiter.value,
                            };
                            keep_lowest(&mut found.intra, work.key_rank, read);
                        }
                    }
                }
            }
        }

        if !committed || is_init {
            return;
        }

        // ── DIVERGENCE scan (write_set order, like `find_divergence`) ──
        if scan_divergence {
            let mut rmw: Vec<(&KeyWork, Value)> = per_key
                .iter()
                .filter(|w| w.writes_key)
                .filter_map(|w| Some((w, w.external_read?.0)))
                .collect();
            rmw.sort_unstable_by_key(|(w, _)| w.write_rank);
            for (work, value) in rmw {
                let first = *self
                    .first_reader_writer
                    .entry((work.key, value))
                    .or_insert(txn.id);
                if first != txn.id {
                    let writer = self
                        .writes
                        .get(&(work.key, value))
                        .and_then(|r| r.committed_last);
                    let divergence = Divergence {
                        key: work.key,
                        value,
                        writer,
                        reader1: first,
                        reader2: txn.id,
                    };
                    keep_lowest(&mut found.divergence, work.write_rank, divergence);
                }
            }
        }

        // ── resolve this transaction's own external reads ──
        for work in &per_key {
            let Some((value, op_index)) = work.external_read else {
                continue;
            };
            if value == INIT_VALUE && !has_init {
                // Read of the implicit initial state: no dependency.
                continue;
            }
            if let Some(reg) = self.writes.get_mut(&(work.key, value)) {
                // Reads refresh the GC staleness clock of the version.
                reg.last_touch = reg.last_touch.max(txn.id);
            }
            let reg = self
                .writes
                .get(&(work.key, value))
                .cloned()
                .unwrap_or_default();
            match reg.committed_last {
                Some(writer) if writer != txn.id => {
                    self.emit_reads_from(
                        writer,
                        txn.id,
                        work.key,
                        work.writes_key,
                        work.key_rank,
                        &mut found.edges,
                    );
                }
                _ => {
                    // A *foreign* committed transaction overwrote the value
                    // before committing (the reader's own intermediate write
                    // is the FUTUREREAD case, settled at finish()).
                    let foreign_intermediate =
                        reg.committed_intermediate.is_some_and(|w| w != txn.id);
                    if foreign_intermediate && opts.prescan_intra {
                        let read = IntraViolation {
                            anomaly: IntraAnomaly::IntermediateRead,
                            txn: txn.id,
                            op_index,
                            key: work.key,
                            value,
                        };
                        keep_lowest(&mut found.intra, work.key_rank, read);
                        continue;
                    }
                    // Nobody (valid) has installed the value yet: defer.
                    self.pending
                        .entry((work.key, value))
                        .or_default()
                        .push(PendingRead {
                            txn: txn.id,
                            op_index,
                            key: work.key,
                            value,
                            future_candidate: work.future_candidate,
                            writes_key: work.writes_key,
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
    /// of live versions down to the window (and, when `reader_cap > 0`, to
    /// the `reader_cap` newest readers, recording an eviction marker per
    /// capped version). Purely mutating — the set of transactions the
    /// surviving state still references is materialized separately by
    /// [`KeyState::refs`], and only at collection-commit epochs.
    pub(super) fn sweep(&mut self, watermark: TxnId, reader_cap: usize) {
        let latest = &self.latest;
        let pending = &self.pending;
        let mut dropped: Vec<(TxnId, Key)> = Vec::new();
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
                dropped.push((w, key));
            }
            false
        });
        for wk in &dropped {
            self.version_of.remove(wk);
        }
        let dropped: HashSet<(TxnId, Key)> = dropped.into_iter().collect();
        self.readers_of.retain(|wk, _| !dropped.contains(wk));
        // Eviction markers are deliberately *not* dropped with their
        // version: the RW edges lost to an eviction stay lost even after
        // the version itself is retired, so the marker must outlive it —
        // otherwise a qualified clean verdict would silently turn into an
        // unqualified one (and the cumulative count would shrink). The map
        // is bounded by the number of distinct versions ever capped.
        for (wk, (readers, overwriters)) in self.readers_of.iter_mut() {
            // Readers and overwriters below the window can no longer gain
            // RW edges that matter (out-of-window interactions are outside
            // the GC's contract); trimming them unpins their transactions.
            readers.retain(|&r| r >= watermark);
            overwriters.retain(|&o| o >= watermark);
            // Reader-list cap: a hot version whose value never changes
            // keeps accumulating in-window readers between sweeps; with a
            // cap, only the newest `reader_cap` stay resident and the
            // eviction is recorded as an explicit marker (the verdict
            // becomes a qualified certificate — see `GcPolicy`).
            if reader_cap > 0 && readers.len() > reader_cap {
                let drop_n = readers.len() - reader_cap;
                // Readers are appended in stream order, so the front of the
                // list is the oldest.
                readers.drain(..drop_n);
                *self.evicted.entry(*wk).or_default() += drop_n as u64;
            }
        }
        let writes = &self.writes;
        self.first_reader_writer
            .retain(|kv, _| writes.contains_key(kv) || pending.contains_key(kv));
    }

    /// The set of transactions the current per-key state still references
    /// (they must stay resident through a collection). Called right after a
    /// [`KeyState::sweep`] at collection-commit epochs only — the sweeps in
    /// between skip this scan entirely.
    pub(super) fn refs(&self) -> HashSet<TxnId> {
        let mut refs: HashSet<TxnId> = HashSet::new();
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

    /// Merges key-disjoint states into one: the resume path of a snapshot
    /// that carries more than one (see the module docs).
    pub(super) fn merge(states: Vec<KeyState>) -> KeyState {
        let mut out = KeyState::default();
        for s in states {
            out.writes.extend(s.writes);
            out.readers_of.extend(s.readers_of);
            out.first_reader_writer.extend(s.first_reader_writer);
            out.pending.extend(s.pending);
            out.latest.extend(s.latest);
            out.version_of.extend(s.version_of);
            out.evicted.extend(s.evicted);
        }
        out
    }

    /// The eviction markers of this state, sorted for determinism.
    pub(super) fn evictions(&self) -> Vec<Eviction> {
        let mut out: Vec<Eviction> = self
            .evicted
            .iter()
            .map(|(&(writer, key), &dropped)| Eviction {
                writer,
                key,
                dropped,
            })
            .collect();
        out.sort_by_key(|e| (e.writer, e.key));
        out
    }

    /// Longest resident reader list across all live versions — the quantity
    /// the reader cap bounds.
    pub(super) fn max_reader_list_len(&self) -> usize {
        self.readers_of
            .values()
            .map(|(readers, _)| readers.len())
            .max()
            .unwrap_or(0)
    }
}
