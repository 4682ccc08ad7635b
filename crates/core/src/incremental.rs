//! Streaming verification: incremental SER/SI/SSER checking of
//! mini-transaction histories, one committed transaction at a time.
//!
//! The batch verifiers of [`crate::check`] need the whole history before they
//! answer. Yet the property that makes MT histories attractive — the
//! dependency graph is unique and grows by `O(1)` edges per transaction — is
//! exactly what makes *online* checking feasible: as each transaction
//! commits, its edges are derived from per-key indexes and inserted into an
//! incrementally maintained topological order
//! ([`mtc_history::IncrementalTopo`], Pearce–Kelly style). A violation is
//! reported the moment the offending transaction is consumed instead of
//! after the run ends, and the amortized cost per transaction is `O(1)` for
//! histories fed in commit order.
//!
//! Two drivers share the same derivation code:
//!
//! * [`IncrementalChecker`] — consumes transactions one by one on the caller
//!   thread;
//! * [`ShardedIncrementalChecker`] — partitions per-key edge derivation
//!   across worker threads by key (`hash(key) mod shards`) and merges the
//!   resulting edge events into the shared topological order in a canonical
//!   deterministic order, so its verdicts are identical to the sequential
//!   checker's by construction.
//!
//! ## Strict serializability and the online time-chain
//!
//! Strict serializability adds the real-time order to the mix: a dependency
//! path must never run from a transaction back to one that *finished before
//! it began*. The batch [`crate::check_sser`] encodes this by sorting every
//! begin/commit instant once and threading them into a chain of time nodes.
//! The streaming engine keeps the same encoding **online** via
//! [`mtc_history::TimeChain`]: instants are spliced into the maintained
//! topological order as they arrive (out-of-order instants included — a
//! commit acknowledged now may report a begin far in the past), each
//! committed transaction is hooked in with `begin-node(begin) → txn` and
//! `txn → end-node(end)` edges, and a real-time-order violation latches the
//! moment a dependency edge contradicts the chain. Use
//! [`IncrementalChecker::new_sser`] plus the `*_timed` push methods for the
//! sequential driver; the sharded checker
//! accepts [`IsolationLevel::StrictSerializability`] too and reuses the same
//! worker pool — time-chain maintenance stays on the merge thread, so the
//! workers are oblivious to timestamps.
//!
//! ## Equivalence with the batch checkers
//!
//! On any completed stream, [`IncrementalChecker::finish`] agrees with
//! [`crate::check_ser`] / [`crate::check_si`] / [`crate::check_sser`] on
//! accept/reject. Violation payloads coincide up to the inherent reordering
//! of online reporting:
//!
//! * intra-transactional anomalies local to one transaction (`INT`
//!   violations, `FUTUREREAD`) are reported at that transaction;
//! * read-provenance anomalies that batch mode classifies with the *whole*
//!   history in hand (`THINAIRREAD`, `ABORTEDREAD`, `INTERMEDIATEREAD`) stay
//!   *pending* while a future writer could still legitimize the read and are
//!   settled at the latest by `finish()`;
//! * cycles are reported when the closing edge arrives, with the same
//!   labelling rules as the batch counterexamples;
//! * the DIVERGENCE pattern is checked before the edges of each transaction,
//!   mirroring `CHECKSI`'s early exit.
//!
//! Because a violation is latched as soon as it is *provable from the
//! prefix*, a corrupted transaction in the middle of a long run is reported
//! without consuming the tail — the "time-to-first-violation" metric
//! reported by `mtc-runner`'s streaming mode.

use crate::check::{CheckOptions, IsolationLevel};
use crate::divergence::Divergence;
use crate::mini::{validate_transaction, MtViolation};
use crate::verdict::{CheckError, Verdict, Violation};
use mtc_history::{
    DependencyGraph, Edge, EdgeKind, FastHashMap, FastHashSet, IncrementalTopo, IntraAnomaly,
    IntraViolation, Key, Op, Role, SessionId, TimeChain, TimeSlot, Transaction, TxnId, TxnStatus,
    Value, INIT_VALUE,
};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

pub mod tune;

// ───────────────────────── events ───────────────────────────────────────────

/// Sub-pass indices fixing the canonical order of events within one
/// transaction (mirroring the batch pipeline: validation, pre-scan,
/// divergence, graph construction).
const PASS_ERROR: u8 = 0;
const PASS_INTRA: u8 = 1;
const PASS_DIVERGENCE: u8 = 2;
const PASS_EDGES: u8 = 3;
/// Ablation mode (`skip_divergence_early_exit`): the divergence scan still
/// runs, but its events sort *after* the transaction's edges — mirroring the
/// batch `CHECKSI`, which always re-checks divergence because the composed
/// graph can mask the RW 2-cycle a DIVERGENCE induces.
const PASS_LATE_DIVERGENCE: u8 = 4;

/// One derived consequence of consuming a transaction.
#[derive(Clone, Debug)]
enum Event {
    /// The input left the checker's domain (malformed MT, duplicate value).
    Error(CheckError),
    /// An intra-transactional / read-provenance anomaly became provable.
    Intra(IntraViolation),
    /// The DIVERGENCE pattern completed (SI only).
    Divergence(Divergence),
    /// A dependency edge; `dedup` requests add-if-absent semantics (RW).
    Edge {
        from: TxnId,
        to: TxnId,
        kind: EdgeKind,
        dedup: bool,
    },
    /// The transaction's begin/commit instants (SSER only): hooks the
    /// transaction into the online time-chain. Either side may be absent —
    /// a partially timed transaction still constrains the real-time order
    /// on the side it has, matching the naive RT materialization.
    TimeBounds {
        begin: Option<u64>,
        end: Option<u64>,
    },
}

/// An event tagged with its canonical position within the transaction.
#[derive(Clone, Debug)]
struct TaggedEvent {
    pass: u8,
    key_rank: u32,
    seq: u32,
    event: Event,
}

// ───────────────────────── per-key state ────────────────────────────────────

/// Everything ever written as `(key, value)`, as far as the stream has been
/// consumed. Mirrors the roles of `History::write_index` /
/// `History::any_write_index` in batch mode.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct WriteReg {
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
struct PendingRead {
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

/// The key-partitioned indexes of the streaming checker. A sharded checker
/// owns one `KeyState` per shard; the sequential checker owns exactly one.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct KeyState {
    /// Provenance of every value seen so far, per key.
    writes: FastHashMap<(Key, Value), WriteReg>,
    /// Per `(writer, key)`: transactions that read this version, and those
    /// that read it and overwrote it (RW derivation, Algorithm 1).
    readers_of: FastHashMap<(TxnId, Key), (Vec<TxnId>, Vec<TxnId>)>,
    /// Per `(key, value)`: first committed reader-writer (DIVERGENCE scan).
    first_reader_writer: FastHashMap<(Key, Value), TxnId>,
    /// Reads waiting for their writer to appear in the stream.
    pending: FastHashMap<(Key, Value), Vec<PendingRead>>,
    /// Value installed by the *newest* committed last-write per key — the
    /// version a well-behaved new reader is expected to observe. Stale
    /// versions (anything else, once old enough) are GC candidates.
    latest: FastHashMap<Key, Value>,
    /// Value of the version `(writer, key)` points at in `readers_of` —
    /// the reverse index the GC uses to retire `readers_of` entries
    /// together with their version.
    version_of: FastHashMap<(TxnId, Key), Value>,
    /// Explicit eviction markers: per `(writer, key)` version, how many
    /// reader entries the GC's reader-list cap has dropped (see
    /// [`GcPolicy`]'s reader-cap contract). Empty unless a cap is set.
    evicted: FastHashMap<(TxnId, Key), u64>,
}

/// The per-key slice of one transaction, precomputed once by the coordinator
/// so shard workers never touch the full op list.
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

/// A transaction decomposed for shard processing.
#[derive(Clone, Debug)]
struct TxnWork {
    id: TxnId,
    status: TxnStatus,
    is_init: bool,
    per_key: Vec<KeyWork>,
}

fn decompose(txn: &Transaction, is_init: bool) -> TxnWork {
    let key_set = txn.key_set();
    let write_set = txn.write_set();
    let per_key = key_set
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
        .collect();
    TxnWork {
        id: txn.id,
        status: txn.status,
        is_init,
        per_key,
    }
}

impl KeyState {
    /// Processes the slice of `txn` whose keys this state owns, appending
    /// tagged events. `divergence_pass` enables the SI-only DIVERGENCE scan
    /// and fixes where its events sort ([`PASS_DIVERGENCE`] normally,
    /// [`PASS_LATE_DIVERGENCE`] in ablation mode).
    #[allow(clippy::too_many_arguments)]
    fn derive(
        &mut self,
        txn: &TxnWork,
        owned: impl Fn(Key) -> bool,
        divergence_pass: Option<u8>,
        has_init: bool,
        validate_mt: bool,
        prescan: bool,
        out: &mut Vec<TaggedEvent>,
    ) {
        let committed = txn.status == TxnStatus::Committed;
        let mut seq = 0u32;
        let mut push = |out: &mut Vec<TaggedEvent>, pass: u8, key_rank: u32, event: Event| {
            out.push(TaggedEvent {
                pass,
                key_rank,
                seq,
                event,
            });
            seq += 1;
        };

        // ── register writes (duplicate detection + pending resolution) ──
        for work in txn.per_key.iter().filter(|w| owned(w.key)) {
            for &(value, is_last) in &work.writes {
                let reg = self.writes.entry((work.key, value)).or_default();
                reg.last_touch = reg.last_touch.max(txn.id);
                if committed {
                    if validate_mt {
                        if let Some(first) = reg.first_committed_any {
                            if first != txn.id {
                                push(
                                    out,
                                    PASS_ERROR,
                                    work.key_rank,
                                    Event::Error(CheckError::NotMiniTransaction(
                                        MtViolation::DuplicateValue {
                                            key: work.key,
                                            value,
                                            first,
                                            second: txn.id,
                                        },
                                    )),
                                );
                            }
                        }
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
            for work in txn.per_key.iter().filter(|w| owned(w.key)) {
                for &(value, is_last) in &work.writes {
                    let Some(waiters) = self.pending.remove(&(work.key, value)) else {
                        continue;
                    };
                    if is_last {
                        // The version now exists: emit the deferred WR/WW/RW
                        // edges for every waiting reader, in arrival order.
                        for waiter in waiters {
                            self.emit_reads_from(
                                txn.id,
                                waiter.txn,
                                work.key,
                                waiter.writes_key,
                                work.key_rank,
                                &mut push,
                                out,
                            );
                        }
                    } else if prescan {
                        // The value only ever existed mid-transaction.
                        for waiter in waiters {
                            push(
                                out,
                                PASS_INTRA,
                                work.key_rank,
                                Event::Intra(IntraViolation {
                                    anomaly: IntraAnomaly::IntermediateRead,
                                    txn: waiter.txn,
                                    op_index: waiter.op_index,
                                    key: waiter.key,
                                    value: waiter.value,
                                }),
                            );
                        }
                    }
                }
            }
        }

        if !committed || txn.is_init {
            return;
        }

        // ── DIVERGENCE scan (write_set order, like `find_divergence`) ──
        if let Some(pass) = divergence_pass {
            let mut write_keys: Vec<&KeyWork> = txn
                .per_key
                .iter()
                .filter(|w| owned(w.key) && w.writes_key && w.external_read.is_some())
                .collect();
            write_keys.sort_unstable_by_key(|w| w.write_rank);
            for work in write_keys {
                let (value, _) = work.external_read.expect("filtered above");
                match self.first_reader_writer.get(&(work.key, value)) {
                    None => {
                        self.first_reader_writer.insert((work.key, value), txn.id);
                    }
                    Some(&other) if other != txn.id => {
                        let writer = self
                            .writes
                            .get(&(work.key, value))
                            .and_then(|r| r.committed_last);
                        push(
                            out,
                            pass,
                            work.write_rank,
                            Event::Divergence(Divergence {
                                key: work.key,
                                value,
                                writer,
                                reader1: other,
                                reader2: txn.id,
                            }),
                        );
                    }
                    Some(_) => {}
                }
            }
        }

        // ── resolve this transaction's own external reads ──
        for work in txn.per_key.iter().filter(|w| owned(w.key)) {
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
                        &mut push,
                        out,
                    );
                }
                _ => {
                    // A *foreign* committed transaction overwrote the value
                    // before committing (the reader's own intermediate write
                    // is the FUTUREREAD case, settled at finish()).
                    let foreign_intermediate =
                        reg.committed_intermediate.is_some_and(|w| w != txn.id);
                    if foreign_intermediate && prescan {
                        push(
                            out,
                            PASS_INTRA,
                            work.key_rank,
                            Event::Intra(IntraViolation {
                                anomaly: IntraAnomaly::IntermediateRead,
                                txn: txn.id,
                                op_index,
                                key: work.key,
                                value,
                            }),
                        );
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

    /// Emits the WR / WW edges of "`reader` reads `key` from `writer`" plus
    /// the RW anti-dependencies derivable from the updated indexes.
    #[allow(clippy::too_many_arguments)]
    fn emit_reads_from(
        &mut self,
        writer: TxnId,
        reader: TxnId,
        key: Key,
        reader_writes_key: bool,
        key_rank: u32,
        push: &mut impl FnMut(&mut Vec<TaggedEvent>, u8, u32, Event),
        out: &mut Vec<TaggedEvent>,
    ) {
        push(
            out,
            PASS_EDGES,
            key_rank,
            Event::Edge {
                from: writer,
                to: reader,
                kind: EdgeKind::Wr(key),
                dedup: false,
            },
        );
        let entry = self.readers_of.entry((writer, key)).or_default();
        entry.0.push(reader);
        // New reader anti-depends on every known overwriter of the version.
        for &overwriter in entry.1.iter() {
            if overwriter != reader {
                push(
                    out,
                    PASS_EDGES,
                    key_rank,
                    Event::Edge {
                        from: reader,
                        to: overwriter,
                        kind: EdgeKind::Rw(key),
                        dedup: true,
                    },
                );
            }
        }
        if reader_writes_key {
            push(
                out,
                PASS_EDGES,
                key_rank,
                Event::Edge {
                    from: writer,
                    to: reader,
                    kind: EdgeKind::Ww(key),
                    dedup: false,
                },
            );
            // Every known reader of the version anti-depends on the new
            // overwriter.
            let readers: Vec<TxnId> = entry.0.iter().copied().filter(|&r| r != reader).collect();
            entry.1.push(reader);
            for other in readers {
                push(
                    out,
                    PASS_EDGES,
                    key_rank,
                    Event::Edge {
                        from: other,
                        to: reader,
                        kind: EdgeKind::Rw(key),
                        dedup: true,
                    },
                );
            }
        }
    }

    /// Drains the still-unresolved reads for end-of-stream classification.
    fn drain_pending(&mut self) -> Vec<PendingRead> {
        let mut all: Vec<PendingRead> = self.pending.drain().flat_map(|(_, v)| v).collect();
        all.sort_by_key(|p| (p.txn, p.op_index));
        all
    }

    /// Classifies a drained pending read exactly as the batch pre-scan
    /// would, now that the stream is complete.
    fn classify_settled(&self, p: &PendingRead) -> IntraViolation {
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
    fn sweep(&mut self, watermark: TxnId, reader_cap: usize) {
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
    fn refs(&self) -> HashSet<TxnId> {
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

    /// Merges disjoint per-shard states back into one (resume path).
    fn merge(states: Vec<KeyState>) -> KeyState {
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

    /// Splits a state into `shards` key-disjoint states along the same
    /// `hash(key) mod shards` partition the workers use, so a snapshot can
    /// resume under any shard geometry.
    fn reshard(states: Vec<KeyState>, shards: usize) -> Vec<KeyState> {
        let merged = KeyState::merge(states);
        let mut out = vec![KeyState::default(); shards];
        for ((key, value), reg) in merged.writes {
            out[shard_of(key, shards)].writes.insert((key, value), reg);
        }
        for ((txn, key), lists) in merged.readers_of {
            out[shard_of(key, shards)]
                .readers_of
                .insert((txn, key), lists);
        }
        for ((key, value), txn) in merged.first_reader_writer {
            out[shard_of(key, shards)]
                .first_reader_writer
                .insert((key, value), txn);
        }
        for ((key, value), waiters) in merged.pending {
            out[shard_of(key, shards)]
                .pending
                .insert((key, value), waiters);
        }
        for (key, value) in merged.latest {
            out[shard_of(key, shards)].latest.insert(key, value);
        }
        for ((txn, key), value) in merged.version_of {
            out[shard_of(key, shards)]
                .version_of
                .insert((txn, key), value);
        }
        for ((txn, key), dropped) in merged.evicted {
            out[shard_of(key, shards)]
                .evicted
                .insert((txn, key), dropped);
        }
        out
    }

    /// The eviction markers of this state, sorted for determinism.
    fn evictions(&self) -> Vec<Eviction> {
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
    fn max_reader_list_len(&self) -> usize {
        self.readers_of
            .values()
            .map(|(readers, _)| readers.len())
            .max()
            .unwrap_or(0)
    }
}

// ───────────────────────── the engine ───────────────────────────────────────

/// Owner of one node of the SER/SSER topological order: a transaction, or
/// an auxiliary time node of the SSER time-chain.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
enum NodeOwner {
    Txn(TxnId),
    Time,
}

/// Settled-prefix garbage collection policy for the streaming checkers.
///
/// Every `every` consumed transactions, state older than the most recent
/// `window` transactions is examined: transactions that nothing can touch
/// any more — not the last of their session, not referenced by any live
/// version, reader list or pending read, and (for SSER) not hooked into the
/// retained part of the time-chain — are retired from every index, and
/// their node ids are recycled. Steady-state memory is then proportional to
/// the *active window*, not to the whole history.
///
/// The collector's contract is a **staleness window**: verdicts (including
/// certificates and `first_violation_at`) are identical to the unbounded
/// checker's as long as every transaction only interacts — by data (reading
/// a version) or by time (real-time-ordered instants) — with transactions
/// at most `window` positions older. A read of a version retired by the GC
/// surfaces as the read of an unknown value (the conservative direction)
/// instead of the unbounded run's classification.
///
/// # Reader-list caps
///
/// The sweep trims the reader/overwriter lists of *live* (latest) versions
/// to the window, but a hot key whose version never changes still
/// accumulates up to `window` reader entries between sweeps — with many hot
/// keys, `window × keys` register state. Setting `reader_cap > 0` bounds
/// each live version's resident reader list to the `reader_cap` newest
/// readers; the evicted older readers can no longer contribute RW
/// anti-dependency edges if the version is later overwritten, so a clean
/// verdict obtained under a cap is a **qualified certificate**: violations
/// that are found remain sound (eviction only removes potential edges), but
/// completeness now additionally requires that no more than `reader_cap`
/// in-window readers of any single version conflict with a later writer.
/// Every eviction is recorded as an explicit marker
/// ([`IncrementalChecker::reader_evictions`]) and rides along in
/// [`CheckerSnapshot`]s, so a consumer of the verdict can see exactly which
/// versions the certificate is qualified on. `reader_cap = 0` (the default)
/// disables capping and keeps the unqualified staleness-window contract.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct GcPolicy {
    /// Keep at least the most recent `window` transactions resident.
    pub window: usize,
    /// Run a collection every `every` consumed transactions.
    pub every: usize,
    /// Cap each live version's resident reader list to this many newest
    /// readers at every sweep (0 = unlimited, the default).
    pub reader_cap: usize,
}

impl Default for GcPolicy {
    fn default() -> Self {
        GcPolicy {
            window: 8192,
            every: 2048,
            reader_cap: 0,
        }
    }
}

impl GcPolicy {
    /// A window/cadence policy with both knobs clamped to at least 1 and no
    /// reader cap.
    pub fn clamped(window: usize, every: usize) -> Self {
        GcPolicy {
            window: window.max(1),
            every: every.max(1),
            reader_cap: 0,
        }
    }

    /// Adds a per-key reader-list cap (builder style; see the type docs for
    /// the qualified-certificate contract).
    pub fn with_reader_cap(mut self, cap: usize) -> Self {
        self.reader_cap = cap;
        self
    }

    /// The policy with window and cadence clamped to at least 1, the reader
    /// cap preserved.
    fn normalized(self) -> Self {
        GcPolicy {
            window: self.window.max(1),
            every: self.every.max(1),
            reader_cap: self.reader_cap,
        }
    }
}

/// An explicit eviction marker: the settled-prefix GC capped the reader
/// list of a live version. Clean verdicts produced after evictions are
/// qualified certificates (see [`GcPolicy`]'s reader-cap documentation).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct Eviction {
    /// The transaction whose version had readers evicted (`⊥T`'s id for the
    /// initial version).
    pub writer: TxnId,
    /// The key concerned.
    pub key: Key,
    /// How many reader entries have been dropped from this version's list
    /// so far.
    pub dropped: u64,
}

/// Stream-order metadata of a resident transaction, kept for the GC's
/// candidate enumeration (and the SSER chain cut computation).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
struct TxnMeta {
    begin: Option<u64>,
    end: Option<u64>,
}

/// One queued insertion of the merge thread's batched path. The queue is
/// flushed through [`IncrementalTopo::try_add_edges`] — one affected-region
/// recomputation per flush instead of one per edge — and because the batched
/// insertion is sequence-equivalent to per-edge insertion (same accepted
/// set, same first offender, same canonical cycle certificate), deferring
/// edges is unobservable in the verdicts.
#[derive(Clone, Copy, Debug)]
struct PendingInsert {
    /// Node pair for the level's maintained order (`topo` for SER/SSER,
    /// `composed` for SI). `None` for SI bookkeeping entries, which exist
    /// only to commit their labelled edge to the graph in sequence order.
    pair: Option<(usize, usize)>,
    /// Labelled edge committed to the dependency graph once this entry (and
    /// everything queued before it) is accepted. `None` for SSER time-chain
    /// hook edges and SI composed pairs, which have no labelled counterpart.
    edge: Option<Edge>,
    /// Transaction a rejection of this insert is attributed to.
    at: TxnId,
}

/// Number of sweep epochs per collection commit. Epoch boundaries fire
/// every [`GcPolicy::every`] transactions and always sweep the per-key
/// state (keeping the staleness-window and reader-cap contracts on their
/// original cadence); the graph-side collection — candidate identification,
/// predecessor-closure fixpoint and prune — runs only on every
/// `GC_COMMIT_EPOCHS`-th boundary, so its cost is amortized off the ingest
/// path. Deferring a commit only keeps *more* state resident, which is
/// conservative: verdicts stay bit-identical to an un-collected run, and
/// the resident-set bound grows by at most `GC_COMMIT_EPOCHS · every`
/// transactions over the configured window.
const GC_COMMIT_EPOCHS: u32 = 4;

// ───────────────────── arena-backed engine maps ─────────────────────────────

/// A windowed, dense map keyed by [`TxnId`]: ids at or above `base` index
/// straight into a vector — the hot path, covering every resident
/// transaction of an un-collected stream and the whole GC window of a
/// collected one — while ids below `base` spill into a hash map (`⊥T` and
/// the few transactions the GC pins under its watermark).
/// [`TxnMap::rebase`] moves the window forward at a collection commit so
/// the dense block stays proportional to the live window instead of the
/// whole history.
#[derive(Clone, Debug)]
struct TxnMap<V> {
    base: u32,
    dense: Vec<Option<V>>,
    low: FastHashMap<TxnId, V>,
}

impl<V> Default for TxnMap<V> {
    fn default() -> Self {
        TxnMap {
            base: 0,
            dense: Vec::new(),
            low: FastHashMap::default(),
        }
    }
}

impl<V> TxnMap<V> {
    #[inline]
    fn get(&self, t: TxnId) -> Option<&V> {
        if t.0 >= self.base {
            self.dense.get((t.0 - self.base) as usize)?.as_ref()
        } else {
            self.low.get(&t)
        }
    }

    fn insert(&mut self, t: TxnId, v: V) {
        if t.0 >= self.base {
            let i = (t.0 - self.base) as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i] = Some(v);
        } else {
            self.low.insert(t, v);
        }
    }

    fn get_or_default(&mut self, t: TxnId) -> &mut V
    where
        V: Default,
    {
        if t.0 >= self.base {
            let i = (t.0 - self.base) as usize;
            if self.dense.len() <= i {
                self.dense.resize_with(i + 1, || None);
            }
            self.dense[i].get_or_insert_with(V::default)
        } else {
            self.low.entry(t).or_default()
        }
    }

    fn remove(&mut self, t: TxnId) {
        if t.0 >= self.base {
            if let Some(slot) = self.dense.get_mut((t.0 - self.base) as usize) {
                *slot = None;
            }
        } else {
            self.low.remove(&t);
        }
    }

    fn iter(&self) -> impl Iterator<Item = (TxnId, &V)> {
        let base = self.base;
        self.low.iter().map(|(&t, v)| (t, v)).chain(
            self.dense
                .iter()
                .enumerate()
                .filter_map(move |(i, v)| Some((TxnId(base + i as u32), v.as_ref()?))),
        )
    }

    /// Moves the dense window up to `base`: surviving entries below it (GC
    /// pins) spill into the low map; retired slots are dropped outright.
    fn rebase(&mut self, base: u32) {
        if base <= self.base {
            return;
        }
        let split = ((base - self.base) as usize).min(self.dense.len());
        let old_base = self.base;
        for (i, slot) in self.dense.drain(..split).enumerate() {
            if let Some(v) = slot {
                self.low.insert(TxnId(old_base + i as u32), v);
            }
        }
        self.base = base;
    }
}

impl<V: Serialize> Serialize for TxnMap<V> {
    fn to_json_value(&self) -> serde::JsonValue {
        let mut items: Vec<(u32, &V)> = self.iter().map(|(t, v)| (t.0, v)).collect();
        items.sort_unstable_by_key(|&(t, _)| t);
        let entries = items
            .into_iter()
            .map(|(t, v)| serde::JsonValue::Array(vec![t.to_json_value(), v.to_json_value()]))
            .collect();
        serde::JsonValue::Object(vec![
            ("base".to_string(), self.base.to_json_value()),
            ("entries".to_string(), serde::JsonValue::Array(entries)),
        ])
    }
}

impl<V: Deserialize> Deserialize for TxnMap<V> {
    fn from_json_value(v: &serde::JsonValue) -> Result<Self, serde::Error> {
        let base = v
            .get("base")
            .ok_or_else(|| serde::Error::missing_field("TxnMap", "base"))?;
        let entries = v
            .get("entries")
            .ok_or_else(|| serde::Error::missing_field("TxnMap", "entries"))?;
        let serde::JsonValue::Array(entries) = entries else {
            return Err(serde::Error::expected("TxnMap", "entries array"));
        };
        let mut out = TxnMap {
            base: u32::from_json_value(base)?,
            ..TxnMap::default()
        };
        for entry in entries {
            let serde::JsonValue::Array(pair) = entry else {
                return Err(serde::Error::expected("TxnMap", "[txn, value] pair"));
            };
            let [t, val] = pair.as_slice() else {
                return Err(serde::Error::expected("TxnMap", "[txn, value] pair"));
            };
            out.insert(TxnId(u32::from_json_value(t)?), V::from_json_value(val)?);
        }
        Ok(out)
    }
}

/// Composed-edge provenance as an arena of adjacency rows indexed by source
/// composed-node id (dense and bounded: composed node ids are recycled by
/// the GC), each row sorted by target id for binary-search lookups — index
/// arithmetic instead of hashing a `(usize, usize)` pair per composition.
#[derive(Clone, Debug, Default)]
struct ProvMap {
    rows: Vec<Vec<(u32, Edge, Option<Edge>)>>,
}

impl ProvMap {
    /// Records provenance for the pair `a → c`; false iff the pair is
    /// already present (first provenance wins, like the batch construction).
    fn record(&mut self, a: usize, c: usize, prov: (Edge, Option<Edge>)) -> bool {
        if self.rows.len() <= a {
            self.rows.resize_with(a + 1, Vec::new);
        }
        let row = &mut self.rows[a];
        match row.binary_search_by_key(&(c as u32), |e| e.0) {
            Ok(_) => false,
            Err(i) => {
                row.insert(i, (c as u32, prov.0, prov.1));
                true
            }
        }
    }

    fn get(&self, a: usize, c: usize) -> Option<(Edge, Option<Edge>)> {
        let row = self.rows.get(a)?;
        let i = row.binary_search_by_key(&(c as u32), |e| e.0).ok()?;
        Some((row[i].1, row[i].2))
    }

    /// Drops every pair with an endpoint flagged in `gone` (a bitmap over
    /// composed-node ids; out-of-range ids are live).
    fn prune(&mut self, gone: &[bool]) {
        let dead = |n: usize| gone.get(n).copied().unwrap_or(false);
        for (a, row) in self.rows.iter_mut().enumerate() {
            if dead(a) {
                *row = Vec::new();
            } else {
                row.retain(|&(c, _, _)| !dead(c as usize));
            }
        }
    }
}

impl Serialize for ProvMap {
    fn to_json_value(&self) -> serde::JsonValue {
        let mut items = Vec::new();
        for (a, row) in self.rows.iter().enumerate() {
            for &(c, base, rw) in row {
                items.push(serde::JsonValue::Array(vec![
                    (a as u32).to_json_value(),
                    c.to_json_value(),
                    base.to_json_value(),
                    rw.to_json_value(),
                ]));
            }
        }
        serde::JsonValue::Array(items)
    }
}

impl Deserialize for ProvMap {
    fn from_json_value(v: &serde::JsonValue) -> Result<Self, serde::Error> {
        let serde::JsonValue::Array(items) = v else {
            return Err(serde::Error::expected("ProvMap", "array"));
        };
        let mut out = ProvMap::default();
        for item in items {
            let serde::JsonValue::Array(quad) = item else {
                return Err(serde::Error::expected("ProvMap", "[a, c, base, rw] entry"));
            };
            let [a, c, base, rw] = quad.as_slice() else {
                return Err(serde::Error::expected("ProvMap", "[a, c, base, rw] entry"));
            };
            out.record(
                u32::from_json_value(a)? as usize,
                u32::from_json_value(c)? as usize,
                (
                    Edge::from_json_value(base)?,
                    Option::<Edge>::from_json_value(rw)?,
                ),
            );
        }
        Ok(out)
    }
}

/// Shared core: labelled graph, topological order(s), verdict latch and
/// session bookkeeping. Both checker flavours feed it the same event stream.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct Engine {
    level: IsolationLevel,
    opts: CheckOptions,
    graph: DependencyGraph,
    /// SER: maintained over *all* edges. SSER: additionally contains the
    /// time-chain nodes and the begin/end hook edges.
    topo: IncrementalTopo,
    /// SI: maintained over the composed graph `(SO ∪ WR ∪ WW) ; RW?`.
    composed: IncrementalTopo,
    /// SI: provenance of each composed edge (base edge, optional RW suffix).
    composed_prov: ProvMap,
    /// SI: base edges indexed by target (for compositions with later RW).
    base_in: TxnMap<Vec<Edge>>,
    /// SI: RW edges indexed by source.
    rw_out: TxnMap<Vec<Edge>>,
    /// SSER: the online time-chain over begin/commit instants.
    chain: TimeChain,
    /// Topological-order node of each resident transaction. An explicit map
    /// (rather than the identity) because pruned node ids are recycled.
    txn_node: TxnMap<usize>,
    /// Composed-order node of each resident transaction (SI).
    txn_cnode: TxnMap<usize>,
    /// Owner of each topological-order node, for cycle splicing.
    node_owner: Vec<NodeOwner>,
    /// Last transaction of each session, with its commit status.
    sessions: Vec<Option<(TxnId, bool)>>,
    /// Stream metadata of every resident (unpruned) transaction.
    live_txns: BTreeMap<TxnId, TxnMeta>,
    /// Settled-prefix GC policy; `None` disables collection.
    gc: Option<GcPolicy>,
    /// `txn_count` at the last epoch boundary (sweep).
    last_gc: usize,
    /// Epoch boundaries since the last collection commit: every
    /// [`GC_COMMIT_EPOCHS`]-th boundary runs the graph-side collection, the
    /// boundaries in between only sweep the per-key state (cheap and
    /// ingest-adjacent), keeping the expensive candidate-closure walk and
    /// prune off the common path. Serialized so a resumed checker keeps the
    /// exact epoch phase and prunes at the same points as an uninterrupted
    /// run.
    gc_epochs: u32,
    /// Transactions retired by the GC so far.
    pruned_txns: usize,
    /// Merge-path queue of deferred insertions (empty on the sequential
    /// per-edge path, which applies immediately).
    #[serde(skip)]
    pending: Vec<PendingInsert>,
    /// Dedup membership of the queued-but-uncommitted labelled edges, so
    /// add-if-absent semantics see the queue exactly as the sequential
    /// checker sees its graph.
    #[serde(skip)]
    pending_set: FastHashSet<(TxnId, TxnId, EdgeKind)>,
    /// Reusable buffer for a transaction's chain + hook edge pairs (SSER
    /// ingest fast path) — pure scratch, never holds data across calls.
    #[serde(skip)]
    time_scratch: Vec<(usize, usize)>,
    /// Chain splice edges emitted while pre-materializing the admitted
    /// transaction's anchors (see [`Engine::admit`]); drained by the same
    /// transaction's `TimeBounds` event. Scratch: always consumed (or
    /// cleared by the next admit) before a snapshot can be taken.
    #[serde(skip)]
    time_prepairs: Vec<(usize, usize)>,
    /// The pre-materialized (begin, end) anchors of the admitted
    /// transaction, saving the `TimeBounds` application the chain lookups.
    #[serde(skip)]
    time_preanchors: (Option<usize>, Option<usize>),
    has_init: bool,
    txn_count: usize,
    committed_count: usize,
    violation: Option<Violation>,
    error: Option<CheckError>,
    violated_at: Option<TxnId>,
}

impl Engine {
    fn new(level: IsolationLevel, opts: CheckOptions) -> Self {
        Engine {
            level,
            opts,
            graph: DependencyGraph::new(0),
            topo: IncrementalTopo::new(),
            composed: IncrementalTopo::new(),
            composed_prov: ProvMap::default(),
            base_in: TxnMap::default(),
            rw_out: TxnMap::default(),
            chain: TimeChain::new(),
            txn_node: TxnMap::default(),
            txn_cnode: TxnMap::default(),
            node_owner: Vec::new(),
            sessions: Vec::new(),
            live_txns: BTreeMap::new(),
            gc: None,
            last_gc: 0,
            gc_epochs: 0,
            pruned_txns: 0,
            pending: Vec::new(),
            pending_set: FastHashSet::default(),
            time_scratch: Vec::new(),
            time_prepairs: Vec::new(),
            time_preanchors: (None, None),
            has_init: false,
            txn_count: 0,
            committed_count: 0,
            violation: None,
            error: None,
            violated_at: None,
        }
    }

    /// Topological-order node of a resident transaction.
    #[inline]
    fn node_of(&self, txn: TxnId) -> usize {
        *self
            .txn_node
            .get(txn)
            .expect("edge endpoint must be a resident transaction")
    }

    /// Composed-order node of a resident transaction (SI).
    #[inline]
    fn cnode_of(&self, txn: TxnId) -> usize {
        *self
            .txn_cnode
            .get(txn)
            .expect("edge endpoint must be a resident transaction")
    }

    /// Records `owner` for a (possibly recycled) topological-order node.
    fn set_owner(&mut self, node: usize, owner: NodeOwner) {
        if self.node_owner.len() <= node {
            self.node_owner.resize(node + 1, NodeOwner::Time);
        }
        self.node_owner[node] = owner;
    }

    fn done(&self) -> bool {
        self.violation.is_some() || self.error.is_some()
    }

    fn latch_violation(&mut self, v: Violation, at: TxnId) {
        if !self.done() {
            self.violation = Some(v);
            self.violated_at = Some(at);
        }
    }

    /// Registers the next transaction: assigns its node, validates its
    /// shape, runs the local intra scan and derives its SO edge. Returns the
    /// events to apply before the key-derived ones.
    fn admit(&mut self, txn: &Transaction, is_init: bool) -> Vec<TaggedEvent> {
        let id = txn.id;
        debug_assert_eq!(id.index(), self.txn_count);
        self.txn_count += 1;
        self.graph.add_node();

        // SSER: committed transactions with at least one recorded instant
        // (⊥T included, matching `check_sser`'s instant collection) hook
        // into the time-chain.
        let time_bounds = (self.level == IsolationLevel::StrictSerializability
            && txn.status == TxnStatus::Committed
            && (txn.begin.is_some() || txn.end.is_some()))
        .then_some((txn.begin, txn.end));

        // SSER ingest fast path: materialize the chain anchors *around* the
        // transaction's own topo node — begin anchor first, end anchor after
        // — so that for in-timestamp-order streams every chain splice and
        // hook edge already agrees with the maintained order and inserts in
        // O(1), with no reorder pass. The splice edges are stashed in
        // `time_prepairs` and submitted together with the hook edges when
        // this transaction's `TimeBounds` event is applied (or deferred).
        self.time_prepairs.clear();
        self.time_preanchors = (None, None);
        let mut pre_pairs = std::mem::take(&mut self.time_prepairs);
        if let Some((Some(begin), _)) = time_bounds {
            let anchor = self.time_anchor(begin, Role::Begin, &mut pre_pairs);
            self.time_preanchors.0 = Some(anchor);
        }
        let node = self.topo.add_node();
        self.txn_node.insert(id, node);
        self.set_owner(node, NodeOwner::Txn(id));
        if let Some((_, Some(end))) = time_bounds {
            let anchor = self.time_anchor(end, Role::End, &mut pre_pairs);
            self.time_preanchors.1 = Some(anchor);
        }
        self.time_prepairs = pre_pairs;
        // The composed order only exists at SI; the other levels skip the
        // node bookkeeping entirely on the ingest hot path.
        if self.level == IsolationLevel::SnapshotIsolation {
            let cnode = self.composed.add_node();
            self.txn_cnode.insert(id, cnode);
        }
        self.live_txns.insert(
            id,
            TxnMeta {
                begin: txn.begin,
                end: txn.end,
            },
        );

        let mut out = Vec::new();
        let mut seq = 0u32;
        let mut push = |out: &mut Vec<TaggedEvent>, pass: u8, event: Event| {
            out.push(TaggedEvent {
                pass,
                key_rank: 0,
                seq,
                event,
            });
            seq += 1;
        };

        if is_init {
            self.has_init = true;
            self.committed_count += 1;
            if let Some((begin, end)) = time_bounds {
                push(&mut out, PASS_EDGES, Event::TimeBounds { begin, end });
            }
            return out;
        }

        if self.opts.validate_mt {
            if let Err(v) = validate_transaction(txn) {
                push(
                    &mut out,
                    PASS_ERROR,
                    Event::Error(CheckError::NotMiniTransaction(v)),
                );
            }
        }

        if txn.status == TxnStatus::Committed {
            self.committed_count += 1;
            if self.opts.prescan_intra {
                self.local_intra_scan(txn, &mut push, &mut out);
            }
            // SO edge: predecessor in the session (or ⊥T for the first).
            if txn.session != SessionId::INIT {
                let s = txn.session.index();
                while self.sessions.len() <= s {
                    self.sessions.push(None);
                }
                let prev = self.sessions[s];
                let source = match prev {
                    Some((p, committed)) => committed.then_some(p),
                    None => self.has_init.then_some(TxnId(0)),
                };
                if let Some(p) = source {
                    push(
                        &mut out,
                        PASS_EDGES,
                        Event::Edge {
                            from: p,
                            to: id,
                            kind: EdgeKind::So,
                            dedup: false,
                        },
                    );
                }
            }
            if let Some((begin, end)) = time_bounds {
                push(&mut out, PASS_EDGES, Event::TimeBounds { begin, end });
            }
        }
        if txn.session != SessionId::INIT {
            let s = txn.session.index();
            while self.sessions.len() <= s {
                self.sessions.push(None);
            }
            self.sessions[s] = Some((id, txn.status == TxnStatus::Committed));
        }
        out
    }

    /// The purely intra-transactional half of the pre-scan (`INT` axiom
    /// violations), mirroring `mtc_history::intra`'s classification.
    fn local_intra_scan(
        &self,
        txn: &Transaction,
        push: &mut impl FnMut(&mut Vec<TaggedEvent>, u8, Event),
        out: &mut Vec<TaggedEvent>,
    ) {
        struct Access {
            value: Value,
            was_write: bool,
        }
        let mut last_access: HashMap<Key, Access> = HashMap::new();
        let mut own_writes: HashMap<Key, Vec<Value>> = HashMap::new();
        for (i, op) in txn.ops.iter().enumerate() {
            match *op {
                Op::Write { key, value } => {
                    own_writes.entry(key).or_default().push(value);
                    last_access.insert(
                        key,
                        Access {
                            value,
                            was_write: true,
                        },
                    );
                }
                Op::Read { key, value } => {
                    if let Some(prev) = last_access.get(&key) {
                        if prev.value != value {
                            let anomaly = if prev.was_write {
                                let earlier =
                                    own_writes.get(&key).map(Vec::as_slice).unwrap_or(&[]);
                                if earlier.contains(&value) {
                                    IntraAnomaly::NotMyLastWrite
                                } else {
                                    IntraAnomaly::NotMyOwnWrite
                                }
                            } else {
                                IntraAnomaly::NonRepeatableReads
                            };
                            push(
                                out,
                                PASS_INTRA,
                                Event::Intra(IntraViolation {
                                    anomaly,
                                    txn: txn.id,
                                    op_index: i,
                                    key,
                                    value,
                                }),
                            );
                        }
                    }
                    last_access.insert(
                        key,
                        Access {
                            value,
                            was_write: false,
                        },
                    );
                }
            }
        }
    }

    /// Applies one event; no-op once a verdict is latched.
    fn apply(&mut self, at: TxnId, event: Event) {
        if self.done() {
            return;
        }
        match event {
            Event::Error(e) => self.error = Some(e),
            Event::Intra(v) => self.latch_violation(Violation::Intra(vec![v]), at),
            Event::Divergence(d) => self.latch_violation(d.into_violation(), at),
            Event::Edge {
                from,
                to,
                kind,
                dedup,
            } => {
                if dedup {
                    if self.graph.contains_edge(from, to, kind) {
                        return;
                    }
                    self.graph.add_edge(from, to, kind);
                } else {
                    self.graph.add_edge(from, to, kind);
                }
                let edge = Edge { from, to, kind };
                match self.level {
                    IsolationLevel::Serializability => self.apply_ser_edge(at, edge),
                    IsolationLevel::SnapshotIsolation => self.apply_si_edge(at, edge),
                    IsolationLevel::StrictSerializability => self.apply_sser_edge(at, edge),
                }
            }
            Event::TimeBounds { begin, end } => self.apply_time_bounds(at, begin, end),
        }
    }

    fn apply_ser_edge(&mut self, at: TxnId, edge: Edge) {
        let (u, v) = (self.node_of(edge.from), self.node_of(edge.to));
        if let Err(cycle) = self.topo.try_add_edge(u, v) {
            let edges = self.ser_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
    }

    /// Maps a cycle over topological-order nodes back to transaction
    /// indices (SER: every node is a transaction) and labels it from the
    /// dependency graph.
    fn ser_cycle_edges(&self, cycle: &[usize]) -> Vec<Edge> {
        let txn_cycle: Vec<usize> = cycle
            .iter()
            .map(|&n| match self.node_owner[n] {
                NodeOwner::Txn(t) => t.index(),
                NodeOwner::Time => unreachable!("SER order contains no time nodes"),
            })
            .collect();
        self.graph.label_node_cycle(&txn_cycle, |_| true)
    }

    /// SSER: a dependency edge is inserted into the *augmented* order (time
    /// nodes included); a rejection means a dependency path contradicts the
    /// time-chain and is spliced back into a labelled counterexample.
    fn apply_sser_edge(&mut self, at: TxnId, edge: Edge) {
        let (u, v) = (self.node_of(edge.from), self.node_of(edge.to));
        if let Err(cycle) = self.topo.try_add_edge(u, v) {
            let edges = self.sser_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
    }

    /// SSER: hooks transaction `at` into the time-chain at its begin/commit
    /// instants (each side independently — a partially timed transaction
    /// still constrains one direction of the real-time order). The chain
    /// splice edges and the hook edges are submitted as **one**
    /// [`IncrementalTopo::try_add_edges`] batch — sequence-equivalent to
    /// edge-at-a-time insertion (same first offender, same canonical
    /// certificate) but with a single affected-region pass per transaction.
    /// A rejected hook edge (e.g. a commit whose reported instants
    /// contradict edges already derived) latches exactly like a
    /// dependency-edge rejection; chain edges can never be the offender
    /// (see the [`mtc_history::TimeChain`] module docs).
    fn apply_time_bounds(&mut self, at: TxnId, begin: Option<u64>, end: Option<u64>) {
        let tnode = self.node_of(at);
        let mut pairs = std::mem::take(&mut self.time_scratch);
        pairs.clear();
        // The admitting pass already materialized the anchors around the
        // transaction's node and stashed their splice edges; pick those up
        // so the whole group inserts forward-only in the monotone case.
        pairs.append(&mut self.time_prepairs);
        let (pre_begin, pre_end) = std::mem::take(&mut self.time_preanchors);
        if let Some(begin) = begin {
            let anchor = match pre_begin {
                Some(a) => a,
                None => self.time_anchor(begin, Role::Begin, &mut pairs),
            };
            pairs.push((anchor, tnode));
        }
        if let Some(end) = end {
            let anchor = match pre_end {
                Some(a) => a,
                None => self.time_anchor(end, Role::End, &mut pairs),
            };
            pairs.push((tnode, anchor));
        }
        if let Err((_, cycle)) = self.topo.try_add_edges(&pairs) {
            let edges = self.sser_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
        self.time_scratch = pairs;
    }

    /// Materializes the `role` anchor of `instant` (required chain edges
    /// are pushed onto `pairs`, not yet inserted) and keeps the node-owner
    /// map aligned: at most one node is allocated per call — possibly
    /// recycling a pruned id — and when one is, it is the returned anchor.
    fn time_anchor(&mut self, instant: u64, role: Role, pairs: &mut Vec<(usize, usize)>) -> usize {
        let anchor = self.chain.anchor(instant, role, &mut self.topo, pairs);
        self.set_owner(anchor, NodeOwner::Time);
        anchor
    }

    /// Maps a cycle over the augmented (transaction + time node) order back
    /// to labelled edges, mirroring the splice of [`crate::check_sser`]:
    /// direct transaction-to-transaction hops are labelled from the
    /// dependency graph, hops through time nodes become RT edges.
    fn sser_cycle_edges(&self, cycle: &[usize]) -> Vec<Edge> {
        let len = cycle.len();
        let real_positions: Vec<usize> = (0..len)
            .filter(|&i| matches!(self.node_owner[cycle[i]], NodeOwner::Txn(_)))
            .collect();
        debug_assert!(
            !real_positions.is_empty(),
            "a cycle cannot consist of time nodes only"
        );
        let mut edges = Vec::new();
        for (idx, &pos) in real_positions.iter().enumerate() {
            let next_pos = real_positions[(idx + 1) % real_positions.len()];
            let NodeOwner::Txn(u) = self.node_owner[cycle[pos]] else {
                unreachable!("filtered to transaction nodes");
            };
            let NodeOwner::Txn(v) = self.node_owner[cycle[next_pos]] else {
                unreachable!("filtered to transaction nodes");
            };
            let direct_hop = (pos + 1) % len == next_pos;
            if direct_hop {
                let labelled = self
                    .graph
                    .label_node_cycle(&[u.index(), v.index()], |_| true);
                if let Some(e) = labelled.into_iter().find(|e| e.from == u) {
                    edges.push(e);
                    continue;
                }
            }
            edges.push(Edge {
                from: u,
                to: v,
                kind: EdgeKind::Rt,
            });
        }
        edges
    }

    fn apply_si_edge(&mut self, at: TxnId, edge: Edge) {
        match edge.kind {
            EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_) => {
                let (a, b) = (self.cnode_of(edge.from), self.cnode_of(edge.to));
                self.add_composed(at, a, b, (edge, None));
                if self.done() {
                    return;
                }
                let suffixes: Vec<Edge> = self.rw_out.get(edge.to).cloned().unwrap_or_default();
                for rw in suffixes {
                    let c = self.cnode_of(rw.to);
                    self.add_composed(at, a, c, (edge, Some(rw)));
                    if self.done() {
                        return;
                    }
                }
                self.base_in.get_or_default(edge.to).push(edge);
            }
            EdgeKind::Rw(_) => {
                let c = self.cnode_of(edge.to);
                let bases: Vec<Edge> = self.base_in.get(edge.from).cloned().unwrap_or_default();
                for base in bases {
                    let a = self.cnode_of(base.from);
                    self.add_composed(at, a, c, (base, Some(edge)));
                    if self.done() {
                        return;
                    }
                }
                self.rw_out.get_or_default(edge.from).push(edge);
            }
            EdgeKind::Rt => {}
        }
    }

    /// Inserts a composed edge (first provenance wins, like the batch
    /// construction) and checks acyclicity of the composed graph. A 2-cycle
    /// `a → c → a` through an RW suffix surfaces as the self-pair `(a, a)`,
    /// which the maintained order rejects as a one-node cycle labelled from
    /// its own provenance — no special casing needed.
    fn add_composed(&mut self, at: TxnId, a: usize, c: usize, prov: (Edge, Option<Edge>)) {
        if !self.record_composed(a, c, prov) {
            return;
        }
        if let Err(cycle) = self.composed.try_add_edge(a, c) {
            let edges = self.composed_cycle_edges(&cycle);
            self.latch_violation(Violation::Cycle { edges }, at);
        }
    }

    /// Records the provenance of a composed pair; false iff the pair is
    /// already present (first provenance wins, like the batch construction).
    fn record_composed(&mut self, a: usize, c: usize, prov: (Edge, Option<Edge>)) -> bool {
        self.composed_prov.record(a, c, prov)
    }

    /// Expands a composed-graph node cycle into labelled edges via the
    /// recorded provenance.
    fn composed_cycle_edges(&self, cycle: &[usize]) -> Vec<Edge> {
        let mut edges = Vec::new();
        for i in 0..cycle.len() {
            let u = cycle[i];
            let v = cycle[(i + 1) % cycle.len()];
            if let Some((base, rw)) = self.composed_prov.get(u, v) {
                edges.push(base);
                if let Some(rw) = rw {
                    edges.push(rw);
                }
            }
        }
        edges
    }

    // ── the deferred (merge-thread) path ────────────────────────────────

    /// Merge-path variant of [`Engine::apply`]: dependency edges — and, in
    /// SSER mode, the time-chain hook edges — are queued instead of inserted,
    /// and the queue is drained through the batched
    /// [`IncrementalTopo::try_add_edges`] at the next [`Engine::flush_deferred`].
    /// Every non-edge event forces a flush first, so the observable sequence
    /// of verdict-relevant effects is identical to the sequential per-edge
    /// path by construction.
    fn apply_deferred(&mut self, at: TxnId, event: Event) {
        if self.done() {
            return;
        }
        match event {
            Event::Edge {
                from,
                to,
                kind,
                dedup,
            } => {
                if dedup
                    && (self.graph.contains_edge(from, to, kind)
                        || !self.pending_set.insert((from, to, kind)))
                {
                    return;
                }
                let edge = Edge { from, to, kind };
                match self.level {
                    IsolationLevel::Serializability | IsolationLevel::StrictSerializability => {
                        let pair = (self.node_of(from), self.node_of(to));
                        self.pending.push(PendingInsert {
                            pair: Some(pair),
                            edge: Some(edge),
                            at,
                        })
                    }
                    IsolationLevel::SnapshotIsolation => {
                        self.pending.push(PendingInsert {
                            pair: None,
                            edge: Some(edge),
                            at,
                        });
                        self.compose_deferred(at, edge);
                    }
                }
            }
            Event::TimeBounds { begin, end } => self.defer_time_bounds(at, begin, end),
            other => {
                self.flush_deferred();
                self.apply(at, other);
            }
        }
    }

    /// SI collection-time composition: mirrors [`Engine::apply_si_edge`],
    /// but queues the composed pairs for the next flush instead of
    /// inserting them into the maintained order.
    fn compose_deferred(&mut self, at: TxnId, edge: Edge) {
        match edge.kind {
            EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_) => {
                let (a, b) = (self.cnode_of(edge.from), self.cnode_of(edge.to));
                self.queue_composed(at, a, b, (edge, None));
                let suffixes: Vec<Edge> = self.rw_out.get(edge.to).cloned().unwrap_or_default();
                for rw in suffixes {
                    let c = self.cnode_of(rw.to);
                    self.queue_composed(at, a, c, (edge, Some(rw)));
                }
                self.base_in.get_or_default(edge.to).push(edge);
            }
            EdgeKind::Rw(_) => {
                let c = self.cnode_of(edge.to);
                let bases: Vec<Edge> = self.base_in.get(edge.from).cloned().unwrap_or_default();
                for base in bases {
                    let a = self.cnode_of(base.from);
                    self.queue_composed(at, a, c, (base, Some(edge)));
                }
                self.rw_out.get_or_default(edge.from).push(edge);
            }
            EdgeKind::Rt => {}
        }
    }

    fn queue_composed(&mut self, at: TxnId, a: usize, c: usize, prov: (Edge, Option<Edge>)) {
        if self.record_composed(a, c, prov) {
            self.pending.push(PendingInsert {
                pair: Some((a, c)),
                edge: None,
                at,
            });
        }
    }

    /// SSER merge path: the chain *nodes* are still allocated immediately
    /// (their ids must be assigned in event order), but both the splice
    /// edges and the begin/end *hook* edges join the deferred queue like
    /// any dependency edge — so one flush inserts dependency and time-chain
    /// constraints together. Deferring the splice edges is safe because
    /// they can never be rejected (see [`mtc_history::TimeChain`]), so they
    /// can never be a batch's first offender.
    fn defer_time_bounds(&mut self, at: TxnId, begin: Option<u64>, end: Option<u64>) {
        let tnode = self.node_of(at);
        let mut pairs = std::mem::take(&mut self.time_scratch);
        pairs.clear();
        // Same pick-up as `apply_time_bounds`: admit pre-materialized the
        // anchors, the splice edges ride the deferred queue with the hooks.
        pairs.append(&mut self.time_prepairs);
        let (pre_begin, pre_end) = std::mem::take(&mut self.time_preanchors);
        if let Some(begin) = begin {
            let anchor = match pre_begin {
                Some(a) => a,
                None => self.time_anchor(begin, Role::Begin, &mut pairs),
            };
            pairs.push((anchor, tnode));
        }
        if let Some(end) = end {
            let anchor = match pre_end {
                Some(a) => a,
                None => self.time_anchor(end, Role::End, &mut pairs),
            };
            pairs.push((tnode, anchor));
        }
        for pair in pairs.drain(..) {
            self.pending.push(PendingInsert {
                pair: Some(pair),
                edge: None,
                at,
            });
        }
        self.time_scratch = pairs;
    }

    /// Drains the deferred queue: inserts the queued node pairs with one
    /// batched call, commits the accepted labelled edges to the dependency
    /// graph in sequence order, and — when the batch closes a cycle —
    /// latches exactly the violation the sequential path would latch, with
    /// the same canonical certificate, attributed to the same transaction.
    fn flush_deferred(&mut self) {
        if self.pending.is_empty() {
            return;
        }
        if self.done() {
            self.pending.clear();
            self.pending_set.clear();
            return;
        }
        let pending = std::mem::take(&mut self.pending);
        self.pending_set.clear();
        let mut pairs: Vec<(usize, usize)> = Vec::with_capacity(pending.len());
        let mut entry_of_pair: Vec<usize> = Vec::with_capacity(pending.len());
        for (i, p) in pending.iter().enumerate() {
            if let Some(pair) = p.pair {
                pairs.push(pair);
                entry_of_pair.push(i);
            }
        }
        let result = match self.level {
            IsolationLevel::SnapshotIsolation => self.composed.try_add_edges(&pairs),
            _ => self.topo.try_add_edges(&pairs),
        };
        match result {
            Ok(()) => {
                for p in &pending {
                    if let Some(e) = p.edge {
                        self.graph.add_edge(e.from, e.to, e.kind);
                    }
                }
            }
            Err((k, cycle)) => {
                let offender = entry_of_pair[k];
                for p in &pending[..=offender] {
                    if let Some(e) = p.edge {
                        self.graph.add_edge(e.from, e.to, e.kind);
                    }
                }
                let edges = match self.level {
                    IsolationLevel::Serializability => self.ser_cycle_edges(&cycle),
                    IsolationLevel::StrictSerializability => self.sser_cycle_edges(&cycle),
                    IsolationLevel::SnapshotIsolation => self.composed_cycle_edges(&cycle),
                };
                self.latch_violation(Violation::Cycle { edges }, pending[offender].at);
            }
        }
    }

    /// True iff an epoch boundary (per-key sweep, possibly a collection
    /// commit) is due under the configured policy.
    fn gc_due(&self) -> bool {
        match self.gc {
            Some(policy) => !self.done() && self.txn_count - self.last_gc >= policy.every,
            None => false,
        }
    }

    /// Advances the epoch clock at a due boundary; true iff this boundary
    /// is a collection commit, i.e. the caller should materialize the
    /// key-state refs and run [`Engine::collect`]. Every boundary sweeps the
    /// per-key state (so the reader-cap contract keeps its original
    /// cadence); only every [`GC_COMMIT_EPOCHS`]-th runs the graph-side
    /// candidate closure and prune.
    fn begin_epoch(&mut self) -> bool {
        self.last_gc = self.txn_count;
        self.gc_epochs += 1;
        if self.gc_epochs >= GC_COMMIT_EPOCHS {
            self.gc_epochs = 0;
            true
        } else {
            false
        }
    }

    /// True iff the next due epoch boundary will be a collection commit —
    /// the sharded checker asks *before* sweeping so the workers only
    /// materialize their refs when a commit will consume them.
    fn commit_epoch_next(&self) -> bool {
        self.gc_epochs + 1 >= GC_COMMIT_EPOCHS
    }

    /// The transaction-id watermark of the next collection: everything at or
    /// above it is inside the protected window.
    fn gc_watermark(&self) -> TxnId {
        let window = self.gc.map(|p| p.window).unwrap_or(usize::MAX);
        TxnId(self.txn_count.saturating_sub(window) as u32)
    }

    /// Retires the settled prefix below `watermark`: every resident
    /// transaction that is not referenced by the key-state (`refs`), is not
    /// the last of its session, and whose node has no retained predecessor
    /// — plus, in SSER mode, the time-chain prefix hooking only retired
    /// transactions. The retained structure answers every future insertion
    /// exactly as the unretired one would (see [`GcPolicy`] for the
    /// staleness-window contract).
    ///
    /// Callers must have flushed the deferred queue first.
    fn collect(&mut self, watermark: TxnId, refs: &HashSet<TxnId>) {
        if self.done() {
            return;
        }
        debug_assert!(self.pending.is_empty(), "collect() with a deferred queue");

        // ── candidate transactions ──
        // Membership is a bitmap over transaction ids below the watermark
        // (plus the ordered list for iteration): the closure loop below
        // tests and clears membership per predecessor walk, and bitmaps
        // make those index arithmetic instead of hash probes.
        let keep_sessions: FastHashSet<TxnId> =
            self.sessions.iter().flatten().map(|&(t, _)| t).collect();
        let mut cand_list: Vec<TxnId> = self
            .live_txns
            .range(..watermark)
            .map(|(&t, _)| t)
            .filter(|t| !(self.has_init && t.0 == 0)) // ⊥T anchors new sessions
            .filter(|t| !refs.contains(t))
            .filter(|t| !keep_sessions.contains(t))
            .collect();
        let mut cand = vec![false; watermark.0 as usize];
        for &t in &cand_list {
            cand[t.index()] = true;
        }

        // ── candidate time-chain prefix (SSER) ──
        // `cut`: the smallest instant any retained transaction (other than
        // ⊥T) is hooked at; slots strictly below it hook candidates only.
        // ⊥T's own slot is never pruned — it anchors the chain, and the
        // deliberate cut edge out of it is deleted and replaced by a
        // shortcut to the first retained slot.
        let mut pruned_slots: Vec<(u64, TimeSlot)> = Vec::new();
        let mut chain_low = 0u64;
        if self.level == IsolationLevel::StrictSerializability && !self.chain.is_empty() {
            let bot = self
                .has_init
                .then(|| self.live_txns.get(&TxnId(0)))
                .flatten();
            chain_low = bot
                .map(|m| {
                    m.begin
                        .into_iter()
                        .chain(m.end)
                        .max()
                        .map_or(0, |t| t.saturating_add(1))
                })
                .unwrap_or(0);
            let cut = self
                .live_txns
                .iter()
                .filter(|(t, _)| {
                    !(cand.get(t.index()).copied().unwrap_or(false) || self.has_init && t.0 == 0)
                })
                .filter_map(|(_, m)| m.begin.into_iter().chain(m.end).min())
                .min()
                .unwrap_or(u64::MAX);
            if cut > chain_low {
                pruned_slots = self.chain.slots_in(chain_low, cut);
            }
        }
        // Deliberate cut sources: nodes that are provably unreachable from
        // every transaction node, so their edges *into* the pruned set can
        // be deleted without losing any constraint a future counterexample
        // path could use. That is ⊥T itself — nothing ever points into it
        // (its begin-time hook comes from the equally unreachable first
        // chain slot) — and the end nodes of the permanently retained chain
        // slots below the pruned range (⊥T's instants).
        let mut cut_sources: Vec<usize> = self
            .chain
            .slots_in(0, chain_low)
            .iter()
            .map(|&(_, s)| s.end_node)
            .collect();
        let si = self.level == IsolationLevel::SnapshotIsolation;
        let bot_cnode = if self.has_init {
            cut_sources.push(self.node_of(TxnId(0)));
            si.then(|| self.cnode_of(TxnId(0)))
        } else {
            None
        };

        // ── closure: drop candidates that anything retained still points at ──
        // `in_nodes` / `in_cnodes` mirror the candidate set as bitmaps over
        // (composed-)order node ids; dropped members are unmarked in place,
        // so each round's predecessor walks are pure index arithmetic.
        let nb = self.topo.node_count();
        let mut in_nodes = vec![false; nb];
        let mut cut_mask = vec![false; nb];
        for &s in &cut_sources {
            cut_mask[s] = true;
        }
        for &t in &cand_list {
            in_nodes[self.node_of(t)] = true;
        }
        for &(_, s) in &pruned_slots {
            for n in s.nodes() {
                in_nodes[n] = true;
            }
        }
        // Chain-exit anchors of candidate slots that the closure retains.
        // A retained slot's exit only ever points *forward* along the chain
        // (splice, split and shortcut edges all follow instant order), so it
        // is an acceptable predecessor of a later candidate: the collection
        // commit deletes its edges into the pruned set and re-establishes
        // the chain order with one shortcut per pruned run. Without this, a
        // single straggler-pinned slot would cascade-retain every slot (and
        // transaction) behind it.
        let mut slot_out_mask = vec![false; nb];
        let mut slot_dead = vec![false; pruned_slots.len()];
        let mut in_cnodes = vec![false; if si { self.composed.node_count() } else { 0 }];
        if si {
            for &t in &cand_list {
                in_cnodes[self.cnode_of(t)] = true;
            }
        }
        loop {
            let mut drop_txns: Vec<TxnId> = Vec::new();
            let mut drop_slots: Vec<usize> = Vec::new();
            for &t in &cand_list {
                if !cand[t.index()] {
                    continue;
                }
                let n = self.node_of(t);
                if self
                    .topo
                    .predecessors(n)
                    .any(|p| !in_nodes[p] && !cut_mask[p] && !slot_out_mask[p])
                {
                    drop_txns.push(t);
                }
            }
            for (i, &(_, s)) in pruned_slots.iter().enumerate() {
                if slot_dead[i] {
                    continue;
                }
                let bad = s.nodes().any(|n| {
                    self.topo
                        .predecessors(n)
                        .any(|p| !in_nodes[p] && !cut_mask[p] && !slot_out_mask[p])
                });
                if bad {
                    drop_slots.push(i);
                }
            }
            if si {
                for &t in &cand_list {
                    if !cand[t.index()] {
                        continue;
                    }
                    let n = self.cnode_of(t);
                    if self
                        .composed
                        .predecessors(n)
                        .any(|p| !in_cnodes[p] && Some(p) != bot_cnode)
                    {
                        drop_txns.push(t);
                    }
                }
                // A retained composition index must never compose a new
                // edge that touches a pruned endpoint. Only *active* owners
                // can still compose: `base_in[b]` fires on a new RW edge
                // out of `b`, which needs `b` in a live readers list
                // (trimmed to ≥ watermark); `rw_out[b]` fires on a new base
                // edge into `b`, which makes `b` a reader of a fresh
                // resolution — a new transaction or one with a pending read
                // (pinned via `refs`). Entries of settled owners are inert
                // and must not disqualify their endpoints.
                let is_cand = |t: TxnId| cand.get(t.index()).copied().unwrap_or(false);
                let active = |owner: TxnId| owner >= watermark || refs.contains(&owner);
                for (owner, edges) in self.base_in.iter() {
                    if active(owner) {
                        drop_txns.extend(edges.iter().map(|e| e.from).filter(|&t| is_cand(t)));
                    }
                }
                for (owner, edges) in self.rw_out.iter() {
                    if active(owner) {
                        drop_txns.extend(edges.iter().map(|e| e.to).filter(|&t| is_cand(t)));
                    }
                }
            }
            if drop_txns.is_empty() && drop_slots.is_empty() {
                break;
            }
            for t in drop_txns {
                if cand[t.index()] {
                    cand[t.index()] = false;
                    in_nodes[self.node_of(t)] = false;
                    if si {
                        in_cnodes[self.cnode_of(t)] = false;
                    }
                }
            }
            for i in drop_slots {
                slot_dead[i] = true;
                let (_, s) = pruned_slots[i];
                for n in s.nodes() {
                    in_nodes[n] = false;
                }
                slot_out_mask[s.end_node] = true;
            }
        }
        cand_list.retain(|&t| cand[t.index()]);
        let mut dead = slot_dead.iter();
        pruned_slots.retain(|_| !*dead.next().expect("one flag per slot"));
        if cand_list.is_empty() && pruned_slots.is_empty() {
            return;
        }

        // ── commit the collection ──
        let mut nodes: Vec<usize> = cand_list.iter().map(|&t| self.node_of(t)).collect();
        for &(_, s) in &pruned_slots {
            nodes.extend(s.nodes());
        }
        // Closure-retained slots keep their chain exits as deliberate cut
        // sources: their forward edges into the pruned runs are deleted and
        // replaced by one shortcut per run below.
        for (s, _) in slot_out_mask.iter().enumerate().filter(|&(_, &m)| m) {
            cut_sources.push(s);
        }
        // Group the surviving slots into maximal chain-adjacent runs; each
        // run is bridged by a single shortcut from the retained slot just
        // below it to the retained slot just above it (when both exist), so
        // the retained chain order survives mid-chain compaction, not just
        // prefix pruning.
        let mut runs: Vec<(u64, u64)> = Vec::new();
        for &(t, _) in &pruned_slots {
            match runs.last_mut() {
                Some(run) if self.chain.succ(run.1).map(|(n, _)| n) == Some(t) => run.1 = t,
                _ => runs.push((t, t)),
            }
        }
        for &(first, last) in &runs {
            if let (Some((_, a)), Some((_, s))) = (self.chain.pred(first), self.chain.succ(last)) {
                if !self.topo.has_edge(a.end_node, s.begin_node) {
                    self.topo
                        .try_add_edge(a.end_node, s.begin_node)
                        .expect("chain shortcut follows the existing order");
                }
            }
        }
        for &(first, last) in &runs {
            self.chain.remove_range(first, last + 1);
        }
        for &src in &cut_sources {
            self.topo.remove_edges_into(src, &nodes);
        }
        self.topo.prune(&nodes);
        if si {
            let cand_cnodes: Vec<usize> = cand_list.iter().map(|&t| self.cnode_of(t)).collect();
            if let Some(bc) = bot_cnode {
                self.composed.remove_edges_into(bc, &cand_cnodes);
            }
            self.composed.prune(&cand_cnodes);
            // `in_cnodes` now flags exactly the surviving candidates.
            self.composed_prov.prune(&in_cnodes);
        }
        self.graph
            .prune_nodes(|t| cand.get(t.index()).copied().unwrap_or(false));
        for &t in &cand_list {
            self.txn_node.remove(t);
            self.txn_cnode.remove(t);
            self.base_in.remove(t);
            self.rw_out.remove(t);
            self.live_txns.remove(&t);
        }
        self.pruned_txns += cand_list.len();
        // Re-base the windowed maps: the dense blocks track the live window
        // and the (bounded) set of pinned stragglers spills into the low
        // maps, so resident memory stays proportional to the window.
        self.txn_node.rebase(watermark.0);
        self.txn_cnode.rebase(watermark.0);
        self.base_in.rebase(watermark.0);
        self.rw_out.rebase(watermark.0);
    }
}

/// Where (and whether) the DIVERGENCE scan's events sort for the given
/// level and options. SER never scans; SI scans before the edges by default
/// and after them in ablation mode (matching `check_si_with`, which always
/// re-checks divergence because the composed graph can mask it).
fn divergence_pass(level: IsolationLevel, opts: &CheckOptions) -> Option<u8> {
    (level == IsolationLevel::SnapshotIsolation).then_some(if opts.skip_divergence_early_exit {
        PASS_LATE_DIVERGENCE
    } else {
        PASS_DIVERGENCE
    })
}

// ───────────────────────── public checkers ──────────────────────────────────

/// Starts a sampled per-transaction ingest span: times every 16th push.
/// At ~1M txns/s the two `Instant::now` calls of an unsampled span would
/// alone cost ~5% of the ingest budget; uniform 1-in-16 sampling keeps the
/// `checker.ingest_txn_micros` quantiles honest at ~0.3% overhead.
#[inline]
fn obs_ingest_timer() -> Option<std::time::Instant> {
    if !mtc_obs::enabled() {
        return None;
    }
    thread_local! {
        static TICK: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    }
    TICK.with(|t| {
        let v = t.get().wrapping_add(1);
        t.set(v);
        (v % 16 == 0).then(std::time::Instant::now)
    })
}

/// Streaming verdict over the prefix consumed so far.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StreamStatus {
    /// No violation is provable from the consumed prefix.
    ConsistentSoFar,
    /// The prefix already violates the isolation level.
    Violated,
}

/// A complete, self-contained snapshot of a streaming checker: everything
/// needed to resume verification exactly where it stopped — the engine
/// (graphs, maintained orders, time-chain, verdict latch) plus the per-key
/// provenance indexes.
///
/// Snapshots are geometry-independent: a snapshot taken from the sequential
/// checker resumes into a sharded one and vice versa (the key state is
/// re-partitioned along the same `hash(key) mod shards` split the workers
/// use). They serialize through the workspace serde stack, so `mtc-store`
/// can frame them into checkpoint files; a resumed checker finishes with a
/// verdict — violation payload and `first_violation_at` included —
/// bit-identical to the uninterrupted run's.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckerSnapshot {
    /// Snapshot format version.
    version: u32,
    /// Shard count of the checkpointing checker (1 for the sequential one).
    shards: usize,
    engine: Engine,
    /// One key state per shard of the checkpointing checker.
    keys: Vec<KeyState>,
}

/// Current snapshot format version. Bumped to 2 when the per-key state
/// gained explicit reader-eviction markers (the GC reader-cap feature); to
/// 3 when the engine's hot maps moved to windowed arenas ([`TxnMap`] /
/// [`ProvMap`] layouts) and the GC gained epoch scheduling (`gc_epochs`);
/// to 4 when the time-chain moved to collapsed single-node slots with lazy
/// role splitting (the `TimeChain` serialization changed shape).
pub const SNAPSHOT_VERSION: u32 = 4;

impl CheckerSnapshot {
    /// The isolation level the snapshotted checker enforces.
    pub fn level(&self) -> IsolationLevel {
        self.engine.level
    }

    /// Transactions consumed when the snapshot was taken (including `⊥T`).
    pub fn txn_count(&self) -> usize {
        self.engine.txn_count
    }

    /// Shard count of the checker that took the snapshot.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Snapshot format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The reader-eviction markers carried by the snapshot, across all of
    /// its shards (sorted; see [`GcPolicy`]'s reader-cap contract).
    pub fn reader_evictions(&self) -> Vec<Eviction> {
        let mut out: Vec<Eviction> = self.keys.iter().flat_map(KeyState::evictions).collect();
        out.sort_by_key(|e| (e.writer, e.key));
        out
    }
}

/// An online SER/SI checker consuming committed transactions one at a time.
///
/// ```
/// use mtc_core::{IncrementalChecker, IsolationLevel};
/// use mtc_history::Op;
///
/// let mut checker = IncrementalChecker::new_ser().with_init_keys(0..2u64);
/// checker.push_committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 7u64)]).unwrap();
/// checker.push_committed(1, vec![Op::read(0u64, 7u64)]).unwrap();
/// assert!(checker.violation().is_none());
/// assert!(checker.finish().unwrap().is_satisfied());
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalChecker {
    engine: Engine,
    keys: KeyState,
}

impl IncrementalChecker {
    /// A streaming checker for `level` with default [`CheckOptions`] (the
    /// very same defaults the batch checkers use).
    ///
    /// For [`IsolationLevel::StrictSerializability`], transactions should be
    /// fed with begin/commit instants (the `*_timed` push methods, or
    /// [`Transaction`]s carrying `begin`/`end`); untimed transactions simply
    /// contribute no real-time constraints, exactly as in the batch
    /// [`crate::check_sser`].
    pub fn new(level: IsolationLevel) -> Self {
        IncrementalChecker {
            engine: Engine::new(level, CheckOptions::default()),
            keys: KeyState::default(),
        }
    }

    /// A streaming `CHECKSER`.
    pub fn new_ser() -> Self {
        IncrementalChecker::new(IsolationLevel::Serializability)
    }

    /// A streaming `CHECKSI`.
    pub fn new_si() -> Self {
        IncrementalChecker::new(IsolationLevel::SnapshotIsolation)
    }

    /// A streaming `CHECKSSER`: an online strict-serializability checker.
    ///
    /// Push each committed transaction together with its wall-clock begin
    /// and commit-acknowledgement instants
    /// ([`IncrementalChecker::push_committed_timed`]); the checker splices
    /// the instants into an online time-chain ([`mtc_history::TimeChain`])
    /// and latches a violation the moment a dependency edge contradicts the
    /// real-time order — including commits whose instants arrive out of
    /// order (clock skew, long-running transactions). Reads whose writer has
    /// not appeared yet are the only thing deferred to
    /// [`IncrementalChecker::finish`], exactly as for SER/SI, so final
    /// verdicts agree with [`crate::check_sser`] and
    /// [`crate::check_sser_naive`].
    ///
    /// ```
    /// use mtc_core::{IncrementalChecker, StreamStatus};
    /// use mtc_history::Op;
    ///
    /// let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
    /// // T1 = [10, 20] installs x = 7 ...
    /// checker
    ///     .push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 7u64)], 10, 20)
    ///     .unwrap();
    /// // ... and T2 = [30, 40] starts after T1 finished but misses its write.
    /// let status = checker
    ///     .push_committed_timed(1, vec![Op::read(0u64, 0u64)], 30, 40)
    ///     .unwrap();
    /// assert_eq!(status, StreamStatus::Violated);
    /// assert!(checker.finish().unwrap().is_violated());
    /// ```
    pub fn new_sser() -> Self {
        IncrementalChecker::new(IsolationLevel::StrictSerializability)
    }

    /// Overrides the tuning options (shared with the batch checkers).
    pub fn with_options(mut self, opts: CheckOptions) -> Self {
        self.engine.opts = opts;
        self
    }

    /// Enables settled-prefix garbage collection (see [`GcPolicy`]): memory
    /// stays proportional to the active window instead of the history.
    pub fn with_gc(mut self, policy: GcPolicy) -> Self {
        self.set_gc(policy);
        self
    }

    /// Non-consuming form of [`IncrementalChecker::with_gc`].
    pub fn set_gc(&mut self, policy: GcPolicy) {
        self.engine.gc = Some(policy.normalized());
    }

    /// The garbage-collection policy in effect, if any.
    pub fn gc_policy(&self) -> Option<GcPolicy> {
        self.engine.gc
    }

    /// Number of transactions currently resident (not retired by the GC).
    pub fn live_txn_count(&self) -> usize {
        self.engine.live_txns.len()
    }

    /// Number of live nodes in the maintained order(s) — transactions plus,
    /// in SSER mode, time-chain nodes. The quantity the GC bounds.
    pub fn live_node_count(&self) -> usize {
        self.engine
            .topo
            .live_node_count()
            .max(self.engine.composed.live_node_count())
    }

    /// Explicit eviction markers recorded by the GC's reader-list cap: one
    /// per live version whose resident reader list was trimmed beyond the
    /// staleness window. Empty unless [`GcPolicy::reader_cap`] is set. A
    /// clean verdict with a non-empty marker set is a qualified
    /// certificate (see [`GcPolicy`]).
    pub fn reader_evictions(&self) -> Vec<Eviction> {
        self.keys.evictions()
    }

    /// Total reader entries dropped by the GC's reader-list cap so far.
    pub fn reader_eviction_count(&self) -> u64 {
        self.keys.evicted.values().sum()
    }

    /// Longest resident reader list across all live versions — the register
    /// state a hot, never-overwritten key accumulates; the quantity
    /// [`GcPolicy::reader_cap`] bounds.
    pub fn max_reader_list_len(&self) -> usize {
        self.keys.max_reader_list_len()
    }

    /// Transactions retired by the GC so far.
    pub fn pruned_txn_count(&self) -> usize {
        self.engine.pruned_txns
    }

    /// Captures a complete [`CheckerSnapshot`] of the current state.
    pub fn checkpoint(&self) -> CheckerSnapshot {
        CheckerSnapshot {
            version: SNAPSHOT_VERSION,
            shards: 1,
            engine: self.engine.clone(),
            keys: vec![self.keys.clone()],
        }
    }

    /// Reconstructs a sequential checker from a snapshot (taken from a
    /// sequential *or* sharded checker — shard key states are merged). The
    /// resumed checker continues exactly where the snapshot stopped:
    /// feeding it the remaining stream yields a verdict bit-identical to
    /// the uninterrupted run's.
    pub fn resume(snapshot: CheckerSnapshot) -> Self {
        let CheckerSnapshot { engine, keys, .. } = snapshot;
        let mut engine = engine;
        engine.graph.rebuild_index();
        IncrementalChecker {
            engine,
            keys: KeyState::merge(keys),
        }
    }

    /// Seeds the stream with the initial transaction `⊥T` writing
    /// [`INIT_VALUE`] to `keys`, exactly like
    /// [`mtc_history::HistoryBuilder::with_init_keys`].
    pub fn with_init_keys<K: Into<Key>, I: IntoIterator<Item = K>>(mut self, keys: I) -> Self {
        assert_eq!(self.engine.txn_count, 0, "⊥T must be the first transaction");
        let ops = keys
            .into_iter()
            .map(|k| Op::Write {
                key: k.into(),
                value: INIT_VALUE,
            })
            .collect();
        let init = Transaction {
            id: TxnId(0),
            session: SessionId::INIT,
            ops,
            status: TxnStatus::Committed,
            begin: Some(0),
            end: Some(0),
        };
        self.feed(init, true);
        self
    }

    /// Feeds the next transaction of the stream (committed or aborted). The
    /// transaction is assigned the next dense id, mirroring
    /// [`mtc_history::HistoryBuilder`] numbering.
    ///
    /// Returns the streaming status for the consumed prefix, or the error
    /// that took the input outside the checker's domain. Both violations and
    /// errors latch: later pushes are cheap no-ops returning the same answer.
    pub fn push(&mut self, mut txn: Transaction) -> Result<StreamStatus, CheckError> {
        txn.id = TxnId(self.engine.txn_count as u32);
        self.feed(txn, false);
        self.status_result()
    }

    /// Convenience: feeds a committed transaction.
    pub fn push_committed(
        &mut self,
        session: u32,
        ops: Vec<Op>,
    ) -> Result<StreamStatus, CheckError> {
        let txn = Transaction::committed(TxnId(0), SessionId(session), ops);
        self.push(txn)
    }

    /// Convenience: feeds an aborted transaction (participates in
    /// `ABORTEDREAD` provenance, contributes no edges).
    pub fn push_aborted(&mut self, session: u32, ops: Vec<Op>) -> Result<StreamStatus, CheckError> {
        let txn = Transaction::aborted(TxnId(0), SessionId(session), ops);
        self.push(txn)
    }

    /// Convenience: feeds a committed transaction with wall-clock begin and
    /// commit-acknowledgement instants (the inputs of the SSER time-chain;
    /// ignored by SER/SI checkers).
    pub fn push_committed_timed(
        &mut self,
        session: u32,
        ops: Vec<Op>,
        begin: u64,
        end: u64,
    ) -> Result<StreamStatus, CheckError> {
        let txn = Transaction::committed(TxnId(0), SessionId(session), ops).with_times(begin, end);
        self.push(txn)
    }

    /// Replays a complete [`mtc_history::History`] in transaction-id order:
    /// seeds `⊥T` first when the history has one (the checker must be empty
    /// in that case) and pushes every other transaction. This is the single
    /// replay path shared by [`check_streaming`] and `mtc-runner`.
    pub fn push_history(
        &mut self,
        history: &mtc_history::History,
    ) -> Result<StreamStatus, CheckError> {
        if let Some(init) = history.init_txn() {
            assert_eq!(
                self.engine.txn_count, 0,
                "a history with ⊥T can only be replayed into an empty checker"
            );
            self.feed(history.txn(init).clone(), true);
        }
        for txn in history.txns() {
            if Some(txn.id) == history.init_txn() {
                continue;
            }
            let _ = self.push(txn.clone());
        }
        self.status_result()
    }

    fn feed(&mut self, txn: Transaction, is_init: bool) {
        if self.engine.done() {
            self.engine.txn_count += 1;
            return;
        }
        let ingest_timer = obs_ingest_timer();
        let work = decompose(&txn, is_init);
        let mut events = self.engine.admit(&txn, is_init);
        let opts = self.engine.opts;
        self.keys.derive(
            &work,
            |_| true,
            divergence_pass(self.engine.level, &opts),
            self.engine.has_init,
            opts.validate_mt,
            opts.prescan_intra,
            &mut events,
        );
        events.sort_by_key(|e| (e.pass, e.key_rank, e.seq));
        for e in events {
            self.engine.apply(txn.id, e.event);
        }
        if self.engine.gc_due() {
            let gc_timer = mtc_obs::enabled().then(std::time::Instant::now);
            let watermark = self.engine.gc_watermark();
            let cap = self.engine.gc.map_or(0, |g| g.reader_cap);
            self.keys.sweep(watermark, cap);
            if self.engine.begin_epoch() {
                let before = gc_timer.is_some().then(|| self.live_node_count());
                let refs = self.keys.refs();
                self.engine.collect(watermark, &refs);
                if let Some(before) = before {
                    mtc_obs::histogram!("checker.gc_reclaimed_nodes")
                        .record(before.saturating_sub(self.live_node_count()) as u64);
                }
            }
            if let Some(t0) = gc_timer {
                mtc_obs::histogram!("checker.gc_epoch_micros")
                    .record(t0.elapsed().as_micros() as u64);
            }
        }
        if let Some(t0) = ingest_timer {
            mtc_obs::histogram!("checker.ingest_txn_micros")
                .record(t0.elapsed().as_micros() as u64);
        }
    }

    fn status_result(&self) -> Result<StreamStatus, CheckError> {
        if let Some(e) = &self.engine.error {
            return Err(e.clone());
        }
        if self.engine.violation.is_some() {
            Ok(StreamStatus::Violated)
        } else {
            Ok(StreamStatus::ConsistentSoFar)
        }
    }

    /// The latched violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.engine.violation.as_ref()
    }

    /// True iff the consumed prefix already violates the isolation level.
    pub fn is_violated(&self) -> bool {
        self.engine.violation.is_some()
    }

    /// Id of the transaction whose consumption latched the violation — the
    /// basis of the time-to-first-violation metric.
    pub fn first_violation_at(&self) -> Option<TxnId> {
        self.engine.violated_at
    }

    /// Number of transactions consumed (including `⊥T` and aborted ones).
    pub fn txn_count(&self) -> usize {
        self.engine.txn_count
    }

    /// Number of labelled dependency edges derived so far.
    pub fn edge_count(&self) -> usize {
        self.engine.graph.edge_count()
    }

    /// Number of distinct begin/commit instants spliced into the SSER
    /// time-chain so far (always 0 for SER/SI).
    pub fn time_instant_count(&self) -> usize {
        self.engine.chain.len()
    }

    /// The dependency graph grown so far (for inspection / reporting).
    pub fn graph(&self) -> &DependencyGraph {
        &self.engine.graph
    }

    /// The isolation level being enforced.
    pub fn level(&self) -> IsolationLevel {
        self.engine.level
    }

    /// The options in effect.
    pub fn options(&self) -> &CheckOptions {
        &self.engine.opts
    }

    /// Ends the stream: settles reads still waiting for a writer (they can
    /// no longer be satisfied) and returns the final verdict, which agrees
    /// with the batch checkers on the equivalent [`mtc_history::History`].
    pub fn finish(mut self) -> Result<Verdict, CheckError> {
        if let Some(e) = self.engine.error {
            return Err(e);
        }
        if let Some(v) = self.engine.violation {
            return Ok(Verdict::Violated(v));
        }
        if self.engine.opts.prescan_intra {
            let pending = self.keys.drain_pending();
            if !pending.is_empty() {
                let violations: Vec<IntraViolation> = pending
                    .iter()
                    .map(|p| self.keys.classify_settled(p))
                    .collect();
                return Ok(Verdict::Violated(Violation::Intra(violations)));
            }
        } else {
            // Without the pre-scan, an unreadable value is a domain error,
            // exactly as in `BUILDDEPENDENCY`.
            let pending = self.keys.drain_pending();
            if let Some(p) = pending.first() {
                return Err(CheckError::UnreadableValue {
                    txn: p.txn,
                    key: p.key,
                    value: p.value,
                });
            }
        }
        Ok(Verdict::Satisfied)
    }
}

/// Runs a complete [`mtc_history::History`] through an
/// [`IncrementalChecker`] in transaction-id order — the drop-in streaming
/// replacement for [`crate::check_ser`] / [`crate::check_si`] /
/// [`crate::check_sser`].
pub fn check_streaming(
    level: IsolationLevel,
    history: &mtc_history::History,
) -> Result<Verdict, CheckError> {
    check_streaming_with(level, history, &CheckOptions::default())
}

/// [`check_streaming`] with explicit options.
pub fn check_streaming_with(
    level: IsolationLevel,
    history: &mtc_history::History,
    opts: &CheckOptions,
) -> Result<Verdict, CheckError> {
    let mut checker = IncrementalChecker::new(level).with_options(*opts);
    let _ = checker.push_history(history);
    checker.finish()
}

/// Runs a complete history through a [`ShardedIncrementalChecker`], feeding
/// it in batches of `batch` transactions across `shards` workers.
pub fn check_streaming_sharded(
    level: IsolationLevel,
    history: &mtc_history::History,
    shards: usize,
    batch: usize,
) -> Result<Verdict, CheckError> {
    let mut checker = ShardedIncrementalChecker::new(level, shards);
    let _ = checker.push_history(history, batch);
    checker.finish()
}

// ───────────────────────── sharded checker ──────────────────────────────────

/// Key-sharded streaming checker: per-key edge derivation fans out across a
/// pool of persistent worker threads (one per shard, each owning the key
/// state of its shard), and the resulting events merge into the shared
/// topological order in canonical `(transaction, pass, key)` order — so
/// verdicts are identical to [`IncrementalChecker`]'s by construction.
///
/// Feed it batches with [`ShardedIncrementalChecker::push_batch`]; larger
/// batches amortize the per-batch hand-off to the pool. With one shard no
/// threads are spawned and the behaviour degenerates to the sequential
/// checker.
#[derive(Debug)]
pub struct ShardedIncrementalChecker {
    engine: Engine,
    pool: ShardPool,
    /// Cumulative reader-eviction count last reported by each worker
    /// (updated at every collect; see [`GcPolicy`]'s reader-cap contract).
    worker_evictions: Vec<u64>,
}

fn shard_of(key: Key, shards: usize) -> usize {
    // Multiplicative hash so that striped and clustered key spaces spread.
    (key.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize % shards
}

/// One batch of decomposed transactions plus the option snapshot the workers
/// need to derive events for it.
struct BatchJob {
    works: Vec<TxnWork>,
    divergence_pass: Option<u8>,
    has_init: bool,
    validate_mt: bool,
    prescan: bool,
    /// How the workers turn local structure into early-latch hints.
    hints: HintMode,
}

/// How a shard's pre-filter derives early-latch hints from its local edges.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum HintMode {
    /// SER/SSER: a cycle in the shard's local dependency order is already a
    /// violation (the local edge set is a subset of the global one).
    Direct,
    /// SI: violations live in the *composed* graph, so the shard maintains
    /// its local `(WR ∪ WW) ; RW?` fragment — compositions of its own base
    /// and RW edges, a subset of the global composed edge set — and hints
    /// when a fragment edge closes a cycle there.
    Composed,
}

enum ShardMsg {
    Batch(std::sync::Arc<BatchJob>),
    /// Run the settled-prefix sweep at the given watermark (second field:
    /// the policy's reader-list cap). The third field asks the shard to
    /// materialize and reply with the transactions it still references —
    /// set only at collection-commit epochs; the sweeps in between reply
    /// with an empty set (the merge thread still needs the eviction count).
    Collect(TxnId, usize, bool),
    /// Clone and return the shard's key state (checkpointing).
    Snapshot,
    /// Replace the shard's key state (resuming from a checkpoint).
    Restore(Box<KeyState>),
    /// End of stream: drain and classify the shard's pending reads.
    Finish,
}

enum ShardReply {
    /// Per transaction of the batch, the shard's tagged events (duplicates
    /// already filtered), plus the batch index of the first transaction
    /// whose edges closed a cycle in the shard's *local* order, if any.
    Events(Vec<Vec<TaggedEvent>>, Option<usize>),
    /// Transactions still referenced by the shard, plus the shard's
    /// cumulative reader-eviction count (reply to [`ShardMsg::Collect`]).
    Refs(HashSet<TxnId>, u64),
    /// The shard's key state (reply to [`ShardMsg::Snapshot`]).
    State(Box<KeyState>),
    /// Settled pending reads, classified (reply to [`ShardMsg::Finish`]).
    Settled(Vec<IntraViolation>),
}

/// Per-worker pre-filter: a local Pearce–Kelly order over the shard's own
/// edges plus a dedup set of the add-if-absent edges already forwarded.
///
/// * Duplicate `dedup` edges are dropped before the hand-off. Every RW edge
///   of a key is derived by the single shard owning that key, so the local
///   set sees exactly what the merge thread's graph would see — the merge
///   outcome is unchanged, the channel traffic and merge work shrink.
/// * An edge that closes a cycle in the local order certifies a violation
///   no later than the transaction being derived (the local edge set is a
///   subset of the global one — at SI the local *composed fragment* is a
///   subset of the global composed edge set). The worker reports the
///   transaction's batch index as a *hint*; the merge thread flushes its
///   deferred queue right after that transaction, latching the violation
///   without collecting or merging the rest of the batch.
#[derive(Debug, Default)]
struct ShardPrefilter {
    /// SER/SSER: the local dependency order. SI: the local *composed*
    /// order (nodes still keyed by transaction via `node_of`).
    topo: IncrementalTopo,
    node_of: HashMap<TxnId, usize>,
    forwarded: HashSet<(TxnId, TxnId, EdgeKind)>,
    /// SI fragment state: sources of the shard's base (WR/WW) edges into a
    /// transaction, mirroring the merge engine's `base_in`.
    base_in: HashMap<TxnId, Vec<TxnId>>,
    /// SI fragment state: targets of the shard's RW edges out of a
    /// transaction, mirroring the merge engine's `rw_out`.
    rw_out: HashMap<TxnId, Vec<TxnId>>,
    /// Composed pairs already inserted into the local order (first
    /// provenance wins, like the merge engine's `ProvMap`).
    composed: HashSet<(TxnId, TxnId)>,
}

impl ShardPrefilter {
    /// Filters one transaction's events in place; true iff an edge closed a
    /// cycle in the local (direct or composed) order.
    fn filter(&mut self, events: &mut Vec<TaggedEvent>, mode: HintMode) -> bool {
        let mut local_cycle = false;
        let (mut dropped, mut forwarded) = (0u64, 0u64);
        events.retain(|e| {
            let Event::Edge {
                from,
                to,
                kind,
                dedup,
            } = e.event
            else {
                return true;
            };
            if dedup && !self.forwarded.insert((from, to, kind)) {
                dropped += 1;
                return false;
            }
            let hit = match mode {
                HintMode::Direct => {
                    let u = self.node(from);
                    let v = self.node(to);
                    self.topo.try_add_edge(u, v).is_err()
                }
                HintMode::Composed => self.compose_local(from, to, kind),
            };
            local_cycle |= hit;
            forwarded += 1;
            true
        });
        // Pre-filter hit rate = dropped / (dropped + forwarded): the share
        // of derived edges the workers kept off the merge thread.
        mtc_obs::counter!("checker.prefilter_dropped_edges").add(dropped);
        mtc_obs::counter!("checker.prefilter_forwarded_edges").add(forwarded);
        if local_cycle {
            mtc_obs::counter!("checker.prefilter_cycle_hints").add(1);
        }
        local_cycle
    }

    /// Extends the local composed fragment with one shard-derived edge,
    /// mirroring the merge engine's `apply_si_edge` over shard-local state:
    /// a base (WR/WW) edge enters composed both bare and extended by every
    /// known RW suffix; an RW edge extends every known base into its
    /// source. True iff a new composed pair closed a cycle locally.
    fn compose_local(&mut self, from: TxnId, to: TxnId, kind: EdgeKind) -> bool {
        match kind {
            EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_) => {
                let mut cycle = self.composed_pair(from, to);
                if let Some(suffixes) = self.rw_out.get(&to) {
                    for c in suffixes.clone() {
                        cycle |= self.composed_pair(from, c);
                    }
                }
                self.base_in.entry(to).or_default().push(from);
                cycle
            }
            EdgeKind::Rw(_) => {
                let mut cycle = false;
                if let Some(bases) = self.base_in.get(&from) {
                    for a in bases.clone() {
                        cycle |= self.composed_pair(a, to);
                    }
                }
                self.rw_out.entry(from).or_default().push(to);
                cycle
            }
            EdgeKind::Rt => false,
        }
    }

    /// Inserts one composed pair into the local order (first occurrence
    /// only); true iff it closed a cycle there.
    fn composed_pair(&mut self, a: TxnId, c: TxnId) -> bool {
        if !self.composed.insert((a, c)) {
            return false;
        }
        let u = self.node(a);
        let v = self.node(c);
        self.topo.try_add_edge(u, v).is_err()
    }

    fn node(&mut self, txn: TxnId) -> usize {
        match self.node_of.get(&txn) {
            Some(&n) => n,
            None => {
                let n = self.topo.add_node();
                self.node_of.insert(txn, n);
                n
            }
        }
    }

    /// Shrinks the pre-filter at a GC watermark. The local order and the SI
    /// fragment are rebuilt empty (they only power early-latch *hints*,
    /// never verdicts) and the dedup set keeps only pairs with a live
    /// endpoint — retired versions can never re-derive their RW edges, and
    /// the merge thread re-checks duplicates against its graph anyway.
    fn trim(&mut self, watermark: TxnId) {
        self.topo = IncrementalTopo::new();
        self.node_of = HashMap::new();
        self.base_in = HashMap::new();
        self.rw_out = HashMap::new();
        self.composed = HashSet::new();
        self.forwarded
            .retain(|&(from, to, _)| from >= watermark || to >= watermark);
    }
}

#[derive(Debug)]
struct ShardWorker {
    tx: Option<std::sync::mpsc::Sender<ShardMsg>>,
    rx: std::sync::mpsc::Receiver<ShardReply>,
    handle: Option<std::thread::JoinHandle<()>>,
}

#[derive(Debug)]
enum ShardPool {
    /// Single shard: derive inline, no threads.
    Inline(Box<KeyState>),
    Workers {
        workers: Vec<ShardWorker>,
        /// One clone per live worker thread; lets the pool (and its tests)
        /// observe that every thread has actually exited after a shutdown.
        alive: std::sync::Arc<()>,
    },
}

impl ShardPool {
    fn new(shards: usize) -> Self {
        if shards == 1 {
            return ShardPool::Inline(Box::default());
        }
        let alive = std::sync::Arc::new(());
        let workers = (0..shards)
            .map(|s| {
                let (tx, worker_rx) = std::sync::mpsc::channel::<ShardMsg>();
                let (reply_tx, rx) = std::sync::mpsc::channel::<ShardReply>();
                let token = alive.clone();
                let handle = std::thread::Builder::new()
                    .name(format!("mtc-shard-{s}"))
                    .spawn(move || {
                        let _token = token; // dropped when the thread exits
                        let mut state = KeyState::default();
                        let mut prefilter = ShardPrefilter::default();
                        while let Ok(msg) = worker_rx.recv() {
                            match msg {
                                ShardMsg::Batch(job) => {
                                    let mut hint: Option<usize> = None;
                                    let events: Vec<Vec<TaggedEvent>> = job
                                        .works
                                        .iter()
                                        .enumerate()
                                        .map(|(i, w)| {
                                            let mut out = Vec::new();
                                            state.derive(
                                                w,
                                                |k| shard_of(k, shards) == s,
                                                job.divergence_pass,
                                                job.has_init,
                                                job.validate_mt,
                                                job.prescan,
                                                &mut out,
                                            );
                                            if prefilter.filter(&mut out, job.hints)
                                                && hint.is_none()
                                            {
                                                hint = Some(i);
                                            }
                                            out
                                        })
                                        .collect();
                                    if reply_tx.send(ShardReply::Events(events, hint)).is_err() {
                                        break;
                                    }
                                }
                                ShardMsg::Collect(watermark, reader_cap, want_refs) => {
                                    state.sweep(watermark, reader_cap);
                                    prefilter.trim(watermark);
                                    let refs = if want_refs {
                                        state.refs()
                                    } else {
                                        HashSet::new()
                                    };
                                    let evicted = state.evicted.values().sum();
                                    if reply_tx.send(ShardReply::Refs(refs, evicted)).is_err() {
                                        break;
                                    }
                                }
                                ShardMsg::Snapshot => {
                                    let boxed = Box::new(state.clone());
                                    if reply_tx.send(ShardReply::State(boxed)).is_err() {
                                        break;
                                    }
                                }
                                ShardMsg::Restore(new_state) => {
                                    state = *new_state;
                                    prefilter = ShardPrefilter::default();
                                }
                                ShardMsg::Finish => {
                                    let settled = state
                                        .drain_pending()
                                        .iter()
                                        .map(|p| state.classify_settled(p))
                                        .collect();
                                    let _ = reply_tx.send(ShardReply::Settled(settled));
                                    break;
                                }
                            }
                        }
                    })
                    .expect("failed to spawn shard worker");
                ShardWorker {
                    tx: Some(tx),
                    rx,
                    handle: Some(handle),
                }
            })
            .collect();
        ShardPool::Workers { workers, alive }
    }

    fn shard_count(&self) -> usize {
        match self {
            ShardPool::Inline(_) => 1,
            ShardPool::Workers { workers, .. } => workers.len(),
        }
    }

    /// Shuts the pool down deterministically: closes every job channel first
    /// (so all workers see end-of-stream at once, even mid-batch), then
    /// joins every thread. Idempotent; also run on drop, so a checker
    /// abandoned mid-stream — e.g. `stop_on_violation` firing before
    /// `finish()` — never leaks worker threads.
    fn shutdown(&mut self) {
        if let ShardPool::Workers { workers, .. } = self {
            for w in workers.iter_mut() {
                w.tx.take();
            }
            for w in workers.iter_mut() {
                if let Some(h) = w.handle.take() {
                    let _ = h.join();
                }
            }
        }
    }
}

impl Drop for ShardPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl ShardedIncrementalChecker {
    /// A sharded streaming checker for `level` over `shards` workers. In
    /// SSER mode the per-key derivation is sharded exactly as for SER while
    /// the time-chain lives on the merge thread (workers never see
    /// timestamps), so verdicts stay identical to the sequential checker's.
    ///
    /// # Panics
    ///
    /// Panics when `shards == 0`.
    pub fn new(level: IsolationLevel, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        ShardedIncrementalChecker {
            engine: Engine::new(level, CheckOptions::default()),
            pool: ShardPool::new(shards),
            worker_evictions: Vec::new(),
        }
    }

    /// A sharded streaming checker with the shard count picked by the
    /// autotuner for this machine ([`tune::tune`]); pair it with
    /// [`tune::ShardTuning::batch`] when feeding batches.
    pub fn new_tuned(level: IsolationLevel) -> Self {
        ShardedIncrementalChecker::new(level, tune::tune().shards)
    }

    /// Overrides the tuning options (shared with the batch checkers).
    pub fn with_options(mut self, opts: CheckOptions) -> Self {
        self.engine.opts = opts;
        self
    }

    /// Enables settled-prefix garbage collection (see [`GcPolicy`]).
    /// Collections run on the merge thread at batch boundaries; the shard
    /// workers sweep their key states at the same watermark.
    pub fn with_gc(mut self, policy: GcPolicy) -> Self {
        self.set_gc(policy);
        self
    }

    /// Non-consuming form of [`ShardedIncrementalChecker::with_gc`].
    pub fn set_gc(&mut self, policy: GcPolicy) {
        self.engine.gc = Some(policy.normalized());
    }

    /// The garbage-collection policy in effect, if any.
    pub fn gc_policy(&self) -> Option<GcPolicy> {
        self.engine.gc
    }

    /// Number of transactions currently resident (not retired by the GC).
    pub fn live_txn_count(&self) -> usize {
        self.engine.live_txns.len()
    }

    /// Number of live nodes in the maintained order(s) (see
    /// [`IncrementalChecker::live_node_count`]).
    pub fn live_node_count(&self) -> usize {
        self.engine
            .topo
            .live_node_count()
            .max(self.engine.composed.live_node_count())
    }

    /// Total reader entries dropped by the GC's reader-list cap across all
    /// shards, as of the most recent collection (per-version markers are
    /// available from the [`ShardedIncrementalChecker::checkpoint`]
    /// snapshot's [`CheckerSnapshot::reader_evictions`]).
    pub fn reader_eviction_count(&self) -> u64 {
        match &self.pool {
            ShardPool::Inline(state) => state.evicted.values().sum(),
            ShardPool::Workers { .. } => self.worker_evictions.iter().sum(),
        }
    }

    /// Transactions retired by the GC so far.
    pub fn pruned_txn_count(&self) -> usize {
        self.engine.pruned_txns
    }

    /// Captures a complete [`CheckerSnapshot`]: the merge-side engine plus
    /// every shard's key state (collected from the worker pool). The
    /// deferred queue is empty at batch boundaries, so the snapshot is
    /// exact.
    pub fn checkpoint(&mut self) -> CheckerSnapshot {
        let keys: Vec<KeyState> = match &mut self.pool {
            ShardPool::Inline(state) => vec![(**state).clone()],
            ShardPool::Workers { workers, .. } => {
                for w in workers.iter() {
                    w.tx.as_ref()
                        .expect("pool already shut down")
                        .send(ShardMsg::Snapshot)
                        .expect("shard worker hung up");
                }
                workers
                    .iter()
                    .map(|w| match w.rx.recv().expect("shard worker hung up") {
                        ShardReply::State(s) => *s,
                        _ => unreachable!("snapshot reply out of order"),
                    })
                    .collect()
            }
        };
        CheckerSnapshot {
            version: SNAPSHOT_VERSION,
            shards: keys.len(),
            engine: self.engine.clone(),
            keys,
        }
    }

    /// Reconstructs a sharded checker over `shards` workers from a snapshot
    /// (whatever geometry took it — key states are re-partitioned along the
    /// worker split). Verdicts continue bit-identically to the
    /// uninterrupted run.
    pub fn resume(snapshot: CheckerSnapshot, shards: usize) -> Self {
        assert!(shards > 0, "at least one shard is required");
        let CheckerSnapshot { engine, keys, .. } = snapshot;
        let mut engine = engine;
        engine.graph.rebuild_index();
        let states = KeyState::reshard(keys, shards);
        // Seed the per-worker eviction counts from the restored states, so
        // `reader_eviction_count` is correct immediately after a resume
        // rather than only after the next collect.
        let worker_evictions: Vec<u64> = states.iter().map(|s| s.evicted.values().sum()).collect();
        let mut pool = ShardPool::new(shards);
        match &mut pool {
            ShardPool::Inline(slot) => {
                let mut states = states;
                **slot = states.pop().expect("one state per shard");
            }
            ShardPool::Workers { workers, .. } => {
                for (w, state) in workers.iter().zip(states) {
                    w.tx.as_ref()
                        .expect("pool just built")
                        .send(ShardMsg::Restore(Box::new(state)))
                        .expect("shard worker hung up");
                }
            }
        }
        ShardedIncrementalChecker {
            engine,
            pool,
            worker_evictions,
        }
    }

    /// Seeds the stream with `⊥T` (see [`IncrementalChecker::with_init_keys`]).
    pub fn with_init_keys<K: Into<Key>, I: IntoIterator<Item = K>>(mut self, keys: I) -> Self {
        assert_eq!(self.engine.txn_count, 0, "⊥T must be the first transaction");
        let ops: Vec<Op> = keys
            .into_iter()
            .map(|k| Op::Write {
                key: k.into(),
                value: INIT_VALUE,
            })
            .collect();
        let init = Transaction {
            id: TxnId(0),
            session: SessionId::INIT,
            ops,
            status: TxnStatus::Committed,
            begin: Some(0),
            end: Some(0),
        };
        self.consume_batch(vec![(init, true)]);
        self
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.pool.shard_count()
    }

    /// Number of worker threads currently alive (0 for the single-shard
    /// inline pool). Drops to 0 once the pool shuts down — on `finish()` or
    /// drop — which the shutdown tests assert; also handy as a leak check
    /// in long-running harnesses.
    pub fn live_worker_threads(&self) -> usize {
        match &self.pool {
            ShardPool::Inline(_) => 0,
            ShardPool::Workers { alive, .. } => std::sync::Arc::strong_count(alive) - 1,
        }
    }

    /// Feeds one transaction (a batch of one).
    pub fn push(&mut self, txn: Transaction) -> Result<StreamStatus, CheckError> {
        self.push_batch(vec![txn])
    }

    /// Feeds a batch of transactions, in stream order. Edge derivation for
    /// the whole batch runs key-sharded across the workers; the merge into
    /// the topological order happens on the calling thread.
    pub fn push_batch(&mut self, txns: Vec<Transaction>) -> Result<StreamStatus, CheckError> {
        let mut next = self.engine.txn_count as u32;
        let batch: Vec<(Transaction, bool)> = txns
            .into_iter()
            .map(|mut t| {
                t.id = TxnId(next);
                next += 1;
                (t, false)
            })
            .collect();
        self.consume_batch(batch);
        self.status_result()
    }

    /// Replays a complete [`mtc_history::History`] in transaction-id order,
    /// feeding it in batches of `batch` transactions (see
    /// [`IncrementalChecker::push_history`]).
    pub fn push_history(
        &mut self,
        history: &mtc_history::History,
        batch: usize,
    ) -> Result<StreamStatus, CheckError> {
        if let Some(init) = history.init_txn() {
            assert_eq!(
                self.engine.txn_count, 0,
                "a history with ⊥T can only be replayed into an empty checker"
            );
            self.consume_batch(vec![(history.txn(init).clone(), true)]);
        }
        let batch = batch.max(1);
        let mut buf = Vec::with_capacity(batch);
        for txn in history.txns() {
            if Some(txn.id) == history.init_txn() {
                continue;
            }
            buf.push(txn.clone());
            if buf.len() == batch {
                let _ = self.push_batch(std::mem::take(&mut buf));
            }
        }
        if !buf.is_empty() {
            let _ = self.push_batch(buf);
        }
        self.status_result()
    }

    fn consume_batch(&mut self, batch: Vec<(Transaction, bool)>) {
        if batch.is_empty() {
            return;
        }
        if self.engine.done() {
            self.engine.txn_count += batch.len();
            return;
        }
        let batch_timer = mtc_obs::enabled().then(std::time::Instant::now);
        let batch_len = batch.len();
        let works: Vec<TxnWork> = batch.iter().map(|(t, i)| decompose(t, *i)).collect();
        let div_pass = divergence_pass(self.engine.level, &self.engine.opts);
        let has_init = self.engine.has_init || batch[0].1;
        let (validate_mt, prescan) = (self.engine.opts.validate_mt, self.engine.opts.prescan_intra);
        let hints = if self.engine.level == IsolationLevel::SnapshotIsolation {
            HintMode::Composed
        } else {
            HintMode::Direct
        };

        // Decide the epoch boundary up front: `txn_count` always advances by
        // the whole batch (a mid-merge latch still counts the tail as
        // consumed), so the post-batch watermark is known before the merge
        // starts — which lets the workers run their sweep *concurrently
        // with* the merge instead of serialized after it.
        let gc_fire: Option<(TxnId, usize, bool)> = match self.engine.gc {
            Some(p) if self.engine.txn_count + batch.len() - self.engine.last_gc >= p.every => {
                let total = self.engine.txn_count + batch.len();
                Some((
                    TxnId(total.saturating_sub(p.window) as u32),
                    p.reader_cap,
                    self.engine.commit_epoch_next(),
                ))
            }
            _ => None,
        };

        // Fan the per-key derivation out across the shard pool. Each worker
        // walks the whole batch but only touches the keys it owns, so the
        // shard states never alias. Workers pre-filter duplicate edges and
        // latch intra-shard cycles in their local orders, reporting the
        // earliest affected transaction as a hint.
        let mut hint: Option<usize> = None;
        let mut per_shard_events: Vec<Vec<Vec<TaggedEvent>>> = match &mut self.pool {
            ShardPool::Inline(state) => {
                vec![works
                    .iter()
                    .map(|w| {
                        let mut out = Vec::new();
                        state.derive(
                            w,
                            |_| true,
                            div_pass,
                            has_init,
                            validate_mt,
                            prescan,
                            &mut out,
                        );
                        out
                    })
                    .collect()]
            }
            ShardPool::Workers { workers, .. } => {
                let job = std::sync::Arc::new(BatchJob {
                    works,
                    divergence_pass: div_pass,
                    has_init,
                    validate_mt,
                    prescan,
                    hints,
                });
                for w in workers.iter() {
                    w.tx.as_ref()
                        .expect("pool already shut down")
                        .send(ShardMsg::Batch(job.clone()))
                        .expect("shard worker hung up");
                }
                workers
                    .iter()
                    .map(|w| match w.rx.recv().expect("shard worker hung up") {
                        ShardReply::Events(events, shard_hint) => {
                            hint = match (hint, shard_hint) {
                                (Some(a), Some(b)) => Some(a.min(b)),
                                (a, b) => a.or(b),
                            };
                            events
                        }
                        _ => unreachable!("batch reply out of order"),
                    })
                    .collect()
            }
        };

        // Overlap the sweep with the merge: a worker's Events reply means it
        // has fully derived the batch, so sending Collect now preserves the
        // per-shard derive-then-sweep order while the sweep itself runs
        // concurrently with the merge below. The refs replies are received
        // after the merge — unconditionally, to keep the channel protocol
        // in lock-step even when the merge latches a verdict.
        if let Some((watermark, cap, want_refs)) = gc_fire {
            if let ShardPool::Workers { workers, .. } = &self.pool {
                for w in workers.iter() {
                    w.tx.as_ref()
                        .expect("pool already shut down")
                        .send(ShardMsg::Collect(watermark, cap, want_refs))
                        .expect("shard worker hung up");
                }
            }
        }

        // Merge: per transaction, admit it sequentially, then queue the
        // shard events in canonical (pass, key_rank, seq) order. Edges
        // accumulate across transactions and hit the topological order in
        // one batched insertion per flush. A worker hint forces the flush
        // right after the hinted transaction — its local cycle guarantees
        // the latch, so the rest of the batch is skipped.
        let mut merged_events = 0u64;
        for (i, (txn, is_init)) in batch.iter().enumerate() {
            if self.engine.done() {
                self.engine.txn_count += batch.len() - i;
                break;
            }
            let mut events = self.engine.admit(txn, *is_init);
            for shard_events in per_shard_events.iter_mut() {
                events.append(&mut shard_events[i]);
            }
            events.sort_by_key(|e| (e.pass, e.key_rank, e.seq));
            merged_events += events.len() as u64;
            for e in events {
                self.engine.apply_deferred(txn.id, e.event);
            }
            if hint == Some(i) {
                self.engine.flush_deferred();
                debug_assert!(
                    self.engine.done(),
                    "a worker-local cycle must latch at the hinted transaction"
                );
            }
        }
        self.engine.flush_deferred();
        if let Some((watermark, cap, want_refs)) = gc_fire {
            // The merge-side view of the epoch: waiting for the workers'
            // (concurrent) sweeps plus the graph collection — i.e. the GC
            // time the ingest path actually pays.
            let gc_timer = mtc_obs::enabled().then(std::time::Instant::now);
            let refs: HashSet<TxnId> = match &mut self.pool {
                ShardPool::Inline(state) => {
                    state.sweep(watermark, cap);
                    if want_refs {
                        state.refs()
                    } else {
                        HashSet::new()
                    }
                }
                ShardPool::Workers { workers, .. } => {
                    let mut refs = HashSet::new();
                    self.worker_evictions.resize(workers.len(), 0);
                    for (i, w) in workers.iter().enumerate() {
                        match w.rx.recv().expect("shard worker hung up") {
                            ShardReply::Refs(r, evicted) => {
                                refs.extend(r);
                                self.worker_evictions[i] = evicted;
                            }
                            _ => unreachable!("collect reply out of order"),
                        }
                    }
                    refs
                }
            };
            if self.engine.begin_epoch() && !self.engine.done() {
                let before = gc_timer.is_some().then(|| self.live_node_count());
                self.engine.collect(watermark, &refs);
                if let Some(before) = before {
                    mtc_obs::histogram!("checker.gc_reclaimed_nodes")
                        .record(before.saturating_sub(self.live_node_count()) as u64);
                }
            }
            if let Some(t0) = gc_timer {
                mtc_obs::histogram!("checker.gc_epoch_micros")
                    .record(t0.elapsed().as_micros() as u64);
            }
        }
        if let Some(t0) = batch_timer {
            mtc_obs::histogram!("checker.ingest_batch_micros")
                .record(t0.elapsed().as_micros() as u64);
            mtc_obs::histogram!("checker.ingest_batch_txns").record(batch_len as u64);
            mtc_obs::histogram!("checker.merge_queue_depth").record(merged_events);
        }
    }

    fn status_result(&self) -> Result<StreamStatus, CheckError> {
        if let Some(e) = &self.engine.error {
            return Err(e.clone());
        }
        if self.engine.violation.is_some() {
            Ok(StreamStatus::Violated)
        } else {
            Ok(StreamStatus::ConsistentSoFar)
        }
    }

    /// The latched violation, if any.
    pub fn violation(&self) -> Option<&Violation> {
        self.engine.violation.as_ref()
    }

    /// True iff the consumed prefix already violates the isolation level.
    pub fn is_violated(&self) -> bool {
        self.engine.violation.is_some()
    }

    /// Id of the transaction whose consumption latched the violation.
    pub fn first_violation_at(&self) -> Option<TxnId> {
        self.engine.violated_at
    }

    /// Number of transactions consumed.
    pub fn txn_count(&self) -> usize {
        self.engine.txn_count
    }

    /// Number of labelled dependency edges derived so far.
    pub fn edge_count(&self) -> usize {
        self.engine.graph.edge_count()
    }

    /// Ends the stream and returns the final verdict (see
    /// [`IncrementalChecker::finish`]).
    pub fn finish(mut self) -> Result<Verdict, CheckError> {
        if let Some(e) = self.engine.error {
            return Err(e);
        }
        if let Some(v) = self.engine.violation {
            return Ok(Verdict::Violated(v));
        }
        let mut settled: Vec<IntraViolation> = match &mut self.pool {
            ShardPool::Inline(state) => {
                let pending = state.drain_pending();
                pending.iter().map(|p| state.classify_settled(p)).collect()
            }
            ShardPool::Workers { workers, .. } => {
                for w in workers.iter() {
                    w.tx.as_ref()
                        .expect("pool already shut down")
                        .send(ShardMsg::Finish)
                        .expect("shard worker hung up");
                }
                workers
                    .iter()
                    .flat_map(|w| match w.rx.recv().expect("shard worker hung up") {
                        ShardReply::Settled(s) => s,
                        _ => unreachable!("finish reply out of order"),
                    })
                    .collect()
            }
        };
        settled.sort_by_key(|v| (v.txn, v.op_index));
        if settled.is_empty() {
            return Ok(Verdict::Satisfied);
        }
        if self.engine.opts.prescan_intra {
            Ok(Verdict::Violated(Violation::Intra(settled)))
        } else {
            let p = &settled[0];
            Err(CheckError::UnreadableValue {
                txn: p.txn,
                key: p.key,
                value: p.value,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check_ser, check_si};
    use mtc_history::{anomalies, History, HistoryBuilder};

    fn stream_verdict(level: IsolationLevel, h: &History) -> Verdict {
        check_streaming(level, h).unwrap()
    }

    /// The witness of a cycle verdict must be a closed walk over real edges
    /// of the history's (batch-built) dependency graph.
    fn assert_cycle_is_certified(h: &History, edges: &[Edge]) {
        assert!(!edges.is_empty(), "empty cycle witness");
        let g = crate::build_dependency(h, false).unwrap();
        for (i, e) in edges.iter().enumerate() {
            assert!(
                g.contains_edge(e.from, e.to, e.kind),
                "witness edge {e:?} does not exist"
            );
            let next = &edges[(i + 1) % edges.len()];
            assert_eq!(e.to, next.from, "witness walk is not closed: {edges:?}");
        }
    }

    #[test]
    fn serial_histories_are_accepted_online() {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        b.committed(0, vec![Op::read(1u64, 0u64), Op::read(0u64, 2u64)]);
        let h = b.build();
        assert!(stream_verdict(IsolationLevel::Serializability, &h).is_satisfied());
        assert!(stream_verdict(IsolationLevel::SnapshotIsolation, &h).is_satisfied());
    }

    #[test]
    fn catalogue_agrees_with_batch_checkers_on_ser() {
        for (kind, h) in anomalies::catalogue() {
            let batch = check_ser(&h).unwrap();
            let streaming = stream_verdict(IsolationLevel::Serializability, &h);
            assert_eq!(
                batch.is_violated(),
                streaming.is_violated(),
                "SER mismatch on {kind}: batch={batch:?} streaming={streaming:?}"
            );
            if let Some(Violation::Cycle { edges }) = streaming.violation() {
                assert_cycle_is_certified(&h, edges);
            }
        }
    }

    #[test]
    fn catalogue_agrees_with_batch_checkers_on_si() {
        for (kind, h) in anomalies::catalogue() {
            let batch = check_si(&h).unwrap();
            let streaming = stream_verdict(IsolationLevel::SnapshotIsolation, &h);
            assert_eq!(
                batch.is_violated(),
                streaming.is_violated(),
                "SI mismatch on {kind}: batch={batch:?} streaming={streaming:?}"
            );
        }
    }

    #[test]
    fn divergence_payload_matches_batch() {
        let h = anomalies::lost_update();
        let batch = check_si(&h).unwrap();
        let streaming = stream_verdict(IsolationLevel::SnapshotIsolation, &h);
        assert_eq!(batch, streaming, "lost update must be the same DIVERGENCE");
    }

    #[test]
    fn intra_anomalies_match_batch_payloads() {
        // A thin-air read is only settled at finish(), like the batch
        // pre-scan that needs the whole history.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 777u64)]);
        let h = b.build();
        let batch = check_ser(&h).unwrap();
        let streaming = stream_verdict(IsolationLevel::Serializability, &h);
        assert_eq!(batch, streaming);
    }

    #[test]
    fn aborted_read_is_settled_at_finish() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.aborted(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)]);
        b.committed(1, vec![Op::read(0u64, 5u64)]);
        let h = b.build();
        let batch = check_ser(&h).unwrap();
        let streaming = stream_verdict(IsolationLevel::Serializability, &h);
        assert_eq!(batch, streaming);
    }

    #[test]
    fn early_exit_reports_violation_mid_stream() {
        // A long stream with a lost-update corruption planted early: the
        // checker must latch at the corrupted transaction, long before the
        // tail is consumed.
        let n = 400u64;
        let mut checker = IncrementalChecker::new_si().with_init_keys(0..1u64);
        // T1 installs 1; T2 and T3 both read 1 and overwrite: DIVERGENCE.
        checker
            .push_committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)])
            .unwrap();
        checker
            .push_committed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)])
            .unwrap();
        let status = checker
            .push_committed(2, vec![Op::read(0u64, 1u64), Op::write(0u64, 3u64)])
            .unwrap();
        assert_eq!(status, StreamStatus::Violated);
        let latched_at = checker.first_violation_at().unwrap();
        assert_eq!(latched_at, TxnId(3));
        // Feed a long consistent tail; the verdict must stay latched and the
        // trigger index must not move.
        let mut last = 3u64;
        for i in 0..n {
            checker
                .push_committed(0, vec![Op::read(0u64, last), Op::write(0u64, 100 + i)])
                .unwrap();
            last = 100 + i;
        }
        assert_eq!(checker.first_violation_at(), Some(TxnId(3)));
        assert!(
            (latched_at.index() as u64) < n,
            "violation latched before the tail"
        );
        let verdict = checker.finish().unwrap();
        assert!(matches!(
            verdict,
            Verdict::Violated(Violation::Divergence { .. })
        ));
    }

    #[test]
    fn ser_cycle_latches_when_closing_edge_arrives() {
        // Write skew: T1 and T2 read both keys, then write one each.
        let mut checker = IncrementalChecker::new_ser().with_init_keys(0..2u64);
        checker
            .push_committed(
                0,
                vec![
                    Op::read(0u64, 0u64),
                    Op::read(1u64, 0u64),
                    Op::write(0u64, 1u64),
                ],
            )
            .unwrap();
        let status = checker
            .push_committed(
                1,
                vec![
                    Op::read(0u64, 0u64),
                    Op::read(1u64, 0u64),
                    Op::write(1u64, 2u64),
                ],
            )
            .unwrap();
        assert_eq!(
            status,
            StreamStatus::Violated,
            "write skew must latch at T2"
        );
        assert_eq!(checker.first_violation_at(), Some(TxnId(2)));
    }

    #[test]
    fn sharded_checker_agrees_with_sequential_on_the_catalogue() {
        for (kind, h) in anomalies::catalogue() {
            for level in [
                IsolationLevel::Serializability,
                IsolationLevel::SnapshotIsolation,
            ] {
                let sequential = check_streaming(level, &h).unwrap();
                for shards in [1usize, 2, 4] {
                    for batch in [1usize, 3, 64] {
                        let sharded = check_streaming_sharded(level, &h, shards, batch).unwrap();
                        assert_eq!(
                            sequential, sharded,
                            "{level} mismatch on {kind} with {shards} shards, batch {batch}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)] // `value` is state, not a counter
    fn sharded_checker_matches_on_larger_streams() {
        // A serial multi-key history plus one corrupted read near the end.
        for corrupt in [false, true] {
            let keys = 16u64;
            let mut b = HistoryBuilder::new().with_init(keys);
            let mut last = vec![0u64; keys as usize];
            let mut value = 1u64;
            for i in 0..600u64 {
                let k = (i * 7) % keys;
                let read = if corrupt && i == 500 {
                    0
                } else {
                    last[k as usize]
                };
                b.committed((i % 6) as u32, vec![Op::read(k, read), Op::write(k, value)]);
                last[k as usize] = value;
                value += 1;
            }
            let h = b.build();
            for level in [
                IsolationLevel::Serializability,
                IsolationLevel::SnapshotIsolation,
            ] {
                let batch_verdict = match level {
                    IsolationLevel::Serializability => check_ser(&h).unwrap(),
                    _ => check_si(&h).unwrap(),
                };
                let sequential = check_streaming(level, &h).unwrap();
                let sharded = check_streaming_sharded(level, &h, 4, 128).unwrap();
                assert_eq!(batch_verdict.is_violated(), sequential.is_violated());
                assert_eq!(sequential, sharded);
            }
        }
    }

    #[test]
    fn options_default_is_shared_with_batch_checkers() {
        let checker = IncrementalChecker::new_ser();
        assert_eq!(*checker.options(), CheckOptions::default());
        let sharded = ShardedIncrementalChecker::new(IsolationLevel::SnapshotIsolation, 2);
        assert_eq!(sharded.engine.opts, CheckOptions::default());
    }

    #[test]
    fn divergence_ablation_option_still_rejects() {
        // A DIVERGENCE can be invisible in the composed graph, so the late
        // scan must run even with the early exit disabled — in the
        // sequential AND the sharded checker.
        let h = anomalies::lost_update();
        let opts = CheckOptions {
            skip_divergence_early_exit: true,
            ..CheckOptions::default()
        };
        let v = check_streaming_with(IsolationLevel::SnapshotIsolation, &h, &opts).unwrap();
        assert!(v.is_violated());
        for shards in [1usize, 3] {
            let mut c = ShardedIncrementalChecker::new(IsolationLevel::SnapshotIsolation, shards)
                .with_options(opts);
            let _ = c.push_history(&h, 2);
            let sharded = c.finish().unwrap();
            assert_eq!(v, sharded, "ablation mismatch with {shards} shards");
        }
    }

    #[test]
    fn non_mt_transaction_is_rejected_online() {
        let mut checker = IncrementalChecker::new_ser().with_init_keys(0..1u64);
        let err = checker
            .push_committed(0, vec![Op::write(0u64, 1u64)])
            .unwrap_err();
        assert!(matches!(err, CheckError::NotMiniTransaction(_)));
        // The error latches.
        let again = checker.push_committed(1, vec![Op::read(0u64, 0u64)]);
        assert!(again.is_err());
        assert!(checker.finish().is_err());
    }

    #[test]
    fn duplicate_values_are_rejected_online() {
        let mut checker = IncrementalChecker::new_ser().with_init_keys(0..1u64);
        checker
            .push_committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)])
            .unwrap();
        let err = checker
            .push_committed(1, vec![Op::read(0u64, 0u64), Op::write(0u64, 5u64)])
            .unwrap_err();
        assert!(matches!(
            err,
            CheckError::NotMiniTransaction(MtViolation::DuplicateValue { .. })
        ));
    }

    #[test]
    fn unreadable_value_without_prescan_is_a_domain_error() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 77u64)]);
        let h = b.build();
        let opts = CheckOptions {
            prescan_intra: false,
            ..CheckOptions::default()
        };
        let batch = crate::check_ser_with(&h, &opts);
        let streaming = check_streaming_with(IsolationLevel::Serializability, &h, &opts);
        assert!(matches!(batch, Err(CheckError::UnreadableValue { .. })));
        assert!(matches!(streaming, Err(CheckError::UnreadableValue { .. })));
    }

    #[test]
    fn sser_catches_a_real_time_violation_online() {
        // T1 writes x and finishes before T2 starts, but T2 still reads the
        // initial value: allowed by SER, forbidden by SSER — and the online
        // checker latches at T2, not at finish().
        let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
        checker
            .push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20)
            .unwrap();
        let status = checker
            .push_committed_timed(1, vec![Op::read(0u64, 0u64)], 30, 40)
            .unwrap();
        assert_eq!(status, StreamStatus::Violated);
        assert_eq!(checker.first_violation_at(), Some(TxnId(2)));
        let verdict = checker.finish().unwrap();
        let Verdict::Violated(Violation::Cycle { edges }) = verdict else {
            panic!("expected a cycle, got {verdict:?}");
        };
        assert!(
            edges.iter().any(|e| e.kind == EdgeKind::Rt),
            "counterexample should mention real time: {edges:?}"
        );
    }

    #[test]
    fn sser_accepts_overlapping_transactions() {
        // Overlapping intervals are not real-time ordered: both serial
        // orders are admissible, so a "stale" read by a concurrent
        // transaction is fine.
        let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
        checker
            .push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 30)
            .unwrap();
        let status = checker
            .push_committed_timed(1, vec![Op::read(0u64, 0u64)], 20, 40)
            .unwrap();
        assert_eq!(status, StreamStatus::ConsistentSoFar);
        assert!(checker.finish().unwrap().is_satisfied());
    }

    #[test]
    fn sser_handles_equal_instants_as_overlap() {
        // end(T1) == begin(T2): the real-time order is strict, so no RT edge
        // and the stale read stays SSER-acceptable.
        let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
        checker
            .push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20)
            .unwrap();
        let status = checker
            .push_committed_timed(1, vec![Op::read(0u64, 0u64)], 20, 40)
            .unwrap();
        assert_eq!(status, StreamStatus::ConsistentSoFar);
        assert!(checker.finish().unwrap().is_satisfied());
    }

    #[test]
    fn sser_latches_on_out_of_order_instants() {
        // The violating commit *reports* instants in the past (clock skew):
        // T2 reads T1's write but claims to have finished before T1 began.
        let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
        checker
            .push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 50, 60)
            .unwrap();
        let status = checker
            .push_committed_timed(1, vec![Op::read(0u64, 1u64)], 5, 9)
            .unwrap();
        assert_eq!(status, StreamStatus::Violated);
        assert_eq!(checker.first_violation_at(), Some(TxnId(2)));
    }

    #[test]
    fn sser_self_inconsistent_interval_is_rejected() {
        // A commit whose reported end precedes its own begin contradicts the
        // time-chain by itself.
        let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
        let status = checker
            .push_committed_timed(0, vec![Op::read(0u64, 0u64)], 30, 10)
            .unwrap();
        assert_eq!(status, StreamStatus::Violated);
    }

    #[test]
    fn streaming_sser_agrees_with_batch_on_the_catalogue() {
        use crate::check::check_sser;
        for (kind, h) in anomalies::catalogue() {
            let batch = check_sser(&h).unwrap();
            let streaming = check_streaming(IsolationLevel::StrictSerializability, &h).unwrap();
            assert_eq!(
                batch.is_violated(),
                streaming.is_violated(),
                "SSER mismatch on {kind}: batch={batch:?} streaming={streaming:?}"
            );
            for shards in [1usize, 2, 4] {
                for batch_size in [1usize, 3, 64] {
                    let sharded = check_streaming_sharded(
                        IsolationLevel::StrictSerializability,
                        &h,
                        shards,
                        batch_size,
                    )
                    .unwrap();
                    assert_eq!(
                        streaming, sharded,
                        "sequential/sharded SSER mismatch on {kind} ({shards} shards, batch {batch_size})"
                    );
                }
            }
        }
    }

    #[test]
    fn sser_untimed_transactions_degrade_to_ser() {
        // Without instants there are no real-time constraints: SSER accepts
        // exactly what SER accepts, matching the batch checkers.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 0u64)]);
        let h = b.build();
        assert!(crate::check::check_sser(&h).unwrap().is_satisfied());
        let streaming = check_streaming(IsolationLevel::StrictSerializability, &h).unwrap();
        assert!(streaming.is_satisfied());
    }

    #[test]
    fn partially_timed_transactions_still_constrain_real_time() {
        use crate::check::{check_sser, check_sser_naive};
        // T1 records only its commit instant, T2 only its begin — the RT
        // edge T1 → T2 needs exactly those two, so all three SSER flavours
        // must reject the stale read (the time-chain flavours used to skip
        // any transaction missing one instant).
        for (t1_times, t2_times) in [
            ((None, Some(20)), (Some(30), Some(40))),
            ((Some(10), Some(20)), (Some(30), None)),
            ((None, Some(20)), (Some(30), None)),
        ] {
            let mut b = HistoryBuilder::new().with_init(1);
            let mut t1 = Transaction::committed(
                TxnId(0),
                SessionId(0),
                vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)],
            );
            (t1.begin, t1.end) = t1_times;
            b.push_cloned(t1);
            let mut t2 = Transaction::committed(TxnId(0), SessionId(1), vec![Op::read(0u64, 0u64)]);
            (t2.begin, t2.end) = t2_times;
            b.push_cloned(t2);
            let h = b.build();
            let naive = check_sser_naive(&h).unwrap();
            let chain = check_sser(&h).unwrap();
            let streaming = check_streaming(IsolationLevel::StrictSerializability, &h).unwrap();
            assert!(naive.is_violated(), "{t1_times:?}/{t2_times:?}: naive");
            assert!(chain.is_violated(), "{t1_times:?}/{t2_times:?}: time-chain");
            assert!(
                streaming.is_violated(),
                "{t1_times:?}/{t2_times:?}: streaming"
            );
        }
    }

    #[test]
    fn sser_time_chain_grows_with_distinct_instants() {
        let mut checker = IncrementalChecker::new_sser().with_init_keys(0..1u64);
        assert_eq!(checker.time_instant_count(), 1); // ⊥T at instant 0
        checker
            .push_committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20)
            .unwrap();
        checker
            .push_committed_timed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)], 25, 30)
            .unwrap();
        assert_eq!(checker.time_instant_count(), 5);
        // SER checkers never touch the chain.
        let ser = IncrementalChecker::new_ser().with_init_keys(0..1u64);
        assert_eq!(ser.time_instant_count(), 0);
    }

    /// The alive-token of the pool's worker threads, for shutdown tests.
    fn pool_canary(checker: &ShardedIncrementalChecker) -> Option<std::sync::Arc<()>> {
        match &checker.pool {
            ShardPool::Inline(_) => None,
            ShardPool::Workers { alive, .. } => Some(alive.clone()),
        }
    }

    #[test]
    fn dropping_a_sharded_checker_mid_stream_joins_its_workers() {
        // Abandon the checker after a violation latched but before finish()
        // — the stop_on_violation shape. Drop must join every worker thread.
        let h = anomalies::lost_update();
        let mut checker = ShardedIncrementalChecker::new(IsolationLevel::SnapshotIsolation, 3);
        assert_eq!(checker.live_worker_threads(), 3);
        let canary = pool_canary(&checker).expect("multi-shard pool must spawn workers");
        let status = checker.push_history(&h, 2).unwrap();
        assert_eq!(status, StreamStatus::Violated, "lost update must latch");
        assert_eq!(
            std::sync::Arc::strong_count(&canary),
            1 + 3 + 1,
            "pool + one token per live worker + test clone"
        );
        drop(checker);
        assert_eq!(
            std::sync::Arc::strong_count(&canary),
            1,
            "every worker thread must have exited and been joined"
        );
    }

    #[test]
    fn dropping_a_clean_sharded_checker_joins_its_workers() {
        let mut b = HistoryBuilder::new().with_init(4);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        let h = b.build();
        let mut checker = ShardedIncrementalChecker::new(IsolationLevel::Serializability, 2);
        let canary = pool_canary(&checker).expect("multi-shard pool must spawn workers");
        let _ = checker.push_history(&h, 8);
        drop(checker); // mid-stream: no finish(), workers idle in recv
        assert_eq!(std::sync::Arc::strong_count(&canary), 1);
    }

    #[test]
    fn finish_consumes_the_pool_and_joins_its_workers() {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        let h = b.build();
        let mut checker = ShardedIncrementalChecker::new(IsolationLevel::Serializability, 2);
        let canary = pool_canary(&checker).expect("multi-shard pool must spawn workers");
        let _ = checker.push_history(&h, 8);
        assert!(checker.finish().unwrap().is_satisfied());
        assert_eq!(std::sync::Arc::strong_count(&canary), 1);
    }

    /// A serial multi-key MT history: session `i % 6`, key round-robin over
    /// `keys - 2` keys. With `corrupt_at = Some(c)`, a write-skew gadget —
    /// two overlapping transactions reading the (never overwritten, hence
    /// GC-retained) initial versions of the two reserved keys and each
    /// writing one — is planted at position `c`: an *in-window* violation
    /// of SER/SSER (and none of SI), so the GC'd verdict must match the
    /// unbounded one.
    #[allow(clippy::explicit_counter_loop)] // `value` is state, not a counter
    fn serial_history(n: u64, keys: u64, corrupt_at: Option<u64>) -> History {
        assert!(keys >= 3);
        let (ka, kb) = (keys - 2, keys - 1);
        let mut b = HistoryBuilder::new().with_init(keys);
        let mut last = vec![0u64; keys as usize];
        let mut value = 1u64;
        for i in 0..n {
            if corrupt_at == Some(i) {
                b.committed_timed(
                    6,
                    vec![
                        Op::read(ka, 0u64),
                        Op::read(kb, 0u64),
                        Op::write(ka, 900_000_001u64),
                    ],
                    10 * i + 1,
                    10 * i + 6,
                );
                b.committed_timed(
                    7,
                    vec![
                        Op::read(ka, 0u64),
                        Op::read(kb, 0u64),
                        Op::write(kb, 900_000_002u64),
                    ],
                    10 * i + 2,
                    10 * i + 7,
                );
            }
            let k = (i * 5) % (keys - 2); // stride coprime to every tested key count
            b.committed_timed(
                (i % 6) as u32,
                vec![Op::read(k, last[k as usize]), Op::write(k, value)],
                10 * i + 1,
                10 * i + 5,
            );
            last[k as usize] = value;
            value += 1;
        }
        b.build()
    }

    /// Pushes `h`'s transactions `[0, cut)` into `checker` (excluding `⊥T`,
    /// which must be seeded separately), returning the remaining tail.
    fn push_prefix(checker: &mut IncrementalChecker, h: &History, cut: usize) -> Vec<Transaction> {
        let mut fed = 0usize;
        let mut tail = Vec::new();
        for t in h.txns() {
            if Some(t.id) == h.init_txn() {
                continue;
            }
            if fed < cut {
                let _ = checker.push(t.clone());
                fed += 1;
            } else {
                tail.push(t.clone());
            }
        }
        tail
    }

    #[test]
    fn checkpoint_resume_matches_uninterrupted_run() {
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            for corrupt in [None, Some(150u64)] {
                let h = serial_history(200, 8, corrupt);
                let clean = check_streaming(level, &h).unwrap();

                let mut first = IncrementalChecker::new(level);
                if let Some(init) = h.init_txn() {
                    first.feed(h.txn(init).clone(), true);
                }
                let tail = push_prefix(&mut first, &h, 100);
                let snapshot = first.checkpoint();
                drop(first);
                // Serialize through the workspace serde stack, like a
                // checkpoint file would.
                let json = serde_json::to_string(&snapshot).unwrap();
                let snapshot: CheckerSnapshot = serde_json::from_str(&json).unwrap();
                let mut resumed = IncrementalChecker::resume(snapshot);
                for t in tail {
                    let _ = resumed.push(t);
                }
                let resumed_first = resumed.first_violation_at();
                let verdict = resumed.finish().unwrap();
                assert_eq!(verdict, clean, "{level} corrupt={corrupt:?}");
                if clean.is_violated() {
                    assert!(resumed_first.is_some(), "{level}: must latch mid-stream");
                }
            }
        }
    }

    #[test]
    fn snapshots_cross_between_sequential_and_sharded_checkers() {
        let h = serial_history(300, 8, Some(250));
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            let clean = check_streaming(level, &h).unwrap();

            // Sharded checkpoint → sequential resume.
            let mut sharded = ShardedIncrementalChecker::new(level, 3);
            let txns: Vec<Transaction> = h
                .txns()
                .iter()
                .filter(|t| Some(t.id) != h.init_txn())
                .cloned()
                .collect();
            sharded.consume_batch(vec![(h.txn(TxnId(0)).clone(), true)]);
            let (head, tail) = txns.split_at(140);
            let _ = sharded.push_batch(head.to_vec());
            let snapshot = sharded.checkpoint();
            drop(sharded);
            let mut seq = IncrementalChecker::resume(snapshot.clone());
            for t in tail.iter().cloned() {
                let _ = seq.push(t);
            }
            assert_eq!(seq.finish().unwrap(), clean, "{level} sharded→sequential");

            // Same snapshot → sharded resume under a different geometry.
            let mut resharded = ShardedIncrementalChecker::resume(snapshot, 5);
            let _ = resharded.push_batch(tail.to_vec());
            assert_eq!(
                resharded.finish().unwrap(),
                clean,
                "{level} sharded→resharded"
            );
        }
    }

    #[test]
    fn gc_bounds_resident_state_and_preserves_verdicts() {
        let n = 6000u64;
        for (level, corrupt) in [
            (IsolationLevel::Serializability, None),
            (IsolationLevel::Serializability, Some(5500u64)),
            (IsolationLevel::SnapshotIsolation, None),
            (IsolationLevel::StrictSerializability, None),
            (IsolationLevel::StrictSerializability, Some(5500u64)),
        ] {
            let h = serial_history(n, 16, corrupt);
            let clean = check_streaming(level, &h).unwrap();
            let mut unbounded = IncrementalChecker::new(level);
            let _ = unbounded.push_history(&h);
            let unbounded_first = unbounded.first_violation_at();

            let mut gc = IncrementalChecker::new(level).with_gc(GcPolicy {
                window: 512,
                every: 128,
                reader_cap: 0,
            });
            let _ = gc.push_history(&h);
            assert!(
                gc.pruned_txn_count() > 0,
                "{level}: the GC must actually retire transactions"
            );
            let cap = 3 * 512;
            assert!(
                gc.live_txn_count() <= cap,
                "{level}: {} resident transactions exceed the cap {cap}",
                gc.live_txn_count()
            );
            // SSER keeps up to five nodes per resident transaction: its own
            // plus two chain nodes for each of its two instants.
            assert!(
                gc.live_node_count() <= 5 * gc.live_txn_count() + 16,
                "{level}: {} live nodes for {} live transactions",
                gc.live_node_count(),
                gc.live_txn_count()
            );
            assert_eq!(gc.first_violation_at(), unbounded_first, "{level}");
            assert_eq!(gc.finish().unwrap(), clean, "{level} corrupt={corrupt:?}");
        }
    }

    #[test]
    fn sharded_gc_matches_sequential_gc_verdicts() {
        let h = serial_history(3000, 8, Some(2800));
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            let policy = GcPolicy {
                window: 256,
                every: 64,
                reader_cap: 0,
            };
            let mut seq = IncrementalChecker::new(level).with_gc(policy);
            let _ = seq.push_history(&h);
            let mut sharded = ShardedIncrementalChecker::new(level, 3).with_gc(policy);
            let _ = sharded.push_history(&h, 50);
            assert!(sharded.pruned_txn_count() > 0);
            assert!(sharded.live_txn_count() <= 3 * 256);
            assert_eq!(
                seq.first_violation_at(),
                sharded.first_violation_at(),
                "{level}"
            );
            assert_eq!(seq.finish().unwrap(), sharded.finish().unwrap(), "{level}");
        }
    }

    #[test]
    fn gc_keeps_session_frontier_and_init_resident() {
        let h = serial_history(1000, 4, None);
        let mut gc = IncrementalChecker::new(IsolationLevel::Serializability).with_gc(GcPolicy {
            window: 64,
            every: 32,
            reader_cap: 0,
        });
        let _ = gc.push_history(&h);
        // ⊥T and the last transaction of each of the 6 sessions must be
        // resident: both can still source edges.
        assert!(gc.engine.live_txns.contains_key(&TxnId(0)));
        for last in gc.engine.sessions.iter().flatten() {
            assert!(gc.engine.live_txns.contains_key(&last.0));
        }
        assert!(gc.finish().unwrap().is_satisfied());
    }

    #[test]
    fn checkpoint_after_gc_resumes_exactly() {
        let h = serial_history(2000, 8, Some(1900));
        let level = IsolationLevel::StrictSerializability;
        let clean = check_streaming(level, &h).unwrap();
        let mut c = IncrementalChecker::new(level).with_gc(GcPolicy {
            window: 256,
            every: 64,
            reader_cap: 0,
        });
        if let Some(init) = h.init_txn() {
            c.feed(h.txn(init).clone(), true);
        }
        let tail = push_prefix(&mut c, &h, 1000);
        assert!(c.pruned_txn_count() > 0, "GC ran before the checkpoint");
        let json = serde_json::to_string(&c.checkpoint()).unwrap();
        let mut resumed = IncrementalChecker::resume(serde_json::from_str(&json).unwrap());
        assert_eq!(
            resumed.gc_policy(),
            Some(GcPolicy {
                window: 256,
                every: 64,
                reader_cap: 0,
            }),
            "the GC policy must survive the snapshot"
        );
        for t in tail {
            let _ = resumed.push(t);
        }
        assert_eq!(resumed.finish().unwrap(), clean);
    }

    #[test]
    fn sser_pending_reads_settle_at_finish() {
        // A read of a never-written value stays pending and settles as a
        // THINAIRREAD at finish(), matching the batch pre-scan.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed_timed(0, vec![Op::read(0u64, 777u64)], 10, 20);
        let h = b.build();
        let batch = crate::check::check_sser(&h).unwrap();
        let streaming = check_streaming(IsolationLevel::StrictSerializability, &h).unwrap();
        assert_eq!(batch, streaming);
    }
}
