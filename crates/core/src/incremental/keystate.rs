//! Per-key state of the streaming checker: the provenance indexes every
//! dependency edge is derived from, the decomposition of a transaction into
//! per-key work, and the settled-prefix sweep.
//!
//! A version `(key, value)` has one record, [`Version`]: its provenance and
//! its reader lists. A key's newest version lives in the key's [`Slot`] — a
//! dense vector indexed by key for the key space `⊥T` seeded, a map by key
//! beyond it — so a read of the current version, the common case, probes no
//! map keyed by `(key, value)`; every other version lives in one map. The
//! rarer state — pending reads, SI's first reader-writers — keeps maps of
//! its own. A snapshot writes all of it as it is held, every map in key
//! order, so its bytes depend on the state alone, not on how the maps were
//! filled.

use super::{keep_lowest, Findings};
use crate::divergence::Divergence;
use crate::mini::{MtViolation, MAX_OPS};
use crate::verdict::CheckError;
use mtc_history::{
    Edge, EdgeKind, FastHashMap, InlineSeq, IntraAnomaly, IntraViolation, Key, Op, Transaction,
    TxnId, TxnStatus, Value, INIT_VALUE,
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

impl WriteReg {
    /// Every transaction the registration names.
    fn ids(&self) -> impl Iterator<Item = TxnId> {
        let ids = [
            self.committed_last,
            self.committed_intermediate,
            self.non_committed,
            self.first_committed_any,
        ];
        ids.into_iter().flatten()
    }
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

/// The record of one version `(key, value)`: its provenance and its reader
/// lists, held together so that one lookup finds both.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Version {
    /// Provenance of the value (the `writes` entry).
    reg: Option<WriteReg>,
    /// Transactions that read the version the committed last writer
    /// installed, and those that read it and overwrote it — RW derivation,
    /// Algorithm 1 (the `readers_of` entry under `(writer, key)`).
    readers: Option<(Readers, Readers)>,
}

impl Version {
    fn is_empty(&self) -> bool {
        self.reg.is_none() && self.readers.is_none()
    }
}

/// One key: its newest version — the value installed by the newest
/// committed last-write of the key, the version a well-behaved new reader is
/// expected to observe — and that version's record. Without a committed
/// last-write the slot is empty.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Slot {
    latest: Option<Value>,
    version: Version,
}

/// The per-key indexes of the streaming checker.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub(super) struct KeyState {
    /// Every version's record, the newest of each key in the key's slot.
    table: Table,
    /// Reader lists whose writer is not their version's committed last
    /// writer: only a duplicate value's waiters, resolved by the duplicate
    /// writer in the transaction that latches the error, leave one.
    pub(super) strays: FastHashMap<(TxnId, Key), (Readers, Readers)>,
    /// Per `(key, value)`: first committed reader-writer (DIVERGENCE scan).
    first_reader_writer: FastHashMap<(Key, Value), TxnId>,
    /// Reads waiting for their writer to appear in the stream.
    pending: FastHashMap<(Key, Value), Vec<PendingRead>>,
    /// The transaction being derived, per key — pure scratch, refilled by
    /// every [`KeyState::derive`], kept for its capacity.
    #[serde(skip)]
    scratch: Decomposed,
}

/// The version records: each key's newest in its slot, the rest in one map.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
struct Table {
    /// The slots of keys `0..dense.len()`: the key space `⊥T` seeded, when
    /// it is dense enough to index.
    dense: Vec<Slot>,
    /// The slots of every other key.
    sparse: FastHashMap<Key, Slot>,
    /// Every version that is not its key's newest: older ones, and values
    /// written by aborted or intermediate writes.
    versions: FastHashMap<(Key, Value), Version>,
}

/// How many slots a key space gets in place: one per key up to the largest,
/// if at least half of those are in the space; none otherwise.
fn dense_len(keys: impl Iterator<Item = Key>) -> usize {
    let (mut count, mut top) = (0u64, None);
    for key in keys {
        count += 1;
        top = top.max(Some(key.0));
    }
    match top {
        Some(top) if top < 2 * count => top as usize + 1,
        _ => 0,
    }
}

/// The slot of `key`, created empty among the sparse ones if it has none.
fn slot_entry<'a>(
    dense: &'a mut [Slot],
    sparse: &'a mut FastHashMap<Key, Slot>,
    key: Key,
) -> &'a mut Slot {
    match usize::try_from(key.0).ok().and_then(|i| dense.get_mut(i)) {
        Some(slot) => slot,
        None => sparse.entry(key).or_default(),
    }
}

/// The slot of `key`, if it has one.
fn slot_mut<'a>(
    dense: &'a mut [Slot],
    sparse: &'a mut FastHashMap<Key, Slot>,
    key: Key,
) -> Option<&'a mut Slot> {
    match usize::try_from(key.0).ok().and_then(|i| dense.get_mut(i)) {
        Some(slot) => Some(slot),
        None => sparse.get_mut(&key),
    }
}

impl Table {
    /// An empty table whose dense slots cover `keys`.
    fn for_keys(keys: impl Iterator<Item = Key>) -> Self {
        Table {
            dense: vec![Slot::default(); dense_len(keys)],
            ..Table::default()
        }
    }

    fn slot(&self, key: Key) -> Option<&Slot> {
        match usize::try_from(key.0).ok().and_then(|i| self.dense.get(i)) {
            Some(slot) => Some(slot),
            None => self.sparse.get(&key),
        }
    }

    fn get(&self, key: Key, value: Value) -> Option<&Version> {
        match self.slot(key) {
            Some(slot) if slot.latest == Some(value) => Some(&slot.version),
            _ => self.versions.get(&(key, value)),
        }
    }

    fn get_mut(&mut self, key: Key, value: Value) -> Option<&mut Version> {
        let Table {
            dense,
            sparse,
            versions,
        } = self;
        match slot_mut(dense, sparse, key) {
            Some(slot) if slot.latest == Some(value) => Some(&mut slot.version),
            _ => versions.get_mut(&(key, value)),
        }
    }

    /// The record of `(key, value)`, created empty if there is none.
    fn entry(&mut self, key: Key, value: Value) -> &mut Version {
        let Table {
            dense,
            sparse,
            versions,
        } = self;
        match slot_mut(dense, sparse, key) {
            Some(slot) if slot.latest == Some(value) => &mut slot.version,
            _ => versions.entry((key, value)).or_default(),
        }
    }

    /// Makes `value` the newest version of `key` — a committed last-write
    /// installed it — and returns its record: the record the slot held
    /// moves into the map, the one of `value`, if the map had one, into the
    /// slot.
    fn promote(&mut self, key: Key, value: Value) -> &mut Version {
        let Table {
            dense,
            sparse,
            versions,
        } = self;
        let slot = slot_entry(dense, sparse, key);
        if slot.latest != Some(value) {
            let newest = versions.remove(&(key, value)).unwrap_or_default();
            let older = std::mem::replace(&mut slot.version, newest);
            if let Some(old) = slot.latest.replace(value) {
                if !older.is_empty() {
                    versions.insert((key, old), older);
                }
            }
        }
        &mut slot.version
    }

    /// Every slot with its key, in no particular order.
    fn slots(&self) -> impl Iterator<Item = (Key, &Slot)> + '_ {
        let dense = (self.dense.iter().enumerate()).map(|(i, slot)| (Key(i as u64), slot));
        dense.chain(self.sparse.iter().map(|(&key, slot)| (key, slot)))
    }

    /// Every record, in no particular order.
    fn iter(&self) -> impl Iterator<Item = ((Key, Value), &Version)> + '_ {
        let newest = self.slots();
        let newest = newest.filter_map(|(key, slot)| Some(((key, slot.latest?), &slot.version)));
        newest.chain(self.versions.iter().map(|(&at, version)| (at, version)))
    }
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
/// operations, into buffers that outlive it. A mini-transaction (≤ 2 keys,
/// ≤ [`MAX_OPS`] operations) finds each operation's key slot by looking
/// back over the slots before it and costs no allocation; a wider one — the
/// 1 000-write `⊥T`, a wide non-MT event — asks one map of key to slot,
/// built for that transaction, so the pass is linear in the width.
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
        let mut slots = (ops.len() > MAX_OPS)
            .then(|| FastHashMap::with_capacity_and_hasher(ops.len(), Default::default()));
        for (i, op) in ops.iter().enumerate() {
            let key = op.key();
            let next = self.keys.len();
            let slot = match &mut slots {
                Some(slots) => *slots.entry(key).or_insert(next),
                None => (self.keys.iter())
                    .position(|w| w.key == key)
                    .unwrap_or(next),
            };
            if slot == next {
                self.keys.push(KeyWork {
                    key,
                    write_rank: u32::MAX,
                    // Only the first operation on a key can be its external
                    // read.
                    external_read: op.is_read().then_some((op.value(), i)),
                    last_write: op.value(),
                    future_candidate: false,
                });
            }
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
    #[cfg(test)]
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
    ///
    /// Each key is worked off in one piece: its writes are registered
    /// (resolving the reads that waited for them), then its DIVERGENCE
    /// pattern and its external read are examined. Keys touch disjoint
    /// state, so this equals registering every write before examining any
    /// read. A read of a value the transaction does not write itself is
    /// even independent of the key's writes, and is examined first, while
    /// the version it reads — usually the key's newest — is still in the
    /// slot the writes move it out of; its edges and anomaly are filed
    /// behind the writes', as if it came after them.
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
        if is_init {
            // ⊥T comes first: the key space it seeds is the dense one.
            self.table = Table::for_keys(per_key.keys.iter().map(|w| w.key));
        }
        let committed = txn.status == TxnStatus::Committed;
        let reads = committed && !is_init;
        let mut next = 0;
        for (key_rank, work) in per_key.keys.iter().enumerate() {
            let key_rank = key_rank as u32;
            let start = next;
            while per_key.writes.get(next).is_some_and(|w| w.slot == key_rank) {
                next += 1;
            }
            let writes = &per_key.writes[start..next];
            let read_first = reads && !work.future_candidate;
            if !read_first {
                self.register(id, committed, key_rank, work, writes, found);
            }
            let mut read = None;
            if reads {
                if scan_divergence {
                    self.scan_divergence(id, work, found);
                }
                let mark = found.edges.len();
                read = self.resolve_own_read(id, key_rank, work, has_init, found);
                if read_first {
                    let read_edges = found.edges.len() - mark;
                    self.register(id, committed, key_rank, work, writes, found);
                    found.edges[mark..].rotate_left(read_edges);
                }
            }
            if let Some(read) = read {
                keep_lowest(&mut found.intra, key_rank, read);
            }
        }
        // `⊥T` is as wide as the key space: its buffers are not worth keeping.
        if !is_init {
            self.scratch = per_key;
        }
    }

    /// Registers the transaction's writes of one key (duplicate detection)
    /// and, for a committed one, resolves the reads that were waiting for
    /// them.
    fn register(
        &mut self,
        id: TxnId,
        committed: bool,
        key_rank: u32,
        work: &KeyWork,
        writes: &[KeyWrite],
        found: &mut Findings,
    ) {
        let key = work.key;
        for write in writes {
            let (value, is_last) = (write.value, write.value == work.last_write);
            let version = if committed && is_last {
                self.table.promote(key, value)
            } else {
                self.table.entry(key, value)
            };
            let reg = version.reg.get_or_insert_with(WriteReg::default);
            reg.last_touch = reg.last_touch.max(id);
            if !committed {
                if reg.non_committed.is_none() {
                    reg.non_committed = Some(id);
                }
                continue;
            }
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
            } else if reg.committed_intermediate.is_none() {
                reg.committed_intermediate = Some(id);
            }
            let Some(waiters) = self.pending.remove(&(key, value)) else {
                continue;
            };
            let installs = reg.committed_last == Some(id);
            for waiter in waiters {
                if is_last {
                    // The version now exists: the deferred WR/WW/RW edges of
                    // every waiting reader, in arrival order.
                    let lists = if installs {
                        version.readers.get_or_insert_with(Default::default)
                    } else {
                        self.strays.entry((id, key)).or_default()
                    };
                    let (reader, writes_key) = (waiter.txn, waiter.writes_key);
                    reads_from(lists, id, reader, key, writes_key, key_rank, found);
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

    /// The DIVERGENCE scan of one key, ranked by `write_set` order like
    /// `find_divergence`.
    fn scan_divergence(&mut self, id: TxnId, work: &KeyWork, found: &mut Findings) {
        let Some((value, _)) = work.external_read.filter(|_| work.writes_key()) else {
            return;
        };
        let first = *self
            .first_reader_writer
            .entry((work.key, value))
            .or_insert(id);
        if first != id {
            let version = self.table.get(work.key, value);
            let writer = version.and_then(|v| v.reg.as_ref()?.committed_last);
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

    /// Resolves the transaction's external read of one key, if it has one:
    /// its edges go into `found`, its anomaly, if it is one, is returned.
    fn resolve_own_read(
        &mut self,
        id: TxnId,
        key_rank: u32,
        work: &KeyWork,
        has_init: bool,
        found: &mut Findings,
    ) -> Option<IntraViolation> {
        let (value, op_index) = work.external_read?;
        if value == INIT_VALUE && !has_init {
            // Read of the implicit initial state: no dependency.
            return None;
        }
        let key = work.key;
        let mut intermediate = None;
        if let Some(version) = self.table.get_mut(key, value) {
            if let Some(reg) = &mut version.reg {
                // Reads refresh the GC staleness clock of the version.
                reg.last_touch = reg.last_touch.max(id);
                match reg.committed_last {
                    Some(writer) if writer != id => {
                        let lists = version.readers.get_or_insert_with(Default::default);
                        let writes_key = work.writes_key();
                        reads_from(lists, writer, id, key, writes_key, key_rank, found);
                        return None;
                    }
                    _ => intermediate = reg.committed_intermediate,
                }
            }
        }
        // A *foreign* committed transaction overwrote the value before
        // committing (the reader's own intermediate write is the FUTUREREAD
        // case, settled at finish()).
        if intermediate.is_some_and(|w| w != id) {
            return Some(IntraViolation {
                anomaly: IntraAnomaly::IntermediateRead,
                txn: id,
                op_index,
                key,
                value,
            });
        }
        // Nobody (valid) has installed the value yet: defer.
        self.pending
            .entry((key, value))
            .or_default()
            .push(PendingRead {
                txn: id,
                op_index,
                key,
                value,
                future_candidate: work.future_candidate,
                writes_key: work.writes_key(),
            });
        None
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
            .table
            .get(p.key, p.value)
            .and_then(|v| v.reg.clone())
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
    /// have no pending read, with their reader lists; a first reader-writer
    /// whose version has neither a registration nor a pending read left —
    /// and trims the reader/overwriter lists of live versions down to the
    /// window. Purely mutating — the set of transactions the surviving state
    /// still references is materialized separately by [`KeyState::refs`],
    /// and only at collection-commit epochs.
    pub(super) fn sweep(&mut self, watermark: TxnId) {
        // Readers and overwriters below the window can no longer gain RW
        // edges that matter (out-of-window interactions are outside the
        // GC's contract); trimming them unpins their transactions.
        let trim = |(readers, overwriters): &mut (Readers, Readers)| {
            readers.retain(|r| r >= watermark);
            overwriters.retain(|o| o >= watermark);
        };
        let Table {
            dense,
            sparse,
            versions,
        } = &mut self.table;
        let pending = &self.pending;
        for slot in dense.iter_mut().chain(sparse.values_mut()) {
            if let Some(lists) = &mut slot.version.readers {
                trim(lists);
            }
        }
        versions.retain(|&(key, value), version| {
            let old =
                |reg: &WriteReg| reg.last_touch < watermark && reg.ids().all(|t| t < watermark);
            if version.reg.as_ref().is_some_and(old) && !pending.contains_key(&(key, value)) {
                return false;
            }
            if let Some(lists) = &mut version.readers {
                trim(lists);
            }
            true
        });
        for lists in self.strays.values_mut() {
            trim(lists);
        }
        let table = &self.table;
        self.first_reader_writer.retain(|&(key, value), _| {
            let registered = table.get(key, value).is_some_and(|v| v.reg.is_some());
            registered || pending.contains_key(&(key, value))
        });
    }

    /// The set of transactions the current per-key state still references
    /// (they must stay resident through a collection). Called right after a
    /// [`KeyState::sweep`] at collection-commit epochs only — the sweeps in
    /// between skip this scan entirely.
    pub(super) fn refs(&self) -> TxnSet {
        let mut refs = TxnSet::default();
        for (_, version) in self.table.iter() {
            if let Some(reg) = &version.reg {
                refs.extend(reg.ids());
            }
            if let Some((readers, overwriters)) = &version.readers {
                refs.extend(readers.iter().chain(overwriters.iter()).copied());
            }
        }
        for (&(w, _), (readers, overwriters)) in &self.strays {
            refs.extend(std::iter::once(w));
            refs.extend(readers.iter().chain(overwriters.iter()).copied());
        }
        refs.extend(self.first_reader_writer.values().copied());
        for waiters in self.pending.values() {
            refs.extend(waiters.iter().map(|p| p.txn));
        }
        refs
    }

    /// Longest resident reader list across all live versions.
    pub(super) fn max_reader_list_len(&self) -> usize {
        let records = self.table.iter().filter_map(|(_, v)| v.readers.as_ref());
        records
            .chain(self.strays.values())
            .map(|(readers, _)| readers.len())
            .max()
            .unwrap_or(0)
    }
}

/// A set of transactions as a bitmap over their ids: what [`KeyState::refs`]
/// hands the GC, which asks it once per resident transaction.
#[derive(Debug, Default)]
pub(super) struct TxnSet(Vec<bool>);

impl TxnSet {
    pub(super) fn contains(&self, t: TxnId) -> bool {
        self.0.get(t.index()).copied().unwrap_or(false)
    }

    fn extend(&mut self, ids: impl Iterator<Item = TxnId>) {
        for t in ids {
            if self.0.len() <= t.index() {
                self.0.resize(t.index() + 1, false);
            }
            self.0[t.index()] = true;
        }
    }
}

/// Records the WR / WW edges of "`reader` reads `key` from `writer`" plus
/// the RW anti-dependencies derivable from the version's reader lists
/// `(readers, overwriters)`, which gain `reader`.
fn reads_from(
    (readers, overwriters): &mut (Readers, Readers),
    writer: TxnId,
    reader: TxnId,
    key: Key,
    reader_writes_key: bool,
    key_rank: u32,
    found: &mut Findings,
) {
    let mut edge = |from, to, kind| found.edges.push((key_rank, Edge { from, to, kind }));
    edge(writer, reader, EdgeKind::Wr(key));
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
        ///
        /// Half the cases are up to 12 operations over 4 keys, on both sides
        /// of the mini-transaction width; the other half up to 80 operations
        /// over up to 64 keys, past it. Either half spreads its keys over
        /// the `u64` range half the time.
        #[test]
        fn one_pass_decomposition_equals_the_accessor_built_slices(
            ops in prop::collection::vec((any::<bool>(), 0u64..64, 0u64..3), 0..81),
            narrow in any::<bool>(),
            keys in 1u64..65,
            sparse in any::<bool>(),
        ) {
            let (width, keys) = if narrow { (ops.len() % 13, 4) } else { (ops.len(), keys) };
            let spread = |k: u64| if sparse { k.wrapping_mul(0x9E37_79B9_7F4A_7C15) } else { k };
            let ops: Vec<Op> = ops[..width]
                .iter()
                .map(|&(write, k, v)| {
                    let k = spread(k % keys);
                    if write { Op::write(k, v) } else { Op::read(k, v) }
                })
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
