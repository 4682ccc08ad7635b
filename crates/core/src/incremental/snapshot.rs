//! [`CheckerSnapshot`]: the serialized form of a streaming checker.

use super::engine::Engine;
use super::gc::Eviction;
use super::keystate::KeyState;
use crate::check::IsolationLevel;
use serde::{Deserialize, Serialize};

/// A complete, self-contained snapshot of a streaming checker: everything
/// needed to resume verification exactly where it stopped — the engine
/// (graphs, maintained orders, time-chain, verdict latch) plus the per-key
/// provenance indexes.
///
/// The key state is a list because builds up to PR 17 could spread it over
/// a pool of workers and wrote one key-disjoint state per worker; this build
/// always writes one, and [`super::IncrementalChecker::resume`] merges
/// however many it finds. Snapshots serialize through the workspace serde
/// stack, so `mtc-store` can frame them into checkpoint files; a resumed
/// checker finishes with a verdict — violation payload and
/// `first_violation_at` included — bit-identical to the uninterrupted run's.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckerSnapshot {
    /// Snapshot format version.
    pub(super) version: u32,
    /// Number of key states below: 1, or the worker count of the pooled
    /// checker of an older build that wrote the snapshot.
    pub(super) shards: usize,
    pub(super) engine: Engine,
    /// Key-disjoint key states (see the type docs).
    pub(super) keys: Vec<KeyState>,
}

/// Current snapshot format version. Bumped to 2 when the per-key state
/// gained explicit reader-eviction markers (the GC reader-cap feature); to
/// 3 when the engine's hot maps moved to windowed arenas (`TxnMap` /
/// `ProvMap` layouts) and the GC gained epoch scheduling (`gc_epochs`);
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

    /// Number of key states the snapshot carries: 1, unless a pooled checker
    /// of an older build wrote it.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Snapshot format version.
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The reader-eviction markers carried by the snapshot, across all of
    /// its key states (sorted; see [`super::GcPolicy`]'s reader-cap contract).
    pub fn reader_evictions(&self) -> Vec<Eviction> {
        let mut out: Vec<Eviction> = self.keys.iter().flat_map(KeyState::evictions).collect();
        out.sort_by_key(|e| (e.writer, e.key));
        out
    }
}
