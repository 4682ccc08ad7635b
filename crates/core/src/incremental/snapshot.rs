//! [`CheckerSnapshot`]: the serialized form of a streaming checker.

use super::engine::Engine;
use super::keystate::KeyState;
use crate::check::IsolationLevel;
use serde::{Deserialize, Serialize, Source};

/// A complete, self-contained snapshot of a streaming checker: everything
/// needed to resume verification exactly where it stopped — the engine
/// (graph, maintained order, time-chain, verdict latch) plus the per-key
/// provenance indexes.
///
/// A snapshot holds what the checker knows, not how it stores it: every
/// hash map in it is written in key order, so its bytes are a function of
/// the checker's state alone, and a resumed checker's next snapshot is the
/// snapshot it was resumed from. Snapshots serialize through the workspace
/// serde stack, so `mtc-store` can frame them into checkpoint files; a
/// resumed checker finishes with a verdict — violation payload and
/// `first_violation_at` included — bit-identical to the uninterrupted run's.
#[derive(Clone, Debug, Serialize)]
pub struct CheckerSnapshot {
    /// Snapshot format version.
    pub(super) version: u32,
    pub(super) engine: Engine,
    pub(super) keys: KeyState,
}

/// The fields of a [`CheckerSnapshot`], before its labels are checked.
#[derive(Deserialize)]
struct Stored {
    version: u32,
    engine: Engine,
    keys: KeyState,
}

/// Read back, a snapshot is refused unless its order holds no id past its
/// node count, each label in its rows names a kind and a key its target
/// transaction has, and its tables agree with the order: its live nodes are
/// exactly the nodes the transaction, tail and time-chain tables place, each
/// once and owned by what places it, and its chain's instants strictly
/// increase.
impl Deserialize for CheckerSnapshot {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, serde::Error> {
        let Stored {
            version,
            engine,
            keys,
        } = Stored::pull(src)?;
        engine.check_labels().map_err(serde::Error::msg)?;
        Ok(CheckerSnapshot {
            version,
            engine,
            keys,
        })
    }
}

/// Current snapshot format version. Bumped to 2 when the per-key state
/// gained explicit reader-eviction markers (the GC reader-cap feature); to
/// 3 when the engine's hot maps moved to windowed arenas (`TxnMap` and
/// provenance-row layouts) and the GC gained epoch scheduling (`gc_epochs`);
/// to 4 when the time-chain moved to collapsed single-node slots with lazy
/// role splitting (the `TimeChain` serialization changed shape); to 5 when
/// the snapshot became one key state with its maps in key order, lost the
/// fields nothing read, and SSER's time hooks moved directly behind `SO`;
/// to 6 when the bytes lost every field and variant name (a struct is its
/// fields in declaration order, see `mtc_store::binval`) and the three slots
/// version 5 kept for its layout alone — the engine's former pipeline
/// switches, the GC's reader cap and the key state's eviction markers.
/// Since version 6 the bytes do not describe themselves: adding, dropping
/// or moving a field of any type a snapshot holds is a bump. Version 7: SI
/// runs in the one maintained order through tail nodes (the composed order,
/// its provenance rows and its edge indexes left the engine), and the key
/// state is written as it is held — its slots, version records and maps —
/// instead of as the five maps it was before its records. Version 8: the
/// engine's labelled edge list left it — each dependency edge is one entry
/// of the order's forward rows, its label packed beneath the target's id,
/// its key named by a slot in the per-transaction key table the engine
/// gained — and the derived-edge count is a field of its own. Version 9:
/// the time-chain holds one anchor per commit instant, a slot is
/// `(instant, node)` with no begin role, and only a timed SSER commit's
/// instants are recorded.
pub const SNAPSHOT_VERSION: u32 = 9;

impl CheckerSnapshot {
    /// The isolation level the snapshotted checker enforces.
    pub fn level(&self) -> IsolationLevel {
        self.engine.level
    }

    /// Transactions consumed when the snapshot was taken (including `⊥T`).
    pub fn txn_count(&self) -> usize {
        self.engine.txn_count
    }

    /// Snapshot format version.
    pub fn version(&self) -> u32 {
        self.version
    }
}
