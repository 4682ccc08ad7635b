//! [`CheckerSnapshot`]: the serialized form of a streaming checker.

use super::engine::Engine;
use super::gc::GcPolicy;
use super::keystate::KeyState;
use crate::check::IsolationLevel;
use serde::{Deserialize, Emitter, Error, Head, Serialize, Source};

/// A complete, self-contained snapshot of a streaming checker: everything
/// needed to resume verification exactly where it stopped — the engine
/// (graphs, maintained orders, time-chain, verdict latch) plus the per-key
/// provenance indexes.
///
/// A snapshot holds what the checker knows, not how it stores it: every
/// hash map in it is written in key order, so its bytes are a function of
/// the checker's state alone, and a resumed checker's next snapshot is the
/// snapshot it was resumed from. Snapshots serialize through the workspace
/// serde stack, so `mtc-store` can frame them into checkpoint files; a
/// resumed checker finishes with a verdict — violation payload and
/// `first_violation_at` included — bit-identical to the uninterrupted run's.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CheckerSnapshot {
    /// Snapshot format version.
    pub(super) version: u32,
    pub(super) engine: Engine,
    pub(super) keys: KeyState,
}

/// Current snapshot format version. Bumped to 2 when the per-key state
/// gained explicit reader-eviction markers (the GC reader-cap feature); to
/// 3 when the engine's hot maps moved to windowed arenas (`TxnMap` /
/// `ProvMap` layouts) and the GC gained epoch scheduling (`gc_epochs`);
/// to 4 when the time-chain moved to collapsed single-node slots with lazy
/// role splitting (the `TimeChain` serialization changed shape); to 5 when
/// the snapshot became one key state with its maps in key order, lost the
/// fields nothing read, and SSER's time hooks moved directly behind `SO`.
pub const SNAPSHOT_VERSION: u32 = 5;

/// The slot of a version-5 snapshot where the checker's four former
/// pipeline switches went: kept, field for field and in the
/// same position inside the engine, so snapshot bytes stay what version 5
/// says. A new checker writes the values every checker ran with; a resumed
/// checker writes back what it read. Nothing reads the slot, and the next
/// format version drops it.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub(super) struct OptionsSlot {
    validate_mt: bool,
    prescan_intra: bool,
    reference_build: bool,
    skip_divergence_early_exit: bool,
}

impl Default for OptionsSlot {
    fn default() -> Self {
        OptionsSlot {
            validate_mt: true,
            prescan_intra: true,
            reference_build: false,
            skip_divergence_early_exit: false,
        }
    }
}

/// The GC policy as a version-5 snapshot writes it: `window`, `every` and,
/// in the third field, the reader cap an earlier build's sweep could
/// truncate live reader lists to. This build keeps every reader, so it
/// writes 0 there, and refuses a snapshot that holds anything else — a
/// capped checker's clean verdict was only qualified, and a checkpoint it
/// wrote is passed over so the log replays to an unqualified one. The next
/// format version drops the field.
#[derive(Serialize, Deserialize)]
struct GcPolicySlot {
    window: usize,
    every: usize,
    reader_cap: usize,
}

impl Serialize for GcPolicy {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        GcPolicySlot {
            window: self.window,
            every: self.every,
            reader_cap: 0,
        }
        .emit(out);
    }
}

impl Deserialize for GcPolicy {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        let slot = GcPolicySlot::pull(src)?;
        if slot.reader_cap != 0 {
            return Err(capped(&format!("a reader cap of {}", slot.reader_cap)));
        }
        Ok(GcPolicy {
            window: slot.window,
            every: slot.every,
        })
    }
}

/// The slot of a version-5 key state where the reader cap's eviction
/// markers went: written as the empty map, and a snapshot that holds any
/// marker is refused as [`GcPolicySlot`] says. The next format version
/// drops it.
#[derive(Clone, Copy, Debug, Default)]
pub(super) struct EvictedSlot;

impl Serialize for EvictedSlot {
    fn emit<E: Emitter + ?Sized>(&self, out: &mut E) {
        out.begin_array(0);
        out.end_array();
    }
}

impl Deserialize for EvictedSlot {
    fn pull<S: Source + ?Sized>(src: &mut S) -> Result<Self, Error> {
        match src.next()? {
            Head::Array(0) => Ok(EvictedSlot),
            Head::Array(n) => Err(capped(&format!("{n} reader-cap eviction markers"))),
            _ => Err(Error::expected("array of pairs", "EvictedSlot")),
        }
    }
}

/// Why a snapshot a capped checker wrote does not resume.
fn capped(what: &str) -> Error {
    Error::msg(format!(
        "snapshot holds {what}: this build keeps every reader and resumes no capped checker"
    ))
}

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
