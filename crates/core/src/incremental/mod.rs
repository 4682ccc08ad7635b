//! Streaming verification: incremental SER/SI/SSER checking of
//! mini-transaction histories, one committed transaction at a time.
//!
//! The batch verifiers of [`mod@crate::check`] need the whole history before they
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
//! There is one checker, [`IncrementalChecker`]: it owns the engine and the
//! per-key state and consumes transactions on the caller thread, one loop
//! from `push` to the verdict latch. It spawns no thread.
//!
//! ## Map
//!
//! | file | holds | called by |
//! |------|-------|-----------|
//! | `mod.rs` | this essay, the `Event` vocabulary | every file below |
//! | `keystate.rs` | `KeyState`: per-key provenance indexes, `decompose`, edge derivation, the per-key sweep | `checker` only |
//! | `engine.rs` | `Engine`: labelled graph, maintained orders, time-chain hooks, verdict latch, `admit`/`apply` | `checker` only |
//! | `gc.rs` | `GcPolicy`, `Eviction`, the epoch clock and `Engine::collect` | `checker` only |
//! | `snapshot.rs` | `CheckerSnapshot` and its version | `checker`; `mtc-store` through serde |
//! | `checker.rs` | `IncrementalChecker`: every accessor, `push*`, `checkpoint`/`resume`, `finish`, and the one ingest loop | the public API |
//!
//! (`benchmark_leftovers.rs` holds two names the standalone `benchmark/`
//! package still links; see its header.)
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
//! [`IncrementalChecker::new_sser`] plus the `*_timed` push methods.
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

use crate::divergence::Divergence;
use crate::verdict::CheckError;
use mtc_history::{EdgeKind, IntraViolation, TxnId};

mod benchmark_leftovers;
mod checker;
mod engine;
mod gc;
mod keystate;
mod snapshot;
#[cfg(test)]
mod tests;

pub use benchmark_leftovers::{tune, ShardedIncrementalChecker};
pub use checker::{check_streaming, check_streaming_with, IncrementalChecker, StreamStatus};
pub use gc::{Eviction, GcPolicy};
pub use snapshot::{CheckerSnapshot, SNAPSHOT_VERSION};

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
