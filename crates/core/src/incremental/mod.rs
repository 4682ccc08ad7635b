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
//! | `mod.rs` | this essay, `Findings` (what one transaction turned up, before it is applied) | every file below |
//! | `keystate.rs` | `KeyState`: per-version records and per-key slots, the one-pass per-key decomposition, edge derivation, the per-key sweep | `checker` only |
//! | `engine.rs` | `Engine`: the one maintained order, whose rows hold each dependency edge once with its label, the key table the labels' keys index, SI's split edges, time-chain hooks, verdict latch, `admit`/`settle` | `checker` only |
//! | `arena.rs` | `TxnMap`, `IdOrdered`: the engine's dense maps and their snapshot layout | `engine`, `gc` |
//! | `gc.rs` | `GcPolicy`, the epoch clock and `Engine::collect` (candidates, worklist closure, commit) | `checker` only |
//! | `snapshot.rs` | `CheckerSnapshot` and its version | `checker`; `mtc-store` through serde |
//! | `checker.rs` | `IncrementalChecker`: every accessor, `push*`, `checkpoint`/`resume`, `finish`, and the one ingest loop | the public API |
//!
//! (`benchmark_leftovers.rs` holds two names the standalone `benchmark/`
//! package still links; see its header.)
//!
//! ## One transaction, stage by stage
//!
//! `ingest` is `admit` → `derive` → `settle`. The first two only *find*
//! (and update the indexes, completely, whatever they find); `settle`
//! applies, in the batch pipeline's order, and stops at the first stage
//! that latches:
//!
//! 1. the shape error of `validate_transaction`, else the first
//!    `DuplicateValue` by (key rank, program order): an error, nothing else;
//! 2. the first `INT` violation in program order, else the provenance
//!    anomaly of lowest key rank (a resolved waiter's before the
//!    transaction's own read);
//! 3. at SI, the DIVERGENCE of lowest `write_set` rank — `CHECKSI`'s early
//!    exit;
//! 4. the edges, until one closes a cycle: `SO`, SSER's time hooks (the
//!    commit anchor's splice and late-commit fix-up edges, then the two
//!    hook edges), then the key edges
//!    key by key in `key_set` order, within a key in discovery order —
//!    waiters this transaction's writes resolve, then its own read: `WR`,
//!    `RW` to known overwriters, `WW`, `RW` from known readers.
//!
//! The order decides adjacency order — hence every later certificate and
//! every snapshot byte (`tests/streaming_verdict_fixture.rs` and
//! `mtc-store`'s `store_differential.rs` hold it).
//!
//! With observability on, one push in thirty-two records how long each stage
//! took, in nanoseconds, as `core.stream.admit`, `core.stream.derive` and
//! `core.stream.settle`, beside its total in `checker.ingest_txn_micros`
//! (a due `close_epoch` counts in the total only). Every GC epoch records
//! its parts the same way — `core.stream.gc.sweep` at each,
//! `core.stream.gc.refs` and `core.stream.gc.collect` at a collection commit
//! — beside its total in `checker.gc_epoch_micros`.
//!
//! ## What allocates
//!
//! In steady state a mini-transaction's trip through `ingest` allocates
//! nothing of its own: the per-key decomposition, the findings' edge list,
//! the time-chain splice pairs and the stack and node sets of a reorder of
//! the maintained order are buffers that outlive the transaction; the local
//! `INT` scan looks back over the operations instead of indexing them; a
//! node's adjacency rows hold their first five neighbours in place, a
//! dependency edge is one labelled entry of them and nothing else (a pair
//! that comes again, `WR` and `WW` from one writer, is relabelled in place),
//! and a version's reader and overwriter lists hold their first two
//! transactions in place (`mtc_history::InlineSeq`, the rows' type). What
//! is left is the growth of the long-lived containers (amortized), a spilled
//! adjacency row for one row in forty and a spilled reader list for
//! the one version in twelve that three or more transactions read. SI adds
//! a tail node per transaction and a second order edge per base edge, which
//! spill more adjacency rows. On `live_uniform`'s stream
//! `tests/ingest_allocations.rs` reads 0.28 (SER), 0.46 (SSER) and 1.04 (SI) allocations per pushed
//! transaction — 0.76, 1.48 and 2.15 while the engine kept a labelled edge
//! list beside the order and a repeated pair twice in its rows — and holds
//! budgets of 0.30, 0.50 and 1.05.
//!
//! ## Where the state lives
//!
//! Per transaction, dense tables (`TxnMap`, indexed by id from the GC's
//! watermark up): the order node of each resident transaction, at SI its
//! tail node, the (at most two) keys it touches, which the key slot of a
//! labelled row entry into it indexes, and apart from them — so that the
//! node lookups of every edge stay in the smaller tables — the instants of
//! each timed SSER commit, which the GC and the late-commit fix-up read. Per version, one record holds its
//! provenance and reader lists, and the newest version of each key `⊥T`
//! seeded sits in a vector indexed by key. A read of the current version —
//! most reads — finds it in the key's slot without probing a map keyed by
//! `(key, value)`; the write that replaces it probes the map once for a
//! record of its new value and files the replaced version there. A snapshot
//! writes the key state as it is held — slots, records and maps, every map
//! in key order; the instants' table is written as the map in id order it
//! was.
//!
//! ## Strict serializability and the online time-chain
//!
//! Strict serializability adds the real-time order to the mix: a dependency
//! path must never run from a transaction back to one that *finished before
//! it began*. The batch [`crate::check_sser`] encodes this by sorting every
//! begin/commit instant once and threading them into a chain of time nodes.
//! The streaming engine keeps a chain **online** ([`mtc_history::TimeChain`])
//! with one anchor per distinct commit instant, in instant order: a
//! committed transaction that ends at `e` and begins at `b` points into the
//! anchor of `e` and hangs off the anchor of the greatest commit instant
//! below `b`, so anchors lead from `T1` to `T2` iff `end(T1) < begin(T2)`.
//! `admit` allocates the transaction's node, then its commit anchor, then
//! looks up the anchor it hangs off: in a stream in commit order every chain
//! and hook edge agrees with the maintained order, and nothing reorders. A
//! commit instant that arrives late, below a begin already hooked, is
//! spliced in, and each hooked transaction that now hangs off it gains an
//! edge from it — found in its predecessor anchor's row or, below every
//! anchor, among the resident transactions (`Engine::commit_anchor`). A
//! real-time-order violation latches the moment a dependency edge
//! contradicts the chain. Use [`IncrementalChecker::new_sser`] plus the
//! `*_timed` push methods.
//!
//! ## Snapshot isolation as split nodes
//!
//! The paper checks SI on MT histories as the acyclicity of
//! `(SO ∪ WR ∪ WW) ; RW?`. The streaming engine keeps that composition in
//! the one maintained order SER and SSER use: at SI every transaction `v`
//! has a second node, its *tail* `v̂` (`NodeOwner::Tail`), allocated beside
//! its node in `admit`. A base edge `a → b` (`SO`, `WR`, `WW`) goes in as
//! `a → b` and `a → b̂`, an `RW` edge `b → c` as `b̂ → c` (`split_edge`).
//!
//! A tail is entered only by base edges and left only by `RW` edges, so a
//! path between two transaction nodes is a sequence of base edges, each
//! possibly followed by one `RW` edge — exactly a path of composed edges.
//! A cycle of the split graph passes a transaction node (tails have no edge
//! between them), so the order rejects an edge iff the composition gains a
//! cycle, at the same dependency edge: verdicts and `first_violation_at`
//! are the composition's. `tests.rs` holds the encoding to the composed
//! pairs at every prefix of arbitrary and catalogue histories.
//!
//! A rejected cycle reads back from its first transaction node, each hop's
//! label read from the row entry it runs through (the rejected edge's
//! passed in): a hop into a tail or between transactions carries a base
//! kind, a hop out of a tail an `RW` kind, because those are the only
//! labels `split_edge` puts there. The GC treats a tail as part of its
//! transaction: both are candidates together, both are pinned by a
//! retained predecessor, both are pruned together. Nothing else is kept for
//! SI: no composed pairs are materialized, so no provenance rows, no
//! per-transaction edge lists and no GC pins that guard them.
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
use mtc_history::{Edge, IntraViolation};

mod arena;
mod benchmark_leftovers;
mod checker;
mod engine;
mod gc;
mod keystate;
mod snapshot;
#[cfg(test)]
mod tests;

pub use benchmark_leftovers::{tune, ShardedIncrementalChecker};
pub use checker::{check_streaming, IncrementalChecker, StreamStatus};
pub use engine::OrderEdge;
pub use gc::GcPolicy;
pub use snapshot::{CheckerSnapshot, SNAPSHOT_VERSION};

/// What consuming one transaction turned up, before any of it is applied:
/// filled by `Engine::admit`'s local scans and `KeyState::derive`, consumed
/// by `Engine::settle`. Every entry carries the rank of its key in the
/// transaction's `key_set` (`write_set` for a DIVERGENCE; 0 for the
/// key-less findings of `admit`). Only the lowest-ranked error, anomaly and
/// DIVERGENCE can ever be reported, so only those are kept.
#[derive(Debug, Default)]
struct Findings {
    /// The input left the checker's domain (malformed MT, duplicate value).
    error: Option<(u32, CheckError)>,
    /// An intra-transactional / read-provenance anomaly became provable.
    intra: Option<(u32, IntraViolation)>,
    /// The DIVERGENCE pattern completed (SI only).
    divergence: Option<(u32, Divergence)>,
    /// The key-derived dependency edges, in discovery order.
    edges: Vec<(u32, Edge)>,
}

/// Keeps in `slot` the finding of lowest rank, the earlier one on a tie.
fn keep_lowest<T>(slot: &mut Option<(u32, T)>, rank: u32, finding: T) {
    if slot.as_ref().is_none_or(|&(best, _)| rank < best) {
        *slot = Some((rank, finding));
    }
}
