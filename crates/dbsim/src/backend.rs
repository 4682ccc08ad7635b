//! The pluggable system-under-test layer.
//!
//! The paper runs its end-to-end pipeline against five real databases; this
//! reproduction originally hard-coded one simulated engine
//! ([`crate::Database`]). The [`DbBackend`] / [`DbTxn`] trait pair extracts
//! the client-visible surface of that engine — begin, read, write, append,
//! commit, abort, over register and list values, with begin/commit instants
//! and abort reasons — so that the whole execution stack
//! ([`crate::ExecutionOptions::run`] and the `mtc-runner` harness on top)
//! runs unchanged against *any* engine.
//!
//! Three families of backends ship in-tree:
//!
//! * the original OCC/MVCC simulator ([`crate::Database`]), whose anomalies
//!   come from the fault-injection layer;
//! * a pessimistic strict-2PL engine with wait-die deadlock handling
//!   ([`crate::backends::TwoPlDatabase`]), whose histories are organically
//!   strictly serializable without any fault machinery;
//! * a weak MVCC engine ([`crate::backends::WeakMvccDatabase`]) that
//!   honestly implements ReadCommitted / ReadUncommitted — no snapshot
//!   reads, no write validation — and therefore *organically* produces lost
//!   updates, write skew and dirty reads under contention.
//!
//! Backends advertise what they promise via [`DbBackend::promises`]; the
//! cross-backend conformance suite (`tests/backend_conformance.rs`) holds
//! every backend to exactly its promises.

use crate::txn::{AbortReason, CommitInfo};
use mtc_core::IsolationLevel;
use mtc_history::{Key, Value};

/// An open transaction against some backend.
///
/// Reads and writes may fail with an [`AbortReason`] (a pessimistic engine
/// aborts *inside* an operation when it loses a wait-die conflict, a real
/// network client fails on timeouts); a failed operation dooms the
/// transaction, and the driver is expected to [`DbTxn::abort`] it and retry
/// the template. Engines that cannot fail mid-transaction simply always
/// return `Ok`.
///
/// Handles must be [`Send`]: a [`crate::Session`] owns its open handle and
/// is moved into the thread that steps it ([`crate::Driver::Threaded`]).
/// (Every in-tree engine's handle is plain data over a `Sync` backend
/// reference, so this costs nothing.)
pub trait DbTxn: Send {
    /// The transaction's begin instant on the backend's logical clock.
    fn begin_ts(&self) -> u64;

    /// Reads the register at `key` (the implicit initial value if never
    /// written).
    fn read_register(&mut self, key: Key) -> Result<Value, AbortReason>;

    /// Writes `value` to the register at `key`.
    fn write_register(&mut self, key: Key, value: Value) -> Result<(), AbortReason>;

    /// Reads the list at `key` (empty if never written).
    fn read_list(&mut self, key: Key) -> Result<Vec<Value>, AbortReason>;

    /// Appends `element` to the list at `key` (a read-modify-write of the
    /// whole list).
    fn append(&mut self, key: Key, element: Value) -> Result<(), AbortReason>;

    /// Announces the transaction's next register reads, `keys` in issue
    /// order, and — with `then_commit` — that [`DbTxn::commit`] follows them
    /// with nothing in between. An engine that pays a round trip per
    /// reply-bearing call may then run them all (and the commit) with the
    /// first of those reads, so the caller promises two things: the next
    /// `read_register` calls are exactly these, and no write it issues
    /// before one of them touches that read's key. Writes to other keys may
    /// come in between. In-process engines ignore the announcement.
    fn read_ahead(&mut self, keys: &[Key], then_commit: bool) {
        let _ = (keys, then_commit);
    }

    /// Attempts to commit. On success the transaction's writes are visible
    /// atomically at the returned commit instant.
    fn commit(self: Box<Self>) -> Result<CommitInfo, AbortReason>;

    /// Rolls the transaction back, releasing any resources it holds.
    fn abort(self: Box<Self>) -> AbortReason;
}

/// A transactional system under test.
///
/// Implementations must be [`Sync`]: the client drivers issue transactions
/// from one thread per session against a shared backend reference.
pub trait DbBackend: Sync {
    /// Begins a transaction.
    fn begin(&self) -> Box<dyn DbTxn + '_>;

    /// Begins a retry of a previously aborted transaction whose first
    /// attempt observed `prior_begin_ts`.
    ///
    /// Backends whose abort/retry behaviour depends on transaction age
    /// (e.g. wait-die lock schedulers) should reuse the original timestamp
    /// so a retried transaction keeps ageing instead of being reborn
    /// youngest — otherwise a hot key can starve a session indefinitely.
    /// The default simply delegates to [`DbBackend::begin`].
    fn begin_retry(&self, prior_begin_ts: u64) -> Box<dyn DbTxn + '_> {
        let _ = prior_begin_ts;
        self.begin()
    }

    /// The most recently issued instant of the backend's logical clock
    /// (used as the end instant of aborted attempts in collected histories).
    fn now(&self) -> u64;

    /// Short engine label used in reports and bench series
    /// (e.g. `"sim-ser"`, `"2pl"`, `"weak-rc"`).
    fn label(&self) -> &'static str;

    /// True iff the backend *promises* the given isolation level — i.e. a
    /// fault-free run must produce histories that the corresponding checker
    /// accepts. A weak engine promises none of the checkable levels; the
    /// checkers are expected to catch its organic anomalies at every level
    /// it does not promise.
    fn promises(&self, level: IsolationLevel) -> bool;
}

/// Blanket plumbing so `&T` usable wherever `&dyn DbBackend` flows through
/// generic helpers is cheap; trait objects remain the common currency.
impl<B: DbBackend + ?Sized> DbBackend for &B {
    fn begin(&self) -> Box<dyn DbTxn + '_> {
        (**self).begin()
    }
    fn begin_retry(&self, prior_begin_ts: u64) -> Box<dyn DbTxn + '_> {
        (**self).begin_retry(prior_begin_ts)
    }
    fn now(&self) -> u64 {
        (**self).now()
    }
    fn label(&self) -> &'static str {
        (**self).label()
    }
    fn promises(&self, level: IsolationLevel) -> bool {
        (**self).promises(level)
    }
}
