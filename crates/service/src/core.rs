//! The protocol-independent heart of the daemon: the tenant registry, the
//! per-tenant admission queue / checker / WAL assembly, and the drain loop
//! a few plain threads run over them.
//!
//! A [`Tenant`] is three pieces glued by locks chosen for their contention
//! profile:
//!
//! * a **bounded admission queue** (`Mutex<VecDeque<IngestEvent>>`):
//!   connection handlers push whole `Ingest` batches all-or-nothing, or
//!   refuse with `Backpressure` when the batch would overflow — admission
//!   never blocks an ingest RPC on verification;
//! * a **single-flight drain lock** held across pop-and-record, so any
//!   number of drain workers preserve admission order per tenant (two
//!   workers that popped consecutive batches could otherwise record them
//!   in either order, which would corrupt session order and the verdict);
//! * the tenant's [`LiveVerifier`] and its [`MtcStore`] WAL under
//!   `root/<tenant>/`, side by side under one lock so the log order is the
//!   check order: a drained batch is appended to the log with one write,
//!   then each event of it is recorded, and after each the store
//!   checkpoints the checker if a floor calls for it and the log pays for
//!   it. The verifier is built through [`LiveVerifier::builder`]
//!   with settled-prefix GC on — and, when the directory already holds a
//!   log, resumed from the newest checkpoint plus tail replay.
//!
//! [`ServiceCore::run_drain`] runs the drain on a fixed set of scoped
//! threads: each worker sweeps the registry round-robin (offset by its index
//! so workers spread over tenants) and drains one bounded batch per tenant.
//! More than one worker earns its place because recording blocks — every
//! checkpoint floor is an `fsync` of the log, and now and then a checkpoint
//! — and a second worker checks another tenant meanwhile, on another core
//! (README, "Why there is more than one drain thread", has the numbers).

use mtc_core::{GcPolicy, IsolationLevel};
use mtc_dbsim::{IngestEvent, LiveVerifier};
use mtc_history::Transaction;
use mtc_net::proto::TenantStatus;
use mtc_store::{MtcStore, StoreStats, StreamMeta};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Largest key space a tenant may be opened over. `num_keys` is a `u64`
/// straight off the socket and `⊥T` is materialized over all of it, so an
/// unchecked one is an allocation of the client's choosing.
pub const MAX_TENANT_KEYS: u64 = 1 << 20;

/// Longest tenant name, in bytes. The name comes straight off the socket and
/// becomes a directory under the WAL root and part of a metric name that
/// lives as long as the process.
const MAX_TENANT_NAME: usize = 64;

/// Session ids an event may name are below this: the checker indexes a
/// dense per-session table by them and every snapshot carries it.
pub const MAX_SESSIONS: u32 = 1 << 16;

/// Events a drain worker feeds a tenant's checker per sweep — the unit of
/// fairness across tenants.
const DRAIN_BATCH: usize = 128;

/// Tuning of a [`ServiceCore`]; every knob has a serviceable default.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Root directory of the per-tenant WAL stores (`root/<tenant>/`).
    pub root: PathBuf,
    /// Per-tenant admission queue capacity, in events. An `Ingest` batch
    /// that would push the queue past this is refused whole with a
    /// `Backpressure` reply — events are never partially admitted and never
    /// dropped after admission.
    pub queue_cap: usize,
    /// The checkpoint floor, in recorded events: every this many, the
    /// tenant's WAL is fsynced, or a checkpoint (full checker snapshot) is
    /// written instead once the log since the newest one has grown to that
    /// one's size ([`MtcStore::recorded`]).
    pub checkpoint_every: usize,
    /// Threads carrying the drain loop.
    pub drain_workers: usize,
}

impl ServiceConfig {
    /// Defaults rooted at `root`: 1024-event queues, a checkpoint floor of
    /// 256 events, 2 drain workers.
    pub fn new(root: impl Into<PathBuf>) -> Self {
        ServiceConfig {
            root: root.into(),
            queue_cap: 1024,
            checkpoint_every: 256,
            drain_workers: 2,
        }
    }

    /// Replaces the admission queue capacity.
    pub fn queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap.max(1);
        self
    }

    /// Replaces the checkpoint floor (see
    /// [`ServiceConfig::checkpoint_every`](#structfield.checkpoint_every)).
    pub fn checkpoint_every(mut self, every: usize) -> Self {
        self.checkpoint_every = every.max(1);
        self
    }

    /// Replaces the drain worker count.
    pub fn drain_workers(mut self, workers: usize) -> Self {
        self.drain_workers = workers.max(1);
        self
    }
}

/// Admission verdict of one `Ingest` batch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Admission {
    /// The whole batch was queued.
    Accepted(u64),
    /// The batch would overflow the queue; nothing was admitted. The
    /// client backs off and retries the same batch.
    Backpressure {
        /// Events currently queued.
        queue_depth: u64,
        /// The queue capacity.
        queue_cap: u64,
    },
}

/// What [`ServiceCore::close_tenant`] distills out of
/// [`mtc_dbsim::LiveOutcome`] for the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantSummary {
    /// Events the checker consumed over the tenant's lifetime (including
    /// any resumed prefix).
    pub checked: u64,
    /// True iff the stream violated its isolation level.
    pub violated: bool,
    /// Stream index of the first violating transaction, if any.
    pub first_violation_at: Option<u64>,
}

/// Result of opening (or re-attaching to) a tenant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TenantOpen {
    /// The tenant handle subsequent `Ingest`/`TenantStatus`/`CloseTenant`
    /// requests use.
    pub tenant: u64,
    /// Logged transactions already consumed when the stream resumed (0 for
    /// a fresh stream).
    pub resumed_txns: u64,
    /// True iff the resume restarted from a checkpoint snapshot rather
    /// than replaying the log from scratch.
    pub from_checkpoint: bool,
}

struct TenantQueue {
    queue: VecDeque<IngestEvent>,
    closing: bool,
}

/// What a closed tenant's finished verifier and store knew, for `status`
/// requests that reach the tenant between its close and its removal from
/// the registry.
struct Closed {
    summary: TenantSummary,
    store: StoreStats,
}

/// One named verification stream: queue, drain lock, verifier, counters.
pub struct Tenant {
    name: String,
    level: IsolationLevel,
    num_keys: u64,
    queue_cap: usize,
    queue: Mutex<TenantQueue>,
    /// Single-flight drain: held across pop-and-record so concurrent drain
    /// workers cannot reorder a tenant's events.
    drain: Mutex<()>,
    /// The checker and the log it is written ahead of.
    stream: Mutex<Option<(LiveVerifier, MtcStore)>>,
    /// Set by `close` before it lets go of `stream`, which it empties.
    closed: OnceLock<Closed>,
    /// Drain freeze — the deterministic-backpressure knob for tests and
    /// operations. Admission stays open until the queue fills.
    paused: AtomicBool,
    ingested: AtomicU64,
    drained: AtomicU64,
    backpressured: AtomicU64,
    /// Admission latency histogram, `service.tenant.<name>.admit_micros` —
    /// resolved once at open so the ingest path never touches the registry.
    admit_hist: &'static mtc_obs::Histogram,
    /// Latch: the tenant's violation has been written to the event log.
    violation_logged: AtomicBool,
}

impl Tenant {
    /// All-or-nothing admission of one batch.
    fn ingest(&self, events: Vec<IngestEvent>) -> Result<Admission, String> {
        let timer = mtc_obs::enabled().then(std::time::Instant::now);
        let mut q = self.queue.lock();
        if q.closing {
            return Err(format!("tenant \"{}\" is closing", self.name));
        }
        if q.queue.len() + events.len() > self.queue_cap {
            self.backpressured.fetch_add(1, Ordering::Relaxed);
            mtc_obs::counter!("service.backpressure_rejections").inc();
            return Ok(Admission::Backpressure {
                queue_depth: q.queue.len() as u64,
                queue_cap: self.queue_cap as u64,
            });
        }
        let n = events.len() as u64;
        q.queue.extend(events);
        self.ingested.fetch_add(n, Ordering::Relaxed);
        mtc_obs::gauge!("service.queue_depth").add(n);
        if let Some(t0) = timer {
            self.admit_hist.record(t0.elapsed().as_micros() as u64);
        }
        Ok(Admission::Accepted(n))
    }

    /// Feeds at most `cap` queued events to the checker, in admission
    /// order. Returns how many were recorded; 0 when the queue is empty,
    /// the tenant is paused, or another worker is already draining it.
    fn drain_batch(&self, cap: usize) -> usize {
        let Some(_flight) = self.drain.try_lock() else {
            // Another worker already holds this tenant's drain — the sweep
            // moves on, but the contention is worth counting.
            mtc_obs::counter!("service.drain_stalls").inc();
            return 0;
        };
        if self.paused.load(Ordering::Acquire) {
            return 0;
        }
        self.record_queued(cap)
    }

    /// Pops at most `cap` events off the queue and records them with the
    /// checker; returns how many. The caller holds `drain`.
    fn record_queued(&self, cap: usize) -> usize {
        let batch: Vec<IngestEvent> = {
            let mut q = self.queue.lock();
            let n = q.queue.len().min(cap);
            q.queue.drain(..n).collect()
        };
        if batch.is_empty() {
            return 0;
        }
        let n = batch.len();
        let txns: Vec<Transaction> = batch
            .into_iter()
            .map(IngestEvent::into_transaction)
            .collect();
        let mut guard = self.stream.lock();
        if let Some((v, store)) = guard.as_mut() {
            // The whole batch is logged, with one write, before the checker
            // sees any of it. A failed write is latched in the store and
            // reported as `sink_errors`; verification carries on past it,
            // and recovery covers the prefix logged before it.
            let _ = store.append_txns(&txns);
            for txn in txns {
                v.record(txn);
                let _ = store.recorded(|| v.checkpoint());
            }
            self.maybe_log_violation(v);
        }
        drop(guard);
        self.drained.fetch_add(n as u64, Ordering::Relaxed);
        mtc_obs::gauge!("service.queue_depth").sub(n as u64);
        n
    }

    /// Writes the structured "violation" event-log line the first time this
    /// tenant's verifier latches: tenant name, stream index of the offender,
    /// wall-clock detection latency, and the certificate as JSON.
    fn maybe_log_violation(&self, v: &LiveVerifier) {
        if !v.is_violated() || self.violation_logged.swap(true, Ordering::AcqRel) {
            return;
        }
        use mtc_obs::events::JsonValue;
        use serde::Serialize as _;
        // Certificate and metadata were both latched by the `record` call
        // that made `is_violated` true; the order they are read in is free.
        let certificate = v
            .violation()
            .map(|c| c.to_json_value())
            .unwrap_or(JsonValue::Null);
        let latched = v.first_violation();
        mtc_obs::events::emit(
            "violation",
            &[
                ("tenant", JsonValue::Str(self.name.clone())),
                (
                    "first_violation_at",
                    match latched.as_ref().map(|l| l.at_txn as u64) {
                        Some(at) => JsonValue::U64(at),
                        None => JsonValue::Null,
                    },
                ),
                (
                    "detection_micros",
                    match latched.as_ref().map(|l| l.elapsed.as_micros() as u64) {
                        Some(us) => JsonValue::U64(us),
                        None => JsonValue::Null,
                    },
                ),
                ("certificate", certificate),
            ],
        );
    }

    /// Seals the tenant: refuses further admission, drains the queue to
    /// empty (unpausing if needed), then finishes the verifier.
    fn close(&self) -> Result<TenantSummary, String> {
        {
            let mut q = self.queue.lock();
            if q.closing {
                return Err(format!("tenant \"{}\" is already closing", self.name));
            }
            q.closing = true;
        }
        self.paused.store(false, Ordering::Release);
        // Waits out any in-flight drain batch, then keeps workers off while
        // we drain the remainder ourselves (close must not depend on the
        // drain loop even running).
        let _flight = self.drain.lock();
        while self.record_queued(usize::MAX) > 0 {}
        // Held until `closed` is set: a `status` meanwhile waits, and never
        // sees an empty slot without what the verifier knew.
        let mut slot = self.stream.lock();
        let (verifier, mut store) = slot
            .take()
            .ok_or_else(|| format!("tenant \"{}\" is already closed", self.name))?;
        // So the log survives the process; a failure is counted in `store`.
        let _ = store.sync();
        let store = store.stats();
        let outcome = verifier.finish();
        let violated = match &outcome.verdict {
            Ok(verdict) => verdict.is_violated(),
            // A checker domain error means the stream cannot be certified.
            Err(_) => true,
        };
        let summary = TenantSummary {
            checked: outcome.checked_txns as u64,
            violated,
            // `finish()` already falls back to the checker's latched index
            // for violations that only surfaced on the final flush.
            first_violation_at: outcome.first_violation.map(|v| v.at_txn as u64),
        };
        // The slot was full, so `closed` is still empty.
        let _ = self.closed.set(Closed {
            summary: summary.clone(),
            store,
        });
        drop(slot);
        Ok(summary)
    }

    /// A point-in-time stats snapshot; `rss_kb` is the daemon process RSS
    /// (shared across tenants — the per-tenant share is not separable).
    fn status(&self, rss_kb: u64) -> TenantStatus {
        let (queue_depth, _closing) = {
            let q = self.queue.lock();
            (q.queue.len() as u64, q.closing)
        };
        let (checked, violated, first_violation_at, live_txns, store) = {
            let guard = self.stream.lock();
            match (guard.as_ref(), self.closed.get()) {
                (Some((v, store)), _) => (
                    v.consumed() as u64,
                    v.is_violated(),
                    v.first_violation_at().map(|i| i as u64),
                    v.live_txn_count() as u64,
                    Some(store.stats()),
                ),
                (None, Some(closed)) => (
                    closed.summary.checked,
                    closed.summary.violated,
                    closed.summary.first_violation_at,
                    0,
                    Some(closed.store),
                ),
                // `close` panicked between emptying the slot and filling
                // `closed`: nothing is known past what was drained.
                (None, None) => (self.drained.load(Ordering::Relaxed), false, None, 0, None),
            }
        };
        TenantStatus {
            name: self.name.clone(),
            ingested: self.ingested.load(Ordering::Relaxed),
            checked,
            queue_depth,
            queue_cap: self.queue_cap as u64,
            backpressured: self.backpressured.load(Ordering::Relaxed),
            violated,
            first_violation_at,
            live_txns,
            checkpoints: store.map(|s| s.checkpoints).unwrap_or(0),
            rss_kb,
            wal_append_p99_micros: store.map(|s| s.wal_append_p99_micros).unwrap_or(0),
            last_checkpoint_age_micros: store.and_then(|s| s.last_checkpoint_age_micros),
            sink_errors: store.map(|s| s.errors).unwrap_or(0),
        }
    }
}

struct Registry {
    next_id: u64,
    by_id: HashMap<u64, Arc<Tenant>>,
    by_name: HashMap<String, u64>,
    /// Names whose open is making or recovering their store, outside the
    /// lock.
    opening: HashSet<String>,
}

/// A name reserved in [`Registry::opening`], released when the open that
/// reserved it ends, however it ends.
struct Reservation<'a> {
    core: &'a ServiceCore,
    name: &'a str,
}

impl Drop for Reservation<'_> {
    fn drop(&mut self) {
        self.core.tenants.lock().opening.remove(self.name);
    }
}

/// The daemon state shared by every connection handler and drain worker.
pub struct ServiceCore {
    config: ServiceConfig,
    tenants: Mutex<Registry>,
    shutdown: AtomicBool,
}

impl ServiceCore {
    /// Creates the core, making sure the WAL root exists.
    pub fn new(config: ServiceConfig) -> std::io::Result<Self> {
        std::fs::create_dir_all(&config.root)?;
        Ok(ServiceCore {
            config,
            tenants: Mutex::new(Registry {
                next_id: 1,
                by_id: HashMap::new(),
                by_name: HashMap::new(),
                opening: HashSet::new(),
            }),
            shutdown: AtomicBool::new(false),
        })
    }

    /// The configuration the core was built with.
    pub fn config(&self) -> &ServiceConfig {
        &self.config
    }

    /// Opens tenant `name` at `level` over a `num_keys`-key space.
    ///
    /// Fresh name → fresh WAL directory and empty checker. Name whose
    /// directory already holds a log (an earlier daemon run, crashed or
    /// closed) → the stream *resumes*: newest intact checkpoint snapshot,
    /// tail replay, verdict-equivalent to never having stopped. Name
    /// already open in this process → re-attach to the running tenant
    /// (same handle semantics as opening a second connection). Name another
    /// request is still opening → an error; the client retries.
    ///
    /// The registry lock, which every request of every tenant takes, is
    /// held only to reserve the name and to publish the tenant: creating or
    /// recovering the store and building the verifier happen outside it.
    pub fn open_tenant(
        &self,
        name: &str,
        level: IsolationLevel,
        num_keys: u64,
    ) -> Result<TenantOpen, String> {
        let conforms = |c: u8| c.is_ascii_alphanumeric() || c == b'-' || c == b'_';
        if name.is_empty() || name.len() > MAX_TENANT_NAME || !name.bytes().all(conforms) {
            return Err(format!(
                "tenant name must be 1 to {MAX_TENANT_NAME} bytes of [A-Za-z0-9_-] \
                 ({} bytes given)",
                name.len()
            ));
        }
        if num_keys > MAX_TENANT_KEYS {
            return Err(format!(
                "tenant \"{name}\": {num_keys} keys requested, at most {MAX_TENANT_KEYS} allowed"
            ));
        }
        {
            let mut reg = self.tenants.lock();
            if let Some(&id) = reg.by_name.get(name) {
                // Re-attach: the stream's level/keyspace were fixed at first
                // open; a mismatched re-open is a client bug.
                let tenant = &reg.by_id[&id];
                if tenant.level != level || tenant.num_keys != num_keys {
                    return Err(format!(
                        "tenant \"{name}\" is open at {} over {} keys; \
                         requested {level} over {num_keys}",
                        tenant.level, tenant.num_keys
                    ));
                }
                return Ok(TenantOpen {
                    tenant: id,
                    resumed_txns: 0,
                    from_checkpoint: false,
                });
            }
            if !reg.opening.insert(name.to_string()) {
                return Err(format!("tenant \"{name}\" is still opening"));
            }
        }
        // The name is reserved: the store and the verifier are made without
        // the registry lock, which every other tenant's requests take.
        let _reserved = Reservation { core: self, name };
        let (tenant, resumed_txns, from_checkpoint) = self.make_tenant(name, level, num_keys)?;
        let id = {
            let mut reg = self.tenants.lock();
            let id = reg.next_id;
            reg.next_id += 1;
            reg.by_id.insert(id, Arc::new(tenant));
            reg.by_name.insert(name.to_string(), id);
            id
        };
        {
            use mtc_obs::events::JsonValue;
            mtc_obs::events::emit(
                "tenant-open",
                &[
                    ("tenant", JsonValue::Str(name.to_string())),
                    ("id", JsonValue::U64(id)),
                    ("level", JsonValue::Str(level.to_string())),
                    ("resumed_txns", JsonValue::U64(resumed_txns)),
                    ("from_checkpoint", JsonValue::Bool(from_checkpoint)),
                ],
            );
        }
        Ok(TenantOpen {
            tenant: id,
            resumed_txns,
            from_checkpoint,
        })
    }

    /// Creates tenant `name`'s store, or recovers it and resumes its
    /// verifier, and returns the tenant with the count of resumed
    /// transactions and whether they came from a checkpoint. The slow part
    /// of an open: a recovery decodes the whole log.
    fn make_tenant(
        &self,
        name: &str,
        level: IsolationLevel,
        num_keys: u64,
    ) -> Result<(Tenant, u64, bool), String> {
        let dir = self.config.root.join(name);
        let mut builder = LiveVerifier::builder(level, num_keys).gc(GcPolicy::default());
        let (store, resumed_txns, from_checkpoint) = if dir.exists() {
            let (store, recovery) =
                MtcStore::open_append(&dir).map_err(|e| format!("open tenant store: {e}"))?;
            if recovery.meta.level != level || recovery.meta.num_keys != num_keys {
                return Err(format!(
                    "tenant \"{name}\" already has a stream at {} over {} keys; \
                     requested {level} over {num_keys}",
                    recovery.meta.level, recovery.meta.num_keys
                ));
            }
            let (resumed_txns, from_checkpoint) =
                (recovery.txns.len() as u64, recovery.snapshot.is_some());
            builder = builder.resume_from(recovery.resume());
            (store, resumed_txns, from_checkpoint)
        } else {
            let store = MtcStore::create(&dir, &StreamMeta { level, num_keys })
                .map_err(|e| format!("create tenant store: {e}"))?;
            (store, 0, false)
        };
        let store = store.with_checkpoint_every(self.config.checkpoint_every);
        let tenant = Tenant {
            name: name.to_string(),
            level,
            num_keys,
            queue_cap: self.config.queue_cap,
            queue: Mutex::new(TenantQueue {
                queue: VecDeque::new(),
                closing: false,
            }),
            drain: Mutex::new(()),
            stream: Mutex::new(Some((builder.build(), store))),
            closed: OnceLock::new(),
            paused: AtomicBool::new(false),
            ingested: AtomicU64::new(resumed_txns),
            drained: AtomicU64::new(resumed_txns),
            backpressured: AtomicU64::new(0),
            admit_hist: mtc_obs::registry()
                .histogram(&format!("service.tenant.{name}.admit_micros")),
            violation_logged: AtomicBool::new(false),
        };
        Ok((tenant, resumed_txns, from_checkpoint))
    }

    fn tenant(&self, id: u64) -> Result<Arc<Tenant>, String> {
        self.tenants
            .lock()
            .by_id
            .get(&id)
            .cloned()
            .ok_or_else(|| format!("unknown tenant id {id}"))
    }

    /// Admits one `Ingest` batch, all-or-nothing; a batch naming a session
    /// id of [`MAX_SESSIONS`] or more is refused whole.
    pub fn ingest(&self, id: u64, events: Vec<IngestEvent>) -> Result<Admission, String> {
        if let Some(e) = events.iter().find(|e| e.session >= MAX_SESSIONS) {
            return Err(format!(
                "session id {} out of range: ids are below {MAX_SESSIONS}",
                e.session
            ));
        }
        self.tenant(id)?.ingest(events)
    }

    /// A point-in-time stats snapshot of tenant `id`.
    pub fn status(&self, id: u64) -> Result<TenantStatus, String> {
        Ok(self.tenant(id)?.status(rss_kb()))
    }

    /// Freezes (or thaws) tenant `id`'s drain — admission stays open, so a
    /// frozen tenant's queue fills and `Ingest` turns into deterministic
    /// `Backpressure`. The lifecycle tests' backpressure knob; also an
    /// operational valve for shedding checker load.
    pub fn pause_tenant(&self, id: u64, paused: bool) -> Result<(), String> {
        self.tenant(id)?.paused.store(paused, Ordering::Release);
        Ok(())
    }

    /// Closes tenant `id`: drains the queue, finishes the checker, frees
    /// the registry slot. The WAL directory stays — reopening the name
    /// resumes the stream.
    pub fn close_tenant(&self, id: u64) -> Result<TenantSummary, String> {
        let tenant = self.tenant(id)?;
        let summary = tenant.close()?;
        let mut reg = self.tenants.lock();
        reg.by_id.remove(&id);
        reg.by_name.remove(&tenant.name);
        drop(reg);
        {
            use mtc_obs::events::JsonValue;
            mtc_obs::events::emit(
                "tenant-close",
                &[
                    ("tenant", JsonValue::Str(tenant.name.clone())),
                    ("id", JsonValue::U64(id)),
                    ("checked", JsonValue::U64(summary.checked)),
                    ("violated", JsonValue::Bool(summary.violated)),
                ],
            );
        }
        Ok(summary)
    }

    /// True once [`ServiceCore::stop`] has been called.
    pub fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::Acquire)
    }

    /// Asks the drain loop (and anything polling
    /// [`ServiceCore::is_shutdown`]) to wind down.
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::Release);
    }

    /// Runs the ingest drain until [`ServiceCore::stop`]: `drain_workers`
    /// scoped threads, each sweeping the tenant registry round-robin (offset
    /// by worker index). Blocks the calling thread until every worker has
    /// seen the stop; the daemon gives it a dedicated one.
    pub fn run_drain(&self) {
        std::thread::scope(|s| {
            for offset in 0..self.config.drain_workers.max(1) {
                s.spawn(move || self.drain_loop(offset));
            }
        });
    }

    fn drain_loop(&self, offset: usize) {
        while !self.is_shutdown() {
            let tenants: Vec<Arc<Tenant>> =
                { self.tenants.lock().by_id.values().cloned().collect() };
            let mut fed = 0;
            let n = tenants.len();
            for i in 0..n {
                fed += tenants[(i + offset) % n].drain_batch(DRAIN_BATCH);
            }
            if fed == 0 {
                std::thread::sleep(Duration::from_micros(500));
            }
        }
    }
}

/// Current resident set size of this process in KiB (Linux `/proc`; 0
/// where unavailable).
pub fn rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmRSS:") {
            return rest
                .trim()
                .trim_end_matches(" kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::{Op, TxnStatus};

    /// Events `range` of a chain of read-modify-writes of key 0, each reading
    /// what the one before it wrote — except `stale_at`, which reads what its
    /// predecessor read (a lost update).
    fn chain(range: std::ops::Range<u64>, stale_at: Option<u64>) -> Vec<IngestEvent> {
        range
            .map(|i| {
                let read = if Some(i) == stale_at { i - 1 } else { i };
                let ops = vec![Op::read(0u64, read), Op::write(0u64, i + 1)];
                IngestEvent::timed(
                    (i % 3) as u32,
                    ops,
                    TxnStatus::Committed,
                    10 * i,
                    10 * i + 3,
                )
            })
            .collect()
    }

    /// `status` can reach a tenant after `close` finished its verifier and
    /// before `close_tenant` unregisters it; it must report what the
    /// finished verifier knew, and the checkpoints its store really wrote.
    #[test]
    fn a_closed_tenant_reports_what_its_finished_verifier_knew() {
        let root = std::env::temp_dir().join(format!("mtc_service_core_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let core = ServiceCore::new(ServiceConfig::new(&root).checkpoint_every(4)).unwrap();
        let level = IsolationLevel::Serializability;
        // A first life of five clean events, so the second resumes with them
        // drained and its store counting checkpoints from zero.
        let first = core.open_tenant("t", level, 1).unwrap();
        core.ingest(first.tenant, chain(0..5, None)).unwrap();
        assert!(!core.close_tenant(first.tenant).unwrap().violated);

        let open = core.open_tenant("t", level, 1).unwrap();
        assert_eq!(open.resumed_txns, 5);
        let tenant = core.tenant(open.tenant).unwrap();
        core.ingest(open.tenant, chain(5..11, Some(8))).unwrap();
        let summary = tenant.close().unwrap();
        assert!(summary.violated, "the lost update must be caught");

        let status = tenant.status(0);
        assert!(status.violated, "a closed tenant reported clean");
        assert_eq!(status.first_violation_at, summary.first_violation_at);
        assert!(status.first_violation_at.is_some());
        assert_eq!(status.checked, summary.checked);
        assert_eq!(status.checked, 11);
        assert_eq!(status.live_txns, 0);
        // Six events recorded at a floor of four: one checkpoint (a reopened
        // store's first floor writes one), not 11 / 4.
        assert_eq!(status.checkpoints, 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
