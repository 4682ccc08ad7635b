//! The backend fleet in action — and the "writing your own backend" recipe.
//!
//! Runs one MT workload against every in-tree engine (the OCC simulator at
//! three isolation modes, the strict-2PL wait-die engine, the weak MVCC
//! engine at ReadCommitted and ReadUncommitted) plus a custom backend
//! implemented right here in ~50 lines, then prints which checkers flag
//! which engine. No fault injection anywhere: every violation below is an
//! organic product of the engine's concurrency control.
//!
//! ```text
//! cargo run --release --example backend_fleet
//! ```

use mtc::core::{check_ser, check_si, check_sser, IsolationLevel};
use mtc::dbsim::{AbortReason, BackendSpec, CommitInfo, DbBackend, DbTxn, ExecutionOptions};
use mtc::history::{Key, Value, INIT_VALUE};
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

// ───────────────────── a custom backend in ~50 lines ────────────────────────
//
// The recipe: (1) an engine type implementing `DbBackend` (must be `Sync`;
// `begin` hands out boxed transaction handles, `promises` declares which
// isolation levels fault-free runs guarantee), and (2) a handle type
// implementing `DbTxn` (handles must be `Send` — the threaded driver moves
// each session, open handle included, into a thread of its own; reads/writes
// may fail with an `AbortReason`; `commit` returns the commit instant). This one holds a
// single global lock for the whole transaction — fully serial execution,
// so it promises everything, at the cost of zero concurrency. The lock is
// an atomic flag rather than a held `MutexGuard` precisely because guards
// are not `Send`; the handle's `Drop` releases it exactly once, whichever
// of commit/abort/drop ends the transaction.

struct GlobalLockDb {
    clock: AtomicU64,
    busy: AtomicBool,
    state: Mutex<HashMap<Key, Value>>,
}

struct GlobalLockTxn<'db> {
    db: &'db GlobalLockDb,
    begin_ts: u64,
}

impl Drop for GlobalLockTxn<'_> {
    fn drop(&mut self) {
        self.db.busy.store(false, Ordering::Release);
    }
}

impl DbBackend for GlobalLockDb {
    fn begin(&self) -> Box<dyn DbTxn + '_> {
        // The trick that makes it serial: the whole-engine flag is held by
        // the handle from begin until its Drop.
        while self
            .busy
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            std::thread::yield_now();
        }
        Box::new(GlobalLockTxn {
            begin_ts: self.clock.fetch_add(1, Ordering::SeqCst),
            db: self,
        })
    }
    fn now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }
    fn label(&self) -> &'static str {
        "global-lock"
    }
    fn promises(&self, _level: IsolationLevel) -> bool {
        true // serial execution is strictly serializable
    }
}

impl<'db> DbTxn for GlobalLockTxn<'db> {
    fn begin_ts(&self) -> u64 {
        self.begin_ts
    }
    fn read_register(&mut self, key: Key) -> Result<Value, AbortReason> {
        let state = self.db.state.lock().unwrap();
        Ok(*state.get(&key).unwrap_or(&INIT_VALUE))
    }
    fn write_register(&mut self, key: Key, value: Value) -> Result<(), AbortReason> {
        self.db.state.lock().unwrap().insert(key, value);
        Ok(())
    }
    fn read_list(&mut self, _key: Key) -> Result<Vec<Value>, AbortReason> {
        Ok(Vec::new()) // registers only, for brevity
    }
    fn append(&mut self, _key: Key, _element: Value) -> Result<(), AbortReason> {
        Ok(())
    }
    fn commit(self: Box<Self>) -> Result<CommitInfo, AbortReason> {
        Ok(CommitInfo {
            commit_ts: self.db.clock.fetch_add(1, Ordering::SeqCst),
        })
    }
    fn abort(self: Box<Self>) -> AbortReason {
        AbortReason::UserAbort
    }
}

// ─────────────────────────── the fleet run ──────────────────────────────────

fn main() {
    let spec = MtWorkloadSpec {
        sessions: 4,
        txns_per_session: 100,
        num_keys: 8,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 0xF1EE7,
    };
    let workload = generate_mt_workload(&spec);
    println!(
        "workload: {} sessions × {} txns over {} keys\n",
        spec.sessions, spec.txns_per_session, spec.num_keys
    );
    println!(
        "{:<12} {:>9} {:>10}   {:>4} {:>4} {:>4}",
        "backend", "committed", "abort-rate", "SI", "SER", "SSER"
    );

    // (label, blocks-on-other-transactions?, engine). The in-tree specs
    // already know their blocking-ness; the custom engine declares its own
    // (it parks every other `begin` on the global mutex).
    let mut fleet: Vec<(String, bool, Box<dyn DbBackend>)> = BackendSpec::fleet(spec.num_keys)
        .into_iter()
        .map(|s| (s.label().to_string(), s.blocking(), s.build()))
        .collect();
    fleet.push((
        "global-lock".to_string(),
        true,
        Box::new(GlobalLockDb {
            clock: AtomicU64::new(1),
            busy: AtomicBool::new(false),
            state: Mutex::new(HashMap::new()),
        }),
    ));

    for (label, blocking, db) in &fleet {
        // Zero-latency engines barely overlap under free-running threads, so
        // the non-blocking ones run under the deterministic op-by-op
        // interleaved driver instead — real concurrency, reproducible
        // schedule. The locking engines (2PL wait-die, the global-lock
        // example) would deadlock a single-threaded interleaver, so they
        // keep one thread per session.
        let blocking = *blocking;
        let (history, report) = if blocking {
            ExecutionOptions::threaded().run(db.as_ref(), &workload)
        } else {
            ExecutionOptions::interleaved(0xD1CE).run(db.as_ref(), &workload)
        };
        let flag = |v: bool| if v { "✗" } else { "ok" };
        let si = check_si(&history).unwrap().is_violated();
        let ser = check_ser(&history).unwrap().is_violated();
        let sser = check_sser(&history).unwrap().is_violated();
        println!(
            "{label:<12} {:>9} {:>9.1}%   {:>4} {:>4} {:>4}",
            report.committed,
            100.0 * report.abort_rate(),
            flag(si),
            flag(ser),
            flag(sser),
        );
        // A backend must never be flagged at a level it promises.
        for (level, violated) in [
            (IsolationLevel::SnapshotIsolation, si),
            (IsolationLevel::Serializability, ser),
            (IsolationLevel::StrictSerializability, sser),
        ] {
            assert!(
                !(db.promises(level) && violated),
                "{label} violated its promised {level}"
            );
        }
    }
    println!(
        "\nany ✗ above is an organic anomaly (no fault injection in this \
         example) — the weak MVCC rows are expected to collect them."
    );
}
