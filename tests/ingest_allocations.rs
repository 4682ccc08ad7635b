//! The streaming engine's allocation budget: heap allocations per pushed
//! mini-transaction on the stream `benchmark/`'s `live_uniform` feeds it —
//! uniform MTs of two sessions, executed on `sim-ser` under the interleaved
//! driver, in commit order. A mini-transaction's trip through `ingest` keeps
//! its per-transaction containers in scratch that outlives it and a
//! version's reader lists in place; what is left is container growth and
//! the odd spilled list (`crates/core/src/incremental/mod.rs`, "What
//! allocates"). The budgets are the readings — 0.28, 0.46 and 1.04 —
//! rounded up to the next 0.05. They read 0.76, 1.48 and 2.15 (budgets
//! 1.33, 2.33 and 3.15) while the engine kept a labelled edge list beside
//! its order, and a pair its rows already held was pushed again, spilling
//! rows past their five places.
//!
//! One `#[test]` on purpose: the counter is per thread, and this file's
//! allocator is the whole binary's.

use mtc::dbsim::{ClientOptions, Database, DbConfig, ExecutionOptions, IsolationMode};
use mtc::history::Transaction;
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use mtc::{IncrementalChecker, IsolationLevel};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Trips to the allocator that hand out memory, on this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching it
// from inside the allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const NUM_KEYS: u64 = 1_000;

/// `live_uniform`'s stream at a quarter of its length.
fn commit_ordered_stream() -> Vec<Transaction> {
    let spec = MtWorkloadSpec {
        sessions: 2,
        txns_per_session: 10_000,
        num_keys: NUM_KEYS,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed: 100,
    };
    let workload = generate_mt_workload(&spec);
    let db = Database::new(DbConfig::correct(IsolationMode::Serializable, NUM_KEYS));
    let client = ClientOptions {
        max_retries: 1_000,
        record_aborted: true,
    };
    let (history, _) = ExecutionOptions::interleaved(100)
        .client(client)
        .run(&db, &workload);
    let init = history.init_txn();
    let mut stream: Vec<Transaction> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != init)
        .cloned()
        .collect();
    stream.sort_by_key(|t| t.end.unwrap_or(u64::MAX));
    stream
}

#[test]
fn a_pushed_mini_transaction_stays_within_its_allocation_budget() {
    let stream = commit_ordered_stream();
    assert!(stream.len() >= 20_000);
    for (level, budget) in [
        (IsolationLevel::Serializability, 0.30),
        (IsolationLevel::StrictSerializability, 0.50),
        (IsolationLevel::SnapshotIsolation, 1.05),
    ] {
        let mut checker = IncrementalChecker::new(level).with_init_keys(0..NUM_KEYS);
        // Pushing consumes the transactions: build them outside the count.
        let owned = stream.clone();
        let before = ALLOCATIONS.with(Cell::get);
        for txn in owned {
            checker.push(txn).expect("an MT stream stays in the domain");
        }
        let per_txn = (ALLOCATIONS.with(Cell::get) - before) as f64 / stream.len() as f64;
        println!("{level:?}: {per_txn:.2} allocations per pushed transaction");
        assert!(
            per_txn <= budget,
            "{level:?}: {per_txn:.2} allocations per pushed transaction, budget {budget}"
        );
        assert!(checker.finish().expect("in the domain").is_satisfied());
    }
}
