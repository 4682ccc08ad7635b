//! The write path's allocation budget. Nothing that is persisted is first
//! rebuilt as an owned value tree: `Serialize::emit` describes a value to the
//! binary writer event by event and the bytes go straight into the output
//! buffer, so encoding a checker snapshot allocates for that buffer's growth
//! (and the handful of sorted index lists `TxnMap` builds) and a WAL append,
//! whose writer keeps its frame buffer, for nothing at all. The build before
//! this budget existed made one allocation per tree node and per field name:
//! 165 369 for the snapshot below, 33 per log record.
//!
//! One `#[test]` on purpose: the counter is per thread, and this file's
//! allocator is the whole binary's.

use mtc::history::{Op, SessionId, Transaction, TxnId};
use mtc::store::{LogWriter, StreamMeta};
use mtc::{GcPolicy, IncrementalChecker, IsolationLevel};
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

fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

const NUM_KEYS: u64 = 1_000;
/// As `tests/common/mod.rs` has it: long enough for a snapshot over 400 KB.
const TXNS: u64 = 4_000;

/// A tenant's stream as the service benchmark shapes it: four round-robin
/// sessions of mini-transactions over uniform keys, a fifth of them
/// read-only, half on two keys, every read observing the latest write.
fn tenant_stream() -> Vec<Transaction> {
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let mut below = |n: u64| {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1);
        (state >> 33) % n
    };
    let mut last = vec![0u64; NUM_KEYS as usize];
    (0..TXNS)
        .map(|i| {
            let read_only = below(5) == 0;
            let first = below(NUM_KEYS);
            let mut keys = vec![first];
            if below(2) == 0 {
                keys.push((first + 1 + below(NUM_KEYS - 1)) % NUM_KEYS);
            }
            let mut ops: Vec<Op> = keys
                .iter()
                .map(|&k| Op::read(k, last[k as usize]))
                .collect();
            if !read_only {
                for (n, &k) in keys.iter().enumerate() {
                    last[k as usize] = 1_000 + 2 * i + n as u64;
                    ops.push(Op::write(k, last[k as usize]));
                }
            }
            Transaction::committed(TxnId(0), SessionId((i % 4) as u32), ops)
                .with_times(10 * i + 1, 10 * i + 6)
        })
        .collect()
}

#[test]
fn encoding_builds_no_value_tree() {
    let stream = tenant_stream();
    let level = IsolationLevel::Serializability;

    // A checkpoint: the snapshot of a 4 000-transaction checker.
    let mut checker = IncrementalChecker::new(level).with_init_keys(0..NUM_KEYS);
    checker.set_gc(GcPolicy::default());
    for txn in &stream {
        checker
            .push(txn.clone())
            .expect("an MT stream stays in the domain");
    }
    let snapshot = checker.checkpoint();
    let (bytes, allocations) = allocations_of(|| mtc::store::to_bytes(&snapshot));
    println!(
        "checkpoint: {allocations} allocations for {} bytes",
        bytes.len()
    );
    assert!(
        bytes.len() > 400_000,
        "the snapshot shrank to {}",
        bytes.len()
    );
    assert!(
        allocations <= 64,
        "encoding a checkpoint made {allocations} allocations, budget 64"
    );

    // A WAL append in steady state: the writer's frame buffer has seen a
    // record of every size.
    let dir = std::env::temp_dir().join(format!("mtc_encode_allocations_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let meta = StreamMeta {
        level,
        num_keys: NUM_KEYS,
    };
    let mut log = LogWriter::create(&dir, &meta).expect("create the log");
    let (warm_up, steady) = stream.split_at(256);
    for txn in warm_up {
        log.append(txn).expect("append");
    }
    let ((), allocations) = allocations_of(|| {
        for txn in steady {
            log.append(txn).expect("append");
        }
    });
    drop(log);
    let _ = std::fs::remove_dir_all(&dir);
    let per_append = allocations as f64 / steady.len() as f64;
    println!("WAL append: {per_append:.3} allocations per record");
    assert!(
        per_append <= 2.0,
        "a WAL append made {per_append:.3} allocations, budget 2"
    );
}
