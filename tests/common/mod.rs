//! What the two read-path budget tests share: an allocator that counts, per
//! thread, and the stream they build their megabyte of checker snapshot from.
//! (`encode_allocations.rs`, the write side's, predates this module and
//! keeps its own copy of both.)

#![allow(dead_code)] // each test binary uses its part

use mtc::history::{Op, SessionId, Transaction, TxnId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Trips to the allocator that hand out memory, on this thread, and the
    /// bytes they asked for.
    static ALLOCATIONS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The allocator a test binary installs as its `#[global_allocator]`.
pub struct Counting;

fn count(bytes: usize) {
    ALLOCATIONS.with(|n| {
        let (calls, requested) = n.get();
        n.set((calls + 1, requested + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialized thread-local `Cell` without a destructor, so touching it
// from inside the allocator neither allocates nor runs after thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// `work`'s result, its allocations and the bytes they requested.
pub fn allocations_of<T>(work: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = work();
    let after = ALLOCATIONS.with(Cell::get);
    (out, after.0 - before.0, after.1 - before.1)
}

pub const NUM_KEYS: u64 = 1_000;
/// Long enough that the snapshot of a checker fed the stream is over 400 KB
/// (it was 3 000 until `SNAPSHOT_VERSION` 8 made the snapshot smaller).
pub const TXNS: u64 = 4_000;

/// The stream of `encode_allocations.rs`: a tenant's as the service
/// benchmark shapes it — four round-robin sessions of mini-transactions over
/// uniform keys, a fifth of them read-only, half on two keys, every read
/// observing the latest write.
pub fn tenant_stream() -> Vec<Transaction> {
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
