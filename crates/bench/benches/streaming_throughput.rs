//! Streaming verification throughput: batch `CHECKSER`/`CHECKSI`/`CHECKSSER`
//! versus the incremental checker.
//!
//! The batch checkers see the whole history at once; the streaming checker
//! consumes it transaction by transaction and should stay within a small
//! factor of the batch verifier — the price of an online answer. The SSER
//! group additionally pits the
//! `Θ(n²)` naive RT materialization against the `O(n log n)` batch
//! time-chain and the online time-chain (naive runs on the small size only —
//! it would dominate the wall-clock budget at the large one).

mod common;

use common::{serial_mt_history, two_key_mt_history};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mtc_core::{
    check_ser, check_si, check_sser, check_sser_naive, check_streaming, IsolationLevel,
};

fn bench_streaming_throughput(c: &mut Criterion) {
    let sizes = [1000u64, 8000];

    let mut group = c.benchmark_group("streaming_throughput_ser");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &sizes {
        let history = serial_mt_history(n, 64, 8);
        group.bench_with_input(BenchmarkId::new("batch", n), &history, |b, h| {
            b.iter(|| check_ser(h).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &history, |b, h| {
            b.iter(|| check_streaming(IsolationLevel::Serializability, h).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("streaming_throughput_si");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &sizes {
        let history = two_key_mt_history(n, 64, 8);
        group.bench_with_input(BenchmarkId::new("batch", n), &history, |b, h| {
            b.iter(|| check_si(h).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("incremental", n), &history, |b, h| {
            b.iter(|| check_streaming(IsolationLevel::SnapshotIsolation, h).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("streaming_throughput_sser");
    group.sample_size(10);
    group.measurement_time(std::time::Duration::from_millis(800));
    group.warm_up_time(std::time::Duration::from_millis(300));
    for &n in &sizes {
        let history = serial_mt_history(n, 64, 8);
        group.bench_with_input(BenchmarkId::new("batch", n), &history, |b, h| {
            b.iter(|| check_sser(h).unwrap())
        });
        if n <= 1000 {
            group.bench_with_input(BenchmarkId::new("naive", n), &history, |b, h| {
                b.iter(|| check_sser_naive(h).unwrap())
            });
        }
        group.bench_with_input(BenchmarkId::new("incremental", n), &history, |b, h| {
            b.iter(|| check_streaming(IsolationLevel::StrictSerializability, h).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_streaming_throughput);
criterion_main!(benches);
