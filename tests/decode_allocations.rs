//! The read path's allocation budget, the twin of `encode_allocations.rs`.
//! Nothing that is read back is first parsed into an owned value tree:
//! `Deserialize::pull` takes a value head by head from the byte reader, which
//! borrows strings from its input, so decoding a checker snapshot
//! allocates what the snapshot itself owns and a log record what its
//! transaction owns. The build before this budget existed made one
//! allocation per tree node and per field name on top of that: 169 812 for
//! the snapshot below (14.0 MB requested) where a clone of it makes 9 010,
//! 23.5 for a transaction, 25.6 per log record.
//!
//! One `#[test]` on purpose: the counters are per thread, and this file's
//! allocator is the whole binary's.

mod common;

use common::{allocations_of, tenant_stream, Counting, NUM_KEYS};
use mtc::history::Transaction;
use mtc::store::{read_log, LogWriter, StreamMeta};
use mtc::{CheckerSnapshot, GcPolicy, IncrementalChecker, IsolationLevel};

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn decoding_builds_no_value_tree() {
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
    let bytes = mtc::store::to_bytes(&checker.checkpoint());
    assert!(
        bytes.len() > 400_000,
        "the snapshot shrank to {}",
        bytes.len()
    );
    let (snapshot, allocations, requested) =
        allocations_of(|| mtc::store::from_bytes::<CheckerSnapshot>(&bytes));
    let snapshot = snapshot.expect("the snapshot decodes");
    println!(
        "checkpoint: {allocations} allocations requesting {requested} bytes for {} bytes",
        bytes.len()
    );
    // What the decoded value owns is what a copy of it has to allocate.
    let (_copy, own, own_bytes) = allocations_of(|| snapshot.clone());
    println!("its clone: {own} allocations requesting {own_bytes} bytes");
    assert_eq!(
        IncrementalChecker::resume(snapshot).finish(),
        checker.finish(),
        "the decoded snapshot resumes to the checker's verdict"
    );
    assert!(
        allocations <= own + own / 20,
        "decoding a checkpoint made {allocations} allocations, its clone {own}: budget 5 % over"
    );
    assert!(
        requested <= 4 << 20,
        "decoding a checkpoint requested {requested} bytes, budget 4 MiB"
    );

    // A transaction owns one thing on the heap: its operations.
    let encoded: Vec<Vec<u8>> = stream.iter().map(mtc::store::to_bytes).collect();
    let (decoded, allocations, requested) = allocations_of(|| {
        encoded
            .iter()
            .map(|b| mtc::store::from_bytes::<Transaction>(b).expect("a transaction decodes"))
            .fold(0, |ops, txn| ops + txn.ops.len())
    });
    assert_eq!(decoded, stream.iter().map(|t| t.ops.len()).sum::<usize>());
    let per_txn = allocations as f64 / stream.len() as f64;
    println!(
        "Transaction: {per_txn:.3} allocations, {:.1} bytes requested",
        requested as f64 / stream.len() as f64
    );
    assert!(
        per_txn <= 3.0,
        "decoding a transaction made {per_txn:.3} allocations, budget 3"
    );

    // A log record through `read_log`, in steady state: the marginal cost
    // of the 2 000 records a longer log holds (the file's buffer and the
    // growth of the transaction list are the shorter log's too, or
    // amortised).
    let dir = std::env::temp_dir().join(format!("mtc_decode_allocations_{}", std::process::id()));
    let meta = StreamMeta {
        level,
        num_keys: NUM_KEYS,
    };
    let read = |txns: &[Transaction]| {
        let _ = std::fs::remove_dir_all(&dir);
        let mut log = LogWriter::create(&dir, &meta).expect("create the log");
        for txn in txns {
            log.append(txn).expect("append");
        }
        drop(log);
        let (recovered, allocations, requested) = allocations_of(|| read_log(&dir));
        assert_eq!(recovered.expect("the log reads").txns, txns);
        let _ = std::fs::remove_dir_all(&dir);
        (allocations, requested)
    };
    let (short, long) = (read(&stream[..1_000]), read(&stream));
    let more = (stream.len() - 1_000) as f64;
    let per_record = (long.0 - short.0) as f64 / more;
    println!(
        "WAL record: {per_record:.3} allocations, {:.1} bytes requested",
        (long.1 - short.1) as f64 / more
    );
    assert!(
        per_record <= 3.0,
        "reading a log record made {per_record:.3} allocations, budget 3"
    );
}
