//! A read's cost is flat in the length of its key's version chain. The
//! simulator keeps every committed version of a key for the whole run, so a
//! hot key's chain grows with the history; a read that scans the chain
//! makes execution super-linear in history length.
//!
//! Here `Store::read`, through `Database::store()`, is timed on a chain of
//! 1 000 versions and one of 64 000, at snapshots that advance from each
//! chain's oldest version to its newest, best of three after one untimed
//! round, the chains taking turns. Sixty-four times the chain must cost
//! less than eight times the time per read. A scan of the visible versions
//! reads 63–100×, the binary search about 2×.

use mtc::dbsim::{Database, DbConfig, IsolationMode};
use mtc::history::{Key, Value};
use std::hint::black_box;
use std::time::Instant;

mod scaling;

const SHORT: u64 = 1_000;
const LONG: u64 = 64_000;
const READS: u64 = 16_384;
const MAX_GROWTH: f64 = 8.0;

/// A database of one key whose chain holds `versions` versions: the
/// initial one and `versions - 1` committed writes.
fn database_with_chain(versions: u64) -> Database {
    let db = Database::new(DbConfig::correct(IsolationMode::Serializable, 1));
    for v in 1..versions {
        let mut txn = db.begin();
        txn.write_register(Key(0), Value(v));
        txn.commit().expect("a lone writer commits");
    }
    assert_eq!(db.store().version_count(), versions as usize);
    db
}

#[test]
fn a_read_costs_the_same_on_a_long_chain() {
    scaling::keep_freed_memory();
    let dbs = [database_with_chain(SHORT), database_with_chain(LONG)];
    let [short, long] = scaling::best_of(3, [0, 1], |arm| {
        let (store, now) = (dbs[arm].store(), dbs[arm].now());
        let start = Instant::now();
        for i in 0..READS {
            // Snapshots that advance over the whole chain, as a run's do,
            // from the oldest version to the newest.
            let snapshot = i * now / (READS - 1);
            black_box(store.read(Key(0), black_box(snapshot), 0));
        }
        start.elapsed()
    });
    let per_read = |t: std::time::Duration| t / READS as u32;
    let growth = long.as_secs_f64() / short.as_secs_f64().max(1e-9);
    println!(
        "Store::read: {:.2?} on {SHORT} versions, {:.2?} on {LONG}: {growth:.1}×",
        per_read(short),
        per_read(long)
    );
    assert!(
        growth < MAX_GROWTH,
        "a read grew {growth:.1}× from {SHORT} to {LONG} versions (at most {MAX_GROWTH}× allowed)"
    );
}
