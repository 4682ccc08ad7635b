//! Cross-backend conformance: every engine in the fleet is held to exactly
//! what it promises — **with the fault-injection layer never touched**.
//!
//! * Backends that promise an isolation level must produce histories the
//!   matching checker accepts, under arbitrary concurrent workloads
//!   (proptest). The strict-2PL engine promises everything up to SSER and
//!   must therefore be organically clean under every checker, batch and
//!   incremental alike.
//! * The weak MVCC engine promises none of the checkable levels, and its
//!   anomalies must arise from its concurrency control alone: deterministic
//!   interleavings reproduce a lost update, a read skew, a write skew and an
//!   aborted (dirty) read, each caught at exactly the levels the engine does
//!   not promise — the write skew in particular passes SI and fails SER,
//!   nailing the boundary.
//! * Streaming verdicts must agree with batch verdicts on every collected
//!   history.

use mtc::core::{check_ser, check_si, check_sser, check_streaming, IsolationLevel, Verdict};
use mtc::dbsim::{
    BackendSpec, DbBackend, DbTxn, ExecutionOptions, TwoPlDatabase, WeakLevel, WeakMvccDatabase,
};
use mtc::history::{History, HistoryBuilder, Key, Op, TxnStatus, Value};
use mtc::workload::{generate_mt_workload, Distribution, MtWorkloadSpec};
use proptest::prelude::*;

const LEVELS: [IsolationLevel; 3] = [
    IsolationLevel::SnapshotIsolation,
    IsolationLevel::Serializability,
    IsolationLevel::StrictSerializability,
];

fn batch_check(level: IsolationLevel, history: &History) -> Verdict {
    match level {
        IsolationLevel::SnapshotIsolation => check_si(history),
        IsolationLevel::Serializability => check_ser(history),
        IsolationLevel::StrictSerializability => check_sser(history),
    }
    .expect("collected histories are inside the checkers' domain")
}

/// The conformance core: per level, the backend's promise must hold under
/// the batch checker, and streaming must agree with batch on the violation
/// bit.
fn assert_conformant(label: &str, backend: &dyn DbBackend, history: &History) {
    for level in LEVELS {
        let batch = batch_check(level, history);
        let streaming = check_streaming(level, history).unwrap();
        assert_eq!(
            batch.is_violated(),
            streaming.is_violated(),
            "{label}/{level}: streaming disagrees with batch\n batch: {batch:?}\n streaming: {streaming:?}"
        );
        if backend.promises(level) {
            assert!(
                batch.is_satisfied(),
                "{label} promised {level} but was caught: {}",
                batch.violation().unwrap()
            );
        }
    }
}

fn mt_spec(sessions: u32, txns: u32, keys: u64, seed: u64) -> MtWorkloadSpec {
    MtWorkloadSpec {
        sessions,
        txns_per_session: txns,
        num_keys: keys,
        distribution: Distribution::Uniform,
        read_only_fraction: 0.2,
        two_key_fraction: 0.5,
        seed,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary concurrent workloads against the whole fleet: promises
    /// hold, streaming == batch.
    #[test]
    fn fleet_conformance_under_concurrent_workloads(
        sessions in 2u32..5,
        txns in 10u32..40,
        keys in 2u64..12,
        seed in 0u64..1000,
    ) {
        let workload = generate_mt_workload(&mt_spec(sessions, txns, keys, seed));
        for spec in BackendSpec::fleet(keys) {
            let db = spec.build();
            let (history, report) = ExecutionOptions::threaded().run(db.as_ref(), &workload);
            prop_assert!(report.committed > 0, "{}: nothing committed", spec.label());
            assert_conformant(spec.label(), db.as_ref(), &history);
        }
    }

    /// The 2PL engine under deliberately hot contention (tiny key space):
    /// wait-die may abort plenty, but every collected history must be
    /// organically strictly serializable — zero violations, zero faults.
    #[test]
    fn twopl_is_organically_strictly_serializable_under_contention(
        sessions in 2u32..6,
        txns in 20u32..60,
        seed in 0u64..1000,
    ) {
        let workload = generate_mt_workload(&mt_spec(sessions, txns, 3, seed));
        let db = TwoPlDatabase::new();
        let (history, report) = ExecutionOptions::threaded().run(&db, &workload);
        prop_assert!(report.committed > 0);
        prop_assert_eq!(db.locked_key_count(), 0, "locks must all be released");
        for level in LEVELS {
            let verdict = batch_check(level, &history);
            prop_assert!(
                verdict.is_satisfied(),
                "2PL caught at {}: {}",
                level,
                verdict.violation().unwrap()
            );
            let streaming = check_streaming(level, &history).unwrap();
            prop_assert!(streaming.is_satisfied());
        }
    }

    /// Deterministic interleavings of the weak engines: whatever the
    /// schedule produces, streaming and batch verdicts stay in lockstep and
    /// nothing is ever (wrongly) attributed to a promised level.
    #[test]
    fn weak_engines_streaming_matches_batch_on_interleaved_schedules(
        schedule_seed in 0u64..5000,
        wl_seed in 0u64..1000,
        level in prop::sample::select(vec![WeakLevel::ReadCommitted, WeakLevel::ReadUncommitted]),
    ) {
        let workload = generate_mt_workload(&mt_spec(3, 25, 2, wl_seed));
        let db = WeakMvccDatabase::new(level);
        let (history, _) = ExecutionOptions::interleaved(schedule_seed).run(&db, &workload);
        assert_conformant(level.label(), &db, &history);
    }
}

// ───────────────── deterministic organic anomalies ──────────────────────────
//
// Hand-driven schedules against the weak MVCC engine. No fault layer, no
// threads, no randomness: the anomalies below are produced by the engine's
// concurrency control and nothing else, and each is caught at exactly the
// isolation levels the engine does not promise.

/// Begins a transaction through the trait surface (boxed handle), which is
/// what the hand-driven schedules below interleave.
fn begin<'a>(db: &'a dyn DbBackend) -> Box<dyn DbTxn + 'a> {
    db.begin()
}

/// Records one hand-driven committed transaction into the builder.
fn commit_recorded(
    builder: &mut HistoryBuilder,
    session: u32,
    handle: Box<dyn DbTxn + '_>,
    ops: Vec<Op>,
    begin: u64,
) {
    let info = handle.commit().expect("the weak engine never rejects");
    builder.push_timed(session, ops, TxnStatus::Committed, begin, info.commit_ts);
}

fn read(handle: &mut dyn DbTxn, ops: &mut Vec<Op>, key: u64) -> Value {
    let v = handle.read_register(Key(key)).unwrap();
    ops.push(Op::read(key, v));
    v
}

fn write(handle: &mut dyn DbTxn, ops: &mut Vec<Op>, key: u64, value: u64) {
    handle.write_register(Key(key), Value(value)).unwrap();
    ops.push(Op::write(key, value));
}

/// Lost update: both transactions read the initial version of the same key
/// and both commit a write — possible only because ReadCommitted skips
/// first-committer-wins. Violates SI (DIVERGENCE), SER and SSER.
#[test]
fn weak_rc_produces_an_organic_lost_update() {
    let db = WeakMvccDatabase::new(WeakLevel::ReadCommitted);
    let mut builder = HistoryBuilder::new().with_init(1);

    let mut t1 = begin(&db);
    let b1 = t1.begin_ts();
    let mut t2 = begin(&db);
    let b2 = t2.begin_ts();
    let (mut ops1, mut ops2) = (Vec::new(), Vec::new());
    assert_eq!(read(t1.as_mut(), &mut ops1, 0), Value(0));
    assert_eq!(read(t2.as_mut(), &mut ops2, 0), Value(0));
    write(t1.as_mut(), &mut ops1, 0, 101);
    write(t2.as_mut(), &mut ops2, 0, 202);
    commit_recorded(&mut builder, 0, t1, ops1, b1);
    commit_recorded(&mut builder, 1, t2, ops2, b2);

    let history = builder.build();
    for level in LEVELS {
        let batch = batch_check(level, &history);
        assert!(
            batch.is_violated(),
            "the lost update must be caught at {level}"
        );
        let streaming = check_streaming(level, &history).unwrap();
        assert!(streaming.is_violated(), "{level}: streaming must agree");
    }
}

/// Write skew: each transaction reads both keys and updates a different
/// one. SI *accepts* this history (it is the canonical SI-legal anomaly);
/// SER and SSER reject it — caught at exactly the levels beyond what the
/// engine provides, and nowhere below.
#[test]
fn weak_rc_produces_an_organic_write_skew_caught_exactly_above_si() {
    let db = WeakMvccDatabase::new(WeakLevel::ReadCommitted);
    let mut builder = HistoryBuilder::new().with_init(2);

    let mut t1 = begin(&db);
    let b1 = t1.begin_ts();
    let mut t2 = begin(&db);
    let b2 = t2.begin_ts();
    let (mut ops1, mut ops2) = (Vec::new(), Vec::new());
    read(t1.as_mut(), &mut ops1, 0);
    read(t1.as_mut(), &mut ops1, 1);
    read(t2.as_mut(), &mut ops2, 0);
    read(t2.as_mut(), &mut ops2, 1);
    write(t1.as_mut(), &mut ops1, 0, 111);
    write(t2.as_mut(), &mut ops2, 1, 222);
    commit_recorded(&mut builder, 0, t1, ops1, b1);
    commit_recorded(&mut builder, 1, t2, ops2, b2);

    let history = builder.build();
    let si = batch_check(IsolationLevel::SnapshotIsolation, &history);
    assert!(
        si.is_satisfied(),
        "write skew is SI-legal; flagging it would be a false positive: {si:?}"
    );
    for level in [
        IsolationLevel::Serializability,
        IsolationLevel::StrictSerializability,
    ] {
        let batch = batch_check(level, &history);
        assert!(batch.is_violated(), "write skew must be caught at {level}");
        let streaming = check_streaming(level, &history).unwrap();
        assert!(streaming.is_violated(), "{level}: streaming must agree");
    }
}

/// Read skew (non-repeatable snapshot): a reader observes key 0 before and
/// key 1 after a concurrent committed update of both — ReadCommitted has no
/// snapshot to offer. Caught at SI, SER and SSER.
#[test]
fn weak_rc_produces_an_organic_read_skew() {
    let db = WeakMvccDatabase::new(WeakLevel::ReadCommitted);
    let mut builder = HistoryBuilder::new().with_init(2);

    let mut reader = begin(&db);
    let br = reader.begin_ts();
    let mut ops_r = Vec::new();
    assert_eq!(read(reader.as_mut(), &mut ops_r, 0), Value(0));

    let mut writer = begin(&db);
    let bw = writer.begin_ts();
    let mut ops_w = Vec::new();
    read(writer.as_mut(), &mut ops_w, 0);
    write(writer.as_mut(), &mut ops_w, 0, 301);
    read(writer.as_mut(), &mut ops_w, 1);
    write(writer.as_mut(), &mut ops_w, 1, 302);
    commit_recorded(&mut builder, 1, writer, ops_w, bw);

    // The reader's second read now sees the writer's committed value.
    assert_eq!(read(reader.as_mut(), &mut ops_r, 1), Value(302));
    commit_recorded(&mut builder, 0, reader, ops_r, br);

    let history = builder.build();
    for level in LEVELS {
        let batch = batch_check(level, &history);
        assert!(batch.is_violated(), "read skew must be caught at {level}");
        let streaming = check_streaming(level, &history).unwrap();
        assert!(streaming.is_violated(), "{level}: streaming must agree");
    }
}

/// Aborted read: ReadUncommitted publishes a write before commit, a second
/// transaction reads it, and the writer then rolls back (an ordinary client
/// rollback — not a fault). The committed reader observed a value no
/// committed transaction ever wrote: caught at every level.
#[test]
fn weak_ru_produces_an_organic_aborted_read() {
    let db = WeakMvccDatabase::new(WeakLevel::ReadUncommitted);
    let mut builder = HistoryBuilder::new().with_init(1);

    let mut writer = begin(&db);
    let bw = writer.begin_ts();
    let mut ops_w = Vec::new();
    read(writer.as_mut(), &mut ops_w, 0);
    write(writer.as_mut(), &mut ops_w, 0, 401);

    let mut reader = begin(&db);
    let br = reader.begin_ts();
    let mut ops_r = Vec::new();
    assert_eq!(
        read(reader.as_mut(), &mut ops_r, 0),
        Value(401),
        "RU must expose the dirty write"
    );
    commit_recorded(&mut builder, 1, reader, ops_r, br);

    // The writer rolls back; its published version is withdrawn.
    let aborted_at = mtc::dbsim::DbBackend::now(&db);
    writer.abort();
    builder.push_timed(0, ops_w, TxnStatus::Aborted, bw, aborted_at);

    let history = builder.build();
    for level in LEVELS {
        let batch = batch_check(level, &history);
        assert!(
            batch.is_violated(),
            "the aborted read must be caught at {level}"
        );
        let streaming = check_streaming(level, &history).unwrap();
        assert!(streaming.is_violated(), "{level}: streaming must agree");
    }
}

/// The interleaved driver surfaces the RC engine's organic anomalies from a
/// plain generated workload within a handful of deterministic schedules —
/// no hand-crafted ops, no faults.
#[test]
fn weak_rc_interleaved_workloads_surface_organic_violations() {
    let workload = generate_mt_workload(&mt_spec(3, 30, 2, 0xC0FFEE));
    let mut caught_si = false;
    let mut caught_ser = false;
    for schedule_seed in 0..32u64 {
        let db = WeakMvccDatabase::new(WeakLevel::ReadCommitted);
        let (history, _) = ExecutionOptions::interleaved(schedule_seed).run(&db, &workload);
        caught_si |= batch_check(IsolationLevel::SnapshotIsolation, &history).is_violated();
        caught_ser |= batch_check(IsolationLevel::Serializability, &history).is_violated();
        if caught_si && caught_ser {
            break;
        }
    }
    assert!(
        caught_si && caught_ser,
        "32 deterministic schedules over a 2-key workload must organically \
         produce SI and SER violations (caught_si={caught_si}, caught_ser={caught_ser})"
    );
}

/// Wait-die is visible at the client: a younger transaction conflicting
/// with an older holder dies with `Deadlock`, and the driver's retry path
/// turns that into progress — the conformance run completes with every
/// template eventually committed or cleanly failed.
#[test]
fn twopl_wait_die_aborts_surface_and_histories_stay_clean() {
    use mtc::dbsim::AbortReason;
    let db = TwoPlDatabase::new();
    let mut older = db.begin();
    older.write_register(Key(0), Value(1)).unwrap();
    let mut younger = db.begin();
    assert_eq!(
        younger.write_register(Key(0), Value(2)),
        Err(AbortReason::Deadlock)
    );
    drop(younger);
    drop(older);

    // And end-to-end: a contended threaded run stays organically clean.
    let workload = generate_mt_workload(&mt_spec(4, 40, 2, 7));
    let db = TwoPlDatabase::new();
    let (history, report) = ExecutionOptions::threaded().run(&db, &workload);
    assert!(report.committed > 0);
    for level in LEVELS {
        assert!(batch_check(level, &history).is_satisfied());
    }
}
