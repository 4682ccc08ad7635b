//! Property-based differential testing: MTC's linear-time verifiers must
//! agree with the definition-level brute-force checker and with the
//! baseline solvers on randomly generated small histories — both valid ones
//! (sampled from a random serial execution) and corrupted ones.

use mtc::baselines::{brute_check_ser, brute_check_si, cobra_check_ser, polysi_check_si};
use mtc::core::{build_dependency, check_batch_reference, check_ser, check_si, check_sser};
use mtc::core::{BatchCheck, Verdict, Violation};
use mtc::history::{EdgeKind, History, HistoryBuilder, Op, TxnStatus};
use mtc::{check_streaming, IsolationLevel};
use proptest::prelude::*;

/// A randomly chosen mini-transaction "shape" over up to `keys` objects.
#[derive(Debug, Clone, Copy)]
enum Shape {
    ReadOne,
    ReadTwo,
    Rmw,
    DoubleRmw,
    WriteSkewHalf,
}

fn shape_strategy() -> impl Strategy<Value = Shape> {
    prop_oneof![
        Just(Shape::ReadOne),
        Just(Shape::ReadTwo),
        Just(Shape::Rmw),
        Just(Shape::DoubleRmw),
        Just(Shape::WriteSkewHalf),
    ]
}

/// Builds a *valid* history by executing randomly shaped mini-transactions
/// serially (each sees the latest committed state), assigned round-robin to
/// sessions. Such histories satisfy SSER, SER and SI by construction. About
/// a third of the transactions are followed, in their session, by an aborted
/// attempt whose write nobody reads — so sessions have aborted attempts
/// *between* committed transactions, which the session order must skip, not
/// stop at.
fn serial_history(shapes: &[(Shape, u64, u64)], keys: u64, sessions: u32) -> History {
    let keys = keys.max(2);
    let mut state = vec![0u64; keys as usize];
    let mut next_value = 1u64;
    let mut builder = HistoryBuilder::new().with_init(keys);
    for (i, &(shape, k1, k2)) in shapes.iter().enumerate() {
        let a = (k1 % keys) as usize;
        let b = (k2 % keys) as usize;
        let b = if a == b { (a + 1) % keys as usize } else { b };
        let session = (i as u32) % sessions;
        let mut ops = Vec::new();
        match shape {
            Shape::ReadOne => ops.push(Op::read(a as u64, state[a])),
            Shape::ReadTwo => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::read(b as u64, state[b]));
            }
            Shape::Rmw => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::write(a as u64, next_value));
                state[a] = next_value;
                next_value += 1;
            }
            Shape::DoubleRmw => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::write(a as u64, next_value));
                state[a] = next_value;
                next_value += 1;
                ops.push(Op::read(b as u64, state[b]));
                ops.push(Op::write(b as u64, next_value));
                state[b] = next_value;
                next_value += 1;
            }
            Shape::WriteSkewHalf => {
                ops.push(Op::read(a as u64, state[a]));
                ops.push(Op::read(b as u64, state[b]));
                ops.push(Op::write(a as u64, next_value));
                state[a] = next_value;
                next_value += 1;
            }
        }
        builder.committed_timed(session, ops, 10 * i as u64 + 1, 10 * i as u64 + 5);
        if (i as u64 + k1).is_multiple_of(3) {
            let ops = vec![
                Op::read(a as u64, state[a]),
                Op::write(a as u64, next_value),
            ];
            next_value += 1;
            let (begin, end) = (10 * i as u64 + 6, 10 * i as u64 + 8);
            builder.push_timed(session, ops, TxnStatus::Aborted, begin, end);
        }
    }
    builder.build()
}

/// Corrupts a valid history by rewriting one read to return an older (stale)
/// value of its key, possibly introducing an isolation violation (but not
/// necessarily — staleness of a pure read can still be serializable).
fn corrupt(history: &History, txn_pick: usize, stale: u64) -> History {
    let mut builder = HistoryBuilder::new().with_init(history.keys().len() as u64);
    let user_txns: Vec<_> = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != history.init_txn())
        .collect();
    let target = txn_pick % user_txns.len().max(1);
    for (i, t) in user_txns.iter().enumerate() {
        let mut ops = t.ops.clone();
        if i == target {
            if let Some(Op::Read { value, .. }) = ops.first_mut() {
                // Point the read at an older value of the same key: value 0
                // (the initial value) or an arbitrary smaller unique value.
                *value = mtc::history::Value(stale % value.raw().max(1));
            }
        }
        let (begin, end) = (t.begin.unwrap_or(1), t.end.unwrap_or(2));
        builder.push_timed(t.session.0, ops, t.status, begin, end);
    }
    builder.build()
}

/// If `CHECKSI` answers `history` with a cycle, that cycle is a well-formed
/// counterexample: every edge a dependency of the history, closed, and a
/// path of `(SO ∪ WR ∪ WW) ; RW?`, which never has two `RW` edges in a row
/// (cyclically).
fn assert_si_cycles_are_well_formed(history: &History) {
    let Ok(Verdict::Violated(Violation::Cycle { edges })) = check_si(history) else {
        return;
    };
    assert!(!edges.is_empty(), "empty cycle");
    let graph = build_dependency(history, false).expect("the checker built this graph");
    for (i, e) in edges.iter().enumerate() {
        let next = &edges[(i + 1) % edges.len()];
        assert!(
            graph.contains_edge(e.from, e.to, e.kind),
            "{e:?} is no dependency"
        );
        assert_eq!(e.to, next.from, "the cycle does not close at {e:?}");
        assert!(
            !(e.kind.is_rw() && next.kind.is_rw()),
            "{e:?} then {next:?}: two RW edges in a row"
        );
    }
}

/// `SO` skips aborted attempts instead of stopping at them. `T1` and `T3`
/// are committed transactions of one session with an aborted attempt between
/// them, and `T3` reads the value `T1` overwrote: a stale read inside a
/// session, which every level forbids and which only the `SO` edge
/// `T1 → T3` exposes. In the twin the session's *first* attempt aborted, so
/// `⊥T → T1` has to skip it as well.
#[test]
fn an_aborted_attempt_does_not_cut_the_session_order() {
    let stale_read_after = |first_attempt_aborts: bool| {
        let mut b = HistoryBuilder::new().with_init(2);
        if first_attempt_aborts {
            b.aborted(0, vec![Op::read(1u64, 0u64), Op::write(1u64, 6u64)]);
        }
        let t1 = b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.aborted(0, vec![Op::read(1u64, 0u64), Op::write(1u64, 7u64)]);
        let t3 = b.committed(0, vec![Op::read(0u64, 0u64)]);
        (b.build(), t1, t3)
    };
    for first_attempt_aborts in [false, true] {
        let (h, t1, t3) = stale_read_after(first_attempt_aborts);
        let name = format!("first attempt aborts: {first_attempt_aborts}");
        let init = h.init_txn().unwrap();
        let graph = build_dependency(&h, false).unwrap();
        assert!(graph.contains_edge(init, t1, EdgeKind::So), "{name}");
        assert!(graph.contains_edge(t1, t3, EdgeKind::So), "{name}");

        assert!(check_ser(&h).unwrap().is_violated(), "{name}");
        assert!(check_si(&h).unwrap().is_violated(), "{name}");
        assert!(check_sser(&h).unwrap().is_violated(), "{name}");
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            let streamed = check_streaming(level, &h).unwrap();
            assert!(streamed.is_violated(), "{name}: streaming {level}");
        }
        assert!(!brute_check_ser(&h), "{name}");
        assert!(!brute_check_si(&h), "{name}");
        assert!(!cobra_check_ser(&h).satisfied, "{name}");
        assert!(!polysi_check_si(&h).satisfied, "{name}");

        // Without the aborted attempts nothing changes: they were never what
        // held the verdict.
        let committed_only = h.filter_committed();
        assert!(check_ser(&committed_only).unwrap().is_violated(), "{name}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn valid_serial_histories_are_accepted_by_every_checker(
        shapes in prop::collection::vec((shape_strategy(), 0u64..6, 0u64..6), 1..24),
        keys in 2u64..6,
        sessions in 1u32..4,
    ) {
        let history = serial_history(&shapes, keys, sessions);
        prop_assert!(check_ser(&history).unwrap().is_satisfied());
        prop_assert!(check_si(&history).unwrap().is_satisfied());
        prop_assert!(cobra_check_ser(&history).satisfied);
        prop_assert!(polysi_check_si(&history).satisfied);
        prop_assert!(brute_check_ser(&history));
        prop_assert!(brute_check_si(&history));
    }

    #[test]
    fn mtc_agrees_with_ground_truth_on_corrupted_histories(
        shapes in prop::collection::vec((shape_strategy(), 0u64..4, 0u64..4), 2..6),
        pick in 0usize..8,
        stale in 0u64..3,
    ) {
        // Two keys keep the brute-force ground truth within its budget even
        // when it has to exhaust every version order of a violating history.
        let keys = 2u64;
        let valid = serial_history(&shapes, keys, 2);
        let corrupted = corrupt(&valid, pick, stale);
        // Skip corrupted histories that are no longer well-formed inputs
        // (e.g. thin-air reads make every checker reject them trivially, which
        // is also agreement — so no skipping is actually needed for verdicts).
        let mtc_ser = check_ser(&corrupted).unwrap().is_satisfied();
        let mtc_si = check_si(&corrupted).unwrap().is_satisfied();
        prop_assert_eq!(mtc_ser, brute_check_ser(&corrupted), "SER mismatch");
        prop_assert_eq!(mtc_si, brute_check_si(&corrupted), "SI mismatch");
        assert_si_cycles_are_well_formed(&corrupted);
        let cobra = cobra_check_ser(&corrupted);
        if !cobra.timed_out {
            prop_assert_eq!(mtc_ser, cobra.satisfied, "Cobra mismatch");
        }
        let polysi = polysi_check_si(&corrupted);
        if !polysi.timed_out {
            prop_assert_eq!(mtc_si, polysi.satisfied, "PolySI mismatch");
        }
    }

    #[test]
    fn reference_and_optimized_builds_agree(
        shapes in prop::collection::vec((shape_strategy(), 0u64..5, 0u64..5), 1..16),
        keys in 2u64..5,
    ) {
        let history = serial_history(&shapes, keys, 3);
        let reference = |check| check_batch_reference(check, &history).unwrap().verdict;
        prop_assert_eq!(
            reference(BatchCheck::Ser).is_satisfied(),
            check_ser(&history).unwrap().is_satisfied()
        );
        prop_assert_eq!(
            reference(BatchCheck::Si).is_satisfied(),
            check_si(&history).unwrap().is_satisfied()
        );
    }
}
