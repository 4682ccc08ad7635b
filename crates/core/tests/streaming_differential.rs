//! Property-based differential testing of the streaming engine: for random
//! mini-transaction histories — valid serial ones and corrupted ones — the
//! [`IncrementalChecker`] fed transaction-by-transaction must agree with the
//! batch `CHECKSER`/`CHECKSI` on accept/reject, and latch at exactly the
//! shortest prefix they reject.
//!
//! The SSER section additionally generates *timed* histories — overlapping
//! commit intervals, shifted key spaces and clock-skewed instants — and
//! asserts that the online time-chain checker agrees with both batch
//! `CHECKSSER` flavours on accept/reject.

use mtc_core::{
    build_dependency, check_ser, check_si, check_sser, check_sser_naive, check_streaming,
    CheckerSnapshot, GcPolicy, IncrementalChecker, IsolationLevel, OrderEdge, StreamStatus,
    Verdict, Violation,
};
use mtc_history::anomalies::AnomalyKind;
use mtc_history::{History, HistoryBuilder, Op, Transaction, TxnId, Value};
use proptest::prelude::*;

#[path = "common/streams.rs"]
mod streams;
use streams::*;

/// A single-key RMW chain of `n` transactions in which transaction
/// `pick % n` (when it is not the first) reads the initial value instead of
/// its predecessor's.
fn single_key_chain(n: u64, pick: usize) -> History {
    let mut b = HistoryBuilder::new().with_init(1);
    let mut last = 0u64;
    for i in 0..n {
        let stale = i as usize == pick % (n as usize) && i > 0;
        let read = if stale { 0 } else { last };
        b.committed(
            (i % 3) as u32,
            vec![Op::read(0u64, read), Op::write(0u64, i + 1)],
        );
        last = i + 1;
    }
    b.build()
}

/// The last transaction of the shortest prefix of `history` that `batch`
/// rejects — where an online checker has to latch — or `None` when it
/// accepts them all.
fn shortest_rejected_prefix(
    history: &History,
    batch: impl Fn(&History) -> Verdict,
) -> Option<TxnId> {
    let init_keys = history.txn(history.init_txn()?).write_set();
    let mut prefix = HistoryBuilder::new().with_init_keys(init_keys);
    for t in history.txns().iter().skip(1) {
        let id = prefix.push_cloned(t.clone());
        if batch(&prefix.clone().build()).is_violated() {
            return Some(id);
        }
    }
    None
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Valid serial histories are accepted online.
    #[test]
    fn valid_histories_accepted_by_all_streaming_variants(
        shapes in prop::collection::vec((shape_strategy(), 0u64..6, 0u64..6), 1..24),
        keys in 2u64..6,
        sessions in 1u32..4,
    ) {
        let history = serial_history(&shapes, keys, sessions);
        for level in [IsolationLevel::Serializability, IsolationLevel::SnapshotIsolation] {
            let streaming = check_streaming(level, &history).unwrap();
            prop_assert!(streaming.is_satisfied(), "{level}: {streaming:?}");
        }
    }

    /// On corrupted histories, the streaming checker agrees with the batch
    /// verdicts on accept/reject.
    #[test]
    fn streaming_agrees_with_batch_on_corrupted_histories(
        shapes in prop::collection::vec((shape_strategy(), 0u64..4, 0u64..4), 2..16),
        pick in 0usize..16,
        stale in 0u64..3,
    ) {
        let valid = serial_history(&shapes, 3, 2);
        let corrupted = corrupt(&valid, pick, stale);
        for level in [IsolationLevel::Serializability, IsolationLevel::SnapshotIsolation] {
            let batch_verdict = match level {
                IsolationLevel::Serializability => check_ser(&corrupted).unwrap(),
                _ => check_si(&corrupted).unwrap(),
            };
            let streaming = check_streaming(level, &corrupted).unwrap();
            prop_assert_eq!(
                batch_verdict.is_violated(),
                streaming.is_violated(),
                "{} accept/reject mismatch: batch={:?} streaming={:?}",
                level, batch_verdict, streaming
            );
        }
    }

    /// Latch position against an independent oracle: on a single-key RMW
    /// chain with one stale read, `first_violation_at` is exactly the
    /// shortest prefix `check_ser` rejects.
    #[test]
    fn single_key_cycles_latch_at_the_shortest_prefix_check_ser_rejects(
        n in 4u64..24,
        pick in 1usize..24,
    ) {
        let h = single_key_chain(n, pick);
        let oracle = shortest_rejected_prefix(&h, |p| check_ser(p).unwrap());
        let mut streaming = IncrementalChecker::new_ser();
        let _ = streaming.push_history(&h);
        prop_assert_eq!(streaming.first_violation_at(), oracle);
        prop_assert_eq!(streaming.finish().unwrap().is_violated(), oracle.is_some());
    }

    /// The SI analogue: the stale read makes two transactions update from
    /// the same version — a lost update — and the checker latches at the
    /// shortest prefix `check_si` rejects.
    #[test]
    fn single_key_lost_updates_latch_at_the_shortest_prefix_check_si_rejects(
        n in 3u64..16,
        pick in 1usize..16,
    ) {
        let h = single_key_chain(n, pick);
        let oracle = shortest_rejected_prefix(&h, |p| check_si(p).unwrap());
        let mut streaming = IncrementalChecker::new_si();
        let _ = streaming.push_history(&h);
        prop_assert_eq!(streaming.first_violation_at(), oracle);
        prop_assert_eq!(streaming.finish().unwrap().is_violated(), oracle.is_some());
    }

    /// Early exit: when a violating prefix exists, the checker latches no
    /// later than the batch verdict over that same prefix would flag it, and
    /// the latched status never reverts while the tail streams in.
    #[test]
    fn violations_latch_and_stay_latched(
        shapes in prop::collection::vec((shape_strategy(), 0u64..4, 0u64..4), 4..16),
        pick in 0usize..8,
        tail in 1usize..12,
    ) {
        let valid = serial_history(&shapes, 3, 2);
        let corrupted = corrupt(&valid, pick, 0);
        let mut checker = IncrementalChecker::new_ser()
            .with_init_keys(corrupted.keys());
        let mut latched_at: Option<usize> = None;
        for txn in corrupted.txns() {
            if Some(txn.id) == corrupted.init_txn() {
                continue;
            }
            if let Ok(StreamStatus::Violated) = checker.push(txn.clone()) {
                latched_at.get_or_insert(txn.id.index());
            }
        }
        // Extend with a tail of serial updates on a fresh key (untouched by
        // the corrupted prefix); the verdict must not change.
        let was_violated = checker.is_violated();
        let first = checker.first_violation_at();
        let fresh_key = 9_999u64;
        let mut last = Value(0);
        for i in 0..tail {
            let next = Value(1_000_000 + i as u64);
            let _ = checker.push_committed(
                0,
                vec![Op::read(fresh_key, last), Op::write(fresh_key, next)],
            );
            last = next;
        }
        prop_assert_eq!(checker.is_violated(), was_violated);
        prop_assert_eq!(checker.first_violation_at(), first);
        if let (Some(pos), Some(at)) = (latched_at, first) {
            prop_assert_eq!(pos, at.index());
        }
    }

    /// Valid timed histories — overlapping commit intervals included — are
    /// accepted by both batch SSER flavours and by the streaming checker.
    #[test]
    fn timed_valid_histories_accepted_by_all_sser_variants(
        shapes in prop::collection::vec((shape_strategy(), 0u64..6, 0u64..6), 1..20),
        intervals in prop::collection::vec((0u64..6, 0u64..40), 20),
        keys in 2u64..6,
        sessions in 1u32..4,
        key_offset in prop::sample::select(vec![0u64, 17, 1_000_003]),
    ) {
        let history = timed_serial_history(&shapes, keys, sessions, key_offset, &intervals);
        prop_assert!(check_sser(&history).unwrap().is_satisfied());
        prop_assert!(check_sser_naive(&history).unwrap().is_satisfied());
        let streaming =
            check_streaming(IsolationLevel::StrictSerializability, &history).unwrap();
        prop_assert!(streaming.is_satisfied(), "streaming SSER: {streaming:?}");
    }

    /// Under injected commit-timestamp skew and/or a corrupted read, the
    /// streaming SSER verdict agrees with `check_sser` *and*
    /// `check_sser_naive` on accept/reject.
    #[test]
    fn sser_streaming_agrees_with_batch_on_skewed_histories(
        shapes in prop::collection::vec((shape_strategy(), 0u64..4, 0u64..4), 2..16),
        intervals in prop::collection::vec((0u64..6, 0u64..40), 16),
        pick in 0usize..16,
        delta in 0u64..120,
        corrupt_read in prop::option::of((0usize..16, 0u64..3)),
        strip in prop::option::of((0usize..16, any::<bool>())),
        key_offset in prop::sample::select(vec![0u64, 23, 999_983]),
    ) {
        let valid = timed_serial_history(&shapes, 3, 2, key_offset, &intervals);
        let history = skewed(&valid, pick, delta, corrupt_read, strip);
        let batch_verdict = check_sser(&history).unwrap();
        let naive_verdict = check_sser_naive(&history).unwrap();
        prop_assert_eq!(
            batch_verdict.is_violated(),
            naive_verdict.is_violated(),
            "batch SSER flavours disagree: {:?} vs {:?}",
            batch_verdict,
            naive_verdict
        );
        let streaming = certified_sser(&history, None);
        prop_assert_eq!(
            batch_verdict.is_violated(),
            streaming.is_violated(),
            "batch/streaming SSER mismatch: batch={:?} streaming={:?}",
            batch_verdict,
            streaming
        );
    }

    /// Feeding one transaction at a time, an SSER violation latches at some
    /// prefix and never un-latches while a clean, later-in-time tail streams
    /// in; the pre-tail verdict agrees with batch `check_sser`.
    #[test]
    fn sser_violations_latch_and_stay_latched(
        shapes in prop::collection::vec((shape_strategy(), 0u64..4, 0u64..4), 4..16),
        intervals in prop::collection::vec((0u64..6, 0u64..40), 16),
        pick in 0usize..8,
        delta in 10u64..200,
        tail in 1usize..12,
    ) {
        let valid = timed_serial_history(&shapes, 3, 2, 0, &intervals);
        let history = skewed(&valid, pick, delta, None, None);
        let mut checker = IncrementalChecker::new_sser()
            .with_init_keys(history.txn(history.init_txn().unwrap()).write_set());
        for txn in history.txns() {
            if Some(txn.id) == history.init_txn() {
                continue;
            }
            let _ = checker.push(txn.clone());
        }
        // The completed-stream verdict agrees with batch on accept/reject.
        let batch_verdict = check_sser(&history).unwrap();
        prop_assert_eq!(
            IncrementalChecker::resume(checker.checkpoint())
                .finish()
                .unwrap()
                .is_violated(),
            batch_verdict.is_violated()
        );
        // A clean tail far in the future must not disturb the latch. The
        // tail transactions RMW one of the init keys, reading whatever the
        // checker's key state last installed there.
        let was_violated = checker.is_violated();
        let first = checker.first_violation_at();
        let tail_key = 0u64;
        let mut last = Value(0);
        for t in history.txns() {
            for key in t.write_set() {
                if key.raw() == tail_key {
                    if let Some(v) = t.last_write(key) {
                        last = v;
                    }
                }
            }
        }
        let mut instant = 1_000_000u64;
        for i in 0..tail {
            let next = Value(10_000_000 + i as u64);
            let _ = checker.push_committed_timed(
                0,
                vec![Op::read(tail_key, last), Op::write(tail_key, next)],
                instant,
                instant + 3,
            );
            last = next;
            instant += 10;
        }
        prop_assert_eq!(checker.is_violated(), was_violated);
        prop_assert_eq!(checker.first_violation_at(), first);
    }
}

// ───────────────── SI and SSER certificates, checked from outside ───────────

/// Streams `history` through an SSER checker, with `gc` or without, holds
/// the cycle it reports, if it reports one, to [`assert_sser_certificate`]
/// over the prefix it consumed, and returns the verdict.
fn certified_sser(history: &History, gc: Option<GcPolicy>) -> Verdict {
    let mut checker = IncrementalChecker::new_sser();
    if let Some(policy) = gc {
        checker.set_gc(policy);
    }
    let _ = checker.push_history(history);
    let at = checker.first_violation_at();
    let verdict = checker.finish().unwrap();
    if let (Some(at), Verdict::Violated(Violation::Cycle { edges })) = (at, &verdict) {
        assert_sser_certificate(&prefix_through(history, at), edges);
    }
    verdict
}

/// The catalogue's SSER cycles are certified from outside the engine too,
/// and so are those a tightly collected checker reports on it.
#[test]
fn sser_certificates_of_the_catalogue_are_real_time_cycles() {
    let mut cycles = 0;
    for kind in AnomalyKind::ALL {
        let history = kind.history();
        let verdict = certified_sser(&history, None);
        cycles += usize::from(matches!(
            verdict,
            Verdict::Violated(Violation::Cycle { .. })
        ));
        certified_sser(&history, Some(GcPolicy::clamped(2, 1)));
    }
    assert!(cycles >= 5, "{cycles} SSER cycles");
}

/// Streams `history` through an SI checker, with `gc` or without, and holds
/// the cycle it reports, if it reports one, to [`assert_si_certificate`]
/// over the edges `build_dependency` derives from the prefix it consumed.
/// Returns whether it checked a cycle: a prefix with a read that still waits
/// for its writer has no dependency graph of its own.
fn certify_si_cycle(history: &History, gc: Option<GcPolicy>) -> bool {
    let (mut checker, txns) = seeded(IsolationLevel::SnapshotIsolation, history);
    if let Some(policy) = gc {
        checker.set_gc(policy);
    }
    let mut prefix = match history.init_txn() {
        Some(init) => HistoryBuilder::new().with_init_keys(history.txn(init).write_set()),
        None => HistoryBuilder::new(),
    };
    for t in txns {
        prefix.push_cloned(t.clone());
        if checker.push(t) != Ok(StreamStatus::ConsistentSoFar) {
            break;
        }
    }
    let Some(Violation::Cycle { edges }) = checker.violation() else {
        return false;
    };
    let Ok(graph) = build_dependency(&prefix.build(), false) else {
        return false;
    };
    assert_si_certificate(graph.edges(), edges);
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Every SI cycle the streaming checker reports — on histories with up
    /// to three stale reads, under GC or not — is a cycle of
    /// `(SO ∪ WR ∪ WW) ; RW?` over the edges the consumed prefix entails.
    /// About one case in five reports a cycle whose prefix builds.
    #[test]
    fn si_certificates_are_composed_cycles_of_the_consumed_prefix(
        shapes in prop::collection::vec((shape_strategy(), 0u64..4, 0u64..4), 2..24),
        picks in prop::collection::vec((0usize..24, 0u64..3), 1..4),
        policy in gc_geometry_strategy(),
    ) {
        let mut history = serial_history(&shapes, 3, 2);
        for &(pick, stale) in &picks {
            history = corrupt(&history, pick, stale);
        }
        certify_si_cycle(&history, None);
        certify_si_cycle(&history, Some(policy));
    }
}

/// The catalogue's SI cycles — a session guarantee, a non-monotonic and a
/// fractured read — are certified the same way.
#[test]
fn si_certificates_of_the_catalogue_are_composed_cycles() {
    let cycles = AnomalyKind::ALL
        .into_iter()
        .filter(|kind| certify_si_cycle(&kind.history(), None))
        .count();
    assert!(cycles >= 3, "{cycles} SI cycles");
}

// ───────────────── the order's labels against the batch graph ──────────────

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The engine keeps each dependency edge once, as a labelled entry of
    /// its order's rows. At every prefix a checker has consumed without a
    /// verdict — on valid and corrupted histories, at every level, un-GC'd,
    /// GC'd and resumed from a checkpoint taken at `cut` — every entry
    /// carries the label `DependencyGraph::label_hop` gives its pair over
    /// `build_dependency` of that prefix, no pair is held twice, and an
    /// un-GC'd, un-resumed order holds every derived pair. A prefix with a
    /// read that still waits for its writer has no graph of its own and is
    /// not checked.
    #[test]
    fn order_rows_carry_the_labels_of_the_derived_graph(
        shapes in prop::collection::vec((shape_strategy(), 0u64..6, 0u64..6), 2..40),
        keys in 2u64..6,
        sessions in 1u32..4,
        corruption in prop::option::of((0usize..40, 0u64..50)),
        policy in gc_geometry_strategy(),
        cut in 0usize..40,
    ) {
        let mut history = serial_history(&shapes, keys, sessions);
        if let Some((pick, stale)) = corruption {
            history = corrupt(&history, pick, stale);
        }
        let init = history.init_txn().map(|t| history.txn(t).write_set());
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            let si = level == IsolationLevel::SnapshotIsolation;
            for (gc, resume) in [(false, false), (true, false), (false, true), (true, true)] {
                let (mut checker, txns) = seeded(level, &history);
                if gc {
                    checker.set_gc(policy);
                }
                let cut = if resume { cut % (txns.len() + 1) } else { txns.len() };
                let mut prefix = match &init {
                    Some(keys) => HistoryBuilder::new().with_init_keys(keys.iter().copied()),
                    None => HistoryBuilder::new(),
                };
                for (i, t) in txns.iter().enumerate() {
                    if i == cut {
                        let bytes = serde_json::to_string(&checker.checkpoint()).unwrap();
                        checker = IncrementalChecker::resume(serde_json::from_str(&bytes).unwrap());
                    }
                    prefix.push_cloned(t.clone());
                    if checker.push(t.clone()) != Ok(StreamStatus::ConsistentSoFar) {
                        break;
                    }
                    let Ok(derived) = build_dependency(&prefix.clone().build(), false) else {
                        continue;
                    };
                    let order: Vec<OrderEdge> = checker.order_edges();
                    assert_order_labels(&order, &derived, si, !gc && !resume);
                }
            }
        }
    }
}

// ───────────────── checkpoint / resume differential ─────────────────────────

/// Seeds a checker with `history`'s `⊥T` (if any) and returns the
/// non-initial transactions in stream order.
fn seeded(level: IsolationLevel, history: &History) -> (IncrementalChecker, Vec<Transaction>) {
    let checker = match history.init_txn() {
        Some(init) => IncrementalChecker::new(level).with_init_keys(history.txn(init).write_set()),
        None => IncrementalChecker::new(level),
    };
    let txns = history
        .txns()
        .iter()
        .filter(|t| Some(t.id) != history.init_txn())
        .cloned()
        .collect();
    (checker, txns)
}

/// Runs the interrupted pipeline — push `[0, cut)`, checkpoint, serialize the
/// snapshot, drop everything, resume, push the rest — and asserts the result
/// is bit-identical to the uninterrupted run: same verdict (payload
/// included), same `first_violation_at`.
fn assert_checkpoint_equivalence(level: IsolationLevel, history: &History, cut: usize) {
    let (mut reference, txns) = seeded(level, history);
    for t in &txns {
        let _ = reference.push(t.clone());
    }
    let expected_first = reference.first_violation_at();
    let expected = reference.finish();

    let (mut first_half, _) = seeded(level, history);
    let cut = cut % (txns.len() + 1);
    for t in &txns[..cut] {
        let _ = first_half.push(t.clone());
    }
    let snapshot = first_half.checkpoint();
    drop(first_half);
    let bytes = serde_json::to_string(&snapshot).expect("snapshot serializes");
    drop(snapshot);
    let snapshot: CheckerSnapshot = serde_json::from_str(&bytes).expect("snapshot parses");
    let mut resumed = IncrementalChecker::resume(snapshot);
    for t in &txns[cut..] {
        let _ = resumed.push(t.clone());
    }
    assert_eq!(resumed.first_violation_at(), expected_first, "{level}");
    let resumed_verdict = resumed.finish();
    let sser = level == IsolationLevel::StrictSerializability;
    if let (true, Some(at), Ok(Verdict::Violated(Violation::Cycle { edges }))) =
        (sser, expected_first, &resumed_verdict)
    {
        assert_sser_certificate(&prefix_through(history, at), edges);
    }
    assert_eq!(
        format!("{resumed_verdict:?}"),
        format!("{expected:?}"),
        "{level}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Checkpoint at a random prefix, drop everything, resume, finish:
    /// verdict, counterexample and `first_violation_at` must be
    /// bit-identical to the uninterrupted run — on valid *and* corrupted
    /// histories, across SER and SI.
    #[test]
    fn checkpoint_resume_is_bit_identical_ser_si(
        shapes in prop::collection::vec((shape_strategy(), 0u64..6, 0u64..6), 1..24),
        keys in 2u64..6,
        sessions in 1u32..4,
        cut in 0usize..24,
        corruption in prop::option::of((0usize..24, 1u64..50)),
    ) {
        let mut history = serial_history(&shapes, keys, sessions);
        if let Some((pick, stale)) = corruption {
            history = corrupt(&history, pick, stale);
        }
        for level in [IsolationLevel::Serializability, IsolationLevel::SnapshotIsolation] {
            assert_checkpoint_equivalence(level, &history, cut);
        }
    }

    /// The same guarantee for the online SSER time-chain, over timed
    /// histories with overlapping intervals, clock skew, stale reads and
    /// partially timed records.
    #[test]
    fn checkpoint_resume_is_bit_identical_sser(
        shapes in prop::collection::vec((shape_strategy(), 0u64..5, 0u64..5), 1..20),
        keys in 2u64..5,
        sessions in 1u32..4,
        intervals in prop::collection::vec((0u64..7, 0u64..40), 1..8),
        cut in 0usize..20,
        skew in prop::option::of((0usize..20, 1u64..200)),
        corruption in prop::option::of((0usize..20, 1u64..50)),
        strip in prop::option::of((0usize..20, 0u64..2)),
    ) {
        let mut history = timed_serial_history(&shapes, keys, sessions, 0, &intervals);
        if skew.is_some() || corruption.is_some() || strip.is_some() {
            let (pick, delta) = skew.unwrap_or((0, 0));
            let strip = strip.map(|(sp, side)| (sp, side == 0));
            history = skewed(&history, pick, delta, corruption, strip);
        }
        assert_checkpoint_equivalence(IsolationLevel::StrictSerializability, &history, cut);
    }
}

// ───────────────── epoch-GC differential ─────────────────────────────────────

/// Uninterrupted un-GC'd reference outcome for `history` at `level`.
fn ungced_reference(level: IsolationLevel, history: &History) -> (Option<TxnId>, String) {
    let (mut reference, txns) = seeded(level, history);
    for t in &txns {
        let _ = reference.push(t.clone());
    }
    let first = reference.first_violation_at();
    (first, format!("{:?}", reference.finish()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The epoch-GC'd checker is bit-identical to the from-scratch
    /// un-GC'd one — verdict payload and `first_violation_at` — on valid
    /// histories and histories with an in-window stale read, across SER, SI
    /// and (untimed) SSER, for GC windows straddling commit-epoch boundaries.
    #[test]
    fn epoch_gc_verdicts_match_ungced_ser_si_sser(
        shapes in prop::collection::vec((shape_strategy(), 0u64..6, 0u64..6), 8..48),
        keys in 2u64..6,
        sessions in 1u32..4,
        pick in 0usize..48,
        policy in gc_geometry_strategy(),
    ) {
        let valid = serial_history(&shapes, keys, sessions);
        let history = corrupt_fresh(&valid, pick, policy.window / 2);
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            let (expected_first, expected) = ungced_reference(level, &history);
            let (mut gced, txns) = seeded(level, &history);
            gced.set_gc(policy);
            for t in &txns {
                let _ = gced.push(t.clone());
            }
            prop_assert_eq!(gced.first_violation_at(), expected_first, "{}", level);
            prop_assert_eq!(format!("{:?}", gced.finish()), expected, "{}", level);
        }
    }

    /// The same guarantee for the timed SSER path: overlapping commit
    /// intervals, partially timed records, and a *small* clock skew whose
    /// induced real-time violation stays well inside the GC window (begins
    /// advance by at least one tick per transaction, so a `delta`-tick skew
    /// reaches at most `delta` transactions back).
    #[test]
    fn epoch_gc_verdicts_match_ungced_timed_sser(
        shapes in prop::collection::vec((shape_strategy(), 0u64..4, 0u64..4), 8..32),
        intervals in prop::collection::vec((1u64..6, 0u64..40), 16),
        pick in 0usize..32,
        delta in 0u64..8,
        strip in prop::option::of((0usize..32, any::<bool>())),
    ) {
        let policy = GcPolicy::clamped(16, 3);
        let valid = timed_serial_history(&shapes, 3, 2, 0, &intervals);
        let history = skewed(&valid, pick, delta, None, strip);
        let level = IsolationLevel::StrictSerializability;
        let (expected_first, expected) = ungced_reference(level, &history);
        let (mut gced, txns) = seeded(level, &history);
        gced.set_gc(policy);
        for t in &txns {
            let _ = gced.push(t.clone());
        }
        prop_assert_eq!(gced.first_violation_at(), expected_first);
        prop_assert_eq!(format!("{:?}", gced.finish()), expected);
    }

    /// Checkpointing a GC'd checker mid-stream — including between a sweep
    /// epoch and its deferred graph-side collection — and resuming must be
    /// bit-identical to the *uninterrupted GC'd* run on any history (even
    /// corruption reaching past the window): the snapshot carries the epoch
    /// counter and arena bases, so the resumed run's sweep and collection
    /// schedule replays exactly.
    #[test]
    fn epoch_gc_checkpoint_resume_is_bit_identical(
        shapes in prop::collection::vec((shape_strategy(), 0u64..6, 0u64..6), 8..40),
        keys in 2u64..6,
        cut in 0usize..40,
        corruption in prop::option::of((0usize..40, 1u64..50)),
        policy in gc_geometry_strategy(),
    ) {
        let mut history = serial_history(&shapes, keys, 3);
        if let Some((pick, stale)) = corruption {
            history = corrupt(&history, pick, stale);
        }
        for level in [
            IsolationLevel::Serializability,
            IsolationLevel::SnapshotIsolation,
            IsolationLevel::StrictSerializability,
        ] {
            let (mut reference, txns) = seeded(level, &history);
            reference.set_gc(policy);
            for t in &txns {
                let _ = reference.push(t.clone());
            }
            let expected_first = reference.first_violation_at();
            let expected = format!("{:?}", reference.finish());

            let (mut first_half, _) = seeded(level, &history);
            first_half.set_gc(policy);
            let cut = cut % (txns.len() + 1);
            for t in &txns[..cut] {
                let _ = first_half.push(t.clone());
            }
            let snapshot = first_half.checkpoint();
            drop(first_half);
            let bytes = serde_json::to_string(&snapshot).expect("snapshot serializes");
            drop(snapshot);
            let snapshot: CheckerSnapshot =
                serde_json::from_str(&bytes).expect("snapshot parses");
            let mut resumed = IncrementalChecker::resume(snapshot);
            for t in &txns[cut..] {
                let _ = resumed.push(t.clone());
            }
            prop_assert_eq!(resumed.first_violation_at(), expected_first, "{}", level);
            prop_assert_eq!(format!("{:?}", resumed.finish()), expected, "{}", level);
        }
    }
}
