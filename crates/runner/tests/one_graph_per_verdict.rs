//! One dependency graph per batch verdict, held by a count: `verify` reports
//! its memory estimate from the graph the check built, so `BUILDDEPENDENCY`
//! (the `core.dependency_builds` counter) runs exactly once per call — and
//! the estimate is still the formula it always was: the edges of
//! `build_dependency(history, false)` × 24 plus `history_memory_bytes`.

use mtc_core::build_dependency;
use mtc_history::{History, HistoryBuilder, Op};
use mtc_runner::exec::history_memory_bytes;
use mtc_runner::{verify, Checker, VerifyOutcome};

const BATCH: [Checker; 4] = [
    Checker::MtcSer,
    Checker::MtcSi,
    Checker::MtcSser,
    Checker::MtcSserNaive,
];

/// Serial read-modify-writes over four keys, three sessions, timed.
fn satisfied_history() -> History {
    let mut state = [0u64; 4];
    let mut b = HistoryBuilder::new().with_init(4);
    for i in 0..60u64 {
        let k = (i * 7 + 3) % 4;
        let ops = vec![Op::read(k, state[k as usize]), Op::write(k, i + 1)];
        state[k as usize] = i + 1;
        b.committed_timed((i % 3) as u32, ops, 10 * i + 1, 10 * i + 5);
    }
    b.build()
}

/// `verify(checker, history)` with recording on, and how many dependency
/// graphs it built.
fn counted(checker: Checker, history: &History) -> (VerifyOutcome, u64) {
    let builds = mtc_obs::registry().counter("core.dependency_builds");
    let before = builds.get();
    let outcome = verify(checker, history);
    (outcome, builds.get() - before)
}

#[test]
fn a_satisfied_verdict_builds_exactly_one_graph() {
    let _on = mtc_obs::test_support::with_enabled(true);
    let history = satisfied_history();
    let edges = build_dependency(&history, false).unwrap().edge_count();
    let expected = history_memory_bytes(&history) + edges * 24;
    for checker in BATCH {
        let (outcome, builds) = counted(checker, &history);
        assert!(!outcome.violated, "{checker:?}: {}", outcome.detail);
        assert_eq!(builds, 1, "{checker:?} built {builds} dependency graphs");
        // `MtcSserNaive`'s graph also carries RT edges; the estimate leaves
        // them out, as `build_dependency(history, false)` does.
        assert_eq!(outcome.memory_bytes, expected, "{checker:?}");
    }
}

#[test]
fn a_verdict_reached_before_the_graph_builds_it_for_the_estimate_only() {
    let _on = mtc_obs::test_support::with_enabled(true);
    // Lost update: CHECKSI leaves at DIVERGENCE, before BUILDDEPENDENCY.
    let history = mtc_history::anomalies::lost_update();
    let edges = build_dependency(&history, false).unwrap().edge_count();
    for checker in BATCH {
        let (outcome, builds) = counted(checker, &history);
        assert!(outcome.violated, "{checker:?}");
        assert_eq!(builds, 1, "{checker:?} built {builds} dependency graphs");
        assert_eq!(
            outcome.memory_bytes,
            history_memory_bytes(&history) + edges * 24,
            "{checker:?}"
        );
    }
}
