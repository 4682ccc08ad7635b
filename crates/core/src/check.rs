//! The verifiers `CHECKSSER`, `CHECKSER` and `CHECKSI` (Algorithm 1).
//!
//! All three share the same structure ([`check_batch`]):
//!
//! 0. index every write of the history once ([`mtc_history::WriteIndex`]);
//!    steps 1 and 2 and DIVERGENCE all read that one index instead of
//!    walking the history into maps of their own;
//! 1. validate that the input is a mini-transaction history (Definition 9);
//! 2. pre-scan for intra-transactional / read-provenance anomalies
//!    (Figures 5a–5g) — any hit refutes every strong level immediately —
//!    resolving every external read against the index on the way: its
//!    writer, and whether the reader overwrites it
//!    ([`mtc_history::scan_reads`]);
//! 3. build the (unique) dependency graph (`BUILDDEPENDENCY`,
//!    [`crate::build_dependency`]) from the reads step 2 resolved, with no
//!    second look into the index — once: the verdict comes back with that
//!    graph's edge count, so a caller reporting it need not build again;
//! 4. decide acyclicity of the appropriate edge combination — collected as
//!    one flat pair list and frozen into one [`DiGraph`] — and, on a cycle,
//!    return a labelled counterexample.
//!
//! `CHECKSI` additionally rejects the DIVERGENCE pattern before any graph
//! work (Lemma 1), and checks acyclicity of the *composed* graph
//! `(SO ∪ WR ∪ WW) ; RW?` rather than of the plain union. Where a composed
//! edge came from is not recorded: only the hops of a cycle that is found
//! are expanded back into dependency edges.
//!
//! `CHECKSSER` comes in two flavours: [`check_sser_naive`] materializes all
//! `Θ(n²)` real-time edges exactly as in the paper, while [`check_sser`]
//! encodes the real-time order through a sorted chain of *time nodes*,
//! bringing the complexity down to `O(n log n)` without changing verdicts.
//!
//! Steps 1 and 2 are not optional: the verifiers are sound and complete
//! only for the inputs they admit. There is one configuration per verifier,
//! the paper's. Beside it, [`check_batch_reference`] runs the same pipeline
//! over the paper's literal `BUILDDEPENDENCY` (step 3 with the `WW`
//! transitive closure) — the oracle the optimized build is tested against,
//! as [`check_sser_naive`] is for the time chain.

use crate::build::build_impl;
use crate::divergence::find_divergence_with;
use crate::mini::{unique_values, validate_shapes};
use crate::verdict::{CheckError, Verdict, Violation};
use mtc_history::{
    scan_reads, DependencyGraph, DiGraph, Edge, EdgeKind, History, ReadScan, ResolvedRead, TxnId,
    WriteIndex,
};
use serde::{Deserialize, Serialize};

/// The three strong isolation levels handled by MTC.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum IsolationLevel {
    /// Strict serializability (Definition 4).
    StrictSerializability,
    /// Serializability (Definition 5).
    Serializability,
    /// Snapshot isolation (Definition 6).
    SnapshotIsolation,
}

impl std::fmt::Display for IsolationLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IsolationLevel::StrictSerializability => write!(f, "SSER"),
            IsolationLevel::Serializability => write!(f, "SER"),
            IsolationLevel::SnapshotIsolation => write!(f, "SI"),
        }
    }
}

/// Checks a history against `level`.
pub fn check(level: IsolationLevel, history: &History) -> Result<Verdict, CheckError> {
    match level {
        IsolationLevel::StrictSerializability => check_sser(history),
        IsolationLevel::Serializability => check_ser(history),
        IsolationLevel::SnapshotIsolation => check_si(history),
    }
}

/// `CHECKSER`.
pub fn check_ser(history: &History) -> Result<Verdict, CheckError> {
    check_batch(BatchCheck::Ser, history).map(|c| c.verdict)
}

/// `CHECKSI`.
pub fn check_si(history: &History) -> Result<Verdict, CheckError> {
    check_batch(BatchCheck::Si, history).map(|c| c.verdict)
}

/// `CHECKSSER` using the time-chain encoding of the real-time order.
///
/// Instead of adding an edge for every real-time-ordered pair of
/// transactions, the begin/end instants are sorted and turned into a chain of
/// auxiliary *time nodes*; each transaction points to the first instant after
/// its end and is pointed to from the instant of its begin. A dependency path
/// "travels back in time" exactly when the naive graph has an RT-involving
/// cycle, so verdicts coincide with [`check_sser_naive`] while the
/// construction stays `O(n log n)`.
pub fn check_sser(history: &History) -> Result<Verdict, CheckError> {
    check_batch(BatchCheck::Sser, history).map(|c| c.verdict)
}

/// `CHECKSSER` materializing all RT edges, exactly as in Algorithm 1
/// (`Θ(n²)`).
pub fn check_sser_naive(history: &History) -> Result<Verdict, CheckError> {
    check_batch(BatchCheck::SserNaive, history).map(|c| c.verdict)
}

/// The four batch verifiers [`check_batch`] runs.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BatchCheck {
    /// `CHECKSER`.
    Ser,
    /// `CHECKSI`.
    Si,
    /// `CHECKSSER`, time-chain encoding of the real-time order.
    Sser,
    /// `CHECKSSER` materializing all `RT` edges (`Θ(n²)`).
    SserNaive,
}

/// A batch verdict and what the check built on the way to it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Checked {
    /// The verdict.
    pub verdict: Verdict,
    /// Edges of the dependency graph the check built, `RT` edges aside — the
    /// edge count of `build_dependency(history, false)`, or of
    /// `build_dependency_reference(history, false)` for
    /// [`check_batch_reference`]. `None` when the verdict was reached before
    /// any graph was built (intra-transactional anomalies, `CHECKSI`'s
    /// DIVERGENCE exit).
    pub dep_edges: Option<usize>,
}

/// Steps 1 and 2, and `CHECKSI`'s early DIVERGENCE test: everything that can
/// settle the verdict before a graph exists. If nothing does, step 2's
/// resolved reads, which step 3 builds the graph from.
fn preflight(
    check: BatchCheck,
    history: &History,
    index: &WriteIndex,
) -> Result<Result<Vec<ResolvedRead>, Violation>, CheckError> {
    validate_shapes(history)
        .and_then(|()| unique_values(index))
        .map_err(CheckError::NotMiniTransaction)?;
    let ReadScan { violations, reads } = scan_reads(history, index);
    if !violations.is_empty() {
        return Ok(Err(Violation::Intra(violations)));
    }
    if check == BatchCheck::Si {
        if let Some(d) = find_divergence_with(history, index) {
            return Ok(Err(d.into_violation()));
        }
    }
    Ok(Ok(reads))
}

/// Runs one batch verifier: one walk of the history into a [`WriteIndex`],
/// one dependency graph, and the verdict together with that graph's edge
/// count. [`check_ser`], [`check_si`], [`check_sser`] and
/// [`check_sser_naive`] are this, verdict only.
pub fn check_batch(check: BatchCheck, history: &History) -> Result<Checked, CheckError> {
    run_batch(check, history, false)
}

/// [`check_batch`] over the graph of [`crate::build_dependency_reference`]
/// (per-object `WW` transitive closure, Section IV-C) instead of the
/// optimized `BUILDDEPENDENCY`: the oracle the optimized build is held to.
/// Theorems 1 and 2 say the verdicts coincide; only the time differs.
pub fn check_batch_reference(check: BatchCheck, history: &History) -> Result<Checked, CheckError> {
    run_batch(check, history, true)
}

/// The pipeline of [`check_batch`], over the reference build if `reference`.
fn run_batch(check: BatchCheck, history: &History, reference: bool) -> Result<Checked, CheckError> {
    let index = {
        let _span = mtc_obs::span(mtc_obs::histogram!("core.batch.index"));
        WriteIndex::new(history)
    };
    let early = {
        let _span = mtc_obs::span(mtc_obs::histogram!("core.batch.preflight"));
        preflight(check, history, &index)?
    };
    drop(index);
    let reads = match early {
        Ok(reads) => reads,
        Err(violation) => {
            return Ok(Checked {
                verdict: Verdict::Violated(violation),
                dep_edges: None,
            })
        }
    };
    let with_rt = check == BatchCheck::SserNaive;
    let g = {
        let _span = mtc_obs::span(mtc_obs::histogram!("core.batch.build"));
        build_impl(history, &reads, with_rt, reference)?
    };
    drop(reads);
    let _span = mtc_obs::span(mtc_obs::histogram!("core.batch.cycle"));
    let dep_edges = if with_rt {
        g.edges().iter().filter(|e| e.kind != EdgeKind::Rt).count()
    } else {
        g.edge_count()
    };
    let cycle = |edges| Violation::Cycle { edges };
    let violation = match check {
        BatchCheck::Ser | BatchCheck::SserNaive => g.find_labelled_cycle(|_| true).map(cycle),
        BatchCheck::Sser => time_chain_cycle(history, &g).map(cycle),
        BatchCheck::Si => composed_si_cycle(&g).map(cycle),
    };
    Ok(Checked {
        verdict: violation.map_or(Verdict::Satisfied, Verdict::Violated),
        dep_edges: Some(dep_edges),
    })
}

/// Finds a cycle in `(SO ∪ WR ∪ WW) ; RW?` and expands it back to labelled
/// dependency edges; returns `None` if the composed graph is acyclic.
fn composed_si_cycle(g: &DependencyGraph) -> Option<Vec<Edge>> {
    let is_base = |e: &&Edge| matches!(e.kind, EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_));
    // The first RW edge `b → c`, if any.
    let rw_hop = |b: TxnId, c: usize| {
        g.out_edges(b)
            .find(|rw| rw.kind.is_rw() && rw.to.index() == c)
    };

    // Per-node RW successors for the `; RW?` part.
    let rw_out = g.project(EdgeKind::is_rw);
    // Parallel composed edges do not affect cycle questions, so the pairs
    // are neither deduplicated nor remembered: only the hops of a cycle that
    // is actually found are expanded again, below.
    let mut composed: Vec<(usize, usize)> = Vec::with_capacity(2 * g.live_edge_count());
    for e in g.edges().iter().filter(is_base) {
        let (a, b) = (e.from.index(), e.to.index());
        // base edge alone (the `?` of `RW?`)
        composed.push((a, b));
        // base ; RW
        for c in rw_out.successors(b) {
            if a == c {
                // A two-edge cycle a → b → a: report it directly.
                let rw = rw_hop(e.to, a);
                debug_assert!(rw.is_some(), "no RW edge for the hop {b}->{a}");
                return Some(std::iter::once(e).chain(rw).copied().collect());
            }
            composed.push((a, c));
        }
    }

    let composed = DiGraph::from_edges(g.node_count(), composed.iter().copied());
    let cycle = composed.find_cycle()?;
    // Each hop `u → v` is a base edge, or else the first base edge `u → b`
    // whose target has an RW edge `b → v`.
    let mut edges = Vec::with_capacity(2 * cycle.len());
    for i in 0..cycle.len() {
        let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
        let base = || g.out_edges(TxnId(u as u32)).filter(is_base);
        if let Some(e) = base().find(|e| e.to.index() == v) {
            edges.push(*e);
            continue;
        }
        let through = base().find_map(|e| rw_hop(e.to, v).map(|rw| [*e, *rw]));
        debug_assert!(through.is_some(), "no expansion of the hop {u}->{v}");
        edges.extend(through.into_iter().flatten());
    }
    Some(edges)
}

/// Finds a cycle of `g` plus the time chain of `history`'s instants, with the
/// time nodes spliced back out into `RT` edges.
fn time_chain_cycle(history: &History, g: &DependencyGraph) -> Option<Vec<Edge>> {
    let n = g.node_count();
    let (time_nodes, aug) = time_chain(history, g);
    let aug = DiGraph::from_edges(n + time_nodes, aug.iter().copied());
    let cycle = aug.find_cycle()?;

    // Splice time nodes out of the cycle: consecutive real transactions with
    // time nodes in between are connected by an RT edge.
    let reals: Vec<usize> = cycle.iter().copied().filter(|&v| v < n).collect();
    debug_assert!(
        !reals.is_empty(),
        "a cycle cannot consist of time nodes only"
    );
    let mut edges = Vec::new();
    let len = cycle.len();
    // Position of each real node in the cycle, to know whether the hop to the
    // next real node went through time nodes.
    let real_positions: Vec<usize> = (0..len).filter(|&i| cycle[i] < n).collect();
    for (idx, &pos) in real_positions.iter().enumerate() {
        let next_pos = real_positions[(idx + 1) % real_positions.len()];
        let u = cycle[pos];
        let v = cycle[next_pos];
        // A hop straight to the next real node is a dependency; one through
        // time nodes is real time.
        let direct_hop = (pos + 1) % len == next_pos;
        let dependency = direct_hop.then(|| g.label_hop(u, v, |_| true)).flatten();
        debug_assert!(
            dependency.is_some() == direct_hop,
            "no labelled edge for the hop {u}->{v}"
        );
        edges.push(dependency.unwrap_or(Edge {
            from: TxnId(u as u32),
            to: TxnId(v as u32),
            kind: EdgeKind::Rt,
        }));
    }
    Some(edges)
}

/// The graph [`time_chain_cycle`] searches: `g`'s edges, then the chain of
/// time nodes, then each committed transaction's two hooks, in id order —
/// from the time node of its begin, to the first time node after its end.
/// Time node `w` is node `n + w` for the `w`-th distinct instant of a
/// committed transaction; the count of them is returned beside the pairs.
///
/// A partially timed transaction (only a begin or only an end recorded)
/// still constrains the real-time order on the side it has — exactly as in
/// the naive RT materialization, which only needs `a.end` and `b.begin`.
fn time_chain(history: &History, g: &DependencyGraph) -> (usize, Vec<(usize, usize)>) {
    let n = g.node_count();
    // Every instant, tagged `2·id + side` (0 a begin, 1 an end). A session's
    // instants rise with its ids, so the stable sort mostly merges runs.
    let mut instants: Vec<(u64, u64)> = Vec::with_capacity(2 * n);
    for t in history.committed() {
        let tag = 2 * t.id.index() as u64;
        instants.extend(t.begin.map(|b| (b, tag)));
        instants.extend(t.end.map(|e| (e, tag + 1)));
    }
    instants.sort();

    // One walk ranks every instant: a begin hooks from its own time node,
    // an end to the next one (if there is a later instant).
    const NONE: u32 = u32::MAX;
    let mut hooks = vec![[NONE; 2]; n];
    let mut time_nodes = 0;
    let mut last = None;
    for &(instant, tag) in &instants {
        if last != Some(instant) {
            (time_nodes, last) = (time_nodes + 1, Some(instant));
        }
        let side = (tag % 2) as usize;
        hooks[(tag / 2) as usize][side] = time_nodes - 1 + side as u32;
    }

    // Dependencies, then the chain, then each transaction's two hooks.
    let mut aug = Vec::with_capacity(g.edges().len() + time_nodes as usize + instants.len());
    aug.extend(g.edges().iter().map(|e| (e.from.index(), e.to.index())));
    aug.extend((1..time_nodes as usize).map(|w| (n + w - 1, n + w)));
    for (t, [begin, end]) in hooks.into_iter().enumerate() {
        if begin != NONE {
            aug.push((n + begin as usize, t));
        }
        if end < time_nodes {
            aug.push((t, n + end as usize));
        }
    }
    (time_nodes as usize, aug)
}

/// The pairs of [`time_chain`] as they were numbered before its one sort:
/// the distinct instants sorted and deduplicated, and each hook found by a
/// binary search among them. The reference [`time_chain`] is held to, pair
/// for pair (`tests::the_counting_derivations_are_the_references`).
#[cfg(test)]
fn time_chain_by_search(history: &History, g: &DependencyGraph) -> (usize, Vec<(usize, usize)>) {
    let n = g.node_count();
    let mut instants: Vec<u64> = Vec::new();
    for t in history.committed() {
        instants.extend(t.begin);
        instants.extend(t.end);
    }
    instants.sort_unstable();
    instants.dedup();
    let time_node =
        |instant: u64| -> Option<usize> { instants.binary_search(&instant).ok().map(|i| n + i) };
    let first_after = |instant: u64| -> Option<usize> {
        match instants.binary_search(&instant) {
            Ok(i) | Err(i) => {
                let j = if instants.get(i) == Some(&instant) {
                    i + 1
                } else {
                    i
                };
                if j < instants.len() {
                    Some(n + j)
                } else {
                    None
                }
            }
        }
    };
    let mut aug: Vec<(usize, usize)> = (g.edges().iter())
        .map(|e| (e.from.index(), e.to.index()))
        .collect();
    aug.extend((1..instants.len()).map(|w| (n + w - 1, n + w)));
    for t in history.committed() {
        if let Some(tn) = t.begin.and_then(time_node) {
            aug.push((tn, t.id.index()));
        }
        if let Some(tn) = t.end.and_then(first_after) {
            aug.push((t.id.index(), tn));
        }
    }
    (instants.len(), aug)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::build::{build_by_sort_merge, build_impl};
    use mtc_history::anomalies;
    use mtc_history::{
        find_intra_anomalies, HistoryBuilder, Op, SessionId, Transaction, TxnStatus,
    };
    use proptest::prelude::*;

    /// A serial history: strictly increasing updates in one session.
    fn serial_history() -> History {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 11);
        b.committed_timed(0, vec![Op::read(1u64, 0u64), Op::write(1u64, 2u64)], 12, 13);
        b.committed_timed(1, vec![Op::read(0u64, 1u64), Op::read(1u64, 2u64)], 20, 21);
        b.build()
    }

    #[test]
    fn serial_history_satisfies_everything() {
        let h = serial_history();
        assert_eq!(check_ser(&h).unwrap(), Verdict::Satisfied);
        assert_eq!(check_si(&h).unwrap(), Verdict::Satisfied);
        assert_eq!(check_sser(&h).unwrap(), Verdict::Satisfied);
        assert_eq!(check_sser_naive(&h).unwrap(), Verdict::Satisfied);
    }

    #[test]
    fn anomaly_catalogue_matches_expected_matrix() {
        for (kind, h) in anomalies::catalogue() {
            let expected = kind.expected();
            let ser = check_ser(&h).unwrap();
            let si = check_si(&h).unwrap();
            let sser = check_sser(&h).unwrap();
            assert_eq!(
                ser.is_violated(),
                expected.violates_ser,
                "SER verdict mismatch for {kind}: {ser:?}"
            );
            assert_eq!(
                si.is_violated(),
                expected.violates_si,
                "SI verdict mismatch for {kind}: {si:?}"
            );
            assert_eq!(
                sser.is_violated(),
                expected.violates_sser,
                "SSER verdict mismatch for {kind}: {sser:?}"
            );
        }
    }

    #[test]
    fn reference_build_yields_identical_verdicts() {
        for (kind, h) in anomalies::catalogue() {
            let reference = |check| check_batch_reference(check, &h).unwrap().verdict;
            assert_eq!(
                check_ser(&h).unwrap().is_violated(),
                reference(BatchCheck::Ser).is_violated(),
                "SER/reference mismatch for {kind}"
            );
            assert_eq!(
                check_si(&h).unwrap().is_violated(),
                reference(BatchCheck::Si).is_violated(),
                "SI/reference mismatch for {kind}"
            );
        }
    }

    #[test]
    fn write_skew_cycle_has_two_adjacent_rw_edges() {
        let h = anomalies::write_skew();
        let verdict = check_ser(&h).unwrap();
        let Some(Violation::Cycle { edges }) = verdict.violation() else {
            panic!("expected a cycle, got {verdict:?}");
        };
        let rw_count = edges.iter().filter(|e| e.kind.is_rw()).count();
        assert!(
            rw_count >= 2,
            "write skew must involve two RW edges: {edges:?}"
        );
    }

    #[test]
    fn lost_update_reported_as_divergence_for_si() {
        let h = anomalies::lost_update();
        let verdict = check_si(&h).unwrap();
        assert!(matches!(
            verdict.violation(),
            Some(Violation::Divergence { .. })
        ));
    }

    #[test]
    fn non_mt_history_is_rejected() {
        let mut b = HistoryBuilder::new().with_init(1);
        // Blind write: not a mini-transaction.
        b.committed(0, vec![Op::write(0u64, 1u64)]);
        let h = b.build();
        for check in [BatchCheck::Ser, BatchCheck::Si, BatchCheck::Sser] {
            assert!(matches!(
                check_batch(check, &h),
                Err(CheckError::NotMiniTransaction(_))
            ));
        }
    }

    #[test]
    fn long_transactions_are_scanned_like_short_ones_once_validation_is_off() {
        // Twelve keys in one transaction: read each, write each, read each
        // back. Not a mini-transaction, so the checkers refuse it; the
        // pre-scan and the build, called past validation, keep no
        // per-transaction table that a wide transaction could outgrow.
        let wide = |stale: Option<u64>| {
            let mut ops: Vec<Op> = (0..12u64).map(|k| Op::read(k, 0u64)).collect();
            ops.extend((0..12u64).map(|k| Op::write(k, 100 + k)));
            ops.extend((0..12u64).map(|k| {
                let back = if stale == Some(k) { 0 } else { 100 + k };
                Op::read(k, back)
            }));
            let mut b = HistoryBuilder::new().with_init(12);
            let t = b.committed(0, ops);
            (b.build(), t)
        };
        let (clean, _) = wide(None);
        assert!(matches!(
            check_ser(&clean),
            Err(CheckError::NotMiniTransaction(_))
        ));
        assert!(find_intra_anomalies(&clean).is_empty());
        let g = crate::build_dependency(&clean, false).unwrap();
        assert!(g.find_labelled_cycle(|_| true).is_none());
        // ⊥T → T: SO, and WR + WW on each of the twelve keys.
        assert_eq!(g.edge_count(), 25);
        // The eleventh key read back stale: its own write is not what it saw.
        let (stale, t) = wide(Some(10));
        let found = find_intra_anomalies(&stale);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].anomaly, mtc_history::IntraAnomaly::NotMyOwnWrite);
        assert_eq!((found[0].txn, found[0].op_index), (t, 34));
    }

    #[test]
    fn real_time_violation_detected_only_by_sser() {
        // T1 writes x and finishes before T2 starts, but T2 still reads the
        // initial value of x: allowed by SER, forbidden by SSER.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20);
        b.committed_timed(1, vec![Op::read(0u64, 0u64)], 30, 40);
        let h = b.build();
        assert_eq!(check_ser(&h).unwrap(), Verdict::Satisfied);
        assert_eq!(check_si(&h).unwrap(), Verdict::Satisfied);
        let sser = check_sser(&h).unwrap();
        let sser_naive = check_sser_naive(&h).unwrap();
        assert!(sser.is_violated(), "time-chain SSER missed the violation");
        assert!(sser_naive.is_violated(), "naive SSER missed the violation");
    }

    #[test]
    fn sser_counterexample_contains_an_rt_edge() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20);
        b.committed_timed(1, vec![Op::read(0u64, 0u64)], 30, 40);
        let h = b.build();
        let verdict = check_sser(&h).unwrap();
        let Some(Violation::Cycle { edges }) = verdict.violation() else {
            panic!("expected cycle, got {verdict:?}");
        };
        assert!(
            edges.iter().any(|e| e.kind == EdgeKind::Rt),
            "counterexample should mention real time: {edges:?}"
        );
    }

    #[test]
    fn self_inconsistent_interval_rejected_by_both_sser_flavours() {
        // A commit acknowledged before its own begin makes the real-time
        // relation non-irreflexive: no strict serialization exists. Both
        // encodings must reject (the naive one used to skip the self pair).
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed_timed(0, vec![Op::read(0u64, 0u64)], 30, 10);
        let h = b.build();
        assert!(check_sser(&h).unwrap().is_violated());
        assert!(check_sser_naive(&h).unwrap().is_violated());
        assert!(check_ser(&h).unwrap().is_satisfied());
        assert!(check_si(&h).unwrap().is_satisfied());
    }

    #[test]
    fn naive_and_timechain_sser_agree_on_the_catalogue() {
        for (kind, h) in anomalies::catalogue() {
            assert_eq!(
                check_sser(&h).unwrap().is_violated(),
                check_sser_naive(&h).unwrap().is_violated(),
                "SSER variants disagree on {kind}"
            );
        }
    }

    #[test]
    fn check_dispatch_matches_direct_calls() {
        let h = anomalies::long_fork();
        assert_eq!(
            check(IsolationLevel::Serializability, &h)
                .unwrap()
                .is_violated(),
            check_ser(&h).unwrap().is_violated()
        );
        assert_eq!(
            check(IsolationLevel::SnapshotIsolation, &h)
                .unwrap()
                .is_violated(),
            check_si(&h).unwrap().is_violated()
        );
        assert_eq!(
            check(IsolationLevel::StrictSerializability, &h)
                .unwrap()
                .is_violated(),
            check_sser(&h).unwrap().is_violated()
        );
    }

    #[test]
    fn level_display() {
        assert_eq!(IsolationLevel::Serializability.to_string(), "SER");
        assert_eq!(IsolationLevel::SnapshotIsolation.to_string(), "SI");
        assert_eq!(IsolationLevel::StrictSerializability.to_string(), "SSER");
    }

    /// One generated transaction: `(key, key, version, version, mode,
    /// begin, length)`. The versions pick, among the committed versions of
    /// each key so far, the one that is read; the mode bits pick the shape
    /// and the instants.
    type Step = (u64, u64, u64, u64, u16, u64, u64);

    const TWO_KEYS: u16 = 1;
    const WRITE_FIRST: u16 = 2;
    const WRITE_SECOND: u16 = 4;
    /// Recorded aborted, and read by nobody.
    const ABORTED: u16 = 8;
    /// The second key is written first: a writer whose writes are not in
    /// key order, nor in read order.
    const SWAPPED: u16 = 16;
    /// An aborted attempt writing the same values goes first, so the index
    /// slot of each value is created by a writer that does not install it.
    const RETRIED: u16 = 32;
    /// Bits 6–7: no instants, both, the begin only, the end only.
    const TIMING: u16 = 3 << 6;
    /// With both instants: the commit is acknowledged before the begin.
    const REVERSED: u16 = 256;

    /// A history whose reads may pick *any* committed version, so versions
    /// have many readers and forked overwriters; before step `hot_at`,
    /// `hot_readers` transactions read one version of key 0, and those
    /// whose bit of `hot_writers` is set overwrite it. Instants come from a
    /// range small enough that many tie.
    fn arbitrary_history(
        steps: &[Step],
        keys: u64,
        sessions: u32,
        with_init: bool,
        (hot_at, hot_readers, hot_writers): (usize, u32, u32),
    ) -> History {
        let mut b = if with_init {
            HistoryBuilder::new().with_init(keys)
        } else {
            HistoryBuilder::new()
        };
        // The first version of a key is the initial value, which without
        // `⊥T` nobody wrote.
        let mut versions = vec![vec![0u64]; keys as usize];
        let mut fresh = 0u64;
        let mut turn = 0u32;
        let mut push = |b: &mut HistoryBuilder, ops, status, begin, end| {
            turn += 1;
            let session = SessionId(turn % sessions);
            let mut txn = Transaction::committed(TxnId(0), session, ops);
            (txn.status, txn.begin, txn.end) = (status, begin, end);
            b.push_cloned(txn);
        };
        for (i, &(k1, k2, v1, v2, mode, begin, length)) in steps.iter().enumerate() {
            if i == hot_at % steps.len() {
                let hot = *versions[0].last().unwrap();
                for reader in 0..hot_readers {
                    let mut ops = vec![Op::read(0u64, hot)];
                    if hot_writers >> reader & 1 == 1 {
                        fresh += 1;
                        ops.push(Op::write(0u64, fresh));
                        versions[0].push(fresh);
                    }
                    push(&mut b, ops, TxnStatus::Committed, None, None);
                }
            }
            let pick = |key: u64, v: u64| {
                let of_key = &versions[key as usize];
                of_key[(v % of_key.len() as u64) as usize]
            };
            let (a, c) = (k1 % keys, k2 % keys);
            let mut ops = vec![Op::read(a, pick(a, v1))];
            let two = mode & TWO_KEYS != 0 && c != a;
            if two {
                ops.push(Op::read(c, pick(c, v2)));
            }
            let mut written = Vec::new();
            if mode & WRITE_FIRST != 0 {
                written.push(a);
            }
            if two && mode & WRITE_SECOND != 0 {
                written.push(c);
            }
            if mode & SWAPPED != 0 {
                written.reverse();
            }
            let written: Vec<(u64, u64)> = (written.into_iter())
                .map(|key| {
                    fresh += 1;
                    (key, fresh)
                })
                .collect();
            ops.extend(written.iter().map(|&(key, value)| Op::write(key, value)));
            let (begin, end) = match (mode & TIMING) >> 6 {
                0 => (None, None),
                1 if mode & REVERSED != 0 => (Some(begin + length), Some(begin)),
                1 => (Some(begin), Some(begin + length)),
                2 => (Some(begin), None),
                _ => (None, Some(begin + length)),
            };
            if mode & RETRIED != 0 {
                push(&mut b, ops.clone(), TxnStatus::Aborted, begin, end);
            }
            if mode & ABORTED != 0 {
                push(&mut b, ops, TxnStatus::Aborted, begin, end);
                continue;
            }
            push(&mut b, ops, TxnStatus::Committed, begin, end);
            for (key, value) in written {
                versions[key as usize].push(value);
            }
        }
        b.build()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The build from the pre-scan's reads, with `RW` by counting sort,
        /// gives the edges of the sort-merge reference build in the same
        /// order, closure or not; the time chain numbered by one sort and
        /// one walk gives the pairs of the binary-search numbering in the
        /// same order. Equal lists, not equal sets: the order decides every
        /// certificate a checker reports.
        #[test]
        fn the_counting_derivations_are_the_references(
            steps in prop::collection::vec((0u64..4, 0u64..4, 0u64..64, 0u64..64, 0u16..512, 0u64..24, 0u64..4), 1..48),
            keys in 1u64..4,
            sessions in 1u32..4,
            with_init in any::<bool>(),
            hot in (0usize..48, 0u32..10, 0u32..1024),
        ) {
            let history = arbitrary_history(&steps, keys, sessions, with_init, hot);
            let index = WriteIndex::new(&history);
            let reads = scan_reads(&history, &index).reads;
            for (with_rt, closure) in [(false, false), (false, true), (true, false)] {
                let built = build_impl(&history, &reads, with_rt, closure).unwrap();
                let reference = build_by_sort_merge(&history, with_rt, closure).unwrap();
                prop_assert_eq!(built.edges(), reference.edges(), "rt: {}, closure: {}", with_rt, closure);
            }
            let g = build_impl(&history, &reads, false, false).unwrap();
            prop_assert_eq!(time_chain(&history, &g), time_chain_by_search(&history, &g));
        }
    }
}
