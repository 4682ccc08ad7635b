//! The oracle of the batch checkers: [`check_batch_reference`].
//!
//! It runs the steps 0–2 of [`crate::check_batch`], then the paper's literal
//! `BUILDDEPENDENCY` ([`crate::build_dependency_reference`], with the
//! per-object `WW` transitive closure), and searches that graph the way the
//! batch checkers did before they searched one CSR in place: a labelled
//! [`DependencyGraph`], whose projection and pair lists — the composed
//! `(SO ∪ WR ∪ WW) ; RW?` pairs, the time chain's pairs — are each frozen
//! into a [`DiGraph`] of their own. Nothing here shares a structure with the
//! optimized step 4, so the two are held to each other
//! (`check::tests::the_in_place_searches_are_the_reference_stage`); this
//! module's tests hold the optimized build to the sort-merge build it
//! replaced.

use crate::check::{batch_edges, checked, BatchCheck, Checked};
use crate::verdict::{CheckError, Verdict};
use mtc_history::{DependencyGraph, DiGraph, Edge, EdgeKind, History, TxnId};

/// [`crate::check_batch`] over the graph of
/// [`crate::build_dependency_reference`] (per-object `WW` transitive closure,
/// Section IV-C) instead of the optimized `BUILDDEPENDENCY`, searched by
/// `cycle_stage`: the oracle the optimized build and its searches are held
/// to. Theorems 1 and 2 say the verdicts coincide; only the time differs. A
/// history whose closure passes [`crate::reference_edge_budget`] is refused
/// with [`CheckError::ReferenceTooLarge`].
pub fn check_batch_reference(check: BatchCheck, history: &History) -> Result<Checked, CheckError> {
    let edges = match batch_edges(check, history, true)? {
        Ok(edges) => edges,
        Err(violation) => {
            return Ok(Checked {
                verdict: Verdict::Violated(violation),
                dep_edges: None,
            })
        }
    };
    let _span = mtc_obs::span(mtc_obs::histogram!("core.batch.cycle"));
    let g = DependencyGraph::from_edges(history.len(), edges);
    let cycle = cycle_stage(check, history, &g);
    Ok(checked(check, g.edges(), cycle))
}

/// Step 4 of `check` over the labelled graph `g` of `history`: a labelled
/// cycle of the edge combination `check` asks about, or `None`.
pub(crate) fn cycle_stage(
    check: BatchCheck,
    history: &History,
    g: &DependencyGraph,
) -> Option<Vec<Edge>> {
    match check {
        BatchCheck::Ser | BatchCheck::SserNaive => g.find_labelled_cycle(|_| true),
        BatchCheck::Sser => time_chain_cycle(history, g),
        BatchCheck::Si => composed_si_cycle(g),
    }
}

/// The first RW edge `b → c` of `g`, if any.
fn rw_hop(g: &DependencyGraph, b: TxnId, c: usize) -> Option<&Edge> {
    g.out_edges(b)
        .find(|rw| rw.kind.is_rw() && rw.to.index() == c)
}

fn is_base(e: &&Edge) -> bool {
    matches!(e.kind, EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_))
}

/// The pairs of `(SO ∪ WR ∪ WW) ; RW?` over `g`, or the first two-edge
/// cycle `a → b → a` (a base edge, then an RW edge) met on the way.
fn composed_pairs(g: &DependencyGraph) -> Result<Vec<(usize, usize)>, Vec<Edge>> {
    // Per-node RW successors for the `; RW?` part.
    let rw_out = g.project(EdgeKind::is_rw);
    // Parallel composed edges do not affect cycle questions, so the pairs
    // are neither deduplicated nor remembered: only the hops of a cycle that
    // is actually found are expanded again, below.
    let mut composed: Vec<(usize, usize)> = Vec::with_capacity(2 * g.edge_count());
    for e in g.edges().iter().filter(is_base) {
        let (a, b) = (e.from.index(), e.to.index());
        // base edge alone (the `?` of `RW?`)
        composed.push((a, b));
        // base ; RW
        for c in rw_out.successors(b) {
            if a == c {
                // A two-edge cycle a → b → a: report it directly.
                let rw = rw_hop(g, e.to, a);
                debug_assert!(rw.is_some(), "no RW edge for the hop {b}->{a}");
                return Err(std::iter::once(e).chain(rw).copied().collect());
            }
            composed.push((a, c));
        }
    }
    Ok(composed)
}

/// Finds a cycle in `(SO ∪ WR ∪ WW) ; RW?` and expands it back to labelled
/// dependency edges; returns `None` if the composed graph is acyclic.
fn composed_si_cycle(g: &DependencyGraph) -> Option<Vec<Edge>> {
    let composed = match composed_pairs(g) {
        Ok(pairs) => pairs,
        Err(two_cycle) => return Some(two_cycle),
    };
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
        let through = base().find_map(|e| rw_hop(g, e.to, v).map(|rw| [*e, *rw]));
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

/// The composed graph [`composed_si_cycle`] searches, frozen; `None` when
/// the pair list stops at a two-edge cycle.
#[cfg(test)]
pub(crate) fn composed_graph(g: &DependencyGraph) -> Option<DiGraph> {
    let pairs = composed_pairs(g).ok()?;
    Some(DiGraph::from_edges(g.node_count(), pairs))
}

/// The graph [`time_chain_cycle`] searches, frozen.
#[cfg(test)]
pub(crate) fn time_chain_graph(history: &History, g: &DependencyGraph) -> DiGraph {
    let (time_nodes, pairs) = time_chain(history, g);
    DiGraph::from_edges(g.node_count() + time_nodes, pairs)
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
    use crate::check::tests::{arbitrary_args, arbitrary_history};
    use mtc_history::{scan_reads, WriteIndex};
    use proptest::prelude::*;

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
            args in arbitrary_args(),
        ) {
            let (steps, keys, sessions, with_init, hot) = args;
            let history = arbitrary_history(&steps, keys, sessions, with_init, hot);
            let index = WriteIndex::new(&history);
            let reads = scan_reads(&history, &index).reads;
            for (with_rt, closure) in [(false, false), (false, true), (true, false)] {
                let built = build_impl(&history, &reads, with_rt, closure).unwrap();
                let reference = build_by_sort_merge(&history, with_rt, closure).unwrap();
                prop_assert_eq!(&built[..], reference.edges(), "rt: {}, closure: {}", with_rt, closure);
            }
            let edges = build_impl(&history, &reads, false, false).unwrap();
            let g = DependencyGraph::from_edges(history.len(), edges);
            prop_assert_eq!(time_chain(&history, &g), time_chain_by_search(&history, &g));
        }
    }
}
