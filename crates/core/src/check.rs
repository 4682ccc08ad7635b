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
//!    second look into the index — once, as one flat edge list: the verdict
//!    comes back with its edge count, so a caller reporting it need not
//!    build again;
//! 4. lay the list out once by source — one counting sort into one CSR,
//!    each row in list order, `RW` targets flagged — and search it for a
//!    cycle with [`mtc_history::find_cycle_in`]. `CHECKSER` and the naive
//!    `CHECKSSER` search the CSR itself; `CHECKSI` and `CHECKSSER` search
//!    graphs derived from it *in place*, their successors computed from the
//!    CSR's rows where the search stands (`Composed`, `TimeChain`). Only
//!    for a cycle found is a second index built — each source's edges as
//!    indices into the list — to label the cycle's hops back into a
//!    counterexample.
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
//! the paper's. Beside it, [`crate::check_batch_reference`] runs the same
//! steps 0–2 and the paper's literal `BUILDDEPENDENCY` (step 3 with the `WW`
//! transitive closure), then searches its graph with pair lists of its own
//! ([`crate::reference`]) — the oracle the optimized build and the in-place
//! searches are held to, as [`check_sser_naive`] is for the time chain.

use crate::build::build_impl;
use crate::divergence::find_divergence_with;
use crate::mini::{unique_values, validate_shapes};
use crate::verdict::{CheckError, Verdict, Violation};
use mtc_history::{
    find_cycle_in, scan_reads, Edge, EdgeKind, History, ReadScan, ResolvedRead, Successors, TxnId,
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
    /// [`crate::check_batch_reference`]. `None` when the verdict was reached before
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

/// Steps 0 to 3 of a batch check, over the reference build if `reference`:
/// the dependency edges, or the violation found before any graph existed.
pub(crate) fn batch_edges(
    check: BatchCheck,
    history: &History,
    reference: bool,
) -> Result<Result<Vec<Edge>, Violation>, CheckError> {
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
        Err(violation) => return Ok(Err(violation)),
    };
    let _span = mtc_obs::span(mtc_obs::histogram!("core.batch.build"));
    let with_rt = check == BatchCheck::SserNaive;
    build_impl(history, &reads, with_rt, reference).map(Ok)
}

/// The verdict of a batch check whose step 4 found `cycle` (or none) in a
/// graph of `edges`; `RT` edges are not counted.
pub(crate) fn checked(check: BatchCheck, edges: &[Edge], cycle: Option<Vec<Edge>>) -> Checked {
    let dep_edges = if check == BatchCheck::SserNaive {
        edges.iter().filter(|e| e.kind != EdgeKind::Rt).count()
    } else {
        edges.len()
    };
    let violation = cycle.map(|edges| Violation::Cycle { edges });
    Checked {
        verdict: violation.map_or(Verdict::Satisfied, Verdict::Violated),
        dep_edges: Some(dep_edges),
    }
}

/// Runs one batch verifier: one walk of the history into a [`WriteIndex`],
/// one dependency edge list, one CSR of it, and the verdict together with
/// the graph's edge count. [`check_ser`], [`check_si`], [`check_sser`] and
/// [`check_sser_naive`] are this, verdict only.
pub fn check_batch(check: BatchCheck, history: &History) -> Result<Checked, CheckError> {
    let edges = match batch_edges(check, history, false)? {
        Ok(edges) => edges,
        Err(violation) => {
            return Ok(Checked {
                verdict: Verdict::Violated(violation),
                dep_edges: None,
            })
        }
    };
    let _span = mtc_obs::span(mtc_obs::histogram!("core.batch.cycle"));
    let csr = Csr::new(history.len(), &edges);
    let cycle = match check {
        BatchCheck::Ser | BatchCheck::SserNaive => find_cycle_in(&csr).map(|cycle| {
            let rows = Rows::new(&csr, &edges);
            rows.label_cycle(&cycle)
        }),
        BatchCheck::Si => composed_cycle(&csr, &edges),
        BatchCheck::Sser => time_chain_cycle(history, &csr, &edges),
    };
    Ok(checked(check, &edges, cycle))
}

/// The flag of an `RW` entry in [`Csr::targets`].
const RW: u32 = 1 << 31;

/// The end hook of a transaction without an end.
const NONE: u32 = u32::MAX;

/// The dependency edges laid out by source: row `u` is `targets[offsets[u]
/// ..offsets[u + 1]]`, in edge-list order, each entry the target's id with
/// [`RW`] set for an `RW` edge.
pub(crate) struct Csr {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Csr {
    /// # Panics
    ///
    /// If `n` does not fit in 31 bits or `edges.len()` in 32.
    pub(crate) fn new(n: usize, edges: &[Edge]) -> Self {
        assert!(n < RW as usize, "{n} nodes do not fit in 31 bits");
        let (offsets, targets) = by_source(n, edges, |_, e| {
            e.to.0 | if e.kind.is_rw() { RW } else { 0 }
        });
        Csr { offsets, targets }
    }

    fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// The end of `u`'s row in `targets`.
    #[inline]
    fn end(&self, u: usize) -> u32 {
        self.offsets[u + 1]
    }
}

/// One stable counting sort of `edges` by source: `n + 1` row offsets and,
/// row by row in list order, `entry(i, edges[i])` for every edge.
fn by_source(
    n: usize,
    edges: &[Edge],
    entry: impl Fn(usize, &Edge) -> u32,
) -> (Vec<u32>, Vec<u32>) {
    assert!(
        u32::try_from(edges.len()).is_ok(),
        "{} edges do not fit in a u32",
        edges.len()
    );
    let mut offsets = vec![0u32; n + 1];
    for e in edges {
        offsets[e.from.index() + 1] += 1;
    }
    for u in 0..n {
        offsets[u + 1] += offsets[u];
    }
    // Filling moves `offsets[u]` from the start of `u`'s row to its end,
    // which is where row `u + 1` starts: one rotation puts them back.
    let mut entries = vec![0u32; edges.len()];
    for (i, e) in edges.iter().enumerate() {
        let at = &mut offsets[e.from.index()];
        entries[*at as usize] = entry(i, e);
        *at += 1;
    }
    offsets.rotate_right(1);
    offsets[0] = 0;
    (offsets, entries)
}

impl Successors for Csr {
    /// The position of the next entry of the row.
    type Cursor = u32;

    fn node_count(&self) -> usize {
        Csr::node_count(self)
    }

    #[inline]
    fn first(&self, u: usize) -> u32 {
        self.offsets[u]
    }

    #[inline]
    fn next(&self, u: usize, at: &mut u32) -> Option<usize> {
        if *at == self.end(u) {
            return None;
        }
        *at += 1;
        Some((self.targets[*at as usize - 1] & !RW) as usize)
    }
}

/// `(SO ∪ WR ∪ WW) ; RW?` over a [`Csr`], in place: the successors of `a`
/// are, for each non-`RW` entry `b` of `a`'s row in order, `b` itself, then
/// the `RW` entries of `b`'s row in order. Parallel composed edges are
/// neither merged nor remembered: they do not change a cycle question, and
/// only the hops of a cycle that is found are expanded again.
///
/// `RW` edges come last in the edge list ([`crate::build`], "Edge order"),
/// so every row is its base entries, then its `RW` entries: `a`'s base
/// entries end at its first `RW` entry, and `b`'s `RW` entries are found
/// from the end of its row.
pub(crate) struct Composed<'a>(&'a Csr);

impl<'a> Composed<'a> {
    pub(crate) fn new(csr: &'a Csr) -> Self {
        debug_assert!(
            (0..csr.node_count()).all(|u| {
                let row = &csr.targets[csr.offsets[u] as usize..csr.end(u) as usize];
                row.is_sorted_by_key(|t| t & RW)
            }),
            "a base edge after an RW edge in a row"
        );
        Composed(csr)
    }
}

impl Successors for Composed<'_> {
    /// The position in `a`'s row past its last base entry `b`, and the
    /// rest of the `RW` entries of `b`'s row, as a range.
    type Cursor = (u32, u32, u32);

    fn node_count(&self) -> usize {
        self.0.node_count()
    }

    #[inline]
    fn first(&self, a: usize) -> (u32, u32, u32) {
        (self.0.offsets[a], 0, 0)
    }

    #[inline]
    fn next(&self, a: usize, (at, rw, rw_end): &mut (u32, u32, u32)) -> Option<usize> {
        let Csr { offsets, targets } = self.0;
        if *rw < *rw_end {
            *rw += 1;
            return Some((targets[*rw as usize - 1] & !RW) as usize);
        }
        if *at == self.0.end(a) || targets[*at as usize] & RW != 0 {
            return None;
        }
        let b = targets[*at as usize] as usize;
        *at += 1;
        (*rw, *rw_end) = (self.0.end(b), self.0.end(b));
        while *rw > offsets[b] && targets[*rw as usize - 1] & RW != 0 {
            *rw -= 1;
        }
        Some(b)
    }
}

/// Each source's edges as indices into the edge list, in list order: built
/// only for a cycle that was found, to label its hops.
struct Rows<'a> {
    edges: &'a [Edge],
    offsets: Vec<u32>,
    index: Vec<u32>,
}

impl<'a> Rows<'a> {
    fn new(csr: &Csr, edges: &'a [Edge]) -> Self {
        let (offsets, index) = by_source(csr.node_count(), edges, |i, _| i as u32);
        Rows {
            edges,
            offsets,
            index,
        }
    }

    /// The out-edges of `u`, in list order.
    fn out(&self, u: usize) -> impl Iterator<Item = &'a Edge> + '_ {
        let row = &self.index[self.offsets[u] as usize..self.offsets[u + 1] as usize];
        row.iter().map(|&i| &self.edges[i as usize])
    }

    /// The edge `u → v` to report for that hop: the best
    /// [`EdgeKind::label_rank`], the first in the row among equals.
    fn label_hop(&self, u: usize, v: usize) -> Option<Edge> {
        (self.out(u).filter(|e| e.to.index() == v))
            .min_by_key(|e| e.kind.label_rank())
            .copied()
    }

    /// One [`Rows::label_hop`] per consecutive pair of a cycle's nodes.
    /// Every hop of a cycle found in the CSR is an edge, so a hop without
    /// a label is a bug (asserted in debug builds).
    fn label_cycle(&self, cycle: &[usize]) -> Vec<Edge> {
        let mut labelled = Vec::with_capacity(cycle.len());
        for i in 0..cycle.len() {
            let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
            let hop = self.label_hop(u, v);
            debug_assert!(hop.is_some(), "no labelled edge for the hop {u}->{v}");
            labelled.extend(hop);
        }
        labelled
    }
}

/// Finds a cycle in `(SO ∪ WR ∪ WW) ; RW?` ([`Composed`]) and expands it
/// back to labelled dependency edges; returns `None` if the composed graph
/// is acyclic.
fn composed_cycle(csr: &Csr, edges: &[Edge]) -> Option<Vec<Edge>> {
    let cycle = find_cycle_in(&Composed::new(csr))?;
    let rows = Rows::new(csr, edges);
    let is_base = |e: &&Edge| matches!(e.kind, EdgeKind::So | EdgeKind::Wr(_) | EdgeKind::Ww(_));
    // The first RW edge `b → c`, if any.
    let rw_hop =
        |b: TxnId, c: usize| (rows.out(b.index())).find(|rw| rw.kind.is_rw() && rw.to.index() == c);

    // A two-edge cycle a → b → a is a composed self-loop, so the search
    // above found a cycle if there is one: the first, in edge order, is
    // reported as it is.
    for e in edges.iter().filter(is_base) {
        if let Some(rw) = rw_hop(e.to, e.from.index()) {
            return Some(vec![*e, *rw]);
        }
    }
    // Each hop `u → v` is a base edge, or else the first base edge `u → b`
    // whose target has an RW edge `b → v`.
    let mut labelled = Vec::with_capacity(2 * cycle.len());
    for i in 0..cycle.len() {
        let (u, v) = (cycle[i], cycle[(i + 1) % cycle.len()]);
        let base = || rows.out(u).filter(is_base);
        if let Some(e) = base().find(|e| e.to.index() == v) {
            labelled.push(*e);
            continue;
        }
        let through = base().find_map(|e| rw_hop(e.to, v).map(|rw| [*e, *rw]));
        debug_assert!(through.is_some(), "no expansion of the hop {u}->{v}");
        labelled.extend(through.into_iter().flatten());
    }
    Some(labelled)
}

/// A [`Csr`] plus the time chain of a history's instants, in place. Time
/// node `w` is node `n + w` for the `w`-th distinct instant of a committed
/// transaction. Transaction `t`'s successors are its row, then the first
/// time node after its end; time node `w`'s are `w + 1`, then the
/// transactions whose begin is `w`, in id order.
///
/// A partially timed transaction (only a begin or only an end recorded)
/// still constrains the real-time order on the side it has — exactly as in
/// the naive RT materialization, which only needs `a.end` and `b.begin`.
pub(crate) struct TimeChain<'a> {
    csr: &'a Csr,
    /// The transactions with a begin, ordered by `(begin, id)`.
    begins: Vec<u32>,
    /// `begins[runs[w]..runs[w + 1]]`: the transactions that begin at time
    /// node `w`.
    runs: Vec<u32>,
    /// `end_hook[t]`: the time node after `t`'s end — `runs.len() - 1`
    /// when no instant is later —, or [`NONE`] without an end.
    end_hook: Vec<u32>,
}

impl<'a> TimeChain<'a> {
    pub(crate) fn new(history: &History, csr: &'a Csr) -> Self {
        let n = csr.node_count();
        // Every instant, tagged `2·id + side` (0 a begin, 1 an end). A
        // session's instants rise with its ids, so the stable sort mostly
        // merges runs; equal instants keep id order.
        let mut instants: Vec<(u64, u64)> = Vec::with_capacity(2 * n);
        for t in history.committed() {
            let tag = 2 * t.id.index() as u64;
            instants.extend(t.begin.map(|b| (b, tag)));
            instants.extend(t.end.map(|e| (e, tag + 1)));
        }
        instants.sort();

        // One walk ranks every instant: a begin joins its time node, an
        // end hooks to the next one.
        let mut begins = Vec::with_capacity(n);
        let mut runs = Vec::with_capacity(instants.len() + 1);
        let mut end_hook = vec![NONE; n];
        let mut last = None;
        for &(instant, tag) in &instants {
            if last != Some(instant) {
                runs.push(begins.len() as u32);
                last = Some(instant);
            }
            let t = (tag / 2) as u32;
            if tag % 2 == 0 {
                begins.push(t);
            } else {
                end_hook[t as usize] = runs.len() as u32;
            }
        }
        runs.push(begins.len() as u32);
        TimeChain {
            csr,
            begins,
            runs,
            end_hook,
        }
    }

    fn time_nodes(&self) -> usize {
        self.runs.len() - 1
    }
}

impl Successors for TimeChain<'_> {
    /// A position — in a transaction's row, or in a time node's run of
    /// `begins` — and whether the one successor outside it, the end hook
    /// after the row or the chain edge before the run, is still to come.
    type Cursor = (u32, bool);

    fn node_count(&self) -> usize {
        self.csr.node_count() + self.time_nodes()
    }

    #[inline]
    fn first(&self, u: usize) -> (u32, bool) {
        let n = self.csr.node_count();
        if u < n {
            (self.csr.offsets[u], true)
        } else {
            (self.runs[u - n], true)
        }
    }

    #[inline]
    fn next(&self, u: usize, (at, pending): &mut (u32, bool)) -> Option<usize> {
        let n = self.csr.node_count();
        if u < n {
            if let Some(v) = self.csr.next(u, at) {
                return Some(v);
            }
            let hook = self.end_hook[u] as usize;
            return (std::mem::take(pending) && hook < self.time_nodes()).then_some(n + hook);
        }
        let w = u - n;
        if std::mem::take(pending) && w + 1 < self.time_nodes() {
            return Some(u + 1);
        }
        if *at == self.runs[w + 1] {
            return None;
        }
        *at += 1;
        Some(self.begins[*at as usize - 1] as usize)
    }
}

/// Finds a cycle of a [`TimeChain`] over `csr`, with the time nodes spliced
/// back out into `RT` edges.
fn time_chain_cycle(history: &History, csr: &Csr, edges: &[Edge]) -> Option<Vec<Edge>> {
    let n = csr.node_count();
    let cycle = find_cycle_in(&TimeChain::new(history, csr))?;
    let rows = Rows::new(csr, edges);

    // Splice time nodes out of the cycle: consecutive real transactions with
    // time nodes in between are connected by an RT edge.
    debug_assert!(
        cycle.iter().any(|&v| v < n),
        "a cycle cannot consist of time nodes only"
    );
    let mut labelled = Vec::new();
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
        let dependency = direct_hop.then(|| rows.label_hop(u, v)).flatten();
        debug_assert!(
            dependency.is_some() == direct_hop,
            "no labelled edge for the hop {u}->{v}"
        );
        labelled.push(dependency.unwrap_or(Edge {
            from: TxnId(u as u32),
            to: TxnId(v as u32),
            kind: EdgeKind::Rt,
        }));
    }
    Some(labelled)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::check_batch_reference;
    use crate::reference;
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
    pub(crate) type Step = (u64, u64, u64, u64, u16, u64, u64);

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
    pub(crate) fn arbitrary_history(
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

    /// The successors of every node of `graph`, as its cursor yields them.
    fn rows_of(graph: &impl Successors) -> Vec<Vec<usize>> {
        let row = |u| {
            let mut at = graph.first(u);
            std::iter::from_fn(move || graph.next(u, &mut at)).collect()
        };
        (0..graph.node_count()).map(row).collect()
    }

    /// The strategy of [`arbitrary_history`]'s arguments.
    pub(crate) fn arbitrary_args(
    ) -> impl Strategy<Value = (Vec<Step>, u64, u32, bool, (usize, u32, u32))> {
        (
            prop::collection::vec(
                (
                    0u64..4,
                    0u64..4,
                    0u64..64,
                    0u64..64,
                    0u16..512,
                    0u64..24,
                    0u64..4,
                ),
                1..48,
            ),
            1u64..4,
            1u32..4,
            any::<bool>(),
            (0usize..48, 0u32..10, 0u32..1024),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The in-place searches walk the graphs the reference stage lays
        /// out from pair lists: for every node, `Composed` and `TimeChain`
        /// yield the row `DiGraph::from_edges` gives it over the composed
        /// pairs and the time chain's pairs, element for element — so the
        /// one DFS visits the same nodes in the same order. And every check
        /// reports what the reference stage reports over the same edges,
        /// certificate for certificate, and the verdict of
        /// `check_batch_reference`, whose closure graph has more edges.
        #[test]
        fn the_in_place_searches_are_the_reference_stage(
            args in arbitrary_args(),
        ) {
            let (steps, keys, sessions, with_init, hot) = args;
            let history = arbitrary_history(&steps, keys, sessions, with_init, hot);
            let graph = crate::build_dependency(&history, false).unwrap();
            let csr = Csr::new(history.len(), graph.edges());
            if let Some(composed) = reference::composed_graph(&graph) {
                prop_assert_eq!(rows_of(&Composed::new(&csr)), rows_of(&composed));
            }
            let chain = reference::time_chain_graph(&history, &graph);
            prop_assert_eq!(rows_of(&TimeChain::new(&history, &csr)), rows_of(&chain));

            for check in [BatchCheck::Ser, BatchCheck::Si, BatchCheck::Sser, BatchCheck::SserNaive] {
                let ours = check_batch(check, &history);
                let closed = check_batch_reference(check, &history);
                let violated = |c: &Result<Checked, CheckError>| c.clone().map(|c| c.verdict.is_violated());
                prop_assert_eq!(violated(&ours), violated(&closed), "{:?}", check);
                let verdict = match ours {
                    Ok(Checked { verdict, dep_edges: Some(_) }) => verdict,
                    early => {
                        prop_assert_eq!(early, closed);
                        continue;
                    }
                };
                let graph = crate::build_dependency(&history, check == BatchCheck::SserNaive).unwrap();
                let cycle = reference::cycle_stage(check, &history, &graph);
                prop_assert_eq!(verdict.violation(), cycle.map(|edges| Violation::Cycle { edges }).as_ref(), "{:?}", check);
            }
        }
    }
}
