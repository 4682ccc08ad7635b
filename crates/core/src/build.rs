//! `BUILDDEPENDENCY` (Algorithm 1 of the paper).
//!
//! Because every write in a mini-transaction history installs a unique value
//! and is preceded by a read of the same object, the dependency graph of the
//! history is (nearly) unique and can be constructed in a single pass:
//!
//! * the `WR` edges are entirely determined by the values read;
//! * the `WW` edges are inferred from the `WR` edges: if `S` reads `x` from
//!   `T` and also writes `x`, then `T` directly precedes `S` in the version
//!   order of `x`;
//! * the `RW` edges are derived from `WR` and `WW`.
//!
//! "The values read" are the external reads the intra-transactional pre-scan
//! resolved ([`mtc_history::scan_reads`]): each read's writer was looked up
//! in the [`WriteIndex`] once, there. A batch check hands in the reads its
//! pre-scan already resolved ([`crate::check_batch`]) and keeps the flat
//! edge list it gets back; the public entry points below run that scan
//! themselves and link the list into a [`DependencyGraph`].
//!
//! Two variants are provided: [`build_dependency_reference`] mirrors the
//! paper's Algorithm 1 literally, including the per-object transitive closure
//! of the `WW` edges (convenient for the correctness proof), while
//! [`build_dependency`] is the optimized version of Section IV-C that skips
//! the closure; Theorems 1 and 2 show both yield the same verdicts.
//!
//! # How `RW` is derived
//!
//! `T' -WR(x)-> T` and `T' -WW(x)-> S` with `T ≠ S` give `T -RW(x)-> S`: the
//! readers and the overwriters of one version meet at its writer. Every
//! resolved read is such a meeting — its reader reads the version, and
//! overwrites it too if it writes the key — so the reads are counted into
//! one bucket per writer (a stable counting sort by writer id: no
//! comparison, and a bucket's readers stay in transaction order), and each
//! bucket, a handful of reads, is sorted by `(key, reader)`. A run of equal
//! keys in a bucket is one version: every reader of it is paired with every
//! other overwriter of it. In the reference variant the closure's `WW`
//! edges join the buckets of their sources as overwriters that read nothing
//! (the derived `R̂W` edges of Figure 6).
//!
//! No `RW` edge can come out twice, so none is looked up before it is added.
//! A transaction has one external read per key and so one `WR(x)` in-edge: a
//! `(reader, x)` sits in exactly one run. And the overwriters of a run are
//! distinct: a transaction has at most one direct `WW(x)` in-edge (it comes
//! with that same external read), and the closure adds an edge only where
//! there is none yet. So a run of `r` readers and `o` overwriters, `b` of
//! them both, gives `r·o − b` edges, and the list is sized before any edge
//! is written.
//!
//! # The reference closure's budget
//!
//! The closure is quadratic in the writers of a key: a hot key written by
//! 10 000 transactions gives some 50 million `WW` edges, and the `RW` edges
//! derived from them multiply that by the readers of each version. The
//! reference build therefore refuses a graph of more than
//! [`reference_edge_budget`] edges with [`CheckError::ReferenceTooLarge`]
//! and stops counting the moment it passes the budget, so a refusal costs
//! about as much as the budget, not as much as the graph.
//!
//! # Edge order
//!
//! The order of the flat edge list `build_impl` returns — which is the
//! order of every row the checkers search, of every [`DependencyGraph`]
//! row, hence which of several cycles a checker reports — is a function of
//! the history alone: `RT` (if asked for), `SO`, then `WR` / `WW`
//! transaction by transaction with the keys in first-touch order, then the
//! closure's `WW` edges key by key (reference variant), then `RW` sorted by
//! `(writer, key, reader, overwriter)`. A row keeps the list's order: the
//! checkers lay the list out by source with a stable counting sort. Checking
//! one history twice reports the same counterexample twice, in this process
//! or another.

use crate::verdict::CheckError;
use mtc_history::{
    scan_reads, DependencyGraph, DiGraph, Edge, EdgeKind, FastHashSet, History, Key, ResolvedRead,
    TxnId, WriteIndex, INIT_VALUE,
};
use std::collections::BTreeMap;

/// Errors preventing the construction of a dependency graph.
pub type BuildError = CheckError;

/// Edges per transaction of [`reference_edge_budget`].
const REFERENCE_EDGES_PER_TXN: usize = 64;

/// Edges [`reference_edge_budget`] grants any history, however small.
const REFERENCE_EDGE_FLOOR: usize = 1 << 18;

/// The most edges [`build_dependency_reference`] (and so
/// [`crate::check_batch_reference`]) builds for a history of `txns`
/// transactions, `RT` edges aside: 64 per transaction plus 262 144 — at 24
/// bytes an edge, 1.5 KiB per transaction plus 6 MiB. The optimized graph
/// of a mini-transaction history has about four edges per transaction; the
/// closure of a key whose versions form a chain of `w` writers adds about
/// `w² / 2`, so a key written some 720 times exhausts it on its own in a
/// small history, and one written about `11 √txns` times in a large one.
/// The largest history the tests hand the reference build (2 067
/// transactions, 174 818 edges) uses 44 % of its budget.
pub fn reference_edge_budget(txns: usize) -> usize {
    txns.saturating_mul(REFERENCE_EDGES_PER_TXN)
        .saturating_add(REFERENCE_EDGE_FLOOR)
}

/// Builds the dependency graph of a mini-transaction history *without*
/// computing the transitive closure of the `WW` edges (the optimized variant
/// of Section IV-C).
///
/// When `with_rt` is true, all `RT` edges between committed transactions are
/// materialized (`Θ(n²)` of them); this is only needed by the naive
/// `CHECKSSER`.
pub fn build_dependency(history: &History, with_rt: bool) -> Result<DependencyGraph, BuildError> {
    let edges = build_impl(history, &resolve(history), with_rt, false)?;
    Ok(DependencyGraph::from_edges(history.len(), edges))
}

/// Builds the dependency graph exactly as in Algorithm 1, including the
/// per-object transitive closure of the `WW` edges. A graph of more than
/// [`reference_edge_budget`] edges is refused
/// ([`CheckError::ReferenceTooLarge`]).
pub fn build_dependency_reference(
    history: &History,
    with_rt: bool,
) -> Result<DependencyGraph, BuildError> {
    let edges = build_impl(history, &resolve(history), with_rt, true)?;
    Ok(DependencyGraph::from_edges(history.len(), edges))
}

/// The external reads of `history`, resolved against an index of its own.
fn resolve(history: &History) -> Vec<ResolvedRead> {
    scan_reads(history, &WriteIndex::new(history)).reads
}

/// `BUILDDEPENDENCY` over `history`, whose external reads the pre-scan
/// resolved into `reads` ([`mtc_history::ReadScan::reads`]): the edges, in
/// the order of the module docs ("Edge order"), in one list allocated once.
pub(crate) fn build_impl(
    history: &History,
    reads: &[ResolvedRead],
    with_rt: bool,
    transitive_ww: bool,
) -> Result<Vec<Edge>, BuildError> {
    mtc_obs::counter!("core.dependency_builds").add(1);

    // A read gives a WR edge from its writer, and a WW edge too iff the
    // reader overwrites the version it read. A read with no writer is of
    // the implicit initial state, or of a value nobody wrote; a transaction
    // "reading from itself" externally is a FUTUREREAD, which the pre-scan
    // reports: neither gives an edge.
    let mut wr_ww = 0;
    for read in reads {
        match read.writer {
            Some(writer) if writer != read.reader => wr_ww += 1 + usize::from(read.overwrites),
            Some(_) => {}
            None => {
                let value = history.txn(read.reader).external_read(read.key);
                let value = value.expect("a resolved read is its reader's external read");
                if value != INIT_VALUE || history.has_init() {
                    return Err(CheckError::UnreadableValue {
                        txn: read.reader,
                        key: read.key,
                        value,
                    });
                }
            }
        }
    }
    let edge_reads = || {
        reads.iter().filter_map(|r| {
            let writer = r.writer.filter(|&w| w != r.reader)?;
            Some((writer, r))
        })
    };
    let session_order = history.session_order_edges();
    let base = session_order.len() + wr_ww;

    // Optional per-object transitive closure of the WW edges (Algorithm 1
    // lines 12–13), and the versions RW is derived from.
    let budget = reference_edge_budget(history.len());
    let refused = |edges| CheckError::ReferenceTooLarge { edges, budget };
    let closure = if transitive_ww {
        let direct = edge_reads()
            .filter(|(_, r)| r.overwrites)
            .map(|(writer, r)| (writer, r.key, r.reader));
        ww_closure(direct, budget.saturating_sub(base)).map_err(|added| refused(base + added))?
    } else {
        Vec::new()
    };
    let versions = Versions::new(history.len(), reads, &closure);
    let total = base + closure.len() + versions.rw_count;
    if transitive_ww && total > budget {
        return Err(refused(total));
    }

    // RT edges (CHECKSSER only): all committed pairs ordered by wall clock.
    let mut edges = if with_rt {
        let mut rt = rt_edges(history);
        rt.reserve_exact(total);
        rt
    } else {
        Vec::with_capacity(total)
    };
    let sized = edges.len() + total;
    let edge = |from, to, kind| Edge { from, to, kind };
    // SO edges: adjacent committed transactions of each session, plus
    // ⊥T → first.
    edges.extend((session_order.into_iter()).map(|(a, b)| edge(a, b, EdgeKind::So)));
    for (writer, read) in edge_reads() {
        edges.push(edge(writer, read.reader, EdgeKind::Wr(read.key)));
        if read.overwrites {
            edges.push(edge(writer, read.reader, EdgeKind::Ww(read.key)));
        }
    }
    edges.extend((closure.iter()).map(|&(writer, key, to)| edge(writer, to, EdgeKind::Ww(key))));
    versions.add_rw_edges(&mut edges);
    debug_assert_eq!(edges.len(), sized, "the edge list was sized exactly");
    Ok(edges)
}

/// One transaction's part in a version: reading it, overwriting it, or both.
#[derive(Clone, Copy, Default)]
struct Meet {
    key: Key,
    txn: TxnId,
    reads: bool,
    overwrites: bool,
}

/// Every version's readers and overwriters, grouped by version (module
/// docs, "How `RW` is derived"): a bucket per writer, in writer order, each
/// sorted by `(key, txn)`; and where the versions that give `RW` edges lie.
struct Versions {
    meets: Vec<Meet>,
    /// `meets[start..end]` of each version with a reader and another
    /// overwriter, in `(writer, key)` order.
    pairing: Vec<(u32, u32)>,
    /// The number of `RW` edges [`Versions::add_rw_edges`] adds.
    rw_count: usize,
}

impl Versions {
    /// The versions the reads that give `WR` edges meet at, and those the
    /// closure's `WW` edges `(writer, key, overwriter)` meet at.
    fn new(n: usize, reads: &[ResolvedRead], closure: &[(TxnId, Key, TxnId)]) -> Self {
        let meets = || {
            let read = reads.iter().filter_map(|r| {
                let writer = r.writer.filter(|&w| w != r.reader)?;
                let meet = Meet {
                    key: r.key,
                    txn: r.reader,
                    reads: true,
                    overwrites: r.overwrites,
                };
                Some((writer, meet))
            });
            let overwrite = closure.iter().map(|&(writer, key, txn)| {
                let meet = Meet {
                    key,
                    txn,
                    reads: false,
                    overwrites: true,
                };
                (writer, meet)
            });
            read.chain(overwrite)
        };

        // Counting sort by writer: `ends[w]` counts, then points past, the
        // bucket of writer `w`; filling moves it from the bucket's start to
        // its end.
        let mut ends = vec![0u32; n];
        for (writer, _) in meets() {
            ends[writer.index()] += 1;
        }
        let mut start = 0;
        for end in &mut ends {
            (start, *end) = (start + *end, start);
        }
        let mut sorted = vec![Meet::default(); start as usize];
        for (writer, meet) in meets() {
            let at = &mut ends[writer.index()];
            sorted[*at as usize] = meet;
            *at += 1;
        }

        // A run of one key in a bucket is one version: `r` readers and `o`
        // overwriters, `b` of them both, pair into `r·o − b` edges. A
        // bucket of one meet pairs with nothing.
        let (mut pairing, mut rw_count) = (Vec::new(), 0);
        let mut start = 0;
        for end in ends {
            let bucket = &mut sorted[start..end as usize];
            if bucket.len() > 1 {
                bucket.sort_unstable_by_key(|m| (m.key, m.txn));
                let mut at = start;
                for version in bucket.chunk_by(|a, b| a.key == b.key) {
                    let (mut readers, mut overwriters, mut both) = (0, 0, 0);
                    for m in version {
                        readers += usize::from(m.reads);
                        overwriters += usize::from(m.overwrites);
                        both += usize::from(m.reads && m.overwrites);
                    }
                    if readers * overwriters > both {
                        pairing.push((at as u32, (at + version.len()) as u32));
                        rw_count += readers * overwriters - both;
                    }
                    at += version.len();
                }
            }
            start = end as usize;
        }
        Versions {
            meets: sorted,
            pairing,
            rw_count,
        }
    }

    /// Pairs every reader of each version with every other overwriter of it.
    fn add_rw_edges(&self, edges: &mut Vec<Edge>) {
        for &(start, end) in &self.pairing {
            let version = &self.meets[start as usize..end as usize];
            for reader in version.iter().filter(|m| m.reads) {
                for overwriter in version.iter().filter(|m| m.overwrites) {
                    if reader.txn != overwriter.txn {
                        edges.push(Edge {
                            from: reader.txn,
                            to: overwriter.txn,
                            kind: EdgeKind::Rw(reader.key),
                        });
                    }
                }
            }
        }
    }
}

/// Materializes every RT edge between committed transactions (`Θ(n²)`).
///
/// Transactions without recorded begin/end instants simply contribute no RT
/// edges: for them the real-time order degenerates to the session order, as
/// permitted by Definition 2 (`SO ⊆ RT`).
fn rt_edges(history: &History) -> Vec<Edge> {
    let committed: Vec<TxnId> = history.committed_ids().collect();
    let mut edges = Vec::new();
    for &a in &committed {
        let ta = history.txn(a);
        if ta.end.is_none() {
            continue;
        }
        for &b in &committed {
            // `a == b` is deliberately *not* skipped: a transaction whose
            // reported commit instant precedes its own begin (corrupt or
            // skewed clocks) makes RT non-irreflexive, so no strict
            // serialization exists. The self RT edge materializes that —
            // matching the time-chain encoding, where such an interval wraps
            // around the chain into a one-transaction cycle.
            if ta.precedes_in_real_time(history.txn(b)) {
                edges.push(Edge {
                    from: a,
                    to: b,
                    kind: EdgeKind::Rt,
                });
            }
        }
    }
    edges
}

/// The transitive closure, object by object, of the direct `WW` edges
/// `direct` (`(writer, key, overwriter)`, in edge order): the edges it adds,
/// as `(writer, key, overwriter)`. Keys come in sorted order; within a key,
/// writers in the order they first appear in `direct`, and each one's
/// overwriters in that same order. `Err` with the count reached as soon as
/// more than `room` edges would be added.
fn ww_closure(
    direct: impl Iterator<Item = (TxnId, Key, TxnId)>,
    room: usize,
) -> Result<Vec<(TxnId, Key, TxnId)>, usize> {
    let mut per_key: BTreeMap<Key, Vec<(TxnId, TxnId)>> = BTreeMap::new();
    for (writer, key, overwriter) in direct {
        per_key.entry(key).or_default().push((writer, overwriter));
    }
    let mut added = Vec::new();
    let (mut seen, mut stack, mut reach) = (Vec::new(), Vec::new(), Vec::new());
    for (key, pairs) in per_key {
        // The writers of this key, numbered locally.
        let mut nodes: Vec<TxnId> = Vec::new();
        let mut local_of = BTreeMap::new();
        let mut local = |t: TxnId| {
            *local_of.entry(t).or_insert_with(|| {
                nodes.push(t);
                nodes.len() - 1
            })
        };
        let pairs: Vec<(usize, usize)> =
            (pairs.iter()).map(|&(a, b)| (local(a), local(b))).collect();
        let graph = DiGraph::from_edges(nodes.len(), pairs.iter().copied());
        let direct: FastHashSet<(usize, usize)> = pairs.into_iter().collect();
        // One search per writer, each marking what it reaches with the
        // writer's own number: a search costs what it reaches.
        seen.clear();
        seen.resize(nodes.len(), usize::MAX);
        for u in 0..nodes.len() {
            seen[u] = u;
            stack.push(u);
            while let Some(x) = stack.pop() {
                for y in graph.successors(x) {
                    if seen[y] != u {
                        seen[y] = u;
                        reach.push(y);
                        stack.push(y);
                    }
                }
            }
            reach.sort_unstable();
            for v in reach.drain(..) {
                if direct.contains(&(u, v)) {
                    continue;
                }
                if added.len() == room {
                    return Err(room + 1);
                }
                added.push((nodes[u], key, nodes[v]));
            }
        }
    }
    Ok(added)
}

/// `BUILDDEPENDENCY` as it was before the pre-scan's reads fed it: a second
/// walk of the history that looks every external read up in the index
/// again, and `RW` by sorting the graph's `WR` and `WW` edges into two flat
/// lists and merging them. The reference [`build_impl`] is held to, edge for
/// edge (`reference::tests::the_counting_derivations_are_the_references`).
#[cfg(test)]
pub(crate) fn build_by_sort_merge(
    history: &History,
    with_rt: bool,
    transitive_ww: bool,
) -> Result<DependencyGraph, BuildError> {
    use mtc_history::Op;
    let index = WriteIndex::new(history);
    let mut g: Vec<Edge> = Vec::new();
    let edge = |from, to, kind| Edge { from, to, kind };
    if with_rt {
        g.extend(rt_edges(history));
    }
    for (a, b) in history.session_order_edges() {
        g.push(edge(a, b, EdgeKind::So));
    }
    for txn in history.committed() {
        if Some(txn.id) == history.init_txn() {
            continue;
        }
        for (i, op) in txn.ops.iter().enumerate() {
            let Op::Read { key, value } = *op else {
                continue;
            };
            if txn.ops[..i].iter().any(|earlier| earlier.key() == key) {
                continue;
            }
            let writer = match index.final_writer(key, value) {
                Some(writer) => writer,
                None => {
                    if value == INIT_VALUE && !history.has_init() {
                        continue;
                    }
                    return Err(CheckError::UnreadableValue {
                        txn: txn.id,
                        key,
                        value,
                    });
                }
            };
            if writer == txn.id {
                continue;
            }
            g.push(edge(writer, txn.id, EdgeKind::Wr(key)));
            let later = &txn.ops[i + 1..];
            if later.iter().any(|op| op.is_write() && op.key() == key) {
                g.push(edge(writer, txn.id, EdgeKind::Ww(key)));
            }
        }
    }
    if transitive_ww {
        // The closure as a reachability matrix: every writer of a key
        // against every other, in local order.
        let mut per_key: BTreeMap<Key, Vec<(TxnId, TxnId)>> = BTreeMap::new();
        for e in &g {
            if let EdgeKind::Ww(key) = e.kind {
                per_key.entry(key).or_default().push((e.from, e.to));
            }
        }
        for (key, pairs) in per_key {
            let mut nodes: Vec<TxnId> = Vec::new();
            for &(a, b) in &pairs {
                for t in [a, b] {
                    if !nodes.contains(&t) {
                        nodes.push(t);
                    }
                }
            }
            let local = |t: TxnId| nodes.iter().position(|&n| n == t).unwrap();
            let lg = DiGraph::from_edges(
                nodes.len(),
                pairs.iter().map(|&(a, b)| (local(a), local(b))),
            );
            for u in 0..nodes.len() {
                let seen = lg.reachable_from(u);
                for v in (0..nodes.len()).filter(|&v| v != u && seen[v]) {
                    if !g.contains(&edge(nodes[u], nodes[v], EdgeKind::Ww(key))) {
                        g.push(edge(nodes[u], nodes[v], EdgeKind::Ww(key)));
                    }
                }
            }
        }
    }

    let mut readers: Vec<(TxnId, Key, TxnId)> = Vec::new();
    let mut overwriters: Vec<(TxnId, Key, TxnId)> = Vec::new();
    for e in &g {
        match e.kind {
            EdgeKind::Wr(key) => readers.push((e.from, key, e.to)),
            EdgeKind::Ww(key) => overwriters.push((e.from, key, e.to)),
            _ => {}
        }
    }
    readers.sort_unstable();
    overwriters.sort_unstable();
    // Two pointers: `o` never moves back, so the merge is linear.
    let version = |e: &(TxnId, Key, TxnId)| (e.0, e.1);
    let mut o = 0;
    for run in readers.chunk_by(|a, b| version(a) == version(b)) {
        let read = version(&run[0]);
        while o < overwriters.len() && version(&overwriters[o]) < read {
            o += 1;
        }
        let start = o;
        while o < overwriters.len() && version(&overwriters[o]) == read {
            o += 1;
        }
        for &(_, key, reader) in run {
            for &(_, _, overwriter) in &overwriters[start..o] {
                if reader != overwriter {
                    g.push(edge(reader, overwriter, EdgeKind::Rw(key)));
                }
            }
        }
    }
    Ok(DependencyGraph::from_edges(history.len(), g))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::anomalies;
    use mtc_history::{HistoryBuilder, Op};

    /// Three serial updates of one key: ⊥T → T1 → T2 → T3.
    fn chain_history() -> History {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        b.committed(2, vec![Op::read(0u64, 2u64), Op::write(0u64, 3u64)]);
        b.build()
    }

    #[test]
    fn wr_and_ww_edges_follow_the_read_chain() {
        let h = chain_history();
        let g = build_dependency(&h, false).unwrap();
        let init = h.init_txn().unwrap();
        assert!(g.contains_edge(init, TxnId(1), EdgeKind::Wr(Key(0))));
        assert!(g.contains_edge(init, TxnId(1), EdgeKind::Ww(Key(0))));
        assert!(g.contains_edge(TxnId(1), TxnId(2), EdgeKind::Ww(Key(0))));
        assert!(g.contains_edge(TxnId(2), TxnId(3), EdgeKind::Ww(Key(0))));
        // No long-range WW edge without the closure…
        assert!(!g.contains_edge(init, TxnId(3), EdgeKind::Ww(Key(0))));
        // …but the reference variant adds it.
        let gr = build_dependency_reference(&h, false).unwrap();
        assert!(gr.contains_edge(init, TxnId(3), EdgeKind::Ww(Key(0))));
        assert!(gr.contains_edge(TxnId(1), TxnId(3), EdgeKind::Ww(Key(0))));
    }

    #[test]
    fn rw_edges_are_derived() {
        // T1 installs 1; T2 reads 1 (no write); T3 reads 1 and overwrites.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 1u64)]);
        b.committed(2, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        let h = b.build();
        let g = build_dependency(&h, false).unwrap();
        // T2 read the version T3 overwrote: T2 -RW-> T3.
        assert!(g.contains_edge(TxnId(2), TxnId(3), EdgeKind::Rw(Key(0))));
        // A transaction never anti-depends on itself.
        assert!(!g.contains_edge(TxnId(3), TxnId(3), EdgeKind::Rw(Key(0))));
    }

    #[test]
    fn so_edges_connect_adjacent_session_transactions() {
        let h = chain_history();
        let g = build_dependency(&h, false).unwrap();
        let init = h.init_txn().unwrap();
        for t in [TxnId(1), TxnId(2), TxnId(3)] {
            assert!(g.contains_edge(init, t, EdgeKind::So));
        }
    }

    #[test]
    fn rt_edges_degrade_gracefully_without_timestamps() {
        let h = chain_history(); // no timestamps on user transactions
        let g = build_dependency(&h, true).unwrap();
        // ⊥T carries instants (0,0) but the user transactions do not, so no
        // RT edge connects two user transactions.
        for e in g.edges() {
            if e.kind == EdgeKind::Rt {
                assert_eq!(e.from, h.init_txn().unwrap());
            }
        }
    }

    #[test]
    fn rt_edges_added_for_timed_histories() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed_timed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)], 10, 20);
        b.committed_timed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)], 30, 40);
        let h = b.build();
        let g = build_dependency(&h, true).unwrap();
        assert!(g.contains_edge(TxnId(1), TxnId(2), EdgeKind::Rt));
        assert!(!g.contains_edge(TxnId(2), TxnId(1), EdgeKind::Rt));
        // ⊥T (committed at instant 0) precedes both in real time.
        let init = h.init_txn().unwrap();
        assert!(g.contains_edge(init, TxnId(1), EdgeKind::Rt));
    }

    #[test]
    fn unreadable_value_is_reported() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 77u64)]);
        let h = b.build();
        assert!(matches!(
            build_dependency(&h, false),
            Err(CheckError::UnreadableValue { .. })
        ));
    }

    #[test]
    fn aborted_transactions_contribute_no_edges() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.aborted(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        let h = b.build();
        let g = build_dependency(&h, false).unwrap();
        assert!(g.out_edges(TxnId(2)).next().is_none());
        assert!(!g.out_edges(TxnId(1)).any(|e| e.to == TxnId(2)));
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)] // `val` is state, not a counter
    fn edge_budget_is_linear_for_mt_histories() {
        // Each mini-transaction contributes O(1) SO/WR/WW/RW edges.
        let mut b = HistoryBuilder::new().with_init(4);
        let mut val = 1u64;
        let mut last = [0u64; 4];
        for i in 0..200u64 {
            let k = i % 4;
            b.committed(
                (i % 8) as u32,
                vec![Op::read(k, last[k as usize]), Op::write(k, val)],
            );
            last[k as usize] = val;
            val += 1;
        }
        let h = b.build();
        let g = build_dependency(&h, false).unwrap();
        let n = h.committed_count();
        assert!(
            g.edge_count() <= 8 * n,
            "expected O(n) edges, got {} for n = {n}",
            g.edge_count()
        );
    }

    #[test]
    fn a_hot_key_past_the_reference_budget_is_refused() {
        // One key updated 1 000 times in a row: the closure of its chain is
        // 499 500 WW edges, past the 326 208 the 1 001 transactions get.
        const UPDATES: u64 = 1_000;
        let mut b = HistoryBuilder::new().with_init(1);
        for v in 0..UPDATES {
            b.committed(0, vec![Op::read(0u64, v), Op::write(0u64, v + 1)]);
        }
        let h = b.build();
        let budget = reference_edge_budget(h.len());
        assert_eq!(budget, 64 * 1_001 + 262_144);
        // The build stops counting one edge past the budget.
        let refused = Err(CheckError::ReferenceTooLarge {
            edges: budget + 1,
            budget,
        });
        assert_eq!(
            build_dependency_reference(&h, false).map(|g| g.edge_count()),
            refused
        );
        let check = crate::check_batch_reference(crate::BatchCheck::Ser, &h);
        assert_eq!(check.map(|c| c.dep_edges), refused.map(|_| None));
        // The optimized build has no closure and no budget: SO, WR and WW
        // per update.
        assert_eq!(build_dependency(&h, false).unwrap().edge_count(), 3_000);
        assert!(crate::check_ser(&h).unwrap().is_satisfied());
        // Half the updates stay well inside it.
        let mut b = HistoryBuilder::new().with_init(1);
        for v in 0..UPDATES / 2 {
            b.committed(0, vec![Op::read(0u64, v), Op::write(0u64, v + 1)]);
        }
        assert!(build_dependency_reference(&b.build(), false).is_ok());
    }

    #[test]
    fn divergence_pattern_produces_rw_cycle() {
        let h = anomalies::divergence();
        let g = build_dependency(&h, false).unwrap();
        // T2 and T3 each anti-depend on the other (Example 1 / Figure 3).
        assert!(g.contains_edge(TxnId(2), TxnId(3), EdgeKind::Rw(Key(0))));
        assert!(g.contains_edge(TxnId(3), TxnId(2), EdgeKind::Rw(Key(0))));
    }

    #[test]
    fn reference_and_optimized_graphs_agree_on_acyclicity() {
        for (kind, h) in anomalies::catalogue() {
            if kind.is_intra() {
                continue; // graphs of intra-anomalous histories are not meaningful
            }
            let a = build_dependency(&h, false).unwrap();
            let b = build_dependency_reference(&h, false).unwrap();
            assert_eq!(
                a.is_acyclic(|_| true),
                b.is_acyclic(|_| true),
                "Theorem 1 violated for {kind}"
            );
        }
    }
}
