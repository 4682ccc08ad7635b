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
//! pre-scan already resolved ([`crate::check_batch`]); the public entry
//! points below run that scan themselves.
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
//! there is none yet.
//!
//! # Edge order
//!
//! The order of [`DependencyGraph::edges`] — which decides the order of every
//! adjacency row, hence which of several cycles a checker reports — is a
//! function of the history alone: `RT` (if asked for), `SO`, then `WR` / `WW`
//! transaction by transaction with the keys in first-touch order, then the
//! closure's `WW` edges key by key (reference variant), then `RW` sorted by
//! `(writer, key, reader, overwriter)`. Checking one history twice reports
//! the same counterexample twice, in this process or another.

use crate::verdict::CheckError;
use mtc_history::{
    scan_reads, DependencyGraph, EdgeKind, History, Key, ResolvedRead, TxnId, WriteIndex,
    INIT_VALUE,
};
use std::collections::{BTreeMap, HashMap};

/// Errors preventing the construction of a dependency graph.
pub type BuildError = CheckError;

/// Builds the dependency graph of a mini-transaction history *without*
/// computing the transitive closure of the `WW` edges (the optimized variant
/// of Section IV-C).
///
/// When `with_rt` is true, all `RT` edges between committed transactions are
/// materialized (`Θ(n²)` of them); this is only needed by the naive
/// `CHECKSSER`.
pub fn build_dependency(history: &History, with_rt: bool) -> Result<DependencyGraph, BuildError> {
    build_impl(history, &resolve(history), with_rt, false)
}

/// Builds the dependency graph exactly as in Algorithm 1, including the
/// per-object transitive closure of the `WW` edges.
pub fn build_dependency_reference(
    history: &History,
    with_rt: bool,
) -> Result<DependencyGraph, BuildError> {
    build_impl(history, &resolve(history), with_rt, true)
}

/// The external reads of `history`, resolved against an index of its own.
fn resolve(history: &History) -> Vec<ResolvedRead> {
    scan_reads(history, &WriteIndex::new(history)).reads
}

/// `BUILDDEPENDENCY` over `history`, whose external reads the pre-scan
/// resolved into `reads` ([`mtc_history::ReadScan::reads`]).
pub(crate) fn build_impl(
    history: &History,
    reads: &[ResolvedRead],
    with_rt: bool,
    transitive_ww: bool,
) -> Result<DependencyGraph, BuildError> {
    mtc_obs::counter!("core.dependency_builds").add(1);
    let n = history.len();
    let mut g = DependencyGraph::new(n);

    // RT edges (CHECKSSER only): all committed pairs ordered by wall clock.
    if with_rt {
        add_rt_edges(history, &mut g);
    }

    // SO edges: adjacent committed transactions of each session, plus
    // ⊥T → first.
    for (a, b) in history.session_order_edges() {
        g.add_edge(a, b, EdgeKind::So);
    }

    // WR and (direct) WW edges, one resolved read at a time: the read's
    // writer was found by the pre-scan, and the reader writes the key too
    // iff it overwrites the version it read.
    for read in reads {
        let Some(writer) = read.writer else {
            let value = history.txn(read.reader).external_read(read.key);
            let value = value.expect("a resolved read is its reader's external read");
            if value == INIT_VALUE && !history.has_init() {
                // Read of the implicit initial state: no dependency.
                continue;
            }
            return Err(CheckError::UnreadableValue {
                txn: read.reader,
                key: read.key,
                value,
            });
        };
        if writer == read.reader {
            // A transaction "reading from itself" externally is a
            // FUTUREREAD; the pre-scan reports it, we simply skip here.
            continue;
        }
        g.add_edge(writer, read.reader, EdgeKind::Wr(read.key));
        if read.overwrites {
            g.add_edge(writer, read.reader, EdgeKind::Ww(read.key));
        }
    }

    // Optional per-object transitive closure of the WW edges (Algorithm 1
    // lines 12–13).
    let closure = if transitive_ww {
        add_ww_closure(&mut g)
    } else {
        Vec::new()
    };

    add_rw_edges(&mut g, reads, &closure);
    Ok(g)
}

/// One transaction's part in a version: reading it, overwriting it, or both.
#[derive(Clone, Copy, Default)]
struct Meet {
    key: Key,
    txn: TxnId,
    reads: bool,
    overwrites: bool,
}

/// Derives the `RW` edges from the reads that gave `WR` edges and from the
/// closure's `WW` edges `(writer, key, overwriter)` (module docs, "How `RW`
/// is derived").
fn add_rw_edges(g: &mut DependencyGraph, reads: &[ResolvedRead], closure: &[(TxnId, Key, TxnId)]) {
    // The reads the loop above turned into edges, and the closure's WW
    // edges, each with the writer whose version they meet at.
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
    let mut ends = vec![0u32; g.node_count()];
    for (writer, _) in meets() {
        ends[writer.index()] += 1;
    }
    let mut start = 0;
    for end in &mut ends {
        (start, *end) = (start + *end, start);
    }
    let mut buckets = vec![Meet::default(); start as usize];
    for (writer, meet) in meets() {
        let at = &mut ends[writer.index()];
        buckets[*at as usize] = meet;
        *at += 1;
    }

    let mut start = 0;
    for end in ends {
        let bucket = &mut buckets[start..end as usize];
        start = end as usize;
        if bucket.len() > 1 {
            bucket.sort_unstable_by_key(|m| (m.key, m.txn));
        }
        for version in bucket.chunk_by(|a, b| a.key == b.key) {
            if !version.iter().any(|m| m.overwrites) {
                continue;
            }
            for reader in version.iter().filter(|m| m.reads) {
                for overwriter in version.iter().filter(|m| m.overwrites) {
                    if reader.txn != overwriter.txn {
                        g.add_edge(reader.txn, overwriter.txn, EdgeKind::Rw(reader.key));
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
fn add_rt_edges(history: &History, g: &mut DependencyGraph) {
    let committed: Vec<TxnId> = history.committed_ids().collect();
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
                g.add_edge(a, b, EdgeKind::Rt);
            }
        }
    }
}

/// Adds, for every object, the transitive closure of its direct WW edges,
/// and returns the edges it added as `(writer, key, overwriter)`.
fn add_ww_closure(g: &mut DependencyGraph) -> Vec<(TxnId, Key, TxnId)> {
    // Group direct WW edges by key; keys are visited in sorted order.
    let mut per_key: BTreeMap<Key, Vec<(TxnId, TxnId)>> = BTreeMap::new();
    for e in g.edges() {
        if let EdgeKind::Ww(k) = e.kind {
            per_key.entry(k).or_default().push((e.from, e.to));
        }
    }
    let mut added = Vec::new();
    for (key, edges) in per_key {
        // Build a local graph over the writers of this key.
        let mut nodes: Vec<TxnId> = Vec::new();
        let mut index_of: HashMap<TxnId, usize> = HashMap::new();
        let local_index = |t: TxnId, nodes: &mut Vec<TxnId>, map: &mut HashMap<TxnId, usize>| {
            *map.entry(t).or_insert_with(|| {
                nodes.push(t);
                nodes.len() - 1
            })
        };
        let mut local = Vec::new();
        for &(a, b) in &edges {
            let ia = local_index(a, &mut nodes, &mut index_of);
            let ib = local_index(b, &mut nodes, &mut index_of);
            local.push((ia, ib));
        }
        let lg = mtc_history::DiGraph::from_edges(nodes.len(), local.iter().copied());
        let all: Vec<usize> = (0..nodes.len()).collect();
        for (u, reach) in lg.closure_within(&all) {
            for v in reach {
                let (from, to) = (nodes[u], nodes[v]);
                if !g.contains_edge(from, to, EdgeKind::Ww(key)) {
                    g.add_edge(from, to, EdgeKind::Ww(key));
                    added.push((from, key, to));
                }
            }
        }
    }
    added
}

/// `BUILDDEPENDENCY` as it was before the pre-scan's reads fed it: a second
/// walk of the history that looks every external read up in the index
/// again, and `RW` by sorting the graph's `WR` and `WW` edges into two flat
/// lists and merging them. The reference [`build_impl`] is held to, edge for
/// edge (`check::tests::the_counting_derivations_are_the_references`).
#[cfg(test)]
pub(crate) fn build_by_sort_merge(
    history: &History,
    with_rt: bool,
    transitive_ww: bool,
) -> Result<DependencyGraph, BuildError> {
    use mtc_history::Op;
    let index = WriteIndex::new(history);
    let mut g = DependencyGraph::new(history.len());
    if with_rt {
        add_rt_edges(history, &mut g);
    }
    for (a, b) in history.session_order_edges() {
        g.add_edge(a, b, EdgeKind::So);
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
            g.add_edge(writer, txn.id, EdgeKind::Wr(key));
            let later = &txn.ops[i + 1..];
            if later.iter().any(|op| op.is_write() && op.key() == key) {
                g.add_edge(writer, txn.id, EdgeKind::Ww(key));
            }
        }
    }
    if transitive_ww {
        add_ww_closure(&mut g);
    }

    let mut readers: Vec<(TxnId, Key, TxnId)> = Vec::new();
    let mut overwriters: Vec<(TxnId, Key, TxnId)> = Vec::new();
    for e in g.edges() {
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
                    g.add_edge(reader, overwriter, EdgeKind::Rw(key));
                }
            }
        }
    }
    Ok(g)
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
        assert!(!g.contains_any_edge(TxnId(1), TxnId(2)));
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
