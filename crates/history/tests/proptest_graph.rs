//! Property-based tests of the graph utilities and of the history builder —
//! the data structures every checker in the workspace relies on.

use mtc_history::{DiGraph, EdgeTag, HistoryBuilder, IncrementalTopo, Op, TxnStatus};
use proptest::prelude::*;
use std::collections::HashSet;

fn arb_edges(nodes: usize, max_edges: usize) -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec((0..nodes, 0..nodes), 0..max_edges)
}

fn graph(nodes: usize, edges: &[(usize, usize)]) -> DiGraph {
    DiGraph::from_edges(nodes, edges.iter().copied())
}

/// Feeds `edges` one at a time, collecting each edge's outcome. A rejected
/// edge is skipped and insertion continues — the reference semantics the
/// batched driver below must reproduce.
fn sequential_outcomes(
    topo: &mut IncrementalTopo,
    edges: &[(usize, usize)],
) -> Vec<Result<(), Vec<usize>>> {
    edges
        .iter()
        .map(|&(a, b)| topo.try_add_edge(a, b, EdgeTag::NONE))
        .collect()
}

/// Feeds `edges` in chunks of the given sizes (cycled), each edge through
/// `try_add_edge` like the SSER hook feeds one transaction's edges, a
/// rejected one skipped like the streaming checkers skip it. Before each
/// chunk the structure goes through a snapshot round trip, which drops the
/// reorder's kept buffers and visit marks.
fn batched_outcomes(
    topo: &mut IncrementalTopo,
    edges: &[(usize, usize)],
    chunk_sizes: &[usize],
) -> Vec<Result<(), Vec<usize>>> {
    let mut outcomes: Vec<Result<(), Vec<usize>>> = Vec::with_capacity(edges.len());
    let mut remaining = edges;
    for &size in chunk_sizes.iter().cycle() {
        if remaining.is_empty() {
            break;
        }
        let (chunk, rest) = remaining.split_at(size.clamp(1, remaining.len()));
        remaining = rest;
        *topo = serde_json::from_str(&serde_json::to_string(&*topo).unwrap()).unwrap();
        outcomes.extend(
            chunk
                .iter()
                .map(|&(a, b)| topo.try_add_edge(a, b, EdgeTag::NONE)),
        );
    }
    outcomes
}

/// A pair naming a node outside `0..n` is rejected where `add_edge`'s
/// `debug_assert!` used to reject it: in debug builds, at construction.
#[test]
#[cfg(debug_assertions)]
fn from_edges_rejects_a_node_outside_the_graph() {
    for bad in [(0, 5), (5, 0), (7, 7)] {
        let built = std::panic::catch_unwind(|| graph(5, &[(0, 1), bad, (1, 2)]));
        assert!(built.is_err(), "{bad:?} was accepted into a 5-node graph");
    }
    // No nodes, no edges: fine; no nodes, one edge: not.
    assert_eq!(graph(0, &[]).node_count(), 0);
    assert!(std::panic::catch_unwind(|| graph(0, &[(0, 0)])).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A topological order exists iff no cycle is found, and when it exists it
    /// is consistent with every edge.
    #[test]
    fn topological_order_and_cycle_detection_agree(edges in arb_edges(24, 80)) {
        let g = graph(24, &edges);
        match (g.topological_order(), g.find_cycle()) {
            (Some(order), None) => {
                let pos: Vec<usize> = {
                    let mut p = vec![0; 24];
                    for (i, &v) in order.iter().enumerate() {
                        p[v] = i;
                    }
                    p
                };
                for &(a, b) in &edges {
                    prop_assert!(pos[a] < pos[b], "edge {a}->{b} violates the order");
                }
            }
            (None, Some(cycle)) => {
                // The reported cycle must be a closed walk over real edges.
                prop_assert!(!cycle.is_empty());
                for i in 0..cycle.len() {
                    let u = cycle[i];
                    let v = cycle[(i + 1) % cycle.len()];
                    prop_assert!(g.successors(u).any(|w| w == v), "missing edge {u}->{v}");
                }
            }
            (topo, cycle) => {
                prop_assert!(false, "inconsistent answers: topo={topo:?} cycle={cycle:?}");
            }
        }
    }

    /// `from_edges` keeps exactly what it was given: each node's successors
    /// are the targets of its pairs in input order — parallel edges and
    /// self-loops included, and counted — whatever the number of isolated
    /// nodes after the last one named (`extra`), down to no nodes at all.
    #[test]
    fn from_edges_keeps_every_pair_in_input_order(edges in arb_edges(10, 40), extra in 0usize..4) {
        let n = edges.iter().map(|&(a, b)| a.max(b) + 1).max().unwrap_or(0) + extra;
        let g = graph(n, &edges);
        prop_assert_eq!(g.node_count(), n);
        prop_assert_eq!(g.edge_count(), edges.len());
        for u in 0..n {
            let given: Vec<usize> = edges.iter().filter(|e| e.0 == u).map(|e| e.1).collect();
            prop_assert_eq!(g.successors(u).collect::<Vec<_>>(), given, "row {}", u);
        }
        let mut by_source = edges.clone();
        by_source.sort_by_key(|e| e.0); // stable: input order within a row
        prop_assert_eq!(g.edges().collect::<Vec<_>>(), by_source);
    }

    /// Insertion in batches, each resumed from a snapshot, is
    /// indistinguishable from uninterrupted edge-at-a-time insertion: same
    /// per-edge accept/reject outcomes, the exact same canonical cycle
    /// certificates, and the same maintained order, consistent with every
    /// accepted edge — under arbitrary (shuffled) batch boundaries.
    #[test]
    fn batched_insertion_matches_sequential(
        edges in arb_edges(20, 64),
        chunk_sizes in prop::collection::vec(1usize..12, 1..6),
    ) {
        let mut seq = IncrementalTopo::with_nodes(20);
        let mut bat = IncrementalTopo::with_nodes(20);
        let seq_out = sequential_outcomes(&mut seq, &edges);
        let bat_out = batched_outcomes(&mut bat, &edges, &chunk_sizes);
        prop_assert_eq!(seq_out.len(), bat_out.len());
        for (i, (s, b)) in seq_out.iter().zip(bat_out.iter()).enumerate() {
            prop_assert_eq!(s, b, "outcome mismatch at edge {} of {:?}", i, edges);
        }
        prop_assert_eq!(seq.edge_count(), bat.edge_count());
        // The kept buffers hold nothing across calls: both settle on one
        // order, valid for the accepted edge set.
        prop_assert_eq!(seq.order(), bat.order());
        for (i, (&(a, b), out)) in edges.iter().zip(seq_out.iter()).enumerate() {
            if out.is_ok() && a != b {
                prop_assert!(
                    seq.rank_of(a) < seq.rank_of(b),
                    "accepted edge {} ({}->{}) contradicts the maintained order", i, a, b
                );
            }
        }
    }

    /// Strongly connected components partition the node set, and two nodes on
    /// a common cycle end up in the same component.
    #[test]
    fn sccs_partition_nodes(edges in arb_edges(16, 48)) {
        let g = graph(16, &edges);
        let sccs = g.sccs();
        let mut seen = HashSet::new();
        for comp in &sccs {
            for &v in comp {
                prop_assert!(seen.insert(v), "node {v} appears in two components");
            }
        }
        prop_assert_eq!(seen.len(), 16);
        // Mutual reachability implies same component.
        #[allow(clippy::needless_range_loop)] // `b` indexes two parallel structures
        for a in 0..16usize {
            let ra = g.reachable_from(a);
            for b in 0..16usize {
                if a != b && ra[b] && g.reachable_from(b)[a] {
                    let ca = sccs.iter().position(|c| c.contains(&a));
                    let cb = sccs.iter().position(|c| c.contains(&b));
                    prop_assert_eq!(ca, cb, "{} and {} are mutually reachable", a, b);
                }
            }
        }
    }

    /// Reachability is consistent with shortest paths.
    #[test]
    fn shortest_paths_exist_iff_reachable(edges in arb_edges(12, 36), from in 0usize..12, to in 0usize..12) {
        let g = graph(12, &edges);
        let reachable = g.reachable_from(from)[to];
        let path = g.shortest_path(from, to);
        prop_assert_eq!(reachable, path.is_some());
        if let Some(p) = path {
            prop_assert_eq!(*p.first().unwrap(), from);
            prop_assert_eq!(*p.last().unwrap(), to);
            for w in p.windows(2) {
                prop_assert!(w[0] == w[1] || g.successors(w[0]).any(|v| v == w[1]));
            }
        }
    }

    /// The history builder preserves session structure, ids and op counts.
    #[test]
    fn history_builder_preserves_structure(
        txns in prop::collection::vec((0u32..4, 1usize..5, any::<bool>()), 1..30),
        keys in 1u64..6,
    ) {
        let mut builder = HistoryBuilder::new().with_init(keys);
        let mut expected_per_session = [0usize; 4];
        let mut value = 1u64;
        for &(session, ops, committed) in &txns {
            let ops: Vec<Op> = (0..ops)
                .map(|i| {
                    let key = (i as u64) % keys;
                    if i % 2 == 0 {
                        Op::read(key, 0u64)
                    } else {
                        value += 1;
                        Op::write(key, value)
                    }
                })
                .collect();
            if committed {
                builder.committed(session, ops);
            } else {
                builder.aborted(session, ops);
            }
            expected_per_session[session as usize] += 1;
        }
        let history = builder.build();
        prop_assert_eq!(history.len(), txns.len() + 1); // + ⊥T
        prop_assert_eq!(
            history.aborted_count(),
            txns.iter().filter(|t| !t.2).count()
        );
        for (s, &count) in expected_per_session.iter().enumerate() {
            if s < history.session_count() {
                prop_assert_eq!(history.session(mtc_history::SessionId(s as u32)).len(), count);
            } else {
                prop_assert_eq!(count, 0);
            }
        }
        // Every non-init transaction is reachable via its id and keeps its status.
        for t in history.txns() {
            if Some(t.id) != history.init_txn() {
                prop_assert!(matches!(t.status, TxnStatus::Committed | TxnStatus::Aborted));
            }
        }
    }
}
