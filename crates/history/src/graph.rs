//! Generic directed-graph utilities.
//!
//! The verification algorithms of `mtc-core` and the baselines in
//! `mtc-baselines` all reduce to questions about directed graphs whose nodes
//! are transactions: *is the graph acyclic?*, *extract one cycle as a
//! counterexample*, *compute strongly connected components*. Every one of
//! them collects its whole edge set first and only then asks, so the graph is
//! *frozen*: [`DiGraph::from_edges`] lays the edges out once in compressed
//! sparse rows — one offset per node, one flat array of targets — and nothing
//! grows afterwards. (A graph that must grow edge by edge is an
//! [`crate::IncrementalTopo`].)
//!
//! A graph whose rows are a function of another one's need not be laid out
//! at all: anything that can enumerate a node's successors through a cursor
//! ([`Successors`]) is searched by the same depth-first search,
//! [`find_cycle_in`], that [`DiGraph::find_cycle`] runs.
//!
//! All traversals are iterative (explicit stacks) so that histories with
//! hundreds of thousands of transactions do not overflow the call stack.

use std::collections::VecDeque;

/// A frozen directed graph over nodes `0..n` with unlabelled edges.
///
/// Parallel edges and self-loops are kept as given: they do not affect cycle
/// questions, and [`DiGraph::edge_count`] counts them.
#[derive(Clone, Debug)]
pub struct DiGraph {
    /// `offsets[u]..offsets[u + 1]` is `u`'s row of `targets`; `n + 1`
    /// entries.
    offsets: Vec<u32>,
    /// Edge targets, grouped by source, each row in input order.
    targets: Vec<u32>,
}

impl DiGraph {
    /// Builds the graph over nodes `0..n` with the given `(from, to)` edges.
    /// A node's successors keep the order its edges have in `edges`, so a
    /// traversal visits them in that order. `edges` is walked twice: once to
    /// size the rows, once to fill them.
    ///
    /// # Panics
    ///
    /// If `n` or the number of edges does not fit in a `u32`; in debug
    /// builds, if an edge names a node `>= n`.
    pub fn from_edges<I>(n: usize, edges: I) -> Self
    where
        I: IntoIterator<Item = (usize, usize)>,
        I::IntoIter: Clone,
    {
        assert!(u32::try_from(n).is_ok(), "{n} nodes do not fit in a u32");
        let edges = edges.into_iter();
        let mut offsets = vec![0u32; n + 1];
        let mut total = 0usize;
        for (u, v) in edges.clone() {
            debug_assert!(u < n && v < n, "edge {u}->{v} outside 0..{n}");
            offsets[u + 1] += 1;
            total += 1;
        }
        assert!(
            u32::try_from(total).is_ok(),
            "{total} edges do not fit in a u32"
        );
        for u in 0..n {
            offsets[u + 1] += offsets[u];
        }
        let mut next = offsets.clone();
        let mut targets = vec![0u32; total];
        for (u, v) in edges {
            targets[next[u] as usize] = v as u32;
            next[u] += 1;
        }
        DiGraph { offsets, targets }
    }

    /// Number of nodes.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of edges (counting duplicates).
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.targets.len()
    }

    /// `node`'s row of `targets`.
    #[inline]
    fn row(&self, node: usize) -> &[u32] {
        &self.targets[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    /// Successors of `node`, in the order its edges were given.
    #[inline]
    pub fn successors(&self, node: usize) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.row(node).iter().map(|&v| v as usize)
    }

    /// Iterator over all edges, grouped by source.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.node_count()).flat_map(move |u| self.successors(u).map(move |v| (u, v)))
    }

    /// True iff the graph contains no directed cycle.
    pub fn is_acyclic(&self) -> bool {
        self.topological_order().is_some()
    }

    /// Kahn's algorithm. Returns a topological order, or `None` if the graph
    /// has a cycle.
    pub fn topological_order(&self) -> Option<Vec<usize>> {
        let n = self.node_count();
        let mut indeg = vec![0usize; n];
        for &v in &self.targets {
            indeg[v as usize] += 1;
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop_front() {
            order.push(u);
            for v in self.successors(u) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    queue.push_back(v);
                }
            }
        }
        if order.len() == n {
            Some(order)
        } else {
            None
        }
    }

    /// Finds one directed cycle and returns its nodes in order
    /// (`c[0] → c[1] → … → c[k-1] → c[0]`), or `None` if the graph is acyclic
    /// ([`find_cycle_in`] over the rows).
    pub fn find_cycle(&self) -> Option<Vec<usize>> {
        find_cycle_in(self)
    }

    /// Tarjan's strongly-connected-components algorithm (iterative).
    ///
    /// Returns the list of components; every node appears in exactly one
    /// component. Components are emitted in reverse topological order of the
    /// condensation.
    pub fn sccs(&self) -> Vec<Vec<usize>> {
        let n = self.node_count();
        let mut index = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<usize> = Vec::new();
        let mut result: Vec<Vec<usize>> = Vec::new();
        let mut next_index = 0usize;

        // call stack of (node, position of its next child in `targets`)
        let mut call: Vec<(usize, usize)> = Vec::new();

        for start in 0..n {
            if index[start] != usize::MAX {
                continue;
            }
            call.push((start, self.offsets[start] as usize));
            index[start] = next_index;
            low[start] = next_index;
            next_index += 1;
            stack.push(start);
            on_stack[start] = true;

            while let Some(&mut (u, ref mut i)) = call.last_mut() {
                if *i < self.offsets[u + 1] as usize {
                    let v = self.targets[*i] as usize;
                    *i += 1;
                    if index[v] == usize::MAX {
                        index[v] = next_index;
                        low[v] = next_index;
                        next_index += 1;
                        stack.push(v);
                        on_stack[v] = true;
                        call.push((v, self.offsets[v] as usize));
                    } else if on_stack[v] {
                        low[u] = low[u].min(index[v]);
                    }
                } else {
                    call.pop();
                    if let Some(&(p, _)) = call.last() {
                        low[p] = low[p].min(low[u]);
                    }
                    if low[u] == index[u] {
                        let mut comp = Vec::new();
                        loop {
                            let w = stack.pop().expect("tarjan stack invariant");
                            on_stack[w] = false;
                            comp.push(w);
                            if w == u {
                                break;
                            }
                        }
                        result.push(comp);
                    }
                }
            }
        }
        result
    }

    /// The set of nodes reachable from `start` (including `start`).
    pub fn reachable_from(&self, start: usize) -> Vec<bool> {
        let mut seen = vec![false; self.node_count()];
        let mut stack = vec![start];
        seen[start] = true;
        while let Some(u) = stack.pop() {
            for v in self.successors(u) {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        seen
    }

    /// Shortest path (in edge count) from `from` to `to`, as the list of
    /// nodes visited, or `None` if unreachable. Used to build readable
    /// counterexample cycles.
    pub fn shortest_path(&self, from: usize, to: usize) -> Option<Vec<usize>> {
        let n = self.node_count();
        let mut parent = vec![usize::MAX; n];
        let mut seen = vec![false; n];
        let mut queue = VecDeque::new();
        queue.push_back(from);
        seen[from] = true;
        while let Some(u) = queue.pop_front() {
            if u == to {
                let mut path = vec![to];
                let mut cur = to;
                while cur != from {
                    cur = parent[cur];
                    path.push(cur);
                }
                path.reverse();
                return Some(path);
            }
            for v in self.successors(u) {
                if !seen[v] {
                    seen[v] = true;
                    parent[v] = u;
                    queue.push_back(v);
                }
            }
        }
        None
    }
}

/// A directed graph over nodes `0..node_count()` whose successors a search
/// enumerates one at a time: [`Successors::first`] opens a cursor on a
/// node's row and [`Successors::next`] advances it. The rows need not exist
/// anywhere — a graph composed from another one, or one with implicit
/// nodes, computes each successor where the cursor stands.
pub trait Successors {
    /// Where an enumeration of one node's successors stands.
    type Cursor: Copy;

    /// Number of nodes.
    fn node_count(&self) -> usize;

    /// A cursor before the first successor of `node`.
    fn first(&self, node: usize) -> Self::Cursor;

    /// The successor of `node` at `at`, moving `at` past it; `None` once the
    /// row is exhausted.
    fn next(&self, node: usize, at: &mut Self::Cursor) -> Option<usize>;
}

impl Successors for DiGraph {
    /// The position of the next successor in `targets`.
    type Cursor = u32;

    #[inline]
    fn node_count(&self) -> usize {
        DiGraph::node_count(self)
    }

    #[inline]
    fn first(&self, node: usize) -> u32 {
        self.offsets[node]
    }

    #[inline]
    fn next(&self, node: usize, at: &mut u32) -> Option<usize> {
        if *at == self.offsets[node + 1] {
            return None;
        }
        *at += 1;
        Some(self.targets[*at as usize - 1] as usize)
    }
}

/// Finds one directed cycle of `graph` and returns its nodes in order
/// (`c[0] → c[1] → … → c[k-1] → c[0]`), or `None` if it is acyclic.
///
/// The one cycle search of the workspace: roots in id order, successors
/// in cursor order, the first back edge closes the cycle. One stack serves
/// every root, and it holds exactly the gray path, so the cycle a back edge
/// `u → v` closes is the stack from `v` up to `u` — no parent array.
///
/// # Panics
///
/// If the node count does not fit in a `u32`.
pub fn find_cycle_in<G: Successors + ?Sized>(graph: &G) -> Option<Vec<usize>> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let n = graph.node_count();
    assert!(u32::try_from(n).is_ok(), "{n} nodes do not fit in a u32");
    let mut color = vec![WHITE; n];
    let mut stack: Vec<(u32, G::Cursor)> = Vec::new();
    for start in 0..n {
        if color[start] != WHITE {
            continue;
        }
        color[start] = GRAY;
        stack.push((start as u32, graph.first(start)));
        while let Some((u, at)) = stack.last_mut() {
            let u = *u as usize;
            let Some(v) = graph.next(u, at) else {
                color[u] = BLACK;
                stack.pop();
                continue;
            };
            match color[v] {
                WHITE => {
                    color[v] = GRAY;
                    stack.push((v as u32, graph.first(v)));
                }
                GRAY => {
                    // Back edge u → v closes the cycle v → … → u → v.
                    let from = stack.iter().rposition(|&(w, _)| w as usize == v);
                    let path = &stack[from.expect("a gray node is on the stack")..];
                    return Some(path.iter().map(|&(w, _)| w as usize).collect());
                }
                _ => {}
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(n: usize, edges: &[(usize, usize)]) -> DiGraph {
        DiGraph::from_edges(n, edges.iter().copied())
    }

    #[test]
    fn empty_graph_is_acyclic() {
        let g = graph(0, &[]);
        assert_eq!((g.node_count(), g.edge_count()), (0, 0));
        assert!(g.is_acyclic());
        assert_eq!(g.find_cycle(), None);
        assert_eq!(g.topological_order(), Some(vec![]));
    }

    #[test]
    fn dag_is_acyclic_and_topo_sorted() {
        let g = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        assert!(g.is_acyclic());
        let order = g.topological_order().unwrap();
        let pos = |x: usize| order.iter().position(|&v| v == x).unwrap();
        assert!(pos(0) < pos(1) && pos(0) < pos(2));
        assert!(pos(1) < pos(3) && pos(2) < pos(3));
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let g = graph(2, &[(1, 1)]);
        assert!(!g.is_acyclic());
        assert_eq!(g.find_cycle(), Some(vec![1]));
    }

    #[test]
    fn two_node_cycle_found() {
        let g = graph(3, &[(0, 1), (1, 2), (2, 1)]);
        assert!(!g.is_acyclic());
        let cycle = g.find_cycle().unwrap();
        assert_eq!(cycle.len(), 2);
        assert!(cycle.contains(&1) && cycle.contains(&2));
    }

    #[test]
    fn cycle_nodes_form_a_closed_walk() {
        let g = graph(6, &[(0, 1), (1, 2), (2, 3), (3, 4), (4, 1), (0, 5)]);
        let cycle = g.find_cycle().unwrap();
        // verify each consecutive pair is an edge, and last → first
        for i in 0..cycle.len() {
            let u = cycle[i];
            let v = cycle[(i + 1) % cycle.len()];
            assert!(g.successors(u).any(|w| w == v), "missing edge {u}->{v}");
        }
    }

    #[test]
    fn sccs_partition_the_nodes() {
        let g = graph(7, &[(0, 1), (1, 2), (2, 0), (3, 4), (4, 3), (5, 6)]);
        let mut sccs = g.sccs();
        for c in &mut sccs {
            c.sort_unstable();
        }
        sccs.sort();
        assert!(sccs.contains(&vec![0, 1, 2]));
        assert!(sccs.contains(&vec![3, 4]));
        assert!(sccs.contains(&vec![5]));
        assert!(sccs.contains(&vec![6]));
        let total: usize = sccs.iter().map(|c| c.len()).sum();
        assert_eq!(total, 7);
    }

    #[test]
    fn reachability_and_shortest_path() {
        let g = graph(5, &[(0, 1), (1, 2), (2, 3), (0, 3)]);
        let r = g.reachable_from(0);
        assert_eq!(r, vec![true, true, true, true, false]);
        assert_eq!(g.shortest_path(0, 3), Some(vec![0, 3]));
        assert_eq!(g.shortest_path(1, 3), Some(vec![1, 2, 3]));
        assert_eq!(g.shortest_path(3, 0), None);
    }

    #[test]
    fn rows_keep_input_order_parallel_edges_and_self_loops() {
        let g = graph(4, &[(2, 1), (0, 3), (2, 2), (0, 1), (2, 1), (0, 3)]);
        assert_eq!(g.node_count(), 4);
        assert_eq!(g.edge_count(), 6);
        assert_eq!(g.successors(0).collect::<Vec<_>>(), [3, 1, 3]);
        assert_eq!(g.successors(1).len(), 0);
        assert_eq!(g.successors(2).collect::<Vec<_>>(), [1, 2, 1]);
        assert_eq!(g.successors(3).len(), 0);
        let grouped = [(0, 3), (0, 1), (0, 3), (2, 1), (2, 2), (2, 1)];
        assert_eq!(g.edges().collect::<Vec<_>>(), grouped);
    }

    #[test]
    fn large_path_graph_does_not_overflow_stack() {
        // 200k-node path exercises the iterative DFS/Tarjan implementations.
        let n = 200_000;
        let path = (0..n - 1).map(|i| (i, i + 1));
        let g = DiGraph::from_edges(n, path.clone());
        assert!(g.is_acyclic());
        assert_eq!(g.sccs().len(), n);
        let g = DiGraph::from_edges(n, path.chain([(n - 1, 0)]));
        assert!(!g.is_acyclic());
        assert_eq!(g.find_cycle().unwrap().len(), n);
    }
}
