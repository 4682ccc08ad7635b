//! Generalized polygraphs (Papadimitriou 1979; Cobra/PolySI encoding).
//!
//! For a *general* history the write-read relation is fixed by the unique
//! values, but the write-write (version) order of each object is not. A
//! polygraph captures this: a set of **known** edges plus, for every
//! still-unordered pair of writers of the same object, a **constraint** with
//! two alternatives (one per direction), each alternative carrying the
//! induced write-write and read-write edges. A history is serializable iff
//! some choice of one alternative per constraint yields an acyclic graph.
//!
//! [`Polygraph::from_history`] also applies the two pruning rules Cobra and
//! PolySI rely on:
//!
//! 1. **read-modify-write inference** — if `S` reads `x` from `T` and also
//!    writes `x`, then `T` must precede `S` in the version order of `x`;
//! 2. **reachability pruning** — if committing one alternative of a
//!    constraint would immediately close a cycle with the known edges, the
//!    other alternative is forced; this is iterated to a fixpoint.

use mtc_history::{DiGraph, History, Key, INIT_VALUE};
use std::collections::HashMap;

/// One orientation of a write-write constraint: the edges (as `(from, to)`
/// node indices) implied by choosing that orientation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Alternative {
    /// The write-write edge of this orientation.
    pub ww: (usize, usize),
    /// The read-write (anti-dependency) edges induced by this orientation:
    /// one per reader of the earlier writer's version.
    pub rw: Vec<(usize, usize)>,
}

impl Alternative {
    /// All edges of the orientation, write-write first.
    pub fn edges(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        std::iter::once(self.ww).chain(self.rw.iter().copied())
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        1 + self.rw.len()
    }

    /// Never true: an orientation always carries its WW edge.
    pub fn is_empty(&self) -> bool {
        false
    }
}

/// An unresolved write-write ordering constraint between two transactions
/// writing the same object.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraint {
    /// The object concerned.
    pub key: Key,
    /// The two writers.
    pub writers: (usize, usize),
    /// Edges if `writers.0` precedes `writers.1`.
    pub first: Alternative,
    /// Edges if `writers.1` precedes `writers.0`.
    pub second: Alternative,
}

/// A generalized polygraph.
#[derive(Clone, Debug, Default)]
pub struct Polygraph {
    /// Number of nodes (all transactions of the history; aborted ones are
    /// simply isolated).
    pub node_count: usize,
    /// Known edges: session order, write-read, and everything inferred or
    /// forced by pruning. Deduplicated.
    pub known: Vec<(usize, usize)>,
    /// Known read-write (anti-dependency) edges, kept separately because the
    /// SI condition treats them specially.
    pub known_rw: Vec<(usize, usize)>,
    /// Remaining constraints.
    pub constraints: Vec<Constraint>,
    /// Statistics: constraints resolved by pruning.
    pub pruned: usize,
}

/// Per-key bookkeeping used while building the polygraph.
struct KeyInfo {
    /// Committed writers of the key.
    writers: Vec<usize>,
    /// For each writer, the transactions that read *that writer's* version.
    readers_of: HashMap<usize, Vec<usize>>,
}

impl Polygraph {
    /// Builds the polygraph of a history, applying RMW inference and then
    /// reachability pruning to a fixpoint, as Cobra and PolySI do.
    pub fn from_history(history: &History) -> Self {
        let mut pg = Polygraph::unpruned(history);
        pg.prune_by_reachability();
        pg
    }

    /// The polygraph of a history with RMW inference only.
    fn unpruned(history: &History) -> Self {
        let n = history.len();
        let write_index = history.write_index();
        let mut known: Vec<(usize, usize)> = Vec::new();
        let mut known_rw: Vec<(usize, usize)> = Vec::new();

        // Session order.
        for (a, b) in history.session_order_edges() {
            known.push((a.index(), b.index()));
        }

        // Write-read edges and per-key reader maps.
        let mut per_key: HashMap<Key, KeyInfo> = HashMap::new();
        for key in history.keys() {
            let writers: Vec<usize> = history.writers_of(key).iter().map(|t| t.index()).collect();
            per_key.insert(
                key,
                KeyInfo {
                    writers,
                    readers_of: HashMap::new(),
                },
            );
        }

        // Forced WW edges from the RMW inference (writer of read version →
        // reader that also writes), plus WR edges.
        let mut forced_ww: HashMap<Key, Vec<(usize, usize)>> = HashMap::new();
        for txn in history.committed() {
            if Some(txn.id) == history.init_txn() {
                continue;
            }
            for key in txn.key_set() {
                let Some(value) = txn.external_read(key) else {
                    continue;
                };
                let writer = match write_index.get(&(key, value)) {
                    Some(ws) => ws[0],
                    None => {
                        if value == INIT_VALUE && !history.has_init() {
                            continue;
                        }
                        // Unreadable value: treat as no edge; the prescan of
                        // the calling checker reports the anomaly.
                        continue;
                    }
                };
                if writer == txn.id {
                    continue;
                }
                known.push((writer.index(), txn.id.index()));
                if let Some(info) = per_key.get_mut(&key) {
                    info.readers_of
                        .entry(writer.index())
                        .or_default()
                        .push(txn.id.index());
                }
                if txn.writes(key) {
                    forced_ww
                        .entry(key)
                        .or_default()
                        .push((writer.index(), txn.id.index()));
                }
            }
        }

        // Materialize forced WW edges (and their induced RW edges) as known.
        for (key, pairs) in &forced_ww {
            let info = &per_key[key];
            for &(a, b) in pairs {
                known.push((a, b));
                for &r in info.readers_of.get(&a).map(Vec::as_slice).unwrap_or(&[]) {
                    if r != b {
                        known_rw.push((r, b));
                    }
                }
            }
        }

        // Constraints for writer pairs not already ordered.
        let mut ordered: HashMap<Key, Vec<(usize, usize)>> = forced_ww;
        let mut constraints = Vec::new();
        for (key, info) in &per_key {
            let forced = ordered.remove(key).unwrap_or_default();
            let is_forced =
                |a: usize, b: usize| forced.contains(&(a, b)) || forced.contains(&(b, a));
            for i in 0..info.writers.len() {
                for j in i + 1..info.writers.len() {
                    let (a, b) = (info.writers[i], info.writers[j]);
                    if is_forced(a, b) {
                        continue;
                    }
                    constraints.push(Constraint {
                        key: *key,
                        writers: (a, b),
                        first: orientation(a, b, info),
                        second: orientation(b, a, info),
                    });
                }
            }
        }

        let mut pg = Polygraph {
            node_count: n,
            known,
            known_rw,
            constraints,
            pruned: 0,
        };
        pg.dedup();
        pg
    }

    fn dedup(&mut self) {
        self.known.sort_unstable();
        self.known.dedup();
        self.known_rw.sort_unstable();
        self.known_rw.dedup();
    }

    /// The known-edge graph (dependencies and anti-dependencies together).
    pub fn known_graph(&self) -> DiGraph {
        let edges = self.known.iter().chain(self.known_rw.iter());
        DiGraph::from_edges(self.node_count, edges.copied())
    }

    /// Cobra-style pruning: if one orientation of a constraint is
    /// contradicted by the known edges (its reverse is already reachable),
    /// force the other orientation. Iterates to a fixpoint.
    ///
    /// Reachability is computed once per source node per iteration and
    /// cached, so each iteration costs `O(#writers · (V + E))` rather than
    /// `O(#constraints · (V + E))`.
    pub fn prune_by_reachability(&mut self) {
        use std::collections::HashMap as Cache;
        loop {
            let graph = self.known_graph();
            let mut reach_cache: Cache<usize, Vec<bool>> = Cache::new();
            let mut reaches = |from: usize, to: usize, graph: &DiGraph| -> bool {
                reach_cache
                    .entry(from)
                    .or_insert_with(|| graph.reachable_from(from))[to]
            };
            let mut forced_edges: Vec<(usize, usize)> = Vec::new();
            let mut remaining = Vec::with_capacity(self.constraints.len());
            let mut changed = false;

            let mut forced_rw: Vec<(usize, usize)> = Vec::new();
            for c in self.constraints.drain(..) {
                let (a, b) = c.writers;
                // If b already reaches a, then a→b would close a cycle: force second.
                let b_reaches_a = reaches(b, a, &graph);
                let a_reaches_b = reaches(a, b, &graph);
                match (a_reaches_b, b_reaches_a) {
                    (true, false) => {
                        forced_edges.push(c.first.ww);
                        forced_rw.extend_from_slice(&c.first.rw);
                        changed = true;
                        self.pruned += 1;
                    }
                    (false, true) => {
                        forced_edges.push(c.second.ww);
                        forced_rw.extend_from_slice(&c.second.rw);
                        changed = true;
                        self.pruned += 1;
                    }
                    _ => remaining.push(c),
                }
            }
            self.constraints = remaining;
            self.known.extend(forced_edges);
            self.known_rw.extend(forced_rw);
            self.dedup();
            if !changed {
                break;
            }
        }
    }

    /// Total number of candidate edges across unresolved constraints.
    pub fn constraint_edge_count(&self) -> usize {
        self.constraints
            .iter()
            .map(|c| c.first.len() + c.second.len())
            .sum()
    }
}

/// The edges implied by "`a` precedes `b` in the version order of the key":
/// the WW edge `a → b` plus an RW edge `r → b` for every reader `r` of `a`'s
/// version.
fn orientation(a: usize, b: usize, info: &KeyInfo) -> Alternative {
    let mut rw = Vec::new();
    for &r in info.readers_of.get(&a).map(Vec::as_slice).unwrap_or(&[]) {
        if r != b {
            rw.push((r, b));
        }
    }
    Alternative { ww: (a, b), rw }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_history::anomalies;
    use mtc_history::{HistoryBuilder, Op};

    #[test]
    fn mt_histories_have_no_unresolved_constraints() {
        // Serial RMW chain: every writer pair is ordered by RMW inference +
        // reachability pruning.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        b.committed(0, vec![Op::read(0u64, 2u64), Op::write(0u64, 3u64)]);
        let h = b.build();
        let pg = Polygraph::from_history(&h);
        assert!(pg.constraints.is_empty(), "{:?}", pg.constraints);
        assert!(pg.pruned > 0 || pg.constraints.is_empty());
        assert!(pg.known_graph().is_acyclic());
    }

    #[test]
    fn blind_writes_generate_constraints() {
        // Two blind writers of the same key with no reads: their order is
        // genuinely unknown.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::write(0u64, 2u64)]);
        let h = b.build();
        let pg = Polygraph::from_history(&h);
        // ⊥T vs each writer and the two writers against each other: at least
        // the writer-writer pair must remain (neither direction is forced).
        assert!(
            pg.constraints
                .iter()
                .any(|c| c.writers == (1, 2) || c.writers == (2, 1)),
            "expected an unresolved writer pair, got {:?}",
            pg.constraints
        );
    }

    #[test]
    fn divergence_gives_symmetric_constraint() {
        let h = anomalies::divergence();
        let pg = Polygraph::from_history(&h);
        // T2 and T3 both read from T1 and overwrite: the constraint between
        // them remains, and each orientation carries an RW edge.
        let c = pg
            .constraints
            .iter()
            .find(|c| {
                let (a, b) = c.writers;
                (a, b) == (2, 3) || (a, b) == (3, 2)
            })
            .expect("diverging writer pair must be constrained");
        assert!(!c.first.is_empty());
        assert!(!c.second.is_empty());
        // The divergence itself already shows up as two crossing
        // anti-dependencies among the known edges, so the known graph alone
        // is cyclic (this is what makes the history non-serializable no
        // matter how the constraint is resolved).
        assert!(!pg.known_graph().is_acyclic());
    }

    #[test]
    #[allow(clippy::explicit_counter_loop)] // `v` is state, not a counter
    fn pruning_reduces_constraints() {
        let mut b = HistoryBuilder::new().with_init(2);
        let mut last = [0u64, 0u64];
        let mut v = 1u64;
        for i in 0..40u64 {
            let k = i % 2;
            b.committed(
                (i % 4) as u32,
                vec![Op::read(k, last[k as usize]), Op::write(k, v)],
            );
            last[k as usize] = v;
            v += 1;
        }
        let h = b.build();
        let unpruned = Polygraph::unpruned(&h);
        let pruned = Polygraph::from_history(&h);
        assert!(pruned.constraints.len() <= unpruned.constraints.len());
        assert!(pruned.constraint_edge_count() <= unpruned.constraint_edge_count());
    }

    #[test]
    fn known_edges_are_deduplicated() {
        let h = anomalies::lost_update();
        let pg = Polygraph::from_history(&h);
        let mut sorted = pg.known.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), pg.known.len());
    }
}
