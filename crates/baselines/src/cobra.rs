//! A Cobra-style serializability checker.
//!
//! Cobra encodes the history as a polygraph, prunes constraints with
//! domain-specific rules, and hands the residual problem to a
//! SAT-modulo-acyclicity solver (MonoSAT). This module reproduces that
//! pipeline with an in-tree backtracking search: constraints are assigned one
//! orientation at a time, an assignment is rejected as soon as it closes a
//! cycle, and the search backtracks. The history is serializable iff some
//! complete assignment keeps the graph acyclic.
//!
//! The solver is exponential in the number of *unresolved* constraints, which
//! is exactly the behaviour the paper's Figures 7 and 10 compare MTC against:
//! on mini-transaction histories the RMW inference resolves almost
//! everything, whereas on skewed or write-heavy general workloads the search
//! and the polygraph construction dominate.

use crate::polygraph::Polygraph;
use mtc_history::{find_intra_anomalies, History};
use serde::{Deserialize, Serialize};

/// Outcome of a baseline check.
#[derive(Clone, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct BaselineOutcome {
    /// True iff the history satisfies the isolation level.
    pub satisfied: bool,
    /// True iff the solver gave up before reaching a conclusion (budget
    /// exhausted). When set, `satisfied` is the best-effort answer `false`.
    pub timed_out: bool,
    /// Solver statistics.
    pub stats: SolverStats,
}

/// Statistics of one solver run.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Transactions in the history.
    pub txns: usize,
    /// Known edges after construction and pruning.
    pub known_edges: usize,
    /// Constraints before pruning.
    pub constraints_before_pruning: usize,
    /// Constraints handed to the search.
    pub constraints: usize,
    /// Constraints resolved by pruning.
    pub pruned: usize,
    /// Search tree nodes visited.
    pub decisions: usize,
}

/// Maximum number of search-tree nodes before the solver gives up.
pub const DECISION_BUDGET: usize = 200_000;

/// Checks serializability of a (general or mini-transaction) history the way
/// Cobra does: polygraph + pruning + acyclicity-aware constraint search.
pub fn cobra_check_ser(history: &History) -> BaselineOutcome {
    // Intra-transactional anomalies refute serializability outright.
    if !find_intra_anomalies(history).is_empty() {
        return BaselineOutcome {
            satisfied: false,
            timed_out: false,
            stats: SolverStats {
                txns: history.len(),
                ..SolverStats::default()
            },
        };
    }

    let pg = Polygraph::from_history(history);
    let mut stats = SolverStats {
        txns: history.len(),
        known_edges: pg.known.len() + pg.known_rw.len(),
        constraints_before_pruning: pg.constraints.len() + pg.pruned,
        constraints: pg.constraints.len(),
        pruned: pg.pruned,
        decisions: 0,
    };

    // The known edges must already be acyclic.
    if !pg.known_graph().is_acyclic() {
        return BaselineOutcome {
            satisfied: false,
            timed_out: false,
            stats,
        };
    }
    if pg.constraints.is_empty() {
        return BaselineOutcome {
            satisfied: true,
            timed_out: false,
            stats,
        };
    }

    let mut adj = vec![Vec::new(); pg.node_count];
    for &(a, b) in pg.known.iter().chain(pg.known_rw.iter()) {
        adj[a].push(b);
    }
    let mut solver = Search {
        pg: &pg,
        adj,
        decisions: 0,
        budget: DECISION_BUDGET,
    };
    let result = solver.solve(0);
    stats.decisions = solver.decisions;
    BaselineOutcome {
        satisfied: matches!(result, SearchResult::Satisfiable),
        timed_out: matches!(result, SearchResult::BudgetExhausted),
        stats,
    }
}

enum SearchResult {
    Satisfiable,
    Unsatisfiable,
    BudgetExhausted,
}

struct Search<'a> {
    pg: &'a Polygraph,
    /// Adjacency of known edges plus the orientations chosen so far. Edges
    /// of an orientation are appended on entry to a branch and popped on
    /// backtracking (LIFO discipline keeps per-source vectors consistent).
    adj: Vec<Vec<usize>>,
    decisions: usize,
    budget: usize,
}

impl Search<'_> {
    /// True iff adding the orientation's edges keeps the graph acyclic.
    ///
    /// Every edge of an orientation points *into* the later writer `b`
    /// (the WW edge `a → b` and the RW edges `r → b`), so a new cycle must
    /// leave `b` through existing edges and come back through one of the new
    /// sources: one DFS from `b` suffices.
    fn orientation_admissible(&self, alt: &crate::polygraph::Alternative) -> bool {
        let target_sources: Vec<usize> = std::iter::once(alt.ww.0)
            .chain(alt.rw.iter().map(|&(r, _)| r))
            .collect();
        let b = alt.ww.1;
        // DFS from b over the current adjacency.
        let mut seen = vec![false; self.adj.len()];
        let mut stack = vec![b];
        seen[b] = true;
        while let Some(u) = stack.pop() {
            if target_sources.contains(&u) {
                return false;
            }
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    stack.push(v);
                }
            }
        }
        true
    }

    fn push_orientation(&mut self, alt: &crate::polygraph::Alternative) {
        for (from, to) in alt.edges() {
            self.adj[from].push(to);
        }
    }

    fn pop_orientation(&mut self, alt: &crate::polygraph::Alternative) {
        for (from, _) in alt.edges() {
            self.adj[from].pop();
        }
    }

    fn solve(&mut self, index: usize) -> SearchResult {
        self.decisions += 1;
        if self.decisions > self.budget {
            return SearchResult::BudgetExhausted;
        }
        if index == self.pg.constraints.len() {
            return SearchResult::Satisfiable;
        }
        let c = &self.pg.constraints[index];
        for alt in [&c.first, &c.second] {
            if self.orientation_admissible(alt) {
                self.push_orientation(alt);
                match self.solve(index + 1) {
                    SearchResult::Satisfiable => return SearchResult::Satisfiable,
                    SearchResult::BudgetExhausted => return SearchResult::BudgetExhausted,
                    SearchResult::Unsatisfiable => {
                        self.pop_orientation(alt);
                    }
                }
            }
        }
        SearchResult::Unsatisfiable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_core::check_ser;
    use mtc_history::anomalies::{self, AnomalyKind};
    use mtc_history::{HistoryBuilder, Op};

    #[test]
    fn serial_history_is_serializable() {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        b.committed(0, vec![Op::read(1u64, 0u64), Op::write(1u64, 3u64)]);
        let h = b.build();
        let out = cobra_check_ser(&h);
        assert!(out.satisfied);
        assert!(!out.timed_out);
    }

    #[test]
    fn agrees_with_mtc_on_the_anomaly_catalogue() {
        for (kind, h) in anomalies::catalogue() {
            let cobra = cobra_check_ser(&h);
            let mtc = check_ser(&h).unwrap();
            assert!(!cobra.timed_out, "{kind} timed out");
            assert_eq!(
                cobra.satisfied,
                mtc.is_satisfied(),
                "Cobra and MTC disagree on {kind}"
            );
        }
    }

    #[test]
    fn write_skew_is_rejected() {
        let out = cobra_check_ser(&anomalies::write_skew());
        assert!(!out.satisfied);
    }

    #[test]
    fn blind_write_histories_are_handled() {
        // Two blind writers and a reader that pins their order.
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::write(0u64, 2u64)]);
        b.committed(2, vec![Op::read(0u64, 1u64)]);
        let h = b.build();
        let out = cobra_check_ser(&h);
        // Serializable: order T2(writes 2) < T1(writes 1) < reader, or the
        // reader executes between T1 and T2.
        assert!(out.satisfied, "{out:?}");
        assert!(out.stats.constraints_before_pruning >= out.stats.constraints);
    }

    #[test]
    fn unserializable_blind_write_history_is_rejected() {
        // Reader A sees x=1 then y=0; reader B sees y=2 then x=0, where x=1
        // and y=2 are blind writes of the same transaction. Classic long fork
        // with blind writes.
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed(0, vec![Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::write(1u64, 2u64)]);
        b.committed(2, vec![Op::read(0u64, 1u64), Op::read(1u64, 0u64)]);
        b.committed(3, vec![Op::read(0u64, 0u64), Op::read(1u64, 2u64)]);
        let h = b.build();
        let out = cobra_check_ser(&h);
        assert!(!out.satisfied);
    }

    #[test]
    fn intra_anomalies_short_circuit() {
        let out = cobra_check_ser(&anomalies::thin_air_read());
        assert!(!out.satisfied);
        assert_eq!(out.stats.known_edges, 0);
    }

    #[test]
    fn decision_counter_is_populated_when_searching() {
        let kind_long_fork = AnomalyKind::LongFork.history();
        let out = cobra_check_ser(&kind_long_fork);
        assert!(!out.satisfied);
        // Statistics are self-consistent.
        assert!(out.stats.txns >= 5);
    }
}
