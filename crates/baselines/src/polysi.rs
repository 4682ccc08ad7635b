//! A PolySI-style snapshot-isolation checker.
//!
//! PolySI extends Cobra's polygraph encoding to snapshot isolation: a history
//! satisfies SI iff there is an orientation of the write-write constraints
//! such that the *composed* graph `(SO ∪ WR ∪ WW) ; RW?` is acyclic
//! (Definition 6 of the paper). The search below mirrors
//! [`crate::cobra`]: constraints are oriented one by one, and a partial
//! orientation is abandoned as soon as its composed graph already contains a
//! cycle (adding edges can only add cycles, so the pruning is sound).

use crate::cobra::{BaselineOutcome, SolverStats, DECISION_BUDGET};
use crate::polygraph::Polygraph;
use mtc_history::{find_intra_anomalies, DiGraph, History};

/// Checks snapshot isolation of a history the way PolySI does.
pub fn polysi_check_si(history: &History) -> BaselineOutcome {
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

    let mut search = SiSearch {
        pg: &pg,
        chosen_ww: Vec::new(),
        chosen_rw: Vec::new(),
        decisions: 0,
        budget: DECISION_BUDGET,
    };
    if !search.composed_acyclic() {
        return BaselineOutcome {
            satisfied: false,
            timed_out: false,
            stats,
        };
    }
    let result = search.solve(0);
    stats.decisions = search.decisions;
    BaselineOutcome {
        satisfied: matches!(result, SiResult::Satisfiable),
        timed_out: matches!(result, SiResult::BudgetExhausted),
        stats,
    }
}

enum SiResult {
    Satisfiable,
    Unsatisfiable,
    BudgetExhausted,
}

struct SiSearch<'a> {
    pg: &'a Polygraph,
    chosen_ww: Vec<(usize, usize)>,
    chosen_rw: Vec<(usize, usize)>,
    decisions: usize,
    budget: usize,
}

impl SiSearch<'_> {
    /// Builds `(SO ∪ WR ∪ WW) ; RW?` for the current partial orientation and
    /// checks its acyclicity.
    fn composed_acyclic(&self) -> bool {
        let n = self.pg.node_count;
        // Per-node RW successors.
        let mut rw_out: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in self.pg.known_rw.iter().chain(self.chosen_rw.iter()) {
            rw_out[a].push(b);
        }
        let mut composed: Vec<(usize, usize)> = Vec::new();
        for &(a, b) in self.pg.known.iter().chain(self.chosen_ww.iter()) {
            composed.push((a, b));
            for &c in &rw_out[b] {
                if a != c {
                    composed.push((a, c));
                } else {
                    // base ; rw closes a two-edge loop: immediately cyclic.
                    return false;
                }
            }
        }
        DiGraph::from_edges(n, composed.iter().copied()).is_acyclic()
    }

    fn solve(&mut self, index: usize) -> SiResult {
        self.decisions += 1;
        if self.decisions > self.budget {
            return SiResult::BudgetExhausted;
        }
        if index == self.pg.constraints.len() {
            return SiResult::Satisfiable;
        }
        let c = &self.pg.constraints[index];
        for alt in [&c.first, &c.second] {
            let ww_mark = self.chosen_ww.len();
            let rw_mark = self.chosen_rw.len();
            self.chosen_ww.push(alt.ww);
            self.chosen_rw.extend_from_slice(&alt.rw);
            if self.composed_acyclic() {
                match self.solve(index + 1) {
                    SiResult::Satisfiable => return SiResult::Satisfiable,
                    SiResult::BudgetExhausted => return SiResult::BudgetExhausted,
                    SiResult::Unsatisfiable => {}
                }
            }
            self.chosen_ww.truncate(ww_mark);
            self.chosen_rw.truncate(rw_mark);
        }
        SiResult::Unsatisfiable
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mtc_core::check_si;
    use mtc_history::anomalies;
    use mtc_history::{HistoryBuilder, Op};

    #[test]
    fn serial_history_satisfies_si() {
        let mut b = HistoryBuilder::new().with_init(2);
        b.committed(0, vec![Op::read(0u64, 0u64), Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::read(0u64, 1u64), Op::write(0u64, 2u64)]);
        let h = b.build();
        assert!(polysi_check_si(&h).satisfied);
    }

    #[test]
    fn agrees_with_mtc_on_the_anomaly_catalogue() {
        for (kind, h) in anomalies::catalogue() {
            let polysi = polysi_check_si(&h);
            let mtc = check_si(&h).unwrap();
            assert!(!polysi.timed_out, "{kind} timed out");
            assert_eq!(
                polysi.satisfied,
                mtc.is_satisfied(),
                "PolySI and MTC disagree on {kind}"
            );
        }
    }

    #[test]
    fn write_skew_satisfies_si_but_lost_update_does_not() {
        assert!(polysi_check_si(&anomalies::write_skew()).satisfied);
        assert!(!polysi_check_si(&anomalies::lost_update()).satisfied);
        assert!(!polysi_check_si(&anomalies::long_fork()).satisfied);
    }

    #[test]
    fn divergence_is_rejected_regardless_of_orientation() {
        assert!(!polysi_check_si(&anomalies::divergence()).satisfied);
    }

    #[test]
    fn blind_write_histories_are_handled() {
        let mut b = HistoryBuilder::new().with_init(1);
        b.committed(0, vec![Op::write(0u64, 1u64)]);
        b.committed(1, vec![Op::write(0u64, 2u64)]);
        b.committed(2, vec![Op::read(0u64, 2u64)]);
        let h = b.build();
        assert!(polysi_check_si(&h).satisfied);
    }
}
