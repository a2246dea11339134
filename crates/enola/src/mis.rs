//! Maximum-independent-set based gate scheduling.
//!
//! Enola schedules each commuting CZ block by repeatedly solving a maximum
//! independent set problem on the gate conflict graph: the largest set of
//! gates sharing no qubit forms the next Rydberg stage. The original work
//! relies on external MIS solvers; this reimplementation uses an exact
//! branch-and-bound search with a configurable node budget and a greedy
//! incumbent, which reproduces both the schedule quality and the
//! substantially higher compilation cost relative to PowerMove's near-linear
//! edge colouring (the `T_comp` columns of Table 3).

use crate::GateConflictGraph;
use powermove_circuit::{CzBlock, CzGate};
use std::collections::BTreeSet;

/// Finds a (near-)maximum independent set of the sub-graph induced by
/// `active` vertices.
///
/// A min-degree greedy solution seeds the incumbent; an exact
/// branch-and-bound search then improves it until it proves optimality or
/// exhausts `node_budget` search nodes. The returned set is therefore always
/// at least as large as the greedy solution and is optimal whenever the
/// budget suffices.
#[must_use]
fn maximum_independent_set(
    adjacency: &[Vec<usize>],
    active: &BTreeSet<usize>,
    node_budget: usize,
) -> Vec<usize> {
    if active.is_empty() {
        return Vec::new();
    }

    // Greedy incumbent: repeatedly take the active vertex with the fewest
    // active neighbours.
    let mut best = greedy_mis(adjacency, active);

    // Branch and bound over the active sub-graph.
    let mut budget = node_budget;
    let mut current: Vec<usize> = Vec::new();
    let candidates: Vec<usize> = active.iter().copied().collect();
    branch(
        adjacency,
        &candidates,
        active,
        &mut current,
        &mut best,
        &mut budget,
    );
    best
}

fn greedy_mis(adjacency: &[Vec<usize>], active: &BTreeSet<usize>) -> Vec<usize> {
    let mut remaining: BTreeSet<usize> = active.clone();
    let mut result = Vec::new();
    while !remaining.is_empty() {
        let v = *remaining
            .iter()
            .min_by_key(|&&v| {
                adjacency[v]
                    .iter()
                    .filter(|u| remaining.contains(u))
                    .count()
            })
            .expect("remaining is non-empty");
        result.push(v);
        remaining.remove(&v);
        for &u in &adjacency[v] {
            remaining.remove(&u);
        }
    }
    result
}

fn branch(
    adjacency: &[Vec<usize>],
    candidates: &[usize],
    allowed: &BTreeSet<usize>,
    current: &mut Vec<usize>,
    best: &mut Vec<usize>,
    budget: &mut usize,
) {
    if *budget == 0 {
        return;
    }
    *budget -= 1;

    if current.len() + candidates.len() <= best.len() {
        return; // Even taking every candidate cannot beat the incumbent.
    }
    let Some((&v, rest)) = candidates.split_first() else {
        if current.len() > best.len() {
            *best = current.clone();
        }
        return;
    };

    // Branch 1: include v, dropping its neighbours from the candidates.
    let neighbours: BTreeSet<usize> = adjacency[v]
        .iter()
        .copied()
        .filter(|u| allowed.contains(u))
        .collect();
    let included: Vec<usize> = rest
        .iter()
        .copied()
        .filter(|u| !neighbours.contains(u))
        .collect();
    current.push(v);
    branch(adjacency, &included, allowed, current, best, budget);
    current.pop();

    // Branch 2: exclude v.
    branch(adjacency, rest, allowed, current, best, budget);

    if current.len() > best.len() {
        *best = current.clone();
    }
}

/// Partitions a commuting CZ block into Rydberg stages by iterated maximum
/// independent sets: each stage is a (near-)maximum set of mutually
/// compatible gates among those not yet scheduled.
#[must_use]
pub fn partition_stages_mis(block: &CzBlock, node_budget: usize) -> Vec<Vec<CzGate>> {
    let graph = GateConflictGraph::from_block(block);
    let n = graph.num_gates();
    let adjacency: Vec<Vec<usize>> = (0..n).map(|i| graph.conflicts(i).to_vec()).collect();

    let mut remaining: BTreeSet<usize> = (0..n).collect();
    let mut stages = Vec::new();
    while !remaining.is_empty() {
        let mis = maximum_independent_set(&adjacency, &remaining, node_budget);
        debug_assert!(!mis.is_empty());
        for &v in &mis {
            remaining.remove(&v);
        }
        stages.push(mis.into_iter().map(|v| graph.gate(v)).collect());
    }
    stages
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::Qubit;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn block(edges: &[(u32, u32)]) -> CzBlock {
        CzBlock::from_gates(
            edges
                .iter()
                .map(|&(a, b)| CzGate::new(q(a), q(b)))
                .collect(),
        )
    }

    fn path_adjacency(n: usize) -> Vec<Vec<usize>> {
        (0..n)
            .map(|i| {
                let mut adj = Vec::new();
                if i > 0 {
                    adj.push(i - 1);
                }
                if i + 1 < n {
                    adj.push(i + 1);
                }
                adj
            })
            .collect()
    }

    #[test]
    fn mis_of_path_graph_is_alternating() {
        let adj = path_adjacency(5);
        let active: BTreeSet<usize> = (0..5).collect();
        let mis = maximum_independent_set(&adj, &active, 10_000);
        assert_eq!(mis.len(), 3);
    }

    #[test]
    fn mis_respects_independence() {
        let adj = path_adjacency(8);
        let active: BTreeSet<usize> = (0..8).collect();
        let mis = maximum_independent_set(&adj, &active, 10_000);
        let set: BTreeSet<usize> = mis.iter().copied().collect();
        for &v in &set {
            for &u in &adj[v] {
                assert!(!set.contains(&u));
            }
        }
    }

    #[test]
    fn tiny_budget_still_returns_greedy_solution() {
        let adj = path_adjacency(9);
        let active: BTreeSet<usize> = (0..9).collect();
        let mis = maximum_independent_set(&adj, &active, 0);
        assert!(mis.len() >= 4);
    }

    #[test]
    fn empty_active_set_gives_empty_mis() {
        let adj = path_adjacency(3);
        assert!(maximum_independent_set(&adj, &BTreeSet::new(), 100).is_empty());
    }

    #[test]
    fn matching_block_is_one_stage() {
        let stages = partition_stages_mis(&block(&[(0, 1), (2, 3), (4, 5)]), 10_000);
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].len(), 3);
    }

    #[test]
    fn star_block_needs_one_stage_per_gate() {
        let stages = partition_stages_mis(&block(&[(0, 1), (0, 2), (0, 3)]), 10_000);
        assert_eq!(stages.len(), 3);
    }

    #[test]
    fn path_block_partitions_into_two_stages() {
        let stages = partition_stages_mis(&block(&[(0, 1), (1, 2), (2, 3), (3, 4)]), 10_000);
        assert_eq!(stages.len(), 2);
        let total: usize = stages.iter().map(Vec::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn every_stage_has_disjoint_qubits() {
        let stages = partition_stages_mis(
            &block(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]),
            10_000,
        );
        for stage in &stages {
            let mut seen = BTreeSet::new();
            for g in stage {
                for qb in g.qubits() {
                    assert!(seen.insert(qb));
                }
            }
        }
        let total: usize = stages.iter().map(Vec::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn empty_block_gives_no_stages() {
        assert!(partition_stages_mis(&CzBlock::new(), 100).is_empty());
    }
}
