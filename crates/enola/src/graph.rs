//! The gate conflict graph of a CZ block: vertices are CZ gates, with an
//! edge between two gates that share a qubit. Enola's scheduler repeatedly
//! extracts independent sets from it ([`crate::partition_stages_mis`]).

use powermove_circuit::{CzBlock, CzGate, Qubit};
use std::collections::{BTreeMap, BTreeSet};

/// Gate-level conflict graph of a CZ block.
///
/// Vertex `i` corresponds to `block.gates()[i]`; an edge connects two gates
/// that act on at least one common qubit and therefore cannot be executed in
/// the same Rydberg stage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateConflictGraph {
    gates: Vec<CzGate>,
    adjacency: Vec<Vec<usize>>,
}

impl GateConflictGraph {
    /// Builds the conflict graph of a CZ block.
    ///
    /// Construction is linear in the number of gates plus conflicts: gates
    /// are bucketed by qubit and only gates sharing a bucket are connected.
    #[must_use]
    pub fn from_block(block: &CzBlock) -> Self {
        let gates: Vec<CzGate> = block.gates().to_vec();
        let mut by_qubit: BTreeMap<Qubit, Vec<usize>> = BTreeMap::new();
        for (i, gate) in gates.iter().enumerate() {
            by_qubit.entry(gate.lo()).or_default().push(i);
            by_qubit.entry(gate.hi()).or_default().push(i);
        }
        let mut adjacency: Vec<BTreeSet<usize>> = vec![BTreeSet::new(); gates.len()];
        for bucket in by_qubit.values() {
            for (k, &i) in bucket.iter().enumerate() {
                for &j in &bucket[k + 1..] {
                    adjacency[i].insert(j);
                    adjacency[j].insert(i);
                }
            }
        }
        GateConflictGraph {
            gates,
            adjacency: adjacency
                .into_iter()
                .map(|s| s.into_iter().collect())
                .collect(),
        }
    }

    /// Number of gate vertices.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// The gate at vertex `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_gates()`.
    #[must_use]
    pub fn gate(&self, index: usize) -> CzGate {
        self.gates[index]
    }

    /// All gates, indexed by vertex id.
    #[must_use]
    pub fn gates(&self) -> &[CzGate] {
        &self.gates
    }

    /// Indices of the gates conflicting with gate `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_gates()`.
    #[must_use]
    pub fn conflicts(&self, index: usize) -> &[usize] {
        &self.adjacency[index]
    }

    /// Degree (number of conflicting gates) of vertex `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.num_gates()`.
    #[must_use]
    pub fn degree(&self, index: usize) -> usize {
        self.adjacency[index].len()
    }

    /// Returns `true` if the given set of gate indices is an independent set
    /// (no two gates share a qubit), i.e. executable in one Rydberg stage.
    #[must_use]
    pub fn is_independent_set(&self, indices: &[usize]) -> bool {
        let set: BTreeSet<usize> = indices.iter().copied().collect();
        for &i in &set {
            for &j in &self.adjacency[i] {
                if set.contains(&j) && j != i {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn path_block(n: u32) -> CzBlock {
        CzBlock::from_gates((0..n - 1).map(|i| CzGate::new(q(i), q(i + 1))).collect())
    }

    #[test]
    fn conflict_graph_of_path() {
        let g = GateConflictGraph::from_block(&path_block(4));
        // gates: (0,1), (1,2), (2,3); conflicts: 0-1, 1-2.
        assert_eq!(g.num_gates(), 3);
        assert_eq!(g.degree(0), 1);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.degree(2), 1);
        assert_eq!(g.conflicts(1), &[0, 2]);
    }

    #[test]
    fn independent_set_check() {
        let g = GateConflictGraph::from_block(&path_block(5));
        // gates: (0,1),(1,2),(2,3),(3,4); {0,2} is independent, {0,1} is not.
        assert!(g.is_independent_set(&[0, 2]));
        assert!(g.is_independent_set(&[1, 3]));
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(g.is_independent_set(&[]));
    }

    #[test]
    fn empty_block_graphs() {
        let block = CzBlock::new();
        assert_eq!(GateConflictGraph::from_block(&block).num_gates(), 0);
    }

    #[test]
    fn star_block_conflicts_fully() {
        let block = CzBlock::from_gates(vec![
            CzGate::new(q(0), q(1)),
            CzGate::new(q(0), q(2)),
            CzGate::new(q(0), q(3)),
        ]);
        let g = GateConflictGraph::from_block(&block);
        assert_eq!(g.degree(0), 2);
        assert!(!g.is_independent_set(&[0, 1]));
        assert!(!g.is_independent_set(&[0, 1, 2]));
    }
}
