//! Stage partition: optimized edge colouring of the CZ interaction graph
//! (Algorithm 1 of the paper, Sec. 4.1).

use powermove_circuit::{CzBlock, CzGate, Qubit};
use serde::{Deserialize, Serialize};

/// One Rydberg stage: a set of CZ gates acting on pairwise-disjoint qubits,
/// executable under a single global Rydberg excitation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize, Default)]
pub struct Stage {
    gates: Vec<CzGate>,
}

impl Stage {
    /// Creates a stage from gates.
    ///
    /// # Panics
    ///
    /// Panics if two gates share a qubit (the defining property of a stage).
    #[must_use]
    pub fn new(gates: Vec<CzGate>) -> Self {
        let stage = Stage { gates };
        assert!(
            stage.interacting_qubits().len() == 2 * stage.len(),
            "stage gates must act on disjoint qubits"
        );
        stage
    }

    /// The gates of the stage.
    #[must_use]
    pub fn gates(&self) -> &[CzGate] {
        &self.gates
    }

    /// Number of gates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the stage has no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The set of qubits that interact during this stage (`Q_i` in Sec.
    /// 4.2), sorted ascending without repeats.
    #[must_use]
    pub fn interacting_qubits(&self) -> Vec<Qubit> {
        let mut qubits: Vec<Qubit> = self.gates.iter().flat_map(CzGate::qubits).collect();
        qubits.sort_unstable();
        qubits.dedup();
        qubits
    }
}

/// Partitions a commuting CZ block into Rydberg stages using the optimized
/// greedy edge colouring of Algorithm 1: gates (vertices of the conflict
/// graph) are coloured in descending-degree order with the smallest available
/// colour; each colour class becomes one stage.
///
/// Two gates conflict exactly when they share a qubit, so the colouring runs
/// on qubits, not on an explicit conflict graph: each qubit keeps a bitset
/// of the colours its gates use, and a gate takes the first colour free at
/// both endpoints. Ties in degree keep block order (stable sort), and each
/// stage lists its gates in block order.
///
/// With `Δ` the block's maximum qubit degree, the number of stages is at
/// most `2·Δ − 1`, and equals `Δ` for the common benchmark structures
/// (paths, matchings, stars). Runs in `O(G log G + G·C/64)` for `G` gates
/// and `C` stages.
#[must_use]
pub fn partition_stages(block: &CzBlock) -> Vec<Stage> {
    let gates = block.gates();
    let Some(num_qubits) = gates.iter().map(|g| g.hi().as_usize() + 1).max() else {
        return Vec::new();
    };

    let mut count = vec![0_usize; num_qubits];
    for q in gates.iter().flat_map(CzGate::qubits) {
        count[q.as_usize()] += 1;
    }
    // Conflict degree: the gates on either endpoint count the `dup` gates on
    // the gate's own pair (itself included) twice; drop one copy, and itself.
    let mut sorted = gates.to_vec();
    sorted.sort_unstable();
    let mut order: Vec<usize> = (0..gates.len()).collect();
    order.sort_by_cached_key(|&i| {
        let g = &gates[i];
        let dup = sorted.partition_point(|s| s <= g) - sorted.partition_point(|s| s < g);
        std::cmp::Reverse(count[g.lo().as_usize()] + count[g.hi().as_usize()] - 1 - dup)
    });

    // A gate has at most 2·Δ − 2 conflicts, so 2·Δ − 1 colours always suffice.
    let max_degree = count.iter().copied().max().unwrap_or(0);
    let words = (2 * max_degree - 1).div_ceil(64);
    let mut used = vec![0_u64; num_qubits * words];
    let mut color = vec![0_usize; gates.len()];
    let mut num_colors = 0;
    for &i in &order {
        let a = gates[i].lo().as_usize() * words;
        let b = gates[i].hi().as_usize() * words;
        let c = (0..words)
            .find_map(|w| {
                let free = !(used[a + w] | used[b + w]);
                (free != 0).then(|| w * 64 + free.trailing_zeros() as usize)
            })
            .expect("a free colour always exists among 2·Δ − 1 candidates");
        used[a + c / 64] |= 1 << (c % 64);
        used[b + c / 64] |= 1 << (c % 64);
        color[i] = c;
        num_colors = num_colors.max(c + 1);
    }

    let mut stages: Vec<Vec<CzGate>> = vec![Vec::new(); num_colors];
    for (&g, &c) in gates.iter().zip(&color) {
        stages[c].push(g);
    }
    stages.into_iter().map(Stage::new).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::CzBlock;

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

    #[test]
    fn matching_fits_in_one_stage() {
        let stages = partition_stages(&block(&[(0, 1), (2, 3), (4, 5)]));
        assert_eq!(stages.len(), 1);
        assert_eq!(stages[0].len(), 3);
    }

    #[test]
    fn path_needs_two_stages() {
        let stages = partition_stages(&block(&[(0, 1), (1, 2), (2, 3), (3, 4)]));
        assert_eq!(stages.len(), 2);
        let total: usize = stages.iter().map(Stage::len).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn star_needs_degree_stages() {
        let stages = partition_stages(&block(&[(0, 1), (0, 2), (0, 3), (0, 4)]));
        assert_eq!(stages.len(), 4);
        assert!(stages.iter().all(|s| s.len() == 1));
    }

    #[test]
    fn every_stage_has_disjoint_qubits() {
        let stages = partition_stages(&block(&[(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)]));
        for s in &stages {
            let qs = s.interacting_qubits();
            assert_eq!(qs.len(), 2 * s.len());
        }
        let total: usize = stages.iter().map(Stage::len).sum();
        assert_eq!(total, 6);
    }

    #[test]
    fn empty_block_gives_no_stages() {
        assert!(partition_stages(&CzBlock::new()).is_empty());
    }

    #[test]
    fn stage_accessors() {
        let s = Stage::new(vec![CzGate::new(q(0), q(1))]);
        assert!(!s.is_empty());
        assert_eq!(s.interacting_qubits().len(), 2);
        assert!(Stage::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn stage_rejects_overlapping_gates() {
        let _ = Stage::new(vec![CzGate::new(q(0), q(1)), CzGate::new(q(1), q(2))]);
    }

    #[test]
    fn ring_with_chords_stays_near_optimal() {
        // 3-regular graph on 6 vertices (prism): chromatic index 3.
        let stages = partition_stages(&block(&[
            (0, 1),
            (1, 2),
            (2, 0),
            (3, 4),
            (4, 5),
            (5, 3),
            (0, 3),
            (1, 4),
            (2, 5),
        ]));
        assert!(stages.len() <= 4, "got {} stages", stages.len());
        let total: usize = stages.iter().map(Stage::len).sum();
        assert_eq!(total, 9);
    }
}
