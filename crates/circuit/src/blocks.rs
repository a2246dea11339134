//! Block-level IR: alternating single-qubit layers and commuting CZ blocks.
//!
//! The paper (Sec. 2.2) assumes input circuits are synthesized into
//! alternating layers of 1Q gates and *CZ gate blocks*, where every CZ gate
//! inside a block commutes with the others (CZ gates are mutually diagonal)
//! and therefore may be freely reordered by the stage scheduler.

use crate::{Circuit, CzGate, Gate, OneQubitGate, Qubit};
use std::collections::BTreeSet;

/// A layer of single-qubit gates.
///
/// Gates within a layer may act on the same qubit (they are then executed
/// back-to-back by the Raman system); the neutral-atom hardware executes the
/// whole layer in parallel across qubits, so only the per-qubit depth of the
/// layer matters for timing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OneQubitLayer {
    gates: Vec<(Qubit, OneQubitGate)>,
}

impl OneQubitLayer {
    /// Creates an empty layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a gate to the layer.
    pub fn push(&mut self, qubit: Qubit, kind: OneQubitGate) {
        self.gates.push((qubit, kind));
    }

    /// The gates of this layer in insertion order.
    #[must_use]
    pub fn gates(&self) -> &[(Qubit, OneQubitGate)] {
        &self.gates
    }

    /// Number of gates in the layer.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the layer contains no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }
}

/// A block of mutually commuting CZ gates.
///
/// All CZ gates are diagonal in the computational basis, hence any set of CZ
/// gates commutes; a block collects the CZ gates that appear between two
/// single-qubit layers so the stage scheduler may partition and reorder them
/// freely (Sec. 4 of the paper).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CzBlock {
    gates: Vec<CzGate>,
}

impl CzBlock {
    /// Creates an empty block.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a block from a list of CZ gates.
    #[must_use]
    pub fn from_gates(gates: Vec<CzGate>) -> Self {
        CzBlock { gates }
    }

    /// Adds a CZ gate to the block.
    pub fn push(&mut self, gate: CzGate) {
        self.gates.push(gate);
    }

    /// The CZ gates of the block.
    #[must_use]
    pub fn gates(&self) -> &[CzGate] {
        &self.gates
    }

    /// Number of CZ gates in the block.
    #[must_use]
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// Returns `true` if the block contains no gates.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// The set of qubits touched by at least one gate of the block.
    #[must_use]
    pub fn interacting_qubits(&self) -> BTreeSet<Qubit> {
        self.gates.iter().flat_map(|g| g.qubits()).collect()
    }

    /// Maximum number of gates sharing a single qubit; a lower bound on the
    /// number of Rydberg stages needed to execute the block.
    #[must_use]
    pub fn max_qubit_degree(&self) -> usize {
        let mut counts = std::collections::HashMap::new();
        for g in &self.gates {
            for q in g.qubits() {
                *counts.entry(q).or_insert(0_usize) += 1;
            }
        }
        counts.values().copied().max().unwrap_or(0)
    }
}

impl FromIterator<CzGate> for CzBlock {
    fn from_iter<T: IntoIterator<Item = CzGate>>(iter: T) -> Self {
        CzBlock {
            gates: iter.into_iter().collect(),
        }
    }
}

/// One segment of a block program: either a 1Q layer or a CZ block.
#[derive(Debug, Clone, PartialEq)]
pub enum Segment {
    /// A layer of single-qubit gates.
    OneQubit(OneQubitLayer),
    /// A block of commuting CZ gates.
    Cz(CzBlock),
}

/// A circuit synthesized into alternating 1Q layers and CZ blocks.
///
/// Segments appear in execution order. Consecutive segments always differ in
/// kind and empty segments are dropped, so iterating [`BlockProgram::cz_blocks`]
/// yields exactly the *dependent CZ blocks* of Sec. 4.1: CZ gates within one
/// block commute, while gates in different blocks are ordered by the 1Q
/// layers between them.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockProgram {
    num_qubits: u32,
    segments: Vec<Segment>,
}

impl BlockProgram {
    /// Synthesizes a gate-level circuit into the block-level IR.
    ///
    /// The pass walks the circuit in program order, fusing 1Q gates into
    /// layers and commuting CZ gates into blocks. Commutation is exploited:
    /// CZ gates commute with each other and with *diagonal* single-qubit
    /// gates (Z, S, T, Rz), so a QAOA cost layer interleaved with Rz
    /// rotations still forms a single CZ block. Non-diagonal gates (H, X,
    /// Rx, Ry, ...) create ordering barriers on their qubit, exactly as in
    /// the paper's "dependent CZ blocks" synthesis (Sec. 2.2, Sec. 4.1).
    #[must_use]
    pub fn from_circuit(circuit: &Circuit) -> Self {
        let n = circuit.num_qubits() as usize;
        // blocks[i] is preceded by layers[i]; program order is
        // layers[0], blocks[0], layers[1], blocks[1], ...
        let mut layers: Vec<OneQubitLayer> = Vec::new();
        let mut blocks: Vec<CzBlock> = Vec::new();
        // Earliest block index a CZ on qubit q may join (bumped only by
        // non-diagonal 1Q gates, which do not commute with CZ).
        let mut block_frontier = vec![0_usize; n];
        // Earliest layer a non-diagonal 1Q gate on qubit q may join.
        let mut nd_layer_frontier = vec![0_usize; n];
        // Earliest layer a diagonal 1Q gate on qubit q may join (bumped only
        // by non-diagonal 1Q gates; diagonal gates commute with CZ).
        let mut diag_layer_frontier = vec![0_usize; n];

        let ensure_len_layers = |layers: &mut Vec<OneQubitLayer>, idx: usize| {
            while layers.len() <= idx {
                layers.push(OneQubitLayer::new());
            }
        };
        let ensure_len_blocks = |blocks: &mut Vec<CzBlock>, idx: usize| {
            while blocks.len() <= idx {
                blocks.push(CzBlock::new());
            }
        };

        for gate in circuit.gates() {
            match gate {
                Gate::OneQubit { qubit, kind } => {
                    let q = qubit.as_usize();
                    if kind.is_diagonal() {
                        let idx = diag_layer_frontier[q];
                        ensure_len_layers(&mut layers, idx);
                        layers[idx].push(*qubit, *kind);
                        // A later non-diagonal gate must not commute before
                        // this one; same layer preserves per-qubit order.
                        nd_layer_frontier[q] = nd_layer_frontier[q].max(idx);
                    } else {
                        let idx = nd_layer_frontier[q];
                        ensure_len_layers(&mut layers, idx);
                        layers[idx].push(*qubit, *kind);
                        // A CZ following this gate must come in block idx or
                        // later (layer idx precedes block idx), and later
                        // diagonal gates must not drift before it.
                        block_frontier[q] = block_frontier[q].max(idx);
                        diag_layer_frontier[q] = diag_layer_frontier[q].max(idx);
                    }
                }
                Gate::Cz(cz) => {
                    let a = cz.lo().as_usize();
                    let b = cz.hi().as_usize();
                    let idx = block_frontier[a].max(block_frontier[b]);
                    ensure_len_blocks(&mut blocks, idx);
                    blocks[idx].push(*cz);
                    block_frontier[a] = idx;
                    block_frontier[b] = idx;
                    // Non-diagonal 1Q gates following this CZ must come in
                    // layer idx+1 or later (block idx precedes layer idx+1);
                    // diagonal gates commute with CZ and are unaffected.
                    nd_layer_frontier[a] = nd_layer_frontier[a].max(idx + 1);
                    nd_layer_frontier[b] = nd_layer_frontier[b].max(idx + 1);
                }
            }
        }

        let mut segments = Vec::new();
        let max_len = layers.len().max(blocks.len());
        for i in 0..max_len {
            if let Some(layer) = layers.get(i) {
                if !layer.is_empty() {
                    segments.push(Segment::OneQubit(layer.clone()));
                }
            }
            if let Some(block) = blocks.get(i) {
                if !block.is_empty() {
                    segments.push(Segment::Cz(block.clone()));
                }
            }
        }

        BlockProgram {
            num_qubits: circuit.num_qubits(),
            segments,
        }
    }

    /// The number of qubits of the underlying circuit.
    #[must_use]
    pub const fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The segments in execution order.
    #[must_use]
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Iterates over the CZ blocks in execution order.
    pub fn cz_blocks(&self) -> impl Iterator<Item = &CzBlock> + '_ {
        self.segments.iter().filter_map(|s| match s {
            Segment::Cz(b) => Some(b),
            Segment::OneQubit(_) => None,
        })
    }

    /// Iterates over the 1Q layers in execution order.
    pub fn one_qubit_layers(&self) -> impl Iterator<Item = &OneQubitLayer> + '_ {
        self.segments.iter().filter_map(|s| match s {
            Segment::OneQubit(l) => Some(l),
            Segment::Cz(_) => None,
        })
    }

    /// Total number of CZ gates across all blocks.
    #[must_use]
    pub fn total_cz_gates(&self) -> usize {
        self.cz_blocks().map(CzBlock::len).sum()
    }

    /// Total number of single-qubit gates across all layers.
    #[must_use]
    pub fn total_one_qubit_gates(&self) -> usize {
        self.one_qubit_layers().map(OneQubitLayer::len).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn commuting_czs_form_single_block() {
        let mut c = Circuit::new(4);
        c.cz(q(0), q(1)).unwrap();
        c.cz(q(2), q(3)).unwrap();
        c.cz(q(0), q(2)).unwrap();
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.cz_blocks().count(), 1);
        assert_eq!(p.total_cz_gates(), 3);
    }

    #[test]
    fn one_qubit_gate_splits_blocks() {
        let mut c = Circuit::new(2);
        c.cz(q(0), q(1)).unwrap();
        c.h(q(0)).unwrap();
        c.cz(q(0), q(1)).unwrap();
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.cz_blocks().count(), 2);
        assert_eq!(p.one_qubit_layers().count(), 1);
    }

    #[test]
    fn diagonal_gates_do_not_split_blocks() {
        // Rz commutes with CZ, so interleaving Rz rotations (as a QAOA cost
        // layer does) must keep all CZ gates in a single block.
        let mut c = Circuit::new(3);
        c.zz(q(0), q(1), 0.4).unwrap();
        c.zz(q(1), q(2), 0.4).unwrap();
        c.zz(q(0), q(2), 0.4).unwrap();
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.cz_blocks().count(), 1);
        assert_eq!(p.total_cz_gates(), 3);
        assert_eq!(p.total_one_qubit_gates(), 6);
    }

    #[test]
    fn diagonal_gates_respect_non_diagonal_barriers() {
        // H; Rz; CZ; on the same qubit: the Rz must stay after the H (same
        // layer, program order preserved), and the CZ block follows.
        let mut c = Circuit::new(2);
        c.h(q(0)).unwrap();
        c.rz(q(0), 0.3).unwrap();
        c.cz(q(0), q(1)).unwrap();
        c.h(q(0)).unwrap();
        c.rz(q(0), 0.7).unwrap();
        c.cz(q(0), q(1)).unwrap();
        let p = BlockProgram::from_circuit(&c);
        // The second H forces the second CZ into a new block; the second Rz
        // must not drift before that H.
        assert_eq!(p.cz_blocks().count(), 2);
        assert_eq!(p.total_one_qubit_gates(), 4);
    }

    #[test]
    fn unrelated_one_qubit_gate_does_not_split() {
        let mut c = Circuit::new(3);
        c.cz(q(0), q(1)).unwrap();
        c.h(q(2)).unwrap();
        c.cz(q(0), q(1)).unwrap();
        let p = BlockProgram::from_circuit(&c);
        // H on q2 does not interfere with CZs on q0/q1, so both CZs commute
        // into the same block.
        assert_eq!(p.cz_blocks().count(), 1);
        assert_eq!(p.total_cz_gates(), 2);
    }

    #[test]
    fn leading_one_qubit_layer_is_kept() {
        let mut c = Circuit::new(2);
        c.h(q(0)).unwrap();
        c.h(q(1)).unwrap();
        c.cz(q(0), q(1)).unwrap();
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.segments().len(), 2);
        assert!(matches!(p.segments()[0], Segment::OneQubit(_)));
        assert!(matches!(p.segments()[1], Segment::Cz(_)));
    }

    #[test]
    fn gate_counts_preserved_by_synthesis() {
        let mut c = Circuit::new(5);
        for i in 0..5 {
            c.h(q(i)).unwrap();
        }
        for i in 0..4 {
            c.cnot(q(i), q(i + 1)).unwrap();
        }
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.total_cz_gates(), c.cz_count());
        assert_eq!(p.total_one_qubit_gates(), c.one_qubit_count());
    }

    #[test]
    fn cnot_chain_produces_sequential_blocks() {
        // CNOT(0,1); CNOT(1,2): the H gates on the shared qubit force
        // ordering, so the two CZs must land in different blocks.
        let mut c = Circuit::new(3);
        c.cnot(q(0), q(1)).unwrap();
        c.cnot(q(1), q(2)).unwrap();
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.cz_blocks().count(), 2);
    }

    #[test]
    fn interacting_qubits_of_block() {
        let block = CzBlock::from_gates(vec![CzGate::new(q(0), q(1)), CzGate::new(q(3), q(4))]);
        let qs = block.interacting_qubits();
        assert_eq!(qs.len(), 4);
        assert!(qs.contains(&q(0)));
        assert!(qs.contains(&q(4)));
        assert!(!qs.contains(&q(2)));
    }

    #[test]
    fn max_qubit_degree_lower_bounds_stages() {
        let block = CzBlock::from_gates(vec![
            CzGate::new(q(0), q(1)),
            CzGate::new(q(0), q(2)),
            CzGate::new(q(0), q(3)),
        ]);
        assert_eq!(block.max_qubit_degree(), 3);
    }

    #[test]
    fn empty_circuit_gives_empty_program() {
        let c = Circuit::new(3);
        let p = BlockProgram::from_circuit(&c);
        assert!(p.segments().is_empty());
        assert_eq!(p.total_cz_gates(), 0);
    }
}
