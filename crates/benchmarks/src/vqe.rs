//! Variational-quantum-eigensolver ansatz benchmark.

use powermove_circuit::{Circuit, Qubit};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Entanglement pattern of the hardware-efficient VQE ansatz.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntanglementPattern {
    /// CZ between neighbouring qubits `(i, i+1)`.
    Linear,
    /// Linear plus the wrap-around pair `(n-1, 0)`.
    Circular,
    /// CZ between every qubit pair.
    Full,
}

/// Builds a hardware-efficient VQE ansatz: per repetition, a layer of
/// parameterized Ry/Rz rotations on every qubit followed by an entangling
/// layer of CZ gates in the given pattern, plus a final rotation layer.
///
/// The paper's tables use one repetition with the [`EntanglementPattern::Linear`]
/// chain (see DESIGN.md for the rationale of this substitution: the reported
/// fidelities of Table 3 correspond to Θ(n) entangling gates per circuit, not
/// the Θ(n²) of an all-to-all pattern).
///
/// Rotation angles are drawn deterministically from `seed`.
#[must_use]
pub fn vqe_ansatz(
    num_qubits: u32,
    repetitions: u32,
    pattern: EntanglementPattern,
    seed: u64,
) -> Circuit {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut c = Circuit::new(num_qubits);
    let rotation_layer = |c: &mut Circuit, rng: &mut StdRng| {
        for i in 0..num_qubits {
            let theta = rng.gen_range(0.0..std::f64::consts::TAU);
            let phi = rng.gen_range(0.0..std::f64::consts::TAU);
            c.ry(Qubit::new(i), theta).expect("qubit in range");
            c.rz(Qubit::new(i), phi).expect("qubit in range");
        }
    };
    for _ in 0..repetitions {
        rotation_layer(&mut c, &mut rng);
        match pattern {
            EntanglementPattern::Linear => {
                for i in 0..num_qubits.saturating_sub(1) {
                    c.cz(Qubit::new(i), Qubit::new(i + 1)).expect("in range");
                }
            }
            EntanglementPattern::Circular => {
                for i in 0..num_qubits.saturating_sub(1) {
                    c.cz(Qubit::new(i), Qubit::new(i + 1)).expect("in range");
                }
                if num_qubits > 2 {
                    c.cz(Qubit::new(num_qubits - 1), Qubit::new(0))
                        .expect("in range");
                }
            }
            EntanglementPattern::Full => {
                for a in 0..num_qubits {
                    for b in (a + 1)..num_qubits {
                        c.cz(Qubit::new(a), Qubit::new(b)).expect("in range");
                    }
                }
            }
        }
    }
    rotation_layer(&mut c, &mut rng);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::BlockProgram;

    #[test]
    fn linear_ansatz_gate_counts() {
        let c = vqe_ansatz(30, 1, EntanglementPattern::Linear, 1);
        assert_eq!(c.cz_count(), 29);
        // Two rotation layers of 2 gates per qubit each.
        assert_eq!(c.one_qubit_count(), 2 * 2 * 30);
    }

    #[test]
    fn circular_adds_wraparound() {
        let c = vqe_ansatz(10, 1, EntanglementPattern::Circular, 1);
        assert_eq!(c.cz_count(), 10);
    }

    #[test]
    fn full_is_all_pairs() {
        let c = vqe_ansatz(6, 1, EntanglementPattern::Full, 1);
        assert_eq!(c.cz_count(), 15);
    }

    #[test]
    fn entangling_layer_is_one_block() {
        let c = vqe_ansatz(12, 1, EntanglementPattern::Linear, 2);
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.cz_blocks().count(), 1);
    }

    #[test]
    fn repetitions_multiply_blocks() {
        let c = vqe_ansatz(8, 3, EntanglementPattern::Linear, 2);
        let p = BlockProgram::from_circuit(&c);
        assert_eq!(p.cz_blocks().count(), 3);
        assert_eq!(c.cz_count(), 3 * 7);
    }

    #[test]
    fn deterministic_per_seed() {
        assert_eq!(
            vqe_ansatz(10, 1, EntanglementPattern::Linear, 4),
            vqe_ansatz(10, 1, EntanglementPattern::Linear, 4)
        );
    }
}
