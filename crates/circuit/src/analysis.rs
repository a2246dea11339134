//! Circuit statistics used by the experiment harness and documentation.

use crate::{BlockProgram, Circuit};
use std::fmt;

/// Summary statistics of a circuit and its block-level synthesis.
///
/// # Example
///
/// ```
/// use powermove_circuit::{Circuit, CircuitStats, Qubit};
///
/// # fn main() -> Result<(), powermove_circuit::CircuitError> {
/// let mut c = Circuit::new(3);
/// c.h(Qubit::new(0))?;
/// c.cz(Qubit::new(0), Qubit::new(1))?;
/// let stats = CircuitStats::of(&c);
/// assert_eq!(stats.num_qubits, 3);
/// assert_eq!(stats.cz_gates, 1);
/// assert_eq!(stats.cz_blocks, 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitStats {
    /// Circuit width.
    pub num_qubits: u32,
    /// Number of single-qubit gates.
    pub one_qubit_gates: usize,
    /// Number of CZ gates.
    pub cz_gates: usize,
    /// Number of dependent CZ blocks after synthesis.
    pub cz_blocks: usize,
    /// Number of single-qubit layers after synthesis.
    pub one_qubit_layers: usize,
    /// Largest CZ block size.
    pub max_block_size: usize,
    /// Lower bound on Rydberg stages: sum over blocks of the maximum qubit
    /// degree inside the block.
    pub stage_lower_bound: usize,
}

impl CircuitStats {
    /// Computes the statistics of a circuit.
    #[must_use]
    pub fn of(circuit: &Circuit) -> Self {
        let program = BlockProgram::from_circuit(circuit);
        CircuitStats {
            num_qubits: circuit.num_qubits(),
            one_qubit_gates: circuit.one_qubit_count(),
            cz_gates: circuit.cz_count(),
            cz_blocks: program.cz_blocks().count(),
            one_qubit_layers: program.one_qubit_layers().count(),
            max_block_size: program.cz_blocks().map(|b| b.len()).max().unwrap_or(0),
            stage_lower_bound: program.cz_blocks().map(|b| b.max_qubit_degree()).sum(),
        }
    }
}

impl fmt::Display for CircuitStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} qubits, {} 1Q gates, {} CZ gates in {} blocks (max block {}, >= {} stages)",
            self.num_qubits,
            self.one_qubit_gates,
            self.cz_gates,
            self.cz_blocks,
            self.max_block_size,
            self.stage_lower_bound
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Qubit;

    #[test]
    fn stats_of_simple_circuit() {
        let mut c = Circuit::new(4);
        for i in 0..4 {
            c.h(Qubit::new(i)).unwrap();
        }
        c.cz(Qubit::new(0), Qubit::new(1)).unwrap();
        c.cz(Qubit::new(2), Qubit::new(3)).unwrap();
        c.cz(Qubit::new(0), Qubit::new(2)).unwrap();
        let s = CircuitStats::of(&c);
        assert_eq!(s.num_qubits, 4);
        assert_eq!(s.one_qubit_gates, 4);
        assert_eq!(s.cz_gates, 3);
        assert_eq!(s.cz_blocks, 1);
        assert_eq!(s.max_block_size, 3);
        assert_eq!(s.stage_lower_bound, 2);
    }

    #[test]
    fn stats_of_empty_circuit() {
        let c = Circuit::new(2);
        let s = CircuitStats::of(&c);
        assert_eq!(s.cz_gates, 0);
        assert_eq!(s.cz_blocks, 0);
        assert_eq!(s.stage_lower_bound, 0);
    }

    #[test]
    fn display_mentions_counts() {
        let mut c = Circuit::new(2);
        c.cz(Qubit::new(0), Qubit::new(1)).unwrap();
        let text = CircuitStats::of(&c).to_string();
        assert!(text.contains("2 qubits"));
        assert!(text.contains("1 CZ gates"));
    }
}
