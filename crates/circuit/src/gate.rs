//! Gate types supported by the neutral-atom IR.

use crate::Qubit;
use serde::Serialize;
use std::fmt;

/// Single-qubit gate kinds.
///
/// Neutral-atom hardware implements arbitrary single-qubit rotations via
/// qubit-specific Raman pulses executed in parallel across the plane
/// (Sec. 2.1 of the paper). The compiler only needs the gate *count* and the
/// qubit it acts on; the concrete unitary is carried for completeness so that
/// a program can be lowered back to an executable description.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum OneQubitGate {
    /// Hadamard gate.
    H,
    /// Pauli-X gate.
    X,
    /// Pauli-Y gate.
    Y,
    /// Pauli-Z gate.
    Z,
    /// Phase gate S = diag(1, i).
    S,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// Rotation about the X axis by the given angle (radians).
    Rx(f64),
    /// Rotation about the Y axis by the given angle (radians).
    Ry(f64),
    /// Rotation about the Z axis by the given angle (radians).
    Rz(f64),
}

impl OneQubitGate {
    /// Returns `true` if the gate is diagonal in the computational basis and
    /// therefore commutes with CZ gates.
    #[must_use]
    pub fn is_diagonal(&self) -> bool {
        matches!(
            self,
            OneQubitGate::Z | OneQubitGate::S | OneQubitGate::T | OneQubitGate::Rz(_)
        )
    }
}

impl fmt::Display for OneQubitGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OneQubitGate::H => write!(f, "h"),
            OneQubitGate::X => write!(f, "x"),
            OneQubitGate::Y => write!(f, "y"),
            OneQubitGate::Z => write!(f, "z"),
            OneQubitGate::S => write!(f, "s"),
            OneQubitGate::T => write!(f, "t"),
            OneQubitGate::Rx(a) => write!(f, "rx({a:.4})"),
            OneQubitGate::Ry(a) => write!(f, "ry({a:.4})"),
            OneQubitGate::Rz(a) => write!(f, "rz({a:.4})"),
        }
    }
}

/// A CZ (controlled-Z) gate between two distinct qubits.
///
/// CZ is symmetric, so the pair is stored in normalized order
/// (`lo() <= hi()`), which makes `CzGate` values comparable and hashable
/// regardless of the argument order used at construction time.
///
/// # Example
///
/// ```
/// use powermove_circuit::{CzGate, Qubit};
///
/// let a = CzGate::new(Qubit::new(3), Qubit::new(1));
/// let b = CzGate::new(Qubit::new(1), Qubit::new(3));
/// assert_eq!(a, b);
/// assert_eq!(a.lo(), Qubit::new(1));
/// assert_eq!(a.hi(), Qubit::new(3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct CzGate {
    lo: Qubit,
    hi: Qubit,
}

impl CzGate {
    /// Creates a CZ gate acting on `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b`; a CZ gate must act on two distinct qubits.
    #[must_use]
    pub fn new(a: Qubit, b: Qubit) -> Self {
        assert_ne!(a, b, "CZ gate requires two distinct qubits");
        if a < b {
            CzGate { lo: a, hi: b }
        } else {
            CzGate { lo: b, hi: a }
        }
    }

    /// The lower-indexed qubit of the pair.
    #[must_use]
    pub const fn lo(&self) -> Qubit {
        self.lo
    }

    /// The higher-indexed qubit of the pair.
    #[must_use]
    pub const fn hi(&self) -> Qubit {
        self.hi
    }

    /// Both qubits as an array `[lo, hi]`.
    #[must_use]
    pub const fn qubits(&self) -> [Qubit; 2] {
        [self.lo, self.hi]
    }

    /// Given one qubit of the pair, returns the other.
    ///
    /// Returns `None` if `q` is not part of this gate.
    #[must_use]
    pub fn partner(&self, q: Qubit) -> Option<Qubit> {
        if q == self.lo {
            Some(self.hi)
        } else if q == self.hi {
            Some(self.lo)
        } else {
            None
        }
    }
}

impl fmt::Display for CzGate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cz {} {}", self.lo, self.hi)
    }
}

/// A gate in the gate-level IR: either a single-qubit gate or a CZ gate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum Gate {
    /// A single-qubit gate applied to one qubit.
    OneQubit {
        /// Target qubit.
        qubit: Qubit,
        /// Gate kind.
        kind: OneQubitGate,
    },
    /// A CZ gate between two qubits.
    Cz(CzGate),
}

impl Gate {
    /// Returns the qubits this gate acts on (one or two entries).
    #[must_use]
    pub fn qubits(&self) -> Vec<Qubit> {
        match self {
            Gate::OneQubit { qubit, .. } => vec![*qubit],
            Gate::Cz(cz) => cz.qubits().to_vec(),
        }
    }

    /// Returns `true` if the gate is a two-qubit (CZ) gate.
    #[must_use]
    pub fn is_two_qubit(&self) -> bool {
        matches!(self, Gate::Cz(_))
    }
}

impl fmt::Display for Gate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Gate::OneQubit { qubit, kind } => write!(f, "{kind} {qubit}"),
            Gate::Cz(cz) => write!(f, "{cz}"),
        }
    }
}

impl From<CzGate> for Gate {
    fn from(cz: CzGate) -> Self {
        Gate::Cz(cz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cz_gate_normalizes_order() {
        let g = CzGate::new(Qubit::new(5), Qubit::new(2));
        assert_eq!(g.lo(), Qubit::new(2));
        assert_eq!(g.hi(), Qubit::new(5));
        assert_eq!(g, CzGate::new(Qubit::new(2), Qubit::new(5)));
    }

    #[test]
    #[should_panic(expected = "distinct")]
    fn cz_gate_rejects_equal_qubits() {
        let _ = CzGate::new(Qubit::new(1), Qubit::new(1));
    }

    #[test]
    fn cz_partner_and_acts_on() {
        let g = CzGate::new(Qubit::new(0), Qubit::new(3));
        assert_eq!(g.partner(Qubit::new(0)), Some(Qubit::new(3)));
        assert_eq!(g.partner(Qubit::new(3)), Some(Qubit::new(0)));
        assert_eq!(g.partner(Qubit::new(7)), None);
    }

    #[test]
    fn diagonal_one_qubit_gates() {
        assert!(OneQubitGate::Rz(0.3).is_diagonal());
        assert!(OneQubitGate::Z.is_diagonal());
        assert!(OneQubitGate::S.is_diagonal());
        assert!(OneQubitGate::T.is_diagonal());
        assert!(!OneQubitGate::H.is_diagonal());
        assert!(!OneQubitGate::Rx(0.1).is_diagonal());
    }

    #[test]
    fn gate_qubits_and_kind() {
        let g1 = Gate::OneQubit {
            qubit: Qubit::new(4),
            kind: OneQubitGate::H,
        };
        assert_eq!(g1.qubits(), vec![Qubit::new(4)]);
        assert!(!g1.is_two_qubit());

        let g2: Gate = CzGate::new(Qubit::new(1), Qubit::new(2)).into();
        assert_eq!(g2.qubits(), vec![Qubit::new(1), Qubit::new(2)]);
        assert!(g2.is_two_qubit());
    }

    #[test]
    fn gate_display() {
        let g = Gate::OneQubit {
            qubit: Qubit::new(0),
            kind: OneQubitGate::Rz(1.0),
        };
        assert_eq!(g.to_string(), "rz(1.0000) q0");
        let cz: Gate = CzGate::new(Qubit::new(0), Qubit::new(1)).into();
        assert_eq!(cz.to_string(), "cz q0 q1");
    }
}
