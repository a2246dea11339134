//! Gate-level circuit container and builder methods.

use crate::{CircuitError, CzGate, Gate, OneQubitGate, Qubit};
use serde::Serialize;
use std::fmt;

/// A gate-level quantum circuit over `num_qubits` qubits.
///
/// The circuit stores gates in program order. Builder methods validate qubit
/// indices eagerly so that downstream passes can assume well-formed input.
///
/// # Example
///
/// ```
/// use powermove_circuit::{Circuit, Qubit};
///
/// # fn main() -> Result<(), powermove_circuit::CircuitError> {
/// let mut c = Circuit::new(2);
/// c.h(Qubit::new(0))?;
/// c.cz(Qubit::new(0), Qubit::new(1))?;
/// assert_eq!(c.num_gates(), 2);
/// assert_eq!(c.cz_count(), 1);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Circuit {
    num_qubits: u32,
    gates: Vec<Gate>,
}

impl Circuit {
    /// Creates an empty circuit over `num_qubits` qubits.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero; use [`Circuit::try_new`] for a
    /// fallible constructor.
    #[must_use]
    pub fn new(num_qubits: u32) -> Self {
        Self::try_new(num_qubits).expect("circuit must contain at least one qubit")
    }

    /// Creates an empty circuit, returning an error for a zero-qubit circuit.
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::EmptyCircuit`] if `num_qubits == 0`.
    pub fn try_new(num_qubits: u32) -> Result<Self, CircuitError> {
        if num_qubits == 0 {
            return Err(CircuitError::EmptyCircuit);
        }
        Ok(Circuit {
            num_qubits,
            gates: Vec::new(),
        })
    }

    /// The number of qubits the circuit acts on.
    #[must_use]
    pub const fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The gates of the circuit in program order.
    #[must_use]
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Total number of gates.
    #[must_use]
    pub fn num_gates(&self) -> usize {
        self.gates.len()
    }

    /// Number of single-qubit gates.
    #[must_use]
    pub fn one_qubit_count(&self) -> usize {
        self.gates.iter().filter(|g| !g.is_two_qubit()).count()
    }

    /// Number of CZ gates.
    #[must_use]
    pub fn cz_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_two_qubit()).count()
    }

    /// Iterates over all qubit identifiers of the circuit.
    pub fn qubits(&self) -> impl Iterator<Item = Qubit> + '_ {
        (0..self.num_qubits).map(Qubit::new)
    }

    fn check_qubit(&self, q: Qubit) -> Result<(), CircuitError> {
        if q.index() >= self.num_qubits {
            Err(CircuitError::QubitOutOfRange {
                qubit: q,
                num_qubits: self.num_qubits,
            })
        } else {
            Ok(())
        }
    }

    /// Appends an arbitrary gate after validating its qubits.
    ///
    /// # Errors
    ///
    /// Returns an error if any referenced qubit is out of range or if a CZ
    /// gate repeats a qubit.
    pub fn push(&mut self, gate: Gate) -> Result<(), CircuitError> {
        match &gate {
            Gate::OneQubit { qubit, .. } => self.check_qubit(*qubit)?,
            Gate::Cz(cz) => {
                self.check_qubit(cz.lo())?;
                self.check_qubit(cz.hi())?;
            }
        }
        self.gates.push(gate);
        Ok(())
    }

    /// Appends a single-qubit gate of the given kind.
    ///
    /// # Errors
    ///
    /// Returns an error if the qubit is out of range.
    pub fn one_qubit(&mut self, qubit: Qubit, kind: OneQubitGate) -> Result<(), CircuitError> {
        self.push(Gate::OneQubit { qubit, kind })
    }

    /// Appends a Hadamard gate.
    ///
    /// # Errors
    ///
    /// Returns an error if the qubit is out of range.
    pub fn h(&mut self, qubit: Qubit) -> Result<(), CircuitError> {
        self.one_qubit(qubit, OneQubitGate::H)
    }

    /// Appends a Pauli-X gate.
    ///
    /// # Errors
    ///
    /// Returns an error if the qubit is out of range.
    pub fn x(&mut self, qubit: Qubit) -> Result<(), CircuitError> {
        self.one_qubit(qubit, OneQubitGate::X)
    }

    /// Appends an Rz rotation.
    ///
    /// # Errors
    ///
    /// Returns an error if the qubit is out of range.
    pub fn rz(&mut self, qubit: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.one_qubit(qubit, OneQubitGate::Rz(angle))
    }

    /// Appends an Rx rotation.
    ///
    /// # Errors
    ///
    /// Returns an error if the qubit is out of range.
    pub fn rx(&mut self, qubit: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.one_qubit(qubit, OneQubitGate::Rx(angle))
    }

    /// Appends an Ry rotation.
    ///
    /// # Errors
    ///
    /// Returns an error if the qubit is out of range.
    pub fn ry(&mut self, qubit: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.one_qubit(qubit, OneQubitGate::Ry(angle))
    }

    /// Appends a CZ gate between `a` and `b`.
    ///
    /// # Errors
    ///
    /// Returns an error if either qubit is out of range or `a == b`.
    pub fn cz(&mut self, a: Qubit, b: Qubit) -> Result<(), CircuitError> {
        if a == b {
            return Err(CircuitError::DuplicateQubit { qubit: a });
        }
        self.push(Gate::Cz(CzGate::new(a, b)))
    }

    /// Appends a ZZ-interaction of arbitrary angle, lowered to the native
    /// gate set as `Rz(a) · Rz(b) · CZ(a, b)`.
    ///
    /// QAOA cost layers and Trotterized Pauli-ZZ terms both reduce to this
    /// pattern; the entangling part costs exactly one CZ, matching how the
    /// paper counts two-qubit gates for these benchmarks.
    ///
    /// # Errors
    ///
    /// Returns an error if either qubit is out of range or `a == b`.
    pub fn zz(&mut self, a: Qubit, b: Qubit, angle: f64) -> Result<(), CircuitError> {
        if a == b {
            return Err(CircuitError::DuplicateQubit { qubit: a });
        }
        self.rz(a, angle / 2.0)?;
        self.rz(b, angle / 2.0)?;
        self.cz(a, b)
    }

    /// Appends a CNOT with control `c` and target `t`, lowered to
    /// `H(t) · CZ(c, t) · H(t)`.
    ///
    /// # Errors
    ///
    /// Returns an error if either qubit is out of range or `c == t`.
    pub fn cnot(&mut self, c: Qubit, t: Qubit) -> Result<(), CircuitError> {
        if c == t {
            return Err(CircuitError::DuplicateQubit { qubit: c });
        }
        self.h(t)?;
        self.cz(c, t)?;
        self.h(t)
    }

    /// Appends a controlled-phase gate of the given angle, lowered to
    /// `Rz(c) · Rz(t) · CZ(c, t)` (one entangling CZ plus local rotations).
    ///
    /// # Errors
    ///
    /// Returns an error if either qubit is out of range or `c == t`.
    pub fn cphase(&mut self, c: Qubit, t: Qubit, angle: f64) -> Result<(), CircuitError> {
        self.zz(c, t, angle)
    }

    /// Appends all gates of `other` to this circuit.
    ///
    /// # Errors
    ///
    /// Returns an error if `other` references qubits outside this circuit's
    /// width.
    pub fn append(&mut self, other: &Circuit) -> Result<(), CircuitError> {
        for gate in other.gates() {
            self.push(*gate)?;
        }
        Ok(())
    }

    /// Returns the CZ gates of the circuit in program order.
    #[must_use]
    pub fn cz_gates(&self) -> Vec<CzGate> {
        self.gates
            .iter()
            .filter_map(|g| match g {
                Gate::Cz(cz) => Some(*cz),
                Gate::OneQubit { .. } => None,
            })
            .collect()
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "circuit({} qubits, {} gates)",
            self.num_qubits,
            self.gates.len()
        )?;
        for gate in &self.gates {
            writeln!(f, "  {gate}")?;
        }
        Ok(())
    }
}

impl Extend<Gate> for Circuit {
    /// Extends the circuit with gates, panicking on invalid qubits.
    ///
    /// Use [`Circuit::push`] when fallible insertion is required.
    fn extend<T: IntoIterator<Item = Gate>>(&mut self, iter: T) {
        for gate in iter {
            self.push(gate).expect("gate references qubit out of range");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_circuit_is_empty() {
        let c = Circuit::new(4);
        assert_eq!(c.num_qubits(), 4);
        assert_eq!(c.num_gates(), 0);
        assert_eq!(c.cz_count(), 0);
        assert_eq!(c.one_qubit_count(), 0);
    }

    #[test]
    fn try_new_rejects_zero_qubits() {
        assert_eq!(Circuit::try_new(0), Err(CircuitError::EmptyCircuit));
    }

    #[test]
    fn builder_methods_validate_range() {
        let mut c = Circuit::new(2);
        assert!(c.h(Qubit::new(0)).is_ok());
        assert!(matches!(
            c.h(Qubit::new(2)),
            Err(CircuitError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            c.cz(Qubit::new(0), Qubit::new(5)),
            Err(CircuitError::QubitOutOfRange { .. })
        ));
        assert!(matches!(
            c.cz(Qubit::new(1), Qubit::new(1)),
            Err(CircuitError::DuplicateQubit { .. })
        ));
    }

    #[test]
    fn gate_counts_track_kinds() {
        let mut c = Circuit::new(3);
        c.h(Qubit::new(0)).unwrap();
        c.rz(Qubit::new(1), 0.5).unwrap();
        c.cz(Qubit::new(0), Qubit::new(1)).unwrap();
        c.cz(Qubit::new(1), Qubit::new(2)).unwrap();
        assert_eq!(c.num_gates(), 4);
        assert_eq!(c.one_qubit_count(), 2);
        assert_eq!(c.cz_count(), 2);
        assert_eq!(c.cz_gates().len(), 2);
    }

    #[test]
    fn cnot_lowers_to_h_cz_h() {
        let mut c = Circuit::new(2);
        c.cnot(Qubit::new(0), Qubit::new(1)).unwrap();
        assert_eq!(c.num_gates(), 3);
        assert_eq!(c.cz_count(), 1);
        assert_eq!(c.one_qubit_count(), 2);
    }

    #[test]
    fn zz_lowers_to_single_cz() {
        let mut c = Circuit::new(2);
        c.zz(Qubit::new(0), Qubit::new(1), 1.2).unwrap();
        assert_eq!(c.cz_count(), 1);
        assert_eq!(c.one_qubit_count(), 2);
    }

    #[test]
    fn append_concatenates() {
        let mut a = Circuit::new(3);
        a.h(Qubit::new(0)).unwrap();
        let mut b = Circuit::new(3);
        b.cz(Qubit::new(1), Qubit::new(2)).unwrap();
        a.append(&b).unwrap();
        assert_eq!(a.num_gates(), 2);
    }

    #[test]
    fn append_rejects_wider_circuit() {
        let mut a = Circuit::new(2);
        let mut b = Circuit::new(4);
        b.cz(Qubit::new(2), Qubit::new(3)).unwrap();
        assert!(a.append(&b).is_err());
    }

    #[test]
    fn display_lists_gates() {
        let mut c = Circuit::new(2);
        c.h(Qubit::new(0)).unwrap();
        c.cz(Qubit::new(0), Qubit::new(1)).unwrap();
        let text = c.to_string();
        assert!(text.contains("h q0"));
        assert!(text.contains("cz q0 q1"));
    }

    #[test]
    fn extend_accepts_valid_gates() {
        let mut c = Circuit::new(2);
        c.extend([
            Gate::OneQubit {
                qubit: Qubit::new(0),
                kind: OneQubitGate::H,
            },
            Gate::Cz(CzGate::new(Qubit::new(0), Qubit::new(1))),
        ]);
        assert_eq!(c.num_gates(), 2);
    }
}
