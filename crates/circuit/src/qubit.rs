//! Logical qubit identifiers.

use serde::Serialize;
use std::fmt;

/// Identifier of a logical (program-level) qubit.
///
/// Qubits are referred to by a dense index `0..n` where `n` is the circuit
/// width. The compiler maps each logical qubit to a physical atom held in an
/// SLM or AOD trap.
///
/// # Example
///
/// ```
/// use powermove_circuit::Qubit;
///
/// let q = Qubit::new(3);
/// assert_eq!(q.index(), 3);
/// assert_eq!(format!("{q}"), "q3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
pub struct Qubit(u32);

impl Qubit {
    /// Creates a qubit identifier from its index.
    #[must_use]
    pub const fn new(index: u32) -> Self {
        Qubit(index)
    }

    /// Returns the dense index of this qubit.
    #[must_use]
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for slice indexing.
    #[must_use]
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Qubit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

impl From<u32> for Qubit {
    fn from(index: u32) -> Self {
        Qubit(index)
    }
}

impl From<Qubit> for u32 {
    fn from(q: Qubit) -> Self {
        q.0
    }
}

impl From<Qubit> for usize {
    fn from(q: Qubit) -> Self {
        q.0 as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn new_and_index_round_trip() {
        for i in [0_u32, 1, 7, 1000] {
            assert_eq!(Qubit::new(i).index(), i);
        }
    }

    #[test]
    fn display_uses_q_prefix() {
        assert_eq!(Qubit::new(42).to_string(), "q42");
    }

    #[test]
    fn conversions_are_consistent() {
        let q: Qubit = 5_u32.into();
        assert_eq!(u32::from(q), 5);
        assert_eq!(usize::from(q), 5);
        assert_eq!(q.as_usize(), 5);
    }

    #[test]
    fn ordering_follows_index() {
        assert!(Qubit::new(1) < Qubit::new(2));
        assert!(Qubit::new(3) > Qubit::new(0));
    }

    #[test]
    fn hashable_and_distinct() {
        let set: HashSet<Qubit> = (0..10).map(Qubit::new).collect();
        assert_eq!(set.len(), 10);
    }
}
