//! Error types for the hardware model.

use crate::SiteId;
use powermove_circuit::Qubit;
use std::error::Error;
use std::fmt;

/// Errors produced by the hardware model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HardwareError {
    /// A grid was requested with zero columns or zero compute rows.
    InvalidDimensions {
        /// Requested number of columns.
        cols: u32,
        /// Requested number of compute rows.
        compute_rows: u32,
        /// Requested number of storage rows.
        storage_rows: u32,
    },
    /// A site identifier does not belong to the grid.
    SiteOutOfRange {
        /// The offending site.
        site: SiteId,
        /// Number of sites in the grid.
        num_sites: usize,
    },
    /// Two moves of the same collective move violate the AOD order
    /// constraint.
    ConflictingMoves {
        /// Qubit of the first conflicting move.
        first: Qubit,
        /// Qubit of the second conflicting move.
        second: Qubit,
    },
    /// The same qubit appears twice in one collective move, or in two
    /// batches of one parallel window.
    DuplicateMovedQubit {
        /// The repeated qubit.
        qubit: Qubit,
    },
    /// The machine does not have enough sites to host the circuit.
    InsufficientCapacity {
        /// Number of qubits requested.
        qubits: u32,
        /// Number of available sites.
        sites: usize,
    },
    /// An architecture was requested with zero AOD arrays.
    InvalidAodCount {
        /// The requested number of AOD arrays.
        requested: usize,
    },
    /// Two collective-move batches of one parallel window claim the same
    /// AOD array.
    DuplicateAodAssignment {
        /// The doubly-assigned AOD.
        aod: crate::AodId,
    },
}

impl fmt::Display for HardwareError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HardwareError::InvalidDimensions {
                cols,
                compute_rows,
                storage_rows,
            } => write!(
                f,
                "invalid grid dimensions: {cols} cols, {compute_rows} compute rows, {storage_rows} storage rows"
            ),
            HardwareError::SiteOutOfRange { site, num_sites } => {
                write!(f, "site {site} out of range for grid of {num_sites} sites")
            }
            HardwareError::ConflictingMoves { first, second } => write!(
                f,
                "moves of {first} and {second} violate the AOD order constraint"
            ),
            HardwareError::DuplicateMovedQubit { qubit } => {
                write!(f, "qubit {qubit} is moved twice in one parallel window")
            }
            HardwareError::InsufficientCapacity { qubits, sites } => write!(
                f,
                "machine has {sites} sites but the circuit needs {qubits} qubits"
            ),
            HardwareError::InvalidAodCount { requested } => write!(
                f,
                "an architecture needs at least one AOD array (requested {requested})"
            ),
            HardwareError::DuplicateAodAssignment { aod } => {
                write!(f, "AOD array {aod} is assigned two overlapping batches")
            }
        }
    }
}

impl Error for HardwareError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = HardwareError::ConflictingMoves {
            first: Qubit::new(1),
            second: Qubit::new(2),
        };
        assert!(e.to_string().contains("q1"));
        assert!(e.to_string().contains("q2"));

        let e = HardwareError::SiteOutOfRange {
            site: SiteId::new(99),
            num_sites: 10,
        };
        assert!(e.to_string().contains("s99"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<HardwareError>();
    }
}
