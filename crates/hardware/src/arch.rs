//! The machine description handed to compilers.

use crate::{HardwareError, PhysicalParams, ZonedGrid};
use serde::Serialize;

/// A complete neutral-atom machine description: zoned site grid, physical
/// parameters and number of independently-operating AOD arrays.
///
/// # Example
///
/// ```
/// use powermove_hardware::Architecture;
///
/// let arch = Architecture::for_qubits(40).with_num_aods(2);
/// assert_eq!(arch.num_aods(), 2);
/// assert!(arch.grid().num_compute_sites() >= 40);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Architecture {
    grid: ZonedGrid,
    params: PhysicalParams,
    num_aods: usize,
}

impl Architecture {
    /// Builds the paper's default architecture for an `n`-qubit program
    /// (Sec. 7.1): `ceil(sqrt(n))` grid, default physical parameters and a
    /// single AOD array.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    #[must_use]
    pub fn for_qubits(num_qubits: u32) -> Self {
        Architecture {
            grid: ZonedGrid::for_qubits(num_qubits),
            params: PhysicalParams::default(),
            num_aods: 1,
        }
    }

    /// Builds an architecture from explicit parts.
    ///
    /// A zero AOD count is clamped to 1 (with a debug assertion); use
    /// [`Architecture::try_with_num_aods`] to surface the error instead.
    #[must_use]
    pub fn new(grid: ZonedGrid, params: PhysicalParams, num_aods: usize) -> Self {
        debug_assert!(num_aods >= 1, "an architecture needs at least one AOD");
        Architecture {
            grid,
            params,
            num_aods: num_aods.max(1),
        }
    }

    /// Replaces the number of AOD arrays.
    ///
    /// A machine without a single AOD array cannot move qubits at all, so a
    /// zero count is a configuration bug: it trips a debug assertion, and in
    /// release builds it is clamped to 1 (the clamp is documented behaviour,
    /// not silent — the resolved count is surfaced through
    /// `CompileMetadata::num_aods` in every bench report). Use
    /// [`Architecture::try_with_num_aods`] where the count comes from
    /// untrusted input.
    #[must_use]
    pub fn with_num_aods(mut self, num_aods: usize) -> Self {
        debug_assert!(num_aods >= 1, "an architecture needs at least one AOD");
        self.num_aods = num_aods.max(1);
        self
    }

    /// Fallible variant of [`Architecture::with_num_aods`].
    ///
    /// # Errors
    ///
    /// Returns [`HardwareError::InvalidAodCount`] when `num_aods` is zero.
    pub fn try_with_num_aods(mut self, num_aods: usize) -> Result<Self, HardwareError> {
        if num_aods == 0 {
            return Err(HardwareError::InvalidAodCount { requested: 0 });
        }
        self.num_aods = num_aods;
        Ok(self)
    }

    /// Replaces the physical parameters.
    #[must_use]
    pub fn with_params(mut self, params: PhysicalParams) -> Self {
        self.params = params;
        self
    }

    /// Replaces the site grid.
    #[must_use]
    pub fn with_grid(mut self, grid: ZonedGrid) -> Self {
        self.grid = grid;
        self
    }

    /// The zoned site grid.
    #[must_use]
    pub fn grid(&self) -> &ZonedGrid {
        &self.grid
    }

    /// The physical parameters.
    #[must_use]
    pub fn params(&self) -> &PhysicalParams {
        &self.params
    }

    /// Number of independently-operating AOD arrays.
    #[must_use]
    pub const fn num_aods(&self) -> usize {
        self.num_aods
    }

    /// Checks that the machine can host a circuit of the given width.
    ///
    /// The computation zone alone must be able to hold every qubit (the
    /// non-storage compilation mode keeps all qubits there), and the storage
    /// zone must be able to hold every qubit for the with-storage initial
    /// layout.
    ///
    /// # Errors
    ///
    /// Returns [`HardwareError::InsufficientCapacity`] if either zone is too
    /// small.
    pub fn check_capacity(&self, num_qubits: u32) -> Result<(), HardwareError> {
        let needed = num_qubits as usize;
        if self.grid.num_compute_sites() < needed {
            return Err(HardwareError::InsufficientCapacity {
                qubits: num_qubits,
                sites: self.grid.num_compute_sites(),
            });
        }
        if self.grid.num_storage_sites() > 0 && self.grid.num_storage_sites() < needed {
            return Err(HardwareError::InsufficientCapacity {
                qubits: num_qubits,
                sites: self.grid.num_storage_sites(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Zone;

    #[test]
    fn default_architecture_has_one_aod() {
        let a = Architecture::for_qubits(10);
        assert_eq!(a.num_aods(), 1);
        assert!(a.params().is_valid());
    }

    #[test]
    fn zero_aods_is_a_validation_error() {
        let err = Architecture::for_qubits(10)
            .try_with_num_aods(0)
            .unwrap_err();
        assert!(matches!(
            err,
            HardwareError::InvalidAodCount { requested: 0 }
        ));
        let a = Architecture::for_qubits(10).try_with_num_aods(4).unwrap();
        assert_eq!(a.num_aods(), 4);
        assert_eq!(Architecture::for_qubits(10).with_num_aods(4).num_aods(), 4);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "at least one AOD"))]
    fn zero_aods_trips_the_debug_assertion_or_clamps() {
        // Debug builds assert; release builds clamp to one (documented).
        let a = Architecture::for_qubits(10).with_num_aods(0);
        assert_eq!(a.num_aods(), 1);
    }

    #[test]
    fn capacity_check_passes_for_default_grid() {
        for n in [1_u32, 10, 30, 100] {
            let a = Architecture::for_qubits(n);
            assert!(a.check_capacity(n).is_ok());
        }
    }

    #[test]
    fn capacity_check_fails_for_tiny_grid() {
        let grid = ZonedGrid::with_dims(2, 2, 4).unwrap();
        let a = Architecture::new(grid, PhysicalParams::default(), 1);
        assert!(a.check_capacity(10).is_err());
    }

    #[test]
    fn builder_replaces_parts() {
        let grid = ZonedGrid::with_dims(3, 3, 6).unwrap();
        let params = PhysicalParams {
            cz_fidelity: 0.99,
            ..PhysicalParams::default()
        };
        let a = Architecture::for_qubits(9)
            .with_grid(grid.clone())
            .with_params(params);
        assert_eq!(a.grid(), &grid);
        assert_eq!(a.params().cz_fidelity, 0.99);
        assert_eq!(a.grid().zone_size_um(Zone::Compute), (45.0, 45.0));
    }
}
