//! Zoned site grid: computation zone, inter-zone gap and storage zone.

use crate::{HardwareError, Point, SiteId};
use serde::Serialize;
use std::fmt;

/// The zone a site belongs to.
///
/// The zoned architecture (Sec. 2.1) separates a **computation zone**, where
/// the global Rydberg laser acts and CZ gates are executed, from a **storage
/// zone**, where qubits are unaffected by Rydberg excitation and suffer
/// negligible decoherence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Zone {
    /// Computation zone: Rydberg excitation acts here.
    Compute,
    /// Storage zone: protected from excitation and decoherence.
    Storage,
}

impl fmt::Display for Zone {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Zone::Compute => write!(f, "compute"),
            Zone::Storage => write!(f, "storage"),
        }
    }
}

/// The zoned 2D grid of trap sites.
///
/// The grid has `cols` columns shared by both zones. The computation zone has
/// `compute_rows` rows located at `y >= 0` (row 0 at `y = 0`, rows increasing
/// upwards); the storage zone has `storage_rows` rows located below the
/// inter-zone gap (storage row 0 at `y = -zone_gap`, rows decreasing
/// downwards). Adjacent sites are separated by `site_spacing`.
///
/// The default configuration of the paper (Sec. 7.1) for an `n`-qubit program
/// is `ceil(sqrt(n))` columns, `ceil(sqrt(n))` compute rows and
/// `2 * ceil(sqrt(n))` storage rows; see [`ZonedGrid::for_qubits`].
///
/// # Example
///
/// ```
/// use powermove_hardware::{Zone, ZonedGrid};
///
/// let grid = ZonedGrid::for_qubits(30);
/// assert_eq!(grid.cols(), 6);
/// assert_eq!(grid.compute_rows(), 6);
/// assert_eq!(grid.storage_rows(), 12);
/// let site = grid.site(Zone::Storage, 2, 1).unwrap();
/// assert_eq!(grid.zone_of(site), Zone::Storage);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ZonedGrid {
    cols: u32,
    compute_rows: u32,
    storage_rows: u32,
    site_spacing: f64,
    zone_gap: f64,
}

impl ZonedGrid {
    /// Builds the paper's default grid for an `n`-qubit program:
    /// `ceil(sqrt(n))` columns, `ceil(sqrt(n))` compute rows,
    /// `2*ceil(sqrt(n))` storage rows, 15 µm spacing and a 30 µm gap.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero.
    #[must_use]
    pub fn for_qubits(num_qubits: u32) -> Self {
        assert!(num_qubits > 0, "grid requires at least one qubit");
        let side = (f64::from(num_qubits)).sqrt().ceil() as u32;
        ZonedGrid {
            cols: side,
            compute_rows: side,
            storage_rows: 2 * side,
            site_spacing: 15e-6,
            zone_gap: 30e-6,
        }
    }

    /// Builds a grid with explicit dimensions and the default 15 µm / 30 µm
    /// spacing.
    ///
    /// # Errors
    ///
    /// Returns [`HardwareError::InvalidDimensions`] if `cols` or
    /// `compute_rows` is zero.
    pub fn with_dims(
        cols: u32,
        compute_rows: u32,
        storage_rows: u32,
    ) -> Result<Self, HardwareError> {
        if cols == 0 || compute_rows == 0 {
            return Err(HardwareError::InvalidDimensions {
                cols,
                compute_rows,
                storage_rows,
            });
        }
        Ok(ZonedGrid {
            cols,
            compute_rows,
            storage_rows,
            site_spacing: 15e-6,
            zone_gap: 30e-6,
        })
    }

    /// Overrides the inter-zone gap (meters).
    #[must_use]
    pub fn with_zone_gap(mut self, gap: f64) -> Self {
        self.zone_gap = gap;
        self
    }

    /// Number of columns (shared by both zones).
    #[must_use]
    pub const fn cols(&self) -> u32 {
        self.cols
    }

    /// Number of rows in the computation zone.
    #[must_use]
    pub const fn compute_rows(&self) -> u32 {
        self.compute_rows
    }

    /// Number of rows in the storage zone.
    #[must_use]
    pub const fn storage_rows(&self) -> u32 {
        self.storage_rows
    }

    /// Number of rows in the given zone.
    #[must_use]
    pub const fn rows_in(&self, zone: Zone) -> u32 {
        match zone {
            Zone::Compute => self.compute_rows,
            Zone::Storage => self.storage_rows,
        }
    }

    /// The column whose `x` coordinate is nearest to `x`, clamped to the
    /// grid.
    ///
    /// Within any single row, distance to a fixed point is non-decreasing
    /// as columns step away from this one in either direction — the seed of
    /// the expanding-ring enumeration ([`ZonedGrid::ring_sites`]).
    #[must_use]
    pub fn nearest_col(&self, x: f64) -> u32 {
        let c = (x / self.site_spacing).round();
        if c <= 0.0 {
            0
        } else if c >= f64::from(self.cols - 1) {
            self.cols - 1
        } else {
            c as u32
        }
    }

    /// Site spacing in meters.
    #[must_use]
    pub const fn site_spacing(&self) -> f64 {
        self.site_spacing
    }

    /// Inter-zone gap in meters.
    #[must_use]
    pub const fn zone_gap(&self) -> f64 {
        self.zone_gap
    }

    /// Number of sites in the computation zone.
    #[must_use]
    pub fn num_compute_sites(&self) -> usize {
        (self.cols * self.compute_rows) as usize
    }

    /// Number of sites in the storage zone.
    #[must_use]
    pub fn num_storage_sites(&self) -> usize {
        (self.cols * self.storage_rows) as usize
    }

    /// Total number of sites.
    #[must_use]
    pub fn num_sites(&self) -> usize {
        self.num_compute_sites() + self.num_storage_sites()
    }

    /// The site at `(col, row)` within the given zone, if it exists.
    ///
    /// Rows are counted from the zone boundary outwards: compute row 0 is the
    /// compute row closest to the storage zone, storage row 0 is the storage
    /// row closest to the compute zone.
    #[must_use]
    pub fn site(&self, zone: Zone, col: u32, row: u32) -> Option<SiteId> {
        if col >= self.cols {
            return None;
        }
        match zone {
            Zone::Compute => {
                if row >= self.compute_rows {
                    None
                } else {
                    Some(SiteId::new((row * self.cols + col) as usize))
                }
            }
            Zone::Storage => {
                if row >= self.storage_rows {
                    None
                } else {
                    Some(SiteId::new(
                        self.num_compute_sites() + (row * self.cols + col) as usize,
                    ))
                }
            }
        }
    }

    /// Returns `true` if `site` is a valid site of this grid.
    #[must_use]
    pub fn contains(&self, site: SiteId) -> bool {
        site.index() < self.num_sites()
    }

    /// The zone a site belongs to.
    ///
    /// # Panics
    ///
    /// Panics if the site does not belong to this grid.
    #[must_use]
    pub fn zone_of(&self, site: SiteId) -> Zone {
        assert!(self.contains(site), "site {site} out of range");
        if site.index() < self.num_compute_sites() {
            Zone::Compute
        } else {
            Zone::Storage
        }
    }

    /// The `(col, row)` coordinates of a site within its zone.
    ///
    /// # Panics
    ///
    /// Panics if the site does not belong to this grid.
    #[must_use]
    pub fn col_row(&self, site: SiteId) -> (u32, u32) {
        assert!(self.contains(site), "site {site} out of range");
        let idx = if site.index() < self.num_compute_sites() {
            site.index()
        } else {
            site.index() - self.num_compute_sites()
        } as u32;
        (idx % self.cols, idx / self.cols)
    }

    /// The physical position of a site.
    ///
    /// # Panics
    ///
    /// Panics if the site does not belong to this grid.
    #[must_use]
    pub fn position(&self, site: SiteId) -> Point {
        let (col, row) = self.col_row(site);
        let x = f64::from(col) * self.site_spacing;
        match self.zone_of(site) {
            Zone::Compute => Point::new(x, f64::from(row) * self.site_spacing),
            Zone::Storage => Point::new(x, -self.zone_gap - f64::from(row) * self.site_spacing),
        }
    }

    /// Euclidean distance between two sites, in meters.
    ///
    /// # Panics
    ///
    /// Panics if either site does not belong to this grid.
    #[must_use]
    pub fn distance(&self, a: SiteId, b: SiteId) -> f64 {
        self.position(a).distance(self.position(b))
    }

    /// Iterates over the sites of a zone in index order.
    pub fn sites_in(&self, zone: Zone) -> impl Iterator<Item = SiteId> + '_ {
        let (start, end) = match zone {
            Zone::Compute => (0, self.num_compute_sites()),
            Zone::Storage => (self.num_compute_sites(), self.num_sites()),
        };
        (start..end).map(SiteId::new)
    }

    /// Iterates over all sites.
    pub fn all_sites(&self) -> impl Iterator<Item = SiteId> + '_ {
        (0..self.num_sites()).map(SiteId::new)
    }

    /// Width and height of a zone in micrometers, as reported in Table 2 of
    /// the paper (`15·cols x 15·rows` for compute/storage).
    #[must_use]
    pub fn zone_size_um(&self, zone: Zone) -> (f64, f64) {
        let w = f64::from(self.cols) * self.site_spacing * 1e6;
        match zone {
            Zone::Compute => (w, f64::from(self.compute_rows) * self.site_spacing * 1e6),
            Zone::Storage => (w, f64::from(self.storage_rows) * self.site_spacing * 1e6),
        }
    }

    /// Width and height of the inter-zone region in micrometers
    /// (`15·cols x zone_gap`).
    #[must_use]
    pub fn inter_zone_size_um(&self) -> (f64, f64) {
        (
            f64::from(self.cols) * self.site_spacing * 1e6,
            self.zone_gap * 1e6,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_dimensions_follow_paper_rule() {
        let g = ZonedGrid::for_qubits(50);
        // ceil(sqrt(50)) = 8
        assert_eq!(g.cols(), 8);
        assert_eq!(g.compute_rows(), 8);
        assert_eq!(g.storage_rows(), 16);
        assert_eq!(g.num_compute_sites(), 64);
        assert_eq!(g.num_storage_sites(), 128);
        assert_eq!(g.num_sites(), 192);
    }

    #[test]
    fn zone_sizes_match_table_2() {
        // Table 2: 30-qubit entries use 90x90 compute, 90x30 inter, 90x180 storage.
        let g = ZonedGrid::for_qubits(30);
        assert_eq!(g.zone_size_um(Zone::Compute), (90.0, 90.0));
        assert_eq!(g.inter_zone_size_um(), (90.0, 30.0));
        assert_eq!(g.zone_size_um(Zone::Storage), (90.0, 180.0));
    }

    #[test]
    fn site_indexing_round_trips() {
        let g = ZonedGrid::for_qubits(20); // 5x5 compute, 5x10 storage
        for zone in [Zone::Compute, Zone::Storage] {
            let rows = match zone {
                Zone::Compute => g.compute_rows(),
                Zone::Storage => g.storage_rows(),
            };
            for row in 0..rows {
                for col in 0..g.cols() {
                    let site = g.site(zone, col, row).unwrap();
                    assert_eq!(g.zone_of(site), zone);
                    assert_eq!(g.col_row(site), (col, row));
                }
            }
        }
    }

    #[test]
    fn out_of_range_site_is_none() {
        let g = ZonedGrid::for_qubits(10); // 4 cols
        assert!(g.site(Zone::Compute, 4, 0).is_none());
        assert!(g.site(Zone::Compute, 0, 4).is_none());
        assert!(g.site(Zone::Storage, 0, 8).is_none());
    }

    #[test]
    fn positions_respect_spacing_and_gap() {
        let g = ZonedGrid::for_qubits(9); // 3x3 compute, 3x6 storage
        let c00 = g.position(g.site(Zone::Compute, 0, 0).unwrap());
        let c10 = g.position(g.site(Zone::Compute, 1, 0).unwrap());
        let c01 = g.position(g.site(Zone::Compute, 0, 1).unwrap());
        let s00 = g.position(g.site(Zone::Storage, 0, 0).unwrap());
        let s01 = g.position(g.site(Zone::Storage, 0, 1).unwrap());
        assert!((c10.x - c00.x - 15e-6).abs() < 1e-12);
        assert!((c01.y - c00.y - 15e-6).abs() < 1e-12);
        // Storage row 0 sits exactly one zone gap below compute row 0.
        assert!((c00.y - s00.y - 30e-6).abs() < 1e-12);
        // Storage rows grow downwards.
        assert!(s01.y < s00.y);
    }

    #[test]
    fn distance_between_adjacent_compute_sites() {
        let g = ZonedGrid::for_qubits(16);
        let a = g.site(Zone::Compute, 0, 0).unwrap();
        let b = g.site(Zone::Compute, 1, 0).unwrap();
        assert!((g.distance(a, b) - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn sites_in_zone_counts() {
        let g = ZonedGrid::for_qubits(12); // 4 cols: 16 compute, 32 storage
        assert_eq!(g.sites_in(Zone::Compute).count(), g.num_compute_sites());
        assert_eq!(g.sites_in(Zone::Storage).count(), g.num_storage_sites());
        assert_eq!(g.all_sites().count(), g.num_sites());
        assert!(g
            .sites_in(Zone::Storage)
            .all(|s| g.zone_of(s) == Zone::Storage));
    }

    #[test]
    fn with_dims_validates() {
        assert!(ZonedGrid::with_dims(0, 3, 3).is_err());
        assert!(ZonedGrid::with_dims(3, 0, 3).is_err());
        let g = ZonedGrid::with_dims(3, 3, 0).unwrap();
        assert_eq!(g.num_storage_sites(), 0);
    }

    #[test]
    fn builder_overrides() {
        let g = ZonedGrid::for_qubits(4).with_zone_gap(40e-6);
        assert_eq!(g.site_spacing(), 15e-6);
        assert_eq!(g.zone_gap(), 40e-6);
        let c = g.position(g.site(Zone::Compute, 0, 0).unwrap());
        let s = g.position(g.site(Zone::Storage, 0, 0).unwrap());
        assert!((c.y - s.y - 40e-6).abs() < 1e-12);
    }

    #[test]
    fn rows_in_matches_the_per_zone_accessors() {
        let g = ZonedGrid::for_qubits(20);
        assert_eq!(g.rows_in(Zone::Compute), g.compute_rows());
        assert_eq!(g.rows_in(Zone::Storage), g.storage_rows());
    }

    #[test]
    fn nearest_col_rounds_and_clamps() {
        let g = ZonedGrid::for_qubits(16); // 4 cols, 15 µm spacing
        assert_eq!(g.nearest_col(0.0), 0);
        assert_eq!(g.nearest_col(15e-6), 1);
        assert_eq!(g.nearest_col(22e-6), 1); // 22/15 rounds down
        assert_eq!(g.nearest_col(23e-6), 2); // 23/15 rounds up
        assert_eq!(g.nearest_col(-40e-6), 0); // clamped left
        assert_eq!(g.nearest_col(1.0), 3); // clamped right
    }

    #[test]
    fn zone_display() {
        assert_eq!(Zone::Compute.to_string(), "compute");
        assert_eq!(Zone::Storage.to_string(), "storage");
    }
}
