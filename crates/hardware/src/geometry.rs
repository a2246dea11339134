//! Planar geometry primitives: physical positions and site identifiers.

use serde::Serialize;
use std::fmt;

/// A position in the 2D atom plane, in **meters**.
///
/// The storage zone lies at negative `y`, the computation zone at
/// non-negative `y` (see [`crate::ZonedGrid`] for the exact layout).
///
/// # Example
///
/// ```
/// use powermove_hardware::Point;
///
/// let a = Point::from_um(0.0, 0.0);
/// let b = Point::from_um(30.0, 40.0);
/// assert!((a.distance(b) - 50e-6).abs() < 1e-12);
/// assert!((b.x - 30e-6).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Point {
    /// Horizontal coordinate in meters.
    pub x: f64,
    /// Vertical coordinate in meters.
    pub y: f64,
}

impl Point {
    /// Creates a point from coordinates in meters.
    #[must_use]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Creates a point from coordinates in micrometers.
    #[must_use]
    pub fn from_um(x_um: f64, y_um: f64) -> Self {
        Point {
            x: x_um * 1e-6,
            y: y_um * 1e-6,
        }
    }

    /// The horizontal coordinate in micrometers.
    #[must_use]
    fn x_um(&self) -> f64 {
        self.x * 1e6
    }

    /// The vertical coordinate in micrometers.
    #[must_use]
    fn y_um(&self) -> f64 {
        self.y * 1e6
    }

    /// Euclidean distance to another point, in meters.
    #[must_use]
    pub fn distance(&self, other: Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.1} um, {:.1} um)", self.x_um(), self.y_um())
    }
}

/// Identifier of a trap site in a [`crate::ZonedGrid`].
///
/// Sites are indexed densely: all computation-zone sites first (row-major),
/// followed by all storage-zone sites (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Default)]
pub struct SiteId(usize);

impl SiteId {
    /// Creates a site identifier from a dense index.
    #[must_use]
    pub const fn new(index: usize) -> Self {
        SiteId(index)
    }

    /// The dense index of the site.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

impl From<usize> for SiteId {
    fn from(index: usize) -> Self {
        SiteId(index)
    }
}

impl From<SiteId> for usize {
    fn from(site: SiteId) -> Self {
        site.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance_is_euclidean() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3e-6, 4e-6);
        assert!((a.distance(b) - 5e-6).abs() < 1e-15);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn micrometer_round_trip() {
        let p = Point::from_um(15.0, -30.0);
        assert!((p.x - 15e-6).abs() < 1e-15);
        assert!((p.y + 30e-6).abs() < 1e-15);
        assert!((p.x_um() - 15.0).abs() < 1e-9);
        assert!((p.y_um() + 30.0).abs() < 1e-9);
    }

    #[test]
    fn point_display_in_um() {
        let p = Point::from_um(15.0, -30.0);
        assert_eq!(p.to_string(), "(15.0 um, -30.0 um)");
    }

    #[test]
    fn site_id_round_trip() {
        let s = SiteId::new(7);
        assert_eq!(s.index(), 7);
        assert_eq!(usize::from(s), 7);
        assert_eq!(SiteId::from(7_usize), s);
        assert_eq!(s.to_string(), "s7");
    }
}
