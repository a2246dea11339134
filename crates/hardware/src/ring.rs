//! Expanding-ring enumeration of a zone's sites by distance to an anchor.
//!
//! [`ZonedGrid::ring_sites`] yields every site of one zone in non-decreasing
//! Euclidean distance from an anchor point, ties broken by site index. It is
//! the geometric substrate of the routing layer's pruned free-site search: a
//! consumer that can reject sites cheaply walks the ring outwards and stops
//! as soon as the ring distance alone can no longer beat its best candidate
//! — an A*-style cutoff that never changes which site wins, only how many
//! are examined.
//!
//! The enumerator exploits the grid structure instead of sorting all sites:
//! within one row, distance to the anchor is minimal at the column nearest
//! the anchor's `x` ([`ZonedGrid::nearest_col`]) and non-decreasing stepping
//! away in either direction. Each row therefore contributes two monotone
//! *arms* (left and right of the seed column), and a binary heap over the
//! arms' current heads merges all rows into one globally sorted stream.
//! Memory is `O(rows)`; each `next()` costs `O(log rows)`.

use crate::{Point, SiteId, Zone, ZonedGrid};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Which direction an arm extends from its row's seed column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Arm {
    Left,
    Right,
}

/// One arm head waiting in the frontier heap.
#[derive(Debug, Clone, Copy)]
struct Head {
    dist: f64,
    site: SiteId,
    pos: Point,
    row: u32,
    col: u32,
    arm: Arm,
}

impl PartialEq for Head {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Head {}

impl PartialOrd for Head {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Head {
    // Reversed on purpose: `BinaryHeap` is a max-heap and the enumerator
    // pops the *nearest* head first, ties broken toward the smaller site
    // index (the planner's deterministic total order). `total_cmp` gives a
    // lawful order; distances are never NaN.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.site.cmp(&self.site))
    }
}

/// Iterator over one zone's sites in non-decreasing distance from an anchor
/// point, ties broken by site index. Created by [`ZonedGrid::ring_sites`];
/// yields `(site, position, distance)` triples.
#[derive(Debug, Clone)]
pub struct RingEnumerator<'g> {
    grid: &'g ZonedGrid,
    zone: Zone,
    anchor: Point,
    heap: BinaryHeap<Head>,
}

impl ZonedGrid {
    /// Enumerates the sites of `zone` in non-decreasing distance from
    /// `anchor`, ties broken by site index.
    ///
    /// # Example
    ///
    /// ```
    /// use powermove_hardware::{Zone, ZonedGrid};
    ///
    /// let grid = ZonedGrid::for_qubits(9);
    /// let anchor = grid.position(grid.site(Zone::Compute, 1, 1).unwrap());
    /// let mut ring = grid.ring_sites(Zone::Compute, anchor);
    /// // The anchor's own site comes first, at distance zero.
    /// let (site, _, dist) = ring.next().unwrap();
    /// assert_eq!(site, grid.site(Zone::Compute, 1, 1).unwrap());
    /// assert_eq!(dist, 0.0);
    /// ```
    #[must_use]
    pub fn ring_sites(&self, zone: Zone, anchor: Point) -> RingEnumerator<'_> {
        let mut ring = RingEnumerator {
            grid: self,
            zone,
            anchor,
            heap: BinaryHeap::new(),
        };
        let seed = self.nearest_col(anchor.x);
        for row in 0..self.rows_in(zone) {
            ring.push(row, seed, Arm::Left);
            if seed + 1 < self.cols() {
                ring.push(row, seed + 1, Arm::Right);
            }
        }
        ring
    }
}

impl RingEnumerator<'_> {
    fn push(&mut self, row: u32, col: u32, arm: Arm) {
        let site = self
            .grid
            .site(self.zone, col, row)
            .expect("arm head is on the grid");
        let pos = self.grid.position(site);
        self.heap.push(Head {
            dist: pos.distance(self.anchor),
            site,
            pos,
            row,
            col,
            arm,
        });
    }
}

impl Iterator for RingEnumerator<'_> {
    type Item = (SiteId, Point, f64);

    fn next(&mut self) -> Option<Self::Item> {
        let head = self.heap.pop()?;
        // Advance the popped head's arm: the successor is farther from the
        // anchor (column distance is monotone along an arm), so the global
        // stream stays sorted.
        match head.arm {
            Arm::Left => {
                if head.col > 0 {
                    self.push(head.row, head.col - 1, Arm::Left);
                }
            }
            Arm::Right => {
                if head.col + 1 < self.grid.cols() {
                    self.push(head.row, head.col + 1, Arm::Right);
                }
            }
        }
        Some((head.site, head.pos, head.dist))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference order: sort all sites of the zone by
    /// `(distance, site index)` under the same total order the enumerator
    /// promises.
    fn sorted_reference(grid: &ZonedGrid, zone: Zone, anchor: Point) -> Vec<(SiteId, f64)> {
        let mut sites: Vec<(SiteId, f64)> = grid
            .sites_in(zone)
            .map(|s| (s, grid.position(s).distance(anchor)))
            .collect();
        sites.sort_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)));
        sites
    }

    fn anchors(grid: &ZonedGrid) -> Vec<Point> {
        let mut anchors: Vec<Point> = grid.all_sites().map(|s| grid.position(s)).collect();
        // Off-grid anchors: beyond every edge and between columns.
        anchors.push(Point::new(-1e-3, 0.0));
        anchors.push(Point::new(1e-3, -1e-3));
        anchors.push(Point::new(22e-6, 7e-6));
        anchors
    }

    #[test]
    fn ring_matches_the_sorted_reference_exactly() {
        for n in [1, 2, 5, 9, 20, 50] {
            let grid = ZonedGrid::for_qubits(n);
            for zone in [Zone::Compute, Zone::Storage] {
                for anchor in anchors(&grid) {
                    let got: Vec<(SiteId, f64)> = grid
                        .ring_sites(zone, anchor)
                        .map(|(s, _, d)| (s, d))
                        .collect();
                    assert_eq!(
                        got,
                        sorted_reference(&grid, zone, anchor),
                        "ring order diverged for n={n} zone={zone} anchor={anchor}"
                    );
                }
            }
        }
    }

    #[test]
    fn ring_positions_and_distances_are_consistent() {
        let grid = ZonedGrid::for_qubits(12);
        let anchor = Point::new(10e-6, -50e-6);
        for (site, pos, dist) in grid.ring_sites(Zone::Storage, anchor) {
            assert_eq!(pos, grid.position(site));
            assert_eq!(dist, pos.distance(anchor));
        }
    }

    #[test]
    fn empty_storage_zone_yields_nothing() {
        let grid = ZonedGrid::with_dims(3, 3, 0).unwrap();
        assert_eq!(
            grid.ring_sites(Zone::Storage, Point::new(0.0, 0.0)).count(),
            0
        );
    }
}
