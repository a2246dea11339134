//! Mapping from logical qubits to trap sites.

use crate::ScheduleError;
use powermove_circuit::Qubit;
use powermove_hardware::{Architecture, SiteId, Zone};
use serde::Serialize;
use std::collections::BTreeMap;

/// The assignment of logical qubits to trap sites at one point in time.
///
/// A site may hold at most two qubits (an interacting pair brought together
/// for a CZ gate); a single qubit otherwise occupies a site alone
/// (Sec. 5.1 of the paper).
///
/// # Example
///
/// ```
/// use powermove_hardware::{Architecture, Zone};
/// use powermove_schedule::Layout;
/// use powermove_circuit::Qubit;
///
/// let arch = Architecture::for_qubits(9);
/// let layout = Layout::row_major(&arch, 9, Zone::Compute).unwrap();
/// assert!(layout.site_of(Qubit::new(0)).is_some());
/// assert_eq!(layout.num_placed(), 9);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Layout {
    sites: Vec<Option<SiteId>>,
    occupants: BTreeMap<SiteId, Vec<Qubit>>,
}

impl Layout {
    /// Creates a layout with `num_qubits` unplaced qubits.
    #[must_use]
    pub fn empty(num_qubits: u32) -> Self {
        Layout {
            sites: vec![None; num_qubits as usize],
            occupants: BTreeMap::new(),
        }
    }

    /// Places the first `num_qubits` qubits row-major in the given zone:
    /// qubit `i` goes to column `i % cols`, row `i / cols` of that zone.
    ///
    /// This is the paper's initial layout: entirely in the storage zone for
    /// the with-storage mode (Sec. 4.2), entirely in the computation zone
    /// for the non-storage mode and for the Enola baseline.
    ///
    /// # Errors
    ///
    /// Returns [`ScheduleError::SiteOutOfRange`] if the zone has fewer sites
    /// than qubits.
    pub fn row_major(
        arch: &Architecture,
        num_qubits: u32,
        zone: Zone,
    ) -> Result<Self, ScheduleError> {
        let grid = arch.grid();
        let cols = grid.cols();
        let mut layout = Layout::empty(num_qubits);
        for i in 0..num_qubits {
            let col = i % cols;
            let row = i / cols;
            let site = grid
                .site(zone, col, row)
                .ok_or(ScheduleError::SiteOutOfRange {
                    site: SiteId::new(usize::MAX),
                })?;
            layout.place(Qubit::new(i), site);
        }
        Ok(layout)
    }

    /// Number of qubits tracked by the layout (placed or not).
    #[must_use]
    pub fn num_qubits(&self) -> u32 {
        self.sites.len() as u32
    }

    /// Number of qubits currently placed on a site.
    #[must_use]
    pub fn num_placed(&self) -> usize {
        self.sites.iter().filter(|s| s.is_some()).count()
    }

    /// The site currently holding `q`, if any.
    #[must_use]
    pub fn site_of(&self, q: Qubit) -> Option<SiteId> {
        self.sites.get(q.as_usize()).copied().flatten()
    }

    /// The qubits currently occupying `site`.
    #[must_use]
    pub fn occupants(&self, site: SiteId) -> &[Qubit] {
        self.occupants.get(&site).map_or(&[], Vec::as_slice)
    }

    /// Number of qubits currently occupying `site`.
    #[must_use]
    pub fn occupancy(&self, site: SiteId) -> usize {
        self.occupants(site).len()
    }

    /// Returns `true` if no qubit occupies `site`.
    #[must_use]
    pub fn is_empty_site(&self, site: SiteId) -> bool {
        self.occupancy(site) == 0
    }

    /// Places (or re-places) `q` on `site`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside the layout width.
    pub fn place(&mut self, q: Qubit, site: SiteId) {
        assert!(
            q.as_usize() < self.sites.len(),
            "qubit {q} outside layout width"
        );
        self.remove(q);
        self.sites[q.as_usize()] = Some(site);
        self.occupants.entry(site).or_default().push(q);
    }

    /// Removes `q` from its current site, if placed.
    pub fn remove(&mut self, q: Qubit) {
        if let Some(Some(old)) = self.sites.get(q.as_usize()).copied().map(Some) {
            if let Some(old_site) = old {
                if let Some(list) = self.occupants.get_mut(&old_site) {
                    list.retain(|&x| x != q);
                    if list.is_empty() {
                        self.occupants.remove(&old_site);
                    }
                }
            }
            self.sites[q.as_usize()] = None;
        }
    }

    /// Moves `q` to `site` (equivalent to [`Layout::place`], provided for
    /// readability at call sites that express movement).
    pub fn move_qubit(&mut self, q: Qubit, site: SiteId) {
        self.place(q, site);
    }

    /// Iterates over `(qubit, site)` pairs for every placed qubit.
    pub fn iter(&self) -> impl Iterator<Item = (Qubit, SiteId)> + '_ {
        self.sites
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.map(|site| (Qubit::new(i as u32), site)))
    }

    /// Iterates over occupied sites and their occupants.
    pub fn occupied_sites(&self) -> impl Iterator<Item = (SiteId, &[Qubit])> + '_ {
        self.occupants.iter().map(|(s, v)| (*s, v.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn row_major_compute_layout() {
        let arch = Architecture::for_qubits(10); // 4 cols
        let layout = Layout::row_major(&arch, 10, Zone::Compute).unwrap();
        assert_eq!(layout.num_placed(), 10);
        // Qubit 5 -> col 1, row 1.
        let expected = arch.grid().site(Zone::Compute, 1, 1).unwrap();
        assert_eq!(layout.site_of(q(5)), Some(expected));
        assert!(layout.occupied_sites().all(|(_, qs)| qs.len() == 1));
    }

    #[test]
    fn row_major_storage_layout() {
        let arch = Architecture::for_qubits(10);
        let layout = Layout::row_major(&arch, 10, Zone::Storage).unwrap();
        for (_, site) in layout.iter() {
            assert_eq!(arch.grid().zone_of(site), Zone::Storage);
        }
    }

    #[test]
    fn row_major_fails_when_zone_too_small() {
        let arch = Architecture::for_qubits(4); // 2x2 compute
        assert!(Layout::row_major(&arch, 5, Zone::Compute).is_err());
    }

    #[test]
    fn place_and_move_update_occupancy() {
        let mut layout = Layout::empty(3);
        let s0 = SiteId::new(0);
        let s1 = SiteId::new(1);
        layout.place(q(0), s0);
        layout.place(q(1), s0);
        assert_eq!(layout.occupancy(s0), 2);
        layout.move_qubit(q(1), s1);
        assert_eq!(layout.occupancy(s0), 1);
        assert_eq!(layout.occupants(s1), &[q(1)]);
        assert_eq!(layout.site_of(q(1)), Some(s1));
    }

    #[test]
    fn remove_clears_qubit() {
        let mut layout = Layout::empty(2);
        let s = SiteId::new(3);
        layout.place(q(0), s);
        layout.remove(q(0));
        assert!(layout.is_empty_site(s));
        assert_eq!(layout.site_of(q(0)), None);
        assert_eq!(layout.num_placed(), 0);
    }

    #[test]
    fn replacing_moves_not_duplicates() {
        let mut layout = Layout::empty(1);
        layout.place(q(0), SiteId::new(0));
        layout.place(q(0), SiteId::new(1));
        assert!(layout.is_empty_site(SiteId::new(0)));
        assert_eq!(layout.occupancy(SiteId::new(1)), 1);
        assert_eq!(layout.num_placed(), 1);
    }

    #[test]
    fn iter_lists_placed_qubits() {
        let mut layout = Layout::empty(3);
        layout.place(q(0), SiteId::new(5));
        layout.place(q(2), SiteId::new(7));
        let pairs: Vec<_> = layout.iter().collect();
        assert_eq!(pairs, vec![(q(0), SiteId::new(5)), (q(2), SiteId::new(7))]);
        assert_eq!(layout.occupied_sites().count(), 2);
    }

    #[test]
    #[should_panic(expected = "outside layout width")]
    fn place_out_of_width_panics() {
        let mut layout = Layout::empty(1);
        layout.place(q(3), SiteId::new(0));
    }
}
