//! The spatial free-site index: per-zone, row-bucketed bitsets over the
//! planned-free sites, plus the best-first walk that feeds the pruned
//! free-site search in `state.rs`.
//!
//! Every undecided pair of a stage asks the same question — "which free
//! site of this zone minimizes distance-to-anchor plus policy bias?" — and
//! the arena's free list answers it by scanning all `m` free sites, so a
//! stage with `k` undecided pairs costs `O(k·m)` score evaluations. The
//! index instead walks *free* sites in non-decreasing *walk key*, so the
//! caller can stop as soon as the key can no longer beat its best
//! candidate:
//!
//! * without attractors the key is the distance to the anchor — the bitset
//!   analogue of `ZonedGrid::ring_sites` — and the caller adds the policy's
//!   admissible `SitePolicy::min_bias`;
//! * with attractors (`SitePolicy::attractors`) the key is the exact
//!   attractor score `C(x) = |x − a| + Σ wᵢ·|x − pᵢ|`, so sites toward the
//!   pair's future partners come first instead of last.
//!
//! Both keys are convex along every grid row, so each row splits at its
//! argmin column into two arms whose keys never decrease: an arm head's key
//! bounds the rest of its arm. Rows enter the frontier lazily, keyed by the
//! row floor `|y − a_y| + Σ wᵢ·|y − pᵢ_y|`, a lower bound on every key in
//! the row that is itself convex over the rows.
//!
//! The index mirrors the arena free lists exactly: `OccupancyArena` calls
//! [`SiteIndex::set_free`] / [`SiteIndex::clear_free`] on the same empty /
//! non-empty transitions that push and swap-remove free-list entries, so
//! membership is O(1) to maintain and never rebuilt. Storage is one bit
//! per site, bucketed by grid row; finding the nearest free column within
//! a row is a masked word scan (`trailing_zeros` / `leading_zeros`).

use crate::routing::state::Attractors;
use powermove_hardware::{Point, SiteId, Zone, ZonedGrid};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Metadata counter name: free-site candidates examined (scored or
/// vacancy-checked) by the planner's free-site queries.
pub const SITE_SCANS: &str = "site_scans";

/// Metadata counter name: free-site candidates the spatial index skipped —
/// sites a linear scan would have scored but the walk's cutoff proved
/// irrelevant.
pub const SITES_PRUNED: &str = "sites_pruned";

/// Running totals behind the [`SITE_SCANS`] / [`SITES_PRUNED`] counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ScanStats {
    /// Free-site candidates examined across all queries.
    pub(crate) scans: u64,
    /// Free-site candidates skipped by the pruning cutoff.
    pub(crate) pruned: u64,
}

/// One zone's free-site bitset, bucketed by grid row.
#[derive(Debug, Clone, Default)]
struct ZoneBits {
    cols: u32,
    rows: u32,
    words_per_row: usize,
    bits: Vec<u64>,
}

/// Mask selecting bits `0..=bit` of a word.
fn mask_up_to(bit: u32) -> u64 {
    if bit >= 63 {
        u64::MAX
    } else {
        (1u64 << (bit + 1)) - 1
    }
}

/// Mask selecting bits `bit..=63` of a word.
fn mask_from(bit: u32) -> u64 {
    u64::MAX << bit
}

impl ZoneBits {
    fn new(cols: u32, rows: u32) -> Self {
        let words_per_row = (cols as usize).div_ceil(64);
        ZoneBits {
            cols,
            rows,
            words_per_row,
            bits: vec![0; words_per_row * rows as usize],
        }
    }

    fn word_bit(&self, local: usize) -> (usize, u64) {
        let (row, col) = (local / self.cols as usize, local % self.cols as usize);
        (row * self.words_per_row + col / 64, 1u64 << (col % 64))
    }

    fn set(&mut self, local: usize) {
        let (word, bit) = self.word_bit(local);
        self.bits[word] |= bit;
    }

    fn clear(&mut self, local: usize) {
        let (word, bit) = self.word_bit(local);
        self.bits[word] &= !bit;
    }

    /// The free column nearest to and at most `col` in `row`, if any.
    fn free_at_or_left(&self, row: u32, col: u32) -> Option<u32> {
        let base = row as usize * self.words_per_row;
        let mut w = col as usize / 64;
        let mut word = self.bits[base + w] & mask_up_to(col % 64);
        loop {
            if word != 0 {
                return Some((w * 64) as u32 + 63 - word.leading_zeros());
            }
            if w == 0 {
                return None;
            }
            w -= 1;
            word = self.bits[base + w];
        }
    }

    /// The free column nearest to and at least `col` in `row`, if any.
    fn free_at_or_right(&self, row: u32, col: u32) -> Option<u32> {
        let base = row as usize * self.words_per_row;
        let mut w = col as usize / 64;
        let mut word = self.bits[base + w] & mask_from(col % 64);
        loop {
            if word != 0 {
                return Some((w * 64) as u32 + word.trailing_zeros());
            }
            w += 1;
            if w >= self.words_per_row {
                return None;
            }
            word = self.bits[base + w];
        }
    }
}

/// The per-zone free-site bitsets the arena maintains alongside its free
/// lists. Membership transitions are O(1); [`FreeRing`] walks members in
/// non-decreasing walk key.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteIndex {
    /// `[compute, storage]`, matching the arena's `zone_index` slots.
    zones: [ZoneBits; 2],
    compute_sites: usize,
}

fn zone_slot(zone: Zone) -> usize {
    match zone {
        Zone::Compute => 0,
        Zone::Storage => 1,
    }
}

impl SiteIndex {
    pub(crate) fn new(grid: &ZonedGrid) -> Self {
        SiteIndex {
            zones: [
                ZoneBits::new(grid.cols(), grid.rows_in(Zone::Compute)),
                ZoneBits::new(grid.cols(), grid.rows_in(Zone::Storage)),
            ],
            compute_sites: grid.num_compute_sites(),
        }
    }

    fn local(&self, zone: Zone, site: SiteId) -> usize {
        match zone {
            Zone::Compute => site.index(),
            Zone::Storage => site.index() - self.compute_sites,
        }
    }

    /// Marks `site` free; paired with the arena's free-list push.
    pub(crate) fn set_free(&mut self, zone: Zone, site: SiteId) {
        let local = self.local(zone, site);
        self.zones[zone_slot(zone)].set(local);
    }

    /// Marks `site` occupied; paired with the arena's free-list
    /// swap-remove.
    pub(crate) fn clear_free(&mut self, zone: Zone, site: SiteId) {
        let local = self.local(zone, site);
        self.zones[zone_slot(zone)].clear(local);
    }
}

/// Reusable allocation for the best-first free-site walk: the frontier heap
/// of row entries and per-row arm heads. Lives in the routing state so
/// repeated queries allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchScratch {
    heap: BinaryHeap<Head>,
}

/// What a frontier entry stands for: a row waiting to be split into arms,
/// or an arm head (a free site) extending from its row's argmin column.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    /// A row whose successors lie toward row 0.
    RowDown,
    /// A row whose successors lie toward the last row.
    RowUp,
    /// An arm head whose successors lie toward column 0.
    Left,
    /// An arm head whose successors lie toward the last column.
    Right,
}

/// One entry of the free-site frontier.
#[derive(Debug, Clone, Copy)]
struct Head {
    /// The walk key: a site's distance or attractor score, or a row's
    /// floor.
    key: f64,
    /// Distance to the anchor (sites only).
    dist: f64,
    /// Site index, or the row number for row entries.
    site: usize,
    pos: Point,
    row: u32,
    col: u32,
    step: Step,
}

impl Head {
    fn is_row(&self) -> bool {
        matches!(self.step, Step::RowDown | Step::RowUp)
    }

    fn visit(self) -> Visit {
        Visit {
            site: SiteId::new(self.site),
            pos: self.pos,
            dist: self.dist,
            key: self.key,
        }
    }
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
    // Reversed: `BinaryHeap` is a max-heap and the walk pops the smallest
    // key first. At equal keys rows pop before sites (a row's floor can
    // equal its best site's key, and that site must compete on the
    // site-index tie-break), then sites toward the smaller index. Keys are
    // never NaN, so `total_cmp` agrees with the planner's `partial_cmp`.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| self.is_row().cmp(&other.is_row()))
            .then_with(|| other.site.cmp(&self.site))
    }
}

/// One free site yielded by [`FreeRing::next_free`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Visit {
    pub(crate) site: SiteId,
    pub(crate) pos: Point,
    /// Distance to the anchor.
    pub(crate) dist: f64,
    /// The walk key: a lower bound on the key of every site not yet
    /// yielded (exact for distances, up to rounding for attractor scores).
    pub(crate) key: f64,
}

/// The smallest `i < n` with `f(i) <= f(i + 1)` (or `n - 1`): the argmin of
/// a function convex over `0..n`, by bisection on its forward difference.
fn convex_argmin(n: u32, f: impl Fn(u32) -> f64) -> u32 {
    let (mut lo, mut hi) = (0, n - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if f(mid) <= f(mid + 1) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// A best-first walk over one zone's *free* sites in non-decreasing walk
/// key (see the module docs): anchor distance without attractors — exactly
/// `ZonedGrid::ring_sites` restricted to the index's free bits — and the
/// attractor score with them. Occupied runs are skipped in O(words)
/// instead of visiting every site.
pub(crate) struct FreeRing<'a> {
    bits: &'a ZoneBits,
    grid: &'a ZonedGrid,
    zone: Zone,
    heap: &'a mut BinaryHeap<Head>,
    anchor: Point,
    attractors: Attractors<'a>,
}

impl<'a> FreeRing<'a> {
    pub(crate) fn new(
        index: &'a SiteIndex,
        grid: &'a ZonedGrid,
        zone: Zone,
        anchor: Point,
        attractors: Attractors<'a>,
        scratch: &'a mut SearchScratch,
    ) -> Self {
        scratch.heap.clear();
        let mut ring = FreeRing {
            bits: &index.zones[zone_slot(zone)],
            grid,
            zone,
            heap: &mut scratch.heap,
            anchor,
            attractors,
        };
        // Grids always have columns; a zone may have no rows.
        let rows = ring.bits.rows;
        if rows > 0 {
            let seed = convex_argmin(rows, |row| ring.row_floor(row));
            ring.push_row(seed, Step::RowDown);
            if seed + 1 < rows {
                ring.push_row(seed + 1, Step::RowUp);
            }
        }
        ring
    }

    fn position(&self, col: u32, row: u32) -> (SiteId, Point) {
        let site = self
            .grid
            .site(self.zone, col, row)
            .expect("indexed site is on the grid");
        (site, self.grid.position(site))
    }

    /// A lower bound on the key of every site in `row`: `hypot(dx, dy) ≥
    /// |dy|` term by term, summed in the key's own order.
    fn row_floor(&self, row: u32) -> f64 {
        let y = self.position(0, row).1.y;
        (y - self.anchor.y).abs() + self.attractors.row_floor(y)
    }

    /// The walk key of a site at `pos`, `dist` away from the anchor — the
    /// same sum, in the same order, as the planner's score.
    fn key(&self, pos: Point, dist: f64) -> f64 {
        if self.attractors.is_empty() {
            dist
        } else {
            dist + self.attractors.penalty(pos)
        }
    }

    fn push_row(&mut self, row: u32, step: Step) {
        self.heap.push(Head {
            key: self.row_floor(row),
            dist: 0.0,
            site: row as usize,
            pos: self.anchor,
            row,
            col: 0,
            step,
        });
    }

    fn push_site(&mut self, row: u32, col: u32, step: Step) {
        let (site, pos) = self.position(col, row);
        let dist = pos.distance(self.anchor);
        self.heap.push(Head {
            key: self.key(pos, dist),
            dist,
            site: site.index(),
            pos,
            row,
            col,
            step,
        });
    }

    /// Splits `row` at its argmin column into a left arm (seed included) and
    /// a right arm, each headed by its first free site. Without attractors
    /// the argmin is `nearest_col(anchor.x)` in closed form; with them, a
    /// bisection on the key along the row.
    fn expand_row(&mut self, row: u32) {
        let seed = if self.attractors.is_empty() {
            self.grid.nearest_col(self.anchor.x)
        } else {
            convex_argmin(self.bits.cols, |col| {
                let pos = self.position(col, row).1;
                self.key(pos, pos.distance(self.anchor))
            })
        };
        if let Some(col) = self.bits.free_at_or_left(row, seed) {
            self.push_site(row, col, Step::Left);
        }
        if seed + 1 < self.bits.cols {
            if let Some(col) = self.bits.free_at_or_right(row, seed + 1) {
                self.push_site(row, col, Step::Right);
            }
        }
    }

    /// The next free site. Keys are non-decreasing across calls (up to
    /// rounding for attractor keys).
    pub(crate) fn next_free(&mut self) -> Option<Visit> {
        loop {
            let head = self.heap.pop()?;
            match head.step {
                Step::RowDown => {
                    self.expand_row(head.row);
                    if head.row > 0 {
                        self.push_row(head.row - 1, Step::RowDown);
                    }
                }
                Step::RowUp => {
                    self.expand_row(head.row);
                    if head.row + 1 < self.bits.rows {
                        self.push_row(head.row + 1, Step::RowUp);
                    }
                }
                Step::Left => {
                    if head.col > 0 {
                        if let Some(col) = self.bits.free_at_or_left(head.row, head.col - 1) {
                            self.push_site(head.row, col, Step::Left);
                        }
                    }
                    return Some(head.visit());
                }
                Step::Right => {
                    if head.col + 1 < self.bits.cols {
                        if let Some(col) = self.bits.free_at_or_right(head.row, head.col + 1) {
                            self.push_site(head.row, col, Step::Right);
                        }
                    }
                    return Some(head.visit());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_hardware::ZonedGrid;

    /// Deterministic xorshift64* — no external PRNG dependency in unit
    /// tests.
    fn next_rand(state: &mut u64) -> u64 {
        *state ^= *state << 13;
        *state ^= *state >> 7;
        *state ^= *state << 17;
        state.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Builds an index with a pseudo-random subset of the zone free, and
    /// returns the free set.
    fn random_index(grid: &ZonedGrid, zone: Zone, seed: u64) -> (SiteIndex, Vec<SiteId>) {
        let mut index = SiteIndex::new(grid);
        let mut rng = seed | 1;
        let mut free = Vec::new();
        for site in grid.sites_in(zone) {
            if next_rand(&mut rng) % 3 != 0 {
                index.set_free(zone, site);
                free.push(site);
            }
        }
        (index, free)
    }

    #[test]
    fn free_ring_equals_ring_sites_filtered_to_free() {
        for n in [1, 4, 9, 40, 130] {
            let grid = ZonedGrid::for_qubits(n);
            for zone in [Zone::Compute, Zone::Storage] {
                for seed in 1..6u64 {
                    let (index, free) = random_index(&grid, zone, seed ^ u64::from(n));
                    let anchors = [
                        Point::new(0.0, 0.0),
                        Point::new(22e-6, -35e-6),
                        Point::new(1e-3, 1e-3),
                        grid.position(
                            grid.site(zone, grid.cols() - 1, 0)
                                .unwrap_or_else(|| grid.site(Zone::Compute, 0, 0).unwrap()),
                        ),
                    ];
                    for anchor in anchors {
                        let expected: Vec<(SiteId, f64)> = grid
                            .ring_sites(zone, anchor)
                            .filter(|(s, _, _)| free.contains(s))
                            .map(|(s, _, d)| (s, d))
                            .collect();
                        let mut scratch = SearchScratch::default();
                        let mut ring = FreeRing::new(
                            &index,
                            &grid,
                            zone,
                            anchor,
                            Attractors::default(),
                            &mut scratch,
                        );
                        let mut got = Vec::new();
                        while let Some(v) = ring.next_free() {
                            assert_eq!(v.pos, grid.position(v.site));
                            assert_eq!(v.key, v.dist);
                            got.push((v.site, v.dist));
                        }
                        assert_eq!(got, expected, "n={n} zone={zone} seed={seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn attractor_walk_visits_every_free_site_in_score_order() {
        for n in [9, 40, 130] {
            let grid = ZonedGrid::for_qubits(n);
            for zone in [Zone::Compute, Zone::Storage] {
                for seed in 1..4u64 {
                    let (index, free) = random_index(&grid, zone, seed ^ u64::from(n));
                    let anchor = grid.position(free[free.len() / 2]);
                    let far = grid.position(free[free.len() - 1]);
                    let cases = [
                        vec![(1.0, far), (0.5, far)],
                        vec![(0.5, anchor)],
                        vec![
                            (0.75, Point::new(-20e-6, 7e-6)),
                            (0.25, Point::new(1e-3, -1e-3)),
                        ],
                    ];
                    for case in &cases {
                        let attractors = Attractors::new(case, &[]);
                        let mut scratch = SearchScratch::default();
                        let mut ring =
                            FreeRing::new(&index, &grid, zone, anchor, attractors, &mut scratch);
                        let mut seen = Vec::new();
                        let mut high = 0.0f64;
                        while let Some(v) = ring.next_free() {
                            assert_eq!(v.key, v.dist + attractors.penalty(v.pos));
                            assert!(
                                v.key >= high * (1.0 - 1e-12),
                                "key {} after {high}: n={n} zone={zone} seed={seed}",
                                v.key
                            );
                            high = high.max(v.key);
                            seen.push(v.site);
                        }
                        seen.sort();
                        assert_eq!(seen, free, "n={n} zone={zone} seed={seed}");
                    }
                }
            }
        }
    }

    #[test]
    fn set_and_clear_round_trip() {
        let grid = ZonedGrid::for_qubits(70);
        let zone = Zone::Storage;
        let mut index = SiteIndex::new(&grid);
        let site = grid.site(zone, 4, 7).unwrap();
        index.set_free(zone, site);
        let mut scratch = SearchScratch::default();
        let anchor = grid.position(site);
        let found = FreeRing::new(
            &index,
            &grid,
            zone,
            anchor,
            Attractors::default(),
            &mut scratch,
        )
        .next_free();
        assert_eq!(found.map(|v| v.site), Some(site));
        index.clear_free(zone, site);
        let found = FreeRing::new(
            &index,
            &grid,
            zone,
            anchor,
            Attractors::default(),
            &mut scratch,
        )
        .next_free();
        assert!(found.is_none());
    }

    #[test]
    fn wide_rows_cross_word_boundaries() {
        // 70 columns spans two u64 words per row.
        let grid = ZonedGrid::with_dims(70, 2, 0).unwrap();
        let zone = Zone::Compute;
        let mut index = SiteIndex::new(&grid);
        for col in [0u32, 62, 63, 64, 65, 69] {
            index.set_free(zone, grid.site(zone, col, 0).unwrap());
        }
        let anchor = grid.position(grid.site(zone, 63, 0).unwrap());
        let mut scratch = SearchScratch::default();
        let mut ring = FreeRing::new(
            &index,
            &grid,
            zone,
            anchor,
            Attractors::default(),
            &mut scratch,
        );
        let mut cols = Vec::new();
        while let Some(v) = ring.next_free() {
            cols.push(grid.col_row(v.site).0);
        }
        // Distance-sorted around column 63, ties toward the smaller index.
        assert_eq!(cols, vec![63, 62, 64, 65, 69, 0]);
    }
}
