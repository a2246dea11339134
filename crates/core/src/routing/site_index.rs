//! The spatial free-site index: per-zone, row-bucketed bitsets over the
//! planned-free sites, the best-first walk that feeds the pruned free-site
//! search in `state.rs`, and the distance oracle that answers the
//! distance-only queries of both zones without walking.
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
//! the row that is itself convex over the rows. A row expansion evaluates
//! each column's key at most once: the bisection for the argmin column
//! memoizes its keys, and the arm heads reuse them.
//!
//! A query scored by distance alone needs no walk. Its answer is the
//! minimum `(distance, SiteId)` over the plan-free sites that are vacant in
//! the current layout (over all plan-free sites if none is), and the walk
//! would have examined exactly the plan-free sites within the winner's
//! distance (every plan-free site if none is vacant). One distance oracle
//! ([`SiteIndex::nearest`]) computes both, in either zone and from any
//! anchor, from the plan-free row bits the walk uses plus per-row vacant
//! bits: it scans the zone's rows outward from the one nearest the anchor
//! until a row's vertical distance alone exceeds the best distance, and
//! within a row distance grows away from the anchor's nearest column on
//! both sides. Parking's same-column check reads the same bits down one
//! storage column ([`SiteIndex::shallowest_open`]).
//!
//! The index mirrors the arena free lists exactly: `OccupancyArena` calls
//! [`SiteIndex::set_free`] / [`SiteIndex::clear_free`] on the same empty /
//! non-empty transitions that push and swap-remove free-list entries, and
//! [`SiteIndex::set_vacant`] where a site's occupant count leaves or
//! returns to zero, so membership is O(1) to maintain and never rebuilt.
//! Storage is one bit per site, bucketed by row; finding the nearest set
//! column within a row is a masked word scan (`trailing_zeros` /
//! `leading_zeros`).

use crate::routing::state::{beats, Attractors};
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

/// One zone's site numbering and positions, computed with the expressions
/// of `ZonedGrid::site`, `ZonedGrid::position` and `ZonedGrid::nearest_col`
/// so every distance is bit-identical to the grid's.
#[derive(Debug, Clone, Copy, Default)]
struct ZoneGeometry {
    cols: u32,
    rows: u32,
    /// Index of the zone's site `(0, 0)`.
    base: usize,
    spacing: f64,
    /// The zone gap for the storage zone, whose rows run away from the
    /// computation zone; `None` for the computation zone.
    storage_gap: Option<f64>,
}

impl ZoneGeometry {
    fn new(grid: &ZonedGrid, zone: Zone) -> Self {
        let (base, storage_gap) = match zone {
            Zone::Compute => (0, None),
            Zone::Storage => (grid.num_compute_sites(), Some(grid.zone_gap())),
        };
        ZoneGeometry {
            cols: grid.cols(),
            rows: grid.rows_in(zone),
            base,
            spacing: grid.site_spacing(),
            storage_gap,
        }
    }

    /// The zone-local index of `(col, row)`, ordered as its `SiteId`.
    fn local(&self, col: u32, row: u32) -> u32 {
        row * self.cols + col
    }

    fn site(&self, col: u32, row: u32) -> SiteId {
        SiteId::new(self.base + self.local(col, row) as usize)
    }

    fn x(&self, col: u32) -> f64 {
        f64::from(col) * self.spacing
    }

    fn y(&self, row: u32) -> f64 {
        match self.storage_gap {
            None => f64::from(row) * self.spacing,
            Some(gap) => -gap - f64::from(row) * self.spacing,
        }
    }

    fn point(&self, col: u32, row: u32) -> Point {
        Point::new(self.x(col), self.y(row))
    }

    /// The column nearest `x`, as `ZonedGrid::nearest_col`.
    fn nearest_col(&self, x: f64) -> u32 {
        nearest_line(x / self.spacing, self.cols)
    }

    /// The row nearest height `y`. Requires `rows > 0`.
    fn nearest_row(&self, y: f64) -> u32 {
        let t = match self.storage_gap {
            None => y / self.spacing,
            Some(gap) => (-gap - y) / self.spacing,
        };
        nearest_line(t, self.rows)
    }

    /// Where a row splits into arms along which `|x(col) − x|` never
    /// decreases, even in floating point: the last column at or left of
    /// `x` (if any) starts the left arm, the column after it the right
    /// arm. For an `x` on a column this is `nearest_col(x)` and the next;
    /// halfway between two columns rounding can make `nearest_col` the
    /// farther one.
    fn split(&self, x: f64) -> (Option<u32>, u32) {
        let col = self.nearest_col(x);
        let left = if self.x(col) <= x {
            Some(col)
        } else {
            col.checked_sub(1)
        };
        (left, left.map_or(0, |col| col + 1))
    }
}

/// `t` rounded to the nearest of `0..n`.
fn nearest_line(t: f64, n: u32) -> u32 {
    let c = t.round();
    if c <= 0.0 {
        0
    } else if c >= f64::from(n - 1) {
        n - 1
    } else {
        c as u32
    }
}

/// A direction along a line of sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Dir {
    /// Toward position 0.
    Down,
    /// Toward the last position.
    Up,
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

/// Bitsets over `lines` grid rows of `len` columns each, one row's
/// `⌈len / 64⌉` words contiguous: the plan-free bits the walk and the
/// distance oracle read, and the vacant bits beside them.
#[derive(Debug, Clone, Default)]
struct LineBits {
    len: u32,
    words: usize,
    bits: Vec<u64>,
}

impl LineBits {
    fn new(lines: u32, len: u32) -> Self {
        let words = (len as usize).div_ceil(64);
        LineBits {
            len,
            words,
            bits: vec![0; words * lines as usize],
        }
    }

    fn set(&mut self, line: u32, pos: u32, value: bool) {
        let word = &mut self.bits[line as usize * self.words + pos as usize / 64];
        let bit = 1u64 << (pos % 64);
        if value {
            *word |= bit;
        } else {
            *word &= !bit;
        }
    }

    /// Word `w` of `line`, intersected with the same word of `mask` if any.
    fn word(&self, line: u32, w: usize, mask: Option<&LineBits>) -> u64 {
        let i = line as usize * self.words + w;
        self.bits[i] & mask.map_or(u64::MAX, |m| m.bits[i])
    }

    /// Whether `pos` of `line` is set (and set in `mask` too, if given).
    fn has(&self, line: u32, pos: u32, mask: Option<&LineBits>) -> bool {
        self.word(line, pos as usize / 64, mask) >> (pos % 64) & 1 != 0
    }

    /// The set position of `line` nearest to `pos` in direction `dir`,
    /// `pos` included (and set in `mask` too, if given). Requires
    /// `pos < len`.
    fn seek(&self, line: u32, pos: u32, dir: Dir, mask: Option<&LineBits>) -> Option<u32> {
        let mut w = pos as usize / 64;
        match dir {
            Dir::Down => {
                let mut word = self.word(line, w, mask) & mask_up_to(pos % 64);
                loop {
                    if word != 0 {
                        return Some((w * 64) as u32 + 63 - word.leading_zeros());
                    }
                    if w == 0 {
                        return None;
                    }
                    w -= 1;
                    word = self.word(line, w, mask);
                }
            }
            Dir::Up => {
                let mut word = self.word(line, w, mask) & mask_from(pos % 64);
                loop {
                    if word != 0 {
                        return Some((w * 64) as u32 + word.trailing_zeros());
                    }
                    w += 1;
                    if w >= self.words {
                        return None;
                    }
                    word = self.word(line, w, mask);
                }
            }
        }
    }

    /// The position after `pos` in direction `dir`, if on the line.
    fn step(&self, pos: u32, dir: Dir) -> Option<u32> {
        match dir {
            Dir::Down => pos.checked_sub(1),
            Dir::Up => (pos + 1 < self.len).then_some(pos + 1),
        }
    }
}

/// The per-zone free-site bitsets the arena maintains alongside its free
/// lists, plus per-zone vacant bits. Membership transitions are O(1);
/// [`FreeRing`] walks free sites in non-decreasing walk key, and
/// [`SiteIndex::nearest`] answers distance-only queries in either zone.
#[derive(Debug, Clone, Default)]
pub(crate) struct SiteIndex {
    /// Plan-free sites, `[compute, storage]` as [`zone_slot`] numbers
    /// them: rows as lines of columns.
    zones: [LineBits; 2],
    /// Sites vacant in the current layout, laid out as `zones`.
    vacant: [LineBits; 2],
    geometry: [ZoneGeometry; 2],
}

/// The slot of `zone` in per-zone arrays: `[compute, storage]`.
pub(crate) fn zone_slot(zone: Zone) -> usize {
    match zone {
        Zone::Compute => 0,
        Zone::Storage => 1,
    }
}

impl SiteIndex {
    /// No site free, every site vacant: the arena marks free lists and
    /// arrivals from there.
    pub(crate) fn new(grid: &ZonedGrid) -> Self {
        let rows = |zone| LineBits::new(grid.rows_in(zone), grid.cols());
        let vacant = |zone| {
            let mut bits = rows(zone);
            bits.bits.fill(u64::MAX);
            bits
        };
        SiteIndex {
            zones: [rows(Zone::Compute), rows(Zone::Storage)],
            vacant: [vacant(Zone::Compute), vacant(Zone::Storage)],
            geometry: [
                ZoneGeometry::new(grid, Zone::Compute),
                ZoneGeometry::new(grid, Zone::Storage),
            ],
        }
    }

    /// The `(col, row)` of `site` in `zone`.
    fn col_row(&self, zone: Zone, site: SiteId) -> (u32, u32) {
        let geometry = &self.geometry[zone_slot(zone)];
        let local = (site.index() - geometry.base) as u32;
        (local % geometry.cols, local / geometry.cols)
    }

    /// Marks `site` free; paired with the arena's free-list push.
    pub(crate) fn set_free(&mut self, zone: Zone, site: SiteId) {
        let (col, row) = self.col_row(zone, site);
        self.zones[zone_slot(zone)].set(row, col, true);
    }

    /// Marks `site` occupied; paired with the arena's free-list
    /// swap-remove.
    pub(crate) fn clear_free(&mut self, zone: Zone, site: SiteId) {
        let (col, row) = self.col_row(zone, site);
        self.zones[zone_slot(zone)].set(row, col, false);
    }

    /// Marks `site` of `zone` vacant or not in the current layout.
    pub(crate) fn set_vacant(&mut self, zone: Zone, site: SiteId, vacant: bool) {
        let (col, row) = self.col_row(zone, site);
        self.vacant[zone_slot(zone)].set(row, col, vacant);
    }

    /// Whether `site` of `zone` is marked vacant.
    #[cfg(test)]
    pub(crate) fn is_vacant(&self, zone: Zone, site: SiteId) -> bool {
        let (col, row) = self.col_row(zone, site);
        self.vacant[zone_slot(zone)].has(row, col, None)
    }

    /// The shallowest storage row of column `col` that is plan-free and
    /// vacant: parking's same-column check, one bit test per row down the
    /// column.
    pub(crate) fn shallowest_open(&self, col: u32) -> Option<u32> {
        let slot = zone_slot(Zone::Storage);
        let (free, vacant) = (&self.zones[slot], &self.vacant[slot]);
        (0..self.geometry[slot].rows).find(|&row| free.has(row, col, Some(vacant)))
    }

    /// The nearest plan-free site of `zone` to `anchor`, preferring vacant
    /// ones, under the `(distance, SiteId)` order, and the number of
    /// plan-free sites the best-first walk examines to find it; `free_len`
    /// is the number of plan-free sites of `zone`. Any anchor works.
    pub(crate) fn nearest(
        &self,
        zone: Zone,
        anchor: Point,
        free_len: usize,
    ) -> (Option<SiteId>, u64) {
        // A zone without rows has no plan-free site, and no row to seed.
        if free_len == 0 {
            return (None, 0);
        }
        let slot = zone_slot(zone);
        let rows = ZoneRows {
            geometry: &self.geometry[slot],
            plan_free: &self.zones[slot],
            vacant: &self.vacant[slot],
        };
        match rows.closest(anchor, true) {
            Some((reach, site)) => (Some(site), rows.count_within(anchor, reach)),
            None => (
                rows.closest(anchor, false).map(|(_, site)| site),
                free_len as u64,
            ),
        }
    }
}

/// One zone's rows as a distance oracle (see the module docs). Rows are
/// scanned outward from the one nearest the anchor's `y` until a row's
/// vertical distance alone exceeds the best distance. Within a row
/// distance never decreases along either arm of [`ZoneGeometry::split`] —
/// leftward from the left head, rightward from the right one — and site
/// indices grow with the column, so the left arm's ties go to the sites
/// further along it.
struct ZoneRows<'a> {
    geometry: &'a ZoneGeometry,
    plan_free: &'a LineBits,
    vacant: &'a LineBits,
}

impl ZoneRows<'_> {
    /// Visits the row nearest `anchor` and the lower-numbered rows, then the
    /// higher-numbered ones, while the row's vertical distance from
    /// `anchor` — a lower bound on the distance of every site in it,
    /// growing outward from `anchor` — is within the reach. `visit` returns
    /// the reach from then on; it starts unbounded.
    fn rows_within(&self, anchor: Point, mut visit: impl FnMut(u32) -> f64) {
        let geometry = self.geometry;
        let gap = |row| (geometry.y(row) - anchor.y).abs();
        let seed = geometry.nearest_row(anchor.y);
        let mut reach = f64::INFINITY;
        for row in (0..=seed).rev() {
            if gap(row) > reach {
                break;
            }
            reach = visit(row);
        }
        for row in seed + 1..geometry.rows {
            if gap(row) > reach {
                break;
            }
            reach = visit(row);
        }
    }

    /// Every row's arms for `anchor`: a start column and a direction.
    fn arms(&self, anchor: Point) -> [Option<(u32, Dir)>; 2] {
        let (left, right) = self.geometry.split(anchor.x);
        [
            left.map(|col| (col, Dir::Down)),
            (right < self.geometry.cols).then_some((right, Dir::Up)),
        ]
    }

    /// The distance from `anchor` of the site at `(col, row)`, and the site.
    fn site(&self, col: u32, row: u32, anchor: Point) -> (f64, SiteId) {
        let geometry = self.geometry;
        (
            geometry.point(col, row).distance(anchor),
            geometry.site(col, row),
        )
    }

    /// The minimum `(distance, SiteId)` over the plan-free (and vacant, if
    /// `vacant`) sites: each arm's head competes unless its column alone
    /// is out of reach, and a left arm's head hands a tie on to the sites
    /// behind it.
    fn closest(&self, anchor: Point, vacant: bool) -> Option<(f64, SiteId)> {
        let (bits, mask) = (self.plan_free, vacant.then_some(self.vacant));
        let arms = self.arms(anchor);
        let mut best: Option<(f64, SiteId)> = None;
        self.rows_within(anchor, |row| {
            for &(start, dir) in arms.iter().flatten() {
                let Some(mut col) = bits.seek(row, start, dir, mask) else {
                    continue;
                };
                let reach = best.map_or(f64::INFINITY, |(d, _)| d);
                if (self.geometry.x(col) - anchor.x).abs() > reach {
                    continue;
                }
                let (d, site) = self.site(col, row, anchor);
                if beats(d, site, &best) {
                    best = Some((d, site));
                }
                if dir == Dir::Down && best.is_some_and(|(best_d, _)| best_d == d) {
                    while let Some(next) = bits
                        .step(col, dir)
                        .and_then(|c| bits.seek(row, c, dir, mask))
                    {
                        let (next_d, site) = self.site(next, row, anchor);
                        if next_d != d {
                            break;
                        }
                        if beats(d, site, &best) {
                            best = Some((d, site));
                        }
                        col = next;
                    }
                }
            }
            best.map_or(f64::INFINITY, |(d, _)| d)
        });
        best
    }

    /// The number of plan-free sites at most `reach` from `anchor`.
    fn count_within(&self, anchor: Point, reach: f64) -> u64 {
        let bits = self.plan_free;
        let arms = self.arms(anchor);
        let mut count = 0;
        self.rows_within(anchor, |row| {
            for &(start, dir) in arms.iter().flatten() {
                let mut from = Some(start);
                while let Some(col) = from.and_then(|c| bits.seek(row, c, dir, None)) {
                    if (self.geometry.x(col) - anchor.x).abs() > reach
                        || self.site(col, row, anchor).0 > reach
                    {
                        break;
                    }
                    count += 1;
                    from = bits.step(col, dir);
                }
            }
            reach
        });
        count
    }
}

/// Reusable allocation for the best-first free-site walk: the frontier heap
/// and the memo of one row expansion's keys. Lives in the routing state so
/// repeated queries allocate nothing.
#[derive(Debug, Clone, Default)]
pub(crate) struct SearchScratch {
    heap: BinaryHeap<Head>,
    memo: Vec<(u32, f64)>,
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
    /// The tie-break among equal keys: the row number for row entries, the
    /// zone-local site index (ordered as the `SiteId`) for sites.
    tie: u32,
    row: u32,
    col: u32,
    step: Step,
}

impl Head {
    fn is_row(&self) -> bool {
        matches!(self.step, Step::RowDown | Step::RowUp)
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
            .then_with(|| other.tie.cmp(&self.tie))
    }
}

/// One free site yielded by [`FreeRing::next_free`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Visit {
    pub(crate) site: SiteId,
    pub(crate) pos: Point,
    /// The walk key: the site's distance to the anchor without
    /// attractors, its attractor score with them — and a lower bound on
    /// the key of every site not yet yielded (exact for distances, up to
    /// rounding for attractor scores).
    pub(crate) key: f64,
}

/// The smallest `i < n` with `f(i) <= f(i + 1)` (or `n - 1`): the argmin of
/// a function convex over `0..n`, by bisection on its forward difference.
fn convex_argmin(n: u32, mut f: impl FnMut(u32) -> f64) -> u32 {
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
    bits: &'a LineBits,
    geometry: ZoneGeometry,
    heap: &'a mut BinaryHeap<Head>,
    memo: &'a mut Vec<(u32, f64)>,
    anchor: Point,
    attractors: Attractors<'a>,
}

impl<'a> FreeRing<'a> {
    pub(crate) fn new(
        index: &'a SiteIndex,
        zone: Zone,
        anchor: Point,
        attractors: Attractors<'a>,
        scratch: &'a mut SearchScratch,
    ) -> Self {
        scratch.heap.clear();
        scratch.memo.clear();
        let mut ring = FreeRing {
            bits: &index.zones[zone_slot(zone)],
            geometry: index.geometry[zone_slot(zone)],
            heap: &mut scratch.heap,
            memo: &mut scratch.memo,
            anchor,
            attractors,
        };
        // Grids always have columns; a zone may have no rows.
        let rows = ring.geometry.rows;
        if rows > 0 {
            let seed = convex_argmin(rows, |row| ring.row_floor(row));
            ring.push_row(seed, Step::RowDown);
            if seed + 1 < rows {
                ring.push_row(seed + 1, Step::RowUp);
            }
        }
        ring
    }

    /// A lower bound on the key of every site in `row`: `hypot(dx, dy) ≥
    /// |dy|` term by term, summed in the key's own order.
    fn row_floor(&self, row: u32) -> f64 {
        let y = self.geometry.y(row);
        (y - self.anchor.y).abs() + self.attractors.row_floor(y)
    }

    /// The walk key of the site at `(col, row)` — the same sum, in the
    /// same order, as the planner's score.
    fn key(&self, col: u32, row: u32) -> f64 {
        let pos = self.geometry.point(col, row);
        let dist = pos.distance(self.anchor);
        if self.attractors.is_empty() {
            dist
        } else {
            dist + self.attractors.penalty(pos)
        }
    }

    fn push_row(&mut self, row: u32, step: Step) {
        self.heap.push(Head {
            key: self.row_floor(row),
            tie: row,
            row,
            col: 0,
            step,
        });
    }

    /// Pushes the arm head at `(col, row)`, reusing its key if this row's
    /// bisection already evaluated it.
    fn push_site(&mut self, row: u32, col: u32, step: Step) {
        let key = match self.memo.iter().find(|&&(c, _)| c == col) {
            Some(&(_, key)) => key,
            None => self.key(col, row),
        };
        self.heap.push(Head {
            key,
            tie: self.geometry.local(col, row),
            row,
            col,
            step,
        });
    }

    /// Splits `row` at its argmin column into a left arm (seed included) and
    /// a right arm, each headed by its first free site. Without attractors
    /// the split is in closed form ([`ZoneGeometry::split`]); with them, a
    /// bisection on the key along the row whose keys the memo keeps for the
    /// arm heads.
    fn expand_row(&mut self, row: u32) {
        self.memo.clear();
        let (left, right) = if self.attractors.is_empty() {
            self.geometry.split(self.anchor.x)
        } else {
            let mut memo = std::mem::take(self.memo);
            let seed = convex_argmin(self.geometry.cols, |col| {
                if let Some(&(_, key)) = memo.iter().find(|&&(c, _)| c == col) {
                    return key;
                }
                let key = self.key(col, row);
                memo.push((col, key));
                key
            });
            *self.memo = memo;
            (Some(seed), seed + 1)
        };
        if let Some(col) = left.and_then(|col| self.bits.seek(row, col, Dir::Down, None)) {
            self.push_site(row, col, Step::Left);
        }
        if right < self.geometry.cols {
            if let Some(col) = self.bits.seek(row, right, Dir::Up, None) {
                self.push_site(row, col, Step::Right);
            }
        }
        self.memo.clear();
    }

    /// The next free site. Keys are non-decreasing across calls (up to
    /// rounding for attractor keys).
    pub(crate) fn next_free(&mut self) -> Option<Visit> {
        loop {
            let head = self.heap.pop()?;
            let (row, col) = (head.row, head.col);
            let dir = match head.step {
                Step::RowDown => {
                    self.expand_row(row);
                    if row > 0 {
                        self.push_row(row - 1, Step::RowDown);
                    }
                    continue;
                }
                Step::RowUp => {
                    self.expand_row(row);
                    if row + 1 < self.geometry.rows {
                        self.push_row(row + 1, Step::RowUp);
                    }
                    continue;
                }
                Step::Left => Dir::Down,
                Step::Right => Dir::Up,
            };
            if let Some(next) = self
                .bits
                .step(col, dir)
                .and_then(|c| self.bits.seek(row, c, dir, None))
            {
                self.push_site(row, next, head.step);
            }
            return Some(Visit {
                site: self.geometry.site(col, row),
                pos: self.geometry.point(col, row),
                key: head.key,
            });
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

    /// Builds an index with a pseudo-random subset of the zone free and
    /// another vacant, and returns the free and the vacant sets.
    fn random_index(
        grid: &ZonedGrid,
        zone: Zone,
        seed: u64,
    ) -> (SiteIndex, Vec<SiteId>, Vec<SiteId>) {
        let mut index = SiteIndex::new(grid);
        let (mut rng, mut vacant_rng) = (seed | 1, seed.wrapping_mul(31) | 1);
        let (mut free, mut vacant) = (Vec::new(), Vec::new());
        for site in grid.sites_in(zone) {
            if next_rand(&mut rng) % 3 != 0 {
                index.set_free(zone, site);
                free.push(site);
            }
            let is_vacant = next_rand(&mut vacant_rng) % 4 != 0;
            index.set_vacant(zone, site, is_vacant);
            if is_vacant {
                vacant.push(site);
            }
        }
        (index, free, vacant)
    }

    #[test]
    fn free_ring_equals_ring_sites_filtered_to_free() {
        for n in [1, 4, 9, 40, 130] {
            let grid = ZonedGrid::for_qubits(n);
            for zone in [Zone::Compute, Zone::Storage] {
                for seed in 1..6u64 {
                    let (index, free, _) = random_index(&grid, zone, seed ^ u64::from(n));
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
                            zone,
                            anchor,
                            Attractors::default(),
                            &mut scratch,
                        );
                        let mut got = Vec::new();
                        while let Some(v) = ring.next_free() {
                            assert_eq!(v.pos, grid.position(v.site));
                            assert_eq!(v.key, v.pos.distance(anchor));
                            got.push((v.site, v.key));
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
                    let (index, free, _) = random_index(&grid, zone, seed ^ u64::from(n));
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
                            FreeRing::new(&index, zone, anchor, attractors, &mut scratch);
                        let mut seen = Vec::new();
                        let mut high = 0.0f64;
                        while let Some(v) = ring.next_free() {
                            assert_eq!(v.pos, grid.position(v.site));
                            assert_eq!(v.key, v.pos.distance(anchor) + attractors.penalty(v.pos));
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

    /// The distance oracle's contract by brute force: the minimum
    /// `(distance, SiteId)` over plan-free vacant sites (plan-free if none
    /// is vacant), and the plan-free sites within its distance (all of
    /// them if none is vacant).
    fn brute_nearest(
        grid: &ZonedGrid,
        free: &[SiteId],
        vacant: &[SiteId],
        anchor: Point,
    ) -> (Option<SiteId>, u64) {
        let closest = |sites: &mut dyn Iterator<Item = SiteId>| {
            sites
                .map(|s| (grid.position(s).distance(anchor), s))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        };
        let mut open = free.iter().copied().filter(|s| vacant.contains(s));
        match closest(&mut open) {
            Some((reach, site)) => {
                let within = free
                    .iter()
                    .filter(|&&s| grid.position(s).distance(anchor) <= reach)
                    .count();
                (Some(site), within as u64)
            }
            None => (
                closest(&mut free.iter().copied()).map(|(_, s)| s),
                free.len() as u64,
            ),
        }
    }

    #[test]
    fn compute_rows_match_brute_force_between_columns_and_off_grid() {
        // Both zones, from anchors on sites, halfway between columns (equal
        // |dx| on one arm, where the tie goes to the smaller index further
        // along it), off the grid on every side, and inside and below the
        // storage zone.
        for (cols, rows, storage_rows) in [(9, 4, 2), (70, 2, 3), (130, 3, 2), (5, 1, 1)] {
            let grid = ZonedGrid::with_dims(cols, rows, storage_rows).unwrap();
            let pitch = grid.site_spacing();
            let bottom = -grid.zone_gap() - f64::from(storage_rows) * pitch;
            for zone in [Zone::Compute, Zone::Storage] {
                for seed in 1..5u64 {
                    let (index, free, vacant) = random_index(&grid, zone, seed ^ u64::from(cols));
                    let mut rng = seed.wrapping_mul(17) | 1;
                    let mut anchors = vec![
                        Point::new(-3.0 * pitch, 0.5 * pitch),
                        Point::new(f64::from(cols + 2) * pitch, f64::from(rows + 1) * pitch),
                        Point::new(2.0 * pitch, -grid.zone_gap() - pitch),
                        Point::new(2.5 * pitch, -0.5 * grid.zone_gap()),
                        Point::new(f64::from(cols) * pitch, bottom - 2.5 * pitch),
                    ];
                    for k in 0..12 {
                        let site = SiteId::new(next_rand(&mut rng) as usize % grid.num_sites());
                        let at = grid.position(site);
                        anchors.push(at);
                        anchors.push(Point::new(
                            at.x + 0.5 * pitch,
                            at.y - f64::from(k) * 0.25 * pitch,
                        ));
                    }
                    let mut scratch = SearchScratch::default();
                    for anchor in anchors {
                        assert_eq!(
                            index.nearest(zone, anchor, free.len()),
                            brute_nearest(&grid, &free, &vacant, anchor),
                            "cols={cols} rows={rows} zone={zone} seed={seed} anchor={anchor}"
                        );
                        // The walk the oracle stands in for is exactly
                        // ordered from these anchors too.
                        let none = Attractors::default();
                        let mut ring = FreeRing::new(&index, zone, anchor, none, &mut scratch);
                        let mut last = (0.0, SiteId::new(0));
                        while let Some(v) = ring.next_free() {
                            assert!(
                                (v.key, v.site) >= last,
                                "walk out of order at {anchor}: {:?} after {last:?}",
                                (v.key, v.site)
                            );
                            last = (v.key, v.site);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn frontier_entries_stay_compact() {
        assert!(std::mem::size_of::<Head>() <= 24);
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
        let found =
            FreeRing::new(&index, zone, anchor, Attractors::default(), &mut scratch).next_free();
        assert_eq!(found.map(|v| v.site), Some(site));
        index.clear_free(zone, site);
        let found =
            FreeRing::new(&index, zone, anchor, Attractors::default(), &mut scratch).next_free();
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
        let mut ring = FreeRing::new(&index, zone, anchor, Attractors::default(), &mut scratch);
        let mut cols = Vec::new();
        while let Some(v) = ring.next_free() {
            cols.push(grid.col_row(v.site).0);
        }
        // Distance-sorted around column 63, ties toward the smaller index.
        assert_eq!(cols, vec![63, 62, 64, 65, 69, 0]);
    }
}
