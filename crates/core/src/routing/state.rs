//! The shared routing state: the evolving qubit layout plus the greedy
//! stage-transition planner every built-in strategy builds on (Sec. 5 of the
//! paper).
//!
//! Given the current qubit layout and the next Rydberg stage, the planner
//! decides the single-qubit movements that transition the layout *directly*
//! into a configuration where every CZ pair of the stage is co-located at a
//! computation-zone site, non-interacting qubits are parked in the storage
//! zone (with-storage mode) or left undisturbed (non-storage mode), and no
//! unwanted clustering occurs. There is no reversion to a fixed initial
//! layout between stages — that is precisely the improvement over Enola
//! illustrated in Fig. 3 of the paper.
//!
//! # The occupancy arena
//!
//! The planner's hot data structure is the *planned occupancy*: which qubits
//! will sit at which site once the transition completes. It is kept as a
//! persistent struct-of-arrays arena — a flat site-indexed occupant table
//! plus per-zone free-site lists — updated incrementally as movement
//! decisions are made, instead of a tree map rebuilt from the layout on
//! every stage. Because every planned decision is also applied to the
//! layout at the end of the stage, the arena and the layout agree at every
//! stage boundary, so the arena never needs rebuilding.
//!
//! The arena also mirrors the *current* layout — each site's occupant
//! count, the computation-zone residents and the shared sites — updated
//! wherever the layout moves a qubit. The planner reads vacancy, parking
//! candidates and stale pairs from the mirror, so routing a one-gate stage
//! costs what the stage touches, not a walk over every qubit or site.
//!
//! # The spatial free-site index
//!
//! The planner's hot *query* is `best_free_site`: which free site of a zone
//! minimizes distance-to-anchor plus policy bias? Alongside the free lists
//! the arena maintains a row-bucketed free-site bitset
//! (`routing::site_index`), updated on the same O(1) transitions. Queries
//! walk free sites in non-decreasing walk key and stop once the key can no
//! longer beat the best candidate — an A*-style cutoff that returns the
//! *same site* as the linear scan under the same `(score, site index)`
//! total order, examining far fewer candidates. A policy without
//! attractors is walked in anchor distance and cut off at
//! `distance + SitePolicy::min_bias`; a policy that names its pair's
//! weighted attractors (`SitePolicy::attractors`) is walked in attractor
//! score, so the walk heads toward the future partners and stops a few
//! sites past the optimum. Debug builds re-run the linear reference scan on
//! every pruned query and assert equality; the `site_scans` /
//! `sites_pruned` counters report the saved work.

use crate::routing::lookahead::AttractorBuffers;
use crate::routing::site_index::{
    FreeRing, ScanStats, SearchScratch, SiteIndex, StorageColumns, Visit,
};
use crate::{CompileError, Stage};
use powermove_circuit::{CzGate, Qubit};
use powermove_hardware::{Architecture, Point, SiteId, Zone, ZonedGrid};
use powermove_schedule::{Layout, SiteMove};
use std::cmp::Ordering;

/// The movement plan for one stage transition.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageRouting {
    /// Moves that park non-interacting qubits in the storage zone.
    pub storage_moves: Vec<SiteMove>,
    /// Moves that bring interacting qubits to their interaction sites.
    pub interaction_moves: Vec<SiteMove>,
}

impl StageRouting {
    /// All moves of the stage transition, storage moves first.
    #[must_use]
    pub fn all_moves(&self) -> Vec<SiteMove> {
        let mut all = self.storage_moves.clone();
        all.extend(self.interaction_moves.iter().copied());
        all
    }

    /// Total number of moved qubits.
    #[must_use]
    pub fn len(&self) -> usize {
        self.storage_moves.len() + self.interaction_moves.len()
    }

    /// Returns `true` if the stage requires no movement.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.storage_moves.is_empty() && self.interaction_moves.is_empty()
    }
}

/// A site-selection policy: the single extension point of the stage planner.
///
/// While resolving an undecided pair `(anchor, mobile)` the planner scores
/// every candidate interaction site by its distance to the anchor plus
/// `bias(anchor, mobile, site, site_pos)` — a positive penalty in meters,
/// the same unit as the distance term. [`ZeroBias`] reproduces the greedy
/// router bit for bit; the lookahead router biases sites toward future
/// partners. Closures adapt through [`BiasFn`].
///
/// Bias values must not be NaN: site selection is a deterministic total
/// order over `(score, site index)` and NaN would make it
/// iteration-order-dependent.
///
/// # The pruning contract
///
/// The planner walks free sites best-first and stops as soon as the walk
/// proves no remaining site can beat the best candidate, skipping
/// [`SitePolicy::bias`] for every remaining site. Two methods describe the
/// bias to the walk, and together they must stay *admissible*:
///
/// ```text
/// bias(anchor, mobile, site, pos) >= attractors(anchor, mobile).penalty(pos) + min_bias()
/// ```
///
/// * [`SitePolicy::attractors`] names the pair's weighted attractors. With
///   none (the default) the walk visits sites in non-decreasing anchor
///   distance `d` and stops once `d + min_bias()` exceeds the best score.
///   With some, it visits sites in non-decreasing attractor score
///   `C = d + penalty` and stops once `C + min_bias()` exceeds the best
///   score by more than a `1e-9` relative rounding slack.
/// * [`SitePolicy::min_bias`] bounds what the bias adds beyond the
///   attractor penalty.
///
/// A claim that overestimates (e.g. `min_bias() == 1.0` while some site's
/// bias is `0.5`, or attractors whose penalty exceeds the bias) can prune
/// the true optimum and change routing results; one that underestimates
/// (no attractors and `0.0` work for every nonnegative bias) only costs
/// pruning efficiency, never correctness.
pub trait SitePolicy {
    /// The extra cost added to `site` (at physical position `site_pos`) as
    /// the interaction site of `(anchor, mobile)`.
    fn bias(&self, anchor: Qubit, mobile: Qubit, site: SiteId, site_pos: Point) -> f64;

    /// An admissible lower bound on what [`SitePolicy::bias`] adds beyond
    /// the attractor penalty — see the trait docs for the pruning contract.
    /// The default, `0.0`, is correct for every bias at least its penalty.
    fn min_bias(&self) -> f64 {
        0.0
    }

    /// The weighted attractors of the pair `(anchor, mobile)`: points
    /// whose weighted distances [`SitePolicy::bias`] adds to every
    /// candidate site — see the trait docs for the pruning contract. The
    /// default is none.
    fn attractors(&self, _anchor: Qubit, _mobile: Qubit) -> Attractors<'_> {
        Attractors::default()
    }
}

/// A pair's weighted attractors: `(weight, position)` points a candidate
/// site is pulled toward, as the anchor's list followed by the mobile
/// qubit's. Weights must be nonnegative and finite.
///
/// Their [`Attractors::penalty`] `Σ wᵢ·|x − pᵢ|` is convex along every grid
/// row, which is what lets the free-site walk visit sites in score order.
///
/// ```
/// use powermove::Attractors;
/// use powermove_hardware::Point;
///
/// let anchor = [(0.5, Point::new(3.0, 4.0))];
/// let attractors = Attractors::new(&anchor, &[]);
/// assert_eq!(attractors.penalty(Point::new(0.0, 0.0)), 2.5);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct Attractors<'a> {
    lists: [&'a [(f64, Point)]; 2],
}

impl<'a> Attractors<'a> {
    /// The attractors of the anchor qubit followed by those of the mobile
    /// qubit.
    #[must_use]
    pub fn new(anchor: &'a [(f64, Point)], mobile: &'a [(f64, Point)]) -> Self {
        Attractors {
            lists: [anchor, mobile],
        }
    }

    /// Returns `true` if there are no attractors.
    pub(crate) fn is_empty(&self) -> bool {
        self.lists.iter().all(|list| list.is_empty())
    }

    fn iter(&self) -> impl Iterator<Item = &'a (f64, Point)> {
        self.lists[0].iter().chain(self.lists[1])
    }

    /// The attractor penalty at `pos`: `Σ wᵢ·|pos − pᵢ|`, summed in list
    /// order.
    #[must_use]
    pub fn penalty(&self, pos: Point) -> f64 {
        self.iter().map(|(w, p)| w * pos.distance(*p)).sum()
    }

    /// `Σ wᵢ·|y − pᵢ_y|`: a lower bound on [`Attractors::penalty`] over every
    /// point at height `y`, summed in the same order.
    pub(crate) fn row_floor(&self, y: f64) -> f64 {
        self.iter().map(|(w, p)| w * (y - p.y).abs()).sum()
    }
}

/// The zero-bias [`SitePolicy`]: every candidate site scores by distance
/// alone, reproducing the greedy plan bit for bit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ZeroBias;

impl SitePolicy for ZeroBias {
    fn bias(&self, _anchor: Qubit, _mobile: Qubit, _site: SiteId, _site_pos: Point) -> f64 {
        0.0
    }
}

/// Adapts a closure into a [`SitePolicy`].
///
/// The wrapped closure must return nonnegative values: `BiasFn` reports no
/// attractors and the default [`SitePolicy::min_bias`] of `0.0`, which is
/// only admissible (see the trait docs) when no bias is negative. Implement
/// [`SitePolicy`] directly to pair a custom bias with a tighter bound.
///
/// ```
/// use powermove::{BiasFn, SitePolicy};
/// use powermove_circuit::Qubit;
/// use powermove_hardware::{Point, SiteId};
///
/// let policy = BiasFn::new(|_, _, site: SiteId| site.index() as f64);
/// let pos = Point::new(0.0, 0.0);
/// assert_eq!(policy.bias(Qubit::new(0), Qubit::new(1), SiteId::new(3), pos), 3.0);
/// assert_eq!(policy.min_bias(), 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct BiasFn<F>(F);

impl<F: Fn(Qubit, Qubit, SiteId) -> f64> BiasFn<F> {
    /// Wraps the closure.
    #[must_use]
    pub fn new(f: F) -> Self {
        BiasFn(f)
    }
}

impl<F: Fn(Qubit, Qubit, SiteId) -> f64> SitePolicy for BiasFn<F> {
    fn bias(&self, anchor: Qubit, mobile: Qubit, site: SiteId, _site_pos: Point) -> f64 {
        (self.0)(anchor, mobile, site)
    }
}

/// One site's planned occupants: at most two (an interacting pair).
///
/// The planner only ever co-locates the two qubits of one CZ gate, so a
/// fixed two-slot cell covers every reachable state — the insert path
/// asserts the invariant rather than spilling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct PlannedSite([Option<Qubit>; 2]);

impl PlannedSite {
    fn is_empty(&self) -> bool {
        self.0[0].is_none() && self.0[1].is_none()
    }

    fn insert(&mut self, q: Qubit) {
        if self.0.contains(&Some(q)) {
            return;
        }
        if let Some(slot) = self.0.iter_mut().find(|slot| slot.is_none()) {
            *slot = Some(q);
        } else {
            panic!("planned occupancy of a site exceeded two qubits");
        }
    }

    fn remove(&mut self, q: Qubit) {
        for slot in &mut self.0 {
            if *slot == Some(q) {
                *slot = None;
            }
        }
    }

    fn blocks(&self, exclude_a: Qubit, exclude_b: Qubit) -> bool {
        self.0
            .iter()
            .flatten()
            .any(|&q| q != exclude_a && q != exclude_b)
    }
}

/// A key drawn from a dense index range: qubits and sites.
trait DenseKey: Copy {
    fn dense(self) -> usize;
}

impl DenseKey for Qubit {
    fn dense(self) -> usize {
        self.as_usize()
    }
}

impl DenseKey for SiteId {
    fn dense(self) -> usize {
        self.index()
    }
}

/// Marks a key as not present in a [`DenseSet`].
const ABSENT: usize = usize::MAX;

/// A set of dense keys with O(1) insert, remove and membership: the members
/// in a list plus a key→list-position index, removed by swap-remove. The
/// list order depends on the update history, so readers that need a
/// deterministic order sort or fold under a total order.
#[derive(Debug, Clone)]
struct DenseSet<T> {
    members: Vec<T>,
    pos: Vec<usize>,
}

impl<T: DenseKey> DenseSet<T> {
    /// An empty set over the keys `0..universe`.
    fn new(universe: usize) -> Self {
        DenseSet {
            members: Vec::new(),
            pos: vec![ABSENT; universe],
        }
    }

    fn contains(&self, key: T) -> bool {
        self.pos[key.dense()] != ABSENT
    }

    fn insert(&mut self, key: T) {
        debug_assert!(!self.contains(key), "key already in the set");
        self.pos[key.dense()] = self.members.len();
        self.members.push(key);
    }

    fn remove(&mut self, key: T) {
        let pos = self.pos[key.dense()];
        debug_assert!(pos != ABSENT, "key was not in the set");
        self.members.swap_remove(pos);
        if let Some(&moved) = self.members.get(pos) {
            self.pos[moved.dense()] = pos;
        }
        self.pos[key.dense()] = ABSENT;
    }

    fn len(&self) -> usize {
        self.members.len()
    }

    fn as_slice(&self) -> &[T] {
        &self.members
    }
}

/// The persistent occupancy arena (see the module docs). It keeps two views
/// of the grid side by side.
///
/// The *planned* view is what the transition being planned will leave
/// behind: flat site-indexed occupant cells, the per-zone sets of
/// planned-free sites, the spatial free-site index mirroring those sets,
/// and a per-qubit departs-to-storage flag used by the blocking test.
/// [`OccupancyArena::insert`] and [`OccupancyArena::remove`] are its only
/// update points.
///
/// The *current* view mirrors the layout as it stands before the
/// transition: each site's occupant count, the qubits resident in the
/// computation zone, and the sites holding two or more qubits. It changes
/// only where the layout does, through [`OccupancyArena::relocate`], so the
/// planner reads vacancy, parking candidates and stale pairs without
/// walking the layout's site map.
///
/// The storage-column index ([`StorageColumns`]) spans both views: per
/// storage column, the plan-free rows (kept by `mark_free` /
/// `unmark_free`) and the vacant rows (kept by `arrive` / `depart`).
/// Parking reads it instead of walking free sites.
#[derive(Debug, Clone)]
struct OccupancyArena {
    planned: Vec<PlannedSite>,
    free: [DenseSet<SiteId>; 2],
    storage_mover: Vec<bool>,
    index: SiteIndex,
    columns: StorageColumns,
    current: Vec<u8>,
    compute_residents: DenseSet<Qubit>,
    pairs: DenseSet<SiteId>,
}

fn zone_index(zone: Zone) -> usize {
    match zone {
        Zone::Compute => 0,
        Zone::Storage => 1,
    }
}

impl OccupancyArena {
    fn new(grid: &ZonedGrid, layout: &Layout) -> Self {
        let num_sites = grid.num_sites();
        let num_qubits = layout.num_qubits() as usize;
        let mut arena = OccupancyArena {
            planned: vec![PlannedSite::default(); num_sites],
            free: [DenseSet::new(num_sites), DenseSet::new(num_sites)],
            storage_mover: vec![false; num_qubits],
            index: SiteIndex::new(grid),
            columns: StorageColumns::new(grid),
            current: vec![0; num_sites],
            compute_residents: DenseSet::new(num_qubits),
            pairs: DenseSet::new(num_sites),
        };
        for zone in [Zone::Compute, Zone::Storage] {
            for site in grid.sites_in(zone) {
                arena.mark_free(zone, site);
            }
        }
        for (q, site) in layout.iter() {
            arena.insert(grid, site, q);
            arena.arrive(grid, site, q);
        }
        arena
    }

    fn mark_free(&mut self, zone: Zone, site: SiteId) {
        self.free[zone_index(zone)].insert(site);
        self.index.set_free(zone, site);
        if zone == Zone::Storage {
            self.columns.set_plan_free(site, true);
        }
    }

    fn unmark_free(&mut self, zone: Zone, site: SiteId) {
        self.free[zone_index(zone)].remove(site);
        self.index.clear_free(zone, site);
        if zone == Zone::Storage {
            self.columns.set_plan_free(site, false);
        }
    }

    /// Plans `q` to occupy `site` after the transition.
    fn insert(&mut self, grid: &ZonedGrid, site: SiteId, q: Qubit) {
        let cell = &mut self.planned[site.index()];
        let was_empty = cell.is_empty();
        cell.insert(q);
        if was_empty {
            self.unmark_free(grid.zone_of(site), site);
        }
    }

    /// Removes `q` from the planned occupants of `site`.
    fn remove(&mut self, grid: &ZonedGrid, site: SiteId, q: Qubit) {
        let cell = &mut self.planned[site.index()];
        let was_empty = cell.is_empty();
        cell.remove(q);
        if !was_empty && cell.is_empty() {
            self.mark_free(grid.zone_of(site), site);
        }
    }

    fn planned_len(&self, site: SiteId) -> usize {
        self.planned[site.index()].0.iter().flatten().count()
    }

    /// Returns `true` if no qubit occupies `site` in the current layout.
    fn is_vacant(&self, site: SiteId) -> bool {
        self.current[site.index()] == 0
    }

    /// Moves `q` to `to` in `layout` — or removes it, for `None` — and
    /// updates the current view to match: the single point where the
    /// layout the arena mirrors changes.
    fn relocate(&mut self, grid: &ZonedGrid, layout: &mut Layout, q: Qubit, to: Option<SiteId>) {
        if let Some(from) = layout.site_of(q) {
            self.depart(grid, from, q);
        }
        match to {
            Some(site) => {
                layout.place(q, site);
                self.arrive(grid, site, q);
            }
            None => layout.remove(q),
        }
    }

    fn arrive(&mut self, grid: &ZonedGrid, site: SiteId, q: Qubit) {
        let count = &mut self.current[site.index()];
        *count += 1;
        let count = *count;
        if count == 2 {
            self.pairs.insert(site);
        }
        match grid.zone_of(site) {
            Zone::Compute => self.compute_residents.insert(q),
            Zone::Storage if count == 1 => self.columns.set_vacant(site, false),
            Zone::Storage => {}
        }
    }

    fn depart(&mut self, grid: &ZonedGrid, site: SiteId, q: Qubit) {
        let count = &mut self.current[site.index()];
        *count -= 1;
        let count = *count;
        if count == 1 {
            self.pairs.remove(site);
        }
        match grid.zone_of(site) {
            Zone::Compute => self.compute_residents.remove(q),
            Zone::Storage if count == 0 => self.columns.set_vacant(site, true),
            Zone::Storage => {}
        }
    }
}

/// The mutable state a [`RoutingStrategy`](crate::RoutingStrategy) threads
/// through the stage sequence: the target architecture, the evolving qubit
/// layout, the storage-mode flag and the persistent planned-occupancy
/// arena.
///
/// The state owns the full greedy transition planner
/// ([`RoutingState::route_stage_with`]); strategies either run it under the
/// [`ZeroBias`] policy (the default
/// [`RoutingStrategy::route_stage`](crate::RoutingStrategy::route_stage))
/// or bias its site decisions with their own [`SitePolicy`] (the lookahead
/// router). Custom strategies get the same entry point.
///
/// The initial layout must target `arch`'s grid (every placed site within
/// the grid, at most two qubits per site), as
/// [`Layout::row_major`] guarantees.
#[derive(Debug, Clone)]
pub struct RoutingState {
    arch: Architecture,
    layout: Layout,
    use_storage: bool,
    arena: OccupancyArena,
    search: SearchState,
    lookahead_scratch: AttractorBuffers,
    stage_scratch: StageScratch,
}

/// The per-stage transients of [`RoutingState::route_stage_with`], kept
/// between stages so planning a stage allocates only the plan it returns.
/// Each buffer is cleared where the planner fills it.
#[derive(Debug, Clone, Default)]
struct StageScratch {
    /// The stage's qubits, sorted without repeats.
    interacting: Vec<Qubit>,
    /// Shared sites in ascending order (non-storage mode).
    shared: Vec<SiteId>,
    /// Stale co-located qubits to separate, with their site.
    stale: Vec<(Qubit, SiteId)>,
    /// Idle computation-zone qubits to park, with site and position.
    to_park: Vec<(Qubit, SiteId, Point)>,
    /// Undecided `(anchor, mobile)` pairs resolved in step 3.
    pending: Vec<(Qubit, Qubit)>,
}

/// The per-state free-site search apparatus: the reusable best-first
/// frontier allocation plus the running `site_scans` / `sites_pruned`
/// totals.
#[derive(Debug, Clone, Default)]
struct SearchState {
    scratch: SearchScratch,
    stats: ScanStats,
}

impl RoutingState {
    /// Creates the routing state starting from `initial_layout`.
    #[must_use]
    pub fn new(arch: Architecture, initial_layout: Layout, use_storage: bool) -> Self {
        let arena = OccupancyArena::new(arch.grid(), &initial_layout);
        RoutingState {
            arch,
            layout: initial_layout,
            use_storage,
            arena,
            search: SearchState::default(),
            lookahead_scratch: AttractorBuffers::default(),
            stage_scratch: StageScratch::default(),
        }
    }

    /// The current qubit layout.
    #[must_use]
    pub fn layout(&self) -> &Layout {
        &self.layout
    }

    /// The target architecture.
    #[must_use]
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// Whether idle qubits are parked in the storage zone between stages.
    #[must_use]
    pub fn use_storage(&self) -> bool {
        self.use_storage
    }

    /// The cumulative free-site search counters
    /// `(site_scans, sites_pruned)` over every stage routed through this
    /// state: candidates examined by the planner's free-site queries, and
    /// candidates the spatial index's pruning cutoff skipped. The pass
    /// pipeline surfaces them as the `site_scans` / `sites_pruned` metadata
    /// counters.
    #[must_use]
    pub fn scan_counters(&self) -> (u64, u64) {
        (self.search.stats.scans, self.search.stats.pruned)
    }

    /// Detaches the lookahead attractor scratch so a strategy can fill it
    /// while holding other borrows of the state; pair with
    /// [`RoutingState::restore_lookahead_scratch`].
    pub(crate) fn take_lookahead_scratch(&mut self) -> AttractorBuffers {
        std::mem::take(&mut self.lookahead_scratch)
    }

    /// Returns the attractor scratch taken by
    /// [`RoutingState::take_lookahead_scratch`], keeping its allocations
    /// for the next stage.
    pub(crate) fn restore_lookahead_scratch(&mut self, buffers: AttractorBuffers) {
        self.lookahead_scratch = buffers;
    }

    /// Plans the greedy single-qubit movements that prepare the given stage
    /// under a [`SitePolicy`] and applies them to the internal layout.
    ///
    /// The plan follows the three steps of Sec. 5.2:
    ///
    /// 1. non-interacting qubits currently in the computation zone move to
    ///    the nearest free storage site (with-storage mode only), planned in
    ///    descending order of their `y` coordinate;
    /// 2. interacting qubits are labelled static / mobile / undecided
    ///    according to the four zone cases of Fig. 4;
    /// 3. undecided qubits (and their partners) are assigned the free
    ///    computation-zone site minimizing anchor distance plus
    ///    [`SitePolicy::bias`].
    ///
    /// [`ZeroBias`] scores every site by distance alone and is the greedy
    /// plan; strategy-specific policies steer only step 3.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoFreeSite`] if a zone runs out of free sites;
    /// this cannot happen with the paper's default grid dimensions.
    pub fn route_stage_with(
        &mut self,
        stage: &Stage,
        policy: &(impl SitePolicy + ?Sized),
    ) -> Result<StageRouting, CompileError> {
        // Disjoint field borrows: the grid stays borrowed from `arch` for
        // the whole stage while the arena, layout and search state are
        // mutated.
        let RoutingState {
            arch,
            layout,
            use_storage,
            arena,
            search,
            lookahead_scratch: _,
            stage_scratch:
                StageScratch {
                    interacting,
                    shared,
                    stale,
                    to_park,
                    pending,
                },
        } = self;
        let grid = arch.grid();
        interacting.clear();
        interacting.extend(stage.gates().iter().flat_map(CzGate::qubits));
        interacting.sort_unstable();
        interacting.dedup();
        let idle = |q: &Qubit| interacting.binary_search(q).is_err();

        let mut routing = StageRouting::default();

        // Step 1 (non-storage mode): separate stale pairs. Two qubits left
        // co-located from a previous stage that do not interact now would
        // undergo an unwanted CZ during the next excitation, so one of them
        // is relocated to the nearest free computation-zone site.
        // Candidates are the arena's shared sites, visited in ascending site
        // order with occupants in layout order.
        if !*use_storage {
            shared.clear();
            shared.extend_from_slice(arena.pairs.as_slice());
            shared.sort_unstable();
            stale.clear();
            stale.extend(
                shared
                    .iter()
                    .filter(|&&site| layout.occupants(site).iter().all(idle))
                    .flat_map(|&site| layout.occupants(site)[1..].iter().map(move |&q| (q, site))),
            );
            for &(q, from) in stale.iter() {
                arena.remove(grid, from, q);
                let from_pos = grid.position(from);
                let target = SiteFinder::new(arena, layout, grid, search)
                    .nearest(Zone::Compute, from_pos)
                    .ok_or(CompileError::NoFreeSite {
                        qubit: q,
                        zone: Zone::Compute,
                    })?;
                arena.insert(grid, target, q);
                routing.storage_moves.push(SiteMove::new(q, from, target));
            }
        }

        // Step 1: park non-interacting computation-zone qubits in storage.
        // Qubits move vertically down into their own column whenever a free
        // site exists there. Planning in descending order of the y
        // coordinate — qubits farther from the storage zone choose first, as
        // prescribed in Sec. 5.2 — lets the farthest qubit take the
        // shallowest free row, which both shortens the longest move and
        // preserves the relative row order of the parked qubits, so the
        // parking moves typically fit in a single collective move. The
        // candidates are the arena's computation-zone residents; the sort
        // key is total, so their set order does not matter.
        if *use_storage {
            to_park.clear();
            to_park.extend(
                arena
                    .compute_residents
                    .as_slice()
                    .iter()
                    .filter(|q| idle(q))
                    .map(|&q| {
                        let site = layout.site_of(q).expect("resident qubit is placed");
                        (q, site, grid.position(site))
                    }),
            );
            to_park.sort_unstable_by(|a, b| {
                b.2.y
                    .partial_cmp(&a.2.y)
                    .unwrap_or(Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for &(q, from, from_pos) in to_park.iter() {
                arena.remove(grid, from, q);
                let (col, _) = grid.col_row(from);
                let same_column = arena
                    .columns
                    .shallowest(col, true)
                    .and_then(|row| grid.site(Zone::Storage, col, row));
                debug_assert_eq!(
                    same_column,
                    (0..grid.storage_rows())
                        .filter_map(|row| grid.site(Zone::Storage, col, row))
                        .find(|s| arena.planned_len(*s) == 0 && arena.is_vacant(*s)),
                    "storage-column index diverged from the arena"
                );
                let target = same_column
                    .or_else(|| {
                        SiteFinder::new(arena, layout, grid, search)
                            .nearest(Zone::Storage, from_pos)
                    })
                    .ok_or(CompileError::NoFreeSite {
                        qubit: q,
                        zone: Zone::Storage,
                    })?;
                arena.insert(grid, target, q);
                routing.storage_moves.push(SiteMove::new(q, from, target));
            }
        }

        // Qubits that leave for the storage zone during this transition.
        // Their collective moves are always scheduled before the interaction
        // moves (Sec. 6.1 prioritizes move-ins), so a site they vacate can
        // safely host an interaction afterwards — this is the Fig. 4(c)
        // case 1 optimization.
        for m in &routing.storage_moves {
            arena.storage_mover[m.qubit.as_usize()] = true;
        }

        // Step 2: label interacting qubits and decide direct moves.
        // `pending` holds (anchor, mobile) pairs whose interaction site is
        // resolved in step 3.
        pending.clear();
        for gate in stage.gates() {
            let a = gate.lo();
            let b = gate.hi();
            let sa = layout.site_of(a).expect("interacting qubit is placed");
            let sb = layout.site_of(b).expect("interacting qubit is placed");
            if sa == sb {
                // Already co-located from the previous stage: both static.
                continue;
            }
            let za = grid.zone_of(sa);
            let zb = grid.zone_of(sb);

            // Choose which qubit anchors the interaction site. A qubit can
            // anchor (stay "static") only if its site hosts no third-party
            // occupant: neither one that stays (which would cluster during
            // the excitation) nor one that departs later in the transition
            // (which would transiently overfill the trap site). Otherwise
            // the gate's location is "undecided" and resolved in step 3.
            let (mobile, anchor, anchor_site, mut anchor_moves) = match (za, zb) {
                (Zone::Storage, Zone::Storage) => (a, b, sb, true),
                (Zone::Storage, Zone::Compute) => (a, b, sb, false),
                (Zone::Compute, Zone::Storage) => (b, a, sa, false),
                (Zone::Compute, Zone::Compute) => {
                    let blocked_a = is_blocked(arena, layout, sa, a, b);
                    let blocked_b = is_blocked(arena, layout, sb, a, b);
                    if !blocked_b {
                        (a, b, sb, false)
                    } else if !blocked_a {
                        (b, a, sa, false)
                    } else {
                        (a, b, sb, true)
                    }
                }
            };

            // The mobile qubit leaves its current site in every case.
            let mobile_site = if mobile == a { sa } else { sb };
            arena.remove(grid, mobile_site, mobile);

            // An anchor whose site hosts another qubit must relocate
            // (it becomes "undecided" in the paper's terminology).
            if !anchor_moves && is_blocked(arena, layout, anchor_site, anchor, mobile) {
                anchor_moves = true;
            }
            // An anchor sitting in storage always has to move out.
            if !anchor_moves && grid.zone_of(anchor_site) == Zone::Storage {
                anchor_moves = true;
            }

            if anchor_moves {
                arena.remove(grid, anchor_site, anchor);
                pending.push((anchor, mobile));
            } else {
                arena.insert(grid, anchor_site, mobile);
                routing
                    .interaction_moves
                    .push(SiteMove::new(mobile, mobile_site, anchor_site));
            }
        }

        // Step 3: resolve undecided qubits to the best free compute site —
        // nearest to the anchor, plus whatever bias the policy adds.
        for &(anchor, mobile) in pending.iter() {
            let anchor_from = layout.site_of(anchor).expect("interacting qubit is placed");
            let mobile_from = layout.site_of(mobile).expect("interacting qubit is placed");
            let anchor_pos = grid.position(anchor_from);
            let target = SiteFinder::new(arena, layout, grid, search)
                .best(
                    Zone::Compute,
                    anchor_pos,
                    policy.min_bias(),
                    policy.attractors(anchor, mobile),
                    |site, pos| policy.bias(anchor, mobile, site, pos),
                )
                .ok_or(CompileError::NoFreeSite {
                    qubit: anchor,
                    zone: Zone::Compute,
                })?;
            arena.insert(grid, target, anchor);
            arena.insert(grid, target, mobile);
            routing
                .interaction_moves
                .push(SiteMove::new(anchor, anchor_from, target));
            routing
                .interaction_moves
                .push(SiteMove::new(mobile, mobile_from, target));
        }

        // Apply the transition to the internal layout and retire the
        // per-stage departs-to-storage flags. The layout now matches the
        // arena's planned occupancy exactly — the invariant that lets the
        // arena persist into the next stage without a rebuild.
        for m in routing
            .storage_moves
            .iter()
            .chain(&routing.interaction_moves)
        {
            arena.relocate(grid, layout, m.qubit, Some(m.to));
        }
        for m in &routing.storage_moves {
            arena.storage_mover[m.qubit.as_usize()] = false;
        }
        Ok(routing)
    }
}

/// Returns `true` if `site` cannot serve as a static interaction site for
/// the excluded pair.
///
/// Two kinds of third-party occupants block a site: qubits planned to
/// remain there after the transition (they would cluster with the pair
/// during the excitation), and qubits still physically present that depart
/// later within the same transition (an early arrival would transiently
/// overfill the trap site). Occupants that leave for the storage zone do
/// *not* block — their collective moves are scheduled ahead of every
/// interaction move (Fig. 4(c) case 1 of the paper).
fn is_blocked(
    arena: &OccupancyArena,
    layout: &Layout,
    site: SiteId,
    exclude_a: Qubit,
    exclude_b: Qubit,
) -> bool {
    let planned_blocker = arena.planned[site.index()].blocks(exclude_a, exclude_b);
    let current_blocker = layout
        .occupants(site)
        .iter()
        .any(|&q| q != exclude_a && q != exclude_b && !arena.storage_mover[q.as_usize()]);
    planned_blocker || current_blocker
}

/// Returns `true` if `(s, site)` precedes the current best under the
/// planner's strict `(score, site index)` total order.
fn beats(s: f64, site: SiteId, best: &Option<(f64, SiteId)>) -> bool {
    match best {
        None => true,
        Some((best_score, best_site)) => match s.partial_cmp(best_score) {
            Some(Ordering::Less) => true,
            Some(Ordering::Greater) => false,
            _ => site < *best_site,
        },
    }
}

/// Free lists at or below this length are scanned linearly: seeding the
/// best-first frontier costs `O(rows · log rows)`, which only pays for
/// itself once the list is meaningfully longer than the frontier. Both
/// paths return the identical site.
const LINEAR_SCAN_THRESHOLD: usize = 16;

/// Relative rounding slack of the attractor-keyed cutoff: attractor scores
/// are convex along a row in real arithmetic, but their floating-point sums
/// may dip by a few ulps further along an arm.
const ATTRACTOR_SLACK: f64 = 1e-9;

/// One free-site query's borrow bundle: the arena (free lists plus spatial
/// index), the current layout (for the vacant-site preference), the grid
/// geometry and the reusable search state.
struct SiteFinder<'a> {
    arena: &'a OccupancyArena,
    layout: &'a Layout,
    grid: &'a ZonedGrid,
    search: &'a mut SearchState,
}

impl<'a> SiteFinder<'a> {
    fn new(
        arena: &'a OccupancyArena,
        layout: &'a Layout,
        grid: &'a ZonedGrid,
        search: &'a mut SearchState,
    ) -> Self {
        SiteFinder {
            arena,
            layout,
            grid,
            search,
        }
    }

    /// Finds the free site of `zone` nearest to `from`, preferring vacant
    /// sites. A storage query over more than [`LINEAR_SCAN_THRESHOLD`]
    /// free sites from an anchor facing the storage zone is answered by
    /// the storage-column index ([`SiteFinder::nearest_storage`]); every
    /// other query by [`SiteFinder::best`].
    fn nearest(&mut self, zone: Zone, from: Point) -> Option<SiteId> {
        if zone == Zone::Storage
            && self.arena.free[zone_index(zone)].len() > LINEAR_SCAN_THRESHOLD
            && self.arena.columns.faces(from)
        {
            return self.nearest_storage(from);
        }
        self.best(zone, from, 0.0, Attractors::default(), |_, _| 0.0)
    }

    /// The storage-column answer to [`SiteFinder::nearest`] in the storage
    /// zone, for an anchor that faces the storage zone (the index's
    /// precondition). It charges the counters what the best-first walk
    /// examines for the same site, which debug builds check against the
    /// walk on every query.
    fn nearest_storage(&mut self, from: Point) -> Option<SiteId> {
        let free_len = self.arena.free[zone_index(Zone::Storage)].len();
        let (chosen, examined) = self.arena.columns.nearest(self.grid, from, free_len);
        debug_assert_eq!(
            (chosen, examined),
            self.best_pruned(Zone::Storage, from, 0.0, Attractors::default(), &|_, _| 0.0),
            "storage-column parking diverged from the free-site walk"
        );
        self.charge(free_len, examined);
        chosen
    }

    /// Adds one pruned query's work to the counters: `examined` of the
    /// zone's `free_len` free sites.
    fn charge(&mut self, free_len: usize, examined: u64) {
        self.search.stats.scans += examined;
        self.search.stats.pruned += free_len as u64 - examined;
    }

    /// Finds the free site of `zone` minimizing
    /// `distance(site, anchor) + bias(site)` under the planner's
    /// `(score, site index)` total order, preferring sites that are also
    /// vacant in the current layout.
    ///
    /// Dispatches between the linear reference scan (short free lists) and
    /// the index-pruned best-first search; both return the identical site,
    /// which debug builds assert on every pruned query.
    fn best(
        &mut self,
        zone: Zone,
        anchor: Point,
        min_bias: f64,
        attractors: Attractors<'_>,
        bias: impl Fn(SiteId, Point) -> f64,
    ) -> Option<SiteId> {
        let free_len = self.arena.free[zone_index(zone)].len();
        if free_len <= LINEAR_SCAN_THRESHOLD {
            self.search.stats.scans += free_len as u64;
            return self.best_linear(zone, anchor, &bias);
        }
        let (chosen, examined) = self.best_pruned(zone, anchor, min_bias, attractors, &bias);
        self.charge(free_len, examined);
        debug_assert_eq!(
            chosen,
            self.best_linear(zone, anchor, &bias),
            "pruned free-site search diverged from the linear reference scan"
        );
        chosen
    }

    /// The reference path: a single fold over the zone's free list. Kept
    /// (and re-run under `debug_assertions` after every pruned query) as
    /// the executable specification the index must match site-for-site.
    ///
    /// A site is free when nothing is planned to occupy it after the
    /// transition — exactly the zone's arena free list. Sites that are also
    /// empty *before* the transition are preferred, which avoids transient
    /// three-atom occupancies while a previous occupant is still waiting
    /// for its own collective move. Ties are broken by site index, keeping
    /// every strategy deterministic regardless of free-list order.
    fn best_linear(
        &self,
        zone: Zone,
        anchor: Point,
        bias: &impl Fn(SiteId, Point) -> f64,
    ) -> Option<SiteId> {
        let mut best_vacant: Option<(f64, SiteId)> = None;
        let mut best_any: Option<(f64, SiteId)> = None;
        for &site in self.arena.free[zone_index(zone)].as_slice() {
            let pos = self.grid.position(site);
            let s = pos.distance(anchor) + bias(site, pos);
            if beats(s, site, &best_any) {
                best_any = Some((s, site));
            }
            if self.layout.occupancy(site) == 0 && beats(s, site, &best_vacant) {
                best_vacant = Some((s, site));
            }
        }
        best_vacant.or(best_any).map(|(_, site)| site)
    }

    /// The indexed path: walks free sites in non-decreasing walk key (anchor
    /// distance, or attractor score when the policy names attractors) and
    /// stops once `key + min_bias` can no longer beat the best vacant
    /// candidate.
    ///
    /// Why the cutoff is exact: suppose the globally best vacant site `V`
    /// had not been examined when the walk stopped at key `k` with best
    /// examined vacant score `s0`. Every unvisited site's key is `≥ k`, and
    /// the pruning contract makes its score `≥ key + min_bias`, so `V`
    /// scores `≥ k + min_bias > s0` (the cutoff is strict), contradicting
    /// `V` being best. Distance keys are exact floating-point lower bounds;
    /// attractor keys are non-decreasing only in real arithmetic, so their
    /// cutoff tolerates [`ATTRACTOR_SLACK`] of rounding. The cutoff never
    /// engages before a vacant candidate exists, and a vacant candidate
    /// always outranks every merely plan-free site
    /// (`best_vacant.or(best_any)`), so sites skipped after that point
    /// cannot affect the result either.
    fn best_pruned(
        &mut self,
        zone: Zone,
        anchor: Point,
        min_bias: f64,
        attractors: Attractors<'_>,
        bias: &impl Fn(SiteId, Point) -> f64,
    ) -> (Option<SiteId>, u64) {
        let slack = if attractors.is_empty() {
            0.0
        } else {
            ATTRACTOR_SLACK
        };
        let mut ring = FreeRing::new(
            &self.arena.index,
            self.grid,
            zone,
            anchor,
            attractors,
            &mut self.search.scratch,
        );
        let mut best_vacant: Option<(f64, SiteId)> = None;
        let mut best_any: Option<(f64, SiteId)> = None;
        let mut examined: u64 = 0;
        while let Some(Visit {
            site,
            pos,
            dist,
            key,
        }) = ring.next_free()
        {
            if let Some((vacant_score, _)) = best_vacant {
                // Strict `>`: an equal score could still win on the
                // site-index tie-break, so equal lower bounds keep going.
                if key + min_bias > vacant_score + vacant_score.abs() * slack {
                    break;
                }
            }
            examined += 1;
            let vacant = self.arena.is_vacant(site);
            if !vacant && best_vacant.is_some() {
                continue;
            }
            let s = dist + bias(site, pos);
            if beats(s, site, &best_any) {
                best_any = Some((s, site));
            }
            if vacant && beats(s, site, &best_vacant) {
                best_vacant = Some((s, site));
            }
        }
        (best_vacant.or(best_any).map(|(_, site)| site), examined)
    }
}

/// A verification harness over the free-site search: drives controlled
/// occupancy churn on a private arena/layout pair and exposes both the
/// index-pruned search and the linear reference scan for site-for-site
/// comparison.
///
/// This is the supported seam behind the schedule linter's
/// pruned-vs-linear agreement rule (`powermove_bench::lint`'s
/// `check_free_site_agreement*`, which the churn property test in
/// `tests/routing_properties.rs` also asserts through): it reaches the
/// search through this type without routing whole stages. The searches
/// themselves stay private — the harness is the only stable way to drive
/// them out of pipeline context.
#[derive(Debug, Clone)]
pub struct FreeSiteHarness {
    arch: Architecture,
    layout: Layout,
    arena: OccupancyArena,
    search: SearchState,
}

impl FreeSiteHarness {
    /// Creates the harness over `arch`'s grid with an empty layout for
    /// `num_qubits` qubits: every site starts free.
    #[must_use]
    pub fn new(arch: Architecture, num_qubits: u32) -> Self {
        let layout = Layout::empty(num_qubits);
        let arena = OccupancyArena::new(arch.grid(), &layout);
        FreeSiteHarness {
            arch,
            layout,
            arena,
            search: SearchState::default(),
        }
    }

    /// Creates the harness pre-seeded from an existing layout: every placed
    /// qubit occupies its site in both the layout copy and the arena, the
    /// steady state the planner maintains at stage boundaries. This is how
    /// the schedule linter replays a compiled program's initial layout into
    /// the search.
    #[must_use]
    pub fn from_layout(arch: Architecture, layout: &Layout) -> Self {
        let mut harness = FreeSiteHarness::new(arch, layout.num_qubits());
        for (q, site) in layout.iter() {
            harness.occupy(q, site);
        }
        harness
    }

    /// The grid under the harness.
    #[must_use]
    pub fn grid(&self) -> &ZonedGrid {
        self.arch.grid()
    }

    /// Occupies `site` with `q` in both the layout and the arena plan (the
    /// steady-state agreement the planner maintains at stage boundaries).
    /// Relocates `q` if it was already placed.
    pub fn occupy(&mut self, q: Qubit, site: SiteId) {
        let grid = self.arch.grid();
        if let Some(old) = self.layout.site_of(q) {
            self.arena.remove(grid, old, q);
        }
        self.arena.relocate(grid, &mut self.layout, q, Some(site));
        self.arena.insert(grid, site, q);
    }

    /// Removes `q` from both the layout and the arena plan.
    pub fn vacate(&mut self, q: Qubit) {
        let grid = self.arch.grid();
        if let Some(site) = self.layout.site_of(q) {
            self.arena.remove(grid, site, q);
            self.arena.relocate(grid, &mut self.layout, q, None);
        }
    }

    /// Plans `q` at `site` without touching the layout — the transient
    /// mid-stage divergence (site plan-occupied but still vacant) the
    /// vacant-site preference is about.
    pub fn plan(&mut self, q: Qubit, site: SiteId) {
        self.arena.insert(self.arch.grid(), site, q);
    }

    /// Reverts a [`FreeSiteHarness::plan`] call.
    pub fn unplan(&mut self, q: Qubit, site: SiteId) {
        self.arena.remove(self.arch.grid(), site, q);
    }

    /// Number of qubits planned at `site`.
    #[must_use]
    pub fn planned_len(&self, site: SiteId) -> usize {
        self.arena.planned_len(site)
    }

    /// The index-pruned best-first search, forced regardless of free-list
    /// length (no linear fallback, no debug cross-check — tests compare
    /// against [`FreeSiteHarness::best_linear`] explicitly). `min_bias` and
    /// `attractors` are the caller's claim about `bias` under the
    /// [`SitePolicy`] pruning contract.
    pub fn best(
        &mut self,
        zone: Zone,
        anchor: Point,
        min_bias: f64,
        attractors: Attractors<'_>,
        bias: &dyn Fn(SiteId, Point) -> f64,
    ) -> Option<SiteId> {
        let free_len = self.arena.free[zone_index(zone)].len();
        let mut finder = SiteFinder::new(
            &self.arena,
            &self.layout,
            self.arch.grid(),
            &mut self.search,
        );
        let (chosen, examined) =
            finder.best_pruned(zone, anchor, min_bias, attractors, &|s, p| bias(s, p));
        finder.charge(free_len, examined);
        chosen
    }

    /// The storage-column parking query, forced regardless of free-list
    /// length: the nearest plan-free storage site to `anchor`, vacant ones
    /// first, charging the counters what the walk
    /// ([`FreeSiteHarness::best`] with no bias) would have examined. Debug
    /// builds check the site and count against the walk.
    ///
    /// # Panics
    ///
    /// Panics if `anchor` lies below storage row 0 (or the grid has no
    /// storage), where distance need not grow with the row.
    pub fn nearest_storage(&mut self, anchor: Point) -> Option<SiteId> {
        assert!(
            self.arena.columns.faces(anchor),
            "the anchor must face the storage zone"
        );
        SiteFinder::new(
            &self.arena,
            &self.layout,
            self.arch.grid(),
            &mut self.search,
        )
        .nearest_storage(anchor)
    }

    /// The linear reference scan over the zone's free list.
    #[must_use]
    pub fn best_linear(
        &self,
        zone: Zone,
        anchor: Point,
        bias: &dyn Fn(SiteId, Point) -> f64,
    ) -> Option<SiteId> {
        let mut search = SearchState::default();
        SiteFinder::new(&self.arena, &self.layout, self.arch.grid(), &mut search).best_linear(
            zone,
            anchor,
            &|s, p| bias(s, p),
        )
    }

    /// The harness's cumulative `(site_scans, sites_pruned)` counters.
    #[must_use]
    pub fn counters(&self) -> (u64, u64) {
        (self.search.stats.scans, self.search.stats.pruned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::CzGate;
    use powermove_hardware::Architecture;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn stage(edges: &[(u32, u32)]) -> Stage {
        Stage::new(
            edges
                .iter()
                .map(|&(a, b)| CzGate::new(q(a), q(b)))
                .collect(),
        )
    }

    fn storage_router(n: u32) -> RoutingState {
        let arch = Architecture::for_qubits(n);
        let layout = Layout::row_major(&arch, n, Zone::Storage).unwrap();
        RoutingState::new(arch, layout, true)
    }

    fn compute_router(n: u32) -> RoutingState {
        let arch = Architecture::for_qubits(n);
        let layout = Layout::row_major(&arch, n, Zone::Compute).unwrap();
        RoutingState::new(arch, layout, false)
    }

    /// After routing a stage, every gate pair must share a computation-zone
    /// site and no site may hold unrelated qubit groups.
    fn assert_stage_ready(router: &RoutingState, stage: &Stage) {
        let grid = router.architecture().grid();
        for gate in stage.gates() {
            let sa = router.layout().site_of(gate.lo()).unwrap();
            let sb = router.layout().site_of(gate.hi()).unwrap();
            assert_eq!(sa, sb, "pair {gate} not co-located");
            assert_eq!(grid.zone_of(sa), Zone::Compute);
        }
        for (site, occupants) in router.layout().occupied_sites() {
            assert!(occupants.len() <= 2, "site {site} overcrowded");
            if occupants.len() == 2 && grid.zone_of(site) == Zone::Compute {
                let pair_ok = stage.gates().iter().any(|g| {
                    (g.lo() == occupants[0] && g.hi() == occupants[1])
                        || (g.lo() == occupants[1] && g.hi() == occupants[0])
                });
                assert!(pair_ok, "unrelated qubits clustered at {site}");
            }
        }
    }

    /// The arena's planned occupancy must equal the layout at every stage
    /// boundary — the invariant that lets the arena persist across stages.
    fn assert_arena_matches_layout(router: &RoutingState) {
        let grid = router.architecture().grid();
        for site in grid.all_sites() {
            let mut planned: Vec<Qubit> = router.arena.planned[site.index()]
                .0
                .iter()
                .flatten()
                .copied()
                .collect();
            planned.sort();
            let mut current: Vec<Qubit> = router.layout().occupants(site).to_vec();
            current.sort();
            assert_eq!(planned, current, "arena drifted from layout at {site}");
            let in_free_list = router.arena.free[zone_index(grid.zone_of(site))].contains(site);
            assert_eq!(
                in_free_list,
                planned.is_empty(),
                "free list stale at {site}"
            );
        }
        assert_current_view_matches(&router.arena, router.layout(), grid);
    }

    /// The arena's current view — vacancy mirror, compute residents and
    /// shared sites — must equal the layout it mirrors, at every point the
    /// layout changes.
    fn assert_current_view_matches(arena: &OccupancyArena, layout: &Layout, grid: &ZonedGrid) {
        for site in grid.all_sites() {
            let occupancy = layout.occupancy(site);
            assert_eq!(
                usize::from(arena.current[site.index()]),
                occupancy,
                "vacancy mirror drifted from layout at {site}"
            );
            assert_eq!(
                arena.pairs.contains(site),
                occupancy >= 2,
                "shared-site set stale at {site}"
            );
        }
        let mut residents: Vec<Qubit> = layout
            .iter()
            .filter(|&(_, site)| grid.zone_of(site) == Zone::Compute)
            .map(|(q, _)| q)
            .collect();
        residents.sort();
        let mut tracked = arena.compute_residents.as_slice().to_vec();
        tracked.sort();
        assert_eq!(tracked, residents, "compute residents drifted from layout");
        for q in 0..layout.num_qubits() {
            assert_eq!(
                arena.compute_residents.contains(Qubit::new(q)),
                residents.binary_search(&Qubit::new(q)).is_ok(),
                "resident index stale for q{q}"
            );
        }
    }

    #[test]
    fn storage_pairs_move_to_compute() {
        let mut router = storage_router(6);
        let st = stage(&[(0, 1), (2, 3)]);
        let routing = router.route_stage_with(&st, &ZeroBias).unwrap();
        assert_stage_ready(&router, &st);
        // Both pairs started in storage: four interaction moves, no storage
        // moves (non-interacting qubits were already in storage).
        assert!(routing.storage_moves.is_empty());
        assert_eq!(routing.interaction_moves.len(), 4);
    }

    #[test]
    fn non_interacting_qubits_return_to_storage() {
        let mut router = storage_router(6);
        let first = stage(&[(0, 1), (2, 3)]);
        router.route_stage_with(&first, &ZeroBias).unwrap();
        // Next stage uses only qubits 4 and 5: qubits 0-3 must be parked.
        let second = stage(&[(4, 5)]);
        let routing = router.route_stage_with(&second, &ZeroBias).unwrap();
        assert_stage_ready(&router, &second);
        assert_eq!(routing.storage_moves.len(), 4);
        let grid = router.architecture().grid();
        for i in 0..4 {
            let site = router.layout().site_of(q(i)).unwrap();
            assert_eq!(grid.zone_of(site), Zone::Storage);
        }
    }

    #[test]
    fn consecutive_stages_reuse_layout_without_reverting() {
        let mut router = storage_router(6);
        let first = stage(&[(0, 1), (2, 3), (4, 5)]);
        router.route_stage_with(&first, &ZeroBias).unwrap();
        // Second stage re-pairs overlapping qubits (the Fig. 3 example).
        let second = stage(&[(1, 2), (3, 4)]);
        let routing = router.route_stage_with(&second, &ZeroBias).unwrap();
        assert_stage_ready(&router, &second);
        // Qubits 0 and 5 are non-interacting and go to storage; the other
        // four re-pair directly without reverting to the initial layout.
        assert_eq!(routing.storage_moves.len(), 2);
        assert!(routing.interaction_moves.len() <= 6);
    }

    #[test]
    fn already_colocated_pair_does_not_move() {
        let mut router = storage_router(4);
        let st = stage(&[(0, 1)]);
        router.route_stage_with(&st, &ZeroBias).unwrap();
        let moves_first = router.layout().site_of(q(0)).unwrap();
        // Re-running the same pair requires no interaction moves.
        let routing = router.route_stage_with(&st, &ZeroBias).unwrap();
        assert!(routing.interaction_moves.is_empty());
        assert_eq!(router.layout().site_of(q(0)).unwrap(), moves_first);
    }

    #[test]
    fn non_storage_mode_keeps_everything_in_compute() {
        let mut router = compute_router(9);
        let st = stage(&[(0, 1), (2, 3), (4, 5)]);
        let routing = router.route_stage_with(&st, &ZeroBias).unwrap();
        assert_stage_ready(&router, &st);
        assert!(routing.storage_moves.is_empty());
        let grid = router.architecture().grid();
        for (_, site) in router.layout().iter() {
            assert_eq!(grid.zone_of(site), Zone::Compute);
        }
    }

    #[test]
    fn non_storage_mode_resolves_blocked_anchors() {
        let mut router = compute_router(9);
        // Pair the row 0 neighbours first.
        router
            .route_stage_with(&stage(&[(0, 1), (2, 3)]), &ZeroBias)
            .unwrap();
        // Now pair across the previous pairs, forcing relocations.
        let st = stage(&[(1, 2), (0, 3)]);
        let routing = router.route_stage_with(&st, &ZeroBias).unwrap();
        assert_stage_ready(&router, &st);
        assert!(!routing.is_empty());
    }

    #[test]
    fn chain_of_stages_stays_consistent() {
        let mut router = storage_router(10);
        let stages = [
            stage(&[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]),
            stage(&[(1, 2), (3, 4), (5, 6), (7, 8)]),
            stage(&[(0, 9), (2, 5)]),
            stage(&[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9)]),
        ];
        for st in &stages {
            router.route_stage_with(st, &ZeroBias).unwrap();
            assert_stage_ready(&router, st);
            assert_arena_matches_layout(&router);
        }
    }

    #[test]
    fn arena_tracks_layout_in_non_storage_mode() {
        let mut router = compute_router(9);
        let stages = [
            stage(&[(0, 1), (2, 3), (4, 5)]),
            stage(&[(1, 2), (0, 3)]),
            stage(&[(4, 8), (5, 6)]),
        ];
        for st in &stages {
            router.route_stage_with(st, &ZeroBias).unwrap();
            assert_arena_matches_layout(&router);
        }
    }

    #[test]
    fn routing_len_and_all_moves_agree() {
        let mut router = storage_router(6);
        let st = stage(&[(0, 1)]);
        let routing = router.route_stage_with(&st, &ZeroBias).unwrap();
        assert_eq!(routing.all_moves().len(), routing.len());
        assert!(!routing.is_empty());
    }

    #[test]
    fn zero_bias_policy_matches_a_zero_closure() {
        let stages = [
            stage(&[(0, 1), (2, 3), (4, 5), (6, 7)]),
            stage(&[(1, 2), (3, 4), (5, 6)]),
            stage(&[(0, 7), (2, 5)]),
        ];
        let mut greedy = storage_router(8);
        let mut scored = storage_router(8);
        for st in &stages {
            let a = greedy.route_stage_with(st, &ZeroBias).unwrap();
            let b = scored
                .route_stage_with(st, &BiasFn::new(|_, _, _| 0.0))
                .unwrap();
            assert_eq!(a, b);
        }
        assert_eq!(greedy.layout(), scored.layout());
    }

    #[test]
    fn bias_can_steer_an_undecided_pair() {
        // Two storage-resident pairs are undecided; a huge penalty on the
        // default (nearest) site pushes the pair elsewhere.
        let mut default_router = storage_router(4);
        let st = stage(&[(0, 1)]);
        let default_plan = default_router.route_stage_with(&st, &ZeroBias).unwrap();
        let default_site = default_plan.interaction_moves[0].to;

        let mut biased_router = storage_router(4);
        let biased_plan = biased_router
            .route_stage_with(
                &st,
                &BiasFn::new(|_, _, site| {
                    if site == default_site {
                        1.0 // one meter: dwarfs any on-grid distance
                    } else {
                        0.0
                    }
                }),
            )
            .unwrap();
        assert_ne!(biased_plan.interaction_moves[0].to, default_site);
    }

    #[test]
    fn scan_counters_accumulate_and_pruning_engages_on_large_grids() {
        // 100 qubits: 10x10 compute, 10x20 storage — free lists far above
        // the linear threshold, so step-3 queries take the pruned path
        // (every such query also re-runs the linear reference under
        // debug_assertions and asserts site-for-site equality).
        let mut router = storage_router(100);
        let st = stage(&[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]);
        router.route_stage_with(&st, &ZeroBias).unwrap();
        let (scans, pruned) = router.scan_counters();
        assert!(scans > 0, "no free-site candidates examined");
        assert!(pruned > 0, "spatial index never pruned on a 300-site grid");
        // Counters are monotone across stages. Both qubits of the pair are
        // still storage-resident, so the pair is undecided and step 3 must
        // run a free-site query.
        let st2 = stage(&[(20, 21)]);
        router.route_stage_with(&st2, &ZeroBias).unwrap();
        let (scans2, pruned2) = router.scan_counters();
        assert!(scans2 > scans);
        assert!(pruned2 >= pruned);
    }

    #[test]
    fn harness_pruned_search_matches_linear_and_prefers_vacant_sites() {
        let arch = Architecture::for_qubits(64);
        let mut h = FreeSiteHarness::new(arch, 64);
        let grid = h.grid().clone();
        let zero = |_: SiteId, _: Point| 0.0;

        // Occupy a handful of sites; plan (without placing) at the site
        // nearest the anchor so the vacant preference must skip it.
        for (i, site) in grid.sites_in(Zone::Compute).take(6).enumerate() {
            h.occupy(q(i as u32), site);
        }
        let anchor_site = grid.site(Zone::Compute, 3, 3).unwrap();
        let anchor = grid.position(anchor_site);
        h.plan(q(60), anchor_site);

        let pruned = h.best(Zone::Compute, anchor, 0.0, Attractors::default(), &zero);
        let linear = h.best_linear(Zone::Compute, anchor, &zero);
        assert_eq!(pruned, linear);
        // The planned-but-vacant anchor site is no longer free, and the
        // result must be vacant in the layout.
        let chosen = pruned.unwrap();
        assert_ne!(chosen, anchor_site);
        let (scans, pruned_count) = h.counters();
        assert!(scans > 0);
        assert!(pruned_count > 0, "cutoff never engaged near a vacant site");

        h.unplan(q(60), anchor_site);
        assert_eq!(
            h.best(Zone::Compute, anchor, 0.0, Attractors::default(), &zero),
            Some(anchor_site),
            "freed anchor site should win at distance zero"
        );
        h.vacate(q(0));
        assert_eq!(
            h.arena.free[zone_index(Zone::Compute)].len(),
            grid.num_compute_sites() - 5
        );
        assert_eq!(h.planned_len(anchor_site), 0);
        assert_current_view_matches(&h.arena, &h.layout, &grid);
    }

    #[test]
    fn harness_churn_keeps_the_current_view_in_step_with_the_layout() {
        // Seeded occupy / relocate / vacate churn across both zones,
        // including stacking two qubits on one site and moving a qubit off a
        // shared site; the current view is checked after every step. Each
        // step also unplans a placed qubit, leaving its site plan-free but
        // occupied (a departure mid-stage), and asks the pruned search —
        // which reads vacancy from the mirror — for the site nearest it.
        let zero = |_: SiteId, _: Point| 0.0;
        let arch = Architecture::for_qubits(16);
        let mut h = FreeSiteHarness::new(arch, 16);
        let grid = h.grid().clone();
        let num_sites = grid.num_sites() as u64;
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut shared_steps = 0;
        for step in 0..600 {
            let qubit = q(next(16) as u32);
            if next(5) == 0 {
                h.vacate(qubit);
            } else {
                let site = SiteId::new(next(num_sites) as usize);
                if h.planned_len(site) < 2 || h.layout.site_of(qubit) == Some(site) {
                    h.occupy(qubit, site);
                }
            }
            if step % 7 == 0 {
                // Stack a second qubit onto a singly occupied site.
                let single = h
                    .layout
                    .occupied_sites()
                    .find(|(_, occupants)| occupants.len() == 1)
                    .map(|(site, _)| site);
                let other = q(next(16) as u32);
                if let Some(site) = single.filter(|&s| h.layout.site_of(other) != Some(s)) {
                    h.occupy(other, site);
                }
            }
            assert_current_view_matches(&h.arena, &h.layout, &grid);
            shared_steps += usize::from(h.arena.pairs.len() > 0);
            let mover = q(next(16) as u32);
            if let Some(site) = h.layout.site_of(mover) {
                h.unplan(mover, site);
                let (zone, anchor) = (grid.zone_of(site), grid.position(site));
                assert_eq!(
                    h.best(zone, anchor, 0.0, Attractors::default(), &zero),
                    h.best_linear(zone, anchor, &zero),
                    "step {step}: pruned search diverged next to a departing qubit"
                );
                h.plan(mover, site);
            }
        }
        assert!(shared_steps > 0, "churn never stacked two qubits on a site");
    }

    /// Seeded storage churn on `arch` — occupying, vacating, and planning
    /// sites apart from the layout (plan-free but occupied, planned but
    /// vacant) — with a parking query from a random computation-zone
    /// anchor after every step: the storage-column index must return the
    /// walk's site and charge the walk's `(site_scans, sites_pruned)`.
    /// `prefill` rows of every column start occupied, which pushes the
    /// winners deep. Returns how many queries found no vacant plan-free
    /// site and how many chose a site at row 64 or deeper.
    fn assert_parking_matches_the_walk(
        arch: Architecture,
        prefill: u32,
        seed: u64,
    ) -> (usize, usize) {
        let zero = |_: SiteId, _: Point| 0.0;
        let grid = arch.grid().clone();
        let storage: Vec<SiteId> = grid.sites_in(Zone::Storage).collect();
        let compute: Vec<SiteId> = grid.sites_in(Zone::Compute).collect();
        let num_qubits = storage.len() as u32;
        let mut h = FreeSiteHarness::new(arch, num_qubits);
        let mut placed = 0;
        for row in 0..prefill {
            for col in 0..grid.cols() {
                h.occupy(q(placed), grid.site(Zone::Storage, col, row).unwrap());
                placed += 1;
            }
        }
        let mut state = seed;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        let (mut no_vacant, mut deep) = (0, 0);
        for step in 0..400 {
            let qubit = q(next(num_qubits as usize) as u32);
            let site = storage[next(storage.len())];
            match next(6) {
                0 => h.vacate(qubit),
                1 | 2 if h.planned_len(site) < 2 => h.occupy(qubit, site),
                3 if h.planned_len(site) < 2 && h.layout.site_of(qubit).is_none() => {
                    h.plan(qubit, site);
                }
                _ => {
                    if let Some(at) = h.layout.site_of(qubit) {
                        h.unplan(qubit, at);
                    }
                }
            }
            let anchor = grid.position(compute[next(compute.len())]);
            let mut walk = h.clone();
            let expected = walk.best(Zone::Storage, anchor, 0.0, Attractors::default(), &zero);
            let chosen = h.nearest_storage(anchor);
            assert_eq!(chosen, expected, "step {step}: site");
            assert_eq!(h.counters(), walk.counters(), "step {step}: counters");
            let open = |s: &SiteId| h.planned_len(*s) == 0 && h.layout.occupancy(*s) == 0;
            no_vacant += usize::from(!storage.iter().any(open));
            deep += usize::from(chosen.is_some_and(|s| grid.col_row(s).1 >= 64));
        }
        (no_vacant, deep)
    }

    #[test]
    fn storage_columns_park_like_the_walk_on_tall_storage() {
        // 1025 qubits: 33 columns of 66 storage rows, two words per column.
        let arch = Architecture::for_qubits(1025);
        assert_eq!(arch.grid().storage_rows(), 66);
        let (_, deep) = assert_parking_matches_the_walk(arch, 64, 0x7A11);
        assert!(deep > 0, "no query reached the second word of a column");
    }

    #[test]
    fn storage_columns_park_like_the_walk_on_one_storage_row() {
        let grid = ZonedGrid::with_dims(20, 3, 1).unwrap();
        let arch = Architecture::for_qubits(20).with_grid(grid);
        let (no_vacant, _) = assert_parking_matches_the_walk(arch, 0, 0x0DD5);
        assert!(no_vacant > 0, "every query had a vacant plan-free site");
    }

    #[test]
    fn storage_columns_park_like_the_walk_on_the_default_grid() {
        for seed in 1..4 {
            assert_parking_matches_the_walk(Architecture::for_qubits(64), 2, seed);
        }
    }

    #[test]
    fn policy_works_through_a_trait_object() {
        // `route_stage_with` accepts unsized policies, so `&dyn SitePolicy`
        // plugs in directly.
        let mut via_dyn = storage_router(6);
        let mut via_zero = storage_router(6);
        let st = stage(&[(0, 1), (2, 3)]);
        let policy: &dyn SitePolicy = &ZeroBias;
        let a = via_dyn.route_stage_with(&st, policy).unwrap();
        let b = via_zero.route_stage_with(&st, &ZeroBias).unwrap();
        assert_eq!(a, b);
    }
}
