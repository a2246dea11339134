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
use crate::routing::site_index::{FreeRing, ScanStats, SearchScratch, SiteIndex, Visit};
use crate::{CompileError, Stage};
use powermove_circuit::Qubit;
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

/// Marks a site as not present in any free list.
const NOT_FREE: usize = usize::MAX;

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

/// The persistent planned-occupancy arena (see the module docs): flat
/// site-indexed occupant cells, per-zone lists of planned-free sites (with a
/// site→list-position index for O(1) removal), the spatial free-site bitset
/// index mirroring those lists, and a per-qubit departs-to-storage flag
/// used by the blocking test.
#[derive(Debug, Clone, Default)]
struct OccupancyArena {
    planned: Vec<PlannedSite>,
    free: [Vec<SiteId>; 2],
    free_pos: Vec<usize>,
    storage_mover: Vec<bool>,
    index: SiteIndex,
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
        let mut arena = OccupancyArena {
            planned: vec![PlannedSite::default(); num_sites],
            free: [Vec::new(), Vec::new()],
            free_pos: vec![NOT_FREE; num_sites],
            storage_mover: vec![false; layout.num_qubits() as usize],
            index: SiteIndex::new(grid),
        };
        for zone in [Zone::Compute, Zone::Storage] {
            for site in grid.sites_in(zone) {
                arena.mark_free(zone, site);
            }
        }
        for (q, site) in layout.iter() {
            arena.insert(grid, site, q);
        }
        arena
    }

    fn mark_free(&mut self, zone: Zone, site: SiteId) {
        let list = &mut self.free[zone_index(zone)];
        self.free_pos[site.index()] = list.len();
        list.push(site);
        self.index.set_free(zone, site);
    }

    fn unmark_free(&mut self, zone: Zone, site: SiteId) {
        let list = &mut self.free[zone_index(zone)];
        let pos = self.free_pos[site.index()];
        debug_assert!(pos != NOT_FREE, "site was not in the free list");
        list.swap_remove(pos);
        if let Some(&moved) = list.get(pos) {
            self.free_pos[moved.index()] = pos;
        }
        self.free_pos[site.index()] = NOT_FREE;
        self.index.clear_free(zone, site);
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
}

/// The mutable state a [`RoutingStrategy`](crate::RoutingStrategy) threads
/// through the stage sequence: the target architecture, the evolving qubit
/// layout, the storage-mode flag and the persistent planned-occupancy
/// arena.
///
/// The state owns the full greedy transition planner
/// ([`RoutingState::route_stage_with`]); strategies either run it under the
/// [`ZeroBias`] policy (greedy, multi-AOD — which differs only in move
/// scheduling) or bias its site decisions with their own [`SitePolicy`]
/// (the lookahead router). Custom strategies registered through
/// [`PowerMoveCompiler::with_strategy`](crate::PowerMoveCompiler::with_strategy)
/// get the same entry point.
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
        } = self;
        let grid = arch.grid();
        let interacting = stage.interacting_qubits();
        let idle = |q: &Qubit| interacting.binary_search(q).is_err();

        let mut routing = StageRouting::default();

        // Step 1 (non-storage mode): separate stale pairs. Two qubits left
        // co-located from a previous stage that do not interact now would
        // undergo an unwanted CZ during the next excitation, so one of them
        // is relocated to the nearest free computation-zone site.
        if !*use_storage {
            let stale: Vec<(Qubit, SiteId)> = layout
                .occupied_sites()
                .filter(|(_, occupants)| occupants.len() >= 2 && occupants.iter().all(idle))
                .flat_map(|(site, occupants)| {
                    occupants
                        .iter()
                        .skip(1)
                        .map(move |&q| (q, site))
                        .collect::<Vec<_>>()
                })
                .collect();
            for (q, from) in stale {
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
        // parking moves typically fit in a single collective move.
        if *use_storage {
            let mut to_park: Vec<(Qubit, SiteId, Point)> = layout
                .iter()
                .filter(|(q, site)| idle(q) && grid.zone_of(*site) == Zone::Compute)
                .map(|(q, site)| (q, site, grid.position(site)))
                .collect();
            to_park.sort_by(|a, b| {
                b.2.y
                    .partial_cmp(&a.2.y)
                    .unwrap_or(Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            for (q, from, from_pos) in to_park {
                arena.remove(grid, from, q);
                let (col, _) = grid.col_row(from);
                let same_column = (0..grid.storage_rows())
                    .filter_map(|row| grid.site(Zone::Storage, col, row))
                    .find(|s| arena.planned_len(*s) == 0 && layout.occupancy(*s) == 0);
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
        let mut pending: Vec<(Qubit, Qubit)> = Vec::new();
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
        for (anchor, mobile) in pending {
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
        for m in routing.all_moves() {
            layout.move_qubit(m.qubit, m.to);
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

    /// Finds the free site of `zone` nearest to `from`.
    fn nearest(&mut self, zone: Zone, from: Point) -> Option<SiteId> {
        self.best(zone, from, 0.0, Attractors::default(), |_, _| 0.0)
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
        let chosen = self.best_pruned(zone, anchor, min_bias, attractors, &bias, free_len);
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
        for &site in &self.arena.free[zone_index(zone)] {
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
        free_len: usize,
    ) -> Option<SiteId> {
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
            let vacant = self.layout.occupancy(site) == 0;
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
        self.search.stats.scans += examined;
        self.search.stats.pruned += free_len as u64 - examined;
        best_vacant.or(best_any).map(|(_, site)| site)
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
        self.layout.place(q, site);
        self.arena.insert(grid, site, q);
    }

    /// Removes `q` from both the layout and the arena plan.
    pub fn vacate(&mut self, q: Qubit) {
        if let Some(site) = self.layout.site_of(q) {
            self.arena.remove(self.arch.grid(), site, q);
            self.layout.remove(q);
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
        SiteFinder::new(
            &self.arena,
            &self.layout,
            self.arch.grid(),
            &mut self.search,
        )
        .best_pruned(
            zone,
            anchor,
            min_bias,
            attractors,
            &|s, p| bias(s, p),
            free_len,
        )
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
            let in_free_list = router.arena.free_pos[site.index()] != NOT_FREE;
            assert_eq!(
                in_free_list,
                planned.is_empty(),
                "free list stale at {site}"
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
