//! The coll-move scheduler (Sec. 6): execution ordering of collective moves
//! and multi-AOD packing.
//!
//! Both packings run on a [`MoveScratch`]: the groups stay chains over one
//! flat member list and an ordering is a permutation of group indices, so
//! the only allocations are the collective moves and move groups emitted.
//! The `Vec`-of-groups functions below load their input into a fresh
//! scratch and run the same code.

use crate::grouping::MoveScratch;
use crate::routing::StageRouting;
use powermove_hardware::{AodId, Architecture, Zone};
use powermove_schedule::{CollMove, Instruction, SiteMove};
use std::cmp::{Ordering, Reverse};

impl MoveScratch {
    /// The default lowering of one stage (Sec. 6): groups each move class,
    /// orders both for maximum storage dwell time — storage-bound groups
    /// strictly before interaction groups — and chunks the order onto
    /// `arch.num_aods()` AOD arrays, appending the move groups to `out`.
    pub(crate) fn lower_greedy(
        &mut self,
        routing: &StageRouting,
        arch: &Architecture,
        use_grouping: bool,
        out: &mut Vec<Instruction>,
    ) {
        let split = self.load(routing, arch, use_grouping);
        self.order_dwell(split, arch);
        self.emit(&self.order, arch.num_aods(), out);
    }

    /// The duration-balanced lowering of one stage
    /// ([`pack_move_groups_balanced`] on the stage's grouped classes),
    /// appending the move groups to `out`.
    pub(crate) fn lower_balanced(
        &mut self,
        routing: &StageRouting,
        arch: &Architecture,
        use_grouping: bool,
        out: &mut Vec<Instruction>,
    ) {
        let split = self.load(routing, arch, use_grouping);
        self.pack_balanced(split, arch, out);
    }

    /// Groups both move classes of `routing`; returns the number of
    /// storage-class groups, which come first.
    fn load(&mut self, routing: &StageRouting, arch: &Architecture, use_grouping: bool) -> usize {
        self.clear();
        self.push_class(&routing.storage_moves, arch, use_grouping);
        let split = self.groups.len();
        self.push_class(&routing.interaction_moves, arch, use_grouping);
        split
    }

    /// Fills `order` with the dwell-time order: the first `split` groups
    /// (the storage class), then the rest, each class by descending
    /// `n_in − n_out` and creation order on ties (see [`order_coll_moves`]).
    fn order_dwell(&mut self, split: usize, arch: &Architecture) {
        let grid = arch.grid();
        let in_storage = |site| i64::from(grid.zone_of(site) == Zone::Storage);
        for g in 0..self.groups.len() {
            let score = self
                .moves_of(g)
                .map(|m| in_storage(m.to) - in_storage(m.from))
                .sum();
            self.groups[g].score = score;
        }
        self.order.clear();
        self.order.extend(0..self.groups.len());
        let groups = &self.groups;
        let (storage, interaction) = self.order.split_at_mut(split);
        for class in [storage, interaction] {
            class.sort_unstable_by_key(|&g| (Reverse(groups[g].score), g));
        }
    }

    /// Chunks `order` into windows of `width` groups, one
    /// [`Instruction::MoveGroup`] per window with AOD ids in window order.
    fn emit(&self, order: &[usize], width: usize, out: &mut Vec<Instruction>) {
        for window in order.chunks(width.max(1)) {
            let coll_moves = window
                .iter()
                .enumerate()
                .map(|(aod, &g)| CollMove::new(AodId::new(aod), self.collect_group(g)))
                .collect();
            out.push(Instruction::move_group(coll_moves));
        }
    }

    /// The packing of [`pack_move_groups_balanced`] over the loaded groups,
    /// the first `split` of which are the storage class.
    fn pack_balanced(&mut self, split: usize, arch: &Architecture, out: &mut Vec<Instruction>) {
        let width = arch.num_aods().max(1);
        self.order_dwell(split, arch);
        if width == 1 || self.has_cross_group_vacate_dependency(split) {
            return self.emit(&self.order, width, out);
        }
        for g in 0..self.groups.len() {
            let longest = self
                .moves_of(g)
                .map(|m| m.distance(arch))
                .fold(0.0, f64::max);
            self.groups[g].longest = longest;
        }
        for (dwell, &g) in self.order.iter().enumerate() {
            self.groups[g].dwell = dwell;
        }
        // Longest first within each class, starting from the dwell-time
        // order so equal-length groups keep their storage-priority ranking.
        self.alt_order.clear();
        self.alt_order.extend_from_slice(&self.order);
        let groups = &self.groups;
        let (storage, interaction) = self.alt_order.split_at_mut(split);
        for class in [storage, interaction] {
            class.sort_unstable_by(|&a, &b| {
                groups[b]
                    .longest
                    .partial_cmp(&groups[a].longest)
                    .unwrap_or(Ordering::Equal)
                    .then(groups[a].dwell.cmp(&groups[b].dwell))
            });
        }
        let balanced = self.packed_duration(&self.alt_order, width, arch);
        if balanced < self.packed_duration(&self.order, width, arch) {
            self.emit(&self.alt_order, width, out);
        } else {
            self.emit(&self.order, width, out);
        }
    }

    /// The movement wall clock `order` packs to at `width` AODs: per window
    /// the transfers plus its slowest translation, summed in window order —
    /// the same `f64` operations as
    /// [`movement_wall_clock`](powermove_schedule::movement_wall_clock) over
    /// the emitted groups, without emitting them.
    fn packed_duration(&self, order: &[usize], width: usize, arch: &Architecture) -> f64 {
        let params = arch.params();
        order
            .chunks(width)
            .map(|window| {
                let slowest = window
                    .iter()
                    .map(|&g| {
                        powermove_hardware::move_duration(
                            self.groups[g].longest,
                            params.max_acceleration,
                        )
                    })
                    .fold(0.0, f64::max);
                2.0 * params.transfer_duration + slowest
            })
            .sum()
    }

    /// Returns `true` if any interaction group (index `split` and above)
    /// arrives at a site that a *different* interaction group departs from.
    /// Same-group pairs are fine — the hardware applies a window's moves
    /// simultaneously — but cross-group pairs pin the departure to a
    /// same-or-earlier window, which only the original dwell-time order
    /// guarantees.
    ///
    /// The departures are sorted by `(site, group)` once, so each arrival
    /// is two binary searches: a site's departing groups differ from the
    /// arrival's exactly when the first or last of its run does.
    fn has_cross_group_vacate_dependency(&mut self, split: usize) -> bool {
        let mut departures = std::mem::take(&mut self.departures);
        departures.clear();
        for g in split..self.groups.len() {
            departures.extend(self.moves_of(g).map(|m| (m.from, g)));
        }
        departures.sort_unstable();
        let dependent = (split..self.groups.len()).any(|g| {
            self.moves_of(g).any(|arrival| {
                let lo = departures.partition_point(|&(site, _)| site < arrival.to);
                let hi = departures.partition_point(|&(site, _)| site <= arrival.to);
                lo < hi && (departures[lo].1 != g || departures[hi - 1].1 != g)
            })
        });
        self.departures = departures;
        dependent
    }
}

/// Orders collective-move groups so that moves *into* the storage zone
/// execute as early as possible and moves *out of* it as late as possible
/// (Sec. 6.1).
///
/// Groups are sorted by descending `n_in − n_out`, where `n_in` counts moves
/// whose destination lies in the storage zone and `n_out` counts moves whose
/// source does. Qubits therefore spend the longest possible fraction of the
/// layout transition protected from decoherence. The sort is stable, so
/// groups with equal score keep their creation order.
///
/// Empty groups are dropped: a group with no moves would otherwise claim an
/// AOD slot downstream and stretch a parallel window by the pick-up/drop-off
/// transfer time without moving anything.
#[must_use]
pub fn order_coll_moves(groups: Vec<Vec<SiteMove>>, arch: &Architecture) -> Vec<Vec<SiteMove>> {
    let mut scratch = MoveScratch::new();
    scratch.push_groups(groups);
    scratch.order_dwell(scratch.groups.len(), arch);
    scratch
        .order
        .iter()
        .map(|&g| scratch.collect_group(g))
        .collect()
}

/// Packs ordered collective-move groups onto `num_aods` AOD arrays
/// (Sec. 6.2): consecutive groups are chunked into parallel groups of size
/// `num_aods`, each becoming one [`Instruction::MoveGroup`] whose duration is
/// the pick-up/drop-off transfer time plus the longest translation among its
/// members.
///
/// Degenerate inputs are handled without producing degenerate windows: empty
/// groups are dropped before chunking (a memberless [`CollMove`] would still
/// cost a full transfer window), and a `num_aods` exceeding the group count
/// simply yields one window narrower than the machine — never windows padded
/// with empty per-AOD batches.
#[must_use]
pub fn pack_move_groups(ordered: Vec<Vec<SiteMove>>, num_aods: usize) -> Vec<Instruction> {
    let mut scratch = MoveScratch::new();
    scratch.push_groups(ordered);
    let order: Vec<usize> = (0..scratch.groups.len()).collect();
    let mut out = Vec::new();
    scratch.emit(&order, num_aods, &mut out);
    out
}

/// Packs the two move classes of one stage transition into duration-balanced
/// parallel windows across `arch.num_aods()` AOD arrays (the
/// [`MultiAodScheduler`](crate::MultiAodScheduler) packing).
///
/// Where [`pack_move_groups`] chunks the dwell-time order as-is — so one
/// slow translation in a window wastes the other AODs' time — this packing
/// sorts each class's groups by translation length (longest first, stable on
/// ties so the dwell-time order still breaks them) before chunking, which
/// groups similar-duration moves into shared windows. Storage-bound groups
/// always occupy the same-or-earlier window as every interaction group (the
/// classes may share at most the one boundary window, whose moves the
/// hardware applies simultaneously), preserving the move-in-first guarantee
/// that a site vacated towards storage is free before an interaction
/// arrives at it.
///
/// Two guards make the result safe and never slower than the greedy
/// chunking *by construction*:
///
/// * when one interaction group's arrival targets a site another
///   interaction group departs from (a cross-group vacate dependency — only
///   possible on near-full grids where the router had to reuse a
///   still-occupied site), reordering could land the arrival before the
///   departure, so the dwell-time order is kept as-is;
/// * otherwise both packings are costed and the cheaper one wins (the
///   dwell-time order on ties, keeping its storage-residency benefit) —
///   per-class longest-first chunking minimizes the sum of window maxima
///   within each class, but the class boundary window can occasionally
///   align better in the unsorted order.
///
/// With a single AOD there is no window to balance, so the result always
/// equals [`pack_move_groups`] on the greedy order.
///
/// Degenerate inputs are normalized first: empty groups in either class are
/// dropped (they would otherwise occupy AOD slots as zero-move windows and
/// skew the duration comparison between the two packings), an empty
/// interaction class degrades to packing the storage class alone (and vice
/// versa), and a `num_aods` larger than the total group count produces a
/// single window — the move-in-first guarantee holds through all of these.
#[must_use]
pub fn pack_move_groups_balanced(
    storage_groups: Vec<Vec<SiteMove>>,
    interaction_groups: Vec<Vec<SiteMove>>,
    arch: &Architecture,
) -> Vec<Instruction> {
    let mut scratch = MoveScratch::new();
    scratch.push_groups(storage_groups);
    let split = scratch.groups.len();
    scratch.push_groups(interaction_groups);
    let mut out = Vec::new();
    scratch.pack_balanced(split, arch, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::Qubit;
    use powermove_hardware::SiteId;
    use powermove_schedule::check::check_storage_before_interaction;
    use powermove_schedule::{CompiledProgram, Layout, SiteMove};

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn arch() -> Architecture {
        Architecture::for_qubits(9)
    }

    fn storage_move(a: &Architecture, qi: u32) -> SiteMove {
        let g = a.grid();
        SiteMove::new(
            q(qi),
            g.site(Zone::Compute, 0, qi % 3).unwrap(),
            g.site(Zone::Storage, qi % 3, 0).unwrap(),
        )
    }

    fn retrieval_move(a: &Architecture, qi: u32) -> SiteMove {
        let g = a.grid();
        SiteMove::new(
            q(qi),
            g.site(Zone::Storage, qi % 3, 1).unwrap(),
            g.site(Zone::Compute, qi % 3, 0).unwrap(),
        )
    }

    fn movement_duration(instructions: &[Instruction], arch: &Architecture) -> f64 {
        powermove_schedule::movement_wall_clock(instructions, arch)
    }

    fn has_cross_group_vacate_dependency(groups: &[Vec<SiteMove>]) -> bool {
        let mut scratch = MoveScratch::new();
        scratch.push_groups(groups.to_vec());
        scratch.has_cross_group_vacate_dependency(0)
    }

    /// The all-pairs vacate-dependency test the sorted-departures one must
    /// match: for every arrival, every move of every other group.
    fn reference_vacate_dependency(groups: &[Vec<SiteMove>]) -> bool {
        groups.iter().enumerate().any(|(i, group)| {
            group.iter().any(|arrival| {
                groups
                    .iter()
                    .enumerate()
                    .any(|(j, other)| i != j && other.iter().any(|m| m.from == arrival.to))
            })
        })
    }

    #[test]
    fn vacate_dependency_matches_the_all_pairs_reference() {
        // Seeded groups over few sites, so departures and arrivals collide
        // within and across groups, with empty groups mixed in.
        let mut state = 0x5EED_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        let mut dependent = 0;
        for case in 0..400 {
            let sites = 2 + case % 24;
            let groups: Vec<Vec<SiteMove>> = (0..next(6))
                .map(|_| {
                    (0..next(5))
                        .map(|i| {
                            SiteMove::new(
                                q(i as u32),
                                SiteId::new(next(sites) as usize),
                                SiteId::new(next(sites) as usize),
                            )
                        })
                        .collect()
                })
                .collect();
            let expected = reference_vacate_dependency(&groups);
            assert_eq!(
                has_cross_group_vacate_dependency(&groups),
                expected,
                "case {case}: {groups:?}"
            );
            dependent += usize::from(expected);
        }
        assert!(
            (50..350).contains(&dependent),
            "{dependent} of 400 dependent"
        );
    }

    fn lateral_move(a: &Architecture, qi: u32) -> SiteMove {
        let g = a.grid();
        SiteMove::new(
            q(qi),
            g.site(Zone::Compute, 0, 0).unwrap(),
            g.site(Zone::Compute, 1, 0).unwrap(),
        )
    }

    #[test]
    fn move_in_groups_come_first() {
        let a = arch();
        let groups = vec![
            vec![retrieval_move(&a, 0)],
            vec![lateral_move(&a, 1)],
            vec![storage_move(&a, 2)],
        ];
        let ordered = order_coll_moves(groups, &a);
        // storage (in) first, lateral (0) second, retrieval (out) last.
        assert_eq!(ordered[0][0].qubit, q(2));
        assert_eq!(ordered[1][0].qubit, q(1));
        assert_eq!(ordered[2][0].qubit, q(0));
    }

    #[test]
    fn ordering_is_stable_for_equal_scores() {
        let a = arch();
        let groups = vec![vec![lateral_move(&a, 3)], vec![lateral_move(&a, 4)]];
        let ordered = order_coll_moves(groups, &a);
        assert_eq!(ordered[0][0].qubit, q(3));
        assert_eq!(ordered[1][0].qubit, q(4));
    }

    #[test]
    fn packing_respects_aod_count() {
        let a = arch();
        let groups = vec![
            vec![storage_move(&a, 0)],
            vec![storage_move(&a, 1)],
            vec![storage_move(&a, 2)],
        ];
        let single = pack_move_groups(groups.clone(), 1);
        assert_eq!(single.len(), 3);
        let dual = pack_move_groups(groups.clone(), 2);
        assert_eq!(dual.len(), 2);
        let quad = pack_move_groups(groups, 4);
        assert_eq!(quad.len(), 1);
        if let Instruction::MoveGroup { coll_moves } = &quad[0] {
            assert_eq!(coll_moves.len(), 3);
            let aods: Vec<usize> = coll_moves.iter().map(|c| c.aod.index()).collect();
            assert_eq!(aods, vec![0, 1, 2]);
        } else {
            panic!("expected a move group");
        }
    }

    #[test]
    fn zero_aods_treated_as_one() {
        let a = arch();
        let groups = vec![vec![storage_move(&a, 0)], vec![storage_move(&a, 1)]];
        assert_eq!(pack_move_groups(groups, 0).len(), 2);
    }

    #[test]
    fn empty_groups_produce_no_instructions() {
        assert!(pack_move_groups(vec![], 2).is_empty());
        assert!(order_coll_moves(vec![], &arch()).is_empty());
        assert!(pack_move_groups_balanced(vec![], vec![], &arch()).is_empty());
    }

    #[test]
    fn empty_groups_are_dropped_before_packing() {
        let a = arch();
        // An interleaved empty group must not consume an AOD slot: the two
        // real groups share one window at width 2 and no window carries a
        // memberless CollMove.
        let groups = vec![
            vec![],
            vec![storage_move(&a, 0)],
            vec![],
            vec![storage_move(&a, 1)],
            vec![],
        ];
        assert_eq!(order_coll_moves(groups.clone(), &a).len(), 2);
        let packed = pack_move_groups(groups, 2);
        assert_eq!(packed.len(), 1);
        if let Instruction::MoveGroup { coll_moves } = &packed[0] {
            assert_eq!(coll_moves.len(), 2);
            assert!(coll_moves.iter().all(|cm| !cm.is_empty()));
            let aods: Vec<usize> = coll_moves.iter().map(|c| c.aod.index()).collect();
            assert_eq!(aods, vec![0, 1], "AOD ids stay dense after dropping");
        } else {
            panic!("expected a move group");
        }
    }

    #[test]
    fn balanced_packing_survives_more_aods_than_groups() {
        // 4 AOD arrays, 1 storage group, 1 interaction group: one shared
        // boundary window (legal — its moves apply simultaneously), never
        // windows padded with empty per-AOD batches.
        let a = arch().with_num_aods(4);
        let packed = pack_move_groups_balanced(
            vec![vec![storage_move(&a, 0)]],
            vec![vec![retrieval_move(&a, 1)]],
            &a,
        );
        assert_eq!(packed.len(), 1);
        if let Instruction::MoveGroup { coll_moves } = &packed[0] {
            assert_eq!(coll_moves.len(), 2);
            assert!(coll_moves.iter().all(|cm| !cm.is_empty()));
        } else {
            panic!("expected a move group");
        }
    }

    #[test]
    fn balanced_packing_with_an_empty_interaction_class_packs_storage_alone() {
        let a = arch().with_num_aods(2);
        let storage = vec![
            vec![storage_move(&a, 0)],
            vec![storage_move(&a, 1)],
            vec![storage_move(&a, 2)],
        ];
        // Explicitly empty interaction groups behave like no interaction
        // class at all.
        let with_empties = pack_move_groups_balanced(storage.clone(), vec![vec![], vec![]], &a);
        let without = pack_move_groups_balanced(storage, vec![], &a);
        assert_eq!(with_empties, without);
        assert_eq!(with_empties.len(), 2);
        for instr in &with_empties {
            if let Instruction::MoveGroup { coll_moves } = instr {
                assert!(coll_moves.iter().all(|cm| !cm.is_empty()));
            }
        }
    }

    #[test]
    fn empty_groups_preserve_storage_before_interaction_ordering() {
        // The regression the lint campaign guards: a stray empty group mixed
        // into either class must not perturb the move-in-first guarantee.
        let a = arch().with_num_aods(2);
        let storage = vec![
            vec![],
            vec![storage_move(&a, 0)],
            vec![storage_move(&a, 1)],
            vec![storage_move(&a, 2)],
        ];
        let interaction = vec![
            vec![retrieval_move(&a, 3)],
            vec![],
            vec![retrieval_move(&a, 4)],
        ];
        let packed = pack_move_groups_balanced(storage, interaction, &a);
        assert_eq!(packed.len(), 3);
        for instr in &packed {
            if let Instruction::MoveGroup { coll_moves } = instr {
                assert!(coll_moves.iter().all(|cm| !cm.is_empty()));
            }
        }
        let program = CompiledProgram::new(a, 5, Layout::empty(5), packed);
        check_storage_before_interaction(&program).unwrap();
    }

    #[test]
    fn balanced_packing_groups_similar_durations_together() {
        let a = arch().with_num_aods(2);
        let g = a.grid();
        // Two long moves (2 rows) and two short moves (1 row), interleaved
        // in dwell order. Chunked packing pairs long+short twice; balanced
        // packing pairs long+long and short+short, cutting the total
        // translation time.
        let long = |qi: u32, col: u32| {
            vec![SiteMove::new(
                q(qi),
                g.site(Zone::Compute, col, 2).unwrap(),
                g.site(Zone::Compute, col, 0).unwrap(),
            )]
        };
        let short = |qi: u32, col: u32| {
            vec![SiteMove::new(
                q(qi),
                g.site(Zone::Compute, col, 1).unwrap(),
                g.site(Zone::Compute, col, 0).unwrap(),
            )]
        };
        let groups = vec![long(0, 0), short(1, 1), long(2, 2), short(3, 0)];
        let chunked = pack_move_groups(groups.clone(), 2);
        let balanced = pack_move_groups_balanced(vec![], groups, &a);
        assert_eq!(chunked.len(), 2);
        assert_eq!(balanced.len(), 2);
        assert!(
            movement_duration(&balanced, &a) < movement_duration(&chunked, &a),
            "balanced {:.1}us vs chunked {:.1}us",
            movement_duration(&balanced, &a) * 1e6,
            movement_duration(&chunked, &a) * 1e6
        );
    }

    #[test]
    fn balanced_packing_keeps_storage_groups_no_later_than_interactions() {
        let a = arch().with_num_aods(2);
        let storage = vec![
            vec![storage_move(&a, 0)],
            vec![storage_move(&a, 1)],
            vec![storage_move(&a, 2)],
        ];
        let interaction = vec![vec![retrieval_move(&a, 3)], vec![retrieval_move(&a, 4)]];
        let packed = pack_move_groups_balanced(storage, interaction, &a);
        // 5 groups on 2 AODs -> 3 windows; every storage move sits in the
        // same-or-earlier window as every interaction move.
        assert_eq!(packed.len(), 3);
        let program = CompiledProgram::new(a, 5, Layout::empty(5), packed);
        check_storage_before_interaction(&program).unwrap();
    }

    #[test]
    fn cross_group_vacate_dependencies_force_the_dwell_order() {
        let a = arch().with_num_aods(2);
        let g = a.grid();
        // Group 1 vacates compute (0,0) with a short move; group 2's long
        // move arrives at (0,0). Longest-first would flip them into earlier
        // windows, so the packing must keep the dwell order instead.
        let vacate = vec![SiteMove::new(
            q(0),
            g.site(Zone::Compute, 0, 0).unwrap(),
            g.site(Zone::Compute, 1, 0).unwrap(),
        )];
        let arrive = vec![SiteMove::new(
            q(1),
            g.site(Zone::Compute, 2, 2).unwrap(),
            g.site(Zone::Compute, 0, 0).unwrap(),
        )];
        let groups = vec![vacate.clone(), arrive.clone()];
        assert!(has_cross_group_vacate_dependency(&groups));
        let packed = pack_move_groups_balanced(vec![], groups.clone(), &a);
        let ordered = order_coll_moves(groups, &a);
        assert_eq!(packed, pack_move_groups(ordered, 2));
        // Same-group arrive/vacate pairs are applied simultaneously and do
        // not count as a dependency.
        let merged = vec![vec![vacate[0], arrive[0]]];
        assert!(!has_cross_group_vacate_dependency(&merged));
    }

    #[test]
    fn balanced_packing_never_exceeds_the_chunked_duration() {
        // The review counterexample shape: storage lengths ~[long, short,
        // short], interaction ~[long, long] at width 2 — the dwell order's
        // boundary window happens to align better than the sorted order, so
        // the cheaper (chunked) packing must win.
        let a = arch().with_num_aods(2);
        let g = a.grid();
        let down = |qi: u32, col: u32, rows: u32| {
            vec![SiteMove::new(
                q(qi),
                g.site(Zone::Compute, col, rows).unwrap(),
                g.site(Zone::Storage, col, 0).unwrap(),
            )]
        };
        let up = |qi: u32, col: u32, rows: u32| {
            vec![SiteMove::new(
                q(qi),
                g.site(Zone::Storage, col, 0).unwrap(),
                g.site(Zone::Compute, col, rows).unwrap(),
            )]
        };
        let storage = vec![down(0, 0, 2), down(1, 1, 0), down(2, 2, 0)];
        let interaction = vec![up(3, 0, 1), up(4, 1, 1)];
        let balanced = pack_move_groups_balanced(storage.clone(), interaction.clone(), &a);
        let chunked = {
            let mut ordered = order_coll_moves(storage, &a);
            ordered.extend(order_coll_moves(interaction, &a));
            pack_move_groups(ordered, 2)
        };
        assert!(
            movement_duration(&balanced, &a) <= movement_duration(&chunked, &a) + 1e-15,
            "balanced packing must never be slower than the greedy chunking"
        );
    }

    #[test]
    fn balanced_packing_on_one_aod_keeps_the_dwell_order() {
        let a = arch();
        let storage = vec![vec![storage_move(&a, 0)]];
        let interaction = vec![vec![retrieval_move(&a, 1)], vec![lateral_move(&a, 2)]];
        let balanced = pack_move_groups_balanced(storage.clone(), interaction.clone(), &a);
        let mut ordered = order_coll_moves(storage, &a);
        ordered.extend(order_coll_moves(interaction, &a));
        assert_eq!(balanced, pack_move_groups(ordered, 1));
    }
}
