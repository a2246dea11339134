//! The coll-move scheduler (Sec. 6): execution ordering of collective moves
//! and multi-AOD packing.

use powermove_hardware::{AodId, Architecture, Zone};
use powermove_schedule::{CollMove, Instruction, SiteMove};

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
    let grid = arch.grid();
    let score = |group: &[SiteMove]| -> i64 {
        let n_in = group
            .iter()
            .filter(|m| grid.zone_of(m.to) == Zone::Storage)
            .count() as i64;
        let n_out = group
            .iter()
            .filter(|m| grid.zone_of(m.from) == Zone::Storage)
            .count() as i64;
        n_in - n_out
    };
    let mut ordered = groups;
    ordered.retain(|g| !g.is_empty());
    ordered.sort_by_key(|g| std::cmp::Reverse(score(g)));
    ordered
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
    let width = num_aods.max(1);
    let ordered: Vec<Vec<SiteMove>> = ordered.into_iter().filter(|g| !g.is_empty()).collect();
    ordered
        .chunks(width)
        .map(|chunk| {
            let coll_moves = chunk
                .iter()
                .enumerate()
                .map(|(i, moves)| CollMove::new(AodId::new(i), moves.clone()))
                .collect();
            Instruction::move_group(coll_moves)
        })
        .collect()
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
    let storage_groups: Vec<Vec<SiteMove>> = storage_groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .collect();
    let interaction_groups: Vec<Vec<SiteMove>> = interaction_groups
        .into_iter()
        .filter(|g| !g.is_empty())
        .collect();
    let num_aods = arch.num_aods().max(1);
    let chunked = {
        let mut ordered = order_coll_moves(storage_groups.clone(), arch);
        ordered.extend(order_coll_moves(interaction_groups.clone(), arch));
        pack_move_groups(ordered, num_aods)
    };
    if num_aods == 1 || has_cross_group_vacate_dependency(&interaction_groups) {
        return chunked;
    }
    let longest_first = |groups: Vec<Vec<SiteMove>>| {
        // Start from the dwell-time order so equal-length groups keep their
        // storage-priority ranking, then sort by the translation length that
        // decides each window's duration.
        let mut sorted = order_coll_moves(groups, arch);
        sorted.sort_by(|a, b| {
            let len = |g: &[SiteMove]| g.iter().map(|m| m.distance(arch)).fold(0.0, f64::max);
            len(b)
                .partial_cmp(&len(a))
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        sorted
    };
    let mut all = longest_first(storage_groups);
    all.extend(longest_first(interaction_groups));
    let balanced = pack_move_groups(all, num_aods);
    if movement_duration(&balanced, arch) < movement_duration(&chunked, arch) {
        balanced
    } else {
        chunked
    }
}

/// Returns `true` if any interaction group arrives at a site that a
/// *different* interaction group departs from. Same-group pairs are fine —
/// the hardware applies a window's moves simultaneously — but cross-group
/// pairs pin the departure to a same-or-earlier window, which only the
/// original dwell-time order guarantees.
fn has_cross_group_vacate_dependency(groups: &[Vec<SiteMove>]) -> bool {
    groups.iter().enumerate().any(|(i, group)| {
        group.iter().any(|arrival| {
            groups
                .iter()
                .enumerate()
                .any(|(j, other)| i != j && other.iter().any(|m| m.from == arrival.to))
        })
    })
}

/// Total wall clock of a packed instruction sequence's move groups.
fn movement_duration(instructions: &[Instruction], arch: &Architecture) -> f64 {
    powermove_schedule::movement_wall_clock(instructions, arch)
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::Qubit;
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
