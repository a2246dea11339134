//! Distance-aware grouping of single-qubit moves into collective moves
//! (Sec. 5.3 of the paper).

use powermove_hardware::{Architecture, TrapMove};
use powermove_schedule::SiteMove;

/// Groups single-qubit moves into collective moves executable by one AOD.
///
/// Moves are considered in ascending order of distance and greedily assigned
/// to the first existing group they do not conflict with (the AOD order
/// constraint of Fig. 5); a move that conflicts with every group opens a new
/// one. Sorting by distance tends to pack moves of similar length together,
/// which keeps the per-group maximum distance — and hence the movement time —
/// low.
///
/// The relative order of groups reflects creation order; the coll-move
/// scheduler ([`crate::order_coll_moves`]) decides the execution order.
#[must_use]
pub fn group_moves(moves: &[SiteMove], arch: &Architecture) -> Vec<Vec<SiteMove>> {
    // Each move's positions are computed once, into its sort key and the
    // trap move the conflict test reads. A group is a chain through
    // `Member::next`, in insertion order, so the test needs no per-group
    // buffer besides the returned one.
    let mut sorted: Vec<Member> = moves
        .iter()
        .map(|&site_move| {
            let trap = site_move.to_trap_move(arch);
            Member {
                distance: trap.distance(),
                site_move,
                trap,
                next: END,
            }
        })
        .collect();
    sorted.sort_by(|a, b| {
        a.distance
            .partial_cmp(&b.distance)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.site_move.qubit.cmp(&b.site_move.qubit))
    });

    // Per group: its first and last member, as indices into `sorted`.
    let mut chains: Vec<(usize, usize)> = Vec::new();
    for i in 0..sorted.len() {
        let trap = sorted[i].trap;
        let fits = |&(first, _): &(usize, usize)| {
            let mut j = first;
            while j != END {
                if trap.conflicts_with(&sorted[j].trap) {
                    return false;
                }
                j = sorted[j].next;
            }
            true
        };
        match chains.iter().position(fits) {
            Some(group) => {
                let last = chains[group].1;
                sorted[last].next = i;
                chains[group].1 = i;
            }
            None => chains.push((i, i)),
        }
    }
    chains
        .iter()
        .map(|&(first, _)| {
            let mut group = Vec::new();
            let mut j = first;
            while j != END {
                group.push(sorted[j].site_move);
                j = sorted[j].next;
            }
            group
        })
        .collect()
}

/// Marks the last member of a group chain.
const END: usize = usize::MAX;

/// One move being grouped: its sort key, the move, its positions and the
/// next member of its group.
struct Member {
    distance: f64,
    site_move: SiteMove,
    trap: TrapMove,
    next: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::Qubit;
    use powermove_hardware::{Architecture, SiteId, Zone};
    use powermove_schedule::SiteMove;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn arch() -> Architecture {
        Architecture::for_qubits(16)
    }

    fn mv(a: &Architecture, qi: u32, from: (u32, u32), to: (u32, u32)) -> SiteMove {
        let g = a.grid();
        SiteMove::new(
            q(qi),
            g.site(Zone::Compute, from.0, from.1).unwrap(),
            g.site(Zone::Compute, to.0, to.1).unwrap(),
        )
    }

    #[test]
    fn compatible_moves_share_a_group() {
        let a = arch();
        // Two qubits in the same row moving down by one row in tandem.
        let moves = vec![mv(&a, 0, (0, 1), (0, 0)), mv(&a, 1, (2, 1), (2, 0))];
        let groups = group_moves(&moves, &a);
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].len(), 2);
    }

    #[test]
    fn crossing_moves_split_groups() {
        let a = arch();
        // Two qubits swapping columns: their x-order flips, so they conflict.
        let moves = vec![mv(&a, 0, (0, 0), (2, 1)), mv(&a, 1, (2, 0), (0, 1))];
        let groups = group_moves(&moves, &a);
        assert_eq!(groups.len(), 2);
    }

    #[test]
    fn all_moves_preserved() {
        let a = arch();
        let moves = vec![
            mv(&a, 0, (0, 0), (1, 0)),
            mv(&a, 1, (1, 0), (0, 0)),
            mv(&a, 2, (2, 2), (3, 2)),
            mv(&a, 3, (3, 3), (3, 2)),
        ];
        let groups = group_moves(&moves, &a);
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, moves.len());
        // Every group is internally conflict-free.
        for group in &groups {
            for (i, x) in group.iter().enumerate() {
                for y in &group[i + 1..] {
                    assert!(!x.to_trap_move(&a).conflicts_with(&y.to_trap_move(&a)));
                }
            }
        }
    }

    /// The all-pairs grouping that recomputes both trap moves per check:
    /// the reference the position-caching `group_moves` must match.
    fn reference_group_moves(moves: &[SiteMove], arch: &Architecture) -> Vec<Vec<SiteMove>> {
        let mut sorted: Vec<SiteMove> = moves.to_vec();
        sorted.sort_by(|a, b| {
            a.distance(arch)
                .partial_cmp(&b.distance(arch))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.qubit.cmp(&b.qubit))
        });
        let mut groups: Vec<Vec<SiteMove>> = Vec::new();
        for m in sorted {
            let tm = m.to_trap_move(arch);
            let target = groups.iter_mut().find(|group| {
                group
                    .iter()
                    .all(|other| !tm.conflicts_with(&other.to_trap_move(arch)))
            });
            match target {
                Some(group) => group.push(m),
                None => groups.push(vec![m]),
            }
        }
        groups
    }

    #[test]
    fn groups_match_the_all_pairs_reference() {
        // Seeded moves across both zones of a small grid, so distances tie,
        // coordinates coincide and moves cross on either axis.
        let a = Architecture::for_qubits(36);
        let num_sites = a.grid().num_sites() as u64;
        let mut state = 0x6A0F_u64;
        let mut next = |bound: u64| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) % bound
        };
        for case in 0..200 {
            let len = 1 + (case % 40) as u32;
            let moves: Vec<SiteMove> = (0..len)
                .map(|i| {
                    SiteMove::new(
                        q(i),
                        SiteId::new(next(num_sites) as usize),
                        SiteId::new(next(num_sites) as usize),
                    )
                })
                .collect();
            assert_eq!(
                group_moves(&moves, &a),
                reference_group_moves(&moves, &a),
                "case {case}"
            );
        }
    }

    #[test]
    fn empty_input_gives_no_groups() {
        assert!(group_moves(&[], &arch()).is_empty());
    }

    #[test]
    fn groups_cluster_similar_distances() {
        let a = arch();
        // One short move and one long move that conflict, plus another short
        // move compatible with the first: the two short moves should end up
        // together.
        let short1 = mv(&a, 0, (0, 0), (0, 1));
        let short2 = mv(&a, 1, (2, 0), (2, 1));
        let long = mv(&a, 2, (3, 3), (3, 0)); // conflicts with the shorts on y-order
        let groups = group_moves(&[long, short1, short2], &a);
        assert_eq!(groups.len(), 2);
        let short_group = groups.iter().find(|g| g.len() == 2).unwrap();
        assert!(short_group.iter().all(|m| m.qubit != q(2)));
    }
}
