//! Distance-aware grouping of single-qubit moves into collective moves
//! (Sec. 5.3 of the paper), and the scratch the move pass lowers every
//! stage through.

use powermove_hardware::{Architecture, SiteId, TrapMove};
use powermove_schedule::SiteMove;
use std::cmp::Ordering;

/// Reusable buffers for lowering one stage's moves into move-group
/// instructions: flat members, chain heads and an execution-order
/// permutation.
///
/// A stage's moves are grouped into collective moves, ordered and packed
/// onto AOD windows ([`RoutingStrategy::schedule_moves`]) through these
/// buffers, so the only allocations a lowering makes are the ones the
/// program keeps: one `Vec` per [`CollMove`] and one per move group. The
/// move pass owns one scratch per worker chunk for the length of one
/// compile; every lowering clears it first, so a scratch carries no state
/// from one stage to the next.
///
/// [`RoutingStrategy::schedule_moves`]: crate::RoutingStrategy::schedule_moves
/// [`CollMove`]: powermove_schedule::CollMove
#[derive(Debug, Clone, Default)]
pub struct MoveScratch {
    /// The stage's moves; each group is a chain through `Member::next`.
    members: Vec<Member>,
    /// The groups, in creation order: the storage class, then the
    /// interaction class.
    pub(crate) groups: Vec<Group>,
    /// Group indices in execution order.
    pub(crate) order: Vec<usize>,
    /// A second execution order, for packings that cost two candidates.
    pub(crate) alt_order: Vec<usize>,
    /// `(departure site, group)` pairs, for the vacate-dependency test.
    pub(crate) departures: Vec<(SiteId, usize)>,
    /// The class being grouped, sorted by distance.
    sorted: Vec<Keyed>,
}

/// Marks the last member of a group chain.
const END: usize = usize::MAX;

/// One move of the stage and the next member of its group.
#[derive(Debug, Clone, Copy)]
struct Member {
    site_move: SiteMove,
    next: usize,
}

/// One collective-move group: its chain ends and length, plus the keys the
/// coll-move scheduler fills in when it orders the group.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Group {
    head: usize,
    tail: usize,
    len: usize,
    /// `n_in − n_out` of the dwell-time order (Sec. 6.1).
    pub(crate) score: i64,
    /// Position in the dwell-time order.
    pub(crate) dwell: usize,
    /// The longest translation among the members, in meters.
    pub(crate) longest: f64,
}

/// One move being grouped: its sort key, input position and positions.
#[derive(Debug, Clone, Copy)]
struct Keyed {
    distance: f64,
    input: usize,
    site_move: SiteMove,
    trap: TrapMove,
}

impl MoveScratch {
    /// An empty scratch; buffers grow on first use.
    #[must_use]
    pub fn new() -> Self {
        MoveScratch::default()
    }

    /// Forgets the previous lowering, keeping the allocations.
    pub(crate) fn clear(&mut self) {
        self.members.clear();
        self.groups.clear();
    }

    /// The moves of group `g`, in chain order.
    pub(crate) fn moves_of(&self, g: usize) -> impl Iterator<Item = SiteMove> + '_ {
        let mut j = self.groups[g].head;
        std::iter::from_fn(move || {
            let member = self.members.get(j)?;
            j = member.next;
            Some(member.site_move)
        })
    }

    /// Group `g`'s moves in a `Vec` of exactly its length.
    pub(crate) fn collect_group(&self, g: usize) -> Vec<SiteMove> {
        let mut moves = Vec::with_capacity(self.groups[g].len);
        moves.extend(self.moves_of(g));
        moves
    }

    fn push_member(&mut self, site_move: SiteMove) -> usize {
        self.members.push(Member {
            site_move,
            next: END,
        });
        self.members.len() - 1
    }

    fn open_group(&mut self, member: usize) {
        self.groups.push(Group {
            head: member,
            tail: member,
            len: 1,
            score: 0,
            dwell: 0,
            longest: 0.0,
        });
    }

    fn extend_group(&mut self, g: usize, member: usize) {
        let group = &mut self.groups[g];
        self.members[group.tail].next = member;
        group.tail = member;
        group.len += 1;
    }

    /// Appends already-formed groups, dropping empty ones.
    pub(crate) fn push_groups(&mut self, groups: Vec<Vec<SiteMove>>) {
        for group in groups {
            let mut moves = group.into_iter();
            let Some(first) = moves.next() else { continue };
            let head = self.push_member(first);
            self.open_group(head);
            let g = self.groups.len() - 1;
            for site_move in moves {
                let member = self.push_member(site_move);
                self.extend_group(g, member);
            }
        }
    }

    /// Appends one move class's collective-move groups: conflict-aware
    /// grouping as in [`group_moves`], or one singleton group per move in
    /// input order when `use_grouping` is off (the grouping ablation).
    pub(crate) fn push_class(
        &mut self,
        moves: &[SiteMove],
        arch: &Architecture,
        use_grouping: bool,
    ) {
        if !use_grouping {
            for &site_move in moves {
                let member = self.push_member(site_move);
                self.open_group(member);
            }
            return;
        }
        // Each move's positions are computed once, into its sort key and
        // the trap move the conflict test reads. The input position breaks
        // ties, so the unstable sort orders exactly like a stable one.
        self.sorted.clear();
        self.sorted
            .extend(moves.iter().enumerate().map(|(input, &site_move)| {
                let trap = site_move.to_trap_move(arch);
                Keyed {
                    distance: trap.distance(),
                    input,
                    site_move,
                    trap,
                }
            }));
        self.sorted.sort_unstable_by(|a, b| {
            a.distance
                .partial_cmp(&b.distance)
                .unwrap_or(Ordering::Equal)
                .then(a.site_move.qubit.cmp(&b.site_move.qubit))
                .then(a.input.cmp(&b.input))
        });
        // Member `base + i` is `sorted[i]`; a move joins the first group of
        // this class it conflicts with no member of, else opens a new one.
        let base = self.members.len();
        let first_group = self.groups.len();
        for i in 0..self.sorted.len() {
            let trap = self.sorted[i].trap;
            let fits = |group: &Group| {
                let mut j = group.head;
                while j != END {
                    if trap.conflicts_with(&self.sorted[j - base].trap) {
                        return false;
                    }
                    j = self.members[j].next;
                }
                true
            };
            let target = self.groups[first_group..].iter().position(fits);
            let member = self.push_member(self.sorted[i].site_move);
            match target {
                Some(g) => self.extend_group(first_group + g, member),
                None => self.open_group(member),
            }
        }
    }
}

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
/// The move pass groups through a reused [`MoveScratch`] instead.
#[must_use]
pub fn group_moves(moves: &[SiteMove], arch: &Architecture) -> Vec<Vec<SiteMove>> {
    let mut scratch = MoveScratch::new();
    scratch.push_class(moves, arch, true);
    (0..scratch.groups.len())
        .map(|g| scratch.collect_group(g))
        .collect()
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
