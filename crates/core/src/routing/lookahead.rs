//! The lookahead routing strategy: undecided pairs are placed where the
//! next few stages will want them.

use crate::routing::{Attractors, RoutingState, RoutingStrategy, SitePolicy, StageRouting};
use crate::{CompileError, Stage};
use powermove_circuit::Qubit;
use powermove_hardware::{Point, SiteId, ZonedGrid};
use powermove_schedule::Layout;

/// Geometric discount applied per stage of lookahead: a partner `j` stages
/// ahead contributes `DISCOUNT^j` of its distance to the candidate site.
const DISCOUNT: f64 = 0.5;

/// Reusable per-qubit attractor storage in CSR layout: `offsets[q]..
/// offsets[q+1]` indexes `entries` with qubit `q`'s `(weight, position)`
/// attractors. Rebuilt in place each stage — no per-stage `BTreeMap`
/// allocation churn, no per-entry `Vec` — and owned by the
/// [`RoutingState`] because strategies are shared `&self` across
/// concurrent sessions.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttractorBuffers {
    offsets: Vec<u32>,
    cursors: Vec<u32>,
    entries: Vec<(f64, Point)>,
}

impl AttractorBuffers {
    /// Rebuilds the buffers for the next `depth` stages: two passes, one
    /// counting entries per qubit, one filling in the same stage-major
    /// traversal order the per-qubit vectors used to hold — the entry
    /// order (and therefore the f64 summation order of the bias) is
    /// unchanged.
    fn rebuild(&mut self, depth: usize, upcoming: &[Stage], layout: &Layout, grid: &ZonedGrid) {
        let n = layout.num_qubits() as usize;
        self.offsets.clear();
        self.offsets.resize(n + 1, 0);
        for future in upcoming.iter().take(depth) {
            for gate in future.gates() {
                for (q, partner) in [(gate.lo(), gate.hi()), (gate.hi(), gate.lo())] {
                    if layout.site_of(partner).is_some() {
                        self.offsets[q.as_usize() + 1] += 1;
                    }
                }
            }
        }
        for i in 0..n {
            self.offsets[i + 1] += self.offsets[i];
        }
        self.cursors.clear();
        self.cursors.extend_from_slice(&self.offsets[..n]);
        self.entries.clear();
        self.entries
            .resize(self.offsets[n] as usize, (0.0, Point::new(0.0, 0.0)));
        for (j, future) in upcoming.iter().take(depth).enumerate() {
            let weight = DISCOUNT.powi(j as i32 + 1);
            for gate in future.gates() {
                for (q, partner) in [(gate.lo(), gate.hi()), (gate.hi(), gate.lo())] {
                    if let Some(site) = layout.site_of(partner) {
                        let slot = self.cursors[q.as_usize()] as usize;
                        self.cursors[q.as_usize()] += 1;
                        self.entries[slot] = (weight, grid.position(site));
                    }
                }
            }
        }
    }

    /// Qubit `q`'s attractors, in stage-major order.
    fn of(&self, q: Qubit) -> &[(f64, Point)] {
        let i = q.as_usize();
        &self.entries[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

/// The lookahead [`SitePolicy`]: a candidate site is penalized by the
/// discounted distances from the site to the current positions of both
/// qubits' future partners — exactly the penalty of the pair's
/// [`Attractors`], so the free-site walk visits sites in score order. Uses
/// the planner-provided site position — no grid borrow, no per-stage grid
/// clone.
struct LookaheadPolicy<'a> {
    attractors: &'a AttractorBuffers,
}

impl SitePolicy for LookaheadPolicy<'_> {
    fn bias(&self, anchor: Qubit, mobile: Qubit, _site: SiteId, site_pos: Point) -> f64 {
        self.attractors(anchor, mobile).penalty(site_pos)
    }

    fn attractors(&self, anchor: Qubit, mobile: Qubit) -> Attractors<'_> {
        Attractors::new(self.attractors.of(anchor), self.attractors.of(mobile))
    }
}

/// A routing strategy that scores candidate interaction sites against the
/// next `depth` stages of the same CZ block.
///
/// The greedy router resolves an undecided pair at the free site nearest to
/// its anchor, which can drag a qubit away from the partner it meets two
/// stages later. The lookahead router adds, to each candidate site's score,
/// the discounted distances from the site to the *current* positions of
/// every future partner of the pair's qubits — so a pair that re-pairs soon
/// is parked in between its future partners instead of strictly nearest to
/// its anchor. Stage planning is otherwise identical to the greedy router
/// (`depth == 0` reproduces it exactly), and move scheduling uses the
/// default dwell-time-ordered packing.
#[derive(Debug, Clone, Copy)]
pub struct LookaheadRouter {
    depth: usize,
}

impl LookaheadRouter {
    /// Creates the strategy with the given lookahead window (in stages).
    #[must_use]
    pub fn new(depth: usize) -> Self {
        LookaheadRouter { depth }
    }

    /// The lookahead window in stages.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl RoutingStrategy for LookaheadRouter {
    fn name(&self) -> &str {
        "lookahead"
    }

    fn lookahead(&self) -> usize {
        self.depth
    }

    fn route_stage(
        &self,
        state: &mut RoutingState,
        stage: &Stage,
        upcoming: &[Stage],
    ) -> Result<StageRouting, CompileError> {
        // Future partners of every qubit, weighted by how soon the pairing
        // happens. Positions are the partners' *current* sites — a cheap,
        // deterministic estimate of where stage j's layout will want them.
        // The flat buffers are taken out of the state so the planner can
        // borrow the state mutably while the policy borrows them.
        let mut attractors = state.take_lookahead_scratch();
        attractors.rebuild(
            self.depth,
            upcoming,
            state.layout(),
            state.architecture().grid(),
        );
        let policy = LookaheadPolicy {
            attractors: &attractors,
        };
        let result = state.route_stage_with(stage, &policy);
        state.restore_lookahead_scratch(attractors);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::ZeroBias;
    use powermove_circuit::CzGate;
    use powermove_hardware::{Architecture, Zone};
    use powermove_schedule::Layout;

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

    fn state(n: u32) -> RoutingState {
        let arch = Architecture::for_qubits(n);
        let layout = Layout::row_major(&arch, n, Zone::Storage).unwrap();
        RoutingState::new(arch, layout, true)
    }

    #[test]
    fn zero_depth_matches_the_greedy_router() {
        let stages = [
            stage(&[(0, 1), (2, 3), (4, 5)]),
            stage(&[(1, 2), (3, 4)]),
            stage(&[(0, 5)]),
        ];
        let lookahead = LookaheadRouter::new(0);
        let mut a = state(6);
        let mut b = state(6);
        for (i, st) in stages.iter().enumerate() {
            let upcoming = &stages[i + 1..];
            let plan_a = lookahead.route_stage(&mut a, st, upcoming).unwrap();
            let plan_b = b.route_stage_with(st, &ZeroBias).unwrap();
            assert_eq!(plan_a, plan_b);
        }
    }

    #[test]
    fn every_stage_still_co_locates_its_pairs() {
        let stages = [
            stage(&[(0, 1), (2, 3), (4, 5), (6, 7)]),
            stage(&[(1, 2), (3, 4), (5, 6)]),
            stage(&[(0, 7), (2, 5)]),
        ];
        let lookahead = LookaheadRouter::new(2);
        let mut s = state(8);
        for (i, st) in stages.iter().enumerate() {
            lookahead.route_stage(&mut s, st, &stages[i + 1..]).unwrap();
            for gate in st.gates() {
                assert_eq!(
                    s.layout().site_of(gate.lo()),
                    s.layout().site_of(gate.hi()),
                    "pair {gate} not co-located"
                );
            }
        }
    }

    #[test]
    fn depth_round_trips() {
        let r = LookaheadRouter::new(3);
        assert_eq!(r.depth(), 3);
        assert_eq!(r.lookahead(), 3);
        assert_eq!(r.name(), "lookahead");
    }
}
