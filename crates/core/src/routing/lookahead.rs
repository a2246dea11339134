//! The lookahead routing strategy: undecided pairs are placed where the
//! next few stages will want them.

use crate::routing::state::{BiasForm, Seal};
use crate::routing::{Attractors, RoutingState, RoutingStrategy, SitePolicy, StageRouting};
use crate::{CompileError, Stage};
use powermove_circuit::Qubit;
use powermove_hardware::{Point, SiteId, ZonedGrid};
use powermove_schedule::Layout;

/// Geometric discount applied per stage of lookahead: a partner `j` stages
/// ahead contributes `DISCOUNT^j` of its distance to the candidate site.
const DISCOUNT: f64 = 0.5;

/// Marks a qubit without attractors in [`AttractorBuffers`].
const NO_SLOT: u32 = u32::MAX;

/// Reusable attractor storage for the qubits the next few stages touch, in
/// CSR layout: a qubit `q` with slot `s = slots[q]` has its `(weight,
/// position)` attractors at `entries[offsets[s]..offsets[s + 1]]`, in
/// stage-major order. Only qubits with an attractor get a slot, and the
/// previous rebuild's slots are reset from its `touched` list, so a
/// rebuild costs what the window's stages hold, not the qubit count. Owned
/// by the [`RoutingState`] because strategies are shared `&self` across
/// concurrent sessions.
#[derive(Debug, Clone, Default)]
pub(crate) struct AttractorBuffers {
    /// Each qubit's slot, or [`NO_SLOT`].
    slots: Vec<u32>,
    /// The qubits holding a slot, in slot order.
    touched: Vec<Qubit>,
    offsets: Vec<u32>,
    cursors: Vec<u32>,
    entries: Vec<(f64, Point)>,
}

impl AttractorBuffers {
    /// Rebuilds the buffers for the next `depth` stages: two passes over
    /// the window's gates, one giving each attracted qubit a slot and
    /// counting its entries, one filling them in stage-major traversal
    /// order — the entry order (and therefore the f64 summation order of
    /// the bias) of a per-qubit list filled stage by stage.
    fn rebuild(&mut self, depth: usize, upcoming: &[Stage], layout: &Layout, grid: &ZonedGrid) {
        for q in self.touched.drain(..) {
            self.slots[q.as_usize()] = NO_SLOT;
        }
        self.slots.resize(layout.num_qubits() as usize, NO_SLOT);
        self.offsets.clear();
        self.offsets.push(0);
        let window = &upcoming[..depth.min(upcoming.len())];
        for gate in window.iter().flat_map(Stage::gates) {
            for (q, partner) in [(gate.lo(), gate.hi()), (gate.hi(), gate.lo())] {
                if layout.site_of(partner).is_some() {
                    let slot = &mut self.slots[q.as_usize()];
                    if *slot == NO_SLOT {
                        *slot = self.touched.len() as u32;
                        self.touched.push(q);
                        self.offsets.push(0);
                    }
                    self.offsets[*slot as usize + 1] += 1;
                }
            }
        }
        for i in 1..self.offsets.len() {
            self.offsets[i] += self.offsets[i - 1];
        }
        self.cursors.clear();
        self.cursors
            .extend_from_slice(&self.offsets[..self.touched.len()]);
        self.entries.clear();
        self.entries.resize(
            self.offsets[self.touched.len()] as usize,
            (0.0, Point::new(0.0, 0.0)),
        );
        for (j, future) in window.iter().enumerate() {
            let weight = DISCOUNT.powi(j as i32 + 1);
            for gate in future.gates() {
                for (q, partner) in [(gate.lo(), gate.hi()), (gate.hi(), gate.lo())] {
                    if let Some(site) = layout.site_of(partner) {
                        let cursor = &mut self.cursors[self.slots[q.as_usize()] as usize];
                        self.entries[*cursor as usize] = (weight, grid.position(site));
                        *cursor += 1;
                    }
                }
            }
        }
    }

    /// Qubit `q`'s attractors, in stage-major order.
    fn of(&self, q: Qubit) -> &[(f64, Point)] {
        match self.slots.get(q.as_usize()) {
            Some(&slot) if slot != NO_SLOT => {
                let slot = slot as usize;
                &self.entries[self.offsets[slot] as usize..self.offsets[slot + 1] as usize]
            }
            _ => &[],
        }
    }
}

/// The lookahead [`SitePolicy`]: a candidate site is penalized by the
/// discounted distances from the site to the current positions of both
/// qubits' future partners — exactly the penalty of the pair's
/// [`Attractors`], so the free-site walk visits sites in score order, a
/// walked site's score is its walk key, and a pair without attractors is
/// scored by distance alone ([`BiasForm::Penalty`]). Uses the
/// planner-provided site position — no grid borrow, no per-stage grid
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

    fn form(&self, _: Seal) -> BiasForm {
        BiasForm::Penalty
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

    /// The per-stage CSR rebuild the slot-indexed one replaced: `n + 1`
    /// offsets counted, prefix-summed and filled in stage-major order.
    fn csr_reference(
        depth: usize,
        upcoming: &[Stage],
        layout: &Layout,
        grid: &ZonedGrid,
    ) -> Vec<Vec<(f64, Point)>> {
        let n = layout.num_qubits() as usize;
        let mut offsets = vec![0u32; n + 1];
        for future in upcoming.iter().take(depth) {
            for gate in future.gates() {
                for (q, partner) in [(gate.lo(), gate.hi()), (gate.hi(), gate.lo())] {
                    if layout.site_of(partner).is_some() {
                        offsets[q.as_usize() + 1] += 1;
                    }
                }
            }
        }
        for i in 0..n {
            offsets[i + 1] += offsets[i];
        }
        let mut cursors = offsets[..n].to_vec();
        let mut entries = vec![(0.0, Point::new(0.0, 0.0)); offsets[n] as usize];
        for (j, future) in upcoming.iter().take(depth).enumerate() {
            let weight = DISCOUNT.powi(j as i32 + 1);
            for gate in future.gates() {
                for (q, partner) in [(gate.lo(), gate.hi()), (gate.hi(), gate.lo())] {
                    if let Some(site) = layout.site_of(partner) {
                        let slot = cursors[q.as_usize()] as usize;
                        cursors[q.as_usize()] += 1;
                        entries[slot] = (weight, grid.position(site));
                    }
                }
            }
        }
        (0..n)
            .map(|q| entries[offsets[q] as usize..offsets[q + 1] as usize].to_vec())
            .collect()
    }

    #[test]
    fn slot_rebuild_matches_the_csr_reference_on_random_stage_chains() {
        let mut rng = 0x9E37_79B9_7F4A_7C15_u64;
        let mut next = |bound: u32| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % u64::from(bound)) as u32
        };
        for n in [2, 7, 40] {
            let arch = Architecture::for_qubits(n);
            let grid = arch.grid().clone();
            let mut layout = Layout::row_major(&arch, n, Zone::Storage).unwrap();
            // One buffer across every rebuild, so stale slots would show.
            let mut buffers = AttractorBuffers::default();
            for _ in 0..60 {
                let stages: Vec<Stage> = (0..next(5))
                    .map(|_| {
                        let mut used = vec![false; n as usize];
                        let mut gates = Vec::new();
                        for _ in 0..next(n) {
                            let (a, b) = (next(n), next(n));
                            if a != b && !used[a as usize] && !used[b as usize] {
                                used[a as usize] = true;
                                used[b as usize] = true;
                                gates.push(CzGate::new(q(a), q(b)));
                            }
                        }
                        Stage::new(gates)
                    })
                    .collect();
                // Unplaced partners contribute no attractor.
                let lifted = q(next(n));
                layout.remove(lifted);
                let depth = next(4) as usize;
                buffers.rebuild(depth, &stages, &layout, &grid);
                let reference = csr_reference(depth, &stages, &layout, &grid);
                for (i, expected) in reference.iter().enumerate() {
                    assert_eq!(buffers.of(q(i as u32)), expected.as_slice(), "n={n} q{i}");
                }
                layout = Layout::row_major(&arch, n, Zone::Storage).unwrap();
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
