//! The multi-AOD collective-move scheduler: stage planning stays greedy,
//! but each stage's moves are partitioned across every AOD array the
//! architecture provides.

use crate::config::AodAssignment;
use crate::routing::{RoutingStrategy, StageRouting};
use crate::MoveScratch;
use powermove_hardware::Architecture;
use powermove_schedule::Instruction;

/// A routing strategy that schedules each stage's moves across
/// `Architecture::num_aods()` independent AOD arrays.
///
/// Stage transitions use the default greedy
/// [`RoutingStrategy::route_stage`], like
/// [`GreedyRouter`](crate::GreedyRouter), so the *where* of every qubit is
/// unchanged; the strategy differs in *when* moves fly. The stage's single-qubit moves are
/// first partitioned into conflict-free collective moves
/// ([`group_moves`](crate::group_moves), which splits on
/// [`TrapMove::conflicts_with`] violations), then packed into parallel
/// windows of one collective move per AOD:
///
/// * [`AodAssignment::Balanced`] (the default) sorts each move class by
///   translation length before chunking
///   ([`pack_move_groups_balanced`](crate::pack_move_groups_balanced)), so similar-duration moves
///   share a window and no AOD idles behind one slow member — this is what
///   cuts the total movement wall clock at ≥ 2 AODs;
/// * [`AodAssignment::Chunked`] keeps the greedy dwell-time chunking and
///   exists as the ablation of the balancing step.
///
/// Every emitted collective move is re-checked against the AOD order
/// constraint in debug builds
/// ([`validate_collective_move`](powermove_hardware::validate_collective_move)),
/// and the schedule validator rejects any window that books one AOD twice.
///
/// [`TrapMove::conflicts_with`]: powermove_hardware::TrapMove::conflicts_with
#[derive(Debug, Clone, Copy)]
pub struct MultiAodScheduler {
    assignment: AodAssignment,
}

impl MultiAodScheduler {
    /// Creates the scheduler with the given window-assignment policy.
    #[must_use]
    pub fn new(assignment: AodAssignment) -> Self {
        MultiAodScheduler { assignment }
    }

    /// The active window-assignment policy.
    #[must_use]
    pub fn assignment(&self) -> AodAssignment {
        self.assignment
    }
}

impl Default for MultiAodScheduler {
    fn default() -> Self {
        MultiAodScheduler::new(AodAssignment::Balanced)
    }
}

impl RoutingStrategy for MultiAodScheduler {
    fn name(&self) -> &str {
        "multi-aod"
    }

    fn schedule_moves(
        &self,
        routing: &StageRouting,
        arch: &Architecture,
        use_grouping: bool,
        scratch: &mut MoveScratch,
        out: &mut Vec<Instruction>,
    ) {
        let start = out.len();
        match self.assignment {
            AodAssignment::Chunked => scratch.lower_greedy(routing, arch, use_grouping, out),
            AodAssignment::Balanced => scratch.lower_balanced(routing, arch, use_grouping, out),
        }
        debug_assert!(
            out[start..].iter().all(|instr| match instr {
                Instruction::MoveGroup { coll_moves } => coll_moves.iter().all(|cm| {
                    powermove_hardware::validate_collective_move(&cm.trap_moves(arch)).is_ok()
                }),
                _ => true,
            }),
            "multi-AOD packing emitted a conflicting collective move"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::{RoutingState, ZeroBias};
    use crate::Stage;
    use powermove_circuit::{CzGate, Qubit};
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

    fn schedule(
        scheduler: &MultiAodScheduler,
        routing: &StageRouting,
        arch: &Architecture,
        use_grouping: bool,
    ) -> Vec<Instruction> {
        let mut out = Vec::new();
        scheduler.schedule_moves(
            routing,
            arch,
            use_grouping,
            &mut MoveScratch::new(),
            &mut out,
        );
        out
    }

    fn movement_time(instructions: &[Instruction], arch: &Architecture) -> f64 {
        powermove_schedule::movement_wall_clock(instructions, arch)
    }

    #[test]
    fn balanced_windows_never_take_longer_than_chunked() {
        let arch = Architecture::for_qubits(12).with_num_aods(3);
        let layout = Layout::row_major(&arch, 12, Zone::Storage).unwrap();
        let stages = [
            stage(&[(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]),
            stage(&[(1, 2), (3, 4), (5, 6), (7, 8), (9, 10)]),
            stage(&[(0, 11), (2, 9), (4, 7)]),
        ];
        let balanced = MultiAodScheduler::new(AodAssignment::Balanced);
        let chunked = MultiAodScheduler::new(AodAssignment::Chunked);
        let mut state = RoutingState::new(arch.clone(), layout, true);
        let mut balanced_total = 0.0;
        let mut chunked_total = 0.0;
        for st in &stages {
            let routing = state.route_stage_with(st, &ZeroBias).unwrap();
            let b = schedule(&balanced, &routing, &arch, true);
            let c = schedule(&chunked, &routing, &arch, true);
            assert_eq!(b.len(), c.len(), "same number of parallel windows");
            balanced_total += movement_time(&b, &arch);
            chunked_total += movement_time(&c, &arch);
        }
        assert!(
            balanced_total <= chunked_total,
            "balanced {balanced_total} vs chunked {chunked_total}"
        );
    }

    #[test]
    fn ungrouped_moves_become_singleton_collective_moves() {
        let arch = Architecture::for_qubits(6).with_num_aods(2);
        let layout = Layout::row_major(&arch, 6, Zone::Storage).unwrap();
        let mut state = RoutingState::new(arch.clone(), layout, true);
        let routing = state
            .route_stage_with(&stage(&[(0, 1), (2, 3)]), &ZeroBias)
            .unwrap();
        let scheduler = MultiAodScheduler::default();
        for instr in schedule(&scheduler, &routing, &arch, false) {
            if let Instruction::MoveGroup { coll_moves } = instr {
                assert!(coll_moves.iter().all(|cm| cm.len() == 1));
            }
        }
    }

    #[test]
    fn assignment_policy_round_trips() {
        assert_eq!(
            MultiAodScheduler::default().assignment(),
            AodAssignment::Balanced
        );
        assert_eq!(
            MultiAodScheduler::new(AodAssignment::Chunked).assignment(),
            AodAssignment::Chunked
        );
        assert_eq!(MultiAodScheduler::default().name(), "multi-aod");
    }
}
