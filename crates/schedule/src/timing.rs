//! Instruction timing model.
//!
//! Execution time is the metric `T_exe` of the paper (Sec. 7.1): the total
//! time needed for single-qubit layers, Rydberg stages, trap transfers and
//! qubit movements.

use crate::{CollMove, Instruction};
use powermove_hardware::Architecture;

/// Duration of a single-qubit layer: the per-qubit serial depth times the
/// single-qubit gate duration (gates on distinct qubits run in parallel).
#[must_use]
fn one_qubit_layer_duration(depth: usize, arch: &Architecture) -> f64 {
    depth as f64 * arch.params().one_qubit_duration
}

/// Duration of a group of collective moves executed in parallel on distinct
/// AOD arrays.
///
/// Every moved qubit is picked up from its static trap before the translation
/// and dropped off afterwards, so the group costs two transfer times plus the
/// longest translation among its collective moves (Sec. 6.2: the execution
/// duration of a parallel group is `t_transfer + max(t'_i)`; we account the
/// drop-off transfer explicitly as a second transfer).
#[must_use]
pub fn move_group_duration(coll_moves: &[CollMove], arch: &Architecture) -> f64 {
    if coll_moves.iter().all(CollMove::is_empty) {
        return 0.0;
    }
    let max_move = coll_moves
        .iter()
        .map(|cm| cm.move_duration(arch))
        .fold(0.0, f64::max);
    2.0 * arch.params().transfer_duration + max_move
}

/// Total movement wall clock of an instruction sequence, in seconds: the
/// sum of every move group's duration. This is exactly the quantity the
/// trace simulator accumulates as `movement_time` — the slice of the
/// execution time multi-AOD scheduling and routing auto-tuning compress.
#[must_use]
pub fn movement_wall_clock(instructions: &[Instruction], arch: &Architecture) -> f64 {
    instructions
        .iter()
        .map(|instruction| match instruction {
            Instruction::MoveGroup { coll_moves } => move_group_duration(coll_moves, arch),
            _ => 0.0,
        })
        .sum()
}

/// An incremental movement-wall-clock accumulator.
///
/// Folds per-instruction move-group durations in stream order, so observing
/// every instruction of a sequence yields a total **bit-identical** to
/// [`movement_wall_clock`] over the same sequence — both are the same
/// left-to-right `f64` summation (floating-point addition is not
/// associative, so any other grouping of the partial sums could differ in
/// the last ulp). Routing replay uses this to score candidates while
/// instructions stream out of move scheduling, without a second pass over
/// the finished program.
///
/// # Example
///
/// ```
/// use powermove_schedule::{movement_wall_clock, Instruction, MovementClock};
/// use powermove_hardware::Architecture;
///
/// let arch = Architecture::for_qubits(4);
/// let instructions: Vec<Instruction> = Vec::new();
/// let mut clock = MovementClock::new();
/// for instruction in &instructions {
///     clock.observe(instruction, &arch);
/// }
/// assert_eq!(clock.total(), movement_wall_clock(&instructions, &arch));
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct MovementClock {
    total: f64,
}

impl MovementClock {
    /// A clock at zero.
    #[must_use]
    pub fn new() -> Self {
        MovementClock::default()
    }

    /// Adds one instruction's movement contribution (zero unless it is a
    /// move group).
    pub fn observe(&mut self, instruction: &Instruction, arch: &Architecture) {
        self.total += match instruction {
            Instruction::MoveGroup { coll_moves } => move_group_duration(coll_moves, arch),
            _ => 0.0,
        };
    }

    /// The accumulated movement wall clock, in seconds.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.total
    }
}

/// Duration of one instruction, in seconds.
#[must_use]
pub fn instruction_duration(instruction: &Instruction, arch: &Architecture) -> f64 {
    match instruction {
        Instruction::OneQubitLayer { .. } => {
            one_qubit_layer_duration(instruction.one_qubit_depth(), arch)
        }
        Instruction::MoveGroup { coll_moves } => move_group_duration(coll_moves, arch),
        Instruction::RydbergStage { .. } => arch.params().cz_duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SiteMove;
    use powermove_circuit::{CzGate, OneQubitGate, Qubit};
    use powermove_hardware::{AodId, Zone};

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn one_qubit_layer_duration_scales_with_depth() {
        let arch = Architecture::for_qubits(4);
        assert_eq!(one_qubit_layer_duration(0, &arch), 0.0);
        assert!((one_qubit_layer_duration(1, &arch) - 1e-6).abs() < 1e-12);
        assert!((one_qubit_layer_duration(3, &arch) - 3e-6).abs() < 1e-12);
    }

    #[test]
    fn rydberg_stage_costs_cz_duration() {
        let arch = Architecture::for_qubits(4);
        let instr = Instruction::rydberg(vec![CzGate::new(q(0), q(1))]);
        assert!((instruction_duration(&instr, &arch) - 270e-9).abs() < 1e-15);
    }

    #[test]
    fn move_group_duration_includes_two_transfers() {
        let arch = Architecture::for_qubits(9);
        let g = arch.grid();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        // A 15 um move: sqrt(15e-6/2750) ~ 73.9 us.
        let cm = CollMove::new(AodId::new(0), vec![SiteMove::new(q(0), s(0, 0), s(1, 0))]);
        let expected_move = (15e-6_f64 / 2750.0).sqrt();
        let d = move_group_duration(&[cm], &arch);
        assert!((d - (2.0 * 15e-6 + expected_move)).abs() < 1e-12);
    }

    #[test]
    fn parallel_moves_cost_the_max_translation() {
        let arch = Architecture::for_qubits(9);
        let g = arch.grid();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        let short = CollMove::new(AodId::new(0), vec![SiteMove::new(q(0), s(0, 0), s(1, 0))]);
        let long = CollMove::new(AodId::new(1), vec![SiteMove::new(q(1), s(0, 1), s(2, 2))]);
        let together = move_group_duration(&[short.clone(), long.clone()], &arch);
        let alone = move_group_duration(&[long], &arch);
        assert!((together - alone).abs() < 1e-15);
        assert!(together > move_group_duration(&[short], &arch));
    }

    #[test]
    fn empty_move_group_costs_nothing() {
        let arch = Architecture::for_qubits(4);
        assert_eq!(move_group_duration(&[], &arch), 0.0);
        assert_eq!(
            move_group_duration(&[CollMove::new(AodId::new(0), vec![])], &arch),
            0.0
        );
    }

    #[test]
    fn movement_clock_is_bit_identical_to_the_wall_clock_fold() {
        let arch = Architecture::for_qubits(9);
        let g = arch.grid();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        let instructions = vec![
            Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![SiteMove::new(q(0), s(0, 0), s(1, 0))],
            )]),
            Instruction::rydberg(vec![CzGate::new(q(0), q(1))]),
            Instruction::move_group(vec![
                CollMove::new(AodId::new(0), vec![SiteMove::new(q(1), s(0, 1), s(2, 2))]),
                CollMove::new(AodId::new(1), vec![SiteMove::new(q(2), s(2, 0), s(0, 2))]),
            ]),
            Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![SiteMove::new(q(0), s(1, 0), s(2, 1))],
            )]),
        ];
        let mut clock = MovementClock::new();
        for instruction in &instructions {
            clock.observe(instruction, &arch);
        }
        // Exact equality on purpose: the clock must replay the same
        // left-to-right summation, not merely approximate it.
        assert_eq!(
            clock.total().to_bits(),
            movement_wall_clock(&instructions, &arch).to_bits()
        );
    }

    #[test]
    fn one_qubit_layer_instruction_duration_uses_depth() {
        let arch = Architecture::for_qubits(4);
        let instr = Instruction::one_qubit_layer(vec![
            (q(0), OneQubitGate::H),
            (q(0), OneQubitGate::Rz(0.3)),
            (q(1), OneQubitGate::H),
        ]);
        assert!((instruction_duration(&instr, &arch) - 2e-6).abs() < 1e-12);
    }
}
