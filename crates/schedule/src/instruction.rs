//! Hardware-level instructions of a compiled neutral-atom program.

use powermove_circuit::{CzGate, OneQubitGate, Qubit};
use powermove_hardware::{AodId, Architecture, SiteId, TrapMove};
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;

/// A single-qubit movement between two sites, part of a collective move.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SiteMove {
    /// The qubit being moved.
    pub qubit: Qubit,
    /// Source site.
    pub from: SiteId,
    /// Destination site.
    pub to: SiteId,
}

impl SiteMove {
    /// Creates a site-level move.
    #[must_use]
    pub const fn new(qubit: Qubit, from: SiteId, to: SiteId) -> Self {
        SiteMove { qubit, from, to }
    }

    /// Converts to a physical [`TrapMove`] using the machine geometry.
    #[must_use]
    pub fn to_trap_move(&self, arch: &Architecture) -> TrapMove {
        TrapMove::new(
            self.qubit,
            arch.grid().position(self.from),
            arch.grid().position(self.to),
        )
    }

    /// Movement distance in meters.
    #[must_use]
    pub fn distance(&self, arch: &Architecture) -> f64 {
        arch.grid().distance(self.from, self.to)
    }
}

impl fmt::Display for SiteMove {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {} -> {}", self.qubit, self.from, self.to)
    }
}

/// A collective move: a set of single-qubit moves executed together by one
/// AOD array (Coll-Move in the paper's terminology).
///
/// Every qubit of a collective move is transferred from its static trap into
/// the AOD (one transfer), translated, and dropped back into a static trap
/// (a second transfer).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CollMove {
    /// The AOD array executing this collective move.
    pub aod: AodId,
    /// The constituent single-qubit moves.
    pub moves: Vec<SiteMove>,
}

impl CollMove {
    /// Creates a collective move on the given AOD.
    #[must_use]
    pub fn new(aod: AodId, moves: Vec<SiteMove>) -> Self {
        CollMove { aod, moves }
    }

    /// Number of qubits moved.
    #[must_use]
    pub fn len(&self) -> usize {
        self.moves.len()
    }

    /// Returns `true` if no qubit is moved.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.moves.is_empty()
    }

    /// The longest single-qubit movement distance, in meters, which
    /// determines the duration of the collective move.
    #[must_use]
    pub fn max_distance(&self, arch: &Architecture) -> f64 {
        self.moves
            .iter()
            .map(|m| m.distance(arch))
            .fold(0.0, f64::max)
    }

    /// Duration of the translation (excluding transfers), in seconds.
    #[must_use]
    pub fn move_duration(&self, arch: &Architecture) -> f64 {
        powermove_hardware::move_duration(self.max_distance(arch), arch.params().max_acceleration)
    }

    /// The physical trap moves of this collective move.
    #[must_use]
    pub fn trap_moves(&self, arch: &Architecture) -> Vec<TrapMove> {
        self.moves.iter().map(|m| m.to_trap_move(arch)).collect()
    }
}

/// One instruction of a compiled program.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum Instruction {
    /// A layer of single-qubit gates executed by parallel Raman pulses.
    OneQubitLayer {
        /// The gates of the layer.
        gates: Vec<(Qubit, OneQubitGate)>,
    },
    /// One or more collective moves executed in parallel on distinct AOD
    /// arrays.
    MoveGroup {
        /// The collective moves, at most one per AOD array.
        coll_moves: Vec<CollMove>,
    },
    /// A global Rydberg excitation executing one stage of CZ gates on
    /// co-located qubit pairs in the computation zone.
    RydbergStage {
        /// The CZ gates realized by this excitation.
        gates: Vec<CzGate>,
    },
}

impl Instruction {
    /// Convenience constructor for a single-qubit layer.
    #[must_use]
    pub fn one_qubit_layer(gates: Vec<(Qubit, OneQubitGate)>) -> Self {
        Instruction::OneQubitLayer { gates }
    }

    /// Convenience constructor for a move group.
    #[must_use]
    pub fn move_group(coll_moves: Vec<CollMove>) -> Self {
        Instruction::MoveGroup { coll_moves }
    }

    /// Convenience constructor for a Rydberg stage.
    #[must_use]
    pub fn rydberg(gates: Vec<CzGate>) -> Self {
        Instruction::RydbergStage { gates }
    }

    /// Number of qubit transfers (SLM <-> AOD) implied by this instruction:
    /// two per moved qubit, zero otherwise.
    #[must_use]
    pub fn transfer_count(&self) -> usize {
        match self {
            Instruction::MoveGroup { coll_moves } => {
                2 * coll_moves.iter().map(CollMove::len).sum::<usize>()
            }
            _ => 0,
        }
    }

    /// The serial depth of a 1Q layer: the maximum number of gates applied
    /// to any single qubit. Zero for other instructions.
    #[must_use]
    pub fn one_qubit_depth(&self) -> usize {
        match self {
            Instruction::OneQubitLayer { gates } => {
                let mut counts: HashMap<Qubit, usize> = HashMap::new();
                for (q, _) in gates {
                    *counts.entry(*q).or_insert(0) += 1;
                }
                counts.values().copied().max().unwrap_or(0)
            }
            _ => 0,
        }
    }
}

impl fmt::Display for Instruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instruction::OneQubitLayer { gates } => write!(f, "1q-layer({} gates)", gates.len()),
            Instruction::MoveGroup { coll_moves } => {
                let moved: usize = coll_moves.iter().map(CollMove::len).sum();
                write!(
                    f,
                    "move-group({} coll-moves, {moved} qubits)",
                    coll_moves.len()
                )
            }
            Instruction::RydbergStage { gates } => write!(f, "rydberg({} cz)", gates.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_hardware::Zone;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    #[test]
    fn site_move_distance_uses_grid() {
        let arch = Architecture::for_qubits(9);
        let a = arch.grid().site(Zone::Compute, 0, 0).unwrap();
        let b = arch.grid().site(Zone::Compute, 1, 0).unwrap();
        let m = SiteMove::new(q(0), a, b);
        assert!((m.distance(&arch) - 15e-6).abs() < 1e-12);
        let tm = m.to_trap_move(&arch);
        assert_eq!(tm.qubit, q(0));
    }

    #[test]
    fn coll_move_max_and_total_distance() {
        let arch = Architecture::for_qubits(9);
        let g = arch.grid();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        let cm = CollMove::new(
            AodId::new(0),
            vec![
                SiteMove::new(q(0), s(0, 0), s(0, 1)),
                SiteMove::new(q(1), s(1, 0), s(1, 2)),
            ],
        );
        assert!((cm.max_distance(&arch) - 30e-6).abs() < 1e-12);
        assert!(cm.move_duration(&arch) > 0.0);
        assert_eq!(cm.len(), 2);
        assert!(!cm.is_empty());
    }

    #[test]
    fn transfer_count_is_two_per_moved_qubit() {
        let arch = Architecture::for_qubits(4);
        let g = arch.grid();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        let instr = Instruction::move_group(vec![
            CollMove::new(AodId::new(0), vec![SiteMove::new(q(0), s(0, 0), s(1, 0))]),
            CollMove::new(AodId::new(1), vec![SiteMove::new(q(1), s(0, 1), s(1, 1))]),
        ]);
        assert_eq!(instr.transfer_count(), 4);
        assert_eq!(Instruction::rydberg(vec![]).transfer_count(), 0);
    }

    #[test]
    fn one_qubit_depth_counts_per_qubit() {
        let layer = Instruction::one_qubit_layer(vec![
            (q(0), OneQubitGate::H),
            (q(0), OneQubitGate::Rz(0.2)),
            (q(1), OneQubitGate::X),
        ]);
        assert_eq!(layer.one_qubit_depth(), 2);
        assert_eq!(Instruction::rydberg(vec![]).one_qubit_depth(), 0);
    }

    #[test]
    fn display_summaries() {
        assert_eq!(
            Instruction::rydberg(vec![CzGate::new(q(0), q(1))]).to_string(),
            "rydberg(1 cz)"
        );
        assert_eq!(
            Instruction::one_qubit_layer(vec![(q(0), OneQubitGate::H)]).to_string(),
            "1q-layer(1 gates)"
        );
    }
}
