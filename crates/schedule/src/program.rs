//! The compiled-program container.

use crate::{CollMove, Instruction, Layout};
use powermove_hardware::Architecture;
use serde::Serialize;
use std::fmt;

/// Wall-clock time attributed to one named pipeline pass.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct PassTiming {
    /// Pass name, e.g. `"stage"` or `"route"`.
    pub pass: String,
    /// Accumulated wall-clock seconds spent in the pass.
    pub seconds: f64,
}

/// A named work counter accumulated during compilation.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Default)]
pub struct PassCounter {
    /// Counter name, e.g. `"coll_moves"`.
    pub name: String,
    /// Accumulated value.
    pub value: u64,
}

/// Metadata describing how a program was produced.
#[derive(Debug, Clone, PartialEq, Serialize, Default)]
pub struct CompileMetadata {
    /// Human-readable compiler name, e.g. `"powermove"` or `"enola"`.
    pub compiler: String,
    /// Wall-clock compilation time in seconds, if recorded.
    pub compile_time: Option<f64>,
    /// Whether the storage zone was used by the compiler.
    pub uses_storage: bool,
    /// Number of Rydberg stages scheduled.
    pub num_stages: usize,
    /// Number of AOD arrays the program was scheduled for (the resolved
    /// `Architecture::num_aods`, so bench reports record the count that
    /// actually drove multi-AOD packing). Zero when unrecorded.
    pub num_aods: usize,
    /// Name of the routing strategy an auto-tuning compiler selected for
    /// this program (e.g. `"multi-aod"`). `None` when the strategy was fixed
    /// by configuration rather than chosen per instance.
    pub selected_strategy: Option<String>,
    /// Per-pass wall-clock timings, in pipeline order.
    pub pass_timings: Vec<PassTiming>,
    /// Work counters accumulated by the passes.
    pub counters: Vec<PassCounter>,
}

impl CompileMetadata {
    /// Seconds attributed to the named pass, if it was recorded.
    #[must_use]
    pub fn pass_seconds(&self, pass: &str) -> Option<f64> {
        self.pass_timings
            .iter()
            .find(|t| t.pass == pass)
            .map(|t| t.seconds)
    }

    /// The value of the named work counter, if it was recorded.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// Total wall-clock seconds attributed to passes.
    #[must_use]
    pub fn total_pass_seconds(&self) -> f64 {
        self.pass_timings.iter().map(|t| t.seconds).sum()
    }
}

/// A fully lowered neutral-atom program: an initial qubit layout plus a
/// sequence of hardware instructions over a concrete [`Architecture`].
///
/// # Example
///
/// ```
/// use powermove_hardware::{Architecture, Zone};
/// use powermove_schedule::{CompiledProgram, Instruction, Layout};
///
/// let arch = Architecture::for_qubits(4);
/// let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
/// let program = CompiledProgram::new(arch, 4, layout, vec![Instruction::rydberg(vec![])]);
/// assert_eq!(program.num_instructions(), 1);
/// assert_eq!(program.rydberg_stage_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompiledProgram {
    architecture: Architecture,
    num_qubits: u32,
    initial_layout: Layout,
    instructions: Vec<Instruction>,
    metadata: CompileMetadata,
}

impl CompiledProgram {
    /// Creates a program from its parts with default metadata.
    #[must_use]
    pub fn new(
        architecture: Architecture,
        num_qubits: u32,
        initial_layout: Layout,
        instructions: Vec<Instruction>,
    ) -> Self {
        CompiledProgram {
            architecture,
            num_qubits,
            initial_layout,
            instructions,
            metadata: CompileMetadata::default(),
        }
    }

    /// Attaches compiler metadata.
    #[must_use]
    pub fn with_metadata(mut self, metadata: CompileMetadata) -> Self {
        self.metadata = metadata;
        self
    }

    /// The target machine.
    #[must_use]
    pub fn architecture(&self) -> &Architecture {
        &self.architecture
    }

    /// Program width in qubits.
    #[must_use]
    pub const fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The qubit layout before the first instruction.
    #[must_use]
    pub fn initial_layout(&self) -> &Layout {
        &self.initial_layout
    }

    /// The instruction sequence.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Compiler metadata.
    #[must_use]
    pub fn metadata(&self) -> &CompileMetadata {
        &self.metadata
    }

    /// Total number of instructions.
    #[must_use]
    pub fn num_instructions(&self) -> usize {
        self.instructions.len()
    }

    /// Number of Rydberg stages.
    #[must_use]
    pub fn rydberg_stage_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::RydbergStage { .. }))
            .count()
    }

    /// Number of move-group instructions.
    #[must_use]
    pub fn move_group_count(&self) -> usize {
        self.instructions
            .iter()
            .filter(|i| matches!(i, Instruction::MoveGroup { .. }))
            .count()
    }

    /// Total number of collective moves across all move groups.
    #[must_use]
    pub fn coll_move_count(&self) -> usize {
        self.instructions
            .iter()
            .map(|i| match i {
                Instruction::MoveGroup { coll_moves } => coll_moves.len(),
                _ => 0,
            })
            .sum()
    }

    /// Total number of CZ gates executed.
    #[must_use]
    pub fn cz_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .map(|i| match i {
                Instruction::RydbergStage { gates } => gates.len(),
                _ => 0,
            })
            .sum()
    }

    /// Total number of single-qubit gates executed.
    #[must_use]
    pub fn one_qubit_gate_count(&self) -> usize {
        self.instructions
            .iter()
            .map(|i| match i {
                Instruction::OneQubitLayer { gates } => gates.len(),
                _ => 0,
            })
            .sum()
    }

    /// Total number of SLM <-> AOD transfers.
    #[must_use]
    pub fn transfer_count(&self) -> usize {
        self.instructions
            .iter()
            .map(Instruction::transfer_count)
            .sum()
    }

    /// Iterates over every collective move of the program.
    pub fn coll_moves(&self) -> impl Iterator<Item = &CollMove> + '_ {
        self.instructions.iter().flat_map(|i| match i {
            Instruction::MoveGroup { coll_moves } => coll_moves.as_slice(),
            _ => &[],
        })
    }
}

impl fmt::Display for CompiledProgram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "program[{}]: {} qubits, {} instructions ({} stages, {} move groups, {} transfers)",
            if self.metadata.compiler.is_empty() {
                "unknown"
            } else {
                &self.metadata.compiler
            },
            self.num_qubits,
            self.num_instructions(),
            self.rydberg_stage_count(),
            self.move_group_count(),
            self.transfer_count()
        )
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

    fn sample_program() -> CompiledProgram {
        let arch = Architecture::for_qubits(4);
        let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
        let g = arch.grid();
        let s = |c, r| g.site(Zone::Compute, c, r).unwrap();
        let instructions = vec![
            Instruction::one_qubit_layer(vec![(q(0), OneQubitGate::H), (q(1), OneQubitGate::H)]),
            Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![SiteMove::new(q(1), s(1, 0), s(0, 0))],
            )]),
            Instruction::rydberg(vec![CzGate::new(q(0), q(1))]),
        ];
        CompiledProgram::new(arch, 4, layout, instructions)
    }

    #[test]
    fn counts_are_consistent() {
        let p = sample_program();
        assert_eq!(p.num_instructions(), 3);
        assert_eq!(p.rydberg_stage_count(), 1);
        assert_eq!(p.move_group_count(), 1);
        assert_eq!(p.coll_move_count(), 1);
        assert_eq!(p.cz_gate_count(), 1);
        assert_eq!(p.one_qubit_gate_count(), 2);
        assert_eq!(p.transfer_count(), 2);
        assert_eq!(p.coll_moves().count(), 1);
    }

    #[test]
    fn metadata_round_trip() {
        let p = sample_program().with_metadata(CompileMetadata {
            compiler: "powermove".to_string(),
            compile_time: Some(0.5),
            uses_storage: true,
            num_stages: 1,
            num_aods: 2,
            selected_strategy: Some("multi-aod".to_string()),
            pass_timings: vec![
                PassTiming {
                    pass: "stage".to_string(),
                    seconds: 0.1,
                },
                PassTiming {
                    pass: "route".to_string(),
                    seconds: 0.3,
                },
            ],
            counters: vec![PassCounter {
                name: "coll_moves".to_string(),
                value: 4,
            }],
        });
        assert_eq!(p.metadata().compiler, "powermove");
        assert_eq!(p.metadata().compile_time, Some(0.5));
        assert!(p.metadata().uses_storage);
        assert_eq!(p.metadata().num_aods, 2);
        assert_eq!(p.metadata().selected_strategy.as_deref(), Some("multi-aod"));
        assert_eq!(p.metadata().pass_seconds("route"), Some(0.3));
        assert_eq!(p.metadata().pass_seconds("moves"), None);
        assert_eq!(p.metadata().counter("coll_moves"), Some(4));
        assert!((p.metadata().total_pass_seconds() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn display_mentions_compiler_and_counts() {
        let p = sample_program().with_metadata(CompileMetadata {
            compiler: "enola".to_string(),
            ..CompileMetadata::default()
        });
        let text = p.to_string();
        assert!(text.contains("enola"));
        assert!(text.contains("4 qubits"));
    }
}
