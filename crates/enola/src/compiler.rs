//! The end-to-end Enola-style compilation pipeline.

use crate::{partition_stages_mis, RevertRouter};
use powermove::{CompileContext, CompileError, CompilerBackend};
use powermove_circuit::{BlockProgram, Circuit, CzBlock, Segment};
use powermove_exec::{Parallelism, ThreadPool};
use powermove_hardware::{AodId, Architecture, HardwareError, Zone};
use powermove_schedule::{CollMove, CompiledProgram, Instruction, Layout};

/// Configuration of the Enola baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnolaConfig {
    /// Node budget of the branch-and-bound MIS solver used per stage
    /// extraction. Larger budgets produce (provably) larger stages at the
    /// cost of compilation time, mimicking the solver-based scheduling of
    /// the original implementation.
    pub mis_node_budget: usize,
    /// Worker count of the MIS stage-extraction fan-out: independent CZ
    /// blocks are solved concurrently (the same shape as PowerMove's
    /// `StagePass`), keeping compile-time comparisons apples-to-apples as
    /// core counts grow. `0` means automatic (the `POWERMOVE_THREADS`
    /// environment variable, then the core count); any other value pins the
    /// pool size. The emitted program is byte-identical for every worker
    /// count.
    pub threads: usize,
}

impl EnolaConfig {
    /// Returns the configuration with the MIS fan-out pinned to `threads`
    /// workers (`0` restores automatic sizing).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }
}

impl Default for EnolaConfig {
    fn default() -> Self {
        EnolaConfig {
            mis_node_budget: 200_000,
            threads: 0,
        }
    }
}

/// The Enola-style baseline compiler: MIS-based stage scheduling, fixed
/// initial layout and revert-to-initial movement, no storage zone.
#[derive(Debug, Clone, Default)]
pub struct EnolaCompiler {
    config: EnolaConfig,
}

impl EnolaCompiler {
    /// Creates a compiler with the given configuration.
    #[must_use]
    pub fn new(config: EnolaConfig) -> Self {
        EnolaCompiler { config }
    }

    /// The compiler configuration.
    #[must_use]
    pub fn config(&self) -> &EnolaConfig {
        &self.config
    }

    /// Compiles a circuit for the given architecture.
    ///
    /// # Errors
    ///
    /// Returns [`HardwareError::InsufficientCapacity`] if the computation
    /// zone cannot hold every qubit.
    pub fn compile(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
    ) -> Result<CompiledProgram, HardwareError> {
        let mut ctx = CompileContext::new();
        let block_program = ctx.time("synthesis", |_| BlockProgram::from_circuit(circuit));
        self.compile_with_context(&block_program, arch, ctx)
    }

    fn compile_with_context(
        &self,
        block_program: &BlockProgram,
        arch: &Architecture,
        mut ctx: CompileContext,
    ) -> Result<CompiledProgram, HardwareError> {
        let n = block_program.num_qubits();
        if arch.grid().num_compute_sites() < n as usize {
            return Err(HardwareError::InsufficientCapacity {
                qubits: n,
                sites: arch.grid().num_compute_sites(),
            });
        }

        let initial_layout = Layout::row_major(arch, n, Zone::Compute).map_err(|_| {
            HardwareError::InsufficientCapacity {
                qubits: n,
                sites: arch.grid().num_compute_sites(),
            }
        })?;
        let router = RevertRouter::new(arch.clone(), initial_layout.clone());

        // Stage extraction is the expensive half of the Enola pipeline (the
        // branch-and-bound MIS search), and each commuting CZ block is
        // independent — the same shape as PowerMove's `StagePass`. Fan the
        // blocks out over the pool, merging each worker's scratch context
        // back in block order so timings/counters stay deterministic for
        // every worker count.
        let pool = ThreadPool::new(Parallelism::from_setting(self.config.threads));
        let budget = self.config.mis_node_budget;
        let cz_blocks: Vec<&CzBlock> = block_program
            .segments()
            .iter()
            .filter_map(|segment| match segment {
                Segment::Cz(block) => Some(block),
                Segment::OneQubit(_) => None,
            })
            .collect();
        let staged = pool.par_map_chunked(cz_blocks, |block| {
            let mut worker = CompileContext::scratch();
            let stages = worker.time("stage", |_| partition_stages_mis(block, budget));
            worker.count("stages", stages.len() as u64);
            (stages, worker)
        });
        let mut staged_blocks = Vec::with_capacity(staged.len());
        for (stages, worker) in staged {
            ctx.merge(worker);
            staged_blocks.push(stages);
        }
        let mut staged_blocks = staged_blocks.into_iter();

        let mut instructions: Vec<Instruction> = Vec::new();
        let mut num_stages = 0_usize;

        for segment in block_program.segments() {
            match segment {
                Segment::OneQubit(layer) => {
                    instructions.push(Instruction::one_qubit_layer(layer.gates().to_vec()));
                }
                Segment::Cz(_) => {
                    let stages = staged_blocks
                        .next()
                        .expect("one staged partition per CZ block");
                    for stage in stages {
                        let (forward, reverse) = ctx.time("route", |_| {
                            let forward = router.forward_moves(&stage);
                            let reverse = router.reverse_moves(&forward);
                            (forward, reverse)
                        });
                        ctx.time("moves", |ctx| {
                            let out = pack(router.group_moves(&forward), arch.num_aods());
                            let back = pack(router.group_moves(&reverse), arch.num_aods());
                            ctx.count("move_groups", (out.len() + back.len()) as u64);
                            instructions.extend(out);
                            instructions.push(Instruction::rydberg(stage));
                            instructions.extend(back);
                        });
                        num_stages += 1;
                    }
                }
            }
        }

        let metadata = ctx.finish("enola", false, num_stages, arch.num_aods());
        Ok(
            CompiledProgram::new(arch.clone(), n, initial_layout, instructions)
                .with_metadata(metadata),
        )
    }
}

impl CompilerBackend for EnolaCompiler {
    fn name(&self) -> &str {
        "enola"
    }

    fn config_description(&self) -> String {
        format!(
            "mis_node_budget={} threads={}",
            self.config.mis_node_budget, self.config.threads
        )
    }

    fn compile(
        &self,
        blocks: &BlockProgram,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError> {
        self.compile_with_context(blocks, arch, CompileContext::new())
            .map_err(CompileError::Hardware)
    }

    fn compile_circuit(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError> {
        EnolaCompiler::compile(self, circuit, arch).map_err(CompileError::Hardware)
    }
}

/// Packs ordered collective-move groups onto the available AOD arrays.
fn pack(groups: Vec<Vec<powermove_schedule::SiteMove>>, num_aods: usize) -> Vec<Instruction> {
    let width = num_aods.max(1);
    groups
        .chunks(width)
        .map(|chunk| {
            Instruction::move_group(
                chunk
                    .iter()
                    .enumerate()
                    .map(|(i, moves)| CollMove::new(AodId::new(i), moves.clone()))
                    .collect(),
            )
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::Qubit;
    use powermove_fidelity::evaluate_program;
    use powermove_schedule::validate;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn ring_circuit(n: u32) -> Circuit {
        let mut c = Circuit::new(n);
        for i in 0..n {
            c.h(q(i)).unwrap();
        }
        for i in 0..n {
            c.cz(q(i), q((i + 1) % n)).unwrap();
        }
        c
    }

    #[test]
    fn compiled_ring_is_valid() {
        let circuit = ring_circuit(8);
        let arch = Architecture::for_qubits(8);
        let p = EnolaCompiler::default().compile(&circuit, &arch).unwrap();
        assert!(validate(&p).is_ok());
        assert_eq!(p.cz_gate_count(), 8);
        assert!(!p.metadata().uses_storage);
        assert_eq!(p.metadata().compiler, "enola");
    }

    #[test]
    fn movement_reverts_to_initial_layout() {
        let circuit = ring_circuit(6);
        let arch = Architecture::for_qubits(6);
        let p = EnolaCompiler::default().compile(&circuit, &arch).unwrap();
        let trace = powermove_schedule::simulate(&p).unwrap();
        // After the program, every qubit is back at its initial site.
        for i in 0..6 {
            assert_eq!(
                trace.final_layout.site_of(q(i)),
                p.initial_layout().site_of(q(i))
            );
        }
    }

    #[test]
    fn idle_qubits_are_exposed_to_every_excitation() {
        // Qubits 4..8 never interact but sit in the computation zone.
        let mut circuit = Circuit::new(8);
        circuit.cz(q(0), q(1)).unwrap();
        circuit.cz(q(2), q(3)).unwrap();
        let arch = Architecture::for_qubits(8);
        let p = EnolaCompiler::default().compile(&circuit, &arch).unwrap();
        let report = evaluate_program(&p).unwrap();
        assert_eq!(report.trace.rydberg_stage_count, 1);
        assert_eq!(report.trace.excitation_exposure, 4);
        assert!(report.breakdown.excitation < 1.0);
    }

    #[test]
    fn transfer_count_doubles_versus_one_way_movement() {
        // One stage with one moved qubit: forward + reverse = 2 moves,
        // 2 transfers each.
        let mut circuit = Circuit::new(4);
        circuit.cz(q(0), q(1)).unwrap();
        let arch = Architecture::for_qubits(4);
        let p = EnolaCompiler::default().compile(&circuit, &arch).unwrap();
        assert_eq!(p.transfer_count(), 4);
    }

    #[test]
    fn capacity_error_for_tiny_grid() {
        let circuit = ring_circuit(10);
        let arch = Architecture::for_qubits(10)
            .with_grid(powermove_hardware::ZonedGrid::with_dims(2, 2, 4).unwrap());
        assert!(EnolaCompiler::default().compile(&circuit, &arch).is_err());
    }

    #[test]
    fn one_qubit_gates_preserved() {
        let circuit = ring_circuit(5);
        let arch = Architecture::for_qubits(5);
        let p = EnolaCompiler::default().compile(&circuit, &arch).unwrap();
        assert_eq!(p.one_qubit_gate_count(), 5);
    }

    #[test]
    fn multi_aod_packing_is_valid() {
        let circuit = ring_circuit(9);
        let arch = Architecture::for_qubits(9).with_num_aods(3);
        let p = EnolaCompiler::default().compile(&circuit, &arch).unwrap();
        assert!(validate(&p).is_ok());
    }

    #[test]
    fn parallel_stage_extraction_is_byte_identical() {
        let circuit = ring_circuit(12);
        let arch = Architecture::for_qubits(12);
        let reference = EnolaCompiler::new(EnolaConfig::default().with_threads(1))
            .compile(&circuit, &arch)
            .unwrap();
        let reference_bytes = serde_json::to_string(&reference.instructions().to_vec()).unwrap();
        for threads in [2, 4] {
            let parallel = EnolaCompiler::new(EnolaConfig::default().with_threads(threads))
                .compile(&circuit, &arch)
                .unwrap();
            assert_eq!(
                serde_json::to_string(&parallel.instructions().to_vec()).unwrap(),
                reference_bytes,
                "threads={threads} must not change the emitted program"
            );
            // Merged counters are deterministic too (timings are wall clocks
            // and legitimately differ).
            assert_eq!(
                serde_json::to_string(&parallel.metadata().counters).unwrap(),
                serde_json::to_string(&reference.metadata().counters).unwrap()
            );
        }
    }

    #[test]
    fn threads_knob_round_trips_through_config() {
        let config = EnolaConfig::default().with_threads(3);
        assert_eq!(config.threads, 3);
        let compiler = EnolaCompiler::new(config);
        assert!(compiler.config_description().contains("threads=3"));
        assert_eq!(EnolaConfig::default().threads, 0, "default is automatic");
    }

    #[test]
    fn empty_circuit_gives_empty_program() {
        let circuit = Circuit::new(3);
        let arch = Architecture::for_qubits(3);
        let p = EnolaCompiler::default().compile(&circuit, &arch).unwrap();
        assert_eq!(p.num_instructions(), 0);
    }
}
