//! The end-to-end PowerMove compilation pipeline.

use crate::pipeline::{
    CompileContext, CompilerBackend, MovePass, RoutePass, RoutedProgram, StagePass, StagedProgram,
    SynthesisPass,
};
use crate::routing::{AutoRouter, RoutingStrategy};
use crate::{CompileError, CompilerConfig};
use powermove_circuit::{BlockProgram, Circuit};
use powermove_exec::{Parallelism, ThreadPool};
use powermove_hardware::Architecture;
use powermove_schedule::{CompiledProgram, Instruction, MovementClock, PassCounter, PassTiming};
use std::sync::Arc;

/// Compiles a circuit for an architecture under a configuration — the pure
/// front door of the pipeline.
///
/// Compilation is a **pure function** of this immutable input triple: the
/// compiler holds no hidden pipeline state, so equal triples always emit
/// byte-identical programs (modulo wall-clock pass timings, which are
/// measurements, not content). That purity is what makes the emitted
/// program cacheable by [`content_hash`](crate::content_hash) — the basis
/// of the `powermove-service` schedule cache — and identical concurrent
/// requests safely coalescible onto one compile.
///
/// # Example
///
/// ```
/// use powermove::CompilerConfig;
/// use powermove_circuit::{Circuit, Qubit};
/// use powermove_hardware::Architecture;
/// use powermove_schedule::canonical_program_bytes;
///
/// # fn main() -> Result<(), powermove::CompileError> {
/// let mut circuit = Circuit::new(2);
/// circuit.cz(Qubit::new(0), Qubit::new(1))?;
/// let arch = Architecture::for_qubits(2);
/// let config = CompilerConfig::default();
///
/// let once = powermove::compile(&circuit, &arch, &config)?;
/// let again = powermove::compile(&circuit, &arch, &config)?;
/// assert_eq!(
///     canonical_program_bytes(&once),
///     canonical_program_bytes(&again),
/// );
/// # Ok(())
/// # }
/// ```
///
/// # Errors
///
/// Same as [`PowerMoveCompiler::compile`].
pub fn compile(
    circuit: &Circuit,
    arch: &Architecture,
    config: &CompilerConfig,
) -> Result<CompiledProgram, CompileError> {
    PowerMoveCompiler::new(*config).compile(circuit, arch)
}

/// A frozen staged IR: the output of the compiler front end
/// ([`PowerMoveCompiler::stage`]) and the input of the back end
/// ([`PowerMoveCompiler::emit`]).
///
/// The IR is immutable and architecture-independent — synthesis and stage
/// partitioning depend only on the circuit and the configuration — so one
/// staged IR can be emitted for several architectures (different AOD
/// counts, grids or physical parameters) without re-running the front end.
/// It carries the front end's pass timings and work counters along, so a
/// program emitted from a staged IR reports the same deterministic
/// counters as one produced by the all-in-one [`PowerMoveCompiler::compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct StagedIr {
    staged: StagedProgram,
    timings: Vec<PassTiming>,
    counters: Vec<PassCounter>,
}

impl StagedIr {
    /// Program width in qubits.
    #[must_use]
    pub fn num_qubits(&self) -> u32 {
        self.staged.num_qubits()
    }

    /// Total number of Rydberg stages across all CZ blocks.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.staged.num_stages()
    }
}

/// A routing session: the compiler's single back end, over one frozen
/// staged program.
///
/// A session borrows the shared front-end output and replays **only the
/// back end** — a route step, then a lower step — once per
/// [`RoutingSession::replay`] call, each time with a different strategy
/// and/or architecture. Every compile lowers through it: a fixed-strategy
/// compile is one route and one lowering, portfolio auto-tuning two routes
/// and three lowerings. Replays are independent, so callers fan them out
/// across a thread pool freely (the session is `Send + Sync`).
///
/// Obtain one from [`PowerMoveCompiler::session`] (which fixes the
/// storage/grouping knobs from the compiler configuration) or construct it
/// directly from a [`StagedProgram`].
///
/// # Example
///
/// ```
/// use powermove::{CompilerConfig, GreedyRouter, MultiAodScheduler, PowerMoveCompiler};
/// use powermove_circuit::{Circuit, Qubit};
/// use powermove_exec::{Parallelism, ThreadPool};
/// use powermove_hardware::Architecture;
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), powermove::CompileError> {
/// let mut circuit = Circuit::new(4);
/// circuit.cz(Qubit::new(0), Qubit::new(1))?;
/// circuit.cz(Qubit::new(2), Qubit::new(3))?;
/// let compiler = PowerMoveCompiler::new(CompilerConfig::default());
/// let arch = Architecture::for_qubits(4).with_num_aods(2);
/// let pool = ThreadPool::new(Parallelism::fixed(1));
///
/// // One front-end pass, two back-end replays.
/// let ir = compiler.stage(&circuit);
/// let session = compiler.session(&ir);
/// let greedy = session.replay(&arch, Arc::new(GreedyRouter), &pool)?;
/// let multi = session.replay(&arch, Arc::new(MultiAodScheduler::default()), &pool)?;
/// assert!(multi.movement_wall_clock() <= greedy.movement_wall_clock());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RoutingSession<'a> {
    staged: &'a StagedProgram,
    use_storage: bool,
    use_grouping: bool,
}

impl<'a> RoutingSession<'a> {
    /// Creates a session over a frozen staged program.
    #[must_use]
    pub fn new(staged: &'a StagedProgram, use_storage: bool, use_grouping: bool) -> Self {
        RoutingSession {
            staged,
            use_storage,
            use_grouping,
        }
    }

    /// Replays the back end for one strategy on one architecture: the route
    /// step, then the lower step, scheduling moves on `pool`.
    ///
    /// A replay's output is deterministic and independent of any other
    /// replay and of the pool's worker count; the movement wall clock is
    /// folded over the stream in instruction order (bit-identical to
    /// [`movement_wall_clock`](crate::movement_wall_clock)).
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::NoFreeSite`] if the strategy runs out of
    /// free sites.
    pub fn replay(
        &self,
        arch: &Architecture,
        strategy: Arc<dyn RoutingStrategy>,
        pool: &ThreadPool,
    ) -> Result<Replay, CompileError> {
        let mut scratch = CompileContext::scratch();
        let routed = self.route(arch, strategy.clone(), &mut scratch)?;
        let instructions = self.lower(&routed, arch, strategy, pool, &mut scratch);
        Ok(Replay::score(instructions, arch))
    }

    /// The route step of a replay: plans every stage transition with
    /// `strategy`'s [`RoutingStrategy::route_stage`], recording into `ctx`.
    pub(crate) fn route(
        &self,
        arch: &Architecture,
        strategy: Arc<dyn RoutingStrategy>,
        ctx: &mut CompileContext,
    ) -> Result<RoutedProgram<'a>, CompileError> {
        RoutePass::new(self.use_storage)
            .with_strategy(strategy)
            .run(self.staged, arch, ctx)
    }

    /// The lower step of a replay: schedules the routed program's moves with
    /// `strategy`'s [`RoutingStrategy::schedule_moves`], recording into
    /// `ctx`.
    pub(crate) fn lower(
        &self,
        routed: &RoutedProgram<'_>,
        arch: &Architecture,
        strategy: Arc<dyn RoutingStrategy>,
        pool: &ThreadPool,
        ctx: &mut CompileContext,
    ) -> Vec<Instruction> {
        MovePass::new(self.use_grouping)
            .with_strategy(strategy)
            .run(routed, arch, pool, ctx)
    }
}

/// The outcome of one [`RoutingSession::replay`]: the instruction stream
/// and the replay's scoring metrics.
#[derive(Debug, Clone)]
pub struct Replay {
    pub(crate) instructions: Vec<Instruction>,
    movement: f64,
    transfers: usize,
}

impl Replay {
    /// Scores a lowered instruction stream: its movement wall clock,
    /// folded in stream order, and its transfer count. Only the selection
    /// metrics need this; a fixed-strategy compile skips it.
    pub(crate) fn score(instructions: Vec<Instruction>, arch: &Architecture) -> Self {
        let mut clock = MovementClock::new();
        let mut transfers = 0_usize;
        for instruction in &instructions {
            clock.observe(instruction, arch);
            transfers += instruction.transfer_count();
        }
        Replay {
            instructions,
            movement: clock.total(),
            transfers,
        }
    }

    /// The emitted instruction stream.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Total movement wall clock of the instruction stream, in seconds —
    /// the auto-tuner's primary selection metric.
    #[must_use]
    pub fn movement_wall_clock(&self) -> f64 {
        self.movement
    }

    /// Total number of SLM↔AOD trap transfers — the auto-tuner's
    /// tie-breaking metric.
    #[must_use]
    pub fn transfer_count(&self) -> usize {
        self.transfers
    }
}

/// The PowerMove compiler.
///
/// Compilation runs the pass pipeline of [`crate::pipeline`]:
///
/// 1. [`SynthesisPass`]: synthesize the circuit into alternating 1Q layers
///    and commuting CZ blocks;
/// 2. [`StagePass`]: per block, partition the gates into Rydberg stages
///    (edge colouring) and order the stages to minimize inter-zone
///    interchange;
/// 3. [`RoutePass`]: per stage, run the continuous router to obtain the
///    direct layout transition;
/// 4. [`MovePass`]: group the single-qubit moves into AOD-compatible
///    collective moves, order them for maximum storage dwell time, pack them
///    onto the available AOD arrays, and emit the move groups followed by
///    the global Rydberg excitation.
///
/// Each pass reports wall-clock timing and work counters through a shared
/// [`CompileContext`]; the result lands in the program's
/// [`CompileMetadata`](powermove_schedule::CompileMetadata). The compiler
/// implements [`CompilerBackend`], so it can be registered with the
/// experiment harness as a trait object next to other strategies.
///
/// The [`StagePass`] and [`MovePass`] layers process independent CZ blocks
/// and routed stages concurrently on a work-stealing pool
/// ([`powermove_exec::ThreadPool`]); [`CompilerConfig::threads`] (or the
/// `POWERMOVE_THREADS` environment variable) controls the worker count and
/// the emitted program is byte-identical for every setting.
///
/// # Example
///
/// ```
/// use powermove::{CompilerConfig, PowerMoveCompiler};
/// use powermove_benchmarks as _;
/// use powermove_circuit::{Circuit, Qubit};
/// use powermove_hardware::Architecture;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut circuit = Circuit::new(3);
/// circuit.cz(Qubit::new(0), Qubit::new(1))?;
/// circuit.cz(Qubit::new(1), Qubit::new(2))?;
/// let program = PowerMoveCompiler::new(CompilerConfig::default())
///     .compile(&circuit, &Architecture::for_qubits(3))?;
/// assert_eq!(program.cz_gate_count(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PowerMoveCompiler {
    config: CompilerConfig,
}

impl PowerMoveCompiler {
    /// Creates a compiler with the given configuration.
    #[must_use]
    pub fn new(config: CompilerConfig) -> Self {
        PowerMoveCompiler { config }
    }

    /// The compiler configuration.
    #[must_use]
    pub fn config(&self) -> &CompilerConfig {
        &self.config
    }

    /// Compiles a circuit for the given architecture: the front end
    /// ([`PowerMoveCompiler::stage`]) followed by the back end
    /// ([`PowerMoveCompiler::emit`]), with the program's `compile_time`
    /// covering both.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Hardware`] if the machine cannot host the
    /// circuit, or [`CompileError::NoFreeSite`] if the router runs out of
    /// free sites (which cannot happen with the paper's default grid
    /// dimensions).
    pub fn compile(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError> {
        arch.check_capacity(circuit.num_qubits())?;
        let ctx = CompileContext::new();
        self.lower(&self.stage(circuit), arch, ctx)
    }

    /// Runs the compiler front end: synthesis plus stage partitioning.
    ///
    /// The result is a frozen, architecture-independent [`StagedIr`] that
    /// [`PowerMoveCompiler::emit`] lowers onto a concrete machine. Staging
    /// once and emitting many times skips the front end on every
    /// architecture after the first:
    ///
    /// ```
    /// use powermove::{CompilerConfig, PowerMoveCompiler};
    /// use powermove_circuit::{Circuit, Qubit};
    /// use powermove_hardware::Architecture;
    ///
    /// # fn main() -> Result<(), powermove::CompileError> {
    /// let mut circuit = Circuit::new(4);
    /// circuit.cz(Qubit::new(0), Qubit::new(1))?;
    /// circuit.cz(Qubit::new(2), Qubit::new(3))?;
    /// let compiler = PowerMoveCompiler::new(CompilerConfig::default());
    ///
    /// let ir = compiler.stage(&circuit);
    /// assert_eq!(ir.num_qubits(), 4);
    /// for aods in [1, 2, 4] {
    ///     let arch = Architecture::for_qubits(4).with_num_aods(aods);
    ///     let program = compiler.emit(&ir, &arch)?;
    ///     assert_eq!(program.cz_gate_count(), 2);
    /// }
    /// # Ok(())
    /// # }
    /// ```
    #[must_use]
    pub fn stage(&self, circuit: &Circuit) -> StagedIr {
        // A scratch context: the IR carries only per-pass records; the
        // caller's context owns the end-to-end clock.
        let mut ctx = CompileContext::scratch();
        let blocks = SynthesisPass.run(circuit, &mut ctx);
        self.stage_blocks(&blocks, ctx)
    }

    /// Stage-partitions an already-synthesized block program, recording
    /// into `ctx` after whatever it already holds.
    fn stage_blocks(&self, blocks: &BlockProgram, mut ctx: CompileContext) -> StagedIr {
        let pool = ThreadPool::new(Parallelism::from_setting(self.config.threads));
        let staged = StagePass::new(self.config.alpha).run(blocks, &pool, &mut ctx);
        let (timings, counters) = ctx.into_parts();
        StagedIr {
            staged,
            timings,
            counters,
        }
    }

    /// Runs the compiler back end: routing, move grouping and emission of a
    /// staged IR onto a concrete architecture.
    ///
    /// The emitted program's metadata folds in the front-end timings and
    /// counters carried by the IR, so it reports the same deterministic
    /// counters as an all-in-one [`PowerMoveCompiler::compile`] of the
    /// original circuit. To emit one staged IR under several strategies,
    /// emit it from one compiler per [`RoutingConfig`](crate::RoutingConfig),
    /// or replay it through a [`RoutingSession`].
    ///
    /// # Errors
    ///
    /// Same as [`PowerMoveCompiler::compile`].
    pub fn emit(
        &self,
        ir: &StagedIr,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError> {
        arch.check_capacity(ir.num_qubits())?;
        self.lower(ir, arch, CompileContext::new())
    }

    /// Opens a [`RoutingSession`] over a staged IR, carrying the compiler's
    /// storage and grouping configuration.
    ///
    /// The session replays only the back end per call — see
    /// [`RoutingSession::replay`] and the session-level example.
    #[must_use]
    pub fn session<'a>(&self, ir: &'a StagedIr) -> RoutingSession<'a> {
        RoutingSession::new(
            &ir.staged,
            self.config.use_storage,
            self.config.use_grouping,
        )
    }

    /// The back end every entry point shares: folds the IR's front-end
    /// records into `ctx`, routes and schedules the staged program — through
    /// [`AutoRouter`] for an auto-tuning configuration, else as one route and
    /// one lowering of the configured strategy — and emits the program.
    fn lower(
        &self,
        ir: &StagedIr,
        arch: &Architecture,
        mut ctx: CompileContext,
    ) -> Result<CompiledProgram, CompileError> {
        ctx.merge(CompileContext::from_parts(
            ir.timings.clone(),
            ir.counters.clone(),
        ));
        // One pool per compile: workers are only alive while a parallel
        // pass drains, and `threads == 1` (or `POWERMOVE_THREADS=1`) runs
        // the passes inline with byte-identical output.
        let pool = ThreadPool::new(Parallelism::from_setting(self.config.threads));
        let (routed, instructions) = if self.config.routing.strategy.is_auto() {
            AutoRouter::from_config(&self.config.routing).run(
                &ir.staged,
                arch,
                self.config.use_storage,
                self.config.use_grouping,
                &pool,
                &mut ctx,
            )?
        } else {
            let session = self.session(ir);
            let strategy = self.config.routing.build();
            let routed = session.route(arch, strategy.clone(), &mut ctx)?;
            let instructions = session.lower(&routed, arch, strategy, &pool, &mut ctx);
            (routed, instructions)
        };
        let metadata = ctx.finish(
            "powermove",
            self.config.use_storage,
            ir.num_stages(),
            arch.num_aods(),
        );
        Ok(CompiledProgram::new(
            arch.clone(),
            routed.num_qubits(),
            routed.initial_layout().clone(),
            instructions,
        )
        .with_metadata(metadata))
    }
}

impl CompilerBackend for PowerMoveCompiler {
    fn name(&self) -> &str {
        "powermove"
    }

    fn config_description(&self) -> String {
        format!(
            "storage={}, alpha={}, grouping={}, routing={}",
            self.config.use_storage,
            self.config.alpha,
            self.config.use_grouping,
            self.config.routing.strategy.name()
        )
    }

    fn compile(
        &self,
        blocks: &BlockProgram,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError> {
        arch.check_capacity(blocks.num_qubits())?;
        let ctx = CompileContext::new();
        let ir = self.stage_blocks(blocks, CompileContext::scratch());
        self.lower(&ir, arch, ctx)
    }

    fn compile_circuit(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError> {
        PowerMoveCompiler::compile(self, circuit, arch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::tests::ring_circuit;
    use powermove_circuit::Qubit;
    use powermove_fidelity::evaluate_program;
    use powermove_schedule::validate;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn compile(circuit: &Circuit, use_storage: bool, num_aods: usize) -> CompiledProgram {
        let arch = Architecture::for_qubits(circuit.num_qubits()).with_num_aods(num_aods);
        let config = if use_storage {
            CompilerConfig::default()
        } else {
            CompilerConfig::without_storage()
        };
        PowerMoveCompiler::new(config)
            .compile(circuit, &arch)
            .unwrap()
    }

    #[test]
    fn compiled_ring_is_valid_with_storage() {
        let p = compile(&ring_circuit(8), true, 1);
        assert!(validate(&p).is_ok());
        assert_eq!(p.cz_gate_count(), 8);
        assert!(p.metadata().uses_storage);
        assert!(p.metadata().compile_time.is_some());
        assert!(p.rydberg_stage_count() >= 2);
    }

    #[test]
    fn compiled_ring_is_valid_without_storage() {
        let p = compile(&ring_circuit(8), false, 1);
        assert!(validate(&p).is_ok());
        assert_eq!(p.cz_gate_count(), 8);
        assert!(!p.metadata().uses_storage);
    }

    #[test]
    fn one_qubit_gates_are_preserved() {
        let mut c = Circuit::new(4);
        for i in 0..4 {
            c.h(q(i)).unwrap();
        }
        c.cz(q(0), q(1)).unwrap();
        for i in 0..4 {
            c.rz(q(i), 0.3).unwrap();
        }
        let p = compile(&c, true, 1);
        assert_eq!(p.one_qubit_gate_count(), 8);
        assert!(validate(&p).is_ok());
    }

    #[test]
    fn routing_variants_compile_valid_programs_with_identical_gates() {
        use crate::RoutingConfig;
        let circuit = ring_circuit(12);
        let arch = Architecture::for_qubits(12).with_num_aods(3);
        let greedy = PowerMoveCompiler::new(CompilerConfig::default())
            .compile(&circuit, &arch)
            .unwrap();
        for routing in [RoutingConfig::lookahead(2), RoutingConfig::multi_aod()] {
            let variant = PowerMoveCompiler::new(CompilerConfig::default().with_routing(routing))
                .compile(&circuit, &arch)
                .unwrap();
            assert!(validate(&variant).is_ok());
            assert_eq!(variant.cz_gate_count(), greedy.cz_gate_count());
            assert_eq!(variant.metadata().num_aods, 3);
        }
    }

    #[test]
    fn multi_aod_scheduler_cuts_execution_time_at_two_plus_aods() {
        use crate::RoutingConfig;
        let circuit = ring_circuit(16);
        let arch = Architecture::for_qubits(16).with_num_aods(3);
        let greedy = PowerMoveCompiler::new(CompilerConfig::default())
            .compile(&circuit, &arch)
            .unwrap();
        let multi = PowerMoveCompiler::new(
            CompilerConfig::default().with_routing(RoutingConfig::multi_aod()),
        )
        .compile(&circuit, &arch)
        .unwrap();
        let t = |p: &CompiledProgram| evaluate_program(p).unwrap().execution_time;
        assert!(
            t(&multi) <= t(&greedy),
            "balanced windows must not lengthen the schedule"
        );
    }

    #[test]
    fn auto_routing_selects_per_instance_and_names_itself() {
        use crate::RoutingConfig;
        let compiler =
            PowerMoveCompiler::new(CompilerConfig::default().with_routing(RoutingConfig::auto()));
        assert!(compiler.config_description().contains("routing=auto"));
        let arch = Architecture::for_qubits(12).with_num_aods(3);
        let program = compiler.compile(&ring_circuit(12), &arch).unwrap();
        assert!(validate(&program).is_ok());
        assert!(program.metadata().selected_strategy.is_some());
    }

    #[test]
    fn metadata_records_the_resolved_aod_count() {
        let p = compile(&ring_circuit(8), true, 3);
        assert_eq!(p.metadata().num_aods, 3);
        let p = compile(&ring_circuit(8), true, 1);
        assert_eq!(p.metadata().num_aods, 1);
    }

    #[test]
    fn multi_aod_reduces_or_preserves_move_groups() {
        let circuit = ring_circuit(12);
        let single = compile(&circuit, true, 1);
        let quad = compile(&circuit, true, 4);
        assert!(quad.move_group_count() <= single.move_group_count());
        assert!(validate(&quad).is_ok());
        // Same gates either way.
        assert_eq!(single.cz_gate_count(), quad.cz_gate_count());
    }

    #[test]
    fn storage_mode_eliminates_excitation_exposure() {
        // Only qubits 0..6 interact; qubits 6..10 idle and are exposed to
        // every excitation unless parked in the storage zone.
        let mut circuit = Circuit::new(10);
        for i in 0..10 {
            circuit.h(q(i)).unwrap();
        }
        for i in 0..6_u32 {
            circuit.cz(q(i), q((i + 1) % 6)).unwrap();
        }
        let with = compile(&circuit, true, 1);
        let without = compile(&circuit, false, 1);
        let report_with = evaluate_program(&with).unwrap();
        let report_without = evaluate_program(&without).unwrap();
        assert_eq!(report_with.trace.excitation_exposure, 0);
        assert!(report_without.trace.excitation_exposure > 0);
        assert!(report_with.breakdown.excitation > report_without.breakdown.excitation);
    }

    #[test]
    fn empty_circuit_compiles_to_empty_program() {
        let c = Circuit::new(3);
        let p = compile(&c, true, 1);
        assert_eq!(p.num_instructions(), 0);
        assert!(validate(&p).is_ok());
    }

    #[test]
    fn capacity_error_is_reported() {
        let c = ring_circuit(10);
        let tiny = Architecture::for_qubits(10)
            .with_grid(powermove_hardware::ZonedGrid::with_dims(2, 2, 4).unwrap());
        let result = PowerMoveCompiler::new(CompilerConfig::default()).compile(&c, &tiny);
        assert!(matches!(result, Err(CompileError::Hardware(_))));
    }

    #[test]
    fn qaoa_like_workload_compiles_and_scores() {
        // A denser workload: two rounds of ring coupling plus cross links.
        let mut c = Circuit::new(9);
        for i in 0..9 {
            c.h(q(i)).unwrap();
        }
        for i in 0..9 {
            c.zz(q(i), q((i + 1) % 9), 0.4).unwrap();
        }
        for i in 0..4 {
            c.zz(q(i), q(i + 4), 0.4).unwrap();
        }
        let p = compile(&c, true, 1);
        assert!(validate(&p).is_ok());
        let report = evaluate_program(&p).unwrap();
        assert!(report.fidelity() > 0.0);
        assert!(report.execution_time > 0.0);
    }
}
