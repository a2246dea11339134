//! The open compiler abstraction and the PowerMove pass pipeline.
//!
//! Compilation is organized as a sequence of explicit, individually testable
//! passes over progressively lower-level program representations:
//!
//! ```text
//! Circuit ──SynthesisPass──▶ BlockProgram ──StagePass──▶ StagedProgram
//!         ──RoutePass──▶ RoutedProgram ──MovePass──▶ Vec<Instruction>
//!         ──emission──▶ CompiledProgram
//! ```
//!
//! Every pass shares a [`CompileContext`] that accumulates per-pass
//! wall-clock timings and work counters; the context is folded into the
//! produced program's [`CompileMetadata`] so downstream tooling (the
//! `diagnostics` experiment binary, JSON reports) can attribute compilation
//! time to pipeline phases.
//!
//! Passes whose units of work are independent — [`StagePass`] (per CZ
//! block) and [`MovePass`] (per routed stage) — fan out over a
//! [`ThreadPool`] in contiguous chunks whose results keep input order, so
//! the emitted program is byte-identical for every `POWERMOVE_THREADS`
//! setting. Each chunk records into one [`CompileContext::scratch`] context
//! that is merged back in input order ([`CompileContext::merge`]); merged
//! pass timings therefore report *total work time* (the sum across
//! workers), which can exceed the wall-clock `compile_time` on multi-core
//! runs. [`RoutePass`] stays sequential by construction: the router threads
//! one mutable layout through every stage transition.
//!
//! The [`CompilerBackend`] trait is the open entry point tying it together:
//! any compiler that lowers a [`BlockProgram`] onto an [`Architecture`] can
//! implement it and participate in the experiment harness alongside
//! [`PowerMoveCompiler`](crate::PowerMoveCompiler) and the Enola baseline —
//! no harness changes required.

use crate::routing::{GreedyRouter, RoutingState, RoutingStrategy, StageRouting};
use crate::{partition_stages, schedule_stages, CompileError, MoveScratch, Stage};
use powermove_circuit::{BlockProgram, Circuit, OneQubitGate, Qubit, Segment};
use powermove_exec::ThreadPool;
use powermove_hardware::{Architecture, Zone};
use powermove_schedule::{
    CompileMetadata, CompiledProgram, Instruction, Layout, PassCounter, PassTiming,
};
use std::fmt;
use std::sync::Arc;
use std::time::Instant;

/// A compiler that lowers block programs onto a neutral-atom machine.
///
/// Implementations are registered with the experiment harness as trait
/// objects, so new compilation strategies (ablations, alternative routers,
/// external baselines) drop in without touching harness dispatch code.
///
/// # Example
///
/// A minimal custom backend that delegates to PowerMove but reports its own
/// name:
///
/// ```
/// use powermove::{
///     CompileError, CompilerBackend, CompilerConfig, PowerMoveCompiler,
/// };
/// use powermove_circuit::BlockProgram;
/// use powermove_hardware::Architecture;
/// use powermove_schedule::CompiledProgram;
///
/// struct MyBackend(PowerMoveCompiler);
///
/// impl CompilerBackend for MyBackend {
///     fn name(&self) -> &str {
///         "my-backend"
///     }
///     fn config_description(&self) -> String {
///         "powermove with default config".to_string()
///     }
///     fn compile(
///         &self,
///         blocks: &BlockProgram,
///         arch: &Architecture,
///     ) -> Result<CompiledProgram, CompileError> {
///         CompilerBackend::compile(&self.0, blocks, arch)
///     }
/// }
///
/// let backend = MyBackend(PowerMoveCompiler::new(CompilerConfig::default()));
/// let mut circuit = powermove_circuit::Circuit::new(2);
/// circuit.cz(powermove_circuit::Qubit::new(0), powermove_circuit::Qubit::new(1))?;
/// let program = backend.compile_circuit(&circuit, &Architecture::for_qubits(2))?;
/// assert_eq!(program.cz_gate_count(), 1);
/// # Ok::<(), powermove::CompileError>(())
/// ```
///
/// Backends must be [`Send`] + [`Sync`]: the experiment harness fans the
/// backend × suite matrix out over a thread pool, with several workers
/// compiling through the same backend reference concurrently. `compile`
/// takes `&self`, so any mutable tuning state needs interior mutability
/// with synchronization.
pub trait CompilerBackend: Send + Sync {
    /// Short identifier of the compilation strategy, e.g. `"powermove"`.
    fn name(&self) -> &str;

    /// Human-readable description of the active configuration.
    fn config_description(&self) -> String;

    /// Compiles an already-synthesized block program for `arch`.
    ///
    /// # Errors
    ///
    /// Returns a [`CompileError`] if the machine cannot host the program or
    /// the backend fails to lower it.
    fn compile(
        &self,
        blocks: &BlockProgram,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError>;

    /// Convenience entry point: synthesizes `circuit` into blocks, then
    /// compiles it.
    ///
    /// # Errors
    ///
    /// Same as [`CompilerBackend::compile`].
    fn compile_circuit(
        &self,
        circuit: &Circuit,
        arch: &Architecture,
    ) -> Result<CompiledProgram, CompileError> {
        let blocks = BlockProgram::from_circuit(circuit);
        self.compile(&blocks, arch)
    }
}

/// Shared state threaded through the pipeline passes: wall-clock timings and
/// work counters, folded into [`CompileMetadata`] at emission.
#[derive(Debug, Default)]
pub struct CompileContext {
    started: Option<Instant>,
    timings: Vec<PassTiming>,
    counters: Vec<PassCounter>,
    selected_strategy: Option<String>,
}

impl CompileContext {
    /// Creates a context and starts the end-to-end compilation clock.
    #[must_use]
    pub fn new() -> Self {
        CompileContext {
            started: Some(Instant::now()),
            timings: Vec::new(),
            counters: Vec::new(),
            selected_strategy: None,
        }
    }

    /// Creates a worker-local context without an end-to-end clock.
    ///
    /// Parallel passes hand one scratch context to each unit of work and
    /// fold the results back into the main context with
    /// [`CompileContext::merge`], so per-pass totals stay accurate when
    /// blocks are processed concurrently.
    #[must_use]
    pub fn scratch() -> Self {
        CompileContext::default()
    }

    /// Rebuilds a scratch context from previously recorded timings and
    /// counters.
    ///
    /// This is the bridge that lets a frozen front-end IR
    /// ([`StagedIr`](crate::StagedIr)) carry its pass records into a later
    /// back-end context: `emit` merges the reconstructed context into a
    /// fresh one, so the emitted metadata matches an all-in-one compile.
    #[must_use]
    pub fn from_parts(timings: Vec<PassTiming>, counters: Vec<PassCounter>) -> Self {
        CompileContext {
            started: None,
            timings,
            counters,
            selected_strategy: None,
        }
    }

    /// Decomposes the context into its recorded timings and counters,
    /// discarding the clock and any selected strategy. Inverse of
    /// [`CompileContext::from_parts`].
    #[must_use]
    pub fn into_parts(self) -> (Vec<PassTiming>, Vec<PassCounter>) {
        (self.timings, self.counters)
    }

    /// Accumulates another context's timings and counters into this one.
    ///
    /// **Merge ordering.** Entries merge by name (summing values), and
    /// previously unseen names are appended in the order they are first
    /// encountered. Accumulated *values* are therefore order-independent —
    /// merging worker contexts in any order yields the same totals — but the
    /// *entry order* reflects merge order, which varies with the worker
    /// count and scheduling. Callers that need a reproducible layout should
    /// not rely on it here: [`CompileContext::finish`] sorts pass timings
    /// into canonical pipeline order before folding them into metadata, so
    /// the emitted [`CompileMetadata`] is stable across worker counts. The
    /// first merged `selected_strategy` wins, so merging scratch contexts in
    /// input order keeps strategy attribution deterministic.
    pub fn merge(&mut self, other: CompileContext) {
        for timing in other.timings {
            if let Some(entry) = self.timings.iter_mut().find(|t| t.pass == timing.pass) {
                entry.seconds += timing.seconds;
            } else {
                self.timings.push(timing);
            }
        }
        for counter in other.counters {
            self.count(&counter.name, counter.value);
        }
        if self.selected_strategy.is_none() {
            self.selected_strategy = other.selected_strategy;
        }
    }

    /// Records the routing strategy an auto-tuning layer selected for this
    /// program; folded into [`CompileMetadata::selected_strategy`] at
    /// emission. Later calls overwrite earlier ones.
    ///
    /// [`CompileMetadata::selected_strategy`]: powermove_schedule::CompileMetadata
    pub fn select_strategy(&mut self, name: &str) {
        self.selected_strategy = Some(name.to_string());
    }

    /// The routing strategy recorded by [`CompileContext::select_strategy`],
    /// if any.
    #[must_use]
    pub fn selected_strategy(&self) -> Option<&str> {
        self.selected_strategy.as_deref()
    }

    /// Runs `f`, attributing its wall-clock time to the named pass.
    ///
    /// Repeated calls with the same name accumulate, so a pass may be timed
    /// incrementally (e.g. once per block).
    pub fn time<T>(&mut self, pass: &str, f: impl FnOnce(&mut Self) -> T) -> T {
        let start = Instant::now();
        let result = f(self);
        let seconds = start.elapsed().as_secs_f64();
        if let Some(entry) = self.timings.iter_mut().find(|t| t.pass == pass) {
            entry.seconds += seconds;
        } else {
            self.timings.push(PassTiming {
                pass: pass.to_string(),
                seconds,
            });
        }
        result
    }

    /// Adds `amount` to the named work counter.
    pub fn count(&mut self, name: &str, amount: u64) {
        if let Some(entry) = self.counters.iter_mut().find(|c| c.name == name) {
            entry.value += amount;
        } else {
            self.counters.push(PassCounter {
                name: name.to_string(),
                value: amount,
            });
        }
    }

    /// The pass timings recorded so far, in first-recorded order.
    #[must_use]
    pub fn timings(&self) -> &[PassTiming] {
        &self.timings
    }

    /// The work counters recorded so far.
    #[must_use]
    pub fn counters(&self) -> &[PassCounter] {
        &self.counters
    }

    /// Folds the context into program metadata, closing the end-to-end
    /// clock. `num_aods` records the resolved AOD-array count the schedule
    /// was packed for, so bench reports can attribute multi-AOD results.
    ///
    /// Pass timings are sorted into canonical pipeline order (synthesis,
    /// stage, route, moves, then any other passes alphabetically) so the
    /// metadata layout is identical across worker counts — parallel passes
    /// merge worker contexts in completion-dependent order, which would
    /// otherwise leak into the diagnostics output.
    #[must_use]
    pub fn finish(
        self,
        compiler: &str,
        uses_storage: bool,
        num_stages: usize,
        num_aods: usize,
    ) -> CompileMetadata {
        fn pipeline_rank(pass: &str) -> usize {
            match pass {
                SynthesisPass::NAME => 0,
                StagePass::NAME => 1,
                RoutePass::NAME => 2,
                MovePass::NAME => 3,
                _ => 4,
            }
        }
        let mut pass_timings = self.timings;
        pass_timings.sort_by(|a, b| {
            pipeline_rank(&a.pass)
                .cmp(&pipeline_rank(&b.pass))
                .then_with(|| a.pass.cmp(&b.pass))
        });
        CompileMetadata {
            compiler: compiler.to_string(),
            compile_time: self.started.map(|s| s.elapsed().as_secs_f64()),
            uses_storage,
            num_stages,
            num_aods,
            selected_strategy: self.selected_strategy,
            pass_timings,
            counters: self.counters,
        }
    }
}

/// Pass 1: synthesizes a gate-level circuit into alternating 1Q layers and
/// commuting CZ blocks.
#[derive(Debug, Clone, Copy, Default)]
pub struct SynthesisPass;

impl SynthesisPass {
    /// Name under which the pass reports its timing.
    pub const NAME: &'static str = "synthesis";

    /// Runs the pass.
    #[must_use]
    pub fn run(&self, circuit: &Circuit, ctx: &mut CompileContext) -> BlockProgram {
        ctx.time(Self::NAME, |ctx| {
            let blocks = BlockProgram::from_circuit(circuit);
            ctx.count("cz_blocks", blocks.cz_blocks().count() as u64);
            blocks
        })
    }
}

/// One segment of a [`StagedProgram`].
#[derive(Debug, Clone, PartialEq)]
pub enum StagedSegment {
    /// A layer of single-qubit gates, passed through unchanged.
    OneQubit(Vec<(Qubit, OneQubitGate)>),
    /// A commuting CZ block partitioned into ordered Rydberg stages.
    Stages(Vec<Stage>),
}

/// The output of [`StagePass`]: the block program with every CZ block
/// partitioned into Rydberg stages and the stages ordered to minimize
/// inter-zone interchange.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedProgram {
    num_qubits: u32,
    segments: Vec<StagedSegment>,
}

impl StagedProgram {
    /// Program width in qubits.
    #[must_use]
    pub const fn num_qubits(&self) -> u32 {
        self.num_qubits
    }

    /// The staged segments in program order.
    #[must_use]
    pub fn segments(&self) -> &[StagedSegment] {
        &self.segments
    }

    /// Total number of Rydberg stages across all CZ blocks.
    #[must_use]
    pub fn num_stages(&self) -> usize {
        self.segments
            .iter()
            .map(|s| match s {
                StagedSegment::Stages(stages) => stages.len(),
                StagedSegment::OneQubit(_) => 0,
            })
            .sum()
    }
}

/// Pass 2: partitions each commuting CZ block into Rydberg stages via
/// optimized edge colouring and orders the stages by the `α`-weighted
/// interchange metric (Sec. 4 of the paper).
///
/// Every CZ block is independent, so the pass fans the blocks out over the
/// given [`ThreadPool`]. The fan-out preserves input order and the per-block
/// computation is deterministic, which keeps the staged program identical
/// for every worker count.
#[derive(Debug, Clone, Copy)]
pub struct StagePass {
    alpha: f64,
}

impl StagePass {
    /// Name under which the pass reports its timing.
    pub const NAME: &'static str = "stage";

    /// Creates the pass with the stage-scheduling weight `α`.
    #[must_use]
    pub fn new(alpha: f64) -> Self {
        StagePass { alpha }
    }

    /// Runs the pass, staging independent CZ blocks concurrently on `pool`.
    #[must_use]
    pub fn run(
        &self,
        blocks: &BlockProgram,
        pool: &ThreadPool,
        ctx: &mut CompileContext,
    ) -> StagedProgram {
        let alpha = self.alpha;
        let chunks = par_map_merging(pool, ctx, Self::NAME, blocks.segments(), |chunk, worker| {
            chunk
                .iter()
                .map(|segment| match segment {
                    Segment::OneQubit(layer) => StagedSegment::OneQubit(layer.gates().to_vec()),
                    Segment::Cz(block) => {
                        let stages = schedule_stages(partition_stages(block), alpha);
                        worker.count("stages", stages.len() as u64);
                        StagedSegment::Stages(stages)
                    }
                })
                .collect()
        });
        StagedProgram {
            num_qubits: blocks.num_qubits(),
            segments: concat(chunks),
        }
    }
}

/// Shared fan-out scaffolding of the parallel passes: registers `pass` in
/// `ctx` (so it appears even for empty programs), maps `items` over `pool`
/// one contiguous chunk at a time ([`ThreadPool::par_map_chunks`]), and
/// merges the chunk contexts back into `ctx` in input order. Returns one
/// result per chunk, in input order.
///
/// Each chunk gets one [`CompileContext::scratch`] context, which `f` sees
/// with the whole chunk, and is timed once under `pass`. Block- and
/// stage-level fan-outs scale with program size (QFT-256 lowers 65k
/// segments), so per-item contexts would allocate a pass name and counter
/// names per item, and per-item results a buffer per item. Counter values
/// are sums and chunks merge in input order, so the counters and their
/// first-recorded order are the same for every worker count.
fn par_map_merging<T, R>(
    pool: &ThreadPool,
    ctx: &mut CompileContext,
    pass: &str,
    items: &[T],
    f: impl Fn(&[T], &mut CompileContext) -> R + Sync,
) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    ctx.time(pass, |_| ());
    let chunks = pool.par_map_chunks(items, |chunk| {
        let mut worker = CompileContext::scratch();
        let out = worker.time(pass, |worker| f(chunk, worker));
        (out, worker)
    });
    chunks
        .into_iter()
        .map(|(out, worker)| {
            ctx.merge(worker);
            out
        })
        .collect()
}

/// Concatenates per-chunk results in order; a single chunk is returned as
/// is.
fn concat<T>(mut chunks: Vec<Vec<T>>) -> Vec<T> {
    if chunks.len() == 1 {
        return chunks.pop().expect("one chunk");
    }
    let mut all = Vec::with_capacity(chunks.iter().map(Vec::len).sum());
    for chunk in chunks {
        all.extend(chunk);
    }
    all
}

/// One segment of a [`RoutedProgram`], borrowing its gates from the
/// [`StagedProgram`] it was routed from.
#[derive(Debug, Clone, PartialEq)]
pub enum RoutedSegment<'a> {
    /// A layer of single-qubit gates, passed through unchanged.
    OneQubit(&'a [(Qubit, OneQubitGate)]),
    /// One Rydberg stage together with its layout-transition plan.
    Stage(RoutedStage<'a>),
}

/// A stage paired with the movement plan that realizes its layout.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedStage<'a> {
    /// The Rydberg stage.
    pub stage: &'a Stage,
    /// The continuous router's movement plan for the stage transition.
    pub routing: StageRouting,
}

/// The output of [`RoutePass`]: the staged program plus, per stage, the
/// direct layout-transition plan computed by the continuous router. The
/// gates stay in the staged program; segments borrow them.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedProgram<'a> {
    num_qubits: u32,
    initial_layout: Layout,
    uses_storage: bool,
    segments: Vec<RoutedSegment<'a>>,
}

impl<'a> RoutedProgram<'a> {
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

    /// Whether the storage zone is in use.
    #[must_use]
    pub const fn uses_storage(&self) -> bool {
        self.uses_storage
    }

    /// The routed segments in program order.
    #[must_use]
    pub fn segments(&self) -> &[RoutedSegment<'a>] {
        &self.segments
    }
}

/// Pass 3: runs the configured [`RoutingStrategy`] over every stage,
/// producing the direct layout transitions (no reversion to an initial
/// layout, Sec. 5).
///
/// This pass is inherently sequential: the strategy threads one mutable
/// [`RoutingState`] through the stage sequence, so each transition depends
/// on the one before it. Parallelism lives in the neighbouring passes
/// instead. Strategies that declare a lookahead window
/// ([`RoutingStrategy::lookahead`]) are handed the next stages of the same
/// commuting CZ block alongside each stage.
#[derive(Clone)]
pub struct RoutePass {
    use_storage: bool,
    strategy: Arc<dyn RoutingStrategy>,
}

impl fmt::Debug for RoutePass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RoutePass")
            .field("use_storage", &self.use_storage)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl RoutePass {
    /// Name under which the pass reports its timing.
    pub const NAME: &'static str = "route";

    /// Creates the pass with the greedy strategy; `use_storage` parks idle
    /// qubits in the storage zone.
    #[must_use]
    pub fn new(use_storage: bool) -> Self {
        RoutePass {
            use_storage,
            strategy: Arc::new(GreedyRouter),
        }
    }

    /// Replaces the routing strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Arc<dyn RoutingStrategy>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Runs the pass.
    ///
    /// # Errors
    ///
    /// Returns [`CompileError::Hardware`] if the machine cannot host the
    /// program, or [`CompileError::NoFreeSite`] if the router runs out of
    /// free sites.
    pub fn run<'a>(
        &self,
        staged: &'a StagedProgram,
        arch: &Architecture,
        ctx: &mut CompileContext,
    ) -> Result<RoutedProgram<'a>, CompileError> {
        ctx.time(Self::NAME, |ctx| {
            let num_qubits = staged.num_qubits();
            // Initial layout: entirely in storage for the with-storage mode
            // (Sec. 4.2), row-major in the computation zone otherwise.
            let initial_zone = if self.use_storage && arch.grid().num_storage_sites() > 0 {
                Zone::Storage
            } else {
                Zone::Compute
            };
            let initial_layout =
                Layout::row_major(arch, num_qubits, initial_zone).map_err(|_| {
                    CompileError::Hardware(
                        powermove_hardware::HardwareError::InsufficientCapacity {
                            qubits: num_qubits,
                            sites: arch.grid().num_sites(),
                        },
                    )
                })?;
            let uses_storage = self.use_storage && initial_zone == Zone::Storage;

            let mut state = RoutingState::new(arch.clone(), initial_layout.clone(), uses_storage);
            let lookahead = self.strategy.lookahead();
            let mut segments = Vec::with_capacity(staged.segments().len());
            for segment in staged.segments() {
                match segment {
                    StagedSegment::OneQubit(gates) => {
                        segments.push(RoutedSegment::OneQubit(gates));
                    }
                    StagedSegment::Stages(stages) => {
                        for (i, stage) in stages.iter().enumerate() {
                            let window_end = (i + 1).saturating_add(lookahead).min(stages.len());
                            let upcoming = &stages[i + 1..window_end];
                            let routing = self.strategy.route_stage(&mut state, stage, upcoming)?;
                            ctx.count("storage_moves", routing.storage_moves.len() as u64);
                            ctx.count("interaction_moves", routing.interaction_moves.len() as u64);
                            segments.push(RoutedSegment::Stage(RoutedStage { stage, routing }));
                        }
                    }
                }
            }
            // Free-site search totals for the whole program: candidates the
            // planner examined and candidates the spatial index pruned.
            let (site_scans, sites_pruned) = state.scan_counters();
            ctx.count(crate::routing::SITE_SCANS, site_scans);
            ctx.count(crate::routing::SITES_PRUNED, sites_pruned);
            Ok(RoutedProgram {
                num_qubits,
                initial_layout,
                uses_storage,
                segments,
            })
        })
    }
}

/// Pass 4: lowers each stage's movement plan into move-group instructions
/// through the configured [`RoutingStrategy::schedule_moves`] — grouping
/// single-qubit moves into AOD-compatible collective moves and packing them
/// onto the available AOD arrays (Sec. 6) — and emits the instruction
/// stream.
///
/// The scheduling of one stage depends only on that stage's routing plan,
/// so the pass fans the routed segments out over the given [`ThreadPool`]
/// and concatenates the per-chunk instruction runs in program order —
/// identical output for every worker count. Each chunk lowers through one
/// [`MoveScratch`] into one instruction buffer, so a stage allocates only
/// the collective moves, move groups and gate list the program keeps.
#[derive(Clone)]
pub struct MovePass {
    use_grouping: bool,
    strategy: Arc<dyn RoutingStrategy>,
}

impl fmt::Debug for MovePass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MovePass")
            .field("use_grouping", &self.use_grouping)
            .field("strategy", &self.strategy.name())
            .finish()
    }
}

impl MovePass {
    /// Name under which the pass reports its timing.
    pub const NAME: &'static str = "moves";

    /// Creates the pass with the greedy strategy; disabling `use_grouping`
    /// emits every single-qubit move as its own collective move (the
    /// grouping-ablation configuration).
    #[must_use]
    pub fn new(use_grouping: bool) -> Self {
        MovePass {
            use_grouping,
            strategy: Arc::new(GreedyRouter),
        }
    }

    /// Replaces the routing strategy whose
    /// [`RoutingStrategy::schedule_moves`] lowers each stage.
    #[must_use]
    pub fn with_strategy(mut self, strategy: Arc<dyn RoutingStrategy>) -> Self {
        self.strategy = strategy;
        self
    }

    /// Runs the pass, emitting the final instruction stream. Independent
    /// routed stages are scheduled concurrently on `pool`.
    #[must_use]
    pub fn run(
        &self,
        routed: &RoutedProgram,
        arch: &Architecture,
        pool: &ThreadPool,
        ctx: &mut CompileContext,
    ) -> Vec<Instruction> {
        // One lowering scratch and one instruction buffer per chunk, so a
        // stage allocates only what the program keeps.
        let runs = par_map_merging(pool, ctx, Self::NAME, routed.segments(), |chunk, worker| {
            let mut scratch = MoveScratch::new();
            let mut out = Vec::new();
            for segment in chunk {
                match segment {
                    RoutedSegment::OneQubit(gates) => {
                        out.push(Instruction::one_qubit_layer(gates.to_vec()));
                    }
                    RoutedSegment::Stage(RoutedStage { stage, routing }) => {
                        // The strategy decides grouping, ordering and AOD
                        // packing; the greedy default realizes the
                        // move-in-first policy of Sec. 6.1 (storage-bound
                        // moves strictly before interactions, so a vacated
                        // site is free before an interaction arrives).
                        let start = out.len();
                        self.strategy.schedule_moves(
                            routing,
                            arch,
                            self.use_grouping,
                            &mut scratch,
                            &mut out,
                        );
                        let coll_moves: usize = out[start..]
                            .iter()
                            .map(|i| match i {
                                Instruction::MoveGroup { coll_moves } => coll_moves.len(),
                                _ => 0,
                            })
                            .sum();
                        worker.count("coll_moves", coll_moves as u64);
                        worker.count("move_groups", (out.len() - start) as u64);
                        out.push(Instruction::rydberg(stage.gates().to_vec()));
                    }
                }
            }
            out
        });
        concat(runs)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{CompilerConfig, PowerMoveCompiler};
    use powermove_exec::Parallelism;

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn pool() -> ThreadPool {
        ThreadPool::new(Parallelism::fixed(2))
    }

    /// An `n`-qubit ring: a Hadamard on every qubit, then a CZ per edge.
    pub(crate) fn ring_circuit(n: u32) -> Circuit {
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
    fn context_accumulates_timings_by_name() {
        let mut ctx = CompileContext::new();
        ctx.time("stage", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        ctx.time("stage", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        ctx.time("route", |_| ());
        assert_eq!(ctx.timings().len(), 2);
        assert!(ctx.timings()[0].seconds >= 0.002);
        let metadata = ctx.finish("powermove", true, 3, 1);
        assert_eq!(metadata.num_stages, 3);
        assert!(metadata.pass_seconds("stage").unwrap() >= 0.002);
        assert!(metadata.compile_time.unwrap() >= metadata.total_pass_seconds());
    }

    #[test]
    fn context_accumulates_counters_by_name() {
        let mut ctx = CompileContext::new();
        ctx.count("stages", 2);
        ctx.count("stages", 3);
        ctx.count("coll_moves", 1);
        let metadata = ctx.finish("x", false, 0, 1);
        assert_eq!(metadata.counter("stages"), Some(5));
        assert_eq!(metadata.counter("coll_moves"), Some(1));
        assert_eq!(metadata.counter("missing"), None);
    }

    #[test]
    fn synthesis_pass_counts_blocks() {
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&ring_circuit(4), &mut ctx);
        assert_eq!(blocks.num_qubits(), 4);
        assert!(ctx.counters().iter().any(|c| c.name == "cz_blocks"));
        assert!(ctx.timings().iter().any(|t| t.pass == SynthesisPass::NAME));
    }

    #[test]
    fn stage_pass_partitions_every_gate() {
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&ring_circuit(6), &mut ctx);
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut ctx);
        let staged_gates: usize = staged
            .segments()
            .iter()
            .map(|s| match s {
                StagedSegment::Stages(stages) => stages.iter().map(Stage::len).sum(),
                StagedSegment::OneQubit(_) => 0,
            })
            .sum();
        assert_eq!(staged_gates, 6);
        assert!(staged.num_stages() >= 2, "a 6-ring needs >= 2 stages");
        assert_eq!(
            ctx.counters()
                .iter()
                .find(|c| c.name == "stages")
                .unwrap()
                .value,
            staged.num_stages() as u64
        );
    }

    #[test]
    fn route_pass_routes_every_stage() {
        let arch = Architecture::for_qubits(6);
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&ring_circuit(6), &mut ctx);
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut ctx);
        let routed = RoutePass::new(true).run(&staged, &arch, &mut ctx).unwrap();
        let routed_stage_count = routed
            .segments()
            .iter()
            .filter(|s| matches!(s, RoutedSegment::Stage(_)))
            .count();
        assert_eq!(routed_stage_count, staged.num_stages());
        assert!(routed.uses_storage());
        for (_, site) in routed.initial_layout().iter() {
            assert_eq!(arch.grid().zone_of(site), Zone::Storage);
        }
    }

    #[test]
    fn route_pass_reports_capacity_errors() {
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&ring_circuit(10), &mut ctx);
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut ctx);
        let tiny = Architecture::for_qubits(10)
            .with_grid(powermove_hardware::ZonedGrid::with_dims(2, 2, 4).unwrap());
        let result = RoutePass::new(true).run(&staged, &tiny, &mut ctx);
        assert!(matches!(result, Err(CompileError::Hardware(_))));
    }

    #[test]
    fn move_pass_emits_rydberg_per_stage() {
        let arch = Architecture::for_qubits(6);
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&ring_circuit(6), &mut ctx);
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut ctx);
        let routed = RoutePass::new(true).run(&staged, &arch, &mut ctx).unwrap();
        let instructions = MovePass::new(true).run(&routed, &arch, &pool(), &mut ctx);
        let rydberg = instructions
            .iter()
            .filter(|i| matches!(i, Instruction::RydbergStage { .. }))
            .count();
        assert_eq!(rydberg, staged.num_stages());
    }

    #[test]
    fn disabling_grouping_yields_singleton_coll_moves() {
        let arch = Architecture::for_qubits(8);
        let circuit = ring_circuit(8);

        let grouped = PowerMoveCompiler::new(CompilerConfig::default())
            .compile(&circuit, &arch)
            .unwrap();
        let ungrouped = PowerMoveCompiler::new(CompilerConfig::default().without_grouping())
            .compile(&circuit, &arch)
            .unwrap();

        // Every collective move in the ablation carries exactly one qubit.
        for cm in ungrouped.coll_moves() {
            assert_eq!(cm.len(), 1);
        }
        // Identical gates either way; at least as many collective moves
        // without grouping.
        assert_eq!(grouped.cz_gate_count(), ungrouped.cz_gate_count());
        assert!(ungrouped.coll_move_count() >= grouped.coll_move_count());
        assert!(powermove_schedule::validate(&ungrouped).is_ok());
    }

    #[test]
    fn backend_trait_compiles_blocks_and_circuits() {
        let arch = Architecture::for_qubits(4);
        let compiler = PowerMoveCompiler::new(CompilerConfig::default());
        let backend: &dyn CompilerBackend = &compiler;
        assert_eq!(backend.name(), "powermove");
        assert!(backend.config_description().contains("storage"));

        let mut circuit = Circuit::new(4);
        circuit.cz(q(0), q(1)).unwrap();
        circuit.cz(q(2), q(3)).unwrap();
        let via_circuit = backend.compile_circuit(&circuit, &arch).unwrap();
        let via_blocks = backend
            .compile(&BlockProgram::from_circuit(&circuit), &arch)
            .unwrap();
        assert_eq!(via_circuit.cz_gate_count(), 2);
        assert_eq!(via_circuit.cz_gate_count(), via_blocks.cz_gate_count());
        // The circuit entry point also times synthesis.
        assert!(via_circuit
            .metadata()
            .pass_seconds(SynthesisPass::NAME)
            .is_some());
    }

    #[test]
    fn pipeline_metadata_reports_every_pass() {
        let arch = Architecture::for_qubits(8);
        let program = PowerMoveCompiler::new(CompilerConfig::default())
            .compile(&ring_circuit(8), &arch)
            .unwrap();
        let metadata = program.metadata();
        for pass in [
            SynthesisPass::NAME,
            StagePass::NAME,
            RoutePass::NAME,
            MovePass::NAME,
        ] {
            assert!(
                metadata.pass_seconds(pass).is_some(),
                "missing pass timing {pass}"
            );
        }
        assert!(metadata.counter("stages").unwrap() >= 2);
        assert!(metadata.counter("coll_moves").unwrap() > 0);
        assert!(metadata.compile_time.is_some());
    }

    #[test]
    fn merge_folds_timings_and_counters_by_name() {
        let mut main = CompileContext::new();
        main.count("stages", 2);
        main.time("stage", |_| ());

        let mut worker_a = CompileContext::scratch();
        worker_a.count("stages", 3);
        worker_a.time("stage", |_| {
            std::thread::sleep(std::time::Duration::from_millis(1))
        });
        let mut worker_b = CompileContext::scratch();
        worker_b.count("coll_moves", 7);
        worker_b.time("moves", |_| ());

        main.merge(worker_a);
        main.merge(worker_b);

        let metadata = main.finish("x", false, 0, 1);
        assert_eq!(metadata.counter("stages"), Some(5));
        assert_eq!(metadata.counter("coll_moves"), Some(7));
        assert!(metadata.pass_seconds("stage").unwrap() >= 0.001);
        assert!(metadata.pass_seconds("moves").is_some());
        // finish() lays the timings out in canonical pipeline order.
        assert_eq!(metadata.pass_timings[0].pass, "stage");
        assert_eq!(metadata.pass_timings[1].pass, "moves");
    }

    #[test]
    fn finish_sorts_pass_timings_canonically() {
        // Record in scrambled order, as racing workers merged in completion
        // order would; the metadata layout must not depend on it.
        let mut ctx = CompileContext::new();
        for pass in [
            "zeta_extra",
            "moves",
            "route",
            "alpha_extra",
            "stage",
            "synthesis",
        ] {
            ctx.time(pass, |_| ());
        }
        let metadata = ctx.finish("x", false, 0, 1);
        let order: Vec<&str> = metadata
            .pass_timings
            .iter()
            .map(|t| t.pass.as_str())
            .collect();
        assert_eq!(
            order,
            vec![
                "synthesis",
                "stage",
                "route",
                "moves",
                "alpha_extra",
                "zeta_extra"
            ]
        );
    }

    #[test]
    fn stage_then_emit_matches_monolithic_compile() {
        use powermove_schedule::canonical_program_bytes;
        let mut circuit = Circuit::new(6);
        for i in 0..6_u32 {
            circuit.cz(Qubit::new(i), Qubit::new((i + 1) % 6)).unwrap();
        }
        let compiler = PowerMoveCompiler::new(CompilerConfig::default());
        let arch = Architecture::for_qubits(6).with_num_aods(2);
        let monolithic = compiler.compile(&circuit, &arch).unwrap();
        let ir = compiler.stage(&circuit);
        let split = compiler.emit(&ir, &arch).unwrap();
        assert_eq!(
            canonical_program_bytes(&split),
            canonical_program_bytes(&monolithic),
            "the stage/emit split must not change the emitted program"
        );
        // Front-end records survive into the emitted metadata.
        assert_eq!(
            split.metadata().counter("cz_blocks"),
            monolithic.metadata().counter("cz_blocks")
        );
    }

    #[test]
    fn scratch_context_has_no_end_to_end_clock() {
        let ctx = CompileContext::scratch();
        let metadata = ctx.finish("x", false, 0, 1);
        assert!(metadata.compile_time.is_none());
    }

    #[test]
    fn selected_strategy_survives_merge_and_finish() {
        let mut ctx = CompileContext::new();
        assert_eq!(ctx.selected_strategy(), None);
        ctx.select_strategy("multi-aod");
        assert_eq!(ctx.selected_strategy(), Some("multi-aod"));
        // A merged scratch never overwrites an existing selection …
        let mut scratch = CompileContext::scratch();
        scratch.select_strategy("greedy");
        ctx.merge(scratch);
        assert_eq!(ctx.selected_strategy(), Some("multi-aod"));
        // … but fills an empty one.
        let mut fresh = CompileContext::new();
        let mut scratch = CompileContext::scratch();
        scratch.select_strategy("lookahead");
        fresh.merge(scratch);
        assert_eq!(fresh.selected_strategy(), Some("lookahead"));
        let metadata = ctx.finish("powermove", true, 0, 1);
        assert_eq!(metadata.selected_strategy.as_deref(), Some("multi-aod"));
    }

    #[test]
    fn stage_pass_output_is_identical_across_worker_counts() {
        let blocks = BlockProgram::from_circuit(&ring_circuit(12));
        let mut ctx1 = CompileContext::new();
        let mut ctx8 = CompileContext::new();
        let sequential =
            StagePass::new(0.5).run(&blocks, &ThreadPool::new(Parallelism::fixed(1)), &mut ctx1);
        let parallel =
            StagePass::new(0.5).run(&blocks, &ThreadPool::new(Parallelism::fixed(8)), &mut ctx8);
        assert_eq!(sequential, parallel);
        // The merged counters match too — only timings may differ.
        assert_eq!(
            ctx1.counters()
                .iter()
                .find(|c| c.name == "stages")
                .map(|c| c.value),
            ctx8.counters()
                .iter()
                .find(|c| c.name == "stages")
                .map(|c| c.value)
        );
    }

    #[test]
    fn move_pass_output_is_identical_across_worker_counts() {
        let arch = Architecture::for_qubits(12);
        let mut ctx = CompileContext::new();
        let blocks = SynthesisPass.run(&ring_circuit(12), &mut ctx);
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut ctx);
        let routed = RoutePass::new(true).run(&staged, &arch, &mut ctx).unwrap();
        let sequential = MovePass::new(true).run(
            &routed,
            &arch,
            &ThreadPool::new(Parallelism::fixed(1)),
            &mut CompileContext::new(),
        );
        let parallel = MovePass::new(true).run(
            &routed,
            &arch,
            &ThreadPool::new(Parallelism::fixed(8)),
            &mut CompileContext::new(),
        );
        assert_eq!(sequential, parallel);
    }

    #[test]
    fn stage_and_move_pass_counters_are_identical_across_worker_counts() {
        // QFT-64 lowers thousands of one-gate stages, so every worker count
        // above one splits both fan-outs into many chunks; the merged
        // counters, and the order they were first recorded in, must not see
        // the split.
        let arch = Architecture::for_qubits(64);
        let blocks = BlockProgram::from_circuit(&powermove_benchmarks::qft(64));
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut CompileContext::new());
        let routed = RoutePass::new(true)
            .run(&staged, &arch, &mut CompileContext::new())
            .unwrap();
        let lower_at = |threads: usize| {
            let pool = ThreadPool::new(Parallelism::fixed(threads));
            let mut ctx = CompileContext::new();
            let restaged = StagePass::new(0.5).run(&blocks, &pool, &mut ctx);
            assert_eq!(restaged, staged, "staging changed at {threads} workers");
            let instructions = MovePass::new(true).run(&routed, &arch, &pool, &mut ctx);
            let timed: Vec<String> = ctx.timings().iter().map(|t| t.pass.clone()).collect();
            assert_eq!(timed, [StagePass::NAME, MovePass::NAME]);
            (instructions, ctx.counters().to_vec())
        };
        let sequential = lower_at(1);
        let names: Vec<&str> = sequential.1.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, ["stages", "coll_moves", "move_groups"]);
        for threads in [2, 3, 8] {
            assert_eq!(lower_at(threads), sequential, "{threads} workers");
        }
    }

    #[test]
    fn parallel_passes_still_record_their_timing_for_empty_programs() {
        let mut ctx = CompileContext::new();
        let blocks = BlockProgram::from_circuit(&Circuit::new(3));
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut ctx);
        assert_eq!(staged.num_stages(), 0);
        assert!(ctx.timings().iter().any(|t| t.pass == StagePass::NAME));
    }

    #[test]
    fn staged_program_reports_stage_totals() {
        let mut ctx = CompileContext::new();
        let mut circuit = Circuit::new(3);
        circuit.cz(q(0), q(1)).unwrap();
        circuit.cz(q(1), q(2)).unwrap();
        let blocks = SynthesisPass.run(&circuit, &mut ctx);
        let staged = StagePass::new(0.5).run(&blocks, &pool(), &mut ctx);
        assert_eq!(staged.num_qubits(), 3);
        assert_eq!(staged.num_stages(), 2);
    }
}
