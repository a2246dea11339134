//! Shared experiment-runner utilities.
//!
//! Compilers are driven through the open [`BackendRegistry`]: every
//! registered [`CompilerBackend`] trait object is compiled, validated and
//! scored by exactly the same code path, so new strategies (ablations,
//! alternative routers, external baselines) appear in every table and figure
//! without touching the harness.
//!
//! The harness is the second parallel layer of the workspace (the compile
//! pipeline itself is the first): [`run_all`], [`run_matrix`] and
//! [`table3_rows`] fan the backend × suite matrix out over a
//! [`ThreadPool`] sized by `POWERMOVE_THREADS` (default: available cores),
//! with results always returned in deterministic (instance-major,
//! registration-order) order. Backends compile through `&self` from several
//! workers at once — which is why [`CompilerBackend`] requires
//! `Send + Sync`.
//!
//! Caveat on wall clocks: a cell's `compile_time_s` is measured while other
//! matrix cells compete for the same cores, so parallel-run compile times
//! (and Table 3's compile-time improvement ratios) include scheduling
//! contention. Fidelity, execution time and schedule-shape metrics are
//! unaffected (compilation is deterministic). For paper-grade compile-time
//! numbers, run with `POWERMOVE_THREADS=1`; the `bench-gate` tolerances
//! absorb the contention noise instead (generous slack + absolute floor).

use crate::stats::SampleStats;
use enola_baseline::{EnolaCompiler, EnolaConfig};
use powermove::{CompilerBackend, CompilerConfig, PowerMoveCompiler, RoutingConfig};
use powermove_benchmarks::{generate, table2_suite, BenchmarkFamily, BenchmarkInstance};
use powermove_exec::ThreadPool;
use powermove_fidelity::{evaluate_program, FidelityBreakdown};
use powermove_hardware::{Architecture, PhysicalParams, ZonedGrid};
use powermove_schedule::PassTiming;
use serde::Serialize;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Seed used by every experiment binary, making the reported numbers
/// reproducible run to run.
pub const DEFAULT_SEED: u64 = 20250;

/// Registry id of the Enola baseline configuration.
pub const ENOLA: &str = "enola";
/// Registry id of the PowerMove non-storage configuration.
pub const POWERMOVE_NON_STORAGE: &str = "powermove-non-storage";
/// Registry id of the PowerMove with-storage configuration.
pub const POWERMOVE_STORAGE: &str = "powermove-storage";
/// Registry id of the with-storage configuration driven by the multi-AOD
/// collective-move scheduler (duration-balanced per-AOD windows).
pub const POWERMOVE_MULTI_AOD: &str = "powermove-multi-aod";
/// Registry id of the with-storage configuration driven by the lookahead
/// router with a two-stage window.
pub const POWERMOVE_LOOKAHEAD: &str = "powermove@lookahead2";
/// Registry id of the with-storage configuration driven by the routing
/// auto-tuner in portfolio mode: every candidate strategy compiles each
/// instance and the schedule with the lower movement wall clock wins, so
/// this variant can never move slower than any portfolio member.
pub const POWERMOVE_AUTO: &str = "powermove-auto";

/// One registered compilation strategy: a display id plus the backend.
pub struct RegisteredBackend {
    id: String,
    backend: Box<dyn CompilerBackend>,
}

impl RegisteredBackend {
    /// The id under which the backend was registered, e.g.
    /// `"powermove-storage"`.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The backend itself.
    #[must_use]
    pub fn backend(&self) -> &dyn CompilerBackend {
        &*self.backend
    }
}

/// An ordered, open collection of compiler backends.
///
/// The experiment binaries iterate over whatever is registered — there is no
/// closed enum of compilers anywhere in the harness.
///
/// # Example
///
/// Registering a custom backend next to the standard three:
///
/// ```
/// use powermove::{CompilerConfig, PowerMoveCompiler};
/// use powermove_bench::BackendRegistry;
///
/// let mut registry = BackendRegistry::standard();
/// registry.register(
///     "powermove-no-grouping",
///     Box::new(PowerMoveCompiler::new(
///         CompilerConfig::default().without_grouping(),
///     )),
/// );
/// assert_eq!(registry.len(), 4);
/// assert!(registry.get("powermove-no-grouping").is_some());
///
/// // Every registered backend is driven identically.
/// let instance = powermove_benchmarks::generate(
///     powermove_benchmarks::BenchmarkFamily::Bv,
///     8,
///     powermove_bench::DEFAULT_SEED,
/// );
/// for entry in registry.iter() {
///     let result = powermove_bench::run_instance(&instance, 1, entry);
///     assert!(result.fidelity > 0.0);
/// }
/// ```
#[derive(Default)]
pub struct BackendRegistry {
    entries: Vec<RegisteredBackend>,
}

impl BackendRegistry {
    /// Creates an empty registry.
    #[must_use]
    pub fn new() -> Self {
        BackendRegistry::default()
    }

    /// The three evaluation configurations of the paper, in Table 3 column
    /// order: [`ENOLA`], [`POWERMOVE_NON_STORAGE`], [`POWERMOVE_STORAGE`].
    ///
    /// Every backend pins its compile-side fan-out to one worker
    /// (`with_threads(1)` — PowerMove's pass pipeline and Enola's MIS stage
    /// extraction alike): the harness matrix is already fanned out over
    /// the `POWERMOVE_THREADS` pool, and nesting an N-worker pipeline pool
    /// inside each of N matrix workers would oversubscribe the machine
    /// quadratically. Single-threaded compiles also keep the sampled
    /// compile wall clocks comparable across machines with different core
    /// counts. Compiled programs are byte-identical either way; for
    /// single-instance workloads that want pipeline-level parallelism,
    /// register a backend configured with
    /// [`CompilerConfig::with_threads`](powermove::CompilerConfig::with_threads)
    /// or [`EnolaConfig::with_threads`](enola_baseline::EnolaConfig::with_threads).
    #[must_use]
    pub fn standard() -> Self {
        let mut registry = BackendRegistry::new();
        registry.register(
            ENOLA,
            Box::new(EnolaCompiler::new(EnolaConfig::default().with_threads(1))),
        );
        registry.register(
            POWERMOVE_NON_STORAGE,
            Box::new(PowerMoveCompiler::new(
                CompilerConfig::without_storage().with_threads(1),
            )),
        );
        registry.register(
            POWERMOVE_STORAGE,
            Box::new(PowerMoveCompiler::new(
                CompilerConfig::default().with_threads(1),
            )),
        );
        registry
    }

    /// Adds the routing-strategy variants of the with-storage configuration:
    /// [`POWERMOVE_MULTI_AOD`] (the multi-AOD collective-move scheduler),
    /// [`POWERMOVE_LOOKAHEAD`] (the two-stage lookahead router) and
    /// [`POWERMOVE_AUTO`] (the portfolio auto-tuner; gated with the greedy
    /// router and the scheduler on the `fig7/multi-aod` group). Like the
    /// standard backends, all pin their pipelines to one worker.
    ///
    /// Ids follow the usual [`BackendRegistry::register`] uniqueness
    /// semantics: a user-registered backend under one of the variant ids is
    /// displaced by the variant (never silently kept alongside it), and the
    /// displacement is logged to stderr so the collision is visible.
    ///
    /// ```
    /// use powermove_bench::{BackendRegistry, POWERMOVE_AUTO, POWERMOVE_MULTI_AOD};
    ///
    /// let registry = BackendRegistry::standard().with_routing_variants();
    /// assert_eq!(registry.len(), 6);
    /// assert!(registry.get(POWERMOVE_MULTI_AOD).is_some());
    /// assert!(registry.get(POWERMOVE_AUTO).is_some());
    /// ```
    #[must_use]
    pub fn with_routing_variants(mut self) -> Self {
        let variants: [(&str, RoutingConfig); 3] = [
            (POWERMOVE_MULTI_AOD, RoutingConfig::multi_aod()),
            (POWERMOVE_LOOKAHEAD, RoutingConfig::lookahead(2)),
            (POWERMOVE_AUTO, RoutingConfig::auto()),
        ];
        for (id, routing) in variants {
            let displaced = self.register(
                id,
                Box::new(PowerMoveCompiler::new(
                    CompilerConfig::default()
                        .with_threads(1)
                        .with_routing(routing),
                )),
            );
            if let Some(displaced) = displaced {
                eprintln!(
                    "powermove-bench: with_routing_variants displaced backend {:?} \
                     previously registered under {id:?}",
                    displaced.name()
                );
            }
        }
        self
    }

    /// Registers a backend under `id`.
    ///
    /// Ids are unique: registering an id that is already present **replaces**
    /// the old entry, and the displaced backend is returned so callers can
    /// detect — or chain onto — the collision. The replacement is appended
    /// at the end of the iteration order, like a fresh registration (the old
    /// entry's position is not preserved). Registering a fresh id returns
    /// `None`.
    ///
    /// ```
    /// use powermove::{CompilerConfig, PowerMoveCompiler};
    /// use powermove_bench::{BackendRegistry, ENOLA};
    ///
    /// let mut registry = BackendRegistry::standard();
    /// let displaced = registry.register(
    ///     ENOLA,
    ///     Box::new(PowerMoveCompiler::new(CompilerConfig::default())),
    /// );
    /// assert_eq!(displaced.unwrap().name(), "enola");
    /// assert_eq!(registry.len(), 3); // still three entries, no duplicates
    /// assert!(registry
    ///     .register("brand-new", Box::new(PowerMoveCompiler::default()))
    ///     .is_none());
    /// ```
    pub fn register(
        &mut self,
        id: impl Into<String>,
        backend: Box<dyn CompilerBackend>,
    ) -> Option<Box<dyn CompilerBackend>> {
        let id = id.into();
        let displaced = self
            .entries
            .iter()
            .position(|e| e.id == id)
            .map(|index| self.entries.remove(index).backend);
        self.entries.push(RegisteredBackend { id, backend });
        displaced
    }

    /// Looks up a registered entry by id.
    #[must_use]
    pub fn entry(&self, id: &str) -> Option<&RegisteredBackend> {
        self.entries.iter().find(|e| e.id == id)
    }

    /// Looks up a backend by id.
    #[must_use]
    pub fn get(&self, id: &str) -> Option<&dyn CompilerBackend> {
        self.entry(id).map(RegisteredBackend::backend)
    }

    /// Iterates over the registered backends in registration order.
    pub fn iter(&self) -> impl Iterator<Item = &RegisteredBackend> {
        self.entries.iter()
    }

    /// Number of registered backends.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the registry is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// The outcome of compiling and scoring one benchmark instance with one
/// registered backend.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RunResult {
    /// Registry id of the backend, e.g. `"powermove-storage"`.
    pub compiler: String,
    /// Benchmark name, e.g. `"QAOA-regular3-30"`.
    pub benchmark: String,
    /// Circuit width.
    pub num_qubits: u32,
    /// Number of AOD arrays the schedule was packed for (from
    /// `CompileMetadata::num_aods`), so reports record the count that drove
    /// multi-AOD packing.
    pub num_aods: usize,
    /// Output fidelity excluding the 1Q factor (the paper's convention).
    pub fidelity: f64,
    /// Per-factor fidelity breakdown.
    pub breakdown: FidelityBreakdown,
    /// Execution time in microseconds.
    pub execution_time_us: f64,
    /// Total movement wall clock (translations plus transfers) in
    /// microseconds — the slice of the execution time multi-AOD scheduling
    /// compresses.
    pub movement_time_us: f64,
    /// Compilation wall-clock time in seconds: the **median** of
    /// [`RunResult::compile_time_samples`].
    pub compile_time_s: f64,
    /// Every sampled compilation wall clock (one per repeat run; a single
    /// entry when the cell ran once). Deterministic metrics are taken from
    /// the first run — re-compiling cannot change them.
    pub compile_time_samples: Vec<f64>,
    /// Per-pass compilation timings reported by the backend (first run).
    pub pass_timings: Vec<PassTiming>,
    /// Number of Rydberg stages.
    pub stages: usize,
    /// Number of SLM↔AOD transfers.
    pub transfers: usize,
    /// Total excitation exposure (Σ n_i).
    pub excitation_exposure: usize,
    /// Number of CZ gates.
    pub cz_gates: usize,
}

/// Compiles one benchmark instance with the given registered backend and
/// number of AOD arrays, then validates and scores the program.
///
/// # Panics
///
/// Panics if compilation or validation fails; the experiment binaries treat
/// that as a reproduction bug worth failing loudly on.
#[must_use]
pub fn run_instance(
    instance: &BenchmarkInstance,
    num_aods: usize,
    entry: &RegisteredBackend,
) -> RunResult {
    run_instance_sampled(instance, num_aods, entry, 1)
}

/// Like [`run_instance`], but compiles the instance `repeats` times (at
/// least once) and records every compilation wall clock in
/// [`RunResult::compile_time_samples`], with [`RunResult::compile_time_s`]
/// set to their median. Deterministic metrics (fidelity, execution time,
/// schedule shape) come from the first run: re-compiling cannot change them,
/// so only the wall clock is worth sampling.
///
/// # Panics
///
/// Panics if compilation or validation fails (see [`run_instance`]).
#[must_use]
pub fn run_instance_sampled(
    instance: &BenchmarkInstance,
    num_aods: usize,
    entry: &RegisteredBackend,
    repeats: usize,
) -> RunResult {
    let arch = Architecture::for_qubits(instance.num_qubits).with_num_aods(num_aods);
    run_on_architecture(instance, &arch, entry, repeats)
}

/// Like [`run_instance_sampled`], but compiles against an explicit
/// [`Architecture`] instead of deriving the paper's default machine from the
/// qubit count — the entry point for heterogeneous-architecture cells
/// ([`ShardCell::architecture`], the schedule-lint corpus campaign).
///
/// # Panics
///
/// Panics if compilation or validation fails (see [`run_instance`]).
#[must_use]
fn run_on_architecture(
    instance: &BenchmarkInstance,
    arch: &Architecture,
    entry: &RegisteredBackend,
    repeats: usize,
) -> RunResult {
    let mut samples = Vec::with_capacity(repeats.max(1));
    let mut first_program = None;
    for _ in 0..repeats.max(1) {
        let start = std::time::Instant::now();
        let program = entry
            .backend()
            .compile_circuit(&instance.circuit, arch)
            .unwrap_or_else(|e| {
                panic!(
                    "{} compilation failed on {}: {e}",
                    entry.id(),
                    instance.name
                )
            });
        let measured = start.elapsed().as_secs_f64();
        // Prefer the backend's own compile clock (it excludes harness
        // overhead); fall back to the measured wall clock.
        samples.push(program.metadata().compile_time.unwrap_or(measured));
        first_program.get_or_insert(program);
    }
    score_program_sampled(
        entry.id(),
        instance,
        &first_program.expect("at least one compile ran"),
        samples,
    )
}

/// Validates and scores an already-compiled program against a set of
/// repeat-run compile-time samples (see [`run_instance_sampled`]).
///
/// # Panics
///
/// Panics if validation fails (see [`run_instance`]) or if
/// `compile_time_samples` is empty.
#[must_use]
pub fn score_program_sampled(
    compiler_id: &str,
    instance: &BenchmarkInstance,
    program: &powermove_schedule::CompiledProgram,
    compile_time_samples: Vec<f64>,
) -> RunResult {
    let metadata = program.metadata().clone();
    let report = evaluate_program(program).expect("compiled program is valid");
    let compile_time_s = SampleStats::from_samples(compile_time_samples.clone()).median();
    RunResult {
        compiler: compiler_id.to_string(),
        benchmark: instance.name.clone(),
        num_qubits: instance.num_qubits,
        num_aods: metadata.num_aods,
        fidelity: report.fidelity_excluding_one_qubit(),
        breakdown: report.breakdown,
        execution_time_us: report.execution_time_us(),
        movement_time_us: report.trace.movement_time * 1e6,
        compile_time_s,
        compile_time_samples,
        pass_timings: metadata.pass_timings,
        stages: report.trace.rydberg_stage_count,
        transfers: report.trace.transfer_count,
        excitation_exposure: report.trace.excitation_exposure,
        cz_gates: report.trace.cz_gate_count,
    }
}

/// Runs every backend of the registry on one benchmark instance.
///
/// Backends run concurrently on a pool sized by `POWERMOVE_THREADS`
/// (default: available cores); results come back in registration order
/// regardless of completion order.
///
/// # Panics
///
/// Panics if compilation or validation fails (see [`run_instance`]).
#[must_use]
pub fn run_all(
    instance: &BenchmarkInstance,
    num_aods: usize,
    registry: &BackendRegistry,
) -> Vec<RunResult> {
    let entries: Vec<&RegisteredBackend> = registry.iter().collect();
    ThreadPool::from_env().par_map(entries, |entry| run_instance(instance, num_aods, entry))
}

/// Runs the full backend × suite matrix: every registered backend on every
/// benchmark instance, fanned out over a pool sized by `POWERMOVE_THREADS`.
///
/// Results are returned in deterministic instance-major order (all backends
/// of `instances[0]` in registration order, then `instances[1]`, ...), so
/// the output is independent of scheduling. This is the entry point behind
/// the table/figure binaries and the `bench-gate` CI gate.
///
/// # Panics
///
/// Panics if compilation or validation fails (see [`run_instance`]).
#[must_use]
pub fn run_matrix(
    instances: &[BenchmarkInstance],
    num_aods: usize,
    registry: &BackendRegistry,
) -> Vec<RunResult> {
    run_matrix_sampled(instances, num_aods, registry, 1)
}

/// [`run_matrix`] with `repeats` compile-time samples per cell (see
/// [`run_instance_sampled`]).
///
/// # Panics
///
/// Panics if compilation or validation fails (see [`run_instance`]).
#[must_use]
fn run_matrix_sampled(
    instances: &[BenchmarkInstance],
    num_aods: usize,
    registry: &BackendRegistry,
    repeats: usize,
) -> Vec<RunResult> {
    let jobs: Vec<(&BenchmarkInstance, &RegisteredBackend)> = instances
        .iter()
        .flat_map(|instance| registry.iter().map(move |entry| (instance, entry)))
        .collect();
    ThreadPool::from_env().par_map(jobs, |(instance, entry)| {
        run_instance_sampled(instance, num_aods, entry, repeats)
    })
}

/// The qubit sweeps of Fig. 6(a)–(e), the single source of truth shared by
/// the `fig6` binary and the `fig6/sweep` gate group.
#[must_use]
pub fn fig6_sweeps() -> Vec<(BenchmarkFamily, Vec<u32>)> {
    vec![
        (BenchmarkFamily::QaoaRegular3, vec![20, 40, 60, 80, 100]),
        (BenchmarkFamily::QsimRand, vec![10, 20, 40, 60, 80]),
        (BenchmarkFamily::Qft, vec![20, 30, 40, 50, 60]),
        (BenchmarkFamily::Vqe, vec![10, 20, 30, 40, 50]),
        (BenchmarkFamily::Bv, vec![20, 30, 40, 50, 60, 70]),
    ]
}

/// The five benchmark instances of Fig. 7, the single source of truth shared
/// by the `fig7` binary and the `fig7/multi-aod` gate group.
#[must_use]
pub fn fig7_cases() -> [(BenchmarkFamily, u32); 5] {
    [
        (BenchmarkFamily::QaoaRegular3, 100),
        (BenchmarkFamily::QsimRand, 20),
        (BenchmarkFamily::Qft, 18),
        (BenchmarkFamily::Vqe, 50),
        (BenchmarkFamily::Bv, 70),
    ]
}

/// The compile-request mix driven through the compile service by its smoke
/// test and the `powermove_client` example: the Fig. 7 families at reduced
/// widths, so a hundred-request burst (with repeats for cache hits) stays
/// fast enough for CI while still exercising every benchmark generator.
#[must_use]
pub fn service_smoke_cells() -> [(BenchmarkFamily, u32); 5] {
    [
        (BenchmarkFamily::QaoaRegular3, 20),
        (BenchmarkFamily::QsimRand, 12),
        (BenchmarkFamily::Qft, 10),
        (BenchmarkFamily::Vqe, 16),
        (BenchmarkFamily::Bv, 20),
    ]
}

/// The heterogeneous-architecture grid of the `lint/corpus` gate group: three
/// stress geometries ([`ArchVariant::Wide`], [`ArchVariant::DeepStorage`],
/// [`ArchVariant::SlowTransfer`]) × three benchmark families at 2–4 AOD
/// arrays. The single source of truth shared by the group registry, the
/// `schedule-lint` campaign and the group-cover workspace test. Cell names
/// carry both an `@aods<k>` and an `@arch:<variant>` suffix so every cell
/// keys uniquely in the baseline.
#[must_use]
pub fn lint_corpus_cells(seed: u64) -> Vec<ShardCell> {
    let cases: [(BenchmarkFamily, u32, usize); 3] = [
        (BenchmarkFamily::QaoaRegular3, 16, 2),
        (BenchmarkFamily::Qft, 12, 3),
        (BenchmarkFamily::Bv, 16, 4),
    ];
    let variants = [
        ArchVariant::Wide,
        ArchVariant::DeepStorage,
        ArchVariant::SlowTransfer,
    ];
    variants
        .into_iter()
        .flat_map(|variant| {
            cases.into_iter().map(move |(family, n, aods)| {
                let mut instance = generate(family, n, seed);
                instance.name = format!("{}@aods{aods}@arch:{}", instance.name, variant.name());
                ShardCell::new(instance, aods).with_arch(variant)
            })
        })
        .collect()
}

/// A named hardware-architecture variant for heterogeneous-architecture
/// cells: the paper's default machine plus three stress geometries the
/// `lint/corpus` gate group and the schedule-lint campaign sweep so invariants
/// are exercised off the default `ceil(sqrt(n))` square.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArchVariant {
    /// The paper's default machine ([`Architecture::for_qubits`]).
    Standard,
    /// Twice the columns, square compute zone, shallow storage — wide rows
    /// stress lateral packing and the free-site index's column sweep.
    Wide,
    /// A deep storage zone (4× rows) behind a doubled zone gap — long
    /// storage↔compute hauls stress retrieval ordering and move batching.
    DeepStorage,
    /// Default geometry with 2× transfer duration and halved maximum
    /// acceleration — slow physics shifts the movement/transfer trade-off
    /// the auto-tuner and the multi-AOD scheduler optimize over.
    SlowTransfer,
}

impl ArchVariant {
    /// Every variant, in canonical sweep order.
    pub const ALL: [ArchVariant; 4] = [
        ArchVariant::Standard,
        ArchVariant::Wide,
        ArchVariant::DeepStorage,
        ArchVariant::SlowTransfer,
    ];

    /// The stable name used in cell labels (`@arch:<name>`) and reproducer
    /// config files.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ArchVariant::Standard => "standard",
            ArchVariant::Wide => "wide",
            ArchVariant::DeepStorage => "deep-storage",
            ArchVariant::SlowTransfer => "slow-transfer",
        }
    }

    /// Parses a variant from its [`ArchVariant::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<ArchVariant> {
        ArchVariant::ALL.into_iter().find(|v| v.name() == name)
    }

    /// Builds the variant's architecture for an `n`-qubit program with one
    /// AOD array (compose with [`Architecture::with_num_aods`]). Every
    /// variant keeps both zones large enough for `n` qubits, so
    /// [`Architecture::check_capacity`] holds by construction.
    ///
    /// # Panics
    ///
    /// Panics if `num_qubits` is zero (same contract as
    /// [`Architecture::for_qubits`]).
    #[must_use]
    pub fn architecture_for(self, num_qubits: u32) -> Architecture {
        let base = Architecture::for_qubits(num_qubits);
        let side = f64::from(num_qubits).sqrt().ceil() as u32;
        match self {
            ArchVariant::Standard => base,
            ArchVariant::Wide => base.with_grid(
                ZonedGrid::with_dims(2 * side, side, side)
                    .expect("wide dims are non-zero for any qubit count"),
            ),
            ArchVariant::DeepStorage => base.with_grid(
                ZonedGrid::with_dims(side, side, 4 * side)
                    .expect("deep-storage dims are non-zero for any qubit count")
                    .with_zone_gap(60e-6),
            ),
            ArchVariant::SlowTransfer => {
                let defaults = PhysicalParams::default();
                base.with_params(PhysicalParams {
                    transfer_duration: 2.0 * defaults.transfer_duration,
                    max_acceleration: 0.5 * defaults.max_acceleration,
                    ..defaults
                })
            }
        }
    }
}

/// One cell row of a gate group: a benchmark instance plus the AOD-array count it
/// is compiled for.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardCell {
    /// The benchmark instance. Multi-AOD cells carry an `@aods<k>` suffix in
    /// the instance name so every cell keys uniquely in the baseline.
    pub instance: BenchmarkInstance,
    /// Number of AOD arrays the cell is compiled for.
    pub num_aods: usize,
    /// Hardware variant the cell compiles against. Non-standard cells carry
    /// an `@arch:<name>` suffix in the instance name so they key uniquely in
    /// the baseline.
    pub arch: ArchVariant,
}

impl ShardCell {
    /// A cell on the paper's default architecture.
    #[must_use]
    pub fn new(instance: BenchmarkInstance, num_aods: usize) -> Self {
        ShardCell {
            instance,
            num_aods,
            arch: ArchVariant::Standard,
        }
    }

    /// Replaces the cell's hardware variant.
    #[must_use]
    fn with_arch(mut self, arch: ArchVariant) -> Self {
        self.arch = arch;
        self
    }

    /// The concrete architecture the cell compiles against: the variant's
    /// geometry/physics at the cell's AOD count.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        self.arch
            .architecture_for(self.instance.num_qubits)
            .with_num_aods(self.num_aods)
    }
}

/// A named slice of the benchmark matrix: a set of instance × AOD cells plus
/// the registry ids of the backends gated on them.
///
/// A group exists to label cells that share a backend list; the standard
/// groups ([`ShardRegistry::standard`]) form a disjoint exact cover of the
/// gated suite, and `bench-gate` runs them all in one run.
#[derive(Debug, Clone, PartialEq)]
pub struct SuiteShard {
    name: String,
    backends: Vec<String>,
    cells: Vec<ShardCell>,
}

impl SuiteShard {
    /// Creates a group from its parts.
    #[must_use]
    pub fn new(name: impl Into<String>, backends: Vec<String>, cells: Vec<ShardCell>) -> Self {
        SuiteShard {
            name: name.into(),
            backends,
            cells,
        }
    }

    /// The group label, e.g. `"table2"`.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Registry ids of the backends gated on this group.
    #[must_use]
    pub fn backends(&self) -> &[String] {
        &self.backends
    }

    /// The instance × AOD cells of the group, in matrix order.
    #[must_use]
    pub fn cells(&self) -> &[ShardCell] {
        &self.cells
    }

    /// The `(compiler, benchmark)` ids of every gated cell, in run order
    /// (instance-major, then backend order).
    #[must_use]
    pub fn cell_ids(&self) -> Vec<(String, String)> {
        self.cells
            .iter()
            .flat_map(|cell| {
                self.backends
                    .iter()
                    .map(move |backend| (backend.clone(), cell.instance.name.clone()))
            })
            .collect()
    }

    /// Whether the group gates the given `(compiler, benchmark)` cell.
    #[must_use]
    pub fn contains_cell(&self, compiler: &str, benchmark: &str) -> bool {
        self.backends.iter().any(|b| b == compiler)
            && self.cells.iter().any(|c| c.instance.name == benchmark)
    }

    /// A copy of the group restricted to instances whose name contains
    /// `filter` (an empty filter keeps everything).
    #[must_use]
    pub fn filtered(&self, filter: &str) -> SuiteShard {
        SuiteShard {
            name: self.name.clone(),
            backends: self.backends.clone(),
            cells: self
                .cells
                .iter()
                .filter(|c| filter.is_empty() || c.instance.name.contains(filter))
                .cloned()
                .collect(),
        }
    }
}

/// The labelled groups of the gated benchmark matrix, in run order.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardRegistry {
    shards: Vec<SuiteShard>,
}

impl ShardRegistry {
    /// The standard groups of the gated suite:
    ///
    /// * `table2` — the Table 2 suite in suite order, all three standard
    ///   backends plus the portfolio auto-tuner ([`POWERMOVE_AUTO`]): the
    ///   portfolio compiles by staging once and replaying only the
    ///   route/emit back end per candidate, and gating its compile wall
    ///   clock here — on the heaviest Table 2 instances in particular —
    ///   regression-guards that replay fast path;
    /// * `fig6/sweep` — Fig. 6 sweep sizes not already covered by Table 2,
    ///   all three standard backends;
    /// * `fig7/multi-aod` — the Fig. 7 instances at 2–4 AOD arrays
    ///   (`@aods<k>`-suffixed names), compiled under the greedy with-storage
    ///   configuration, the multi-AOD scheduler variant
    ///   ([`POWERMOVE_MULTI_AOD`]) and the portfolio auto-tuner
    ///   ([`POWERMOVE_AUTO`]), so the gate regression-guards both the
    ///   scheduler's movement-wall-clock win and the auto-tuner matching the
    ///   per-cell best portfolio member;
    /// * `lint/corpus` — the heterogeneous-architecture grid of
    ///   [`lint_corpus_cells`] (`@aods<k>@arch:<variant>`-suffixed names),
    ///   same backend list as `fig7/multi-aod`, so the gate pins schedule
    ///   invariants and scores off the paper's default machine geometry.
    ///
    /// Together the groups cover every gated cell exactly once
    /// (asserted by the workspace test suite).
    #[must_use]
    pub fn standard(seed: u64) -> Self {
        let standard_backends = vec![
            ENOLA.to_string(),
            POWERMOVE_NON_STORAGE.to_string(),
            POWERMOVE_STORAGE.to_string(),
        ];
        // Table 2 additionally gates the portfolio auto-tuner's compile wall
        // clock (the stage-once replay fast path).
        let mut table2_backends = standard_backends.clone();
        table2_backends.push(POWERMOVE_AUTO.to_string());
        let single_aod = |instance: BenchmarkInstance| ShardCell::new(instance, 1);

        let table2 = table2_suite(seed);
        let table2_names: Vec<&str> = table2.iter().map(|i| i.name.as_str()).collect();

        let fig6_cells: Vec<ShardCell> = fig6_sweeps()
            .into_iter()
            .flat_map(|(family, sizes)| {
                sizes
                    .into_iter()
                    .map(move |n| generate(family, n, seed))
                    .collect::<Vec<_>>()
            })
            .filter(|i| !table2_names.contains(&i.name.as_str()))
            .map(single_aod)
            .collect();

        let fig7_cells: Vec<ShardCell> = fig7_cases()
            .into_iter()
            .flat_map(|(family, n)| {
                (2..=4).map(move |aods| {
                    let mut instance = generate(family, n, seed);
                    instance.name = format!("{}@aods{aods}", instance.name);
                    ShardCell::new(instance, aods)
                })
            })
            .collect();
        let fig7_backends = vec![
            POWERMOVE_STORAGE.to_string(),
            POWERMOVE_MULTI_AOD.to_string(),
            POWERMOVE_AUTO.to_string(),
        ];
        let lint_backends = fig7_backends.clone();

        ShardRegistry {
            shards: vec![
                SuiteShard::new(
                    "table2",
                    table2_backends,
                    table2.into_iter().map(single_aod).collect(),
                ),
                SuiteShard::new("fig6/sweep", standard_backends, fig6_cells),
                SuiteShard::new("fig7/multi-aod", fig7_backends, fig7_cells),
                SuiteShard::new("lint/corpus", lint_backends, lint_corpus_cells(seed)),
            ],
        }
    }

    /// Looks up a group by label.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&SuiteShard> {
        self.shards.iter().find(|s| s.name == name)
    }

    /// Iterates over the groups in run order.
    pub fn iter(&self) -> impl Iterator<Item = &SuiteShard> {
        self.shards.iter()
    }

    /// The group gating a `(compiler, benchmark)` cell, if any.
    #[must_use]
    pub fn shard_of_cell(&self, compiler: &str, benchmark: &str) -> Option<&SuiteShard> {
        self.shards
            .iter()
            .find(|s| s.contains_cell(compiler, benchmark))
    }
}

/// Runs one group's cell × backend matrix with `repeats` compile-time
/// samples per cell, fanned out over the `POWERMOVE_THREADS` pool. The
/// results are in run order (instance-major, then backend order).
///
/// # Panics
///
/// Panics if a group backend id is not registered, or if compilation or
/// validation fails (see [`run_instance`]).
#[must_use]
pub fn run_shard(shard: &SuiteShard, registry: &BackendRegistry, repeats: usize) -> Vec<RunResult> {
    let jobs: Vec<(&ShardCell, &RegisteredBackend)> = shard
        .cells()
        .iter()
        .flat_map(|cell| {
            shard.backends().iter().map(move |id| {
                let entry = registry.entry(id).unwrap_or_else(|| {
                    panic!("group {} gates unregistered backend {id}", shard.name())
                });
                (cell, entry)
            })
        })
        .collect();
    ThreadPool::from_env().par_map(jobs, |(cell, entry)| {
        run_on_architecture(&cell.instance, &cell.architecture(), entry, repeats)
    })
}

/// One row of Table 3: the three standard configurations on one benchmark
/// instance plus the improvement ratios the paper reports.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Table3Row {
    /// Benchmark name.
    pub benchmark: String,
    /// Enola baseline result.
    pub enola: RunResult,
    /// PowerMove non-storage result.
    pub non_storage: RunResult,
    /// PowerMove with-storage result.
    pub with_storage: RunResult,
}

impl Table3Row {
    /// Fidelity improvement of the with-storage configuration over Enola.
    #[must_use]
    pub fn fidelity_improvement(&self) -> f64 {
        safe_ratio(self.with_storage.fidelity, self.enola.fidelity)
    }

    /// Execution-time improvement (Enola / best PowerMove configuration).
    #[must_use]
    pub fn execution_time_improvement(&self) -> f64 {
        let best = self
            .non_storage
            .execution_time_us
            .min(self.with_storage.execution_time_us);
        safe_ratio(self.enola.execution_time_us, best)
    }

    /// Compilation-time improvement (Enola / mean PowerMove compile time).
    #[must_use]
    pub fn compile_time_improvement(&self) -> f64 {
        let ours = 0.5 * (self.non_storage.compile_time_s + self.with_storage.compile_time_s);
        safe_ratio(self.enola.compile_time_s, ours)
    }
}

fn safe_ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator <= 0.0 {
        f64::INFINITY
    } else {
        numerator / denominator
    }
}

/// Runs the three standard Table 3 configurations over a whole suite, with
/// the instance × configuration matrix fanned out over the thread pool.
///
/// Rows come back in suite order.
///
/// # Panics
///
/// Panics if compilation or validation fails (see [`run_instance`]).
#[must_use]
pub fn table3_rows(instances: &[BenchmarkInstance]) -> Vec<Table3Row> {
    table3_rows_sampled(instances, 1)
}

/// [`table3_rows`] with `repeats` compile-time samples per cell, for
/// statistically honest compile-time-improvement columns.
///
/// # Panics
///
/// Panics if compilation or validation fails (see [`run_instance`]).
#[must_use]
pub fn table3_rows_sampled(instances: &[BenchmarkInstance], repeats: usize) -> Vec<Table3Row> {
    let registry = BackendRegistry::standard();
    let results = run_matrix_sampled(instances, 1, &registry, repeats);
    results
        .chunks_exact(registry.len())
        .zip(instances)
        .map(|(chunk, instance)| {
            // Select columns by registry id, not position, so the row stays
            // correct if `standard()` ever reorders or grows.
            let column = |id: &str| {
                chunk
                    .iter()
                    .find(|r| r.compiler == id)
                    .unwrap_or_else(|| panic!("standard registry provides {id}"))
                    .clone()
            };
            Table3Row {
                benchmark: instance.name.clone(),
                enola: column(ENOLA),
                non_storage: column(POWERMOVE_NON_STORAGE),
                with_storage: column(POWERMOVE_STORAGE),
            }
        })
        .collect()
}

/// Extracts a `--json <path>` flag from a CLI argument list, removing both
/// tokens when present. Every experiment binary uses this so results can be
/// recorded as JSON next to the printed tables.
pub fn take_json_path(args: &mut Vec<String>) -> Option<PathBuf> {
    take_flag(args, "--json").map(PathBuf::from)
}

/// Extracts `--flag <value>` from a CLI argument list, removing both tokens
/// and returning the value. Exits with code 2 when the value is missing —
/// the experiment binaries treat malformed invocations as usage errors.
/// Shared by every binary so flag handling cannot drift between them.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let index = args.iter().position(|a| a == flag)?;
    if index + 1 >= args.len() {
        eprintln!("{flag} requires an argument");
        std::process::exit(2);
    }
    let value = args.remove(index + 1);
    args.remove(index);
    Some(value)
}

/// Extracts a bare `--flag` switch, returning whether it was present.
pub fn take_switch(args: &mut Vec<String>, flag: &str) -> bool {
    if let Some(index) = args.iter().position(|a| a == flag) {
        args.remove(index);
        true
    } else {
        false
    }
}

/// [`take_flag`] parsed as a non-negative integer; exits with code 2 on a
/// non-numeric value.
pub fn take_usize_flag(args: &mut Vec<String>, flag: &str) -> Option<usize> {
    take_flag(args, flag).map(|value| {
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a non-negative integer, got {value:?}");
            std::process::exit(2);
        })
    })
}

/// [`take_flag`] parsed as a float; exits with code 2 on a non-numeric
/// value.
pub fn take_f64_flag(args: &mut Vec<String>, flag: &str) -> Option<f64> {
    take_flag(args, flag).map(|value| {
        value.parse().unwrap_or_else(|_| {
            eprintln!("{flag} expects a number, got {value:?}");
            std::process::exit(2);
        })
    })
}

/// Serializes `value` as pretty-printed JSON to `path`.
///
/// # Panics
///
/// Panics on I/O errors; the experiment binaries treat an unwritable report
/// path as fatal.
pub fn write_json<T: Serialize>(path: &Path, value: &T) {
    let json = serde_json::to_string_pretty(value).expect("serialization is infallible");
    let mut file = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    file.write_all(json.as_bytes())
        .and_then(|()| file.write_all(b"\n"))
        .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    println!("wrote JSON report to {}", path.display());
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_benchmarks::{generate, BenchmarkFamily};
    use powermove_schedule::CompiledProgram;

    fn storage_entry() -> BackendRegistry {
        BackendRegistry::standard()
    }

    #[test]
    fn run_instance_produces_consistent_result() {
        let instance = generate(BenchmarkFamily::QaoaRegular3, 10, DEFAULT_SEED);
        let registry = storage_entry();
        let result = run_instance(&instance, 1, registry.entry(POWERMOVE_STORAGE).unwrap());
        assert_eq!(result.num_qubits, 10);
        assert_eq!(result.cz_gates, 15);
        assert!(result.fidelity > 0.0 && result.fidelity <= 1.0);
        assert!(result.execution_time_us > 0.0);
        assert!(result.stages >= 3);
        assert!(
            result.pass_timings.iter().any(|t| t.pass == "route"),
            "powermove results carry pass timings"
        );
    }

    #[test]
    fn storage_mode_eliminates_exposure_on_benchmarks() {
        let instance = generate(BenchmarkFamily::Bv, 14, DEFAULT_SEED);
        let registry = storage_entry();
        let with = run_instance(&instance, 1, registry.entry(POWERMOVE_STORAGE).unwrap());
        let enola = run_instance(&instance, 1, registry.entry(ENOLA).unwrap());
        assert_eq!(with.excitation_exposure, 0);
        assert!(enola.excitation_exposure > 0);
    }

    #[test]
    fn table3_row_improvements_favour_powermove() {
        // At toy scale the storage-zone benefit is small (the paper's
        // smallest instance has 30 qubits), so only require that PowerMove
        // is not meaningfully worse on fidelity and clearly faster to
        // execute.
        let instance = generate(BenchmarkFamily::QaoaRegular3, 12, DEFAULT_SEED);
        let row = table3_rows(std::slice::from_ref(&instance)).remove(0);
        assert!(
            row.fidelity_improvement() > 0.9,
            "fidelity improvement {}",
            row.fidelity_improvement()
        );
        assert!(row.execution_time_improvement() > 1.0);
        // The storage zone removes every excitation exposure.
        assert_eq!(row.with_storage.excitation_exposure, 0);
    }

    #[test]
    fn registry_iterates_in_registration_order() {
        let registry = BackendRegistry::standard();
        let ids: Vec<&str> = registry.iter().map(RegisteredBackend::id).collect();
        assert_eq!(ids, vec![ENOLA, POWERMOVE_NON_STORAGE, POWERMOVE_STORAGE]);
        assert_eq!(registry.len(), 3);
        assert!(!registry.is_empty());
        assert!(registry.get("nonexistent").is_none());
    }

    #[test]
    fn registering_same_id_replaces_and_returns_the_old_backend() {
        let mut registry = BackendRegistry::standard();
        let displaced = registry.register(
            ENOLA,
            Box::new(PowerMoveCompiler::new(CompilerConfig::default())),
        );
        assert_eq!(registry.len(), 3);
        assert_eq!(registry.get(ENOLA).unwrap().name(), "powermove");
        assert_eq!(displaced.expect("enola was displaced").name(), "enola");
        // The replacement moved to the back of the iteration order.
        assert_eq!(
            registry.iter().map(RegisteredBackend::id).last(),
            Some(ENOLA)
        );
    }

    #[test]
    fn routing_variants_displace_user_backends_with_colliding_ids() {
        // A user backend squatting on a variant id is displaced (the
        // documented `register` semantics), never silently shadowed by — or
        // kept alongside — the variant.
        let mut registry = BackendRegistry::standard();
        registry.register(
            POWERMOVE_AUTO,
            Box::new(EnolaCompiler::new(EnolaConfig::default())),
        );
        let before = registry.len();
        let registry = registry.with_routing_variants();
        assert_eq!(registry.len(), before + 2, "3 variants, 1 id collision");
        assert_eq!(
            registry.get(POWERMOVE_AUTO).unwrap().name(),
            "powermove",
            "the variant displaced the squatter"
        );
        assert!(registry
            .get(POWERMOVE_AUTO)
            .unwrap()
            .config_description()
            .contains("routing=auto"));
    }

    #[test]
    fn registering_a_fresh_id_returns_none() {
        let mut registry = BackendRegistry::new();
        assert!(registry
            .register("a", Box::new(PowerMoveCompiler::default()))
            .is_none());
        assert!(registry
            .register("b", Box::new(PowerMoveCompiler::default()))
            .is_none());
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn run_matrix_is_instance_major_and_deterministic() {
        let registry = BackendRegistry::standard();
        let instances = vec![
            generate(BenchmarkFamily::Bv, 8, DEFAULT_SEED),
            generate(BenchmarkFamily::Qft, 6, DEFAULT_SEED),
        ];
        let results = run_matrix(&instances, 1, &registry);
        assert_eq!(results.len(), 6);
        let labels: Vec<(String, String)> = results
            .iter()
            .map(|r| (r.benchmark.clone(), r.compiler.clone()))
            .collect();
        for (i, instance) in instances.iter().enumerate() {
            for (j, entry) in registry.iter().enumerate() {
                assert_eq!(
                    labels[i * registry.len() + j],
                    (instance.name.clone(), entry.id().to_string())
                );
            }
        }
        // The parallel matrix agrees with the sequential per-instance path
        // on every deterministic metric.
        for (result, instance) in results.chunks_exact(3).zip(&instances) {
            for (parallel, entry) in result.iter().zip(registry.iter()) {
                let sequential = run_instance(instance, 1, entry);
                assert_eq!(parallel.fidelity, sequential.fidelity);
                assert_eq!(parallel.execution_time_us, sequential.execution_time_us);
                assert_eq!(parallel.stages, sequential.stages);
                assert_eq!(parallel.transfers, sequential.transfers);
                assert_eq!(parallel.cz_gates, sequential.cz_gates);
            }
        }
    }

    #[test]
    fn table3_rows_match_single_row_runs() {
        let instances = vec![
            generate(BenchmarkFamily::Bv, 8, DEFAULT_SEED),
            generate(BenchmarkFamily::QaoaRegular3, 10, DEFAULT_SEED),
        ];
        let rows = table3_rows(&instances);
        assert_eq!(rows.len(), 2);
        for (row, instance) in rows.iter().zip(&instances) {
            let single = table3_rows(std::slice::from_ref(instance)).remove(0);
            assert_eq!(row.benchmark, instance.name);
            assert_eq!(row.enola.fidelity, single.enola.fidelity);
            assert_eq!(row.non_storage.fidelity, single.non_storage.fidelity);
            assert_eq!(row.with_storage.fidelity, single.with_storage.fidelity);
            assert_eq!(row.with_storage.stages, single.with_storage.stages);
        }
    }

    #[test]
    fn custom_backend_participates_in_run_all() {
        struct Fixed;
        impl CompilerBackend for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn config_description(&self) -> String {
                "delegates to powermove defaults".to_string()
            }
            fn compile(
                &self,
                blocks: &powermove_circuit::BlockProgram,
                arch: &Architecture,
            ) -> Result<CompiledProgram, powermove::CompileError> {
                CompilerBackend::compile(
                    &PowerMoveCompiler::new(CompilerConfig::default()),
                    blocks,
                    arch,
                )
            }
        }

        let mut registry = BackendRegistry::new();
        registry.register("fixed", Box::new(Fixed));
        let instance = generate(BenchmarkFamily::Bv, 8, DEFAULT_SEED);
        let results = run_all(&instance, 1, &registry);
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].compiler, "fixed");
    }

    #[test]
    fn take_json_path_extracts_flag() {
        let mut args = vec![
            "QAOA".to_string(),
            "--json".to_string(),
            "out.json".to_string(),
        ];
        let path = take_json_path(&mut args);
        assert_eq!(path, Some(PathBuf::from("out.json")));
        assert_eq!(args, vec!["QAOA".to_string()]);
        assert_eq!(take_json_path(&mut args), None);
    }

    #[test]
    fn run_result_serializes_to_json() {
        let instance = generate(BenchmarkFamily::Bv, 8, DEFAULT_SEED);
        let registry = storage_entry();
        let result = run_instance(&instance, 1, registry.entry(ENOLA).unwrap());
        let json = serde_json::to_string(&result).unwrap();
        assert!(json.contains("\"compiler\":\"enola\""));
        assert!(json.contains("\"fidelity\""));
        assert!(json.contains("\"pass_timings\""));
    }
}
