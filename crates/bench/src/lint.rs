//! The schedule linter: named invariant rules over emitted programs, plus
//! the corpus campaign that hammers thousands of generated and imported
//! circuits through them.
//!
//! The gated suite only exercises the paper benchmarks, so the
//! routing/schedule invariants are verified on a few dozen circuits. This
//! module turns each invariant into a named [`LintRule`] that can replay
//! *any* emitted [`CompiledProgram`] — from a QASM file, a seeded generator
//! spec or a service JSONL log — and a campaign runner
//! ([`run_campaign`]) that sweeps seeded random circuits across all four
//! routing strategies × 1–4 AOD arrays × the [`ArchVariant`] grid, shrinks
//! any failing circuit by halving its gate list and persists the minimal
//! reproducer as a self-contained QASM + config JSON pair under
//! `bench/reproducers/`. `tests/routing_properties.rs` drives the same
//! campaign and adds the checks that need several compiles per case
//! (worker-count byte identity, the auto-tuner's recorded selection).
//!
//! The rules:
//!
//! | rule | invariant | implementation |
//! |---|---|---|
//! | `schedule-validate` | the program simulates cleanly and preserves the circuit's CZ gates | [`check_schedule`] |
//! | `aod-batches` | every move group lowers to per-AOD batches passing `validate_aod_batches` | [`check_aod_batches`] |
//! | `intra-aod-overlap` | no AOD array is named by two non-empty collective moves of one move group | [`check_intra_aod_overlap`] |
//! | `storage-before-interaction` | the multi-AOD scheduler never puts a storage-bound window after an interaction window within a stage transition | [`check_storage_before_interaction`] |
//! | `fidelity-dominance` | the auto-tuner never moves slower than any portfolio member, and never scores below the worst member | [`check_fidelity_dominance`] |
//! | `free-site-agreement` | the index-pruned free-site search returns the same site as the linear reference scan, and the distance oracle the walk's site and examined count | [`check_free_site_agreement`] |
//!
//! The four program-level rules live in [`powermove_schedule::check`] and
//! are re-exported here; the last two stay in this crate because they need
//! the fidelity model and the compiler's free-site harness.
//!
//! Everything here is deterministic: the corpus generator is a seeded
//! PRNG, shrinking is deterministic halving, and reproducer files carry no
//! timestamps — the same seed always produces the same reproducer bytes.

use crate::harness::ArchVariant;
use powermove::{
    movement_wall_clock, Attractors, CompilerConfig, FreeSiteHarness, PowerMoveCompiler,
    RoutingConfig,
};
use powermove_circuit::{qasm, Circuit, Qubit};
use powermove_exec::ThreadPool;
use powermove_fidelity::evaluate_program;
use powermove_hardware::{Architecture, Point, SiteId, Zone, ZonedGrid};
pub use powermove_schedule::check::{
    check_aod_batches, check_intra_aod_overlap, check_schedule, check_storage_before_interaction,
};
use powermove_schedule::CompiledProgram;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Serialize, Value};
use std::path::{Path, PathBuf};

/// Movement-wall-clock slack for the auto-dominance comparison: replaying
/// the selected member is byte-identical, so only accumulated float error
/// separates the clocks.
pub const MOVEMENT_EPS: f64 = 1e-12;

/// Fidelity slack for the auto-dominance comparison.
pub const FIDELITY_EPS: f64 = 1e-9;

/// One named schedule invariant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintRule {
    /// The program simulates cleanly and preserves the circuit's CZ count.
    ScheduleValidate,
    /// Every move group lowers to valid per-AOD batches.
    AodBatches,
    /// No AOD array owns two overlapping busy windows.
    IntraAodOverlap,
    /// No storage-bound window after an interaction window within a stage
    /// transition (multi-AOD scheduler only).
    StorageBeforeInteraction,
    /// The auto-tuner dominates its portfolio members.
    FidelityDominance,
    /// Pruned and linear free-site searches agree.
    FreeSiteAgreement,
}

impl LintRule {
    /// Every rule, in report order.
    pub const ALL: [LintRule; 6] = [
        LintRule::ScheduleValidate,
        LintRule::AodBatches,
        LintRule::IntraAodOverlap,
        LintRule::StorageBeforeInteraction,
        LintRule::FidelityDominance,
        LintRule::FreeSiteAgreement,
    ];

    /// The stable kebab-case rule name used in reports and reproducer
    /// filenames.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LintRule::ScheduleValidate => "schedule-validate",
            LintRule::AodBatches => "aod-batches",
            LintRule::IntraAodOverlap => "intra-aod-overlap",
            LintRule::StorageBeforeInteraction => "storage-before-interaction",
            LintRule::FidelityDominance => "fidelity-dominance",
            LintRule::FreeSiteAgreement => "free-site-agreement",
        }
    }

    /// Parses a rule from its [`LintRule::name`].
    #[must_use]
    pub fn from_name(name: &str) -> Option<LintRule> {
        LintRule::ALL.into_iter().find(|r| r.name() == name)
    }
}

impl std::fmt::Display for LintRule {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// One rule firing on one compiled program.
#[derive(Debug, Clone, PartialEq)]
pub struct LintViolation {
    /// The rule that fired.
    pub rule: LintRule,
    /// Routing strategy of the offending program (`"greedy"`,
    /// `"lookahead2"`, `"multi-aod"`, `"auto"`, or `"-"` for inputs linted
    /// as a single pre-compiled program).
    pub strategy: String,
    /// Human-readable description of the violation.
    pub message: String,
}

impl LintViolation {
    fn new(rule: LintRule, strategy: &str, message: String) -> Self {
        LintViolation {
            rule,
            strategy: strategy.to_string(),
            message,
        }
    }
}

/// The four routing strategies the linter replays, auto last so its
/// portfolio members are compiled first.
#[must_use]
pub fn lint_strategies() -> [(&'static str, RoutingConfig); 4] {
    [
        ("greedy", RoutingConfig::greedy()),
        ("lookahead2", RoutingConfig::lookahead(2)),
        ("multi-aod", RoutingConfig::multi_aod()),
        ("auto", RoutingConfig::auto()),
    ]
}

// ---------------------------------------------------------------------------
// Rules that need the fidelity model or the compiler's free-site harness
// (the program-level rules live in `powermove_schedule::check`).
// ---------------------------------------------------------------------------

/// `fidelity-dominance`: the auto-tuner's movement wall clock must not
/// exceed any portfolio member's (the replay is byte-identical, so only
/// [`MOVEMENT_EPS`] float slack is allowed), and its fidelity must not drop
/// below the worst member's.
///
/// # Errors
///
/// Returns the violation message.
pub fn check_fidelity_dominance(
    auto: &CompiledProgram,
    members: &[(&str, &CompiledProgram)],
) -> Result<(), String> {
    if members.is_empty() {
        return Ok(());
    }
    let movement = |p: &CompiledProgram| movement_wall_clock(p.instructions(), p.architecture());
    let fidelity = |p: &CompiledProgram| -> Result<f64, String> {
        Ok(evaluate_program(p)
            .map_err(|e| format!("fidelity evaluation failed: {e}"))?
            .fidelity_excluding_one_qubit())
    };
    let auto_movement = movement(auto);
    for (name, member) in members {
        let member_movement = movement(member);
        if auto_movement > member_movement + MOVEMENT_EPS {
            return Err(format!(
                "auto moves {auto_movement} s, worse than member {name} ({member_movement} s)"
            ));
        }
    }
    let auto_fidelity = fidelity(auto)?;
    let mut worst = f64::INFINITY;
    for (_, member) in members {
        worst = worst.min(fidelity(member)?);
    }
    if auto_fidelity < worst - FIDELITY_EPS {
        return Err(format!(
            "auto fidelity {auto_fidelity} below the worst portfolio member ({worst})"
        ));
    }
    Ok(())
}

/// `free-site-agreement` over an explicit harness: for every anchor, the
/// index-pruned search and the linear reference scan must return the same
/// site in both zones. The `min_bias` / `attractors` pair is the caller's
/// claim about `bias` under the `SitePolicy` pruning contract — handing the
/// search an inadmissible claim is exactly how the rule's firing unit tests
/// drive a divergence.
///
/// # Errors
///
/// Returns the violation message.
pub fn check_free_site_agreement_with(
    harness: &mut FreeSiteHarness,
    anchors: &[Point],
    min_bias: f64,
    attractors: Attractors<'_>,
    bias: &dyn Fn(SiteId, Point) -> f64,
) -> Result<(), String> {
    for zone in [Zone::Compute, Zone::Storage] {
        for &anchor in anchors {
            let linear = harness.best_linear(zone, anchor, bias);
            let pruned = harness.best(zone, anchor, min_bias, attractors, bias);
            if pruned != linear {
                return Err(format!(
                    "pruned search found {pruned:?} but linear scan found {linear:?} \
                     ({zone:?} zone, anchor ({}, {}))",
                    anchor.x, anchor.y
                ));
            }
        }
    }
    Ok(())
}

/// A distance-only free-site query: the harness, the zone and the anchor.
pub type DistanceOracle = dyn Fn(&mut FreeSiteHarness, Zone, Point) -> Option<SiteId>;

/// `free-site-agreement` for the distance oracle over an explicit harness:
/// for every anchor, in both zones, `oracle` must return the site the walk
/// and the linear scan return under the zero bias, and charge the
/// `(site_scans, sites_pruned)` counters what the walk charges. The rule
/// passes [`FreeSiteHarness::nearest`]; handing it a broken oracle is how
/// its firing unit test drives a divergence.
///
/// # Errors
///
/// Returns the violation message.
pub fn check_free_site_oracle_agreement_with(
    harness: &mut FreeSiteHarness,
    anchors: &[Point],
    oracle: &DistanceOracle,
) -> Result<(), String> {
    let zero = |_: SiteId, _: Point| 0.0;
    for zone in [Zone::Compute, Zone::Storage] {
        for &anchor in anchors {
            let mut walk = harness.clone();
            let walked = walk.best(zone, anchor, 0.0, Attractors::default(), &zero);
            let linear = harness.best_linear(zone, anchor, &zero);
            let chosen = oracle(harness, zone, anchor);
            let at = format!("{zone:?} zone, anchor ({}, {})", anchor.x, anchor.y);
            if chosen != walked || chosen != linear {
                return Err(format!(
                    "distance oracle found {chosen:?} but the walk found {walked:?} \
                     and the linear scan {linear:?} ({at})"
                ));
            }
            if harness.counters() != walk.counters() {
                return Err(format!(
                    "distance oracle left the counters at {:?} but the walk at {:?} ({at})",
                    harness.counters(),
                    walk.counters()
                ));
            }
        }
    }
    Ok(())
}

/// One attractor-form case of `free-site-agreement`: `(label, anchor
/// attractors, mobile attractors)`.
type AttractorCase = (&'static str, Vec<(f64, Point)>, Vec<(f64, Point)>);

/// The attractor-form cases of `free-site-agreement` around one anchor:
/// each stresses one assumption of the score-ordered walk.
fn attractor_cases(grid: &ZonedGrid, anchor: Point) -> [AttractorCase; 5] {
    let pitch = grid.site_spacing();
    let far_x = f64::from(grid.cols() - 1) * pitch;
    let top_y = f64::from(grid.compute_rows().saturating_sub(1)) * pitch;
    let storage_y = -grid.zone_gap() - f64::from(grid.storage_rows().saturating_sub(1)) * pitch;
    let row_end = if anchor.x < far_x / 2.0 { far_x } else { 0.0 };
    [
        // W = 1.5 > 1 with both qubits' partners toward the far corner:
        // rows toward them get cheaper, so the row argmin leaves the
        // anchor's column.
        (
            "one-sided",
            vec![
                (0.5, Point::new(far_x, top_y)),
                (0.25, Point::new(far_x - pitch, top_y)),
            ],
            vec![
                (0.5, Point::new(far_x, top_y)),
                (0.25, Point::new(far_x, top_y - pitch)),
            ],
        ),
        // Unit weight on the anchor's own row, toward its far end: the score
        // is flat between anchor and attractor, so rounding alone orders
        // the arm.
        (
            "collinear",
            vec![(0.5, Point::new(row_end, anchor.y))],
            vec![(0.5, Point::new(row_end, anchor.y))],
        ),
        ("on-anchor", vec![(0.5, anchor)], vec![(0.25, anchor)]),
        (
            "storage",
            vec![(0.5, Point::new(0.0, storage_y))],
            vec![(0.5, Point::new(far_x, -grid.zone_gap()))],
        ),
        (
            "off-grid",
            vec![(0.5, Point::new(-4.0 * far_x - pitch, 3.0 * top_y + pitch))],
            vec![(
                0.25,
                Point::new(5.0 * far_x + pitch, storage_y - 7.0 * pitch),
            )],
        ),
    ]
}

/// `free-site-agreement` under attractor-form queries: for every anchor
/// and every attractor case — one-sided with total weight above one,
/// collinear with a flat score along the anchor's row, on the anchor,
/// in the storage zone, off the grid — the pruned search walked in
/// attractor score must agree with the linear scan under the matching
/// penalty bias.
///
/// # Errors
///
/// Returns the violation message, prefixed with the failing case.
pub fn check_free_site_attractor_agreement(
    harness: &mut FreeSiteHarness,
    anchors: &[Point],
) -> Result<(), String> {
    let grid = harness.grid().clone();
    for &anchor in anchors {
        for (label, anchor_list, mobile_list) in attractor_cases(&grid, anchor) {
            let attractors = Attractors::new(&anchor_list, &mobile_list);
            let penalty = move |_: SiteId, pos: Point| attractors.penalty(pos);
            check_free_site_agreement_with(harness, &[anchor], 0.0, attractors, &penalty)
                .map_err(|e| format!("{label} attractors: {e}"))?;
        }
    }
    Ok(())
}

/// `free-site-agreement` for a compiled program: seeds the harness from the
/// program's initial layout and sweeps zone-corner/center anchors under the
/// zero bias, an anchor-column distance bias (both admissible with a
/// zero lower bound and no attractors) and the attractor cases, and
/// checks the distance oracle against the walk from the same anchors.
///
/// # Errors
///
/// Returns the violation message.
pub fn check_free_site_agreement(program: &CompiledProgram) -> Result<(), String> {
    let arch = program.architecture().clone();
    let grid = arch.grid().clone();
    let mut harness = FreeSiteHarness::from_layout(arch, program.initial_layout());
    let mut anchors = Vec::new();
    for zone in [Zone::Compute, Zone::Storage] {
        let sites: Vec<SiteId> = grid.sites_in(zone).collect();
        for pick in [0, sites.len() / 2, sites.len().saturating_sub(1)] {
            if let Some(&site) = sites.get(pick) {
                anchors.push(grid.position(site));
            }
        }
    }
    anchors.dedup_by(|a, b| a.x == b.x && a.y == b.y);
    let none = Attractors::default();
    check_free_site_agreement_with(&mut harness, &anchors, 0.0, none, &|_, _| 0.0)?;
    check_free_site_oracle_agreement_with(&mut harness, &anchors, &FreeSiteHarness::nearest)?;
    check_free_site_attractor_agreement(&mut harness, &anchors)?;
    let column_bias = move |site: SiteId, anchor: Point| (grid.position(site).x - anchor.x).abs();
    check_free_site_agreement_with(&mut harness, &anchors, 0.0, none, &column_bias)
}

// ---------------------------------------------------------------------------
// The full-program lint driver.
// ---------------------------------------------------------------------------

/// Compiles `circuit` on `arch` under all four routing strategies and runs
/// every applicable rule, returning all violations (empty = clean).
///
/// `storage-before-interaction` only gates the multi-AOD scheduler (other
/// routers have no window-class ordering contract), and
/// `fidelity-dominance` compares the auto-tuner against the other three
/// strategies as its portfolio members.
#[must_use]
pub fn lint_circuit(circuit: &Circuit, arch: &Architecture) -> Vec<LintViolation> {
    let mut violations = Vec::new();
    let mut programs: Vec<(&'static str, CompiledProgram)> = Vec::new();
    for (name, routing) in lint_strategies() {
        let compiler = PowerMoveCompiler::new(
            CompilerConfig::default()
                .with_threads(1)
                .with_routing(routing),
        );
        match compiler.compile(circuit, arch) {
            Ok(program) => programs.push((name, program)),
            Err(e) => violations.push(LintViolation::new(
                LintRule::ScheduleValidate,
                name,
                format!("compilation failed: {e}"),
            )),
        }
    }
    for (name, program) in &programs {
        violations.extend(lint_program(program, Some(circuit.cz_count()), name));
        if *name == "multi-aod" {
            if let Err(message) = check_storage_before_interaction(program) {
                violations.push(LintViolation::new(
                    LintRule::StorageBeforeInteraction,
                    name,
                    message,
                ));
            }
        }
    }
    let auto = programs.iter().find(|(name, _)| *name == "auto");
    if let Some((_, auto_program)) = auto {
        let members: Vec<(&str, &CompiledProgram)> = programs
            .iter()
            .filter(|(name, _)| *name != "auto")
            .map(|(name, program)| (*name, program))
            .collect();
        if let Err(message) = check_fidelity_dominance(auto_program, &members) {
            violations.push(LintViolation::new(
                LintRule::FidelityDominance,
                "auto",
                message,
            ));
        }
    }
    violations
}

/// Runs the single-program rules (`schedule-validate`, `aod-batches`,
/// `intra-aod-overlap`, `free-site-agreement`) on one program, labelling
/// violations with `strategy`. The cross-program rules
/// (`storage-before-interaction`, `fidelity-dominance`) live in
/// [`lint_circuit`], which knows which strategy produced what.
#[must_use]
fn lint_program(
    program: &CompiledProgram,
    expected_cz: Option<usize>,
    strategy: &str,
) -> Vec<LintViolation> {
    let mut violations = Vec::new();
    let mut push = |rule: LintRule, result: Result<(), String>| {
        if let Err(message) = result {
            violations.push(LintViolation::new(rule, strategy, message));
        }
    };
    push(
        LintRule::ScheduleValidate,
        check_schedule(program, expected_cz),
    );
    push(LintRule::AodBatches, check_aod_batches(program));
    push(LintRule::IntraAodOverlap, check_intra_aod_overlap(program));
    push(
        LintRule::FreeSiteAgreement,
        check_free_site_agreement(program),
    );
    violations
}

// ---------------------------------------------------------------------------
// The seeded corpus generator.
// ---------------------------------------------------------------------------

/// One generated gate, kept as data so a failing case can be shrunk and
/// rebuilt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CorpusOp {
    /// Hadamard on one qubit.
    H(u32),
    /// Z rotation (fixed 0.17 rad test angle) on one qubit.
    Rz(u32),
    /// CZ between two distinct qubits.
    Cz(u32, u32),
}

/// A reproducible random corpus case: width, gate list, and the
/// architecture cell (AOD count × [`ArchVariant`]) derived from the seed.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusInstance {
    /// Generator seed (also the reproducer's identity).
    pub seed: u64,
    /// Circuit width.
    pub num_qubits: u32,
    /// The gate list.
    pub ops: Vec<CorpusOp>,
    /// Number of AOD arrays (1–4, cycled by seed).
    pub num_aods: usize,
    /// Hardware variant (cycled by seed across [`ArchVariant::ALL`]).
    pub arch: ArchVariant,
    /// Whether the circuit is round-tripped through the QASM importer
    /// before compiling (every 16th seed), so the campaign also exercises
    /// the untrusted-input parser.
    pub via_qasm: bool,
}

impl CorpusInstance {
    /// Generates the instance for `seed`: 4–10 qubits, 2–28 gates, AOD
    /// count and architecture variant cycled so the sweep covers the full
    /// 4 × 4 cell grid evenly.
    #[must_use]
    pub fn generate(seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_qubits = rng.gen_range(4..=10_u32);
        let num_ops = rng.gen_range(2..=28_usize);
        let ops = (0..num_ops)
            .filter_map(|_| {
                let a = rng.gen_range(0..num_qubits);
                let b = rng.gen_range(0..num_qubits);
                match rng.gen_range(0_u8..4) {
                    0 => Some(CorpusOp::H(a)),
                    1 => Some(CorpusOp::Rz(a)),
                    _ => (a != b).then_some(CorpusOp::Cz(a, b)),
                }
            })
            .collect();
        CorpusInstance {
            seed,
            num_qubits,
            ops,
            num_aods: 1 + (seed % 4) as usize,
            arch: ArchVariant::ALL[((seed / 4) % 4) as usize],
            via_qasm: seed % 16 == 0,
        }
    }

    /// Builds the circuit; `via_qasm` instances additionally round-trip
    /// through the QASM emitter + importer.
    ///
    /// # Errors
    ///
    /// Returns the QASM importer's error message if the round trip fails —
    /// itself a lintable bug.
    pub fn circuit(&self) -> Result<Circuit, String> {
        let mut circuit = Circuit::new(self.num_qubits);
        for op in &self.ops {
            match *op {
                CorpusOp::H(q) => circuit.h(Qubit::new(q)).expect("in range"),
                CorpusOp::Rz(q) => circuit.rz(Qubit::new(q), 0.17).expect("in range"),
                CorpusOp::Cz(a, b) => circuit
                    .cz(Qubit::new(a), Qubit::new(b))
                    .expect("in range and distinct"),
            }
        }
        if self.via_qasm {
            let text = qasm::to_qasm(&circuit);
            let reimported =
                qasm::from_qasm(&text).map_err(|e| format!("qasm round trip failed: {e}"))?;
            if reimported != circuit {
                return Err("qasm round trip changed the circuit".to_string());
            }
            return Ok(reimported);
        }
        Ok(circuit)
    }

    /// A copy restricted to the first `len` gates.
    #[must_use]
    pub fn truncated(&self, len: usize) -> Self {
        CorpusInstance {
            ops: self.ops[..len.min(self.ops.len())].to_vec(),
            ..self.clone()
        }
    }

    /// The concrete architecture of the case.
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        self.arch
            .architecture_for(self.num_qubits)
            .with_num_aods(self.num_aods)
    }

    /// Lints the case: builds the circuit and runs [`lint_circuit`] on the
    /// case's architecture. A circuit-construction failure (QASM round
    /// trip) is reported as a `schedule-validate` violation.
    #[must_use]
    pub fn lint(&self) -> Vec<LintViolation> {
        match self.circuit() {
            Ok(circuit) => lint_circuit(&circuit, &self.architecture()),
            Err(message) => vec![LintViolation::new(LintRule::ScheduleValidate, "-", message)],
        }
    }
}

/// Shrinks a failing instance by halving its gate list while `fails` still
/// reports violations, returning the minimal reproducer and its
/// violations. Deterministic: the same instance and predicate always
/// shrink to the same bytes.
fn shrink_instance<F>(instance: &CorpusInstance, fails: F) -> (CorpusInstance, Vec<LintViolation>)
where
    F: Fn(&CorpusInstance) -> Vec<LintViolation>,
{
    let mut smallest = instance.clone();
    let mut violations = fails(instance);
    let mut len = smallest.ops.len();
    while len > 1 {
        len /= 2;
        let candidate = smallest.truncated(len);
        let candidate_violations = fails(&candidate);
        if candidate_violations.is_empty() {
            break;
        }
        smallest = candidate;
        violations = candidate_violations;
    }
    (smallest, violations)
}

// ---------------------------------------------------------------------------
// Reproducer persistence.
// ---------------------------------------------------------------------------

/// The config half of a checked-in reproducer: everything
/// `tests/lint_reproducers.rs` needs to replay the case, next to the QASM
/// file named in `qasm`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct ReproducerConfig {
    /// Generator seed of the originating campaign case.
    pub seed: u64,
    /// Name of the first rule that fired ([`LintRule::name`]).
    pub rule: String,
    /// Routing strategy of the first violation.
    pub strategy: String,
    /// AOD-array count of the case.
    pub num_aods: usize,
    /// Architecture-variant name ([`ArchVariant::name`]).
    pub arch: String,
    /// The violation message at shrink time.
    pub message: String,
    /// Sibling QASM filename holding the shrunk circuit.
    pub qasm: String,
}

impl ReproducerConfig {
    /// Parses a config from its JSON text (the vendored `serde_json` has no
    /// derive-based deserialization, so fields are read off the [`Value`]
    /// tree by hand).
    ///
    /// # Errors
    ///
    /// Returns a message naming the missing, mistyped or out-of-range field
    /// (a negative `seed`, or a `num_aods` below one).
    pub fn parse(text: &str) -> Result<Self, String> {
        let value: Value = serde_json::from_str(text).map_err(|e| format!("bad JSON: {e}"))?;
        let str_field = |key: &str| -> Result<String, String> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing string field {key:?}"))
        };
        let int_field = |key: &str| -> Result<i64, String> {
            value
                .get(key)
                .and_then(Value::as_i64)
                .ok_or_else(|| format!("missing integer field {key:?}"))
        };
        let at_least = |key: &str, min: i64| -> Result<i64, String> {
            let n = int_field(key)?;
            if n < min {
                return Err(format!("field {key:?} must be at least {min}, got {n}"));
            }
            Ok(n)
        };
        Ok(ReproducerConfig {
            seed: at_least("seed", 0)? as u64,
            rule: str_field("rule")?,
            strategy: str_field("strategy")?,
            num_aods: at_least("num_aods", 1)? as usize,
            arch: str_field("arch")?,
            message: str_field("message")?,
            qasm: str_field("qasm")?,
        })
    }
}

/// A campaign failure: the shrunk case plus its violations.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// The shrunk (minimal) instance.
    pub instance: CorpusInstance,
    /// The violations the shrunk instance still triggers.
    pub violations: Vec<LintViolation>,
}

impl CampaignFailure {
    /// The reproducer's filename stem: `seed<seed>-<rule>`.
    #[must_use]
    pub fn stem(&self) -> String {
        format!("seed{}-{}", self.instance.seed, self.violations[0].rule)
    }

    /// Writes the `<stem>.qasm` + `<stem>.json` reproducer pair into
    /// `dir`, returning the stem. Output is byte-deterministic (no
    /// timestamps, sorted keys via the struct field order).
    ///
    /// # Errors
    ///
    /// Returns the I/O error message if either file cannot be written.
    pub fn persist(&self, dir: &Path) -> Result<String, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let stem = self.stem();
        let circuit = self
            .instance
            .circuit()
            // A QASM-round-trip failure has no importable circuit; persist
            // the generator's direct construction instead.
            .unwrap_or_else(|_| {
                let direct = CorpusInstance {
                    via_qasm: false,
                    ..self.instance.clone()
                };
                direct.circuit().expect("direct construction cannot fail")
            });
        let qasm_name = format!("{stem}.qasm");
        let first = &self.violations[0];
        let config = ReproducerConfig {
            seed: self.instance.seed,
            rule: first.rule.name().to_string(),
            strategy: first.strategy.clone(),
            num_aods: self.instance.num_aods,
            arch: self.instance.arch.name().to_string(),
            message: first.message.clone(),
            qasm: qasm_name.clone(),
        };
        let qasm_path = dir.join(&qasm_name);
        std::fs::write(&qasm_path, qasm::to_qasm(&circuit))
            .map_err(|e| format!("write {}: {e}", qasm_path.display()))?;
        let json_path = dir.join(format!("{stem}.json"));
        let json = serde_json::to_string_pretty(&config).expect("reproducer config serialization");
        std::fs::write(&json_path, format!("{json}\n"))
            .map_err(|e| format!("write {}: {e}", json_path.display()))?;
        Ok(stem)
    }
}

/// Replays a checked-in reproducer: reads the config's QASM sibling,
/// rebuilds the architecture and lints the circuit.
///
/// # Errors
///
/// Returns an error message if the pair cannot be read or parsed.
pub fn replay_reproducer(config_path: &Path) -> Result<Vec<LintViolation>, String> {
    let text = std::fs::read_to_string(config_path)
        .map_err(|e| format!("read {}: {e}", config_path.display()))?;
    let config = ReproducerConfig::parse(&text)
        .map_err(|e| format!("parse {}: {e}", config_path.display()))?;
    let dir = config_path.parent().unwrap_or_else(|| Path::new("."));
    let qasm_path = dir.join(&config.qasm);
    let qasm_text = std::fs::read_to_string(&qasm_path)
        .map_err(|e| format!("read {}: {e}", qasm_path.display()))?;
    let circuit =
        qasm::from_qasm(&qasm_text).map_err(|e| format!("{}: {e}", qasm_path.display()))?;
    let variant = ArchVariant::from_name(&config.arch)
        .ok_or_else(|| format!("unknown architecture variant {:?}", config.arch))?;
    let arch = variant
        .architecture_for(circuit.num_qubits())
        .with_num_aods(config.num_aods);
    Ok(lint_circuit(&circuit, &arch))
}

// ---------------------------------------------------------------------------
// The campaign runner.
// ---------------------------------------------------------------------------

/// Campaign parameters.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of corpus cases to lint.
    pub cases: u64,
    /// First seed; cases run over `base_seed..base_seed + cases`.
    pub base_seed: u64,
    /// Directory reproducers are persisted into (`None` = don't persist).
    pub out_dir: Option<PathBuf>,
}

/// The campaign's summary, checked in when a run is clean
/// (`bench/reproducers/campaign-summary.json`). Byte-deterministic: no
/// timestamps, failures sorted by seed.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CampaignSummary {
    /// Number of corpus cases linted.
    pub cases: u64,
    /// First seed of the sweep.
    pub base_seed: u64,
    /// Total violations across all failing cases (post-shrink).
    pub violations: u64,
    /// Reproducer stems, sorted by seed (empty on a clean run).
    pub reproducers: Vec<String>,
    /// Whether the campaign found nothing.
    pub clean: bool,
}

/// Runs the corpus campaign: lints `config.cases` seeded cases fanned out
/// over the `POWERMOVE_THREADS` pool, shrinks every failure by halving and
/// (when `out_dir` is set) persists reproducer pairs. Returns the summary
/// plus the shrunk failures in seed order.
///
/// # Panics
///
/// Panics if a reproducer cannot be written — a campaign that cannot
/// persist its evidence should fail loudly.
#[must_use]
pub fn run_campaign(config: &CampaignConfig) -> (CampaignSummary, Vec<CampaignFailure>) {
    let seeds: Vec<u64> = (config.base_seed..config.base_seed + config.cases).collect();
    let failures: Vec<Option<CampaignFailure>> = ThreadPool::from_env().par_map(seeds, |seed| {
        let instance = CorpusInstance::generate(seed);
        let violations = instance.lint();
        if violations.is_empty() {
            return None;
        }
        let (shrunk, violations) = shrink_instance(&instance, CorpusInstance::lint);
        Some(CampaignFailure {
            instance: shrunk,
            violations,
        })
    });
    let failures: Vec<CampaignFailure> = failures.into_iter().flatten().collect();
    let mut reproducers = Vec::new();
    for failure in &failures {
        match &config.out_dir {
            Some(dir) => reproducers.push(
                failure
                    .persist(dir)
                    .unwrap_or_else(|e| panic!("cannot persist reproducer: {e}")),
            ),
            None => reproducers.push(failure.stem()),
        }
    }
    let summary = CampaignSummary {
        cases: config.cases,
        base_seed: config.base_seed,
        violations: failures.iter().map(|f| f.violations.len() as u64).sum(),
        reproducers,
        clean: failures.is_empty(),
    };
    (summary, failures)
}

// ---------------------------------------------------------------------------
// Service JSONL replay.
// ---------------------------------------------------------------------------

/// Outcome of linting a service JSONL log.
#[derive(Debug, Clone, Default)]
pub struct JsonlReport {
    /// Total lines scanned.
    pub lines: usize,
    /// Compile frames successfully parsed and linted.
    pub linted: usize,
    /// Lines skipped (blank, non-compile frames, unparseable frames).
    pub skipped: usize,
    /// Violations, labelled with the 1-based line number of the frame.
    pub violations: Vec<(usize, LintViolation)>,
}

/// Lints every compile frame of a service JSONL log (the request stream
/// `powermove-serve` consumes): each frame's circuit is replayed through
/// [`lint_circuit`] on the paper's default architecture at the frame's AOD
/// count. Non-compile and unparseable lines are skipped, not errors — logs
/// interleave stats/shutdown frames and partial writes.
#[must_use]
pub fn lint_service_log(text: &str) -> JsonlReport {
    use powermove_service::protocol::Request;
    let mut report = JsonlReport::default();
    for (index, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        report.lines += 1;
        let request = match Request::parse(line) {
            Ok(Request::Compile(request)) => request,
            Ok(_) | Err(_) => {
                report.skipped += 1;
                continue;
            }
        };
        let circuit = match request.circuit() {
            Ok(circuit) => circuit,
            Err(_) => {
                // The importer rejecting a malformed frame is the hardened
                // behaviour, not a schedule bug.
                report.skipped += 1;
                continue;
            }
        };
        let arch = Architecture::for_qubits(circuit.num_qubits()).with_num_aods(request.aods);
        for violation in lint_circuit(&circuit, &arch) {
            report.violations.push((index + 1, violation));
        }
        report.linted += 1;
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::CzGate;
    use powermove_hardware::AodId;
    use powermove_schedule::{CollMove, Instruction, Layout, SiteMove};

    fn arch(aods: usize) -> Architecture {
        Architecture::for_qubits(4).with_num_aods(aods)
    }

    fn site(a: &Architecture, zone: Zone, col: u32, row: u32) -> SiteId {
        a.grid().site(zone, col, row).expect("site exists")
    }

    fn storage_layout(a: &Architecture, n: u32) -> Layout {
        Layout::row_major(a, n, Zone::Storage).expect("storage holds the qubits")
    }

    /// A valid do-nothing program: every rule must stay quiet on it.
    fn empty_program(a: &Architecture) -> CompiledProgram {
        CompiledProgram::new(a.clone(), 2, storage_layout(a, 2), vec![])
    }

    /// A valid program whose single move group hauls qubit 0 from storage
    /// to the computation zone.
    fn one_move_program(a: &Architecture) -> CompiledProgram {
        let from = site(a, Zone::Storage, 0, 0);
        let to = site(a, Zone::Compute, 0, 0);
        CompiledProgram::new(
            a.clone(),
            2,
            storage_layout(a, 2),
            vec![Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![SiteMove::new(Qubit::new(0), from, to)],
            )])],
        )
    }

    /// A program whose move group double-books AOD 0 with two collective
    /// moves — the hand-built violation behind both the `aod-batches` and
    /// the `intra-aod-overlap` firing tests.
    fn double_booked_program(a: &Architecture) -> CompiledProgram {
        CompiledProgram::new(
            a.clone(),
            2,
            storage_layout(a, 2),
            vec![Instruction::move_group(vec![
                haul(a, 0, 0, 0),
                haul(a, 0, 1, 1),
            ])],
        )
    }

    /// One collective move hauling qubit `q` from storage column `col` to
    /// the computation zone.
    fn haul(a: &Architecture, aod: usize, q: u32, col: u32) -> CollMove {
        CollMove::new(
            AodId::new(aod),
            vec![SiteMove::new(
                Qubit::new(q),
                site(a, Zone::Storage, col, 0),
                site(a, Zone::Compute, col, 0),
            )],
        )
    }

    #[test]
    fn compiled_circuits_are_clean_under_every_rule() {
        let mut circuit = Circuit::new(4);
        circuit.h(Qubit::new(0)).unwrap();
        circuit.cz(Qubit::new(0), Qubit::new(1)).unwrap();
        circuit.cz(Qubit::new(2), Qubit::new(3)).unwrap();
        for variant in ArchVariant::ALL {
            let a = variant.architecture_for(4).with_num_aods(2);
            assert_eq!(lint_circuit(&circuit, &a), vec![], "{}", variant.name());
        }
    }

    #[test]
    fn schedule_validate_fires_on_a_non_colocated_rydberg_stage() {
        let a = arch(1);
        let layout = Layout::row_major(&a, 2, Zone::Compute).unwrap();
        let bad = CompiledProgram::new(
            a.clone(),
            2,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(
                Qubit::new(0),
                Qubit::new(1),
            )])],
        );
        assert!(check_schedule(&bad, None).is_err());
        let violations = lint_program(&bad, None, "greedy");
        assert!(violations
            .iter()
            .any(|v| v.rule == LintRule::ScheduleValidate && v.strategy == "greedy"));
        // Quiet on a valid program.
        assert!(check_schedule(&empty_program(&a), None).is_ok());
    }

    #[test]
    fn schedule_validate_fires_on_a_cz_count_mismatch() {
        let a = arch(1);
        let program = empty_program(&a);
        assert!(check_schedule(&program, Some(0)).is_ok());
        let err = check_schedule(&program, Some(3)).unwrap_err();
        assert!(err.contains("circuit has 3"), "{err}");
    }

    #[test]
    fn aod_batches_fires_on_a_double_booked_aod() {
        let a = arch(2);
        let err = check_aod_batches(&double_booked_program(&a)).unwrap_err();
        assert!(err.contains("invalid AOD batches"), "{err}");
        // Quiet when the two windows use distinct AODs.
        let ok = CompiledProgram::new(
            a.clone(),
            2,
            storage_layout(&a, 2),
            vec![Instruction::move_group(vec![
                haul(&a, 0, 0, 0),
                haul(&a, 1, 1, 1),
            ])],
        );
        assert!(check_aod_batches(&ok).is_ok());
        assert!(check_intra_aod_overlap(&ok).is_ok());
    }

    #[test]
    fn intra_aod_overlap_fires_on_parallel_windows_of_one_aod() {
        let a = arch(2);
        let err = check_intra_aod_overlap(&double_booked_program(&a)).unwrap_err();
        assert!(err.contains("double-booked"), "{err}");
        let violations = lint_program(&double_booked_program(&a), None, "multi-aod");
        assert!(violations
            .iter()
            .any(|v| v.rule == LintRule::IntraAodOverlap));
    }

    #[test]
    fn intra_aod_overlap_allows_one_aod_in_successive_move_groups() {
        let a = arch(2);
        let program = CompiledProgram::new(
            a.clone(),
            2,
            storage_layout(&a, 2),
            vec![
                Instruction::move_group(vec![haul(&a, 0, 0, 0)]),
                Instruction::move_group(vec![haul(&a, 0, 1, 1)]),
            ],
        );
        assert!(check_schedule(&program, None).is_ok());
        assert!(check_intra_aod_overlap(&program).is_ok());
    }

    #[test]
    fn intra_aod_overlap_ignores_an_empty_coll_move_on_a_busy_aod() {
        let a = arch(2);
        let program = CompiledProgram::new(
            a.clone(),
            2,
            storage_layout(&a, 2),
            vec![Instruction::move_group(vec![
                haul(&a, 0, 0, 0),
                CollMove::new(AodId::new(0), vec![]),
            ])],
        );
        assert!(check_intra_aod_overlap(&program).is_ok());
    }

    #[test]
    fn intra_aod_overlap_names_the_first_double_booked_aod() {
        // Groups before and after the offending one are clean. Within it,
        // AOD 1 (positions 0 and 3) is named although AOD 0 (positions 1
        // and 2) repeats sooner: the first coll-move with a later twin wins.
        let a = arch(2);
        let program = CompiledProgram::new(
            a.clone(),
            4,
            storage_layout(&a, 4),
            vec![
                Instruction::move_group(vec![haul(&a, 0, 0, 0), haul(&a, 1, 1, 1)]),
                Instruction::move_group(vec![
                    haul(&a, 1, 0, 0),
                    haul(&a, 0, 1, 1),
                    haul(&a, 0, 2, 0),
                    haul(&a, 1, 3, 1),
                ]),
                Instruction::move_group(vec![haul(&a, 0, 2, 0)]),
            ],
        );
        let err = check_intra_aod_overlap(&program).unwrap_err();
        assert_eq!(err, "AOD aod1 double-booked");
    }

    #[test]
    fn storage_before_interaction_fires_on_a_late_storage_window() {
        let a = arch(2);
        let compute_bound = Instruction::move_group(vec![CollMove::new(
            AodId::new(0),
            vec![SiteMove::new(
                Qubit::new(0),
                site(&a, Zone::Storage, 0, 0),
                site(&a, Zone::Compute, 0, 0),
            )],
        )]);
        let storage_bound = Instruction::move_group(vec![CollMove::new(
            AodId::new(1),
            vec![SiteMove::new(
                Qubit::new(1),
                site(&a, Zone::Storage, 1, 0),
                site(&a, Zone::Storage, 1, 1),
            )],
        )]);
        let layout = storage_layout(&a, 2);
        let bad = CompiledProgram::new(
            a.clone(),
            2,
            layout.clone(),
            vec![compute_bound.clone(), storage_bound.clone()],
        );
        let err = check_storage_before_interaction(&bad).unwrap_err();
        assert!(err.contains("storage-bound window"), "{err}");
        // Quiet when the storage-bound window comes first (move-in-first)…
        let ok = CompiledProgram::new(
            a.clone(),
            2,
            layout.clone(),
            vec![storage_bound.clone(), compute_bound.clone()],
        );
        assert!(check_storage_before_interaction(&ok).is_ok());
        // …or when a Rydberg stage separates the transition.
        let staged = CompiledProgram::new(
            a.clone(),
            2,
            layout,
            vec![compute_bound, Instruction::rydberg(vec![]), storage_bound],
        );
        assert!(check_storage_before_interaction(&staged).is_ok());
    }

    #[test]
    fn fidelity_dominance_fires_when_auto_moves_more_than_a_member() {
        let a = arch(1);
        let auto = one_move_program(&a);
        let member = empty_program(&a);
        let err = check_fidelity_dominance(&auto, &[("greedy", &member)]).unwrap_err();
        assert!(err.contains("worse than member greedy"), "{err}");
        // Quiet when auto replays the member byte-identically.
        assert!(check_fidelity_dominance(&member, &[("greedy", &member)]).is_ok());
        // And with no members there is nothing to dominate.
        assert!(check_fidelity_dominance(&auto, &[]).is_ok());
    }

    #[test]
    fn free_site_agreement_fires_under_an_inadmissible_bias() {
        let a = arch(1);
        let grid = a.grid().clone();
        let compute: Vec<SiteId> = grid.sites_in(Zone::Compute).collect();
        let far = *compute.last().unwrap();
        let anchor = grid.position(compute[0]);
        let mut harness = FreeSiteHarness::new(a.clone(), 4);
        // An inadmissible claim: bias can reach -1000 but min_bias says 0,
        // so the pruned search cuts off before examining the far site.
        let trap = move |s: SiteId, _: Point| if s == far { -1000.0 } else { 0.0 };
        let none = Attractors::default();
        let err =
            check_free_site_agreement_with(&mut harness, &[anchor], 0.0, none, &trap).unwrap_err();
        assert!(err.contains("pruned search found"), "{err}");
        // Quiet under an honest zero bias.
        let mut harness = FreeSiteHarness::new(a, 4);
        assert!(
            check_free_site_agreement_with(&mut harness, &[anchor], 0.0, none, &|_, _| 0.0).is_ok()
        );
    }

    #[test]
    fn free_site_agreement_fires_under_an_inadmissible_attractor_claim() {
        let a = Architecture::for_qubits(64);
        let grid = a.grid().clone();
        let compute: Vec<SiteId> = grid.sites_in(Zone::Compute).collect();
        let anchor = grid.position(compute[0]);
        let far = [(1.0, grid.position(*compute.last().unwrap()))];
        // The claimed attractor penalty exceeds the (zero) bias, so the
        // walk starts at the far corner and cuts off before the anchor.
        let claim = Attractors::new(&far, &[]);
        let mut harness = FreeSiteHarness::new(a, 4);
        let err = check_free_site_agreement_with(&mut harness, &[anchor], 0.0, claim, &|_, _| 0.0)
            .unwrap_err();
        assert!(err.contains("pruned search found"), "{err}");
        // Quiet when the bias is the claimed penalty.
        let penalty = move |_: SiteId, pos: Point| claim.penalty(pos);
        assert!(
            check_free_site_agreement_with(&mut harness, &[anchor], 0.0, claim, &penalty).is_ok()
        );
    }

    #[test]
    fn free_site_attractor_agreement_holds_on_churned_grids() {
        // Every third site occupied and every seventh planned but still
        // vacant: arms skip occupied runs and the vacant preference
        // engages, at sizes with one and two bitset words per row.
        for n in [64, 300, 1024] {
            let a = Architecture::for_qubits(n);
            let grid = a.grid().clone();
            let mut harness = FreeSiteHarness::new(a, n);
            let mut next = 0;
            for site in grid.all_sites() {
                if site.index() % 3 == 0 && next < n {
                    harness.occupy(Qubit::new(next), site);
                    next += 1;
                } else if site.index() % 7 == 0 {
                    harness.plan(Qubit::new(n + site.index() as u32), site);
                }
            }
            let mut anchors: Vec<Point> = [Zone::Compute, Zone::Storage]
                .into_iter()
                .flat_map(|zone| grid.sites_in(zone).step_by(37))
                .map(|site| grid.position(site))
                .collect();
            anchors.push(Point::new(-30e-6, 1e-3));
            assert_eq!(
                check_free_site_attractor_agreement(&mut harness, &anchors),
                Ok(()),
                "n={n}"
            );
        }
    }

    /// Every third site occupied, every seventh planned but still vacant,
    /// and every eleventh occupied but no longer planned: arms skip
    /// occupied runs, and plan-free sites may or may not be vacant. The
    /// anchors include the eleventh sites, where the nearest plan-free
    /// site is occupied.
    fn churned_harness(n: u32) -> (FreeSiteHarness, Vec<Point>) {
        let a = Architecture::for_qubits(n);
        let grid = a.grid().clone();
        let mut harness = FreeSiteHarness::new(a, 2 * n + grid.num_sites() as u32);
        let mut next = 0;
        for site in grid.all_sites() {
            if site.index() % 3 == 0 && next < n {
                harness.occupy(Qubit::new(next), site);
                next += 1;
            } else if site.index() % 7 == 0 {
                harness.plan(Qubit::new(n + site.index() as u32), site);
            } else if site.index() % 11 == 0 && next < 2 * n {
                harness.occupy(Qubit::new(next), site);
                harness.unplan(Qubit::new(next), site);
                next += 1;
            }
        }
        let mut anchors: Vec<Point> = [Zone::Compute, Zone::Storage]
            .into_iter()
            .flat_map(|zone| grid.sites_in(zone).step_by(11))
            .map(|site| grid.position(site))
            .collect();
        anchors.push(Point::new(-30e-6, 1e-3));
        (harness, anchors)
    }

    #[test]
    fn free_site_oracle_agreement_holds_on_churned_grids() {
        for n in [64, 300, 1024] {
            let (mut harness, anchors) = churned_harness(n);
            assert_eq!(
                check_free_site_oracle_agreement_with(
                    &mut harness,
                    &anchors,
                    &FreeSiteHarness::nearest
                ),
                Ok(()),
                "n={n}"
            );
        }
    }

    #[test]
    fn free_site_agreement_fires_under_a_broken_distance_oracle() {
        // An oracle that forgets the vacant-site preference: the nearest
        // plan-free site, occupied or not, charged like the real one.
        let forgets_vacancy = |h: &mut FreeSiteHarness, zone: Zone, anchor: Point| {
            h.nearest(zone, anchor);
            let grid = h.grid().clone();
            grid.sites_in(zone)
                .filter(|&s| h.planned_len(s) == 0)
                .map(|s| (grid.position(s).distance(anchor), s))
                .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
                .map(|(_, s)| s)
        };
        let (mut harness, anchors) = churned_harness(64);
        let err = check_free_site_oracle_agreement_with(&mut harness, &anchors, &forgets_vacancy)
            .unwrap_err();
        assert!(err.contains("distance oracle found"), "{err}");
        // One that answers right but charges the query twice.
        let charges_twice = |h: &mut FreeSiteHarness, zone: Zone, anchor: Point| {
            h.nearest(zone, anchor);
            h.nearest(zone, anchor)
        };
        let (mut harness, anchors) = churned_harness(64);
        let err = check_free_site_oracle_agreement_with(&mut harness, &anchors, &charges_twice)
            .unwrap_err();
        assert!(err.contains("left the counters"), "{err}");
        // Quiet under the harness's own oracle.
        let (mut harness, anchors) = churned_harness(64);
        assert_eq!(
            check_free_site_oracle_agreement_with(
                &mut harness,
                &anchors,
                &FreeSiteHarness::nearest
            ),
            Ok(())
        );
    }

    #[test]
    fn free_site_agreement_is_quiet_on_compiled_programs() {
        let a = arch(2);
        let program = one_move_program(&a);
        assert!(check_free_site_agreement(&program).is_ok());
    }

    #[test]
    fn corpus_generator_is_deterministic_and_covers_the_cell_grid() {
        let a = CorpusInstance::generate(17);
        let b = CorpusInstance::generate(17);
        assert_eq!(a, b);
        assert!((4..=10).contains(&a.num_qubits));
        assert!(!a.ops.is_empty());
        // The seed-derived cell cycles AODs 1-4 and all four variants.
        let mut aods = std::collections::BTreeSet::new();
        let mut variants = std::collections::BTreeSet::new();
        for seed in 0..16 {
            let i = CorpusInstance::generate(seed);
            aods.insert(i.num_aods);
            variants.insert(i.arch.name());
        }
        assert_eq!(aods.into_iter().collect::<Vec<_>>(), vec![1, 2, 3, 4]);
        assert_eq!(variants.len(), 4);
        // Every 16th seed goes through the QASM importer.
        assert!(CorpusInstance::generate(16).via_qasm);
        assert!(!CorpusInstance::generate(17).via_qasm);
        assert_eq!(
            CorpusInstance::generate(16).circuit().unwrap().num_gates(),
            CorpusInstance::generate(16).ops.len()
        );
    }

    #[test]
    fn shrinking_is_deterministic_and_reproducers_are_byte_identical() {
        let instance = CorpusInstance::generate(42);
        assert!(instance.ops.len() > 2);
        let synthetic = |i: &CorpusInstance| {
            if i.ops.is_empty() {
                vec![]
            } else {
                vec![LintViolation {
                    rule: LintRule::AodBatches,
                    strategy: "greedy".to_string(),
                    message: format!("synthetic failure at {} gates", i.ops.len()),
                }]
            }
        };
        let (first, v1) = shrink_instance(&instance, synthetic);
        let (second, v2) = shrink_instance(&instance, synthetic);
        assert_eq!(first, second);
        assert_eq!(v1, v2);
        assert_eq!(first.ops.len(), 1, "halving walks down to one gate");

        // Persisting the same failure twice produces identical bytes.
        let dir_a = std::env::temp_dir().join(format!("pm-lint-a-{}", std::process::id()));
        let dir_b = std::env::temp_dir().join(format!("pm-lint-b-{}", std::process::id()));
        let failure = CampaignFailure {
            instance: first,
            violations: v1,
        };
        let stem_a = failure.persist(&dir_a).unwrap();
        let stem_b = failure.persist(&dir_b).unwrap();
        assert_eq!(stem_a, stem_b);
        assert_eq!(stem_a, "seed42-aod-batches");
        for ext in ["qasm", "json"] {
            let a = std::fs::read(dir_a.join(format!("{stem_a}.{ext}"))).unwrap();
            let b = std::fs::read(dir_b.join(format!("{stem_b}.{ext}"))).unwrap();
            assert_eq!(a, b, "{ext} bytes differ");
        }
        // The persisted pair replays through the real linter (and this
        // synthetic case is genuinely clean under it).
        let replayed = replay_reproducer(&dir_a.join(format!("{stem_a}.json"))).unwrap();
        assert_eq!(replayed, vec![]);
        for dir in [dir_a, dir_b] {
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn small_campaigns_are_deterministic() {
        let config = CampaignConfig {
            cases: 6,
            base_seed: 100,
            out_dir: None,
        };
        let (first, _) = run_campaign(&config);
        let (second, _) = run_campaign(&config);
        assert_eq!(first, second);
        assert_eq!(first.cases, 6);
        assert!(first.clean, "seeds 100-105 lint clean");
    }

    #[test]
    fn service_logs_lint_compile_frames_and_skip_the_rest() {
        let log = concat!(
            r#"{"id": 1, "op": "compile", "benchmark": {"family": "BV", "qubits": 6}, "aods": 2}"#,
            "\n",
            r#"{"id": 2, "op": "stats"}"#,
            "\n",
            "not json at all\n",
            "\n",
            r#"{"id": 3, "qasm": "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncz q[0], q[1];\n"}"#,
            "\n",
            r#"{"id": 4, "qasm": "OPENQASM 2.0;\nqreg q[2];\nccx q[0];\n"}"#,
            "\n",
        );
        let report = lint_service_log(log);
        assert_eq!(report.lines, 5, "blank line is not counted");
        assert_eq!(report.linted, 2, "benchmark + inline qasm frames");
        assert_eq!(report.skipped, 3, "stats frame, garbage, rejected qasm");
        assert_eq!(report.violations, vec![]);
    }

    #[test]
    fn reproducer_configs_reject_out_of_range_fields() {
        let config = |seed: &str, num_aods: &str| {
            format!(
                r#"{{"seed": {seed}, "rule": "aod-batches", "strategy": "greedy", "num_aods": {num_aods}, "arch": "standard", "message": "m", "qasm": "x.qasm"}}"#
            )
        };
        // (seed, num_aods, expected error substring; None = parses).
        let rows: [(&str, &str, Option<&str>); 6] = [
            ("7", "2", None),
            ("0", "1", None),
            ("-1", "2", Some(r#""seed" must be at least 0, got -1"#)),
            ("7", "0", Some(r#""num_aods" must be at least 1, got 0"#)),
            ("7", "-2", Some(r#""num_aods" must be at least 1, got -2"#)),
            ("7", "\"2\"", Some(r#"integer field "num_aods""#)),
        ];
        for (seed, num_aods, expected) in rows {
            let parsed = ReproducerConfig::parse(&config(seed, num_aods));
            match expected {
                None => {
                    let parsed = parsed.unwrap();
                    assert_eq!(parsed.seed.to_string(), seed);
                    assert_eq!(parsed.num_aods.to_string(), num_aods);
                }
                Some(message) => {
                    let err = parsed.unwrap_err();
                    assert!(err.contains(message), "{seed}/{num_aods}: {err}");
                }
            }
        }
    }

    #[test]
    fn lint_rule_names_round_trip() {
        for rule in LintRule::ALL {
            assert_eq!(LintRule::from_name(rule.name()), Some(rule));
            assert_eq!(rule.to_string(), rule.name());
        }
        assert_eq!(LintRule::from_name("nonsense"), None);
    }
}
