//! The benchmark-regression gate behind the `bench-gate` binary.
//!
//! `bench-gate` runs the whole gated backend × suite matrix ([`run_shard`]
//! over every group), converts the results into [`BaselineEntry`] records,
//! and compares them against the checked-in `bench/baseline.json` with a
//! configurable [`GateTolerance`]:
//!
//! * **fidelity** — higher is better, relative tolerance;
//! * **execution time** — lower is better, relative tolerance;
//! * **compile wall-clock** — lower is better, compared **statistically**:
//!   each side is a set of repeat-run samples ([`SampleStats`]), and the
//!   current median regresses only when it exceeds the baseline's
//!   confidence-interval upper bound by more than the (now modest) relative
//!   tolerance. An absolute floor still short-circuits comparisons where
//!   both medians are scheduler noise;
//! * **stages / transfers** — lower is better, exact and single-run (the
//!   compilers are deterministic, so any drift is a real behaviour change);
//! * **CZ gate count** — must match exactly (a mismatch means the benchmark
//!   suite itself changed and the baseline needs a refresh).
//!
//! Every metric gets a [`Verdict`]; entries present on only one side are
//! reported as missing. The gate passes only when there is no regression
//! and no missing entry — improvements pass (with a nudge to refresh the
//! baseline via `bench-gate --update`).
//!
//! The baseline file is **schema v2**: a top-level `version` field, one
//! `shard` label per entry, and the compile wall clock stored as a
//! `{"samples": [...], "median": ..., "ci_low": ..., "ci_high": ...}`
//! object. Any other version, or none, is rejected; `bench-gate --update`
//! rewrites the whole file from a full run.
//!
//! [`run_shard`]: crate::run_shard

use crate::stats::SampleStats;
use crate::RunResult;
use serde::{Serialize, Serializer, Value};
use std::fmt;
use std::path::Path;

/// Default relative tolerance for fidelity comparisons.
pub const DEFAULT_FIDELITY_TOLERANCE: f64 = 0.02;
/// Default relative tolerance for execution-time comparisons.
pub const DEFAULT_EXEC_TIME_TOLERANCE: f64 = 0.05;
/// Default relative slack applied *on top of* the baseline's
/// confidence-interval bound for compile wall-clock comparisons. Repeat-run
/// medians absorb scheduler noise and the standard backends compile
/// single-threaded (so core counts don't skew the clock), which let this
/// drop from the pre-statistics 4× slack (`3.0`) to 50 %. The interval
/// does **not** absorb raw single-thread speed differences between
/// machines: record the baseline on hardware comparable to whatever runs
/// the gate, or widen `--compile-tol` for a heterogeneous fleet.
pub const DEFAULT_COMPILE_TIME_TOLERANCE: f64 = 0.5;
/// Compile times where both sides' **medians** sit below this floor
/// (seconds) are treated as noise and pass unconditionally. Repeat-run
/// medians let the floor sit at half a second (it used to be a full
/// second): real algorithmic regressions push compiles well past it, while
/// sub-floor wall clocks on shared CI runners remain dominated by scheduler
/// and core-count differences.
pub const DEFAULT_COMPILE_TIME_FLOOR_S: f64 = 0.5;
/// Schema version written by [`Baseline::serialize`]; see the module docs.
pub const BASELINE_VERSION: i64 = 2;

/// Tolerances applied by [`compare`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GateTolerance {
    /// Relative slack on fidelity (higher is better): a current value below
    /// `baseline * (1 - fidelity)` regresses.
    pub fidelity: f64,
    /// Relative slack on execution time (lower is better): a current value
    /// above `baseline * (1 + exec_time)` regresses.
    pub exec_time: f64,
    /// Relative slack on compile wall-clock time (lower is better), applied
    /// on top of the baseline's confidence-interval bound: the current
    /// median regresses above `ci_high * (1 + compile_time)` and improves
    /// below `ci_low * (1 - compile_time)`.
    pub compile_time: f64,
    /// Absolute compile-time floor in seconds; if both medians are below
    /// it, the comparison passes regardless of ratio.
    pub compile_time_floor_s: f64,
}

impl Default for GateTolerance {
    fn default() -> Self {
        GateTolerance {
            fidelity: DEFAULT_FIDELITY_TOLERANCE,
            exec_time: DEFAULT_EXEC_TIME_TOLERANCE,
            compile_time: DEFAULT_COMPILE_TIME_TOLERANCE,
            compile_time_floor_s: DEFAULT_COMPILE_TIME_FLOOR_S,
        }
    }
}

/// One benchmark × compiler cell of the baseline.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BaselineEntry {
    /// Registry id of the backend, e.g. `"powermove-storage"`.
    pub compiler: String,
    /// Benchmark name, e.g. `"QAOA-regular3-30"`.
    pub benchmark: String,
    /// Label of the group that gates this cell, e.g. `"table2"`.
    pub shard: String,
    /// Output fidelity excluding the 1Q factor.
    pub fidelity: f64,
    /// Execution time in microseconds.
    pub execution_time_us: f64,
    /// Repeat-run compilation wall-clock samples (seconds).
    pub compile_time: SampleStats,
    /// Number of Rydberg stages.
    pub stages: usize,
    /// Number of SLM↔AOD transfers.
    pub transfers: usize,
    /// Number of CZ gates (identity check: drift means the suite changed).
    pub cz_gates: usize,
}

impl BaselineEntry {
    /// Captures the gate metrics of one run under the given group label.
    #[must_use]
    fn from_run(result: &RunResult, shard: &str) -> Self {
        BaselineEntry {
            compiler: result.compiler.clone(),
            benchmark: result.benchmark.clone(),
            shard: shard.to_string(),
            fidelity: result.fidelity,
            execution_time_us: result.execution_time_us,
            compile_time: SampleStats::from_samples(result.compile_time_samples.clone()),
            stages: result.stages,
            transfers: result.transfers,
            cz_gates: result.cz_gates,
        }
    }
}

/// A parsed `bench/baseline.json` (schema v2; see the module docs).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Baseline {
    /// The recorded entries, in the order they were recorded.
    pub entries: Vec<BaselineEntry>,
}

impl Serialize for Baseline {
    /// Serializes as `{"version": 2, "entries": [...]}`.
    fn serialize<W: std::fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        out.begin_object();
        out.entry("version", &BASELINE_VERSION);
        out.entry("entries", &self.entries);
        out.end_object();
    }
}

/// Errors produced while loading a baseline file.
#[derive(Debug)]
pub enum GateError {
    /// The file could not be read.
    Io(String),
    /// The JSON was malformed or missing required fields.
    Parse(String),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Io(msg) => write!(f, "baseline I/O error: {msg}"),
            GateError::Parse(msg) => write!(f, "baseline parse error: {msg}"),
        }
    }
}

impl std::error::Error for GateError {}

fn field<'v>(object: &'v Value, key: &str, index: usize) -> Result<&'v Value, GateError> {
    object
        .get(key)
        .ok_or_else(|| GateError::Parse(format!("entry {index}: missing field `{key}`")))
}

fn f64_field(object: &Value, key: &str, index: usize) -> Result<f64, GateError> {
    field(object, key, index)?
        .as_f64()
        .ok_or_else(|| GateError::Parse(format!("entry {index}: `{key}` is not a number")))
}

fn usize_field(object: &Value, key: &str, index: usize) -> Result<usize, GateError> {
    let value = field(object, key, index)?
        .as_i64()
        .ok_or_else(|| GateError::Parse(format!("entry {index}: `{key}` is not an integer")))?;
    usize::try_from(value)
        .map_err(|_| GateError::Parse(format!("entry {index}: `{key}` is negative")))
}

fn str_field(object: &Value, key: &str, index: usize) -> Result<String, GateError> {
    Ok(field(object, key, index)?
        .as_str()
        .ok_or_else(|| GateError::Parse(format!("entry {index}: `{key}` is not a string")))?
        .to_string())
}

impl Baseline {
    /// Captures the gate metrics of a sequence of per-group runs as a new
    /// baseline, labelling every entry with its group.
    #[must_use]
    pub fn from_shard_runs(runs: &[(String, Vec<RunResult>)]) -> Self {
        Baseline {
            entries: runs
                .iter()
                .flat_map(|(shard, results)| {
                    results.iter().map(|r| BaselineEntry::from_run(r, shard))
                })
                .collect(),
        }
    }

    /// Parses the JSON text of a baseline file.
    ///
    /// Accepts the v2 schema only: `{"version": 2, "entries": [...]}` with
    /// `shard` labels and `compile_time` sample objects.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Parse`] on malformed JSON, missing/mistyped
    /// fields, or an unknown schema version.
    pub fn parse(text: &str) -> Result<Self, GateError> {
        let root = serde_json::from_str(text).map_err(|e| GateError::Parse(e.to_string()))?;
        let version = match root.get("version") {
            None => 1,
            Some(v) => v
                .as_i64()
                .ok_or_else(|| GateError::Parse("`version` is not an integer".to_string()))?,
        };
        if version != BASELINE_VERSION {
            return Err(GateError::Parse(format!(
                "unsupported baseline schema version {version} (expected {BASELINE_VERSION})"
            )));
        }
        let entries = root
            .get("entries")
            .and_then(Value::as_array)
            .ok_or_else(|| GateError::Parse("missing top-level `entries` array".to_string()))?;
        let entries = entries
            .iter()
            .enumerate()
            .map(|(index, entry)| {
                Ok(BaselineEntry {
                    compiler: str_field(entry, "compiler", index)?,
                    benchmark: str_field(entry, "benchmark", index)?,
                    shard: str_field(entry, "shard", index)?,
                    fidelity: f64_field(entry, "fidelity", index)?,
                    execution_time_us: f64_field(entry, "execution_time_us", index)?,
                    compile_time: SampleStats::from_value(field(entry, "compile_time", index)?)
                        .map_err(|e| {
                            GateError::Parse(format!("entry {index}: `compile_time` {e}"))
                        })?,
                    stages: usize_field(entry, "stages", index)?,
                    transfers: usize_field(entry, "transfers", index)?,
                    cz_gates: usize_field(entry, "cz_gates", index)?,
                })
            })
            .collect::<Result<Vec<_>, GateError>>()?;
        Ok(Baseline { entries })
    }

    /// Loads and parses a baseline file.
    ///
    /// # Errors
    ///
    /// Returns [`GateError::Io`] if the file cannot be read and
    /// [`GateError::Parse`] if its contents are malformed.
    pub fn load(path: &Path) -> Result<Self, GateError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| GateError::Io(format!("{}: {e}", path.display())))?;
        Baseline::parse(&text)
    }

    /// Looks up the entry for one compiler × benchmark cell.
    #[must_use]
    pub fn entry(&self, compiler: &str, benchmark: &str) -> Option<&BaselineEntry> {
        self.entries
            .iter()
            .find(|e| e.compiler == compiler && e.benchmark == benchmark)
    }

    /// The baseline restricted to the given `(compiler, benchmark)` cells:
    /// a `--filter` run is gated against the cells it ran, so coverage
    /// drift is checked within the filtered slice.
    #[must_use]
    pub fn scoped(&self, cells: &[(String, String)]) -> Baseline {
        Baseline {
            entries: self
                .entries
                .iter()
                .filter(|e| {
                    cells
                        .iter()
                        .any(|(c, b)| *c == e.compiler && *b == e.benchmark)
                })
                .cloned()
                .collect(),
        }
    }
}

/// Outcome of one metric comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within tolerance of the baseline.
    Pass,
    /// Better than the baseline by more than the tolerance. Worth a
    /// `bench-gate --update` so future regressions are caught from the new
    /// level.
    Improved,
    /// Worse than the baseline by more than the tolerance: the gate fails.
    Regressed,
}

/// One metric of one matrix cell compared against the baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Registry id of the backend.
    pub compiler: String,
    /// Benchmark name.
    pub benchmark: String,
    /// Metric name, e.g. `"fidelity"`.
    pub metric: &'static str,
    /// The recorded baseline value.
    pub baseline: f64,
    /// The value measured by this run.
    pub current: f64,
    /// The comparison outcome.
    pub verdict: Verdict,
}

/// The full comparison produced by [`compare`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GateReport {
    /// Every metric comparison, in matrix order.
    pub checks: Vec<MetricCheck>,
    /// `(compiler, benchmark)` cells recorded in the baseline but absent
    /// from the current run — the suite shrank, which fails the gate.
    pub missing_in_current: Vec<(String, String)>,
    /// `(compiler, benchmark)` cells produced by the current run but absent
    /// from the baseline — new coverage that needs `--update` to be gated.
    pub missing_in_baseline: Vec<(String, String)>,
}

impl GateReport {
    /// The checks that regressed.
    pub fn regressions(&self) -> impl Iterator<Item = &MetricCheck> {
        self.checks
            .iter()
            .filter(|c| c.verdict == Verdict::Regressed)
    }

    /// The checks that improved beyond tolerance.
    pub fn improvements(&self) -> impl Iterator<Item = &MetricCheck> {
        self.checks
            .iter()
            .filter(|c| c.verdict == Verdict::Improved)
    }

    /// Whether the gate passes: no regression and no missing entry on
    /// either side. Improvements do not fail the gate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.regressions().next().is_none()
            && self.missing_in_current.is_empty()
            && self.missing_in_baseline.is_empty()
    }
}

/// Higher-is-better comparison with relative tolerance.
fn check_higher(baseline: f64, current: f64, tolerance: f64) -> Verdict {
    if current < baseline * (1.0 - tolerance) {
        Verdict::Regressed
    } else if current > baseline * (1.0 + tolerance) {
        Verdict::Improved
    } else {
        Verdict::Pass
    }
}

/// Lower-is-better comparison with relative tolerance.
fn check_lower(baseline: f64, current: f64, tolerance: f64) -> Verdict {
    if current > baseline * (1.0 + tolerance) {
        Verdict::Regressed
    } else if current < baseline * (1.0 - tolerance) {
        Verdict::Improved
    } else {
        Verdict::Pass
    }
}

/// Exact comparison for deterministic integer metrics (lower is better).
fn check_exact_lower(baseline: f64, current: f64) -> Verdict {
    if current > baseline {
        Verdict::Regressed
    } else if current < baseline {
        Verdict::Improved
    } else {
        Verdict::Pass
    }
}

/// Compares a matrix run against a recorded baseline.
///
/// Every `(compiler, benchmark)` cell present on both sides contributes one
/// [`MetricCheck`] per gated metric; cells present on only one side land in
/// the report's missing lists. See the module docs for the metric policy.
#[must_use]
pub fn compare(baseline: &Baseline, current: &[BaselineEntry], tol: &GateTolerance) -> GateReport {
    let mut report = GateReport::default();
    for entry in current {
        let Some(base) = baseline.entry(&entry.compiler, &entry.benchmark) else {
            report
                .missing_in_baseline
                .push((entry.compiler.clone(), entry.benchmark.clone()));
            continue;
        };
        let mut push = |metric: &'static str, baseline: f64, current: f64, verdict: Verdict| {
            report.checks.push(MetricCheck {
                compiler: entry.compiler.clone(),
                benchmark: entry.benchmark.clone(),
                metric,
                baseline,
                current,
                verdict,
            });
        };
        push(
            "fidelity",
            base.fidelity,
            entry.fidelity,
            check_higher(base.fidelity, entry.fidelity, tol.fidelity),
        );
        push(
            "execution_time_us",
            base.execution_time_us,
            entry.execution_time_us,
            check_lower(
                base.execution_time_us,
                entry.execution_time_us,
                tol.exec_time,
            ),
        );
        // Compile wall clock: statistical comparison. The current median is
        // held against the baseline's confidence interval (plus the relative
        // slack), so run-to-run scheduler noise — which the interval of the
        // recorded samples captures — does not trip the gate, while a real
        // slowdown that pushes the median past the interval does.
        let base_median = base.compile_time.median();
        let current_median = entry.compile_time.median();
        let compile_verdict = if base_median.max(current_median) < tol.compile_time_floor_s {
            Verdict::Pass
        } else {
            let (ci_low, ci_high) = base.compile_time.ci();
            if current_median > ci_high * (1.0 + tol.compile_time) {
                Verdict::Regressed
            } else if current_median < ci_low * (1.0 - tol.compile_time) {
                Verdict::Improved
            } else {
                Verdict::Pass
            }
        };
        push(
            "compile_time_s",
            base_median,
            current_median,
            compile_verdict,
        );
        push(
            "stages",
            base.stages as f64,
            entry.stages as f64,
            check_exact_lower(base.stages as f64, entry.stages as f64),
        );
        push(
            "transfers",
            base.transfers as f64,
            entry.transfers as f64,
            check_exact_lower(base.transfers as f64, entry.transfers as f64),
        );
        // CZ gates are an identity check: any drift (either direction)
        // means the generated suite changed and the baseline is stale.
        let cz_verdict = if entry.cz_gates == base.cz_gates {
            Verdict::Pass
        } else {
            Verdict::Regressed
        };
        push(
            "cz_gates",
            base.cz_gates as f64,
            entry.cz_gates as f64,
            cz_verdict,
        );
    }
    for base in &baseline.entries {
        if !current
            .iter()
            .any(|e| e.compiler == base.compiler && e.benchmark == base.benchmark)
        {
            report
                .missing_in_current
                .push((base.compiler.clone(), base.benchmark.clone()));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checked_in_baseline_re_renders_byte_for_byte() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../bench/baseline.json");
        let text = std::fs::read_to_string(path).unwrap();
        let expected = text.strip_suffix('\n').unwrap_or(&text);
        let tree = serde_json::from_str(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&tree).unwrap(), expected);
        let typed = Baseline::parse(&text).unwrap();
        assert_eq!(serde_json::to_string_pretty(&typed).unwrap(), expected);
    }

    fn entry(compiler: &str, benchmark: &str) -> BaselineEntry {
        BaselineEntry {
            compiler: compiler.to_string(),
            benchmark: benchmark.to_string(),
            shard: "table2".to_string(),
            fidelity: 0.8,
            execution_time_us: 1000.0,
            compile_time: SampleStats::single(2.0),
            stages: 10,
            transfers: 40,
            cz_gates: 15,
        }
    }

    fn baseline() -> Baseline {
        Baseline {
            entries: vec![entry("powermove-storage", "BV-14"), entry("enola", "BV-14")],
        }
    }

    #[test]
    fn identical_runs_pass() {
        let report = compare(&baseline(), &baseline().entries, &GateTolerance::default());
        assert!(report.passed());
        assert_eq!(report.checks.len(), 12);
        assert!(report.checks.iter().all(|c| c.verdict == Verdict::Pass));
    }

    #[test]
    fn fidelity_regression_fails_and_within_tolerance_passes() {
        let tol = GateTolerance::default();
        let mut current = baseline().entries;
        current[0].fidelity = 0.8 * (1.0 - tol.fidelity) - 1e-9;
        let report = compare(&baseline(), &current, &tol);
        assert!(!report.passed());
        let regression = report.regressions().next().unwrap();
        assert_eq!(regression.metric, "fidelity");
        assert_eq!(regression.compiler, "powermove-storage");

        current[0].fidelity = 0.8 * (1.0 - tol.fidelity) + 1e-9;
        assert!(compare(&baseline(), &current, &tol).passed());
    }

    #[test]
    fn fidelity_improvement_is_reported_but_passes() {
        let mut current = baseline().entries;
        current[0].fidelity = 0.9;
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert!(report.passed());
        let improvement = report.improvements().next().unwrap();
        assert_eq!(improvement.metric, "fidelity");
        assert_eq!(improvement.verdict, Verdict::Improved);
    }

    #[test]
    fn execution_time_regression_fails() {
        let tol = GateTolerance::default();
        let mut current = baseline().entries;
        current[1].execution_time_us = 1000.0 * (1.0 + tol.exec_time) + 1e-6;
        let report = compare(&baseline(), &current, &tol);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "execution_time_us"
        );
    }

    #[test]
    fn compile_time_noise_below_floor_passes() {
        let mut base = baseline();
        base.entries[0].compile_time = SampleStats::single(0.001);
        let mut current = base.entries.clone();
        // 100x slower, but both medians below the floor: noise, not signal.
        current[0].compile_time = SampleStats::single(0.1);
        assert!(compare(&base, &current, &GateTolerance::default()).passed());
    }

    #[test]
    fn compile_time_regression_above_floor_fails() {
        let tol = GateTolerance::default();
        let mut current = baseline().entries;
        // The baseline is a single sample (degenerate interval), so the
        // bound is median * (1 + tol).
        current[0].compile_time = SampleStats::single(2.0 * (1.0 + tol.compile_time) + 0.1);
        let report = compare(&baseline(), &current, &tol);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "compile_time_s"
        );
    }

    #[test]
    fn compile_time_within_baseline_interval_passes() {
        let mut base = baseline();
        // Noisy baseline samples around 2s: interval ~ [1.6, 2.4].
        base.entries[0].compile_time = SampleStats::from_samples(vec![1.6, 2.0, 2.4]);
        let (_, ci_high) = base.entries[0].compile_time.ci();
        let tol = GateTolerance::default();

        let mut current = base.entries.clone();
        // Just inside the interval-plus-slack bound: passes …
        current[0].compile_time = SampleStats::single(ci_high * (1.0 + tol.compile_time) - 1e-9);
        assert!(compare(&base, &current, &tol).passed());
        // … just past it: regresses. The pre-statistics gate would have
        // required a full 4× blowup to notice.
        current[0].compile_time = SampleStats::single(ci_high * (1.0 + tol.compile_time) + 1e-9);
        let report = compare(&base, &current, &tol);
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "compile_time_s"
        );
        assert!(ci_high * (1.0 + tol.compile_time) < 2.0 * 4.0);
    }

    #[test]
    fn single_sample_baseline_cell_still_gates_correctly() {
        // A cell recorded with one sample (`--repeats 1`) has a degenerate [value, value] interval: the gate must still
        // pass identical runs, flag regressions past the slack, and report
        // improvements — never divide by a zero-width notch into NaN.
        let tol = GateTolerance::default();
        let mut base = baseline();
        base.entries[0].compile_time = SampleStats::single(2.0);

        let mut current = base.entries.clone();
        current[0].compile_time = SampleStats::from_samples(vec![2.1, 2.0, 1.9]);
        assert!(
            compare(&base, &current, &tol).passed(),
            "median on the value"
        );

        current[0].compile_time = SampleStats::single(2.0 * (1.0 + tol.compile_time) + 1e-6);
        let report = compare(&base, &current, &tol);
        assert!(!report.passed());
        assert_eq!(
            report.regressions().next().unwrap().metric,
            "compile_time_s"
        );

        current[0].compile_time = SampleStats::single(0.9);
        let report = compare(&base, &current, &tol);
        assert!(report.passed());
        assert!(report
            .improvements()
            .any(|c| c.metric == "compile_time_s" && !c.current.is_nan()));
    }

    #[test]
    fn compile_time_median_ignores_one_outlier_sample() {
        let base = baseline();
        let mut current = base.entries.clone();
        // One wild sample out of three: the median stays at the baseline.
        current[0].compile_time = SampleStats::from_samples(vec![2.0, 50.0, 2.0]);
        assert!(compare(&base, &current, &GateTolerance::default()).passed());
    }

    #[test]
    fn stage_count_drift_is_exact() {
        let mut current = baseline().entries;
        current[0].stages = 11;
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert_eq!(report.regressions().next().unwrap().metric, "stages");

        current[0].stages = 9;
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert!(report.passed());
        assert_eq!(report.improvements().next().unwrap().metric, "stages");
    }

    #[test]
    fn cz_gate_drift_fails_in_both_directions() {
        for cz in [14, 16] {
            let mut current = baseline().entries;
            current[0].cz_gates = cz;
            let report = compare(&baseline(), &current, &GateTolerance::default());
            assert!(!report.passed(), "cz_gates {cz} must fail");
            assert_eq!(report.regressions().next().unwrap().metric, "cz_gates");
        }
    }

    #[test]
    fn missing_entries_are_reported_on_both_sides() {
        let current = vec![
            entry("powermove-storage", "BV-14"),
            entry("powermove-storage", "QFT-18"),
        ];
        let report = compare(&baseline(), &current, &GateTolerance::default());
        assert!(!report.passed());
        assert_eq!(
            report.missing_in_current,
            vec![("enola".to_string(), "BV-14".to_string())]
        );
        assert_eq!(
            report.missing_in_baseline,
            vec![("powermove-storage".to_string(), "QFT-18".to_string())]
        );
    }

    #[test]
    fn baseline_serializes_and_parses_back_as_v2() {
        let original = baseline();
        let json = serde_json::to_string_pretty(&original).unwrap();
        assert!(json.contains("\"version\": 2"));
        assert!(json.contains("\"shard\""));
        assert!(json.contains("\"samples\""));
        let parsed = Baseline::parse(&json).unwrap();
        assert_eq!(parsed, original);
        assert_eq!(parsed.entry("enola", "BV-14").unwrap().stages, 10);
        assert_eq!(parsed.entry("enola", "BV-14").unwrap().shard, "table2");
        assert!(parsed.entry("enola", "nope").is_none());
    }

    #[test]
    fn unknown_schema_versions_are_rejected() {
        let err = Baseline::parse(r#"{"version": 99, "entries": []}"#).unwrap_err();
        assert!(err.to_string().contains("version 99"), "{err}");
        // A file without `version` is the retired v1 schema.
        let err = Baseline::parse(r#"{"entries": []}"#).unwrap_err();
        assert!(err.to_string().contains("unsupported"), "{err}");
    }

    #[test]
    fn parse_reports_missing_and_mistyped_fields() {
        assert!(matches!(
            Baseline::parse("not json"),
            Err(GateError::Parse(_))
        ));
        assert!(matches!(
            Baseline::parse(r#"{"no_entries": []}"#),
            Err(GateError::Parse(_))
        ));
        let samples = r#""compile_time": {"samples": [1.0]}"#;
        let missing = format!(r#"{{"version": 2, "entries": [{{"compiler": "x", {samples}}}]}}"#);
        let err = Baseline::parse(&missing).unwrap_err();
        assert!(err.to_string().contains("benchmark"));
        let mistyped = format!(
            r#"{{"version": 2, "entries": [{{"compiler": "x", "benchmark": "y",
            "shard": "s", "fidelity": "high", "execution_time_us": 1.0, {samples},
            "stages": 1, "transfers": 1, "cz_gates": 1}}]}}"#
        );
        let err = Baseline::parse(&mistyped).unwrap_err();
        assert!(err.to_string().contains("fidelity"));
        let negative = format!(
            r#"{{"version": 2, "entries": [{{"compiler": "x", "benchmark": "y",
            "shard": "s", "fidelity": 1.0, "execution_time_us": 1.0, {samples},
            "stages": -1, "transfers": 1, "cz_gates": 1}}]}}"#
        );
        assert!(Baseline::parse(&negative).is_err());
        let bad_samples = r#"{"version": 2, "entries": [{"compiler": "x",
            "benchmark": "y", "shard": "s", "fidelity": 1.0,
            "execution_time_us": 1.0, "compile_time": {"samples": []},
            "stages": 1, "transfers": 1, "cz_gates": 1}]}"#;
        let err = Baseline::parse(bad_samples).unwrap_err();
        assert!(err.to_string().contains("compile_time"), "{err}");
    }

    #[test]
    fn scoped_keeps_only_the_given_cells() {
        let base = baseline();
        let cells = vec![("enola".to_string(), "BV-14".to_string())];
        let scoped = base.scoped(&cells);
        assert_eq!(scoped.entries.len(), 1);
        assert_eq!(scoped.entries[0].compiler, "enola");
        assert!(base.scoped(&[]).entries.is_empty());
    }

    #[test]
    fn tolerance_defaults_are_sane() {
        let tol = GateTolerance::default();
        assert!(tol.fidelity > 0.0 && tol.fidelity < 0.5);
        assert!(tol.exec_time > 0.0 && tol.exec_time < 0.5);
        assert!(
            tol.compile_time > 0.0 && tol.compile_time < 3.0,
            "statistical gating shrank the wall-clock slack below the old 4x"
        );
        assert!(tol.compile_time_floor_s > 0.0);
    }

    #[test]
    fn empty_baseline_vs_empty_run_passes() {
        let report = compare(&Baseline::default(), &[], &GateTolerance::default());
        assert!(report.passed());
        assert!(report.checks.is_empty());
    }
}
