//! The benchmark-regression gate: runs the whole gated backend × suite
//! matrix in one run, with repeat-run wall-clock sampling, and compares the
//! results against the checked-in `bench/baseline.json` (schema v2),
//! exiting non-zero on any regression or coverage drift.
//!
//! Usage:
//!
//! ```text
//! bench-gate [--repeats <n>] [--baseline <path>] [--json <path>]
//!            [--update] [--filter <substr>]
//!            [--fidelity-tol <rel>] [--exec-tol <rel>]
//!            [--compile-tol <rel>] [--compile-floor <seconds>]
//! ```
//!
//! * `--repeats` — compile-time samples per cell (default 3; exact metrics
//!   are single-run);
//! * `--json` — additionally record the full `RunResult` report;
//! * `--update` — rewrite the whole baseline from this run instead of
//!   gating (commit the refreshed file); it cannot be combined with
//!   `--filter`, since a partial run cannot stand for the whole file;
//! * `--filter` — run only benchmarks whose name contains the substring,
//!   gated against the matching baseline cells (for local runs);
//! * tolerance flags — override the `GateTolerance` defaults.
//!
//! Every cell carries the label of its gate group (`table2`, `fig6/sweep`,
//! `fig7/multi-aod`, `lint/corpus`); an unfiltered run answers for every
//! baseline entry, so a cell the run did not produce fails as MISSING.
//!
//! Exit codes: `0` pass (improvements allowed), `1` regression or missing
//! entry, `2` usage/baseline errors.

use powermove_bench::gate::{compare, Baseline, GateReport, GateTolerance, Verdict};
use powermove_bench::{
    run_shard, take_f64_flag, take_flag, take_json_path, take_switch, take_usize_flag, write_json,
    BackendRegistry, RunResult, ShardRegistry, SuiteShard, DEFAULT_REPEATS, DEFAULT_SEED,
};
use std::path::PathBuf;

/// Extracts the shared tolerance flags.
fn take_tolerance(args: &mut Vec<String>) -> GateTolerance {
    let mut tolerance = GateTolerance::default();
    if let Some(v) = take_f64_flag(args, "--fidelity-tol") {
        tolerance.fidelity = v;
    }
    if let Some(v) = take_f64_flag(args, "--exec-tol") {
        tolerance.exec_time = v;
    }
    if let Some(v) = take_f64_flag(args, "--compile-tol") {
        tolerance.compile_time = v;
    }
    if let Some(v) = take_f64_flag(args, "--compile-floor") {
        tolerance.compile_time_floor_s = v;
    }
    tolerance
}

/// Prints the verdict table and summary line; returns whether the gate
/// passed.
fn render_report(report: &GateReport) -> bool {
    for check in &report.checks {
        match check.verdict {
            Verdict::Pass => {}
            Verdict::Improved => println!(
                "IMPROVED   {:<22} {:<18} {:<18} {:.6e} -> {:.6e}",
                check.compiler, check.benchmark, check.metric, check.baseline, check.current
            ),
            Verdict::Regressed => println!(
                "REGRESSED  {:<22} {:<18} {:<18} {:.6e} -> {:.6e}",
                check.compiler, check.benchmark, check.metric, check.baseline, check.current
            ),
        }
    }
    for (compiler, benchmark) in &report.missing_in_current {
        println!("MISSING    {compiler:<22} {benchmark:<18} (in baseline, not in this run)");
    }
    for (compiler, benchmark) in &report.missing_in_baseline {
        println!("UNGATED    {compiler:<22} {benchmark:<18} (in this run, not in baseline)");
    }
    let regressions = report.regressions().count();
    let improvements = report.improvements().count();
    println!(
        "bench-gate: {} checks, {} regressed, {} improved, {} missing, {} ungated",
        report.checks.len(),
        regressions,
        improvements,
        report.missing_in_current.len(),
        report.missing_in_baseline.len()
    );
    if report.passed() {
        if improvements > 0 {
            println!("bench-gate: PASS (improvements found — consider `bench-gate --update`)");
        } else {
            println!("bench-gate: PASS");
        }
        true
    } else {
        println!("bench-gate: FAIL");
        false
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json_path = take_json_path(&mut args);
    let baseline_path = take_flag(&mut args, "--baseline")
        .map_or_else(|| PathBuf::from("bench/baseline.json"), PathBuf::from);
    let update = take_switch(&mut args, "--update");
    let repeats = take_usize_flag(&mut args, "--repeats").unwrap_or(DEFAULT_REPEATS);
    let filter = take_flag(&mut args, "--filter").unwrap_or_default();
    let tolerance = take_tolerance(&mut args);
    if !args.is_empty() {
        eprintln!("unrecognized arguments: {args:?}");
        std::process::exit(2);
    }
    if update && !filter.is_empty() {
        eprintln!("bench-gate: --update rewrites the whole baseline and cannot take --filter");
        std::process::exit(2);
    }
    // Loaded before the run, so a missing or corrupt file fails fast. Only
    // the gate needs it: `--update` writes a fresh file from scratch.
    let baseline = if update {
        None
    } else {
        Some(Baseline::load(&baseline_path).unwrap_or_else(|e| {
            eprintln!("bench-gate: {e}");
            eprintln!("bench-gate: run with --update to record a fresh baseline");
            std::process::exit(2);
        }))
    };

    let groups: Vec<SuiteShard> = ShardRegistry::standard(DEFAULT_SEED)
        .iter()
        .map(|s| s.filtered(&filter))
        .collect();
    let total_cells: usize = groups
        .iter()
        .map(|s| s.cells().len() * s.backends().len())
        .sum();
    if total_cells == 0 {
        // A vacuous gate (0 checks) must not report PASS: a typo'd filter
        // would otherwise silently disable the gate.
        eprintln!("bench-gate: --filter {filter:?} matches no benchmark instance");
        std::process::exit(2);
    }

    let registry = BackendRegistry::standard().with_routing_variants();
    println!(
        "bench-gate: {} cells, {} compile-time sample(s) per cell",
        total_cells,
        repeats.max(1)
    );
    let started = std::time::Instant::now();
    let runs: Vec<(String, Vec<RunResult>)> = groups
        .iter()
        .map(|group| {
            let results = run_shard(group, &registry, repeats);
            (group.name().to_string(), results)
        })
        .collect();
    println!(
        "bench-gate: matrix finished in {:.1}s",
        started.elapsed().as_secs_f64()
    );
    if let Some(path) = json_path {
        let all_results: Vec<&RunResult> = runs.iter().flat_map(|(_, r)| r.iter()).collect();
        write_json(&path, &all_results);
    }

    let fresh = Baseline::from_shard_runs(&runs);
    let Some(baseline) = baseline else {
        write_json(&baseline_path, &fresh);
        println!(
            "bench-gate: baseline rewritten with {} entries — review and commit it",
            fresh.entries.len()
        );
        return;
    };
    // An unfiltered run holds the entire baseline accountable (stale
    // entries fail as missing); a filtered run gates only its slice.
    let baseline = if filter.is_empty() {
        baseline
    } else {
        let cells: Vec<(String, String)> = groups.iter().flat_map(SuiteShard::cell_ids).collect();
        baseline.scoped(&cells)
    };
    let report = compare(&baseline, &fresh.entries, &tolerance);
    if !render_report(&report) {
        std::process::exit(1);
    }
}
