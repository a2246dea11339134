//! The compile workloads (`qaoa-route`, `qft-stage`): every cell compiled,
//! validated and scored round-robin for the measured time.

use crate::cells::{build_cells, check_cz_multiset, compile_and_score, Cell, CellSpec, Score};
use crate::stats::{geomean, median, tail_percentile};
use crate::{alloc, time_setup, Report};
use powermove_benchmarks::BenchmarkFamily::{QaoaRandom, QaoaRegular3, QaoaRegular4, Qft};
use std::time::Instant;

/// QAOA on 3- and 4-regular graphs at 256 and 1024 qubits, on 1 and 4 AODs,
/// under every routing strategy: routing dominates, staging is cheap.
pub fn qaoa_route_specs(threads: usize) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for family in [QaoaRegular3, QaoaRegular4] {
        for qubits in [256, 1024] {
            for aods in [1, 4] {
                for routing in ["greedy", "lookahead", "multi-aod", "auto"] {
                    specs.push(CellSpec {
                        family,
                        qubits,
                        aods,
                        routing,
                        threads,
                    });
                }
            }
        }
    }
    specs
}

/// QFT at 64–256 qubits plus dense QAOA-random at 64–128 qubits, greedy and
/// auto, on 1 and 4 AODs: the stage scheduler dominates.
pub fn qft_stage_specs(threads: usize) -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for (family, qubits) in [
        (Qft, 64),
        (Qft, 128),
        (Qft, 256),
        (QaoaRandom, 64),
        (QaoaRandom, 128),
    ] {
        for aods in [1, 4] {
            for routing in ["greedy", "auto"] {
                specs.push(CellSpec {
                    family,
                    qubits,
                    aods,
                    routing,
                    threads,
                });
            }
        }
    }
    specs
}

/// Compile times of every cell and the score every compile reproduced.
pub struct CellRuns {
    pub samples: Vec<Vec<f64>>,
    pub scores: Vec<Score>,
    /// Every timed compile, and the wall time of the timed rounds.
    pub all: Vec<f64>,
    pub wall: f64,
}

/// One timed compile: the cell, its milliseconds and its check.
type Timed = (usize, f64, Result<(), String>);

/// A checked warm-up round, then `clients` threads each compiling whole
/// rounds over every cell (each starting at a different cell) until
/// `seconds` have passed and each ran at least `min_rounds`. Every warm-up
/// program is checked in full; later compiles must reproduce its counts and
/// T_exe exactly. `None` when a cell failed to compile.
pub fn run_cells(
    report: &mut Report,
    cells: &[Cell],
    seconds: f64,
    min_rounds: usize,
    clients: usize,
) -> Option<CellRuns> {
    let mut scores = Vec::with_capacity(cells.len());
    for cell in cells {
        match compile_and_score(cell) {
            Ok((program, score)) => {
                report.check(check_cz_multiset(cell, &program));
                scores.push(score);
            }
            Err(e) => report.check(Err(e)),
        }
    }
    if scores.len() < cells.len() {
        return None;
    }
    let scores_ref = &scores;
    let start = Instant::now();
    let timed: Vec<Vec<Timed>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..clients)
            .map(|client| {
                scope.spawn(move || {
                    let offset = client * cells.len() / clients;
                    let mut out = Vec::with_capacity(1 << 12);
                    let mut rounds = 0;
                    while rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
                        for k in 0..cells.len() {
                            let i = (k + offset) % cells.len();
                            let begin = Instant::now();
                            let result = compile_and_score(&cells[i]);
                            let ms = begin.elapsed().as_secs_f64() * 1e3;
                            let check = match result {
                                Ok((_, score)) if score == scores_ref[i] => Ok(()),
                                Ok(_) => Err(format!(
                                    "{}: a repeated compile changed the program's counts or T_exe",
                                    cells[i].name
                                )),
                                Err(e) => Err(e),
                            };
                            out.push((i, ms, check));
                        }
                        rounds += 1;
                    }
                    out
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|client| client.join().expect("a compile client panicked"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let mut samples = vec![Vec::new(); cells.len()];
    let mut all = Vec::with_capacity(1 << 16);
    for (i, ms, check) in timed.into_iter().flatten() {
        report.check(check);
        samples[i].push(ms);
        all.push(ms);
    }
    Some(CellRuns {
        samples,
        scores,
        all,
        wall,
    })
}

/// Prints one row per cell and reports `compile_ms_geomean` (per-cell
/// medians), `exec_time_us_geomean` and `neg_log10_fidelity_mean`.
pub fn report_cells(report: &mut Report, cells: &[Cell], runs: &CellRuns) {
    let mut medians = Vec::with_capacity(cells.len());
    println!("cell | median compile ms | samples | T_exe us | -log10 F");
    for ((cell, samples), score) in cells.iter().zip(&runs.samples).zip(&runs.scores) {
        let ms = median(samples);
        println!(
            "{} | {ms:.3} | {} | {:.1} | {:.4}",
            cell.name,
            samples.len(),
            score.exec_time_us,
            score.neg_log10_fidelity
        );
        medians.push(ms);
    }
    let exec_times: Vec<f64> = runs.scores.iter().map(|s| s.exec_time_us).collect();
    let neg_log10_fidelity = runs
        .scores
        .iter()
        .map(|s| s.neg_log10_fidelity)
        .sum::<f64>()
        / runs.scores.len() as f64;
    report.metric("compile_ms_geomean", geomean(&medians), "ms");
    report.metric("exec_time_us_geomean", geomean(&exec_times), "us");
    report.metric("neg_log10_fidelity_mean", neg_log10_fidelity, "log10");
}

/// Runs a compile workload; every compile is one request.
pub fn run(specs: &[CellSpec], seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut build = |seed| build_cells(specs, seed).0;
    let mut setup_seconds = Vec::new();
    let cells = time_setup(&mut build, seed, 0, &mut setup_seconds);

    alloc::reset_peak_heap();
    // One client: each compile already fans out over the pool.
    let runs = run_cells(&mut report, &cells, seconds, 1, 1);
    let peak_heap_mib = alloc::peak_heap_mib();
    time_setup(&mut build, seed, 1, &mut setup_seconds);
    let Some(runs) = runs else { return report };

    report_cells(&mut report, &cells, &runs);
    let (p99, percentile) = tail_percentile(&runs.all, 99.0);
    println!(
        "{} compiles in {:.2} s, {} per cell; request_ms_p99 is p{percentile:.1}",
        runs.all.len(),
        runs.wall,
        runs.all.len() / cells.len()
    );
    report.metric("request_ms_p50", median(&runs.all), "ms");
    report.metric("request_ms_p99", p99, "ms");
    report.metric("requests_per_s", runs.all.len() as f64 / runs.wall, "1/s");
    report.metric("peak_heap_mib", peak_heap_mib, "MiB");
    report.metric("setup_s", median(&setup_seconds), "s");
    report
}
