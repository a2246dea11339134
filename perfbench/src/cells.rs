//! Benchmark cells — one circuit, machine and configuration each — the
//! compile-and-score operation every workload times, and the output checks.

use powermove::{CompilerConfig, RoutingConfig};
use powermove_benchmarks::{generate, BenchmarkFamily};
use powermove_circuit::{Circuit, CzGate};
use powermove_fidelity::evaluate_trace;
use powermove_hardware::Architecture;
use powermove_schedule::{simulate, CompiledProgram, Instruction};
use std::collections::HashMap;
use std::time::Instant;

/// A routing configuration by its service-protocol name.
fn routing_config(name: &str) -> RoutingConfig {
    match name {
        "greedy" => RoutingConfig::greedy(),
        "lookahead" => RoutingConfig::lookahead(2),
        "multi-aod" => RoutingConfig::multi_aod(),
        "auto" => RoutingConfig::auto(),
        other => panic!("no routing configuration named `{other}`"),
    }
}

/// What to build: a generated circuit on a derived machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    pub family: BenchmarkFamily,
    pub qubits: u32,
    pub aods: usize,
    pub routing: &'static str,
    pub threads: usize,
}

/// A built cell: the inputs of one compile plus the reference CZ multiset
/// the emitted program must keep.
#[derive(Debug, Clone)]
pub struct Cell {
    pub spec: CellSpec,
    pub name: String,
    pub circuit: Circuit,
    pub arch: Architecture,
    pub config: CompilerConfig,
    pub cz_pairs: Vec<CzGate>,
}

/// Builds every cell of `specs` for `seed`, generating each distinct
/// `(family, qubits)` circuit once; returns the cells and the seconds spent
/// in the generators.
pub fn build_cells(specs: &[CellSpec], seed: u64) -> (Vec<Cell>, f64) {
    let mut circuits: HashMap<(BenchmarkFamily, u32), (Circuit, Vec<CzGate>)> = HashMap::new();
    let mut generate_seconds = 0.0;
    let cells = specs
        .iter()
        .map(|spec| {
            let (circuit, cz_pairs) = circuits
                .entry((spec.family, spec.qubits))
                .or_insert_with(|| {
                    let start = Instant::now();
                    let circuit = generate(spec.family, spec.qubits, seed).circuit;
                    generate_seconds += start.elapsed().as_secs_f64();
                    let mut pairs = circuit.cz_gates();
                    pairs.sort_unstable();
                    (circuit, pairs)
                })
                .clone();
            Cell {
                spec: *spec,
                name: format!(
                    "{}-{}/aod{}/{}",
                    spec.family, spec.qubits, spec.aods, spec.routing
                ),
                arch: Architecture::for_qubits(spec.qubits).with_num_aods(spec.aods),
                config: CompilerConfig::default()
                    .with_threads(spec.threads)
                    .with_routing(routing_config(spec.routing)),
                circuit,
                cz_pairs,
            }
        })
        .collect();
    (cells, generate_seconds)
}

/// The quality of one emitted program plus a fingerprint of its
/// deterministic counts, compared across repeated compiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    pub exec_time_us: f64,
    /// `-log10` of the Eq. 1 fidelity, summed factor by factor so a tiny
    /// fidelity never underflows.
    pub neg_log10_fidelity: f64,
    pub fingerprint: [u64; 6],
}

/// Compiles a cell and validates and scores the program: the operation
/// `compile_ms` times (circuit in, validated scored program out).
pub fn compile_and_score(cell: &Cell) -> Result<(CompiledProgram, Score), String> {
    let program = powermove::compile(&cell.circuit, &cell.arch, &cell.config)
        .map_err(|e| format!("{}: compile: {e}", cell.name))?;
    // The simulator checks the hardware rules independently of the compiler.
    let trace = simulate(&program).map_err(|e| format!("{}: simulate: {e}", cell.name))?;
    let breakdown = evaluate_trace(&trace, program.architecture().params());
    let score = score_of(&program, trace.total_time, &breakdown);
    Ok((program, score))
}

/// Scores a simulated program from its `T_exe` (seconds) and Eq. 1 factors.
pub fn score_of(
    program: &CompiledProgram,
    total_time: f64,
    breakdown: &powermove_fidelity::FidelityBreakdown,
) -> Score {
    let factors = [
        breakdown.one_qubit,
        breakdown.two_qubit,
        breakdown.excitation,
        breakdown.transfer,
        breakdown.decoherence,
    ];
    Score {
        exec_time_us: total_time * 1e6,
        neg_log10_fidelity: -factors.iter().map(|f| f.log10()).sum::<f64>(),
        fingerprint: [
            program.num_instructions() as u64,
            program.rydberg_stage_count() as u64,
            program.move_group_count() as u64,
            program.coll_move_count() as u64,
            program.transfer_count() as u64,
            total_time.to_bits(),
        ],
    }
}

/// The emitted program executes exactly the input circuit's CZ pairs, each
/// as often as the circuit does.
pub fn check_cz_multiset(cell: &Cell, program: &CompiledProgram) -> Result<(), String> {
    let mut emitted: Vec<CzGate> = program
        .instructions()
        .iter()
        .flat_map(|i| match i {
            Instruction::RydbergStage { gates } => gates.as_slice(),
            _ => &[],
        })
        .copied()
        .collect();
    emitted.sort_unstable();
    if emitted == cell.cz_pairs {
        Ok(())
    } else {
        Err(format!(
            "{}: emitted CZ multiset ({} gates) differs from the circuit's ({} gates)",
            cell.name,
            emitted.len(),
            cell.cz_pairs.len()
        ))
    }
}

/// Whether a frame for `family` at `qubits` is one the service must answer
/// with a program: a random `d`-regular graph needs `n > d` and an even
/// `n * d` (odd widths make the generator panic), so the regular-graph
/// families only ever get even widths.
pub fn feasible(family: BenchmarkFamily, qubits: u32) -> bool {
    let degree = match family {
        BenchmarkFamily::QaoaRegular3 => 3,
        BenchmarkFamily::QaoaRegular4 => 4,
        _ => return qubits >= 2,
    };
    qubits > degree && qubits.is_multiple_of(2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn regular_families_need_even_widths() {
        assert!(!feasible(BenchmarkFamily::QaoaRegular3, 7));
        assert!(feasible(BenchmarkFamily::QaoaRegular3, 8));
        assert!(!feasible(BenchmarkFamily::QaoaRegular4, 7));
        assert!(feasible(BenchmarkFamily::QaoaRegular4, 8));
        assert!(!feasible(BenchmarkFamily::QaoaRegular4, 4));
        assert!(feasible(BenchmarkFamily::Qft, 3));
        assert!(!feasible(BenchmarkFamily::Bv, 1));
    }

    #[test]
    fn compiled_cells_pass_every_check() {
        let spec = CellSpec {
            family: BenchmarkFamily::QaoaRegular3,
            qubits: 16,
            aods: 2,
            routing: "auto",
            threads: 2,
        };
        let (cells, generate_seconds) = build_cells(&[spec], 7);
        assert!(generate_seconds > 0.0);
        let (program, score) = compile_and_score(&cells[0]).unwrap();
        check_cz_multiset(&cells[0], &program).unwrap();
        assert!(score.exec_time_us > 0.0);
        assert!(score.neg_log10_fidelity > 0.0);
        let (_, again) = compile_and_score(&cells[0]).unwrap();
        assert_eq!(score, again);
    }
}
