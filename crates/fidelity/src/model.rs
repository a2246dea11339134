//! Evaluation of Eq. (1) over an execution trace.

use crate::FidelityBreakdown;
use powermove_hardware::PhysicalParams;
use powermove_schedule::{simulate, CompiledProgram, ExecutionTrace, ScheduleError};

/// The result of evaluating a compiled program: its execution trace, the
/// fidelity breakdown and the execution-time metric.
#[derive(Debug, Clone, PartialEq)]
pub struct FidelityReport {
    /// Per-factor fidelity breakdown (Eq. 1).
    pub breakdown: FidelityBreakdown,
    /// Total execution time `T_exe` in seconds.
    pub execution_time: f64,
    /// The underlying execution trace.
    pub trace: ExecutionTrace,
}

impl FidelityReport {
    /// Total output fidelity (all five factors).
    #[must_use]
    pub fn fidelity(&self) -> f64 {
        self.breakdown.total()
    }

    /// Output fidelity excluding the 1Q factor, as reported in the paper's
    /// tables.
    #[must_use]
    pub fn fidelity_excluding_one_qubit(&self) -> f64 {
        self.breakdown.total_excluding_one_qubit()
    }

    /// Execution time in microseconds, the unit used by Table 3.
    #[must_use]
    pub fn execution_time_us(&self) -> f64 {
        self.execution_time * 1e6
    }
}

/// Evaluates Eq. (1) over an execution trace.
///
/// The decoherence factor clamps each per-qubit term `1 − T_q/T2` at zero, so
/// programs whose idle time exceeds the coherence time report zero fidelity
/// rather than a negative number.
#[must_use]
pub fn evaluate_trace(trace: &ExecutionTrace, params: &PhysicalParams) -> FidelityBreakdown {
    let one_qubit = params
        .one_qubit_fidelity
        .powi(trace.one_qubit_gate_count as i32);
    let two_qubit = params.cz_fidelity.powi(trace.cz_gate_count as i32);
    let excitation = params
        .excitation_fidelity
        .powi(trace.excitation_exposure as i32);
    let transfer = params.transfer_fidelity.powi(trace.transfer_count as i32);
    let decoherence = trace
        .idle_time
        .iter()
        .map(|t| (1.0 - t / params.coherence_time).max(0.0))
        .product();
    FidelityBreakdown {
        one_qubit,
        two_qubit,
        excitation,
        transfer,
        decoherence,
    }
}

/// Simulates a compiled program and evaluates its fidelity.
///
/// # Errors
///
/// Returns a [`ScheduleError`] if the program violates a hardware rule (see
/// [`powermove_schedule::simulate`]).
pub fn evaluate_program(program: &CompiledProgram) -> Result<FidelityReport, ScheduleError> {
    let trace = simulate(program)?;
    let breakdown = evaluate_trace(&trace, program.architecture().params());
    Ok(FidelityReport {
        breakdown,
        execution_time: trace.total_time,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_circuit::{CzGate, Qubit};
    use powermove_hardware::{Architecture, Zone};
    use powermove_schedule::{CompiledProgram, Instruction, Layout};

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn trace_template(n: usize) -> ExecutionTrace {
        ExecutionTrace {
            total_time: 0.0,
            cz_gate_count: 0,
            one_qubit_gate_count: 0,
            transfer_count: 0,
            excitation_exposure: 0,
            rydberg_stage_count: 0,
            move_group_count: 0,
            coll_move_count: 0,
            total_move_distance: 0.0,
            max_move_distance: 0.0,
            movement_time: 0.0,
            idle_time: vec![0.0; n],
            storage_time: vec![0.0; n],
            final_layout: Layout::empty(n as u32),
        }
    }

    #[test]
    fn gate_counts_drive_gate_factors() {
        let params = PhysicalParams::default();
        let mut trace = trace_template(2);
        trace.cz_gate_count = 10;
        trace.one_qubit_gate_count = 100;
        let b = evaluate_trace(&trace, &params);
        assert!((b.two_qubit - 0.995_f64.powi(10)).abs() < 1e-12);
        assert!((b.one_qubit - 0.9999_f64.powi(100)).abs() < 1e-12);
        assert_eq!(b.excitation, 1.0);
        assert_eq!(b.transfer, 1.0);
        assert_eq!(b.decoherence, 1.0);
    }

    #[test]
    fn exposure_and_transfer_factors() {
        let params = PhysicalParams::default();
        let mut trace = trace_template(2);
        trace.excitation_exposure = 4;
        trace.transfer_count = 6;
        let b = evaluate_trace(&trace, &params);
        assert!((b.excitation - 0.9975_f64.powi(4)).abs() < 1e-12);
        assert!((b.transfer - 0.999_f64.powi(6)).abs() < 1e-12);
    }

    #[test]
    fn decoherence_uses_idle_time_over_t2() {
        let params = PhysicalParams::default();
        let mut trace = trace_template(2);
        trace.idle_time = vec![0.15, 0.3];
        let b = evaluate_trace(&trace, &params);
        let expected = (1.0 - 0.15 / 1.5) * (1.0 - 0.3 / 1.5);
        assert!((b.decoherence - expected).abs() < 1e-12);
    }

    #[test]
    fn decoherence_clamps_at_zero() {
        let params = PhysicalParams::default();
        let mut trace = trace_template(1);
        trace.idle_time = vec![10.0];
        let b = evaluate_trace(&trace, &params);
        assert_eq!(b.decoherence, 0.0);
        assert_eq!(b.total(), 0.0);
    }

    #[test]
    fn evaluate_program_couples_simulation_and_model() {
        let arch = Architecture::for_qubits(2);
        let mut layout = Layout::row_major(&arch, 2, Zone::Compute).unwrap();
        let s0 = layout.site_of(q(0)).unwrap();
        layout.place(q(1), s0);
        let p = CompiledProgram::new(
            arch,
            2,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(q(0), q(1))])],
        );
        let report = evaluate_program(&p).unwrap();
        assert!((report.breakdown.two_qubit - 0.995).abs() < 1e-12);
        assert!(report.fidelity() < 1.0);
        assert!(report.fidelity_excluding_one_qubit() >= report.fidelity());
        assert!(report.execution_time_us() > 0.0);
    }

    #[test]
    fn invalid_program_propagates_error() {
        let arch = Architecture::for_qubits(2);
        let layout = Layout::row_major(&arch, 2, Zone::Compute).unwrap();
        let p = CompiledProgram::new(
            arch,
            2,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(q(0), q(1))])],
        );
        assert!(evaluate_program(&p).is_err());
    }
}
