//! Stand-alone program validation.

use crate::{simulate, CompiledProgram, ScheduleError};

/// Validates a compiled program against the hardware rules without returning
/// the execution trace.
///
/// This checks everything [`simulate`] checks:
///
/// * every qubit is placed on a valid site of the grid, at most two per site;
/// * every collective move starts from the qubits' actual sites and respects
///   the AOD row/column order constraint;
/// * no more collective moves run in parallel than there are AOD arrays,
///   every named AOD exists, no AOD is assigned two collective moves in
///   one parallel window (overlapping windows are legal only across
///   *distinct* AODs — intra-AOD overlap is rejected), and no qubit is
///   moved by two AODs in one window;
/// * every CZ gate of a Rydberg stage acts on a pair co-located at one
///   computation-zone site, stages have disjoint gates, and no unrelated
///   qubits are clustered at a shared site during an excitation.
///
/// # Errors
///
/// Returns the first violation found, in the replay order documented on
/// [`simulate`] (initial layout, then instructions in program order; within
/// an instruction, its moves or gates in order, then the lowest offending
/// site).
///
/// # Example
///
/// ```
/// use powermove_hardware::{Architecture, Zone};
/// use powermove_schedule::{validate, CompiledProgram, Layout};
///
/// let arch = Architecture::for_qubits(4);
/// let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
/// let program = CompiledProgram::new(arch, 4, layout, vec![]);
/// assert!(validate(&program).is_ok());
/// ```
pub fn validate(program: &CompiledProgram) -> Result<(), ScheduleError> {
    simulate(program).map(|_| ())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Instruction, Layout};
    use powermove_circuit::{CzGate, Qubit};
    use powermove_hardware::{Architecture, Zone};

    #[test]
    fn valid_empty_program_passes() {
        let arch = Architecture::for_qubits(4);
        let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
        let p = CompiledProgram::new(arch, 4, layout, vec![]);
        assert!(validate(&p).is_ok());
    }

    #[test]
    fn invalid_program_fails() {
        let arch = Architecture::for_qubits(4);
        let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(
                Qubit::new(0),
                Qubit::new(1),
            )])],
        );
        assert!(validate(&p).is_err());
    }
}
