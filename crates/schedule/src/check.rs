//! Program-level schedule invariants, one implementation each.
//!
//! Every rule takes an emitted [`CompiledProgram`] and returns the first
//! violation as a human-readable message. The schedule linter
//! (`powermove_bench::lint`) names them as lint rules and runs them over its
//! seeded corpus; unit tests anywhere in the workspace call them directly
//! instead of re-deriving the invariant.
//!
//! | function | invariant |
//! |---|---|
//! | [`check_schedule`] | the program simulates cleanly and preserves the circuit's CZ gates |
//! | [`check_aod_batches`] | every move group lowers to per-AOD batches passing [`validate_aod_batches`] |
//! | [`check_intra_aod_overlap`] | no AOD array owns two overlapping busy windows |
//! | [`check_storage_before_interaction`] | no storage-bound window follows an interaction window within a stage transition |

use crate::{validate, CompiledProgram, Instruction, Timeline};
use powermove_hardware::{validate_aod_batches, AodBatch, Zone};

/// `schedule-validate`: the program simulates cleanly; when
/// `expected_cz` is given, its CZ count must also match the source circuit.
///
/// # Errors
///
/// Returns the violation message.
pub fn check_schedule(program: &CompiledProgram, expected_cz: Option<usize>) -> Result<(), String> {
    validate(program).map_err(|e| format!("invalid program: {e}"))?;
    if let Some(expected) = expected_cz {
        let compiled = program.cz_gate_count();
        if compiled != expected {
            return Err(format!(
                "{compiled} CZ gates compiled, circuit has {expected}"
            ));
        }
    }
    Ok(())
}

/// `aod-batches`: every move group lowers to a window of per-AOD batches
/// that passes the hardware's batch validation.
///
/// # Errors
///
/// Returns the violation message.
pub fn check_aod_batches(program: &CompiledProgram) -> Result<(), String> {
    let arch = program.architecture();
    for (index, instruction) in program.instructions().iter().enumerate() {
        if let Instruction::MoveGroup { coll_moves } = instruction {
            let batches: Vec<AodBatch> = coll_moves
                .iter()
                .map(|cm| AodBatch::new(cm.aod, cm.trap_moves(arch)))
                .collect();
            validate_aod_batches(&batches)
                .map_err(|e| format!("instruction {index}: invalid AOD batches: {e}"))?;
        }
    }
    Ok(())
}

/// `intra-aod-overlap`: no AOD array may own two overlapping busy windows.
///
/// # Errors
///
/// Returns the violation message.
pub fn check_intra_aod_overlap(program: &CompiledProgram) -> Result<(), String> {
    let windows = Timeline::of(program).aod_windows(program);
    for (i, a) in windows.iter().enumerate() {
        for b in &windows[i + 1..] {
            if a.aod == b.aod && a.overlaps(b) {
                return Err(format!("AOD {} double-booked", a.aod));
            }
        }
    }
    Ok(())
}

/// `storage-before-interaction`: within every stage transition, a
/// storage-bound window must never come after an interaction window (the
/// move-in-first guarantee of the multi-AOD scheduler's balanced packing).
///
/// # Errors
///
/// Returns the violation message.
pub fn check_storage_before_interaction(program: &CompiledProgram) -> Result<(), String> {
    let grid = program.architecture().grid();
    let mut saw_interaction_window = false;
    for (index, instruction) in program.instructions().iter().enumerate() {
        match instruction {
            Instruction::RydbergStage { .. } => saw_interaction_window = false,
            Instruction::MoveGroup { coll_moves } => {
                let lands_in = |zone: Zone| {
                    coll_moves
                        .iter()
                        .flat_map(|cm| cm.moves.iter())
                        .any(|m| grid.zone_of(m.to) == zone)
                };
                if lands_in(Zone::Storage) && saw_interaction_window {
                    return Err(format!(
                        "instruction {index}: storage-bound window scheduled after an \
                         interaction window"
                    ));
                }
                if lands_in(Zone::Compute) {
                    saw_interaction_window = true;
                }
            }
            Instruction::OneQubitLayer { .. } => {}
        }
    }
    Ok(())
}
