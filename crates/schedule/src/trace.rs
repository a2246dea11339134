//! Program replay: validation plus accumulation of the execution trace.

use crate::{instruction_duration, CompiledProgram, Instruction, Layout, ScheduleError};
use powermove_circuit::Qubit;
use powermove_hardware::{validate_aod_batches, AodBatch, HardwareError, Zone};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Quantities accumulated by replaying a [`CompiledProgram`].
///
/// These are exactly the inputs of the fidelity formula (Eq. 1 of the paper)
/// plus the execution-time metric `T_exe` and a few diagnostic counters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionTrace {
    /// Total execution time `T_exe`, in seconds.
    pub total_time: f64,
    /// Number of CZ gates executed (`g_2`).
    pub cz_gate_count: usize,
    /// Number of single-qubit gates executed (`g_1`).
    pub one_qubit_gate_count: usize,
    /// Number of SLM <-> AOD transfers (`N_trans`).
    pub transfer_count: usize,
    /// Sum over Rydberg stages of the number of non-interacting qubits left
    /// in the computation zone (`Σ_i n_i`).
    pub excitation_exposure: usize,
    /// Number of Rydberg stages (`S`).
    pub rydberg_stage_count: usize,
    /// Number of move-group instructions.
    pub move_group_count: usize,
    /// Number of collective moves.
    pub coll_move_count: usize,
    /// Sum of all single-qubit movement distances, in meters.
    pub total_move_distance: f64,
    /// Longest single-qubit movement distance, in meters.
    pub max_move_distance: f64,
    /// Total time spent moving or transferring qubits, in seconds.
    pub movement_time: f64,
    /// Per-qubit idle time outside the storage zone (`T_q` of Eq. 1), in
    /// seconds.
    pub idle_time: Vec<f64>,
    /// Per-qubit time spent in the storage zone, in seconds.
    pub storage_time: Vec<f64>,
    /// Layout after the last instruction.
    pub final_layout: Layout,
}

impl ExecutionTrace {
    /// Total idle (non-storage) time summed over qubits.
    #[must_use]
    pub fn total_idle_time(&self) -> f64 {
        self.idle_time.iter().sum()
    }
}

/// Replays a compiled program, validating every instruction against the
/// hardware rules and accumulating the execution trace.
///
/// # Errors
///
/// Returns the first [`ScheduleError`] encountered: an ill-formed layout, a
/// violated AOD movement constraint, overcrowded sites, a CZ pair that is not
/// co-located in the computation zone, overlapping gates within one stage, or
/// unwanted clustering during an excitation.
pub fn simulate(program: &CompiledProgram) -> Result<ExecutionTrace, ScheduleError> {
    let arch = program.architecture();
    let grid = arch.grid();
    let n = program.num_qubits();

    let mut layout = program.initial_layout().clone();
    // Validate the initial layout.
    for i in 0..n {
        let q = Qubit::new(i);
        let site = layout
            .site_of(q)
            .ok_or(ScheduleError::UnplacedQubit { qubit: q })?;
        if !grid.contains(site) {
            return Err(ScheduleError::SiteOutOfRange { site });
        }
    }
    for (site, occupants) in layout.occupied_sites() {
        if occupants.len() > 2 {
            return Err(ScheduleError::SiteOvercrowded {
                site,
                occupants: occupants.len(),
            });
        }
    }

    let mut trace = ExecutionTrace {
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
        idle_time: vec![0.0; n as usize],
        storage_time: vec![0.0; n as usize],
        final_layout: layout.clone(),
    };

    for instruction in program.instructions() {
        let duration = instruction_duration(instruction, arch);
        let active: BTreeSet<Qubit> = instruction.active_qubits().into_iter().collect();

        // Per-instruction validation and state update.
        match instruction {
            Instruction::OneQubitLayer { gates } => {
                for (q, _) in gates {
                    if q.index() >= n {
                        return Err(ScheduleError::QubitOutOfRange {
                            qubit: *q,
                            num_qubits: n,
                        });
                    }
                }
                trace.one_qubit_gate_count += gates.len();
            }
            Instruction::MoveGroup { coll_moves } => {
                if coll_moves.len() > arch.num_aods() {
                    return Err(ScheduleError::TooManyParallelMoves {
                        requested: coll_moves.len(),
                        available: arch.num_aods(),
                    });
                }
                for cm in coll_moves {
                    if cm.aod.index() >= arch.num_aods() {
                        return Err(ScheduleError::AodOutOfRange {
                            aod: cm.aod,
                            available: arch.num_aods(),
                        });
                    }
                }
                // Validate every collective move against the pre-group layout.
                for cm in coll_moves {
                    for m in &cm.moves {
                        if m.qubit.index() >= n {
                            return Err(ScheduleError::QubitOutOfRange {
                                qubit: m.qubit,
                                num_qubits: n,
                            });
                        }
                        if !grid.contains(m.to) {
                            return Err(ScheduleError::SiteOutOfRange { site: m.to });
                        }
                        let actual = layout
                            .site_of(m.qubit)
                            .ok_or(ScheduleError::UnplacedQubit { qubit: m.qubit })?;
                        if actual != m.from {
                            return Err(ScheduleError::MoveSourceMismatch {
                                qubit: m.qubit,
                                claimed: m.from,
                                actual,
                            });
                        }
                    }
                }
                // The group's collective moves overlap in time, one per-AOD
                // batch each: every batch must satisfy the AOD order
                // constraint internally, and no AOD may own two batches — a
                // doubly-booked AOD is an intra-AOD move-window overlap.
                let batches: Vec<AodBatch> = coll_moves
                    .iter()
                    .map(|cm| AodBatch::new(cm.aod, cm.trap_moves(arch)))
                    .collect();
                validate_aod_batches(&batches).map_err(|e| match e {
                    HardwareError::DuplicateAodAssignment { aod } => {
                        ScheduleError::IntraAodOverlap { aod }
                    }
                    other => ScheduleError::Hardware(other),
                })?;
                // Apply all moves of the group simultaneously.
                let mut touched = BTreeSet::new();
                for cm in coll_moves {
                    trace.coll_move_count += 1;
                    for m in &cm.moves {
                        let d = m.distance(arch);
                        trace.total_move_distance += d;
                        trace.max_move_distance = trace.max_move_distance.max(d);
                        layout.move_qubit(m.qubit, m.to);
                        touched.insert(m.to);
                        trace.transfer_count += 2;
                    }
                }
                for site in touched {
                    let occ = layout.occupancy(site);
                    if occ > 2 {
                        return Err(ScheduleError::SiteOvercrowded {
                            site,
                            occupants: occ,
                        });
                    }
                }
                trace.move_group_count += 1;
                trace.movement_time += duration;
            }
            Instruction::RydbergStage { gates } => {
                let mut seen = BTreeSet::new();
                for gate in gates {
                    for q in gate.qubits() {
                        if q.index() >= n {
                            return Err(ScheduleError::QubitOutOfRange {
                                qubit: q,
                                num_qubits: n,
                            });
                        }
                        if !seen.insert(q) {
                            return Err(ScheduleError::OverlappingGatesInStage { qubit: q });
                        }
                    }
                    let sa = layout
                        .site_of(gate.lo())
                        .ok_or(ScheduleError::UnplacedQubit { qubit: gate.lo() })?;
                    let sb = layout
                        .site_of(gate.hi())
                        .ok_or(ScheduleError::UnplacedQubit { qubit: gate.hi() })?;
                    for (q, s) in [(gate.lo(), sa), (gate.hi(), sb)] {
                        if grid.zone_of(s) == Zone::Storage {
                            return Err(ScheduleError::GateInStorage { qubit: q });
                        }
                    }
                    if sa != sb {
                        return Err(ScheduleError::PairNotColocated {
                            a: gate.lo(),
                            b: gate.hi(),
                        });
                    }
                }
                // Clustering check: any computation-zone site holding two
                // qubits must host exactly one gate pair of this stage.
                for (site, occupants) in layout.occupied_sites() {
                    if grid.zone_of(site) != Zone::Compute {
                        continue;
                    }
                    if occupants.len() >= 2 {
                        let is_pair = occupants.len() == 2
                            && gates.iter().any(|g| {
                                (g.lo() == occupants[0] && g.hi() == occupants[1])
                                    || (g.lo() == occupants[1] && g.hi() == occupants[0])
                            });
                        if !is_pair {
                            return Err(ScheduleError::Clustering { site });
                        }
                    }
                }
                // Excitation exposure: non-interacting qubits left in the
                // computation zone during this excitation.
                let exposed = layout
                    .iter()
                    .filter(|(q, site)| grid.zone_of(*site) == Zone::Compute && !seen.contains(q))
                    .count();
                trace.excitation_exposure += exposed;
                trace.cz_gate_count += gates.len();
                trace.rydberg_stage_count += 1;
            }
        }

        // Time accounting: storage-zone residents accrue storage time; other
        // qubits accrue idle time unless they actively participate.
        trace.total_time += duration;
        for i in 0..n {
            let q = Qubit::new(i);
            let Some(site) = layout.site_of(q) else {
                continue;
            };
            if grid.zone_of(site) == Zone::Storage && !active.contains(&q) {
                trace.storage_time[i as usize] += duration;
            } else if !active.contains(&q) {
                trace.idle_time[i as usize] += duration;
            }
        }
    }

    trace.final_layout = layout;
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CollMove, SiteMove};
    use powermove_circuit::{CzGate, OneQubitGate};
    use powermove_hardware::{AodId, Architecture, SiteId};

    fn q(i: u32) -> Qubit {
        Qubit::new(i)
    }

    fn arch4() -> Architecture {
        Architecture::for_qubits(4)
    }

    fn compute_layout(arch: &Architecture, n: u32) -> Layout {
        Layout::row_major(arch, n, Zone::Compute).unwrap()
    }

    fn site(arch: &Architecture, zone: Zone, c: u32, r: u32) -> SiteId {
        arch.grid().site(zone, c, r).unwrap()
    }

    #[test]
    fn empty_program_produces_zero_trace() {
        let arch = arch4();
        let layout = compute_layout(&arch, 4);
        let p = CompiledProgram::new(arch, 4, layout, vec![]);
        let t = simulate(&p).unwrap();
        assert_eq!(t.total_time, 0.0);
        assert_eq!(t.cz_gate_count, 0);
        assert_eq!(t.transfer_count, 0);
        assert_eq!(t.total_idle_time(), 0.0);
    }

    #[test]
    fn unplaced_qubit_is_rejected() {
        let arch = arch4();
        let layout = Layout::empty(4);
        let p = CompiledProgram::new(arch, 4, layout, vec![]);
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::UnplacedQubit { .. })
        ));
    }

    #[test]
    fn move_then_cz_is_valid_and_counted() {
        let arch = arch4();
        let layout = compute_layout(&arch, 4);
        let from = site(&arch, Zone::Compute, 1, 0);
        let to = site(&arch, Zone::Compute, 0, 0);
        let p = CompiledProgram::new(
            arch.clone(),
            4,
            layout,
            vec![
                Instruction::move_group(vec![CollMove::new(
                    AodId::new(0),
                    vec![SiteMove::new(q(1), from, to)],
                )]),
                Instruction::rydberg(vec![CzGate::new(q(0), q(1))]),
            ],
        );
        let t = simulate(&p).unwrap();
        assert_eq!(t.cz_gate_count, 1);
        assert_eq!(t.transfer_count, 2);
        assert_eq!(t.rydberg_stage_count, 1);
        // Qubits 2 and 3 stay in the computation zone without a gate: they
        // are exposed to the excitation.
        assert_eq!(t.excitation_exposure, 2);
        assert!(t.total_time > 0.0);
        assert!((t.total_move_distance - 15e-6).abs() < 1e-12);
    }

    #[test]
    fn cz_without_colocation_is_rejected() {
        let arch = arch4();
        let layout = compute_layout(&arch, 4);
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(q(0), q(1))])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::PairNotColocated { .. })
        ));
    }

    #[test]
    fn overlapping_gates_in_stage_rejected() {
        let arch = arch4();
        let mut layout = compute_layout(&arch, 4);
        let s0 = site(&arch, Zone::Compute, 0, 0);
        layout.place(q(1), s0);
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::rydberg(vec![
                CzGate::new(q(0), q(1)),
                CzGate::new(q(1), q(2)),
            ])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::OverlappingGatesInStage { .. })
        ));
    }

    #[test]
    fn clustering_is_detected() {
        let arch = arch4();
        let mut layout = compute_layout(&arch, 4);
        // Put q2 on the same site as q3 without gating them.
        let s = layout.site_of(q(3)).unwrap();
        layout.place(q(2), s);
        // And co-locate the actual pair 0-1.
        let s0 = layout.site_of(q(0)).unwrap();
        layout.place(q(1), s0);
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(q(0), q(1))])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::Clustering { .. })
        ));
    }

    #[test]
    fn gate_in_storage_is_rejected() {
        let arch = arch4();
        let mut layout = compute_layout(&arch, 4);
        let s = site(&arch, Zone::Storage, 0, 0);
        layout.place(q(0), s);
        layout.place(q(1), s);
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(q(0), q(1))])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::GateInStorage { .. })
        ));
    }

    #[test]
    fn conflicting_moves_in_one_coll_move_rejected() {
        let arch = arch4();
        let layout = compute_layout(&arch, 4);
        // q0 at (0,0) moves right past q1 at (1,0) which moves left: crossing.
        let a = SiteMove::new(
            q(0),
            site(&arch, Zone::Compute, 0, 0),
            site(&arch, Zone::Compute, 1, 1),
        );
        let b = SiteMove::new(
            q(1),
            site(&arch, Zone::Compute, 1, 0),
            site(&arch, Zone::Compute, 0, 1),
        );
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![a, b],
            )])],
        );
        assert!(matches!(simulate(&p), Err(ScheduleError::Hardware(_))));
    }

    #[test]
    fn too_many_parallel_moves_rejected() {
        let arch = arch4(); // 1 AOD
        let layout = compute_layout(&arch, 4);
        let a = SiteMove::new(
            q(0),
            site(&arch, Zone::Compute, 0, 0),
            site(&arch, Zone::Compute, 0, 1),
        );
        let b = SiteMove::new(
            q(1),
            site(&arch, Zone::Compute, 1, 0),
            site(&arch, Zone::Compute, 1, 1),
        );
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::move_group(vec![
                CollMove::new(AodId::new(0), vec![a]),
                CollMove::new(AodId::new(1), vec![b]),
            ])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::TooManyParallelMoves { .. })
        ));
    }

    #[test]
    fn intra_aod_overlap_rejected() {
        // Two collective moves on the same AOD in one window: even with two
        // AODs available, one lattice cannot run two moves at once.
        let arch = arch4().with_num_aods(2);
        let layout = compute_layout(&arch, 4);
        let a = SiteMove::new(
            q(0),
            site(&arch, Zone::Compute, 0, 0),
            site(&arch, Zone::Compute, 0, 1),
        );
        let b = SiteMove::new(
            q(1),
            site(&arch, Zone::Compute, 1, 0),
            site(&arch, Zone::Compute, 1, 1),
        );
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::move_group(vec![
                CollMove::new(AodId::new(0), vec![a]),
                CollMove::new(AodId::new(0), vec![b]),
            ])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::IntraAodOverlap { .. })
        ));
    }

    #[test]
    fn aod_index_beyond_architecture_rejected() {
        let arch = arch4().with_num_aods(2);
        let layout = compute_layout(&arch, 4);
        let m = SiteMove::new(
            q(0),
            site(&arch, Zone::Compute, 0, 0),
            site(&arch, Zone::Compute, 0, 1),
        );
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::move_group(vec![CollMove::new(
                AodId::new(2),
                vec![m],
            )])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::AodOutOfRange { .. })
        ));
    }

    #[test]
    fn distinct_aods_may_run_conflicting_moves_in_one_window() {
        // Crossing moves conflict within one AOD lattice but are legal on
        // two independent arrays sharing a parallel window.
        let arch = arch4().with_num_aods(2);
        let layout = compute_layout(&arch, 4);
        let a = SiteMove::new(
            q(0),
            site(&arch, Zone::Compute, 0, 0),
            site(&arch, Zone::Compute, 1, 1),
        );
        let b = SiteMove::new(
            q(1),
            site(&arch, Zone::Compute, 1, 0),
            site(&arch, Zone::Compute, 0, 1),
        );
        assert!(a.to_trap_move(&arch).conflicts_with(&b.to_trap_move(&arch)));
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::move_group(vec![
                CollMove::new(AodId::new(0), vec![a]),
                CollMove::new(AodId::new(1), vec![b]),
            ])],
        );
        let t = simulate(&p).unwrap();
        assert_eq!(t.coll_move_count, 2);
        assert_eq!(t.move_group_count, 1);
    }

    #[test]
    fn move_source_mismatch_rejected() {
        let arch = arch4();
        let layout = compute_layout(&arch, 4);
        let wrong_from = site(&arch, Zone::Compute, 0, 1);
        let m = SiteMove::new(q(0), wrong_from, site(&arch, Zone::Compute, 1, 1));
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![m],
            )])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::MoveSourceMismatch { .. })
        ));
    }

    #[test]
    fn storage_residents_accrue_storage_not_idle_time() {
        let arch = Architecture::for_qubits(4);
        let mut layout = compute_layout(&arch, 4);
        // Park q3 in storage.
        layout.place(q(3), site(&arch, Zone::Storage, 0, 0));
        // Co-locate 0-1 for a gate.
        let s0 = layout.site_of(q(0)).unwrap();
        layout.place(q(1), s0);
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::rydberg(vec![CzGate::new(q(0), q(1))])],
        );
        let t = simulate(&p).unwrap();
        // q3 is in storage: storage time accrues, no idle time, no exposure.
        assert!(t.storage_time[3] > 0.0);
        assert_eq!(t.idle_time[3], 0.0);
        // q2 idles in the computation zone: exposed and idle.
        assert!(t.idle_time[2] > 0.0);
        assert_eq!(t.excitation_exposure, 1);
        // Gated qubits are busy.
        assert_eq!(t.idle_time[0], 0.0);
        assert_eq!(t.idle_time[1], 0.0);
    }

    #[test]
    fn one_qubit_layer_counts_and_idle() {
        let arch = arch4();
        let layout = compute_layout(&arch, 4);
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::one_qubit_layer(vec![
                (q(0), OneQubitGate::H),
                (q(1), OneQubitGate::H),
            ])],
        );
        let t = simulate(&p).unwrap();
        assert_eq!(t.one_qubit_gate_count, 2);
        assert_eq!(t.idle_time[0], 0.0);
        assert!((t.idle_time[2] - 1e-6).abs() < 1e-12);
        assert!((t.total_time - 1e-6).abs() < 1e-12);
    }

    #[test]
    fn overcrowding_after_move_rejected() {
        let arch = arch4();
        let mut layout = compute_layout(&arch, 4);
        // Pre-pair 0 and 1 at one site, then move 2 onto the same site.
        let s0 = layout.site_of(q(0)).unwrap();
        layout.place(q(1), s0);
        let from2 = layout.site_of(q(2)).unwrap();
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![SiteMove::new(q(2), from2, s0)],
            )])],
        );
        assert!(matches!(
            simulate(&p),
            Err(ScheduleError::SiteOvercrowded { .. })
        ));
    }
}
