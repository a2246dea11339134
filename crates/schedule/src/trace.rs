//! Program replay: validation plus accumulation of the execution trace.

use crate::{instruction_duration, CompiledProgram, Instruction, Layout, ScheduleError};
use powermove_circuit::{CzGate, Qubit};
use powermove_hardware::{
    validate_aod_batches, AodBatch, AodId, HardwareError, SiteId, Zone, ZonedGrid,
};
use serde::{Deserialize, Serialize};

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
/// # Cost
///
/// Each instruction is validated in time proportional to the qubits and
/// sites it names: the replay keeps per-qubit "in storage" flags and
/// "active in instruction *k*" stamps, per-site occupancy counts, and two
/// running totals (qubits in the computation zone, computation-zone sites
/// holding two or more qubits), all updated only for the qubits that move.
/// One pass over the `n` program qubits per instruction remains: it adds the
/// instruction's duration to each idle or stored qubit's clock, so every
/// clock receives the same sequence of additions, in the same order, as a
/// direct replay (a lazier sum would change the last bits of `T_q`).
///
/// # Errors
///
/// Returns the first [`ScheduleError`] encountered: an ill-formed layout, a
/// violated AOD movement constraint, overcrowded sites, a CZ pair that is not
/// co-located in the computation zone, overlapping gates within one stage, or
/// unwanted clustering during an excitation.
///
/// "First" follows the replay order:
///
/// 1. The initial layout: every program qubit in index order (placed, on
///    the grid), then every occupied site in [`SiteId`] order (at most two
///    qubits).
/// 2. The instructions in program order. A move group checks its number of
///    collective moves, then their AOD ids, then each move in order (qubit
///    in range, target on the grid, source matching the layout), then its
///    per-AOD batches as [`validate_aod_batches`] orders them, and finally
///    its overcrowded targets in [`SiteId`] order. A Rydberg stage checks
///    each gate in order — qubits in range and not already used by the
///    stage, both placed, neither in storage, co-located — and then reports
///    the clustered site with the lowest [`SiteId`].
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

    // Replay state. A layout wider than the program may park its extra
    // qubits anywhere, even off the grid; they never move, so they only
    // seed the counts — and an off-grid one sends every Rydberg stage to
    // the full clustering rescan, which treats it as a direct replay does.
    let mut occupancy = vec![0_u32; grid.num_sites()];
    let mut compute_placed = 0_usize;
    let mut crowded = 0_usize;
    let mut off_grid = false;
    for (site, occupants) in layout.occupied_sites() {
        if !grid.contains(site) {
            off_grid = true;
            continue;
        }
        occupancy[site.index()] = occupants.len() as u32;
        if grid.zone_of(site) == Zone::Compute {
            compute_placed += occupants.len();
            crowded += usize::from(occupants.len() >= 2);
        }
    }
    let mut in_storage: Vec<bool> = (0..n)
        .map(|i| {
            layout
                .site_of(Qubit::new(i))
                .is_some_and(|site| grid.zone_of(site) == Zone::Storage)
        })
        .collect();
    // `active[q] == k` iff `q` takes part in the `k`-th instruction (from 1).
    let mut active = vec![0_usize; n as usize];
    let mut touched: Vec<SiteId> = Vec::new();
    let mut batches: Vec<AodBatch> = Vec::new();

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
        final_layout: Layout::empty(0),
    };

    for (epoch, instruction) in (1_usize..).zip(program.instructions()) {
        let duration = instruction_duration(instruction, arch);

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
                    active[q.as_usize()] = epoch;
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
                // constraint internally, no AOD may own two batches — a
                // doubly-booked AOD is an intra-AOD move-window overlap —
                // and no qubit may ride two of them.
                if batches.len() < coll_moves.len() {
                    batches.resize_with(coll_moves.len(), || {
                        AodBatch::new(AodId::new(0), Vec::new())
                    });
                }
                for (batch, cm) in batches.iter_mut().zip(coll_moves) {
                    batch.aod = cm.aod;
                    batch.moves.clear();
                    batch
                        .moves
                        .extend(cm.moves.iter().map(|m| m.to_trap_move(arch)));
                }
                validate_aod_batches(&batches[..coll_moves.len()]).map_err(|e| match e {
                    HardwareError::DuplicateAodAssignment { aod } => {
                        ScheduleError::IntraAodOverlap { aod }
                    }
                    other => ScheduleError::Hardware(other),
                })?;
                // Apply all moves of the group simultaneously. Each qubit
                // moves at most once, from the `from` site just checked.
                touched.clear();
                for cm in coll_moves {
                    trace.coll_move_count += 1;
                    for m in &cm.moves {
                        let d = m.distance(arch);
                        trace.total_move_distance += d;
                        trace.max_move_distance = trace.max_move_distance.max(d);
                        let from = &mut occupancy[m.from.index()];
                        if grid.zone_of(m.from) == Zone::Compute {
                            compute_placed -= 1;
                            crowded -= usize::from(*from == 2);
                        }
                        *from -= 1;
                        let to_zone = grid.zone_of(m.to);
                        let to = &mut occupancy[m.to.index()];
                        *to += 1;
                        if to_zone == Zone::Compute {
                            compute_placed += 1;
                            crowded += usize::from(*to == 2);
                        }
                        in_storage[m.qubit.as_usize()] = to_zone == Zone::Storage;
                        active[m.qubit.as_usize()] = epoch;
                        layout.move_qubit(m.qubit, m.to);
                        touched.push(m.to);
                        trace.transfer_count += 2;
                    }
                }
                touched.sort_unstable();
                touched.dedup();
                for &site in &touched {
                    let occ = occupancy[site.index()];
                    if occ > 2 {
                        return Err(ScheduleError::SiteOvercrowded {
                            site,
                            occupants: occ as usize,
                        });
                    }
                }
                trace.move_group_count += 1;
                trace.movement_time += duration;
            }
            Instruction::RydbergStage { gates } => {
                // Gates whose site holds exactly their pair.
                let mut paired = 0_usize;
                for gate in gates {
                    for q in gate.qubits() {
                        if q.index() >= n {
                            return Err(ScheduleError::QubitOutOfRange {
                                qubit: q,
                                num_qubits: n,
                            });
                        }
                        if active[q.as_usize()] == epoch {
                            return Err(ScheduleError::OverlappingGatesInStage { qubit: q });
                        }
                        active[q.as_usize()] = epoch;
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
                    paired += usize::from(occupancy[sa.index()] == 2);
                }
                // Clustering: every computation-zone site holding two or
                // more qubits must be a paired gate site. The gates are
                // disjoint, so that holds iff the counts agree; otherwise
                // the rescan names the lowest offending site.
                debug_assert_eq!(
                    (compute_placed, crowded),
                    compute_zone_counts(&layout, grid),
                    "running counts out of step with the layout"
                );
                if off_grid || crowded != paired {
                    check_clustering(&layout, grid, gates)?;
                }
                // Excitation exposure: non-interacting qubits left in the
                // computation zone during this excitation. Every gate qubit
                // is one of them, checked above.
                trace.excitation_exposure += compute_placed - 2 * gates.len();
                trace.cz_gate_count += gates.len();
                trace.rydberg_stage_count += 1;
            }
        }

        // Time accounting: storage-zone residents accrue storage time; other
        // qubits accrue idle time unless they actively participate.
        trace.total_time += duration;
        let clocks = trace.idle_time.iter_mut().zip(&mut trace.storage_time);
        for ((idle, stored), (&mark, &parked)) in clocks.zip(active.iter().zip(&in_storage)) {
            if mark == epoch {
                continue;
            }
            if parked {
                *stored += duration;
            } else {
                *idle += duration;
            }
        }
    }

    trace.final_layout = layout;
    Ok(trace)
}

/// Qubits on computation-zone sites, and computation-zone sites holding two
/// or more qubits, counted from scratch (the running counts' debug check).
fn compute_zone_counts(layout: &Layout, grid: &ZonedGrid) -> (usize, usize) {
    layout
        .occupied_sites()
        .filter(|&(site, _)| grid.contains(site) && grid.zone_of(site) == Zone::Compute)
        .fold((0, 0), |(placed, crowded), (_, occupants)| {
            (
                placed + occupants.len(),
                crowded + usize::from(occupants.len() >= 2),
            )
        })
}

/// The clustering rule by a rescan of the whole layout in [`SiteId`] order:
/// any computation-zone site holding two or more qubits must hold exactly
/// one gate pair of the stage.
fn check_clustering(
    layout: &Layout,
    grid: &ZonedGrid,
    gates: &[CzGate],
) -> Result<(), ScheduleError> {
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
    Ok(())
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

    #[test]
    fn qubit_moved_by_two_aods_in_one_group_rejected() {
        // Each collective move is valid on its own, but q0 cannot ride two
        // AOD arrays in one window.
        let arch = arch4().with_num_aods(2);
        let layout = compute_layout(&arch, 4);
        let from = site(&arch, Zone::Compute, 0, 0);
        let p = CompiledProgram::new(
            arch.clone(),
            4,
            layout,
            vec![Instruction::move_group(vec![
                CollMove::new(
                    AodId::new(0),
                    vec![SiteMove::new(q(0), from, site(&arch, Zone::Storage, 0, 0))],
                ),
                CollMove::new(
                    AodId::new(1),
                    vec![SiteMove::new(q(0), from, site(&arch, Zone::Storage, 1, 0))],
                ),
            ])],
        );
        assert_eq!(
            simulate(&p),
            Err(ScheduleError::Hardware(
                HardwareError::DuplicateMovedQubit { qubit: q(0) }
            ))
        );
    }

    #[test]
    fn first_clustered_site_is_the_lowest() {
        let arch = arch4();
        let high = site(&arch, Zone::Compute, 1, 1);
        let low = site(&arch, Zone::Compute, 0, 0);
        assert!(low < high);
        let mut layout = Layout::empty(4);
        layout.place(q(0), high);
        layout.place(q(1), high);
        layout.place(q(2), low);
        layout.place(q(3), low);
        let p = CompiledProgram::new(arch, 4, layout, vec![Instruction::rydberg(vec![])]);
        assert_eq!(simulate(&p), Err(ScheduleError::Clustering { site: low }));
    }

    #[test]
    fn first_overcrowded_target_is_the_lowest() {
        // Pairs sit at two compute sites; one group moves a third qubit onto
        // each, the higher site first.
        let arch = arch4().with_num_aods(2);
        let high = site(&arch, Zone::Compute, 1, 1);
        let low = site(&arch, Zone::Compute, 0, 0);
        let mut layout = Layout::empty(6);
        layout.place(q(0), low);
        layout.place(q(1), low);
        layout.place(q(2), high);
        layout.place(q(3), high);
        let park4 = site(&arch, Zone::Storage, 1, 0);
        let park5 = site(&arch, Zone::Storage, 0, 0);
        layout.place(q(4), park4);
        layout.place(q(5), park5);
        let p = CompiledProgram::new(
            arch,
            6,
            layout,
            vec![Instruction::move_group(vec![
                CollMove::new(AodId::new(0), vec![SiteMove::new(q(4), park4, high)]),
                CollMove::new(AodId::new(1), vec![SiteMove::new(q(5), park5, low)]),
            ])],
        );
        assert_eq!(
            simulate(&p),
            Err(ScheduleError::SiteOvercrowded {
                site: low,
                occupants: 3
            })
        );
    }

    #[test]
    fn first_gate_error_wins_over_a_later_overlap() {
        // Gate 0-1 is not co-located; gate 1-2 reuses q1. The stage is
        // checked gate by gate, so the first gate's error is reported.
        let arch = arch4();
        let mut layout = compute_layout(&arch, 4);
        let s1 = layout.site_of(q(1)).unwrap();
        layout.place(q(2), s1);
        let p = CompiledProgram::new(
            arch,
            4,
            layout,
            vec![Instruction::rydberg(vec![
                CzGate::new(q(0), q(1)),
                CzGate::new(q(1), q(2)),
            ])],
        );
        assert_eq!(
            simulate(&p),
            Err(ScheduleError::PairNotColocated { a: q(0), b: q(1) })
        );
    }

    #[test]
    fn exposure_and_clocks_follow_moves_between_zones() {
        // q3 leaves for storage and q1 joins q0 for a gate; then q2 moves
        // next to the pair and the gate repeats. The running counts must
        // match the layout after every group.
        let arch = arch4();
        let layout = compute_layout(&arch, 4);
        let c = |col, row| site(&arch, Zone::Compute, col, row);
        let one_move = |qubit, from, to| {
            Instruction::move_group(vec![CollMove::new(
                AodId::new(0),
                vec![SiteMove::new(q(qubit), from, to)],
            )])
        };
        let gate = || Instruction::rydberg(vec![CzGate::new(q(0), q(1))]);
        let p = CompiledProgram::new(
            arch.clone(),
            4,
            layout,
            vec![
                one_move(3, c(1, 1), site(&arch, Zone::Storage, 1, 0)),
                one_move(1, c(1, 0), c(0, 0)),
                gate(),
                one_move(2, c(0, 1), c(1, 0)),
                gate(),
            ],
        );
        let t = simulate(&p).unwrap();
        // q2 is the only exposed qubit of both stages; q3 is stored.
        assert_eq!(t.excitation_exposure, 2);
        assert_eq!(t.idle_time[3], 0.0);
        assert!(t.storage_time[3] > 0.0);
        assert_eq!(t.final_layout.occupants(c(0, 0)), &[q(0), q(1)]);
        assert_eq!(t.final_layout.occupants(c(1, 0)), &[q(2)]);
    }
}
