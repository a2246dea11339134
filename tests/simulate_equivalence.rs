//! Seeded equivalence of the program replay against a reference copy of
//! its direct formulation.
//!
//! `simulate` validates each instruction in time proportional to the
//! qubits it names and keeps running counts for clustering and exposure.
//! The reference below is the direct form — a `BTreeSet` of active qubits
//! per instruction, a scan of every occupied site for clustering and of
//! every placed qubit for exposure — sharing only the library's per-AOD
//! batch rule. Both must return the same `Result` on every valid program of
//! a suite and lint-corpus ladder and on seeded mutations of those
//! programs, with every `f64` equal to the bit.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use powermove_bench::lint::{lint_strategies, CorpusInstance};
use powermove_suite::benchmarks::{generate, BenchmarkFamily};
use powermove_suite::circuit::{CzGate, Qubit};
use powermove_suite::hardware::{
    validate_aod_batches, AodBatch, AodId, HardwareError, SiteId, Zone,
};
use powermove_suite::powermove::{compile, CompilerConfig, RoutingConfig};
use powermove_suite::schedule::{
    instruction_duration, simulate, CollMove, CompiledProgram, ExecutionTrace, Instruction, Layout,
    ScheduleError, SiteMove,
};

/// Suite widths, small enough for the reference replay in a debug build.
const SUITE_QUBITS: &[u32] = &[16, 30];
const CORPUS_SEEDS: u64 = 48;
const MUTATION_SEEDS: u64 = 3;

/// Reference replay: the direct formulation, one instruction at a time.
fn reference_simulate(program: &CompiledProgram) -> Result<ExecutionTrace, ScheduleError> {
    let arch = program.architecture();
    let grid = arch.grid();
    let n = program.num_qubits();

    let mut layout = program.initial_layout().clone();
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
        let active: BTreeSet<Qubit> = match instruction {
            Instruction::OneQubitLayer { gates } => gates.iter().map(|(q, _)| *q).collect(),
            Instruction::MoveGroup { coll_moves } => coll_moves
                .iter()
                .flat_map(|cm| cm.moves.iter().map(|m| m.qubit))
                .collect(),
            Instruction::RydbergStage { gates } => gates.iter().flat_map(|g| g.qubits()).collect(),
        };

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
                let exposed = layout
                    .iter()
                    .filter(|(q, site)| grid.zone_of(*site) == Zone::Compute && !seen.contains(q))
                    .count();
                trace.excitation_exposure += exposed;
                trace.cz_gate_count += gates.len();
                trace.rydberg_stage_count += 1;
            }
        }

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

/// Every field of a trace, with each `f64` as its bit pattern.
fn bits(trace: &ExecutionTrace) -> (Vec<u64>, [usize; 7], Vec<u64>, Vec<u64>, &Layout) {
    let to_bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    (
        to_bits(&[
            trace.total_time,
            trace.total_move_distance,
            trace.max_move_distance,
            trace.movement_time,
        ]),
        [
            trace.cz_gate_count,
            trace.one_qubit_gate_count,
            trace.transfer_count,
            trace.excitation_exposure,
            trace.rydberg_stage_count,
            trace.move_group_count,
            trace.coll_move_count,
        ],
        to_bits(&trace.idle_time),
        to_bits(&trace.storage_time),
        &trace.final_layout,
    )
}

/// Asserts both replays return the same result, to the bit; returns it.
fn assert_same(program: &CompiledProgram, what: &str) -> Result<ExecutionTrace, ScheduleError> {
    let fast = simulate(program);
    let reference = reference_simulate(program);
    match (&fast, &reference) {
        (Ok(a), Ok(b)) => assert_eq!(bits(a), bits(b), "{what}"),
        _ => assert_eq!(fast, reference, "{what}"),
    }
    fast
}

fn suite_programs() -> Vec<(String, CompiledProgram)> {
    let families = [
        BenchmarkFamily::Qft,
        BenchmarkFamily::QaoaRegular3,
        BenchmarkFamily::QaoaRandom,
    ];
    let mut programs = Vec::new();
    for family in families {
        for &qubits in SUITE_QUBITS {
            let circuit = generate(family, qubits, 1).circuit;
            for aods in [1, 4] {
                let arch =
                    powermove_suite::hardware::Architecture::for_qubits(qubits).with_num_aods(aods);
                for (storage, base) in [
                    ("storage", CompilerConfig::default()),
                    ("no-storage", CompilerConfig::without_storage()),
                ] {
                    for (routing, config) in [
                        ("greedy", RoutingConfig::greedy()),
                        ("auto", RoutingConfig::auto()),
                    ] {
                        let config = base.with_routing(config).with_threads(1);
                        let program = compile(&circuit, &arch, &config).expect("suite compiles");
                        let name = format!("{family}-{qubits}/aod{aods}/{storage}/{routing}");
                        programs.push((name, program));
                    }
                }
            }
        }
    }
    programs
}

fn corpus_programs() -> Vec<(String, CompiledProgram)> {
    let mut programs = Vec::new();
    for seed in 0..CORPUS_SEEDS {
        let instance = CorpusInstance::generate(seed);
        let circuit = instance.circuit().expect("corpus circuits build");
        let arch = instance.architecture();
        for (name, routing) in lint_strategies() {
            let config = CompilerConfig::default()
                .with_routing(routing)
                .with_threads(1);
            if let Ok(program) = compile(&circuit, &arch, &config) {
                programs.push((format!("corpus-{seed}/{name}"), program));
            }
        }
    }
    programs
}

/// The mutation classes, in the order [`mutate`] dispatches them.
const MUTATIONS: [&str; 12] = [
    "retarget-onto-occupied",
    "cluster-idle-qubits",
    "drop-move-group",
    "duplicate-stage-gate",
    "gate-qubit-to-storage",
    "qubit-out-of-range",
    "site-out-of-range",
    "aod-out-of-range",
    "too-many-coll-moves",
    "doubly-booked-aod",
    "qubit-on-two-aods",
    "move-source-mismatch",
];

fn rebuild(
    program: &CompiledProgram,
    layout: Layout,
    instructions: Vec<Instruction>,
) -> CompiledProgram {
    CompiledProgram::new(
        program.architecture().clone(),
        program.num_qubits(),
        layout,
        instructions,
    )
}

/// The layout just before instruction `index` of a valid program.
fn layout_before(program: &CompiledProgram, index: usize) -> Layout {
    let prefix = rebuild(
        program,
        program.initial_layout().clone(),
        program.instructions()[..index].to_vec(),
    );
    simulate(&prefix)
        .expect("prefixes of valid programs replay")
        .final_layout
}

fn indices_where(program: &CompiledProgram, keep: impl Fn(&Instruction) -> bool) -> Vec<usize> {
    program
        .instructions()
        .iter()
        .enumerate()
        .filter(|(_, i)| keep(i))
        .map(|(k, _)| k)
        .collect()
}

fn pick<T: Copy>(rng: &mut StdRng, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.gen_range(0..items.len())])
}

fn is_nonempty_group(i: &Instruction) -> bool {
    matches!(i, Instruction::MoveGroup { coll_moves } if coll_moves.iter().any(|cm| !cm.is_empty()))
}

fn is_nonempty_stage(i: &Instruction) -> bool {
    matches!(i, Instruction::RydbergStage { gates } if !gates.is_empty())
}

/// The collective moves of instruction `k`, a move group.
fn coll_moves_mut(instructions: &mut [Instruction], k: usize) -> &mut Vec<CollMove> {
    match &mut instructions[k] {
        Instruction::MoveGroup { coll_moves } => coll_moves,
        _ => unreachable!("instruction {k} is a move group"),
    }
}

/// A random move of move group `k`, as (collective move, move) indices.
fn some_move(instructions: &mut [Instruction], k: usize, rng: &mut StdRng) -> (usize, usize) {
    let coll_moves = coll_moves_mut(instructions, k);
    let filled: Vec<usize> = (0..coll_moves.len())
        .filter(|&c| !coll_moves[c].is_empty())
        .collect();
    let c = pick(rng, &filled).expect("a non-empty collective move");
    (c, rng.gen_range(0..coll_moves[c].len()))
}

/// Applies mutation `class` to a valid program, or returns `None` when the
/// program offers no place for it.
fn mutate(program: &CompiledProgram, class: usize, rng: &mut StdRng) -> Option<CompiledProgram> {
    let arch = program.architecture();
    let grid = arch.grid();
    let n = program.num_qubits();
    let mut instructions = program.instructions().to_vec();
    let mut layout = program.initial_layout().clone();
    let groups = indices_where(program, is_nonempty_group);
    let stages = indices_where(program, is_nonempty_stage);
    match MUTATIONS[class] {
        "retarget-onto-occupied" => {
            let k = pick(rng, &groups)?;
            let (c, m) = some_move(&mut instructions, k, rng);
            let before = layout_before(program, k);
            let occupied: Vec<SiteId> = before.occupied_sites().map(|(s, _)| s).collect();
            coll_moves_mut(&mut instructions, k)[c].moves[m].to = pick(rng, &occupied)?;
        }
        "cluster-idle-qubits" => {
            // Just before a stage, move one idle computation-zone qubit
            // onto another's site.
            let k = pick(rng, &stages)?;
            let Instruction::RydbergStage { gates } = &instructions[k] else {
                unreachable!("stage index");
            };
            let gated: BTreeSet<Qubit> = gates.iter().flat_map(|g| g.qubits()).collect();
            let before = layout_before(program, k);
            let idle: Vec<(Qubit, SiteId)> = before
                .iter()
                .filter(|(q, s)| !gated.contains(q) && grid.zone_of(*s) == Zone::Compute)
                .collect();
            let (q, from) = pick(rng, &idle)?;
            let (_, to) = pick(rng, &idle)?;
            if from == to {
                return None;
            }
            let join = CollMove::new(AodId::new(0), vec![SiteMove::new(q, from, to)]);
            instructions.insert(k, Instruction::move_group(vec![join]));
        }
        "drop-move-group" => {
            let k = pick(rng, &groups)?;
            instructions.remove(k);
        }
        "duplicate-stage-gate" => {
            let k = pick(rng, &stages)?;
            if let Instruction::RydbergStage { gates } = &mut instructions[k] {
                let g = gates[rng.gen_range(0..gates.len())];
                let at = rng.gen_range(0..=gates.len());
                gates.insert(at, g);
            }
        }
        "gate-qubit-to-storage" => {
            let k = pick(rng, &stages)?;
            let Instruction::RydbergStage { gates } = &instructions[k] else {
                unreachable!("stage index");
            };
            let gate = gates[rng.gen_range(0..gates.len())];
            let q = if rng.gen_bool(0.5) {
                gate.lo()
            } else {
                gate.hi()
            };
            let before = layout_before(program, k);
            let free: Vec<SiteId> = grid
                .sites_in(Zone::Storage)
                .filter(|&s| before.is_empty_site(s))
                .collect();
            let to = pick(rng, &free)?;
            let from = before.site_of(q).expect("gate qubits are placed");
            let park = CollMove::new(AodId::new(0), vec![SiteMove::new(q, from, to)]);
            instructions.insert(k, Instruction::move_group(vec![park]));
        }
        "qubit-out-of-range" => {
            let k = rng.gen_range(0..instructions.len().max(1));
            let out = Qubit::new(n + rng.gen_range(0..3_u32));
            match instructions.get_mut(k)? {
                Instruction::OneQubitLayer { gates } if !gates.is_empty() => {
                    let at = rng.gen_range(0..gates.len());
                    gates[at].0 = out;
                }
                Instruction::RydbergStage { gates } if !gates.is_empty() => {
                    let at = rng.gen_range(0..gates.len());
                    gates[at] = CzGate::new(gates[at].lo(), out);
                }
                Instruction::MoveGroup { coll_moves } if !coll_moves.is_empty() => {
                    let cm = rng.gen_range(0..coll_moves.len());
                    if coll_moves[cm].is_empty() {
                        return None;
                    }
                    let m = rng.gen_range(0..coll_moves[cm].len());
                    coll_moves[cm].moves[m].qubit = out;
                }
                _ => return None,
            }
        }
        "site-out-of-range" => {
            // Off-grid move endpoints fail while timing the move, before
            // validation, in both replays; the initial layout is checked first.
            let q = Qubit::new(rng.gen_range(0..n));
            layout.place(q, SiteId::new(grid.num_sites() + rng.gen_range(0..3_usize)));
        }
        "aod-out-of-range" => {
            let k = pick(rng, &groups)?;
            let (c, _) = some_move(&mut instructions, k, rng);
            let aod = AodId::new(arch.num_aods() + rng.gen_range(0..2_usize));
            coll_moves_mut(&mut instructions, k)[c].aod = aod;
        }
        "too-many-coll-moves" => {
            let k = pick(rng, &groups)?;
            let coll_moves = coll_moves_mut(&mut instructions, k);
            while coll_moves.len() <= arch.num_aods() {
                coll_moves.push(CollMove::new(AodId::new(0), Vec::new()));
            }
        }
        "doubly-booked-aod" => {
            let k = pick(rng, &groups)?;
            let (c, _) = some_move(&mut instructions, k, rng);
            let coll_moves = coll_moves_mut(&mut instructions, k);
            let half = coll_moves[c].len() / 2;
            let split = coll_moves[c].moves.split_off(half);
            let aod = coll_moves[c].aod;
            coll_moves.push(CollMove::new(aod, split));
        }
        "qubit-on-two-aods" => {
            let k = pick(rng, &groups)?;
            let (c, m) = some_move(&mut instructions, k, rng);
            let coll_moves = coll_moves_mut(&mut instructions, k);
            let copy = coll_moves[c].moves[m];
            let other = (0..arch.num_aods())
                .map(AodId::new)
                .find(|a| coll_moves.iter().all(|cm| cm.aod != *a));
            match other {
                Some(aod) => coll_moves.push(CollMove::new(aod, vec![copy])),
                None => {
                    let d = (c + 1) % coll_moves.len();
                    coll_moves[d].moves.push(copy);
                }
            }
        }
        "move-source-mismatch" => {
            let k = pick(rng, &groups)?;
            let (c, m) = some_move(&mut instructions, k, rng);
            let from = SiteId::new(rng.gen_range(0..grid.num_sites()));
            coll_moves_mut(&mut instructions, k)[c].moves[m].from = from;
        }
        other => unreachable!("unknown mutation {other}"),
    }
    Some(rebuild(program, layout, instructions))
}

#[test]
fn valid_programs_replay_identically() {
    let programs: Vec<_> = suite_programs()
        .into_iter()
        .chain(corpus_programs())
        .collect();
    assert!(programs.len() > 100);
    for (name, program) in &programs {
        assert!(assert_same(program, name).is_ok(), "{name} is valid");
    }
}

#[test]
fn mutated_programs_fail_identically() {
    let programs = suite_programs();
    let mut errors = [0_usize; MUTATIONS.len()];
    for (p, (name, program)) in programs.iter().enumerate() {
        for class in 0..MUTATIONS.len() {
            for seed in 0..MUTATION_SEEDS {
                let mut rng =
                    StdRng::seed_from_u64(seed * 1000 + (p * MUTATIONS.len() + class) as u64);
                let Some(mutant) = mutate(program, class, &mut rng) else {
                    continue;
                };
                let what = format!("{name} / {} / seed {seed}", MUTATIONS[class]);
                errors[class] += usize::from(assert_same(&mutant, &what).is_err());
            }
        }
    }
    for (class, count) in MUTATIONS.iter().zip(errors) {
        assert!(count > 0, "mutation class {class} never produced an error");
    }
}
