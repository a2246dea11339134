//! Determinism guarantees of the route-only replay hot path.
//!
//! The compiler splits along its front/back-end seam: the circuit is
//! staged **once** into a frozen `StagedIr` and the back end — a route step,
//! then a lower step — replays from it. The auto-tuner runs two routes and
//! three lowerings: the greedy route is lowered by both the greedy and the
//! multi-AOD scheduler, the lookahead route by its own. These tests pin the
//! contract that makes that safe:
//!
//! * the full compile and `emit` of a shared staged IR are byte-identical
//!   — across every suite family, every fixed strategy plus the auto-tuner,
//!   and at 1, 2 and 4 worker threads — and the auto-tuner emits exactly
//!   the instructions of its winner's own fixed configuration;
//! * the shared-route auto compile equals three full `RoutingSession::replay`
//!   calls under its (movement, transfers) selection rule — instructions,
//!   selected strategy and every metadata counter — at 1, 2 and 4 AODs,
//!   with storage on and off and with grouping off;
//! * a property test replays random stage chains through the arena-backed
//!   router and through a verbatim port of the pre-arena `BTreeMap`
//!   planner, asserting identical move plans and layouts after every stage
//!   (case count tunable via `POWERMOVE_PROP_CASES`) — both under the zero
//!   bias and under a nonzero `SitePolicy` bias, so the index-pruned
//!   free-site search is pinned against the reference scan through whole
//!   routed stages, not just isolated queries.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use powermove_suite::benchmarks::{generate, BenchmarkFamily};
use powermove_suite::circuit::{Circuit, CzGate, Qubit};
use powermove_suite::exec::{Parallelism, ThreadPool};
use powermove_suite::hardware::{Architecture, Point, SiteId, Zone, ZonedGrid};
use powermove_suite::powermove::{
    movement_wall_clock, AutoRouter, BiasFn, CompileContext, CompilerConfig, MovePass,
    PowerMoveCompiler, Replay, RoutePass, RoutingConfig, RoutingState, SitePolicy, Stage,
    StagePass, SynthesisPass, ZeroBias,
};
use powermove_suite::schedule::{canonical_program_bytes, Layout, PassCounter, SiteMove};

/// The fixed configurations of the portfolio members, in the auto-tuner's
/// candidate (and tie-break) order.
fn candidates() -> [RoutingConfig; 3] {
    [
        RoutingConfig::greedy(),
        RoutingConfig::lookahead(2),
        RoutingConfig::multi_aod(),
    ]
}

#[test]
fn replay_emission_matches_the_full_compile_for_every_family_and_thread_count() {
    for family in BenchmarkFamily::ALL {
        let instance = generate(family, 12, 20250);
        let arch = Architecture::for_qubits(instance.num_qubits).with_num_aods(2);
        for routing in candidates().into_iter().chain([RoutingConfig::auto()]) {
            for threads in [1_usize, 2, 4] {
                let config = CompilerConfig::default()
                    .with_routing(routing)
                    .with_threads(threads);
                let compiler = PowerMoveCompiler::new(config);
                let full = compiler
                    .compile(&instance.circuit, &arch)
                    .expect("suite instances compile");
                // Stage once, then emit.
                let ir = compiler.stage(&instance.circuit);
                let emitted = compiler.emit(&ir, &arch).expect("emission succeeds");
                let label = format!("{family} / {} / threads={threads}", routing.strategy.name());
                assert_eq!(
                    canonical_program_bytes(&full),
                    canonical_program_bytes(&emitted),
                    "{label}: full compile vs stage+emit diverged"
                );
                assert_eq!(
                    full.metadata().selected_strategy,
                    emitted.metadata().selected_strategy,
                    "{label}: selected strategy diverged"
                );
                if routing.strategy.is_auto() {
                    // The winner's own fixed configuration emits the
                    // winner's instructions, without the auto-tuner's
                    // selection record and portfolio counters.
                    let selected = full.metadata().selected_strategy.clone();
                    let winner = candidates()
                        .into_iter()
                        .find(|r| Some(r.strategy.name()) == selected.as_deref())
                        .expect("auto selects a portfolio member");
                    let fixed = PowerMoveCompiler::new(config.with_routing(winner))
                        .emit(&ir, &arch)
                        .expect("the winner's configuration compiles");
                    assert_eq!(
                        full.instructions(),
                        fixed.instructions(),
                        "{label}: auto vs its winner's configuration diverged"
                    );
                    assert_eq!(fixed.metadata().selected_strategy, None);
                }
            }
        }
    }
}

#[test]
fn portfolio_output_equals_the_best_replay() {
    let inline = ThreadPool::new(Parallelism::fixed(1));
    let mut settings: Vec<(usize, bool, bool)> = [1_usize, 2, 4]
        .into_iter()
        .flat_map(|aods| [(aods, true, true), (aods, false, true)])
        .collect();
    settings.push((2, true, false));
    for family in [
        BenchmarkFamily::QaoaRegular3,
        BenchmarkFamily::Qft,
        BenchmarkFamily::Bv,
    ] {
        let instance = generate(family, 14, 20250);
        for &(aods, use_storage, use_grouping) in &settings {
            let label =
                format!("{family} @ {aods} aods, storage={use_storage}, grouping={use_grouping}");
            let arch = Architecture::for_qubits(instance.num_qubits).with_num_aods(aods);
            let config = CompilerConfig {
                use_storage,
                use_grouping,
                ..CompilerConfig::default()
            }
            .with_routing(RoutingConfig::auto())
            .with_threads(1);
            let auto = PowerMoveCompiler::new(config);
            let program = auto
                .compile(&instance.circuit, &arch)
                .expect("suite instances compile");

            // Rebuild the portfolio by hand: one stage pass, one full replay
            // per candidate, then the auto-tuner's selection rule (movement
            // first, trap transfers as tie-break, earlier candidate wins).
            let ir = auto.stage(&instance.circuit);
            let session = auto.session(&ir);
            let mut best: Option<(&str, Replay)> = None;
            for routing in candidates() {
                let replay = session
                    .replay(&arch, routing.build(), &inline)
                    .expect("replay succeeds");
                let better = best.as_ref().map_or(true, |(_, b)| {
                    replay.movement_wall_clock() < b.movement_wall_clock()
                        || (replay.movement_wall_clock() == b.movement_wall_clock()
                            && replay.transfer_count() < b.transfer_count())
                });
                if better {
                    best = Some((routing.strategy.name(), replay));
                }
            }
            let (winner, best) = best.expect("portfolio is non-empty");
            assert_eq!(
                program.instructions(),
                best.instructions(),
                "{label}: auto-tuned program is not the best replay"
            );
            assert_eq!(
                program.metadata().selected_strategy.as_deref(),
                Some(winner),
                "{label}: selected strategy diverged"
            );
            let emitted = movement_wall_clock(program.instructions(), program.architecture());
            assert_eq!(
                emitted.to_bits(),
                best.movement_wall_clock().to_bits(),
                "{label}: replay's incremental clock diverged from the emitted stream"
            );
            assert_eq!(
                program.metadata().counters,
                three_replay_counters(&config, &instance.circuit, &arch),
                "{label}: counters diverged from three full replays"
            );
        }
    }
}

/// The metadata counters of three full back-end replays — a `RoutePass`
/// and a `MovePass` per candidate on its own scratch context, merged in
/// candidate order — after one front-end pass, with the portfolio counters
/// where the auto-tuner records them.
fn three_replay_counters(
    config: &CompilerConfig,
    circuit: &Circuit,
    arch: &Architecture,
) -> Vec<PassCounter> {
    let inline = ThreadPool::new(Parallelism::fixed(1));
    let mut ctx = CompileContext::new();
    let blocks = SynthesisPass.run(circuit, &mut ctx);
    let staged = StagePass::new(config.alpha).run(&blocks, &inline, &mut ctx);
    ctx.count(AutoRouter::STAGE_COUNTER, 1);
    for strategy in candidates().map(|routing| routing.build()) {
        let mut scratch = CompileContext::scratch();
        let routed = RoutePass::new(config.use_storage)
            .with_strategy(strategy.clone())
            .run(&staged, arch, &mut scratch)
            .expect("every candidate routes");
        let _ = MovePass::new(config.use_grouping)
            .with_strategy(strategy)
            .run(&routed, arch, &inline, &mut scratch);
        ctx.merge(scratch);
    }
    ctx.count(AutoRouter::PORTFOLIO_COUNTER, 3);
    ctx.finish(
        "powermove",
        config.use_storage,
        staged.num_stages(),
        arch.num_aods(),
    )
    .counters
}

// ---------------------------------------------------------------------------
// Arena vs pre-arena reference planner.
// ---------------------------------------------------------------------------

/// Default number of random stage-chain cases; override with
/// `POWERMOVE_PROP_CASES`.
const DEFAULT_CASES: u64 = 100;

fn cases() -> u64 {
    std::env::var("POWERMOVE_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

fn q(i: u32) -> Qubit {
    Qubit::new(i)
}

fn stage(edges: &[(u32, u32)]) -> Stage {
    Stage::new(
        edges
            .iter()
            .map(|&(a, b)| CzGate::new(q(a), q(b)))
            .collect(),
    )
}

/// A random chain of stages over `num_qubits` qubits: each stage pairs a
/// random disjoint subset of the qubits.
fn random_stages(rng: &mut StdRng, num_qubits: u32) -> Vec<Stage> {
    let num_stages = rng.gen_range(2..=5_usize);
    (0..num_stages)
        .map(|_| {
            let mut pool: Vec<u32> = (0..num_qubits).collect();
            let pairs = rng.gen_range(1..=(num_qubits / 2).max(1) as usize);
            let mut edges = Vec::new();
            for _ in 0..pairs {
                if pool.len() < 2 {
                    break;
                }
                let a = pool.swap_remove(rng.gen_range(0..pool.len()));
                let b = pool.swap_remove(rng.gen_range(0..pool.len()));
                edges.push((a.min(b), a.max(b)));
            }
            stage(&edges)
        })
        .collect()
}

/// A verbatim port of the pre-arena `route_stage` planner: planned
/// occupancy in a `BTreeMap<SiteId, BTreeSet<Qubit>>` rebuilt per stage,
/// free sites found by scanning every site of the zone. Kept as the
/// executable specification the arena implementation must match.
fn reference_route_stage(
    arch: &Architecture,
    layout: &mut Layout,
    use_storage: bool,
    stage: &Stage,
    bias: &dyn Fn(Qubit, Qubit, SiteId) -> f64,
) -> Vec<SiteMove> {
    let grid = arch.grid().clone();
    let interacting = stage.interacting_qubits();

    let mut planned: BTreeMap<SiteId, BTreeSet<Qubit>> = BTreeMap::new();
    for (q, site) in layout.iter() {
        planned.entry(site).or_default().insert(q);
    }

    let mut storage_moves: Vec<SiteMove> = Vec::new();
    let mut interaction_moves: Vec<SiteMove> = Vec::new();

    // Step 1 (non-storage mode): separate stale pairs.
    if !use_storage {
        let stale: Vec<(Qubit, SiteId)> = layout
            .occupied_sites()
            .filter(|(_, occupants)| {
                occupants.len() >= 2 && occupants.iter().all(|q| !interacting.contains(q))
            })
            .flat_map(|(site, occupants)| {
                occupants
                    .iter()
                    .skip(1)
                    .map(move |&q| (q, site))
                    .collect::<Vec<_>>()
            })
            .collect();
        for (q, from) in stale {
            planned.entry(from).or_default().remove(&q);
            let from_pos = grid.position(from);
            let target = reference_best_free_site(&grid, layout, &planned, Zone::Compute, |site| {
                grid.position(site).distance(from_pos)
            })
            .expect("default grid always has a free compute site");
            planned.entry(target).or_default().insert(q);
            storage_moves.push(SiteMove::new(q, from, target));
        }
    }

    // Step 1: park non-interacting computation-zone qubits in storage.
    if use_storage {
        let mut to_park: Vec<(Qubit, SiteId, Point)> = layout
            .iter()
            .filter(|(q, site)| !interacting.contains(q) && grid.zone_of(*site) == Zone::Compute)
            .map(|(q, site)| (q, site, grid.position(site)))
            .collect();
        to_park.sort_by(|a, b| {
            b.2.y
                .partial_cmp(&a.2.y)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        for (q, from, from_pos) in to_park {
            planned.entry(from).or_default().remove(&q);
            let (col, _) = grid.col_row(from);
            let same_column = (0..grid.storage_rows())
                .filter_map(|row| grid.site(Zone::Storage, col, row))
                .find(|s| {
                    planned.get(s).map_or(0, BTreeSet::len) == 0 && layout.occupancy(*s) == 0
                });
            let target = same_column
                .or_else(|| {
                    reference_best_free_site(&grid, layout, &planned, Zone::Storage, |site| {
                        grid.position(site).distance(from_pos)
                    })
                })
                .expect("default grid always has a free storage site");
            planned.entry(target).or_default().insert(q);
            storage_moves.push(SiteMove::new(q, from, target));
        }
    }

    let storage_movers: BTreeSet<Qubit> = storage_moves.iter().map(|m| m.qubit).collect();

    // Step 2: label interacting qubits and decide direct moves.
    let mut pending: Vec<(Qubit, Qubit)> = Vec::new();
    for gate in stage.gates() {
        let a = gate.lo();
        let b = gate.hi();
        let sa = layout.site_of(a).expect("interacting qubit is placed");
        let sb = layout.site_of(b).expect("interacting qubit is placed");
        if sa == sb {
            continue;
        }
        let za = grid.zone_of(sa);
        let zb = grid.zone_of(sb);

        let (mobile, anchor, anchor_site, mut anchor_moves) = match (za, zb) {
            (Zone::Storage, Zone::Storage) => (a, b, sb, true),
            (Zone::Storage, Zone::Compute) => (a, b, sb, false),
            (Zone::Compute, Zone::Storage) => (b, a, sa, false),
            (Zone::Compute, Zone::Compute) => {
                let blocked_a = reference_is_blocked(layout, &planned, &storage_movers, sa, a, b);
                let blocked_b = reference_is_blocked(layout, &planned, &storage_movers, sb, a, b);
                if !blocked_b {
                    (a, b, sb, false)
                } else if !blocked_a {
                    (b, a, sa, false)
                } else {
                    (a, b, sb, true)
                }
            }
        };

        let mobile_site = if mobile == a { sa } else { sb };
        planned.entry(mobile_site).or_default().remove(&mobile);

        if !anchor_moves
            && reference_is_blocked(
                layout,
                &planned,
                &storage_movers,
                anchor_site,
                anchor,
                mobile,
            )
        {
            anchor_moves = true;
        }
        if !anchor_moves && grid.zone_of(anchor_site) == Zone::Storage {
            anchor_moves = true;
        }

        if anchor_moves {
            planned.entry(anchor_site).or_default().remove(&anchor);
            pending.push((anchor, mobile));
        } else {
            planned.entry(anchor_site).or_default().insert(mobile);
            interaction_moves.push(SiteMove::new(mobile, mobile_site, anchor_site));
        }
    }

    // Step 3: resolve undecided pairs to the best free compute site.
    for (anchor, mobile) in pending {
        let anchor_from = layout.site_of(anchor).expect("interacting qubit is placed");
        let mobile_from = layout.site_of(mobile).expect("interacting qubit is placed");
        let anchor_pos = grid.position(anchor_from);
        let target = reference_best_free_site(&grid, layout, &planned, Zone::Compute, |site| {
            grid.position(site).distance(anchor_pos) + bias(anchor, mobile, site)
        })
        .expect("default grid always has a free compute site");
        planned.entry(target).or_default().insert(anchor);
        planned.entry(target).or_default().insert(mobile);
        interaction_moves.push(SiteMove::new(anchor, anchor_from, target));
        interaction_moves.push(SiteMove::new(mobile, mobile_from, target));
    }

    let mut all = storage_moves;
    all.extend(interaction_moves);
    for m in &all {
        layout.move_qubit(m.qubit, m.to);
    }
    all
}

fn reference_is_blocked(
    layout: &Layout,
    planned: &BTreeMap<SiteId, BTreeSet<Qubit>>,
    storage_movers: &BTreeSet<Qubit>,
    site: SiteId,
    exclude_a: Qubit,
    exclude_b: Qubit,
) -> bool {
    let planned_blocker = planned
        .get(&site)
        .is_some_and(|set| set.iter().any(|&q| q != exclude_a && q != exclude_b));
    let current_blocker = layout
        .occupants(site)
        .iter()
        .any(|&q| q != exclude_a && q != exclude_b && !storage_movers.contains(&q));
    planned_blocker || current_blocker
}

fn reference_best_free_site(
    grid: &ZonedGrid,
    layout: &Layout,
    planned: &BTreeMap<SiteId, BTreeSet<Qubit>>,
    zone: Zone,
    score: impl Fn(SiteId) -> f64,
) -> Option<SiteId> {
    let candidates = |also_currently_empty: bool| {
        grid.sites_in(zone)
            .filter(move |s| {
                planned.get(s).map_or(0, BTreeSet::len) == 0
                    && (!also_currently_empty || layout.occupancy(*s) == 0)
            })
            .min_by(|&x, &y| {
                score(x)
                    .partial_cmp(&score(y))
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(x.cmp(&y))
            })
    };
    candidates(true).or_else(|| candidates(false))
}

/// QFT-shaped stages: one single-gate stage per qubit pair, in star order
/// (qubit 0 with every later qubit, then qubit 1, …) — the shape where
/// every stage parks the previous pair and storage columns fill up.
fn qft_star_stages(num_qubits: u32) -> Vec<Stage> {
    (0..num_qubits)
        .flat_map(|i| ((i + 1)..num_qubits).map(move |j| stage(&[(i, j)])))
        .collect()
}

/// Routes `stages` through the arena router under `policy` and through the
/// reference planner under `bias`, asserting identical move plans and
/// layouts after every stage. Returns the number of storage moves and of
/// those whose target lies outside the source column: in storage mode,
/// parks that fell back to the nearest free storage site; otherwise, stale
/// pairs separated.
fn assert_chain_matches_reference(
    num_qubits: u32,
    use_storage: bool,
    stages: &[Stage],
    policy: &dyn SitePolicy,
    bias: &dyn Fn(Qubit, Qubit, SiteId) -> f64,
    label: &str,
) -> (usize, usize) {
    let zone = if use_storage {
        Zone::Storage
    } else {
        Zone::Compute
    };
    let arch = Architecture::for_qubits(num_qubits);
    let initial = Layout::row_major(&arch, num_qubits, zone).unwrap();
    assert_chain_from_layout_matches_reference(
        &arch,
        initial,
        use_storage,
        stages,
        policy,
        bias,
        label,
    )
}

/// [`assert_chain_matches_reference`] from an explicit machine and initial
/// layout.
fn assert_chain_from_layout_matches_reference(
    arch: &Architecture,
    initial: Layout,
    use_storage: bool,
    stages: &[Stage],
    policy: &dyn SitePolicy,
    bias: &dyn Fn(Qubit, Qubit, SiteId) -> f64,
    label: &str,
) -> (usize, usize) {
    let grid = arch.grid().clone();
    let mut arena = RoutingState::new(arch.clone(), initial.clone(), use_storage);
    let mut reference_layout = initial;
    let mut storage_moves = 0;
    let mut cross_column = 0;
    for (i, st) in stages.iter().enumerate() {
        let planned = arena
            .route_stage_with(st, policy)
            .expect("default grid never runs out of sites");
        let expected = reference_route_stage(arch, &mut reference_layout, use_storage, st, bias);
        assert_eq!(
            planned.all_moves(),
            expected,
            "{label} stage {i} (storage={use_storage}): move plans diverged"
        );
        assert_eq!(
            arena.layout(),
            &reference_layout,
            "{label} stage {i} (storage={use_storage}): layouts diverged"
        );
        storage_moves += planned.storage_moves.len();
        cross_column += planned
            .storage_moves
            .iter()
            .filter(|m| grid.col_row(m.from).0 != grid.col_row(m.to).0)
            .count();
    }
    (storage_moves, cross_column)
}

/// Long QFT-shaped chains at 32 and 64 qubits in both storage modes:
/// hundreds of stages, enough for storage columns to fill so parking falls
/// back to the nearest-site search, and for stale pairs to accumulate in
/// the non-storage mode.
fn assert_qft_chains_match_reference(
    policy: &dyn SitePolicy,
    bias: &dyn Fn(Qubit, Qubit, SiteId) -> f64,
) {
    for num_qubits in [32, 64] {
        let stages = qft_star_stages(num_qubits);
        for use_storage in [true, false] {
            let label = format!("qft-{num_qubits}");
            let (storage_moves, cross_column) = assert_chain_matches_reference(
                num_qubits,
                use_storage,
                &stages,
                policy,
                bias,
                &label,
            );
            if use_storage {
                assert!(
                    cross_column > 0,
                    "{label}: no park fell back to the nearest storage site"
                );
            } else {
                assert!(storage_moves > 0, "{label}: no stale pair was separated");
            }
        }
    }
}

#[test]
fn arena_router_matches_the_btreemap_reference_on_random_stage_chains() {
    let cases = cases();
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let num_qubits = rng.gen_range(4..=10_u32);
        let stages = random_stages(&mut rng, num_qubits);
        // Alternate storage mode across seeds so both planners' step-1
        // branches get even coverage.
        let use_storage = seed % 2 == 0;
        assert_chain_matches_reference(
            num_qubits,
            use_storage,
            &stages,
            &ZeroBias,
            &|_, _, _| 0.0,
            &format!("seed {seed}"),
        );
    }
    assert_qft_chains_match_reference(&ZeroBias, &|_, _, _| 0.0);
}

#[test]
fn biased_arena_router_matches_the_biased_reference_on_random_stage_chains() {
    // Same chain replay, but through a nonzero `SitePolicy`: the pruned
    // search must agree with the reference scan when the score is distance
    // *plus* a pair- and site-dependent bias, exercising the cutoff with a
    // bound (`min_bias() == 0.0`) strictly below most biases.
    let pseudo_bias = |anchor: Qubit, mobile: Qubit, site: SiteId| -> f64 {
        let mix = (u64::from(anchor.index()) * 31 + u64::from(mobile.index()) * 7)
            ^ (site.index() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (mix % 23) as f64 * 0.375
    };
    let policy = BiasFn::new(pseudo_bias);
    for seed in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0xB1A5 ^ seed);
        let num_qubits = rng.gen_range(4..=10_u32);
        let stages = random_stages(&mut rng, num_qubits);
        let use_storage = seed % 2 == 0;
        assert_chain_matches_reference(
            num_qubits,
            use_storage,
            &stages,
            &policy,
            &pseudo_bias,
            &format!("biased seed {seed}"),
        );
    }
    assert_qft_chains_match_reference(&policy, &pseudo_bias);
}

#[test]
fn step_three_pairs_prefer_vacant_sites_over_sites_vacated_in_the_same_stage() {
    // Eight qubits on the 8×8 compute grid of a 64-qubit machine (no
    // storage), so the free list is long enough for the pruned search:
    //
    //   site 0 (corner)  qubits 2, 3     site 1   qubit 4
    //   site 8 (below 0) qubit 6         site 27  qubits 0, 1
    //   site 40          qubit 5
    //
    // Gate (0, 2) finds both its sites shared with a partner that stays, so
    // the pair is resolved in step 3 around the anchor on site 0. Gate
    // (4, 5) moves qubit 4 to site 40 in the same stage, so site 1, next to
    // the anchor, is free in the plan but still occupied. The nearest
    // vacant site is the diagonal site 9, one step farther: the search must
    // prefer it over site 1.
    let arch = Architecture::for_qubits(64);
    let mut initial = Layout::empty(7);
    for (qubit, site) in [(0, 27), (1, 27), (2, 0), (3, 0), (4, 1), (5, 40), (6, 8)] {
        initial.place(q(qubit), SiteId::new(site));
    }
    let stages = [stage(&[(0, 2), (4, 5)])];
    assert_chain_from_layout_matches_reference(
        &arch,
        initial.clone(),
        false,
        &stages,
        &ZeroBias,
        &|_, _, _| 0.0,
        "vacated",
    );
    let mut state = RoutingState::new(arch, initial, false);
    let planned = state.route_stage_with(&stages[0], &ZeroBias).unwrap();
    let target = |qubit| {
        planned
            .all_moves()
            .iter()
            .find(|m| m.qubit == q(qubit))
            .map(|m| m.to.index())
    };
    assert_eq!(target(4), Some(40));
    assert_eq!(target(2), Some(9), "the pair takes the nearest vacant site");
    assert_eq!(target(0), Some(9));
}
