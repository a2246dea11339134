//! Workspace-level contract of the pluggable routing subsystem:
//!
//! * every built-in strategy compiles every suite family into a
//!   hardware-valid program, byte-identical across worker counts;
//! * `GreedyRouter` *is* the default configuration — selecting it
//!   explicitly — as a configuration, or as a strategy object replayed by
//!   hand — reproduces the default compiler's output bit for bit (the
//!   pre-refactor behaviour, also pinned by the benchmark gate's exact
//!   stage/transfer checks against the recorded baseline);
//! * the multi-AOD scheduler's schedules pass validation with no
//!   double-booked AOD while some move group drives several AODs at once;
//! * at two or more AODs the balanced windows never move slower than the
//!   greedy chunking, and beat it on movement-heavy workloads;
//! * the greedy router's spatial free-site index actually prunes
//!   candidates on a routing-heavy instance.

use powermove_suite::benchmarks::{generate, BenchmarkFamily};
use powermove_suite::exec::{Parallelism, ThreadPool};
use powermove_suite::fidelity::evaluate_program;
use powermove_suite::hardware::Architecture;
use powermove_suite::powermove::{
    CompilerConfig, GreedyRouter, PowerMoveCompiler, RoutingConfig, SITES_PRUNED, SITE_SCANS,
};
use powermove_suite::schedule::check::check_intra_aod_overlap;
use powermove_suite::schedule::{canonical_program_bytes, validate, CompiledProgram, Instruction};
use std::sync::Arc;

const SEED: u64 = 20250;

fn strategies() -> Vec<(&'static str, RoutingConfig)> {
    vec![
        ("greedy", RoutingConfig::greedy()),
        ("lookahead2", RoutingConfig::lookahead(2)),
        ("multi-aod", RoutingConfig::multi_aod()),
    ]
}

fn compile(
    family: BenchmarkFamily,
    n: u32,
    aods: usize,
    routing: RoutingConfig,
    threads: usize,
) -> CompiledProgram {
    let instance = generate(family, n, SEED);
    let arch = Architecture::for_qubits(instance.num_qubits).with_num_aods(aods);
    PowerMoveCompiler::new(
        CompilerConfig::default()
            .with_routing(routing)
            .with_threads(threads),
    )
    .compile(&instance.circuit, &arch)
    .expect("benchmark compiles")
}

#[test]
fn every_family_and_strategy_is_deterministic_across_worker_counts() {
    for family in BenchmarkFamily::ALL {
        for (name, routing) in strategies() {
            let reference = compile(family, 16, 3, routing, 1);
            validate(&reference).unwrap_or_else(|e| {
                panic!("{family}/{name}: invalid program: {e}");
            });
            let reference_bytes = canonical_program_bytes(&reference);
            for threads in [2, 4] {
                let parallel = canonical_program_bytes(&compile(family, 16, 3, routing, threads));
                assert_eq!(
                    reference_bytes, parallel,
                    "{family}/{name}: threads=1 vs threads={threads} diverged"
                );
            }
        }
    }
}

#[test]
fn explicit_greedy_router_reproduces_the_default_compiler_byte_identically() {
    for family in BenchmarkFamily::ALL {
        let instance = generate(family, 16, SEED);
        let arch = Architecture::for_qubits(instance.num_qubits);
        let default = PowerMoveCompiler::new(CompilerConfig::default())
            .compile(&instance.circuit, &arch)
            .expect("compiles");
        let explicit_config =
            PowerMoveCompiler::new(CompilerConfig::default().with_routing(RoutingConfig::greedy()))
                .compile(&instance.circuit, &arch)
                .expect("compiles");
        // A strategy object replayed over the staged program, as custom
        // strategies run.
        let compiler = PowerMoveCompiler::new(CompilerConfig::default());
        let pool = ThreadPool::new(Parallelism::fixed(1));
        let replay = compiler
            .session(&compiler.stage(&instance.circuit))
            .replay(&arch, Arc::new(GreedyRouter), &pool)
            .expect("replays");
        assert_eq!(
            canonical_program_bytes(&default),
            canonical_program_bytes(&explicit_config)
        );
        assert_eq!(default.instructions(), replay.instructions());
    }
}

#[test]
fn multi_aod_schedules_have_zero_intra_aod_window_overlaps() {
    for family in BenchmarkFamily::ALL {
        for aods in [2_usize, 4] {
            let program = compile(family, 16, aods, RoutingConfig::multi_aod(), 1);
            validate(&program).expect("multi-AOD schedule validates");
            if let Err(e) = check_intra_aod_overlap(&program) {
                panic!("{family}@{aods}aods: {e}");
            }
            // The parallelism is real: some move group drives two or more
            // AODs at once (every program here moves more qubits than one
            // AOD batch carries).
            let parallel = program.instructions().iter().any(|instruction| {
                matches!(instruction, Instruction::MoveGroup { coll_moves }
                    if coll_moves.iter().filter(|cm| !cm.is_empty()).count() >= 2)
            });
            assert!(
                parallel,
                "{family}@{aods}aods: no move group drives two AODs"
            );
        }
    }
}

#[test]
fn balanced_windows_never_move_slower_than_greedy_at_multiple_aods() {
    let mut strictly_faster = 0_u32;
    for family in BenchmarkFamily::ALL {
        for aods in [2_usize, 3, 4] {
            let greedy = compile(family, 20, aods, RoutingConfig::greedy(), 1);
            let multi = compile(family, 20, aods, RoutingConfig::multi_aod(), 1);
            let movement =
                |p: &CompiledProgram| evaluate_program(p).expect("scores").trace.movement_time;
            let (tg, tm) = (movement(&greedy), movement(&multi));
            assert!(
                tm <= tg + 1e-12,
                "{family}@{aods}aods: balanced {tm} slower than greedy {tg}"
            );
            if tm < tg - 1e-12 {
                strictly_faster += 1;
            }
        }
    }
    assert!(
        strictly_faster > 0,
        "balanced packing never beat greedy on any family x AOD-count cell"
    );
}

/// Outputs stay byte-identical if the spatial free-site index stops pruning,
/// so only its work counters show that an inner loop has silently degraded
/// to the linear scan over every free site: greedy's distance-ordered walk
/// must prune, and lookahead's score-ordered walk must stay within 2x of
/// greedy's work on the same instance.
#[test]
fn greedy_free_site_index_prunes_candidates_at_128_qubits() {
    let instance = generate(BenchmarkFamily::QaoaRegular3, 128, 3);
    let arch = Architecture::for_qubits(128).with_num_aods(4);
    let counters = |routing: RoutingConfig| {
        let program = PowerMoveCompiler::new(CompilerConfig::default().with_routing(routing))
            .compile(&instance.circuit, &arch)
            .expect("benchmark compiles");
        let counter = |name| program.metadata().counter(name).unwrap_or(0);
        (counter(SITE_SCANS), counter(SITES_PRUNED))
    };
    let (scans, pruned) = counters(RoutingConfig::greedy());
    assert!(scans > 0, "greedy routing recorded no free-site scans");
    assert!(
        pruned > 0,
        "free-site index pruned nothing (site_scans={scans})"
    );
    let (lookahead_scans, _) = counters(RoutingConfig::lookahead(2));
    assert!(
        lookahead_scans <= 2 * scans,
        "lookahead examined {lookahead_scans} free sites, over 2x greedy's {scans}"
    );
}
