//! Per-pass compiler benchmarks over log-scaled circuit sizes.
//!
//! Five groups isolate the phases of the stage-once/replay-many pipeline:
//!
//! * `stage` — the front end (synthesis + stage partitioning), run once per
//!   portfolio regardless of candidate count;
//! * `route` — one route-only back-end replay per built-in strategy from a
//!   shared frozen [`StagedIr`]; after timing, each size prints a
//!   `route-counters/<n>: site_scans=… sites_pruned=…` line from a greedy
//!   replay so the spatial index's candidate pruning is observable (and CI
//!   can gate on it);
//! * `best_free_site` — the routing inner loop in isolation: the
//!   index-pruned search (`indexed`) against the linear reference scan
//!   (`linear`) over identical fragmented occupancy;
//! * `emit` — the full back end including metadata assembly
//!   ([`PowerMoveCompiler::emit`]);
//! * `portfolio` — portfolio auto-tuning end-to-end, with the pre-replay
//!   cost shape (one full compile per candidate) benchmarked alongside as
//!   `full_compile_per_candidate` so the replay speedup is visible in one
//!   run.
//!
//! Sizes are log-scaled (each twice the previous) so pass scaling shows up
//! as the gap between adjacent lines. `POWERMOVE_BENCH_SAMPLES` overrides
//! the per-benchmark sample count (CI smoke runs set it to 1).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use powermove::{
    CompilerConfig, FreeSiteHarness, GreedyRouter, LookaheadRouter, MultiAodScheduler,
    PowerMoveCompiler, RoutingConfig, RoutingStrategy, SITES_PRUNED, SITE_SCANS,
};
use powermove_benchmarks::{generate, BenchmarkFamily};
use powermove_circuit::{Circuit, Qubit};
use powermove_exec::{Parallelism, ThreadPool};
use powermove_hardware::{Architecture, Point, SiteId, Zone};
use std::sync::Arc;
use std::time::Duration;

/// Log-scaled circuit widths: QAOA on random 3-regular graphs, the suite's
/// routing-heaviest family.
const SIZES: &[u32] = &[16, 32, 64, 128, 256];

const SEED: u64 = 3;

fn sample_size() -> usize {
    std::env::var("POWERMOVE_BENCH_SAMPLES")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10)
}

fn instance(n: u32) -> (Circuit, Architecture) {
    let circuit = generate(BenchmarkFamily::QaoaRegular3, n, SEED).circuit;
    let arch = Architecture::for_qubits(n).with_num_aods(4);
    (circuit, arch)
}

fn bench_stage(c: &mut Criterion) {
    let mut group = c.benchmark_group("stage");
    group
        .sample_size(sample_size())
        .measurement_time(Duration::from_secs(3));
    let compiler = PowerMoveCompiler::new(CompilerConfig::default());
    for &n in SIZES {
        let (circuit, _) = instance(n);
        group.bench_with_input(BenchmarkId::from_parameter(n), &circuit, |b, circuit| {
            b.iter(|| black_box(compiler.stage(circuit)));
        });
    }
    group.finish();
}

fn bench_route(c: &mut Criterion) {
    let mut group = c.benchmark_group("route");
    group
        .sample_size(sample_size())
        .measurement_time(Duration::from_secs(3));
    let compiler = PowerMoveCompiler::new(CompilerConfig::default());
    let strategies: [(&str, Arc<dyn RoutingStrategy>); 3] = [
        ("greedy", Arc::new(GreedyRouter)),
        ("lookahead", Arc::new(LookaheadRouter::new(2))),
        ("multi-aod", Arc::new(MultiAodScheduler::default())),
    ];
    // One worker, as each portfolio candidate replays.
    let inline = ThreadPool::new(Parallelism::fixed(1));
    for &n in SIZES {
        let (circuit, arch) = instance(n);
        let ir = compiler.stage(&circuit);
        let session = compiler.session(&ir);
        for (name, strategy) in &strategies {
            group.bench_with_input(BenchmarkId::new(*name, n), &session, |b, session| {
                b.iter(|| black_box(session.replay(&arch, strategy.clone(), &inline).unwrap()));
            });
        }
        // One greedy replay outside the timing loop reports how much work
        // the spatial free-site index saved; CI's bench-smoke job greps
        // these lines and fails if pruning never engaged.
        let replay = session
            .replay(&arch, Arc::new(GreedyRouter), &inline)
            .expect("bench instances replay");
        let counter = |key: &str| {
            replay
                .back_end_counters()
                .iter()
                .find(|c| c.name == key)
                .map_or(0, |c| c.value)
        };
        println!(
            "route-counters/{n}: site_scans={} sites_pruned={}",
            counter(SITE_SCANS),
            counter(SITES_PRUNED)
        );
    }
    group.finish();
}

/// Deterministic xorshift64* so the occupancy pattern needs no RNG crate.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

fn bench_best_free_site(c: &mut Criterion) {
    let mut group = c.benchmark_group("best_free_site");
    group
        .sample_size(sample_size())
        .measurement_time(Duration::from_secs(3));
    for &n in SIZES {
        // Occupy roughly half the register at random sites so the free
        // lists are realistically fragmented, then time one biased query
        // per qubit from that qubit's own position — the hot shape of the
        // routing inner loop.
        let arch = Architecture::for_qubits(n).with_num_aods(4);
        let mut harness = FreeSiteHarness::new(arch, n);
        let num_sites = harness.grid().num_sites();
        let mut rng = XorShift(0x5EED ^ u64::from(n));
        for q in 0..n {
            let site = SiteId::new(rng.next() as usize % num_sites);
            if harness.planned_len(site) < 2 && q % 2 == 0 {
                harness.occupy(Qubit::new(q), site);
            }
        }
        let anchors: Vec<Point> = (0..n)
            .map(|_| {
                let site = SiteId::new(rng.next() as usize % num_sites);
                harness.grid().position(site)
            })
            .collect();
        let bias = |site: SiteId, _: Point| (site.index() % 7) as f64 * 0.125;
        group.bench_with_input(BenchmarkId::new("indexed", n), &anchors, |b, anchors| {
            b.iter(|| {
                for &anchor in anchors {
                    black_box(harness.best(Zone::Compute, anchor, 0.0, &bias));
                }
            });
        });
        group.bench_with_input(BenchmarkId::new("linear", n), &anchors, |b, anchors| {
            b.iter(|| {
                for &anchor in anchors {
                    black_box(harness.best_linear(Zone::Compute, anchor, &bias));
                }
            });
        });
    }
    group.finish();
}

fn bench_emit(c: &mut Criterion) {
    let mut group = c.benchmark_group("emit");
    group
        .sample_size(sample_size())
        .measurement_time(Duration::from_secs(3));
    let compiler = PowerMoveCompiler::new(CompilerConfig::default());
    for &n in SIZES {
        let (circuit, arch) = instance(n);
        let ir = compiler.stage(&circuit);
        group.bench_with_input(BenchmarkId::from_parameter(n), &ir, |b, ir| {
            b.iter(|| black_box(compiler.emit(ir, &arch).unwrap()));
        });
    }
    group.finish();
}

fn bench_portfolio(c: &mut Criterion) {
    let mut group = c.benchmark_group("portfolio");
    group
        .sample_size(sample_size())
        .measurement_time(Duration::from_secs(5));
    let auto =
        PowerMoveCompiler::new(CompilerConfig::default().with_routing(RoutingConfig::auto()));
    for &n in SIZES {
        let (circuit, arch) = instance(n);
        // The shipped hot path: one front-end pass, route-only replays.
        group.bench_with_input(
            BenchmarkId::new("stage_once_replay", n),
            &circuit,
            |b, circuit| {
                b.iter(|| black_box(auto.compile(circuit, &arch).unwrap()));
            },
        );
        // The pre-replay cost shape: each candidate pays the full pipeline.
        // The ratio of this line to `stage_once_replay` is the portfolio
        // throughput win.
        group.bench_with_input(
            BenchmarkId::new("full_compile_per_candidate", n),
            &circuit,
            |b, circuit| {
                b.iter(|| {
                    for routing in [
                        RoutingConfig::greedy(),
                        RoutingConfig::lookahead(2),
                        RoutingConfig::multi_aod(),
                    ] {
                        let fixed =
                            PowerMoveCompiler::new(CompilerConfig::default().with_routing(routing));
                        black_box(fixed.compile(circuit, &arch).unwrap());
                    }
                });
            },
        );
    }
    group.finish();
}

criterion_group!(
    compiler_passes,
    bench_stage,
    bench_route,
    bench_best_free_site,
    bench_emit,
    bench_portfolio
);
criterion_main!(compiler_passes);
