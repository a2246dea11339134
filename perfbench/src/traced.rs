//! The traced run (`--trace 1`): the workload's cells go through the
//! compiler pass by pass, and a frame stream goes through the service layer
//! call by call, each call wrapped in a span from outside the library. The
//! run also checks that the pass-by-pass pipeline is byte-identical to
//! `powermove::compile` and that every count repeats across thread counts.

use crate::cells::{
    build_cells, check_cz_multiset, compile_and_score, score_of, Cell, CellSpec, Score,
};
use crate::service_bench::{
    check_replies, closed_loop, direct_digest, stat, FrameGen, CACHE_CAPACITY,
};
use crate::stats::{median, Trace};
use crate::{nproc, Report};
use powermove::{
    AutoRouter, CompileContext, MovePass, RoutePass, RoutingStrategy, StagePass, StagedProgram,
    SynthesisPass, SITES_PRUNED, SITE_SCANS,
};
use powermove_circuit::BlockProgram;
use powermove_exec::{Parallelism, ThreadPool};
use powermove_fidelity::evaluate_trace;
use powermove_hardware::Architecture;
use powermove_schedule::{canonical_program_bytes, program_digest, simulate, CompiledProgram};
use powermove_service::protocol::Request;
use powermove_service::{CacheOutcome, CompileService};
use std::collections::HashMap;
use std::time::Instant;

/// Frames through the traced service path on `service-mix`; the compile
/// workloads send a shorter probe stream of the same generator.
const SERVICE_FRAMES: usize = 3000;
const PROBE_FRAMES: usize = 600;
/// Empty pool scopes timed for `exec.spawn_us`.
const SPAWN_REPS: usize = 200;

/// Counts summed over the traced programs; all must repeat exactly.
const COUNTERS: [&str; 9] = [
    "cz_blocks",
    "stages",
    SITE_SCANS,
    SITES_PRUNED,
    "storage_moves",
    "interaction_moves",
    "coll_moves",
    "move_groups",
    AutoRouter::PORTFOLIO_COUNTER,
];

fn route_span(strategy: &dyn RoutingStrategy) -> &'static str {
    match strategy.name() {
        "greedy" => "route.greedy",
        "lookahead" => "route.lookahead",
        "multi-aod" => "route.multi_aod",
        _ => "route.other",
    }
}

/// One compile, pass by pass, exactly as `powermove::compile` wires it,
/// followed by the simulator and the fidelity model.
fn traced_compile(
    trace: &mut Trace,
    cell: &Cell,
) -> Result<(CompiledProgram, Score, StagedProgram), String> {
    let config = cell.config;
    let arch = &cell.arch;
    let fail = |stage: &str, e: &dyn std::fmt::Display| format!("{}: {stage}: {e}", cell.name);
    trace.span("compile", None, |t, root| {
        arch.check_capacity(cell.circuit.num_qubits())
            .map_err(|e| fail("capacity", &e))?;
        let mut ctx = CompileContext::new();
        let blocks = t.span("synthesis", Some(root), |_, _| {
            SynthesisPass.run(&cell.circuit, &mut ctx)
        });
        let pool = ThreadPool::new(Parallelism::from_setting(config.threads));
        let staged = t.span("stage", Some(root), |_, _| {
            StagePass::new(config.alpha).run(&blocks, &pool, &mut ctx)
        });
        let (routed, instructions) = if config.routing.strategy.is_auto() {
            t.span("auto", Some(root), |_, _| {
                AutoRouter::from_config(&config.routing).run(
                    &staged,
                    arch,
                    config.use_storage,
                    config.use_grouping,
                    &pool,
                    &mut ctx,
                )
            })
            .map_err(|e| fail("auto", &e))?
        } else {
            let strategy = config.routing.build();
            let routed = t
                .span(route_span(&*strategy), Some(root), |_, _| {
                    RoutePass::new(config.use_storage)
                        .with_strategy(strategy.clone())
                        .run(&staged, arch, &mut ctx)
                })
                .map_err(|e| fail("route", &e))?;
            let instructions = t.span("moves", Some(root), |_, _| {
                MovePass::new(config.use_grouping)
                    .with_strategy(strategy)
                    .run(&routed, arch, &pool, &mut ctx)
            });
            (routed, instructions)
        };
        let program = t.span("emit", Some(root), |_, _| {
            let metadata = ctx.finish(
                "powermove",
                config.use_storage,
                staged.num_stages(),
                arch.num_aods(),
            );
            CompiledProgram::new(
                arch.clone(),
                routed.num_qubits(),
                routed.initial_layout().clone(),
                instructions,
            )
            .with_metadata(metadata)
        });
        let exec = t
            .span("simulate", Some(root), |_, _| simulate(&program))
            .map_err(|e| fail("simulate", &e))?;
        let breakdown = t.span("fidelity", Some(root), |_, _| {
            evaluate_trace(&exec, arch.params())
        });
        let score = score_of(&program, exec.total_time, &breakdown);
        Ok((program, score, staged))
    })
}

/// Replays each portfolio member of an auto cell from outside (route, then
/// moves on one worker, as the portfolio does), so per-strategy route time
/// and the fan-out speed-up can be attributed.
fn replay_members(trace: &mut Trace, cell: &Cell, staged: &StagedProgram) {
    let config = cell.config;
    let inline = ThreadPool::new(Parallelism::fixed(1));
    for (_, strategy) in AutoRouter::from_config(&config.routing).candidates() {
        trace.span("replay", None, |t, root| {
            let mut scratch = CompileContext::scratch();
            let routed = t.span(route_span(&**strategy), Some(root), |_, _| {
                RoutePass::new(config.use_storage)
                    .with_strategy(strategy.clone())
                    .run(staged, &cell.arch, &mut scratch)
            });
            if let Ok(routed) = routed {
                t.span("moves", Some(root), |_, _| {
                    MovePass::new(config.use_grouping)
                        .with_strategy(strategy.clone())
                        .run(&routed, &cell.arch, &inline, &mut scratch)
                });
            }
        });
    }
}

/// Stage pass on one worker vs `nproc` workers over each distinct circuit;
/// returns the summed seconds of each and checks the outputs are equal.
fn stage_threads(report: &mut Report, cells: &[Cell]) -> (f64, f64) {
    let mut seen = Vec::new();
    let (mut one, mut many) = (0.0, 0.0);
    for cell in cells {
        let id = (cell.spec.family, cell.spec.qubits);
        if seen.contains(&id) {
            continue;
        }
        seen.push(id);
        let blocks = BlockProgram::from_circuit(&cell.circuit);
        let run = |threads: usize| {
            let pool = ThreadPool::new(Parallelism::fixed(threads));
            let start = Instant::now();
            let staged = StagePass::new(cell.config.alpha).run(
                &blocks,
                &pool,
                &mut CompileContext::scratch(),
            );
            (staged, start.elapsed().as_secs_f64())
        };
        let (sequential, t1) = run(1);
        let (parallel, tn) = run(nproc());
        one += t1;
        many += tn;
        report.check(if sequential == parallel {
            Ok(())
        } else {
            Err(format!(
                "{}: staged program differs between 1 and {} workers",
                cell.name,
                nproc()
            ))
        });
    }
    (one, many)
}

/// Per-request service layers, called in the daemon's order on one client:
/// parse, generate, hash, compile through the cache, digest.
struct ServiceTrace {
    parse_us: Vec<f64>,
    hash_ms: Vec<f64>,
    digest_ms: Vec<f64>,
    hit_ms: Vec<f64>,
    stage_hit_ms: Vec<f64>,
    miss_ms: Vec<f64>,
}

fn traced_service(
    report: &mut Report,
    cells: &[Cell],
    gen: &mut FrameGen,
    frames: usize,
    digests: &mut HashMap<usize, String>,
) -> ServiceTrace {
    let service = CompileService::new(CACHE_CAPACITY);
    let mut out = ServiceTrace {
        parse_us: Vec::new(),
        hash_ms: Vec::new(),
        digest_ms: Vec::new(),
        hit_ms: Vec::new(),
        stage_hit_ms: Vec::new(),
        miss_ms: Vec::new(),
    };
    let ms = |start: Instant| start.elapsed().as_secs_f64() * 1e3;
    for id in 0..frames {
        let frame = gen.next_frame();
        let line = gen.line(id as i64, frame);
        let start = Instant::now();
        let parsed = Request::parse(&line);
        out.parse_us.push(ms(start) * 1e3);
        let Ok(Request::Compile(request)) = parsed else {
            report.check(Err(format!("frame {line:?} did not parse as a compile")));
            continue;
        };
        let circuit = match request.circuit() {
            Ok(circuit) => circuit,
            Err(e) => {
                report.check(Err(e.message));
                continue;
            }
        };
        let arch = Architecture::for_qubits(circuit.num_qubits()).with_num_aods(request.aods);
        let start = Instant::now();
        let key = powermove::content_hash(&circuit, &arch, &request.config);
        out.hash_ms.push(ms(start));
        std::hint::black_box(key);
        let stage_hits = service.stats().stage_hits;
        let start = Instant::now();
        let compiled = service.compile(&circuit, &arch, &request.config);
        let elapsed = ms(start);
        let (program, outcome) = match compiled {
            Ok(ok) => ok,
            Err(e) => {
                report.check(Err(format!(
                    "{}: service compile: {e}",
                    cells[frame.key].name
                )));
                continue;
            }
        };
        match outcome {
            CacheOutcome::Hit | CacheOutcome::Coalesced => out.hit_ms.push(elapsed),
            CacheOutcome::Miss if service.stats().stage_hits > stage_hits => {
                out.stage_hit_ms.push(elapsed)
            }
            CacheOutcome::Miss => out.miss_ms.push(elapsed),
        }
        let start = Instant::now();
        let digest = program_digest(&program);
        out.digest_ms.push(ms(start));
        report.check(if direct_digest(cells, frame.key, digests) == digest {
            Ok(())
        } else {
            Err(format!(
                "{}: service digest differs from a direct compile",
                cells[frame.key].name
            ))
        });
    }
    out
}

fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

pub fn run(specs: &[CellSpec], seed: u64, service_workload: bool) -> Report {
    let mut report = Report::default();
    let (cells, generate_seconds) = build_cells(specs, seed);
    let threads = nproc();

    // Compile layers, one traced pass over every cell.
    let mut trace = Trace::new();
    let mut counters = [0_u64; COUNTERS.len()];
    let mut instructions = 0_u64;
    let mut canonical_bytes = 0_u64;
    let mut untraced_seconds = 0.0;
    for cell in &cells {
        let (program, score, staged) = match traced_compile(&mut trace, cell) {
            Ok(out) => out,
            Err(e) => {
                report.check(Err(e));
                continue;
            }
        };
        report.check(check_cz_multiset(cell, &program));
        let bytes = trace.span("canonical", None, |_, _| canonical_program_bytes(&program));
        canonical_bytes += bytes.len() as u64;
        instructions += program.num_instructions() as u64;
        for (total, name) in counters.iter_mut().zip(COUNTERS) {
            *total += program.metadata().counter(name).unwrap_or(0);
        }

        // The same compile untraced: byte-identical, same score, and the
        // time the spans add.
        let start = Instant::now();
        let direct = compile_and_score(cell);
        untraced_seconds += start.elapsed().as_secs_f64();
        report.check(match direct {
            Ok((direct, direct_score)) if canonical_program_bytes(&direct) == bytes => {
                if direct_score == score {
                    Ok(())
                } else {
                    Err(format!("{}: traced and direct scores differ", cell.name))
                }
            }
            Ok(_) => Err(format!(
                "{}: the pass-by-pass pipeline is not byte-identical to powermove::compile",
                cell.name
            )),
            Err(e) => Err(e),
        });

        // Determinism across worker counts: the other of 1 and nproc.
        let other = if cell.config.threads == 1 { threads } else { 1 };
        report.check(
            match powermove::compile(&cell.circuit, &cell.arch, &cell.config.with_threads(other)) {
                Ok(p) if canonical_program_bytes(&p) == bytes => Ok(()),
                Ok(_) => Err(format!(
                    "{}: program differs between {} and {other} compile threads",
                    cell.name, cell.config.threads
                )),
                Err(e) => Err(format!("{}: compile: {e}", cell.name)),
            },
        );

        if cell.config.routing.strategy.is_auto() {
            replay_members(&mut trace, cell, &staged);
        }
    }
    let traced_seconds = trace.seconds("compile");
    let (stage_one, stage_many) = stage_threads(&mut report, &cells);
    let spawn_us: Vec<f64> = (0..SPAWN_REPS)
        .map(|_| {
            let start = Instant::now();
            ThreadPool::new(Parallelism::fixed(threads)).scope(|_| ());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();

    // Service layers: the same frame stream through the traced path and
    // through the daemon (for its cache counters and coalescing).
    let frames = if service_workload {
        SERVICE_FRAMES
    } else {
        PROBE_FRAMES
    };
    let service_specs = crate::service_bench::key_specs();
    let service_cells = if service_workload {
        cells.clone()
    } else {
        build_cells(&service_specs, seed).0
    };
    let mut digests = HashMap::new();
    let layers = traced_service(
        &mut report,
        &service_cells,
        &mut FrameGen::new(&service_specs, seed),
        frames,
        &mut digests,
    );
    let session = closed_loop(
        &mut FrameGen::new(&service_specs, seed),
        0,
        f64::INFINITY,
        frames,
        threads,
    );
    let (hit_ratio, stage_hit_ratio, evictions, coalesced) = match session {
        Ok(session) => {
            let tally = &session.tally;
            check_replies(&mut report, &service_cells, tally, &mut digests);
            let stage_hits = stat(&session.stats, &["stage_hits"]);
            let stage_lookups = stage_hits + stat(&session.stats, &["stage_misses"]);
            (
                tally.hits as f64 / tally.frames.max(1) as f64,
                stage_hits / stage_lookups.max(1.0),
                stat(&session.stats, &["cache", "evictions"]),
                stat(&session.stats, &["coalesced"]),
            )
        }
        Err(e) => {
            report.check(Err(format!("service session: {e}")));
            (0.0, 0.0, 0.0, 0.0)
        }
    };

    let counter = |name: &str| {
        let index = COUNTERS
            .iter()
            .position(|c| *c == name)
            .expect("a listed counter");
        counters[index] as f64
    };
    let ms = |name: &str| trace.seconds(name) * 1e3;
    let route_allocs: u64 = ["route.greedy", "route.lookahead", "route.multi_aod"]
        .iter()
        .map(|name| trace.allocs(name))
        .sum();
    let (scans, pruned) = (counter(SITE_SCANS), counter(SITES_PRUNED));
    let m = &mut report;
    m.metric("benchmarks.generate_ms", generate_seconds * 1e3, "ms");
    m.metric("circuit.synthesis_ms", ms("synthesis"), "ms");
    m.metric("circuit.cz_blocks", counter("cz_blocks"), "count");
    m.metric("stage.ms", ms("stage"), "ms");
    m.metric("stage.stages", counter("stages"), "count");
    m.metric("stage.allocs", trace.allocs("stage") as f64, "count");
    m.metric("stage.thread_speedup", stage_one / stage_many, "x");
    m.metric("route.greedy_ms", ms("route.greedy"), "ms");
    m.metric("route.lookahead_ms", ms("route.lookahead"), "ms");
    m.metric("route.multi_aod_ms", ms("route.multi_aod"), "ms");
    m.metric("route.site_scans", scans, "count");
    m.metric("route.sites_pruned", pruned, "count");
    m.metric(
        "route.prune_ratio",
        pruned / (scans + pruned).max(1.0),
        "ratio",
    );
    m.metric("route.allocs", route_allocs as f64, "count");
    m.metric("route.storage_moves", counter("storage_moves"), "count");
    m.metric(
        "route.interaction_moves",
        counter("interaction_moves"),
        "count",
    );
    m.metric("moves.ms", ms("moves"), "ms");
    m.metric("moves.allocs", trace.allocs("moves") as f64, "count");
    m.metric("moves.coll_moves", counter("coll_moves"), "count");
    m.metric("moves.move_groups", counter("move_groups"), "count");
    m.metric("auto.ms", ms("auto"), "ms");
    m.metric(
        "auto.replays",
        counter(AutoRouter::PORTFOLIO_COUNTER),
        "count",
    );
    m.metric(
        "auto.fanout_speedup",
        trace.seconds("replay") / trace.seconds("auto").max(1e-9),
        "x",
    );
    m.metric("exec.spawn_us", median(&spawn_us), "us");
    m.metric("emit.ms", ms("emit"), "ms");
    m.metric("compile.self_ms", trace.self_seconds("compile") * 1e3, "ms");
    m.metric("schedule.simulate_ms", ms("simulate"), "ms");
    m.metric("schedule.instructions", instructions as f64, "count");
    m.metric("schedule.canonical_ms", ms("canonical"), "ms");
    m.metric("schedule.canonical_bytes", canonical_bytes as f64, "bytes");
    m.metric("fidelity.evaluate_us", ms("fidelity") * 1e3, "us");
    m.metric(
        "trace.overhead_pct",
        100.0 * (traced_seconds - untraced_seconds) / untraced_seconds,
        "%",
    );
    m.metric("service.parse_us", median_or_zero(&layers.parse_us), "us");
    m.metric("service.hash_ms", median_or_zero(&layers.hash_ms), "ms");
    m.metric("service.digest_ms", median_or_zero(&layers.digest_ms), "ms");
    m.metric("service.hit_ms", median_or_zero(&layers.hit_ms), "ms");
    m.metric(
        "service.stage_hit_ms",
        median_or_zero(&layers.stage_hit_ms),
        "ms",
    );
    m.metric("service.miss_ms", median_or_zero(&layers.miss_ms), "ms");
    m.metric("service.hit_ratio", hit_ratio, "ratio");
    m.metric("service.stage_hit_ratio", stage_hit_ratio, "ratio");
    m.metric("service.evictions", evictions, "count");
    m.metric("service.coalesced", coalesced, "count");
    println!(
        "traced {} cells: compile spans {:.1} ms vs untraced {:.1} ms; {} service frames ({} hits, {} stage hits, {} misses)",
        cells.len(),
        traced_seconds * 1e3,
        untraced_seconds * 1e3,
        frames,
        layers.hit_ms.len(),
        layers.stage_hit_ms.len(),
        layers.miss_ms.len()
    );
    report
}
