//! The `service-mix` workload: seeded Zipf-distributed JSONL compile frames
//! fed over a pipe into an in-process `Daemon::serve`, as a closed loop with
//! `nproc` outstanding frames.

use crate::cells::{build_cells, feasible, Cell, CellSpec};
use crate::compile_bench::{report_cells, run_cells};
use crate::stats::{median, tail_percentile};
use crate::{alloc, nproc, time_setup, Report};
use powermove_benchmarks::table2_sizes;
use powermove_exec::Parallelism;
use powermove_service::{CompileService, Daemon, ServeReport};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::time::Instant;

/// Programs (and staged IRs) the service keeps: fewer than the 138 keys, so
/// hits, stage hits, cold misses and evictions all occur.
pub const CACHE_CAPACITY: usize = 32;
/// Zipf exponent of the key popularity.
const ZIPF_EXPONENT: f64 = 1.0;
/// Fixed seed of the popularity ranking, so every run seed sees the same
/// hot keys and only the draw sequence changes.
const RANKING_SEED: u64 = 0x00C0_FFEE;
/// Frames answered before latency is recorded, so the caches are warm.
const WARMUP_FRAMES: usize = 400;
/// Timed rounds of direct compiles over every key, per client, for
/// `compile_ms_geomean`.
const DIRECT_ROUNDS: usize = 7;

/// The 23 Table 2 cells × AOD counts {1, 2, 4} × routing {greedy, auto},
/// each with the single-thread config the daemon defaults to.
pub fn key_specs() -> Vec<CellSpec> {
    let mut specs = Vec::new();
    for (family, qubits) in table2_sizes() {
        for aods in [1, 2, 4] {
            for routing in ["greedy", "auto"] {
                specs.push(CellSpec {
                    family,
                    qubits,
                    aods,
                    routing,
                    threads: 1,
                });
            }
        }
    }
    specs
}

/// One frame to send: the key it asks for and whether the daemon is
/// expected to answer it with an error.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Frame {
    pub key: usize,
    pub expect_ok: bool,
}

/// Seeded Zipf draws over the feasible keys only.
pub struct FrameGen {
    bodies: Vec<String>,
    feasible_keys: Vec<usize>,
    cdf: Vec<f64>,
    rng: StdRng,
}

impl FrameGen {
    pub fn new(specs: &[CellSpec], seed: u64) -> Self {
        let mut feasible_keys: Vec<usize> = (0..specs.len())
            .filter(|&k| feasible(specs[k].family, specs[k].qubits))
            .collect();
        // Shuffled with the fixed ranking seed: rank 1 is the hottest.
        feasible_keys.shuffle(&mut StdRng::seed_from_u64(RANKING_SEED));
        let mut cdf = Vec::with_capacity(feasible_keys.len());
        let mut total = 0.0;
        for rank in 1..=feasible_keys.len() {
            total += 1.0 / (rank as f64).powf(ZIPF_EXPONENT);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let bodies = specs
            .iter()
            .map(|s| {
                format!(
                    "\"op\":\"compile\",\"benchmark\":{{\"family\":\"{}\",\"qubits\":{},\"seed\":{seed}}},\"aods\":{},\"config\":{{\"routing\":\"{}\"}}",
                    s.family, s.qubits, s.aods, s.routing
                )
            })
            .collect();
        FrameGen {
            bodies,
            feasible_keys,
            cdf,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    pub fn next_frame(&mut self) -> Frame {
        let u = self.rng.gen_f64();
        let rank = self
            .cdf
            .partition_point(|c| *c <= u)
            .min(self.cdf.len() - 1);
        Frame {
            key: self.feasible_keys[rank],
            expect_ok: true,
        }
    }

    pub fn line(&self, id: i64, frame: Frame) -> String {
        format!("{{\"id\":{id},{}}}\n", self.bodies[frame.key])
    }
}

/// Replies tallied as they arrive. Only counts and one digest per key are
/// kept, so the benchmark's own bookkeeping does not grow with the number
/// of frames (it would otherwise show in `peak_heap_mib`).
#[derive(Debug, Default)]
pub struct Tally {
    pub frames: u64,
    pub hits: u64,
    pub misses: u64,
    pub coalesced: u64,
    /// Frames the generator marked as expected to fail (answered with an
    /// error, which is then not a failure).
    pub expected_failures: u64,
    /// Replies that broke a check, and the first few reasons.
    pub failed: u64,
    pub errors: Vec<String>,
    /// The digest each key was first answered with.
    pub digests: HashMap<usize, String>,
}

impl Tally {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.errors.len() < 20 {
            self.errors.push(message);
        }
    }

    fn record(&mut self, frame: Frame, reply: &Value) {
        self.frames += 1;
        if !frame.expect_ok {
            self.expected_failures += 1;
        }
        let text = |field: &str| reply.get(field).and_then(Value::as_str).unwrap_or_default();
        let ok = reply.get("ok").and_then(Value::as_bool) == Some(true);
        if ok != frame.expect_ok {
            self.fail(format!(
                "key {}: expected ok={}, got ok={ok} {}",
                frame.key,
                frame.expect_ok,
                text("error")
            ));
            return;
        }
        if !ok {
            return;
        }
        match text("cache") {
            "hit" => self.hits += 1,
            "miss" => self.misses += 1,
            _ => self.coalesced += 1,
        }
        let digest = text("digest");
        let first = self
            .digests
            .entry(frame.key)
            .or_insert_with(|| digest.to_string());
        if first != digest {
            let message = format!(
                "key {}: replies carry digests {first} and {digest}",
                frame.key
            );
            self.fail(message);
        }
    }
}

/// What one closed-loop session through the daemon produced.
pub struct Session {
    pub tally: Tally,
    /// Send-to-reply latency of every frame after the warm-up, in ms.
    pub latencies_ms: Vec<f64>,
    pub measured_seconds: f64,
    pub stats: Value,
    pub serve: ServeReport,
}

fn read_frame(replies: &mut impl BufRead) -> Result<Value, String> {
    let mut line = String::new();
    match replies.read_line(&mut line) {
        Ok(0) => Err("the daemon closed its output early".into()),
        Ok(_) => {
            serde_json::from_str(&line).map_err(|e| format!("unparseable reply {line:?}: {e}"))
        }
        Err(e) => Err(format!("reading a reply: {e}")),
    }
}

/// Drives a fresh daemon over a pipe: `warmup` frames, then frames until
/// `seconds` have passed or `max_frames` were measured, keeping `outstanding`
/// frames in flight; then a `stats` frame and a `shutdown` frame.
pub fn closed_loop(
    gen: &mut FrameGen,
    warmup: usize,
    seconds: f64,
    max_frames: usize,
    outstanding: usize,
) -> Result<Session, String> {
    let service = CompileService::new(CACHE_CAPACITY);
    let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(nproc()));
    let (request_reader, mut requests) = std::io::pipe().map_err(|e| e.to_string())?;
    let (reply_reader, reply_writer) = std::io::pipe().map_err(|e| e.to_string())?;
    std::thread::scope(|scope| {
        let server = scope.spawn(|| daemon.serve(BufReader::new(request_reader), reply_writer));
        let mut replies = BufReader::new(reply_reader);
        let result = drive(
            gen,
            &mut requests,
            &mut replies,
            warmup,
            seconds,
            max_frames,
            outstanding,
        );
        // Closing the request pipe ends the serve loop even after an error.
        drop(requests);
        let serve = server
            .join()
            .map_err(|_| "the daemon panicked".to_string())?;
        let (mut session, stats) = result?;
        session.stats = stats;
        session.serve = serve;
        Ok(session)
    })
}

#[allow(clippy::too_many_arguments)]
fn drive(
    gen: &mut FrameGen,
    requests: &mut impl Write,
    replies: &mut impl BufRead,
    warmup: usize,
    seconds: f64,
    max_frames: usize,
    outstanding: usize,
) -> Result<(Session, Value), String> {
    let mut pending: HashMap<i64, (Frame, Instant)> = HashMap::new();
    let mut session = Session {
        tally: Tally::default(),
        // Sized for any run up to a minute, so growth never shows in the heap.
        latencies_ms: Vec::with_capacity(1 << 17),
        measured_seconds: 0.0,
        stats: Value::Null,
        serve: ServeReport::default(),
    };
    let mut sent = 0_usize;
    let mut measure_start: Option<Instant> = None;
    let mut send = |pending: &mut HashMap<i64, (Frame, Instant)>,
                    sent: &mut usize,
                    measure_start: &mut Option<Instant>| {
        let frame = gen.next_frame();
        let id = *sent as i64;
        let line = gen.line(id, frame);
        let now = Instant::now();
        if *sent == warmup {
            *measure_start = Some(now);
        }
        pending.insert(id, (frame, now));
        *sent += 1;
        requests
            .write_all(line.as_bytes())
            .map_err(|e| format!("writing a frame: {e}"))
    };
    for _ in 0..outstanding {
        send(&mut pending, &mut sent, &mut measure_start)?;
    }
    while !pending.is_empty() {
        let reply = read_frame(replies)?;
        let arrived = Instant::now();
        let id = reply
            .get("id")
            .and_then(Value::as_i64)
            .ok_or_else(|| format!("reply without an id: {reply:?}"))?;
        let (frame, sent_at) = pending
            .remove(&id)
            .ok_or_else(|| format!("reply to unknown id {id}"))?;
        if id as usize >= warmup {
            session
                .latencies_ms
                .push(arrived.duration_since(sent_at).as_secs_f64() * 1e3);
        }
        session.tally.record(frame, &reply);
        let in_time = measure_start.is_none_or(|s| s.elapsed().as_secs_f64() < seconds);
        if in_time && sent.saturating_sub(warmup) < max_frames {
            send(&mut pending, &mut sent, &mut measure_start)?;
        }
    }
    session.measured_seconds = measure_start.map_or(0.0, |s| s.elapsed().as_secs_f64());
    requests
        .write_all(b"{\"id\":-1,\"op\":\"stats\"}\n")
        .map_err(|e| format!("writing the stats frame: {e}"))?;
    let stats = read_frame(replies)?;
    requests
        .write_all(b"{\"id\":-2,\"op\":\"shutdown\"}\n")
        .map_err(|e| format!("writing the shutdown frame: {e}"))?;
    let ack = read_frame(replies)?;
    if ack.get("shutdown").and_then(Value::as_bool) != Some(true) {
        return Err(format!(
            "expected the shutdown acknowledgement, got {ack:?}"
        ));
    }
    Ok((session, stats.get("stats").cloned().unwrap_or(Value::Null)))
}

/// A service counter from a `stats` reply.
pub fn stat(stats: &Value, path: &[&str]) -> f64 {
    let mut value = stats;
    for key in path {
        match value.get(key) {
            Some(v) => value = v,
            None => return 0.0,
        }
    }
    value.as_f64().unwrap_or(0.0)
}

/// The digest of a direct `powermove::compile` of key `key`, computed once.
pub fn direct_digest<'a>(
    cells: &[Cell],
    key: usize,
    digests: &'a mut HashMap<usize, String>,
) -> &'a str {
    digests.entry(key).or_insert_with(|| {
        let cell = &cells[key];
        powermove::compile(&cell.circuit, &cell.arch, &cell.config)
            .map(|p| powermove_schedule::program_digest(&p))
            .unwrap_or_else(|e| format!("compile failed: {e}"))
    })
}

/// Folds a session's reply checks into `report`, then checks that every
/// key's digest equals the digest of a direct compile of the same request.
pub fn check_replies(
    report: &mut Report,
    cells: &[Cell],
    tally: &Tally,
    digests: &mut HashMap<usize, String>,
) {
    report.absorb(tally.frames, tally.failed, &tally.errors);
    let mut keys: Vec<_> = tally.digests.iter().collect();
    keys.sort_unstable();
    for (&key, digest) in keys {
        let direct = direct_digest(cells, key, digests);
        report.check(if direct == digest {
            Ok(())
        } else {
            Err(format!(
                "{}: daemon digest {digest} != direct compile digest {direct}",
                cells[key].name
            ))
        });
    }
}

pub fn run(specs: &[CellSpec], seed: u64, seconds: f64) -> Report {
    let mut report = Report::default();
    let mut build = |seed| (build_cells(specs, seed).0, FrameGen::new(specs, seed));
    let mut setup_seconds = Vec::new();
    let (cells, mut gen) = time_setup(&mut build, seed, 0, &mut setup_seconds);

    alloc::reset_peak_heap();
    let session = closed_loop(&mut gen, WARMUP_FRAMES, seconds, usize::MAX, nproc());
    let peak_heap_mib = alloc::peak_heap_mib();
    let session = match session {
        Ok(session) => session,
        Err(e) => {
            report.check(Err(format!("service session: {e}")));
            return report;
        }
    };
    time_setup(&mut build, seed, 1, &mut setup_seconds);
    let tally = &session.tally;
    check_replies(&mut report, &cells, tally, &mut HashMap::new());
    println!(
        "{} frames ({} measured in {:.2} s), {} expected to fail, {} failed; hit {} miss {} coalesced {}; stage hits {} stage misses {} evictions {}",
        tally.frames,
        session.latencies_ms.len(),
        session.measured_seconds,
        tally.expected_failures,
        tally.failed,
        tally.hits,
        tally.misses,
        tally.coalesced,
        stat(&session.stats, &["stage_hits"]),
        stat(&session.stats, &["stage_misses"]),
        stat(&session.stats, &["cache", "evictions"]),
    );

    // Every key compiled directly: checked, timed and scored, by `nproc`
    // concurrent clients as in the daemon, so each key's median mixes every
    // core instead of hanging on whichever core one thread landed on.
    let Some(runs) = run_cells(&mut report, &cells, 0.0, DIRECT_ROUNDS, nproc()) else {
        return report;
    };
    report_cells(&mut report, &cells, &runs);
    if session.latencies_ms.is_empty() {
        report.check(Err("no frame was measured".into()));
        return report;
    }
    let (p99, percentile) = tail_percentile(&session.latencies_ms, 99.0);
    println!("request_ms_p99 is p{percentile:.1}");
    report.metric("request_ms_p50", median(&session.latencies_ms), "ms");
    report.metric("request_ms_p99", p99, "ms");
    report.metric(
        "requests_per_s",
        session.latencies_ms.len() as f64 / session.measured_seconds,
        "1/s",
    );
    report.metric("peak_heap_mib", peak_heap_mib, "MiB");
    report.metric("setup_s", median(&setup_seconds), "s");
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_benchmarks::BenchmarkFamily;

    #[test]
    fn generator_never_draws_an_infeasible_key() {
        // Odd widths for the regular-graph families are in the key list but
        // must never be sent.
        let mut specs = key_specs();
        for qubits in [7, 9, 31] {
            for family in [BenchmarkFamily::QaoaRegular3, BenchmarkFamily::QaoaRegular4] {
                specs.push(CellSpec {
                    family,
                    qubits,
                    aods: 1,
                    routing: "greedy",
                    threads: 1,
                });
            }
        }
        for seed in 0..20 {
            let mut gen = FrameGen::new(&specs, seed);
            for _ in 0..500 {
                let frame = gen.next_frame();
                let spec = specs[frame.key];
                assert!(feasible(spec.family, spec.qubits), "{spec:?}");
                assert!(frame.expect_ok);
                let regular = matches!(
                    spec.family,
                    BenchmarkFamily::QaoaRegular3 | BenchmarkFamily::QaoaRegular4
                );
                assert!(spec.qubits.is_multiple_of(2) || !regular, "{spec:?}");
            }
        }
    }

    #[test]
    fn table2_keys_are_all_feasible_and_distinct() {
        let specs = key_specs();
        assert_eq!(specs.len(), 138);
        assert!(specs.iter().all(|s| feasible(s.family, s.qubits)));
    }

    #[test]
    fn zipf_draws_depend_only_on_the_seed_and_favour_hot_keys() {
        let specs = key_specs();
        let draw = |seed| {
            let mut gen = FrameGen::new(&specs, seed);
            (0..2000).map(|_| gen.next_frame().key).collect::<Vec<_>>()
        };
        assert_eq!(draw(3), draw(3));
        assert_ne!(draw(3), draw(4));
        let mut counts = vec![0_usize; specs.len()];
        for key in draw(5) {
            counts[key] += 1;
        }
        let hottest = *counts.iter().max().unwrap();
        assert!(hottest > 2000 / 20, "rank 1 draws about 18% of frames");
    }

    #[test]
    fn daemon_replies_match_direct_compiles() {
        let specs: Vec<CellSpec> = key_specs().into_iter().filter(|s| s.qubits <= 20).collect();
        let (cells, _) = build_cells(&specs, 9);
        let mut gen = FrameGen::new(&specs, 9);
        let session = closed_loop(&mut gen, 10, 60.0, 40, 2).unwrap();
        assert_eq!(session.tally.frames, 50);
        assert_eq!(session.latencies_ms.len(), 40);
        assert!(session.serve.shutdown);
        let mut report = Report::default();
        check_replies(&mut report, &cells, &session.tally, &mut HashMap::new());
        assert_eq!(report.failed, 0, "{:?}", report.errors);
        assert_eq!(report.attempted, 50 + session.tally.digests.len() as u64);
        assert!(stat(&session.stats, &["cache", "hits"]) > 0.0);
    }
}
