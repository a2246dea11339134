//! Seeded frame fuzzing of the serve loop.
//!
//! Each seed interleaves valid compile frames with infeasible, oversized,
//! truncated, non-UTF-8 and type-confused ones, drives them through
//! `Daemon::serve`, and checks that the daemon answers every frame exactly
//! once, keeps serving, acknowledges shutdown last, and that every valid
//! reply carries the key and digest of a direct compile — and that the
//! schedule linter lints every valid frame of the stream cleanly.

use powermove::{content_hash, CompilerConfig, RoutingConfig};
use powermove_bench::lint::lint_service_log;
use powermove_benchmarks::{generate, BenchmarkFamily};
use powermove_exec::Parallelism;
use powermove_hardware::Architecture;
use powermove_schedule::program_digest;
use powermove_service::{CompileService, Daemon};
use serde::Value;
use std::collections::HashMap;

/// SplitMix64: a small, fixed PRNG so every seed replays the same frames.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A valid request: `(family, qubits, aods, routing)`.
type Spec = (BenchmarkFamily, u32, usize, &'static str);

const VALID: [Spec; 6] = [
    (BenchmarkFamily::Bv, 6, 1, "greedy"),
    (BenchmarkFamily::Qft, 6, 2, "greedy"),
    (BenchmarkFamily::Qft, 8, 1, "auto"),
    (BenchmarkFamily::QaoaRegular3, 8, 2, "auto"),
    (BenchmarkFamily::Vqe, 6, 1, "greedy"),
    (BenchmarkFamily::QsimRand, 6, 4, "greedy"),
];

fn valid_frame(id: i64, (family, qubits, aods, routing): Spec, include_program: bool) -> String {
    format!(
        r#"{{"id": {id}, "benchmark": {{"family": "{family}", "qubits": {qubits}, "seed": 3}}, "aods": {aods}, "config": {{"routing": "{routing}"}}, "include_program": {include_program}}}"#
    )
}

/// Frames that parse with their `id` but must be answered with an error.
fn bad_frame(id: i64, kind: usize) -> String {
    match kind {
        // Infeasible: a 3-regular graph on an odd number of vertices.
        0 => format!(r#"{{"id": {id}, "benchmark": {{"family": "QAOA-regular3", "qubits": 7}}}}"#),
        // Infeasible: too few qubits for the machine to matter.
        1 => format!(r#"{{"id": {id}, "benchmark": {{"family": "BV", "qubits": 1}}}}"#),
        // Oversized: past the width bound, and past the gate bound.
        2 => format!(r#"{{"id": {id}, "benchmark": {{"family": "QFT", "qubits": 4096}}}}"#),
        3 => format!(r#"{{"id": {id}, "benchmark": {{"family": "QFT", "qubits": 1024}}}}"#),
        // Type-confused fields.
        4 => format!(r#"{{"id": {id}, "benchmark": {{"family": "BV", "qubits": "6"}}}}"#),
        5 => {
            format!(r#"{{"id": {id}, "benchmark": {{"family": "BV", "qubits": 6}}, "aods": [1]}}"#)
        }
        6 => {
            format!(r#"{{"id": {id}, "benchmark": {{"family": "BV", "qubits": 6}}, "config": []}}"#)
        }
        7 => format!(
            r#"{{"id": {id}, "benchmark": {{"family": "BV", "qubits": 6}}, "config": {{"alpha": "x"}}}}"#
        ),
        8 => format!(r#"{{"id": {id}, "qasm": {{"text": "OPENQASM 2.0;"}}}}"#),
        9 => format!(r#"{{"id": {id}, "op": ["stats"]}}"#),
        _ => format!(r#"{{"id": {id}, "qasm": "OPENQASM 2.0; qreg q[2]; cz q[0], q[9];"}}"#),
    }
}
const BAD_KINDS: usize = 11;

/// Frames no `id` can be read from: each is answered with `"id": null`.
fn anonymous_frame(rng: &mut Rng) -> Vec<u8> {
    match rng.below(3) {
        // Truncated: a proper prefix of a valid frame is never valid JSON.
        0 => {
            let frame = valid_frame(0, VALID[rng.below(VALID.len())], false);
            let cut = 1 + rng.below(frame.len() - 1);
            frame.as_bytes()[..cut].to_vec()
        }
        // Not UTF-8.
        1 => b"{\"id\": 5, \"op\": \"st\xffats\"}".to_vec(),
        // Type-confused id.
        _ => br#"{"id": "five", "op": "stats"}"#.to_vec(),
    }
}

/// A serialized program with its wall-clock fields (`compile_time` and
/// every pass's `seconds`) nulled: two compiles of one request differ only
/// there.
fn without_timings(program: &Value) -> Value {
    match program {
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .map(|(key, value)| {
                    let value = match key.as_str() {
                        "compile_time" | "seconds" => Value::Null,
                        _ => without_timings(value),
                    };
                    (key.clone(), value)
                })
                .collect(),
        ),
        Value::Array(items) => Value::Array(items.iter().map(without_timings).collect()),
        other => other.clone(),
    }
}

enum Expect {
    Ok(Spec),
    Error,
}

#[test]
fn every_frame_gets_one_reply_and_valid_ones_match_a_direct_compile() {
    let mut direct: HashMap<Spec, (String, String, String)> = HashMap::new();
    for spec @ (family, qubits, aods, routing) in VALID {
        let circuit = generate(family, qubits, 3).circuit;
        let arch = Architecture::for_qubits(qubits).with_num_aods(aods);
        let routing = match routing {
            "auto" => RoutingConfig::auto(),
            _ => RoutingConfig::greedy(),
        };
        let config = CompilerConfig::default()
            .with_threads(1)
            .with_routing(routing);
        let program = powermove::compile(&circuit, &arch, &config).unwrap();
        direct.insert(
            spec,
            (
                content_hash(&circuit, &arch, &config).hex(),
                program_digest(&program),
                serde_json::to_string(&without_timings(&serde_json::to_value(&program))).unwrap(),
            ),
        );
    }

    for seed in 0..4 {
        let mut rng = Rng(seed);
        let mut input = Vec::new();
        let mut expected: HashMap<i64, Expect> = HashMap::new();
        let mut anonymous = 0;
        let mut id = 0;
        for _ in 0..40 {
            id += 1;
            match rng.below(4) {
                0 | 1 => {
                    let spec = VALID[rng.below(VALID.len())];
                    input.extend(valid_frame(id, spec, rng.below(4) == 0).bytes());
                    expected.insert(id, Expect::Ok(spec));
                }
                2 => {
                    input.extend(bad_frame(id, rng.below(BAD_KINDS)).bytes());
                    expected.insert(id, Expect::Error);
                }
                _ => {
                    input.extend(anonymous_frame(&mut rng));
                    anonymous += 1;
                }
            }
            input.push(b'\n');
        }
        // The daemon is still serving after the fuzz: a last compile and a
        // stats frame are answered before the shutdown ack.
        let spec = VALID[0];
        input.extend(valid_frame(id + 1, spec, false).bytes());
        expected.insert(id + 1, Expect::Ok(spec));
        input.extend(format!("\n{{\"id\": {}, \"op\": \"stats\"}}\n", id + 2).bytes());
        input.extend(format!("{{\"id\": {}, \"op\": \"shutdown\"}}\n", id + 3).bytes());

        // The schedule linter lints every valid compile frame, cleanly.
        let lint = lint_service_log(&String::from_utf8_lossy(&input));
        assert!(
            lint.violations.is_empty(),
            "seed {seed}: {:?}",
            lint.violations
        );
        let valid = expected
            .values()
            .filter(|e| matches!(e, Expect::Ok(_)))
            .count();
        assert!(lint.linted >= valid, "seed {seed}: linted {}", lint.linted);

        let service = CompileService::new(4);
        let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(2));
        let mut out = Vec::new();
        let report = daemon.serve(input.as_slice(), &mut out);
        assert!(report.shutdown, "seed {seed}");

        let text = std::str::from_utf8(&out).unwrap();
        let frames = serde_json::from_str_jsonl(text).unwrap();
        assert_eq!(frames.len(), expected.len() + anonymous + 2, "seed {seed}");
        assert_eq!(
            frames.last().and_then(|f| f.get("shutdown")),
            Some(&Value::Bool(true)),
            "seed {seed}: the shutdown ack is the last frame"
        );
        let mut seen: HashMap<i64, usize> = HashMap::new();
        let mut nulls = 0;
        for frame in &frames[..frames.len() - 1] {
            let ok = frame.get("ok").and_then(Value::as_bool);
            let Some(reply_id) = frame.get("id").and_then(Value::as_i64) else {
                assert_eq!(frame.get("id"), Some(&Value::Null), "seed {seed}");
                assert_eq!(ok, Some(false), "seed {seed}");
                nulls += 1;
                continue;
            };
            *seen.entry(reply_id).or_default() += 1;
            if reply_id == id + 2 {
                assert!(frame.get("stats").is_some(), "seed {seed}");
                continue;
            }
            match &expected[&reply_id] {
                Expect::Error => assert_eq!(ok, Some(false), "seed {seed}: {frame:?}"),
                Expect::Ok(spec) => {
                    assert_eq!(ok, Some(true), "seed {seed}: {frame:?}");
                    let (key, digest, program) = &direct[spec];
                    assert_eq!(frame.get("key").and_then(Value::as_str), Some(&key[..]));
                    assert_eq!(
                        frame.get("digest").and_then(Value::as_str),
                        Some(&digest[..])
                    );
                    match frame.get("program") {
                        Some(Value::Null) => {}
                        Some(embedded) => assert_eq!(
                            serde_json::to_string(&without_timings(embedded)).unwrap(),
                            *program
                        ),
                        None => panic!("seed {seed}: reply without a `program` field"),
                    }
                }
            }
        }
        assert_eq!(nulls, anonymous, "seed {seed}");
        assert_eq!(seen.len(), expected.len() + 1, "seed {seed}");
        assert!(
            seen.values().all(|count| *count == 1),
            "seed {seed}: exactly one reply per id"
        );
    }
}
