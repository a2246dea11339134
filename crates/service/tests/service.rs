//! Acceptance tests for the compile service: cache byte-identity,
//! coalescing, eviction, malformed-frame resilience and a concurrent
//! hundred-request burst over the smoke cells.

use powermove::CompilerConfig;
use powermove_bench::service_smoke_cells;
use powermove_circuit::{Circuit, Qubit};
use powermove_exec::{Parallelism, ThreadPool};
use powermove_hardware::Architecture;
use powermove_schedule::{canonical_program_bytes, program_digest};
use powermove_service::{CacheOutcome, CompileService, Daemon};
use serde::Value;
use std::sync::{Arc, Barrier};

fn ring(n: u32) -> Circuit {
    let mut c = Circuit::new(n);
    for i in 0..n {
        c.cz(Qubit::new(i), Qubit::new((i + 1) % n)).unwrap();
    }
    c
}

#[test]
fn cache_hit_is_byte_identical_to_cold_compile() {
    let service = CompileService::new(8);
    let circuit = ring(8);
    let arch = Architecture::for_qubits(8);
    let config = CompilerConfig::default();

    let cold = powermove::compile(&circuit, &arch, &config).unwrap();
    let (first, outcome) = service.compile(&circuit, &arch, &config).unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    let (second, outcome) = service.compile(&circuit, &arch, &config).unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);

    assert_eq!(
        canonical_program_bytes(&cold),
        canonical_program_bytes(&first)
    );
    assert_eq!(
        canonical_program_bytes(&cold),
        canonical_program_bytes(&second)
    );
    assert_eq!(service.compiles(), 1);
}

#[test]
fn concurrent_identical_requests_coalesce_to_one_compile() {
    let service = Arc::new(CompileService::new(8));
    let workers = 8;
    let barrier = Arc::new(Barrier::new(workers));
    let handles: Vec<_> = (0..workers)
        .map(|_| {
            let service = Arc::clone(&service);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                let circuit = ring(10);
                let arch = Architecture::for_qubits(10);
                let config = CompilerConfig::default().with_threads(1);
                barrier.wait();
                service.compile(&circuit, &arch, &config).unwrap()
            })
        })
        .collect();
    let results: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // All eight threads raced the same triple: exactly one cold compile ran.
    assert_eq!(service.compiles(), 1);
    let misses = results
        .iter()
        .filter(|(_, o)| *o == CacheOutcome::Miss)
        .count();
    assert_eq!(misses, 1);
    // Each request is counted once: as the compile, a coalesced waiter or
    // a cache hit.
    let stats = service.stats();
    assert_eq!(stats.compiles + stats.coalesced + stats.cache.hits, 8);
    let digests: Vec<String> = results.iter().map(|(p, _)| program_digest(p)).collect();
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn eviction_respects_capacity_under_a_rolling_working_set() {
    let service = CompileService::new(2);
    let config = CompilerConfig::default();
    for n in [4_u32, 6, 8, 10] {
        let (_, outcome) = service
            .compile(&ring(n), &Architecture::for_qubits(n), &config)
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
    }
    let stats = service.stats();
    assert_eq!(stats.cache.entries, 2);
    assert_eq!(stats.cache.capacity, 2);
    assert_eq!(stats.cache.evictions, 2);
    // The oldest entry was evicted: compiling it again is a cold miss.
    let (_, outcome) = service
        .compile(&ring(4), &Architecture::for_qubits(4), &config)
        .unwrap();
    assert_eq!(outcome, CacheOutcome::Miss);
    // The most recent entry survived.
    let (_, outcome) = service
        .compile(&ring(10), &Architecture::for_qubits(10), &config)
        .unwrap();
    assert_eq!(outcome, CacheOutcome::Hit);
}

#[test]
fn hundred_concurrent_requests_over_the_smoke_cells() {
    let service = CompileService::new(16);
    let pool = ThreadPool::new(Parallelism::fixed(8));
    let cells = service_smoke_cells();
    let config = CompilerConfig::default().with_threads(1);

    let mut requests = Vec::new();
    for round in 0..20 {
        for (family, qubits) in cells {
            // Interleave rounds so identical requests overlap in flight.
            let _ = round;
            let instance = powermove_benchmarks::generate(family, qubits, 20250);
            let arch = Architecture::for_qubits(qubits);
            requests.push((instance.circuit, arch, config));
        }
    }
    assert_eq!(requests.len(), 100);

    let results = pool.par_map(requests, |(circuit, arch, config)| {
        service.compile(&circuit, &arch, &config)
    });
    assert_eq!(results.len(), 100);
    let results: Vec<_> = results.into_iter().map(Result::unwrap).collect();

    // Five distinct triples → five cold compiles, everything else served
    // from cache or coalesced onto an in-flight compile.
    assert_eq!(service.compiles(), cells.len() as u64);
    let stats = service.stats();
    assert_eq!(stats.compiles + stats.coalesced + stats.cache.hits, 100);
    assert!(stats.cache.hits > 0);

    // Byte-identity: results come back in input order, so response `i`
    // belongs to cell `i % 5`; every one must match that cell's cold
    // compile.
    let cold: Vec<String> = cells
        .iter()
        .map(|&(family, qubits)| {
            let instance = powermove_benchmarks::generate(family, qubits, 20250);
            let program = powermove::compile(
                &instance.circuit,
                &Architecture::for_qubits(qubits),
                &config,
            )
            .unwrap();
            canonical_program_bytes(&program)
        })
        .collect();
    for (i, (program, _)) in results.iter().enumerate() {
        assert_eq!(
            canonical_program_bytes(program),
            cold[i % cells.len()],
            "response {i} diverged from its cold compile"
        );
    }
}

#[test]
fn daemon_survives_malformed_frames_and_acks_shutdown_last() {
    let service = CompileService::new(8);
    let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(2));
    let input = concat!(
        r#"{"id": 0, "benchmark": {"family": "VQE", "qubits": 8}}"#,
        "\n",
        "{{{ definitely not json\n",
        r#"{"id": 1, "benchmark": {"family": "VQE", "qubits": 8}}"#,
        "\n",
        r#"{"id": 2, "qasm": "OPENQASM 3.0;"}"#,
        "\n",
        r#"{"id": 3, "op": "shutdown"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let report = daemon.serve(input.as_bytes(), &mut out);
    assert!(report.shutdown);
    assert_eq!(report.frames, 5);
    assert_eq!(report.errors, 2);

    let frames: Vec<Value> =
        serde_json::from_str_jsonl(std::str::from_utf8(&out).unwrap()).unwrap();
    assert_eq!(frames.len(), 5);
    assert_eq!(
        frames
            .last()
            .and_then(|f| f.get("shutdown"))
            .and_then(Value::as_bool),
        Some(true)
    );
    // Both valid compiles succeeded with identical digests despite the
    // garbage between them.
    let digests: Vec<&str> = frames
        .iter()
        .filter_map(|f| f.get("digest").and_then(Value::as_str))
        .collect();
    assert_eq!(digests.len(), 2);
    assert_eq!(digests[0], digests[1]);
}

#[test]
fn daemon_answers_an_infeasible_benchmark_frame_and_keeps_serving() {
    let service = CompileService::new(8);
    // One worker: compile frames are handled inline, in arrival order.
    let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(1));
    let input = concat!(
        r#"{"id":1,"op":"compile","benchmark":{"family":"QAOA-regular3","qubits":7}}"#,
        "\n",
        r#"{"id":2,"op":"compile","benchmark":{"family":"QAOA-regular3","qubits":8}}"#,
        "\n",
        r#"{"id":3,"op":"shutdown"}"#,
        "\n",
    );
    let mut out = Vec::new();
    let report = daemon.serve(input.as_bytes(), &mut out);
    assert!(report.shutdown);
    assert_eq!(report.errors, 1);

    let frames: Vec<Value> =
        serde_json::from_str_jsonl(std::str::from_utf8(&out).unwrap()).unwrap();
    let id = |f: &Value| f.get("id").and_then(Value::as_i64);
    let ok = |f: &Value| f.get("ok").and_then(Value::as_bool);
    let replies_to_1: Vec<&Value> = frames.iter().filter(|f| id(f) == Some(1)).collect();
    assert_eq!(replies_to_1.len(), 1, "exactly one reply for id 1");
    assert_eq!(ok(replies_to_1[0]), Some(false));
    assert!(replies_to_1[0]
        .get("error")
        .and_then(Value::as_str)
        .is_some_and(|e| e.contains("3-regular")));
    let first_error = frames.iter().position(|f| id(f) == Some(1)).unwrap();
    let success = frames.iter().position(|f| id(f) == Some(2)).unwrap();
    assert!(
        success > first_error,
        "the daemon kept serving after the error"
    );
    assert_eq!(ok(&frames[success]), Some(true));
    let last = frames.last().unwrap();
    assert_eq!(id(last), Some(3));
    assert_eq!(last.get("shutdown").and_then(Value::as_bool), Some(true));
    assert_eq!(frames.len(), 3);
}

#[cfg(unix)]
#[test]
fn unix_socket_serves_frames_across_connections() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;

    let dir = std::env::temp_dir().join(format!("powermove-serve-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("daemon.sock");

    let service = CompileService::new(8);
    let daemon = Daemon::new(&service).with_parallelism(Parallelism::fixed(2));
    let report = std::thread::scope(|s| {
        let handle = s.spawn(|| daemon.serve_unix(&socket).unwrap());
        // Wait for the socket to appear.
        for _ in 0..500 {
            if socket.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }
        // First connection: compile, expect a miss.
        let mut first = UnixStream::connect(&socket).unwrap();
        writeln!(
            first,
            r#"{{"id": 1, "benchmark": {{"family": "BV", "qubits": 6}}}}"#
        )
        .unwrap();
        let mut reply = String::new();
        BufReader::new(first.try_clone().unwrap())
            .read_line(&mut reply)
            .unwrap();
        let frame = serde_json::from_str(&reply).unwrap();
        assert_eq!(frame.get("cache").and_then(Value::as_str), Some("miss"));
        drop(first);
        // Second connection: the shared cache answers with a hit, then stop.
        let mut second = UnixStream::connect(&socket).unwrap();
        writeln!(
            second,
            r#"{{"id": 2, "benchmark": {{"family": "BV", "qubits": 6}}}}"#
        )
        .unwrap();
        writeln!(second, r#"{{"id": 3, "op": "shutdown"}}"#).unwrap();
        let mut lines = BufReader::new(second.try_clone().unwrap()).lines();
        let frame = serde_json::from_str(&lines.next().unwrap().unwrap()).unwrap();
        assert_eq!(frame.get("cache").and_then(Value::as_str), Some("hit"));
        let ack = serde_json::from_str(&lines.next().unwrap().unwrap()).unwrap();
        assert_eq!(ack.get("shutdown").and_then(Value::as_bool), Some(true));
        handle.join().unwrap()
    });
    assert!(report.shutdown);
    assert_eq!(service.compiles(), 1);
    let _ = std::fs::remove_dir_all(&dir);
}
