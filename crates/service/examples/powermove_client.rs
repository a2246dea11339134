//! Smoke-test client for the compile daemon.
//!
//! Spawns `powermove-serve` (sibling binary, overridable via
//! `POWERMOVE_SERVE_BIN`), fires a burst of concurrent compile requests
//! over the service smoke cells — every cell repeated many times so the
//! burst mixes cold misses with hits and coalesced requests — sends `stats`
//! and `shutdown` once every compile has answered, and asserts:
//!
//! * every request succeeded and every response correlates to a request;
//! * responses sharing a content `key` report the same program `digest`
//!   (cache hits are byte-identical to the cold compile);
//! * the cache recorded hits and the daemon compiled each distinct cell at
//!   most a handful of times (coalescing keeps redundant compiles down);
//! * the daemon acknowledged `shutdown` as its final frame and exited
//!   cleanly.
//!
//! Exits nonzero on any violation, so CI can run it as a gate.

use powermove_bench::service_smoke_cells;
use serde::Value;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const ROUNDS: usize = 24;

fn serve_binary() -> PathBuf {
    if let Ok(path) = std::env::var("POWERMOVE_SERVE_BIN") {
        return PathBuf::from(path);
    }
    // target/<profile>/examples/powermove_client → target/<profile>/powermove-serve
    let exe = std::env::current_exe().expect("current_exe");
    let profile_dir = exe
        .parent()
        .and_then(|examples| examples.parent())
        .expect("example binary has no profile directory");
    profile_dir.join("powermove-serve")
}

fn fail(message: &str) -> ExitCode {
    eprintln!("powermove_client: FAIL: {message}");
    ExitCode::FAILURE
}

#[allow(clippy::too_many_lines)]
fn main() -> ExitCode {
    let cells = service_smoke_cells();
    let requests: usize = ROUNDS * cells.len();

    let binary = serve_binary();
    let mut child = match Command::new(&binary)
        .args(["--cache-capacity", "16"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return fail(&format!("cannot spawn {}: {e}", binary.display())),
    };
    let mut stdin = child.stdin.take().expect("child stdin");
    let stdout = BufReader::new(child.stdout.take().expect("child stdout"));

    // Fire the whole burst before reading anything back: the daemon queues
    // the frames onto its pool, so the requests genuinely overlap. Rounds
    // interleave the cells, so identical requests arrive back to back and
    // exercise both coalescing (while round 0 compiles) and plain hits.
    let mut sent = 0_i64;
    for round in 0..ROUNDS {
        for (cell, (family, qubits)) in cells.iter().enumerate() {
            let id = (round * cells.len() + cell) as i64;
            let frame = format!(
                r#"{{"id": {id}, "op": "compile", "benchmark": {{"family": "{family}", "qubits": {qubits}}}}}"#
            );
            if writeln!(stdin, "{frame}").is_err() {
                return fail("daemon closed stdin early");
            }
            sent += 1;
        }
    }
    let mut stdin = Some(stdin);

    let mut digest_by_key: HashMap<String, String> = HashMap::new();
    let mut ok_replies = 0_usize;
    let mut hits = 0_u64;
    let mut compiles = 0_u64;
    let mut coalesced = 0_u64;
    let mut last_was_shutdown = false;
    for line in stdout.lines() {
        let Ok(line) = line else {
            return fail("daemon stdout died mid-stream");
        };
        let frame = match serde_json::from_str(&line) {
            Ok(frame) => frame,
            Err(e) => return fail(&format!("unparseable response frame: {e}")),
        };
        last_was_shutdown = frame.get("shutdown").and_then(Value::as_bool) == Some(true);
        if frame.get("ok").and_then(Value::as_bool) != Some(true) {
            return fail(&format!("request failed: {line}"));
        }
        if let Some(stats) = frame.get("stats") {
            let read = |path: &[&str]| {
                let mut v = stats;
                for key in path {
                    v = v.get(key)?;
                }
                v.as_i64().map(|n| n as u64)
            };
            hits = read(&["cache", "hits"]).unwrap_or(0);
            compiles = read(&["compiles"]).unwrap_or(0);
            coalesced = read(&["coalesced"]).unwrap_or(0);
            continue;
        }
        let (Some(key), Some(digest)) = (
            frame.get("key").and_then(Value::as_str),
            frame.get("digest").and_then(Value::as_str),
        ) else {
            continue; // the shutdown ack
        };
        ok_replies += 1;
        if let Some(previous) = digest_by_key.insert(key.to_string(), digest.to_string()) {
            if previous != digest {
                return fail(&format!(
                    "cache served a different program for key {key}: {previous} vs {digest}"
                ));
            }
        }
        // Ask for stats only once every compile has answered: the daemon
        // answers `stats` inline, ahead of compiles still queued.
        if ok_replies == requests {
            let mut stdin = stdin.take().expect("the burst is answered once");
            let stats_id = sent;
            let shutdown_id = sent + 1;
            if writeln!(stdin, r#"{{"id": {stats_id}, "op": "stats"}}"#).is_err()
                || writeln!(stdin, r#"{{"id": {shutdown_id}, "op": "shutdown"}}"#).is_err()
            {
                return fail("daemon closed stdin before shutdown");
            }
        }
    }

    let status = match child.wait() {
        Ok(status) => status,
        Err(e) => return fail(&format!("daemon did not exit: {e}")),
    };
    if !status.success() {
        return fail(&format!("daemon exited with {status}"));
    }
    if !last_was_shutdown {
        return fail("the final frame was not the shutdown acknowledgement");
    }
    if ok_replies != requests {
        return fail(&format!(
            "expected {requests} compile replies, got {ok_replies}"
        ));
    }
    if digest_by_key.len() != cells.len() {
        return fail(&format!(
            "expected {} distinct content keys, saw {}",
            cells.len(),
            digest_by_key.len()
        ));
    }
    if hits == 0 {
        return fail("cache recorded zero hits over a repeated burst");
    }
    if compiles + coalesced + hits < requests as u64 {
        return fail(&format!(
            "counters do not cover the burst: {compiles} compiles + {coalesced} coalesced + {hits} hits < {requests}"
        ));
    }
    println!(
        "powermove_client: OK: {requests} requests over {} cells → {compiles} compiles, {hits} hits, {coalesced} coalesced",
        cells.len(),
    );
    ExitCode::SUCCESS
}
