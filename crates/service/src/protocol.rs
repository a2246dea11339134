//! The JSONL frame protocol spoken by the compile daemon.
//!
//! Every frame is one JSON object on one line. Requests arrive on stdin (or
//! a Unix-socket connection); each produces exactly one response frame,
//! correlated by the client-chosen `id`. Responses to concurrent compile
//! requests stream back in completion order, so clients must match on `id`,
//! not on arrival order.
//!
//! # Request frames
//!
//! ```json
//! {"id": 1, "op": "compile", "qasm": "OPENQASM 2.0; ...", "aods": 2}
//! {"id": 2, "op": "compile",
//!  "benchmark": {"family": "QFT", "qubits": 10, "seed": 20250},
//!  "config": {"storage": true, "alpha": 0.97, "routing": "lookahead",
//!             "lookahead": 2}}
//! {"id": 3, "op": "stats"}
//! {"id": 4, "op": "shutdown"}
//! ```
//!
//! A compile request names its circuit either inline (`qasm`, OpenQASM 2.0
//! text) or as a generated benchmark instance (`benchmark` with a Table 2
//! `family` name, `qubits`, and an optional `seed` defaulting to the bench
//! harness default) of at most [`MAX_BENCHMARK_QUBITS`] qubits; either way
//! the circuit may hold at most [`MAX_FRAME_GATES`] gates. The
//! architecture is derived from the circuit width (plus optional `aods`,
//! default 1), and `config` fields override [`CompilerConfig`] defaults one
//! by one; `threads` defaults to 1 inside the daemon because request-level
//! parallelism already saturates the pool, and may be at most
//! [`MAX_FRAME_THREADS`]. `routing` names one of
//! `greedy`, `lookahead` (window from `lookahead`, default 2), `multi-aod`
//! or `auto`.
//!
//! # Response frames
//!
//! ```json
//! {"id": 1, "ok": true, "cache": "miss", "key": "92b11c…", "digest": "5d1f…",
//!  "qubits": 10, "instructions": 42, "stages": 9, "program": null}
//! {"id": 7, "ok": false, "error": "unknown benchmark family `qproc`"}
//! {"id": 8, "ok": false, "error": "internal: <panic message>"}
//! ```
//!
//! Every request frame gets exactly one response frame. A frame whose `id`
//! cannot be read is answered with `"id": null`; a compile that panics is
//! answered with an `internal` error and the daemon keeps serving.
//!
//! `key` is the request's content hash, `digest` the canonical digest of
//! the emitted program ([`program_digest`](powermove_schedule::program_digest));
//! identical keys always report identical digests, and the smoke test
//! checks both against an in-process hash and compile, so a hit is shown
//! byte-identical to a cold compile of the same request. With
//! `"include_program": true` the response carries the full serialized
//! program in `program`.

use powermove::{CompilerConfig, RoutingConfig};
use powermove_benchmarks::BenchmarkFamily;
use powermove_circuit::Circuit;
use serde::{Serialize, Value};

/// Default RNG seed for `benchmark` sources, matching the bench harness.
pub const DEFAULT_SEED: u64 = 20250;

/// Widest circuit a `benchmark` source may generate, the counterpart of
/// [`MAX_QASM_QUBITS`](powermove_circuit::qasm::MAX_QASM_QUBITS) for inline
/// QASM. It covers the widest suite circuit any test, bench or workload
/// generates (QAOA at 1024 qubits); [`MAX_FRAME_GATES`] bounds the work.
pub const MAX_BENCHMARK_QUBITS: u32 = 1024;

/// Most gates a compile frame's circuit may hold, whatever its source.
///
/// Width alone does not bound a compile: QFT's gate count grows
/// quadratically, so QFT-1024 (1,572,352 gates, 523,776 of them CZ) fits
/// [`MAX_BENCHMARK_QUBITS`] yet would occupy a worker for minutes. The
/// bound, 2^17, admits the largest circuit any benchmark workload compiles
/// — QFT-256, 98,176 gates — with a third to spare, and rejects QFT from
/// about 296 qubits up. It is checked once the circuit is materialized,
/// before the request is hashed or compiled.
pub const MAX_FRAME_GATES: usize = 1 << 17;

/// Largest `config.threads` a compile frame may ask for.
///
/// A compile's pool starts one OS thread per parallel work item up to this
/// count, so an unbounded value lets one frame start arbitrarily many
/// threads. The bound admits every count the suite sends (the benchmark's
/// service frames send 1) and a pinned pool on up to 64 cores; `0` (one
/// worker per core) stays allowed.
pub const MAX_FRAME_THREADS: usize = 64;

/// A parsed request frame.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Compile a circuit (from QASM text or a generated benchmark).
    Compile(CompileRequest),
    /// Report service counters.
    Stats {
        /// Correlation id echoed in the response.
        id: i64,
    },
    /// Drain in-flight work, acknowledge, and stop the daemon.
    Shutdown {
        /// Correlation id echoed in the response.
        id: i64,
    },
}

/// The circuit source of a compile request.
#[derive(Debug, Clone, PartialEq)]
pub enum Source {
    /// Inline OpenQASM 2.0 text.
    Qasm(String),
    /// A generated Table 2 benchmark instance.
    Benchmark {
        /// Benchmark family.
        family: BenchmarkFamily,
        /// Circuit width.
        qubits: u32,
        /// Generator seed.
        seed: u64,
    },
}

/// A parsed compile request frame.
#[derive(Debug, Clone, PartialEq)]
pub struct CompileRequest {
    /// Correlation id echoed in the response.
    pub id: i64,
    /// Where the circuit comes from.
    pub source: Source,
    /// AOD-array count for the derived architecture.
    pub aods: usize,
    /// Compiler configuration after applying frame overrides.
    pub config: CompilerConfig,
    /// Whether the response should embed the full serialized program.
    pub include_program: bool,
}

impl CompileRequest {
    /// Materializes the request's circuit.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] if the QASM text does not parse, the
    /// benchmark parameters are infeasible, or the circuit holds more than
    /// [`MAX_FRAME_GATES`] gates.
    pub fn circuit(&self) -> Result<Circuit, FrameError> {
        let circuit = self.materialize()?;
        if circuit.num_gates() > MAX_FRAME_GATES {
            return Err(FrameError::new(
                Some(self.id),
                format!(
                    "circuit has {} gates; a frame may hold at most {MAX_FRAME_GATES}",
                    circuit.num_gates()
                ),
            ));
        }
        Ok(circuit)
    }

    fn materialize(&self) -> Result<Circuit, FrameError> {
        match &self.source {
            Source::Qasm(text) => powermove_circuit::qasm::from_qasm(text)
                .map_err(|e| FrameError::new(Some(self.id), format!("qasm: {e}"))),
            Source::Benchmark {
                family,
                qubits,
                seed,
            } => {
                if *qubits < 2 {
                    return Err(FrameError::new(
                        Some(self.id),
                        "benchmark.qubits must be at least 2",
                    ));
                }
                if *qubits > MAX_BENCHMARK_QUBITS {
                    return Err(FrameError::new(
                        Some(self.id),
                        format!("benchmark.qubits must be at most {MAX_BENCHMARK_QUBITS}"),
                    ));
                }
                powermove_benchmarks::try_generate(*family, *qubits, *seed)
                    .map(|instance| instance.circuit)
                    .map_err(|e| FrameError::new(Some(self.id), format!("benchmark: {e}")))
            }
        }
    }
}

/// A malformed frame: carries the offending request's `id` when one could
/// be extracted, so the error response still correlates.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameError {
    /// Correlation id, if the frame carried a usable one.
    pub id: Option<i64>,
    /// Human-readable description of the problem.
    pub message: String,
}

impl FrameError {
    /// Creates a frame error.
    pub fn new(id: Option<i64>, message: impl Into<String>) -> Self {
        FrameError {
            id,
            message: message.into(),
        }
    }

    /// The error response frame for this failure.
    #[must_use]
    pub fn reply(&self) -> Value {
        Value::Object(vec![
            ("id".into(), self.id.map_or(Value::Null, Value::Int)),
            ("ok".into(), Value::Bool(false)),
            ("error".into(), Value::String(self.message.clone())),
        ])
    }
}

impl Request {
    /// Parses one JSONL frame.
    ///
    /// # Errors
    ///
    /// Returns a [`FrameError`] (with the frame's `id` when recoverable) on
    /// malformed JSON, a missing or non-integer `id`, an unknown `op`, or
    /// invalid compile parameters.
    pub fn parse(line: &str) -> Result<Request, FrameError> {
        let value = serde_json::from_str(line)
            .map_err(|e| FrameError::new(None, format!("malformed frame: {e}")))?;
        let id = value
            .get("id")
            .and_then(Value::as_i64)
            .ok_or_else(|| FrameError::new(None, "frame is missing an integer `id`"))?;
        let op = value
            .get("op")
            .map_or(Some("compile"), Value::as_str)
            .ok_or_else(|| FrameError::new(Some(id), "`op` must be a string"))?;
        match op {
            "stats" => Ok(Request::Stats { id }),
            "shutdown" => Ok(Request::Shutdown { id }),
            "compile" => parse_compile(id, &value).map(Request::Compile),
            other => Err(FrameError::new(Some(id), format!("unknown op `{other}`"))),
        }
    }
}

fn parse_compile(id: i64, value: &Value) -> Result<CompileRequest, FrameError> {
    let source = match (value.get("qasm"), value.get("benchmark")) {
        (Some(_), Some(_)) => {
            return Err(FrameError::new(
                Some(id),
                "specify either `qasm` or `benchmark`, not both",
            ))
        }
        (Some(qasm), None) => Source::Qasm(
            qasm.as_str()
                .ok_or_else(|| FrameError::new(Some(id), "`qasm` must be a string"))?
                .to_string(),
        ),
        (None, Some(bench)) => parse_benchmark(id, bench)?,
        (None, None) => {
            return Err(FrameError::new(
                Some(id),
                "compile frame needs a `qasm` or `benchmark` source",
            ))
        }
    };
    let aods = match value.get("aods") {
        None => 1,
        Some(v) => usize::try_from(v.as_i64().unwrap_or(-1))
            .ok()
            .filter(|a| *a >= 1)
            .ok_or_else(|| FrameError::new(Some(id), "`aods` must be a positive integer"))?,
    };
    let config = parse_config(id, value.get("config"))?;
    let include_program = match value.get("include_program") {
        None => false,
        Some(v) => v
            .as_bool()
            .ok_or_else(|| FrameError::new(Some(id), "`include_program` must be a boolean"))?,
    };
    Ok(CompileRequest {
        id,
        source,
        aods,
        config,
        include_program,
    })
}

fn parse_benchmark(id: i64, bench: &Value) -> Result<Source, FrameError> {
    let family_name = bench
        .get("family")
        .and_then(Value::as_str)
        .ok_or_else(|| FrameError::new(Some(id), "`benchmark.family` must be a string"))?;
    let family = BenchmarkFamily::from_name(family_name).ok_or_else(|| {
        FrameError::new(
            Some(id),
            format!("unknown benchmark family `{family_name}`"),
        )
    })?;
    let qubits = bench
        .get("qubits")
        .and_then(Value::as_i64)
        .and_then(|q| u32::try_from(q).ok())
        .ok_or_else(|| {
            FrameError::new(
                Some(id),
                "`benchmark.qubits` must be a non-negative integer",
            )
        })?;
    let seed = match bench.get("seed") {
        None => DEFAULT_SEED,
        Some(v) => v
            .as_i64()
            .and_then(|s| u64::try_from(s).ok())
            .ok_or_else(|| {
                FrameError::new(Some(id), "`benchmark.seed` must be a non-negative integer")
            })?,
    };
    Ok(Source::Benchmark {
        family,
        qubits,
        seed,
    })
}

fn parse_config(id: i64, value: Option<&Value>) -> Result<CompilerConfig, FrameError> {
    // Inside the daemon, request-level parallelism already keeps the pool
    // busy; per-compile pools default to one worker.
    let mut config = CompilerConfig::default().with_threads(1);
    let Some(value) = value else {
        return Ok(config);
    };
    if value.as_object().is_none() {
        return Err(FrameError::new(Some(id), "`config` must be an object"));
    }
    if let Some(storage) = value.get("storage") {
        match storage.as_bool() {
            Some(true) => {}
            Some(false) => config.use_storage = false,
            None => {
                return Err(FrameError::new(
                    Some(id),
                    "`config.storage` must be a boolean",
                ))
            }
        }
    }
    if let Some(alpha) = value.get("alpha") {
        config.alpha = alpha
            .as_f64()
            .ok_or_else(|| FrameError::new(Some(id), "`config.alpha` must be a number"))?;
    }
    if let Some(grouping) = value.get("grouping") {
        config.use_grouping = grouping
            .as_bool()
            .ok_or_else(|| FrameError::new(Some(id), "`config.grouping` must be a boolean"))?;
    }
    if let Some(threads) = value.get("threads") {
        config.threads = threads
            .as_i64()
            .and_then(|t| usize::try_from(t).ok())
            .ok_or_else(|| {
                FrameError::new(Some(id), "`config.threads` must be a non-negative integer")
            })?;
        if config.threads > MAX_FRAME_THREADS {
            return Err(FrameError::new(
                Some(id),
                format!("`config.threads` may be at most {MAX_FRAME_THREADS}"),
            ));
        }
    }
    let routing = match value.get("routing") {
        None => None,
        Some(routing) => Some(
            routing
                .as_str()
                .ok_or_else(|| FrameError::new(Some(id), "`config.routing` must be a string"))?,
        ),
    };
    // Checked even without `routing`, so a malformed window is never
    // silently ignored.
    let lookahead = match value.get("lookahead") {
        None => 2,
        Some(v) => v
            .as_i64()
            .and_then(|d| usize::try_from(d).ok())
            .ok_or_else(|| {
                FrameError::new(
                    Some(id),
                    "`config.lookahead` must be a non-negative integer",
                )
            })?,
    };
    if let Some(name) = routing {
        config.routing = match name {
            "greedy" => RoutingConfig::greedy(),
            "lookahead" => RoutingConfig::lookahead(lookahead),
            "multi-aod" => RoutingConfig::multi_aod(),
            "auto" => RoutingConfig::auto(),
            other => {
                return Err(FrameError::new(
                    Some(id),
                    format!("unknown routing strategy `{other}`"),
                ))
            }
        };
    }
    Ok(config)
}

/// The response frame for a successful compile.
#[derive(Debug, Serialize)]
pub struct CompileReply {
    /// Correlation id from the request.
    pub id: i64,
    /// Always `true` for this frame type.
    pub ok: bool,
    /// How the request was satisfied: `"hit"`, `"miss"` or `"coalesced"`.
    pub cache: String,
    /// The request's content hash (16 hex digits).
    pub key: String,
    /// Canonical digest of the emitted program (16 hex digits).
    pub digest: String,
    /// Program width in qubits.
    pub qubits: u32,
    /// Instruction count of the emitted program.
    pub instructions: usize,
    /// Rydberg stage count of the emitted program.
    pub stages: usize,
    /// The full serialized program when `include_program` was set, else
    /// `null`.
    pub program: Option<Value>,
}

/// The response frame for a `stats` request.
#[derive(Debug, Serialize)]
pub struct StatsReply {
    /// Correlation id from the request.
    pub id: i64,
    /// Always `true` for this frame type.
    pub ok: bool,
    /// The service counters.
    pub stats: crate::ServiceStats,
}

/// The acknowledgement frame for a `shutdown` request — always the last
/// frame the daemon writes.
#[derive(Debug, Serialize)]
pub struct ShutdownReply {
    /// Correlation id from the request.
    pub id: i64,
    /// Always `true` for this frame type.
    pub ok: bool,
    /// Always `true`: marks the daemon as stopping.
    pub shutdown: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_benchmark_compile_frame() {
        let req = Request::parse(
            r#"{"id": 3, "op": "compile", "benchmark": {"family": "QFT", "qubits": 10}, "aods": 2}"#,
        )
        .unwrap();
        let Request::Compile(req) = req else {
            panic!("expected compile");
        };
        assert_eq!(req.id, 3);
        assert_eq!(req.aods, 2);
        assert_eq!(
            req.source,
            Source::Benchmark {
                family: BenchmarkFamily::Qft,
                qubits: 10,
                seed: DEFAULT_SEED
            }
        );
        assert_eq!(req.config.threads, 1);
        assert!(req.circuit().unwrap().num_qubits() == 10);
    }

    #[test]
    fn parses_qasm_compile_frame() {
        let qasm = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncz q[0], q[1];\n";
        let mut circuit = Circuit::new(2);
        circuit
            .cz(
                powermove_circuit::Qubit::new(0),
                powermove_circuit::Qubit::new(1),
            )
            .unwrap();
        let frame = serde_json::to_jsonl_line(&Value::Object(vec![
            ("id".into(), Value::Int(1)),
            ("qasm".into(), Value::String(qasm.into())),
        ]));
        let Request::Compile(req) = Request::parse(&frame).unwrap() else {
            panic!("expected compile");
        };
        assert_eq!(req.circuit().unwrap(), circuit);
    }

    #[test]
    fn config_overrides_apply() {
        let req = Request::parse(
            r#"{"id": 1, "benchmark": {"family": "BV", "qubits": 8},
                "config": {"storage": false, "alpha": 0.5, "grouping": false,
                           "threads": 2, "routing": "lookahead", "lookahead": 3}}"#,
        )
        .unwrap();
        let Request::Compile(req) = req else {
            panic!("expected compile");
        };
        assert!(!req.config.use_storage);
        assert!(!req.config.use_grouping);
        assert_eq!(req.config.alpha, 0.5);
        assert_eq!(req.config.threads, 2);
        assert_eq!(req.config.routing, RoutingConfig::lookahead(3));
    }

    #[test]
    fn malformed_frames_report_errors() {
        // (frame, echoed id, error substring). A frame fails either to parse
        // or, for a compile, to materialize its circuit.
        let mut rows: Vec<(String, Option<i64>, &str)> = [
            ("not json", None, "malformed frame"),
            (r#"{"op": "stats"}"#, None, "integer `id`"),
            (r#"{"id": "7", "op": "stats"}"#, None, "integer `id`"),
            (r#"{"id": 1.5, "op": "stats"}"#, None, "integer `id`"),
            (r#"{"id": 9, "op": "launch"}"#, Some(9), "unknown op"),
            (r#"{"id": 10, "op": 3}"#, Some(10), "`op` must be a string"),
            (
                r#"{"id": 4, "benchmark": {"family": "nope", "qubits": 4}}"#,
                Some(4),
                "unknown benchmark family",
            ),
            (
                r#"{"id": 11, "benchmark": {"family": "BV", "qubits": 8},
                    "config": {"routing": "auto-model"}}"#,
                Some(11),
                "unknown routing strategy `auto-model`",
            ),
            (
                r#"{"id": 12, "benchmark": {"family": "BV", "qubits": 8}, "config": 5}"#,
                Some(12),
                "`config` must be an object",
            ),
            (
                r#"{"id": 13, "benchmark": {"family": "BV", "qubits": 8},
                    "include_program": "yes"}"#,
                Some(13),
                "`include_program` must be a boolean",
            ),
            (
                r#"{"id": 14, "benchmark": {"family": "BV", "qubits": 8},
                    "config": {"lookahead": "deep"}}"#,
                Some(14),
                "`config.lookahead` must be a non-negative integer",
            ),
            (
                r#"{"id": 15, "qasm": "", "benchmark": {"family": "BV", "qubits": 8}}"#,
                Some(15),
                "not both",
            ),
            (r#"{"id": 16}"#, Some(16), "needs a `qasm` or `benchmark`"),
            (
                r#"{"id": 17, "qasm": 7}"#,
                Some(17),
                "`qasm` must be a string",
            ),
            (
                r#"{"id": 18, "benchmark": {"family": "BV", "qubits": 8}, "aods": 0}"#,
                Some(18),
                "`aods` must be a positive integer",
            ),
            (
                r#"{"id": 19, "benchmark": {"family": "BV", "qubits": 8}, "aods": "2"}"#,
                Some(19),
                "`aods` must be a positive integer",
            ),
            (
                r#"{"id": 20, "benchmark": 5}"#,
                Some(20),
                "`benchmark.family` must be a string",
            ),
            (
                r#"{"id": 21, "benchmark": {"family": "BV", "qubits": -3}}"#,
                Some(21),
                "`benchmark.qubits` must be a non-negative integer",
            ),
            (
                r#"{"id": 22, "benchmark": {"family": "BV", "qubits": 8, "seed": -1}}"#,
                Some(22),
                "`benchmark.seed` must be a non-negative integer",
            ),
            (
                r#"{"id": 23, "benchmark": {"family": "BV", "qubits": 8},
                    "config": {"storage": "no"}}"#,
                Some(23),
                "`config.storage` must be a boolean",
            ),
            (
                r#"{"id": 24, "benchmark": {"family": "BV", "qubits": 8},
                    "config": {"alpha": "high"}}"#,
                Some(24),
                "`config.alpha` must be a number",
            ),
            (
                r#"{"id": 25, "benchmark": {"family": "BV", "qubits": 8},
                    "config": {"grouping": 1}}"#,
                Some(25),
                "`config.grouping` must be a boolean",
            ),
            (
                r#"{"id": 26, "benchmark": {"family": "BV", "qubits": 8},
                    "config": {"threads": -1}}"#,
                Some(26),
                "`config.threads` must be a non-negative integer",
            ),
            (
                r#"{"id": 27, "benchmark": {"family": "BV", "qubits": 8},
                    "config": {"routing": 3}}"#,
                Some(27),
                "`config.routing` must be a string",
            ),
            (
                r#"{"id": 28, "benchmark": {"family": "BV", "qubits": 1}}"#,
                Some(28),
                "at least 2",
            ),
            (
                r#"{"id": 29, "benchmark": {"family": "BV", "qubits": 1025}}"#,
                Some(29),
                "at most 1024",
            ),
            (
                r#"{"id": 30, "qasm": "OPENQASM 2.0; qreg q[2]; cz q[0], q[5];"}"#,
                Some(30),
                "qasm:",
            ),
            (
                r#"{"id": 31, "benchmark": {"family": "QFT", "qubits": 1024}}"#,
                Some(31),
                "1572352 gates; a frame may hold at most 131072",
            ),
        ]
        .into_iter()
        .map(|(frame, id, message)| (frame.to_string(), id, message))
        .collect();
        // Inline QASM is bounded by the same gate count as benchmarks.
        let qasm = format!(
            "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\n{}",
            "h q[0];\n".repeat(MAX_FRAME_GATES + 1)
        );
        rows.push((
            serde_json::to_string(&Value::Object(vec![
                ("id".into(), Value::Int(32)),
                ("qasm".into(), Value::String(qasm)),
            ]))
            .unwrap(),
            Some(32),
            "131073 gates; a frame may hold at most 131072",
        ));
        for (frame, id, message) in rows {
            let err = Request::parse(&frame)
                .and_then(|request| match request {
                    Request::Compile(request) => request.circuit().map(drop),
                    _ => Ok(()),
                })
                .unwrap_err();
            let frame = &frame[..frame.len().min(120)];
            assert_eq!(err.id, id, "{frame}");
            assert!(err.message.contains(message), "{frame}: {}", err.message);
            let reply = serde_json::to_string(&err.reply()).unwrap();
            assert!(reply.contains("\"ok\": false") || reply.contains("\"ok\":false"));
        }
    }

    #[test]
    fn thread_counts_past_the_bound_are_frame_errors_at_parse_time() {
        // Parse only: nothing here compiles, so no pool is ever started.
        let frame = |threads: usize| {
            format!(
                r#"{{"id": 5, "benchmark": {{"family": "BV", "qubits": 8}},
                    "config": {{"threads": {threads}}}}}"#
            )
        };
        for threads in [0, 1, MAX_FRAME_THREADS] {
            let Request::Compile(req) = Request::parse(&frame(threads)).unwrap() else {
                panic!("expected compile");
            };
            assert_eq!(req.config.threads, threads);
        }
        for threads in [MAX_FRAME_THREADS + 1, 100_000] {
            let err = Request::parse(&frame(threads)).unwrap_err();
            assert_eq!(err.id, Some(5));
            assert!(err.message.contains("at most 64"), "{}", err.message);
        }
    }

    #[test]
    fn the_gate_bound_admits_every_workload_circuit() {
        // The largest circuit a benchmark workload compiles, and the widest.
        for (family, qubits) in [("QFT", 256), ("QAOA-regular4", 1024)] {
            let frame = format!(
                r#"{{"id": 1, "benchmark": {{"family": "{family}", "qubits": {qubits}}}}}"#
            );
            let Request::Compile(req) = Request::parse(&frame).unwrap() else {
                panic!("expected compile");
            };
            let circuit = req.circuit().unwrap();
            assert!(circuit.num_gates() <= MAX_FRAME_GATES);
        }
    }

    #[test]
    fn infeasible_benchmarks_are_frame_errors() {
        // (qubits, error substring): odd n·d for a 3-regular graph, and a
        // width past the generator limit.
        for (qubits, message) in [
            (7, "3-regular graph on 7 vertices"),
            (MAX_BENCHMARK_QUBITS + 1, "at most"),
        ] {
            let frame = format!(
                r#"{{"id": 1, "op": "compile", "benchmark": {{"family": "QAOA-regular3", "qubits": {qubits}}}}}"#
            );
            let Request::Compile(req) = Request::parse(&frame).unwrap() else {
                panic!("expected compile");
            };
            let err = req.circuit().unwrap_err();
            assert_eq!(err.id, Some(1));
            assert!(err.message.contains(message), "{}", err.message);
        }
    }

    #[test]
    fn stats_and_shutdown_parse() {
        assert_eq!(
            Request::parse(r#"{"id": 5, "op": "stats"}"#).unwrap(),
            Request::Stats { id: 5 }
        );
        assert_eq!(
            Request::parse(r#"{"id": 6, "op": "shutdown"}"#).unwrap(),
            Request::Shutdown { id: 6 }
        );
    }
}
