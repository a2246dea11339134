//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <qaoa-route|qft-stage|service-mix> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` runs the same
//! workload's inputs through spans wrapped around each layer's public entry
//! points and reports the per-layer metrics instead. Human-readable rows go
//! to standard output first; the last line is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`. Any failed check makes the
//! command exit with code 1.

mod alloc;
mod cells;
mod compile_bench;
mod service_bench;
mod stats;
mod traced;

use std::time::Instant;

#[global_allocator]
static GLOBAL: alloc::CountingAlloc = alloc::CountingAlloc;

/// Set-up builds timed per call; `setup_s` is the median over two calls, at
/// the start and at the end of a run.
const SETUP_REPS: u64 = 15;

/// Checked operations and measured metrics of one run.
#[derive(Debug, Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Report {
    /// Counts one checked operation, recording its failure if any.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(message) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(message);
            }
        }
    }

    /// Counts `attempted` operations checked elsewhere, `failed` of them
    /// with the given reasons.
    pub fn absorb(&mut self, attempted: u64, failed: u64, errors: &[String]) {
        self.attempted += attempted;
        self.failed += failed;
        for message in errors {
            if self.errors.len() < 20 {
                self.errors.push(message.clone());
            }
        }
    }

    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|(_, value, _)| value.is_finite())
    }

    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Times the workload's set-up. Builds the inputs for `seed` once untimed
/// (which also warms up), then [`SETUP_REPS`] times for seeds derived from
/// it — so one seed's luck in the generators does not decide `setup_s` —
/// pushing each build's seconds. `call` numbers the calls within a run, so
/// each call times different derived seeds. Returns the inputs for `seed`.
pub fn time_setup<T>(
    build: &mut impl FnMut(u64) -> T,
    seed: u64,
    call: u64,
    seconds: &mut Vec<f64>,
) -> T {
    let inputs = build(seed);
    for i in 0..SETUP_REPS {
        let derived = seed.wrapping_add(1 + call * SETUP_REPS + i);
        let start = Instant::now();
        let other = build(derived);
        seconds.push(start.elapsed().as_secs_f64());
        drop(other);
    }
    inputs
}

/// Worker threads and outstanding requests: the machine's core count.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => trace = value == "1",
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("usage: --workload <qaoa-route|qft-stage|service-mix> --seed <n> --seconds <s> --trace <0|1>\n{message}");
            std::process::exit(2);
        }
    };
    let threads = nproc();
    let specs = match args.workload.as_str() {
        "qaoa-route" => compile_bench::qaoa_route_specs(threads),
        "qft-stage" => compile_bench::qft_stage_specs(threads),
        "service-mix" => service_bench::key_specs(),
        other => {
            eprintln!("unknown workload `{other}`");
            std::process::exit(2);
        }
    };
    let service = args.workload == "service-mix";
    let report = match (args.trace, service) {
        (false, false) => compile_bench::run(&specs, args.seed, args.seconds),
        (false, true) => service_bench::run(&specs, args.seed, args.seconds),
        (true, _) => traced::run(&specs, args.seed, service),
    };
    for error in &report.errors {
        eprintln!("check failed: {error}");
    }
    println!(
        "workload {} seed {}: {} checks, {} failed (error_rate {})",
        args.workload,
        args.seed,
        report.attempted,
        report.failed,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    println!("{}", report.json());
    std::process::exit(if report.correct() { 0 } else { 1 });
}
