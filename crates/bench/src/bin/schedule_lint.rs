//! `schedule-lint` — replay emitted programs through the schedule
//! invariant rules, and sweep seeded circuit corpora for violations.
//!
//! ```text
//! schedule-lint qasm <file> [--aods N] [--arch VARIANT]
//! schedule-lint gen --seed S [--count N]
//! schedule-lint jsonl <file>
//! schedule-lint campaign [--cases N] [--seed BASE] [--out DIR] [--json PATH]
//! schedule-lint replay <config.json> [...]
//! ```
//!
//! * `qasm` lints one OpenQASM 2.0 file under all four routing strategies
//!   on the chosen architecture variant (default: the paper's machine at
//!   one AOD array).
//! * `gen` lints seeded generator cases (`--count` consecutive seeds,
//!   default 1) — the same generator the campaign sweeps.
//! * `jsonl` lints every compile frame of a service request log.
//! * `campaign` runs the corpus sweep: seeded circuits × 4 strategies ×
//!   1–4 AODs × the architecture-variant grid, shrinking failures and
//!   persisting reproducers under `--out` (default `bench/reproducers`).
//!   `POWERMOVE_LINT_CASES` overrides the default case count (1000) when
//!   `--cases` is not given; the summary JSON is written to `--json`
//!   (default `<out>/campaign-summary.json`).
//! * `replay` re-lints checked-in reproducer configs and fails if any
//!   still fires (the regression check behind `tests/lint_reproducers.rs`).
//!
//! Exit codes: 0 clean, 1 violations found, 2 usage or input error.

use powermove_bench::harness::{take_flag, take_usize_flag, write_json, ArchVariant};
use powermove_bench::lint::{
    lint_circuit, lint_service_log, run_campaign, CampaignConfig, CorpusInstance, LintViolation,
};
use powermove_circuit::qasm;
use std::path::PathBuf;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: schedule-lint <command>\n\
         \n\
         commands:\n\
         \x20 qasm <file> [--aods N] [--arch VARIANT]   lint one OpenQASM file\n\
         \x20 gen --seed S [--count N]                  lint seeded generator cases\n\
         \x20 jsonl <file>                              lint a service request log\n\
         \x20 campaign [--cases N] [--seed BASE] [--out DIR] [--json PATH]\n\
         \x20                                           run the corpus campaign\n\
         \x20 replay <config.json> [...]                re-lint checked-in reproducers\n\
         \n\
         architecture variants: standard, wide, deep-storage, slow-transfer"
    );
    ExitCode::from(2)
}

fn print_violations(label: &str, violations: &[LintViolation]) {
    for v in violations {
        println!(
            "VIOLATION {label} [{}] {}: {}",
            v.rule, v.strategy, v.message
        );
    }
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().cloned() else {
        return usage();
    };
    args.remove(0);
    match command.as_str() {
        "qasm" => run_qasm(args),
        "gen" => run_gen(args),
        "jsonl" => run_jsonl(args),
        "campaign" => run_campaign_cmd(args),
        "replay" => run_replay(args),
        _ => usage(),
    }
}

fn parse_arch(args: &mut Vec<String>) -> Result<ArchVariant, ExitCode> {
    match take_flag(args, "--arch") {
        None => Ok(ArchVariant::Standard),
        Some(name) => ArchVariant::from_name(&name).ok_or_else(|| {
            eprintln!("unknown architecture variant {name:?}");
            ExitCode::from(2)
        }),
    }
}

fn run_qasm(mut args: Vec<String>) -> ExitCode {
    let aods = take_usize_flag(&mut args, "--aods").unwrap_or(1);
    let variant = match parse_arch(&mut args) {
        Ok(v) => v,
        Err(code) => return code,
    };
    let [path] = args.as_slice() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let circuit = match qasm::from_qasm(&text) {
        Ok(circuit) => circuit,
        Err(e) => {
            eprintln!("{path}: {e}");
            return ExitCode::from(2);
        }
    };
    let arch = match variant
        .architecture_for(circuit.num_qubits())
        .try_with_num_aods(aods)
    {
        Ok(arch) => arch,
        Err(e) => {
            eprintln!("--aods {aods}: {e}");
            return ExitCode::from(2);
        }
    };
    let violations = lint_circuit(&circuit, &arch);
    print_violations(path, &violations);
    report_outcome(1, violations.len())
}

fn run_gen(mut args: Vec<String>) -> ExitCode {
    let Some(seed) = take_flag(&mut args, "--seed").and_then(|s| s.parse::<u64>().ok()) else {
        return usage();
    };
    let count = take_usize_flag(&mut args, "--count").unwrap_or(1) as u64;
    if !args.is_empty() {
        return usage();
    }
    let mut total = 0;
    for seed in seed..seed + count.max(1) {
        let instance = CorpusInstance::generate(seed);
        let violations = instance.lint();
        println!(
            "seed {seed}: {} qubits, {} gates, {} AODs, arch {} -> {}",
            instance.num_qubits,
            instance.ops.len(),
            instance.num_aods,
            instance.arch.name(),
            if violations.is_empty() {
                "clean".to_string()
            } else {
                format!("{} violation(s)", violations.len())
            }
        );
        print_violations(&format!("seed{seed}"), &violations);
        total += violations.len();
    }
    report_outcome(count.max(1) as usize, total)
}

fn run_jsonl(args: Vec<String>) -> ExitCode {
    let [path] = args.as_slice() else {
        return usage();
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let report = lint_service_log(&text);
    for (line, v) in &report.violations {
        println!(
            "VIOLATION {path}:{line} [{}] {}: {}",
            v.rule, v.strategy, v.message
        );
    }
    println!(
        "{}: {} line(s), {} compile frame(s) linted, {} skipped",
        path, report.lines, report.linted, report.skipped
    );
    report_outcome(report.linted, report.violations.len())
}

fn run_campaign_cmd(mut args: Vec<String>) -> ExitCode {
    let env_cases = std::env::var("POWERMOVE_LINT_CASES")
        .ok()
        .and_then(|v| v.parse::<u64>().ok());
    let cases = take_usize_flag(&mut args, "--cases")
        .map(|c| c as u64)
        .or(env_cases)
        .unwrap_or(1000);
    let base_seed = take_usize_flag(&mut args, "--seed").map_or(0, |s| s as u64);
    let out_dir = take_flag(&mut args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("bench/reproducers"));
    let json_path = take_flag(&mut args, "--json")
        .map(PathBuf::from)
        .unwrap_or_else(|| out_dir.join("campaign-summary.json"));
    if !args.is_empty() {
        return usage();
    }
    let config = CampaignConfig {
        cases,
        base_seed,
        out_dir: Some(out_dir.clone()),
    };
    println!(
        "campaign: {cases} case(s) from seed {base_seed}, reproducers -> {}",
        out_dir.display()
    );
    let (summary, failures) = run_campaign(&config);
    for failure in &failures {
        println!(
            "FAILURE seed {} shrunk to {} gate(s):",
            failure.instance.seed,
            failure.instance.ops.len()
        );
        print_violations(
            &format!("seed{}", failure.instance.seed),
            &failure.violations,
        );
    }
    if let Some(parent) = json_path.parent() {
        std::fs::create_dir_all(parent).ok();
    }
    write_json(&json_path, &summary);
    println!(
        "campaign: {} case(s), {} violation(s), {} reproducer(s), clean={}",
        summary.cases,
        summary.violations,
        summary.reproducers.len(),
        summary.clean
    );
    report_outcome(summary.cases as usize, summary.violations as usize)
}

fn run_replay(args: Vec<String>) -> ExitCode {
    if args.is_empty() {
        return usage();
    }
    let mut total = 0;
    for path in &args {
        match powermove_bench::replay_reproducer(std::path::Path::new(path)) {
            Ok(violations) => {
                print_violations(path, &violations);
                if violations.is_empty() {
                    println!("{path}: clean");
                }
                total += violations.len();
            }
            Err(e) => {
                eprintln!("{e}");
                return ExitCode::from(2);
            }
        }
    }
    report_outcome(args.len(), total)
}

fn report_outcome(linted: usize, violations: usize) -> ExitCode {
    if violations == 0 {
        println!("schedule-lint: PASS ({linted} target(s) clean)");
        ExitCode::SUCCESS
    } else {
        println!("schedule-lint: FAIL ({violations} violation(s))");
        ExitCode::FAILURE
    }
}
