//! Randomized property tests of the routing/schedule invariants every
//! strategy — and the auto-tuning layer on top of them — must preserve.
//!
//! The invariants themselves are the schedule linter's rules
//! (`powermove_bench::lint`, built on `powermove_schedule::check`); this
//! file drives them:
//!
//! * the seeded lint corpus over seeds `0..cases` — each case's circuit
//!   compiled under greedy, lookahead, the multi-AOD scheduler and the
//!   portfolio auto-tuner at the seed's AOD count (1–4) and architecture
//!   variant, through every lint rule, shrinking any failure by halving its
//!   gate list — plus the two checks that need extra compiles per case:
//!   byte identity at 1, 2 and 4 worker threads, and the auto-tuner's
//!   recorded `selected_strategy`;
//! * a lint-clean compile of every gated fig7 cell, so the auto-tuner's
//!   movement never exceeds the best portfolio member's there;
//! * agreement between the index-pruned free-site search and the linear
//!   reference scan after random occupancy churn, under zero, random
//!   nonnegative and shifted-admissible biases.
//!
//! The case count defaults to 200 and is tunable through the
//! `POWERMOVE_PROP_CASES` environment variable (CI pins 500 on the stable
//! leg; local runs can drop it for speed).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use powermove_bench::lint::{
    check_free_site_agreement_with, lint_circuit, lint_strategies, run_campaign, CampaignConfig,
    CorpusInstance,
};
use powermove_exec::ThreadPool;
use powermove_suite::circuit::Qubit;
use powermove_suite::hardware::{Architecture, Point, SiteId};
use powermove_suite::powermove::{CompilerConfig, FreeSiteHarness, PowerMoveCompiler};
use powermove_suite::schedule::canonical_program_bytes;

/// Default number of random cases; override with `POWERMOVE_PROP_CASES`.
const DEFAULT_CASES: u64 = 200;

fn cases() -> u64 {
    std::env::var("POWERMOVE_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(DEFAULT_CASES)
}

/// The per-case checks the lint rules cannot make from a single compile:
/// every strategy emits byte-identical programs at 1, 2 and 4 worker
/// threads (including through the auto-tuner's portfolio fan-out), and the
/// auto-tuner records a portfolio member as its `selected_strategy`.
/// Compile failures are skipped here; the lint campaign reports them.
fn worker_count_and_selection_errors(seed: u64) -> Vec<String> {
    let instance = CorpusInstance::generate(seed);
    let Ok(circuit) = instance.circuit() else {
        return Vec::new();
    };
    let arch = instance.architecture();
    let mut errors = Vec::new();
    for (name, routing) in lint_strategies() {
        let compile = |threads: usize| {
            PowerMoveCompiler::new(
                CompilerConfig::default()
                    .with_routing(routing)
                    .with_threads(threads),
            )
            .compile(&circuit, &arch)
        };
        let Ok(program) = compile(1) else {
            continue;
        };
        let reference = canonical_program_bytes(&program);
        for threads in [2, 4] {
            let parallel = compile(threads).ok().map(|p| canonical_program_bytes(&p));
            if parallel.as_ref() != Some(&reference) {
                errors.push(format!(
                    "seed {seed} {name}: threads=1 vs threads={threads} diverged"
                ));
            }
        }
        if name == "auto" && !program.instructions().is_empty() {
            match program.metadata().selected_strategy.as_deref() {
                Some("greedy" | "lookahead" | "multi-aod") => {}
                other => errors.push(format!(
                    "seed {seed} auto: selected strategy {other:?} is not a portfolio member"
                )),
            }
        }
    }
    errors
}

#[test]
fn random_instances_preserve_every_routing_invariant() {
    let cases = cases();
    let (_, failures) = run_campaign(&CampaignConfig {
        cases,
        base_seed: 0,
        out_dir: None,
    });
    let mut errors: Vec<String> = failures
        .iter()
        .map(|f| {
            let i = &f.instance;
            format!(
                "seed {} ({} AODs, arch {}) shrunk to {} of {} gates: {:?}\n  {:?}",
                i.seed,
                i.num_aods,
                i.arch.name(),
                i.ops.len(),
                CorpusInstance::generate(i.seed).ops.len(),
                f.violations,
                i.ops
            )
        })
        .collect();
    let seeds: Vec<u64> = (0..cases).collect();
    for seed_errors in ThreadPool::from_env().par_map(seeds, worker_count_and_selection_errors) {
        errors.extend(seed_errors);
    }
    assert!(errors.is_empty(), "{}", errors.join("\n"));
}

#[test]
fn auto_matches_the_per_cell_best_on_the_fig7_grid() {
    // On every gated fig7 cell (5 instances x 2-4 AODs) the compiled
    // programs are lint-clean; its fidelity-dominance rule is the check
    // that the portfolio auto-tuner never moves slower than the best
    // portfolio member.
    use powermove_suite::benchmarks::generate;
    for (family, n) in powermove_bench::fig7_cases() {
        for aods in 2..=4_usize {
            let instance = generate(family, n, powermove_bench::DEFAULT_SEED);
            let arch = Architecture::for_qubits(instance.num_qubits).with_num_aods(aods);
            let violations = lint_circuit(&instance.circuit, &arch);
            assert!(
                violations.is_empty(),
                "{}@{aods}aods: {violations:?}",
                instance.name
            );
        }
    }
}

#[test]
fn indexed_free_site_search_matches_the_linear_scan_under_churn() {
    // Tentpole invariant of the spatial free-site index: after arbitrary
    // insert/remove churn on the occupancy arena, the index-pruned
    // best-first search selects the same site as the linear reference scan
    // — under the zero bias, a random nonnegative bias, and a shifted bias
    // with a matching positive admissible `min_bias` bound.
    for seed in 0..cases() {
        let mut rng = StdRng::seed_from_u64(0x51DE_1DE0 ^ seed);
        let num_qubits = rng.gen_range(4..=64_u32);
        let arch = Architecture::for_qubits(num_qubits);
        let mut harness = FreeSiteHarness::new(arch, num_qubits);
        let num_sites = harness.grid().num_sites();

        // Random occupancy churn. Register qubits move through
        // occupy/vacate; plan/unplan entries use virtual ids above the
        // register so the two books never collide, mirroring the planner's
        // transient mid-stage state (site plan-occupied but still vacant).
        let mut planned: Vec<(u32, SiteId)> = Vec::new();
        let mut next_virtual = num_qubits;
        for _ in 0..rng.gen_range(20..=120_usize) {
            match rng.gen_range(0..4_u32) {
                0 => {
                    let site = SiteId::new(rng.gen_range(0..num_sites));
                    if harness.planned_len(site) < 2 {
                        harness.occupy(Qubit::new(rng.gen_range(0..num_qubits)), site);
                    }
                }
                1 => harness.vacate(Qubit::new(rng.gen_range(0..num_qubits))),
                2 => {
                    let site = SiteId::new(rng.gen_range(0..num_sites));
                    if harness.planned_len(site) < 2 {
                        harness.plan(Qubit::new(next_virtual), site);
                        planned.push((next_virtual, site));
                        next_virtual += 1;
                    }
                }
                _ => {
                    if !planned.is_empty() {
                        let at = rng.gen_range(0..planned.len());
                        let (vq, site) = planned.swap_remove(at);
                        harness.unplan(Qubit::new(vq), site);
                    }
                }
            }
        }

        // A deterministic nonnegative per-site bias and an admissible shift.
        let mult = rng.gen_range(1..=u64::MAX / 2) | 1;
        let shift = f64::from(rng.gen_range(0..4_u32)) * 0.25;
        let biased = move |site: SiteId, _pos: Point| -> f64 {
            ((site.index() as u64).wrapping_mul(mult) % 97) as f64 * 1e-3
        };
        let shifted = move |site: SiteId, pos: Point| -> f64 { shift + biased(site, pos) };
        let zero = |_: SiteId, _: Point| 0.0;

        let anchors: Vec<Point> = (0..4)
            .map(|_| {
                if rng.gen_bool(0.5) {
                    let site = SiteId::new(rng.gen_range(0..num_sites));
                    harness.grid().position(site)
                } else {
                    Point::new(rng.gen_range(-5.0..40.0_f64), rng.gen_range(-5.0..40.0_f64))
                }
            })
            .collect();
        let mut agree = |label: &str, min_bias: f64, bias: &dyn Fn(SiteId, Point) -> f64| {
            if let Err(e) = check_free_site_agreement_with(&mut harness, &anchors, min_bias, bias) {
                panic!("{label} bias diverged: seed {seed}: {e}");
            }
        };
        agree("zero", 0.0, &zero);
        agree("nonnegative", 0.0, &biased);
        agree("shifted", shift, &shifted);
        let (scans, _) = harness.counters();
        assert!(scans > 0, "searches should examine at least one site");
    }
}
