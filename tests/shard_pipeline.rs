//! Workspace-level contract of the gated benchmark suite:
//!
//! * the standard groups are a **disjoint exact cover** of the full gated
//!   suite — every cell is gated exactly once, in one `bench-gate` run;
//! * the checked-in `bench/baseline.json` records exactly those cells, each
//!   labelled with the group that gates it;
//! * repeat-run sampling collects one wall-clock sample per repeat while
//!   deterministic metrics stay single-run.

use powermove_bench::{
    run_instance, run_instance_sampled, BackendRegistry, Baseline, ShardRegistry, SuiteShard,
    DEFAULT_SEED, ENOLA, POWERMOVE_AUTO, POWERMOVE_MULTI_AOD, POWERMOVE_NON_STORAGE,
    POWERMOVE_STORAGE,
};
use powermove_suite::benchmarks::{generate, table2_suite, BenchmarkFamily};
use std::collections::BTreeSet;
use std::path::Path;

#[test]
fn standard_shards_are_a_disjoint_exact_cover_of_the_gated_suite() {
    let shards = ShardRegistry::standard(DEFAULT_SEED);

    // Disjoint: no (compiler, benchmark) cell appears in two groups.
    let mut seen: BTreeSet<(String, String)> = BTreeSet::new();
    for shard in shards.iter() {
        for cell in shard.cell_ids() {
            assert!(
                seen.insert(cell.clone()),
                "cell {cell:?} is gated by more than one shard"
            );
        }
    }

    // Exact cover: the union is precisely Table 2 under the three standard
    // backends plus the portfolio auto-tuner (whose stage-once replay
    // compile clock the table2 group gates), plus the Fig. 6 sweep extras
    // under the three standard backends, plus the Fig. 7 multi-AOD grid
    // under the greedy with-storage, multi-AOD scheduler and portfolio
    // auto-tuner backends.
    let standard = [ENOLA, POWERMOVE_NON_STORAGE, POWERMOVE_STORAGE];
    let table2_backends = [
        ENOLA,
        POWERMOVE_NON_STORAGE,
        POWERMOVE_STORAGE,
        POWERMOVE_AUTO,
    ];
    let mut expected: BTreeSet<(String, String)> = BTreeSet::new();
    let table2_names: Vec<String> = table2_suite(DEFAULT_SEED)
        .into_iter()
        .map(|i| i.name)
        .collect();
    for name in &table2_names {
        for backend in table2_backends {
            expected.insert((backend.to_string(), name.clone()));
        }
    }
    for (family, sizes) in powermove_bench::fig6_sweeps() {
        for n in sizes {
            let name = generate(family, n, DEFAULT_SEED).name;
            if table2_names.contains(&name) {
                continue;
            }
            for backend in standard {
                expected.insert((backend.to_string(), name.clone()));
            }
        }
    }
    for (family, n) in powermove_bench::fig7_cases() {
        let base = generate(family, n, DEFAULT_SEED).name;
        for aods in 2..=4 {
            for backend in [POWERMOVE_STORAGE, POWERMOVE_MULTI_AOD, POWERMOVE_AUTO] {
                expected.insert((backend.to_string(), format!("{base}@aods{aods}")));
            }
        }
    }
    for cell in powermove_bench::lint_corpus_cells(DEFAULT_SEED) {
        for backend in [POWERMOVE_STORAGE, POWERMOVE_MULTI_AOD, POWERMOVE_AUTO] {
            expected.insert((backend.to_string(), cell.instance.name.clone()));
        }
    }
    assert_eq!(seen, expected, "shard union drifted from the gated suite");
}

#[test]
fn the_checked_in_baseline_labels_each_cell_with_the_group_that_gates_it() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("bench/baseline.json");
    let baseline = Baseline::load(&path).expect("bench/baseline.json parses");
    let groups = ShardRegistry::standard(DEFAULT_SEED);
    for entry in &baseline.entries {
        let group = groups
            .shard_of_cell(&entry.compiler, &entry.benchmark)
            .unwrap_or_else(|| {
                panic!(
                    "baseline cell {} {} is gated by no group",
                    entry.compiler, entry.benchmark
                )
            });
        assert_eq!(
            entry.shard,
            group.name(),
            "{} {} carries a stale group label",
            entry.compiler,
            entry.benchmark
        );
    }
    let recorded: BTreeSet<(String, String)> = baseline
        .entries
        .iter()
        .map(|e| (e.compiler.clone(), e.benchmark.clone()))
        .collect();
    assert_eq!(recorded.len(), baseline.entries.len(), "duplicate cells");
    let gated: BTreeSet<(String, String)> = groups.iter().flat_map(SuiteShard::cell_ids).collect();
    assert_eq!(
        recorded, gated,
        "baseline cells drifted from the gated suite"
    );
}

#[test]
fn group_cells_run_in_suite_order_and_carry_their_key_suffixes() {
    let shards = ShardRegistry::standard(DEFAULT_SEED);
    let table2: Vec<String> = shards
        .get("table2")
        .unwrap()
        .cells()
        .iter()
        .map(|c| c.instance.name.clone())
        .collect();
    let suite: Vec<String> = table2_suite(DEFAULT_SEED)
        .into_iter()
        .map(|i| i.name)
        .collect();
    assert_eq!(table2, suite, "Table 2 runs as one group, in suite order");
    // Multi-AOD cells are keyed uniquely via the @aods suffix.
    let fig7 = shards.get("fig7/multi-aod").unwrap();
    assert!(fig7
        .cells()
        .iter()
        .all(|c| c.instance.name.ends_with(&format!("@aods{}", c.num_aods))));
    // Heterogeneous-architecture cells additionally carry the @arch suffix,
    // compile off the default geometry, and still satisfy zone capacity.
    let lint = shards.get("lint/corpus").unwrap();
    assert!(!lint.cells().is_empty());
    for c in lint.cells() {
        assert_ne!(c.arch, powermove_bench::ArchVariant::Standard);
        assert!(c
            .instance
            .name
            .ends_with(&format!("@aods{}@arch:{}", c.num_aods, c.arch.name())));
        c.architecture()
            .check_capacity(c.instance.num_qubits)
            .expect("lint/corpus variants keep both zones large enough");
    }
}

#[test]
fn repeat_runs_sample_the_wall_clock_but_not_the_deterministic_metrics() {
    let registry = BackendRegistry::standard();
    let entry = registry.entry(POWERMOVE_STORAGE).unwrap();
    let instance = generate(BenchmarkFamily::Bv, 10, DEFAULT_SEED);
    let sampled = run_instance_sampled(&instance, 1, entry, 3);
    assert_eq!(sampled.compile_time_samples.len(), 3);
    let mut sorted = sampled.compile_time_samples.clone();
    sorted.sort_by(f64::total_cmp);
    assert_eq!(sampled.compile_time_s, sorted[1], "median of three samples");

    let single = run_instance(&instance, 1, entry);
    assert_eq!(single.compile_time_samples.len(), 1);
    assert_eq!(sampled.fidelity, single.fidelity);
    assert_eq!(sampled.execution_time_us, single.execution_time_us);
    assert_eq!(sampled.stages, single.stages);
    assert_eq!(sampled.transfers, single.transfers);
    assert_eq!(sampled.cz_gates, single.cz_gates);

    // Zero repeats degrades to one sample rather than panicking.
    let clamped = run_instance_sampled(&instance, 1, entry, 0);
    assert_eq!(clamped.compile_time_samples.len(), 1);
}
