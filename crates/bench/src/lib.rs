//! Experiment harness for the PowerMove reproduction.
//!
//! This crate regenerates every table and figure of the paper's evaluation
//! (Sec. 7) from the reimplemented compilers:
//!
//! * `table1` — hardware parameters (Table 1);
//! * `table2` — benchmark instances and zone sizes (Table 2);
//! * `table3` — fidelity, execution time and compilation time of Enola vs
//!   PowerMove in the non-storage and with-storage configurations (Table 3);
//! * `fig6` — fidelity-factor breakdown versus qubit count for five
//!   benchmark families under the three compilers (Fig. 6);
//! * `fig7` — execution time and fidelity versus the number of AOD arrays
//!   (Fig. 7).
//!
//! Each binary prints a plain-text table and accepts a `--json <path>` flag
//! that serializes the underlying result structs, so results can be compared
//! against the numbers reported in the paper and recorded as trajectories.
//!
//! Compilers are dispatched through the open [`BackendRegistry`]: every
//! entry is a [`CompilerBackend`](powermove::CompilerBackend) trait object,
//! so additional strategies (ablations, new routers) can be registered
//! without modifying any experiment binary.
//!
//! The backend × suite matrix behind every binary fans out over the
//! `powermove-exec` thread pool ([`run_matrix`], [`run_all`],
//! [`table3_rows`]); set `POWERMOVE_THREADS` to pin the worker count.
//!
//! A seventh binary, `bench-gate`, runs the whole gated suite in one run
//! and compares the results against the checked-in `bench/baseline.json`
//! (see the [`gate`] module), exiting non-zero on regression:
//!
//! * **groups** ([`harness::ShardRegistry`]) — the gated suite is a list of
//!   labelled cell groups (`table2`, `fig6/sweep`, `fig7/multi-aod`,
//!   `lint/corpus`), one per backend list; together they cover every gated
//!   cell exactly once, and each baseline entry carries its group's label;
//! * **statistics** ([`stats::SampleStats`]) — wall-clock metrics are
//!   sampled over repeat runs (`--repeats`, default 3) and gated on a
//!   median-vs-confidence-interval comparison instead of a 4× slack.

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

pub mod gate;
pub mod harness;
pub mod lint;
pub mod stats;

pub use gate::{
    compare, Baseline, BaselineEntry, GateError, GateReport, GateTolerance, MetricCheck, Verdict,
    BASELINE_VERSION,
};
pub use harness::{
    fig6_sweeps, fig7_cases, lint_corpus_cells, run_all, run_instance, run_instance_sampled,
    run_matrix, run_shard, score_program_sampled, service_smoke_cells, table3_rows,
    table3_rows_sampled, take_f64_flag, take_flag, take_json_path, take_switch, take_usize_flag,
    write_json, ArchVariant, BackendRegistry, RegisteredBackend, RunResult, ShardCell,
    ShardRegistry, SuiteShard, Table3Row, DEFAULT_SEED, ENOLA, POWERMOVE_AUTO, POWERMOVE_LOOKAHEAD,
    POWERMOVE_MULTI_AOD, POWERMOVE_NON_STORAGE, POWERMOVE_STORAGE,
};
pub use lint::{
    lint_circuit, lint_service_log, replay_reproducer, run_campaign, CampaignConfig,
    CampaignFailure, CampaignSummary, CorpusInstance, CorpusOp, JsonlReport, LintRule,
    LintViolation, ReproducerConfig,
};
pub use stats::{SampleStats, DEFAULT_REPEATS};
