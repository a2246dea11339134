//! The PowerMove compiler for zoned neutral-atom quantum computers.
//!
//! PowerMove (ASPLOS 2025) lowers a quantum circuit onto a neutral-atom
//! machine with a computation zone and a storage zone, exploiting the
//! interplay between gate scheduling, qubit allocation, qubit movement and
//! the zoned architecture. The compiler has three components, mirroring the
//! paper:
//!
//! * the **stage scheduler** (Sec. 4): partitions each commuting CZ block
//!   into Rydberg stages via optimized edge colouring
//!   ([`partition_stages`]) and orders the stages to minimize inter-zone
//!   qubit interchange ([`schedule_stages`]);
//! * the **routing subsystem** ([`routing`]): a pluggable
//!   [`RoutingStrategy`] decides the single-qubit movements that transition
//!   the current layout *directly* into the next stage's layout — no
//!   reversion to an initial layout — and groups them into AOD-compatible
//!   collective moves ([`RoutingState`], [`group_moves`]). Built-ins:
//!   the paper's [`GreedyRouter`] (Sec. 5), a [`LookaheadRouter`] scoring
//!   sites against upcoming stages, and a [`MultiAodScheduler`] that
//!   balances move windows across the machine's AOD arrays — plus an
//!   auto-tuning layer ([`AutoRouter`]) that selects the winning strategy
//!   per instance by replaying the whole portfolio;
//! * the **coll-move scheduler** (Sec. 6): orders collective moves to
//!   maximize storage-zone dwell time and packs them onto multiple AOD
//!   arrays ([`order_coll_moves`], [`pack_move_groups`],
//!   [`pack_move_groups_balanced`]).
//!
//! [`PowerMoveCompiler`] ties the components together as an explicit pass
//! pipeline ([`pipeline`]: [`SynthesisPass`] → [`StagePass`] → [`RoutePass`]
//! → [`MovePass`] → emission) and produces a
//! [`CompiledProgram`](powermove_schedule::CompiledProgram) that can be
//! validated, timed and scored by `powermove-schedule` / `powermove-fidelity`.
//! The [`CompilerBackend`] trait is the open entry point through which the
//! experiment harness drives this compiler, the Enola baseline and any
//! future strategy uniformly.
//!
//! Compilation is a pure function of the immutable `(circuit, architecture,
//! config)` triple — the free function [`compile`] is the canonical entry
//! point. The pipeline is split into a front end
//! ([`PowerMoveCompiler::stage`], producing a frozen [`StagedIr`]) and a
//! back end ([`PowerMoveCompiler::emit`]), and [`content_hash`] derives a
//! deterministic cache key from the input triple; together these are the
//! foundation of the `powermove-service` compile daemon and its
//! content-addressed schedule cache.
//!
//! # Example
//!
//! ```
//! use powermove::{CompilerConfig, PowerMoveCompiler};
//! use powermove_circuit::{Circuit, Qubit};
//! use powermove_hardware::Architecture;
//! use powermove_fidelity::evaluate_program;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new(4);
//! circuit.h(Qubit::new(0))?;
//! circuit.cz(Qubit::new(0), Qubit::new(1))?;
//! circuit.cz(Qubit::new(2), Qubit::new(3))?;
//!
//! let arch = Architecture::for_qubits(4);
//! let compiler = PowerMoveCompiler::new(CompilerConfig::default());
//! let program = compiler.compile(&circuit, &arch)?;
//! let report = evaluate_program(&program)?;
//! assert!(report.fidelity() > 0.9);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod collmove;
mod compiler;
mod config;
mod content;
mod error;
mod grouping;
pub mod pipeline;
pub mod routing;
mod stage_partition;
mod stage_schedule;

pub use collmove::{order_coll_moves, pack_move_groups, pack_move_groups_balanced};
pub use compiler::{compile, PowerMoveCompiler, Replay, RoutingSession, StagedIr};
pub use config::{AodAssignment, CompilerConfig, RoutingConfig, RoutingStrategyKind};
pub use content::{content_hash, stage_hash, ContentHash};
pub use error::CompileError;
pub use grouping::{group_moves, MoveScratch};
pub use pipeline::{
    CompileContext, CompilerBackend, MovePass, RoutePass, RoutedProgram, RoutedSegment,
    RoutedStage, StagePass, StagedProgram, StagedSegment, SynthesisPass,
};
pub use routing::{
    greedy_move_schedule, movement_wall_clock, Attractors, AutoRouter, BiasFn, FreeSiteHarness,
    GreedyRouter, LookaheadRouter, MultiAodScheduler, RoutingState, RoutingStrategy, SitePolicy,
    StageRouting, ZeroBias, SITES_PRUNED, SITE_SCANS,
};
pub use stage_partition::{partition_stages, Stage};
pub use stage_schedule::schedule_stages;
