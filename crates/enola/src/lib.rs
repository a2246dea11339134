//! An Enola-style baseline compiler for neutral-atom quantum computers.
//!
//! Enola (Tan, Lin and Cong, 2024) is the state-of-the-art baseline the
//! PowerMove paper compares against (Sec. 3.1). This crate reimplements its
//! algorithmic structure from the paper's description:
//!
//! * **gate scheduling** by repeatedly extracting (near-)maximum independent
//!   sets of compatible CZ gates from the conflict graph of each commuting
//!   block ([`GateConflictGraph`]) — a branch-and-bound solver with a node
//!   budget stands in for the external MIS solvers the original uses
//!   ([`partition_stages_mis`]);
//! * **qubit allocation** on a fixed row-major initial layout in the
//!   computation zone;
//! * **qubit movement** that, for every stage, brings one qubit of each CZ
//!   pair to its partner's initial site, executes the global Rydberg
//!   excitation, and then *reverts every moved qubit to the initial layout*
//!   before the next stage (the behaviour PowerMove's continuous router
//!   eliminates, Fig. 3 of the paper);
//! * no storage-zone integration: every qubit remains in the computation
//!   zone and is exposed to every Rydberg excitation.
//!
//! The output is the same [`CompiledProgram`](powermove_schedule::CompiledProgram)
//! representation used by PowerMove, so both compilers are validated, timed
//! and scored by exactly the same machinery. [`EnolaCompiler`] implements
//! the [`CompilerBackend`](powermove::CompilerBackend) trait, so the
//! experiment harness drives it through the same backend registry as
//! PowerMove itself.
//!
//! # Example
//!
//! ```
//! use enola_baseline::{EnolaCompiler, EnolaConfig};
//! use powermove_circuit::{Circuit, Qubit};
//! use powermove_hardware::Architecture;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mut circuit = Circuit::new(4);
//! circuit.cz(Qubit::new(0), Qubit::new(1))?;
//! circuit.cz(Qubit::new(1), Qubit::new(2))?;
//! let program = EnolaCompiler::new(EnolaConfig::default())
//!     .compile(&circuit, &Architecture::for_qubits(4))?;
//! assert_eq!(program.cz_gate_count(), 2);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod compiler;
mod graph;
mod mis;
mod router;

pub use compiler::{EnolaCompiler, EnolaConfig};
pub use graph::GateConflictGraph;
pub use mis::{maximum_independent_set, partition_stages_mis};
pub use router::RevertRouter;
