//! Quantum circuit intermediate representation for the PowerMove compiler.
//!
//! Neutral-atom compilers such as PowerMove and Enola operate on circuits
//! synthesized into alternating layers of single-qubit (1Q) gates and blocks
//! of mutually commuting CZ gates (Sec. 2.2 of the paper). This crate
//! provides:
//!
//! * the gate-level IR ([`Circuit`], [`Gate`], [`OneQubitGate`], [`CzGate`]),
//! * the block-level IR ([`BlockProgram`], [`CzBlock`], [`OneQubitLayer`])
//!   together with the synthesis pass [`BlockProgram::from_circuit`],
//! * the OpenQASM 2.0 round trip ([`qasm`]).
//!
//! # Example
//!
//! ```
//! use powermove_circuit::{Circuit, Qubit, BlockProgram};
//!
//! # fn main() -> Result<(), powermove_circuit::CircuitError> {
//! let mut circuit = Circuit::new(3);
//! circuit.h(Qubit::new(0))?;
//! circuit.cz(Qubit::new(0), Qubit::new(1))?;
//! circuit.cz(Qubit::new(1), Qubit::new(2))?;
//! let program = BlockProgram::from_circuit(&circuit);
//! assert_eq!(program.cz_blocks().count(), 1);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod analysis;
mod blocks;
mod circuit;
mod error;
mod gate;
pub mod qasm;
mod qubit;

pub use analysis::CircuitStats;
pub use blocks::{BlockProgram, CzBlock, OneQubitLayer, Segment};
pub use circuit::Circuit;
pub use error::CircuitError;
pub use gate::{CzGate, Gate, OneQubitGate};
pub use qubit::Qubit;
