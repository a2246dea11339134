//! Low-level schedule representation for neutral-atom programs.
//!
//! Compilers (PowerMove and the Enola baseline) lower a circuit into a
//! [`CompiledProgram`]: a sequence of hardware-level [`Instruction`]s over an
//! [`Architecture`](powermove_hardware::Architecture) —
//! parallel single-qubit layers, collective qubit movements executed by one
//! or more AOD arrays, and global Rydberg excitations that realize a stage of
//! CZ gates.
//!
//! The crate also provides:
//!
//! * [`Layout`]: the mapping from logical qubits to trap sites, with
//!   occupancy tracking;
//! * [`simulate`]: an execution-trace simulator that replays a program,
//!   validates it against the hardware rules (AOD order constraints,
//!   Rydberg-radius pairing, no clustering) and accumulates the quantities
//!   needed by the fidelity model of Eq. (1) — execution time, per-qubit
//!   idle/storage time, transfer counts and excitation exposure;
//! * [`validate`]: validation without trace accumulation;
//! * [`check`]: the program-level schedule invariants (CZ preservation,
//!   per-AOD batch validity, no intra-AOD window overlap, storage-bound
//!   windows before interaction windows), one implementation each, shared
//!   by the schedule linter and the test suite;
//! * [`canonical_json`] / [`canonical_program_bytes`] / [`program_digest`]:
//!   deterministic serialized forms used for content hashing (the compile
//!   service's schedule cache) and byte-identity checks (the determinism
//!   tests); [`write_canonical_json`] streams the same text into a sink
//!   such as the [`Fnv1a`] hasher.
//!
//! # Example
//!
//! ```
//! use powermove_circuit::Qubit;
//! use powermove_hardware::{Architecture, Zone};
//! use powermove_schedule::{CompiledProgram, Instruction, Layout};
//!
//! let arch = Architecture::for_qubits(4);
//! let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
//! let program = CompiledProgram::new(arch, 4, layout, vec![Instruction::rydberg(vec![])]);
//! let trace = powermove_schedule::simulate(&program).unwrap();
//! assert_eq!(trace.rydberg_stage_count, 1);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod canonical;
pub mod check;
mod error;
mod instruction;
mod layout;
mod program;
mod timing;
mod trace;
mod validate;

pub use canonical::{
    canonical_json, canonical_program_bytes, fnv1a_64, program_digest, write_canonical_json, Fnv1a,
};
pub use error::ScheduleError;
pub use instruction::{CollMove, Instruction, SiteMove};
pub use layout::Layout;
pub use program::{CompileMetadata, CompiledProgram, PassCounter, PassTiming};
pub use timing::{instruction_duration, move_group_duration, movement_wall_clock, MovementClock};
pub use trace::{simulate, ExecutionTrace};
pub use validate::validate;
