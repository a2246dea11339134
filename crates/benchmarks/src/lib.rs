//! Benchmark circuit generators from the PowerMove evaluation (Sec. 7.1).
//!
//! The paper evaluates on QAOA (3-regular, 4-regular and random graphs),
//! quantum simulation of random Pauli strings (QSim), the quantum Fourier
//! transform (QFT), Bernstein–Vazirani (BV) and a hardware-efficient VQE
//! ansatz. Every generator is deterministic given a seed, so experiments are
//! reproducible.
//!
//! [`table2_suite`] reproduces the exact benchmark instances of Table 2,
//! each paired with the hardware configuration the paper derives from the
//! qubit count (`ceil(sqrt(n))` grid, 15 µm spacing, 30 µm zone gap).
//!
//! # Example
//!
//! ```
//! use powermove_benchmarks::{generate, BenchmarkFamily};
//!
//! let instance = generate(BenchmarkFamily::QaoaRegular3, 30, 7);
//! assert_eq!(instance.num_qubits, 30);
//! // A 3-regular graph on 30 vertices has 45 edges, one CZ each.
//! assert_eq!(instance.circuit.cz_count(), 45);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod bv;
mod graphs;
mod qaoa;
mod qft;
mod qsim;
mod suite;
mod vqe;

pub use bv::bernstein_vazirani;
pub use graphs::{random_edges, random_regular_graph};
pub use qaoa::{qaoa_random, qaoa_regular};
pub use qft::qft;
pub use qsim::qsim_random;
pub use suite::{
    generate, table2_sizes, table2_suite, try_generate, BenchmarkFamily, BenchmarkInstance,
    GenerateError,
};
pub use vqe::{vqe_ansatz, EntanglementPattern};
