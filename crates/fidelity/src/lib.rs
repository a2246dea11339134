//! Fidelity model for compiled neutral-atom programs.
//!
//! Implements Eq. (1) of the PowerMove paper:
//!
//! ```text
//! f_output = f1^g1 · f2^g2 · f_exc^(Σ_i n_i) · f_trans^N_trans · Π_q (1 − T_q / T2)
//! ```
//!
//! where `g1`/`g2` are the single- and two-qubit gate counts, `Σ n_i` is the
//! total number of non-interacting qubits exposed to Rydberg excitations,
//! `N_trans` is the number of SLM↔AOD transfers and `T_q` is the idle time of
//! qubit `q` outside the storage zone.
//!
//! The per-factor [`FidelityBreakdown`] is what Fig. 6 of the paper plots;
//! [`evaluate_program`] couples the model to the schedule simulator so a
//! single call produces both the execution trace and the fidelity estimate.
//!
//! # Example
//!
//! ```
//! use powermove_hardware::{Architecture, Zone};
//! use powermove_schedule::{CompiledProgram, Layout};
//! use powermove_fidelity::evaluate_program;
//!
//! let arch = Architecture::for_qubits(4);
//! let layout = Layout::row_major(&arch, 4, Zone::Compute).unwrap();
//! let program = CompiledProgram::new(arch, 4, layout, vec![]);
//! let report = evaluate_program(&program).unwrap();
//! assert_eq!(report.breakdown.total(), 1.0);
//! ```

#![deny(missing_docs)]
#![deny(rustdoc::broken_intra_doc_links)]

mod breakdown;
mod model;

pub use breakdown::FidelityBreakdown;
pub use model::{evaluate_program, evaluate_trace, FidelityReport};
