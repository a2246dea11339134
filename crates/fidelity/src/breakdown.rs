//! Per-factor fidelity breakdown.

use serde::Serialize;
use std::fmt;

/// The five multiplicative factors of the output fidelity (Eq. 1).
///
/// Each field is a fidelity in `[0, 1]`; the product of all five is the
/// estimated output fidelity of the program. Fig. 6 of the paper plots the
/// infidelity contribution of the last four factors.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct FidelityBreakdown {
    /// `f1^g1`: single-qubit gate factor.
    pub one_qubit: f64,
    /// `f2^g2`: two-qubit (CZ) gate factor.
    pub two_qubit: f64,
    /// `f_exc^(Σ n_i)`: excitation-error factor for non-interacting qubits
    /// left in the computation zone during Rydberg excitations.
    pub excitation: f64,
    /// `f_trans^N_trans`: SLM↔AOD transfer factor.
    pub transfer: f64,
    /// `Π_q (1 − T_q/T2)`: decoherence factor from idle time outside the
    /// storage zone.
    pub decoherence: f64,
}

impl FidelityBreakdown {
    /// Product of all five factors.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.one_qubit * self.two_qubit * self.excitation * self.transfer * self.decoherence
    }

    /// Product of all factors except the single-qubit factor.
    ///
    /// The paper omits the 1Q term in fidelity comparisons because 1Q layers
    /// are executed identically by every compiler (Sec. 2.2).
    #[must_use]
    pub fn total_excluding_one_qubit(&self) -> f64 {
        self.two_qubit * self.excitation * self.transfer * self.decoherence
    }
}

/// A breakdown with every factor equal to 1 (perfect fidelity).
impl Default for FidelityBreakdown {
    fn default() -> Self {
        FidelityBreakdown {
            one_qubit: 1.0,
            two_qubit: 1.0,
            excitation: 1.0,
            transfer: 1.0,
            decoherence: 1.0,
        }
    }
}

impl fmt::Display for FidelityBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fidelity {:.4e} (1q {:.4}, 2q {:.4}, exc {:.4}, trans {:.4}, deco {:.4})",
            self.total(),
            self.one_qubit,
            self.two_qubit,
            self.excitation,
            self.transfer,
            self.decoherence
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_breakdown_has_total_one() {
        let b = FidelityBreakdown::default();
        assert_eq!(b.total(), 1.0);
        assert_eq!(b.total_excluding_one_qubit(), 1.0);
    }

    #[test]
    fn total_is_product_of_factors() {
        let b = FidelityBreakdown {
            one_qubit: 0.9,
            two_qubit: 0.8,
            excitation: 0.7,
            transfer: 0.6,
            decoherence: 0.5,
        };
        assert!((b.total() - 0.9 * 0.8 * 0.7 * 0.6 * 0.5).abs() < 1e-12);
        assert!((b.total_excluding_one_qubit() - 0.8 * 0.7 * 0.6 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn display_contains_total() {
        let b = FidelityBreakdown::default();
        assert!(b.to_string().contains("fidelity"));
    }
}
