//! The benchmark suite of Table 2.

use crate::{
    bernstein_vazirani, qaoa_random, qaoa_regular, qft, qsim_random, vqe_ansatz,
    EntanglementPattern,
};
use powermove_circuit::Circuit;
use powermove_hardware::Architecture;
use std::fmt;

/// The benchmark families evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BenchmarkFamily {
    /// QAOA on a random 3-regular graph.
    QaoaRegular3,
    /// QAOA on a random 4-regular graph.
    QaoaRegular4,
    /// QAOA with each pair coupled with 50 % probability.
    QaoaRandom,
    /// Quantum Fourier transform.
    Qft,
    /// Bernstein–Vazirani with a balanced secret string.
    Bv,
    /// Hardware-efficient VQE ansatz.
    Vqe,
    /// Random Pauli-string simulation at density 0.3 with ten strings.
    QsimRand,
}

impl BenchmarkFamily {
    /// All families, in the order of Table 2.
    pub const ALL: [BenchmarkFamily; 7] = [
        BenchmarkFamily::QaoaRegular3,
        BenchmarkFamily::QaoaRegular4,
        BenchmarkFamily::QaoaRandom,
        BenchmarkFamily::Qft,
        BenchmarkFamily::Bv,
        BenchmarkFamily::Vqe,
        BenchmarkFamily::QsimRand,
    ];

    /// Parses a family from its display name, case-insensitively.
    ///
    /// This is the inverse of the [`fmt::Display`] rendering and the form
    /// the compile service accepts in request frames:
    ///
    /// ```
    /// use powermove_benchmarks::BenchmarkFamily;
    /// assert_eq!(
    ///     BenchmarkFamily::from_name("qaoa-regular3"),
    ///     Some(BenchmarkFamily::QaoaRegular3)
    /// );
    /// assert_eq!(BenchmarkFamily::from_name("QFT"), Some(BenchmarkFamily::Qft));
    /// assert_eq!(BenchmarkFamily::from_name("nope"), None);
    /// ```
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL
            .into_iter()
            .find(|family| family.to_string().eq_ignore_ascii_case(name))
    }
}

impl fmt::Display for BenchmarkFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            BenchmarkFamily::QaoaRegular3 => "QAOA-regular3",
            BenchmarkFamily::QaoaRegular4 => "QAOA-regular4",
            BenchmarkFamily::QaoaRandom => "QAOA-random",
            BenchmarkFamily::Qft => "QFT",
            BenchmarkFamily::Bv => "BV",
            BenchmarkFamily::Vqe => "VQE",
            BenchmarkFamily::QsimRand => "QSIM-rand-0.3",
        };
        write!(f, "{name}")
    }
}

/// One benchmark instance: a named circuit plus the default hardware
/// configuration the paper derives from its qubit count.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchmarkInstance {
    /// The benchmark family.
    pub family: BenchmarkFamily,
    /// Circuit width.
    pub num_qubits: u32,
    /// Human-readable name, e.g. `"QAOA-regular3-30"`.
    pub name: String,
    /// The generated circuit.
    pub circuit: Circuit,
}

impl BenchmarkInstance {
    /// The default zoned architecture for this instance (single AOD).
    #[must_use]
    pub fn architecture(&self) -> Architecture {
        Architecture::for_qubits(self.num_qubits)
    }
}

/// Why a family/size combination has no benchmark instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GenerateError {
    /// No simple `degree`-regular graph exists on `num_qubits` vertices:
    /// `num_qubits · degree` is odd or `degree >= num_qubits`.
    NoRegularGraph {
        /// Requested vertex (qubit) count.
        num_qubits: u32,
        /// Graph degree of the QAOA family.
        degree: u32,
    },
    /// The family needs more qubits than requested.
    TooFewQubits {
        /// The benchmark family.
        family: BenchmarkFamily,
        /// Requested qubit count.
        num_qubits: u32,
        /// Smallest width the family supports.
        min: u32,
    },
}

impl fmt::Display for GenerateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenerateError::NoRegularGraph { num_qubits, degree } => write!(
                f,
                "no {degree}-regular graph on {num_qubits} vertices \
                 (n*d must be even and d smaller than n)"
            ),
            GenerateError::TooFewQubits {
                family,
                num_qubits,
                min,
            } => write!(f, "{family} needs at least {min} qubits, got {num_qubits}"),
        }
    }
}

impl std::error::Error for GenerateError {}

/// Generates one benchmark instance, or reports why the family/size
/// combination is infeasible.
///
/// # Errors
///
/// Returns [`GenerateError`] for an odd `n·d` or `d >= n` on the regular
/// QAOA families, and for fewer than 2 qubits on BV.
pub fn try_generate(
    family: BenchmarkFamily,
    num_qubits: u32,
    seed: u64,
) -> Result<BenchmarkInstance, GenerateError> {
    let regular = |degree: u32| {
        if degree >= num_qubits || u64::from(num_qubits) * u64::from(degree) % 2 == 1 {
            Err(GenerateError::NoRegularGraph { num_qubits, degree })
        } else {
            Ok(qaoa_regular(num_qubits, degree, seed))
        }
    };
    let circuit = match family {
        BenchmarkFamily::QaoaRegular3 => regular(3)?,
        BenchmarkFamily::QaoaRegular4 => regular(4)?,
        BenchmarkFamily::QaoaRandom => qaoa_random(num_qubits, seed),
        BenchmarkFamily::Qft => qft(num_qubits),
        BenchmarkFamily::Bv if num_qubits < 2 => {
            return Err(GenerateError::TooFewQubits {
                family,
                num_qubits,
                min: 2,
            })
        }
        BenchmarkFamily::Bv => bernstein_vazirani(num_qubits, seed),
        BenchmarkFamily::Vqe => vqe_ansatz(num_qubits, 1, EntanglementPattern::Linear, seed),
        BenchmarkFamily::QsimRand => qsim_random(num_qubits, 10, 0.3, seed),
    };
    Ok(BenchmarkInstance {
        family,
        num_qubits,
        name: format!("{family}-{num_qubits}"),
        circuit,
    })
}

/// Generates one benchmark instance.
///
/// # Panics
///
/// Panics if the family/size combination is infeasible (see
/// [`try_generate`]).
#[must_use]
pub fn generate(family: BenchmarkFamily, num_qubits: u32, seed: u64) -> BenchmarkInstance {
    try_generate(family, num_qubits, seed).expect("infeasible benchmark instance")
}

/// The `(family, qubit-count)` pairs of Table 2, in table order.
#[must_use]
pub fn table2_sizes() -> Vec<(BenchmarkFamily, u32)> {
    use BenchmarkFamily::*;
    vec![
        (QaoaRegular3, 30),
        (QaoaRegular3, 40),
        (QaoaRegular3, 50),
        (QaoaRegular3, 60),
        (QaoaRegular3, 80),
        (QaoaRegular3, 100),
        (QaoaRegular4, 30),
        (QaoaRegular4, 40),
        (QaoaRegular4, 50),
        (QaoaRegular4, 60),
        (QaoaRegular4, 80),
        (QaoaRandom, 20),
        (QaoaRandom, 30),
        (Qft, 18),
        (Qft, 29),
        (Bv, 14),
        (Bv, 50),
        (Bv, 70),
        (Vqe, 30),
        (Vqe, 50),
        (QsimRand, 10),
        (QsimRand, 20),
        (QsimRand, 40),
    ]
}

/// Generates every benchmark instance of Table 2 with the given seed.
#[must_use]
pub fn table2_suite(seed: u64) -> Vec<BenchmarkInstance> {
    table2_sizes()
        .into_iter()
        .map(|(family, n)| generate(family, n, seed))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use powermove_hardware::Zone;

    #[test]
    fn table2_has_23_instances() {
        let suite = table2_suite(1);
        assert_eq!(suite.len(), 23);
        assert_eq!(table2_sizes().len(), 23);
    }

    #[test]
    fn try_generate_rejects_infeasible_sizes() {
        for (family, n, degree) in [
            (BenchmarkFamily::QaoaRegular3, 7, 3),
            (BenchmarkFamily::QaoaRegular3, 3, 3),
            (BenchmarkFamily::QaoaRegular4, 4, 4),
        ] {
            assert_eq!(
                try_generate(family, n, 1),
                Err(GenerateError::NoRegularGraph {
                    num_qubits: n,
                    degree
                })
            );
        }
        let err = try_generate(BenchmarkFamily::Bv, 1, 1).unwrap_err();
        assert!(err.to_string().contains("at least 2"));
        let ok = try_generate(BenchmarkFamily::QaoaRegular3, 8, 1).unwrap();
        assert_eq!(ok, generate(BenchmarkFamily::QaoaRegular3, 8, 1));
    }

    #[test]
    fn instance_names_match_family_and_size() {
        let inst = generate(BenchmarkFamily::Bv, 14, 0);
        assert_eq!(inst.name, "BV-14");
        assert_eq!(inst.circuit.num_qubits(), 14);
    }

    #[test]
    fn architectures_match_table_2_zone_sizes() {
        // Spot-check a few rows of Table 2.
        let cases = [
            (30_u32, (90.0, 90.0), (90.0, 180.0)),
            (50, (120.0, 120.0), (120.0, 240.0)),
            (100, (150.0, 150.0), (150.0, 300.0)),
        ];
        for (n, compute, storage) in cases {
            let inst = generate(BenchmarkFamily::QaoaRegular3, n, 0);
            let arch = inst.architecture();
            assert_eq!(arch.grid().zone_size_um(Zone::Compute), compute);
            assert_eq!(arch.grid().zone_size_um(Zone::Storage), storage);
            assert_eq!(arch.grid().inter_zone_size_um().1, 30.0);
        }
    }

    #[test]
    fn every_family_generates_nonempty_circuits() {
        for family in BenchmarkFamily::ALL {
            let n = match family {
                BenchmarkFamily::Qft => 8,
                _ => 10,
            };
            let inst = generate(family, n, 3);
            assert!(inst.circuit.cz_count() > 0, "{family} has no CZ gates");
        }
    }

    #[test]
    fn suite_is_deterministic() {
        let a = table2_suite(5);
        let b = table2_suite(5);
        assert_eq!(a, b);
    }

    #[test]
    fn family_display_names() {
        assert_eq!(BenchmarkFamily::QsimRand.to_string(), "QSIM-rand-0.3");
        assert_eq!(BenchmarkFamily::QaoaRegular3.to_string(), "QAOA-regular3");
    }
}
