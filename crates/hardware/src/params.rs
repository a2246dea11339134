//! Physical operation parameters (Table 1 of the paper).

use serde::Serialize;

/// Fidelities and durations of the elementary neutral-atom operations,
/// together with the geometric constants of the zoned architecture.
///
/// All durations are in **seconds**, distances in **meters** and
/// accelerations in **m/s²**. Defaults reproduce Table 1 of the paper plus
/// the geometric constants quoted in Sec. 2.1 and Sec. 5.1.
///
/// # Example
///
/// ```
/// use powermove_hardware::PhysicalParams;
///
/// let p = PhysicalParams::default();
/// assert_eq!(p.cz_fidelity, 0.995);
/// assert_eq!(p.site_spacing, 15e-6);
/// // 27.5 um at the maximum acceleration takes 100 us.
/// let t = (27.5e-6_f64 / p.max_acceleration).sqrt();
/// assert!((t - 100e-6).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct PhysicalParams {
    /// Fidelity of a single-qubit (Raman) gate. Paper: 99.99 %.
    pub one_qubit_fidelity: f64,
    /// Fidelity of a CZ gate. Paper: 99.5 %.
    pub cz_fidelity: f64,
    /// Fidelity retained by a *non-interacting* qubit exposed to a Rydberg
    /// excitation in the computation zone. Paper: 99.75 %.
    pub excitation_fidelity: f64,
    /// Fidelity of one SLM <-> AOD trap transfer. Paper: 99.9 %.
    pub transfer_fidelity: f64,
    /// Duration of a single-qubit gate. Paper: 1 µs.
    pub one_qubit_duration: f64,
    /// Duration of a CZ gate / global Rydberg excitation. Paper: 270 ns.
    pub cz_duration: f64,
    /// Duration of one SLM <-> AOD trap transfer. Paper: 15 µs.
    pub transfer_duration: f64,
    /// Qubit coherence time T2. Paper: 1.5 s.
    pub coherence_time: f64,
    /// Maximum movement acceleration preserving fidelity. Paper: 2750 m/s².
    pub max_acceleration: f64,
    /// Spacing between adjacent qubit sites. Paper: 15 µm.
    pub site_spacing: f64,
    /// Spatial separation between the computation and storage zones.
    /// Paper: 30 µm.
    pub zone_gap: f64,
    /// Rydberg blockade radius within which a CZ interaction occurs.
    /// Paper: ~6 µm.
    pub rydberg_radius: f64,
    /// Minimum spacing required between non-interacting qubits during a
    /// Rydberg excitation to avoid unwanted interactions. Paper: 10 µm.
    pub min_separation: f64,
}

impl Default for PhysicalParams {
    fn default() -> Self {
        PhysicalParams {
            one_qubit_fidelity: 0.9999,
            cz_fidelity: 0.995,
            excitation_fidelity: 0.9975,
            transfer_fidelity: 0.999,
            one_qubit_duration: 1e-6,
            cz_duration: 270e-9,
            transfer_duration: 15e-6,
            coherence_time: 1.5,
            max_acceleration: 2750.0,
            site_spacing: 15e-6,
            zone_gap: 30e-6,
            rydberg_radius: 6e-6,
            min_separation: 10e-6,
        }
    }
}

impl PhysicalParams {
    /// Creates the default parameter set of Table 1.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` if every fidelity lies in `(0, 1]`, every duration and
    /// distance is positive, and the coherence time is positive.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        let fidelities = [
            self.one_qubit_fidelity,
            self.cz_fidelity,
            self.excitation_fidelity,
            self.transfer_fidelity,
        ];
        let positives = [
            self.one_qubit_duration,
            self.cz_duration,
            self.transfer_duration,
            self.coherence_time,
            self.max_acceleration,
            self.site_spacing,
            self.zone_gap,
            self.rydberg_radius,
            self.min_separation,
        ];
        fidelities.iter().all(|f| *f > 0.0 && *f <= 1.0)
            && positives.iter().all(|d| *d > 0.0 && d.is_finite())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_table_1() {
        let p = PhysicalParams::default();
        assert_eq!(p.one_qubit_fidelity, 0.9999);
        assert_eq!(p.cz_fidelity, 0.995);
        assert_eq!(p.excitation_fidelity, 0.9975);
        assert_eq!(p.transfer_fidelity, 0.999);
        assert_eq!(p.one_qubit_duration, 1e-6);
        assert_eq!(p.cz_duration, 270e-9);
        assert_eq!(p.transfer_duration, 15e-6);
        assert_eq!(p.coherence_time, 1.5);
        assert_eq!(p.max_acceleration, 2750.0);
    }

    #[test]
    fn geometric_constants_match_paper() {
        let p = PhysicalParams::default();
        assert_eq!(p.site_spacing, 15e-6);
        assert_eq!(p.zone_gap, 30e-6);
        assert_eq!(p.rydberg_radius, 6e-6);
        assert_eq!(p.min_separation, 10e-6);
    }

    #[test]
    fn default_is_valid() {
        assert!(PhysicalParams::default().is_valid());
    }

    #[test]
    fn invalid_fidelity_detected() {
        let mut p = PhysicalParams {
            cz_fidelity: 1.2,
            ..PhysicalParams::default()
        };
        assert!(!p.is_valid());
        p.cz_fidelity = 0.0;
        assert!(!p.is_valid());
    }

    #[test]
    fn invalid_duration_detected() {
        let mut p = PhysicalParams {
            transfer_duration: -1.0,
            ..PhysicalParams::default()
        };
        assert!(!p.is_valid());
        p.transfer_duration = f64::NAN;
        assert!(!p.is_valid());
    }

    #[test]
    fn movement_duration_examples_from_paper() {
        // The paper quotes 100 us for 27.5 um and 200 us for 110 um.
        let p = PhysicalParams::default();
        let t1 = (27.5e-6_f64 / p.max_acceleration).sqrt();
        let t2 = (110e-6_f64 / p.max_acceleration).sqrt();
        assert!((t1 - 100e-6).abs() < 1e-9);
        assert!((t2 - 200e-6).abs() < 1e-9);
    }
}
