//! Repeat-run sample statistics for wall-clock metrics.
//!
//! Exact metrics (stages, transfers, CZ counts) and deterministic model
//! outputs (fidelity, execution time) are single-run: re-running the
//! compiler cannot change them. Wall clocks are different — a single
//! compile-time sample on a shared CI runner is dominated by scheduler
//! noise, which is why the gate historically needed a 4× slack to avoid
//! flakes. [`SampleStats`] replaces the single sample with a small set of
//! repeat-run samples (`--repeats N`, default [`DEFAULT_REPEATS`]) and
//! summarizes them as a **median** plus a simple **confidence interval**
//! (the notched-box-plot heuristic: `median ± 1.58 · IQR / √n`, clamped to
//! the observed range), so the gate can compare the current median against
//! the baseline's interval instead of multiplying by a generous constant.

use serde::{Serialize, Serializer, Value};

/// Default number of repeat runs used to sample wall-clock metrics.
pub const DEFAULT_REPEATS: usize = 3;

/// The notched-box-plot confidence-interval factor: the interval half-width
/// is `1.58 · IQR / √n`, the classic approximation of a 95 % interval for
/// the median (McGill, Tukey & Larsen 1978).
pub const CI_FACTOR: f64 = 1.58;

/// A non-empty set of repeat-run samples of one wall-clock metric, with
/// median and confidence-interval summaries.
///
/// Samples are kept in collection order; all summaries are computed on a
/// sorted copy, so two `SampleStats` holding the same multiset of samples
/// summarize identically.
///
/// # Example
///
/// ```
/// use powermove_bench::stats::SampleStats;
///
/// let stats = SampleStats::from_samples(vec![3.0, 1.0, 2.0]);
/// assert_eq!(stats.median(), 2.0);
/// let (lo, hi) = stats.ci();
/// assert!(lo >= 1.0 && hi <= 3.0 && lo <= 2.0 && 2.0 <= hi);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SampleStats {
    samples: Vec<f64>,
}

impl SampleStats {
    /// Wraps a single measurement (an interval of zero width).
    #[must_use]
    pub fn single(value: f64) -> Self {
        SampleStats {
            samples: vec![value],
        }
    }

    /// Wraps a set of repeat-run measurements.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty: a metric with no measurement has no
    /// statistics, and the harness always records at least one run.
    #[must_use]
    pub fn from_samples(samples: Vec<f64>) -> Self {
        assert!(!samples.is_empty(), "sample statistics need >= 1 sample");
        SampleStats { samples }
    }

    /// The raw samples, in collection order.
    #[must_use]
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// Number of samples.
    #[must_use]
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether there is exactly one sample (never zero).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The smallest sample.
    #[must_use]
    pub fn min(&self) -> f64 {
        self.samples.iter().copied().fold(f64::INFINITY, f64::min)
    }

    /// The largest sample.
    #[must_use]
    pub fn max(&self) -> f64 {
        self.samples
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The sample median (mean of the two central samples for even counts).
    #[must_use]
    pub fn median(&self) -> f64 {
        let sorted = self.sorted();
        median_of(&sorted)
    }

    /// Lower and upper quartiles as Tukey hinges: the medians of the lower
    /// and upper halves, each half including the central sample when the
    /// count is odd.
    #[must_use]
    fn quartiles(&self) -> (f64, f64) {
        let sorted = self.sorted();
        let n = sorted.len();
        let lower = &sorted[..n.div_ceil(2)];
        let upper = &sorted[n / 2..];
        (median_of(lower), median_of(upper))
    }

    /// A simple confidence interval for the median: the notched-box-plot
    /// heuristic `median ± `[`CI_FACTOR`]` · IQR / √n`, clamped to the
    /// observed `[min, max]` range. A single sample yields the degenerate
    /// interval `[value, value]`.
    #[must_use]
    pub fn ci(&self) -> (f64, f64) {
        let median = self.median();
        let (q1, q3) = self.quartiles();
        let half_width = CI_FACTOR * (q3 - q1) / (self.len() as f64).sqrt();
        (
            (median - half_width).max(self.min()),
            (median + half_width).min(self.max()),
        )
    }

    /// Reads a `SampleStats` back from its serialized [`Value`] form (the
    /// `{"samples": [...], ...}` object): only the `samples` array is
    /// authoritative — the summary fields are recomputed, so a hand-edited
    /// median cannot drift from its samples.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed field.
    pub fn from_value(value: &Value) -> Result<Self, String> {
        let samples = value
            .get("samples")
            .and_then(Value::as_array)
            .ok_or_else(|| "missing `samples` array".to_string())?;
        let samples = samples
            .iter()
            .enumerate()
            .map(|(i, s)| {
                s.as_f64()
                    .ok_or_else(|| format!("`samples[{i}]` is not a number"))
            })
            .collect::<Result<Vec<f64>, String>>()?;
        if samples.is_empty() {
            return Err("`samples` array is empty".to_string());
        }
        Ok(SampleStats { samples })
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.samples.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }
}

impl Serialize for SampleStats {
    /// Serializes as an object carrying the raw samples plus the derived
    /// summaries (median and interval bounds) for human readers; parsing
    /// only trusts `samples` (see [`SampleStats::from_value`]).
    fn serialize<W: std::fmt::Write + ?Sized>(&self, out: &mut Serializer<'_, W>) {
        let (ci_low, ci_high) = self.ci();
        out.begin_object();
        out.entry("samples", &self.samples);
        out.entry("median", &self.median());
        out.entry("ci_low", &ci_low);
        out.entry("ci_high", &ci_high);
        out.end_object();
    }
}

fn median_of(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        0.5 * (sorted[n / 2 - 1] + sorted[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_on_known_samples() {
        assert_eq!(SampleStats::single(4.5).median(), 4.5);
        assert_eq!(SampleStats::from_samples(vec![3.0, 1.0, 2.0]).median(), 2.0);
        assert_eq!(
            SampleStats::from_samples(vec![4.0, 1.0, 3.0, 2.0]).median(),
            2.5
        );
        assert_eq!(
            SampleStats::from_samples(vec![5.0, 1.0, 4.0, 2.0, 3.0]).median(),
            3.0
        );
    }

    #[test]
    fn quartiles_are_tukey_hinges() {
        // Odd count: both halves include the central sample.
        let odd = SampleStats::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(odd.quartiles(), (2.0, 4.0));
        // Even count: clean halves.
        let even = SampleStats::from_samples(vec![1.0, 2.0, 3.0, 4.0]);
        assert_eq!(even.quartiles(), (1.5, 3.5));
        // Three samples: hinges straddle the median.
        let three = SampleStats::from_samples(vec![1.0, 2.0, 9.0]);
        assert_eq!(three.quartiles(), (1.5, 5.5));
    }

    #[test]
    fn ci_matches_the_notch_formula_on_known_samples() {
        let stats = SampleStats::from_samples(vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let half = CI_FACTOR * 2.0 / 5.0_f64.sqrt();
        let (lo, hi) = stats.ci();
        assert_eq!(lo, 3.0 - half);
        assert_eq!(hi, 3.0 + half);
    }

    #[test]
    fn ci_is_clamped_to_the_observed_range() {
        // A wildly skewed triple would put the notch outside [min, max].
        let stats = SampleStats::from_samples(vec![1.0, 1.1, 100.0]);
        let (lo, hi) = stats.ci();
        assert!(lo >= 1.0, "lo {lo}");
        assert!(hi <= 100.0, "hi {hi}");
        assert!(lo <= stats.median() && stats.median() <= hi);
    }

    #[test]
    fn single_sample_interval_is_degenerate() {
        let stats = SampleStats::single(0.25);
        assert_eq!(stats.ci(), (0.25, 0.25));
        assert_eq!(stats.min(), 0.25);
        assert_eq!(stats.max(), 0.25);
        assert_eq!(stats.len(), 1);
        assert!(!stats.is_empty());
    }

    #[test]
    fn single_sample_quartiles_are_the_sample_not_nan() {
        // n = 1: both Tukey hinges are the lone sample — never NaN, and the
        // notch formula degenerates to zero width instead of dividing into
        // an empty half.
        let stats = SampleStats::single(4.0);
        let (q1, q3) = stats.quartiles();
        assert_eq!((q1, q3), (4.0, 4.0));
        assert!(!q1.is_nan() && !q3.is_nan());
        assert_eq!(stats.median(), 4.0);
    }

    #[test]
    fn two_samples_clamp_the_notch_to_the_observed_range() {
        // n = 2: IQR is the full range and the 1.58/sqrt(2) factor pushes
        // the raw notch outside [min, max]; the interval must clamp, not
        // extrapolate, and no summary may be NaN.
        let stats = SampleStats::from_samples(vec![3.0, 1.0]);
        assert_eq!(stats.median(), 2.0);
        let (q1, q3) = stats.quartiles();
        assert_eq!((q1, q3), (1.0, 3.0));
        assert!(!q1.is_nan() && !q3.is_nan());
        let raw_half = CI_FACTOR * (q3 - q1) / 2.0_f64.sqrt();
        assert!(raw_half > 1.0, "the raw notch would overflow the range");
        let (lo, hi) = stats.ci();
        assert_eq!((lo, hi), (1.0, 3.0));
        assert!(lo <= stats.median() && stats.median() <= hi);
        // Equal pair: zero-width interval, still no NaN anywhere.
        let flat = SampleStats::from_samples(vec![2.0, 2.0]);
        assert_eq!(flat.quartiles(), (2.0, 2.0));
        assert_eq!(flat.ci(), (2.0, 2.0));
    }

    #[test]
    fn identical_samples_have_zero_width() {
        let stats = SampleStats::from_samples(vec![2.0, 2.0, 2.0]);
        assert_eq!(stats.median(), 2.0);
        assert_eq!(stats.ci(), (2.0, 2.0));
    }

    #[test]
    fn serializes_with_summaries_and_round_trips_from_samples() {
        let stats = SampleStats::from_samples(vec![0.3, 0.1, 0.2]);
        let value = serde_json::to_value(&stats);
        assert_eq!(value.get("median").and_then(Value::as_f64), Some(0.2));
        assert!(value.get("ci_low").is_some() && value.get("ci_high").is_some());
        let parsed = SampleStats::from_value(&value).unwrap();
        assert_eq!(parsed, stats);
    }

    #[test]
    fn from_value_rejects_malformed_shapes() {
        assert!(SampleStats::from_value(&Value::Null).is_err());
        let empty = Value::Object(vec![("samples".into(), Value::Array(vec![]))]);
        assert!(SampleStats::from_value(&empty)
            .unwrap_err()
            .contains("empty"));
        let mistyped = Value::Object(vec![(
            "samples".into(),
            Value::Array(vec![Value::String("fast".into())]),
        )]);
        assert!(SampleStats::from_value(&mistyped)
            .unwrap_err()
            .contains("samples[0]"));
    }

    #[test]
    #[should_panic(expected = ">= 1 sample")]
    fn empty_sample_set_panics() {
        let _ = SampleStats::from_samples(Vec::new());
    }
}
