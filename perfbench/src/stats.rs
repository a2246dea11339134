//! Order statistics, the tail-percentile rule and span self-time arithmetic.

use std::time::Instant;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// Panics on an empty slice: every caller has at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Geometric mean of strictly positive `values`.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geometric mean of no samples");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The tail-percentile rule: the nearest-rank value at percentile `wanted`,
/// lowered to the highest percentile that still has at least ten samples
/// beyond it (never below the median rank). Returns the value and the
/// percentile actually reported.
pub fn tail_percentile(values: &[f64], wanted: f64) -> (f64, f64) {
    assert!(!values.is_empty(), "percentile of no samples");
    let sorted = sorted(values);
    let n = sorted.len();
    let nearest = ((wanted / 100.0) * n as f64).ceil() as usize;
    let median_rank = n.div_ceil(2);
    let rank = nearest
        .min(n.saturating_sub(10))
        .max(median_rank)
        .clamp(1, n);
    (sorted[rank - 1], 100.0 * rank as f64 / n as f64)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// One recorded span: a named interval (seconds since the trace origin),
/// the span that caused it and the allocation calls made inside it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: f64,
    pub end: f64,
    pub parent: Option<usize>,
    pub allocs: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// In-memory span recorder around calls into the library's layers.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new() -> Self {
        Trace {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name` under `parent`; returns the
    /// result and the new span's index (usable as a parent).
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce(&mut Self, usize) -> T,
    ) -> T {
        let index = self.spans.len();
        let allocs_before = crate::alloc::allocations();
        let start = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            allocs: 0,
        });
        let out = f(self, index);
        let end = self.origin.elapsed().as_secs_f64();
        let span = &mut self.spans[index];
        span.end = end;
        span.allocs = crate::alloc::allocations() - allocs_before;
        out
    }

    /// Total seconds of every span named `name`.
    pub fn seconds(&self, name: &str) -> f64 {
        self.named(name).map(Span::seconds).sum()
    }

    /// Total allocation calls inside every span named `name`.
    pub fn allocs(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.allocs).sum()
    }

    /// Total self time of every span named `name`.
    pub fn self_seconds(&self, name: &str) -> f64 {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self_time(&self.spans, i))
            .sum()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }
}

/// A span's self time: its duration minus the part of its interval that its
/// child spans cover (overlapping children count once; children are clipped
/// to the parent's interval).
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let parent = &spans[index];
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| (s.start.max(parent.start), s.end.min(parent.end)))
        .filter(|(start, end)| end > start)
        .collect();
    covered.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut reach = f64::NEG_INFINITY;
    for (start, end) in covered {
        let start = start.max(reach);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    parent.seconds() - total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            allocs: 0,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = vec![
            span(0.0, 10.0, None),
            span(1.0, 3.0, Some(0)),
            span(5.0, 6.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 7.0);
        assert_eq!(self_time(&spans, 1), 2.0);
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        // Two parallel children covering [2, 6] together.
        let spans = vec![
            span(0.0, 10.0, None),
            span(2.0, 5.0, Some(0)),
            span(4.0, 6.0, Some(0)),
        ];
        assert_eq!(self_time(&spans, 0), 6.0);
    }

    #[test]
    fn self_time_clips_children_to_the_parent_and_ignores_grandchildren() {
        let spans = vec![
            span(0.0, 4.0, None),
            span(3.0, 9.0, Some(0)),
            span(3.5, 3.75, Some(1)),
        ];
        assert_eq!(self_time(&spans, 0), 3.0);
        assert_eq!(self_time(&spans, 1), 5.75);
    }

    #[test]
    fn self_time_of_a_fully_covered_span_is_zero() {
        let spans = vec![span(1.0, 2.0, None), span(0.0, 3.0, Some(0))];
        assert_eq!(self_time(&spans, 0), 0.0);
    }

    #[test]
    fn trace_records_nested_spans() {
        let mut trace = Trace::new();
        trace.span("outer", None, |trace, outer| {
            trace.span("inner", Some(outer), |_, _| vec![0_u8; 64].len());
        });
        let spans = &trace.spans;
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].seconds() >= spans[1].seconds());
        assert!(trace.self_seconds("outer") <= trace.seconds("outer"));
    }

    #[test]
    fn percentile_rule_keeps_p99_with_a_thousand_samples() {
        let values: Vec<f64> = (1..=1000).map(f64::from).collect();
        let (value, pct) = tail_percentile(&values, 99.0);
        assert_eq!(value, 990.0);
        assert_eq!(pct, 99.0);
        // Exactly ten samples lie beyond the reported one.
        assert_eq!(values.iter().filter(|v| **v > value).count(), 10);
    }

    #[test]
    fn percentile_rule_lowers_the_percentile_for_small_samples() {
        let values: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        let (value, pct) = tail_percentile(&values, 99.0);
        assert_eq!(value, 90.0);
        assert_eq!(pct, 90.0);
        // p50 is not lowered: 50 samples lie beyond it.
        assert_eq!(tail_percentile(&values, 50.0), (50.0, 50.0));
    }

    #[test]
    fn percentile_rule_never_drops_below_the_median() {
        let values: Vec<f64> = (1..=12).map(f64::from).collect();
        // n - 10 = 2 would be below the median rank 6.
        assert_eq!(tail_percentile(&values, 99.0), (6.0, 50.0));
        assert_eq!(tail_percentile(&[7.0], 99.0), (7.0, 100.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[1.0, 100.0]) - 10.0).abs() < 1e-9);
    }
}
