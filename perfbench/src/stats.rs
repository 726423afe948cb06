//! The benchmark's own statistics: nearest-rank percentiles that carry
//! their sample count, the rule that a tail percentile is reported only
//! with at least ten samples beyond it, and span self time.

/// Samples a percentile must leave beyond it before it is reported.
pub const MIN_BEYOND: usize = 10;

/// A percentile of `n` samples; `value` is `None` when fewer than
/// [`MIN_BEYOND`] samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pct {
    pub value: Option<f64>,
    pub n: usize,
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(q: f64, n: usize) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it. The median of 20+
/// samples always qualifies; a p99 needs at least 1,000.
pub fn percentile(sorted: &[f64], q: f64) -> Pct {
    let n = sorted.len();
    if n == 0 {
        return Pct { value: None, n };
    }
    let r = rank(q, n);
    let value = (n - r >= MIN_BEYOND).then(|| sorted[r - 1]);
    Pct { value, n }
}

/// Samples per chunk of [`chunked_percentile`]: enough for a p99 with 20
/// samples beyond it.
pub const CHUNK: usize = 2_000;

/// The `q`-quantile of each successive chunk of [`CHUNK`] samples (in
/// the order they were taken), and the median of those: a burst of
/// outside load moves the chunks it lands in, not the figure. With fewer
/// than two chunks it is the plain [`percentile`]. `n` counts every
/// sample.
pub fn chunked_percentile(samples: &[f64], q: f64) -> Pct {
    let n = samples.len();
    if n < 2 * CHUNK {
        return percentile(&sorted(samples.to_vec()), q);
    }
    let per_chunk: Vec<f64> = samples
        .chunks_exact(CHUNK)
        .filter_map(|c| percentile(&sorted(c.to_vec()), q).value)
        .collect();
    Pct { value: (!per_chunk.is_empty()).then(|| median(&per_chunk)), n }
}

/// The median of `values` (mean of the middle pair for an even count),
/// used for a handful of repeated measurements, where the ten-beyond
/// rule would reject every estimate.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Sort samples ascending (NaN-free by construction).
pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(f64::total_cmp);
    samples
}

/// One timed call at a layer boundary. Times are nanoseconds since the
/// run's clock origin; `id` is the op's logical time, shared by every
/// span of that op.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index of the parent span in the run's span list.
    pub parent: Option<usize>,
    pub id: u64,
}

/// A span's self time: its duration minus the part of its interval that
/// its children cover (overlapping children count once; parts of a child
/// outside the parent do not count).
pub fn self_ns(parent: &Span, children: &[Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(s, e)| s < e)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start;
    for (s, e) in cover {
        let s = s.max(reach);
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    (parent.end - parent.start) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64) -> Span {
        Span { name: "t", start, end, parent: None, id: 0 }
    }

    #[test]
    fn percentile_reports_its_sample_count() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), Pct { value: Some(50.0), n: 100 });
        assert_eq!(percentile(&[], 0.5), Pct { value: None, n: 0 });
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let s: Vec<f64> = (1..=1_000).map(f64::from).collect();
        // Rank 990 leaves exactly ten samples beyond it.
        assert_eq!(percentile(&s, 0.99).value, Some(990.0));
        let short: Vec<f64> = (1..=999).map(f64::from).collect();
        // Rank 990 of 999 leaves nine: withheld, but the count stays.
        assert_eq!(percentile(&short, 0.99), Pct { value: None, n: 999 });
        // Few samples: even the median is withheld.
        assert_eq!(percentile(&[1.0, 2.0, 3.0], 0.5).value, None);
    }

    #[test]
    fn chunked_percentile_is_the_median_over_chunks() {
        // Three chunks whose medians are 1, 2 and 100: the figure is 2,
        // however far the third chunk's burst reaches.
        let mut s = vec![1.0; CHUNK];
        s.extend(vec![2.0; CHUNK]);
        s.extend(vec![100.0; CHUNK]);
        assert_eq!(chunked_percentile(&s, 0.5), Pct { value: Some(2.0), n: 3 * CHUNK });
        // A partial last chunk is left out of the median but counted.
        s.extend(vec![7.0; 10]);
        assert_eq!(chunked_percentile(&s, 0.99), Pct { value: Some(2.0), n: 3 * CHUNK + 10 });
        // Short inputs fall back to the plain percentile.
        let short: Vec<f64> = (1..=1_000).map(f64::from).collect();
        assert_eq!(chunked_percentile(&short, 0.99), percentile(&short, 0.99));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn self_time_subtracts_covered_children_once() {
        let parent = span(100, 200);
        assert_eq!(self_ns(&parent, &[]), 100);
        // Disjoint children.
        assert_eq!(self_ns(&parent, &[span(100, 120), span(150, 170)]), 60);
        // Overlapping children count their union once.
        assert_eq!(self_ns(&parent, &[span(110, 150), span(140, 160)]), 50);
        // A child reaching outside the parent is clipped to it.
        assert_eq!(self_ns(&parent, &[span(50, 130), span(190, 300)]), 60);
        // A child nested in another adds nothing.
        assert_eq!(self_ns(&parent, &[span(110, 190), span(120, 130)]), 20);
    }
}
