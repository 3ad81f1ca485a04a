//! Order statistics over timing samples, and the slice rule: every timing
//! the benchmark reports is taken per equal op-count slice (or per crash
//! cycle) and the run's value is the **quiet decile** of those: the first
//! decile of a latency, the ninth of a rate. The reference box is a few
//! cores of a shared host whose neighbours slow it for seconds at a time;
//! their load only ever adds time, so the quiet tenth of a run repeats
//! where its middle does not (README.md, "Steadiness").

/// Slices per measured phase.
pub const SLICES: usize = 40;
/// Crash cycles per run.
pub const CYCLES: usize = 9;

/// The `p`-quantile (`0.0..=1.0`) of an already sorted sample, nearest rank.
pub fn quantile_sorted(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The `p`-quantile of `samples` (sorted in place).
pub fn quantile(samples: &mut [u64], p: f64) -> u64 {
    samples.sort_unstable();
    quantile_sorted(samples, p)
}

/// p50 of `samples` (ns), or 0 for none.
pub fn p50(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        quantile(&mut samples.to_vec(), 0.5) as f64
    }
}

/// Median of a small set of per-slice values.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `p`-quantile of a small set of per-slice values, interpolating
/// between ranks (Python's `statistics.quantiles(.., method="inclusive")`).
pub fn interpolated(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = p * (v.len() - 1) as f64;
    let (lo, hi) = (at.floor() as usize, at.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (at - lo as f64)
}

/// The quiet decile of per-slice latencies: the first.
pub fn quiet_low(values: &[f64]) -> f64 {
    interpolated(values, 0.1)
}

/// The quiet decile of per-slice rates: the ninth.
pub fn quiet_high(values: &[f64]) -> f64 {
    interpolated(values, 0.9)
}

/// The index range of slice `k` when `n` items are cut into [`SLICES`]
/// equal op-count slices (the last slice absorbs the remainder).
pub fn slice_range(n: usize, k: usize) -> std::ops::Range<usize> {
    let per = n / SLICES;
    let start = k * per;
    let end = if k + 1 == SLICES { n } else { start + per };
    start..end
}

/// With tracing on, a pipelined phase of `n = per × segments` ops is cut
/// into twice the usual segments and only the even ones are traced; the
/// odd ones run bare, so the two can be compared (`trace.overhead_pct`).
pub fn in_even_segment(i: usize, per: usize, segments: usize) -> bool {
    (i / per).min(segments - 1) & 1 == 0
}

/// The `p`-quantile of every slice, pooling slice `k` of every lane (one
/// lane per client connection).
pub fn sliced_quantile(lanes: &[&[u64]], p: f64) -> Vec<f64> {
    (0..SLICES)
        .filter_map(|k| {
            let mut pool: Vec<u64> = lanes
                .iter()
                .flat_map(|lane| lane[slice_range(lane.len(), k)].iter().copied())
                .collect();
            (!pool.is_empty()).then(|| quantile(&mut pool, p) as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_use_nearest_rank() {
        let mut s: Vec<u64> = (1..=100).collect();
        assert_eq!(quantile(&mut s, 0.5), 50);
        assert_eq!(quantile(&mut s, 0.95), 95);
        assert_eq!(quantile(&mut s, 1.0), 100);
        assert_eq!(quantile(&mut [7], 0.5), 7);
    }

    #[test]
    fn slices_cover_every_item_once() {
        let covered: usize = (0..SLICES).map(|k| slice_range(103, k).len()).sum();
        assert_eq!(covered, 103);
        assert_eq!(slice_range(103, SLICES - 1).end, 103);
    }

    #[test]
    fn deciles_interpolate_between_ranks() {
        let v: Vec<f64> = (0..=10).rev().map(f64::from).collect();
        assert_eq!(quiet_low(&v), 1.0);
        assert_eq!(quiet_high(&v), 9.0);
        assert_eq!(interpolated(&[1.0, 2.0], 0.25), 1.25);
        assert_eq!(interpolated(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
