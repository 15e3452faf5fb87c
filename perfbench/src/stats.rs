//! Order statistics for the report: nearest-rank percentiles, the
//! "at least ten samples beyond" rule for tail percentiles, medians and
//! geometric means.

/// Samples a percentile must leave beyond itself to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile (`pct` in 0..=100) of an ascending slice.
pub fn percentile(sorted: &[f64], pct: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples strictly beyond the nearest-rank `pct` percentile of `n` samples.
pub fn beyond(n: usize, pct: f64) -> usize {
    let rank = ((pct / 100.0) * n as f64).ceil() as usize;
    n - rank.clamp(1, n.max(1))
}

/// A sample of measurements, sorted on construction.
#[derive(Debug, Clone, Default)]
pub struct Sample {
    sorted: Vec<f64>,
}

impl Sample {
    pub fn new(mut values: Vec<f64>) -> Sample {
        values.sort_by(f64::total_cmp);
        Sample { sorted: values }
    }

    /// The `pct` percentile, refusing one with fewer than [`MIN_BEYOND`]
    /// samples beyond it.
    pub fn checked(&self, pct: f64) -> Result<f64, String> {
        let n = self.sorted.len();
        if n == 0 || beyond(n, pct) < MIN_BEYOND {
            return Err(format!(
                "p{pct} needs {MIN_BEYOND} samples beyond it; the sample has {n} values"
            ));
        }
        Ok(percentile(&self.sorted, pct))
    }

    pub fn median(&self) -> f64 {
        median(&self.sorted)
    }
}

/// Time windows a run's samples are split into for [`best_window`].
pub const WINDOWS: usize = 10;

/// The `pct` percentile of each of [`WINDOWS`] consecutive, equal slices of
/// `in_time_order`, and the lowest of those. At a steady offered load the
/// program does the same work in every window, while interference from
/// other tenants of a shared host only adds time and comes in bursts of
/// seconds (run by run, served medians tracked the guest's steal time); so
/// the quietest window is the steadiest estimate of the program's own
/// figure. Every window must support the percentile (see
/// [`Sample::checked`]).
pub fn best_window(in_time_order: &[f64], pct: f64) -> Result<f64, String> {
    let size = in_time_order.len() / WINDOWS;
    if size == 0 {
        return Err(format!("{} samples cannot fill {WINDOWS} windows", in_time_order.len()));
    }
    let per_window = in_time_order
        .chunks(size)
        .take(WINDOWS)
        .map(|w| Sample::new(w.to_vec()).checked(pct))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(per_window.into_iter().fold(f64::INFINITY, f64::min))
}

/// Median of an ascending slice (mean of the middle pair for even lengths).
pub fn median(sorted: &[f64]) -> f64 {
    assert!(!sorted.is_empty(), "median of an empty sample");
    let n = sorted.len();
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// Median of unsorted values.
pub fn median_of(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    median(&sorted)
}

/// Geometric mean of positive values.
pub fn geomean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "geomean of nothing");
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_matches_the_textbook_definition() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 50.0), 50.0);
        assert_eq!(percentile(&sorted, 99.0), 99.0);
        assert_eq!(percentile(&sorted, 100.0), 100.0);
        assert_eq!(percentile(&sorted, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        let enough = Sample::new((0..1000).map(f64::from).collect());
        assert_eq!(enough.checked(99.0), Ok(989.0));
        let short = Sample::new((0..999).map(f64::from).collect());
        assert!(short.checked(99.0).is_err());
        assert!(short.checked(50.0).is_ok());
    }

    #[test]
    fn every_reported_percentile_leaves_ten_beyond() {
        assert!(Sample::new(vec![]).checked(50.0).is_err());
        assert!(Sample::new((0..19).map(f64::from).collect()).checked(50.0).is_err());
        assert!(Sample::new((0..20).map(f64::from).collect()).checked(50.0).is_ok());
        assert!(Sample::new((0..199).map(f64::from).collect()).checked(95.0).is_err());
        assert!(Sample::new((0..200).map(f64::from).collect()).checked(95.0).is_ok());
        for n in [20usize, 57, 100, 640, 1000, 4321] {
            for p in [50.0, 95.0, 99.0] {
                let ok = Sample::new((0..n).map(|v| v as f64).collect()).checked(p).is_ok();
                assert_eq!(ok, beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
            }
        }
    }

    #[test]
    fn the_quietest_window_decides() {
        let mut v: Vec<f64> = (0..1000).map(|i| f64::from(i % 100)).collect();
        assert_eq!(best_window(&v, 50.0), Ok(49.0));
        assert_eq!(best_window(&v, 90.0), Ok(89.0));
        // Bursts that slow every window but one leave the figure alone.
        for x in &mut v[100..] {
            *x *= 3.0;
        }
        assert_eq!(best_window(&v, 50.0), Ok(49.0));
        assert!(Sample::new(v.clone()).checked(50.0).unwrap() > 100.0);
        // A change that slows every window shows in full.
        for x in &mut v[..100] {
            *x *= 2.0;
        }
        assert_eq!(best_window(&v, 50.0), Ok(98.0));
        // Each window needs its own ten samples beyond the percentile.
        assert!(best_window(&v[..999], 99.0).is_err());
        assert!(best_window(&[], 50.0).is_err());
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
    }
}
