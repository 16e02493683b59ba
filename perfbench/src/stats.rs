//! Exact-sample statistics: every percentile is one of the recorded
//! samples (nearest rank), never an interpolation between histogram
//! buckets, and every summary carries its sample count.

/// Samples beyond the reported tail: the tail is the highest percentile
/// that still has at least this many samples above it.
pub const TAIL_BEYOND: usize = 10;

/// A sorted sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    sorted: Vec<f64>,
}

/// The tail of a sample set: its value, the percentile it sits at and
/// how many samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the tail rank.
    pub value: f64,
    /// Nearest-rank percentile of that sample, in percent.
    pub pct: f64,
    /// Samples ranked above it.
    pub beyond: usize,
}

impl Samples {
    /// Sorts `values`; non-finite values are a caller bug.
    pub fn new(mut values: Vec<f64>) -> Self {
        assert!(values.iter().all(|v| v.is_finite()), "non-finite sample");
        values.sort_by(f64::total_cmp);
        Samples { sorted: values }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// True when there are no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Nearest-rank percentile `q` in `[0, 1]`: the smallest sample with
    /// at least `q·n` samples at or below it. `None` when empty.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as usize).clamp(1, n);
        self.sorted.get(rank - 1).copied()
    }

    /// The median (lower median for even counts, so it is a sample).
    pub fn median(&self) -> Option<f64> {
        self.percentile(0.5)
    }

    /// Arithmetic mean.
    pub fn mean(&self) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        Some(self.sorted.iter().sum::<f64>() / self.sorted.len() as f64)
    }

    /// Largest sample.
    pub fn max(&self) -> Option<f64> {
        self.sorted.last().copied()
    }

    /// The highest percentile with at least [`TAIL_BEYOND`] samples
    /// beyond it, but never below the median: with 21 samples or fewer
    /// the tail is the median, and `beyond` tells the reader how thin
    /// the sample is.
    pub fn tail(&self) -> Option<Tail> {
        let n = self.sorted.len();
        if n == 0 {
            return None;
        }
        let median = n.div_ceil(2) - 1;
        let index = n.saturating_sub(TAIL_BEYOND + 1).max(median);
        let value = *self.sorted.get(index)?;
        Some(Tail { value, pct: 100.0 * (index + 1) as f64 / n as f64, beyond: n - 1 - index })
    }
}

/// Human-readable `p50 … tail …` summary with counts, in `unit`.
pub fn describe(samples: &Samples, unit: &str) -> String {
    match (samples.median(), samples.tail()) {
        (Some(p50), Some(tail)) => format!(
            "p50 {p50:.3} {unit}, tail p{:.1} {:.3} {unit} ({} beyond), n={}",
            tail.pct,
            tail.value,
            tail.beyond,
            samples.len()
        ),
        _ => "no samples".to_owned(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Samples {
        Samples::new((1..=n).rev().map(|v| v as f64).collect())
    }

    #[test]
    fn percentiles_are_samples_by_nearest_rank() {
        let s = ramp(100);
        assert_eq!(s.percentile(0.5), Some(50.0));
        assert_eq!(s.percentile(0.95), Some(95.0));
        assert_eq!(s.percentile(0.951), Some(96.0));
        assert_eq!(s.percentile(0.0), Some(1.0));
        assert_eq!(s.percentile(1.0), Some(100.0));
        assert_eq!(s.median(), Some(50.0));
        let odd = Samples::new(vec![3.0, 1.0, 2.0]);
        assert_eq!(odd.median(), Some(2.0));
        let even = Samples::new(vec![4.0, 1.0, 3.0, 2.0]);
        assert_eq!(even.median(), Some(2.0), "lower median is a sample, not 2.5");
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s = ramp(100);
        let tail = s.tail().unwrap();
        assert_eq!(tail.value, 90.0);
        assert_eq!(tail.beyond, 10);
        assert!((tail.pct - 90.0).abs() < 1e-9);

        let s = ramp(1000);
        let tail = s.tail().unwrap();
        assert_eq!((tail.value, tail.beyond), (990.0, 10));
        assert!((tail.pct - 99.0).abs() < 1e-9);

        let s = ramp(33);
        let tail = s.tail().unwrap();
        assert_eq!((tail.value, tail.beyond), (23.0, 10));
    }

    #[test]
    fn tail_of_small_sets_is_the_median() {
        let s = ramp(5);
        let tail = s.tail().unwrap();
        assert_eq!((tail.value, tail.beyond), (3.0, 2));
        let s = ramp(11);
        assert_eq!(s.tail().unwrap(), Tail { value: 6.0, pct: 600.0 / 11.0, beyond: 5 });
        let s = ramp(21);
        assert_eq!((s.tail().unwrap().value, s.median().unwrap()), (11.0, 11.0));
        let s = ramp(22);
        assert_eq!(s.tail().unwrap().value, 12.0);
        assert!(Samples::new(Vec::new()).tail().is_none());
    }

    #[test]
    fn no_bucket_edges() {
        // A 1-2-5 log-bucket histogram would report 100000 here.
        let s = Samples::new(vec![91_234.0, 97_001.0, 123_456.0]);
        assert_eq!(s.median(), Some(97_001.0));
        assert_eq!(s.mean(), Some((91_234.0 + 97_001.0 + 123_456.0) / 3.0));
    }
}
