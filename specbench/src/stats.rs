//! Exact order statistics over the benchmark's own samples.
//!
//! Nothing here reads a log2-bucketed histogram: `Histogram::quantile`
//! returns a bucket floor, so a p99 can jump by 2× when a handful of
//! samples cross a power of two. Every latency the benchmark reports is a
//! nearest-rank percentile of the exact per-op nanosecond samples.

/// Exact nearest-rank percentile of `samples` (`q` in `(0, 1]`). Sorts in
/// place. Returns 0 for an empty slice.
pub fn percentile(samples: &mut [u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    samples.sort_unstable();
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    samples[rank - 1]
}

/// Median of `values` (mean of the middle two for an even count; 0.0 for
/// an empty slice).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `num / den`, or 0.0 when `den` is zero (a layer that did no work).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Per-window summaries of one run: each window covers the same number of
/// ops, so its rate and percentiles are comparable, and the median across
/// windows ignores a window the host's scheduler happened to disturb.
#[derive(Debug, Default, Clone)]
pub struct Windows {
    /// Ops per host second of each window, in run order.
    pub rates: Vec<f64>,
    get_p50: Vec<f64>,
    get_p99: Vec<f64>,
    put_p50: Vec<f64>,
    put_p99: Vec<f64>,
    /// Samples that went into the get/put percentiles, over all windows.
    pub get_samples: u64,
    /// See [`Windows::get_samples`].
    pub put_samples: u64,
    /// Host nanoseconds measured over all windows.
    pub measured_ns: u64,
    /// Ops executed over all windows.
    pub ops: u64,
}

impl Windows {
    /// Folds one window: `ops` ops in `elapsed_ns`, with the exact get and
    /// put latency samples (ns) it produced. Windows with too few samples
    /// for a p99 (fewer than 1000, i.e. under ten beyond the percentile)
    /// contribute their rate only.
    pub fn push(&mut self, ops: u64, elapsed_ns: u64, gets: &mut [u64], puts: &mut [u64]) {
        self.rates.push(ops as f64 * 1e9 / elapsed_ns.max(1) as f64);
        self.ops += ops;
        self.measured_ns += elapsed_ns;
        self.get_samples += gets.len() as u64;
        self.put_samples += puts.len() as u64;
        for (samples, p50, p99) in [
            (gets, &mut self.get_p50, &mut self.get_p99),
            (puts, &mut self.put_p50, &mut self.put_p99),
        ] {
            if samples.len() >= 1000 {
                p50.push(percentile(samples, 0.50) as f64 / 1e3);
                p99.push(percentile(samples, 0.99) as f64 / 1e3);
            }
        }
    }

    /// Windows folded so far.
    pub fn count(&self) -> usize {
        self.rates.len()
    }

    /// Median over windows of ops per host second.
    pub fn ops_per_s(&self) -> f64 {
        median(&self.rates)
    }

    /// Median over windows of the get p50 / p99 and put p50 / p99, in µs.
    pub fn latencies_us(&self) -> [f64; 4] {
        [median(&self.get_p50), median(&self.get_p99), median(&self.put_p50), median(&self.put_p99)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use specpmt_telemetry::Histogram;

    #[test]
    fn percentile_is_exact_where_the_histogram_returns_a_bucket_floor() {
        // 1000 samples 1001..=2000 ns: the exact p99 is 1990, while the
        // log2 histogram reports the floor of the bucket holding it.
        let mut samples: Vec<u64> = (1001..=2000).collect();
        let h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        assert_eq!(percentile(&mut samples, 0.99), 1990);
        assert_eq!(percentile(&mut samples, 0.50), 1500);
        assert!(h.quantile(0.99) <= 1024, "bucket floor, not the sample");
    }

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn ops_per_s_is_the_median_window_rate_so_one_disturbed_window_does_not_move_it() {
        let mut w = Windows::default();
        for elapsed in [1_000_000, 1_000_000, 9_000_000, 1_000_000, 1_000_000] {
            w.push(1000, elapsed, &mut [], &mut []);
        }
        assert_eq!(w.count(), 5);
        assert_eq!(w.ops_per_s(), 1e6, "the 9 ms window is ignored");
        assert_eq!(w.ops, 5000);
    }
}
