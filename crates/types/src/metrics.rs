//! Lightweight metrics containers used by experiments and benchmarks.

/// A simple monotonically increasing counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(0)
    }

    /// Increments by one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Increments by `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Returns the current count.
    pub fn get(&self) -> u64 {
        self.0
    }
}

/// A level gauge with a high-water mark.
///
/// Unlike a [`Counter`], a gauge goes both up and down (queue depth,
/// in-flight requests) while remembering the highest level it ever reached.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Gauge {
    current: u64,
    max: u64,
}

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Self {
        Gauge::default()
    }

    /// Raises the level by `n`, updating the high-water mark.
    pub fn raise(&mut self, n: u64) {
        self.current = self.current.saturating_add(n);
        self.max = self.max.max(self.current);
    }

    /// Lowers the level by `n`, saturating at zero.
    pub fn lower(&mut self, n: u64) {
        self.current = self.current.saturating_sub(n);
    }

    /// Sets the level directly, updating the high-water mark.
    pub fn set(&mut self, level: u64) {
        self.current = level;
        self.max = self.max.max(level);
    }

    /// The current level.
    pub fn current(&self) -> u64 {
        self.current
    }

    /// The highest level ever set.
    pub fn high_water(&self) -> u64 {
        self.max
    }
}

/// Streaming summary statistics (count, mean, min, max, variance).
#[derive(Debug, Clone, Default)]
pub struct Summary {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Summary {
    /// Creates an empty summary.
    pub fn new() -> Self {
        Summary {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds an observation (Welford's online algorithm).
    pub fn observe(&mut self, x: f64) {
        self.count += 1;
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of observations (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance of observations (0 if fewer than 2).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum observation (0 if empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum observation (0 if empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// A fixed-bucket histogram with power-of-two bucket boundaries.
///
/// Suited to latency measurements spanning several orders of magnitude
/// (nanoseconds to seconds) without needing dynamic allocation per sample.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// `buckets[i]` counts samples in `[2^i, 2^(i+1))`; bucket 0 also counts 0.
    buckets: Vec<u64>,
    total: u64,
    sum: u128,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram covering the full `u64` range.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; 64],
            total: 0,
            sum: 0,
        }
    }

    /// Records a sample.
    pub fn record(&mut self, value: u64) {
        let idx = if value == 0 {
            0
        } else {
            63 - value.leading_zeros() as usize
        };
        self.buckets[idx] += 1;
        self.total += 1;
        self.sum += value as u128;
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Mean of recorded samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Approximate quantile, linearly interpolated within the power-of-two
    /// bucket containing the q-quantile (samples are assumed uniformly
    /// distributed inside a bucket, which bounds the error by the bucket
    /// width over its count instead of a whole bucket). `q` is clamped to
    /// `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.total == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (((self.total as f64) * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen + c >= target {
                // The target rank lands inside bucket i, which covers
                // [lo, hi]; interpolate by its rank within the bucket.
                let lo = if i == 0 { 0u64 } else { 1u64 << i };
                let hi = if i >= 63 {
                    u64::MAX
                } else {
                    (1u64 << (i + 1)) - 1
                };
                // Midpoint convention: rank r of c sits at (r - 0.5)/c of
                // the bucket, so a lone sample reads as the bucket middle
                // rather than its upper bound.
                let into = ((target - seen) as f64 - 0.5) / c as f64;
                let width = (hi - lo) as f64;
                return lo.saturating_add((width * into) as u64);
            }
            seen += c;
        }
        u64::MAX
    }

    /// Merges another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += *b;
        }
        self.total += other.total;
        self.sum += other.sum;
    }

    /// Sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The per-bucket counts (`buckets[i]` covers `[2^i, 2^(i+1))`, with
    /// bucket 0 also counting zero).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// A compact, stable text form: `sum;idx:count,idx:count,...` with only
    /// the non-empty buckets listed in ascending index order. Used by the
    /// journal's snapshot encoding and the metrics artifacts.
    pub fn encode_sparse(&self) -> String {
        let mut out = self.sum.to_string();
        out.push(';');
        let mut first = true;
        for (i, &c) in self.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if !first {
                out.push(',');
            }
            first = false;
            out.push_str(&i.to_string());
            out.push(':');
            out.push_str(&c.to_string());
        }
        out
    }

    /// Decodes [`Histogram::encode_sparse`] output. `None` on any malformed
    /// field, out-of-range bucket index, or count overflow.
    pub fn decode_sparse(text: &str) -> Option<Histogram> {
        let (sum, buckets) = text.split_once(';')?;
        let mut hist = Histogram::new();
        hist.sum = sum.parse().ok()?;
        if !buckets.is_empty() {
            for part in buckets.split(',') {
                let (idx, count) = part.split_once(':')?;
                let idx: usize = idx.parse().ok()?;
                let count: u64 = count.parse().ok()?;
                let slot = hist.buckets.get_mut(idx)?;
                *slot = slot.checked_add(count)?;
                hist.total = hist.total.checked_add(count)?;
            }
        }
        Some(hist)
    }
}

/// Estimates an event rate over a sliding window of simulated time.
///
/// Samples are kept in a ring and pruned from the front as they age out,
/// so recording is amortized O(1) per event — each sample is pushed once
/// and popped at most once — instead of the O(n) full-scan `retain` the
/// first version paid on every record.
#[derive(Debug, Clone, Default)]
pub struct RateEstimator {
    window_nanos: u64,
    samples: std::collections::VecDeque<u64>,
}

impl RateEstimator {
    /// Creates an estimator with the given window length in nanoseconds.
    pub fn new(window_nanos: u64) -> Self {
        RateEstimator {
            window_nanos: window_nanos.max(1),
            samples: std::collections::VecDeque::new(),
        }
    }

    /// Records an event at simulated time `now_nanos`.
    ///
    /// Event times are expected to be non-decreasing (simulated clocks never
    /// run backwards); an out-of-order sample older than the window is
    /// pruned on the next in-order record, so estimates stay correct either
    /// way.
    pub fn record(&mut self, now_nanos: u64) {
        self.samples.push_back(now_nanos);
        let cutoff = now_nanos.saturating_sub(self.window_nanos);
        while matches!(self.samples.front(), Some(&t) if t < cutoff) {
            self.samples.pop_front();
        }
    }

    /// Returns the current events-per-second estimate at `now_nanos`.
    pub fn rate_per_sec(&self, now_nanos: u64) -> f64 {
        let cutoff = now_nanos.saturating_sub(self.window_nanos);
        let n = self.samples.iter().filter(|&&t| t >= cutoff).count();
        n as f64 * 1e9 / self.window_nanos as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_tracks_level_and_high_water() {
        let mut g = Gauge::new();
        g.raise(3);
        g.lower(2);
        assert_eq!(g.current(), 1);
        assert_eq!(g.high_water(), 3);
        g.set(7);
        g.lower(100);
        assert_eq!(g.current(), 0);
        assert_eq!(g.high_water(), 7);
    }

    #[test]
    fn summary_statistics_are_correct() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.observe(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-9);
        assert!((s.stddev() - 2.0).abs() < 1e-9);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn empty_summary_is_zeroed() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert!((h.mean() - 500.5).abs() < 1e-9);
        // With in-bucket interpolation the p50 of a uniform 1..=1000 spread
        // lands within a couple of samples of the true median, not at the
        // containing bucket's upper bound (511 here, 1023 before the fix).
        let p50 = h.quantile(0.5);
        assert!((499..=502).contains(&p50), "p50={p50}");
        // p90's bucket [512, 1023] only holds samples up to 1000, so the
        // uniform-within-bucket assumption overshoots slightly (~918); the
        // bound still beats the pre-fix answer of 1023 by a wide margin.
        let p90 = h.quantile(0.9);
        assert!((890..=925).contains(&p90), "p90={p90}");
        assert!(h.quantile(1.0) >= 1000);
    }

    #[test]
    fn quantile_interpolates_within_a_single_bucket() {
        let mut h = Histogram::new();
        // 100 samples, all in bucket [64, 128): the quantile must walk the
        // bucket instead of pinning to 127.
        for _ in 0..100 {
            h.record(100);
        }
        let p10 = h.quantile(0.1);
        let p90 = h.quantile(0.9);
        assert!(p10 < p90, "p10={p10} p90={p90}");
        assert!((64..=127).contains(&p10));
        assert!((64..=127).contains(&p90));
        // Degenerate cases keep their floors.
        assert_eq!(Histogram::new().quantile(0.5), 0);
        let mut zeros = Histogram::new();
        zeros.record(0);
        assert_eq!(zeros.quantile(0.99), 0);
    }

    #[test]
    fn histogram_merge_adds_counts() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        a.record(10);
        b.record(20);
        a.merge(&b);
        assert_eq!(a.count(), 2);
    }

    #[test]
    fn histogram_sparse_encoding_round_trips() {
        let mut h = Histogram::new();
        for v in [0u64, 1, 7, 900, 900, u64::MAX] {
            h.record(v);
        }
        let encoded = h.encode_sparse();
        let decoded = Histogram::decode_sparse(&encoded).expect("well-formed");
        assert_eq!(decoded, h);
        // Empty histograms and malformed text are handled.
        let empty = Histogram::new();
        assert_eq!(
            Histogram::decode_sparse(&empty.encode_sparse()),
            Some(empty)
        );
        assert_eq!(Histogram::decode_sparse(""), None);
        assert_eq!(Histogram::decode_sparse("0;64:1"), None);
        assert_eq!(Histogram::decode_sparse("0;x:1"), None);
    }

    #[test]
    fn rate_estimator_matches_retain_reference() {
        // Behavior equivalence against the original O(n) `retain`
        // implementation, over a mixed record/read schedule with bursts,
        // gaps and repeated timestamps.
        struct Reference {
            window: u64,
            samples: Vec<u64>,
        }
        impl Reference {
            fn record(&mut self, now: u64) {
                self.samples.push(now);
                let cutoff = now.saturating_sub(self.window);
                self.samples.retain(|&t| t >= cutoff);
            }
            fn rate_per_sec(&self, now: u64) -> f64 {
                let cutoff = now.saturating_sub(self.window);
                let n = self.samples.iter().filter(|&&t| t >= cutoff).count();
                n as f64 * 1e9 / self.window as f64
            }
        }
        let window = 1_000_000u64;
        let mut fast = RateEstimator::new(window);
        let mut reference = Reference {
            window,
            samples: Vec::new(),
        };
        let mut now = 0u64;
        for step in 0u64..500 {
            // A deterministic mix of dense bursts and long quiet gaps.
            now += match step % 7 {
                0 => 0,
                1..=3 => 1_000,
                4 => 250_000,
                _ => 2_000_000,
            };
            fast.record(now);
            reference.record(now);
            let probe = now + (step % 3) * 400_000;
            assert_eq!(
                fast.rate_per_sec(probe),
                reference.rate_per_sec(probe),
                "diverged at step {step} (now={now})"
            );
        }
    }

    #[test]
    fn rate_estimator_windows_out_old_events() {
        let mut r = RateEstimator::new(1_000_000_000);
        for i in 0..100 {
            r.record(i * 10_000_000);
        }
        let rate = r.rate_per_sec(990_000_000);
        assert!(rate > 50.0, "rate={rate}");
        let much_later = 10_000_000_000;
        assert_eq!(r.rate_per_sec(much_later), 0.0);
    }
}
