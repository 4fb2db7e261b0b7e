//! Deterministic randomness for reproducible experiments.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A seeded random-number generator wrapper.
///
/// All stochastic behaviour in the simulator (packet loss, workload
/// inter-arrival times, admin corruption draws in the quorum experiment)
/// flows through a [`DetRng`] so a single seed reproduces a whole experiment.
///
/// # Examples
///
/// ```
/// use guillotine_types::DetRng;
///
/// let mut a = DetRng::seed(42);
/// let mut b = DetRng::seed(42);
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct DetRng {
    inner: StdRng,
}

impl DetRng {
    /// Creates a generator from a 64-bit seed.
    pub fn seed(seed: u64) -> Self {
        DetRng {
            inner: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent child generator; useful for giving each
    /// subsystem its own stream while preserving determinism.
    pub fn fork(&mut self, label: u64) -> DetRng {
        let child_seed = self
            .inner
            .gen::<u64>()
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(label);
        DetRng::seed(child_seed)
    }

    /// Returns a uniformly random `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.gen()
    }

    /// Returns a uniformly random value in `[0, bound)`. Returns 0 when
    /// `bound` is 0.
    pub fn below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.inner.gen_range(0..bound)
        }
    }

    /// Returns a uniformly random value in `[lo, hi)`; `lo` if the range is
    /// empty.
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        if hi <= lo {
            lo
        } else {
            self.inner.gen_range(lo..hi)
        }
    }

    /// Returns a uniformly random `f64` in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.inner.gen::<f64>() < p
    }

    /// Draws a sample from an exponential distribution with the given mean.
    ///
    /// Used for open-loop workload inter-arrival times.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        let u: f64 = self.inner.gen_range(f64::MIN_POSITIVE..1.0);
        -mean * u.ln()
    }

    /// Shuffles a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        if items.is_empty() {
            return;
        }
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let i = self.below(items.len() as u64) as usize;
            Some(&items[i])
        }
    }

    /// Exposes the underlying `rand` generator for APIs that need it.
    pub fn rng(&mut self) -> &mut StdRng {
        &mut self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_different_stream() {
        let mut a = DetRng::seed(7);
        let mut b = DetRng::seed(8);
        let va: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn below_respects_bound() {
        let mut r = DetRng::seed(1);
        for _ in 0..1000 {
            assert!(r.below(13) < 13);
        }
        assert_eq!(r.below(0), 0);
    }

    #[test]
    fn chance_extremes() {
        let mut r = DetRng::seed(2);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn exponential_is_positive_with_sane_mean() {
        let mut r = DetRng::seed(3);
        let n = 20_000;
        let mean = 5.0;
        let sum: f64 = (0..n).map(|_| r.exponential(mean)).sum();
        let avg = sum / n as f64;
        assert!(avg > 4.0 && avg < 6.0, "avg={avg}");
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = DetRng::seed(4);
        let mut v: Vec<u32> = (0..50).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<u32>>());
    }

    #[test]
    fn fork_produces_independent_but_deterministic_children() {
        let mut a = DetRng::seed(9);
        let mut b = DetRng::seed(9);
        let mut ca = a.fork(1);
        let mut cb = b.fork(1);
        assert_eq!(ca.next_u64(), cb.next_u64());
    }
}
