//! Exact order statistics over raw samples, and the benchmark's seeded RNG.
//!
//! Quantiles are nearest-rank over the sorted samples, so every reported
//! value is one that was actually measured, and each comes with the sample
//! count and the number of samples beyond it (a p99 over 150 samples has
//! one sample beyond it and should not be trusted).

/// A quantile of a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy)]
pub struct Quantile {
    pub value: f64,
    pub n: usize,
    pub beyond: usize,
}

/// Nearest-rank `q`-quantile of `samples` (`0 < q <= 1`); `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<Quantile> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    Some(Quantile {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `samples`, 0 when empty.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).map_or(0.0, |q| q.value)
}

/// splitmix64: small, seedable, and identical on every platform, so one
/// `--seed` always yields the same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles_are_measured_values() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        let p50 = quantile(&s, 0.5).unwrap();
        assert_eq!((p50.value, p50.n, p50.beyond), (50.0, 100, 50));
        let p99 = quantile(&s, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(quantile(&s, 1.0).unwrap().value, 100.0);
        assert!(quantile(&[], 0.5).is_none());
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7).next_u64(), Rng::new(8).next_u64());
    }
}
