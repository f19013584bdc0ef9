//! A seeded SplitMix64 stream: the benchmark's only source of input
//! randomness, so the same `--seed` always yields the same inputs.

/// SplitMix64 (Steele, Lea & Flood 2014).
pub struct Rng(u64);

impl Rng {
    /// A stream determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self(seed ^ 0x6A09_E667_F3BC_C909)
    }

    /// Next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so its logarithm is finite).
    pub fn unit_open0(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Exponential inter-arrival time, in seconds, of a Poisson process
    /// with `rate` events per second.
    pub fn exp_secs(&mut self, rate: f64) -> f64 {
        -self.unit_open0().ln() / rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        let mut c = Rng::new(8);
        let xs: Vec<u64> = (0..16).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..16).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
    }

    #[test]
    fn exponential_mean_matches_rate() {
        let mut r = Rng::new(1);
        let n = 200_000;
        let mean = (0..n).map(|_| r.exp_secs(1000.0)).sum::<f64>() / n as f64;
        assert!((mean - 1e-3).abs() < 2e-5, "mean {mean}");
        assert!((0..1000).all(|_| r.below(3) < 3));
    }
}
