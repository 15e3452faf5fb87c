//! Seeded randomness and open-loop arrival schedules. Everything the
//! benchmark feeds the program derives from the `--seed` argument through
//! [`Rng`], so one seed always replays the same inputs and the same
//! arrival times.

use std::time::Duration;

/// SplitMix64: small, fast, and good enough to drive inputs and arrivals.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// An independent stream for one purpose (`tag`) of one seed.
    pub fn derive(seed: u64, tag: &str) -> Rng {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in tag.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        let mut rng = Rng(h);
        rng.next_u64();
        rng
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "below(0)");
        ((self.next_u64() as u128 * n as u128) >> 64) as u64
    }

    /// Whether an event of probability `p` happens.
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }
}

/// Due times (offsets from the phase start) of a Poisson arrival process at
/// `rate` per second over `length`: exponential gaps, so bursts and lulls
/// occur as they would from independent clients.
pub fn poisson(rng: &mut Rng, rate: f64, length: Duration) -> Vec<Duration> {
    assert!(rate > 0.0, "arrival rate must be positive");
    let end = length.as_secs_f64();
    let mut at = 0.0;
    let mut due = Vec::with_capacity((rate * end * 1.1) as usize + 16);
    loop {
        at += -(1.0 - rng.next_f64()).ln() / rate;
        if at >= end {
            return due;
        }
        due.push(Duration::from_secs_f64(at));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(&mut Rng::derive(7, "mul"), 500.0, Duration::from_secs(2));
        let b = poisson(&mut Rng::derive(7, "mul"), 500.0, Duration::from_secs(2));
        assert_eq!(a, b);
        let c = poisson(&mut Rng::derive(8, "mul"), 500.0, Duration::from_secs(2));
        assert_ne!(a, c);
        let d = poisson(&mut Rng::derive(7, "update"), 500.0, Duration::from_secs(2));
        assert_ne!(a, d);
    }

    #[test]
    fn schedule_is_ordered_and_inside_the_phase() {
        let due = poisson(&mut Rng::derive(3, "t"), 1000.0, Duration::from_millis(500));
        assert!(due.windows(2).all(|w| w[0] <= w[1]));
        assert!(due.iter().all(|&t| t < Duration::from_millis(500)));
    }

    #[test]
    fn arrival_count_and_gaps_match_the_rate() {
        let rate = 400.0;
        let secs = 50.0;
        let due = poisson(&mut Rng::derive(11, "t"), rate, Duration::from_secs_f64(secs));
        let expected = rate * secs;
        // Poisson count: standard deviation sqrt(20000) ~ 141; allow 5 sigma.
        assert!((due.len() as f64 - expected).abs() < 5.0 * expected.sqrt(), "{}", due.len());
        // Exponential gaps: coefficient of variation near 1.
        let gaps: Vec<f64> = due.windows(2).map(|w| (w[1] - w[0]).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        let cv = var.sqrt() / mean;
        assert!((mean * rate - 1.0).abs() < 0.05, "mean gap {mean}");
        assert!((cv - 1.0).abs() < 0.05, "cv {cv}");
    }

    #[test]
    fn below_and_chance_stay_in_range() {
        let mut rng = Rng::derive(5, "t");
        let mut hits = 0;
        for _ in 0..10_000 {
            assert!(rng.below(17) < 17);
            let u = rng.next_f64();
            assert!((0.0..1.0).contains(&u));
            hits += usize::from(rng.chance(0.25));
        }
        assert!((2200..2800).contains(&hits), "{hits}");
    }
}
