//! Seeded inputs: a small deterministic generator and the open-loop
//! arrival schedule built from it.

use std::time::Duration;

/// SplitMix64: a tiny, fast, well-mixed generator. The benchmark draws
/// every random choice from it so a seed fixes the inputs exactly.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator whose stream is fixed by `seed`.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `(0, 1]` (never 0, so `ln` is finite).
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64).ceil() as usize - 1
    }
}

/// One request of an open-loop schedule.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Arrival {
    /// When it is due, from the phase start.
    pub at: Duration,
    /// Index of the model it targets.
    pub model: usize,
    /// Index of the pregenerated input it sends.
    pub input: usize,
}

/// Requests per block of the model mix: every block of this many
/// consecutive arrivals carries each model in its exact share (rounded),
/// in a seeded random order, so a run's realized mix does not drift from
/// the nominal one.
const MIX_BLOCK: usize = 20;

/// `count` Poisson arrivals at `rate` requests per second: exponential
/// gaps, models in the proportions of `mix` (stratified over blocks of
/// [`MIX_BLOCK`] arrivals), and a uniformly chosen input out of `inputs`.
/// The same `(seed, rate, count)` always gives the same schedule.
pub fn poisson(seed: u64, rate: f64, count: usize, mix: &[f64], inputs: usize) -> Vec<Arrival> {
    assert!(rate > 0.0 && !mix.is_empty() && inputs > 0);
    let block = block_models(mix);
    let mut rng = SplitMix64::new(seed);
    let mut order = Vec::with_capacity(count + MIX_BLOCK);
    while order.len() < count {
        let mut b = block.clone();
        for i in (1..b.len()).rev() {
            b.swap(i, rng.below(i + 1));
        }
        order.extend(b);
    }
    let mut t = 0.0f64;
    order
        .into_iter()
        .take(count)
        .map(|model| {
            t += -rng.unit().ln() / rate;
            Arrival {
                at: Duration::from_secs_f64(t),
                model,
                input: rng.below(inputs),
            }
        })
        .collect()
}

/// One block's models: `round(share · MIX_BLOCK)` of each, by largest
/// remainder so the block is exactly [`MIX_BLOCK`] long.
fn block_models(mix: &[f64]) -> Vec<usize> {
    let total: f64 = mix.iter().sum();
    let exact: Vec<f64> = mix.iter().map(|p| p / total * MIX_BLOCK as f64).collect();
    let mut counts: Vec<usize> = exact.iter().map(|x| x.floor() as usize).collect();
    let mut by_remainder: Vec<usize> = (0..mix.len()).collect();
    by_remainder
        .sort_by(|&a, &b| (exact[b] - exact[b].floor()).total_cmp(&(exact[a] - exact[a].floor())));
    let short = MIX_BLOCK - counts.iter().sum::<usize>();
    for &m in by_remainder.iter().take(short) {
        counts[m] += 1;
    }
    counts
        .iter()
        .enumerate()
        .flat_map(|(m, &c)| std::iter::repeat_n(m, c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let a = poisson(42, 500.0, 2000, &[0.7, 0.3], 16);
        let b = poisson(42, 500.0, 2000, &[0.7, 0.3], 16);
        assert_eq!(a, b);
        let c = poisson(43, 500.0, 2000, &[0.7, 0.3], 16);
        assert_ne!(a, c);
    }

    #[test]
    fn schedule_has_the_offered_rate_and_mix() {
        let n = 20_000;
        let s = poisson(7, 400.0, n, &[0.7, 0.3], 8);
        assert!(s.windows(2).all(|w| w[0].at <= w[1].at));
        let span = s.last().expect("non-empty").at.as_secs_f64();
        let rate = n as f64 / span;
        assert!((rate - 400.0).abs() < 0.03 * 400.0, "rate {rate}");
        // Stratified mix: every block of 20 holds exactly 14 + 6.
        for block in s.chunks(20) {
            assert_eq!(block.iter().filter(|a| a.model == 1).count(), 6);
        }
        assert!(s.iter().all(|a| a.input < 8));
        assert!((0..8).all(|i| s.iter().any(|a| a.input == i)));
    }

    #[test]
    fn block_shares_round_by_largest_remainder() {
        assert_eq!(
            block_models(&[0.7, 0.3])
                .iter()
                .filter(|&&m| m == 0)
                .count(),
            14
        );
        let b = block_models(&[1.0, 1.0, 1.0]);
        assert_eq!(b.len(), 20);
        assert_eq!(b.iter().filter(|&&m| m == 2).count(), 6);
    }

    #[test]
    fn unit_and_below_stay_in_range() {
        let mut r = SplitMix64::new(1);
        for _ in 0..10_000 {
            let u = r.unit();
            assert!(u > 0.0 && u <= 1.0);
            assert!(r.below(3) < 3);
        }
    }
}
