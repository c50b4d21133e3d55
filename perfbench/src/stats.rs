//! Seeded randomness, quantiles and the estimators the metrics use.

use std::collections::BTreeMap;
use std::time::Instant;

/// SplitMix64: a tiny, fully specified generator, so one seed gives
/// the same draw on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    /// A generator for one named purpose, independent of the others
    /// drawn from the same seed.
    pub fn derive(seed: u64, stream: u64) -> Rng {
        let mut r = Rng::new(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ stream);
        r.next_u64();
        r
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

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below(u64::from(hi - lo) + 1) as u32
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Quantile `q` of `values` with linear interpolation between order
/// statistics (the "inclusive" definition).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The estimator every absolute time in the benchmark reports: the
/// fastest of its samples. The host's memory system switches between
/// speeds for seconds at a time and drifts over minutes, and it only
/// ever slows work down, so a run's median moves with the share of the
/// run spent slow. Over many samples spread across the run, the
/// minimum repeats best of the quantiles tried (see README.md, "Host
/// behaviour").
pub fn fastest(values: &[f64]) -> f64 {
    quantile(values, 0.0)
}

/// The estimator for a run's operation latency: each kind of
/// operation (one key, comparable work) gets the fastest of its own
/// samples, and the run reports their mean weighted by how often each
/// kind ran. Taking the minimum per kind keeps cheap operations from
/// standing in for expensive ones; the weights keep the mix.
pub fn per_kind_fastest(samples: &[(usize, f64)]) -> f64 {
    let kinds = by_kind(samples);
    kinds.values().map(|v| fastest(v) * v.len() as f64).sum::<f64>() / samples.len() as f64
}

/// Latency samples grouped by their operation key.
pub fn by_kind(samples: &[(usize, f64)]) -> BTreeMap<usize, Vec<f64>> {
    let mut out: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for &(k, v) in samples {
        out.entry(k).or_default().push(v);
    }
    out
}

/// The highest percentile with at least ten samples beyond it, and its
/// value: the tail the benchmark reports next to every `op_ms`.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 11 {
        return None;
    }
    let pct = (100.0 * (n - 10) as f64 / n as f64).floor();
    Some((pct, quantile(values, pct / 100.0)))
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Times `f` in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, ms_since(t))
}

/// The host-mode diagnostic: a fixed kernel owned by the benchmark,
/// timed in ms — xorshift-driven read-modify-writes scattered over a
/// 4 MiB table. The host's slow mode is a slower memory system (a
/// kernel that stays in L1 does not see it), so the kernel walks a
/// table larger than the per-core caches. It shows which mode a run
/// measured in; it never scales another metric, because the modes
/// slow different code by different factors.
pub fn ref_kernel() -> f64 {
    const SLOTS: usize = 1 << 20;
    thread_local! {
        static TABLE: std::cell::RefCell<Vec<u32>> = std::cell::RefCell::new(vec![0; SLOTS]);
    }
    TABLE.with(|table| {
        let mut table = table.borrow_mut();
        let t = Instant::now();
        let mut x = 0x2545_f491u32;
        for i in 0..200_000u32 {
            x ^= x << 13;
            x ^= x >> 17;
            x ^= x << 5;
            let slot = x as usize & (SLOTS - 1);
            table[slot] = table[slot].wrapping_add(i);
        }
        std::hint::black_box(&*table);
        ms_since(t)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.25), 2.0);
        assert!((quantile(&v, 0.1) - 1.4).abs() < 1e-12);
        assert_eq!(fastest(&v), 1.0);
    }

    #[test]
    fn per_kind_fastest_weighs_each_kind_by_its_count() {
        let mut samples = vec![(0, 10.0); 9];
        samples.push((0, 1.0));
        samples.extend([(1, 4.0), (1, 5.0)]);
        // Key 0's fastest is 1.0 over ten samples, key 1's 4.0 over two.
        assert!((per_kind_fastest(&samples) - (10.0 * 1.0 + 2.0 * 4.0) / 12.0).abs() < 1e-9);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (0..100).map(f64::from).collect();
        let (pct, value) = tail(&v).unwrap();
        assert_eq!(pct, 90.0);
        assert!((value - 89.1).abs() < 1e-9);
    }

    #[test]
    fn rng_is_reproducible_and_seed_sensitive() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::derive(1, 0).next_u64(), Rng::derive(2, 0).next_u64());
        assert_ne!(Rng::derive(1, 0).next_u64(), Rng::derive(1, 1).next_u64());
    }
}
