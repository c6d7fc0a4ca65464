//! Small self-contained helpers: the input generator's RNG, percentiles,
//! the output digest, and the process memory high-water mark.
//!
//! Nothing here calls into the measured crates, so a change to the
//! program cannot move how inputs are drawn or how outputs are digested.

use std::time::Instant;

/// SplitMix64: the benchmark's own input generator, seeded from
/// `--seed`. Same seed, same inputs.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    /// An independent stream for one purpose (a client, a workload).
    pub fn fork(&self, label: u64) -> Rng {
        let mut r = Rng(self.0 ^ label.wrapping_mul(0xd1b5_4a32_d192_ed03));
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

    /// A request seed. Kept below 2^53: the request JSON decoder reads
    /// numbers as f64, so larger seeds do not survive a document round
    /// trip (they are rounded, not rejected).
    pub fn request_seed(&mut self) -> u64 {
        self.next_u64() >> 11
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn pick<T: Copy>(&mut self, items: &[T]) -> T {
        items[self.below(items.len())]
    }
}

/// Zipf(s = 1) over ranks `0..n`: rank 0 is the most popular.
pub fn zipf_rank(rng: &mut Rng, n: usize) -> usize {
    let h: f64 = (1..=n).map(|k| 1.0 / k as f64).sum();
    let mut x = rng.unit() * h;
    for k in 1..=n {
        x -= 1.0 / k as f64;
        if x <= 0.0 {
            return k - 1;
        }
    }
    n - 1
}

/// FNV-1a 64 over `bytes`, continuing from `state`.
pub fn fnv1a(state: u64, bytes: &[u8]) -> u64 {
    let mut h = state;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

pub fn digest(bytes: &[u8]) -> u64 {
    fnv1a(FNV_OFFSET, bytes)
}

/// An empty record vector with room for `n` entries. Records are
/// reserved up front: growing a vector copies it, which briefly doubles
/// its resident memory and would make peak RSS depend on run length.
/// Untouched capacity is not resident.
pub fn records<T>(n: usize) -> Vec<T> {
    Vec::with_capacity(n)
}

/// Nearest-rank percentile of already sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

pub fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len().max(1) as f64
}

pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    if s.is_empty() {
        return 0.0;
    }
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_nanos() as f64 / 1e3
}

/// Times `f` and returns its result with the elapsed microseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, us_since(t))
}

/// The process's resident-set high-water mark (`VmHWM`), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `setup` `n` times and returns the median seconds plus the last
/// value built, so set-up cost is reported as a median, not one sample.
pub fn median_setup<T>(n: usize, mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(n);
    let mut last = None;
    for i in 0..n {
        let t = Instant::now();
        let v = setup(i);
        secs.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (median(&secs), last.expect("n >= 1"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(digest(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(digest(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 50.0), 50.0);
        assert_eq!(percentile(&s, 99.0), 99.0);
        assert_eq!(median(&[3.0, 1.0, 2.0, 4.0]), 2.5);
    }

    #[test]
    fn zipf_prefers_low_ranks() {
        let mut rng = Rng::new(1);
        let hits = (0..10_000).filter(|_| zipf_rank(&mut rng, 24) == 0).count();
        assert!(hits > 2000, "{hits}");
    }
}
