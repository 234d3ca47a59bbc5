//! Order statistics and the seeded generator the workloads draw from.

use std::time::Instant;

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks; `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// A run's completions and work samples, cut into equal-count chunks in
/// time order so that each figure can be reported as the median over
/// chunks: a burst of outside load (CPU or disk) then moves one chunk,
/// not the run's figure.
#[derive(Debug, Clone)]
pub struct Slices {
    start: Instant,
    count: usize,
    /// (seconds since `start` at completion, latency in seconds) per unit.
    done: Vec<(f64, f64)>,
    /// (seconds since `start`, work done, seconds busy on that work).
    work: Vec<(f64, f64, f64)>,
}

/// The full equal-count chunks of `items` sorted by their first field.
fn chunks<T: Clone>(items: &[T], count: usize, at: impl Fn(&T) -> f64) -> Vec<Vec<T>> {
    let mut sorted = items.to_vec();
    sorted.sort_by(|a, b| at(a).total_cmp(&at(b)));
    let size = (sorted.len() / count).max(1);
    sorted
        .chunks(size)
        .filter(|c| c.len() == size)
        .map(<[T]>::to_vec)
        .collect()
}

impl Slices {
    pub fn new(start: Instant, count: usize) -> Self {
        Slices {
            start,
            count,
            done: Vec::new(),
            work: Vec::new(),
        }
    }

    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }

    /// One unit (lifecycle, planned cell) that took `latency` seconds
    /// completed now.
    pub fn unit(&mut self, latency: f64) {
        let t = self.now();
        self.done.push((t, latency));
    }

    /// `work` units of work (combinations) done in `busy` seconds.
    pub fn work(&mut self, work: f64, busy: f64) {
        let t = self.now();
        self.work.push((t, work, busy));
    }

    pub fn units(&self) -> usize {
        self.done.len()
    }

    pub fn merge(&mut self, other: &Slices) {
        self.done.extend(&other.done);
        self.work.extend(&other.work);
    }

    /// Median over chunks of units per second of wall time.
    pub fn unit_rate(&self) -> f64 {
        let mut from = 0.0;
        let rates: Vec<f64> = chunks(&self.done, self.count, |d| d.0)
            .iter()
            .map(|c| {
                let to = c[c.len() - 1].0;
                let rate = c.len() as f64 / (to - from);
                from = to;
                rate
            })
            .collect();
        median(&rates)
    }

    /// Median over chunks of the `q`-quantile of unit latency, seconds.
    pub fn unit_quantile(&self, q: f64) -> f64 {
        let per: Vec<f64> = chunks(&self.done, self.count, |d| d.0)
            .iter()
            .map(|c| quantile(&c.iter().map(|d| d.1).collect::<Vec<_>>(), q))
            .collect();
        median(&per)
    }

    /// Median over chunks of work per busy second.
    pub fn work_rate(&self) -> f64 {
        let per: Vec<f64> = chunks(&self.work, self.count, |w| w.0)
            .iter()
            .map(|c| c.iter().map(|w| w.1).sum::<f64>() / c.iter().map(|w| w.2).sum::<f64>())
            .collect();
        median(&per)
    }

    /// Median over chunks of the `q`-quantile of busy seconds per sample.
    pub fn busy_quantile(&self, q: f64) -> f64 {
        let per: Vec<f64> = chunks(&self.work, self.count, |w| w.0)
            .iter()
            .map(|c| quantile(&c.iter().map(|w| w.2).collect::<Vec<_>>(), q))
            .collect();
        median(&per)
    }
}

/// SplitMix64: a tiny deterministic generator, so the inputs depend on
/// `--seed` alone and not on any library's stream layout.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn chunk_medians_ignore_one_slow_chunk() {
        let mut s = Slices::new(Instant::now(), 4);
        s.done = (0..40)
            .map(|i| (i as f64 * 0.1 + 0.1, if i < 10 { 9.0 } else { 1.0 }))
            .collect();
        assert_eq!(s.unit_quantile(0.5), 1.0);
        assert!((s.unit_rate() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn rng_is_seeded() {
        let a: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        let b: Vec<u64> = (0..4)
            .scan(Rng::new(7), |r, _| Some(r.next_u64()))
            .collect();
        assert_eq!(a, b);
        assert_ne!(a[0], Rng::new(8).next_u64());
    }
}
