//! Timing samples and the percentile rule.
//!
//! A timing is reported as a median plus a tail percentile, and a
//! percentile is only reported when at least [`MIN_BEYOND`] samples lie
//! beyond it: a "p99" over 150 samples would be the second-slowest sample,
//! not a percentile.

/// Samples that must lie strictly above a reported percentile's rank.
pub const MIN_BEYOND: usize = 10;

/// Percentiles [`Samples::at_or_below`] falls back through, highest first.
const LADDER: [f64; 7] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0, 0.0];

/// Nearest-rank index (0-based) of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    let r = ((p / 100.0) * n as f64).ceil() as usize;
    r.clamp(1, n) - 1
}

/// `true` when percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn supported(n: usize, p: f64) -> bool {
    n > 0 && n - 1 - rank(n, p) >= MIN_BEYOND
}

/// One reported percentile: its value, which percentile it is, and how
/// many samples it was taken from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quantile {
    /// Percentile actually reported (may be below the one asked for).
    pub p: f64,
    /// Sample value at that percentile.
    pub value: f64,
    /// Sample count behind it.
    pub n: usize,
}

/// A set of samples of one timing (any unit; the caller keeps it).
#[derive(Clone, Debug, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    /// Adds one sample.
    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    /// Adds every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// `true` with no samples.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Sum of the samples, added in ascending order so it repeats exactly.
    pub fn sum(&self) -> f64 {
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        sorted.iter().fold(0.0, |acc, v| acc + v)
    }

    /// Percentile `p` if the samples support it (see [`supported`]).
    pub fn percentile(&self, p: f64) -> Option<Quantile> {
        let n = self.0.len();
        if !supported(n, p) {
            return None;
        }
        let mut sorted = self.0.clone();
        sorted.sort_by(f64::total_cmp);
        Some(Quantile { p, value: sorted[rank(n, p)], n })
    }

    /// Percentile `p`, or the highest percentile below it that the samples
    /// support; `None` with fewer than `MIN_BEYOND + 1` samples.
    pub fn at_or_below(&self, p: f64) -> Option<Quantile> {
        std::iter::once(p)
            .chain(LADDER.iter().copied().filter(|&q| q < p))
            .find_map(|q| self.percentile(q))
    }
}

/// Plain median of a few repeated measurements (set-up repetitions), where
/// the tail rule does not apply.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples(n: usize) -> Samples {
        let mut s = Samples::default();
        for i in 1..=n {
            s.push(i as f64);
        }
        s
    }

    #[test]
    fn a_percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000: rank 990, ten samples (991..=1000) beyond.
        assert_eq!(samples(1000).percentile(99.0).map(|q| q.value), Some(990.0));
        assert!(samples(999).percentile(99.0).is_none());
        // p50 needs 20 samples: rank 10, ten beyond.
        assert_eq!(samples(20).percentile(50.0).map(|q| q.value), Some(10.0));
        assert!(samples(19).percentile(50.0).is_none());
        assert!(samples(0).percentile(50.0).is_none());
    }

    #[test]
    fn too_few_samples_fall_back_to_a_supported_percentile() {
        let q = samples(500).at_or_below(99.0).unwrap();
        assert_eq!((q.p, q.value, q.n), (95.0, 475.0, 500));
        assert!(samples(10).at_or_below(99.0).is_none());
        assert_eq!(samples(11).at_or_below(99.0).map(|q| q.p), Some(0.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
