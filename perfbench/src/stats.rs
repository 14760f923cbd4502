//! Sample statistics and the outputs digest.

use std::time::Instant;

/// Nanoseconds elapsed since `t`, saturating at `u64::MAX`.
pub fn ns_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile of `values` (`0 ≤ q ≤ 1`) by linear interpolation
/// between order statistics; `NaN` for an empty sample.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The `q`-quantile of a sample given as `(value, count)` pairs: the
/// smallest value with at least a `q` share of the total count at or
/// below it. `NaN` for an empty sample.
pub fn weighted_quantile(pairs: &[(f64, u64)], q: f64) -> f64 {
    let mut sorted = pairs.to_vec();
    sorted.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = sorted.iter().map(|&(_, c)| c).sum();
    let target = (q.clamp(0.0, 1.0) * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0;
    for (value, count) in sorted {
        seen += count;
        if seen >= target {
            return value;
        }
    }
    f64::NAN
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The arithmetic mean of `values`; `NaN` for an empty sample.
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` does (its default
/// "exclusive" method), so spreads printed here match the ones a
/// Python check computes from the same values. A single value is its
/// own quartiles; `None` for an empty sample.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    match m {
        0 => return None,
        1 => return Some([sorted[0]; 3]),
        _ => {}
    }
    let mut out = [0.0; 3];
    for (i, slot) in out.iter_mut().enumerate() {
        let step = (i + 1) * (m + 1);
        let j = (step / 4).clamp(1, m - 1);
        let delta = step as f64 / 4.0 - j as f64;
        *slot = sorted[j - 1] + (sorted[j] - sorted[j - 1]) * delta;
    }
    Some(out)
}

/// FNV-1a over 64-bit words: a stable fingerprint of a run's outputs
/// (reports and grants), so a change that alters results shows up as a
/// different digest for the same seed.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word into the digest.
    pub fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        assert_eq!(quartiles(&[]), None);
    }

    #[test]
    fn weighted_quantile_counts_repeats() {
        let pairs = [(3.0, 1), (1.0, 5), (2.0, 4)];
        assert_eq!(weighted_quantile(&pairs, 0.5), 1.0);
        assert_eq!(weighted_quantile(&pairs, 0.6), 2.0);
        assert_eq!(weighted_quantile(&pairs, 1.0), 3.0);
        assert_eq!(weighted_quantile(&pairs, 0.0), 1.0);
        assert!(weighted_quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!(quantile(&[], 0.5).is_nan());
    }
}
