//! Seed-level bootstrap statistics: a deterministic resampler, percentile
//! confidence intervals, and the grouped refit driver the scaling-fit CIs
//! run on.
//!
//! Quick-mode scaling fits regress over ~4 n-points whose per-point means
//! aggregate only a couple of seeds — noisy enough that a fitted exponent
//! (and with it the growth class the regression gate diffs) can drift on
//! an incidental seed change. Instead of hand-tuned tolerance bands,
//! [`crate::analysis`] bootstraps every fit: resample each n-point's
//! per-seed measurements with replacement, recompute the point means,
//! refit the curve, and take percentile CIs over the refitted exponents.
//! The gate then compares *intervals*, not point estimates — a drift only
//! fails when the baseline and fresh CIs exclude each other.
//!
//! Everything here is deterministic: the resampler is a splitmix64 stream
//! seeded from the statistic's identity ([`seed_from_parts`]), so a CI
//! run reproduces bit-for-bit on every machine and every rerun.

use ebc_radio::rng::splitmix64;

/// Bootstrap resamples drawn per fitted statistic.
pub const DEFAULT_RESAMPLES: usize = 200;

/// Two-sided confidence level of [`percentile_ci`] (percentile bounds at
/// `(1 ± CI_LEVEL) / 2`).
pub const CI_LEVEL: f64 = 0.95;

/// Minimum fraction of bootstrap refits that must reproduce the point
/// classification for a fit to be `class_confident`.
pub const CLASS_CONFIDENCE_THRESHOLD: f64 = 0.90;

/// A deterministic splitmix64-driven resampler.
///
/// The stream is a pure function of the constructor seed, so identical
/// inputs produce identical resamples across machines, runs, and thread
/// counts — the property that keeps bootstrap CIs diffable by the
/// baseline gate.
#[derive(Debug, Clone)]
pub struct Resampler {
    state: u64,
}

impl Resampler {
    /// A resampler whose stream is determined entirely by `seed`.
    pub fn new(seed: u64) -> Resampler {
        Resampler { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = splitmix64(self.state);
        self.state
    }

    /// A uniform index into `0..len`.
    ///
    /// # Panics
    ///
    /// Panics if `len` is zero.
    pub fn index(&mut self, len: usize) -> usize {
        assert!(len > 0, "cannot index an empty sample");
        (self.next_u64() % len as u64) as usize
    }

    /// The mean of a with-replacement resample of `values` (same length
    /// as the input). Empty input yields NaN, mirroring an empty mean.
    pub fn resample_mean(&mut self, values: &[f64]) -> f64 {
        if values.is_empty() {
            return f64::NAN;
        }
        let mut sum = 0.0;
        for _ in 0..values.len() {
            sum += values[self.index(values.len())];
        }
        sum / values.len() as f64
    }
}

/// Folds string parts into a stable 64-bit seed (order- and
/// boundary-sensitive: `["ab", "c"]` and `["a", "bc"]` differ).
///
/// Cell identities — `(algorithm, family, model, metric)` — seed their
/// bootstrap streams through this, so every fitted statistic gets an
/// independent but fully reproducible resampling sequence.
pub fn seed_from_parts(parts: &[&str]) -> u64 {
    let mut h = 0xebc5_7a75_b007_57a9u64;
    for part in parts {
        for &b in part.as_bytes() {
            h = splitmix64(h ^ u64::from(b));
        }
        // Per-part separator so part boundaries matter.
        h = splitmix64(h ^ 0x1f);
    }
    h
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending-sorted slice, with
/// linear interpolation between adjacent order statistics.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let q = q.clamp(0.0, 1.0);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The central [`CI_LEVEL`] percentile interval of `samples` (sorted in
/// place). `None` if the sample is empty or contains a non-finite value.
pub fn percentile_ci(samples: &mut [f64]) -> Option<(f64, f64)> {
    if samples.is_empty() || samples.iter().any(|v| !v.is_finite()) {
        return None;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let tail = (1.0 - CI_LEVEL) / 2.0;
    Some((percentile(samples, tail), percentile(samples, 1.0 - tail)))
}

/// The seed-level bootstrap driver: runs `resamples` iterations over
/// `groups` (one per-seed value vector per n-point), handing each
/// iteration's resampled group means to `refit` and collecting its
/// successful outputs.
///
/// Iterations where `refit` returns `None` (a degenerate refit — e.g.
/// every resampled mean non-positive) are dropped; callers should treat a
/// mostly-empty return as "no CI". Groups are resampled independently —
/// this is the *seed-level* bootstrap, which preserves the n axis exactly
/// and only perturbs each point's seed draw.
pub fn bootstrap_refit<T>(
    groups: &[&[f64]],
    resamples: usize,
    seed: u64,
    mut refit: impl FnMut(&[f64]) -> Option<T>,
) -> Vec<T> {
    let mut r = Resampler::new(seed);
    let mut means = vec![0.0; groups.len()];
    let mut out = Vec::with_capacity(resamples);
    for _ in 0..resamples {
        for (slot, group) in means.iter_mut().zip(groups) {
            *slot = r.resample_mean(group);
        }
        if let Some(t) = refit(&means) {
            out.push(t);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resampler_is_deterministic_and_seed_sensitive() {
        let draw = |seed: u64| -> Vec<u64> {
            let mut r = Resampler::new(seed);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
        // Indices stay in range over many draws.
        let mut r = Resampler::new(42);
        for _ in 0..1000 {
            assert!(r.index(3) < 3);
        }
    }

    #[test]
    fn seed_from_parts_is_stable_and_boundary_sensitive() {
        let a = seed_from_parts(&["theorem11", "cycle", "cd", "energy_max"]);
        assert_eq!(
            a,
            seed_from_parts(&["theorem11", "cycle", "cd", "energy_max"]),
            "same identity, same stream"
        );
        assert_ne!(a, seed_from_parts(&["theorem11", "cycle", "cd", "time"]));
        assert_ne!(seed_from_parts(&["ab", "c"]), seed_from_parts(&["a", "bc"]));
        assert_ne!(seed_from_parts(&["ab"]), seed_from_parts(&["ab", ""]));
    }

    #[test]
    fn percentile_interpolates_order_statistics() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 4.0);
        assert_eq!(percentile(&xs, 0.5), 2.5);
        assert!((percentile(&xs, 0.25) - 1.75).abs() < 1e-12);
        // Out-of-range quantiles clamp instead of indexing out of bounds.
        assert_eq!(percentile(&xs, -1.0), 1.0);
        assert_eq!(percentile(&xs, 2.0), 4.0);
        assert_eq!(percentile(&[5.0], 0.5), 5.0);
    }

    #[test]
    fn percentile_ci_sorts_and_rejects_nonfinite() {
        let mut samples = vec![3.0, 1.0, 2.0];
        let (lo, hi) = percentile_ci(&mut samples).unwrap();
        assert!(lo <= hi);
        assert!(lo >= 1.0 && hi <= 3.0);
        assert!(percentile_ci(&mut []).is_none());
        assert!(percentile_ci(&mut [1.0, f64::NAN]).is_none());
    }

    #[test]
    fn bootstrap_refit_feeds_group_means_and_drops_failures() {
        let g1 = [1.0, 1.0];
        let g2 = [2.0, 4.0];
        let groups: Vec<&[f64]> = vec![&g1, &g2];
        // Refit = difference of the two resampled means; always finite.
        let diffs = bootstrap_refit(&groups, 100, 3, |means| Some(means[1] - means[0]));
        assert_eq!(diffs.len(), 100);
        // Group 1 is constant, so every diff is mean2 − 1 with mean2 in
        // {2, 3, 4}.
        for d in &diffs {
            assert!((1.0..=3.0).contains(d), "{d}");
        }
        // A refit that always fails yields an empty collection.
        let none: Vec<f64> = bootstrap_refit(&groups, 50, 3, |_| None::<f64>);
        assert!(none.is_empty());
        // Empty groups resample to NaN means (caller-visible, not a panic).
        let empty: [&[f64]; 1] = [&[]];
        let nans = bootstrap_refit(&empty, 3, 3, |means| Some(means[0]));
        assert!(nans.iter().all(|v| v.is_nan()));
    }
}
