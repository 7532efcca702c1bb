//! Deterministic pseudo-random number generation.
//!
//! `humnet` experiments must be reproducible bit-for-bit from a seed, on any
//! platform, forever. Rather than depending on an external RNG crate whose
//! stream may change across versions, this module implements two small,
//! well-known generators:
//!
//! * [`SplitMix64`] — used for seeding and for cheap hash-like mixing;
//! * [`Rng`] — `xoshiro256**`, the general-purpose generator used by every
//!   humnet simulator.
//!
//! On top of the raw stream, [`Rng`] provides the distributions the
//! simulators need: uniform ranges, Bernoulli, normal (Box–Muller),
//! exponential, Poisson, Zipf, Pareto, log-normal, weighted choice,
//! shuffling, and sampling without replacement. [`PrefixSampler`] draws
//! the same weighted choice incrementally, for weights that change a few
//! at a time between draws.

/// SplitMix64: a tiny, fast 64-bit generator used for seed expansion.
///
/// Reference: Steele, Lea & Flood, "Fast Splittable Pseudorandom Number
/// Generators", OOPSLA 2014. The constants below are the canonical ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a new generator from a raw seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// Produce the next 64-bit output and advance the state.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Panic message shared by [`Rng::choose_weighted`] and
/// [`PrefixSampler::sample`] when the weights cannot be sampled.
const WEIGHTED_TOTAL_MSG: &str = "choose_weighted() requires positive finite total weight";

/// The general-purpose humnet generator: `xoshiro256**` seeded via SplitMix64.
///
/// All humnet simulators take a `u64` seed and construct one of these; the
/// same seed always produces the same simulation trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct Rng {
    s: [u64; 4],
    /// Cached second output of the last Box–Muller draw.
    gauss_spare: Option<f64>,
}

impl Rng {
    /// Create a generator from a seed. Any seed (including zero) is valid:
    /// the state is expanded through SplitMix64, which never yields the
    /// all-zero xoshiro state.
    pub fn new(seed: u64) -> Self {
        let mut sm = SplitMix64::new(seed);
        Rng {
            s: [sm.next_u64(), sm.next_u64(), sm.next_u64(), sm.next_u64()],
            gauss_spare: None,
        }
    }

    /// Derive an independent child generator, e.g. one per simulation agent.
    ///
    /// The child stream is decorrelated from the parent by mixing the parent's
    /// next output with the `stream` label through SplitMix64.
    pub fn fork(&mut self, stream: u64) -> Rng {
        let base = self.next_u64();
        Rng::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[1]
            .wrapping_mul(5)
            .rotate_left(7)
            .wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`. Uses Lemire-style rejection to avoid
    /// modulo bias. `bound` must be nonzero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below() requires a nonzero bound");
        // Widening-multiply rejection sampling.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut lo = m as u64;
        if lo < bound {
            let threshold = bound.wrapping_neg() % bound;
            while lo < threshold {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                lo = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in `[lo, hi)` (`usize` convenience). Panics if `lo >= hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "range() requires lo < hi");
        lo + self.below((hi - lo) as u64) as usize
    }

    /// Uniform `f64` in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// Standard normal deviate via the Box–Muller transform (polar-free form,
    /// caching the spare value).
    pub fn gaussian(&mut self) -> f64 {
        if let Some(z) = self.gauss_spare.take() {
            return z;
        }
        // Avoid ln(0) by drawing u1 from (0, 1].
        let u1 = 1.0 - self.next_f64();
        let u2 = self.next_f64();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.gauss_spare = Some(r * theta.sin());
        r * theta.cos()
    }

    /// Normal deviate with the given mean and standard deviation.
    pub fn normal(&mut self, mean: f64, sd: f64) -> f64 {
        mean + sd * self.gaussian()
    }

    /// Log-normal deviate with the given underlying normal parameters.
    pub fn log_normal(&mut self, mu: f64, sigma: f64) -> f64 {
        self.normal(mu, sigma).exp()
    }

    /// Exponential deviate with the given rate `lambda` (mean `1 / lambda`).
    pub fn exponential(&mut self, lambda: f64) -> f64 {
        assert!(lambda > 0.0, "exponential() requires a positive rate");
        -(1.0 - self.next_f64()).ln() / lambda
    }

    /// Poisson deviate. Uses Knuth's product method for small means and a
    /// normal approximation (rounded, clamped at zero) for large means.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        assert!(mean >= 0.0, "poisson() requires a non-negative mean");
        if mean == 0.0 {
            return 0;
        }
        if mean < 30.0 {
            let limit = (-mean).exp();
            let mut product = self.next_f64();
            let mut count = 0u64;
            while product > limit {
                count += 1;
                product *= self.next_f64();
            }
            count
        } else {
            let z = self.gaussian();
            let x = mean + mean.sqrt() * z;
            if x < 0.0 {
                0
            } else {
                x.round() as u64
            }
        }
    }

    /// Zipf-distributed rank in `[1, n]` with exponent `s > 0`, via inverse
    /// CDF over precomputed weights is avoided; instead uses rejection-free
    /// cumulative search which is O(n) worst case but exact. For the corpus
    /// sizes humnet uses (n ≤ 10^5) this is more than fast enough and keeps
    /// the stream consumption deterministic (exactly one draw per sample).
    pub fn zipf(&mut self, n: usize, s: f64) -> usize {
        assert!(n > 0, "zipf() requires n > 0");
        assert!(s > 0.0, "zipf() requires a positive exponent");
        // Normalization constant.
        let h: f64 = (1..=n).map(|k| (k as f64).powf(-s)).sum();
        let target = self.next_f64() * h;
        let mut acc = 0.0;
        for k in 1..=n {
            acc += (k as f64).powf(-s);
            if acc >= target {
                return k;
            }
        }
        n
    }

    /// Pareto (type I) deviate with scale `xm > 0` and shape `alpha > 0`.
    pub fn pareto(&mut self, xm: f64, alpha: f64) -> f64 {
        assert!(xm > 0.0 && alpha > 0.0, "pareto() requires positive parameters");
        xm / (1.0 - self.next_f64()).powf(1.0 / alpha)
    }

    /// Geometric deviate: number of failures before the first success with
    /// success probability `p` in `(0, 1]`.
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric() requires p in (0, 1]");
        if p >= 1.0 {
            return 0;
        }
        let u = 1.0 - self.next_f64();
        (u.ln() / (1.0 - p).ln()).floor() as u64
    }

    /// Pick a uniformly random element of a nonempty slice.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "choose() requires a nonempty slice");
        &items[self.range(0, items.len())]
    }

    /// Pick an index according to nonnegative weights (at least one must be
    /// positive). Runs in O(n).
    pub fn choose_weighted(&mut self, weights: &[f64]) -> usize {
        let total: f64 = weights.iter().copied().filter(|w| *w > 0.0).sum();
        assert!(total > 0.0 && total.is_finite(), "{WEIGHTED_TOTAL_MSG}");
        let target = self.next_f64() * total;
        let mut acc = 0.0;
        let mut last_positive = 0;
        for (i, &w) in weights.iter().enumerate() {
            if w > 0.0 {
                acc += w;
                last_positive = i;
                if acc >= target {
                    return i;
                }
            }
        }
        last_positive
    }

    /// Fisher–Yates shuffle in place.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i + 1);
            items.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` without replacement
    /// (Floyd's algorithm; output order is the insertion order of the
    /// algorithm, not sorted). Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices() requires k <= n");
        let mut chosen: Vec<usize> = Vec::with_capacity(k);
        for j in (n - k)..n {
            let t = self.range(0, j + 1);
            if chosen.contains(&t) {
                chosen.push(j);
            } else {
                chosen.push(t);
            }
        }
        chosen
    }
}

/// Weighted index sampling over weights that change a few at a time.
///
/// Holds the weights and their prefix sums. [`PrefixSampler::sample`]
/// draws exactly the index [`Rng::choose_weighted`] would draw from the
/// same weights and generator state: it consumes one `next_f64`, sums the
/// positive weights in the same sequential order (so every partial sum it
/// compares is bit-identical to the scan's), and returns the first
/// positive-weight index whose partial sum reaches the target.
/// Non-positive weights are never drawn.
///
/// Prefix sums are refreshed lazily. [`PrefixSampler::set`] and
/// [`PrefixSampler::push`] mark them stale from the lowest changed index
/// and add the change to a running estimate of the total, so both are
/// O(1). A draw brackets the exact total between certified bounds, scales
/// its one `next_f64` by both ends, and extends the sums only until they
/// pass the upper target. The target and the index it selects both grow
/// with the total, so when both ends select the same index the exact
/// total does too. Otherwise (the band is a few ulps of the total wide,
/// so this is rare) the draw finishes the refresh and uses the exact
/// total. A draw thus refreshes from the lowest changed index to about
/// the drawn one, and a draw on unchanged weights is a binary search.
#[derive(Debug, Clone, Default)]
pub struct PrefixSampler {
    weights: Vec<f64>,
    /// `prefix[i]` is the running sum of the positive weights in `0..=i`;
    /// valid below `dirty`.
    prefix: Vec<f64>,
    /// Lowest index whose prefix sum is stale; the length when none is,
    /// and never more.
    dirty: usize,
    /// The exact sequential total of the positive weights and their count
    /// at the last full refresh; `None` before the first.
    base: Option<(f64, usize)>,
    /// Float running sum of the changes to positive parts since then:
    /// `+ new − old` per `set`, `+ new` per `push`.
    delta: f64,
    /// Float running sum of the absolute values of those terms.
    delta_abs: f64,
    /// Number of terms summed into `delta`.
    delta_terms: usize,
}

/// The weight's contribution to the total: itself if positive, else 0.
fn positive_part(w: f64) -> f64 {
    if w > 0.0 {
        w
    } else {
        0.0
    }
}

impl PrefixSampler {
    /// An empty sampler.
    pub fn new() -> Self {
        PrefixSampler::default()
    }

    /// Replace every weight, reusing the sampler's buffers.
    pub fn reset(&mut self, weights: impl IntoIterator<Item = f64>) {
        self.weights.clear();
        self.weights.extend(weights);
        self.prefix.clear();
        self.dirty = 0;
        self.rebase(None);
    }

    /// Number of weights.
    pub fn len(&self) -> usize {
        self.weights.len()
    }

    /// Whether the sampler holds no weights.
    pub fn is_empty(&self) -> bool {
        self.weights.is_empty()
    }

    /// Change the weight at index `i`. Panics if `i` is out of range.
    pub fn set(&mut self, i: usize, w: f64) {
        let (old, new) = (positive_part(self.weights[i]), positive_part(w));
        self.weights[i] = w;
        // The sums and the total see only positive parts.
        if old != new {
            self.dirty = self.dirty.min(i);
            self.delta = self.delta + new - old;
            self.delta_abs = self.delta_abs + new + old;
            self.delta_terms += 2;
        }
    }

    /// Append a weight. Its sum is stale by construction: `dirty` never
    /// exceeds the old length.
    pub fn push(&mut self, w: f64) {
        self.weights.push(w);
        let new = positive_part(w);
        if new > 0.0 {
            self.delta += new;
            self.delta_abs += new;
            self.delta_terms += 1;
        }
    }

    /// Draw an index with probability proportional to its weight, exactly
    /// as [`Rng::choose_weighted`] would. Panics, with the same message, if
    /// the positive weights do not sum to a positive finite total.
    pub fn sample(&mut self, rng: &mut Rng) -> usize {
        if self.dirty < self.weights.len() {
            if let Some((lo, hi)) = self.total_bounds() {
                let x = rng.next_f64();
                // Rounding is monotone, so `x · lo ≤ x · total ≤ x · hi`
                // holds for the float products too.
                let (lo, hi) = (x * lo, x * hi);
                self.refresh(Some(hi));
                if let Some(pick) = self.first_reaching(hi) {
                    // The low target picks the same index when no earlier
                    // sum reaches it.
                    if pick == 0 || self.prefix[pick - 1] < lo {
                        return pick;
                    }
                }
                self.refresh(None);
                return self.draw(x);
            }
            self.refresh(None);
        }
        let total = self.prefix.last().copied().unwrap_or(0.0);
        assert!(total > 0.0 && total.is_finite(), "{WEIGHTED_TOTAL_MSG}");
        self.draw(rng.next_f64())
    }

    /// Certified bounds `(lo, hi)` on the total [`Rng::choose_weighted`]
    /// would compute from the current weights, or `None` when no full
    /// refresh has happened yet or the bounds are not positive and finite
    /// (the exact path then decides, and panics if it must).
    ///
    /// Let `u = 2⁻⁵³` and `γₘ = m·u / (1 − m·u)`. Write `T₀` for the exact
    /// sum of the `n₀` positive parts at the last full refresh and `S₀` for
    /// its sequential float sum; `D*` and `A*` for the exact sums of the `k`
    /// change terms and of their absolute values, `D` and `A` for their
    /// float running sums; and `S` for the sequential float sum of the `n`
    /// current positive parts, whose exact sum is `T = T₀ + D*`. Recursive
    /// summation (Higham, *Accuracy and Stability of Numerical Algorithms*,
    /// §4.2) gives `|S₀ − T₀| ≤ γₙ₀·T₀`, `|D − D*| ≤ γₖ·A*`,
    /// `A* ≤ A / (1 − γₖ)` and `|S − T| ≤ γₙ·T`, and `T ≤ T₀ + A*` as every
    /// term is non-negative. With `γ = γ_N` for `N = n₀ + n + k + 2`:
    ///
    /// `|S − (S₀ + D)| ≤ 2γ·(S₀ + A) / (1 − γ)`.
    ///
    /// Rounding `S₀ + D`, the radius and the two ends adds a few more
    /// `u·(S₀ + A)`; as `γ ≥ 2u`, a radius of `4γ·(S₀ + A)` covers it all.
    /// Requiring `N·u ≤ 0.1` makes `γ ≤ N·u / 0.9`, so the radius used,
    /// `5N·u·(S₀ + A)`, is at least that. Capping `hi` at half the largest
    /// float keeps every partial sum finite, so the model holds throughout.
    fn total_bounds(&self) -> Option<(f64, f64)> {
        let (base, base_len) = self.base?;
        let nu =
            (base_len + self.weights.len() + self.delta_terms + 2) as f64 * (f64::EPSILON / 2.0);
        if nu > 0.1 {
            return None;
        }
        let estimate = base + self.delta;
        let radius = 5.0 * nu * (base + self.delta_abs);
        let (lo, hi) = (estimate - radius, estimate + radius);
        (lo > 0.0 && hi <= f64::MAX / 2.0).then_some((lo, hi))
    }

    /// The index the scan picks for the uniform draw `x`, scaled by the
    /// exact total; the prefix sums must be fully refreshed.
    fn draw(&self, x: f64) -> usize {
        let total = self.prefix.last().copied().unwrap_or(0.0);
        self.first_reaching(x * total)
            .expect("a positive weight reaches the total")
    }

    /// The first positive-weight index whose prefix sum reaches `target`,
    /// or `None` when no refreshed prefix sum does.
    fn first_reaching(&self, target: f64) -> Option<usize> {
        let valid = &self.prefix[..self.dirty];
        // Prefix sums never decrease, so this is the first index whose
        // partial sum reaches the target.
        let first = valid.partition_point(|&p| p < target);
        if first == valid.len() {
            return None;
        }
        // Only a zero target can land on a non-positive weight (at index 0,
        // whose sum is then 0); like the scan, move on to the first positive
        // weight.
        let skip = self.weights[first..].iter().position(|&w| w > 0.0)?;
        Some(first + skip)
    }

    /// Extend the valid prefix sums until one reaches `until`, or to the
    /// end when `until` is `None` or none does. Reaching the end rebases
    /// the total estimate on the now exact total.
    fn refresh(&mut self, until: Option<f64>) {
        let (from, n) = (self.dirty, self.weights.len());
        let reached = |acc: f64| until.is_some_and(|t| acc >= t);
        let mut acc = if from == 0 { 0.0 } else { self.prefix[from - 1] };
        if from > 0 && reached(acc) {
            return;
        }
        self.prefix.resize(n, 0.0);
        self.dirty = n;
        let stale = self.prefix[from..].iter_mut().zip(&self.weights[from..]);
        for (i, (p, &w)) in (from..).zip(stale) {
            if w > 0.0 {
                acc += w;
            }
            *p = acc;
            if reached(acc) {
                self.dirty = i + 1;
                break;
            }
        }
        if self.dirty == n {
            self.rebase(Some((acc, n)));
        }
    }

    fn rebase(&mut self, base: Option<(f64, usize)>) {
        self.base = base;
        self.delta = 0.0;
        self.delta_abs = 0.0;
        self.delta_terms = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_known_sequence_is_stable() {
        let mut sm = SplitMix64::new(42);
        let a = sm.next_u64();
        let b = sm.next_u64();
        let mut sm2 = SplitMix64::new(42);
        assert_eq!(a, sm2.next_u64());
        assert_eq!(b, sm2.next_u64());
        assert_ne!(a, b);
    }

    #[test]
    fn same_seed_same_stream() {
        let mut a = Rng::new(7);
        let mut b = Rng::new(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4, "streams from different seeds should diverge");
    }

    #[test]
    fn forked_streams_are_decorrelated() {
        let mut parent = Rng::new(99);
        let mut c1 = parent.fork(1);
        let mut c2 = parent.fork(2);
        let same = (0..64).filter(|_| c1.next_u64() == c2.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn next_f64_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..10_000 {
            let x = rng.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_unbiased_enough() {
        let mut rng = Rng::new(11);
        let mut counts = [0u32; 7];
        for _ in 0..70_000 {
            counts[rng.below(7) as usize] += 1;
        }
        for &c in &counts {
            // Each bucket expects 10_000; allow 5% deviation.
            assert!((9_500..10_500).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut rng = Rng::new(5);
        for _ in 0..1_000 {
            let x = rng.range(10, 20);
            assert!((10..20).contains(&x));
        }
    }

    #[test]
    fn gaussian_moments() {
        let mut rng = Rng::new(17);
        let n = 200_000;
        let (mut sum, mut sumsq) = (0.0, 0.0);
        for _ in 0..n {
            let z = rng.gaussian();
            sum += z;
            sumsq += z * z;
        }
        let mean = sum / n as f64;
        let var = sumsq / n as f64 - mean * mean;
        assert!(mean.abs() < 0.01, "mean {mean}");
        assert!((var - 1.0).abs() < 0.02, "variance {var}");
    }

    #[test]
    fn exponential_mean() {
        let mut rng = Rng::new(23);
        let lambda = 2.5;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.exponential(lambda)).sum::<f64>() / n as f64;
        assert!((mean - 1.0 / lambda).abs() < 0.01, "mean {mean}");
    }

    #[test]
    fn poisson_small_and_large_mean() {
        let mut rng = Rng::new(31);
        let n = 50_000;
        for &m in &[0.5, 4.0, 80.0] {
            let mean: f64 = (0..n).map(|_| rng.poisson(m) as f64).sum::<f64>() / n as f64;
            assert!((mean - m).abs() / m.max(1.0) < 0.05, "target {m} got {mean}");
        }
    }

    #[test]
    fn poisson_zero_mean_is_zero() {
        let mut rng = Rng::new(1);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn zipf_rank_one_dominates() {
        let mut rng = Rng::new(41);
        let n = 20_000;
        let mut counts = vec![0u32; 51];
        for _ in 0..n {
            counts[rng.zipf(50, 1.2)] += 1;
        }
        assert!(counts[1] > counts[2]);
        assert!(counts[2] > counts[10]);
        assert_eq!(counts[0], 0, "zipf ranks start at 1");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut rng = Rng::new(43);
        for _ in 0..1_000 {
            assert!(rng.pareto(3.0, 2.0) >= 3.0);
        }
    }

    #[test]
    fn geometric_mean_matches() {
        let mut rng = Rng::new(47);
        let p = 0.25;
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.geometric(p) as f64).sum::<f64>() / n as f64;
        let expected = (1.0 - p) / p;
        assert!((mean - expected).abs() < 0.05, "mean {mean} expected {expected}");
    }

    #[test]
    fn choose_weighted_follows_weights() {
        let mut rng = Rng::new(53);
        let weights = [1.0, 0.0, 3.0];
        let mut counts = [0u32; 3];
        for _ in 0..40_000 {
            counts[rng.choose_weighted(&weights)] += 1;
        }
        assert_eq!(counts[1], 0);
        let ratio = counts[2] as f64 / counts[0] as f64;
        assert!((ratio - 3.0).abs() < 0.2, "ratio {ratio}");
    }

    /// Generators whose next `next_f64` is exactly 0 and exactly 0.5.
    fn boundary_rngs() -> (Rng, Rng) {
        // `s[1] == 0` makes the next output 0, so the target is exactly 0.
        let zero = Rng { s: [1, 0, 0, 0], gauss_spare: None };
        // The next output is 2^63 (a draw of exactly 0.5): 5 · 205 ≡ 1
        // (mod 2^8), rotl(2^56, 7) = 2^63, and 9 · 2^63 ≡ 2^63 (mod 2^64).
        let half = Rng { s: [1, 205 << 56, 0, 0], gauss_spare: None };
        assert_eq!(zero.clone().next_f64(), 0.0);
        assert_eq!(half.clone().next_f64(), 0.5);
        (zero, half)
    }

    /// A sampler over `weights` whose next draw takes the lazy path: it was
    /// fully refreshed with a larger weight at index 0, which was then set
    /// back, so every prefix sum is stale and only the estimate is known.
    fn lazy_sampler(weights: &[f64]) -> PrefixSampler {
        let mut sampler = PrefixSampler::new();
        sampler.reset(weights.iter().copied());
        sampler.set(0, weights[0].max(0.0) + 4.0);
        sampler.sample(&mut Rng::new(1));
        sampler.set(0, weights[0]);
        assert_eq!(sampler.dirty, 0);
        assert!(sampler.total_bounds().is_some(), "{weights:?}");
        sampler
    }

    #[test]
    fn prefix_sampler_matches_the_scan_on_exact_boundary_draws() {
        let (zero, half) = boundary_rngs();
        let cases: [(&Rng, &[f64]); 4] = [
            // A zero target skips the leading non-positive weights.
            (&zero, &[0.0, -2.0, 0.0, 3.0, 1.0]),
            // A target equal to a partial sum picks the index reaching it.
            (&half, &[1.0, 1.0]),
            (&half, &[0.0, 1.0, 0.0, 0.5, 0.5]),
            (&half, &[1.0, 1.0, 1.0, 1.0]),
        ];
        for (rng, weights) in cases {
            let want = rng.clone().choose_weighted(weights);
            // Freshly reset: the exact path.
            let mut sampler = PrefixSampler::new();
            sampler.reset(weights.iter().copied());
            assert_eq!(sampler.sample(&mut rng.clone()), want, "{weights:?}");
            // After a `set`: the lazy path.
            let mut sampler = lazy_sampler(weights);
            assert_eq!(sampler.sample(&mut rng.clone()), want, "{weights:?}");
        }
    }

    #[test]
    fn prefix_sampler_falls_back_when_the_band_straddles_a_boundary() {
        // The exact target 0.5 · 4 = 2 is index 1's partial sum. The
        // estimate's band puts the low target just below it (index 1) and
        // the high one just above (index 2), so only the exact total can
        // decide, and the draw refreshes every sum to learn it.
        let (_, half) = boundary_rngs();
        let mut sampler = lazy_sampler(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(sampler.sample(&mut half.clone()), 1);
        assert_eq!(sampler.dirty, 4);
    }

    #[test]
    fn prefix_sampler_refreshes_only_up_to_the_draw() {
        let mut weights = vec![1.0; 1000];
        let mut sampler = lazy_sampler(&weights);
        let mut rng = Rng::new(9);
        let mut refreshed = 0;
        for _ in 0..50 {
            let want = rng.clone().choose_weighted(&weights);
            let pick = sampler.sample(&mut rng);
            assert_eq!(pick, want);
            // The sums stop at the drawn index unless the fallback ran.
            if sampler.dirty != weights.len() {
                assert_eq!(sampler.dirty, pick + 1);
            }
            refreshed += sampler.dirty;
            weights[0] = 3.0 - weights[0];
            sampler.set(0, weights[0]);
        }
        // Uniform picks: about half the sums per draw, not all of them.
        assert!(refreshed < 50 * weights.len() * 3 / 4, "refreshed {refreshed}");
    }

    #[test]
    #[should_panic(expected = "choose_weighted() requires positive finite total weight")]
    fn prefix_sampler_rejects_all_zero_weights() {
        let mut sampler = PrefixSampler::new();
        sampler.reset([0.0, 0.0, 0.0]);
        sampler.sample(&mut Rng::new(1));
    }

    #[test]
    #[should_panic(expected = "choose_weighted() requires positive finite total weight")]
    fn prefix_sampler_rejects_weights_set_to_zero() {
        // The estimate 3 − 1 − 2 is exactly 0: the band is not positive, so
        // the exact path decides and panics as the scan would.
        let mut sampler = PrefixSampler::new();
        sampler.reset([1.0, 2.0, 0.0]);
        sampler.sample(&mut Rng::new(1));
        sampler.set(0, 0.0);
        sampler.set(1, -1.0);
        sampler.sample(&mut Rng::new(1));
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Rng::new(59);
        let mut v: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn sample_indices_distinct_and_in_range() {
        let mut rng = Rng::new(61);
        for _ in 0..100 {
            let sample = rng.sample_indices(50, 10);
            assert_eq!(sample.len(), 10);
            let mut s = sample.clone();
            s.sort_unstable();
            s.dedup();
            assert_eq!(s.len(), 10, "sample must be distinct");
            assert!(sample.iter().all(|&i| i < 50));
        }
    }

    #[test]
    fn sample_indices_full_population() {
        let mut rng = Rng::new(67);
        let mut sample = rng.sample_indices(10, 10);
        sample.sort_unstable();
        assert_eq!(sample, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = Rng::new(71);
        for _ in 0..1_000 {
            assert!(rng.log_normal(0.0, 1.0) > 0.0);
        }
    }
}
