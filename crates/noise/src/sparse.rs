//! Geometric-skip sparse Bernoulli sampling.
//!
//! Drawing `n` independent Bernoulli(p) bits costs `n` RNG calls. When
//! `p` is small (the paper's regime: 5e-4 … 5e-3 over ~1e2–1e3 sites),
//! it is much cheaper to jump directly between successes: the gap between
//! consecutive flipped sites is geometrically distributed, and one
//! uniform draw yields one gap via inversion. This sampler is what makes
//! the paper's "billion random cycles" benchmarking style feasible in a
//! test suite.
//!
//! The common case — no site flips at all — costs no logarithm: the
//! first draw is compared against a Bernoulli lower bound on the
//! all-quiet probability (see [`quiet_bound`]), and only a draw above it
//! pays for `ln(1 − p)` and `ln(u)`. The shortcut is exact: every draw
//! it accepts also saturates the inversion formula, so outputs and RNG
//! consumption are identical to the plain inversion sampler.

use crate::rng::SimRng;

/// Relative margin between the quiet shortcut's bound and the exact
/// all-quiet probability. It dwarfs the few-ulp relative rounding of
/// `ln(u) / ln(1 − p)`: a draw below the bound sits at least
/// `1e-9 / |ln(1 − p)|` above `n` in that quotient, and the rounding is
/// at most a few machine epsilons times `|ln u| / |ln(1 − p)|`, with
/// `|ln u| ≤ 709` for every draw.
const QUIET_MARGIN: f64 = 1e-9;

/// Iterator over the indices in `[0, n)` that a Bernoulli(p) process
/// flips, produced with O(#flips) RNG draws.
#[derive(Debug)]
pub struct SparseFlips<'a> {
    rng: &'a mut SimRng,
    n: usize,
    next: usize,
    /// ln(1 − p), computed only once a first flip exists (`0.0` until
    /// then, and whenever no flip can follow).
    log_q: f64,
    /// p == 1 fast path.
    always: bool,
}

impl<'a> SparseFlips<'a> {
    /// Creates a sparse sampler over `n` sites with flip probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    #[inline]
    #[must_use]
    pub fn new(rng: &'a mut SimRng, n: usize, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
        let always = p >= 1.0;
        let mut s = Self { rng, n, next: if always { 0 } else { n }, log_q: 0.0, always };
        if p > 0.0 && !always {
            let q = 1.0 - p;
            let u = s.rng.uniform().max(f64::MIN_POSITIVE);
            if u >= quiet_bound(n, q) {
                // A `p` below 2^-54 rounds `q` to 1, so `ln q == 0`:
                // such a process never flips (left at `next == n`).
                let log_q = q.ln();
                if log_q < 0.0 {
                    s.log_q = log_q;
                    s.next = skip(0, n, log_q, u);
                }
            }
        }
        s
    }
}

/// A lower bound on the probability `q^n` that none of `n` sites flips
/// (`q = 1 − p` as rounded): every `u` below it saturates [`skip`].
///
/// Bernoulli's inequality gives `q^n ≥ 1 − n·(1 − q)`, and `1 − q` is
/// exact in floating point for `q = 1 − p` as rounded (Sterbenz). The
/// relative margin [`QUIET_MARGIN`] covers the rounding of the
/// inversion formula, and of this bound where the inequality is tight
/// (small `n·(1 − q)`, or `n = 1`); where `n·(1 − q)` nears 1 with
/// `n ≥ 2`, the inequality is slack by far more than that rounding.
#[inline]
fn quiet_bound(n: usize, q: f64) -> f64 {
    (1.0 - n as f64 * (1.0 - q)) * (1.0 - QUIET_MARGIN)
}

/// The first success index `>= start` for a uniform draw `u`, by
/// geometric inversion (`floor(ln u / ln(1 − p))` sites skipped);
/// `n` when the gap runs past the last site.
#[inline]
fn skip(start: usize, n: usize, log_q: f64, u: f64) -> usize {
    let gap = (u.ln() / log_q).floor();
    // Saturate gracefully for enormous gaps.
    if gap >= (n - start.min(n)) as f64 {
        n
    } else {
        start + gap as usize
    }
}

impl Iterator for SparseFlips<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.always {
            if self.next < self.n {
                let i = self.next;
                self.next += 1;
                return Some(i);
            }
            return None;
        }
        if self.next >= self.n {
            return None;
        }
        let i = self.next;
        let u = self.rng.uniform().max(f64::MIN_POSITIVE);
        self.next = skip(i + 1, self.n, self.log_q, u);
        Some(i)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p_zero_yields_nothing() {
        let mut rng = SimRng::from_seed(1);
        assert_eq!(SparseFlips::new(&mut rng, 1000, 0.0).count(), 0);
    }

    #[test]
    fn p_one_yields_everything() {
        let mut rng = SimRng::from_seed(1);
        let flips: Vec<usize> = SparseFlips::new(&mut rng, 10, 1.0).collect();
        assert_eq!(flips, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn indices_are_strictly_increasing_and_in_range() {
        let mut rng = SimRng::from_seed(5);
        for _ in 0..100 {
            let flips: Vec<usize> = SparseFlips::new(&mut rng, 500, 0.05).collect();
            for w in flips.windows(2) {
                assert!(w[0] < w[1]);
            }
            for &i in &flips {
                assert!(i < 500);
            }
        }
    }

    #[test]
    fn mean_flip_count_matches_np() {
        let mut rng = SimRng::from_seed(8);
        let (n, p, trials) = (200usize, 0.01f64, 20_000usize);
        let total: usize = (0..trials).map(|_| SparseFlips::new(&mut rng, n, p).count()).sum();
        let mean = total as f64 / trials as f64;
        let expect = n as f64 * p;
        assert!((mean - expect).abs() < 0.1 * expect, "mean {mean}, expected {expect}");
    }

    #[test]
    fn per_site_marginal_is_uniform() {
        // Each site must be flipped with (approximately) equal frequency —
        // a common bug in skip samplers is biasing early indices.
        let mut rng = SimRng::from_seed(13);
        let (n, p, trials) = (50usize, 0.04f64, 50_000usize);
        let mut hits = vec![0usize; n];
        for _ in 0..trials {
            for i in SparseFlips::new(&mut rng, n, p) {
                hits[i] += 1;
            }
        }
        let expect = trials as f64 * p;
        for (i, &h) in hits.iter().enumerate() {
            assert!(
                (h as f64 - expect).abs() < 0.25 * expect,
                "site {i}: {h} hits vs expected {expect}"
            );
        }
    }

    #[test]
    fn probabilities_that_round_q_to_one_never_flip() {
        // 1 - p rounds to 1 for p < 2^-54, so ln(1 - p) == 0; the
        // inversion must saturate instead of yielding gap 0 everywhere.
        for p in [1e-300, 1e-17] {
            let mut rng = SimRng::from_seed(3);
            for _ in 0..1000 {
                assert_eq!(SparseFlips::new(&mut rng, 81, p).count(), 0, "p = {p}");
            }
        }
    }

    /// The smallest `u` the inversion does not saturate: `skip` is
    /// monotone in `u`, so bisect over the (ordered) bit patterns of
    /// the positive doubles in `[lo, 1)`.
    fn first_unsaturated(n: usize, log_q: f64, lo: f64) -> f64 {
        let (mut lo, mut hi) = (lo.to_bits(), 1.0f64.to_bits());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if skip(0, n, log_q, f64::from_bits(mid)) == n {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        f64::from_bits(lo)
    }

    #[test]
    fn quiet_shortcut_only_takes_saturating_draws() {
        for n in [1usize, 2, 8, 40, 81, 144, 289, 1000, 100_000] {
            let nf = n as f64;
            for p in [1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 5e-3, 0.1, 0.5, 0.9, 1.0 / nf, 0.999 / nf] {
                let q = 1.0 - p;
                let bound = quiet_bound(n, q);
                if bound <= 0.0 {
                    continue;
                }
                let log_q = q.ln();
                // Every draw the shortcut takes sits below the exact
                // saturation boundary ...
                let exact = first_unsaturated(n, log_q, bound);
                assert!(bound < exact, "n={n} p={p}: bound {bound} >= boundary {exact}");
                // ... and draws stepped ulp by ulp across the bound
                // agree with the exact formula wherever the shortcut
                // fires.
                let (mut down, mut up) = (bound, bound);
                for _ in 0..512 {
                    down = down.next_down();
                    up = up.next_up();
                    for u in [down, up] {
                        if u < bound {
                            assert_eq!(skip(0, n, log_q, u), n, "n={n} p={p} u={u}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of [0,1]")]
    fn rejects_bad_probability() {
        let mut rng = SimRng::from_seed(0);
        let _ = SparseFlips::new(&mut rng, 10, -0.1);
    }
}
