//! Differential pin for the sparse sampler: [`SparseFlips`] must draw
//! exactly the flips, and consume exactly the RNG stream, of the plain
//! inversion sampler it replaced (kept below verbatim as the oracle),
//! for every flip probability at which the oracle is correct.

use btwc_noise::{SimRng, SparseFlips};

/// The inversion sampler as it was before the log-free quiet shortcut:
/// `ln(1 − p)` computed up front, one `ln(u)` per draw.
mod oracle {
    use btwc_noise::SimRng;

    #[derive(Debug)]
    pub struct SparseFlips<'a> {
        rng: &'a mut SimRng,
        n: usize,
        next: usize,
        /// ln(1 - p); `None` means p == 0 (no flips ever).
        log_q: Option<f64>,
        /// p == 1 fast path.
        always: bool,
    }

    impl<'a> SparseFlips<'a> {
        pub fn new(rng: &'a mut SimRng, n: usize, p: f64) -> Self {
            assert!((0.0..=1.0).contains(&p), "probability {p} out of [0,1]");
            let always = p >= 1.0;
            let log_q = if p <= 0.0 || always { None } else { Some((1.0 - p).ln()) };
            let mut s = Self { rng, n, next: 0, log_q, always };
            if !always {
                s.advance_from(0);
            }
            s
        }

        /// Positions `self.next` at the first success index `>= start`.
        fn advance_from(&mut self, start: usize) {
            match self.log_q {
                None => self.next = self.n, // p == 0
                Some(log_q) => {
                    // Geometric gap via inversion: floor(ln(U) / ln(1-p)).
                    let u = self.rng.uniform().max(f64::MIN_POSITIVE);
                    let gap = (u.ln() / log_q).floor();
                    // Saturate gracefully for enormous gaps.
                    if gap >= (self.n - start.min(self.n)) as f64 {
                        self.next = self.n;
                    } else {
                        self.next = start + gap as usize;
                    }
                }
            }
        }
    }

    impl Iterator for SparseFlips<'_> {
        type Item = usize;

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
            self.advance_from(i + 1);
            Some(i)
        }
    }
}

#[test]
fn matches_the_inversion_oracle_draw_for_draw() {
    for n in [1usize, 8, 40, 81, 144, 289, 1000] {
        let inv_n = 1.0 / n as f64;
        let ps = [
            0.0,
            1e-6,
            1e-4,
            1e-3,
            5e-3,
            inv_n * (1.0 - 1e-3),
            inv_n * (1.0 + 1e-3),
            0.1,
            0.5,
            1.0,
        ];
        // 1/n·(1 + 1e-3) exceeds 1 at n = 1.
        for p in ps.into_iter().filter(|&p| p <= 1.0) {
            for seed in 0..200u64 {
                let mut ours = SimRng::from_seed(seed);
                let mut theirs = ours.clone();
                // Several rounds back to back, as the noise models
                // draw them, so a stream offset would compound.
                for round in 0..16 {
                    let got: Vec<usize> = SparseFlips::new(&mut ours, n, p).collect();
                    let want: Vec<usize> = oracle::SparseFlips::new(&mut theirs, n, p).collect();
                    assert_eq!(got, want, "n={n} p={p} seed={seed} round={round}");
                }
                assert_eq!(
                    ours.next_u64(),
                    theirs.next_u64(),
                    "n={n} p={p} seed={seed}: RNG state diverged"
                );
            }
        }
    }
}

#[test]
fn matches_the_oracle_when_dropped_early() {
    // Callers may stop iterating after the first flip; the draws made
    // up to that point must still line up.
    for seed in 0..500u64 {
        let mut ours = SimRng::from_seed(seed);
        let mut theirs = ours.clone();
        for (n, p) in [(81usize, 1e-3), (289, 5e-3), (40, 0.1)] {
            let got = SparseFlips::new(&mut ours, n, p).next();
            let want = oracle::SparseFlips::new(&mut theirs, n, p).next();
            assert_eq!(got, want, "n={n} p={p} seed={seed}");
        }
        assert_eq!(ours.next_u64(), theirs.next_u64(), "seed={seed}: RNG state diverged");
    }
}
