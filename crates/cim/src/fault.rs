//! Bernoulli per-bit fault injection for CIM operations.
//!
//! §2.3 of the paper: multi-row activation fault rates range from 10⁻⁶
//! (simulation) to 10⁻¹ (experimental COTS demonstrations), caused by
//! reduced sense margins under process variation. Plain accesses, RowClone
//! copies and DCC-based NOT behave like normal reads (≈10⁻²⁰, effectively
//! fault-free at our simulation scales), so faults are injected only on
//! *compute* results — MAJ3 / AND / OR / NOR outputs.

use crate::row::Row;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha12Rng;

/// Deterministic, seedable per-bit fault injector.
#[derive(Debug, Clone)]
pub struct FaultModel {
    rate: f64,
    /// `ln(1 − rate)`, the geometric sampler's scale. `ln_1p` keeps
    /// precision for tiny rates (`ln(1 − p)` underflows to −0.0 below
    /// ~1e-16, which would otherwise flip every bit).
    ln_q: f64,
    /// `(width, bound)`: a first draw below `bound` leaves a row of
    /// `width` bits clean. It starts at `(0, 0.0)`, a bound that proves
    /// nothing, and follows the last row width seen.
    clean: (usize, f64),
    rng: ChaCha12Rng,
    injected: u64,
}

impl FaultModel {
    /// Creates a fault model flipping each computed bit independently with
    /// probability `rate`, using a fixed seed for reproducibility.
    ///
    /// # Panics
    ///
    /// Panics if `rate` is not within `[0, 1]`.
    #[must_use]
    pub fn new(rate: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "fault rate must be in [0,1]");
        Self {
            rate,
            ln_q: (-rate).ln_1p(),
            clean: (0, 0.0),
            rng: ChaCha12Rng::seed_from_u64(seed),
            injected: 0,
        }
    }

    /// A fault-free model (rate 0). No RNG draws are made.
    #[must_use]
    pub fn fault_free() -> Self {
        Self::new(0.0, 0)
    }

    /// The configured per-bit fault probability.
    #[must_use]
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// Number of bit flips injected so far.
    #[must_use]
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Applies faults in-place to a computed row.
    ///
    /// Uses a geometric-skip sampler so that low fault rates cost O(faults)
    /// rather than O(width) RNG draws, and a row whose first draw falls
    /// below a bound cached per row width stays clean without an `ln`.
    pub fn perturb(&mut self, row: &mut Row) {
        if self.rate <= 0.0 {
            return;
        }
        let width = row.width();
        if self.rate >= 1.0 {
            for i in 0..width {
                row.flip(i);
                self.injected += 1;
            }
            return;
        }
        let mut u = self.draw();
        if u < self.clean_bound(width) {
            return;
        }
        // Geometric skips: next fault index gap ~ Geom(rate).
        let mut i = 0usize;
        loop {
            i = match i.checked_add(self.skip(u)) {
                Some(v) => v,
                None => break,
            };
            if i >= width {
                break;
            }
            row.flip(i);
            self.injected += 1;
            i += 1;
            u = self.draw();
        }
    }

    /// One uniform draw in `[EPSILON, 1)`.
    fn draw(&mut self) -> f64 {
        self.rng.gen_range(f64::EPSILON..1.0)
    }

    /// The geometric gap to the next fault for draw `u`.
    fn skip(&self, u: f64) -> usize {
        (u.ln() / self.ln_q).floor() as usize
    }

    /// The first draw below which a row of `width` bits stays clean:
    /// `q^width · (1 − 1e-9)`, where `q = 1 − rate` and `ln_q = ln q`.
    ///
    /// The exact skip `floor(ln u / ln_q)` reaches the row's end when
    /// `ln u ≤ width · ln_q`, that is when `u ≤ q^width`. In floats,
    /// `exp`, `ln`, the product and the quotient each err by at most one
    /// ulp (relative 2^-52), and `fl(1 − 1e-9)` is within 2^-52 of
    /// `1 − 1e-9`. Draws are at least `f64::EPSILON` (2^-52), so the
    /// bound can only fire when `q^width > 2^-53`, i.e. when
    /// `width · |ln_q| < 37`. There, a draw `u` below the bound has
    /// `ln u < width · ln_q − m` with `m ≥ 1e-9 − 37 · 2^-53 − 2^-50 >
    /// 0.99e-9`, and the computed `ln u / ln_q` exceeds `width` unless
    /// the rounding of `ln` and of the quotient, at most
    /// `(width · |ln_q| + m) · 2^-51 < 2e-14` in the numerator, eats all
    /// of `m`. It cannot, so every draw below the bound gets a computed
    /// skip of at least `width` (exactly representable for
    /// `width < 2^53`), and the row stays clean after the same single
    /// draw the exact loop makes.
    fn clean_bound(&mut self, width: usize) -> f64 {
        if self.clean.0 != width {
            self.clean = (width, (width as f64 * self.ln_q).exp() * (1.0 - 1e-9));
        }
        self.clean.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    impl FaultModel {
        /// The exact sampler `perturb` must match: every draw, the
        /// first included, goes through the exact skip.
        fn perturb_oracle(&mut self, row: &mut Row) {
            if self.rate <= 0.0 {
                return;
            }
            let width = row.width();
            if self.rate >= 1.0 {
                for i in 0..width {
                    row.flip(i);
                    self.injected += 1;
                }
                return;
            }
            let mut i = 0usize;
            loop {
                let u: f64 = self.rng.gen_range(f64::EPSILON..1.0);
                let skip = (u.ln() / self.ln_q).floor() as usize;
                i = match i.checked_add(skip) {
                    Some(v) => v,
                    None => break,
                };
                if i >= width {
                    break;
                }
                row.flip(i);
                self.injected += 1;
                i += 1;
            }
        }
    }

    const RATES: [f64; 6] = [1e-20, 1e-6, 1e-3, 0.1, 0.5, 0.999];
    const WIDTHS: [usize; 7] = [1, 63, 64, 65, 100, 512, 4096];

    #[test]
    fn perturb_matches_the_exact_loop() {
        for (r, &rate) in RATES.iter().enumerate() {
            let mut fast = FaultModel::new(rate, 0xFA57 + r as u64);
            let mut exact = fast.clone();
            // Each width twice in a row, then the next: the cached
            // bound is both reused and replaced.
            for (k, &width) in WIDTHS.iter().chain(&WIDTHS).enumerate() {
                for rep in 0..2 {
                    let mut a = Row::zeros(width);
                    let mut b = Row::zeros(width);
                    fast.perturb(&mut a);
                    exact.perturb_oracle(&mut b);
                    let case = format!("rate {rate}, width {width}, row {k}.{rep}");
                    assert_eq!(a, b, "{case}");
                    assert_eq!(fast.injected(), exact.injected(), "{case}");
                    assert_eq!(
                        fast.clone().rng.next_u64(),
                        exact.clone().rng.next_u64(),
                        "{case}"
                    );
                }
            }
        }
    }

    #[test]
    fn draws_just_below_the_clean_bound_skip_past_the_row() {
        for rate in RATES {
            for width in WIDTHS {
                let mut fm = FaultModel::new(rate, 0);
                let bound = fm.clean_bound(width);
                if bound <= f64::EPSILON {
                    continue; // no draw can fall below it
                }
                for ulps in -4i64..=4 {
                    let u = f64::from_bits(bound.to_bits().wrapping_add_signed(ulps));
                    if u < bound {
                        assert!(
                            fm.skip(u) >= width,
                            "rate {rate}, width {width}, u = bound {ulps:+} ulps"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn fault_free_never_flips() {
        let mut fm = FaultModel::fault_free();
        let mut r = Row::ones(1024);
        fm.perturb(&mut r);
        assert_eq!(r.count_ones(), 1024);
        assert_eq!(fm.injected(), 0);
    }

    #[test]
    fn rate_one_flips_everything() {
        let mut fm = FaultModel::new(1.0, 7);
        let mut r = Row::zeros(128);
        fm.perturb(&mut r);
        assert_eq!(r.count_ones(), 128);
        assert_eq!(fm.injected(), 128);
    }

    #[test]
    fn empirical_rate_close_to_configured() {
        let rate = 0.01;
        let mut fm = FaultModel::new(rate, 42);
        let width = 4096;
        let trials = 200;
        let mut flips = 0usize;
        for _ in 0..trials {
            let mut r = Row::zeros(width);
            fm.perturb(&mut r);
            flips += r.count_ones();
        }
        let measured = flips as f64 / (width * trials) as f64;
        assert!(
            (measured - rate).abs() < rate * 0.2,
            "measured {measured} vs {rate}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut fm = FaultModel::new(0.05, seed);
            let mut r = Row::zeros(512);
            fm.perturb(&mut r);
            r
        };
        assert_eq!(run(9), run(9));
        assert_ne!(run(9), run(10));
    }

    #[test]
    fn tiny_rates_do_not_flip_everything() {
        // Regression: ln(1-p) underflows to -0.0 for p ~ 1e-20 and the
        // geometric sampler must not degenerate into flip-all.
        let mut fm = FaultModel::new(1e-20, 1);
        let mut r = Row::zeros(4096);
        for _ in 0..100 {
            fm.perturb(&mut r);
        }
        assert_eq!(r.count_ones(), 0);
        assert_eq!(fm.injected(), 0);
    }

    #[test]
    #[should_panic(expected = "fault rate")]
    fn invalid_rate_panics() {
        let _ = FaultModel::new(1.5, 0);
    }
}
