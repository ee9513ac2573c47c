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
///
/// [`FaultModel::perturb`] samples the gaps between faults: a uniform
/// draw `u` gives the gap `floor(ln u / ln q)`, where `q = 1 − rate`
/// (geometric skipping; Devroye, *Non-Uniform Random Variate
/// Generation*, 1986). It takes that gap from a table instead of an
/// `ln` whenever the table can prove it: `bounds[k]` brackets `q^k`, an
/// estimate from `u`'s exponent and top mantissa bits picks `k`, and
/// `k` is accepted only when `u` lies strictly between the bounds of
/// entries `k + 1` and `k` (the private `gap` says why that is exact).
/// Every other draw takes the exact `floor(ln u / ln q)`, so the flips
/// and the number of draws are those of the plain geometric loop.
#[derive(Debug, Clone)]
pub struct FaultModel {
    rate: f64,
    /// `ln(1 − rate)`, the geometric sampler's scale. `ln_1p` keeps
    /// precision for tiny rates (`ln(1 − p)` underflows to −0.0 below
    /// ~1e-16, which would otherwise flip every bit).
    ln_q: f64,
    /// `1 / ln_q`, which scales the gap estimate.
    inv_ln_q: f64,
    /// `bounds[k] = (q^k · (1 − 1e-9), q^k · (1 + 1e-9))`, with `q^k`
    /// computed as `exp(k · ln_q)`: a draw below the first has a gap of
    /// at least `k`, a draw above the second a gap below `k`. Sized for
    /// the widest row seen and never past index `last`. An entry is
    /// computed once a draw needs it ([`FaultModel::fill`]); until then
    /// it holds NaNs, which fail every comparison, so that draw takes
    /// the exact skip.
    bounds: Vec<(f64, f64)>,
    /// `⌈37 / |ln_q|⌉ + 1`, the last index `bounds` may hold. From
    /// `⌈37 / |ln_q|⌉` on, `q^k < e^-37 < 2^-53` lies below every draw.
    last: usize,
    rng: ChaCha12Rng,
    injected: u64,
}

/// `(ln c, 1 / c)` for the 256 mantissa bases `c = 1 + j/256`, which
/// [`FaultModel::estimate`] reads by a draw's top 8 mantissa bits.
static MANTISSA_BASES: [(f64, f64); 256] = mantissa_bases();

const fn mantissa_bases() -> [(f64, f64); 256] {
    let mut table = [(0.0, 0.0); 256];
    let mut j = 0;
    while j < 256 {
        // ln c = 2·atanh(s) = 2·(s + s³/3 + s⁵/5 + …), with
        // s = (c − 1)/(c + 1) = j/(512 + j) < 1/3: 32 terms converge.
        let s = j as f64 / (512 + j) as f64;
        let (mut term, mut sum, mut n) = (s, 0.0, 1.0);
        while n < 64.0 {
            sum += term / n;
            term *= s * s;
            n += 2.0;
        }
        table[j] = (2.0 * sum, 256.0 / (256 + j) as f64);
        j += 1;
    }
    table
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
        let ln_q = (-rate).ln_1p();
        Self {
            rate,
            ln_q,
            inv_ln_q: 1.0 / ln_q,
            bounds: Vec::new(),
            // Saturates to `usize::MAX` at rate 0 (37 / 0 = ∞).
            last: ((37.0 / -ln_q).ceil() as usize).saturating_add(1),
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
    /// Uses a geometric-skip sampler, so a row costs one RNG draw per
    /// fault plus one, and each draw's gap comes from the table-checked
    /// skip: a row whose first draw clears the bound for its width stays
    /// clean without an `ln`, and so does a faulting draw whose gap the
    /// table proves.
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
        self.size_bounds(width);
        let mut i = 0usize;
        loop {
            let u = self.draw();
            let Some(k) = self.gap(u, width - i) else {
                break;
            };
            i += k;
            row.flip(i);
            self.injected += 1;
            i += 1;
        }
    }

    /// One uniform draw in `[EPSILON, 1)`.
    fn draw(&mut self) -> f64 {
        self.rng.gen_range(f64::EPSILON..1.0)
    }

    /// The exact geometric gap to the next fault for draw `u`.
    fn skip(&self, u: f64) -> usize {
        (u.ln() / self.ln_q).floor() as usize
    }

    /// An estimate of [`FaultModel::skip`] without `ln`. It writes
    /// `u = 2^e · c · (1 + d)` with `c = 1 + j/256` from the top 8
    /// mantissa bits and `0 ≤ d < 1/256`, so `ln u ≈ e · ln 2 + ln c + d
    /// − d²/2`, off by less than `d³/3 < 2e-8`. It can miss the exact
    /// gap only for draws within that distance of a gap boundary, which
    /// the check in [`FaultModel::gap`] catches.
    fn estimate(&self, u: f64) -> usize {
        const MANTISSA: u64 = (1 << 52) - 1;
        let bits = u.to_bits();
        // Draws are positive and normal: the biased exponent is exact.
        let e = (bits >> 52) as i64 - 1023;
        let (ln_c, inv_c) = MANTISSA_BASES[((bits >> 44) & 0xFF) as usize];
        let m = f64::from_bits((bits & MANTISSA) | 1f64.to_bits());
        let d = m * inv_c - 1.0;
        let ln_u = e as f64 * std::f64::consts::LN_2 + ln_c + d - 0.5 * d * d;
        (ln_u * self.inv_ln_q) as usize
    }

    /// The exact gap `skip(u)` when it is below `left`, the bits left in
    /// the row, and `None` when it reaches past the row's end.
    ///
    /// Two table checks decide most draws. A draw below `bounds[left].0`
    /// ends the row, as [`FaultModel::fill`] argues. Otherwise the
    /// estimate `k` is accepted when [`FaultModel::brackets`] holds:
    /// `bounds[k + 1].1 < u < bounds[k].0`.
    /// There `u` lies at least a relative 0.99e-9 inside
    /// `(q^(k+1), q^k)`, so `ln u / ln_q` lies at least `0.98e-9 / |ln_q|`
    /// inside `(k, k + 1)`. The accepted `k` has `q^k > u ≥ 2^-52`, so
    /// `k · |ln_q| < 37`. The computed `ln u` errs by at most
    /// `37 · 2^-52`, and the quotient adds at most `(k + 1) · 2^-53`; as
    /// every rate below 1 has `|ln_q| < 37`, the two move `ln u / ln_q`
    /// by less than `2e-14 / |ln_q|`. That is far too little to leave
    /// the interval, so the exact skip floors to `k` as well. Any other
    /// draw takes the exact skip, and fills the entries that would have
    /// decided it.
    fn gap(&mut self, u: f64, left: usize) -> Option<usize> {
        if self.bounds.get(left).is_some_and(|&(below, _)| u < below) {
            return None;
        }
        let k = self.estimate(u);
        if k < left && self.brackets(u, k) {
            return Some(k);
        }
        let k = self.skip(u);
        if k < left {
            self.fill(k);
            self.fill(k + 1);
            Some(k)
        } else {
            self.fill(left);
            None
        }
    }

    /// Whether the table proves `skip(u) == k`: `bounds[k + 1].1 < u <
    /// bounds[k].0`, both entries present.
    fn brackets(&self, u: f64, k: usize) -> bool {
        match (self.bounds.get(k), self.bounds.get(k + 1)) {
            (Some(&(below, _)), Some(&(_, above))) => above < u && u < below,
            _ => false,
        }
    }

    /// Sizes `bounds` to entries `0..=min(width, last)`, so a row of
    /// `width` bits finds every entry [`FaultModel::gap`] reads.
    fn size_bounds(&mut self, width: usize) {
        let want = width.min(self.last);
        if self.bounds.len() <= want {
            self.bounds.resize(want + 1, (f64::NAN, f64::NAN));
        }
    }

    /// Computes entry `k`, if the table is sized to hold it.
    ///
    /// A draw below `bounds[left].0 = q^left · (1 − 1e-9)` has an exact
    /// skip of at least `left`. In floats, `exp`, `ln`, the products and
    /// the quotient each err by at most one ulp (relative 2^-52), and
    /// `fl(1 ± 1e-9)` is within 2^-52 of `1 ± 1e-9`. Draws are at least
    /// `f64::EPSILON` (2^-52), so the bound can only fire when
    /// `q^left > 2^-53`, i.e. when `left · |ln_q| < 37`. There, a draw
    /// `u` below the bound has `ln u < left · ln_q − m` with
    /// `m ≥ 1e-9 − 37 · 2^-53 − 2^-50 > 0.99e-9`, and the computed
    /// `ln u / ln_q` exceeds `left` unless the rounding of `ln` and of
    /// the quotient, at most `(left · |ln_q| + m) · 2^-51 < 2e-14` in
    /// the numerator, eats all of `m`. It cannot, so every draw below
    /// the bound gets a computed skip of at least `left` (exactly
    /// representable for `left < 2^53`). The same margins, mirrored,
    /// make `bounds[k].1` a strict upper bound on the draws whose skip
    /// reaches `k`; a table entry past `⌈37 / |ln_q|⌉` would bound no
    /// draw, so the table stops at `last`.
    fn fill(&mut self, k: usize) {
        if let Some(entry) = self.bounds.get_mut(k) {
            let q_k = (k as f64 * self.ln_q).exp();
            *entry = (q_k * (1.0 - 1e-9), q_k * (1.0 + 1e-9));
        }
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

    const RATES: [f64; 9] = [1e-20, 1e-6, 1e-3, 9e-3, 0.03, 0.1, 0.4, 0.5, 0.999];
    const WIDTHS: [usize; 9] = [1, 24, 48, 63, 64, 65, 100, 512, 4096];

    #[test]
    fn perturb_matches_the_exact_loop() {
        for (r, &rate) in RATES.iter().enumerate() {
            let mut fast = FaultModel::new(rate, 0xFA57 + r as u64);
            let mut exact = fast.clone();
            // 360 rows: each width twice in a row, the widths visited in
            // a stride-5 order, so the table grows from narrow and from
            // wide rows and is reused in between.
            for n in 0..360 {
                let width = WIDTHS[(n / 2 * 5) % WIDTHS.len()];
                let mut a = Row::zeros(width);
                let mut b = Row::zeros(width);
                fast.perturb(&mut a);
                exact.perturb_oracle(&mut b);
                let case = format!("rate {rate}, width {width}, row {n}");
                assert_eq!(a, b, "{case}");
                assert_eq!(fast.injected(), exact.injected(), "{case}");
                assert_eq!(
                    fast.rng.clone().next_u64(),
                    exact.rng.clone().next_u64(),
                    "{case}"
                );
            }
        }
    }

    /// `u` moved by `ulps` units in the last place, if it is still a
    /// possible draw.
    fn nudge(u: f64, ulps: i64) -> Option<f64> {
        let v = f64::from_bits(u.to_bits().wrapping_add_signed(ulps));
        (f64::EPSILON..1.0).contains(&v).then_some(v)
    }

    #[test]
    fn draws_just_below_the_clean_bound_skip_past_the_row() {
        for rate in RATES {
            for width in WIDTHS {
                let mut fm = FaultModel::new(rate, 0);
                fm.size_bounds(width);
                fm.fill(width);
                let Some(&(bound, _)) = fm.bounds.get(width) else {
                    continue; // past `last`: no draw can fall below it
                };
                for ulps in -4i64..=4 {
                    let Some(u) = nudge(bound, ulps) else {
                        continue;
                    };
                    if u < bound {
                        let case = format!("rate {rate}, width {width}, u = bound {ulps:+} ulps");
                        assert!(fm.skip(u) >= width, "{case}");
                        assert_eq!(fm.gap(u, width), None, "{case}");
                    }
                }
            }
        }
    }

    #[test]
    fn draws_near_the_table_bounds_get_the_exact_skip() {
        for rate in RATES {
            // `lazy` fills its table only as its own draws need entries,
            // `fm` holds every entry up front.
            let mut lazy = FaultModel::new(rate, 0);
            lazy.size_bounds(4096);
            let mut fm = lazy.clone();
            let top = fm.bounds.len() - 1;
            for k in 0..=top {
                fm.fill(k);
            }
            for k in 0..=top {
                let (below, above) = fm.bounds[k];
                for ulps in -4i64..=4 {
                    for u in [below, above].into_iter().filter_map(|b| nudge(b, ulps)) {
                        let exact = fm.skip(u);
                        let case = format!("rate {rate}, entry {k}, u {u:e} ({ulps:+} ulps)");
                        // The row ends at the entry itself, one past it,
                        // or at the table's top.
                        for left in [k, k + 1, top] {
                            let want = (exact < left).then_some(exact);
                            assert_eq!(fm.gap(u, left), want, "{case}, left {left}");
                            assert_eq!(lazy.gap(u, left), want, "{case}, left {left}, lazy");
                        }
                        // The check alone, whatever the estimate says: it
                        // brackets no neighbour of the exact skip.
                        for guess in exact.saturating_sub(2)..=exact.saturating_add(2) {
                            assert!(
                                !fm.brackets(u, guess) || guess == exact,
                                "{case}, guess {guess}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn mantissa_bases_hold_their_logs_and_reciprocals() {
        for (j, &(ln_c, inv_c)) in MANTISSA_BASES.iter().enumerate() {
            let c = 1.0 + j as f64 / 256.0;
            assert!((ln_c - c.ln()).abs() <= 2.0 * f64::EPSILON, "ln at {j}");
            assert!((inv_c - 1.0 / c).abs() <= f64::EPSILON, "1/c at {j}");
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
