//! Bit-packed DRAM rows and bulk bitwise operations.
//!
//! A [`Row`] models one DRAM row across the rank: `width` independent bit
//! columns packed into 64-bit words. All logic operations act on every
//! column simultaneously, exactly like a multi-row activation does in the
//! real substrate.
//!
//! Each operation has an in-place form that overwrites an existing row
//! of the same width: [`Row::copy_from`], [`Row::clear`],
//! [`Row::set_and`], [`Row::set_and_not`], [`Row::set_or`],
//! [`Row::set_xor`], [`Row::set_nor`], [`Row::set_not`],
//! [`Row::set_maj3`] and [`Row::or_assign`]. The bit-accurate hot paths
//! (the logic machine's gates, the counter bank's digit steps and the
//! ripple-carry adder) compute into rows sized once when they are built,
//! so a gate costs no heap allocation. The allocating forms
//! ([`Row::and`], [`Row::or`], [`Row::xor`], [`Row::nor`], [`Row::not`],
//! [`Row::maj3`]) are thin wrappers over them. Every result keeps the
//! bits past `width` zero.

use serde::{Deserialize, Serialize};
use std::fmt;

/// One DRAM row: `width` bit columns, bit-packed.
#[derive(Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Row {
    width: usize,
    words: Vec<u64>,
}

impl Row {
    /// Creates an all-zero row of `width` columns.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    #[must_use]
    pub fn zeros(width: usize) -> Self {
        assert!(width > 0, "row width must be positive");
        Self {
            width,
            words: vec![0; width.div_ceil(64)],
        }
    }

    /// Creates an all-one row of `width` columns.
    #[must_use]
    pub fn ones(width: usize) -> Self {
        let mut r = Self::zeros(width);
        for w in &mut r.words {
            *w = u64::MAX;
        }
        r.mask_tail();
        r
    }

    /// Builds a row from an iterator of booleans (column 0 first).
    ///
    /// # Panics
    ///
    /// Panics if the iterator is empty.
    pub fn from_bits<I: IntoIterator<Item = bool>>(bits: I) -> Self {
        let bits: Vec<bool> = bits.into_iter().collect();
        let mut r = Self::zeros(bits.len());
        for (i, b) in bits.iter().enumerate() {
            r.set(i, *b);
        }
        r
    }

    /// Number of columns.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Reads the bit in column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.width, "column {i} out of range");
        (self.words[i / 64] >> (i % 64)) & 1 == 1
    }

    /// Sets the bit in column `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= width`.
    pub fn set(&mut self, i: usize, v: bool) {
        assert!(i < self.width, "column {i} out of range");
        let mask = 1u64 << (i % 64);
        if v {
            self.words[i / 64] |= mask;
        } else {
            self.words[i / 64] &= !mask;
        }
    }

    /// Flips the bit in column `i`.
    pub fn flip(&mut self, i: usize) {
        let cur = self.get(i);
        self.set(i, !cur);
    }

    /// Number of set columns.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Bitwise AND of two rows.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn and(&self, other: &Row) -> Row {
        let mut r = Row::zeros(self.width);
        r.set_and(self, other);
        r
    }

    /// Bitwise OR of two rows.
    #[must_use]
    pub fn or(&self, other: &Row) -> Row {
        let mut r = Row::zeros(self.width);
        r.set_or(self, other);
        r
    }

    /// Bitwise XOR of two rows.
    #[must_use]
    pub fn xor(&self, other: &Row) -> Row {
        let mut r = Row::zeros(self.width);
        r.set_xor(self, other);
        r
    }

    /// Bitwise NOR of two rows (MAGIC's primitive).
    #[must_use]
    pub fn nor(&self, other: &Row) -> Row {
        let mut r = Row::zeros(self.width);
        r.set_nor(self, other);
        r
    }

    /// Bitwise NOT.
    #[must_use]
    pub fn not(&self) -> Row {
        let mut r = Row::zeros(self.width);
        r.set_not(self);
        r
    }

    /// Column-wise majority of three rows — the triple-row-activation
    /// primitive (MAJ3).
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[must_use]
    pub fn maj3(a: &Row, b: &Row, c: &Row) -> Row {
        let mut r = Row::zeros(a.width);
        r.set_maj3(a, b, c);
        r
    }

    /// `self ← src`.
    ///
    /// # Panics
    ///
    /// Panics if widths differ (as do all the in-place forms below).
    pub fn copy_from(&mut self, src: &Row) {
        assert_eq!(self.width, src.width, "row width mismatch");
        self.words.copy_from_slice(&src.words);
    }

    /// `self ← 0`.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// `self ← a & b`.
    pub fn set_and(&mut self, a: &Row, b: &Row) {
        self.set_zip(a, b, |x, y| x & y);
    }

    /// `self ← a & !b`.
    pub fn set_and_not(&mut self, a: &Row, b: &Row) {
        self.set_zip(a, b, |x, y| x & !y);
    }

    /// `self ← a | b`.
    pub fn set_or(&mut self, a: &Row, b: &Row) {
        self.set_zip(a, b, |x, y| x | y);
    }

    /// `self ← a ^ b`.
    pub fn set_xor(&mut self, a: &Row, b: &Row) {
        self.set_zip(a, b, |x, y| x ^ y);
    }

    /// `self ← !(a | b)`.
    pub fn set_nor(&mut self, a: &Row, b: &Row) {
        self.set_zip(a, b, |x, y| !(x | y));
        self.mask_tail();
    }

    /// `self ← !a`.
    pub fn set_not(&mut self, a: &Row) {
        assert_eq!(self.width, a.width, "row width mismatch");
        for (d, &x) in self.words.iter_mut().zip(&a.words) {
            *d = !x;
        }
        self.mask_tail();
    }

    /// `self ← MAJ3(a, b, c)`.
    pub fn set_maj3(&mut self, a: &Row, b: &Row, c: &Row) {
        assert_eq!(a.width, b.width, "row width mismatch");
        assert_eq!(a.width, c.width, "row width mismatch");
        assert_eq!(self.width, a.width, "row width mismatch");
        let abc = a.words.iter().zip(&b.words).zip(&c.words);
        for (d, ((&x, &y), &z)) in self.words.iter_mut().zip(abc) {
            *d = (x & y) | (y & z) | (x & z);
        }
    }

    /// `self ← self | other`.
    pub fn or_assign(&mut self, other: &Row) {
        assert_eq!(self.width, other.width, "row width mismatch");
        for (d, &x) in self.words.iter_mut().zip(&other.words) {
            *d |= x;
        }
    }

    /// Iterates over the column bits (column 0 first).
    pub fn iter_bits(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.get(i))
    }

    /// Counts columns where `self` and `other` differ.
    ///
    /// # Panics
    ///
    /// Panics if widths differ.
    #[cfg(test)]
    fn hamming_distance(&self, other: &Row) -> usize {
        self.xor(other).count_ones()
    }

    /// Even parity over all columns (true = odd number of ones).
    #[must_use]
    pub fn parity(&self) -> bool {
        self.count_ones() % 2 == 1
    }

    fn set_zip(&mut self, a: &Row, b: &Row, f: impl Fn(u64, u64) -> u64) {
        assert_eq!(a.width, b.width, "row width mismatch");
        assert_eq!(self.width, a.width, "row width mismatch");
        for ((d, &x), &y) in self.words.iter_mut().zip(&a.words).zip(&b.words) {
            *d = f(x, y);
        }
    }

    fn mask_tail(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

impl fmt::Debug for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Row[{}; ", self.width)?;
        let shown = self.width.min(64);
        for i in 0..shown {
            write!(f, "{}", u8::from(self.get(i)))?;
        }
        if self.width > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = Row::zeros(100);
        let o = Row::ones(100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(z.width(), 100);
    }

    #[test]
    fn tail_masking_not() {
        // width not a multiple of 64: NOT must not set bits past width.
        let z = Row::zeros(70);
        let n = z.not();
        assert_eq!(n.count_ones(), 70);
    }

    #[test]
    fn get_set_flip() {
        let mut r = Row::zeros(65);
        r.set(64, true);
        assert!(r.get(64));
        r.flip(64);
        assert!(!r.get(64));
        r.flip(0);
        assert!(r.get(0));
    }

    #[test]
    fn maj3_truth_table() {
        for a in [false, true] {
            for b in [false, true] {
                for c in [false, true] {
                    let ra = Row::from_bits([a]);
                    let rb = Row::from_bits([b]);
                    let rc = Row::from_bits([c]);
                    let m = Row::maj3(&ra, &rb, &rc);
                    let expect = (a && b) || (c && (a || b));
                    assert_eq!(m.get(0), expect, "maj({a},{b},{c})");
                }
            }
        }
    }

    #[test]
    fn maj_with_zero_is_and_with_one_is_or() {
        let a = Row::from_bits([false, false, true, true]);
        let b = Row::from_bits([false, true, false, true]);
        let zero = Row::zeros(4);
        let one = Row::ones(4);
        assert_eq!(Row::maj3(&a, &b, &zero), a.and(&b));
        assert_eq!(Row::maj3(&a, &b, &one), a.or(&b));
    }

    #[test]
    fn nor_matches_definition() {
        let a = Row::from_bits([false, false, true, true]);
        let b = Row::from_bits([false, true, false, true]);
        assert_eq!(a.nor(&b), a.or(&b).not());
    }

    #[test]
    fn hamming_and_parity() {
        let a = Row::from_bits([true, false, true]);
        let b = Row::from_bits([false, false, true]);
        assert_eq!(a.hamming_distance(&b), 1);
        assert!(!a.parity()); // two ones -> even
        assert!(b.parity()); // one one -> odd
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn mismatched_widths_panic() {
        let _ = Row::zeros(4).and(&Row::zeros(5));
    }

    #[test]
    fn from_bits_roundtrip() {
        let bits = [true, false, true, true, false];
        let r = Row::from_bits(bits);
        let back: Vec<bool> = r.iter_bits().collect();
        assert_eq!(back, bits);
    }

    const WIDTHS: [usize; 9] = [1, 2, 63, 64, 65, 70, 127, 128, 300];

    /// A seeded row, each column set with probability ½.
    fn random_row(width: usize, seed: u64) -> Row {
        let mut r = Row::zeros(width);
        crate::FaultModel::new(0.5, seed).perturb(&mut r);
        r
    }

    /// A row whose every word, the bits past `width` included, is set:
    /// an in-place `set_*` result must not depend on what it overwrites.
    fn dirty(width: usize) -> Row {
        let mut r = Row::zeros(width);
        r.words.fill(u64::MAX);
        r
    }

    /// An in-place form under test: `dst ← op(a, b, c)`.
    type InPlace = fn(&mut Row, &Row, &Row, &Row);

    fn tail_is_clear(r: &Row) -> bool {
        let rem = r.width % 64;
        rem == 0 || r.words.last().is_some_and(|&w| w >> rem == 0)
    }

    #[test]
    fn in_place_ops_match_their_allocating_twins() {
        for width in WIDTHS {
            for seed in 0..4u64 {
                let a = random_row(width, 3 * seed);
                let b = random_row(width, 3 * seed + 1);
                let c = random_row(width, 3 * seed + 2);
                let cases: [(&str, Row, InPlace); 8] = [
                    ("and", a.and(&b), |d, a, b, _| d.set_and(a, b)),
                    ("and_not", a.and(&b.not()), |d, a, b, _| d.set_and_not(a, b)),
                    ("or", a.or(&b), |d, a, b, _| d.set_or(a, b)),
                    ("xor", a.xor(&b), |d, a, b, _| d.set_xor(a, b)),
                    ("nor", a.nor(&b), |d, a, b, _| d.set_nor(a, b)),
                    ("not", a.not(), |d, a, _, _| d.set_not(a)),
                    ("maj3", Row::maj3(&a, &b, &c), |d, a, b, c| {
                        d.set_maj3(a, b, c)
                    }),
                    ("copy_from", a.clone(), |d, a, _, _| d.copy_from(a)),
                ];
                for (name, want, op) in cases {
                    let mut got = dirty(width);
                    op(&mut got, &a, &b, &c);
                    assert_eq!(got, want, "{name} at width {width}");
                    assert!(tail_is_clear(&got), "{name} set bits past width {width}");
                }
                let mut or = b.clone();
                or.or_assign(&a);
                assert_eq!(or, a.or(&b), "or_assign at width {width}");
                let mut cleared = a.clone();
                cleared.clear();
                assert_eq!(cleared, Row::zeros(width), "clear at width {width}");
            }
        }
    }

    #[test]
    fn allocating_ops_keep_the_tail_clear() {
        for width in WIDTHS {
            let a = random_row(width, 11);
            let b = random_row(width, 12);
            for r in [a.not(), a.nor(&b), Row::ones(width), a.not().not()] {
                assert!(tail_is_clear(&r), "width {width}: {r:?}");
                assert!(r.count_ones() <= width);
            }
        }
    }

    #[test]
    #[should_panic(expected = "width mismatch")]
    fn in_place_ops_reject_a_destination_of_another_width() {
        Row::zeros(5).set_or(&Row::zeros(4), &Row::zeros(4));
    }
}
