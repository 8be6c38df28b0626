//! Lane groups: `L` independent grid lines transformed by one kernel call.
//!
//! A 2-D transform runs the same 1-D kernel over many lines that share every
//! twiddle factor. [`Lanes`] carries one complex value per line, and its
//! arithmetic computes each lane with exactly the formula [`Complex`]'s
//! operator uses — the same operands in the same order — so a kernel
//! written over `Lanes<L>` gives every line the bits the one-line kernel
//! (`L = 1`) gives it. The lane loops are plain `[f64; L]` arithmetic that
//! the compiler turns into vector instructions; the baseline x86-64 target
//! has no fused multiply-add and Rust never contracts `a * b + c` on its
//! own, so a vector lane rounds exactly like the scalar code.

use crate::Complex;
use std::array;
use std::ops::{Add, Mul, Sub};

/// One complex value per line of a lane group.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Lanes<const L: usize> {
    pub(crate) re: [f64; L],
    pub(crate) im: [f64; L],
}

impl<const L: usize> Lanes<L> {
    pub(crate) const ZERO: Self = Lanes {
        re: [0.0; L],
        im: [0.0; L],
    };

    #[inline(always)]
    pub(crate) fn new(re: [f64; L], im: [f64; L]) -> Self {
        Lanes { re, im }
    }

    /// `Complex::from(re)` per lane: imaginary part `0.0`.
    #[inline(always)]
    pub(crate) fn from_re(re: [f64; L]) -> Self {
        Lanes { re, im: [0.0; L] }
    }

    /// [`Complex::mul_i`] per lane.
    #[inline(always)]
    pub(crate) fn mul_i(self) -> Self {
        Lanes {
            re: neg(self.im),
            im: self.re,
        }
    }

    /// [`Complex::conj`] per lane.
    #[inline(always)]
    pub(crate) fn conj(self) -> Self {
        Lanes {
            re: self.re,
            im: neg(self.im),
        }
    }
}

/// `-x` per lane (an exact sign flip).
#[inline(always)]
pub(crate) fn neg<const L: usize>(x: [f64; L]) -> [f64; L] {
    x.map(|v| -v)
}

impl<const L: usize> Add for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn add(self, rhs: Self) -> Self {
        Lanes {
            re: array::from_fn(|l| self.re[l] + rhs.re[l]),
            im: array::from_fn(|l| self.im[l] + rhs.im[l]),
        }
    }
}

impl<const L: usize> Sub for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn sub(self, rhs: Self) -> Self {
        Lanes {
            re: array::from_fn(|l| self.re[l] - rhs.re[l]),
            im: array::from_fn(|l| self.im[l] - rhs.im[l]),
        }
    }
}

/// `z * w` per lane, the lanes on the left as in `Complex * Complex`.
impl<const L: usize> Mul<Complex> for Lanes<L> {
    type Output = Self;
    #[inline(always)]
    fn mul(self, w: Complex) -> Self {
        Lanes {
            re: array::from_fn(|l| self.re[l] * w.re - self.im[l] * w.im),
            im: array::from_fn(|l| self.re[l] * w.im + self.im[l] * w.re),
        }
    }
}

/// `w * z` per lane, the shared twiddle on the left.
impl<const L: usize> Mul<Lanes<L>> for Complex {
    type Output = Lanes<L>;
    #[inline(always)]
    fn mul(self, z: Lanes<L>) -> Lanes<L> {
        Lanes {
            re: array::from_fn(|l| self.re * z.re[l] - self.im * z.im[l]),
            im: array::from_fn(|l| self.re * z.im[l] + self.im * z.re[l]),
        }
    }
}

/// Where a lane group sits in a flat buffer: element `i` of line `l` is
/// `data[offset + i·stride + l·dist]`. A row group of a row-major `nx`-wide
/// grid has `stride = 1, dist = nx`; a group of adjacent columns has
/// `stride = nx, dist = 1`, so each element's `L` values are contiguous.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lines {
    pub(crate) offset: usize,
    pub(crate) stride: usize,
    pub(crate) dist: usize,
}

impl Lines {
    /// One line (`dist` is never read at `L = 1`).
    pub(crate) fn one(offset: usize, stride: usize) -> Self {
        Lines {
            offset,
            stride,
            dist: 0,
        }
    }

    /// The buffer index of element `i` of line 0.
    #[inline(always)]
    pub(crate) fn at(self, i: usize) -> usize {
        self.offset + i * self.stride
    }

    /// The `L` values at line-0 index `at`: `data[at + l·dist]`.
    #[inline(always)]
    pub(crate) fn load<const L: usize>(self, data: &[f64], at: usize) -> [f64; L] {
        array::from_fn(|l| data[at + l * self.dist])
    }

    /// Stores `v[l]` to `data[at + l·dist]`.
    #[inline(always)]
    pub(crate) fn store<const L: usize>(self, data: &mut [f64], at: usize, v: [f64; L]) {
        for (l, v) in v.into_iter().enumerate() {
            data[at + l * self.dist] = v;
        }
    }

    /// Panics unless every element of the `L` lines of length `len` lies in
    /// a buffer of `buf` elements.
    pub(crate) fn check<const L: usize>(self, buf: usize, len: usize, what: &str) {
        assert!(self.stride > 0, "{what} stride must be positive");
        assert!(
            L == 1 || self.dist > 0,
            "{what} line distance must be positive"
        );
        let last = self.at(len - 1) + (L - 1) * self.dist;
        assert!(
            last < buf,
            "{what} strided line (offset {}, stride {}) exceeds buffer length {buf}",
            self.offset,
            self.stride
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values where a reordered or misrouted operation shows in the bits:
    /// signed zeros, subnormals, infinities, NaN and ordinary magnitudes.
    const SPECIALS: [f64; 12] = [
        0.0,
        -0.0,
        f64::MIN_POSITIVE / 8.0,
        -f64::MIN_POSITIVE / 3.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        1.0,
        -2.5,
        1e-300,
        3.7e300,
        0.1,
    ];

    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    fn assert_lanes_are<const L: usize>(got: Lanes<L>, want: [Complex; L], what: &str) {
        for (l, w) in want.iter().enumerate() {
            assert!(
                same(got.re[l], w.re) && same(got.im[l], w.im),
                "{what} lane {l}: {:?} vs {w:?}",
                (got.re[l], got.im[l])
            );
        }
    }

    /// `L` complex operands cycling through the specials from `seed`.
    fn operands<const L: usize>(seed: usize) -> ([Complex; L], Lanes<L>) {
        let z: [Complex; L] = array::from_fn(|l| {
            let k = seed + 5 * l;
            Complex::new(SPECIALS[k % 12], SPECIALS[(k * 7 + 3) % 12])
        });
        let lanes = Lanes::new(z.map(|c| c.re), z.map(|c| c.im));
        (z, lanes)
    }

    #[test]
    fn each_lane_operation_is_bitwise_complex() {
        for seed in 0..144 {
            let (a, la) = operands::<4>(seed);
            let (b, lb) = operands::<4>(seed / 12 + 7 * (seed % 12));
            let w = b[seed % 4];
            let pick = |f: &dyn Fn(Complex, Complex) -> Complex| -> [Complex; 4] {
                array::from_fn(|l| f(a[l], b[l]))
            };
            assert_lanes_are(la + lb, pick(&|x, y| x + y), "add");
            assert_lanes_are(la - lb, pick(&|x, y| x - y), "sub");
            assert_lanes_are(la * w, pick(&|x, _| x * w), "lanes * w");
            assert_lanes_are(w * la, pick(&|x, _| w * x), "w * lanes");
            assert_lanes_are(la.mul_i(), pick(&|x, _| x.mul_i()), "mul_i");
            assert_lanes_are(la.conj(), pick(&|x, _| x.conj()), "conj");
            assert_lanes_are(
                Lanes::from_re(la.re),
                pick(&|x, _| Complex::from(x.re)),
                "from_re",
            );
        }
    }

    #[test]
    fn lines_address_each_lane() {
        let data: Vec<f64> = (0..40).map(|i| i as f64).collect();
        let rows = Lines {
            offset: 2,
            stride: 1,
            dist: 10,
        };
        assert_eq!(rows.load::<4>(&data, rows.at(3)), [5.0, 15.0, 25.0, 35.0]);
        let cols = Lines {
            offset: 4,
            stride: 8,
            dist: 1,
        };
        let mut out = data.clone();
        cols.store(&mut out, cols.at(2), [-1.0, -2.0, -3.0, -4.0]);
        assert_eq!(&out[20..24], &[-1.0, -2.0, -3.0, -4.0]);
        cols.check::<4>(40, 5, "cols");
    }

    #[test]
    #[should_panic(expected = "exceeds buffer length")]
    fn a_group_past_the_buffer_panics() {
        let cols = Lines {
            offset: 4,
            stride: 8,
            dist: 1,
        };
        cols.check::<4>(40, 6, "cols");
    }
}
