use crate::lanes::{Lanes, Lines};
use crate::{Complex, Pow2};
use eplace_errors::EplaceError;
use std::f64::consts::PI;
use std::ops::{Add, Mul, Sub};

/// A reusable plan for radix-2 complex FFTs of one fixed power-of-two size.
///
/// The plan precomputes the bit-reversal permutation and both twiddle tables
/// (forward `e^{-2πi·k/N}` and its exact conjugate for the inverse) once;
/// [`FftPlan::forward`] and [`FftPlan::inverse`] then run the classic
/// iterative Cooley–Tukey butterfly in place with no per-butterfly branch or
/// bounds check.
///
/// The transform convention is the unnormalized DFT
/// `X[k] = Σ_n x[n]·e^{-2πi·k·n/N}`; the inverse divides by `N`, so
/// `inverse(forward(x)) == x`.
///
/// The V1 DCT kernels ([`crate::DctPlan`]) run this plan's butterflies on
/// their own fused loads and stores, over a group of lines at once;
/// `forward` and `inverse` run the same butterflies on one [`Complex`]
/// line, as the textbook pipeline those kernels are pinned to bit for bit.
///
/// # Examples
///
/// ```
/// use eplace_spectral::{Complex, FftPlan};
///
/// let plan = FftPlan::new(4).unwrap();
/// let mut data = vec![Complex::ONE; 4];
/// plan.forward(&mut data);
/// assert_eq!(data[0], Complex::new(4.0, 0.0)); // DC bin
/// assert!(data[1].norm() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct FftPlan {
    size: usize,
    bit_rev: Vec<u32>,
    /// Forward twiddles `e^{-2πi·k/N}` for `k < N/2`.
    twiddles: Vec<Complex>,
    /// Inverse twiddles — exact conjugates of `twiddles` (conjugation only
    /// negates the imaginary part, so the tables agree bit-for-bit with the
    /// per-call `conj()` they replace).
    inv_twiddles: Vec<Complex>,
}

impl FftPlan {
    /// Builds a plan for transforms of length `size`.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when `size` is not a power of two. Callers
    /// with a statically valid size use [`FftPlan::for_pow2`] instead.
    pub fn new(size: usize) -> Result<Self, EplaceError> {
        Pow2::new(size).map(Self::for_pow2)
    }

    /// Builds a plan from a checked-at-construction size — infallible.
    pub fn for_pow2(size: Pow2) -> Self {
        let size = size.get();
        let bits = size.trailing_zeros();
        let mut bit_rev = vec![0u32; size];
        for (i, slot) in bit_rev.iter_mut().enumerate() {
            *slot = (i as u32).reverse_bits() >> (32 - bits.max(1));
        }
        if size == 1 {
            bit_rev[0] = 0;
        }
        let twiddles: Vec<Complex> = (0..size / 2)
            .map(|k| Complex::from_polar_unit(-2.0 * PI * k as f64 / size as f64))
            .collect();
        let inv_twiddles = twiddles.iter().map(|w| w.conj()).collect();
        FftPlan {
            size,
            bit_rev,
            twiddles,
            inv_twiddles,
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Returns `true` for the (degenerate but legal) length-1 plan — present
    /// to satisfy the `len`/`is_empty` convention; a plan is never truly
    /// empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The bit-reversal permutation table (`data[i]` pre-butterfly holds
    /// `x[bit_rev[i]]`). The DCT layer fuses this into its own repacking.
    #[inline]
    pub(crate) fn bit_rev_table(&self) -> &[u32] {
        &self.bit_rev
    }

    /// In-place forward DFT.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn forward(&self, data: &mut [Complex]) {
        self.check_len(data.len());
        self.permute(data);
        self.butterflies(data, false);
    }

    /// In-place inverse DFT (including the `1/N` normalization).
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` differs from the plan size.
    pub fn inverse(&self, data: &mut [Complex]) {
        self.check_len(data.len());
        self.permute(data);
        self.butterflies(data, true);
        let scale = 1.0 / self.size as f64;
        for z in data.iter_mut() {
            *z = z.scale(scale);
        }
    }

    #[inline]
    fn check_len(&self, len: usize) {
        assert_eq!(
            len, self.size,
            "FFT buffer length {} differs from plan size {}",
            len, self.size
        );
    }

    /// The bit-reversal swap pass (self-inverse permutation).
    fn permute(&self, data: &mut [Complex]) {
        for i in 0..self.size {
            let j = self.bit_rev[i] as usize;
            if i < j {
                data.swap(i, j);
            }
        }
    }

    /// Iterative butterfly passes over bit-reversed data. Twiddles for the
    /// stage of half-size `half` are the chosen table strided by
    /// `n/(2·half)`; the forward/inverse selection is a single table pick
    /// hoisted out of the loops, and the `split_at_mut`/`zip` structure lets
    /// the compiler drop every bounds check. Butterflies touch disjoint
    /// pairs, so this ordering is bit-identical to any other.
    ///
    /// The first two stages run dedicated loops: their blocks hold one or
    /// two butterflies, so the generic triple-iterator setup costs more than
    /// the arithmetic it drives. The specialized loops perform the identical
    /// multiply/add sequence per butterfly — including the multiplies by the
    /// `(1, −0)` twiddle, which must not be skipped or signed zeros would
    /// change — so every output bit matches the generic pass.
    ///
    /// `T` is one line ([`Complex`]) or a lane group ([`Lanes`]) whose lanes
    /// share each twiddle; every lane computes the one-line arithmetic.
    pub(crate) fn butterflies<T>(&self, data: &mut [T], invert: bool)
    where
        T: Copy + Add<Output = T> + Sub<Output = T> + Mul<Complex, Output = T>,
    {
        let n = self.size;
        let tw: &[Complex] = if invert {
            &self.inv_twiddles
        } else {
            &self.twiddles
        };
        let mut half = 1;
        if n >= 2 {
            let w0 = tw[0];
            for pair in data.chunks_exact_mut(2) {
                let t = pair[1] * w0;
                let x = pair[0];
                pair[0] = x + t;
                pair[1] = x - t;
            }
            half = 2;
        }
        if n >= 4 {
            let w0 = tw[0];
            let w1 = tw[n / 4];
            for block in data.chunks_exact_mut(4) {
                let t0 = block[2] * w0;
                let x0 = block[0];
                block[0] = x0 + t0;
                block[2] = x0 - t0;
                let t1 = block[3] * w1;
                let x1 = block[1];
                block[1] = x1 + t1;
                block[3] = x1 - t1;
            }
            half = 4;
        }
        while half < n {
            let stride = n / (2 * half);
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), w) in lo
                    .iter_mut()
                    .zip(hi.iter_mut())
                    .zip(tw.iter().step_by(stride))
                {
                    let t = *b * *w;
                    let x = *a;
                    *a = x + t;
                    *b = x - t;
                }
            }
            half *= 2;
        }
    }
}

/// One pass of the mixed-radix Stockham FFT, with its per-pass twiddles.
#[derive(Debug, Clone)]
enum HalfFftStage {
    /// Radix-4 decimation-in-frequency pass over sub-length `len`:
    /// `tw[p] = (w¹ᵖ, w²ᵖ, w³ᵖ)` with `w = e^{∓2πi/len}` for `p < len/4`.
    Radix4 { len: usize, tw: Vec<[Complex; 3]> },
    /// The final radix-2 pass (twiddle-free butterfly), present when
    /// `log₂(size)` is odd.
    Radix2,
}

/// Mixed-radix complex FFT used by the v2 folded-real transform kernels:
/// self-sorting (Stockham autosort) radix-4 decimation-in-frequency passes,
/// with one trailing radix-2 pass when `log₂(size)` is odd.
///
/// Compared to [`FftPlan`], this kernel needs no bit-reversal permutation
/// (each pass writes its outputs already sorted for the next) and does ~25 %
/// fewer complex multiplies per element thanks to the radix-4 butterflies —
/// at the cost of ping-ponging between two buffers. It is **not** bit
/// compatible with [`FftPlan`]; the v2 engine that uses it is validated
/// against the `O(N²)` oracles instead.
///
/// `run` leaves the result in `a` or `b` depending on the pass-count parity;
/// the returned flag says which (`true` = `b`).
#[derive(Debug, Clone)]
pub(crate) struct HalfFft {
    size: usize,
    fwd: Vec<HalfFftStage>,
    inv: Vec<HalfFftStage>,
}

impl HalfFft {
    /// Builds the stage list for transforms of (power-of-two) length `size`.
    pub(crate) fn new(size: Pow2) -> Self {
        let size = size.get();
        let build = |invert: bool| {
            let sign = if invert { 2.0 } else { -2.0 };
            let mut stages = Vec::new();
            let mut n = size;
            while n >= 4 {
                let tw: Vec<[Complex; 3]> = (0..n / 4)
                    .map(|p| {
                        let theta = sign * PI * p as f64 / n as f64;
                        [
                            Complex::from_polar_unit(theta),
                            Complex::from_polar_unit(2.0 * theta),
                            Complex::from_polar_unit(3.0 * theta),
                        ]
                    })
                    .collect();
                stages.push(HalfFftStage::Radix4 { len: n, tw });
                n /= 4;
            }
            if n == 2 {
                stages.push(HalfFftStage::Radix2);
            }
            stages
        };
        HalfFft {
            size,
            fwd: build(false),
            inv: build(true),
        }
    }

    /// The transform length.
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.size
    }

    /// Runs the forward (`invert = false`, `X[k] = Σ x[n]·e^{-2πikn/N}`) or
    /// unscaled inverse (`invert = true`, no `1/N`) transform of the `L`
    /// lines in `a`, ping-ponging through `b`. Returns `true` when the result
    /// ends in `b`, `false` when it ends in `a`.
    ///
    /// # Panics
    ///
    /// Panics if either buffer length differs from the plan size.
    pub(crate) fn run<const L: usize>(
        &self,
        a: &mut [Lanes<L>],
        b: &mut [Lanes<L>],
        invert: bool,
    ) -> bool {
        assert_eq!(a.len(), self.size, "HalfFft buffer a length mismatch");
        assert_eq!(b.len(), self.size, "HalfFft buffer b length mismatch");
        let stages = if invert { &self.inv } else { &self.fwd };
        Self::run_stages(stages, 1, a, b, invert, false).0
    }

    /// The ping-pong stage loop shared by every entry point: runs `stages`
    /// starting at `stride` with the current data in `a` (`in_b = false`) or
    /// `b`. Returns the final `(in_b, stride)`.
    fn run_stages<const L: usize>(
        stages: &[HalfFftStage],
        mut stride: usize,
        a: &mut [Lanes<L>],
        b: &mut [Lanes<L>],
        invert: bool,
        mut in_b: bool,
    ) -> (bool, usize) {
        for stage in stages {
            let (src, dst) = if in_b { (&*b, &mut *a) } else { (&*a, &mut *b) };
            match stage {
                HalfFftStage::Radix4 { len, tw } => {
                    Self::radix4_pass(*len, stride, tw, src, dst, invert);
                    stride *= 4;
                }
                HalfFftStage::Radix2 => {
                    Self::radix2_pass(stride, src, dst);
                    stride *= 2;
                }
            }
            in_b = !in_b;
        }
        (in_b, stride)
    }

    /// Forward transform with the Makhoul fold fused into the first radix-4
    /// pass: instead of gathering `data` into a complex buffer and re-reading
    /// it, the first butterfly loads its four inputs straight from the `L`
    /// real lines (`X(j)` = element `j` of each line, fold pair `m` packing
    /// `X` at the even slots `(4m, 4m+2)` for `m < H/2` and the odd slots
    /// `(2N−1−4m, 2N−3−4m)` for `m ≥ H/2`). One full memory round trip
    /// cheaper than `run`; bit-identical to gather-then-`run` because the
    /// butterfly arithmetic is unchanged.
    ///
    /// Requires `size ≥ 4` (smaller sizes have no radix-4 stage — the caller
    /// special-cases them).
    ///
    /// # Panics
    ///
    /// Panics if either buffer length differs from the plan size.
    pub(crate) fn run_folded_fwd<const L: usize>(
        &self,
        data: &[f64],
        lines: Lines,
        a: &mut [Lanes<L>],
        b: &mut [Lanes<L>],
    ) -> bool {
        assert_eq!(a.len(), self.size, "HalfFft buffer a length mismatch");
        assert_eq!(b.len(), self.size, "HalfFft buffer b length mismatch");
        let (first, rest) = match self.fwd.split_first() {
            Some((HalfFftStage::Radix4 { tw, .. }, rest)) => (tw, rest),
            _ => unreachable!("run_folded_fwd requires size >= 4"),
        };
        Self::radix4_first_folded(data, lines, first, a);
        Self::run_stages(rest, 4, a, b, false, false).0
    }

    /// The fused first pass of [`HalfFft::run_folded_fwd`]: a radix-4
    /// decimation-in-frequency butterfly whose inputs come from the folded
    /// real lines. With `s = 1` the four sources for butterfly `p` are fold
    /// pairs `p`, `p + H/4`, `p + H/2`, `p + 3H/4`; resolving the Makhoul
    /// map turns those into six incremental index streams over `data`.
    fn radix4_first_folded<const L: usize>(
        data: &[f64],
        lines: Lines,
        tw: &[[Complex; 3]],
        y: &mut [Lanes<L>],
    ) {
        let h = y.len();
        let n = 2 * h;
        let stride = lines.stride;
        let step = 4 * stride;
        let mut ia = lines.at(0);
        let mut ib = lines.at(h);
        let mut ic = lines.at(n - 1);
        let mut id = lines.at(h - 1);
        let pair = |re: usize, im: usize| Lanes::new(lines.load(data, re), lines.load(data, im));
        for (w, yp) in tw.iter().zip(y.chunks_exact_mut(4)) {
            let [w1, w2, w3] = *w;
            let a = pair(ia, ia + 2 * stride);
            let b = pair(ib, ib + 2 * stride);
            let c = pair(ic, ic - 2 * stride);
            let d = pair(id, id - 2 * stride);
            let apc = a + c;
            let amc = a - c;
            let bpd = b + d;
            let jbmd = (b - d).mul_i();
            let t1 = amc - jbmd;
            let t3 = amc + jbmd;
            yp[0] = apc + bpd;
            yp[1] = w1 * t1;
            yp[2] = w2 * (apc - bpd);
            yp[3] = w3 * t3;
            ia += step;
            ib += step;
            // The final decrements are dead; wrapping keeps them in-range
            // for usize when `offset < stride`.
            ic = ic.wrapping_sub(step);
            id = id.wrapping_sub(step);
        }
    }

    /// Unscaled inverse transform with the inverse-Makhoul unpack fused into
    /// the last pass: instead of finishing the FFT into a complex buffer and
    /// re-reading it for the store loop, the last butterfly writes its
    /// outputs straight to the `L` real lines as `(z·½)·scale` (at the
    /// even/odd slot map of [`HalfFft::run_folded_fwd`]; `negate_odd` flips
    /// the sign of odd outputs for the DST before the scale). One full memory
    /// round trip cheaper than `run` plus a store loop; bit-identical to it
    /// because the butterfly and store arithmetic are unchanged.
    ///
    /// Requires `size ≥ 2` (size 1 has no stages — the caller special-cases
    /// it).
    ///
    /// # Panics
    ///
    /// Panics if either buffer length differs from the plan size.
    pub(crate) fn run_refolded_inv<const L: usize>(
        &self,
        a: &mut [Lanes<L>],
        b: &mut [Lanes<L>],
        data: &mut [f64],
        lines: Lines,
        scale: f64,
        negate_odd: bool,
    ) {
        assert_eq!(a.len(), self.size, "HalfFft buffer a length mismatch");
        assert_eq!(b.len(), self.size, "HalfFft buffer b length mismatch");
        let (last, head) = match self.inv.split_last() {
            Some(pair) => pair,
            None => unreachable!("run_refolded_inv requires size >= 2"),
        };
        let (in_b, s) = Self::run_stages(head, 1, a, b, true, false);
        let z: &[Lanes<L>] = if in_b { &*b } else { &*a };
        let h = self.size;
        let n = 2 * h;
        let stride = lines.stride;
        let step = 4 * stride;
        // Per-stream output cursors: two ascending even streams, two
        // descending odd streams (see the module docs for the slot map).
        let mut e0 = lines.at(0);
        let mut o0 = lines.at(n - 1);
        match last {
            HalfFftStage::Radix4 { tw, .. } => {
                let [w1, w2, w3] = tw[0];
                let (xa, xr) = z.split_at(s);
                let (xb, xr) = xr.split_at(s);
                let (xc, xd) = xr.split_at(s);
                let mut e1 = lines.at(h);
                let mut o1 = lines.at(h - 1);
                for (((&a, &b), &c), &d) in xa.iter().zip(xb).zip(xc).zip(xd) {
                    let apc = a + c;
                    let amc = a - c;
                    let bpd = b + d;
                    let jbmd = (b - d).mul_i();
                    let t1 = amc + jbmd;
                    let t3 = amc - jbmd;
                    let (even0, even1) = (apc + bpd, w1 * t1);
                    let (odd0, odd1) = (w2 * (apc - bpd), w3 * t3);
                    lines.store(data, e0, half_scaled(even0.re, false, scale));
                    lines.store(data, e0 + 2 * stride, half_scaled(even0.im, false, scale));
                    lines.store(data, e1, half_scaled(even1.re, false, scale));
                    lines.store(data, e1 + 2 * stride, half_scaled(even1.im, false, scale));
                    lines.store(data, o0, half_scaled(odd0.re, negate_odd, scale));
                    lines.store(
                        data,
                        o0 - 2 * stride,
                        half_scaled(odd0.im, negate_odd, scale),
                    );
                    lines.store(data, o1, half_scaled(odd1.re, negate_odd, scale));
                    lines.store(
                        data,
                        o1 - 2 * stride,
                        half_scaled(odd1.im, negate_odd, scale),
                    );
                    e0 += step;
                    e1 += step;
                    o0 = o0.wrapping_sub(step);
                    o1 = o1.wrapping_sub(step);
                }
            }
            HalfFftStage::Radix2 => {
                let (xa, xb) = z.split_at(s);
                for (&a, &b) in xa.iter().zip(xb) {
                    let even = a + b;
                    let odd = a - b;
                    lines.store(data, e0, half_scaled(even.re, false, scale));
                    lines.store(data, e0 + 2 * stride, half_scaled(even.im, false, scale));
                    lines.store(data, o0, half_scaled(odd.re, negate_odd, scale));
                    lines.store(
                        data,
                        o0 - 2 * stride,
                        half_scaled(odd.im, negate_odd, scale),
                    );
                    e0 += step;
                    o0 = o0.wrapping_sub(step);
                }
            }
        }
    }

    /// One radix-4 DIF pass: `s` interleaved sub-transforms of length `len`.
    /// Reads `x`, writes `y` with the outputs of butterfly `p` landing at
    /// `4p + r` — the Stockham self-sorting store.
    ///
    /// The index algebra `x[q + s·(p + r·len/4)]`, `y[q + s·(4p + r)]` is
    /// expressed as slice splits and lock-step zips so every inner-loop
    /// access is provably in bounds — the compiler drops the per-element
    /// checks and vectorizes the butterfly.
    fn radix4_pass<const L: usize>(
        len: usize,
        s: usize,
        tw: &[[Complex; 3]],
        x: &[Lanes<L>],
        y: &mut [Lanes<L>],
        invert: bool,
    ) {
        let quarter = s * (len / 4);
        let (xa, rest) = x.split_at(quarter);
        let (xb, rest) = rest.split_at(quarter);
        let (xc, xd) = rest.split_at(quarter);
        let butterflies = tw
            .iter()
            .zip(xa.chunks_exact(s))
            .zip(xb.chunks_exact(s))
            .zip(xc.chunks_exact(s))
            .zip(xd.chunks_exact(s))
            .zip(y.chunks_exact_mut(4 * s));
        for (((((w, pa), pb), pc), pd), yp) in butterflies {
            let [w1, w2, w3] = *w;
            let (y0, yr) = yp.split_at_mut(s);
            let (y1, yr) = yr.split_at_mut(s);
            let (y2, y3) = yr.split_at_mut(s);
            let columns = pa
                .iter()
                .zip(pb)
                .zip(pc)
                .zip(pd)
                .zip(y0)
                .zip(y1)
                .zip(y2)
                .zip(y3);
            for (((((((a, b), c), d), y0), y1), y2), y3) in columns {
                let apc = *a + *c;
                let amc = *a - *c;
                let bpd = *b + *d;
                let jbmd = (*b - *d).mul_i();
                let (t1, t3) = if invert {
                    (amc + jbmd, amc - jbmd)
                } else {
                    (amc - jbmd, amc + jbmd)
                };
                *y0 = apc + bpd;
                *y1 = w1 * t1;
                *y2 = w2 * (apc - bpd);
                *y3 = w3 * t3;
            }
        }
    }

    /// The final radix-2 pass: `s` twiddle-free length-2 butterflies.
    fn radix2_pass<const L: usize>(s: usize, x: &[Lanes<L>], y: &mut [Lanes<L>]) {
        let (xa, xb) = x.split_at(s);
        let (ya, yb) = y.split_at_mut(s);
        for (((a, b), ya), yb) in xa.iter().zip(xb).zip(ya).zip(yb) {
            *ya = *a + *b;
            *yb = *a - *b;
        }
    }
}

/// The inverse-Makhoul store value `(v·½)·scale` per lane, the DST's sign
/// flip applied to `v·½` first.
#[inline(always)]
fn half_scaled<const L: usize>(v: [f64; L], negate: bool, scale: f64) -> [f64; L] {
    v.map(|x| {
        let half = x * 0.5;
        (if negate { -half } else { half }) * scale
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;

    fn assert_close(a: &[Complex], b: &[Complex], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((*x - *y).norm() < tol, "mismatch: {x} vs {y} (tol {tol})");
        }
    }

    #[test]
    fn impulse_transforms_to_flat_spectrum() {
        let plan = FftPlan::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 8];
        data[0] = Complex::ONE;
        plan.forward(&mut data);
        for z in &data {
            assert!((z.re - 1.0).abs() < 1e-14 && z.im.abs() < 1e-14);
        }
    }

    #[test]
    fn matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 64] {
            let plan = FftPlan::new(n).unwrap();
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut fast = input.clone();
            plan.forward(&mut fast);
            let slow = reference::naive_dft(&input);
            assert_close(&fast, &slow, 1e-10);
        }
    }

    #[test]
    fn round_trip_identity() {
        let plan = FftPlan::new(32).unwrap();
        let input: Vec<Complex> = (0..32)
            .map(|i| Complex::new(i as f64, -(i as f64) * 0.5))
            .collect();
        let mut data = input.clone();
        plan.forward(&mut data);
        plan.inverse(&mut data);
        assert_close(&data, &input, 1e-10);
    }

    #[test]
    fn linearity() {
        let plan = FftPlan::new(16).unwrap();
        let a: Vec<Complex> = (0..16).map(|i| Complex::new(i as f64, 0.0)).collect();
        let b: Vec<Complex> = (0..16).map(|i| Complex::new(0.0, (i * i) as f64)).collect();
        let mut fa = a.clone();
        let mut fb = b.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut fab: Vec<Complex> = a.iter().zip(&b).map(|(x, y)| *x + *y).collect();
        plan.forward(&mut fab);
        for i in 0..16 {
            assert!((fab[i] - (fa[i] + fb[i])).norm() < 1e-10);
        }
    }

    #[test]
    fn parseval_energy_conservation() {
        let plan = FftPlan::new(64).unwrap();
        let input: Vec<Complex> = (0..64)
            .map(|i| Complex::new((i as f64).cos(), (i as f64 * 0.3).sin()))
            .collect();
        let time_energy: f64 = input.iter().map(|z| z.norm_sq()).sum();
        let mut freq = input.clone();
        plan.forward(&mut freq);
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sq()).sum::<f64>() / 64.0;
        assert!((time_energy - freq_energy).abs() < 1e-8 * time_energy);
    }

    #[test]
    fn non_power_of_two_size_is_a_typed_error() {
        let err = FftPlan::new(12).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("power of two"), "unexpected error: {text}");
        assert!(
            matches!(err, eplace_errors::EplaceError::Validation { .. }),
            "expected a Validation error"
        );
        assert!(FftPlan::new(0).is_err());
    }

    /// `z` as a one-lane group per element, and back.
    fn one_lane(z: &[Complex]) -> Vec<Lanes<1>> {
        z.iter().map(|c| Lanes::new([c.re], [c.im])).collect()
    }

    fn from_one_lane(z: &[Lanes<1>]) -> Vec<Complex> {
        z.iter().map(|c| Complex::new(c.re[0], c.im[0])).collect()
    }

    #[test]
    fn half_fft_matches_naive_dft() {
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128, 256] {
            let size = Pow2::new(n).unwrap();
            let half = HalfFft::new(size);
            assert_eq!(half.len(), n);
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos()))
                .collect();
            let mut a = one_lane(&input);
            let mut b = vec![Lanes::ZERO; n];
            let in_b = half.run(&mut a, &mut b, false);
            let fast = from_one_lane(if in_b { &b } else { &a });
            let slow = reference::naive_dft(&input);
            assert_close(&fast, &slow, 1e-10 * n.max(1) as f64);
        }
    }

    #[test]
    fn half_fft_unscaled_inverse_round_trips() {
        for &n in &[1usize, 2, 4, 16, 64, 256] {
            let half = HalfFft::new(Pow2::new(n).unwrap());
            let input: Vec<Complex> = (0..n)
                .map(|i| Complex::new(i as f64 * 0.25 - 1.0, (i as f64 * 0.9).sin()))
                .collect();
            let mut a = one_lane(&input);
            let mut b = vec![Lanes::ZERO; n];
            let fwd_in_b = half.run(&mut a, &mut b, false);
            // Feed the spectrum back through the inverse stages.
            if fwd_in_b {
                std::mem::swap(&mut a, &mut b);
            }
            let inv_in_b = half.run(&mut a, &mut b, true);
            let out = from_one_lane(if inv_in_b { &b } else { &a });
            let scale = 1.0 / n as f64;
            for (y, x) in out.iter().zip(&input) {
                assert!((y.scale(scale) - *x).norm() < 1e-10, "n {n}");
            }
        }
    }

    #[test]
    fn half_fft_lanes_are_bitwise_one_line_runs() {
        // Four lines through one lane-group run must each get the bits of
        // their own one-line run, whatever the neighbouring lanes hold.
        let specials = [
            0.0,
            -0.0,
            5e-324,
            -f64::MIN_POSITIVE,
            f64::INFINITY,
            f64::NAN,
        ];
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let half = HalfFft::new(Pow2::new(n).unwrap());
            let line = |l: usize| -> Vec<Complex> {
                (0..n)
                    .map(|i| {
                        let k = i * 4 + l;
                        if l == 3 && i % 7 == 2 {
                            Complex::new(specials[k % 6], specials[(k + 1) % 6])
                        } else {
                            Complex::new((k as f64 * 0.37).sin(), (k as f64 * 0.11).cos())
                        }
                    })
                    .collect()
            };
            for invert in [false, true] {
                let mut a: Vec<Lanes<4>> = (0..n)
                    .map(|i| {
                        let z: [Complex; 4] = std::array::from_fn(|l| line(l)[i]);
                        Lanes::new(z.map(|c| c.re), z.map(|c| c.im))
                    })
                    .collect();
                let mut b = vec![Lanes::ZERO; n];
                let in_b = half.run(&mut a, &mut b, invert);
                let wide = if in_b { &b } else { &a };
                for l in 0..4 {
                    let mut a1 = one_lane(&line(l));
                    let mut b1 = vec![Lanes::ZERO; n];
                    let in_b1 = half.run(&mut a1, &mut b1, invert);
                    let one = if in_b1 { &b1 } else { &a1 };
                    for (w, o) in wide.iter().zip(one) {
                        for (x, y) in [(w.re[l], o.re[0]), (w.im[l], o.im[0])] {
                            assert!(
                                x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                                "n {n} invert {invert} lane {l}: {x} vs {y}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "differs from plan size")]
    fn wrong_buffer_length_panics() {
        let plan = FftPlan::new(8).unwrap();
        let mut data = vec![Complex::ZERO; 4];
        plan.forward(&mut data);
    }

    #[test]
    fn size_one_is_identity() {
        let plan = FftPlan::new(1).unwrap();
        let mut data = vec![Complex::new(3.0, 4.0)];
        plan.forward(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
        plan.inverse(&mut data);
        assert_eq!(data[0], Complex::new(3.0, 4.0));
        assert_eq!(plan.len(), 1);
        assert!(!plan.is_empty());
    }

    #[test]
    fn inverse_twiddles_are_exact_conjugates() {
        let plan = FftPlan::new(64).unwrap();
        for (w, iw) in plan.twiddles.iter().zip(&plan.inv_twiddles) {
            assert_eq!(w.re.to_bits(), iw.re.to_bits());
            assert_eq!((-w.im).to_bits(), iw.im.to_bits());
        }
    }

    /// The all-generic stage loop the specialized first stages replaced;
    /// kept as the oracle for bit-equality of the fast path.
    fn butterflies_generic(plan: &FftPlan, data: &mut [Complex], invert: bool) {
        let n = plan.size;
        let tw: &[Complex] = if invert {
            &plan.inv_twiddles
        } else {
            &plan.twiddles
        };
        let mut half = 1;
        while half < n {
            let stride = n / (2 * half);
            for block in data.chunks_exact_mut(2 * half) {
                let (lo, hi) = block.split_at_mut(half);
                for ((a, b), w) in lo
                    .iter_mut()
                    .zip(hi.iter_mut())
                    .zip(tw.iter().step_by(stride))
                {
                    let t = *b * *w;
                    let x = *a;
                    *a = x + t;
                    *b = x - t;
                }
            }
            half *= 2;
        }
    }

    #[test]
    fn specialized_first_stages_are_bitwise_generic() {
        for &n in &[1usize, 2, 4, 8, 32, 256] {
            let plan = FftPlan::new(n).unwrap();
            // Include signed zeros and denormal-ish magnitudes: the exact
            // cases where skipping a (1, −0) twiddle multiply would differ.
            let input: Vec<Complex> = (0..n)
                .map(|i| match i % 5 {
                    0 => Complex::new(0.0, -0.0),
                    1 => Complex::new(-0.0, 0.0),
                    _ => Complex::new((i as f64 * 0.7).sin(), (i as f64 * 1.3).cos() * 1e-300),
                })
                .collect();
            for invert in [false, true] {
                let mut fast = input.clone();
                plan.butterflies(&mut fast, invert);
                let mut slow = input.clone();
                butterflies_generic(&plan, &mut slow, invert);
                for (a, b) in fast.iter().zip(&slow) {
                    assert_eq!(a.re.to_bits(), b.re.to_bits(), "n {n} invert {invert}");
                    assert_eq!(a.im.to_bits(), b.im.to_bits(), "n {n} invert {invert}");
                }
            }
        }
    }
}
