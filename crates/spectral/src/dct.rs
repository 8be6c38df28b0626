use crate::fft::HalfFft;
use crate::lanes::{neg, Lanes, Lines};
use crate::{Complex, FftPlan, Pow2};
use eplace_errors::EplaceError;
use std::array;
use std::f64::consts::PI;

/// A reusable plan for cosine/sine transforms of one fixed power-of-two size.
///
/// Each transform is one in-place kernel per engine
/// ([`crate::SpectralEngine`]) over the strided line
/// `data[offset + i·stride]`: a contiguous line at offset 0 and stride 1,
/// or one column of a row-major grid at stride `nx`.
///
/// | transform | V1 | V2 |
/// |---|---|---|
/// | DCT-II analysis (the Poisson solve's forward step) | [`DctPlan::dct2_strided`] | [`DctPlan::dct2_v2`] |
/// | DCT-III synthesis (the potential ψ) | [`DctPlan::dct3_strided`] | [`DctPlan::dct3_v2`] |
/// | DST-III synthesis (the field ξ) | [`DctPlan::dst3_strided`] | [`DctPlan::dst3_v2`] |
///
/// The synthesis kernels fuse a caller's elementwise `·scale` into their
/// final store (`1.0` for none); DCT-III scaled by `2/N` inverts the
/// DCT-II.
///
/// Behind each public one-line method sits one kernel generic over a lane
/// count `L`: [`crate::Transform2d`] runs it on `L` lines a fixed distance
/// apart per call, every lane computing the one-line arithmetic, and the
/// public methods are its `L = 1` instance.
///
/// V1 runs in `O(N log N)` via Makhoul's repacking onto a single `N`-point
/// complex FFT, bit-for-bit identical to the textbook pipeline it replaces:
///
/// * the forward kernel loads the real line through a precomputed
///   permutation that fuses Makhoul's even/odd reorder with the FFT's
///   bit-reversal (a real-to-complex gather; no separate pack or swap pass),
///   and the post-twiddle keeps only the real component each output needs;
/// * the synthesis kernels rebuild the Hermitian spectrum directly in
///   bit-reversed order from precomputed conjugate twiddles, run the raw
///   inverse butterflies, and fuse the `1/N` normalization (and the DCT-III
///   `N/2` scale / DST sign flips) into the unpacking store;
/// * every kernel reads its whole lines into scratch before its first
///   store, so rows and columns transform without a bounce buffer.
///
/// # Examples
///
/// ```
/// use eplace_spectral::{DctPlan, DctScratch};
///
/// let plan = DctPlan::new(16).unwrap();
/// let mut scratch = DctScratch::new(16);
/// let x: Vec<f64> = (0..16).map(|i| i as f64).collect();
/// let mut line = x.clone();
/// plan.dct2_strided(&mut line, 0, 1, &mut scratch);
/// plan.dct3_strided(&mut line, 0, 1, 1.0, &mut scratch);
/// for (a, b) in x.iter().zip(&line) {
///     assert!((8.0 * a - b).abs() < 1e-9); // dct3∘dct2 = (N/2)·id
/// }
/// ```
#[derive(Debug, Clone)]
pub struct DctPlan {
    size: usize,
    fft: FftPlan,
    /// `e^{-iπu/(2N)}` for `u < N` — forward post-twiddles.
    fwd_twiddles: Vec<Complex>,
    /// Exact conjugates of `fwd_twiddles` — synthesis pre-twiddles
    /// (conjugation only negates the imaginary part, so the table agrees
    /// bit-for-bit with the per-call `conj()` it replaces).
    inv_twiddles: Vec<Complex>,
    /// Fused input permutation for the forward path:
    /// `packed_rev[j] = makhoul(bit_rev[j])` where `makhoul` maps FFT slot
    /// `i` to source index `2i` (first half) or `2(N−1−i)+1` (second half).
    /// One gather replaces the pack pass plus the in-place swap pass.
    packed_rev: Vec<u32>,
    /// Engine-v2 mixed-radix Stockham FFT of length `N/2` — the folded-real
    /// half-size kernel every v2 transform runs instead of the full-size FFT.
    half: HalfFft,
    /// Engine-v2 forward unfold twiddles `s[u] = i·e^{−2πiu/N}` for
    /// `u ≤ N/2`: `U[u] = (Z[u]+conj(Z[H−u])) − s[u]·(Z[u]−conj(Z[H−u]))`
    /// recovers twice the full-size spectrum bin from the half-spectrum
    /// symmetric/antisymmetric parts.
    unfold: Vec<Complex>,
    /// Engine-v2 forward projections with the unfold's `1/2` pre-folded:
    /// `[g.re, g.im, g'.re, g'.im]` where `g = fwd_twiddles[u]/2` and
    /// `g' = fwd_twiddles[N−u]/2`, so `C[u] = g.re·U.re − g.im·U.im` and
    /// `C[N−u] = g'.re·U.re + g'.im·U.im` cost no extra scaling pass.
    /// Slot 0 is unused (bins 0 and H are handled separately).
    fwd_half: Vec<[f64; 4]>,
    /// Engine-v2 synthesis refold twiddles `e^{+2πiu/N}` for `u < N/2`,
    /// recombining the even/odd half-spectra into the half-size inverse
    /// input.
    refold: Vec<Complex>,
}

/// Work buffers for the [`DctPlan`] kernels of one plan size, holding `L`
/// lines per slot (the public one-line kernels take the default `L = 1`).
///
/// A caller builds one per plan size and passes it to every kernel call,
/// so repeated transforms are allocation-free (the placer transforms the
/// grid three times per Nesterov iteration).
#[derive(Debug, Clone)]
pub struct DctScratch<const L: usize = 1> {
    /// Complex FFT workspace (v1 full-size path).
    freq: Vec<Lanes<L>>,
    /// Engine-v2 half-size ping-pong buffer A (`N/2` slots).
    half_a: Vec<Lanes<L>>,
    /// Engine-v2 half-size ping-pong buffer B (`N/2` slots).
    half_b: Vec<Lanes<L>>,
    /// Engine-v2 natural-order Hermitian half-spectrum (`N/2 + 1` slots).
    vh: Vec<Lanes<L>>,
}

impl<const L: usize> DctScratch<L> {
    /// Scratch sized for a plan of length `size`.
    pub fn new(size: usize) -> Self {
        let h = size / 2;
        DctScratch {
            freq: vec![Lanes::ZERO; size],
            half_a: vec![Lanes::ZERO; h],
            half_b: vec![Lanes::ZERO; h],
            vh: vec![Lanes::ZERO; h + 1],
        }
    }

    /// The plan size this scratch serves.
    #[inline]
    pub fn len(&self) -> usize {
        self.freq.len()
    }

    /// `true` for size-zero scratch (never produced by the solver).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.freq.is_empty()
    }
}

/// Which synthesis a kernel runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Synth {
    /// `1/N` then `N/2` — the DCT-III scale.
    Dct3,
    /// Coefficients read mirrored, the DCT-III scale, then the DST's
    /// alternating sign flip on odd outputs.
    Dst3,
}

impl Synth {
    fn name(self) -> &'static str {
        match self {
            Synth::Dct3 => "dct3",
            Synth::Dst3 => "dst3",
        }
    }
}

impl DctPlan {
    /// Builds a plan for transforms of length `size`.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when `size` is not a power of two. Callers
    /// with a statically valid size use [`DctPlan::for_pow2`] instead.
    pub fn new(size: usize) -> Result<Self, EplaceError> {
        Pow2::new(size).map(Self::for_pow2)
    }

    /// Builds a plan from a checked-at-construction size — infallible.
    pub fn for_pow2(size: Pow2) -> Self {
        let fft = FftPlan::for_pow2(size);
        let size = size.get();
        let fwd_twiddles: Vec<Complex> = (0..size)
            .map(|u| Complex::from_polar_unit(-PI * u as f64 / (2 * size) as f64))
            .collect();
        let inv_twiddles = fwd_twiddles.iter().map(|w| w.conj()).collect();
        let packed_rev = if size == 1 {
            vec![0]
        } else {
            fft.bit_rev_table()
                .iter()
                .map(|&j| {
                    let i = j as usize;
                    if i < size / 2 {
                        2 * i as u32
                    } else {
                        (2 * (size - 1 - i) + 1) as u32
                    }
                })
                .collect()
        };
        let h = size / 2;
        let half = HalfFft::new(Pow2(h.max(1)));
        debug_assert_eq!(half.len(), h.max(1));
        let unfold: Vec<Complex> = (0..=h)
            .map(|u| Complex::from_polar_unit(-2.0 * PI * u as f64 / size as f64).mul_i())
            .collect();
        let fwd_half: Vec<[f64; 4]> = (0..h)
            .map(|u| {
                if u == 0 {
                    [0.0; 4]
                } else {
                    let g = fwd_twiddles[u];
                    let gn = fwd_twiddles[size - u];
                    [0.5 * g.re, 0.5 * g.im, 0.5 * gn.re, 0.5 * gn.im]
                }
            })
            .collect();
        let refold: Vec<Complex> = (0..h)
            .map(|u| Complex::from_polar_unit(2.0 * PI * u as f64 / size as f64))
            .collect();
        DctPlan {
            size,
            fft,
            fwd_twiddles,
            inv_twiddles,
            packed_rev,
            half,
            unfold,
            fwd_half,
            refold,
        }
    }

    /// The transform length this plan was built for.
    #[inline]
    pub fn len(&self) -> usize {
        self.size
    }

    /// Always `false`; present for the `len`/`is_empty` convention.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Panics unless `lines` lie in a buffer of `len` elements and the
    /// scratch was built for this plan's size.
    fn check<const L: usize>(&self, len: usize, lines: Lines, scratch: &DctScratch<L>, what: &str) {
        lines.check::<L>(len, self.size, what);
        assert_eq!(scratch.len(), self.size, "{what} scratch length mismatch");
    }

    /// Forward DCT-II `X[u] = Σ_n x[n]·cos(π·u·(2n+1)/(2N))` of the strided
    /// line `x[i] = data[offset + i·stride]`, in place.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dct2_strided(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scratch: &mut DctScratch,
    ) {
        self.dct2_lines(data, Lines::one(offset, stride), scratch)
    }

    /// [`DctPlan::dct2_strided`] of the `L` lines `lines`, in place.
    pub(crate) fn dct2_lines<const L: usize>(
        &self,
        data: &mut [f64],
        lines: Lines,
        scratch: &mut DctScratch<L>,
    ) {
        self.check(data.len(), lines, scratch, "dct2");
        if self.size == 1 {
            return;
        }
        for (slot, &src) in scratch.freq.iter_mut().zip(&self.packed_rev) {
            *slot = Lanes::from_re(lines.load(data, lines.at(src as usize)));
        }
        self.fft.butterflies(&mut scratch.freq, false);
        // Post-twiddle keeping only the real component: the identical
        // multiply-subtract the full complex product performs for its real
        // part.
        for (u, (z, t)) in scratch.freq.iter().zip(&self.fwd_twiddles).enumerate() {
            let re: [f64; L] = array::from_fn(|l| z.re[l] * t.re - z.im[l] * t.im);
            lines.store(data, lines.at(u), re);
        }
    }

    /// DCT-III synthesis `y[n] = X[0]/2 + Σ_{u≥1} X[u]·cos(π·u·(2n+1)/(2N))`
    /// of the strided line `X[u] = data[offset + u·stride]`, in place, with
    /// `scale` multiplying every stored output — a caller's elementwise
    /// post-scale pass fused into the store (`v·scale` exactly as the
    /// separate pass computes it; pass `1.0` for none).
    ///
    /// DCT-III after [`DctPlan::dct2_strided`] is `(N/2)·x`, so `scale`
    /// `2/N` inverts the DCT-II.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dct3_strided(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scale: f64,
        scratch: &mut DctScratch,
    ) {
        self.synth_lines(
            data,
            Lines::one(offset, stride),
            scale,
            scratch,
            Synth::Dct3,
        )
    }

    /// DST-III-style synthesis used for the electric field,
    /// `y[n] = Σ_{u=1}^{N-1} b[u]·sin(π·u·(2n+1)/(2N))`, of the strided line
    /// `b[u] = data[offset + u·stride]`, in place, with `scale` fused into
    /// the store (see [`DctPlan::dct3_strided`]).
    ///
    /// `b[0]` multiplies the identically-zero basis function `sin(0)` and is
    /// therefore ignored. The identity
    /// `sin(πu(2n+1)/(2N)) = (−1)ⁿ·cos(π(N−u)(2n+1)/(2N))` turns the sine
    /// synthesis into a coefficient-reversed DCT-III followed by alternating
    /// sign flips; the reversal is fused into the spectrum rebuild and the
    /// sign flips into the unpacking store, so no extra passes run.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dst3_strided(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scale: f64,
        scratch: &mut DctScratch,
    ) {
        self.synth_lines(
            data,
            Lines::one(offset, stride),
            scale,
            scratch,
            Synth::Dst3,
        )
    }

    /// V1 synthesis core, over `L` lines. Rebuilds the Hermitian FFT
    /// spectrum `V[u] = e^{iπu/(2N)}·(X[u] − i·X[N−u])` (with `X[N] ≡ 0`)
    /// directly in bit-reversed order, so the inverse butterflies run with no
    /// separate permutation pass; the DST reads the coefficients mirrored
    /// (`X'[u] = X[N−u]`, `X'[0] = 0`) instead of materializing them in a
    /// second buffer. The store unpacks the even/odd interleave, every
    /// output performing the identical `re·(1/N)·(N/2)` chain (then the DST
    /// sign flip, then `·scale`) the historical separate passes performed.
    pub(crate) fn synth_lines<const L: usize>(
        &self,
        data: &mut [f64],
        lines: Lines,
        scale: f64,
        scratch: &mut DctScratch<L>,
        mode: Synth,
    ) {
        self.check(data.len(), lines, scratch, mode.name());
        let n = self.size;
        if n == 1 {
            self.synth_size_one::<L>(data, lines, scale, mode);
            return;
        }
        let coeff = |u: usize| lines.load::<L>(data, lines.at(u));
        match mode {
            Synth::Dct3 => {
                for (slot, &ju) in scratch.freq.iter_mut().zip(self.fft.bit_rev_table()) {
                    let u = ju as usize;
                    *slot = if u == 0 {
                        Lanes::from_re(coeff(0))
                    } else {
                        Lanes::new(coeff(u), neg(coeff(n - u))) * self.inv_twiddles[u]
                    };
                }
            }
            Synth::Dst3 => {
                for (slot, &ju) in scratch.freq.iter_mut().zip(self.fft.bit_rev_table()) {
                    let u = ju as usize;
                    *slot = if u == 0 {
                        Lanes::ZERO
                    } else {
                        Lanes::new(coeff(n - u), neg(coeff(u))) * self.inv_twiddles[u]
                    };
                }
            }
        }
        self.fft.butterflies(&mut scratch.freq, true);
        let inv_n = 1.0 / n as f64;
        let half_n = n as f64 / 2.0;
        let (lo, hi) = scratch.freq.split_at(n / 2);
        let pairs = lo.iter().zip(hi.iter().rev());
        let unpack = |v: f64| (v * inv_n) * half_n;
        match mode {
            Synth::Dct3 => {
                for (m, (a, b)) in pairs.enumerate() {
                    lines.store(data, lines.at(2 * m), a.re.map(|v| unpack(v) * scale));
                    lines.store(data, lines.at(2 * m + 1), b.re.map(|v| unpack(v) * scale));
                }
            }
            Synth::Dst3 => {
                for (m, (a, b)) in pairs.enumerate() {
                    lines.store(data, lines.at(2 * m), a.re.map(|v| unpack(v) * scale));
                    lines.store(
                        data,
                        lines.at(2 * m + 1),
                        b.re.map(|v| (-unpack(v)) * scale),
                    );
                }
            }
        }
    }

    /// Engine-v2 forward DCT-II over the strided line
    /// `data[offset + i·stride]`, in place.
    ///
    /// Folds the length-`N` real input into a length-`N/2` complex FFT
    /// (Makhoul pack of even/odd samples into real/imaginary lanes), runs
    /// the mixed-radix half-size kernel, then unfolds each conjugate bin
    /// pair back to two DCT outputs. Same transform convention as
    /// [`DctPlan::dct2_strided`], but the restructured arithmetic rounds
    /// differently at the last ulps — see [`crate::SpectralEngine`].
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dct2_v2(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scratch: &mut DctScratch,
    ) {
        self.dct2_v2_lines(data, Lines::one(offset, stride), scratch)
    }

    /// [`DctPlan::dct2_v2`] of the `L` lines `lines`, in place.
    pub(crate) fn dct2_v2_lines<const L: usize>(
        &self,
        data: &mut [f64],
        lines: Lines,
        scratch: &mut DctScratch<L>,
    ) {
        self.check(data.len(), lines, scratch, "dct2");
        let n = self.size;
        if n == 1 {
            return;
        }
        let h = n / 2;
        let x = |i: usize| lines.load::<L>(data, lines.at(i));
        // Makhoul fold: half-FFT input m packs samples makhoul(2m) and
        // makhoul(2m+1) — even slots (4m, 4m+2) for m < H/2, odd slots
        // (2N−1−4m, 2N−3−4m) for m ≥ H/2, the exact mirror of the synthesis
        // store. For n ≥ 8 the gather is fused into the first radix-4 pass;
        // n = 4 gathers explicitly because its half FFT opens with radix-2.
        let in_b = if n == 2 {
            scratch.half_a[0] = Lanes::new(x(0), x(1));
            false
        } else if n == 4 {
            scratch.half_a[0] = Lanes::new(x(0), x(2));
            scratch.half_a[1] = Lanes::new(x(3), x(1));
            self.half
                .run(&mut scratch.half_a, &mut scratch.half_b, false)
        } else {
            self.half
                .run_folded_fwd(data, lines, &mut scratch.half_a, &mut scratch.half_b)
        };
        let z: &[Lanes<L>] = if in_b {
            &scratch.half_b
        } else {
            &scratch.half_a
        };
        // Bin 0 and the Nyquist-pair bin H are purely real.
        let z0 = z[0];
        let wh = self.fwd_twiddles[h].re;
        let dc: [f64; L] = array::from_fn(|l| z0.re[l] + z0.im[l]);
        let nyquist: [f64; L] = array::from_fn(|l| wh * (z0.re[l] - z0.im[l]));
        lines.store(data, lines.at(0), dc);
        lines.store(data, lines.at(h), nyquist);
        // Each u < H yields twice the full-size spectrum bin
        // `U[u] = (Z[u] + conj(Z[H−u])) − s[u]·(Z[u] − conj(Z[H−u]))`; the
        // half-scaled projection tables absorb the 1/2, and Hermitian
        // symmetry gives bin `N−u` from the same `U[u]` for free.
        let bins = z[1..]
            .iter()
            .zip(z[1..].iter().rev())
            .zip(&self.unfold[1..h])
            .zip(&self.fwd_half[1..]);
        for (u, (((&zu, &zr), s), g)) in (1..).zip(bins) {
            let zc = zr.conj();
            let v = (zu + zc) - *s * (zu - zc);
            let lo: [f64; L] = array::from_fn(|l| g[0] * v.re[l] - g[1] * v.im[l]);
            let hi: [f64; L] = array::from_fn(|l| g[2] * v.re[l] + g[3] * v.im[l]);
            lines.store(data, lines.at(u), lo);
            lines.store(data, lines.at(n - u), hi);
        }
    }

    /// Engine-v2 DCT-III synthesis over the strided line
    /// `data[offset + i·stride]`, with `scale` fused into the store as
    /// `(value)·scale` — bitwise identical to synthesizing with scale `1.0`
    /// and scaling afterwards. Same convention as [`DctPlan::dct3_strided`];
    /// rounds differently from v1 at the last ulps.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dct3_v2(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scale: f64,
        scratch: &mut DctScratch,
    ) {
        self.synth_v2_lines(
            data,
            Lines::one(offset, stride),
            scale,
            scratch,
            Synth::Dct3,
        )
    }

    /// Engine-v2 DST-III synthesis over the strided line
    /// `data[offset + i·stride]`, with `scale` fused into the store (see
    /// [`DctPlan::dct3_v2`]). Same convention as [`DctPlan::dst3_strided`];
    /// rounds differently from v1 at the last ulps.
    ///
    /// # Panics
    ///
    /// Panics if the scratch length differs from the plan size or the
    /// strided line runs past `data`.
    pub fn dst3_v2(
        &self,
        data: &mut [f64],
        offset: usize,
        stride: usize,
        scale: f64,
        scratch: &mut DctScratch,
    ) {
        self.synth_v2_lines(
            data,
            Lines::one(offset, stride),
            scale,
            scratch,
            Synth::Dst3,
        )
    }

    /// Engine-v2 synthesis core, over `L` lines: rebuild the natural-order
    /// Hermitian half-spectrum `Vh[u] = conj(W[u])·(X[u] − i·X[N−u])` for
    /// `u ≤ H`, refold the even/odd halves into one half-size inverse input
    /// `Zc[u] = (Vh[u] + conj(Vh[H−u])) + i·e^{2πiu/N}·(Vh[u] − conj(Vh[H−u]))`,
    /// run the unscaled half-size inverse FFT, and unpack
    /// `y[2m] = Re(z[m])·½`, `y[2m+1] = Im(z[m])·½` through the inverse
    /// Makhoul permutation fused into the store, `½ = (1/N)·(N/2)` being the
    /// DCT-III scale. The store computes `(value·½)·scale` so a fused
    /// `scale` is bitwise identical to a separate scaling pass.
    pub(crate) fn synth_v2_lines<const L: usize>(
        &self,
        data: &mut [f64],
        lines: Lines,
        scale: f64,
        scratch: &mut DctScratch<L>,
        mode: Synth,
    ) {
        self.check(data.len(), lines, scratch, mode.name());
        let n = self.size;
        if n == 1 {
            self.synth_size_one::<L>(data, lines, scale, mode);
            return;
        }
        let h = n / 2;
        let coeff = |u: usize| lines.load::<L>(data, lines.at(u));
        let (vh0, vh_rest) = scratch.vh.split_at_mut(1);
        let spectrum = (1..).zip(vh_rest.iter_mut().zip(&self.inv_twiddles[1..=h]));
        match mode {
            Synth::Dct3 => {
                vh0[0] = Lanes::from_re(coeff(0));
                for (u, (slot, w)) in spectrum {
                    *slot = Lanes::new(coeff(u), neg(coeff(n - u))) * *w;
                }
            }
            Synth::Dst3 => {
                vh0[0] = Lanes::ZERO;
                for (u, (slot, w)) in spectrum {
                    *slot = Lanes::new(coeff(n - u), neg(coeff(u))) * *w;
                }
            }
        }
        let vh = &scratch.vh;
        let refolded = scratch
            .half_a
            .iter_mut()
            .zip(&self.refold)
            .zip(&vh[..h])
            .zip(vh[1..].iter().rev());
        for (((slot, w), &vu), &vr) in refolded {
            let vc = vr.conj();
            let ve = vu + vc;
            let vo = *w * (vu - vc);
            *slot = ve + vo.mul_i();
        }
        if n == 2 {
            let in_b = self
                .half
                .run(&mut scratch.half_a, &mut scratch.half_b, true);
            let z: &[Lanes<L>] = if in_b {
                &scratch.half_b
            } else {
                &scratch.half_a
            };
            // H = 1: slot 0 lands on even output 0, slot 1 on odd output 1.
            let z0 = z[0];
            lines.store(data, lines.at(0), z0.re.map(|v| (v * 0.5) * scale));
            let odd = z0.im.map(|v| {
                let odd = v * 0.5;
                match mode {
                    Synth::Dct3 => odd * scale,
                    Synth::Dst3 => (-odd) * scale,
                }
            });
            lines.store(data, lines.at(1), odd);
            return;
        }
        // For n ≥ 4, H is even: pairs with m < H/2 land on even output
        // slots (4m, 4m+2); pairs with m ≥ H/2 land on odd slots
        // (2N−1−4m, 2N−3−4m) — the mirror of the forward fold gather. The
        // inverse-Makhoul store (with ½·scale and the DST sign flip on odd
        // outputs) is fused into the half-FFT's final pass.
        self.half.run_refolded_inv(
            &mut scratch.half_a,
            &mut scratch.half_b,
            data,
            lines,
            scale,
            matches!(mode, Synth::Dst3),
        );
    }

    /// The length-1 synthesis of every line, `·scale` fused: the same value,
    /// in the same order of multiplies, as the historical
    /// inverse-DCT-II-then-scale pipeline (`c·(N/2)` with `N = 1`; the DST's
    /// one basis function is `sin(0)`).
    fn synth_size_one<const L: usize>(
        &self,
        data: &mut [f64],
        lines: Lines,
        scale: f64,
        mode: Synth,
    ) {
        let at = lines.at(0);
        let coeff = lines.load::<L>(data, at);
        let y = coeff.map(|c| match mode {
            Synth::Dct3 => (c * (self.size as f64 / 2.0)) * scale,
            Synth::Dst3 => 0.0 * scale,
        });
        lines.store(data, at, y);
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{reference, SpectralEngine};

    /// The V1 DCT-II of `x` as one contiguous line (offset 0, stride 1).
    pub(crate) fn dct2(plan: &DctPlan, x: &[f64]) -> Vec<f64> {
        let mut line = x.to_vec();
        plan.dct2_strided(&mut line, 0, 1, &mut DctScratch::new(plan.len()));
        line
    }

    /// The V1 DCT-III of `x` as one contiguous line, scaled by `scale`.
    pub(crate) fn dct3(plan: &DctPlan, x: &[f64], scale: f64) -> Vec<f64> {
        let mut line = x.to_vec();
        plan.dct3_strided(&mut line, 0, 1, scale, &mut DctScratch::new(plan.len()));
        line
    }

    /// The V1 DST-III of `x` as one contiguous line.
    pub(crate) fn dst3(plan: &DctPlan, x: &[f64]) -> Vec<f64> {
        let mut line = x.to_vec();
        plan.dst3_strided(&mut line, 0, 1, 1.0, &mut DctScratch::new(plan.len()));
        line
    }

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "mismatch: {x} vs {y}");
        }
    }

    fn test_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|i| (i as f64 * 0.37).sin() + 0.2 * (i as f64 * 1.7).cos())
            .collect()
    }

    #[test]
    fn dct2_matches_reference() {
        for &n in &[1usize, 2, 4, 8, 32, 128] {
            let plan = DctPlan::new(n).unwrap();
            let x = test_signal(n);
            assert_close(&dct2(&plan, &x), &reference::naive_dct2(&x), 1e-9);
        }
    }

    #[test]
    fn dct3_matches_reference() {
        for &n in &[2usize, 4, 16, 64] {
            let plan = DctPlan::new(n).unwrap();
            let c = test_signal(n);
            assert_close(&dct3(&plan, &c, 1.0), &reference::naive_dct3(&c), 1e-9);
        }
    }

    #[test]
    fn dst3_matches_reference() {
        for &n in &[2usize, 4, 16, 64] {
            let plan = DctPlan::new(n).unwrap();
            let c = test_signal(n);
            assert_close(&dst3(&plan, &c), &reference::naive_dst3(&c), 1e-9);
        }
    }

    #[test]
    fn dct3_dct2_is_half_n_identity() {
        let n = 32;
        let plan = DctPlan::new(n).unwrap();
        let x = test_signal(n);
        let y = dct3(&plan, &dct2(&plan, &x), 1.0);
        let scaled: Vec<f64> = x.iter().map(|v| v * n as f64 / 2.0).collect();
        assert_close(&y, &scaled, 1e-9);
    }

    #[test]
    fn dst3_zeroth_coefficient_is_ignored() {
        let plan = DctPlan::new(8).unwrap();
        let mut c = test_signal(8);
        let a = dst3(&plan, &c);
        c[0] = 1234.5;
        let b = dst3(&plan, &c);
        assert_close(&a, &b, 1e-12);
    }

    #[test]
    fn dct2_of_single_cosine_mode_is_sparse() {
        let n = 16;
        let plan = DctPlan::new(n).unwrap();
        let u0 = 3;
        let x: Vec<f64> = (0..n)
            .map(|i| (PI * u0 as f64 * (2 * i + 1) as f64 / (2 * n) as f64).cos())
            .collect();
        let c = dct2(&plan, &x);
        for (u, &v) in c.iter().enumerate() {
            if u == u0 {
                assert!((v - n as f64 / 2.0).abs() < 1e-9);
            } else {
                assert!(v.abs() < 1e-9, "leakage at {u}: {v}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "exceeds buffer length")]
    fn wrong_length_panics() {
        let plan = DctPlan::new(8).unwrap();
        let _ = dct2(&plan, &[1.0; 4]);
    }

    #[test]
    fn len_accessor() {
        let plan = DctPlan::new(4).unwrap();
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
    }

    #[test]
    fn strided_kernels_are_bitwise_gather_transform_scatter() {
        // The strided entry points must reproduce, bit for bit, the
        // historical bounce-buffer pipeline: gather the strided line,
        // transform it contiguously, apply the elementwise scale pass,
        // scatter it back.
        for &n in &[1usize, 2, 8, 32, 128] {
            let plan = DctPlan::new(n).unwrap();
            let mut scratch = DctScratch::new(n);
            let (offset, stride) = (2usize, 5usize);
            let len = offset + (n - 1) * stride + 3;
            let base: Vec<f64> = (0..len).map(|i| (i as f64 * 0.31).sin() - 0.4).collect();
            let gather =
                |b: &[f64]| -> Vec<f64> { (0..n).map(|i| b[offset + i * stride]).collect() };
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let scale = 0.37;

            // dct2 (unscaled).
            let line = dct2(&plan, &gather(&base));
            let mut strided = base.clone();
            plan.dct2_strided(&mut strided, offset, stride, &mut scratch);
            assert_eq!(bits(&line), bits(&gather(&strided)), "dct2 n {n}");

            // dct3 and dst3, scale fused vs separate pass.
            type Kernel = fn(&DctPlan, &mut [f64], usize, usize, f64, &mut DctScratch);
            let cases: [(Kernel, &str); 2] = [
                (DctPlan::dct3_strided, "dct3"),
                (DctPlan::dst3_strided, "dst3"),
            ];
            for (kernel, name) in cases {
                let mut line = gather(&base);
                kernel(&plan, &mut line, 0, 1, 1.0, &mut scratch);
                for v in line.iter_mut() {
                    *v *= scale;
                }
                let mut buf = base.clone();
                kernel(&plan, &mut buf, offset, stride, scale, &mut scratch);
                assert_eq!(bits(&line), bits(&gather(&buf)), "{name} n {n}");
                // Untouched interstitial elements stay untouched.
                for (i, (a, b)) in base.iter().zip(&buf).enumerate() {
                    let on_line =
                        i >= offset && (i - offset) % stride == 0 && (i - offset) / stride < n;
                    if !on_line {
                        assert_eq!(a.to_bits(), b.to_bits(), "{name} n {n} clobbered {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn synthesis_stays_bitwise_compatible_with_unfused_pipeline() {
        // The fused loads/stores must reproduce, bit for bit, the historical
        // pipeline: spectrum rebuild in natural order, fft.inverse (with its
        // separate 1/N pass), unpack, then scale/sign passes.
        for &n in &[2usize, 8, 32, 128] {
            let plan = DctPlan::new(n).unwrap();
            let coeffs = test_signal(n);
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            // Unfused dct2: Makhoul pack, full complex FFT (separate swap
            // pass), complex post-twiddle taking the real part.
            let mut packed = vec![Complex::ZERO; n];
            for i in 0..n / 2 {
                packed[i] = Complex::from(coeffs[2 * i]);
                packed[n - 1 - i] = Complex::from(coeffs[2 * i + 1]);
            }
            plan.fft.forward(&mut packed);
            let unfused_dct2: Vec<f64> = (0..n)
                .map(|u| (packed[u] * plan.fwd_twiddles[u]).re)
                .collect();
            assert_eq!(
                bits(&dct2(&plan, &coeffs)),
                bits(&unfused_dct2),
                "dct2 n {n}"
            );
            // Unfused inverse DCT-II.
            let mut buf = vec![Complex::ZERO; n];
            buf[0] = Complex::from(coeffs[0]);
            for u in 1..n {
                let z = Complex::new(coeffs[u], -coeffs[n - u]);
                buf[u] = z * plan.fwd_twiddles[u].conj();
            }
            plan.fft.inverse(&mut buf);
            let mut unfused = vec![0.0; n];
            for i in 0..n / 2 {
                unfused[2 * i] = buf[i].re;
                unfused[2 * i + 1] = buf[n - 1 - i].re;
            }
            // Unfused dct3 = inverse DCT-II then ×(N/2) pass.
            let mut dct3_unfused = unfused;
            let scale = n as f64 / 2.0;
            for v in dct3_unfused.iter_mut() {
                *v *= scale;
            }
            assert_eq!(
                bits(&dct3(&plan, &coeffs, 1.0)),
                bits(&dct3_unfused),
                "dct3 n {n}"
            );
            // Unfused dst3 = reversed coefficients through dct3, then sign
            // flips on odd outputs.
            let mut reversed = vec![0.0; n];
            for u in 1..n {
                reversed[u] = coeffs[n - u];
            }
            let mut dst3_unfused = dct3(&plan, &reversed, 1.0);
            for (i, v) in dst3_unfused.iter_mut().enumerate() {
                if i % 2 == 1 {
                    *v = -*v;
                }
            }
            assert_eq!(
                bits(&dst3(&plan, &coeffs)),
                bits(&dst3_unfused),
                "dst3 n {n}"
            );
        }
    }

    #[test]
    fn v2_kernels_match_reference() {
        for &n in &[1usize, 2, 4, 8, 16, 32, 64, 128] {
            let plan = DctPlan::new(n).unwrap();
            let mut scratch = DctScratch::new(n);
            let x = test_signal(n);
            let tol = 1e-9 * n.max(1) as f64;

            let mut fwd = x.clone();
            plan.dct2_v2(&mut fwd, 0, 1, &mut scratch);
            assert_close(&fwd, &reference::naive_dct2(&x), tol);

            // DCT-III scaled by 2/N inverts the DCT-II.
            let mut back = fwd.clone();
            plan.dct3_v2(&mut back, 0, 1, 2.0 / n as f64, &mut scratch);
            assert_close(&back, &x, tol);

            let mut dct3 = x.clone();
            plan.dct3_v2(&mut dct3, 0, 1, 1.0, &mut scratch);
            assert_close(&dct3, &reference::naive_dct3(&x), tol);

            let mut dst3 = x.clone();
            plan.dst3_v2(&mut dst3, 0, 1, 1.0, &mut scratch);
            assert_close(&dst3, &reference::naive_dst3(&x), tol);
        }
    }

    #[test]
    fn v2_agrees_with_v1_within_tolerance() {
        // The two engines round differently at the last ulps but compute the
        // same transform; the gap must stay at roundoff scale.
        for &n in &[2usize, 8, 64, 256] {
            let plan = DctPlan::new(n).unwrap();
            let mut scratch = DctScratch::new(n);
            let x = test_signal(n);
            let tol = 1e-11 * n as f64;

            let mut v2 = x.clone();
            plan.dct2_v2(&mut v2, 0, 1, &mut scratch);
            assert_close(&v2, &dct2(&plan, &x), tol);

            let mut v2 = x.clone();
            plan.dct3_v2(&mut v2, 0, 1, 1.0, &mut scratch);
            assert_close(&v2, &dct3(&plan, &x, 1.0), tol);

            let mut v2 = x.clone();
            plan.dst3_v2(&mut v2, 0, 1, 1.0, &mut scratch);
            assert_close(&v2, &dst3(&plan, &x), tol);
        }
    }

    #[test]
    fn v2_strided_is_bitwise_gather_transform_scatter() {
        // Like the v1 strided test: running a v2 kernel over a strided line
        // must be bit-identical to gathering the line, transforming it
        // contiguously, and scattering it back — and leave interstitial
        // elements untouched.
        for &n in &[1usize, 2, 8, 32, 128] {
            let plan = DctPlan::new(n).unwrap();
            let mut scratch = DctScratch::new(n);
            let (offset, stride) = (3usize, 4usize);
            let len = offset + (n - 1) * stride + 2;
            let base: Vec<f64> = (0..len).map(|i| (i as f64 * 0.53).cos() + 0.1).collect();
            let gather =
                |b: &[f64]| -> Vec<f64> { (0..n).map(|i| b[offset + i * stride]).collect() };
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            let scale = 1.7;

            type Kernel<'a> = Box<dyn Fn(&mut [f64], usize, usize, &mut DctScratch) + 'a>;
            let p = &plan;
            let cases: [(Kernel<'_>, &str); 3] = [
                (Box::new(move |d, o, s, sc| p.dct2_v2(d, o, s, sc)), "dct2"),
                (
                    Box::new(move |d, o, s, sc| p.dct3_v2(d, o, s, scale, sc)),
                    "dct3",
                ),
                (
                    Box::new(move |d, o, s, sc| p.dst3_v2(d, o, s, scale, sc)),
                    "dst3",
                ),
            ];
            for (kernel, name) in &cases {
                let mut line = gather(&base);
                kernel(&mut line, 0, 1, &mut scratch);
                let mut buf = base.clone();
                kernel(&mut buf, offset, stride, &mut scratch);
                assert_eq!(bits(&line), bits(&gather(&buf)), "{name} n {n}");
                for (i, (a, b)) in base.iter().zip(&buf).enumerate() {
                    let on_line =
                        i >= offset && (i - offset) % stride == 0 && (i - offset) / stride < n;
                    if !on_line {
                        assert_eq!(a.to_bits(), b.to_bits(), "{name} n {n} clobbered {i}");
                    }
                }
            }
        }
    }

    #[test]
    fn v2_scale_fusion_is_bitwise_separate_pass() {
        // The fused `scale` must equal synthesizing with scale 1.0 and then
        // multiplying — bit for bit — so the parallel 2-D path (scale in the
        // transpose-back) matches the serial fused path exactly.
        for &n in &[1usize, 2, 8, 64] {
            let plan = DctPlan::new(n).unwrap();
            let mut scratch = DctScratch::new(n);
            let x = test_signal(n);
            let scale = 0.731;
            for dst in [false, true] {
                let run = |d: &mut [f64], s: f64, sc: &mut DctScratch| {
                    if dst {
                        plan.dst3_v2(d, 0, 1, s, sc);
                    } else {
                        plan.dct3_v2(d, 0, 1, s, sc);
                    }
                };
                let mut fused = x.clone();
                run(&mut fused, scale, &mut scratch);
                let mut separate = x.clone();
                run(&mut separate, 1.0, &mut scratch);
                for v in separate.iter_mut() {
                    *v *= scale;
                }
                for (a, b) in fused.iter().zip(&separate) {
                    assert_eq!(a.to_bits(), b.to_bits(), "dst {dst} n {n}");
                }
            }
        }
    }

    /// Bitwise equality in which a NaN matches any NaN.
    fn same_bits(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// `engine`'s DCT-II (`mode = None`) or synthesis at scale 0.3 over the
    /// `L` lines `lines`.
    fn run<const L: usize>(
        plan: &DctPlan,
        engine: SpectralEngine,
        mode: Option<Synth>,
        data: &mut [f64],
        lines: Lines,
    ) {
        let scratch = &mut DctScratch::<L>::new(plan.len());
        match (engine, mode) {
            (SpectralEngine::V1, None) => plan.dct2_lines(data, lines, scratch),
            (SpectralEngine::V1, Some(m)) => plan.synth_lines(data, lines, 0.3, scratch, m),
            (SpectralEngine::V2, None) => plan.dct2_v2_lines(data, lines, scratch),
            (SpectralEngine::V2, Some(m)) => plan.synth_v2_lines(data, lines, 0.3, scratch, m),
        }
    }

    #[test]
    fn lane_kernels_are_bitwise_one_line_kernels() {
        // Four lines through one lane-group call, laid out as a row group
        // (stride 1, lines apart) and as a column group (lines adjacent),
        // must each get the bits the one-line kernel gives that line alone.
        // Lane 2 carries infinities and NaN, the others signed zeros and
        // subnormals, so a lane reading its neighbour shows.
        const L: usize = 4;
        let value = |line: usize, i: usize| -> f64 {
            let k = line * 31 + i;
            match (line, i % 9) {
                (2, 4) => f64::INFINITY,
                (2, 6) => f64::NAN,
                (2, 7) => f64::NEG_INFINITY,
                (_, 1) => -0.0,
                (_, 3) => 0.0,
                (_, 5) => f64::MIN_POSITIVE / (1 + k) as f64,
                _ => (k as f64 * 0.37).sin() * 3.0,
            }
        };
        for &n in &[1usize, 2, 4, 8, 16, 64, 256] {
            let plan = DctPlan::new(n).unwrap();
            let layouts = [
                Lines {
                    offset: 2,
                    stride: 1,
                    dist: n + 3,
                },
                Lines {
                    offset: 1,
                    stride: L + 3,
                    dist: 1,
                },
            ];
            for lines in layouts {
                let len = lines.at(n - 1) + (L - 1) * lines.dist + 2;
                let mut base = vec![-7.25; len];
                for l in 0..L {
                    for i in 0..n {
                        base[lines.at(i) + l * lines.dist] = value(l, i);
                    }
                }
                let one_line = |l: usize| Lines::one(lines.offset + l * lines.dist, lines.stride);
                for engine in [SpectralEngine::V1, SpectralEngine::V2] {
                    for mode in [None, Some(Synth::Dct3), Some(Synth::Dst3)] {
                        let mut wide = base.clone();
                        run::<L>(&plan, engine, mode, &mut wide, lines);
                        let mut narrow = base.clone();
                        for l in 0..L {
                            run::<1>(&plan, engine, mode, &mut narrow, one_line(l));
                        }
                        for (i, (a, b)) in wide.iter().zip(&narrow).enumerate() {
                            assert!(
                                same_bits(*a, *b),
                                "n {n} {lines:?} {engine:?} {mode:?} at {i}: {a} vs {b}"
                            );
                        }
                    }
                }
            }
        }
    }
}
