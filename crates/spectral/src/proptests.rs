//! Property-based tests of the transform algebra.

use crate::dct::tests::{dct2, dct3, dst3};
use crate::{reference, Complex, DctPlan, DctScratch, FftPlan, SpectralEngine, Transform2d};
use eplace_testkit::{check, Gen};

const CASES: u64 = 256;

fn arb_vec(g: &mut Gen, len: usize, lo: f64, hi: f64) -> Vec<f64> {
    (0..len).map(|_| g.f64_range(lo, hi)).collect()
}

#[test]
fn fft_parseval() {
    check("fft_parseval", CASES, |g| {
        let values = arb_vec(g, 64, -100.0, 100.0);
        let input: Vec<Complex> = values.chunks(2).map(|c| Complex::new(c[0], c[1])).collect();
        let plan = FftPlan::new(32).unwrap();
        let mut freq = input.clone();
        plan.forward(&mut freq);
        let time_energy: f64 = input.iter().map(|z| z.norm_sq()).sum();
        let freq_energy: f64 = freq.iter().map(|z| z.norm_sq()).sum::<f64>() / 32.0;
        assert!((time_energy - freq_energy).abs() < 1e-6 * time_energy.max(1.0));
    });
}

#[test]
fn fft_convolution_theorem() {
    check("fft_convolution_theorem", CASES, |g| {
        // Circular convolution in time = pointwise product in frequency.
        let n = 16;
        let a = arb_vec(g, n, -10.0, 10.0);
        let b = arb_vec(g, n, -10.0, 10.0);
        let plan = FftPlan::new(n).unwrap();
        let ca: Vec<Complex> = a.iter().map(|&v| Complex::from(v)).collect();
        let cb: Vec<Complex> = b.iter().map(|&v| Complex::from(v)).collect();
        // Direct circular convolution.
        let mut direct = vec![Complex::ZERO; n];
        for (i, d) in direct.iter_mut().enumerate() {
            for k in 0..n {
                *d += ca[k] * cb[(i + n - k) % n];
            }
        }
        // Via FFT.
        let mut fa = ca.clone();
        let mut fb = cb.clone();
        plan.forward(&mut fa);
        plan.forward(&mut fb);
        let mut prod: Vec<Complex> = fa.iter().zip(&fb).map(|(x, y)| *x * *y).collect();
        plan.inverse(&mut prod);
        for (d, p) in direct.iter().zip(&prod) {
            assert!((*d - *p).norm() < 1e-7, "{d} vs {p}");
        }
    });
}

#[test]
fn dct_linearity() {
    check("dct_linearity", CASES, |g| {
        let a = arb_vec(g, 16, -50.0, 50.0);
        let b = arb_vec(g, 16, -50.0, 50.0);
        let s = g.f64_range(-3.0, 3.0);
        let plan = DctPlan::new(16).unwrap();
        let combo: Vec<f64> = a.iter().zip(&b).map(|(x, y)| x + s * y).collect();
        let ca = dct2(&plan, &a);
        let cb = dct2(&plan, &b);
        let cc = dct2(&plan, &combo);
        for i in 0..16 {
            assert!((cc[i] - (ca[i] + s * cb[i])).abs() < 1e-8);
        }
    });
}

#[test]
fn dst3_matches_reference_on_arbitrary_coeffs() {
    check("dst3_matches_reference_on_arbitrary_coeffs", CASES, |g| {
        let coeffs = arb_vec(g, 32, -20.0, 20.0);
        let plan = DctPlan::new(32).unwrap();
        let fast = dst3(&plan, &coeffs);
        let slow = reference::naive_dst3(&coeffs);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-8);
        }
    });
}

#[test]
fn dct2_idct2_roundtrip_arbitrary() {
    check("dct2_idct2_roundtrip_arbitrary", CASES, |g| {
        // The inverse DCT-II is the DCT-III scaled by 2/N.
        let values = arb_vec(g, 64, -1e3, 1e3);
        let plan = DctPlan::new(64).unwrap();
        let back = dct3(&plan, &dct2(&plan, &values), 2.0 / 64.0);
        for (a, b) in back.iter().zip(&values) {
            assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()));
        }
    });
}

/// Random power-of-two transform length in `[2^min_exp, 2^max_exp]`.
fn arb_pow2(g: &mut Gen, min_exp: usize, max_exp: usize) -> usize {
    1 << g.usize_range(min_exp, max_exp)
}

#[test]
fn dct2_idct2_roundtrip_under_scratch_reuse() {
    check("dct2_idct2_roundtrip_under_scratch_reuse", CASES, |g| {
        // One DctScratch serves many transforms; reused scratch must be
        // bitwise identical to fresh scratch. The inverse DCT-II is the
        // DCT-III scaled by 2/N.
        let n = arb_pow2(g, 1, 7);
        let plan = DctPlan::new(n).unwrap();
        let mut scratch = DctScratch::new(n);
        let inverse = 2.0 / n as f64;
        for _ in 0..3 {
            let values = arb_vec(g, n, -1e3, 1e3);
            let mut coeffs = values.clone();
            plan.dct2_strided(&mut coeffs, 0, 1, &mut scratch);
            assert_eq!(coeffs, dct2(&plan, &values), "n {n}");
            let mut back = coeffs.clone();
            plan.dct3_strided(&mut back, 0, 1, inverse, &mut scratch);
            assert_eq!(back, dct3(&plan, &coeffs, inverse), "n {n}");
            for (a, b) in back.iter().zip(&values) {
                assert!((a - b).abs() < 1e-7 * (1.0 + b.abs()), "n {n}");
            }
        }
    });
}

#[test]
fn dst3_scratch_reuse_matches_reference() {
    check("dst3_scratch_reuse_matches_reference", CASES, |g| {
        // The DST path reverses coefficients inside the scratch; stale
        // contents from earlier calls must not leak into later ones.
        let n = arb_pow2(g, 1, 6);
        let plan = DctPlan::new(n).unwrap();
        let mut scratch = DctScratch::new(n);
        for _ in 0..3 {
            let coeffs = arb_vec(g, n, -20.0, 20.0);
            let mut out = coeffs.clone();
            plan.dst3_strided(&mut out, 0, 1, 1.0, &mut scratch);
            let slow = reference::naive_dst3(&coeffs);
            for (a, b) in out.iter().zip(&slow) {
                assert!((a - b).abs() < 1e-8, "n {n}");
            }
        }
    });
}

#[test]
fn transform2d_roundtrips_on_arbitrary_grids_with_reuse() {
    check(
        "transform2d_roundtrips_on_arbitrary_grids_with_reuse",
        64,
        |g| {
            // Repeated solves reuse one Transform2d (and its scratch) across
            // iterations — exactly the placer's usage — on non-square grids too.
            let nx = arb_pow2(g, 1, 5);
            let ny = arb_pow2(g, 1, 5);
            let mut t = Transform2d::new(nx, ny).unwrap();
            let scale = (nx as f64 / 2.0) * (ny as f64 / 2.0);
            for _ in 0..3 {
                let data = arb_vec(g, nx * ny, -100.0, 100.0);
                let mut work = data.clone();
                t.dct2(&mut work);
                t.dct3(&mut work);
                for (a, b) in work.iter().zip(&data) {
                    assert!((a - scale * b).abs() < 1e-7 * (1.0 + b.abs()), "{nx}x{ny}");
                }
            }
        },
    );
}

#[test]
fn transform2d_dst_syntheses_with_reuse_match_naive() {
    check(
        "transform2d_dst_syntheses_with_reuse_match_naive",
        48,
        |g| {
            let nx = arb_pow2(g, 1, 4);
            let ny = arb_pow2(g, 1, 4);
            let mut t = Transform2d::new(nx, ny).unwrap();
            for _ in 0..2 {
                let data = arb_vec(g, nx * ny, -10.0, 10.0);
                let mut fx = data.clone();
                t.dst3_x(&mut fx);
                let mut fy = data.clone();
                t.dst3_y(&mut fy);
                // Naive separable references.
                let slow_x = naive_2d(&data, nx, ny, reference::naive_dst3, reference::naive_dct3);
                let slow_y = naive_2d(&data, nx, ny, reference::naive_dct3, reference::naive_dst3);
                for (a, b) in fx.iter().zip(&slow_x) {
                    assert!((a - b).abs() < 1e-8, "dst3_x {nx}x{ny}");
                }
                for (a, b) in fy.iter().zip(&slow_y) {
                    assert!((a - b).abs() < 1e-8, "dst3_y {nx}x{ny}");
                }
            }
        },
    );
}

#[test]
fn v2_kernels_match_oracle_on_arbitrary_inputs() {
    check("v2_kernels_match_oracle_on_arbitrary_inputs", CASES, |g| {
        // Every v2 kernel (folded-real forward, half-size mixed-radix
        // synthesis) against the O(n²) oracle over generated sizes/inputs.
        let n = arb_pow2(g, 0, 8);
        let plan = DctPlan::new(n).unwrap();
        let mut scratch = DctScratch::new(n);
        let x = arb_vec(g, n, -100.0, 100.0);
        let tol = 1e-8 * n.max(1) as f64;

        let mut fwd = x.clone();
        plan.dct2_v2(&mut fwd, 0, 1, &mut scratch);
        for (a, b) in fwd.iter().zip(&reference::naive_dct2(&x)) {
            assert!((a - b).abs() < tol, "dct2 n {n}: {a} vs {b}");
        }
        // DCT-III scaled by 2/N inverts the DCT-II.
        let mut back = fwd.clone();
        plan.dct3_v2(&mut back, 0, 1, 2.0 / n as f64, &mut scratch);
        for (a, b) in back.iter().zip(&x) {
            assert!((a - b).abs() < tol, "inverse n {n}");
        }
        let mut dct3 = x.clone();
        plan.dct3_v2(&mut dct3, 0, 1, 1.0, &mut scratch);
        for (a, b) in dct3.iter().zip(&reference::naive_dct3(&x)) {
            assert!((a - b).abs() < tol, "dct3 n {n}: {a} vs {b}");
        }
        let mut dst3 = x.clone();
        plan.dst3_v2(&mut dst3, 0, 1, 1.0, &mut scratch);
        for (a, b) in dst3.iter().zip(&reference::naive_dst3(&x)) {
            assert!((a - b).abs() < tol, "dst3 n {n}: {a} vs {b}");
        }
    });
}

#[test]
fn v2_transform2d_thread_sweep_is_bitwise_invariant() {
    check(
        "v2_transform2d_thread_sweep_is_bitwise_invariant",
        32,
        |g| {
            // threads ∈ {1, 2, 3, 8} over generated grids and ops, v2 engine.
            let nx = arb_pow2(g, 1, 5);
            let ny = arb_pow2(g, 1, 5);
            let data = arb_vec(g, nx * ny, -50.0, 50.0);
            let op = g.usize_range(0, 3);
            let run = |threads: usize| {
                let mut t = Transform2d::new(nx, ny)
                    .unwrap()
                    .with_engine(SpectralEngine::V2)
                    .with_exec(eplace_exec::ExecConfig::with_threads(threads));
                let mut w = data.clone();
                match op {
                    0 => t.dct2(&mut w),
                    1 => t.dct3_scaled(&mut w, 0.31),
                    2 => t.dst3_x(&mut w),
                    _ => t.dst3_y(&mut w),
                }
                w
            };
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            let serial = run(1);
            for threads in [2usize, 3, 8] {
                assert_eq!(
                    bits(&serial),
                    bits(&run(threads)),
                    "{nx}x{ny} op {op} t {threads}"
                );
            }
        },
    );
}

#[test]
fn v2_roundtrip_arbitrary() {
    check("v2_roundtrip_arbitrary", CASES, |g| {
        // dct3_v2(dct2_v2(x)) == (N/2)·x on arbitrary inputs.
        let n = arb_pow2(g, 1, 7);
        let plan = DctPlan::new(n).unwrap();
        let mut scratch = DctScratch::new(n);
        let x = arb_vec(g, n, -1e3, 1e3);
        let mut w = x.clone();
        plan.dct2_v2(&mut w, 0, 1, &mut scratch);
        plan.dct3_v2(&mut w, 0, 1, 1.0, &mut scratch);
        let scale = n as f64 / 2.0;
        for (a, b) in w.iter().zip(&x) {
            assert!((a - scale * b).abs() < 1e-7 * (1.0 + b.abs()), "n {n}");
        }
    });
}

/// Naive 2-D transform: `fx` over x then `fy` over y (mirror of the unit
/// tests' helper, local to keep the modules independent).
fn naive_2d(
    data: &[f64],
    nx: usize,
    ny: usize,
    fx: fn(&[f64]) -> Vec<f64>,
    fy: fn(&[f64]) -> Vec<f64>,
) -> Vec<f64> {
    let mut out = data.to_vec();
    for iy in 0..ny {
        let row: Vec<f64> = (0..nx).map(|ix| out[iy * nx + ix]).collect();
        let t = fx(&row);
        out[iy * nx..(iy + 1) * nx].copy_from_slice(&t);
    }
    for ix in 0..nx {
        let col: Vec<f64> = (0..ny).map(|iy| out[iy * nx + ix]).collect();
        let t = fy(&col);
        for iy in 0..ny {
            out[iy * nx + ix] = t[iy];
        }
    }
    out
}
