//! The conjugate-gradient machinery the two nonlinear baselines share: a
//! backtracking Armijo line search and the Polak–Ribière direction update.

use eplace_geometry::Point;

/// Armijo sufficient-decrease constant.
const ARMIJO_C1: f64 = 1e-4;

/// Probes per line search; the step halves after each rejected probe.
const MAX_PROBES: usize = 8;

/// Backtracking Armijo search along `dir` from `pos`, whose objective is
/// `f_curr` and gradient `grad`, starting at step `step`.
///
/// Each probe writes `pos + t·dir` into `trial` and asks `value` for its
/// objective (`value` may project `trial` in place first). A probe is
/// accepted on sufficient decrease or any decrease. Returns the accepted
/// `(t, f)` with the probe left in `trial`, or `None` when every probe
/// failed.
pub(crate) fn armijo_search(
    pos: &[Point],
    dir: &[Point],
    grad: &[Point],
    f_curr: f64,
    step: f64,
    trial: &mut [Point],
    mut value: impl FnMut(&mut [Point]) -> f64,
) -> Option<(f64, f64)> {
    let slope: f64 = grad.iter().zip(dir).map(|(a, b)| a.dot(*b)).sum();
    let mut t = step;
    for _ in 0..MAX_PROBES {
        for ((x, &p), &d) in trial.iter_mut().zip(pos).zip(dir) {
            *x = p + d * t;
        }
        let f_new = value(trial);
        if f_new <= f_curr + ARMIJO_C1 * t * slope || f_new < f_curr {
            return Some((t, f_new));
        }
        t *= 0.5;
    }
    None
}

/// Sets `dir` to the steepest-descent direction `−grad`.
pub(crate) fn steepest_descent(grad: &[Point], dir: &mut [Point]) {
    for (d, &g) in dir.iter_mut().zip(grad) {
        *d = -g;
    }
}

/// Polak–Ribière update of `dir` from the new gradient `grad` and the
/// previous one `grad_prev`, with β clamped at 0; restarts along `−grad`
/// when the result is not a descent direction.
pub(crate) fn polak_ribiere(grad: &[Point], grad_prev: &[Point], dir: &mut [Point]) {
    let num: f64 = grad
        .iter()
        .zip(grad_prev)
        .map(|(gn, go)| gn.dot(*gn - *go))
        .sum();
    let den: f64 = grad_prev.iter().map(|v| v.norm_sq()).sum();
    let beta = if den > 1e-30 {
        (num / den).max(0.0)
    } else {
        0.0
    };
    for (d, &g) in dir.iter_mut().zip(grad) {
        *d = -g + *d * beta;
    }
    let descent: f64 = grad.iter().zip(&*dir).map(|(a, b)| a.dot(*b)).sum();
    if descent >= 0.0 {
        steepest_descent(grad, dir);
    }
}
