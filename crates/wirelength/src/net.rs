//! The net loop both smooth models share: gather a net's pin coordinates
//! from the design's flat pin array, hand each axis to the model's per-axis
//! function, and scatter the weighted per-pin derivatives into the gradient.

use eplace_geometry::Point;
use eplace_netlist::Design;
use std::ops::Range;

/// `x.exp()`. Test builds count the calls made on each thread.
#[inline(always)]
fn exp(x: f64) -> f64 {
    #[cfg(test)]
    EXP_CALLS.with(|n| n.set(n.get() + 1));
    x.exp()
}

#[cfg(test)]
thread_local! {
    /// `exp` calls made by the net loop on this thread.
    pub(crate) static EXP_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// One net axis's shifted exponentials: pin `j` at `xⱼ` gets
/// `e⁺ⱼ = exp((xⱼ − hi)/γ)` and `e⁻ⱼ = exp((lo − xⱼ)/γ)`, where `lo` and
/// `hi` are the axis's extremes, so arbitrarily spread nets never overflow.
///
/// **2k − 3 exponentials per net axis.** Three of a net's `2k` values have
/// known bits. A pin at `hi` has `e⁺ = exp(±0) = 1`, a pin at `lo` has
/// `e⁻ = 1`, and the `e⁺` of a pin at `lo` and the `e⁻` of a pin at `hi`
/// are both `exp((lo − hi)/γ)`, one call. A net whose extremes are held by
/// one pin each thus calls `exp` `2k − 3` times per axis instead of `2k`
/// (once instead of four times for a two-pin net), fewer when pins tie at an
/// extreme. Every skipped value is the bit pattern the call would have
/// returned (`0·(1/γ)` is `±0` and `exp(±0) = 1` exactly, and the shared
/// argument is the same product). That needs `1/γ` and `hi − lo` finite
/// (otherwise `0·(1/γ)` or `xⱼ − hi` may be NaN); an axis where either is
/// not evaluates every exponential.
pub(crate) struct Shift {
    pub(crate) lo: f64,
    pub(crate) hi: f64,
    inv_gamma: f64,
    known: bool,
    shared: f64,
}

impl Shift {
    /// The shift of the axis with pin coordinates `coords`.
    #[inline(always)]
    pub(crate) fn new(coords: &[f64], inv_gamma: f64) -> Self {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &c in coords {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let known = inv_gamma.is_finite() && (hi - lo).is_finite();
        // e⁺ of a pin at `lo` and e⁻ of a pin at `hi`: one argument, one call.
        let shared = if known {
            exp((lo - hi) * inv_gamma)
        } else {
            0.0
        };
        Shift {
            lo,
            hi,
            inv_gamma,
            known,
            shared,
        }
    }

    /// `(e⁺, e⁻)` of a pin at `c`.
    #[inline(always)]
    pub(crate) fn exps(&self, c: f64) -> (f64, f64) {
        if self.known && c == self.hi {
            (1.0, self.shared)
        } else if self.known && c == self.lo {
            (self.shared, 1.0)
        } else {
            (
                exp((c - self.hi) * self.inv_gamma),
                exp((self.lo - c) * self.inv_gamma),
            )
        }
    }
}

/// Per-worker scratch of the net loop: one net's pin coordinates, their
/// exponentials and per-pin derivatives on both axes. Every entry is written
/// before it is read, and the buffers grow to the largest net they meet, so
/// a sized one never allocates.
#[derive(Debug, Clone)]
pub(crate) struct NetBuffers {
    x: Vec<f64>,
    y: Vec<f64>,
    exp_pos: Vec<f64>,
    exp_neg: Vec<f64>,
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
}

impl NetBuffers {
    /// Buffers for `design`'s largest net.
    pub(crate) fn for_design(design: &Design) -> Self {
        let max_degree = design.nets.iter().map(|n| n.degree()).max();
        Self::with_degree(max_degree.unwrap_or(0))
    }

    fn with_degree(max_degree: usize) -> Self {
        NetBuffers {
            x: vec![0.0; max_degree],
            y: vec![0.0; max_degree],
            exp_pos: vec![0.0; max_degree],
            exp_neg: vec![0.0; max_degree],
            grad_x: vec![0.0; max_degree],
            grad_y: vec![0.0; max_degree],
        }
    }

    /// Sums the weighted smooth length of `design`'s nets `nets` in order,
    /// accumulating per-cell derivatives into `grad` when provided. Nets
    /// with fewer than two pins add nothing. `axis(coords, exp_pos, exp_neg,
    /// deriv)` is the model's length of one net axis from its pin
    /// coordinates; it writes each pin's derivative into `deriv` when given,
    /// with `exp_pos`/`exp_neg` as scratch of at least `coords.len()`.
    pub(crate) fn sum_nets<F>(
        &mut self,
        design: &Design,
        nets: Range<usize>,
        pos: &[Point],
        axis: &F,
        mut grad: Option<&mut [Point]>,
    ) -> f64
    where
        F: Fn(&[f64], &mut [f64], &mut [f64], Option<&mut [f64]>) -> f64,
    {
        let want = grad.is_some();
        let mut total = 0.0;
        for net in &design.nets[nets] {
            let pins = &design.pins[net.pins.clone()];
            let k = pins.len();
            if k < 2 {
                continue;
            }
            if self.x.len() < k {
                *self = NetBuffers::with_degree(k);
            }
            for (pin, (x, y)) in pins.iter().zip(self.x.iter_mut().zip(self.y.iter_mut())) {
                let p = pos[pin.cell.index()];
                *x = p.x + pin.offset.x;
                *y = p.y + pin.offset.y;
            }
            let wx = axis(
                &self.x[..k],
                &mut self.exp_pos,
                &mut self.exp_neg,
                want.then_some(&mut self.grad_x[..k]),
            );
            let wy = axis(
                &self.y[..k],
                &mut self.exp_pos,
                &mut self.exp_neg,
                want.then_some(&mut self.grad_y[..k]),
            );
            let w = net.weight;
            if let Some(g) = grad.as_deref_mut() {
                for ((pin, dx), dy) in pins.iter().zip(&self.grad_x).zip(&self.grad_y) {
                    let slot = &mut g[pin.cell.index()];
                    slot.x += w * dx;
                    slot.y += w * dy;
                }
            }
            total += w * (wx + wy);
        }
        total
    }
}
