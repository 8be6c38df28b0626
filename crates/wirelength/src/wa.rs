use crate::SmoothWirelength;
use eplace_exec::{chunk_range, deterministic_chunks, for_each_chunk, ExecConfig};
use eplace_geometry::Point;
use eplace_netlist::{Design, Net};
use eplace_obs::Obs;

/// Nets below this count are not worth fanning out to worker threads.
const MIN_PARALLEL_NETS: usize = 64;

/// Per-worker scratch for one net's WA evaluation: exponent tables, pin
/// coordinates, and per-pin axis derivatives.
#[derive(Debug, Clone)]
struct NetScratch {
    exp_pos: Vec<f64>,
    exp_neg: Vec<f64>,
    coords: Vec<f64>,
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
}

impl NetScratch {
    fn with_degree(max_degree: usize) -> Self {
        NetScratch {
            exp_pos: vec![0.0; max_degree],
            exp_neg: vec![0.0; max_degree],
            coords: vec![0.0; max_degree],
            grad_x: vec![0.0; max_degree],
            grad_y: vec![0.0; max_degree],
        }
    }

    fn reserve(&mut self, degree: usize) {
        if self.exp_pos.len() < degree {
            self.exp_pos.resize(degree, 0.0);
            self.exp_neg.resize(degree, 0.0);
            self.coords.resize(degree, 0.0);
            self.grad_x.resize(degree, 0.0);
            self.grad_y.resize(degree, 0.0);
        }
    }

    /// Smooth length of one net along one axis. `self.coords[..k]` must hold
    /// the pin coordinates. Per-pin derivatives are written to the axis
    /// scratch when requested.
    fn axis_value(&mut self, k: usize, gamma: f64, want_grad: bool, use_y_scratch: bool) -> f64 {
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for &c in &self.coords[..k] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        let inv_gamma = 1.0 / gamma;
        let (mut d_pos, mut s_pos) = (0.0, 0.0);
        let (mut d_neg, mut s_neg) = (0.0, 0.0);
        for j in 0..k {
            let c = self.coords[j];
            let ep = ((c - hi) * inv_gamma).exp();
            let en = ((lo - c) * inv_gamma).exp();
            self.exp_pos[j] = ep;
            self.exp_neg[j] = en;
            d_pos += ep;
            s_pos += c * ep;
            d_neg += en;
            s_neg += c * en;
        }
        if want_grad {
            let inv_dp2 = 1.0 / (d_pos * d_pos);
            let inv_dn2 = 1.0 / (d_neg * d_neg);
            for j in 0..k {
                let c = self.coords[j];
                // ∂(S⁺/D⁺)/∂xⱼ = e⁺ⱼ·[(1 + xⱼ/γ)·D⁺ − S⁺/γ]/D⁺²
                let g_max =
                    self.exp_pos[j] * ((1.0 + c * inv_gamma) * d_pos - s_pos * inv_gamma) * inv_dp2;
                // ∂(S⁻/D⁻)/∂xⱼ = e⁻ⱼ·[(1 − xⱼ/γ)·D⁻ + S⁻/γ]/D⁻²
                let g_min =
                    self.exp_neg[j] * ((1.0 - c * inv_gamma) * d_neg + s_neg * inv_gamma) * inv_dn2;
                if use_y_scratch {
                    self.grad_y[j] = g_max - g_min;
                } else {
                    self.grad_x[j] = g_max - g_min;
                }
            }
        }
        s_pos / d_pos - s_neg / d_neg
    }

    /// Weighted smooth length of `net`, accumulating per-cell derivatives
    /// into `grad` when provided. The caller skips nets with fewer than two
    /// pins.
    fn net_value(
        &mut self,
        net: &Net,
        pos: &[Point],
        gamma: f64,
        grad: Option<&mut [Point]>,
    ) -> f64 {
        let k = net.pins.len();
        self.reserve(k);
        let want = grad.is_some();
        let w = net.weight;
        for (j, pin) in net.pins.iter().enumerate() {
            self.coords[j] = pos[pin.cell.index()].x + pin.offset.x;
        }
        let wx = self.axis_value(k, gamma, want, false);
        for (j, pin) in net.pins.iter().enumerate() {
            self.coords[j] = pos[pin.cell.index()].y + pin.offset.y;
        }
        let wy = self.axis_value(k, gamma, want, true);
        if let Some(g) = grad {
            for (j, pin) in net.pins.iter().enumerate() {
                let slot = &mut g[pin.cell.index()];
                slot.x += w * self.grad_x[j];
                slot.y += w * self.grad_y[j];
            }
        }
        w * (wx + wy)
    }
}

/// Pooled per-chunk state for the parallel evaluation: one worker scratch
/// plus the chunk's partial gradient vector and running total. The pool
/// lives on the model, so steady-state gradient calls allocate nothing.
#[derive(Debug, Clone)]
struct WaChunkScratch {
    scratch: NetScratch,
    grad: Vec<Point>,
    total: f64,
}

impl WaChunkScratch {
    fn new(max_degree: usize) -> Self {
        WaChunkScratch {
            scratch: NetScratch::with_degree(max_degree),
            grad: Vec::new(),
            total: 0.0,
        }
    }

    /// Prepares for a fresh chunk: zeroes the total and sizes/zeroes the
    /// gradient accumulator (`None` when no gradient is wanted), exactly
    /// reproducing a freshly allocated chunk state. `NetScratch` itself
    /// needs no reset — every entry is written before it is read.
    fn reset(&mut self, slots: Option<usize>) {
        self.total = 0.0;
        self.grad.clear();
        self.grad.resize(slots.unwrap_or(0), Point::ORIGIN);
    }
}

/// The weighted-average (WA) smooth wirelength model (paper Eq. 3).
///
/// Per net and axis the max (min) coordinate is approximated by
///
/// ```text
/// max ≈ Σ xᵢ·e^{ xᵢ/γ} / Σ e^{ xᵢ/γ}
/// min ≈ Σ xᵢ·e^{−xᵢ/γ} / Σ e^{−xᵢ/γ}
/// ```
///
/// so the smooth net length is `(max̃ − miñ)` per axis. WA always
/// *underestimates* HPWL, with an `O(γ)` error per net; `γ` is tightened as
/// the placement spreads out (see [`crate::GammaSchedule`]).
///
/// Exponentials are shifted by the per-net max/min coordinate before
/// evaluation, so arbitrarily spread nets never overflow.
///
/// The struct owns all scratch buffers, making evaluation and gradient
/// computation allocation-free — wirelength gradients are 29 % of mGP
/// runtime in the paper (Fig. 7), so the hot path matters.
///
/// With [`WaModel::set_exec`] the per-net loop fans out across worker
/// threads: nets are split into chunks whose boundaries depend only on the
/// net count, each chunk accumulates into its own scratch gradient, and the
/// partials are reduced in chunk order — so results are identical for every
/// thread count ≥ 2 and within rounding (`≤ 1e-9` relative) of the serial
/// path. The serial default reproduces the historical code bit-for-bit.
#[derive(Debug, Clone)]
pub struct WaModel {
    scratch: NetScratch,
    max_degree: usize,
    /// Scratch pool for the chunked parallel path (empty until first used).
    chunk_pool: Vec<WaChunkScratch>,
    exec: ExecConfig,
    obs: Obs,
}

impl WaModel {
    /// Creates a model with scratch space sized for `design`'s largest net
    /// (serial execution; see [`WaModel::set_exec`]).
    pub fn new(design: &Design) -> Self {
        let max_degree = design.nets.iter().map(Net::degree).max().unwrap_or(0);
        WaModel {
            scratch: NetScratch::with_degree(max_degree),
            max_degree,
            chunk_pool: Vec::new(),
            exec: ExecConfig::serial(),
            obs: Obs::disabled(),
        }
    }

    /// Sets the execution configuration for subsequent evaluations.
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// Builder form of [`WaModel::set_exec`].
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.exec = exec;
        self
    }

    /// Sets the observability recorder: gradients record a `wa_gradient`
    /// span and the `wa_gradients` counter, plain evaluations a `wa_eval`
    /// span. Recording never affects the computed values.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Builder form of [`WaModel::set_obs`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    fn run(
        &mut self,
        design: &Design,
        pos: &[Point],
        gamma: f64,
        mut grad: Option<&mut [Point]>,
    ) -> f64 {
        if let Some(g) = grad.as_deref_mut() {
            for p in g.iter_mut() {
                *p = Point::ORIGIN;
            }
        }
        if self.exec.is_serial() || design.nets.len() < MIN_PARALLEL_NETS {
            self.run_serial(design, pos, gamma, grad)
        } else {
            self.run_parallel(design, pos, gamma, grad)
        }
    }

    /// The historical single-threaded loop, using the object-owned scratch.
    fn run_serial(
        &mut self,
        design: &Design,
        pos: &[Point],
        gamma: f64,
        mut grad: Option<&mut [Point]>,
    ) -> f64 {
        let mut total = 0.0;
        for net in &design.nets {
            if net.pins.len() < 2 {
                continue;
            }
            total += self.scratch.net_value(net, pos, gamma, grad.as_deref_mut());
        }
        total
    }

    /// Chunked fan-out over nets with ordered reduction of the per-chunk
    /// totals and gradient vectors.
    fn run_parallel(
        &mut self,
        design: &Design,
        pos: &[Point],
        gamma: f64,
        mut grad: Option<&mut [Point]>,
    ) -> f64 {
        let n_nets = design.nets.len();
        // Chunk boundaries depend only on the net count (never the thread
        // count): they fix the floating-point reduction order.
        let chunks = deterministic_chunks(n_nets, 256, 8);
        let want = grad.is_some();
        let slots = grad.as_deref().map_or(0, |g| g.len());
        let max_degree = self.max_degree;
        if self.chunk_pool.len() < chunks {
            self.chunk_pool
                .resize_with(chunks, || WaChunkScratch::new(max_degree));
        }
        let states = &mut self.chunk_pool[..chunks];
        for_each_chunk(&self.exec, states, |i, state| {
            state.reset(want.then_some(slots));
            let WaChunkScratch {
                scratch,
                grad,
                total,
            } = state;
            let mut local = want.then_some(&mut grad[..]);
            for net in &design.nets[chunk_range(n_nets, chunks, i)] {
                if net.pins.len() < 2 {
                    continue;
                }
                *total += scratch.net_value(net, pos, gamma, local.as_deref_mut());
            }
        });
        let mut total = 0.0;
        for state in &self.chunk_pool[..chunks] {
            total += state.total;
            if let Some(g) = grad.as_deref_mut() {
                for (dst, src) in g.iter_mut().zip(&state.grad) {
                    *dst += *src;
                }
            }
        }
        total
    }
}

impl SmoothWirelength for WaModel {
    fn evaluate(&mut self, design: &Design, pos: &[Point], gamma: f64) -> f64 {
        let _span = self.obs.span("wa_eval");
        self.run(design, pos, gamma, None)
    }

    fn gradient(&mut self, design: &Design, pos: &[Point], gamma: f64, grad: &mut [Point]) -> f64 {
        assert!(
            grad.len() >= design.cells.len(),
            "gradient buffer too small"
        );
        let _span = self.obs.span("wa_gradient");
        self.obs.add("wa_gradients", 1);
        self.run(design, pos, gamma, Some(grad))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hpwl;
    use eplace_geometry::Rect;
    use eplace_netlist::{CellKind, DesignBuilder};

    fn star_design(k: usize) -> (Design, Vec<Point>) {
        let mut b = DesignBuilder::new("star", Rect::new(0.0, 0.0, 100.0, 100.0));
        let ids: Vec<_> = (0..k)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        b.add_net("n", ids.iter().map(|&id| (id, Point::ORIGIN)).collect());
        let d = b.build();
        let pos: Vec<Point> = (0..k)
            .map(|i| Point::new((i * i % 17) as f64, (i * 3 % 11) as f64))
            .collect();
        (d, pos)
    }

    #[test]
    fn wa_underestimates_hpwl() {
        let (d, pos) = star_design(6);
        let mut wa = WaModel::new(&d);
        for &gamma in &[0.1, 1.0, 10.0] {
            let smooth = wa.evaluate(&d, &pos, gamma);
            assert!(smooth <= hpwl(&d, &pos) + 1e-9, "gamma={gamma}");
        }
    }

    #[test]
    fn wa_converges_to_hpwl_as_gamma_shrinks() {
        let (d, pos) = star_design(5);
        let mut wa = WaModel::new(&d);
        let exact = hpwl(&d, &pos);
        let coarse = wa.evaluate(&d, &pos, 5.0);
        let fine = wa.evaluate(&d, &pos, 0.05);
        assert!((fine - exact).abs() < (coarse - exact).abs());
        assert!((fine - exact).abs() < 0.05 * exact.max(1.0));
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let (d, pos) = star_design(5);
        let mut wa = WaModel::new(&d);
        let gamma = 2.0;
        let mut grad = vec![Point::ORIGIN; pos.len()];
        wa.gradient(&d, &pos, gamma, &mut grad);
        let h = 1e-6;
        for i in 0..pos.len() {
            for axis in 0..2 {
                let mut plus = pos.clone();
                let mut minus = pos.clone();
                if axis == 0 {
                    plus[i].x += h;
                    minus[i].x -= h;
                } else {
                    plus[i].y += h;
                    minus[i].y -= h;
                }
                let fd =
                    (wa.evaluate(&d, &plus, gamma) - wa.evaluate(&d, &minus, gamma)) / (2.0 * h);
                let analytic = if axis == 0 { grad[i].x } else { grad[i].y };
                assert!(
                    (fd - analytic).abs() < 1e-5 * (1.0 + fd.abs()),
                    "cell {i} axis {axis}: fd {fd} vs analytic {analytic}"
                );
            }
        }
    }

    #[test]
    fn gradient_is_translation_invariant() {
        let (d, pos) = star_design(4);
        let mut wa = WaModel::new(&d);
        let mut g1 = vec![Point::ORIGIN; 4];
        let w1 = wa.gradient(&d, &pos, 1.0, &mut g1);
        let shifted: Vec<Point> = pos.iter().map(|p| *p + Point::new(13.0, -7.0)).collect();
        let mut g2 = vec![Point::ORIGIN; 4];
        let w2 = wa.gradient(&d, &shifted, 1.0, &mut g2);
        assert!((w1 - w2).abs() < 1e-9 * w1.max(1.0));
        for (a, b) in g1.iter().zip(&g2) {
            assert!((a.x - b.x).abs() < 1e-9 && (a.y - b.y).abs() < 1e-9);
        }
    }

    #[test]
    fn gradient_sums_to_zero_per_net() {
        // Wirelength forces are internal: they sum to zero over a net.
        let (d, pos) = star_design(7);
        let mut wa = WaModel::new(&d);
        let mut grad = vec![Point::ORIGIN; 7];
        wa.gradient(&d, &pos, 1.5, &mut grad);
        let sum = grad.iter().fold(Point::ORIGIN, |acc, g| acc + *g);
        assert!(sum.norm() < 1e-9);
    }

    #[test]
    fn extreme_spread_does_not_overflow() {
        // Cells 1e9 apart with tiny gamma — unshifted exponentials would be
        // infinite.
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 1e10, 1e10));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        let d = b.build();
        let pos = vec![Point::new(0.0, 0.0), Point::new(1e9, 1e9)];
        let mut wa = WaModel::new(&d);
        let mut grad = vec![Point::ORIGIN; 2];
        let w = wa.gradient(&d, &pos, 1e-3, &mut grad);
        assert!(w.is_finite());
        assert!((w - 2e9).abs() < 1.0);
        assert!(grad.iter().all(|g| g.is_finite()));
    }

    #[test]
    fn two_pin_gradient_direction() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 100.0));
        let a = b.add_cell("a", 1.0, 1.0, CellKind::StdCell);
        let c = b.add_cell("b", 1.0, 1.0, CellKind::StdCell);
        b.add_net("n", vec![(a, Point::ORIGIN), (c, Point::ORIGIN)]);
        let d = b.build();
        let pos = vec![Point::new(10.0, 10.0), Point::new(20.0, 10.0)];
        let mut wa = WaModel::new(&d);
        let mut grad = vec![Point::ORIGIN; 2];
        wa.gradient(&d, &pos, 1.0, &mut grad);
        // The left cell is the min: increasing its x shrinks the net, so the
        // derivative of W with respect to its x is negative.
        assert!(grad[0].x < 0.0);
        assert!(grad[1].x > 0.0);
    }

    #[test]
    fn pin_offsets_shift_the_smooth_length() {
        let mut b = DesignBuilder::new("d", Rect::new(0.0, 0.0, 100.0, 100.0));
        let a = b.add_cell("a", 2.0, 2.0, CellKind::StdCell);
        let c = b.add_cell("b", 2.0, 2.0, CellKind::StdCell);
        b.add_net(
            "n",
            vec![(a, Point::new(1.0, 0.0)), (c, Point::new(-1.0, 0.0))],
        );
        let d = b.build();
        let pos = vec![Point::new(0.0, 0.0), Point::new(50.0, 0.0)];
        let mut wa = WaModel::new(&d);
        let w = wa.evaluate(&d, &pos, 0.01);
        assert!((w - 48.0).abs() < 1e-6);
    }

    /// A many-net design that crosses the parallel fan-out threshold.
    fn mesh_design(n_cells: usize) -> (Design, Vec<Point>) {
        let mut b = DesignBuilder::new("mesh", Rect::new(0.0, 0.0, 1000.0, 1000.0));
        let ids: Vec<_> = (0..n_cells)
            .map(|i| b.add_cell(format!("c{i}"), 1.0, 1.0, CellKind::StdCell))
            .collect();
        for i in 0..n_cells {
            let j = (i * 7 + 3) % n_cells;
            let k = (i * 13 + 5) % n_cells;
            let mut pins = vec![(ids[i], Point::ORIGIN), (ids[j], Point::ORIGIN)];
            if k != i && k != j {
                pins.push((ids[k], Point::ORIGIN));
            }
            b.add_net(format!("n{i}"), pins);
        }
        let d = b.build();
        let pos: Vec<Point> = (0..n_cells)
            .map(|i| Point::new(((i * 31) % 997) as f64, ((i * 57) % 991) as f64))
            .collect();
        (d, pos)
    }

    #[test]
    fn parallel_gradient_matches_serial_within_rounding() {
        let (d, pos) = mesh_design(400);
        let gamma = 4.0;
        let mut serial = WaModel::new(&d);
        let mut gs = vec![Point::ORIGIN; pos.len()];
        let ws = serial.gradient(&d, &pos, gamma, &mut gs);
        for threads in [2usize, 4] {
            let mut par = WaModel::new(&d).with_exec(ExecConfig::with_threads(threads));
            let mut gp = vec![Point::ORIGIN; pos.len()];
            let wp = par.gradient(&d, &pos, gamma, &mut gp);
            assert!(
                (ws - wp).abs() <= 1e-9 * ws.abs().max(1.0),
                "threads {threads}"
            );
            for (a, b) in gs.iter().zip(&gp) {
                let scale = a.norm().max(1.0);
                assert!((*a - *b).norm() <= 1e-9 * scale, "threads {threads}");
            }
        }
    }

    #[test]
    fn repeated_parallel_gradients_reuse_pool_and_stay_bitwise_stable() {
        let (d, pos) = mesh_design(400);
        let mut wa = WaModel::new(&d).with_exec(ExecConfig::with_threads(4));
        let mut g1 = vec![Point::ORIGIN; pos.len()];
        let w1 = wa.gradient(&d, &pos, 4.0, &mut g1);
        let pool_len = wa.chunk_pool.len();
        assert!(pool_len > 0, "parallel run should have built a pool");
        // A gradient-free evaluation in between shrinks the pooled gradient
        // accumulators to zero length; the next gradient must re-grow and
        // re-zero them correctly.
        let _ = wa.evaluate(&d, &pos, 4.0);
        let mut g2 = vec![Point::ORIGIN; pos.len()];
        let w2 = wa.gradient(&d, &pos, 4.0, &mut g2);
        assert_eq!(wa.chunk_pool.len(), pool_len, "pool should be reused");
        assert_eq!(w1.to_bits(), w2.to_bits());
        for (a, b) in g1.iter().zip(&g2) {
            assert_eq!(a.x.to_bits(), b.x.to_bits());
            assert_eq!(a.y.to_bits(), b.y.to_bits());
        }
    }

    #[test]
    fn parallel_gradient_is_thread_count_invariant() {
        // The chunk layout depends only on the net count, so every thread
        // count ≥ 2 must produce the same bits.
        let (d, pos) = mesh_design(300);
        let run = |threads: usize| {
            let mut wa = WaModel::new(&d).with_exec(ExecConfig::with_threads(threads));
            let mut g = vec![Point::ORIGIN; pos.len()];
            let w = wa.gradient(&d, &pos, 3.0, &mut g);
            (w, g)
        };
        let (w2, g2) = run(2);
        for threads in [3usize, 5, 8] {
            let (w, g) = run(threads);
            assert_eq!(w.to_bits(), w2.to_bits(), "threads {threads}");
            for (a, b) in g.iter().zip(&g2) {
                assert_eq!(a.x.to_bits(), b.x.to_bits(), "threads {threads}");
                assert_eq!(a.y.to_bits(), b.y.to_bits(), "threads {threads}");
            }
        }
    }
}
