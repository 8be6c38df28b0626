use crate::SmoothWirelength;
use eplace_exec::{chunk_range, deterministic_chunks, for_each_chunk, ExecConfig};
use eplace_geometry::Point;
use eplace_netlist::{Design, Net};
use eplace_obs::Obs;
use std::ops::Range;

/// Nets below this count are not worth fanning out to worker threads.
const MIN_PARALLEL_NETS: usize = 64;

/// The netlist in flat arrays, built once by [`WaModel::new`]: net `n`'s
/// pins are entries `start[n]..start[n + 1]` of `cell` and `offset`, in the
/// net's pin order, so a gradient walks three contiguous arrays instead of
/// one `Vec<Pin>` per net.
#[derive(Debug, Clone)]
struct PinTable {
    start: Vec<usize>,
    cell: Vec<u32>,
    offset: Vec<Point>,
    weight: Vec<f64>,
}

impl PinTable {
    fn new(design: &Design) -> Self {
        let pins = design.nets.iter().map(Net::degree).sum();
        let mut start = Vec::with_capacity(design.nets.len() + 1);
        let mut cell = Vec::with_capacity(pins);
        let mut offset = Vec::with_capacity(pins);
        start.push(0);
        for net in &design.nets {
            for pin in &net.pins {
                cell.push(pin.cell.0);
                offset.push(pin.offset);
            }
            start.push(cell.len());
        }
        PinTable {
            start,
            cell,
            offset,
            weight: design.nets.iter().map(|n| n.weight).collect(),
        }
    }

    fn nets(&self) -> usize {
        self.weight.len()
    }

    fn max_degree(&self) -> usize {
        self.start
            .windows(2)
            .map(|w| w[1] - w[0])
            .max()
            .unwrap_or(0)
    }
}

/// `x.exp()`. Test builds count the calls made on each thread.
#[inline(always)]
fn exp(x: f64) -> f64 {
    #[cfg(test)]
    tests::EXP_CALLS.with(|n| n.set(n.get() + 1));
    x.exp()
}

/// Smooth length `S⁺/D⁺ − S⁻/D⁻` of one net along one axis, from the pin
/// coordinates `coords`; writes each pin's derivative into `deriv` when
/// given. `exp_pos`/`exp_neg` are scratch of at least `coords.len()`.
/// Exponentials whose bits are known are not evaluated ([`WaModel`]'s
/// 2k − 3 rule).
fn axis_value(
    coords: &[f64],
    exp_pos: &mut [f64],
    exp_neg: &mut [f64],
    deriv: Option<&mut [f64]>,
    inv_gamma: f64,
) -> f64 {
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
    let (mut d_pos, mut s_pos) = (0.0, 0.0);
    let (mut d_neg, mut s_neg) = (0.0, 0.0);
    for ((&c, ep_out), en_out) in coords
        .iter()
        .zip(exp_pos.iter_mut())
        .zip(exp_neg.iter_mut())
    {
        let (ep, en) = if known && c == hi {
            (1.0, shared)
        } else if known && c == lo {
            (shared, 1.0)
        } else {
            (exp((c - hi) * inv_gamma), exp((lo - c) * inv_gamma))
        };
        *ep_out = ep;
        *en_out = en;
        d_pos += ep;
        s_pos += c * ep;
        d_neg += en;
        s_neg += c * en;
    }
    if let Some(deriv) = deriv {
        let inv_dp2 = 1.0 / (d_pos * d_pos);
        let inv_dn2 = 1.0 / (d_neg * d_neg);
        for (j, (out, &c)) in deriv.iter_mut().zip(coords).enumerate() {
            // ∂(S⁺/D⁺)/∂xⱼ = e⁺ⱼ·[(1 + xⱼ/γ)·D⁺ − S⁺/γ]/D⁺²
            let g_max = exp_pos[j] * ((1.0 + c * inv_gamma) * d_pos - s_pos * inv_gamma) * inv_dp2;
            // ∂(S⁻/D⁻)/∂xⱼ = e⁻ⱼ·[(1 − xⱼ/γ)·D⁻ + S⁻/γ]/D⁻²
            let g_min = exp_neg[j] * ((1.0 - c * inv_gamma) * d_neg + s_neg * inv_gamma) * inv_dn2;
            *out = g_max - g_min;
        }
    }
    s_pos / d_pos - s_neg / d_neg
}

/// Per-worker scratch of the net kernel: one net's pin coordinates, their
/// exponentials and per-pin derivatives on both axes, sized to the largest
/// net. Every entry is written before it is read.
#[derive(Debug, Clone)]
struct NetBuffers {
    x: Vec<f64>,
    y: Vec<f64>,
    exp_pos: Vec<f64>,
    exp_neg: Vec<f64>,
    grad_x: Vec<f64>,
    grad_y: Vec<f64>,
}

impl NetBuffers {
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

    /// The net kernel, serving the serial and the chunked path alike: sums
    /// the weighted smooth length of the nets `nets` of `table` in order
    /// (nets with fewer than two pins add nothing), accumulating per-cell
    /// derivatives into `grad` when provided.
    fn sum_nets(
        &mut self,
        table: &PinTable,
        nets: Range<usize>,
        pos: &[Point],
        inv_gamma: f64,
        mut grad: Option<&mut [Point]>,
    ) -> f64 {
        let want = grad.is_some();
        let mut total = 0.0;
        for n in nets {
            let pins = table.start[n]..table.start[n + 1];
            let k = pins.len();
            if k < 2 {
                continue;
            }
            let cells = &table.cell[pins.clone()];
            for ((&c, o), (x, y)) in cells
                .iter()
                .zip(&table.offset[pins])
                .zip(self.x.iter_mut().zip(self.y.iter_mut()))
            {
                let p = pos[c as usize];
                *x = p.x + o.x;
                *y = p.y + o.y;
            }
            let wx = axis_value(
                &self.x[..k],
                &mut self.exp_pos,
                &mut self.exp_neg,
                want.then_some(&mut self.grad_x[..k]),
                inv_gamma,
            );
            let wy = axis_value(
                &self.y[..k],
                &mut self.exp_pos,
                &mut self.exp_neg,
                want.then_some(&mut self.grad_y[..k]),
                inv_gamma,
            );
            let w = table.weight[n];
            if let Some(g) = grad.as_deref_mut() {
                for ((&c, dx), dy) in cells.iter().zip(&self.grad_x).zip(&self.grad_y) {
                    let slot = &mut g[c as usize];
                    slot.x += w * dx;
                    slot.y += w * dy;
                }
            }
            total += w * (wx + wy);
        }
        total
    }
}

/// Pooled per-chunk state for the parallel evaluation: one worker scratch
/// plus the chunk's partial gradient vector and running total. The pool
/// lives on the model, so steady-state gradient calls allocate nothing.
#[derive(Debug, Clone)]
struct WaChunkScratch {
    scratch: NetBuffers,
    grad: Vec<Point>,
    total: f64,
}

impl WaChunkScratch {
    fn new(max_degree: usize) -> Self {
        WaChunkScratch {
            scratch: NetBuffers::with_degree(max_degree),
            grad: Vec::new(),
            total: 0.0,
        }
    }

    /// Prepares for a fresh chunk: sizes/zeroes the gradient accumulator
    /// (`None` when no gradient is wanted), exactly reproducing a freshly
    /// allocated chunk state. The total is overwritten by the chunk's sum.
    fn reset(&mut self, slots: Option<usize>) {
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
/// evaluation, so arbitrarily spread nets never overflow: pin `j` gets
/// `e⁺ⱼ = exp((xⱼ − hi)/γ)` and `e⁻ⱼ = exp((lo − xⱼ)/γ)`.
///
/// **2k − 3 exponentials per net axis.** Three of a net's `2k` shifted
/// exponentials have known bits. A pin at `hi` has `e⁺ = exp(±0) = 1`, a
/// pin at `lo` has `e⁻ = 1`, and the `e⁺` of a pin at `lo` and the `e⁻`
/// of a pin at `hi` are both `exp((lo − hi)/γ)`, one call. A net whose
/// extremes are held by one pin each thus calls `exp` `2k − 3` times per
/// axis instead of `2k` (once instead of four times for a two-pin net),
/// fewer when pins tie at an extreme. Every skipped value is the bit
/// pattern the call would have returned (`0·(1/γ)` is `±0` and
/// `exp(±0) = 1` exactly, and the shared argument is the same product), and
/// every sum keeps its pin order, so the results are bitwise those of
/// evaluating all `2k`. That needs `1/γ` and `hi − lo` finite (otherwise
/// `0·(1/γ)` or `xⱼ − hi` may be NaN); a net axis where either is not falls
/// back to evaluating every exponential.
///
/// The model flattens the netlist into a pin table when it is built, and
/// owns all scratch buffers, making evaluation and gradient computation
/// allocation-free — wirelength gradients are 29 % of mGP runtime in the
/// paper (Fig. 7), so the hot path matters. The table belongs to the design
/// passed to [`WaModel::new`]: evaluate only that design's nets (its
/// positions may change freely).
///
/// With [`WaModel::set_exec`] the per-net loop fans out across worker
/// threads: nets are split into chunks whose boundaries depend only on the
/// net count, each chunk accumulates into its own scratch gradient, and the
/// partials are reduced in chunk order — so results are identical for every
/// thread count ≥ 2 and within rounding (`≤ 1e-9` relative) of the serial
/// path. Both paths run the same per-net kernel.
#[derive(Debug, Clone)]
pub struct WaModel {
    table: PinTable,
    scratch: NetBuffers,
    /// Scratch pool for the chunked parallel path (empty until first used).
    chunk_pool: Vec<WaChunkScratch>,
    exec: ExecConfig,
    obs: Obs,
}

impl WaModel {
    /// Creates a model for `design`'s nets: builds the pin table and sizes
    /// the scratch for the largest net (serial execution; see
    /// [`WaModel::set_exec`]).
    pub fn new(design: &Design) -> Self {
        let table = PinTable::new(design);
        let scratch = NetBuffers::with_degree(table.max_degree());
        WaModel {
            table,
            scratch,
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

    fn run(
        &mut self,
        design: &Design,
        pos: &[Point],
        gamma: f64,
        mut grad: Option<&mut [Point]>,
    ) -> f64 {
        debug_assert_eq!(
            design.nets.len(),
            self.table.nets(),
            "WaModel evaluated on a design other than its own"
        );
        if let Some(g) = grad.as_deref_mut() {
            for p in g.iter_mut() {
                *p = Point::ORIGIN;
            }
        }
        let inv_gamma = 1.0 / gamma;
        let n_nets = self.table.nets();
        if self.exec.is_serial() || n_nets < MIN_PARALLEL_NETS {
            self.scratch
                .sum_nets(&self.table, 0..n_nets, pos, inv_gamma, grad)
        } else {
            self.run_parallel(pos, inv_gamma, grad)
        }
    }

    /// Chunked fan-out over nets with ordered reduction of the per-chunk
    /// totals and gradient vectors.
    fn run_parallel(
        &mut self,
        pos: &[Point],
        inv_gamma: f64,
        mut grad: Option<&mut [Point]>,
    ) -> f64 {
        let n_nets = self.table.nets();
        // Chunk boundaries depend only on the net count (never the thread
        // count): they fix the floating-point reduction order.
        let chunks = deterministic_chunks(n_nets, 256, 8);
        let want = grad.is_some();
        let slots = grad.as_deref().map_or(0, |g| g.len());
        let max_degree = self.table.max_degree();
        if self.chunk_pool.len() < chunks {
            self.chunk_pool
                .resize_with(chunks, || WaChunkScratch::new(max_degree));
        }
        let table = &self.table;
        let states = &mut self.chunk_pool[..chunks];
        for_each_chunk(&self.exec, states, |i, state| {
            state.reset(want.then_some(slots));
            let WaChunkScratch {
                scratch,
                grad,
                total,
            } = state;
            let range = chunk_range(n_nets, chunks, i);
            *total = scratch.sum_nets(table, range, pos, inv_gamma, want.then_some(&mut grad[..]));
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
    use crate::GammaSchedule;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_geometry::Rect;
    use eplace_netlist::{CellKind, DesignBuilder};
    use std::cell::Cell;

    thread_local! {
        /// `exp` calls made by the net kernel on this thread.
        pub(super) static EXP_CALLS: Cell<u64> = const { Cell::new(0) };
    }

    /// The per-net loop the pin table replaced, kept as the oracle: each
    /// net reads its pins through its own `Vec<Pin>` and every pin pays
    /// both exponentials on both axes.
    #[derive(Debug, Clone)]
    struct NetScratch {
        exp_pos: Vec<f64>,
        exp_neg: Vec<f64>,
        coords: Vec<f64>,
        grad_x: Vec<f64>,
        grad_y: Vec<f64>,
    }

    impl NetScratch {
        fn new() -> Self {
            NetScratch {
                exp_pos: Vec::new(),
                exp_neg: Vec::new(),
                coords: Vec::new(),
                grad_x: Vec::new(),
                grad_y: Vec::new(),
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

        fn axis_value(
            &mut self,
            k: usize,
            gamma: f64,
            want_grad: bool,
            use_y_scratch: bool,
        ) -> f64 {
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
                    let g_max = self.exp_pos[j]
                        * ((1.0 + c * inv_gamma) * d_pos - s_pos * inv_gamma)
                        * inv_dp2;
                    let g_min = self.exp_neg[j]
                        * ((1.0 - c * inv_gamma) * d_neg + s_neg * inv_gamma)
                        * inv_dn2;
                    if use_y_scratch {
                        self.grad_y[j] = g_max - g_min;
                    } else {
                        self.grad_x[j] = g_max - g_min;
                    }
                }
            }
            s_pos / d_pos - s_neg / d_neg
        }

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

    /// Value and gradient of the kept loop: over all nets in order, or,
    /// with `chunks`, as per-chunk sums reduced in chunk order — the
    /// chunked path's layout.
    fn reference(
        design: &Design,
        pos: &[Point],
        gamma: f64,
        chunks: Option<usize>,
    ) -> (f64, Vec<Point>) {
        let n = design.nets.len();
        let mut scratch = NetScratch::new();
        let mut run = |range: Range<usize>| {
            let mut grad = vec![Point::ORIGIN; pos.len()];
            let mut total = 0.0;
            for net in &design.nets[range] {
                if net.pins.len() < 2 {
                    continue;
                }
                total += scratch.net_value(net, pos, gamma, Some(&mut grad));
            }
            (total, grad)
        };
        let Some(chunks) = chunks else {
            return run(0..n);
        };
        let mut total = 0.0;
        let mut grad = vec![Point::ORIGIN; pos.len()];
        for i in 0..chunks {
            let (t, g) = run(chunk_range(n, chunks, i));
            total += t;
            for (dst, src) in grad.iter_mut().zip(&g) {
                *dst += *src;
            }
        }
        (total, grad)
    }

    /// Bitwise equality, except that a NaN matches any NaN: Rust leaves NaN
    /// sign and payload unspecified (the compiler may swap the operands of
    /// `x * y`, and x86 keeps the first one's NaN).
    fn same(a: f64, b: f64) -> bool {
        a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
    }

    /// Asserts that the model's value (plain and with gradient) and every
    /// gradient bit equal the kept loop's at `threads`.
    fn assert_matches_reference(d: &Design, pos: &[Point], gamma: f64, threads: usize, what: &str) {
        let parallel = threads > 1 && d.nets.len() >= MIN_PARALLEL_NETS;
        let chunks = parallel.then(|| deterministic_chunks(d.nets.len(), 256, 8));
        let (want_w, want_g) = reference(d, pos, gamma, chunks);
        let mut wa = WaModel::new(d).with_exec(ExecConfig::with_threads(threads));
        let mut grad = vec![Point::new(7.0, -7.0); pos.len()];
        let w = wa.gradient(d, pos, gamma, &mut grad);
        let at = format!("{what}, γ = {gamma:e}, threads {threads}");
        assert!(same(w, want_w), "{at}: value {w} vs {want_w}");
        let v = wa.evaluate(d, pos, gamma);
        assert!(same(v, want_w), "{at}: evaluate {v} vs {want_w}");
        for (i, (a, b)) in grad.iter().zip(&want_g).enumerate() {
            assert!(
                same(a.x, b.x) && same(a.y, b.y),
                "{at}: cell {i}: {a} vs {b}"
            );
        }
    }

    /// γ across the schedule's range, τ = 1 down to 0, on a 64-bin grid.
    fn schedule_gammas(d: &Design) -> Vec<f64> {
        let schedule = GammaSchedule::new(d.region.width() / 64.0);
        [1.0, 0.7, 0.4, 0.1, 0.0]
            .iter()
            .map(|&tau| schedule.gamma(tau))
            .collect()
    }

    fn positions(d: &Design) -> Vec<Point> {
        d.cells.iter().map(|c| c.pos).collect()
    }

    #[test]
    fn kernel_is_bitwise_the_reference_on_benchmark_circuits() {
        for cells in [400, 1500] {
            for (family, cfg) in [
                ("ispd05_like", BenchmarkConfig::ispd05_like("wa", 7)),
                ("mms_like", BenchmarkConfig::mms_like("wa", 8, 0.8, 8)),
                ("peko_like", BenchmarkConfig::peko_like("wa", 9)),
            ] {
                let mut mip = cfg.scale(cells).generate();
                eplace_core::initial_placement(&mut mip);
                // Mid-mGP: fillers in, a few dozen Nesterov iterations.
                let mut mgp = mip.clone();
                eplace_core::insert_fillers(&mut mgp, 1);
                let problem = eplace_core::PlacementProblem::all_movables(&mgp);
                let outcome = eplace_core::run_global_placement(
                    &mut mgp,
                    &problem,
                    &eplace_core::EplaceConfig::fast(),
                    eplace_core::Stage::Mgp,
                    None,
                    Some(100),
                    &mut Vec::new(),
                );
                assert!(outcome.is_ok(), "{family} {cells}: mGP failed");
                for (stage, d) in [("mIP", &mip), ("mid-mGP", &mgp)] {
                    let pos = positions(d);
                    for gamma in schedule_gammas(d) {
                        for threads in 1..=4 {
                            let what = format!("{family} {cells} cells, {stage}");
                            assert_matches_reference(d, &pos, gamma, threads, &what);
                        }
                    }
                }
            }
        }
    }

    /// Pin coordinates of nets that hit every branch of the skipped
    /// exponentials and their fallback.
    const CRAFTED: [&[(f64, f64)]; 16] = {
        const INF: f64 = f64::INFINITY;
        const NEG_INF: f64 = f64::NEG_INFINITY;
        const NAN: f64 = f64::NAN;
        [
            &[(3.0, 4.0), (3.0, 4.0), (3.0, 4.0)], // coincident pins
            &[(5.0, 1.0), (5.0, 9.0), (5.0, 2.0)], // one x for every pin
            &[(-0.0, 0.0), (0.0, -0.0), (1.0, -0.0)],
            &[(-0.0, 0.0), (0.0, -0.0)],
            &[(1.0, 2.0), (2.0, 1.0), (2.0, 1.0), (0.5, 3.0)], // ties at extremes
            &[(NAN, 1.0), (2.0, NAN), (3.0, 4.0)],
            &[(NAN, NAN), (NAN, NAN)],
            &[(INF, 1.0), (2.0, 3.0)],
            &[(NEG_INF, 1.0), (2.0, NEG_INF), (4.0, 5.0)],
            &[(INF, NEG_INF), (NEG_INF, INF)],
            &[(1e308, -1e308), (-1e308, 1e308), (0.0, 0.0)], // the span overflows
            &[(0.0, 0.0), (1e-300, 30.0)],
            &[(10.0, 20.0), (30.0, 5.0)],
            &[(1.0, 1.0), (9.0, 2.0), (4.0, 7.0), (6.0, 3.0), (2.0, 8.0)],
            &[(1.0, 1.0)], // one pin: skipped
            &[],           // no pins: skipped
        ]
    };

    /// `copies` rounds of the crafted nets `cases`, with weights ≠ 1; one
    /// cell per pin, plus one cell on two pins of net 13.
    fn crafted_design(cases: &[usize], copies: usize) -> (Design, Vec<Point>) {
        let mut b = DesignBuilder::new("crafted", Rect::new(0.0, 0.0, 100.0, 100.0));
        let mut pos = Vec::new();
        for copy in 0..copies {
            for &case in cases {
                // A -0.0 coordinate survives only a -0.0 offset.
                let offset = if case == 2 || case == 3 {
                    Point::new(-0.0, -0.0)
                } else {
                    Point::new(0.25 * copy as f64, -0.5)
                };
                let mut net = Vec::new();
                for &(x, y) in CRAFTED[case] {
                    let id = b.add_cell(format!("c{}", pos.len()), 1.0, 1.0, CellKind::StdCell);
                    pos.push(Point::new(x, y));
                    net.push((id, offset));
                }
                if case == 13 {
                    net.push((net[1].0, Point::new(1.5, 0.0)));
                }
                let weight = [1.0, 2.5, 0.5, 3.0][(copy + case) % 4];
                b.add_weighted_net(format!("n{copy}_{case}"), net, weight);
            }
        }
        (b.build(), pos)
    }

    #[test]
    fn kernel_is_bitwise_the_reference_on_crafted_nets() {
        let all: Vec<usize> = (0..CRAFTED.len()).collect();
        // Five rounds of every net (80 nets) run the chunked path too.
        let (d, pos) = crafted_design(&all, 5);
        assert!(d.nets.len() >= MIN_PARALLEL_NETS);
        let mut gammas = schedule_gammas(&d);
        gammas.extend([
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            -3.0,
            1e-300,
            1e300,
            f64::MIN_POSITIVE,
        ]);
        for &gamma in &gammas {
            for threads in 1..=4 {
                assert_matches_reference(&d, &pos, gamma, threads, "crafted nets");
            }
            // Alone, so that no other net's NaN hides a net's value.
            for case in 0..CRAFTED.len() {
                let (d, pos) = crafted_design(&[case], 1);
                assert_matches_reference(&d, &pos, gamma, 1, &format!("crafted net {case}"));
            }
        }
    }

    fn exp_calls(f: impl FnOnce()) -> u64 {
        let before = EXP_CALLS.with(Cell::get);
        f();
        EXP_CALLS.with(Cell::get) - before
    }

    #[test]
    fn a_net_calls_exp_2k_minus_3_times_per_axis() {
        for k in 2..=7 {
            // Distinct coordinates on both axes: one pin holds each extreme.
            let (d, pos) = star_design(k);
            let mut wa = WaModel::new(&d);
            let mut grad = vec![Point::ORIGIN; k];
            let calls = exp_calls(|| {
                wa.gradient(&d, &pos, 2.0, &mut grad);
            });
            assert_eq!(calls, 2 * (2 * k as u64 - 3), "k = {k}");
            // Where 1/γ is not finite every exponential is evaluated.
            let calls = exp_calls(|| {
                wa.gradient(&d, &pos, 0.0, &mut grad);
            });
            assert_eq!(calls, 4 * k as u64, "k = {k}, γ = 0");
        }
        // Coincident pins all sit at both extremes: one call per axis.
        let (d, _) = star_design(4);
        let pos = vec![Point::new(3.0, 3.0); 4];
        let mut wa = WaModel::new(&d);
        let calls = exp_calls(|| {
            let _ = wa.evaluate(&d, &pos, 1.0);
        });
        assert_eq!(calls, 2);
        // A benchmark circuit at mIP positions: at most 2k − 3 per net axis.
        let mut d = BenchmarkConfig::ispd05_like("wa", 7).scale(1500).generate();
        eplace_core::initial_placement(&mut d);
        let pos = positions(&d);
        let driven: Vec<u64> = d
            .nets
            .iter()
            .map(|n| n.degree() as u64)
            .filter(|&k| k >= 2)
            .collect();
        let every = 4 * driven.iter().sum::<u64>();
        let bound: u64 = driven.iter().map(|k| 2 * (2 * k - 3)).sum();
        let mut wa = WaModel::new(&d);
        let mut grad = vec![Point::ORIGIN; pos.len()];
        let calls = exp_calls(|| {
            wa.gradient(&d, &pos, schedule_gammas(&d)[2], &mut grad);
        });
        println!("exp calls per gradient: {calls} (2k − 3 rule: {bound}, every pin: {every})");
        assert!(calls <= bound && bound < every);
    }

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
            assert!(
                smooth <= d.hpwl_with_positions(&pos) + 1e-9,
                "gamma={gamma}"
            );
        }
    }

    #[test]
    fn wa_converges_to_hpwl_as_gamma_shrinks() {
        let (d, pos) = star_design(5);
        let mut wa = WaModel::new(&d);
        let exact = d.hpwl_with_positions(&pos);
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
