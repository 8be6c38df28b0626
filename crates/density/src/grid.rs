use crate::SMOOTH_FACTOR;
use eplace_exec::{chunk_range, deterministic_chunks, for_each_chunk, ExecConfig};
use eplace_geometry::{overlap_1d, Point, Rect, Size};
use eplace_obs::Obs;
use eplace_spectral::{SpectralEngine, Transform2d};
use std::f64::consts::PI;

/// Below this object count the deposit always runs serially: the per-chunk
/// grid accumulators would cost more than the sweep itself.
const DEPOSIT_MIN_CHUNK: usize = 1024;
/// Cap on deposit chunks, bounding the transient accumulator memory to
/// `DEPOSIT_MAX_CHUNKS` grid copies. The chunk structure depends only on the
/// object count — never on the thread count — so parallel results are
/// reproducible on any machine.
const DEPOSIT_MAX_CHUNKS: usize = 8;
/// Overlap widths a per-object query keeps on the stack; wider footprints
/// (macros) take a heap slot.
const INLINE_SLOT: usize = 16;

/// A movable object as the density system sees it: a size, whether it
/// counts toward density *overflow* (fillers do not — they are whitespace),
/// and its density scale.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DensityObject {
    /// Physical outline of the object.
    pub size: Size,
    /// `true` for real cells/macros, `false` for fillers.
    pub counts_in_overflow: bool,
    /// Charge/usage scale. 1.0 for standard cells and fillers; ρ_t for
    /// movable macros: a macro is solid (local density 1) and cannot be
    /// diluted to a ρ_t < 1 equilibrium, so its charge is scaled exactly
    /// like fixed blockages' (the ePlace-MS/RePlAce macro density scaling).
    pub density_scale: f64,
}

impl DensityObject {
    /// A real movable object (standard cell, or macro at ρ_t = 1).
    pub fn movable(size: Size) -> Self {
        DensityObject {
            size,
            counts_in_overflow: true,
            density_scale: 1.0,
        }
    }

    /// A movable macro under density target `rho_t`: solid area whose
    /// charge and overflow usage scale by ρ_t.
    pub fn movable_macro(size: Size, rho_t: f64) -> Self {
        DensityObject {
            size,
            counts_in_overflow: true,
            density_scale: rho_t,
        }
    }

    /// A whitespace filler: deposits charge but never counts as overflow.
    pub fn filler(size: Size) -> Self {
        DensityObject {
            size,
            counts_in_overflow: false,
            density_scale: 1.0,
        }
    }

    /// The object's electric quantity `q_i` (its scaled area, paper Eq. 5).
    #[inline]
    pub fn charge(&self) -> f64 {
        self.size.area() * self.density_scale
    }
}

/// The grid's bin geometry. All footprint arithmetic — smoothing, bin
/// ranges, overlap widths — reads only this, so a parallel deposit chunk can
/// build stencils from a copy while the grid's stencil buffer is split among
/// the chunks.
#[derive(Debug, Clone, Copy)]
struct Bins {
    region: Rect,
    nx: usize,
    ny: usize,
    bin_w: f64,
    bin_h: f64,
}

impl Bins {
    #[inline]
    fn span_x(&self, ix: usize) -> (f64, f64) {
        let lo = self.region.xl + ix as f64 * self.bin_w;
        (lo, lo + self.bin_w)
    }

    #[inline]
    fn span_y(&self, iy: usize) -> (f64, f64) {
        let lo = self.region.yl + iy as f64 * self.bin_h;
        (lo, lo + self.bin_h)
    }

    /// `⌊t⌋` clamped into `[0, n]`. Clamping first makes truncation equal
    /// floor, so this is exactly `⌊t⌋.clamp(0, n)` without a libm call (the
    /// baseline x86-64 target has no rounding instruction). NaN clamps to
    /// NaN and casts to 0 — an empty range, never a panic.
    #[inline]
    fn floor_bin(t: f64, n: usize) -> usize {
        t.clamp(0.0, n as f64) as usize
    }

    /// `⌈t⌉` clamped into `[0, n]`: the truncated clamp plus one exactly
    /// when it dropped a fraction (never past `n`, an integer).
    #[inline]
    fn ceil_bin(t: f64, n: usize) -> usize {
        let c = t.clamp(0.0, n as f64);
        let i = c as usize;
        i + usize::from((i as f64) < c)
    }

    #[inline]
    fn range_x(&self, xl: f64, xh: f64) -> (usize, usize) {
        let lo = Self::floor_bin((xl - self.region.xl) / self.bin_w, self.nx);
        let hi = Self::ceil_bin((xh - self.region.xl) / self.bin_w, self.nx);
        (lo, hi)
    }

    #[inline]
    fn range_y(&self, yl: f64, yh: f64) -> (usize, usize) {
        let lo = Self::floor_bin((yl - self.region.yl) / self.bin_h, self.ny);
        let hi = Self::ceil_bin((yh - self.region.yl) / self.bin_h, self.ny);
        (lo, hi)
    }

    /// The object's size after small-cell inflation to `√2 ×` the bin.
    #[inline]
    fn smoothed_size(&self, obj: &DensityObject) -> (f64, f64) {
        (
            obj.size.width.max(SMOOTH_FACTOR * self.bin_w),
            obj.size.height.max(SMOOTH_FACTOR * self.bin_h),
        )
    }

    #[inline]
    fn smoothed_footprint(&self, obj: &DensityObject, p: Point) -> (Rect, f64) {
        let (w, h) = self.smoothed_size(obj);
        let scale = (obj.size.width / w) * (obj.size.height / h) * obj.density_scale;
        let center =
            self.region
                .clamp_center(p, w.min(self.region.width()), h.min(self.region.height()));
        (Rect::from_center(center, w, h), scale)
    }

    /// Width slots a `w × h` footprint needs wherever it lands. An interval
    /// of length `w` touches at most `⌈w/bin_w⌉ + 1` bins, one more absorbs
    /// rounding in the bin coordinates, and `⌊w/bin_w⌋ + 3` covers both
    /// (a rounded quotient never drops below an integer the exact one
    /// reaches). No axis exceeds the grid.
    #[inline]
    fn slot_len(&self, w: f64, h: f64) -> usize {
        let cols = ((w / self.bin_w) as usize).saturating_add(3).min(self.nx);
        let rows = ((h / self.bin_h) as usize).saturating_add(3).min(self.ny);
        cols + rows
    }
}

/// One footprint on the bin grid: the bins it touches and its overlap with
/// each. Deposit, usage and field sampling multiply the same
/// `ox·oy·scale` products from it instead of recomputing bin ranges and
/// overlaps. The overlap widths live in a separate slot: `cols`
/// x-overlaps, then `rows` y-overlaps.
#[derive(Debug, Clone, Copy, Default)]
struct Stencil {
    ix0: usize,
    iy0: usize,
    cols: usize,
    rows: usize,
    scale: f64,
    /// Where the stencil's width slot starts in [`Stencils::widths`].
    off: usize,
    /// Slot capacity, from the object's size alone.
    cap: usize,
}

impl Stencil {
    /// Points the stencil at `rect` clipped to the region, with density
    /// `scale`, writing its overlap widths into `slot`.
    #[inline]
    fn fill(&mut self, bins: &Bins, rect: Rect, scale: f64, slot: &mut [f64]) {
        self.scale = scale;
        let Some(clip) = rect.intersection(&bins.region) else {
            self.cols = 0;
            self.rows = 0;
            return;
        };
        let (ix0, ix1) = bins.range_x(clip.xl, clip.xh);
        let (iy0, iy1) = bins.range_y(clip.yl, clip.yh);
        self.ix0 = ix0;
        self.iy0 = iy0;
        self.cols = ix1.saturating_sub(ix0);
        self.rows = iy1.saturating_sub(iy0);
        let (ox, oy) = slot[..self.cols + self.rows].split_at_mut(self.cols);
        for (o, ix) in ox.iter_mut().zip(ix0..) {
            let (lo, hi) = bins.span_x(ix);
            *o = overlap_1d(clip.xl, clip.xh, lo, hi);
        }
        for (o, iy) in oy.iter_mut().zip(iy0..) {
            let (lo, hi) = bins.span_y(iy);
            *o = overlap_1d(clip.yl, clip.yh, lo, hi);
        }
    }

    /// Adds `ox·oy·scale` to every bin of `map` the stencil touches.
    #[inline]
    fn scatter(&self, nx: usize, slot: &[f64], map: &mut [f64]) {
        let (ox, oy) = slot[..self.cols + self.rows].split_at(self.cols);
        for (r, &oyv) in oy.iter().enumerate() {
            let start = (self.iy0 + r) * nx + self.ix0;
            for (m, &oxv) in map[start..start + self.cols].iter_mut().zip(ox) {
                *m += oxv * oyv * self.scale;
            }
        }
    }

    /// `Σ_b ox·oy·scale·map_b` over the stencil for each of `maps`, every
    /// sum taken in row-major bin order.
    #[inline]
    fn gather<const N: usize>(&self, nx: usize, slot: &[f64], maps: [&[f64]; N]) -> [f64; N] {
        let (ox, oy) = slot[..self.cols + self.rows].split_at(self.cols);
        let mut acc = [0.0; N];
        for (r, &oyv) in oy.iter().enumerate() {
            let start = (self.iy0 + r) * nx + self.ix0;
            let rows = maps.map(|m| &m[start..start + self.cols]);
            for (j, &oxv) in ox.iter().enumerate() {
                let o = oxv * oyv * self.scale;
                for (a, row) in acc.iter_mut().zip(&rows) {
                    *a += o * row[j];
                }
            }
        }
        acc
    }
}

/// The charge stencils of the last deposit, one per object, with their
/// overlap widths in one buffer at fixed per-object slots.
#[derive(Debug, Clone, Default)]
struct Stencils {
    stencils: Vec<Stencil>,
    widths: Vec<f64>,
}

impl Stencils {
    /// Fixes every object's width slot from its size and the bin size
    /// alone, growing the buffer if the slots need more room. Positions
    /// never enter, so no later deposit of the same objects grows it, and
    /// every chunk of a parallel deposit knows where its slots start.
    fn layout(&mut self, bins: &Bins, objects: &[DensityObject]) {
        self.stencils.resize(objects.len(), Stencil::default());
        let mut off = 0;
        for (st, obj) in self.stencils.iter_mut().zip(objects) {
            let (w, h) = bins.smoothed_size(obj);
            st.off = off;
            st.cap = bins.slot_len(w, h);
            off += st.cap;
        }
        if self.widths.len() < off {
            self.widths.resize(off, 0.0);
        }
    }

    /// Every stencil and slot as one run.
    fn all(&mut self) -> StencilRun<'_> {
        StencilRun {
            stencils: &mut self.stencils,
            widths: &mut self.widths,
            base: 0,
        }
    }

    /// The runs of the `chunks` deterministic deposit chunks.
    fn chunk_runs(&mut self, chunks: usize) -> impl Iterator<Item = StencilRun<'_>> {
        let len = self.stencils.len();
        let mut stencils = &mut self.stencils[..];
        let mut widths = &mut self.widths[..];
        let mut base = 0;
        (0..chunks).map(move |i| {
            let (head, tail) =
                std::mem::take(&mut stencils).split_at_mut(chunk_range(len, chunks, i).len());
            let end = tail.first().map_or(base + widths.len(), |s| s.off);
            let (slots, rest) = std::mem::take(&mut widths).split_at_mut(end - base);
            let run = StencilRun {
                stencils: head,
                widths: slots,
                base,
            };
            (stencils, widths, base) = (tail, rest, end);
            run
        })
    }

    #[inline]
    fn slot(&self, st: &Stencil) -> &[f64] {
        &self.widths[st.off..st.off + st.cap]
    }
}

/// The stencils of a run of consecutive objects and their width slots,
/// which start at `base` in [`Stencils::widths`].
struct StencilRun<'a> {
    stencils: &'a mut [Stencil],
    widths: &'a mut [f64],
    base: usize,
}

/// Deposits a run of objects: builds each object's charge stencil in its
/// slot and scatters it into `charge`; scatters each overflow-counting
/// object's real footprint into `usage` through a stencil in `scratch`,
/// which no later pass reads. Returns the run's overflow-counting charge.
fn deposit_run(
    bins: &Bins,
    objects: &[DensityObject],
    pos: &[Point],
    run: &mut StencilRun<'_>,
    charge: &mut [f64],
    usage: &mut [f64],
    scratch: &mut [f64],
) -> f64 {
    let mut area = 0.0;
    for ((obj, &p), st) in objects.iter().zip(pos).zip(run.stencils.iter_mut()) {
        let (rect, scale) = bins.smoothed_footprint(obj, p);
        let slot = &mut run.widths[st.off - run.base..][..st.cap];
        st.fill(bins, rect, scale, slot);
        st.scatter(bins.nx, slot, charge);
        if obj.counts_in_overflow {
            area += obj.charge();
            let real = Rect::from_center(p, obj.size.width, obj.size.height);
            let mut usage_st = Stencil::default();
            usage_st.fill(bins, real, obj.density_scale, scratch);
            usage_st.scatter(bins.nx, scratch, usage);
        }
    }
    area
}

/// Reusable per-chunk accumulators for the parallel deposit sweep. Kept in a
/// pool on the grid so steady-state deposits allocate nothing; each chunk
/// resets its scratch before accumulating, which reproduces the historical
/// fresh-`vec![0.0]` contents bit for bit.
#[derive(Debug, Clone)]
struct DepositScratch {
    charge: Vec<f64>,
    usage: Vec<f64>,
    /// Width slot for the chunk's usage stencils.
    slot: Vec<f64>,
    area: f64,
}

impl DepositScratch {
    fn new(bins: &Bins) -> Self {
        DepositScratch {
            charge: vec![0.0; bins.nx * bins.ny],
            usage: vec![0.0; bins.nx * bins.ny],
            slot: vec![0.0; bins.nx + bins.ny],
            area: 0.0,
        }
    }

    fn reset(&mut self) {
        self.charge.iter_mut().for_each(|v| *v = 0.0);
        self.usage.iter_mut().for_each(|v| *v = 0.0);
        self.area = 0.0;
    }
}

/// The electrostatic bin grid: charge accumulation, spectral Poisson solve,
/// and per-object energy/gradient sampling.
///
/// Lifecycle per optimizer iteration:
///
/// 1. [`DensityGrid::deposit`] with the current positions — it builds and
///    keeps one charge stencil (bin ranges, overlap widths, scale) per
///    object;
/// 2. [`DensityGrid::solve`] for the field maps ξx, ξy;
/// 3. [`DensityGrid::deposited_gradient`] per deposited object, sampled
///    through its stencil, and [`DensityGrid::overflow`] for the stopping
///    criterion.
///
/// The potential ψ is synthesized only when asked for
/// ([`DensityGrid::potential_map`], [`DensityGrid::energy`],
/// [`DensityGrid::total_energy`]): the Nesterov loop never evaluates the
/// objective. [`DensityGrid::gradient`] samples an arbitrary object and
/// position through a stencil built on the spot.
///
/// See the crate docs for the math. All buffers are preallocated; the only
/// per-iteration cost is the deposit sweep, three 2-D transforms and the
/// field sampling.
#[derive(Debug, Clone)]
pub struct DensityGrid {
    bins: Bins,
    target_density: f64,
    /// Blockage area from fixed objects per bin (consumes overflow
    /// capacity; physical area units).
    fixed: Vec<f64>,
    /// ρ_t-scaled charge of fixed objects (what enters the potential).
    fixed_charge: Vec<f64>,
    /// Work buffer: total charge per bin for the current iteration.
    charge: Vec<f64>,
    /// Raw (uninflated) area of overflow-counting movables per bin.
    usage: Vec<f64>,
    /// The last deposit's charge stencils.
    stencils: Stencils,
    /// Width slot for footprints the grid does not keep: serial-deposit
    /// usage footprints and fixed blocks.
    slot: Vec<f64>,
    /// Potential ψ per bin (bin-index space units); stale while
    /// `psi_pending`.
    potential: Vec<f64>,
    /// `true` when the last solve has not synthesized ψ yet.
    psi_pending: bool,
    /// ∂ψ/∂x per bin, in physical (layout-unit) space.
    field_x: Vec<f64>,
    /// ∂ψ/∂y per bin, in physical space.
    field_y: Vec<f64>,
    /// Analysis transform, the ξx/ξy syntheses, and the on-demand ψ
    /// synthesis.
    transform: Transform2d,
    /// DCT coefficients of ρ from the last solve (ψ's synthesis input).
    coeff: Vec<f64>,
    /// Laplacian eigenfrequencies in bin-index space, `w_u = πu/nx`, and
    /// their squares — hoisted out of [`DensityGrid::solve`] so the
    /// coefficient-prep loop does table lookups instead of per-bin
    /// trigonometry-free but division-heavy recomputation. The tables hold
    /// the exact expressions the loop used to evaluate inline, so the solve
    /// stays bit-identical.
    wx_tab: Vec<f64>,
    wy_tab: Vec<f64>,
    wx2_tab: Vec<f64>,
    wy2_tab: Vec<f64>,
    /// Scratch pool for the chunked parallel deposit (empty until the first
    /// parallel deposit; at most `DEPOSIT_MAX_CHUNKS` entries).
    deposit_pool: Vec<DepositScratch>,
    /// Σ of overflow-counting movable area at the last deposit.
    movable_area: f64,
    solved: bool,
    /// Execution policy for the deposit sweep and the spectral solve.
    exec: ExecConfig,
    /// Observability recorder (disabled by default — zero overhead).
    obs: Obs,
}

impl DensityGrid {
    /// Creates a grid of `nx × ny` bins over `region` with density target
    /// `target_density` (`ρ_t`).
    ///
    /// # Panics
    ///
    /// Panics if the region is degenerate, a dimension is not a power of
    /// two, or `target_density` is not in `(0, 1]`.
    pub fn new(region: Rect, nx: usize, ny: usize, target_density: f64) -> Self {
        assert!(region.is_valid(), "degenerate placement region");
        assert!(
            target_density > 0.0 && target_density <= 1.0,
            "target density must be in (0, 1], got {target_density}"
        );
        let cells = nx * ny;
        let wx_tab: Vec<f64> = (0..nx).map(|u| PI * u as f64 / nx as f64).collect();
        let wy_tab: Vec<f64> = (0..ny).map(|v| PI * v as f64 / ny as f64).collect();
        let wx2_tab: Vec<f64> = wx_tab.iter().map(|w| w * w).collect();
        let wy2_tab: Vec<f64> = wy_tab.iter().map(|w| w * w).collect();
        DensityGrid {
            bins: Bins {
                region,
                nx,
                ny,
                bin_w: region.width() / nx as f64,
                bin_h: region.height() / ny as f64,
            },
            target_density,
            fixed: vec![0.0; cells],
            fixed_charge: vec![0.0; cells],
            charge: vec![0.0; cells],
            usage: vec![0.0; cells],
            stencils: Stencils::default(),
            slot: vec![0.0; nx + ny],
            potential: vec![0.0; cells],
            psi_pending: false,
            field_x: vec![0.0; cells],
            field_y: vec![0.0; cells],
            transform: Transform2d::new(nx, ny).unwrap_or_else(|e| panic!("{e}")),
            coeff: vec![0.0; cells],
            wx_tab,
            wy_tab,
            wx2_tab,
            wy2_tab,
            deposit_pool: Vec::new(),
            movable_area: 0.0,
            solved: false,
            exec: ExecConfig::serial(),
            obs: Obs::disabled(),
        }
    }

    /// Sets the execution policy. Serial (the default) reproduces the
    /// historical single-threaded results bit for bit; any parallel setting
    /// produces one deterministic result regardless of the thread count,
    /// because work is chunked by data size only and partial sums are merged
    /// in chunk order. The policy propagates to the spectral transforms.
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.exec = exec;
        self.transform.set_exec(exec);
    }

    /// Builder-style [`DensityGrid::set_exec`].
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.set_exec(exec);
        self
    }

    /// Selects the spectral engine for the solver transforms.
    /// [`SpectralEngine::V1`] (the default) reproduces the historical
    /// results bit for bit; [`SpectralEngine::V2`] runs the symmetry-halved
    /// mixed-radix kernels — same mathematics, different (faster) rounding
    /// order, still bitwise invariant across thread counts.
    pub fn set_engine(&mut self, engine: SpectralEngine) {
        self.transform.set_engine(engine);
    }

    /// Builder-style [`DensityGrid::set_engine`].
    pub fn with_engine(mut self, engine: SpectralEngine) -> Self {
        self.set_engine(engine);
        self
    }

    /// Sets the observability recorder: deposits record a `density_deposit`
    /// span, solves a `density_solve` span (which times the solve's
    /// transforms too) and the `density_solves` counter. The recorder never
    /// feeds back into the numerics, so results are bit-identical either
    /// way.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The current execution policy.
    #[inline]
    pub fn exec(&self) -> ExecConfig {
        self.exec
    }

    /// Grid width in bins.
    #[inline]
    pub fn nx(&self) -> usize {
        self.bins.nx
    }

    /// Grid height in bins.
    #[inline]
    pub fn ny(&self) -> usize {
        self.bins.ny
    }

    /// Physical bin width (drives the γ schedule).
    #[inline]
    pub fn bin_width(&self) -> f64 {
        self.bins.bin_w
    }

    /// Physical bin height.
    #[inline]
    pub fn bin_height(&self) -> f64 {
        self.bins.bin_h
    }

    /// The placement region the grid covers.
    #[inline]
    pub fn region(&self) -> Rect {
        self.bins.region
    }

    /// The density upper bound ρ_t.
    #[inline]
    pub fn target_density(&self) -> f64 {
        self.target_density
    }

    /// Registers a fixed object's outline. Fixed charge participates in the
    /// potential (the density function is "generalized without special
    /// handling of fixed blocks", §IV) and consumes bin capacity for the
    /// overflow metric. Call before the first [`DensityGrid::deposit`].
    ///
    /// The *charge* of a fixed block is scaled by ρ_t (its blockage area for
    /// the overflow capacity is not): with ρ_t < 1 the electrostatic
    /// equilibrium is a uniform total density, and unscaled blockages (local
    /// density 1) would make that equilibrium exceed ρ_t in the free area —
    /// λ then diverges without the overflow ever reaching the target. With
    /// the scaling, the feasible equilibrium is exactly ρ_t everywhere.
    pub fn add_fixed(&mut self, rect: Rect) {
        // Fixed blocks are deposited exactly (no inflation): they are
        // typically much larger than a bin.
        let mut st = Stencil::default();
        st.fill(&self.bins, rect, 1.0, &mut self.slot);
        st.scatter(self.bins.nx, &self.slot, &mut self.fixed);
        st.scale = self.target_density;
        st.scatter(self.bins.nx, &self.slot, &mut self.fixed_charge);
    }

    /// Removes all registered fixed charge.
    pub fn clear_fixed(&mut self) {
        self.fixed.iter_mut().for_each(|v| *v = 0.0);
        self.fixed_charge.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Deposits the movable objects at positions `pos` (parallel slices).
    /// Objects are clamped to the region; small objects are inflated to
    /// `√2 ×` the bin dimension with scaled density (charge preserved).
    /// Each object's charge stencil is kept for
    /// [`DensityGrid::deposited_gradient`] until the next deposit.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn deposit(&mut self, objects: &[DensityObject], pos: &[Point]) {
        assert_eq!(
            objects.len(),
            pos.len(),
            "objects/positions length mismatch"
        );
        let _span = self.obs.span("density_deposit");
        self.stencils.layout(&self.bins, objects);
        if self.exec.is_serial() || objects.len() < DEPOSIT_MIN_CHUNK {
            self.deposit_serial(objects, pos);
        } else {
            self.deposit_parallel(objects, pos);
        }
        self.solved = false;
    }

    /// The historical single-threaded sweep: accumulation order is the object
    /// order, so results are bit-identical to every prior release.
    fn deposit_serial(&mut self, objects: &[DensityObject], pos: &[Point]) {
        self.charge.copy_from_slice(&self.fixed_charge);
        self.usage.iter_mut().for_each(|v| *v = 0.0);
        self.movable_area = deposit_run(
            &self.bins,
            objects,
            pos,
            &mut self.stencils.all(),
            &mut self.charge,
            &mut self.usage,
            &mut self.slot,
        );
    }

    /// Chunked parallel sweep. Each chunk builds the stencils of its own
    /// objects in their fixed slots and accumulates into its own pair of
    /// grid buffers (never into shared bins — no atomic floats anywhere);
    /// the partial grids are then merged *in chunk order*, so the result is
    /// one fixed floating-point association for a given object count, no
    /// matter how many threads executed the chunks. Chunk accumulators come
    /// from a pool owned by the grid and are reused across deposits.
    fn deposit_parallel(&mut self, objects: &[DensityObject], pos: &[Point]) {
        let bins = self.bins;
        let chunks = deterministic_chunks(objects.len(), DEPOSIT_MIN_CHUNK, DEPOSIT_MAX_CHUNKS);
        if self.deposit_pool.len() < chunks {
            self.deposit_pool
                .resize_with(chunks, || DepositScratch::new(&bins));
        }
        let mut states: Vec<_> = self
            .stencils
            .chunk_runs(chunks)
            .zip(&mut self.deposit_pool)
            .collect();
        for_each_chunk(&self.exec, &mut states, |i, (run, scratch)| {
            let range = chunk_range(objects.len(), chunks, i);
            scratch.reset();
            scratch.area = deposit_run(
                &bins,
                &objects[range.clone()],
                &pos[range],
                run,
                &mut scratch.charge,
                &mut scratch.usage,
                &mut scratch.slot,
            );
        });
        self.charge.copy_from_slice(&self.fixed_charge);
        self.usage.iter_mut().for_each(|v| *v = 0.0);
        self.movable_area = 0.0;
        for scratch in &self.deposit_pool[..chunks] {
            for (dst, src) in self.charge.iter_mut().zip(&scratch.charge) {
                *dst += *src;
            }
            for (dst, src) in self.usage.iter_mut().zip(&scratch.usage) {
                *dst += *src;
            }
            self.movable_area += scratch.area;
        }
    }

    /// The inflated footprint and density scale used when depositing `obj`
    /// centered at `p` (public so the optimizer can reuse the exact stencil
    /// for gradient sampling tests).
    pub fn smoothed_footprint(&self, obj: &DensityObject, p: Point) -> (Rect, f64) {
        self.bins.smoothed_footprint(obj, p)
    }

    /// Solves the Poisson equation for the charge deposited by the last
    /// [`DensityGrid::deposit`], producing the field maps. The potential ψ
    /// is left to the first [`DensityGrid::potential_map`],
    /// [`DensityGrid::energy`] or [`DensityGrid::total_energy`] call.
    ///
    /// # Panics
    ///
    /// Panics if called before any deposit.
    pub fn solve(&mut self) {
        let _span = self.obs.span("density_solve");
        self.obs.add("density_solves", 1);
        let bin_area = self.bins.bin_w * self.bins.bin_h;
        // ρ per bin (dimensionless utilization); analysis transform.
        for (c, rho) in self.charge.iter().zip(self.coeff.iter_mut()) {
            *rho = *c / bin_area;
        }
        self.transform.dct2(&mut self.coeff);

        // Field coefficients: ψ's coefficient times the w factor from
        // differentiation. Inverse Laplacian eigenvalues in bin-index space,
        // w_u = πu/nx, come from the tables hoisted into the constructor.
        let (nx, ny) = (self.bins.nx, self.bins.ny);
        for v in 0..ny {
            let wyv = self.wy_tab[v];
            let wy2v = self.wy2_tab[v];
            let row = v * nx;
            for u in 0..nx {
                let idx = row + u;
                let c = psi_coeff(self.coeff[idx], self.wx2_tab[u] + wy2v);
                self.field_x[idx] = c * self.wx_tab[u];
                self.field_y[idx] = c * wyv;
            }
        }

        // Exact-inverse normalization and unit conversion constants
        // (fields become physical ∂ψ/∂x, ∂ψ/∂y; the sine synthesis carries
        // a −1 from differentiating the cosine basis). Each synthesis fuses
        // its elementwise scale into the final transform store.
        let inv_norm = self.inv_norm();
        let scale_x = -inv_norm / self.bins.bin_w;
        let scale_y = -inv_norm / self.bins.bin_h;
        self.transform.dst3_x_scaled(&mut self.field_x, scale_x);
        self.transform.dst3_y_scaled(&mut self.field_y, scale_y);
        self.solved = true;
        self.psi_pending = true;
    }

    /// The exact-inverse normalization `4/(nx·ny)` of the syntheses.
    fn inv_norm(&self) -> f64 {
        4.0 / (self.bins.nx as f64 * self.bins.ny as f64)
    }

    /// Synthesizes ψ from the last solve's DCT coefficients unless already
    /// done. ψ depends only on those coefficients and the plan, so its bits
    /// do not depend on when it is made.
    fn synthesize_potential(&mut self) {
        if !self.psi_pending {
            return;
        }
        let nx = self.bins.nx;
        for (v, row) in self.potential.chunks_exact_mut(nx).enumerate() {
            let wy2v = self.wy2_tab[v];
            for (u, psi) in row.iter_mut().enumerate() {
                *psi = psi_coeff(self.coeff[v * nx + u], self.wx2_tab[u] + wy2v);
            }
        }
        let inv_norm = self.inv_norm();
        self.transform.dct3_scaled(&mut self.potential, inv_norm);
        self.psi_pending = false;
    }

    /// Density gradient `∂N/∂(x_i, y_i) = 2·q_i·(∂ψ/∂x, ∂ψ/∂y)` (paper
    /// Eq. 8) of the `k`-th object of the last deposit, sampled through the
    /// stencil the deposit built — the gradient the optimizer uses.
    ///
    /// # Panics
    ///
    /// Panics if [`DensityGrid::solve`] has not run since the last deposit,
    /// or if `k` is not an index into the deposited objects.
    #[inline]
    pub fn deposited_gradient(&self, k: usize) -> Point {
        assert!(self.solved, "gradient requested before solve");
        let st = &self.stencils.stencils[k];
        let [gx, gy] = st.gather(
            self.bins.nx,
            self.stencils.slot(st),
            [&self.field_x, &self.field_y],
        );
        Point::new(2.0 * gx, 2.0 * gy)
    }

    /// Density gradient of `obj` at `p`, sampled over the footprint it
    /// would deposit there (paper Eq. 8). For an object of the last deposit
    /// at its deposited position this equals
    /// [`DensityGrid::deposited_gradient`] bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if [`DensityGrid::solve`] has not run since the last deposit.
    pub fn gradient(&self, obj: &DensityObject, p: Point) -> Point {
        assert!(self.solved, "gradient requested before solve");
        let [gx, gy] = self.sample_at(obj, p, [&self.field_x, &self.field_y]);
        Point::new(2.0 * gx, 2.0 * gy)
    }

    /// Potential energy `N_i = q_i·ψ_i` of one object (paper Eq. 5).
    /// Synthesizes ψ on the first call after a solve.
    ///
    /// # Panics
    ///
    /// Panics if [`DensityGrid::solve`] has not run since the last deposit.
    pub fn energy(&mut self, obj: &DensityObject, p: Point) -> f64 {
        assert!(self.solved, "energy requested before solve");
        self.synthesize_potential();
        let [e] = self.sample_at(obj, p, [&self.potential]);
        e
    }

    /// Total system energy `N(v) = Σ_b charge_b·ψ_b` — one pass over bins.
    /// Synthesizes ψ on the first call after a solve.
    ///
    /// # Panics
    ///
    /// Panics if [`DensityGrid::solve`] has not run since the last deposit.
    pub fn total_energy(&mut self) -> f64 {
        assert!(self.solved, "energy requested before solve");
        self.synthesize_potential();
        // Charge (physical area) × potential — consistent with the
        // per-object sampling of [`DensityGrid::energy`] and with the
        // gradient, so N(v) and ∂N/∂v describe the same function.
        self.charge
            .iter()
            .zip(&self.potential)
            .map(|(c, psi)| c * psi)
            .sum()
    }

    /// Samples `maps` over the footprint `obj` would deposit at `p`,
    /// through a stencil built on the spot.
    fn sample_at<const N: usize>(
        &self,
        obj: &DensityObject,
        p: Point,
        maps: [&[f64]; N],
    ) -> [f64; N] {
        let (rect, scale) = self.bins.smoothed_footprint(obj, p);
        let (w, h) = self.bins.smoothed_size(obj);
        let cap = self.bins.slot_len(w, h);
        let mut inline = [0.0; INLINE_SLOT];
        let mut heap = Vec::new();
        let slot = if cap <= INLINE_SLOT {
            &mut inline[..cap]
        } else {
            heap.resize(cap, 0.0);
            &mut heap[..]
        };
        let mut st = Stencil::default();
        st.fill(&self.bins, rect, scale, slot);
        st.gather(self.bins.nx, slot, maps)
    }

    /// Density overflow `τ`: the fraction of movable area sitting above the
    /// per-bin capacity `ρ_t·(bin − fixed)`, i.e.
    /// `Σ_b max(0, usage_b − ρ_t·free_b) / Σ movable area`. Fillers are
    /// excluded. This is the mGP stopping criterion (`τ ≤ 10 %`).
    pub fn overflow(&self) -> f64 {
        if self.movable_area <= 0.0 {
            return 0.0;
        }
        let bin_area = self.bins.bin_w * self.bins.bin_h;
        let mut over = 0.0;
        for (u, f) in self.usage.iter().zip(&self.fixed) {
            let free = (bin_area - f).max(0.0);
            over += (u - self.target_density * free).max(0.0);
        }
        over / self.movable_area
    }

    /// Bin-based object overlap area: `Σ_b max(0, usage_b − free_b)` with
    /// `free_b = bin − fixed` — the amount of real movable area that
    /// physically cannot fit where it sits. This is the overlap series `O`
    /// plotted in the paper's Figures 2/3/6.
    pub fn overfill_area(&self) -> f64 {
        let bin_area = self.bins.bin_w * self.bins.bin_h;
        self.usage
            .iter()
            .zip(&self.fixed)
            .map(|(u, f)| (u - (bin_area - f).max(0.0)).max(0.0))
            .sum()
    }

    /// Per-bin utilization (`usage / free capacity`) map, row-major — used by
    /// the visualization example and the ISPD-2006 scaled-HPWL scorer.
    pub fn utilization_map(&self) -> Vec<f64> {
        let bin_area = self.bins.bin_w * self.bins.bin_h;
        self.usage
            .iter()
            .zip(&self.fixed)
            .map(|(u, f)| {
                let free = (bin_area - f).max(1e-12);
                u / free
            })
            .collect()
    }

    /// The potential map ψ (row-major), for inspection/visualization.
    /// Synthesizes ψ on the first call after a solve.
    pub fn potential_map(&mut self) -> &[f64] {
        self.synthesize_potential();
        &self.potential
    }

    /// The field maps (∂ψ/∂x, ∂ψ/∂y), row-major.
    pub fn field_maps(&self) -> (&[f64], &[f64]) {
        (&self.field_x, &self.field_y)
    }

    /// Charge per bin (fixed + movable + filler), row-major.
    pub fn charge_map(&self) -> &[f64] {
        &self.charge
    }
}

/// ψ's cosine coefficient from ρ's: `a/(w_u² + w_v²)`, with the `(0, 0)`
/// term dropped — the zero-frequency removal.
#[inline]
fn psi_coeff(a: f64, lambda: f64) -> f64 {
    if lambda > 0.0 {
        a / lambda
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid64() -> DensityGrid {
        DensityGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16, 1.0)
    }

    #[test]
    fn deposit_conserves_charge() {
        let mut g = grid64();
        let objs = vec![
            DensityObject::movable(Size::new(3.0, 5.0)),
            DensityObject::movable(Size::new(10.0, 2.0)),
            DensityObject::filler(Size::new(4.0, 4.0)),
        ];
        let pos = vec![
            Point::new(10.0, 10.0),
            Point::new(40.0, 50.0),
            Point::new(32.0, 32.0),
        ];
        g.deposit(&objs, &pos);
        let total: f64 = g.charge_map().iter().sum();
        let expect: f64 = objs.iter().map(|o| o.charge()).sum();
        assert!((total - expect).abs() < 1e-9);
    }

    #[test]
    fn small_cell_inflation_preserves_charge() {
        let mut g = grid64(); // bins are 4x4, so a 1x1 cell is inflated
        let objs = vec![DensityObject::movable(Size::new(1.0, 1.0))];
        g.deposit(&objs, &[Point::new(30.0, 30.0)]);
        let total: f64 = g.charge_map().iter().sum();
        assert!((total - 1.0).abs() < 1e-9);
        // Inflated footprint spreads beyond one bin.
        let occupied = g.charge_map().iter().filter(|&&c| c > 1e-12).count();
        assert!(occupied > 1);
    }

    #[test]
    fn out_of_region_positions_are_clamped() {
        let mut g = grid64();
        let objs = vec![DensityObject::movable(Size::new(6.0, 6.0))];
        g.deposit(&objs, &[Point::new(-100.0, 500.0)]);
        let total: f64 = g.charge_map().iter().sum();
        assert!((total - 36.0).abs() < 1e-9);
    }

    #[test]
    fn potential_has_zero_mean() {
        let mut g = grid64();
        let objs = vec![DensityObject::movable(Size::new(8.0, 8.0))];
        g.deposit(&objs, &[Point::new(20.0, 20.0)]);
        g.solve();
        let mean: f64 = g.potential_map().iter().sum::<f64>() / 256.0;
        assert!(mean.abs() < 1e-9, "zero-frequency removal failed: {mean}");
    }

    #[test]
    fn potential_satisfies_poisson_discretely() {
        // ∇²ψ ≈ −(ρ − ρ̄): compare the spectral solution against a
        // finite-difference Laplacian away from numerical noise.
        let region = Rect::new(0.0, 0.0, 32.0, 32.0);
        let mut g = DensityGrid::new(region, 32, 32, 1.0);
        let objs = vec![DensityObject::movable(Size::new(6.0, 6.0))];
        g.deposit(&objs, &[Point::new(16.0, 16.0)]);
        g.solve();
        let psi = g.potential_map().to_vec();
        let n = 32;
        // Spectral ∇² of the cosine series differs from the 5-point stencil
        // by O(h²) per mode; verify the sign/shape correlation instead of
        // exact equality: the Laplacian should be most negative where the
        // charge is (center), and the correlation with −ρ strongly positive.
        let rho_mean: f64 = g.charge_map().iter().sum::<f64>() / (n * n) as f64;
        let mut dot = 0.0;
        let mut nrm_a = 0.0;
        let mut nrm_b = 0.0;
        for y in 1..n - 1 {
            for x in 1..n - 1 {
                let idx = y * n + x;
                let lap =
                    psi[idx - 1] + psi[idx + 1] + psi[idx - n] + psi[idx + n] - 4.0 * psi[idx];
                let target = -(g.charge_map()[idx] - rho_mean);
                dot += lap * target;
                nrm_a += lap * lap;
                nrm_b += target * target;
            }
        }
        let corr = dot / (nrm_a.sqrt() * nrm_b.sqrt());
        assert!(corr > 0.97, "Poisson residual too large: corr={corr}");
    }

    #[test]
    fn field_pushes_objects_apart() {
        let mut g = grid64();
        let objs = vec![
            DensityObject::movable(Size::new(8.0, 8.0)),
            DensityObject::movable(Size::new(8.0, 8.0)),
        ];
        // Two objects side by side near the center.
        let pos = vec![Point::new(28.0, 32.0), Point::new(36.0, 32.0)];
        g.deposit(&objs, &pos);
        g.solve();
        let g_left = g.gradient(&objs[0], pos[0]);
        let g_right = g.gradient(&objs[1], pos[1]);
        // Descent direction −gradient must separate them.
        assert!(g_left.x > 0.0, "left object should be pushed left");
        assert!(g_right.x < 0.0, "right object should be pushed right");
    }

    #[test]
    fn gradient_scales_with_charge() {
        let mut g = grid64();
        let small = DensityObject::movable(Size::new(4.0, 4.0));
        let big = DensityObject::movable(Size::new(8.0, 8.0));
        let anchor = DensityObject::movable(Size::new(16.0, 16.0));
        let pos = vec![
            Point::new(20.0, 32.0),
            Point::new(20.0, 32.0),
            Point::new(40.0, 32.0),
        ];
        g.deposit(&[small, big, anchor], &pos);
        g.solve();
        let gs = g.gradient(&small, pos[0]).norm();
        let gb = g.gradient(&big, pos[1]).norm();
        assert!(gb > gs, "larger charge must feel a larger force");
    }

    #[test]
    fn equilibrium_has_negligible_field() {
        // A perfectly uniform layout: gradient ≈ 0 everywhere.
        let mut g = grid64();
        let mut objs = Vec::new();
        let mut pos = Vec::new();
        for iy in 0..16 {
            for ix in 0..16 {
                objs.push(DensityObject::movable(Size::new(4.0, 4.0)));
                pos.push(Point::new(2.0 + 4.0 * ix as f64, 2.0 + 4.0 * iy as f64));
            }
        }
        g.deposit(&objs, &pos);
        g.solve();
        // Interior cells (inflated footprints unaffected by the boundary
        // clamp) must feel essentially no force; compare against the force
        // the same cells feel when everything piles onto the center.
        let interior_peak = pos
            .iter()
            .zip(&objs)
            .filter(|(p, _)| p.x > 10.0 && p.x < 54.0 && p.y > 10.0 && p.y < 54.0)
            .map(|(&p, o)| g.gradient(o, p).norm())
            .fold(0.0f64, f64::max);
        let piled = vec![Point::new(32.0, 32.0); objs.len()];
        g.deposit(&objs, &piled);
        g.solve();
        // Probe the force felt just beside the pile (at the pile center it
        // is zero by symmetry).
        let piled_ref = g.gradient(&objs[0], Point::new(40.0, 32.0)).norm();
        assert!(
            interior_peak < 1e-2 * piled_ref,
            "uniform layout should be near equilibrium: interior {interior_peak} vs piled {piled_ref}"
        );
    }

    #[test]
    fn overflow_zero_when_spread_and_one_when_piled() {
        let mut g = grid64();
        let objs: Vec<_> = (0..16)
            .map(|_| DensityObject::movable(Size::new(4.0, 4.0)))
            .collect();
        // Spread: one per bin row.
        let spread: Vec<Point> = (0..16)
            .map(|i| {
                Point::new(
                    2.0 + 4.0 * (i % 16) as f64,
                    2.0 + 4.0 * (i / 16) as f64 * 4.0,
                )
            })
            .collect();
        g.deposit(&objs, &spread);
        assert!(g.overflow() < 1e-9);
        // Piled: all on one spot → nearly everything overflows.
        let piled = vec![Point::new(32.0, 32.0); 16];
        g.deposit(&objs, &piled);
        assert!(g.overflow() > 0.7, "overflow was {}", g.overflow());
    }

    #[test]
    fn fillers_do_not_count_in_overflow() {
        let mut g = grid64();
        let objs = vec![DensityObject::filler(Size::new(16.0, 16.0)); 8];
        let pos = vec![Point::new(32.0, 32.0); 8];
        g.deposit(&objs, &pos);
        assert_eq!(g.overflow(), 0.0);
    }

    #[test]
    fn fixed_charge_reduces_capacity() {
        let mut g = grid64();
        // Fixed macro covers the left half.
        g.add_fixed(Rect::new(0.0, 0.0, 32.0, 64.0));
        let objs = vec![DensityObject::movable(Size::new(8.0, 8.0))];
        let pos = vec![Point::new(16.0, 32.0)]; // on top of the fixed block
        g.deposit(&objs, &pos);
        assert!(g.overflow() > 0.9, "cell atop a blockage must overflow");
        // Same cell in the free half: no overflow.
        g.deposit(&objs, &[Point::new(48.0, 32.0)]);
        assert!(g.overflow() < 1e-9);
    }

    #[test]
    fn fixed_charge_generates_repulsive_field() {
        let mut g = grid64();
        g.add_fixed(Rect::new(24.0, 24.0, 40.0, 40.0));
        let obj = DensityObject::movable(Size::new(4.0, 4.0));
        let pos = Point::new(44.0, 32.0); // just right of the blockage
        g.deposit(&[obj], &[pos]);
        g.solve();
        let grad = g.gradient(&obj, pos);
        assert!(
            grad.x < 0.0,
            "descent must push the cell away from the blockage"
        );
    }

    #[test]
    fn total_energy_decreases_when_spreading() {
        let mut g = grid64();
        let objs: Vec<_> = (0..4)
            .map(|_| DensityObject::movable(Size::new(8.0, 8.0)))
            .collect();
        let piled = vec![Point::new(32.0, 32.0); 4];
        g.deposit(&objs, &piled);
        g.solve();
        let e_piled = g.total_energy();
        let spread = vec![
            Point::new(16.0, 16.0),
            Point::new(48.0, 16.0),
            Point::new(16.0, 48.0),
            Point::new(48.0, 48.0),
        ];
        g.deposit(&objs, &spread);
        g.solve();
        let e_spread = g.total_energy();
        assert!(
            e_spread < e_piled,
            "spreading must reduce energy: {e_spread} !< {e_piled}"
        );
    }

    #[test]
    fn gradient_matches_energy_finite_difference() {
        // ∂N/∂x via the field must match numerically differentiating the
        // total energy. This validates the factor 2 of Eq. (8).
        let region = Rect::new(0.0, 0.0, 64.0, 64.0);
        let objs = vec![
            DensityObject::movable(Size::new(10.0, 10.0)),
            DensityObject::movable(Size::new(12.0, 12.0)),
        ];
        let pos = vec![Point::new(26.0, 30.0), Point::new(38.0, 34.0)];
        let mut g = DensityGrid::new(region, 64, 64, 1.0);
        g.deposit(&objs, &pos);
        g.solve();
        let analytic = g.gradient(&objs[0], pos[0]);

        let total_at = |p0: Point| {
            let mut gg = DensityGrid::new(region, 64, 64, 1.0);
            let pp = vec![p0, pos[1]];
            gg.deposit(&objs, &pp);
            gg.solve();
            // N(v) = Σ_i q_i ψ_i over both objects.
            gg.energy(&objs[0], pp[0]) + gg.energy(&objs[1], pp[1])
        };
        let h = 0.25;
        let fd_x = (total_at(Point::new(pos[0].x + h, pos[0].y))
            - total_at(Point::new(pos[0].x - h, pos[0].y)))
            / (2.0 * h);
        assert!(
            (fd_x - analytic.x).abs() < 0.1 * analytic.x.abs().max(1e-3),
            "fd {fd_x} vs analytic {}",
            analytic.x
        );
    }

    #[test]
    #[should_panic(expected = "before solve")]
    fn gradient_before_solve_panics() {
        let mut g = grid64();
        let obj = DensityObject::movable(Size::new(4.0, 4.0));
        g.deposit(&[obj], &[Point::new(32.0, 32.0)]);
        let _ = g.gradient(&obj, Point::new(32.0, 32.0));
    }

    #[test]
    #[should_panic(expected = "target density")]
    fn bad_target_density_panics() {
        let _ = DensityGrid::new(Rect::new(0.0, 0.0, 1.0, 1.0), 4, 4, 0.0);
    }

    #[test]
    fn bin_ranges_clamp_to_grid_explicitly() {
        let b = grid64().bins; // 16×16 bins over [0,64]²
                               // Interval entirely left of / below the region: empty range at 0.
        assert_eq!(b.range_x(-50.0, -10.0), (0, 0));
        assert_eq!(b.range_y(-3.0, -1.0), (0, 0));
        // Entirely right of / above: empty range pinned at nx/ny.
        assert_eq!(b.range_x(100.0, 200.0), (16, 16));
        assert_eq!(b.range_y(64.0, 80.0), (16, 16));
        // Straddling both edges: the full grid.
        assert_eq!(b.range_x(-10.0, 100.0), (0, 16));
        // Zero-width interval on a bin boundary: empty range (no bin visited).
        assert_eq!(b.range_x(8.0, 8.0), (2, 2));
        // Zero-width interval inside a bin: one bin, whose overlap is zero.
        assert_eq!(b.range_x(9.0, 9.0), (2, 3));
        // Non-finite input degrades to an empty range instead of panicking.
        assert_eq!(b.range_x(f64::NAN, f64::NAN), (0, 0));
    }

    #[test]
    fn zero_area_objects_deposit_nothing() {
        // A zero-width or zero-height object has zero charge; its inflated
        // footprint must deposit exactly zero everywhere (the density scale
        // collapses to 0), not a sliver from the clamped bin range.
        for size in [
            Size::new(0.0, 4.0),
            Size::new(4.0, 0.0),
            Size::new(0.0, 0.0),
        ] {
            let mut g = grid64();
            let obj = DensityObject::movable(size);
            g.deposit(&[obj], &[Point::new(30.0, 30.0)]);
            assert!(
                g.charge_map().iter().all(|&c| c == 0.0),
                "zero-area {size:?} deposited charge"
            );
            assert_eq!(g.overflow(), 0.0);
            g.solve(); // must not panic on an all-zero charge map
            assert!(g.potential_map().iter().all(|p| p.is_finite()));
        }
    }

    #[test]
    fn eigenvalue_tables_match_inline_evaluation() {
        // The hoisted tables must hold exactly the values the solve loop
        // historically computed inline — bitwise.
        let g = DensityGrid::new(Rect::new(0.0, 0.0, 48.0, 96.0), 8, 32, 1.0);
        for u in 0..8 {
            let w = PI * u as f64 / 8.0;
            assert_eq!(g.wx_tab[u].to_bits(), w.to_bits());
            assert_eq!(g.wx2_tab[u].to_bits(), (w * w).to_bits());
        }
        for v in 0..32 {
            let w = PI * v as f64 / 32.0;
            assert_eq!(g.wy_tab[v].to_bits(), w.to_bits());
            assert_eq!(g.wy2_tab[v].to_bits(), (w * w).to_bits());
        }
    }

    #[test]
    fn utilization_map_reflects_usage() {
        let mut g = grid64();
        let objs = vec![DensityObject::movable(Size::new(4.0, 4.0))];
        g.deposit(&objs, &[Point::new(2.0, 2.0)]); // exactly bin (0,0)
        let util = g.utilization_map();
        assert!((util[0] - 1.0).abs() < 1e-9);
        assert!(util[1].abs() < 1e-9);
    }
}

#[cfg(test)]
mod energy_consistency_tests {
    use super::*;

    #[test]
    fn total_energy_matches_object_sum() {
        // N(v) summed per bin must equal Σ_i q_i ψ_i sampled per object
        // when the objects tile the region without clipping.
        let mut g = DensityGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16, 1.0);
        let objs = vec![
            DensityObject::movable(Size::new(12.0, 8.0)),
            DensityObject::movable(Size::new(10.0, 10.0)),
            DensityObject::movable(Size::new(6.0, 14.0)),
        ];
        let pos = vec![
            Point::new(20.0, 20.0),
            Point::new(44.0, 40.0),
            Point::new(30.0, 50.0),
        ];
        g.deposit(&objs, &pos);
        g.solve();
        let per_object: f64 = objs.iter().zip(&pos).map(|(o, &p)| g.energy(o, p)).sum();
        let total = g.total_energy();
        assert!(
            (per_object - total).abs() < 1e-6 * total.abs().max(1.0),
            "per-object {per_object} vs total {total}"
        );
    }
}

#[cfg(test)]
mod parallel_solve_tests {
    use super::*;

    /// With a parallel exec policy, ≥128² grids take the threaded synthesis
    /// path; its results must satisfy the same invariants the serial path
    /// does.
    #[test]
    fn parallel_path_matches_physics() {
        let region = Rect::new(0.0, 0.0, 256.0, 256.0);
        let mut g = DensityGrid::new(region, 128, 128, 1.0).with_exec(ExecConfig::with_threads(3));
        let objs = vec![
            DensityObject::movable(Size::new(24.0, 24.0)),
            DensityObject::movable(Size::new(24.0, 24.0)),
        ];
        // Symmetric about the center so the mutual repulsion dominates the
        // Neumann wall images.
        let pos = vec![Point::new(96.0, 128.0), Point::new(160.0, 128.0)];
        g.deposit(&objs, &pos);
        g.solve();
        // Zero-frequency removal survived the parallel path.
        let mean: f64 = g.potential_map().iter().sum::<f64>() / g.potential_map().len() as f64;
        let peak = g
            .potential_map()
            .iter()
            .map(|v| v.abs())
            .fold(0.0, f64::max);
        assert!(mean.abs() < 1e-9 * peak.max(1.0));
        // Forces still point apart.
        let ga = g.gradient(&objs[0], pos[0]);
        let gb = g.gradient(&objs[1], pos[1]);
        assert!(ga.x > 0.0 && gb.x < 0.0, "{ga} vs {gb}");
        // And match the energy finite difference (the full consistency
        // check, through the threaded path).
        let total_at = |p0: Point| {
            let mut gg = DensityGrid::new(region, 128, 128, 1.0);
            let pp = vec![p0, pos[1]];
            gg.deposit(&objs, &pp);
            gg.solve();
            gg.energy(&objs[0], pp[0]) + gg.energy(&objs[1], pp[1])
        };
        let h = 0.5;
        let fd = (total_at(Point::new(pos[0].x + h, pos[0].y))
            - total_at(Point::new(pos[0].x - h, pos[0].y)))
            / (2.0 * h);
        assert!(
            (fd - ga.x).abs() < 0.1 * ga.x.abs().max(1e-3),
            "fd {fd} vs analytic {}",
            ga.x
        );
    }

    /// The threaded syntheses (and the row/column-parallel transforms under
    /// them) only repartition independent work, so the full solve must be
    /// *bit-identical* to the serial solve.
    #[test]
    fn threaded_solve_is_bitwise_serial() {
        let region = Rect::new(0.0, 0.0, 512.0, 512.0);
        let objs: Vec<DensityObject> = (0..64)
            .map(|i| DensityObject::movable(Size::new(8.0 + (i % 5) as f64, 10.0)))
            .collect();
        let pos: Vec<Point> = (0..64)
            .map(|i| Point::new(37.0 + 6.1 * (i % 13) as f64, 29.0 + 5.3 * (i / 8) as f64))
            .collect();
        let solve = |exec: ExecConfig| {
            let mut g = DensityGrid::new(region, 128, 128, 1.0).with_exec(exec);
            g.deposit(&objs, &pos);
            g.solve();
            g
        };
        let mut serial = solve(ExecConfig::serial());
        for threads in [2, 3, 8] {
            let mut par = solve(ExecConfig::with_threads(threads));
            let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(serial.potential_map()),
                bits(par.potential_map()),
                "{threads}"
            );
            assert_eq!(
                bits(serial.field_maps().0),
                bits(par.field_maps().0),
                "{threads}"
            );
            assert_eq!(
                bits(serial.field_maps().1),
                bits(par.field_maps().1),
                "{threads}"
            );
        }
    }
}

#[cfg(test)]
mod parallel_deposit_tests {
    use super::*;

    /// Enough objects to exceed `DEPOSIT_MIN_CHUNK` and span several chunks.
    fn crowd(n: usize) -> (Vec<DensityObject>, Vec<Point>) {
        let objs = (0..n)
            .map(|i| match i % 3 {
                0 => DensityObject::movable(Size::new(3.0 + (i % 7) as f64, 4.0)),
                1 => DensityObject::filler(Size::new(2.0, 2.0)),
                _ => DensityObject::movable_macro(Size::new(9.0, 6.0), 0.8),
            })
            .collect();
        let pos = (0..n)
            .map(|i| {
                Point::new(
                    1.0 + 0.731 * (i % 173) as f64,
                    1.0 + 0.547 * (i % 229) as f64,
                )
            })
            .collect();
        (objs, pos)
    }

    fn grid128(exec: ExecConfig) -> DensityGrid {
        let mut g =
            DensityGrid::new(Rect::new(0.0, 0.0, 128.0, 128.0), 32, 32, 0.9).with_exec(exec);
        g.add_fixed(Rect::new(40.0, 40.0, 70.0, 60.0));
        g
    }

    /// Chunked accumulation reassociates floating-point sums, so the parallel
    /// deposit is not bitwise serial — but it must agree to rounding noise.
    #[test]
    fn parallel_deposit_matches_serial_within_rounding() {
        let (objs, pos) = crowd(3000);
        let mut serial = grid128(ExecConfig::serial());
        serial.deposit(&objs, &pos);
        let mut par = grid128(ExecConfig::with_threads(4));
        par.deposit(&objs, &pos);
        let peak = serial
            .charge_map()
            .iter()
            .fold(0.0f64, |a, &v| a.max(v.abs()));
        for (a, b) in serial.charge_map().iter().zip(par.charge_map()) {
            assert!((a - b).abs() <= 1e-9 * peak, "{a} vs {b}");
        }
        assert!((serial.overflow() - par.overflow()).abs() < 1e-9);
        serial.solve();
        par.solve();
        let psi_peak = serial
            .potential_map()
            .iter()
            .fold(0.0f64, |a, &v| a.max(v.abs()));
        for (a, b) in serial.potential_map().iter().zip(par.potential_map()) {
            assert!((a - b).abs() <= 1e-9 * psi_peak.max(1.0), "{a} vs {b}");
        }
    }

    /// The chunk layout and merge order depend only on the object count, so
    /// any thread count ≥ 2 must produce bit-identical maps.
    #[test]
    fn parallel_deposit_is_thread_count_invariant() {
        let (objs, pos) = crowd(2600);
        let run = |threads: usize| {
            let mut g = grid128(ExecConfig::with_threads(threads));
            g.deposit(&objs, &pos);
            g
        };
        let two = run(2);
        let two_bits: Vec<u64> = two.charge_map().iter().map(|v| v.to_bits()).collect();
        for threads in [3, 5, 8] {
            let other = run(threads);
            let bits: Vec<u64> = other.charge_map().iter().map(|v| v.to_bits()).collect();
            assert_eq!(two_bits, bits, "threads {threads}");
            assert_eq!(two.overflow().to_bits(), other.overflow().to_bits());
        }
    }

    /// Repeated parallel deposits reuse the pooled chunk accumulators and
    /// still produce bit-identical maps (the reset reproduces fresh-buffer
    /// contents exactly).
    #[test]
    fn repeated_parallel_deposits_reuse_pool_and_stay_bitwise_stable() {
        let (objs, pos) = crowd(3000);
        let mut g = grid128(ExecConfig::with_threads(4));
        g.deposit(&objs, &pos);
        let first: Vec<u64> = g.charge_map().iter().map(|v| v.to_bits()).collect();
        let pool_len = g.deposit_pool.len();
        assert!(pool_len > 0, "parallel deposit should have built a pool");
        g.deposit(&objs, &pos);
        assert_eq!(g.deposit_pool.len(), pool_len, "pool should be reused");
        let second: Vec<u64> = g.charge_map().iter().map(|v| v.to_bits()).collect();
        assert_eq!(first, second);
    }

    /// threads = 1 and small inputs both take the historical serial sweep —
    /// bitwise exact reproduction.
    #[test]
    fn serial_policy_and_small_inputs_are_bitwise_exact() {
        let (objs, pos) = crowd(3000);
        let mut baseline = grid128(ExecConfig::serial());
        baseline.deposit(&objs, &pos);
        let mut one = grid128(ExecConfig::with_threads(1));
        one.deposit(&objs, &pos);
        let bits = |g: &DensityGrid| {
            g.charge_map()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(&baseline), bits(&one));
        // Below the chunking threshold the parallel policy falls back to the
        // serial sweep as well.
        let (small_objs, small_pos) = crowd(200);
        let mut small_serial = grid128(ExecConfig::serial());
        small_serial.deposit(&small_objs, &small_pos);
        let mut small_par = grid128(ExecConfig::with_threads(4));
        small_par.deposit(&small_objs, &small_pos);
        assert_eq!(bits(&small_serial), bits(&small_par));
    }
}

#[cfg(test)]
mod stencil_oracle_tests {
    //! The per-bin loops the stencils replaced, kept as the reference the
    //! stencil code must reproduce bit for bit: every bin range from
    //! `floor`/`ceil`, every overlap recomputed in each pass.

    use super::*;
    use eplace_benchgen::BenchmarkConfig;
    use eplace_netlist::CellKind;
    use eplace_prng::{SeedableRng, StdRng};

    fn clamp_bin(t: f64, n: usize) -> usize {
        t.clamp(0.0, n as f64) as usize
    }

    fn bits(m: &[f64]) -> Vec<u64> {
        m.iter().map(|v| v.to_bits()).collect()
    }

    impl DensityGrid {
        fn oracle_range_x(&self, xl: f64, xh: f64) -> (usize, usize) {
            let b = &self.bins;
            let lo = clamp_bin(((xl - b.region.xl) / b.bin_w).floor(), b.nx);
            let hi = clamp_bin(((xh - b.region.xl) / b.bin_w).ceil(), b.nx);
            (lo, hi)
        }

        fn oracle_range_y(&self, yl: f64, yh: f64) -> (usize, usize) {
            let b = &self.bins;
            let lo = clamp_bin(((yl - b.region.yl) / b.bin_h).floor(), b.ny);
            let hi = clamp_bin(((yh - b.region.yl) / b.bin_h).ceil(), b.ny);
            (lo, hi)
        }

        fn oracle_deposit_into(&self, rect: Rect, scale: f64, map: &mut [f64]) {
            let clipped = match rect.intersection(&self.bins.region) {
                Some(r) => r,
                None => return,
            };
            let (ix0, ix1) = self.oracle_range_x(clipped.xl, clipped.xh);
            let (iy0, iy1) = self.oracle_range_y(clipped.yl, clipped.yh);
            for iy in iy0..iy1 {
                let (byl, byh) = self.bins.span_y(iy);
                let oy = overlap_1d(clipped.yl, clipped.yh, byl, byh);
                for ix in ix0..ix1 {
                    let (bxl, bxh) = self.bins.span_x(ix);
                    let ox = overlap_1d(clipped.xl, clipped.xh, bxl, bxh);
                    map[iy * self.bins.nx + ix] += ox * oy * scale;
                }
            }
        }

        fn oracle_deposit_one_into(&self, obj: &DensityObject, p: Point, charge: &mut [f64]) {
            let (rect, scale) = self.smoothed_footprint(obj, p);
            self.oracle_deposit_into(rect, scale, charge);
        }

        fn oracle_deposit_usage_into(&self, obj: &DensityObject, p: Point, usage: &mut [f64]) {
            let rect = Rect::from_center(p, obj.size.width, obj.size.height);
            self.oracle_deposit_into(rect, obj.density_scale, usage);
        }

        /// `(Σ o_b·ξx_b, Σ o_b·ξy_b, Σ o_b·ψ_b)` over the smoothed
        /// footprint, with ψ passed in.
        fn oracle_sample(&self, obj: &DensityObject, p: Point, psi: &[f64]) -> (f64, f64, f64) {
            let (rect, scale) = self.smoothed_footprint(obj, p);
            let clipped = match rect.intersection(&self.bins.region) {
                Some(r) => r,
                None => return (0.0, 0.0, 0.0),
            };
            let (ix0, ix1) = self.oracle_range_x(clipped.xl, clipped.xh);
            let (iy0, iy1) = self.oracle_range_y(clipped.yl, clipped.yh);
            let (mut gx, mut gy, mut energy) = (0.0, 0.0, 0.0);
            for iy in iy0..iy1 {
                let (byl, byh) = self.bins.span_y(iy);
                let oy = overlap_1d(clipped.yl, clipped.yh, byl, byh);
                for ix in ix0..ix1 {
                    let (bxl, bxh) = self.bins.span_x(ix);
                    let ox = overlap_1d(clipped.xl, clipped.xh, bxl, bxh);
                    let o = ox * oy * scale;
                    let idx = iy * self.bins.nx + ix;
                    gx += o * self.field_x[idx];
                    gy += o * self.field_y[idx];
                    energy += o * psi[idx];
                }
            }
            (gx, gy, energy)
        }

        /// The per-object sweep of `objects[range]` into zeroed maps, as
        /// one serial pass or one parallel chunk ran it.
        fn oracle_sweep(
            &self,
            objects: &[DensityObject],
            pos: &[Point],
            charge: &mut [f64],
            usage: &mut [f64],
        ) -> f64 {
            let mut area = 0.0;
            for (obj, &p) in objects.iter().zip(pos) {
                self.oracle_deposit_one_into(obj, p, charge);
                if obj.counts_in_overflow {
                    area += obj.charge();
                    self.oracle_deposit_usage_into(obj, p, usage);
                }
            }
            area
        }

        /// The old deposit: serial, or chunked and merged in chunk order.
        fn oracle_deposit(&mut self, objects: &[DensityObject], pos: &[Point]) {
            let cells = self.bins.nx * self.bins.ny;
            if self.exec.is_serial() || objects.len() < DEPOSIT_MIN_CHUNK {
                let mut charge = std::mem::take(&mut self.charge);
                let mut usage = std::mem::take(&mut self.usage);
                charge.copy_from_slice(&self.fixed_charge);
                usage.iter_mut().for_each(|v| *v = 0.0);
                self.movable_area = self.oracle_sweep(objects, pos, &mut charge, &mut usage);
                (self.charge, self.usage) = (charge, usage);
            } else {
                let chunks =
                    deterministic_chunks(objects.len(), DEPOSIT_MIN_CHUNK, DEPOSIT_MAX_CHUNKS);
                let mut charge = self.fixed_charge.clone();
                let mut usage = vec![0.0; cells];
                let mut area = 0.0;
                for i in 0..chunks {
                    let r = chunk_range(objects.len(), chunks, i);
                    let (mut c, mut u) = (vec![0.0; cells], vec![0.0; cells]);
                    let a = self.oracle_sweep(&objects[r.clone()], &pos[r], &mut c, &mut u);
                    charge.iter_mut().zip(&c).for_each(|(d, s)| *d += *s);
                    usage.iter_mut().zip(&u).for_each(|(d, s)| *d += *s);
                    area += a;
                }
                self.charge = charge;
                self.usage = usage;
                self.movable_area = area;
            }
            self.solved = false;
        }
    }

    /// A design's movables as density objects (macros at ρ_t, like the
    /// optimizer's problem) plus bin-sized fillers, scattered over and a
    /// little beyond the region so the clamps and clips are exercised.
    fn scene(cfg: BenchmarkConfig, seed: u64) -> (DensityGrid, Vec<DensityObject>, Vec<Point>) {
        let design = cfg.generate();
        let region = design.region;
        let mut grid = DensityGrid::new(region, 32, 32, design.target_density);
        for cell in design.cells.iter().filter(|c| c.fixed) {
            grid.add_fixed(cell.rect());
        }
        let mut objects: Vec<DensityObject> = design
            .cells
            .iter()
            .filter(|c| c.is_movable())
            .map(|c| match c.kind {
                CellKind::Macro => DensityObject::movable_macro(c.size, design.target_density),
                _ => DensityObject::movable(c.size),
            })
            .collect();
        let filler = Size::new(grid.bin_width() * 0.9, grid.bin_height() * 0.7);
        objects.extend((0..objects.len() / 4).map(|_| DensityObject::filler(filler)));
        let mut rng = StdRng::seed_from_u64(seed);
        let mut coord = |lo: f64, span: f64| lo - 0.1 * span + 1.2 * span * rng.next_f64();
        let pos = objects
            .iter()
            .map(|_| {
                Point::new(
                    coord(region.xl, region.width()),
                    coord(region.yl, region.height()),
                )
            })
            .collect();
        (grid, objects, pos)
    }

    /// Deposits through the stencils and through the oracle, then pins the
    /// maps, the overflow and every sampled gradient and energy bitwise.
    fn assert_matches_oracle(
        mut grid: DensityGrid,
        objects: &[DensityObject],
        pos: &[Point],
        what: &str,
    ) {
        let mut oracle = grid.clone();
        grid.deposit(objects, pos);
        oracle.oracle_deposit(objects, pos);
        assert_eq!(bits(&grid.charge), bits(&oracle.charge), "{what}: charge");
        assert_eq!(bits(&grid.usage), bits(&oracle.usage), "{what}: usage");
        assert_eq!(
            grid.overflow().to_bits(),
            oracle.overflow().to_bits(),
            "{what}: overflow"
        );
        grid.solve();
        let psi = grid.potential_map().to_vec();
        for (k, (obj, &p)) in objects.iter().zip(pos).enumerate() {
            let (gx, gy, e) = grid.oracle_sample(obj, p, &psi);
            let want = Point::new(2.0 * gx, 2.0 * gy);
            let got = grid.deposited_gradient(k);
            assert_eq!(
                (got.x.to_bits(), got.y.to_bits()),
                (want.x.to_bits(), want.y.to_bits()),
                "{what}: deposited gradient of object {k}"
            );
            let query = grid.gradient(obj, p);
            assert_eq!(
                (query.x.to_bits(), query.y.to_bits()),
                (want.x.to_bits(), want.y.to_bits()),
                "{what}: gradient query of object {k}"
            );
            assert_eq!(
                grid.energy(obj, p).to_bits(),
                e.to_bits(),
                "{what}: energy of object {k}"
            );
        }
    }

    #[test]
    fn stencils_reproduce_the_per_bin_loops_bitwise() {
        for seed in [1, 2, 3] {
            let designs = [
                (
                    "ispd05_like",
                    BenchmarkConfig::ispd05_like("o", seed).scale(300),
                ),
                (
                    "mms_like",
                    BenchmarkConfig::mms_like("o", seed, 0.8, 6).scale(300),
                ),
                (
                    "peko_like",
                    BenchmarkConfig::peko_like("o", seed).scale(300),
                ),
            ];
            for (name, cfg) in designs {
                let (grid, objects, pos) = scene(cfg, seed);
                assert_matches_oracle(grid, &objects, &pos, &format!("{name} seed {seed}"));
            }
        }
    }

    #[test]
    fn parallel_stencils_reproduce_the_chunked_loops_bitwise() {
        // Enough objects for several deposit chunks: each chunk builds its
        // own stencils in its own slots.
        let (grid, objects, pos) = scene(BenchmarkConfig::mms_like("o", 9, 0.8, 6).scale(2400), 9);
        assert!(objects.len() >= 2 * DEPOSIT_MIN_CHUNK);
        let grid = grid.with_exec(ExecConfig::with_threads(3));
        assert_matches_oracle(grid, &objects, &pos, "mms_like x3 threads");
    }

    #[test]
    fn edge_objects_match_the_oracle() {
        let objects = [
            DensityObject::movable(Size::new(6.0, 6.0)),
            DensityObject::movable_macro(Size::new(100.0, 10.0), 0.9),
            DensityObject::movable(Size::new(30.0, 90.0)),
            DensityObject::movable(Size::new(0.0, 4.0)),
            DensityObject::movable(Size::new(0.0, 0.0)),
            DensityObject::movable(Size::new(3.0, 3.0)),
            DensityObject::filler(Size::new(2.0, 2.0)),
            DensityObject::movable(Size::new(5.0, 5.0)),
        ];
        let pos = [
            // Centre far outside the region.
            Point::new(-100.0, 500.0),
            // Wider than the region.
            Point::new(32.0, 32.0),
            // Taller than the region, centre outside.
            Point::new(70.0, -5.0),
            // Zero area.
            Point::new(30.0, 30.0),
            Point::new(8.0, 8.0),
            // NaN positions: the usage footprint is empty; the charge
            // footprint's centre clamp drops the NaN (`f64::max`), so the
            // charge lands at the region's low corner.
            Point::new(f64::NAN, f64::NAN),
            Point::new(f64::NAN, 10.0),
            // Exactly on bin boundaries.
            Point::new(16.0 + 2.5, 40.0 - 2.5),
        ];
        let mut grid = DensityGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16, 0.9);
        grid.add_fixed(Rect::new(40.0, 40.0, 52.0, 70.0));
        assert_matches_oracle(grid, &objects, &pos, "edge objects");
    }

    #[test]
    fn add_fixed_matches_the_per_bin_loop() {
        let mut grid = DensityGrid::new(Rect::new(0.0, 0.0, 64.0, 64.0), 16, 16, 0.7);
        let mut fixed = vec![0.0; 256];
        let mut fixed_charge = vec![0.0; 256];
        for rect in [
            Rect::new(3.3, 5.1, 27.9, 13.0),
            Rect::new(-10.0, 50.0, 8.0, 90.0),
            Rect::new(20.0, 20.0, 20.0, 30.0),
            Rect::new(100.0, 100.0, 120.0, 120.0),
        ] {
            grid.add_fixed(rect);
            grid.oracle_deposit_into(rect, 1.0, &mut fixed);
            grid.oracle_deposit_into(rect, 0.7, &mut fixed_charge);
        }
        // `ox·oy·1.0` is `ox·oy` exactly, the old blockage-area product.
        assert_eq!(bits(&grid.fixed), bits(&fixed));
        assert_eq!(bits(&grid.fixed_charge), bits(&fixed_charge));
    }

    #[test]
    fn bin_helpers_match_floor_and_ceil() {
        let step = |t: f64, up: bool| {
            let b = t.to_bits();
            f64::from_bits(match (t > 0.0) == up {
                true => b + 1,
                false => b - 1,
            })
        };
        for n in [1usize, 2, 16, 1024] {
            let mut probes = vec![
                0.0,
                -0.0,
                f64::NAN,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::MIN_POSITIVE,
                -f64::MIN_POSITIVE,
                1e300,
                -1e300,
            ];
            for k in -3..=n as i64 + 3 {
                let t = k as f64;
                probes.extend([t, t + 0.5, t - 0.25, t + 1e-9]);
                if t != 0.0 {
                    probes.extend([step(t, true), step(t, false)]);
                }
            }
            for t in probes {
                assert_eq!(
                    Bins::floor_bin(t, n),
                    clamp_bin(t.floor(), n),
                    "floor of {t:e} ({:#x}) at n = {n}",
                    t.to_bits()
                );
                assert_eq!(
                    Bins::ceil_bin(t, n),
                    clamp_bin(t.ceil(), n),
                    "ceil of {t:e} ({:#x}) at n = {n}",
                    t.to_bits()
                );
            }
        }
    }

    #[test]
    fn stencil_slots_never_grow_after_the_first_deposit() {
        // The slot bound depends on sizes only: no position — inside, on a
        // boundary, outside, straddling — makes a stencil outgrow its slot
        // (`fill` would panic), and the buffer keeps its first size.
        let (mut grid, objects, _) = scene(BenchmarkConfig::mms_like("o", 4, 0.8, 6).scale(300), 4);
        let region = grid.region();
        let mut rng = StdRng::seed_from_u64(4);
        let mut first = None;
        for round in 0..40 {
            let pos: Vec<Point> = objects
                .iter()
                .map(|_| {
                    let snap = |lo: f64, span: f64, bin: f64, u: f64| {
                        let t = lo - 0.2 * span + 1.4 * span * u;
                        // Every other round snaps to a bin boundary.
                        if round % 2 == 0 {
                            lo + ((t - lo) / bin).round() * bin
                        } else {
                            t
                        }
                    };
                    Point::new(
                        snap(region.xl, region.width(), grid.bin_width(), rng.next_f64()),
                        snap(
                            region.yl,
                            region.height(),
                            grid.bin_height(),
                            rng.next_f64(),
                        ),
                    )
                })
                .collect();
            grid.deposit(&objects, &pos);
            for st in &grid.stencils.stencils {
                assert!(st.cols + st.rows <= st.cap);
            }
            let size = (grid.stencils.widths.len(), grid.stencils.widths.capacity());
            assert_eq!(*first.get_or_insert(size), size, "round {round}");
        }
    }

    /// ψ synthesized the way the solve once did it, eagerly, on a fresh
    /// serial plan.
    fn eager_potential(grid: &DensityGrid) -> Vec<f64> {
        let (nx, ny) = (grid.nx(), grid.ny());
        let bin_area = grid.bin_width() * grid.bin_height();
        let mut t = Transform2d::new(nx, ny).unwrap();
        let mut a: Vec<f64> = grid.charge_map().iter().map(|c| c / bin_area).collect();
        t.dct2(&mut a);
        for v in 0..ny {
            for u in 0..nx {
                let idx = v * nx + u;
                a[idx] = psi_coeff(a[idx], grid.wx2_tab[u] + grid.wy2_tab[v]);
            }
        }
        t.dct3_scaled(&mut a, 4.0 / (nx as f64 * ny as f64));
        a
    }

    #[test]
    fn lazy_potential_matches_eager_synthesis_bitwise() {
        let (objects, pos): (Vec<_>, Vec<_>) = (0..300)
            .map(|i| {
                (
                    DensityObject::movable(Size::new(3.0 + (i % 5) as f64, 4.0)),
                    Point::new(
                        20.0 + 0.71 * (i % 211) as f64,
                        15.0 + 0.53 * (i % 307) as f64,
                    ),
                )
            })
            .unzip();
        // 128² engages the threaded field syntheses at threads = 3.
        for threads in [1, 3] {
            let region = Rect::new(0.0, 0.0, 256.0, 256.0);
            let fresh = || {
                let mut g = DensityGrid::new(region, 128, 128, 1.0)
                    .with_exec(ExecConfig::with_threads(threads));
                g.deposit(&objects, &pos);
                g.solve();
                g
            };
            let mut g = fresh();
            let eager = eager_potential(&g);
            assert_eq!(bits(g.potential_map()), bits(&eager), "threads {threads}");
            let total: f64 = g.charge_map().iter().zip(&eager).map(|(c, p)| c * p).sum();
            // Energy first on a fresh grid: the synthesis it triggers is the
            // same one.
            let mut g = fresh();
            for (obj, &p) in objects.iter().zip(&pos).take(20) {
                let (_, _, e) = g.oracle_sample(obj, p, &eager);
                assert_eq!(g.energy(obj, p).to_bits(), e.to_bits(), "threads {threads}");
            }
            let mut g = fresh();
            assert_eq!(g.total_energy().to_bits(), total.to_bits());
            assert_eq!(bits(g.potential_map()), bits(&eager));
        }
    }

    #[test]
    #[ignore = "timing; run with --release --ignored --nocapture"]
    fn density_pass_timing_against_reference() {
        // Interleaved arms on identical inputs: 3 seeds × 200 repetitions
        // of one gradient's density pass, p10 and median per kernel. The
        // reference arm is the old pass: per-bin deposit loops, a solve
        // that synthesizes ψ too (here `solve` + the on-demand ψ, which
        // recomputes ψ's coefficients — one division per bin more than the
        // old solve), the total energy, and a per-object sample that
        // recomputes every stencil and accumulates ψ alongside the field.
        let (mut old, mut new) = ([vec![], vec![], vec![]], [vec![], vec![], vec![]]);
        let ms = |t: std::time::Instant| t.elapsed().as_secs_f64() * 1e3;
        for seed in [7, 8, 9] {
            let (grid, objects, pos) =
                scene(BenchmarkConfig::ispd05_like("t", seed).scale(1500), seed);
            let grid = DensityGrid::new(grid.region(), 64, 64, grid.target_density());
            let (mut a, mut b) = (grid.clone(), grid);
            for _ in 0..200 {
                let t = std::time::Instant::now();
                a.oracle_deposit(&objects, &pos);
                old[0].push(ms(t));
                let t = std::time::Instant::now();
                a.solve();
                std::hint::black_box(a.total_energy());
                old[1].push(ms(t));
                let t = std::time::Instant::now();
                let mut sum_old = Point::ORIGIN;
                for (obj, &p) in objects.iter().zip(&pos) {
                    let (gx, gy, e) = a.oracle_sample(obj, p, &a.potential);
                    sum_old += Point::new(2.0 * gx, 2.0 * gy);
                    std::hint::black_box(e);
                }
                old[2].push(ms(t));

                let t = std::time::Instant::now();
                b.deposit(&objects, &pos);
                new[0].push(ms(t));
                let t = std::time::Instant::now();
                b.solve();
                new[1].push(ms(t));
                let t = std::time::Instant::now();
                let mut sum_new = Point::ORIGIN;
                for k in 0..objects.len() {
                    sum_new += b.deposited_gradient(k);
                }
                new[2].push(ms(t));
                assert_eq!(sum_old.x.to_bits(), sum_new.x.to_bits());
                assert_eq!(sum_old.y.to_bits(), sum_new.y.to_bits());
            }
        }
        let stats = |v: &mut Vec<f64>| {
            v.sort_by(f64::total_cmp);
            (v[v.len() / 10], v[v.len() / 2])
        };
        for (i, kernel) in ["deposit", "solve", "sample"].iter().enumerate() {
            let (o10, o50) = stats(&mut old[i]);
            let (n10, n50) = stats(&mut new[i]);
            println!(
                "{kernel:8} reference p10 {o10:.4} ms median {o50:.4} ms | \
                 stencils p10 {n10:.4} ms median {n50:.4} ms | median {:.2}x",
                o50 / n50
            );
        }
    }
}
