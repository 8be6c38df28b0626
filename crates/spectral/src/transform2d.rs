use crate::dct::{DctScratch, Synth};
use crate::lanes::Lines;
use crate::{plan, DctPlan, Pow2, SpectralEngine};
use eplace_errors::EplaceError;
use eplace_exec::{for_each_unit, ExecConfig};

/// Lines per kernel call. Rows transform in groups of `LANES` rows, and
/// columns in groups of `LANES` adjacent columns, so one pass over the
/// shared twiddles serves `LANES` lines and the lane arithmetic runs as
/// vector instructions. 4 measured fastest on both engines against 2 and 8
/// (EXPERIMENTS.md, "Lane groups"). Every lane computes the one-line
/// kernel's arithmetic, so the width never shows in the output bits.
const LANES: usize = 4;

/// Which 1-D kernel a pass applies along an axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kernel {
    Dct2,
    Dct3,
    Dst3,
}

/// Separable two-dimensional cosine/sine transforms over a row-major
/// `nx × ny` grid (`data[iy·nx + ix]`), providing exactly the basis mixes
/// the eDensity Poisson solver needs:
///
/// * analysis [`Transform2d::dct2`] — `cos·cos` coefficients of the density,
/// * synthesis [`Transform2d::dct3`] — potential ψ (`cos·cos`),
/// * synthesis [`Transform2d::dst3_x`] — field ξx (`sin` in x, `cos` in y),
/// * synthesis [`Transform2d::dst3_y`] — field ξy (`cos` in x, `sin` in y).
///
/// The per-axis plans come from a process-wide per-size cache, so
/// constructing a `Transform2d` for an already-seen size costs two cache
/// lookups instead of rebuilding twiddle tables. The object owns all scratch
/// (including the FFT workspace and, for parallel runs, a per-worker scratch
/// pool), so steady-state serial calls are allocation-free; this matters
/// because the placer transforms the grid three times per optimizer
/// iteration.
///
/// Every line runs through the engine's one in-place kernel per transform,
/// four lines per call: groups of rows at stride 1, `nx` apart, and groups
/// of adjacent columns directly at stride `nx`, 1 apart, so each element of
/// a column group is one contiguous load.
/// Each lane performs the one-line kernel's IEEE operations on the same
/// operands in the same order, so every output bit is the one the
/// one-line kernel gives, and the historical gather → transform → scatter
/// gave. An axis with fewer than 4 lines (a 1- or 2-line grid) runs the
/// one-line kernel.
///
/// The synthesis transforms also come in `*_scaled` variants that fuse the
/// caller's elementwise post-scale (the Poisson solver's normalization)
/// into the final store, saving one full-grid pass per synthesis while
/// computing the identical `v·scale` products.
///
/// With [`Transform2d::set_exec`] the row pass, both transposes, and the
/// column pass run through [`eplace_exec::for_each_unit`] on scoped worker
/// threads. Every parallel unit (a lane group of rows or columns, or one
/// transpose line) is written by exactly one worker, so the result is
/// bitwise identical for every thread count, including the serial default.
///
/// [`Transform2d::set_engine`] selects the transform engine: the default
/// [`SpectralEngine::V1`] reproduces historical bits exactly, while
/// [`SpectralEngine::V2`] runs the folded-real half-size mixed-radix kernels
/// (see the crate docs). Both are deterministic and bitwise thread-count
/// invariant.
///
/// # Examples
///
/// ```
/// use eplace_spectral::Transform2d;
///
/// let mut t = Transform2d::new(4, 8).unwrap();
/// let mut grid: Vec<f64> = (0..32).map(|i| (i as f64 * 0.3).sin()).collect();
/// let original = grid.clone();
/// t.dct2(&mut grid);
/// t.dct3(&mut grid);
/// // dct3∘dct2 scales by (nx/2)·(ny/2) = 2·4.
/// for (a, b) in grid.iter().zip(&original) {
///     assert!((a - 8.0 * b).abs() < 1e-9);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Transform2d {
    nx: usize,
    ny: usize,
    plan_x: &'static DctPlan,
    plan_y: &'static DctPlan,
    /// Column-major staging for the parallel column pass.
    transpose_buf: Vec<f64>,
    scratch_x: AxisScratch,
    scratch_y: AxisScratch,
    /// Per-worker scratch pools for the parallel row/column passes,
    /// persistent across calls.
    pool_x: Vec<AxisScratch>,
    pool_y: Vec<AxisScratch>,
    exec: ExecConfig,
    engine: SpectralEngine,
}

impl Transform2d {
    /// Builds transforms for an `nx × ny` grid (serial execution; see
    /// [`Transform2d::set_exec`]).
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when either dimension is not a power of
    /// two — the crate's one size check.
    pub fn new(nx: usize, ny: usize) -> Result<Self, EplaceError> {
        let plan_x = plan::cached(Pow2::new(nx)?);
        let plan_y = plan::cached(Pow2::new(ny)?);
        Ok(Transform2d {
            nx,
            ny,
            plan_x,
            plan_y,
            transpose_buf: Vec::new(),
            scratch_x: AxisScratch::new(nx, ny),
            scratch_y: AxisScratch::new(ny, nx),
            pool_x: Vec::new(),
            pool_y: Vec::new(),
            exec: ExecConfig::serial(),
            engine: SpectralEngine::default(),
        })
    }

    /// Sets the execution configuration for subsequent transforms.
    pub fn set_exec(&mut self, exec: ExecConfig) {
        self.exec = exec;
    }

    /// Builder form of [`Transform2d::set_exec`].
    pub fn with_exec(mut self, exec: ExecConfig) -> Self {
        self.set_exec(exec);
        self
    }

    /// Selects the transform engine for subsequent calls (default
    /// [`SpectralEngine::V1`]).
    pub fn set_engine(&mut self, engine: SpectralEngine) {
        self.engine = engine;
    }

    /// Builder form of [`Transform2d::set_engine`].
    pub fn with_engine(mut self, engine: SpectralEngine) -> Self {
        self.engine = engine;
        self
    }

    /// The engine subsequent transforms will run.
    #[inline]
    pub fn engine(&self) -> SpectralEngine {
        self.engine
    }

    /// Grid width (number of columns / x-bins).
    #[inline]
    pub fn nx(&self) -> usize {
        self.nx
    }

    /// Grid height (number of rows / y-bins).
    #[inline]
    pub fn ny(&self) -> usize {
        self.ny
    }

    /// Forward 2-D DCT-II in place:
    /// `A[u,v] = Σ_{x,y} data[x,y]·cos(πu(2x+1)/2nx)·cos(πv(2y+1)/2ny)`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx·ny`.
    pub fn dct2(&mut self, data: &mut [f64]) {
        self.apply(data, Kernel::Dct2, Kernel::Dct2, 1.0);
    }

    /// 2-D DCT-III synthesis in place (u=0 / v=0 terms carry the usual ½
    /// factors). `dct3(dct2(x)) == (nx/2)(ny/2)·x`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx·ny`.
    pub fn dct3(&mut self, data: &mut [f64]) {
        self.apply(data, Kernel::Dct3, Kernel::Dct3, 1.0);
    }

    /// [`Transform2d::dct3`] with an elementwise `·scale` fused into the
    /// final store: bitwise identical to `dct3` followed by
    /// `for v in data { *v *= scale }`, one full-grid pass cheaper.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx·ny`.
    pub fn dct3_scaled(&mut self, data: &mut [f64], scale: f64) {
        self.apply(data, Kernel::Dct3, Kernel::Dct3, scale);
    }

    /// Mixed synthesis, sine along x and cosine along y:
    /// `out[x,y] = Σ_{u≥1,v} C[u,v]·sin(πu(2x+1)/2nx)·cos(πv(2y+1)/2ny)`
    /// (the `v` sum carries the ½ factor at `v = 0`).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx·ny`.
    pub fn dst3_x(&mut self, data: &mut [f64]) {
        self.apply(data, Kernel::Dst3, Kernel::Dct3, 1.0);
    }

    /// [`Transform2d::dst3_x`] with an elementwise `·scale` fused into the
    /// final store (see [`Transform2d::dct3_scaled`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx·ny`.
    pub fn dst3_x_scaled(&mut self, data: &mut [f64], scale: f64) {
        self.apply(data, Kernel::Dst3, Kernel::Dct3, scale);
    }

    /// Mixed synthesis, cosine along x and sine along y (mirror of
    /// [`Transform2d::dst3_x`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx·ny`.
    pub fn dst3_y(&mut self, data: &mut [f64]) {
        self.apply(data, Kernel::Dct3, Kernel::Dst3, 1.0);
    }

    /// [`Transform2d::dst3_y`] with an elementwise `·scale` fused into the
    /// final store (see [`Transform2d::dct3_scaled`]).
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != nx·ny`.
    pub fn dst3_y_scaled(&mut self, data: &mut [f64], scale: f64) {
        self.apply(data, Kernel::Dct3, Kernel::Dst3, scale);
    }

    fn apply(&mut self, data: &mut [f64], kernel_x: Kernel, kernel_y: Kernel, scale: f64) {
        assert_eq!(
            data.len(),
            self.nx * self.ny,
            "grid buffer length {} differs from {}x{}",
            data.len(),
            self.nx,
            self.ny
        );
        if self.exec.is_serial() {
            self.apply_serial(data, kernel_x, kernel_y, scale);
        } else {
            self.apply_parallel(data, kernel_x, kernel_y, scale);
        }
    }

    /// The single-threaded path, using the object-owned scratch. Row groups
    /// transform at stride 1; each group of adjacent columns transforms at
    /// stride `nx`, with the caller's `scale` fused into the final store.
    fn apply_serial(&mut self, data: &mut [f64], kernel_x: Kernel, kernel_y: Kernel, scale: f64) {
        let (nx, ny) = (self.nx, self.ny);
        debug_assert!(
            kernel_y != Kernel::Dct2 || scale == 1.0,
            "forward pass never scales"
        );
        let rows = Lines {
            offset: 0,
            stride: 1,
            dist: nx,
        };
        let columns = Lines {
            offset: 0,
            stride: nx,
            dist: 1,
        };
        let (op_x, op_y) = ((self.engine, kernel_x), (self.engine, kernel_y));
        self.scratch_x.run(self.plan_x, op_x, data, rows, ny, 1.0);
        self.scratch_y
            .run(self.plan_y, op_y, data, columns, nx, scale);
    }

    /// The multi-threaded path. Each parallel unit (a lane group of rows or
    /// of transposed columns, or one transpose line) is written by exactly
    /// one worker with its own pooled scratch, so the output is bitwise
    /// identical to the serial path and steady-state calls build no new
    /// scratch. The units depend only on the grid size.
    fn apply_parallel(&mut self, data: &mut [f64], kernel_x: Kernel, kernel_y: Kernel, scale: f64) {
        let (nx, ny) = (self.nx, self.ny);
        self.transpose_buf.resize(nx * ny, 0.0);
        let (op_x, op_y) = ((self.engine, kernel_x), (self.engine, kernel_y));
        // Unit scratch for the transpose passes: a Vec of zero-sized units
        // never touches the heap, so building one per call stays
        // allocation-free.
        let mut unit_pool: Vec<()> = Vec::new();
        let exec = self.exec;
        let plan_x = self.plan_x;
        let width_x = self.scratch_x.width();
        let rows = Lines {
            offset: 0,
            stride: 1,
            dist: nx,
        };
        for_each_unit(
            &exec,
            data,
            width_x * nx,
            &mut self.pool_x,
            || AxisScratch::new(nx, ny),
            |_, group, scratch| scratch.run(plan_x, op_x, group, rows, width_x, 1.0),
        );
        {
            let src: &[f64] = data;
            for_each_unit(
                &exec,
                &mut self.transpose_buf,
                ny,
                &mut unit_pool,
                || (),
                |ix, col, _| {
                    for (iy, v) in col.iter_mut().enumerate() {
                        *v = src[iy * nx + ix];
                    }
                },
            );
        }
        let plan_y = self.plan_y;
        let width_y = self.scratch_y.width();
        let columns = Lines {
            offset: 0,
            stride: 1,
            dist: ny,
        };
        for_each_unit(
            &exec,
            &mut self.transpose_buf,
            width_y * ny,
            &mut self.pool_y,
            || AxisScratch::new(ny, nx),
            |_, group, scratch| scratch.run(plan_y, op_y, group, columns, width_y, 1.0),
        );
        // Transpose back with the caller's scale fused into the copy:
        // `v·scale` is the identical product the separate post-pass would
        // compute, and `·1.0` is a bitwise identity for the unscaled calls.
        let src: &[f64] = &self.transpose_buf;
        for_each_unit(
            &exec,
            data,
            nx,
            &mut unit_pool,
            || (),
            |iy, row, _| {
                for (ix, v) in row.iter_mut().enumerate() {
                    *v = src[ix * ny + iy] * scale;
                }
            },
        );
    }
}

/// One axis's kernel scratch: lane-group scratch when the axis has at least
/// [`LANES`] lines (every power-of-two count that large is a whole number
/// of groups), one-line scratch for a 1- or 2-line axis.
#[derive(Debug, Clone)]
enum AxisScratch {
    Lanes(DctScratch<LANES>),
    Line(DctScratch<1>),
}

impl AxisScratch {
    /// Scratch for `count` lines of length `len`.
    fn new(len: usize, count: usize) -> Self {
        if count >= LANES {
            AxisScratch::Lanes(DctScratch::new(len))
        } else {
            AxisScratch::Line(DctScratch::new(len))
        }
    }

    /// Lines one kernel call transforms.
    fn width(&self) -> usize {
        match self {
            AxisScratch::Lanes(_) => LANES,
            AxisScratch::Line(_) => 1,
        }
    }

    /// Transforms `count` lines, line `k` starting `k·lines.dist` past
    /// `lines.offset`, one group of [`AxisScratch::width`] lines per call.
    fn run(
        &mut self,
        plan: &DctPlan,
        op: (SpectralEngine, Kernel),
        data: &mut [f64],
        lines: Lines,
        count: usize,
        scale: f64,
    ) {
        match self {
            AxisScratch::Lanes(scratch) => run_groups(plan, op, data, lines, count, scale, scratch),
            AxisScratch::Line(scratch) => run_groups(plan, op, data, lines, count, scale, scratch),
        }
    }
}

/// The group loop of [`AxisScratch::run`] at `L` lines per call.
fn run_groups<const L: usize>(
    plan: &DctPlan,
    op: (SpectralEngine, Kernel),
    data: &mut [f64],
    lines: Lines,
    count: usize,
    scale: f64,
    scratch: &mut DctScratch<L>,
) {
    debug_assert_eq!(count % L, 0, "a partial lane group");
    for group in 0..count / L {
        let lines = Lines {
            offset: lines.offset + group * L * lines.dist,
            ..lines
        };
        match op {
            (SpectralEngine::V1, Kernel::Dct2) => plan.dct2_lines(data, lines, scratch),
            (SpectralEngine::V1, Kernel::Dct3) => {
                plan.synth_lines(data, lines, scale, scratch, Synth::Dct3)
            }
            (SpectralEngine::V1, Kernel::Dst3) => {
                plan.synth_lines(data, lines, scale, scratch, Synth::Dst3)
            }
            (SpectralEngine::V2, Kernel::Dct2) => plan.dct2_v2_lines(data, lines, scratch),
            (SpectralEngine::V2, Kernel::Dct3) => {
                plan.synth_v2_lines(data, lines, scale, scratch, Synth::Dct3)
            }
            (SpectralEngine::V2, Kernel::Dst3) => {
                plan.synth_v2_lines(data, lines, scale, scratch, Synth::Dst3)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use std::f64::consts::PI;

    fn grid(nx: usize, ny: usize) -> Vec<f64> {
        (0..nx * ny).map(|i| ((i * 7 % 13) as f64) - 6.0).collect()
    }

    /// Naive 2-D transform: kernel_x over x, kernel_y over y.
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
            for ix in 0..nx {
                out[iy * nx + ix] = t[ix];
            }
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

    #[test]
    fn dct2_2d_matches_naive_separable() {
        let (nx, ny) = (8, 4);
        let data = grid(nx, ny);
        let mut fast = data.clone();
        Transform2d::new(nx, ny).unwrap().dct2(&mut fast);
        let slow = naive_2d(&data, nx, ny, reference::naive_dct2, reference::naive_dct2);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn dst3_x_matches_naive_separable() {
        let (nx, ny) = (8, 8);
        let data = grid(nx, ny);
        let mut fast = data.clone();
        Transform2d::new(nx, ny).unwrap().dst3_x(&mut fast);
        let slow = naive_2d(&data, nx, ny, reference::naive_dst3, reference::naive_dct3);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn dst3_y_matches_naive_separable() {
        let (nx, ny) = (4, 16);
        let data = grid(nx, ny);
        let mut fast = data.clone();
        Transform2d::new(nx, ny).unwrap().dst3_y(&mut fast);
        let slow = naive_2d(&data, nx, ny, reference::naive_dct3, reference::naive_dst3);
        for (a, b) in fast.iter().zip(&slow) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    fn rectangular_grids_round_trip() {
        for &(nx, ny) in &[(2usize, 8usize), (8, 2), (16, 4)] {
            let data = grid(nx, ny);
            let mut t = Transform2d::new(nx, ny).unwrap();
            let mut work = data.clone();
            t.dct2(&mut work);
            t.dct3(&mut work);
            let scale = (nx as f64 / 2.0) * (ny as f64 / 2.0);
            for (a, b) in work.iter().zip(&data) {
                assert!((a - scale * b).abs() < 1e-9, "{nx}x{ny}");
            }
        }
    }

    #[test]
    fn single_mode_synthesis() {
        // Putting one coefficient into the (u,v)=(2,1) slot and running the
        // cos·cos synthesis reproduces the analytic eigenfunction.
        let (nx, ny) = (8, 8);
        let mut t = Transform2d::new(nx, ny).unwrap();
        let mut coeffs = vec![0.0; nx * ny];
        coeffs[ny_index(2, 1, nx)] = 1.0;
        t.dct3(&mut coeffs);
        for iy in 0..ny {
            for ix in 0..nx {
                let expect = (PI * 2.0 * (2 * ix + 1) as f64 / (2 * nx) as f64).cos()
                    * (PI * 1.0 * (2 * iy + 1) as f64 / (2 * ny) as f64).cos();
                assert!((coeffs[iy * nx + ix] - expect).abs() < 1e-10);
            }
        }
    }

    fn ny_index(u: usize, v: usize, nx: usize) -> usize {
        v * nx + u
    }

    #[test]
    #[should_panic(expected = "differs from")]
    fn wrong_buffer_panics() {
        let mut t = Transform2d::new(4, 4).unwrap();
        let mut bad = vec![0.0; 10];
        t.dct2(&mut bad);
    }

    #[test]
    fn accessors() {
        let t = Transform2d::new(4, 8).unwrap();
        assert_eq!(t.nx(), 4);
        assert_eq!(t.ny(), 8);
    }

    #[test]
    fn plans_are_shared_between_instances() {
        let a = Transform2d::new(16, 32).unwrap();
        let b = Transform2d::new(16, 32).unwrap();
        assert!(std::ptr::eq(a.plan_x, b.plan_x));
        assert!(std::ptr::eq(a.plan_y, b.plan_y));
        // Square grids share one plan across both axes.
        let c = Transform2d::new(32, 32).unwrap();
        assert!(std::ptr::eq(c.plan_x, c.plan_y));
    }

    #[test]
    fn parallel_transforms_are_bitwise_serial() {
        // Rows/columns are disjoint parallel units, so any thread count must
        // reproduce the serial bits exactly — including non-square grids.
        for &(nx, ny) in &[(8usize, 8usize), (16, 4), (4, 32)] {
            let data = grid(nx, ny);
            for op in 0..4 {
                let run = |threads: usize| {
                    let mut t = Transform2d::new(nx, ny)
                        .unwrap()
                        .with_exec(eplace_exec::ExecConfig::with_threads(threads));
                    let mut w = data.clone();
                    match op {
                        0 => t.dct2(&mut w),
                        1 => t.dct3(&mut w),
                        2 => t.dst3_x(&mut w),
                        _ => t.dst3_y(&mut w),
                    }
                    w
                };
                let serial = run(1);
                for threads in [2, 3, 8] {
                    let par = run(threads);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&serial), bits(&par), "{nx}x{ny} op {op} t {threads}");
                }
            }
        }
    }

    #[test]
    fn scaled_syntheses_are_bitwise_transform_then_scale() {
        let (nx, ny) = (16usize, 8usize);
        let data = grid(nx, ny);
        let scale = 0.0625 * 0.73;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 4] {
            let exec = eplace_exec::ExecConfig::with_threads(threads);
            type Pair = (
                fn(&mut Transform2d, &mut [f64]),
                fn(&mut Transform2d, &mut [f64], f64),
            );
            let cases: [(Pair, &str); 3] = [
                ((Transform2d::dct3, Transform2d::dct3_scaled), "dct3"),
                ((Transform2d::dst3_x, Transform2d::dst3_x_scaled), "dst3_x"),
                ((Transform2d::dst3_y, Transform2d::dst3_y_scaled), "dst3_y"),
            ];
            for ((unscaled, scaled), name) in cases {
                let mut t = Transform2d::new(nx, ny).unwrap().with_exec(exec);
                let mut expect = data.clone();
                unscaled(&mut t, &mut expect);
                for v in expect.iter_mut() {
                    *v *= scale;
                }
                let mut fused = data.clone();
                scaled(&mut t, &mut fused, scale);
                assert_eq!(bits(&expect), bits(&fused), "{name} threads {threads}");
            }
        }
    }

    #[test]
    fn repeated_calls_reuse_scratch_pools() {
        let mut t = Transform2d::new(16, 16)
            .unwrap()
            .with_exec(eplace_exec::ExecConfig::with_threads(4));
        let mut w = grid(16, 16);
        t.dct2(&mut w);
        let (px, py) = (t.pool_x.len(), t.pool_y.len());
        assert!(px > 0 && py > 0);
        t.dct3(&mut w);
        t.dst3_x(&mut w);
        assert_eq!(t.pool_x.len(), px);
        assert_eq!(t.pool_y.len(), py);
    }

    #[test]
    fn non_power_of_two_dimension_is_a_typed_error() {
        assert!(Transform2d::new(12, 8).is_err());
        assert!(Transform2d::new(8, 12).is_err());
        assert!(Transform2d::new(0, 8).is_err());
    }

    #[test]
    fn v2_matches_naive_separable() {
        for &(nx, ny) in &[(2usize, 8usize), (8, 4), (16, 16), (4, 32)] {
            let data = grid(nx, ny);
            let mut t = Transform2d::new(nx, ny)
                .unwrap()
                .with_engine(SpectralEngine::V2);
            assert_eq!(t.engine(), SpectralEngine::V2);
            type Ref = fn(&[f64]) -> Vec<f64>;
            type Op = fn(&mut Transform2d, &mut [f64]);
            let cases: [(Op, Ref, Ref); 4] = [
                (
                    Transform2d::dct2,
                    reference::naive_dct2,
                    reference::naive_dct2,
                ),
                (
                    Transform2d::dct3,
                    reference::naive_dct3,
                    reference::naive_dct3,
                ),
                (
                    Transform2d::dst3_x,
                    reference::naive_dst3,
                    reference::naive_dct3,
                ),
                (
                    Transform2d::dst3_y,
                    reference::naive_dct3,
                    reference::naive_dst3,
                ),
            ];
            for (op, fx, fy) in cases {
                let mut fast = data.clone();
                op(&mut t, &mut fast);
                let slow = naive_2d(&data, nx, ny, fx, fy);
                for (a, b) in fast.iter().zip(&slow) {
                    assert!((a - b).abs() < 1e-9, "{nx}x{ny}");
                }
            }
        }
    }

    #[test]
    fn v2_parallel_transforms_are_bitwise_serial() {
        // The v2 engine must honor the same thread-count invariance contract
        // as v1: threads ∈ {1, 2, 3, 8} all produce identical bits.
        for &(nx, ny) in &[(8usize, 8usize), (16, 4), (4, 32)] {
            let data = grid(nx, ny);
            for op in 0..5 {
                let run = |threads: usize| {
                    let mut t = Transform2d::new(nx, ny)
                        .unwrap()
                        .with_engine(SpectralEngine::V2)
                        .with_exec(eplace_exec::ExecConfig::with_threads(threads));
                    let mut w = data.clone();
                    match op {
                        0 => t.dct2(&mut w),
                        1 => t.dct3(&mut w),
                        2 => t.dst3_x(&mut w),
                        3 => t.dst3_y(&mut w),
                        _ => t.dct3_scaled(&mut w, 0.37),
                    }
                    w
                };
                let serial = run(1);
                for threads in [2, 3, 8] {
                    let par = run(threads);
                    let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&serial), bits(&par), "{nx}x{ny} op {op} t {threads}");
                }
            }
        }
    }

    #[test]
    fn v2_scaled_syntheses_are_bitwise_transform_then_scale() {
        let (nx, ny) = (16usize, 8usize);
        let data = grid(nx, ny);
        let scale = 0.0625 * 0.73;
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for threads in [1usize, 4] {
            let exec = eplace_exec::ExecConfig::with_threads(threads);
            type Pair = (
                fn(&mut Transform2d, &mut [f64]),
                fn(&mut Transform2d, &mut [f64], f64),
            );
            let cases: [(Pair, &str); 3] = [
                ((Transform2d::dct3, Transform2d::dct3_scaled), "dct3"),
                ((Transform2d::dst3_x, Transform2d::dst3_x_scaled), "dst3_x"),
                ((Transform2d::dst3_y, Transform2d::dst3_y_scaled), "dst3_y"),
            ];
            for ((unscaled, scaled), name) in cases {
                let mut t = Transform2d::new(nx, ny)
                    .unwrap()
                    .with_engine(SpectralEngine::V2)
                    .with_exec(exec);
                let mut expect = data.clone();
                unscaled(&mut t, &mut expect);
                for v in expect.iter_mut() {
                    *v *= scale;
                }
                let mut fused = data.clone();
                scaled(&mut t, &mut fused, scale);
                assert_eq!(bits(&expect), bits(&fused), "{name} threads {threads}");
            }
        }
    }

    /// The one-line (`L = 1`) 2-D transform: every row, then every column,
    /// one line per kernel call, the column pass fusing `scale`.
    fn one_line_2d(
        data: &[f64],
        (nx, ny): (usize, usize),
        engine: SpectralEngine,
        (kernel_x, kernel_y): (Kernel, Kernel),
        scale: f64,
    ) -> Vec<f64> {
        let size = |n| Pow2::new(n).unwrap();
        let (plan_x, plan_y) = (DctPlan::new(size(nx)), DctPlan::new(size(ny)));
        let rows = Lines {
            offset: 0,
            stride: 1,
            dist: nx,
        };
        let columns = Lines {
            offset: 0,
            stride: nx,
            dist: 1,
        };
        let mut out = data.to_vec();
        let scratch = &mut DctScratch::<1>::new(nx);
        run_groups(
            &plan_x,
            (engine, kernel_x),
            &mut out,
            rows,
            ny,
            1.0,
            scratch,
        );
        let scratch = &mut DctScratch::<1>::new(ny);
        run_groups(
            &plan_y,
            (engine, kernel_y),
            &mut out,
            columns,
            nx,
            scale,
            scratch,
        );
        out
    }

    #[test]
    fn lane_groups_are_bitwise_one_line_transforms() {
        // Every operation, under both engines and at 1, 2 and 3 threads,
        // must give each element the bits of the one-line transform. The
        // inputs hold signed zeros and subnormals, and the second one also
        // infinities and NaN; a NaN matches any NaN.
        type Op = fn(&mut Transform2d, &mut [f64]);
        const SCALE: f64 = -0.0625 * 0.73;
        let ops: [(Op, (Kernel, Kernel), f64, &str); 7] = [
            (Transform2d::dct2, (Kernel::Dct2, Kernel::Dct2), 1.0, "dct2"),
            (Transform2d::dct3, (Kernel::Dct3, Kernel::Dct3), 1.0, "dct3"),
            (
                |t, d| t.dct3_scaled(d, SCALE),
                (Kernel::Dct3, Kernel::Dct3),
                SCALE,
                "dct3_scaled",
            ),
            (
                Transform2d::dst3_x,
                (Kernel::Dst3, Kernel::Dct3),
                1.0,
                "dst3_x",
            ),
            (
                |t, d| t.dst3_x_scaled(d, SCALE),
                (Kernel::Dst3, Kernel::Dct3),
                SCALE,
                "dst3_x_scaled",
            ),
            (
                Transform2d::dst3_y,
                (Kernel::Dct3, Kernel::Dst3),
                1.0,
                "dst3_y",
            ),
            (
                |t, d| t.dst3_y_scaled(d, SCALE),
                (Kernel::Dct3, Kernel::Dst3),
                SCALE,
                "dst3_y_scaled",
            ),
        ];
        let finite = |i: usize| match i % 11 {
            2 => -0.0,
            5 => 0.0,
            7 => f64::MIN_POSITIVE / (3 + i % 5) as f64,
            9 => -5e-324,
            _ => ((i * 7 % 13) as f64 - 6.0) * (i as f64 * 0.61).sin(),
        };
        let special = |i: usize| match i % 97 {
            13 => f64::INFINITY,
            41 => f64::NEG_INFINITY,
            77 => f64::NAN,
            _ => finite(i),
        };
        let grids = [
            (1usize, 1usize),
            (1, 8),
            (2, 4),
            (8, 2),
            (4, 4),
            (16, 64),
            (64, 64),
            (256, 32),
        ];
        for (nx, ny) in grids {
            let inputs: [Vec<f64>; 2] = [
                (0..nx * ny).map(finite).collect(),
                (0..nx * ny).map(special).collect(),
            ];
            for engine in [SpectralEngine::V1, SpectralEngine::V2] {
                for (op, kernels, op_scale, name) in ops {
                    for input in &inputs {
                        let expect = one_line_2d(input, (nx, ny), engine, kernels, op_scale);
                        for threads in [1, 2, 3] {
                            let mut t = Transform2d::new(nx, ny)
                                .unwrap()
                                .with_engine(engine)
                                .with_exec(eplace_exec::ExecConfig::with_threads(threads));
                            let mut got = input.clone();
                            op(&mut t, &mut got);
                            for (i, (a, b)) in got.iter().zip(&expect).enumerate() {
                                assert!(
                                    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan()),
                                    "{nx}x{ny} {engine:?} {name} threads {threads} at {i}: \
                                     {a} vs {b}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }
}
