use crate::dct::DctScratch;
use crate::{DctPlan, Pow2, SpectralEngine, SpectralPlan};
use eplace_errors::EplaceError;
use eplace_exec::{for_each_unit, ExecConfig};

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
/// The per-axis plans come from the process-wide [`SpectralPlan`] cache, so
/// constructing a `Transform2d` for an already-seen size costs two cache
/// lookups instead of rebuilding twiddle tables. The object owns all scratch
/// (including the [`DctScratch`] FFT workspace and, for parallel runs, a
/// per-worker scratch pool), so steady-state serial calls are
/// allocation-free; this matters because the placer transforms the grid
/// three times per optimizer iteration.
///
/// Every line runs through the engine's one in-place kernel per transform
/// ([`DctPlan::dct2_strided`] and friends, or their `*_v2` twins): rows at
/// stride 1, columns directly at stride `nx` — the same float sequence the
/// historical gather → transform → scatter produced, without the bounce
/// buffer or its two extra passes per column.
///
/// The synthesis transforms also come in `*_scaled` variants that fuse the
/// caller's elementwise post-scale (the Poisson solver's normalization)
/// into the final store, saving one full-grid pass per synthesis while
/// computing the identical `v·scale` products.
///
/// With [`Transform2d::set_exec`] the row pass, both transposes, and the
/// column pass run through [`eplace_exec::for_each_unit`] on scoped worker
/// threads. Every parallel unit (one row or one column) is written by
/// exactly one worker, so the result is bitwise identical for every thread
/// count, including the serial default.
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
    plan_x: SpectralPlan,
    plan_y: SpectralPlan,
    /// Column-major staging for the parallel column pass.
    transpose_buf: Vec<f64>,
    scratch_x: DctScratch,
    scratch_y: DctScratch,
    /// Per-worker scratch pools for the parallel row/column passes,
    /// persistent across calls.
    pool_x: Vec<DctScratch>,
    pool_y: Vec<DctScratch>,
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
    /// two. Callers with statically valid sizes use
    /// [`Transform2d::for_pow2`] instead.
    pub fn new(nx: usize, ny: usize) -> Result<Self, EplaceError> {
        Ok(Self::for_pow2(Pow2::new(nx)?, Pow2::new(ny)?))
    }

    /// Builds transforms from checked-at-construction sizes — infallible.
    pub fn for_pow2(nx: Pow2, ny: Pow2) -> Self {
        let plan_x = SpectralPlan::for_pow2(nx);
        let plan_y = SpectralPlan::for_pow2(ny);
        let (nx, ny) = (nx.get(), ny.get());
        Transform2d {
            nx,
            ny,
            plan_x,
            plan_y,
            transpose_buf: Vec::new(),
            scratch_x: DctScratch::new(nx),
            scratch_y: DctScratch::new(ny),
            pool_x: Vec::new(),
            pool_y: Vec::new(),
            exec: ExecConfig::serial(),
            engine: SpectralEngine::default(),
        }
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

    /// The single-threaded path, using the object-owned scratch. Rows
    /// transform at stride 1; each column transforms at stride `nx`, with
    /// the caller's `scale` fused into the final store.
    fn apply_serial(&mut self, data: &mut [f64], kernel_x: Kernel, kernel_y: Kernel, scale: f64) {
        let nx = self.nx;
        let (op_x, op_y) = ((self.engine, kernel_x), (self.engine, kernel_y));
        for row in data.chunks_exact_mut(nx) {
            run_line(&self.plan_x, op_x, row, 0, 1, 1.0, &mut self.scratch_x);
        }
        debug_assert!(
            kernel_y != Kernel::Dct2 || scale == 1.0,
            "forward pass never scales"
        );
        for ix in 0..nx {
            run_line(&self.plan_y, op_y, data, ix, nx, scale, &mut self.scratch_y);
        }
    }

    /// The multi-threaded path. Each parallel unit (row, column, or
    /// transpose line) is written by exactly one worker with its own
    /// pooled scratch, so the output is bitwise identical to the serial
    /// path and steady-state calls build no new scratch.
    fn apply_parallel(&mut self, data: &mut [f64], kernel_x: Kernel, kernel_y: Kernel, scale: f64) {
        let (nx, ny) = (self.nx, self.ny);
        self.transpose_buf.resize(nx * ny, 0.0);
        let (op_x, op_y) = ((self.engine, kernel_x), (self.engine, kernel_y));
        // Unit scratch for the transpose passes: a Vec of zero-sized units
        // never touches the heap, so building one per call stays
        // allocation-free.
        let mut unit_pool: Vec<()> = Vec::new();
        let exec = self.exec;
        let plan_x = &self.plan_x;
        for_each_unit(
            &exec,
            data,
            nx,
            &mut self.pool_x,
            || DctScratch::new(nx),
            |_, row, scratch| run_line(plan_x, op_x, row, 0, 1, 1.0, scratch),
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
        let plan_y = &self.plan_y;
        for_each_unit(
            &exec,
            &mut self.transpose_buf,
            ny,
            &mut self.pool_y,
            || DctScratch::new(ny),
            |_, col, scratch| run_line(plan_y, op_y, col, 0, 1, 1.0, scratch),
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

/// Runs one engine's kernel over the strided line
/// `data[offset + i·stride]`, with `scale` fused into a synthesis store
/// (the forward DCT-II takes none).
fn run_line(
    plan: &DctPlan,
    op: (SpectralEngine, Kernel),
    data: &mut [f64],
    offset: usize,
    stride: usize,
    scale: f64,
    scratch: &mut DctScratch,
) {
    match op {
        (SpectralEngine::V1, Kernel::Dct2) => plan.dct2_strided(data, offset, stride, scratch),
        (SpectralEngine::V1, Kernel::Dct3) => {
            plan.dct3_strided(data, offset, stride, scale, scratch)
        }
        (SpectralEngine::V1, Kernel::Dst3) => {
            plan.dst3_strided(data, offset, stride, scale, scratch)
        }
        (SpectralEngine::V2, Kernel::Dct2) => plan.dct2_v2(data, offset, stride, scratch),
        (SpectralEngine::V2, Kernel::Dct3) => plan.dct3_v2(data, offset, stride, scale, scratch),
        (SpectralEngine::V2, Kernel::Dst3) => plan.dst3_v2(data, offset, stride, scale, scratch),
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
        assert!(a.plan_x.shares_tables_with(&b.plan_x));
        assert!(a.plan_y.shares_tables_with(&b.plan_y));
        // Square grids share one plan across both axes.
        let c = Transform2d::new(32, 32).unwrap();
        assert!(c.plan_x.shares_tables_with(&c.plan_y));
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
}
