//! Steady-state allocation audit for the mGP/cGP hot path and the LSE model.
//!
//! The optimizer loop — Nesterov step, density deposit + spectral solve,
//! WA wirelength gradient, combine/precondition — is designed to run out of
//! preallocated buffers after warm-up, and so is the LSE wirelength
//! gradient the bell-shape baseline evaluates. This test installs a
//! counting global allocator and asserts the invariant directly: once the
//! first iterations have sized every scratch buffer, further `step` calls
//! and `LseModel::gradient` calls perform **zero** heap allocations at
//! threads = 1.
//!
//! The file holds exactly one `#[test]` so no concurrent test thread can
//! allocate while the counter is armed.

use eplace_benchgen::BenchmarkConfig;
use eplace_core::PlacementProblem;
use eplace_core::{
    initial_placement, insert_fillers, EplaceCost, NesterovOptimizer, SpectralEngine,
};
use eplace_geometry::Point;
use eplace_wirelength::{LseModel, SmoothWirelength};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Wraps the system allocator and counts allocation events while armed.
/// Deallocations are not counted: dropping warm-up temporaries is fine; new
/// acquisitions are what the invariant forbids.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Allocation events during `steps` optimizer steps, counted after the
/// caller's warm-up.
fn count_allocs(steps: usize, mut step: impl FnMut()) -> usize {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    for _ in 0..steps {
        step();
    }
    ARMED.store(false, Ordering::SeqCst);
    ALLOCS.load(Ordering::SeqCst)
}

#[test]
fn steady_state_gp_iteration_allocates_nothing() {
    // A realistic mixed problem: movables, fillers, a density grid large
    // enough to exercise the full spectral solve.
    let mut design = BenchmarkConfig::ispd05_like("alloc-audit", 42)
        .scale(400)
        .generate();
    initial_placement(&mut design);
    insert_fillers(&mut design, 42);
    let problem = PlacementProblem::all_movables(&design);
    let mut cost = EplaceCost::new(&design, &problem, 64, 64, true);
    let pos = problem.positions(&design);
    cost.init_lambda(&pos);
    let perturb = 0.1 * cost.bin_width();
    let mut optimizer = NesterovOptimizer::new(pos, &mut cost, 0.95, 10, true, perturb);

    // Warm-up: size every lazily grown scratch buffer.
    for _ in 0..3 {
        optimizer.step(&mut cost);
    }
    let allocs = count_allocs(5, || {
        optimizer.step(&mut cost);
    });
    assert_eq!(
        allocs, 0,
        "steady-state optimizer steps performed {allocs} heap allocations; \
         the gradient hot path must run entirely out of pooled buffers"
    );
    // Sanity: the audited steps actually did the work.
    assert!(cost.evaluations >= 8);
    assert!(optimizer.solution().iter().all(|p| p.is_finite()));

    // Engine v2 (symmetry-halved mixed-radix kernels) must hold the same
    // invariant: the folded-real scratch (half-FFT ping-pong buffers and
    // the Vh staging row) is sized with the plan, so after a fresh warm-up
    // the solve runs out of the same pooled storage.
    cost.set_spectral_engine(SpectralEngine::V2);
    for _ in 0..2 {
        optimizer.step(&mut cost);
    }
    let allocs = count_allocs(3, || {
        optimizer.step(&mut cost);
    });
    assert_eq!(
        allocs, 0,
        "steady-state engine-v2 optimizer steps performed {allocs} heap \
         allocations; the mixed-radix spectral path must reuse the pooled \
         scratch buffers"
    );
    assert!(optimizer.solution().iter().all(|p| p.is_finite()));

    // Movable macros span many bins and, as they move, touch a varying
    // number of them. The deposit's stencil slots are sized from object and
    // bin sizes alone at the first deposit, so no later position can
    // outgrow them.
    let mut design = BenchmarkConfig::mms_like("alloc-audit-mms", 42, 0.8, 6)
        .scale(400)
        .generate();
    initial_placement(&mut design);
    insert_fillers(&mut design, 42);
    let problem = PlacementProblem::all_movables(&design);
    let mut cost = EplaceCost::new(&design, &problem, 64, 64, true);
    let bin = cost.bin_width();
    assert!(
        design
            .cells
            .iter()
            .any(|c| !c.fixed && c.size.width > 2.0 * bin),
        "the audit needs movable macros wider than two bins"
    );
    let pos = problem.positions(&design);
    cost.init_lambda(&pos);
    let mut optimizer = NesterovOptimizer::new(pos, &mut cost, 0.95, 10, true, 0.1 * bin);
    for _ in 0..3 {
        optimizer.step(&mut cost);
    }
    let allocs = count_allocs(8, || {
        optimizer.step(&mut cost);
    });
    assert_eq!(
        allocs, 0,
        "steady-state optimizer steps with movable macros performed \
         {allocs} heap allocations; the stencil slots must not grow"
    );
    assert!(optimizer.solution().iter().all(|p| p.is_finite()));

    // The LSE model runs the same net loop out of scratch sized for the
    // design's largest net, and its gradient vector is the caller's.
    let pos: Vec<Point> = design.cells.iter().map(|c| c.pos).collect();
    let mut lse = LseModel::new(&design);
    let mut grad = vec![Point::ORIGIN; pos.len()];
    let gamma = 4.0 * bin;
    let first = lse.gradient(&design, &pos, gamma, &mut grad);
    let allocs = count_allocs(4, || {
        lse.gradient(&design, &pos, gamma, &mut grad);
        lse.evaluate(&design, &pos, gamma);
    });
    assert_eq!(
        allocs, 0,
        "steady-state LSE gradients performed {allocs} heap allocations"
    );
    assert!(first.is_finite() && grad.iter().all(|g| g.is_finite()));
}
