//! Allocation audit for `detail_place`.
//!
//! Detail placement visits every movable cell on each pass: it regroups the
//! rows, slides each cell toward its optimal x and re-packs windows of three.
//! The rows and every scratch buffer are allocated once per call, so the
//! number of heap allocations must not depend on the pass count and must stay
//! far below one per cell. This test installs a counting global allocator and
//! asserts both.
//!
//! The file holds exactly one `#[test]` so no concurrent test thread can
//! allocate while the counter is armed.

use eplace_benchgen::BenchmarkConfig;
use eplace_legalize::{detail_place, legalize};
use eplace_netlist::{CellKind, Design};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Wraps the system allocator and counts allocation events while armed.
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

/// Heap allocations made by `detail_place(design, passes)` and its gain.
fn counted_detail(design: &mut Design, passes: usize) -> (usize, f64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let gain = detail_place(design, passes);
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), gain)
}

#[test]
fn detail_place_allocations_do_not_scale_with_cells_or_passes() {
    let mut design = BenchmarkConfig::peko_like("detail-alloc", 5)
        .scale(1_500)
        .generate();
    legalize(&mut design).expect("a half-utilization PEKO design legalizes");
    let movable = design
        .cells
        .iter()
        .filter(|c| c.kind == CellKind::StdCell && c.is_movable())
        .count();

    let mut one = design.clone();
    let mut three = design.clone();
    let (allocs_one, gain_one) = counted_detail(&mut one, 1);
    let (allocs_three, gain_three) = counted_detail(&mut three, 3);

    // The audited calls did real work, so the counts cover the hot path.
    assert!(gain_one > 0.0 && gain_three >= gain_one);
    assert_eq!(
        allocs_three, allocs_one,
        "detail_place(d, 3) made {allocs_three} heap allocations against \
         {allocs_one} for one pass: some pass allocates per cell or per row"
    );
    assert!(
        allocs_one < movable / 10,
        "detail_place made {allocs_one} heap allocations for {movable} movable \
         cells; sliding and window reordering must reuse scratch buffers"
    );
}
