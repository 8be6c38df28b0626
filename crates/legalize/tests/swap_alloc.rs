//! Allocation audit for `global_swap`.
//!
//! Global swap ranks every cell's same-footprint partners on each pass, and
//! on single-footprint designs a bucket holds every movable cell. Its
//! partner ranking and gain evaluation run out of scratch buffers sized once
//! per call, so the number of heap allocations must not depend on the pass
//! count and must stay far below one per cell. This test installs a counting
//! global allocator and asserts both.
//!
//! The file holds exactly one `#[test]` so no concurrent test thread can
//! allocate while the counter is armed.

use eplace_benchgen::BenchmarkConfig;
use eplace_legalize::{global_swap, legalize};
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

/// Heap allocations made by `global_swap(design, passes)` and its gain.
fn counted_swap(design: &mut Design, passes: usize) -> (usize, f64) {
    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let gain = global_swap(design, passes);
    ARMED.store(false, Ordering::SeqCst);
    (ALLOCS.load(Ordering::SeqCst), gain)
}

#[test]
fn global_swap_allocations_do_not_scale_with_cells_or_passes() {
    // One footprint: every movable cell is every other cell's partner.
    let mut design = BenchmarkConfig::peko_like("swap-alloc", 5)
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
    let (allocs_one, gain_one) = counted_swap(&mut one, 1);
    let (allocs_three, gain_three) = counted_swap(&mut three, 3);

    // The audited calls did real work, so the counts cover the hot path.
    assert!(gain_one > 0.0 && gain_three >= gain_one);
    assert_eq!(
        allocs_three, allocs_one,
        "global_swap(d, 3) made {allocs_three} heap allocations against \
         {allocs_one} for one pass: some pass allocates per cell"
    );
    assert!(
        allocs_one < movable / 10,
        "global_swap made {allocs_one} heap allocations for {movable} movable \
         cells; ranking and gain evaluation must reuse scratch buffers"
    );
}
