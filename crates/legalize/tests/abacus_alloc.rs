//! Allocation audit for `legalize_abacus`.
//!
//! Abacus probes up to 24 row segments per cell. A probe simulates the push
//! on the segment's cluster stack and reads each placed cell's cached
//! displacement term, so it allocates nothing; only the per-segment lists
//! grow. The number of heap allocations must therefore stay below one per
//! movable cell. This test installs a counting global allocator and asserts
//! that.
//!
//! The file holds exactly one `#[test]` so no concurrent test thread can
//! allocate while the counter is armed.

use eplace_benchgen::BenchmarkConfig;
use eplace_legalize::{check_legal, legalize_abacus};
use eplace_netlist::CellKind;
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

#[test]
fn legalize_abacus_allocates_less_than_once_per_cell() {
    let mut design = BenchmarkConfig::peko_like("abacus-alloc", 5)
        .scale(1_500)
        .generate();
    let movable = design
        .cells
        .iter()
        .filter(|c| c.kind == CellKind::StdCell && c.is_movable())
        .count();

    ALLOCS.store(0, Ordering::SeqCst);
    ARMED.store(true, Ordering::SeqCst);
    let report = legalize_abacus(&mut design);
    ARMED.store(false, Ordering::SeqCst);
    let allocs = ALLOCS.load(Ordering::SeqCst);

    // The audited call did the real work, so the count covers the probes.
    let report = report.expect("a half-utilization PEKO design legalizes");
    assert_eq!(report.placed, movable);
    assert!(check_legal(&design).is_ok());
    assert!(
        allocs < movable,
        "legalize_abacus made {allocs} heap allocations for {movable} movable \
         cells; a probe must not clone its segment"
    );
}
