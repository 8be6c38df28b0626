//! Process-wide cache of [`DctPlan`]s, one per transform length.
//!
//! Plan construction is `O(N)` memory but `O(N)` libm trigonometry calls —
//! comfortably the most expensive part of standing up a transform. The
//! placer builds a `Transform2d` per density grid and rebuilds the grid at
//! every GP stage, so without a cache the same twiddle/cosine tables would
//! be recomputed at every stage. [`cached`] computes each size's tables
//! exactly once per process and hands out shared references afterwards.
//!
//! Sizes are powers of two, so the cache is a fixed array of
//! [`OnceLock`] slots indexed by `log2(size)`: a steady-state lookup takes
//! no lock, and concurrent first requests for one size race only inside
//! that size's `OnceLock` (exactly one build wins; the others wait for it).
//!
//! Sharing cannot change numerics: plan construction is deterministic, so a
//! cached plan is bit-identical to a freshly built one — the cache only
//! removes redundant construction work.

use crate::{DctPlan, Pow2};
use std::sync::OnceLock;

/// One slot per possible power-of-two size on a 64-bit machine.
const SLOT_COUNT: usize = usize::BITS as usize;

static SLOTS: [OnceLock<DctPlan>; SLOT_COUNT] = [const { OnceLock::new() }; SLOT_COUNT];

/// The shared plan for transforms of length `size`, building (and caching)
/// it on first request.
pub(crate) fn cached(size: Pow2) -> &'static DctPlan {
    SLOTS[size.get().trailing_zeros() as usize].get_or_init(|| DctPlan::new(size))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::tests::{dct2, dst3};
    use std::ptr;

    fn get(size: usize) -> &'static DctPlan {
        cached(Pow2::new(size).unwrap())
    }

    /// Number of distinct sizes currently cached.
    fn cached_sizes() -> usize {
        SLOTS.iter().filter(|slot| slot.get().is_some()).count()
    }

    #[test]
    fn same_size_yields_shared_plan() {
        assert!(ptr::eq(get(32), get(32)));
    }

    #[test]
    fn different_sizes_yield_distinct_plans() {
        let (a, b) = (get(16), get(8));
        assert!(!ptr::eq(a, b));
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn cached_plan_is_bitwise_identical_to_fresh_plan() {
        let cached = get(64);
        let fresh = DctPlan::new(Pow2::new(64).unwrap());
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.31).sin()).collect();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dct2(cached, &x)), bits(&dct2(&fresh, &x)));
        assert_eq!(bits(&dst3(cached, &x)), bits(&dst3(&fresh, &x)));
    }

    #[test]
    fn cache_grows_monotonically() {
        let before = cached_sizes();
        get(256);
        let mid = cached_sizes();
        get(256);
        assert!(mid >= before.max(1));
        assert_eq!(cached_sizes(), mid);
    }

    #[test]
    fn concurrent_gets_converge_to_one_plan() {
        let plans: Vec<&DctPlan> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8).map(|_| scope.spawn(|| get(128))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &plans[1..] {
            assert!(ptr::eq(plans[0], *p));
        }
    }

    #[test]
    fn contended_gets_return_bit_identical_plans() {
        // Many threads hammering the cache concurrently must all land on one
        // shared entry whose transforms agree bit for bit, with no torn
        // initialization.
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.13).cos()).collect();
        let expect: Vec<u64> = dct2(get(512), &x).iter().map(|f| f.to_bits()).collect();
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let (x, expect) = (&x, &expect);
                scope.spawn(move || {
                    for round in 0..50 {
                        let plan = get(512);
                        assert_eq!(plan.len(), 512);
                        if round % 10 == 0 {
                            let got: Vec<u64> = dct2(plan, x).iter().map(|f| f.to_bits()).collect();
                            assert_eq!(&got, expect);
                        }
                    }
                });
            }
        });
    }
}
