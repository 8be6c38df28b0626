//! Process-wide cache of [`DctPlan`]s, one per transform length.
//!
//! Plan construction is `O(N)` memory but `O(N)` libm trigonometry calls —
//! comfortably the most expensive part of standing up a transform. The
//! placer builds a `Transform2d` per density grid and rebuilds the grid at
//! every GP stage, so without a cache the same twiddle/cosine tables would
//! be recomputed at every stage.
//! [`SpectralPlan::get`] computes each size's tables exactly once per
//! process and hands out shared references afterwards.
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
use eplace_errors::EplaceError;
use std::ops::Deref;
use std::sync::OnceLock;

/// One slot per possible power-of-two size on a 64-bit machine.
const SLOT_COUNT: usize = usize::BITS as usize;

static SLOTS: [OnceLock<DctPlan>; SLOT_COUNT] = [const { OnceLock::new() }; SLOT_COUNT];

/// A shared, immutable [`DctPlan`] from the process-wide per-size cache.
///
/// Dereferences to [`DctPlan`], so every transform entry point is available
/// directly. Cloning copies a reference.
///
/// # Examples
///
/// ```
/// use eplace_spectral::SpectralPlan;
///
/// let a = SpectralPlan::get(64).unwrap();
/// let b = SpectralPlan::get(64).unwrap();
/// assert!(a.shares_tables_with(&b)); // same tables, built once
/// assert_eq!(a.len(), 64);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct SpectralPlan {
    plan: &'static DctPlan,
}

impl SpectralPlan {
    /// The shared plan for transforms of length `size`, building (and
    /// caching) it on first request.
    ///
    /// # Errors
    ///
    /// [`EplaceError::Validation`] when `size` is not a power of two.
    pub fn get(size: usize) -> Result<Self, EplaceError> {
        Pow2::new(size).map(Self::for_pow2)
    }

    /// [`SpectralPlan::get`] for a checked-at-construction size — infallible.
    pub fn for_pow2(size: Pow2) -> Self {
        let slot = &SLOTS[size.get().trailing_zeros() as usize];
        SpectralPlan {
            plan: slot.get_or_init(|| DctPlan::for_pow2(size)),
        }
    }

    /// `true` when `self` and `other` share one cached table set.
    pub fn shares_tables_with(&self, other: &SpectralPlan) -> bool {
        std::ptr::eq(self.plan, other.plan)
    }

    /// Number of distinct sizes currently cached (diagnostics/tests).
    pub fn cached_sizes() -> usize {
        SLOTS.iter().filter(|slot| slot.get().is_some()).count()
    }
}

impl Deref for SpectralPlan {
    type Target = DctPlan;

    fn deref(&self) -> &DctPlan {
        self.plan
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dct::tests::{dct2, dst3};

    #[test]
    fn same_size_yields_shared_plan() {
        let a = SpectralPlan::get(32).unwrap();
        let b = SpectralPlan::get(32).unwrap();
        assert!(a.shares_tables_with(&b));
        assert!(a.shares_tables_with(&a.clone()));
    }

    #[test]
    fn different_sizes_yield_distinct_plans() {
        let a = SpectralPlan::get(16).unwrap();
        let b = SpectralPlan::get(8).unwrap();
        assert!(!a.shares_tables_with(&b));
        assert_eq!(a.len(), 16);
        assert_eq!(b.len(), 8);
    }

    #[test]
    fn non_power_of_two_size_is_a_typed_error() {
        assert!(SpectralPlan::get(12).is_err());
        assert!(SpectralPlan::get(0).is_err());
    }

    #[test]
    fn cached_plan_is_bitwise_identical_to_fresh_plan() {
        let cached = SpectralPlan::get(64).unwrap();
        let fresh = DctPlan::new(64).unwrap();
        let x: Vec<f64> = (0..64).map(|i| (i as f64 * 0.31).sin()).collect();
        let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&dct2(&cached, &x)), bits(&dct2(&fresh, &x)));
        assert_eq!(bits(&dst3(&cached, &x)), bits(&dst3(&fresh, &x)));
    }

    #[test]
    fn cache_grows_monotonically() {
        let before = SpectralPlan::cached_sizes();
        let _ = SpectralPlan::get(256).unwrap();
        let mid = SpectralPlan::cached_sizes();
        let _ = SpectralPlan::get(256).unwrap();
        assert!(mid >= before.max(1));
        assert_eq!(SpectralPlan::cached_sizes(), mid);
    }

    #[test]
    fn concurrent_gets_converge_to_one_plan() {
        let plans: Vec<SpectralPlan> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(|| SpectralPlan::get(128).unwrap()))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for p in &plans[1..] {
            assert!(plans[0].shares_tables_with(p));
        }
    }

    #[test]
    fn contended_gets_return_bit_identical_plans() {
        // Many threads hammering get() concurrently must all land on one
        // shared entry whose transforms agree bit for bit, with no torn
        // initialization.
        let x: Vec<f64> = (0..512).map(|i| (i as f64 * 0.13).cos()).collect();
        let expect: Vec<u64> = dct2(&SpectralPlan::get(512).unwrap(), &x)
            .iter()
            .map(|f| f.to_bits())
            .collect();
        std::thread::scope(|scope| {
            for _ in 0..16 {
                let (x, expect) = (&x, &expect);
                scope.spawn(move || {
                    for round in 0..50 {
                        let plan = SpectralPlan::get(512).unwrap();
                        assert_eq!(plan.len(), 512);
                        if round % 10 == 0 {
                            let got: Vec<u64> =
                                dct2(&plan, x).iter().map(|f| f.to_bits()).collect();
                            assert_eq!(&got, expect);
                        }
                    }
                });
            }
        });
    }
}
