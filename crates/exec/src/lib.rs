//! Deterministic parallel execution for the ePlace hot-path kernels.
//!
//! ePlace's runtime is dominated by three kernels — the WA wirelength
//! gradient, density deposition, and the 2-D spectral transforms (paper
//! Fig. 7: density 57 %, wirelength 29 % of mGP). This crate gives them a
//! shared threading substrate built on `std::thread::scope`, with two hard
//! guarantees the numerical tests rely on:
//!
//! 1. **`threads = 1` is the serial code.** [`ExecConfig::serial`] takes the
//!    exact same code path as the pre-parallel kernels, so single-threaded
//!    results are bit-for-bit identical to the historical implementation.
//! 2. **Parallel results are deterministic in the thread count.** Work is
//!    split into *fixed* chunks whose boundaries depend only on the problem
//!    size ([`deterministic_chunks`]), each chunk produces an independent
//!    partial result, and partials are reduced **in chunk order** on the
//!    calling thread ([`map_chunks`]). No atomic floats, no
//!    first-come-first-merged races: `threads = 2` and `threads = 8`
//!    produce identical bits.
//!
//! Kernels whose parallel units write to *disjoint* outputs (the row/column
//! passes of the 2-D transforms) do not need chunk reduction at all —
//! [`for_each_unit`] hands each unit to exactly one worker and the result is
//! bitwise independent of the schedule by construction.
//!
//! # Examples
//!
//! ```
//! use eplace_exec::{deterministic_chunks, map_chunks, ExecConfig};
//!
//! let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let exec = ExecConfig::with_threads(4);
//! let chunks = deterministic_chunks(data.len(), 64, 8);
//! let partials = map_chunks(&exec, data.len(), chunks, |_, range| {
//!     data[range].iter().sum::<f64>()
//! });
//! // Reduction order is the chunk order — identical for every thread count.
//! let total: f64 = partials.into_iter().sum();
//! assert_eq!(total, 499_500.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Thread-count knob threaded from `EplaceConfig` down into the kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    threads: usize,
}

impl Default for ExecConfig {
    /// Serial — parallelism is opt-in so library users keep exact
    /// historical results unless they ask otherwise.
    fn default() -> Self {
        ExecConfig::serial()
    }
}

impl ExecConfig {
    /// Single-threaded execution (the exact pre-parallel code path).
    pub fn serial() -> Self {
        ExecConfig { threads: 1 }
    }

    /// One thread per available hardware core.
    pub fn auto() -> Self {
        let n = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        ExecConfig { threads: n.max(1) }
    }

    /// Fixed thread count; `0` means [`ExecConfig::auto`].
    pub fn with_threads(threads: usize) -> Self {
        if threads == 0 {
            ExecConfig::auto()
        } else {
            ExecConfig { threads }
        }
    }

    /// Resolved worker count (always ≥ 1).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when execution is single-threaded.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }
}

/// Number of fixed work chunks for a problem of `len` items: enough to load
/// any realistic machine, few enough that per-chunk scratch stays cheap, and
/// — critically — a function of `len` alone, never of the thread count
/// (chunk boundaries define the floating-point reduction order, so they must
/// not move when the machine changes).
pub fn deterministic_chunks(len: usize, min_chunk: usize, max_chunks: usize) -> usize {
    if len == 0 {
        return 1;
    }
    len.div_ceil(min_chunk.max(1)).clamp(1, max_chunks.max(1))
}

/// Chunk `i` of `0..len` split into `num_chunks` near-equal contiguous
/// ranges — the range [`map_chunks`] and [`for_each_chunk_pooled`] hand to
/// chunk `i`, so callers can split per-chunk output buffers to match.
pub fn chunk_range(len: usize, num_chunks: usize, i: usize) -> Range<usize> {
    let base = len / num_chunks;
    let rem = len % num_chunks;
    let start = i * base + i.min(rem);
    let extra = usize::from(i < rem);
    start..start + base + extra
}

/// Runs `work` over `num_chunks` fixed ranges of `0..len` and returns the
/// per-chunk results **in chunk order**, regardless of which worker finished
/// when. Reducing the returned vector front-to-back therefore gives the same
/// floating-point result for every thread count ≥ 2; with
/// [`ExecConfig::serial`] the chunks run inline on the calling thread in
/// order, with no thread machinery at all.
pub fn map_chunks<S, F>(exec: &ExecConfig, len: usize, num_chunks: usize, work: F) -> Vec<S>
where
    S: Send,
    F: Fn(usize, Range<usize>) -> S + Sync,
{
    let num_chunks = num_chunks.max(1);
    if exec.is_serial() || num_chunks == 1 {
        return (0..num_chunks)
            .map(|i| work(i, chunk_range(len, num_chunks, i)))
            .collect();
    }
    let slots: Vec<Mutex<Option<S>>> = (0..num_chunks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = exec.threads().min(num_chunks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_chunks {
                    break;
                }
                let result = work(i, chunk_range(len, num_chunks, i));
                // A worker never panics while holding the lock (the store is
                // the only operation inside), so poison cannot carry state;
                // recover rather than unwrap to keep the guarantee local.
                *slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            match slot
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
            {
                Some(result) => result,
                // The scope joins every worker and each index is claimed by
                // exactly one of them, so an empty slot is unreachable.
                None => unreachable!("every chunk slot is filled before the scope ends"),
            }
        })
        .collect()
}

/// Applies `work` to each consecutive `unit_len` block of `data` (e.g. each
/// row of a row-major grid), distributing whole units across workers. Every
/// unit is written by exactly one worker and units are disjoint, so the
/// output is bitwise identical for every thread count. Each worker gets one
/// scratch object from `make_scratch`, reused across all its units.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `unit_len`.
pub fn for_each_unit<T, S, M, F>(
    exec: &ExecConfig,
    data: &mut [T],
    unit_len: usize,
    make_scratch: M,
    work: F,
) where
    T: Send,
    S: Send,
    M: Fn() -> S + Sync,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(unit_len > 0, "unit length must be positive");
    assert_eq!(
        data.len() % unit_len,
        0,
        "data length {} is not a multiple of unit length {}",
        data.len(),
        unit_len
    );
    let units = data.len() / unit_len;
    if exec.is_serial() || units <= 1 {
        let mut scratch = make_scratch();
        for (i, unit) in data.chunks_mut(unit_len).enumerate() {
            work(i, unit, &mut scratch);
        }
        return;
    }
    let workers = exec.threads().min(units);
    std::thread::scope(|scope| {
        let mut rest = data;
        let base = units / workers;
        let rem = units % workers;
        let mut first_unit = 0;
        for w in 0..workers {
            let take = (base + usize::from(w < rem)) * unit_len;
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let start = first_unit;
            first_unit += take / unit_len;
            let make_scratch = &make_scratch;
            let work = &work;
            scope.spawn(move || {
                let mut scratch = make_scratch();
                for (k, unit) in mine.chunks_mut(unit_len).enumerate() {
                    work(start + k, unit, &mut scratch);
                }
            });
        }
    });
}

/// [`for_each_unit`] with caller-owned scratch: instead of building one
/// scratch per worker per call, `pool` is topped up to the worker count with
/// `make_scratch` (on the calling thread) and each worker borrows one slot,
/// so steady-state calls allocate nothing. Scratch contents persist between
/// calls; `work` must not read scratch state it has not written this call —
/// the same contract the per-worker reuse across units already imposes.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `unit_len`.
pub fn for_each_unit_pooled<T, S, M, F>(
    exec: &ExecConfig,
    data: &mut [T],
    unit_len: usize,
    pool: &mut Vec<S>,
    make_scratch: M,
    work: F,
) where
    T: Send,
    S: Send,
    M: Fn() -> S,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(unit_len > 0, "unit length must be positive");
    assert_eq!(
        data.len() % unit_len,
        0,
        "data length {} is not a multiple of unit length {}",
        data.len(),
        unit_len
    );
    let units = data.len() / unit_len;
    let workers = if exec.is_serial() || units <= 1 {
        1
    } else {
        exec.threads().min(units)
    };
    while pool.len() < workers {
        pool.push(make_scratch());
    }
    if workers == 1 {
        let scratch = &mut pool[0];
        for (i, unit) in data.chunks_mut(unit_len).enumerate() {
            work(i, unit, scratch);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut scratches = &mut pool[..workers];
        let base = units / workers;
        let rem = units % workers;
        let mut first_unit = 0;
        for w in 0..workers {
            let take = (base + usize::from(w < rem)) * unit_len;
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let (slot, scratch_tail) = scratches.split_at_mut(1);
            scratches = scratch_tail;
            let start = first_unit;
            first_unit += take / unit_len;
            let work = &work;
            scope.spawn(move || {
                let scratch = &mut slot[0];
                for (k, unit) in mine.chunks_mut(unit_len).enumerate() {
                    work(start + k, unit, scratch);
                }
            });
        }
    });
}

/// A precomputed unit-distribution schedule: which contiguous span of units
/// each worker owns for a fixed `(units, threads)` pair.
///
/// [`for_each_unit_pooled`] recomputes the worker count and the base/remainder
/// split on every call; a `UnitSchedule` captures that split once (plans cache
/// one per `ExecConfig`) and [`for_each_unit_scheduled`] replays it. The spans
/// are the *exact* partition `for_each_unit_pooled` would produce for the same
/// inputs, so swapping one for the other never moves a unit between workers —
/// and unit outputs are disjoint, so results stay bitwise identical either
/// way.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitSchedule {
    units: usize,
    threads: usize,
    /// Per-worker unit spans, in worker order; they tile `0..units` exactly.
    spans: Vec<Range<usize>>,
}

impl UnitSchedule {
    /// Computes the schedule for `units` work units under `exec` — the same
    /// `workers = threads.min(units)` count and base/remainder split the
    /// unscheduled entry points use.
    pub fn new(units: usize, exec: &ExecConfig) -> Self {
        let threads = exec.threads();
        let workers = if exec.is_serial() || units <= 1 {
            1
        } else {
            threads.min(units)
        };
        let base = units / workers;
        let rem = units % workers;
        let mut spans = Vec::with_capacity(workers);
        let mut first = 0;
        for w in 0..workers {
            let take = base + usize::from(w < rem);
            spans.push(first..first + take);
            first += take;
        }
        UnitSchedule {
            units,
            threads,
            spans,
        }
    }

    /// The number of work units this schedule distributes.
    #[inline]
    pub fn units(&self) -> usize {
        self.units
    }

    /// The thread count the schedule was computed for.
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The number of workers that will actually run (`threads.min(units)`,
    /// floored at 1).
    #[inline]
    pub fn workers(&self) -> usize {
        self.spans.len()
    }

    /// The per-worker unit spans, in worker order.
    #[inline]
    pub fn spans(&self) -> &[Range<usize>] {
        &self.spans
    }
}

/// [`for_each_unit_pooled`] driven by a precomputed [`UnitSchedule`] instead
/// of a per-call split. The schedule must have been built for
/// `data.len() / unit_len` units; worker `w` processes exactly the units in
/// `schedule.spans()[w]`, with `pool[w]` as its scratch.
///
/// # Panics
///
/// Panics if `data.len()` is not a multiple of `unit_len`, or if the
/// schedule's unit count differs from `data.len() / unit_len`.
pub fn for_each_unit_scheduled<T, S, M, F>(
    schedule: &UnitSchedule,
    data: &mut [T],
    unit_len: usize,
    pool: &mut Vec<S>,
    make_scratch: M,
    work: F,
) where
    T: Send,
    S: Send,
    M: Fn() -> S,
    F: Fn(usize, &mut [T], &mut S) + Sync,
{
    assert!(unit_len > 0, "unit length must be positive");
    assert_eq!(
        data.len() % unit_len,
        0,
        "data length {} is not a multiple of unit length {}",
        data.len(),
        unit_len
    );
    let units = data.len() / unit_len;
    assert_eq!(
        schedule.units, units,
        "schedule built for {} units applied to {}",
        schedule.units, units
    );
    let workers = schedule.workers();
    while pool.len() < workers {
        pool.push(make_scratch());
    }
    if workers == 1 {
        let scratch = &mut pool[0];
        for (i, unit) in data.chunks_mut(unit_len).enumerate() {
            work(i, unit, scratch);
        }
        return;
    }
    std::thread::scope(|scope| {
        let mut rest = data;
        let mut scratches = &mut pool[..workers];
        for span in &schedule.spans {
            let take = span.len() * unit_len;
            let (mine, tail) = rest.split_at_mut(take);
            rest = tail;
            let (slot, scratch_tail) = scratches.split_at_mut(1);
            scratches = scratch_tail;
            let start = span.start;
            let work = &work;
            scope.spawn(move || {
                let scratch = &mut slot[0];
                for (k, unit) in mine.chunks_mut(unit_len).enumerate() {
                    work(start + k, unit, scratch);
                }
            });
        }
    });
}

/// [`map_chunks`] with caller-owned per-chunk state: chunk `i` of
/// `num_chunks` fixed ranges of `0..len` runs `work(i, range, &mut pool[i])`
/// exactly once, with `pool` topped up beforehand via `make_scratch` (on the
/// calling thread). After the call `pool[..num_chunks]` holds the per-chunk
/// results in chunk order — reduce them front-to-back for a thread-count
/// invariant result, then hand the same pool back next call so steady-state
/// iterations allocate nothing. `work` is responsible for resetting any
/// state left from the previous call.
pub fn for_each_chunk_pooled<S, M, F>(
    exec: &ExecConfig,
    len: usize,
    num_chunks: usize,
    pool: &mut Vec<S>,
    make_scratch: M,
    work: F,
) where
    S: Send,
    M: Fn() -> S,
    F: Fn(usize, Range<usize>, &mut S) + Sync,
{
    let num_chunks = num_chunks.max(1);
    while pool.len() < num_chunks {
        pool.push(make_scratch());
    }
    if exec.is_serial() || num_chunks == 1 {
        for (i, scratch) in pool.iter_mut().enumerate().take(num_chunks) {
            work(i, chunk_range(len, num_chunks, i), scratch);
        }
        return;
    }
    // Dynamic chunk claiming as in `map_chunks`; each slot's mutex is locked
    // exactly once, by the worker that claimed its index.
    let slots: Vec<Mutex<&mut S>> = pool.iter_mut().take(num_chunks).map(Mutex::new).collect();
    let next = AtomicUsize::new(0);
    let workers = exec.threads().min(num_chunks);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= num_chunks {
                    break;
                }
                let mut slot = slots[i]
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                work(i, chunk_range(len, num_chunks, i), &mut slot);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_config_is_default() {
        assert_eq!(ExecConfig::default(), ExecConfig::serial());
        assert!(ExecConfig::serial().is_serial());
        assert_eq!(ExecConfig::with_threads(3).threads(), 3);
        assert!(ExecConfig::with_threads(0).threads() >= 1);
    }

    #[test]
    fn chunk_ranges_tile_exactly() {
        for &(len, n) in &[(10usize, 3usize), (7, 7), (100, 8), (5, 16), (0, 4)] {
            let n = n.max(1);
            let mut covered = 0;
            for i in 0..n {
                let r = chunk_range(len, n, i);
                assert_eq!(r.start, covered, "len {len} chunks {n}");
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn deterministic_chunks_ignores_thread_count() {
        // The policy is a pure function of the problem size.
        assert_eq!(deterministic_chunks(0, 64, 8), 1);
        assert_eq!(deterministic_chunks(63, 64, 8), 1);
        assert_eq!(deterministic_chunks(65, 64, 8), 2);
        assert_eq!(deterministic_chunks(1 << 20, 64, 8), 8);
    }

    fn noisy_sum(range: Range<usize>) -> f64 {
        // A sum whose value depends on the association order, to detect any
        // merge-order nondeterminism.
        range
            .map(|i| ((i * 2654435761) % 1000) as f64 * 1e-3 + 1e10)
            .sum()
    }

    #[test]
    fn map_chunks_matches_serial_for_every_thread_count() {
        let len = 10_000;
        let chunks = deterministic_chunks(len, 512, 8);
        let reduce = |exec: &ExecConfig| {
            map_chunks(exec, len, chunks, |_, r| noisy_sum(r))
                .into_iter()
                .fold(0.0, |acc, x| acc + x)
        };
        let serial = reduce(&ExecConfig::serial());
        for threads in [2, 3, 5, 8] {
            let parallel = reduce(&ExecConfig::with_threads(threads));
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads {threads}");
        }
    }

    #[test]
    fn map_chunks_preserves_chunk_order() {
        let got = map_chunks(&ExecConfig::with_threads(4), 100, 10, |i, r| (i, r.start));
        for (i, &(idx, start)) in got.iter().enumerate() {
            assert_eq!(idx, i);
            assert_eq!(start, i * 10);
        }
    }

    #[test]
    fn for_each_unit_is_thread_count_invariant() {
        let run = |threads| {
            let mut data: Vec<f64> = (0..64 * 16).map(|i| (i % 97) as f64).collect();
            for_each_unit(
                &ExecConfig::with_threads(threads),
                &mut data,
                64,
                || vec![0.0f64; 64],
                |i, unit, scratch| {
                    for (k, v) in unit.iter_mut().enumerate() {
                        scratch[k] = *v * (i + 1) as f64;
                    }
                    unit.copy_from_slice(scratch);
                },
            );
            data
        };
        let serial = run(1);
        for threads in [2, 4, 16] {
            assert_eq!(serial, run(threads), "threads {threads}");
        }
    }

    #[test]
    fn for_each_unit_visits_every_unit_once() {
        let mut data = vec![0u64; 8 * 13];
        for_each_unit(
            &ExecConfig::with_threads(3),
            &mut data,
            13,
            || (),
            |i, unit, _| {
                for v in unit.iter_mut() {
                    *v += i as u64 + 1;
                }
            },
        );
        for (i, block) in data.chunks(13).enumerate() {
            assert!(block.iter().all(|&v| v == i as u64 + 1));
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn for_each_unit_rejects_ragged_data() {
        let mut data = vec![0.0f64; 10];
        for_each_unit(&ExecConfig::serial(), &mut data, 3, || (), |_, _, _| {});
    }

    #[test]
    fn map_chunks_handles_empty_input() {
        let out = map_chunks(&ExecConfig::with_threads(4), 0, 1, |_, r| r.len());
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn pooled_units_match_fresh_scratch_and_reuse_pool() {
        let run = |threads: usize, pool: &mut Vec<Vec<f64>>| {
            let mut data: Vec<f64> = (0..64 * 16).map(|i| (i % 97) as f64).collect();
            for_each_unit_pooled(
                &ExecConfig::with_threads(threads),
                &mut data,
                64,
                pool,
                || vec![0.0f64; 64],
                |i, unit, scratch| {
                    for (k, v) in unit.iter_mut().enumerate() {
                        scratch[k] = *v * (i + 1) as f64;
                    }
                    unit.copy_from_slice(scratch);
                },
            );
            data
        };
        let mut pool = Vec::new();
        let serial = run(1, &mut pool);
        assert_eq!(pool.len(), 1);
        for threads in [2, 4, 16] {
            let mut pool = Vec::new();
            assert_eq!(serial, run(threads, &mut pool), "threads {threads}");
            assert_eq!(pool.len(), threads.min(16));
            // Second call reuses the pool without growing it.
            assert_eq!(serial, run(threads, &mut pool), "threads {threads}");
            assert_eq!(pool.len(), threads.min(16));
        }
    }

    #[test]
    fn unit_schedule_replicates_pooled_partition() {
        // The schedule's spans must be the exact partition
        // for_each_unit_pooled derives inline: workers = threads.min(units),
        // earlier workers take the remainder units.
        for &(units, threads) in &[(16usize, 4usize), (7, 3), (5, 8), (1, 4), (0, 2), (97, 6)] {
            let sched = UnitSchedule::new(units, &ExecConfig::with_threads(threads));
            assert_eq!(sched.units(), units);
            assert_eq!(sched.threads(), threads);
            let workers = if units <= 1 { 1 } else { threads.min(units) };
            assert_eq!(sched.workers(), workers);
            let (base, rem) = (units / workers, units % workers);
            let mut covered = 0;
            for (w, span) in sched.spans().iter().enumerate() {
                assert_eq!(span.start, covered, "units {units} threads {threads}");
                assert_eq!(span.len(), base + usize::from(w < rem));
                covered = span.end;
            }
            assert_eq!(covered, units);
        }
        // Serial config always collapses to one worker.
        assert_eq!(UnitSchedule::new(64, &ExecConfig::serial()).workers(), 1);
    }

    #[test]
    fn scheduled_units_match_pooled_bitwise() {
        let work = |i: usize, unit: &mut [f64], scratch: &mut Vec<f64>| {
            for (k, v) in unit.iter_mut().enumerate() {
                scratch[k] = *v * (i + 1) as f64 + 0.1;
            }
            unit.copy_from_slice(scratch);
        };
        let mut expect: Vec<f64> = (0..64 * 16).map(|i| (i % 97) as f64).collect();
        for_each_unit_pooled(
            &ExecConfig::with_threads(5),
            &mut expect,
            64,
            &mut Vec::new(),
            || vec![0.0f64; 64],
            work,
        );
        for threads in [1usize, 2, 3, 8] {
            let exec = ExecConfig::with_threads(threads);
            let sched = UnitSchedule::new(16, &exec);
            let mut data: Vec<f64> = (0..64 * 16).map(|i| (i % 97) as f64).collect();
            let mut pool = Vec::new();
            for_each_unit_scheduled(&sched, &mut data, 64, &mut pool, || vec![0.0f64; 64], work);
            assert_eq!(pool.len(), sched.workers());
            let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&expect), bits(&data), "threads {threads}");
        }
    }

    #[test]
    #[should_panic(expected = "schedule built for")]
    fn scheduled_units_reject_mismatched_unit_count() {
        let sched = UnitSchedule::new(4, &ExecConfig::with_threads(2));
        let mut data = vec![0.0f64; 64 * 16];
        for_each_unit_scheduled(&sched, &mut data, 64, &mut Vec::new(), || (), |_, _, _| {});
    }

    #[test]
    fn pooled_chunks_fill_in_chunk_order_and_reuse_pool() {
        let len = 10_000;
        let chunks = deterministic_chunks(len, 512, 8);
        let reduce = |exec: &ExecConfig, pool: &mut Vec<f64>| {
            for_each_chunk_pooled(
                exec,
                len,
                chunks,
                pool,
                || 0.0,
                |_, r, acc| {
                    *acc = noisy_sum(r);
                },
            );
            pool.iter().take(chunks).fold(0.0, |acc, x| acc + x)
        };
        let mut pool = Vec::new();
        let serial = reduce(&ExecConfig::serial(), &mut pool);
        assert_eq!(pool.len(), chunks);
        for threads in [2, 3, 8] {
            let mut pool = Vec::new();
            let parallel = reduce(&ExecConfig::with_threads(threads), &mut pool);
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads {threads}");
            // Stale pool contents are overwritten, not accumulated.
            let again = reduce(&ExecConfig::with_threads(threads), &mut pool);
            assert_eq!(serial.to_bits(), again.to_bits(), "threads {threads}");
            assert_eq!(pool.len(), chunks);
        }
    }
}
