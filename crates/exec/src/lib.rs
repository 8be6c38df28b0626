//! Deterministic parallel execution for the ePlace hot-path kernels.
//!
//! ePlace's runtime is dominated by three kernels — the WA wirelength
//! gradient, density deposition, and the 2-D spectral transforms (paper
//! Fig. 7: density 57 %, wirelength 29 % of mGP). This crate is the only
//! code that splits their work across threads. It has two run functions,
//! built on one `std::thread::scope`:
//!
//! * [`for_each_chunk`] runs a kernel once per caller-owned chunk state;
//! * [`for_each_unit`] runs a kernel over the equal-length units (rows or
//!   columns) of a buffer, one pooled scratch per worker.
//!
//! Two guarantees hold, and the numerical tests rely on them:
//!
//! 1. **`threads = 1` is the serial code.** With [`ExecConfig::serial`]
//!    every chunk and unit runs in index order on the calling thread, with
//!    no thread machinery at all.
//! 2. **Parallel results are deterministic in the thread count.** Chunk
//!    boundaries depend only on the problem size ([`deterministic_chunks`],
//!    [`chunk_range`]), each chunk writes only its own state, and callers
//!    reduce the states **in chunk order** on the calling thread. Units
//!    write disjoint outputs. No atomic floats, no first-come-first-merged
//!    races: `threads = 2` and `threads = 8` produce identical bits.
//!
//! Workers take contiguous runs of chunks, split statically: since a
//! chunk's result does not depend on which worker computes it, which
//! worker that is never shows in the bits.
//!
//! # Examples
//!
//! ```
//! use eplace_exec::{chunk_range, deterministic_chunks, for_each_chunk, ExecConfig};
//!
//! let data: Vec<f64> = (0..1000).map(|i| i as f64).collect();
//! let exec = ExecConfig::with_threads(4);
//! let chunks = deterministic_chunks(data.len(), 64, 8);
//! let mut partials = vec![0.0; chunks];
//! for_each_chunk(&exec, &mut partials, |i, sum| {
//!     *sum = data[chunk_range(data.len(), chunks, i)].iter().sum::<f64>();
//! });
//! // Reduction order is the chunk order — identical for every thread count.
//! let total: f64 = partials.into_iter().sum();
//! assert_eq!(total, 499_500.0);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use std::ops::Range;

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
/// ranges, earlier chunks taking the remainder. Callers of
/// [`for_each_chunk`] use it to find the items of chunk `i`.
pub fn chunk_range(len: usize, num_chunks: usize, i: usize) -> Range<usize> {
    let base = len / num_chunks;
    let rem = len % num_chunks;
    let start = i * base + i.min(rem);
    let extra = usize::from(i < rem);
    start..start + base + extra
}

/// Runs `work(i, &mut states[i])` exactly once for every state.
///
/// Serially, the states run in index order on the calling thread.
/// Otherwise they are split into `min(threads, states.len())` contiguous
/// runs ([`chunk_range`] over the states), one scoped worker each; the
/// calling thread takes the last run. Each state is written by its own
/// chunk alone, so reducing the states front to back afterwards gives the
/// same floating-point result for every thread count. `work` must reset
/// whatever a state kept from an earlier call.
pub fn for_each_chunk<S, F>(exec: &ExecConfig, states: &mut [S], work: F)
where
    S: Send,
    F: Fn(usize, &mut S) + Sync,
{
    let len = states.len();
    let workers = exec.threads().min(len);
    if workers <= 1 {
        for (i, state) in states.iter_mut().enumerate() {
            work(i, state);
        }
        return;
    }
    let work = &work;
    let run = move |first: usize, mine: &mut [S]| {
        for (k, state) in mine.iter_mut().enumerate() {
            work(first + k, state);
        }
    };
    std::thread::scope(|scope| {
        let mut rest = states;
        for w in 0..workers - 1 {
            let span = chunk_range(len, workers, w);
            let (mine, tail) = rest.split_at_mut(span.len());
            rest = tail;
            scope.spawn(move || run(span.start, mine));
        }
        run(chunk_range(len, workers, workers - 1).start, rest);
    });
}

/// Applies `work(i, unit, scratch)` to each consecutive `unit_len` block of
/// `data` (each row of a row-major grid, say). Workers take contiguous runs
/// of whole units ([`chunk_range`] over `min(threads, units)` workers)
/// through [`for_each_chunk`]; each unit is written by exactly one worker
/// and units are disjoint, so the output is bitwise identical for every
/// thread count.
///
/// `pool` is topped up to the worker count with `make_scratch` on the
/// calling thread, and worker `w` borrows `pool[w]` for all its units, so
/// steady-state calls build no scratch (and the serial path allocates
/// nothing). Scratch contents persist between calls: `work` must not read
/// scratch state it has not written this call.
///
/// # Panics
///
/// Panics if `unit_len` is zero or `data.len()` is not a multiple of it.
pub fn for_each_unit<T, S, M, F>(
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
    let workers = exec.threads().min(units).max(1);
    if pool.len() < workers {
        pool.resize_with(workers, make_scratch);
    }
    if workers == 1 {
        let scratch = &mut pool[0];
        for (i, unit) in data.chunks_mut(unit_len).enumerate() {
            work(i, unit, scratch);
        }
        return;
    }
    let mut rest = data;
    let mut runs: Vec<(&mut [T], &mut S)> = Vec::with_capacity(workers);
    for (w, scratch) in pool[..workers].iter_mut().enumerate() {
        let (mine, tail) = rest.split_at_mut(chunk_range(units, workers, w).len() * unit_len);
        rest = tail;
        runs.push((mine, scratch));
    }
    for_each_chunk(exec, &mut runs, |w, (mine, scratch)| {
        let first = chunk_range(units, workers, w).start;
        for (k, unit) in mine.chunks_mut(unit_len).enumerate() {
            work(first + k, unit, scratch);
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

    /// A chunked map as the kernels write it with [`for_each_chunk`]: one
    /// output slot per chunk of `0..len`, filled by `work(i, range)`.
    fn map_chunks<R, F>(exec: &ExecConfig, len: usize, num_chunks: usize, work: F) -> Vec<R>
    where
        R: Default + Send,
        F: Fn(usize, Range<usize>) -> R + Sync,
    {
        let mut out: Vec<R> = std::iter::repeat_with(R::default)
            .take(num_chunks)
            .collect();
        for_each_chunk(exec, &mut out, |i, slot| {
            *slot = work(i, chunk_range(len, num_chunks, i));
        });
        out
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
    fn map_chunks_handles_empty_input() {
        let out = map_chunks(&ExecConfig::with_threads(4), 0, 1, |_, r| r.len());
        assert_eq!(out, vec![0]);
    }

    #[test]
    fn for_each_chunk_runs_each_state_once_with_its_index() {
        for threads in [1, 2, 3, 4, 16] {
            let exec = ExecConfig::with_threads(threads);
            // (index seen, times run)
            let mut states = vec![(usize::MAX, 0usize); 10];
            for_each_chunk(&exec, &mut states, |i, (seen, runs)| {
                *seen = i;
                *runs += 1;
            });
            for (i, &(seen, runs)) in states.iter().enumerate() {
                assert_eq!((seen, runs), (i, 1), "threads {threads}");
            }
            // No states: nothing runs, nothing panics.
            for_each_chunk(&exec, &mut [] as &mut [u8], |_, _| unreachable!());
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
                &mut Vec::new(),
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
        for threads in [1, 3, 8, 13] {
            let mut data = vec![0u64; 8 * 13];
            for_each_unit(
                &ExecConfig::with_threads(threads),
                &mut data,
                13,
                &mut Vec::new(),
                || (),
                |i, unit, _| {
                    for v in unit.iter_mut() {
                        *v += i as u64 + 1;
                    }
                },
            );
            for (i, block) in data.chunks(13).enumerate() {
                assert!(
                    block.iter().all(|&v| v == i as u64 + 1),
                    "threads {threads}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn for_each_unit_rejects_ragged_data() {
        let mut data = vec![0.0f64; 10];
        for_each_unit(
            &ExecConfig::serial(),
            &mut data,
            3,
            &mut Vec::new(),
            || (),
            |_, _, _| {},
        );
    }

    #[test]
    fn pooled_units_match_fresh_scratch_and_reuse_pool() {
        let run = |threads: usize, pool: &mut Vec<Vec<f64>>| {
            let mut data: Vec<f64> = (0..64 * 16).map(|i| (i % 97) as f64).collect();
            for_each_unit(
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
    fn pooled_chunks_fill_in_chunk_order_and_reuse_pool() {
        let len = 10_000;
        let chunks = deterministic_chunks(len, 512, 8);
        let reduce = |exec: &ExecConfig, pool: &mut [f64]| {
            for_each_chunk(exec, pool, |i, acc| {
                *acc = noisy_sum(chunk_range(len, chunks, i));
            });
            pool.iter().fold(0.0, |acc, x| acc + x)
        };
        let serial = reduce(&ExecConfig::serial(), &mut vec![0.0; chunks]);
        for threads in [2, 3, 5, 8] {
            let mut pool = vec![0.0; chunks];
            let parallel = reduce(&ExecConfig::with_threads(threads), &mut pool);
            assert_eq!(serial.to_bits(), parallel.to_bits(), "threads {threads}");
            // Stale pool contents are overwritten, not accumulated.
            let again = reduce(&ExecConfig::with_threads(threads), &mut pool);
            assert_eq!(serial.to_bits(), again.to_bits(), "threads {threads}");
        }
    }
}
