//! Shared harness for the `repro` and `bench_*` binaries. [`paper`] holds
//! the paper's evaluation — every flow `repro` runs and every claim it
//! computes from them (DESIGN.md §3); [`report`] holds the flag parser and
//! the `BENCH_*.json` writer every binary shares, and [`timing`] the
//! kernel benches' stopwatch.

pub mod paper;
pub mod report;
pub mod timing;
