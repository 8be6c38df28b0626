//! Shared harness for the `repro` and `bench_*` binaries. [`paper`] holds
//! the paper's evaluation — every flow `repro` runs and every claim it
//! computes from them (DESIGN.md §3); [`report`] holds the flag parser, the
//! `BENCH_*.json` writer and the smoke-run comparator every binary shares.

pub mod paper;
pub mod report;
