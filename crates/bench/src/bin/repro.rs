//! Regenerates the paper's evaluation (§VII): runs every flow of
//! `eplace_bench::paper` once, computes every claim from the runs, writes
//! runs and claims to `BENCH_paper.json` at the repository root and prints
//! the claims as the Markdown table EXPERIMENTS.md quotes.
//!
//! ```text
//! cargo run --release -p eplace-bench --bin repro              # every flow; writes the file
//! cargo run --release -p eplace-bench --bin repro -- --smoke   # a subset, checked against it
//! ```
//!
//! `--smoke` reruns the smallest circuit of each table with every placer
//! and ablation, and the figure flow. Every field of those runs except the
//! clocks (the fields ending in `seconds`) must equal the file's value as
//! written; the first that differs is named and the exit status is 1. It
//! never writes the file. To bless a numerics change, rerun `repro` and
//! commit the file. `--out PATH` names the file to write, or with
//! `--smoke` the file to check against.

use eplace_bench::paper;
use eplace_bench::report::{self, Args};
use eplace_obs::Record;

fn main() {
    let (smoke, out) = Args::from_env(&["smoke", "out"], |a| {
        Ok((a.switch("smoke")?, a.optional::<String>("out")?))
    });
    let flows = paper::flows(smoke);
    let runs: Vec<String> = flows
        .iter()
        .enumerate()
        .map(|(i, flow)| {
            eprintln!("[{}/{}] {}", i + 1, flows.len(), flow.id());
            flow.run()
        })
        .collect();
    let path = report::PAPER.path(out);
    let read = || std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()));
    if smoke {
        if let Err(e) = read().and_then(|doc| paper::compare_runs(&runs, &doc)) {
            eprintln!("repro --smoke: {e}");
            std::process::exit(1);
        }
        println!(
            "repro --smoke: {} runs match {}",
            runs.len(),
            path.display()
        );
        return;
    }
    let claims = paper::claims(&runs);
    let head = Record::new(report::PAPER.bin)
        .u64_field("table12_scale", paper::TABLE12_SCALE as u64)
        .u64_field("table3_scale", paper::TABLE3_SCALE as u64)
        .u64_field("figure_scale", paper::FIGURE_SCALE as u64)
        .raw_field("claims", &format!("[{}]", claims.join(",")));
    report::emit(
        &report::PAPER,
        head,
        &runs,
        Some(path.display().to_string()),
    );
    let table = read().and_then(|doc| paper::claims_table(&doc));
    print!("{}", table.expect("the file just written has claims"));
}
