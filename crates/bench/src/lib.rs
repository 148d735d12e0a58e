//! Shared experiment driver for the per-figure bench targets.
//!
//! Every table and figure of the paper has a `[[bench]]` target (with
//! `harness = false`) in this crate; each target calls into this library
//! to run the needed (mix × scheme) matrix, print a paper-style table to
//! stdout, and drop a CSV under `target/experiments/` so EXPERIMENTS.md
//! numbers are regenerable.
//!
//! Scale is controlled by the `CAMPS_BENCH_SCALE` environment variable:
//! `quick` (default; minutes for the full set), `standard`, or
//! `thorough`.
//!
//! The bench binaries share [`gate`], through which every `--check`
//! reads the committed perf baseline, and [`workload`], the workloads
//! the engine benches measure.

#![warn(missing_docs)]

pub mod driver;
pub mod gate;
pub mod table;
pub mod workload;

pub use driver::{
    ablation_sweep, bench_length, experiments_dir, figure_results, write_csv, ABLATION_MIXES,
    FIGURE_SEED,
};
pub use gate::Baseline;
pub use table::{bar_chart, TableWriter};
pub use workload::{config_for, traces_for};
