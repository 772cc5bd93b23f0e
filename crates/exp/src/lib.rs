//! # fpga-rt-exp
//!
//! Experiment harness regenerating every table and figure of the paper's
//! evaluation (Section 6), plus the ablation and extension studies indexed
//! in DESIGN.md.
//!
//! * [`tables`] — the three discriminating example tasksets (Tables 1–3)
//!   with the full verdict matrix in both `f64` and exact arithmetic, a
//!   simulation cross-check, and the paper's GN2 λ walkthrough for
//!   Table 3 (`fpga-rt tables`).
//! * [`acceptance`] — the acceptance-ratio sweep vocabulary behind
//!   Figures 3(a)–4(b): a pluggable evaluator list (analytic tests and
//!   simulations), the result types and the per-sample seed derivation.
//! * [`sweep`] — the one sweep runner, on the shared worker pool
//!   ([`fpga_rt_pool::ShardedPool`]): acceptance curves at any population
//!   size, byte-identical across worker counts (`fpga-rt sweep`).
//! * [`studies`] — the figure sweep with both simulations, the ablations
//!   and the extension studies (`fpga-rt study <name>`).
//! * [`output`] — aligned-text / CSV rendering of result series.
//! * [`ablations`] — the X1/X2/X3 configuration ablations.
//!
//! The `fpga-rt` command line (crate `fpga-rt-cli`) is the front end;
//! this crate holds no binaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablations;
pub mod acceptance;
pub mod output;
pub mod studies;
pub mod sweep;
pub mod tables;

pub use acceptance::{standard_evaluators, AcceptanceSeries, Evaluator, SeriesPoint, SweepResult};
pub use studies::{Study, StudyConfig, StudyOutput, DEFAULT_SEED};
pub use sweep::{analysis_evaluators, run_pool_sweep, PoolSweepConfig, PoolSweepOutcome};
pub use tables::{paper_tables, TableCase, VerdictRow};
