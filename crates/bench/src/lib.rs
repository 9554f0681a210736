//! # liger-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§4). Each `src/bin/` binary corresponds to one
//! table/figure and prints the same rows/series the paper reports;
//! `EXPERIMENTS.md` at the repository root records paper-vs-measured.
//!
//! The [`harness`] module contains the shared machinery: node descriptions
//! (the paper's two testbeds), engine construction, trace building, a
//! std-thread parallel sweep driver and plain-text table formatting. The
//! [`micro`] module is the tiny `std::time::Instant` timing loop behind the
//! `benches/` binaries. No external crates are involved anywhere.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod harness;
pub mod micro;

pub use harness::{
    arg_faults, arg_flag, arg_parse, arg_value, default_requests, intra_capacity, maybe_write_csv,
    maybe_write_json, rate_grid, run_liger_recovery, run_serving, run_serving_with_faults, sweep,
    EngineKind, ExperimentPoint, Node, Table,
};
