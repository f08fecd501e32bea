//! # pdc-perfbench — the end-to-end benchmark of record
//!
//! Runs one of three workloads (`paper_cell`, `wide_p`, `serve_stream`) on
//! the pCLOUDS reproduction and reports every metric on both clocks: the
//! host clock (how long the simulator takes) and the virtual clock (the
//! simulated machine's time, the paper's figure values). Per-layer numbers
//! come from outside the program: the benchmark times calls into each
//! crate's public functions and reads the counters those calls return.
//! See `README.md` beside this crate for the workloads and the metric map.

pub mod host;
pub mod metrics;
pub mod workload;

pub use metrics::{result_line, valid_name, Metric, END_TO_END, PER_LAYER};
pub use workload::{run, Outcome, RunOptions, Spec, Timed, WORKLOADS};
