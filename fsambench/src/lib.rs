//! # fsambench — the output-checked FSAM benchmark
//!
//! One command, three workloads (`big4`, `small`, `serve`), two kinds of
//! run:
//!
//! * the **end-to-end** run (`fsambench`) drives only the stable front
//!   doors — `Pipeline::for_module(m).run(PhaseConfig::full())`, the
//!   `fsam-lint` sequence (`QueryEngine::from_fsam`, the default checker
//!   registry, `write_sarif`) and `fsam_server::Client` — and checks every
//!   operation's output against checked-in expected outputs;
//! * the **traced** run (`fsambench-traced`) calls each layer's public
//!   function from [`layers`], records spans around those calls in the
//!   benchmark's own memory, and reports per-layer time, work and heap.
//!
//! `run.sh` builds the package and dispatches on `--trace`; see README.md.

pub mod alloc;
pub mod cli;
pub mod expected;
pub mod frontdoor;
pub mod layers;
pub mod measure;
pub mod report;
pub mod serve;
pub mod spans;
pub mod workload;
