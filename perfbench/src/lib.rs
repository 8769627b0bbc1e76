//! End-to-end and per-layer benchmark of the ftc election stack.
//!
//! The benchmark drives the public entry points of the layers — the round
//! engine, the trial runner, the mesh runtime and its socket fabric, the
//! frame codec — from one process and times the calls into them; nothing
//! inside the program is changed. `README.md` beside this crate explains
//! the workloads, the metrics and which layer should move which metric.

mod calib;
mod codec;
pub mod model;
pub mod probe;
pub mod report;
mod stats;
pub mod workload;
