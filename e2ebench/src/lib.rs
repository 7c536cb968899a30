//! End-to-end and per-layer benchmark of the simulator, driven entirely
//! from the program's public API.
//!
//! * [`workload`]: the four timed workloads and their closed-loop pass.
//! * [`reference`]: the stored outputs every job is checked against.
//! * [`replica`]: public-builder rebuilds of the program's networks with
//!   timing decorators around each agent.
//! * [`layers`]: the traced pass that reports the per-layer metrics.
//! * [`stats`]: medians, quartiles and tail percentiles.

pub mod layers;
pub mod reference;
pub mod replica;
pub mod stats;
pub mod workload;
