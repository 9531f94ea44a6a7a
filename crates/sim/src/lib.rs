//! # vmv-sim — cycle-level simulator of the Vector-µSIMD-VLIW processor
//!
//! Executes statically scheduled programs (`vmv-sched`) on a machine
//! configuration (`vmv-machine`, Table 2) both *functionally* — every
//! operation computes real values over a flat memory image, so kernel
//! outputs can be checked against golden reference implementations — and
//! *temporally*: one VLIW instruction issues per cycle, and the machine
//! stalls whenever run-time latencies exceed what the compiler assumed
//! (cache misses, non-unit-stride vector accesses, cross-block dependences),
//! exactly the stall-on-miss model of the paper.

#![forbid(unsafe_code)]

pub mod engine;
pub mod exec;
pub mod memimage;
pub mod profile;
pub mod regfile;
pub mod replay;
pub mod stats;
pub mod trace;

pub use engine::{SimError, SimOptions, Simulator};
pub use exec::{execute_lowered, execute_op, ExecOutcome, ExecResult, LoweredOutcome, MemAccess};
pub use memimage::MemImage;
pub use profile::{
    BlockProfile, BundleProfile, Cause, OpProfile, Profile, ProfileStatics, RegionProfile,
    TimelineEvent, LANE_NAMES, N_CAUSES, N_STALLS, STALL_BASE, TIMELINE_CAP,
};
pub use regfile::{RegFiles, VectorValue};
pub use replay::{replay_batch, replay_batch_profiled, ReplayAnalysis, ReplayError, VariantState};
pub use stats::{RegionStats, RunStats};
pub use trace::Trace;
