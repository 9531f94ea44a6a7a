//! # vmv-isa — the Vector-µSIMD-VLIW instruction set
//!
//! This crate defines the three instruction sets studied in the paper
//! *"A Vector-µSIMD-VLIW Architecture for Multimedia Applications"*
//! (Salamí & Valero, ICPP 2005):
//!
//! 1. the **scalar VLIW** base ISA (integer, memory and branch operations),
//! 2. the **µSIMD** extension — 64-bit packed sub-word operations comparable
//!    to the integer subset of SSE/MMX,
//! 3. the **Vector-µSIMD** extension — a MOM-style short-vector ISA whose
//!    element operations are MMX-like packed operations, with vector
//!    registers of 16 × 64-bit words, 192-bit packed accumulators and the
//!    `VL`/`VS` control registers.
//!
//! It also provides the program representation shared by the static
//! scheduler (`vmv-sched`) and the cycle-level simulator (`vmv-sim`), an
//! ergonomic [`builder::ProgramBuilder`] used by the hand-written media
//! kernels, the HPL-PD-style [`latency::LatencyDescriptor`]s of Fig. 3, and
//! static well-formedness verification.

#![forbid(unsafe_code)]

pub mod accum;
pub mod builder;
pub mod latency;
pub mod opcode;
pub mod packed;
pub mod program;
pub mod reg;
pub mod verify;

pub use accum::Accumulator;
pub use builder::ProgramBuilder;
pub use latency::LatencyDescriptor;
pub use opcode::{BrCond, FuClass, LatClass, MemWidth, Opcode};
pub use packed::{Elem, Sat, Sign};
pub use program::{BasicBlock, BlockId, Op, Program, RegionId, RegionInfo};
pub use reg::{Reg, RegClass, RegFileSizes, RegIndex, SlotLayout, MAX_VL, NO_SLOT};
pub use verify::{assert_well_formed, verify_program, VerifyError};
