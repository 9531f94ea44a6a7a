//! Timing traces: everything the cycle-level timing model consumes from one
//! functional execution, and nothing else.
//!
//! The engine's per-operation timing depends on three dynamic quantities
//! only: the sequence of blocks the program actually executed (branch
//! outcomes), the [`MemAccess`] descriptor of every dynamic memory
//! operation (address, stride, element count — what the hierarchy model
//! prices), and the value of the vector-length register at each
//! VL-dependent operation.  Everything else — read/write slots, flow
//! latencies, lane counts, micro-op units — is static in the
//! [`vmv_sched::LoweredProgram`].
//!
//! A [`Trace`] captures exactly those three streams, so
//! [`crate::replay::replay_batch`] can re-run the *timing* of an execution
//! against fresh memory variants without touching
//! `exec_core`, `RegFiles` or `MemImage`.  Crucially, none of the three
//! streams depends on memory-hierarchy parameters or the memory model
//! (functional values never change with timing), so one trace per
//! `(benchmark, variant, schedule)` key serves **every** memory variant of
//! a sweep.

use vmv_isa::Opcode;
use vmv_sched::LoweredOp;

use crate::exec::MemAccess;
use crate::regfile::RegFiles;

/// A recorded timing trace of one complete (halting) execution.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    /// Value of the VL register when execution started.
    pub initial_vl: u32,
    /// Indices of the blocks the program executed, in order.  The last
    /// block is the one that executed `halt`.
    pub blocks: Vec<u32>,
    /// The [`MemAccess`] of every dynamic memory operation, in execution
    /// order (the engine visits bundles in order and operations in bundle
    /// order, so the stream is deterministic given the block sequence).
    pub accesses: Vec<MemAccess>,
    /// The value written to the VL register by every executed `setvl`, in
    /// execution order.
    pub vl_sets: Vec<u32>,
}

impl Trace {
    /// Total recorded events — a rough size/health indicator for reporting.
    pub fn events(&self) -> usize {
        self.blocks.len() + self.accesses.len() + self.vl_sets.len()
    }
}

/// Observer of the engine's execution, called from the hot loop.  The
/// no-op implementation ([`NoTrace`]) must monomorphise away entirely —
/// `run_lowered` pays nothing when not recording.
pub trait TraceSink {
    /// A block is about to execute.
    fn block(&mut self, block: u32);
    /// One operation just executed: its memory access (if any) and the
    /// post-execution register state.
    fn op(&mut self, op: &LoweredOp, access: &Option<MemAccess>, regs: &RegFiles);
}

/// The non-recording sink: every hook is an empty inline function.
pub struct NoTrace;

impl TraceSink for NoTrace {
    #[inline(always)]
    fn block(&mut self, _block: u32) {}
    #[inline(always)]
    fn op(&mut self, _op: &LoweredOp, _access: &Option<MemAccess>, _regs: &RegFiles) {}
}

/// Accumulates a [`Trace`] while the engine runs.
pub struct TraceRecorder {
    trace: Trace,
}

impl TraceRecorder {
    pub fn new(initial_vl: u32) -> TraceRecorder {
        TraceRecorder {
            trace: Trace {
                initial_vl,
                ..Trace::default()
            },
        }
    }

    pub fn finish(self) -> Trace {
        self.trace
    }
}

impl TraceSink for TraceRecorder {
    #[inline]
    fn block(&mut self, block: u32) {
        self.trace.blocks.push(block);
    }

    #[inline]
    fn op(&mut self, op: &LoweredOp, access: &Option<MemAccess>, regs: &RegFiles) {
        if let Some(a) = access {
            self.trace.accesses.push(*a);
        } else if op.opcode == Opcode::SetVL {
            self.trace.vl_sets.push(regs.vl);
        }
    }
}
