//! Lowered-program soundness: slot layout, packed per-op metadata and
//! control flow.
//!
//! The lowered form is what the hot engines actually execute, so every
//! pre-resolved field is re-derived here from the operation's semantics
//! and the machine tables and compared: a stale `flow` latency or a
//! mis-pointed branch target would silently corrupt timing (or walk off
//! the program) at run time.

use vmv_isa::NO_SLOT;
use vmv_machine::MachineConfig;
use vmv_sched::{LoweredOp, LoweredProgram};

use crate::diag::{Check, Diagnostic};

/// Verify the structural and metadata invariants of a lowered program.
pub fn verify_lowered(program: &LoweredProgram, machine: &MachineConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    verify_structure(program, &mut diags);
    for (bid, block) in program.blocks.iter().enumerate() {
        let end = block.first_bundle + block.bundle_count;
        if end as usize >= program.bundle_bounds.len() {
            continue; // already reported by verify_structure
        }
        for b in block.first_bundle..end {
            for op in program.bundle_ops(b) {
                verify_op(
                    op,
                    program,
                    machine,
                    bid,
                    b - block.first_bundle,
                    &mut diags,
                );
            }
        }
    }
    verify_control_flow(program, &mut diags);
    diags
}

fn loc(bid: usize, bundle: u32) -> String {
    format!("block {bid}, bundle {bundle}")
}

fn verify_structure(program: &LoweredProgram, diags: &mut Vec<Diagnostic>) {
    let bounds = &program.bundle_bounds;
    let mut broken = bounds.is_empty()
        || bounds[0] != 0
        || bounds.windows(2).any(|w| w[0] > w[1])
        || *bounds.last().unwrap_or(&0) as usize != program.ops.len();
    if broken {
        diags.push(Diagnostic::error(
            Check::Layout,
            "program",
            format!(
                "bundle bounds are inconsistent: {} bounds over {} operations",
                bounds.len(),
                program.ops.len()
            ),
        ));
    }
    let total_bundles = bounds.len().saturating_sub(1) as u32;
    let mut next = 0u32;
    for (bid, block) in program.blocks.iter().enumerate() {
        if block.first_bundle != next || block.first_bundle + block.bundle_count > total_bundles {
            diags.push(Diagnostic::error(
                Check::Layout,
                format!("block {bid}"),
                format!(
                    "bundle range {}..{} does not tile the program's {} bundles",
                    block.first_bundle,
                    block.first_bundle + block.bundle_count,
                    total_bundles
                ),
            ));
            broken = true;
        }
        next = block.first_bundle + block.bundle_count;
    }
    if !broken && next != total_bundles {
        diags.push(Diagnostic::error(
            Check::Layout,
            "program",
            format!(
                "{} trailing bundles belong to no block",
                total_bundles - next
            ),
        ));
    }
}

fn verify_op(
    op: &LoweredOp,
    program: &LoweredProgram,
    machine: &MachineConfig,
    bid: usize,
    bundle: u32,
    diags: &mut Vec<Diagnostic>,
) {
    let layout = &program.layout;
    let total = program.total_slots() as u16;
    // The mnemonic is rendered only when a diagnostic is emitted.
    let mn = Mnemonic(op.opcode);
    let at = || loc(bid, bundle);

    // Destination slot: NO_SLOT exactly when the operation writes nothing,
    // otherwise the layout's slot for the destination register.
    match (op.dst, op.dst_slot) {
        (None, slot) if slot != NO_SLOT => diags.push(Diagnostic::error(
            Check::Layout,
            at(),
            format!("'{mn}' writes no register but has destination slot {slot}"),
        )),
        (Some(dst), slot) => match layout.slot_of(dst) {
            Some(expect) if expect == slot => {}
            Some(expect) => diags.push(Diagnostic::error(
                Check::Layout,
                at(),
                format!("'{mn}' destination slot {slot} does not match {dst} (slot {expect})"),
            )),
            None => diags.push(Diagnostic::error(
                Check::Layout,
                at(),
                format!("'{mn}' destination {dst} has no slot in the layout"),
            )),
        },
        (None, _) => {}
    }

    // Read slots: sources in order, then the implicit VL/VS reads.
    let mut sources_ok = true;
    for &src in op.srcs() {
        if layout.slot_of(src).is_none() {
            sources_ok = false;
            diags.push(Diagnostic::error(
                Check::Layout,
                at(),
                format!("'{mn}' source {src} has no slot in the layout"),
            ));
        }
    }
    let expect = || {
        let vl = op.opcode.reads_vl().then(|| layout.vl_slot());
        let vs = op.opcode.reads_vs().then(|| layout.vs_slot());
        op.srcs()
            .iter()
            .filter_map(|&src| layout.slot_of(src))
            .chain(vl)
            .chain(vs)
    };
    if sources_ok && !op.read_slots().iter().copied().eq(expect()) {
        diags.push(Diagnostic::error(
            Check::Layout,
            at(),
            format!(
                "'{mn}' read slots {:?} do not match the re-derived {:?} \
                 (sources plus implicit VL/VS reads)",
                op.read_slots(),
                expect().collect::<Vec<_>>()
            ),
        ));
    }
    for &s in op.read_slots() {
        if s >= total {
            diags.push(Diagnostic::error(
                Check::Layout,
                at(),
                format!("'{mn}' read slot {s} is out of range ({total} slots)"),
            ));
        }
    }
    if op.dst_slot != NO_SLOT && op.dst_slot >= total {
        diags.push(Diagnostic::error(
            Check::Layout,
            at(),
            format!(
                "'{mn}' destination slot {} is out of range ({total} slots)",
                op.dst_slot
            ),
        ));
    }

    // Packed metadata must match the machine tables the engines charge.
    let flow = machine.latencies.flow_latency(op.opcode.lat_class()) as u16;
    if op.flow != flow {
        diags.push(Diagnostic::error(
            Check::Latency,
            at(),
            format!(
                "'{mn}' carries flow latency {} but the machine's latency table says {flow}",
                op.flow
            ),
        ));
    }
    let lanes = machine.effective_lanes(op.opcode) as u8;
    if op.lanes != lanes {
        diags.push(Diagnostic::error(
            Check::Layout,
            at(),
            format!(
                "'{mn}' carries lane count {} but the machine says {lanes}",
                op.lanes
            ),
        ));
    }
    if op.reads_vl != op.opcode.reads_vl() {
        diags.push(Diagnostic::error(
            Check::Layout,
            at(),
            format!(
                "'{mn}' reads_vl flag {} contradicts the opcode",
                op.reads_vl
            ),
        ));
    }
    if op.is_vector_memory != op.opcode.is_vector_memory() {
        diags.push(Diagnostic::error(
            Check::Layout,
            at(),
            format!(
                "'{mn}' is_vector_memory flag {} contradicts the opcode",
                op.is_vector_memory
            ),
        ));
    }
    if op.micro_ops_unit != op.opcode.micro_ops(1) as u16 {
        diags.push(Diagnostic::error(
            Check::Layout,
            at(),
            format!(
                "'{mn}' carries {} micro-ops per VL unit but the opcode says {}",
                op.micro_ops_unit,
                op.opcode.micro_ops(1)
            ),
        ));
    }

    if op.opcode.is_branch() && op.target as usize >= program.blocks.len() {
        diags.push(Diagnostic::error(
            Check::Label,
            at(),
            format!(
                "'{mn}' branch target {} is out of range (program has {} blocks)",
                op.target,
                program.blocks.len()
            ),
        ));
    }
}

/// An opcode whose mnemonic is formatted on demand: `Opcode::mnemonic`
/// allocates, and a certified program never needs the text.
struct Mnemonic(vmv_isa::Opcode);

impl std::fmt::Display for Mnemonic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0.mnemonic())
    }
}

/// Control-flow obligations: no block may fall through past the end of
/// the program (every branch is conditional, so a block without a `halt`
/// always has its fall-through successor), and a `halt` must be reachable
/// from the entry block — otherwise the engines run forever or walk off
/// the block list.
fn verify_control_flow(program: &LoweredProgram, diags: &mut Vec<Diagnostic>) {
    let n = program.blocks.len();
    if n == 0 {
        return;
    }
    let bounds_ok = !program.bundle_bounds.is_empty()
        && *program.bundle_bounds.last().unwrap() as usize == program.ops.len();
    if !bounds_ok {
        return; // structure errors already reported; ops can't be walked
    }
    let mut has_halt = vec![false; n];
    let mut targets: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (bid, block) in program.blocks.iter().enumerate() {
        let end = block.first_bundle + block.bundle_count;
        if end as usize >= program.bundle_bounds.len() {
            return;
        }
        for b in block.first_bundle..end {
            for op in program.bundle_ops(b) {
                if op.opcode == vmv_isa::Opcode::Halt {
                    has_halt[bid] = true;
                }
                if op.opcode.is_branch() && (op.target as usize) < n {
                    targets[bid].push(op.target as usize);
                }
            }
        }
    }

    let mut reached = vec![false; n];
    let mut stack = vec![0usize];
    let mut halt_reachable = false;
    while let Some(bid) = stack.pop() {
        if reached[bid] {
            continue;
        }
        reached[bid] = true;
        if has_halt[bid] {
            halt_reachable = true;
            continue; // halt takes effect at block end; the block is terminal
        }
        if bid + 1 < n {
            stack.push(bid + 1);
        } else {
            diags.push(Diagnostic::error(
                Check::Label,
                format!("block {bid}"),
                "the last reachable block has no halt: execution falls off the end of the program"
                    .to_string(),
            ));
        }
        stack.extend(targets[bid].iter().copied());
    }
    if !halt_reachable {
        diags.push(Diagnostic::error(
            Check::Label,
            "program",
            "no halt is reachable from the entry block".to_string(),
        ));
    }
}
