//! Schedule-level proofs: dependences, latencies, terminator placement
//! and resource legality, re-derived independently of the scheduler.
//!
//! The checker walks each block in *traversal order* — bundle-major, in
//! the bundles' operation order, exactly the order the engines execute —
//! and rebuilds the dependence bookkeeping of `vmv_sched::ddg` from
//! operation semantics alone (`Op::reads()` includes the implicit
//! `VL`/`VS` reads).  Every derived edge must span at least its minimum
//! issue distance in bundles; every bundle must fit the machine's issue
//! width and functional-unit/port capacities over the operations'
//! occupancy windows.

use std::collections::HashMap;

use vmv_isa::{FuClass, LatencyDescriptor, Op, Opcode, Reg, RegClass, RegIndex};
use vmv_machine::MachineConfig;
use vmv_sched::{ScheduledBlock, ScheduledProgram};

use crate::diag::{Check, Diagnostic};

/// Verify one scheduled (register-allocated) program against a machine.
pub fn verify_schedule(program: &ScheduledProgram, machine: &MachineConfig) -> Vec<Diagnostic> {
    let mut diags = Vec::new();
    let labels = program.label_map();
    for block in &program.blocks {
        verify_block(block, machine, &labels, &mut diags);
    }
    diags
}

fn loc(label: &str, bundle: usize) -> String {
    format!("block '{label}', bundle {bundle}")
}

/// Minimum issue distance of a RAW dependence, re-derived from the HPL-PD
/// latency descriptor and the §3.3 chaining rule (the same obligations
/// `vmv_sched::ddg::raw_latency` encodes — recomputed here so the checker
/// does not trust the scheduler's own edge set).
fn raw_latency(
    producer: &Op,
    desc: &LatencyDescriptor,
    consumer: &Op,
    reg: Reg,
    machine: &MachineConfig,
) -> u32 {
    let vector_chain = machine.chaining
        && reg.class == RegClass::Vec
        && producer.opcode.is_vector_op()
        && consumer.opcode.is_vector_op();
    if vector_chain {
        desc.chained_latency().max(1)
    } else {
        desc.result_latency().max(1)
    }
}

fn verify_block(
    block: &ScheduledBlock,
    machine: &MachineConfig,
    labels: &HashMap<&str, usize>,
    diags: &mut Vec<Diagnostic>,
) {
    // Flatten to traversal order, remembering each operation's bundle.
    let flat: Vec<(usize, &Op)> = block
        .bundles
        .iter()
        .enumerate()
        .flat_map(|(c, bundle)| bundle.iter().map(move |op| (c, op)))
        .collect();
    let label = block.label.as_str();
    // Each operation's latency descriptor, in traversal order: it bounds
    // the RAW distance to its consumers and its occupancy window.
    let descs: Vec<LatencyDescriptor> = flat
        .iter()
        .map(|(_, op)| machine.latency_descriptor(op))
        .collect();

    // Terminator discipline: the engines apply branches and `halt` at
    // block end, and a legally scheduled block keeps its terminator
    // strictly last — an operation placed after it could never arise
    // from a dependence-respecting schedule of a verified program.
    if let Some(t) = flat
        .iter()
        .position(|(_, op)| op.opcode.is_branch() || op.opcode == Opcode::Halt)
    {
        let (term_bundle, term_op) = flat[t];
        for &(c, op) in &flat[t + 1..] {
            diags.push(Diagnostic::error(
                Check::Hazard,
                loc(label, c),
                format!("'{op}' is placed after the block terminator '{term_op}' (bundle {term_bundle})"),
            ));
        }
    }

    // Dependence re-derivation over the traversal order, with the last
    // writer of every register in a dense table over the block's registers.
    let regs = RegIndex::covering(flat.iter().map(|&(_, op)| op));
    let mut last_writer: Vec<Option<usize>> = vec![None; regs.len()];
    let mut last_store: Option<usize> = None;
    for (i, &(c_i, op)) in flat.iter().enumerate() {
        for r in op.reads() {
            if let Some(w) = last_writer[regs.id(r)] {
                let (c_w, producer) = flat[w];
                let need = raw_latency(producer, &descs[w], op, r, machine);
                let dist = (c_i - c_w) as u32;
                if dist == 0 {
                    diags.push(Diagnostic::error(
                        Check::Hazard,
                        loc(label, c_i),
                        format!("'{op}' reads {r} in the same bundle its producer '{producer}' issues in"),
                    ));
                } else if dist < need {
                    diags.push(Diagnostic::error(
                        Check::Latency,
                        loc(label, c_i),
                        format!(
                            "'{op}' issues {dist} cycle(s) after its producer '{producer}' \
                             (bundle {c_w}); the raw dependence on {r} requires {need}"
                        ),
                    ));
                }
            }
        }
        if let Some(dst) = op.writes() {
            // WAW needs one cycle; two same-bundle writes are the
            // duplicate-write fault class.  (WAR needs zero cycles and the
            // traversal order already witnesses the read first, so it can
            // never be violated here.)
            if let Some(w) = last_writer[regs.id(dst)] {
                let (c_w, prev) = flat[w];
                if c_i == c_w {
                    diags.push(Diagnostic::error(
                        Check::DuplicateWrite,
                        loc(label, c_i),
                        format!("duplicate write to {dst}: '{prev}' and '{op}' share the bundle"),
                    ));
                }
            }
        }
        // Conservative memory ordering: a store must issue at least one
        // cycle after any earlier store or load (store↔store and
        // store→load edges carry latency 1; load→store carries 0 and is
        // witnessed in order by construction).
        if op.opcode.is_store() {
            if let Some(s) = last_store {
                let (c_s, prev) = flat[s];
                if c_i == c_s {
                    diags.push(Diagnostic::error(
                        Check::Hazard,
                        loc(label, c_i),
                        format!("store '{op}' shares a bundle with the earlier store '{prev}'"),
                    ));
                }
            }
            last_store = Some(i);
        } else if op.opcode.is_load() {
            if let Some(s) = last_store {
                let (c_s, prev) = flat[s];
                if c_i == c_s {
                    diags.push(Diagnostic::error(
                        Check::Hazard,
                        loc(label, c_i),
                        format!("load '{op}' shares a bundle with the earlier store '{prev}'"),
                    ));
                }
            }
        }
        if op.opcode.is_branch() {
            match op.target.as_deref() {
                None => diags.push(Diagnostic::error(
                    Check::Label,
                    loc(label, c_i),
                    format!("branch '{op}' has no target label"),
                )),
                Some(t) if !labels.contains_key(t) => diags.push(Diagnostic::error(
                    Check::Label,
                    loc(label, c_i),
                    format!("branch '{op}' targets unknown label '{t}'"),
                )),
                Some(_) => {}
            }
        }
        if let Some(dst) = op.writes() {
            last_writer[regs.id(dst)] = Some(i);
        }
    }

    verify_resources(block, &descs, machine, diags);
}

/// Unit-pool identity mirrors the reservation table: µSIMD operations
/// execute on (and compete for) the vector units on machines without
/// dedicated µSIMD units.
fn pool_of(class: FuClass, machine: &MachineConfig) -> usize {
    match class {
        FuClass::Int => 0,
        FuClass::Simd => {
            if machine.simd_units > 0 {
                1
            } else {
                2
            }
        }
        FuClass::Vector => 2,
        FuClass::MemL1 => 3,
        FuClass::MemL2 => 4,
    }
}

const POOL_NAMES: [&str; 5] = [
    "integer unit",
    "uSIMD unit",
    "vector unit",
    "L1 cache port",
    "L2 vector-cache port",
];

/// Resource accounting; `descs` holds every operation's latency descriptor
/// in traversal order.
fn verify_resources(
    block: &ScheduledBlock,
    descs: &[LatencyDescriptor],
    machine: &MachineConfig,
    diags: &mut Vec<Diagnostic>,
) {
    let label = block.label.as_str();
    let caps = [
        machine.int_units,
        machine.simd_units,
        machine.vector_units,
        machine.l1_ports,
        machine.l2_ports,
    ];
    // Occupancy windows can extend past the last bundle; size accordingly.
    let mut horizon = block.bundles.len();
    let mut flat = descs.iter();
    for (c, bundle) in block.bundles.iter().enumerate() {
        for desc in flat.by_ref().take(bundle.len()) {
            horizon = horizon.max(c + desc.occupancy() as usize);
        }
    }
    let mut usage = vec![[0usize; 5]; horizon];

    let mut flat = descs.iter();
    for (c, bundle) in block.bundles.iter().enumerate() {
        if bundle.len() > machine.issue_width {
            diags.push(Diagnostic::error(
                Check::Resource,
                loc(label, c),
                format!(
                    "issue width exceeded: {} operations in one bundle, width is {}",
                    bundle.len(),
                    machine.issue_width
                ),
            ));
        }
        for (op, desc) in bundle.iter().zip(flat.by_ref()) {
            if !machine.supports_op(op.opcode) {
                diags.push(Diagnostic::error(
                    Check::Resource,
                    loc(label, c),
                    format!("'{op}' is not executable on machine '{}'", machine.name),
                ));
                continue;
            }
            let pool = pool_of(op.opcode.fu_class(), machine);
            if caps[pool] == 0 {
                diags.push(Diagnostic::error(
                    Check::Resource,
                    loc(label, c),
                    format!(
                        "'{op}' needs a {} but the machine has none",
                        POOL_NAMES[pool]
                    ),
                ));
                continue;
            }
            let occupancy = desc.occupancy() as usize;
            for slot in &mut usage[c..c + occupancy.max(1)] {
                slot[pool] += 1;
            }
        }
    }

    for (t, slot) in usage.iter().enumerate() {
        for (pool, &used) in slot.iter().enumerate() {
            if used > caps[pool] {
                diags.push(Diagnostic::error(
                    Check::Resource,
                    format!("block '{label}', cycle {t}"),
                    format!(
                        "{}s oversubscribed: {used} in use, capacity {}",
                        POOL_NAMES[pool], caps[pool]
                    ),
                ));
            }
        }
    }
}
