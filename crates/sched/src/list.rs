//! Cycle-driven list scheduling of one basic block.
//!
//! Operations are prioritised by critical-path height and placed at the
//! earliest cycle at which (a) all their dependences are satisfied (using
//! the latency descriptors of Fig. 3 and the chaining rule of §3.3) and
//! (b) a free issue slot and functional unit / memory port is available
//! (Table 2 resources).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use vmv_isa::Op;
use vmv_machine::MachineConfig;

use crate::ddg::{DepGraph, OpTiming};
use crate::restable::ReservationTable;

/// Schedule the operations of one basic block, returning one bundle (vector
/// of operations) per issue cycle.  The relative order of memory operations
/// and the block terminator is preserved by the dependence graph.
pub fn schedule_block(ops: &[Op], machine: &MachineConfig) -> Vec<Vec<Op>> {
    bundle(&place(ops, machine), |i| ops[i].clone())
}

/// [`schedule_block`] for a block the caller owns: the operations move into
/// their bundles instead of being cloned.
pub(crate) fn schedule_owned_block(ops: Vec<Op>, machine: &MachineConfig) -> Vec<Vec<Op>> {
    let placements = place(&ops, machine);
    let mut ops: Vec<Option<Op>> = ops.into_iter().map(Some).collect();
    bundle(&placements, |i| {
        ops[i].take().expect("each op is placed once")
    })
}

/// Number of cycles a block's placements span.
fn span(placements: &[(u32, usize)]) -> usize {
    placements.last().map_or(0, |&(c, _)| c as usize + 1)
}

/// Group placements (in placement order) into one bundle per cycle, empty
/// cycles included.
fn bundle(placements: &[(u32, usize)], mut op: impl FnMut(usize) -> Op) -> Vec<Vec<Op>> {
    let mut bundles: Vec<Vec<Op>> = vec![Vec::new(); span(placements)];
    for &(c, i) in placements {
        bundles[c as usize].push(op(i));
    }
    bundles
}

/// List-schedule one block: every op's `(issue cycle, op index)`, in
/// placement order (so cycles never decrease).
fn place(ops: &[Op], machine: &MachineConfig) -> Vec<(u32, usize)> {
    let n = ops.len();
    if n == 0 {
        return Vec::new();
    }
    // Pool, occupancy and RAW latencies of every op, read off the machine
    // once per block rather than once per edge and per placement probe.
    let timing: Vec<OpTiming> = ops.iter().map(|op| OpTiming::of(op, machine)).collect();
    let graph = DepGraph::with_timing(ops, &timing, machine.chaining);
    let heights = graph.heights();
    let mut remaining_preds = graph.pred_counts().to_vec();
    let mut earliest = vec![0u32; n];
    let mut table = ReservationTable::new(machine);
    let mut placements: Vec<(u32, usize)> = Vec::with_capacity(n);
    let mut cycle: u32 = 0;

    // Generous safety bound: a block can never need more cycles than
    // (ops × worst-case latency × occupancy).
    let safety_limit = (n as u32 + 4) * 64 + 1024;

    // Released operations (every dependence placed) that are not yet
    // eligible at the current cycle, keyed by their earliest-issue cycle.
    // An operation's `earliest` only changes when a predecessor is placed,
    // so it is *final* the moment its last predecessor places — the heap
    // key can never go stale.  Together with `ready` (eligible now) this
    // replaces the former O(cycles × n) rescan of every unplaced
    // operation: each operation is pushed and popped exactly once.
    let mut pending: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
    for i in 0..n {
        if remaining_preds[i] == 0 {
            pending.push(Reverse((earliest[i], i)));
        }
    }
    // Operations eligible to issue at the current cycle, kept in placement
    // priority order: highest critical-path first, ties by program order —
    // the exact tie-break of the former full re-sort, so schedules are
    // byte-identical.
    let mut ready: Vec<usize> = Vec::with_capacity(n);
    // Telemetry is accumulated locally and folded into the recorder once
    // per block, keeping the cycle loop free of atomics.
    let mut ready_scans = 0u64;
    while placements.len() < n {
        ready_scans += 1;
        assert!(
            cycle < safety_limit,
            "list scheduler failed to make progress (block of {n} ops, cycle {cycle})"
        );

        // Admit newly eligible operations; operations that failed a
        // resource check in an earlier cycle carry over, already sorted,
        // so a re-sort is only needed when the set grew.
        let mut grew = false;
        while let Some(&Reverse((t, i))) = pending.peek() {
            if t > cycle {
                break;
            }
            pending.pop();
            ready.push(i);
            grew = true;
        }
        if ready.is_empty() {
            // Nothing can issue before the next dependence-release time:
            // jump straight there instead of probing every empty cycle
            // (placements only ever happen when something is ready, so the
            // skipped cycles are provably empty).
            let next = pending
                .peek()
                .map(|&Reverse((t, _))| t)
                .unwrap_or(cycle + 1);
            cycle = next.max(cycle + 1);
            continue;
        }
        if grew {
            ready.sort_by_key(|&i| (Reverse(heights[i]), i));
        }

        // Visit in priority order, compacting the survivors in place so ops
        // blocked on resources keep their relative order for the next
        // cycle.  Once the cycle's issue slots are full nothing else can
        // place, so the rest of the list survives unvisited.
        let mut issued = 0usize;
        let mut keep = 0usize;
        for k in 0..ready.len() {
            if issued == machine.issue_width {
                ready.copy_within(k.., keep);
                keep += ready.len() - k;
                break;
            }
            let i = ready[k];
            let t = &timing[i];
            if !table.fits(t.pool, t.occupancy, cycle) {
                ready[keep] = i;
                keep += 1;
                continue;
            }
            table.reserve(t.pool, t.occupancy, cycle);
            placements.push((cycle, i));
            issued += 1;
            for e in graph.succs(i) {
                remaining_preds[e.to] -= 1;
                earliest[e.to] = earliest[e.to].max(cycle + e.latency);
                if remaining_preds[e.to] == 0 {
                    pending.push(Reverse((earliest[e.to], e.to)));
                }
            }
        }
        ready.truncate(keep);
        cycle += 1;
    }

    if vmv_obs::enabled() {
        use vmv_obs::Counter;
        vmv_obs::incr(Counter::SchedBlocks);
        vmv_obs::add(Counter::SchedReadyScans, ready_scans);
        vmv_obs::add(Counter::SchedOpsPlaced, n as u64);
        vmv_obs::add(Counter::SchedCyclesScheduled, span(&placements) as u64);
    }

    placements
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::{BrCond, Elem, MemWidth, Op, Opcode, Reg, Sat, Sign};
    use vmv_machine::presets;

    fn movi(dst: u32, imm: i64) -> Op {
        Op::new(Opcode::MovI).with_dst(Reg::int(dst)).with_imm(imm)
    }

    fn add(dst: u32, a: u32, b: u32) -> Op {
        Op::new(Opcode::IAdd)
            .with_dst(Reg::int(dst))
            .with_srcs(&[Reg::int(a), Reg::int(b)])
    }

    #[test]
    fn independent_ops_fill_the_issue_width() {
        let machine = presets::vliw(4);
        let ops: Vec<Op> = (0..8).map(|i| movi(i, i as i64)).collect();
        let bundles = schedule_block(&ops, &machine);
        assert_eq!(
            bundles.len(),
            2,
            "8 independent ops on a 4-wide machine take 2 cycles"
        );
        assert_eq!(bundles[0].len(), 4);
        assert_eq!(bundles[1].len(), 4);
    }

    #[test]
    fn dependent_chain_respects_latency() {
        let machine = presets::vliw(4);
        // r1 = r0 * r0 (3 cycles); r2 = r1 + r0 (1 cycle); r3 = r2 + r0.
        let ops = vec![
            Op::new(Opcode::IMul)
                .with_dst(Reg::int(1))
                .with_srcs(&[Reg::int(0), Reg::int(0)]),
            add(2, 1, 0),
            add(3, 2, 0),
        ];
        let bundles = schedule_block(&ops, &machine);
        // mul at cycle 0, add at cycle 3, add at cycle 4 → 5 bundles.
        assert_eq!(bundles.len(), 5);
        assert!(bundles[1].is_empty() && bundles[2].is_empty());
    }

    #[test]
    fn narrow_machine_serialises_wide_parallelism() {
        let wide = presets::vliw(8);
        let narrow = presets::vliw(2);
        let ops: Vec<Op> = (0..8).map(|i| movi(i, 1)).collect();
        assert_eq!(schedule_block(&ops, &wide).len(), 1);
        assert_eq!(schedule_block(&ops, &narrow).len(), 4);
    }

    #[test]
    fn memory_port_limits_loads_per_cycle() {
        let machine = presets::vliw(2); // 1 L1 port
        let ops: Vec<Op> = (0..4)
            .map(|i| {
                Op::new(Opcode::Load(MemWidth::B4, Sign::Signed))
                    .with_dst(Reg::int(i + 1))
                    .with_srcs(&[Reg::int(0)])
                    .with_imm(4 * i as i64)
            })
            .collect();
        let bundles = schedule_block(&ops, &machine);
        assert_eq!(
            bundles.len(),
            4,
            "one load per cycle through a single L1 port"
        );
    }

    #[test]
    fn branch_is_scheduled_last() {
        let machine = presets::vliw(8);
        let ops = vec![
            movi(0, 1),
            movi(1, 2),
            add(2, 0, 1),
            Op::new(Opcode::Br(BrCond::Ne))
                .with_srcs(&[Reg::int(2), Reg::int(0)])
                .with_target("x"),
        ];
        let bundles = schedule_block(&ops, &machine);
        let last_nonempty = bundles.iter().rev().find(|b| !b.is_empty()).unwrap();
        assert!(last_nonempty.iter().any(|o| o.opcode.is_branch()));
        // and no op is scheduled after the branch's cycle
        let branch_cycle = bundles
            .iter()
            .position(|b| b.iter().any(|o| o.opcode.is_branch()))
            .unwrap();
        assert_eq!(branch_cycle, bundles.len() - 1);
    }

    #[test]
    fn vector_code_uses_fewer_issue_cycles_than_usimd_equivalent() {
        // Emulate processing 16 packed words: the µSIMD machine needs 16
        // packed adds, the vector machine a single vector add of VL=16.
        let usimd_machine = presets::usimd(2);
        let usimd_ops: Vec<Op> = (0..16)
            .map(|i| {
                Op::new(Opcode::PAdd(Elem::B, Sat::Wrap))
                    .with_dst(Reg::simd(i))
                    .with_srcs(&[Reg::simd(16 + i), Reg::simd(32 + i)])
            })
            .collect();
        let usimd_bundles = schedule_block(&usimd_ops, &usimd_machine);

        let vector_machine = presets::vector2(2);
        let mut vadd = Op::new(Opcode::VAdd(Elem::B, Sat::Wrap))
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::vec(1), Reg::vec(2)]);
        vadd.vl_hint = Some(16);
        let vector_bundles = schedule_block(&[vadd], &vector_machine);

        assert!(vector_bundles.len() < usimd_bundles.len());
    }

    #[test]
    fn empty_block_schedules_to_nothing() {
        let machine = presets::vliw(2);
        assert!(schedule_block(&[], &machine).is_empty());
    }

    #[test]
    fn all_ops_appear_exactly_once() {
        let machine = presets::vliw(4);
        let ops: Vec<Op> = (0..6).map(|i| add(i + 10, i, i)).collect();
        let bundles = schedule_block(&ops, &machine);
        let total: usize = bundles.iter().map(|b| b.len()).sum();
        assert_eq!(total, ops.len());
    }
}
