//! Register allocation: mapping the builder's virtual registers onto the
//! architectural register files of Table 2.
//!
//! The allocator performs a control-flow aware liveness analysis followed by
//! a linear scan over live intervals, one register class at a time.  The
//! hand-written kernels are sized to fit the (large) register files of the
//! modeled machines, so spilling is not implemented; over-pressure is
//! reported as a structured error naming the class and the demand, which the
//! kernel test-suite turns into a hard failure.

use std::collections::{HashMap, VecDeque};

use vmv_isa::{Program, Reg, RegClass, RegIndex};
use vmv_machine::MachineConfig;

/// Error returned when a program needs more registers of some class than the
/// machine provides.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegAllocError {
    pub class: RegClass,
    pub required: usize,
    pub available: usize,
    pub program: String,
}

impl std::fmt::Display for RegAllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "program '{}' needs {} live {:?} registers but the machine provides {}",
            self.program, self.required, self.class, self.available
        )
    }
}

impl std::error::Error for RegAllocError {}

/// Result of a successful allocation.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Virtual register → physical register.
    pub mapping: HashMap<Reg, Reg>,
    /// Peak number of simultaneously live registers per class
    /// (int, simd, vec, acc) — reported in diagnostics and tests.
    pub peak_pressure: HashMap<RegClass, usize>,
}

/// The register classes the allocator assigns, in allocation order.
/// Control registers (`VL`, `VS`) are architectural and never renamed.
const CLASSES: [RegClass; 4] = [RegClass::Int, RegClass::Simd, RegClass::Vec, RegClass::Acc];

/// Marker for "no physical register assigned" in the dense rename table.
const UNMAPPED: u32 = u32::MAX;

/// Fixed-width bitsets over dense register ids, one row per basic block.
struct BitRows {
    words: usize,
    bits: Vec<u64>,
}

impl BitRows {
    fn new(rows: usize, width: usize) -> Self {
        let words = width.div_ceil(64);
        BitRows {
            words,
            bits: vec![0; rows * words],
        }
    }

    fn row(&self, r: usize) -> &[u64] {
        &self.bits[r * self.words..(r + 1) * self.words]
    }

    fn row_mut(&mut self, r: usize) -> &mut [u64] {
        &mut self.bits[r * self.words..(r + 1) * self.words]
    }

    #[inline]
    fn set(&mut self, r: usize, id: usize) {
        self.bits[r * self.words + id / 64] |= 1 << (id % 64);
    }

    #[inline]
    fn contains(&self, r: usize, id: usize) -> bool {
        self.bits[r * self.words + id / 64] & (1 << (id % 64)) != 0
    }
}

/// Every set bit of a bitset row, in increasing id order.
fn set_bits(row: &[u64]) -> impl Iterator<Item = usize> + '_ {
    row.iter().enumerate().flat_map(|(w, &word)| {
        let mut rest = word;
        std::iter::from_fn(move || {
            (rest != 0).then(|| {
                let bit = rest.trailing_zeros() as usize;
                rest &= rest - 1;
                w * 64 + bit
            })
        })
    })
}

/// Allocate the virtual registers of `program` onto the register files of
/// `machine`, returning a new program with every register renamed.
pub fn allocate(
    program: &Program,
    machine: &MachineConfig,
) -> Result<(Program, Allocation), RegAllocError> {
    let regs = RegIndex::covering(program.iter_ops().map(|(_, op)| op));
    let intervals = live_intervals(program, &regs);

    // Dense virtual → physical rename table.
    let mut phys_of = vec![UNMAPPED; regs.len()];
    let mut peak_pressure: HashMap<RegClass, usize> = HashMap::new();
    let mut class_intervals: Vec<(usize, usize, usize)> = Vec::new(); // (start, id, end)
    let mut active: Vec<(usize, u32)> = Vec::new(); // (end, phys index)
    let mut free: VecDeque<u32> = VecDeque::new();

    for class in CLASSES {
        let available = machine.regs.count(class) as usize;
        // Ids ascend with the virtual index, so sorting by (start, id) is
        // the (start, index) order of the linear scan.
        class_intervals.clear();
        class_intervals.extend(
            regs.ids_of(class)
                .filter_map(|id| intervals[id].map(|(start, end)| (start, id, end))),
        );
        class_intervals.sort_unstable();

        // Linear scan.  The free list is a FIFO so that a just-released
        // physical register is not immediately reused: immediate reuse would
        // introduce tight WAR/WAW dependences that needlessly serialise the
        // schedule (the classic allocate-before-schedule phase-ordering
        // hazard); cycling round-robin through the large Table 2 register
        // files keeps the reuse distance long.
        active.clear();
        free.clear();
        free.extend(0..available as u32);
        let mut peak = 0usize;

        for &(start, id, end) in &class_intervals {
            // Expire finished intervals.
            active.retain(|&(e, phys)| {
                if e < start {
                    free.push_back(phys);
                    false
                } else {
                    true
                }
            });
            let phys = match free.pop_front() {
                Some(p) => p,
                None => {
                    return Err(RegAllocError {
                        class,
                        required: active.len() + 1,
                        available,
                        program: program.name.clone(),
                    })
                }
            };
            active.push((end, phys));
            peak = peak.max(active.len());
            phys_of[id] = phys;
        }
        peak_pressure.insert(class, peak);
    }

    // Rewrite the program through the table (control registers unchanged).
    let rename = |r: &mut Reg| {
        if r.class != RegClass::Ctrl {
            *r = Reg::new(r.class, phys_of[regs.id(*r)]);
        }
    };
    let mut out = program.clone();
    for block in &mut out.blocks {
        for op in &mut block.ops {
            op.dst.iter_mut().for_each(rename);
            op.srcs.iter_mut().for_each(rename);
        }
    }

    let mapping = CLASSES
        .iter()
        .flat_map(|&class| regs.ids_of(class).map(move |id| (class, id)))
        .filter(|&(_, id)| phys_of[id] != UNMAPPED)
        .map(|(class, id)| (regs.reg(class, id), Reg::new(class, phys_of[id])))
        .collect();
    Ok((
        out,
        Allocation {
            mapping,
            peak_pressure,
        },
    ))
}

/// Compute a conservative live interval (over a linearisation of the blocks
/// in program order) for every virtual register, indexed by dense id
/// (`None` for ids the program never touches).  Control registers are
/// numbered and tracked too; the allocator simply never reads theirs.
///
/// The interval of a register spans from its first definition/use to its last
/// use, extended to cover every block in which the register is live-in or
/// live-out (which correctly handles values that live around loop back
/// edges).
fn live_intervals(program: &Program, regs: &RegIndex) -> Vec<Option<(usize, usize)>> {
    // Block boundaries in the linearisation.
    let mut block_start = Vec::with_capacity(program.blocks.len());
    let mut block_end = Vec::with_capacity(program.blocks.len());
    let mut pos = 0usize;
    for block in &program.blocks {
        block_start.push(pos);
        pos += block.ops.len().max(1);
        block_end.push(pos - 1);
    }

    // Per-block use/def sets (uses before defs).
    let nblocks = program.blocks.len();
    let width = regs.len();
    let mut uses = BitRows::new(nblocks, width);
    let mut defs = BitRows::new(nblocks, width);
    for (b, block) in program.blocks.iter().enumerate() {
        for op in &block.ops {
            for r in op.reads() {
                if !defs.contains(b, regs.id(r)) {
                    uses.set(b, regs.id(r));
                }
            }
            if let Some(d) = op.writes() {
                defs.set(b, regs.id(d));
            }
        }
    }

    // CFG successors (at most a branch target and a fall-through).
    let labels = program.label_map();
    let mut succs: Vec<[Option<usize>; 2]> = vec![[None; 2]; nblocks];
    for (b, block) in program.blocks.iter().enumerate() {
        let mut falls_through = true;
        if let Some(term) = block.ops.last() {
            if term.opcode.is_branch() {
                succs[b][0] = term.target.as_deref().and_then(|t| labels.get(t).copied());
                falls_through = term.opcode.is_cond_branch();
            } else if term.opcode == vmv_isa::Opcode::Halt {
                falls_through = false;
            }
        }
        if falls_through && b + 1 < nblocks {
            succs[b][1] = Some(b + 1);
        }
    }

    // Iterative backward liveness over the bitsets:
    // out = ∪ in[succ], in = uses ∪ (out \ defs).
    let mut live_in = BitRows::new(nblocks, width);
    let mut live_out = BitRows::new(nblocks, width);
    let mut out = vec![0u64; live_in.words];
    let mut changed = true;
    while changed {
        changed = false;
        for b in (0..nblocks).rev() {
            out.fill(0);
            for s in succs[b].iter().flatten() {
                for (o, &i) in out.iter_mut().zip(live_in.row(*s)) {
                    *o |= i;
                }
            }
            let inn = live_in.row_mut(b);
            for (w, slot) in inn.iter_mut().enumerate() {
                let next = uses.row(b)[w] | (out[w] & !defs.row(b)[w]);
                changed |= *slot != next;
                *slot = next;
            }
            let prev_out = live_out.row_mut(b);
            changed |= *prev_out != *out;
            prev_out.copy_from_slice(&out);
        }
    }

    // Build intervals.
    let mut intervals: Vec<Option<(usize, usize)>> = vec![None; width];
    let mut touch = |id: usize, at: usize| {
        let iv = intervals[id].get_or_insert((at, at));
        iv.0 = iv.0.min(at);
        iv.1 = iv.1.max(at);
    };
    for (b, block) in program.blocks.iter().enumerate() {
        for (i, op) in block.ops.iter().enumerate() {
            let at = block_start[b] + i;
            for r in op.reads().chain(op.writes()) {
                touch(regs.id(r), at);
            }
        }
        for id in set_bits(live_in.row(b)) {
            touch(id, block_start[b]);
        }
        for id in set_bits(live_out.row(b)) {
            touch(id, block_end[b]);
        }
    }
    intervals
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::ProgramBuilder;
    use vmv_machine::presets;

    #[test]
    fn simple_program_allocates_within_file_size() {
        let mut b = ProgramBuilder::new("simple");
        let x = b.imm(1);
        let y = b.imm(2);
        let z = b.ri();
        b.add(z, x, y);
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (alloc_p, alloc) = allocate(&p, &machine).unwrap();
        // All registers are now physical (index < 64).
        for (_, op) in alloc_p.iter_ops() {
            for r in op.srcs.iter().chain(op.dst.iter()) {
                if r.class == RegClass::Int {
                    assert!(r.index < 64);
                }
            }
        }
        assert!(alloc.peak_pressure[&RegClass::Int] <= 3);
    }

    #[test]
    fn registers_are_reused_after_death() {
        // 100 short-lived temporaries must fit in 64 registers.
        let mut b = ProgramBuilder::new("reuse");
        let base = b.imm(0x1000);
        for i in 0..100 {
            let t = b.ri();
            b.ld32s(t, base, 4 * i);
            b.st32(base, 4 * i, t);
        }
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (_, alloc) = allocate(&p, &machine).expect("temporaries die immediately");
        assert!(alloc.peak_pressure[&RegClass::Int] < 10);
    }

    #[test]
    fn loop_carried_values_stay_allocated_across_the_loop() {
        let mut b = ProgramBuilder::new("loop");
        let acc = b.ri();
        b.li(acc, 0);
        let step = b.imm(3);
        b.counted_loop("l", 10, |b, _cnt| {
            b.add(acc, acc, step);
        });
        let out = b.imm(0x2000);
        b.st32(out, 0, acc);
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let (alloc_p, alloc) = allocate(&p, &machine).unwrap();
        // acc and step must have distinct physical registers (both live
        // across the loop body).
        let acc_phys = alloc.mapping[&acc];
        let step_phys = alloc.mapping[&step];
        assert_ne!(acc_phys, step_phys);
        assert!(vmv_isa::verify_program(&alloc_p).is_empty());
    }

    #[test]
    fn over_pressure_is_reported_as_error() {
        // 70 registers all live at the same time cannot fit in a 64-entry file.
        let mut b = ProgramBuilder::new("pressure");
        let regs: Vec<_> = (0..70).map(|i| b.imm(i)).collect();
        let sum = b.ri();
        b.li(sum, 0);
        for r in &regs {
            b.add(sum, sum, *r);
        }
        b.halt();
        let p = b.finish();
        let machine = presets::vliw(2);
        let err = allocate(&p, &machine).unwrap_err();
        assert_eq!(err.class, RegClass::Int);
        assert!(err.required > 64);
        assert_eq!(err.available, 64);
    }

    #[test]
    fn vector_registers_fit_the_smaller_vector_file() {
        let mut b = ProgramBuilder::new("vec");
        let base = b.imm(0x1000);
        b.setvl(8);
        b.setvs(8);
        let vs: Vec<_> = (0..10).map(|_| b.rv()).collect();
        for (i, v) in vs.iter().enumerate() {
            b.vload(*v, base, (i * 64) as i64);
        }
        let acc = b.ra();
        b.acc_clear(acc);
        for pair in vs.chunks(2) {
            if pair.len() == 2 {
                b.vsad_acc(acc, pair[0], pair[1]);
            }
        }
        b.halt();
        let p = b.finish();
        let machine = presets::vector1(2); // 20 vector registers
        let (_, alloc) = allocate(&p, &machine).unwrap();
        assert!(alloc.peak_pressure[&RegClass::Vec] <= 20);
    }

    #[test]
    fn control_registers_are_left_untouched() {
        let mut b = ProgramBuilder::new("ctrl");
        b.setvl(4);
        b.setvs(8);
        let base = b.imm(0);
        let v = b.rv();
        b.vload(v, base, 0);
        b.halt();
        let p = b.finish();
        let machine = presets::vector2(2);
        let (alloc_p, _) = allocate(&p, &machine).unwrap();
        let setvl = alloc_p
            .iter_ops()
            .map(|(_, o)| o)
            .find(|o| o.opcode == vmv_isa::Opcode::SetVL)
            .unwrap();
        assert_eq!(setvl.dst, Some(Reg::vl()));
    }
}
