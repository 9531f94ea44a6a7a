//! Data-dependence graph (DDG) construction for one basic block.
//!
//! The scheduler operates per basic block (the hand-written kernels unroll
//! their hot loops, which plays the role of the superblock formation used by
//! the paper's Trimaran tool-chain).  Edges carry the minimum issue distance
//! between the two operations, derived from the HPL-PD latency descriptors
//! of Fig. 3 and, for vector RAW dependences, from the chaining rule of
//! §3.3.

use vmv_isa::{Op, Reg, RegClass, RegIndex};
use vmv_machine::MachineConfig;

use crate::restable::{unit_pool, Pool};

/// Why two operations are ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DepKind {
    /// Read-after-write (true / flow dependence).
    Raw,
    /// Write-after-read (anti dependence).
    War,
    /// Write-after-write (output dependence).
    Waw,
    /// Conservative memory ordering (store↔store, store↔load).
    Mem,
    /// Ordering edge keeping control transfers at the end of the block.
    Control,
}

/// One dependence edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepEdge {
    pub from: usize,
    pub to: usize,
    pub kind: DepKind,
    /// Minimum number of cycles between the issue of `from` and the issue of
    /// `to`.
    pub latency: u32,
}

/// What the scheduler needs to know about one operation's timing on a
/// machine, read off its latency descriptor once per block.
#[derive(Debug, Clone, Copy)]
pub(crate) struct OpTiming {
    /// Functional-unit / port pool the operation draws from.
    pub pool: Pool,
    /// Cycles the operation keeps its unit busy (Fig. 3b).
    pub occupancy: u32,
    /// RAW issue distance to a consumer reading through the register file.
    pub result: u32,
    /// RAW issue distance to a chained vector consumer (§3.3).
    pub chained: u32,
}

impl OpTiming {
    pub fn of(op: &Op, machine: &MachineConfig) -> Self {
        let desc = machine.latency_descriptor(op);
        OpTiming {
            pool: unit_pool(op, machine),
            occupancy: desc.occupancy(),
            result: desc.result_latency().max(1),
            chained: desc.chained_latency().max(1),
        }
    }
}

/// Edges under construction, with the out-degree of every op so far.
struct EdgeList {
    edges: Vec<DepEdge>,
    out_degree: Vec<u32>,
}

impl EdgeList {
    fn add(&mut self, from: usize, to: usize, kind: DepKind, latency: u32) {
        self.out_degree[from] += 1;
        self.edges.push(DepEdge {
            from,
            to,
            kind,
            latency,
        });
    }
}

/// "No operation" in the dense per-register tables.
const NONE: u32 = u32::MAX;

/// The dependence graph of one basic block.
#[derive(Debug, Clone)]
pub struct DepGraph {
    pub num_ops: usize,
    pub edges: Vec<DepEdge>,
    /// Successors in compressed sparse-row form: the edges leaving op `i`
    /// are `succ_edges[succ_offsets[i]..succ_offsets[i + 1]]`, as indices
    /// into `edges` in creation order.
    succ_offsets: Vec<u32>,
    succ_edges: Vec<u32>,
    /// Number of edges ending at each op.
    pred_counts: Vec<u32>,
}

impl DepGraph {
    /// Build the dependence graph of `ops` for the given machine.
    pub fn build(ops: &[Op], machine: &MachineConfig) -> Self {
        let timing: Vec<OpTiming> = ops.iter().map(|op| OpTiming::of(op, machine)).collect();
        Self::with_timing(ops, &timing, machine.chaining)
    }

    /// Build the graph from per-op timings computed by the caller.
    pub(crate) fn with_timing(ops: &[Op], timing: &[OpTiming], chaining: bool) -> Self {
        let n = ops.len();
        let mut edges = EdgeList {
            edges: Vec::with_capacity(4 * n),
            out_degree: vec![0; n],
        };

        // For RAW edges we need, for every register, the index of the last
        // writer; for WAR/WAW edges the last readers / writer as well.  Both
        // are dense tables over the block's registers.  The readers since
        // each register's last write form a linked list threaded through
        // one shared arena (`reader_op` / `reader_next`), head and tail per
        // register, so recording a read never allocates per register.
        let regs = RegIndex::covering(ops);
        let mut last_writer = vec![NONE; regs.len()];
        let mut readers_head = vec![NONE; regs.len()];
        let mut readers_tail = vec![NONE; regs.len()];
        let mut reader_op: Vec<u32> = Vec::with_capacity(3 * n);
        let mut reader_next: Vec<u32> = Vec::with_capacity(3 * n);
        let mut last_store: Option<usize> = None;
        let mut loads_since_store: Vec<usize> = Vec::new();

        for (i, op) in ops.iter().enumerate() {
            // Control transfers stay at the end of the block: every earlier
            // operation must issue no later than the branch.  Only ops with
            // no successor yet need the edge: every other op reaches one of
            // them along edges of non-negative latency, so it already issues
            // no later, and it is placed before them.
            if op.opcode.is_branch() || op.opcode == vmv_isa::Opcode::Halt {
                for j in 0..i {
                    if edges.out_degree[j] == 0 {
                        edges.add(j, i, DepKind::Control, 0);
                    }
                }
            }

            // RAW: this op reads a register written earlier in the block.
            for r in op.reads() {
                let w = last_writer[regs.id(r)];
                if w != NONE {
                    let w = w as usize;
                    let latency = raw_latency(&ops[w], &timing[w], op, r, chaining);
                    edges.add(w, i, DepKind::Raw, latency);
                }
            }

            if let Some(dst) = op.writes() {
                let d = regs.id(dst);
                // WAW: ordered after the previous writer.
                if last_writer[d] != NONE {
                    edges.add(last_writer[d] as usize, i, DepKind::Waw, 1);
                }
                // WAR: ordered after previous readers.
                let mut at = readers_head[d];
                while at != NONE {
                    let r = reader_op[at as usize] as usize;
                    if r != i {
                        edges.add(r, i, DepKind::War, 0);
                    }
                    at = reader_next[at as usize];
                }
            }

            // Memory ordering: conservative (no alias analysis inside a
            // block; the kernels' memory disambiguation is achieved by
            // keeping independent accesses in separate registers/blocks).
            if op.opcode.is_store() {
                if let Some(s) = last_store {
                    edges.add(s, i, DepKind::Mem, 1);
                }
                for &l in &loads_since_store {
                    edges.add(l, i, DepKind::Mem, 0);
                }
                last_store = Some(i);
                loads_since_store.clear();
            } else if op.opcode.is_load() {
                if let Some(s) = last_store {
                    edges.add(s, i, DepKind::Mem, 1);
                }
                loads_since_store.push(i);
            }

            // Update bookkeeping.
            for r in op.reads() {
                let id = regs.id(r);
                let at = reader_op.len() as u32;
                reader_op.push(i as u32);
                reader_next.push(NONE);
                match readers_tail[id] {
                    NONE => readers_head[id] = at,
                    tail => reader_next[tail as usize] = at,
                }
                readers_tail[id] = at;
            }
            if let Some(dst) = op.writes() {
                let d = regs.id(dst);
                last_writer[d] = i as u32;
                readers_head[d] = NONE;
                readers_tail[d] = NONE;
            }
        }

        // Successor lists in CSR form: prefix-sum the out-degrees, then
        // scatter the edge indices (each op's list stays in creation order).
        let EdgeList { edges, out_degree } = edges;
        let mut succ_offsets = vec![0u32; n + 1];
        for i in 0..n {
            succ_offsets[i + 1] = succ_offsets[i] + out_degree[i];
        }
        let mut pred_counts = vec![0u32; n];
        let mut cursor = succ_offsets.clone();
        let mut succ_edges = vec![0u32; edges.len()];
        for (idx, e) in edges.iter().enumerate() {
            pred_counts[e.to] += 1;
            succ_edges[cursor[e.from] as usize] = idx as u32;
            cursor[e.from] += 1;
        }
        DepGraph {
            num_ops: n,
            edges,
            succ_offsets,
            succ_edges,
            pred_counts,
        }
    }

    /// The edges leaving op `i`, in creation order.
    pub fn succs(&self, i: usize) -> impl Iterator<Item = &DepEdge> + '_ {
        let range = self.succ_offsets[i] as usize..self.succ_offsets[i + 1] as usize;
        self.succ_edges[range]
            .iter()
            .map(|&e| &self.edges[e as usize])
    }

    /// Critical-path height of every operation: the longest latency path
    /// from the operation to the end of the block.  Used as the list
    /// scheduler's priority.
    pub fn heights(&self) -> Vec<u32> {
        let mut heights = vec![0u32; self.num_ops];
        // Operations are in program order, so a reverse sweep sees all
        // successors (edges always point forward) before their predecessors.
        for i in (0..self.num_ops).rev() {
            heights[i] = self
                .succs(i)
                .map(|e| e.latency + heights[e.to])
                .max()
                .unwrap_or(0);
        }
        heights
    }

    /// Number of predecessors of each op (used to seed the ready list).
    pub fn pred_counts(&self) -> &[u32] {
        &self.pred_counts
    }
}

/// Issue-to-issue latency of a RAW dependence from `producer` to `consumer`
/// through register `reg`.
fn raw_latency(producer: &Op, timing: &OpTiming, consumer: &Op, reg: Reg, chaining: bool) -> u32 {
    // Chaining (paper §3.3): a vector operation that reads a *vector
    // register* produced by another vector operation may be scheduled as
    // soon as the first elements are available, i.e. after the producer's
    // sub-operation flow latency rather than its full completion.
    let vector_chain = chaining
        && reg.class == RegClass::Vec
        && producer.opcode.is_vector_op()
        && consumer.opcode.is_vector_op();
    if vector_chain {
        timing.chained
    } else {
        timing.result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::{Op, Opcode, Reg};
    use vmv_machine::presets;

    fn op_movi(dst: Reg, imm: i64) -> Op {
        Op::new(Opcode::MovI).with_dst(dst).with_imm(imm)
    }

    fn op_add(dst: Reg, a: Reg, b: Reg) -> Op {
        Op::new(Opcode::IAdd).with_dst(dst).with_srcs(&[a, b])
    }

    #[test]
    fn raw_dependence_has_producer_latency() {
        let machine = presets::vliw(2);
        let ops = vec![
            Op::new(Opcode::IMul)
                .with_dst(Reg::int(0))
                .with_srcs(&[Reg::int(1), Reg::int(2)]),
            op_add(Reg::int(3), Reg::int(0), Reg::int(1)),
        ];
        let g = DepGraph::build(&ops, &machine);
        let raw: Vec<_> = g.edges.iter().filter(|e| e.kind == DepKind::Raw).collect();
        assert_eq!(raw.len(), 1);
        assert_eq!(raw[0].latency, machine.latencies.int_mul);
    }

    #[test]
    fn war_and_waw_edges_are_created() {
        let machine = presets::vliw(2);
        let ops = vec![
            op_add(Reg::int(2), Reg::int(0), Reg::int(1)), // reads r0
            op_movi(Reg::int(0), 5),                       // writes r0 -> WAR with op0
            op_movi(Reg::int(0), 6),                       // writes r0 -> WAW with op1
        ];
        let g = DepGraph::build(&ops, &machine);
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::War && e.from == 0 && e.to == 1));
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Waw && e.from == 1 && e.to == 2));
    }

    #[test]
    fn loads_may_reorder_but_not_across_stores() {
        let machine = presets::vliw(2);
        let addr = Reg::int(0);
        let ops = vec![
            Op::new(Opcode::Load(vmv_isa::MemWidth::B4, vmv_isa::Sign::Signed))
                .with_dst(Reg::int(1))
                .with_srcs(&[addr])
                .with_imm(0),
            Op::new(Opcode::Load(vmv_isa::MemWidth::B4, vmv_isa::Sign::Signed))
                .with_dst(Reg::int(2))
                .with_srcs(&[addr])
                .with_imm(4),
            Op::new(Opcode::Store(vmv_isa::MemWidth::B4))
                .with_srcs(&[addr, Reg::int(1)])
                .with_imm(8),
        ];
        let g = DepGraph::build(&ops, &machine);
        // no edge between the two loads
        assert!(!g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.from == 0 && e.to == 1));
        // both loads are ordered before the store
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.from == 0 && e.to == 2));
        assert!(g
            .edges
            .iter()
            .any(|e| e.kind == DepKind::Mem && e.from == 1 && e.to == 2));
    }

    #[test]
    fn chaining_reduces_vector_raw_latency() {
        let chained = presets::vector2(2);
        let mut unchained = chained.clone();
        unchained.chaining = false;

        let mut vload = Op::new(Opcode::VLoad)
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::int(0)]);
        vload.vl_hint = Some(16);
        let mut vsad = Op::new(Opcode::VSadAcc).with_dst(Reg::acc(0)).with_srcs(&[
            Reg::acc(0),
            Reg::vec(0),
            Reg::vec(1),
        ]);
        vsad.vl_hint = Some(16);
        let ops = vec![vload, vsad];

        let lat_chained = DepGraph::build(&ops, &chained)
            .edges
            .iter()
            .find(|e| e.kind == DepKind::Raw)
            .unwrap()
            .latency;
        let lat_unchained = DepGraph::build(&ops, &unchained)
            .edges
            .iter()
            .find(|e| e.kind == DepKind::Raw)
            .unwrap()
            .latency;
        assert!(
            lat_chained < lat_unchained,
            "{lat_chained} vs {lat_unchained}"
        );
        // Chained: the consumer waits only the 5-cycle flow latency of the
        // load, not 5 + (16-1)/4.
        assert_eq!(lat_chained, chained.latencies.vec_mem);
        assert_eq!(lat_unchained, chained.latencies.vec_mem + 3);
    }

    #[test]
    fn branch_is_ordered_after_every_op() {
        let machine = presets::vliw(2);
        let ops = vec![
            op_movi(Reg::int(0), 1),
            op_movi(Reg::int(1), 2),
            Op::new(Opcode::Br(vmv_isa::BrCond::Ne))
                .with_srcs(&[Reg::int(0), Reg::int(1)])
                .with_target("x"),
        ];
        let g = DepGraph::build(&ops, &machine);
        let ctrl: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Control)
            .collect();
        assert_eq!(ctrl.len(), 2);
    }

    #[test]
    fn control_edges_come_only_from_ops_without_successors() {
        let machine = presets::vliw(2);
        let ops = vec![
            op_movi(Reg::int(0), 1),
            op_add(Reg::int(1), Reg::int(0), Reg::int(0)), // after op 0
            op_movi(Reg::int(2), 2),
            Op::new(Opcode::Halt),
        ];
        let g = DepGraph::build(&ops, &machine);
        let mut ctrl: Vec<_> = g
            .edges
            .iter()
            .filter(|e| e.kind == DepKind::Control)
            .map(|e| e.from)
            .collect();
        ctrl.sort();
        // Op 0 reaches the halt through op 1.
        assert_eq!(ctrl, [1, 2]);
    }

    #[test]
    fn heights_reflect_critical_path() {
        let machine = presets::vliw(2);
        let ops = vec![
            Op::new(Opcode::IMul)
                .with_dst(Reg::int(1))
                .with_srcs(&[Reg::int(0), Reg::int(0)]),
            op_add(Reg::int(2), Reg::int(1), Reg::int(0)),
            op_movi(Reg::int(3), 1),
        ];
        let g = DepGraph::build(&ops, &machine);
        let h = g.heights();
        assert!(h[0] > h[1]);
        assert_eq!(h[2], 0);
    }
}
