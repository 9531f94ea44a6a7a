//! Resource reservation table used by the list scheduler.
//!
//! Resources are modeled at the granularity the paper's Table 2 specifies:
//! issue slots (the VLIW width), integer units, µSIMD units, vector units,
//! L1 data-cache ports and the L2 vector-cache port.  On the Vector
//! configurations (which have no dedicated µSIMD units) packed µSIMD
//! operations execute on the vector units, so they draw from the same pool.
//!
//! Vector operations occupy their functional unit (and vector memory
//! operations the L2 port) for several consecutive cycles — `1 + (VL-1)/LN`
//! — because only `LN` sub-operations can be initiated per cycle (Fig. 3b).

use vmv_isa::{FuClass, Op};
use vmv_machine::MachineConfig;

/// Physical resource pools.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pool {
    Issue,
    IntUnits,
    SimdUnits,
    VectorUnits,
    L1Ports,
    L2Ports,
}

const NUM_POOLS: usize = 6;

fn pool_index(p: Pool) -> usize {
    match p {
        Pool::Issue => 0,
        Pool::IntUnits => 1,
        Pool::SimdUnits => 2,
        Pool::VectorUnits => 3,
        Pool::L1Ports => 4,
        Pool::L2Ports => 5,
    }
}

/// Resource pool an operation's functional-unit requirement maps to on a
/// given machine.
pub fn unit_pool(op: &Op, machine: &MachineConfig) -> Pool {
    match op.opcode.fu_class() {
        FuClass::Int => Pool::IntUnits,
        FuClass::Simd => {
            if machine.simd_units > 0 {
                Pool::SimdUnits
            } else {
                // µSIMD operations run on the vector units (VL = 1) on the
                // Vector configurations.
                Pool::VectorUnits
            }
        }
        FuClass::Vector => Pool::VectorUnits,
        FuClass::MemL1 => Pool::L1Ports,
        FuClass::MemL2 => Pool::L2Ports,
    }
}

/// Capacity of each pool on a machine.
fn capacity(machine: &MachineConfig, pool: Pool) -> usize {
    match pool {
        Pool::Issue => machine.issue_width,
        Pool::IntUnits => machine.int_units,
        Pool::SimdUnits => machine.simd_units,
        Pool::VectorUnits => machine.vector_units,
        Pool::L1Ports => machine.l1_ports,
        Pool::L2Ports => machine.l2_ports,
    }
}

/// The reservation table: per-cycle usage counters for every pool.
#[derive(Debug, Clone)]
pub struct ReservationTable<'m> {
    machine: &'m MachineConfig,
    usage: Vec<[usize; NUM_POOLS]>,
}

impl<'m> ReservationTable<'m> {
    pub fn new(machine: &'m MachineConfig) -> Self {
        ReservationTable {
            machine,
            usage: Vec::new(),
        }
    }

    fn ensure(&mut self, cycle: usize) {
        if self.usage.len() <= cycle {
            self.usage.resize(cycle + 1, [0; NUM_POOLS]);
        }
    }

    fn used(&self, cycle: u32, pool: Pool) -> usize {
        self.usage
            .get(cycle as usize)
            .map(|u| u[pool_index(pool)])
            .unwrap_or(0)
    }

    /// Number of cycles an operation keeps its functional unit / memory port
    /// busy: the initiation occupancy of Fig. 3b.
    pub fn occupancy(&self, op: &Op) -> u32 {
        self.machine.latency_descriptor(op).occupancy()
    }

    /// Can `op` be issued at `cycle` without oversubscribing any resource?
    pub fn can_place(&self, op: &Op, cycle: u32) -> bool {
        self.fits(unit_pool(op, self.machine), self.occupancy(op), cycle)
    }

    /// Can an operation drawing on `pool` for `occupancy` cycles issue at
    /// `cycle`?  [`Self::can_place`] with the pool and occupancy already
    /// resolved, for callers that precompute them per operation.
    pub(crate) fn fits(&self, pool: Pool, occupancy: u32, cycle: u32) -> bool {
        let unit_cap = capacity(self.machine, pool);
        if unit_cap == 0 {
            return false;
        }
        // Issue slot in the issue cycle.
        if self.used(cycle, Pool::Issue) >= capacity(self.machine, Pool::Issue) {
            return false;
        }
        // Functional unit / port for the whole occupancy window.
        (cycle..cycle + occupancy).all(|c| self.used(c, pool) < unit_cap)
    }

    /// Reserve the resources for `op` issued at `cycle`.  Panics if the
    /// placement is infeasible (callers check with [`Self::can_place`]).
    pub fn place(&mut self, op: &Op, cycle: u32) {
        let (pool, occupancy) = (unit_pool(op, self.machine), self.occupancy(op));
        assert!(
            self.fits(pool, occupancy, cycle),
            "resource oversubscription placing {op}"
        );
        self.reserve(pool, occupancy, cycle);
    }

    /// Reserve an issue slot at `cycle` and `pool` for `occupancy` cycles.
    /// Callers check with [`Self::fits`] first.
    pub(crate) fn reserve(&mut self, pool: Pool, occupancy: u32, cycle: u32) {
        debug_assert!(self.fits(pool, occupancy, cycle));
        self.ensure((cycle + occupancy) as usize);
        self.usage[cycle as usize][pool_index(Pool::Issue)] += 1;
        for c in cycle..cycle + occupancy {
            self.usage[c as usize][pool_index(pool)] += 1;
        }
    }

    /// Number of operations issued in `cycle` (used by tests).
    pub fn issued_in(&self, cycle: u32) -> usize {
        self.used(cycle, Pool::Issue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_isa::{Elem, Op, Opcode, Reg, Sat};
    use vmv_machine::presets;

    fn int_op() -> Op {
        Op::new(Opcode::IAdd)
            .with_dst(Reg::int(0))
            .with_srcs(&[Reg::int(1), Reg::int(2)])
    }

    fn vec_op(vl: u32) -> Op {
        let mut op = Op::new(Opcode::VAdd(Elem::H, Sat::Wrap))
            .with_dst(Reg::vec(0))
            .with_srcs(&[Reg::vec(1), Reg::vec(2)]);
        op.vl_hint = Some(vl);
        op
    }

    #[test]
    fn issue_width_limits_total_ops_per_cycle() {
        let machine = presets::vliw(2);
        let mut t = ReservationTable::new(&machine);
        let op = int_op();
        assert!(t.can_place(&op, 0));
        t.place(&op, 0);
        assert!(t.can_place(&op, 0));
        t.place(&op, 0);
        // issue width 2 reached even though the machine has 2 int units
        assert!(!t.can_place(&op, 0));
        assert!(t.can_place(&op, 1));
    }

    #[test]
    fn unsupported_pool_is_rejected() {
        let machine = presets::vliw(4);
        let t = ReservationTable::new(&machine);
        let vop = vec_op(8);
        assert!(!t.can_place(&vop, 0), "base VLIW has no vector units");
    }

    #[test]
    fn vector_occupancy_blocks_the_unit_for_several_cycles() {
        let machine = presets::vector1(2); // one vector unit, 4 lanes
        let mut t = ReservationTable::new(&machine);
        let vop = vec_op(16); // occupancy = 1 + 15/4 = 4 cycles
        assert_eq!(t.occupancy(&vop), 4);
        t.place(&vop, 0);
        // The single vector unit is busy during cycles 0..4.
        assert!(!t.can_place(&vec_op(16), 1));
        assert!(!t.can_place(&vec_op(16), 3));
        assert!(t.can_place(&vec_op(16), 4));
    }

    #[test]
    fn two_vector_units_allow_overlap() {
        let machine = presets::vector2(2); // two vector units
        let mut t = ReservationTable::new(&machine);
        t.place(&vec_op(16), 0);
        assert!(t.can_place(&vec_op(16), 1), "second vector unit is free");
    }

    #[test]
    fn usimd_ops_share_vector_units_on_vector_configs() {
        let machine = presets::vector1(2);
        let p_op = Op::new(Opcode::PAdd(Elem::B, Sat::Wrap))
            .with_dst(Reg::simd(0))
            .with_srcs(&[Reg::simd(1), Reg::simd(2)]);
        assert_eq!(unit_pool(&p_op, &machine), Pool::VectorUnits);
        let usimd_machine = presets::usimd(2);
        assert_eq!(unit_pool(&p_op, &usimd_machine), Pool::SimdUnits);
    }

    #[test]
    fn l1_port_contention() {
        let machine = presets::vliw(2); // one L1 port
        let mut t = ReservationTable::new(&machine);
        let ld = Op::new(Opcode::Load(vmv_isa::MemWidth::B4, vmv_isa::Sign::Signed))
            .with_dst(Reg::int(1))
            .with_srcs(&[Reg::int(0)])
            .with_imm(0);
        t.place(&ld, 0);
        assert!(
            !t.can_place(&ld, 0),
            "only one L1 port on the 2-issue machine"
        );
        assert!(t.can_place(&ld, 1));
    }
}
