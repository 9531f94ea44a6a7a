//! Register files and register identifiers.
//!
//! The architecture (paper §3.2, Table 2) has five architecturally visible
//! register classes:
//!
//! * **Int** — 64-bit general purpose integer registers (addresses, scalars,
//!   loop counters).
//! * **Simd** — 64-bit µSIMD registers holding packed sub-word data
//!   (eight 8-bit / four 16-bit / two 32-bit elements).
//! * **Vec** — vector registers of 16 × 64-bit words; each word is itself a
//!   packed µSIMD word, so a vector register holds a matrix of up to 16 × 8
//!   elements.
//! * **Acc** — 192-bit packed accumulators used by reductions (SAD,
//!   multiply-accumulate).
//! * **Ctrl** — the two control registers: the vector-length register `VL`
//!   and the vector-stride register `VS`.

use std::fmt;

use crate::program::Op;

/// Maximum architectural vector length (number of 64-bit words per vector
/// register), fixed at 16 by the ISA (paper §3.1).
pub const MAX_VL: u32 = 16;

/// Register class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum RegClass {
    /// 64-bit integer registers.
    Int,
    /// 64-bit packed µSIMD registers.
    Simd,
    /// Vector registers (16 × 64-bit words).
    Vec,
    /// 192-bit packed accumulators.
    Acc,
    /// Control registers (`VL`, `VS`).
    Ctrl,
}

impl RegClass {
    /// All register classes, in a fixed order (useful for iteration in the
    /// register allocator and the simulator).
    pub const ALL: [RegClass; 5] = [
        RegClass::Int,
        RegClass::Simd,
        RegClass::Vec,
        RegClass::Acc,
        RegClass::Ctrl,
    ];

    /// Short prefix used when printing registers (`r`, `s`, `v`, `a`, `c`).
    pub fn prefix(self) -> &'static str {
        match self {
            RegClass::Int => "r",
            RegClass::Simd => "s",
            RegClass::Vec => "v",
            RegClass::Acc => "a",
            RegClass::Ctrl => "c",
        }
    }
}

/// Index of the vector-length control register.
pub const CTRL_VL: u32 = 0;
/// Index of the vector-stride control register.
pub const CTRL_VS: u32 = 1;

/// A register identifier.  Before register allocation the index is a
/// *virtual* register number (unbounded); after allocation it is a physical
/// register number within the class's architectural register file.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Reg {
    pub class: RegClass,
    pub index: u32,
}

impl Reg {
    pub const fn new(class: RegClass, index: u32) -> Self {
        Reg { class, index }
    }

    pub const fn int(index: u32) -> Self {
        Reg::new(RegClass::Int, index)
    }

    pub const fn simd(index: u32) -> Self {
        Reg::new(RegClass::Simd, index)
    }

    pub const fn vec(index: u32) -> Self {
        Reg::new(RegClass::Vec, index)
    }

    pub const fn acc(index: u32) -> Self {
        Reg::new(RegClass::Acc, index)
    }

    /// The vector-length control register.
    pub const fn vl() -> Self {
        Reg::new(RegClass::Ctrl, CTRL_VL)
    }

    /// The vector-stride control register.
    pub const fn vs() -> Self {
        Reg::new(RegClass::Ctrl, CTRL_VS)
    }
}

impl fmt::Debug for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{}", self.class.prefix(), self.index)
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.class == RegClass::Ctrl {
            match self.index {
                CTRL_VL => write!(f, "vl"),
                CTRL_VS => write!(f, "vs"),
                i => write!(f, "c{i}"),
            }
        } else {
            write!(f, "{}{}", self.class.prefix(), self.index)
        }
    }
}

/// Architectural register file sizes for one machine configuration
/// (Table 2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegFileSizes {
    pub int: u32,
    pub simd: u32,
    pub vec: u32,
    pub acc: u32,
}

impl RegFileSizes {
    /// Number of physical registers available for a class.  Control
    /// registers always exist (VL and VS).
    pub fn count(&self, class: RegClass) -> u32 {
        match class {
            RegClass::Int => self.int,
            RegClass::Simd => self.simd,
            RegClass::Vec => self.vec,
            RegClass::Acc => self.acc,
            RegClass::Ctrl => 2,
        }
    }
}

/// Position of a class in `RegClass::ALL` (and in every per-class table).
fn class_pos(class: RegClass) -> usize {
    match class {
        RegClass::Int => 0,
        RegClass::Simd => 1,
        RegClass::Vec => 2,
        RegClass::Acc => 3,
        RegClass::Ctrl => 4,
    }
}

/// Dense numbering of the registers a sequence of operations touches.
///
/// Class `k` (in `RegClass::ALL` order) owns the ids `base(k) .. base(k+1)`,
/// one per register index up to the highest index the operations use, so
/// per-register compile-time state (liveness bitsets, last-writer tables,
/// rename maps) lives in flat arrays instead of hash maps keyed by `Reg`.
/// Unlike [`SlotLayout`], which is sized by a machine's register files,
/// the numbering is sized by the operations themselves, so it also covers
/// virtual registers before allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegIndex {
    bases: [usize; 6],
}

impl RegIndex {
    /// Number every register that `ops` read or write.
    pub fn covering<'a>(ops: impl IntoIterator<Item = &'a Op>) -> RegIndex {
        let mut counts = [0usize; 5];
        for op in ops {
            for r in op.reads().chain(op.writes()) {
                let k = class_pos(r.class);
                counts[k] = counts[k].max(r.index as usize + 1);
            }
        }
        let mut bases = [0usize; 6];
        for k in 0..5 {
            bases[k + 1] = bases[k] + counts[k];
        }
        RegIndex { bases }
    }

    /// Total number of ids.
    pub fn len(&self) -> usize {
        self.bases[5]
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Id of a register the numbering covers.
    #[inline]
    pub fn id(&self, r: Reg) -> usize {
        let k = class_pos(r.class);
        let id = self.bases[k] + r.index as usize;
        debug_assert!(id < self.bases[k + 1], "{r:?} is not covered");
        id
    }

    /// The ids of one class, in increasing register index.
    pub fn ids_of(&self, class: RegClass) -> std::ops::Range<usize> {
        let k = class_pos(class);
        self.bases[k]..self.bases[k + 1]
    }

    /// The register behind an id of `class` (inverse of [`Self::id`]).
    pub fn reg(&self, class: RegClass, id: usize) -> Reg {
        Reg::new(class, (id - self.bases[class_pos(class)]) as u32)
    }
}

/// Sentinel slot value meaning "no slot" (e.g. an operation without a
/// destination register).  Kept out of the valid range by [`SlotLayout`].
pub const NO_SLOT: u16 = u16::MAX;

/// Flat slot indexing of every architectural register of one machine.
///
/// The five register classes are laid out back to back in a single dense
/// index space — `[int | simd | vec | acc | ctrl]` — so run-time structures
/// keyed by register (most importantly the simulator's ready-time
/// scoreboard) can be plain arrays indexed by slot instead of hash maps
/// keyed by `Reg`.  The layout mirrors the simulator's register files: a
/// class with zero architectural registers still gets one slot, matching
/// the one spare entry `RegFiles` allocates for inspection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotLayout {
    /// Per-class register counts (each at least 1, ctrl fixed at 2).
    counts: [u32; 5],
    /// Base slot of each class, in `RegClass::ALL` order.
    bases: [u16; 5],
    /// Total number of slots.
    total: u16,
}

impl SlotLayout {
    /// Build the layout for one machine's register files.
    pub fn new(sizes: &RegFileSizes) -> SlotLayout {
        let mut counts = [0u32; 5];
        let mut bases = [0u16; 5];
        let mut next: u32 = 0;
        for (i, class) in RegClass::ALL.iter().enumerate() {
            counts[i] = sizes.count(*class).max(1);
            bases[i] = next as u16;
            next += counts[i];
        }
        assert!(
            next < NO_SLOT as u32,
            "register files too large for u16 slot indices ({next} slots)"
        );
        SlotLayout {
            counts,
            bases,
            total: next as u16,
        }
    }

    /// Total number of slots (the scoreboard length).
    pub fn total_slots(&self) -> usize {
        self.total as usize
    }

    /// Slot of a register, or `None` when its index exceeds the class's
    /// architectural register count.
    pub fn slot_of(&self, r: Reg) -> Option<u16> {
        let pos = class_pos(r.class);
        if r.index < self.counts[pos] {
            Some(self.bases[pos] + r.index as u16)
        } else {
            None
        }
    }

    /// Slot of the vector-length control register.
    pub fn vl_slot(&self) -> u16 {
        self.bases[4] + CTRL_VL as u16
    }

    /// Slot of the vector-stride control register.
    pub fn vs_slot(&self) -> u16 {
        self.bases[4] + CTRL_VS as u16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        assert_eq!(Reg::int(3).to_string(), "r3");
        assert_eq!(Reg::simd(12).to_string(), "s12");
        assert_eq!(Reg::vec(0).to_string(), "v0");
        assert_eq!(Reg::acc(1).to_string(), "a1");
        assert_eq!(Reg::vl().to_string(), "vl");
        assert_eq!(Reg::vs().to_string(), "vs");
    }

    #[test]
    fn regfile_counts() {
        let sizes = RegFileSizes {
            int: 64,
            simd: 0,
            vec: 20,
            acc: 4,
        };
        assert_eq!(sizes.count(RegClass::Int), 64);
        assert_eq!(sizes.count(RegClass::Vec), 20);
        assert_eq!(sizes.count(RegClass::Ctrl), 2);
    }

    #[test]
    fn reg_equality_and_ordering() {
        assert_eq!(Reg::int(1), Reg::int(1));
        assert_ne!(Reg::int(1), Reg::simd(1));
        assert!(Reg::int(1) < Reg::int(2));
    }

    #[test]
    fn slot_layout_is_dense_and_injective() {
        let sizes = RegFileSizes {
            int: 64,
            simd: 16,
            vec: 20,
            acc: 4,
        };
        let layout = SlotLayout::new(&sizes);
        assert_eq!(layout.total_slots(), 64 + 16 + 20 + 4 + 2);
        let mut seen = std::collections::HashSet::new();
        for (class, count) in [
            (RegClass::Int, 64),
            (RegClass::Simd, 16),
            (RegClass::Vec, 20),
            (RegClass::Acc, 4),
            (RegClass::Ctrl, 2),
        ] {
            for i in 0..count {
                let slot = layout.slot_of(Reg::new(class, i)).unwrap();
                assert!((slot as usize) < layout.total_slots());
                assert!(seen.insert(slot), "slot {slot} assigned twice");
            }
        }
        assert_eq!(seen.len(), layout.total_slots());
        assert_eq!(layout.slot_of(Reg::vl()), Some(layout.vl_slot()));
        assert_eq!(layout.slot_of(Reg::vs()), Some(layout.vs_slot()));
    }

    #[test]
    fn reg_index_numbers_each_class_densely() {
        let ops = [
            Op::new(crate::Opcode::IAdd)
                .with_dst(Reg::int(3))
                .with_srcs(&[Reg::int(0), Reg::int(1)]),
            Op::new(crate::Opcode::VLoad)
                .with_dst(Reg::vec(1))
                .with_srcs(&[Reg::int(2)]),
        ];
        let index = RegIndex::covering(&ops);
        // r0..r3, no simd, v0..v1, no acc, vl and vs.
        assert_eq!(index.len(), 4 + 2 + 2);
        assert_eq!(index.ids_of(RegClass::Int), 0..4);
        assert_eq!(index.ids_of(RegClass::Simd), 4..4);
        assert_eq!(index.id(Reg::vec(1)), 5);
        assert_eq!(index.id(Reg::vs()), 7);
        for r in [Reg::int(2), Reg::vec(0), Reg::vl()] {
            assert_eq!(index.reg(r.class, index.id(r)), r);
        }
    }

    #[test]
    fn slot_layout_rejects_out_of_range_registers() {
        let sizes = RegFileSizes {
            int: 8,
            simd: 0,
            vec: 4,
            acc: 2,
        };
        let layout = SlotLayout::new(&sizes);
        assert!(layout.slot_of(Reg::int(7)).is_some());
        assert!(layout.slot_of(Reg::int(8)).is_none());
        assert!(layout.slot_of(Reg::vec(4)).is_none());
        // A zero-sized class still gets the one spare slot RegFiles keeps.
        assert!(layout.slot_of(Reg::simd(0)).is_some());
        assert!(layout.slot_of(Reg::simd(1)).is_none());
    }
}
