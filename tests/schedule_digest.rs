//! Schedule identity: every compile the paper's Table 2 defines, plus a
//! handful of generated points off the Table 2 grid, must produce exactly
//! the committed schedule, lowered program and register allocation.
//!
//! One FNV-1a digest per (configuration, benchmark) covers every bundle's
//! operations and the bundle boundaries, the `LoweredProgram`, and the
//! sorted allocation mapping with its peak pressures.  Scheduler, register
//! allocator and lowering changes that are meant to be pure speed-ups must
//! leave every digest untouched.
//!
//! Regenerate after an intentional schedule change with
//! `UPDATE_GOLDENS=1 cargo test --test schedule_digest`.

use std::fmt::Write;
use std::path::PathBuf;

use vector_usimd_vliw as vmv;

use vmv::core::prepare;
use vmv::kernels::Benchmark;
use vmv::machine::{all_configs, generate, GenParams, IsaSupport, MachineConfig};

/// FNV-1a folded over everything written to it, so large programs are
/// hashed without being rendered into one string first.
struct Fnv(u64);

impl Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        Ok(())
    }
}

/// Generated points exercising what Table 2 leaves out: chaining off,
/// 16 lanes and the 16-issue extrapolation.
fn generated_points() -> Vec<MachineConfig> {
    let points = [
        GenParams {
            isa: IsaSupport::Vector,
            issue_width: 4,
            vector_units: 1,
            vector_lanes: 16,
            chaining: Some(false),
            ..GenParams::default()
        },
        GenParams {
            isa: IsaSupport::Vector,
            issue_width: 16,
            vector_units: 2,
            vector_lanes: 16,
            chaining: Some(false),
            ..GenParams::default()
        },
        GenParams {
            isa: IsaSupport::Vector,
            issue_width: 16,
            vector_units: 2,
            vector_lanes: 8,
            ..GenParams::default()
        },
        GenParams {
            isa: IsaSupport::Usimd,
            issue_width: 16,
            ..GenParams::default()
        },
        GenParams {
            isa: IsaSupport::Vliw,
            issue_width: 16,
            ..GenParams::default()
        },
    ];
    points.iter().map(generate).collect()
}

/// Digest of one compile: bundles (with boundaries), lowered program and
/// allocation.
fn digest(machine: &MachineConfig, bench: Benchmark) -> u64 {
    let prepared = prepare(bench, machine)
        .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    for block in &prepared.compiled.program.blocks {
        writeln!(h, "block {} {}", block.label, block.region.0).unwrap();
        for bundle in &block.bundles {
            h.write_str("{").unwrap();
            for op in bundle {
                write!(h, "{op};").unwrap();
            }
            h.write_str("}\n").unwrap();
        }
    }
    writeln!(h, "{:?}", prepared.lowered).unwrap();
    let allocation = &prepared.compiled.allocation;
    let mut mapping: Vec<_> = allocation.mapping.iter().collect();
    mapping.sort();
    for (virt, phys) in mapping {
        write!(h, "{virt:?}>{phys:?};").unwrap();
    }
    let mut peaks: Vec<_> = allocation.peak_pressure.iter().collect();
    peaks.sort();
    writeln!(h, "\n{peaks:?}").unwrap();
    h.0
}

#[test]
fn every_schedule_matches_the_committed_digest() {
    let configs = all_configs();
    assert_eq!(configs.len(), 10, "Table 2 has ten configurations");
    let mut actual = String::new();
    for machine in configs.iter().chain(generated_points().iter()) {
        for bench in Benchmark::ALL {
            let d = digest(machine, bench);
            let chaining = if machine.chaining {
                "chained"
            } else {
                "unchained"
            };
            writeln!(
                actual,
                "{} | {chaining} | {} | {d:016x}",
                machine.name,
                bench.name()
            )
            .unwrap();
        }
    }

    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/schedule_digests.txt");
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, &actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden schedule_digests.txt ({e}) — run with UPDATE_GOLDENS=1")
    });
    let drifted: Vec<String> = actual
        .lines()
        .zip(expected.lines())
        .filter(|(a, e)| a != e)
        .map(|(a, e)| format!("  got {a}\n  want {e}"))
        .collect();
    assert!(
        drifted.is_empty() && actual.lines().count() == expected.lines().count(),
        "schedules drifted from the committed digests ({} line(s) differ):\n{}\n\
         if the schedule change is intentional, regenerate with \
         `UPDATE_GOLDENS=1 cargo test --test schedule_digest`",
        drifted.len(),
        drifted.join("\n")
    );
}
