//! Differential harness for the lowered execution engine.
//!
//! The simulator has three interpretation loops: the original string-keyed
//! reference engine (`Simulator::run_reference` — hash-map scoreboard,
//! label-map branch resolution, per-operation metadata re-derivation), the
//! lowered hot path (`Simulator::run_lowered` — slot-indexed scoreboard
//! over the pre-resolved `LoweredProgram`), and the batched trace-replay
//! retimer (`vmv_sim::replay_batch` — no functional execution at all, just
//! the recorded block/access/VL streams walked once while every memory
//! variant advances in lockstep).  Any timing-semantics change is only
//! sound if all three agree *exactly*: same cycles, same stalls, same
//! per-region breakdown, same memory-system counters, on every workload and
//! machine.
//!
//! This harness proves that on all ten Table 2 presets across the complete
//! kernel suite, under both memory models.  Replay is checked at two batch
//! widths: a batch of one per model (what `vmv_core::simulate` runs) and a
//! batch of two retiming both models in one walk (what the sweep executor
//! runs).  The replay legs are deliberately cross-model: the trace is
//! recorded **once under perfect memory** and replayed under both models,
//! which is exactly how the sweep executor reuses one trace across a memory
//! axis.

use vector_usimd_vliw as vmv;
use vmv::core::{prepare, variant_for};
use vmv::kernels::Benchmark;
use vmv::machine::all_configs;
use vmv::mem::MemoryModel;
use vmv::sim::{ReplayAnalysis, SimOptions, Simulator, VariantState};

const MAX_CYCLES: u64 = 2_000_000_000;

/// Both memory models, in the order a batch of two holds them.
const MODELS: [MemoryModel; 2] = [MemoryModel::Perfect, MemoryModel::Realistic];

/// One replay variant of `machine` per entry of `models`.
fn variants_for(
    analysis: &ReplayAnalysis,
    machine: &vmv::machine::MachineConfig,
    models: &[MemoryModel],
) -> Vec<VariantState> {
    models
        .iter()
        .map(|&model| VariantState::new(analysis, machine, model, MAX_CYCLES))
        .collect()
}

/// Run one prepared benchmark through the given engine.
fn run_with(
    prepared: &vmv::core::Prepared,
    machine: &vmv::machine::MachineConfig,
    model: MemoryModel,
    lowered: bool,
) -> vmv::sim::RunStats {
    let mut sim = Simulator::new(
        machine,
        SimOptions {
            memory_model: model,
            mem_size: prepared.build.mem_size.max(1 << 20),
            max_cycles: MAX_CYCLES,
        },
    );
    for (addr, bytes) in &prepared.build.init {
        sim.mem.write_bytes(*addr, bytes);
    }
    if lowered {
        sim.run_lowered(&prepared.lowered).expect("lowered run")
    } else {
        sim.run_reference(&prepared.compiled.program)
            .expect("reference run")
    }
}

#[test]
fn lowered_engine_matches_reference_on_all_table2_presets() {
    let configs = all_configs();
    assert_eq!(configs.len(), 10, "Table 2 has ten configurations");
    let mut compared = 0usize;
    for machine in &configs {
        for bench in Benchmark::ALL {
            let prepared = prepare(bench, machine)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
            // Record the trace once, under perfect memory; the replay legs
            // below retime it under *both* models (the cross-model reuse
            // the sweep's trace cache depends on).
            let (recorded_stats, trace) = {
                let mut sim = Simulator::new(
                    machine,
                    SimOptions {
                        memory_model: MemoryModel::Perfect,
                        mem_size: prepared.build.mem_size.max(1 << 20),
                        max_cycles: MAX_CYCLES,
                    },
                );
                for (addr, bytes) in &prepared.build.init {
                    sim.mem.write_bytes(*addr, bytes);
                }
                sim.run_lowered_recording(&prepared.lowered)
                    .expect("recording run")
            };
            // A batch of two retimes the trace under both models in one
            // walk; per-variant results are compared inside the loop below.
            let analysis = ReplayAnalysis::build(&prepared.lowered);
            let pair = vmv::sim::replay_batch(
                &trace,
                &analysis,
                &variants_for(&analysis, machine, &MODELS),
            )
            .unwrap_or_else(|e| panic!("batch of two: {} on {}: {e}", bench.name(), machine.name));
            for (bi, model) in MODELS.into_iter().enumerate() {
                let ctx = || {
                    format!(
                        "{} ({}) on {} under {:?}",
                        bench.name(),
                        variant_for(machine).name(),
                        machine.name,
                        model
                    )
                };
                let reference = run_with(&prepared, machine, model, false);
                let lowered = run_with(&prepared, machine, model, true);
                assert_eq!(reference, lowered, "RunStats diverged: {}", ctx());
                let single = vmv::sim::replay_batch(
                    &trace,
                    &analysis,
                    &variants_for(&analysis, machine, &[model]),
                )
                .unwrap_or_else(|e| panic!("batch of one: {}: {e}", ctx()));
                assert_eq!(reference, single[0], "batch of one diverged: {}", ctx());
                assert_eq!(reference, pair[bi], "batch of two diverged: {}", ctx());
                if model == MemoryModel::Perfect {
                    assert_eq!(
                        recorded_stats,
                        reference,
                        "recording must not perturb timing: {}",
                        ctx()
                    );
                }
                compared += 1;
            }
        }
    }
    // 10 configurations x 6 benchmarks x 2 memory models, each compared
    // across all three engines (replay at batch widths one and two).
    assert_eq!(compared, 120);
}

/// The cycle-attribution contract, on the same 120-case matrix: for every
/// preset x kernel x memory model and for both profiled engines (lowered,
/// and batched replay at widths one and two), the per-cause attributed
/// cycles sum *exactly* to the `RunStats` totals (in total and per region,
/// via `Profile::check_against`), enabling profiling never changes
/// `RunStats`, and every leg derives the *same* profile.
#[test]
fn profiler_attribution_contract_on_all_presets() {
    let configs = all_configs();
    let mut checked = 0usize;
    for machine in &configs {
        for bench in Benchmark::ALL {
            let prepared = prepare(bench, machine)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
            let statics = prepared.profile_statics(machine);
            // Record once under perfect memory, with profiling on.
            let (rec_stats, trace, rec_profile) = {
                let mut sim = Simulator::new(
                    machine,
                    SimOptions {
                        memory_model: MemoryModel::Perfect,
                        mem_size: prepared.build.mem_size.max(1 << 20),
                        max_cycles: MAX_CYCLES,
                    },
                );
                for (addr, bytes) in &prepared.build.init {
                    sim.mem.write_bytes(*addr, bytes);
                }
                sim.run_lowered_recording_profiled(&prepared.lowered, &statics)
                    .expect("profiled recording run")
            };
            rec_profile
                .check_against(&rec_stats)
                .unwrap_or_else(|e| panic!("recording: {} on {}: {e}", bench.name(), machine.name));
            let analysis = ReplayAnalysis::build(&prepared.lowered);
            let (pair_stats, pair_profiles) = vmv::sim::replay_batch_profiled(
                &trace,
                &analysis,
                &variants_for(&analysis, machine, &MODELS),
                &statics,
            )
            .unwrap_or_else(|e| {
                panic!(
                    "profiled batch of two: {} on {}: {e}",
                    bench.name(),
                    machine.name
                )
            });
            for (bi, model) in MODELS.into_iter().enumerate() {
                let ctx = || {
                    format!(
                        "{} ({}) on {} under {:?}",
                        bench.name(),
                        variant_for(machine).name(),
                        machine.name,
                        model
                    )
                };
                let unprofiled = run_with(&prepared, machine, model, true);

                // Lowered engine, profiled.
                let (lp_stats, lp_profile) = {
                    let mut sim = Simulator::new(
                        machine,
                        SimOptions {
                            memory_model: model,
                            mem_size: prepared.build.mem_size.max(1 << 20),
                            max_cycles: MAX_CYCLES,
                        },
                    );
                    for (addr, bytes) in &prepared.build.init {
                        sim.mem.write_bytes(*addr, bytes);
                    }
                    sim.run_lowered_profiled(&prepared.lowered, &statics)
                        .expect("profiled lowered run")
                };
                assert_eq!(
                    lp_stats,
                    unprofiled,
                    "profiling changed RunStats: {}",
                    ctx()
                );
                lp_profile
                    .check_against(&lp_stats)
                    .unwrap_or_else(|e| panic!("lowered attribution: {}: {e}", ctx()));

                // Batched replay, profiled: a batch of one, then this
                // model's slot of the batch of two.
                let (one_stats, one_profiles) = vmv::sim::replay_batch_profiled(
                    &trace,
                    &analysis,
                    &variants_for(&analysis, machine, &[model]),
                    &statics,
                )
                .unwrap_or_else(|e| panic!("profiled batch of one: {}: {e}", ctx()));
                for (leg, stats, profile) in [
                    ("batch of one", &one_stats[0], &one_profiles[0]),
                    ("batch of two", &pair_stats[bi], &pair_profiles[bi]),
                ] {
                    assert_eq!(
                        *stats,
                        unprofiled,
                        "profiled {leg} changed RunStats: {}",
                        ctx()
                    );
                    profile
                        .check_against(stats)
                        .unwrap_or_else(|e| panic!("{leg} attribution: {}: {e}", ctx()));
                    // Both engines attribute identically, event for event.
                    assert_eq!(lp_profile, *profile, "lowered vs {leg} profile: {}", ctx());
                }
                if model == MemoryModel::Perfect {
                    assert_eq!(
                        lp_profile,
                        rec_profile,
                        "recording+profiling diverged: {}",
                        ctx()
                    );
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 120);
}

#[test]
fn lowered_engine_matches_reference_functionally() {
    // Beyond timing: the memory image after a run must agree, so the
    // lowered execution path computes identical values.
    let machine = vmv::machine::presets::vector2(4);
    for bench in [Benchmark::GsmDec, Benchmark::JpegEnc] {
        let prepared = prepare(bench, &machine).unwrap();
        let mut checks = Vec::new();
        for lowered in [false, true] {
            let mut sim = Simulator::new(
                &machine,
                SimOptions {
                    memory_model: MemoryModel::Realistic,
                    mem_size: prepared.build.mem_size.max(1 << 20),
                    max_cycles: MAX_CYCLES,
                },
            );
            for (addr, bytes) in &prepared.build.init {
                sim.mem.write_bytes(*addr, bytes);
            }
            if lowered {
                sim.run_lowered(&prepared.lowered).unwrap();
            } else {
                sim.run_reference(&prepared.compiled.program).unwrap();
            }
            checks.push(
                prepared
                    .build
                    .failed_checks(|addr, len| sim.mem.read_u8_slice(addr, len)),
            );
        }
        assert!(checks[0].is_empty(), "{}: {:?}", bench.name(), checks[0]);
        assert!(checks[1].is_empty(), "{}: {:?}", bench.name(), checks[1]);
    }
}

#[test]
fn lowering_errors_surface_before_execution() {
    use vmv::isa::{Op, Opcode, Reg, RegionId};
    use vmv::sched::{lower, LowerError, ScheduledBlock, ScheduledProgram};

    let machine = vmv::machine::presets::vliw(2);
    let block = |ops: Vec<Op>| ScheduledProgram {
        name: "bad".into(),
        blocks: vec![ScheduledBlock {
            label: "entry".into(),
            region: RegionId::SCALAR,
            bundles: vec![ops],
        }],
        regions: vec![],
    };

    // A branch to a missing label is a lowering error (and `Simulator::run`
    // reports it as the familiar UnknownLabel before any cycle executes).
    let bogus = block(vec![Op::new(Opcode::Jump).with_target("nowhere")]);
    assert!(matches!(
        lower(&bogus, &machine),
        Err(LowerError::UnknownLabel { .. })
    ));
    let mut sim = Simulator::with_model(&machine, MemoryModel::Perfect);
    assert!(matches!(
        sim.run(&bogus),
        Err(vmv::sim::SimError::UnknownLabel(_))
    ));

    // A register beyond the machine's register file is caught at lowering
    // time instead of indexing out of bounds mid-run.
    let out_of_range = block(vec![Op::new(Opcode::MovI)
        .with_dst(Reg::int(machine.regs.int + 1))
        .with_imm(7)]);
    assert!(matches!(
        lower(&out_of_range, &machine),
        Err(LowerError::SlotOutOfRange { .. })
    ));
    assert!(matches!(
        sim.run(&out_of_range),
        Err(vmv::sim::SimError::Lower(_))
    ));
}
