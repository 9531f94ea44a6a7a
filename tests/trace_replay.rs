//! Trace-replay behaviour beyond the three-engine differential: replay is
//! deterministic, the adaptive `simulate` path agrees with fresh execution
//! on a shared `Prepared`, every batch slot matches fresh execution of its
//! variant, and malformed traces are rejected with typed errors instead of
//! garbage statistics.

use vector_usimd_vliw as vmv;
use vmv::core::{prepare, simulate, simulate_fresh};
use vmv::kernels::rng::SmallRng;
use vmv::kernels::Benchmark;
use vmv::machine::{presets, MachineConfig};
use vmv::mem::MemoryModel;
use vmv::sim::{
    replay_batch, replay_batch_profiled, ReplayAnalysis, ReplayError, RunStats, SimOptions,
    Simulator, Trace, VariantState,
};

const MAX_CYCLES: u64 = 2_000_000_000;

fn record(
    bench: Benchmark,
    machine: &vmv::machine::MachineConfig,
    model: MemoryModel,
) -> (vmv::core::Prepared, vmv::sim::RunStats, Trace) {
    let prepared = prepare(bench, machine).expect("prepares");
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
    let (stats, trace) = sim
        .run_lowered_recording(&prepared.lowered)
        .expect("recording run");
    (prepared, stats, trace)
}

/// Retime `trace` for one variant: a batch of one.
fn replay_one(
    prepared: &vmv::core::Prepared,
    trace: &Trace,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<RunStats, ReplayError> {
    let analysis = ReplayAnalysis::build(&prepared.lowered);
    let variant = VariantState::new(&analysis, machine, model, MAX_CYCLES);
    replay_batch(trace, &analysis, &[variant]).map(|mut out| out.pop().unwrap())
}

#[test]
fn replaying_the_same_trace_twice_is_deterministic() {
    let machine = presets::vector2(4);
    let (prepared, stats, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Realistic);
    let a = replay_one(&prepared, &trace, &machine, MemoryModel::Realistic).expect("first replay");
    let b = replay_one(&prepared, &trace, &machine, MemoryModel::Realistic).expect("second replay");
    assert_eq!(a, b, "replay must be a pure function of (program, trace)");
    assert_eq!(a, stats, "and must reproduce the recorded run exactly");
}

#[test]
fn adaptive_simulate_matches_fresh_execution_across_models() {
    // The first `simulate` on a shared `Prepared` executes and records;
    // every later call replays.  Both strategies must agree bit-for-bit,
    // for every memory model, on the same entry.
    let machine = presets::vector2(2);
    let prepared = std::sync::Arc::new(prepare(Benchmark::JpegEnc, &machine).unwrap());
    assert!(!prepared.has_trace());
    for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
        let adaptive = simulate(&prepared, &machine, model).unwrap();
        let fresh = simulate_fresh(&prepared, &machine, model).unwrap();
        assert_eq!(adaptive.stats, fresh.stats, "{model:?}");
        assert_eq!(adaptive.check_failures, fresh.check_failures);
    }
    assert!(prepared.has_trace(), "the first simulate recorded a trace");
}

#[test]
fn truncated_access_stream_is_rejected() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    assert!(!trace.accesses.is_empty());
    let mut cut = trace.clone();
    cut.accesses.truncate(trace.accesses.len() / 2);
    match replay_one(&prepared, &cut, &machine, MemoryModel::Perfect) {
        Err(ReplayError::TruncatedAccesses { consumed }) => {
            assert_eq!(consumed, cut.accesses.len())
        }
        other => panic!("expected TruncatedAccesses, got {other:?}"),
    }
}

#[test]
fn truncated_vl_stream_is_rejected() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmEnc, &machine, MemoryModel::Perfect);
    assert!(
        !trace.vl_sets.is_empty(),
        "a strip-mined vector kernel sets VL at least once"
    );
    let mut cut = trace.clone();
    cut.vl_sets.clear();
    match replay_one(&prepared, &cut, &machine, MemoryModel::Perfect) {
        Err(ReplayError::TruncatedVlSets { consumed }) => assert_eq!(consumed, 0),
        other => panic!("expected TruncatedVlSets, got {other:?}"),
    }
}

#[test]
fn out_of_range_block_and_trailing_events_are_rejected() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);

    let mut bogus = trace.clone();
    bogus.blocks[0] = prepared.lowered.blocks.len() as u32 + 7;
    assert!(matches!(
        replay_one(&prepared, &bogus, &machine, MemoryModel::Perfect),
        Err(ReplayError::BlockOutOfRange { step: 0, .. })
    ));

    let mut padded = trace.clone();
    padded.accesses.push(*padded.accesses.last().unwrap());
    assert!(matches!(
        replay_one(&prepared, &padded, &machine, MemoryModel::Perfect),
        Err(ReplayError::TrailingEvents { accesses: 1, .. })
    ));
}

#[test]
fn empty_trace_is_rejected_as_missing_halt() {
    let machine = presets::vector2(2);
    let (prepared, _, _) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    let empty = Trace::default();
    assert!(matches!(
        replay_one(&prepared, &empty, &machine, MemoryModel::Perfect),
        Err(ReplayError::MissingHalt)
    ));
}

#[test]
fn replay_errors_render_as_text() {
    // The sweep surfaces these through `e.to_string()` — make sure every
    // variant has a stable human-readable rendering.
    let errors: Vec<ReplayError> = vec![
        ReplayError::BlockOutOfRange { step: 3, block: 9 },
        ReplayError::TruncatedAccesses { consumed: 12 },
        ReplayError::TruncatedVlSets { consumed: 0 },
        ReplayError::MissingHalt,
        ReplayError::BlocksAfterHalt { step: 5 },
        ReplayError::TrailingEvents {
            accesses: 2,
            vl_sets: 1,
        },
        ReplayError::VariantSlotMismatch {
            variant: 1,
            expected: 40,
            got: 64,
        },
        ReplayError::CycleLimit(1_000_000),
    ];
    for e in errors {
        assert!(!e.to_string().is_empty(), "{e:?}");
    }
}

/// A memory-parameter variant of `machine`: same schedule-relevant fields,
/// slower lower levels.  Tag-equivalent to the base machine, so a batch
/// containing both exercises the echo-priced follower path.
fn slow_memory(machine: &MachineConfig) -> MachineConfig {
    let mut m = machine.clone();
    m.memory.l3_latency += 15;
    m.memory.mem_latency *= 3;
    m
}

#[test]
fn batched_replay_matches_fresh_execution_on_the_full_matrix() {
    // For every Table 2 preset and every kernel, retiming one trace
    // against K variants in a single fused walk must produce exactly the
    // RunStats that executing each variant with the lowered engine does.  The
    // variant set mixes both memory models and a latency-shifted machine
    // so the batch spans tag-equivalence classes (leaders) and pure
    // latency followers.
    let configs = vmv::machine::all_configs();
    assert_eq!(configs.len(), 10, "Table 2 has ten configurations");
    for machine in &configs {
        for bench in Benchmark::ALL {
            let (prepared, _, trace) = record(bench, machine, MemoryModel::Perfect);
            let analysis = ReplayAnalysis::build(&prepared.lowered);
            let slow = slow_memory(machine);
            let plan: Vec<(&MachineConfig, MemoryModel)> = vec![
                (machine, MemoryModel::Perfect),
                (machine, MemoryModel::Realistic),
                (&slow, MemoryModel::Realistic),
            ];
            let variants: Vec<VariantState> = plan
                .iter()
                .map(|(m, model)| VariantState::new(&analysis, m, *model, MAX_CYCLES))
                .collect();
            let batched = replay_batch(&trace, &analysis, &variants)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
            assert_eq!(batched.len(), plan.len());
            for ((m, model), got) in plan.iter().zip(&batched) {
                let fresh = simulate_fresh(&prepared, m, *model)
                    .unwrap_or_else(|e| panic!("{} on {}: {e}", bench.name(), machine.name));
                assert_eq!(
                    *got,
                    fresh.stats,
                    "batched replay diverged from execution: {} on {} under {:?} (mem_latency {})",
                    bench.name(),
                    machine.name,
                    model,
                    m.memory.mem_latency
                );
            }
        }
    }
}

#[test]
fn random_variant_subsets_match_fresh_execution() {
    // Property test: any subset of memory variants, in any order (with
    // repeats), batch-replays to exactly what each variant gets from fresh
    // execution — including the degenerate batch of one.
    let machine = presets::vector2(4);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    let analysis = ReplayAnalysis::build(&prepared.lowered);

    // A pool of candidate variants: both models crossed with latency and
    // geometry perturbations (the geometry change forces extra
    // tag-equivalence classes inside a batch).
    let mut pool: Vec<(MachineConfig, MemoryModel)> = Vec::new();
    for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
        for (l2_lat, mem_lat, l2_size_shift) in
            [(8, 100, 0), (8, 400, 0), (12, 100, 0), (8, 100, 1)]
        {
            let mut m = machine.clone();
            m.memory.l2_latency = l2_lat;
            m.memory.mem_latency = mem_lat;
            m.memory.l2_size >>= l2_size_shift;
            pool.push((m, model));
        }
    }

    // Lowered-engine oracle per pool entry, computed once.
    let oracle: Vec<RunStats> = pool
        .iter()
        .map(|(m, model)| simulate_fresh(&prepared, m, *model).unwrap().stats)
        .collect();

    let mut rng = SmallRng::seed_from_u64(0x5EED_BA7C);
    for round in 0..12 {
        // Round 0 pins the batch-of-one case; later rounds draw 1..=6
        // variants with replacement, in random order.
        let width = if round == 0 {
            1
        } else {
            rng.gen_range_i64(1, 6) as usize
        };
        let picks: Vec<usize> = (0..width)
            .map(|_| rng.gen_range_i64(0, pool.len() as i64 - 1) as usize)
            .collect();
        let variants: Vec<VariantState> = picks
            .iter()
            .map(|&i| VariantState::new(&analysis, &pool[i].0, pool[i].1, MAX_CYCLES))
            .collect();
        let batched = replay_batch(&trace, &analysis, &variants).unwrap();
        assert_eq!(batched.len(), picks.len());
        for (slot, &i) in picks.iter().enumerate() {
            assert_eq!(
                batched[slot], oracle[i],
                "round {round}: batch slot {slot} (pool entry {i}) diverged"
            );
        }
    }
}

#[test]
fn timing_equivalent_variants_share_lanes_and_match_fresh_execution() {
    // Seeded property test over batches that repeat work: exact duplicates,
    // and Perfect variants that differ only in what a perfect memory never
    // reads (cache geometry, L3 and memory latency).  Such variants share
    // one walked lane; every slot must still equal fresh execution of its
    // own variant, profiled or not, and every profile must satisfy the
    // sum-exactly contract and equal the profile of a batch of one.
    let machine = presets::vector2(4);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Realistic);
    let analysis = ReplayAnalysis::build(&prepared.lowered);
    let statics = prepared.profile_statics(&machine);

    let with = |edit: &dyn Fn(&mut MachineConfig)| {
        let mut m = machine.clone();
        edit(&mut m);
        m
    };
    let pool: Vec<(MachineConfig, MemoryModel)> = vec![
        (machine.clone(), MemoryModel::Perfect),
        (with(&|m| m.memory.l1_size /= 2), MemoryModel::Perfect),
        (with(&|m| m.memory.l2_line *= 2), MemoryModel::Perfect),
        (with(&|m| m.memory.l3_size *= 2), MemoryModel::Perfect),
        (with(&|m| m.memory.l3_latency += 9), MemoryModel::Perfect),
        (with(&|m| m.memory.mem_latency *= 2), MemoryModel::Perfect),
        (with(&|m| m.memory.l2_latency += 3), MemoryModel::Perfect),
        (machine.clone(), MemoryModel::Realistic),
        (with(&|m| m.memory.mem_latency *= 2), MemoryModel::Realistic),
        (with(&|m| m.memory.l2_size /= 2), MemoryModel::Realistic),
    ];
    let oracle: Vec<RunStats> = pool
        .iter()
        .map(|(m, model)| simulate_fresh(&prepared, m, *model).unwrap().stats)
        .collect();
    let lone_profile: Vec<vmv::sim::Profile> = pool
        .iter()
        .map(|(m, model)| {
            let one = [VariantState::new(&analysis, m, *model, MAX_CYCLES)];
            let (_, mut profiles) =
                replay_batch_profiled(&trace, &analysis, &one, &statics).unwrap();
            profiles.pop().unwrap()
        })
        .collect();

    let mut rng = SmallRng::seed_from_u64(0x1A4E_5EED);
    for round in 0..10 {
        // 2..=8 draws with replacement, then one forced exact duplicate.
        let width = rng.gen_range_i64(2, 8) as usize;
        let mut picks: Vec<usize> = (0..width)
            .map(|_| rng.gen_range_i64(0, pool.len() as i64 - 1) as usize)
            .collect();
        picks.push(picks[rng.gen_range_i64(0, width as i64 - 1) as usize]);
        let variants: Vec<VariantState> = picks
            .iter()
            .map(|&i| VariantState::new(&analysis, &pool[i].0, pool[i].1, MAX_CYCLES))
            .collect();
        let plain = replay_batch(&trace, &analysis, &variants).unwrap();
        let (profiled, profiles) =
            replay_batch_profiled(&trace, &analysis, &variants, &statics).unwrap();
        assert_eq!(plain.len(), picks.len());
        assert_eq!(profiles.len(), picks.len());
        for (slot, &i) in picks.iter().enumerate() {
            let ctx = format!("round {round}: slot {slot} (pool entry {i}, picks {picks:?})");
            assert_eq!(plain[slot], oracle[i], "unprofiled {ctx}");
            assert_eq!(profiled[slot], oracle[i], "profiled {ctx}");
            profiles[slot]
                .check_against(&profiled[slot])
                .unwrap_or_else(|e| panic!("attribution {ctx}: {e}"));
            assert_eq!(profiles[slot], lone_profile[i], "profile {ctx}");
        }
    }
}

#[test]
fn empty_batch_and_foreign_variants_are_rejected_cleanly() {
    let machine = presets::vector2(2);
    let (prepared, _, trace) = record(Benchmark::GsmDec, &machine, MemoryModel::Perfect);
    let analysis = ReplayAnalysis::build(&prepared.lowered);

    // A batch of zero variants is a no-op, not an error.
    assert_eq!(replay_batch(&trace, &analysis, &[]).unwrap(), vec![]);

    // A variant stamped from a *different* program's analysis must be
    // rejected before the walk starts, naming the offending slot.
    let vliw = presets::vliw(2);
    let other = prepare(Benchmark::JpegEnc, &vliw).expect("prepares");
    let other_analysis = ReplayAnalysis::build(&other.lowered);
    assert_ne!(
        analysis.total_slots(),
        other_analysis.total_slots(),
        "test premise: the two programs use different slot universes"
    );
    let variants = vec![
        VariantState::new(&analysis, &machine, MemoryModel::Perfect, MAX_CYCLES),
        VariantState::new(&other_analysis, &vliw, MemoryModel::Perfect, MAX_CYCLES),
    ];
    match replay_batch(&trace, &analysis, &variants) {
        Err(ReplayError::VariantSlotMismatch {
            variant,
            expected,
            got,
        }) => {
            assert_eq!(variant, 1);
            assert_eq!(expected, analysis.total_slots());
            assert_eq!(got, other_analysis.total_slots());
        }
        other => panic!("expected VariantSlotMismatch, got {other:?}"),
    }
}
