//! The experiment driver: runs every benchmark on every processor
//! configuration of Table 2 and collects per-region statistics, exactly the
//! measurement matrix behind the paper's evaluation (§5).
//!
//! Each configuration executes the benchmark version written for its ISA
//! (§4.1): the plain-VLIW configurations run the scalar code, the
//! µSIMD-VLIW configurations the µSIMD code and the Vector-µSIMD-VLIW
//! configurations the Vector-µSIMD code.  Every run is checked against the
//! golden reference outputs, so a timing result is only reported for a
//! functionally correct execution.
//!
//! Compilation and simulation are exposed as *separate* steps ([`prepare`]
//! and [`simulate`]): the static schedule depends only on the
//! schedule-relevant machine parameters, so a design-space sweep (the
//! `vmv-sweep` crate) can schedule a program once and re-simulate it across
//! many memory-system variations.

use std::sync::{Arc, OnceLock};

use vmv_kernels::{Benchmark, BenchmarkBuild, IsaVariant};
use vmv_machine::{IsaSupport, MachineConfig};
use vmv_mem::MemoryModel;
use vmv_sim::{
    replay_batch, replay_batch_profiled, Profile, ProfileStatics, ReplayAnalysis, RunStats,
    SimOptions, Simulator, Trace, VariantState,
};

/// Hard cap on simulated (or replayed) cycles per run.
const MAX_RUN_CYCLES: u64 = 2_000_000_000;

/// Result of one (benchmark, configuration) run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Configuration name (e.g. "4w +Vector2").
    pub config: String,
    pub benchmark: Benchmark,
    pub variant: IsaVariant,
    pub memory_model: MemoryModel,
    pub stats: RunStats,
    /// Names of output checks that failed (empty = bit-exact).
    pub check_failures: Vec<String>,
}

/// Errors from the experiment driver.
#[derive(Debug)]
pub enum ExperimentError {
    Compile(String),
    Simulation(String),
}

impl std::fmt::Display for ExperimentError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExperimentError::Compile(e) => write!(f, "compile error: {e}"),
            ExperimentError::Simulation(e) => write!(f, "simulation error: {e}"),
        }
    }
}
impl std::error::Error for ExperimentError {}

/// ISA variant a machine configuration executes (paper §4.1).
pub fn variant_for(machine: &MachineConfig) -> IsaVariant {
    match machine.isa {
        IsaSupport::Vliw => IsaVariant::Scalar,
        IsaSupport::Usimd => IsaVariant::Usimd,
        IsaSupport::Vector => IsaVariant::Vector,
    }
}

/// Case-insensitive inverse of [`IsaVariant::name`]: decode the `variant`
/// column a result store records back to the enum.  Consumers that only
/// hold a JSONL file (e.g. the report loader) use this to validate that a
/// record's declared variant is one the stack can actually execute.
pub fn variant_from_name(name: &str) -> Option<IsaVariant> {
    IsaVariant::ALL
        .iter()
        .copied()
        .find(|v| v.name().eq_ignore_ascii_case(name))
}

/// A benchmark compiled for one machine: the static schedule, its lowered
/// executable form, and the initial memory image and output checks.
/// Immutable once built, so it can be shared (e.g. behind an `Arc`) and
/// re-simulated under many memory models without rescheduling *or*
/// re-lowering — the sweep crate's compile cache holds exactly this.
#[derive(Debug, Clone)]
pub struct Prepared {
    pub benchmark: Benchmark,
    pub variant: IsaVariant,
    pub build: BenchmarkBuild,
    pub compiled: vmv_sched::Compiled,
    /// Pre-resolved executable form consumed by the simulator's hot loop.
    /// Lowering depends only on schedule-relevant machine fields, so one
    /// lowered program serves every memory-system variant.
    pub lowered: vmv_sched::LoweredProgram,
    /// Timing trace of one functional execution, filled by the first
    /// [`simulate`] call and replayed by every later one.  The trace is
    /// memory-model- and memory-geometry-independent (functional values
    /// never change with timing), so clones and `Arc`-shared copies of a
    /// `Prepared` — e.g. in the sweep compile cache — execute each program
    /// once and retime it for every memory variant.
    trace: OnceLock<Arc<Recorded>>,
    /// Cycle-attribution statics (bundle issue classes, op names, lanes),
    /// built on first profiled simulate.  Like the lowered program they
    /// depend only on schedule-relevant machine fields, so one table serves
    /// every memory variant.
    profile_statics: OnceLock<Arc<ProfileStatics>>,
}

/// What one execute-and-record run leaves behind: the timing trace plus the
/// output-check verdict (functional, hence identical for every variant).
#[derive(Debug)]
struct Recorded {
    trace: Trace,
    check_failures: Vec<String>,
}

impl Prepared {
    pub fn new(
        benchmark: Benchmark,
        variant: IsaVariant,
        build: BenchmarkBuild,
        compiled: vmv_sched::Compiled,
        lowered: vmv_sched::LoweredProgram,
    ) -> Prepared {
        Prepared {
            benchmark,
            variant,
            build,
            compiled,
            lowered,
            trace: OnceLock::new(),
            profile_statics: OnceLock::new(),
        }
    }

    /// Whether a recorded trace is available (later [`simulate`] calls will
    /// replay instead of executing).
    pub fn has_trace(&self) -> bool {
        self.trace.get().is_some()
    }

    /// The cycle-attribution statics for this program, built once per
    /// `Prepared` and shared across every profiled run.  `machine` must be
    /// schedule-compatible with the preparing configuration (the same
    /// contract as [`simulate`]).
    pub fn profile_statics(&self, machine: &MachineConfig) -> Arc<ProfileStatics> {
        self.profile_statics
            .get_or_init(|| Arc::new(ProfileStatics::build(&self.lowered, machine)))
            .clone()
    }
}

/// Build the benchmark program, compile (schedule) it for `machine`, and
/// lower the schedule to its executable form.
pub fn prepare(benchmark: Benchmark, machine: &MachineConfig) -> Result<Prepared, ExperimentError> {
    let variant = variant_for(machine);
    let build = benchmark.build(variant);
    let compiled = vmv_sched::compile(&build.program, machine)
        .map_err(|e| ExperimentError::Compile(format!("{}: {e}", machine.name)))?;
    let lowered = vmv_sched::lower(&compiled.program, machine)
        .map_err(|e| ExperimentError::Compile(format!("{}: {e}", machine.name)))?;
    Ok(Prepared::new(benchmark, variant, build, compiled, lowered))
}

/// Simulate an already-compiled benchmark on `machine` under `model`.
///
/// `machine` must agree with the configuration the program was scheduled
/// for in every schedule-relevant parameter; the memory-hierarchy
/// parameters (`machine.memory`) and the memory `model` are free to vary.
///
/// The first call on a `Prepared` executes the program functionally and
/// records its timing trace; every later call (any memory variant, any
/// model) *replays* that trace as a batch of one — bit-identical
/// `RunStats`, proven by `tests/lowered_differential.rs`, at a fraction of
/// the cost.  Callers that want to benchmark raw execution use
/// [`simulate_fresh`].
pub fn simulate(
    prepared: &Prepared,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<RunOutcome, ExperimentError> {
    simulate_with(prepared, machine, model, None).map(|(outcome, _)| outcome)
}

/// Retime an already-recorded benchmark against several memory variants in
/// one batched trace walk.  `variants` pairs a machine configuration with a
/// memory model under the same contract as [`simulate`]: every machine must
/// agree with the scheduled configuration in all schedule-relevant
/// parameters.  `outcomes[i]` is bit-identical to
/// `simulate(prepared, variants[i].0, variants[i].1)`.
///
/// Requires a recorded trace (some [`simulate`] call must have run first);
/// errors otherwise.  Any per-variant replay failure (e.g. a cycle limit)
/// fails the whole batch — callers wanting per-variant isolation retry
/// each variant with [`simulate`], a batch of one.
pub fn simulate_batch(
    prepared: &Prepared,
    variants: &[(&MachineConfig, MemoryModel)],
) -> Result<Vec<RunOutcome>, ExperimentError> {
    retime(prepared, variants, None).map(|(outcomes, _)| outcomes)
}

/// [`simulate`] with cycle attribution: returns the outcome plus a
/// [`Profile`] explaining every simulated cycle.  `outcome.stats` is
/// bit-identical to the unprofiled [`simulate`] (enforced by
/// `tests/lowered_differential.rs`), and the profile satisfies the
/// sum-exactly contract `profile.check_against(&outcome.stats)`.
pub fn simulate_profiled(
    prepared: &Prepared,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<(RunOutcome, Profile), ExperimentError> {
    let statics = prepared.profile_statics(machine);
    let (outcome, profile) = simulate_with(prepared, machine, model, Some(&statics))?;
    Ok((outcome, profile.expect("a profiled run yields a profile")))
}

/// [`simulate_batch`] with cycle attribution: the fused walk carries one
/// extra profiling pass (not K), and `profiles[i]` is bit-identical to the
/// profile [`simulate_profiled`] would produce for `variants[i]`.
pub fn simulate_batch_profiled(
    prepared: &Prepared,
    variants: &[(&MachineConfig, MemoryModel)],
) -> Result<(Vec<RunOutcome>, Vec<Profile>), ExperimentError> {
    // An empty batch needs no statics: it retimes nothing.
    let statics = variants
        .first()
        .map(|&(machine, _)| prepared.profile_statics(machine));
    retime(prepared, variants, statics.as_ref())
}

/// Simulate by full functional execution, never recording or replaying a
/// trace.  Results are identical to [`simulate`]; this entry point exists
/// for callers that specifically measure the execution engine (`bench`).
pub fn simulate_fresh(
    prepared: &Prepared,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<RunOutcome, ExperimentError> {
    execute(prepared, machine, model, false, None).map(|(outcome, _)| outcome)
}

/// The adaptive body of [`simulate`] and [`simulate_profiled`]: execute and
/// record on first sight of `prepared`, otherwise retime its trace as a
/// batch of one.
fn simulate_with(
    prepared: &Prepared,
    machine: &MachineConfig,
    model: MemoryModel,
    statics: Option<&Arc<ProfileStatics>>,
) -> Result<(RunOutcome, Option<Profile>), ExperimentError> {
    if !prepared.has_trace() {
        return execute(prepared, machine, model, true, statics);
    }
    let (mut outcomes, mut profiles) = retime(prepared, &[(machine, model)], statics)?;
    Ok((
        outcomes.pop().expect("one outcome per variant"),
        profiles.pop(),
    ))
}

/// Execute `prepared` with the lowered engine.  `record` keeps the run's
/// timing trace on `prepared` for later retiming; `statics` turns on cycle
/// attribution.
fn execute(
    prepared: &Prepared,
    machine: &MachineConfig,
    model: MemoryModel,
    record: bool,
    statics: Option<&Arc<ProfileStatics>>,
) -> Result<(RunOutcome, Option<Profile>), ExperimentError> {
    let mut sim = simulator_for(prepared, machine, model);
    let program = &prepared.lowered;
    let run = match (record, statics) {
        (false, None) => sim.run_lowered(program).map(|stats| (stats, None, None)),
        (false, Some(statics)) => sim
            .run_lowered_profiled(program, statics)
            .map(|(stats, profile)| (stats, None, Some(profile))),
        (true, None) => sim
            .run_lowered_recording(program)
            .map(|(stats, trace)| (stats, Some(trace), None)),
        (true, Some(statics)) => sim
            .run_lowered_recording_profiled(program, statics)
            .map(|(stats, trace, profile)| (stats, Some(trace), Some(profile))),
    };
    let (stats, trace, profile) =
        run.map_err(|e| ExperimentError::Simulation(format!("{}: {e}", machine.name)))?;
    let check_failures = prepared
        .build
        .failed_checks(|addr, len| sim.mem.read_u8_slice(addr, len));
    if let Some(trace) = trace {
        // A concurrent first-simulate may have won the race; either trace
        // is equivalent (functional state does not depend on memory timing).
        let _ = prepared.trace.set(Arc::new(Recorded {
            trace,
            check_failures: check_failures.clone(),
        }));
    }
    let outcome = RunOutcome {
        config: machine.name.clone(),
        benchmark: prepared.benchmark,
        variant: prepared.variant,
        memory_model: model,
        stats,
        check_failures,
    };
    Ok((outcome, profile))
}

/// Retime the recorded trace of `prepared` against every variant in one
/// batched walk; `statics` turns on cycle attribution (the profiles come
/// back empty without it).
fn retime(
    prepared: &Prepared,
    variants: &[(&MachineConfig, MemoryModel)],
    statics: Option<&Arc<ProfileStatics>>,
) -> Result<(Vec<RunOutcome>, Vec<Profile>), ExperimentError> {
    let recorded = prepared.trace.get().ok_or_else(|| {
        ExperimentError::Simulation(
            "batched replay requires a recorded trace (simulate once first)".into(),
        )
    })?;
    let analysis = ReplayAnalysis::build(&prepared.lowered);
    let states: Vec<VariantState> = variants
        .iter()
        .map(|&(machine, model)| VariantState::new(&analysis, machine, model, MAX_RUN_CYCLES))
        .collect();
    let (all, profiles) = match statics {
        Some(statics) => replay_batch_profiled(&recorded.trace, &analysis, &states, statics),
        None => replay_batch(&recorded.trace, &analysis, &states).map(|all| (all, Vec::new())),
    }
    .map_err(|e| {
        let names: Vec<&str> = variants.iter().map(|(m, _)| m.name.as_str()).collect();
        ExperimentError::Simulation(format!("{}: replay: {e}", names.join(", ")))
    })?;
    let outcomes = all
        .into_iter()
        .zip(variants)
        .map(|(stats, &(machine, model))| RunOutcome {
            config: machine.name.clone(),
            benchmark: prepared.benchmark,
            variant: prepared.variant,
            memory_model: model,
            stats,
            check_failures: recorded.check_failures.clone(),
        })
        .collect();
    Ok((outcomes, profiles))
}

/// A simulator with the benchmark's initial memory image written in.
fn simulator_for(prepared: &Prepared, machine: &MachineConfig, model: MemoryModel) -> Simulator {
    let mut sim = Simulator::new(
        machine,
        SimOptions {
            memory_model: model,
            mem_size: prepared.build.mem_size.max(1 << 20),
            max_cycles: MAX_RUN_CYCLES,
        },
    );
    for (addr, bytes) in &prepared.build.init {
        sim.mem.write_bytes(*addr, bytes);
    }
    sim
}

/// Compile and simulate one benchmark on one machine configuration.
pub fn run_one(
    benchmark: Benchmark,
    machine: &MachineConfig,
    model: MemoryModel,
) -> Result<RunOutcome, ExperimentError> {
    let prepared = prepare(benchmark, machine)?;
    simulate(&prepared, machine, model)
}

/// The complete measurement matrix for one memory model: every benchmark on
/// every configuration in `machines`.
#[derive(Debug, Clone)]
pub struct Suite {
    pub model: MemoryModel,
    pub outcomes: Vec<RunOutcome>,
}

impl Suite {
    /// Run all benchmarks on all configurations with an automatically chosen
    /// worker count.
    pub fn run(machines: &[MachineConfig], model: MemoryModel) -> Result<Suite, ExperimentError> {
        Suite::run_with_threads(machines, model, default_workers())
    }

    /// Run all benchmarks on all configurations, distributing the runs over
    /// `workers` threads (the simulator is single-threaded per run).
    ///
    /// The outcome order is deterministic and independent of the worker
    /// count: benchmark-major, then by position in `machines` (i.e. by
    /// Table 2 machine index when called with [`vmv_machine::all_configs`]),
    /// never by configuration-name string.
    pub fn run_with_threads(
        machines: &[MachineConfig],
        model: MemoryModel,
        workers: usize,
    ) -> Result<Suite, ExperimentError> {
        let mut jobs: Vec<(Benchmark, &MachineConfig)> = Vec::new();
        for &bench in &Benchmark::ALL {
            for m in machines {
                jobs.push((bench, m));
            }
        }
        // One pre-assigned slot per job: the collected results are ordered
        // by construction, no post-hoc sort needed.
        let slots: Vec<std::sync::Mutex<Option<Result<RunOutcome, ExperimentError>>>> =
            jobs.iter().map(|_| std::sync::Mutex::new(None)).collect();
        let next = std::sync::atomic::AtomicUsize::new(0);
        let workers = workers.max(1);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= jobs.len() {
                        break;
                    }
                    let (bench, machine) = jobs[i];
                    *slots[i].lock().unwrap() = Some(run_one(bench, machine, model));
                });
            }
        });
        let mut outcomes = Vec::with_capacity(jobs.len());
        for slot in slots {
            match slot
                .into_inner()
                .unwrap()
                .expect("every job slot is filled")
            {
                Ok(outcome) => outcomes.push(outcome),
                Err(e) => return Err(e),
            }
        }
        Ok(Suite { model, outcomes })
    }

    /// Run the full ten-configuration matrix of Table 2.
    pub fn run_all_configs(model: MemoryModel) -> Result<Suite, ExperimentError> {
        Suite::run(&vmv_machine::all_configs(), model)
    }

    /// Look up the outcome for a configuration (by name) and benchmark.
    pub fn get(&self, config: &str, benchmark: Benchmark) -> Option<&RunOutcome> {
        self.outcomes
            .iter()
            .find(|o| o.config == config && o.benchmark == benchmark)
    }

    /// All outcomes with failed correctness checks.
    pub fn failed(&self) -> Vec<&RunOutcome> {
        self.outcomes
            .iter()
            .filter(|o| !o.check_failures.is_empty())
            .collect()
    }
}

/// Available parallelism clamped to `cap` (fallback 4 when the parallelism
/// cannot be queried).  Shared by every worker pool in the workspace.
pub fn workers_capped(cap: usize) -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(cap.max(1))
}

/// Worker-thread count used by [`Suite::run`]: the available parallelism,
/// capped at 8 (the matrix has at most 60 jobs; more threads only add
/// contention).
pub fn default_workers() -> usize {
    workers_capped(8)
}
