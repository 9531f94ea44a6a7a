//! Dependency-free simulator benchmark harness.
//!
//! ```text
//! cargo run --release -p vmv-bench --bin bench
//! cargo run --release -p vmv-bench --bin bench -- --json BENCH_sim.json \
//!     --min-scps 5000000
//! ```
//!
//! Times the three pipeline stages — **schedule** (`vmv_sched::compile`,
//! itself split into its register-allocation and list-scheduling stages),
//! **lower** (`vmv_sched::lower`) and **simulate** (the lowered engine) —
//! separately, and certifies every schedule it compiles
//! (`vmv_verify::verify_compiled`, the **certify** stage), on two workloads:
//!
//! * the Table 2 suite: all ten paper configurations × six benchmarks ×
//!   both memory models, single-threaded;
//! * a large synthetic sweep: the `sweep --demo` design points (GSM pair,
//!   Realistic model), re-simulated from one compile per schedule key the
//!   same way the sweep executor does.
//!
//! A third **replay** stage runs the committed `latency_tolerance` memory-
//! axis sweep twice — once re-executing every run, once record-once/replay-
//! the-rest the way `vmv_core::simulate` does behind the sweep cache —
//! asserts the two strategies agree bit-for-bit, and records the speedup
//! (`--min-replay-speedup` gates it in CI).
//!
//! A fourth **replay_batch** stage retimes the same sweep's memory variants
//! twice more — once as K batches of one (one `vmv_core::simulate` call per
//! variant), once as one batch of K (one fused `vmv_core::simulate_batch`
//! walk per schedule key) — asserts bit-identical statistics, and records
//! the per-retimed-variant speedup of the batch of K over the batches of
//! one (`--min-batch-speedup` gates it in CI).  The JSON keeps the
//! historical key names (`serial_replay_seconds` is the batches-of-one
//! leg) so trajectory rows stay comparable.
//!
//! Reports simulated-cycles-per-second per stage-adjusted workload and
//! **appends** a host- and commit-stamped entry to the `BENCH_sim.json`
//! trajectory (a JSON array, newest last), so the perf history of the hot
//! path actually accumulates run over run instead of each run overwriting
//! the previous one.  A legacy single-object file is adopted as the first
//! trajectory entry.  `--min-scps` turns the harness into a CI gate: the
//! process exits non-zero when the synthetic-sweep simulation throughput
//! falls below the floor.

use std::time::Instant;

use vmv_core::{prepare, simulate, simulate_fresh, variant_for};
use vmv_kernels::Benchmark;
use vmv_machine::{all_configs, MachineConfig};
use vmv_mem::MemoryModel;
use vmv_sweep::{schedule_fingerprint, Json, SpecFile};

/// The committed memory-axis sweep the replay stage measures (chaining ×
/// L2 latency × memory latency on the GSM pair).
const LATENCY_TOLERANCE_SPEC: &str =
    include_str!("../../../../examples/specs/latency_tolerance.json");

fn usage() {
    eprintln!(
        "usage: bench [--json BENCH.json] [--min-scps N] [--repeat N]\n\
         \n\
         --json PATH     write a BENCH-style JSON artifact (default:\n\
         \x20               BENCH_sim.json)\n\
         --min-scps N    exit non-zero when the synthetic-sweep simulation\n\
         \x20               throughput is below N simulated-cycles-per-second\n\
         --min-replay-speedup X\n\
         \x20               exit non-zero when the replay stage's speedup over\n\
         \x20               re-execution is below X\n\
         --min-batch-speedup X\n\
         \x20               exit non-zero when the replay_batch stage's speedup\n\
         \x20               of one batch of K over K batches of one is below X\n\
         --repeat N      run each whole workload N times (default 1); the\n\
         \x20               trajectory entry carries the median run plus\n\
         \x20               min/median/max wall seconds per stage"
    );
}

/// Wall-clock seconds of one closure invocation.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Best-effort host name for trajectory entries (the history spans
/// machines, and a 2x "regression" is usually just a slower host).
fn host_name() -> String {
    std::env::var("HOSTNAME")
        .ok()
        .filter(|h| !h.trim().is_empty())
        .or_else(|| {
            std::fs::read_to_string("/proc/sys/kernel/hostname")
                .ok()
                .map(|h| h.trim().to_string())
                .filter(|h| !h.is_empty())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Best-effort commit id: CI env var first, then `git rev-parse`.
fn commit_id() -> String {
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        if !sha.trim().is_empty() {
            return sha.trim().chars().take(12).collect();
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `rustc -V` of the toolchain that built us, stamped into trajectory
/// entries: compiler upgrades move throughput as surely as code changes.
fn rustc_version() -> String {
    std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".to_string()))
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Append `entry` to the JSON-array trajectory at `path`.  A legacy
/// single-object file (the pre-trajectory format) becomes the first entry;
/// an unreadable or unparsable file starts a fresh trajectory.
fn append_to_trajectory(path: &str, entry: Json) -> Vec<Json> {
    let mut entries = match std::fs::read_to_string(path).map(|text| Json::parse(&text)) {
        Ok(Ok(Json::Arr(entries))) => entries,
        Ok(Ok(legacy @ Json::Obj(_))) => vec![legacy],
        _ => Vec::new(),
    };
    entries.push(entry);
    entries
}

struct StageTotals {
    /// Whole-compile seconds: the checks, `regalloc_s` and `list_s`.
    schedule_s: f64,
    regalloc_s: f64,
    list_s: f64,
    lower_s: f64,
    certify_s: f64,
    simulate_s: f64,
    schedules: u64,
    runs: u64,
    simulated_cycles: u64,
}

impl StageTotals {
    fn new() -> Self {
        StageTotals {
            schedule_s: 0.0,
            regalloc_s: 0.0,
            list_s: 0.0,
            lower_s: 0.0,
            certify_s: 0.0,
            simulate_s: 0.0,
            schedules: 0,
            runs: 0,
            simulated_cycles: 0,
        }
    }

    /// Simulated cycles per second of *simulation* wall time.
    fn scps(&self) -> f64 {
        if self.simulate_s > 0.0 {
            self.simulated_cycles as f64 / self.simulate_s
        } else {
            0.0
        }
    }

    fn report(&self, name: &str) {
        println!(
            "{name}: {} schedules, {} runs, {} simulated cycles",
            self.schedules, self.runs, self.simulated_cycles
        );
        println!(
            "  schedule {:.3}s (regalloc {:.3}s, list {:.3}s) | lower {:.3}s | certify {:.3}s | \
             simulate {:.3}s | {:.0} simulated-cycles-per-second",
            self.schedule_s,
            self.regalloc_s,
            self.list_s,
            self.lower_s,
            self.certify_s,
            self.simulate_s,
            self.scps()
        );
    }

    fn json(&self, name: &str) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(name)),
            ("schedules".into(), Json::u64(self.schedules)),
            ("runs".into(), Json::u64(self.runs)),
            ("simulated_cycles".into(), Json::u64(self.simulated_cycles)),
            ("schedule_seconds".into(), Json::Num(self.schedule_s)),
            ("regalloc_seconds".into(), Json::Num(self.regalloc_s)),
            ("list_seconds".into(), Json::Num(self.list_s)),
            ("lower_seconds".into(), Json::Num(self.lower_s)),
            ("certify_seconds".into(), Json::Num(self.certify_s)),
            ("simulate_seconds".into(), Json::Num(self.simulate_s)),
            ("simulated_cycles_per_second".into(), Json::Num(self.scps())),
        ])
    }
}

/// Median of wall-second samples (averages the middle pair when even).
fn median(vs: &[f64]) -> f64 {
    let mut s = vs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `{"min": .., "median": .., "max": ..}` over wall-second samples.
fn spread_json(vs: &[f64]) -> Json {
    let mut s = vs.to_vec();
    s.sort_by(f64::total_cmp);
    Json::Obj(vec![
        ("min".into(), Json::Num(s[0])),
        ("median".into(), Json::Num(median(vs))),
        ("max".into(), Json::Num(s[s.len() - 1])),
    ])
}

fn walls(runs: &[(StageTotals, f64)]) -> Vec<f64> {
    runs.iter().map(|(_, w)| *w).collect()
}

/// The run with the median simulate time: the representative whose stage
/// totals become the trajectory entry's headline numbers.
fn median_run(runs: &[(StageTotals, f64)]) -> &StageTotals {
    let mut idx: Vec<usize> = (0..runs.len()).collect();
    idx.sort_by(|&a, &b| runs[a].0.simulate_s.total_cmp(&runs[b].0.simulate_s));
    &runs[idx[(runs.len() - 1) / 2]].0
}

/// The representative run's totals plus min/median/max wall seconds per
/// stage over all repeats (the spread collapses to one value at --repeat 1).
fn workload_json(name: &str, runs: &[(StageTotals, f64)]) -> Json {
    let mut obj = match median_run(runs).json(name) {
        Json::Obj(fields) => fields,
        _ => unreachable!(),
    };
    let stage =
        |f: fn(&StageTotals) -> f64| -> Vec<f64> { runs.iter().map(|(t, _)| f(t)).collect() };
    obj.push((
        "schedule_seconds_spread".into(),
        spread_json(&stage(|t| t.schedule_s)),
    ));
    obj.push((
        "lower_seconds_spread".into(),
        spread_json(&stage(|t| t.lower_s)),
    ));
    obj.push((
        "simulate_seconds_spread".into(),
        spread_json(&stage(|t| t.simulate_s)),
    ));
    obj.push(("wall_seconds_spread".into(), spread_json(&walls(runs))));
    Json::Obj(obj)
}

/// `vmv_core::prepare` (build, compile, lower) with each compile stage
/// timed into `t` — the pre-allocation checks, register allocation and list
/// scheduling add up to the schedule stage — then the certify stage.
fn prepare_staged(
    bench: Benchmark,
    machine: &MachineConfig,
    t: &mut StageTotals,
) -> vmv_core::Prepared {
    let variant = variant_for(machine);
    let build = bench.build(variant);
    let (checked, check_s) = timed(|| vmv_sched::check(&build.program, machine));
    checked.expect("compiles");
    let ((allocated, allocation), regalloc_s) =
        timed(|| vmv_sched::allocate(&build.program, machine).expect("allocates"));
    let (program, list_s) = timed(|| vmv_sched::schedule_blocks(allocated, machine));
    let compiled = vmv_sched::Compiled {
        program,
        allocation,
    };
    let (lowered, lower_s) =
        timed(|| vmv_sched::lower(&compiled.program, machine).expect("lowers"));
    let (diags, certify_s) =
        timed(|| vmv_verify::verify_compiled(&compiled.program, &lowered, machine));
    assert!(
        !vmv_verify::has_errors(&diags),
        "{} on {}: {diags:?}",
        bench.name(),
        machine.name
    );
    t.schedule_s += check_s + regalloc_s + list_s;
    t.regalloc_s += regalloc_s;
    t.list_s += list_s;
    t.lower_s += lower_s;
    t.certify_s += certify_s;
    t.schedules += 1;
    vmv_core::Prepared::new(bench, variant, build, compiled, lowered)
}

/// The Table 2 suite: ten paper configurations × six benchmarks × both
/// memory models, single-threaded, stages timed separately.
fn bench_table2() -> StageTotals {
    let mut t = StageTotals::new();
    for machine in &all_configs() {
        for bench in Benchmark::ALL {
            let prepared = prepare_staged(bench, machine, &mut t);
            for model in [MemoryModel::Perfect, MemoryModel::Realistic] {
                // simulate_fresh: this workload measures the execution
                // engine itself; the replay stage measures the trace cache.
                let (outcome, sim_s) =
                    timed(|| simulate_fresh(&prepared, machine, model).expect("simulates"));
                assert!(
                    outcome.check_failures.is_empty(),
                    "{} on {}: {:?}",
                    bench.name(),
                    machine.name,
                    outcome.check_failures
                );
                t.simulate_s += sim_s;
                t.runs += 1;
                t.simulated_cycles += outcome.stats.cycles();
            }
        }
    }
    t
}

/// The synthetic sweep: the `sweep --demo` design points on the GSM pair,
/// Realistic model, one compile per distinct schedule key (exactly what the
/// sweep executor's compile cache achieves), re-simulated at every point.
fn bench_synthetic() -> StageTotals {
    let lowered = SpecFile::demo().lower().expect("demo spec lowers");
    let points = lowered.spec.expand().points;
    let mut t = StageTotals::new();
    let mut cache: std::collections::HashMap<String, std::sync::Arc<vmv_core::Prepared>> =
        std::collections::HashMap::new();
    for bench in lowered.benchmarks {
        for point in &points {
            let key = format!("{}|{}", bench.name(), schedule_fingerprint(&point.machine));
            let prepared = match cache.get(&key) {
                Some(p) => p.clone(),
                None => {
                    let p = std::sync::Arc::new(prepare_staged(bench, &point.machine, &mut t));
                    cache.insert(key, p.clone());
                    p
                }
            };
            let (outcome, sim_s) = timed(|| {
                simulate_fresh(&prepared, &point.machine, MemoryModel::Realistic)
                    .expect("simulates")
            });
            assert!(outcome.check_failures.is_empty());
            t.simulate_s += sim_s;
            t.runs += 1;
            t.simulated_cycles += outcome.stats.cycles();
        }
    }
    t
}

/// Totals of the replay stage: the same memory-axis sweep priced by full
/// re-execution and by record-once/replay-the-rest.
struct ReplayTotals {
    execute_s: f64,
    replay_s: f64,
    /// The `execute_s` / `replay_s` shares spent on runs the adaptive
    /// strategy served by replay (the recording runs cost the same either
    /// way, so this pair isolates the per-variant win).
    execute_replayed_s: f64,
    replay_replayed_s: f64,
    runs: u64,
    recorded: u64,
    replayed: u64,
    simulated_cycles: u64,
}

impl ReplayTotals {
    /// Simulate-stage speedup of the replay strategy over re-execution,
    /// over the whole sweep (recording runs included).
    fn speedup(&self) -> f64 {
        if self.replay_s > 0.0 {
            self.execute_s / self.replay_s
        } else {
            0.0
        }
    }

    /// Per-replayed-run speedup: replay vs re-execution on just the runs
    /// that were actually replayed.
    fn marginal_speedup(&self) -> f64 {
        if self.replay_replayed_s > 0.0 {
            self.execute_replayed_s / self.replay_replayed_s
        } else {
            0.0
        }
    }

    fn report(&self) {
        println!(
            "replay stage (latency_tolerance sweep): {} runs, {} simulated cycles",
            self.runs, self.simulated_cycles
        );
        println!(
            "  execute {:.3}s | record+replay {:.3}s ({} recorded, {} replayed) | {:.2}x speedup ({:.2}x per replayed run)",
            self.execute_s,
            self.replay_s,
            self.recorded,
            self.replayed,
            self.speedup(),
            self.marginal_speedup()
        );
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str("replay")),
            ("runs".into(), Json::u64(self.runs)),
            ("recorded_runs".into(), Json::u64(self.recorded)),
            ("replayed_runs".into(), Json::u64(self.replayed)),
            ("simulated_cycles".into(), Json::u64(self.simulated_cycles)),
            ("execute_seconds".into(), Json::Num(self.execute_s)),
            ("replay_seconds".into(), Json::Num(self.replay_s)),
            ("speedup".into(), Json::Num(self.speedup())),
            (
                "marginal_speedup".into(),
                Json::Num(self.marginal_speedup()),
            ),
        ])
    }
}

/// The replay stage: run the committed `latency_tolerance` memory-axis
/// sweep both ways — every run fully executed vs each schedule key executed
/// once and replayed for the other memory variants — and verify the two
/// strategies produce bit-identical statistics while measuring the win.
fn bench_replay() -> ReplayTotals {
    let spec = SpecFile::parse(LATENCY_TOLERANCE_SPEC)
        .expect("committed spec parses")
        .lower()
        .expect("committed spec lowers");
    let points = spec.spec.expand().points;
    let mut t = ReplayTotals {
        execute_s: 0.0,
        replay_s: 0.0,
        execute_replayed_s: 0.0,
        replay_replayed_s: 0.0,
        runs: 0,
        recorded: 0,
        replayed: 0,
        simulated_cycles: 0,
    };
    let mut cache: std::collections::HashMap<String, std::sync::Arc<vmv_core::Prepared>> =
        std::collections::HashMap::new();
    for bench in spec.benchmarks {
        for point in &points {
            let key = format!("{}|{}", bench.name(), schedule_fingerprint(&point.machine));
            let prepared = cache
                .entry(key)
                .or_insert_with(|| {
                    std::sync::Arc::new(prepare(bench, &point.machine).expect("prepares"))
                })
                .clone();
            // Strategy A: full functional execution (what every memory
            // variant cost before the trace cache).
            let (executed, execute_s) = timed(|| {
                simulate_fresh(&prepared, &point.machine, point.model).expect("simulates")
            });
            // Strategy B: execute-and-record on first sight of the key,
            // replay for every other variant (what `simulate` does now).
            let replaying = prepared.has_trace();
            let (adaptive, replay_s) =
                timed(|| simulate(&prepared, &point.machine, point.model).expect("simulates"));
            assert_eq!(
                executed.stats,
                adaptive.stats,
                "replay must be bit-identical to execution ({} on {})",
                bench.name(),
                point.name
            );
            t.execute_s += execute_s;
            t.replay_s += replay_s;
            if replaying {
                t.replayed += 1;
                t.execute_replayed_s += execute_s;
                t.replay_replayed_s += replay_s;
            } else {
                t.recorded += 1;
            }
            t.runs += 1;
            t.simulated_cycles += executed.stats.cycles();
        }
    }
    t
}

/// Totals of the replay_batch stage: the same retimed variants priced as
/// K batches of one and as one batch of K per schedule key.
struct BatchTotals {
    singles_s: f64,
    batch_s: f64,
    batches: u64,
    recorded: u64,
    retimed: u64,
    simulated_cycles: u64,
}

impl BatchTotals {
    /// Per-retimed-variant speedup of one batch of K over K batches of one
    /// (both sides cover exactly the retimed variants, so the totals ratio
    /// *is* the per-variant ratio).
    fn speedup(&self) -> f64 {
        if self.batch_s > 0.0 {
            self.singles_s / self.batch_s
        } else {
            0.0
        }
    }

    fn report(&self) {
        println!(
            "replay_batch stage (latency_tolerance sweep): {} recorded, {} retimed in {} batches",
            self.recorded, self.retimed, self.batches
        );
        println!(
            "  K batches of one {:.3}s | one batch of K {:.3}s | {:.2}x speedup per retimed variant",
            self.singles_s,
            self.batch_s,
            self.speedup()
        );
    }

    fn json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str("replay_batch")),
            ("batches".into(), Json::u64(self.batches)),
            ("recorded_runs".into(), Json::u64(self.recorded)),
            ("retimed_runs".into(), Json::u64(self.retimed)),
            ("simulated_cycles".into(), Json::u64(self.simulated_cycles)),
            ("serial_replay_seconds".into(), Json::Num(self.singles_s)),
            ("batch_replay_seconds".into(), Json::Num(self.batch_s)),
            ("speedup".into(), Json::Num(self.speedup())),
        ])
    }
}

/// The replay_batch stage: group the committed `latency_tolerance` sweep by
/// schedule key, execute-and-record each key once, then retime the
/// remaining K memory variants twice — as K batches of one (one `simulate`
/// walk per variant) and as one fused `simulate_batch` walk — verifying the
/// two agree bit-for-bit while measuring the batching win.
fn bench_replay_batch() -> BatchTotals {
    let spec = SpecFile::parse(LATENCY_TOLERANCE_SPEC)
        .expect("committed spec parses")
        .lower()
        .expect("committed spec lowers");
    let points = spec.spec.expand().points;
    let mut t = BatchTotals {
        singles_s: 0.0,
        batch_s: 0.0,
        batches: 0,
        recorded: 0,
        retimed: 0,
        simulated_cycles: 0,
    };
    // Group point indices by schedule key, preserving first-seen order.
    let mut groups: Vec<(std::sync::Arc<vmv_core::Prepared>, Vec<usize>)> = Vec::new();
    let mut index: std::collections::HashMap<String, usize> = std::collections::HashMap::new();
    for bench in spec.benchmarks {
        for (i, point) in points.iter().enumerate() {
            let key = format!("{}|{}", bench.name(), schedule_fingerprint(&point.machine));
            match index.get(&key) {
                Some(&g) => groups[g].1.push(i),
                None => {
                    index.insert(key, groups.len());
                    let prepared =
                        std::sync::Arc::new(prepare(bench, &point.machine).expect("prepares"));
                    groups.push((prepared, vec![i]));
                }
            }
        }
    }
    for (prepared, group) in &groups {
        // Execute-and-record the first variant (cost identical for both
        // strategies, so it stays outside the timed sections).
        let first = &points[group[0]];
        let recorded = simulate(prepared, &first.machine, first.model).expect("records");
        assert!(prepared.has_trace());
        t.recorded += 1;
        t.simulated_cycles += recorded.stats.cycles();
        let rest = &group[1..];
        if rest.is_empty() {
            continue;
        }
        // Strategy A: K batches of one, one full trace walk per variant.
        let (singles, singles_s) = timed(|| {
            rest.iter()
                .map(|&i| simulate(prepared, &points[i].machine, points[i].model).expect("replays"))
                .collect::<Vec<_>>()
        });
        // Strategy B: one batch of K, a single walk retiming every variant.
        let (batched, batch_s) = timed(|| {
            let variants: Vec<_> = rest
                .iter()
                .map(|&i| (&points[i].machine, points[i].model))
                .collect();
            vmv_core::simulate_batch(prepared, &variants).expect("batch replays")
        });
        for ((single_run, batch_run), &i) in singles.iter().zip(&batched).zip(rest) {
            assert_eq!(
                single_run.stats, batch_run.stats,
                "one batch of K must be bit-identical to K batches of one ({})",
                points[i].name
            );
            t.simulated_cycles += single_run.stats.cycles();
        }
        t.singles_s += singles_s;
        t.batch_s += batch_s;
        t.batches += 1;
        t.retimed += rest.len() as u64;
    }
    t
}

fn main() {
    let mut json_path = "BENCH_sim.json".to_string();
    let mut min_scps: Option<f64> = None;
    let mut min_replay_speedup: Option<f64> = None;
    let mut min_batch_speedup: Option<f64> = None;
    let mut repeat = 1u32;
    let mut args = vmv_bench::args::ArgStream::new();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json_path = args.value("--json"),
            "--min-scps" => {
                min_scps = Some(args.parsed("--min-scps", "a throughput floor in cycles/second"))
            }
            "--min-replay-speedup" => {
                min_replay_speedup =
                    Some(args.parsed("--min-replay-speedup", "a speedup floor over re-execution"))
            }
            "--min-batch-speedup" => {
                min_batch_speedup =
                    Some(args.parsed("--min-batch-speedup", "a speedup floor over batches of one"))
            }
            "--repeat" => {
                let n: u32 = args.parsed("--repeat", "a repeat count of at least 1");
                if n < 1 {
                    vmv_bench::args::fail("--repeat expects a repeat count of at least 1, got '0'");
                }
                repeat = n;
            }
            "--help" | "-h" => {
                usage();
                return;
            }
            other => vmv_bench::args::fail(format!("unknown argument '{other}'")),
        }
    }

    // The recorder is near-free and its compact snapshot rides along in the
    // trajectory entry, so the history says *what ran*, not just how fast.
    vmv_obs::reset();
    vmv_obs::set_enabled(true);

    // Outer repeats: run each whole workload N times and keep every
    // stage's wall-second samples, so the entry records spread (min/
    // median/max) instead of a single roll of the scheduler-noise dice.
    let mut table2_runs: Vec<(StageTotals, f64)> = Vec::new();
    let mut synthetic_runs: Vec<(StageTotals, f64)> = Vec::new();
    let mut replay_runs: Vec<ReplayTotals> = Vec::new();
    let mut batch_runs: Vec<BatchTotals> = Vec::new();
    for i in 0..repeat {
        if repeat > 1 {
            println!("repeat {}/{repeat}", i + 1);
        }
        table2_runs.push(timed(bench_table2));
        synthetic_runs.push(timed(bench_synthetic));
        replay_runs.push(bench_replay());
        batch_runs.push(bench_replay_batch());
    }
    let table2 = median_run(&table2_runs);
    let synthetic = median_run(&synthetic_runs);
    // Median replay repeat by its record+replay wall time.
    let replay = {
        let mut idx: Vec<usize> = (0..replay_runs.len()).collect();
        idx.sort_by(|&a, &b| replay_runs[a].replay_s.total_cmp(&replay_runs[b].replay_s));
        &replay_runs[idx[(replay_runs.len() - 1) / 2]]
    };
    // Median batch repeat by its batched-replay wall time.
    let batch = {
        let mut idx: Vec<usize> = (0..batch_runs.len()).collect();
        idx.sort_by(|&a, &b| batch_runs[a].batch_s.total_cmp(&batch_runs[b].batch_s));
        &batch_runs[idx[(batch_runs.len() - 1) / 2]]
    };
    table2.report("table2 suite (10 configs x 6 benchmarks x 2 memory models)");
    synthetic.report("synthetic sweep (demo points, GSM pair, realistic model)");
    replay.report();
    batch.report();
    let table2_wall = median(&walls(&table2_runs));
    let synthetic_wall = median(&walls(&synthetic_runs));

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let entry = Json::Obj(vec![
        ("name".into(), Json::str("bench_sim")),
        ("host".into(), Json::str(host_name())),
        ("commit".into(), Json::str(commit_id())),
        ("rustc".into(), Json::str(rustc_version())),
        ("unix_time".into(), Json::u64(unix_time)),
        ("repeat".into(), Json::u64(repeat as u64)),
        ("table2_wall_seconds".into(), Json::Num(table2_wall)),
        ("synthetic_wall_seconds".into(), Json::Num(synthetic_wall)),
        ("table2".into(), workload_json("table2", &table2_runs)),
        (
            "synthetic".into(),
            workload_json("synthetic", &synthetic_runs),
        ),
        ("replay".into(), replay.json()),
        ("replay_batch".into(), batch.json()),
        ("metrics".into(), vmv_obs::snapshot().to_json_compact()),
    ]);
    let trajectory = append_to_trajectory(&json_path, entry);
    // One entry per line between the array brackets: appends produce
    // one-line diffs, and the history stays greppable.
    let lines: Vec<String> = trajectory.iter().map(Json::render).collect();
    let rendered = format!("[\n{}\n]\n", lines.join(",\n"));
    if let Err(e) = std::fs::write(&json_path, rendered) {
        eprintln!("cannot write {json_path}: {e}");
        std::process::exit(1);
    }
    println!(
        "\nappended trajectory entry {} to {json_path}",
        trajectory.len()
    );

    if let Some(floor) = min_scps {
        let scps = synthetic.scps();
        if scps < floor {
            eprintln!(
                "FAIL: synthetic-sweep simulation throughput {scps:.0} < floor {floor:.0} \
                 simulated-cycles-per-second"
            );
            std::process::exit(1);
        }
        println!("throughput floor ok: {scps:.0} >= {floor:.0} simulated-cycles-per-second");
    }
    if let Some(floor) = min_replay_speedup {
        let speedup = replay.speedup();
        if speedup < floor {
            eprintln!("FAIL: replay-stage speedup {speedup:.2}x < floor {floor:.2}x");
            std::process::exit(1);
        }
        println!("replay floor ok: {speedup:.2}x >= {floor:.2}x over re-execution");
    }
    if let Some(floor) = min_batch_speedup {
        let speedup = batch.speedup();
        if speedup < floor {
            eprintln!("FAIL: replay_batch-stage speedup {speedup:.2}x < floor {floor:.2}x");
            std::process::exit(1);
        }
        println!("batch floor ok: {speedup:.2}x >= {floor:.2}x over batches of one");
    }
}
