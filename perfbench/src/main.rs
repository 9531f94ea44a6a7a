//! perfbench: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload explore_arch --seed 1 --seconds 15 --trace 0
//! ```
//!
//! With `--trace 0` the workload's sweep runs as users run it
//! (`vmv_sweep::run_sweep`, then the report read-back on `profile_report`)
//! for `--seconds`, and the end-to-end metrics are printed.  With
//! `--trace 1` each repetition runs the same workload layer by layer under
//! in-memory spans, and the per-layer metrics are printed.  Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.  See README.md.

mod check;
mod host;
mod layers;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use check::Tally;
use trace::Tracer;
use workload::{Setup, Shape, Workload};

/// Repetitions a run makes even when `--seconds` is already spent.
const MIN_REPS: usize = 3;
/// Runs re-simulated from scratch by the oracle in each benchmark run.
const ORACLE_SAMPLE: usize = 16;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = workload::DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or(format!(
                    "unknown workload {name:?} (known: explore_arch, explore_memory, profile_report)"
                ))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// One repetition of the workload as users run it.
struct Rep {
    setup_s: f64,
    timed_s: f64,
    runs_ok: usize,
    rss_mb: f64,
    digest: u64,
    setup: Setup,
    stored: Vec<vmv_sweep::RunRecord>,
}

/// Set up, sweep (and read back on `profile_report`), then check the
/// outputs.  `workers` overrides the workload's worker count.
fn untraced_rep(
    w: Workload,
    seed: u64,
    dir: &Path,
    workers: Option<usize>,
    tally: &mut Tally,
) -> Result<Rep, String> {
    let start = Instant::now();
    let mut setup = workload::set_up(w, seed, dir)?;
    if let Some(n) = workers {
        setup.opts.workers = n;
    }
    let setup_s = start.elapsed().as_secs_f64();
    // After set-up, so that set-up reuses the heap an earlier repetition
    // freed instead of faulting in fresh pages; its live data still counts,
    // since the peak restarts from the current RSS.
    host::reset_peak_rss();
    let start = Instant::now();
    let report = vmv_sweep::run_sweep(&setup.points, &setup.opts, Some(&setup.store))
        .map_err(|e| format!("sweep: {e}"))?;
    let back = match w.profiled() {
        true => Some(layers::readback(&mut Tracer::off(), &setup, seed)?),
        false => None,
    };
    let timed_s = start.elapsed().as_secs_f64();
    let rss_mb = host::peak_rss_mb().ok_or("peak RSS is unavailable (no /proc/self/status)")?;

    let stored = setup
        .store
        .load()
        .map_err(|e| format!("{}: {e}", setup.store_path.display()))?;
    let expected = setup.points.len() * setup.opts.benchmarks.len();
    let failed_before = tally.failed;
    check::check_rows(expected, &report.records, &report.errors, &stored, tally);
    if let Some(back) = &back {
        check::check_profiles(&report.records, &back.docs, tally);
    }
    let runs_ok = expected.saturating_sub((tally.failed - failed_before) as usize);
    Ok(Rep {
        setup_s,
        timed_s,
        runs_ok,
        rss_mb,
        digest: check::stats_digest(&stored),
        setup,
        stored,
    })
}

type Metrics = BTreeMap<&'static str, (f64, &'static str)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The per-layer metrics of one traced repetition.
fn layer_metrics(run: &layers::TracedRun, shape: &Shape, untraced_wall_s: f64) -> Metrics {
    let st = run.tracer.self_times();
    let s = |name: &str| st.get(name).copied().unwrap_or(0.0);
    let c = &run.counts;
    let sched_s = s("sched.check") + s("sched.regalloc") + s("sched.list") + s("sched.lower");
    let stats: Vec<&vmv_sim::RunStats> = run.outputs.stats.values().collect();
    let sum =
        |f: &dyn Fn(&vmv_sim::RunStats) -> u64| stats.iter().map(|r| f(r)).sum::<u64>() as f64;
    let cycles = sum(&|r| r.cycles());
    let l1 = sum(&|r| r.memory.l1_hits);
    let l2 = sum(&|r| r.memory.l2_hits);
    let runs = (run.setup.points.len() * run.setup.opts.benchmarks.len()) as f64;
    let mut m = Metrics::new();
    let mut put = |name, value, unit| {
        m.insert(name, (value, unit));
    };
    put("kernels.build_s", s("kernels.build"), "s");
    put("sched.check_s", s("sched.check"), "s");
    put("sched.regalloc_s", s("sched.regalloc"), "s");
    put("sched.list_s", s("sched.list"), "s");
    put("sched.lower_s", s("sched.lower"), "s");
    put("sched.static_ops", c.static_ops as f64, "count");
    put(
        "sched.ns_per_op",
        ratio(sched_s * 1e9, c.static_ops as f64),
        "ns/op",
    );
    put("sched.schedules", c.schedules as f64, "count");
    put("verify.certify_s", s("verify.certify"), "s");
    put("verify.diagnostics", c.diagnostics as f64, "count");
    put("sim.execute_s", s("sim.execute"), "s");
    put(
        "sim.exec_cycles_per_s",
        ratio(c.executed_cycles as f64, s("sim.execute")),
        "cycles/s",
    );
    put("sim.replay_batch_s", s("sim.replay_batch"), "s");
    put(
        "sim.retime_us_per_run",
        ratio(s("sim.replay_batch") * 1e6, c.replayed_runs as f64),
        "us/run",
    );
    put(
        "sim.mean_batch_width",
        ratio(c.replayed_runs as f64, c.batches as f64),
        "runs",
    );
    put("sim.profiled_s", s("sim.profiled"), "s");
    put("mem.leader_variants", shape.tag_classes as f64, "count");
    put("mem.follower_variants", shape.followers as f64, "count");
    put("model.sim_cycles", cycles, "cycles");
    put(
        "model.opc",
        ratio(sum(&|r| r.total().operations), cycles),
        "ops/cycle",
    );
    put(
        "mem.l1_hit_rate",
        ratio(l1, l1 + sum(&|r| r.memory.l1_misses)),
        "ratio",
    );
    put(
        "mem.l2_hit_rate",
        ratio(l2, l2 + sum(&|r| r.memory.l2_misses)),
        "ratio",
    );
    put(
        "mem.stall_cycles",
        sum(&|r| r.memory.total_stall_cycles),
        "cycles",
    );
    put("sweep.spec_s", s("sweep.spec"), "s");
    put(
        "sweep.cache_hit_rate",
        ratio(c.cache_hits as f64, runs),
        "ratio",
    );
    put(
        "sweep.live_keys",
        run.outputs.prepared.len() as f64,
        "count",
    );
    put("sweep.store_append_s", s("sweep.store_append"), "s");
    put("sweep.store_bytes", c.store_bytes as f64, "bytes");
    put("sweep.profile_write_s", s("sweep.profile_write"), "s");
    put("sweep.profile_bytes", c.profile_bytes as f64, "bytes");
    put("report.profile_load_s", s("report.profile_load"), "s");
    put("report.store_load_s", s("report.store_load"), "s");
    put("report.render_s", s("report.render"), "s");
    put("report.bytes_out", c.bytes_out as f64, "bytes");
    put("trace.overhead_s", run.wall_s - untraced_wall_s, "s");
    put("trace.untraced_s", run.wall_s - run.tracer.covered_s(), "s");
    m
}

fn json_line(tally: &Tally, metrics: &Metrics) -> String {
    let correct = tally.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (value, unit))| format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Per-metric median over repetitions.
fn medians(reps: &[Metrics]) -> Metrics {
    let mut out = Metrics::new();
    for (&name, &(_, unit)) in &reps[0] {
        let values: Vec<f64> = reps.iter().map(|m| m[name].0).collect();
        out.insert(name, (host::median(&values), unit));
    }
    out
}

/// One traced repetition beside a 1-worker untraced one, alternating which
/// runs first so neither always meets a warmer host.  Returns the per-layer
/// metrics, the statistics digest and each span name's self time.
fn traced_rep(
    args: &Args,
    dir: &Path,
    rep_no: usize,
    shape: &Shape,
    spans_path: &Path,
    tally: &mut Tally,
) -> Result<(Metrics, u64, BTreeMap<&'static str, f64>), String> {
    let w = args.workload;
    let untraced =
        |tally: &mut Tally| untraced_rep(w, args.seed, &dir.join("untraced"), Some(1), tally);
    let traced = |tally: &mut Tally| layers::traced_run(w, args.seed, &dir.join("traced"), tally);
    let (untraced, traced) = if rep_no.is_multiple_of(2) {
        let u = untraced(tally)?;
        (u, traced(tally)?)
    } else {
        let t = traced(tally)?;
        (untraced(tally)?, t)
    };
    let stored = traced.setup.store.load().map_err(|e| e.to_string())?;
    check::check_stored(&traced.records, &stored, tally);
    let digest = check::stats_digest(&traced.records);
    if digest != untraced.digest {
        tally.fail("traced and untraced runs disagree on the statistics digest".to_string());
    }
    if rep_no == 0 {
        let s = &traced.setup;
        check::oracle(
            &s.points,
            &s.opts.benchmarks,
            &stored,
            Some(&traced.outputs),
            ORACLE_SAMPLE,
            args.seed,
            tally,
        );
    }
    std::fs::create_dir_all(".perfbench").map_err(|e| e.to_string())?;
    traced
        .tracer
        .write(spans_path, rep_no)
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;
    let metrics = layer_metrics(&traced, shape, untraced.setup_s + untraced.timed_s);
    Ok((metrics, digest, traced.tracer.self_times()))
}

fn run(args: &Args, work: &Path) -> Result<(), String> {
    let w = args.workload;
    let mut tally = Tally::default();
    // Held-out-seed self-test: both recorded seeds give one shape.
    if let Err(e) = workload::check_held_out(w) {
        tally.fail(e);
    }
    let (shape, _) = workload::expand(w, args.seed)?;
    let spans_path =
        PathBuf::from(".perfbench").join(format!("spans-{}-seed{}.jsonl", w.name(), args.seed));
    if args.trace {
        let _ = std::fs::remove_file(&spans_path);
    }

    let start = Instant::now();
    let mut reps: Vec<Metrics> = Vec::new();
    let mut digests: Vec<u64> = Vec::new();
    let mut self_times: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut last: Option<Rep> = None;
    while reps.len() < MIN_REPS || start.elapsed().as_secs_f64() < args.seconds {
        let dir = work.join(format!("rep{}", reps.len()));
        if args.trace {
            let (metrics, digest, times) =
                traced_rep(args, &dir, reps.len(), &shape, &spans_path, &mut tally)?;
            for (name, s) in times {
                *self_times.entry(name).or_default() += s;
            }
            reps.push(metrics);
            digests.push(digest);
        } else {
            let rep = untraced_rep(w, args.seed, &dir, None, &mut tally)?;
            reps.push(Metrics::from([
                ("runs_per_s", (rep.runs_ok as f64 / rep.timed_s, "1/s")),
                ("setup_s", (rep.setup_s, "s")),
                ("peak_rss_mb", (rep.rss_mb, "MB")),
            ]));
            digests.push(rep.digest);
            last = Some(rep);
        }
        std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    if let Some(rep) = &last {
        let s = &rep.setup;
        check::oracle(
            &s.points,
            &s.opts.benchmarks,
            &rep.stored,
            None,
            ORACLE_SAMPLE,
            args.seed,
            &mut tally,
        );
    }
    if digests.iter().any(|&d| d != digests[0]) {
        tally.fail("stats_digest differs between repetitions".to_string());
    }
    let mut metrics = medians(&reps);
    if !args.trace {
        let ok = 1.0 - ratio(tally.failed as f64, tally.attempted as f64);
        metrics.insert("ok_ratio", (ok, "ratio"));
    }

    println!(
        "perfbench {} seed={} {}: {} runs, {} schedule keys, {} replay batches, {} tag classes, {} followers; {} reps in {:.1} s",
        w.name(),
        args.seed,
        if args.trace { "traced" } else { "untraced" },
        shape.runs,
        shape.schedule_keys,
        shape.batches,
        shape.tag_classes,
        shape.followers,
        reps.len(),
        start.elapsed().as_secs_f64()
    );
    println!(
        "stats_digest={:016x} fail_ratio={}/{}",
        digests[0], tally.failed, tally.attempted
    );
    for note in &tally.notes {
        println!("FAILED: {note}");
    }
    if args.trace {
        let per_rep = |s: f64| s / reps.len() as f64;
        if let Some((top, s)) = self_times.iter().max_by(|a, b| a.1.total_cmp(b.1)) {
            println!(
                "largest self-time layer: {top}_s ({:.3} s of {:.3} s spanned per rep); spans in {}",
                per_rep(*s),
                per_rep(self_times.values().sum()),
                spans_path.display()
            );
        }
        let mut layers: BTreeMap<&str, f64> = BTreeMap::new();
        for (name, s) in &self_times {
            *layers
                .entry(name.split('.').next().unwrap_or(name))
                .or_default() += per_rep(*s);
        }
        let layers: Vec<String> = layers.iter().map(|(l, s)| format!("{l} {s:.3}")).collect();
        println!("self time by layer, s per rep: {}", layers.join(", "));
    }
    for (name, (value, unit)) in &metrics {
        println!("  {name:<24} {value:>16.6} {unit}");
    }
    println!("host: {}", host::stamp());
    println!("{}", json_line(&tally, &metrics));
    Ok(())
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench").join(format!("work-{}", std::process::id()));
    let result = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    if let Err(e) = result {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
