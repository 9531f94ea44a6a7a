//! The parallel sweep executor: a work-stealing pool over
//! `std::thread::scope` that runs every `(design point, benchmark)` job,
//! sharing one [`CompileCache`] so each program is scheduled once per
//! unique schedule key, and skipping jobs whose run keys are already in the
//! result store.
//!
//! Jobs are dispatched in *groups*: every job sharing one compile-cache key
//! also shares one lowered program and one recorded trace, so a group is
//! executed as a single record-then-batch-replay unit — the first run
//! executes and records (exactly the adaptive behaviour of
//! [`vmv_core::simulate`]), and every remaining memory variant is retimed
//! by one batched trace walk ([`vmv_core::simulate_batch`]).  A batch that
//! fails or panics falls back to one [`vmv_core::simulate`] call per job —
//! a batch of one each — preserving per-job error isolation.
//!
//! Results are collected into pre-assigned slots, so the report order is
//! deterministic (point-major, benchmark-minor) regardless of the worker
//! count or scheduling jitter.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use vmv_core::{simulate, simulate_batch, simulate_batch_profiled, simulate_profiled, Prepared};
use vmv_kernels::Benchmark;
use vmv_obs::{Counter, SpanKind};

use crate::cache::{CacheCounters, CompileCache};
use crate::profiles::{write_profile, ProfileMeta};
use crate::spec::SweepPoint;
use crate::store::{run_key, ResultStore, RunRecord};

/// Executor options.
#[derive(Clone)]
pub struct ExecOptions {
    /// Benchmarks to run at every design point.
    pub benchmarks: Vec<Benchmark>,
    /// Worker threads (0 = one per available core, capped at 16).
    pub workers: usize,
    /// Print a ~1 Hz heartbeat line to stderr while the sweep runs.
    pub progress: bool,
    /// Certify every freshly compiled schedule with the static verifier
    /// even in release builds (debug builds always certify).
    pub verify: bool,
    /// Write a `vmv-profile/1` cycle-attribution document per completed
    /// run into this directory (`None` = profiling off; the engines run
    /// their unprofiled, byte-identical paths).
    pub profile_dir: Option<std::path::PathBuf>,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            benchmarks: Benchmark::ALL.to_vec(),
            workers: 0,
            progress: false,
            verify: false,
            profile_dir: None,
        }
    }
}

impl ExecOptions {
    /// Options for the benchmark subset a lowered spec file selects.
    pub fn for_spec(lowered: &crate::specfile::LoweredSpec, workers: usize) -> ExecOptions {
        ExecOptions {
            benchmarks: lowered.benchmarks.clone(),
            workers,
            progress: false,
            verify: false,
            profile_dir: None,
        }
    }

    fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            self.workers
        } else {
            vmv_core::workers_capped(16)
        }
    }
}

/// Outcome of one sweep invocation.
pub struct SweepReport {
    /// Records completed *this* invocation, in deterministic job order.
    pub records: Vec<RunRecord>,
    /// Jobs skipped because their key was already in the store.
    pub skipped: usize,
    /// Failed jobs as `(job description, error)` — a failing extreme point
    /// does not abort the rest of the sweep.
    pub errors: Vec<(String, String)>,
    /// Compile-cache counters (misses == schedules performed).
    pub cache: CacheCounters,
    /// Jobs served by trace replay instead of full execution: their shared
    /// [`vmv_core::Prepared`] already held a recorded trace, so only the
    /// memory hierarchy was re-timed.
    pub replays: usize,
    /// Batched replay walks performed (each retimes one or more variants in
    /// a single pass over the shared trace).
    pub replay_batches: usize,
    /// Wall-clock seconds of the parallel phase.
    pub wall_seconds: f64,
}

/// The `--progress` heartbeat: at most one line per second on stderr with
/// runs done/total, throughput, compile-cache hit rate and an ETA.
struct Progress {
    on: bool,
    total: usize,
    skipped: usize,
    start: Instant,
    last: Instant,
    /// Recent `(instant, done)` samples.  The rate (and so the ETA) is
    /// computed over this ~10 s sliding window instead of since sweep
    /// start, so the estimate tracks the *current* throughput: a slow
    /// cold-start (every job compiling) no longer drags the ETA for the
    /// rest of a long sweep once the cache is warm.
    window: VecDeque<(Instant, usize)>,
}

/// Width of the sliding rate window, seconds.
const RATE_WINDOW_S: f64 = 10.0;

impl Progress {
    fn new(on: bool, total: usize, skipped: usize) -> Progress {
        let now = Instant::now();
        let mut window = VecDeque::new();
        window.push_back((now, 0));
        Progress {
            on,
            total,
            skipped,
            start: now,
            last: now,
            window,
        }
    }

    fn tick(&mut self, done: usize, cache: &CompileCache, force: bool) {
        if !self.on {
            return;
        }
        let now = Instant::now();
        if !force && now.duration_since(self.last).as_secs_f64() < 1.0 {
            return;
        }
        self.last = now;
        self.window.push_back((now, done));
        // Keep at least two samples so a window is always defined.
        while self.window.len() > 2
            && now.duration_since(self.window[0].0).as_secs_f64() > RATE_WINDOW_S
        {
            self.window.pop_front();
        }
        let &(t0, d0) = self.window.front().unwrap();
        let span = now.duration_since(t0).as_secs_f64();
        let progressed = done.saturating_sub(d0);
        let rate = if span > 0.0 && progressed > 0 {
            progressed as f64 / span
        } else {
            // No progress inside the window yet: fall back to the
            // since-start average rather than reporting 0 runs/s.
            done as f64 / now.duration_since(self.start).as_secs_f64().max(1e-9)
        };
        let eta = if rate > 0.0 && done > 0 {
            format!("{:.0}s", (self.total - done) as f64 / rate)
        } else {
            "?".to_string()
        };
        let c = cache.counters();
        let lookups = c.hits + c.misses;
        let hit_pct = if lookups == 0 {
            0.0
        } else {
            100.0 * c.hits as f64 / lookups as f64
        };
        eprintln!(
            "sweep: {done}/{} runs ({} skipped) | {rate:.1} runs/s | cache hits {hit_pct:.0}% | eta {eta}",
            self.total, self.skipped
        );
    }
}

/// Run `benchmarks × points` in parallel.  When `store` is given, jobs whose
/// run keys are already persisted are skipped and new records are **streamed**
/// to it while the sweep runs: the main thread commits the completed prefix
/// of the job list as workers finish, so an interrupted sweep keeps
/// everything up to the first still-running job, and the file content stays
/// deterministic (job order) regardless of the worker count.
///
/// A job that panics (e.g. a generated configuration the simulator's memory
/// model rejects) is caught and reported in `errors` like any other failed
/// job — it never aborts the rest of the sweep.
pub fn run_sweep(
    points: &[SweepPoint],
    opts: &ExecOptions,
    store: Option<&ResultStore>,
) -> std::io::Result<SweepReport> {
    let mut cache = CompileCache::new();
    if opts.verify {
        cache.set_verify(true);
    }
    let cache = cache;
    let done = match store {
        Some(s) => s.completed_keys()?,
        None => Default::default(),
    };

    // Point-major job list so every job has a stable index.
    struct Job<'a> {
        point: &'a SweepPoint,
        benchmark: Benchmark,
        key: String,
    }
    let mut jobs = Vec::with_capacity(points.len() * opts.benchmarks.len());
    let mut skipped = 0usize;
    for point in points {
        for &benchmark in &opts.benchmarks {
            let variant = vmv_core::variant_for(&point.machine);
            let key = run_key(benchmark, variant, &point.machine, point.model);
            if done.contains(&key) {
                skipped += 1;
            } else {
                jobs.push(Job {
                    point,
                    benchmark,
                    key,
                });
            }
        }
    }

    vmv_obs::add(Counter::SweepJobsSkipped, skipped as u64);

    // Group jobs by compile-cache key: one group = one lowered program =
    // one trace, executed as a record-then-batch-replay unit.  Groups keep
    // first-seen order and ascending job indices, so the committed prefix
    // of the point-major job list still drains in order.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    {
        let mut index: HashMap<crate::cache::CacheKey, usize> = HashMap::new();
        for (i, job) in jobs.iter().enumerate() {
            let key = CompileCache::key_for(job.benchmark, &job.point.machine);
            match index.entry(key) {
                std::collections::hash_map::Entry::Occupied(e) => groups[*e.get()].push(i),
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(groups.len());
                    groups.push(vec![i]);
                }
            }
        }
    }

    // Queue wait is measured from here — the moment the job list exists —
    // to each run's pickup, so the first histogram bucket shows pool ramp-up
    // and the tail shows how long the last runs sat behind the others.
    let queued_at = Instant::now();

    let replays = AtomicUsize::new(0);
    let replay_batches = AtomicUsize::new(0);
    // Completed runs (not groups): the progress heartbeat reads this so a
    // batched group finishing K runs at once advances the sliding-window
    // rate by K, keeping the ETA smooth.
    let done_runs = AtomicUsize::new(0);

    // Per-job body: adaptive record-or-retime (a batch of one) with per-job
    // panic isolation.  Used for the recording run of each group and as
    // the fallback when a batch fails.
    let run_job = |i: usize, prepared: &Prepared| -> Result<RunRecord, String> {
        let job = &jobs[i];
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let simulate_span = vmv_obs::span(SpanKind::JobSimulate);
            // A shared `Prepared` that already carries a trace is served
            // by replay; classify before the call since the first
            // execution is also the one that records.
            let replayed = prepared.has_trace();
            let outcome = match &opts.profile_dir {
                Some(dir) => {
                    let (outcome, profile) =
                        simulate_profiled(prepared, &job.point.machine, job.point.model)
                            .map_err(|e| e.to_string())?;
                    // Rendering and writing the document is its own
                    // span, not simulation time.
                    drop(simulate_span);
                    let _write = vmv_obs::span(SpanKind::ProfileWrite);
                    write_profile(
                        dir,
                        &meta_of(&job.key, job.point, job.benchmark, &outcome),
                        &profile,
                    )
                    .map_err(|e| format!("profile write: {e}"))?;
                    outcome
                }
                None => simulate(prepared, &job.point.machine, job.point.model)
                    .map_err(|e| e.to_string())?,
            };
            if replayed {
                replays.fetch_add(1, Ordering::Relaxed);
            }
            Ok(record_of(
                job.key.clone(),
                job.point,
                job.benchmark,
                &outcome,
            ))
        }))
        .unwrap_or_else(|panic| Err(panic_message(&panic)))
    };

    // Each path records `JobQueueWait` once per job before running its
    // group: the pool the real time since the job list was built, the
    // inline path zero, since nothing there ever waits in a queue.
    let queue_wait = |group: &[usize], ns: u64| {
        for _ in group {
            vmv_obs::record_ns(SpanKind::JobQueueWait, ns);
        }
    };
    // One group body shared by the inline and pooled paths, so the two can
    // never diverge in cache interaction, record layout or panic handling.
    // Returns one result per job of the group, in group (= job) order.
    let run_group = |group: &[usize]| -> Vec<(usize, Result<RunRecord, String>)> {
        // One cache lookup per job (not per group) keeps the hit/miss
        // accounting identical to per-job dispatch: the first lookup of a
        // key is the miss that schedules, every other job is a hit.
        let mut prepared: Option<std::sync::Arc<Prepared>> = None;
        let mut compile_err: Option<String> = None;
        for &i in group {
            let job = &jobs[i];
            let looked_up = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _compile = vmv_obs::span(SpanKind::JobCompile);
                cache.get_or_compile(job.benchmark, &job.point.machine)
            }));
            match looked_up {
                Ok(Ok(p)) => prepared = Some(p),
                Ok(Err(e)) => compile_err = Some(e.to_string()),
                Err(panic) => compile_err = Some(panic_message(&panic)),
            }
        }

        let mut results: Vec<(usize, Result<RunRecord, String>)> = Vec::with_capacity(group.len());
        match (prepared, compile_err) {
            (Some(prepared), _) => {
                let mut rest = group;
                if !prepared.has_trace() {
                    // First run of the key: execute and record the trace.
                    let i = rest[0];
                    rest = &rest[1..];
                    results.push((i, run_job(i, &prepared)));
                }
                if !rest.is_empty() && prepared.has_trace() {
                    // Everything else retimes the shared trace in one
                    // batched walk.
                    let batched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                        || -> Result<Vec<vmv_core::RunOutcome>, String> {
                            let simulate_span = vmv_obs::span(SpanKind::JobSimulate);
                            let variants: Vec<_> = rest
                                .iter()
                                .map(|&i| (&jobs[i].point.machine, jobs[i].point.model))
                                .collect();
                            match &opts.profile_dir {
                                Some(dir) => {
                                    // Attribution piggybacks on the fused
                                    // walk: one extra pass, not K runs.
                                    let (outcomes, profiles) =
                                        simulate_batch_profiled(&prepared, &variants)
                                            .map_err(|e| e.to_string())?;
                                    drop(simulate_span);
                                    for ((&i, outcome), profile) in
                                        rest.iter().zip(&outcomes).zip(&profiles)
                                    {
                                        let job = &jobs[i];
                                        let _write = vmv_obs::span(SpanKind::ProfileWrite);
                                        write_profile(
                                            dir,
                                            &meta_of(&job.key, job.point, job.benchmark, outcome),
                                            profile,
                                        )
                                        .map_err(|e| format!("profile write: {e}"))?;
                                    }
                                    Ok(outcomes)
                                }
                                None => {
                                    simulate_batch(&prepared, &variants).map_err(|e| e.to_string())
                                }
                            }
                        },
                    ));
                    if let Ok(Ok(outcomes)) = batched {
                        replay_batches.fetch_add(1, Ordering::Relaxed);
                        replays.fetch_add(rest.len(), Ordering::Relaxed);
                        for (&i, outcome) in rest.iter().zip(&outcomes) {
                            let job = &jobs[i];
                            let record =
                                record_of(job.key.clone(), job.point, job.benchmark, outcome);
                            results.push((i, Ok(record)));
                        }
                        rest = &[];
                    }
                    // A failed or panicked batch leaves `rest` untouched:
                    // the fallback below retimes each job as a batch of
                    // one, preserving per-job error isolation.
                }
                for &i in rest {
                    results.push((i, run_job(i, &prepared)));
                }
            }
            (None, Some(e)) => {
                results.extend(group.iter().map(|&i| (i, Err(e.clone()))));
            }
            (None, None) => unreachable!("non-empty group yields a compile result"),
        }
        for (_, r) in &results {
            vmv_obs::incr(if r.is_ok() {
                Counter::SweepJobsCompleted
            } else {
                Counter::SweepJobsFailed
            });
        }
        done_runs.fetch_add(results.len(), Ordering::Relaxed);
        results
    };

    // Single-worker sweeps run inline on the calling thread: no pool, no
    // committer polling — on a single-CPU machine the 1 ms poll loop would
    // otherwise contend with the one worker for the core.  Groups may
    // interleave in the job list, so results land in pre-assigned slots
    // and the completed prefix streams out after each group.
    if opts.effective_workers() == 1 {
        const BATCH: usize = 16;
        let start = Instant::now();
        let mut progress = Progress::new(opts.progress, jobs.len(), skipped);
        let mut slots: Vec<Option<Result<RunRecord, String>>> = jobs.iter().map(|_| None).collect();
        let mut records = Vec::with_capacity(jobs.len());
        let mut errors = Vec::new();
        let mut drained = 0usize;
        let mut committed = 0usize;
        let mut busy_ns = 0u64;
        for group in &groups {
            let group_start = vmv_obs::enabled().then(Instant::now);
            queue_wait(group, 0);
            for (i, result) in run_group(group) {
                slots[i] = Some(result);
            }
            if let Some(t) = group_start {
                busy_ns += t.elapsed().as_nanos() as u64;
            }
            while drained < jobs.len() && slots[drained].is_some() {
                match slots[drained].take().expect("checked above") {
                    Ok(record) => records.push(record),
                    Err(e) => {
                        let job = &jobs[drained];
                        errors.push((format!("{} on {}", job.benchmark.name(), job.point.name), e));
                    }
                }
                drained += 1;
            }
            progress.tick(done_runs.load(Ordering::Relaxed), &cache, false);
            // Stream completed records in small batches so an interrupted
            // sweep keeps (almost) everything, without one write per run.
            if records.len() - committed >= BATCH {
                if let Some(s) = store {
                    let _append = vmv_obs::span(SpanKind::StoreAppend);
                    s.append(&records[committed..])?;
                }
                committed = records.len();
            }
        }
        if let Some(s) = store {
            let _append = vmv_obs::span(SpanKind::StoreAppend);
            s.append(&records[committed..])?;
        }
        vmv_obs::worker_record(0, (records.len() + errors.len()) as u64, busy_ns);
        progress.tick(done_runs.load(Ordering::Relaxed), &cache, true);
        return Ok(SweepReport {
            records,
            skipped,
            errors,
            cache: cache.counters(),
            replays: replays.load(Ordering::Relaxed),
            replay_batches: replay_batches.load(Ordering::Relaxed),
            wall_seconds: start.elapsed().as_secs_f64(),
        });
    }

    let slots: Vec<Mutex<Option<Result<RunRecord, String>>>> =
        jobs.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    // Raised by the committer when the store breaks: simulating jobs whose
    // results could never be persisted or reported would be wasted work.
    let abort = std::sync::atomic::AtomicBool::new(false);
    let start = Instant::now();
    let mut records = Vec::with_capacity(jobs.len());
    let mut errors = Vec::new();
    let mut append_error: Option<std::io::Error> = None;
    std::thread::scope(|scope| {
        // Shadow the shared state as references: the worker closures are
        // `move` (each owns its `worker` index) but must share everything
        // else, and references are `Copy`.
        let (run_group, queue_wait) = (&run_group, &queue_wait);
        let (jobs, groups, slots, next, abort) = (&jobs, &groups, &slots, &next, &abort);
        for worker in 0..opts.effective_workers() {
            scope.spawn(move || {
                let mut worker_jobs = 0u64;
                let mut busy_ns = 0u64;
                loop {
                    if abort.load(Ordering::Relaxed) {
                        break;
                    }
                    let g = next.fetch_add(1, Ordering::Relaxed);
                    if g >= groups.len() {
                        break;
                    }
                    let group = &groups[g];
                    let group_start = vmv_obs::enabled().then(Instant::now);
                    queue_wait(group, queued_at.elapsed().as_nanos() as u64);
                    for (i, result) in run_group(group) {
                        *slots[i].lock().unwrap() = Some(result);
                    }
                    worker_jobs += group.len() as u64;
                    if let Some(t) = group_start {
                        busy_ns += t.elapsed().as_nanos() as u64;
                    }
                }
                vmv_obs::worker_record(worker, worker_jobs, busy_ns);
            });
        }

        // The main thread is the committer: persist the completed prefix of
        // the job list as it grows.  The heartbeat reads the completed-runs
        // counter, not the committed prefix, so progress keeps moving even
        // while an interleaved group holds the prefix back.
        let mut progress = Progress::new(opts.progress, jobs.len(), skipped);
        let mut committed = 0usize;
        while committed < jobs.len() {
            let mut batch = Vec::new();
            while committed < jobs.len() {
                let taken = slots[committed].lock().unwrap().take();
                match taken {
                    Some(Ok(record)) => batch.push(record),
                    Some(Err(e)) => {
                        let job = &jobs[committed];
                        errors.push((format!("{} on {}", job.benchmark.name(), job.point.name), e));
                    }
                    None => break,
                }
                committed += 1;
            }
            if !batch.is_empty() {
                if let Some(s) = store {
                    let _append = vmv_obs::span(SpanKind::StoreAppend);
                    if let Err(e) = s.append(&batch) {
                        append_error = Some(e);
                        abort.store(true, Ordering::Relaxed);
                        break;
                    }
                }
                records.extend(batch);
            }
            progress.tick(
                done_runs.load(Ordering::Relaxed),
                &cache,
                committed == jobs.len(),
            );
            if committed < jobs.len() {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
    });
    if let Some(e) = append_error {
        return Err(e);
    }
    let wall_seconds = start.elapsed().as_secs_f64();

    Ok(SweepReport {
        records,
        skipped,
        errors,
        cache: cache.counters(),
        replays: replays.load(Ordering::Relaxed),
        replay_batches: replay_batches.load(Ordering::Relaxed),
        wall_seconds,
    })
}

/// Build the persisted record of one completed run.
fn record_of(
    key: String,
    point: &SweepPoint,
    benchmark: Benchmark,
    outcome: &vmv_core::RunOutcome,
) -> RunRecord {
    RunRecord {
        key,
        config: point.name.clone(),
        benchmark: benchmark.name().to_string(),
        variant: outcome.variant.name().to_string(),
        model: format!("{:?}", point.model),
        cycles: outcome.stats.cycles(),
        stall_cycles: outcome.stats.total().stall_cycles,
        operations: outcome.stats.total().operations,
        micro_ops: outcome.stats.total().micro_ops,
        vector_cycles: outcome.stats.vector().cycles,
        check_ok: outcome.check_failures.is_empty(),
    }
}

/// Run metadata stamped into a persisted profile document.
fn meta_of(
    key: &str,
    point: &SweepPoint,
    benchmark: Benchmark,
    outcome: &vmv_core::RunOutcome,
) -> ProfileMeta {
    ProfileMeta {
        key: key.to_string(),
        config: point.name.clone(),
        benchmark: benchmark.name().to_string(),
        variant: outcome.variant.name().to_string(),
        model: format!("{:?}", point.model),
    }
}

/// Best-effort text of a worker panic payload.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        format!("panicked: {s}")
    } else if let Some(s) = panic.downcast_ref::<String>() {
        format!("panicked: {s}")
    } else {
        "panicked".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{Axis, SweepSpec};

    fn small_points() -> Vec<SweepPoint> {
        SweepSpec::new()
            .axis(Axis::vector_lanes(&[1, 2, 4]))
            .axis(Axis::mem_latency(&[100, 500]))
            .expand()
            .points
    }

    #[test]
    fn executor_is_deterministic_across_worker_counts() {
        let points = small_points();
        let mut reports = Vec::new();
        for workers in [1, 4] {
            let opts = ExecOptions {
                benchmarks: vec![Benchmark::GsmDec],
                workers,
                progress: false,
                verify: false,
                profile_dir: None,
            };
            reports.push(run_sweep(&points, &opts, None).unwrap());
        }
        let a = &reports[0];
        let b = &reports[1];
        assert_eq!(
            a.records, b.records,
            "1-thread and 4-thread runs must agree exactly"
        );
        assert_eq!(a.records.len(), points.len());
        assert!(a.errors.is_empty(), "{:?}", a.errors);
        assert!(a.records.iter().all(|r| r.check_ok));
        // Group dispatch makes replay accounting deterministic at any
        // worker count: each of the 3 schedule keys records once and
        // retimes its second memory variant in one batch — and replayed
        // runs still match fully executed ones bit-for-bit (that is what
        // the records equality above proves).
        for r in &reports {
            assert_eq!(r.replays, 3, "one replay per re-timed memory variant");
            assert_eq!(r.replay_batches, 3, "one batched walk per schedule key");
        }
    }

    #[test]
    fn compile_cache_schedules_once_per_schedule_key() {
        let points = small_points();
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 4,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let report = run_sweep(&points, &opts, None).unwrap();
        // 3 lane values × 2 memory latencies = 6 points, but only the 3
        // lane values differ in schedule-relevant fields.
        assert_eq!(
            report.cache.misses, 3,
            "one schedule per (benchmark, schedule key)"
        );
        assert_eq!(report.cache.hits, 3);
    }

    #[test]
    fn panicking_points_are_reported_not_fatal() {
        // 48 KB with the default 4-way/32-byte geometry gives 384 sets —
        // not a power of two, so the cache model panics on construction.
        let points = SweepSpec::new()
            .axis(Axis::l1_size(&[48 * 1024, 16 * 1024]))
            .expand()
            .points;
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 2,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let report = run_sweep(&points, &opts, None).unwrap();
        assert_eq!(report.records.len(), 1, "the healthy point still completes");
        assert_eq!(report.errors.len(), 1);
        assert!(
            report.errors[0].1.contains("panicked"),
            "{:?}",
            report.errors
        );
    }

    #[test]
    fn failed_batch_falls_back_to_one_batch_per_job() {
        // One schedule key, three L1 sizes: 16 KB executes and records,
        // then 48 KB (384 sets, which the cache model rejects) panics the
        // batch it shares with 32 KB.  The per-job fallback must still
        // retime 32 KB, and exactly as a sweep without the bad point does.
        let run = |sizes: &[usize]| {
            let points = SweepSpec::new().axis(Axis::l1_size(sizes)).expand().points;
            let opts = ExecOptions {
                benchmarks: vec![Benchmark::GsmDec],
                workers: 1,
                progress: false,
                verify: false,
                profile_dir: None,
            };
            run_sweep(&points, &opts, None).unwrap()
        };
        let report = run(&[16 * 1024, 48 * 1024, 32 * 1024]);
        assert_eq!(report.errors.len(), 1, "{:?}", report.errors);
        assert!(
            report.errors[0].1.contains("panicked"),
            "{:?}",
            report.errors
        );
        assert_eq!(report.records.len(), 2, "16 KB and 32 KB still complete");
        assert_eq!(report.replay_batches, 0, "the shared batch failed");
        assert_eq!(report.replays, 1, "32 KB was retimed on its own");

        let clean = run(&[16 * 1024, 32 * 1024]);
        assert!(clean.errors.is_empty(), "{:?}", clean.errors);
        assert_eq!(clean.replay_batches, 1);
        assert_eq!(report.records, clean.records);
        assert_eq!(report.records[1].cycles, clean.records[1].cycles);
    }

    #[test]
    fn cache_geometry_sweep_runs_and_shares_one_schedule() {
        // Geometry variations (associativity, line size, bank count) are
        // memory-only: every point re-simulates the same single schedule.
        let points = SweepSpec::new()
            .axis(Axis::l2_assoc(&[4, 8]))
            .axis(Axis::l2_line(&[64, 128]))
            .axis(Axis::l2_banks(&[2, 4]))
            .expand()
            .points;
        assert_eq!(points.len(), 8);
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 2,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let report = run_sweep(&points, &opts, None).unwrap();
        assert!(report.errors.is_empty(), "{:?}", report.errors);
        assert_eq!(report.records.len(), 8);
        assert_eq!(report.cache.misses, 1, "one schedule for all geometries");
        // The whole key is one dispatch group: the first point executes
        // and records, the other seven retime the trace in a single
        // batched walk.
        assert_eq!(report.replays, points.len() - 1);
        assert_eq!(report.replay_batches, 1, "one fused walk for the group");
        assert!(report.records.iter().all(|r| r.check_ok));
        // Geometry must matter: not every point can have identical cycles.
        let cycles: std::collections::HashSet<u64> =
            report.records.iter().map(|r| r.cycles).collect();
        assert!(cycles.len() > 1, "geometry axes had no effect: {cycles:?}");
    }

    #[test]
    fn store_skips_already_completed_runs() {
        let mut path = std::env::temp_dir();
        path.push(format!("vmv_sweep_exec_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let store = ResultStore::open(&path);

        let points = small_points();
        let opts = ExecOptions {
            benchmarks: vec![Benchmark::GsmDec],
            workers: 2,
            progress: false,
            verify: false,
            profile_dir: None,
        };
        let first = run_sweep(&points, &opts, Some(&store)).unwrap();
        assert_eq!(first.records.len(), points.len());
        assert_eq!(first.skipped, 0);

        let second = run_sweep(&points, &opts, Some(&store)).unwrap();
        assert_eq!(second.records.len(), 0, "everything already persisted");
        assert_eq!(second.skipped, points.len());
        assert_eq!(second.cache.misses, 0, "skipped jobs never compile");

        // The store still holds exactly one record per job.
        assert_eq!(store.load().unwrap().len(), points.len());
        let _ = std::fs::remove_file(&path);
    }
}
