//! Design-space exploration driver, driven by declarative spec files.
//!
//! ```text
//! cargo run --release -p vmv-bench --bin sweep -- --demo
//! cargo run --release -p vmv-bench --bin sweep -- --print-spec > demo.json
//! cargo run --release -p vmv-bench --bin sweep -- --spec demo.json \
//!     --threads 4 --out sweep_results.jsonl --json BENCH_sweep.json
//! cargo run --release -p vmv-bench --bin sweep -- \
//!     --spec examples/specs/latency_tolerance.json
//! cargo run --release -p vmv-bench --bin sweep -- --merge shard1.jsonl \
//!     shard2.jsonl --out merged.jsonl
//! cargo run --release -p vmv-bench --bin sweep -- --compact --out merged.jsonl
//! ```
//!
//! A sweep is described by a JSON **spec file** (axes, constraints,
//! execution defaults — see the `vmv_sweep::specfile` docs and
//! `examples/specs/`), not by Rust code: `--spec FILE` parses, validates and
//! runs it; `--print-spec` emits the canonical serialization (of `--spec
//! FILE` when given, of the built-in demo spec otherwise); `--fingerprint`
//! prints the 16-hex-digit content hash of the experiment definition; and
//! `--demo` is sugar for running the embedded demo spec (112 distinct
//! machines, GSM pair, lane-budget constraint).  Every spec-driven result
//! store opens with a spec-header line naming that fingerprint, so a JSONL
//! file alone says which experiment it answers; re-running with the same
//! `--out` skips every completed run key.
//!
//! `--merge` unions JSONL shard files (e.g. from per-machine distributed
//! sweeps) into `--out` by content-derived run key, warning when shard
//! spec headers disagree; `--compact` drops superseded duplicate keys from
//! `--out` and rewrites it sorted by key, preserving the header.

use vmv_bench::args::{fail, ArgStream};
use vmv_sweep::{
    pareto_report, render_pareto, render_sensitivity, schedule_fingerprint, sensitivity,
    shard_points, ExecOptions, Json, ResultStore, SpecFile,
};

fn usage() {
    eprintln!(
        "usage: sweep --spec FILE.json | --demo  [--threads N] [--shard I/N]\n\
         \x20            [--out RESULTS.jsonl] [--json BENCH.json]\n\
         \x20      sweep --spec FILE.json --check\n\
         \x20      sweep --print-spec [--spec FILE.json]\n\
         \x20      sweep --fingerprint [--spec FILE.json]\n\
         \x20      sweep --merge SHARD.jsonl [SHARD.jsonl ...] --out RESULTS.jsonl\n\
         \x20      sweep --compact --out RESULTS.jsonl\n\
         \n\
         --spec FILE     run the sweep described by a declarative JSON spec\n\
         \x20               file (axes + constraints + defaults; see\n\
         \x20               examples/specs/)\n\
         --demo          run the built-in demonstration spec\n\
         --check         lint the spec, then compile and statically certify\n\
         \x20               every distinct schedule it reaches — no execution;\n\
         \x20               exits 2 when any error diagnostic is found\n\
         --verify        certify every freshly compiled schedule with the\n\
         \x20               static verifier during the sweep (debug builds\n\
         \x20               always do)\n\
         --print-spec    print the canonical JSON serialization of the spec\n\
         \x20               (the demo spec without --spec) and exit\n\
         --fingerprint   print the spec's 16-hex content fingerprint and exit\n\
         --shard I/N     run only design points with index = I (mod N) of the\n\
         \x20               deduplicated expansion (deterministic, so N\n\
         \x20               machines with I = 0..N-1 partition the sweep; the\n\
         \x20               per-shard result files compose with --merge)\n\
         --merge SHARDS  union shard files into --out by content-derived\n\
         \x20               run key (first occurrence of a key wins; warns\n\
         \x20               when shard spec headers disagree)\n\
         --compact       drop superseded duplicate keys from --out and\n\
         \x20               rewrite it sorted by key (spec header preserved)\n\
         --threads N     worker threads (default: spec file, else one per\n\
         \x20               core, max 16)\n\
         --out PATH      JSONL result store (default: spec file, else\n\
         \x20               sweep_results.jsonl); completed run keys found\n\
         \x20               there are skipped\n\
         --json PATH     also write a BENCH-style JSON artifact (wall clock,\n\
         \x20               cache counters, per-run cycles)\n\
         --metrics PATH  enable the pipeline recorder and write its snapshot\n\
         \x20               (counters, span histograms, per-worker load) as\n\
         \x20               canonical JSON after the sweep\n\
         --profile [DIR] write one vmv-profile/1 cycle-attribution document\n\
         \x20               per completed run into DIR (default:\n\
         \x20               <out>.profiles/); render with `report profile`\n\
         --progress      ~1 Hz heartbeat on stderr: done/total runs, runs/s,\n\
         \x20               cache hit rate, ETA"
    );
}

fn main() {
    let mut demo = false;
    let mut spec_path: Option<String> = None;
    let mut print_spec = false;
    let mut print_fingerprint = false;
    let mut compact = false;
    let mut merge_shards: Option<Vec<String>> = None;
    let mut shard: Option<(usize, usize)> = None;
    let mut threads: Option<usize> = None;
    let mut out_flag: Option<String> = None;
    let mut json_path: Option<String> = None;
    let mut metrics_path: Option<String> = None;
    let mut progress = false;
    let mut check = false;
    let mut verify = false;
    // None = off; Some(None) = default dir next to the store;
    // Some(Some(dir)) = explicit directory.
    let mut profile: Option<Option<String>> = None;

    let mut args = ArgStream::new();
    let mut any = false;
    while let Some(arg) = args.next() {
        any = true;
        match arg.as_str() {
            "--demo" => demo = true,
            "--spec" => spec_path = Some(args.value("--spec")),
            "--print-spec" => print_spec = true,
            "--fingerprint" => print_fingerprint = true,
            "--compact" => compact = true,
            "--merge" => {
                let mut shards = Vec::new();
                while let Some(next) = args.peek() {
                    if next.starts_with("--") {
                        break;
                    }
                    shards.push(args.next().unwrap());
                }
                if shards.is_empty() {
                    fail("--merge needs at least one shard file");
                }
                merge_shards = Some(shards);
            }
            "--shard" => shard = Some(args.shard("--shard")),
            "--threads" => threads = Some(args.parsed("--threads", "a non-negative thread count")),
            "--out" => out_flag = Some(args.value("--out")),
            "--json" => json_path = Some(args.value("--json")),
            "--metrics" => metrics_path = Some(args.value("--metrics")),
            "--profile" => {
                profile = Some(match args.peek() {
                    Some(next) if !next.starts_with("--") => Some(args.next().unwrap()),
                    _ => None,
                });
            }
            "--progress" => progress = true,
            "--check" => check = true,
            "--verify" => verify = true,
            "--help" | "-h" => {
                usage();
                return;
            }
            other => fail(format!("unknown argument '{other}'")),
        }
    }
    if !any {
        usage();
        std::process::exit(2);
    }

    // Resolve the spec: --spec and --demo are mutually exclusive; bare
    // --print-spec / --fingerprint use the embedded demo spec.
    if demo && spec_path.is_some() {
        fail("--demo and --spec are mutually exclusive (use one experiment definition)");
    }
    let spec: Option<SpecFile> = match &spec_path {
        Some(path) => {
            let text = match std::fs::read_to_string(path) {
                Ok(t) => t,
                Err(e) => fail(format!("cannot read spec file {path}: {e}")),
            };
            match SpecFile::parse(&text) {
                Ok(s) => Some(s),
                Err(e) => fail(format!("spec file {path}: {e}")),
            }
        }
        None if demo || print_spec || print_fingerprint => Some(SpecFile::demo()),
        None => None,
    };

    if print_spec || print_fingerprint {
        let spec = spec.expect("resolved above");
        if print_fingerprint {
            println!("{}", spec.fingerprint());
        } else {
            println!("{}", spec.canonical().render_pretty());
        }
        return;
    }

    let out_path = out_flag
        .or_else(|| spec.as_ref().and_then(|s| s.defaults.out.clone()))
        .unwrap_or_else(|| "sweep_results.jsonl".to_string());

    if let Some(shards) = merge_shards {
        let store = ResultStore::open(&out_path);
        match store.merge_from(&shards) {
            Ok(stats) => {
                // Name each disagreeing shard precisely: the merge itself
                // tracked them against the reference header it adopted.
                if let Some(reference) = &stats.reference_header {
                    for (path, shard_header) in &stats.mismatched_shards {
                        eprintln!(
                            "WARNING: {} was produced by spec '{}' (fingerprint {}), \
                             not '{}' ({})",
                            path.display(),
                            shard_header.name,
                            shard_header.fingerprint,
                            reference.name,
                            reference.fingerprint
                        );
                    }
                }
                println!(
                    "merged {} shard files into {out_path}: {} records appended, \
                     {} duplicate keys skipped ({} scanned, {} already present)",
                    shards.len(),
                    stats.merged,
                    stats.duplicates,
                    stats.scanned,
                    stats.existing
                );
            }
            Err(e) => {
                eprintln!("merge failed: {e}");
                std::process::exit(1);
            }
        }
        if spec.is_none() && !compact {
            return;
        }
    }
    if compact {
        let store = ResultStore::open(&out_path);
        match store.compact() {
            Ok(stats) => println!(
                "compacted {out_path}: {} records kept (sorted by key), {} superseded \
                 duplicates dropped",
                stats.kept, stats.dropped
            ),
            Err(e) => {
                eprintln!("compact failed: {e}");
                std::process::exit(1);
            }
        }
        if spec.is_none() {
            return;
        }
    }
    let spec = match spec {
        Some(s) => s,
        None => {
            usage();
            std::process::exit(2);
        }
    };

    // Pre-flight: lint + compile + static certification, no execution.
    if check {
        let result = vmv_sweep::check_spec(&spec);
        for d in &result.diagnostics {
            eprintln!("{d}");
        }
        println!(
            "checked spec '{}': {} design points, {} schedules certified, {} diagnostic(s)",
            spec.name,
            result.points,
            result.schedules,
            result.diagnostics.len()
        );
        if vmv_verify::has_errors(&result.diagnostics) {
            std::process::exit(2);
        }
        return;
    }

    let fingerprint = spec.fingerprint();
    let lowered = match spec.lower() {
        Ok(l) => l,
        Err(e) => fail(format!("spec: {e}")),
    };
    let threads = threads.or(spec.defaults.threads).unwrap_or(0);
    let shard = shard.or(spec.defaults.shard);
    let benchmarks = lowered.benchmarks.clone();

    println!("spec '{}' (fingerprint {fingerprint})", spec.name);
    let expansion = lowered.spec.expand();
    println!(
        "expanded {} design points ({} raw, {} rejected by constraints, {} duplicates)",
        expansion.points.len(),
        expansion.raw,
        expansion.rejected,
        expansion.duplicates
    );
    let points = match shard {
        Some((i, n)) => {
            let part = shard_points(&expansion.points, i, n);
            println!(
                "shard {i}/{n}: running {} of {} design points",
                part.len(),
                expansion.points.len()
            );
            part
        }
        None => expansion.points,
    };

    // How many schedules the compile cache should perform if it memoizes
    // perfectly: one per (benchmark, distinct schedule fingerprint).
    let distinct_schedule_keys: std::collections::HashSet<String> = points
        .iter()
        .map(|p| schedule_fingerprint(&p.machine))
        .collect();
    let expected_schedules = distinct_schedule_keys.len() * benchmarks.len();

    let store = ResultStore::with_header(&out_path, spec.store_header());
    match store.read_header() {
        Ok(Some(existing)) if existing.fingerprint != fingerprint => eprintln!(
            "WARNING: {out_path} was created by spec '{}' (fingerprint {}); runs of both \
             specs will coexist in it",
            existing.name, existing.fingerprint
        ),
        _ => {}
    }
    // The recorder is process-global and off by default; --metrics turns it
    // on for the whole sweep so the snapshot covers compile, simulate,
    // store appends and per-worker load.
    if metrics_path.is_some() {
        vmv_obs::set_enabled(true);
    }
    let mut opts = ExecOptions::for_spec(&lowered, threads);
    opts.progress = progress;
    opts.verify = verify;
    let profile_dir = profile.map(|dir| match dir {
        Some(d) => std::path::PathBuf::from(d),
        None => vmv_sweep::default_profile_dir(std::path::Path::new(&out_path)),
    });
    opts.profile_dir = profile_dir.clone();
    let report = match vmv_sweep::run_sweep(&points, &opts, Some(&store)) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("sweep failed: {e}");
            std::process::exit(1);
        }
    };

    println!(
        "ran {} simulations in {:.2}s ({} skipped as already completed in {})",
        report.records.len(),
        report.wall_seconds,
        report.skipped,
        out_path
    );
    println!(
        "compile cache: {} schedules, {} hits (expected at most {} schedules = \
         benchmarks x distinct schedule keys)",
        report.cache.misses, report.cache.hits, expected_schedules
    );
    if report.replays > 0 {
        println!(
            "trace replay: {} of {} runs re-timed from a recorded trace \
             (executed {}, {} batched walks)",
            report.replays,
            report.records.len(),
            report.records.len().saturating_sub(report.replays),
            report.replay_batches
        );
    }
    if let Some(dir) = &profile_dir {
        println!(
            "profiles: wrote {} cycle-attribution documents to {}",
            report.records.len(),
            dir.display()
        );
    }
    if !report.records.is_empty() && report.wall_seconds > 0.0 {
        // Simulator throughput over this invocation's parallel phase: the
        // CI smoke step surfaces this line so hot-path regressions are
        // visible in plain build logs.
        let simulated: u64 = report.records.iter().map(|r| r.cycles).sum();
        println!(
            "sim throughput: {simulated} simulated cycles / {:.3} s = {:.0} \
             simulated-cycles-per-second",
            report.wall_seconds,
            simulated as f64 / report.wall_seconds
        );
    }
    if report.skipped == 0 && report.cache.misses as usize != expected_schedules {
        eprintln!(
            "WARNING: schedule count {} != expected {} — compile memoization regressed",
            report.cache.misses, expected_schedules
        );
    }
    for (job, err) in &report.errors {
        eprintln!("FAILED: {job}: {err}");
    }

    // Analyses run over the *whole* store, so an incremental invocation
    // still reports the full picture.  Filter by the expansion's run keys:
    // the store may also hold runs from other sweeps (or from older
    // parameter defaults) whose design points merely share a display name.
    let expected_keys: std::collections::HashSet<String> =
        vmv_sweep::store::point_key_index(&points, &benchmarks)
            .into_keys()
            .collect();
    let all_records: Vec<_> = match store.load() {
        Ok(r) => r
            .into_iter()
            .filter(|r| expected_keys.contains(&r.key))
            .collect(),
        Err(e) => {
            eprintln!("cannot re-read {out_path}: {e}");
            std::process::exit(1);
        }
    };
    let failed = all_records.iter().filter(|r| !r.check_ok).count();
    if failed > 0 {
        eprintln!("WARNING: {failed} stored runs failed their output checks");
    }

    println!(
        "\nPareto frontier (total cycles over {} benchmarks vs. hardware cost):",
        benchmarks.len()
    );
    let entries = pareto_report(&points, &all_records);
    print!("{}", render_pareto(&entries, 20));

    println!("\nPer-axis sensitivity (cycle swing with all other axes held fixed):");
    print!(
        "{}",
        render_sensitivity(&sensitivity(&points, &all_records))
    );

    if let Some(path) = json_path {
        let artifact = Json::Obj(vec![
            ("name".into(), Json::str(format!("sweep_{}", spec.name))),
            ("spec_fingerprint".into(), Json::str(&fingerprint)),
            ("wall_seconds".into(), Json::Num(report.wall_seconds)),
            ("points".into(), Json::u64(points.len() as u64)),
            ("runs".into(), Json::u64(report.records.len() as u64)),
            ("skipped".into(), Json::u64(report.skipped as u64)),
            ("schedules".into(), Json::u64(report.cache.misses)),
            ("cache_hits".into(), Json::u64(report.cache.hits)),
            ("trace_replays".into(), Json::u64(report.replays as u64)),
            (
                "replay_batches".into(),
                Json::u64(report.replay_batches as u64),
            ),
            (
                "per_run".into(),
                Json::Arr(
                    all_records
                        .iter()
                        .map(|r| {
                            Json::Obj(vec![
                                ("key".into(), Json::str(&r.key)),
                                ("config".into(), Json::str(&r.config)),
                                ("benchmark".into(), Json::str(&r.benchmark)),
                                ("cycles".into(), Json::u64(r.cycles)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ]);
        if let Err(e) = std::fs::write(&path, artifact.render() + "\n") {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        println!("\nwrote benchmark artifact to {path}");
    }

    if let Some(path) = metrics_path {
        let snap = vmv_obs::snapshot();
        if let Err(e) = std::fs::write(&path, snap.to_json().render_pretty() + "\n") {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1);
        }
        match snap.cache_hit_rate() {
            Some(rate) => println!(
                "wrote metrics snapshot to {path} (cache hit rate {:.1}%)",
                rate * 100.0
            ),
            None => println!("wrote metrics snapshot to {path}"),
        }
    }

    // Every report above still covers the runs that completed, but a sweep
    // with failed runs is a failed sweep: the exit status must say so.
    if !report.errors.is_empty() {
        eprintln!(
            "sweep failed: {} run(s) could not be simulated (FAILED lines above)",
            report.errors.len()
        );
        std::process::exit(1);
    }
}
