//! Analysis & reporting driver over JSONL result stores.
//!
//! ```text
//! cargo run --release -p vmv-bench --bin report -- pareto \
//!     --store sweep_results.jsonl --md > pareto.md
//! cargo run --release -p vmv-bench --bin report -- sensitivity \
//!     --store sweep_results.jsonl --svg --out sensitivity.svg
//! cargo run --release -p vmv-bench --bin report -- compare \
//!     --store new.jsonl --baseline old.jsonl --max-regress 5
//! ```
//!
//! A headered store (written by `sweep --spec`/`--demo`) is self-contained:
//! the embedded spec is re-expanded into design points and every record is
//! decoded back to its axes by content-derived run key, so `pareto` and
//! `sensitivity` need nothing but the JSONL file.  `compare` joins two
//! stores by run key (works on legacy headerless stores too) and renders
//! the Table-2-style baseline-vs-variant view; `--max-regress PCT` turns it
//! into a CI gate that fails when any matched run is more than PCT percent
//! slower than the baseline.
//!
//! The report itself goes to stdout (or `--out`); diagnostics — malformed
//! store lines with line numbers, unmatched records, header warnings — go
//! to stderr, so redirected reports stay clean artifacts.

use std::collections::BTreeMap;
use std::path::Path;

use vmv_bench::args::{fail, ArgStream};
use vmv_report::{
    bench_trend_md, bench_trend_svg, compare, diff_specs, diff_specs_md, html, is_record_field,
    markdown, pareto_report, parse_filter, parse_trajectory, record_field, sensitivity,
    store_trend, svg, trend_md, trend_svg, BenchPoint, CompareRow, Filter, LoadedStore,
    ResolvedStore,
};

fn usage() {
    eprintln!(
        "usage: report pareto      --store X.jsonl [--md|--svg] [--filter axis=value ...]\n\
         \x20                       [--out PATH]\n\
         \x20      report sensitivity --store X.jsonl [--md|--svg] [--filter axis=value ...]\n\
         \x20                       [--out PATH]\n\
         \x20      report compare  --store X.jsonl --baseline Y.jsonl [--md]\n\
         \x20                       [--filter axis=value ...] [--group-by AXIS]\n\
         \x20                       [--max-regress PCT] [--out PATH]\n\
         \x20      report trend    --store A.jsonl --store B.jsonl ... and/or\n\
         \x20                       --bench BENCH_sim.json [--md|--svg] [--out PATH]\n\
         \x20      report diff-specs --store X.jsonl --baseline Y.jsonl [--out PATH]\n\
         \x20      report html     --store X.jsonl [--store ...] [--baseline Y.jsonl]\n\
         \x20                       [--bench BENCH_sim.json] [--profiles DIR] --out DIR\n\
         \x20      report profile  --store X.jsonl [--profiles DIR] [--run KEY]\n\
         \x20                       [--trace] [--out PATH]\n\
         \n\
         pareto          cost/cycles table (or scatter chart) with the Pareto\n\
         \x20               frontier marked; needs a headered store\n\
         sensitivity     per-axis cycle-swing table (or bar chart); needs a\n\
         \x20               headered store\n\
         compare         join --store against --baseline by content-derived\n\
         \x20               run key and report per-run speedups (headerless\n\
         \x20               stores work too)\n\
         trend           time series: per-run cycles across N stores of one\n\
         \x20               experiment (--store, repeatable, oldest first)\n\
         \x20               and/or the bench trajectory (--bench)\n\
         diff-specs      name the axis values the two store headers don't\n\
         \x20               share (why doesn't compare match my runs?)\n\
         html            one self-contained static page bundling pareto,\n\
         \x20               sensitivity, compare (with --baseline), trend\n\
         \x20               (with repeated --store / --bench); writes\n\
         \x20               DIR/index.html; picks up --profiles (or the\n\
         \x20               store's default profile directory) for a\n\
         \x20               Profile section\n\
         profile         cycle-attribution profiles from `sweep --profile`:\n\
         \x20               overview of every profiled run, one run's\n\
         \x20               worst-stall-first detail (--run KEY), or that\n\
         \x20               run's Chrome trace-event timeline (--run KEY\n\
         \x20               --trace; load at chrome://tracing or Perfetto)\n\
         --md / --svg    output format (default Markdown; compare is\n\
         \x20               Markdown-only)\n\
         --profiles DIR  profile directory (default: <store>.profiles)\n\
         --run KEY       one run key (16 hex digits, see the overview)\n\
         --trace         emit the Chrome trace JSON instead of Markdown\n\
         --filter a=v    keep only runs whose axis label or record field\n\
         \x20               matches (e.g. issue_width=2w, benchmark=GSM_DEC);\n\
         \x20               repeatable, conjunctive\n\
         --group-by AXIS group the compare summary by an axis instead of by\n\
         \x20               benchmark\n\
         --max-regress P exit 1 when any matched run is more than P percent\n\
         \x20               slower than the baseline\n\
         --bench PATH    bench trajectory JSON (BENCH_sim.json) for trend/html\n\
         --out PATH      write the report to PATH instead of stdout (a\n\
         \x20               directory for `report html`)"
    );
}

/// Load a store, printing its line diagnostics to stderr; a line over the
/// JSON limits rejects the whole file (exit 2).
fn load(path: &str) -> LoadedStore {
    let loaded = match LoadedStore::from_path(path) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    if let Some(d) = &loaded.refused {
        fail(format!("{path}:{d}"));
    }
    for d in &loaded.diagnostics {
        eprintln!("{path}:{d}");
    }
    loaded
}

/// Resolve a loaded store, printing warnings; exit 1 with the loader's
/// actionable message otherwise.
fn resolve(loaded: &LoadedStore) -> ResolvedStore {
    match ResolvedStore::resolve(loaded) {
        Ok(r) => {
            for w in &r.warnings {
                eprintln!("WARNING: {}: {w}", loaded.path.display());
            }
            if r.unmatched > 0 {
                eprintln!(
                    "WARNING: {}: {} records match no run of the header spec \
                     (merged from another experiment?); excluded",
                    loaded.path.display(),
                    r.unmatched
                );
            }
            r
        }
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    }
}

/// Load and parse a bench trajectory file (`BENCH_sim.json`).
fn load_bench(path: &str) -> Vec<BenchPoint> {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read {path}: {e}");
            std::process::exit(1);
        }
    };
    let doc = match vmv_sweep::Json::parse(&text) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    };
    match parse_trajectory(&doc) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
}

/// Header name if the store has one, file name otherwise.
fn display_name(loaded: &LoadedStore) -> String {
    match &loaded.header {
        Some(h) => h.name.clone(),
        None => loaded
            .path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "store".to_string()),
    }
}

fn emit(out_path: &Option<String>, content: &str) {
    match out_path {
        None => print!("{content}"),
        Some(path) => {
            if let Err(e) = std::fs::write(path, content) {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path}");
        }
    }
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Md,
    Svg,
}

fn main() {
    let mut args = ArgStream::new();
    let command = match args.next() {
        Some(c) => c,
        None => {
            usage();
            std::process::exit(2);
        }
    };
    match command.as_str() {
        "--help" | "-h" => {
            usage();
            return;
        }
        "pareto" | "sensitivity" | "compare" | "trend" | "diff-specs" | "html" | "profile" => {}
        other => fail(format!(
            "unknown command '{other}' (expected pareto, sensitivity, compare, \
             trend, diff-specs, html or profile)"
        )),
    }

    let mut store_paths: Vec<String> = Vec::new();
    let mut baseline_path: Option<String> = None;
    let mut bench_path: Option<String> = None;
    let mut format: Option<Format> = None;
    let mut filters: Vec<Filter> = Vec::new();
    let mut group_by: Option<String> = None;
    let mut max_regress: Option<f64> = None;
    let mut out_path: Option<String> = None;
    let mut profiles_path: Option<String> = None;
    let mut run_key: Option<String> = None;
    let mut trace = false;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--store" => store_paths.push(args.value("--store")),
            "--baseline" => baseline_path = Some(args.value("--baseline")),
            "--bench" => bench_path = Some(args.value("--bench")),
            "--profiles" => profiles_path = Some(args.value("--profiles")),
            "--run" => run_key = Some(args.value("--run")),
            "--trace" => trace = true,
            "--md" => format = Some(Format::Md),
            "--svg" => format = Some(Format::Svg),
            "--filter" => {
                let raw = args.value("--filter");
                match parse_filter(&raw) {
                    Ok(f) => filters.push(f),
                    Err(e) => fail(e.message),
                }
            }
            "--group-by" => group_by = Some(args.value("--group-by")),
            "--max-regress" => {
                let pct: f64 = args.parsed("--max-regress", "a regression budget in percent");
                if !(0.0..=100.0).contains(&pct) {
                    fail(format!(
                        "--max-regress expects a percentage in 0..=100, got '{pct}'"
                    ));
                }
                max_regress = Some(pct);
            }
            "--out" => out_path = Some(args.value("--out")),
            "--help" | "-h" => {
                usage();
                return;
            }
            other => fail(format!("unknown argument '{other}'")),
        }
    }
    let single_store = |paths: &[String]| -> String {
        match paths {
            [one] => one.clone(),
            [] => fail("--store is required"),
            _ => fail(format!("`report {command}` takes exactly one --store")),
        }
    };
    if (run_key.is_some() || trace) && command != "profile" {
        fail("--run/--trace only apply to `report profile`");
    }
    if profiles_path.is_some() && command != "profile" && command != "html" {
        fail("--profiles only applies to `report profile` and `report html`");
    }
    // The profile directory a profiled sweep wrote: --profiles, or the
    // store's default `<store>.profiles`.
    let profile_dir = |store_path: &str| -> std::path::PathBuf {
        match &profiles_path {
            Some(p) => std::path::PathBuf::from(p),
            None => vmv_sweep::default_profile_dir(Path::new(store_path)),
        }
    };

    match command.as_str() {
        "pareto" | "sensitivity" => {
            let store_path = single_store(&store_paths);
            if baseline_path.is_some() || max_regress.is_some() || group_by.is_some() {
                fail("--baseline/--max-regress/--group-by only apply to `report compare`");
            }
            let loaded = load(&store_path);
            let resolved = resolve(&loaded);
            let records = match resolved.filter_records(&filters) {
                Ok(r) => r,
                Err(e) => fail(e.message),
            };
            let name = resolved.spec.name.clone();
            let fingerprint = resolved.spec.fingerprint();
            let content = match (command.as_str(), format.unwrap_or(Format::Md)) {
                ("pareto", Format::Md) => markdown::pareto_md(
                    &name,
                    &fingerprint,
                    &pareto_report(&resolved.points, &records),
                ),
                ("pareto", Format::Svg) => svg::pareto_svg(
                    &format!("{name} — cost vs cycles"),
                    &pareto_report(&resolved.points, &records),
                ),
                ("sensitivity", Format::Md) => markdown::sensitivity_md(
                    &name,
                    &fingerprint,
                    &sensitivity(&resolved.points, &records),
                ),
                ("sensitivity", Format::Svg) => svg::sensitivity_svg(
                    &format!("{name} — per-axis swing"),
                    &sensitivity(&resolved.points, &records),
                ),
                _ => unreachable!(),
            };
            emit(&out_path, &content);
        }
        "compare" => {
            if format == Some(Format::Svg) {
                fail("`report compare` renders Markdown only");
            }
            let store_path = single_store(&store_paths);
            let baseline_path =
                baseline_path.unwrap_or_else(|| fail("compare needs --baseline Y.jsonl"));
            let loaded = load(&store_path);
            let baseline = load(&baseline_path);
            let mut records = loaded.records.clone();
            let mut baseline_records = baseline.records.clone();

            // Record-field filters and group-bys (benchmark/variant/model/
            // config are right on the records and rows) keep working on
            // legacy headerless stores; spec-axis filters and group-bys
            // decode run keys, which needs the store's header spec.
            let needs_resolve = filters.iter().any(|f| !is_record_field(&f.axis))
                || group_by.as_deref().is_some_and(|g| !is_record_field(g));
            let resolved = needs_resolve.then(|| resolve(&loaded));
            if let Some(resolved) = &resolved {
                for f in &filters {
                    if let Err(e) = resolved.check_axis(&f.axis) {
                        fail(e.message);
                    }
                }
            }
            if !filters.is_empty() {
                let keep = |r: &vmv_sweep::RunRecord| {
                    filters.iter().all(|f| {
                        if is_record_field(&f.axis) {
                            record_field(r, &f.axis) == Some(f.value.as_str())
                        } else {
                            resolved
                                .as_ref()
                                .and_then(|res| res.key_axis_value(&r.key, &f.axis))
                                .as_deref()
                                == Some(f.value.as_str())
                        }
                    })
                };
                records.retain(|r| keep(r));
                baseline_records.retain(|r| keep(r));
            }

            let report = compare(&records, &baseline_records);
            let group_axis = group_by.unwrap_or_else(|| "benchmark".to_string());
            let groups: BTreeMap<String, Vec<CompareRow>> =
                match markdown::rows_by_field(&report.rows, &group_axis) {
                    Some(groups) => groups,
                    None => {
                        let resolved = resolved.as_ref().expect("resolved above for axis group-by");
                        if let Err(e) = resolved.check_axis(&group_axis) {
                            fail(e.message);
                        }
                        let mut groups: BTreeMap<String, Vec<CompareRow>> = BTreeMap::new();
                        for row in &report.rows {
                            if let Some(v) = resolved.key_axis_value(&row.key, &group_axis) {
                                groups.entry(v).or_default().push(row.clone());
                            }
                        }
                        groups
                    }
                };
            let content = markdown::compare_md(
                &display_name(&loaded),
                &display_name(&baseline),
                &report,
                &group_axis,
                &groups,
            );
            emit(&out_path, &content);

            if let Some(budget) = max_regress {
                let worst = report.worst_regression_pct();
                if worst > budget {
                    eprintln!(
                        "FAIL: worst regression {worst:.2}% exceeds --max-regress {budget:.2}% \
                         ({} of {} matched runs regressed)",
                        report.regressions,
                        report.rows.len()
                    );
                    std::process::exit(1);
                }
                eprintln!(
                    "regression gate ok: worst {worst:.2}% within --max-regress {budget:.2}% \
                     ({} matched runs)",
                    report.rows.len()
                );
            }
        }
        "trend" => {
            if baseline_path.is_some() || max_regress.is_some() || group_by.is_some() {
                fail("--baseline/--max-regress/--group-by only apply to `report compare`");
            }
            let points: Option<Vec<BenchPoint>> = bench_path.as_deref().map(load_bench);
            if store_paths.is_empty() && points.is_none() {
                fail("trend needs --store (repeatable, oldest first) and/or --bench");
            }
            if store_paths.len() == 1 {
                fail("a trend over stores needs at least two --store flags (oldest first)");
            }
            let loaded: Vec<LoadedStore> = store_paths.iter().map(|p| load(p)).collect();
            let refs: Vec<&LoadedStore> = loaded.iter().collect();
            let t = (!refs.is_empty()).then(|| store_trend(&refs));
            let content = match format.unwrap_or(Format::Md) {
                Format::Md => {
                    let mut content = String::new();
                    if let Some(t) = &t {
                        content.push_str(&trend_md(t));
                    }
                    if let Some(p) = &points {
                        if !content.is_empty() {
                            content.push('\n');
                        }
                        content.push_str(&bench_trend_md(p));
                    }
                    content
                }
                Format::Svg => match (&t, &points) {
                    (Some(t), None) => trend_svg(t),
                    (None, Some(p)) => bench_trend_svg(p),
                    _ => fail(
                        "--svg renders one chart: pass either --store flags or \
                         --bench, not both",
                    ),
                },
            };
            emit(&out_path, &content);
        }
        "diff-specs" => {
            if format == Some(Format::Svg) {
                fail("`report diff-specs` renders Markdown only");
            }
            let store_path = single_store(&store_paths);
            let baseline_path =
                baseline_path.unwrap_or_else(|| fail("diff-specs needs --baseline Y.jsonl"));
            let loaded = load(&store_path);
            let baseline = load(&baseline_path);
            fn header(l: &LoadedStore) -> &vmv_sweep::StoreHeader {
                l.header.as_ref().unwrap_or_else(|| {
                    fail(format!(
                        "{}: headerless store — diff-specs needs the spec header \
                         (rerun the sweep with --spec/--demo)",
                        l.path.display()
                    ))
                })
            }
            let d = diff_specs(header(&loaded), header(&baseline));
            emit(&out_path, &diff_specs_md(&d));
        }
        "profile" => {
            if format == Some(Format::Svg) {
                fail("`report profile` renders Markdown or --trace JSON");
            }
            let store_path = single_store(&store_paths);
            let dir = profile_dir(&store_path);
            if !dir.is_dir() {
                fail(format!(
                    "no profile directory {} — rerun the sweep with --profile",
                    dir.display()
                ));
            }
            let content = match &run_key {
                Some(key) => {
                    let doc = vmv_sweep::load_profile(&dir, key).unwrap_or_else(|e| fail(e));
                    if trace {
                        vmv_report::chrome_trace(&doc)
                    } else {
                        vmv_report::profile_detail_md(&doc)
                    }
                }
                None => {
                    if trace {
                        fail("--trace renders one run's timeline: pass --run KEY");
                    }
                    let docs = vmv_sweep::load_all_profiles(&dir).unwrap_or_else(|e| fail(e));
                    if docs.is_empty() {
                        fail(format!("{}: no profile documents", dir.display()));
                    }
                    let title = Path::new(&store_path)
                        .file_name()
                        .map(|n| n.to_string_lossy().into_owned())
                        .unwrap_or_else(|| store_path.clone());
                    vmv_report::profile_overview_md(&title, &docs)
                }
            };
            emit(&out_path, &content);
        }
        "html" => {
            let out_dir = out_path.unwrap_or_else(|| fail("`report html` needs --out DIR"));
            if store_paths.is_empty() {
                fail("--store is required");
            }
            let loaded: Vec<LoadedStore> = store_paths.iter().map(|p| load(p)).collect();
            // The newest store (last --store) drives pareto/sensitivity;
            // the full sequence drives the trend section.
            let newest = loaded.last().expect("non-empty checked above");
            let resolved = resolve(newest);
            let records = match resolved.filter_records(&filters) {
                Ok(r) => r,
                Err(e) => fail(e.message),
            };
            let name = resolved.spec.name.clone();
            let mut sections = Vec::new();
            sections.push(html::pareto_section(
                &name,
                &pareto_report(&resolved.points, &records),
            ));
            sections.push(html::sensitivity_section(
                &name,
                &sensitivity(&resolved.points, &records),
            ));
            if let Some(bp) = &baseline_path {
                let baseline = load(bp);
                let report = compare(&newest.records, &baseline.records);
                let groups = markdown::rows_by_field(&report.rows, "benchmark")
                    .expect("benchmark is a record field");
                sections.push(html::compare_section(
                    &display_name(&baseline),
                    &report,
                    &groups,
                ));
            }
            if loaded.len() >= 2 {
                let refs: Vec<&LoadedStore> = loaded.iter().collect();
                sections.push(html::trend_section(&store_trend(&refs)));
            }
            if let Some(bp) = bench_path.as_deref() {
                sections.push(html::bench_section(&load_bench(bp)));
            }
            // A profiled sweep left vmv-profile/1 documents next to the
            // newest store (or wherever --profiles points): add the
            // Profile section.
            let dir = profile_dir(store_paths.last().expect("non-empty checked above"));
            if dir.is_dir() {
                match vmv_sweep::load_all_profiles(&dir) {
                    Ok(docs) if !docs.is_empty() => sections.push(html::profile_section(&docs)),
                    Ok(_) => {}
                    Err(e) => eprintln!("WARNING: {e}"),
                }
            }
            let subtitle = format!("spec {name} — fingerprint {}", resolved.spec.fingerprint());
            let page = html::page(&format!("vmv observatory — {name}"), &subtitle, &sections);
            let dir = Path::new(&out_dir);
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("cannot create {out_dir}: {e}");
                std::process::exit(1);
            }
            let index = dir.join("index.html");
            if let Err(e) = std::fs::write(&index, &page) {
                eprintln!("cannot write {}: {e}", index.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", index.display());
        }
        _ => unreachable!(),
    }
}
