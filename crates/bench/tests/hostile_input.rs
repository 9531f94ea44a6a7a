//! Hostile input through the command-line front ends: JSON nested far
//! deeper than any document the tools write must be refused with exit
//! status 2 and exactly one `error:` line, never a stack overflow; a sweep
//! whose runs fail must exit non-zero, never 0 with an empty store.

use std::path::PathBuf;
use std::process::Command;

/// Nesting deep enough to overflow the stack of an unbounded recursive
/// descent.
const DEPTH: usize = 200_000;

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("vmv_hostile_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, contents).unwrap();
    path
}

/// Run a binary and require exit 2 with one `error:` line naming the
/// nesting limit.
fn assert_refused(bin: &str, args: &[&str]) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let errors: Vec<_> = stderr.lines().filter(|l| l.starts_with("error:")).collect();
    assert_eq!(errors.len(), 1, "{args:?}: {stderr}");
    assert!(errors[0].contains("deeper than"), "{}", errors[0]);
}

#[test]
fn deeply_nested_spec_is_a_usage_error() {
    let spec = temp_file("deep_spec.json", &"[".repeat(DEPTH));
    assert_refused(
        env!("CARGO_BIN_EXE_sweep"),
        &["--spec", spec.to_str().unwrap(), "--check"],
    );
    std::fs::remove_file(spec).ok();
}

#[test]
fn deeply_nested_store_line_is_refused_by_report() {
    let store = temp_file("deep_store.jsonl", &format!("{}\n", "[".repeat(DEPTH)));
    assert_refused(
        env!("CARGO_BIN_EXE_report"),
        &["pareto", "--store", store.to_str().unwrap()],
    );
    std::fs::remove_file(store).ok();
}

#[test]
fn sweep_with_failed_runs_exits_non_zero() {
    // A 3-way L1 is a geometry the cache model cannot build, so the one
    // run of this spec fails.
    let spec = temp_file(
        "infeasible_assoc.json",
        r#"{"name": "infeasible_assoc", "axes": [
            {"axis": "l1_assoc", "values": [3]},
            {"axis": "benchmarks", "values": ["GSM_DEC"]}]}"#,
    );
    let store = spec.with_extension("jsonl");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--spec", spec.to_str().unwrap()])
        .args(["--out", store.to_str().unwrap(), "--threads", "1"])
        .output()
        .expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(
        stderr
            .lines()
            .any(|l| l.starts_with("FAILED: GSM_DEC on l1a3")),
        "{stderr}"
    );
    std::fs::remove_file(spec).ok();
    std::fs::remove_file(store).ok();
}
