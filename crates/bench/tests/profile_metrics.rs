//! `sweep --metrics` span hygiene: rendering and writing the profile
//! documents is timed by its own span, one sample per document, outside
//! the simulate span; and a single-worker sweep, which never queues a job,
//! records no queue wait.

use std::path::Path;
use std::process::Command;

/// Run `sweep` with `args` plus `--metrics`, returning the snapshot.
fn sweep_metrics(dir: &Path, args: &[&str]) -> vmv_obs::Snapshot {
    let metrics = dir.join("m.json");
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(args)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("sweep runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    vmv_obs::Snapshot::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap()
}

#[test]
fn inline_sweep_records_zero_queue_wait() {
    let dir = std::env::temp_dir().join(format!("vmv_queue_wait_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("s.jsonl");
    let args = ["--demo", "--shard", "0/8", "--threads", "1", "--out"];
    let snap = sweep_metrics(&dir, &[&args[..], &[store.to_str().unwrap()]].concat());
    std::fs::remove_dir_all(&dir).ok();
    let wait = snap
        .span("job_queue_wait_ns")
        .expect("job_queue_wait_ns span");
    assert!(wait.count > 0, "one sample per job");
    assert_eq!(wait.sum, 0, "the inline path never queues a job");
}

#[test]
fn profile_writes_have_their_own_span() {
    let dir = std::env::temp_dir().join(format!("vmv_profile_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let store = dir.join("s.jsonl");
    let args = ["--demo", "--shard", "0/8", "--profile", "--out"];
    let snap = sweep_metrics(&dir, &[&args[..], &[store.to_str().unwrap()]].concat());
    std::fs::remove_dir_all(&dir).ok();
    let runs = snap.counter("profile_runs").unwrap();
    let writes = snap
        .span("profile_write_ns")
        .expect("profile_write_ns span");
    assert!(runs > 0);
    assert_eq!(
        writes.count, runs,
        "one profile_write_ns sample per document"
    );
    assert!(writes.sum > 0);
}
