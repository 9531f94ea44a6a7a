//! `sweep --profile --metrics`: rendering and writing the profile
//! documents is timed by its own span, one sample per document, outside
//! the simulate span.

use std::process::Command;

#[test]
fn profile_writes_have_their_own_span() {
    let dir = std::env::temp_dir().join(format!("vmv_profile_metrics_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let (store, metrics) = (dir.join("s.jsonl"), dir.join("m.json"));
    let out = Command::new(env!("CARGO_BIN_EXE_sweep"))
        .args(["--demo", "--shard", "0/8", "--profile", "--out"])
        .arg(&store)
        .arg("--metrics")
        .arg(&metrics)
        .output()
        .expect("sweep runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap = vmv_obs::Snapshot::parse(&std::fs::read_to_string(&metrics).unwrap()).unwrap();
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
