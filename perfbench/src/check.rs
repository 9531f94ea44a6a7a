//! Output correctness: store rows against the sweep's records, profile
//! documents against their rows, an oracle re-simulation of a seeded
//! sample, and the digest of all simulated statistics.

use std::collections::HashMap;
use std::sync::Arc;

use vmv_core::{prepare, simulate_fresh, Prepared, RunOutcome};
use vmv_kernels::Benchmark;
use vmv_sim::RunStats;
use vmv_sweep::cache::CacheKey;
use vmv_sweep::{run_key, CompileCache, ProfileDoc, RunRecord, SweepPoint};

use crate::workload::Rng;

/// Runs attempted and failed, plus the first few failure messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }
}

/// The store row a completed run must produce (the executor's mapping).
pub fn record_of(
    key: String,
    point: &SweepPoint,
    benchmark: Benchmark,
    outcome: &RunOutcome,
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

pub fn key_of(point: &SweepPoint, benchmark: Benchmark) -> String {
    run_key(
        benchmark,
        vmv_core::variant_for(&point.machine),
        &point.machine,
        point.model,
    )
}

/// FNV-1a over every row's simulated statistics, in store order.
pub fn stats_digest(rows: &[RunRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in rows {
        eat(r.key.as_bytes());
        for v in [
            r.cycles,
            r.stall_cycles,
            r.operations,
            r.micro_ops,
            r.vector_cycles,
        ] {
            eat(&v.to_le_bytes());
        }
        eat(&[r.check_ok as u8]);
    }
    h
}

/// Every job must have a completed record, every record its store row and
/// a clean output check.  `errors` are the jobs the sweep reported failed.
pub fn check_rows(
    expected_runs: usize,
    records: &[RunRecord],
    errors: &[(String, String)],
    stored: &[RunRecord],
    tally: &mut Tally,
) {
    tally.attempted += expected_runs as u64;
    for (job, e) in errors {
        tally.fail(format!("{job}: {e}"));
    }
    let missing = expected_runs.saturating_sub(records.len() + errors.len());
    for _ in 0..missing {
        tally.fail("job produced neither a record nor an error".to_string());
    }
    check_stored(records, stored, tally);
}

/// Every completed run must have an identical store row and a clean
/// output check.
pub fn check_stored(records: &[RunRecord], stored: &[RunRecord], tally: &mut Tally) {
    let by_key: HashMap<&str, &RunRecord> = stored.iter().map(|r| (r.key.as_str(), r)).collect();
    for r in records {
        match by_key.get(r.key.as_str()) {
            None => tally.fail(format!("{}: no store row", r.key)),
            Some(row) if *row != r => {
                tally.fail(format!("{}: store row differs from the run", r.key))
            }
            Some(_) if !r.check_ok => tally.fail(format!("{}: output check failed", r.key)),
            Some(_) => {}
        }
    }
}

/// Every row must have a profile document whose attributed cycles sum
/// exactly to the row's cycles.
pub fn check_profiles(records: &[RunRecord], docs: &[ProfileDoc], tally: &mut Tally) {
    let by_key: HashMap<&str, &ProfileDoc> =
        docs.iter().map(|d| (d.meta.key.as_str(), d)).collect();
    for r in records {
        match by_key.get(r.key.as_str()) {
            None => tally.fail(format!("{}: no profile document", r.key)),
            Some(d) => {
                let attributed: u64 = d.causes.iter().sum();
                if d.cycles != r.cycles || attributed != r.cycles {
                    tally.fail(format!(
                        "{}: profile attributes {attributed} of {} cycles (row has {})",
                        r.key, d.cycles, r.cycles
                    ));
                }
            }
        }
    }
}

/// What a traced run adds to the oracle comparison: the full statistics of
/// each run and the program the benchmark compiled layer by layer.
pub struct TracedOutputs {
    pub stats: HashMap<String, RunStats>,
    pub prepared: HashMap<CacheKey, Arc<Prepared>>,
}

/// Re-simulate a seeded sample of `sample` runs from scratch — a fresh
/// `prepare` and the lowered engine, which never replays — and require the
/// stored row (and, from a traced run, the full statistics and the compiled
/// program) to match.  Every sampled schedule must also certify cleanly.
pub fn oracle(
    points: &[SweepPoint],
    benchmarks: &[Benchmark],
    stored: &[RunRecord],
    traced: Option<&TracedOutputs>,
    sample: usize,
    seed: u64,
    tally: &mut Tally,
) {
    let by_key: HashMap<&str, &RunRecord> = stored.iter().map(|r| (r.key.as_str(), r)).collect();
    let jobs: Vec<(usize, Benchmark)> = (0..points.len())
        .flat_map(|p| benchmarks.iter().map(move |&b| (p, b)))
        .collect();
    let picked = Rng::new(seed ^ 0x000d_ac1e)
        .choose(&(0..jobs.len()).collect::<Vec<_>>(), sample.min(jobs.len()));
    for j in picked {
        let (p, benchmark) = jobs[j];
        let point = &points[p];
        let key = key_of(point, benchmark);
        tally.attempted += 1;
        let fresh = match prepare(benchmark, &point.machine) {
            Ok(f) => f,
            Err(e) => {
                tally.fail(format!("{key}: oracle prepare: {e}"));
                continue;
            }
        };
        let diags =
            vmv_verify::verify_compiled(&fresh.compiled.program, &fresh.lowered, &point.machine);
        if vmv_verify::has_errors(&diags) {
            tally.fail(format!("{key}: schedule has verifier errors"));
            continue;
        }
        let outcome = match simulate_fresh(&fresh, &point.machine, point.model) {
            Ok(o) => o,
            Err(e) => {
                tally.fail(format!("{key}: oracle simulate: {e}"));
                continue;
            }
        };
        if !outcome.check_failures.is_empty() {
            tally.fail(format!("{key}: oracle output check failed"));
            continue;
        }
        let expected = record_of(key.clone(), point, benchmark, &outcome);
        if by_key.get(key.as_str()) != Some(&&expected) {
            tally.fail(format!("{key}: stored row disagrees with the oracle"));
            continue;
        }
        if let Some(t) = traced {
            if t.stats.get(&key) != Some(&outcome.stats) {
                tally.fail(format!("{key}: traced RunStats disagree with the oracle"));
                continue;
            }
            let same_program = t
                .prepared
                .get(&CompileCache::key_for(benchmark, &point.machine))
                .is_some_and(|p| {
                    p.compiled.program == fresh.compiled.program && p.lowered == fresh.lowered
                });
            if !same_program {
                tally.fail(format!(
                    "{key}: layer-by-layer compile differs from vmv_sched::compile"
                ));
            }
        }
    }
}
