//! The traced run: the same workload as the sweep, split into timed calls
//! to each layer's public functions in the order the executor makes them
//! (one worker), plus the report read-back shared with the untraced run.

use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

use vmv_core::{
    simulate, simulate_batch, simulate_batch_profiled, simulate_profiled, Prepared, RunOutcome,
};
use vmv_kernels::Benchmark;
use vmv_machine::MachineConfig;
use vmv_report::{html, markdown, LoadedStore, ResolvedStore};
use vmv_sched::{Compiled, ScheduledBlock, ScheduledProgram};
use vmv_sweep::{CompileCache, ProfileDoc, ProfileMeta, RunRecord, SweepPoint};

use crate::check::{key_of, record_of, Tally, TracedOutputs};
use crate::trace::Tracer;
use crate::workload::{self, Job, Rng, Setup, Workload};

/// Records the executor commits per store append on its one-worker path.
const APPEND_BATCH: usize = 16;
/// Profile documents rendered in detail (Markdown and Chrome trace).
const DETAIL_SAMPLE: usize = 8;

/// What the report read-back produced.
pub struct Readback {
    pub docs: Vec<ProfileDoc>,
    pub bytes_out: usize,
}

/// Read a profiled sweep back the way a user does: every profile document,
/// the store resolved against its header, Pareto and sensitivity tables,
/// the profile overview, detail and Chrome trace for a seeded sample of
/// runs, and one HTML page.  Untraced runs pass a disabled tracer.
pub fn readback(t: &mut Tracer, setup: &Setup, seed: u64) -> Result<Readback, String> {
    let dir = setup
        .opts
        .profile_dir
        .as_ref()
        .ok_or("read-back needs a profiled sweep")?;
    let docs = t.span("report.profile_load", "report", |_| {
        vmv_sweep::load_all_profiles(dir)
    })?;
    let resolved = t.span("report.store_load", "report", |_| {
        let loaded = LoadedStore::from_path(&setup.store_path).map_err(|e| e.to_string())?;
        ResolvedStore::resolve(&loaded).map_err(|e| e.message)
    })?;
    let bytes_out = t.span("report.render", "report", |_| -> Result<usize, String> {
        let name = &resolved.spec.name;
        let fingerprint = resolved.spec.fingerprint();
        let pareto = vmv_report::pareto_report(&resolved.points, &resolved.records);
        let sensitivity = vmv_report::sensitivity(&resolved.points, &resolved.records);
        let mut bytes = markdown::pareto_md(name, &fingerprint, &pareto).len()
            + markdown::sensitivity_md(name, &fingerprint, &sensitivity).len()
            + vmv_report::profile_overview_md(name, &docs).len();
        let sample = Rng::new(seed ^ 0xde7a11).choose(
            &(0..docs.len()).collect::<Vec<_>>(),
            DETAIL_SAMPLE.min(docs.len()),
        );
        for i in sample {
            bytes += vmv_report::profile_detail_md(&docs[i]).len()
                + vmv_report::chrome_trace(&docs[i]).len();
        }
        let sections = [
            html::pareto_section(name, &pareto),
            html::sensitivity_section(name, &sensitivity),
            html::profile_section(&docs),
        ];
        let page = html::page(
            &format!("vmv observatory — {name}"),
            &format!("spec {name} — fingerprint {fingerprint}"),
            &sections,
        );
        let index = setup.store_path.with_extension("html");
        std::fs::write(&index, &page).map_err(|e| format!("{}: {e}", index.display()))?;
        Ok(bytes + page.len())
    })?;
    Ok(Readback { docs, bytes_out })
}

/// Counts the traced run gathers at the layer boundaries.
#[derive(Default)]
pub struct Counts {
    pub schedules: u64,
    pub static_ops: u64,
    pub diagnostics: u64,
    pub cache_hits: u64,
    pub executed_cycles: u64,
    pub replayed_runs: u64,
    pub batches: u64,
    pub store_bytes: u64,
    pub profile_bytes: u64,
    pub bytes_out: u64,
}

pub struct TracedRun {
    pub tracer: Tracer,
    pub wall_s: f64,
    pub counts: Counts,
    pub setup: Setup,
    pub records: Vec<RunRecord>,
    pub outputs: TracedOutputs,
}

/// `vmv_core::prepare` plus the executor's certification, one span per
/// layer call, with `vmv_sched::compile` taken apart into its stages.
fn compile(
    t: &mut Tracer,
    run: &str,
    benchmark: Benchmark,
    machine: &MachineConfig,
    verify: bool,
    counts: &mut Counts,
) -> Result<Prepared, String> {
    let variant = vmv_core::variant_for(machine);
    let build = t.span("kernels.build", run, |_| benchmark.build(variant));
    t.span("sched.check", run, |_| {
        if !vmv_isa::verify_program(&build.program).is_empty() {
            return Err(format!("{run}: program failed verification"));
        }
        match build
            .program
            .iter_ops()
            .find(|(_, op)| !machine.supports_op(op.opcode))
        {
            Some((_, op)) => Err(format!("{run}: {} unsupported", op.opcode.mnemonic())),
            None => Ok(()),
        }
    })?;
    let (allocated, allocation) = t
        .span("sched.regalloc", run, |_| {
            vmv_sched::allocate(&build.program, machine)
        })
        .map_err(|e| format!("{run}: {e}"))?;
    let program = t.span("sched.list", run, |_| {
        let mut scheduled = ScheduledProgram::from_program_shell(&build.program);
        for block in &allocated.blocks {
            scheduled.blocks.push(ScheduledBlock {
                label: block.label.clone(),
                region: block.region,
                bundles: vmv_sched::list::schedule_block(&block.ops, machine),
            });
        }
        scheduled
    });
    let compiled = Compiled {
        program,
        allocation,
    };
    let lowered = t
        .span("sched.lower", run, |_| {
            vmv_sched::lower(&compiled.program, machine)
        })
        .map_err(|e| format!("{run}: {e}"))?;
    counts.schedules += 1;
    counts.static_ops += compiled.program.static_op_count() as u64;
    if verify {
        let diags = t.span("verify.certify", run, |_| {
            vmv_verify::verify_compiled(&compiled.program, &lowered, machine)
        });
        counts.diagnostics += diags.len() as u64;
        if vmv_verify::has_errors(&diags) {
            return Err(format!("{run}: schedule failed static verification"));
        }
    }
    Ok(Prepared::new(benchmark, variant, build, compiled, lowered))
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn meta_of(
    key: &str,
    point: &SweepPoint,
    benchmark: Benchmark,
    outcome: &RunOutcome,
) -> ProfileMeta {
    ProfileMeta {
        key: key.to_string(),
        config: point.name.clone(),
        benchmark: benchmark.name().to_string(),
        variant: outcome.variant.name().to_string(),
        model: format!("{:?}", point.model),
    }
}

/// Run `workload` at `seed` layer by layer in `dir`.
pub fn traced_run(
    workload: Workload,
    seed: u64,
    dir: &Path,
    tally: &mut Tally,
) -> Result<TracedRun, String> {
    let mut t = Tracer::new();
    let mut counts = Counts::default();
    let setup = t.span("sweep.spec", "setup", |_| {
        workload::set_up(workload, seed, dir)
    })?;
    let points = &setup.points;
    let benchmarks = &setup.opts.benchmarks;
    let profile_dir = setup.opts.profile_dir.clone();
    let groups = workload::groups(points, benchmarks);
    let total = points.len() * benchmarks.len();
    tally.attempted += total as u64;
    let mut slots: Vec<Option<RunRecord>> = vec![None; total];
    let mut failed = vec![false; total];
    let mut drained = 0usize;
    let mut records: Vec<RunRecord> = Vec::with_capacity(total);
    let mut committed = 0usize;
    let mut stats = HashMap::new();
    let mut prepared_by_key = HashMap::new();

    for (g, group) in groups.iter().enumerate() {
        let run = format!("group{g}");
        let first = &points[group[0].point];
        let compiled = t.span("sweep.compile", &run, |t| {
            compile(
                t,
                &run,
                group[0].benchmark,
                &first.machine,
                workload.verify(),
                &mut counts,
            )
        });
        let prepared = match compiled {
            Ok(p) => Arc::new(p),
            Err(e) => {
                for job in group {
                    failed[job.index] = true;
                    tally.fail(e.clone());
                }
                continue;
            }
        };
        counts.cache_hits += group.len() as u64 - 1;

        // The first run executes and records the trace.
        let job = group[0];
        let point = &points[job.point];
        let key = key_of(point, job.benchmark);
        let outcome = match &profile_dir {
            Some(dir) => t
                .span("sim.profiled", &key, |_| {
                    simulate_profiled(&prepared, &point.machine, point.model)
                })
                .map_err(|e| e.to_string())
                .and_then(|(outcome, profile)| {
                    let meta = meta_of(&key, point, job.benchmark, &outcome);
                    t.span("sweep.profile_write", &key, |_| {
                        vmv_sweep::write_profile(dir, &meta, &profile)
                    })
                    .map_err(|e| e.to_string())?;
                    Ok(outcome)
                }),
            None => t
                .span("sim.execute", &key, |_| {
                    simulate(&prepared, &point.machine, point.model)
                })
                .map_err(|e| e.to_string()),
        };
        let mut done: Vec<(Job, String, Result<RunOutcome, String>)> =
            Vec::with_capacity(group.len());
        if let Ok(o) = &outcome {
            counts.executed_cycles += o.stats.cycles();
        }
        done.push((job, key, outcome));

        // Every other memory variant retimes the trace in one batched walk.
        let rest = &group[1..];
        if !rest.is_empty() {
            let run = format!("batch{g}");
            let variants: Vec<(&MachineConfig, vmv_mem::MemoryModel)> = rest
                .iter()
                .map(|j| (&points[j.point].machine, points[j.point].model))
                .collect();
            let keys: Vec<String> = rest
                .iter()
                .map(|j| key_of(&points[j.point], j.benchmark))
                .collect();
            let outcomes: Result<Vec<RunOutcome>, String> = match &profile_dir {
                Some(dir) => t
                    .span("sim.profiled", &run, |_| {
                        simulate_batch_profiled(&prepared, &variants)
                    })
                    .map_err(|e| e.to_string())
                    .and_then(|(outcomes, profiles)| {
                        for (((j, key), outcome), profile) in
                            rest.iter().zip(&keys).zip(&outcomes).zip(&profiles)
                        {
                            let meta = meta_of(key, &points[j.point], j.benchmark, outcome);
                            t.span("sweep.profile_write", key, |_| {
                                vmv_sweep::write_profile(dir, &meta, profile)
                            })
                            .map_err(|e| e.to_string())?;
                        }
                        Ok(outcomes)
                    }),
                None => t
                    .span("sim.replay_batch", &run, |_| {
                        simulate_batch(&prepared, &variants)
                    })
                    .map_err(|e| e.to_string()),
            };
            match outcomes {
                Ok(outcomes) => {
                    counts.batches += 1;
                    counts.replayed_runs += outcomes.len() as u64;
                    for ((j, key), o) in rest.iter().zip(keys).zip(outcomes) {
                        done.push((*j, key, Ok(o)));
                    }
                }
                Err(e) => {
                    for (j, key) in rest.iter().zip(keys) {
                        done.push((*j, key, Err(e.clone())));
                    }
                }
            }
        }
        prepared_by_key.insert(
            CompileCache::key_for(job.benchmark, &point.machine),
            Arc::clone(&prepared),
        );

        for (job, key, outcome) in done {
            let i = job.index;
            match outcome {
                Ok(o) => {
                    slots[i] = Some(record_of(
                        key.clone(),
                        &points[job.point],
                        job.benchmark,
                        &o,
                    ));
                    stats.insert(key, o.stats);
                }
                Err(e) => {
                    failed[i] = true;
                    tally.fail(format!("{key}: {e}"));
                }
            }
        }
        while drained < total && (slots[drained].is_some() || failed[drained]) {
            if let Some(r) = slots[drained].take() {
                records.push(r);
            }
            drained += 1;
        }
        if records.len() - committed >= APPEND_BATCH {
            t.span("sweep.store_append", "store", |_| {
                setup.store.append(&records[committed..])
            })
            .map_err(|e| e.to_string())?;
            committed = records.len();
        }
    }
    t.span("sweep.store_append", "store", |_| {
        setup.store.append(&records[committed..])
    })
    .map_err(|e| e.to_string())?;

    let docs = match workload.profiled() {
        true => Some(readback(&mut t, &setup, seed)?),
        false => None,
    };
    let wall_s = t.elapsed_s();
    counts.store_bytes = file_bytes(&setup.store_path);
    if let Some(dir) = &profile_dir {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        counts.profile_bytes = entries.flatten().map(|e| file_bytes(&e.path())).sum();
    }
    if let Some(back) = docs {
        counts.bytes_out = back.bytes_out as u64;
        crate::check::check_profiles(&records, &back.docs, tally);
    }
    Ok(TracedRun {
        tracer: t,
        wall_s,
        counts,
        setup,
        records,
        outputs: TracedOutputs {
            stats,
            prepared: prepared_by_key,
        },
    })
}
