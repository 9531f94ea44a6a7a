//! The three workloads: seeded spec generation, the fixed workload shape,
//! and the set-up every sweep pays before its first job.
//!
//! A seed picks axis *values*; the number of values per axis is fixed per
//! workload, and every candidate value yields a distinct, valid machine, so
//! two seeds always expand to the same shape (runs, schedule keys, replay
//! batches, tag-equivalence classes) over different design points.  Values
//! are drawn per stratum (one from a low list, one from a high list) so that
//! every seed covers the same range of each axis and costs about as much.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use vmv_kernels::Benchmark;
use vmv_sweep::{CompileCache, ExecOptions, LoweredSpec, ResultStore, SpecFile, SweepPoint};

/// The seed the benchmark is tuned and reported on.
pub const DEFAULT_SEED: u64 = 1;
/// A seed never used while choosing the workloads; a change must hold on it
/// too.
pub const HELD_OUT_SEED: u64 = 20_050_614;

/// SplitMix64: a tiny, well-mixed generator, enough to pick axis values.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x005e_ed0f_be4c_4a11)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// `n` distinct values of `from`, in `from`'s order.
    pub fn choose<T: Copy>(&mut self, from: &[T], n: usize) -> Vec<T> {
        assert!(n <= from.len(), "cannot choose {n} of {}", from.len());
        let mut idx: Vec<usize> = (0..from.len()).collect();
        for i in 0..n {
            let j = i + self.below(idx.len() - i);
            idx.swap(i, j);
        }
        let mut picked = idx[..n].to_vec();
        picked.sort_unstable();
        picked.into_iter().map(|i| from[i]).collect()
    }

    /// One value from each stratum.
    pub fn strata<T: Copy>(&mut self, strata: &[&[T]]) -> Vec<T> {
        strata.iter().map(|s| s[self.below(s.len())]).collect()
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ExploreArch,
    ExploreMemory,
    ProfileReport,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ExploreArch,
        Workload::ExploreMemory,
        Workload::ProfileReport,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ExploreArch => "explore_arch",
            Workload::ExploreMemory => "explore_memory",
            Workload::ProfileReport => "profile_report",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Executor workers: the pooled path on `explore_arch`, the inline
    /// single-worker path elsewhere.
    pub fn workers(self) -> usize {
        match self {
            Workload::ExploreArch => 2,
            Workload::ExploreMemory | Workload::ProfileReport => 1,
        }
    }

    /// Schedule certification (`sweep --verify`).
    pub fn verify(self) -> bool {
        self == Workload::ExploreArch
    }

    /// Cycle-attribution profiling (`sweep --profile`) and the read-back.
    pub fn profiled(self) -> bool {
        self == Workload::ProfileReport
    }
}

fn list<T: std::fmt::Display>(values: &[T]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(", ")
}

/// The seeded spec file of `workload`, as the JSON text a user would check
/// in.
pub fn spec_text(workload: Workload, seed: u64) -> String {
    let mut rng = Rng::new(seed ^ (workload as u64).wrapping_mul(0x1000_0000_01b3));
    let axes: Vec<String> = match workload {
        // 4 widths x (VLIW + uSIMD + vector at 2 lane counts) x chaining
        // x both memory models, all six benchmarks.
        Workload::ExploreArch => {
            let units = rng.strata(&[&[1usize, 2]]);
            let lanes = rng.strata(&[&[2u32, 4], &[8, 16]]);
            vec![
                r#"{"axis": "isa", "values": ["vliw", "usimd", "vector"]}"#.to_string(),
                r#"{"axis": "issue_width", "values": [2, 4, 8, 16]}"#.to_string(),
                format!(
                    r#"{{"axis": "vector_units", "values": [{}]}}"#,
                    list(&units)
                ),
                format!(
                    r#"{{"axis": "vector_lanes", "values": [{}]}}"#,
                    list(&lanes)
                ),
                r#"{"axis": "chaining", "values": [true, false]}"#.to_string(),
                r#"{"axis": "memory_model", "values": ["perfect", "realistic"]}"#.to_string(),
            ]
        }
        // 2 vector schedule points x 128 memory-only variants in 16
        // tag-equivalence classes (8 latencies each), all six benchmarks.
        Workload::ExploreMemory => {
            let width = rng.strata(&[&[2usize, 4], &[8, 16]]);
            let lanes = rng.strata(&[&[4u32, 8]]);
            let l1 = rng.strata(&[&[8192usize, 16384], &[32768, 65536]]);
            let l2 = rng.strata(&[&[65536usize, 131072], &[262144, 524288]]);
            let line = rng.strata(&[&[32usize, 64], &[128, 256]]);
            let latency = rng.choose(
                &[40u32, 60, 80, 100, 150, 200, 250, 300, 400, 500, 600, 800],
                8,
            );
            vec![
                format!(r#"{{"axis": "issue_width", "values": [{}]}}"#, list(&width)),
                format!(
                    r#"{{"axis": "vector_lanes", "values": [{}]}}"#,
                    list(&lanes)
                ),
                format!(r#"{{"axis": "l1_size", "values": [{}]}}"#, list(&l1)),
                format!(r#"{{"axis": "l2_size", "values": [{}]}}"#, list(&l2)),
                format!(r#"{{"axis": "l2_line", "values": [{}]}}"#, list(&line)),
                format!(
                    r#"{{"axis": "mem_latency", "values": [{}]}}"#,
                    list(&latency)
                ),
                r#"{"axis": "memory_model", "values": ["perfect", "realistic"]}"#.to_string(),
            ]
        }
        // About `sweep --demo` size: 72 points on the GSM pair.
        Workload::ProfileReport => {
            let units = rng.strata(&[&[1usize], &[2, 4]]);
            let lanes = rng.strata(&[&[1u32, 2], &[4], &[8, 16]]);
            let l2 = rng.strata(&[&[65536usize, 131072], &[262144, 524288]]);
            let latency = rng.strata(&[&[50u32, 100], &[200, 300], &[500, 800]]);
            vec![
                r#"{"axis": "issue_width", "values": [2, 4]}"#.to_string(),
                format!(
                    r#"{{"axis": "vector_units", "values": [{}]}}"#,
                    list(&units)
                ),
                format!(
                    r#"{{"axis": "vector_lanes", "values": [{}]}}"#,
                    list(&lanes)
                ),
                format!(r#"{{"axis": "l2_size", "values": [{}]}}"#, list(&l2)),
                format!(
                    r#"{{"axis": "mem_latency", "values": [{}]}}"#,
                    list(&latency)
                ),
                r#"{"axis": "benchmarks", "values": ["GSM_DEC", "GSM_ENC"]}"#.to_string(),
            ]
        }
    };
    format!(
        "{{\n  \"name\": \"{}-seed{seed}\",\n  \"axes\": [\n    {}\n  ]\n}}\n",
        workload.name(),
        axes.join(",\n    ")
    )
}

/// Parse, validate, lower and expand the generated spec.
fn parse(
    workload: Workload,
    seed: u64,
) -> Result<(SpecFile, LoweredSpec, Vec<SweepPoint>), String> {
    let spec =
        SpecFile::parse(&spec_text(workload, seed)).map_err(|e| format!("generated spec: {e}"))?;
    let lowered = spec.lower().map_err(|e| format!("generated spec: {e}"))?;
    let points = lowered.spec.expand().points;
    Ok((spec, lowered, points))
}

/// Everything a sweep needs before its first job: the expanded points, the
/// executor options, and the (still empty) store and profile directory.
pub struct Setup {
    pub points: Vec<SweepPoint>,
    pub opts: ExecOptions,
    pub store: ResultStore,
    pub store_path: PathBuf,
}

/// Seed -> spec text -> parse/validate -> lower -> expand -> store (and
/// profile directory) creation, the way `sweep --spec` does it.  `dir` must
/// not hold an earlier store: the sweep would skip the runs it finds there.
pub fn set_up(workload: Workload, seed: u64, dir: &Path) -> Result<Setup, String> {
    let (spec, lowered, points) = parse(workload, seed)?;
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let store_path = dir.join(format!("{}.jsonl", workload.name()));
    let store = ResultStore::with_header(&store_path, spec.store_header());
    if store
        .read_header()
        .map_err(|e| format!("{}: {e}", store_path.display()))?
        .is_some()
    {
        return Err(format!("{} already holds a store", store_path.display()));
    }
    let mut opts = ExecOptions::for_spec(&lowered, workload.workers());
    opts.verify = workload.verify();
    if workload.profiled() {
        let profiles = vmv_sweep::default_profile_dir(&store_path);
        std::fs::create_dir_all(&profiles).map_err(|e| format!("{}: {e}", profiles.display()))?;
        opts.profile_dir = Some(profiles);
    }
    Ok(Setup {
        points,
        opts,
        store,
        store_path,
    })
}

/// One executor job: a design point and a benchmark, and its index in the
/// point-major job list (the order the executor commits rows in).
#[derive(Clone, Copy)]
pub struct Job {
    pub index: usize,
    pub point: usize,
    pub benchmark: Benchmark,
}

/// The executor's dispatch groups: jobs sharing one compile-cache key, in
/// first-seen order over the point-major job list.
pub fn groups(points: &[SweepPoint], benchmarks: &[Benchmark]) -> Vec<Vec<Job>> {
    let mut index: HashMap<vmv_sweep::cache::CacheKey, usize> = HashMap::new();
    let mut groups: Vec<Vec<Job>> = Vec::new();
    for (p, point) in points.iter().enumerate() {
        for (b, &benchmark) in benchmarks.iter().enumerate() {
            let job = Job {
                index: p * benchmarks.len() + b,
                point: p,
                benchmark,
            };
            let key = CompileCache::key_for(benchmark, &point.machine);
            let g = *index.entry(key).or_insert_with(|| {
                groups.push(Vec::new());
                groups.len() - 1
            });
            groups[g].push(job);
        }
    }
    groups
}

/// Split one batch of memory variants into tag-equivalence classes the way
/// batched replay does: `(leaders, followers)`.
fn tag_classes(points: &[SweepPoint], batch: &[Job]) -> (usize, usize) {
    let mut leaders: Vec<&SweepPoint> = Vec::new();
    for job in batch {
        let v = &points[job.point];
        let same_class = |l: &&SweepPoint| {
            vmv_mem::tag_equivalent_configs(
                (l.model, &l.machine.memory, l.machine.l2_port_elems),
                (v.model, &v.machine.memory, v.machine.l2_port_elems),
            )
        };
        if !leaders.iter().any(same_class) {
            leaders.push(v);
        }
    }
    (leaders.len(), batch.len() - leaders.len())
}

/// The seed-independent size of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shape {
    pub runs: usize,
    pub schedule_keys: usize,
    /// Batched replay walks: groups with more than the recording run.
    pub batches: usize,
    /// Tag-equivalence classes summed over batches (leader variants).
    pub tag_classes: usize,
    /// Variants priced from a leader's access echo.
    pub followers: usize,
}

fn shape(points: &[SweepPoint], benchmarks: &[Benchmark]) -> Shape {
    let groups = groups(points, benchmarks);
    let mut shape = Shape {
        runs: points.len() * benchmarks.len(),
        schedule_keys: groups.len(),
        batches: 0,
        tag_classes: 0,
        followers: 0,
    };
    for group in groups.iter().filter(|g| g.len() > 1) {
        let (leaders, followers) = tag_classes(points, &group[1..]);
        shape.batches += 1;
        shape.tag_classes += leaders;
        shape.followers += followers;
    }
    shape
}

/// Shape and point names of a workload at `seed`, without touching disk.
pub fn expand(workload: Workload, seed: u64) -> Result<(Shape, Vec<String>), String> {
    let (_, lowered, points) = parse(workload, seed)?;
    let names = points.iter().map(|p| p.name.clone()).collect();
    Ok((shape(&points, &lowered.benchmarks), names))
}

/// The held-out-seed self-test: the default and held-out seeds must give
/// the same shape over different points.
pub fn check_held_out(workload: Workload) -> Result<(), String> {
    let (a, names_a) = expand(workload, DEFAULT_SEED)?;
    let (b, names_b) = expand(workload, HELD_OUT_SEED)?;
    if a != b {
        return Err(format!(
            "{}: seeds {DEFAULT_SEED} and {HELD_OUT_SEED} give different shapes: {a:?} vs {b:?}",
            workload.name()
        ));
    }
    if names_a == names_b {
        return Err(format!(
            "{}: seeds {DEFAULT_SEED} and {HELD_OUT_SEED} pick the same points",
            workload.name()
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_and_held_out_seeds_share_a_shape_over_different_points() {
        for w in Workload::ALL {
            check_held_out(w).unwrap();
        }
    }

    #[test]
    fn every_seed_gives_the_same_shape() {
        for w in Workload::ALL {
            let (reference, _) = expand(w, DEFAULT_SEED).unwrap();
            for seed in 0..64 {
                assert_eq!(
                    expand(w, seed).unwrap().0,
                    reference,
                    "{} seed {seed}",
                    w.name()
                );
            }
        }
    }

    #[test]
    fn shapes_are_as_documented() {
        let arch = expand(Workload::ExploreArch, DEFAULT_SEED).unwrap().0;
        // 4 widths x 2 chaining x 2 models x (2 scalar + 2 vector machines).
        assert_eq!(arch.runs, 64 * 6);
        assert_eq!(arch.schedule_keys, 32 * 6);
        assert_eq!(arch.batches, arch.schedule_keys);
        assert_eq!(arch.followers, 0, "a batch of one is its own leader");
        let memory = expand(Workload::ExploreMemory, DEFAULT_SEED).unwrap().0;
        assert_eq!(memory.runs, 256 * 6);
        assert_eq!(memory.schedule_keys, 2 * 6);
        let profile = expand(Workload::ProfileReport, DEFAULT_SEED).unwrap().0;
        assert_eq!(profile.runs, 72 * 2);
    }
}
