//! Profiler determinism: the demo sweep run with `--profile` must
//! reproduce the committed document and overview/detail/Chrome-trace
//! goldens byte for byte, its documents must read back exactly as the
//! tree-walking decoder reads them, and turning the profiler on must never
//! change `RunStats`.
//!
//! Regenerate after an intentional rendering change with
//! `UPDATE_GOLDENS=1 cargo test --test profile_golden`.

use std::path::{Path, PathBuf};

use vector_usimd_vliw as vmv;

use vmv::kernels::Benchmark;
use vmv::machine::all_configs;
use vmv::mem::MemoryModel;
use vmv::report::{chrome_trace, profile_detail_md, profile_overview_md};
use vmv::sweep::profiles::{
    Cause, DocBlock, DocBundle, DocEvent, DocOp, DocRegion, ProfileMeta, N_CAUSES, N_STALLS,
    STALL_BASE,
};
use vmv::sweep::{
    load_all_profiles, parse_profile, run_sweep, ExecOptions, Json, ProfileDoc, SpecFile,
};

/// Compare `actual` against the committed golden, or rewrite it when
/// `UPDATE_GOLDENS` is set.
fn check_golden(name: &str, actual: &str) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDENS").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {name} ({e}) — run with UPDATE_GOLDENS=1"));
    assert!(
        actual == expected,
        "{name} drifted from the committed golden — if the rendering change \
         is intentional, regenerate with `UPDATE_GOLDENS=1 cargo test --test \
         profile_golden`"
    );
}

/// Run the embedded demo spec in-process with profiling on, exactly as
/// `sweep --demo --profile DIR` does, and return the parsed documents.
fn demo_profiles(dir: &Path) -> Vec<ProfileDoc> {
    let spec = SpecFile::demo();
    let lowered = spec.lower().expect("demo spec lowers");
    let points = lowered.spec.expand().points;
    let mut opts = ExecOptions::for_spec(&lowered, 0);
    opts.profile_dir = Some(dir.to_path_buf());
    let report = run_sweep(&points, &opts, None).expect("sweep runs");
    assert!(report.errors.is_empty(), "{:?}", report.errors);
    let docs = load_all_profiles(dir).expect("profiles load");
    assert_eq!(docs.len(), report.records.len(), "one document per run");
    docs
}

/// The decoder the streaming reader replaced, kept as the oracle: parse
/// the whole document into a [`Json`] tree, then look every field up with
/// [`Json::get`] (first key wins) and the `as_*` accessors.
fn tree_parse_profile(text: &str) -> Result<ProfileDoc, String> {
    fn get_u64(v: &Json, key: &str) -> Result<u64, String> {
        v.get(key)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing numeric field {key:?}"))
    }
    fn get_str(v: &Json, key: &str) -> Result<String, String> {
        v.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {key:?}"))
    }
    fn counts<const N: usize>(v: &Json, key: &str, names: &[Cause]) -> Result<[u64; N], String> {
        let obj = v.get(key).ok_or_else(|| format!("missing {key:?}"))?;
        let mut out = [0u64; N];
        for (i, c) in names.iter().enumerate() {
            out[i] = obj.get(c.name()).and_then(Json::as_u64).unwrap_or(0);
        }
        Ok(out)
    }
    fn causes(v: &Json) -> Result<[u64; N_CAUSES], String> {
        counts(v, "causes", &Cause::ALL)
    }
    fn stalls(v: &Json) -> Result<[u64; N_STALLS], String> {
        counts(v, "stalls", &Cause::ALL[STALL_BASE..])
    }
    fn arr<'a>(v: &'a Json, key: &str) -> Result<&'a [Json], String> {
        match v.get(key) {
            Some(Json::Arr(items)) => Ok(items),
            _ => Err(format!("missing array field {key:?}")),
        }
    }
    let v = Json::parse(text).map_err(|e| format!("profile JSON: {e}"))?;
    let schema = get_str(&v, "schema")?;
    if schema != "vmv-profile/1" {
        return Err(format!("unsupported profile schema {schema:?}"));
    }
    let meta = ProfileMeta {
        key: get_str(&v, "key")?,
        config: get_str(&v, "config")?,
        benchmark: get_str(&v, "benchmark")?,
        variant: get_str(&v, "variant")?,
        model: get_str(&v, "model")?,
    };
    let regions = arr(&v, "regions")?
        .iter()
        .map(|r| {
            Ok(DocRegion {
                id: get_u64(r, "id")? as u32,
                name: get_str(r, "name")?,
                causes: causes(r)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let blocks = arr(&v, "blocks")?
        .iter()
        .map(|b| {
            Ok(DocBlock {
                block: get_u64(b, "block")? as u32,
                region: get_u64(b, "region")? as u32,
                visits: get_u64(b, "visits")?,
                causes: causes(b)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let bundles = arr(&v, "bundles")?
        .iter()
        .map(|b| {
            Ok(DocBundle {
                bundle: get_u64(b, "bundle")? as u32,
                block: get_u64(b, "block")? as u32,
                lane: get_u64(b, "lane")? as u8,
                class: get_str(b, "class")?,
                issues: get_u64(b, "issues")?,
                stalls: stalls(b)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let ops = arr(&v, "ops")?
        .iter()
        .map(|o| {
            Ok(DocOp {
                op: get_u64(o, "op")? as u32,
                bundle: get_u64(o, "bundle")? as u32,
                opcode: get_str(o, "opcode")?,
                stalls: stalls(o)?,
            })
        })
        .collect::<Result<_, String>>()?;
    let timeline = arr(&v, "timeline")?
        .iter()
        .map(|e| {
            Ok(DocEvent {
                bundle: get_u64(e, "bundle")? as u32,
                base: get_u64(e, "base")?,
                stall: get_u64(e, "stall")?,
                cause: get_str(e, "cause")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(ProfileDoc {
        meta,
        regions,
        blocks,
        bundles,
        ops,
        timeline,
        cycles: get_u64(&v, "cycles")?,
        stall_cycles: get_u64(&v, "stall_cycles")?,
        causes: causes(&v)?,
        events_seen: get_u64(&v, "events_seen")?,
    })
}

#[test]
fn demo_profiles_match_the_committed_goldens() {
    let dir = std::env::temp_dir().join(format!("vmv_profile_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let docs = demo_profiles(&dir);
    // The persisted bytes of the first document by key are pinned, and
    // every document reads back exactly as the tree-walking oracle reads
    // it.
    let texts: Vec<String> = docs
        .iter()
        .map(|d| std::fs::read_to_string(dir.join(format!("{}.json", d.meta.key))).unwrap())
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    check_golden("demo_profile_doc.json", &texts[0]);
    for (doc, text) in docs.iter().zip(&texts) {
        assert_eq!(
            Ok(doc),
            tree_parse_profile(text).as_ref(),
            "run {}",
            doc.meta.key
        );
        assert_eq!(parse_profile(text).as_ref(), Ok(doc));
    }

    // Every persisted document still satisfies the sum-exactly contract.
    for d in &docs {
        assert_eq!(d.causes.iter().sum::<u64>(), d.cycles, "run {}", d.meta.key);
        assert_eq!(
            d.causes[STALL_BASE..].iter().sum::<u64>(),
            d.stall_cycles,
            "run {}",
            d.meta.key
        );
    }

    check_golden(
        "demo_profile_overview.md",
        &profile_overview_md("demo", &docs),
    );
    // `load_all` sorts by key, so the first document is a stable pick.
    let first = &docs[0];
    check_golden("demo_profile_detail.md", &profile_detail_md(first));
    check_golden("demo_profile_trace.json", &chrome_trace(first));
}

#[test]
fn streaming_reader_agrees_with_the_tree_oracle_on_mutated_documents() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/demo_profile_doc.json");
    let text = std::fs::read_to_string(path).expect("document golden");
    let mut variants = vec![text.clone(), String::new(), "[]".into(), "7".into()];
    // Drop or mistype the first occurrence of every key the schema uses.
    let keys = [
        "schema",
        "key",
        "config",
        "benchmark",
        "variant",
        "model",
        "cycles",
        "stall_cycles",
        "causes",
        "regions",
        "blocks",
        "bundles",
        "ops",
        "timeline",
        "events_seen",
        "id",
        "name",
        "block",
        "region",
        "visits",
        "bundle",
        "lane",
        "class",
        "issues",
        "stalls",
        "op",
        "opcode",
        "base",
        "stall",
        "cause",
        "issue",
        "raw",
        "wait_mem",
    ];
    for key in keys {
        let field = format!("\"{key}\":");
        assert!(text.contains(&field), "{key}");
        variants.push(text.replacen(&field, &format!("\"{key}_\":"), 1));
        variants.push(text.replacen(&field, &format!("{field}\"x\",\"{key}_\":"), 1));
        variants.push(text.replacen(&field, &format!("{field}[{{}}],\"{key}_\":"), 1));
        variants.push(text.replacen(&field, &format!("{field}7,{field}"), 1));
    }
    // Respell, negate and fractionalise the first number.
    for number in [
        "11315.0", "11315e0", "1131.5e1", "-11315", "1.5", "1e400", "-0",
    ] {
        variants.push(text.replacen("11315", number, 1));
    }
    // Escapes, truncation and trailing garbage.
    variants.push(text.replacen("\"scalar\"", "\"sc\\u0041l\\\"ar\\\\\"", 1));
    variants.push(text.replacen("\"scalar\"", "\"sc\\qalar\"", 1));
    variants.extend(
        (1..text.len())
            .step_by(1009)
            .map(|end| text[..end].to_string()),
    );
    variants.push(format!("{text}x"));
    for (i, v) in variants.iter().enumerate() {
        assert_eq!(parse_profile(v), tree_parse_profile(v), "variant {i}");
    }
}

#[test]
fn profiled_runs_return_bit_identical_stats() {
    // Seeded LCG over preset x kernel x memory picks: the profiled path
    // must be invisible in RunStats, and its attribution must sum exactly.
    let mut state: u64 = 0xDEAD_BEEF_CAFE_F00D;
    let mut next = move |m: usize| -> usize {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as usize) % m
    };
    let configs = all_configs();
    let models = [MemoryModel::Perfect, MemoryModel::Realistic];
    for _ in 0..12 {
        let machine = &configs[next(configs.len())];
        let benchmark = Benchmark::ALL[next(Benchmark::ALL.len())];
        let model = models[next(models.len())];
        let prepared = vmv::core::prepare(benchmark, machine).expect("prepare");
        let plain = vmv::core::simulate(&prepared, machine, model).expect("simulate");
        let (profiled, profile) =
            vmv::core::simulate_profiled(&prepared, machine, model).expect("simulate profiled");
        assert_eq!(
            plain.stats, profiled.stats,
            "{}/{benchmark:?}/{model:?}: profiling changed RunStats",
            machine.name
        );
        profile
            .check_against(&profiled.stats)
            .unwrap_or_else(|e| panic!("{}/{benchmark:?}/{model:?}: {e}", machine.name));
    }
}
