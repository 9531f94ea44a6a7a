//! Persisted cycle-attribution profiles: the `vmv-profile/1` schema.
//!
//! `sweep --profile` writes one canonical-JSON document per run key into a
//! profile directory next to the result store (by default
//! `<store>.profiles/<key>.json`).  Each document carries the full
//! [`vmv_sim::Profile`] of that run — per-cause cycle totals, per-region /
//! per-block breakdowns, the worst bundles and blamed producer ops, and
//! the capped bundle-issue timeline — plus enough run metadata to render a
//! report without re-opening the store.
//!
//! Both directions stream through the workspace's one JSON writer and one
//! JSON reader (`vmv_obs::json`) without building a `Json` tree:
//!
//! * [`render_profile`] writes the [`Profile`] straight into a
//!   [`JsonWriter`] with static keys and one pre-sized buffer.  The form is
//!   canonical (single line, fixed key order, integers only), so
//!   byte-identical inputs produce byte-identical files and the golden
//!   tests can pin them.
//! * [`parse_profile`] pulls each record out of a [`JsonReader`] by field
//!   name.  Unknown fields and unknown cause names are skipped (the same
//!   backward-compatibility rule as `vmv-metrics/1`), missing causes read
//!   as 0, and a duplicated key keeps its first value.  Counts are
//!   non-negative whole numbers: `7.0` and `7e0` read as 7, digit runs are
//!   exact over the whole `u64` range, and anything else in a required
//!   field is a `missing numeric field "x"` error.  The reader's nesting
//!   and size limits apply, so a hostile document is an `Err`, never a
//!   stack overflow.

use std::io;
use std::path::{Path, PathBuf};

use vmv_obs::json::{JsonError, JsonKind, JsonReader, JsonWriter};
use vmv_sim::Profile;
// Re-exported so profile consumers (vmv-report) get the cause taxonomy and
// lane names from the same place they get the documents.
pub use vmv_sim::{Cause, LANE_NAMES, N_CAUSES, N_STALLS, STALL_BASE};

/// Schema tag of a persisted profile document.
pub const PROFILE_SCHEMA: &str = "vmv-profile/1";

/// Run metadata stamped into a profile document (mirrors the store row).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileMeta {
    pub key: String,
    pub config: String,
    pub benchmark: String,
    pub variant: String,
    pub model: String,
}

/// Default profile directory for a store: `<store path>.profiles`.
pub fn default_dir(store_path: &Path) -> PathBuf {
    let mut os = store_path.as_os_str().to_os_string();
    os.push(".profiles");
    PathBuf::from(os)
}

/// File a run key's profile lives in.  Keys are 16 hex digits
/// ([`crate::store::run_key`]), so the name needs no escaping.
pub fn path_for(dir: &Path, key: &str) -> PathBuf {
    dir.join(format!("{key}.json"))
}

/// Cause-keyed counters (`names` in taxonomy order) as one JSON object.
fn write_counts(w: &mut JsonWriter, names: &[Cause], counts: &[u64]) {
    w.begin_obj();
    for (c, &v) in names.iter().zip(counts) {
        w.key(c.name()).u64(v);
    }
    w.end_obj();
}

/// The canonical single-line JSON document of one run's profile.
pub fn render_profile(meta: &ProfileMeta, profile: &Profile) -> String {
    let causes = &Cause::ALL[..];
    let stalls = &Cause::ALL[STALL_BASE..];
    // Generous per-record sizes (a demo document averages ~40 KB), so the
    // one buffer is allocated once.
    let records = profile.regions.len() + profile.blocks.len();
    let stall_records = profile.bundles.len() + profile.ops.len();
    let mut w = JsonWriter::with_capacity(
        1024 + 256 * records + 192 * stall_records + 64 * profile.timeline.len(),
    );
    w.begin_obj();
    w.key("schema").str(PROFILE_SCHEMA);
    w.key("key").str(&meta.key);
    w.key("config").str(&meta.config);
    w.key("benchmark").str(&meta.benchmark);
    w.key("variant").str(&meta.variant);
    w.key("model").str(&meta.model);
    w.key("cycles").u64(profile.total_cycles());
    w.key("stall_cycles").u64(profile.stall_cycles());
    write_counts(w.key("causes"), causes, &profile.causes);

    w.key("regions").begin_arr();
    for r in &profile.regions {
        w.begin_obj();
        w.key("id").u64(r.id as u64);
        w.key("name").str(&r.name);
        write_counts(w.key("causes"), causes, &r.causes);
        w.end_obj();
    }
    w.end_arr();

    // Blocks that never ran and bundles that never issued attribute zero
    // cycles by construction; dropping them keeps documents proportional
    // to the *executed* program without breaking the sum-exactly checks.
    w.key("blocks").begin_arr();
    for b in profile.blocks.iter().filter(|b| b.visits > 0) {
        w.begin_obj();
        w.key("block").u64(b.block as u64);
        w.key("region").u64(b.region as u64);
        w.key("visits").u64(b.visits);
        write_counts(w.key("causes"), causes, &b.causes);
        w.end_obj();
    }
    w.end_arr();

    w.key("bundles").begin_arr();
    for b in profile.bundles.iter().filter(|b| b.issues > 0) {
        w.begin_obj();
        w.key("bundle").u64(b.bundle as u64);
        w.key("block").u64(b.block as u64);
        w.key("lane").u64(b.lane as u64);
        w.key("class").str(b.class.name());
        w.key("issues").u64(b.issues);
        write_counts(w.key("stalls"), stalls, &b.stalls);
        w.end_obj();
    }
    w.end_arr();

    w.key("ops").begin_arr();
    for o in profile
        .ops
        .iter()
        .filter(|o| o.stalls.iter().any(|&v| v > 0))
    {
        w.begin_obj();
        w.key("op").u64(o.op as u64);
        w.key("bundle").u64(o.bundle as u64);
        w.key("opcode").str(&o.opcode);
        write_counts(w.key("stalls"), stalls, &o.stalls);
        w.end_obj();
    }
    w.end_arr();

    w.key("timeline").begin_arr();
    for e in &profile.timeline {
        w.begin_obj();
        w.key("bundle").u64(e.bundle as u64);
        w.key("base").u64(e.base);
        w.key("stall").u64(e.stall);
        w.key("cause").str(Cause::ALL[e.cause as usize].name());
        w.end_obj();
    }
    w.end_arr();

    w.key("events_seen").u64(profile.events_seen);
    w.end_obj();
    w.finish()
}

/// Write one profile into `dir` (created on demand), returning the path.
pub fn write_profile(dir: &Path, meta: &ProfileMeta, profile: &Profile) -> io::Result<PathBuf> {
    std::fs::create_dir_all(dir)?;
    let path = path_for(dir, &meta.key);
    let mut text = render_profile(meta, profile);
    text.push('\n');
    std::fs::write(&path, text)?;
    Ok(path)
}

/// A parsed `vmv-profile/1` document (the report-side view).
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDoc {
    pub meta: ProfileMeta,
    pub cycles: u64,
    pub stall_cycles: u64,
    pub causes: [u64; N_CAUSES],
    pub regions: Vec<DocRegion>,
    pub blocks: Vec<DocBlock>,
    pub bundles: Vec<DocBundle>,
    pub ops: Vec<DocOp>,
    pub timeline: Vec<DocEvent>,
    pub events_seen: u64,
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocRegion {
    pub id: u32,
    pub name: String,
    pub causes: [u64; N_CAUSES],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocBlock {
    pub block: u32,
    pub region: u32,
    pub visits: u64,
    pub causes: [u64; N_CAUSES],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocBundle {
    pub bundle: u32,
    pub block: u32,
    pub lane: u8,
    pub class: String,
    pub issues: u64,
    pub stalls: [u64; N_STALLS],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocOp {
    pub op: u32,
    pub bundle: u32,
    pub opcode: String,
    pub stalls: [u64; N_STALLS],
}

#[derive(Debug, Clone, PartialEq)]
pub struct DocEvent {
    pub bundle: u32,
    pub base: u64,
    pub stall: u64,
    pub cause: String,
}

impl ProfileDoc {
    /// Total stall cycles of one parsed stall object, across all causes.
    pub fn stall_total(stalls: &[u64; N_STALLS]) -> u64 {
        stalls.iter().sum()
    }
}

/// A first-key-wins field: `None` until the key is seen, then what its
/// first value read as (`None` inside for a value of the wrong type).
type Slot<T> = Option<Option<T>>;

/// Read a field into `slot` unless an earlier duplicate key filled it.
fn first<'a, T>(
    slot: &mut Slot<T>,
    r: &mut JsonReader<'a>,
    read: impl FnOnce(&mut JsonReader<'a>) -> Result<Option<T>, JsonError>,
) -> Result<(), JsonError> {
    match slot {
        Some(_) => r.skip(),
        None => {
            *slot = Some(read(r)?);
            Ok(())
        }
    }
}

fn read_string(r: &mut JsonReader) -> Result<Option<String>, JsonError> {
    Ok(r.str()?.map(|s| s.into_owned()))
}

/// Members of an object; a value of another type has none.
fn read_fields<'a>(
    r: &mut JsonReader<'a>,
    field: impl FnMut(&mut JsonReader<'a>, &str) -> Result<(), JsonError>,
) -> Result<(), JsonError> {
    if r.peek()? == JsonKind::Obj {
        r.object(field)
    } else {
        r.skip()
    }
}

/// A cause-keyed counter object over `names`, name-keyed and defaulting
/// to 0: a newer writer may add causes this reader ignores, and an older
/// file may lack newer ones.  Never `None` once the key is present.
fn read_counts<const N: usize>(
    r: &mut JsonReader,
    names: &[Cause],
) -> Result<Option<[u64; N]>, JsonError> {
    debug_assert_eq!(names.len(), N);
    let mut out = [0u64; N];
    let mut seen = [false; N];
    let mut next = 0;
    read_fields(r, |r, key| {
        // Writers emit causes in taxonomy order: try the expected one
        // before searching.
        let i = match names.get(next) {
            Some(c) if c.name() == key => Some(next),
            _ => names.iter().position(|c| c.name() == key),
        };
        match i {
            Some(i) if !seen[i] => {
                seen[i] = true;
                next = i + 1;
                out[i] = r.u64()?.unwrap_or(0);
                Ok(())
            }
            _ => r.skip(),
        }
    })?;
    Ok(Some(out))
}

fn read_causes(r: &mut JsonReader) -> Result<Option<[u64; N_CAUSES]>, JsonError> {
    read_counts(r, &Cause::ALL)
}

fn read_stalls(r: &mut JsonReader) -> Result<Option<[u64; N_STALLS]>, JsonError> {
    read_counts(r, &Cause::ALL[STALL_BASE..])
}

/// An array of records (`None` for a value of another type).  The first
/// record error is kept while the rest of the array is still read, so a
/// syntax error anywhere in the document takes precedence.
fn read_records<'a, T>(
    r: &mut JsonReader<'a>,
    mut record: impl FnMut(&mut JsonReader<'a>) -> Result<Result<T, String>, JsonError>,
) -> Result<Option<Result<Vec<T>, String>>, JsonError> {
    if r.peek()? != JsonKind::Arr {
        r.skip()?;
        return Ok(None);
    }
    let mut out = Ok(Vec::new());
    r.array(|r| {
        let rec = record(r)?;
        if let Ok(items) = &mut out {
            match rec {
                Ok(item) => items.push(item),
                Err(e) => out = Err(e),
            }
        }
        Ok(())
    })?;
    Ok(Some(out))
}

fn need_u64(slot: Slot<u64>, key: &str) -> Result<u64, String> {
    slot.flatten()
        .ok_or_else(|| format!("missing numeric field {key:?}"))
}

fn need_str(slot: Slot<String>, key: &str) -> Result<String, String> {
    slot.flatten()
        .ok_or_else(|| format!("missing string field {key:?}"))
}

fn need_counts<const N: usize>(slot: Slot<[u64; N]>, key: &str) -> Result<[u64; N], String> {
    slot.flatten().ok_or_else(|| format!("missing {key:?}"))
}

fn need_records<T>(slot: Slot<Result<Vec<T>, String>>, key: &str) -> Result<Vec<T>, String> {
    slot.flatten()
        .ok_or_else(|| format!("missing array field {key:?}"))?
}

fn read_region(r: &mut JsonReader) -> Result<Result<DocRegion, String>, JsonError> {
    let (mut id, mut name, mut causes) = (None, None, None);
    read_fields(r, |r, key| match key {
        "id" => first(&mut id, r, JsonReader::u64),
        "name" => first(&mut name, r, read_string),
        "causes" => first(&mut causes, r, read_causes),
        _ => r.skip(),
    })?;
    Ok(need_u64(id, "id").and_then(|id| {
        Ok(DocRegion {
            id: id as u32,
            name: need_str(name, "name")?,
            causes: need_counts(causes, "causes")?,
        })
    }))
}

fn read_block(r: &mut JsonReader) -> Result<Result<DocBlock, String>, JsonError> {
    let (mut block, mut region, mut visits, mut causes) = (None, None, None, None);
    read_fields(r, |r, key| match key {
        "block" => first(&mut block, r, JsonReader::u64),
        "region" => first(&mut region, r, JsonReader::u64),
        "visits" => first(&mut visits, r, JsonReader::u64),
        "causes" => first(&mut causes, r, read_causes),
        _ => r.skip(),
    })?;
    Ok(need_u64(block, "block").and_then(|block| {
        Ok(DocBlock {
            block: block as u32,
            region: need_u64(region, "region")? as u32,
            visits: need_u64(visits, "visits")?,
            causes: need_counts(causes, "causes")?,
        })
    }))
}

fn read_bundle(r: &mut JsonReader) -> Result<Result<DocBundle, String>, JsonError> {
    let (mut bundle, mut block, mut lane) = (None, None, None);
    let (mut class, mut issues, mut stalls) = (None, None, None);
    read_fields(r, |r, key| match key {
        "bundle" => first(&mut bundle, r, JsonReader::u64),
        "block" => first(&mut block, r, JsonReader::u64),
        "lane" => first(&mut lane, r, JsonReader::u64),
        "class" => first(&mut class, r, read_string),
        "issues" => first(&mut issues, r, JsonReader::u64),
        "stalls" => first(&mut stalls, r, read_stalls),
        _ => r.skip(),
    })?;
    Ok(need_u64(bundle, "bundle").and_then(|bundle| {
        Ok(DocBundle {
            bundle: bundle as u32,
            block: need_u64(block, "block")? as u32,
            lane: need_u64(lane, "lane")? as u8,
            class: need_str(class, "class")?,
            issues: need_u64(issues, "issues")?,
            stalls: need_counts(stalls, "stalls")?,
        })
    }))
}

fn read_op(r: &mut JsonReader) -> Result<Result<DocOp, String>, JsonError> {
    let (mut op, mut bundle, mut opcode, mut stalls) = (None, None, None, None);
    read_fields(r, |r, key| match key {
        "op" => first(&mut op, r, JsonReader::u64),
        "bundle" => first(&mut bundle, r, JsonReader::u64),
        "opcode" => first(&mut opcode, r, read_string),
        "stalls" => first(&mut stalls, r, read_stalls),
        _ => r.skip(),
    })?;
    Ok(need_u64(op, "op").and_then(|op| {
        Ok(DocOp {
            op: op as u32,
            bundle: need_u64(bundle, "bundle")? as u32,
            opcode: need_str(opcode, "opcode")?,
            stalls: need_counts(stalls, "stalls")?,
        })
    }))
}

fn read_event(r: &mut JsonReader) -> Result<Result<DocEvent, String>, JsonError> {
    let (mut bundle, mut base, mut stall, mut cause) = (None, None, None, None);
    read_fields(r, |r, key| match key {
        "bundle" => first(&mut bundle, r, JsonReader::u64),
        "base" => first(&mut base, r, JsonReader::u64),
        "stall" => first(&mut stall, r, JsonReader::u64),
        "cause" => first(&mut cause, r, read_string),
        _ => r.skip(),
    })?;
    Ok(need_u64(bundle, "bundle").and_then(|bundle| {
        Ok(DocEvent {
            bundle: bundle as u32,
            base: need_u64(base, "base")?,
            stall: need_u64(stall, "stall")?,
            cause: need_str(cause, "cause")?,
        })
    }))
}

/// The top-level fields of a document as read, before the required ones
/// are checked.
#[derive(Default)]
struct DocFields {
    schema: Slot<String>,
    key: Slot<String>,
    config: Slot<String>,
    benchmark: Slot<String>,
    variant: Slot<String>,
    model: Slot<String>,
    cycles: Slot<u64>,
    stall_cycles: Slot<u64>,
    causes: Slot<[u64; N_CAUSES]>,
    regions: Slot<Result<Vec<DocRegion>, String>>,
    blocks: Slot<Result<Vec<DocBlock>, String>>,
    bundles: Slot<Result<Vec<DocBundle>, String>>,
    ops: Slot<Result<Vec<DocOp>, String>>,
    timeline: Slot<Result<Vec<DocEvent>, String>>,
    events_seen: Slot<u64>,
}

fn read_doc(text: &str) -> Result<DocFields, JsonError> {
    let mut d = DocFields::default();
    let mut r = JsonReader::new(text)?;
    read_fields(&mut r, |r, key| match key {
        "schema" => first(&mut d.schema, r, read_string),
        "key" => first(&mut d.key, r, read_string),
        "config" => first(&mut d.config, r, read_string),
        "benchmark" => first(&mut d.benchmark, r, read_string),
        "variant" => first(&mut d.variant, r, read_string),
        "model" => first(&mut d.model, r, read_string),
        "cycles" => first(&mut d.cycles, r, JsonReader::u64),
        "stall_cycles" => first(&mut d.stall_cycles, r, JsonReader::u64),
        "causes" => first(&mut d.causes, r, read_causes),
        "regions" => first(&mut d.regions, r, |r| read_records(r, read_region)),
        "blocks" => first(&mut d.blocks, r, |r| read_records(r, read_block)),
        "bundles" => first(&mut d.bundles, r, |r| read_records(r, read_bundle)),
        "ops" => first(&mut d.ops, r, |r| read_records(r, read_op)),
        "timeline" => first(&mut d.timeline, r, |r| read_records(r, read_event)),
        "events_seen" => first(&mut d.events_seen, r, JsonReader::u64),
        _ => r.skip(),
    })?;
    r.finish()?;
    Ok(d)
}

/// Parse one `vmv-profile/1` document.
pub fn parse_profile(text: &str) -> Result<ProfileDoc, String> {
    // The whole document is read before any field is required, so a
    // syntax error anywhere wins, and required fields are checked in one
    // fixed order (field initialisers evaluate top to bottom): a document
    // missing several always names the same one.
    let d = read_doc(text).map_err(|e| format!("profile JSON: {e}"))?;
    let schema = need_str(d.schema, "schema")?;
    if schema != PROFILE_SCHEMA {
        return Err(format!("unsupported profile schema {schema:?}"));
    }
    let meta = ProfileMeta {
        key: need_str(d.key, "key")?,
        config: need_str(d.config, "config")?,
        benchmark: need_str(d.benchmark, "benchmark")?,
        variant: need_str(d.variant, "variant")?,
        model: need_str(d.model, "model")?,
    };
    Ok(ProfileDoc {
        meta,
        regions: need_records(d.regions, "regions")?,
        blocks: need_records(d.blocks, "blocks")?,
        bundles: need_records(d.bundles, "bundles")?,
        ops: need_records(d.ops, "ops")?,
        timeline: need_records(d.timeline, "timeline")?,
        cycles: need_u64(d.cycles, "cycles")?,
        stall_cycles: need_u64(d.stall_cycles, "stall_cycles")?,
        causes: need_counts(d.causes, "causes")?,
        events_seen: need_u64(d.events_seen, "events_seen")?,
    })
}

/// Load and parse the profile of `key` from `dir`.
pub fn load_profile(dir: &Path, key: &str) -> Result<ProfileDoc, String> {
    let path = path_for(dir, key);
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    parse_profile(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// Load every profile in `dir`, sorted by key.
pub fn load_all(dir: &Path) -> Result<Vec<ProfileDoc>, String> {
    let mut docs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("{}: {e}", dir.display()))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        docs.push(parse_profile(&text).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    docs.sort_by(|a, b| a.meta.key.cmp(&b.meta.key));
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_kernels::Benchmark;
    use vmv_machine::presets;
    use vmv_mem::MemoryModel;
    use vmv_obs::json::Json;

    fn demo_profile() -> (ProfileMeta, Profile) {
        let machine = presets::vector2(2);
        let prepared = vmv_core::prepare(Benchmark::GsmDec, &machine).unwrap();
        let (outcome, profile) =
            vmv_core::simulate_profiled(&prepared, &machine, MemoryModel::Realistic).unwrap();
        profile.check_against(&outcome.stats).unwrap();
        let meta = ProfileMeta {
            key: crate::store::run_key(
                Benchmark::GsmDec,
                vmv_core::variant_for(&machine),
                &machine,
                MemoryModel::Realistic,
            ),
            config: machine.name.clone(),
            benchmark: Benchmark::GsmDec.name().to_string(),
            variant: outcome.variant.name().to_string(),
            model: format!("{:?}", MemoryModel::Realistic),
        };
        (meta, profile)
    }

    #[test]
    fn profile_document_round_trips() {
        let (meta, profile) = demo_profile();
        let text = render_profile(&meta, &profile);
        let doc = parse_profile(&text).unwrap();
        assert_eq!(doc.meta, meta);
        assert_eq!(doc.cycles, profile.total_cycles());
        assert_eq!(doc.stall_cycles, profile.stall_cycles());
        assert_eq!(doc.causes, profile.causes);
        assert_eq!(doc.timeline.len(), profile.timeline.len());
        assert_eq!(doc.events_seen, profile.events_seen);
        // The document's cause totals still satisfy the sum-exactly
        // contract after the round trip.
        assert_eq!(doc.causes.iter().sum::<u64>(), doc.cycles);
        assert_eq!(
            doc.causes[STALL_BASE..].iter().sum::<u64>(),
            doc.stall_cycles
        );
        // Rendering is canonical: a second render is byte-identical.
        assert_eq!(text, render_profile(&meta, &profile));
        assert!(!text.contains('\n'), "one line per document");
    }

    #[test]
    fn unknown_fields_and_causes_are_ignored() {
        let (meta, profile) = demo_profile();
        let mut text = render_profile(&meta, &profile);
        // Splice an unknown top-level field (nested, so `skip` recurses)
        // and an unknown cause name in: a vmv-profile/1 reader must ignore
        // both.
        text = text.replacen(
            "{\"schema\"",
            "{\"future_field\":{\"a\":[1,{\"b\":null}],\"c\":\"\\u0041\"},\"schema\"",
            1,
        );
        text = text.replacen("{\"issue\":", "{\"warp_drive\":7,\"issue\":", 1);
        let doc = parse_profile(&text).unwrap();
        assert_eq!(doc.causes, profile.causes);
        assert_eq!(
            doc,
            parse_profile(&render_profile(&meta, &profile)).unwrap()
        );
    }

    #[test]
    fn escaped_names_and_opcodes_round_trip() {
        let (meta, mut profile) = demo_profile();
        profile.regions[0].name = "LTP \"quoted\" \\ tab\t".to_string();
        let op = profile
            .ops
            .iter()
            .position(|o| o.stalls.iter().any(|&v| v > 0))
            .expect("some op is blamed for a stall");
        profile.ops[op].opcode = "vadd\\\"x".to_string();
        let text = render_profile(&meta, &profile);
        let doc = parse_profile(&text).unwrap();
        assert_eq!(doc.regions[0].name, profile.regions[0].name);
        assert_eq!(doc.ops[0].opcode, profile.ops[op].opcode);
        // A `\u` escape written by another tool decodes too.
        let first = format!("\"name\":{}", Json::str(&profile.regions[0].name).render());
        let text = text.replacen(&first, "\"name\":\"sc\\u0041lar\"", 1);
        assert_eq!(parse_profile(&text).unwrap().regions[0].name, "scAlar");
    }

    /// The demo document with its `events_seen` value replaced.
    fn with_events_seen(value: &str) -> (u64, String) {
        let (meta, profile) = demo_profile();
        let text = render_profile(&meta, &profile);
        let field = format!("\"events_seen\":{}", profile.events_seen);
        assert!(text.contains(&field));
        (
            profile.events_seen,
            text.replacen(&field, &format!("\"events_seen\":{value}"), 1),
        )
    }

    #[test]
    fn whole_numbers_in_any_spelling_read_as_integers() {
        let (events, _) = with_events_seen("0");
        for spelling in [format!("{events}.0"), format!("{events}e0")] {
            let (_, text) = with_events_seen(&spelling);
            assert_eq!(parse_profile(&text).unwrap().events_seen, events);
        }
        for not_a_count in ["-1", "1.5", "\"7\"", "null", "[7]"] {
            let (_, text) = with_events_seen(not_a_count);
            assert_eq!(
                parse_profile(&text).unwrap_err(),
                "missing numeric field \"events_seen\"",
                "{not_a_count}"
            );
        }
        // Integers above 2^53 read exactly (an f64 would round this one
        // down to 2^53).
        let (_, text) = with_events_seen("9007199254740993");
        assert_eq!(parse_profile(&text).unwrap().events_seen, (1 << 53) + 1);
    }

    #[test]
    fn duplicate_keys_keep_the_first_value() {
        let (meta, profile) = demo_profile();
        let text = render_profile(&meta, &profile);
        let dup = text.replacen("{\"schema\"", "{\"cycles\":7,\"schema\"", 1);
        assert_eq!(parse_profile(&dup).unwrap().cycles, 7);
        // The first occurrence decides even when it is mistyped.
        let dup = text.replacen("{\"schema\"", "{\"cycles\":\"7\",\"schema\"", 1);
        assert_eq!(
            parse_profile(&dup).unwrap_err(),
            "missing numeric field \"cycles\""
        );
        // Inside a cause object too: the top-level `causes` comes first.
        let dup = text.replacen("{\"issue\":", "{\"issue\":1,\"issue\":", 1);
        assert_eq!(
            parse_profile(&dup).unwrap().causes[Cause::Issue as usize],
            1
        );
    }

    #[test]
    fn missing_fields_are_named() {
        let (meta, profile) = demo_profile();
        let text = render_profile(&meta, &profile);
        let cut = |field: &str, value: &str| text.replacen(&format!("\"{field}\":{value},"), "", 1);
        let cases = [
            (
                cut("schema", &format!("\"{PROFILE_SCHEMA}\"")),
                "missing string field \"schema\"",
            ),
            (
                cut("cycles", &profile.total_cycles().to_string()),
                "missing numeric field \"cycles\"",
            ),
            (cut("name", "\"scalar\""), "missing string field \"name\""),
            (
                text.replacen("\"regions\":[", "\"regions\":7,\"x\":[", 1),
                "missing array field \"regions\"",
            ),
        ];
        for (doc, message) in cases {
            assert_eq!(parse_profile(&doc).unwrap_err(), message);
        }
        let other = text.replacen(PROFILE_SCHEMA, "vmv-profile/9", 1);
        assert!(parse_profile(&other).unwrap_err().contains("unsupported"));
    }

    #[test]
    fn truncated_and_empty_documents_are_errors() {
        let (meta, profile) = demo_profile();
        let text = render_profile(&meta, &profile);
        assert!(parse_profile("").is_err());
        assert!(parse_profile("  \n").is_err());
        let cuts = (0..text.len())
            .step_by(97)
            .chain(text.len() - 8..text.len());
        for end in cuts {
            let err = parse_profile(&text[..end]).unwrap_err();
            assert!(err.starts_with("profile JSON: "), "{end}: {err}");
        }
    }

    #[test]
    fn over_deep_documents_fail_to_load() {
        let dir = std::env::temp_dir().join(format!("vmv_profiles_deep_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let hostile = format!(
            "{{\"schema\":\"{PROFILE_SCHEMA}\",\"x\":{}",
            "[".repeat(200_000)
        );
        std::fs::write(path_for(&dir, "00000000deadbeef"), hostile).unwrap();
        let err = load_all(&dir).unwrap_err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(err.contains("deeper than"), "{err}");
    }

    #[test]
    fn default_dir_appends_profiles_suffix() {
        let dir = default_dir(Path::new("results/sweep.jsonl"));
        assert_eq!(dir, PathBuf::from("results/sweep.jsonl.profiles"));
    }
}
