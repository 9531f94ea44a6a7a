//! Frozen recorder state and its canonical JSON form.
//!
//! A [`Snapshot`] is plain data — no atomics — produced by
//! [`crate::recorder::Recorder::snapshot`] and rendered with the in-tree
//! [`crate::json`] value type, so `sweep --metrics`, the bench trajectory
//! and tests all share one schema:
//!
//! ```json
//! {"schema":"vmv-metrics/1","enabled":true,
//!  "cache_hit_rate":0.75,
//!  "counters":{"cache_hits":3,...},
//!  "spans":{"job_compile_ns":{"count":4,"sum_ns":812345,"buckets":[0,1,...]}},
//!  "hists":{"replay_batch_width":{"count":12,"sum":48,"buckets":[0,0,0,12]}},
//!  "workers":[{"worker":0,"jobs":4,"busy_ns":812345}]}
//! ```
//!
//! `cache_hit_rate` (hits / lookups), `trace_replay_rate` (replays /
//! completed simulations), `mean_batch_width` (variants per batched
//! replay walk) and `replay_lane_ratio` (lanes walked / replays) are
//! derived and re-derived on parse, so the schema stays redundancy-free;
//! consumers that only want the headline numbers never have to do
//! arithmetic.  The `hists` section (plain value histograms, no nanosecond
//! unit) and the `replay_lanes` counter were added after the schema
//! shipped; documents without them parse to an empty section and an absent
//! counter (no derived ratio), so old snapshots stay readable.

use crate::hist::HistSnapshot;
use crate::json::Json;

/// Identifies the snapshot schema in every rendered document.
pub const SCHEMA: &str = "vmv-metrics/1";

/// One worker's lifetime totals from the sweep executor pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSnapshot {
    pub worker: usize,
    pub jobs: u64,
    pub busy_ns: u64,
}

/// A frozen view of a recorder: every counter (in declaration order),
/// every span histogram, and the per-worker totals that saw activity.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub enabled: bool,
    pub counters: Vec<(String, u64)>,
    pub spans: Vec<(String, HistSnapshot)>,
    /// Plain value histograms (dimensionless samples, e.g. batch widths).
    pub hists: Vec<(String, HistSnapshot)>,
    pub workers: Vec<WorkerSnapshot>,
}

impl Snapshot {
    /// Look up a counter by its snake_case name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a span histogram by name.
    pub fn span(&self, name: &str) -> Option<&HistSnapshot> {
        self.spans.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Look up a value histogram by name.
    pub fn hist(&self, name: &str) -> Option<&HistSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// Compile-cache hit rate in [0, 1]; `None` before any lookup.
    pub fn cache_hit_rate(&self) -> Option<f64> {
        let hits = self.counter("cache_hits")?;
        let misses = self.counter("cache_misses")?;
        let total = hits + misses;
        (total > 0).then(|| hits as f64 / total as f64)
    }

    /// Fraction of completed simulations served by trace replay instead of
    /// functional execution, in [0, 1]; `None` before any simulation.
    pub fn trace_replay_rate(&self) -> Option<f64> {
        let replays = self.counter("trace_replays")?;
        let executed = self.counter("sim_runs")?;
        let total = replays + executed;
        (total > 0).then(|| replays as f64 / total as f64)
    }

    /// Mean number of variants retimed per batched replay walk; `None`
    /// before any batch.
    pub fn mean_batch_width(&self) -> Option<f64> {
        let h = self.hist("replay_batch_width")?;
        (h.count > 0).then(|| h.sum as f64 / h.count as f64)
    }

    /// Lanes walked per requested replay, in (0, 1]: below 1 when batches
    /// held timing-equivalent variants; `None` before any replay or in a
    /// document that predates the `replay_lanes` counter.
    pub fn replay_lane_ratio(&self) -> Option<f64> {
        let lanes = self.counter("replay_lanes")?;
        let replays = self.counter("trace_replays")?;
        (replays > 0).then(|| lanes as f64 / replays as f64)
    }

    /// Full canonical JSON document: every counter (zero or not), every
    /// span, schema tag first.
    pub fn to_json(&self) -> Json {
        self.render(false)
    }

    /// Compact variant for embedding (bench trajectory entries): zero
    /// counters and empty spans are omitted, everything else identical.
    pub fn to_json_compact(&self) -> Json {
        self.render(true)
    }

    fn render(&self, compact: bool) -> Json {
        let mut root = Json::Obj(Vec::new());
        if let Json::Obj(fields) = &mut root {
            fields.push(("schema".into(), Json::str(SCHEMA)));
            fields.push(("enabled".into(), Json::Bool(self.enabled)));
            if let Some(rate) = self.cache_hit_rate() {
                fields.push(("cache_hit_rate".into(), Json::Num(rate)));
            }
            if let Some(rate) = self.trace_replay_rate() {
                fields.push(("trace_replay_rate".into(), Json::Num(rate)));
            }
            if let Some(width) = self.mean_batch_width() {
                fields.push(("mean_batch_width".into(), Json::Num(width)));
            }
            if let Some(ratio) = self.replay_lane_ratio() {
                fields.push(("replay_lane_ratio".into(), Json::Num(ratio)));
            }
            let counters: Vec<(String, Json)> = self
                .counters
                .iter()
                .filter(|(_, v)| !compact || *v > 0)
                .map(|(n, v)| (n.clone(), Json::u64(*v)))
                .collect();
            fields.push(("counters".into(), Json::Obj(counters)));
            let spans: Vec<(String, Json)> = self
                .spans
                .iter()
                .filter(|(_, h)| !compact || h.count > 0)
                .map(|(n, h)| (n.clone(), hist_json(h, "sum_ns")))
                .collect();
            fields.push(("spans".into(), Json::Obj(spans)));
            let hists: Vec<(String, Json)> = self
                .hists
                .iter()
                .filter(|(_, h)| !compact || h.count > 0)
                .map(|(n, h)| (n.clone(), hist_json(h, "sum")))
                .collect();
            if !compact || !hists.is_empty() {
                fields.push(("hists".into(), Json::Obj(hists)));
            }
            if !compact || !self.workers.is_empty() {
                fields.push((
                    "workers".into(),
                    Json::Arr(
                        self.workers
                            .iter()
                            .map(|w| {
                                Json::Obj(vec![
                                    ("worker".into(), Json::u64(w.worker as u64)),
                                    ("jobs".into(), Json::u64(w.jobs)),
                                    ("busy_ns".into(), Json::u64(w.busy_ns)),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
        }
        root
    }

    /// Parse a snapshot document (full or compact).  Counters or spans the
    /// document omits are simply absent from the result — compact-rendered
    /// zeros stay zero-by-omission, and [`Snapshot::counter`] returns
    /// `None` for them.
    pub fn from_json(doc: &Json) -> Result<Snapshot, String> {
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported metrics schema {other:?}")),
            None => return Err("missing metrics schema tag".into()),
        }
        let enabled = doc
            .get("enabled")
            .and_then(Json::as_bool)
            .ok_or("missing enabled flag")?;
        let mut counters = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("counters") {
            for (name, v) in fields {
                let v = v
                    .as_u64()
                    .ok_or_else(|| format!("counter {name} is not a u64"))?;
                counters.push((name.clone(), v));
            }
        }
        let mut spans = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("spans") {
            for (name, h) in fields {
                spans.push((name.clone(), hist_from_json(name, h, "sum_ns")?));
            }
        }
        // Pre-batching documents have no `hists` section: parse to empty.
        let mut hists = Vec::new();
        if let Some(Json::Obj(fields)) = doc.get("hists") {
            for (name, h) in fields {
                hists.push((name.clone(), hist_from_json(name, h, "sum")?));
            }
        }
        let mut workers = Vec::new();
        if let Some(Json::Arr(items)) = doc.get("workers") {
            for item in items {
                let field = |k: &str| {
                    item.get(k)
                        .and_then(Json::as_u64)
                        .ok_or_else(|| format!("worker entry missing {k}"))
                };
                workers.push(WorkerSnapshot {
                    worker: field("worker")? as usize,
                    jobs: field("jobs")?,
                    busy_ns: field("busy_ns")?,
                });
            }
        }
        Ok(Snapshot {
            enabled,
            counters,
            spans,
            hists,
            workers,
        })
    }

    /// Parse from JSON text (convenience over [`Snapshot::from_json`]).
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let doc = Json::parse(text).map_err(|e| {
            format!(
                "metrics JSON invalid at byte {}: {}",
                e.offset(),
                e.message()
            )
        })?;
        Snapshot::from_json(&doc)
    }
}

fn hist_json(h: &HistSnapshot, sum_key: &str) -> Json {
    Json::Obj(vec![
        ("count".into(), Json::u64(h.count)),
        (sum_key.into(), Json::u64(h.sum)),
        (
            "buckets".into(),
            Json::Arr(h.buckets.iter().map(|&b| Json::u64(b)).collect()),
        ),
    ])
}

fn hist_from_json(name: &str, h: &Json, sum_key: &str) -> Result<HistSnapshot, String> {
    let count = h
        .get("count")
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("histogram {name} missing count"))?;
    let sum = h
        .get(sum_key)
        .and_then(Json::as_u64)
        .ok_or_else(|| format!("histogram {name} missing {sum_key}"))?;
    let buckets = match h.get("buckets") {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|b| {
                b.as_u64()
                    .ok_or_else(|| format!("histogram {name} bucket not a u64"))
            })
            .collect::<Result<Vec<u64>, String>>()?,
        _ => return Err(format!("histogram {name} missing buckets")),
    };
    Ok(HistSnapshot {
        count,
        sum,
        buckets,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{Counter, Recorder, SpanKind, ValueHist};

    fn busy_recorder() -> Recorder {
        let r = Recorder::new();
        r.set_enabled(true);
        r.add(Counter::CacheHits, 3);
        r.incr(Counter::CacheMisses);
        r.add(Counter::SchedReadyScans, 1234);
        r.record_ns(SpanKind::JobCompile, 0);
        r.record_ns(SpanKind::JobCompile, 900);
        r.record_ns(SpanKind::JobSimulate, 1_500_000);
        r.worker_record(0, 4, 812_345);
        r
    }

    #[test]
    fn full_json_round_trips_exactly() {
        let snap = busy_recorder().snapshot();
        let text = snap.to_json().render();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        // Canonical: re-rendering the parse is byte-identical.
        assert_eq!(back.to_json().render(), text);
    }

    #[test]
    fn schema_and_derived_fields_are_present() {
        let snap = busy_recorder().snapshot();
        let doc = snap.to_json();
        assert_eq!(doc.get("schema").and_then(Json::as_str), Some(SCHEMA));
        let rate = doc.get("cache_hit_rate").and_then(Json::as_f64).unwrap();
        assert!((rate - 0.75).abs() < 1e-12);
        assert_eq!(snap.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn compact_form_omits_zeros_but_parses_back() {
        let snap = busy_recorder().snapshot();
        let compact = snap.to_json_compact().render();
        assert!(
            !compact.contains("store_records_appended"),
            "zero counters omitted"
        );
        assert!(!compact.contains("store_append_ns"), "empty spans omitted");
        let back = Snapshot::parse(&compact).unwrap();
        assert_eq!(back.counter("cache_hits"), Some(3));
        assert_eq!(back.counter("store_records_appended"), None);
        assert_eq!(back.span("job_compile_ns").unwrap().count, 2);
        assert_eq!(back.cache_hit_rate(), Some(0.75));
    }

    #[test]
    fn trace_replay_rate_is_derived_and_round_trips() {
        let r = busy_recorder();
        r.incr(Counter::SimRuns);
        r.add(Counter::TraceReplays, 3);
        let snap = r.snapshot();
        assert_eq!(snap.trace_replay_rate(), Some(0.75));
        let doc = snap.to_json();
        let rate = doc.get("trace_replay_rate").and_then(Json::as_f64).unwrap();
        assert!((rate - 0.75).abs() < 1e-12);
        let text = doc.render();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(back.trace_replay_rate(), Some(0.75));
        assert_eq!(back.to_json().render(), text, "canonical across the trip");
        // No simulations at all → no rate, no field.
        let idle = busy_recorder().snapshot();
        assert_eq!(idle.trace_replay_rate(), None);
        assert!(idle.to_json().get("trace_replay_rate").is_none());
    }

    #[test]
    fn value_hists_round_trip_and_derive_mean_batch_width() {
        let r = busy_recorder();
        for w in [4u64, 4, 4, 8] {
            r.add(Counter::ReplayBatches, 1);
            r.record_value(ValueHist::ReplayBatchWidth, w);
        }
        let snap = r.snapshot();
        assert_eq!(snap.mean_batch_width(), Some(5.0));
        let doc = snap.to_json();
        let width = doc.get("mean_batch_width").and_then(Json::as_f64).unwrap();
        assert!((width - 5.0).abs() < 1e-12);
        let hist = doc.get("hists").unwrap().get("replay_batch_width").unwrap();
        assert_eq!(hist.get("count").and_then(Json::as_u64), Some(4));
        assert_eq!(hist.get("sum").and_then(Json::as_u64), Some(20));
        // Full and compact forms both survive the round trip.
        let text = doc.render();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json().render(), text);
        let compact = Snapshot::parse(&snap.to_json_compact().render()).unwrap();
        assert_eq!(compact.mean_batch_width(), Some(5.0));
        // An idle recorder renders no hists in compact form and derives
        // no width.
        let idle = busy_recorder().snapshot();
        assert_eq!(idle.mean_batch_width(), None);
        assert!(!idle.to_json_compact().render().contains("hists"));
    }

    #[test]
    fn documents_without_a_hists_section_still_parse() {
        // A pre-batching snapshot (schema unchanged, section absent) must
        // stay readable: hists parse to empty, derived width to None.  Its
        // `trace_replay_ns` span is no longer recorded but is kept by name.
        let old = "{\"schema\":\"vmv-metrics/1\",\"enabled\":true,\
                   \"counters\":{\"sim_runs\":2},\"spans\":{\"trace_replay_ns\":\
                   {\"count\":2,\"sum_ns\":900,\"buckets\":[0,2]}}}";
        let snap = Snapshot::parse(old).unwrap();
        assert!(snap.hists.is_empty());
        assert_eq!(snap.mean_batch_width(), None);
        assert_eq!(snap.counter("sim_runs"), Some(2));
        let span = snap.span("trace_replay_ns").unwrap();
        assert_eq!((span.count, span.sum), (2, 900));
    }

    #[test]
    fn replay_lane_ratio_is_derived_and_round_trips() {
        let r = busy_recorder();
        r.add(Counter::TraceReplays, 8);
        r.add(Counter::ReplayLanes, 2);
        let snap = r.snapshot();
        assert_eq!(snap.replay_lane_ratio(), Some(0.25));
        let doc = snap.to_json();
        let ratio = doc.get("replay_lane_ratio").and_then(Json::as_f64).unwrap();
        assert!((ratio - 0.25).abs() < 1e-12);
        let text = doc.render();
        let back = Snapshot::parse(&text).unwrap();
        assert_eq!(back, snap);
        assert_eq!(back.to_json().render(), text, "canonical across the trip");
        let compact = Snapshot::parse(&snap.to_json_compact().render()).unwrap();
        assert_eq!(compact.counter("replay_lanes"), Some(2));
        assert_eq!(compact.replay_lane_ratio(), Some(0.25));
        // No replays → no ratio, no field.
        let idle = busy_recorder().snapshot();
        assert_eq!(idle.replay_lane_ratio(), None);
        assert!(idle.to_json().get("replay_lane_ratio").is_none());
    }

    #[test]
    fn documents_without_the_replay_lanes_counter_still_parse() {
        // A snapshot written before lanes were counted: replays but no
        // `replay_lanes` key.  It loads, and derives no lane ratio.
        let old = "{\"schema\":\"vmv-metrics/1\",\"enabled\":true,\
                   \"trace_replay_rate\":0.75,\
                   \"counters\":{\"sim_runs\":1,\"trace_replays\":3,\"replay_batches\":1},\
                   \"spans\":{}}";
        let snap = Snapshot::parse(old).unwrap();
        assert_eq!(snap.counter("trace_replays"), Some(3));
        assert_eq!(snap.counter("replay_lanes"), None);
        assert_eq!(snap.replay_lane_ratio(), None);
        assert!(snap.to_json().get("replay_lane_ratio").is_none());
    }

    #[test]
    fn idle_recorder_has_no_hit_rate_field() {
        let snap = Recorder::new().snapshot();
        assert_eq!(snap.cache_hit_rate(), None);
        assert!(snap.to_json().get("cache_hit_rate").is_none());
        let back = Snapshot::parse(&snap.to_json().render()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn wrong_or_missing_schema_is_rejected() {
        assert!(
            Snapshot::parse("{\"schema\":\"vmv-metrics/999\",\"enabled\":true}")
                .unwrap_err()
                .contains("unsupported")
        );
        assert!(Snapshot::parse("{\"enabled\":true}")
            .unwrap_err()
            .contains("missing metrics schema"));
    }
}
