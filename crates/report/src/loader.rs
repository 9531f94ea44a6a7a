//! The header-aware store loader: reads a JSONL result store — headered or
//! legacy headerless — and reports *everything* it had to skip, with line
//! numbers, instead of silently ignoring it the way the bulk readers in
//! `vmv_sweep::store` (rightly) do on the hot path.
//!
//! The loader never fails on content: a malformed line, a `cat`-merged
//! mid-file header or a duplicate key each produce a [`StoreDiagnostic`]
//! and the load continues.  Only I/O errors propagate.  A line the JSON
//! reader refuses under its nesting or size limits is diagnosed too, and
//! also recorded in [`LoadedStore::refused`] so front ends can reject the
//! file outright.

use std::collections::HashSet;
use std::io::BufRead;
use std::path::{Path, PathBuf};

use vmv_kernels::Benchmark;
use vmv_sweep::json::JsonErrorKind;
use vmv_sweep::store::{classify_store_line, RunRecord, StoreHeader, StoreLine};

/// One thing the loader skipped or distrusts, anchored to a 1-based line
/// number so `path:line: message` is directly clickable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoreDiagnostic {
    pub line: usize,
    pub message: String,
}

impl std::fmt::Display for StoreDiagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

/// A result store read for analysis: the header (when the file has one),
/// the well-formed records deduplicated by run key (first occurrence wins —
/// the same policy as `vmv_sweep::matched_records`), and a diagnostic for
/// every line that did not contribute.
#[derive(Debug, Clone)]
pub struct LoadedStore {
    pub path: PathBuf,
    /// The spec header, when the first line carries one (stores written by
    /// `sweep --spec`/`--demo` since the declarative API).  Legacy stores
    /// load with `None` — records still work; pareto/sensitivity need the
    /// header to recover the design points.
    pub header: Option<StoreHeader>,
    /// Well-formed records, first occurrence per run key, in file order.
    pub records: Vec<RunRecord>,
    /// Duplicate-key records dropped (each also gets a diagnostic).
    pub duplicate_keys: usize,
    /// Line-numbered report of everything skipped or suspicious.
    pub diagnostics: Vec<StoreDiagnostic>,
    /// The first line over the JSON reader's nesting or size limits.  A
    /// torn record never nests that deep, so such a file was not written
    /// by a sweep and should not be reported on.
    pub refused: Option<StoreDiagnostic>,
}

impl LoadedStore {
    /// Load the store at `path`.  Only I/O errors fail; content problems
    /// become diagnostics.
    pub fn from_path(path: impl AsRef<Path>) -> std::io::Result<LoadedStore> {
        let path = path.as_ref();
        let file = std::fs::File::open(path)?;
        let mut loaded = LoadedStore::from_lines(std::io::BufReader::new(file).lines())?;
        loaded.path = path.to_path_buf();
        Ok(loaded)
    }

    /// Load from in-memory text (tests, pipes).
    pub fn from_text(text: &str) -> LoadedStore {
        LoadedStore::from_lines(text.lines().map(|l| Ok(l.to_string())))
            .expect("in-memory load cannot fail on I/O")
    }

    fn from_lines(
        lines: impl Iterator<Item = std::io::Result<String>>,
    ) -> std::io::Result<LoadedStore> {
        let mut loaded = LoadedStore {
            path: PathBuf::new(),
            header: None,
            records: Vec::new(),
            duplicate_keys: 0,
            diagnostics: Vec::new(),
            refused: None,
        };
        let mut seen: HashSet<String> = HashSet::new();
        for (i, line) in lines.enumerate() {
            let line = line?;
            let number = i + 1;
            let diag = |message: String| StoreDiagnostic {
                line: number,
                message,
            };
            match classify_store_line(&line) {
                StoreLine::Blank => {}
                StoreLine::Record(r) => {
                    if !seen.insert(r.key.clone()) {
                        loaded.duplicate_keys += 1;
                        loaded.diagnostics.push(diag(format!(
                            "duplicate run key {} (first occurrence kept; \
                             run `sweep --compact` to rewrite the store)",
                            r.key
                        )));
                        continue;
                    }
                    if Benchmark::from_name(&r.benchmark).is_none() {
                        loaded.diagnostics.push(diag(format!(
                            "record names unknown benchmark '{}'",
                            r.benchmark
                        )));
                    }
                    if vmv_core::variant_from_name(&r.variant).is_none() {
                        loaded.diagnostics.push(diag(format!(
                            "record names unknown ISA variant '{}'",
                            r.variant
                        )));
                    }
                    loaded.records.push(r);
                }
                StoreLine::Header(h) => {
                    if number == 1 {
                        loaded.header = Some(h);
                    } else {
                        loaded.diagnostics.push(diag(format!(
                            "spec header for '{}' in the middle of the file \
                             (cat-merged shards? use `sweep --merge`); ignored",
                            h.name
                        )));
                    }
                }
                StoreLine::Unrecognized(v) => {
                    let what = if v.get("spec_header").is_some() {
                        if number == 1 {
                            "unrecognised spec-header version (written by a newer \
                             tool?); reading the store as headerless"
                                .to_string()
                        } else {
                            "unrecognised spec-header version in the middle of the \
                             file (written by a newer tool?); line ignored"
                                .to_string()
                        }
                    } else {
                        format!(
                            "not a run record (missing or mistyped fields): {}",
                            truncate(&v.render(), 80)
                        )
                    };
                    loaded.diagnostics.push(diag(what));
                }
                StoreLine::Malformed(e) => {
                    let d = diag(format!("not valid JSON ({e}): {}", truncate(&line, 80)));
                    if e.kind() != JsonErrorKind::Syntax && loaded.refused.is_none() {
                        loaded.refused = Some(d.clone());
                    }
                    loaded.diagnostics.push(d);
                }
            }
        }
        Ok(loaded)
    }
}

fn truncate(s: &str, max: usize) -> String {
    if s.len() <= max {
        s.to_string()
    } else {
        let mut end = max;
        while !s.is_char_boundary(end) {
            end -= 1;
        }
        format!("{}...", &s[..end])
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use vmv_sweep::{Json, ResultStore};

    pub(crate) fn record(key: &str, benchmark: &str, cycles: u64) -> RunRecord {
        RunRecord {
            key: key.to_string(),
            config: "2w/vu1/ln2".to_string(),
            benchmark: benchmark.to_string(),
            variant: "vector".to_string(),
            model: "Realistic".to_string(),
            cycles,
            stall_cycles: 0,
            operations: 100,
            micro_ops: 400,
            vector_cycles: cycles / 2,
            check_ok: true,
        }
    }

    fn header(name: &str) -> StoreHeader {
        StoreHeader {
            name: name.to_string(),
            fingerprint: "00ff00ff00ff00ff".to_string(),
            spec: Json::Obj(vec![("axes".into(), Json::Arr(vec![]))]),
        }
    }

    #[test]
    fn headered_store_loads_with_no_diagnostics() {
        let text = format!(
            "{}\n{}\n{}\n",
            header("demo").to_json().render(),
            record("aaaa000011112222", "GSM_DEC", 10).to_json().render(),
            record("bbbb000011112222", "GSM_ENC", 20).to_json().render(),
        );
        let loaded = LoadedStore::from_text(&text);
        assert_eq!(loaded.header.as_ref().unwrap().name, "demo");
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.duplicate_keys, 0);
        assert!(loaded.diagnostics.is_empty(), "{:?}", loaded.diagnostics);
    }

    #[test]
    fn legacy_headerless_store_loads_cleanly() {
        let text = format!(
            "{}\n\n{}\n",
            record("aaaa000011112222", "GSM_DEC", 10).to_json().render(),
            record("bbbb000011112222", "GSM_ENC", 20).to_json().render(),
        );
        let loaded = LoadedStore::from_text(&text);
        assert_eq!(loaded.header, None);
        assert_eq!(loaded.records.len(), 2);
        assert!(loaded.diagnostics.is_empty());
    }

    #[test]
    fn malformed_lines_are_diagnosed_with_line_numbers() {
        let text = format!(
            "{}\n{{\"key\":\"trunc\n{}\n",
            record("aaaa000011112222", "GSM_DEC", 10).to_json().render(),
            record("bbbb000011112222", "GSM_ENC", 20).to_json().render(),
        );
        let loaded = LoadedStore::from_text(&text);
        assert_eq!(loaded.records.len(), 2, "good lines still load");
        assert_eq!(loaded.diagnostics.len(), 1);
        assert_eq!(loaded.diagnostics[0].line, 2);
        assert!(loaded.diagnostics[0].message.contains("not valid JSON"));
    }

    #[test]
    fn lines_over_the_json_limits_are_refused_not_skipped() {
        let text = format!(
            "{}\n{}\n{}\n",
            record("aaaa000011112222", "GSM_DEC", 10).to_json().render(),
            "[".repeat(200_000),
            "{\"torn\":",
        );
        let loaded = LoadedStore::from_text(&text);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.diagnostics.len(), 2);
        let refused = loaded.refused.expect("the deep line is refused");
        assert_eq!(refused.line, 2);
        assert!(
            refused.message.contains("deeper than"),
            "{}",
            refused.message
        );
        // A torn line alone is an ordinary diagnostic.
        assert_eq!(LoadedStore::from_text("{\"torn\":\n").refused, None);
    }

    #[test]
    fn garbage_and_future_headers_read_as_headerless() {
        // A truncated header line (crash while stamping) is malformed JSON.
        let truncated = format!(
            "{{\"spec_header\":1,\"name\":\"de\n{}\n",
            record("aaaa000011112222", "GSM_DEC", 10).to_json().render()
        );
        let loaded = LoadedStore::from_text(&truncated);
        assert_eq!(loaded.header, None);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.diagnostics[0].line, 1);

        // A future header version is valid JSON but unrecognised.
        let future = "{\"spec_header\":2,\"name\":\"future\",\"fingerprint\":\"00\",\"spec\":{}}\n";
        let loaded = LoadedStore::from_text(future);
        assert_eq!(loaded.header, None);
        assert_eq!(loaded.diagnostics.len(), 1);
        assert!(
            loaded.diagnostics[0]
                .message
                .contains("unrecognised spec-header version"),
            "{}",
            loaded.diagnostics[0].message
        );
    }

    #[test]
    fn cat_merged_stores_diagnose_midfile_headers_and_duplicates() {
        // Simulate `cat a.jsonl b.jsonl`: two headers, one shared key.
        let text = format!(
            "{}\n{}\n{}\n{}\n{}\n",
            header("shard_a").to_json().render(),
            record("aaaa000011112222", "GSM_DEC", 10).to_json().render(),
            header("shard_b").to_json().render(),
            record("aaaa000011112222", "GSM_DEC", 99).to_json().render(),
            record("bbbb000011112222", "GSM_ENC", 20).to_json().render(),
        );
        let loaded = LoadedStore::from_text(&text);
        assert_eq!(loaded.header.as_ref().unwrap().name, "shard_a");
        assert_eq!(loaded.records.len(), 2);
        assert_eq!(loaded.records[0].cycles, 10, "first occurrence wins");
        assert_eq!(loaded.duplicate_keys, 1);
        let lines: Vec<usize> = loaded.diagnostics.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![3, 4]);
        assert!(loaded.diagnostics[0].message.contains("middle of the file"));
        assert!(loaded.diagnostics[1].message.contains("duplicate run key"));
    }

    #[test]
    fn unknown_benchmark_and_variant_names_are_flagged() {
        let mut bad = record("aaaa000011112222", "SPEC_CPU", 10);
        bad.variant = "mmx".to_string();
        let loaded = LoadedStore::from_text(&format!("{}\n", bad.to_json().render()));
        assert_eq!(loaded.records.len(), 1, "still loaded — analyses decide");
        assert_eq!(loaded.diagnostics.len(), 2);
        assert!(loaded.diagnostics[0].message.contains("SPEC_CPU"));
        assert!(loaded.diagnostics[1].message.contains("mmx"));
    }

    #[test]
    fn loader_agrees_with_resultstore_on_merged_stores() {
        // Build a real merged store through ResultStore and check the two
        // readers agree on record content.
        let mut path = std::env::temp_dir();
        path.push(format!("vmv_report_loader_{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let shard = {
            let mut p = std::env::temp_dir();
            p.push(format!(
                "vmv_report_loader_shard_{}.jsonl",
                std::process::id()
            ));
            let _ = std::fs::remove_file(&p);
            p
        };
        ResultStore::open(&shard)
            .append(&[
                record("aaaa000011112222", "GSM_DEC", 10),
                record("bbbb000011112222", "GSM_ENC", 20),
            ])
            .unwrap();
        let dest = ResultStore::open(&path);
        dest.append(&[record("aaaa000011112222", "GSM_DEC", 10)])
            .unwrap();
        dest.merge_from(&[&shard]).unwrap();

        let loaded = LoadedStore::from_path(&path).unwrap();
        assert_eq!(loaded.records, dest.load().unwrap());
        assert_eq!(loaded.duplicate_keys, 0, "merge already deduplicated");
        assert!(loaded.diagnostics.is_empty());
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&shard);
    }

    #[test]
    fn missing_file_is_an_io_error_not_a_panic() {
        assert!(LoadedStore::from_path("/nonexistent/store.jsonl").is_err());
    }
}
