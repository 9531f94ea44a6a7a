//! Cycle-attribution profile rendering: Markdown tables, Chrome trace
//! timelines and the stacked-bar data behind the HTML Profile section.
//!
//! The input is the parsed `vmv-profile/1` document ([`ProfileDoc`]) that
//! `sweep --profile` writes next to the result store.  Every renderer here
//! is byte-deterministic — tables sort worst-stall-first with the run key,
//! cause order or structural id as the tie breaker, floats print at fixed
//! precision — so rendered profiles can be committed as golden files.
//!
//! The Chrome trace export ([`chrome_trace`]) emits the standard
//! trace-event JSON object form: one `ph:"X"` complete slice per captured
//! bundle issue, on the thread of its scheduler lane, plus `ph:"M"`
//! metadata events naming the lanes.  Load it at `chrome://tracing` or
//! <https://ui.perfetto.dev>; one trace microsecond is one simulated cycle.

use vmv_sweep::json::Json;
use vmv_sweep::profiles::{Cause, ProfileDoc, LANE_NAMES, N_STALLS, STALL_BASE};

/// Stall-cause palette of the stacked bars, indexed like a stall array
/// (`raw`, `wait_l1`, `wait_l2`, `wait_l3`, `wait_mem`, `l2_port`).
pub const STALL_COLORS: [&str; N_STALLS] = [
    "#1d4ed8", "#047857", "#b45309", "#b91c1c", "#6d28d9", "#0e7490",
];

/// Name of one stall-array index (`0 ..= N_STALLS-1`).
fn stall_name(i: usize) -> &'static str {
    Cause::ALL[STALL_BASE + i].name()
}

/// Name of the heaviest stall cause, `-` when nothing stalled.  Ties go to
/// the lower cause index, which is fixed by the taxonomy.
pub fn top_stall(stalls: &[u64; N_STALLS]) -> &'static str {
    let (mut best, mut at) = (0u64, None);
    for (i, &v) in stalls.iter().enumerate() {
        if v > best {
            best = v;
            at = Some(i);
        }
    }
    at.map_or("-", stall_name)
}

fn pct(part: u64, whole: u64) -> String {
    if whole == 0 {
        "-".to_string()
    } else {
        format!("{:.1}%", 100.0 * part as f64 / whole as f64)
    }
}

/// The stall slice of a full cause array.
fn stall_slice(causes: &[u64], out: &mut [u64; N_STALLS]) {
    out.copy_from_slice(&causes[STALL_BASE..STALL_BASE + N_STALLS]);
}

/// Overview of every profiled run of a store, worst stall share first.
pub fn profile_overview_md(title: &str, docs: &[ProfileDoc]) -> String {
    let mut out = String::new();
    out.push_str(&format!("# Profile overview — {title}\n\n"));
    out.push_str(&format!(
        "{} profiled runs; every attributed cycle sums exactly to the run's \
         cycle count, stall causes to its stall count.\n\n",
        docs.len()
    ));
    let mut order: Vec<&ProfileDoc> = docs.iter().collect();
    order.sort_by(|a, b| {
        b.stall_cycles
            .cmp(&a.stall_cycles)
            .then_with(|| a.meta.key.cmp(&b.meta.key))
    });
    out.push_str(
        "| run | design point | benchmark | variant | model | cycles | \
         stalled | stall% | top stall |\n",
    );
    out.push_str("|:--|:--|:--|:--|:--|--:|--:|--:|:--|\n");
    for d in &order {
        let mut stalls = [0u64; N_STALLS];
        stall_slice(&d.causes, &mut stalls);
        out.push_str(&format!(
            "| `{}` | `{}` | {} | {} | {} | {} | {} | {} | {} |\n",
            d.meta.key,
            d.meta.config,
            d.meta.benchmark,
            d.meta.variant,
            d.meta.model,
            d.cycles,
            d.stall_cycles,
            pct(d.stall_cycles, d.cycles),
            top_stall(&stalls),
        ));
    }

    let mut totals = [0u64; N_STALLS];
    let mut all_stalls = 0u64;
    for d in docs {
        let mut stalls = [0u64; N_STALLS];
        stall_slice(&d.causes, &mut stalls);
        for (t, v) in totals.iter_mut().zip(stalls) {
            *t += v;
        }
        all_stalls += d.stall_cycles;
    }
    out.push_str("\n## Stall cycles by cause, all runs\n\n");
    out.push_str("| cause | cycles | share of stalls |\n|:--|--:|--:|\n");
    let mut idx: Vec<usize> = (0..N_STALLS).collect();
    idx.sort_by(|&a, &b| totals[b].cmp(&totals[a]).then(a.cmp(&b)));
    for i in idx {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            stall_name(i),
            totals[i],
            pct(totals[i], all_stalls)
        ));
    }
    out
}

/// Full single-run report: cause totals, then regions, blocks, bundles and
/// blamed producer ops, each worst stall first.
pub fn profile_detail_md(doc: &ProfileDoc) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# Profile — {} on `{}` ({}, {})\n\n",
        doc.meta.benchmark, doc.meta.config, doc.meta.variant, doc.meta.model
    ));
    out.push_str(&format!(
        "Run `{}`: {} cycles, {} stalled ({}), {} bundle issues observed.\n\n",
        doc.meta.key,
        doc.cycles,
        doc.stall_cycles,
        pct(doc.stall_cycles, doc.cycles),
        doc.events_seen
    ));

    out.push_str("## Cycles by cause\n\n| cause | cycles | share |\n|:--|--:|--:|\n");
    let mut idx: Vec<usize> = (0..doc.causes.len()).collect();
    idx.sort_by(|&a, &b| doc.causes[b].cmp(&doc.causes[a]).then(a.cmp(&b)));
    for i in idx {
        out.push_str(&format!(
            "| `{}` | {} | {} |\n",
            Cause::ALL[i].name(),
            doc.causes[i],
            pct(doc.causes[i], doc.cycles)
        ));
    }

    out.push_str("\n## Regions, worst stall first\n\n");
    out.push_str("| region | cycles | stalled | top stall |\n|:--|--:|--:|:--|\n");
    let mut regions: Vec<_> = doc.regions.iter().collect();
    regions.sort_by(|a, b| {
        let (sa, sb) = (
            a.causes[STALL_BASE..].iter().sum::<u64>(),
            b.causes[STALL_BASE..].iter().sum::<u64>(),
        );
        sb.cmp(&sa).then(a.id.cmp(&b.id))
    });
    for r in regions {
        let mut stalls = [0u64; N_STALLS];
        stall_slice(&r.causes, &mut stalls);
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            r.name,
            r.causes.iter().sum::<u64>(),
            stalls.iter().sum::<u64>(),
            top_stall(&stalls)
        ));
    }

    out.push_str("\n## Hottest blocks\n\n");
    out.push_str("| block | region | visits | cycles | stalled | top stall |\n");
    out.push_str("|--:|--:|--:|--:|--:|:--|\n");
    let mut blocks: Vec<_> = doc.blocks.iter().collect();
    blocks.sort_by(|a, b| {
        let (sa, sb) = (
            a.causes[STALL_BASE..].iter().sum::<u64>(),
            b.causes[STALL_BASE..].iter().sum::<u64>(),
        );
        sb.cmp(&sa).then(a.block.cmp(&b.block))
    });
    for b in blocks.iter().take(16) {
        let mut stalls = [0u64; N_STALLS];
        stall_slice(&b.causes, &mut stalls);
        out.push_str(&format!(
            "| {} | {} | {} | {} | {} | {} |\n",
            b.block,
            b.region,
            b.visits,
            b.causes.iter().sum::<u64>(),
            stalls.iter().sum::<u64>(),
            top_stall(&stalls)
        ));
    }

    out.push_str("\n## Worst bundles\n\n");
    out.push_str("| bundle | block | lane | class | issues | stalled | top stall |\n");
    out.push_str("|--:|--:|:--|:--|--:|--:|:--|\n");
    let mut bundles: Vec<_> = doc.bundles.iter().collect();
    bundles.sort_by(|a, b| {
        let (sa, sb) = (a.stalls.iter().sum::<u64>(), b.stalls.iter().sum::<u64>());
        sb.cmp(&sa).then(a.bundle.cmp(&b.bundle))
    });
    for b in bundles.iter().take(16) {
        out.push_str(&format!(
            "| {} | {} | {} | `{}` | {} | {} | {} |\n",
            b.bundle,
            b.block,
            LANE_NAMES.get(b.lane as usize).unwrap_or(&"?"),
            b.class,
            b.issues,
            b.stalls.iter().sum::<u64>(),
            top_stall(&b.stalls)
        ));
    }

    out.push_str("\n## Blamed producer ops\n\n");
    out.push_str("| op | bundle | opcode | stall cycles charged | top stall |\n");
    out.push_str("|--:|--:|:--|--:|:--|\n");
    let mut ops: Vec<_> = doc.ops.iter().collect();
    ops.sort_by(|a, b| {
        let (sa, sb) = (a.stalls.iter().sum::<u64>(), b.stalls.iter().sum::<u64>());
        sb.cmp(&sa).then(a.op.cmp(&b.op))
    });
    for o in ops.iter().take(16) {
        out.push_str(&format!(
            "| {} | {} | `{}` | {} | {} |\n",
            o.op,
            o.bundle,
            o.opcode,
            o.stalls.iter().sum::<u64>(),
            top_stall(&o.stalls)
        ));
    }

    out.push_str(&format!(
        "\n{} of {} bundle issues captured in the timeline (`report profile \
         --run KEY --trace` renders them for Perfetto).\n",
        doc.timeline.len(),
        doc.events_seen
    ));
    out
}

/// Chrome trace-event JSON of one run's captured timeline: a `ph:"X"`
/// complete slice per bundle issue on its scheduler lane's thread, `ts` the
/// cycle the bundle started waiting, `dur` the stall plus the issue cycle.
pub fn chrome_trace(doc: &ProfileDoc) -> String {
    // The timeline carries bundle ids; the lane lives on the bundle row.
    let lane_of = |bundle: u32| -> u8 {
        doc.bundles
            .iter()
            .find(|b| b.bundle == bundle)
            .map_or(0, |b| b.lane)
    };
    let mut lanes_used: Vec<u8> = Vec::new();
    for e in &doc.timeline {
        let lane = lane_of(e.bundle);
        if !lanes_used.contains(&lane) {
            lanes_used.push(lane);
        }
    }
    lanes_used.sort_unstable();

    let mut events = Vec::new();
    events.push(Json::Obj(vec![
        ("name".into(), Json::str("process_name")),
        ("ph".into(), Json::str("M")),
        ("pid".into(), Json::u64(0)),
        (
            "args".into(),
            Json::Obj(vec![(
                "name".into(),
                Json::str(format!(
                    "{} on {} ({})",
                    doc.meta.benchmark, doc.meta.config, doc.meta.model
                )),
            )]),
        ),
    ]));
    for lane in &lanes_used {
        events.push(Json::Obj(vec![
            ("name".into(), Json::str("thread_name")),
            ("ph".into(), Json::str("M")),
            ("pid".into(), Json::u64(0)),
            ("tid".into(), Json::u64(*lane as u64)),
            (
                "args".into(),
                Json::Obj(vec![(
                    "name".into(),
                    Json::str(*LANE_NAMES.get(*lane as usize).unwrap_or(&"?")),
                )]),
            ),
        ]));
    }
    for e in &doc.timeline {
        events.push(Json::Obj(vec![
            ("name".into(), Json::str(format!("bundle {}", e.bundle))),
            ("cat".into(), Json::str(&e.cause)),
            ("ph".into(), Json::str("X")),
            ("pid".into(), Json::u64(0)),
            ("tid".into(), Json::u64(lane_of(e.bundle) as u64)),
            ("ts".into(), Json::u64(e.base)),
            ("dur".into(), Json::u64(e.stall + 1)),
            (
                "args".into(),
                Json::Obj(vec![
                    ("bundle".into(), Json::u64(e.bundle as u64)),
                    ("stall".into(), Json::u64(e.stall)),
                    ("cause".into(), Json::str(&e.cause)),
                ]),
            ),
        ]));
    }
    let top = Json::Obj(vec![
        ("traceEvents".into(), Json::Arr(events)),
        ("displayTimeUnit".into(), Json::str("ms")),
        (
            "otherData".into(),
            Json::Obj(vec![
                ("schema".into(), Json::str("vmv-profile/1")),
                ("key".into(), Json::str(&doc.meta.key)),
                ("cycles".into(), Json::u64(doc.cycles)),
                ("events_seen".into(), Json::u64(doc.events_seen)),
            ]),
        ),
    ]);
    let mut text = top.render();
    text.push('\n');
    text
}

/// Per-benchmark stall-cause totals (benchmark-name order), the data rows
/// of the HTML Profile section.
pub fn stalls_by_benchmark(docs: &[ProfileDoc]) -> Vec<(String, [u64; N_STALLS])> {
    let mut rows: Vec<(String, [u64; N_STALLS])> = Vec::new();
    for d in docs {
        let mut stalls = [0u64; N_STALLS];
        stall_slice(&d.causes, &mut stalls);
        match rows.iter_mut().find(|(name, _)| *name == d.meta.benchmark) {
            Some((_, acc)) => {
                for (a, v) in acc.iter_mut().zip(stalls) {
                    *a += v;
                }
            }
            None => rows.push((d.meta.benchmark.clone(), stalls)),
        }
    }
    rows.sort_by(|a, b| a.0.cmp(&b.0));
    rows
}

/// Inline SVG: one horizontal stacked bar of stall-cause cycles per
/// benchmark, sharing one scale, with a cause legend on top.
pub fn stall_stacked_svg(rows: &[(String, [u64; N_STALLS])]) -> String {
    const WIDTH: f64 = 720.0;
    const LABEL_W: f64 = 110.0;
    const BAR_H: f64 = 22.0;
    const GAP: f64 = 8.0;
    const LEGEND_H: f64 = 26.0;
    let max: u64 = rows
        .iter()
        .map(|(_, s)| s.iter().sum::<u64>())
        .max()
        .unwrap_or(0)
        .max(1);
    let height = LEGEND_H + rows.len() as f64 * (BAR_H + GAP) + GAP;
    let mut out = format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH:.0}\" \
         height=\"{height:.0}\" viewBox=\"0 0 {WIDTH:.0} {height:.0}\" \
         role=\"img\">\n"
    );
    let mut lx = LABEL_W;
    for (i, color) in STALL_COLORS.iter().enumerate() {
        out.push_str(&format!(
            "<rect x=\"{lx:.1}\" y=\"6\" width=\"10\" height=\"10\" fill=\"{color}\"/>\
             <text x=\"{:.1}\" y=\"15\" font-family=\"monospace\" font-size=\"11\">{}</text>\n",
            lx + 14.0,
            stall_name(i)
        ));
        lx += 14.0 + 8.0 * stall_name(i).len() as f64 + 16.0;
    }
    for (row, (name, stalls)) in rows.iter().enumerate() {
        let y = LEGEND_H + row as f64 * (BAR_H + GAP);
        out.push_str(&format!(
            "<text x=\"0\" y=\"{:.1}\" font-family=\"monospace\" font-size=\"12\">{}</text>\n",
            y + BAR_H - 6.0,
            crate::html::esc(name)
        ));
        let mut x = LABEL_W;
        for (i, &v) in stalls.iter().enumerate() {
            if v == 0 {
                continue;
            }
            let w = (WIDTH - LABEL_W - 4.0) * v as f64 / max as f64;
            out.push_str(&format!(
                "<rect x=\"{x:.1}\" y=\"{y:.1}\" width=\"{w:.1}\" height=\"{BAR_H:.1}\" \
                 fill=\"{}\"><title>{}: {v}</title></rect>\n",
                STALL_COLORS[i],
                stall_name(i)
            ));
            x += w;
        }
    }
    out.push_str("</svg>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use vmv_sweep::profiles::parse_profile;

    fn demo_doc() -> ProfileDoc {
        use vmv_sweep::profiles::{render_profile, ProfileMeta};
        let machine = vmv_machine::presets::vector2(2);
        let prepared = vmv_core::prepare(vmv_kernels::Benchmark::GsmDec, &machine).unwrap();
        let (outcome, profile) =
            vmv_core::simulate_profiled(&prepared, &machine, vmv_mem::MemoryModel::Realistic)
                .unwrap();
        let meta = ProfileMeta {
            key: "00deadbeef00cafe".to_string(),
            config: machine.name.clone(),
            benchmark: "GSM_DEC".to_string(),
            variant: outcome.variant.name().to_string(),
            model: "Realistic".to_string(),
        };
        parse_profile(&render_profile(&meta, &profile)).unwrap()
    }

    #[test]
    fn markdown_renderers_are_deterministic_and_ordered() {
        let doc = demo_doc();
        let detail = profile_detail_md(&doc);
        assert_eq!(detail, profile_detail_md(&doc));
        assert!(detail.contains("## Cycles by cause"));
        assert!(detail.contains("## Worst bundles"));
        // The worst-first bundle table really is sorted.
        let mut bundles: Vec<_> = doc.bundles.iter().collect();
        bundles.sort_by(|a, b| {
            let (sa, sb) = (a.stalls.iter().sum::<u64>(), b.stalls.iter().sum::<u64>());
            sb.cmp(&sa).then(a.bundle.cmp(&b.bundle))
        });
        if bundles.len() >= 2 {
            let first: u64 = bundles[0].stalls.iter().sum();
            let second: u64 = bundles[1].stalls.iter().sum();
            assert!(first >= second);
        }
        let overview = profile_overview_md("demo", &[doc.clone(), doc]);
        assert!(overview.contains("2 profiled runs"));
    }

    #[test]
    fn chrome_trace_is_wellformed_and_lane_named() {
        let doc = demo_doc();
        let text = chrome_trace(&doc);
        let v = Json::parse(text.trim()).unwrap();
        let events = match v.get("traceEvents") {
            Some(Json::Arr(items)) => items,
            _ => panic!("traceEvents missing"),
        };
        // process_name metadata, at least one thread_name, one X slice per
        // timeline event.
        let xs: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some("X"))
            .collect();
        assert_eq!(xs.len(), doc.timeline.len());
        assert!(events
            .iter()
            .any(|e| e.get("ph").and_then(Json::as_str) == Some("M")));
        for x in xs {
            assert!(x.get("ts").and_then(Json::as_u64).is_some());
            assert!(x.get("dur").and_then(Json::as_u64).unwrap() >= 1);
        }
        assert_eq!(text, chrome_trace(&doc), "byte-deterministic");
    }

    #[test]
    fn stacked_svg_scales_rows_to_one_max() {
        let rows = vec![
            ("A".to_string(), [10, 0, 0, 0, 0, 0]),
            ("B".to_string(), [5, 5, 0, 0, 0, 0]),
        ];
        let svg = stall_stacked_svg(&rows);
        assert!(svg.starts_with("<svg "));
        assert!(svg.contains("raw"), "legend names causes");
        assert_eq!(svg, stall_stacked_svg(&rows));
    }
}
