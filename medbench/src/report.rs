//! Statistics, the per-layer breakdown of the traced run, and the result
//! lines.

use crate::inputs::{Expect, Plan, Workload};
use crate::load::{Outcome, Reply, Round};
use crate::trace::{summarize, Replayer, Tracer};
use crate::{config, restore, Ctx, Served};
use medshield_serve::{json, DurableStore};
use std::path::Path;
use std::time::Instant;

/// One reported figure.
pub struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Metric {
        Metric { name, value, unit, samples }
    }
}

/// Nearest-rank percentile (`p` in 0..=100); 0 for an empty sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The mean of the middle half of `values` (a quarter dropped at each
/// end): as robust to outliers as the median, and finer than it when each
/// value is coarse (CPU time comes in 10 ms ticks).
pub fn interquartile_mean(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    let middle = &sorted[cut..sorted.len() - cut];
    middle.iter().sum::<f64>() / middle.len().max(1) as f64
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

/// One request of the timed phase that completed successfully.
pub struct Sample {
    pub latency_ms: f64,
    pub write: bool,
}

pub fn samples(plan: &Plan, outcome: &Outcome) -> Vec<Sample> {
    outcome
        .replies
        .iter()
        .enumerate()
        .filter_map(|(i, reply)| {
            reply.response.as_ref().ok().filter(|r| r.is_ok())?;
            Some(Sample { latency_ms: reply.latency.as_secs_f64() * 1e3, write: plan.is_write(i) })
        })
        .collect()
}

/// The end-to-end metrics of a run: the rates are interquartile means over
/// the timed rounds, so a burst on the host that slows a few rounds does not
/// move them.
pub fn end_to_end(setups: &[f64], rounds: &[Round], peak_rss_kib: u64) -> Vec<Metric> {
    let per_round =
        |f: &dyn Fn(&Round) -> f64| interquartile_mean(&rounds.iter().map(f).collect::<Vec<_>>());
    let n = rounds.len();
    vec![
        Metric::new("setup_s", median(setups), "s", setups.len()),
        Metric::new(
            "req_per_s",
            per_round(&|r| r.requests as f64 / r.wall.as_secs_f64()),
            "1/s",
            n,
        ),
        Metric::new(
            "cpu_ms_per_req",
            per_round(&|r| r.cpu.as_secs_f64() * 1e3 / r.requests as f64),
            "ms",
            n,
        ),
        Metric::new("mean_ms", per_round(&|r| r.mean_latency.as_secs_f64() * 1e3), "ms", n),
        Metric::new("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB", 1),
    ]
}

/// Print every metric as a line, then the result object as the last line.
pub fn print(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) {
    let mut fields = Vec::with_capacity(metrics.len());
    for m in metrics {
        println!("metric {} = {} {} (n={})", m.name, m.value, m.unit, m.samples);
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        fields.push(format!("\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}", m.name, m.unit));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    );
}

impl Workload {
    /// Requests of the list the traced run replays (a prefix).
    fn replay_len(self) -> usize {
        match self {
            Workload::ProtectIngest => 24,
            Workload::DetectScan => 1000,
            Workload::TraceMix => 200,
        }
    }

    /// The layer the workload's reason says should dominate.
    fn predicted_layer(self) -> &'static str {
        match self {
            Workload::ProtectIngest => "binning",
            Workload::DetectScan => "relation",
            Workload::TraceMix => "watermark.detect",
        }
    }
}

/// Replay a prefix of the request list in-process, untraced and traced,
/// over copies of the pre-seeded store in `pristine`; check the replay
/// against the served replies, write the spans to `spans_path`, and derive
/// the per-layer metrics.
pub fn traced(
    workload: Workload,
    ctx: &Ctx,
    plan: &Plan,
    replies: &[Reply],
    served: &Served,
    pristine: &Path,
    spans_path: &Path,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let replay_dir = &pristine.with_file_name("replay");
    let ops = plan.ops(0..workload.replay_len().min(replies.len()));
    let n = ops.len();

    // Recovery of the pre-seeded store, as the server's start-up runs it.
    let mut recovery_ms = Vec::new();
    for _ in 0..3 {
        restore(pristine, replay_dir)?;
        let start = Instant::now();
        let store = DurableStore::open(replay_dir, 0).map_err(|e| e.to_string())?;
        recovery_ms.push(start.elapsed().as_secs_f64() * 1e3);
        drop(store);
    }

    // A warm-up pass (the process's first binning and kernel runs grow its
    // heap), then untraced, traced, untraced: the overhead compares the
    // traced pass with the mean of the two untraced passes around it.
    let mut walls = [0.0f64; 4];
    let mut traced = None;
    for (k, on) in [false, false, true, false].into_iter().enumerate() {
        restore(pristine, replay_dir)?;
        let mut replayer = Replayer::open(ctx, replay_dir, config::SNAPSHOT_EVERY)?;
        let mut tracer = Tracer::new(on);
        let start = Instant::now();
        let mut responses = Vec::with_capacity(n);
        for (i, op) in ops.iter().enumerate() {
            responses.push(replayer.replay(&mut tracer, i, &op.payload)?);
        }
        walls[k] = start.elapsed().as_secs_f64();
        if on {
            // One more snapshot of the replayed store, outside any request,
            // so every workload reports what a compaction costs.
            let start = Instant::now();
            replayer.compact(&mut Tracer::new(false))?;
            let final_snapshot_ns = start.elapsed().as_secs_f64() * 1e9;
            traced = Some((tracer, responses, final_snapshot_ns));
        }
    }
    let (tracer, responses, final_snapshot_ns) = traced.ok_or("no traced replay")?;

    // The replay must reproduce what the server answered.
    let mut failures = Vec::new();
    for (i, (op, replayed)) in ops.iter().zip(&responses).enumerate() {
        let Some(served) = replies.get(i).and_then(|r| r.response.as_ref().ok()) else {
            continue;
        };
        let same = match &op.expect {
            Expect::Protect { .. } | Expect::ProtectFor { .. } => served.body == replayed.body,
            Expect::Detect { .. } => served.json == replayed.json,
            Expect::Leaker { culprits } => json::get_str(&replayed.json, "leaker")
                .is_some_and(|leaker| culprits.contains(&leaker)),
        };
        if !same {
            failures
                .push(format!("request {i}: the in-process replay differs from the served reply"));
        }
    }
    tracer.write(spans_path).map_err(|e| format!("cannot write {spans_path:?}: {e}"))?;

    let s = summarize(&tracer.spans);
    let stats = |name: &str| s.by_name.get(name).copied().unwrap_or_default();
    let per_request = |name: &str| ratio(stats(name).total_ns, stats(name).requests as f64);
    let self_per_request = |name: &str| ratio(stats(name).self_ns, stats(name).requests as f64);
    let us = |name: &str| per_request(name) / 1e3;
    let ms = |name: &str| per_request(name) / 1e6;
    let count = |key: &str| tracer.counts.get(key).copied().unwrap_or(0.0);
    let replay_ns: f64 = s.request_ns.iter().sum();
    let share = |layer: &str| ratio(s.layer_self_ns.get(layer).copied().unwrap_or(0.0), replay_ns);
    let snapshot = stats("serve.store.snapshot");
    let residual_us = served.p50_us - median(&s.request_ns) / 1e3;

    let m = |name: &'static str, value: f64, unit: &'static str| Metric::new(name, value, unit, n);
    let metrics = vec![
        m("binning.per_attribute_ms", ms("binning.per_attribute"), "ms"),
        m(
            "binning.per_attribute_ns_per_row",
            ratio(stats("binning.per_attribute").total_ns, count("binned_rows.per_attribute")),
            "ns/row",
        ),
        m("binning.multi_ms", ms("binning.multi"), "ms"),
        m(
            "binning.satisfied_ratio",
            ratio(count("binning_satisfied"), count("binning_calls")),
            "ratio",
        ),
        m("binning.share", share("binning"), "ratio"),
        m("relation.csv.parse_us", us("relation.csv.parse"), "us"),
        m(
            "relation.csv.parse_ns_per_row",
            ratio(stats("relation.csv.parse").total_ns, count("parse_rows")),
            "ns/row",
        ),
        m("relation.csv.encode_us", us("relation.csv.encode"), "us"),
        m("relation.table.snapshot_us", us("relation.table.snapshot"), "us"),
        m("relation.share", share("relation"), "ratio"),
        m("watermark.embed_plan_us", us("watermark.embed_plan"), "us"),
        m("watermark.embed_prepare_us", us("watermark.embed_prepare"), "us"),
        m("watermark.embed_run_us", us("watermark.embed_run"), "us"),
        m("watermark.embed_apply_us", us("watermark.embed_apply"), "us"),
        m(
            "watermark.selected_per_row",
            ratio(count("embed_selected"), count("embed_rows")),
            "ratio",
        ),
        m(
            "watermark.changed_per_embedded",
            ratio(count("embed_changed"), count("embed_cells")),
            "ratio",
        ),
        m("watermark.embed.share", share("watermark.embed"), "ratio"),
        m("watermark.detect_plan_us", us("watermark.detect_plan"), "us"),
        m("watermark.detect_prepare_us", us("watermark.detect_prepare"), "us"),
        m("watermark.detect_run_us", us("watermark.detect_run"), "us"),
        m("watermark.fingerprint_derive_us", us("watermark.fingerprint_derive"), "us"),
        m("watermark.score_us", us("watermark.score"), "us"),
        m(
            "watermark.candidates_per_resolve",
            ratio(count("candidates"), stats("watermark.score").requests as f64),
            "count",
        ),
        m("watermark.detect.share", share("watermark.detect"), "ratio"),
        m("core.engine.protect_self_us", self_per_request("core.engine.protect") / 1e3, "us"),
        m("core.engine.embed_self_us", self_per_request("core.engine.embed") / 1e3, "us"),
        m("core.engine.detect_self_us", self_per_request("core.engine.detect") / 1e3, "us"),
        m("core.engine.share", share("core.engine"), "ratio"),
        m("serve.store.append_us", us("serve.store.append"), "us"),
        m("serve.store.add_recipient_us", us("serve.store.add_recipient"), "us"),
        m("serve.store.sync_us", us("serve.store.sync"), "us"),
        m(
            "serve.store.snapshot_ms",
            (snapshot.total_ns + final_snapshot_ns) / (snapshot.calls + 1) as f64 / 1e6,
            "ms",
        ),
        m("serve.store.recovery_ms", median(&recovery_ms), "ms"),
        m("serve.store.disk_bytes_per_record", served.disk_bytes_per_record, "B/record"),
        m("serve.store.share", share("serve.store"), "ratio"),
        m("serve.protocol.encode_us", us("serve.protocol.encode"), "us"),
        m("serve.protocol.decode_us", us("serve.protocol.decode"), "us"),
        m("serve.protocol.frame_bytes_per_req", ratio(count("frame_bytes"), n as f64), "B/req"),
        m("serve.protocol.share", share("serve.protocol"), "ratio"),
        m("serve.server.ping_rtt_us", served.ping_rtt_us, "us"),
        m("serve.server.residual_us", residual_us, "us"),
        m("serve.server.batched_ratio", served.batched_ratio, "ratio"),
        m("serve.server.share", ratio(residual_us.max(0.0), served.p50_us), "ratio"),
        m("trace.overhead_ratio", ratio(2.0 * walls[2], walls[1] + walls[3]), "ratio"),
        m("trace.request_us", median(&s.request_ns) / 1e3, "us"),
    ];

    // Which layer took the most self time, against the workload's reason.
    let mut layers: Vec<(&str, f64)> = s.layer_self_ns.iter().map(|(l, ns)| (*l, *ns)).collect();
    layers.sort_by(|a, b| b.1.total_cmp(&a.1));
    let shares: Vec<String> =
        layers.iter().map(|(l, ns)| format!("{l} {:.1}%", 100.0 * ratio(*ns, replay_ns))).collect();
    println!("trace: {n} requests replayed; self time by layer: {}", shares.join(", "));
    let top = layers.first().map_or("none", |(l, _)| *l);
    let predicted = workload.predicted_layer();
    println!(
        "trace: largest self time: {top}; the workload's reason predicts {predicted}: {}",
        if top == predicted { "as predicted" } else { "NOT as predicted" }
    );
    println!("trace: spans written to {}", spans_path.display());
    Ok((metrics, failures))
}
