//! The repository's benchmark: three seeded closed-loop workloads driven
//! through the workspace's public entry points, with every output
//! checked. An untraced pass gives the end-to-end metrics; a separate
//! traced pass times the calls into each layer from here and gives the
//! per-layer metrics. See `README.md` for what each metric means on
//! each workload.

pub mod check;
pub mod churn;
pub mod host;
pub mod layers;
pub mod stats;
pub mod trace;
pub mod workloads;

use check::Tally;
use stats::{median, quantile};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;
use trace::Tracer;
use workloads::Workload;

/// The end-to-end metrics, `(name, unit)`, as `BENCHMARK.json` declares them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("request_ms_p50", "ms"),
    ("completion_ms_p50", "ms"),
    ("scaling_efficiency", "ratio"),
    ("ok_ratio", "ratio"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics, `(name, unit)`, as `BENCHMARK.json` declares them.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("planc.parse_kv_us", "us"),
    ("planc.compile_miss_us", "us"),
    ("planc.compile_hit_us", "us"),
    ("planc.cache.hit_ratio", "ratio"),
    ("planc.cache.lookups", "count"),
    ("planc.cache.evictions", "count"),
    ("planc.compiler.compiles", "count"),
    ("planc.worlds.reuse_ratio", "ratio"),
    ("planc.service.overhead_us", "us"),
    ("tiling_core.parse_nest_us", "us"),
    ("tiling_core.v_star_us", "us"),
    ("tiling_core.pred_ratio", "ratio"),
    ("analyzer.preflight_us", "us"),
    ("analyzer.events", "count"),
    ("analyzer.messages", "count"),
    ("stencil.a1_send_us", "us"),
    ("stencil.a2_compute_us", "us"),
    ("stencil.a3_recv_us", "us"),
    ("stencil.b_wait_us", "us"),
    ("stencil.kernel_cells_per_s", "cells/s"),
    ("stencil.seq_cells_per_s", "cells/s"),
    ("msgpass.world_spawn_us", "us"),
    ("msgpass.slot_pingpong_us", "us"),
    ("msgpass.mpsc_pingpong_us", "us"),
    ("msgpass.pool_allocs_per_step", "count"),
    ("cluster_sim.simulate_us_p50", "us"),
    ("sweep.generate_ms", "ms"),
    ("sweep.ok_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One run's result: a value per declared metric, the checks made, and
/// detail fields printed beside the metrics.
#[derive(Debug)]
pub struct Report {
    /// `(name, unit, value)`; `None` when the run could not measure it.
    pub values: Vec<(&'static str, &'static str, Option<f64>)>,
    /// Checks made and failed.
    pub tally: Tally,
    /// `(key, JSON value)` detail fields.
    pub detail: Vec<(&'static str, String)>,
}

impl Report {
    fn new(
        table: &[(&'static str, &'static str)],
        tally: Tally,
        value: impl Fn(&str) -> Option<f64>,
    ) -> Self {
        let values = table
            .iter()
            .map(|&(name, unit)| (name, unit, value(name).filter(|v| v.is_finite())))
            .collect();
        Report {
            values,
            tally,
            detail: Vec::new(),
        }
    }

    /// Every check passed and every metric was measured.
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.values.iter().all(|v| v.2.is_some())
    }

    /// The result line: `correct`, `attempted`, `failed` and `metrics`.
    pub fn json_line(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, unit, value)) in self.values.iter().enumerate() {
            let sep = if i > 0 { "," } else { "" };
            let _ = write!(
                metrics,
                "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                value.unwrap_or(0.0)
            );
        }
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.tally.attempted.max(1),
            self.tally.failed
        )
    }

    /// The detail fields as one JSON object.
    pub fn detail_json(&self) -> String {
        let fields: Vec<String> = self
            .detail
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The untraced pass: every end-to-end metric, from the calm windows of
/// the timed loop (see [`stats::calm`]): `jobs_per_s` is the median of
/// their rates, and the request and completion times are those taken in
/// them. A loop too short for one window counts whole. The request
/// time's p90 goes in the detail fields, with its unit and sample count,
/// but is not a gated metric: on a shared host, neighbours' scheduling
/// stalls of tens of milliseconds land in the top decile and move it
/// from run to run by more than any bound the benchmark could hold.
pub fn end_to_end(w: Workload, seed: u64, secs: f64) -> Report {
    let mut m = workloads::measure(w, seed, secs, true);
    let tally = std::mem::take(&mut m.tally);
    let ok_ratio = 1.0 - ratio(tally.failed as f64, tally.attempted as f64);
    let calm = stats::calm(&m.windows);
    let rates: Vec<f64> = calm.iter().map(|w| w.rate).collect();
    let (request_ms, completion_ms) = if calm.is_empty() {
        (m.request_ms.clone(), m.completion_ms.clone())
    } else {
        (
            calm.iter()
                .flat_map(|w| m.request_ms[w.requests.clone()].iter().copied())
                .collect(),
            calm.iter()
                .flat_map(|w| m.completion_ms[w.completions.clone()].iter().copied())
                .collect::<Vec<f64>>(),
        )
    };
    let completion = median(&completion_ms);
    let predicted = median(&m.predicted_ms);
    let mut r = Report::new(END_TO_END, tally, |name| match name {
        "setup_s" => median(&m.setup_s),
        "jobs_per_s" => median(&rates).or(Some(ratio(m.jobs as f64, m.timed_s))),
        "request_ms_p50" => median(&request_ms),
        "completion_ms_p50" => completion,
        "scaling_efficiency" => m.scaling.map(|s| s.0),
        "ok_ratio" => Some(ok_ratio),
        "peak_rss_mb" => m.peak_rss_mb,
        _ => None,
    });
    let d = &mut r.detail;
    if let Some(p90) = quantile(&request_ms, 0.9) {
        d.push((
            "request_ms_p90",
            format!(
                "{{\"value\":{p90},\"unit\":\"ms\",\"samples\":{}}}",
                request_ms.len()
            ),
        ));
    }
    d.push((
        "jobs_per_s_whole_loop",
        format!("{}", ratio(m.jobs as f64, m.timed_s)),
    ));
    d.push((
        "windows",
        format!(
            "{{\"calm\":{},\"all\":{},\"max_steal\":{}}}",
            m.windows
                .iter()
                .filter(|w| w.steal <= stats::MAX_STEAL)
                .count(),
            m.windows.len(),
            stats::MAX_STEAL
        ),
    ));
    d.push(("completion_samples", completion_ms.len().to_string()));
    if let (Some(c), Some(p)) = (completion, predicted) {
        d.push(("predicted_ms_p50", format!("{p}")));
        d.push(("completion_over_predicted", format!("{}", c / p)));
    }
    if let Some((_, pairs)) = m.scaling {
        d.push(("scaling_pairs", pairs.to_string()));
    }
    d.push((
        "repeated_key_share",
        format!("{}", ratio(m.repeated_keys as f64, m.jobs as f64)),
    ));
    d.push(("errors", json_list(&r.tally.errors)));
    r
}

/// The traced pass (after a short untraced one for the tracing
/// overhead): every per-layer metric. Writes the spans as Chrome
/// trace-event JSON to `trace_file`.
pub fn per_layer(w: Workload, seed: u64, secs: f64, trace_file: &Path) -> Report {
    let untraced = workloads::measure(w, seed, secs / 3.0, false);
    let mut t = Tracer::default();
    let traced_for = Duration::from_secs_f64(secs * 2.0 / 3.0);
    let (mut tally, probe_service) = workloads::traced(w, seed, traced_for, &mut t);
    tally.absorb(untraced.tally);
    let svc = untraced.service.unwrap_or(probe_service);
    let overhead = median(&t.durations_us("planc.entry"))
        .zip(median(&untraced.request_ms))
        .map(|(traced_us, plain_ms)| traced_us / 1e3 / plain_ms);
    let span_us = |name: &str| median(&t.durations_us(name));
    let sample = |name: &str| median(&t.samples(name));
    let lookups = (svc.cache.hits + svc.cache.misses) as f64;
    let worlds = (svc.worlds.created + svc.worlds.reused) as f64;
    let meta = format!(
        "{{\"host\":{},\"self_time_us\":{}}}",
        host::block(w.name(), workloads::BUSY_THREADS),
        self_time_json(&t)
    );
    let written = trace_file
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|_| std::fs::write(trace_file, t.chrome_json(&meta)));
    if let Err(e) = written {
        tally.error(format!("writing {}: {e}", trace_file.display()));
    }
    let mut r = Report::new(PER_LAYER, tally, |name| match name {
        "planc.parse_kv_us" => span_us("planc.parse_kv"),
        "planc.compile_miss_us" => span_us("planc.compile_miss"),
        "planc.compile_hit_us" => span_us("planc.compile_hit"),
        "planc.cache.hit_ratio" => Some(ratio(svc.cache.hits as f64, lookups)),
        "planc.cache.lookups" => Some(lookups),
        "planc.cache.evictions" => Some(svc.cache.evictions as f64),
        "planc.compiler.compiles" => Some(svc.compiler.compiles as f64),
        "planc.worlds.reuse_ratio" => Some(ratio(svc.worlds.reused as f64, worlds)),
        "tiling_core.parse_nest_us" => span_us("tiling_core.parse_nest"),
        "tiling_core.v_star_us" => span_us("tiling_core.v_star"),
        "analyzer.preflight_us" => span_us("analyzer.preflight"),
        "msgpass.world_spawn_us" => span_us("msgpass.world_spawn"),
        "cluster_sim.simulate_us_p50" => span_us("cluster_sim.simulate"),
        "sweep.generate_ms" => span_us("sweep.generate").map(|us| us / 1e3),
        "trace.overhead_ratio" => overhead,
        other => sample(other),
    });
    let d = &mut r.detail;
    d.push(("spans", t.len().to_string()));
    d.push((
        "trace_file",
        host::json_str(&trace_file.display().to_string()),
    ));
    d.push(("self_time_us", self_time_json(&t)));
    d.push((
        "cache_lookups",
        format!(
            "{{\"hits\":{},\"misses\":{}}}",
            svc.cache.hits, svc.cache.misses
        ),
    ));
    d.push(("errors", json_list(&r.tally.errors)));
    r
}

fn self_time_json(t: &Tracer) -> String {
    let fields: Vec<String> = t
        .self_time_us()
        .into_iter()
        .map(|(name, us)| format!("\"{name}\":{us:.1}"))
        .collect();
    format!("{{{}}}", fields.join(","))
}

fn json_list(items: &[String]) -> String {
    let quoted: Vec<String> = items.iter().map(|s| host::json_str(s)).collect();
    format!("[{}]", quoted.join(","))
}
