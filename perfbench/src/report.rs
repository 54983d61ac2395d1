//! Metric names, units and the result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the lists `BENCHMARK.json` names;
//! the self-test keeps the two in step. An untraced run prints exactly the
//! end-to-end list, a traced run exactly the per-layer list, each with
//! every metric measured on the run's own workload.

use std::collections::BTreeMap;
use std::time::Duration;

/// End-to-end metrics: `(name, unit)`. Every workload has all of them:
/// an *op* is one user-visible join on the join workloads and one
/// request round trip on the serving workloads.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p75", "ms"),
    ("req_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: `(name, unit)`, grouped by crate.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("rtree.build_ms", "ms"),
    ("rtree.save_ms", "ms"),
    ("rtree.load_ms", "ms"),
    ("rtree.load_mb_per_s", "MiB/s"),
    ("rtree.verify_ms", "ms"),
    ("rtree.window_us.p50", "us"),
    ("rtree.nearest_us.p50", "us"),
    ("rtree.window_entries.mean", "count"),
    ("store.crc_ms", "ms"),
    ("store.file_mb", "MiB"),
    ("core.join_ms", "ms"),
    ("core.create_tasks_ms", "ms"),
    ("core.morselize_ms", "ms"),
    ("core.filter_ms", "ms"),
    ("core.tasks", "count"),
    ("core.morsels", "count"),
    ("core.steals", "count"),
    ("core.node_pairs", "count"),
    ("core.candidates", "count"),
    ("core.pairs", "count"),
    ("core.refine_yield", "ratio"),
    ("core.worker_imbalance", "ratio"),
    ("geom.sweep_ms", "ms"),
    ("geom.refine_ms", "ms"),
    ("buffer.requests", "count"),
    ("buffer.hits_l1", "count"),
    ("buffer.hits_local", "count"),
    ("buffer.hits_remote", "count"),
    ("buffer.misses", "count"),
    ("buffer.evictions", "count"),
    ("buffer.hit_ratio", "ratio"),
    ("buffer.misses_per_page", "ratio"),
    ("buffer.opt_hits", "count"),
    ("buffer.guard_hits", "count"),
    ("buffer.opt_retries", "count"),
    ("buffer.opt_fallbacks", "count"),
    ("buffer.overhead_ms", "ms"),
    ("buffer.miss_us", "us"),
    ("serve.added_ms.p50", "ms"),
    ("serve.added_ms.p99", "ms"),
    ("serve.server_ms.p50", "ms"),
    ("serve.server_ms.p99", "ms"),
    ("serve.batch_size.mean", "count"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.shed", "count"),
    ("serve.timeouts", "count"),
    ("cluster.added_ms.p50", "ms"),
    ("cluster.fanout.mean", "count"),
    ("cluster.retries", "count"),
    ("cluster.hedges", "count"),
    ("cluster.failures", "count"),
    ("cluster.partials", "count"),
    ("obs.trace_overhead", "ratio"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the measured loop.
    pub attempted: u64,
    /// Ops that failed: shed, timeout, transport or typed error, partial
    /// or wrong answer.
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
    /// Problems that make the run incorrect besides failed ops (e.g. an
    /// invalid trace file).
    pub errors: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every op and check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty() && self.attempted > 0
    }

    /// The result line: exactly the metrics of `list`, each with its unit.
    /// Fails if one is missing, extra, or not a finite number.
    pub fn json_line(&self, list: &[(&str, &str)]) -> Result<String, String> {
        let mut parts = Vec::with_capacity(list.len());
        for (name, unit) in list {
            let v = self
                .values
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            if !v.is_finite() {
                return Err(format!("metric {name} is {v}"));
            }
            parts.push(format!(
                "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
            ));
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !list.iter().any(|(n, _)| n == *k))
        {
            return Err(format!("metric {extra} is not in the list"));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            parts.join(", ")
        ))
    }
}

/// Chunks a measured loop is cut into. Each end-to-end timing and rate is
/// the median over the chunks, so a burst of contention from other
/// tenants of the host that spoils one or two chunks does not move it.
///
/// The gated upper percentile is the p75: on a shared two-vCPU host the
/// p90 of `cluster_mix` sits where the contention tail begins and moved by
/// up to a quarter between runs of the same code. The p90 and p99 are
/// printed, with their sample counts, on the informational lines.
pub const CHUNKS: usize = 5;

/// One correct op of a measured loop.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    /// When it completed, from the start of the loop.
    pub done: Duration,
    /// How long it took.
    pub took: Duration,
}

/// Medians over [`CHUNKS`] chunks of a loop's ops.
#[derive(Debug, Clone, Copy)]
pub struct Chunked {
    /// Median of the chunks' median op times, ms.
    pub p50: f64,
    /// Median of the chunks' 75th-percentile op times, ms.
    pub p75: f64,
    /// Median of the chunks' completion rates, ops per second.
    pub per_s: f64,
    /// Ops per chunk (the last one also takes the remainder).
    pub chunk_ops: usize,
}

/// Cuts `ops`, in completion order, into [`CHUNKS`] runs of equal count
/// (fewer when there are fewer ops). A chunk's rate is its op count over
/// the time from the previous chunk's last completion to its own, so the
/// chunks tile the loop's time.
///
/// # Panics
///
/// If `ops` is empty.
pub fn chunked(ops: &[Timed]) -> Chunked {
    assert!(!ops.is_empty(), "no ops to chunk");
    let mut ops = ops.to_vec();
    ops.sort_by_key(|o| o.done);
    let k = CHUNKS.min(ops.len());
    let len = ops.len() / k;
    let (mut p50, mut p75, mut rate) = (Vec::new(), Vec::new(), Vec::new());
    let mut prev_end = Duration::ZERO;
    for i in 0..k {
        let end = if i + 1 == k { ops.len() } else { (i + 1) * len };
        let chunk = &ops[i * len..end];
        let took: Vec<Duration> = chunk.iter().map(|o| o.took).collect();
        let ms = sorted_ms(&took);
        p50.push(percentile(&ms, 0.5));
        p75.push(percentile(&ms, 0.75));
        let last = chunk[chunk.len() - 1].done;
        rate.push(chunk.len() as f64 / (last - prev_end).as_secs_f64().max(1e-9));
        prev_end = last;
    }
    Chunked {
        p50: median(&mut p50),
        p75: median(&mut p75),
        per_s: median(&mut rate),
        chunk_ops: len,
    }
}

/// Nearest-rank percentile `q` (0..=1) of ascending `sorted` samples.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Samples in milliseconds, sorted ascending.
pub fn sorted_ms(samples: &[Duration]) -> Vec<f64> {
    let mut ms: Vec<f64> = samples.iter().map(|d| d.as_secs_f64() * 1e3).collect();
    ms.sort_by(f64::total_cmp);
    ms
}

/// Median of `values` (sorted in place).
pub fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(values, 0.5)
}

/// Mean of `values`, 0 for none.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// How the gated timings and rate were formed.
pub fn chunk_note(c: &Chunked) -> String {
    format!(
        "op_ms.p50, op_ms.p75, req_per_s: medians over {CHUNKS} chunks of {} ops; \
         each chunk's p75 has {} ops beyond it",
        c.chunk_ops,
        c.chunk_ops - (0.75 * c.chunk_ops as f64).ceil() as usize
    )
}

/// A timing line with its sample count and how many samples lie beyond
/// the tail percentile.
pub fn latency_note(name: &str, sorted: &[f64], tail: f64) -> String {
    if sorted.is_empty() {
        return format!("{name}: no samples");
    }
    let beyond = sorted.len() - (tail * sorted.len() as f64).ceil() as usize;
    format!(
        "{name}.p50 = {:.4} ms | {name}.p{:.0} = {:.4} ms | {} samples, {beyond} beyond the tail",
        percentile(sorted, 0.5),
        tail * 100.0,
        percentile(sorted, tail),
        sorted.len()
    )
}
