//! Per-layer metrics of one traced solve.
//!
//! Counts come from the runtime's own `RunReport` (`NodeStats`, `trace`,
//! `streams`); times come from the benchmark's spans around the public
//! calls into each crate.

use crate::spans::{self_times, Span};
use crate::workloads::{report_origin, TracedSolve};
use std::collections::BTreeMap;

const MIB: f64 = (1u64 << 20) as f64;

/// Every per-layer metric, with its unit, in output order.
pub const METRICS: &[(&str, &str)] = &[
    ("core.run_s", "s"),
    ("core.task_s", "s"),
    ("core.tasks", "count"),
    ("core.bringup_s", "s"),
    ("core.shutdown_s", "s"),
    ("core.gap_s", "s"),
    ("scheduler.audit_s", "s"),
    ("scheduler.place_s", "s"),
    ("scheduler.node_imbalance", "ratio"),
    ("storage.read_s", "s"),
    ("storage.read_bytes", "bytes"),
    ("storage.read_mb_s", "MiB/s"),
    ("storage.read_wait_frac", "ratio"),
    ("storage.disk_read_bytes", "bytes"),
    ("storage.loads_per_iter", "ratio"),
    ("storage.read_bw_mb_s", "MiB/s"),
    ("storage.evictions", "count"),
    ("storage.disk_write_bytes", "bytes"),
    ("storage.write_s", "s"),
    ("storage.peer_bytes", "bytes"),
    ("storage.pinned_peak_mb", "MiB"),
    ("sparse.decode_s", "s"),
    ("sparse.decode_mb_s", "MiB/s"),
    ("sparse.spmv_s", "s"),
    ("sparse.spmv_gflops", "GFLOP/s"),
    ("sparse.spmv_flops", "count"),
    ("sparse.spmv_bytes_computed", "bytes"),
    ("sparse.axpy_s", "s"),
    ("filterstream.bytes", "bytes"),
    ("filterstream.remote_bytes", "bytes"),
    ("linalg.apply_s", "s"),
    ("linalg.apply_p50_s", "s"),
    ("linalg.apply_p90_s", "s"),
    ("linalg.host_s", "s"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.child_cover_min", "ratio"),
];

/// Storage-layer calls the traced executor makes.
const STORAGE_READS: &[&str] = &["read_array", "read_f64s"];
const STORAGE_WRITES: &[&str] = &["write_f64s", "write_f64s_slabs", "write_array", "persist"];

fn span_sum(spans: &[Span], names: &[&str]) -> f64 {
    spans
        .iter()
        .filter(|s| names.contains(&s.name))
        .map(|s| s.len().as_secs_f64())
        .sum()
}

/// Nearest-rank percentile of `xs` (`q` in 0..=1).
fn percentile(xs: &[f64], q: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Share of task time that the spans inside tasks account for, per node
/// (child self times over task time). The lowest node's share is returned.
fn child_cover(spans: &[Span]) -> f64 {
    let mut kids = vec![0.0f64; spans.len()];
    for (c, own) in spans.iter().zip(self_times(spans)) {
        if let Some(p) = c.parent {
            kids[p] += own.as_secs_f64();
        }
    }
    let mut per_node: BTreeMap<i64, (f64, f64)> = BTreeMap::new();
    for (s, kids) in spans.iter().zip(kids) {
        if s.name.starts_with("task:") {
            let entry = per_node.entry(s.node).or_default();
            entry.0 += s.len().as_secs_f64();
            entry.1 += kids;
        }
    }
    per_node
        .values()
        .map(|(task, kids)| kids / task.max(f64::MIN_POSITIVE))
        .fold(f64::INFINITY, f64::min)
}

/// Computes every metric of [`METRICS`] except `trace.overhead_ratio`,
/// which needs the untraced solves.
pub fn compute(t: &TracedSolve) -> BTreeMap<&'static str, f64> {
    let spans = &t.spans;
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();
    let run_s = t
        .runs
        .iter()
        .map(|(_, s, e)| e.saturating_duration_since(*s).as_secs_f64())
        .fold(0.0, f64::max);

    // core: per-node task time, gaps between consecutive tasks, and the
    // stretches before the first and after the last task of each call.
    let mut per_node_task: BTreeMap<u64, f64> = BTreeMap::new();
    let mut per_node_gap: BTreeMap<u64, f64> = BTreeMap::new();
    let (mut bringup, mut shutdown, mut tasks) = (0.0f64, 0.0f64, 0usize);
    for (report, start, end) in &t.runs {
        let origin = report_origin(report, *end);
        let mut by_node: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
        for e in &report.trace {
            by_node
                .entry(e.node)
                .or_default()
                .push((e.start.as_secs_f64(), e.end.as_secs_f64()));
        }
        for (node, mut evs) in by_node {
            evs.sort_by(|a, b| a.0.total_cmp(&b.0));
            tasks += evs.len();
            *per_node_task.entry(node).or_default() += evs.iter().map(|(s, e)| e - s).sum::<f64>();
            *per_node_gap.entry(node).or_default() += evs
                .windows(2)
                .map(|w| (w[1].0 - w[0].1).max(0.0))
                .sum::<f64>();
        }
        let first = report.trace.iter().map(|e| e.start).min();
        let last = report.trace.iter().map(|e| e.end).max();
        if let (Some(first), Some(last)) = (first, last) {
            bringup = bringup.max(
                (origin + first)
                    .saturating_duration_since(*start)
                    .as_secs_f64(),
            );
            shutdown = shutdown.max(end.saturating_duration_since(origin + last).as_secs_f64());
        }
    }
    let task_s: f64 = per_node_task.values().sum();
    let node_max = per_node_task.values().copied().fold(0.0, f64::max);
    let node_mean = task_s / per_node_task.len().max(1) as f64;
    m.insert("core.run_s", run_s);
    m.insert("core.task_s", task_s);
    m.insert("core.tasks", tasks as f64);
    m.insert("core.bringup_s", bringup);
    m.insert("core.shutdown_s", shutdown);
    m.insert(
        "core.gap_s",
        per_node_gap.values().copied().fold(0.0, f64::max),
    );

    m.insert("scheduler.audit_s", span_sum(spans, &["audit"]));
    m.insert("scheduler.place_s", span_sum(spans, &["assign_affinity"]));
    m.insert(
        "scheduler.node_imbalance",
        node_max / node_mean.max(f64::MIN_POSITIVE),
    );

    let stats = t.runs.iter().flat_map(|(r, _, _)| r.node_stats.iter());
    let (mut disk_read, mut disk_write, mut peer, mut evictions, mut pinned) = (0u64, 0, 0, 0, 0);
    for s in stats {
        disk_read += s.disk_read_bytes;
        disk_write += s.disk_write_bytes;
        peer += s.peer_recv_bytes;
        evictions += s.evictions;
        pinned = pinned.max(s.pinned_peak_bytes);
    }
    let read_s = span_sum(spans, STORAGE_READS);
    let read_bytes: u64 = t
        .runs
        .iter()
        .flat_map(|(r, _, _)| r.trace.iter())
        .map(|e| e.input_bytes)
        .sum();
    let matrix_reads = (t.matrix_bytes * t.applies) as f64;
    m.insert("storage.read_s", read_s);
    m.insert("storage.read_bytes", read_bytes as f64);
    m.insert(
        "storage.read_mb_s",
        read_bytes as f64 / MIB / read_s.max(f64::MIN_POSITIVE),
    );
    m.insert(
        "storage.read_wait_frac",
        read_s / task_s.max(f64::MIN_POSITIVE),
    );
    m.insert("storage.disk_read_bytes", disk_read as f64);
    m.insert("storage.loads_per_iter", disk_read as f64 / matrix_reads);
    m.insert(
        "storage.read_bw_mb_s",
        disk_read as f64 / MIB / run_s.max(f64::MIN_POSITIVE),
    );
    m.insert("storage.evictions", evictions as f64);
    m.insert("storage.disk_write_bytes", disk_write as f64);
    m.insert("storage.write_s", span_sum(spans, STORAGE_WRITES));
    m.insert("storage.peer_bytes", peer as f64);
    m.insert("storage.pinned_peak_mb", pinned as f64 / MIB);

    let decode_s = span_sum(spans, &["from_bytes"]);
    let spmv_s = span_sum(spans, &["spmv"]);
    m.insert("sparse.decode_s", decode_s);
    m.insert(
        "sparse.decode_mb_s",
        matrix_reads / MIB / decode_s.max(f64::MIN_POSITIVE),
    );
    m.insert("sparse.spmv_s", spmv_s);
    m.insert(
        "sparse.spmv_gflops",
        t.spmv_flops as f64 / 1e9 / spmv_s.max(f64::MIN_POSITIVE),
    );
    m.insert("sparse.spmv_flops", t.spmv_flops as f64);
    m.insert("sparse.spmv_bytes_computed", t.spmv_bytes_computed as f64);
    m.insert("sparse.axpy_s", span_sum(spans, &["axpy_slabs"]));

    let streams = t.runs.iter().map(|(r, _, _)| &r.streams);
    let (bytes, remote) = streams.fold((0u64, 0u64), |(b, r), s| {
        (b + s.total_bytes(), r + s.total_remote_bytes())
    });
    m.insert("filterstream.bytes", bytes as f64);
    m.insert("filterstream.remote_bytes", remote as f64);

    m.insert("linalg.apply_s", t.apply_samples.iter().sum());
    m.insert("linalg.apply_p50_s", percentile(&t.apply_samples, 0.5));
    m.insert("linalg.apply_p90_s", percentile(&t.apply_samples, 0.9));
    m.insert("linalg.host_s", t.host_s);

    m.insert("trace.child_cover_min", child_cover(spans));
    m
}
