//! End-to-end and per-layer benchmark of the DOoC runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <spmv-incore|spmv-ooc|lanczos-ooc|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The load is a closed loop: one solve at a time from this one process.
//! Each solve stages its inputs into fresh scratch directories under
//! `.bench_scratch/`, runs, is checked against an in-core reference, and
//! its directories are removed. Solves repeat until `--seconds` have passed
//! (at least [`MIN_SOLVES`] of them) and every metric is reported as the
//! median over the solves. The first solve of a run is a warm-up: checked
//! and counted, but not timed.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
//! alternates untraced and traced solves of the same inputs, checks that
//! their results are bitwise equal, reports the per-layer metrics of the
//! traced solves and the tracing overhead, and writes the spans of the last
//! traced solve to `.bench_out/`.
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.

mod layers;
mod probe;
mod spans;
mod traced;
mod workloads;

use std::collections::BTreeMap;
use std::time::Instant;
use workloads::{Solve, Workload, LANCZOS_OOC, SPMV_INCORE, SPMV_OOC};

/// Fewest timed solves per run, whatever `--seconds` says.
const MIN_SOLVES: usize = 3;

/// No new solve starts after this much time, so a run ends well inside the
/// three minutes a benchmark run may take.
const LAST_START_S: f64 = 110.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// One solve; a panic anywhere in it counts as a failed solve.
fn solve(
    w: Workload,
    seed: u64,
    traced: bool,
    reference: &mut Option<Vec<f64>>,
) -> Result<Solve, String> {
    workloads::catch("solve", || match w {
        Workload::SpmvIncore => workloads::spmv_solve(&SPMV_INCORE, seed, traced, reference),
        Workload::SpmvOoc => workloads::spmv_solve(&SPMV_OOC, seed, traced, reference),
        Workload::LanczosOoc => workloads::lanczos_solve(&LANCZOS_OOC, seed, traced, reference),
    })?
}

fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Result of one workload run.
struct Outcome {
    attempted: usize,
    failed: usize,
    /// Metric name -> (value, unit).
    metrics: BTreeMap<String, (f64, &'static str)>,
}

/// Prints the failure with its seed; it counts, it is never skipped.
fn report_failure(w: Workload, seed: u64, solve: usize, err: &str) {
    println!(
        "FAILED workload={} seed={seed} solve={solve}: {err}",
        w.name()
    );
}

fn print_failed_frac(w: Workload, failed: usize, attempted: usize) {
    println!(
        "{:<12} {:<28} median {:>14.6} {:<8} (failed {failed} of {attempted} solves)",
        w.name(),
        "failed_frac",
        failed as f64 / attempted as f64,
        "ratio"
    );
}

fn summarize(w: Workload, name: &str, unit: &str, xs: &[f64]) {
    println!(
        "{:<12} {:<28} median {:>14.6} {:<8} min {:.6} max {:.6} n={}",
        w.name(),
        name,
        median(xs),
        unit,
        xs.iter().copied().fold(f64::INFINITY, f64::min),
        xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        xs.len()
    );
}

/// Prints where the numbers come from: host, sizes and budgets.
fn provenance(w: Workload, matrix_bytes: u64) {
    let llc = probe::llc_bytes();
    let (shape, budget) = match w {
        Workload::SpmvIncore | Workload::SpmvOoc => {
            let s = if w == Workload::SpmvIncore {
                SPMV_INCORE
            } else {
                SPMV_OOC
            };
            let shape = format!(
                "n={} k={} iterations={} nodes={}",
                s.n, s.k, s.iterations, s.nodes
            );
            (shape, s.budget_ratio)
        }
        Workload::LanczosOoc => {
            let s = LANCZOS_OOC;
            (
                format!("n={} k={} steps={} matrix=A+A^T nodes=1", s.n, s.k, s.steps),
                s.budget_ratio,
            )
        }
    };
    println!(
        "provenance workload={} nproc={} llc_bytes={} {shape} matrix_bytes={matrix_bytes} \
         matrix_llc_ratio={} budget_ratio={budget} (scratch reads are served from the page cache, \
         so storage.disk_* are not device numbers; sparse.spmv_bytes_computed is computed from \
         array sizes)",
        w.name(),
        probe::nproc(),
        llc.map_or("unknown".into(), |b| b.to_string()),
        llc.map_or("unknown".into(), |b| format!(
            "{:.2}",
            matrix_bytes as f64 / b as f64
        )),
    );
}

/// The first solve of a process pays for first-touch page faults and a
/// cold allocator that later solves do not, and runs slower by a varying
/// amount. It is checked and counted, but not timed. Returns the failures.
fn warm_up(w: Workload, seed: u64, reference: &mut Option<Vec<f64>>) -> usize {
    match solve(w, seed, false, reference) {
        Ok(_) => {
            println!("{:<12} solve 1: warm-up, checked but not timed", w.name());
            0
        }
        Err(e) => {
            report_failure(w, seed, 1, &e);
            1
        }
    }
}

/// Whether another solve starts: until `seconds` have passed since `start`,
/// with at least `min` attempts.
fn more(start: Instant, seconds: f64, attempted: usize, min: usize) -> bool {
    let t = start.elapsed().as_secs_f64();
    attempted < min || (t < seconds && t < LAST_START_S)
}

/// Measured run: solves with tracing off until time is up.
fn measure(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut reference = None;
    let start = Instant::now();
    let mut rows: Vec<workloads::EndToEnd> = Vec::new();
    let (mut attempted, mut failed, mut matrix_bytes) = (1, warm_up(w, seed, &mut reference), 0u64);
    while more(start, seconds, attempted, 1 + MIN_SOLVES) {
        attempted += 1;
        match solve(w, seed, false, &mut reference) {
            Ok(s) => {
                let e = s.e2e;
                println!(
                    "{:<12} solve {attempted}: solve_s {:.4} cpu_s {:.2} peak_rss_mb {:.1} setup_s {:.4}",
                    w.name(),
                    e.solve_s,
                    e.cpu_s,
                    e.peak_rss_mib,
                    e.setup_s
                );
                rows.push(e);
                matrix_bytes = s.matrix_bytes;
            }
            Err(e) => {
                failed += 1;
                report_failure(w, seed, attempted, &e);
            }
        }
    }
    let cols: [(&str, &str, Vec<f64>); 4] = [
        ("solve_s", "s", rows.iter().map(|r| r.solve_s).collect()),
        ("cpu_s", "s", rows.iter().map(|r| r.cpu_s).collect()),
        (
            "peak_rss_mb",
            "MiB",
            rows.iter().map(|r| r.peak_rss_mib).collect(),
        ),
        ("setup_s", "s", rows.iter().map(|r| r.setup_s).collect()),
    ];
    provenance(w, matrix_bytes);
    let mut metrics = BTreeMap::new();
    for (name, unit, xs) in &cols {
        summarize(w, name, unit, xs);
        metrics.insert(name.to_string(), (median(xs), *unit));
    }
    print_failed_frac(w, failed, attempted);
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

/// Traced run: pairs of an untraced and a traced solve of the same inputs.
fn trace(w: Workload, seed: u64, seconds: f64) -> Outcome {
    let mut reference = None;
    let start = Instant::now();
    let (mut attempted, mut failed) = (1, warm_up(w, seed, &mut reference));
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut per_layer: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut last_spans = Vec::new();
    let mut matrix_bytes = 0u64;
    while more(start, seconds, attempted, 3) {
        // Alternate which of the pair runs first, so drift over the run does
        // not bias the overhead.
        let plain_first = attempted % 4 == 1;
        attempted += 2;
        let first = solve(w, seed, !plain_first, &mut reference);
        let second = solve(w, seed, plain_first, &mut reference);
        let (plain, traced) = if plain_first {
            (first, second)
        } else {
            (second, first)
        };
        let (plain, traced) = match (plain, traced) {
            (Ok(p), Ok(t)) => (p, t),
            (p, t) => {
                for e in [p.err(), t.err()].into_iter().flatten() {
                    failed += 1;
                    report_failure(w, seed, attempted, &e);
                }
                continue;
            }
        };
        let bitwise = plain.result.len() == traced.result.len()
            && plain
                .result
                .iter()
                .zip(&traced.result)
                .all(|(a, b)| a.to_bits() == b.to_bits());
        let Some(t) = traced.traced.as_ref().filter(|_| bitwise) else {
            failed += 1;
            report_failure(
                w,
                seed,
                attempted,
                "traced result is not bitwise equal to untraced",
            );
            continue;
        };
        let layer = layers::compute(t);
        // Child spans must account for their task's time on every node.
        let cover = layer["trace.child_cover_min"];
        if !(0.95..=1.05).contains(&cover) {
            failed += 1;
            report_failure(
                w,
                seed,
                attempted,
                &format!("child spans cover {cover:.4} of task time (want within 5%)"),
            );
            continue;
        }
        for (k, v) in layer {
            per_layer.entry(k).or_default().push(v);
        }
        plain_s.push(plain.e2e.solve_s);
        traced_s.push(traced.e2e.solve_s);
        last_spans = t.spans.clone();
        matrix_bytes = traced.matrix_bytes;
    }
    let overhead = median(&traced_s) / median(&plain_s);
    per_layer.insert("trace.overhead_ratio", vec![overhead]);
    provenance(w, matrix_bytes);
    let mut metrics = BTreeMap::new();
    for (name, unit) in layers::METRICS {
        let xs = per_layer.get(name).cloned().unwrap_or_default();
        summarize(w, name, unit, &xs);
        metrics.insert(name.to_string(), (median(&xs), *unit));
    }
    println!(
        "{:<12} tracing overhead: traced solve_s {:.4} s vs untraced {:.4} s (x{overhead:.4})",
        w.name(),
        median(&traced_s),
        median(&plain_s)
    );
    print_failed_frac(w, failed, attempted);
    let path =
        std::path::PathBuf::from(".bench_out").join(format!("trace-{}-{seed}.json", w.name()));
    match spans::write_json(&path, &last_spans) {
        Ok(()) => println!("spans of the last traced solve: {}", path.display()),
        Err(e) => println!("could not write {}: {e}", path.display()),
    }
    Outcome {
        attempted,
        failed,
        metrics,
    }
}

fn json_line(o: &Outcome) -> String {
    let metrics: Vec<String> = o
        .metrics
        .iter()
        .map(|(k, (v, unit))| {
            let v = if v.is_finite() {
                format!("{v}")
            } else {
                "null".into()
            };
            format!("\"{k}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed,
        metrics.join(", ")
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let selected: Vec<Workload> = if args.workload == "all" {
        Workload::ALL.to_vec()
    } else {
        match Workload::parse(&args.workload) {
            Some(w) => vec![w],
            None => {
                eprintln!(
                    "perfbench: unknown workload '{}' (spmv-incore, spmv-ooc, lanczos-ooc, all)",
                    args.workload
                );
                std::process::exit(2);
            }
        }
    };
    let mut total = Outcome {
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
    };
    for &w in &selected {
        let o = if args.trace {
            trace(w, args.seed, args.seconds)
        } else {
            measure(w, args.seed, args.seconds)
        };
        total.attempted += o.attempted;
        total.failed += o.failed;
        let prefix = if selected.len() > 1 {
            format!("{}.", w.name())
        } else {
            String::new()
        };
        for (k, v) in o.metrics {
            total.metrics.insert(format!("{prefix}{k}"), v);
        }
    }
    println!("{}", json_line(&total));
}
