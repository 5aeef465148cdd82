//! Live runs: stage an iterated SpMV on the real middleware, run it once
//! and clean up ([`run_spmv`]), optionally with observability enabled and
//! the captured events exported as a Chrome `trace_event` JSON file plus a
//! plain-text metrics dump ([`run_traced_spmv`]).
//!
//! Shared by `bench_dataplane` and `reproduce` so both stage the same
//! workload and emit the same artifact shape (and CI can schema-validate
//! either).

use dooc_core::{DoocConfig, DoocRuntime};
use dooc_linalg::spmv_app::{
    striped_owner, IterationMode, ReductionPlan, SpmvAppBuilder, SpmvExecutor, SyncPolicy,
};
use dooc_sparse::blockgrid::{BlockCoord, BlockGrid};
use dooc_sparse::genmat::GapGenerator;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// An iterated SpMV to stage and run: a K×K grid over a gap-generated
/// matrix (d = 3, seed 42) of order `n`, local aggregation, iteration
/// barriers, `x0[i] = sin(0.17 i) + 1`, two threads and a two-block
/// prefetch window per node.
#[derive(Clone, Debug)]
pub struct SpmvRun {
    /// Scratch-directory tag.
    pub tag: String,
    /// Node count.
    pub nnodes: usize,
    /// Grid dimension K.
    pub k: u64,
    /// Matrix order.
    pub n: u64,
    /// SpMV iterations.
    pub iterations: u64,
    /// Barriered or frontier release.
    pub mode: IterationMode,
    /// Per-node storage memory budget in bytes.
    pub memory_budget: u64,
}

/// Removes a run's scratch directories and their common parent on drop, so
/// a failed staging step or run cleans up too.
struct Scratch(Vec<PathBuf>);

impl Drop for Scratch {
    fn drop(&mut self) {
        for d in &self.0 {
            std::fs::remove_dir_all(d).ok();
        }
        if let Some(base) = self.0.first().and_then(|d| d.parent()) {
            std::fs::remove_dir(base).ok();
        }
    }
}

/// Stages `run` into fresh temp dirs, block `c` owned by node `owner(c)`,
/// folds the app's array geometry into the config, runs it once and
/// removes the dirs. Returns the run's wall time in seconds (staging
/// excluded).
pub fn run_spmv(run: &SpmvRun, owner: impl Fn(BlockCoord) -> u64) -> Result<f64, String> {
    let cfg = DoocConfig::in_temp_dirs(&run.tag, run.nnodes)
        .map_err(|e| format!("config: {e}"))?
        .memory_budget(run.memory_budget)
        .threads_per_node(2)
        .prefetch_window(2);
    let _scratch = Scratch(cfg.scratch_dirs.clone());
    let grid = BlockGrid::new(run.k, run.n);
    let gen = GapGenerator::with_d(3);
    let blocks = SpmvAppBuilder::stage(&cfg.scratch_dirs, grid, &gen, 42, owner)
        .map_err(|e| format!("stage: {e}"))?;
    let app = SpmvAppBuilder::new(grid, run.iterations, blocks)
        .reduction(ReductionPlan::LocalAggregation)
        .sync(SyncPolicy::IterationBarrier)
        .iteration_mode(run.mode);
    let x0: Vec<f64> = (0..run.n)
        .map(|i| ((i as f64) * 0.17).sin() + 1.0)
        .collect();
    app.stage_initial_vector(&cfg.scratch_dirs, &x0)
        .map_err(|e| format!("stage x0: {e}"))?;
    let (graph, external, geometry) = app.build();
    let cfg = geometry
        .into_iter()
        .fold(cfg, |cfg, (name, len, bs)| cfg.with_geometry(name, len, bs));
    let t0 = Instant::now();
    DoocRuntime::new(cfg)
        .run(graph, external, Arc::new(SpmvExecutor))
        .map_err(|e| format!("run: {e}"))?;
    Ok(t0.elapsed().as_secs_f64())
}

/// What a traced run captured, for reporting and smoke assertions.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Total events exported (spans count once per B/E pair).
    pub events: usize,
    /// Events dropped to ring overflow (0 in the bench configurations).
    pub dropped: u64,
    /// Distinct categories seen (layer coverage).
    pub categories: Vec<String>,
    /// Wall time of the traced run in seconds.
    pub wall_s: f64,
}

/// Runs a `nnodes`-node barriered [`SpmvRun`] (K×K grid, vector length
/// `n`, block row `u` owned by node `u % nnodes`) with tracing enabled,
/// then writes the Chrome trace to `trace_path` and the metrics dump to
/// `metrics_path`.
///
/// Tracing is process-global: this drains any previously recorded events
/// first so the artifact covers exactly this run, and leaves tracing
/// disabled on return.
pub fn run_traced_spmv(
    tag: &str,
    nnodes: usize,
    k: u64,
    n: u64,
    iterations: u64,
    trace_path: &Path,
    metrics_path: &Path,
) -> Result<TraceSummary, String> {
    let run = SpmvRun {
        tag: tag.to_string(),
        nnodes,
        k,
        n,
        iterations,
        mode: IterationMode::Barrier,
        memory_budget: 64 << 20,
    };
    // Staging records no events, so enabling before it changes nothing in
    // the artifact.
    dooc_obs::take_events(); // drain stale events from earlier sections
    dooc_obs::enable();
    let wall_s = run_spmv(&run, striped_owner(nnodes as u64));
    dooc_obs::disable();
    let snap = dooc_obs::take_events();
    let wall_s = wall_s.map_err(|e| format!("traced run: {e}"))?;

    let trace = dooc_obs::chrome_trace(&snap);
    std::fs::write(trace_path, &trace)
        .map_err(|e| format!("write {}: {e}", trace_path.display()))?;
    let dump = dooc_obs::dump_metrics();
    std::fs::write(metrics_path, &dump)
        .map_err(|e| format!("write {}: {e}", metrics_path.display()))?;

    let check = dooc_obs::validate::validate_chrome_trace(&trace)
        .map_err(|e| format!("exported trace failed validation: {e}"))?;
    dooc_obs::validate::validate_metrics_dump(&dump)
        .map_err(|e| format!("exported metrics failed validation: {e}"))?;
    Ok(TraceSummary {
        events: check.events,
        dropped: snap.dropped,
        categories: check.categories.into_iter().collect(),
        wall_s,
    })
}
