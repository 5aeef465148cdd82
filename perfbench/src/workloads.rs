//! The three workloads: staging, one solve, and its correctness check.
//!
//! Every workload uses the paper's gap generator (`GapGenerator::with_d(3)`)
//! and takes its matrix and start-vector seeds from the command line; the
//! runtime only ever sees the staged files.

use crate::probe;
use crate::spans::Tracer;
use crate::traced::TracingExecutor;
use dooc_core::{DoocConfig, DoocRuntime, RunReport, TaskExecutor, TaskGraph};
use dooc_filterstream::{ClusterSpec, TcpTransport, Transport};
use dooc_linalg::spmv_app::{striped_owner, IterationMode, ReductionPlan, StagedBlock, SyncPolicy};
use dooc_linalg::{
    lanczos, LanczosOptions, LinearOperator, OocOperator, SpmvAppBuilder, SpmvExecutor,
};
use dooc_sparse::{fileio, BlockGrid, CsrMatrix, GapGenerator};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::net::TcpListener;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Gap parameter of the paper's generator for every workload.
const GAP_D: u64 = 3;

/// Scratch directories of all solves live under the checkout.
const SCRATCH_ROOT: &str = ".bench_scratch";

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Iterated SpMV, one node, every block resident after the first pass.
    SpmvIncore,
    /// Iterated SpMV, two nodes over loopback TCP, a quarter of each node's
    /// blocks fit in memory, frontier release.
    SpmvOoc,
    /// Lanczos over `OocOperator`: one cold runtime job per operator apply.
    LanczosOoc,
}

impl Workload {
    /// All workloads, in the order `--workload all` runs them.
    pub const ALL: [Workload; 3] = [
        Workload::SpmvIncore,
        Workload::SpmvOoc,
        Workload::LanczosOoc,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SpmvIncore => "spmv-incore",
            Workload::SpmvOoc => "spmv-ooc",
            Workload::LanczosOoc => "lanczos-ooc",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Shape of an iterated-SpMV workload.
#[derive(Clone, Copy, Debug)]
pub struct SpmvShape {
    /// Matrix order.
    pub n: u64,
    /// Grid dimension (K×K sub-matrices).
    pub k: u64,
    /// SpMV iterations per solve.
    pub iterations: u64,
    /// Runtime nodes.
    pub nodes: usize,
    /// Compute threads per node.
    pub threads: usize,
    /// Per-node storage budget as a share of that node's matrix bytes.
    pub budget_ratio: f64,
    /// Cross-iteration release.
    pub mode: IterationMode,
}

/// `spmv-incore`: the budget holds the whole matrix twice over, so after
/// the first pass every read is a storage memory hit.
pub const SPMV_INCORE: SpmvShape = SpmvShape {
    n: 15360,
    k: 8,
    iterations: 4,
    nodes: 1,
    threads: 2,
    budget_ratio: 2.0,
    mode: IterationMode::Barrier,
};

/// `spmv-ooc`: the same matrix striped over two nodes whose budgets hold a
/// quarter of their blocks, so blocks are re-read from scratch every
/// iteration.
pub const SPMV_OOC: SpmvShape = SpmvShape {
    n: 15360,
    k: 8,
    iterations: 3,
    nodes: 2,
    threads: 1,
    budget_ratio: 0.25,
    mode: IterationMode::Frontier,
};

/// Shape of the `lanczos-ooc` workload.
pub struct LanczosShape {
    /// Matrix order of `A + Aᵀ`.
    pub n: u64,
    /// Grid dimension.
    pub k: u64,
    /// Lanczos steps (one out-of-core apply each).
    pub steps: usize,
    /// Compute threads of the single node.
    pub threads: usize,
    /// Storage budget as a share of the matrix bytes.
    pub budget_ratio: f64,
    /// Ritz values compared against the in-core solve.
    pub checked_ritz: usize,
}

/// `lanczos-ooc`.
pub const LANCZOS_OOC: LanczosShape = LanczosShape {
    n: 2048,
    k: 4,
    steps: 48,
    threads: 2,
    budget_ratio: 0.5,
    checked_ritz: 5,
};

/// Largest normwise relative error accepted between the runtime's SpMV
/// result and `SpmvAppBuilder::reference_result`.
const SPMV_TOLERANCE: f64 = 1e-12;

/// Largest relative error accepted between out-of-core and in-core Ritz
/// values (relative to the largest checked Ritz value's magnitude).
const RITZ_TOLERANCE: f64 = 1e-9;

/// Seed of the start vector, derived from the workload seed.
fn vector_seed(seed: u64) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15)
}

/// A fresh per-solve scratch tree under the checkout, removed on drop —
/// also when the solve fails or panics.
struct Scratch {
    root: PathBuf,
    /// One scratch directory per node.
    dirs: Vec<PathBuf>,
}

impl Scratch {
    /// Creates `.bench_scratch/<tag>-<pid>-<n>/node<i>` for each node.
    fn new(tag: &str, nodes: usize) -> Result<Self, String> {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let root = PathBuf::from(SCRATCH_ROOT).join(format!("{tag}-{}-{n}", std::process::id()));
        let dirs: Vec<PathBuf> = (0..nodes).map(|i| root.join(format!("node{i}"))).collect();
        // Drop removes the tree even if creation fails half-way.
        let scratch = Self { root, dirs };
        for d in &scratch.dirs {
            std::fs::create_dir_all(d).map_err(|e| format!("mkdir {}: {e}", d.display()))?;
        }
        Ok(scratch)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
        // Removes the shared root once no solve uses it any more.
        let _ = std::fs::remove_dir(SCRATCH_ROOT);
    }
}

/// End-to-end measurements of one solve.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Staging time (generate and write the matrix files and x0).
    pub setup_s: f64,
    /// Wall time of the solve call(s).
    pub solve_s: f64,
    /// Process CPU time spent during the solve.
    pub cpu_s: f64,
    /// Peak resident set size during the solve.
    pub peak_rss_mib: f64,
}

/// What the per-layer metrics are computed from: the spans of one traced
/// solve plus the reports the runtime returned.
pub struct TracedSolve {
    /// Spans of the solve.
    pub spans: Vec<crate::spans::Span>,
    /// Runtime reports with the wall-clock bounds of the call that returned
    /// each: `(report, call start, call end)`.
    pub runs: Vec<(RunReport, Instant, Instant)>,
    /// Matrix bytes read by one full operator apply.
    pub matrix_bytes: u64,
    /// Operator applies (SpMV iterations) in the traced runs.
    pub applies: u64,
    /// Floating-point operations of the multiply kernels.
    pub spmv_flops: u64,
    /// Bytes the multiply kernels touch, computed from array sizes.
    pub spmv_bytes_computed: u64,
    /// Wall time of each operator apply.
    pub apply_samples: Vec<f64>,
    /// Time in linalg calls outside the applies.
    pub host_s: f64,
}

/// The outcome of one solve.
pub struct Solve {
    /// End-to-end measurements.
    pub e2e: EndToEnd,
    /// Bytes of the staged matrix files.
    pub matrix_bytes: u64,
    /// Result vector, for bitwise comparison between traced and untraced
    /// solves of the same inputs.
    pub result: Vec<f64>,
    /// Present for traced solves.
    pub traced: Option<TracedSolve>,
}

fn uniform_vector(n: u64, seed: u64) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()
}

fn measure_start() -> Result<(Duration, Instant), String> {
    probe::reset_peak_rss()?;
    Ok((probe::cpu_time()?, Instant::now()))
}

/// Builds a two-node loopback TCP mesh on OS-assigned ports.
fn tcp_pair() -> Result<Vec<Arc<dyn Transport>>, String> {
    let listeners: Vec<TcpListener> = (0..2)
        .map(|_| TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}")))
        .collect::<Result<_, _>>()?;
    let addrs = listeners
        .iter()
        .map(|l| l.local_addr().map(|a| a.to_string()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("local addr: {e}"))?;
    let spec = ClusterSpec::new(addrs);
    let fp = spec.fingerprint();
    // Each handshake blocks until its peer dials in, so both ends are built
    // concurrently.
    std::thread::scope(|s| {
        let handles: Vec<_> = listeners
            .into_iter()
            .enumerate()
            .map(|(i, l)| {
                let spec = &spec;
                s.spawn(move || TcpTransport::with_listener(spec, i, fp, l))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                let t = h.join().map_err(|_| "tcp handshake panicked".to_string())?;
                t.map(|t| Arc::new(t) as Arc<dyn Transport>)
                    .map_err(|e| format!("tcp mesh: {e}"))
            })
            .collect()
    })
}

/// Runs `graph` in-process when `transports` is empty, else as one node per
/// transport (one thread each), returning each node's report with the
/// bounds of the call that produced it.
fn run_graph(
    cfg: &DoocConfig,
    graph: &TaskGraph,
    external: &HashMap<String, u64>,
    transports: Vec<Arc<dyn Transport>>,
    executor: impl Fn(usize) -> Arc<dyn TaskExecutor>,
) -> Result<Vec<(RunReport, Instant, Instant)>, String> {
    if transports.is_empty() {
        let t0 = Instant::now();
        let report = DoocRuntime::new(cfg.clone())
            .run(graph.clone(), external.clone(), executor(0))
            .map_err(|e| format!("run: {e}"))?;
        return Ok(vec![(report, t0, Instant::now())]);
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = transports
            .into_iter()
            .enumerate()
            .map(|(i, t)| {
                let exec = executor(i);
                s.spawn(move || {
                    let t0 = Instant::now();
                    let r = DoocRuntime::new(cfg.clone())
                        .run_distributed(graph.clone(), external.clone(), exec, t)
                        .map_err(|e| format!("node {i}: run_distributed: {e}"));
                    r.map(|r| (r, t0, Instant::now()))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "node thread panicked".to_string())?)
            .collect()
    })
}

/// A staged SpMV problem.
struct StagedSpmv {
    scratch: Scratch,
    app: SpmvAppBuilder,
    x0: Vec<f64>,
    matrix_bytes: u64,
    nnz: u64,
    setup_s: f64,
}

fn stage_spmv(shape: &SpmvShape, seed: u64, tag: &str) -> Result<StagedSpmv, String> {
    let t0 = Instant::now();
    let scratch = Scratch::new(tag, shape.nodes)?;
    let grid = BlockGrid::new(shape.k, shape.n);
    let gen = GapGenerator::with_d(GAP_D);
    let blocks = SpmvAppBuilder::stage(
        &scratch.dirs,
        grid,
        &gen,
        seed,
        striped_owner(shape.nodes as u64),
    )
    .map_err(|e| format!("stage matrix: {e}"))?;
    let matrix_bytes = blocks.iter().map(|b| b.bytes).sum();
    let nnz = blocks.iter().map(|b| b.nnz).sum();
    let app = SpmvAppBuilder::new(grid, shape.iterations, blocks).iteration_mode(shape.mode);
    let x0 = uniform_vector(shape.n, vector_seed(seed));
    app.stage_initial_vector(&scratch.dirs, &x0)
        .map_err(|e| format!("stage x0: {e}"))?;
    Ok(StagedSpmv {
        scratch,
        app,
        x0,
        matrix_bytes,
        nnz,
        setup_s: t0.elapsed().as_secs_f64(),
    })
}

fn normwise_error(got: &[f64], want: &[f64]) -> f64 {
    let scale = want
        .iter()
        .fold(0.0f64, |m, w| m.max(w.abs()))
        .max(f64::MIN_POSITIVE);
    got.iter()
        .zip(want)
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()))
        / scale
}

/// One iterated-SpMV solve in fresh scratch directories, checked against
/// `SpmvAppBuilder::reference_result`.
pub fn spmv_solve(
    shape: &SpmvShape,
    seed: u64,
    traced: bool,
    reference: &mut Option<Vec<f64>>,
) -> Result<Solve, String> {
    let tracer = Arc::new(Tracer::new());
    let tr = traced.then_some(&*tracer);
    let staged = match tr {
        Some(t) => t.timed("setup", -1, None, || stage_spmv(shape, seed, "spmv")),
        None => stage_spmv(shape, seed, "spmv"),
    }?;
    let dirs = &staged.scratch.dirs;
    // The reference is computed before the first solve, so every solve of a
    // run starts from the same process state.
    let want = reference.get_or_insert_with(|| {
        let gen = GapGenerator::with_d(GAP_D);
        staged.app.reference_result(&gen, seed, &staged.x0)
    });
    let host = Instant::now();
    let (graph, external, geometry) = match tr {
        Some(t) => t.timed("build", -1, None, || staged.app.build()),
        None => staged.app.build(),
    };
    let mut host_s = host.elapsed().as_secs_f64();
    let node_share = staged.matrix_bytes as f64 / shape.nodes as f64;
    let budget = (shape.budget_ratio * node_share) as u64;
    let mut cfg = DoocConfig::new(dirs.clone())
        .memory_budget(budget)
        .threads_per_node(shape.threads);
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name, len, bs);
    }
    if let Some(t) = tr {
        // The runtime repeats both inside `run`; timing them here splits
        // the scheduler's share out of bring-up.
        let lanes = dooc_core::runtime_lane_specs(&graph, shape.nodes as u64);
        t.timed("audit", -1, None, || {
            dooc_scheduler::audit(&graph, budget, &lanes)
        })
        .map_err(|e| format!("audit: {e}"))?;
        t.timed("assign_affinity", -1, None, || {
            dooc_scheduler::assign_affinity(&graph, &external, shape.nodes as u64)
        })
        .map_err(|e| format!("assign_affinity: {e}"))?;
    }

    let run_spans: Vec<usize> = match tr {
        Some(t) => (0..shape.nodes)
            .map(|i| t.open("run", i as i64, None))
            .collect(),
        None => Vec::new(),
    };
    let executor = |node: usize| -> Arc<dyn TaskExecutor> {
        if traced {
            Arc::new(TracingExecutor {
                tracer: Arc::clone(&tracer),
                parent: run_spans[node],
            })
        } else {
            Arc::new(SpmvExecutor)
        }
    };
    // The loopback mesh is built before the clock starts: the solve is the
    // `run`/`run_distributed` call.
    let transports = if shape.nodes > 1 {
        tcp_pair()?
    } else {
        Vec::new()
    };
    let (cpu0, t0) = measure_start()?;
    let runs = run_graph(&cfg, &graph, &external, transports, executor);
    let solve_s = t0.elapsed().as_secs_f64();
    let cpu_s = (probe::cpu_time()? - cpu0).as_secs_f64();
    let peak_rss_mib = probe::peak_rss_mib()?;
    for &id in &run_spans {
        tracer.close(id);
    }
    let runs = runs?;

    let host = Instant::now();
    let result = match tr {
        Some(t) => t.timed("collect", -1, None, || {
            staged.app.collect_final_vector(dirs)
        }),
        None => staged.app.collect_final_vector(dirs),
    }
    .map_err(|e| format!("collect result: {e}"))?;
    host_s += host.elapsed().as_secs_f64();

    let err = normwise_error(&result, want);
    if err.is_nan() || err > SPMV_TOLERANCE {
        return Err(format!(
            "result differs from reference_result: normwise relative error {err:e} > {SPMV_TOLERANCE:e}"
        ));
    }

    let traced = traced.then(|| {
        let grid = staged.app.grid();
        TracedSolve {
            spans: tracer.spans(),
            apply_samples: iteration_times(&runs),
            runs,
            matrix_bytes: staged.matrix_bytes,
            applies: shape.iterations,
            spmv_flops: 2 * staged.nnz * shape.iterations,
            spmv_bytes_computed: spmv_bytes_computed(grid, staged.nnz) * shape.iterations,
            host_s,
        }
    });
    Ok(Solve {
        e2e: EndToEnd {
            setup_s: staged.setup_s,
            solve_s,
            cpu_s,
            peak_rss_mib,
        },
        matrix_bytes: staged.matrix_bytes,
        result,
        traced,
    })
}

/// Bytes one apply's block multiplies touch, computed from array sizes: for
/// every block its values and column indices, its row pointers, the x
/// sub-vector it reads and the y sub-vector it writes.
fn spmv_bytes_computed(grid: &BlockGrid, nnz: u64) -> u64 {
    // Each of the k block rows and k block columns is visited k times.
    let (k, n) = (grid.k, grid.n);
    16 * nnz + 8 * (k * n + k * k) + 16 * k * n
}

/// Maps a report's task offsets onto the wall clock: the runtime starts its
/// clock after the pre-run audit and placement, and stops it just before
/// returning, so its origin is `call end - elapsed`.
pub fn report_origin(report: &RunReport, end: Instant) -> Instant {
    end.checked_sub(report.elapsed).unwrap_or(end)
}

/// Wall time of each SpMV iteration: from the end of the previous
/// iteration's last row result (or the call start) to the end of this one's.
fn iteration_times(runs: &[(RunReport, Instant, Instant)]) -> Vec<f64> {
    let mut ends: HashMap<u64, Instant> = HashMap::new();
    for (report, _, end) in runs {
        let origin = report_origin(report, *end);
        for e in &report.trace {
            if !e.kind.starts_with("sum") {
                continue;
            }
            // Row results are named x_<iteration>_<row>; pre-sums are q_*.
            let mut parts = e.name.split('_');
            if parts.next() != Some("x") {
                continue;
            }
            let Some(iter) = parts.next().and_then(|p| p.parse::<u64>().ok()) else {
                continue;
            };
            let t = origin + e.end;
            let slot = ends.entry(iter).or_insert(t);
            *slot = (*slot).max(t);
        }
    }
    let mut prev = runs.iter().map(|(_, s, _)| *s).min();
    let mut iters: Vec<u64> = ends.keys().copied().collect();
    iters.sort_unstable();
    iters
        .into_iter()
        .filter_map(|i| {
            let end = ends[&i];
            let d = prev.map(|p| end.saturating_duration_since(p).as_secs_f64());
            prev = Some(end);
            d
        })
        .collect()
}

/// A staged Lanczos problem: `A + Aᵀ` cut into a K×K grid on one node.
struct StagedLanczos {
    scratch: Scratch,
    grid: BlockGrid,
    blocks: Vec<StagedBlock>,
    matrix_bytes: u64,
    setup_s: f64,
}

/// Stages `A + Aᵀ` and also returns it assembled in core.
fn stage_lanczos(shape: &LanczosShape, seed: u64) -> Result<(StagedLanczos, CsrMatrix), String> {
    let t0 = Instant::now();
    let scratch = Scratch::new("lanczos", 1)?;
    let a = GapGenerator::with_d(GAP_D).generate(shape.n, shape.n, seed);
    let triplets: Vec<(u64, u64, f64)> = a
        .triplets()
        .chain(a.triplets().map(|(r, c, v)| (c, r, v)))
        .collect();
    let matrix = CsrMatrix::from_triplets(shape.n, shape.n, &triplets)
        .map_err(|e| format!("assemble A+A^T: {e}"))?;
    let grid = BlockGrid::new(shape.k, shape.n);
    let mut blocks = Vec::new();
    for (coord, m) in grid.cut(&matrix).map_err(|e| format!("cut: {e}"))? {
        fileio::write_matrix(&scratch.dirs[0].join(BlockGrid::file_name(coord)), &m)
            .map_err(|e| format!("write block: {e}"))?;
        blocks.push(StagedBlock {
            coord,
            node: 0,
            bytes: m.file_size_bytes(),
            nnz: m.nnz(),
        });
    }
    let matrix_bytes = blocks.iter().map(|b| b.bytes).sum();
    let staged = StagedLanczos {
        scratch,
        grid,
        blocks,
        matrix_bytes,
        setup_s: t0.elapsed().as_secs_f64(),
    };
    Ok((staged, matrix))
}

fn lanczos_options(shape: &LanczosShape, seed: u64) -> LanczosOptions {
    LanczosOptions {
        steps: shape.steps,
        seed: vector_seed(seed),
        full_reorthogonalization: true,
    }
}

/// `OocOperator` with every apply timed.
struct TimedOperator<'a> {
    inner: &'a OocOperator,
    tracer: &'a Tracer,
    parent: usize,
    samples: Mutex<Vec<f64>>,
}

impl LinearOperator for TimedOperator<'_> {
    fn dim(&self) -> usize {
        self.inner.dim()
    }

    fn apply(&self, x: &[f64], y: &mut [f64]) {
        let t0 = Instant::now();
        self.tracer
            .timed("apply", -1, Some(self.parent), || self.inner.apply(x, y));
        self.samples
            .lock()
            .expect("sample store poisoned")
            .push(t0.elapsed().as_secs_f64());
    }
}

/// Runs `f`, turning a panic into an error that names `what`.
pub fn catch<T>(what: &str, f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|p| {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        format!("{what} panicked: {msg}")
    })
}

/// One Lanczos solve over `OocOperator` in a fresh scratch directory,
/// checked against in-core `lanczos()` on the assembled matrix.
///
/// `OocOperator` fixes its executor, so a traced solve splits only operator
/// applies from host time; the other layers come from one extra apply that
/// repeats `OocOperator`'s steps with the tracing executor, which is also
/// checked bitwise against `OocOperator::apply`.
pub fn lanczos_solve(
    shape: &LanczosShape,
    seed: u64,
    traced: bool,
    reference: &mut Option<Vec<f64>>,
) -> Result<Solve, String> {
    let tracer = Tracer::new();
    let (staged, matrix) = if traced {
        tracer.timed("setup", -1, None, || stage_lanczos(shape, seed))
    } else {
        stage_lanczos(shape, seed)
    }?;
    let opts = lanczos_options(shape, seed);
    // The in-core reference is computed before the first solve, and the
    // assembled matrix is freed before any solve, so every solve of a run
    // starts from the same process state.
    let want = reference.get_or_insert_with(|| lanczos(&matrix, &opts).ritz_values);
    drop(matrix);
    let cfg = DoocConfig::new(staged.scratch.dirs.clone())
        .memory_budget((shape.budget_ratio * staged.matrix_bytes as f64) as u64)
        .threads_per_node(shape.threads);
    let op = OocOperator::new(cfg.clone(), staged.grid, staged.blocks.clone());

    let root = traced.then(|| tracer.open("lanczos", -1, None));
    let timed = root.map(|parent| TimedOperator {
        inner: &op,
        tracer: &tracer,
        parent,
        samples: Mutex::new(Vec::new()),
    });
    let (cpu0, t0) = measure_start()?;
    let res = match &timed {
        Some(t) => catch("lanczos", || lanczos(t, &opts)),
        None => catch("lanczos", || lanczos(&op, &opts)),
    };
    let solve_s = t0.elapsed().as_secs_f64();
    let cpu_s = (probe::cpu_time()? - cpu0).as_secs_f64();
    let peak_rss_mib = probe::peak_rss_mib()?;
    if let Some(id) = root {
        tracer.close(id);
    }
    let res = res?;

    let k = shape.checked_ritz.min(want.len());
    let got = res.lowest(k);
    let scale = want[..k].iter().fold(1.0f64, |m, w| m.max(w.abs()));
    let err = got
        .iter()
        .zip(&want[..k])
        .fold(0.0f64, |m, (g, w)| m.max((g - w).abs()))
        / scale;
    if res.steps != shape.steps || got.len() != k || err.is_nan() || err > RITZ_TOLERANCE {
        return Err(format!(
            "lowest {k} Ritz values differ from in-core lanczos: relative error {err:e} \
             (tolerance {RITZ_TOLERANCE:e}), steps {} of {}",
            res.steps, shape.steps
        ));
    }

    let traced = match timed {
        None => None,
        Some(t) => {
            let samples = t.samples.into_inner().expect("sample store poisoned");
            let host_s = solve_s - samples.iter().sum::<f64>();
            Some(traced_apply(
                &staged, &cfg, &op, seed, tracer, samples, host_s,
            )?)
        }
    };
    Ok(Solve {
        e2e: EndToEnd {
            setup_s: staged.setup_s,
            solve_s,
            cpu_s,
            peak_rss_mib,
        },
        matrix_bytes: staged.matrix_bytes,
        result: res.ritz_values,
        traced,
    })
}

/// Repeats `OocOperator`'s apply (one-iteration SpMV graph, local
/// aggregation, no barriers) with the tracing executor, and checks the
/// result bitwise against `OocOperator::apply` on the same vector.
fn traced_apply(
    staged: &StagedLanczos,
    cfg: &DoocConfig,
    op: &OocOperator,
    seed: u64,
    tracer: Tracer,
    apply_samples: Vec<f64>,
    host_s: f64,
) -> Result<TracedSolve, String> {
    let dirs = &staged.scratch.dirs;
    let x = uniform_vector(staged.grid.n, vector_seed(seed).wrapping_add(1));
    let mut want = vec![0.0; x.len()];
    catch("OocOperator::apply", || op.apply(&x, &mut want))?;
    // `OocOperator` leaves its last apply's vector arrays behind; the replay
    // needs the same names free, so it runs in a copy of the staged blocks.
    let replay = Scratch::new("lanczos-apply", 1)?;
    for b in &staged.blocks {
        let name = BlockGrid::file_name(b.coord);
        std::fs::copy(dirs[0].join(&name), replay.dirs[0].join(&name))
            .map_err(|e| format!("copy block: {e}"))?;
    }
    let app = SpmvAppBuilder::new(staged.grid, 1, staged.blocks.clone())
        .reduction(ReductionPlan::LocalAggregation)
        .sync(SyncPolicy::None);
    app.stage_initial_vector(&replay.dirs, &x)
        .map_err(|e| format!("stage x: {e}"))?;
    let (graph, external, geometry) = app.build();
    let mut cfg = cfg.clone();
    cfg.scratch_dirs = replay.dirs.clone();
    for (name, len, bs) in geometry {
        cfg = cfg.with_geometry(name, len, bs);
    }
    let tracer = Arc::new(tracer);
    let lanes = dooc_core::runtime_lane_specs(&graph, 1);
    tracer
        .timed("audit", -1, None, || {
            dooc_scheduler::audit(&graph, cfg.memory_budget, &lanes)
        })
        .map_err(|e| format!("audit: {e}"))?;
    tracer
        .timed("assign_affinity", -1, None, || {
            dooc_scheduler::assign_affinity(&graph, &external, 1)
        })
        .map_err(|e| format!("assign_affinity: {e}"))?;
    let run = tracer.open("run", 0, None);
    let exec: Arc<dyn TaskExecutor> = Arc::new(TracingExecutor {
        tracer: Arc::clone(&tracer),
        parent: run,
    });
    let runs = run_graph(&cfg, &graph, &external, Vec::new(), |_| Arc::clone(&exec));
    tracer.close(run);
    let runs = runs?;
    let got = app
        .collect_final_vector(&replay.dirs)
        .map_err(|e| format!("collect y: {e}"))?;
    if got
        .iter()
        .zip(&want)
        .any(|(g, w)| g.to_bits() != w.to_bits())
        || got.len() != want.len()
    {
        return Err("traced apply is not bitwise equal to OocOperator::apply".into());
    }
    let nnz: u64 = staged.blocks.iter().map(|b| b.nnz).sum();
    Ok(TracedSolve {
        spans: tracer.spans(),
        runs,
        matrix_bytes: staged.matrix_bytes,
        applies: 1,
        spmv_flops: 2 * nnz,
        spmv_bytes_computed: spmv_bytes_computed(&staged.grid, nnz),
        apply_samples,
        host_s,
    })
}
