//! A task executor that times each task and each public call inside it.
//!
//! It makes the same calls as `dooc_linalg::SpmvExecutor`, in the same
//! order, so its outputs are bitwise equal to an untraced run's; the only
//! addition is a span around every call.

use crate::spans::Tracer;
use dooc_core::{ExecOutcome, TaskExecutor, TaskSpec, WorkerContext};
use dooc_sparse::{fileio, slab::DEFAULT_SLAB_LEN, SlabVec};
use std::sync::Arc;

/// `SpmvExecutor` with a span around every task and every call it makes.
pub struct TracingExecutor {
    /// Where spans go.
    pub tracer: Arc<Tracer>,
    /// The span of the enclosing `run` call.
    pub parent: usize,
}

impl TracingExecutor {
    fn multiply(&self, task: &TaskSpec, ctx: &mut WorkerContext, id: usize) -> ExecOutcome {
        let t = &self.tracer;
        let node = ctx.node as i64;
        let raw = t.timed("read_array", node, Some(id), || {
            ctx.read_array(&task.inputs[0].array)
        })?;
        let m = t
            .timed("from_bytes", node, Some(id), || fileio::from_bytes(&raw))
            .map_err(|e| format!("decode matrix: {e}"))?;
        let x = t.timed("read_f64s", node, Some(id), || {
            ctx.read_f64s(&task.inputs[1].array)
        })?;
        let mut y = vec![0.0; m.nrows() as usize];
        let m = Arc::new(m);
        let x = Arc::new(x);
        t.timed("spmv", node, Some(id), || ctx.pool().spmv(&m, &x, &mut y))
            .map_err(|e| format!("spmv: {e}"))?;
        t.timed("write_f64s", node, Some(id), || {
            ctx.write_f64s(&task.outputs[0].array, &y)
        })
    }

    fn sum(&self, task: &TaskSpec, ctx: &mut WorkerContext, id: usize) -> ExecOutcome {
        let t = &self.tracer;
        let node = ctx.node as i64;
        let mut acc: Option<SlabVec> = None;
        for input in &task.inputs {
            if input.array.starts_with("bar_") {
                continue;
            }
            let x = t.timed("read_f64s", node, Some(id), || ctx.read_f64s(&input.array))?;
            match &mut acc {
                None => acc = Some(SlabVec::from_vec(x, DEFAULT_SLAB_LEN)),
                Some(a) => t.timed("axpy_slabs", node, Some(id), || {
                    ctx.pool().axpy_slabs(1.0, &Arc::new(x), a)
                }),
            }
        }
        let out = acc.ok_or("sum with no data inputs")?;
        t.timed("write_f64s_slabs", node, Some(id), || {
            ctx.write_f64s_slabs(&task.outputs[0].array, &out)
        })?;
        if task.kind == "sum_final" {
            let name = &task.outputs[0].array;
            t.timed("persist", node, Some(id), || ctx.storage().persist(name))
                .map_err(|e| format!("persist {name}: {e}"))?;
        }
        Ok(())
    }
}

impl TaskExecutor for TracingExecutor {
    fn execute(&self, task: &TaskSpec, ctx: &mut WorkerContext) -> ExecOutcome {
        let name = match task.kind.as_str() {
            "multiply" => "task:multiply",
            "sum" | "sum_final" => "task:sum",
            "barrier" => "task:barrier",
            other => return Err(format!("unknown SpMV task kind '{other}'")),
        };
        let node = ctx.node as i64;
        let id = self.tracer.open(name, node, Some(self.parent));
        let out = match name {
            "task:multiply" => self.multiply(task, ctx, id),
            "task:sum" => self.sum(task, ctx, id),
            // Dependencies are carried by the DAG; the barrier only emits
            // its token.
            _ => self.tracer.timed("write_array", node, Some(id), || {
                ctx.write_array(&task.outputs[0].array, &[0u8; 8])
            }),
        };
        self.tracer.close(id);
        out
    }
}
