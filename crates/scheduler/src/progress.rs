//! Logical timestamps and the frontier over them.
//!
//! Iterated solves stamp each vector-block producer with a `(iteration,
//! block)` [`Timestamp`]. Timestamps of the *same* block chain are totally
//! ordered by iteration; timestamps of different blocks are incomparable —
//! the partial order of timely dataflow's `progress` module restricted to
//! per-chain pointstamps. A timestamp is *closed* once every stamped task at
//! or below it on its chain has completed, which is exactly when a consumer
//! may read the block that producer sealed.
//!
//! Timely needs a separate progress protocol because its operators never
//! observe global completions. DOoC workers do: every completion reaches
//! every local scheduler on the `done` broadcast, and every task's stamp is
//! in the shared [`TaskGraph`]. So the `Frontier` is a plain per-node
//! count — built from the graph, lowered by each completion — and the
//! static audit drives its stall simulation through the same type.

use crate::task::{TaskGraph, TaskId};
use std::collections::BTreeMap;

/// A logical time in an iterated solve: iteration `iter` of vector-block
/// chain `block`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Timestamp {
    /// Iteration number (1-based for produced vectors; 0 is the external
    /// initial vector, which no task produces).
    pub iter: u32,
    /// Vector block (row-block) index the chain is keyed on.
    pub block: u32,
}

impl Timestamp {
    /// Creates a timestamp.
    pub fn new(iter: u32, block: u32) -> Self {
        Self { iter, block }
    }

    /// The partial order: `self ≤ other` iff they are on the same block
    /// chain and `self` is not a later iteration. Cross-block timestamps
    /// are incomparable (neither `≤` holds).
    pub fn less_equal(&self, other: &Timestamp) -> bool {
        self.block == other.block && self.iter <= other.iter
    }

    /// Dense packing for wire tags, digests and map keys:
    /// `iter` in the high half, `block` in the low half.
    pub fn pack(&self) -> u64 {
        ((self.iter as u64) << 32) | self.block as u64
    }

    /// Inverse of [`Timestamp::pack`].
    pub fn unpack(raw: u64) -> Self {
        Self {
            iter: (raw >> 32) as u32,
            block: raw as u32,
        }
    }
}

impl std::fmt::Display for Timestamp {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(i{}, b{})", self.iter, self.block)
    }
}

/// Per-chain counts of stamped tasks that have not completed yet.
///
/// Counts start at the graph's stamp totals and only ever fall, so a
/// timestamp that is [`Frontier::closed`] stays closed: the frontier never
/// retreats.
pub(crate) struct Frontier {
    /// Incomplete stamped tasks keyed by `(block, iter)`, so one chain is a
    /// contiguous range. Entries are removed when they reach zero.
    pending: BTreeMap<(u32, u32), u64>,
    /// Each task's stamp, indexed by task id.
    stamps: Vec<Option<Timestamp>>,
}

impl Frontier {
    /// Counts every stamped task of `graph` as incomplete.
    pub(crate) fn new(graph: &TaskGraph) -> Self {
        let stamps: Vec<Option<Timestamp>> =
            graph.ids().map(|id| graph.task(id).timestamp).collect();
        let mut pending = BTreeMap::new();
        for ts in stamps.iter().flatten() {
            *pending.entry((ts.block, ts.iter)).or_insert(0) += 1;
        }
        Self { pending, stamps }
    }

    /// Counts `id` as completed; a no-op for unstamped tasks.
    pub(crate) fn complete(&mut self, id: TaskId) {
        let Some(ts) = self.stamps.get(id.0 as usize).copied().flatten() else {
            return;
        };
        let key = (ts.block, ts.iter);
        if let Some(n) = self.pending.get_mut(&key) {
            *n -= 1;
            if *n == 0 {
                self.pending.remove(&key);
            }
        }
    }

    /// Is no incomplete task on `ts`'s chain stamped at or below `ts`?
    pub(crate) fn closed(&self, ts: Timestamp) -> bool {
        self.pending
            .range((ts.block, 0)..=(ts.block, ts.iter))
            .next()
            .is_none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskSpec;

    #[test]
    fn same_chain_ordered_by_iteration() {
        let a = Timestamp::new(1, 3);
        let b = Timestamp::new(2, 3);
        assert!(a.less_equal(&b));
        assert!(!b.less_equal(&a));
        assert!(a.less_equal(&a));
    }

    #[test]
    fn cross_chain_incomparable() {
        let a = Timestamp::new(1, 0);
        let b = Timestamp::new(5, 1);
        assert!(!a.less_equal(&b));
        assert!(!b.less_equal(&a));
    }

    #[test]
    fn pack_roundtrips() {
        for ts in [
            Timestamp::new(0, 0),
            Timestamp::new(1, 2),
            Timestamp::new(u32::MAX, 7),
            Timestamp::new(3, u32::MAX),
        ] {
            assert_eq!(Timestamp::unpack(ts.pack()), ts);
        }
    }

    #[test]
    fn pack_orders_iterations_within_chain() {
        // Within one block chain the packed value is monotone in iteration,
        // so packed keys sort in frontier order.
        assert!(Timestamp::new(1, 5).pack() < Timestamp::new(2, 5).pack());
    }

    /// Three iterations of two block chains, two stamped producers per
    /// `(iter, block)`, each gated on the previous iteration of its chain.
    fn timed_graph() -> TaskGraph {
        let mut tasks = Vec::new();
        for i in 1..=3u32 {
            for b in 0..2u32 {
                for half in 0..2 {
                    tasks.push(
                        TaskSpec::new(format!("x_{i}_{b}_{half}"), "sum")
                            .input_gated(
                                format!("x_{}_{b}_{half}", i - 1),
                                8,
                                Timestamp::new(i - 1, b),
                            )
                            .output(format!("x_{i}_{b}_{half}"), 8)
                            .at(Timestamp::new(i, b)),
                    );
                }
            }
        }
        TaskGraph::new(tasks).expect("valid")
    }

    #[test]
    fn external_iteration_zero_is_closed_from_the_start() {
        let f = Frontier::new(&timed_graph());
        // No task is stamped at iteration 0 — x_0 is staged data — so the
        // first iteration's gates pass immediately.
        assert!(f.closed(Timestamp::new(0, 0)));
        assert!(f.closed(Timestamp::new(0, 1)));
        assert!(!f.closed(Timestamp::new(1, 0)));
    }

    #[test]
    fn completions_close_a_chain_in_iteration_order() {
        let g = timed_graph();
        let mut f = Frontier::new(&g);
        let id = |name: &str| g.ids().find(|&t| g.task(t).name == name).expect("task");
        f.complete(id("x_1_0_0"));
        assert!(
            !f.closed(Timestamp::new(1, 0)),
            "one producer still pending"
        );
        f.complete(id("x_1_0_1"));
        assert!(f.closed(Timestamp::new(1, 0)));
        assert!(!f.closed(Timestamp::new(1, 1)), "chains are independent");
        // Finishing iteration 3 early does not close iteration 2.
        f.complete(id("x_3_0_0"));
        f.complete(id("x_3_0_1"));
        assert!(!f.closed(Timestamp::new(3, 0)));
        f.complete(id("x_2_0_0"));
        f.complete(id("x_2_0_1"));
        assert!(f.closed(Timestamp::new(3, 0)));
    }

    #[test]
    fn unstamped_completions_do_not_move_the_frontier() {
        let ts = Timestamp::new(1, 0);
        let g = TaskGraph::new(vec![
            TaskSpec::new("p_1", "multiply").output("p_1", 8),
            TaskSpec::new("x_1", "sum")
                .input("p_1", 8)
                .output("x_1", 8)
                .at(ts),
        ])
        .expect("valid");
        let mut f = Frontier::new(&g);
        f.complete(TaskId(0));
        assert!(!f.closed(ts), "only the stamped producer closes (1, 0)");
        f.complete(TaskId(1));
        assert!(f.closed(ts));
    }

    #[test]
    fn closed_never_reopens() {
        // Random completion orders of the timed graph: once a timestamp is
        // closed it stays closed for the rest of the run.
        let g = timed_graph();
        let probes: Vec<Timestamp> = (0..=4)
            .flat_map(|i| (0..3).map(move |b| Timestamp::new(i, b)))
            .collect();
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..64 {
            let mut order: Vec<TaskId> = g.ids().collect();
            for i in (1..order.len()).rev() {
                rng = rng
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                order.swap(i, (rng >> 33) as usize % (i + 1));
            }
            let mut f = Frontier::new(&g);
            let mut was_closed: Vec<bool> = probes.iter().map(|&ts| f.closed(ts)).collect();
            for id in order {
                f.complete(id);
                for (seen, &ts) in was_closed.iter_mut().zip(&probes) {
                    let now = f.closed(ts);
                    assert!(now || !*seen, "{ts} reopened");
                    *seen = now;
                }
            }
            assert!(was_closed.iter().all(|&c| c), "every timestamp closes");
        }
    }
}
