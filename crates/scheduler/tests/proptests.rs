//! Property-based tests over the scheduler's invariants: arbitrary layered
//! DAGs, arbitrary completion interleavings, arbitrary placements.

use dooc_scheduler::{
    assign_affinity, assign_round_robin, LocalScheduler, NodeId, OrderPolicy, ReadyTracker,
    TaskGraph, TaskId, TaskSpec, Timestamp,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

/// Builds a random layered DAG: `widths[l]` tasks in layer `l`, each task
/// consuming a random subset of the previous layer's outputs.
fn arb_layered_graph() -> impl Strategy<Value = TaskGraph> {
    (proptest::collection::vec(1usize..5, 1..5), any::<u64>()).prop_map(|(widths, seed)| {
        let mut tasks = Vec::new();
        let mut rng = seed;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let mut prev_outputs: Vec<String> = Vec::new();
        for (l, &w) in widths.iter().enumerate() {
            let mut outs = Vec::new();
            for i in 0..w {
                let name = format!("t{l}_{i}");
                let mut t = TaskSpec::new(&name, "k")
                    .output(format!("o{l}_{i}"), 1 + next() % 100)
                    .flops(1 + next() % 50);
                for o in &prev_outputs {
                    if next() % 2 == 0 {
                        t = t.input(o.clone(), 1 + next() % 100);
                    }
                }
                outs.push(format!("o{l}_{i}"));
                tasks.push(t);
            }
            prev_outputs = outs;
        }
        TaskGraph::new(tasks).expect("layered construction is acyclic")
    })
}

/// Builds a random frontier-mode graph: `chains` block chains over
/// `iters` iterations. Per iteration, each chain has 1–2 stamped producers
/// `x_{i}_{b}_{h}` at `(i, b)`, each summing a few multiplies of the same
/// iteration. Every multiply reads one previous-iteration block across a
/// gate (no DAG edge); iteration 1's gates sit on the external `x_0_*`.
fn arb_timed_graph() -> impl Strategy<Value = TaskGraph> {
    (1u32..4, 1u32..4, any::<u64>()).prop_map(|(chains, iters, seed)| {
        let mut rng = seed;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        let producers: Vec<u64> = (0..chains).map(|_| 1 + next() % 2).collect();
        let mut tasks = Vec::new();
        for i in 1..=iters {
            for b in 0..chains {
                for h in 0..producers[b as usize] {
                    let mut sum = TaskSpec::new(format!("x_{i}_{b}_{h}"), "sum")
                        .output(format!("x_{i}_{b}_{h}"), 8)
                        .at(Timestamp::new(i, b));
                    for m in 0..1 + next() % 3 {
                        let src = (next() % chains as u64) as u32;
                        let src_h = next() % producers[src as usize];
                        let mul = format!("p_{i}_{b}_{h}_{m}");
                        tasks.push(
                            TaskSpec::new(&mul, "multiply")
                                .input_gated(
                                    format!("x_{}_{src}_{src_h}", i - 1),
                                    8,
                                    Timestamp::new(i - 1, src),
                                )
                                .output(&mul, 8),
                        );
                        sum = sum.input(mul, 8);
                    }
                    tasks.push(sum);
                }
            }
        }
        TaskGraph::new(tasks).expect("gates sit on their producers' stamps")
    })
}

proptest! {
    /// Every generated layered DAG has a valid topological order covering
    /// every task exactly once.
    #[test]
    fn topo_order_is_a_permutation(g in arb_layered_graph()) {
        let order = g.topo_order().expect("acyclic");
        let set: HashSet<TaskId> = order.iter().copied().collect();
        prop_assert_eq!(set.len(), g.len());
        let pos: HashMap<TaskId, usize> =
            order.iter().enumerate().map(|(i, &t)| (t, i)).collect();
        for id in g.ids() {
            for &p in g.preds(id) {
                prop_assert!(pos[&p] < pos[&id]);
            }
        }
    }

    /// Driving the ready tracker to completion in *any* greedy order visits
    /// every task exactly once and never offers a task before its preds.
    #[test]
    fn ready_tracker_exhausts_any_order(g in arb_layered_graph(), pick in any::<u64>()) {
        let mut rt = ReadyTracker::new(&g);
        let mut ready: Vec<TaskId> = rt.initially_ready();
        let mut done: HashSet<TaskId> = HashSet::new();
        let mut rng = pick;
        while !ready.is_empty() {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(99991);
            let idx = (rng >> 33) as usize % ready.len();
            let t = ready.swap_remove(idx);
            for &p in g.preds(t) {
                prop_assert!(done.contains(&p), "{t} offered before {p}");
            }
            done.insert(t);
            ready.extend(rt.complete(&g, t));
        }
        prop_assert_eq!(done.len(), g.len());
        prop_assert!(rt.all_done());
    }

    /// For independent tasks whose inputs each live on a single node (the
    /// SpMV multiply phase), affinity placement achieves *zero* remote input
    /// bytes — the invariant the heuristic is designed around. (On deep
    /// adversarial DAGs a greedy heuristic can lose to any fixed placement;
    /// the paper notes the underlying caching problem is NP-hard.)
    #[test]
    fn affinity_colocates_single_source_tasks(
        ntasks in 1usize..30,
        nnodes in 1u64..5,
        locseed in any::<u64>(),
    ) {
        let mut rng = locseed;
        let mut next = move || {
            rng = rng.wrapping_mul(2862933555777941757).wrapping_add(3037000493);
            rng >> 33
        };
        let mut loc = HashMap::new();
        let mut tasks = Vec::new();
        for i in 0..ntasks {
            let node = next() % nnodes;
            let file = format!("f{i}");
            loc.insert(file.clone(), node);
            tasks.push(
                TaskSpec::new(format!("t{i}"), "k")
                    .input(file, 100 + next() % 1000)
                    .output(format!("o{i}"), 8)
                    .flops(1 + next() % 10),
            );
        }
        let g = TaskGraph::new(tasks).expect("independent tasks");
        let aff = assign_affinity(&g, &loc, nnodes).expect("placed");
        prop_assert_eq!(aff.remote_input_bytes(&g, &loc), 0);
        // And it is never worse than round-robin here.
        let rr = assign_round_robin(&g, nnodes);
        prop_assert!(aff.remote_input_bytes(&g, &loc) <= rr.remote_input_bytes(&g, &loc));
    }

    /// A set of local schedulers covering a partition of the graph, fed the
    /// same completion stream, collectively executes every task exactly once
    /// regardless of policy and partitioning — untimed DAGs and
    /// frontier-gated ones alike. A gated task is only ever handed out once
    /// every task stamped at or below each of its gates has completed.
    #[test]
    fn partitioned_schedulers_cover_graph(
        g in prop_oneof![arb_layered_graph(), arb_timed_graph()],
        nnodes in 1u64..4,
        policy in prop_oneof![Just(OrderPolicy::Fifo), Just(OrderPolicy::DataAware)],
    ) {
        let placement = assign_round_robin(&g, nnodes);
        let mut schedulers: Vec<LocalScheduler> = (0..nnodes)
            .map(|n| LocalScheduler::new(&g, placement.tasks_of(NodeId(n as usize)), policy))
            .collect();
        let oracle: HashSet<String> = HashSet::new();
        let mut executed: Vec<TaskId> = Vec::new();
        let mut completed: HashSet<TaskId> = HashSet::new();
        loop {
            let mut progressed = false;
            let mut completed_now = Vec::new();
            for s in schedulers.iter_mut() {
                while let Some(t) = s.next_task(&g, &oracle) {
                    for gate in g.gates(t) {
                        for h in g.ids() {
                            let below = g.task(h).timestamp.is_some_and(|ts| ts.less_equal(&gate));
                            prop_assert!(
                                !below || completed.contains(&h),
                                "{} handed out behind gate {gate} before {} completed",
                                g.task(t).name,
                                g.task(h).name
                            );
                        }
                    }
                    completed_now.push(t);
                    progressed = true;
                }
            }
            for t in completed_now {
                executed.push(t);
                completed.insert(t);
                for s in schedulers.iter_mut() {
                    s.on_complete(&g, t);
                }
            }
            if !progressed {
                break;
            }
        }
        let unique: HashSet<TaskId> = executed.iter().copied().collect();
        prop_assert_eq!(executed.len(), g.len(), "every task exactly once");
        prop_assert_eq!(unique.len(), g.len());
        for s in &schedulers {
            prop_assert!(s.graph_done());
        }
    }

    /// Prefetch candidates are always non-resident inputs of ready tasks,
    /// deduplicated.
    #[test]
    fn prefetch_candidates_sound(g in arb_layered_graph(), w in 0usize..6) {
        let oracle: HashSet<String> = HashSet::new();
        let ls = LocalScheduler::new(&g, g.ids(), OrderPolicy::DataAware)
            .with_prefetch_window(w);
        let cands = ls.prefetch_candidates(&g, &oracle);
        let mut seen = HashSet::new();
        for c in &cands {
            prop_assert!(seen.insert(c.clone()), "duplicate candidate {c}");
        }
        // Every candidate is an input of some initially-ready task.
        let ready: HashSet<TaskId> = ReadyTracker::new(&g).initially_ready().into_iter().collect();
        for c in &cands {
            let found = ready.iter().any(|&t| {
                g.task(t).inputs.iter().any(|d| &d.array == c)
            });
            prop_assert!(found, "candidate {c} not an input of any ready task");
        }
    }
}
