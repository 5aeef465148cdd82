//! The execution engine: threads, wiring, and run reports.
//!
//! A node *mounts* its share of a [`Layout`]: one inbox per *(consumer
//! filter, input port)* — merging fanned-in streams — whose lanes are
//! channels for the consumer instances on this node and frame addresses on a
//! [`crate::Transport`] for the rest; one OS thread per local filter
//! instance; and a [`Router`] that dispatches frames from remote producers
//! into local lanes. The router mirrors the producer-endpoint refcount: a
//! local port closes once every local writer has dropped *and* a `Close`
//! frame has arrived for every remote producer endpoint that could reach it.
//! *Finishing* a node joins its threads, shuts its transport down and
//! returns a [`RuntimeReport`] with the per-stream traffic counters. Filter
//! errors and panics are collected and reported (the first error wins;
//! remaining filters unwind naturally as their streams close).
//!
//! [`Runtime::run_distributed`] mounts and finishes one node of a cluster
//! whose other nodes are other processes. [`Runtime::run`] runs a whole
//! layout in this process, each node mounted on its own member of a
//! [`crate::ChannelTransport`] cluster, so in-process and distributed runs
//! take one code path.

use crate::buffer::DataBuffer;
use crate::codec::{Frame, FrameKind};
use crate::filter::FilterContext;
use crate::layout::Layout;
use crate::stream::{Delivery, Inbox, PortCounters, StreamReader, StreamStats, StreamWriter};
use crate::transport::{ChannelTransport, FrameSink, Transport};
use crate::{FsError, NodeId, Result};
use dooc_sync::channel::Sender;
use dooc_sync::Mutex;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Post-run traffic summary of one stream.
#[derive(Clone, Debug)]
pub struct StreamReport {
    /// `producer.port -> consumer.port` label.
    pub name: String,
    /// Buffers sent.
    pub buffers: u64,
    /// Total wire bytes sent.
    pub bytes: u64,
    /// Wire bytes that crossed node boundaries.
    pub remote_bytes: u64,
}

/// Post-run delivery tally of one (consumer filter, input port) inbox.
#[derive(Clone, Debug)]
pub struct PortReport {
    /// `consumer.port` label.
    pub name: String,
    /// Buffers enqueued into the port's lanes (each broadcast replica
    /// counts as one).
    pub delivered: u64,
    /// Buffers dequeued by consumer instances.
    pub received: u64,
    /// Wire bytes enqueued into the port's lanes.
    pub delivered_bytes: u64,
    /// Wire bytes dequeued by consumer instances.
    pub received_bytes: u64,
}

/// Result of a completed dataflow run.
#[derive(Clone, Debug, Default)]
pub struct RuntimeReport {
    /// Wall-clock duration of the run.
    pub elapsed: Duration,
    /// Per-stream traffic.
    pub streams: Vec<StreamReport>,
    /// Per-port delivery tallies (for the shutdown leak audit).
    pub ports: Vec<PortReport>,
}

impl RuntimeReport {
    /// Total bytes sent over all streams.
    pub fn total_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.bytes).sum()
    }

    /// Total bytes that crossed node boundaries.
    pub fn total_remote_bytes(&self) -> u64 {
        self.streams.iter().map(|s| s.remote_bytes).sum()
    }

    /// Traffic of the stream with the given label, if present.
    pub fn stream(&self, name: &str) -> Option<&StreamReport> {
        self.streams.iter().find(|s| s.name == name)
    }

    /// Ports whose consumers dequeued fewer buffers than producers
    /// enqueued — buffers abandoned in a lane at shutdown. An empty result
    /// means every stream buffer was returned.
    pub fn undrained_ports(&self) -> Vec<&PortReport> {
        self.ports
            .iter()
            .filter(|p| p.received != p.delivered)
            .collect()
    }

    /// Folds another node's report of the same layout into this one. Every
    /// node lists the same streams and ports in the same order, so the
    /// counters add up entry by entry; the run lasted as long as its slowest
    /// node.
    fn absorb(&mut self, other: RuntimeReport) {
        self.elapsed = self.elapsed.max(other.elapsed);
        for (s, o) in self.streams.iter_mut().zip(other.streams) {
            debug_assert_eq!(s.name, o.name);
            s.buffers += o.buffers;
            s.bytes += o.bytes;
            s.remote_bytes += o.remote_bytes;
        }
        for (p, o) in self.ports.iter_mut().zip(other.ports) {
            debug_assert_eq!(p.name, o.name);
            p.delivered += o.delivered;
            p.received += o.received;
            p.delivered_bytes += o.delivered_bytes;
            p.received_bytes += o.received_bytes;
        }
    }
}

/// Per-lane state of the [`Router`]: where incoming `Data` frames for the
/// lane go, and how many `Close` frames each remote producer node still owes
/// before the lane's sender clone can be released.
struct LaneState {
    tx: Option<Sender<DataBuffer>>,
    counters: Arc<PortCounters>,
    /// `peer node -> outstanding remote producer endpoints`. While non-empty
    /// the router keeps `tx` alive, holding the port open on behalf of the
    /// remote writers.
    refs: HashMap<usize, usize>,
}

/// Consumer-side dispatcher for frames arriving over a [`Transport`]: maps
/// `(inbox, lane)` to the matching local channel lane and mirrors the
/// producer-endpoint close protocol (see [`crate::stream::StreamWriter`]'s
/// drop impl, which emits the `Close` frames this router consumes).
pub(crate) struct Router {
    lanes: Mutex<HashMap<(u16, u32), LaneState>>,
}

impl Router {
    fn release(lanes: &mut HashMap<(u16, u32), LaneState>, key: (u16, u32), from: usize, n: usize) {
        if let Some(l) = lanes.get_mut(&key) {
            if let Some(c) = l.refs.get_mut(&from) {
                *c = c.saturating_sub(n);
                if *c == 0 {
                    l.refs.remove(&from);
                }
            }
            if l.refs.is_empty() {
                // Last remote producer endpoint gone: drop the sender clone
                // so the port can close once local writers are gone too.
                lanes.remove(&key);
            }
        }
    }
}

impl FrameSink for Router {
    fn on_frame(&self, from: NodeId, frame: Frame) {
        let key = (frame.inbox, frame.lane);
        match frame.kind {
            FrameKind::Data => {
                // Clone the sender out of the lock before the (possibly
                // blocking) lane insert, so backpressure on one lane never
                // stalls close handling for others… it does stall this pump
                // thread, which is exactly the socket-level backpressure we
                // want.
                let slot = {
                    let lanes = self.lanes.lock();
                    lanes
                        .get(&key)
                        .and_then(|l| l.tx.clone().map(|tx| (tx, Arc::clone(&l.counters))))
                };
                let Some((tx, counters)) = slot else {
                    // Consumers already exited (error shutdown) — drop the
                    // frame, as a local writer's failed send would.
                    dooc_obs::instant(
                        dooc_obs::Category::Filterstream,
                        "fs.router.orphan_frame",
                        from.0 as i64,
                    );
                    return;
                };
                let buf = DataBuffer {
                    tag: frame.tag,
                    payload: frame.payload,
                };
                let wire = buf.wire_size();
                if tx.send(buf).is_ok() {
                    use dooc_sync::atomic::Ordering;
                    counters.enqueued.fetch_add(1, Ordering::Relaxed);
                    counters.bytes_enqueued.fetch_add(wire, Ordering::Relaxed);
                }
            }
            FrameKind::Close => {
                let mut lanes = self.lanes.lock();
                Router::release(&mut lanes, key, from.0, 1);
            }
            FrameKind::Hello | FrameKind::Blob => {
                dooc_obs::instant(
                    dooc_obs::Category::Filterstream,
                    "fs.router.unexpected_frame",
                    from.0 as i64,
                );
            }
        }
    }

    fn on_peer_closed(&self, from: NodeId) {
        // The peer process is gone: whatever Close frames it still owed will
        // never arrive. Treat its remaining endpoints as closed so local
        // consumers unblock instead of hanging on a dead node.
        let mut lanes = self.lanes.lock();
        lanes.retain(|_, l| {
            l.refs.remove(&from.0);
            !l.refs.is_empty()
        });
    }
}

/// Checks a layout before any node mounts it: the structural rules of
/// [`Layout::validate`] plus what routing across nodes imposes — every
/// placement inside the `nnodes` cluster, round-robin consumers on one node,
/// and input ports addressable by a `u16` inbox index.
fn validate(layout: &Layout, nnodes: usize) -> Result<()> {
    layout.validate()?;
    for f in &layout.filters {
        for &n in &f.placements {
            if n.0 >= nnodes {
                return Err(FsError::InvalidLayout(format!(
                    "filter '{}' placed on {n} but the cluster has {nnodes} nodes",
                    f.name
                )));
            }
        }
    }
    for s in &layout.streams {
        if s.delivery == Delivery::RoundRobin {
            let consumers = &layout.filters[s.to.0].placements;
            if consumers.windows(2).any(|w| w[0] != w[1]) {
                return Err(FsError::InvalidLayout(format!(
                    "round-robin stream into '{}.{}' spans nodes — a shared \
                     demand-driven lane cannot cross nodes; use aligned, \
                     broadcast or addressed delivery",
                    layout.filters[s.to.0].name, s.to_port
                )));
            }
        }
    }
    let ports: HashSet<_> = layout
        .streams
        .iter()
        .map(|s| (s.to.0, &s.to_port))
        .collect();
    if ports.len() > 1 << 16 {
        return Err(FsError::InvalidLayout("more than 65536 input ports".into()));
    }
    Ok(())
}

/// One node's share of a layout after [`mount`]: frame delivery started and
/// the local filter instances running.
struct Mounted {
    transport: Arc<dyn Transport>,
    started: Instant,
    handles: Vec<(String, usize, JoinHandle<Result<()>>)>,
    /// A transport start or thread spawn failure. Nothing was spawned after
    /// it, and the unspawned instances' endpoints are dropped, so the rest
    /// of the run still drains.
    error: Option<FsError>,
    stream_stats: Vec<(String, Arc<StreamStats>)>,
    port_counters: Vec<(String, Arc<PortCounters>)>,
}

/// Mounts the share of a validated layout placed on `transport.node()`:
/// builds the inboxes, writers, readers and router, starts frame delivery,
/// and spawns the local filter instances. Inbox indices follow first
/// occurrence in stream declaration order, so every node that mounts the
/// same layout agrees on wire addresses.
fn mount(layout: &mut Layout, transport: Arc<dyn Transport>) -> Mounted {
    let me = transport.node();
    let Layout { filters, streams } = layout;

    // One inbox per (consumer filter, input port); fanned-in streams share
    // it. Validation guaranteed delivery agreement and the index range.
    let mut inboxes: HashMap<(usize, String), (u16, Inbox)> = HashMap::new();
    for s in streams.iter() {
        let key = (s.to.0, s.to_port.clone());
        if inboxes.contains_key(&key) {
            continue;
        }
        let idx = inboxes.len() as u16;
        let inbox = Inbox::new_on(
            s.delivery,
            s.capacity,
            &filters[s.to.0].placements,
            &s.to_port,
            idx,
            Arc::clone(&transport),
        );
        inboxes.insert(key, (idx, inbox));
    }

    // Per-stream stats and writers for the producer instances on this node
    // (remote ones announce themselves through the transport).
    let mut stream_stats: Vec<(String, Arc<StreamStats>)> = Vec::with_capacity(streams.len());
    // writers[fidx][inst] : port -> StreamWriter
    let mut writers: Vec<Vec<HashMap<String, StreamWriter>>> = filters
        .iter()
        .map(|f| (0..f.placements.len()).map(|_| HashMap::new()).collect())
        .collect();
    for s in streams.iter() {
        let name = format!(
            "{}.{} -> {}.{}",
            filters[s.from.0].name, s.from_port, filters[s.to.0].name, s.to_port
        );
        let stats = Arc::new(StreamStats::default());
        stream_stats.push((name, Arc::clone(&stats)));
        let (_, inbox) = &inboxes[&(s.to.0, s.to_port.clone())];
        for (inst, &node) in filters[s.from.0].placements.iter().enumerate() {
            if node == me {
                let w = inbox.writer(&s.from_port, inst, Arc::clone(&stats));
                writers[s.from.0][inst].insert(s.from_port.clone(), w);
            }
        }
    }

    // The router holds sender clones for the local lanes remote producers
    // can reach; frame delivery starts before any local filter runs.
    let mut lanes: HashMap<(u16, u32), LaneState> = HashMap::new();
    for s in streams.iter() {
        let (idx, inbox) = &inboxes[&(s.to.0, s.to_port.clone())];
        let consumers = &filters[s.to.0].placements;
        for (p, &pnode) in filters[s.from.0].placements.iter().enumerate() {
            if pnode == me {
                continue;
            }
            // Lanes on this node the remote endpoint can reach — must mirror
            // StreamWriter::send_closes exactly.
            let reachable = match s.delivery {
                Delivery::RoundRobin => 0..1,
                Delivery::Aligned => p..p + 1,
                Delivery::Broadcast | Delivery::Addressed => 0..consumers.len(),
            };
            for lane in reachable.filter(|&l| consumers.get(l) == Some(&me)) {
                let entry = lanes
                    .entry((*idx, lane as u32))
                    .or_insert_with(|| LaneState {
                        tx: inbox.local_lane_sender(lane),
                        counters: Arc::clone(&inbox.counters),
                        refs: HashMap::new(),
                    });
                *entry.refs.entry(pnode.0).or_insert(0) += 1;
            }
        }
    }
    let router = Arc::new(Router {
        lanes: Mutex::new(lanes),
    });
    let mut error = transport.start(router).err();

    // Readers of the local consumer instances; keep each inbox's delivery
    // tally for the post-run leak audit.
    // readers[fidx][inst] : port -> StreamReader
    let mut readers: Vec<Vec<HashMap<String, StreamReader>>> = filters
        .iter()
        .map(|f| (0..f.placements.len()).map(|_| HashMap::new()).collect())
        .collect();
    let mut port_counters: Vec<(String, Arc<PortCounters>)> = Vec::new();
    for ((fidx, port), (_, mut inbox)) in inboxes {
        port_counters.push((
            format!("{}.{}", filters[fidx].name, port),
            Arc::clone(&inbox.counters),
        ));
        for (inst, slot) in readers[fidx].iter_mut().enumerate() {
            if filters[fidx].placements[inst] == me {
                slot.insert(port.clone(), inbox.take_reader(inst));
            }
        }
    }
    port_counters.sort_by(|a, b| a.0.cmp(&b.0));

    let started = Instant::now();
    let mut handles = Vec::new();
    'spawn: for (fidx, decl) in filters.iter_mut().enumerate().rev() {
        let replicas = decl.placements.len();
        for (inst, &node) in decl.placements.iter().enumerate().rev() {
            if error.is_some() {
                break 'spawn;
            }
            if node != me {
                continue;
            }
            let inputs = std::mem::take(&mut readers[fidx][inst]);
            let outputs = std::mem::take(&mut writers[fidx][inst]);
            let mut ctx =
                FilterContext::new(decl.name.clone(), node, inst, replicas, inputs, outputs);
            let mut filter = (decl.factory)(inst);
            let name = decl.name.clone();
            let spawned = std::thread::Builder::new()
                .name(format!("{name}[{inst}]"))
                .spawn(move || -> Result<()> {
                    let _span = dooc_obs::enabled().then(|| {
                        dooc_obs::span(
                            dooc_obs::Category::Filterstream,
                            dooc_obs::intern(&format!("filter:{}", ctx.name)),
                            ctx.node.0 as i64,
                        )
                    });
                    filter.run(&mut ctx)
                });
            match spawned {
                Ok(handle) => handles.push((name, inst, handle)),
                Err(e) => {
                    error = Some(FsError::InvalidLayout(format!(
                        "failed to spawn thread for {name}[{inst}]: {e}"
                    )))
                }
            }
        }
    }
    // Every remaining endpoint drops here, so closure cascades correctly
    // (writers emit their Close frames).
    Mounted {
        transport,
        started,
        handles,
        error,
        stream_stats,
        port_counters,
    }
}

impl Mounted {
    /// Joins the local filter threads, shuts the transport down and builds
    /// this node's report. The transport shutdown runs on the error path
    /// too, so a failing node still tells its peers it is gone rather than
    /// leaving them blocked on a silent link. The first error wins.
    fn finish(self) -> Result<RuntimeReport> {
        let mut first_error = self.error;
        for (name, inst, handle) in self.handles {
            let err = match handle.join() {
                Ok(Ok(())) => continue,
                Ok(Err(e)) => e,
                Err(_) => FsError::FilterPanicked {
                    filter: name,
                    instance: inst,
                },
            };
            first_error.get_or_insert(err);
        }
        self.transport.shutdown();
        if let Some(e) = first_error {
            return Err(e);
        }
        let streams = self
            .stream_stats
            .into_iter()
            .map(|(name, st)| {
                let (buffers, bytes, remote_bytes) = st.snapshot();
                StreamReport {
                    name,
                    buffers,
                    bytes,
                    remote_bytes,
                }
            })
            .collect();
        let ports = self
            .port_counters
            .into_iter()
            .map(|(name, c)| {
                use dooc_sync::atomic::Ordering;
                PortReport {
                    name,
                    delivered: c.enqueued.load(Ordering::Relaxed),
                    received: c.dequeued.load(Ordering::Relaxed),
                    delivered_bytes: c.bytes_enqueued.load(Ordering::Relaxed),
                    received_bytes: c.bytes_dequeued.load(Ordering::Relaxed),
                }
            })
            .collect();
        Ok(RuntimeReport {
            elapsed: self.started.elapsed(),
            streams,
            ports,
        })
    }
}

/// The filter-stream execution engine.
pub struct Runtime;

impl Runtime {
    /// Runs a layout to completion in this process. Each node — 0 up to the
    /// highest placed one — gets its own [`ChannelTransport`], inboxes,
    /// router and filter threads, exactly as a [`Runtime::run_distributed`]
    /// process would, so cross-node buffers travel as frames here too. The
    /// report sums the nodes' stream and port counters; `elapsed` is the
    /// slowest node's.
    pub fn run(mut layout: Layout) -> Result<RuntimeReport> {
        let nnodes = layout
            .filters
            .iter()
            .flat_map(|f| &f.placements)
            .map(|n| n.0 + 1)
            .max()
            .unwrap_or(1);
        validate(&layout, nnodes)?;
        let nodes: Vec<Mounted> = ChannelTransport::cluster(nnodes)
            .into_iter()
            .map(|t| mount(&mut layout, Arc::new(t)))
            .collect();
        // A channel transport's shutdown returns only once every member has
        // dropped its senders, so the nodes must finish concurrently.
        // Node 0 finishes on the calling thread, the rest on scoped threads.
        std::thread::scope(|s| {
            let mut nodes = nodes.into_iter();
            let head = nodes.next();
            let rest: Vec<_> = nodes.map(|m| s.spawn(move || m.finish())).collect();
            head.map(Mounted::finish)
                .into_iter()
                .chain(
                    rest.into_iter()
                        .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p))),
                )
                .reduce(|a, b| {
                    let mut a = a?;
                    a.absorb(b?);
                    Ok(a)
                })
                .unwrap_or_else(|| Ok(RuntimeReport::default()))
        })
    }

    /// Runs this node's share of a layout: spawns only the filter instances
    /// placed on `transport.node()`, routes streams toward other nodes
    /// through the transport, and dispatches incoming frames into local
    /// inboxes. Every participating process must call this with an
    /// *identical* layout (same filters, placements and stream declarations
    /// in the same order — inbox indices are assigned by declaration order
    /// and must agree across the cluster). The caller performs any pre-start
    /// [`Transport::exchange`] rounds; this method starts frame delivery and
    /// shuts the transport down after the local filters finish.
    ///
    /// The returned report covers *this process's* view: stream stats count
    /// local producers only, port tallies cover local lanes only.
    pub fn run_distributed(
        mut layout: Layout,
        transport: Arc<dyn Transport>,
    ) -> Result<RuntimeReport> {
        validate(&layout, transport.nnodes())?;
        mount(&mut layout, transport).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::buffer::DataBuffer;
    use crate::layout::Layout;
    use crate::{Delivery, FilterContext, NodeId};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    #[test]
    fn two_stage_pipeline_transfers_data() {
        let mut layout = Layout::new();
        let total = Arc::new(AtomicU64::new(0));
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                for i in 0..100u64 {
                    out.send(DataBuffer::from_u64s(0, &[i]))?;
                }
                Ok(())
            }),
        );
        let sum = Arc::clone(&total);
        let sink = layout.add_filter(
            "sink",
            NodeId(1),
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while let Some(b) = inp.recv() {
                    sum.fetch_add(b.as_u64s()[0], Ordering::Relaxed);
                }
                Ok(())
            }),
        );
        layout.connect(src, "out", sink, "in");
        let report = Runtime::run(layout).expect("run ok");
        assert_eq!(total.load(Ordering::Relaxed), 99 * 100 / 2);
        let s = report
            .stream("source.out -> sink.in")
            .expect("stream logged");
        assert_eq!(s.buffers, 100);
        assert_eq!(s.remote_bytes, s.bytes, "cross-node stream fully remote");
    }

    #[test]
    fn replicated_consumer_shares_work() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                for i in 0..64u64 {
                    out.send(DataBuffer::tag_only(i))?;
                }
                Ok(())
            }),
        );
        let counts: Arc<Vec<AtomicU64>> = Arc::new((0..4).map(|_| AtomicU64::new(0)).collect());
        let c2 = Arc::clone(&counts);
        let workers = layout.add_replicated("worker", vec![NodeId(0); 4], move |_i| {
            let counts = Arc::clone(&c2);
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while inp.recv().is_some() {
                    counts[ctx.instance].fetch_add(1, Ordering::Relaxed);
                }
                Ok(())
            })
        });
        layout.connect(src, "out", workers, "in");
        Runtime::run(layout).expect("run ok");
        let total: u64 = counts.iter().map(|c| c.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 64, "every buffer processed exactly once");
    }

    #[test]
    fn broadcast_reaches_every_replica() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("out")?.send(DataBuffer::tag_only(5))?;
                Ok(())
            }),
        );
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..3).map(|_| AtomicU64::new(0)).collect());
        let s2 = Arc::clone(&seen);
        let workers = layout.add_replicated("w", vec![NodeId(0); 3], move |_| {
            let seen = Arc::clone(&s2);
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while let Some(b) = inp.recv() {
                    seen[ctx.instance].fetch_add(b.tag, Ordering::Relaxed);
                }
                Ok(())
            })
        });
        layout.connect_with(src, "out", workers, "in", Delivery::Broadcast, 8);
        Runtime::run(layout).expect("run ok");
        for c in seen.iter() {
            assert_eq!(c.load(Ordering::Relaxed), 5);
        }
    }

    #[test]
    fn addressed_replies_reach_requesting_instance() {
        // Workers send their instance id to a server; the server replies to
        // exactly that instance (the DOoC storage reply pattern).
        let mut layout = Layout::new();
        let nworkers = 3;
        let server = layout.add_filter(
            "server",
            NodeId(0),
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("req")?;
                let out = ctx.output("rep")?;
                while let Some(b) = inp.recv() {
                    let who = b.as_u64s()[0] as usize;
                    out.send_to(NodeId(who), DataBuffer::from_u64s(0, &[who as u64 * 10]))?;
                }
                Ok(())
            }),
        );
        let oks: Arc<Vec<AtomicU64>> = Arc::new((0..nworkers).map(|_| AtomicU64::new(0)).collect());
        let o2 = Arc::clone(&oks);
        let workers = layout.add_replicated("worker", vec![NodeId(1); nworkers], move |_| {
            let oks = Arc::clone(&o2);
            Box::new(move |ctx: &mut FilterContext| {
                ctx.output("req")?
                    .send(DataBuffer::from_u64s(0, &[ctx.instance as u64]))?;
                ctx.close_output("req");
                let rep = ctx.input("rep")?.recv().expect("a reply");
                assert_eq!(rep.as_u64s()[0], ctx.instance as u64 * 10);
                oks[ctx.instance].fetch_add(1, Ordering::Relaxed);
                Ok(())
            })
        });
        layout.connect(workers, "req", server, "req");
        layout.connect_with(server, "rep", workers, "rep", Delivery::Addressed, 8);
        Runtime::run(layout).expect("run ok");
        for c in oks.iter() {
            assert_eq!(c.load(Ordering::Relaxed), 1);
        }
    }

    #[test]
    fn fan_in_from_two_declarations() {
        let mut layout = Layout::new();
        let mk_src = |tag: u64| -> Box<dyn crate::Filter> {
            Box::new(move |ctx: &mut FilterContext| {
                ctx.output("out")?.send(DataBuffer::tag_only(tag))?;
                Ok(())
            })
        };
        let a = layout.add_filter("a", NodeId(0), mk_src(1));
        let b = layout.add_filter("b", NodeId(0), mk_src(2));
        let total = Arc::new(AtomicU64::new(0));
        let t = Arc::clone(&total);
        let sink = layout.add_filter(
            "sink",
            NodeId(0),
            Box::new(move |ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while let Some(buf) = inp.recv() {
                    t.fetch_add(buf.tag, Ordering::Relaxed);
                }
                Ok(())
            }),
        );
        layout.connect(a, "out", sink, "in");
        layout.connect(b, "out", sink, "in");
        Runtime::run(layout).expect("run ok");
        assert_eq!(total.load(Ordering::Relaxed), 3, "both sources merged");
    }

    #[test]
    fn aligned_pairs_instances() {
        let mut layout = Layout::new();
        let nodes = vec![NodeId(0), NodeId(1)];
        let prod = layout.add_replicated("p", nodes.clone(), |_| {
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("out")?
                    .send(DataBuffer::from_u64s(0, &[ctx.instance as u64]))?;
                Ok(())
            })
        });
        let seen: Arc<Vec<AtomicU64>> = Arc::new((0..2).map(|_| AtomicU64::new(99)).collect());
        let s2 = Arc::clone(&seen);
        let cons = layout.add_replicated("c", nodes, move |_| {
            let seen = Arc::clone(&s2);
            Box::new(move |ctx: &mut FilterContext| {
                if let Some(b) = ctx.input("in")?.recv() {
                    seen[ctx.instance].store(b.as_u64s()[0], Ordering::Relaxed);
                }
                Ok(())
            })
        });
        layout.connect_with(prod, "out", cons, "in", Delivery::Aligned, 8);
        Runtime::run(layout).expect("run ok");
        assert_eq!(seen[0].load(Ordering::Relaxed), 0);
        assert_eq!(seen[1].load(Ordering::Relaxed), 1);
    }

    #[test]
    fn filter_error_is_reported() {
        let mut layout = Layout::new();
        layout.add_filter(
            "bad",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| Err(ctx.error("boom"))),
        );
        match Runtime::run(layout) {
            Err(FsError::Filter {
                filter, message, ..
            }) => {
                assert_eq!(filter, "bad");
                assert_eq!(message, "boom");
            }
            other => panic!("expected filter error, got {other:?}"),
        }
    }

    #[test]
    fn filter_panic_is_reported() {
        let mut layout = Layout::new();
        layout.add_filter(
            "panics",
            NodeId(0),
            Box::new(|_: &mut FilterContext| -> Result<()> { panic!("kaboom") }),
        );
        assert!(matches!(
            Runtime::run(layout),
            Err(FsError::FilterPanicked { .. })
        ));
    }

    #[test]
    fn error_in_one_filter_cascades_shutdown() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "source",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| Err(ctx.error("early out"))),
        );
        let sink = layout.add_filter(
            "sink",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                while inp.recv().is_some() {}
                Ok(())
            }),
        );
        layout.connect(src, "out", sink, "in");
        assert!(matches!(Runtime::run(layout), Err(FsError::Filter { .. })));
    }

    #[test]
    fn three_stage_pipelined_parallelism() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "src",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let out = ctx.output("out")?;
                for i in 1..=10u64 {
                    out.send(DataBuffer::from_u64s(0, &[i]))?;
                }
                Ok(())
            }),
        );
        let mid = layout.add_filter(
            "double",
            NodeId(1),
            Box::new(|ctx: &mut FilterContext| {
                while let Some(b) = ctx.input("in")?.recv() {
                    let v = b.as_u64s()[0] * 2;
                    ctx.output("out")?.send(DataBuffer::from_u64s(0, &[v]))?;
                }
                Ok(())
            }),
        );
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        let sink = layout.add_filter(
            "sink",
            NodeId(2),
            Box::new(move |ctx: &mut FilterContext| {
                while let Some(b) = ctx.input("in")?.recv() {
                    g.fetch_add(b.as_u64s()[0], Ordering::Relaxed);
                }
                Ok(())
            }),
        );
        layout.connect(src, "out", mid, "in");
        layout.connect(mid, "out", sink, "in");
        Runtime::run(layout).expect("run ok");
        assert_eq!(got.load(Ordering::Relaxed), 2 * 55);
    }

    #[test]
    fn unknown_port_is_reported() {
        let mut layout = Layout::new();
        layout.add_filter(
            "lost",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("nonexistent")?;
                Ok(())
            }),
        );
        assert!(matches!(
            Runtime::run(layout),
            Err(FsError::UnknownPort { .. })
        ));
    }

    /// A source sending `bufs` buffers on port `out` with `send`, or with
    /// `send_to` each listed destination when `dests` is non-empty.
    fn source(bufs: u64, dests: Vec<usize>) -> Box<dyn crate::Filter> {
        Box::new(move |ctx: &mut FilterContext| {
            let out = ctx.output("out")?;
            for i in 0..bufs {
                if dests.is_empty() {
                    out.send(DataBuffer::tag_only(i))?;
                }
                for &d in &dests {
                    out.send_to(NodeId(d), DataBuffer::tag_only(i))?;
                }
            }
            Ok(())
        })
    }

    /// A consumer factory whose instances drain port `in`.
    fn drain_all(_instance: usize) -> Box<dyn crate::Filter> {
        Box::new(|ctx: &mut FilterContext| {
            let inp = ctx.input("in")?;
            while inp.recv().is_some() {}
            Ok(())
        })
    }

    #[test]
    fn remote_bytes_counted_across_nodes() {
        let mut layout = Layout::new();
        let src = layout.add_filter("src", NodeId(0), source(1, vec![]));
        let sink = layout.add_replicated("sink", vec![NodeId(0), NodeId(1)], drain_all);
        layout.connect_with(src, "out", sink, "in", Delivery::Broadcast, 4);
        let report = Runtime::run(layout).expect("run ok");
        let s = report.stream("src.out -> sink.in").expect("stream");
        assert_eq!(s.bytes, 16);
        assert_eq!(s.remote_bytes, 16, "only the NodeId(1) replica is remote");
        assert!(report.undrained_ports().is_empty());
    }

    #[test]
    fn addressed_remote_accounting_is_per_destination() {
        let mut layout = Layout::new();
        let src = layout.add_filter("src", NodeId(0), source(1, vec![0, 1]));
        let sink = layout.add_replicated("sink", vec![NodeId(0), NodeId(1)], drain_all);
        layout.connect_with(src, "out", sink, "in", Delivery::Addressed, 4);
        let report = Runtime::run(layout).expect("run ok");
        let s = report.stream("src.out -> sink.in").expect("stream");
        assert_eq!(s.bytes, 32);
        assert_eq!(s.remote_bytes, 16);
    }

    #[test]
    fn round_robin_across_nodes_is_invalid() {
        let mut layout = Layout::new();
        let src = layout.add_filter("src", NodeId(0), source(1, vec![]));
        let sink = layout.add_replicated("sink", vec![NodeId(0), NodeId(1)], drain_all);
        layout.connect(src, "out", sink, "in");
        match Runtime::run(layout) {
            Err(FsError::InvalidLayout(m)) => assert!(m.contains("spans nodes"), "{m}"),
            other => panic!("expected InvalidLayout, got {other:?}"),
        }
    }

    /// Three nodes, every delivery policy crossing node boundaries: the
    /// merged report balances port by port, and each stream's buffer count
    /// is the sum of what its producers on all nodes sent.
    #[test]
    fn three_node_report_merges_and_balances() {
        let mut layout = Layout::new();
        let nodes = vec![NodeId(0), NodeId(1), NodeId(2)];
        let producers = layout.add_replicated("p", nodes, |_| {
            Box::new(|ctx: &mut FilterContext| {
                let n = 5 + ctx.instance as u64;
                for i in 0..n {
                    ctx.output("bcast")?.send(DataBuffer::from_u64s(i, &[i]))?;
                    ctx.output("aligned")?.send(DataBuffer::tag_only(i))?;
                    let dest = NodeId((ctx.instance + i as usize) % 3);
                    ctx.output("addr")?.send_to(dest, DataBuffer::tag_only(i))?;
                }
                ctx.output("rr")?.send(DataBuffer::tag_only(0))?;
                Ok(())
            })
        });
        let consumers = layout.add_replicated("c", vec![NodeId(2), NodeId(0), NodeId(1)], |_| {
            Box::new(|ctx: &mut FilterContext| {
                let mut set = crate::StreamSet::new(vec![
                    ctx.take_input("bcast")?,
                    ctx.take_input("aligned")?,
                    ctx.take_input("addr")?,
                ]);
                while set.recv().is_some() {}
                Ok(())
            })
        });
        let sink = layout.add_replicated("rr", vec![NodeId(1); 2], drain_all);
        layout.connect_with(
            producers,
            "bcast",
            consumers,
            "bcast",
            Delivery::Broadcast,
            4,
        );
        layout.connect_with(
            producers,
            "aligned",
            consumers,
            "aligned",
            Delivery::Aligned,
            4,
        );
        layout.connect_with(producers, "addr", consumers, "addr", Delivery::Addressed, 4);
        layout.connect(producers, "rr", sink, "in");
        let report = Runtime::run(layout).expect("run ok");

        assert!(report.undrained_ports().is_empty(), "{:?}", report.ports);
        let sent = 5 + 6 + 7;
        for (name, buffers, delivered) in [
            ("p.bcast -> c.bcast", sent, 3 * sent),
            ("p.aligned -> c.aligned", sent, sent),
            ("p.addr -> c.addr", sent, sent),
            ("p.rr -> rr.in", 3, 3),
        ] {
            let s = report.stream(name).expect("stream reported");
            assert_eq!(s.buffers, buffers, "{name}: summed producer sends");
            let port = name.split(" -> ").nth(1).expect("consumer port");
            let p = report
                .ports
                .iter()
                .find(|p| p.name == port)
                .expect("port reported");
            assert_eq!(p.delivered, delivered, "{name}: lane inserts");
        }
        let rr = report.stream("p.rr -> rr.in").expect("rr");
        assert_eq!(rr.remote_bytes, 2 * 16, "nodes 0 and 2 send to node 1");
    }

    #[test]
    fn close_output_signals_downstream() {
        let mut layout = Layout::new();
        let src = layout.add_filter(
            "src",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                ctx.output("out")?.send(DataBuffer::tag_only(1))?;
                ctx.close_output("out");
                std::thread::sleep(std::time::Duration::from_millis(50));
                Ok(())
            }),
        );
        let sink = layout.add_filter(
            "sink",
            NodeId(0),
            Box::new(|ctx: &mut FilterContext| {
                let inp = ctx.input("in")?;
                assert_eq!(inp.recv().expect("one buffer").tag, 1);
                assert!(inp.recv().is_none(), "closed early via close_output");
                Ok(())
            }),
        );
        layout.connect(src, "out", sink, "in");
        Runtime::run(layout).expect("run ok");
    }
}
