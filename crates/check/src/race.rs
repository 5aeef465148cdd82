//! dooc-race: vector-clock happens-before race detection over a recorded
//! sync-event log.
//!
//! The input is the `dooc-race v1` text format emitted by
//! `dooc_sync::record::take_log()` (facade builds with the `record`
//! feature): one `T` line per thread and one `E` line per recorded sync
//! operation, linearized by a global sequence number. The recorder's
//! stamping discipline (acquire-flavored events stamped after the
//! operation succeeds, release-flavored before, atomics under a global
//! section lock) guarantees that replaying the log in sequence order
//! visits a release before any acquire that observed it, which is exactly
//! what the FastTrack-style analysis below needs.
//!
//! The analyzer maintains one vector clock per thread and per-object
//! clocks for every synchronization primitive, **keyed by primitive kind**
//! so an address reused across kinds (a mutex freed, an atomic allocated
//! in its place) can never alias. Within a kind, address reuse can only
//! merge two objects' clocks — which adds happens-before edges, weakening
//! detection but never fabricating a race.
//!
//! Shared-memory accesses are the annotated `dr`/`dw` events
//! (`dooc_sync::record::data_read` / `data_write`). For every address the
//! analyzer keeps the last write and the set of reads since that write
//! (one per thread), each as `(thread, clock component, site)`; an access
//! that is not ordered after a conflicting prior access by the thread's
//! current vector clock is reported as a [`Race`] carrying both source
//! sites.
//!
//! Edge rules, per event kind:
//!
//! * mutex `rel` publishes the thread's clock into the lock's clock;
//!   `acq` joins it. RwLocks use two clocks: write releases publish into
//!   both, write acquires join reads ⊔ writes, read acquires join writes
//!   only (concurrent readers stay unordered).
//! * channel `send` publishes into the channel's clock, `recv` joins it —
//!   a deliberate over-approximation for multi-message channels (every
//!   receive is ordered after every earlier send on that channel, not just
//!   its own message's), adding edges but never inventing conflicts.
//! * condvar `notify` publishes, `cvret` joins. The mutex reacquisition
//!   after a wait is logged separately as a plain `acq`.
//! * atomics are ordering-aware: acquire-class loads join the object's
//!   clock, release-class stores publish into it, RMWs do both according
//!   to their ordering, and `Relaxed` operations create **no** edges.
//! * `spawn` snapshots the parent's clock for the child; the child's
//!   `start` joins it. `join` joins the finished child's final clock into
//!   the parent.
//!
//! The same replay also checks **lock order**. `OrderedMutex::lock` logs
//! its class (`class` event) right after the inner mutex's `acq`; the
//! analyzer keeps each thread's held classes, popped by the matching
//! `rel`, and records an edge `held class → acquired class` with both
//! acquisition sites the first time a pair is seen, on any thread. A cycle
//! in that class graph is a potential deadlock even if this run never
//! interleaved badly, and acquiring a class while a mutex of the same
//! class is held is the one-edge cycle. Unnamed facade mutexes stay out of
//! this pass: keyed by address, a reused address would invent cycles.
//!
//! All maps use the log's textual object ids; nothing here depends on the
//! `record` feature — the module analyzes any well-formed log offline
//! (`cargo run -p dooc-check --bin race -- --log <path>`).

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt;

/// A vector clock: thread id → logical time. Sparse (threads appear on
/// first interaction).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct VectorClock(HashMap<u64, u64>);

impl VectorClock {
    /// This clock's component for `tid` (0 when never seen).
    pub fn get(&self, tid: u64) -> u64 {
        self.0.get(&tid).copied().unwrap_or(0)
    }

    fn set(&mut self, tid: u64, v: u64) {
        self.0.insert(tid, v);
    }

    /// Pointwise maximum: afterwards `self` dominates both inputs.
    pub fn join(&mut self, other: &VectorClock) {
        for (&t, &v) in &other.0 {
            let e = self.0.entry(t).or_insert(0);
            *e = (*e).max(v);
        }
    }
}

/// Kind of conflicting access pair in a [`Race`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RaceKind {
    /// Two unordered writes.
    WriteWrite,
    /// A write unordered with an earlier read.
    ReadWrite,
    /// A read unordered with an earlier write.
    WriteRead,
}

impl fmt::Display for RaceKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RaceKind::WriteWrite => write!(f, "write/write"),
            RaceKind::ReadWrite => write!(f, "read/write"),
            RaceKind::WriteRead => write!(f, "write/read"),
        }
    }
}

/// One side of a conflicting access pair.
#[derive(Clone, Debug)]
pub struct Access {
    /// Thread that performed the access.
    pub tid: u64,
    /// Sequence number of the access event in the log.
    pub seq: u64,
    /// Source site (`file:line:col`) of the access.
    pub site: String,
}

impl fmt::Display for Access {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "thread {} at {} (seq {})", self.tid, self.site, self.seq)
    }
}

/// A detected data race: two conflicting accesses to the same annotated
/// address with no happens-before path between them.
#[derive(Clone, Debug)]
pub struct Race {
    /// Annotated address both accesses touched.
    pub addr: usize,
    /// Which flavors of access conflicted.
    pub kind: RaceKind,
    /// The earlier access (by log sequence).
    pub first: Access,
    /// The later access.
    pub second: Access,
}

impl fmt::Display for Race {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} race on address {:#x}: {} unordered with {}",
            self.kind, self.addr, self.first, self.second
        )
    }
}

/// One observed lock-order edge: a thread acquired class `to` while
/// holding class `from`. Sites are those of the first observation.
#[derive(Clone, Debug)]
pub struct LockEdge {
    /// Class already held.
    pub from: String,
    /// Class acquired while `from` was held.
    pub to: String,
    /// The acquisition of `from`.
    pub held: Access,
    /// The acquisition of `to`.
    pub acquired: Access,
}

impl fmt::Display for LockEdge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "'{}' ({}) then '{}' ({})",
            self.from, self.held, self.to, self.acquired
        )
    }
}

/// A cycle in the observed lock-order class graph, as its edges in order
/// (each edge's `to` is the next edge's `from`). A one-edge cycle is
/// same-class nesting.
#[derive(Clone, Debug)]
pub struct LockCycle(pub Vec<LockEdge>);

impl fmt::Display for LockCycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.len() == 1 {
            write!(f, "same-class lock nesting:")?;
        } else {
            write!(f, "lock-order cycle:")?;
        }
        for e in &self.0 {
            write!(f, "\n    {e}")?;
        }
        Ok(())
    }
}

/// Analysis result over one log.
#[derive(Clone, Debug, Default)]
pub struct RaceReport {
    /// Detected races, in log order of the second access. Deduplicated per
    /// (address, site pair): a racy loop reports once, not per iteration.
    pub races: Vec<Race>,
    /// Distinct lock-order edges observed, in log order of first sighting.
    pub lock_edges: Vec<LockEdge>,
    /// Cycles in the lock-order class graph, each reported once.
    pub lock_cycles: Vec<LockCycle>,
    /// `E` lines analyzed.
    pub events: usize,
    /// Threads seen.
    pub threads: usize,
    /// Events the recorder dropped to ring overflow (`# dropped` header).
    /// Nonzero means the analysis is incomplete: absence of races is then
    /// not a clean verdict.
    pub dropped: u64,
}

impl RaceReport {
    /// True when no race and no lock-order cycle was found *and* the log
    /// was complete.
    pub fn clean(&self) -> bool {
        self.races.is_empty() && self.lock_cycles.is_empty() && self.dropped == 0
    }

    /// Multi-line human-readable rendering of the findings.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "dooc-race: {} events, {} threads, {} race(s), {} lock-order edge(s), \
             {} lock-order cycle(s){}",
            self.events,
            self.threads,
            self.races.len(),
            self.lock_edges.len(),
            self.lock_cycles.len(),
            if self.dropped > 0 {
                format!(" [INCOMPLETE: {} events dropped]", self.dropped)
            } else {
                String::new()
            }
        );
        for r in &self.races {
            let _ = writeln!(out, "  {r}");
        }
        for c in &self.lock_cycles {
            let _ = writeln!(out, "  {c}");
        }
        for e in &self.lock_edges {
            let _ = writeln!(out, "  lock-order edge {e}");
        }
        out
    }
}

/// A malformed log line or header.
#[derive(Clone, Debug)]
pub struct ParseError {
    /// 1-based line number in the log text.
    pub line: usize,
    /// What was wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "log line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Memory-ordering class of an atomic event (log tokens `rlx`/`acq`/...).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Ord {
    Relaxed,
    Acquire,
    Release,
    AcqRel,
    SeqCst,
}

impl Ord {
    fn parse(tok: &str) -> Option<Ord> {
        Some(match tok {
            "rlx" => Ord::Relaxed,
            "acq" => Ord::Acquire,
            "rel" => Ord::Release,
            "ar" => Ord::AcqRel,
            "sc" => Ord::SeqCst,
            _ => return None,
        })
    }

    fn acquires(self) -> bool {
        matches!(self, Ord::Acquire | Ord::AcqRel | Ord::SeqCst)
    }

    fn releases(self) -> bool {
        matches!(self, Ord::Release | Ord::AcqRel | Ord::SeqCst)
    }
}

/// One parsed `E` line.
#[derive(Clone, Debug)]
struct Ev {
    seq: u64,
    tid: u64,
    op: EvOp,
    obj: usize,
    site: String,
}

#[derive(Clone, Debug)]
enum EvOp {
    LockAcq,
    LockRel,
    ReadAcq,
    ReadRel,
    WriteAcq,
    WriteRel,
    CvNotify,
    CvWaitReturn,
    ChanSend,
    ChanRecv,
    AtomicLoad(Ord),
    AtomicStore(Ord),
    AtomicRmw(Ord),
    Spawn(u64),
    ThreadStart,
    ThreadEnd,
    Join(u64),
    DataRead,
    DataWrite,
    Class(String),
}

fn parse(log: &str) -> Result<(Vec<Ev>, usize, u64), ParseError> {
    let err = |line: usize, message: String| ParseError { line, message };
    let mut lines = log.lines().enumerate();
    match lines.next() {
        Some((_, "dooc-race v1")) => {}
        other => {
            return Err(err(
                1,
                format!(
                    "expected header \"dooc-race v1\", got {:?}",
                    other.map(|(_, l)| l).unwrap_or("")
                ),
            ))
        }
    }
    let mut events = Vec::new();
    let mut threads = 0usize;
    let mut dropped = 0u64;
    for (i, raw) in lines {
        let ln = i + 1;
        let line = raw.trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# dropped ") {
            dropped = rest
                .trim()
                .parse()
                .map_err(|e| err(ln, format!("bad dropped count: {e}")))?;
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        if line.starts_with("T ") {
            threads += 1;
            continue;
        }
        let Some(body) = line.strip_prefix("E ") else {
            return Err(err(ln, format!("unrecognized line {line:?}")));
        };
        let mut f = body.split_whitespace();
        let mut next = |what: &str| {
            f.next()
                .ok_or_else(|| err(ln, format!("missing {what} field")))
        };
        let seq: u64 = next("seq")?
            .parse()
            .map_err(|e| err(ln, format!("bad seq: {e}")))?;
        let tid: u64 = next("tid")?
            .parse()
            .map_err(|e| err(ln, format!("bad tid: {e}")))?;
        let op_tok = next("op")?;
        let obj: usize = next("obj")?
            .parse()
            .map_err(|e| err(ln, format!("bad obj: {e}")))?;
        let extra = next("extra")?;
        let site = next("site")?.to_string();
        let ord =
            || Ord::parse(extra).ok_or_else(|| err(ln, format!("bad atomic ordering {extra:?}")));
        let child = || -> Result<u64, ParseError> {
            extra
                .parse()
                .map_err(|e| err(ln, format!("bad child tid {extra:?}: {e}")))
        };
        let op = match op_tok {
            "acq" => EvOp::LockAcq,
            "rel" => EvOp::LockRel,
            "racq" => EvOp::ReadAcq,
            "rrel" => EvOp::ReadRel,
            "wacq" => EvOp::WriteAcq,
            "wrel" => EvOp::WriteRel,
            "notify" => EvOp::CvNotify,
            "cvret" => EvOp::CvWaitReturn,
            "send" => EvOp::ChanSend,
            "recv" => EvOp::ChanRecv,
            "aload" => EvOp::AtomicLoad(ord()?),
            "astore" => EvOp::AtomicStore(ord()?),
            "armw" => EvOp::AtomicRmw(ord()?),
            "spawn" => EvOp::Spawn(child()?),
            "start" => EvOp::ThreadStart,
            "end" => EvOp::ThreadEnd,
            "join" => EvOp::Join(child()?),
            "dr" => EvOp::DataRead,
            "dw" => EvOp::DataWrite,
            "class" => EvOp::Class(extra.to_string()),
            other => return Err(err(ln, format!("unknown op {other:?}"))),
        };
        events.push(Ev {
            seq,
            tid,
            op,
            obj,
            site,
        });
    }
    events.sort_by_key(|e| e.seq);
    Ok((events, threads, dropped))
}

/// Last write and reads-since-that-write for one annotated address.
#[derive(Default)]
struct Shadow {
    write: Option<Access>,
    /// Clock component of the last write's thread at the write.
    write_stamp: u64,
    /// Per-thread most recent read since the last write: `tid → (stamp,
    /// access)`.
    reads: HashMap<u64, (u64, Access)>,
}

/// Replays a `dooc-race v1` log and reports every pair of conflicting,
/// happens-before-unordered annotated accesses.
pub fn analyze(log: &str) -> Result<RaceReport, ParseError> {
    let (events, threads, dropped) = parse(log)?;
    let mut clocks: HashMap<u64, VectorClock> = HashMap::new();
    // Per-kind sync-object clocks: addresses can collide across kinds.
    let mut locks: HashMap<usize, VectorClock> = HashMap::new();
    let mut rw_w: HashMap<usize, VectorClock> = HashMap::new();
    let mut rw_r: HashMap<usize, VectorClock> = HashMap::new();
    let mut condvars: HashMap<usize, VectorClock> = HashMap::new();
    let mut chans: HashMap<usize, VectorClock> = HashMap::new();
    let mut atomics: HashMap<usize, VectorClock> = HashMap::new();
    let mut spawn_snap: HashMap<u64, VectorClock> = HashMap::new();
    let mut shadows: HashMap<usize, Shadow> = HashMap::new();
    let mut races: Vec<Race> = Vec::new();
    // (addr, first site, second site) pairs already reported.
    let mut reported: HashMap<(usize, String, String), ()> = HashMap::new();
    // Per-thread classed mutexes held: (object, class, acquisition).
    let mut held: HashMap<u64, Vec<(usize, String, Access)>> = HashMap::new();
    let mut lock_edges: Vec<LockEdge> = Vec::new();
    let mut edge_seen: HashSet<(String, String)> = HashSet::new();

    for ev in &events {
        // Tick the acting thread's own component so every event gets a
        // fresh stamp; all checks below use the post-tick clock.
        let c = clocks.entry(ev.tid).or_default();
        let stamp = c.get(ev.tid) + 1;
        c.set(ev.tid, stamp);

        // Borrow-friendly helpers: take the thread clock out, operate,
        // put it back.
        let mut tc = clocks.remove(&ev.tid).unwrap_or_default();
        match &ev.op {
            EvOp::LockAcq => {
                if let Some(l) = locks.get(&ev.obj) {
                    tc.join(l);
                }
            }
            EvOp::LockRel => {
                locks.entry(ev.obj).or_default().join(&tc);
                if let Some(h) = held.get_mut(&ev.tid) {
                    if let Some(i) = h.iter().rposition(|(obj, _, _)| *obj == ev.obj) {
                        h.remove(i);
                    }
                }
            }
            EvOp::Class(class) => {
                let acquired = Access {
                    tid: ev.tid,
                    seq: ev.seq,
                    site: ev.site.clone(),
                };
                let h = held.entry(ev.tid).or_default();
                for (_, from, at) in h.iter() {
                    if edge_seen.insert((from.clone(), class.clone())) {
                        lock_edges.push(LockEdge {
                            from: from.clone(),
                            to: class.clone(),
                            held: at.clone(),
                            acquired: acquired.clone(),
                        });
                    }
                }
                h.push((ev.obj, class.clone(), acquired));
            }
            EvOp::ReadAcq => {
                if let Some(w) = rw_w.get(&ev.obj) {
                    tc.join(w);
                }
            }
            EvOp::ReadRel => {
                rw_r.entry(ev.obj).or_default().join(&tc);
            }
            EvOp::WriteAcq => {
                if let Some(w) = rw_w.get(&ev.obj) {
                    tc.join(w);
                }
                if let Some(r) = rw_r.get(&ev.obj) {
                    tc.join(r);
                }
            }
            EvOp::WriteRel => {
                rw_w.entry(ev.obj).or_default().join(&tc);
            }
            EvOp::CvNotify => {
                condvars.entry(ev.obj).or_default().join(&tc);
            }
            EvOp::CvWaitReturn => {
                if let Some(n) = condvars.get(&ev.obj) {
                    tc.join(n);
                }
            }
            EvOp::ChanSend => {
                chans.entry(ev.obj).or_default().join(&tc);
            }
            EvOp::ChanRecv => {
                if let Some(ch) = chans.get(&ev.obj) {
                    tc.join(ch);
                }
            }
            EvOp::AtomicLoad(o) => {
                if o.acquires() {
                    if let Some(a) = atomics.get(&ev.obj) {
                        tc.join(a);
                    }
                }
            }
            EvOp::AtomicStore(o) => {
                if o.releases() {
                    atomics.entry(ev.obj).or_default().join(&tc);
                }
            }
            EvOp::AtomicRmw(o) => {
                if o.acquires() {
                    if let Some(a) = atomics.get(&ev.obj) {
                        tc.join(a);
                    }
                }
                if o.releases() {
                    atomics.entry(ev.obj).or_default().join(&tc);
                }
            }
            EvOp::Spawn(child) => {
                spawn_snap.insert(*child, tc.clone());
            }
            EvOp::ThreadStart => {
                if let Some(s) = spawn_snap.get(&ev.tid) {
                    tc.join(s);
                }
            }
            EvOp::ThreadEnd => {}
            EvOp::Join(child) => {
                // The child's final clock: its events all precede this one
                // in sequence order (join is stamped after the OS join).
                if let Some(cc) = clocks.get(child) {
                    tc.join(cc);
                }
            }
            EvOp::DataRead | EvOp::DataWrite => {
                let is_write = matches!(ev.op, EvOp::DataWrite);
                let access = Access {
                    tid: ev.tid,
                    seq: ev.seq,
                    site: ev.site.clone(),
                };
                let sh = shadows.entry(ev.obj).or_default();
                let mut report = |kind: RaceKind, first: &Access, second: &Access| {
                    let key = (ev.obj, first.site.clone(), second.site.clone());
                    if let Entry::Vacant(e) = reported.entry(key) {
                        e.insert(());
                        races.push(Race {
                            addr: ev.obj,
                            kind,
                            first: first.clone(),
                            second: second.clone(),
                        });
                    }
                };
                // Ordered-after check: prior access by thread `t` with
                // stamp `s` happens-before us iff our clock's `t`
                // component has reached `s`.
                let ordered = |tc: &VectorClock, t: u64, s: u64| t == ev.tid || tc.get(t) >= s;
                if let Some(w) = &sh.write {
                    if !ordered(&tc, w.tid, sh.write_stamp) {
                        let kind = if is_write {
                            RaceKind::WriteWrite
                        } else {
                            RaceKind::WriteRead
                        };
                        report(kind, w, &access);
                    }
                }
                if is_write {
                    for (t, (s, r)) in &sh.reads {
                        if !ordered(&tc, *t, *s) {
                            report(RaceKind::ReadWrite, r, &access);
                        }
                    }
                    sh.write = Some(access);
                    sh.write_stamp = stamp;
                    sh.reads.clear();
                } else {
                    sh.reads.insert(ev.tid, (stamp, access));
                }
            }
        }
        clocks.insert(ev.tid, tc);
    }

    Ok(RaceReport {
        races,
        lock_cycles: lock_cycles(&lock_edges),
        lock_edges,
        events: events.len(),
        threads,
        dropped,
    })
}

/// Every cycle of the class graph `edges`, found as the shortest cycle
/// through each edge in turn and reported once per edge set.
fn lock_cycles(edges: &[LockEdge]) -> Vec<LockCycle> {
    let mut seen: HashSet<Vec<(&str, &str)>> = HashSet::new();
    let mut cycles = Vec::new();
    for (i, e) in edges.iter().enumerate() {
        // Breadth-first from `e.to` back to `e.from`; `parent[c]` is the
        // index of the edge that first reached class `c`.
        let mut parent: HashMap<&str, usize> = HashMap::new();
        let mut queue = VecDeque::from([e.to.as_str()]);
        let mut reached = false;
        while let Some(c) = queue.pop_front() {
            if c == e.from {
                reached = true;
                break;
            }
            for (j, next) in edges.iter().enumerate() {
                if next.from == c && next.to != e.to && !parent.contains_key(next.to.as_str()) {
                    parent.insert(&next.to, j);
                    queue.push_back(&next.to);
                }
            }
        }
        if !reached {
            continue;
        }
        let mut path = vec![i];
        let mut c = e.from.as_str();
        while c != e.to {
            let j = parent[c];
            path.push(j);
            c = &edges[j].from;
        }
        path[1..].reverse();
        let mut key: Vec<(&str, &str)> = path
            .iter()
            .map(|&j| (edges[j].from.as_str(), edges[j].to.as_str()))
            .collect();
        key.sort_unstable();
        if seen.insert(key) {
            cycles.push(LockCycle(path.iter().map(|&j| edges[j].clone()).collect()));
        }
    }
    cycles
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log(lines: &[&str]) -> String {
        let mut s = String::from("dooc-race v1\n");
        for l in lines {
            s.push_str(l);
            s.push('\n');
        }
        s
    }

    #[test]
    fn unsynchronized_writes_race() {
        let r = analyze(&log(&[
            "T 0 main",
            "T 1 worker",
            "E 0 0 dw 100 - a.rs:1:1",
            "E 1 1 dw 100 - b.rs:2:2",
        ]))
        .expect("parse");
        assert_eq!(r.races.len(), 1, "{:?}", r.races);
        assert_eq!(r.races[0].kind, RaceKind::WriteWrite);
        assert_eq!(r.races[0].first.site, "a.rs:1:1");
        assert_eq!(r.races[0].second.site, "b.rs:2:2");
        assert!(!r.clean());
    }

    #[test]
    fn mutex_orders_writes() {
        let r = analyze(&log(&[
            "E 0 0 acq 7 - a.rs:1:1",
            "E 1 0 dw 100 - a.rs:2:1",
            "E 2 0 rel 7 - a.rs:3:1",
            "E 3 1 acq 7 - b.rs:1:1",
            "E 4 1 dw 100 - b.rs:2:1",
            "E 5 1 rel 7 - b.rs:3:1",
        ]))
        .expect("parse");
        assert!(r.races.is_empty(), "{:?}", r.races);
        assert!(r.clean());
    }

    #[test]
    fn lock_dropped_around_write_races() {
        // Twin of mutex_orders_writes with thread 1's critical section
        // gone: the detector must flag it.
        let r = analyze(&log(&[
            "E 0 0 acq 7 - a.rs:1:1",
            "E 1 0 dw 100 - a.rs:2:1",
            "E 2 0 rel 7 - a.rs:3:1",
            "E 4 1 dw 100 - b.rs:2:1",
        ]))
        .expect("parse");
        assert_eq!(r.races.len(), 1, "{:?}", r.races);
        assert_eq!(r.races[0].kind, RaceKind::WriteWrite);
    }

    #[test]
    fn channel_transfer_orders_accesses() {
        let r = analyze(&log(&[
            "E 0 0 dw 100 - a.rs:1:1",
            "E 1 0 send 9 - a.rs:2:1",
            "E 2 1 recv 9 - b.rs:1:1",
            "E 3 1 dw 100 - b.rs:2:1",
        ]))
        .expect("parse");
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn spawn_and_join_order_accesses() {
        let r = analyze(&log(&[
            "E 0 0 dw 100 - a.rs:1:1",
            "E 1 0 spawn 0 1 a.rs:2:1",
            "E 2 1 start 0 - a.rs:2:1",
            "E 3 1 dw 100 - b.rs:1:1",
            "E 4 1 end 0 - a.rs:2:1",
            "E 5 0 join 0 1 a.rs:3:1",
            "E 6 0 dw 100 - a.rs:4:1",
        ]))
        .expect("parse");
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn sibling_threads_without_sync_race() {
        // Spawn edges order parent→child, not child↔child.
        let r = analyze(&log(&[
            "E 0 0 spawn 0 1 a.rs:1:1",
            "E 1 0 spawn 0 2 a.rs:2:1",
            "E 2 1 start 0 - a.rs:1:1",
            "E 3 1 dw 100 - b.rs:1:1",
            "E 4 2 start 0 - a.rs:2:1",
            "E 5 2 dw 100 - c.rs:1:1",
        ]))
        .expect("parse");
        assert_eq!(r.races.len(), 1, "{:?}", r.races);
    }

    #[test]
    fn release_acquire_atomics_order_relaxed_do_not() {
        let synced = analyze(&log(&[
            "E 0 0 dw 100 - a.rs:1:1",
            "E 1 0 astore 5 rel a.rs:2:1",
            "E 2 1 aload 5 acq b.rs:1:1",
            "E 3 1 dw 100 - b.rs:2:1",
        ]))
        .expect("parse");
        assert!(synced.races.is_empty(), "{:?}", synced.races);

        let relaxed = analyze(&log(&[
            "E 0 0 dw 100 - a.rs:1:1",
            "E 1 0 astore 5 rlx a.rs:2:1",
            "E 2 1 aload 5 rlx b.rs:1:1",
            "E 3 1 dw 100 - b.rs:2:1",
        ]))
        .expect("parse");
        assert_eq!(relaxed.races.len(), 1, "{:?}", relaxed.races);
    }

    #[test]
    fn rwlock_readers_unordered_writers_ordered() {
        // Two readers under the read lock racing on a write each: the
        // read lock does not order them against each other.
        let r = analyze(&log(&[
            "E 0 0 wacq 7 - a.rs:1:1",
            "E 1 0 dw 100 - a.rs:2:1",
            "E 2 0 wrel 7 - a.rs:3:1",
            "E 3 1 racq 7 - b.rs:1:1",
            "E 4 1 dr 100 - b.rs:2:1",
            "E 5 1 rrel 7 - b.rs:3:1",
            "E 6 2 racq 7 - c.rs:1:1",
            "E 7 2 dr 100 - c.rs:2:1",
            "E 8 2 rrel 7 - c.rs:3:1",
            "E 9 0 wacq 7 - a.rs:5:1",
            "E 10 0 dw 100 - a.rs:6:1",
            "E 11 0 wrel 7 - a.rs:7:1",
        ]))
        .expect("parse");
        // Reads are ordered after the first write (racq joins the write
        // clock) and before the second (wacq joins the read clock).
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn condvar_notify_orders_waiter() {
        let r = analyze(&log(&[
            "E 0 0 dw 100 - a.rs:1:1",
            "E 1 0 notify 3 - a.rs:2:1",
            "E 2 1 cvret 3 - b.rs:1:1",
            "E 3 1 dw 100 - b.rs:2:1",
        ]))
        .expect("parse");
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn read_write_race_reported_once_per_site_pair() {
        let r = analyze(&log(&[
            "E 0 0 dr 100 - a.rs:1:1",
            "E 1 1 dw 100 - b.rs:1:1",
            "E 2 0 dr 100 - a.rs:1:1",
            "E 3 1 dw 100 - b.rs:1:1",
        ]))
        .expect("parse");
        // Same site pair races repeatedly; reported once per (kind, pair).
        let rw = r
            .races
            .iter()
            .filter(|x| x.kind == RaceKind::ReadWrite)
            .count();
        assert_eq!(rw, 1, "{:?}", r.races);
    }

    #[test]
    fn dropped_header_poisons_clean_verdict() {
        let r = analyze("dooc-race v1\n# dropped 3\n").expect("parse");
        assert!(r.races.is_empty());
        assert_eq!(r.dropped, 3);
        assert!(!r.clean());
    }

    #[test]
    fn same_address_different_kinds_do_not_alias() {
        // A mutex and an atomic share address 7; the mutex edge must not
        // leak into the atomic clock map (and vice versa). Thread 1's
        // relaxed atomic ops on obj 7 create no edge, so the data race
        // must still be detected even though thread 0 releases "7".
        let r = analyze(&log(&[
            "E 0 0 dw 100 - a.rs:1:1",
            "E 1 0 rel 7 - a.rs:2:1",
            "E 2 1 aload 7 acq b.rs:1:1",
            "E 3 1 dw 100 - b.rs:2:1",
        ]))
        .expect("parse");
        assert_eq!(r.races.len(), 1, "{:?}", r.races);
    }

    /// Builds a log of classed-mutex acquires (an `acq` then its `class`
    /// event, as `OrderedMutex::lock` records them) and releases.
    #[derive(Default)]
    struct Script {
        lines: Vec<String>,
    }

    impl Script {
        fn lock(&mut self, tid: u64, obj: usize, class: &str, site: &str) -> &mut Self {
            let seq = self.lines.len();
            self.lines.push(format!("E {seq} {tid} acq {obj} - {site}"));
            self.lines
                .push(format!("E {} {tid} class {obj} {class} {site}", seq + 1));
            self
        }

        fn lock_unnamed(&mut self, tid: u64, obj: usize, site: &str) -> &mut Self {
            let seq = self.lines.len();
            self.lines.push(format!("E {seq} {tid} acq {obj} - {site}"));
            self
        }

        fn unlock(&mut self, tid: u64, obj: usize, site: &str) -> &mut Self {
            let seq = self.lines.len();
            self.lines.push(format!("E {seq} {tid} rel {obj} - {site}"));
            self
        }

        fn analyze(&self) -> RaceReport {
            let lines: Vec<&str> = self.lines.iter().map(String::as_str).collect();
            analyze(&log(&lines)).expect("parse")
        }
    }

    /// Asserts `r` holds exactly one lock-order cycle over `classes` and
    /// that its rendering cites both acquisition sites of every edge.
    fn assert_one_cycle(r: &RaceReport, classes: &[&str]) {
        assert!(!r.clean(), "{}", r.render());
        assert_eq!(r.lock_cycles.len(), 1, "{}", r.render());
        let cycle = &r.lock_cycles[0].0;
        let mut got: Vec<&str> = cycle.iter().map(|e| e.from.as_str()).collect();
        got.sort_unstable();
        assert_eq!(got, classes, "{}", r.render());
        let rendered = r.render();
        for e in cycle {
            let line = format!(
                "'{}' (thread {} at {} (seq {})) then '{}' (thread {} at {} (seq {}))",
                e.from,
                e.held.tid,
                e.held.site,
                e.held.seq,
                e.to,
                e.acquired.tid,
                e.acquired.site,
                e.acquired.seq
            );
            assert!(rendered.contains(&line), "missing {line}:\n{rendered}");
        }
    }

    #[test]
    fn late_lock_order_cycle_after_unrelated_acquisitions() {
        let mut s = Script::default();
        s.lock(0, 1, "late.a", "a.rs:1:1")
            .lock(0, 2, "late.b", "a.rs:2:1")
            .unlock(0, 2, "a.rs:2:1")
            .unlock(0, 1, "a.rs:1:1");
        // Each lock alone, many times: no edges, and the a -> b edge must
        // survive them.
        for _ in 0..16 {
            s.lock(0, 1, "late.a", "a.rs:5:1")
                .unlock(0, 1, "a.rs:5:1")
                .lock(0, 2, "late.b", "a.rs:6:1")
                .unlock(0, 2, "a.rs:6:1");
        }
        s.lock(0, 2, "late.b", "a.rs:9:1")
            .lock(0, 1, "late.a", "a.rs:10:1");
        let r = s.analyze();
        assert_eq!(r.lock_edges.len(), 2, "{}", r.render());
        assert_one_cycle(&r, &["late.a", "late.b"]);
        assert!(r.races.is_empty(), "{:?}", r.races);
    }

    #[test]
    fn transitive_three_class_cycle_names_every_edge() {
        let r = Script::default()
            .lock(0, 1, "chain.a", "a.rs:1:1")
            .lock(0, 2, "chain.b", "a.rs:2:1")
            .unlock(0, 2, "a.rs:2:1")
            .unlock(0, 1, "a.rs:1:1")
            .lock(0, 2, "chain.b", "b.rs:1:1")
            .lock(0, 3, "chain.c", "b.rs:2:1")
            .unlock(0, 3, "b.rs:2:1")
            .unlock(0, 2, "b.rs:1:1")
            .lock(0, 3, "chain.c", "c.rs:1:1")
            .lock(0, 1, "chain.a", "c.rs:2:1")
            .analyze();
        assert_one_cycle(&r, &["chain.a", "chain.b", "chain.c"]);
        let rendered = r.render();
        assert!(
            rendered.contains("'chain.a' (thread 0 at a.rs:1:1")
                && rendered.contains("then 'chain.b' (thread 0 at a.rs:2:1"),
            "a -> b edge with both sites: {rendered}"
        );
        assert!(
            rendered.contains("'chain.b' (thread 0 at b.rs:1:1")
                && rendered.contains("then 'chain.c' (thread 0 at b.rs:2:1"),
            "b -> c edge with both sites: {rendered}"
        );
    }

    #[test]
    fn lock_order_cycle_closed_from_another_thread() {
        // Thread 1 establishes a -> b and exits; thread 2 starts with an
        // empty held set but must still close the cycle against it.
        let r = Script::default()
            .lock(1, 1, "xthread.a", "a.rs:1:1")
            .lock(1, 2, "xthread.b", "a.rs:2:1")
            .unlock(1, 2, "a.rs:2:1")
            .unlock(1, 1, "a.rs:1:1")
            .lock(2, 2, "xthread.b", "b.rs:1:1")
            .lock(2, 1, "xthread.a", "b.rs:2:1")
            .analyze();
        assert_one_cycle(&r, &["xthread.a", "xthread.b"]);
        let tids: Vec<u64> = r.lock_cycles[0].0.iter().map(|e| e.held.tid).collect();
        assert!(tids.contains(&1) && tids.contains(&2), "{}", r.render());
    }

    #[test]
    fn production_class_inversion_cites_both_sites() {
        let r = Script::default()
            .lock(
                1,
                1,
                "storage.cluster.port_map",
                "crates/storage/src/cluster.rs:90:9",
            )
            .lock(1, 2, "core.sinks.trace", "crates/core/src/worker.rs:700:13")
            .unlock(1, 2, "crates/core/src/worker.rs:700:13")
            .unlock(1, 1, "crates/storage/src/cluster.rs:90:9")
            .lock(
                2,
                2,
                "core.sinks.trace",
                "crates/core/src/runtime.rs:214:28",
            )
            .lock(
                2,
                1,
                "storage.cluster.port_map",
                "crates/storage/src/cluster.rs:120:9",
            )
            .analyze();
        assert_one_cycle(&r, &["core.sinks.trace", "storage.cluster.port_map"]);
        let rendered = r.render();
        for site in [
            "cluster.rs:90:9",
            "worker.rs:700:13",
            "runtime.rs:214:28",
            "cluster.rs:120:9",
        ] {
            assert!(rendered.contains(site), "missing {site}: {rendered}");
        }
    }

    #[test]
    fn same_class_nesting_is_a_one_edge_cycle() {
        let r = Script::default()
            .lock(0, 1, "nest.a", "a.rs:1:1")
            .lock(0, 2, "nest.a", "a.rs:2:1")
            .analyze();
        assert_one_cycle(&r, &["nest.a"]);
        assert!(
            r.render().contains("same-class lock nesting"),
            "{}",
            r.render()
        );
    }

    #[test]
    fn consistent_nesting_repeated_is_clean() {
        let mut s = Script::default();
        for tid in 0..3 {
            for _ in 0..3 {
                // An unnamed facade mutex held around the classed ones adds
                // no edge: only classed acquires enter the pass.
                s.lock_unnamed(tid, 99, "u.rs:1:1")
                    .lock(tid, 1, "ok.outer", "a.rs:1:1")
                    .lock(tid, 2, "ok.inner", "a.rs:2:1")
                    .unlock(tid, 2, "a.rs:2:1")
                    .unlock(tid, 1, "a.rs:1:1")
                    .unlock(tid, 99, "u.rs:1:1")
                    // Released before the next lock: no edge either way.
                    .lock(tid, 2, "ok.inner", "a.rs:4:1")
                    .unlock(tid, 2, "a.rs:4:1")
                    .lock(tid, 1, "ok.outer", "a.rs:5:1")
                    .unlock(tid, 1, "a.rs:5:1");
            }
        }
        let r = s.analyze();
        assert!(r.clean(), "{}", r.render());
        assert_eq!(r.lock_edges.len(), 1, "{}", r.render());
        assert_eq!(
            (r.lock_edges[0].from.as_str(), r.lock_edges[0].to.as_str()),
            ("ok.outer", "ok.inner")
        );
    }

    #[test]
    fn parse_errors_are_reported_with_line_numbers() {
        assert!(analyze("not a log\n").is_err());
        let e = analyze("dooc-race v1\nE 0 0 frobnicate 1 - x.rs:1:1\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("frobnicate"), "{e}");
        let e = analyze("dooc-race v1\nE 0 0 aload 1 weird x.rs:1:1\n").unwrap_err();
        assert!(e.message.contains("ordering"), "{e}");
    }
}
