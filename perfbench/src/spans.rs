//! In-memory span recorder.
//!
//! Spans are opened and closed around calls into the runtime's public API,
//! kept in memory while the solve runs, and written out once at the end.
//! A span's self time is its length minus the part of it that its children
//! cover.

use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One recorded interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// What was timed: a task kind or the public function that was called.
    pub name: &'static str,
    /// Node the span ran on (-1 for the driving thread).
    pub node: i64,
    /// Traced solve the span belongs to (one id per [`Tracer`]).
    pub run: u32,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Offset from the recorder's origin.
    pub start: Duration,
    /// Offset from the recorder's origin (equal to `start` while open).
    pub end: Duration,
}

impl Span {
    /// Length of the span.
    pub fn len(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Thread-safe span store shared by the driving thread and the workers.
pub struct Tracer {
    origin: Instant,
    run: u32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder for one solve; its spans carry a run id no other
    /// recorder of this process uses.
    pub fn new() -> Self {
        static NEXT_RUN: AtomicU32 = AtomicU32::new(0);
        Self {
            origin: Instant::now(),
            run: NEXT_RUN.fetch_add(1, Ordering::Relaxed),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &'static str, node: i64, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        let mut spans = self.spans.lock().expect("span store poisoned");
        spans.push(Span {
            name,
            node,
            run: self.run,
            parent,
            start: now,
            end: now,
        });
        spans.len() - 1
    }

    /// Closes the span `id`.
    pub fn close(&self, id: usize) {
        let now = self.origin.elapsed();
        self.spans.lock().expect("span store poisoned")[id].end = now;
    }

    /// Runs `f` inside a span.
    pub fn timed<T>(
        &self,
        name: &'static str,
        node: i64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, node, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span store poisoned").clone()
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            // Union of the children's intervals, clipped to the parent.
            let mut ivs: Vec<(Duration, Duration)> = kids
                .iter()
                .map(|&c| (spans[c].start.max(s.start), spans[c].end.min(s.end)))
                .filter(|(a, b)| b > a)
                .collect();
            ivs.sort();
            let mut covered = Duration::ZERO;
            let mut reach = s.start;
            for (a, b) in ivs {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.len().saturating_sub(covered)
        })
        .collect()
}

/// Writes the spans as a JSON array, one object per line.
pub fn write_json(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    let selfs = self_times(spans);
    let mut out = String::from("[\n");
    for (i, (s, own)) in spans.iter().zip(&selfs).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\": {i}, \"name\": \"{}\", \"node\": {}, \"run\": {}, \"parent\": {parent}, \
             \"start_s\": {:.9}, \"end_s\": {:.9}, \"self_s\": {:.9}}}{}\n",
            s.name,
            s.node,
            s.run,
            s.start.as_secs_f64(),
            s.end.as_secs_f64(),
            own.as_secs_f64(),
            if i + 1 < spans.len() { "," } else { "" }
        ));
    }
    out.push_str("]\n");
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name: "s",
            node: 0,
            run: 0,
            parent,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100 with overlapping children 10..40 and 30..50: the
        // children cover 40 ms, so the parent keeps 60 ms.
        let spans = vec![
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 50),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], Duration::from_millis(60));
        assert_eq!(selfs[1], Duration::from_millis(30));
        assert_eq!(selfs[2], Duration::from_millis(20));
    }
}
