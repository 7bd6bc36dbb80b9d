//! In-memory span recorder for the traced run.
//!
//! Spans are opened and closed around calls into the camsoc crates
//! from the benchmark's own code; nothing inside the crates is
//! instrumented. Every span records its name, start and end (ns since
//! the run began), its parent span and the run id of the unit of work
//! it belongs to. The spans stay in memory and are written out once,
//! when the benchmark ends.
//!
//! An untraced recorder still times each span (the workloads need the
//! durations) but keeps nothing.

use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug)]
struct Span {
    /// Metric-style name, e.g. `core.stage.atpg_ms`.
    name: &'static str,
    /// Start, ns since the recorder was created.
    start_ns: u128,
    /// End, ns since the recorder was created.
    end_ns: u128,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// Unit of work (flow, replay, farm batch) the span belongs to.
    run_id: usize,
}

/// Handle of an open span.
#[must_use = "close the span to get its duration"]
pub struct Open {
    index: Option<usize>,
    started: Instant,
}

/// The recorder.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    run_id: usize,
    spans: Vec<Span>,
    stack: Vec<usize>,
    /// Time spent inside the recorder's own bookkeeping.
    bookkeeping: Duration,
}

impl Tracer {
    /// A recorder; `enabled == false` only times spans.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            run_id: 0,
            spans: Vec::new(),
            stack: Vec::new(),
            bookkeeping: Duration::ZERO,
        }
    }

    /// Whether spans are kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Start attributing spans to unit of work `run_id`.
    pub fn set_run(&mut self, run_id: usize) {
        self.run_id = run_id;
    }

    /// Open a span nested in the innermost open span.
    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open {
                index: None,
                started: Instant::now(),
            };
        }
        let entered = Instant::now();
        let index = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.stack.last().copied(),
            run_id: self.run_id,
        });
        self.stack.push(index);
        let started = Instant::now();
        self.spans[index].start_ns = (started - self.origin).as_nanos();
        self.bookkeeping += started - entered;
        Open {
            index: Some(index),
            started,
        }
    }

    /// Close a span; returns its duration in ms.
    pub fn close(&mut self, open: Open) -> f64 {
        let ended = Instant::now();
        let ms = (ended - open.started).as_secs_f64() * 1e3;
        if let Some(index) = open.index {
            self.spans[index].end_ns = (ended - self.origin).as_nanos();
            if self.stack.last() == Some(&index) {
                self.stack.pop();
            }
            self.bookkeeping += ended.elapsed();
        }
        ms
    }

    /// Time `f` as span `name`, returning its result and duration (ms).
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> (R, f64) {
        let open = self.open(name);
        let r = f();
        (r, self.close(open))
    }

    /// Time spent in the recorder's own bookkeeping.
    pub fn bookkeeping(&self) -> Duration {
        self.bookkeeping
    }

    /// The recorded spans.
    #[cfg(test)]
    fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"run_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.run_id
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parent_and_run() {
        let mut t = Tracer::new(true);
        t.set_run(3);
        let outer = t.open("outer");
        let ((), inner_ms) = t.time("inner", || ());
        let outer_ms = t.close(outer);
        assert!(inner_ms <= outer_ms);
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[0].parent, None);
        assert!(s.iter().all(|s| s.run_id == 3 && s.end_ns >= s.start_ns));
    }

    #[test]
    fn disabled_tracer_times_but_keeps_nothing() {
        let mut t = Tracer::new(false);
        let ((), ms) = t.time("x", || std::thread::sleep(Duration::from_millis(2)));
        assert!(ms >= 2.0);
        assert!(t.spans().is_empty());
    }
}
