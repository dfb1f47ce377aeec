//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A span has a name, a category (the layer), a start and an end, the
//! span that caused it and the op it belongs to. Spans stay in memory
//! until the run ends; then they are reduced to per-name totals and
//! self times, and written out as Chrome trace-event JSON (open it in
//! `chrome://tracing` or Perfetto). With tracing off, [`Tracer::span`]
//! only runs its closure.

use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval. Times are microseconds since the tracer's
/// creation.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// The causing span's id, 0 for a root.
    pub parent: u64,
    pub op: u64,
    /// Client thread the span ran on.
    pub tid: u32,
    pub name: String,
    pub cat: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Where a span sits: its parent, op and thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Ctx {
    pub parent: u64,
    pub op: u64,
    pub tid: u32,
}

impl Ctx {
    pub fn root(op: u64, tid: u32) -> Ctx {
        Ctx { parent: 0, op, tid }
    }

    /// The same op and thread, under span `parent`.
    pub fn child(self, parent: u64) -> Ctx {
        Ctx { parent, ..self }
    }
}

pub struct Tracer {
    on: bool,
    t0: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

/// Per-name totals over a run, microseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    pub self_us: f64,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    /// Microseconds since the tracer was created.
    pub fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Run `f` inside a span named `name` in layer `cat`; `f` gets the
    /// context its own child spans should use.
    pub fn span<T>(&self, name: &str, cat: &'static str, ctx: Ctx, f: impl FnOnce(Ctx) -> T) -> T {
        if !self.on {
            return f(ctx);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(ctx.child(id));
        let end_us = self.now_us();
        self.push(Span {
            id,
            parent: ctx.parent,
            op: ctx.op,
            tid: ctx.tid,
            name: name.to_string(),
            cat,
            start_us,
            end_us,
        });
        out
    }

    /// Record an interval measured elsewhere (for example a node time
    /// from a run profile) and return its id, so that it can parent
    /// further spans. Returns 0 with tracing off.
    pub fn record(
        &self,
        name: &str,
        cat: &'static str,
        ctx: Ctx,
        start_us: f64,
        end_us: f64,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.push(Span {
            id,
            parent: ctx.parent,
            op: ctx.op,
            tid: ctx.tid,
            name: name.to_string(),
            cat,
            start_us,
            end_us,
        });
        id
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span list poisoned").push(span);
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Count, total and self time per span name. A span's self time is
    /// its duration minus the part of it that its children cover.
    pub fn totals(&self) -> BTreeMap<String, NameTotals> {
        let spans = self.spans();
        let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_us, s.end_us));
            }
        }
        let mut out: BTreeMap<String, NameTotals> = BTreeMap::new();
        for s in &spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0.0, |c| covered_us(c, s.start_us, s.end_us));
            let t = out.entry(s.name.clone()).or_default();
            t.count += 1;
            t.total_us += s.dur_us();
            t.self_us += s.dur_us() - covered;
        }
        out
    }

    /// Write every span as Chrome trace-event JSON to `path`, with
    /// `other_data` (a JSON object) under `otherData`.
    pub fn write_chrome(&self, path: &Path, other_data: String) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        w.write_all(b"{\"displayTimeUnit\": \"ms\", \"otherData\": ")?;
        w.write_all(other_data.as_bytes())?;
        w.write_all(b", \"traceEvents\": [\n")?;
        for (i, s) in self.spans().iter().enumerate() {
            if i > 0 {
                w.write_all(b",\n")?;
            }
            let args = json::Obj::new()
                .int("id", s.id)
                .int("parent", s.parent)
                .int("op", s.op)
                .finish();
            let ev = json::Obj::new()
                .str("name", &s.name)
                .str("cat", s.cat)
                .str("ph", "X")
                .num("ts", s.start_us)
                .num("dur", s.dur_us())
                .int("pid", 1)
                .int("tid", u64::from(s.tid))
                .raw("args", args)
                .finish();
            w.write_all(ev.as_bytes())?;
        }
        w.write_all(b"\n]}\n")?;
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_us(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let t = Tracer::new(true);
        let root = t.record("op", "bench", Ctx::root(1, 0), 0.0, 10.0);
        let ctx = Ctx::root(1, 0).child(root);
        t.record("a", "core", ctx, 1.0, 4.0);
        t.record("b", "core", ctx, 3.0, 6.0);
        t.record("c", "core", ctx, 9.0, 12.0);
        let totals = t.totals();
        assert_eq!(totals["op"].total_us, 10.0);
        // Children cover [1,6] and [9,10] of the root: 6 of its 10 µs.
        assert_eq!(totals["op"].self_us, 4.0);
        assert_eq!(totals["a"].self_us, 3.0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("op", "bench", Ctx::root(1, 0), |_| 7);
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }
}
