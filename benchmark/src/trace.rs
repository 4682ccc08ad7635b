//! Spans recorded by the benchmark around its calls into each layer.
//!
//! A [`Clock`] is shared by every thread of one run; each thread records
//! into its own [`Lane`], so recording takes no lock. With tracing off a
//! lane runs the closure and records nothing, which lets the same workload
//! code serve the untraced (end-to-end) and the traced (per-layer) pass.

use crate::timed::{samples_to_spans, BackendLayer, OpSample};
use serde::JsonValue;
use std::cell::Cell;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::time::Instant;

/// One timed call into a layer. `name` is `<layer>.<call>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a rep's root.
    pub parent: Option<u32>,
    /// The rep the span belongs to (spans of one rep share it).
    pub trace: u32,
    /// The recording thread: self times are only ever summed per thread.
    pub thread: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// The layer prefix of the span's name.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

thread_local! {
    /// The calling thread's number, handed out on first use.
    static THREAD: Cell<Option<u32>> = const { Cell::new(None) };
}

/// A small number that names the calling thread in spans and samples: the
/// same thread always gets the same one, whoever asks.
pub fn thread_index() -> u32 {
    // Relaxed: the counter publishes nothing but its own value.
    static NEXT: AtomicU32 = AtomicU32::new(0);
    THREAD.with(|t| match t.get() {
        Some(ix) => ix,
        None => {
            let ix = NEXT.fetch_add(1, Ordering::Relaxed);
            t.set(Some(ix));
            ix
        }
    })
}

/// The time base and id source of one run.
pub struct Clock {
    epoch: Instant,
    next_id: AtomicU32,
    on: bool,
}

impl Clock {
    pub fn new(on: bool) -> Self {
        Clock {
            epoch: Instant::now(),
            // Relaxed: the counter publishes nothing but its own value.
            next_id: AtomicU32::new(0),
            on,
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn next_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// A lane for the calling thread; its spans hang under `parent`.
    pub fn lane(&self, trace: u32, parent: Option<u32>) -> Lane<'_> {
        Lane {
            clock: self,
            trace,
            thread: thread_index(),
            stack: parent.into_iter().collect(),
            spans: Vec::new(),
            samples: Vec::new(),
        }
    }
}

/// One thread's span recorder.
pub struct Lane<'c> {
    clock: &'c Clock,
    trace: u32,
    thread: u32,
    stack: Vec<u32>,
    spans: Vec<Span>,
    /// Backend samples still to be turned into spans, with their parent.
    samples: Vec<(Vec<OpSample>, BackendLayer, Option<u32>)>,
}

impl<'c> Lane<'c> {
    pub fn clock(&self) -> &'c Clock {
        self.clock
    }

    pub fn trace(&self) -> u32 {
        self.trace
    }

    /// The innermost open span, which spans recorded elsewhere (another
    /// thread, a [`crate::timed::TimedBackend`]) name as their parent.
    pub fn current(&self) -> Option<u32> {
        self.stack.last().copied()
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        if !self.clock.on {
            return f(self);
        }
        let id = self.clock.next_id();
        let parent = self.current();
        self.stack.push(id);
        let start_ns = self.clock.now_ns();
        let out = f(self);
        let end_ns = self.clock.now_ns();
        self.stack.pop();
        self.spans.push(Span {
            id,
            parent,
            trace: self.trace,
            thread: self.thread,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Adds spans recorded on other threads of the same rep.
    pub fn adopt(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    /// Takes the operations a [`crate::timed::TimedBackend`] timed under
    /// the current span. They become spans in [`Lane::finish`], after the
    /// repetition: turning some hundred thousand samples into spans inside
    /// it would be charged to the span being measured.
    pub fn adopt_samples(&mut self, samples: Vec<OpSample>, layer: BackendLayer) {
        let parent = self.current();
        self.samples.push((samples, layer, parent));
    }

    pub fn finish(mut self) -> Vec<Span> {
        for (samples, layer, parent) in std::mem::take(&mut self.samples) {
            let spans = samples_to_spans(&samples, layer, self.clock, self.trace, parent);
            self.spans.extend(spans);
        }
        self.spans
    }
}

/// Each span's self time: its duration minus the part of its interval that
/// its children *on the same thread* cover (overlapping children are
/// counted once). Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let index: std::collections::HashMap<u32, usize> =
        spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        let Some(&p) = s.parent.and_then(|p| index.get(&p)) else {
            continue;
        };
        let parent = &spans[p];
        if parent.thread == s.thread {
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let from = start.max(reach);
                if end > from {
                    covered += end - from;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Share of the root span `root` that the self times of the other spans on
/// the root's thread account for.
pub fn coverage(spans: &[Span], root: u32) -> f64 {
    let selfs = self_times(spans);
    let Some(r) = spans.iter().position(|s| s.id == root) else {
        return 0.0;
    };
    let wall = spans[r].duration_ns();
    if wall == 0 {
        return 0.0;
    }
    let attributed: u64 = spans
        .iter()
        .zip(&selfs)
        .filter(|(s, _)| s.id != root && s.trace == spans[r].trace && s.thread == spans[r].thread)
        .map(|(_, t)| *t)
        .sum();
    attributed as f64 / wall as f64
}

/// Self time per layer, in seconds, summed per thread: one `(layer, thread,
/// seconds)` row for every layer a thread recorded.
pub fn layer_self_seconds(spans: &[Span]) -> Vec<(&'static str, u32, f64)> {
    let mut rows: std::collections::BTreeMap<(&'static str, u32), u64> = Default::default();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *rows.entry((s.layer(), s.thread)).or_default() += t;
    }
    rows.into_iter()
        .map(|((layer, thread), ns)| (layer, thread, ns as f64 / 1e9))
        .collect()
}

/// Writes one JSON object per span.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut line = String::new();
    for s in spans {
        line.clear();
        JsonValue::Object(vec![
            ("trace".into(), JsonValue::U64(s.trace.into())),
            ("id".into(), JsonValue::U64(s.id.into())),
            (
                "parent".into(),
                s.parent
                    .map_or(JsonValue::Null, |p| JsonValue::U64(p.into())),
            ),
            ("thread".into(), JsonValue::U64(s.thread.into())),
            ("name".into(), JsonValue::Str(s.name.into())),
            ("start_ns".into(), JsonValue::U64(s.start_ns)),
            ("end_ns".into(), JsonValue::U64(s.end_ns)),
        ])
        .render(&mut line);
        line.push('\n');
        out.write_all(line.as_bytes())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, thread: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            trace: 0,
            thread,
            name: "layer.call",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 0, 10, 40),
            span(2, Some(1), 0, 15, 25),
            span(3, Some(0), 0, 50, 90),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        assert!((coverage(&spans, 0) - 0.70).abs() < 1e-12);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        let spans = vec![
            span(0, None, 0, 100, 200),
            span(1, Some(0), 0, 110, 150),
            span(2, Some(0), 0, 140, 170),
            // Runs past its parent: only the part inside counts.
            span(3, Some(0), 0, 190, 250),
        ];
        // Covered: 110..170 and 190..200.
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn children_on_another_thread_do_not_reduce_self_time() {
        let spans = vec![
            span(0, None, 0, 0, 100),
            span(1, Some(0), 1, 0, 60),
            span(2, Some(0), 2, 0, 70),
        ];
        assert_eq!(self_times(&spans), vec![100, 60, 70]);
        let rows = layer_self_seconds(&spans);
        assert_eq!(rows.len(), 3, "one row per thread, never summed across");
    }

    #[test]
    fn lanes_nest_and_an_off_clock_records_nothing() {
        let clock = Clock::new(true);
        let mut lane = clock.lane(7, None);
        let inner = lane.span("a.outer", |l| {
            let parent = l.current();
            l.span("b.inner", |_| ());
            parent
        });
        let spans = lane.finish();
        assert_eq!(spans.len(), 2);
        let (inner_span, outer_span) = (&spans[0], &spans[1]);
        assert_eq!(outer_span.name, "a.outer");
        assert_eq!(inner_span.parent, Some(outer_span.id));
        assert_eq!(inner, Some(outer_span.id));
        assert_eq!(outer_span.trace, 7);
        assert_eq!(outer_span.layer(), "a");

        let off = Clock::new(false);
        let mut lane = off.lane(0, None);
        assert_eq!(lane.span("a.b", |_| 5), 5);
        assert!(lane.finish().is_empty());
    }
}
