//! Spans recorded by the benchmark around its calls into the stack.
//!
//! A span has a name, start and end, the id of the span that caused it,
//! and the id of the pass or request it belongs to. Spans stay in memory
//! and are written out once, when the run ends. A layer's self time is
//! its span's duration minus the part of it that child spans cover.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Collects spans when on; every call is a no-op when off, so untraced
/// runs pay one branch per boundary.
pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// A fresh span id (0, meaning "no span", when tracing is off).
    pub fn new_id(&self) -> u64 {
        if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Record a finished span under an id taken from [`Tracer::new_id`].
    pub fn record(
        &self,
        id: u64,
        name: impl Into<Cow<'static, str>>,
        op: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span {
            id,
            parent,
            op,
            name: name.into(),
            start_ns: ns(start),
            end_ns: ns(end).max(ns(start)),
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// A span that ends when the guard drops; its id parents nested spans.
    pub fn span(&self, name: impl Into<Cow<'static, str>>, op: u64, parent: u64) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            id: self.new_id(),
            name: if self.on { Some(name.into()) } else { None },
            op,
            parent,
            start: Instant::now(),
        }
    }

    /// Durations in ns of every span recorded so far under `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.lock().expect("span list lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64)
            .collect()
    }

    /// Duration in ns of each span under `name`, keyed by its op id.
    pub fn spans_by_op(&self, name: &str) -> BTreeMap<u64, f64> {
        let spans = self.spans.lock().expect("span list lock");
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.op, s.dur_ns() as f64))
            .collect()
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span list lock"))
    }
}

pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    name: Option<Cow<'static, str>>,
    op: u64,
    parent: u64,
    start: Instant,
}

impl SpanGuard<'_> {
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            self.tracer.record(
                self.id,
                name,
                self.op,
                self.parent,
                self.start,
                Instant::now(),
            );
        }
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the span).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.dur_ns();
            };
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// The spans as JSON lines, then one summary line per span name with
/// count, total and self time.
pub fn render(spans: &[Span]) -> String {
    let selfs = self_times(spans);
    let mut out = String::new();
    let mut by_name: BTreeMap<&str, (u64, u64, u64)> = BTreeMap::new();
    for (s, &self_ns) in spans.iter().zip(&selfs) {
        let _ = writeln!(
            out,
            "{{\"span\": \"{}\", \"id\": {}, \"parent\": {}, \"op\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
            s.name, s.id, s.parent, s.op, s.start_ns, s.end_ns, self_ns
        );
        let e = by_name.entry(&s.name).or_default();
        e.0 += 1;
        e.1 += s.dur_ns();
        e.2 += self_ns;
    }
    for (name, (count, total, self_ns)) in by_name {
        let _ = writeln!(
            out,
            "{{\"summary\": \"{name}\", \"count\": {count}, \"total_ns\": {total}, \"self_ns\": {self_ns}}}"
        );
    }
    out
}
