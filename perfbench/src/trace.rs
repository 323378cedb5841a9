//! Spans recorded around the benchmark's calls into each layer. Spans are
//! held in memory and read out when a leg ends; a disabled tracer records
//! nothing and never reads the clock.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::stats::{self_times, Span};

thread_local! {
    /// Open spans on this thread, innermost last: the parent of a new span.
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// An in-memory span recorder shared by every thread of one leg.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every span a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that closes when the guard drops.
    pub fn span(&self, name: &'static str, request: u64) -> Guard<'_> {
        if !self.enabled {
            return Guard(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = OPEN.with(|open| {
            let mut open = open.borrow_mut();
            let parent = open.last().copied();
            open.push(id);
            parent
        });
        Guard(Some(Open { tracer: self, id, parent, name, request, start: Instant::now() }))
    }

    /// Every span recorded so far, in closing order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("a span recorder panicked").clone()
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

struct Open<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    request: u64,
    start: Instant,
}

/// Closes its span on drop.
pub struct Guard<'a>(Option<Open<'a>>);

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        let Some(open) = self.0.take() else { return };
        let end = Instant::now();
        OPEN.with(|stack| {
            stack.borrow_mut().pop();
        });
        let span = Span {
            id: open.id,
            parent: open.parent,
            name: open.name,
            request: open.request,
            start_ns: open.tracer.ns(open.start),
            end_ns: open.tracer.ns(end),
        };
        if let Ok(mut spans) = open.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

/// Per-name durations and per-layer self time of a finished trace.
#[derive(Debug, Default)]
pub struct Profile {
    /// Durations in ns, per span name.
    pub durations: BTreeMap<&'static str, Vec<f64>>,
    /// Self time in ns, per span name.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self time in ns, per layer (the name up to its first `.`).
    pub layer_self_ns: BTreeMap<&'static str, u64>,
}

impl Profile {
    /// Folds `spans` into per-name and per-layer totals.
    pub fn of(spans: &[Span]) -> Self {
        let mut p = Profile::default();
        for (s, own) in spans.iter().zip(self_times(spans)) {
            p.durations.entry(s.name).or_default().push((s.end_ns - s.start_ns) as f64);
            *p.self_ns.entry(s.name).or_default() += own;
            *p.layer_self_ns.entry(s.layer()).or_default() += own;
        }
        p
    }

    /// Durations of `name` in the requested unit (`scale` ns per unit).
    pub fn samples(&self, name: &str, scale: f64) -> Vec<f64> {
        self.durations.get(name).map_or_else(Vec::new, |d| d.iter().map(|v| v / scale).collect())
    }

    /// Self time of every span whose name starts with `prefix`, seconds.
    pub fn self_s(&self, prefix: &str) -> f64 {
        self.self_ns.iter().filter(|(n, _)| n.starts_with(prefix)).map(|(_, v)| *v).sum::<u64>()
            as f64
            / 1e9
    }
}
