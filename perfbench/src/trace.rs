//! In-memory spans around calls into the program's layers. A traced run
//! records one span per timed call (name, request id, start, end) and
//! derives the per-layer metrics from them once the run has ended; nothing
//! is written while the workload runs.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
}

#[derive(Debug, Default)]
pub struct Trace {
    on: bool,
    spans: Vec<Span>,
}

impl Trace {
    /// A recorder; `on == false` records nothing (the untraced runs).
    pub fn new(on: bool) -> Trace {
        Trace { on, spans: Vec::new() }
    }

    /// Run `f` and record its duration under `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(name, start, Instant::now());
        out
    }

    pub fn record(&mut self, name: &'static str, start: Instant, end: Instant) {
        if self.on {
            self.spans.push(Span { name, start, end });
        }
    }

    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.on {
            self.spans.extend(spans);
        }
    }

    /// Durations of every span named `name`, in microseconds.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.end.saturating_duration_since(s.start)))
            .collect()
    }

    /// Span counts by name, for the run log.
    pub fn census(&self) -> BTreeMap<&'static str, usize> {
        let mut counts = BTreeMap::new();
        for span in &self.spans {
            *counts.entry(span.name).or_insert(0) += 1;
        }
        counts
    }
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}
