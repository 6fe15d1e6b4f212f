//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own files, around the calls
//! into each layer's public functions; nothing inside the simulator is
//! touched. They stay in memory until the run ends and are then written
//! as one JSON document (`trace-<workload>.json`).

use std::fmt::Write as _;

use noc_obs::Stopwatch;

/// One timed region: `{name, iteration, start_ns, end_ns, parent}`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps (`engine.step`, `checkpoint.encode`, …).
    pub name: &'static str,
    /// Traced iteration the span belongs to (the request identifier).
    pub iteration: u32,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the span that caused this one; `None` for an iteration.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records strictly nested spans. A tracer that is off records nothing
/// and costs one branch per call, so the same iteration code serves the
/// untraced and the traced run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    clock: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
    iteration: u32,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Self {
        Tracer::new(false)
    }

    /// A recording tracer whose clock starts now.
    pub fn on() -> Self {
        Tracer::new(true)
    }

    fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            clock: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
            iteration: 0,
        }
    }

    /// Is this tracer recording?
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Sets the iteration number stamped on subsequent spans.
    pub fn set_iteration(&mut self, iteration: u32) {
        self.iteration = iteration;
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let index = self.spans.len();
        let now = self.clock.elapsed_nanos();
        self.spans.push(Span {
            name,
            iteration: self.iteration,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        if let Some(index) = self.open.pop() {
            self.spans[index].end_ns = self.clock.elapsed_nanos();
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every closed span named `name`, in start order.
    pub fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .collect()
    }

    /// Renders the trace document written when the run ends.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 120);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans\":["
        );
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"workload\":\"{workload}\",\"iteration\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":",
                s.name, s.iteration, s.start_ns, s.end_ns
            );
            match s.parent {
                Some(p) => {
                    let _ = write!(out, "{p}}}");
                }
                None => out.push_str("null}"),
            }
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_the_innermost_open_span() {
        let mut t = Tracer::on();
        t.set_iteration(3);
        t.begin("iteration");
        t.begin("engine.build");
        t.end();
        t.begin("engine.run");
        t.begin("engine.step");
        t.end();
        t.end();
        t.end();
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.iteration == 3));
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        assert_eq!(t.durations("engine.step").len(), 1);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::off();
        t.begin("iteration");
        t.end();
        assert!(t.spans().is_empty());
        assert!(!t.enabled());
    }

    #[test]
    fn trace_document_parses_and_keeps_the_tree() {
        let mut t = Tracer::on();
        t.begin("iteration");
        t.begin("engine.build");
        t.end();
        t.end();
        let doc = crate::json::parse(&t.to_json("flood64_clean", 7)).expect("valid json");
        assert_eq!(
            doc.get("workload").and_then(|v| v.as_str()),
            Some("flood64_clean")
        );
        let spans = doc.get("spans").and_then(|v| v.as_array()).expect("spans");
        assert_eq!(spans.len(), 2);
        assert!(spans[0].get("parent").is_some_and(|p| p.is_null()));
        assert_eq!(spans[1].get("parent").and_then(|p| p.as_f64()), Some(0.0));
    }
}
