//! In-memory spans around the calls the traced run makes into each layer.
//!
//! The benchmark composes a job from the layers' public functions and wraps
//! each call in a span; the models layer's own stages arrive through its
//! public [`StageObserver`] seam. Spans stay in memory until the run ends.

use std::sync::Mutex;
use std::time::Instant;

use agmdp_models::observe::{StageObserver, SynthesisStage};

/// One finished span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.fit`.
    pub name: &'static str,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, seconds since the tracer was created.
    pub start: f64,
    /// End, seconds since the tracer was created.
    pub end: f64,
}

impl Span {
    /// Wall duration in seconds.
    pub fn duration(&self) -> f64 {
        self.end - self.start
    }
}

#[derive(Debug, Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Records spans on one thread of control at a time; nested calls become
/// child spans of the innermost open span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            origin: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }
}

impl Tracer {
    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("tracer lock poisoned by a panicking span")
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span and returns its index.
    pub fn open(&self, name: &'static str) -> usize {
        let start = self.now();
        let mut state = self.lock();
        let parent = state.open.last().copied();
        state.spans.push(Span {
            name,
            parent,
            start,
            end: f64::NAN,
        });
        let index = state.spans.len() - 1;
        state.open.push(index);
        index
    }

    /// Closes the innermost open span.
    pub fn close(&self) {
        let end = self.now();
        let mut state = self.lock();
        let index = state.open.pop().expect("close without a matching open");
        state.spans[index].end = end;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Every finished span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

impl StageObserver for Tracer {
    fn stage_start(&self, stage: SynthesisStage) {
        self.open(stage_span(stage));
    }

    fn stage_end(&self, _stage: SynthesisStage) {
        self.close();
    }
}

/// Span name of a models-layer stage reported through the observer seam.
pub fn stage_span(stage: SynthesisStage) -> &'static str {
    match stage {
        SynthesisStage::Fit => "models.fit",
        SynthesisStage::AttrSample => "models.attr_sample",
        SynthesisStage::EdgeSample => "models.edge_sample",
        SynthesisStage::Rewire => "models.rewire",
        SynthesisStage::Freeze => "models.freeze",
        SynthesisStage::Serialize => "models.serialize",
        SynthesisStage::Score => "models.score",
    }
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Totals {
    /// Calls.
    pub calls: u64,
    /// Summed wall time, seconds.
    pub wall: f64,
}

/// Totals of every span named `name`.
pub fn totals(spans: &[Span], name: &str) -> Totals {
    let mut out = Totals::default();
    for span in spans.iter().filter(|s| s.name == name) {
        out.calls += 1;
        out.wall += span.duration();
    }
    out
}

/// A span's duration minus the durations of its direct children (children
/// of one span never overlap: spans nest on one thread of control).
pub fn self_time(spans: &[Span], index: usize) -> f64 {
    let children: f64 = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(Span::duration)
        .sum();
    spans[index].duration() - children
}

/// Summed self time of every span whose parent is `root` or a descendant of
/// it, i.e. everything under the root except the root's own glue.
pub fn layer_self_time_under(spans: &[Span], root: usize) -> f64 {
    (0..spans.len())
        .filter(|&i| descends_from(spans, i, root))
        .map(|i| self_time(spans, i))
        .sum()
}

fn descends_from(spans: &[Span], mut i: usize, root: usize) -> bool {
    while let Some(parent) = spans[i].parent {
        if parent == root {
            return true;
        }
        i = parent;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("job", None, 0.0, 10.0),
            span("models.sample", Some(0), 1.0, 9.0),
            span("models.edge_sample", Some(1), 2.0, 4.0),
            span("models.rewire", Some(1), 4.0, 8.0),
            span("models.edge_sample", Some(1), 8.0, 8.5),
        ];
        assert!((self_time(&spans, 0) - 2.0).abs() < 1e-12);
        assert!((self_time(&spans, 1) - 1.5).abs() < 1e-12);
        let edge = totals(&spans, "models.edge_sample");
        assert_eq!(edge.calls, 2);
        assert!((edge.wall - 2.5).abs() < 1e-12);
        // Everything under the job except its own glue: 10 - 2.
        assert!((layer_self_time_under(&spans, 0) - 8.0).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_observer_stages_under_the_open_span() {
        let tracer = Tracer::default();
        tracer.span("job", || {
            tracer.span("models.sample", || {
                tracer.stage_start(SynthesisStage::EdgeSample);
                tracer.stage_end(SynthesisStage::EdgeSample);
            });
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].name, "models.edge_sample");
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
