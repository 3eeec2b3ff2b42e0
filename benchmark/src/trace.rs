//! Spans around the benchmark's calls into the simulator's layers.
//!
//! Spans are kept in memory for one rep and reduced to per-layer self
//! time (a span's duration minus the part its child spans cover) and an
//! op-latency sample once the rep ends. With tracing off every method is
//! a plain call-through, so the untraced reps that yield the end-to-end
//! numbers time nothing but the rep itself.

use std::time::{Duration, Instant};

/// One completed (or open) span.
struct Span {
    name: &'static str,
    parent: Option<usize>,
    start: Instant,
    nanos: u64,
    child_nanos: u64,
    op: bool,
}

/// Span recorder for one rep; [`Tracer::off`] records nothing.
pub struct Tracer {
    on: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
    op_samples: Vec<u64>,
}

impl Tracer {
    /// A recorder that records nothing.
    pub fn off() -> Tracer {
        Tracer {
            on: false,
            spans: Vec::new(),
            stack: Vec::new(),
            op_samples: Vec::new(),
        }
    }

    /// A recording tracer.
    pub fn on() -> Tracer {
        Tracer {
            on: true,
            ..Tracer::off()
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Runs `f` inside a span named after the layer call it wraps.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.wrap(name, false, f)
    }

    /// [`Tracer::span`] for one op of the workload: its duration is also
    /// an op-latency sample.
    pub fn op<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        self.wrap(name, true, f)
    }

    fn wrap<R>(&mut self, name: &'static str, op: bool, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            parent: self.stack.last().copied(),
            start: Instant::now(),
            nanos: 0,
            child_nanos: 0,
            op,
        });
        self.stack.push(idx);
        let out = f(self);
        let nanos = self.spans[idx].start.elapsed().as_nanos() as u64;
        self.stack.pop();
        self.spans[idx].nanos = nanos;
        if let Some(p) = self.spans[idx].parent {
            self.spans[p].child_nanos += nanos;
        }
        out
    }

    /// Adds an op-latency sample the library measured itself — the
    /// campaign engine's per-job timings, for work that ran inside one
    /// library call or on worker threads the benchmark cannot wrap.
    pub fn op_sample(&mut self, d: Duration) {
        if self.on {
            self.op_samples.push(d.as_nanos() as u64);
        }
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let nanos: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos.saturating_sub(s.child_nanos))
            .sum();
        nanos as f64 / 1e9
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos)
            .sum::<u64>() as f64
            / 1e9
    }

    /// Op latencies in milliseconds: op spans plus recorded samples.
    pub fn op_ms(&self) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.op)
            .map(|s| s.nanos)
            .chain(self.op_samples.iter().copied())
            .map(|n| n as f64 / 1e6)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {}
    }

    #[test]
    fn self_time_excludes_children() {
        let mut tr = Tracer::on();
        tr.span("outer", |tr| {
            spin(Duration::from_millis(4));
            tr.op("inner", |_| spin(Duration::from_millis(6)));
            spin(Duration::from_millis(2));
        });
        tr.op_sample(Duration::from_millis(3));
        let outer = tr.self_s("outer");
        assert!(outer >= 0.006, "outer self {outer}");
        assert!(tr.self_s("inner") >= 0.006);
        let parts = outer + tr.self_s("inner");
        assert!((parts - tr.total_s("outer")).abs() < 1e-9);
        assert_eq!(tr.op_ms().len(), 2);
    }

    #[test]
    fn off_records_nothing() {
        let mut tr = Tracer::off();
        let v = tr.span("x", |tr| tr.op("y", |_| 7));
        tr.op_sample(Duration::from_secs(1));
        assert_eq!(v, 7);
        assert_eq!(tr.total_s("x"), 0.0);
        assert!(tr.op_ms().is_empty());
    }
}
