//! In-memory spans recorded around the benchmark's calls into each
//! layer. Nothing is recorded while tracing is off; timings the
//! untraced run needs are taken with [`std::time::Instant`] directly.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded call: name, interval (ns since the tracer started) and
/// the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position in the tracer's span list.
    pub id: u32,
    /// Enclosing span, if any.
    pub parent: Option<u32>,
    /// Layer-qualified call name, e.g. `cluster.run_until`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
}

/// An open span; close it with [`Tracer::end`].
#[must_use]
pub struct Open {
    id: Option<u32>,
    start: Instant,
}

impl Open {
    /// The span's id, for use as a child's parent (`None` when off).
    pub fn id(&self) -> Option<u32> {
        self.id
    }
}

/// Span recorder. Disabled tracers only hand out start instants.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Is this tracer recording?
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Start or stop recording (spans already recorded are kept).
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Open a span named `name` under `parent`.
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>) -> Open {
        let start = Instant::now();
        let id = self.on.then(|| {
            let id = self.spans.len() as u32;
            self.spans.push(Span {
                id,
                parent,
                name,
                start_ns: self.ns(start),
                end_ns: 0,
            });
            id
        });
        Open { id, start }
    }

    /// Close `open`, returning its duration.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(id) = open.id {
            let ns = self.ns(end);
            self.spans[id as usize].end_ns = ns;
        }
        end - open.start
    }

    fn ns(&self, at: Instant) -> u64 {
        (at - self.epoch).as_nanos() as u64
    }

    /// Everything recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span named `name`: its duration minus the part
    /// its direct children cover, ns.
    pub fn self_times_ns(&self, name: &str) -> Vec<f64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns).saturating_sub(child_ns[s.id as usize]) as f64)
            .collect()
    }

    /// Durations of every span named `name`, ms.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Render the spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                r#"{{"id":{},"parent":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
                s.id, parent, s.name, s.start_ns, s.end_ns
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer", None);
        let inner = t.begin("inner", outer.id());
        std::thread::sleep(Duration::from_millis(2));
        t.end(inner);
        t.end(outer);
        let total = t.durations_ms("outer")[0] * 1e6;
        let own = t.self_times_ns("outer")[0];
        assert!(own < total, "{own} !< {total}");
        assert_eq!(t.to_jsonl().lines().count(), 2);

        let mut off = Tracer::new(false);
        let o = off.begin("x", None);
        assert!(o.id().is_none());
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
