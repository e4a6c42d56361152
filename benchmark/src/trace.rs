//! Span recorder for the traced pass. Spans are taken by the harness
//! around its calls into each layer (the program itself carries none),
//! kept in memory, and written out with the result.

use crate::json::Json;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Clone, Debug)]
pub struct Span {
    /// `layer.operation`, e.g. `blocking.run`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

/// Records nested spans against one monotonic epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, nested under whichever span
    /// is open on this tracer.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    /// Total seconds spent in spans whose name starts with `prefix`,
    /// counting only the outermost matching span of any nest.
    pub fn total_s(&self, prefix: &str) -> f64 {
        let matches = |i: usize| self.spans[i].name.starts_with(prefix);
        let nested = |mut i: usize| {
            while let Some(p) = self.spans[i].parent {
                if matches(p) {
                    return true;
                }
                i = p;
            }
            false
        };
        (0..self.spans.len())
            .filter(|&i| matches(i) && !nested(i))
            .map(|i| (self.spans[i].end_ns - self.spans[i].start_ns) as f64 / 1e9)
            .sum()
    }

    /// Self time per span: its duration minus the part its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] = own[p].saturating_sub(span.end_ns - span.start_ns);
            }
        }
        own
    }

    /// Self time summed by layer (the part of the name before the dot),
    /// in seconds, in first-seen order.
    pub fn self_s_by_layer(&self) -> Vec<(String, f64)> {
        let mut layers: Vec<(String, f64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self.self_ns()) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            let secs = own as f64 / 1e9;
            match layers.iter_mut().find(|(l, _)| l == layer) {
                Some(slot) => slot.1 += secs,
                None => layers.push((layer.to_string(), secs)),
            }
        }
        layers
    }

    /// The spans as the result file carries them.
    pub fn to_json(&self, workload: &str, rep: u64) -> Json {
        let own = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(own)
                .map(|(s, own)| {
                    Json::obj()
                        .with("workload", workload)
                        .with("rep", rep)
                        .with("name", s.name)
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with("parent", s.parent.map_or(Json::Null, Json::from))
                        .with("self_ns", own)
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nesting_parents_and_self_time() {
        let mut t = Tracer::new();
        t.span("job", |t| {
            t.span("anon.anonymize_r", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            t.span("smc.run", |t| {
                t.span("journal.commit", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        let spans = &t.spans;
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        let own = t.self_ns();
        let total: u64 = own.iter().sum();
        // Self times partition the root span exactly.
        assert_eq!(total, spans[0].end_ns - spans[0].start_ns);
        assert!(own[3] >= 2_000_000);
        assert!(own[2] < spans[2].end_ns - spans[2].start_ns);
        // Layer totals: the journal commit is not charged to smc.
        let layers = t.self_s_by_layer();
        let names: Vec<&str> = layers.iter().map(|(l, _)| l.as_str()).collect();
        assert_eq!(names, ["job", "anon", "smc", "journal"]);
        assert!(t.total_s("smc.") >= t.total_s("journal."));
    }
}
