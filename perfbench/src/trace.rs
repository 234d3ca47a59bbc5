//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Every thread records into its own [`Tracer`] (no shared lock on the
//! measured path); the tracers are merged at the end and written out
//! once. A span's self time is its duration minus its children's.

use crate::procfs::Counters;
use crate::Report;
use std::collections::BTreeMap;
use std::time::Instant;

/// Untraced and traced slices of one load, alternated A B B A A B B A
/// so that drift over the run cancels out of their difference.
#[derive(Default)]
pub struct Split {
    plain_units: usize,
    plain_wall: f64,
    plain_used: Counters,
    traced_units: usize,
    traced_wall: f64,
}

impl Split {
    /// Runs `slice(seconds, traced, index)` eight times over `seconds`
    /// in total; `slice` returns (units completed, wall seconds).
    pub fn run(seconds: f64, mut slice: impl FnMut(f64, bool, u64) -> (usize, f64)) -> Split {
        const SLICES: u64 = 8;
        let mut split = Split::default();
        for k in 0..SLICES {
            let traced = matches!(k % 4, 1 | 2);
            let before = Counters::read();
            let (units, wall) = slice(seconds / SLICES as f64, traced, k);
            let used = Counters::read().since(&before);
            if traced {
                split.traced_units += units;
                split.traced_wall += wall;
            } else {
                split.plain_units += units;
                split.plain_wall += wall;
                split.plain_used.cpu_micros += used.cpu_micros;
                split.plain_used.ctx_switches += used.ctx_switches;
            }
        }
        split
    }

    /// Sets the process metrics (from the untraced slices, per unit) and
    /// the tracing overhead (untraced − traced rate, % of untraced).
    pub fn record(&self, report: &mut Report) {
        let n = self.plain_units.max(1) as f64;
        report.set("process.cpu_ms_per_lifecycle", self.plain_used.cpu_ms() / n);
        report.set(
            "process.ctx_switches_per_lifecycle",
            self.plain_used.ctx_switches as f64 / n,
        );
        let plain = self.plain_units as f64 / self.plain_wall;
        let traced = self.traced_units as f64 / self.traced_wall;
        report.set("trace.overhead_pct", (plain - traced) / plain * 100.0);
    }
}

/// One recorded span; times are nanoseconds since the run's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The lifecycle (or planned cell) the span belongs to.
    pub lifecycle: u64,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e9
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// costs one branch per call.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant, enabled: bool) -> Self {
        Tracer {
            epoch,
            enabled,
            spans: Vec::new(),
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; pass the result to [`end`](Self::end).
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        lifecycle: u64,
    ) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            lifecycle,
        });
        Some(self.spans.len() - 1)
    }

    pub fn end(&mut self, id: Option<usize>) {
        if let Some(i) = id {
            self.spans[i].end_ns = self.now_ns();
        }
    }

    /// Runs `f` inside a span and returns its result with its wall time
    /// in seconds (measured whether or not tracing is on).
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        lifecycle: u64,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let id = self.begin(name, parent, lifecycle);
        let start = Instant::now();
        let value = f();
        let secs = start.elapsed().as_secs_f64();
        self.end(id);
        (value, secs)
    }

    /// Appends another thread's spans, re-basing their parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Durations (seconds) of every span called `name`, in record order.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::secs)
            .collect()
    }

    /// Durations of spans called `name`, keyed by lifecycle (the last
    /// span wins if a lifecycle has several).
    pub fn by_lifecycle(&self, name: &str) -> BTreeMap<u64, f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.lifecycle, s.secs()))
            .collect()
    }

    /// Per span name: (count, total seconds, self seconds).
    pub fn self_times(&self) -> BTreeMap<&'static str, (usize, f64, f64)> {
        let mut child_secs = vec![0.0; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_secs[p] += s.secs();
            }
        }
        let mut out: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.secs();
            e.2 += s.secs() - child_secs[i];
        }
        out
    }

    /// The spans and their self-time summary as one JSON document.
    pub fn to_json(&self, header: &[(&str, String)]) -> String {
        let mut out = String::from("{\n");
        for (k, v) in header {
            out.push_str(&format!("  \"{k}\": {v},\n"));
        }
        out.push_str("  \"self_time\": {\n");
        let summary = self.self_times();
        let rows: Vec<String> = summary
            .iter()
            .map(|(name, (n, total, own))| {
                format!(
                    "    \"{name}\": {{\"count\": {n}, \"total_ms\": {:.3}, \"self_ms\": {:.3}}}",
                    total * 1e3,
                    own * 1e3
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  },\n  \"spans\": [\n");
        let rows: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
                format!(
                    "    [\"{}\", {}, {}, {parent}, {}]",
                    s.name, s.start_ns, s.end_ns, s.lifecycle
                )
            })
            .collect();
        out.push_str(&rows.join(",\n"));
        out.push_str("\n  ]\n}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let root = t.begin("root", None, 1);
        t.time("child", root, 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.end(root);
        let summary = t.self_times();
        let (_, total, own) = summary["root"];
        let (_, child, _) = summary["child"];
        assert!((total - own - child).abs() < 1e-9);
        assert!(child >= 0.005);
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch, true);
        a.begin("a", None, 0);
        let mut b = Tracer::new(epoch, true);
        let p = b.begin("b", None, 0);
        b.begin("c", p, 0);
        a.absorb(b);
        assert_eq!(a.spans[2].parent, Some(1));
    }
}
