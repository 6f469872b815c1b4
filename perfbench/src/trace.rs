//! In-memory spans for the traced pass, written out as Chrome
//! trace-event JSON (Perfetto and chrome://tracing read it) when the
//! run ends.
//!
//! A span is one call into a layer, made by the benchmark itself: name,
//! start, end, the span that caused it and the request it belongs to.
//! Besides spans the tracer keeps named samples — values measured at a
//! layer boundary, such as an analysis report's event count. Spans and
//! samples recorded while [`Tracer::set_probe`] is on belong to the
//! fixed probe, which a metric falls back to only when the workload's
//! own traffic never reached that layer.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call.
#[derive(Clone, Debug)]
pub struct Span {
    /// Layer function name, e.g. `planc.parse_kv`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request the span belongs to.
    pub request: u64,
    /// Lane the call ran on: 0 for the client, `1 + rank` for rank threads.
    pub lane: usize,
    /// Recorded while the probe was running.
    pub probe: bool,
}

impl Span {
    /// Duration in µs.
    pub fn us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// See the module docs.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    samples: Vec<(&'static str, f64, bool)>,
    open: Vec<usize>,
    request: u64,
    probe: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            samples: Vec::new(),
            open: Vec::new(),
            request: 0,
            probe: false,
        }
    }
}

impl Tracer {
    /// Mark what follows as the probe (`true`) or the workload's own
    /// traffic (`false`).
    pub fn set_probe(&mut self, probe: bool) {
        self.probe = probe;
    }

    /// Start the next request: later spans carry its id.
    pub fn next_request(&mut self) {
        self.request += 1;
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Time `f` as a span named `name`, nested under the innermost open
    /// span. Returns `f`'s result and the span's duration in µs.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> (R, f64) {
        let idx = self.spans.len();
        let parent = self.open.last().copied();
        let start = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: 0,
            parent,
            request: self.request,
            lane: 0,
            probe: self.probe,
        });
        self.open.push(idx);
        let out = f(self);
        let end = Instant::now();
        self.open.pop();
        self.spans[idx].end_ns = self.ns(end);
        (out, (end - start).as_secs_f64() * 1e6)
    }

    /// Record a span whose interval was measured elsewhere (a rank
    /// thread's phase, or a call whose name depends on its result),
    /// nested under the innermost open span.
    pub fn record(&mut self, name: &'static str, lane: usize, start: Instant, end: Instant) {
        self.spans.push(Span {
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end).max(self.ns(start)),
            parent: self.open.last().copied(),
            request: self.request,
            lane,
            probe: self.probe,
        });
    }

    /// Record a measured value.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        if value.is_finite() {
            self.samples.push((name, value, self.probe));
        }
    }

    /// Durations (µs) of the spans named `name`: the workload's own
    /// when it made any, otherwise the probe's.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.prefer_traffic(|probe| {
            self.spans
                .iter()
                .filter(|s| s.name == name && s.probe == probe)
                .map(Span::us)
                .collect()
        })
    }

    /// Samples named `name`: the workload's own when it made any,
    /// otherwise the probe's.
    pub fn samples(&self, name: &str) -> Vec<f64> {
        self.prefer_traffic(|probe| {
            self.samples
                .iter()
                .filter(|(n, _, p)| *n == name && *p == probe)
                .map(|(_, v, _)| *v)
                .collect()
        })
    }

    fn prefer_traffic(&self, pick: impl Fn(bool) -> Vec<f64>) -> Vec<f64> {
        let own = pick(false);
        if own.is_empty() {
            pick(true)
        } else {
            own
        }
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether no span was recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Total self time (µs) per span name: each span's duration minus
    /// the part of it that its children cover.
    pub fn self_time_us(&self) -> BTreeMap<&'static str, f64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = union_ns(kids, s.start_ns, s.end_ns);
            *out.entry(s.name).or_insert(0.0) +=
                (s.end_ns - s.start_ns).saturating_sub(covered) as f64 / 1e3;
        }
        out
    }

    /// Chrome trace-event JSON of every span; `meta` (a JSON object) is
    /// stored under `otherData`.
    pub fn chrome_json(&self, meta: &str) -> String {
        let mut out = String::with_capacity(self.spans.len() * 128 + meta.len() + 64);
        out.push_str("{\"displayTimeUnit\":\"ms\",\"otherData\":");
        out.push_str(meta);
        out.push_str(",\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{},\"probe\":{}}}}}",
                s.name,
                s.lane,
                s.start_ns as f64 / 1e3,
                s.us(),
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.request,
                s.probe
            );
        }
        out.push_str("]}");
        out
    }
}

/// Length of the union of `ivs`, clipped to `[lo, hi]`.
fn union_ns(ivs: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    ivs.sort_unstable();
    let (mut total, mut cur) = (0, lo);
    for &(s, e) in ivs.iter() {
        let (s, e) = (s.max(cur), e.min(hi));
        if e > s {
            total += e - s;
            cur = e;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::default();
        t.next_request();
        t.span("outer", |t| {
            std::thread::sleep(Duration::from_millis(2));
            t.span("inner", |_| std::thread::sleep(Duration::from_millis(4)));
        });
        let st = t.self_time_us();
        let outer = t.durations_us("outer")[0];
        let inner = t.durations_us("inner")[0];
        assert!((st["outer"] - (outer - inner)).abs() < 1.0);
        assert!((st["inner"] - inner).abs() < 1e-6);
        let json = t.chrome_json("{}");
        assert!(json.contains("\"name\":\"inner\"") && json.contains("\"parent\":0"));
    }

    #[test]
    fn probe_values_are_a_fallback() {
        let mut t = Tracer::default();
        t.set_probe(true);
        t.sample("x", 1.0);
        t.sample("y", 5.0);
        t.set_probe(false);
        t.sample("x", 2.0);
        assert_eq!(t.samples("x"), vec![2.0]);
        assert_eq!(t.samples("y"), vec![5.0]);
    }
}
