//! In-memory spans recorded by the benchmark around each timed call into
//! the program. The program itself is not instrumented.
//!
//! A span has a name (the per-layer metric it feeds), an optional label
//! (the program it concerns), start and end offsets from a shared epoch,
//! its parent span, and the round or batch it belongs to. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// Metric name, such as `core.pipeline`.
    pub name: &'static str,
    /// Program name, or empty.
    pub label: &'static str,
    /// Nanoseconds from the epoch to the start.
    pub start_ns: u64,
    /// Nanoseconds from the epoch to the end.
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Round (compile) or batch (serve) id.
    pub group: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun and not yet ended.
#[derive(Debug)]
#[must_use = "an opened span must be ended"]
pub struct Open {
    index: Option<usize>,
    start: Instant,
}

/// Records spans when enabled; when disabled only measures the durations
/// the end-to-end metrics need.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

fn offset_ns(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.saturating_duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

impl Tracer {
    /// A tracer whose offsets count from `epoch`.
    pub fn new(enabled: bool, epoch: Instant) -> Self {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer for another thread, sharing this one's epoch and state;
    /// fold it back in with [`Tracer::absorb`].
    pub fn fork(&self) -> Tracer {
        Tracer::new(self.enabled, self.epoch)
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Turns recording on or off for the spans begun from now on.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Begins a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, label: &'static str, group: u64) -> Open {
        let start = Instant::now();
        let index = self.enabled.then(|| {
            self.spans.push(Span {
                name,
                label,
                start_ns: offset_ns(self.epoch, start),
                end_ns: 0,
                parent: self.open.last().copied(),
                group,
            });
            let i = self.spans.len() - 1;
            self.open.push(i);
            i
        });
        Open { index, start }
    }

    /// Ends `open` and returns its duration.
    ///
    /// # Panics
    ///
    /// Panics if `open` is not the innermost open span.
    pub fn end(&mut self, open: Open) -> Duration {
        let end = Instant::now();
        if let Some(i) = open.index {
            assert_eq!(self.open.pop(), Some(i), "spans must end innermost first");
            self.spans[i].end_ns = offset_ns(self.epoch, end);
        }
        end.saturating_duration_since(open.start)
    }

    /// Runs `f` inside a span and returns its result with its duration.
    pub fn call<R>(
        &mut self,
        name: &'static str,
        label: &'static str,
        group: u64,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let open = self.begin(name, label, group);
        let r = f();
        (r, self.end(open))
    }

    /// Moves the spans of `other` (same epoch, all ended) into this
    /// tracer, hanging its top-level spans under the innermost open span.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base).or(parent);
            s
        }));
    }

    /// Each span's self time: its duration minus the part its direct
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Self time summed per `(name, label, group)`.
    pub fn self_totals(&self) -> BTreeMap<(&'static str, &'static str, u64), u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry((s.name, s.label, s.group)).or_insert(0) += own;
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"label\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"group\":{}}}",
                s.name, s.label, s.start_ns, s.end_ns, s.group
            )
            .expect("writing to a String cannot fail");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_but_times() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, d) = t.call("x", "", 0, || 7);
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("outer", "", 1);
        let _ = t.call("inner", "p", 1, || {
            std::thread::sleep(Duration::from_millis(2))
        });
        t.end(outer);
        let own = t.self_ns();
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(own[0] + own[1], t.spans()[0].ns());
        assert_eq!(own[1], t.spans()[1].ns());
    }

    #[test]
    fn absorbed_spans_hang_under_the_open_span() {
        let epoch = Instant::now();
        let mut main = Tracer::new(true, epoch);
        let outer = main.begin("outer", "", 0);
        let mut worker = Tracer::new(true, epoch);
        let a = worker.begin("a", "", 0);
        let _ = worker.call("b", "", 0, || ());
        worker.end(a);
        main.absorb(worker);
        main.end(outer);
        let parents: Vec<_> = main.spans().iter().map(|s| s.parent).collect();
        assert_eq!(parents, vec![None, Some(0), Some(1)]);
    }
}
