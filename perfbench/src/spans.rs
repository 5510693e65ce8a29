//! In-memory spans recorded around the benchmark's own calls into the
//! library crates, with self-time attribution and a Chrome trace export.
//!
//! Recording takes one mutex push per span; spans wrap calls that take
//! tens of microseconds or more, so the cost stays small, and
//! `trace.overhead_frac` reports it.

use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `lightridge.forward`.
    pub name: &'static str,
    /// Thread lane (0 = the calling thread, `w + 1` = shard worker `w`).
    pub tid: usize,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder shared by every thread of one measurement.
pub struct Spans {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Spans {
    fn default() -> Self {
        Self::new()
    }
}

impl Spans {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::with_capacity(4096)),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span and returns its id; close it with [`Spans::close`].
    pub fn open(&self, name: &'static str, tid: usize, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name,
            tid,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&self, id: usize) {
        let end = self.now_ns();
        self.spans.lock().expect("span recorder poisoned")[id].end_ns = end;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        tid: usize,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, tid, parent);
        let out = f();
        self.close(id);
        out
    }

    /// A copy of every span recorded so far.
    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Chrome trace-event JSON of the recorded spans (`pid` 0, `tid` =
    /// thread lane), loadable in Perfetto.
    pub fn chrome_json(&self) -> String {
        let spans = self.snapshot();
        let mut json = String::from("{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
        for (i, s) in spans.iter().enumerate() {
            let _ = write!(
                json,
                "{{\"name\":\"{}\",\"cat\":\"bench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":0,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                s.tid,
                s.parent.map_or(-1, |p| p as i64),
            );
            json.push_str(if i + 1 < spans.len() { ",\n" } else { "\n" });
        }
        json.push_str("]}\n");
        json
    }
}

/// Opens a span on `rec` when recording; `None` otherwise.
pub fn open(
    rec: Option<&Spans>,
    name: &'static str,
    tid: usize,
    parent: Option<usize>,
) -> Option<usize> {
    rec.map(|r| r.open(name, tid, parent))
}

/// Closes a span opened with [`open`] (no-op when not recording).
pub fn close(rec: Option<&Spans>, id: Option<usize>) {
    if let (Some(r), Some(id)) = (rec, id) {
        r.close(id);
    }
}

/// Total duration of every span named `name`, in ms.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns() as f64 / 1e6)
        .sum()
}

/// Self time of every span, in ns: its duration minus the part of its
/// interval covered by its children (children on other threads may
/// overlap each other; their union is what is subtracted).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for (a, b) in kids {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Total self time of spans named `name`, in ms.
pub fn self_ms(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &t)| t as f64 / 1e6)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, a: u64, b: u64) -> Span {
        Span {
            name,
            tid: 0,
            parent,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_union_of_children() {
        let spans = vec![
            span("step", None, 0, 100),
            span("shard", Some(0), 10, 60),
            span("shard", Some(0), 20, 70),
            span("adam", Some(0), 80, 90),
            span("fwd", Some(1), 10, 40),
        ];
        let selfs = self_times_ns(&spans);
        // step: 100 − (union [10,70] = 60) − 10 = 30.
        assert_eq!(selfs, vec![30, 20, 50, 10, 30]);
        assert!((self_ms(&spans, &selfs, "shard") - 70e-6).abs() < 1e-12);
        assert!((total_ms(&spans, "shard") - 100e-6).abs() < 1e-12);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let rec = Spans::new();
        let outer = rec.open("outer", 0, None);
        let v = rec.time("inner", 1, Some(outer), || 7);
        rec.close(outer);
        assert_eq!(v, 7);
        let spans = rec.snapshot();
        assert_eq!(spans.len(), 2);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
        let json = rec.chrome_json();
        assert!(json.contains("\"name\":\"inner\""));
        assert!(json.contains("\"parent\":0"));
        assert!(json.trim_end().ends_with("]}"));
    }
}
