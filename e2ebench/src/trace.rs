//! In-memory spans for the traced run, written out once when it ends.

use fastt_telemetry::Value;
use std::path::Path;
use std::time::Instant;

/// One timed call: which unit of the workload it served (spans of one
/// unit share it), what was called, and when, in seconds since the run
/// started.
struct Span {
    unit: String,
    name: String,
    start_s: f64,
    end_s: f64,
}

/// Collects spans when enabled; a disabled tracer records nothing, so the
/// untraced run pays only the two `Instant::now()` calls it makes anyway.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            origin: Instant::now(),
            enabled,
            spans: Vec::new(),
        }
    }

    /// Records a finished call of `unit` named `name`.
    pub fn record(&mut self, unit: &str, name: &str, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        self.spans.push(Span {
            unit: unit.to_string(),
            name: name.to_string(),
            start_s: (start - self.origin).as_secs_f64(),
            end_s: (end - self.origin).as_secs_f64(),
        });
    }

    /// Times `f` as a span of `unit`, returning its result and duration.
    pub fn time<R>(&mut self, unit: &str, name: &str, f: impl FnOnce() -> R) -> (R, f64) {
        let t0 = Instant::now();
        let r = std::hint::black_box(f());
        let t1 = Instant::now();
        self.record(unit, name, t0, t1);
        (r, (t1 - t0).as_secs_f64())
    }

    /// The span that caused span `i`: the shortest other span of the same
    /// unit whose interval contains it.
    fn parent(&self, i: usize) -> Option<usize> {
        let s = &self.spans[i];
        (0..self.spans.len())
            .filter(|&j| j != i)
            .filter(|&j| {
                let p = &self.spans[j];
                p.unit == s.unit && p.start_s <= s.start_s && s.end_s <= p.end_s
            })
            .min_by(|&a, &b| {
                let len = |k: usize| self.spans[k].end_s - self.spans[k].start_s;
                len(a).total_cmp(&len(b))
            })
    }

    /// Writes the spans and the program's profile tree as one JSON file.
    pub fn write(&self, path: &Path, profile: Value) -> std::io::Result<()> {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Value::obj([
                    ("id", Value::from(i as u64)),
                    ("unit", Value::from(s.unit.as_str())),
                    ("name", Value::from(s.name.as_str())),
                    ("start_s", Value::from(s.start_s)),
                    ("end_s", Value::from(s.end_s)),
                    (
                        "parent",
                        self.parent(i)
                            .map_or(Value::Null, |p| Value::from(p as u64)),
                    ),
                ])
            })
            .collect();
        let doc = Value::obj([("spans", Value::Arr(spans)), ("profile", profile)]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, format!("{doc}\n"))
    }
}
