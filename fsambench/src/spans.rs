//! In-memory spans recorded by the traced run around layer calls.
//!
//! A span has a name, start, end, parent and the id of the operation it
//! belongs to. Spans are kept in memory and written out as JSON lines
//! when the run ends.

use std::time::{Duration, Instant};

use fsam_trace::json::Value;

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    /// Span id (its index in the recorder).
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Operation the span belongs to.
    pub op: u64,
    /// Layer or grouping name.
    pub name: &'static str,
    /// Start, from the recorder's origin.
    pub start: Duration,
    /// End, from the recorder's origin.
    pub end: Duration,
}

impl Span {
    /// Wall time covered by the span.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

/// Records nested spans on one thread.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    op: u64,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }
}

impl Spans {
    /// Sets the operation id of spans opened from now on.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under the innermost open one and returns its id.
    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.origin.elapsed();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start: now,
            end: now,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one, and
    /// returns its duration.
    pub fn exit(&mut self, id: usize) -> Duration {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end = self.origin.elapsed();
        self.spans[id].duration()
    }

    /// Every span recorded so far.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span, indexed by id: its duration minus the
    /// part its child spans cover. Spans nest properly on one thread, so
    /// children never overlap and their durations add up.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.duration();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| s.duration().saturating_sub(c))
            .collect()
    }

    /// The spans as JSON lines (times in microseconds).
    pub fn to_jsonl(&self) -> String {
        let us = |d: Duration| Value::Num(d.as_secs_f64() * 1e6);
        let self_times = self.self_times();
        let mut out = String::new();
        for s in &self.spans {
            let line = Value::Obj(vec![
                ("id".into(), Value::Num(s.id as f64)),
                (
                    "parent".into(),
                    s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                ),
                ("op".into(), Value::Num(s.op as f64)),
                ("name".into(), Value::Str(s.name.into())),
                ("start_us".into(), us(s.start)),
                ("end_us".into(), us(s.end)),
                ("self_us".into(), us(self_times[s.id])),
            ]);
            line.write_to(&mut out);
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::default();
        let outer = s.enter("outer");
        let a = s.enter("a");
        std::thread::sleep(Duration::from_millis(2));
        s.exit(a);
        let b = s.enter("b");
        std::thread::sleep(Duration::from_millis(2));
        s.exit(b);
        let total = s.exit(outer);
        let own = s.self_times()[outer];
        assert!(own < total);
        assert_eq!(own + s.all()[a].duration() + s.all()[b].duration(), total);
        assert_eq!(s.all()[b].parent, Some(outer));
        let lines: Vec<String> = s.to_jsonl().lines().map(String::from).collect();
        assert_eq!(lines.len(), 3);
        let first = fsam_trace::json::parse(&lines[0]).unwrap();
        assert_eq!(first.get("parent"), Some(&Value::Null));
        assert_eq!(first.get("name").and_then(Value::as_str), Some("outer"));
    }
}
