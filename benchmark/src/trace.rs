//! Spans recorded by the benchmark around its calls into the engine.
//!
//! Every call is timed whether or not tracing is on — the end-to-end
//! numbers come from those durations — and a span is kept only while
//! `on`. Spans stay in memory and are written out when the workload ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    /// 0 for a top-level span (one request).
    pub parent: u32,
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    pub on: bool,
    epoch: Instant,
    pub spans: Vec<Span>,
    /// Ids of the spans currently open, outermost first.
    open: Vec<u32>,
    request: u32,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer {
            on: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }
}

impl Tracer {
    /// Run `f`, return its result and duration in ns; a top-level call
    /// starts a new request. `f` gets the tracer back for nested calls.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        if !self.on {
            let t = Instant::now();
            let out = f(self);
            return (out, t.elapsed().as_nanos() as u64);
        }
        if self.open.is_empty() {
            self.request += 1;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.open.last().copied().unwrap_or(0);
        self.open.push(id);
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            request: self.request,
            name,
            start_ns,
            end_ns: start_ns,
        });
        let out = f(self);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        self.open.pop();
        self.spans[id as usize - 1].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    pub fn write_jsonl(&self, mut w: impl Write) -> io::Result<()> {
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id, s.parent, s.request, s.name, s.start_ns, s.end_ns
            )?;
        }
        Ok(())
    }
}

/// Durations by span name, in recording order.
pub fn durations(spans: &[Span]) -> BTreeMap<&'static str, Vec<u64>> {
    let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for s in spans {
        by_name.entry(s.name).or_default().push(s.dur_ns());
    }
    by_name
}

/// Total self time by span name: a span's duration minus its direct
/// children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut child_ns = vec![0u64; spans.len() + 1];
    for s in spans {
        child_ns[s.parent as usize] += s.dur_ns();
    }
    let mut by_name: BTreeMap<&'static str, u64> = BTreeMap::new();
    for s in spans {
        *by_name.entry(s.name).or_default() += s.dur_ns().saturating_sub(child_ns[s.id as usize]);
    }
    by_name
}

/// Sum of the top-level spans' durations.
pub fn top_level_ns(spans: &[Span]) -> u64 {
    spans
        .iter()
        .filter(|s| s.parent == 0)
        .map(Span::dur_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span(1, 0, "group", 0, 100),
            span(2, 1, "append", 10, 40),
            span(3, 1, "flush", 40, 90),
            span(4, 3, "seal", 50, 80),
        ];
        let own = self_times(&spans);
        assert_eq!(own["group"], 100 - 30 - 50);
        assert_eq!(own["append"], 30);
        assert_eq!(own["flush"], 50 - 30);
        assert_eq!(own["seal"], 30);
        assert_eq!(top_level_ns(&spans), 100);
        assert_eq!(
            own.values().sum::<u64>(),
            100,
            "self times add up to the top-level time"
        );
    }

    #[test]
    fn records_nesting_and_requests_only_while_on() {
        let mut tr = Tracer::default();
        let (v, _) = tr.time("quiet", |_| 7);
        assert_eq!(v, 7);
        assert!(tr.spans.is_empty());

        tr.on = true;
        tr.time("a", |tr| {
            tr.time("a.child", |_| ());
        });
        tr.time("b", |_| ());
        let shape: Vec<_> = tr
            .spans
            .iter()
            .map(|s| (s.id, s.parent, s.request, s.name))
            .collect();
        assert_eq!(
            shape,
            [(1, 0, 1, "a"), (2, 1, 1, "a.child"), (3, 0, 2, "b")]
        );
        assert!(tr.spans.iter().all(|s| s.end_ns >= s.start_ns));
        let parent = &tr.spans[0];
        let child = &tr.spans[1];
        assert!(parent.start_ns <= child.start_ns && child.end_ns <= parent.end_ns);

        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        for line in text.lines() {
            crate::json::Json::parse(line).unwrap();
        }
    }
}
