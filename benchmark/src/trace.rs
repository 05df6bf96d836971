//! The in-memory span log of a traced run.
//!
//! The benchmark opens a span around every call it makes into the program:
//! a name (`layer.call`), start, end, the span that caused it, and the id of
//! the op it belongs to. Nothing inside the program is instrumented, so a
//! child span exists only where the public API reports a phase (the `bind`
//! and `run` durations of `RunStats`) or where the benchmark repeats a call
//! directly (shadow decomposition of a service read). The log is written to
//! `out/trace-<workload>.json` when the run ends.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub op: u64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
}

impl SpanLog {
    /// Logs of concurrent sessions share one `origin`, so their spans merge
    /// onto one time axis.
    pub fn new(origin: Instant) -> Self {
        SpanLog { origin, spans: Vec::new() }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, op });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// A child rebuilt from a duration the program reported: it is laid at
    /// `start_ns`, clipped to its parent.
    pub fn child(
        &mut self,
        name: &'static str,
        parent: SpanId,
        start_ns: u64,
        dur_ns: u64,
    ) -> SpanId {
        let (p_start, p_end, op) = {
            let p = &self.spans[parent];
            (p.start_ns, p.end_ns, p.op)
        };
        let start = start_ns.clamp(p_start, p_end);
        let end = (start + dur_ns).min(p_end);
        self.spans.push(Span { name, start_ns: start, end_ns: end, parent: Some(parent), op });
        self.spans.len() - 1
    }

    pub fn span(&self, id: SpanId) -> &Span {
        &self.spans[id]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Appends another session's log, re-basing its parent links.
    pub fn absorb(&mut self, other: SpanLog) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Self time of every span: its duration minus the part of that interval
    /// its child spans cover (overlapping children are counted once).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(p) = span.parent {
                let parent = &self.spans[p];
                let start = span.start_ns.clamp(parent.start_ns, parent.end_ns);
                let end = span.end_ns.clamp(parent.start_ns, parent.end_ns);
                if end > start {
                    children[p].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(&mut children)
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let from = start.max(reach);
                    if end > from {
                        covered += end - from;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Total self time (ns) and call count per span name.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_ns()) {
            let entry = out.entry(span.name).or_default();
            entry.0 += self_ns;
            entry.1 += 1;
        }
        out
    }

    pub fn to_json(&self) -> Json {
        let self_ns = self.self_ns();
        Json::Arr(
            self.spans
                .iter()
                .zip(self_ns)
                .enumerate()
                .map(|(id, (s, own))| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("op", Json::Num(s.op as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(own as f64)),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn log_with(spans: Vec<Span>) -> SpanLog {
        SpanLog { origin: Instant::now(), spans }
    }

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span { name, start_ns, end_ns, parent, op: 0 }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let log = log_with(vec![
            span("core.count", 0, 100, None),
            span("lftj.bind", 10, 20, Some(0)),
            span("lftj.run", 20, 90, Some(0)),
            span("storage.seek", 30, 50, Some(2)),
        ]);
        assert_eq!(log.self_ns(), vec![20, 10, 50, 20]);
        let by_name = log.self_by_name();
        assert_eq!(by_name["lftj.run"], (50, 1));
        assert_eq!(by_name["core.count"], (20, 1));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let log = log_with(vec![
            span("root", 100, 200, None),
            span("a", 110, 150, Some(0)),
            span("b", 140, 170, Some(0)), // overlaps a by 10
            span("c", 190, 260, Some(0)), // overhangs the parent by 60
            span("d", 120, 130, Some(0)), // inside a
        ]);
        // Cover: [110, 170) and [190, 200) = 70.
        assert_eq!(log.self_ns()[0], 30);
    }

    #[test]
    fn reported_children_are_clipped_and_absorb_rebases_parents() {
        let mut log = log_with(vec![span("root", 0, 100, None)]);
        let kid = log.child("run", 0, 90, 50);
        assert_eq!((log.span(kid).start_ns, log.span(kid).end_ns), (90, 100));
        let other = log_with(vec![span("root2", 5, 15, None), span("kid2", 6, 10, Some(0))]);
        log.absorb(other);
        assert_eq!(log.len(), 4);
        assert_eq!(log.span(3).parent, Some(2));
        assert_eq!(log.self_ns(), vec![90, 10, 6, 4]);
    }
}
