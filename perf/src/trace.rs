//! Spans around the calls the benchmark makes into each layer.
//!
//! Spans live in memory until the run ends, then go out as JSON lines;
//! `rover-perf report` reads them back and prints self time per layer.
//! A span's layer is the part of its name before the first `.`.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// A literal while recording; owned once read back from a file.
    pub name: Cow<'static, str>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one operation share an identifier (0 = not per-op).
    pub op_id: u64,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    /// With tracing off this is a plain call.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        op_id: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns: self.ns(Instant::now()),
            end_ns: 0,
            parent: self.stack.last().copied(),
            op_id,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (a client thread), as a child
    /// of the span currently open on this thread.
    pub fn record(&mut self, name: &'static str, op_id: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name: Cow::Borrowed(name),
            start_ns,
            end_ns,
            parent: self.stack.last().copied(),
            op_id,
        });
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::Num(p as f64));
            let line = Json::obj([
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("parent", parent),
                ("op_id", Json::Num(s.op_id as f64)),
            ]);
            out.push_str(&line.to_string());
            out.push('\n');
        }
        out
    }
}

pub fn parse_json_lines(text: &str) -> Result<Vec<Span>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, line)| {
            let j = Json::parse(line).map_err(|e| format!("trace line {}: {e}", i + 1))?;
            let num = |k: &str| {
                j.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("trace line {}: missing {k}", i + 1))
            };
            Ok(Span {
                name: j
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or_else(|| format!("trace line {}: missing name", i + 1))?
                    .to_owned()
                    .into(),
                start_ns: num("start_ns")? as u64,
                end_ns: num("end_ns")? as u64,
                parent: j.get("parent").and_then(Json::as_f64).map(|p| p as usize),
                op_id: num("op_id")? as u64,
            })
        })
        .collect()
}

/// Self time of every span: its duration minus the part of that
/// interval its direct children cover (overlapping children, such as
/// two concurrent client threads, are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.filter(|&p| p < spans.len()) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = 0u64;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// One row of the self-time table.
#[derive(Debug, Clone, PartialEq)]
pub struct SelfRow {
    pub name: String,
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Self time summed per span name and per layer (name prefix).
pub fn self_time_table(spans: &[Span]) -> (Vec<SelfRow>, Vec<SelfRow>) {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<String, SelfRow> = BTreeMap::new();
    let mut by_layer: BTreeMap<String, SelfRow> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_owned();
        for (map, key) in [(&mut by_name, s.name.to_string()), (&mut by_layer, layer)] {
            let row = map.entry(key.clone()).or_insert(SelfRow {
                name: key,
                count: 0,
                total_ns: 0,
                self_ns: 0,
            });
            row.count += 1;
            row.total_ns += s.end_ns - s.start_ns;
            row.self_ns += self_ns;
        }
    }
    (
        by_layer.into_values().collect(),
        by_name.into_values().collect(),
    )
}

pub fn render_table(spans: &[Span]) -> String {
    let (layers, names) = self_time_table(spans);
    let mut out = String::new();
    for (title, rows) in [("layer", &layers), ("span", &names)] {
        out.push_str(&format!(
            "{title:<28} {:>9} {:>14} {:>14}\n",
            "count", "total_ms", "self_ms"
        ));
        for r in rows {
            out.push_str(&format!(
                "{:<28} {:>9} {:>14.3} {:>14.3}\n",
                r.name,
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6
            ));
        }
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.into(),
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = vec![
            span("cluster.slice", 0, 100, None),
            span("wire.encode", 10, 30, Some(0)), // adjacent to the next
            span("log.append", 30, 60, Some(0)),
            span("log.flush", 40, 50, Some(2)), // nested one deeper
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        let spans = vec![
            span("cluster.slice", 0, 100, None),
            span("cluster.client", 10, 70, Some(0)),
            span("cluster.client", 40, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn layers_sum_the_self_time_of_their_spans() {
        let spans = vec![
            span("cluster.slice", 0, 100, None),
            span("wire.encode", 0, 25, Some(0)),
            span("wire.decode", 50, 75, Some(0)),
        ];
        let (layers, names) = self_time_table(&spans);
        let wire = layers.iter().find(|r| r.name == "wire").unwrap();
        assert_eq!((wire.count, wire.self_ns), (2, 50));
        assert_eq!(layers.iter().map(|r| r.self_ns).sum::<u64>(), 100);
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn spans_survive_the_json_lines_round_trip() {
        let mut t = Tracer::new(true);
        t.span("cluster.boot", 0, |t| {
            t.span("log.flush", 7, |_| {});
        });
        let back = parse_json_lines(&t.to_json_lines()).unwrap();
        assert_eq!(back, t.spans());
        assert_eq!(back[1].parent, Some(0));
        assert_eq!(back[1].op_id, 7);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("wire.encode", 1, |_| 5), 5);
        assert!(t.spans().is_empty());
    }
}
