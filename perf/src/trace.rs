//! In-memory spans around the calls into each engine layer.
//!
//! Spans are recorded from the benchmark's side only (spans inside the
//! engine are a later change), kept in memory and written out once, when
//! the run ends. What the engine itself reports about the inside of a call
//! — primitive time by family — is attached to the call's span as child
//! *totals*: they have a length but no position in time.

use std::io::Write;
use std::time::Instant;

/// One call into a layer. Spans of one query execution share `(round,
/// pass, query)`.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub round: u32,
    pub pass: u32,
    /// Query number, 0 for spans that cover a whole pass.
    pub query: u8,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Engine-reported time inside this span, by name.
    pub totals: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The span store of one run.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::end`].
    pub fn begin(
        &mut self,
        parent: Option<u32>,
        name: &'static str,
        round: u32,
        pass: u32,
        query: u8,
    ) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            round,
            pass,
            query,
            start_ns: now,
            end_ns: now,
            totals: Vec::new(),
        });
        id
    }

    /// Closes span `id` and returns its duration.
    pub fn end(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.duration_ns()
    }

    pub fn attach_totals(&mut self, id: u32, totals: Vec<(&'static str, u64)>) {
        self.spans[id as usize].totals = totals;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span, with its derived self time, as one JSON document.
    pub fn write_json(&self, path: &std::path::Path) -> std::io::Result<()> {
        let selfs = self_times(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"schema\": \"perf-trace/v1\", \"spans\": [")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let totals: Vec<String> = s
                .totals
                .iter()
                .map(|(name, ns)| format!("\"{name}\": {ns}"))
                .collect();
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"name\": \"{}\", \"round\": {}, \
                 \"pass\": {}, \"query\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"self_ns\": {}, \"totals_ns\": {{{}}}}}{comma}",
                s.id,
                s.name,
                s.round,
                s.pass,
                s.query,
                s.start_ns,
                s.end_ns,
                selfs[i],
                totals.join(", ")
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

/// Self time per span, index-aligned with `spans`: a span's duration minus
/// the part of its interval that its child spans cover (overlapping
/// children count once) and minus its child totals. Totals summed over several worker threads can exceed the
/// wall-clock interval; self time then stops at zero.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            let totals: u64 = s.totals.iter().map(|(_, ns)| ns).sum();
            s.duration_ns()
                .saturating_sub(covered)
                .saturating_sub(totals)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: "t",
            round: 0,
            pass: 0,
            query: 0,
            start_ns,
            end_ns,
            totals: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_covered_children_and_totals() {
        let mut spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1 on [20, 30): that part counts once.
            span(2, Some(0), 20, 50),
            // Reaches past the parent: only [90, 100) is covered.
            span(3, Some(0), 90, 120),
            span(4, Some(2), 25, 30),
        ];
        spans[2].totals = vec![("prim.sel", 7), ("prim.map", 3)];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 40 - 10);
        assert_eq!(selfs[1], 20);
        assert_eq!(selfs[2], 30 - 5 - 10);
        assert_eq!(selfs[3], 30);
        assert_eq!(selfs[4], 5);
    }

    #[test]
    fn totals_beyond_the_interval_stop_self_time_at_zero() {
        let mut spans = vec![span(0, None, 0, 10)];
        spans[0].totals = vec![("prim.sel", 25)];
        assert_eq!(self_times(&spans), vec![0]);
    }

    #[test]
    fn tracer_nests_and_measures() {
        let mut t = Tracer::new();
        let outer = t.begin(None, "pass", 1, 0, 0);
        let inner = t.begin(Some(outer), "exec.run", 1, 0, 6);
        let d_inner = t.end(inner);
        let d_outer = t.end(outer);
        assert!(d_outer >= d_inner);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].query, 6);
        let selfs = self_times(t.spans());
        assert_eq!(selfs[0], d_outer - d_inner);
    }
}
