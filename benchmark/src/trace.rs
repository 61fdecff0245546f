//! Reading a merged span timeline: self time per span, grouped into the
//! layers (crates) that emitted them, and the share of a query's wall time
//! during which no span of the program was open on any track.
//!
//! Only spans the program already emits through `QueryOptions::spans` are
//! read; the benchmark's own spans sit on the `bench` track.

use rexa_obs::span::{SpanEvent, SpanKind, SpanTimeline};

/// Category of the benchmark's own spans.
pub const BENCH_CAT: &str = "bench";
/// Name of the benchmark span that covers one query, submit to result.
pub const QUERY_SPAN: &str = "query";

/// The crates whose spans are attributed, in reporting order.
pub const LAYERS: [&str; 4] = ["sql", "service", "core", "buffer"];

/// The layer a span belongs to, from the category and name the emitting
/// crate gave it. `None` for spans that are not work: the benchmark's own,
/// and the coordinator's `phase 1` / `phase 2` lanes, which restate the
/// workers' wall time for orientation.
pub fn layer_of(span: &SpanEvent) -> Option<&'static str> {
    match (span.cat, span.name) {
        ("sql", _) => Some("sql"),
        ("service", _) => Some("service"),
        ("io", _) => Some("buffer"),
        ("compute", "phase 1" | "phase 2") => None,
        ("compute", _) => Some("core"),
        _ => None,
    }
}

fn end(s: &SpanEvent) -> u64 {
    s.start_ns + s.dur_ns
}

/// Total length of the union of `intervals` (each `(start, end)`), clipped
/// to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every duration span: its length minus the part covered by
/// other spans of the same track that lie inside it (its children). Spans
/// that merely overlap a neighbour (batch segments stamped back to back)
/// are not children of each other. Instants carry no time and are skipped.
pub fn self_times(timeline: &SpanTimeline) -> Vec<(&SpanEvent, u64)> {
    let spans: Vec<&SpanEvent> = timeline
        .spans
        .iter()
        .filter(|s| s.kind != SpanKind::Instant)
        .collect();
    spans
        .iter()
        .enumerate()
        .map(|(pi, &parent)| {
            let children = spans
                .iter()
                .enumerate()
                .filter(|&(ci, c)| {
                    ci != pi
                        && c.track == parent.track
                        && c.start_ns >= parent.start_ns
                        && end(c) <= end(parent)
                        // Of two identical intervals the earlier record is
                        // the parent, so neither swallows the other.
                        && (c.dur_ns < parent.dur_ns || ci > pi)
                })
                .map(|(_, c)| (c.start_ns, end(c)))
                .collect();
            let child_cover = covered(children, parent.start_ns, end(parent));
            (parent, parent.dur_ns - child_cover)
        })
        .collect()
}

/// What the spans say about the traced queries of one window.
#[derive(Debug, Default, PartialEq)]
pub struct Attribution {
    /// Summed self time per layer of [`LAYERS`], per traced query, in ms.
    /// Thread time: with two busy workers a layer can exceed the wall time.
    pub layer_self_ms: [f64; LAYERS.len()],
    /// Per traced query, in ms: wall time of the `query` span during which
    /// no program span was open on any track.
    pub unattributed_ms: f64,
    /// Traced queries found.
    pub queries: usize,
}

pub fn attribute(timeline: &SpanTimeline) -> Attribution {
    let queries: Vec<&SpanEvent> = timeline
        .spans
        .iter()
        .filter(|s| s.cat == BENCH_CAT && s.name == QUERY_SPAN)
        .collect();
    let mut out = Attribution {
        queries: queries.len(),
        ..Default::default()
    };
    if queries.is_empty() {
        return out;
    }
    let mut layer_self_ns = [0u64; LAYERS.len()];
    for (span, self_ns) in self_times(timeline) {
        if let Some(layer) = layer_of(span) {
            let i = LAYERS
                .iter()
                .position(|l| *l == layer)
                .expect("known layer");
            layer_self_ns[i] += self_ns;
        }
    }
    let program: Vec<(u64, u64)> = timeline
        .spans
        .iter()
        .filter(|s| s.kind != SpanKind::Instant && layer_of(s).is_some())
        .map(|s| (s.start_ns, end(s)))
        .collect();
    let unattributed_ns: u64 = queries
        .iter()
        .map(|q| q.dur_ns - covered(program.clone(), q.start_ns, end(q)))
        .sum();
    let n = queries.len() as f64;
    out.unattributed_ms = unattributed_ns as f64 / 1e6 / n;
    out.layer_self_ms = layer_self_ns.map(|ns| ns as f64 / 1e6 / n);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rexa_obs::span::NO_ARGS;

    fn span(track: u32, name: &'static str, cat: &'static str, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            track,
            name,
            cat,
            kind: SpanKind::Complete,
            start_ns: start,
            dur_ns: dur,
            args: NO_ARGS,
        }
    }

    fn timeline(spans: Vec<SpanEvent>) -> SpanTimeline {
        SpanTimeline {
            tracks: vec!["bench".into(), "worker 0".into(), "worker 1".into()],
            spans,
            dropped: 0,
        }
    }

    fn self_of(t: &SpanTimeline, name: &str) -> Vec<u64> {
        self_times(t)
            .into_iter()
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns)
            .collect()
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // probe [0,100) holds morsel [10,40) and morsel [40,90); the second
        // morsel holds run_sort [50,60).
        let t = timeline(vec![
            span(1, "probe", "compute", 0, 100),
            span(1, "morsel", "compute", 10, 30),
            span(1, "morsel", "compute", 40, 50),
            span(1, "run_sort", "compute", 50, 10),
        ]);
        assert_eq!(self_of(&t, "probe"), vec![20]);
        assert_eq!(self_of(&t, "morsel"), vec![30, 40]);
        assert_eq!(self_of(&t, "run_sort"), vec![10]);
    }

    #[test]
    fn overlapping_siblings_and_other_tracks_are_not_children() {
        // Two spans of one track overlap without nesting; a span of another
        // track lies inside both. Neither is subtracted from the other.
        let t = timeline(vec![
            span(1, "flush", "compute", 0, 60),
            span(1, "merge", "compute", 40, 60),
            span(2, "probe", "compute", 45, 10),
        ]);
        assert_eq!(self_of(&t, "flush"), vec![60]);
        assert_eq!(self_of(&t, "merge"), vec![60]);
        assert_eq!(self_of(&t, "probe"), vec![10]);
    }

    #[test]
    fn identical_intervals_count_once() {
        let t = timeline(vec![
            span(1, "plan", "sql", 0, 50),
            span(1, "bind", "sql", 0, 50),
        ]);
        let total: u64 = self_times(&t).iter().map(|(_, ns)| ns).sum();
        assert_eq!(total, 50);
    }

    #[test]
    fn attribution_groups_layers_and_finds_the_uncovered_wall() {
        // One query [0,1000): sql plan [0,100) with bind [20,80); queue wait
        // [100,150); two workers probe [200,600) and [250,700); a
        // coordinator lane over the same time is not work. Covered wall:
        // [0,150) + [200,700) = 650, so 350 is unattributed.
        let t = timeline(vec![
            span(0, QUERY_SPAN, BENCH_CAT, 0, 1000),
            span(0, "plan", "sql", 0, 100),
            span(0, "bind", "sql", 20, 60),
            span(0, "queue_wait", "service", 100, 50),
            span(1, "probe", "compute", 200, 400),
            span(2, "probe", "compute", 250, 450),
            span(1, "phase 1", "compute", 200, 500),
            span(2, "drain_io", "io", 700, 0),
        ]);
        let a = attribute(&t);
        assert_eq!(a.queries, 1);
        let ms = |ns: f64| ns / 1e6;
        assert_eq!(a.layer_self_ms[0], ms(100.0)); // sql: plan 40 + bind 60
        assert_eq!(a.layer_self_ms[1], ms(50.0)); // service
        assert_eq!(a.layer_self_ms[2], ms(850.0)); // core: both probes
        assert_eq!(a.layer_self_ms[3], 0.0); // buffer: drain_io took no time
        assert_eq!(a.unattributed_ms, ms(350.0));
    }
}
