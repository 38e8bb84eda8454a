//! In-memory span recorder for the outside-in pipeline trace.
//!
//! A span is one call into a layer: name, start, end, the span that
//! caused it and the request's correlation id. Spans are kept in memory
//! and written out when the run ends. A layer's *self time* is its span's
//! duration minus the part its direct children cover.

use crate::json::{obj, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `core.probe.observe`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns (0 while open).
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Request correlation id (0 for work no single request caused).
    pub correlation: u64,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(Option<u32>);

/// Records spans, or nothing at all when disabled (the untraced twin run
/// that `trace.overhead_share` is measured against).
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    /// A tracer; `enabled = false` makes every call a no-op.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, correlation: u64) -> SpanId {
        if !self.enabled {
            return SpanId(None);
        }
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let parent = self.open.last().copied();
        self.open.push(id);
        // Read the clock last so bookkeeping stays outside the span.
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            correlation,
        });
        SpanId(Some(id))
    }

    /// Closes a span. Spans close innermost-first.
    pub fn exit(&mut self, id: SpanId) {
        let Some(id) = id.0 else { return };
        let end_ns = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost-first");
        self.spans[id as usize].end_ns = end_ns;
    }

    /// All spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The recorded spans, by value.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Nanoseconds one recorded span costs on this host: the fastest of five
/// batches of empty spans. `trace.overhead_share` is this × the spans a
/// traced run recorded ÷ its wall time — the difference between a traced
/// and an untraced run cannot resolve a ~1 % cost on a host whose runs
/// spread ±10 %.
pub fn calibrate_span_ns() -> f64 {
    const BATCH: u32 = 50_000;
    (0..5)
        .map(|_| {
            let mut t = Tracer::new(true);
            t.spans.reserve(BATCH as usize);
            let start = Instant::now();
            for i in 0..BATCH {
                let id = t.enter("calibrate", u64::from(i));
                t.exit(id);
            }
            let ns = start.elapsed().as_nanos();
            std::hint::black_box(t.spans().len());
            #[allow(clippy::cast_precision_loss)]
            let per = ns as f64 / f64::from(BATCH);
            per
        })
        .fold(f64::INFINITY, f64::min)
}

/// Runs `$body` inside a span; the value of `$body` is the value of the
/// expression.
#[macro_export]
macro_rules! span {
    ($tracer:expr, $name:expr, $corr:expr, $body:expr) => {{
        let __id = $tracer.enter($name, $corr);
        let __out = $body;
        $tracer.exit(__id);
        __out
    }};
}

/// Per-name totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub calls: u64,
    /// Σ self time, ns.
    pub self_ns: u64,
}

/// Self time of every span: duration minus its direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans
        .iter()
        .map(|s| s.end_ns.saturating_sub(s.start_ns))
        .collect();
    for s in spans {
        if let Some(p) = s.parent {
            let child = s.end_ns.saturating_sub(s.start_ns);
            own[p as usize] = own[p as usize].saturating_sub(child);
        }
    }
    own
}

/// Calls and Σ self time per span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.self_ns += own;
    }
    out
}

/// Spans written to a trace file at most; the rest are counted, not
/// listed (a 100 000-request bypass run would otherwise write ~50 MB).
pub const MAX_SPANS_WRITTEN: usize = 100_000;

/// The trace-file form: a name table plus one `[name, start_ns, end_ns,
/// parent, correlation]` row per span (`parent` is −1 at the root).
pub fn to_json(spans: &[Span]) -> Value {
    let mut names: Vec<&'static str> = Vec::new();
    let rows: Vec<Value> = spans
        .iter()
        .take(MAX_SPANS_WRITTEN)
        .map(|s| {
            let name = names.iter().position(|n| *n == s.name).unwrap_or_else(|| {
                names.push(s.name);
                names.len() - 1
            });
            Value::Arr(vec![
                name.into(),
                s.start_ns.into(),
                s.end_ns.into(),
                s.parent.map_or(Value::Num(-1.0), |p| u64::from(p).into()),
                s.correlation.into(),
            ])
        })
        .collect();
    obj([
        (
            "columns",
            vec!["name", "start_ns", "end_ns", "parent", "correlation"].into(),
        ),
        ("names", names.into()),
        ("total_spans", spans.len().into()),
        ("truncated", (spans.len() > MAX_SPANS_WRITTEN).into()),
        ("spans", Value::Arr(rows)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            correlation: 0,
        }
    }

    #[test]
    fn self_time_is_parent_minus_direct_children_nested() {
        // request [0,100] ⊃ store [10,60] ⊃ sign [20,50]
        let spans = [
            s("request", 0, 100, None),
            s("store", 10, 60, Some(0)),
            s("sign", 20, 50, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 30]);
    }

    #[test]
    fn self_time_with_sibling_children() {
        // round [0,100] with siblings mine [0,40], poll [40,70], poll [70,90]
        let spans = [
            s("round", 0, 100, None),
            s("mine", 0, 40, Some(0)),
            s("poll", 40, 70, Some(0)),
            s("poll", 70, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![10, 40, 30, 20]);
        let totals = totals_by_name(&spans);
        assert_eq!(
            totals["poll"],
            NameTotal {
                calls: 2,
                self_ns: 50
            }
        );
        assert_eq!(totals["round"].self_ns, 10);
        // Self times partition the root's duration.
        assert_eq!(totals.values().map(|t| t.self_ns).sum::<u64>(), 100);
    }

    #[test]
    fn tracer_records_parents_and_correlations() {
        let mut t = Tracer::new(true);
        let outer = t.enter("outer", 7);
        let got = span!(t, "inner", 7, 41 + 1);
        t.exit(outer);
        span!(t, "after", 8, ());
        assert_eq!(got, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[1].correlation, 7);
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn a_span_costs_well_under_a_microsecond() {
        let ns = calibrate_span_ns();
        assert!(ns > 0.0 && ns < 1_000.0, "{ns} ns per span");
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(span!(t, "x", 1, 5), 5);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn trace_file_form() {
        let spans = [
            s("a", 1, 2, None),
            s("b", 3, 4, Some(0)),
            s("a", 5, 6, None),
        ];
        let v = to_json(&spans);
        assert_eq!(v.get("names"), Some(&vec!["a", "b"].into()));
        assert_eq!(v.get("total_spans").and_then(Value::as_f64), Some(3.0));
        let rows = v.get("spans").and_then(Value::as_arr).expect("rows");
        assert_eq!(
            rows[1],
            Value::Arr(vec![
                1_u64.into(),
                3_u64.into(),
                4_u64.into(),
                0_u64.into(),
                0_u64.into()
            ])
        );
        assert_eq!(rows[0].as_arr().expect("row")[3], Value::Num(-1.0));
    }
}
