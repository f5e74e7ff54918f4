//! # ftmp-telemetry
//!
//! Zero-dependency metrics for the FTMP stack: monotonic counters, gauges,
//! and log-2-bucketed latency histograms, plus a bounded ring buffer for
//! flight-recorder style event history.
//!
//! Design constraints (DESIGN.md §10):
//!
//! - **Allocation-free record path.** Registration (`counter`/`gauge`/
//!   `histogram`) allocates once and returns an index handle; `inc`/`set`/
//!   `record` are plain indexed integer updates.
//! - **Integer micros.** All latency series are `u64` microseconds; the
//!   histogram quantiles are nearest-rank over power-of-two buckets, so
//!   p50/p95/p99 are exact to within 2× and the max is exact.
//! - **Hand-rolled JSON.** `Snapshot::to_json` emits a stable, dependency-
//!   free encoding for `results/*_metrics.json`.

#![warn(missing_docs)]

mod hist;
mod ring;

pub use hist::{Histogram, HistogramSnapshot};
pub use ring::Ring;

/// Handle to a registered counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterId(usize);

/// Handle to a registered gauge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GaugeId(usize);

/// Handle to a registered histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistId(usize);

/// A named-metric registry. Names are fixed at registration; the record
/// path works through the returned index handles.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, Histogram)>,
}

impl Registry {
    /// Empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or find) a monotonic counter.
    pub fn counter(&mut self, name: &str) -> CounterId {
        if let Some(i) = self.counters.iter().position(|(n, _)| n == name) {
            return CounterId(i);
        }
        self.counters.push((name.to_string(), 0));
        CounterId(self.counters.len() - 1)
    }

    /// Register (or find) a gauge.
    pub fn gauge(&mut self, name: &str) -> GaugeId {
        if let Some(i) = self.gauges.iter().position(|(n, _)| n == name) {
            return GaugeId(i);
        }
        self.gauges.push((name.to_string(), 0));
        GaugeId(self.gauges.len() - 1)
    }

    /// Register (or find) a histogram.
    pub fn histogram(&mut self, name: &str) -> HistId {
        if let Some(i) = self.hists.iter().position(|(n, _)| n == name) {
            return HistId(i);
        }
        self.hists.push((name.to_string(), Histogram::new()));
        HistId(self.hists.len() - 1)
    }

    /// Add `n` to a counter. Allocation-free.
    pub fn inc(&mut self, id: CounterId, n: u64) {
        self.counters[id.0].1 += n;
    }

    /// Set a gauge. Allocation-free.
    pub fn set(&mut self, id: GaugeId, v: i64) {
        self.gauges[id.0].1 = v;
    }

    /// Raise a gauge to `v` if that is higher: how a peak is kept, and how
    /// [`merge`](Registry::merge) combines two readings. Allocation-free.
    pub fn raise(&mut self, id: GaugeId, v: i64) {
        let g = &mut self.gauges[id.0].1;
        *g = (*g).max(v);
    }

    /// Record a histogram sample. Allocation-free.
    pub fn record(&mut self, id: HistId, v: u64) {
        self.hists[id.0].1.record(v);
    }

    /// Current counter value.
    pub fn counter_value(&self, id: CounterId) -> u64 {
        self.counters[id.0].1
    }

    /// Merge another registry into this one by metric name: counters add,
    /// gauges take the maximum (every gauge in the tree is a peak or a level
    /// whose fleet reading is its worst member), histograms merge
    /// bucketwise. Used to aggregate per-node registries into one
    /// experiment-wide view.
    pub fn merge(&mut self, other: &Registry) {
        for (name, v) in &other.counters {
            let id = self.counter(name);
            self.inc(id, *v);
        }
        for (name, v) in &other.gauges {
            match self.gauges.iter().position(|(n, _)| n == name) {
                Some(i) => self.raise(GaugeId(i), *v),
                None => self.gauges.push((name.clone(), *v)),
            }
        }
        for (name, h) in &other.hists {
            let id = self.histogram(name);
            self.hists[id.0].1.merge(h);
        }
    }

    /// Freeze every metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            counters: self.counters.clone(),
            gauges: self.gauges.clone(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| (n.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// A frozen view of every metric in a [`Registry`].
#[derive(Debug, Clone, Default)]
pub struct Snapshot {
    counters: Vec<(String, u64)>,
    gauges: Vec<(String, i64)>,
    hists: Vec<(String, HistogramSnapshot)>,
}

/// Collapse a value to its coverage bucket: `0` for zero, else
/// `floor(log2(v)) + 1` — so 1, 2–3, 4–7, 8–15, … are distinct buckets.
pub fn log2_bucket(v: u64) -> u8 {
    if v == 0 {
        0
    } else {
        (63 - v.leading_zeros() + 1) as u8
    }
}

/// Escape a string for embedding, between quotes, in a JSON document: the
/// workspace's one escaper (it has no serde).
pub fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

impl Snapshot {
    /// Look up a counter by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram summary by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.hists.iter().find(|(n, _)| n == name).map(|(_, h)| h)
    }

    /// All histogram names and summaries.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &HistogramSnapshot)> {
        self.hists.iter().map(|(n, h)| (n.as_str(), h))
    }

    /// All counter names and values, in registration order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// All gauge names and values, in registration order.
    pub fn gauges(&self) -> impl Iterator<Item = (&str, i64)> {
        self.gauges.iter().map(|(n, v)| (n.as_str(), *v))
    }

    /// The snapshot's coverage signature: counters and gauges collapse to
    /// a log-2 bucket (`0` for zero, else `floor(log2(v)) + 1`) and
    /// contribute one `(name, bucket)` pair each; a histogram contributes
    /// its count dimension plus one `(name.hist, i)` pair per *populated*
    /// power-of-two bucket — which value classes occurred, not where the
    /// quantiles drifted (quantiles wander across bucket boundaries with
    /// workload randomness, which would turn the coverage map into a seed
    /// lottery rather than a behaviour map).
    ///
    /// The set of pairs reached over a campaign is a cheap, monotone
    /// coverage map: a schedule is *novel* iff it produces a pair no
    /// earlier schedule produced (DESIGN.md §15).
    pub fn buckets(&self) -> Vec<(String, u8)> {
        let mut out = Vec::new();
        for (n, v) in self.counters() {
            out.push((n.to_string(), log2_bucket(v)));
        }
        for (n, v) in self.gauges() {
            out.push((n.to_string(), log2_bucket(v.unsigned_abs())));
        }
        for (n, h) in self.histograms() {
            out.push((format!("{n}.count"), log2_bucket(h.count)));
            for i in 0..64u8 {
                if h.populated & (1 << i) != 0 {
                    out.push((format!("{n}.hist"), i));
                }
            }
        }
        out
    }

    /// Encode as a stable JSON object:
    /// `{"counters":{...},"gauges":{...},"histograms":{name:{count,sum,mean,p50,p95,p99,max}}}`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"counters\":{");
        for (i, (n, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", escape_json(n), v));
        }
        s.push_str("},\"gauges\":{");
        for (i, (n, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":{}", escape_json(n), v));
        }
        s.push_str("},\"histograms\":{");
        for (i, (n, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                escape_json(n),
                h.count,
                h.sum,
                h.mean,
                h.p50,
                h.p95,
                h.p99,
                h.max
            ));
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registration_is_idempotent_and_handles_index() {
        let mut r = Registry::new();
        let a = r.counter("sent");
        let b = r.counter("sent");
        assert_eq!(a, b);
        r.inc(a, 2);
        r.inc(b, 3);
        assert_eq!(r.counter_value(a), 5);
    }

    #[test]
    fn snapshot_roundtrips_names_and_values() {
        let mut r = Registry::new();
        let c = r.counter("nacks");
        let g = r.gauge("srtt_us");
        let h = r.histogram("lat_us");
        r.inc(c, 7);
        r.set(g, -3);
        r.record(h, 128);
        let s = r.snapshot();
        assert_eq!(s.counter("nacks"), Some(7));
        assert_eq!(s.gauge("srtt_us"), Some(-3));
        assert_eq!(s.histogram("lat_us").unwrap().count, 1);
        assert_eq!(s.histogram("missing"), None);
    }

    #[test]
    fn merge_adds_counters_and_merges_hists() {
        let mut a = Registry::new();
        let mut b = Registry::new();
        let ca = a.counter("x");
        a.inc(ca, 1);
        let cb = b.counter("x");
        b.inc(cb, 2);
        let hb = b.histogram("h");
        b.record(hb, 10);
        a.merge(&b);
        let s = a.snapshot();
        assert_eq!(s.counter("x"), Some(3));
        assert_eq!(s.histogram("h").unwrap().count, 1);
    }

    #[test]
    fn merge_takes_the_maximum_of_a_gauge_whatever_the_order() {
        let reading = |v| {
            let mut r = Registry::new();
            let g = r.gauge("peak");
            r.set(g, v);
            r
        };
        for order in [[7, 3, 5], [3, 5, 7], [5, 7, 3]] {
            let mut agg = Registry::new();
            for v in order {
                agg.merge(&reading(v));
            }
            assert_eq!(agg.snapshot().gauge("peak"), Some(7));
        }
        // A gauge first met in a merge starts at the other's value, not at
        // zero: readings below zero survive.
        let mut agg = Registry::new();
        agg.merge(&reading(-9));
        agg.merge(&reading(-4));
        assert_eq!(agg.snapshot().gauge("peak"), Some(-4));
    }

    #[test]
    fn log2_buckets_partition_by_powers_of_two() {
        assert_eq!(log2_bucket(0), 0);
        assert_eq!(log2_bucket(1), 1);
        assert_eq!(log2_bucket(2), 2);
        assert_eq!(log2_bucket(3), 2);
        assert_eq!(log2_bucket(4), 3);
        assert_eq!(log2_bucket(7), 3);
        assert_eq!(log2_bucket(8), 4);
        assert_eq!(log2_bucket(u64::MAX), 64);
    }

    #[test]
    fn snapshot_buckets_cover_all_metric_kinds() {
        let mut r = Registry::new();
        let c = r.counter("sent");
        r.inc(c, 5);
        let g = r.gauge("depth");
        r.set(g, -9);
        let h = r.histogram("lat_us");
        r.record(h, 100);
        r.record(h, 1000);
        let b = r.snapshot().buckets();
        let find = |name: &str| b.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
        assert_eq!(find("sent"), Some(3), "5 → bucket 3");
        assert_eq!(find("depth"), Some(4), "|-9| = 9 → bucket 4");
        assert_eq!(find("lat_us.count"), Some(2));
        // 100 → bucket 7, 1000 → bucket 10: one pair per populated bucket.
        let hist: Vec<u8> = b
            .iter()
            .filter(|(n, _)| n == "lat_us.hist")
            .map(|(_, v)| *v)
            .collect();
        assert_eq!(hist, vec![7, 10]);
        // Same registry → identical signature.
        assert_eq!(b, r.snapshot().buckets());
    }

    #[test]
    fn json_is_stable_and_escaped() {
        let mut r = Registry::new();
        let c = r.counter("a\"b");
        r.inc(c, 1);
        let h = r.histogram("lat");
        r.record(h, 4);
        let j = r.snapshot().to_json();
        assert!(j.starts_with("{\"counters\":{"));
        assert!(j.contains("\"a\\\"b\":1"));
        assert!(j.contains("\"lat\":{\"count\":1"));
        assert!(j.ends_with("}}"));
    }
}
