//! Metrics federation: merge per-node [`Registry`] snapshots into
//! cluster-scope series.
//!
//! Every node in the PR 6 cluster runs its own registry; operating the
//! cluster means asking questions *across* them — "what is the cluster-wide
//! interactive p95", "how many queries did each node shed". The federation
//! pulls each node's registry (cheap handle clones, no locks held across
//! nodes), merges counters and gauges by summation, and merges histograms
//! **bucket-wise** — exact, not an approximation, because every histogram
//! in the workspace shares the same [`HIST_BUCKETS`] log2 bucket edges
//! (see `metrics.rs`): the quantiles of a bucket-merged histogram equal
//! the quantiles of the concatenated observation stream, to within the
//! same one-power-of-two resolution a single node reports.
//!
//! [`Federation::render_text`] emits the Prometheus text format twice
//! over: once per node with a `node="..."` label, then the merged
//! cluster-scope series unlabeled — so one scrape shows both the
//! per-node breakdown and the aggregate.

use std::collections::BTreeMap;

use crate::metrics::{
    emit_histogram_series, sum, Histogram, HistogramSnapshot, MetricEntry, MetricValue, Registry,
    TextEmitter, HIST_BUCKETS,
};

/// A histogram merged bucket-wise across nodes. Carries the same quantile
/// semantics as [`Histogram`]: `quantile_micros` returns the upper bound
/// of the bucket holding the requested rank.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergedHistogram {
    pub buckets: [u64; HIST_BUCKETS],
    pub count: u64,
    pub sum_micros: u64,
}

impl Default for MergedHistogram {
    fn default() -> Self {
        MergedHistogram {
            buckets: [0u64; HIST_BUCKETS],
            count: 0,
            sum_micros: 0,
        }
    }
}

impl MergedHistogram {
    pub fn absorb_counts(&mut self, counts: &[u64; HIST_BUCKETS], sum_micros: u64, count: u64) {
        for (slot, c) in self.buckets.iter_mut().zip(counts.iter()) {
            *slot += c;
        }
        self.count += count;
        self.sum_micros += sum_micros;
    }

    /// Same ranking rule as [`Histogram::quantile_micros`]: rank =
    /// `ceil(q * count)` clamped to `[1, count]`, scan buckets cumulatively.
    pub fn quantile_micros(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(Histogram::bucket_upper(i));
            }
        }
        Some(u64::MAX)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum_micros: self.sum_micros,
            p50_micros: self.quantile_micros(0.50),
            p95_micros: self.quantile_micros(0.95),
            p99_micros: self.quantile_micros(0.99),
        }
    }
}

/// Pulls per-node registries and merges them into cluster-scope series.
#[derive(Default)]
pub struct Federation {
    sources: Vec<(String, Registry)>,
}

impl Federation {
    pub fn new() -> Self {
        Federation::default()
    }

    /// Register one node's registry under `node` (the label value). The
    /// registry handle is a cheap clone sharing the node's live metrics —
    /// the federation always reads current values, no copies go stale.
    pub fn add_node(&mut self, node: &str, registry: &Registry) {
        self.sources.push((node.to_string(), registry.clone()));
    }

    pub fn nodes(&self) -> Vec<&str> {
        self.sources.iter().map(|(n, _)| n.as_str()).collect()
    }

    /// Cluster-scope merged snapshot: counters and gauges summed across
    /// nodes, histograms merged bucket-wise. Metric kind conflicts across
    /// nodes (same name, different kind) keep the first kind seen and skip
    /// the rest — mirroring `Registry`'s own never-panic policy.
    pub fn merged(&self) -> BTreeMap<String, MetricValue> {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut gauges: BTreeMap<String, i64> = BTreeMap::new();
        let mut hists: BTreeMap<String, MergedHistogram> = BTreeMap::new();
        for (_, registry) in &self.sources {
            for (name, entry) in registry.entries() {
                match entry {
                    MetricEntry::Counter(cells) => {
                        if gauges.contains_key(&name) || hists.contains_key(&name) {
                            continue;
                        }
                        *counters.entry(name).or_insert(0) += sum(&cells);
                    }
                    MetricEntry::Gauge(g) => {
                        if counters.contains_key(&name) || hists.contains_key(&name) {
                            continue;
                        }
                        *gauges.entry(name).or_insert(0) += g.get();
                    }
                    MetricEntry::Histogram(h) => {
                        if counters.contains_key(&name) || gauges.contains_key(&name) {
                            continue;
                        }
                        hists.entry(name).or_default().absorb_counts(
                            &h.bucket_counts(),
                            h.sum_micros(),
                            h.count(),
                        );
                    }
                }
            }
        }
        let mut out: BTreeMap<String, MetricValue> = BTreeMap::new();
        for (name, v) in counters {
            out.insert(name, MetricValue::Counter(v));
        }
        for (name, v) in gauges {
            out.insert(name, MetricValue::Gauge(v));
        }
        for (name, h) in hists {
            out.insert(name, MetricValue::Histogram(h.snapshot()));
        }
        out
    }

    /// The bucket-wise merge of `name` across every node holding a
    /// histogram under that name, or `None` if no node does.
    pub fn merged_histogram(&self, name: &str) -> Option<MergedHistogram> {
        let mut merged: Option<MergedHistogram> = None;
        for (_, registry) in &self.sources {
            if let Some(MetricEntry::Histogram(h)) = registry.entries().get(name) {
                merged
                    .get_or_insert_with(MergedHistogram::default)
                    .absorb_counts(&h.bucket_counts(), h.sum_micros(), h.count());
            }
        }
        merged
    }

    /// Prometheus text exposition of the whole federation: per-node series
    /// labeled `node="..."` first, then the merged cluster-scope series
    /// unlabeled. Series dedup and label escaping come from
    /// [`TextEmitter`], so two nodes registered under the same label (or a
    /// node name needing escapes) cannot corrupt the exposition.
    pub fn render_text(&self) -> String {
        let mut emitter = TextEmitter::new();
        for (node, registry) in &self.sources {
            registry.render_into(&mut emitter, &[("node", node.as_str())]);
        }
        // Merged cluster scope: re-walk sources so histograms emit full
        // bucket series (merged() only keeps snapshots).
        let mut hists: BTreeMap<String, MergedHistogram> = BTreeMap::new();
        let mut help: BTreeMap<String, (String, String)> = BTreeMap::new();
        for (name, value) in self.merged() {
            let (kind, help_text) = self
                .sources
                .iter()
                .map(|(_, r)| r.help_for(&name))
                .next()
                .map(|h| {
                    let kind = match value {
                        MetricValue::Counter(_) => "counter",
                        MetricValue::Gauge(_) => "gauge",
                        MetricValue::Histogram(_) => "histogram",
                    };
                    (kind.to_string(), h)
                })
                .unwrap_or_else(|| ("untyped".to_string(), format!("tabviz metric {name}")));
            help.insert(name.clone(), (kind, help_text));
            match value {
                MetricValue::Counter(v) => {
                    let (kind, h) = &help[&name];
                    emitter.family(&name, kind, h);
                    emitter.sample(&name, &[], &v.to_string());
                }
                MetricValue::Gauge(v) => {
                    let (kind, h) = &help[&name];
                    emitter.family(&name, kind, h);
                    emitter.sample(&name, &[], &v.to_string());
                }
                MetricValue::Histogram(_) => {
                    if let Some(m) = self.merged_histogram(&name) {
                        hists.insert(name, m);
                    }
                }
            }
        }
        for (name, m) in hists {
            let (kind, h) = &help[&name];
            emitter.family(&name, kind, h);
            // Merged exemplar: first node holding a stamped slot for the
            // bucket wins — any exported id resolves on exactly one node.
            let exemplar_at = |i: usize| {
                self.sources
                    .iter()
                    .find_map(|(_, r)| match r.entries().get(&name) {
                        Some(MetricEntry::Histogram(h)) => h.exemplar(i),
                        _ => None,
                    })
            };
            emit_histogram_series(
                &mut emitter,
                &name,
                &[],
                &m.buckets,
                m.sum_micros,
                m.count,
                &exemplar_at,
            );
        }
        emitter.into_text()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_and_histograms_merge() {
        let a = Registry::new();
        let b = Registry::new();
        a.counter("tv_x_total").add(3);
        b.counter("tv_x_total").add(4);
        a.histogram("tv_lat").observe_micros(100);
        a.histogram("tv_lat").observe_micros(200);
        b.histogram("tv_lat").observe_micros(5_000);

        let mut fed = Federation::new();
        fed.add_node("node-0", &a);
        fed.add_node("node-1", &b);

        let merged = fed.merged();
        match merged.get("tv_x_total") {
            Some(MetricValue::Counter(7)) => {}
            other => panic!("bad counter merge: {other:?}"),
        }
        let h = fed.merged_histogram("tv_lat").expect("merged hist");
        assert_eq!(h.count, 3);
        assert_eq!(h.sum_micros, 5_300);

        // Merged quantiles equal quantiles of the concatenated stream.
        let reference = Histogram::new();
        for v in [100u64, 200, 5_000] {
            reference.observe_micros(v);
        }
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(h.quantile_micros(q), reference.quantile_micros(q));
        }
    }

    #[test]
    fn render_text_labels_nodes_and_dedups() {
        let a = Registry::new();
        a.counter("tv_q_total").inc();
        let mut fed = Federation::new();
        fed.add_node("node-0", &a);
        fed.add_node("node-0", &a); // same label twice: dedup, not double
        let text = fed.render_text();
        let labeled = text
            .lines()
            .filter(|l| l.starts_with("tv_q_total{node=\"node-0\"}"))
            .count();
        assert_eq!(labeled, 1, "duplicate series suppressed:\n{text}");
        assert!(
            text.lines().any(|l| l == "tv_q_total 2"),
            "merged unlabeled aggregate present:\n{text}"
        );
        assert_eq!(
            text.lines()
                .filter(|l| l.starts_with("# TYPE tv_q_total "))
                .count(),
            1,
            "one TYPE header per family:\n{text}"
        );
    }
}
