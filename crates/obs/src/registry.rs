//! Metric registry and the [`Observe`] trait.
//!
//! Components do not push metrics continuously; instead each implements
//! [`Observe`] and, when asked, writes its current counters and histograms
//! into a [`MetricsRegistry`] under self-prefixed names (`"l1.loads"`,
//! `"mc.pgtbl.walks"`, ...). Registries are cheap value types: snapshot an
//! epoch boundary by cloning, and compute per-epoch activity with
//! [`MetricsRegistry::delta_since`].

use std::collections::BTreeMap;

use crate::histogram::Histogram;

/// A single registered metric value.
///
/// A histogram is boxed: it is about 1.6 KB, and a report's registry holds
/// 149 entries of which 13 are histograms, so an unboxed variant would make
/// every counter and gauge histogram-sized.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// A monotonically increasing count (events, cycles, bytes).
    Counter(u64),
    /// A point-in-time floating measurement (ratios, rates).
    Gauge(f64),
    /// A latency distribution.
    Histogram(Box<Histogram>),
}

/// An ordered map of metric name to value.
///
/// Names use dotted prefixes to namespace the owning component. Ordering is
/// lexicographic (a `BTreeMap`) so exports are deterministic.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsRegistry {
    metrics: BTreeMap<String, MetricValue>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or overwrites) a counter.
    pub fn counter(&mut self, name: &str, value: u64) {
        self.metrics
            .insert(name.to_string(), MetricValue::Counter(value));
    }

    /// Registers (or overwrites) a gauge.
    pub fn gauge(&mut self, name: &str, value: f64) {
        self.metrics
            .insert(name.to_string(), MetricValue::Gauge(value));
    }

    /// Registers (or overwrites) a histogram by cloning it.
    pub fn histogram(&mut self, name: &str, h: &Histogram) {
        self.metrics.insert(
            name.to_string(),
            MetricValue::Histogram(Box::new(h.clone())),
        );
    }

    /// Looks up a metric by exact name.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Convenience: the value of a counter, or `None` if absent or not a
    /// counter.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Convenience: a registered histogram, or `None` if absent or not a
    /// histogram.
    pub fn histogram_value(&self, name: &str) -> Option<&Histogram> {
        match self.metrics.get(name) {
            Some(MetricValue::Histogram(h)) => Some(h),
            _ => None,
        }
    }

    /// Iterates metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &MetricValue)> {
        self.metrics.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// True if no metrics are registered.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Asks a component to record itself into this registry.
    pub fn observe<O: Observe + ?Sized>(&mut self, component: &O) {
        component.observe(self);
    }

    /// Copies every metric of `other` into this registry under
    /// `"{prefix}.{name}"` — how composites distinguish two instances of
    /// the same component (e.g. `l1.cache.loads` vs `l2.cache.loads`).
    pub fn absorb(&mut self, prefix: &str, other: &MetricsRegistry) {
        for (name, v) in other.iter() {
            self.metrics.insert(format!("{prefix}.{name}"), v.clone());
        }
    }

    /// A copy of the registry, marking an epoch boundary.
    pub fn snapshot(&self) -> MetricsRegistry {
        self.clone()
    }

    /// Activity since `earlier`: counters and histograms subtract
    /// (saturating), gauges keep their current value, and metrics absent
    /// from `earlier` pass through unchanged.
    pub fn delta_since(&self, earlier: &MetricsRegistry) -> MetricsRegistry {
        let mut out = MetricsRegistry::new();
        for (name, v) in &self.metrics {
            let dv = match (v, earlier.metrics.get(name)) {
                (MetricValue::Counter(now), Some(MetricValue::Counter(then))) => {
                    MetricValue::Counter(now.saturating_sub(*then))
                }
                (MetricValue::Histogram(now), Some(MetricValue::Histogram(then))) => {
                    MetricValue::Histogram(Box::new(now.delta_since(then)))
                }
                _ => v.clone(),
            };
            out.metrics.insert(name.clone(), dv);
        }
        out
    }
}

/// Implemented by every component that exports metrics.
///
/// Implementations write their state under a stable, self-prefixed
/// namespace and must not clear or reset anything: observation is read-only
/// with respect to the component.
pub trait Observe {
    /// Writes this component's current metrics into `m`.
    fn observe(&self, m: &mut MetricsRegistry);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Fake {
        hits: u64,
    }

    impl Observe for Fake {
        fn observe(&self, m: &mut MetricsRegistry) {
            m.counter("fake.hits", self.hits);
            m.gauge("fake.ratio", 0.5);
        }
    }

    #[test]
    fn observe_writes_prefixed_metrics() {
        let mut reg = MetricsRegistry::new();
        reg.observe(&Fake { hits: 42 });
        assert_eq!(reg.counter_value("fake.hits"), Some(42));
        assert!(matches!(
            reg.get("fake.ratio"),
            Some(MetricValue::Gauge(g)) if *g == 0.5
        ));
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let mut h1 = Histogram::new();
        h1.record(4);
        let mut reg1 = MetricsRegistry::new();
        reg1.counter("c", 10);
        reg1.histogram("h", &h1);
        let snap = reg1.snapshot();

        let mut h2 = h1.clone();
        h2.record(8);
        h2.record(8);
        let mut reg2 = MetricsRegistry::new();
        reg2.counter("c", 25);
        reg2.histogram("h", &h2);
        reg2.counter("new", 3);

        let d = reg2.delta_since(&snap);
        assert_eq!(d.counter_value("c"), Some(15));
        assert_eq!(d.histogram_value("h").unwrap().count(), 2);
        assert_eq!(d.counter_value("new"), Some(3));
    }

    #[test]
    fn a_metric_value_is_two_words() {
        assert!(std::mem::size_of::<MetricValue>() <= 16);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.counter("z.last", 1);
        reg.counter("a.first", 1);
        reg.counter("m.mid", 1);
        let names: Vec<&str> = reg.iter().map(|(n, _)| n).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
    }
}
