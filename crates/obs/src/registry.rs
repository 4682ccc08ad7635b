//! The global metric registry: name → `&'static` metric.
//!
//! Metrics are registered on first use and leaked, so handles are plain
//! `'static` references and the hot path never touches the table — call
//! sites resolve a name once (the [`counter!`]/[`gauge!`]/[`histogram!`]
//! macros cache static names per site; per-tenant code stores the handle
//! next to the tenant). Dynamic names are fine: a tenant that opens,
//! closes and reopens reuses the same leaked metric.
//!
//! [`counter!`]: crate::counter!
//! [`gauge!`]: crate::gauge!
//! [`histogram!`]: crate::histogram!

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::{OnceLock, RwLock};

/// The process-wide name → metric table. Obtain it via [`registry`].
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, &'static Counter>>,
    gauges: RwLock<BTreeMap<String, &'static Gauge>>,
    histograms: RwLock<BTreeMap<String, &'static Histogram>>,
}

/// The global registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

fn get_or_leak<T: Default>(table: &RwLock<BTreeMap<String, &'static T>>, name: &str) -> &'static T {
    if let Some(m) = table.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return m;
    }
    let mut w = table.write().unwrap_or_else(|e| e.into_inner());
    w.entry(name.to_string())
        .or_insert_with(|| Box::leak(Box::new(T::default())))
}

impl Registry {
    /// The counter named `name`, registering it on first use.
    pub fn counter(&self, name: &str) -> &'static Counter {
        get_or_leak(&self.counters, name)
    }

    /// The gauge named `name`, registering it on first use.
    pub fn gauge(&self, name: &str) -> &'static Gauge {
        get_or_leak(&self.gauges, name)
    }

    /// The histogram named `name`, registering it on first use.
    pub fn histogram(&self, name: &str) -> &'static Histogram {
        get_or_leak(&self.histograms, name)
    }

    /// A point-in-time view of every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            enabled: crate::enabled(),
            counters: read_all(&self.counters, Counter::get),
            gauges: read_all(&self.gauges, Gauge::get),
            histograms: read_all(&self.histograms, Histogram::snapshot),
        }
    }
}

/// `(name, value)` for every metric in `table`, in name order.
fn read_all<T, V>(
    table: &RwLock<BTreeMap<String, &'static T>>,
    value: impl Fn(&T) -> V,
) -> Vec<(String, V)> {
    let table = table.read().unwrap_or_else(|e| e.into_inner());
    table.iter().map(|(n, m)| (n.clone(), value(m))).collect()
}

/// A serializable point-in-time view of the registry, served over the
/// wire by the daemons (`Request::MetricsSnapshot`) and printed by the
/// `--metrics-json` scrape mode.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Whether recording was on when the snapshot was taken. A scrape of
    /// a daemon that never enabled observability returns all-zero
    /// metrics; this flag tells the operator why.
    pub enabled: bool,
    /// `(name, total)` for every counter, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, level)` for every gauge, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// `(name, summary)` for every histogram, sorted by name.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

impl MetricsSnapshot {
    /// The value of counter `name`, if registered.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
    }

    /// The level of gauge `name`, if registered.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|&(_, v)| v)
    }

    /// The summary of histogram `name`, if registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, s)| s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_support::with_enabled;

    #[test]
    fn registry_reuses_and_snapshots() {
        let _on = with_enabled(true);
        let c = registry().counter("test.registry.hits");
        let again = registry().counter("test.registry.hits");
        assert!(std::ptr::eq(c, again), "same name must yield same metric");
        c.reset();
        c.add(7);
        registry().histogram("test.registry.lat").record(100);
        let snap = registry().snapshot();
        assert_eq!(snap.counter("test.registry.hits"), Some(7));
        assert!(snap.histogram("test.registry.lat").unwrap().count >= 1);
        assert_eq!(snap.counter("test.registry.absent"), None);
    }
}
