//! Named counters with deterministic export.

use std::collections::BTreeMap;

use crate::json::Json;

/// A registry of named counters.
///
/// Keys are sorted (`BTreeMap`), so iteration and export order are
/// deterministic. Canonical key strings live in [`crate::names`].
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<&'static str, u64>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Adds `n` to the named counter (creating it at 0).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Counters in sorted-name order.
    pub fn counters(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.counters.iter().map(|(&k, &v)| (k, v))
    }

    /// Renders as a JSON object: `{"counters": {...}}` with keys in sorted
    /// order — byte-identical for equal contents.
    pub fn to_json(&self) -> Json {
        Json::obj([(
            "counters",
            Json::Obj(
                self.counters
                    .iter()
                    .map(|(&k, &v)| (k.to_owned(), Json::U64(v)))
                    .collect(),
            ),
        )])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_accumulates_per_name() {
        let mut m = MetricsRegistry::new();
        m.add("x", 2);
        m.add("x", 3);
        m.add("y", 0);
        assert_eq!(m.counter("x"), 5);
        assert_eq!(m.counter("y"), 0);
        assert_eq!(m.counter("never"), 0);
        assert_eq!(m.to_json().render(), r#"{"counters":{"x":5,"y":0}}"#);
    }

    #[test]
    fn export_is_sorted_and_stable() {
        let mut m = MetricsRegistry::new();
        m.add("zeta", 1);
        m.add("alpha", 2);
        let one = m.to_json().render();
        let two = m.clone().to_json().render();
        assert_eq!(one, two);
        let alpha = one.find("alpha").unwrap();
        let zeta = one.find("zeta").unwrap();
        assert!(alpha < zeta, "{one}");
    }
}
