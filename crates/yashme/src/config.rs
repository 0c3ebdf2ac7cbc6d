//! Detector configuration.

use serde::{Deserialize, Serialize};

/// Configuration of a [`YashmeDetector`](crate::YashmeDetector).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct YashmeConfig {
    // (serde note: the suppression list is a static slice and is skipped
    // during (de)serialization; deserialized configs start unsuppressed.)
    /// Enable prefix-based expansion (§4.2): a flush counts as persisting a
    /// store only if the flush lies inside the consistent prefix `CVpre`
    /// forced by the post-crash execution's reads. With this off, the
    /// detector is the *baseline* of Table 5: any flush that committed
    /// before the crash counts, so races are only found when the crash
    /// physically landed in the store→flush window.
    pub prefix_expansion: bool,
    /// eADR mode (§7.5): on eADR platforms the cache is inside the
    /// persistence domain, so a store is fully persistent once it leaves the
    /// store buffer. A race then additionally requires that *no* consistent
    /// prefix contains a later same-thread event — if the post-crash
    /// execution observed anything the storing thread did after the store,
    /// TSO's FIFO store buffer guarantees the store had committed (and
    /// hence, on eADR, persisted). Races reported in eADR mode are a subset
    /// of the default (non-eADR) races, matching the paper's containment
    /// claim: "the absence of races on a non-eADR system implies the
    /// absence of races on eADR systems, but the opposite is not true".
    pub eadr: bool,
    /// Labels whose races are suppressed entirely — the annotation
    /// mechanism the paper sketches as future work ("a future implementation
    /// of Yashme could use annotations to suppress race warnings", §7.5).
    #[serde(skip, default = "empty_labels")]
    pub suppressed_labels: &'static [&'static str],
}

// Referenced from the `#[serde(default = ...)]` attribute; the offline
// serde stub's no-op derive does not expand it, hence the allow.
#[allow(dead_code)]
fn empty_labels() -> &'static [&'static str] {
    &[]
}

impl YashmeConfig {
    /// The paper's configuration: prefix expansion on, benign races
    /// reported separately.
    pub fn new() -> Self {
        YashmeConfig {
            prefix_expansion: true,
            eadr: false,
            suppressed_labels: &[],
        }
    }

    /// The baseline (no-prefix) configuration of Table 5.
    pub fn baseline() -> Self {
        YashmeConfig {
            prefix_expansion: false,
            ..YashmeConfig::new()
        }
    }

    /// eADR-platform configuration (§7.5): only races possible when the
    /// cache is in the persistence domain.
    pub fn eadr() -> Self {
        YashmeConfig {
            eadr: true,
            ..YashmeConfig::new()
        }
    }

    /// Returns a copy that suppresses races on the given labels (developer
    /// annotations).
    pub fn with_suppressed(mut self, labels: &'static [&'static str]) -> Self {
        self.suppressed_labels = labels;
        self
    }
}

impl Default for YashmeConfig {
    fn default() -> Self {
        YashmeConfig::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_enables_prefix_expansion() {
        assert!(YashmeConfig::default().prefix_expansion);
        assert!(!YashmeConfig::baseline().prefix_expansion);
        assert!(!YashmeConfig::default().eadr);
    }

    #[test]
    fn eadr_keeps_prefix_expansion() {
        let cfg = YashmeConfig::eadr();
        assert!(cfg.eadr);
        assert!(cfg.prefix_expansion);
    }

    #[test]
    fn suppression_list_is_carried() {
        let cfg = YashmeConfig::new().with_suppressed(&["a", "b"]);
        assert_eq!(cfg.suppressed_labels, &["a", "b"]);
    }
}
