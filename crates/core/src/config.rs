//! Configuration of the end-to-end protection engine.

use medshield_binning::{BinningConfig, KAnonymitySpec, MinimalNodeStrategy, SelectionStrategy};
use medshield_watermark::{WatermarkConfig, WatermarkKey};

/// Complete configuration of [`crate::ProtectionEngine`]: the k-anonymity
/// specification and binning knobs, the watermarking key and embedding knobs,
/// and the owner's mark.
#[derive(Debug, Clone, PartialEq)]
pub struct ProtectionConfig {
    /// Binning agent configuration (§4).
    pub binning: BinningConfig,
    /// Watermarking agent configuration (§5).
    pub watermark: WatermarkConfig,
    /// Length of the owner's mark in bits (the paper's experiments use 20).
    pub mark_len: usize,
    /// Free-text seed of the owner's mark when it is not derived from the
    /// identifying-column statistic (the rightful-ownership protocol derives
    /// it from the data instead; see [`crate::ProtectionEngine::protect`]).
    pub mark_text: String,
    /// Derive the mark from the identifying-column statistic (`F(v)`, §5.4)
    /// instead of from `mark_text`. This is what makes the ownership dispute
    /// resolvable without the original table.
    pub mark_from_statistic: bool,
    /// Depth of the maximal generalization nodes when the caller does not
    /// supply explicit per-column usage metrics (0 = the tree root, i.e. no
    /// usage restriction).
    pub default_maximal_depth: usize,
}

impl ProtectionConfig {
    /// Start building a configuration.
    pub fn builder() -> ProtectionConfigBuilder {
        ProtectionConfigBuilder::default()
    }
}

impl Default for ProtectionConfig {
    fn default() -> Self {
        ProtectionConfig::builder().build()
    }
}

/// Builder for [`ProtectionConfig`].
#[derive(Debug, Clone)]
pub struct ProtectionConfigBuilder {
    k: usize,
    epsilon: usize,
    minimal_strategy: MinimalNodeStrategy,
    selection_strategy: SelectionStrategy,
    exhaustive_limit: usize,
    encryption_secret: Vec<u8>,
    master_secret: Vec<u8>,
    eta: u64,
    duplication: usize,
    weighted_voting: bool,
    columns: Option<Vec<String>>,
    mark_len: usize,
    mark_text: String,
    mark_from_statistic: bool,
    default_maximal_depth: usize,
}

impl Default for ProtectionConfigBuilder {
    fn default() -> Self {
        ProtectionConfigBuilder {
            k: 10,
            epsilon: 0,
            minimal_strategy: MinimalNodeStrategy::default(),
            selection_strategy: SelectionStrategy::default(),
            exhaustive_limit: 4_096,
            encryption_secret: b"medshield-binning-secret".to_vec(),
            master_secret: b"medshield-watermark-secret".to_vec(),
            eta: 100,
            duplication: 8,
            weighted_voting: false,
            columns: None,
            mark_len: 20,
            mark_text: "medshield".to_string(),
            mark_from_statistic: false,
            default_maximal_depth: 0,
        }
    }
}

impl ProtectionConfigBuilder {
    /// The k of the k-anonymity specification.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// The ε safety margin added to k before binning (§6).
    pub fn epsilon(mut self, epsilon: usize) -> Self {
        self.epsilon = epsilon;
        self
    }

    /// The minimal-node strategy of mono-attribute binning.
    pub fn minimal_strategy(mut self, s: MinimalNodeStrategy) -> Self {
        self.minimal_strategy = s;
        self
    }

    /// The selection strategy of multi-attribute binning.
    pub fn selection_strategy(mut self, s: SelectionStrategy) -> Self {
        self.selection_strategy = s;
        self
    }

    /// Secret from which the identifier-encryption key is derived.
    pub fn encryption_secret(mut self, secret: impl Into<Vec<u8>>) -> Self {
        self.encryption_secret = secret.into();
        self
    }

    /// Master secret from which the watermarking keys k1 and k2 are derived.
    pub fn watermark_secret(mut self, secret: impl Into<Vec<u8>>) -> Self {
        self.master_secret = secret.into();
        self
    }

    /// The η selection modulus (1 in η tuples is watermarked).
    pub fn eta(mut self, eta: u64) -> Self {
        self.eta = eta;
        self
    }

    /// How many times the mark is replicated into the extended mark.
    pub fn duplication(mut self, duplication: usize) -> Self {
        self.duplication = duplication.max(1);
        self
    }

    /// Enable level-weighted majority voting during detection.
    pub fn weighted_voting(mut self, on: bool) -> Self {
        self.weighted_voting = on;
        self
    }

    /// Restrict watermarking to specific quasi-identifying columns.
    pub fn watermark_columns(mut self, columns: Vec<String>) -> Self {
        self.columns = Some(columns);
        self
    }

    /// Length of the mark in bits.
    pub fn mark_len(mut self, len: usize) -> Self {
        self.mark_len = len.max(1);
        self
    }

    /// Text from which the mark is derived when not using the
    /// identifying-column statistic.
    pub fn mark_text(mut self, text: impl Into<String>) -> Self {
        self.mark_text = text.into();
        self
    }

    /// Derive the mark from the identifying-column statistic (`F(v)`), the
    /// rightful-ownership construction of §5.4.
    pub fn mark_from_statistic(mut self, on: bool) -> Self {
        self.mark_from_statistic = on;
        self
    }

    /// Depth of the default maximal generalization nodes (usage metrics)
    /// when none are supplied per column.
    pub fn default_maximal_depth(mut self, depth: usize) -> Self {
        self.default_maximal_depth = depth;
        self
    }

    /// Cap on exhaustive enumeration in multi-attribute binning.
    pub fn exhaustive_limit(mut self, limit: usize) -> Self {
        self.exhaustive_limit = limit.max(1);
        self
    }

    /// Finish building.
    pub fn build(self) -> ProtectionConfig {
        let binning = BinningConfig {
            spec: KAnonymitySpec::with_epsilon(self.k, self.epsilon),
            minimal_strategy: self.minimal_strategy,
            selection_strategy: self.selection_strategy,
            exhaustive_limit: self.exhaustive_limit,
            // The engine's `threads` knob overrides this so one setting
            // drives both the binning search and the watermark stages.
            threads: 1,
            encryption_secret: self.encryption_secret,
        };
        let key = WatermarkKey::from_master(&self.master_secret, self.eta);
        let watermark = WatermarkConfig {
            key,
            duplication: self.duplication,
            columns: self.columns,
            weighted_voting: self.weighted_voting,
            virtual_key_columns: Vec::new(),
        };
        ProtectionConfig {
            binning,
            watermark,
            mark_len: self.mark_len,
            mark_text: self.mark_text,
            mark_from_statistic: self.mark_from_statistic,
            default_maximal_depth: self.default_maximal_depth,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_are_sane() {
        let c = ProtectionConfig::default();
        assert_eq!(c.binning.spec.k, 10);
        assert_eq!(c.watermark.key.eta, 100);
        assert_eq!(c.mark_len, 20);
        assert!(!c.mark_from_statistic);
        assert_eq!(c.default_maximal_depth, 0);
        assert_eq!(c.binning.threads, 1);
    }

    #[test]
    fn builder_sets_every_knob() {
        let c = ProtectionConfig::builder()
            .k(25)
            .epsilon(3)
            .eta(50)
            .duplication(4)
            .weighted_voting(true)
            .watermark_columns(vec!["doctor".into()])
            .mark_len(32)
            .mark_text("owner")
            .mark_from_statistic(true)
            .default_maximal_depth(1)
            .exhaustive_limit(99)
            .encryption_secret(b"enc".to_vec())
            .watermark_secret(b"wat".to_vec())
            .minimal_strategy(MinimalNodeStrategy::Aggressive)
            .selection_strategy(SelectionStrategy::FullInfoLoss)
            .build();
        assert_eq!(c.binning.spec.k, 25);
        assert_eq!(c.binning.spec.epsilon, 3);
        assert_eq!(c.binning.spec.effective_k(), 28);
        assert_eq!(c.binning.exhaustive_limit, 99);
        assert_eq!(c.binning.minimal_strategy, MinimalNodeStrategy::Aggressive);
        assert_eq!(c.binning.selection_strategy, SelectionStrategy::FullInfoLoss);
        assert_eq!(c.watermark.key.eta, 50);
        assert_eq!(c.watermark.duplication, 4);
        assert!(c.watermark.weighted_voting);
        assert_eq!(c.watermark.columns, Some(vec!["doctor".to_string()]));
        assert_eq!(c.mark_len, 32);
        assert!(c.mark_from_statistic);
        assert_eq!(c.default_maximal_depth, 1);
    }

    #[test]
    fn degenerate_values_are_clamped() {
        let c = ProtectionConfig::builder().duplication(0).mark_len(0).exhaustive_limit(0).build();
        assert_eq!(c.watermark.duplication, 1);
        assert_eq!(c.mark_len, 1);
        assert_eq!(c.binning.exhaustive_limit, 1);
    }

    #[test]
    fn different_watermark_secrets_produce_different_keys() {
        let a = ProtectionConfig::builder().watermark_secret(b"a".to_vec()).build();
        let b = ProtectionConfig::builder().watermark_secret(b"b".to_vec()).build();
        assert_ne!(a.watermark.key, b.watermark.key);
    }
}
