//! The secret watermarking key, the mark, and the agent configuration.
//!
//! The paper's key has three elements (Table 1): `k1` drives tuple selection,
//! `k2` drives the permutation and mark-bit indices, and `η` tunes the
//! selection rate (one tuple in η is watermarked on average). Distinct keys
//! for distinct purposes keep the calculations uncorrelated (§5.3).

use medshield_crypto::{sha256, KeyedPrf};

/// The secret watermarking key `(k1, k2, η)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WatermarkKey {
    /// Key for the tuple-selection hash (Eq. 5).
    pub k1: Vec<u8>,
    /// Key for the permutation-index and mark-bit-index hashes (Fig. 9).
    pub k2: Vec<u8>,
    /// Selection modulus: a tuple is watermarked when
    /// `H(ident, k1) mod η == 0`. Smaller η ⇒ more bandwidth, more alteration.
    pub eta: u64,
}

impl WatermarkKey {
    /// Create a key from two secrets and η.
    pub fn new(k1: impl Into<Vec<u8>>, k2: impl Into<Vec<u8>>, eta: u64) -> Self {
        WatermarkKey { k1: k1.into(), k2: k2.into(), eta }
    }

    /// Derive both sub-keys from a single master secret (domain-separated),
    /// with the given η.
    pub fn from_master(master: &[u8], eta: u64) -> Self {
        let mut k1_input = master.to_vec();
        k1_input.extend_from_slice(b"/k1");
        let mut k2_input = master.to_vec();
        k2_input.extend_from_slice(b"/k2");
        WatermarkKey {
            k1: sha256::sha256(&k1_input).to_vec(),
            k2: sha256::sha256(&k2_input).to_vec(),
            eta,
        }
    }

    /// PRF keyed with `k1` (tuple selection).
    pub fn selection_prf(&self) -> KeyedPrf {
        KeyedPrf::new(&self.k1)
    }

    /// PRF keyed with `k2` (permutation / bit-position indices).
    pub fn permutation_prf(&self) -> KeyedPrf {
        KeyedPrf::new(&self.k2)
    }
}

/// The mark: an owner-specific bit string (the paper's experiments use a
/// 20-bit mark embedded multiple times).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mark {
    bits: Vec<bool>,
}

impl Mark {
    /// Create a mark from explicit bits.
    pub fn from_bits(bits: Vec<bool>) -> Self {
        Mark { bits }
    }

    /// Derive a `len`-bit mark from arbitrary bytes by hashing (the one-way
    /// `F()` of the rightful-ownership construction).
    pub fn from_bytes(data: &[u8], len: usize) -> Self {
        let mut bits = Vec::with_capacity(len);
        let mut counter = 0u32;
        while bits.len() < len {
            let mut input = data.to_vec();
            input.extend_from_slice(&counter.to_be_bytes());
            let digest = sha256::sha256(&input);
            for byte in digest {
                for i in (0..8).rev() {
                    if bits.len() == len {
                        break;
                    }
                    bits.push((byte >> i) & 1 == 1);
                }
            }
            counter += 1;
        }
        Mark { bits }
    }

    /// The bits of the mark.
    pub fn bits(&self) -> &[bool] {
        &self.bits
    }

    /// Pack the bits into bytes, most-significant bit first, for compact
    /// serialization; pair with [`Mark::from_packed_bits`]. The final byte
    /// is zero-padded when the bit count is not a multiple of eight.
    pub fn to_packed_bits(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.bits.len().div_ceil(8)];
        for (i, &bit) in self.bits.iter().enumerate() {
            if bit {
                out[i / 8] |= 1 << (7 - (i % 8));
            }
        }
        out
    }

    /// Rebuild a mark from [`Mark::to_packed_bits`] output. Returns `None`
    /// when `bytes` cannot hold `len` bits — the deserialization caller
    /// treats that as corrupt input, never as a panic.
    pub fn from_packed_bits(len: usize, bytes: &[u8]) -> Option<Mark> {
        if bytes.len() != len.div_ceil(8) {
            return None;
        }
        let bits =
            (0..len).map(|i| bytes[i / 8] & (1 << (7 - (i % 8))) != 0).collect::<Vec<bool>>();
        Some(Mark { bits })
    }

    /// Number of bits.
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True if the mark has no bits.
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// `Duplicate(wm)`: replicate the mark `copies` times into the extended
    /// mark `wmd` used for multiple embedding.
    pub fn duplicate(&self, copies: usize) -> Vec<bool> {
        let mut out = Vec::with_capacity(self.bits.len() * copies.max(1));
        for _ in 0..copies.max(1) {
            out.extend_from_slice(&self.bits);
        }
        out
    }

    /// Collapse a recovered extended mark back to `len(self)` bits by
    /// majority voting across the copies; positions with no information
    /// default to `false`.
    pub fn fold_majority(recovered: &[Option<bool>], mark_len: usize) -> Vec<bool> {
        let mut ones = vec![0i64; mark_len];
        let mut total = vec![0i64; mark_len];
        for (i, bit) in recovered.iter().enumerate() {
            if let Some(b) = bit {
                let pos = i % mark_len;
                total[pos] += 1;
                if *b {
                    ones[pos] += 1;
                }
            }
        }
        (0..mark_len).map(|i| ones[i] * 2 > total[i]).collect()
    }
}

impl std::fmt::Display for Mark {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in &self.bits {
            write!(f, "{}", if *b { '1' } else { '0' })?;
        }
        Ok(())
    }
}

/// Configuration of the watermarking agent.
#[derive(Debug, Clone, PartialEq)]
pub struct WatermarkConfig {
    /// The secret key.
    pub key: WatermarkKey,
    /// Number of times the mark is replicated into `wmd` (multiple
    /// embedding, §5.3).
    pub duplication: usize,
    /// Columns to embed into; `None` means every quasi-identifying column.
    pub columns: Option<Vec<String>>,
    /// Use level-weighted majority voting in detection (copies recovered
    /// from higher levels get more weight, §5.3).
    pub weighted_voting: bool,
    /// Columns forming a virtual primary key when the identifying columns
    /// cannot be relied on (footnote 1 of the paper). Empty means "use the
    /// identifying columns".
    pub virtual_key_columns: Vec<String>,
}

impl WatermarkConfig {
    /// A configuration with the given key and defaults for the rest.
    pub fn new(key: WatermarkKey) -> Self {
        WatermarkConfig {
            key,
            duplication: 8,
            columns: None,
            weighted_voting: false,
            virtual_key_columns: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_master_derives_distinct_subkeys() {
        let key = WatermarkKey::from_master(b"hospital-secret", 100);
        assert_ne!(key.k1, key.k2);
        assert_eq!(key.eta, 100);
        // Deterministic.
        assert_eq!(key, WatermarkKey::from_master(b"hospital-secret", 100));
        assert_ne!(key.k1, WatermarkKey::from_master(b"other", 100).k1);
    }

    #[test]
    fn prfs_are_keyed_separately() {
        let key = WatermarkKey::from_master(b"secret", 50);
        assert_ne!(key.selection_prf().value(b"x"), key.permutation_prf().value(b"x"));
    }

    #[test]
    fn mark_from_bytes_has_requested_length_and_is_deterministic() {
        for len in [1usize, 8, 20, 64, 300] {
            let m = Mark::from_bytes(b"owner", len);
            assert_eq!(m.len(), len);
            assert_eq!(m, Mark::from_bytes(b"owner", len));
        }
        assert_ne!(Mark::from_bytes(b"owner-a", 20), Mark::from_bytes(b"owner-b", 20));
        assert!(!Mark::from_bytes(b"x", 20).is_empty());
    }

    #[test]
    fn duplicate_replicates_bits() {
        let m = Mark::from_bits(vec![true, false, true]);
        let d = m.duplicate(3);
        assert_eq!(d.len(), 9);
        assert_eq!(&d[0..3], m.bits());
        assert_eq!(&d[3..6], m.bits());
        // Zero copies is clamped to one.
        assert_eq!(m.duplicate(0).len(), 3);
    }

    #[test]
    fn fold_majority_votes_across_copies() {
        // mark_len = 2, three copies; position 0 sees [1, 1, 0] → 1,
        // position 1 sees [0, None, 0] → 0.
        let recovered = vec![Some(true), Some(false), Some(true), None, Some(false), Some(false)];
        assert_eq!(Mark::fold_majority(&recovered, 2), vec![true, false]);
    }

    #[test]
    fn fold_majority_defaults_to_false_without_information() {
        assert_eq!(Mark::fold_majority(&[None, None], 2), vec![false, false]);
    }

    #[test]
    fn display_renders_bits() {
        let m = Mark::from_bits(vec![true, false, true, true]);
        assert_eq!(m.to_string(), "1011");
    }
}
