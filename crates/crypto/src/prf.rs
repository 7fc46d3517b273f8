//! Keyed pseudo-random function used throughout the framework.
//!
//! The watermarking algorithm consumes the keyed hash as integers:
//!
//! * tuple selection — `H(ti.ident, k1) mod η = 0` (Eq. 5),
//! * permutation index — `H(ti.ident, k2) mod |S|`,
//! * mark-bit index — `H(ti.ident, k2) mod |wmd|`.
//!
//! [`KeyedPrf`] wraps HMAC-SHA-256 and exposes exactly those operations,
//! taking care of the bytes→integer reduction in one place so the
//! distribution assumptions of the paper (§6: "the use of hash function in the
//! suitability selection step renders a uniform culling") hold everywhere.

use crate::hmac::HmacKey;

/// The big-endian `u128` in the first sixteen bytes of a digest.
fn leading_u128(digest: &[u8; 32]) -> u128 {
    u128::from_be_bytes(std::array::from_fn(|i| digest[i]))
}

/// A keyed PRF mapping byte strings to uniformly distributed integers.
///
/// The HMAC ipad/opad key schedule is run once at construction and cached
/// ([`HmacKey`]), so per-message derivations cost two midstate clones rather
/// than a fresh key schedule — the difference dominates the watermarking hot
/// loops, where messages are short tuple identifiers.
#[derive(Debug, Clone)]
pub struct KeyedPrf {
    hmac: HmacKey,
}

impl KeyedPrf {
    /// Create an HMAC-SHA-256 PRF under `key`.
    pub fn new(key: impl AsRef<[u8]>) -> Self {
        KeyedPrf { hmac: HmacKey::new(key.as_ref()) }
    }

    /// The full keyed digest of `data`.
    pub fn digest(&self, data: &[u8]) -> [u8; 32] {
        self.hmac.digest(data)
    }

    /// Map `data` to a `u64`: the first eight bytes of the keyed digest
    /// (big-endian), i.e. the high half of [`KeyedPrf::value_wide`].
    pub fn value(&self, data: &[u8]) -> u64 {
        (self.value_wide(data) >> 64) as u64
    }

    /// Map `data` to a `u128` from the first sixteen bytes of the keyed
    /// digest (big-endian). This is the wide value backing the modular
    /// reductions below.
    pub fn value_wide(&self, data: &[u8]) -> u128 {
        leading_u128(&self.digest(data))
    }

    /// `H(data, key) mod modulus`. Returns 0 when `modulus` is 0 (callers
    /// treat a zero modulus as "select everything").
    ///
    /// The reduction is performed on 128 digest bits rather than 64, so for
    /// any `u64` modulus `m` the residual bias is at most `m / 2^128` —
    /// negligible even for moduli that are not powers of two or exceed
    /// `u32::MAX` (a plain 64-bit truncate-then-mod would bias low residues
    /// by up to `m / 2^64`).
    pub fn value_mod(&self, data: &[u8], modulus: u64) -> u64 {
        if modulus == 0 {
            return 0;
        }
        (self.value_wide(data) % u128::from(modulus)) as u64
    }

    /// The tuple-selection predicate of Eq. 5: `H(data, key) mod eta == 0`.
    /// `eta == 0` or `eta == 1` selects every tuple.
    pub fn selects(&self, data: &[u8], eta: u64) -> bool {
        if eta <= 1 {
            return true;
        }
        self.value_mod(data, eta) == 0
    }

    /// The domain-separated message for the labeled variants: the label, a
    /// unit separator (which never appears in labels), then the data.
    fn labeled_message(label: &str, data: &[u8]) -> Vec<u8> {
        let mut msg = Vec::with_capacity(label.len() + 1 + data.len());
        msg.extend_from_slice(label.as_bytes());
        msg.push(0x1f);
        msg.extend_from_slice(data);
        msg
    }

    /// A domain-separated variant: prefixes the message with a label so the
    /// same key can safely drive independent decisions (e.g. permutation index
    /// vs mark-bit index) without correlation.
    pub fn labeled_value(&self, label: &str, data: &[u8]) -> u64 {
        self.value(&Self::labeled_message(label, data))
    }

    /// Labeled variant of [`KeyedPrf::value_mod`]: the same 128-bit wide
    /// reduction, applied to the domain-separated digest.
    pub fn labeled_value_mod(&self, label: &str, data: &[u8], modulus: u64) -> u64 {
        if modulus == 0 {
            return 0;
        }
        (self.value_wide(&Self::labeled_message(label, data)) % u128::from(modulus)) as u64
    }

    /// The full keyed digest of the domain-separated message
    /// `label ++ 0x1f ++ data`, streamed through the cached HMAC midstate.
    /// Byte-identical to `digest` of the labeled message. This is the
    /// derivation primitive behind per-recipient fingerprints: the owner key
    /// plus a recipient identity as the label yields an independent digest
    /// without storing any new key material.
    pub fn labeled_digest(&self, label: &str, data: &[u8]) -> [u8; 32] {
        self.hmac.digest_parts(&[label.as_bytes(), &[0x1f], data])
    }

    /// The domain-separation prefix for `label`: the label bytes plus the
    /// unit separator. Hoist this out of a hot loop and pass it to
    /// [`KeyedPrf::prefixed_value_wide`] to avoid re-formatting the label and
    /// concatenating the message per call.
    pub fn label_prefix(label: &str) -> Vec<u8> {
        let mut prefix = Vec::with_capacity(label.len() + 1);
        prefix.extend_from_slice(label.as_bytes());
        prefix.push(0x1f);
        prefix
    }

    /// The wide (128-bit) value of the domain-separated message, given a
    /// prefix precomputed by [`KeyedPrf::label_prefix`]. Equal to
    /// `value_wide(label ++ 0x1f ++ data)` — the parts are streamed through
    /// the cached HMAC midstate instead of concatenated.
    pub fn prefixed_value_wide(&self, prefix: &[u8], data: &[u8]) -> u128 {
        leading_u128(&self.hmac.digest_parts(&[prefix, data]))
    }

    /// Reduce a wide value obtained from [`KeyedPrf::value_wide`] or
    /// [`KeyedPrf::prefixed_value_wide`] modulo `modulus`, with the same
    /// zero-modulus convention as [`KeyedPrf::value_mod`]. Splitting the
    /// digest from the reduction lets batch kernels evaluate one HMAC per
    /// (identity, column) and reuse the wide value across every per-level
    /// modulus: `reduce_wide(value_wide(m), n) == value_mod(m, n)` exactly.
    pub fn reduce_wide(wide: u128, modulus: u64) -> u64 {
        if modulus == 0 {
            return 0;
        }
        (wide % u128::from(modulus)) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic() {
        let prf = KeyedPrf::new(b"k1");
        assert_eq!(prf.value(b"tuple-17"), prf.value(b"tuple-17"));
    }

    #[test]
    fn values_read_the_leading_digest_bytes() {
        let prf = KeyedPrf::new(b"k1");
        let digest = prf.digest(b"tuple-17");
        let mut wide = [0u8; 16];
        wide.copy_from_slice(&digest[..16]);
        assert_eq!(prf.value_wide(b"tuple-17"), u128::from_be_bytes(wide));
        let mut narrow = [0u8; 8];
        narrow.copy_from_slice(&digest[..8]);
        assert_eq!(prf.value(b"tuple-17"), u64::from_be_bytes(narrow));
    }

    #[test]
    fn key_separation() {
        let p1 = KeyedPrf::new(b"k1");
        let p2 = KeyedPrf::new(b"k2");
        assert_ne!(p1.value(b"tuple-17"), p2.value(b"tuple-17"));
    }

    #[test]
    fn value_mod_bounds() {
        let prf = KeyedPrf::new(b"k");
        for i in 0..100u32 {
            let v = prf.value_mod(&i.to_be_bytes(), 7);
            assert!(v < 7);
        }
    }

    #[test]
    fn zero_modulus_is_total_selection() {
        let prf = KeyedPrf::new(b"k");
        assert_eq!(prf.value_mod(b"x", 0), 0);
        assert!(prf.selects(b"x", 0));
        assert!(prf.selects(b"x", 1));
    }

    #[test]
    fn selection_rate_roughly_one_over_eta() {
        // With eta = 10 roughly 10% of tuples should be selected. Allow a
        // generous tolerance; this is a sanity check on uniformity, which the
        // paper's seamlessness argument (§6) relies on.
        let prf = KeyedPrf::new(b"watermark-key");
        let eta = 10u64;
        let n = 20_000u32;
        let selected = (0..n).filter(|i| prf.selects(format!("ident-{i}").as_bytes(), eta)).count();
        let expected = (n as f64) / eta as f64;
        let tolerance = expected * 0.25;
        assert!(
            ((selected as f64) - expected).abs() < tolerance,
            "selected {selected}, expected ~{expected}"
        );
    }

    #[test]
    fn labels_decorrelate() {
        let prf = KeyedPrf::new(b"k2");
        assert_ne!(prf.labeled_value("perm", b"tuple"), prf.labeled_value("bit", b"tuple"));
    }

    #[test]
    fn labeled_digest_matches_labeled_message_digest() {
        let prf = KeyedPrf::new(b"owner-key");
        let naive = {
            let mut msg = b"fingerprint".to_vec();
            msg.push(0x1f);
            msg.extend_from_slice(b"clinic-a");
            prf.digest(&msg)
        };
        assert_eq!(prf.labeled_digest("fingerprint", b"clinic-a"), naive);
        // Label and data boundaries must not be confusable.
        assert_ne!(
            prf.labeled_digest("fingerprint", b"clinic-a"),
            prf.labeled_digest("fingerprint:clinic", b"-a")
        );
    }

    #[test]
    fn labeled_value_mod_respects_modulus() {
        let prf = KeyedPrf::new(b"k2");
        for m in 1..20u64 {
            assert!(prf.labeled_value_mod("perm", b"t", m) < m);
        }
        assert_eq!(prf.labeled_value_mod("perm", b"t", 0), 0);
    }

    #[test]
    fn wide_reduction_agrees_across_entry_points() {
        // `value_mod` and `labeled_value_mod` must reduce the same wide value
        // the label-less / labeled digests produce.
        let prf = KeyedPrf::new(b"k");
        for m in [1u64, 2, 3, 7, 10, 1000, u64::from(u32::MAX) + 17, u64::MAX] {
            assert_eq!(prf.value_mod(b"t", m), (prf.value_wide(b"t") % u128::from(m)) as u64);
            let msg = {
                let mut v = b"perm".to_vec();
                v.push(0x1f);
                v.extend_from_slice(b"t");
                v
            };
            assert_eq!(
                prf.labeled_value_mod("perm", b"t", m),
                (prf.value_wide(&msg) % u128::from(m)) as u64
            );
        }
    }

    #[test]
    fn prefixed_wide_value_matches_labeled_path() {
        // The batch kernels derive one wide value per (ident, column) via the
        // precomputed label prefix and reduce it per level; every reduction
        // must equal the per-call labeled_value_mod it replaces.
        let prf = KeyedPrf::new(b"k2");
        let prefix = KeyedPrf::label_prefix("perm:diagnosis");
        for i in 0..16u32 {
            let ident = i.to_be_bytes();
            let wide = prf.prefixed_value_wide(&prefix, &ident);
            for m in [0u64, 1, 2, 3, 7, 10, 255, u64::MAX] {
                assert_eq!(
                    KeyedPrf::reduce_wide(wide, m),
                    prf.labeled_value_mod("perm:diagnosis", &ident, m)
                );
            }
        }
    }

    #[test]
    fn digest_matches_naive_hmac() {
        // KeyedPrf caches the HMAC key schedule; its digests must stay
        // byte-identical to the one-shot hmac_sha256.
        use crate::hmac::hmac_sha256;
        for key in [&b"k"[..], &[0xaa; 131][..]] {
            let msg = b"tuple-ident";
            assert_eq!(KeyedPrf::new(key).digest(msg), hmac_sha256(key, msg));
        }
    }

    #[test]
    fn chi_square_uniformity_over_small_moduli() {
        // Chi-square goodness-of-fit of `labeled_value_mod` over moduli that
        // are not powers of two (the cases a truncating reduction would bias).
        // With m-1 degrees of freedom the 99.9% critical values are well below
        // the thresholds used here, so a systematic bias fails loudly while
        // honest randomness passes with wide margin.
        let prf = KeyedPrf::new(b"chi-square-key");
        for &m in &[3u64, 5, 6, 7, 10, 12] {
            let n = 12_000u32;
            let mut counts = vec![0u64; m as usize];
            for i in 0..n {
                counts[prf.labeled_value_mod("bucket", &i.to_be_bytes(), m) as usize] += 1;
            }
            let expected = f64::from(n) / m as f64;
            let chi2: f64 = counts.iter().map(|&c| (c as f64 - expected).powi(2) / expected).sum();
            // 99.9% critical value of chi2 with 11 dof is 31.3; use a roomy 40.
            assert!(chi2 < 40.0, "modulus {m}: chi-square {chi2:.2}, counts {counts:?}");
        }
    }

    #[test]
    fn large_moduli_are_not_truncated() {
        // Moduli above u32::MAX exercise the full wide reduction; the result
        // must stay within range and differ across moduli (a truncation to 32
        // bits would make the mod a no-op for these inputs).
        let prf = KeyedPrf::new(b"k");
        let big = 1u64 << 33;
        let mut above_u32 = 0usize;
        for i in 0..256u32 {
            let v = prf.value_mod(&i.to_be_bytes(), big);
            assert!(v < big);
            if v > u64::from(u32::MAX) {
                above_u32 += 1;
            }
        }
        // Bit 32 of the residue is a fair coin; 256 flips land far from 0.
        assert!(
            (64..192).contains(&above_u32),
            "expected ≈128 of 256 residues above u32::MAX, got {above_u32}"
        );
    }

    #[test]
    fn uniformity_across_buckets() {
        // Chi-square-ish sanity check: 8 buckets over 8000 samples should each
        // hold roughly 1000 items.
        let prf = KeyedPrf::new(b"bucket-key");
        let mut counts = [0usize; 8];
        for i in 0..8000u32 {
            counts[prf.value_mod(&i.to_le_bytes(), 8) as usize] += 1;
        }
        for (b, &c) in counts.iter().enumerate() {
            assert!((700..1300).contains(&c), "bucket {b} has {c} items");
        }
    }
}
