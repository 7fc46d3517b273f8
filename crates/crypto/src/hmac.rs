//! HMAC-SHA-256 (RFC 2104).
//!
//! The paper writes the keyed hash as `H(ti.ident, k1)`; HMAC is the standard
//! construction for turning a Merkle–Damgård hash into such a keyed function
//! without the length-extension weaknesses of naive concatenation.

use crate::sha256::{sha256, Sha256};

const BLOCK_LEN: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// The RFC 2104 key schedule: the key block XORed with the inner and outer
/// pad bytes. Keys longer than the block size are hashed first (§2).
fn pads(key: &[u8]) -> ([u8; BLOCK_LEN], [u8; BLOCK_LEN]) {
    let mut key_block = [0u8; BLOCK_LEN];
    if key.len() > BLOCK_LEN {
        key_block[..32].copy_from_slice(&sha256(key));
    } else {
        key_block[..key.len()].copy_from_slice(key);
    }
    (key_block.map(|b| b ^ IPAD), key_block.map(|b| b ^ OPAD))
}

/// HMAC-SHA-256 of `message` under `key` (32-byte tag), running the key
/// schedule afresh. The reference that [`HmacKey`] is tested against.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    let (ipad, opad) = pads(key);
    let mut inner = Sha256::new();
    inner.update(&ipad);
    inner.update(message);
    let mut outer = Sha256::new();
    outer.update(&opad);
    outer.update(&inner.finalize());
    outer.finalize()
}

/// A precomputed HMAC-SHA-256 key schedule.
///
/// [`hmac_sha256`] rebuilds the padded key blocks and absorbs them into fresh
/// hashers on every call; in the watermarking hot loops that key schedule
/// dominates the per-tuple cost because the messages themselves are short.
/// `HmacKey` absorbs the two exactly-one-block pads once at construction and
/// caches the primed hashers, so a digest costs two hasher clones. Its tags
/// are byte-identical to [`hmac_sha256`] (pinned by tests).
#[derive(Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Run the RFC 2104 key schedule for `key` and cache the resulting
    /// ipad/opad midstates.
    pub fn new(key: &[u8]) -> Self {
        let (ipad, opad) = pads(key);
        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// The HMAC tag of `message`, byte-identical to [`hmac_sha256`].
    pub fn digest(&self, message: &[u8]) -> [u8; 32] {
        self.digest_parts(&[message])
    }

    /// The HMAC tag of the concatenation of `parts`, without materializing
    /// the concatenation. Streaming the parts through the inner hasher is
    /// definitionally equal to hashing their concatenation, so
    /// `digest_parts(&[a, b]) == digest(a ++ b)` byte for byte.
    pub fn digest_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

impl std::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The midstates are key material; never print them.
        f.debug_struct("HmacKey").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hex;

    /// RFC 4231 test cases 1 and 2.
    #[test]
    fn rfc4231_hmac_sha256() {
        let key = [0x0b_u8; 20];
        assert_eq!(
            hex::encode(&hmac_sha256(&key, b"Hi There")),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
        assert_eq!(
            hex::encode(&hmac_sha256(b"Jefe", b"what do ya want for nothing?")),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    #[test]
    fn long_key_is_hashed() {
        // RFC 4231 test case 6: 131-byte key.
        let key = [0xaa_u8; 131];
        assert_eq!(
            hex::encode(&hmac_sha256(
                &key,
                b"Test Using Larger Than Block-Size Key - Hash Key First"
            )),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    #[test]
    fn key_separation() {
        // Different keys must produce different tags (the property the paper
        // relies on when using distinct keys k1 and k2, §5.3).
        let msg = b"ssn-encrypted-value";
        assert_ne!(hmac_sha256(b"k1", msg), hmac_sha256(b"k2", msg));
    }

    #[test]
    fn keyed_digest_differs_from_plain_digest() {
        let data = b"tuple-identifier";
        assert_ne!(hmac_sha256(b"key", data), sha256(data));
    }

    #[test]
    fn cached_midstate_matches_naive_path() {
        // The midstate-cached schedule must be byte-identical to the naive
        // per-call function across the key-length cases RFC 2104
        // distinguishes (short, exactly block-sized, longer than a block)
        // and messages spanning block boundaries.
        let keys: [&[u8]; 4] = [b"", b"k1", &[0x0b; 64], &[0xaa; 131]];
        let messages: [&[u8]; 4] = [b"", b"Hi There", &[0x42; 64], &[0x37; 200]];
        for key in keys {
            let cached = HmacKey::new(key);
            for msg in messages {
                assert_eq!(cached.digest(msg), hmac_sha256(key, msg));
            }
        }
    }

    #[test]
    fn digest_parts_equals_digest_of_concatenation() {
        let key = HmacKey::new(b"k2");
        let (a, b, c): (&[u8], &[u8], &[u8]) = (b"perm:age\x1f", b"ident-", b"bytes");
        let mut concat = a.to_vec();
        concat.extend_from_slice(b);
        concat.extend_from_slice(c);
        assert_eq!(key.digest_parts(&[a, b, c]), key.digest(&concat));
        assert_eq!(key.digest_parts(&[&concat]), key.digest(&concat));
        assert_eq!(key.digest_parts(&[]), key.digest(b""));
    }

    #[test]
    fn cached_key_is_reusable_across_messages() {
        // Reusing one HmacKey for many messages must not leak state between
        // calls: each digest equals a fresh naive computation.
        let key = HmacKey::new(b"watermark-key");
        for i in 0..32u32 {
            let msg = i.to_be_bytes();
            assert_eq!(key.digest(&msg), hmac_sha256(b"watermark-key", &msg));
        }
    }

    #[test]
    fn debug_prints_no_key_material() {
        assert_eq!(format!("{:?}", HmacKey::new(b"secret")), "HmacKey { .. }");
    }
}
