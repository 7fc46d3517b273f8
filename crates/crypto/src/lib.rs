//! # medshield-crypto
//!
//! From-scratch cryptographic primitives for the MedShield framework
//! (Bertino et al., *Privacy and Ownership Preserving of Outsourced Medical
//! Data*, ICDE 2005).
//!
//! The paper's framework requires three cryptographic building blocks:
//!
//! * `H()` — a cryptographic hash function (the paper suggests MD5 or SHA-1)
//!   used, keyed, for watermark tuple selection (Eq. 5) and for deriving the
//!   permutation indices of the hierarchical embedding (Fig. 9).
//! * `E()` — a block cipher (the paper suggests DES or AES) used for the
//!   one-to-one replacement of the identifying columns during binning
//!   (Fig. 8).
//! * `F()` — a one-way function that maps a statistic of the clear-text
//!   identifying column to the owner's mark, resolving the rightful
//!   ownership problem (§5.4).
//!
//! None of these are available in the allowed offline dependency set, so this
//! crate implements them from scratch:
//!
//! * [`md5`], [`sha1`], [`sha256`] — reference implementations validated
//!   against the RFC 1321 / FIPS 180 test vectors.
//! * [`hmac`] — HMAC over any of the provided hash functions, used as the
//!   keyed hash `H(·, k)` of the paper.
//! * [`aes`] — AES-128 with ECB (for deterministic one-to-one identifier
//!   replacement) and CTR (for general encryption) modes, validated against
//!   the FIPS 197 test vectors.
//! * [`prf`] — a convenience keyed pseudo-random function built on HMAC-SHA-256
//!   that yields `u64` values, the form in which the rest of the framework
//!   consumes `H(ti.ident, k) mod η`.
//!
//! The crate is `#![forbid(unsafe_code)]` and has no dependencies.
//!
//! ```
//! use medshield_crypto::{hex, HashAlgorithm};
//!
//! let digest = HashAlgorithm::Sha256.digest(b"abc");
//! assert_eq!(
//!     hex::encode(&digest),
//!     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad",
//! );
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod aes;
pub mod error;
pub mod hex;
pub mod hmac;
pub mod md5;
pub mod prf;
pub mod sha1;
pub mod sha256;

pub use aes::{Aes128, AesBlock};
pub use error::CryptoError;
pub use hmac::{hmac_md5, hmac_sha1, hmac_sha256, HmacKey};
pub use prf::{KeyedPrf, PrfAlgorithm};

/// The digest size, in bytes, of MD5.
pub const MD5_DIGEST_LEN: usize = 16;
/// The digest size, in bytes, of SHA-1.
pub const SHA1_DIGEST_LEN: usize = 20;
/// The digest size, in bytes, of SHA-256.
pub const SHA256_DIGEST_LEN: usize = 32;

/// The hash algorithms available to the framework, mirroring the paper's
/// "e.g. MD5 or SHA1" choice plus SHA-256 as a modern default.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HashAlgorithm {
    /// RFC 1321 MD5 (16-byte digest). Kept for fidelity with the paper.
    Md5,
    /// FIPS 180-1 SHA-1 (20-byte digest). Kept for fidelity with the paper.
    Sha1,
    /// FIPS 180-4 SHA-256 (32-byte digest). Recommended default.
    Sha256,
}

impl HashAlgorithm {
    /// Digest length in bytes for this algorithm.
    pub fn digest_len(self) -> usize {
        match self {
            HashAlgorithm::Md5 => MD5_DIGEST_LEN,
            HashAlgorithm::Sha1 => SHA1_DIGEST_LEN,
            HashAlgorithm::Sha256 => SHA256_DIGEST_LEN,
        }
    }

    /// Hash `data` with this algorithm, returning the digest as a `Vec<u8>`.
    pub fn digest(self, data: &[u8]) -> Vec<u8> {
        match self {
            HashAlgorithm::Md5 => md5::md5(data).to_vec(),
            HashAlgorithm::Sha1 => sha1::sha1(data).to_vec(),
            HashAlgorithm::Sha256 => sha256::sha256(data).to_vec(),
        }
    }

    /// Keyed (HMAC) hash of `data` under `key` with this algorithm.
    pub fn keyed_digest(self, key: &[u8], data: &[u8]) -> Vec<u8> {
        match self {
            HashAlgorithm::Md5 => hmac::hmac_md5(key, data).to_vec(),
            HashAlgorithm::Sha1 => hmac::hmac_sha1(key, data).to_vec(),
            HashAlgorithm::Sha256 => hmac::hmac_sha256(key, data).to_vec(),
        }
    }
}

impl std::fmt::Display for HashAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HashAlgorithm::Md5 => write!(f, "md5"),
            HashAlgorithm::Sha1 => write!(f, "sha1"),
            HashAlgorithm::Sha256 => write!(f, "sha256"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_lengths_match_constants() {
        assert_eq!(HashAlgorithm::Md5.digest_len(), 16);
        assert_eq!(HashAlgorithm::Sha1.digest_len(), 20);
        assert_eq!(HashAlgorithm::Sha256.digest_len(), 32);
    }

    #[test]
    fn digest_dispatch_matches_direct_calls() {
        let data = b"outsourced medical data";
        assert_eq!(HashAlgorithm::Md5.digest(data), md5::md5(data).to_vec());
        assert_eq!(HashAlgorithm::Sha1.digest(data), sha1::sha1(data).to_vec());
        assert_eq!(HashAlgorithm::Sha256.digest(data), sha256::sha256(data).to_vec());
    }

    #[test]
    fn keyed_digest_differs_from_plain_digest() {
        let data = b"tuple-identifier";
        for alg in [HashAlgorithm::Md5, HashAlgorithm::Sha1, HashAlgorithm::Sha256] {
            assert_ne!(alg.keyed_digest(b"key", data), alg.digest(data));
        }
    }

    #[test]
    fn display_names() {
        assert_eq!(HashAlgorithm::Md5.to_string(), "md5");
        assert_eq!(HashAlgorithm::Sha1.to_string(), "sha1");
        assert_eq!(HashAlgorithm::Sha256.to_string(), "sha256");
    }
}
