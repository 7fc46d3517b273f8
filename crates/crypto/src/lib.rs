//! # medshield-crypto
//!
//! From-scratch cryptographic primitives for the MedShield framework
//! (Bertino et al., *Privacy and Ownership Preserving of Outsourced Medical
//! Data*, ICDE 2005).
//!
//! The paper's framework requires three cryptographic building blocks:
//!
//! * `H()` — a cryptographic hash function used, keyed, for watermark tuple
//!   selection (Eq. 5) and for deriving the permutation indices of the
//!   hierarchical embedding (Fig. 9). The paper names MD5 and SHA-1 only as
//!   examples; this crate commits to SHA-256.
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
//! * [`sha256`] — SHA-256 validated against the FIPS 180-4 test vectors.
//! * [`hmac`] — HMAC-SHA-256 (RFC 2104, validated against RFC 4231), used as
//!   the keyed hash `H(·, k)` of the paper.
//! * [`aes`] — AES-128 with ECB (for deterministic one-to-one identifier
//!   replacement) and CTR (for general encryption) modes, validated against
//!   the FIPS 197 test vectors.
//! * [`prf`] — a keyed pseudo-random function built on HMAC-SHA-256 that
//!   yields integer values, the form in which the rest of the framework
//!   consumes `H(ti.ident, k) mod η`.
//!
//! The crate is `#![forbid(unsafe_code)]` and has no dependencies.
//!
//! ```
//! use medshield_crypto::{hex, sha256};
//!
//! let digest = sha256::sha256(b"abc");
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
pub mod prf;
pub mod sha256;

pub use aes::{Aes128, AesBlock};
pub use error::CryptoError;
pub use hmac::{hmac_sha256, HmacKey};
pub use prf::KeyedPrf;
