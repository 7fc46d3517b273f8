//! Error type shared by the cryptographic primitives.

/// Errors raised by the `medshield-crypto` primitives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// The supplied key has a length that the algorithm cannot accept.
    InvalidKeyLength {
        /// Length that was expected by the algorithm.
        expected: usize,
        /// Length that was actually supplied.
        actual: usize,
    },
    /// Ciphertext or plaintext length is not a multiple of the block size
    /// (for block modes that require exact blocks, such as ECB).
    InvalidBlockLength {
        /// The cipher block size in bytes.
        block: usize,
        /// The offending input length.
        actual: usize,
    },
    /// A hex string could not be decoded.
    InvalidHex(String),
    /// A decrypted value's length prefix claims more bytes than follow it
    /// (a forged ciphertext, or one decrypted under the wrong key).
    InvalidLengthPrefix {
        /// The length the prefix declares.
        declared: u64,
        /// The bytes that actually follow the prefix.
        available: usize,
    },
}

impl std::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CryptoError::InvalidKeyLength { expected, actual } => {
                write!(f, "invalid key length: expected {expected} bytes, got {actual}")
            }
            CryptoError::InvalidBlockLength { block, actual } => {
                write!(f, "input length {actual} is not a multiple of the {block}-byte block size")
            }
            CryptoError::InvalidHex(s) => write!(f, "invalid hex string: {s}"),
            CryptoError::InvalidLengthPrefix { declared, available } => {
                write!(f, "length prefix {declared} exceeds the {available} bytes that follow it")
            }
        }
    }
}

impl std::error::Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = CryptoError::InvalidKeyLength { expected: 16, actual: 7 };
        assert!(e.to_string().contains("expected 16"));
        let e = CryptoError::InvalidBlockLength { block: 16, actual: 17 };
        assert!(e.to_string().contains("16-byte block"));
        let e = CryptoError::InvalidHex("zz".into());
        assert!(e.to_string().contains("zz"));
        let e = CryptoError::InvalidLengthPrefix { declared: 99, available: 8 };
        assert!(e.to_string().contains("99 exceeds the 8 bytes"));
    }

    #[test]
    fn error_is_std_error() {
        fn assert_err<E: std::error::Error>(_e: &E) {}
        assert_err(&CryptoError::InvalidHex("x".into()));
    }
}
