//! Property-based tests of the cryptographic primitives.

use medshield_crypto::{aes::Aes128, hex, hmac, sha256, HmacKey, KeyedPrf};
use proptest::prelude::*;

proptest! {
    /// Hex encoding round-trips for arbitrary byte strings.
    #[test]
    fn hex_roundtrip(data in prop::collection::vec(any::<u8>(), 0..256)) {
        let encoded = hex::encode(&data);
        prop_assert_eq!(hex::decode(&encoded).unwrap(), data);
    }

    /// AES-128 block encryption is invertible for every key/block pair.
    #[test]
    fn aes_block_roundtrip(key in prop::collection::vec(any::<u8>(), 16..=16),
                           block in prop::collection::vec(any::<u8>(), 16..=16)) {
        let cipher = Aes128::new(&key).unwrap();
        let mut b = [0u8; 16];
        b.copy_from_slice(&block);
        let original = b;
        cipher.encrypt_block(&mut b);
        // Encryption is (overwhelmingly) not the identity.
        cipher.decrypt_block(&mut b);
        prop_assert_eq!(b, original);
    }

    /// The deterministic value encryption used for identifiers round-trips
    /// and never produces the same ciphertext for different plaintexts.
    #[test]
    fn aes_value_roundtrip(secret in prop::collection::vec(any::<u8>(), 1..32),
                           a in prop::collection::vec(any::<u8>(), 0..64),
                           b in prop::collection::vec(any::<u8>(), 0..64)) {
        let cipher = Aes128::from_secret(&secret);
        let ca = cipher.encrypt_value(&a);
        prop_assert_eq!(cipher.decrypt_value(&ca).unwrap(), a.clone());
        let cb = cipher.encrypt_value(&b);
        if a != b {
            prop_assert_ne!(ca, cb);
        } else {
            prop_assert_eq!(ca, cb);
        }
    }

    /// CTR mode is an involution for arbitrary lengths.
    #[test]
    fn aes_ctr_involution(secret in prop::collection::vec(any::<u8>(), 1..32),
                          nonce in prop::collection::vec(any::<u8>(), 16..=16),
                          data in prop::collection::vec(any::<u8>(), 0..200)) {
        let cipher = Aes128::from_secret(&secret);
        let mut n = [0u8; 16];
        n.copy_from_slice(&nonce);
        let ct = cipher.ctr_crypt(&n, &data);
        prop_assert_eq!(cipher.ctr_crypt(&n, &ct), data);
    }

    /// Streaming hashing equals one-shot hashing regardless of chunking.
    #[test]
    fn streaming_equals_one_shot(data in prop::collection::vec(any::<u8>(), 0..500),
                                 chunk in 1usize..97) {
        let mut h = sha256::Sha256::new();
        for c in data.chunks(chunk) {
            h.update(c);
        }
        prop_assert_eq!(h.finalize(), sha256::sha256(&data));
    }

    /// The cached key schedule equals the one-shot reference, for keys on
    /// both sides of the hash-the-key branch (longer than 64 bytes or not)
    /// and for a message streamed in two parts split anywhere.
    #[test]
    fn hmac_key_matches_one_shot(key in prop::collection::vec(any::<u8>(), 0..=200),
                                 msg in prop::collection::vec(any::<u8>(), 0..200),
                                 split in any::<usize>()) {
        let cached = HmacKey::new(&key);
        let expected = hmac::hmac_sha256(&key, &msg);
        let (a, b) = msg.split_at(split % (msg.len() + 1));
        prop_assert_eq!(cached.digest(&msg), expected);
        prop_assert_eq!(cached.digest_parts(&[a, b]), expected);
    }

    /// HMAC differs between keys and between messages (no trivial collisions
    /// on random inputs).
    #[test]
    fn hmac_separates_keys_and_messages(k1 in prop::collection::vec(any::<u8>(), 1..40),
                                        k2 in prop::collection::vec(any::<u8>(), 1..40),
                                        msg in prop::collection::vec(any::<u8>(), 0..100)) {
        if k1 != k2 {
            prop_assert_ne!(hmac::hmac_sha256(&k1, &msg), hmac::hmac_sha256(&k2, &msg));
        }
    }

    /// The keyed PRF stays within the requested modulus and is deterministic.
    #[test]
    fn prf_is_bounded_and_deterministic(key in prop::collection::vec(any::<u8>(), 1..32),
                                        data in prop::collection::vec(any::<u8>(), 0..64),
                                        modulus in 1u64..10_000) {
        let prf = KeyedPrf::new(&key);
        let v = prf.value_mod(&data, modulus);
        prop_assert!(v < modulus);
        prop_assert_eq!(v, prf.value_mod(&data, modulus));
    }

    /// Decrypting a value never panics: it succeeds exactly when the
    /// decrypted length prefix fits in the bytes that follow it.
    #[test]
    fn decrypt_value_is_total(secret in prop::collection::vec(any::<u8>(), 1..32),
                              prefix in prop_oneof![0u64..64, any::<u64>()],
                              tail in prop::collection::vec(any::<u8>(), 0..56)) {
        let cipher = Aes128::from_secret(&secret);
        let mut plain = prefix.to_be_bytes().to_vec();
        plain.extend_from_slice(&tail);
        plain.resize(plain.len().next_multiple_of(16), 0);
        let available = plain.len() - 8;
        let ciphertext = hex::encode(&cipher.ecb_encrypt(&plain).unwrap());
        let fits = usize::try_from(prefix).is_ok_and(|len| len <= available);
        prop_assert_eq!(cipher.decrypt_value(&ciphertext).is_ok(), fits);
    }
}
