//! Proxy key material and sub-key derivation.
//!
//! The proxy holds two long-term secrets (an encryption key and a MAC key,
//! §Appendix A).  Both are derived from a single master secret so tests and
//! recovery only need to persist one value.  Derivation is HKDF-style:
//! `subkey = HMAC(master, label)`.

use crate::hmac::HmacSha256;
use crate::random;

/// The proxy's long-term secrets.
///
/// These survive proxy crashes (the paper assumes cryptographic keys are the
/// only proxy state that is not volatile, §B.1) and are therefore stored
/// outside the proxy's in-memory state.
#[derive(Clone)]
pub struct KeyMaterial {
    master: [u8; 32],
    enc_key: [u8; 32],
    mac_key: [u8; 32],
}

impl KeyMaterial {
    /// Derives key material from a 32-byte master secret.
    pub fn from_master(master: [u8; 32]) -> Self {
        let kdf = HmacSha256::new(&master);
        KeyMaterial {
            master,
            enc_key: kdf.mac(b"obladi:encryption-key:v1"),
            mac_key: kdf.mac(b"obladi:mac-key:v1"),
        }
    }

    /// Generates fresh random key material from the OS RNG (through this
    /// thread's keystream, see `random.rs`).
    pub fn generate() -> Self {
        let mut master = [0u8; 32];
        random::fill(&mut master);
        KeyMaterial::from_master(master)
    }

    /// Deterministic key material for tests and reproducible benchmarks.
    pub fn for_tests(seed: u64) -> Self {
        let mut master = [0u8; 32];
        master[..8].copy_from_slice(&seed.to_le_bytes());
        master[8..16].copy_from_slice(&seed.wrapping_mul(0x9E37_79B9).to_le_bytes());
        KeyMaterial::from_master(master)
    }

    /// The master secret (persist this to survive proxy crashes).
    pub fn master(&self) -> &[u8; 32] {
        &self.master
    }

    /// The ChaCha20 encryption key.
    pub fn enc_key(&self) -> &[u8; 32] {
        &self.enc_key
    }

    /// The HMAC key.
    pub fn mac_key(&self) -> &[u8; 32] {
        &self.mac_key
    }
}

impl std::fmt::Debug for KeyMaterial {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // Never print secrets.
        f.debug_struct("KeyMaterial").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let a = KeyMaterial::from_master([7u8; 32]);
        let b = KeyMaterial::from_master([7u8; 32]);
        assert_eq!(a.enc_key(), b.enc_key());
        assert_eq!(a.mac_key(), b.mac_key());
    }

    #[test]
    fn subkeys_differ_from_each_other_and_master() {
        let keys = KeyMaterial::from_master([9u8; 32]);
        assert_ne!(keys.enc_key(), keys.mac_key());
        assert_ne!(keys.enc_key(), keys.master());
        assert_ne!(keys.mac_key(), keys.master());
    }

    #[test]
    fn generate_produces_distinct_keys() {
        let a = KeyMaterial::generate();
        let b = KeyMaterial::generate();
        assert_ne!(a.master(), b.master());
    }

    #[test]
    fn test_keys_depend_on_seed() {
        assert_ne!(
            KeyMaterial::for_tests(1).enc_key(),
            KeyMaterial::for_tests(2).enc_key()
        );
        assert_eq!(
            KeyMaterial::for_tests(3).mac_key(),
            KeyMaterial::for_tests(3).mac_key()
        );
    }

    #[test]
    fn debug_does_not_leak_secrets() {
        let keys = KeyMaterial::for_tests(4);
        let printed = format!("{keys:?}");
        assert!(!printed.contains("enc_key"));
        assert_eq!(printed, "KeyMaterial { .. }");
    }
}
