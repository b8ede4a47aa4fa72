//! HMAC-SHA-256 (RFC 2104 / RFC 4231).
//!
//! Appendix A of the paper extends Obladi to a malicious storage server by
//! attaching a MAC to every value written to the cloud, keyed by a secret
//! only the proxy knows and covering the value, its location and a freshness
//! counter.  This module provides that MAC.

use crate::sha256::Sha256;

const BLOCK_SIZE: usize = 64;
const IPAD: u8 = 0x36;
const OPAD: u8 = 0x5c;

/// HMAC-SHA-256 instance bound to one key.
///
/// Holds the two hashers *after* they absorbed the padded key
/// (`key ^ ipad`, `key ^ opad`), so a MAC costs the message's own
/// compressions plus one for the outer hash, not two more for the key.
#[derive(Clone)]
pub struct HmacSha256 {
    inner: Sha256,
    outer: Sha256,
}

impl HmacSha256 {
    /// Creates an HMAC instance from an arbitrary-length key.
    pub fn new(key: &[u8]) -> Self {
        HmacSha256::keyed(key, Sha256::new)
    }

    /// An instance pinned to the portable SHA-256 block function (see
    /// [`Sha256::portable`]).
    pub fn portable(key: &[u8]) -> Self {
        HmacSha256::keyed(key, Sha256::portable)
    }

    fn keyed(key: &[u8], hasher: fn() -> Sha256) -> Self {
        let mut normalized = [0u8; BLOCK_SIZE];
        if key.len() > BLOCK_SIZE {
            let mut digest = hasher();
            digest.update(key);
            normalized[..32].copy_from_slice(&digest.finalize());
        } else {
            normalized[..key.len()].copy_from_slice(key);
        }
        let midstate = |pad: u8| {
            let mut state = hasher();
            state.update(&normalized.map(|byte| byte ^ pad));
            state
        };
        HmacSha256 {
            inner: midstate(IPAD),
            outer: midstate(OPAD),
        }
    }

    /// Computes the MAC over `parts` concatenated in order.
    ///
    /// Accepting multiple parts avoids allocating a contiguous buffer for
    /// `location || counter || ciphertext` on every bucket write.
    pub fn mac_parts(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }

    /// Computes the MAC of a single message.
    pub fn mac(&self, message: &[u8]) -> [u8; 32] {
        self.mac_parts(&[message])
    }

    /// Verifies a MAC in constant time with respect to the tag contents.
    pub fn verify(&self, message: &[u8], tag: &[u8]) -> bool {
        self.verify_parts(&[message], tag)
    }

    /// Verifies a MAC computed over multiple parts.
    pub fn verify_parts(&self, parts: &[&[u8]], tag: &[u8]) -> bool {
        let expected = self.mac_parts(parts);
        constant_time_eq(&expected, tag)
    }
}

/// Constant-time byte-slice comparison (length leaks, contents do not).
fn constant_time_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (x, y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{hex, unhex};

    /// RFC 4231 test cases 1-7 as `(key, data, HMAC-SHA-256)`; case 5's
    /// expected value is the RFC's 128-bit truncation.
    fn rfc4231() -> Vec<(Vec<u8>, Vec<u8>, &'static str)> {
        vec![
            (
                vec![0x0b; 20],
                b"Hi There".to_vec(),
                "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7",
            ),
            (
                b"Jefe".to_vec(),
                b"what do ya want for nothing?".to_vec(),
                "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843",
            ),
            (
                vec![0xaa; 20],
                vec![0xdd; 50],
                "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe",
            ),
            (
                unhex("0102030405060708090a0b0c0d0e0f10111213141516171819"),
                vec![0xcd; 50],
                "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b",
            ),
            (
                vec![0x0c; 20],
                b"Test With Truncation".to_vec(),
                "a3b6167473100ee06e0c796c2955552b",
            ),
            (
                vec![0xaa; 131],
                b"Test Using Larger Than Block-Size Key - Hash Key First".to_vec(),
                "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54",
            ),
            (
                vec![0xaa; 131],
                b"This is a test using a larger than block-size key and a larger than \
block-size data. The key needs to be hashed before being used by the HMAC algorithm."
                    .to_vec(),
                "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2",
            ),
        ]
    }

    #[test]
    fn rfc4231_cases_on_both_paths() {
        for (case, (key, data, expected)) in rfc4231().into_iter().enumerate() {
            for (path, hmac) in [
                ("selected", HmacSha256::new(&key)),
                ("portable", HmacSha256::portable(&key)),
            ] {
                let mac = hex(&hmac.mac(&data));
                assert_eq!(&mac[..expected.len()], expected, "case {} {path}", case + 1);
            }
        }
    }

    #[test]
    fn parts_equivalent_to_concatenation() {
        let hmac = HmacSha256::new(b"key material");
        let whole = hmac.mac(b"abcdef");
        let parts = hmac.mac_parts(&[b"ab", b"cd", b"ef"]);
        assert_eq!(whole, parts);
    }

    #[test]
    fn verify_accepts_valid_and_rejects_tampered() {
        let hmac = HmacSha256::new(b"secret");
        let tag = hmac.mac(b"payload");
        assert!(hmac.verify(b"payload", &tag));
        assert!(!hmac.verify(b"payl0ad", &tag));
        let mut bad_tag = tag;
        bad_tag[0] ^= 1;
        assert!(!hmac.verify(b"payload", &bad_tag));
        assert!(!hmac.verify(b"payload", &tag[..31]));
    }
}
