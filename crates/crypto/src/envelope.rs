//! Authenticated, location-bound encryption envelopes for ORAM blocks.
//!
//! Every piece of data Obladi sends to untrusted storage — bucket contents,
//! checkpoint deltas, the padded stash, read-path logs — is wrapped in an
//! envelope that provides:
//!
//! 1. **Confidentiality**: ChaCha20 with a fresh random nonce per seal, so
//!    re-encrypting the same plaintext yields an unrelated ciphertext
//!    ("randomized encryption", §4).
//! 2. **Indistinguishability**: plaintexts are padded to a fixed size before
//!    sealing, so every block seals to one length; a slot that is never
//!    opened (a Ring ORAM dummy) is that many fresh keystream bytes instead
//!    ([`Envelope::fill_dummy`]), which only the keys tell apart.
//! 3. **Integrity and freshness** (Appendix A): an HMAC over
//!    `location || counter || nonce || ciphertext` lets the proxy detect a
//!    malicious server substituting stale or relocated data.  `location`
//!    identifies the storage slot (bucket id / log record id), `counter` is
//!    the epoch or read-batch counter from the trusted counter `F_epc`.

use crate::chacha20::ChaCha20;
use crate::hmac::HmacSha256;
use crate::keys::KeyMaterial;
use crate::random;
use obladi_common::error::{ObladiError, Result};

/// Length of the MAC tag appended to each envelope.
pub const TAG_LEN: usize = 32;
/// Length of the nonce prepended to each envelope.
pub const NONCE_LEN: usize = 12;
/// Length prefix encoding the true payload size inside the padded plaintext.
const LEN_PREFIX: usize = 4;
/// Where the plaintext sits in a buffer handed to
/// [`Envelope::seal_in_place`]: behind the nonce and the length prefix.
pub const PLAINTEXT_OFFSET: usize = NONCE_LEN + LEN_PREFIX;

/// A sealed (encrypted + authenticated) block as stored on the server.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SealedBlock {
    /// Raw envelope bytes: `nonce || ciphertext || tag`.
    pub bytes: Vec<u8>,
}

impl SealedBlock {
    /// Total size of the sealed representation.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the envelope is empty (never true for well-formed blocks).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }
}

/// Seals and opens blocks with the proxy's [`KeyMaterial`].
#[derive(Clone)]
pub struct Envelope {
    cipher: ChaCha20,
    hmac: HmacSha256,
}

impl Envelope {
    /// Creates an envelope codec from key material.
    pub fn new(keys: &KeyMaterial) -> Self {
        Envelope {
            cipher: ChaCha20::new(keys.enc_key()),
            hmac: HmacSha256::new(keys.mac_key()),
        }
    }

    /// Sealed size for a given padded plaintext capacity.
    pub fn sealed_len(padded_capacity: usize) -> usize {
        NONCE_LEN + LEN_PREFIX + padded_capacity + TAG_LEN
    }

    /// Seals `plaintext`, padding it to `padded_capacity` bytes and binding
    /// the ciphertext to `(location, counter)`.
    ///
    /// Returns an error if the plaintext does not fit in the capacity.
    pub fn seal(
        &self,
        location: u64,
        counter: u64,
        plaintext: &[u8],
        padded_capacity: usize,
    ) -> Result<SealedBlock> {
        let mut bytes = Vec::with_capacity(Self::sealed_len(padded_capacity));
        bytes.extend_from_slice(&[0u8; PLAINTEXT_OFFSET]);
        bytes.extend_from_slice(plaintext);
        bytes.resize(Self::sealed_len(padded_capacity), 0);
        self.seal_in_place(location, counter, &mut bytes, plaintext.len())?;
        Ok(SealedBlock { bytes })
    }

    /// Seals a block where it lies.  `buf` is the whole envelope,
    /// `nonce || length || capacity || tag` — [`Envelope::sealed_len`] of
    /// the capacity — in which the caller has written `plaintext_len` bytes
    /// of plaintext at [`PLAINTEXT_OFFSET`]; whatever else it holds is
    /// overwritten.  The envelope draws the nonce, writes the length
    /// prefix, zeroes the rest of the capacity, encrypts and appends the
    /// tag, all inside `buf`: the bytes [`Envelope::seal`] would have
    /// returned, without the copies.
    ///
    /// Returns an error if the plaintext does not fit in the capacity.
    pub fn seal_in_place(
        &self,
        location: u64,
        counter: u64,
        buf: &mut [u8],
        plaintext_len: usize,
    ) -> Result<()> {
        let mut nonce = [0u8; NONCE_LEN];
        random::fill(&mut nonce);
        self.seal_in_place_with_nonce(location, counter, buf, plaintext_len, &nonce)
    }

    /// [`Envelope::seal_in_place`] with the nonce supplied: the one sealing
    /// implementation, and what the golden-fixture tests re-seal through.
    fn seal_in_place_with_nonce(
        &self,
        location: u64,
        counter: u64,
        buf: &mut [u8],
        plaintext_len: usize,
        nonce: &[u8; NONCE_LEN],
    ) -> Result<()> {
        let capacity = buf
            .len()
            .checked_sub(Self::sealed_len(0))
            .filter(|capacity| plaintext_len <= *capacity)
            .ok_or_else(|| {
                ObladiError::Codec(format!(
                    "plaintext of {plaintext_len} bytes exceeds the padded capacity of a {}-byte \
                     envelope",
                    buf.len()
                ))
            })?;
        let length = u32::try_from(plaintext_len)
            .map_err(|_| ObladiError::Codec("plaintext longer than u32::MAX".into()))?;

        let (sealed, tag) = buf.split_at_mut(PLAINTEXT_OFFSET + capacity);
        sealed[..NONCE_LEN].copy_from_slice(nonce);
        sealed[NONCE_LEN..PLAINTEXT_OFFSET].copy_from_slice(&length.to_le_bytes());
        sealed[PLAINTEXT_OFFSET + plaintext_len..].fill(0);
        self.cipher
            .apply_keystream(nonce, 1, &mut sealed[NONCE_LEN..]);
        // The MAC covers `location || counter || nonce || ciphertext`.
        let mac = self.hmac.mac_parts(&[&binding(location, counter), sealed]);
        tag.copy_from_slice(&mac);
        Ok(())
    }

    /// Fills `buf` with fresh keystream bytes: what a slot nobody opens (a
    /// dummy) holds instead of an envelope.  Sound because a sealed slot —
    /// CSPRNG nonce, ChaCha20 ciphertext, HMAC tag — is computationally
    /// indistinguishable from uniform bytes of its length, which the caller
    /// keeps; Appendix A never verified an unopened slot's MAC (opening these
    /// fails); and real slots seal as before, so old stores still recover.
    pub fn fill_dummy(buf: &mut [u8]) {
        random::fill(buf);
    }

    /// Opens a sealed block, verifying the MAC against `(location, counter)`.
    pub fn open(&self, location: u64, counter: u64, sealed: &SealedBlock) -> Result<Vec<u8>> {
        self.open_bytes(location, counter, &sealed.bytes)
    }

    /// [`Envelope::open`] over borrowed bytes — a slot or WAL record as the
    /// store returned it.  The MAC is verified on `sealed` as it lies; only
    /// an authentic body is copied out and decrypted.
    pub fn open_bytes(&self, location: u64, counter: u64, sealed: &[u8]) -> Result<Vec<u8>> {
        if sealed.len() < Self::sealed_len(0) {
            return Err(ObladiError::Codec(format!(
                "sealed block too short: {} bytes",
                sealed.len()
            )));
        }
        let (nonce_and_ciphertext, tag) = sealed.split_at(sealed.len() - TAG_LEN);
        let authentic = self
            .hmac
            .verify_parts(&[&binding(location, counter), nonce_and_ciphertext], tag);
        if !authentic {
            return Err(ObladiError::Integrity(format!(
                "MAC verification failed for location {location} counter {counter}"
            )));
        }

        let (nonce, body) = nonce_and_ciphertext.split_at(NONCE_LEN);
        let nonce: &[u8; NONCE_LEN] = nonce.try_into().expect("split at NONCE_LEN");
        let mut plain = body.to_vec();
        self.cipher.apply_keystream(nonce, 1, &mut plain);

        let capacity = plain.len() - LEN_PREFIX;
        let len = u32::from_le_bytes([plain[0], plain[1], plain[2], plain[3]]) as usize;
        if len > capacity {
            return Err(ObladiError::Codec(format!(
                "corrupt length prefix {len} for body of {capacity}"
            )));
        }
        plain.copy_within(LEN_PREFIX..LEN_PREFIX + len, 0);
        plain.truncate(len);
        Ok(plain)
    }
}

/// `location || counter`, the part of the MAC input that is not stored.
fn binding(location: u64, counter: u64) -> [u8; 16] {
    let mut binding = [0u8; 16];
    binding[..8].copy_from_slice(&location.to_le_bytes());
    binding[8..].copy_from_slice(&counter.to_le_bytes());
    binding
}

impl std::fmt::Debug for Envelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Envelope").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn envelope() -> Envelope {
        Envelope::new(&KeyMaterial::for_tests(42))
    }

    #[test]
    fn roundtrip_preserves_plaintext() {
        let env = envelope();
        let sealed = env.seal(5, 9, b"hello obladi", 64).unwrap();
        let opened = env.open(5, 9, &sealed).unwrap();
        assert_eq!(opened, b"hello obladi");
    }

    #[test]
    fn sealed_size_is_independent_of_payload_length() {
        let env = envelope();
        let a = env.seal(1, 1, b"", 128).unwrap();
        let b = env.seal(1, 1, &[7u8; 128], 128).unwrap();
        let c = env.seal(1, 1, b"short", 128).unwrap();
        assert_eq!(a.len(), b.len());
        assert_eq!(b.len(), c.len());
        assert_eq!(a.len(), Envelope::sealed_len(128));
    }

    #[test]
    fn sealing_is_randomized() {
        let env = envelope();
        let a = env.seal(3, 3, b"same plaintext", 64).unwrap();
        let b = env.seal(3, 3, b"same plaintext", 64).unwrap();
        assert_ne!(a, b, "two seals of identical data must differ");
    }

    #[test]
    fn oversized_plaintext_is_rejected() {
        let env = envelope();
        assert!(env.seal(0, 0, &[0u8; 65], 64).is_err());
    }

    #[test]
    fn wrong_location_or_counter_fails_verification() {
        let env = envelope();
        let sealed = env.seal(10, 20, b"secret", 32).unwrap();
        assert!(env.open(10, 20, &sealed).is_ok());
        assert!(matches!(
            env.open(11, 20, &sealed),
            Err(ObladiError::Integrity(_))
        ));
        assert!(matches!(
            env.open(10, 21, &sealed),
            Err(ObladiError::Integrity(_))
        ));
    }

    #[test]
    fn tampered_ciphertext_is_rejected() {
        let env = envelope();
        let mut sealed = env.seal(1, 2, b"payload", 32).unwrap();
        let mid = sealed.bytes.len() / 2;
        sealed.bytes[mid] ^= 0xff;
        assert!(matches!(
            env.open(1, 2, &sealed),
            Err(ObladiError::Integrity(_))
        ));
    }

    #[test]
    fn wrong_key_cannot_open() {
        let env = envelope();
        let other = Envelope::new(&KeyMaterial::for_tests(43));
        let sealed = env.seal(1, 1, b"data", 32).unwrap();
        assert!(other.open(1, 1, &sealed).is_err());
    }

    #[test]
    fn a_dummy_fill_is_fresh_every_time_and_never_opens() {
        let env = envelope();
        let mut a = vec![0u8; Envelope::sealed_len(64)];
        let mut b = a.clone();
        Envelope::fill_dummy(&mut a);
        Envelope::fill_dummy(&mut b);
        assert_ne!(a, b);
        assert!(matches!(
            env.open_bytes(1, 1, &a),
            Err(ObladiError::Integrity(_))
        ));
    }

    #[test]
    fn truncated_envelope_is_rejected_gracefully() {
        let env = envelope();
        let sealed = SealedBlock {
            bytes: vec![0u8; 10],
        };
        assert!(matches!(
            env.open(0, 0, &sealed),
            Err(ObladiError::Codec(_))
        ));
    }

    #[test]
    fn sealing_in_place_overwrites_whatever_the_buffer_held() {
        let env = envelope();
        let plaintext = b"written where it is sealed";
        let nonce = [0x5Au8; NONCE_LEN];
        for capacity in [plaintext.len(), 64, 212] {
            // Whatever the buffer held before — stale nonce, padding, tag —
            // must not reach the result.
            let mut in_place = vec![0xEEu8; Envelope::sealed_len(capacity)];
            in_place[PLAINTEXT_OFFSET..PLAINTEXT_OFFSET + plaintext.len()]
                .copy_from_slice(plaintext);
            env.seal_in_place_with_nonce(7, 8, &mut in_place, plaintext.len(), &nonce)
                .unwrap();

            let mut clean = vec![0u8; Envelope::sealed_len(capacity)];
            clean[PLAINTEXT_OFFSET..PLAINTEXT_OFFSET + plaintext.len()].copy_from_slice(plaintext);
            env.seal_in_place_with_nonce(7, 8, &mut clean, plaintext.len(), &nonce)
                .unwrap();
            assert_eq!(in_place, clean, "capacity {capacity}");
            assert_eq!(env.open_bytes(7, 8, &in_place).unwrap(), plaintext);
        }
        let mut short = vec![0u8; Envelope::sealed_len(0) - 1];
        assert!(env.seal_in_place(1, 1, &mut short, 0).is_err());
        let mut tight = vec![0u8; Envelope::sealed_len(4)];
        assert!(env.seal_in_place(1, 1, &mut tight, 5).is_err());
    }

    /// One blob sealed by the parent commit's `Envelope::seal` (PR 13,
    /// `90a72c4`, scalar kernels, copying implementation) under
    /// `KeyMaterial::for_tests(0xF1C5)`.
    struct Golden {
        name: &'static str,
        location: u64,
        counter: u64,
        capacity: usize,
        plaintext: Vec<u8>,
        sealed: Vec<u8>,
    }

    /// `fixtures/envelope_parent.txt`: one blob per line as
    /// `name location counter capacity plaintext_len salt hex`, the
    /// plaintext being byte `i` = `31 * i + salt`.
    fn golden() -> Vec<Golden> {
        include_str!("../fixtures/envelope_parent.txt")
            .lines()
            .map(|line| {
                let fields: Vec<&'static str> = line.split(' ').collect();
                let number = |i: usize| fields[i].parse::<u64>().expect("numeric field");
                let salt = number(5) as u8;
                Golden {
                    name: fields[0],
                    location: number(1),
                    counter: number(2),
                    capacity: number(3) as usize,
                    plaintext: (0..number(4) as usize)
                        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(salt))
                        .collect(),
                    sealed: crate::test_util::unhex(fields[6]),
                }
            })
            .collect()
    }

    fn golden_envelope() -> Envelope {
        Envelope::new(&KeyMaterial::for_tests(0xF1C5))
    }

    #[test]
    fn blobs_sealed_by_the_parent_commit_open_and_reseal_byte_for_byte() {
        let env = golden_envelope();
        let blobs = golden();
        let names: Vec<&str> = blobs.iter().map(|blob| blob.name).collect();
        assert_eq!(names, ["slot", "bulk", "empty"]);
        for blob in blobs {
            assert_eq!(
                blob.sealed.len(),
                Envelope::sealed_len(blob.capacity),
                "{}",
                blob.name
            );
            let opened = env
                .open_bytes(blob.location, blob.counter, &blob.sealed)
                .unwrap();
            assert_eq!(opened, blob.plaintext, "{} opens", blob.name);

            let nonce: [u8; NONCE_LEN] = blob.sealed[..NONCE_LEN].try_into().unwrap();
            let mut resealed = vec![0u8; blob.sealed.len()];
            resealed[PLAINTEXT_OFFSET..PLAINTEXT_OFFSET + blob.plaintext.len()]
                .copy_from_slice(&blob.plaintext);
            env.seal_in_place_with_nonce(
                blob.location,
                blob.counter,
                &mut resealed,
                blob.plaintext.len(),
                &nonce,
            )
            .unwrap();
            assert!(
                resealed == blob.sealed,
                "{} re-seals identically",
                blob.name
            );
        }
    }

    #[test]
    fn one_flipped_bit_anywhere_in_a_parent_blob_fails_integrity() {
        let env = golden_envelope();
        let blob = golden().into_iter().find(|b| b.name == "slot").unwrap();
        let end = blob.sealed.len();
        let regions = [
            ("nonce", 0..NONCE_LEN),
            ("length prefix", NONCE_LEN..PLAINTEXT_OFFSET),
            (
                "body",
                PLAINTEXT_OFFSET..PLAINTEXT_OFFSET + blob.plaintext.len(),
            ),
            (
                "padding",
                PLAINTEXT_OFFSET + blob.plaintext.len()..end - TAG_LEN,
            ),
            ("tag", end - TAG_LEN..end),
        ];
        for (region, bytes) in regions {
            assert!(!bytes.is_empty(), "{region} is part of the blob");
            for at in bytes {
                for bit in 0..8 {
                    let mut tampered = blob.sealed.clone();
                    tampered[at] ^= 1 << bit;
                    assert!(
                        matches!(
                            env.open_bytes(blob.location, blob.counter, &tampered),
                            Err(ObladiError::Integrity(_))
                        ),
                        "{region} byte {at} bit {bit}"
                    );
                }
            }
        }
    }
}
