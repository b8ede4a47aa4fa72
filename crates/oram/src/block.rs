//! Plaintext representation of ORAM blocks and their on-storage encoding.
//!
//! A *real* block carries a logical key, the leaf the key is currently
//! mapped to, and the value payload.  A *dummy* block carries no
//! information; its only purpose is to be indistinguishable from a real
//! block once sealed.  Obladi seals every slot with
//! [`obladi_crypto::Envelope`], which pads plaintexts to a fixed capacity so
//! the two kinds are the same size on the wire; when encryption is disabled
//! (the `Parallel` series of Figure 10a measures the ORAM without crypto
//! cost) blocks are padded to the same fixed size in the clear.

use crate::codec::{Decoder, Encoder};
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{Key, Leaf, Value};

/// Sentinel key marking a dummy block.
pub const DUMMY_KEY: Key = u64::MAX;

/// A decrypted ORAM block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Logical key, or [`DUMMY_KEY`] for dummies.
    pub key: Key,
    /// Leaf the key is mapped to (meaningless for dummies).
    pub leaf: Leaf,
    /// Value payload (empty for dummies).
    pub value: Value,
}

impl Block {
    /// Creates a real block.
    pub fn real(key: Key, leaf: Leaf, value: Value) -> Self {
        debug_assert_ne!(key, DUMMY_KEY, "DUMMY_KEY is reserved");
        Block { key, leaf, value }
    }

    /// Creates a dummy block.
    pub fn dummy() -> Self {
        Block {
            key: DUMMY_KEY,
            leaf: 0,
            value: Vec::new(),
        }
    }

    /// Whether this block is a dummy.
    pub fn is_dummy(&self) -> bool {
        self.key == DUMMY_KEY
    }

    /// Plaintext encoding: `key || leaf || value` (the envelope adds its own
    /// length prefix and padding).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(Self::padded_capacity(self.value.len()));
        self.encode_into(&mut out);
        out
    }

    /// Appends the plaintext encoding to `out`.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut enc = Encoder::new(out);
        enc.put_u64(self.key);
        enc.put_u64(self.leaf);
        enc.put_bytes(&self.value);
    }

    /// Decodes a plaintext block.
    pub fn decode(bytes: &[u8]) -> Result<Block> {
        let mut dec = Decoder::new(bytes);
        let key = dec.get_u64()?;
        let leaf = dec.get_u64()?;
        let value = dec.get_bytes()?;
        dec.expect_end()?;
        Ok(Block { key, leaf, value })
    }

    /// The plaintext capacity an envelope needs for blocks whose values are
    /// at most `block_size` bytes.
    pub fn padded_capacity(block_size: usize) -> usize {
        // key (8) + leaf (8) + value length prefix (4) + payload.
        20 + block_size
    }

    /// Validates that the value fits the configured block size.
    pub fn check_size(&self, block_size: usize) -> Result<()> {
        if self.value.len() > block_size {
            return Err(ObladiError::Codec(format!(
                "value of {} bytes exceeds block size {}",
                self.value.len(),
                block_size
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_block_roundtrip() {
        let block = Block::real(42, 7, vec![1, 2, 3, 4]);
        let decoded = Block::decode(&block.encode()).unwrap();
        assert_eq!(decoded, block);
        assert!(!decoded.is_dummy());
    }

    #[test]
    fn dummy_block_roundtrip() {
        let block = Block::dummy();
        let decoded = Block::decode(&block.encode()).unwrap();
        assert!(decoded.is_dummy());
        assert!(decoded.value.is_empty());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Block::decode(&[1, 2, 3]).is_err());
        let mut good = Block::real(1, 1, vec![9; 10]).encode();
        good.push(0);
        assert!(Block::decode(&good).is_err(), "trailing byte must fail");
    }

    #[test]
    fn padded_capacity_covers_max_value() {
        let block = Block::real(5, 5, vec![0u8; 128]);
        assert!(block.encode().len() <= Block::padded_capacity(128));
        let empty = Block::real(5, 5, vec![]);
        assert!(empty.encode().len() <= Block::padded_capacity(128));
    }

    #[test]
    fn size_check() {
        let block = Block::real(1, 1, vec![0u8; 64]);
        assert!(block.check_size(64).is_ok());
        assert!(block.check_size(63).is_err());
    }
}
