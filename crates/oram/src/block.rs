//! Plaintext representation of ORAM blocks and their on-storage encoding.
//!
//! A block carries a logical key, the leaf the key is currently mapped to,
//! and the value payload.  Only real blocks exist: a dummy slot is never
//! opened, so it holds no block at all — fresh keystream bytes of a sealed
//! slot's length ([`obladi_crypto::Envelope::fill_dummy`]), or zeros when
//! encryption is disabled (the `Parallel` series of Figure 10a measures the
//! ORAM without crypto cost), where real blocks are padded to the same
//! fixed size in the clear.  An opened slot is a real block by construction.

use crate::codec::{Decoder, Encoder};
use obladi_common::error::{ObladiError, Result};
use obladi_common::types::{Key, Leaf, Value};

/// A decrypted ORAM block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Block {
    /// Logical key.
    pub key: Key,
    /// Leaf the key is mapped to.
    pub leaf: Leaf,
    /// Value payload.
    pub value: Value,
}

impl Block {
    /// Creates a real block.
    pub fn real(key: Key, leaf: Leaf, value: Value) -> Self {
        Block { key, leaf, value }
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
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Block::decode(&[1, 2, 3]).is_err());
        // What a clear-mode dummy slot holds behind its length prefix.
        assert!(Block::decode(&[]).is_err());
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
