//! Minimal binary encoding helpers.
//!
//! Checkpoints, path logs and block payloads are serialized with a small
//! hand-rolled codec (length-prefixed little-endian fields) rather than an
//! external serialization crate, keeping the on-storage format explicit and
//! the dependency set within the allowed list.

use obladi_common::error::{ObladiError, Result};

/// Append-only encoder over a caller-owned buffer.
///
/// Every `encode_into` in this crate appends to the `Vec` it is handed, so
/// a checkpoint or path log is written exactly once, straight into the
/// buffer the durability layer seals in place and frames for the WAL —
/// behind whatever header bytes that layer reserved up front.
#[derive(Debug)]
pub struct Encoder<'a> {
    buf: &'a mut Vec<u8>,
}

impl<'a> Encoder<'a> {
    /// Continues `buf`: everything is appended behind what it holds.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        Encoder { buf }
    }

    /// Appends a `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a single byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a boolean as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Appends a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Appends `len` zero bytes behind their length prefix (padding values).
    pub fn put_zeroed_bytes(&mut self, len: usize) {
        self.put_u32(len as u32);
        self.buf.resize(self.buf.len() + len, 0);
    }

    /// Appends a length-prefixed section written by `section` in place: the
    /// same bytes as `put_bytes(&encoded_section)`, without encoding the
    /// section somewhere else first.
    pub fn put_section(&mut self, section: impl FnOnce(&mut Encoder<'_>)) {
        self.put_padded_section(0, section)
    }

    /// Like [`Encoder::put_section`], zero-filled behind what `section`
    /// wrote to `len` bytes, so the section's length says nothing of how
    /// much of it is real.  A section that wrote more keeps its length.
    pub fn put_padded_section(&mut self, len: usize, section: impl FnOnce(&mut Encoder<'_>)) {
        let prefix_at = self.buf.len();
        self.put_u32(0);
        section(self);
        let end = self.buf.len().max(prefix_at + 4 + len);
        self.buf.resize(end, 0);
        let len = (end - prefix_at - 4) as u32;
        self.buf[prefix_at..prefix_at + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// Sequential decoder over a byte slice.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// Creates a decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(ObladiError::Codec(format!(
                "decode overrun: need {n} bytes at offset {} of {}",
                self.pos,
                self.buf.len()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u64`.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads a `u32`.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a boolean.
    pub fn get_bool(&mut self) -> Result<bool> {
        Ok(self.get_u8()? != 0)
    }

    /// Reads a length-prefixed byte slice.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_slice()?.to_vec())
    }

    /// Reads a length-prefixed byte slice without copying it (a nested
    /// section handed to its own decoder).
    pub fn get_slice(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()? as usize;
        self.take(len)
    }

    /// Number of bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Returns an error unless the buffer has been fully consumed.
    pub fn expect_end(&self) -> Result<()> {
        if self.remaining() != 0 {
            return Err(ObladiError::Codec(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_types() {
        let mut bytes = Vec::new();
        let mut enc = Encoder::new(&mut bytes);
        enc.put_u64(0xDEAD_BEEF_1234_5678);
        enc.put_u32(77);
        enc.put_u8(3);
        enc.put_bool(true);
        enc.put_bool(false);
        enc.put_bytes(b"hello");
        enc.put_bytes(b"");

        let mut dec = Decoder::new(&bytes);
        assert_eq!(dec.get_u64().unwrap(), 0xDEAD_BEEF_1234_5678);
        assert_eq!(dec.get_u32().unwrap(), 77);
        assert_eq!(dec.get_u8().unwrap(), 3);
        assert!(dec.get_bool().unwrap());
        assert!(!dec.get_bool().unwrap());
        assert_eq!(dec.get_bytes().unwrap(), b"hello");
        assert_eq!(dec.get_bytes().unwrap(), b"");
        dec.expect_end().unwrap();
    }

    #[test]
    fn overrun_is_detected() {
        let mut bytes = Vec::new();
        Encoder::new(&mut bytes).put_u32(5);
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_u64().is_err());
    }

    #[test]
    fn trailing_bytes_are_detected() {
        let mut bytes = Vec::new();
        let mut enc = Encoder::new(&mut bytes);
        enc.put_u32(1);
        enc.put_u32(2);
        let mut dec = Decoder::new(&bytes);
        dec.get_u32().unwrap();
        assert!(dec.expect_end().is_err());
        dec.get_u32().unwrap();
        dec.expect_end().unwrap();
    }

    #[test]
    fn corrupt_length_prefix_fails_cleanly() {
        let mut bytes = Vec::new();
        Encoder::new(&mut bytes).put_bytes(b"abc");
        // Claim a huge length.
        bytes[0] = 0xff;
        bytes[1] = 0xff;
        let mut dec = Decoder::new(&bytes);
        assert!(dec.get_bytes().is_err());
    }

    #[test]
    fn encoder_appends_behind_a_reserved_prefix() {
        let mut bytes = vec![0xEE; 9];
        Encoder::new(&mut bytes).put_u8(1);
        assert_eq!(bytes, [&[0xEE; 9][..], &[1]].concat());
    }

    #[test]
    fn sections_and_zeroed_bytes_equal_their_copying_forms() {
        let mut inner = Vec::new();
        let mut enc = Encoder::new(&mut inner);
        enc.put_u64(7);
        enc.put_bytes(&[0u8; 5]);
        let mut copied = vec![0xAB];
        Encoder::new(&mut copied).put_bytes(&inner);

        let mut in_place = vec![0xAB];
        Encoder::new(&mut in_place).put_section(|enc| {
            enc.put_u64(7);
            enc.put_zeroed_bytes(5);
        });
        assert_eq!(in_place, copied);
    }
}
