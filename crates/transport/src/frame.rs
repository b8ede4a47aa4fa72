//! The framed wire protocol: length-prefixed, versioned frames carrying
//! [`StoreRequest`](obladi_storage::StoreRequest) /
//! [`StoreResponse`](obladi_storage::StoreResponse) payloads.
//!
//! A connection starts with a fixed-size *hello* (`b"OBLD"` magic plus a
//! little-endian protocol version) in each direction; a version mismatch is
//! detected before any frame is parsed, so two incompatible peers can never
//! misinterpret each other's bytes.  After the handshake the stream is a
//! sequence of frames:
//!
//! ```text
//! ┌──────────┬──────────────┬────────┬────────────────┐
//! │ len: u32 │ request: u64 │ op: u8 │ payload bytes  │
//! └──────────┴──────────────┴────────┴────────────────┘
//!   len = 9 + payload.len(), little-endian throughout
//! ```
//!
//! The request id correlates pipelined responses with their requests (the
//! client keeps many frames in flight; the server may only answer in
//! order, but the contract is by-id).  The opcode duplicates the payload's
//! leading tag byte so a desynchronised stream is caught at the framing
//! layer instead of producing a plausible-but-wrong message.
//!
//! [`FrameDecoder`] is incremental: bytes arrive in arbitrary splits (TCP
//! segments, short reads) and frames are yielded exactly when complete.  A
//! torn trailing frame — the bytes a dead peer never finished sending — is
//! reported by [`FrameDecoder::finish`] without ever desynchronising the
//! frames before it.

use bytes::Bytes;
use obladi_common::error::{ObladiError, Result};

/// Magic bytes opening every connection.
pub const MAGIC: [u8; 4] = *b"OBLD";

/// Protocol version spoken by this build.
pub const PROTOCOL_VERSION: u16 = 1;

/// Size of the hello exchanged in each direction.
pub const HELLO_LEN: usize = 6;

/// Frame header size after the length prefix: request id + opcode (the
/// trace recorder sizes frames by the same constant).
const FRAME_HEADER: usize = obladi_storage::proto::FRAME_OVERHEAD - 4;

/// Upper bound on one frame's length field: the wire payload maximum plus
/// framing overhead.  Anything larger is a desynchronised or hostile peer.
pub const MAX_FRAME: u32 = (obladi_storage::proto::MAX_WIRE_LEN as u32) + (1 << 16);

/// One frame: a correlation id, an opcode and an opaque payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Client-chosen request id, echoed by the response.
    pub id: u64,
    /// Opcode tag (must match the payload's leading byte).
    pub opcode: u8,
    /// Message payload (a full `StoreRequest` / `StoreResponse` encoding).
    pub payload: Bytes,
}

impl Frame {
    /// Frames a message payload, reading the opcode from its tag byte.
    pub fn for_message(id: u64, payload: Vec<u8>) -> Result<Frame> {
        let opcode = *payload
            .first()
            .ok_or_else(|| ObladiError::Codec("cannot frame an empty message".into()))?;
        Ok(Frame {
            id,
            opcode,
            payload: Bytes::from(payload),
        })
    }
}

/// The hello sent by each side at connection open.
pub fn encode_hello(version: u16) -> [u8; HELLO_LEN] {
    let mut hello = [0u8; HELLO_LEN];
    hello[..4].copy_from_slice(&MAGIC);
    hello[4..].copy_from_slice(&version.to_le_bytes());
    hello
}

/// Parses a received hello, returning the peer's protocol version.
///
/// A bad magic is a hard `Codec` error (the peer is not speaking this
/// protocol at all); the version is returned for the caller to judge, so
/// the mismatch diagnostic can name both versions.
pub fn parse_hello(hello: &[u8; HELLO_LEN]) -> Result<u16> {
    if hello[..4] != MAGIC {
        return Err(ObladiError::Codec(format!(
            "bad protocol magic {:02X?} (expected {:02X?})",
            &hello[..4],
            MAGIC
        )));
    }
    Ok(u16::from_le_bytes(hello[4..].try_into().unwrap()))
}

/// Appends the encoding of `frame` to `buf`.
pub fn encode_frame(buf: &mut Vec<u8>, frame: &Frame) {
    let len = (FRAME_HEADER + frame.payload.len()) as u32;
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(&frame.id.to_le_bytes());
    buf.push(frame.opcode);
    buf.extend_from_slice(&frame.payload);
}

/// Incremental frame decoder over an in-order byte stream.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    consumed: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Feeds newly received bytes.
    pub fn extend(&mut self, data: &[u8]) {
        // Compact lazily: copying the undecoded remainder once the consumed
        // prefix dominates keeps the buffer bounded without per-frame moves.
        if self.consumed > 0 && self.consumed >= self.buf.len() / 2 {
            self.buf.drain(..self.consumed);
            self.consumed = 0;
        }
        self.buf.extend_from_slice(data);
    }

    /// Yields the next complete frame, `None` if more bytes are needed.
    ///
    /// A structurally invalid frame (length below the header size, length
    /// above [`MAX_FRAME`], opcode disagreeing with the payload tag) is a
    /// `Codec` error; the stream is unrecoverable past it by design — a
    /// framing layer that "resynchronises" against an untrusted peer is an
    /// injection vector.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        let avail = &self.buf[self.consumed..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(avail[..4].try_into().unwrap());
        if len < FRAME_HEADER as u32 {
            return Err(ObladiError::Codec(format!(
                "frame length {len} below header size"
            )));
        }
        if len > MAX_FRAME {
            return Err(ObladiError::Codec(format!(
                "frame length {len} exceeds maximum {MAX_FRAME}"
            )));
        }
        let total = 4 + len as usize;
        if avail.len() < total {
            return Ok(None);
        }
        let id = u64::from_le_bytes(avail[4..12].try_into().unwrap());
        let opcode = avail[12];
        let payload = &avail[13..total];
        match payload.first() {
            Some(&tag) if tag == opcode => {}
            Some(&tag) => {
                return Err(ObladiError::Codec(format!(
                    "frame opcode 0x{opcode:02X} disagrees with payload tag 0x{tag:02X}: \
                     stream desynchronised"
                )))
            }
            None => return Err(ObladiError::Codec("frame carries an empty payload".into())),
        }
        let frame = Frame {
            id,
            opcode,
            payload: Bytes::from(payload.to_vec()),
        };
        self.consumed += total;
        Ok(Some(frame))
    }

    /// Number of buffered, not-yet-decoded bytes.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.consumed
    }

    /// Declares end-of-stream: any buffered remainder is a torn trailing
    /// frame the peer never finished sending.
    pub fn finish(&self) -> Result<()> {
        match self.buffered() {
            0 => Ok(()),
            torn => Err(ObladiError::Codec(format!(
                "stream ended inside a frame ({torn} torn trailing bytes)"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(id: u64, payload: &[u8]) -> Frame {
        Frame {
            id,
            opcode: payload[0],
            payload: Bytes::from(payload.to_vec()),
        }
    }

    #[test]
    fn hello_round_trip_and_bad_magic() {
        let hello = encode_hello(PROTOCOL_VERSION);
        assert_eq!(parse_hello(&hello).unwrap(), PROTOCOL_VERSION);
        let mut bad = hello;
        bad[0] = b'X';
        assert!(parse_hello(&bad).is_err());
    }

    #[test]
    fn frames_round_trip_under_byte_by_byte_delivery() {
        let frames = [
            frame(1, &[0x0C]),
            frame(u64::MAX, b"\x08some wal record"),
            frame(0, &[0x84]),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            encode_frame(&mut wire, f);
        }
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for byte in wire {
            decoder.extend(&[byte]);
            while let Some(f) = decoder.next_frame().unwrap() {
                decoded.push(f);
            }
        }
        assert_eq!(decoded, frames);
        decoder.finish().unwrap();
    }

    #[test]
    fn torn_trailing_frame_is_reported_without_desync() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, &frame(7, b"\x01whole"));
        encode_frame(&mut wire, &frame(8, b"\x02torn"));
        let cut = wire.len() - 3;
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire[..cut]);
        let first = decoder.next_frame().unwrap().unwrap();
        assert_eq!(first.id, 7);
        assert_eq!(decoder.next_frame().unwrap(), None);
        assert!(decoder.finish().is_err());
    }

    #[test]
    fn oversized_and_undersized_lengths_are_rejected() {
        let mut decoder = FrameDecoder::new();
        decoder.extend(&(MAX_FRAME + 1).to_le_bytes());
        assert!(decoder.next_frame().is_err());

        let mut decoder = FrameDecoder::new();
        decoder.extend(&3u32.to_le_bytes());
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn opcode_payload_disagreement_is_rejected() {
        let mut wire = Vec::new();
        encode_frame(&mut wire, &frame(1, b"\x05abc"));
        wire[12] = 0x06; // flip the header opcode away from the payload tag
        let mut decoder = FrameDecoder::new();
        decoder.extend(&wire);
        assert!(decoder.next_frame().is_err());
    }

    #[test]
    fn for_message_reads_tag() {
        let f = Frame::for_message(3, vec![0x0E]).unwrap();
        assert_eq!(f.opcode, 0x0E);
        assert!(Frame::for_message(3, Vec::new()).is_err());
    }
}
