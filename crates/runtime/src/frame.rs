//! Length-prefixed framing over byte streams.
//!
//! The socket executor ([`crate::socket`]) ships [`crate::wire::Wire`]
//! payloads over TCP, which delivers a byte *stream*, not messages; this
//! module restores message boundaries. A frame is a LEB128 varint length
//! followed by that many payload bytes — the same varint the wire codec
//! uses everywhere else, so a frame header costs 1 byte for payloads
//! under 128 bytes.
//!
//! Decoding is **total and incremental**: [`FrameDecoder`] accepts bytes
//! in arbitrary chunks (partial TCP reads included), yields complete
//! frames as they materialize, and rejects hostile input (oversized
//! lengths, overlong varints) with a structured [`WireError`] — it never
//! panics, which the runtime property suite enforces on arbitrary byte
//! streams.

use std::io::{Read, Write};

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::RunError;
use crate::wire::{put_varint, varint_len, WireError};

/// Maximum accepted frame payload length. Guards the decoder against
/// hostile or corrupted length prefixes; far above any legitimate frame
/// (the largest are round inboxes, `O(n · |msg|)` bytes).
pub const MAX_FRAME_LEN: u64 = 1 << 28;

/// Encodes one frame (header + payload) into a fresh buffer.
pub fn encode_frame(payload: &[u8]) -> Bytes {
    let mut buf = BytesMut::with_capacity(varint_len(payload.len() as u64) + payload.len());
    put_varint(&mut buf, payload.len() as u64);
    buf.put_slice(payload);
    buf.freeze()
}

/// Writes one frame to `w` and flushes it.
///
/// # Errors
///
/// Propagates the underlying I/O error.
pub fn write_frame<W: Write>(w: &mut W, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Parses a varint from the front of `buf` without consuming it.
/// `Ok(None)` means the buffer ends mid-varint (feed more bytes).
fn peek_varint(buf: &[u8]) -> Result<Option<(u64, usize)>, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in buf.iter().enumerate() {
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(Some((v, i + 1)));
        }
        shift += 7;
    }
    if buf.len() >= 10 {
        // Ten continuation bytes with no terminator can only ever
        // overflow; fail now rather than waiting for an 11th byte.
        return Err(WireError::VarintOverflow);
    }
    Ok(None)
}

/// Incremental frame parser: feed bytes with [`FrameDecoder::extend`] in
/// whatever chunks the stream produces, drain complete frames with
/// [`FrameDecoder::next_frame`].
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        FrameDecoder::default()
    }

    /// Appends freshly-read stream bytes (possibly a partial frame).
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet yielded as a frame.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }

    /// The next complete frame's payload, `Ok(None)` if more bytes are
    /// needed.
    ///
    /// # Errors
    ///
    /// Returns [`WireError`] for an overlong length varint or a length
    /// beyond [`MAX_FRAME_LEN`]; the decoder is poisoned conceptually
    /// (the stream cannot be resynchronized) and the caller should drop
    /// the connection.
    pub fn next_frame(&mut self) -> Result<Option<Bytes>, WireError> {
        let Some((len, header)) = peek_varint(&self.buf)? else {
            return Ok(None);
        };
        if len > MAX_FRAME_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        let len = usize::try_from(len).map_err(|_| WireError::LengthOverflow(len))?;
        let total = header + len;
        if self.buf.len() < total {
            return Ok(None);
        }
        let payload = Bytes::from(&self.buf[header..total]);
        self.buf.drain(..total);
        Ok(Some(payload))
    }
}

/// Reads one complete frame from `r`, resuming across however many
/// partial reads the stream needs.
///
/// # Errors
///
/// [`RunError::Frame`] for malformed framing, [`RunError::Disconnected`]
/// if the stream ends cleanly between or inside frames, [`RunError::Io`]
/// for transport errors (including read timeouts).
pub fn read_frame<R: Read>(
    r: &mut R,
    decoder: &mut FrameDecoder,
    context: &'static str,
    worker: usize,
) -> Result<Bytes, RunError> {
    let mut chunk = [0u8; 16 * 1024];
    loop {
        if let Some(frame) = decoder
            .next_frame()
            .map_err(|error| RunError::Frame { context, error })?
        {
            return Ok(frame);
        }
        let n = r.read(&mut chunk).map_err(|e| RunError::io(context, &e))?;
        if n == 0 {
            return Err(RunError::Disconnected { context, worker });
        }
        decoder.extend(&chunk[..n]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_single_frame() {
        let frame = encode_frame(b"hello");
        let mut dec = FrameDecoder::new();
        dec.extend(&frame);
        assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"hello");
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 0);
    }

    #[test]
    fn empty_payload_frames_are_legal() {
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(b""));
        dec.extend(&encode_frame(b"x"));
        assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"");
        assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"x");
    }

    #[test]
    fn byte_at_a_time_resumes_cleanly() {
        let mut stream = Vec::new();
        let payloads: [&[u8]; 3] = [b"", b"ab", &[7u8; 300]];
        for p in payloads {
            stream.extend_from_slice(&encode_frame(p));
        }
        let mut dec = FrameDecoder::new();
        let mut out: Vec<Vec<u8>> = Vec::new();
        for b in stream {
            dec.extend(&[b]);
            while let Some(f) = dec.next_frame().unwrap() {
                out.push(f.to_vec());
            }
        }
        assert_eq!(out.len(), 3);
        assert_eq!(out[2], vec![7u8; 300]);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, MAX_FRAME_LEN + 1);
        let mut dec = FrameDecoder::new();
        dec.extend(&buf);
        assert!(matches!(
            dec.next_frame(),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn overlong_varint_header_rejected() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0x80; 10]);
        assert!(matches!(dec.next_frame(), Err(WireError::VarintOverflow)));
    }

    #[test]
    fn incomplete_header_and_payload_want_more() {
        let mut dec = FrameDecoder::new();
        dec.extend(&[0x80]); // continuation bit, varint unfinished
        assert_eq!(dec.next_frame().unwrap(), None);
        let mut dec = FrameDecoder::new();
        dec.extend(&encode_frame(&[1, 2, 3])[..2]); // header + 1 of 3 bytes
        assert_eq!(dec.next_frame().unwrap(), None);
        assert_eq!(dec.pending(), 2);
    }

    #[test]
    fn read_frame_survives_dribbled_reads() {
        /// A reader that hands out one byte per `read` call — the worst
        /// legal TCP behaviour.
        struct Dribble(Vec<u8>, usize);
        impl Read for Dribble {
            fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
                if self.1 >= self.0.len() || out.is_empty() {
                    return Ok(0);
                }
                out[0] = self.0[self.1];
                self.1 += 1;
                Ok(1)
            }
        }
        let mut stream = encode_frame(b"first").to_vec();
        stream.extend_from_slice(&encode_frame(b"second"));
        let mut r = Dribble(stream, 0);
        let mut dec = FrameDecoder::new();
        assert_eq!(&read_frame(&mut r, &mut dec, "t", 0).unwrap()[..], b"first");
        assert_eq!(
            &read_frame(&mut r, &mut dec, "t", 0).unwrap()[..],
            b"second"
        );
        assert!(matches!(
            read_frame(&mut r, &mut dec, "t", 4),
            Err(RunError::Disconnected { worker: 4, .. })
        ));
    }

    #[test]
    fn write_frame_then_decode() {
        let mut sink: Vec<u8> = Vec::new();
        write_frame(&mut sink, b"payload").unwrap();
        let mut dec = FrameDecoder::new();
        dec.extend(&sink);
        assert_eq!(&dec.next_frame().unwrap().unwrap()[..], b"payload");
    }
}
