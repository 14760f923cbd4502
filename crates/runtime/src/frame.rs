//! Length-prefixed framing over byte streams.
//!
//! The socket executor ([`crate::socket`]) ships [`crate::wire::Wire`]
//! payloads over TCP, which delivers a byte *stream*, not messages; this
//! module restores message boundaries. A frame is a LEB128 varint length
//! followed by that many payload bytes — the same varint the wire codec
//! uses everywhere else, so a frame header costs 1 byte for payloads
//! under 128 bytes.
//!
//! [`write_frame`] builds each frame in place in a buffer its link
//! reuses: the payload is encoded once, behind room reserved for the
//! header, and the frame leaves in one write. [`read_frame`] reads one
//! frame through a [`BufRead`] — the socket carrier's
//! [`std::io::BufReader`] — so a frame split across partial reads
//! resumes cleanly. Reading is **total**: hostile input (oversized
//! lengths, overlong varints) is a structured [`RunError::Frame`], never
//! a panic, and a hostile length sizes no large allocation — the
//! payload buffer grows only as bytes arrive. The runtime property
//! suite enforces both on arbitrary byte streams.

use std::io::{BufRead, Read, Write};

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::RunError;
use crate::wire::{varint_len, WireError};

/// Maximum accepted frame payload length. Guards the reader against
/// hostile or corrupted length prefixes; far above any legitimate frame
/// (the largest are round inboxes, `O(n · |msg|)` bytes).
pub const MAX_FRAME_LEN: u64 = 1 << 28;

/// Header room [`write_frame`] reserves ahead of every payload: the
/// longest legal header.
const HEADER_ROOM: usize = varint_len(MAX_FRAME_LEN);

/// The most [`read_frame`] reserves for a payload before its bytes
/// arrive; a longer frame's buffer grows as they do.
const RESERVE_CAP: usize = 1 << 20;

/// Builds one frame in `buf` and writes it to `w` with one `write_all`.
///
/// `buf` is cleared (keeping its capacity), `encode` appends the payload
/// behind 5 reserved bytes (the varint of [`MAX_FRAME_LEN`], the
/// longest legal header), and the length goes right-aligned into that
/// room, so the payload is never copied and a reused `buf` allocates
/// nothing in steady state.
///
/// # Errors
///
/// An [`std::io::ErrorKind::InvalidInput`] error, with nothing written,
/// for a payload over [`MAX_FRAME_LEN`]; otherwise the underlying I/O
/// error.
pub fn write_frame(
    w: &mut impl Write,
    buf: &mut BytesMut,
    encode: impl FnOnce(&mut BytesMut),
) -> std::io::Result<()> {
    buf.clear();
    buf.put_slice(&[0; HEADER_ROOM]);
    encode(buf);
    let len = (buf.len() - HEADER_ROOM) as u64;
    if len > MAX_FRAME_LEN {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            WireError::LengthOverflow(len),
        ));
    }
    let start = HEADER_ROOM - varint_len(len);
    let mut rest = len;
    for byte in &mut buf[start..HEADER_ROOM] {
        *byte = (rest & 0x7f) as u8 | 0x80;
        rest >>= 7;
    }
    buf[HEADER_ROOM - 1] &= 0x7f;
    w.write_all(&buf[start..])?;
    w.flush()
}

/// Reads one frame's payload from `r`, resuming across however many
/// partial reads the stream needs. The header is read a byte at a time
/// out of `r`'s buffer; the payload's buffer reserves at most 1 MiB and
/// grows only as its bytes arrive, so a hostile length sizes no large
/// allocation.
///
/// # Errors
///
/// [`RunError::Frame`] for malformed framing — ten continuation bytes
/// ([`WireError::VarintOverflow`], without waiting for an eleventh) or a
/// length over [`MAX_FRAME_LEN`] ([`WireError::LengthOverflow`]);
/// [`RunError::Disconnected`] if the stream ends between or inside
/// frames; [`RunError::Io`] for transport errors (including read
/// timeouts).
pub fn read_frame(
    r: &mut impl BufRead,
    context: &'static str,
    worker: usize,
) -> Result<Bytes, RunError> {
    let failed = |e: std::io::Error| match e.kind() {
        std::io::ErrorKind::UnexpectedEof => RunError::Disconnected { context, worker },
        _ => RunError::io(context, &e),
    };
    let frame = |error| RunError::Frame { context, error };
    let mut declared = 0u64;
    let mut shift = 0;
    loop {
        let mut byte = [0u8];
        r.read_exact(&mut byte).map_err(failed)?;
        declared |= u64::from(byte[0] & 0x7f) << shift;
        if byte[0] & 0x80 == 0 {
            break;
        }
        shift += 7;
        if shift > 63 {
            // Ten continuation bytes can only ever overflow: fail now
            // rather than waiting for an eleventh.
            return Err(frame(WireError::VarintOverflow));
        }
    }
    let len = usize::try_from(declared)
        .ok()
        .filter(|_| declared <= MAX_FRAME_LEN)
        .ok_or(frame(WireError::LengthOverflow(declared)))?;
    let mut payload = Vec::with_capacity(len.min(RESERVE_CAP));
    r.take(declared).read_to_end(&mut payload).map_err(failed)?;
    if payload.len() < len {
        return Err(RunError::Disconnected { context, worker });
    }
    Ok(Bytes::from(payload))
}

#[cfg(test)]
mod tests {
    use std::io::BufReader;

    use super::*;
    use crate::wire::put_varint;

    /// `payloads`, framed back to back by [`write_frame`].
    fn stream(payloads: &[&[u8]]) -> Vec<u8> {
        let (mut out, mut buf) = (Vec::new(), BytesMut::new());
        for p in payloads {
            write_frame(&mut out, &mut buf, |b| b.put_slice(p)).unwrap();
        }
        out
    }

    /// Reads frames from `r` until one fails, returning the payloads and
    /// the failure.
    fn read_all(mut r: impl BufRead) -> (Vec<Vec<u8>>, RunError) {
        let mut out = Vec::new();
        loop {
            match read_frame(&mut r, "t", 3) {
                Ok(frame) => out.push(frame.to_vec()),
                Err(e) => return (out, e),
            }
        }
    }

    const END: RunError = RunError::Disconnected {
        context: "t",
        worker: 3,
    };

    #[test]
    fn roundtrip_single_frame() {
        let bytes = stream(&[b"hello"]);
        assert_eq!(bytes, b"\x05hello");
        assert_eq!(read_all(&bytes[..]), (vec![b"hello".to_vec()], END));
    }

    #[test]
    fn empty_payload_frames_are_legal() {
        let bytes = stream(&[b"", b"x"]);
        assert_eq!(bytes, b"\x00\x01x");
        assert_eq!(read_all(&bytes[..]), (vec![vec![], b"x".to_vec()], END));
    }

    #[test]
    fn byte_at_a_time_resumes_cleanly() {
        let bytes = stream(&[b"", b"ab", &[7u8; 300]]);
        // A 300-byte payload takes a two-byte header.
        assert_eq!(bytes[4..6], [0xac, 0x02]);
        let one_byte_buffer = BufReader::with_capacity(1, &bytes[..]);
        let (frames, end) = read_all(one_byte_buffer);
        assert_eq!(frames, vec![vec![], b"ab".to_vec(), vec![7u8; 300]]);
        assert_eq!(end, END);
    }

    #[test]
    fn oversized_length_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, MAX_FRAME_LEN + 1);
        assert_eq!(
            read_frame(&mut &buf[..], "t", 0),
            Err(RunError::Frame {
                context: "t",
                error: WireError::LengthOverflow(MAX_FRAME_LEN + 1)
            })
        );
    }

    #[test]
    fn overlong_varint_header_rejected() {
        // Ten continuation bytes fail at once: the stream ends there, so
        // waiting for an eleventh would read as a disconnect instead.
        let bytes = [0x80; 10];
        assert_eq!(
            read_frame(&mut &bytes[..], "t", 0),
            Err(RunError::Frame {
                context: "t",
                error: WireError::VarintOverflow
            })
        );
    }

    #[test]
    fn incomplete_header_and_payload_read_as_a_disconnect() {
        // Cut inside a header (a continuation bit, the varint
        // unfinished), inside a payload (one of its three bytes) and
        // between frames: each cut stream yields its complete frames,
        // then `Disconnected`, never a wrong payload.
        let bytes = stream(&[b"ok", &[1, 2, 3]]);
        let ok = || vec![b"ok".to_vec()];
        for (cut, frames) in [
            (&[0x80][..], vec![]),
            (&bytes[..5], ok()),
            (&bytes[..3], ok()),
        ] {
            assert_eq!(read_all(cut), (frames, END));
        }
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
        let dribble = Dribble(stream(&[b"first", b"second"]), 0);
        let (frames, end) = read_all(BufReader::new(dribble));
        assert_eq!(frames, vec![b"first".to_vec(), b"second".to_vec()]);
        assert_eq!(end, END);
    }

    #[test]
    fn write_frame_then_decode() {
        // One reused buffer frames payloads whose headers take one byte
        // and three.
        let long = vec![9u8; 1 << 14];
        let mut buf = BytesMut::new();
        let mut sink = Vec::new();
        for p in [&b"payload"[..], &long, b""] {
            write_frame(&mut sink, &mut buf, |b| b.put_slice(p)).unwrap();
        }
        assert_eq!(sink[..8], *b"\x07payload");
        assert_eq!(sink[8..11], [0x80, 0x80, 0x01]);
        let (frames, end) = read_all(&sink[..]);
        assert_eq!(frames, vec![b"payload".to_vec(), long, vec![]]);
        assert_eq!(end, END);
    }
}
