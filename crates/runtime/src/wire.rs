//! Compact binary wire format for message-size accounting.
//!
//! The paper's complexity claims are about *round* complexity, but §1 also
//! motivates the parallel-contact model by bandwidth limits, so the
//! reproduction accounts bits on the wire (experiment E11). Every protocol
//! message implements [`Wire`]; the engines sum [`Wire::encoded_len`] over
//! delivered messages. On both wire executors a worker answers its
//! broadcasts encoded, in one buffer; the socket executor also encodes
//! each `Deliver` inbox into its frames, while the threaded executor
//! hands inboxes to its workers by `Arc`, never encoded.
//!
//! Integers use LEB128 varints so that a path message costs
//! `O(depth · log n)` bits, matching the analytical message size.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::error::Error;
use std::fmt;

/// Error returned when decoding malformed wire bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the value was complete.
    UnexpectedEnd,
    /// A varint ran longer than 10 bytes (more than 64 bits).
    VarintOverflow,
    /// An enum discriminant byte was not recognized.
    BadTag(u8),
    /// A declared length prefix exceeds the sanity limit.
    LengthOverflow(u64),
    /// Trailing bytes remained after a complete decode.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEnd => write!(f, "unexpected end of wire buffer"),
            WireError::VarintOverflow => write!(f, "varint longer than 64 bits"),
            WireError::BadTag(t) => write!(f, "unrecognized message tag {t}"),
            WireError::LengthOverflow(l) => write!(f, "declared length {l} exceeds limit"),
            WireError::TrailingBytes(k) => write!(f, "{k} trailing bytes after decode"),
        }
    }
}

impl Error for WireError {}

/// Maximum element count accepted in a length-prefixed sequence. Guards the
/// decoder against hostile length prefixes; generous enough for `n = 2^24`.
pub const MAX_SEQ_LEN: u64 = 1 << 26;

/// Generation number of the message encodings built on this codec.
///
/// Bump whenever any message's byte layout changes, and regenerate the
/// golden frame fixtures (`crates/runtime/tests/wire_fixtures.rs`) in the
/// same change. The socket executor pins the version in its worker
/// handshake, so peers from different format generations fail loudly at
/// connection time instead of mis-decoding frames.
///
/// History: **v1** — candidate paths as start node + step count +
/// direction bits; **v2** — candidate paths as a single packed
/// *(leaf, length)* varint key (the `PackedPath` representation),
/// version-pinned handshake.
pub const WIRE_FORMAT_VERSION: u64 = 2;

/// Writes `v` as a LEB128 varint.
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Reads a LEB128 varint.
///
/// # Errors
///
/// Returns [`WireError::UnexpectedEnd`] if the buffer is exhausted and
/// [`WireError::VarintOverflow`] if the encoding exceeds 64 bits.
pub fn get_varint(buf: &mut Bytes) -> Result<u64, WireError> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let byte = buf.get_u8();
        if shift >= 64 {
            return Err(WireError::VarintOverflow);
        }
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

/// The number of bytes `v` occupies as a varint.
///
/// # Examples
///
/// ```
/// use bil_runtime::wire::varint_len;
/// assert_eq!(varint_len(0), 1);
/// assert_eq!(varint_len(127), 1);
/// assert_eq!(varint_len(128), 2);
/// assert_eq!(varint_len(u64::MAX), 10);
/// ```
pub const fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    ((64 - v.leading_zeros()) as usize).div_ceil(7)
}

/// Appends `msg` length-prefixed: its [`Wire::encoded_len`] as a varint,
/// then its encoding. [`get_sized`] reads it back.
pub fn put_sized<M: Wire>(buf: &mut BytesMut, msg: &M) {
    put_varint(buf, msg.encoded_len() as u64);
    msg.encode(buf);
}

/// Reads one length-prefixed message written by [`put_sized`], decoding
/// it straight from `buf` rather than from a slice of its own.
///
/// # Errors
///
/// [`WireError::UnexpectedEnd`] if the declared length runs past the
/// end of `buf` or the message runs past its declared length, and
/// [`WireError::TrailingBytes`] if it ends short of it — the errors a
/// decode confined to exactly those bytes gives — or any decode error
/// met inside them.
pub fn get_sized<M: Wire>(buf: &mut Bytes) -> Result<M, WireError> {
    let len = get_varint(buf)?;
    let len = usize::try_from(len).map_err(|_| WireError::LengthOverflow(len))?;
    let left = buf.remaining();
    if len > left {
        return Err(WireError::UnexpectedEnd);
    }
    let msg = M::decode(buf);
    // However the decode ended, past the declared end a confined decode
    // would have run out of bytes first.
    let used = left - buf.remaining();
    match msg {
        _ if used > len => Err(WireError::UnexpectedEnd),
        Ok(_) if used < len => Err(WireError::TrailingBytes(len - used)),
        msg => msg,
    }
}

/// A type with a compact, self-delimiting binary encoding.
///
/// Implementations must round-trip: `decode(encode(x)) == x`, consuming
/// exactly `encoded_len(x)` bytes.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decodes one value from the front of `buf`.
    ///
    /// # Errors
    ///
    /// Returns a [`WireError`] if the bytes are malformed or truncated.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// The exact number of bytes [`Wire::encode`] appends.
    fn encoded_len(&self) -> usize {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.len()
    }

    /// Encodes into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_len());
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decodes a value that must occupy the entire buffer.
    ///
    /// # Errors
    ///
    /// Returns [`WireError::TrailingBytes`] if bytes remain after decoding,
    /// or any decode error.
    fn from_bytes(bytes: Bytes) -> Result<Self, WireError> {
        let mut buf = bytes;
        let v = Self::decode(&mut buf)?;
        if buf.has_remaining() {
            return Err(WireError::TrailingBytes(buf.remaining()));
        }
        Ok(v)
    }
}

impl Wire for u64 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        get_varint(buf)
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Wire for u32 {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, *self as u64);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let v = get_varint(buf)?;
        u32::try_from(v).map_err(|_| WireError::LengthOverflow(v))
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.len() as u64);
        for item in self {
            item.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = get_varint(buf)?;
        if len > MAX_SEQ_LEN {
            return Err(WireError::LengthOverflow(len));
        }
        let len = usize::try_from(len).map_err(|_| WireError::LengthOverflow(len))?;
        // Clamp the preallocation to what the buffer could possibly hold
        // (each element is ≥ 1 encoded byte): honest frames reserve
        // exactly `len`, while a hostile length prefix on a truncated
        // frame cannot amplify into a large speculative allocation.
        let mut out = Vec::with_capacity(len.min(buf.remaining()));
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Wire::encoded_len).sum::<usize>()
    }
}

impl Wire for crate::ids::Label {
    fn encode(&self, buf: &mut BytesMut) {
        put_varint(buf, self.0);
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(crate::ids::Label(get_varint(buf)?))
    }

    fn encoded_len(&self) -> usize {
        varint_len(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Label;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(bytes.len(), v.encoded_len(), "encoded_len mismatch");
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 255, 16384, u32::MAX as u64, u64::MAX] {
            roundtrip(v);
        }
    }

    #[test]
    fn varint_len_matches_encoding() {
        for v in [0u64, 5, 127, 128, 1 << 14, (1 << 14) - 1, 1 << 21, u64::MAX] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len(), varint_len(v), "v = {v}");
        }
    }

    #[test]
    fn u32_roundtrip_and_overflow() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        // A u64 too large for u32 must fail to decode as u32.
        let bytes = (u32::MAX as u64 + 1).to_bytes();
        assert!(matches!(
            u32::from_bytes(bytes),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn vec_roundtrip() {
        roundtrip(Vec::<u32>::new());
        roundtrip(vec![1u32, 2, 3, u32::MAX]);
        roundtrip(vec![Label(0), Label(u64::MAX)]);
    }

    #[test]
    fn truncated_buffer_errors() {
        let bytes = vec![1u32, 2, 3].to_bytes();
        let truncated = bytes.slice(0..bytes.len() - 1);
        assert!(matches!(
            Vec::<u32>::from_bytes(truncated),
            Err(WireError::UnexpectedEnd)
        ));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, 7);
        buf.put_u8(0xFF);
        assert!(matches!(
            u64::from_bytes(buf.freeze()),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn sized_messages_roundtrip_and_fill_their_length() {
        let mut buf = BytesMut::new();
        put_sized(&mut buf, &vec![Label(3), Label(1 << 40)]);
        put_sized(&mut buf, &Vec::<Label>::new());
        let mut bytes = buf.freeze();
        assert_eq!(
            get_sized::<Vec<Label>>(&mut bytes),
            Ok(vec![Label(3), Label(1 << 40)])
        );
        assert_eq!(get_sized::<Vec<Label>>(&mut bytes), Ok(vec![]));
        assert!(bytes.is_empty());
        let sized = |raw: &[u8]| get_sized::<Vec<u32>>(&mut Bytes::from(raw.to_vec()));
        // Declared length 5, only 2 bytes present.
        assert_eq!(sized(&[5, 1, 7]), Err(WireError::UnexpectedEnd));
        // A truncated length prefix.
        assert_eq!(sized(&[0x80]), Err(WireError::UnexpectedEnd));
        // The message ends a byte short of its declared 3 bytes.
        assert_eq!(sized(&[3, 1, 7, 9]), Err(WireError::TrailingBytes(1)));
        // The message runs past its declared 2 bytes, though not past
        // the buffer: a confined decode would have run out.
        assert_eq!(sized(&[2, 2, 7, 9]), Err(WireError::UnexpectedEnd));
        // A varint cut off by the declared length, whatever follows it.
        assert_eq!(sized(&[2, 1, 0x80, 0x01]), Err(WireError::UnexpectedEnd));
        // An error inside the declared bytes is the message's own.
        assert_eq!(
            get_sized::<u32>(&mut Bytes::from(vec![5, 0x80, 0x80, 0x80, 0x80, 0x10])),
            Err(WireError::LengthOverflow(1 << 32))
        );
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, MAX_SEQ_LEN + 1);
        assert!(matches!(
            Vec::<u32>::from_bytes(buf.freeze()),
            Err(WireError::LengthOverflow(_))
        ));
    }

    #[test]
    fn varint_overflow_rejected() {
        // 11 continuation bytes: > 64 bits.
        let raw: Vec<u8> = vec![0x80; 10].into_iter().chain([0x01]).collect();
        let mut bytes = Bytes::from(raw);
        assert!(matches!(
            get_varint(&mut bytes),
            Err(WireError::VarintOverflow)
        ));
    }

    #[test]
    fn error_display_nonempty() {
        for e in [
            WireError::UnexpectedEnd,
            WireError::VarintOverflow,
            WireError::BadTag(3),
            WireError::LengthOverflow(9),
            WireError::TrailingBytes(2),
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
