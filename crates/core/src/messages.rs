//! The three broadcast messages of Algorithm 1.
//!
//! | round | message | paper |
//! |---|---|---|
//! | 0 | [`BilMsg::Init`] | line 1: `broadcast ⟨bi⟩` |
//! | `2φ−1` | [`BilMsg::Path`] | line 11: `broadcast ⟨bi, pathi⟩` |
//! | `2φ` | [`BilMsg::Pos`] | line 22: `broadcast ⟨bi, CurrentNode(bi)⟩` |
//!
//! The sender's label travels in the delivery envelope (the engines key
//! inboxes by sender), so messages carry only their payload.
//!
//! A candidate path is a contiguous node-to-leaf chain, fully determined
//! by its *(leaf, length)* pair — exactly what [`PackedPath`] stores —
//! so its wire form (format v2, see
//! [`bil_runtime::wire::WIRE_FORMAT_VERSION`]) is a **single varint**
//! of the packed key `leaf · 32 + length`: `O(log n)` bits total,
//! matching the message-size accounting of experiment E11, with no
//! length-prefixed node list and no decode-side allocation. The decoder
//! is deliberately permissive about *semantic* validity (any in-range
//! pair decodes): hostile pairs whose implied chain is wrong for the
//! receiver's tree are rejected at placement time by
//! [`bil_tree::LocalTree::place_at_slot`] and counted in
//! [`crate::BilView`]'s anomaly counters — identically in debug and
//! release builds — rather than killing the whole frame.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use bil_runtime::wire::{get_varint, put_varint, varint_len, Wire, WireError, MAX_SEQ_LEN};
use bil_runtime::Label;
use bil_tree::{NodeId, PackedPath};

/// Bits of the packed path key reserved for the chain length.
/// [`bil_tree::MAX_PATH_LEN`] (27) fits in 5 bits.
const PATH_LEN_BITS: u32 = 5;

/// Mask selecting the length bits of a packed path key.
const PATH_LEN_MASK: u64 = (1 << PATH_LEN_BITS) - 1;

/// Maximum number of `(ball, leaf)` echo entries accepted when decoding
/// a [`BilMsg::Pos`]. A correct sender echoes the commits it learned in
/// one round, and in a decide-at-leaf run that can approach `n` — so
/// the bound must admit the codec's full sequence scale
/// ([`MAX_SEQ_LEN`], one entry per supported ball), guarding only
/// against hostile lengths beyond any legitimate system size.
const MAX_ECHO_ENTRIES: u64 = MAX_SEQ_LEN;

/// A Balls-into-Leaves broadcast.
///
/// `Init`, `Path`, and `Commit` are plain `Copy` data; `Pos` carries the
/// (almost always empty) commit echo of the decide-at-leaf variant. The
/// compose→deliver hot path therefore moves messages without touching
/// the heap.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BilMsg {
    /// Round 0: announce participation (the label rides in the envelope).
    Init,
    /// Round 1 of a phase: the sender's candidate path, packed.
    Path(PackedPath),
    /// Round 2 of a phase: the sender's current node, plus (decide-at-
    /// leaf variant only) an echo of the commits the sender learned in
    /// the previous round. The echo closes commit-knowledge gaps left by
    /// partial [`BilMsg::Commit`] deliveries: one full broadcast from any
    /// correct knower spreads a commit to every view.
    Pos {
        /// The sender's current node.
        node: NodeId,
        /// `(ball, leaf)` commits learned by the sender last round.
        echo: Vec<(Label, NodeId)>,
    },
    /// Round 1 of a phase, decide-at-leaf variant only: the sender
    /// claims this (previously synchronized) leaf permanently and
    /// decides at the end of this round. A *partial* delivery of this
    /// message proves the sender crashed before deciding — the linchpin
    /// of the variant's safety argument (see `protocol.rs`).
    Commit(NodeId),
}

impl BilMsg {
    /// Convenience constructor for a plain position announcement.
    pub fn pos(node: NodeId) -> BilMsg {
        BilMsg::Pos {
            node,
            echo: Vec::new(),
        }
    }
}

const TAG_INIT: u8 = 0;
const TAG_PATH: u8 = 1;
const TAG_POS: u8 = 2;
const TAG_COMMIT: u8 = 3;

/// Packs a path into its wire key. Composed paths always fit
/// (`len ≤ MAX_PATH_LEN < 32`); the assertion guards the encoder against
/// hand-built over-long packings, which have no wire form.
fn path_key(path: &PackedPath) -> u64 {
    let len = path.len() as u64;
    assert!(
        len <= PATH_LEN_MASK,
        "path of {len} nodes exceeds the wire format's length field"
    );
    let leaf = path.leaf().map(u64::from).unwrap_or(0);
    leaf << PATH_LEN_BITS | len
}

impl Wire for BilMsg {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            BilMsg::Init => buf.put_u8(TAG_INIT),
            BilMsg::Path(path) => {
                buf.put_u8(TAG_PATH);
                put_varint(buf, path_key(path));
            }
            BilMsg::Pos { node, echo } => {
                buf.put_u8(TAG_POS);
                put_varint(buf, *node as u64);
                put_varint(buf, echo.len() as u64);
                for (label, leaf) in echo {
                    put_varint(buf, label.0);
                    put_varint(buf, *leaf as u64);
                }
            }
            BilMsg::Commit(node) => {
                buf.put_u8(TAG_COMMIT);
                put_varint(buf, *node as u64);
            }
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        match buf.get_u8() {
            TAG_INIT => Ok(BilMsg::Init),
            TAG_PATH => {
                let key = get_varint(buf)?;
                let len = (key & PATH_LEN_MASK) as u8;
                let leaf = key >> PATH_LEN_BITS;
                let leaf = NodeId::try_from(leaf).map_err(|_| WireError::LengthOverflow(leaf))?;
                // Semantic validity (real leaf of the receiver's tree,
                // chain starting at the sender's node) is checked at
                // placement time; see the module docs.
                Ok(BilMsg::Path(PackedPath::new(leaf, len)))
            }
            TAG_POS => {
                let node = get_varint(buf)?;
                let node = NodeId::try_from(node).map_err(|_| WireError::LengthOverflow(node))?;
                let len = get_varint(buf)?;
                if len > MAX_ECHO_ENTRIES {
                    return Err(WireError::LengthOverflow(len));
                }
                // Clamp the preallocation to what the buffer could
                // possibly hold (each entry is ≥ 2 encoded bytes):
                // honest frames reserve exactly `len`, while a hostile
                // length prefix on a truncated frame cannot amplify
                // into a large speculative allocation.
                let mut echo = Vec::with_capacity((len as usize).min(buf.remaining() / 2));
                for _ in 0..len {
                    let label = Label(get_varint(buf)?);
                    let leaf = get_varint(buf)?;
                    let leaf =
                        NodeId::try_from(leaf).map_err(|_| WireError::LengthOverflow(leaf))?;
                    echo.push((label, leaf));
                }
                Ok(BilMsg::Pos { node, echo })
            }
            TAG_COMMIT => {
                let node = get_varint(buf)?;
                let node = NodeId::try_from(node).map_err(|_| WireError::LengthOverflow(node))?;
                Ok(BilMsg::Commit(node))
            }
            tag => Err(WireError::BadTag(tag)),
        }
    }

    fn encoded_len(&self) -> usize {
        match self {
            BilMsg::Init => 1,
            BilMsg::Path(path) => 1 + varint_len(path_key(path)),
            BilMsg::Pos { node, echo } => {
                1 + varint_len(*node as u64)
                    + varint_len(echo.len() as u64)
                    + echo
                        .iter()
                        .map(|(l, n)| varint_len(l.0) + varint_len(*n as u64))
                        .sum::<usize>()
            }
            BilMsg::Commit(node) => 1 + varint_len(*node as u64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_tree::MAX_PATH_LEN;

    fn packed(nodes: &[NodeId]) -> PackedPath {
        PackedPath::from_nodes(nodes).unwrap()
    }

    fn roundtrip(msg: BilMsg) {
        let bytes = msg.to_bytes();
        assert_eq!(bytes.len(), msg.encoded_len(), "encoded_len: {msg:?}");
        assert_eq!(BilMsg::from_bytes(bytes).unwrap(), msg);
    }

    #[test]
    fn init_roundtrip() {
        roundtrip(BilMsg::Init);
        assert_eq!(BilMsg::Init.encoded_len(), 1);
    }

    #[test]
    fn pos_roundtrip() {
        roundtrip(BilMsg::pos(1));
        roundtrip(BilMsg::pos(12345));
        roundtrip(BilMsg::pos(u32::MAX));
        roundtrip(BilMsg::Pos {
            node: 9,
            echo: vec![(Label(7), 33), (Label(1 << 50), 12)],
        });
    }

    #[test]
    fn commit_roundtrip() {
        roundtrip(BilMsg::Commit(8));
        roundtrip(BilMsg::Commit(u32::MAX));
        assert_eq!(BilMsg::Commit(8).encoded_len(), 2);
    }

    #[test]
    fn path_roundtrip_various_shapes() {
        roundtrip(BilMsg::Path(packed(&[1])));
        roundtrip(BilMsg::Path(packed(&[1, 2, 4])));
        roundtrip(BilMsg::Path(packed(&[1, 3, 6, 13])));
        roundtrip(BilMsg::Path(packed(&[5, 10, 21, 42, 85, 171])));
        // A full-depth chain of the deepest supported tree.
        let max: Vec<NodeId> = (0..MAX_PATH_LEN).map(|i| 1u32 << i).collect();
        roundtrip(BilMsg::Path(packed(&max)));
        // Deepest-start single-node path: the largest representable leaf.
        roundtrip(BilMsg::Path(PackedPath::single((1 << 27) - 1)));
    }

    #[test]
    fn path_encoding_is_compact() {
        // A root-start chain into a 16-level tree packs to leaf 2^16,
        // len 17: key = 2^21 + 17 → 4 varint bytes + tag = 5 total —
        // versus ~1 + 17·(1..3) ≈ 40 bytes for a length-prefixed node
        // list of the same chain.
        let mut nodes = vec![1u32];
        for _ in 0..16 {
            nodes.push(2 * nodes.last().unwrap());
        }
        let msg = BilMsg::Path(packed(&nodes));
        assert_eq!(msg.encoded_len(), 5);
        // Shallow trees are smaller still: a depth-3 chain fits the key
        // in 2 bytes.
        assert_eq!(BilMsg::Path(packed(&[1, 3, 6, 13])).encoded_len(), 3);
        // A single-node path (ball already on its leaf of an 8-leaf
        // tree) is tag + 2 key bytes.
        assert_eq!(BilMsg::Path(PackedPath::single(13)).encoded_len(), 3);
    }

    #[test]
    fn hostile_path_keys_decode_to_inert_paths() {
        // The decoder accepts any in-range key; garbage pairs become
        // PackedPath values that placement rejects. len = 0:
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_PATH);
        put_varint(&mut buf, 13 << PATH_LEN_BITS); // leaf 13, len 0
        let msg = BilMsg::from_bytes(buf.freeze()).unwrap();
        assert_eq!(msg, BilMsg::Path(PackedPath::new(0, 0)));
        // Hostile (leaf, len) with len > the leaf's depth: decodes, but
        // the implied chain starts at node 0 — placement rejects it.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_PATH);
        put_varint(&mut buf, 13 << PATH_LEN_BITS | 31);
        let BilMsg::Path(p) = BilMsg::from_bytes(buf.freeze()).unwrap() else {
            panic!("expected a path");
        };
        assert_eq!(p.first(), Some(0));
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(matches!(
            BilMsg::from_bytes(Bytes::from_static(&[9])),
            Err(WireError::BadTag(9))
        ));
        assert!(matches!(
            BilMsg::from_bytes(Bytes::new()),
            Err(WireError::UnexpectedEnd)
        ));
        // A path key whose leaf exceeds the node-id range.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_PATH);
        put_varint(&mut buf, (u64::from(u32::MAX) + 1) << PATH_LEN_BITS | 3);
        assert!(matches!(
            BilMsg::from_bytes(buf.freeze()),
            Err(WireError::LengthOverflow(_))
        ));
        // A truncated path message (tag with no key).
        assert!(matches!(
            BilMsg::from_bytes(Bytes::from_static(&[TAG_PATH])),
            Err(WireError::UnexpectedEnd)
        ));
        // A Pos with an absurd echo count.
        let mut buf = BytesMut::new();
        buf.put_u8(TAG_POS);
        put_varint(&mut buf, 1);
        put_varint(&mut buf, MAX_ECHO_ENTRIES + 1);
        assert!(matches!(
            BilMsg::from_bytes(buf.freeze()),
            Err(WireError::LengthOverflow(_))
        ));
    }
}
