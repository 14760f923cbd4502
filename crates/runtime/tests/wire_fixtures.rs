//! Golden wire fixtures: byte-exact snapshots of every `BilMsg` variant,
//! both as raw `Wire` encodings and as the length-prefixed frames the
//! socket executor ships.
//!
//! These exist so that a change to any message's byte layout is caught
//! **explicitly** — the fixture diff forces the author to bump
//! [`WIRE_FORMAT_VERSION`] (and to know they broke cross-version
//! compatibility) instead of silently re-deriving expected bytes from
//! the code under test. When an encoding legitimately changes: bump the
//! version constant, update the expected bytes here, and note the new
//! generation in the constant's history list.

use bil_core::BilMsg;
use bil_runtime::frame::write_frame;
use bil_runtime::wire::{Wire, WIRE_FORMAT_VERSION};
use bil_runtime::Label;
use bil_tree::PackedPath;
use bytes::{Bytes, BytesMut};

/// The format generation these fixtures were captured against.
#[test]
fn fixtures_match_wire_format_version() {
    assert_eq!(
        WIRE_FORMAT_VERSION, 2,
        "wire format changed: regenerate the golden fixtures below and \
         record the new generation in WIRE_FORMAT_VERSION's history"
    );
}

/// One fixture per message variant (plus shape edge cases): the message,
/// its exact encoding, and its exact framed form.
fn fixtures() -> Vec<(&'static str, BilMsg, Vec<u8>)> {
    let chain = |nodes: &[u32]| PackedPath::from_nodes(nodes).expect("valid chain");
    vec![
        ("init", BilMsg::Init, vec![0x00]),
        // Path(leaf 13, len 4): key = 13·32 + 4 = 420 = varint A4 03.
        (
            "path_root_to_leaf13",
            BilMsg::Path(chain(&[1, 3, 6, 13])),
            vec![0x01, 0xA4, 0x03],
        ),
        // Path(leaf 4, len 1): a ball already on its leaf; key = 129.
        (
            "path_single_leaf4",
            BilMsg::Path(PackedPath::single(4)),
            vec![0x01, 0x81, 0x01],
        ),
        // Path(leaf 2^16, len 17): a root-start chain of a 2^16-leaf
        // tree; key = 2^21 + 17.
        (
            "path_deep_tree",
            BilMsg::Path(PackedPath::new(1 << 16, 17)),
            vec![0x01, 0x91, 0x80, 0x80, 0x01],
        ),
        // Plain position announcement, node 9.
        ("pos_plain", BilMsg::pos(9), vec![0x02, 0x09, 0x00]),
        // Position with a two-entry commit echo.
        (
            "pos_with_echo",
            BilMsg::Pos {
                node: 6,
                echo: vec![(Label(7), 13), (Label(300), 12)],
            },
            vec![0x02, 0x06, 0x02, 0x07, 0x0D, 0xAC, 0x02, 0x0C],
        ),
        // Commit of leaf 13.
        ("commit", BilMsg::Commit(13), vec![0x03, 0x0D]),
    ]
}

#[test]
fn message_encodings_are_byte_exact() {
    for (name, msg, expected) in fixtures() {
        let bytes = msg.to_bytes();
        assert_eq!(
            &bytes[..],
            &expected[..],
            "{name}: encoding drifted — see the module docs before updating"
        );
        assert_eq!(msg.encoded_len(), expected.len(), "{name}: encoded_len");
    }
}

#[test]
fn framed_encodings_are_byte_exact() {
    for (name, msg, expected) in fixtures() {
        // Every fixture payload is under 128 bytes, so the frame header
        // is the single length byte.
        let mut framed = vec![expected.len() as u8];
        framed.extend_from_slice(&expected);
        let mut written = Vec::new();
        write_frame(&mut written, &mut BytesMut::new(), |buf| msg.encode(buf)).expect(name);
        assert_eq!(&written[..], &framed[..], "{name}: framed bytes drifted");
    }
}

#[test]
fn fixtures_decode_back_to_their_messages() {
    for (name, msg, expected) in fixtures() {
        let decoded = BilMsg::from_bytes(Bytes::from(expected)).expect(name);
        assert_eq!(decoded, msg, "{name}: decode");
    }
}

#[test]
fn path_bearing_fixtures_beat_the_node_list_baseline_two_fold() {
    // The acceptance bar of the allocation-free message plane: packed
    // path messages must be at least 2× smaller than the same chain
    // shipped as a length-prefixed node list (count varint + one varint
    // per node) — the natural serialization of the Vec<NodeId>
    // representation this format generation removed.
    let node_list_len = |nodes: &[u32]| -> usize {
        1 + nodes
            .iter()
            .map(|v| (*v as u64).encoded_len())
            .sum::<usize>()
    };
    for (name, msg, expected) in fixtures() {
        if let BilMsg::Path(p) = &msg {
            if p.len() < 2 {
                continue; // single-node paths have no chain to compress
            }
            let legacy = 1 + node_list_len(&p.to_nodes());
            assert!(
                expected.len() * 2 <= legacy,
                "{name}: packed {} vs node-list {legacy} bytes",
                expected.len()
            );
        }
    }
}
