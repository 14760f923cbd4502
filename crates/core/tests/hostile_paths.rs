//! Hostile candidate paths arriving over the wire are rejected and
//! counted — in release builds too.
//!
//! The packed wire format deliberately decodes any in-range
//! *(leaf, length)* pair (a strict decoder would let one corrupt sender
//! kill a whole frame, and with it the run); the protocol layer then
//! re-validates at placement time, drops the sender as crashed, and
//! counts the rejection in `BilView::anomalies`. These tests pin both
//! halves: the protocol-level accounting against literal hostile wire
//! bytes, and the end-to-end behaviour on a real wire executor with a
//! `testproto::BrokenWire`-style tampering codec — no panic, no
//! absorbed state, and the uncorrupted majority still renames uniquely.

use bytes::{BufMut, Bytes, BytesMut};
use rand::rngs::SmallRng;

use bil_core::{BallsIntoLeaves, BilConfig, BilMsg, BilView};
use bil_runtime::adversary::NoFailures;
use bil_runtime::engine::EngineOptions;
use bil_runtime::wire::{put_varint, Wire, WireError};
use bil_runtime::{
    ExecutorKind, InboxBuf, Label, Outcome, Round, RoundInbox, SeedTree, Status, ViewProtocol,
};

/// Raw wire bytes of a path message with the given packed key.
fn raw_path_msg(key: u64) -> Bytes {
    let mut buf = BytesMut::new();
    buf.put_u8(1); // TAG_PATH
    put_varint(&mut buf, key);
    buf.freeze()
}

fn key(leaf: u64, len: u64) -> u64 {
    leaf << 5 | len
}

fn deliver(p: &BallsIntoLeaves, view: &mut BilView, round: Round, pairs: Vec<(Label, BilMsg)>) {
    let buf = InboxBuf::from_pairs(pairs);
    p.apply(view, round, buf.as_inbox());
}

#[test]
fn hostile_wire_paths_are_counted_and_dropped_in_every_profile() {
    // This test runs identically under `cargo test` and
    // `cargo test --release` (CI runs both); nothing below is
    // debug-gated.
    let p = BallsIntoLeaves::base();
    let mut view = p.init_view(8);
    let balls: Vec<Label> = (1..=6).map(Label).collect();
    deliver(
        &p,
        &mut view,
        Round(0),
        balls.iter().map(|l| (*l, BilMsg::Init)).collect(),
    );

    // Five hostile packed pairs, each decoded from literal wire bytes:
    let hostiles = [
        // wrong start: a chain of the right shape rooted in a subtree
        // the ball is not in (leaf 9, len 2 ⇒ starts at node 4 ≠ root)
        key(9, 2),
        // non-leaf terminal: chain stopping at internal node 6
        key(6, 3),
        // terminal beyond this tree's node range
        key(77, 7),
        // empty path
        key(13, 0),
        // over-long length field (implied chain starts at node 0)
        key(13, 31),
    ];
    let mut inbox: Vec<(Label, BilMsg)> = vec![(
        Label(1),
        BilMsg::Path(bil_tree::PackedPath::from_nodes(&[1, 2, 4, 8]).unwrap()),
    )];
    for (ball, k) in balls[1..].iter().zip(hostiles) {
        let msg = BilMsg::from_bytes(raw_path_msg(k)).expect("hostile pairs still decode");
        assert!(matches!(msg, BilMsg::Path(_)));
        inbox.push((*ball, msg));
    }
    deliver(&p, &mut view, Round(1), inbox);

    // The honest sender placed; every hostile sender was dropped as
    // crashed and counted — not absorbed, not panicked.
    assert_eq!(view.tree().current_node(Label(1)), Some(8));
    for ball in &balls[1..] {
        assert!(!view.tree().contains(*ball), "{ball} must be dropped");
    }
    assert_eq!(view.anomalies().malformed_paths, 5);
    assert_eq!(view.anomalies().total(), 5);
    view.tree().validate().unwrap();
}

#[test]
fn hostile_wire_bytes_that_overflow_node_ids_still_fail_cleanly() {
    // A key whose leaf exceeds u32 is representationally invalid and is
    // the one class the decoder itself rejects (structured, no panic).
    let msg = BilMsg::from_bytes(raw_path_msg(key(u64::from(u32::MAX) + 1, 3)));
    assert!(matches!(msg, Err(WireError::LengthOverflow(_))));
}

/// A `BrokenWire`-style tampering codec: messages from the victim label
/// have their path broadcasts rewritten **on the wire** into a hostile
/// packed pair, while every other sender's bytes pass through intact.
/// In-memory executors never see the corruption; a wire executor must
/// reject it per receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
struct TamperedMsg {
    from_victim: bool,
    inner: BilMsg,
}

impl Wire for TamperedMsg {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(self.from_victim as u8);
        if self.from_victim && matches!(self.inner, BilMsg::Path(_)) {
            // Leaf far outside any tree, hostile length: decodes fine,
            // fails placement everywhere.
            buf.put_u8(1); // TAG_PATH
            put_varint(buf, key(u64::from(u32::MAX), 31));
        } else {
            self.inner.encode(buf);
        }
    }

    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        use bytes::Buf;
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEnd);
        }
        let from_victim = buf.get_u8() == 1;
        Ok(TamperedMsg {
            from_victim,
            inner: BilMsg::decode(buf)?,
        })
    }
}

/// Balls-into-Leaves with the tampering codec wrapped around it.
#[derive(Debug, Clone)]
struct TamperedBil {
    inner: BallsIntoLeaves,
    victim: Label,
}

impl ViewProtocol for TamperedBil {
    type Msg = TamperedMsg;
    type View = BilView;

    fn init_view(&self, n: usize) -> BilView {
        self.inner.init_view(n)
    }

    fn compose(
        &self,
        view: &BilView,
        ball: Label,
        round: Round,
        rng: &mut SmallRng,
    ) -> TamperedMsg {
        TamperedMsg {
            from_victim: ball == self.victim,
            inner: self.inner.compose(view, ball, round, rng),
        }
    }

    fn apply(&self, view: &mut BilView, round: Round, inbox: RoundInbox<'_, TamperedMsg>) {
        let unwrapped: InboxBuf<BilMsg> = inbox.iter().map(|(l, m)| (l, m.inner.clone())).collect();
        self.inner.apply(view, round, unwrapped.as_inbox());
    }

    fn status(&self, view: &BilView, ball: Label, round: Round) -> Status {
        self.inner.status(view, ball, round)
    }
}

#[test]
fn wire_tampered_paths_do_not_panic_or_leak_names_end_to_end() {
    // Every message crosses a real thread/wire boundary; the victim's
    // path round-1 broadcast is corrupted in flight. Every view — the
    // victim's own included — must reject it, drop the victim, and
    // carry on: the survivors rename uniquely, the victim never decides
    // (it can never be handed a bogus name), and nothing panics, in
    // debug and release alike.
    let n = 8u64;
    let labels: Vec<Label> = (0..n).map(|i| Label(i * 5 + 2)).collect();
    let victim = labels[3];
    let protocol = TamperedBil {
        inner: BallsIntoLeaves::base(),
        victim,
    };
    let report = ExecutorKind::Threaded
        .run(
            protocol,
            labels.clone(),
            NoFailures,
            SeedTree::new(4),
            EngineOptions {
                max_rounds: Some(40),
                ..EngineOptions::default()
            },
        )
        .expect("tampered paths are a protocol-level rejection, not a wire error");

    // The victim is stuck Running (its name is never issued), so the
    // run ends at the round limit rather than completing.
    assert_eq!(report.outcome, Outcome::RoundLimit);
    let mut names = Vec::new();
    for (i, decision) in report.decisions.iter().enumerate() {
        if labels[i] == victim {
            assert!(decision.is_none(), "victim must never decide");
        } else {
            let d = decision.expect("uncorrupted processes decide");
            names.push(d.name);
        }
    }
    names.sort_unstable();
    let mut deduped = names.clone();
    deduped.dedup();
    assert_eq!(names.len(), deduped.len(), "names must stay unique");
    assert_eq!(names.len(), n as usize - 1);
}

#[test]
fn positions_on_phantom_leaves_are_counted_and_dropped_in_every_profile() {
    // n = 3 pads to 4 leaf slots: leaf 7 is a phantom with no name
    // below it, so a position there is as corrupt as an out-of-range
    // node. The sender must be dropped and counted before the round's
    // Lemma 1 check, and no ball may decide a name outside 0..3.
    let p = BallsIntoLeaves::base();
    let mut view = p.init_view(3);
    let balls = [Label(1), Label(2), Label(3)];
    deliver(
        &p,
        &mut view,
        Round(0),
        balls.iter().map(|l| (*l, BilMsg::Init)).collect(),
    );
    // Every ball passes the path round in place at the root.
    deliver(
        &p,
        &mut view,
        Round(1),
        balls.iter().map(|l| (*l, BilMsg::pos(1))).collect(),
    );
    deliver(
        &p,
        &mut view,
        Round(2),
        vec![
            (Label(1), BilMsg::pos(4)),
            (Label(2), BilMsg::pos(5)),
            (Label(3), BilMsg::pos(7)),
        ],
    );
    for ball in balls {
        if let Status::Decided(name) = p.status(&view, ball, Round(2)) {
            assert!(name.0 < 3, "ball {ball} decided name {name}, outside 0..3");
        }
    }
    assert_eq!(view.anomalies().malformed_positions, 1);
    assert_eq!(view.anomalies().total(), 1);
    assert!(
        !view.tree().contains(Label(3)),
        "the sender must be dropped"
    );
    view.tree().validate().unwrap();
}

#[test]
fn commits_naming_phantom_leaves_are_counted_not_learned() {
    // The commit rule matches the position rule: an echoed commit for a
    // phantom leaf (n = 3, leaf 7) is corrupt, counted, and never places
    // its ball.
    let p = BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true));
    let mut view = p.init_view(3);
    deliver(&p, &mut view, Round(0), vec![(Label(1), BilMsg::Init)]);
    deliver(
        &p,
        &mut view,
        Round(1),
        vec![(
            Label(1),
            BilMsg::Path(bil_tree::PackedPath::from_nodes(&[1, 2, 4]).unwrap()),
        )],
    );
    deliver(
        &p,
        &mut view,
        Round(2),
        vec![(
            Label(1),
            BilMsg::Pos {
                node: 4,
                echo: vec![(Label(9), 7)],
            },
        )],
    );
    assert_eq!(view.anomalies().malformed_commits, 1);
    assert!(!view.tree().contains(Label(9)));
    assert_eq!(view.committed().count(), 0);
    view.tree().validate().unwrap();
}
