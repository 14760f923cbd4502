//! Property-based tests for the capacity tree.
//!
//! These hammer the invariants the Balls-into-Leaves proof leans on:
//! index consistency under arbitrary operation sequences, Lemma 1
//! preservation under algorithm-shaped operation sequences (placements
//! only through the move-walk), and the structural guarantees of the
//! three path-construction rules.

use std::hash::{DefaultHasher, Hash, Hasher};

use bil_runtime::rng::SeedTree;
use bil_runtime::{Label, ProcId};
use bil_tree::{CoinRule, LocalTree, NodeId, PackedPath, Topology, ROOT};
use proptest::prelude::*;

/// An arbitrary raw tree operation (may legitimately breach Lemma 1,
/// which raw `update_node` is allowed to do mid-round). The slot-resolved
/// forms address a label-column slot, live or vacant, by an index taken
/// modulo the column's length.
#[derive(Debug, Clone)]
enum RawOp {
    Insert(u8, u8),
    Remove(u8),
    Update(u8, u8),
    RemoveAt(u8),
    UpdateAt(u8, u8),
    /// The move-walk along an arbitrary packed `(leaf, len)` pair.
    PlaceAt(u8, u32, u8),
    /// The move-walk along a chain from the slot's node down to the
    /// leaf its subtree's leaf index selects, so the walk itself runs.
    PlaceDown(u8, u32),
}

fn raw_ops() -> impl Strategy<Value = Vec<RawOp>> {
    prop::collection::vec(
        prop_oneof![
            (any::<u8>(), any::<u8>()).prop_map(|(b, n)| RawOp::Insert(b, n)),
            any::<u8>().prop_map(RawOp::Remove),
            (any::<u8>(), any::<u8>()).prop_map(|(b, n)| RawOp::Update(b, n)),
            any::<u8>().prop_map(RawOp::RemoveAt),
            (any::<u8>(), any::<u8>()).prop_map(|(s, n)| RawOp::UpdateAt(s, n)),
            (any::<u8>(), any::<u32>(), any::<u8>()).prop_map(|(s, l, n)| RawOp::PlaceAt(s, l, n)),
            (any::<u8>(), 0u32..256, 0u8..9).prop_map(|(s, l, n)| RawOp::PlaceAt(s, l, n)),
            (any::<u8>(), any::<u32>()).prop_map(|(s, pick)| RawOp::PlaceDown(s, pick)),
        ],
        0..64,
    )
}

/// Runs a slot-resolved operation on `tree` and its label form on a
/// clone: both must return the same result and leave the same columns.
fn same_as_label_form<T: PartialEq + std::fmt::Debug>(
    tree: &mut LocalTree,
    by_slot: impl FnOnce(&mut LocalTree) -> T,
    by_label: impl FnOnce(&mut LocalTree) -> T,
) {
    let mut twin = tree.clone();
    let want = by_label(&mut twin);
    prop_assert_eq!(by_slot(tree), want);
    prop_assert_eq!(tree.label_column(), twin.label_column());
    prop_assert_eq!(tree.node_column(), twin.node_column());
}

proptest! {
    /// Index consistency holds after every raw operation, whatever the
    /// sequence.
    #[test]
    fn indexes_stay_consistent(n in 1usize..40, ops in raw_ops()) {
        let topo = Topology::new(n).unwrap();
        let mut tree = LocalTree::new(topo);
        let slots = topo.node_slots() as u32;
        for op in ops {
            // The slot a slot-resolved op addresses, and its label.
            let column = tree.label_column();
            let at = |s: u8| {
                (!column.is_empty()).then(|| {
                    let slot = s as usize % column.len();
                    (slot, column[slot])
                })
            };
            match op {
                RawOp::Insert(b, node) => {
                    let node = 1 + (node as NodeId) % (slots - 1);
                    let _ = tree.insert(Label(b as u64), node);
                }
                RawOp::Remove(b) => {
                    let _ = tree.remove(Label(b as u64));
                }
                RawOp::Update(b, node) => {
                    let node = 1 + (node as NodeId) % (slots - 1);
                    let _ = tree.update_node(Label(b as u64), node);
                }
                RawOp::RemoveAt(s) => {
                    let Some((slot, ball)) = at(s) else { continue };
                    same_as_label_form(&mut tree, |t| t.remove_at_slot(slot), |t| t.remove(ball));
                }
                RawOp::UpdateAt(s, node) => {
                    let Some((slot, ball)) = at(s) else { continue };
                    // Out-of-range nodes included: both forms refuse them.
                    let node = node as NodeId % (slots + 2);
                    same_as_label_form(
                        &mut tree,
                        |t| t.update_at_slot(slot, node),
                        |t| t.update_node(ball, node),
                    );
                }
                // The move-walk debug-asserts Lemma 1 on the nodes it
                // reads, which raw inserts and updates may have breached.
                RawOp::PlaceAt(..) | RawOp::PlaceDown(..) if tree.first_overfull().is_some() => {}
                RawOp::PlaceAt(s, leaf, len) => {
                    let Some((slot, ball)) = at(s) else { continue };
                    let path = PackedPath::new(leaf, len);
                    same_as_label_form(
                        &mut tree,
                        |t| t.place_at_slot(slot, &path),
                        |t| t.place_along(ball, &path),
                    );
                }
                RawOp::PlaceDown(s, pick) => {
                    let Some((slot, ball)) = at(s) else { continue };
                    let start = tree.node_at_slot(slot).unwrap_or(ROOT);
                    let below = topo.levels() - topo.depth(start);
                    let leaf = (start << below) + pick % (1 << below);
                    let path = PackedPath::new(leaf, below as u8 + 1);
                    same_as_label_form(
                        &mut tree,
                        |t| t.place_at_slot(slot, &path),
                        |t| t.place_along(ball, &path),
                    );
                }
            }
            tree.validate_consistency().unwrap();
            // The at-node readers against a recount from the positions:
            // `balls()` is label-ordered, so each node's list comes out
            // sorted and a ball's rank is its index in it.
            let mut at = vec![Vec::new(); slots as usize];
            for (ball, node) in tree.balls() {
                at[node as usize].push(ball);
            }
            for node in 1..slots {
                let want = &at[node as usize];
                prop_assert_eq!(tree.load_at(node) as usize, want.len());
                prop_assert_eq!(&tree.balls_at(node), want);
                for (rank, ball) in want.iter().enumerate() {
                    prop_assert_eq!(tree.rank_at_node(*ball).unwrap(), rank);
                }
            }
        }
    }

    /// Algorithm-shaped usage — balls start at the root and move only via
    /// `place_along` of freshly composed paths — preserves Lemma 1 after
    /// every single operation (the heart of the paper's Theorem 1).
    #[test]
    fn lemma1_under_move_walks(
        n in 1usize..48,
        balls in 1usize..48,
        steps in prop::collection::vec((any::<u8>(), 0u8..3), 0..96),
        seed in any::<u64>(),
    ) {
        let balls = balls.min(n); // at most one ball per leaf
        let topo = Topology::new(n).unwrap();
        let mut tree =
            LocalTree::with_balls_at_root(topo, (0..balls as u64).map(|i| Label(i * 3 + 1)));
        let mut rng = SeedTree::new(seed).process_rng(ProcId(0));
        for (which, rule) in steps {
            let ball = Label(((which as usize % balls) as u64) * 3 + 1);
            let rule = match rule {
                0 => CoinRule::Weighted,
                1 => CoinRule::Uniform,
                _ => CoinRule::Leftmost,
            };
            let path = tree.random_path(ball, rule, &mut rng).unwrap();
            let landed = tree.place_along(ball, &path).unwrap();
            prop_assert!(path.iter().any(|v| v == landed));
            tree.validate().unwrap();
        }
    }

    /// Every composed random path starts at the ball, is a contiguous
    /// parent→child chain, ends at a leaf that still has capacity, and
    /// never routes toward a phantom leaf.
    #[test]
    fn random_paths_are_well_formed(
        n in 1usize..64,
        balls in 1usize..64,
        seed in any::<u64>(),
    ) {
        let balls = balls.min(n);
        let topo = Topology::new(n).unwrap();
        let tree =
            LocalTree::with_balls_at_root(topo, (0..balls as u64).map(Label));
        let mut rng = SeedTree::new(seed).process_rng(ProcId(1));
        for b in 0..balls as u64 {
            let path = tree.random_path(Label(b), CoinRule::Weighted, &mut rng).unwrap();
            let nodes = path.to_nodes();
            prop_assert_eq!(nodes[0], ROOT);
            for w in nodes.windows(2) {
                prop_assert!(w[1] == 2 * w[0] || w[1] == 2 * w[0] + 1);
            }
            let leaf = path.leaf().unwrap();
            prop_assert!(topo.is_leaf(leaf));
            prop_assert!(topo.capacity(leaf) == 1, "phantom leaf targeted");
            // The target leaf is free — unless the ball already sits on
            // it (a leaf ball's path is the single node it occupies).
            if tree.current_node(Label(b)) != Some(leaf) {
                prop_assert!(tree.remaining_capacity(leaf) >= 1);
            }
        }
    }

    /// `ordered_balls` returns each ball exactly once, sorted by the
    /// priority order `<R`: depth descending, label ascending.
    #[test]
    fn ordered_balls_is_the_priority_order(
        n in 1usize..32,
        placements in prop::collection::vec((any::<u64>(), any::<u8>()), 0..48),
    ) {
        let topo = Topology::new(n).unwrap();
        let mut tree = LocalTree::new(topo);
        let slots = topo.node_slots() as u32;
        for (ball, node) in placements {
            let _ = tree.insert(Label(ball), 1 + (node as NodeId) % (slots - 1));
        }
        let order = tree.ordered_balls();
        prop_assert_eq!(order.len(), tree.len());
        for w in order.windows(2) {
            let da = topo.depth(tree.current_node(w[0]).unwrap());
            let db = topo.depth(tree.current_node(w[1]).unwrap());
            prop_assert!(da > db || (da == db && w[0] < w[1]));
        }
    }

    /// The deterministic rank-slot rule sends the balls of any one node
    /// to pairwise distinct, currently-free leaves.
    #[test]
    fn rank_slot_paths_are_collision_free(
        n in 2usize..64,
        balls in 2usize..64,
        seed in any::<u64>(),
    ) {
        let balls = balls.min(n);
        let topo = Topology::new(n).unwrap();
        // Scatter the balls via one random phase first so they are not
        // all at the root.
        let mut tree =
            LocalTree::with_balls_at_root(topo, (0..balls as u64).map(Label));
        let mut rng = SeedTree::new(seed).process_rng(ProcId(2));
        for b in 0..balls as u64 {
            let p = tree.random_path(Label(b), CoinRule::Weighted, &mut rng).unwrap();
            tree.place_along(Label(b), &p).unwrap();
        }
        // Per node, the rank-slot targets must be distinct free leaves.
        let mut per_node: std::collections::BTreeMap<NodeId, Vec<NodeId>> = Default::default();
        for (ball, node) in tree.balls().collect::<Vec<_>>() {
            let p = tree.rank_slot_path(ball).unwrap();
            let leaf = p.leaf().unwrap();
            prop_assert!(topo.is_leaf(leaf));
            // A leaf with a ball on it has remaining 0 — unless the
            // targeting ball *is* that ball.
            if tree.current_node(ball) != Some(leaf) {
                prop_assert!(tree.remaining_capacity(leaf) >= 1);
            }
            per_node.entry(node).or_default().push(leaf);
        }
        for (node, leaves) in per_node {
            let mut sorted = leaves.clone();
            sorted.sort_unstable();
            sorted.dedup();
            prop_assert_eq!(sorted.len(), leaves.len(), "node {} collides: {:?}", node, leaves);
        }
    }

    /// `place_along` lands the ball on the deepest feasible prefix node:
    /// every node before the landing node had capacity, and the next one
    /// (if any) was full.
    #[test]
    fn move_walk_stops_exactly_at_first_full_subtree(
        n in 1usize..48,
        balls in 1usize..48,
        moves in prop::collection::vec(any::<u8>(), 1..64),
        seed in any::<u64>(),
    ) {
        let balls = balls.min(n);
        let topo = Topology::new(n).unwrap();
        let mut tree =
            LocalTree::with_balls_at_root(topo, (0..balls as u64).map(Label));
        let mut rng = SeedTree::new(seed).process_rng(ProcId(3));
        for which in moves {
            let ball = Label((which as usize % balls) as u64);
            let path = tree.random_path(ball, CoinRule::Weighted, &mut rng).unwrap();
            let landed = tree.place_along(ball, &path).unwrap();
            let nodes = path.to_nodes();
            let idx = nodes.iter().position(|v| *v == landed).unwrap();
            // The landing node now holds the ball and still respects
            // Lemma 1 (validated); the next path node must have been full
            // at placement time, i.e. full now too (the ball is not
            // inside it).
            if idx + 1 < nodes.len() {
                prop_assert_eq!(tree.remaining_capacity(nodes[idx + 1]), 0);
            }
            tree.validate().unwrap();
        }
    }

    /// Topology arithmetic: capacities are additive and spans partition.
    #[test]
    fn topology_capacity_additive(n in 1usize..512) {
        let topo = Topology::new(n).unwrap();
        for v in 1..(topo.node_slots() / 2) as NodeId {
            prop_assert_eq!(
                topo.capacity(v),
                topo.capacity(2 * v) + topo.capacity(2 * v + 1)
            );
            let (lo, hi) = topo.leaf_span(v);
            let (llo, lhi) = topo.leaf_span(2 * v);
            let (rlo, rhi) = topo.leaf_span(2 * v + 1);
            prop_assert_eq!((lo, hi), (llo, rhi));
            prop_assert_eq!(lhi, rlo);
        }
    }

    /// `chain` produces exactly the ancestor chain, and every leaf is
    /// reachable from the root.
    #[test]
    fn topology_chains_are_sound(n in 1usize..256) {
        let topo = Topology::new(n).unwrap();
        for rank in 0..n as u32 {
            let leaf = topo.leaf_for_rank(rank).unwrap();
            let chain = topo.chain(ROOT, leaf).unwrap();
            prop_assert_eq!(chain.len() as u32, topo.levels() + 1);
            prop_assert_eq!(chain[0], ROOT);
            prop_assert_eq!(*chain.last().unwrap(), leaf);
            for w in chain.windows(2) {
                prop_assert!(topo.is_ancestor_or_self(w[0], w[1]));
                prop_assert_eq!(topo.parent(w[1]), w[0]);
            }
        }
    }

    /// Rejected placements leave the tree untouched — for arbitrary
    /// (hostile) packed pairs, which is exactly what the wire can
    /// deliver.
    #[test]
    fn failed_place_along_is_a_noop(
        n in 2usize..32,
        leaf in any::<u32>(),
        len in any::<u8>(),
    ) {
        let topo = Topology::new(n).unwrap();
        let mut tree = LocalTree::with_balls_at_root(topo, [Label(7)]);
        let before = tree.clone();
        let path = PackedPath::new(leaf, len);
        if tree.place_along(Label(7), &path).is_err() {
            prop_assert_eq!(&tree, &before);
        }
        tree.validate().unwrap();
    }
}

fn digest(tree: &LocalTree) -> u64 {
    let mut hasher = DefaultHasher::new();
    tree.hash(&mut hasher);
    hasher.finish()
}

proptest! {
    /// Equal trees hash equally whatever their histories. A tree built
    /// by random inserts, moves and removals, with some leaves blocked,
    /// equals — and hashes like — a twin that first admits decoy labels,
    /// then the tree's live balls in descending label order (each one an
    /// out-of-order insert that renumbers the column), removes the
    /// decoys, revives and removes them again, and blocks the same leaves
    /// in reverse order.
    #[test]
    fn equal_trees_hash_equally_whatever_their_history(
        n in 1usize..40,
        ops in raw_ops(),
        blocked in prop::collection::vec(any::<u32>(), 0..4),
        decoys in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let topo = Topology::new(n).unwrap();
        let slots = topo.node_slots() as u32;
        let mut tree = LocalTree::new(topo);
        for op in ops {
            match op {
                RawOp::Insert(b, node) => {
                    let _ = tree.insert(Label(b as u64), 1 + (node as NodeId) % (slots - 1));
                }
                RawOp::Update(b, node) => {
                    let _ = tree.update_node(Label(b as u64), 1 + (node as NodeId) % (slots - 1));
                }
                RawOp::Remove(b) => {
                    let _ = tree.remove(Label(b as u64));
                }
                _ => {}
            }
        }
        let padded = topo.padded_leaves() as u32;
        let leaves: Vec<NodeId> = blocked.iter().map(|pick| padded + pick % padded).collect();
        for &leaf in &leaves {
            tree.block_leaf(leaf).unwrap();
        }

        let decoys: Vec<Label> = decoys
            .iter()
            .map(|&d| Label(d as u64))
            .filter(|&d| !tree.contains(d))
            .collect();
        let mut twin = LocalTree::new(topo);
        for &decoy in &decoys {
            let _ = twin.insert(decoy, ROOT);
        }
        let live: Vec<(Label, NodeId)> = tree.balls().collect();
        for &(ball, node) in live.iter().rev() {
            twin.insert(ball, node).unwrap();
        }
        for &decoy in &decoys {
            twin.remove(decoy);
            let _ = twin.insert(decoy, ROOT);
            twin.remove(decoy);
        }
        for &leaf in leaves.iter().rev() {
            twin.block_leaf(leaf).unwrap();
        }
        twin.validate_consistency().unwrap();
        prop_assert_eq!(&tree, &twin);
        prop_assert_eq!(digest(&tree), digest(&twin));
    }
}
