//! Candidate paths: construction rules and the capacity-respecting
//! move-walk.
//!
//! A candidate path (Algorithm 1, lines 4–10) runs from a ball's current
//! node down to a leaf. This module provides:
//!
//! * [`PackedPath`] — the fixed-size, `Copy` path representation: a
//!   contiguous parent→child chain ending at a leaf is fully determined
//!   by its *(leaf, length)* pair, so the whole chain packs into 8 bytes
//!   with `O(1)` construction and no heap allocation anywhere on the
//!   per-ball per-round hot path;
//! * the paper's **weighted random** descent — at each internal node the
//!   child is chosen with probability proportional to its remaining
//!   capacity (line 6);
//! * the **deterministic rank** descents used by the early-terminating
//!   extension (§6) and by the comparison-based baseline;
//! * two scripted rules (`uniform`, `leftmost`) for the ablation and
//!   figure-reproduction experiments;
//! * [`LocalTree::place_at_slot`] — the move-walk of lines 12–18: follow
//!   the path until just before the first *full* subtree, as resolved in
//!   the fidelity notes of `DESIGN.md` §4. [`LocalTree::place_along`] is
//!   its label form.
//!
//! Paths built by the rules in this module are valid by construction;
//! paths received from the network are re-validated by
//! [`LocalTree::place_at_slot`], which rejects (without touching the tree)
//! any packed pair whose implied chain does not start at the ball's
//! current node or does not end on a real leaf. Chains that are not
//! contiguous are *unrepresentable* in packed form — the class of
//! malformed inputs shrinks by construction.

use bil_runtime::Label;
use rand::Rng;

use crate::local::LocalTree;
use crate::topology::{NodeId, TreeError};

/// Maximum number of nodes on a candidate path: a root→leaf chain of the
/// deepest supported tree ([`crate::MAX_LEAVES`] = 2^26 leaves, depth 26).
pub const MAX_PATH_LEN: usize = 27;

/// A candidate path in packed form: a contiguous parent→child chain from
/// a ball's current node down to a leaf, stored as the *(leaf, length)*
/// pair that fully determines it.
///
/// Because every step of a contiguous chain halves the node id, the node
/// at position `i` (top to bottom) of a chain of `len` nodes ending at
/// `leaf` is exactly `leaf >> (len - 1 - i)` — so the packed pair
/// reproduces, node for node, the chain a `Vec<NodeId>` would store,
/// with `Copy` semantics and zero allocation. The representation is 8
/// bytes ([`PackedPath::single`] of the root is `{leaf: 1, len: 1}`).
///
/// # Examples
///
/// ```
/// use bil_tree::PackedPath;
/// let p = PackedPath::from_nodes(&[1, 3, 6, 13])?;
/// assert_eq!(p.first(), Some(1));
/// assert_eq!(p.leaf(), Some(13));
/// assert_eq!(p.iter().collect::<Vec<_>>(), vec![1, 3, 6, 13]);
/// # Ok::<(), bil_tree::TreeError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PackedPath {
    /// The chain's final node (the targeted leaf). `0` iff `len == 0`.
    leaf: NodeId,
    /// Number of nodes on the chain.
    len: u8,
}

impl PackedPath {
    /// The canonical empty path (only ever seen in hand-built or hostile
    /// inputs; every composition rule produces a non-empty path).
    pub const EMPTY: PackedPath = PackedPath { leaf: 0, len: 0 };

    /// Packs a raw *(leaf, length)* pair **without validation** — the
    /// wire decoder uses this, and [`LocalTree::place_at_slot`] re-validates
    /// at placement time (hostile pairs are rejected there and counted by
    /// the protocol's anomaly accounting). A zero length is normalized to
    /// [`PackedPath::EMPTY`].
    pub fn new(leaf: NodeId, len: u8) -> PackedPath {
        if len == 0 {
            PackedPath::EMPTY
        } else {
            PackedPath { leaf, len }
        }
    }

    /// The single-node path of a ball already sitting on `node`.
    pub fn single(node: NodeId) -> PackedPath {
        PackedPath { leaf: node, len: 1 }
    }

    /// Packs an explicit node chain, validating that it is a non-empty
    /// contiguous parent→child chain of at most [`MAX_PATH_LEN`] nodes.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BadPath`] otherwise.
    pub fn from_nodes(nodes: &[NodeId]) -> Result<PackedPath, TreeError> {
        if nodes.is_empty() {
            return Err(TreeError::BadPath("empty path"));
        }
        if nodes.len() > MAX_PATH_LEN {
            return Err(TreeError::BadPath("path longer than any supported tree"));
        }
        if nodes[0] == 0 {
            return Err(TreeError::BadPath("path contains node id 0"));
        }
        for w in nodes.windows(2) {
            if w[1] != 2 * w[0] && w[1] != 2 * w[0] + 1 {
                return Err(TreeError::BadPath("path is not a parent-child chain"));
            }
        }
        Ok(PackedPath {
            leaf: *nodes.last().expect("non-empty"),
            len: nodes.len() as u8,
        })
    }

    /// The chain's first node (the ball's current node when composed), or
    /// `None` for an empty or over-long (hostile) packing.
    pub fn first(&self) -> Option<NodeId> {
        if self.len == 0 {
            return None;
        }
        self.leaf.checked_shr(u32::from(self.len) - 1)
    }

    /// The chain's final node (the targeted leaf).
    pub fn leaf(&self) -> Option<NodeId> {
        (self.len != 0).then_some(self.leaf)
    }

    /// Number of nodes on the chain.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// `true` if the chain is empty (only possible for hand-built or
    /// hostile packings).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The node at position `i` of the chain, top to bottom.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    pub fn node_at(&self, i: usize) -> NodeId {
        assert!(i < self.len(), "path index {i} out of range");
        self.leaf >> (self.len() - 1 - i)
    }

    /// Iterates the implied node chain, top to bottom, without
    /// allocating.
    pub fn iter(&self) -> PathNodes {
        PathNodes {
            path: *self,
            pos: 0,
        }
    }

    /// The chain as an owned vector (for tests and diagnostics; the hot
    /// path never materializes it).
    pub fn to_nodes(&self) -> Vec<NodeId> {
        self.iter().collect()
    }
}

impl IntoIterator for PackedPath {
    type Item = NodeId;
    type IntoIter = PathNodes;

    fn into_iter(self) -> PathNodes {
        self.iter()
    }
}

/// Iterator over the node chain implied by a [`PackedPath`], produced by
/// [`PackedPath::iter`].
#[derive(Debug, Clone)]
pub struct PathNodes {
    path: PackedPath,
    pos: usize,
}

impl Iterator for PathNodes {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        if self.pos >= self.path.len() {
            return None;
        }
        let v = self.path.node_at(self.pos);
        self.pos += 1;
        Some(v)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.path.len() - self.pos;
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for PathNodes {}

/// How a ball picks the child to descend into while composing its path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CoinRule {
    /// The paper's rule: left with probability
    /// `rem(left) / (rem(left) + rem(right))` (Algorithm 1, line 6).
    #[default]
    Weighted,
    /// Ablation: a fair coin between the children that still have
    /// capacity (ignores *how much* capacity they have).
    Uniform,
    /// Scripted: always the leftmost child with capacity. Reproduces the
    /// "all balls choose the first leaf" panel of Figure 2.
    Leftmost,
}

impl LocalTree {
    /// Composes a random candidate path for `ball` per `rule`
    /// (Algorithm 1 lines 3–10). Allocation-free: the walk tracks only
    /// the current node and packs the result. One
    /// [`LocalTree::current_node`] plus [`LocalTree::random_path_from`].
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownBall`] if `ball` is not in the view.
    ///
    /// # Panics
    ///
    /// Panics if some internal node on the walk has no capacity below it,
    /// which the paper's Lemma 1 rules out — reaching it means the view
    /// was corrupted.
    pub fn random_path<R: Rng + ?Sized>(
        &self,
        ball: Label,
        rule: CoinRule,
        rng: &mut R,
    ) -> Result<PackedPath, TreeError> {
        let start = self
            .current_node(ball)
            .ok_or(TreeError::UnknownBall(ball))?;
        Ok(self.random_path_from(start, rule, rng))
    }

    /// The node-resolved form of [`LocalTree::random_path`]: the descent
    /// itself, from a live ball's already-resolved current node. The
    /// batched compose sweep resolves each ball's slot once (a merge-join
    /// over the label column) and calls this directly; the RNG draw
    /// sequence is exactly the wrapper's — one draw per internal node,
    /// top down, skipped whenever a side has no routing capacity.
    ///
    /// # Panics
    ///
    /// Panics if some internal node on the walk has no capacity below it,
    /// which the paper's Lemma 1 rules out — reaching it means the view
    /// was corrupted.
    pub fn random_path_from<R: Rng + ?Sized>(
        &self,
        start: NodeId,
        rule: CoinRule,
        rng: &mut R,
    ) -> PackedPath {
        let topo = *self.topology();
        let mut v = start;
        let mut len = 1u8;
        // Routing capacity = remaining capacity minus leaves blocked
        // for this view's owner. The walk invariant
        // `route(left) + route(right) = route(v) + at(v) >= 1` holds at
        // every node *entered with* route >= 1 (saturation only helps);
        // only the start node can be cornered, which callers must check
        // with [`LocalTree::routable_below`] before composing a path.
        while !topo.is_leaf(v) {
            let l = self.routing_capacity(topo.left(v));
            let r = self.routing_capacity(topo.right(v));
            assert!(
                l + r > 0,
                "no routable capacity below node {v}; caller must check routable_below"
            );
            let go_left = match rule {
                _ if l == 0 => false,
                _ if r == 0 => true,
                CoinRule::Weighted => rng.random_ratio(l, l + r),
                CoinRule::Uniform => rng.random_bool(0.5),
                CoinRule::Leftmost => true,
            };
            v = if go_left { topo.left(v) } else { topo.right(v) };
            len += 1;
        }
        PackedPath { leaf: v, len }
    }

    /// Composes the deterministic slot-indexed path used by the
    /// comparison-based baseline: `ball`'s rank among the balls at its own
    /// node selects the rank-th remaining slot of the subtree, and the
    /// path descends straight to it.
    ///
    /// This generalizes the §6 phase-1 rule to balls below the root: at
    /// each internal node, the walk goes left if the slot index is below
    /// the left child's remaining capacity, else subtracts it and goes
    /// right. The precondition `slot < rem(left) + rem(right)` holds
    /// because a node holding `k` balls has at least `k` free slots below
    /// it (Lemma 1), and is preserved level by level. Its node-resolved
    /// form is [`LocalTree::rank_slot_path_from`].
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownBall`] if `ball` is not in the view.
    pub fn rank_slot_path(&self, ball: Label) -> Result<PackedPath, TreeError> {
        let start = self
            .current_node(ball)
            .ok_or(TreeError::UnknownBall(ball))?;
        let rank = self.rank_at_node(ball)? as u32;
        Ok(self.rank_slot_path_from(start, rank))
    }

    /// The node-resolved form of [`LocalTree::rank_slot_path`]: the slot
    /// descent itself, given a live ball's already-resolved current node
    /// and its rank among the balls there (from
    /// [`LocalTree::rank_at_slot`]). The batched compose sweep calls this
    /// directly after its merge-join; the walk is identical to the
    /// wrapper's.
    pub fn rank_slot_path_from(&self, start: NodeId, rank: u32) -> PackedPath {
        let mut slot = rank;
        let topo = *self.topology();
        let mut v = start;
        let mut len = 1u8;
        // No corner case here: `slot < at(node) <= route(l) + route(r)`
        // holds by the routing identity, so the slot walk always finds
        // an unblocked free leaf.
        while !topo.is_leaf(v) {
            let l = self.routing_capacity(topo.left(v));
            let r = self.routing_capacity(topo.right(v));
            debug_assert!(
                slot < l + r,
                "slot {slot} out of range at node {v} (l={l}, r={r})"
            );
            if slot < l {
                v = topo.left(v);
            } else {
                slot -= l;
                v = topo.right(v);
            }
            len += 1;
        }
        PackedPath { leaf: v, len }
    }

    /// The move-walk (Algorithm 1 lines 12–18): walks `ball` down `path`
    /// until just before the first subtree with no remaining capacity,
    /// moves it there in one step, and returns its new node. One
    /// [`LocalTree::slot_of`] plus [`LocalTree::place_at_slot`], which
    /// documents the walk and the validation.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownBall`] if `ball` is absent, or
    /// [`TreeError::BadPath`] if `path` is empty, does not start at the
    /// ball's current node, or does not end on a leaf.
    pub fn place_along(&mut self, ball: Label, path: &PackedPath) -> Result<NodeId, TreeError> {
        let slot = self.slot_of(ball).ok_or(TreeError::UnknownBall(ball))?;
        self.place_at_slot(slot, path)
    }

    /// The slot-resolved form of [`LocalTree::place_along`]: the
    /// move-walk (Algorithm 1 lines 12–18) of the ball in `slot`. The
    /// path-round sweep places each ball by its snapshot slot this way.
    ///
    /// Algorithm 1 removes the ball *first* so its own vacated slot is
    /// available — that guarantees the walk's first node is always
    /// feasible and that "there is enough space below to accommodate it"
    /// (§4). This implementation walks first and moves once at the end,
    /// which is observably identical: the walk queries capacities only of
    /// *strict descendants* of the ball's current node, and the ball —
    /// sitting at the current node itself — is in none of those subtrees,
    /// so every capacity the walk reads is the same whether or not the
    /// ball has been removed. Walking first keeps the hot path to a
    /// single position update (or none, when the ball stays put).
    ///
    /// This is also where network-received paths are re-validated: a
    /// packed pair is accepted only if its implied chain starts at the
    /// ball's current node and ends on a real leaf of this topology
    /// (non-contiguous chains are unrepresentable in packed form). On
    /// error the tree is unchanged — identically in debug and release
    /// builds, so hostile wire input is always rejected, never absorbed.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownBall`] with the slot's label if `slot`
    /// is vacant, or [`TreeError::BadPath`] if `path` is empty, does not
    /// start at the ball's current node, or does not end on a leaf.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range of [`LocalTree::label_column`].
    pub fn place_at_slot(&mut self, slot: usize, path: &PackedPath) -> Result<NodeId, TreeError> {
        let current = self
            .node_at_slot(slot)
            .ok_or_else(|| TreeError::UnknownBall(self.label_column()[slot]))?;
        let Some(leaf) = path.leaf() else {
            return Err(TreeError::BadPath("empty path"));
        };
        if path.first() != Some(current) {
            return Err(TreeError::BadPath("path does not start at current node"));
        }
        let topo = *self.topology();
        // A valid terminal implies every node on the chain is valid: the
        // chain's nodes are exactly the terminal's ancestors down from
        // `first`, and ancestors of an in-range node are in range.
        if !topo.is_node(leaf) || !topo.is_leaf(leaf) {
            return Err(TreeError::BadPath("path does not end at a leaf"));
        }

        // With the ball still in place, `load <= capacity` at its own
        // node is exactly Algorithm 1's "vacated slot makes the start
        // node feasible" (remove would turn it into `remaining >= 1`).
        debug_assert!(
            self.load(current) <= topo.capacity(current),
            "vacated slot must make the start node feasible"
        );
        let mut idx = 0;
        while idx + 1 < path.len() && self.remaining_capacity(path.node_at(idx + 1)) >= 1 {
            idx += 1;
        }
        let dest = path.node_at(idx);
        // `dest` lies on the validated chain, so this never fails; a
        // ball that stays put costs no update.
        self.update_at_slot(slot, dest)?;
        Ok(dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{Topology, ROOT};
    use bil_runtime::rng::SeedTree;
    use bil_runtime::ProcId;

    fn topo(n: usize) -> Topology {
        Topology::new(n).unwrap()
    }

    fn rng() -> rand::rngs::SmallRng {
        SeedTree::new(42).process_rng(ProcId(0))
    }

    fn packed(nodes: &[NodeId]) -> PackedPath {
        PackedPath::from_nodes(nodes).unwrap()
    }

    #[test]
    fn packed_path_is_small_and_copy() {
        assert!(std::mem::size_of::<PackedPath>() <= 16);
        let p = packed(&[1, 3, 6, 13]);
        let q = p; // Copy, not move
        assert_eq!(p, q);
    }

    #[test]
    fn candidate_path_accessors() {
        let p = packed(&[1, 3, 6, 13]);
        assert_eq!(p.first(), Some(1));
        assert_eq!(p.leaf(), Some(13));
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
        assert_eq!(p.to_nodes(), vec![1, 3, 6, 13]);
        assert_eq!(p.node_at(0), 1);
        assert_eq!(p.node_at(2), 6);
        let it = p.iter();
        assert_eq!(it.len(), 4);
        assert_eq!(it.collect::<Vec<_>>(), vec![1, 3, 6, 13]);
    }

    #[test]
    fn from_nodes_validates_chains() {
        assert!(matches!(
            PackedPath::from_nodes(&[]),
            Err(TreeError::BadPath("empty path"))
        ));
        assert!(matches!(
            PackedPath::from_nodes(&[1, 3, 4]),
            Err(TreeError::BadPath("path is not a parent-child chain"))
        ));
        assert!(matches!(
            PackedPath::from_nodes(&[0]),
            Err(TreeError::BadPath("path contains node id 0"))
        ));
        let long: Vec<NodeId> = (0..28).map(|i| 1u32 << i).collect();
        assert!(PackedPath::from_nodes(&long).is_err());
        // A maximal legal chain packs fine.
        let max: Vec<NodeId> = (0..27).map(|i| 1u32 << i).collect();
        assert_eq!(packed(&max).len(), MAX_PATH_LEN);
    }

    #[test]
    fn empty_and_hostile_packings_are_inert() {
        assert!(PackedPath::EMPTY.is_empty());
        assert_eq!(PackedPath::EMPTY.first(), None);
        assert_eq!(PackedPath::EMPTY.leaf(), None);
        assert_eq!(PackedPath::new(9, 0), PackedPath::EMPTY);
        // An over-long hostile packing has no first node (the shift
        // overflows), so placement rejects it as not-starting-at-current.
        let hostile = PackedPath::new(13, 200);
        assert_eq!(hostile.first(), None);
        assert_eq!(hostile.leaf(), Some(13));
    }

    #[test]
    fn random_path_reaches_a_leaf() {
        let t = LocalTree::with_balls_at_root(topo(8), (0..8).map(Label));
        let mut r = rng();
        for rule in [CoinRule::Weighted, CoinRule::Uniform, CoinRule::Leftmost] {
            let p = t.random_path(Label(0), rule, &mut r).unwrap();
            assert_eq!(p.first(), Some(ROOT));
            assert!(t.topology().is_leaf(p.leaf().unwrap()));
            assert_eq!(p.len(), 4); // depth 3 + 1
        }
    }

    #[test]
    fn random_path_avoids_full_subtrees() {
        // Fill the left half completely; all paths must go right.
        let mut t = LocalTree::new(topo(4));
        t.insert(Label(1), 4).unwrap();
        t.insert(Label(2), 5).unwrap();
        t.insert(Label(3), ROOT).unwrap();
        let mut r = rng();
        for _ in 0..32 {
            let p = t.random_path(Label(3), CoinRule::Weighted, &mut r).unwrap();
            assert_eq!(p.node_at(1), 3, "must enter the right subtree");
        }
    }

    #[test]
    fn random_path_never_targets_phantom_leaves() {
        // n=5: leaves 8..13 real, 13..16 phantom.
        let t = LocalTree::with_balls_at_root(topo(5), (0..5).map(Label));
        let mut r = rng();
        for ball in 0..5 {
            for _ in 0..16 {
                let p = t
                    .random_path(Label(ball), CoinRule::Weighted, &mut r)
                    .unwrap();
                let leaf = p.leaf().unwrap();
                assert!(
                    t.topology().capacity(leaf) == 1,
                    "phantom leaf {leaf} chosen"
                );
            }
        }
    }

    #[test]
    fn leftmost_rule_is_deterministic() {
        let t = LocalTree::with_balls_at_root(topo(8), (0..8).map(Label));
        let mut r = rng();
        let p1 = t.random_path(Label(0), CoinRule::Leftmost, &mut r).unwrap();
        let p2 = t.random_path(Label(0), CoinRule::Leftmost, &mut r).unwrap();
        assert_eq!(p1, p2);
        assert_eq!(p1.leaf(), Some(8)); // leftmost leaf
    }

    #[test]
    fn weighted_prefers_emptier_side() {
        // Left subtree has 1 slot free, right has 4: right should win
        // roughly 4/5 of the time.
        let mut t = LocalTree::new(topo(8));
        t.insert(Label(1), 8).unwrap();
        t.insert(Label(2), 9).unwrap();
        t.insert(Label(3), 10).unwrap();
        t.insert(Label(9), ROOT).unwrap();
        let mut r = rng();
        let mut rights = 0;
        let trials = 2000;
        for _ in 0..trials {
            let p = t.random_path(Label(9), CoinRule::Weighted, &mut r).unwrap();
            if p.node_at(1) == 3 {
                rights += 1;
            }
        }
        let frac = rights as f64 / trials as f64;
        assert!((0.72..0.88).contains(&frac), "right fraction {frac}");
    }

    #[test]
    fn rank_slot_path_spreads_balls_distinctly() {
        let t = LocalTree::with_balls_at_root(topo(8), (0..8).map(Label));
        let mut leaves = Vec::new();
        for b in 0..8 {
            let p = t.rank_slot_path(Label(b)).unwrap();
            leaves.push(p.leaf().unwrap());
        }
        let mut sorted = leaves.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 8, "all target leaves distinct: {leaves:?}");
    }

    #[test]
    fn rank_slot_path_skips_occupied_slots() {
        let mut t = LocalTree::new(topo(4));
        t.insert(Label(10), 4).unwrap(); // leaf 0 taken
        t.insert(Label(1), ROOT).unwrap();
        t.insert(Label(2), ROOT).unwrap();
        let p1 = t.rank_slot_path(Label(1)).unwrap();
        let p2 = t.rank_slot_path(Label(2)).unwrap();
        assert_eq!(p1.leaf(), Some(5)); // first *free* slot
        assert_eq!(p2.leaf(), Some(6));
    }

    #[test]
    fn place_along_descends_to_leaf_when_free() {
        let mut t = LocalTree::with_balls_at_root(topo(4), [Label(1)]);
        let p = packed(&[1, 2, 4]);
        let node = t.place_along(Label(1), &p).unwrap();
        assert_eq!(node, 4);
        assert_eq!(t.current_node(Label(1)), Some(4));
        t.validate().unwrap();
    }

    #[test]
    fn place_along_stops_before_full_subtree() {
        let mut t = LocalTree::new(topo(4));
        t.insert(Label(1), 4).unwrap();
        t.insert(Label(2), 5).unwrap(); // left subtree (node 2) now full
        t.insert(Label(3), ROOT).unwrap();
        let p = packed(&[1, 2, 4]);
        let node = t.place_along(Label(3), &p).unwrap();
        assert_eq!(node, ROOT, "stops at root: left child is full");
        t.validate().unwrap();
    }

    #[test]
    fn place_along_ball_at_leaf_stays() {
        let mut t = LocalTree::new(topo(4));
        t.insert(Label(1), 4).unwrap();
        let p = PackedPath::single(4);
        assert_eq!(t.place_along(Label(1), &p).unwrap(), 4);
        t.validate().unwrap();
    }

    #[test]
    fn place_along_rejects_malformed_paths() {
        let mut t = LocalTree::with_balls_at_root(topo(4), [Label(1)]);
        for (path, why) in [
            (PackedPath::EMPTY, "empty"),
            (PackedPath::new(4, 2), "wrong start"),
            (PackedPath::new(2, 2), "not a leaf"),
            (PackedPath::new(99, 7), "terminal out of range"),
            (PackedPath::new(13, 250), "hostile over-long length"),
        ] {
            assert!(t.place_along(Label(1), &path).is_err(), "{why}");
        }
        // Tree unchanged after rejected placements.
        assert_eq!(t.current_node(Label(1)), Some(ROOT));
        t.validate().unwrap();
        assert!(t.place_along(Label(9), &packed(&[1, 2, 4])).is_err());
    }

    #[test]
    fn place_along_rejects_padded_phantom_terminals() {
        // n=3 pads to 4 leaves; slot 7 is a phantom leaf (capacity 0).
        // A path targeting it is structurally a leaf path, but the walk
        // stops above it because the phantom subtree has no capacity.
        let mut t = LocalTree::with_balls_at_root(topo(3), [Label(1)]);
        let node = t.place_along(Label(1), &packed(&[1, 3, 7])).unwrap();
        assert_eq!(node, 3, "stops above the phantom leaf");
        t.validate().unwrap();
        // A terminal beyond the node range is rejected outright.
        assert!(t.place_along(Label(1), &PackedPath::new(8, 3)).is_err());
    }

    #[test]
    fn full_phase_simulation_matches_paper_walkthrough() {
        // Four balls at the root, all proposing the same leftmost leaf
        // (the Figure 2a scenario): priorities resolve the pile-up as
        // computed in DESIGN.md §4.
        let mut t = LocalTree::with_balls_at_root(topo(4), (1..=4).map(Label));
        let path = packed(&[1, 2, 4]);
        // <R order at phase start: all at root, so label order.
        assert_eq!(t.place_along(Label(1), &path).unwrap(), 4);
        assert_eq!(t.place_along(Label(2), &path).unwrap(), 2);
        assert_eq!(t.place_along(Label(3), &path).unwrap(), ROOT);
        assert_eq!(t.place_along(Label(4), &path).unwrap(), ROOT);
        t.validate().unwrap();
        assert_eq!(t.remaining_capacity(ROOT), 0);
        // Ball 2 sits at node 2, whose subtree (2 leaves) is now exactly
        // full — but leaf 5 is still free *for ball 2 itself*, which is
        // the "enough space below" guarantee. Balls 3 and 4 have the
        // untouched right subtree.
        assert_eq!(t.remaining_capacity(2), 0);
        assert_eq!(t.remaining_capacity(5), 1);
        assert_eq!(t.remaining_capacity(3), 2);
    }
}
