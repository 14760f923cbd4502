//! A ball's local view of the tree: ball positions plus per-subtree
//! capacity accounting (Algorithm 1's data structures and operations).
//!
//! The paper (§4): *"each ball `bi` keeps a local tree, containing the
//! current position of each ball, including itself"*, with operations
//! `Remove`, `CurrentNode`, `UpdateNode`, `OrderedBalls` (the priority
//! order `<R`), and `RemainingCapacity`. [`LocalTree`] implements exactly
//! those — in structure-of-arrays form, so the per-round operations are
//! array reads and writes instead of tree-map traversals:
//!
//! * the **label column** — all labels this view has ever admitted,
//!   sorted ascending ([`LocalTree::label_column`]) — paired with the
//!   **node column** ([`LocalTree::node_column`]): `node_column[s]` is
//!   the current node of `label_column[s]`, or `0` for a *vacant* slot
//!   (a removed ball). Slots are stable: removal marks the slot vacant
//!   in place, and re-admission (crash-echo paths) revives it, so the
//!   only operation that ever renumbers slots is the insertion of a
//!   brand-new label out of order ([`LocalTree::shift_generation`]);
//! * `balls_in` — node → number of balls in its *subtree* (for `O(1)`
//!   remaining-capacity queries), as a dense per-node column.
//!
//! Who sits *exactly at* a node is derived, not stored: the count is
//! `balls_in(v) − balls_in(2v) − balls_in(2v+1)`, and the balls
//! themselves are the slots of the node column that hold `v`, already
//! in label order. Among the protocols only the rank-indexed descents
//! ask (§6's early-terminating phase 1 and the deterministic rank
//! rule), so no move pays to keep a per-node list.
//!
//! The paper's operations are keyed by ball, and so are their label
//! forms here, each one search of the label column plus a slot form:
//! [`LocalTree::node_at_slot`], [`LocalTree::rank_at_slot`],
//! [`LocalTree::place_at_slot`], [`LocalTree::update_at_slot`] and
//! [`LocalTree::remove_at_slot`]. Callers that already hold a ball's slot
//! (the batched compose and apply sweeps) call the slot forms directly.
//!
//! The central safety invariant (the paper's Lemma 1) — **no subtree ever
//! holds more balls than it has leaves** — is enforced by
//! [`LocalTree::place_along`] and checkable at any time with
//! [`LocalTree::validate`].
//!
//! A tree's [`Hash`] reads what its equality reads in `O(1)` (plus its
//! blocked set, usually empty): `link` and `unlink` keep a wrapping sum
//! of one mixed term per live `(ball, node)` pair, so the cluster store
//! can bucket views by digest instead of comparing every pair of them.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::hash::{Hash, Hasher};

use bil_runtime::rng::split_mix64;
use bil_runtime::Label;

use crate::topology::{NodeId, Topology, TreeError, MAX_LEAVES, ROOT};

/// The node column's vacant-slot marker (`0` is never a valid node).
const VACANT: NodeId = 0;

/// One priority-snapshot bucket per possible depth, `0 ..= log2(MAX_LEAVES)`.
const DEPTH_BUCKETS: usize = MAX_LEAVES.trailing_zeros() as usize + 1;

/// The digest term of one live `(ball, node)` pair. A tree's digest is
/// the wrapping sum of its pairs' terms, so it depends on the set of
/// pairs only: not on the order they were linked in, nor on vacant
/// slots.
fn pair_term(ball: Label, node: NodeId) -> u64 {
    split_mix64(ball.0.rotate_left(32) ^ u64::from(node))
}

/// A detected breach of the tree's internal invariants. Seeing one of
/// these means a bug in the algorithm or the engine, never a recoverable
/// runtime condition; it exists as a value (rather than a panic) so tests
/// and the model checker can assert on it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvariantViolation {
    message: String,
}

impl InvariantViolation {
    fn new(message: String) -> Self {
        InvariantViolation { message }
    }
}

impl fmt::Display for InvariantViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tree invariant violated: {}", self.message)
    }
}

impl Error for InvariantViolation {}

/// One entry of the priority order `<R`, as produced by
/// [`LocalTree::priority_order_into`]: the ball, its label-column slot
/// at snapshot time, and its depth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OrderedBall {
    /// Depth of the ball's node at snapshot time (root = 0).
    pub depth: u32,
    /// The ball's slot in the label column at snapshot time. Stale if
    /// [`LocalTree::shift_generation`] has advanced since.
    pub slot: u32,
    /// The ball's label.
    pub ball: Label,
}

/// A ball's local view of the capacity tree.
///
/// # Examples
///
/// ```
/// use bil_runtime::Label;
/// use bil_tree::{LocalTree, Topology, ROOT};
///
/// let topo = Topology::new(4)?;
/// let mut tree = LocalTree::with_balls_at_root(topo, [Label(1), Label(2)]);
/// assert_eq!(tree.remaining_capacity(ROOT), 2);
/// assert_eq!(tree.current_node(Label(1)), Some(ROOT));
/// # Ok::<(), bil_tree::TreeError>(())
/// ```
#[derive(Debug, Clone)]
pub struct LocalTree {
    topo: Topology,
    /// Balls in the subtree rooted at each node (index = `NodeId`).
    balls_in: Vec<u32>,
    /// Every label ever admitted, sorted ascending (slot = index).
    labels: Vec<Label>,
    /// Slot → current node, or [`VACANT`] for a removed ball.
    node_of: Vec<NodeId>,
    /// Number of live (non-vacant) slots.
    live: usize,
    /// Balls at each depth (index = depth; every leaf sits at depth
    /// `levels`): the priority snapshot's bucket sizes.
    at_depth: [u32; DEPTH_BUCKETS],
    /// Bumped whenever existing slots are renumbered (out-of-order
    /// insertion of a brand-new label). See
    /// [`LocalTree::shift_generation`].
    shift_gen: u64,
    /// Leaves this view's owner must never route toward (see
    /// [`LocalTree::block_leaf`]). Usually empty.
    blocked: BTreeSet<NodeId>,
    /// Wrapping sum of [`pair_term`] over the live slots, kept by
    /// `link`/`unlink`: the `O(1)` part of the tree's [`Hash`].
    digest: u64,
}

impl PartialEq for LocalTree {
    fn eq(&self, other: &Self) -> bool {
        // Equality is positional: same shape, same live (ball, node)
        // pairs, same blocked set. Vacant slots and `shift_gen` are
        // history, not state — two views that witnessed different
        // removals but hold the same balls still compare equal (and may
        // share a cluster). All other columns are derived.
        self.topo == other.topo
            && self.blocked == other.blocked
            && self.live == other.live
            && self.balls().eq(other.balls())
    }
}

impl Eq for LocalTree {}

impl Hash for LocalTree {
    /// Hashes what equality reads: the shape, the blocked set, the live
    /// count and the digest of the live `(ball, node)` pairs, which
    /// stands in for the pairs themselves. Equal trees hold the same
    /// pairs, so they hash equally whatever their histories; unequal
    /// trees collide only when their digests do.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.topo.hash(state);
        self.blocked.hash(state);
        self.live.hash(state);
        self.digest.hash(state);
    }
}

impl LocalTree {
    /// An empty view over the given shape.
    pub fn new(topo: Topology) -> Self {
        LocalTree {
            topo,
            balls_in: vec![0; topo.node_slots()],
            labels: Vec::new(),
            node_of: Vec::new(),
            live: 0,
            at_depth: [0; DEPTH_BUCKETS],
            shift_gen: 0,
            blocked: BTreeSet::new(),
            digest: 0,
        }
    }

    /// A view with every ball of `labels` at the root — the paper's
    /// initial configuration (Figure 1).
    ///
    /// # Panics
    ///
    /// Panics if `labels` contains duplicates (a constructor misuse).
    pub fn with_balls_at_root<I: IntoIterator<Item = Label>>(topo: Topology, labels: I) -> Self {
        let mut tree = LocalTree::new(topo);
        for l in labels {
            tree.insert(l, ROOT)
                .expect("duplicate label at construction");
        }
        tree
    }

    /// The tree shape.
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Number of balls in the view.
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` if the view holds no balls.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// `true` if the view contains `ball`.
    pub fn contains(&self, ball: Label) -> bool {
        self.slot_of(ball).is_some()
    }

    /// Current node of `ball` (`CurrentNode` in the paper). Its slot
    /// form is [`LocalTree::node_at_slot`].
    pub fn current_node(&self, ball: Label) -> Option<NodeId> {
        self.slot_of(ball).map(|s| self.node_of[s])
    }

    /// The slot of `ball` in the label column, if it is live.
    pub fn slot_of(&self, ball: Label) -> Option<usize> {
        match self.labels.binary_search(&ball) {
            Ok(slot) if self.node_of[slot] != VACANT => Some(slot),
            _ => None,
        }
    }

    /// The current node of the ball in `slot`, or `None` if the slot is
    /// vacant or out of range. The slot-resolved form of
    /// [`LocalTree::current_node`], for callers (the batched compose
    /// sweep) that already merge-joined the label column.
    pub fn node_at_slot(&self, slot: usize) -> Option<NodeId> {
        match self.node_of.get(slot) {
            Some(&node) if node != VACANT => Some(node),
            _ => None,
        }
    }

    /// The sorted label column, including vacant slots (every label this
    /// view has ever admitted). Paired index-for-index with
    /// [`LocalTree::node_column`].
    pub fn label_column(&self) -> &[Label] {
        &self.labels
    }

    /// The node column: `node_column()[s]` is the current node of
    /// `label_column()[s]`, or `0` for a vacant (removed) slot.
    pub fn node_column(&self) -> &[NodeId] {
        &self.node_of
    }

    /// Bumped whenever existing slots are renumbered — which happens
    /// only when a brand-new label is inserted *out of order* (crash
    /// echoes re-introducing a ball this view never admitted). Removal
    /// and re-admission of a known label keep slots stable. Consumers
    /// caching slot indexes across mutations must re-resolve when this
    /// advances.
    pub fn shift_generation(&self) -> u64 {
        self.shift_gen
    }

    /// Iterate `(ball, node)` pairs in label order.
    pub fn balls(&self) -> impl Iterator<Item = (Label, NodeId)> + '_ {
        self.labels
            .iter()
            .zip(self.node_of.iter())
            .filter(|(_, n)| **n != VACANT)
            .map(|(l, n)| (*l, *n))
    }

    /// Links a vacant `slot` to `node`, maintaining every column.
    fn link(&mut self, slot: usize, node: NodeId) {
        debug_assert_eq!(self.node_of[slot], VACANT);
        self.node_of[slot] = node;
        self.live += 1;
        self.digest = self.digest.wrapping_add(pair_term(self.labels[slot], node));
        for v in self.topo.ancestors_inclusive(node) {
            self.balls_in[v as usize] += 1;
        }
        self.at_depth[self.topo.depth(node) as usize] += 1;
    }

    /// Unlinks a live `slot`, leaving it vacant; returns the node it
    /// was at.
    fn unlink(&mut self, slot: usize) -> NodeId {
        let node = self.node_of[slot];
        debug_assert_ne!(node, VACANT);
        self.node_of[slot] = VACANT;
        self.live -= 1;
        self.digest = self.digest.wrapping_sub(pair_term(self.labels[slot], node));
        for v in self.topo.ancestors_inclusive(node) {
            debug_assert!(self.balls_in[v as usize] > 0);
            self.balls_in[v as usize] -= 1;
        }
        self.at_depth[self.topo.depth(node) as usize] -= 1;
        node
    }

    /// Inserts `ball` at `node`. A label that sorts after every label in
    /// the column is appended, with no search and no renumbering: round
    /// 0's label-sorted inbox admits every ball this way.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BallExists`] if the ball is already present,
    /// or [`TreeError::BadNode`] for an out-of-range node.
    pub fn insert(&mut self, ball: Label, node: NodeId) -> Result<(), TreeError> {
        if !self.topo.is_node(node) {
            return Err(TreeError::BadNode(node));
        }
        if self.labels.last().is_none_or(|&last| last < ball) {
            self.labels.push(ball);
            self.node_of.push(VACANT);
            self.link(self.labels.len() - 1, node);
            return Ok(());
        }
        match self.labels.binary_search(&ball) {
            Ok(slot) => {
                if self.node_of[slot] != VACANT {
                    return Err(TreeError::BallExists(ball));
                }
                // Revive the vacant slot in place: slots stay stable.
                self.link(slot, node);
            }
            Err(idx) => {
                // A brand-new label below the column's last: existing
                // slots above `idx` are renumbered, so any slot index a
                // consumer holds (a priority snapshot) is stale.
                self.labels.insert(idx, ball);
                self.node_of.insert(idx, VACANT);
                self.shift_gen += 1;
                self.link(idx, node);
            }
        }
        Ok(())
    }

    /// Removes `ball` (`Remove` in the paper), returning the node it was
    /// at, or `None` if absent (removing an already-removed ball is a
    /// no-op, matching Algorithm 1's idempotent crash handling). The
    /// ball's slot goes vacant; it is never renumbered away. One
    /// [`LocalTree::slot_of`] plus [`LocalTree::remove_at_slot`].
    pub fn remove(&mut self, ball: Label) -> Option<NodeId> {
        self.remove_at_slot(self.slot_of(ball)?)
    }

    /// The slot-resolved form of [`LocalTree::remove`]: vacates `slot`
    /// and returns the node its ball was at, or `None` if the slot is
    /// already vacant. The apply's silence pass removes silent balls this
    /// way, slot by slot.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range of [`LocalTree::label_column`].
    pub fn remove_at_slot(&mut self, slot: usize) -> Option<NodeId> {
        (self.node_of[slot] != VACANT).then(|| self.unlink(slot))
    }

    /// Moves `ball` to `node` unconditionally (`UpdateNode` in the paper;
    /// used by the position-resynchronization round). Inserts the ball if
    /// it was absent. One search of the label column plus
    /// [`LocalTree::update_at_slot`]; only a label the column has never
    /// held goes through [`LocalTree::insert`].
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BadNode`] as [`LocalTree::update_at_slot`]
    /// does, or as [`LocalTree::insert`] does for a never-held label.
    pub fn update_node(&mut self, ball: Label, node: NodeId) -> Result<(), TreeError> {
        match self.labels.binary_search(&ball) {
            Ok(slot) => self.update_at_slot(slot, node),
            Err(_) => self.insert(ball, node),
        }
    }

    /// The slot-resolved form of [`LocalTree::update_node`]: puts the
    /// ball in `slot` at `node`, linking the slot if it was vacant (as
    /// `update_node` inserts an absent ball). The sync round adopts
    /// announced positions this way, in slot order.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BadNode`] for an out-of-range node, or for a
    /// move onto a node with no real leaf below it (capacity 0), which no
    /// correct ball can reach; the tree is then unchanged. A ball already
    /// at `node` is not checked, so a failure-free sync round pays nothing.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range of [`LocalTree::label_column`].
    pub fn update_at_slot(&mut self, slot: usize, node: NodeId) -> Result<(), TreeError> {
        let current = self.node_of[slot];
        if current == node && current != VACANT {
            return Ok(());
        }
        if !self.topo.is_node(node) || self.topo.capacity(node) == 0 {
            return Err(TreeError::BadNode(node));
        }
        if current != VACANT {
            self.unlink(slot);
        }
        self.link(slot, node);
        Ok(())
    }

    /// Balls in the subtree rooted at `node`.
    pub fn load(&self, node: NodeId) -> u32 {
        debug_assert!(self.topo.is_node(node));
        self.balls_in[node as usize]
    }

    /// Balls exactly at `node`: its subtree's load minus its children's.
    /// `O(1)`.
    pub fn load_at(&self, node: NodeId) -> u32 {
        debug_assert!(self.topo.is_node(node));
        let below = if self.topo.is_leaf(node) {
            0
        } else {
            self.load(self.topo.left(node)) + self.load(self.topo.right(node))
        };
        self.load(node) - below
    }

    /// Balls exactly at `node`, sorted by label. One pass over the
    /// columns, which are already in label order.
    pub fn balls_at(&self, node: NodeId) -> Vec<Label> {
        self.balls()
            .filter(|&(_, v)| v == node)
            .map(|(ball, _)| ball)
            .collect()
    }

    /// `RemainingCapacity(node)`: leaves of the subtree minus balls in the
    /// subtree (paper, §4 data structures).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the subtree holds more balls than leaves
    /// — a violation of the paper's Lemma 1 and therefore a bug.
    pub fn remaining_capacity(&self, node: NodeId) -> u32 {
        let cap = self.topo.capacity(node);
        let load = self.load(node);
        debug_assert!(
            load <= cap,
            "Lemma 1 violated at node {node}: load {load} > capacity {cap}"
        );
        cap.saturating_sub(load)
    }

    /// Marks `leaf` as *blocked for routing*: this view's owner will
    /// never compose a path toward it, while capacity accounting for
    /// *other* balls' moves is unaffected.
    ///
    /// This supports the decide-at-leaf variant's conflict resolution: a
    /// view that evicts a committed-but-silent ball cannot be sure the
    /// ball did not decide that leaf's name, so it renounces the leaf for
    /// itself — making even a wrong eviction harmless (no duplicate claim
    /// can originate from this view).
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::BadNode`] if `leaf` is not a leaf slot.
    pub fn block_leaf(&mut self, leaf: NodeId) -> Result<(), TreeError> {
        if !self.topo.is_node(leaf) || !self.topo.is_leaf(leaf) {
            return Err(TreeError::BadNode(leaf));
        }
        self.blocked.insert(leaf);
        Ok(())
    }

    /// The leaves blocked for routing in this view.
    pub fn blocked_leaves(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.blocked.iter().copied()
    }

    /// Number of *unoccupied* blocked leaves in the subtree of `v` —
    /// capacity that exists on paper but that this view's owner must not
    /// route into.
    pub fn blocked_free_below(&self, v: NodeId) -> u32 {
        if self.blocked.is_empty() {
            return 0;
        }
        let (lo, hi) = self.topo.leaf_span(v);
        let padded = self.topo.padded_leaves() as u32;
        self.blocked
            .range(padded + lo..padded + hi)
            .filter(|leaf| self.load(**leaf) == 0)
            .count() as u32
    }

    /// Remaining capacity usable by *this view's owner* for routing:
    /// [`LocalTree::remaining_capacity`] minus unoccupied blocked leaves.
    pub fn routing_capacity(&self, v: NodeId) -> u32 {
        self.remaining_capacity(v)
            .saturating_sub(self.blocked_free_below(v))
    }

    /// Routable capacity strictly below `v`: the sum of its children's
    /// routing capacities (or `v`'s own, for a leaf). Walk feasibility:
    /// a ball at `v` can compose a path iff this exceeds its slot index
    /// (0 for random walks) — otherwise it is *cornered* by blocked
    /// leaves and must pass the phase.
    pub fn routable_below(&self, v: NodeId) -> u32 {
        debug_assert!(self.topo.is_node(v));
        if self.topo.is_leaf(v) {
            self.routing_capacity(v)
        } else {
            self.routing_capacity(self.topo.left(v)) + self.routing_capacity(self.topo.right(v))
        }
    }

    /// The rank of `ball` among the balls at its own node, by label
    /// (0-based). Used by the deterministic descent rules. One
    /// [`LocalTree::slot_of`] plus [`LocalTree::rank_at_slot`].
    ///
    /// Cost: `O(1)` for a ball alone at its node and for the
    /// all-at-one-node configuration with no vacant slot (phase 1 of the
    /// deterministic descents); otherwise `O(slot)`, one count over the
    /// node column below the ball's slot.
    ///
    /// # Errors
    ///
    /// Returns [`TreeError::UnknownBall`] if absent.
    pub fn rank_at_node(&self, ball: Label) -> Result<usize, TreeError> {
        let slot = self.slot_of(ball).ok_or(TreeError::UnknownBall(ball))?;
        Ok(self.rank_at_slot(slot))
    }

    /// The slot-resolved form of [`LocalTree::rank_at_node`]: the rank of
    /// the ball in (live) `slot` among the balls at its own node. The
    /// batched compose sweep resolves each ball's slot once and calls
    /// this directly, skipping the per-ball binary search.
    ///
    /// # Panics
    ///
    /// May panic (out-of-range index) if `slot` is vacant or out of
    /// range; callers resolve slots via [`LocalTree::slot_of`] /
    /// [`LocalTree::node_at_slot`] first.
    pub fn rank_at_slot(&self, slot: usize) -> usize {
        let node = self.node_of[slot];
        debug_assert_ne!(node, VACANT, "rank_at_slot on a vacant slot");
        let group = self.load_at(node);
        if group == 1 {
            return 0;
        }
        if group as usize == self.live && self.live == self.labels.len() {
            // Every ball sits at this node and no slot is vacant: label
            // order is slot order, so the rank is the slot itself.
            return slot;
        }
        // Labels ascend with the slot, so the balls at `node` with
        // smaller labels are exactly those in earlier slots.
        self.node_of[..slot].iter().filter(|&&v| v == node).count()
    }

    /// Snapshots the priority order `<R` (Definition 1) into `out`:
    /// deeper balls first, ties broken by smaller label; the first entry
    /// has the highest priority. Allocation-free once `out` has warmed
    /// to the view's size — the per-round engine path reuses one
    /// scratch vector per view.
    ///
    /// A counting sort by depth, in one linear pass over the columns and
    /// no per-ball comparisons: the bucket sizes are the per-depth
    /// counters `link`/`unlink` maintain, and the label column is
    /// already label-ascending, so a stable bucket pass yields
    /// `(depth desc, label asc)` exactly.
    ///
    /// Each entry carries the ball's slot, valid until
    /// [`LocalTree::shift_generation`] advances.
    pub fn priority_order_into(&self, out: &mut Vec<OrderedBall>) {
        out.clear();
        // `next[d]`: the output index of the next depth-`d` ball
        // (deepest bucket first).
        let mut next = [0u32; DEPTH_BUCKETS];
        let mut start = 0;
        for (bucket, &count) in next.iter_mut().zip(&self.at_depth).rev() {
            *bucket = start;
            start += count;
        }
        out.resize(
            self.live,
            OrderedBall {
                depth: 0,
                slot: 0,
                ball: Label(0),
            },
        );
        for (slot, (&ball, &node)) in self.labels.iter().zip(self.node_of.iter()).enumerate() {
            if node == VACANT {
                continue;
            }
            let depth = self.topo.depth(node);
            let at = &mut next[depth as usize];
            out[*at as usize] = OrderedBall {
                depth,
                slot: slot as u32,
                ball,
            };
            *at += 1;
        }
    }

    /// The lowest-numbered node whose subtree holds more balls than it
    /// has leaves — a breach of the paper's Lemma 1 — or `None`. One
    /// linear pass over the per-node load column.
    pub fn first_overfull(&self) -> Option<NodeId> {
        (1..self.topo.node_slots() as NodeId)
            .find(|&v| self.balls_in[v as usize] > self.topo.capacity(v))
    }

    /// `OrderedBalls()`: all balls sorted by the priority order `<R`
    /// (Definition 1): deeper balls first, ties broken by smaller label.
    /// The first element has the highest priority. Allocating
    /// convenience form of [`LocalTree::priority_order_into`].
    pub fn ordered_balls(&self) -> Vec<Label> {
        let mut order = Vec::new();
        self.priority_order_into(&mut order);
        order.into_iter().map(|e| e.ball).collect()
    }

    /// `true` if every ball sits on a leaf — Algorithm 1's termination
    /// condition (line 29). `O(1)`.
    pub fn all_at_leaves(&self) -> bool {
        self.at_depth[self.topo.levels() as usize] as usize == self.live
    }

    /// The most populated node and its load — the paper's `bmax(φ)`.
    /// Returns `None` for an empty view.
    pub fn max_load_at(&self) -> Option<(NodeId, u32)> {
        let mut best: Option<(NodeId, u32)> = None;
        for (_, node) in self.balls() {
            let count = self.load_at(node);
            let better = match best {
                None => true,
                Some((bn, bc)) => (count, std::cmp::Reverse(node)) > (bc, std::cmp::Reverse(bn)),
            };
            if better {
                best = Some((node, count));
            }
        }
        best
    }

    /// All balls positioned on the chain from the root down to `node`
    /// (inclusive) — the paper's "balls on path π" (§5.2). Sorted by
    /// depth descending then label: one pass over the label-ordered
    /// columns into one bucket per chain node.
    pub fn balls_on_chain(&self, node: NodeId) -> Vec<Label> {
        debug_assert!(self.topo.is_node(node));
        let mut by_depth = vec![Vec::new(); self.topo.depth(node) as usize + 1];
        for (ball, v) in self.balls() {
            if self.topo.is_ancestor_or_self(v, node) {
                by_depth[self.topo.depth(v) as usize].push(ball);
            }
        }
        by_depth.into_iter().rev().flatten().collect()
    }

    /// Verifies all internal invariants:
    ///
    /// 1. the columns agree with each other
    ///    ([`LocalTree::validate_consistency`]);
    /// 2. every node's load is within its capacity (the paper's Lemma 1),
    ///    which also implies no ball sits on a phantom (capacity-0) leaf.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`InvariantViolation`] on the first breach.
    pub fn validate(&self) -> Result<(), InvariantViolation> {
        self.validate_consistency()?;
        // Lemma 1: load within capacity, everywhere.
        if let Some(v) = self.first_overfull() {
            return Err(InvariantViolation::new(format!(
                "node {v}: load {} exceeds capacity {}",
                self.balls_in[v as usize],
                self.topo.capacity(v)
            )));
        }
        Ok(())
    }

    /// Verifies that the slot columns (`labels`/`node_of`) and the
    /// counters derived from them (`balls_in`, `live`, `at_depth`, the
    /// digest) agree,
    /// without checking capacities. Unlike Lemma 1 — which the
    /// *algorithm* maintains and raw [`LocalTree::update_node`] calls can
    /// legitimately breach mid-round — index consistency must hold after
    /// **every** operation.
    ///
    /// # Errors
    ///
    /// Returns a descriptive [`InvariantViolation`] on the first breach.
    pub fn validate_consistency(&self) -> Result<(), InvariantViolation> {
        let slots = self.labels.len();
        if self.node_of.len() != slots {
            return Err(InvariantViolation::new(
                "slot columns have unequal lengths".into(),
            ));
        }
        if !self.labels.windows(2).all(|w| w[0] < w[1]) {
            return Err(InvariantViolation::new(
                "label column is not strictly sorted".into(),
            ));
        }
        // Recompute every derived per-node column from the node column.
        let mut want_in = vec![0u32; self.topo.node_slots()];
        let mut live = 0usize;
        let mut want_depth = [0u32; DEPTH_BUCKETS];
        let mut want_digest = 0u64;
        for slot in 0..slots {
            let node = self.node_of[slot];
            if node == VACANT {
                continue;
            }
            if !self.topo.is_node(node) {
                return Err(InvariantViolation::new(format!(
                    "ball {} at invalid node {node}",
                    self.labels[slot]
                )));
            }
            live += 1;
            for v in self.topo.ancestors_inclusive(node) {
                want_in[v as usize] += 1;
            }
            want_depth[self.topo.depth(node) as usize] += 1;
            want_digest = want_digest.wrapping_add(pair_term(self.labels[slot], node));
        }
        if want_in != self.balls_in {
            return Err(InvariantViolation::new(
                "balls_in column disagrees with positions".into(),
            ));
        }
        if live != self.live {
            return Err(InvariantViolation::new("live counter out of sync".into()));
        }
        if want_depth != self.at_depth {
            return Err(InvariantViolation::new(
                "at_depth counters out of sync".into(),
            ));
        }
        if want_digest != self.digest {
            return Err(InvariantViolation::new(
                "digest disagrees with positions".into(),
            ));
        }
        for leaf in &self.blocked {
            if !self.topo.is_node(*leaf) || !self.topo.is_leaf(*leaf) {
                return Err(InvariantViolation::new(format!(
                    "blocked entry {leaf} is not a leaf"
                )));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo(n: usize) -> Topology {
        Topology::new(n).unwrap()
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut t = LocalTree::new(topo(4));
        assert!(t.is_empty());
        t.insert(Label(5), ROOT).unwrap();
        assert_eq!(t.len(), 1);
        assert!(t.contains(Label(5)));
        assert_eq!(t.current_node(Label(5)), Some(ROOT));
        assert_eq!(t.load(ROOT), 1);
        assert_eq!(t.remaining_capacity(ROOT), 3);
        assert_eq!(t.remove(Label(5)), Some(ROOT));
        assert!(t.is_empty());
        assert_eq!(t.remove(Label(5)), None);
        t.validate().unwrap();
    }

    #[test]
    fn insert_duplicate_rejected() {
        let mut t = LocalTree::new(topo(4));
        t.insert(Label(1), ROOT).unwrap();
        assert!(matches!(
            t.insert(Label(1), 2),
            Err(TreeError::BallExists(Label(1)))
        ));
    }

    #[test]
    fn insert_bad_node_rejected() {
        let mut t = LocalTree::new(topo(4));
        assert!(matches!(t.insert(Label(1), 0), Err(TreeError::BadNode(0))));
        assert!(matches!(t.insert(Label(1), 8), Err(TreeError::BadNode(8))));
    }

    #[test]
    fn load_accounting_down_the_chain() {
        let mut t = LocalTree::new(topo(8));
        // Put a ball at leaf 13 (chain 1→3→6→13).
        t.insert(Label(9), 13).unwrap();
        for v in [1u32, 3, 6, 13] {
            assert_eq!(t.load(v), 1, "node {v}");
        }
        for v in [2u32, 7, 12] {
            assert_eq!(t.load(v), 0, "node {v}");
        }
        assert_eq!(t.remaining_capacity(1), 7);
        assert_eq!(t.remaining_capacity(3), 3);
        assert_eq!(t.remaining_capacity(13), 0);
        t.validate().unwrap();
    }

    #[test]
    fn update_node_moves() {
        let mut t = LocalTree::with_balls_at_root(topo(4), [Label(1)]);
        t.update_node(Label(1), 5).unwrap();
        assert_eq!(t.current_node(Label(1)), Some(5));
        assert_eq!(t.load(ROOT), 1);
        assert_eq!(t.load(2), 1);
        assert_eq!(t.load(3), 0);
        // update_node inserts absent balls (round-2 semantics).
        t.update_node(Label(2), 6).unwrap();
        assert_eq!(t.current_node(Label(2)), Some(6));
        t.validate().unwrap();
        // A move onto a node with no real leaf below it is refused, from
        // a live or a vacant slot (n = 3 pads to 4; leaf 7 is phantom).
        let mut t = LocalTree::with_balls_at_root(topo(3), [Label(1)]);
        assert_eq!(t.update_node(Label(1), 7), Err(TreeError::BadNode(7)));
        assert_eq!(t.current_node(Label(1)), Some(ROOT));
        t.remove(Label(1)).unwrap();
        assert_eq!(t.update_node(Label(1), 7), Err(TreeError::BadNode(7)));
        assert!(t.is_empty());
        t.validate().unwrap();
    }

    #[test]
    fn ordered_balls_depth_then_label() {
        let mut t = LocalTree::new(topo(8));
        t.insert(Label(30), ROOT).unwrap(); // depth 0
        t.insert(Label(10), 3).unwrap(); // depth 1
        t.insert(Label(20), 13).unwrap(); // depth 3 (leaf)
        t.insert(Label(5), 12).unwrap(); // depth 3 (leaf)
        t.insert(Label(40), 6).unwrap(); // depth 2
        assert_eq!(
            t.ordered_balls(),
            vec![Label(5), Label(20), Label(40), Label(10), Label(30)]
        );
    }

    #[test]
    fn priority_order_carries_valid_slots() {
        let mut t = LocalTree::new(topo(8));
        t.insert(Label(30), ROOT).unwrap();
        t.insert(Label(10), 3).unwrap();
        t.insert(Label(20), 13).unwrap();
        let mut order = Vec::new();
        t.priority_order_into(&mut order);
        assert_eq!(order.len(), 3);
        for e in &order {
            assert_eq!(t.label_column()[e.slot as usize], e.ball);
            assert_eq!(t.slot_of(e.ball), Some(e.slot as usize));
            assert_eq!(t.topology().depth(t.current_node(e.ball).unwrap()), e.depth);
        }
        // Highest priority first: the leaf ball leads.
        assert_eq!(order[0].ball, Label(20));
    }

    /// `<R` by comparison sort over the raw columns: the reference the
    /// counting sort must reproduce entry for entry (slots included).
    fn comparison_sorted(t: &LocalTree) -> Vec<OrderedBall> {
        let mut out: Vec<OrderedBall> = t
            .label_column()
            .iter()
            .zip(t.node_column())
            .enumerate()
            .filter(|(_, (_, node))| **node != VACANT)
            .map(|(slot, (ball, node))| OrderedBall {
                depth: t.topology().depth(*node),
                slot: slot as u32,
                ball: *ball,
            })
            .collect();
        out.sort_unstable_by(|a, b| b.depth.cmp(&a.depth).then(a.ball.cmp(&b.ball)));
        out
    }

    fn assert_priority_order_is_sorted(t: &LocalTree) {
        // A warm buffer longer than the view must be fully overwritten.
        let mut order = vec![
            OrderedBall {
                depth: 99,
                slot: 99,
                ball: Label(99),
            };
            t.label_column().len() + 3
        ];
        t.validate_consistency().unwrap();
        t.priority_order_into(&mut order);
        assert_eq!(order, comparison_sorted(t));
    }

    #[test]
    fn priority_order_matches_comparison_sort_across_vacancies_and_shifts() {
        let mut t = LocalTree::new(topo(16));
        for (l, v) in [
            (10, 1),
            (20, 5),
            (30, 17),
            (40, 2),
            (50, 9),
            (60, 20),
            (70, 1),
        ] {
            t.insert(Label(l), v).unwrap();
        }
        t.remove(Label(20)).unwrap();
        t.remove(Label(60)).unwrap();
        assert_priority_order_is_sorted(&t);
        let gen = t.shift_generation();
        t.insert(Label(15), 31).unwrap(); // out of order: renumbers
        assert!(t.shift_generation() > gen);
        assert_priority_order_is_sorted(&t);
        t.insert(Label(20), 3).unwrap(); // revival in place
        t.update_node(Label(70), 24).unwrap();
        assert_priority_order_is_sorted(&t);
        // One shared depth: all at the root, then all on leaves.
        let mut one_depth = LocalTree::with_balls_at_root(topo(8), [9, 4, 7, 1].map(Label));
        one_depth.remove(Label(7)).unwrap();
        assert_priority_order_is_sorted(&one_depth);
        for (l, leaf) in [(9, 8), (4, 15), (1, 11)] {
            one_depth.update_node(Label(l), leaf).unwrap();
        }
        assert!(one_depth.all_at_leaves());
        assert_priority_order_is_sorted(&one_depth);
        assert_priority_order_is_sorted(&LocalTree::new(topo(4)));
    }

    #[test]
    fn priority_order_matches_comparison_sort_on_a_deep_tree() {
        // 2^20 leaves: every depth 0..=20 populated, labels pushed in
        // order with a scattered node per ball, some of them removed.
        let mut t = LocalTree::new(topo(1 << 20));
        let mut x = 0x2545_f491_4f6c_dd1du64;
        for i in 0..4096u64 {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let depth = (x >> 59) % 21;
            let node = (1u64 << depth) + ((x >> 20) % (1 << depth));
            t.insert(Label(3 * i + 1), node as NodeId).unwrap();
            if i % 7 == 3 {
                t.remove(Label(3 * i + 1)).unwrap();
            }
        }
        let depths: BTreeSet<u32> = comparison_sorted(&t).iter().map(|e| e.depth).collect();
        assert_eq!(depths.len(), 21, "every depth populated");
        assert_priority_order_is_sorted(&t);
    }

    #[test]
    fn first_overfull_reads_the_load_column() {
        // Raw inserts skip capacity validation: only corruption (or a
        // forced update mid-round) overfills.
        let mut t = LocalTree::new(topo(4));
        t.insert(Label(1), 4).unwrap();
        t.insert(Label(2), 2).unwrap();
        assert_eq!(t.first_overfull(), None);
        t.insert(Label(3), 4).unwrap();
        assert_eq!(t.first_overfull(), Some(2), "leaf 4 and node 2 overfull");
        // A ball on a phantom leaf (n = 3 pads to 4; leaf 7 has capacity 0).
        let mut phantom = LocalTree::new(topo(3));
        phantom.insert(Label(1), 7).unwrap();
        assert_eq!(phantom.first_overfull(), Some(7));
        // Every real leaf taken fills the tree without overfilling it.
        let mut full = LocalTree::new(topo(3));
        for (l, leaf) in [(1, 4), (2, 5), (3, 6)] {
            full.insert(Label(l), leaf).unwrap();
        }
        assert_eq!(full.first_overfull(), None);
    }

    #[test]
    fn rank_at_node_orders_by_label() {
        let mut t = LocalTree::new(topo(8));
        t.insert(Label(3), ROOT).unwrap();
        t.insert(Label(1), ROOT).unwrap();
        t.insert(Label(2), ROOT).unwrap();
        assert_eq!(t.rank_at_node(Label(1)).unwrap(), 0);
        assert_eq!(t.rank_at_node(Label(2)).unwrap(), 1);
        assert_eq!(t.rank_at_node(Label(3)).unwrap(), 2);
        assert!(t.rank_at_node(Label(9)).is_err());
    }

    #[test]
    fn rank_at_node_with_vacant_slots_and_mixed_groups() {
        // Defeat both fast paths: vacant slots present, several groups.
        let mut t = LocalTree::new(topo(8));
        for l in [1u64, 2, 3, 4, 5] {
            t.insert(Label(l), ROOT).unwrap();
        }
        t.remove(Label(2)).unwrap();
        t.update_node(Label(4), 13).unwrap();
        // At the root: {1, 3, 5}.
        assert_eq!(t.rank_at_node(Label(1)).unwrap(), 0);
        assert_eq!(t.rank_at_node(Label(3)).unwrap(), 1);
        assert_eq!(t.rank_at_node(Label(5)).unwrap(), 2);
        assert_eq!(t.rank_at_node(Label(4)).unwrap(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn all_at_leaves_tracks_internal_balls() {
        let mut t = LocalTree::new(topo(4));
        assert!(t.all_at_leaves()); // vacuously
        t.insert(Label(1), 4).unwrap();
        assert!(t.all_at_leaves());
        t.insert(Label(2), 2).unwrap();
        assert!(!t.all_at_leaves());
        t.update_node(Label(2), 5).unwrap();
        assert!(t.all_at_leaves());
        t.validate().unwrap();
    }

    #[test]
    fn max_load_and_balls_at_a_node() {
        let mut t = LocalTree::new(topo(8));
        assert_eq!(t.max_load_at(), None);
        for l in 0..5 {
            t.insert(Label(l), ROOT).unwrap();
        }
        t.insert(Label(10), 3).unwrap();
        assert_eq!(t.max_load_at(), Some((ROOT, 5)));
        assert_eq!(t.load_at(ROOT), 5);
        assert_eq!(t.balls_at(3), &[Label(10)]);
    }

    #[test]
    fn balls_on_chain_collects_path_population() {
        let mut t = LocalTree::new(topo(8));
        t.insert(Label(1), ROOT).unwrap();
        t.insert(Label(2), 3).unwrap();
        t.insert(Label(3), 7).unwrap();
        t.insert(Label(4), 15).unwrap();
        t.insert(Label(5), 2).unwrap(); // off the chain to 15
        t.insert(Label(6), 14).unwrap(); // off the chain to 15
        t.insert(Label(0), 7).unwrap(); // shares node 7 with ball 3
        let deepest_first_then_by_label = [4, 0, 3, 2, 1].map(Label);
        assert_eq!(t.balls_on_chain(15), deepest_first_then_by_label);
        assert_eq!(t.balls_on_chain(ROOT), [Label(1)]);
    }

    #[test]
    fn equality_is_positional() {
        let mut a = LocalTree::with_balls_at_root(topo(4), [Label(1), Label(2)]);
        let b = LocalTree::with_balls_at_root(topo(4), [Label(2), Label(1)]);
        assert_eq!(a, b);
        a.update_node(Label(1), 4).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn equality_ignores_vacant_slots() {
        // A view that admitted and removed extra balls equals one that
        // never saw them: vacant slots are history, not state.
        let mut a = LocalTree::with_balls_at_root(topo(4), [Label(1), Label(2), Label(3)]);
        a.remove(Label(2)).unwrap();
        let b = LocalTree::with_balls_at_root(topo(4), [Label(1), Label(3)]);
        assert_eq!(a, b);
        assert_eq!(a.len(), 2);
        // Revival lands back in the same column slot.
        a.insert(Label(2), 5).unwrap();
        assert_eq!(a.current_node(Label(2)), Some(5));
        a.validate().unwrap();
    }

    #[test]
    fn out_of_order_insert_renumbers_slots() {
        let mut t = LocalTree::new(topo(8));
        t.insert(Label(10), ROOT).unwrap();
        t.insert(Label(30), 3).unwrap();
        let gen = t.shift_generation();
        // In-order (push) and revival inserts keep slots stable …
        t.insert(Label(40), 13).unwrap();
        t.remove(Label(30)).unwrap();
        t.insert(Label(30), 3).unwrap();
        assert_eq!(t.shift_generation(), gen);
        // … an out-of-order brand-new label renumbers.
        t.insert(Label(20), 6).unwrap();
        assert!(t.shift_generation() > gen);
        assert_eq!(
            t.label_column(),
            &[Label(10), Label(20), Label(30), Label(40)]
        );
        assert_eq!(t.rank_at_node(Label(20)).unwrap(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn ascending_admission_appends_without_renumbering() {
        let mut t = LocalTree::new(topo(8));
        for l in [3, 5, 9] {
            t.insert(Label(l), ROOT).unwrap();
        }
        assert_eq!(t.shift_generation(), 0, "an ascending run appends");
        // The live last label is refused, not appended a second time.
        assert_eq!(t.insert(Label(9), 2), Err(TreeError::BallExists(Label(9))));
        // A removed last label revives its own slot.
        t.remove(Label(9)).unwrap();
        t.insert(Label(9), 3).unwrap();
        assert_eq!(t.label_column(), &[Label(3), Label(5), Label(9)]);
        assert_eq!(t.node_column(), &[ROOT, ROOT, 3]);
        assert_eq!(t.shift_generation(), 0);
        // A smaller brand-new label renumbers the slots above it.
        t.insert(Label(4), 6).unwrap();
        assert_eq!(t.shift_generation(), 1);
        assert_eq!(t.label_column(), &[Label(3), Label(4), Label(5), Label(9)]);
        assert_eq!(t.node_column(), &[ROOT, 6, ROOT, 3]);
        t.validate().unwrap();
    }

    #[test]
    fn validate_catches_phantom_overflow() {
        // n=3: padded to 4, leaf slot 7 is phantom (capacity 0).
        let mut t = LocalTree::new(topo(3));
        t.insert(Label(1), 7).unwrap();
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("exceeds capacity"));
    }

    #[test]
    fn validate_catches_overfull_subtree() {
        let mut t = LocalTree::new(topo(4));
        t.insert(Label(1), 4).unwrap();
        t.insert(Label(2), 2).unwrap();
        assert!(t.validate().is_ok());
        // A third ball in the left half (node 2 covers leaves 4, 5 —
        // capacity 2) breaches Lemma 1.
        t.insert(Label(3), 2).unwrap();
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("exceeds capacity"), "{err}");
    }

    #[test]
    fn blocked_leaves_reduce_routing_capacity_only() {
        let mut t = LocalTree::with_balls_at_root(topo(4), [Label(1)]);
        assert_eq!(t.remaining_capacity(ROOT), 3);
        assert_eq!(t.routing_capacity(ROOT), 3);
        t.block_leaf(4).unwrap();
        // Accounting capacity is unchanged; routing loses the blocked
        // (and unoccupied) leaf.
        assert_eq!(t.remaining_capacity(ROOT), 3);
        assert_eq!(t.routing_capacity(ROOT), 2);
        assert_eq!(t.routing_capacity(2), 1);
        assert_eq!(t.blocked_free_below(2), 1);
        // An occupied blocked leaf no longer counts as lost routing.
        t.insert(Label(9), 4).unwrap();
        assert_eq!(t.blocked_free_below(2), 0);
        assert_eq!(t.routing_capacity(2), 1);
        assert_eq!(t.blocked_leaves().collect::<Vec<_>>(), vec![4]);
        t.validate().unwrap();
    }

    #[test]
    fn block_leaf_rejects_internal_nodes() {
        let mut t = LocalTree::new(topo(4));
        assert!(t.block_leaf(2).is_err());
        assert!(t.block_leaf(0).is_err());
        assert!(t.block_leaf(5).is_ok());
    }

    #[test]
    fn blocked_walks_avoid_blocked_leaves() {
        use crate::path::CoinRule;
        let mut t = LocalTree::with_balls_at_root(topo(4), [Label(1), Label(2)]);
        t.block_leaf(4).unwrap();
        t.block_leaf(5).unwrap();
        let mut rng = bil_runtime::SeedTree::new(3).process_rng(bil_runtime::ProcId(0));
        for _ in 0..16 {
            let p = t
                .random_path(Label(1), CoinRule::Weighted, &mut rng)
                .unwrap();
            let leaf = p.leaf().unwrap();
            assert!(leaf == 6 || leaf == 7, "routed into blocked leaf {leaf}");
        }
        let p = t.rank_slot_path(Label(2)).unwrap();
        assert_eq!(p.leaf(), Some(7), "slot 1 must skip blocked leaves");
    }

    #[test]
    fn equality_includes_blocked_set() {
        let a = LocalTree::with_balls_at_root(topo(4), [Label(1)]);
        let mut b = a.clone();
        assert_eq!(a, b);
        b.block_leaf(4).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn with_balls_at_root_bulk() {
        let t = LocalTree::with_balls_at_root(topo(8), (0..8).map(Label));
        assert_eq!(t.len(), 8);
        assert_eq!(t.load(ROOT), 8);
        assert_eq!(t.remaining_capacity(ROOT), 0);
        t.validate().unwrap();
    }

    #[test]
    #[should_panic(expected = "duplicate label")]
    fn with_balls_at_root_rejects_duplicates() {
        let _ = LocalTree::with_balls_at_root(topo(4), [Label(1), Label(1)]);
    }

    #[test]
    fn columns_expose_positions_and_vacancies() {
        let mut t = LocalTree::with_balls_at_root(topo(4), [Label(2), Label(7), Label(9)]);
        t.update_node(Label(7), 5).unwrap();
        t.remove(Label(9)).unwrap();
        assert_eq!(t.label_column(), &[Label(2), Label(7), Label(9)]);
        assert_eq!(t.node_column(), &[ROOT, 5, 0]);
        assert_eq!(t.slot_of(Label(7)), Some(1));
        assert_eq!(t.slot_of(Label(9)), None, "vacant slot is not live");
        assert_eq!(
            t.balls().collect::<Vec<_>>(),
            vec![(Label(2), 1), (Label(7), 5)]
        );
        t.validate().unwrap();
    }

    #[test]
    fn heavy_churn_keeps_columns_consistent() {
        // Mixed inserts, moves, removals, revivals and out-of-order
        // admissions, validated after every step.
        let mut t = LocalTree::new(topo(8));
        let seq: &[(u64, NodeId)] = &[(12, 1), (4, 2), (20, 3), (8, 6), (16, 13)];
        for (l, v) in seq {
            t.insert(Label(*l), *v).unwrap();
            t.validate_consistency().unwrap();
        }
        t.remove(Label(8)).unwrap();
        t.validate_consistency().unwrap();
        t.update_node(Label(4), 13).unwrap();
        t.validate_consistency().unwrap();
        t.update_node(Label(4), 13).unwrap(); // same-node fast path
        t.validate_consistency().unwrap();
        t.insert(Label(8), 7).unwrap(); // revival
        t.validate_consistency().unwrap();
        t.insert(Label(5), 2).unwrap(); // out-of-order brand-new label
        t.validate_consistency().unwrap();
        assert_eq!(t.len(), 6);
        assert_eq!(t.current_node(Label(4)), Some(13));
        assert_eq!(t.current_node(Label(8)), Some(7));
    }
}
