//! Algorithm 1 — Balls-into-Leaves — as a [`ViewProtocol`].
//!
//! The round structure maps onto the paper's pseudocode line by line:
//!
//! * **Round 0** (line 1): broadcast the label; insert every heard ball at
//!   the root.
//! * **Round `2φ−1`** (phase `φ`, round 1; lines 3–21): compose a
//!   candidate path per the configured [`PathRule`] and broadcast it.
//!   On receive, remove the silent balls (lines 19–20) — they crashed,
//!   or decided and hold a leaf (see below) — then iterate the balls in
//!   the priority order `<R` *snapshotted at phase start*: balls whose
//!   paths arrived follow them until just before the first full subtree
//!   ([`bil_tree::LocalTree::place_at_slot`], the move-walk addressed by
//!   the ball's snapshot slot).
//! * **Round `2φ`** (lines 22–28): broadcast the current node; remove
//!   silent balls; overwrite every heard ball's position. Then check the
//!   termination condition (line 29): every ball in the local view on a
//!   leaf.
//!
//! Every round after round 0 takes one flow in [`ViewProtocol::apply`]:
//! echoes, the joins, one silence pass, then the round's own step. Only
//! the move-walk reads remaining capacity, so `<R` orders it alone; the
//! silence pass and the forced updates read none, so slot order serves.
//!
//! ## Termination and silence
//!
//! A decided process stops broadcasting (wait-free termination), so peers
//! that have not yet decided observe silence and remove it. This is safe:
//! a ball only decides when *all* balls in its view are on leaves, which
//! by the paper's Proposition 1 means every correct ball is on a leaf in
//! every correct view — and leaf balls only ever propose the single-node
//! path that keeps them in place, so a freed leaf is never re-entered.
//!
//! ## The decide-at-leaf variant and its "additional checks"
//!
//! The paper remarks that a ball could "terminate as soon as it reaches a
//! leaf", noting extra checks are needed without spelling them out. Our
//! property tests showed why naive rules fail: a silent ball on a leaf is
//! locally indistinguishable from a crashed one, and both keeping and
//! removing it can be wrong (a kept crash-ghost steals capacity from
//! views that never saw it land; a removed decider gets its name
//! reissued). The sound construction used here:
//!
//! 1. **Commit broadcast.** A ball whose leaf position has been fully
//!    synchronized broadcasts [`BilMsg::Commit`] in the next path round
//!    and decides at the end of that round. If the commit reached
//!    everyone, the sender decided and every view marks the leaf taken
//!    forever; if it was partial, the sender *crashed before deciding*,
//!    so its name was never issued.
//! 2. **Faithful removal.** Silent balls that are not committed are
//!    removed, exactly like the base algorithm — no ambiguous keeping.
//! 3. **Conflict resolution with leaf poisoning.** A partial commit can
//!    leave some views holding a committed ghost whose leaf other views
//!    legitimately reassign; the forced position updates then overfill a
//!    subtree in the ghost-holding views. Such views evict committed
//!    balls (latest commit first) until capacities hold — and
//!    [`bil_tree::LocalTree::block_leaf`] *poisons* each evicted leaf so
//!    this view's owner never routes toward it. Even if the eviction
//!    heuristic ever removed a genuinely decided ball, no duplicate can
//!    arise: the only views that consider the leaf free are the ones
//!    sworn off ever claiming it.

use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use rand::rngs::SmallRng;

use bil_runtime::{Label, Name, Round, RoundInbox, Status, ViewProtocol};
#[cfg(test)]
use bil_tree::PackedPath;
use bil_tree::{LocalTree, NodeId, OrderedBall, Topology, ROOT};

use crate::config::{BilConfig, PathRule};
use crate::messages::BilMsg;

/// How this view learned about a commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Provenance {
    /// Received the [`BilMsg::Commit`] broadcast itself. The committer
    /// may have decided (full delivery) or crashed mid-broadcast.
    Direct,
    /// Learned via another ball's echo — which *proves* the commit
    /// broadcast missed this view, i.e. it was partial, i.e. the
    /// committer crashed before deciding. Echo-learned commits are
    /// therefore always safe to evict on conflict.
    Echoed,
}

/// One commit record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CommitRecord {
    leaf: NodeId,
    round: Round,
    provenance: Provenance,
}

/// Counters of corrupt inputs a view rejected instead of applying.
///
/// Correct senders never trigger these; a non-zero counter means a
/// malformed message crossed the wire (or an engine bug) and was
/// **dropped, not absorbed** — identically in debug and release builds.
/// Diagnostic only: the counters never influence protocol behaviour and
/// are excluded from view equality, so clusters still re-merge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Anomalies {
    /// Round-0 broadcasts that were not `Init`, or that collided with an
    /// existing ball; the sender was never admitted.
    pub malformed_init: u64,
    /// Candidate paths that failed the move-walk's validation; the
    /// sender was removed as crashed.
    pub malformed_paths: u64,
    /// Position announcements naming an out-of-range node, or moving
    /// the sender onto a node with no real leaf below it; the sender was
    /// removed as crashed.
    pub malformed_positions: u64,
    /// Commit messages (direct or echoed) naming a non-leaf or a
    /// phantom leaf; ignored.
    pub malformed_commits: u64,
    /// Over-full subtrees that held no committed ball to evict. Only a
    /// corrupt view can reach this state (capacity can only be forced
    /// past its bound through committed placements), so the over-full
    /// node is left as-is and counted instead of being debug-asserted
    /// away.
    pub orphan_overfull: u64,
}

impl Anomalies {
    /// Total rejected inputs.
    pub fn total(&self) -> u64 {
        self.malformed_init
            + self.malformed_paths
            + self.malformed_positions
            + self.malformed_commits
            + self.orphan_overfull
    }
}

/// Reusable per-round working memory: the priority-order snapshot and
/// the slot-indexed join columns. Purely transient — logically empty
/// between rounds (only the warmed capacity persists), excluded from
/// view equality, and cloning a view resets it, so cluster splits never
/// copy scratch.
#[derive(Debug, Default)]
struct RoundScratch {
    /// The `<R` snapshot the path round's move-walk follows.
    order: Vec<OrderedBall>,
    /// Label-column slot → inbox index (`NO_MSG` for silent slots).
    msg_at: Vec<u32>,
    /// Label-column slot → has a commit record; empty when nothing is
    /// committed. See [`index_commits`].
    committed_at: Vec<bool>,
}

impl Clone for RoundScratch {
    fn clone(&self) -> Self {
        RoundScratch::default()
    }
}

impl RoundScratch {
    /// The message the ball in `slot` sent, per the last
    /// [`index_messages`]; `None` if it was silent.
    fn msg<'m>(&self, msgs: &'m [BilMsg], slot: usize) -> Option<&'m BilMsg> {
        match self.msg_at[slot] {
            NO_MSG => None,
            m => Some(&msgs[m as usize]),
        }
    }

    /// The silence rule (lines 19–20, and the sync round's removal in
    /// lines 22–28), in slot order: vacates every live slot whose ball
    /// sent no message or an `Init` in a path round, or anything but a
    /// `Pos` in a sync round. A repeated `Init` is silence-equivalent
    /// (see `compose`). A ball with a commit record stays: it decided,
    /// and a decided ball stops broadcasting. A no-op on a vacant slot.
    fn vacate_silent(&self, tree: &mut LocalTree, round: Round, msgs: &[BilMsg]) {
        let path_round = round.is_path_round();
        for slot in 0..self.msg_at.len() {
            let silent = match self.msg(msgs, slot) {
                Some(BilMsg::Pos { .. }) => false,
                Some(BilMsg::Path(_) | BilMsg::Commit(_)) => !path_round,
                Some(BilMsg::Init) | None => true,
            };
            if silent && self.committed_at.get(slot) != Some(&true) {
                tree.remove_at_slot(slot);
            }
        }
    }
}

/// `msg_at` marker for a slot whose ball sent nothing this round.
const NO_MSG: u32 = u32::MAX;

/// A ball's local view: the local tree, plus (decide-at-leaf variant
/// only) the commit bookkeeping.
#[derive(Debug, Clone)]
pub struct BilView {
    tree: LocalTree,
    /// Ball → commit record. Empty in the base algorithm. Boundary
    /// state, not hot-path state: mutated only when commits are learned
    /// or evicted, never rebuilt per round.
    committed: BTreeMap<Label, CommitRecord>,
    /// Commits learned in the last applied round, echoed in the next
    /// `Pos` broadcast (and re-echoed along partial-delivery chains).
    fresh: Vec<(Label, NodeId)>,
    /// Committed balls this view has evicted; never re-learned or
    /// re-echoed (prevents echo chains from resurrecting evicted ghosts
    /// and re-creating the very overflow that evicted them).
    dismissed: std::collections::BTreeSet<Label>,
    /// Rejected-input accounting; see [`Anomalies`].
    anomalies: Anomalies,
    /// Per-round working memory; see [`RoundScratch`].
    scratch: RoundScratch,
}

impl PartialEq for BilView {
    fn eq(&self, other: &Self) -> bool {
        // `anomalies` is deliberately excluded: it is diagnostic-only
        // and never feeds back into compose/apply/status, so two views
        // that differ only in what garbage they witnessed are still
        // behaviourally identical (and may share a cluster). `scratch`
        // is excluded too: it is logically empty between rounds, and
        // its warmed capacity is an allocation detail, not state.
        self.tree == other.tree
            && self.committed == other.committed
            && self.fresh == other.fresh
            && self.dismissed == other.dismissed
    }
}

impl Eq for BilView {}

impl Hash for BilView {
    /// Hashes exactly what `eq` reads — the tree (an `O(1)` digest, see
    /// [`LocalTree`]) and the commit state, which is empty in every
    /// base-algorithm view — and leaves `anomalies` and `scratch` out.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.tree.hash(state);
        self.committed.hash(state);
        self.fresh.hash(state);
        self.dismissed.hash(state);
    }
}

impl BilView {
    /// Read access to the local tree, for observers and experiments.
    pub fn tree(&self) -> &LocalTree {
        &self.tree
    }

    /// The balls this view knows to have committed their leaves
    /// (decide-at-leaf variant only).
    pub fn committed(&self) -> impl Iterator<Item = (Label, NodeId)> + '_ {
        self.committed.iter().map(|(l, r)| (*l, r.leaf))
    }

    /// The corrupt inputs this view rejected (diagnostic; excluded from
    /// view equality).
    pub fn anomalies(&self) -> Anomalies {
        self.anomalies
    }

    /// Records a commit, inserting or repositioning the ball at its leaf
    /// and scheduling the echo. Direct knowledge is never downgraded.
    fn learn_commit(&mut self, ball: Label, leaf: NodeId, round: Round, provenance: Provenance) {
        let topo = self.tree.topology();
        if !topo.is_node(leaf) || !topo.is_leaf(leaf) || topo.capacity(leaf) == 0 {
            // A commit can only ever name a real leaf; anything else (an
            // internal node, or a phantom leaf with no name) is a corrupt
            // message. Reject it the same way in both profiles.
            self.anomalies.malformed_commits += 1;
            return;
        }
        if self.dismissed.contains(&ball) {
            return;
        }
        if let Some(existing) = self.committed.get(&ball) {
            if existing.leaf != leaf {
                // A ball commits exactly one leaf; a second, conflicting
                // commit is corrupt. Keep the established record and
                // count the rejection — identically in both profiles.
                self.anomalies.malformed_commits += 1;
            }
            return;
        }
        if provenance == Provenance::Direct && self.tree.current_node(ball) != Some(leaf) {
            // A correct committer's leaf position was fully synchronized
            // *before* it broadcast the commit (and a partially-delivered
            // Pos implies the sender crashed and never committed), so
            // every view hearing a direct commit already has the ball on
            // that leaf. A direct commit for a ball positioned anywhere
            // else — or absent — is corrupt: reject it rather than
            // absorb a position (and later a name) the protocol never
            // established.
            self.anomalies.malformed_commits += 1;
            return;
        }
        if self.tree.current_node(ball) != Some(leaf) {
            // Echo path only: re-add (or reposition) a ball this view
            // had removed before learning it had committed. Overfills
            // this may cause are resolved by the eviction machinery.
            self.tree
                .update_node(ball, leaf)
                // bil-lint: allow(hot-path-panic): `leaf` passed `is_leaf` validation above; no wire input reaches here unchecked
                .expect("leaf validated above");
        }
        self.committed.insert(
            ball,
            CommitRecord {
                leaf,
                round,
                provenance,
            },
        );
        self.fresh.push((ball, leaf));
    }
}

/// The Balls-into-Leaves protocol (all paper variants, selected by
/// [`BilConfig`]).
///
/// # Examples
///
/// Solving tight renaming failure-free:
///
/// ```
/// use bil_core::BallsIntoLeaves;
/// use bil_runtime::adversary::NoFailures;
/// use bil_runtime::engine::EngineOptions;
/// use bil_runtime::{ExecutorKind, Label, SeedTree};
///
/// # fn main() -> Result<(), bil_runtime::RunError> {
/// let labels: Vec<Label> = (0..16).map(|i| Label(1000 + 7 * i)).collect();
/// let report = ExecutorKind::Clustered.run(
///     BallsIntoLeaves::base(),
///     labels,
///     NoFailures,
///     SeedTree::new(2014),
///     EngineOptions::default(),
/// )?;
/// assert!(report.completed());
/// let mut names: Vec<u32> = report.all_names().iter().map(|n| n.0).collect();
/// names.sort_unstable();
/// assert_eq!(names, (0..16).collect::<Vec<u32>>());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BallsIntoLeaves {
    cfg: BilConfig,
}

impl BallsIntoLeaves {
    /// Protocol with an explicit configuration.
    pub fn new(cfg: BilConfig) -> Self {
        BallsIntoLeaves { cfg }
    }

    /// The base randomized algorithm (§4).
    pub fn base() -> Self {
        Self::new(BilConfig::new())
    }

    /// The early-terminating extension (§6).
    pub fn early_terminating() -> Self {
        Self::new(BilConfig::early_terminating())
    }

    /// The deterministic comparison-based baseline, DetRank (`DESIGN.md` §1).
    pub fn deterministic_rank() -> Self {
        Self::new(BilConfig::deterministic_rank())
    }

    /// This protocol's configuration.
    pub fn config(&self) -> &BilConfig {
        &self.cfg
    }

    /// The compose core for a non-init round, once the ball's live slot
    /// in the view's label column — and the node it holds — is resolved.
    /// Both entry points funnel here: `compose` resolves the slot with
    /// one binary search, `compose_batch` with its shared merge-join
    /// sweep — so the message produced and the rng draws consumed are
    /// identical by construction.
    fn compose_resolved(
        &self,
        view: &BilView,
        slot: usize,
        node: NodeId,
        round: Round,
        rng: &mut SmallRng,
    ) -> BilMsg {
        let tree = &view.tree;
        debug_assert!(!round.is_init());
        debug_assert_eq!(tree.node_at_slot(slot), Some(node));
        if round.is_path_round() {
            if self.cfg.decide_at_leaf {
                // A ball whose (synchronized) position is a leaf commits
                // it and will decide at the end of this round.
                if tree.topology().is_leaf(node) {
                    return BilMsg::Commit(node);
                }
                // Cornered: every free leaf below is blocked for this
                // view (poisoned by evictions). The ball passes the
                // phase, keeping its position, rather than route toward
                // a leaf whose name may already have been decided.
                let needed = match self.cfg.path_rule {
                    PathRule::DeterministicRank => tree.rank_at_slot(slot) as u32,
                    _ => 0,
                };
                if tree.routable_below(node) <= needed {
                    return BilMsg::Pos {
                        node,
                        echo: view.fresh.clone(),
                    };
                }
            }
            let path = match self.cfg.path_rule {
                PathRule::Random(coin) => tree.random_path_from(node, coin, rng),
                PathRule::EarlyTerminating(coin) => {
                    if round.0 == 1 {
                        // §6: descend toward the ball's rank-indexed free
                        // slot. In phase 1 every contender is at the
                        // root, so the overall `<R` rank equals the label
                        // rank at the ball's node, and on a fresh tree
                        // the slot walk is exactly the paper's straight
                        // descent to the rank-th leaf. An epoch's tree has
                        // one leaf per free name, so there the rank-th
                        // leaf is the rank-th free name.
                        tree.rank_slot_path_from(node, tree.rank_at_slot(slot) as u32)
                    } else {
                        tree.random_path_from(node, coin, rng)
                    }
                }
                PathRule::DeterministicRank => {
                    tree.rank_slot_path_from(node, tree.rank_at_slot(slot) as u32)
                }
            };
            BilMsg::Path(path)
        } else {
            let mut node = node;
            // Cornered recovery (decide-at-leaf variant): a ball whose
            // whole subtree is routing-blocked *retreats* — it announces
            // the nearest ancestor that still has routable capacity as
            // its position ("the remaining balls backtrack towards the
            // root", §1). Moving up only ever frees capacity below, so
            // no view's Lemma 1 can be hurt by the forced update.
            if self.cfg.decide_at_leaf
                && !tree.topology().is_leaf(node)
                && tree.routable_below(node) == 0
            {
                while node != ROOT && tree.routable_below(node) == 0 {
                    node = tree.topology().parent(node);
                }
            }
            BilMsg::Pos {
                node,
                echo: view.fresh.clone(),
            }
        }
    }
}

impl ViewProtocol for BallsIntoLeaves {
    type Msg = BilMsg;
    type View = BilView;

    /// # Panics
    ///
    /// Panics if `n == 0` or exceeds [`bil_tree::MAX_LEAVES`]; the engines
    /// validate `n ≥ 1` before construction.
    fn init_view(&self, n: usize) -> BilView {
        let topo = Topology::new(n).expect("engine guarantees 1 <= n <= MAX_LEAVES");
        BilView {
            tree: LocalTree::new(topo),
            committed: BTreeMap::new(),
            fresh: Vec::new(),
            dismissed: std::collections::BTreeSet::new(),
            anomalies: Anomalies::default(),
            scratch: RoundScratch::default(),
        }
    }

    fn compose(&self, view: &BilView, ball: Label, round: Round, rng: &mut SmallRng) -> BilMsg {
        if round.is_init() {
            return BilMsg::Init;
        }
        // A view that no longer contains its own ball is corrupt (a
        // correct ball always hears its own broadcast; only hostile wire
        // input can remove it). The explicit rejection path — identical
        // in debug and release builds — is to go silence-equivalent: a
        // repeated `Init` matches no later-round message class, so peers
        // drop this sender as crashed instead of absorbing corrupt
        // state, and `status` keeps it Running so it can never decide a
        // bogus name.
        let Some(slot) = view.tree.slot_of(ball) else {
            return BilMsg::Init;
        };
        let node = view.tree.node_column()[slot];
        self.compose_resolved(view, slot, node, round, rng)
    }

    fn compose_batch(
        &self,
        view: &BilView,
        balls: &[Label],
        round: Round,
        rngs: &mut [&mut SmallRng],
        out: &mut Vec<(Label, BilMsg)>,
    ) {
        assert!(
            balls.len() == rngs.len(),
            "compose_batch needs one rng per ball"
        );
        if round.is_init() {
            for &ball in balls {
                out.push((ball, BilMsg::Init));
            }
            return;
        }
        // One merge-join sweep over the sorted label column resolves
        // every ball's slot — replacing the three binary searches per
        // ball (`current_node`, `rank_at_node`, and the path builders'
        // own lookups) the per-ball path pays. A ball that does not
        // ascend past its predecessor (possible only with unsorted label
        // assignments) re-seeks the sweep with one binary search. Each
        // ball then composes against its resolved slot, drawing from its
        // own rng exactly what the per-ball path would (streams are
        // per-process, so cross-ball interleaving is unobservable).
        let labels = view.tree.label_column();
        let mut slot = 0usize;
        for (i, &ball) in balls.iter().enumerate() {
            if i > 0 && ball <= balls[i - 1] {
                slot = labels.partition_point(|&l| l < ball);
            }
            while slot < labels.len() && labels[slot] < ball {
                slot += 1;
            }
            let msg = match view.tree.node_at_slot(slot) {
                Some(node) if labels[slot] == ball => {
                    self.compose_resolved(view, slot, node, round, &mut *rngs[i])
                }
                // Absent or vacant: the view lost this ball; same
                // silence-equivalent reply as `compose`.
                _ => BilMsg::Init,
            };
            out.push((ball, msg));
        }
    }

    fn apply(&self, view: &mut BilView, round: Round, inbox: RoundInbox<'_, BilMsg>) {
        if round.is_init() {
            // The inbox is label-sorted, so on a fresh view every
            // admission appends to the label column with no search.
            for (label, msg) in inbox.iter() {
                if *msg != BilMsg::Init {
                    // A round-0 broadcast that is not `Init` is corrupt:
                    // the sender is never admitted (it will read as
                    // crashed), identically in debug and release.
                    view.anomalies.malformed_init += 1;
                    continue;
                }
                if view.tree.insert(label, ROOT).is_err() {
                    // Collision with an already-present ball (possible
                    // only on corrupt input): reject the newcomer, keep
                    // the established ball.
                    view.anomalies.malformed_init += 1;
                }
            }
            return;
        }

        let path_round = round.is_path_round();
        let msgs = inbox.msgs();
        // Taken out of the view so the passes can read it while they
        // mutate the view; the steady-state round allocates nothing.
        let mut scratch = std::mem::take(&mut view.scratch);
        if path_round {
            // The move-walk's priority order `<R`, snapshotted at phase
            // start (Definition 1 is evaluated on start-of-phase
            // positions, which Proposition 1 makes identical across
            // correct views), before an echo below can move a ball.
            view.tree.priority_order_into(&mut scratch.order);
        } else {
            // This round's `Pos` broadcasts carried every pending echo.
            // A path round keeps `fresh`: commits learned in the sync
            // round still await their echo, and its direct commits join
            // them.
            view.fresh = Vec::new();
        }
        // Echoes first (they ride on `Pos`): a commit learned second-hand
        // re-establishes its ball before the silence pass could remove it
        // or treat its leaf as free. `learn_commit` re-echoes, so
        // knowledge spreads along partial-delivery chains until one full
        // broadcast makes it uniform.
        let gen = view.tree.shift_generation();
        for msg in msgs {
            if let BilMsg::Pos { echo, .. } = msg {
                for (ball, leaf) in echo {
                    view.learn_commit(*ball, *leaf, round, Provenance::Echoed);
                }
            }
        }
        let joined = view.tree.shift_generation();
        if path_round && joined != gen {
            // Rare (crash-echo re-admission of a never-seen label):
            // re-resolve the snapshot's slots against the renumbered
            // column. Labels are never deleted from the column, so
            // every snapshot ball still resolves.
            for e in scratch.order.iter_mut() {
                e.slot = view
                    .tree
                    .label_column()
                    .binary_search(&e.ball)
                    // bil-lint: allow(hot-path-panic): labels are never deleted from the column, so every snapshot ball resolves
                    .expect("snapshot labels stay in the column") as u32;
            }
        }
        // From here on nothing renumbers a slot: moves, forced updates
        // and removals act in place in the columns, so the joins and the
        // snapshot's slots stay valid to the end of the round. So does
        // `committed_at`: the echoes are in, and only a ball's own
        // `Commit` changes its record after them.
        index_messages(&view.tree, &inbox, &mut scratch.msg_at);
        index_commits(&view.tree, view.committed.keys(), &mut scratch.committed_at);
        scratch.vacate_silent(&mut view.tree, round, msgs);
        if path_round {
            // Lines 12–18, in `<R` order. The silent balls are gone
            // already, which Algorithm 1 would remove at their turns:
            // every ball ahead of a silent ball at depth `d` sits at
            // depth `≥ d`, and its move-walk reads remaining capacity
            // only strictly below its own node, where the silent ball is
            // not counted. So no move sees the difference.
            for e in &scratch.order {
                let slot = e.slot as usize;
                match scratch.msg(msgs, slot) {
                    Some(BilMsg::Commit(leaf)) => {
                        // A correct sender's position was synchronized
                        // last round, so every view already has it at
                        // `leaf`; `learn_commit` validates that and
                        // rejects (counts) corrupt commits. It reads no
                        // capacity.
                        view.learn_commit(e.ball, *leaf, round, Provenance::Direct);
                    }
                    Some(BilMsg::Path(path)) => {
                        // Follow the path until the first full subtree.
                        // A path that fails the move-walk's validation
                        // is corrupt (hostile wire input can produce any
                        // packed pair): the sender is removed as crashed
                        // at its turn and counted, identically in debug
                        // and release builds.
                        if view.tree.place_at_slot(slot, path).is_err() {
                            view.anomalies.malformed_paths += 1;
                            view.tree.remove_at_slot(slot);
                        }
                    }
                    // A `Pos`: a cornered ball passes the phase in place
                    // (its echoes are in). Silence: vacated above.
                    Some(BilMsg::Pos { .. } | BilMsg::Init) | None => {}
                }
            }
        } else {
            // Lines 22–28: adopt every live ball's announced position,
            // in slot order. An update reads topology only and touches
            // its own slot plus counters that commute, so the order
            // cannot be observed. An out-of-range node is corrupt input
            // (the wire codec bounds it to u32, not to this tree), and so
            // is a move onto a phantom leaf: the sender is removed as
            // crashed, identically in both profiles. A vacant slot's
            // `Pos` is ignored: an update would revive the slot.
            for slot in 0..scratch.msg_at.len() {
                let Some(BilMsg::Pos { node, .. }) = scratch.msg(msgs, slot) else {
                    continue;
                };
                if view.tree.node_at_slot(slot).is_some()
                    && view.tree.update_at_slot(slot, *node).is_err()
                {
                    view.anomalies.malformed_positions += 1;
                    view.tree.remove_at_slot(slot);
                }
            }
            // Conflict resolution (decide-at-leaf only; see module docs):
            // a partial commit can leave this view holding a ghost whose
            // leaf other views reassigned, and the forced updates above
            // then overfill a subtree here. Evict committed balls until
            // capacities hold, poisoning their leaves for this view.
            if !view.committed.is_empty() {
                resolve_overfull_subtrees(view);
            }
            // The paper's Lemma 1 must hold in every view at phase end.
            debug_assert!(view.tree.validate().is_ok(), "{:?}", view.tree.validate());
        }
        debug_assert_eq!(view.tree.shift_generation(), joined);
        view.scratch = scratch;
    }

    /// Vacates every live slot whose ball a path round's `inbox` leaves
    /// silent — no message or an `Init` — with `apply`'s own joins and
    /// silence pass. `apply` runs that pass before its move-walk, and
    /// a pruned view's `<R` snapshot is the untouched one's less the
    /// silent balls, which the walk skips. So folding the inbox into
    /// the pruned view makes the same moves and ends equal.
    ///
    /// Sync rounds prune nothing: their split views still differ in the
    /// positions the forced updates then overwrite, so pruning them
    /// rarely lets two groups coalesce. Round 0 admits, so it prunes
    /// nothing. Nor does a view holding commit state, or an inbox
    /// carrying a `Commit` or a non-empty echo: the decide-at-leaf
    /// machinery runs there (`apply` takes echoes before its silence
    /// pass), and the hook stays out of its way.
    fn remove_silent(&self, view: &mut BilView, round: Round, inbox: RoundInbox<'_, BilMsg>) {
        let commits = |msg: &BilMsg| match msg {
            BilMsg::Commit(_) => true,
            BilMsg::Pos { echo, .. } => !echo.is_empty(),
            BilMsg::Init | BilMsg::Path(_) => false,
        };
        let commit_state =
            !view.committed.is_empty() || !view.fresh.is_empty() || !view.dismissed.is_empty();
        if !round.is_path_round() || commit_state || inbox.msgs().iter().any(commits) {
            return;
        }
        let mut scratch = std::mem::take(&mut view.scratch);
        index_messages(&view.tree, &inbox, &mut scratch.msg_at);
        index_commits(&view.tree, view.committed.keys(), &mut scratch.committed_at);
        scratch.vacate_silent(&mut view.tree, round, inbox.msgs());
        view.scratch = scratch;
    }

    fn status(&self, view: &BilView, ball: Label, round: Round) -> Status {
        if self.cfg.decide_at_leaf {
            // Per-ball termination: decided at the end of the path round
            // in which the ball broadcast its commit.
            if round.is_path_round() {
                if let Some(record) = view.committed.get(&ball) {
                    return Status::Decided(Name(view.tree.topology().leaf_rank(record.leaf)));
                }
            }
            return Status::Running;
        }
        // Base rule: termination is evaluated at phase boundaries only
        // (the `until` of Algorithm 1 follows round 2).
        if !round.is_sync_round() {
            return Status::Running;
        }
        let tree = &view.tree;
        // Until every ball is on a leaf nobody decides, so the ball's own
        // position is looked up only once it can matter.
        if !tree.all_at_leaves() {
            return Status::Running;
        }
        let Some(node) = tree.current_node(ball) else {
            // A view that no longer contains its own ball is corrupt
            // (correct runs never produce one: a ball always hears its
            // own broadcast). The explicit rejection path — identical in
            // debug and release — is to keep the ball Running so it can
            // never decide a bogus name; a persistent corruption then
            // surfaces loudly as `Outcome::RoundLimit` instead of being
            // silently absorbed.
            return Status::Running;
        };
        debug_assert!(tree.topology().is_leaf(node));
        Status::Decided(Name(tree.topology().leaf_rank(node)))
    }
}

/// Merge-joins the inbox against the view's label column: after the
/// call, `msg_at[slot]` is the inbox index of the message sent by
/// `label_column()[slot]`'s ball, or [`NO_MSG`] if it was silent. Both
/// sides are sorted by label (the inbox is delivered as sorted SoA
/// slices; the label column is sorted by construction), so the join is
/// one linear sweep — no per-round map, no binary searches.
///
/// Messages from senders outside the label column are skipped here:
/// the apply sweeps only act on balls in the view (round 0 is where
/// admission happens), exactly as the map-based lookups did.
fn index_messages(tree: &LocalTree, inbox: &RoundInbox<'_, BilMsg>, msg_at: &mut Vec<u32>) {
    let labels = tree.label_column();
    msg_at.clear();
    msg_at.resize(labels.len(), NO_MSG);
    let mut slot = 0usize;
    for (i, l) in inbox.labels().iter().enumerate() {
        debug_assert!(i == 0 || inbox.labels()[i - 1] < *l, "inbox sorted, unique");
        while slot < labels.len() && labels[slot] < *l {
            slot += 1;
        }
        if slot < labels.len() && labels[slot] == *l {
            msg_at[slot] = i as u32;
        }
    }
}

/// Merge-joins the view's committed balls against the label column, the
/// same shape as [`index_messages`]: after the call,
/// `committed_at[slot]` is `true` iff `label_column()[slot]`'s ball has
/// a commit record. `committed` yields labels in ascending order (the
/// commit map's keys). With nothing committed — every one-shot view of
/// the base algorithm — the column is left empty and every slot reads as
/// uncommitted, at no per-round cost.
fn index_commits<'a>(
    tree: &LocalTree,
    committed: impl Iterator<Item = &'a Label>,
    committed_at: &mut Vec<bool>,
) {
    committed_at.clear();
    let mut committed = committed.peekable();
    if committed.peek().is_none() {
        return;
    }
    let labels = tree.label_column();
    committed_at.resize(labels.len(), false);
    let mut slot = 0usize;
    for l in committed {
        while slot < labels.len() && labels[slot] < *l {
            slot += 1;
        }
        if slot < labels.len() && labels[slot] == *l {
            committed_at[slot] = true;
        }
    }
}

/// Evicts committed balls from subtrees that forced position updates
/// pushed over capacity. Gated by one pass over the tree's load column
/// ([`LocalTree::first_overfull`]): the walk over committed balls'
/// ancestor chains runs only while some node is over-full — without one
/// it could find no candidate, so the outcome is unchanged.
/// Deterministic: deepest over-full node first (ties to the smaller
/// id); within it the preference order is
///
/// 1. **echo-learned commits** — provably crashed before deciding (their
///    broadcast missed this view), so eviction is unconditionally safe;
/// 2. direct-learned commits, latest round first, larger label first —
///    a genuinely decided commit is known to *every* view, so it never
///    causes conflicts; still, because a same-round direct partial
///    commit is locally indistinguishable, such evictions additionally
///    **poison** the leaf ([`LocalTree::block_leaf`]): this view's owner
///    renounces ever routing toward it, so even a theoretically-wrong
///    pick cannot produce a duplicate claim from this view.
fn resolve_overfull_subtrees(view: &mut BilView) {
    loop {
        if view.tree.first_overfull().is_none() {
            return;
        }
        // Over-full nodes can only be ancestors of committed balls
        // (every other placement went through the capacity-respecting
        // move-walk, and silent uncommitted balls were removed).
        let mut worst: Option<(u32, NodeId)> = None;
        for (ball, _) in view.committed.iter() {
            let Some(node) = view.tree.current_node(*ball) else {
                continue;
            };
            for v in view.tree.topology().ancestors_inclusive(node) {
                if view.tree.load(v) > view.tree.topology().capacity(v) {
                    let cand = (view.tree.topology().depth(v), v);
                    worst = Some(match worst {
                        None => cand,
                        Some(w) => {
                            if (cand.0, std::cmp::Reverse(cand.1)) > (w.0, std::cmp::Reverse(w.1)) {
                                cand
                            } else {
                                w
                            }
                        }
                    });
                }
            }
        }
        let Some((_, overfull)) = worst else {
            return;
        };
        if !evict_one_from(view, overfull) {
            return;
        }
    }
}

/// Evicts the preferred committed victim under `overfull` and returns
/// `true`. If the subtree holds **no** committed ball, the view is
/// corrupt (capacity can only be forced past its bound through committed
/// placements): the over-full state is left in place, counted via
/// [`Anomalies::orphan_overfull`] — identically in debug and release —
/// and `false` is returned so resolution stops instead of spinning.
fn evict_one_from(view: &mut BilView, overfull: NodeId) -> bool {
    let victim = view
        .committed
        .iter()
        .filter(|(ball, _)| {
            view.tree
                .current_node(**ball)
                .is_some_and(|node| view.tree.topology().is_ancestor_or_self(overfull, node))
        })
        .max_by_key(|(ball, record)| {
            (
                record.provenance == Provenance::Echoed,
                record.round,
                **ball,
            )
        })
        .map(|(ball, record)| (*ball, *record));
    let Some((ball, record)) = victim else {
        view.anomalies.orphan_overfull += 1;
        return false;
    };
    view.tree.remove(ball);
    if record.provenance == Provenance::Direct && view.tree.block_leaf(record.leaf).is_err() {
        // A commit record can only name a leaf (`learn_commit` validates
        // every admission path), so a non-leaf here means the record
        // itself is corrupt. The eviction still proceeds — the overfull
        // subtree must drain either way — but there is no valid leaf to
        // poison: count the corruption instead of panicking the round
        // loop, identically in debug and release builds.
        view.anomalies.malformed_commits += 1;
    }
    view.committed.remove(&ball);
    view.dismissed.insert(ball);
    view.fresh.retain(|(b, _)| *b != ball);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_runtime::adversary::{NoFailures, Scripted, ScriptedCrash};
    use bil_runtime::engine::EngineOptions;
    use bil_runtime::{ExecutorKind, InboxBuf, SeedTree};
    use bil_tree::CoinRule;

    fn labels(n: u64) -> Vec<Label> {
        (0..n).map(|i| Label((i * 29 + 17) % (n * 31))).collect()
    }

    /// Hands a literal inbox to `apply` (tests build inboxes as pair
    /// lists; the engines build shared SoA buffers).
    fn deliver(p: &BallsIntoLeaves, view: &mut BilView, round: Round, pairs: Vec<(Label, BilMsg)>) {
        let buf = InboxBuf::from_pairs(pairs);
        p.apply(view, round, buf.as_inbox());
    }

    fn packed(nodes: &[bil_tree::NodeId]) -> PackedPath {
        PackedPath::from_nodes(nodes).unwrap()
    }

    fn run_base(n: u64, seed: u64) -> bil_runtime::RunReport {
        ExecutorKind::Clustered
            .run(
                BallsIntoLeaves::base(),
                labels(n),
                NoFailures,
                SeedTree::new(seed),
                EngineOptions::default(),
            )
            .unwrap()
    }

    #[test]
    fn orphan_overfull_subtree_is_counted_not_absorbed() {
        // A corrupt view: two balls forced onto one leaf (capacity 1)
        // with no committed ball anywhere in the subtree. The old code
        // hit `debug_assert!(false, "over-full subtree without a
        // committed ball")` here — a panic in debug builds, silent
        // absorption in release; the explicit rejection path counts the
        // corruption identically in both profiles and leaves the tree
        // untouched.
        let topo = Topology::new(4).unwrap();
        let leaf = topo.leaf_for_rank(0).unwrap();
        // Raw inserts check no capacity — exactly the kind of state only
        // corruption can produce.
        let mut tree = LocalTree::new(topo);
        tree.insert(Label(1), leaf).unwrap();
        tree.insert(Label(2), leaf).unwrap();
        let mut view = BilView {
            tree,
            committed: BTreeMap::new(),
            fresh: Vec::new(),
            dismissed: std::collections::BTreeSet::new(),
            anomalies: Anomalies::default(),
            scratch: RoundScratch::default(),
        };
        assert!(view.tree.load(leaf) > view.tree.topology().capacity(leaf));
        assert!(!evict_one_from(&mut view, leaf));
        assert_eq!(view.anomalies().orphan_overfull, 1);
        assert_eq!(view.anomalies().total(), 1);
        // Nothing was evicted or dismissed: the corruption is reported,
        // not papered over.
        assert!(view.tree.contains(Label(1)) && view.tree.contains(Label(2)));
        assert!(view.dismissed.is_empty());
    }

    #[test]
    fn corrupt_commit_record_eviction_counts_instead_of_panicking() {
        // A commit record naming an internal node can only arise from
        // corruption (`learn_commit` validates every admission path).
        // Eviction used to `.expect("committed positions are leaves")`
        // on it — panicking the whole round loop; the explicit path
        // drains the overfull subtree anyway and counts the corruption.
        let topo = Topology::new(4).unwrap();
        let leaf = topo.leaf_for_rank(0).unwrap();
        let mut tree = LocalTree::new(topo);
        tree.insert(Label(1), leaf).unwrap();
        tree.insert(Label(2), leaf).unwrap();
        let mut committed = BTreeMap::new();
        committed.insert(
            Label(1),
            CommitRecord {
                leaf: ROOT, // corrupt: not a leaf
                round: Round(3),
                provenance: Provenance::Direct,
            },
        );
        let mut view = BilView {
            tree,
            committed,
            fresh: vec![(Label(1), ROOT)],
            dismissed: std::collections::BTreeSet::new(),
            anomalies: Anomalies::default(),
            scratch: RoundScratch::default(),
        };
        assert!(evict_one_from(&mut view, leaf));
        assert!(!view.tree.contains(Label(1)), "victim still evicted");
        assert!(view.dismissed.contains(&Label(1)));
        assert!(view.committed.is_empty());
        assert!(view.fresh.is_empty(), "pending echo retired with it");
        assert_eq!(view.anomalies().malformed_commits, 1);
        assert_eq!(
            view.tree.blocked_leaves().count(),
            0,
            "no valid leaf to poison"
        );
    }

    #[test]
    fn failure_free_solves_tight_renaming() {
        for n in [1u64, 2, 3, 4, 7, 8, 16, 33] {
            for seed in 0..4 {
                let report = run_base(n, seed);
                assert!(report.completed(), "n={n} seed={seed}");
                let mut names: Vec<u32> = report.all_names().iter().map(|x| x.0).collect();
                names.sort_unstable();
                assert_eq!(
                    names,
                    (0..n as u32).collect::<Vec<_>>(),
                    "n={n} seed={seed}: names must be exactly 0..n"
                );
            }
        }
    }

    #[test]
    fn rounds_are_init_plus_full_phases() {
        for n in [2u64, 8, 32] {
            let report = run_base(n, 7);
            assert!(report.rounds >= 3);
            assert_eq!(report.rounds % 2, 1, "init + 2·phases");
        }
    }

    #[test]
    fn single_ball_decides_name_zero_in_one_phase() {
        let report = run_base(1, 0);
        assert_eq!(report.rounds, 3);
        assert_eq!(report.decisions[0].unwrap().name, Name(0));
    }

    #[test]
    fn early_terminating_failure_free_is_constant_rounds_and_order_preserving() {
        for n in [2u64, 4, 16, 64, 256] {
            let ls = labels(n);
            let report = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::early_terminating(),
                    ls.clone(),
                    NoFailures,
                    SeedTree::new(3),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed());
            assert_eq!(report.rounds, 3, "Theorem 3: O(1) rounds, here exactly 3");
            // Rank-indexed descent is order-preserving when failure-free.
            let mut sorted = ls.clone();
            sorted.sort_unstable();
            for (pid, l) in ls.iter().enumerate() {
                let rank = sorted.iter().position(|x| x == l).unwrap() as u32;
                assert_eq!(report.decisions[pid].unwrap().name, Name(rank));
            }
        }
    }

    #[test]
    fn deterministic_rank_failure_free_is_one_phase() {
        for n in [2u64, 3, 8, 31, 32, 64] {
            let report = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::deterministic_rank(),
                    labels(n),
                    NoFailures,
                    SeedTree::new(5),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed());
            assert_eq!(report.rounds, 3, "n={n}");
            assert!(crate::check_tight_renaming(&report).holds(), "n={n}");
        }
    }

    #[test]
    fn crash_during_init_still_renames_uniquely() {
        for seed in 0..8 {
            let adv = Scripted::new(vec![ScriptedCrash {
                round: Round(0),
                victim_index: 0,
                modulus: 2,
                residue: 1,
            }]);
            let report = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::base(),
                    labels(9),
                    adv,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed(), "seed={seed}");
            assert_eq!(report.failures(), 1);
            let mut names = report.all_names();
            names.sort_unstable();
            let deduped = {
                let mut d = names.clone();
                d.dedup();
                d
            };
            assert_eq!(names.len(), deduped.len(), "duplicate names, seed={seed}");
            assert_eq!(names.len(), 8);
        }
    }

    #[test]
    fn crash_during_path_round_with_split_delivery() {
        for seed in 0..8 {
            let adv = Scripted::new(vec![
                ScriptedCrash {
                    round: Round(1),
                    victim_index: 2,
                    modulus: 2,
                    residue: 0,
                },
                ScriptedCrash {
                    round: Round(3),
                    victim_index: 0,
                    modulus: 3,
                    residue: 1,
                },
            ]);
            let report = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::base(),
                    labels(12),
                    adv,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed(), "seed={seed}");
            let names = report.all_names();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "seed={seed}");
        }
    }

    #[test]
    fn crash_during_sync_round_does_not_break_safety() {
        for seed in 0..8 {
            let adv = Scripted::new(vec![ScriptedCrash {
                round: Round(2),
                victim_index: 1,
                modulus: 2,
                residue: 0,
            }]);
            let report = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::base(),
                    labels(10),
                    adv,
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(report.completed(), "seed={seed}");
            let names = report.all_names();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "seed={seed}");
        }
    }

    #[test]
    fn per_process_mode_agrees_with_clustered() {
        let ls = labels(8);
        let adv = || {
            Scripted::new(vec![ScriptedCrash {
                round: Round(1),
                victim_index: 1,
                modulus: 2,
                residue: 0,
            }])
        };
        for seed in 0..4 {
            let run = |kind: ExecutorKind| {
                kind.run(
                    BallsIntoLeaves::base(),
                    ls.clone(),
                    adv(),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap()
            };
            let a = run(ExecutorKind::Clustered);
            let b = run(ExecutorKind::PerProcess);
            assert_eq!(a, b, "seed={seed}");
        }
    }

    #[test]
    fn decide_at_leaf_decides_no_later_and_stays_unique() {
        for seed in 0..6 {
            let cfg_on = BilConfig::new().with_decide_at_leaf(true);
            let adv = || {
                Scripted::new(vec![ScriptedCrash {
                    round: Round(1),
                    victim_index: 0,
                    modulus: 2,
                    residue: 0,
                }])
            };
            let on = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::new(cfg_on),
                    labels(10),
                    adv(),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            let off = ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::base(),
                    labels(10),
                    adv(),
                    SeedTree::new(seed),
                    EngineOptions::default(),
                )
                .unwrap();
            assert!(on.completed() && off.completed(), "seed={seed}");
            let names = on.all_names();
            let mut sorted = names.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), names.len(), "seed={seed}");
            // Per-ball decisions with decide_at_leaf pay one commit round
            // after arrival, but never lag the global variant by more
            // than that one phase (and early arrivers decide far sooner).
            for (a, b) in on.decisions.iter().zip(off.decisions.iter()) {
                if let (Some(da), Some(db)) = (a, b) {
                    assert!(da.round.0 <= db.round.0 + 2, "seed={seed}");
                }
            }
        }
    }

    #[test]
    fn leftmost_coin_reproduces_figure_2a_pileup() {
        // n = 4, all balls propose the leftmost leaf: the hand-computed
        // placement from DESIGN.md §4 (and Figure 2a of the paper).
        let cfg = BilConfig::new().with_path_rule(PathRule::Random(CoinRule::Leftmost));
        let ls: Vec<Label> = (1..=4).map(Label).collect();
        let mut first_phase_positions = Vec::new();
        {
            use bil_runtime::view::{Cluster, FnObserver, ObserverCtx};
            let mut obs = FnObserver(|ctx: ObserverCtx<'_>, clusters: &[Cluster<BilView>]| {
                if ctx.round == Round(1) {
                    let tree = clusters[0].view.tree();
                    first_phase_positions = (1..=4)
                        .map(|l| tree.current_node(Label(l)).unwrap())
                        .collect();
                }
            });
            ExecutorKind::Clustered
                .run_observed(
                    BallsIntoLeaves::new(cfg),
                    ls,
                    NoFailures,
                    SeedTree::new(0),
                    EngineOptions::default(),
                    &mut obs,
                )
                .unwrap();
        }
        // Ball 1 wins leaf 4 (=leaf rank 0); ball 2 stops at node 2;
        // balls 3 and 4 stop at the root.
        assert_eq!(first_phase_positions, vec![4, 2, 1, 1]);
    }

    #[test]
    fn deterministic_replay_of_full_protocol() {
        let mk = || {
            ExecutorKind::Clustered
                .run(
                    BallsIntoLeaves::base(),
                    labels(16),
                    Scripted::new(vec![ScriptedCrash {
                        round: Round(1),
                        victim_index: 3,
                        modulus: 2,
                        residue: 0,
                    }]),
                    SeedTree::new(99),
                    EngineOptions::default(),
                )
                .unwrap()
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn malformed_messages_are_rejected_not_absorbed() {
        let p = BallsIntoLeaves::base();
        let mut view = p.init_view(4);
        // Round 0: two correct balls; one corrupt non-Init broadcast is
        // never admitted.
        deliver(
            &p,
            &mut view,
            Round(0),
            vec![
                (Label(1), BilMsg::Init),
                (Label(2), BilMsg::Init),
                (Label(3), BilMsg::pos(1)),
            ],
        );
        assert!(!view.tree().contains(Label(3)));
        assert_eq!(view.anomalies().malformed_init, 1);
        // Round 1 (path round): ball 1 walks a valid path; ball 2's path
        // fails validation and ball 2 is removed as crashed. An echoed
        // commit naming an internal node is ignored.
        deliver(
            &p,
            &mut view,
            Round(1),
            vec![
                (Label(1), BilMsg::Path(packed(&[1, 2, 4]))),
                (Label(2), BilMsg::Path(PackedPath::single(9))),
                (
                    Label(3),
                    BilMsg::Pos {
                        node: 1,
                        echo: vec![(Label(9), 2)],
                    },
                ),
            ],
        );
        assert!(!view.tree().contains(Label(2)));
        assert_eq!(view.anomalies().malformed_paths, 1);
        assert_eq!(view.anomalies().malformed_commits, 1);
        // Round 2 (sync round): an out-of-range position removes the
        // sender instead of panicking, and a position from the removed
        // ball 2 is ignored rather than reviving it.
        deliver(
            &p,
            &mut view,
            Round(2),
            vec![(Label(1), BilMsg::pos(999)), (Label(2), BilMsg::pos(2))],
        );
        assert!(!view.tree().contains(Label(1)));
        assert!(!view.tree().contains(Label(2)));
        assert_eq!(view.anomalies().malformed_positions, 1);
        assert_eq!(view.anomalies().total(), 4);
        view.tree().validate().unwrap();
    }

    #[test]
    fn corrupt_commits_are_rejected_in_both_profiles() {
        let p = BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true));
        let mut view = p.init_view(4);
        deliver(
            &p,
            &mut view,
            Round(0),
            vec![(Label(1), BilMsg::Init), (Label(2), BilMsg::Init)],
        );
        // Legitimate phase: both balls walk to leaves and synchronize.
        deliver(
            &p,
            &mut view,
            Round(1),
            vec![
                (Label(1), BilMsg::Path(packed(&[1, 2, 4]))),
                (Label(2), BilMsg::Path(packed(&[1, 3, 6]))),
            ],
        );
        deliver(
            &p,
            &mut view,
            Round(2),
            vec![(Label(1), BilMsg::pos(4)), (Label(2), BilMsg::pos(6))],
        );
        // Ball 1 commits its own leaf (legitimate); ball 2 sends a
        // direct commit for leaf 7 while positioned at leaf 6 — corrupt,
        // rejected without repositioning, in both profiles.
        deliver(
            &p,
            &mut view,
            Round(3),
            vec![(Label(1), BilMsg::Commit(4)), (Label(2), BilMsg::Commit(7))],
        );
        assert_eq!(view.committed().collect::<Vec<_>>(), vec![(Label(1), 4)]);
        assert_eq!(view.tree().current_node(Label(2)), Some(6));
        assert_eq!(view.anomalies().malformed_commits, 1);
        // A later, conflicting commit for an already-committed ball is
        // rejected and the established record kept (previously a
        // debug-only panic).
        deliver(&p, &mut view, Round(5), vec![(Label(1), BilMsg::Commit(5))]);
        assert_eq!(view.committed().collect::<Vec<_>>(), vec![(Label(1), 4)]);
        assert_eq!(view.anomalies().malformed_commits, 2);
        view.tree().validate().unwrap();
    }

    #[test]
    fn status_of_missing_ball_keeps_running() {
        // The explicit rejection path for a view missing its own ball:
        // Running in both profiles, never a bogus decision (and never a
        // debug-only panic).
        let p = BallsIntoLeaves::base();
        let mut view = p.init_view(4);
        deliver(&p, &mut view, Round(0), vec![(Label(1), BilMsg::Init)]);
        assert_eq!(p.status(&view, Label(99), Round(2)), Status::Running);
    }

    #[test]
    fn compose_of_missing_ball_goes_silence_equivalent() {
        // The companion rejection path in `compose`: a view that lost
        // its own ball to hostile input broadcasts a repeated `Init`
        // (which peers treat as silence) instead of panicking — in both
        // profiles.
        let p = BallsIntoLeaves::new(BilConfig::new().with_decide_at_leaf(true));
        let mut view = p.init_view(4);
        deliver(&p, &mut view, Round(0), vec![(Label(1), BilMsg::Init)]);
        let mut rng = SeedTree::new(0).process_rng(bil_runtime::ProcId(0));
        for round in [Round(1), Round(2), Round(3)] {
            assert_eq!(p.compose(&view, Label(99), round, &mut rng), BilMsg::Init);
        }
        // And a later-round Init reads as silence: the sender is dropped
        // like a crashed ball, never absorbed.
        deliver(
            &p,
            &mut view,
            Round(1),
            vec![(Label(1), BilMsg::Init), (Label(99), BilMsg::Init)],
        );
        assert!(!view.tree().contains(Label(99)));
        assert!(!view.tree().contains(Label(1)), "silent ball removed");
    }

    #[test]
    fn anomaly_counters_do_not_split_clusters() {
        let p = BallsIntoLeaves::base();
        let mut clean = p.init_view(4);
        let mut dirty = p.init_view(4);
        deliver(
            &p,
            &mut clean,
            Round(0),
            vec![(Label(1), BilMsg::Init), (Label(2), BilMsg::Init)],
        );
        deliver(
            &p,
            &mut dirty,
            Round(0),
            vec![
                (Label(1), BilMsg::Init),
                (Label(2), BilMsg::Init),
                (Label(7), BilMsg::pos(3)),
            ],
        );
        assert_eq!(dirty.anomalies().total(), 1);
        assert_eq!(clean.anomalies().total(), 0);
        // Same effective state ⇒ equal views (anomalies excluded), so
        // the clustered engine may keep sharing them.
        assert_eq!(clean, dirty);
    }

    #[test]
    fn all_crash_but_one_still_terminates() {
        // n−1 crashes (the model's maximum): the survivor must still
        // decide.
        let script: Vec<ScriptedCrash> = (0..7)
            .map(|i| ScriptedCrash {
                round: Round(i % 3),
                victim_index: i as usize,
                modulus: 2,
                residue: 0,
            })
            .collect();
        let report = ExecutorKind::Clustered
            .run(
                BallsIntoLeaves::base(),
                labels(8),
                Scripted::new(script),
                SeedTree::new(1),
                EngineOptions::default(),
            )
            .unwrap();
        assert!(report.completed());
        let decided = report.decisions.iter().flatten().count();
        assert!(decided >= 1);
    }
}
