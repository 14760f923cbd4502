//! The service's one front end: one namespace, range-partitioned across
//! per-shard engines, with pipelined per-shard epochs.
//!
//! [`ShardedService`] serves acquires and releases over `N` names. It
//! splits the namespace into `S` contiguous ranges ([`NamePartition`])
//! and runs one independent [`RenamingService`] engine over each; with
//! `S = 1` it is the standalone service. Every global name belongs to
//! exactly one shard; a shard issues only names from its own range, so
//! global uniqueness reduces to per-shard uniqueness plus partition
//! disjointness.
//!
//! ## Routing
//!
//! * **Acquires** route by a deterministic hash of the request label:
//!   [`NamePartition::home_shard`] picks the home shard, and if the home
//!   is fully booked the request **spills** deterministically around the
//!   ring (`home, home+1, …`) to the first shard with room; with every
//!   shard booked solid it stays home and joins that backlog.
//! * **Releases** route by name — through the label's recorded route, to
//!   the shard that issued the name (spill-issued names included).
//!
//! "Room" is tracked by per-shard *booking* counters: a booking is taken
//! when an acquire routes to a shard and returned only when a release
//! for that label is submitted. Crashed contenders never return their
//! booking — that keeps the counters (and therefore every routing
//! decision) a pure function of the submitted request stream, identical
//! whether epochs run pipelined or sequentially. The price is that
//! crash-freed capacity is invisible to the *router* (the shard itself
//! still reissues it; spilled arrivals just won't be steered there).
//!
//! ## Pipelined epochs
//!
//! The front-end drives all shards through the per-shard two-stage queue
//! in lock-step: [`ShardedService::submit`] validates a batch once and
//! stages each request into its shard (stage 1, legal mid-epoch),
//! [`ShardedService::begin`] detaches one [`EpochRun`] per shard, the
//! runs execute — concurrently across shards, and/or overlapped with the
//! *next* batch's submission — and [`ShardedService::complete`] folds
//! the outcomes back in shard order. [`ShardedService::step`] is one
//! epoch in one call; [`ShardedService::run_epochs`] is the packaged
//! pipelined driver.
//!
//! ## Determinism
//!
//! A sharded history is a deterministic function of `(root seed, request
//! stream, adversary choices)`: routing reads only the booking counters
//! (pure function of the stream, see above), each shard is seeded by a
//! `split_mix64` mix of the root seed and its index, and outcomes are
//! folded in shard order regardless of which thread finished first. A
//! label's route is retired when its shard applies the release, at
//! [`ShardedService::begin`] — before the next batch can be submitted
//! under either drive — so a label released in batch `k` can be
//! re-acquired in batch `k+1` whether epochs run pipelined or
//! sequentially, and whether or not the shard's epoch `k` run succeeds.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::thread;

use bil_core::BilMsg;
use bil_runtime::adversary::{Adversary, NoFailures};
use bil_runtime::rng::split_mix64;
use bil_runtime::{Label, Name};

use crate::epoch::{EpochOutcome, EpochReport, EpochRun, Request, ServiceOptions};
use crate::error::{Rejected, ServiceError, ShardError};
use crate::shard::RenamingService;

/// A contiguous range partition of `capacity` names into `shards`
/// shards: the first `capacity % shards` shards get one extra name, so
/// every name belongs to exactly one shard and ranges tile `0..capacity`
/// in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamePartition {
    capacity: usize,
    shards: usize,
    /// Names per shard before distributing the remainder.
    base: usize,
    /// The first `rem` shards hold `base + 1` names.
    rem: usize,
}

impl NamePartition {
    /// Partitions `capacity` names into `shards` contiguous ranges.
    ///
    /// # Errors
    ///
    /// [`ShardError::BadPartition`] if `shards` is zero or exceeds
    /// `capacity` (every shard must own at least one name), or if
    /// `capacity` exceeds `2^32` (every global name must fit a [`Name`]).
    pub fn new(capacity: usize, shards: usize) -> Result<NamePartition, ShardError> {
        if shards == 0 || capacity < shards || capacity as u64 > 1 << 32 {
            return Err(ShardError::BadPartition { capacity, shards });
        }
        Ok(NamePartition {
            capacity,
            shards,
            base: capacity / shards,
            rem: capacity % shards,
        })
    }

    /// The total namespace size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The global-name range shard `shard` owns.
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn range(&self, shard: usize) -> Range<usize> {
        assert!(shard < self.shards, "shard {shard} of {}", self.shards);
        let (start, len) = if shard < self.rem {
            (shard * (self.base + 1), self.base + 1)
        } else {
            (
                self.rem * (self.base + 1) + (shard - self.rem) * self.base,
                self.base,
            )
        };
        start..start + len
    }

    /// The shard owning global name `name` — the inverse of
    /// [`NamePartition::range`].
    ///
    /// # Panics
    ///
    /// If `name >= capacity`.
    pub fn shard_of(&self, name: usize) -> usize {
        assert!(name < self.capacity, "name {name} of {}", self.capacity);
        let wide = self.rem * (self.base + 1);
        if name < wide {
            name / (self.base + 1)
        } else {
            self.rem + (name - wide) / self.base
        }
    }

    /// The home shard an acquire for `label` routes to: a deterministic
    /// `split_mix64` hash of the label, independent of service state.
    pub fn home_shard(&self, label: Label) -> usize {
        (split_mix64(split_mix64(label.0) ^ 0xB10B_5EED_0000_0001) % self.shards as u64) as usize
    }
}

/// Sharded front-end tuning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardedOptions {
    /// Per-shard engine options (protocol variant, executor, limits) —
    /// every shard runs the same configuration.
    pub shard: ServiceOptions,
    /// Execute shard epochs on concurrent threads (one per shard with
    /// work). Reports are bit-identical either way; this only buys
    /// wall-clock time.
    pub concurrent: bool,
}

/// What one front-end epoch did across all shards. Deliberately free of
/// schedule-dependent snapshots (no backlog field): pipelined and
/// sequential drives of the same request stream produce identical
/// reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedEpochReport {
    /// The front-end epoch index.
    pub epoch: u64,
    /// Per-shard outcomes, in shard order. An `Err` shard (stall or
    /// executor failure) keeps its cohort at the head of *that shard's*
    /// backlog — the next epoch retries it there, in original FIFO order.
    pub shards: Vec<Result<EpochReport, ServiceError>>,
    /// `(label, global name)` grants this epoch, in shard order.
    pub granted: Vec<(Label, Name)>,
    /// `(label, global name)` releases applied this epoch, in shard
    /// order.
    pub released: Vec<(Label, Name)>,
    /// Contenders crashed by the adversary this epoch, across shards.
    pub crashed: Vec<Label>,
    /// Granted global names that previous holders had released.
    pub recycled: Vec<Name>,
    /// Names held across all shards after this epoch.
    pub held: usize,
}

/// The namespace service: the one acquire/release front end, over
/// range-partitioned per-shard [`RenamingService`] engines. See the
/// module docs for routing, booking, and the determinism argument.
#[derive(Debug, Clone)]
pub struct ShardedService {
    partition: NamePartition,
    shards: Vec<RenamingService>,
    /// Label → shard currently responsible for it (queued, admitted, or
    /// holding). Retired when its shard applies the label's release (at
    /// `begin`) or when its crash completes.
    routes: BTreeMap<Label, usize>,
    /// Bookings per shard: routed acquires not yet released. Crashed
    /// bookings stay spent (see module docs).
    booked: Vec<usize>,
    epoch: u64,
    concurrent: bool,
}

impl ShardedService {
    /// A sharded service over `capacity` global names split across
    /// `shards` shards, rooted at `seed` (each shard derives its own
    /// independent seed tree).
    ///
    /// # Errors
    ///
    /// [`ShardError::BadPartition`] for an impossible split;
    /// [`ShardError::Shard`] if a shard's range is not a valid tree
    /// size.
    pub fn new(
        capacity: usize,
        shards: usize,
        seed: u64,
        options: ShardedOptions,
    ) -> Result<ShardedService, ShardError> {
        let partition = NamePartition::new(capacity, shards)?;
        let engines = (0..shards)
            .map(|s| {
                let shard_seed =
                    split_mix64(split_mix64(seed) ^ 0x5AAD_0000_0000_0000 ^ split_mix64(s as u64));
                RenamingService::new(partition.range(s).len(), shard_seed, options.shard)
                    .map_err(|source| ShardError::Shard { shard: s, source })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ShardedService {
            partition,
            shards: engines,
            routes: BTreeMap::new(),
            booked: vec![0; shards],
            epoch: 0,
            concurrent: options.concurrent,
        })
    }

    /// The total namespace size.
    pub fn capacity(&self) -> usize {
        self.partition.capacity()
    }

    /// The name-range partition in force.
    pub fn partition(&self) -> &NamePartition {
        &self.partition
    }

    /// Read access to one per-shard engine (shard-local names).
    ///
    /// # Panics
    ///
    /// If `shard` is out of range.
    pub fn shard(&self, shard: usize) -> &RenamingService {
        &self.shards[shard]
    }

    /// The next front-end epoch index (the in-flight epoch's index while
    /// one is running). It advances on every completed front-end epoch,
    /// even where a shard's epoch failed and that shard's own
    /// [`RenamingService::epoch`] stayed put.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether a front-end epoch is begun but not yet completed: the
    /// shards begin and complete together, so this asks them.
    pub fn in_flight(&self) -> bool {
        self.shards.iter().any(|s| s.in_flight().is_some())
    }

    /// Names held across all shards.
    pub fn held(&self) -> usize {
        self.shards.iter().map(RenamingService::held).sum()
    }

    /// Fraction of the global namespace currently held.
    pub fn density(&self) -> f64 {
        self.held() as f64 / self.capacity() as f64
    }

    /// Acquires queued across all shards, not counting the cohorts of
    /// the epoch in flight.
    pub fn backlog(&self) -> usize {
        self.shards.iter().map(RenamingService::backlog).sum()
    }

    /// Current `(label, global name)` holders, shard by shard.
    pub fn holders(&self) -> impl Iterator<Item = (Label, Name)> + '_ {
        self.shards.iter().enumerate().flat_map(move |(s, shard)| {
            let start = self.partition.range(s).start as u32;
            shard.holders().map(move |(l, n)| (l, Name(start + n.0)))
        })
    }

    /// The global name `label` currently holds, if any.
    pub fn name_of(&self, label: Label) -> Option<Name> {
        let s = *self.routes.get(&label)?;
        let start = self.partition.range(s).start as u32;
        self.shards[s].name_of(label).map(|n| Name(start + n.0))
    }

    /// The shard currently responsible for `label` (queued, admitted, or
    /// holding), if any.
    pub fn route_of(&self, label: Label) -> Option<usize> {
        self.routes.get(&label).copied()
    }

    /// Stage 1: validates the batch — the service's one validation —
    /// then routes it and stages each request into its shard: releases
    /// to the shard that issued the name (returning its booking),
    /// acquires by home-hash with deterministic ring spill. Legal while
    /// an epoch is in flight; that is what pipelines batch `k+1` under
    /// epoch `k`.
    ///
    /// # Errors
    ///
    /// [`ShardError::Request`] on a validation failure — the whole batch
    /// is rejected before any state changes on any shard:
    /// [`ServiceError::DuplicateRequest`] for a label twice in the batch
    /// or a release already staged; [`ServiceError::AlreadyHolding`] /
    /// [`ServiceError::AlreadyQueued`] for an acquire whose label holds a
    /// name or is queued (admitted into the in-flight epoch included);
    /// [`ServiceError::UnknownHolder`] for a release of a label that
    /// holds no name.
    pub fn submit(&mut self, requests: &[Request]) -> Result<(), ShardError> {
        // Validate everything first: routing mutates booking counters,
        // so nothing may be applied until the whole batch is known good.
        let mut seen = BTreeSet::new();
        for r in requests {
            let label = match r {
                Request::Acquire(l) | Request::Release(l) => *l,
            };
            if !seen.insert(label) {
                return Err(ShardError::Request(ServiceError::DuplicateRequest(label)));
            }
            match r {
                // A routed label is queued, in flight or holding on its
                // shard; only a holder has a name there.
                Request::Acquire(l) => {
                    if let Some(&s) = self.routes.get(l) {
                        return Err(ShardError::Request(match self.shards[s].name_of(*l) {
                            Some(_) => ServiceError::AlreadyHolding(*l),
                            None => ServiceError::AlreadyQueued(*l),
                        }));
                    }
                }
                Request::Release(l) => match self.routes.get(l) {
                    None => return Err(ShardError::Request(ServiceError::UnknownHolder(*l))),
                    Some(&s) => self.shards[s]
                        .validate_release(*l)
                        .map_err(ShardError::Request)?,
                },
            }
        }

        // Route in request order: a release earlier in the batch frees a
        // booking that a later acquire may claim.
        for r in requests {
            let s = match r {
                Request::Release(l) => {
                    let s = self.routes[l];
                    self.booked[s] -= 1;
                    s
                }
                Request::Acquire(l) => {
                    let s = self.route_acquire(*l);
                    self.routes.insert(*l, s);
                    self.booked[s] += 1;
                    s
                }
            };
            self.shards[s].stage(*r);
        }
        Ok(())
    }

    /// Deterministic acquire routing: home shard by label hash, then
    /// ring spill to the first shard with a free booking; booked solid
    /// everywhere → stay home (the acquire defers in the home backlog).
    fn route_acquire(&self, label: Label) -> usize {
        let n = self.shards.len();
        let home = self.partition.home_shard(label);
        for i in 0..n {
            let s = (home + i) % n;
            if self.booked[s] < self.shards[s].capacity() {
                return s;
            }
        }
        home
    }

    /// Stage 2a: begins one epoch on every shard and returns the
    /// detached runs, in shard order. The runs borrow nothing from the
    /// service — execute them with [`ShardedService::execute_all`] (any
    /// thread) while staging the next batch.
    ///
    /// # Errors
    ///
    /// [`ShardError::Pipeline`] if an epoch is already in flight;
    /// [`ShardError::Shard`] if a shard rejects admission (a bookkeeping
    /// bug).
    pub fn begin(&mut self) -> Result<Vec<EpochRun>, ShardError> {
        if self.in_flight() {
            return Err(ShardError::Pipeline { in_flight: true });
        }
        let mut runs = Vec::with_capacity(self.shards.len());
        for (s, shard) in self.shards.iter_mut().enumerate() {
            let run = shard
                .begin_epoch()
                .map_err(|source| ShardError::Shard { shard: s, source })?;
            // The shard has applied these releases, whatever becomes of
            // the run, so their routes retire now.
            for (label, _) in &run.released {
                self.routes.remove(label);
            }
            runs.push(run);
        }
        Ok(runs)
    }

    /// Executes one epoch's detached shard runs — sequentially, or each
    /// on its own scoped thread (`concurrent`). Outcomes come back in
    /// shard order either way, so downstream state is identical; an
    /// associated function (no `&self`) precisely so a driver can
    /// overlap it with [`ShardedService::submit`] on the service.
    ///
    /// # Panics
    ///
    /// If `adversaries` does not provide one adversary per run, or a
    /// shard's executor thread panics.
    pub fn execute_all<A>(
        runs: Vec<EpochRun>,
        adversaries: Vec<A>,
        concurrent: bool,
    ) -> Vec<EpochOutcome>
    where
        A: Adversary<BilMsg> + Send,
    {
        assert_eq!(runs.len(), adversaries.len(), "one adversary per shard");
        if concurrent {
            thread::scope(|scope| {
                let handles: Vec<_> = runs
                    .into_iter()
                    .zip(adversaries)
                    .map(|(run, adversary)| scope.spawn(move || run.execute(adversary)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("shard epoch thread panicked"))
                    .collect()
            })
        } else {
            runs.into_iter()
                .zip(adversaries)
                .map(|(run, adversary)| run.execute(adversary))
                .collect()
        }
    }

    /// Stage 2b: folds every shard's outcome back in, in shard order,
    /// and advances the front-end epoch. Failed shards keep their cohort
    /// (at the head of that shard's backlog, original order) and report
    /// the error in [`ShardedEpochReport::shards`]; crashes retire their
    /// labels' routes (releases retired theirs at
    /// [`ShardedService::begin`]).
    ///
    /// # Errors
    ///
    /// A [`Rejected`] with [`ShardError::Pipeline`] if no epoch is in
    /// flight, or if `outcomes` is not, shard by shard, the outcome of
    /// the run [`ShardedService::begin`] detached on that shard —
    /// checked before any shard changes. The outcomes come back
    /// untouched, so the caller can complete the epoch with them in the
    /// right order.
    pub fn complete(
        &mut self,
        outcomes: Vec<EpochOutcome>,
    ) -> Result<ShardedEpochReport, Rejected> {
        // A shard with no epoch in flight awaits nothing.
        if outcomes.len() != self.shards.len()
            || !self.shards.iter().zip(&outcomes).all(|(s, o)| s.awaits(o))
        {
            return Err(Rejected {
                error: ShardError::Pipeline {
                    in_flight: self.in_flight(),
                },
                outcomes,
            });
        }
        let epoch = self.epoch;
        let mut shards_out = Vec::with_capacity(outcomes.len());
        let mut granted = Vec::new();
        let mut released = Vec::new();
        let mut crashed = Vec::new();
        let mut recycled = Vec::new();
        for (s, outcome) in outcomes.into_iter().enumerate() {
            let start = self.partition.range(s).start as u32;
            match self.shards[s].finish_epoch(outcome) {
                Ok(report) => {
                    for (l, n) in &report.granted {
                        granted.push((*l, Name(start + n.0)));
                    }
                    for (l, n) in &report.released {
                        released.push((*l, Name(start + n.0)));
                    }
                    for n in &report.recycled {
                        recycled.push(Name(start + n.0));
                    }
                    for l in &report.crashed {
                        crashed.push(*l);
                        self.routes.remove(l);
                    }
                    shards_out.push(Ok(report));
                }
                Err(e) => shards_out.push(Err(e)),
            }
        }
        self.epoch += 1;
        Ok(ShardedEpochReport {
            epoch,
            shards: shards_out,
            granted,
            released,
            crashed,
            recycled,
            held: self.held(),
        })
    }

    /// Runs one failure-free front-end epoch over `requests`.
    ///
    /// # Errors
    ///
    /// As for [`ShardedService::step_against`].
    pub fn step(&mut self, requests: &[Request]) -> Result<ShardedEpochReport, ShardError> {
        self.step_against(requests, |_| NoFailures)
    }

    /// Runs one front-end epoch over `requests`, with `adversary(shard)`
    /// supplying each shard's adversary. This is
    /// [`ShardedService::submit`] + [`ShardedService::begin`] +
    /// [`ShardedService::execute_all`] + [`ShardedService::complete`] in
    /// one call.
    ///
    /// # Errors
    ///
    /// [`ShardError::Request`] before any state changes if the batch is
    /// invalid; per-shard epoch failures are *not* errors here — they
    /// land in [`ShardedEpochReport::shards`] with the cohort still
    /// queued.
    pub fn step_against<A, F>(
        &mut self,
        requests: &[Request],
        mut adversary: F,
    ) -> Result<ShardedEpochReport, ShardError>
    where
        A: Adversary<BilMsg> + Send,
        F: FnMut(usize) -> A,
    {
        self.submit(requests)?;
        let runs = self.begin()?;
        let adversaries: Vec<A> = (0..self.shards.len()).map(&mut adversary).collect();
        let outcomes = Self::execute_all(runs, adversaries, self.concurrent);
        Ok(self.complete(outcomes)?)
    }

    /// The pipelined epoch driver: runs `epochs` front-end epochs where
    /// batch `k+1` is generated and submitted *while epoch `k`'s rounds
    /// execute* (on a scoped thread), overlapping admission with
    /// protocol work. `batch(e, &service)` produces epoch `e`'s request
    /// batch; `adversary(e, shard)` produces each shard's adversary for
    /// epoch `e`.
    ///
    /// The produced reports are identical to driving the same batches
    /// through [`ShardedService::step_against`] one epoch at a time —
    /// that equivalence is the pipelining correctness contract (see the
    /// module docs for the one label-reuse caveat).
    ///
    /// # Errors
    ///
    /// Front-end misuse or batch validation errors; a failed submit
    /// completes the in-flight epoch (its report is lost to the caller)
    /// before the error propagates, leaving the service consistent.
    pub fn run_epochs<A, FA, FB>(
        &mut self,
        epochs: u64,
        mut batch: FB,
        mut adversary: FA,
    ) -> Result<Vec<ShardedEpochReport>, ShardError>
    where
        A: Adversary<BilMsg> + Send,
        FA: FnMut(u64, usize) -> A,
        FB: FnMut(u64, &ShardedService) -> Vec<Request>,
    {
        let mut reports = Vec::with_capacity(epochs as usize);
        if epochs == 0 {
            return Ok(reports);
        }
        let concurrent = self.concurrent;
        let first = batch(0, self);
        self.submit(&first)?;
        let mut runs = self.begin()?;
        for e in 1..epochs {
            let adversaries: Vec<A> = (0..self.shards.len())
                .map(|s| adversary(self.epoch, s))
                .collect();
            let (outcomes, submitted) = thread::scope(|scope| {
                let handle = scope.spawn(move || Self::execute_all(runs, adversaries, concurrent));
                // Epoch e-1 is running; stage epoch e's batch under it.
                let next = batch(e, self);
                let submitted = self.submit(&next);
                (
                    handle.join().expect("epoch executor thread panicked"),
                    submitted,
                )
            });
            reports.push(self.complete(outcomes)?);
            submitted?;
            runs = self.begin()?;
        }
        let adversaries: Vec<A> = (0..self.shards.len())
            .map(|s| adversary(self.epoch, s))
            .collect();
        let outcomes = Self::execute_all(runs, adversaries, concurrent);
        reports.push(self.complete(outcomes)?);
        Ok(reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_runtime::adversary::RandomCrash;
    use bil_runtime::{RunError, SeedTree};

    fn acquires(range: std::ops::Range<u64>) -> Vec<Request> {
        range.map(|i| Request::Acquire(Label(i))).collect()
    }

    #[test]
    fn partition_tiles_the_namespace_in_order() {
        for (capacity, shards) in [(16, 4), (17, 4), (19, 5), (1, 1), (1 << 20, 64)] {
            let p = NamePartition::new(capacity, shards).unwrap();
            let mut next = 0;
            for s in 0..shards {
                let r = p.range(s);
                assert_eq!(r.start, next, "ranges must tile contiguously");
                assert!(!r.is_empty());
                for name in r.clone() {
                    assert_eq!(p.shard_of(name), s);
                }
                next = r.end;
            }
            assert_eq!(next, capacity);
        }
        assert!(matches!(
            NamePartition::new(4, 0),
            Err(ShardError::BadPartition { .. })
        ));
        assert!(matches!(
            NamePartition::new(3, 5),
            Err(ShardError::BadPartition { .. })
        ));
        // Past 2^32 names, shard 255's start would truncate onto shard
        // 127's and the two would issue the same global names.
        assert!(matches!(
            NamePartition::new((1 << 32) + 1, 256),
            Err(ShardError::BadPartition { .. })
        ));
        assert!(matches!(
            ShardedService::new(1 << 33, 256, 1, ShardedOptions::default()),
            Err(ShardError::BadPartition { .. })
        ));
        let widest = NamePartition::new(1 << 32, 256).unwrap();
        assert_eq!(widest.range(255).end, 1 << 32);
    }

    #[test]
    fn grants_stay_inside_the_issuing_shards_range() {
        let mut svc = ShardedService::new(64, 4, 7, ShardedOptions::default()).unwrap();
        let report = svc.step(&acquires(0..48)).unwrap();
        assert_eq!(report.granted.len(), 48);
        let mut names: Vec<u32> = report.granted.iter().map(|(_, n)| n.0).collect();
        names.sort_unstable();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names, dedup, "global names must be unique across shards");
        for (l, n) in &report.granted {
            let s = svc.partition().shard_of(n.0 as usize);
            assert_eq!(svc.route_of(*l), Some(s), "route must match issuing shard");
            assert_eq!(svc.name_of(*l), Some(*n));
        }
    }

    #[test]
    fn spill_overflows_to_the_ring_neighbor_and_releases_route_home() {
        // 2 shards of 4: five acquires hashing wherever they like cannot
        // all fit one shard, so at least one label spills. Whatever the
        // hash decides, every release must route back to the shard that
        // issued the name.
        let mut svc = ShardedService::new(8, 2, 3, ShardedOptions::default()).unwrap();
        let report = svc.step(&acquires(0..6)).unwrap();
        assert_eq!(report.granted.len(), 6);
        let spilled: Vec<Label> = report
            .granted
            .iter()
            .filter(|(l, n)| {
                svc.partition().shard_of(n.0 as usize) != svc.partition().home_shard(*l)
            })
            .map(|(l, _)| *l)
            .collect();
        assert!(
            !spilled.is_empty(),
            "6 acquires into 2x4 shards must spill at least two labels"
        );
        // Release everyone — including the spilled — and verify the
        // freed names come back out of the right shards.
        let releases: Vec<Request> = report
            .granted
            .iter()
            .map(|(l, _)| Request::Release(*l))
            .collect();
        let freed = svc.step(&releases).unwrap();
        assert_eq!(freed.released.len(), 6);
        for (l, n) in &freed.released {
            assert_eq!(
                svc.partition().shard_of(n.0 as usize),
                report
                    .granted
                    .iter()
                    .find(|(gl, _)| gl == l)
                    .map(|(_, gn)| svc.partition().shard_of(gn.0 as usize))
                    .unwrap(),
                "release must go to the issuing shard"
            );
            assert_eq!(svc.route_of(*l), None, "completed release retires route");
        }
        assert_eq!(svc.held(), 0);
    }

    #[test]
    fn fully_booked_ring_defers_at_home() {
        let mut svc = ShardedService::new(8, 2, 5, ShardedOptions::default()).unwrap();
        svc.step(&acquires(0..8)).unwrap();
        assert_eq!(svc.held(), 8);
        // Everything is booked; one more acquire defers at its home.
        let report = svc.step(&acquires(100..101)).unwrap();
        assert_eq!(report.granted.len(), 0);
        assert_eq!(svc.backlog(), 1);
        assert_eq!(
            svc.route_of(Label(100)),
            Some(svc.partition().home_shard(Label(100)))
        );
    }

    #[test]
    fn front_end_validation_changes_nothing_on_any_shard() {
        let mut svc = ShardedService::new(16, 2, 9, ShardedOptions::default()).unwrap();
        svc.step(&acquires(0..4)).unwrap();
        let held = svc.held();
        let backlog = svc.backlog();
        for (batch, want) in [
            (
                vec![Request::Acquire(Label(0))],
                ServiceError::AlreadyHolding(Label(0)),
            ),
            (
                vec![Request::Release(Label(77))],
                ServiceError::UnknownHolder(Label(77)),
            ),
            (
                // A valid acquire ahead of an invalid release: the whole
                // batch must be rejected atomically.
                vec![Request::Acquire(Label(50)), Request::Release(Label(77))],
                ServiceError::UnknownHolder(Label(77)),
            ),
            (
                vec![Request::Acquire(Label(8)), Request::Acquire(Label(8))],
                ServiceError::DuplicateRequest(Label(8)),
            ),
        ] {
            assert_eq!(
                svc.submit(&batch).unwrap_err(),
                ShardError::Request(want.clone())
            );
            assert_eq!(svc.held(), held);
            assert_eq!(svc.backlog(), backlog);
            assert_eq!(
                svc.route_of(Label(50)),
                None,
                "rejected batch must not route"
            );
        }
    }

    #[test]
    fn pipeline_misuse_is_rejected() {
        let mut svc = ShardedService::new(8, 2, 11, ShardedOptions::default()).unwrap();
        svc.submit(&acquires(0..2)).unwrap();
        let runs = svc.begin().unwrap();
        assert_eq!(
            svc.begin().unwrap_err(),
            ShardError::Pipeline { in_flight: true }
        );
        let mut outcomes = ShardedService::execute_all(runs, vec![NoFailures, NoFailures], false);
        let short = vec![outcomes.pop().unwrap()];
        let rejected = svc.complete(short).unwrap_err();
        assert_eq!(rejected.error, ShardError::Pipeline { in_flight: true });
        assert_eq!(rejected.to_string(), rejected.error.to_string());
        svc.submit(&[]).unwrap();
        // Still in flight: the refused outcome came back, so the epoch
        // completes once the missing one joins it.
        assert!(svc.in_flight());
        outcomes.extend(rejected.outcomes);
        let report = svc.complete(outcomes).unwrap();
        assert_eq!(report.granted.len(), 2);
        assert!(!svc.in_flight());
        // Completing with no epoch in flight.
        let stale = svc.complete(Vec::new()).unwrap_err();
        assert_eq!(stale.error, ShardError::Pipeline { in_flight: false });
    }

    #[test]
    fn complete_rejects_outcomes_in_the_wrong_shard_order() {
        // Both shards run the same epoch index, so only the runs
        // themselves tell the two outcomes apart.
        let mut svc = ShardedService::new(16, 2, 17, ShardedOptions::default()).unwrap();
        svc.step(&acquires(0..4)).unwrap();
        svc.submit(&acquires(4..10)).unwrap();
        let state = |svc: &ShardedService| {
            let routes: Vec<_> = (0..10).map(|l| svc.route_of(Label(l))).collect();
            (svc.holders().collect::<Vec<_>>(), routes)
        };
        let before = state(&svc);
        let runs = svc.begin().unwrap();
        let mut outcomes = ShardedService::execute_all(runs, vec![NoFailures, NoFailures], false);
        outcomes.swap(0, 1);
        let rejected = svc.complete(outcomes).unwrap_err();
        assert_eq!(rejected.error, ShardError::Pipeline { in_flight: true });
        assert!(svc.in_flight());
        assert_eq!(state(&svc), before);
        // The same epoch completes with the outcomes handed back, in
        // shard order.
        let mut outcomes = rejected.outcomes;
        outcomes.swap(0, 1);
        let report = svc.complete(outcomes).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.granted.len(), 6);
        assert!(!svc.in_flight());
        assert_eq!(svc.held(), 10);
    }

    #[test]
    fn concurrent_and_sequential_shard_execution_agree() {
        let drive = |concurrent: bool| {
            let mut svc = ShardedService::new(
                32,
                4,
                13,
                ShardedOptions {
                    concurrent,
                    ..ShardedOptions::default()
                },
            )
            .unwrap();
            let mut reports = Vec::new();
            for e in 0..4u64 {
                let mut batch = acquires(e * 10..e * 10 + 6);
                if e > 0 {
                    // Release two holders from the previous epoch.
                    let holders: Vec<Label> = svc.holders().map(|(l, _)| l).take(2).collect();
                    batch.extend(holders.into_iter().map(Request::Release));
                }
                let report = svc
                    .step_against(&batch, |s| {
                        RandomCrash::new(
                            1,
                            0.5,
                            SeedTree::new(13)
                                .epoch(e)
                                .process_rng(bil_runtime::ProcId(s as u32)),
                        )
                    })
                    .unwrap();
                reports.push(report);
            }
            reports
        };
        assert_eq!(drive(false), drive(true));
    }

    #[test]
    fn failed_shard_requeues_on_that_shard_and_retries_in_order() {
        // Regression: a shard whose epoch fails must re-admit its cohort
        // on the *same shard*, in original FIFO order, while the other
        // shards move on unharmed.
        let mut svc = ShardedService::new(16, 2, 17, ShardedOptions::default()).unwrap();
        svc.submit(&acquires(0..8)).unwrap();
        let runs = svc.begin().unwrap();
        let victim = 0usize;
        let victim_cohort = runs[victim].admitted().to_vec();
        let epoch = runs[victim].epoch();
        assert!(!victim_cohort.is_empty(), "shard 0 must have admissions");
        // Execute shard 1 normally; fabricate an executor failure for
        // shard 0.
        let mut outcomes = Vec::new();
        for (s, run) in runs.into_iter().enumerate() {
            if s == victim {
                outcomes.push(EpochOutcome {
                    epoch,
                    deferred: 0,
                    released: Vec::new(),
                    seeds: run.seeds,
                    result: Err(ServiceError::Run {
                        epoch,
                        source: RunError::Io {
                            context: "test-injected failure",
                            detail: "connection reset".into(),
                        },
                    }),
                });
            } else {
                outcomes.push(run.execute(NoFailures));
            }
        }
        let report = svc.complete(outcomes).unwrap();
        assert!(report.shards[victim].is_err());
        assert!(report.shards[1].is_ok());
        // Retry epoch: the victim re-admits its original cohort, in
        // order, on the same shard.
        let retry = svc.step(&[]).unwrap();
        let retried = retry.shards[victim].as_ref().unwrap();
        assert_eq!(retried.admitted, victim_cohort);
        for l in &victim_cohort {
            assert_eq!(svc.route_of(*l), Some(victim));
        }
        assert_eq!(svc.held(), 8);
    }

    #[test]
    fn pipelined_run_epochs_equals_sequential_steps() {
        // Record the batches a pipelined drive generates, then replay
        // them sequentially; every report must be identical. Fresh
        // labels per epoch, releases only of committed holders — the
        // workload shape under which pipelining is exactly equivalent.
        let make = || ShardedService::new(32, 4, 19, ShardedOptions::default()).unwrap();
        let mut recorded: Vec<Vec<Request>> = Vec::new();
        let pipelined = {
            let mut svc = make();
            svc.run_epochs(
                5,
                |e, svc| {
                    let mut batch = acquires(e * 100..e * 100 + 7);
                    let holders: Vec<Label> = svc.holders().map(|(l, _)| l).take(3).collect();
                    batch.extend(holders.into_iter().map(Request::Release));
                    recorded.push(batch.clone());
                    batch
                },
                |e, s| {
                    RandomCrash::new(
                        1,
                        0.4,
                        SeedTree::new(19)
                            .epoch(e)
                            .process_rng(bil_runtime::ProcId(s as u32)),
                    )
                },
            )
            .unwrap()
        };
        assert_eq!(recorded.len(), 5);
        let sequential = {
            let mut svc = make();
            recorded
                .iter()
                .enumerate()
                .map(|(e, batch)| {
                    svc.step_against(batch, |s| {
                        RandomCrash::new(
                            1,
                            0.4,
                            SeedTree::new(19)
                                .epoch(e as u64)
                                .process_rng(bil_runtime::ProcId(s as u32)),
                        )
                    })
                    .unwrap()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(pipelined, sequential);
    }

    #[test]
    fn sharded_history_is_deterministic() {
        let drive = || {
            let mut svc = ShardedService::new(24, 3, 23, ShardedOptions::default()).unwrap();
            (0..4u64)
                .map(|e| {
                    let mut batch = acquires(e * 10..e * 10 + 5);
                    let holders: Vec<Label> = svc.holders().map(|(l, _)| l).take(2).collect();
                    batch.extend(holders.into_iter().map(Request::Release));
                    svc.step(&batch).unwrap()
                })
                .collect::<Vec<_>>()
        };
        let history = drive();
        for report in &history {
            for shard in &report.shards {
                assert!(shard.is_ok(), "epoch {}: {shard:?}", report.epoch);
            }
        }
        assert_eq!(history, drive());
    }
}
