//! The per-shard engine: a long-lived renaming service over one tree.
//!
//! [`RenamingService`] owns one `N`-leaf namespace and runs it epoch by
//! epoch. Since the sharded refactor it is built around a **two-stage
//! admission queue** instead of a run-to-completion loop:
//!
//! * **Stage 1 — batching** ([`RenamingService::enqueue`]): requests are
//!   validated and staged (releases recorded, acquires appended to the
//!   FIFO backlog). Legal at any time, *including while an epoch's
//!   rounds are still running* — this is what lets a driver admit and
//!   batch epoch `k+1` while epoch `k` executes.
//! * **Stage 2a — admission** ([`RenamingService::begin_epoch`]):
//!   staged releases apply, the epoch admits a cohort up to the free
//!   capacity, and the protocol instance is built into a detached
//!   [`EpochRun`] that borrows nothing from the service.
//! * **Stage 2b — completion** ([`EpochRun::execute`] +
//!   [`RenamingService::finish_epoch`]): the run's decisions become
//!   grants; a failed run puts the cohort back at the *front* of the
//!   backlog in its original FIFO order, ahead of anything staged while
//!   the epoch was in flight, and leaves the epoch counter untouched so
//!   a retry replays the same seeds.
//!
//! [`RenamingService::step`] / [`RenamingService::step_against`] are the
//! one-call composition of the stages and behave exactly like the
//! pre-refactor run-to-completion API.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bil_core::{BilMsg, EpochBil};
use bil_runtime::adversary::{Adversary, NoFailures};
use bil_runtime::{Label, Name, SeedTree};
use bil_tree::Topology;

use crate::epoch::{EpochOutcome, EpochReport, EpochRun, Request, ServiceOptions};
use crate::error::{Rejected, ServiceError};

/// The long-lived renaming service over one tree; used standalone or as
/// the per-shard engine behind [`crate::ShardedService`]. See the crate
/// docs for the epoch model and the module docs for the two-stage
/// admission queue.
#[derive(Debug, Clone)]
pub struct RenamingService {
    capacity: usize,
    options: ServiceOptions,
    seeds: SeedTree,
    epoch: u64,
    /// Label → held name.
    assigned: BTreeMap<Label, Name>,
    /// FIFO backlog of acquires waiting for free capacity (stage 1).
    pending: VecDeque<Label>,
    /// Releases staged for the next `begin_epoch`, in request order
    /// (stage 1).
    staged_releases: Vec<Label>,
    /// The epoch begun but not yet finished, with its admitted cohort
    /// (so stage-1 validation can reject requests that race the run).
    in_flight: Option<(u64, BTreeSet<Label>)>,
    /// Names that have been released at least once (for recycling
    /// accounting).
    ever_released: BTreeSet<Name>,
}

impl RenamingService {
    /// A service over `capacity` names, rooted at `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadCapacity`] if `capacity` is not a
    /// valid tree size (`0` or beyond [`bil_tree::MAX_LEAVES`]).
    pub fn new(
        capacity: usize,
        seed: u64,
        options: ServiceOptions,
    ) -> Result<RenamingService, ServiceError> {
        Topology::new(capacity).map_err(ServiceError::BadCapacity)?;
        Ok(RenamingService {
            capacity,
            options,
            seeds: SeedTree::new(seed),
            epoch: 0,
            assigned: BTreeMap::new(),
            pending: VecDeque::new(),
            staged_releases: Vec::new(),
            in_flight: None,
            ever_released: BTreeSet::new(),
        })
    }

    /// The namespace size `N`.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The next epoch index (the in-flight epoch's index while one is
    /// running).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current `(label, name)` holders, in label order. While an epoch
    /// is in flight this reflects the post-release, pre-grant state.
    pub fn holders(&self) -> impl Iterator<Item = (Label, Name)> + '_ {
        self.assigned.iter().map(|(l, n)| (*l, *n))
    }

    /// The name `label` currently holds, if any.
    pub fn name_of(&self, label: Label) -> Option<Name> {
        self.assigned.get(&label).copied()
    }

    /// Number of names currently held.
    pub fn held(&self) -> usize {
        self.assigned.len()
    }

    /// Fraction of the namespace currently held.
    pub fn density(&self) -> f64 {
        self.assigned.len() as f64 / self.capacity as f64
    }

    /// Acquires queued behind the current capacity.
    pub fn backlog(&self) -> usize {
        self.pending.len()
    }

    /// Releases staged for the next epoch (stage 1, not yet applied).
    pub fn staged_releases(&self) -> usize {
        self.staged_releases.len()
    }

    /// The epoch begun but not yet finished, if any.
    pub fn in_flight(&self) -> Option<u64> {
        self.in_flight.as_ref().map(|(e, _)| *e)
    }

    /// Runs one failure-free epoch over `requests`.
    ///
    /// # Errors
    ///
    /// As for [`RenamingService::step_against`].
    pub fn step(&mut self, requests: &[Request]) -> Result<EpochReport, ServiceError> {
        self.step_against(requests, NoFailures)
    }

    /// Runs one epoch over `requests` against `adversary` (crashes kill
    /// admitted contenders; their acquires die with them). This is
    /// [`RenamingService::enqueue`] + [`RenamingService::begin_epoch`] +
    /// [`EpochRun::execute`] + [`RenamingService::finish_epoch`] in one
    /// call.
    ///
    /// # Errors
    ///
    /// Returns a validation error ([`ServiceError::AlreadyHolding`],
    /// [`ServiceError::UnknownHolder`], …) before any state changes, or
    /// [`ServiceError::Run`] / [`ServiceError::Stalled`] if the executor
    /// fails mid-epoch — in which case releases stay applied (they are
    /// client facts), admitted contenders return to the front of the
    /// backlog, and the epoch counter does not advance, so the epoch can
    /// be retried deterministically.
    pub fn step_against<A: Adversary<BilMsg>>(
        &mut self,
        requests: &[Request],
        adversary: A,
    ) -> Result<EpochReport, ServiceError> {
        self.enqueue(requests)?;
        let run = self.begin_epoch()?;
        let outcome = run.execute(adversary);
        self.finish_epoch(outcome)?
    }

    /// Stage 1: validates `requests` and stages them for the next epoch
    /// — releases are recorded (applied at the next
    /// [`RenamingService::begin_epoch`]), acquires join the FIFO
    /// backlog. Legal while an epoch is in flight; that is the point.
    ///
    /// # Errors
    ///
    /// Returns a validation error before any state changes. Requests
    /// that race the in-flight epoch are rejected: an acquire for an
    /// admitted contender is [`ServiceError::AlreadyQueued`], a release
    /// for one is [`ServiceError::UnknownHolder`] (its grant, if any, is
    /// not committed yet).
    pub fn enqueue(&mut self, requests: &[Request]) -> Result<(), ServiceError> {
        self.validate(requests)?;
        for r in requests {
            match r {
                Request::Release(l) => self.staged_releases.push(*l),
                Request::Acquire(l) => self.pending.push_back(*l),
            }
        }
        Ok(())
    }

    /// Stage 2a: applies staged releases, admits a cohort up to the free
    /// capacity, and returns the epoch's detached [`EpochRun`]. The run
    /// borrows nothing from the service, so it can execute on another
    /// thread while stage 1 batches the next epoch.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Pipeline`] if an epoch is already in flight;
    /// [`ServiceError::Epoch`] if the protocol rejects the service state
    /// (a bookkeeping bug — the cohort is re-queued, releases stay
    /// applied).
    pub fn begin_epoch(&mut self) -> Result<EpochRun, ServiceError> {
        if let Some((e, _)) = &self.in_flight {
            return Err(ServiceError::Pipeline {
                in_flight: Some(*e),
            });
        }
        let epoch = self.epoch;

        // 1. Releases: released names rejoin the free names, so this
        // very epoch's tree already has a leaf for each.
        let mut released = Vec::new();
        for l in std::mem::take(&mut self.staged_releases) {
            let name = self.assigned.remove(&l).expect("validated holder");
            self.ever_released.insert(name);
            released.push((l, name));
        }

        // 2. Admission: the epoch admits up to the free capacity, FIFO.
        let free = self.capacity - self.assigned.len();
        let admit = free.min(self.pending.len());
        let admitted: Vec<Label> = self.pending.drain(..admit).collect();
        let deferred = self.pending.len();

        // 3. One Balls-into-Leaves instance over the free names.
        let protocol = if admitted.is_empty() {
            None
        } else {
            let holders: Vec<(Label, Name)> = self.holders().collect();
            match EpochBil::new(self.options.config, self.capacity, &holders) {
                Ok(p) => Some(p),
                // Only reachable through a service bookkeeping bug, but
                // the retry contract still holds: the admitted cohort
                // goes back to the front of the backlog, like every
                // other epoch failure.
                Err(e) => {
                    self.requeue(admitted);
                    return Err(ServiceError::Epoch(e));
                }
            }
        };
        self.in_flight = Some((epoch, admitted.iter().copied().collect()));
        Ok(EpochRun {
            epoch,
            admitted,
            deferred,
            released,
            protocol,
            seeds: self.seeds.epoch(epoch),
            options: self.options,
        })
    }

    /// Stage 2b: folds a completed [`EpochRun`]'s outcome back into the
    /// service — decisions become grants, crashed contenders are
    /// dropped, the epoch counter advances.
    ///
    /// # Errors
    ///
    /// The outer `Err` is a [`Rejected`] with [`ServiceError::Pipeline`]
    /// if `outcome` is not the outcome of the run this service detached
    /// for its in-flight epoch: nothing changes and `outcome` comes back
    /// untouched, so it can still go to the service it belongs to.
    /// The inner `Err` means the run itself failed: the admitted cohort
    /// returns to the *front* of the backlog in its original FIFO order
    /// (ahead of anything enqueued while the epoch was in flight), the
    /// epoch counter stays put, and the run's error
    /// ([`ServiceError::Run`] / [`ServiceError::Stalled`]) is returned.
    pub fn finish_epoch(
        &mut self,
        outcome: EpochOutcome,
    ) -> Result<Result<EpochReport, ServiceError>, Rejected<ServiceError, Box<EpochOutcome>>> {
        if !self.awaits(&outcome) {
            return Err(Rejected {
                error: ServiceError::Pipeline {
                    in_flight: self.in_flight(),
                },
                outcomes: Box::new(outcome),
            });
        }
        self.in_flight = None;
        let EpochOutcome {
            epoch,
            admitted,
            deferred,
            released,
            result,
            ..
        } = outcome;
        let run = match result {
            Ok(run) => run,
            Err(e) => {
                self.requeue(admitted);
                return Ok(Err(e));
            }
        };

        // Decisions become grants; the crashed are dropped.
        let mut granted = Vec::new();
        let mut crashed = Vec::new();
        if let Some(report) = &run {
            for (slot, label) in admitted.iter().enumerate() {
                match report.decisions[slot] {
                    Some(decision) => {
                        let prior = self.assigned.insert(*label, decision.name);
                        debug_assert!(prior.is_none(), "grant to an existing holder");
                        granted.push((*label, decision.name));
                    }
                    None => crashed.push(*label),
                }
            }
        }
        let recycled: Vec<Name> = granted
            .iter()
            .map(|(_, n)| *n)
            .filter(|n| self.ever_released.contains(n))
            .collect();
        self.epoch += 1;
        Ok(Ok(EpochReport {
            epoch,
            admitted,
            deferred,
            granted,
            crashed,
            released,
            recycled,
            density: self.density(),
            rounds: run.as_ref().map_or(0, |r| r.rounds),
            run,
        }))
    }

    /// Whether `outcome` comes from the run this service detached for
    /// its in-flight epoch: the same epoch and the same seed tree.
    pub(crate) fn awaits(&self, outcome: &EpochOutcome) -> bool {
        self.in_flight()
            .is_some_and(|e| e == outcome.epoch && self.seeds.epoch(e) == outcome.seeds)
    }

    /// Returns failed-epoch contenders to the *front* of the backlog, in
    /// their original order, so a retry admits the same cohort.
    fn requeue(&mut self, admitted: Vec<Label>) {
        for label in admitted.into_iter().rev() {
            self.pending.push_front(label);
        }
    }

    /// Whether `label` is admitted into the in-flight epoch (its fate is
    /// undecided until `finish_epoch`).
    fn racing(&self, label: Label) -> bool {
        self.in_flight
            .as_ref()
            .is_some_and(|(_, cohort)| cohort.contains(&label))
    }

    /// Stage-1 admissibility of one acquire against the committed,
    /// staged, and in-flight state. Batch-local duplicate detection is
    /// the caller's job. Shared with the sharded front-end so its
    /// pre-routing validation matches shard validation exactly.
    pub(crate) fn validate_acquire(&self, label: Label) -> Result<(), ServiceError> {
        if self.assigned.contains_key(&label) {
            return Err(ServiceError::AlreadyHolding(label));
        }
        if self.pending.contains(&label) || self.racing(label) {
            return Err(ServiceError::AlreadyQueued(label));
        }
        Ok(())
    }

    /// Stage-1 admissibility of one release; see
    /// [`RenamingService::validate_acquire`].
    pub(crate) fn validate_release(&self, label: Label) -> Result<(), ServiceError> {
        if self.staged_releases.contains(&label) {
            return Err(ServiceError::DuplicateRequest(label));
        }
        if !self.assigned.contains_key(&label) || self.racing(label) {
            return Err(ServiceError::UnknownHolder(label));
        }
        Ok(())
    }

    /// Rejects malformed batches before any state changes, against the
    /// committed state *and* everything staged or in flight.
    fn validate(&self, requests: &[Request]) -> Result<(), ServiceError> {
        let mut seen = BTreeSet::new();
        for r in requests {
            let label = match r {
                Request::Acquire(l) | Request::Release(l) => *l,
            };
            if !seen.insert(label) {
                return Err(ServiceError::DuplicateRequest(label));
            }
            match r {
                Request::Acquire(l) => self.validate_acquire(*l)?,
                Request::Release(l) => self.validate_release(*l)?,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_runtime::adversary::RandomCrash;
    use bil_runtime::RunError;

    fn acquires(range: std::ops::Range<u64>) -> Vec<Request> {
        range.map(|i| Request::Acquire(Label(i))).collect()
    }

    #[test]
    fn construction_validates_capacity() {
        assert!(matches!(
            RenamingService::new(0, 1, ServiceOptions::default()),
            Err(ServiceError::BadCapacity(_))
        ));
        let svc = RenamingService::new(16, 1, ServiceOptions::default()).unwrap();
        assert_eq!(svc.capacity(), 16);
        assert_eq!(svc.held(), 0);
        assert_eq!(svc.density(), 0.0);
    }

    #[test]
    fn grants_are_unique_and_within_namespace() {
        let mut svc = RenamingService::new(8, 7, ServiceOptions::default()).unwrap();
        let report = svc.step(&acquires(0..8)).unwrap();
        assert_eq!(report.granted.len(), 8);
        assert_eq!(report.density, 1.0);
        let mut names: Vec<u32> = report.granted.iter().map(|(_, n)| n.0).collect();
        names.sort_unstable();
        assert_eq!(names, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn released_names_are_recycled() {
        let mut svc = RenamingService::new(4, 3, ServiceOptions::default()).unwrap();
        svc.step(&acquires(0..4)).unwrap();
        let freed = svc.name_of(Label(2)).unwrap();
        let e1 = svc.step(&[Request::Release(Label(2))]).unwrap();
        assert_eq!(e1.released, vec![(Label(2), freed)]);
        assert_eq!(e1.rounds, 0, "no contenders, no protocol run");
        // The only free name is the freed one: the next acquire must
        // recycle it.
        let e2 = svc.step(&[Request::Acquire(Label(99))]).unwrap();
        assert_eq!(e2.granted, vec![(Label(99), freed)]);
        assert_eq!(e2.recycled, vec![freed]);
    }

    #[test]
    fn admission_control_defers_beyond_capacity() {
        let mut svc = RenamingService::new(4, 5, ServiceOptions::default()).unwrap();
        let e0 = svc.step(&acquires(0..6)).unwrap();
        assert_eq!(e0.admitted.len(), 4);
        assert_eq!(e0.deferred, 2);
        assert_eq!(svc.backlog(), 2);
        // No capacity: the next epoch admits nobody.
        let e1 = svc.step(&[]).unwrap();
        assert!(e1.admitted.is_empty());
        assert_eq!(e1.deferred, 2);
        // A release lets the backlog drain FIFO.
        let e2 = svc.step(&[Request::Release(Label(0))]).unwrap();
        assert_eq!(e2.admitted, vec![Label(4)]);
        assert_eq!(e2.deferred, 1);
    }

    #[test]
    fn validation_rejects_bad_batches_without_state_changes() {
        let mut svc = RenamingService::new(4, 1, ServiceOptions::default()).unwrap();
        svc.step(&acquires(0..2)).unwrap();
        let held = svc.held();
        for (batch, want) in [
            (
                vec![Request::Acquire(Label(0))],
                ServiceError::AlreadyHolding(Label(0)),
            ),
            (
                vec![Request::Release(Label(9))],
                ServiceError::UnknownHolder(Label(9)),
            ),
            (
                vec![Request::Acquire(Label(5)), Request::Acquire(Label(5))],
                ServiceError::DuplicateRequest(Label(5)),
            ),
            (
                // Release + immediate re-acquire must be split across
                // epochs.
                vec![Request::Release(Label(0)), Request::Acquire(Label(0))],
                ServiceError::DuplicateRequest(Label(0)),
            ),
        ] {
            assert_eq!(svc.step(&batch).unwrap_err(), want);
            assert_eq!(svc.held(), held, "state must be untouched");
        }
        // Queued duplicates are rejected too.
        let mut full = RenamingService::new(2, 1, ServiceOptions::default()).unwrap();
        full.step(&acquires(0..2)).unwrap();
        full.step(&[Request::Acquire(Label(7))]).unwrap();
        assert_eq!(
            full.step(&[Request::Acquire(Label(7))]).unwrap_err(),
            ServiceError::AlreadyQueued(Label(7))
        );
    }

    #[test]
    fn crashed_contenders_are_dropped_not_granted() {
        let mut svc = RenamingService::new(16, 11, ServiceOptions::default()).unwrap();
        let adversary = RandomCrash::new(4, 0.9, SeedTree::new(11).adversary_rng());
        let report = svc.step_against(&acquires(0..12), adversary).unwrap();
        assert_eq!(report.granted.len() + report.crashed.len(), 12);
        assert!(!report.crashed.is_empty(), "adversary was supposed to fire");
        for l in &report.crashed {
            assert_eq!(svc.name_of(*l), None);
        }
        // Uniqueness across the epoch.
        let mut names: Vec<Name> = report.granted.iter().map(|(_, n)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), report.granted.len());
    }

    #[test]
    fn multi_epoch_churn_never_duplicates_names() {
        let mut svc = RenamingService::new(16, 23, ServiceOptions::default()).unwrap();
        let mut next_label = 0u64;
        for epoch in 0..24u64 {
            let mut batch = Vec::new();
            // Release every third holder (deterministically chosen).
            let holders: Vec<Label> = svc.holders().map(|(l, _)| l).collect();
            for (i, l) in holders.iter().enumerate() {
                if (i as u64 + epoch).is_multiple_of(3) {
                    batch.push(Request::Release(*l));
                }
            }
            for _ in 0..(epoch % 5 + 1) {
                batch.push(Request::Acquire(Label(next_label)));
                next_label += 1;
            }
            let adversary = RandomCrash::new(2, 0.5, SeedTree::new(epoch).adversary_rng());
            svc.step_against(&batch, adversary).unwrap();
            // Invariant: held names are unique and within the namespace.
            let mut names: Vec<Name> = svc.holders().map(|(_, n)| n).collect();
            names.sort_unstable();
            let mut dedup = names.clone();
            dedup.dedup();
            assert_eq!(names.len(), dedup.len(), "epoch {epoch}");
            assert!(names.iter().all(|n| (n.0 as usize) < svc.capacity()));
        }
        assert!(svc.epoch() == 24);
    }

    #[test]
    fn service_history_is_deterministic() {
        let run = || {
            let mut svc = RenamingService::new(8, 9, ServiceOptions::default()).unwrap();
            vec![
                svc.step(&acquires(0..5)).unwrap(),
                svc.step(&[Request::Release(Label(1))]).unwrap(),
                svc.step(&acquires(10..14)).unwrap(),
            ]
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pipelined_stages_equal_one_call_steps() {
        // Drive the same request stream through (a) plain `step` calls
        // and (b) the two-stage API with epoch k+1's batch enqueued
        // while epoch k is detached (admitted but not yet finished) —
        // the per-shard pipelining shape. Reports must be identical.
        // Batch k+1 is staged while epoch k is in flight, so releases
        // may only target holders committed at least one epoch earlier
        // (batch 2 releases an epoch-0 grant, never an epoch-1 one).
        let batches: Vec<Vec<Request>> = vec![
            acquires(0..5),
            acquires(10..12),
            vec![Request::Release(Label(1)), Request::Acquire(Label(20))],
            vec![Request::Release(Label(0)), Request::Release(Label(3))],
        ];
        let sequential = {
            let mut svc = RenamingService::new(8, 41, ServiceOptions::default()).unwrap();
            batches
                .iter()
                .map(|b| svc.step(b).unwrap())
                .collect::<Vec<_>>()
        };
        let pipelined = {
            let mut svc = RenamingService::new(8, 41, ServiceOptions::default()).unwrap();
            let mut reports = Vec::new();
            svc.enqueue(&batches[0]).unwrap();
            let mut run = svc.begin_epoch().unwrap();
            for next in &batches[1..] {
                // Epoch k is in flight; stage epoch k+1's batch first.
                let outcome = run.execute(NoFailures);
                svc.enqueue(next).unwrap();
                reports.push(svc.finish_epoch(outcome).unwrap().unwrap());
                run = svc.begin_epoch().unwrap();
            }
            let outcome = run.execute(NoFailures);
            reports.push(svc.finish_epoch(outcome).unwrap().unwrap());
            reports
        };
        assert_eq!(sequential, pipelined);
    }

    #[test]
    fn stage_one_rejects_requests_racing_the_in_flight_epoch() {
        let mut svc = RenamingService::new(8, 13, ServiceOptions::default()).unwrap();
        svc.step(&acquires(0..2)).unwrap();
        svc.enqueue(&acquires(2..4)).unwrap();
        let run = svc.begin_epoch().unwrap();
        assert_eq!(run.admitted(), &[Label(2), Label(3)]);
        // An acquire for an admitted contender races the run.
        assert_eq!(
            svc.enqueue(&[Request::Acquire(Label(2))]).unwrap_err(),
            ServiceError::AlreadyQueued(Label(2))
        );
        // A release for one too: its grant is not committed yet.
        assert_eq!(
            svc.enqueue(&[Request::Release(Label(3))]).unwrap_err(),
            ServiceError::UnknownHolder(Label(3))
        );
        // A release for a committed holder is fine mid-flight, but
        // staging it twice is a duplicate.
        svc.enqueue(&[Request::Release(Label(0))]).unwrap();
        assert_eq!(
            svc.enqueue(&[Request::Release(Label(0))]).unwrap_err(),
            ServiceError::DuplicateRequest(Label(0))
        );
        let outcome = run.execute(NoFailures);
        svc.finish_epoch(outcome).unwrap().unwrap();
        assert_eq!(svc.held(), 4);
    }

    #[test]
    fn pipeline_misuse_is_rejected() {
        let mut svc = RenamingService::new(8, 17, ServiceOptions::default()).unwrap();
        svc.enqueue(&acquires(0..2)).unwrap();
        let run = svc.begin_epoch().unwrap();
        // A second begin while epoch 0 is in flight.
        assert_eq!(
            svc.begin_epoch().unwrap_err(),
            ServiceError::Pipeline { in_flight: Some(0) }
        );
        // Another service's epoch-0 outcome: only the run this service
        // detached may finish its epoch.
        let mut other = RenamingService::new(8, 18, ServiceOptions::default()).unwrap();
        other.enqueue(&acquires(0..2)).unwrap();
        let foreign = other.begin_epoch().unwrap().execute(NoFailures);
        let rejected = svc.finish_epoch(foreign).unwrap_err();
        assert_eq!(
            rejected.error,
            ServiceError::Pipeline { in_flight: Some(0) }
        );
        assert_eq!(svc.held(), 0);
        let outcome = run.execute(NoFailures);
        // Each outcome goes to the service it belongs to, the refused
        // one included: it came back untouched.
        other.finish_epoch(*rejected.outcomes).unwrap().unwrap();
        assert_eq!(other.held(), 2);
        svc.finish_epoch(outcome).unwrap().unwrap();
        // Finishing with no epoch in flight.
        svc.enqueue(&acquires(2..4)).unwrap();
        let run = svc.begin_epoch().unwrap();
        let outcome = run.execute(NoFailures);
        svc.finish_epoch(outcome).unwrap().unwrap();
        let stale = {
            let mut other = RenamingService::new(8, 17, ServiceOptions::default()).unwrap();
            other.enqueue(&acquires(50..51)).unwrap();
            other.begin_epoch().unwrap().execute(NoFailures)
        };
        assert_eq!(
            svc.finish_epoch(stale).unwrap_err().error,
            ServiceError::Pipeline { in_flight: None }
        );
    }

    #[test]
    fn run_failure_requeues_cohort_in_fifo_order_ahead_of_later_arrivals() {
        // Regression: contenders re-queued by a mid-epoch executor
        // failure (`ServiceError::Run`) must be re-admitted in their
        // original FIFO order, ahead of acquires that arrived while the
        // failed epoch was in flight — not interleaved behind them.
        let mut svc = RenamingService::new(8, 29, ServiceOptions::default()).unwrap();
        svc.enqueue(&acquires(0..3)).unwrap();
        let run = svc.begin_epoch().unwrap();
        let epoch = run.epoch();
        assert_eq!(run.admitted(), &[Label(0), Label(1), Label(2)]);
        // Later arrivals land in stage 1 while the epoch is in flight.
        svc.enqueue(&acquires(10..12)).unwrap();
        // The executor dies mid-epoch: fabricate the failed outcome the
        // (detached) run would have produced on, say, a socket I/O
        // error.
        let source = RunError::Io {
            context: "test-injected failure",
            detail: "connection reset".into(),
        };
        let failed = EpochOutcome {
            epoch,
            admitted: run.admitted().to_vec(),
            deferred: 0,
            released: Vec::new(),
            seeds: run.seeds,
            result: Err(ServiceError::Run {
                epoch,
                source: source.clone(),
            }),
        };
        assert_eq!(
            svc.finish_epoch(failed).unwrap().unwrap_err(),
            ServiceError::Run { epoch, source }
        );
        // The epoch counter did not advance, and the retry admits the
        // original cohort first, in order, then the later arrivals.
        assert_eq!(svc.epoch(), epoch);
        let retry = svc.step(&[]).unwrap();
        assert_eq!(retry.epoch, epoch);
        assert_eq!(
            retry.admitted,
            vec![Label(0), Label(1), Label(2), Label(10), Label(11)]
        );
    }

    #[test]
    fn stall_requeues_cohort_in_fifo_order_through_public_api() {
        // Same fidelity contract, exercised end-to-end: a round limit of
        // 1 cannot complete an 8-contender epoch, so `step_against`
        // fails with `Stalled` and the cohort returns to the front.
        let options = ServiceOptions {
            max_rounds: Some(1),
            ..ServiceOptions::default()
        };
        let mut svc = RenamingService::new(16, 31, options).unwrap();
        let err = svc.step(&acquires(0..8)).unwrap_err();
        assert_eq!(err, ServiceError::Stalled { epoch: 0 });
        assert_eq!(svc.backlog(), 8);
        // Lift the limit (the options are per-service, so re-create) —
        // instead retry with more rounds by enqueueing later arrivals
        // first and checking admission order on the stalled service.
        let err = svc.step(&acquires(20..22)).unwrap_err();
        assert_eq!(err, ServiceError::Stalled { epoch: 0 });
        assert_eq!(svc.backlog(), 10);
        // Original cohort still heads the queue, later arrivals behind.
        let run = svc.begin_epoch().unwrap();
        let admitted = run.admitted().to_vec();
        assert_eq!(
            &admitted[..8],
            &acquires(0..8)
                .iter()
                .map(|r| match r {
                    Request::Acquire(l) => *l,
                    Request::Release(l) => *l,
                })
                .collect::<Vec<_>>()[..]
        );
        assert_eq!(&admitted[8..], &[Label(20), Label(21)]);
    }
}
