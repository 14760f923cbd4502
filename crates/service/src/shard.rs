//! The per-shard engine: one range of the namespace, run epoch by epoch.
//!
//! [`RenamingService`] owns one shard's names and its **two-stage
//! admission queue**; [`crate::ShardedService`], the only front end,
//! validates every request and drives each shard through the stages (a
//! one-shard front end is the standalone service):
//!
//! * **Stage 1 — staging** (`stage`): a validated request is recorded
//!   — a release into the staged releases, an acquire onto the FIFO
//!   backlog. Legal at any time, *including while an epoch's rounds are
//!   still running* — this is what lets a driver batch epoch `k+1`
//!   while epoch `k` executes.
//! * **Stage 2a — admission** (`begin_epoch`): staged releases apply,
//!   the epoch admits the head of the backlog up to the free capacity,
//!   and the protocol instance is built into a detached [`EpochRun`]
//!   that borrows nothing from the shard. The admitted cohort stays
//!   queued at the head of the backlog while it runs.
//! * **Stage 2b — completion** ([`EpochRun::execute`] + `finish_epoch`):
//!   the run's decisions become grants and the cohort leaves the
//!   backlog. A failed run leaves the cohort where it was — at the head
//!   of the backlog in its original FIFO order, ahead of anything staged
//!   while the epoch was in flight — and leaves the epoch counter
//!   untouched, so a retry replays the same seeds.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use bil_core::EpochBil;
use bil_runtime::{Label, Name, SeedTree};
use bil_tree::Topology;

use crate::epoch::{EpochOutcome, EpochReport, EpochRun, Request, ServiceOptions};
use crate::error::ServiceError;

/// The per-shard engine behind [`crate::ShardedService`], over one
/// contiguous range of the namespace (shard-local names `0..capacity`).
/// Read it through [`crate::ShardedService::shard`]; see the crate docs
/// for the epoch model and the module docs for the two-stage admission
/// queue.
#[derive(Debug, Clone)]
pub struct RenamingService {
    capacity: usize,
    options: ServiceOptions,
    seeds: SeedTree,
    epoch: u64,
    /// Label → held name.
    assigned: BTreeMap<Label, Name>,
    /// FIFO backlog of acquires waiting for free capacity (stage 1).
    /// While an epoch is in flight, its admitted cohort is the head.
    pending: VecDeque<Label>,
    /// Releases staged for the next `begin_epoch`, in request order
    /// (stage 1).
    staged_releases: Vec<Label>,
    /// The epoch begun but not yet finished, with the number of labels
    /// at the head of `pending` it admitted.
    in_flight: Option<(u64, usize)>,
    /// Names that have been released at least once (for recycling
    /// accounting).
    ever_released: BTreeSet<Name>,
}

impl RenamingService {
    /// A shard over `capacity` names, rooted at `seed`.
    ///
    /// # Errors
    ///
    /// Returns [`ServiceError::BadCapacity`] if `capacity` is not a
    /// valid tree size (`0` or beyond [`bil_tree::MAX_LEAVES`]).
    pub(crate) fn new(
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

    /// The shard's namespace size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The shard's next epoch index (the in-flight epoch's index while
    /// one is running). A failed epoch does not advance it.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Current `(label, shard-local name)` holders, in label order. While
    /// an epoch is in flight this reflects the post-release, pre-grant
    /// state.
    pub fn holders(&self) -> impl Iterator<Item = (Label, Name)> + '_ {
        self.assigned.iter().map(|(l, n)| (*l, *n))
    }

    /// The shard-local name `label` currently holds, if any.
    pub fn name_of(&self, label: Label) -> Option<Name> {
        self.assigned.get(&label).copied()
    }

    /// Number of names currently held.
    pub fn held(&self) -> usize {
        self.assigned.len()
    }

    /// Fraction of the shard's namespace currently held.
    pub fn density(&self) -> f64 {
        self.assigned.len() as f64 / self.capacity as f64
    }

    /// Acquires queued behind the current capacity, not counting the
    /// cohort of the epoch in flight.
    pub fn backlog(&self) -> usize {
        self.pending.len() - self.in_flight.map_or(0, |(_, admitted)| admitted)
    }

    /// Releases staged for the next epoch (stage 1, not yet applied).
    pub fn staged_releases(&self) -> usize {
        self.staged_releases.len()
    }

    /// The epoch begun but not yet finished, if any.
    pub fn in_flight(&self) -> Option<u64> {
        self.in_flight.map(|(e, _)| e)
    }

    /// Stage 1: records one request that the front end has validated —
    /// a release for the next [`RenamingService::begin_epoch`] to apply,
    /// an acquire at the tail of the FIFO backlog.
    pub(crate) fn stage(&mut self, request: Request) {
        match request {
            Request::Release(l) => self.staged_releases.push(l),
            Request::Acquire(l) => self.pending.push_back(l),
        }
    }

    /// Stage 2a: applies staged releases, admits the head of the backlog
    /// up to the free capacity, and returns the epoch's detached
    /// [`EpochRun`]. The run borrows nothing from the shard, so it can
    /// execute on another thread while stage 1 batches the next epoch.
    ///
    /// # Errors
    ///
    /// [`ServiceError::Epoch`] if the protocol rejects the shard's state
    /// (a bookkeeping bug — the backlog stays as it was, releases stay
    /// applied).
    pub(crate) fn begin_epoch(&mut self) -> Result<EpochRun, ServiceError> {
        debug_assert!(self.in_flight.is_none(), "begin checks the front end");
        let epoch = self.epoch;

        // 1. Releases: released names rejoin the free names, so this
        // very epoch's tree already has a leaf for each.
        let mut released = Vec::new();
        for l in std::mem::take(&mut self.staged_releases) {
            let name = self.assigned.remove(&l).expect("validated holder");
            self.ever_released.insert(name);
            released.push((l, name));
        }

        // 2. Admission: the epoch admits the backlog's head, up to the
        // free capacity. The cohort stays queued until the epoch ends.
        let free = self.capacity - self.assigned.len();
        let admit = free.min(self.pending.len());
        let admitted: Vec<Label> = self.pending.iter().take(admit).copied().collect();
        let deferred = self.pending.len() - admit;

        // 3. One Balls-into-Leaves instance over the free names.
        let protocol = if admitted.is_empty() {
            None
        } else {
            let holders: Vec<(Label, Name)> = self.holders().collect();
            Some(EpochBil::new(self.options.config, self.capacity, &holders)?)
        };
        self.in_flight = Some((epoch, admit));
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

    /// Stage 2b: folds the outcome of the run this shard detached for its
    /// in-flight epoch back in — decisions become grants, crashed
    /// contenders are dropped, the cohort leaves the backlog and the
    /// epoch counter advances. The caller has checked the outcome with
    /// [`RenamingService::awaits`].
    ///
    /// # Errors
    ///
    /// The run's error ([`ServiceError::Run`] / [`ServiceError::Stalled`])
    /// if it failed: the cohort stays at the *front* of the backlog in
    /// its original FIFO order (ahead of anything staged while the epoch
    /// was in flight), and the epoch counter stays put.
    pub(crate) fn finish_epoch(
        &mut self,
        outcome: EpochOutcome,
    ) -> Result<EpochReport, ServiceError> {
        debug_assert!(self.awaits(&outcome), "complete checks every outcome");
        let (epoch, admit) = self.in_flight.take().expect("an epoch in flight");
        let run = outcome.result?;
        let admitted: Vec<Label> = self.pending.drain(..admit).collect();

        // Decisions become grants; the crashed are dropped.
        let mut granted = Vec::new();
        let mut crashed = Vec::new();
        if let Some(report) = &run {
            debug_assert_eq!(report.labels, admitted, "the run's cohort");
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
        Ok(EpochReport {
            epoch,
            admitted,
            deferred: outcome.deferred,
            granted,
            crashed,
            released: outcome.released,
            recycled,
            density: self.density(),
            rounds: run.as_ref().map_or(0, |r| r.rounds),
            run,
        })
    }

    /// Whether `outcome` comes from the run this shard detached for its
    /// in-flight epoch: the same epoch and the same seed tree.
    pub(crate) fn awaits(&self, outcome: &EpochOutcome) -> bool {
        self.in_flight()
            .is_some_and(|e| e == outcome.epoch && self.seeds.epoch(e) == outcome.seeds)
    }

    /// Whether a release for `label` may be staged: the label holds a
    /// name here and no release for it is staged yet. A label admitted
    /// into the in-flight epoch holds nothing until the epoch completes.
    pub(crate) fn validate_release(&self, label: Label) -> Result<(), ServiceError> {
        if self.staged_releases.contains(&label) {
            return Err(ServiceError::DuplicateRequest(label));
        }
        if !self.assigned.contains_key(&label) {
            return Err(ServiceError::UnknownHolder(label));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    //! The engine's contracts, driven through a one-shard front end: the
    //! standalone service. With one shard, global names are shard-local
    //! names and `report.shards[0]` is the shard's own report.

    use super::*;
    use crate::error::ShardError;
    use crate::sharded::{ShardedOptions, ShardedService};
    use bil_runtime::adversary::{NoFailures, RandomCrash};
    use bil_runtime::RunError;
    use bil_tree::MAX_LEAVES;

    fn acquires(range: std::ops::Range<u64>) -> Vec<Request> {
        range.map(|i| Request::Acquire(Label(i))).collect()
    }

    fn one_shard(capacity: usize, seed: u64, shard: ServiceOptions) -> ShardedService {
        let options = ShardedOptions {
            shard,
            concurrent: false,
        };
        ShardedService::new(capacity, 1, seed, options).unwrap()
    }

    #[test]
    fn construction_validates_capacity() {
        assert!(matches!(
            ShardedService::new(0, 1, 1, ShardedOptions::default()),
            Err(ShardError::BadPartition { .. })
        ));
        assert!(matches!(
            ShardedService::new(MAX_LEAVES + 1, 1, 1, ShardedOptions::default()),
            Err(ShardError::Shard {
                shard: 0,
                source: ServiceError::BadCapacity(_)
            })
        ));
        let svc = one_shard(16, 1, ServiceOptions::default());
        assert_eq!(svc.capacity(), 16);
        assert_eq!(svc.shard(0).capacity(), 16);
        assert_eq!(svc.held(), 0);
        assert_eq!(svc.density(), 0.0);
    }

    #[test]
    fn grants_are_unique_and_within_namespace() {
        let mut svc = one_shard(8, 7, ServiceOptions::default());
        let report = svc.step(&acquires(0..8)).unwrap();
        assert_eq!(report.granted.len(), 8);
        assert_eq!(report.shards[0].as_ref().unwrap().density, 1.0);
        let mut names: Vec<u32> = report.granted.iter().map(|(_, n)| n.0).collect();
        names.sort_unstable();
        assert_eq!(names, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn released_names_are_recycled() {
        let mut svc = one_shard(4, 3, ServiceOptions::default());
        svc.step(&acquires(0..4)).unwrap().shards[0]
            .as_ref()
            .unwrap();
        let freed = svc.name_of(Label(2)).unwrap();
        let e1 = svc.step(&[Request::Release(Label(2))]).unwrap();
        assert_eq!(e1.released, vec![(Label(2), freed)]);
        assert_eq!(
            e1.shards[0].as_ref().unwrap().rounds,
            0,
            "no contenders, no protocol run"
        );
        // The only free name is the freed one: the next acquire must
        // recycle it.
        let e2 = svc.step(&[Request::Acquire(Label(99))]).unwrap();
        e2.shards[0].as_ref().unwrap();
        assert_eq!(e2.granted, vec![(Label(99), freed)]);
        assert_eq!(e2.recycled, vec![freed]);
    }

    #[test]
    fn admission_control_defers_beyond_capacity() {
        let mut svc = one_shard(4, 5, ServiceOptions::default());
        let e0 = svc.step(&acquires(0..6)).unwrap();
        let e0 = e0.shards[0].as_ref().unwrap();
        assert_eq!(e0.admitted.len(), 4);
        assert_eq!(e0.deferred, 2);
        assert_eq!(svc.backlog(), 2);
        // No capacity: the next epoch admits nobody.
        let e1 = svc.step(&[]).unwrap();
        let e1 = e1.shards[0].as_ref().unwrap();
        assert!(e1.admitted.is_empty());
        assert_eq!(e1.deferred, 2);
        // A release lets the backlog drain FIFO.
        let e2 = svc.step(&[Request::Release(Label(0))]).unwrap();
        let e2 = e2.shards[0].as_ref().unwrap();
        assert_eq!(e2.admitted, vec![Label(4)]);
        assert_eq!(e2.deferred, 1);
    }

    #[test]
    fn validation_rejects_bad_batches_without_state_changes() {
        let mut svc = one_shard(4, 1, ServiceOptions::default());
        svc.step(&acquires(0..2)).unwrap().shards[0]
            .as_ref()
            .unwrap();
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
            assert_eq!(svc.step(&batch).unwrap_err(), ShardError::Request(want));
            assert_eq!(svc.held(), held, "state must be untouched");
        }
        // Queued duplicates are rejected too.
        let mut full = one_shard(2, 1, ServiceOptions::default());
        full.step(&acquires(0..2)).unwrap().shards[0]
            .as_ref()
            .unwrap();
        full.step(&[Request::Acquire(Label(7))]).unwrap().shards[0]
            .as_ref()
            .unwrap();
        assert_eq!(
            full.step(&[Request::Acquire(Label(7))]).unwrap_err(),
            ShardError::Request(ServiceError::AlreadyQueued(Label(7)))
        );
    }

    #[test]
    fn crashed_contenders_are_dropped_not_granted() {
        let mut svc = one_shard(16, 11, ServiceOptions::default());
        let report = svc
            .step_against(&acquires(0..12), |_| {
                RandomCrash::new(4, 0.9, SeedTree::new(11).adversary_rng())
            })
            .unwrap();
        report.shards[0].as_ref().unwrap();
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
        let mut svc = one_shard(16, 23, ServiceOptions::default());
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
            let report = svc
                .step_against(&batch, |_| {
                    RandomCrash::new(2, 0.5, SeedTree::new(epoch).adversary_rng())
                })
                .unwrap();
            report.shards[0].as_ref().unwrap();
            // Invariant: held names are unique and within the namespace.
            let mut names: Vec<Name> = svc.holders().map(|(_, n)| n).collect();
            names.sort_unstable();
            let mut dedup = names.clone();
            dedup.dedup();
            assert_eq!(names.len(), dedup.len(), "epoch {epoch}");
            assert!(names.iter().all(|n| (n.0 as usize) < svc.capacity()));
        }
        assert!(svc.epoch() == 24);
        // Every shard epoch succeeded: a failed one leaves the shard's
        // counter behind the front end's.
        assert_eq!(svc.shard(0).epoch(), 24);
    }

    #[test]
    fn pipelined_stages_equal_one_call_steps() {
        // Drive the same request stream through (a) plain `step` calls
        // and (b) the two-stage API with epoch k+1's batch submitted
        // while epoch k is detached (admitted but not yet completed).
        // Reports must be identical. Batch k+1 is staged while epoch k
        // is in flight, so releases may only target holders committed
        // at least one epoch earlier (batch 2 releases an epoch-0 grant,
        // never an epoch-1 one).
        let batches: Vec<Vec<Request>> = vec![
            acquires(0..5),
            acquires(10..12),
            vec![Request::Release(Label(1)), Request::Acquire(Label(20))],
            vec![Request::Release(Label(0)), Request::Release(Label(3))],
        ];
        let sequential = {
            let mut svc = one_shard(8, 41, ServiceOptions::default());
            batches
                .iter()
                .map(|b| svc.step(b).unwrap())
                .collect::<Vec<_>>()
        };
        let pipelined = {
            let mut svc = one_shard(8, 41, ServiceOptions::default());
            let mut reports = Vec::new();
            svc.submit(&batches[0]).unwrap();
            let mut runs = svc.begin().unwrap();
            for next in &batches[1..] {
                // Epoch k is in flight; stage epoch k+1's batch first.
                let outcomes = ShardedService::execute_all(runs, vec![NoFailures], false);
                svc.submit(next).unwrap();
                reports.push(svc.complete(outcomes).unwrap());
                runs = svc.begin().unwrap();
            }
            let outcomes = ShardedService::execute_all(runs, vec![NoFailures], false);
            reports.push(svc.complete(outcomes).unwrap());
            reports
        };
        for report in sequential.iter().chain(&pipelined) {
            assert!(
                report.shards[0].is_ok(),
                "epoch {}: {:?}",
                report.epoch,
                report.shards[0]
            );
        }
        assert_eq!(sequential, pipelined);
    }

    #[test]
    fn stage_one_rejects_requests_racing_the_in_flight_epoch() {
        let mut svc = one_shard(8, 13, ServiceOptions::default());
        svc.step(&acquires(0..2)).unwrap().shards[0]
            .as_ref()
            .unwrap();
        svc.submit(&acquires(2..4)).unwrap();
        assert_eq!(svc.backlog(), 2);
        let runs = svc.begin().unwrap();
        assert_eq!(runs[0].admitted(), &[Label(2), Label(3)]);
        // The in-flight cohort heads the shard's queue but is not backlog.
        assert_eq!(svc.backlog(), 0);
        assert_eq!(svc.shard(0).backlog(), 0);
        // An acquire for an admitted contender races the run.
        assert_eq!(
            svc.submit(&[Request::Acquire(Label(2))]).unwrap_err(),
            ShardError::Request(ServiceError::AlreadyQueued(Label(2)))
        );
        // A release for one too: its grant is not committed yet.
        assert_eq!(
            svc.submit(&[Request::Release(Label(3))]).unwrap_err(),
            ShardError::Request(ServiceError::UnknownHolder(Label(3)))
        );
        // A release for a committed holder is fine mid-flight, but
        // staging it twice is a duplicate.
        svc.submit(&[Request::Release(Label(0))]).unwrap();
        assert_eq!(
            svc.submit(&[Request::Release(Label(0))]).unwrap_err(),
            ShardError::Request(ServiceError::DuplicateRequest(Label(0)))
        );
        // A mid-flight arrival queues behind the cohort.
        svc.submit(&acquires(4..5)).unwrap();
        assert_eq!(svc.backlog(), 1);
        let outcomes = ShardedService::execute_all(runs, vec![NoFailures], false);
        svc.complete(outcomes).unwrap().shards[0].as_ref().unwrap();
        assert_eq!(svc.held(), 4);
        assert_eq!(svc.backlog(), 1);
    }

    #[test]
    fn pipeline_misuse_is_rejected() {
        let mut svc = one_shard(8, 17, ServiceOptions::default());
        svc.submit(&acquires(0..2)).unwrap();
        let runs = svc.begin().unwrap();
        // A second begin while epoch 0 is in flight.
        assert_eq!(
            svc.begin().unwrap_err(),
            ShardError::Pipeline { in_flight: true }
        );
        // Another service's epoch-0 outcome: only the run this service
        // detached may finish its epoch.
        let mut other = one_shard(8, 18, ServiceOptions::default());
        other.submit(&acquires(0..2)).unwrap();
        let foreign = ShardedService::execute_all(other.begin().unwrap(), vec![NoFailures], false);
        let rejected = svc.complete(foreign).unwrap_err();
        assert_eq!(rejected.error, ShardError::Pipeline { in_flight: true });
        assert_eq!(svc.held(), 0);
        let outcomes = ShardedService::execute_all(runs, vec![NoFailures], false);
        // Each outcome goes to the service it belongs to, the refused
        // one included: it came back untouched.
        other.complete(rejected.outcomes).unwrap().shards[0]
            .as_ref()
            .unwrap();
        assert_eq!(other.held(), 2);
        svc.complete(outcomes).unwrap().shards[0].as_ref().unwrap();
        // Completing with no epoch in flight.
        svc.submit(&acquires(2..4)).unwrap();
        let runs = svc.begin().unwrap();
        let outcomes = ShardedService::execute_all(runs, vec![NoFailures], false);
        svc.complete(outcomes).unwrap().shards[0].as_ref().unwrap();
        let stale = {
            let mut other = one_shard(8, 17, ServiceOptions::default());
            other.submit(&acquires(50..51)).unwrap();
            ShardedService::execute_all(other.begin().unwrap(), vec![NoFailures], false)
        };
        assert_eq!(
            svc.complete(stale).unwrap_err().error,
            ShardError::Pipeline { in_flight: false }
        );
    }

    #[test]
    fn run_failure_requeues_cohort_in_fifo_order_ahead_of_later_arrivals() {
        // Regression: contenders left queued by a mid-epoch executor
        // failure (`ServiceError::Run`) must be re-admitted in their
        // original FIFO order, ahead of acquires that arrived while the
        // failed epoch was in flight — not interleaved behind them.
        let mut svc = one_shard(8, 29, ServiceOptions::default());
        svc.submit(&acquires(0..3)).unwrap();
        let mut runs = svc.begin().unwrap();
        let run = runs.pop().unwrap();
        let epoch = run.epoch();
        assert_eq!(run.admitted(), &[Label(0), Label(1), Label(2)]);
        assert_eq!(svc.backlog(), 0, "the cohort in flight is not backlog");
        // Later arrivals land in stage 1 while the epoch is in flight.
        svc.submit(&acquires(10..12)).unwrap();
        assert_eq!(svc.backlog(), 2);
        // The executor dies mid-epoch: fabricate the failed outcome the
        // (detached) run would have produced on, say, a socket I/O
        // error.
        let source = RunError::Io {
            context: "test-injected failure",
            detail: "connection reset".into(),
        };
        let failed = EpochOutcome {
            epoch,
            deferred: 0,
            released: Vec::new(),
            seeds: run.seeds,
            result: Err(ServiceError::Run {
                epoch,
                source: source.clone(),
            }),
        };
        let report = svc.complete(vec![failed]).unwrap();
        assert_eq!(report.shards[0], Err(ServiceError::Run { epoch, source }));
        // The cohort is backlog again, ahead of the later arrivals.
        assert_eq!(svc.backlog(), 5);
        // The shard's epoch counter did not advance, and the retry admits
        // the original cohort first, in order, then the later arrivals.
        assert_eq!(svc.shard(0).epoch(), epoch);
        let retry = svc.step(&[]).unwrap();
        let retry = retry.shards[0].as_ref().unwrap();
        assert_eq!(retry.epoch, epoch);
        assert_eq!(
            retry.admitted,
            vec![Label(0), Label(1), Label(2), Label(10), Label(11)]
        );
    }

    #[test]
    fn stall_requeues_cohort_in_fifo_order_through_public_api() {
        // Same fidelity contract, exercised end-to-end: a round limit of
        // 1 cannot complete an 8-contender epoch, so the shard's epoch
        // fails with `Stalled` and the cohort stays at the front.
        let options = ServiceOptions {
            max_rounds: Some(1),
            ..ServiceOptions::default()
        };
        let mut svc = one_shard(16, 31, options);
        let report = svc.step(&acquires(0..8)).unwrap();
        assert_eq!(report.shards[0], Err(ServiceError::Stalled { epoch: 0 }));
        assert_eq!(svc.backlog(), 8);
        // The limit is per service, so the retry stalls again; submit
        // later arrivals first and check admission order on the stalled
        // service.
        let report = svc.step(&acquires(20..22)).unwrap();
        assert_eq!(report.shards[0], Err(ServiceError::Stalled { epoch: 0 }));
        assert_eq!(svc.backlog(), 10);
        // Original cohort still heads the queue, later arrivals behind.
        let runs = svc.begin().unwrap();
        assert_eq!(svc.backlog(), 0, "all ten are in flight");
        let admitted = runs[0].admitted().to_vec();
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
