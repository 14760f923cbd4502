//! Epoch building blocks: requests, options, reports, and the detached
//! protocol run that makes epoch pipelining possible.
//!
//! The per-shard engine's two-stage admission queue (see
//! [`crate::RenamingService`]) splits an epoch into *admission* (decide
//! the cohort, apply releases — cheap, needs `&mut` service) and
//! *execution* (run the Balls-into-Leaves rounds — expensive, needs no
//! service access at all). [`EpochRun`] is the detached execution half:
//! it owns the protocol instance, the admitted cohort, and the epoch's
//! derived seeds, so it can run on another thread while the service
//! stages the next epoch's batch.

use bil_core::{BilConfig, BilMsg, EpochBil};
use bil_runtime::adversary::Adversary;
use bil_runtime::engine::EngineOptions;
use bil_runtime::socket::SocketOptions;
use bil_runtime::{ExecutorKind, Label, Name, RunReport, SeedTree};

use crate::error::ServiceError;

/// One client request, as batched into epochs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Request {
    /// Acquire a name for this (globally unique) client label.
    Acquire(Label),
    /// Release the name this label currently holds.
    Release(Label),
}

/// Service tuning: protocol variant, executor, and per-epoch limits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceOptions {
    /// The Balls-into-Leaves variant every epoch runs.
    pub config: BilConfig,
    /// Which of the five bit-identical executors carries each epoch's
    /// rounds.
    pub executor: ExecutorKind,
    /// Per-epoch round cap; `None` picks the engine default (`8n + 64`
    /// for `n` admitted contenders).
    pub max_rounds: Option<u64>,
    /// Worker count of the wire executors ([`ExecutorKind::Threaded`]
    /// and [`ExecutorKind::Socket`]; `None` picks `min(parallelism, n)`);
    /// reports are independent of this.
    pub socket_workers: Option<usize>,
}

/// What one epoch did. Bit-identical across executors for the same
/// service history (the embedded [`RunReport`] included).
#[derive(Debug, Clone, PartialEq)]
pub struct EpochReport {
    /// The epoch index.
    pub epoch: u64,
    /// Contenders admitted into this epoch's protocol run, in admission
    /// (FIFO backlog) order.
    pub admitted: Vec<Label>,
    /// Acquires still queued after admission (beyond free capacity).
    pub deferred: usize,
    /// `(label, name)` grants decided this epoch.
    pub granted: Vec<(Label, Name)>,
    /// Admitted contenders crashed by the adversary; their requests die
    /// with them.
    pub crashed: Vec<Label>,
    /// `(label, name)` pairs released at the top of this epoch.
    pub released: Vec<(Label, Name)>,
    /// Granted names that previous holders had released — recycled
    /// capacity, the observable core of long-lived renaming.
    pub recycled: Vec<Name>,
    /// Fraction of the namespace held after this epoch.
    pub density: f64,
    /// Rounds the protocol run took (0 for an epoch with no admissions).
    pub rounds: u64,
    /// The underlying protocol run, if one happened.
    pub run: Option<RunReport>,
}

/// Stage 2a of a pipelined epoch: an admitted cohort with its protocol
/// instance and derived seeds, detached from the service.
///
/// Produced by [`crate::RenamingService::begin_epoch`]; consumed by
/// [`EpochRun::execute`], which may run on any thread — it borrows
/// nothing from the service, so the service is free to
/// [`crate::RenamingService::enqueue`] the next epoch's batch while the
/// rounds run.
#[derive(Debug)]
pub struct EpochRun {
    pub(crate) epoch: u64,
    pub(crate) admitted: Vec<Label>,
    pub(crate) deferred: usize,
    pub(crate) released: Vec<(Label, Name)>,
    /// `None` for an epoch with no admissions (nothing to run).
    pub(crate) protocol: Option<EpochBil>,
    pub(crate) seeds: SeedTree,
    pub(crate) options: ServiceOptions,
}

impl EpochRun {
    /// The epoch this run belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The admitted cohort, in admission (FIFO backlog) order.
    pub fn admitted(&self) -> &[Label] {
        &self.admitted
    }

    /// Stage 2b: carries the epoch's rounds on the configured executor
    /// against `adversary`. Infallible by design — failures are folded
    /// into the returned [`EpochOutcome`] so the service can restore its
    /// queue state in [`crate::RenamingService::finish_epoch`].
    pub fn execute<A: Adversary<BilMsg>>(self, adversary: A) -> EpochOutcome {
        let EpochRun {
            epoch,
            admitted,
            deferred,
            released,
            protocol,
            seeds,
            options,
        } = self;
        let result = match protocol {
            None => Ok(None),
            Some(protocol) => {
                let engine_options = EngineOptions {
                    max_rounds: options.max_rounds,
                    wire: SocketOptions {
                        workers: options.socket_workers,
                        ..SocketOptions::default()
                    },
                };
                match options.executor.run(
                    protocol,
                    admitted.clone(),
                    adversary,
                    seeds,
                    engine_options,
                ) {
                    Ok(report) if report.completed() => Ok(Some(report)),
                    Ok(_) => Err(ServiceError::Stalled { epoch }),
                    Err(source) => Err(ServiceError::Run { epoch, source }),
                }
            }
        };
        EpochOutcome {
            epoch,
            admitted,
            deferred,
            released,
            seeds,
            result,
        }
    }
}

/// A finished (or failed) epoch execution, ready to be folded back into
/// the service by [`crate::RenamingService::finish_epoch`].
#[derive(Debug)]
pub struct EpochOutcome {
    pub(crate) epoch: u64,
    pub(crate) admitted: Vec<Label>,
    pub(crate) deferred: usize,
    pub(crate) released: Vec<(Label, Name)>,
    /// The run's seed tree, re-derived from the service's root seed per
    /// epoch: it ties the outcome to the service and epoch that detached
    /// the run.
    pub(crate) seeds: SeedTree,
    /// `Ok(None)`: an epoch with no admissions. `Ok(Some(report))`: the
    /// protocol ran to completion. `Err`: the executor failed or
    /// stalled; the cohort must be re-queued.
    pub(crate) result: Result<Option<RunReport>, ServiceError>,
}

impl EpochOutcome {
    /// The epoch this outcome belongs to.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether the epoch's protocol run failed (executor error or round
    /// limit); the admitted cohort will be re-queued by
    /// [`crate::RenamingService::finish_epoch`].
    pub fn failed(&self) -> bool {
        self.result.is_err()
    }
}
