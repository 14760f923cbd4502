//! Service-layer errors: per-shard engine errors ([`ServiceError`]),
//! sharded front-end errors ([`ShardError`]), and refused epoch outcomes
//! handed back to their caller ([`Rejected`]).

use std::error::Error;
use std::fmt;

use bil_core::EpochError;
use bil_runtime::{Label, RunError};
use bil_tree::TreeError;

/// A per-shard engine error: construction, request validation, or epoch
/// execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The namespace size is not a valid tree.
    BadCapacity(TreeError),
    /// An acquire for a label that already holds a name (release it
    /// first; a release and re-acquire must be split across epochs).
    AlreadyHolding(Label),
    /// An acquire for a label that is already queued (or admitted into
    /// the in-flight epoch).
    AlreadyQueued(Label),
    /// A release for a label that holds no name (including labels whose
    /// acquire is still queued, in flight, or staged for release).
    UnknownHolder(Label),
    /// The same label appears twice in one request batch, or a release
    /// is staged twice before the next epoch begins.
    DuplicateRequest(Label),
    /// The epoch protocol instance rejected the service state — only
    /// reachable through a bug in the service's own bookkeeping.
    Epoch(EpochError),
    /// The executor failed mid-epoch (wire decode, socket I/O, …). The
    /// admitted contenders were re-queued; the epoch may be retried.
    Run {
        /// The epoch that failed.
        epoch: u64,
        /// The executor's error.
        source: RunError,
    },
    /// The epoch hit its round limit before every contender decided — a
    /// liveness failure. The admitted contenders were re-queued.
    Stalled {
        /// The epoch that stalled.
        epoch: u64,
    },
    /// A two-stage epoch call out of order: `begin_epoch` while an epoch
    /// is already in flight, or `finish_epoch` without (or against the
    /// wrong) in-flight epoch.
    Pipeline {
        /// The epoch in flight when the misordered call arrived, if any.
        in_flight: Option<u64>,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadCapacity(e) => write!(f, "invalid service capacity: {e}"),
            ServiceError::AlreadyHolding(l) => {
                write!(f, "label {l} already holds a name (release it first)")
            }
            ServiceError::AlreadyQueued(l) => write!(f, "label {l} is already queued"),
            ServiceError::UnknownHolder(l) => write!(f, "label {l} holds no name"),
            ServiceError::DuplicateRequest(l) => {
                write!(f, "label {l} appears twice in one request batch")
            }
            ServiceError::Epoch(e) => write!(f, "epoch construction rejected: {e}"),
            ServiceError::Run { epoch, source } => {
                write!(f, "executor failed in epoch {epoch}: {source}")
            }
            ServiceError::Stalled { epoch } => {
                write!(f, "epoch {epoch} hit its round limit before completing")
            }
            ServiceError::Pipeline { in_flight: Some(e) } => {
                write!(
                    f,
                    "pipelined epoch call out of order: epoch {e} is in flight"
                )
            }
            ServiceError::Pipeline { in_flight: None } => {
                write!(
                    f,
                    "pipelined epoch call out of order: no epoch is in flight"
                )
            }
        }
    }
}

impl Error for ServiceError {}

impl From<EpochError> for ServiceError {
    fn from(e: EpochError) -> Self {
        ServiceError::Epoch(e)
    }
}

/// A sharded front-end error; see [`crate::ShardedService`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// The namespace cannot be partitioned: zero shards, fewer names
    /// than shards, or more than `2^32` names (global names are `u32`).
    BadPartition {
        /// The requested namespace size.
        capacity: usize,
        /// The requested shard count.
        shards: usize,
    },
    /// A per-shard engine rejected construction or an epoch operation —
    /// past construction, only reachable through a front-end
    /// bookkeeping bug.
    Shard {
        /// The shard that failed.
        shard: usize,
        /// The per-shard engine's error.
        source: ServiceError,
    },
    /// A request batch failed front-end validation, before any state
    /// changed anywhere.
    Request(ServiceError),
    /// A two-stage front-end call out of order: `begin` while an epoch
    /// is in flight, or `complete` without one (or with outcomes that are
    /// not, shard by shard, the in-flight runs').
    Pipeline {
        /// Whether an epoch was in flight when the misordered call
        /// arrived.
        in_flight: bool,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::BadPartition { capacity, shards } => {
                write!(f, "cannot partition {capacity} names into {shards} shards")
            }
            ShardError::Shard { shard, source } => write!(f, "shard {shard}: {source}"),
            ShardError::Request(e) => write!(f, "request rejected: {e}"),
            ShardError::Pipeline { in_flight } => {
                write!(
                    f,
                    "sharded epoch call out of order (epoch in flight: {in_flight})"
                )
            }
        }
    }
}

impl Error for ShardError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            ShardError::Shard { source, .. } | ShardError::Request(source) => Some(source),
            _ => None,
        }
    }
}

/// Epoch outcomes that a completion call refused before changing any
/// state, handed back untouched beside the reason so the caller can
/// retry with the right ones. [`crate::ShardedService::complete`]
/// returns `Rejected<ShardError, Vec<EpochOutcome>>` and
/// [`crate::RenamingService::finish_epoch`] returns
/// `Rejected<ServiceError, Box<EpochOutcome>>`; either way `error` is the
/// `Pipeline` variant and the epoch stays in flight.
///
/// [`EpochOutcome`]: crate::EpochOutcome
#[derive(Debug)]
pub struct Rejected<E, T> {
    /// Why the outcomes were refused.
    pub error: E,
    /// The refused outcomes, as passed in.
    pub outcomes: T,
}

impl<E: fmt::Display, T> fmt::Display for Rejected<E, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl<E: Error, T: fmt::Debug> Error for Rejected<E, T> {}

impl<T> From<Rejected<ServiceError, T>> for ServiceError {
    fn from(rejected: Rejected<ServiceError, T>) -> Self {
        rejected.error
    }
}

impl<T> From<Rejected<ShardError, T>> for ShardError {
    fn from(rejected: Rejected<ShardError, T>) -> Self {
        rejected.error
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bil_runtime::Label;

    #[test]
    fn error_display() {
        for e in [
            ServiceError::AlreadyHolding(Label(1)),
            ServiceError::AlreadyQueued(Label(2)),
            ServiceError::UnknownHolder(Label(3)),
            ServiceError::DuplicateRequest(Label(4)),
            ServiceError::Stalled { epoch: 5 },
            ServiceError::Pipeline { in_flight: Some(6) },
            ServiceError::Pipeline { in_flight: None },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }

    #[test]
    fn shard_error_display_and_source() {
        let shard = ShardError::Shard {
            shard: 3,
            source: ServiceError::Stalled { epoch: 7 },
        };
        assert!(shard.to_string().contains("shard 3"));
        assert!(shard.source().is_some());
        let request = ShardError::Request(ServiceError::AlreadyQueued(Label(9)));
        assert!(request.to_string().contains("rejected"));
        assert!(request.source().is_some());
        for e in [
            ShardError::BadPartition {
                capacity: 3,
                shards: 5,
            },
            ShardError::Pipeline { in_flight: true },
        ] {
            assert!(!e.to_string().is_empty());
            assert!(e.source().is_none());
        }
    }
}
