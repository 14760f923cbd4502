//! Service-layer errors: per-shard engine errors ([`ServiceError`]),
//! front-end errors, request validation included ([`ShardError`]), and
//! refused epoch outcomes handed back to their caller ([`Rejected`]).

use std::error::Error;
use std::fmt;

use bil_core::EpochError;
use bil_runtime::{Label, RunError};
use bil_tree::TreeError;

use crate::epoch::EpochOutcome;

/// A per-shard engine error: construction or epoch execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceError {
    /// The namespace size is not a valid tree.
    BadCapacity(TreeError),
    /// The epoch protocol instance rejected the service state — only
    /// reachable through a bug in the service's own bookkeeping.
    Epoch(EpochError),
    /// The executor failed mid-epoch (wire decode, socket I/O, …). The
    /// admitted contenders stay queued; the epoch may be retried.
    Run {
        /// The epoch that failed.
        epoch: u64,
        /// The executor's error.
        source: RunError,
    },
    /// The epoch hit its round limit before every contender decided — a
    /// liveness failure. The admitted contenders stay queued.
    Stalled {
        /// The epoch that stalled.
        epoch: u64,
    },
}

impl fmt::Display for ServiceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceError::BadCapacity(e) => write!(f, "invalid service capacity: {e}"),
            ServiceError::Epoch(e) => write!(f, "epoch construction rejected: {e}"),
            ServiceError::Run { epoch, source } => {
                write!(f, "executor failed in epoch {epoch}: {source}")
            }
            ServiceError::Stalled { epoch } => {
                write!(f, "epoch {epoch} hit its round limit before completing")
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

/// A front-end error; see [`crate::ShardedService`]. A request batch
/// that fails validation is rejected with one of `AlreadyHolding`,
/// `AlreadyQueued`, `UnknownHolder` or `DuplicateRequest` before any
/// state changes anywhere.
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
            ShardError::AlreadyHolding(l) => write!(
                f,
                "request rejected: label {l} already holds a name (release it first)"
            ),
            ShardError::AlreadyQueued(l) => {
                write!(f, "request rejected: label {l} is already queued")
            }
            ShardError::UnknownHolder(l) => write!(f, "request rejected: label {l} holds no name"),
            ShardError::DuplicateRequest(l) => write!(
                f,
                "request rejected: label {l} appears twice in one request batch"
            ),
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
            ShardError::Shard { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Epoch outcomes that [`crate::ShardedService::complete`] refused
/// before changing any state, handed back untouched beside the reason
/// so the caller can retry with the right ones. `error` is
/// [`ShardError::Pipeline`], and any epoch in flight stays in flight.
#[derive(Debug)]
pub struct Rejected {
    /// Why the outcomes were refused.
    pub error: ShardError,
    /// The refused outcomes, as passed in.
    pub outcomes: Vec<EpochOutcome>,
}

impl fmt::Display for Rejected {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.error.fmt(f)
    }
}

impl Error for Rejected {}

impl From<Rejected> for ShardError {
    fn from(rejected: Rejected) -> Self {
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
            ShardError::AlreadyHolding(Label(1)),
            ShardError::AlreadyQueued(Label(2)),
            ShardError::UnknownHolder(Label(3)),
            ShardError::DuplicateRequest(Label(4)),
        ] {
            assert!(!e.to_string().is_empty());
        }
        assert!(!ServiceError::Stalled { epoch: 5 }.to_string().is_empty());
    }

    #[test]
    fn shard_error_display_and_source() {
        let shard = ShardError::Shard {
            shard: 3,
            source: ServiceError::Stalled { epoch: 7 },
        };
        assert!(shard.to_string().contains("shard 3"));
        assert!(shard.source().is_some());
        // A request error is one layer: it wraps no shard error.
        let request = ShardError::AlreadyQueued(Label(9));
        assert!(request.to_string().contains("rejected"));
        assert!(request.source().is_none());
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
