//! Structured execution errors.
//!
//! The in-memory executors are infallible once configured, but the wire
//! executors ([`crate::threaded`], [`crate::socket`]) move encoded bytes
//! across OS boundaries where things genuinely go wrong: a frame can be
//! malformed, a worker can disconnect, a socket read can time out.
//! Historically those paths `expect`ed inside worker threads, turning any
//! wire problem into a cross-thread panic; [`RunError`] makes them
//! ordinary values that propagate to the driver instead.

use std::error::Error;
use std::fmt;

use crate::ids::Label;
use crate::pipeline::ConfigError;
use crate::wire::WireError;

/// An executor failed to carry a run to completion.
///
/// Returned by [`crate::exec::ExecutorKind::run`] and by
/// [`crate::pipeline::RoundPipeline::run`]. Past configuration, only the
/// wire executors ([`crate::threaded`], [`crate::socket`]) produce one;
/// the in-memory transports never do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Invalid executor construction (empty system, duplicate labels).
    Config(ConfigError),
    /// A protocol message failed to decode from its wire bytes.
    Decode {
        /// The sender whose message was malformed, when known.
        sender: Option<Label>,
        /// What the codec rejected.
        error: WireError,
    },
    /// The framing layer rejected a length-prefixed frame.
    Frame {
        /// Where in the executor the frame was being read.
        context: &'static str,
        /// What the framing decoder rejected.
        error: WireError,
    },
    /// A worker hung up mid-run (channel closed, stream at EOF).
    Disconnected {
        /// Where in the executor the hangup surfaced.
        context: &'static str,
        /// The index of the worker that disconnected.
        worker: usize,
    },
    /// Socket-level I/O failure (bind, connect, read, write, timeout).
    Io {
        /// The operation that failed.
        context: &'static str,
        /// The underlying I/O error, rendered.
        detail: String,
    },
    /// A worker answered out of protocol (wrong response kind, unknown
    /// worker id, duplicate handshake).
    Protocol {
        /// Where the violation was detected.
        context: &'static str,
        /// What was wrong.
        detail: String,
    },
}

impl RunError {
    /// A [`RunError::Decode`] for a message from `sender`.
    pub fn decode(sender: Label, error: WireError) -> Self {
        RunError::Decode {
            sender: Some(sender),
            error,
        }
    }

    /// A [`RunError::Io`] wrapping a [`std::io::Error`].
    pub fn io(context: &'static str, error: &std::io::Error) -> Self {
        RunError::Io {
            context,
            detail: error.to_string(),
        }
    }
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Config(e) => write!(f, "invalid configuration: {e}"),
            RunError::Decode {
                sender: Some(l),
                error,
            } => {
                write!(f, "malformed wire message from {l}: {error}")
            }
            RunError::Decode {
                sender: None,
                error,
            } => write!(f, "malformed wire message: {error}"),
            RunError::Frame { context, error } => write!(f, "bad frame while {context}: {error}"),
            RunError::Disconnected { context, worker } => {
                write!(f, "worker {worker} disconnected while {context}")
            }
            RunError::Io { context, detail } => write!(f, "i/o failure while {context}: {detail}"),
            RunError::Protocol { context, detail } => {
                write!(f, "protocol violation while {context}: {detail}")
            }
        }
    }
}

impl Error for RunError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RunError::Config(e) => Some(e),
            RunError::Decode { error, .. } | RunError::Frame { error, .. } => Some(error),
            _ => None,
        }
    }
}

impl From<ConfigError> for RunError {
    fn from(e: ConfigError) -> Self {
        RunError::Config(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_specific() {
        let cases = [
            RunError::Config(ConfigError::EmptySystem),
            RunError::decode(Label(7), WireError::UnexpectedEnd),
            RunError::Decode {
                sender: None,
                error: WireError::VarintOverflow,
            },
            RunError::Frame {
                context: "reading a response",
                error: WireError::LengthOverflow(9),
            },
            RunError::Disconnected {
                context: "composing",
                worker: 3,
            },
            RunError::Io {
                context: "connecting",
                detail: "refused".into(),
            },
            RunError::Protocol {
                context: "handshake",
                detail: "duplicate worker id".into(),
            },
        ];
        for e in cases {
            assert!(!e.to_string().is_empty());
        }
        assert!(RunError::decode(Label(7), WireError::UnexpectedEnd)
            .to_string()
            .contains('7'));
    }

    #[test]
    fn config_errors_convert() {
        let e: RunError = ConfigError::DuplicateLabel(Label(3)).into();
        assert_eq!(e, RunError::Config(ConfigError::DuplicateLabel(Label(3))));
    }

    #[test]
    fn sources_are_exposed() {
        use std::error::Error as _;
        assert!(RunError::Config(ConfigError::EmptySystem)
            .source()
            .is_some());
        assert!(RunError::decode(Label(0), WireError::UnexpectedEnd)
            .source()
            .is_some());
        assert!(RunError::Disconnected {
            context: "x",
            worker: 0
        }
        .source()
        .is_none());
    }
}
