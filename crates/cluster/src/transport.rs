//! The [`Transport`] abstraction and the in-process loopback
//! implementation.
//!
//! A transport is one bidirectional message channel between the
//! coordinator and a single worker. Implementations are shared across
//! threads (`&self` methods, `Send + Sync`), because the coordinator
//! reads each worker's stream from a dedicated thread while the
//! scheduler thread writes assignments.
//!
//! The loopback transport carries *encoded frames* through in-memory
//! channels — not `Message` values — so tests over loopback exercise the
//! exact same codec bytes as TCP; only the socket is skipped.

use crate::proto::Message;
use crate::wire::{self, WireError};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// A transport-level failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// The peer is gone (clean close, crash, or injected drop).
    Closed,
    /// An I/O error on the underlying stream.
    Io(String),
    /// The stream carried bytes that do not decode as protocol frames.
    Protocol(String),
}

impl std::fmt::Display for TransportError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TransportError::Closed => write!(f, "peer closed the connection"),
            TransportError::Io(e) => write!(f, "transport I/O error: {e}"),
            TransportError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<WireError> for TransportError {
    fn from(e: WireError) -> Self {
        match e {
            WireError::Io(io) => TransportError::Io(io),
            other => TransportError::Protocol(other.to_string()),
        }
    }
}

/// One coordinator↔worker message channel. See the module docs.
pub trait Transport: Send + Sync {
    /// Sends one message. `Err(Closed)` once the peer is gone.
    fn send(&self, msg: &Message) -> Result<(), TransportError>;

    /// Sends `msgs` in order, exactly as one [`Transport::send`] each
    /// would, and stops at the first failure. The default does just that,
    /// so wrappers keep per-frame accounting; a stream transport
    /// overrides it to put the frames on the wire in one write.
    fn send_all(&self, msgs: &[Message]) -> Result<(), TransportError> {
        msgs.iter().try_for_each(|msg| self.send(msg))
    }

    /// Receives the next message, blocking until one arrives or the peer
    /// closes (`Err(Closed)`).
    fn recv(&self) -> Result<Message, TransportError>;

    /// Whether a whole frame is already buffered on this side, so the
    /// next [`Transport::recv`] returns without waiting on the peer. The
    /// default, `false`, is always safe: it only stops a worker from
    /// holding its replies back to send them together.
    fn has_buffered_frame(&self) -> bool {
        false
    }

    /// Receives with a timeout: `Ok(None)` if nothing arrived in time.
    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError>;

    /// Human-readable peer description for diagnostics.
    fn peer(&self) -> String;
}

/// The payload-level half of a transport: one bidirectional channel of
/// length-prefixed raw frames, with the message codec left to the
/// caller. `bdb-serve` runs its own protocol over this, so the loopback
/// and TCP implementations (and their framing, size cap, and
/// close/timeout semantics) are shared between the cluster and serve
/// protocols instead of duplicated.
pub trait FrameTransport: Send + Sync {
    /// Sends one raw payload as a frame. `Err(Closed)` once the peer is
    /// gone.
    fn send_payload(&self, payload: &[u8]) -> Result<(), TransportError>;

    /// Receives the next frame's payload, blocking until one arrives or
    /// the peer closes (`Err(Closed)`).
    fn recv_payload(&self) -> Result<Vec<u8>, TransportError>;

    /// Receives with a timeout: `Ok(None)` if nothing arrived in time.
    fn recv_payload_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError>;

    /// Human-readable peer description for diagnostics.
    fn peer_label(&self) -> String;
}

/// Locks with poison recovery: a panicked peer thread must not cascade
/// into every later send/recv (the data under these mutexes is a plain
/// frame queue, consistent at every await point).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-process transport end carrying encoded frames over channels.
pub struct LoopbackTransport {
    label: String,
    tx: Sender<Vec<u8>>,
    rx: Mutex<Receiver<Vec<u8>>>,
}

/// A connected pair of loopback ends: `(coordinator_end, worker_end)`.
pub fn loopback_pair(label: &str) -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, a_rx) = channel();
    let (b_tx, b_rx) = channel();
    (
        LoopbackTransport {
            label: format!("loopback:{label}:coordinator"),
            tx: a_tx,
            rx: Mutex::new(b_rx),
        },
        LoopbackTransport {
            label: format!("loopback:{label}:worker"),
            tx: b_tx,
            rx: Mutex::new(a_rx),
        },
    )
}

impl LoopbackTransport {
    fn decode(frame: &[u8]) -> Result<Message, TransportError> {
        match wire::read_frame(&mut &frame[..]) {
            Ok(Some(msg)) => Ok(msg),
            Ok(None) => Err(TransportError::Protocol("empty frame".to_owned())),
            Err(e) => Err(e.into()),
        }
    }

    fn unframe(frame: &[u8]) -> Result<Vec<u8>, TransportError> {
        match wire::read_frame_payload(&mut &frame[..]) {
            Ok(Some(payload)) => Ok(payload),
            Ok(None) => Err(TransportError::Protocol("empty frame".to_owned())),
            Err(e) => Err(e.into()),
        }
    }
}

impl FrameTransport for LoopbackTransport {
    fn send_payload(&self, payload: &[u8]) -> Result<(), TransportError> {
        self.tx
            .send(wire::encode_payload_frame(payload))
            .map_err(|_| TransportError::Closed)
    }

    fn recv_payload(&self) -> Result<Vec<u8>, TransportError> {
        let frame = lock(&self.rx).recv().map_err(|_| TransportError::Closed)?;
        Self::unframe(&frame)
    }

    fn recv_payload_timeout(&self, timeout: Duration) -> Result<Option<Vec<u8>>, TransportError> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(frame) => Self::unframe(&frame).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

impl Transport for LoopbackTransport {
    fn send(&self, msg: &Message) -> Result<(), TransportError> {
        self.tx
            .send(wire::encode_frame(msg))
            .map_err(|_| TransportError::Closed)
    }

    fn recv(&self) -> Result<Message, TransportError> {
        let frame = lock(&self.rx).recv().map_err(|_| TransportError::Closed)?;
        Self::decode(&frame)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        match lock(&self.rx).recv_timeout(timeout) {
            Ok(frame) => Self::decode(&frame).map(Some),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Closed),
        }
    }

    fn peer(&self) -> String {
        self.label.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PROTOCOL_VERSION;

    #[test]
    fn loopback_delivers_in_order_and_closes() {
        let (coord, worker) = loopback_pair("t");
        coord
            .send(&Message::Heartbeat { seq: 1 })
            .and_then(|()| coord.send(&Message::Bye))
            .unwrap();
        assert!(matches!(worker.recv(), Ok(Message::Heartbeat { seq: 1 })));
        assert!(matches!(worker.recv(), Ok(Message::Bye)));
        worker
            .send(&Message::Hello {
                worker: "w".to_owned(),
                protocol: PROTOCOL_VERSION,
                cached: Vec::new(),
            })
            .unwrap();
        drop(worker);
        assert!(matches!(coord.recv(), Ok(Message::Hello { .. })));
        assert!(matches!(coord.recv(), Err(TransportError::Closed)));
    }

    #[test]
    fn recv_timeout_returns_none_when_idle() {
        let (coord, _worker) = loopback_pair("idle");
        assert!(matches!(
            coord.recv_timeout(Duration::from_millis(5)),
            Ok(None)
        ));
    }
}
