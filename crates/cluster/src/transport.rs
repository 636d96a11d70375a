//! The [`Transport`] trait and the in-process loopback implementation.
//!
//! A transport is one bidirectional channel of length-prefixed frames
//! ([`crate::wire`]) between two ends: a coordinator and one worker, or
//! a serve client and the server. It moves whole frames and nothing
//! else. A backend implements three methods: [`Transport::send_frames`],
//! [`Transport::recv_frame`] and [`Transport::has_buffered_frame`]. The
//! cluster's message calls ([`Transport::send`],
//! [`Transport::send_all`] and [`Transport::recv`]) are provided on top
//! of them through [`wire`], so every backend and every wrapper shares
//! one codec path; `bdb-serve` runs its own payload codec over the same
//! frames. Implementations are shared across threads (`&self` methods,
//! `Send + Sync`), because the coordinator reads each worker's stream
//! from a dedicated thread while the scheduler thread writes
//! assignments.
//!
//! The loopback transport carries *encoded frames* through in-memory
//! channels, not `Message` values, so tests over loopback exercise the
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

/// One bidirectional channel of length-prefixed frames. See the module
/// docs.
pub trait Transport: Send + Sync {
    /// Sends whole frames ([`wire::encode_frame`] or
    /// [`wire::encode_payload_frame`] output), in order, as one write
    /// where the backend can. `Err(Closed)` once the peer is gone.
    fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError>;

    /// Receives the next frame's payload. With `None` it blocks until a
    /// frame arrives or the peer closes (`Err(Closed)`); with
    /// `Some(timeout)` it returns `Ok(None)` if no frame started in time.
    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError>;

    /// Whether a whole frame is already buffered on this side, so the
    /// next receive returns without waiting on the peer. `false` is
    /// always safe: it only stops a worker from holding its replies back
    /// to send them together.
    fn has_buffered_frame(&self) -> bool;

    /// Sends one message.
    fn send(&self, msg: &Message) -> Result<(), TransportError> {
        self.send_all(std::slice::from_ref(msg))
    }

    /// Sends `msgs` in order with one [`Transport::send_frames`].
    fn send_all(&self, msgs: &[Message]) -> Result<(), TransportError> {
        self.send_frames(msgs.iter().map(wire::encode_frame).collect())
    }

    /// Receives the next message, blocking until one arrives or the peer
    /// closes (`Err(Closed)`).
    fn recv(&self) -> Result<Message, TransportError> {
        let payload = self.recv_frame(None)?.ok_or(TransportError::Closed)?;
        wire::decode_message(&payload).map_err(TransportError::from)
    }
}

/// Locks with poison recovery: a panicked peer thread must not cascade
/// into every later send/recv (the data under these mutexes is a plain
/// frame queue, consistent at every await point).
pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// In-process transport end carrying encoded frames over channels.
pub struct LoopbackTransport {
    tx: Sender<Vec<u8>>,
    rx: Mutex<Receiver<Vec<u8>>>,
}

/// A connected pair of loopback ends: `(coordinator_end, worker_end)`.
pub fn loopback_pair() -> (LoopbackTransport, LoopbackTransport) {
    let (a_tx, a_rx) = channel();
    let (b_tx, b_rx) = channel();
    (
        LoopbackTransport {
            tx: a_tx,
            rx: Mutex::new(b_rx),
        },
        LoopbackTransport {
            tx: b_tx,
            rx: Mutex::new(a_rx),
        },
    )
}

impl Transport for LoopbackTransport {
    fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        frames
            .into_iter()
            .try_for_each(|frame| self.tx.send(frame))
            .map_err(|_| TransportError::Closed)
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError> {
        let rx = lock(&self.rx);
        let frame = match timeout {
            None => rx.recv().map_err(|_| TransportError::Closed)?,
            Some(timeout) => match rx.recv_timeout(timeout) {
                Ok(frame) => frame,
                Err(RecvTimeoutError::Timeout) => return Ok(None),
                Err(RecvTimeoutError::Disconnected) => return Err(TransportError::Closed),
            },
        };
        match wire::read_frame_payload(&mut &frame[..])? {
            Some(payload) => Ok(Some(payload)),
            None => Err(TransportError::Protocol("empty frame".to_owned())),
        }
    }

    /// A channel cannot be looked into without taking the frame, so a
    /// loopback worker never holds its replies.
    fn has_buffered_frame(&self) -> bool {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PROTOCOL_VERSION;

    #[test]
    fn loopback_delivers_in_order_and_closes() {
        let (coord, worker) = loopback_pair();
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
    fn timed_recv_returns_none_when_idle() {
        let (coord, _worker) = loopback_pair();
        assert!(matches!(
            coord.recv_frame(Some(Duration::from_millis(5))),
            Ok(None)
        ));
    }
}
