//! Fault injection for cluster testing.
//!
//! A [`FaultPlan`] describes misbehaviour for one worker connection; a
//! [`FaultyTransport`] wraps any [`Transport`] and applies the plan to
//! each frame, so the coordinator under test sees exactly what a real
//! flaky worker would produce: dropped connections, delayed replies, and
//! duplicated Result frames. The frames of one send that survive the
//! plan go to the inner transport in one call, and the wrapper forwards
//! [`Transport::has_buffered_frame`], so a wrapped TCP session (every
//! `bdb-clusterd` session, even with a clean plan) still sends and
//! answers in bursts. Worker-process crashes (`crash_on_task`) are
//! enforced by the worker loop itself, which consults the plan before
//! running each task.

use crate::proto::Message;
use crate::transport::{Transport, TransportError};
use crate::wire;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Misbehaviour to inject on one worker connection. The default plan is
/// fault-free.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Drop the connection after this many frames have been sent
    /// (counting both directions through the wrapper).
    pub drop_after_frames: Option<u64>,
    /// Sleep this long before each outbound reply.
    pub delay_reply: Option<Duration>,
    /// Crash the worker process when it is assigned its k-th task
    /// (0-based count of Assign messages it has accepted).
    pub crash_on_task: Option<u64>,
    /// Leave cleanly (send `Bye`, end the session) instead of running
    /// the k-th assigned task — the voluntary-departure schedule. The
    /// coordinator re-queues the orphaned task without charging an
    /// attempt.
    pub bye_on_task: Option<u64>,
    /// Stall forever (hang without `Bye` or a reply) instead of running
    /// the k-th assigned task — exercises the coordinator's per-task
    /// deadline, which is the only recovery for a hung-but-connected
    /// worker.
    pub stall_on_task: Option<u64>,
    /// Send every Result frame twice (either send form), exercising
    /// coordinator dedup.
    pub duplicate_results: bool,
}

/// A [`Transport`] wrapper that applies a [`FaultPlan`] at frame level.
pub struct FaultyTransport<T: Transport> {
    inner: T,
    plan: FaultPlan,
    frames: AtomicU64,
    dropped: AtomicBool,
}

impl<T: Transport> FaultyTransport<T> {
    /// Wraps `inner` with the given plan.
    pub fn new(inner: T, plan: FaultPlan) -> Self {
        FaultyTransport {
            inner,
            plan,
            frames: AtomicU64::new(0),
            dropped: AtomicBool::new(false),
        }
    }

    /// Counts one frame; returns true once the drop threshold is crossed.
    fn count_frame_and_check_drop(&self) -> bool {
        let n = self.frames.fetch_add(1, Ordering::SeqCst);
        match self.plan.drop_after_frames {
            Some(limit) if n >= limit => {
                self.dropped.store(true, Ordering::SeqCst);
                true
            }
            _ => false,
        }
    }

    fn closed_if_dropped(&self) -> Result<(), TransportError> {
        if self.dropped.load(Ordering::SeqCst) {
            Err(TransportError::Closed)
        } else {
            Ok(())
        }
    }
}

impl<T: Transport> Transport for FaultyTransport<T> {
    /// Counts each frame, then sends the ones before the drop threshold
    /// (after `delay_reply` each, and twice if a duplicated Result) in
    /// one inner call; `Err(Closed)` if the threshold cut the batch.
    fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        self.closed_if_dropped()?;
        let mut out = Vec::with_capacity(frames.len());
        let mut cut = false;
        for frame in frames {
            if self.count_frame_and_check_drop() {
                cut = true;
                break;
            }
            if let Some(delay) = self.plan.delay_reply {
                std::thread::sleep(delay);
            }
            if self.plan.duplicate_results && is_result(&frame) {
                out.push(frame.clone());
            }
            out.push(frame);
        }
        if !out.is_empty() {
            self.inner.send_frames(out)?;
        }
        if cut {
            return Err(TransportError::Closed);
        }
        Ok(())
    }

    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError> {
        self.closed_if_dropped()?;
        let payload = self.inner.recv_frame(timeout)?;
        if payload.is_some() && self.count_frame_and_check_drop() {
            return Err(TransportError::Closed);
        }
        Ok(payload)
    }

    fn has_buffered_frame(&self) -> bool {
        self.inner.has_buffered_frame()
    }
}

/// Whether `frame` carries a Result (either send form).
fn is_result(frame: &[u8]) -> bool {
    frame.get(4..).is_some_and(|payload| {
        matches!(
            wire::decode_message(payload),
            Ok(Message::Result { .. } | Message::Verified { .. })
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tcp::TcpTransport;
    use crate::transport::loopback_pair;
    use std::sync::Mutex;

    /// An inner backend that logs each `send_frames` call's frames.
    #[derive(Default)]
    struct WriteLog {
        writes: Mutex<Vec<Vec<Vec<u8>>>>,
    }

    impl Transport for WriteLog {
        fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
            self.writes.lock().unwrap().push(frames);
            Ok(())
        }

        fn recv_frame(&self, _: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError> {
            Err(TransportError::Closed)
        }

        fn has_buffered_frame(&self) -> bool {
            false
        }
    }

    fn heartbeats(n: u64) -> Vec<Message> {
        (0..n).map(|seq| Message::Heartbeat { seq }).collect()
    }

    fn frames(msgs: &[Message]) -> Vec<Vec<u8>> {
        msgs.iter().map(wire::encode_frame).collect()
    }

    #[test]
    fn a_wrapped_send_all_is_one_inner_send_of_every_frame() {
        let faulty = FaultyTransport::new(WriteLog::default(), FaultPlan::default());
        let msgs = heartbeats(5);
        faulty.send_all(&msgs).unwrap();
        assert_eq!(faulty.inner.writes.into_inner().unwrap(), [frames(&msgs)]);
    }

    /// The frames before the threshold still go out, in one inner send,
    /// and then the connection is closed, as a send per message would
    /// leave it.
    #[test]
    fn drop_after_frames_mid_batch_sends_the_frames_before_it_then_closes() {
        let faulty = FaultyTransport::new(
            WriteLog::default(),
            FaultPlan {
                drop_after_frames: Some(2),
                ..FaultPlan::default()
            },
        );
        let msgs = heartbeats(3);
        assert_eq!(faulty.send_all(&msgs), Err(TransportError::Closed));
        assert_eq!(faulty.send(&Message::Bye), Err(TransportError::Closed));
        assert!(matches!(faulty.recv(), Err(TransportError::Closed)));
        assert_eq!(
            faulty.inner.writes.into_inner().unwrap(),
            [frames(&msgs[..2])]
        );
    }

    /// A clean plan over TCP, as every `bdb-clusterd` session runs: the
    /// rest of the peer's one-write burst is buffered after one receive.
    #[test]
    fn a_clean_plan_over_tcp_sees_the_peers_burst() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let peer = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        let (stream, _) = listener.accept().unwrap();
        let faulty = FaultyTransport::new(
            TcpTransport::from_stream(stream, "peer").unwrap(),
            FaultPlan::default(),
        );
        peer.send_all(&heartbeats(3)).unwrap();
        // Let the one write land whole, so the first read buffers it all.
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(faulty.recv(), Ok(Message::Heartbeat { seq: 0 })));
        assert!(faulty.has_buffered_frame());
    }

    #[test]
    fn drop_after_frames_closes_both_directions() {
        let (coord, worker) = loopback_pair();
        let faulty = FaultyTransport::new(
            worker,
            FaultPlan {
                drop_after_frames: Some(2),
                ..FaultPlan::default()
            },
        );
        faulty.send(&Message::Bye).unwrap();
        faulty.send(&Message::Bye).unwrap();
        assert!(matches!(
            faulty.send(&Message::Bye),
            Err(TransportError::Closed)
        ));
        assert!(matches!(faulty.recv(), Err(TransportError::Closed)));
        drop(coord);
    }

    #[test]
    fn duplicate_results_doubles_only_result_frames() {
        let (coord, worker) = loopback_pair();
        let faulty = FaultyTransport::new(
            worker,
            FaultPlan {
                duplicate_results: true,
                ..FaultPlan::default()
            },
        );
        faulty
            .send(&Message::Result {
                task_id: 1,
                fingerprint: 0xff,
                outcome: Err("e".to_owned()),
            })
            .unwrap();
        // The warm send form is a Result frame too. An intact record
        // holding no profile is enough here: it decodes as a failed
        // Result for the same task.
        let record = bdb_codec::encode_record(
            bdb_codec::RecordKind::CacheEntry,
            &bdb_codec::encode_cache_payload(0xff, &bdb_engine::json::Value::object(Vec::new())),
        );
        faulty
            .send(&Message::ResultEntry {
                task_id: 2,
                fingerprint: 0xff,
                record,
            })
            .unwrap();
        faulty.send(&Message::Heartbeat { seq: 1 }).unwrap();
        for task in [1, 1, 2, 2] {
            assert!(matches!(
                coord.recv(),
                Ok(Message::Result { task_id, .. }) if task_id == task
            ));
        }
        assert!(matches!(coord.recv(), Ok(Message::Heartbeat { seq: 1 })));
    }
}
