//! Fault injection for cluster testing.
//!
//! A [`FaultPlan`] describes misbehaviour for one worker connection; a
//! [`FaultyTransport`] wraps any [`Transport`] and applies the plan at
//! the frame level, so the coordinator under test sees exactly what a
//! real flaky worker would produce: dropped connections, delayed
//! replies, and duplicated Result frames. Worker-process crashes
//! (`crash_on_task`) are enforced by the worker loop itself, which
//! consults the plan before running each task.

use crate::proto::Message;
use crate::transport::{Transport, TransportError};
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
    fn send(&self, msg: &Message) -> Result<(), TransportError> {
        self.closed_if_dropped()?;
        if self.count_frame_and_check_drop() {
            return Err(TransportError::Closed);
        }
        if let Some(delay) = self.plan.delay_reply {
            std::thread::sleep(delay);
        }
        self.inner.send(msg)?;
        if self.plan.duplicate_results
            && matches!(msg, Message::Result { .. } | Message::ResultEntry { .. })
        {
            self.inner.send(msg)?;
        }
        Ok(())
    }

    fn recv(&self) -> Result<Message, TransportError> {
        self.closed_if_dropped()?;
        let msg = self.inner.recv()?;
        if self.count_frame_and_check_drop() {
            return Err(TransportError::Closed);
        }
        Ok(msg)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>, TransportError> {
        self.closed_if_dropped()?;
        match self.inner.recv_timeout(timeout)? {
            Some(msg) => {
                if self.count_frame_and_check_drop() {
                    return Err(TransportError::Closed);
                }
                Ok(Some(msg))
            }
            None => Ok(None),
        }
    }

    fn peer(&self) -> String {
        format!("faulty({})", self.inner.peer())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;

    #[test]
    fn drop_after_frames_closes_both_directions() {
        let (coord, worker) = loopback_pair("drop");
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
        let (coord, worker) = loopback_pair("dup");
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
