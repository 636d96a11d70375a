//! The blocking serve daemon: sessions, subscriptions, delta fan-out.
//!
//! One thread per accepted connection, a single mutex around the
//! [`ServeState`] (mutations serialize; the engine's fan-out happens
//! *inside* `apply`, so one mutation still uses every core), and a
//! subscriber registry of bounded delta queues. Delta *enqueue* happens
//! **under the state lock**, so every subscriber's queue holds batches
//! in strict `seq` order; a dedicated flusher thread per subscriber
//! drains its queue onto the wire, so one stalled client never blocks a
//! mutation or the other subscribers. A subscriber that falls more than
//! `BDB_SERVE_SUB_QUEUE` batches behind is evicted (its queue is closed
//! and it stops receiving pushes) instead of growing without bound —
//! the `subscribers_evicted` counter records every shed.
//!
//! Overload is graceful, not fatal: a session past
//! `BDB_SERVE_MAX_CLIENTS` is refused with a [`ServeReply::Busy`]
//! carrying a deterministic, tick-denominated retry hint (proportional
//! to the overload depth), never a bare error.
//!
//! Warm restart is free: the server owns no persistence of its own.
//! Rebuilding [`ServeState`] over an engine whose `BDB_CACHE_DIR`
//! points at the previous run's cache re-materializes
//! the whole catalog from disk without a single simulation — the
//! engine's `computed` counter (exposed via `Stats`) proves it.

use crate::proto::{
    decode_request, encode_reply, ServeReply, ServeRequest, ServeStats, SnapshotEntry,
    SERVE_PROTOCOL_VERSION,
};
use crate::state::{DeltaBatch, ServeState};
use crate::{Delta, ServeError};
use bdb_cluster::{FrameTransport, TcpTransport, TransportError};
use std::collections::{BTreeMap, VecDeque};
use std::net::TcpListener;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// One tick of the `Busy` retry hint per session over the cap. The
/// hint is `overload_depth × RETRY_QUANTUM_TICKS`: deterministic in the
/// load state (identical overload → identical hint) and linear, so
/// refused clients back off in proportion to the queue ahead of them.
pub const RETRY_QUANTUM_TICKS: u64 = 16;

/// Daemon tunables, normally from [`ServerConfig::from_env`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// The name sent in `Hello` replies.
    pub name: String,
    /// Concurrent-session cap; a session past the cap is shed with a
    /// `Busy` reply (retry hint included) before any request is read.
    pub max_clients: u64,
    /// Per-subscriber delta queue depth; a subscriber whose queue is
    /// full when a batch arrives is evicted rather than buffered
    /// without bound.
    pub sub_queue: u64,
}

impl ServerConfig {
    /// A named config with library defaults (64 clients, 64-deep
    /// subscriber queues).
    pub fn named(name: &str) -> Self {
        ServerConfig {
            name: name.to_owned(),
            max_clients: 64,
            sub_queue: 64,
        }
    }

    /// Reads `BDB_SERVE_MAX_CLIENTS` (default 64) and
    /// `BDB_SERVE_SUB_QUEUE` (default 64, floored at 1).
    pub fn from_env() -> Self {
        let max_clients = std::env::var("BDB_SERVE_MAX_CLIENTS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64);
        let sub_queue = std::env::var("BDB_SERVE_SUB_QUEUE")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(64u64)
            .max(1);
        ServerConfig {
            name: "bdb-served".to_owned(),
            max_clients,
            sub_queue,
        }
    }
}

/// One queued wire frame plus the delta count it carries (0 for the
/// eviction-notice `Error` frame) — the flusher credits
/// `deltas_streamed` only once the frame actually reaches the socket.
struct Frame {
    payload: Vec<u8>,
    deltas: u64,
}

/// The frames queued for one subscriber, plus its lifecycle flag.
/// `closed` is terminal: set by eviction, by session teardown, or by
/// the flusher itself on a send failure; once set, no further frames
/// are accepted, but the flusher still drains what is already queued —
/// that is what delivers the eviction notice.
#[derive(Default)]
struct SubQueue {
    frames: VecDeque<Frame>,
    closed: bool,
}

/// One subscriber: its transport plus the bounded queue its dedicated
/// flusher thread drains. Broadcast enqueues (cheap, under the state
/// lock); the flusher owns the potentially-slow socket writes.
struct Subscriber {
    transport: Arc<dyn FrameTransport>,
    queue: Mutex<SubQueue>,
    cv: Condvar,
    /// The server's shared `deltas_streamed` counter; bumped per frame
    /// *after* a successful send, so the stat measures delivery, not
    /// enqueueing frames that eviction may later discard.
    streamed: Arc<AtomicU64>,
}

impl Subscriber {
    /// Closes the queue and wakes the flusher so it can exit. Idempotent.
    fn close(&self) {
        lock(&self.queue).closed = true;
        self.cv.notify_all();
    }
}

/// The flusher loop: pop-or-wait, send, repeat. Exits when the queue is
/// closed and drained, or immediately on a send failure (the peer is
/// gone; `close` marks the queue so broadcast unregisters it).
fn flush_subscriber(sub: &Subscriber) {
    loop {
        let frame = {
            let mut queue = lock(&sub.queue);
            loop {
                if let Some(frame) = queue.frames.pop_front() {
                    break frame;
                }
                if queue.closed {
                    return;
                }
                queue = sub.cv.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
        };
        if sub.transport.send_payload(&frame.payload).is_err() {
            sub.close();
            return;
        }
        sub.streamed.fetch_add(frame.deltas, Ordering::SeqCst);
    }
}

struct Shared {
    state: Mutex<ServeState>,
    subscribers: Mutex<BTreeMap<u64, Arc<Subscriber>>>,
    config: ServerConfig,
    sessions_active: AtomicU64,
    sessions_total: AtomicU64,
    delta_batches: AtomicU64,
    /// `Arc`ed so each subscriber's flusher can credit deliveries.
    deltas_streamed: Arc<AtomicU64>,
    subscribers_evicted: AtomicU64,
    shutdown: AtomicBool,
    wake_addr: Mutex<Option<String>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A poisoned lock means another session panicked mid-request; the
    // shared state itself is only ever mutated through `ServeState::apply`,
    // which is transactional, so continuing is safe.
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// The daemon. Cheap to clone; clones share one state and registry.
#[derive(Clone)]
pub struct Server {
    shared: Arc<Shared>,
}

impl Server {
    /// Wraps a materialized catalog in a server.
    pub fn new(state: ServeState, config: ServerConfig) -> Server {
        Server {
            shared: Arc::new(Shared {
                state: Mutex::new(state),
                subscribers: Mutex::new(BTreeMap::new()),
                config,
                sessions_active: AtomicU64::new(0),
                sessions_total: AtomicU64::new(0),
                delta_batches: AtomicU64::new(0),
                deltas_streamed: Arc::new(AtomicU64::new(0)),
                subscribers_evicted: AtomicU64::new(0),
                shutdown: AtomicBool::new(false),
                wake_addr: Mutex::new(None),
            }),
        }
    }

    /// Whether a `Shutdown` request has been accepted.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// The counter snapshot served by `Stats`.
    pub fn stats(&self) -> ServeStats {
        let (entries, seq, counters) = {
            let state = lock(&self.shared.state);
            (state.len() as u64, state.seq(), state.engine().counters())
        };
        ServeStats {
            computed: counters.computed,
            delta_batches: self.shared.delta_batches.load(Ordering::SeqCst),
            deltas_streamed: self.shared.deltas_streamed.load(Ordering::SeqCst),
            disk_hits: counters.disk_hits,
            entries,
            invalidated: counters.invalidated,
            memory_hits: counters.memory_hits,
            seq,
            sessions_active: self.shared.sessions_active.load(Ordering::SeqCst),
            sessions_total: self.shared.sessions_total.load(Ordering::SeqCst),
            subscribers: lock(&self.shared.subscribers).len() as u64,
            subscribers_evicted: self.shared.subscribers_evicted.load(Ordering::SeqCst),
        }
    }

    /// Accepts sessions until a `Shutdown` request arrives, spawning
    /// one thread per connection. Accept errors are skipped (the
    /// listener survives transient failures).
    pub fn serve_listener(&self, listener: &TcpListener) -> Result<(), ServeError> {
        let addr = listener
            .local_addr()
            .map_err(|e| ServeError::Io(e.to_string()))?;
        *lock(&self.shared.wake_addr) = Some(addr.to_string());
        for stream in listener.incoming() {
            if self.is_shutdown() {
                break;
            }
            let Ok(stream) = stream else { continue };
            let peer = stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".to_owned());
            let Ok(transport) = TcpTransport::from_stream(stream, &peer) else {
                continue;
            };
            let server = self.clone();
            std::thread::spawn(move || {
                let _ = server.serve_session(Arc::new(transport));
            });
        }
        Ok(())
    }

    /// Runs one session to completion on the calling thread. Public so
    /// tests and benches can serve loopback transports without sockets.
    pub fn serve_session(&self, transport: Arc<dyn FrameTransport>) -> Result<(), ServeError> {
        let session_id = self.shared.sessions_total.fetch_add(1, Ordering::SeqCst) + 1;
        let active = self.shared.sessions_active.fetch_add(1, Ordering::SeqCst) + 1;
        let max_clients = self.shared.config.max_clients;
        let result = if active > max_clients {
            // Shed, don't fail hard: the hint is deterministic in the
            // overload depth, so identical load states refuse
            // identically (and deeper overload backs clients off
            // further).
            let retry_after_ticks = (active - max_clients) * RETRY_QUANTUM_TICKS;
            let _ = self.send(
                &transport,
                &ServeReply::Busy {
                    id: 0,
                    max_clients,
                    retry_after_ticks,
                },
            );
            Err(ServeError::ServerFull {
                max_clients,
                retry_after_ticks,
            })
        } else {
            self.session_loop(session_id, &transport)
        };
        if let Some(sub) = lock(&self.shared.subscribers).remove(&session_id) {
            // Close the queue so the flusher thread drains and exits.
            sub.close();
        }
        self.shared.sessions_active.fetch_sub(1, Ordering::SeqCst);
        result
    }

    fn session_loop(
        &self,
        session_id: u64,
        transport: &Arc<dyn FrameTransport>,
    ) -> Result<(), ServeError> {
        loop {
            let payload = match transport.recv_payload() {
                Ok(p) => p,
                Err(TransportError::Closed) => return Ok(()),
                Err(e) => return Err(e.into()),
            };
            let request = match decode_request(&payload) {
                Ok(r) => r,
                Err(e) => {
                    self.send(
                        transport,
                        &ServeReply::Error {
                            id: 0,
                            message: e.to_string(),
                        },
                    )?;
                    continue;
                }
            };
            match request {
                ServeRequest::Hello { protocol, .. } => {
                    if protocol != SERVE_PROTOCOL_VERSION {
                        self.send(
                            transport,
                            &ServeReply::Error {
                                id: 0,
                                message: format!(
                                    "protocol {protocol} unsupported (server speaks {SERVE_PROTOCOL_VERSION})"
                                ),
                            },
                        )?;
                        return Ok(());
                    }
                    let (entries, seq) = {
                        let state = lock(&self.shared.state);
                        (state.len() as u64, state.seq())
                    };
                    self.send(
                        transport,
                        &ServeReply::Hello {
                            entries,
                            protocol: SERVE_PROTOCOL_VERSION,
                            seq,
                            server: self.shared.config.name.clone(),
                        },
                    )?;
                }
                ServeRequest::Query { id, key } => {
                    // The warm path: a lookup in the materialized map,
                    // never a simulation. The engine's `computed`
                    // counter staying flat across queries is the
                    // warm-serving proof the contract test checks.
                    let reply = {
                        let state = lock(&self.shared.state);
                        match state.get(&key) {
                            Some((fingerprint, profile)) => ServeReply::Profile {
                                fingerprint,
                                id,
                                key,
                                profile: Box::new(profile.clone()),
                            },
                            None => ServeReply::NotFound { id, key },
                        }
                    };
                    self.send(transport, &reply)?;
                }
                ServeRequest::Snapshot { id } => {
                    let reply = {
                        let state = lock(&self.shared.state);
                        let entries = state
                            .keys()
                            .into_iter()
                            .filter_map(|key| {
                                state.get(&key).map(|(fingerprint, profile)| SnapshotEntry {
                                    fingerprint,
                                    key: key.clone(),
                                    profile: Box::new(profile.clone()),
                                })
                            })
                            .collect();
                        ServeReply::Snapshot {
                            entries,
                            id,
                            seq: state.seq(),
                        }
                    };
                    self.send(transport, &reply)?;
                }
                ServeRequest::Mutate { id, mutation } => {
                    // Apply and broadcast under one lock acquisition:
                    // subscribers see batches in strict seq order.
                    let reply = {
                        let mut state = lock(&self.shared.state);
                        match state.apply(&mutation) {
                            Ok(batch) => {
                                self.broadcast(&batch);
                                let count = |f: fn(&Delta) -> bool| {
                                    batch.deltas.iter().filter(|d| f(d)).count() as u64
                                };
                                ServeReply::Mutated {
                                    created: count(|d| matches!(d, Delta::Created { .. })),
                                    deleted: count(|d| matches!(d, Delta::Deleted { .. })),
                                    id,
                                    seq: batch.seq,
                                    updated: count(|d| matches!(d, Delta::Updated { .. })),
                                }
                            }
                            Err(e) => ServeReply::Error {
                                id,
                                message: e.to_string(),
                            },
                        }
                    };
                    self.send(transport, &reply)?;
                }
                ServeRequest::Subscribe { id } => {
                    let sub = Arc::new(Subscriber {
                        transport: Arc::clone(transport),
                        queue: Mutex::new(SubQueue::default()),
                        cv: Condvar::new(),
                        streamed: Arc::clone(&self.shared.deltas_streamed),
                    });
                    // Register under the state lock (lock order: state
                    // → subscribers, same as Mutate/broadcast), so no
                    // batch with seq greater than the returned seq can
                    // be broadcast before this subscriber is visible.
                    let seq = {
                        let state = lock(&self.shared.state);
                        let mut subscribers = lock(&self.shared.subscribers);
                        if let Some(old) = subscribers.insert(session_id, Arc::clone(&sub)) {
                            old.close();
                        }
                        state.seq()
                    };
                    std::thread::spawn(move || flush_subscriber(&sub));
                    self.send(transport, &ServeReply::Subscribed { id, seq })?;
                }
                ServeRequest::Stats { id } => {
                    let stats = self.stats();
                    self.send(transport, &ServeReply::Stats { id, stats })?;
                }
                ServeRequest::Shutdown { id } => {
                    self.shared.shutdown.store(true, Ordering::SeqCst);
                    self.send(transport, &ServeReply::ShuttingDown { id })?;
                    self.wake_listener();
                    return Ok(());
                }
                ServeRequest::Bye => return Ok(()),
            }
        }
    }

    fn send(
        &self,
        transport: &Arc<dyn FrameTransport>,
        reply: &ServeReply,
    ) -> Result<(), ServeError> {
        let payload = encode_reply(reply);
        transport.send_payload(&payload).map_err(ServeError::from)
    }

    /// Enqueues one batch onto every subscriber's bounded queue; the
    /// per-subscriber flusher threads do the socket writes (and credit
    /// `deltas_streamed` per delivered frame). Called with the state
    /// lock held (see `Mutate`), which is what gives every queue strict
    /// `seq` order — and is why this must never block on a slow peer. A
    /// subscriber whose queue is already full is evicted instead of
    /// buffered without bound: a final `Error` notice is queued (the
    /// flusher drains a closed queue, so the client learns it was shed
    /// rather than silently losing the stream), then the queue is
    /// closed and the subscriber unregistered. One whose flusher died
    /// of a send failure is silently dropped — the peer is gone.
    fn broadcast(&self, batch: &DeltaBatch) {
        if batch.deltas.is_empty() {
            return;
        }
        self.shared.delta_batches.fetch_add(1, Ordering::SeqCst);
        let payload = encode_reply(&ServeReply::Delta(batch.clone()));
        let mut subscribers = lock(&self.shared.subscribers);
        let mut gone = Vec::new();
        for (&session_id, subscriber) in subscribers.iter() {
            let mut queue = lock(&subscriber.queue);
            if queue.closed {
                // The flusher hit a send failure; the peer is gone.
                gone.push(session_id);
                continue;
            }
            if queue.frames.len() as u64 >= self.shared.config.sub_queue {
                // Slow consumer: shed it rather than grow its queue,
                // with a best-effort farewell frame.
                let notice = encode_reply(&ServeReply::Error {
                    id: 0,
                    message: format!(
                        "subscription evicted: {} undelivered delta batches exceeded \
                             the BDB_SERVE_SUB_QUEUE bound of {}",
                        queue.frames.len(),
                        self.shared.config.sub_queue
                    ),
                });
                queue.frames.push_back(Frame {
                    payload: notice,
                    deltas: 0,
                });
                queue.closed = true;
                drop(queue);
                subscriber.cv.notify_all();
                gone.push(session_id);
                self.shared
                    .subscribers_evicted
                    .fetch_add(1, Ordering::SeqCst);
                continue;
            }
            queue.frames.push_back(Frame {
                payload: payload.clone(),
                deltas: batch.deltas.len() as u64,
            });
            drop(queue);
            subscriber.cv.notify_all();
        }
        for session_id in gone {
            subscribers.remove(&session_id);
        }
    }

    /// Unblocks `serve_listener`'s accept call after shutdown by
    /// connecting (and immediately dropping) a throwaway stream.
    fn wake_listener(&self) {
        if let Some(addr) = lock(&self.shared.wake_addr).clone() {
            let _ = std::net::TcpStream::connect(addr);
        }
    }
}
