//! Std-only TCP transport: length-prefixed frames over blocking sockets.
//!
//! No async runtime — the coordinator dedicates one reader thread per
//! worker connection and sends from the scheduler thread, so plain
//! blocking sockets with a writer/reader mutex pair are all that is
//! needed. `TCP_NODELAY` is set because the protocol is small
//! request/response frames, the worst case for Nagle batching; a sender
//! that has several frames ready batches them itself, since
//! [`Transport::send_frames`] writes them as one buffer. Every receive,
//! timed or not, reads its frame through [`wire::read_frame_payload`].

use crate::transport::{lock, Transport, TransportError};
use crate::wire;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::sync::Mutex;
use std::time::Duration;

/// One TCP connection carrying length-prefixed frames.
pub struct TcpTransport {
    writer: Mutex<TcpStream>,
    reader: Mutex<Reader>,
}

/// The read half, with the read timeout the socket currently has: the
/// timeout is a socket option, so a run of blocking reads makes no
/// `setsockopt` call.
struct Reader {
    stream: BufReader<TcpStream>,
    timeout: Option<Duration>,
}

impl Reader {
    fn set_timeout(&mut self, timeout: Option<Duration>) -> Result<(), TransportError> {
        if self.timeout != timeout {
            self.stream
                .get_ref()
                .set_read_timeout(timeout)
                .map_err(|e| TransportError::Io(e.to_string()))?;
            self.timeout = timeout;
        }
        Ok(())
    }
}

impl TcpTransport {
    /// Connects to a worker (coordinator side).
    pub fn connect(addr: &str, timeout: Duration) -> Result<Self, TransportError> {
        let resolved = addr
            .to_socket_addrs()
            .map_err(|e| TransportError::Io(format!("resolve {addr}: {e}")))?
            .next()
            .ok_or_else(|| TransportError::Io(format!("resolve {addr}: no address")))?;
        let stream = TcpStream::connect_timeout(&resolved, timeout)
            .map_err(|e| TransportError::Io(format!("connect {addr}: {e}")))?;
        Self::from_stream(stream, addr)
    }

    /// Wraps an accepted connection (worker side). `_peer` names the
    /// connection in the caller's own diagnostics; the transport does not
    /// keep it.
    pub fn from_stream(stream: TcpStream, _peer: &str) -> Result<Self, TransportError> {
        stream
            .set_nodelay(true)
            .map_err(|e| TransportError::Io(e.to_string()))?;
        let reader = stream
            .try_clone()
            .map_err(|e| TransportError::Io(e.to_string()))?;
        Ok(TcpTransport {
            writer: Mutex::new(stream),
            reader: Mutex::new(Reader {
                stream: BufReader::new(reader),
                timeout: None,
            }),
        })
    }
}

impl Transport for TcpTransport {
    /// The frames, back to back, in one write.
    fn send_frames(&self, frames: Vec<Vec<u8>>) -> Result<(), TransportError> {
        let mut writer = lock(&self.writer);
        writer
            .write_all(&frames.concat())
            .map_err(|e| TransportError::Io(e.to_string()))?;
        writer.flush().map_err(|e| {
            if e.kind() == ErrorKind::BrokenPipe || e.kind() == ErrorKind::ConnectionReset {
                TransportError::Closed
            } else {
                TransportError::Io(e.to_string())
            }
        })
    }

    /// A timed receive waits up to `timeout` for a frame to *start*
    /// (unless bytes are already buffered); the frame itself is then read
    /// blocking, so a slow sender cannot leave a partial frame behind.
    fn recv_frame(&self, timeout: Option<Duration>) -> Result<Option<Vec<u8>>, TransportError> {
        let mut reader = lock(&self.reader);
        if timeout.is_some() && reader.stream.buffer().is_empty() {
            reader.set_timeout(timeout)?;
            loop {
                match reader.stream.fill_buf() {
                    Ok(_) => break,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                        return Ok(None)
                    }
                    Err(e) => return Err(classify_io(&e.to_string())),
                }
            }
        }
        reader.set_timeout(None)?;
        match wire::read_frame_payload(&mut reader.stream) {
            Ok(Some(payload)) => Ok(Some(payload)),
            Ok(None) => Err(TransportError::Closed),
            Err(wire::WireError::Io(e)) => Err(classify_io(&e)),
            Err(e) => Err(e.into()),
        }
    }

    fn has_buffered_frame(&self) -> bool {
        let reader = lock(&self.reader);
        let buffered = reader.stream.buffer();
        let Some(len) = buffered
            .get(..4)
            .and_then(|prefix| prefix.try_into().ok())
            .map(u32::from_be_bytes)
        else {
            return false;
        };
        buffered.len() - 4 >= len as usize
    }
}

fn classify_io(detail: &str) -> TransportError {
    // Peer resets mean the connection is gone; everything else stays an
    // I/O error.
    let gone = ["Connection reset", "Broken pipe"];
    if gone.iter().any(|g| detail.contains(g)) {
        TransportError::Closed
    } else {
        TransportError::Io(detail.to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{Message, PROTOCOL_VERSION};
    use std::net::TcpListener;

    #[test]
    fn tcp_roundtrip_and_close() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let t = TcpTransport::from_stream(stream, "client").unwrap();
            let msg = t.recv().unwrap();
            t.send(&msg).unwrap(); // echo
        });
        let t = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        t.send(&Message::Hello {
            worker: "w".to_owned(),
            protocol: PROTOCOL_VERSION,
            cached: Vec::new(),
        })
        .unwrap();
        assert!(matches!(t.recv(), Ok(Message::Hello { .. })));
        server.join().unwrap();
        // Server thread dropped its end: next recv reports Closed.
        assert!(matches!(t.recv(), Err(TransportError::Closed)));
    }

    /// A connected `(client, server)` pair over a loopback listener.
    fn pair() -> (TcpTransport, TcpTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let client = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        let (stream, _) = listener.accept().unwrap();
        (client, TcpTransport::from_stream(stream, "client").unwrap())
    }

    fn some_messages() -> Vec<Message> {
        vec![
            Message::Hello {
                worker: "w".to_owned(),
                protocol: PROTOCOL_VERSION,
                cached: vec![7, 9],
            },
            Message::Heartbeat { seq: 3 },
            Message::Assign {
                task_id: 5,
                workload_id: "wl".to_owned(),
                fingerprint: 0xabc,
                config: std::sync::Arc::from(&b"config record"[..]),
            },
            Message::Bye,
        ]
    }

    #[test]
    fn send_all_puts_the_bytes_of_sequential_sends_on_the_wire() {
        let (client, server) = pair();
        let msgs = some_messages();
        client.send_all(&msgs).unwrap();
        for msg in &msgs {
            client.send(msg).unwrap();
        }
        drop(client);
        let mut wire_bytes = Vec::new();
        std::io::Read::read_to_end(&mut lock(&server.reader).stream, &mut wire_bytes).unwrap();
        let sequential: Vec<u8> = msgs.iter().flat_map(wire::encode_frame).collect();
        assert_eq!(wire_bytes.len(), 2 * sequential.len());
        assert_eq!(wire_bytes[..sequential.len()], sequential[..]);
        assert_eq!(wire_bytes[sequential.len()..], sequential[..]);
    }

    #[test]
    fn has_buffered_frame_sees_only_whole_frames_already_read() {
        let (client, server) = pair();
        assert!(!server.has_buffered_frame());
        client.send_all(&some_messages()).unwrap();
        // Let the one write land whole, so the first read buffers it all.
        std::thread::sleep(Duration::from_millis(50));
        assert!(matches!(server.recv(), Ok(Message::Hello { .. })));
        for _ in 0..3 {
            assert!(server.has_buffered_frame());
            server.recv().unwrap();
        }
        assert!(!server.has_buffered_frame());
    }

    #[test]
    fn blocking_recv_waits_after_a_timed_out_recv() {
        let (client, server) = pair();
        assert!(matches!(
            server.recv_frame(Some(Duration::from_millis(10))),
            Ok(None)
        ));
        let sender = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(50));
            client.send(&Message::Heartbeat { seq: 1 }).unwrap();
            client
        });
        assert!(matches!(server.recv(), Ok(Message::Heartbeat { seq: 1 })));
        drop(sender.join().unwrap());
    }

    #[test]
    fn tcp_timed_recv_is_none_when_idle() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let _keepalive = std::thread::spawn(move || listener.accept());
        let t = TcpTransport::connect(&addr, Duration::from_secs(5)).unwrap();
        assert!(matches!(
            t.recv_frame(Some(Duration::from_millis(10))),
            Ok(None)
        ));
    }

    /// A peer that writes a length prefix and half a payload, then
    /// closes, gets one answer from a blocking and a timed receive.
    #[test]
    fn mid_frame_eof_is_one_error_blocking_or_timed() {
        let frame = wire::encode_frame(&Message::Heartbeat { seq: 1 });
        let errors: Vec<TransportError> = [None, Some(Duration::from_secs(5))]
            .into_iter()
            .map(|timeout| {
                let (client, server) = pair();
                lock(&client.writer)
                    .write_all(&frame[..4 + (frame.len() - 4) / 2])
                    .unwrap();
                drop(client);
                server.recv_frame(timeout).unwrap_err()
            })
            .collect();
        assert_eq!(errors[0], errors[1]);
        assert!(
            matches!(errors[0], TransportError::Protocol(_)),
            "{:?}",
            errors[0]
        );
    }
}
