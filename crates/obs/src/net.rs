//! The one TCP server skeleton behind both of the workspace's listeners:
//! the telemetry HTTP surface ([`HttpServer`](crate::HttpServer)) and the
//! analysis daemon's NDJSON transport.
//!
//! [`TcpServer`] owns everything a listener needs that is not protocol:
//!
//! * **Bind** — the address is resolved up front, so a bad value fails at
//!   startup with a clear message instead of inside the accept thread.
//! * **Bounded connections** — one short-lived thread per connection, at
//!   most [`ServerSpec::max_connections`] at once; a client past the cap
//!   gets [`ServerSpec::refusal`] inline and is closed.
//! * **Graceful shutdown** — [`TcpServer::shutdown`] flips a stop flag,
//!   wakes the blocking `accept` with a self-connection, and joins the
//!   accept thread.
//! * **One write per reply** — every accepted stream has `TCP_NODELAY`
//!   set, and every reply goes out through [`send`] as one buffer.
//!
//! The last point is a latency rule, not a style rule. A reply written
//! in two pieces (a body, then its `"\n"` terminator) leaves the second
//! piece behind Nagle's algorithm until the peer ACKs the first, and a
//! peer waiting for a complete line delays that ACK (about 40 ms on
//! Linux). One write per reply on a `TCP_NODELAY` socket never waits.

use std::io::{self, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::Obs;

/// Writes `parts` as one reply: concatenated into one buffer, then
/// exactly one `write_all` and one `flush`.
///
/// # Errors
///
/// Propagates the write or flush error.
pub fn send(out: &mut (impl Write + ?Sized), parts: &[&[u8]]) -> io::Result<()> {
    let mut reply = Vec::with_capacity(parts.iter().map(|p| p.len()).sum());
    for part in parts {
        reply.extend_from_slice(part);
    }
    out.write_all(&reply)?;
    out.flush()
}

/// What a [`TcpServer`] needs from its protocol.
#[derive(Debug)]
pub struct ServerSpec {
    /// Thread-name prefix: the accept thread is `<name>-accept`, each
    /// connection thread `<name>-conn`.
    pub name: &'static str,
    /// Concurrent connection threads; clients past this get `refusal`.
    pub max_connections: usize,
    /// Read and write timeout set on every accepted stream, if any.
    pub socket_timeout: Option<Duration>,
    /// The whole reply sent to a client refused over the cap.
    pub refusal: Vec<u8>,
}

/// A running listener: one accept thread feeding per-connection threads.
/// Dropping without calling [`shutdown`](TcpServer::shutdown) leaks the
/// accept thread until process exit; both owners always shut it down.
pub struct TcpServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for TcpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpServer")
            .field("addr", &self.addr)
            .finish()
    }
}

impl TcpServer {
    /// Binds `addr` (`"127.0.0.1:0"` picks a free port) and starts the
    /// accept loop, running `handler` on its own thread for each admitted
    /// connection.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be resolved or
    /// bound, or the accept thread cannot be spawned.
    pub fn bind<F>(addr: &str, spec: ServerSpec, handler: F) -> io::Result<TcpServer>
    where
        F: Fn(&mut TcpStream) + Send + Sync + 'static,
    {
        let resolved = addr.to_socket_addrs()?.next().ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("no address for {addr:?}"),
            )
        })?;
        let listener = TcpListener::bind(resolved)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let accept_stop = stop.clone();
        let accept_thread = std::thread::Builder::new()
            .name(format!("{}-accept", spec.name))
            .spawn(Obs::inherit(move || {
                accept_loop(&listener, &accept_stop, &spec, Arc::new(handler));
            }))?;
        Ok(TcpServer {
            addr: local,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (carries the real port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting, wakes the accept loop, and joins it. Connection
    /// threads already running finish on their own.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The accept loop blocks in accept(); poke it awake. A failure
        // here means the listener is already gone, which also unblocks.
        let _ = TcpStream::connect(self.addr);
        if let Some(thread) = self.accept_thread.take() {
            let _ = thread.join();
        }
    }
}

fn accept_loop<F>(listener: &TcpListener, stop: &AtomicBool, spec: &ServerSpec, handler: Arc<F>)
where
    F: Fn(&mut TcpStream) + Send + Sync + 'static,
{
    let active = Arc::new(AtomicUsize::new(0));
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(spec.socket_timeout);
        let _ = stream.set_write_timeout(spec.socket_timeout);
        if active.load(Ordering::SeqCst) >= spec.max_connections {
            // Over budget: refuse inline (cheap — one small write).
            let _ = send(&mut stream, &[&spec.refusal]);
            continue;
        }
        active.fetch_add(1, Ordering::SeqCst);
        let conn_active = active.clone();
        let handler = handler.clone();
        let spawned = std::thread::Builder::new()
            .name(format!("{}-conn", spec.name))
            .spawn(Obs::inherit(move || {
                handler(&mut stream);
                conn_active.fetch_sub(1, Ordering::SeqCst);
            }));
        if spawned.is_err() {
            // Could not spawn (resource exhaustion): undo the count; the
            // client sees a closed connection.
            active.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A `Write` double that counts `write` calls.
    #[derive(Default)]
    pub(crate) struct CountingWriter {
        pub writes: usize,
        pub bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn send_writes_all_parts_in_one_call() {
        let mut out = CountingWriter::default();
        send(&mut out, &[b"{\"ok\":true}", b"\n"]).unwrap();
        assert_eq!(
            (out.writes, out.bytes.as_slice()),
            (1, &b"{\"ok\":true}\n"[..])
        );
    }

    fn line_echo(max_connections: usize) -> TcpServer {
        let spec = ServerSpec {
            name: "net-test",
            max_connections,
            socket_timeout: Some(Duration::from_secs(5)),
            refusal: b"busy\n".to_vec(),
        };
        TcpServer::bind("127.0.0.1:0", spec, |stream| {
            let Ok(read) = stream.try_clone() else { return };
            for line in BufReader::new(read).lines() {
                let Ok(line) = line else { return };
                if send(stream, &[line.as_bytes(), b"\n"]).is_err() {
                    return;
                }
            }
        })
        .expect("bind ephemeral")
    }

    fn round_trip(stream: &mut TcpStream, line: &str) -> String {
        send(stream, &[line.as_bytes(), b"\n"]).unwrap();
        let mut reply = String::new();
        BufReader::new(&*stream).read_line(&mut reply).unwrap();
        reply
    }

    #[test]
    fn serves_connections_and_refuses_past_the_cap() {
        let server = line_echo(1);
        let mut first = TcpStream::connect(server.local_addr()).unwrap();
        assert_eq!(round_trip(&mut first, "hello"), "hello\n");
        // The first connection still holds the only slot.
        let mut second = TcpStream::connect(server.local_addr()).unwrap();
        let mut refusal = String::new();
        BufReader::new(&mut second).read_line(&mut refusal).unwrap();
        assert_eq!(refusal, "busy\n");
        server.shutdown();
    }

    #[test]
    fn bad_address_fails_at_bind() {
        let spec = ServerSpec {
            name: "net-test",
            max_connections: 1,
            socket_timeout: None,
            refusal: Vec::new(),
        };
        assert!(TcpServer::bind("not an address", spec, |_| {}).is_err());
    }
}
