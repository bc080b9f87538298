//! A zero-dependency HTTP/1.1 server over [`std::net::TcpListener`], just
//! big enough to expose the telemetry service's three read-only endpoints.
//!
//! The offline-workspace rule forbids pulling in an HTTP crate, and the
//! surface is deliberately tiny: `GET` only, three paths, every response
//! `Connection: close`. What *is* here is the part that matters for a
//! sidecar inside a measurement tool:
//!
//! * **Bounded connections** — at most [`MAX_ACTIVE_CONNECTIONS`] handler
//!   threads at once; excess clients get an immediate `503` instead of a
//!   growing backlog inside the analyzed process.
//! * **Bounded reads** — request heads are read with a socket timeout and
//!   an 8 KiB cap, so a stalled or hostile client cannot pin a handler.
//! * **Graceful shutdown** — [`HttpServer::shutdown`] stops the shared
//!   [`TcpServer`] skeleton: no `SO_REUSEADDR` races, no detached
//!   listener.
//! * **One write per response** — status line, headers and body leave in
//!   one [`send`] on a `TCP_NODELAY` socket (see [`crate::net`]).
//!
//! Handlers are a plain `Fn(&str) -> Response` over the request path;
//! routing and body rendering live with the service, keeping this module
//! transport-only (and independently testable).

use crate::net::{send, ServerSpec, TcpServer};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Duration;

/// Concurrent in-flight request handlers; clients past this are refused
/// with `503` (the scrape interval is seconds, the budget is generous).
pub const MAX_ACTIVE_CONNECTIONS: usize = 16;

/// Per-socket read/write timeout: a scraper that stalls longer than this
/// loses its connection rather than pinning a handler thread.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request head (request line + headers) accepted.
const MAX_REQUEST_HEAD: usize = 8 * 1024;

/// One response a handler returns. The server adds the status line,
/// `Content-Length`, and `Connection: close`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// HTTP status code (200, 404, ...).
    pub status: u16,
    /// The `Content-Type` header value.
    pub content_type: &'static str,
    /// The response body.
    pub body: String,
}

impl Response {
    /// A `200 OK` with the given content type.
    pub fn ok(content_type: &'static str, body: String) -> Response {
        Response {
            status: 200,
            content_type,
            body,
        }
    }

    /// A plain-text `404 Not Found`.
    pub fn not_found() -> Response {
        Response {
            status: 404,
            content_type: "text/plain; charset=utf-8",
            body: "not found\n".into(),
        }
    }
}

fn status_reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// The handler signature: request path (query string stripped) in,
/// [`Response`] out. Must be cheap-ish and must not panic (a panic kills
/// only that connection's thread, but the scrape is lost).
pub type Handler = Arc<dyn Fn(&str) -> Response + Send + Sync>;

/// A running HTTP listener. Dropping without calling
/// [`shutdown`](HttpServer::shutdown) leaks the accept thread until
/// process exit; the service owns one and always shuts it down.
#[derive(Debug)]
pub struct HttpServer {
    server: TcpServer,
}

impl HttpServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9184"` or `"127.0.0.1:0"` for an
    /// ephemeral port) and starts the accept loop on a background thread.
    ///
    /// # Errors
    ///
    /// Returns the I/O error when the address cannot be resolved or bound.
    pub fn bind(addr: &str, handler: Handler) -> io::Result<HttpServer> {
        let spec = ServerSpec {
            name: "obs-http",
            max_connections: MAX_ACTIVE_CONNECTIONS,
            socket_timeout: Some(SOCKET_TIMEOUT),
            refusal: busy_refusal(),
        };
        let server = TcpServer::bind(addr, spec, move |stream| {
            handle_connection(stream, &handler);
        })?;
        Ok(HttpServer { server })
    }

    /// The bound address (carries the real port after binding `:0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// Stops accepting, wakes the accept loop, and joins it. In-flight
    /// handler threads finish their single response on their own (their
    /// sockets carry a 5 s read/write timeout).
    pub fn shutdown(self) {
        self.server.shutdown();
    }
}

/// Reads the request head (up to the blank line or the size cap).
fn read_request_head(stream: &mut impl Read) -> io::Result<String> {
    let mut head = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        head.extend_from_slice(&chunk[..n]);
        if head.windows(4).any(|w| w == b"\r\n\r\n") || head.len() >= MAX_REQUEST_HEAD {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&head).into_owned())
}

fn handle_connection(stream: &mut (impl Read + Write), handler: &Handler) {
    let response = match read_request_head(stream) {
        Ok(head) => route_request(&head, handler),
        Err(_) => Response {
            status: 408,
            content_type: "text/plain; charset=utf-8",
            body: "request timed out\n".into(),
        },
    };
    let _ = send(stream, &[&render(&response)]);
}

/// Parses the request line out of `head` and dispatches: non-GET methods
/// get `405`, malformed requests `400`, everything else the handler.
fn route_request(head: &str, handler: &Handler) -> Response {
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_ascii_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Response {
            status: 400,
            content_type: "text/plain; charset=utf-8",
            body: "malformed request line\n".into(),
        };
    };
    if method != "GET" {
        return Response {
            status: 405,
            content_type: "text/plain; charset=utf-8",
            body: format!("method {method} not allowed; this endpoint is GET-only\n"),
        };
    }
    // Strip any query string; the endpoints take no parameters.
    let path = target.split('?').next().unwrap_or(target);
    handler(path)
}

/// The `503` sent inline to a client past [`MAX_ACTIVE_CONNECTIONS`].
fn busy_refusal() -> Vec<u8> {
    render(&Response {
        status: 503,
        content_type: "text/plain; charset=utf-8",
        body: "busy\n".into(),
    })
}

/// The whole response: status line, headers, and body.
fn render(response: &Response) -> Vec<u8> {
    let mut out = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        response.status,
        status_reason(response.status),
        response.content_type,
        response.body.len(),
    );
    out.push_str(&response.body);
    out.into_bytes()
}

/// A minimal blocking GET against a server bound on `addr`, returning
/// `(status, body)`. Used by the bench scraper and tests; not a general
/// client (no redirects, no keep-alive, no chunked decoding — the server
/// above never produces them).
///
/// # Errors
///
/// Returns the I/O error when the connection or read fails, or
/// `InvalidData` when the response head is malformed.
pub fn http_get(addr: SocketAddr, path: &str) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let Some((head, body)) = text.split_once("\r\n\r\n") else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "no header/body split",
        ));
    };
    let status = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
    Ok((status, body.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::tests::CountingWriter;

    /// A connection double: reads come from `request` (or time out when
    /// it is `None`), writes are counted.
    struct FakeStream {
        request: Option<io::Cursor<Vec<u8>>>,
        out: CountingWriter,
    }

    impl Read for FakeStream {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            match &mut self.request {
                Some(request) => request.read(buf),
                None => Err(io::ErrorKind::TimedOut.into()),
            }
        }
    }

    impl Write for FakeStream {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.out.write(buf)
        }

        fn flush(&mut self) -> io::Result<()> {
            self.out.flush()
        }
    }

    #[test]
    fn every_response_is_one_write() {
        let handler: Handler = Arc::new(|_: &str| Response::ok("text/plain", "pong\n".into()));
        let mut served = FakeStream {
            request: Some(io::Cursor::new(b"GET /ping HTTP/1.1\r\n\r\n".to_vec())),
            out: CountingWriter::default(),
        };
        handle_connection(&mut served, &handler);
        let mut timed_out = FakeStream {
            request: None,
            out: CountingWriter::default(),
        };
        handle_connection(&mut timed_out, &handler);
        let mut refused = CountingWriter::default();
        send(&mut refused, &[&busy_refusal()]).unwrap();
        for (out, status) in [(served.out, 200), (timed_out.out, 408), (refused, 503)] {
            let text = String::from_utf8(out.bytes).unwrap();
            assert!(text.starts_with(&format!("HTTP/1.1 {status} ")), "{text}");
            assert!(text.ends_with("\n"), "{text}");
            assert_eq!(out.writes, 1, "{status} took {} writes", out.writes);
        }
    }

    fn echo_server() -> HttpServer {
        let handler: Handler = Arc::new(|path: &str| match path {
            "/ping" => Response::ok("text/plain; charset=utf-8", "pong\n".into()),
            _ => Response::not_found(),
        });
        HttpServer::bind("127.0.0.1:0", handler).expect("bind ephemeral")
    }

    #[test]
    fn serves_get_and_404s_unknown_paths() {
        let server = echo_server();
        let addr = server.local_addr();
        let (status, body) = http_get(addr, "/ping").unwrap();
        assert_eq!((status, body.as_str()), (200, "pong\n"));
        let (status, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(status, 404);
        // Query strings are stripped before routing.
        let (status, _) = http_get(addr, "/ping?x=1").unwrap();
        assert_eq!(status, 200);
        server.shutdown();
    }

    #[test]
    fn rejects_non_get_methods_with_405() {
        let server = echo_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"POST /ping HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
            .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405 "), "{out}");
        server.shutdown();
    }

    #[test]
    fn malformed_request_line_gets_400() {
        let server = echo_server();
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(b"garbage\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 400 "), "{out}");
        server.shutdown();
    }

    #[test]
    fn shutdown_unblocks_accept_and_closes_the_port() {
        let server = echo_server();
        let addr = server.local_addr();
        server.shutdown();
        // After shutdown the listener is gone; a request must fail to
        // connect or fail to produce a response.
        let outcome = http_get(addr, "/ping");
        assert!(outcome.is_err() || outcome.is_ok_and(|(s, _)| s == 0));
    }

    #[test]
    fn concurrent_scrapes_all_answer() {
        let server = echo_server();
        let addr = server.local_addr();
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..8)
                .map(|_| scope.spawn(move || http_get(addr, "/ping").map(|(s, _)| s)))
                .collect();
            for handle in handles {
                assert_eq!(handle.join().unwrap().unwrap(), 200);
            }
        });
        server.shutdown();
    }
}
