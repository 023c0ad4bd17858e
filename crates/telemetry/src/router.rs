//! A minimal dependency-free HTTP/1.1 toolkit on `std::net`.
//!
//! The small HTTP layer under the query-serving subsystem (`svqa serve`)
//! and its metrics routes:
//!
//! * [`Request`] / [`Response`] — one request, one response, no streaming;
//! * [`read_request`] / [`write_response`] — the wire format (request line,
//!   headers, `Content-Length`-delimited bodies);
//! * [`Router`] — exact-path dispatch with automatic 404/405 handling;
//! * [`HttpServer`] — a bound listener that applies per-connection read and
//!   write timeouts, so one silent client cannot wedge a serial accept
//!   loop.
//!
//! Deliberately tiny: no chunked encoding, no keep-alive (every response
//! sends `Connection: close`), no TLS. Good enough for a Prometheus
//! scraper, `curl`, or a load generator hitting localhost.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

/// Upper bound on accepted request bodies. Requests advertising more are
/// answered with `413 Payload Too Large` by [`HttpServer`] handling, and
/// [`read_request`] refuses to buffer them.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Upper bound on the number of request headers (DoS hygiene).
const MAX_HEADERS: usize = 100;

/// Default per-connection read/write timeout.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(5);

/// A parsed HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Upper-cased method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path, query string included, exactly as sent.
    pub path: String,
    /// Headers in arrival order, names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header with this (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8, if it is UTF-8.
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// An HTTP response: status, content type, extra headers, body.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code (200, 404, ...).
    pub status: u16,
    /// `Content-Type` header value.
    pub content_type: String,
    /// Additional headers (e.g. `Retry-After`).
    pub extra_headers: Vec<(String, String)>,
    /// Response body.
    pub body: Vec<u8>,
}

impl Response {
    /// A `text/plain` response.
    pub fn text(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "text/plain; charset=utf-8".to_owned(),
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// An `application/json` response.
    pub fn json(status: u16, body: impl Into<String>) -> Response {
        Response {
            status,
            content_type: "application/json".to_owned(),
            extra_headers: Vec::new(),
            body: body.into().into_bytes(),
        }
    }

    /// Override the content type (builder style).
    pub fn with_content_type(mut self, content_type: &str) -> Response {
        content_type.clone_into(&mut self.content_type);
        self
    }

    /// Append an extra header (builder style).
    pub fn with_header(mut self, name: &str, value: &str) -> Response {
        self.extra_headers.push((name.to_owned(), value.to_owned()));
        self
    }

    /// The canonical reason phrase for this status code.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            204 => "No Content",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "",
        }
    }
}

/// Read and parse one request from `reader`.
///
/// Returns `Ok(None)` on a clean EOF before any bytes (client connected
/// and hung up), an error on malformed input, oversized bodies, or I/O
/// failure (including a read timeout from a silent client).
pub fn read_request(reader: &mut BufReader<TcpStream>) -> io::Result<Option<Request>> {
    let mut request_line = String::new();
    if reader.read_line(&mut request_line)? == 0 {
        return Ok(None);
    }
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_ascii_uppercase();
    let path = parts.next().unwrap_or("/").to_owned();
    if method.is_empty() {
        return Err(io::Error::new(io::ErrorKind::InvalidData, "empty method"));
    }

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "eof inside headers",
            ));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if headers.len() >= MAX_HEADERS {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "too many headers",
            ));
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_owned()));
        }
    }

    let content_length = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse::<usize>().ok())
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "body exceeds MAX_BODY_BYTES",
        ));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Some(Request {
        method,
        path,
        headers,
        body,
    }))
}

/// Write `response` to `stream` with `Connection: close` framing.
pub fn write_response(stream: &mut TcpStream, response: &Response) -> io::Result<()> {
    write!(
        stream,
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n",
        response.status,
        response.reason(),
        response.content_type,
        response.body.len()
    )?;
    for (name, value) in &response.extra_headers {
        write!(stream, "{name}: {value}\r\n")?;
    }
    stream.write_all(b"\r\n")?;
    stream.write_all(&response.body)?;
    stream.flush()
}

type Handler<'h> = Box<dyn Fn(&Request) -> Response + Send + Sync + 'h>;

/// Exact-path request dispatch.
///
/// A matching path with the wrong method yields `405` (with an `Allow`
/// header); an unknown path yields `404`. The handler lifetime is generic
/// so servers built on scoped threads can register handlers that borrow
/// local state.
#[derive(Default)]
pub struct Router<'h> {
    routes: Vec<(&'static str, String, Handler<'h>)>,
}

impl<'h> Router<'h> {
    /// An empty router.
    pub fn new() -> Router<'h> {
        Router { routes: Vec::new() }
    }

    /// Register a `GET` handler for `path` (builder style).
    pub fn get(self, path: &str, f: impl Fn(&Request) -> Response + Send + Sync + 'h) -> Self {
        self.route("GET", path, f)
    }

    /// Register a `POST` handler for `path` (builder style).
    pub fn post(self, path: &str, f: impl Fn(&Request) -> Response + Send + Sync + 'h) -> Self {
        self.route("POST", path, f)
    }

    /// Register a handler for an arbitrary method (builder style).
    pub fn route(
        mut self,
        method: &'static str,
        path: &str,
        f: impl Fn(&Request) -> Response + Send + Sync + 'h,
    ) -> Self {
        self.routes.push((method, path.to_owned(), Box::new(f)));
        self
    }

    /// Dispatch `request` to the matching handler, or synthesize the
    /// 404/405 response.
    pub fn dispatch(&self, request: &Request) -> Response {
        // Ignore any query string for matching purposes.
        let path = request.path.split('?').next().unwrap_or("/");
        let mut allowed: Vec<&'static str> = Vec::new();
        for (method, route, handler) in &self.routes {
            if route == path {
                if *method == request.method {
                    return handler(request);
                }
                allowed.push(method);
            }
        }
        if allowed.is_empty() {
            Response::text(404, format!("no route for {path}\n"))
        } else {
            Response::text(405, format!("{path} supports: {}\n", allowed.join(", ")))
                .with_header("Allow", &allowed.join(", "))
        }
    }
}

/// A bound TCP listener that reads requests with per-connection I/O
/// timeouts and answers them through a [`Router`].
pub struct HttpServer {
    listener: TcpListener,
    io_timeout: Option<Duration>,
}

impl HttpServer {
    /// Bind `addr` (port 0 picks a free port) with the
    /// [default I/O timeout](DEFAULT_IO_TIMEOUT).
    pub fn bind(addr: &str) -> io::Result<HttpServer> {
        Ok(HttpServer {
            listener: TcpListener::bind(addr)?,
            io_timeout: Some(DEFAULT_IO_TIMEOUT),
        })
    }

    /// The actual bound address (useful with port 0).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Override the per-connection read/write timeout (`None` disables).
    pub fn set_io_timeout(&mut self, timeout: Option<Duration>) {
        self.io_timeout = timeout;
    }

    /// Block for one connection, with I/O timeouts already applied.
    pub fn accept(&self) -> io::Result<TcpStream> {
        let (stream, _) = self.listener.accept()?;
        stream.set_read_timeout(self.io_timeout)?;
        stream.set_write_timeout(self.io_timeout)?;
        Ok(stream)
    }

    /// Read one request off `stream`, dispatch it through `router`, and
    /// write the response. Malformed or oversized requests get a 400/413;
    /// a silent client trips the read timeout and is dropped.
    pub fn handle_connection(stream: TcpStream, router: &Router<'_>) -> io::Result<()> {
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut stream = stream;
        match read_request(&mut reader) {
            Ok(Some(request)) => write_response(&mut stream, &router.dispatch(&request)),
            Ok(None) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidData => {
                let status = if e.to_string().contains("MAX_BODY_BYTES") {
                    413
                } else {
                    400
                };
                write_response(&mut stream, &Response::text(status, format!("{e}\n")))
            }
            Err(e) => Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(method: &str, path: &str, body: &[u8]) -> Request {
        Request {
            method: method.to_owned(),
            path: path.to_owned(),
            headers: vec![("content-length".to_owned(), body.len().to_string())],
            body: body.to_vec(),
        }
    }

    fn test_router() -> Router<'static> {
        Router::new()
            .get("/ping", |_| Response::text(200, "pong"))
            .post("/echo", |r: &Request| {
                Response::text(200, r.body_str().unwrap_or("").to_owned())
            })
    }

    #[test]
    fn router_dispatches_by_method_and_path() {
        let router = test_router();
        let ok = router.dispatch(&req("GET", "/ping", b""));
        assert_eq!(ok.status, 200);
        assert_eq!(ok.body, b"pong");

        let echoed = router.dispatch(&req("POST", "/echo", b"hello"));
        assert_eq!(echoed.body, b"hello");

        // Query strings are ignored for matching.
        let ok = router.dispatch(&req("GET", "/ping?x=1", b""));
        assert_eq!(ok.status, 200);
    }

    #[test]
    fn router_distinguishes_404_from_405() {
        let router = test_router();
        assert_eq!(router.dispatch(&req("GET", "/nope", b"")).status, 404);
        let wrong_method = router.dispatch(&req("POST", "/ping", b""));
        assert_eq!(wrong_method.status, 405);
        assert!(wrong_method
            .extra_headers
            .iter()
            .any(|(n, v)| n == "Allow" && v == "GET"));
    }

    #[test]
    fn end_to_end_request_with_body_over_tcp() {
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let router = test_router();
            let stream = server.accept().unwrap();
            HttpServer::handle_connection(stream, &router).unwrap();
        });

        let mut client = TcpStream::connect(addr).unwrap();
        write!(
            client,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello"
        )
        .unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        assert!(response.ends_with("hello"), "{response}");
        t.join().unwrap();
    }

    #[test]
    fn silent_client_times_out_and_does_not_wedge_the_loop() {
        let mut server = HttpServer::bind("127.0.0.1:0").unwrap();
        server.set_io_timeout(Some(Duration::from_millis(100)));
        let addr = server.local_addr().unwrap();

        let t = std::thread::spawn(move || {
            // Serial loop: the silent connection must time out so the
            // second (real) client gets served.
            for _ in 0..2 {
                let router = test_router();
                if let Ok(stream) = server.accept() {
                    let _ = HttpServer::handle_connection(stream, &router);
                }
            }
        });

        let _silent = TcpStream::connect(addr).unwrap(); // never writes
        let mut client = TcpStream::connect(addr).unwrap();
        write!(client, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");
        t.join().unwrap();
    }

    #[test]
    fn oversized_bodies_are_rejected_with_413() {
        let server = HttpServer::bind("127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let t = std::thread::spawn(move || {
            let router = test_router();
            let stream = server.accept().unwrap();
            let _ = HttpServer::handle_connection(stream, &router);
        });

        let mut client = TcpStream::connect(addr).unwrap();
        write!(
            client,
            "POST /echo HTTP/1.1\r\nHost: x\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        )
        .unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 413"), "{response}");
        t.join().unwrap();
    }
}
