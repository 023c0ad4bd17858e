//! Helpers shared by the integration tests that drive a `QueryServer`
//! over real TCP.

// Each test binary compiles this module and uses a subset of it.
#![allow(dead_code)]

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread::JoinHandle;
use svqa::{QueryServer, ServeConfig, Svqa};

/// One HTTP/1.1 request; returns (status code, headers, body).
pub fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\n\
         Content-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header separator");
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("status code");
    (status, head.to_owned(), body.to_owned())
}

/// Bind `system` on a free port and serve it on a background thread.
pub fn start_server(
    system: Svqa,
    config: ServeConfig,
) -> (SocketAddr, JoinHandle<std::io::Result<()>>) {
    let server = QueryServer::bind(system, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr().expect("local addr");
    let handle = std::thread::spawn(move || server.serve());
    (addr, handle)
}

/// `POST /shutdown`, then wait for the drain to finish cleanly.
pub fn shutdown_and_join(addr: SocketAddr, handle: JoinHandle<std::io::Result<()>>) {
    let (status, _, _) = http(addr, "POST", "/shutdown", "");
    assert_eq!(status, 200);
    handle
        .join()
        .expect("serve thread panicked")
        .expect("serve returned an error");
}
