//! A blocking one-request-per-connection HTTP/1.1 client, matching the
//! server's `Connection: close` framing.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Body as text.
    pub body: String,
}

/// Send one request on a fresh connection and read the whole reply.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut wire = head.into_bytes();
    wire.extend_from_slice(body.as_bytes());
    stream.write_all(&wire)?;
    read_reply(&mut stream)
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// Read a status line, headers, and a `Content-Length` body (or, without
/// one, everything up to EOF).
fn read_reply(stream: &mut impl Read) -> io::Result<Reply> {
    let mut buf = Vec::with_capacity(1024);
    let mut chunk = [0u8; 4096];
    let header_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos + 4;
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed before the headers ended"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..header_end]).map_err(|_| invalid("non-UTF-8 headers"))?;
    let mut lines = head.split("\r\n");
    let status: u16 = lines
        .next()
        .and_then(|l| l.split_whitespace().nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid("bad status line"))?;
    let length = lines
        .filter_map(|l| l.split_once(':'))
        .find(|(k, _)| k.trim().eq_ignore_ascii_case("content-length"))
        .map(|(_, v)| {
            v.trim()
                .parse::<usize>()
                .map_err(|_| invalid("bad Content-Length"))
        })
        .transpose()?;
    let mut body = buf.split_off(header_end);
    match length {
        Some(len) => {
            while body.len() < len {
                let n = stream.read(&mut chunk)?;
                if n == 0 {
                    return Err(invalid("connection closed inside the body"));
                }
                body.extend_from_slice(&chunk[..n]);
            }
            body.truncate(len);
        }
        None => {
            stream.read_to_end(&mut body)?;
        }
    }
    let body = String::from_utf8(body).map_err(|_| invalid("non-UTF-8 body"))?;
    Ok(Reply { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_content_length_reply() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\ncontent-length: 5\r\nRetry-After: 1\r\n\r\nhello trailing";
        let reply = read_reply(&mut &raw[..]).unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.body, "hello");
    }

    #[test]
    fn truncated_bodies_are_errors() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort";
        assert!(read_reply(&mut &raw[..]).is_err());
    }
}
