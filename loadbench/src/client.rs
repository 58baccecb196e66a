//! A small HTTP/1.1 client.
//!
//! Responses are framed by `Content-Length` or chunked transfer coding,
//! never by the server closing the socket, and the socket is reused
//! unless the server closes it or answers `Connection: close`. Every
//! request carries a deadline, so a stalled server shows up as failed
//! requests instead of a hung run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest status or header line accepted.
const MAX_LINE: u64 = 16 * 1024;
/// Most header lines accepted in one response.
const MAX_HEADERS: usize = 100;
/// Largest body accepted.
const MAX_BODY: usize = 64 << 20;

#[derive(Debug)]
pub enum ClientError {
    /// The deadline passed before the response was complete.
    Deadline,
    /// The connection closed before a response began (a stale reused
    /// socket, when it happens on one).
    Closed,
    Io(std::io::Error),
    /// The bytes received are not a well-formed HTTP/1.1 response.
    Framing(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Deadline => write!(f, "deadline exceeded"),
            ClientError::Closed => write!(f, "connection closed before a response"),
            ClientError::Io(e) => write!(f, "i/o: {e}"),
            ClientError::Framing(m) => write!(f, "framing: {m}"),
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> ClientError {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => ClientError::Deadline,
            _ => ClientError::Io(e),
        }
    }
}

fn framing(msg: impl Into<String>) -> ClientError {
    ClientError::Framing(msg.into())
}

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// The server will close the connection after this response.
    pub close: bool,
    pub body: Vec<u8>,
}

/// A socket whose every read is bounded by the current request's
/// deadline.
struct Timed {
    stream: TcpStream,
    deadline: Instant,
}

impl Read for Timed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(std::io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        self.stream.read(buf)
    }
}

/// One client connection slot: at most one socket open at a time.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    conn: Option<BufReader<Timed>>,
    /// TCP connections opened so far.
    pub connects: u64,
    /// Response body bytes received so far.
    pub body_bytes: u64,
}

impl Client {
    pub fn new(addr: SocketAddr, timeout: Duration) -> Client {
        Client {
            addr,
            timeout,
            conn: None,
            connects: 0,
            body_bytes: 0,
        }
    }

    /// Send one request and read its whole response. A reused socket
    /// that turns out to be closed is replaced once.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        request_id: Option<&str>,
    ) -> Result<Response, ClientError> {
        let deadline = Instant::now() + self.timeout;
        let mut raw = Vec::with_capacity(192 + body.map_or(0, <[u8]>::len));
        write!(raw, "{method} {path} HTTP/1.1\r\nHost: {}\r\n", self.addr)?;
        if let Some(id) = request_id {
            write!(raw, "X-Request-Id: {id}\r\n")?;
        }
        if let Some(b) = body {
            write!(
                raw,
                "Content-Type: application/json\r\nContent-Length: {}\r\n",
                b.len()
            )?;
        }
        raw.extend_from_slice(b"\r\n");
        if let Some(b) = body {
            raw.extend_from_slice(b);
        }
        let reused = self.conn.is_some();
        let resp = match self.exchange(&raw, deadline) {
            Err(ClientError::Closed) if reused => self.exchange(&raw, deadline),
            other => other,
        }?;
        self.body_bytes += resp.body.len() as u64;
        Ok(resp)
    }

    fn exchange(&mut self, raw: &[u8], deadline: Instant) -> Result<Response, ClientError> {
        if self.conn.is_none() {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(ClientError::Deadline);
            }
            let stream = TcpStream::connect_timeout(&self.addr, left)?;
            stream.set_nodelay(true)?;
            self.connects += 1;
            self.conn = Some(BufReader::new(Timed { stream, deadline }));
        }
        let conn = self.conn.as_mut().expect("connection opened above");
        conn.get_mut().deadline = deadline;
        let result = send_and_read(conn, raw, deadline);
        if !matches!(&result, Ok(resp) if !resp.close) {
            self.conn = None;
        }
        result
    }
}

fn send_and_read(
    conn: &mut BufReader<Timed>,
    raw: &[u8],
    deadline: Instant,
) -> Result<Response, ClientError> {
    let stream = &mut conn.get_mut().stream;
    let left = deadline.saturating_duration_since(Instant::now());
    if left.is_zero() {
        return Err(ClientError::Deadline);
    }
    stream.set_write_timeout(Some(left))?;
    match stream.write_all(raw) {
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => return Err(ClientError::Closed),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {
            return Err(ClientError::Closed)
        }
        other => other?,
    }
    read_response(conn)
}

/// Read one CRLF- (or LF-) terminated line without the terminator.
/// `Ok(None)` at a clean end of stream.
fn read_line(r: &mut impl BufRead) -> Result<Option<String>, ClientError> {
    let mut buf = Vec::new();
    let n = r.by_ref().take(MAX_LINE).read_until(b'\n', &mut buf)?;
    if n == 0 {
        return Ok(None);
    }
    if buf.last() != Some(&b'\n') {
        return Err(framing(if n as u64 >= MAX_LINE {
            "line too long"
        } else {
            "truncated line"
        }));
    }
    buf.pop();
    if buf.last() == Some(&b'\r') {
        buf.pop();
    }
    String::from_utf8(buf)
        .map(Some)
        .map_err(|_| framing("non-UTF-8 line"))
}

fn require_line(r: &mut impl BufRead) -> Result<String, ClientError> {
    read_line(r)?.ok_or_else(|| framing("connection closed mid-response"))
}

/// Parse one response: status line, headers, and a body framed by
/// `Content-Length` or chunked coding. A body framed only by the end of
/// the stream is a framing error, even under `Connection: close`.
pub fn read_response(r: &mut impl BufRead) -> Result<Response, ClientError> {
    let status_line = read_line(r)?.ok_or(ClientError::Closed)?;
    let mut parts = status_line.splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| framing(format!("bad status line '{status_line}'")))?;
    if !version.starts_with("HTTP/1.") {
        return Err(framing(format!("bad version in '{status_line}'")));
    }
    let mut close = version == "HTTP/1.0";
    let mut length: Option<usize> = None;
    let mut chunked = false;
    let mut headers = 0usize;
    loop {
        let line = require_line(r)?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(framing("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| framing(format!("bad header '{line}'")))?;
        let value = value.trim();
        match name.trim().to_ascii_lowercase().as_str() {
            "content-length" => {
                let n: usize = value
                    .parse()
                    .map_err(|_| framing(format!("bad Content-Length '{value}'")))?;
                if n > MAX_BODY {
                    return Err(framing("body too large"));
                }
                length = Some(n);
            }
            "transfer-encoding" => {
                chunked = value
                    .to_ascii_lowercase()
                    .split(',')
                    .any(|c| c.trim() == "chunked")
            }
            "connection" => {
                let v = value.to_ascii_lowercase();
                if v.split(',').any(|t| t.trim() == "close") {
                    close = true;
                } else if v.split(',').any(|t| t.trim() == "keep-alive") {
                    close = false;
                }
            }
            _ => {}
        }
    }
    let body = if status < 200 || status == 204 || status == 304 {
        Vec::new()
    } else if chunked {
        read_chunked(r)?
    } else if let Some(n) = length {
        let mut body = vec![0; n];
        r.read_exact(&mut body).map_err(|e| match e.kind() {
            std::io::ErrorKind::UnexpectedEof => framing("body shorter than Content-Length"),
            _ => e.into(),
        })?;
        body
    } else {
        return Err(framing("response has neither a length nor chunked coding"));
    };
    Ok(Response {
        status,
        close,
        body,
    })
}

/// Decode a chunked body (RFC 9112 §7.1), discarding chunk extensions
/// and trailer fields.
pub fn read_chunked(r: &mut impl BufRead) -> Result<Vec<u8>, ClientError> {
    let mut body = Vec::new();
    loop {
        let line = require_line(r)?;
        let size = line.split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size, 16)
            .map_err(|_| framing(format!("bad chunk size '{line}'")))?;
        if size == 0 {
            while !require_line(r)?.is_empty() {}
            return Ok(body);
        }
        if body.len() + size > MAX_BODY {
            return Err(framing("body too large"));
        }
        let start = body.len();
        body.resize(start + size, 0);
        r.read_exact(&mut body[start..])
            .map_err(|e| match e.kind() {
                std::io::ErrorKind::UnexpectedEof => framing("truncated chunk"),
                _ => e.into(),
            })?;
        if !require_line(r)?.is_empty() {
            return Err(framing("chunk data longer than its size"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(raw: &str) -> Result<Response, ClientError> {
        read_response(&mut raw.as_bytes())
    }

    #[test]
    fn chunked_ndjson_decodes() {
        let raw = "6\r\n{\"a\":1\r\n2\r\n}\n\r\n7;ext=1\r\n{\"b\":2}\r\n1\r\n\n\r\n0\r\n\r\n";
        let body = read_chunked(&mut raw.as_bytes()).unwrap();
        assert_eq!(body, b"{\"a\":1}\n{\"b\":2}\n");
    }

    #[test]
    fn chunked_trailers_are_skipped() {
        let raw = "3\r\nabc\r\n0\r\nX-Trailer: 1\r\n\r\nnext";
        let mut r = raw.as_bytes();
        assert_eq!(read_chunked(&mut r).unwrap(), b"abc");
        assert_eq!(r, b"next", "the decoder stops right after the body");
    }

    #[test]
    fn chunked_rejects_malformed_input() {
        for raw in [
            "zz\r\nabc\r\n0\r\n\r\n",
            "5\r\nabc",
            "3\r\nabcdef\r\n0\r\n\r\n",
            "3\r\nabc\r\n",
        ] {
            assert!(
                matches!(
                    read_chunked(&mut raw.as_bytes()),
                    Err(ClientError::Framing(_))
                ),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn content_length_frames_keep_alive_responses() {
        let raw = "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhelloHTTP/1.1 204 No Content\r\nConnection: close\r\n\r\n";
        let mut r = raw.as_bytes();
        let first = read_response(&mut r).unwrap();
        assert_eq!(
            (first.status, first.close, &first.body[..]),
            (200, false, &b"hello"[..])
        );
        let second = read_response(&mut r).unwrap();
        assert_eq!(
            (second.status, second.close, second.body.len()),
            (204, true, 0)
        );
    }

    #[test]
    fn chunked_response_and_close_header() {
        let raw = "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n2\r\nok\r\n0\r\n\r\n";
        let resp = parse(raw).unwrap();
        assert_eq!(
            (resp.status, resp.close, &resp.body[..]),
            (200, true, &b"ok"[..])
        );
    }

    #[test]
    fn unframed_bodies_are_framing_errors() {
        for raw in [
            "HTTP/1.1 200 OK\r\n\r\nbody",
            "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody",
        ] {
            assert!(
                matches!(parse(raw), Err(ClientError::Framing(_))),
                "{raw:?}"
            );
        }
    }

    #[test]
    fn short_bodies_and_garbage_are_framing_errors() {
        assert!(matches!(
            parse("HTTP/1.1 200 OK\r\nContent-Length: 9\r\n\r\nshort"),
            Err(ClientError::Framing(_))
        ));
        assert!(matches!(
            parse("SSH-2.0-x\r\n\r\n"),
            Err(ClientError::Framing(_))
        ));
        assert!(matches!(parse(""), Err(ClientError::Closed)));
    }
}
