//! A minimal HTTP/1.1 server-side codec over [`TcpStream`] (requests are
//! read from any [`Read`]).
//!
//! Covers exactly what `bvf-serve` needs and nothing more: parse one
//! request (method, path, headers, `Content-Length` body) with hard size
//! limits — the peer is untrusted — and write either a plain response or a
//! `Transfer-Encoding: chunked` stream, one JSONL line per chunk. Every
//! response carries `Connection: close`: one request per connection keeps
//! the server's concurrency story (one handler thread per connection, no
//! keep-alive bookkeeping) trivial to reason about.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Hard cap on the request line plus all header bytes.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Hard cap on the request body. Campaign requests are a few hundred
/// bytes; anything near this limit is garbage or abuse.
pub const MAX_BODY_BYTES: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, ... (uppercased by the client, echoed verbatim).
    pub method: String,
    /// The request target, e.g. `/run`.
    pub path: String,
    /// The body (empty when the request carried none).
    pub body: String,
}

/// Why a request could not be parsed, mapped to the status the handler
/// should answer with.
#[derive(Debug)]
pub enum RequestError {
    /// Head or body exceeded its limit → 413.
    TooLarge,
    /// Not parseable as HTTP/1.1 → 400.
    Malformed(&'static str),
    /// The socket failed mid-read; no response is possible.
    Io(std::io::Error),
}

/// Read one request from `stream` (a `&mut TcpStream` in the server).
///
/// The caller is expected to have set a read timeout: a peer that opens a
/// connection and never finishes its head would otherwise pin a handler
/// thread forever. Every line read is bounded by what is left of
/// [`MAX_HEAD_BYTES`], so a head without a newline is cut off at the cap
/// instead of buffered without bound.
pub fn read_request<R: Read>(stream: R) -> Result<Request, RequestError> {
    let mut reader = BufReader::new(stream);
    let mut head_left = MAX_HEAD_BYTES;
    let mut bytes = Vec::new();
    let mut read_line = |reader: &mut BufReader<R>| -> Result<String, RequestError> {
        bytes.clear();
        let n = reader
            .by_ref()
            .take(head_left as u64 + 1)
            .read_until(b'\n', &mut bytes)
            .map_err(RequestError::Io)?;
        if n == 0 {
            return Err(RequestError::Malformed("connection closed mid-request"));
        }
        if n > head_left {
            return Err(RequestError::TooLarge);
        }
        head_left -= n;
        let line = std::str::from_utf8(&bytes)
            .map_err(|_| RequestError::Malformed("request head is not UTF-8"))?;
        Ok(line.trim_end_matches(['\r', '\n']).to_string())
    };

    let request_line = read_line(&mut reader)?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(RequestError::Malformed("empty request line"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(RequestError::Malformed("request line has no target"))?
        .to_string();
    match parts.next() {
        Some(v) if v.starts_with("HTTP/1.") => {}
        _ => return Err(RequestError::Malformed("not an HTTP/1.x request")),
    }

    let mut content_length = None;
    loop {
        let header = read_line(&mut reader)?;
        if header.is_empty() {
            break;
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(RequestError::Malformed("header line has no colon"));
        };
        if name.eq_ignore_ascii_case("content-length") {
            // RFC 9112 §6.3: a repeated or non-decimal length makes the
            // body's framing ambiguous, so the request is rejected.
            if content_length.is_some() {
                return Err(RequestError::Malformed("repeated Content-Length"));
            }
            let value = value.trim();
            let length = value
                .parse()
                .ok()
                .filter(|_| value.bytes().all(|b| b.is_ascii_digit()));
            content_length =
                Some(length.ok_or(RequestError::Malformed("unparseable Content-Length"))?);
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // Accepting chunked *requests* would mean trusting the peer's
            // framing for an unbounded body; nothing this server serves
            // needs one.
            return Err(RequestError::Malformed(
                "chunked request bodies unsupported",
            ));
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(RequestError::TooLarge);
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(RequestError::Io)?;
    let body = String::from_utf8(body).map_err(|_| RequestError::Malformed("body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

/// Write a complete (non-chunked) response and flush it.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra_headers: &[(&str, &str)],
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

/// An in-progress `Transfer-Encoding: chunked` response body. Each line
/// goes out as its own chunk the moment it exists, so a client sees
/// per-application results while later applications are still simulating.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Write the status line and headers, committing to a chunked body.
    pub fn begin(
        stream: &'a mut TcpStream,
        status: u16,
        reason: &str,
        content_type: &str,
    ) -> std::io::Result<Self> {
        let head = format!(
            "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
             Transfer-Encoding: chunked\r\nConnection: close\r\n\r\n"
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(Self { stream })
    }

    /// Send `line` plus a trailing newline as one chunk.
    pub fn line(&mut self, line: &str) -> std::io::Result<()> {
        let chunk = format!("{:x}\r\n{line}\n\r\n", line.len() + 1);
        self.stream.write_all(chunk.as_bytes())?;
        self.stream.flush()
    }

    /// Terminate the chunk stream.
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}
