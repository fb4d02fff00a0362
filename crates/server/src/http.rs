//! A minimal HTTP/1.1 layer over `std::net` — just enough surface for the
//! query service, with zero dependencies.
//!
//! Scope (deliberate):
//! * one request per connection (`Connection: close` on every response),
//! * `Content-Length` bodies only: a request with a `Transfer-Encoding`
//!   header, or with `Content-Length` headers that disagree, is malformed
//!   (no inbound chunked decoding),
//! * hard size limits on head and body (the server fails closed on
//!   oversized or malformed input — it never panics on hostile bytes),
//! * outbound `Transfer-Encoding: chunked` for streaming responses, one
//!   chunk per report so clients see progressive answers as they happen.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (SQL text).
pub const MAX_BODY_BYTES: usize = 256 * 1024;

/// A parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    /// Header names lowercased; last occurrence wins.
    headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Request {
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when the client asked for Server-Sent Events.
    pub fn wants_sse(&self) -> bool {
        self.header("accept")
            .is_some_and(|a| a.contains("text/event-stream"))
    }

    pub fn body_utf8(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body).map_err(|_| HttpError::Malformed("body is not UTF-8"))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Protocol violation; carries a static diagnostic.
    Malformed(&'static str),
    /// Head or body over the hard limit.
    TooLarge(&'static str),
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(what) => write!(f, "malformed request: {what}"),
            HttpError::TooLarge(what) => write!(f, "request too large: {what}"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {}

/// Read one request off the stream (a socket in the server; any byte
/// source in tests).
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, HttpError> {
    let mut reader = BufReader::new(stream);
    let mut head = Vec::new();
    // Read the head byte-wise up to the blank line, bounded.
    loop {
        let mut line = Vec::new();
        let n = reader
            .by_ref()
            .take((MAX_HEAD_BYTES - head.len()) as u64)
            .read_until(b'\n', &mut line)
            .map_err(HttpError::Io)?;
        if n == 0 {
            return Err(HttpError::Malformed("connection closed mid-head"));
        }
        let blank = line == b"\r\n" || line == b"\n";
        head.extend_from_slice(&line);
        if head.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::TooLarge("head"));
        }
        if blank {
            break;
        }
    }
    let head = std::str::from_utf8(&head).map_err(|_| HttpError::Malformed("head not UTF-8"))?;
    let mut lines = head.lines();
    let request_line = lines.next().ok_or(HttpError::Malformed("empty head"))?;
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .ok_or(HttpError::Malformed("missing path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed("unsupported HTTP version"));
    }

    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            break;
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::Malformed("header without colon"));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    // RFC 9112 §6.3: a body this server cannot frame is a 400, never a
    // guess. It decodes no inbound chunked body, so any transfer coding is
    // refused, and `Content-Length` headers that disagree have no length.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed("transfer-encoding not supported"));
    }
    let mut lengths = (headers.iter())
        .filter(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse::<usize>());
    let content_length = match lengths.next().transpose() {
        Ok(first) if lengths.all(|v| v.ok() == first) => first.unwrap_or(0),
        Ok(_) => return Err(HttpError::Malformed("conflicting content-length")),
        Err(_) => return Err(HttpError::Malformed("bad content-length")),
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge("body"));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).map_err(HttpError::Io)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Writes one response. Either a fixed body ([`Response::send`]) or a
/// chunked stream ([`Response::stream`] + [`ChunkedBody`]).
pub struct Response<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> Response<'a> {
    pub fn new(stream: &'a mut TcpStream) -> Response<'a> {
        Response { stream }
    }

    /// Send a complete response with a `Content-Length` body.
    pub fn send(self, status: u16, content_type: &str, body: &[u8]) -> std::io::Result<()> {
        self.send_with_headers(status, content_type, &[], body)
    }

    /// [`Response::send`] plus extra response headers (e.g. `Retry-After`
    /// on a 503). Header names/values must be pre-sanitized; callers pass
    /// literals.
    pub fn send_with_headers(
        self,
        status: u16,
        content_type: &str,
        extra: &[(&str, &str)],
        body: &[u8],
    ) -> std::io::Result<()> {
        let mut head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
             content-length: {}\r\nconnection: close\r\n",
            reason(status),
            body.len(),
        );
        for (name, value) in extra {
            head.push_str(name);
            head.push_str(": ");
            head.push_str(value);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body)?;
        self.stream.flush()
    }

    /// Start a chunked streaming response; each [`ChunkedBody::chunk`] is
    /// flushed immediately so the client sees answers progressively.
    pub fn stream(self, status: u16, content_type: &str) -> std::io::Result<ChunkedBody<'a>> {
        let head = format!(
            "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
             transfer-encoding: chunked\r\nconnection: close\r\n\r\n",
            reason(status),
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.flush()?;
        Ok(ChunkedBody {
            stream: self.stream,
        })
    }
}

/// An in-flight chunked body.
pub struct ChunkedBody<'a> {
    stream: &'a mut TcpStream,
}

impl ChunkedBody<'_> {
    pub fn chunk(&mut self, data: &[u8]) -> std::io::Result<()> {
        if data.is_empty() {
            return Ok(()); // an empty chunk would terminate the stream
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminate the stream (the zero-length chunk).
    pub fn finish(self) -> std::io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        413 => "Payload Too Large",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}
