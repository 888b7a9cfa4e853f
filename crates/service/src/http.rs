//! A deliberately small HTTP/1.1 implementation over `std::net`.
//!
//! The workspace builds fully offline with zero crates.io dependencies, so
//! the service speaks the minimal dialect its clients need instead of
//! pulling in a web stack: `Content-Length` bodies only (chunked transfer
//! is rejected, not ignored), persistent connections per RFC 9112
//! (`Connection: keep-alive`/`close` honored in both directions), and hard
//! caps on header and body sizes so a misbehaving peer cannot balloon
//! memory. That subset is valid HTTP/1.1 and is what `curl`, the bundled
//! [`crate::client`], and the CI driver exercise.
//!
//! Because a connection can now carry a second request, request framing is
//! strict where it used to be lax: a duplicate `Content-Length`, any
//! `Transfer-Encoding` header, or whitespace between a header name and its
//! colon is a 400, not a guess — each of those laxities is harmless under
//! close-per-request but a request-smuggling vector under keep-alive.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Maximum accepted size of the request line + headers, in bytes.
pub const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Maximum accepted request body, in bytes (graphs are edge lists; 64 MiB
/// is ~4M edges of JSON).
pub const MAX_BODY_BYTES: usize = 64 * 1024 * 1024;
/// Per-connection write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(10);
/// Per-read deadline while receiving a request. Deliberately short:
/// request parsing runs on a pooled worker, so a connection that stalls
/// mid-request can hold a worker for at most this long per read — the
/// cheap std-only mitigation of slow-client worker starvation.
pub const READ_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a keep-alive connection may sit idle *between* requests
/// before the server closes it.
pub const IDLE_TIMEOUT: Duration = Duration::from_secs(5);
/// Requests served on one connection before the server closes it (the
/// response that hits the cap advertises `Connection: close`). Bounds how
/// long one client can monopolize a pooled worker.
pub const MAX_REQUESTS_PER_CONNECTION: usize = 128;
/// Wall-clock cap on one connection's total lifetime. A keep-alive
/// connection occupies a pooled worker even while idle between requests,
/// so without this cap a client pacing cheap requests just under the
/// idle deadline could hold a worker for `MAX_REQUESTS_PER_CONNECTION ×
/// IDLE_TIMEOUT` — minutes, not seconds. The lifetime cap bounds the
/// hold regardless of request pacing; a well-behaved client's
/// [`crate::client::Client`] reconnects transparently.
pub const MAX_CONNECTION_LIFETIME: Duration = Duration::from_secs(60);

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method (`GET`, `POST`, ...).
    pub method: String,
    /// Request path including any query string, e.g. `/analyze`.
    pub path: String,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True for `HTTP/1.1` (and later minors), false for `HTTP/1.0` —
    /// decides the default connection persistence.
    pub http11: bool,
}

impl Request {
    /// First value of the (lowercased) header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }

    /// Whether the peer wants the connection kept open after this request,
    /// per RFC 9112 §9.3: `Connection: close` always closes,
    /// `Connection: keep-alive` always persists, and the default is
    /// persistent for HTTP/1.1, close for HTTP/1.0.
    pub fn wants_keep_alive(&self) -> bool {
        match self.header("connection") {
            Some(v) => {
                let mut keep = self.http11;
                for token in v.split(',') {
                    match token.trim().to_ascii_lowercase().as_str() {
                        "close" => return false,
                        "keep-alive" => keep = true,
                        _ => {}
                    }
                }
                keep
            }
            None => self.http11,
        }
    }
}

/// Why a request could not be parsed; maps to an HTTP status.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or length field → 400.
    Malformed(String),
    /// Headers or body exceed the hard caps → 413.
    TooLarge(String),
    /// The peer closed (or went idle past the deadline) *between*
    /// requests — the clean end of a keep-alive conversation, not an
    /// error to report.
    Closed,
    /// Socket failure or timeout mid-request.
    Io(std::io::Error),
}

impl std::fmt::Display for HttpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HttpError::Malformed(m) => write!(f, "malformed request: {m}"),
            HttpError::TooLarge(m) => write!(f, "request too large: {m}"),
            HttpError::Closed => write!(f, "connection closed between requests"),
            HttpError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads one HTTP/1.1 request from `reader`.
///
/// The reader persists across requests on a keep-alive connection — a
/// pipelined second request buffered during the first read must not be
/// discarded, so the caller owns the `BufReader` and hands it back for
/// every request.
///
/// # Errors
/// [`HttpError::Closed`] if the peer closed before sending any byte of a
/// request, [`HttpError::Malformed`] on protocol violations,
/// [`HttpError::TooLarge`] past the size caps, [`HttpError::Io`] on socket
/// failures.
pub fn read_request(reader: &mut BufReader<TcpStream>) -> Result<Request, HttpError> {
    let mut line = String::new();
    let mut header_bytes = 0usize;

    match read_crlf_line(reader, &mut line, &mut header_bytes) {
        Err(HttpError::Malformed(_)) if header_bytes == 0 => return Err(HttpError::Closed),
        other => other?,
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing path".into()))?
        .to_string();
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("request line missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::Malformed(format!(
            "unsupported version {version}"
        )));
    }
    let http11 = version != "HTTP/1.0";

    let mut headers: Vec<(String, String)> = Vec::new();
    loop {
        read_crlf_line(reader, &mut line, &mut header_bytes)?;
        if line.is_empty() {
            break;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header without ':': {line}")))?;
        // RFC 9112 §5.1: no whitespace between the field name and the
        // colon (`Content-Length : 5` must not parse as a length — two
        // hops disagreeing on where the next request starts is exactly
        // how requests get smuggled), and none inside the name either.
        if name.is_empty() || name.chars().any(|c| c.is_ascii_whitespace()) {
            return Err(HttpError::Malformed(format!(
                "whitespace in header name: {line:?}"
            )));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }

    // Reject framing ambiguity outright instead of picking one reading.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::Malformed(
            "transfer-encoding is not supported; send a content-length body".into(),
        ));
    }
    let mut lengths = headers.iter().filter(|(k, _)| k == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => {
            return Err(HttpError::Malformed(
                "duplicate content-length headers".into(),
            ))
        }
        (Some((_, v)), None) => {
            // Digits only: `parse` alone would also accept `+5`, and a
            // value like `5, 5` must be a 400, not a guess.
            if v.is_empty() || !v.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::Malformed(format!("bad content-length: {v}")));
            }
            v.parse::<usize>()
                .map_err(|_| HttpError::Malformed(format!("bad content-length: {v}")))?
        }
    };
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::TooLarge(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
        http11,
    })
}

/// Reads one `\r\n`-terminated line into `line` (terminator stripped),
/// charging its bytes against the header cap. The read itself is capped
/// via `Take`, so a peer streaming bytes with no newline hits the cap
/// instead of growing the buffer without bound. Shared by the server's
/// request reader and [`crate::client`]'s response reader; a peer that
/// closed before sending a byte leaves `header_bytes` unchanged.
pub(crate) fn read_crlf_line(
    reader: &mut impl BufRead,
    line: &mut String,
    header_bytes: &mut usize,
) -> Result<(), HttpError> {
    let budget = (MAX_HEADER_BYTES - *header_bytes) as u64;
    if budget == 0 {
        return Err(HttpError::TooLarge(format!(
            "headers exceed the {MAX_HEADER_BYTES}-byte cap"
        )));
    }
    let mut raw = Vec::new();
    let n = reader.by_ref().take(budget).read_until(b'\n', &mut raw)?;
    if n == 0 {
        return Err(HttpError::Malformed("connection closed mid-message".into()));
    }
    *header_bytes += n;
    if raw.last() != Some(&b'\n') {
        // Either the budget ran out mid-line or the peer closed without
        // terminating the line; with bytes still owed, it's the cap.
        return Err(if n as u64 == budget {
            HttpError::TooLarge(format!("headers exceed the {MAX_HEADER_BYTES}-byte cap"))
        } else {
            HttpError::Malformed("connection closed mid-message".into())
        });
    }
    line.clear();
    line.push_str(
        std::str::from_utf8(&raw)
            .map_err(|_| HttpError::Malformed("header line is not UTF-8".into()))?,
    );
    while line.ends_with('\n') || line.ends_with('\r') {
        line.pop();
    }
    Ok(())
}

/// Per-connection limits for [`serve_connection`].
#[derive(Debug, Clone, Copy)]
pub struct ConnectionLimits {
    /// How long the connection may idle *between* requests.
    pub idle_timeout: Duration,
    /// Requests served before the connection is closed.
    pub max_requests: usize,
}

/// The persistent-connection request loop shared by every HTTP front in
/// the workspace (the analysis server and the cluster router): serve
/// requests until the peer closes, asks for `Connection: close`, idles
/// past the deadline, hits the request cap or the
/// [`MAX_CONNECTION_LIFETIME`] wall-clock cap, or sends something
/// malformed (close-on-malformed — a peer we cannot frame-sync with must
/// not get a second read; the 400/413 is written here before closing).
///
/// `on_request(stream, request, keep)` handles one request and must write
/// exactly one response advertising the given `keep` disposition;
/// `on_protocol_error` runs once per malformed/oversized request, for
/// error counters.
pub fn serve_connection(
    stream: TcpStream,
    limits: &ConnectionLimits,
    mut on_request: impl FnMut(&mut TcpStream, &Request, bool),
    mut on_protocol_error: impl FnMut(&HttpError),
) {
    let started = std::time::Instant::now();
    let max_requests = limits.max_requests.max(1);
    let mut reader = BufReader::new(stream);
    let mut served = 0usize;
    loop {
        if served > 0 {
            // Between requests the connection may idle up to the idle
            // deadline (vs. the short READ_TIMEOUT while mid-request),
            // but never past the connection's wall-clock lifetime cap —
            // an idle keep-alive connection holds a pooled worker.
            // fill_buf returns instantly for a pipelined next request.
            let remaining = MAX_CONNECTION_LIFETIME.saturating_sub(started.elapsed());
            if remaining.is_zero() {
                return; // lifetime cap reached
            }
            // set_read_timeout rejects a zero Duration; clamp up.
            let idle = limits
                .idle_timeout
                .min(remaining)
                .max(Duration::from_millis(1));
            let _ = reader.get_ref().set_read_timeout(Some(idle));
            match reader.fill_buf() {
                Ok([]) => return, // peer closed between requests
                Ok(_) => {}       // next request has begun
                Err(_) => return, // idle deadline, lifetime cap, or socket error
            }
            let _ = reader.get_ref().set_read_timeout(Some(READ_TIMEOUT));
        }
        let request = match read_request(&mut reader) {
            Ok(r) => r,
            Err(HttpError::Closed) => return, // clean close, nothing sent
            Err(HttpError::Io(_)) => return,  // peer went away; nothing to say
            Err(err) => {
                on_protocol_error(&err);
                let (status, msg) = match &err {
                    HttpError::Malformed(m) => (400, m.clone()),
                    HttpError::TooLarge(m) => (413, m.clone()),
                    HttpError::Closed | HttpError::Io(_) => unreachable!("handled above"),
                };
                respond_error(reader.get_mut(), status, false, &[], &msg);
                return;
            }
        };
        served += 1;
        let keep = request.wants_keep_alive() && served < max_requests;
        on_request(reader.get_mut(), &request, keep);
        if !keep {
            return;
        }
    }
}

/// Writes the standard JSON error body (`{"error": message}\n`) with the
/// given status and `extra` headers (e.g. `Retry-After`). The one place
/// the `{"error": ...}` body shape is built — the message goes through
/// the JSON serializer, so embedded quotes stay valid JSON.
pub fn respond_error(
    stream: &mut TcpStream,
    status: u16,
    keep: bool,
    extra: &[(&str, String)],
    message: &str,
) {
    let body = graphio_graph::json::JsonValue::Object(vec![(
        "error".to_string(),
        graphio_graph::json::JsonValue::String(message.to_string()),
    )])
    .to_string()
        + "\n";
    let body = body.as_bytes();
    let _ = write_response(stream, status, keep, "application/json", extra, body);
}

/// Writes a complete response (status line, standard headers, any `extra`
/// headers, body) and flushes. `keep` decides the advertised connection
/// disposition — the caller closes the socket after a
/// `Connection: close` response and loops for the next request after a
/// `Connection: keep-alive` one.
///
/// # Errors
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    keep: bool,
    content_type: &str,
    extra: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    // Every response in the workspace funnels through here, so this is
    // the one choke-point where the flight recorder learns what status a
    // request answered with (thread-local; consumed by `traced_request`).
    graphio_obs::recorder::annotate_status(status);
    let connection = if keep { "keep-alive" } else { "close" };
    let mut head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    // One write for head + body: two small writes under Nagle leave the
    // body queued until the peer ACKs the head, and a delayed-ACK peer
    // turns that into a ~40 ms stall per response (the loadgen's
    // open-loop latency histograms are how this was caught).
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// The standard reason phrase for the statuses this service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses `raw` as a request by shipping it through a real loopback
    /// socket (read_request is typed against `BufReader<TcpStream>`).
    fn parse_raw(raw: &[u8]) -> Result<Request, HttpError> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut tx = TcpStream::connect(addr).unwrap();
        let (rx, _) = listener.accept().unwrap();
        tx.write_all(raw).unwrap();
        drop(tx); // EOF so short requests fail Closed, not by timeout
        rx.set_read_timeout(Some(Duration::from_secs(2))).unwrap();
        read_request(&mut BufReader::new(rx))
    }

    #[test]
    fn parses_a_framed_request() {
        let r = parse_raw(b"POST /analyze HTTP/1.1\r\nHost: x\r\nContent-Length: 3\r\n\r\nabc")
            .unwrap();
        assert_eq!((r.method.as_str(), r.path.as_str()), ("POST", "/analyze"));
        assert_eq!(r.body, b"abc");
        assert!(r.http11);
        assert!(r.wants_keep_alive());
    }

    #[test]
    fn connection_header_controls_persistence() {
        let close = parse_raw(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(!close.wants_keep_alive());
        let old = parse_raw(b"GET / HTTP/1.0\r\n\r\n").unwrap();
        assert!(!old.wants_keep_alive());
        let old_keep = parse_raw(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n").unwrap();
        assert!(old_keep.wants_keep_alive());
        let tokens = parse_raw(b"GET / HTTP/1.1\r\nConnection: foo, Close\r\n\r\n").unwrap();
        assert!(!tokens.wants_keep_alive());
    }

    #[test]
    fn duplicate_content_length_is_malformed() {
        for raw in [
            b"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 3\r\n\r\nabc".as_slice(),
            b"GET / HTTP/1.1\r\nContent-Length: 3\r\nContent-Length: 8\r\n\r\nabc".as_slice(),
            b"GET / HTTP/1.1\r\nContent-Length: 3, 3\r\n\r\nabc".as_slice(),
            b"GET / HTTP/1.1\r\nContent-Length: +3\r\n\r\nabc".as_slice(),
        ] {
            assert!(
                matches!(parse_raw(raw), Err(HttpError::Malformed(_))),
                "{:?} must be rejected",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn transfer_encoding_is_malformed() {
        let raw = b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n";
        assert!(matches!(parse_raw(raw), Err(HttpError::Malformed(_))));
    }

    #[test]
    fn whitespace_before_header_colon_is_malformed() {
        for raw in [
            b"GET / HTTP/1.1\r\nContent-Length : 5\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1\r\n Content-Length: 5\r\n\r\n".as_slice(),
            b"GET / HTTP/1.1\r\nContent Length: 5\r\n\r\n".as_slice(),
        ] {
            assert!(
                matches!(parse_raw(raw), Err(HttpError::Malformed(_))),
                "{:?} must be rejected",
                String::from_utf8_lossy(raw)
            );
        }
    }

    #[test]
    fn eof_before_any_byte_is_closed_not_malformed() {
        assert!(matches!(parse_raw(b""), Err(HttpError::Closed)));
        // ...but EOF mid-request is a protocol error.
        assert!(matches!(
            parse_raw(b"GET / HTTP/1.1\r\n"),
            Err(HttpError::Malformed(_))
        ));
    }
}
