//! A minimal blocking HTTP client for the analysis service.
//!
//! Speaks exactly the dialect [`crate::http`] serves (`Content-Length`
//! bodies, persistent HTTP/1.1 connections) and doubles as the
//! integration test and CI driver behind `graphio client`. [`Client`]
//! holds one keep-alive connection and reconnects transparently when the
//! server closes it (idle deadline, per-connection request cap, restart);
//! the free [`request`] function is the one-shot `Connection: close`
//! form.

use crate::http::{self, HttpError, MAX_BODY_BYTES};
use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// A received HTTP response.
#[derive(Debug)]
pub struct Response {
    /// Status code, e.g. `200`.
    pub status: u16,
    /// Headers in arrival order, names lowercased.
    pub headers: Vec<(String, String)>,
    /// The response body as text.
    pub body: String,
}

impl Response {
    /// First value of the (lowercased) header `name`, if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find_map(|(k, v)| (k == name).then_some(v.as_str()))
    }
}

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The URL is not `http://host:port[...]`.
    BadUrl(String),
    /// Connection or transfer failure.
    Io(std::io::Error),
    /// The peer sent something that is not an HTTP response.
    BadResponse(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BadUrl(u) => write!(f, "unsupported url: {u}"),
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::BadResponse(m) => write!(f, "bad response: {m}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// Bound on establishing a TCP connection. Without it, a blackholed
/// peer (firewall DROP, dead VM — anything that never answers the SYN)
/// would hang the caller for the kernel's SYN-retry window (~2 minutes
/// on Linux) instead of failing over; a refused localhost connect is
/// unaffected (instant RST either way).
pub const CONNECT_TIMEOUT: Duration = Duration::from_secs(5);

/// Connects to `host:port` with [`CONNECT_TIMEOUT`] applied to each
/// resolved address.
fn connect(authority: &str) -> Result<TcpStream, ClientError> {
    use std::net::ToSocketAddrs as _;
    let mut last: Option<std::io::Error> = None;
    for addr in authority.to_socket_addrs()? {
        match TcpStream::connect_timeout(&addr, CONNECT_TIMEOUT) {
            Ok(stream) => {
                // Requests are single writes, but disable Nagle anyway:
                // nothing this client sends benefits from coalescing,
                // and any future split write must not reintroduce the
                // delayed-ACK stall.
                let _ = stream.set_nodelay(true);
                return Ok(stream);
            }
            Err(e) => last = Some(e),
        }
    }
    Err(ClientError::Io(last.unwrap_or_else(|| {
        std::io::Error::new(
            std::io::ErrorKind::AddrNotAvailable,
            format!("{authority} resolved to no addresses"),
        )
    })))
}

/// Extracts `host:port` from `http://host:port[/ignored]`.
fn host_port(url: &str) -> Result<String, ClientError> {
    let rest = url
        .strip_prefix("http://")
        .ok_or_else(|| ClientError::BadUrl(url.to_string()))?;
    let authority = rest.split('/').next().unwrap_or("");
    if authority.is_empty() {
        return Err(ClientError::BadUrl(url.to_string()));
    }
    Ok(authority.to_string())
}

/// A persistent connection to one server. Requests issued through the
/// same `Client` reuse the TCP connection (HTTP/1.1 keep-alive); when the
/// server closes it — idle deadline, request cap, restart — the next
/// request transparently reconnects and retries once.
pub struct Client {
    authority: String,
    /// The live connection, if any. Buffered so a response's status line,
    /// headers and body can be read without over-reading into the next
    /// response.
    reader: Option<BufReader<TcpStream>>,
    /// Connections opened over this client's lifetime (observability for
    /// `--repeat`-style drivers: reuse means this stays at 1).
    connects: u64,
    /// 503 retries performed (see [`Client::retries`]).
    retries: u64,
    /// Whether a `503 + Retry-After` answer triggers one bounded retry
    /// (default on; the cluster router disables it because its policy on
    /// 503 is fail-over-to-the-next-replica, not wait).
    retry_503: bool,
}

/// Upper bound on how long [`Client::request`] sleeps for one
/// `Retry-After` hint. The server's backpressure hint is 1 s; anything
/// much larger is a misconfigured peer, not a reason to hang the caller.
pub const RETRY_AFTER_CAP: Duration = Duration::from_secs(2);

/// Whether `e` means the *connection* died (server closed a kept-alive
/// socket: EOF, reset, broken pipe) as opposed to the server being slow
/// or wrong. Only the former is safe to answer with a reconnect-and-
/// retry — re-sending on a read *timeout* would double-spend a request
/// the server may still be computing.
fn is_connection_death(e: &ClientError) -> bool {
    use std::io::ErrorKind;
    matches!(
        e,
        ClientError::Io(io) if matches!(
            io.kind(),
            ErrorKind::UnexpectedEof
                | ErrorKind::ConnectionReset
                | ErrorKind::ConnectionAborted
                | ErrorKind::BrokenPipe
        )
    )
}

impl Client {
    /// Creates a client for `url` (`http://host:port[...]`). Connects
    /// lazily on the first request.
    ///
    /// # Errors
    /// [`ClientError::BadUrl`] when the URL is not `http://host:port`.
    pub fn new(url: &str) -> Result<Client, ClientError> {
        Ok(Client {
            authority: host_port(url)?,
            reader: None,
            connects: 0,
            retries: 0,
            retry_503: true,
        })
    }

    /// Connections opened so far (1 across any number of requests ⇔
    /// perfect reuse).
    pub fn connects(&self) -> u64 {
        self.connects
    }

    /// `503 + Retry-After` retries performed so far (each is one extra
    /// round-trip the caller never saw — observability beside
    /// [`Client::connects`]).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Enables or disables the bounded 503 retry (on by default).
    pub fn set_retry_503(&mut self, enabled: bool) {
        self.retry_503 = enabled;
    }

    /// Issues one request over the persistent connection, reconnecting
    /// and retrying once if a reused connection turns out to be dead.
    ///
    /// When the server answers `503` *and asks for a backoff* via
    /// `Retry-After: <seconds>`, the client honors it with exactly one
    /// bounded retry (sleep capped at [`RETRY_AFTER_CAP`]) — the server's
    /// backpressure contract is "come back in a second", and surfacing
    /// the 503 to every caller forces each of them to reimplement that
    /// loop. A second 503 is surfaced as-is. Disable via
    /// [`Client::set_retry_503`].
    ///
    /// # Errors
    /// [`ClientError`] on socket failures or malformed responses.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> Result<Response, ClientError> {
        self.request_with(method, path, body, &[])
    }

    /// [`Client::request`] with extra request headers — the cluster
    /// router uses this to propagate `X-Graphio-Trace` to backends.
    ///
    /// # Errors
    /// [`ClientError`] on socket failures or malformed responses.
    pub fn request_with(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, String)],
    ) -> Result<Response, ClientError> {
        let response = self.request_reconnecting(method, path, body, extra)?;
        if !(self.retry_503 && response.status == 503) {
            return Ok(response);
        }
        let Some(seconds) = response
            .header("retry-after")
            .and_then(|v| v.trim().parse::<u64>().ok())
        else {
            return Ok(response); // 503 without a backoff hint: surface it
        };
        std::thread::sleep(Duration::from_secs(seconds).min(RETRY_AFTER_CAP));
        self.retries += 1;
        self.request_reconnecting(method, path, body, extra)
    }

    /// One request attempt plus the transparent reconnect-once on a dead
    /// reused connection (the pre-Retry-After behavior of `request`).
    fn request_reconnecting(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, String)],
    ) -> Result<Response, ClientError> {
        let reused = self.reader.is_some();
        match self.try_request(method, path, body, extra) {
            Ok(response) => Ok(response),
            Err(e) => {
                if !reused || !is_connection_death(&e) {
                    return Err(e);
                }
                // The server closed the kept-alive connection between
                // requests (idle deadline, request cap, restart); retry
                // exactly once on a fresh connection.
                self.reader = None;
                self.try_request(method, path, body, extra)
            }
        }
    }

    fn try_request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, String)],
    ) -> Result<Response, ClientError> {
        let result = self.send_and_read(method, path, body, extra);
        match &result {
            Ok(response) => {
                // The server told us it will close; beat it to the punch
                // so the next request starts fresh instead of failing.
                if response.header("connection") == Some("close") {
                    self.reader = None;
                }
            }
            Err(_) => self.reader = None,
        }
        result
    }

    fn send_and_read(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
        extra: &[(&str, String)],
    ) -> Result<Response, ClientError> {
        if self.reader.is_none() {
            let stream = connect(&self.authority)?;
            stream.set_read_timeout(Some(Duration::from_secs(60)))?;
            stream.set_write_timeout(Some(Duration::from_secs(60)))?;
            self.reader = Some(BufReader::new(stream));
            self.connects += 1;
        }
        let reader = self.reader.as_mut().expect("connected above");
        let body = body.unwrap_or("");
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.authority,
            body.len()
        );
        for (name, value) in extra {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let stream = reader.get_mut();
        // Single write per request: a split head/body write interacts
        // with Nagle + delayed ACK to cost ~40 ms per request.
        head.push_str(body);
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        read_response(reader)
    }
}

/// Reads one `Content-Length`-framed response without consuming bytes of
/// any response that may follow it on the same connection. The peer's
/// sizes are not trusted: the status line and headers share the server's
/// [`http::MAX_HEADER_BYTES`] cap and the body its [`MAX_BODY_BYTES`].
fn read_response(reader: &mut BufReader<TcpStream>) -> Result<Response, ClientError> {
    let mut line = String::new();
    let mut head_bytes = 0;
    read_head_line(reader, &mut line, &mut head_bytes)?;
    if line.is_empty() {
        return Err(ClientError::BadResponse("empty response".to_string()));
    }
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| ClientError::BadResponse(format!("bad status line: {line}")))?;
    let mut headers = Vec::new();
    loop {
        read_head_line(reader, &mut line, &mut head_bytes)?;
        if line.is_empty() {
            break;
        }
        if let Some((k, v)) = line.split_once(':') {
            headers.push((k.trim().to_ascii_lowercase(), v.trim().to_string()));
        }
    }
    let content_length = headers
        .iter()
        .find_map(|(k, v)| (k == "content-length").then_some(v.as_str()))
        .map(|v| {
            v.parse::<usize>()
                .map_err(|_| ClientError::BadResponse(format!("bad content-length: {v}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(ClientError::BadResponse(format!(
            "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte cap"
        )));
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body)
        .map_err(|_| ClientError::BadResponse("response body is not UTF-8".to_string()))?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// Reads one response head line through the server's capped reader. A
/// peer that closed before sending a byte of it is an
/// [`std::io::ErrorKind::UnexpectedEof`], which a reused connection
/// answers with one reconnect.
fn read_head_line(
    reader: &mut BufReader<TcpStream>,
    line: &mut String,
    head_bytes: &mut usize,
) -> Result<(), ClientError> {
    let before = *head_bytes;
    http::read_crlf_line(reader, line, head_bytes).map_err(|e| match e {
        HttpError::Io(io) => ClientError::Io(io),
        HttpError::Malformed(_) if *head_bytes == before => ClientError::Io(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed mid-response",
        )),
        HttpError::Malformed(m) | HttpError::TooLarge(m) => ClientError::BadResponse(m),
        HttpError::Closed => ClientError::BadResponse(e.to_string()),
    })
}

/// Issues one request on a throwaway connection (`Connection: close`) and
/// reads the full response.
///
/// # Errors
/// [`ClientError`] on bad URLs, socket failures, or malformed responses.
pub fn request(
    method: &str,
    url: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, ClientError> {
    request_with(method, url, path, body, &[])
}

/// [`request`] with extra request headers (trace propagation).
///
/// # Errors
/// [`ClientError`] on bad URLs, socket failures, or malformed responses.
pub fn request_with(
    method: &str,
    url: &str,
    path: &str,
    body: Option<&str>,
    extra: &[(&str, String)],
) -> Result<Response, ClientError> {
    let authority = host_port(url)?;
    let stream = connect(&authority)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    let mut reader = BufReader::new(stream);

    let body = body.unwrap_or("");
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {authority}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    let stream = reader.get_mut();
    head.push_str(body);
    stream.write_all(head.as_bytes())?;
    stream.flush()?;
    read_response(&mut reader)
}

/// Appends the shared sweep-spec fields (`"memories"` plus the optional
/// `"processors"`/`"no_sim"`) and the closing brace — the one place the
/// `/analyze` and `/batch` body encodings agree on the spec.
fn push_spec_and_close(body: &mut String, memories: &[usize], processors: usize, no_sim: bool) {
    let memories = memories
        .iter()
        .map(|m| m.to_string())
        .collect::<Vec<_>>()
        .join(",");
    body.push_str(&format!(",\"memories\":[{memories}]"));
    if processors > 1 {
        body.push_str(&format!(",\"processors\":{processors}"));
    }
    if no_sim {
        body.push_str(",\"no_sim\":true");
    }
    body.push('}');
}

/// Builds the `POST /analyze` body for `graph_json` (an edge-list
/// document) over the given memory sweep.
fn analyze_body(graph_json: &str, memories: &[usize], processors: usize, no_sim: bool) -> String {
    // The graph document is already JSON; splice it in directly.
    let mut body = format!("{{\"graph\":{}", graph_json.trim_end());
    push_spec_and_close(&mut body, memories, processors, no_sim);
    body
}

/// `POST /analyze` for `graph_json` (an edge-list document) over the given
/// memory sweep; returns the raw response.
///
/// # Errors
/// Propagates [`ClientError`].
pub fn analyze(
    url: &str,
    graph_json: &str,
    memories: &[usize],
    processors: usize,
    no_sim: bool,
) -> Result<Response, ClientError> {
    request(
        "POST",
        url,
        "/analyze",
        Some(&analyze_body(graph_json, memories, processors, no_sim)),
    )
}

/// [`analyze`] over an existing persistent [`Client`] connection.
///
/// # Errors
/// Propagates [`ClientError`].
pub fn analyze_on(
    client: &mut Client,
    graph_json: &str,
    memories: &[usize],
    processors: usize,
    no_sim: bool,
) -> Result<Response, ClientError> {
    client.request(
        "POST",
        "/analyze",
        Some(&analyze_body(graph_json, memories, processors, no_sim)),
    )
}

/// `POST /batch`: one request analyzing every graph in `graph_jsons`
/// (each an edge-list document or a quoted fingerprint string) over the
/// same memory sweep. The response body is the concatenation of the
/// per-graph `/analyze` bodies.
///
/// # Errors
/// Propagates [`ClientError`].
pub fn batch(
    url: &str,
    graph_jsons: &[String],
    memories: &[usize],
    processors: usize,
    no_sim: bool,
) -> Result<Response, ClientError> {
    let graphs = graph_jsons
        .iter()
        .map(|g| g.trim().to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut body = format!("{{\"graphs\":[{graphs}]");
    push_spec_and_close(&mut body, memories, processors, no_sim);
    request("POST", url, "/batch", Some(&body))
}

/// Extracts the blamed entry index from a batch error message
/// (`graphs[i]: ...`, the shape `POST /batch` uses for per-entry 400/404
/// blame). The CLI maps the index back to the *stdin line number* the
/// entry came from — after blank-line filtering the two differ, and a
/// user fixing an NDJSON corpus needs the line, not the array slot.
pub fn batch_blame_index(message: &str) -> Option<usize> {
    let rest = message.split("graphs[").nth(1)?;
    let digits: String = rest.chars().take_while(char::is_ascii_digit).collect();
    if !rest[digits.len()..].starts_with(']') {
        return None;
    }
    digits.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_blame_index_parses_the_servers_shape() {
        assert_eq!(
            batch_blame_index("{\"error\":\"graphs[3]: invalid graph: cycle\"}"),
            Some(3)
        );
        assert_eq!(batch_blame_index("graphs[0]: no session"), Some(0));
        assert_eq!(batch_blame_index("graphs[12]"), Some(12));
        assert_eq!(batch_blame_index("missing \"graphs\" array"), None);
        assert_eq!(batch_blame_index("graphs[x]: nope"), None);
        assert_eq!(batch_blame_index("graphs[3: unterminated"), None);
    }

    #[test]
    fn url_parsing() {
        assert_eq!(
            host_port("http://127.0.0.1:8080").unwrap(),
            "127.0.0.1:8080"
        );
        assert_eq!(host_port("http://[::1]:9/x").unwrap(), "[::1]:9");
        assert!(host_port("https://example.com").is_err());
        assert!(host_port("127.0.0.1:8080").is_err());
    }

    /// Serves `responses` verbatim, one per accepted connection. A client
    /// that hangs up mid-response is not the server's failure.
    fn canned_server<B>(responses: Vec<B>) -> std::net::SocketAddr
    where
        B: AsRef<[u8]> + Send + 'static,
    {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::spawn(move || {
            for canned in responses {
                let (mut stream, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = stream.read(&mut buf); // consume the request head
                let _ = stream.write_all(canned.as_ref());
            }
        });
        addr
    }

    #[test]
    fn framed_response_parsing() {
        let addr = canned_server(vec![
            b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 3\r\n\r\nabc",
        ]);
        let r = request("GET", &format!("http://{addr}"), "/x", None).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.header("retry-after"), Some("1"));
        assert_eq!(r.body, "abc");
    }

    #[test]
    fn garbage_responses_are_rejected() {
        let addr = canned_server(vec![b"garbage\r\n\r\n"]);
        assert!(request("GET", &format!("http://{addr}"), "/x", None).is_err());
    }

    /// Expects `canned` to be refused as a [`ClientError::BadResponse`]
    /// naming the cap it broke.
    fn assert_capped(canned: Vec<u8>) {
        let addr = canned_server(vec![canned]);
        match request("GET", &format!("http://{addr}"), "/x", None) {
            Err(ClientError::BadResponse(m)) => assert!(m.contains("cap"), "{m}"),
            other => panic!("expected BadResponse, got {other:?}"),
        }
    }

    /// A 1 TiB body length is refused before the body buffer is
    /// allocated, not answered with an allocation abort.
    #[test]
    fn huge_content_length_is_a_bad_response() {
        assert_capped(b"HTTP/1.1 200 OK\r\nContent-Length: 1099511627776\r\n\r\nok".to_vec());
    }

    /// A header line that runs past the server's header cap stops the
    /// read at the cap instead of growing the line without bound.
    #[test]
    fn endless_header_line_is_a_bad_response() {
        let mut canned = b"HTTP/1.1 200 OK\r\nX-Long: ".to_vec();
        canned.resize(canned.len() + http::MAX_HEADER_BYTES, b'a');
        canned.extend_from_slice(b"\r\nContent-Length: 0\r\n\r\n");
        assert_capped(canned);
    }

    const BUSY: &[u8] =
        b"HTTP/1.1 503 Service Unavailable\r\nRetry-After: 0\r\nContent-Length: 0\r\nConnection: close\r\n\r\n";
    const OK: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: close\r\n\r\nok";

    #[test]
    fn client_honors_retry_after_with_one_retry() {
        let addr = canned_server(vec![BUSY, OK]);
        let mut client = Client::new(&format!("http://{addr}")).unwrap();
        let r = client.request("GET", "/x", None).unwrap();
        assert_eq!(r.status, 200, "the 503 must be retried away");
        assert_eq!(client.retries(), 1);
    }

    #[test]
    fn client_retry_is_bounded_to_one() {
        let addr = canned_server(vec![BUSY, BUSY]);
        let mut client = Client::new(&format!("http://{addr}")).unwrap();
        let r = client.request("GET", "/x", None).unwrap();
        assert_eq!(r.status, 503, "a second 503 is surfaced, not retried");
        assert_eq!(client.retries(), 1);
    }

    #[test]
    fn client_surfaces_503_without_retry_after_hint() {
        let addr = canned_server(vec![
            b"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        ]);
        let mut client = Client::new(&format!("http://{addr}")).unwrap();
        assert_eq!(client.request("GET", "/x", None).unwrap().status, 503);
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn client_503_retry_can_be_disabled() {
        let addr = canned_server(vec![BUSY]);
        let mut client = Client::new(&format!("http://{addr}")).unwrap();
        client.set_retry_503(false);
        assert_eq!(client.request("GET", "/x", None).unwrap().status, 503);
        assert_eq!(client.retries(), 0);
    }

    #[test]
    fn client_reconnects_when_a_reused_connection_dies() {
        // First connection serves one keep-alive response then closes;
        // the client's second request must transparently reconnect.
        let keep: &[u8] =
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\nok";
        let addr = canned_server(vec![keep, keep]);
        let mut client = Client::new(&format!("http://{addr}")).unwrap();
        assert_eq!(client.request("GET", "/a", None).unwrap().body, "ok");
        assert_eq!(client.request("GET", "/b", None).unwrap().body, "ok");
        assert_eq!(client.connects(), 2, "second request reconnected");
    }
}
