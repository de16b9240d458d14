//! Blocking wire-protocol client for [`EventServer`](crate::EventServer).
//!
//! One [`NetClient`] wraps one TCP connection. Requests are frames;
//! [`NetClient::request`] writes one and reads one response, so callers can
//! also pipeline manually with [`NetClient::send`] + [`NetClient::recv`].

use crate::frame::{FrameError, LineReader, MAX_LINE_BYTES};
use crate::proto::{WireRequest, WireResponse};
use cote_service::QueryClass;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Client-side failure.
#[derive(Debug)]
pub enum NetError {
    /// Connect/read/write failed.
    Io(std::io::Error),
    /// A configured per-operation deadline expired (connect timeout or a
    /// socket read/write timeout). Distinct from [`NetError::Io`] so
    /// callers — gateway failover, the bench — can count deadline expiries
    /// separately from transport faults.
    Timeout {
        /// Which operation hit its deadline: `"connect"`, `"read"` or
        /// `"write"`.
        op: &'static str,
    },
    /// The server broke framing (oversize, truncated, invalid UTF-8).
    Frame(FrameError),
    /// The response line did not parse, or the stream ended mid-exchange.
    Protocol(String),
}

impl NetError {
    /// Classify an io error from operation `op`: deadline expiries
    /// (`WouldBlock` from a socket timeout, `TimedOut` from a connect
    /// timeout) become [`NetError::Timeout`], everything else stays
    /// [`NetError::Io`].
    fn from_io(op: &'static str, e: std::io::Error) -> Self {
        match e.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                NetError::Timeout { op }
            }
            _ => NetError::Io(e),
        }
    }

    /// True when this failure was a deadline expiry rather than a
    /// transport fault.
    pub fn is_timeout(&self) -> bool {
        matches!(self, NetError::Timeout { .. })
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Timeout { op } => write!(f, "timeout: {op} deadline expired"),
            NetError::Frame(e) => write!(f, "framing: {e}"),
            NetError::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        NetError::Frame(e)
    }
}

/// Connection knobs for [`NetClient::connect_with`].
#[derive(Debug, Clone)]
pub struct NetClientConfig {
    /// TCP connect timeout.
    pub connect_timeout: Duration,
    /// Socket read timeout (bounds a hung server).
    pub read_timeout: Duration,
    /// Socket write timeout.
    pub write_timeout: Duration,
    /// Response line cap.
    pub max_line_bytes: usize,
}

impl Default for NetClientConfig {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            max_line_bytes: MAX_LINE_BYTES,
        }
    }
}

/// One wire-protocol connection.
pub struct NetClient {
    reader: LineReader<TcpStream>,
    writer: TcpStream,
}

impl NetClient {
    /// Connect with default timeouts.
    pub fn connect(addr: SocketAddr) -> Result<Self, NetError> {
        Self::connect_with(addr, &NetClientConfig::default())
    }

    /// Connect with explicit timeouts/caps.
    pub fn connect_with(addr: SocketAddr, cfg: &NetClientConfig) -> Result<Self, NetError> {
        let stream = TcpStream::connect_timeout(&addr, cfg.connect_timeout)
            .map_err(|e| NetError::from_io("connect", e))?;
        stream.set_read_timeout(Some(cfg.read_timeout))?;
        stream.set_write_timeout(Some(cfg.write_timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: LineReader::new(stream, cfg.max_line_bytes),
            writer,
        })
    }

    /// Write one request frame without waiting for the response.
    pub fn send(&mut self, req: &WireRequest) -> Result<(), NetError> {
        self.send_raw(&req.render())
    }

    /// Write one raw line (for protocol tests); `\n` is appended.
    pub fn send_raw(&mut self, line: &str) -> Result<(), NetError> {
        let write = |e| NetError::from_io("write", e);
        self.writer.write_all(line.as_bytes()).map_err(write)?;
        self.writer.write_all(b"\n").map_err(write)?;
        self.writer.flush().map_err(write)?;
        Ok(())
    }

    /// Read one response frame.
    pub fn recv(&mut self) -> Result<WireResponse, NetError> {
        let line = self.reader.read_line().map_err(|e| {
            if e.is_timeout() {
                NetError::Timeout { op: "read" }
            } else {
                NetError::Frame(e)
            }
        })?;
        match line {
            Some(line) => WireResponse::parse(&line).map_err(NetError::Protocol),
            None => Err(NetError::Protocol("connection closed".into())),
        }
    }

    /// One request/response exchange.
    pub fn request(&mut self, req: &WireRequest) -> Result<WireResponse, NetError> {
        self.send(req)?;
        self.recv()
    }

    /// `PING` → expects `OK pong`.
    pub fn ping(&mut self) -> Result<(), NetError> {
        match self.request(&WireRequest::Ping)? {
            WireResponse::Ok(p) if p == "pong" => Ok(()),
            other => Err(NetError::Protocol(format!("unexpected: {other:?}"))),
        }
    }

    /// `ESTIMATE index [class]` — full per-level JSON on `OK`.
    pub fn estimate(
        &mut self,
        index: usize,
        class: Option<QueryClass>,
    ) -> Result<WireResponse, NetError> {
        self.request(&WireRequest::Estimate { index, class })
    }

    /// `ADMIT index [class]` — compact verdict.
    pub fn admit(
        &mut self,
        index: usize,
        class: Option<QueryClass>,
    ) -> Result<WireResponse, NetError> {
        self.request(&WireRequest::Admit { index, class })
    }

    /// `METRICS` — the service registry as one JSON line.
    pub fn metrics_json(&mut self) -> Result<String, NetError> {
        match self.request(&WireRequest::Metrics)? {
            WireResponse::Ok(json) => Ok(json),
            other => Err(NetError::Protocol(format!("unexpected: {other:?}"))),
        }
    }
}
