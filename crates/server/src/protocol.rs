//! The `fpfa-serve` wire protocol: length-prefixed frames carrying a
//! hand-rolled binary encoding of requests and responses.
//!
//! The protocol is deliberately tiny and dependency-free (the workspace has
//! no crates.io access, so there is no serde):
//!
//! * **Framing** — every message is a little-endian `u32` payload length
//!   followed by that many payload bytes.  [`read_frame`] / [`write_frame`]
//!   are the only functions that touch the socket; everything else is a pure
//!   `bytes -> value` / `value -> bytes` layer that is testable without any
//!   I/O.  Frames above [`MAX_FRAME_LEN`] are rejected before any allocation
//!   happens, so a corrupt length prefix cannot balloon memory.
//! * **Requests** ([`Request`]) — `map` (one kernel + [`MapKnobs`]),
//!   `reset` (drop cached entries and zero the counters), `health`,
//!   `shutdown`, `metrics` (the metrics registry, rendered) and `dump` (the
//!   flight recorder).  Many kernels travel as many pipelined `map`
//!   requests.
//! * **Responses** ([`Response`]) — a mapping summary (headline report
//!   numbers plus a structural [program digest](program_digest) and the
//!   cache outcome), a health snapshot, a metrics scrape, a flight dump,
//!   acks, or a *typed* [`WireError`].  Admission-control rejections
//!   travel as [`WireError::Overloaded`] — a first-class response, never a
//!   dropped connection.
//!
//! **Protocol v2** adds an explicit handshake and pipelining on top of the
//! same framing:
//!
//! * On connect the client sends a [`Hello`] frame — the [`HELLO_MAGIC`]
//!   bytes plus its protocol version — and the server answers with
//!   [`Response::Hello`] (a [`HelloAck`]) or a typed
//!   [`WireError::UnsupportedVersion`].  A first frame *without* the magic
//!   is treated as a legacy v1 request: the server answers it with a
//!   v1-encoded `UnsupportedVersion` error so old clients fail loudly
//!   instead of hanging.
//! * After the handshake every frame payload is a little-endian `u64`
//!   **request id** followed by the v1 message body
//!   ([`encode_request_frame`] / [`decode_response_frame`]).  A connection
//!   may have many requests in flight; responses carry the id they answer
//!   and may arrive **out of order**.  The server writes each response with
//!   [`append_response_frame`], which encodes length prefix, id and body
//!   straight into the connection's write buffer.
//!
//! [`FrameBuffer`] is the nonblocking counterpart of [`read_frame`]: it
//! accumulates bytes as they arrive and yields complete frames, enforcing
//! [`MAX_FRAME_LEN`] on the announced length before buffering a frame.
//!
//! Decoding never panics: every malformed, truncated or oversized input
//! yields a typed [`ProtocolError`] (the property tests fuzz this).

use fpfa_core::cache::CacheOutcome;
use std::fmt;
use std::io::{self, Read, Write};

/// The structural program digest a [`MapSummary`] carries, computed by
/// `fpfa-core` (re-exported here for the clients and tests that compare a
/// served digest with a locally mapped one).
pub use fpfa_core::summary::program_digest;

/// Hard ceiling on one frame's payload, request or response (16 MiB —
/// generous for any kernel source, small enough that a corrupt length
/// prefix cannot balloon memory).
pub const MAX_FRAME_LEN: usize = 16 * 1024 * 1024;

/// The protocol version this build speaks (and the only one the server
/// serves; v1 requests are answered with a typed rejection).
pub const PROTOCOL_VERSION: u32 = 2;

/// Magic bytes opening a [`Hello`] frame.  Chosen so no v1 request can
/// alias it: a v1 payload starts with a request tag byte in `1..=8`,
/// never `b'F'`.
pub const HELLO_MAGIC: [u8; 4] = *b"FPFA";

/// The request id echoed on responses to frames whose id could not be
/// decoded (a payload shorter than the 8-byte id prefix).
pub const UNKNOWN_REQUEST_ID: u64 = u64::MAX;

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// A typed decoding failure.  Decoding never panics; every malformed input
/// maps onto one of these.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ProtocolError {
    /// The payload ended before the value under `context` was complete.
    Truncated {
        /// What was being decoded when the bytes ran out.
        context: &'static str,
    },
    /// A tag byte does not name any variant of the value under `context`.
    BadTag {
        /// What was being decoded.
        context: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length field exceeds [`MAX_FRAME_LEN`] (or the remaining payload).
    BadLength {
        /// What was being decoded.
        context: &'static str,
        /// The claimed length.
        len: u64,
    },
    /// A string field is not valid UTF-8.
    BadUtf8 {
        /// What was being decoded.
        context: &'static str,
    },
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes {
        /// How many bytes were left.
        count: usize,
    },
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProtocolError::Truncated { context } => {
                write!(f, "truncated payload while decoding {context}")
            }
            ProtocolError::BadTag { context, tag } => {
                write!(f, "unknown tag {tag:#04x} while decoding {context}")
            }
            ProtocolError::BadLength { context, len } => {
                write!(f, "implausible length {len} while decoding {context}")
            }
            ProtocolError::BadUtf8 { context } => {
                write!(f, "invalid UTF-8 while decoding {context}")
            }
            ProtocolError::TrailingBytes { count } => {
                write!(f, "{count} trailing byte(s) after a complete message")
            }
        }
    }
}

impl std::error::Error for ProtocolError {}

/// A framing failure on the socket.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying read or write failed.
    Io(io::Error),
    /// The peer announced a frame above [`MAX_FRAME_LEN`].
    TooLarge {
        /// The announced payload length.
        len: u64,
    },
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O failed: {e}"),
            FrameError::TooLarge { len } => {
                write!(
                    f,
                    "frame of {len} bytes exceeds the {MAX_FRAME_LEN} byte limit"
                )
            }
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one frame (little-endian `u32` length + payload).  The caller
/// flushes the stream when the message must reach the peer.
///
/// # Errors
/// Propagates I/O errors; rejects payloads above [`MAX_FRAME_LEN`].
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), FrameError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge {
            len: payload.len() as u64,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())?;
    w.write_all(payload)?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on a clean EOF at a frame boundary.
///
/// # Errors
/// Propagates I/O errors (including mid-frame EOF as
/// [`io::ErrorKind::UnexpectedEof`]); rejects frames above
/// [`MAX_FRAME_LEN`] before allocating.
pub fn read_frame(r: &mut impl Read) -> Result<Option<Vec<u8>>, FrameError> {
    let mut len_bytes = [0u8; 4];
    // A clean EOF before the first length byte means the peer hung up
    // between messages; EOF after that is a torn frame.
    match r.read(&mut len_bytes) {
        Ok(0) => return Ok(None),
        Ok(n) => r.read_exact(&mut len_bytes[n..])?,
        Err(e) => return Err(e.into()),
    }
    let len = u32::from_le_bytes(len_bytes) as usize;
    if len > MAX_FRAME_LEN {
        return Err(FrameError::TooLarge { len: len as u64 });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

// ---------------------------------------------------------------------------
// Nonblocking frame accumulation
// ---------------------------------------------------------------------------

/// Accumulates bytes read from a nonblocking socket and yields complete
/// frames — the event-loop counterpart of [`read_frame`].
///
/// The announced length is validated against [`MAX_FRAME_LEN`] *before* the
/// frame is buffered, so a corrupt prefix is rejected as
/// [`FrameError::TooLarge`] without ballooning memory.  Consumed bytes are
/// compacted away lazily (only once the parser catches up with the reader),
/// keeping the steady-state cost of a warm connection a plain `memcpy`-free
/// cursor bump.
#[derive(Debug, Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    start: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        FrameBuffer::default()
    }

    /// Appends bytes read off the socket.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed (a partial frame, or frames not
    /// yet parsed).
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Yields the next complete frame payload, or `None` until more bytes
    /// arrive.
    ///
    /// # Errors
    /// [`FrameError::TooLarge`] when the announced length exceeds
    /// [`MAX_FRAME_LEN`]; the stream is unrecoverable at that point (the
    /// frame boundary is lost) and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let avail = self.buf.len() - self.start;
        if avail < 4 {
            self.compact();
            return Ok(None);
        }
        let len_bytes = &self.buf[self.start..self.start + 4];
        let len =
            u32::from_le_bytes([len_bytes[0], len_bytes[1], len_bytes[2], len_bytes[3]]) as usize;
        if len > MAX_FRAME_LEN {
            return Err(FrameError::TooLarge { len: len as u64 });
        }
        if avail < 4 + len {
            self.compact();
            return Ok(None);
        }
        let frame_start = self.start + 4;
        self.start = frame_start + len;
        Ok(Some(&self.buf[frame_start..frame_start + len]))
    }

    /// Drops the consumed prefix once the parser has caught up (or the
    /// consumed half dominates the buffer), bounding memory without copying
    /// on every frame.
    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start > 4096 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

// ---------------------------------------------------------------------------
// Handshake (protocol v2)
// ---------------------------------------------------------------------------

/// The client's opening frame under protocol v2: magic bytes plus the
/// version it speaks.  Answered by [`Response::Hello`] or a typed
/// [`WireError::UnsupportedVersion`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Hello {
    /// The protocol version the client speaks.
    pub version: u32,
}

impl Hello {
    /// The hello for this build's [`PROTOCOL_VERSION`].
    pub fn current() -> Self {
        Hello {
            version: PROTOCOL_VERSION,
        }
    }

    /// `true` when a first frame opens with the [`HELLO_MAGIC`] bytes —
    /// i.e. the peer speaks v2.  A v1 request payload can never match
    /// (its first byte is a request tag in `1..=8`).
    pub fn looks_like_hello(payload: &[u8]) -> bool {
        payload.len() >= HELLO_MAGIC.len() && payload[..HELLO_MAGIC.len()] == HELLO_MAGIC
    }

    /// Encodes the hello into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(8);
        buf.extend_from_slice(&HELLO_MAGIC);
        buf.extend_from_slice(&self.version.to_le_bytes());
        buf
    }

    /// Decodes a hello frame payload.
    ///
    /// # Errors
    /// [`ProtocolError::BadTag`] when the magic is absent,
    /// [`ProtocolError::Truncated`]/[`ProtocolError::TrailingBytes`] on a
    /// malformed length.
    pub fn decode(payload: &[u8]) -> Result<Hello, ProtocolError> {
        if !Self::looks_like_hello(payload) {
            return Err(ProtocolError::BadTag {
                context: "hello magic",
                tag: payload.first().copied().unwrap_or(0),
            });
        }
        let mut d = Dec::new(&payload[HELLO_MAGIC.len()..]);
        let version = d.u32("hello.version")?;
        d.finish(Hello { version })
    }
}

/// The server's handshake acknowledgement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HelloAck {
    /// The protocol version the connection will speak.
    pub version: u32,
    /// Number of I/O shards serving connections.
    pub shards: u32,
    /// Requests one connection may have in flight before the server answers
    /// further submissions with [`WireError::Overloaded`].
    pub max_in_flight: u32,
}

// ---------------------------------------------------------------------------
// Pipelined (v2) frame payloads
// ---------------------------------------------------------------------------

/// Encodes a v2 request frame payload: the `u64` request id followed by the
/// v1 request body.
pub fn encode_request_frame(id: u64, request: &Request) -> Vec<u8> {
    let mut buf = id.to_le_bytes().to_vec();
    request.encode_into(&mut Enc { buf: &mut buf });
    buf
}

/// Decodes a v2 request frame payload into `(request_id, request)`.
///
/// # Errors
/// A typed [`ProtocolError`]; when the payload is long enough to carry the
/// id prefix, the id is decodable even if the body is not (the server echoes
/// it on the error response).  Use [`request_id_of`] to recover it.
pub fn decode_request_frame(payload: &[u8]) -> Result<(u64, Request), ProtocolError> {
    if payload.len() < 8 {
        return Err(ProtocolError::Truncated {
            context: "request id",
        });
    }
    let id = request_id_of(payload).unwrap_or(UNKNOWN_REQUEST_ID);
    Ok((id, Request::decode(&payload[8..])?))
}

/// Appends one complete v2 response frame to `out`, after whatever it
/// already holds: the `u32` length prefix, then the payload — the echoed
/// `u64` request id followed by the v1 response body — encoded straight
/// into the buffer.  Returns the number of bytes appended.  With enough
/// spare capacity in `out` nothing is allocated.
pub fn append_response_frame(out: &mut Vec<u8>, id: u64, response: &Response) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; 4]); // The length, once the payload is in.
    out.extend_from_slice(&id.to_le_bytes());
    response.encode_into(&mut Enc { buf: out });
    let len = out.len() - start;
    out[start..start + 4].copy_from_slice(&((len - 4) as u32).to_le_bytes());
    len
}

/// Decodes a v2 response frame payload into `(request_id, response)`.
///
/// # Errors
/// A typed [`ProtocolError`] on truncated or corrupt payloads; never panics.
pub fn decode_response_frame(payload: &[u8]) -> Result<(u64, Response), ProtocolError> {
    if payload.len() < 8 {
        return Err(ProtocolError::Truncated {
            context: "response id",
        });
    }
    let id = request_id_of(payload).unwrap_or(UNKNOWN_REQUEST_ID);
    Ok((id, Response::decode(&payload[8..])?))
}

/// The request id prefix of a v2 frame payload, when present — decodable
/// even from frames whose body is corrupt, so errors can echo the right id.
pub fn request_id_of(payload: &[u8]) -> Option<u64> {
    let bytes: [u8; 8] = payload.get(..8)?.try_into().ok()?;
    Some(u64::from_le_bytes(bytes))
}

// ---------------------------------------------------------------------------
// Pure byte readers/writers
// ---------------------------------------------------------------------------

/// Append-only encoder over a caller's byte buffer.
struct Enc<'a> {
    buf: &'a mut Vec<u8>,
}

impl Enc<'_> {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn str(&mut self, v: &str) {
        self.u32(v.len() as u32);
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// Cursor-based decoder returning typed errors, never panicking.
struct Dec<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Dec { bytes, pos: 0 }
    }

    fn take(&mut self, n: usize, context: &'static str) -> Result<&'a [u8], ProtocolError> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.bytes.len())
            .ok_or(ProtocolError::Truncated { context })?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u8(&mut self, context: &'static str) -> Result<u8, ProtocolError> {
        Ok(self.take(1, context)?[0])
    }

    fn bool(&mut self, context: &'static str) -> Result<bool, ProtocolError> {
        match self.u8(context)? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(ProtocolError::BadTag { context, tag }),
        }
    }

    fn u32(&mut self, context: &'static str) -> Result<u32, ProtocolError> {
        let bytes = self.take(4, context)?;
        Ok(u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]))
    }

    fn u64(&mut self, context: &'static str) -> Result<u64, ProtocolError> {
        let bytes = self.take(8, context)?;
        let mut raw = [0u8; 8];
        raw.copy_from_slice(bytes);
        Ok(u64::from_le_bytes(raw))
    }

    fn i64(&mut self, context: &'static str) -> Result<i64, ProtocolError> {
        Ok(self.u64(context)? as i64)
    }

    fn str(&mut self, context: &'static str) -> Result<String, ProtocolError> {
        let len = self.u32(context)? as usize;
        if len > MAX_FRAME_LEN {
            return Err(ProtocolError::BadLength {
                context,
                len: len as u64,
            });
        }
        let bytes = self.take(len, context)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| ProtocolError::BadUtf8 { context })
    }

    fn finish<T>(self, value: T) -> Result<T, ProtocolError> {
        let left = self.bytes.len() - self.pos;
        if left > 0 {
            return Err(ProtocolError::TrailingBytes { count: left });
        }
        Ok(value)
    }
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// Per-request mapping knobs, mirroring the `fpfa-map` flags.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MapKnobs {
    /// Tile-array size the kernel is partitioned across; `0` inherits the
    /// daemon's configured default (`fpfa-serve --tiles`).
    pub tiles: u32,
    /// Processing parts per tile; `0` inherits the daemon's configured
    /// default (`fpfa-serve --pps`).
    pub pps: u32,
    /// Phase-1 clustering (off = one operation per cluster).  The toggles
    /// can only *disable* features relative to the daemon's configuration.
    pub clustering: bool,
    /// Locality of reference in the allocator.
    pub locality: bool,
    /// Also run the mapped program on the cycle-accurate simulator with the
    /// deterministic test signal and report the executed cycles/checksum.
    pub simulate: bool,
    /// Statically verify the mapping (and lint the kernel source) before
    /// answering; a deny-level diagnostic turns the response into a typed
    /// [`WireError::VerifyFailed`].
    pub verify: bool,
    /// Per-request deadline budget in milliseconds, measured from admission
    /// to the job queue; `0` uses the server's default.  A request that
    /// waits out its budget in the queue is answered with
    /// [`WireError::DeadlineExceeded`] instead of being mapped late.
    pub deadline_ms: u32,
}

impl Default for MapKnobs {
    fn default() -> Self {
        MapKnobs {
            tiles: 0,
            pps: 0,
            clustering: true,
            locality: true,
            simulate: false,
            verify: false,
            deadline_ms: 0,
        }
    }
}

impl MapKnobs {
    fn encode(&self, e: &mut Enc<'_>) {
        e.u32(self.tiles);
        e.u32(self.pps);
        e.bool(self.clustering);
        e.bool(self.locality);
        e.bool(self.simulate);
        e.bool(self.verify);
        e.u32(self.deadline_ms);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, ProtocolError> {
        Ok(MapKnobs {
            tiles: d.u32("knobs.tiles")?,
            pps: d.u32("knobs.pps")?,
            clustering: d.bool("knobs.clustering")?,
            locality: d.bool("knobs.locality")?,
            simulate: d.bool("knobs.simulate")?,
            verify: d.bool("knobs.verify")?,
            deadline_ms: d.u32("knobs.deadline_ms")?,
        })
    }
}

/// One kernel to map: a report name plus its C-subset source.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct KernelSource {
    /// Name echoed back in the summary.
    pub name: String,
    /// The C-subset source text.
    pub source: String,
}

impl KernelSource {
    /// Creates a named kernel source.
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        KernelSource {
            name: name.into(),
            source: source.into(),
        }
    }

    fn encode(&self, e: &mut Enc<'_>) {
        e.str(&self.name);
        e.str(&self.source);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, ProtocolError> {
        Ok(KernelSource {
            name: d.str("kernel.name")?,
            source: d.str("kernel.source")?,
        })
    }
}

/// A client-to-server message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Request {
    /// Map one kernel.
    Map {
        /// The kernel to map.
        kernel: KernelSource,
        /// Mapping knobs.
        knobs: MapKnobs,
    },
    /// Drop every cached mapping and zero the statistics counters.
    Reset,
    /// Liveness / drain-state probe.
    Health,
    /// Begin a graceful shutdown: the server stops accepting work, drains
    /// queued jobs, then exits.
    Shutdown,
    /// Scrape the server's metrics registry in the requested exposition
    /// format.
    Metrics {
        /// Requested exposition format.
        format: MetricsFormat,
    },
    /// Dump the flight recorder: recent request summaries per shard plus
    /// any sampled trace events, as one JSON document.
    Dump,
}

/// Exposition format for the `metrics` verb.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MetricsFormat {
    /// Prometheus-style text.
    Prometheus,
    /// JSON.
    Json,
}

impl MetricsFormat {
    fn tag(self) -> u8 {
        match self {
            MetricsFormat::Prometheus => 0,
            MetricsFormat::Json => 1,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, ProtocolError> {
        match tag {
            0 => Ok(MetricsFormat::Prometheus),
            1 => Ok(MetricsFormat::Json),
            tag => Err(ProtocolError::BadTag {
                context: "metrics format",
                tag,
            }),
        }
    }
}

const REQ_MAP: u8 = 1;
// Tags 2 and 3 (the retired `batch` and `stats` verbs) are never reused: an
// old client sending either gets a typed `BadTag`, answered on the wire as
// `Invalid`.
const REQ_RESET: u8 = 4;
const REQ_HEALTH: u8 = 5;
const REQ_SHUTDOWN: u8 = 6;
const REQ_METRICS: u8 = 7;
const REQ_DUMP: u8 = 8;

impl Request {
    /// Encodes the request into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut Enc { buf: &mut buf });
        buf
    }

    fn encode_into(&self, e: &mut Enc<'_>) {
        match self {
            Request::Map { kernel, knobs } => {
                e.u8(REQ_MAP);
                kernel.encode(e);
                knobs.encode(e);
            }
            Request::Reset => e.u8(REQ_RESET),
            Request::Health => e.u8(REQ_HEALTH),
            Request::Shutdown => e.u8(REQ_SHUTDOWN),
            Request::Metrics { format } => {
                e.u8(REQ_METRICS);
                e.u8(format.tag());
            }
            Request::Dump => e.u8(REQ_DUMP),
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// Returns a typed [`ProtocolError`] on truncated, corrupt or trailing
    /// bytes; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Request, ProtocolError> {
        let mut d = Dec::new(bytes);
        let request = match d.u8("request tag")? {
            REQ_MAP => Request::Map {
                kernel: KernelSource::decode(&mut d)?,
                knobs: MapKnobs::decode(&mut d)?,
            },
            REQ_RESET => Request::Reset,
            REQ_HEALTH => Request::Health,
            REQ_SHUTDOWN => Request::Shutdown,
            REQ_METRICS => Request::Metrics {
                format: MetricsFormat::from_tag(d.u8("metrics format")?)?,
            },
            REQ_DUMP => Request::Dump,
            tag => {
                return Err(ProtocolError::BadTag {
                    context: "request tag",
                    tag,
                })
            }
        };
        d.finish(request)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// How a served mapping interacted with the content-addressed cache
/// (the wire rendering of [`CacheOutcome`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheFlavor {
    /// No cache was consulted.
    Uncached,
    /// Both cache levels missed; the full flow ran.
    Miss,
    /// Served without running any stage: from the full-mapping cache, a
    /// summary the daemon holds, or the run of another request for the same
    /// kernel that was in flight (single-flight).
    MappingHit,
    /// Cluster/partition/schedule/allocate work was reused.
    PostTransformHit,
}

impl From<CacheOutcome> for CacheFlavor {
    fn from(outcome: CacheOutcome) -> Self {
        match outcome {
            CacheOutcome::Uncached => CacheFlavor::Uncached,
            CacheOutcome::Miss => CacheFlavor::Miss,
            CacheOutcome::MappingHit => CacheFlavor::MappingHit,
            CacheOutcome::PostTransformHit => CacheFlavor::PostTransformHit,
        }
    }
}

impl fmt::Display for CacheFlavor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CacheFlavor::Uncached => "uncached",
            CacheFlavor::Miss => "miss",
            CacheFlavor::MappingHit => "mapping hit",
            CacheFlavor::PostTransformHit => "post-transform hit",
        })
    }
}

impl CacheFlavor {
    fn tag(self) -> u8 {
        match self {
            CacheFlavor::Uncached => 0,
            CacheFlavor::Miss => 1,
            CacheFlavor::MappingHit => 2,
            CacheFlavor::PostTransformHit => 3,
        }
    }

    fn from_tag(tag: u8) -> Result<Self, ProtocolError> {
        Ok(match tag {
            0 => CacheFlavor::Uncached,
            1 => CacheFlavor::Miss,
            2 => CacheFlavor::MappingHit,
            3 => CacheFlavor::PostTransformHit,
            tag => {
                return Err(ProtocolError::BadTag {
                    context: "cache flavor",
                    tag,
                })
            }
        })
    }
}

/// Result of running the mapped program on the cycle-accurate simulator
/// (present when the request set [`MapKnobs::simulate`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SimSummary {
    /// Executed clock cycles.
    pub cycles: u64,
    /// Sum of the scalar outputs under the deterministic test signal — a
    /// cheap end-to-end checksum clients can compare across runs.
    pub checksum: i64,
}

/// Headline numbers of one served mapping.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct MapSummary {
    /// The kernel name from the request.
    pub name: String,
    /// Structural digest of the mapped program ([`program_digest`]): equal
    /// digests ⇒ the server produced the same mapping.
    pub digest: u64,
    /// Operations in the simplified mapping graph.
    pub operations: u64,
    /// Phase-1 clusters.
    pub clusters: u64,
    /// Phase-2 schedule levels.
    pub levels: u64,
    /// Phase-3 clock cycles.
    pub cycles: u64,
    /// Tiles the mapping targets.
    pub tiles: u64,
    /// Values routed over the inter-tile interconnect.
    pub inter_tile_transfers: u64,
    /// How the cache served this request.
    pub cache: CacheFlavor,
    /// Simulation outcome when requested.
    pub sim: Option<SimSummary>,
    /// Server-side handling time (admission to response) in microseconds.
    pub server_micros: u64,
}

impl MapSummary {
    fn encode(&self, e: &mut Enc<'_>) {
        e.str(&self.name);
        e.u64(self.digest);
        e.u64(self.operations);
        e.u64(self.clusters);
        e.u64(self.levels);
        e.u64(self.cycles);
        e.u64(self.tiles);
        e.u64(self.inter_tile_transfers);
        e.u8(self.cache.tag());
        match &self.sim {
            Some(sim) => {
                e.bool(true);
                e.u64(sim.cycles);
                e.i64(sim.checksum);
            }
            None => e.bool(false),
        }
        e.u64(self.server_micros);
    }

    fn decode(d: &mut Dec<'_>) -> Result<Self, ProtocolError> {
        Ok(MapSummary {
            name: d.str("summary.name")?,
            digest: d.u64("summary.digest")?,
            operations: d.u64("summary.operations")?,
            clusters: d.u64("summary.clusters")?,
            levels: d.u64("summary.levels")?,
            cycles: d.u64("summary.cycles")?,
            tiles: d.u64("summary.tiles")?,
            inter_tile_transfers: d.u64("summary.inter_tile_transfers")?,
            cache: CacheFlavor::from_tag(d.u8("cache flavor")?)?,
            sim: if d.bool("summary.sim flag")? {
                Some(SimSummary {
                    cycles: d.u64("sim.cycles")?,
                    checksum: d.i64("sim.checksum")?,
                })
            } else {
                None
            },
            server_micros: d.u64("summary.server_micros")?,
        })
    }
}

/// A liveness snapshot.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct HealthSummary {
    /// Microseconds since the server started.
    pub uptime_micros: u64,
    /// Jobs admitted but not yet answered (queued + running).
    pub in_flight: u64,
    /// `true` once a graceful shutdown has begun.
    pub draining: bool,
}

/// A typed service error — the admission-control and failure vocabulary of
/// the protocol.  Every rejection is a first-class response on a healthy
/// connection, never a dropped socket.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The bounded job queue was full; the request was rejected immediately
    /// instead of buffering without bound.  Back off and retry.
    Overloaded {
        /// The queue capacity that was exhausted.
        queue_depth: u64,
    },
    /// The request's deadline budget lapsed before a worker picked it up.
    DeadlineExceeded {
        /// The budget that lapsed, in milliseconds.
        budget_ms: u64,
    },
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown,
    /// The request was structurally invalid (out-of-range knobs, an unknown
    /// or retired request tag, …).
    Invalid(String),
    /// The kernel failed to map; the payload is the flow error rendering.
    MapFailed {
        /// The kernel name from the request.
        name: String,
        /// The mapping error.
        error: String,
    },
    /// The kernel mapped, but the static verifier found deny-level
    /// diagnostics (`knobs.verify`); the connection stays healthy.
    VerifyFailed {
        /// The kernel name from the request.
        name: String,
        /// Number of deny-level diagnostics.
        denies: u64,
        /// The first deny-level diagnostic, rendered.
        first: String,
    },
    /// The peer's protocol version is not served.  Sent in the *requested*
    /// version's encoding when it is decodable (a v1 client gets a plain v1
    /// error frame, not a hang), after which the server closes the
    /// connection.
    UnsupportedVersion {
        /// The version the peer asked for (0 when it sent no handshake at
        /// all, i.e. a legacy v1 request frame).
        requested: u32,
        /// The version this server speaks.
        supported: u32,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Overloaded { queue_depth } => {
                write!(f, "overloaded: job queue of {queue_depth} is full")
            }
            WireError::DeadlineExceeded { budget_ms } => {
                write!(f, "deadline of {budget_ms} ms exceeded while queued")
            }
            WireError::ShuttingDown => f.write_str("server is shutting down"),
            WireError::Invalid(reason) => write!(f, "invalid request: {reason}"),
            WireError::MapFailed { name, error } => write!(f, "mapping `{name}` failed: {error}"),
            WireError::VerifyFailed {
                name,
                denies,
                first,
            } => write!(
                f,
                "verifying `{name}` failed with {denies} error(s); first: {first}"
            ),
            WireError::UnsupportedVersion {
                requested,
                supported,
            } => write!(
                f,
                "protocol version {requested} is not served (server speaks v{supported})"
            ),
        }
    }
}

impl std::error::Error for WireError {}

/// A server-to-client message.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Response {
    /// A served mapping.
    Mapped(MapSummary),
    /// Health snapshot.
    Health(HealthSummary),
    /// Acknowledges a [`Request::Reset`]; carries the number of cache
    /// entries dropped.
    ResetDone {
        /// Cache entries dropped by the reset.
        dropped_entries: u64,
    },
    /// Acknowledges a [`Request::Shutdown`]; the server drains and exits.
    ShutdownStarted,
    /// A typed error.
    Error(WireError),
    /// Acknowledges a [`Hello`] handshake (protocol v2).
    Hello(HelloAck),
    /// A metrics scrape: the exposition format and the rendered body.
    Metrics {
        /// The format the body is rendered in.
        format: MetricsFormat,
        /// The rendered exposition document.
        body: String,
    },
    /// A flight-recorder dump as one JSON document.
    Dump {
        /// The JSON dump (`{"shards":[...],"traces":[...]}`).
        json: String,
    },
}

const RESP_MAPPED: u8 = 1;
// Tags 2 and 3 (the retired `batch` and `stats` answers) are never reused.
const RESP_HEALTH: u8 = 4;
const RESP_RESET: u8 = 5;
const RESP_SHUTDOWN: u8 = 6;
const RESP_ERROR: u8 = 7;
const RESP_HELLO: u8 = 8;
const RESP_METRICS: u8 = 9;
const RESP_DUMP: u8 = 10;

const ERR_OVERLOADED: u8 = 1;
const ERR_DEADLINE: u8 = 2;
const ERR_SHUTTING_DOWN: u8 = 3;
const ERR_INVALID: u8 = 4;
const ERR_MAP_FAILED: u8 = 5;
const ERR_UNSUPPORTED_VERSION: u8 = 6;
const ERR_VERIFY_FAILED: u8 = 7;

impl Response {
    /// Encodes the response into a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode_into(&mut Enc { buf: &mut buf });
        buf
    }

    fn encode_into(&self, e: &mut Enc<'_>) {
        match self {
            Response::Mapped(summary) => {
                e.u8(RESP_MAPPED);
                summary.encode(e);
            }
            Response::Health(health) => {
                e.u8(RESP_HEALTH);
                e.u64(health.uptime_micros);
                e.u64(health.in_flight);
                e.bool(health.draining);
            }
            Response::ResetDone { dropped_entries } => {
                e.u8(RESP_RESET);
                e.u64(*dropped_entries);
            }
            Response::ShutdownStarted => e.u8(RESP_SHUTDOWN),
            Response::Error(error) => {
                e.u8(RESP_ERROR);
                match error {
                    WireError::Overloaded { queue_depth } => {
                        e.u8(ERR_OVERLOADED);
                        e.u64(*queue_depth);
                    }
                    WireError::DeadlineExceeded { budget_ms } => {
                        e.u8(ERR_DEADLINE);
                        e.u64(*budget_ms);
                    }
                    WireError::ShuttingDown => e.u8(ERR_SHUTTING_DOWN),
                    WireError::Invalid(reason) => {
                        e.u8(ERR_INVALID);
                        e.str(reason);
                    }
                    WireError::MapFailed { name, error } => {
                        e.u8(ERR_MAP_FAILED);
                        e.str(name);
                        e.str(error);
                    }
                    WireError::VerifyFailed {
                        name,
                        denies,
                        first,
                    } => {
                        e.u8(ERR_VERIFY_FAILED);
                        e.str(name);
                        e.u64(*denies);
                        e.str(first);
                    }
                    WireError::UnsupportedVersion {
                        requested,
                        supported,
                    } => {
                        e.u8(ERR_UNSUPPORTED_VERSION);
                        e.u32(*requested);
                        e.u32(*supported);
                    }
                }
            }
            Response::Hello(ack) => {
                e.u8(RESP_HELLO);
                e.u32(ack.version);
                e.u32(ack.shards);
                e.u32(ack.max_in_flight);
            }
            Response::Metrics { format, body } => {
                e.u8(RESP_METRICS);
                e.u8(format.tag());
                e.str(body);
            }
            Response::Dump { json } => {
                e.u8(RESP_DUMP);
                e.str(json);
            }
        }
    }

    /// Decodes a frame payload.
    ///
    /// # Errors
    /// Returns a typed [`ProtocolError`] on truncated, corrupt or trailing
    /// bytes; never panics.
    pub fn decode(bytes: &[u8]) -> Result<Response, ProtocolError> {
        let mut d = Dec::new(bytes);
        let response = match d.u8("response tag")? {
            RESP_MAPPED => Response::Mapped(MapSummary::decode(&mut d)?),
            RESP_HEALTH => Response::Health(HealthSummary {
                uptime_micros: d.u64("health.uptime")?,
                in_flight: d.u64("health.in_flight")?,
                draining: d.bool("health.draining")?,
            }),
            RESP_RESET => Response::ResetDone {
                dropped_entries: d.u64("reset.dropped")?,
            },
            RESP_SHUTDOWN => Response::ShutdownStarted,
            RESP_ERROR => Response::Error(match d.u8("error tag")? {
                ERR_OVERLOADED => WireError::Overloaded {
                    queue_depth: d.u64("error.queue_depth")?,
                },
                ERR_DEADLINE => WireError::DeadlineExceeded {
                    budget_ms: d.u64("error.budget_ms")?,
                },
                ERR_SHUTTING_DOWN => WireError::ShuttingDown,
                ERR_INVALID => WireError::Invalid(d.str("error.reason")?),
                ERR_MAP_FAILED => WireError::MapFailed {
                    name: d.str("error.name")?,
                    error: d.str("error.error")?,
                },
                ERR_VERIFY_FAILED => WireError::VerifyFailed {
                    name: d.str("error.name")?,
                    denies: d.u64("error.denies")?,
                    first: d.str("error.first")?,
                },
                ERR_UNSUPPORTED_VERSION => WireError::UnsupportedVersion {
                    requested: d.u32("error.requested")?,
                    supported: d.u32("error.supported")?,
                },
                tag => {
                    return Err(ProtocolError::BadTag {
                        context: "error tag",
                        tag,
                    })
                }
            }),
            RESP_HELLO => Response::Hello(HelloAck {
                version: d.u32("hello.version")?,
                shards: d.u32("hello.shards")?,
                max_in_flight: d.u32("hello.max_in_flight")?,
            }),
            RESP_METRICS => Response::Metrics {
                format: MetricsFormat::from_tag(d.u8("metrics format")?)?,
                body: d.str("metrics.body")?,
            },
            RESP_DUMP => Response::Dump {
                json: d.str("dump.json")?,
            },
            tag => {
                return Err(ProtocolError::BadTag {
                    context: "response tag",
                    tag,
                })
            }
        };
        d.finish(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_roundtrip_all_verbs() {
        let requests = [
            Request::Map {
                kernel: KernelSource::new("fir", "void main() {}"),
                knobs: MapKnobs {
                    tiles: 4,
                    pps: 3,
                    clustering: false,
                    locality: true,
                    simulate: true,
                    verify: true,
                    deadline_ms: 250,
                },
            },
            Request::Reset,
            Request::Health,
            Request::Shutdown,
            Request::Metrics {
                format: MetricsFormat::Prometheus,
            },
            Request::Metrics {
                format: MetricsFormat::Json,
            },
            Request::Dump,
        ];
        for request in requests {
            let decoded = Request::decode(&request.encode()).unwrap();
            assert_eq!(decoded, request);
        }
        // The retired `batch` and `stats` tags decode to a typed error in
        // both directions.
        for tag in [2, 3] {
            assert_eq!(
                Request::decode(&[tag]),
                Err(ProtocolError::BadTag {
                    context: "request tag",
                    tag
                })
            );
            assert_eq!(
                Response::decode(&[tag]),
                Err(ProtocolError::BadTag {
                    context: "response tag",
                    tag
                })
            );
        }
    }

    #[test]
    fn response_roundtrip_all_variants() {
        let summary = MapSummary {
            name: "fir".into(),
            digest: 0xdead_beef,
            operations: 10,
            clusters: 4,
            levels: 3,
            cycles: 7,
            tiles: 1,
            inter_tile_transfers: 0,
            cache: CacheFlavor::MappingHit,
            sim: Some(SimSummary {
                cycles: 7,
                checksum: -42,
            }),
            server_micros: 120,
        };
        let responses = [
            Response::Mapped(summary),
            Response::Hello(HelloAck {
                version: PROTOCOL_VERSION,
                shards: 4,
                max_in_flight: 1024,
            }),
            Response::Error(WireError::UnsupportedVersion {
                requested: 1,
                supported: 2,
            }),
            Response::Health(HealthSummary {
                uptime_micros: 5,
                in_flight: 2,
                draining: true,
            }),
            Response::ResetDone { dropped_entries: 9 },
            Response::ShutdownStarted,
            Response::Error(WireError::Overloaded { queue_depth: 64 }),
            Response::Error(WireError::DeadlineExceeded { budget_ms: 100 }),
            Response::Error(WireError::ShuttingDown),
            Response::Error(WireError::Invalid("tiles 65 exceeds the 64 limit".into())),
            Response::Error(WireError::MapFailed {
                name: "bad".into(),
                error: "loops remain".into(),
            }),
            Response::Metrics {
                format: MetricsFormat::Prometheus,
                body: "# TYPE serve_accepted counter\nserve_accepted 3\n".into(),
            },
            Response::Metrics {
                format: MetricsFormat::Json,
                body: "{\"metrics\":[]}".into(),
            },
            Response::Dump {
                json: "{\"shards\":[],\"traces\":[]}".into(),
            },
        ];
        for response in responses {
            let decoded = Response::decode(&response.encode()).unwrap();
            assert_eq!(decoded, response);
        }
    }

    #[test]
    fn truncation_and_trailing_bytes_are_typed_errors() {
        let bytes = Request::Map {
            kernel: KernelSource::new("k", "src"),
            knobs: MapKnobs::default(),
        }
        .encode();
        for cut in 0..bytes.len() {
            let err = Request::decode(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProtocolError::Truncated { .. }
                        | ProtocolError::BadTag { .. }
                        | ProtocolError::BadLength { .. }
                ),
                "cut at {cut}: {err}"
            );
        }
        let mut padded = bytes;
        padded.push(0);
        assert_eq!(
            Request::decode(&padded),
            Err(ProtocolError::TrailingBytes { count: 1 })
        );
    }

    #[test]
    fn corrupt_string_lengths_are_rejected_without_allocation() {
        // A kernel name claiming u32::MAX bytes in a 10-byte payload is
        // refused from its length alone.
        let mut bytes = vec![REQ_MAP];
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[b'k'; 5]);
        assert_eq!(
            Request::decode(&bytes),
            Err(ProtocolError::BadLength {
                context: "kernel.name",
                len: u64::from(u32::MAX)
            })
        );
        // A plausible length that still overruns the payload is a
        // truncation.
        bytes[1..5].copy_from_slice(&6u32.to_le_bytes());
        assert_eq!(
            Request::decode(&bytes),
            Err(ProtocolError::Truncated {
                context: "kernel.name"
            })
        );
    }

    #[test]
    fn frames_roundtrip_and_reject_oversize() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        let mut cursor = io::Cursor::new(wire);
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"hello");
        assert_eq!(read_frame(&mut cursor).unwrap().unwrap(), b"");
        assert!(read_frame(&mut cursor).unwrap().is_none());

        let mut oversize = io::Cursor::new(((MAX_FRAME_LEN + 1) as u32).to_le_bytes().to_vec());
        assert!(matches!(
            read_frame(&mut oversize),
            Err(FrameError::TooLarge { .. })
        ));

        // EOF in the middle of a frame is an error, not a silent None.
        let mut torn = io::Cursor::new(vec![200, 0, 0, 0, 1, 2, 3]);
        assert!(matches!(read_frame(&mut torn), Err(FrameError::Io(_))));
    }

    #[test]
    fn hello_roundtrip_and_v1_discrimination() {
        let hello = Hello::current();
        let encoded = hello.encode();
        assert!(Hello::looks_like_hello(&encoded));
        assert_eq!(Hello::decode(&encoded).unwrap(), hello);

        // No v1 request payload can be mistaken for a hello: the first byte
        // is a request tag in 1..=8, never b'F'.
        for request in [
            Request::Map {
                kernel: KernelSource::new("k", "src"),
                knobs: MapKnobs::default(),
            },
            Request::Shutdown,
            Request::Dump,
        ] {
            assert!(!Hello::looks_like_hello(&request.encode()));
        }

        // Truncated magic / trailing bytes are typed errors.
        assert!(matches!(
            Hello::decode(b"FP"),
            Err(ProtocolError::BadTag { .. })
        ));
        assert!(matches!(
            Hello::decode(b"FPFA\x02\x00"),
            Err(ProtocolError::Truncated { .. })
        ));
        let mut padded = encoded;
        padded.push(0);
        assert!(matches!(
            Hello::decode(&padded),
            Err(ProtocolError::TrailingBytes { .. })
        ));
    }

    #[test]
    fn v2_frames_carry_and_recover_request_ids() {
        let request = Request::Map {
            kernel: KernelSource::new("fir", "void main() {}"),
            knobs: MapKnobs::default(),
        };
        let payload = encode_request_frame(77, &request);
        assert_eq!(request_id_of(&payload), Some(77));
        assert_eq!(decode_request_frame(&payload).unwrap(), (77, request));

        let response = Response::ShutdownStarted;
        let mut wire = vec![0xAB];
        let written = append_response_frame(&mut wire, u64::MAX - 1, &response);
        assert_eq!(written, wire.len() - 1);
        let payload = read_frame(&mut io::Cursor::new(&wire[1..]))
            .unwrap()
            .unwrap();
        assert_eq!(
            decode_response_frame(&payload).unwrap(),
            (u64::MAX - 1, response)
        );

        // A corrupt body still yields its id for the error echo.
        let mut corrupt = encode_request_frame(9, &Request::Health);
        corrupt.push(0xff);
        assert_eq!(request_id_of(&corrupt), Some(9));
        assert!(decode_request_frame(&corrupt).is_err());

        // Too short for even the id prefix.
        assert_eq!(request_id_of(&[1, 2, 3]), None);
        assert!(matches!(
            decode_request_frame(&[1, 2, 3]),
            Err(ProtocolError::Truncated { .. })
        ));
    }

    #[test]
    fn frame_buffer_yields_frames_across_arbitrary_read_boundaries() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"alpha").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, b"beta").unwrap();

        // Feed one byte at a time: frames must come out intact, in order.
        let mut fb = FrameBuffer::new();
        let mut got: Vec<Vec<u8>> = Vec::new();
        for byte in &wire {
            fb.extend(std::slice::from_ref(byte));
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame.to_vec());
            }
        }
        assert_eq!(got, vec![b"alpha".to_vec(), Vec::new(), b"beta".to_vec()]);
        assert_eq!(fb.pending(), 0);

        // An oversize announced length is rejected before buffering.
        let mut fb = FrameBuffer::new();
        fb.extend(&((MAX_FRAME_LEN + 1) as u32).to_le_bytes());
        assert!(matches!(fb.next_frame(), Err(FrameError::TooLarge { .. })));
    }
}
