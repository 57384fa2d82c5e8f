//! Client for the `fpfa-serve` protocol (v2, pipelined).
//!
//! One [`Client`] owns one connection.  The core API is pipelined:
//! [`submit`](Client::submit) queues a request and returns a [`Ticket`];
//! [`wait`](Client::wait) flushes and reads responses until the ticket's
//! answer arrives, stashing any responses that complete out of order for
//! their own tickets.  The blocking one-call verbs ([`map`](Client::map),
//! [`metrics`](Client::metrics), …) are thin `submit` + `wait` wrappers.
//!
//! Connecting performs the v2 handshake (magic + version): a server that
//! does not speak this client's version answers with a typed
//! [`WireError::UnsupportedVersion`], surfaced as [`ClientError::Server`].

use crate::protocol::{
    decode_response_frame, encode_request_frame, read_frame, write_frame, FrameError,
    HealthSummary, Hello, HelloAck, KernelSource, MapKnobs, MapSummary, MetricsFormat,
    ProtocolError, Request, Response, WireError,
};
use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufReader, BufWriter, Write};
use std::net::{TcpStream, ToSocketAddrs};

/// A client-side failure.
#[derive(Debug)]
pub enum ClientError {
    /// The socket failed.
    Io(io::Error),
    /// The server sent bytes that do not decode as a response.
    Protocol(ProtocolError),
    /// The server closed the connection instead of answering.
    Disconnected,
    /// The server answered with a typed error.
    Server(WireError),
    /// The server answered with a response of the wrong kind.
    Unexpected(&'static str),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "I/O error: {e}"),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
            ClientError::Disconnected => f.write_str("server closed the connection"),
            ClientError::Server(e) => write!(f, "server error: {e}"),
            ClientError::Unexpected(kind) => write!(f, "unexpected response kind: {kind}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl From<FrameError> for ClientError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Io(io) => ClientError::Io(io),
            FrameError::TooLarge { len } => ClientError::Protocol(ProtocolError::BadLength {
                context: "response frame",
                len,
            }),
        }
    }
}

/// A claim on one in-flight request's response; redeem it with
/// [`Client::wait`].
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Ticket {
    id: u64,
}

impl Ticket {
    /// The request id this ticket was issued for (echoed by the server).
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A connection to an `fpfa-serve` daemon speaking protocol v2.
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    next_id: u64,
    /// Responses read while waiting for a different ticket.
    pending: HashMap<u64, Response>,
    hello: HelloAck,
}

impl Client {
    /// Connects to a daemon and performs the version handshake.
    ///
    /// # Errors
    /// Propagates socket errors; a version mismatch surfaces as
    /// [`ClientError::Server`] carrying
    /// [`WireError::UnsupportedVersion`].
    pub fn connect(addr: impl ToSocketAddrs) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let write_half = stream.try_clone()?;
        let mut reader = BufReader::new(stream);
        let mut writer = BufWriter::new(write_half);
        write_frame(&mut writer, &Hello::current().encode())?;
        writer.flush()?;
        let payload = read_frame(&mut reader)?.ok_or(ClientError::Disconnected)?;
        let hello = match Response::decode(&payload).map_err(ClientError::Protocol)? {
            Response::Hello(ack) => ack,
            Response::Error(error) => return Err(ClientError::Server(error)),
            _ => return Err(ClientError::Unexpected("expected a hello ack")),
        };
        Ok(Client {
            reader,
            writer,
            next_id: 0,
            pending: HashMap::new(),
            hello,
        })
    }

    /// What the server advertised in its handshake ack (protocol version,
    /// shard count, per-connection in-flight budget).
    pub fn server_hello(&self) -> HelloAck {
        self.hello
    }

    /// Queues one request without waiting for its response.  The frame is
    /// buffered; it reaches the wire on [`flush`](Client::flush) or on the
    /// first [`wait`](Client::wait).
    ///
    /// # Errors
    /// Propagates socket errors from writing the frame.
    pub fn submit(&mut self, request: &Request) -> Result<Ticket, ClientError> {
        let id = self.next_id;
        self.next_id = self.next_id.wrapping_add(1);
        write_frame(&mut self.writer, &encode_request_frame(id, request))?;
        Ok(Ticket { id })
    }

    /// Pushes every buffered request to the wire.
    ///
    /// # Errors
    /// Propagates socket errors.
    pub fn flush(&mut self) -> Result<(), ClientError> {
        self.writer.flush()?;
        Ok(())
    }

    /// Waits for one ticket's response, in whatever order the server
    /// completes them: responses for *other* tickets read along the way are
    /// stashed and returned by their own `wait` calls.
    ///
    /// # Errors
    /// Fails on transport errors or undecodable responses.
    pub fn wait(&mut self, ticket: Ticket) -> Result<Response, ClientError> {
        if let Some(response) = self.pending.remove(&ticket.id) {
            return Ok(response);
        }
        self.writer.flush()?;
        loop {
            let payload = read_frame(&mut self.reader)?.ok_or(ClientError::Disconnected)?;
            let (id, response) = decode_response_frame(&payload).map_err(ClientError::Protocol)?;
            if id == ticket.id {
                return Ok(response);
            }
            self.pending.insert(id, response);
        }
    }

    /// Sends one request and waits for its response.  Typed server errors
    /// ([`Response::Error`]) are returned as `Ok(Response::Error(..))` so
    /// callers can distinguish load shedding from transport failure.
    ///
    /// # Errors
    /// Fails on transport errors or undecodable responses.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let ticket = self.submit(request)?;
        self.wait(ticket)
    }

    /// Maps one kernel; any non-`Mapped` response becomes an error
    /// ([`ClientError::Server`] for typed rejections).
    ///
    /// # Errors
    /// Fails on transport errors, typed server rejections, or mapping
    /// failures.
    pub fn map(
        &mut self,
        name: &str,
        source: &str,
        knobs: MapKnobs,
    ) -> Result<MapSummary, ClientError> {
        let request = Request::Map {
            kernel: KernelSource::new(name, source),
            knobs,
        };
        match self.call(&request)? {
            Response::Mapped(summary) => Ok(summary),
            Response::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::Unexpected("expected a mapping summary")),
        }
    }

    /// Fetches the health snapshot.
    ///
    /// # Errors
    /// Fails on transport errors or typed server rejections.
    pub fn health(&mut self) -> Result<HealthSummary, ClientError> {
        match self.call(&Request::Health)? {
            Response::Health(health) => Ok(health),
            Response::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::Unexpected("expected a health snapshot")),
        }
    }

    /// Drops the server's cached mappings and zeroes its counters; returns
    /// how many cache entries were dropped.
    ///
    /// # Errors
    /// Fails on transport errors or typed server rejections.
    pub fn reset(&mut self) -> Result<u64, ClientError> {
        match self.call(&Request::Reset)? {
            Response::ResetDone { dropped_entries } => Ok(dropped_entries),
            Response::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::Unexpected("expected a reset ack")),
        }
    }

    /// Scrapes the server's metrics registry in the requested exposition
    /// format; returns the rendered document.
    ///
    /// # Errors
    /// Fails on transport errors or typed server rejections.
    pub fn metrics(&mut self, format: MetricsFormat) -> Result<String, ClientError> {
        match self.call(&Request::Metrics { format })? {
            Response::Metrics { body, .. } => Ok(body),
            Response::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::Unexpected("expected a metrics scrape")),
        }
    }

    /// Fetches the flight-recorder dump as one JSON document.
    ///
    /// # Errors
    /// Fails on transport errors or typed server rejections.
    pub fn dump(&mut self) -> Result<String, ClientError> {
        match self.call(&Request::Dump)? {
            Response::Dump { json } => Ok(json),
            Response::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::Unexpected("expected a flight dump")),
        }
    }

    /// Asks the daemon to shut down gracefully.
    ///
    /// # Errors
    /// Fails on transport errors or typed server rejections.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShutdownStarted => Ok(()),
            Response::Error(error) => Err(ClientError::Server(error)),
            _ => Err(ClientError::Unexpected("expected a shutdown ack")),
        }
    }
}
