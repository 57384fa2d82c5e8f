//! Mapping-as-a-service: the serving layer over the FPFA mapping flow.
//!
//! The paper's flow is a one-shot compiler; this crate turns it into a
//! long-lived network service so the whole pipeline (frontend → transform →
//! cluster → partition → schedule → allocate → cache) can be exercised
//! under concurrent, sustained load:
//!
//! * [`protocol`] — a hand-rolled, length-prefixed framed wire protocol
//!   (std-only; encode/decode is a pure, separately testable layer).
//!   Protocol **v2** adds a magic + version handshake and a `u64` request
//!   id on every frame, so a connection can pipeline many requests and
//!   receive responses out of order;
//! * [`sys`] — readiness polling over raw fds (`epoll` on Linux via thin
//!   `extern "C"` bindings, `poll(2)` elsewhere on Unix) plus a cross-
//!   thread [`Waker`](sys::Waker) — the only module allowed `unsafe`;
//! * [`server`] — the daemon: a small set of event-driven I/O shards, each
//!   owning its accepted connections, buffers and a warm summary table,
//!   over a fixed worker pool sharing one
//!   [`MappingService`](fpfa_core::service::MappingService).  Admission
//!   control (queue-full ⇒ an immediate typed `Overloaded` response),
//!   per-request deadline budgets, graceful drain-on-shutdown, and
//!   atomics-backed statistics carry over from the v1 design;
//! * [`client`] — the client library: a pipelined core
//!   ([`Client::submit`] / [`Client::wait`]) with the blocking one-call
//!   verbs kept as wrappers.
//!
//! The unit of work is one kernel: many kernels travel as many `map`
//! requests pipelined on one connection, each with its own request id,
//! queue slot and deadline, and each answerable from the warm tiers.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use fpfa_core::pipeline::Mapper;
//! use fpfa_core::service::MappingService;
//! use fpfa_server::{Client, MapKnobs, Server, ServerConfig};
//!
//! let service = MappingService::new(Mapper::new());
//! let server = Server::bind("127.0.0.1:0", ServerConfig::default(), service)?;
//! let handle = server.spawn()?;
//!
//! let mut client = Client::connect(handle.addr())?;
//! let summary = client.map(
//!     "dot2",
//!     "void main() { int a[2]; int r; r = a[0] * a[1]; }",
//!     MapKnobs::default(),
//! )?;
//! assert!(summary.cycles > 0);
//!
//! client.shutdown()?;
//! handle.join();
//! # Ok(())
//! # }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod protocol;
// The syscall shim is the single scoped exception to `deny(unsafe_code)`:
// two `extern "C"` declarations and the buffer handed to `epoll_wait`.
#[allow(unsafe_code)]
pub mod sys;

pub mod server;

pub use client::{Client, ClientError, Ticket};
pub use protocol::{
    program_digest, CacheFlavor, HelloAck, KernelSource, MapKnobs, MapSummary, MetricsFormat,
    ProtocolError, Request, Response, WireError,
};
pub use server::{Server, ServerConfig, ServerHandle, ShutdownTrigger};
