//! The `rect-addr` serving layer: a [`Service`] facade over the
//! portfolio engine plus the transports that speak the versioned wire
//! protocol (`rect-addr-proto`) over it.
//!
//! * [`Service`] — submission façade: a **bounded, priority-ordered
//!   queue** with a worker pool over one shared
//!   [`Engine`](engine::Engine). [`Service::submit`] hands back a
//!   [`JobHandle`]; [`Service::cancel`] removes still-queued jobs; a full
//!   queue signals backpressure ([`SubmitError::Busy`] → `busy`
//!   responses); [`Service::stats`] exposes cache/queue observability
//!   including the hot heuristic-canonization keys.
//! * The protocol session (`session.rs`) — one connection's v1/v2 state
//!   machine with no I/O of its own: line framing, handshake, cancel,
//!   stats, `schedule` frames (run as continuations on the worker pool),
//!   tallies and the summary trailer. Both transports drive it and only
//!   move bytes.
//! * [`serve_connection`] — one connection over any `BufRead`/`Write`
//!   pair (stdin/stdout, files, in-memory buffers). Drains in-flight
//!   jobs and emits the summary trailer on end-of-input.
//! * [`serve_socket_event`] — the socket transport: one readiness loop
//!   owning every Unix-domain/TCP connection, fanning them all into one
//!   shared service, so the canonical cache and the warm SAP sessions
//!   are shared across clients. The process runs that loop plus the
//!   worker pool however many connections or schedules are open. [`LineClient`]/[`pump`] are the matching client side.
//!
//! # Examples
//!
//! ```
//! use rect_addr_serve::{serve_connection, Service, ServiceConfig};
//! use engine::EngineConfig;
//!
//! let service = Service::with_engine_config(EngineConfig::default(), ServiceConfig::default());
//! let jobs = "{\"id\": \"l0\", \"matrix\": [\"10\", \"01\"]}\n\
//!             {\"id\": \"l1\", \"matrix\": [\"01\", \"10\"]}\n";
//! let mut out = Vec::new();
//! let summary = serve_connection(&service, jobs.as_bytes(), &mut out)?;
//! assert_eq!(summary.solved, 2);
//! // l1 is l0 with rows swapped: answered from the canonical-form cache.
//! assert_eq!(service.engine().cache_stats().hits, 1);
//! # Ok::<(), std::io::Error>(())
//! ```

mod client;
mod connection;
mod event;
mod schedule;
mod service;
mod session;
mod socket;
pub mod sys;

pub use client::{pump, LineClient};
pub use connection::serve_connection;
pub use event::{serve_socket_event, serve_socket_event_with, EventLoopConfig};
pub use schedule::MAX_ACTIVE_SCHEDULES;
pub use service::{
    GroupId, JobHandle, OutEvent, PersistConfig, ResponseSink, Service, ServiceConfig,
    ServiceStats, SubmitError, Ticket, DEFAULT_QUEUE_DEPTH, DEFAULT_SNAPSHOT_EVERY,
};
pub use session::ConnectionSummary;
pub use socket::{connect, BindAddr, SocketServer, SocketStream, WRITE_TIMEOUT};
