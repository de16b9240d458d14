//! `cote-net`: the network front-end that puts
//! [`CoteService`](cote_service::CoteService) on the wire.
//!
//! PR 1 built the estimation-and-admission daemon and PR 2 its
//! observability; both were only reachable in-process or via stdin. This
//! crate adds the serving stack, `std`-only:
//!
//! ```text
//!            ┌──────────────────────────────────────────────────────┐
//!  TCP ────▶ │ acceptor ─▶ L event loops (epoll | poll)             │
//!            │     │ over max_conns → "BUSY connections" + close    │
//!            │     ▼                                                │
//!            │ per connection: length-capped frames, protocol sniff │
//!            │   wire:  PING / ESTIMATE / ADMIT / METRICS           │
//!            │   http:  GET /metrics | GET /healthz | POST /estimate│
//!            │ CoteService::submit → OK | BUSY <reason> | ERR       │
//!            └──────────────────────────────────────────────────────┘
//! ```
//!
//! - [`frame`]: the length-capped line splitter every untrusted input goes
//!   through (including `cote serve`'s stdin loop).
//! - [`proto`]: the one-line request/response grammar and JSON payloads.
//! - [`http`]: a minimal HTTP/1.1 parser/printer for scrapers and probes.
//! - [`handler`]: what a request means ([`WireHandler`]), apart from how it
//!   travels.
//! - [`event`]: the front-end — an acceptor feeding event loops over
//!   non-blocking connections, layered backpressure (connection cap here,
//!   estimation admission inside the service), graceful deadline-bounded
//!   drain.
//! - [`poll`]: the readiness poller the loops wait on.
//! - [`client`]: a blocking wire-protocol client.
//! - [`bench`]: an open-loop socket load generator over
//!   `cote_workloads::traffic` schedules.

pub mod bench;
pub mod chaos;
pub mod client;
pub mod event;
pub mod frame;
pub mod handler;
pub mod http;
pub mod metrics;
pub mod poll;
pub mod proto;

pub use bench::{bench_net, NetBenchConfig, NetBenchReport};
pub use client::{NetClient, NetClientConfig, NetError};
pub use event::{DrainReport, EventConfig, EventServer};
pub use frame::{FrameBuffer, FrameError, LineReader, MAX_LINE_BYTES};
pub use handler::{http_body_to_wire, wire_to_http, ServiceHandler, WireHandler};
pub use http::{HttpError, HttpRequest};
pub use metrics::{NetMetrics, PollMetrics};
pub use poll::{new_poller, Interest, PollEvent, Poller};
pub use proto::{parse_class, parse_request, WireRequest, WireResponse};
