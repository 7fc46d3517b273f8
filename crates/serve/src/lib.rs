//! # MedShield serving layer
//!
//! A std-only, multi-threaded TCP front end for the protection engine: the
//! paper's Fig. 2 deployment model as a long-lived *data-owner service*.
//! Hospitals submit relations over a length-framed protocol, the binning and
//! watermarking agents protect them, and detection / ownership disputes are
//! resolved on demand against the server's release store — with per-request
//! setup (engines, key schedules, domain hierarchy trees) amortized across
//! many small submissions.
//!
//! * [`protocol`] — the length-framed wire format (normative spec:
//!   `docs/PROTOCOL.md`): a 4-byte big-endian prefix, an 8-byte request id
//!   on v2 frames so one connection can pipeline requests and take replies
//!   out of order, a one-line command header, a CSV body; responses carry a
//!   hand-rolled JSON report line ([`json`]) plus an optional CSV body.
//! * [`server`] — a non-blocking I/O core (readiness loop owning every
//!   socket), bounded request queue, worker pool (one
//!   [`ProtectionEngine`](medshield_core::ProtectionEngine) per worker),
//!   per-request queue deadlines, structured error replies and graceful
//!   shutdown.
//! * [`store`] — the release store behind the [`ReleaseStore`] trait: the
//!   in-memory default, and the durable WAL + snapshot store
//!   ([`DurableStore`]) that survives a hard kill — enabled with
//!   [`ServeConfig::data_dir`] / `medshield serve --data-dir`.
//! * [`client`] — the blocking [`Client`] (v1, one request at a time) and
//!   the [`PipelinedClient`] (v2, many requests in flight per connection),
//!   used by the CLI, the loopback integration tests and the serve
//!   benchmark.
//!
//! Served responses are **byte-identical** to calling the engine in-process
//! (the `serve` benchmark gates on it), so moving from library use to the
//! service changes the deployment model, never the data.
//!
//! ```no_run
//! use medshield_serve::{serve, Client, ServeConfig};
//!
//! let handle = serve(ServeConfig::default(), "127.0.0.1:0").unwrap();
//! let mut client = Client::connect(handle.addr()).unwrap();
//! let reply = client.protect("ssn,age,zip_code,doctor,symptom,prescription\n").unwrap();
//! assert!(reply.is_ok());
//! handle.shutdown();
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod json;
pub mod protocol;
pub mod server;
pub mod store;

pub use client::{Client, ClientError, PipelinedClient};
pub use protocol::{Command, ErrorCode, Frame, Request, Response, PROTOCOL_VERSION};
pub use server::{
    serve, ServeConfig, ServeError, ServeHandle, CARRIES_MARK_THRESHOLD, MEDICAL_ROLES,
};
pub use store::{DurableStore, MemoryStore, ReleaseStore, StoreError, StoredRelease};
