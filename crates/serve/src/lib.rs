//! `iixml-serve` — a fault-hardened multi-tenant TCP session server
//! over the incomplete-information webhouse (DESIGN.md §12).
//!
//! The paper's model is many clients accumulating incomplete knowledge
//! of remote XML sources through query/answer interactions; this crate
//! is the "millions of users" front door for that model. It is
//! std-only (no external dependencies) and deliberately thin: all the
//! smarts — refinement, mediation, durability — live in the core
//! crates; this layer adds exactly the things a network edge needs:
//!
//! * a small length-prefixed, CRC-checked, versioned frame protocol
//!   ([`proto`]),
//! * per-connection deadlines and a slow-loris read budget ([`conn`]),
//! * per-tenant admission control with explicit load-shedding
//!   ([`tenant`]),
//! * a sharded session map with journaled sessions, graceful
//!   drain-and-sync shutdown, and crash-safe restart ([`server`]),
//! * a well-behaved client ([`client`]) for the CLI, load generator,
//!   and tests.
//!
//! Fault philosophy: a misbehaving client degrades *its connection*,
//! never its tenant or the fleet; an over-budget tenant is refused
//! *explicitly* (a `Shed` frame with a retry hint), never queued into
//! unbounded latency; and a kill -9 loses nothing past the last
//! group-commit barrier, because restart recovery replays every
//! session journal concurrently and byte-identically at any pool
//! width.

pub mod client;
pub mod conn;
pub mod proto;
pub mod server;
pub mod source;
pub mod tenant;

pub use client::{Client, ClientError, Resp};
pub use conn::{ConnError, DeadlineStream};
pub use proto::{FrameError, ReqOp, Request, RespOp, PROTO_VERSION};
pub use server::{DrainReport, ServeConfig, ServeError, Server};
pub use source::CatalogSource;
pub use tenant::{Admission, AdmissionConfig, Shed, TenantGate};

/// Locks a mutex, recovering from poisoning: a panicking holder (none
/// exist — the crate is vetted panic-free — but hooks and unwinds are
/// not ours to assume away) must not wedge the whole server.
pub(crate) fn lock<T>(m: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}
