//! # symphony-services
//!
//! SOAP/REST web-service simulation substrate (paper §II-A: *"Symphony
//! also supports dynamic data accessed through SOAP and REST-based web
//! services"*). Services run behind a seeded virtual-clock transport —
//! latency, jitter, failures, and timeouts are all simulated
//! deterministically and *accounted in virtual milliseconds*, never
//! slept.
//!
//! * [`message`] — protocol-tagged requests, record-set responses.
//! * [`service`] — the [`Service`] trait and self-descriptions.
//! * [`transport`] — endpoint registry + latency/failure model.
//! * [`client`] — timeout/retry/backoff/hedging policy wrapper.
//! * [`breaker`] — per-endpoint circuit breakers on the virtual clock.
//! * [`fault`] — deterministic fault injection scheduled in virtual time.
//! * [`hash`] — the workspace's stable FNV-1a / splitmix64 helpers.
//! * [`builtin`] — the pricing / in-stock / blurb services the paper's
//!   GamerQueen scenario plugs in.
//!
//! ## Quick example
//!
//! ```
//! use symphony_services::builtin::PricingService;
//! use symphony_services::client::ServiceClient;
//! use symphony_services::message::ServiceRequest;
//! use symphony_services::transport::{LatencyModel, SimulatedTransport};
//!
//! let mut transport = SimulatedTransport::new(42);
//! transport.register("pricing", Box::new(PricingService), LatencyModel::fast());
//! let client = ServiceClient::new(&transport);
//! let out = client
//!     .call("pricing", &ServiceRequest::get("/price", &[("item", "Galactic Raiders")]))
//!     .unwrap();
//! assert_eq!(out.response.first_field("currency"), Some("USD"));
//! ```

#![warn(missing_docs)]

pub mod breaker;
pub mod builtin;
pub mod client;
pub mod fault;
pub mod hash;
pub mod message;
pub mod rpc;
pub mod service;
pub mod transport;

pub use breaker::{Admission, BreakerConfig, BreakerRegistry, BreakerState};
pub use builtin::{InventoryService, PricingService, ReviewBlurbService};
pub use client::{CallPolicy, ClientOutcome, ResilienceContext, ServiceClient};
pub use fault::{ActiveFaults, FaultEffect, FaultPlan, FaultWindow};
pub use message::{ServiceRecord, ServiceRequest, ServiceResponse};
pub use service::{OperationDesc, Protocol, Service, ServiceDescription, ServiceFault};
pub use transport::{CallOutcome, LatencyModel, ServiceError, SimulatedTransport};
