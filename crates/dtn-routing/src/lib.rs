//! # dtn-routing
//!
//! DTN routing protocols for the SDSRP simulator.
//!
//! The simulator applies the rules every router shares: a copy is
//! delivered when the peer is its destination, and nothing goes to a peer
//! that buffers the message, was delivered it or holds its antipacket. A
//! routing protocol answers the one question left for each buffered
//! copy: *how may it move to a peer that is not its destination and
//! neither holds nor knows the message?* ([`RoutingProtocol::relay`],
//! from the copy's source, destination and token count). The buffer
//! policy (from `dtn-buffer` / `sdsrp-core`) then orders the eligible
//! messages — the separation mirrors the paper, which keeps
//! Spray-and-Wait's forwarding rule fixed and varies only the
//! scheduling/drop strategy.
//!
//! Protocols:
//!
//! * [`spray_and_wait::SprayAndWait`] — the paper's
//!   router: binary (or source) token spraying; in the wait phase a copy
//!   relays to no one.
//! * [`Epidemic`](epidemic::Epidemic) — replicate everything to
//!   everyone; the classic flooding baseline.
//! * [`DirectDelivery`](direct::DirectDelivery) — source holds the
//!   message until it meets the destination; the lower bound.
//! * [`Prophet`](prophet::Prophet) — extension: delivery-predictability
//!   routing with transitivity (PRoPHET, Lindgren et al. 2003).
//! * [`SprayAndFocus`](spray_and_focus::SprayAndFocus) — extension
//!   (paper's related work \[18\]): wait phase replaced by utility-based
//!   single-copy *handoff* using last-encounter timers.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![warn(rust_2018_idioms)]

pub mod direct;
pub mod epidemic;
pub mod prophet;
pub mod protocol;
pub mod spray_and_focus;
pub mod spray_and_wait;

pub use protocol::{RoutingCtx, RoutingProtocol, TransferKind};
pub use spray_and_wait::{SprayAndWait, SprayMode};
