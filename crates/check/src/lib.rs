//! # turb-check — deterministic fuzzing and differential checks
//!
//! A seeded, structure-aware testing subsystem for the wire and
//! capture layers: it generates valid, truncated, bit-flipped and
//! adversarially fragmented inputs and asserts the properties the rest
//! of the workspace silently relies on:
//!
//! * every IPv4 decode path (`decode`, `decode_shared`, `PacketView`)
//!   accepts/rejects the same inputs with the same result, and none of
//!   the decoders panics on arbitrary bytes;
//! * encode → fragment → shuffle/drop/duplicate → reassemble either
//!   round-trips the payload exactly or fails closed with coherent
//!   [`turb_wire::frag::ReassemblyStats`];
//! * the one-shot and incremental [`turb_wire::checksum::Checksum`] equal a
//!   naive RFC 1071 sum under every split of the input;
//! * a capture written to pcap reads back identically.
//!
//! Everything is reproducible: a campaign is a root seed, a case is a
//! derived `u64`, and a failure serialises to a small text file
//! ([`case::Case`]) that `turbulence check --replay` re-executes.
//! Byte-driven counterexamples are minimised before they are reported.
//!
//! The CLI entry point is `turbulence check --iterations N --seed S`.

pub mod case;
pub mod gen;
pub mod props;
pub mod rng;
pub mod runner;

pub use case::Case;
pub use rng::CheckRng;
pub use runner::{run, CheckConfig, Failure};
