//! # turb-capture — the workspace's Ethereal
//!
//! The paper "captured all of the network traffic of streaming from the
//! client to the video servers" with Ethereal 0.8.20 (§2.B.3). This
//! crate is that role: a [`Sniffer`] taps a simulated node and records
//! every packet it sends or receives; [`filter`] provides the display-
//! filter predicates the analysis uses; [`frag`] reproduces Ethereal's
//! fragment-group view ("one UDP packet and the remaining packets are
//! IP fragments", §3.C); and [`pcap`] writes/reads classic libpcap
//! files readable by today's Wireshark.

pub mod filter;
pub mod frag;
pub mod pcap;
pub mod record;
pub mod sniffer;

pub use filter::Filter;
pub use frag::{FragmentGroups, FragmentationStats, Frame};
pub use record::PacketRecord;
pub use sniffer::{Capture, Sniffer};
