//! Packet formats, addressing, flows, and tunneling for the Potemkin
//! honeyfarm.
//!
//! The Potemkin gateway router sits on the path of every packet entering or
//! leaving the honeyfarm: traffic for telescope address ranges arrives over
//! GRE tunnels, is demultiplexed to honeypot VMs, and everything the VMs emit
//! is classified against a containment policy. This crate provides the wire
//! formats that the gateway and the workload generators share:
//!
//! * [`addr`] — IPv4 prefixes (CIDR), address arithmetic.
//! * `checksum` — the RFC 1071 Internet checksum.
//! * [`ipv4`], [`tcp`], [`udp`], [`icmp`] — header parsing and
//!   construction with checksum handling.
//! * [`gre`] — GRE encapsulation (RFC 2784) used to backhaul telescope
//!   prefixes to the gateway.
//! * [`dns`] — a minimal DNS wire codec (queries and A answers) for the
//!   gateway's DNS containment policy.
//! * `flow` — canonical 5-tuple flow keys.
//! * [`pcap`] — standard libpcap trace export/import (Wireshark-ready).
//! * `packet` — the owned packet (its validated wire image) plus the
//!   builders the rest of the workspace uses to synthesize traffic.

#![warn(unreachable_pub)]

pub mod addr;
mod checksum;
pub mod dns;
mod error;
mod flow;
pub mod gre;
pub mod icmp;
pub mod ipv4;
mod packet;
pub mod pcap;
pub mod tcp;
pub mod udp;

pub use addr::Ipv4Prefix;
pub use error::NetError;
pub use flow::{FlowKey, Transport};
pub use packet::{BufferPool, Packet, PacketBuilder, PacketPayload};
