//! Nodes: hosts (run applications, reassemble fragments) and routers
//! (forward, decrement TTL, emit ICMP time-exceeded).

use crate::link::{LinkId, NodeId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::net::Ipv4Addr;
use turb_obs::SymbolId;
use turb_wire::ethernet::MacAddr;
use turb_wire::frag::Reassembler;

/// Identifier of an application within a [`crate::sim::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AppId(pub usize);

/// A fixed multiplicative hasher for the per-hop route and port
/// lookups, whose keys are small integers (an address, a port). Keys
/// come from the topology, not from an adversary, so SipHash's
/// flooding resistance buys nothing here. Nothing iterates these maps,
/// so the hasher cannot reorder any output.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

impl MulHasher {
    /// An odd constant with well-spread bits.
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl Hasher for MulHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u16(&mut self, n: u16) {
        self.write_u64(u64::from(n));
    }

    fn write_u32(&mut self, n: u32) {
        self.write_u64(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.0 = self.0.wrapping_add(n).wrapping_mul(MulHasher::K);
    }

    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn finish(&self) -> u64 {
        // The product's high bits are its best mixed; move them down to
        // where the table takes its bucket index from.
        self.0.rotate_left(26)
    }
}

/// A map keyed by [`MulHasher`].
pub type MulHashMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// What a node does with packets addressed elsewhere.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// End system: terminates traffic, runs applications.
    Host,
    /// Forwards traffic, decrements TTL, answers traceroute.
    Router,
}

/// Counters kept per node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NodeStats {
    /// IP packets received (per fragment, pre-reassembly).
    pub rx_packets: u64,
    /// IP bytes received.
    pub rx_bytes: u64,
    /// IP packets originated or forwarded.
    pub tx_packets: u64,
    /// Packets discarded: TTL expired here.
    pub ttl_expired: u64,
    /// Packets discarded: no route to destination.
    pub no_route: u64,
    /// UDP datagrams delivered to applications.
    pub udp_delivered: u64,
    /// UDP datagrams to ports nobody listens on.
    pub udp_unreachable: u64,
    /// TCP segments delivered to applications.
    pub tcp_delivered: u64,
    /// TCP segments to ports nobody listens on.
    pub tcp_unreachable: u64,
    /// Packets whose L3/L4 decode failed (e.g. corrupted checksum).
    pub decode_errors: u64,
}

/// A node in the simulated network.
#[derive(Debug)]
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Human-readable name for reports and traceroute output.
    pub name: String,
    /// IPv4 address (one per node; multi-homing is not modelled).
    pub addr: Ipv4Addr,
    /// MAC address used when frames are materialised for capture.
    pub mac: MacAddr,
    /// Host or router.
    pub kind: NodeKind,
    /// Longest-prefix routing is overkill for our topologies: exact
    /// destination → outgoing link, with an optional default.
    pub routes: MulHashMap<Ipv4Addr, LinkId>,
    /// Default route when no exact match exists.
    pub default_route: Option<LinkId>,
    /// UDP port → listening application.
    pub ports: MulHashMap<u16, AppId>,
    /// TCP port → listening application (raw segment delivery; the
    /// connection state machine lives in `crate::tcp`).
    pub tcp_ports: MulHashMap<u16, AppId>,
    /// Applications that want a copy of non-echo-request ICMP
    /// arriving at this node (ping/tracert tools).
    pub icmp_listeners: Vec<AppId>,
    /// IPv4 identification counter for originated datagrams.
    pub ip_ident: u16,
    /// Fragment reassembly state for traffic terminating here.
    pub reassembler: Reassembler,
    /// Counters.
    pub stats: NodeStats,
    /// `"node:<name>"`, precomputed once so hot-path tracing and
    /// metric harvesting never rebuild it per event.
    pub trace_component: String,
    /// [`trace_component`](Node::trace_component) interned in the
    /// run's shared symbol table. Assigned by
    /// [`crate::sim::Simulation::add_host`]/`add_router`; hot-path
    /// observers (lineage, time-series, traces) record this handle
    /// instead of cloning the string.
    pub comp: SymbolId,
    /// This node's private random stream, consumed by applications
    /// through [`crate::sim::Ctx::rng`] (e.g. TCP initial sequence
    /// numbers). Forked per node at construction so the draw sequence
    /// is a function of this node's behaviour alone — which is what
    /// keeps runs byte-identical when the topology is partitioned
    /// across shard domains.
    pub rng: crate::rng::SimRng,
}

impl Node {
    /// Create a node; normally done through
    /// [`crate::sim::Simulation::add_host`] / `add_router`.
    pub fn new(id: NodeId, name: String, addr: Ipv4Addr, kind: NodeKind) -> Self {
        // Classic stacks hold fragments for 15-60 s; 30 s here.
        const REASSEMBLY_TIMEOUT_NS: u64 = 30_000_000_000;
        let trace_component = format!("node:{name}");
        Node {
            id,
            name,
            addr,
            mac: MacAddr::local(id.0 as u32),
            kind,
            routes: MulHashMap::default(),
            default_route: None,
            ports: MulHashMap::default(),
            tcp_ports: MulHashMap::default(),
            icmp_listeners: Vec::new(),
            ip_ident: 0,
            reassembler: Reassembler::new(REASSEMBLY_TIMEOUT_NS),
            stats: NodeStats::default(),
            trace_component,
            comp: SymbolId(0),
            rng: crate::rng::SimRng::new(0x11A8_1000 ^ id.0 as u64),
        }
    }

    /// Allocate the next IPv4 identification value.
    pub fn next_ident(&mut self) -> u16 {
        let id = self.ip_ident;
        self.ip_ident = self.ip_ident.wrapping_add(1);
        id
    }

    /// Resolve the outgoing link toward `dst`.
    pub fn route(&self, dst: Ipv4Addr) -> Option<LinkId> {
        self.routes.get(&dst).copied().or(self.default_route)
    }

    /// Install an exact-destination route.
    pub fn add_route(&mut self, dst: Ipv4Addr, via: LinkId) {
        self.routes.insert(dst, via);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node() -> Node {
        Node::new(
            NodeId(3),
            "client".into(),
            Ipv4Addr::new(130, 215, 36, 10),
            NodeKind::Host,
        )
    }

    #[test]
    fn ident_counter_increments_and_wraps() {
        let mut n = node();
        n.ip_ident = u16::MAX - 1;
        assert_eq!(n.next_ident(), u16::MAX - 1);
        assert_eq!(n.next_ident(), u16::MAX);
        assert_eq!(n.next_ident(), 0);
    }

    #[test]
    fn routing_prefers_exact_match_over_default() {
        let mut n = node();
        let dst = Ipv4Addr::new(204, 71, 200, 33);
        assert_eq!(n.route(dst), None);
        n.default_route = Some(LinkId(9));
        assert_eq!(n.route(dst), Some(LinkId(9)));
        n.add_route(dst, LinkId(2));
        assert_eq!(n.route(dst), Some(LinkId(2)));
        // Other destinations still use the default.
        assert_eq!(n.route(Ipv4Addr::new(1, 2, 3, 4)), Some(LinkId(9)));
    }

    #[test]
    fn mac_is_derived_from_id() {
        assert_eq!(node().mac, MacAddr::local(3));
    }
}
