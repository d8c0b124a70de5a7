//! Simplex point-to-point links with serialisation delay, propagation
//! delay, and a drop-tail queue.

use crate::fault::FaultInjector;
use crate::red::RedQueue;
use crate::time::{mul_div, SimDuration, SimTime};
use turb_obs::SymbolId;

/// Identifier of a link within a [`crate::sim::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LinkId(pub usize);

/// Identifier of a node within a [`crate::sim::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Static configuration of a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Transmission rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub propagation: SimDuration,
    /// Drop-tail transmit queue capacity in bytes. Packets arriving
    /// when the backlog would exceed this are discarded.
    pub queue_capacity: usize,
    /// Link MTU in bytes of IP packet; larger packets are fragmented by
    /// the transmitting node.
    pub mtu: usize,
}

impl LinkConfig {
    /// A 10 Mbit/s Ethernet access link, like the paper's client NIC
    /// ("PCI 10M base Network Interface Card").
    pub fn ethernet_10m(propagation: SimDuration) -> Self {
        LinkConfig {
            rate_bps: 10_000_000,
            propagation,
            queue_capacity: 64 * 1024,
            mtu: turb_wire::DEFAULT_MTU,
        }
    }

    /// A 45 Mbit/s T3 backbone hop.
    pub fn t3(propagation: SimDuration) -> Self {
        LinkConfig {
            rate_bps: 45_000_000,
            propagation,
            queue_capacity: 256 * 1024,
            mtu: turb_wire::DEFAULT_MTU,
        }
    }

    /// Serialisation time for a packet of `bytes`.
    pub fn tx_time(&self, bytes: usize) -> SimDuration {
        SimDuration::transmission(bytes, self.rate_bps)
    }
}

/// Counters kept per link.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Packets accepted for transmission.
    pub tx_packets: u64,
    /// Bytes accepted for transmission (IP bytes).
    pub tx_bytes: u64,
    /// Packets dropped because the transmit queue was full.
    pub dropped_queue: u64,
    /// Packets dropped early by RED.
    pub dropped_red: u64,
    /// Packets dropped by the fault injector.
    pub dropped_fault: u64,
    /// High-water mark of the transmit queue, in bytes (backlog plus
    /// the packet being admitted). Deterministic sim state like every
    /// other counter here — a link's transmits happen in one shard
    /// domain in event order — so it is safe inside the identity set.
    pub peak_backlog_bytes: u64,
}

/// A simplex link. Duplex connectivity is modelled as a pair of links.
#[derive(Debug)]
pub struct Link {
    /// This link's id.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Static parameters.
    pub config: LinkConfig,
    /// Fault injector applied to every packet.
    pub fault: FaultInjector,
    /// Optional RED active queue management; `None` = plain drop-tail.
    pub red: Option<RedQueue>,
    /// Instant at which the transmitter becomes free.
    next_free: SimTime,
    /// Bandwidth currently occupied by fluid background flows, in bits
    /// per second. Zero unless a hybrid run's solver assigned this
    /// link a share (see [`crate::fluid`]); updated only by
    /// `FluidUpdate` events.
    pub(crate) fluid_bps: u64,
    /// Counters.
    pub stats: LinkStats,
    /// `"link:<id>"`, precomputed once so hot-path tracing and metric
    /// harvesting never rebuild it per event.
    pub trace_component: String,
    /// [`trace_component`](Link::trace_component) interned in the
    /// run's shared symbol table. Assigned by
    /// [`crate::sim::Simulation::add_link`]; hot-path observers record
    /// this handle instead of cloning the string.
    pub comp: SymbolId,
    /// This link's private random stream, consumed by the fault
    /// injector and RED. Forked per link at construction so the draw
    /// sequence is a function of this link's traffic alone — which is
    /// what keeps faulty runs byte-identical when the topology is
    /// partitioned across shard domains.
    pub rng: crate::rng::SimRng,
}

/// Outcome of offering a packet to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxOutcome {
    /// The packet will arrive at the far end at the given instant.
    Deliver {
        /// Arrival instant (end of serialisation + propagation + jitter).
        arrival: SimTime,
    },
    /// Dropped: transmit queue full.
    QueueFull,
    /// Dropped: RED early drop (queue had room; AQM chose to shed).
    Red,
    /// Dropped: fault injector.
    Faulted,
}

impl Link {
    /// Create a link; normally done through
    /// [`crate::sim::Simulation::add_link`].
    pub fn new(id: LinkId, from: NodeId, to: NodeId, config: LinkConfig) -> Self {
        Link {
            id,
            from,
            to,
            config,
            fault: FaultInjector::none(),
            red: None,
            next_free: SimTime::ZERO,
            fluid_bps: 0,
            stats: LinkStats::default(),
            trace_component: format!("link:{}", id.0),
            comp: SymbolId(0),
            rng: crate::rng::SimRng::new(0x11A8_0000 ^ id.0 as u64),
        }
    }

    /// The capacity the packet path may use: configured rate minus the
    /// fluid engine's share, floored at 1% of the configured rate (a
    /// fully fluid-saturated link still trickles packets instead of
    /// dividing by zero — the residual floor is documented in DESIGN
    /// §5). Exactly `config.rate_bps` when no fluid occupies the link,
    /// so packet-engine arithmetic is untouched byte-for-byte.
    pub fn effective_rate_bps(&self) -> u64 {
        if self.fluid_bps == 0 {
            self.config.rate_bps
        } else {
            (self.config.rate_bps.saturating_sub(self.fluid_bps))
                .max(self.config.rate_bps / 100)
                .max(1)
        }
    }

    /// The fluid engine's current share of this link, in bits per
    /// second.
    pub fn fluid_bps(&self) -> u64 {
        self.fluid_bps
    }

    /// Bytes currently queued awaiting transmission. Exact for a FIFO
    /// transmitter: the backlog is whatever the remaining busy time can
    /// serialise at the current residual rate.
    pub fn backlog_bytes(&self, now: SimTime) -> usize {
        let busy = self.next_free.since(now);
        mul_div(
            busy.as_nanos(),
            self.effective_rate_bps(),
            8 * 1_000_000_000,
        ) as usize
    }

    /// Offer an IP packet of `bytes` for transmission at `now`.
    ///
    /// Applies drop-tail admission, FIFO serialisation, propagation
    /// delay, and the fault injector, and returns when (or whether) the
    /// packet reaches the far end.
    pub fn transmit(&mut self, now: SimTime, bytes: usize) -> TxOutcome {
        let backlog = self.backlog_bytes(now);
        if backlog + bytes > self.config.queue_capacity {
            self.stats.dropped_queue += 1;
            return TxOutcome::QueueFull;
        }
        if let Some(red) = self.red.as_mut() {
            if red.should_drop(backlog, &mut self.rng) {
                self.stats.dropped_red += 1;
                return TxOutcome::Red;
            }
        }
        let start = self.next_free.max(now);
        let done = start + SimDuration::transmission(bytes, self.effective_rate_bps());
        self.next_free = done;
        self.stats.tx_packets += 1;
        self.stats.tx_bytes += bytes as u64;
        self.stats.peak_backlog_bytes = self.stats.peak_backlog_bytes.max((backlog + bytes) as u64);
        if self.fault.should_drop(&mut self.rng) {
            // The packet consumed transmit bandwidth but is lost in
            // flight; nothing arrives.
            self.stats.dropped_fault += 1;
            return TxOutcome::Faulted;
        }
        let arrival = done + self.config.propagation + self.fault.extra_delay(&mut self.rng);
        TxOutcome::Deliver { arrival }
    }

    /// Utilisation bookkeeping: when the transmitter frees up.
    pub fn next_free(&self) -> SimTime {
        self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link(rate_bps: u64, prop_ms: u64, queue: usize) -> Link {
        Link::new(
            LinkId(0),
            NodeId(0),
            NodeId(1),
            LinkConfig {
                rate_bps,
                propagation: SimDuration::from_millis(prop_ms),
                queue_capacity: queue,
                mtu: 1500,
            },
        )
    }

    #[test]
    fn single_packet_latency_is_tx_plus_prop() {
        let mut l = link(8_000_000, 10, 1 << 20); // 1 byte / µs
        match l.transmit(SimTime::ZERO, 1000) {
            TxOutcome::Deliver { arrival } => {
                // 1000 µs serialisation + 10 ms propagation.
                assert_eq!(arrival, SimTime(1_000_000 + 10_000_000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_serialise_fifo() {
        let mut l = link(8_000_000, 0, 1 << 20);
        let a = l.transmit(SimTime::ZERO, 1000);
        let b = l.transmit(SimTime::ZERO, 1000);
        let (TxOutcome::Deliver { arrival: ta }, TxOutcome::Deliver { arrival: tb }) = (a, b)
        else {
            panic!("both should deliver");
        };
        assert_eq!(tb.since(ta), SimDuration::from_micros(1000));
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut l = link(8_000_000, 0, 1 << 20);
        l.transmit(SimTime::ZERO, 1000);
        l.transmit(SimTime::ZERO, 1000);
        assert_eq!(l.backlog_bytes(SimTime::ZERO), 2000);
        assert_eq!(l.backlog_bytes(SimTime(1_000_000)), 1000);
        assert_eq!(l.backlog_bytes(SimTime(2_000_000)), 0);
    }

    /// At 1 bps a 1500 B packet keeps the link busy 12,000 s, and the
    /// backlog read back from that busy time is exact.
    #[test]
    fn backlog_is_exact_at_one_bit_per_second() {
        let mut l = link(1, 0, 1 << 20);
        l.transmit(SimTime::ZERO, 1500);
        assert_eq!(l.next_free(), SimTime(12_000 * 1_000_000_000));
        assert_eq!(l.backlog_bytes(SimTime::ZERO), 1500);
        assert_eq!(l.backlog_bytes(SimTime(6_000 * 1_000_000_000)), 750);
        assert_eq!(l.backlog_bytes(l.next_free()), 0);
    }

    #[test]
    fn drop_tail_when_queue_full() {
        let mut l = link(8_000, 0, 1500); // slow link, tiny queue
        assert!(matches!(
            l.transmit(SimTime::ZERO, 1000),
            TxOutcome::Deliver { .. }
        ));
        // Backlog is now 1000 bytes; a 1000-byte packet exceeds capacity.
        assert_eq!(l.transmit(SimTime::ZERO, 1000), TxOutcome::QueueFull);
        assert_eq!(l.stats.dropped_queue, 1);
        // A small packet still fits.
        assert!(matches!(
            l.transmit(SimTime::ZERO, 400),
            TxOutcome::Deliver { .. }
        ));
    }

    #[test]
    fn fault_injector_drops_consume_bandwidth() {
        let mut l = link(8_000_000, 0, 1 << 20);
        l.fault = FaultInjector::bernoulli(1.0);
        assert_eq!(l.transmit(SimTime::ZERO, 1000), TxOutcome::Faulted);
        assert_eq!(l.stats.dropped_fault, 1);
        assert_eq!(l.backlog_bytes(SimTime::ZERO), 1000);
    }

    #[test]
    fn fluid_share_reduces_residual_capacity() {
        let mut l = link(8_000_000, 0, 1 << 20); // 1 byte / µs
        assert_eq!(l.effective_rate_bps(), 8_000_000);
        l.fluid_bps = 4_000_000; // half the link is fluid
        assert_eq!(l.effective_rate_bps(), 4_000_000);
        match l.transmit(SimTime::ZERO, 1000) {
            // Serialisation takes twice as long against the residual.
            TxOutcome::Deliver { arrival } => assert_eq!(arrival, SimTime(2_000_000)),
            other => panic!("unexpected {other:?}"),
        }
        // Fully saturated: the 1% residual floor keeps packets moving.
        l.fluid_bps = 8_000_000;
        assert_eq!(l.effective_rate_bps(), 80_000);
        l.fluid_bps = 9_999_999_999;
        assert_eq!(l.effective_rate_bps(), 80_000);
        // Share withdrawn: configured rate restored exactly.
        l.fluid_bps = 0;
        assert_eq!(l.effective_rate_bps(), 8_000_000);
    }

    #[test]
    fn saturated_trickle_keeps_sub_100bps_links_alive() {
        // Regression guard for the residual floor on low-capacity
        // links: below 100 bit/s the 1%-of-capacity floor truncates to
        // zero in u64, and a fully fluid-saturated link would then
        // hand a 0 bit/s rate to `SimDuration::transmission`, which
        // asserts. The `.max(1)` clamp keeps the trickle path alive.
        let mut l = link(50, 0, 1 << 20);
        l.fluid_bps = 50;
        assert_eq!(l.effective_rate_bps(), 1);
        // Any partial saturation of a sub-100 bps link floors at 1 too.
        l.fluid_bps = 49;
        assert_eq!(l.effective_rate_bps(), 1);
        l.fluid_bps = u64::MAX;
        assert_eq!(l.effective_rate_bps(), 1);
        // The packet still serialises (very slowly) instead of
        // panicking: 10 bytes at 1 bit/s is 80 s on the wire.
        match l.transmit(SimTime::ZERO, 10) {
            TxOutcome::Deliver { arrival } => {
                assert_eq!(arrival, SimTime::ZERO + SimDuration::from_secs(80));
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        // backlog_bytes against the 1 bps residual stays finite/exact.
        assert_eq!(l.backlog_bytes(SimTime::ZERO), 10);
        // Share withdrawn: the configured rate comes back untouched.
        l.fluid_bps = 0;
        assert_eq!(l.effective_rate_bps(), 50);
    }

    #[test]
    fn peak_backlog_tracks_the_queue_high_water_mark() {
        let mut l = link(8_000_000, 0, 1 << 20);
        assert_eq!(l.stats.peak_backlog_bytes, 0);
        l.transmit(SimTime::ZERO, 1000);
        l.transmit(SimTime::ZERO, 1000);
        assert_eq!(l.stats.peak_backlog_bytes, 2000);
        // Draining does not lower the high-water mark...
        l.transmit(SimTime(2_000_000), 500);
        assert_eq!(l.stats.peak_backlog_bytes, 2000);
        // ...and rejected packets never raise it.
        let mut tiny = link(8_000, 0, 1500);
        tiny.transmit(SimTime::ZERO, 1000);
        assert_eq!(tiny.transmit(SimTime::ZERO, 1000), TxOutcome::QueueFull);
        assert_eq!(tiny.stats.peak_backlog_bytes, 1000);
    }

    #[test]
    fn presets_have_expected_rates() {
        let p = SimDuration::from_millis(1);
        assert_eq!(LinkConfig::ethernet_10m(p).rate_bps, 10_000_000);
        assert_eq!(LinkConfig::t3(p).rate_bps, 45_000_000);
        // 1500 bytes on 10 Mbit/s Ethernet = 1.2 ms.
        assert_eq!(
            LinkConfig::ethernet_10m(p).tx_time(1500),
            SimDuration::from_micros(1200)
        );
    }
}
