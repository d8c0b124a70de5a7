//! Every drop cause reconciles across all four observers.
//!
//! The lossy-link and fragmentation suites exercise the link and
//! reassembly causes only. Here each of the 11 [`DropCause`]s gets one
//! small simulation that provokes it on purpose: a host `a`, a router
//! `r` and a host `b` in a line, with lineage, 1 s time-series and
//! session rollups on. Every packet is injected at `a` carrying one
//! registered session's tag. After the run, the cause's always-on
//! counter must equal its windowed series total, the rollups'
//! per-cause sum and the lineage post-mortem's count.

use bytes::Bytes;
use std::net::Ipv4Addr;
use turb_netsim::prelude::*;
use turb_netsim::{DropCause, RedQueue};
use turb_obs::lineage::post_mortem;
use turb_obs::{MetricsRegistry, SessionRecorder};
use turb_wire::{IpProtocol, Ipv4Packet, SessionTag, TcpFlags, TcpSegment, UdpDatagram};

const A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// Routed by `r` towards `b`, which is not its owner.
const BEYOND_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 3);
/// Routed by nobody.
const NOWHERE: Ipv4Addr = Ipv4Addr::new(192, 0, 2, 1);
const SINK_PORT: u16 = 6000;

/// The line topology, with every observer on.
struct Line {
    sim: Simulation,
    a: NodeId,
    b: NodeId,
    a_to_r: LinkId,
    ident: u16,
}

struct Sink;
impl Application for Sink {}

impl Line {
    fn new(seed: u64) -> Line {
        let mut sim = Simulation::new(seed);
        let a = sim.add_host("a", A);
        let r = sim.add_router("r", Ipv4Addr::new(10, 0, 0, 254));
        let b = sim.add_host("b", B);
        let config = LinkConfig {
            rate_bps: 10_000_000,
            propagation: SimDuration::from_millis(1),
            queue_capacity: 1_000_000,
            mtu: 1500,
        };
        let (a_to_r, r_to_a) = sim.add_duplex(a, r, config);
        let (r_to_b, b_to_r) = sim.add_duplex(r, b, config);
        sim.core_mut().node_mut(a).default_route = Some(a_to_r);
        sim.core_mut().node_mut(b).default_route = Some(b_to_r);
        let router = sim.core_mut().node_mut(r);
        router.add_route(A, r_to_a);
        router.add_route(B, r_to_b);
        router.add_route(BEYOND_B, r_to_b);
        sim.add_app(b, Box::new(Sink), Some(SINK_PORT), false);

        let mut rec = SessionRecorder::new();
        let class = rec.add_class("probe");
        assert_eq!(rec.add_session(class, 0), 0);
        sim.enable_lineage();
        sim.enable_timeseries(1_000_000_000);
        sim.enable_sessions(rec, None);
        Line {
            sim,
            a,
            b,
            a_to_r,
            ident: 0,
        }
    }

    /// A packet from `a` tagged with session 0.
    fn packet(&mut self, dst: Ipv4Addr, protocol: IpProtocol, payload: Bytes) -> Ipv4Packet {
        self.ident += 1;
        let mut packet = Ipv4Packet::new(A, dst, protocol, self.ident, payload);
        packet.session = Some(SessionTag {
            id: 0,
            born_ns: self.sim.now().as_nanos(),
        });
        packet
    }

    fn udp(&mut self, dst: Ipv4Addr, dst_port: u16, len: usize) -> Ipv4Packet {
        let payload = UdpDatagram::new(5000, dst_port, Bytes::from(vec![0u8; len]))
            .encode(A, dst)
            .unwrap();
        self.packet(dst, IpProtocol::Udp, payload)
    }

    /// One fragment of datagram `ident`: `len` bytes at byte `offset`.
    fn fragment(&mut self, ident: u16, offset: u16, len: usize, more: bool) -> Ipv4Packet {
        let mut packet = self.packet(B, IpProtocol::Udp, Bytes::from(vec![7u8; len]));
        packet.identification = ident;
        packet.fragment_offset = offset / 8;
        packet.more_fragments = more;
        packet
    }

    fn send(&mut self, packet: Ipv4Packet) {
        let a = self.a;
        self.sim.core_mut().send_ip(a, packet);
    }

    fn run_for(&mut self, secs: u64) {
        self.sim.run_for(SimDuration::from_secs(secs));
    }

    /// The cause's count as seen by the counters, the series, the
    /// rollups and lineage, in that order.
    fn observed(mut self, cause: DropCause) -> [u64; 4] {
        let mut registry = MetricsRegistry::new();
        self.sim.collect_metrics(&mut registry);
        let dumps = self.sim.finish_observers();
        let series = dumps.series.expect("series are on");
        let lineage = dumps.lineage.expect("lineage is on");
        let rollups = dumps.sessions.expect("rollups are on");
        let slot = DropCause::ALL.iter().position(|c| *c == cause).unwrap();
        [
            registry.counter_total(cause.counter()),
            series.total_of(cause.counter()),
            rollups.totals().drops[slot],
            post_mortem(&lineage).cause_total(cause),
        ]
    }
}

/// Provoke `cause` on a fresh line and return the four observers'
/// counts of it.
fn provoke(cause: DropCause) -> [u64; 4] {
    let mut line = Line::new(7);
    match cause {
        DropCause::QueueFull => {
            line.sim
                .core_mut()
                .link_mut(line.a_to_r)
                .config
                .queue_capacity = 3000;
            for _ in 0..8 {
                let p = line.udp(B, SINK_PORT, 972);
                line.send(p);
            }
        }
        DropCause::RedEarly => {
            // Average tracks the instant backlog; anything queued past
            // two bytes is shed early.
            line.sim.core_mut().link_mut(line.a_to_r).red = Some(RedQueue::new(1, 2, 1.0, 1.0));
            for _ in 0..5 {
                let p = line.udp(B, SINK_PORT, 972);
                line.send(p);
            }
        }
        DropCause::Fault => {
            line.sim.core_mut().link_mut(line.a_to_r).fault = FaultInjector::bernoulli(1.0);
            for _ in 0..4 {
                let p = line.udp(B, SINK_PORT, 100);
                line.send(p);
            }
        }
        DropCause::TtlExpired => {
            for _ in 0..3 {
                let mut p = line.udp(B, SINK_PORT, 100);
                p.ttl = 1;
                line.send(p);
            }
        }
        DropCause::NoRoute => {
            // The router has no route; a DF packet cannot fit the MTU;
            // and a host receives traffic that is not addressed to it.
            let p = line.udp(NOWHERE, SINK_PORT, 100);
            line.send(p);
            let mut p = line.udp(B, SINK_PORT, 3000);
            p.dont_fragment = true;
            line.send(p);
            let p = line.udp(BEYOND_B, SINK_PORT, 100);
            line.send(p);
        }
        DropCause::DecodeError => {
            // Each transport decoder rejects a truncated header.
            for protocol in [IpProtocol::Udp, IpProtocol::Tcp, IpProtocol::Icmp] {
                let p = line.packet(B, protocol, Bytes::from_static(&[1, 2, 3]));
                line.send(p);
            }
        }
        DropCause::UdpUnreachable => {
            for _ in 0..2 {
                let p = line.udp(B, SINK_PORT + 1, 100);
                line.send(p);
            }
        }
        DropCause::TcpUnreachable => {
            let segment = TcpSegment {
                src_port: 5000,
                dst_port: 80,
                seq: 1,
                ack: 0,
                flags: TcpFlags::SYN,
                window: 65535,
                payload: Bytes::new(),
            };
            let p = line.packet(B, IpProtocol::Tcp, segment.encode(A, B).unwrap());
            line.send(p);
        }
        DropCause::ReasmTimeout => {
            // Two holed datagrams; a fragment arriving after the 30 s
            // timer expires both.
            for ident in [100, 101] {
                let p = line.fragment(ident, 0, 64, true);
                line.send(p);
            }
            line.run_for(31);
            let p = line.fragment(102, 0, 64, true);
            line.send(p);
        }
        DropCause::ReasmInvalid => {
            // A final fragment ends the datagram at 16 bytes; a later
            // fragment at 16 extends past it.
            let p = line.fragment(200, 8, 8, false);
            line.send(p);
            let p = line.fragment(200, 16, 8, true);
            line.send(p);
        }
        DropCause::ReasmDuplicate => {
            for _ in 0..2 {
                let p = line.fragment(300, 0, 16, true);
                line.send(p);
            }
        }
    }
    line.run_for(5);
    line.observed(cause)
}

#[test]
fn every_cause_reconciles_across_counters_series_rollups_and_lineage() {
    for cause in DropCause::ALL {
        let [counter, series, rollups, lineage] = provoke(cause);
        assert!(
            counter > 0,
            "{}: the scenario dropped nothing",
            cause.label()
        );
        assert_eq!(
            [series, rollups, lineage],
            [counter; 3],
            "{}: series, rollups and lineage must equal the counter {counter}",
            cause.label()
        );
    }
}

/// Sends each datagram, already encoded, once from its node through
/// `Ctx::send_udp_encoded` to `B`, attributed to session 0.
struct EncodedSender(Vec<Bytes>);

impl Application for EncodedSender {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        for udp in std::mem::take(&mut self.0) {
            ctx.session_packetize(0, udp.len() as u32 - 8);
            ctx.send_udp_encoded(B, udp);
        }
    }
}

#[test]
fn a_bad_pre_encoded_datagram_fails_closed_at_the_receiver() {
    let encode = |dst| {
        UdpDatagram::new(5000, SINK_PORT, Bytes::from(vec![9u8; 100]))
            .encode(A, dst)
            .unwrap()
    };
    // Encoded for another destination, so its pseudo-header checksum
    // is wrong at `B`; one payload byte flipped; and a good control.
    let wrong_dst = encode(BEYOND_B);
    let mut flipped = encode(B).to_vec();
    flipped[20] ^= 0x10;
    let mut line = Line::new(7);
    let sender = EncodedSender(vec![wrong_dst, Bytes::from(flipped), encode(B)]);
    line.sim.add_app(line.a, Box::new(sender), None, false);
    line.run_for(5);

    let b = line.sim.core().node(line.b).stats;
    assert_eq!((b.decode_errors, b.udp_delivered), (2, 1));
    assert_eq!(line.observed(DropCause::DecodeError), [2; 4]);
}
