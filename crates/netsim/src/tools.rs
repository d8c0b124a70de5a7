//! The methodology tools: `ping` and `tracert`.
//!
//! §2.D: "Before and after each run, ping and tracert were run to
//! verify that the network status had not dramatically changed"; §3.A
//! builds Figures 1 and 2 from their output. These are implemented as
//! ordinary [`Application`]s so they share the network with the
//! streaming sessions, exactly like the real tools did. Each app keeps
//! its report as a plain field; take the app back with
//! [`Simulation::take_app`] and read it. A tool stops listening to ICMP
//! once it has finished (ping: every probe sent and answered; tracert:
//! destination or maximum TTL reached), so from then on it can be taken
//! while the simulation goes on.

use crate::link::NodeId;
use crate::node::AppId;
use crate::rng::SimRng;
use crate::sim::{Application, Ctx, Simulation};
use crate::time::{SimDuration, SimTime};
use bytes::Bytes;
use std::collections::HashMap;
use std::net::Ipv4Addr;
use turb_wire::icmp::IcmpMessage;

/// Results of a ping run.
#[derive(Debug, Clone, Default)]
pub struct PingReport {
    /// Probes sent.
    pub sent: u32,
    /// Replies received.
    pub received: u32,
    /// Round-trip time of each received reply, in send order.
    pub rtts: Vec<SimDuration>,
}

impl PingReport {
    /// Fraction of probes lost.
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            1.0 - f64::from(self.received) / f64::from(self.sent)
        }
    }

    /// Median RTT (None if no replies).
    pub fn median_rtt(&self) -> Option<SimDuration> {
        if self.rtts.is_empty() {
            return None;
        }
        let mut sorted = self.rtts.clone();
        sorted.sort_unstable();
        Some(sorted[sorted.len() / 2])
    }

    /// Maximum RTT.
    pub fn max_rtt(&self) -> Option<SimDuration> {
        self.rtts.iter().copied().max()
    }
}

const TOKEN_SEND: u64 = 1;

/// A `ping`-alike: sends `count` echo requests at `interval`, records
/// RTTs into its report.
pub struct PingApp {
    dst: Ipv4Addr,
    count: u32,
    interval: SimDuration,
    start_after: SimDuration,
    payload_len: usize,
    ident: u16,
    next_seq: u16,
    outstanding: HashMap<u16, SimTime>,
    /// What the run measured.
    pub report: PingReport,
}

impl PingApp {
    fn send_probe(&mut self, ctx: &mut Ctx<'_>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.outstanding.insert(seq, ctx.now());
        self.report.sent += 1;
        ctx.send_icmp(
            self.dst,
            IcmpMessage::EchoRequest {
                ident: self.ident,
                seq,
                payload: Bytes::from(vec![0x55u8; self.payload_len]),
            },
        );
        if self.next_seq < self.count as u16 {
            ctx.set_timer_after(self.interval, TOKEN_SEND);
        }
    }
}

impl Application for PingApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if self.count > 0 {
            ctx.set_timer_after(self.start_after, TOKEN_SEND);
        } else {
            ctx.stop_listening_icmp();
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_SEND {
            self.send_probe(ctx);
        }
    }

    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, _from: Ipv4Addr, msg: IcmpMessage) {
        if let IcmpMessage::EchoReply { ident, seq, .. } = msg {
            if ident == self.ident {
                if let Some(sent_at) = self.outstanding.remove(&seq) {
                    self.report.received += 1;
                    self.report.rtts.push(ctx.now().since(sent_at));
                    if self.report.sent == self.count && self.outstanding.is_empty() {
                        ctx.stop_listening_icmp();
                    }
                }
            }
        }
    }
}

/// Install a ping run on `node` targeting `dst`. Returns the
/// [`PingApp`]'s id.
pub fn spawn_ping(
    sim: &mut Simulation,
    node: NodeId,
    dst: Ipv4Addr,
    count: u32,
    interval: SimDuration,
    start_after: SimDuration,
    rng: &mut SimRng,
) -> AppId {
    let app = PingApp {
        dst,
        count,
        interval,
        start_after,
        payload_len: 32, // Windows 2000 default ping payload
        ident: rng.range_u64(1, u64::from(u16::MAX)) as u16,
        next_seq: 0,
        outstanding: HashMap::new(),
        report: PingReport::default(),
    };
    sim.add_app(node, Box::new(app), None, true)
}

/// One hop of a traceroute: the responding router (or `None` on
/// timeout) and the probe RTT.
pub type HopResult = Option<(Ipv4Addr, SimDuration)>;

/// Results of a tracert run.
#[derive(Debug, Clone, Default)]
pub struct TracertReport {
    /// Per-TTL results, index 0 = TTL 1.
    pub hops: Vec<HopResult>,
    /// Whether the destination answered (port unreachable).
    pub reached: bool,
}

impl TracertReport {
    /// The hop count: probes until the destination answered.
    /// `None` if the destination was never reached.
    pub fn hop_count(&self) -> Option<usize> {
        self.reached.then_some(self.hops.len())
    }
}

/// Parse the embedded original datagram of an ICMP error: returns
/// (orig_src, orig_dst, orig_udp_src_port, orig_udp_dst_port).
fn parse_original(original: &[u8]) -> Option<(Ipv4Addr, Ipv4Addr, u16, u16)> {
    if original.len() < 28 || original[0] >> 4 != 4 {
        return None;
    }
    let src = Ipv4Addr::new(original[12], original[13], original[14], original[15]);
    let dst = Ipv4Addr::new(original[16], original[17], original[18], original[19]);
    let sport = u16::from_be_bytes([original[20], original[21]]);
    let dport = u16::from_be_bytes([original[22], original[23]]);
    Some((src, dst, sport, dport))
}

const TRACERT_BASE_PORT: u16 = 33434;

/// A `tracert`-alike: UDP probes with ascending TTLs, matching ICMP
/// time-exceeded / port-unreachable responses against the embedded
/// original headers.
pub struct TracertApp {
    dst: Ipv4Addr,
    src_port: u16,
    max_ttl: u8,
    probe_timeout: SimDuration,
    current_ttl: u8,
    sent_at: SimTime,
    answered: bool,
    /// What the run measured.
    pub report: TracertReport,
}

impl TracertApp {
    fn probe(&mut self, ctx: &mut Ctx<'_>) {
        self.answered = false;
        self.sent_at = ctx.now();
        ctx.send_udp_ttl(
            self.src_port,
            self.dst,
            TRACERT_BASE_PORT + u16::from(self.current_ttl),
            Bytes::from_static(b"tracert probe"),
            self.current_ttl,
        );
        ctx.set_timer_after(self.probe_timeout, u64::from(self.current_ttl));
    }

    fn advance(&mut self, ctx: &mut Ctx<'_>, result: HopResult, reached: bool) {
        self.report.hops.push(result);
        self.report.reached = reached;
        self.answered = true;
        if reached || self.current_ttl >= self.max_ttl {
            ctx.stop_listening_icmp();
            return;
        }
        self.current_ttl += 1;
        self.probe(ctx);
    }

    /// Is this ICMP error about our current probe?
    fn matches_probe(&self, original: &[u8], ctx: &Ctx<'_>) -> bool {
        match parse_original(original) {
            Some((osrc, odst, osport, odport)) => {
                osrc == ctx.local_addr()
                    && odst == self.dst
                    && osport == self.src_port
                    && odport == TRACERT_BASE_PORT + u16::from(self.current_ttl)
            }
            None => false,
        }
    }
}

impl Application for TracertApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.current_ttl = 1;
        self.probe(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == u64::from(self.current_ttl) && !self.answered {
            // Probe timed out: record a silent hop and move on.
            self.advance(ctx, None, false);
        }
    }

    fn on_icmp(&mut self, ctx: &mut Ctx<'_>, from: Ipv4Addr, msg: IcmpMessage) {
        if self.answered {
            return;
        }
        let rtt = ctx.now().since(self.sent_at);
        match msg {
            IcmpMessage::TimeExceeded { ref original } if self.matches_probe(original, ctx) => {
                self.advance(ctx, Some((from, rtt)), false);
            }
            IcmpMessage::DestinationUnreachable {
                code: 3,
                ref original,
            } if self.matches_probe(original, ctx) && from == self.dst => {
                self.advance(ctx, Some((from, rtt)), true);
            }
            _ => {}
        }
    }
}

/// Install a tracert run on `node` targeting `dst`. Each app instance
/// needs a distinct `src_port`. Returns the [`TracertApp`]'s id.
pub fn spawn_tracert(
    sim: &mut Simulation,
    node: NodeId,
    dst: Ipv4Addr,
    src_port: u16,
    max_ttl: u8,
    probe_timeout: SimDuration,
) -> AppId {
    let app = TracertApp {
        dst,
        src_port,
        max_ttl,
        probe_timeout,
        current_ttl: 0,
        sent_at: SimTime::ZERO,
        answered: false,
        report: TracertReport::default(),
    };
    sim.add_app(node, Box::new(app), Some(src_port), true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology::{InternetScenario, ScenarioConfig};

    fn scenario(seed: u64) -> (Simulation, InternetScenario, SimRng) {
        let mut sim = Simulation::new(seed);
        let mut rng = SimRng::new(seed ^ 0xdead_beef);
        let scenario = InternetScenario::build(&mut sim, &mut rng, &ScenarioConfig::default());
        (sim, scenario, rng)
    }

    #[test]
    fn ping_measures_rtt_close_to_configured_path_delay() {
        let (mut sim, scenario, mut rng) = scenario(11);
        let site = &scenario.sites[0];
        let ping = spawn_ping(
            &mut sim,
            scenario.client,
            site.server_addr,
            10,
            SimDuration::from_millis(500),
            SimDuration::ZERO,
            &mut rng,
        );
        sim.run_until(SimTime(20_000_000_000));
        let report = sim.take_app::<PingApp>(ping).report;
        assert_eq!(report.sent, 10);
        assert_eq!(report.received, 10);
        let median = report.median_rtt().unwrap();
        let configured_rtt = SimDuration::from_nanos(site.one_way_delay.as_nanos() * 2);
        // Measured RTT ≈ configured propagation plus a little
        // serialisation; must be within a couple of ms.
        assert!(median >= configured_rtt, "{median} < {configured_rtt}");
        assert!(
            median.as_nanos() < configured_rtt.as_nanos() + 5_000_000,
            "median {median} too far above configured {configured_rtt}"
        );
    }

    #[test]
    fn tracert_discovers_the_configured_hop_count() {
        let (mut sim, scenario, _rng) = scenario(12);
        // One site at a time, each tracert taken as soon as its run is
        // over: a finished tracert no longer listens, so the next
        // site's ICMP errors are not handed to a taken app.
        for site in &scenario.sites {
            let tracert = spawn_tracert(
                &mut sim,
                scenario.client,
                site.server_addr,
                40_000 + site.server.0 as u16,
                64,
                SimDuration::from_secs(2),
            );
            sim.run_until(SimTime(sim.now().as_nanos() + 400_000_000_000));
            let report = sim.take_app::<TracertApp>(tracert).report;
            assert!(report.reached, "site {:?} unreachable", site.server_addr);
            assert_eq!(
                report.hop_count().unwrap(),
                site.hop_count,
                "hop count mismatch for {:?}",
                site.server_addr
            );
            // Every intermediate hop responded.
            assert!(report.hops.iter().all(Option::is_some));
            // RTTs are non-decreasing-ish: the last hop's RTT is the
            // largest-delay path.
            let first = report.hops.first().unwrap().unwrap().1;
            let last = report.hops.last().unwrap().unwrap().1;
            assert!(last >= first);
        }
    }

    #[test]
    fn finished_tools_stop_listening_sequential_and_sharded() {
        // A ping and a tracert run before a second pair; each is taken
        // as soon as it finishes, while the second pair's ICMP arrives
        // at the same node. Only the tools still running listen.
        for shards in [None, Some(2)] {
            let (mut sim, scenario, mut rng) = scenario(14);
            if let Some(n) = shards {
                sim.set_shards(crate::shard::ShardKind::Sharded(n));
            }
            let client = scenario.client;
            let (first, second) = (&scenario.sites[0], &scenario.sites[1]);
            let ping = |sim: &mut Simulation, dst, rng: &mut SimRng| {
                spawn_ping(
                    sim,
                    client,
                    dst,
                    4,
                    SimDuration::from_millis(100),
                    SimDuration::ZERO,
                    rng,
                )
            };
            let tracert = |sim: &mut Simulation, dst, port| {
                spawn_tracert(sim, client, dst, port, 64, SimDuration::from_secs(2))
            };
            let ping0 = ping(&mut sim, first.server_addr, &mut rng);
            let trace0 = tracert(&mut sim, first.server_addr, 41_000);
            sim.run_until(SimTime(10_000_000_000));
            let ping1 = ping(&mut sim, second.server_addr, &mut rng);
            let trace1 = tracert(&mut sim, second.server_addr, 41_001);
            sim.run_until(SimTime(10_000_000_001));
            assert_eq!(sim.node(client).icmp_listeners, vec![ping1, trace1]);
            assert_eq!(sim.take_app::<PingApp>(ping0).report.received, 4);
            assert!(sim.take_app::<TracertApp>(trace0).report.reached);
            sim.run_until(SimTime(20_000_000_000));
            assert!(sim.node(client).icmp_listeners.is_empty(), "{shards:?}");
            assert_eq!(sim.take_app::<PingApp>(ping1).report.received, 4);
            let report = sim.take_app::<TracertApp>(trace1).report;
            assert_eq!(report.hop_count(), Some(second.hop_count), "{shards:?}");
        }
    }

    #[test]
    fn concurrent_pings_do_not_cross_talk() {
        let (mut sim, scenario, mut rng) = scenario(13);
        let r0 = spawn_ping(
            &mut sim,
            scenario.client,
            scenario.sites[0].server_addr,
            5,
            SimDuration::from_millis(200),
            SimDuration::ZERO,
            &mut rng,
        );
        let r1 = spawn_ping(
            &mut sim,
            scenario.client,
            scenario.sites[1].server_addr,
            5,
            SimDuration::from_millis(200),
            SimDuration::ZERO,
            &mut rng,
        );
        sim.run_until(SimTime(30_000_000_000));
        assert_eq!(sim.take_app::<PingApp>(r0).report.received, 5);
        assert_eq!(sim.take_app::<PingApp>(r1).report.received, 5);
    }

    #[test]
    fn parse_original_roundtrip() {
        use turb_wire::ipv4::{IpProtocol, Ipv4Packet};
        use turb_wire::udp::UdpDatagram;
        let src = Ipv4Addr::new(1, 2, 3, 4);
        let dst = Ipv4Addr::new(5, 6, 7, 8);
        let udp = UdpDatagram::new(4444, 33435, Bytes::from_static(b"x"))
            .encode(src, dst)
            .unwrap();
        let packet = Ipv4Packet::new(src, dst, IpProtocol::Udp, 9, udp);
        let encoded = packet.encode().unwrap();
        let parsed = parse_original(&encoded[..28]).unwrap();
        assert_eq!(parsed, (src, dst, 4444, 33435));
        assert_eq!(parse_original(&encoded[..20]), None);
    }
}
