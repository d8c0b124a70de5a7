//! Fleet scenario: a session population multiplexed over the scale
//! ring.
//!
//! Where [`crate::topology::ScaleScenario`] makes the event queue deep
//! with a fixed client matrix, the fleet layer models *churn*:
//! sessions arrive, stream for a heavy-tailed lifetime, and depart.
//! The population itself (arrival instants, durations, player/class
//! mix, rate tiers) is generated by the harness above as a plain table
//! — a pure function of (seed, config), never of simulator state — and
//! handed in here as [`SessionSpec`] rows. This module's job is purely
//! mechanical: drive the table over the shared topology with one
//! multiplexing application per group, so a session costs a table row
//! instead of a host, an app, and a port.
//!
//! Memory budget per session (the 10⁵–10⁶ concurrency target):
//!
//! * one [`SessionSpec`] row, shared read-only across groups: 48 bytes
//! * one member id in its group's driver: 4 bytes
//! * one delivered-datagram counter in the [`FleetLedger`]: 4 bytes
//! * while the session is live, one send slot in its driver: the
//!   datagram, encoded once at the first send, and the sends left
//!   ([`slot_heap_bytes`]); the slot is reused once the session ends
//! * one pending timer event in the scheduler while the session is
//!   live; none after it ends, and none before it starts except the
//!   one next start timer each driver keeps armed (see [`FleetDriver`])
//!
//! Determinism: drivers and sinks are ordinary [`Application`]s keyed
//! by `(time, seq)` like everything else, the ledger only ever takes
//! commutative integer increments that are read after the run, and no
//! code here draws randomness — so fleet results are byte-identical
//! across schedulers, shard counts, and engines (at zero background),
//! exactly like the scale scenario.

use crate::node::AppId;
use crate::sim::{Application, Ctx, Simulation};
use crate::time::{SimDuration, SimTime};
use crate::topology::ScaleScenario;
use bytes::Bytes;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};
use turb_wire::udp::{UdpDatagram, UDP_HEADER_LEN};

/// UDP port the foreground fleet sinks listen on (distinct from the
/// scale sinks so the base scenario's totals stay untouched).
pub const FLEET_FG_PORT: u16 = 9100;
/// UDP port the background-class fleet sinks listen on.
pub const FLEET_BG_PORT: u16 = 9101;
/// Aggregation window for the delivered-bandwidth ledger, nanoseconds.
pub const FLEET_WINDOW_NS: u64 = 1_000_000_000;

/// One session of the population: a compact, immutable row. The
/// datagram schedule is fully determined here — `packets` sends of
/// `payload` bytes, `interval_ns` apart, the first at `start_ns` — so
/// offered load is computable without running the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionSpec {
    /// Arrival instant, nanoseconds of simulated time.
    pub start_ns: u64,
    /// Departure instant (arrival + sampled duration).
    pub end_ns: u64,
    /// Gap between this session's datagram sends.
    pub interval_ns: u64,
    /// Datagrams the session offers over its lifetime.
    pub packets: u32,
    /// Bytes per datagram (≥ 4; the first four carry the session id).
    pub payload: u32,
    /// Nominal media rate of the session's encoding tier, bits/s.
    /// Figures and fluid lowering use it; the packet path sends the
    /// thinned `packets × payload` schedule above.
    pub rate_bps: u64,
    /// Home group on the ring.
    pub group: u16,
    /// MediaPlayer-like session (else RealPlayer-like).
    pub wmp: bool,
    /// Background class: ambient load, fluid-eligible under the
    /// hybrid engine.
    pub background: bool,
}

/// Commutative per-run totals, filled in by the sinks as datagrams
/// land and read once after the run. Every mutation is an integer
/// increment whose final value is independent of arrival interleaving,
/// which is what keeps the ledger outside the determinism argument.
#[derive(Debug, Default)]
pub struct FleetLedger {
    /// Datagrams delivered per session (indexed by session id).
    pub delivered: Vec<u32>,
    /// Foreground payload bytes delivered per 1 s window.
    pub fg_window_bytes: Vec<u64>,
    /// Background payload bytes delivered per 1 s window (stays zero
    /// under the hybrid engine: fluid moves rate, not datagrams).
    pub bg_window_bytes: Vec<u64>,
}

/// The attached fleet: the shared ledger and each group's driver.
#[derive(Debug)]
pub struct FleetScenario {
    /// Delivery totals, filled in as the simulation runs.
    pub ledger: Arc<Mutex<FleetLedger>>,
    /// Number of 1 s windows the ledger tracks.
    pub windows: usize,
    /// Each group's driver app; see [`FleetScenario::take_send_slots`].
    pub drivers: Vec<AppId>,
}

/// A live session's send state: its datagram, encoded once at the
/// first send, and the sends it has left.
struct LiveSlot {
    udp: Bytes,
    left: u32,
}

/// Heap bytes one driver send slot holds for a session of `payload`
/// bytes per datagram: the slot, its free-list entry, and the encoded
/// datagram behind its two refcounts.
pub fn slot_heap_bytes(payload: u32) -> u64 {
    let fixed = std::mem::size_of::<LiveSlot>()
        + std::mem::size_of::<u32>()
        + 2 * std::mem::size_of::<usize>()
        + UDP_HEADER_LEN;
    fixed as u64 + u64::from(payload)
}

/// A send timer's token carries its slot + 1 above this bit; a start
/// timer's token is the bare member index.
const SLOT_SHIFT: u32 = 32;

/// One multiplexing driver per group: walks its members' send
/// schedules with one timer per live session.
///
/// A member's start timer has token `j`, its member index. At that
/// first send the driver encodes the session's datagram once into a
/// [`LiveSlot`] from its free list; every later send timer carries
/// `j | (slot + 1) << 32` and sends a refcounted clone of those bytes,
/// and the last send returns the slot. Every datagram of a session is
/// the same (ports, destination, id-then-zeros payload), so the wire
/// bytes equal a fresh encode's.
///
/// Start timers are armed one at a time. `on_start` reserves one
/// sequence number per member and arms member 0's start; each member's
/// first send arms the next member's start, at the same instant and
/// under the same reserved seq `seq_base + j` it would have had if all
/// were armed at once. Members are in start order (`attach` asserts
/// it), so every start not yet armed has key `(start_k, seq_base + k)`
/// at or after the armed one's, and both schedulers pop exactly the
/// sequence they would pop with every start armed at `on_start`.
struct FleetDriver {
    specs: Arc<Vec<SessionSpec>>,
    server_addrs: Arc<Vec<Ipv4Addr>>,
    /// Global session ids owned by this driver, in start order.
    members: Vec<u32>,
    /// Live sessions' send state, indexed by a send timer's slot.
    slots: Vec<LiveSlot>,
    /// Indices of `slots` no live session holds.
    free: Vec<u32>,
    /// When `on_start` ran: start instants are offsets from it.
    started_at: SimTime,
    /// First of the `members.len()` seqs reserved for start timers.
    seq_base: u64,
}

impl FleetDriver {
    fn destination(&self, id: usize, spec: &SessionSpec) -> (Ipv4Addr, u16) {
        let groups = self.server_addrs.len();
        // Background sessions always cross the ring (ambient transit
        // load); roughly 1 foreground session in 8 does too, the same
        // arithmetic rule the scale scenario uses.
        let (dst_group, port) = if spec.background {
            ((spec.group as usize + 1) % groups, FLEET_BG_PORT)
        } else if id.is_multiple_of(8) {
            ((spec.group as usize + 1) % groups, FLEET_FG_PORT)
        } else {
            (spec.group as usize, FLEET_FG_PORT)
        };
        (self.server_addrs[dst_group], port)
    }

    /// Arm member `j`'s start timer under its reserved seq, if `j` is
    /// a member.
    fn arm_start(&self, ctx: &mut Ctx<'_>, j: usize) {
        if let Some(&m) = self.members.get(j) {
            let at = self.started_at + SimDuration::from_nanos(self.specs[m as usize].start_ns);
            ctx.set_timer_reserved(at, self.seq_base + j as u64, j as u64);
        }
    }

    /// Encode session `id`'s datagram into a free slot and return the
    /// slot's index.
    fn take_slot(&mut self, ctx: &Ctx<'_>, id: usize, spec: &SessionSpec) -> usize {
        let (dst, port) = self.destination(id, spec);
        let src_port = 20_000 + (id % 40_000) as u16;
        let (src, len) = (ctx.local_addr(), spec.payload as usize);
        let udp = UdpDatagram::encode_with(src_port, port, len, src, dst, |payload| {
            payload[0..4].copy_from_slice(&(id as u32).to_le_bytes())
        })
        .expect("fleet datagram within size limits");
        let slot = LiveSlot {
            udp,
            left: spec.packets,
        };
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = slot;
                s as usize
            }
            None => {
                self.slots.push(slot);
                self.slots.len() - 1
            }
        }
    }

    /// Free slot `s` and drop its datagram, so the buffer goes back to
    /// the allocator once the last in-flight copy lands instead of
    /// waiting here for this driver's next session.
    fn return_slot(&mut self, s: usize) {
        self.slots[s].udp = Bytes::new();
        self.free.push(s as u32);
    }
}

impl Application for FleetDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.started_at = ctx.now();
        self.seq_base = ctx.reserve_timer_seqs(self.members.len());
        self.arm_start(ctx, 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        let j = token as u32 as usize;
        let id = self.members[j] as usize;
        let spec = self.specs[id];
        let s = match token >> SLOT_SHIFT {
            0 => {
                self.arm_start(ctx, j + 1);
                self.take_slot(ctx, id, &spec)
            }
            slot => slot as usize - 1,
        };
        let (dst, _) = self.destination(id, &spec);
        if ctx.sessions_enabled() {
            ctx.session_packetize(id as u32, spec.payload);
        }
        let slot = &mut self.slots[s];
        if ctx.lineage_enabled() {
            // `sequence` carries the session id so a sampled session's
            // spans can be pulled out of the dump for drill-down;
            // `media_time_ms` is the send index within the session.
            ctx.lineage_packetize(turb_obs::lineage::PacketizeMeta {
                player: u8::from(spec.wmp) | (u8::from(spec.background) << 1),
                sequence: id as u32,
                media_time_ms: spec.packets - slot.left,
            });
        }
        ctx.send_udp_encoded(dst, slot.udp.clone());
        slot.left -= 1;
        if slot.left > 0 {
            let token = j as u64 | (s as u64 + 1) << SLOT_SHIFT;
            ctx.set_timer_after(SimDuration::from_nanos(spec.interval_ns), token);
        } else {
            self.return_slot(s);
        }
    }
}

/// One sink per (server, class): tags deliveries back to their session
/// via the id carried in the first four payload bytes.
struct FleetSink {
    ledger: Arc<Mutex<FleetLedger>>,
    background: bool,
}

impl Application for FleetSink {
    fn on_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        _from: (Ipv4Addr, u16),
        _dst_port: u16,
        payload: bytes::Bytes,
    ) {
        let id = u32::from_le_bytes(
            payload[0..4]
                .try_into()
                .expect("fleet payload carries an id"),
        );
        let window = (ctx.now().as_nanos() / FLEET_WINDOW_NS) as usize;
        let mut ledger = self.ledger.lock().unwrap();
        let w = window.min(ledger.fg_window_bytes.len().saturating_sub(1));
        if self.background {
            ledger.bg_window_bytes[w] += payload.len() as u64;
        } else {
            ledger.fg_window_bytes[w] += payload.len() as u64;
        }
        ledger.delivered[id as usize] += 1;
    }
}

impl FleetScenario {
    /// Attach a session population to an already-built scale topology:
    /// one driver host per group, one foreground and one background
    /// sink per server. `background_as_packets` keeps background
    /// sessions on the datagram path (the packet engine); when false
    /// the caller lowers them onto the fluid solver instead and the
    /// drivers skip them. Sinks for both classes are installed
    /// unconditionally so the app set — and with it every `AppStart`
    /// event — is identical across engines.
    pub fn attach(
        sim: &mut Simulation,
        base: &ScaleScenario,
        specs: Arc<Vec<SessionSpec>>,
        horizon_ns: u64,
        background_as_packets: bool,
    ) -> FleetScenario {
        let groups = base.groups.len();
        assert!(groups >= 2, "fleet needs the ring (≥ 2 groups)");
        for spec in specs.iter() {
            assert!(spec.payload >= 4, "fleet payload must hold the session id");
            assert!((spec.group as usize) < groups, "session group out of range");
            assert!(spec.packets >= 1 && spec.interval_ns >= 1);
        }
        // The drivers arm start timers one at a time, which keeps the
        // pop order only for a table in start order.
        assert!(
            specs.windows(2).all(|w| w[0].start_ns <= w[1].start_ns),
            "fleet sessions must be in start order"
        );

        let windows = (horizon_ns / FLEET_WINDOW_NS + 2) as usize;
        let ledger = Arc::new(Mutex::new(FleetLedger {
            delivered: vec![0u32; specs.len()],
            fg_window_bytes: vec![0u64; windows],
            bg_window_bytes: vec![0u64; windows],
        }));
        let server_addrs: Arc<Vec<Ipv4Addr>> =
            Arc::new(base.groups.iter().map(|g| g.server_addr).collect());

        // Membership: sessions partitioned by home group, in id order.
        let mut members: Vec<Vec<u32>> = vec![Vec::new(); groups];
        for (id, spec) in specs.iter().enumerate() {
            if spec.background && !background_as_packets {
                continue; // lowered onto the fluid solver by the caller
            }
            members[spec.group as usize].push(id as u32);
        }

        let mut drivers = Vec::with_capacity(groups);
        for (g, group) in base.groups.iter().enumerate() {
            // The group's driver host, behind its ring router. 10.128+g
            // keeps clear of the scale clients' 10.g.* block.
            let addr = Ipv4Addr::new(10, 128 + g as u8, 0, 1);
            let driver = sim.add_host(&format!("fleet-g{g}-driver"), addr);
            let (up, down) = sim.add_duplex(
                driver,
                group.router,
                crate::link::LinkConfig::ethernet_10m(SimDuration::from_micros(15)),
            );
            sim.core_mut().node_mut(driver).default_route = Some(up);
            sim.core_mut().node_mut(group.router).add_route(addr, down);

            drivers.push(sim.add_app(
                driver,
                Box::new(FleetDriver {
                    specs: specs.clone(),
                    server_addrs: server_addrs.clone(),
                    members: std::mem::take(&mut members[g]),
                    slots: Vec::new(),
                    free: Vec::new(),
                    started_at: SimTime::ZERO,
                    seq_base: 0,
                }),
                None,
                false,
            ));
            sim.add_app(
                group.server,
                Box::new(FleetSink {
                    ledger: ledger.clone(),
                    background: false,
                }),
                Some(FLEET_FG_PORT),
                false,
            );
            sim.add_app(
                group.server,
                Box::new(FleetSink {
                    ledger: ledger.clone(),
                    background: true,
                }),
                Some(FLEET_BG_PORT),
                false,
            );
        }

        FleetScenario {
            ledger,
            windows,
            drivers,
        }
    }

    /// Take the drivers back after the run. Per group: the send slots
    /// its driver allocated (its high water of sessions live at once)
    /// and, of those, the slots a live session still holds (none once
    /// every session has sent its last datagram).
    pub fn take_send_slots(&self, sim: &mut Simulation) -> Vec<(usize, usize)> {
        self.drivers
            .iter()
            .map(|&id| {
                let driver = sim.take_app::<FleetDriver>(id);
                (driver.slots.len(), driver.slots.len() - driver.free.len())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::NodeId;
    use crate::shard::ShardKind;
    use crate::sim::{Direction, Tap, TapEvent, TapId};

    /// Logs every UDP datagram its node sends, with its addresses.
    #[derive(Default)]
    struct SentLog(Vec<(Ipv4Addr, Ipv4Addr, Bytes)>);

    impl Tap for SentLog {
        fn observe(&mut self, ev: &TapEvent<'_>) {
            if ev.direction == Direction::Tx {
                let p = ev.packet;
                self.0.push((p.src, p.dst, p.payload.clone()));
            }
        }
    }
    use crate::topology::{ScaleConfig, ScaleScenario};

    fn spec(start_ms: u64, packets: u32, group: u16, background: bool) -> SessionSpec {
        SessionSpec {
            start_ns: start_ms * 1_000_000,
            end_ns: start_ms * 1_000_000 + 500_000_000,
            interval_ns: 20_000_000,
            packets,
            payload: 200,
            rate_bps: 80_000,
            group,
            wmp: start_ms.is_multiple_of(2),
            background,
        }
    }

    fn base_config() -> ScaleConfig {
        ScaleConfig {
            groups: 4,
            clients_per_group: 1,
            packets_per_client: 0,
            ..ScaleConfig::default()
        }
    }

    fn run(shards: ShardKind, background_as_packets: bool) -> (Vec<u32>, u64, u64, u64) {
        let mut sim = Simulation::new(5);
        sim.set_shards(shards);
        let base = ScaleScenario::build(&mut sim, &base_config());
        let specs: Vec<SessionSpec> = (0..40)
            .map(|i| spec(i * 25, 4 + (i % 3) as u32, (i % 4) as u16, i % 5 == 0))
            .collect();
        let scenario = FleetScenario::attach(
            &mut sim,
            &base,
            Arc::new(specs),
            3_000_000_000,
            background_as_packets,
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(10));
        let ledger = scenario.ledger.lock().unwrap();
        (
            ledger.delivered.clone(),
            ledger.fg_window_bytes.iter().sum(),
            ledger.bg_window_bytes.iter().sum(),
            sim.sim_stats().events_processed,
        )
    }

    #[test]
    fn uncongested_fleet_delivers_every_datagram() {
        let (delivered, fg_bytes, bg_bytes, _) = run(ShardKind::Sequential, true);
        let specs: Vec<SessionSpec> = (0..40)
            .map(|i| spec(i * 25, 4 + (i % 3) as u32, (i % 4) as u16, i % 5 == 0))
            .collect();
        for (id, spec) in specs.iter().enumerate() {
            assert_eq!(delivered[id], spec.packets, "session {id}");
        }
        assert!(fg_bytes > 0 && bg_bytes > 0);
    }

    #[test]
    fn cached_datagrams_equal_a_fresh_encode() {
        let specs: Vec<SessionSpec> = (0..40)
            .map(|i| spec(i * 25, 4 + (i % 3) as u32, (i % 4) as u16, i % 5 == 0))
            .collect();
        for shards in [ShardKind::Sequential, ShardKind::Sharded(2)] {
            let mut sim = Simulation::new(5);
            sim.set_shards(shards);
            let base = ScaleScenario::build(&mut sim, &base_config());
            let scenario = FleetScenario::attach(
                &mut sim,
                &base,
                Arc::new(specs.clone()),
                3_000_000_000,
                true,
            );
            // Every UDP datagram a driver puts on the wire, with the
            // addresses it travels between.
            let taps: Vec<TapId> = (0..base.groups.len())
                .map(|g| {
                    let name = format!("fleet-g{g}-driver");
                    let driver = (0..sim.core().node_count())
                        .map(NodeId)
                        .find(|&n| sim.core().node(n).name == name)
                        .expect("one driver per group");
                    sim.add_tap(driver, Box::new(SentLog::default()))
                })
                .collect();
            sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(10));

            let sent: Vec<_> = taps
                .iter()
                .flat_map(|&tap| sim.take_tap::<SentLog>(tap).0)
                .collect();
            let offered: u32 = specs.iter().map(|s| s.packets).sum();
            assert_eq!(sent.len(), offered as usize, "{shards:?}");
            for (src, dst, udp) in sent.iter() {
                let id = u32::from_le_bytes(udp[8..12].try_into().unwrap());
                let spec = specs[id as usize];
                let port = if spec.background {
                    FLEET_BG_PORT
                } else {
                    FLEET_FG_PORT
                };
                let mut payload = vec![0u8; spec.payload as usize];
                payload[0..4].copy_from_slice(&id.to_le_bytes());
                let fresh =
                    UdpDatagram::new(20_000 + (id % 40_000) as u16, port, Bytes::from(payload))
                        .encode(*src, *dst)
                        .unwrap();
                assert_eq!(*udp, fresh, "session {id}, {shards:?}");
            }

            let high_water = sim.sim_stats().queue_high_water;
            for (g, (slots, held)) in scenario.take_send_slots(&mut sim).into_iter().enumerate() {
                assert_eq!(held, 0, "group {g}: a slot was never returned");
                assert!(
                    slots >= 1 && slots as u64 <= high_water,
                    "group {g}: {slots} slots against a queue high water of {high_water}"
                );
            }
        }
    }

    #[test]
    fn fleet_results_are_shard_invariant() {
        let seq = run(ShardKind::Sequential, true);
        for n in [2u16, 4] {
            assert_eq!(seq, run(ShardKind::Sharded(n), true), "{n} shards");
        }
    }

    /// Peak event-queue depth of a fleet of `n` sessions that never
    /// overlap: each sends 4 datagrams 20 ms apart and starts 100 ms
    /// after the previous one.
    fn sequential_fleet_queue_high_water(n: u64) -> u64 {
        let mut sim = Simulation::new(5);
        let base = ScaleScenario::build(&mut sim, &base_config());
        let specs: Vec<SessionSpec> = (0..n)
            .map(|i| spec(i * 100, 4, (i % 4) as u16, false))
            .collect();
        FleetScenario::attach(&mut sim, &base, Arc::new(specs), 3_000_000_000, true);
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(60));
        sim.sim_stats().queue_high_water
    }

    #[test]
    fn queue_depth_follows_live_sessions_not_the_population() {
        // Start timers are armed one at a time, so sessions that have
        // not started yet hold no event.
        assert_eq!(
            sequential_fleet_queue_high_water(40),
            sequential_fleet_queue_high_water(400)
        );
    }

    #[test]
    fn a_start_armed_late_keeps_its_reserved_tie_break() {
        // Sessions 0 and 1 start at t = 0 and session 2 at 20 ms, the
        // instant of session 0's second send. Armed at `on_start`,
        // session 2's start holds a seq below that send timer's, so it
        // sends first. Armed at session 1's first send it must still
        // do so; a fresh seq would put it second.
        let mut sim = Simulation::new(5);
        let base = ScaleScenario::build(&mut sim, &base_config());
        sim.enable_lineage();
        let specs = vec![
            spec(0, 2, 0, false),
            spec(0, 1, 0, false),
            spec(20, 1, 0, false),
        ];
        FleetScenario::attach(&mut sim, &base, Arc::new(specs), 3_000_000_000, true);
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(10));
        let lineage = sim.finish_observers().lineage.expect("lineage is on");
        // (session, send index) of each datagram sent at 20 ms, in
        // send order.
        let sends: Vec<(u32, u32)> = lineage
            .origins
            .iter()
            .filter(|o| o.time_ns == 20_000_000)
            .filter_map(|o| o.meta)
            .map(|m| (m.sequence, m.media_time_ms))
            .collect();
        assert_eq!(sends, [(2, 0), (0, 1)]);
    }

    #[test]
    #[should_panic(expected = "start order")]
    fn specs_out_of_start_order_are_rejected() {
        let mut sim = Simulation::new(5);
        let base = ScaleScenario::build(&mut sim, &base_config());
        let specs = vec![spec(50, 4, 0, false), spec(10, 4, 1, false)];
        FleetScenario::attach(&mut sim, &base, Arc::new(specs), 3_000_000_000, true);
    }

    #[test]
    fn skipped_background_members_send_nothing() {
        let (delivered, _, bg_bytes, _) = run(ShardKind::Sequential, false);
        assert_eq!(bg_bytes, 0);
        // Background sessions (every 5th) never hit the packet path.
        for (id, d) in delivered.iter().enumerate() {
            if id % 5 == 0 {
                assert_eq!(*d, 0, "background session {id} sent datagrams");
            } else {
                assert!(*d > 0, "foreground session {id} starved");
            }
        }
    }
}
