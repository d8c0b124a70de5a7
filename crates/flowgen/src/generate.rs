//! Generating synthetic flows from a fitted model, and replaying them
//! into a simulation.

use crate::model::TurbulenceModel;
use std::net::Ipv4Addr;
use turb_netsim::rng::SimRng;
use turb_netsim::sim::{Application, Ctx};
use turb_netsim::SimDuration;
use turb_wire::media::PlayerId;

/// One synthetic application datagram.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticPacket {
    /// Scheduled send time, seconds from flow start.
    pub time_secs: f64,
    /// Application datagram size in wire bytes (pre-fragmentation).
    pub bytes: usize,
    /// Whether this datagram belongs to the initial buffering burst.
    pub buffering: bool,
}

/// Draws packet schedules from a [`TurbulenceModel`] — Section IV's
/// flow generator.
pub struct FlowGenerator {
    model: TurbulenceModel,
    rng: SimRng,
}

impl FlowGenerator {
    /// Build a generator over a fitted model.
    pub fn new(model: TurbulenceModel, rng: SimRng) -> FlowGenerator {
        FlowGenerator { model, rng }
    }

    /// The underlying model.
    pub fn model(&self) -> &TurbulenceModel {
        &self.model
    }

    /// Generate a schedule covering `duration_secs`.
    ///
    /// During the first `model.burst_secs` the interarrival gaps are
    /// divided by the buffering ratio (Figure 11: the burst streams at
    /// β× the steady rate); afterwards gaps are drawn directly from
    /// the fitted distribution. Sizes are drawn i.i.d. from the fitted
    /// size distribution throughout.
    pub fn generate(&mut self, duration_secs: f64) -> Vec<SyntheticPacket> {
        let mut out = Vec::new();
        let mut t = 0.0f64;
        while t < duration_secs {
            let buffering = t < self.model.burst_secs && self.model.buffering_ratio > 1.0;
            let u_size = self.rng.f64();
            let u_gap = self.rng.f64();
            let bytes = self.model.datagram_sizes.sample(u_size).round().max(64.0) as usize;
            let mut gap = self.model.interarrivals.sample(u_gap).max(1e-4);
            if buffering {
                gap /= self.model.buffering_ratio;
            }
            out.push(SyntheticPacket {
                time_secs: t,
                bytes,
                buffering,
            });
            t += gap;
        }
        out
    }

    /// Export a schedule as an ns-style ASCII trace: one
    /// `time_secs size_bytes` line per packet.
    pub fn export_ns_trace(packets: &[SyntheticPacket]) -> String {
        let mut s = String::with_capacity(packets.len() * 16);
        for p in packets {
            s.push_str(&format!("{:.6} {}\n", p.time_secs, p.bytes));
        }
        s
    }
}

const TOKEN_SEND: u64 = 1;

/// Replays a synthetic schedule as live UDP traffic inside a
/// simulation — e.g. to add realistic streaming cross-traffic to a
/// queue-management experiment without running a full player model.
pub struct SyntheticFlowApp {
    schedule: Vec<SyntheticPacket>,
    next: usize,
    dst: Ipv4Addr,
    dst_port: u16,
    src_port: u16,
    player: PlayerId,
}

impl SyntheticFlowApp {
    /// Build a replay app. The schedule must be time-sorted (as
    /// [`FlowGenerator::generate`] returns it).
    pub fn new(
        schedule: Vec<SyntheticPacket>,
        dst: Ipv4Addr,
        dst_port: u16,
        src_port: u16,
        player: PlayerId,
    ) -> SyntheticFlowApp {
        debug_assert!(schedule
            .windows(2)
            .all(|w| w[0].time_secs <= w[1].time_secs));
        SyntheticFlowApp {
            schedule,
            next: 0,
            dst,
            dst_port,
            src_port,
            player,
        }
    }

    fn arm_next(&self, ctx: &mut Ctx<'_>, flow_start_ns: u64) {
        if let Some(p) = self.schedule.get(self.next) {
            let at = turb_netsim::SimTime(flow_start_ns) + SimDuration::from_secs_f64(p.time_secs);
            ctx.set_timer_at(at, TOKEN_SEND);
        }
    }
}

impl Application for SyntheticFlowApp {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let start = ctx.now().as_nanos();
        // Stash the flow origin in the first packet's absolute time by
        // re-arming relative to now.
        self.arm_next(ctx, start);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_SEND {
            return;
        }
        let Some(p) = self.schedule.get(self.next).copied() else {
            return;
        };
        self.next += 1;
        // Reconstruct an application payload of the scheduled wire
        // size: wire = payload + 8 (UDP) + 20 (IP) + 14 (Ethernet).
        let payload_len = p
            .bytes
            .saturating_sub(42)
            .max(turb_wire::media::MEDIA_HEADER_LEN);
        let header = turb_wire::media::MediaHeader {
            player: self.player,
            sequence: self.next as u32 - 1,
            frame_number: 0,
            media_time_ms: (p.time_secs * 1000.0) as u32,
            buffering: p.buffering,
        };
        ctx.send_udp_with(self.src_port, self.dst, self.dst_port, payload_len, |buf| {
            header.write_with_padding(buf)
        });
        // Schedule the next packet relative to the original origin:
        // now corresponds to schedule[next-1].time_secs.
        if let Some(next) = self.schedule.get(self.next) {
            let gap = next.time_secs - p.time_secs;
            ctx.set_timer_after(SimDuration::from_secs_f64(gap), TOKEN_SEND);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turb_stats::EmpiricalSampler;

    fn model(ratio: f64, burst: f64) -> TurbulenceModel {
        TurbulenceModel {
            player: PlayerId::RealPlayer,
            encoded_kbps: 100.0,
            datagram_sizes: EmpiricalSampler::from_samples(&[600.0, 700.0, 800.0, 900.0]),
            interarrivals: EmpiricalSampler::from_samples(&[0.04, 0.05, 0.06, 0.07]),
            fragment_fraction: 0.0,
            buffering_ratio: ratio,
            burst_secs: burst,
        }
    }

    #[test]
    fn schedule_is_time_sorted_and_covers_the_duration() {
        let mut generator = FlowGenerator::new(model(1.0, 0.0), SimRng::new(1));
        let packets = generator.generate(10.0);
        assert!(packets.len() > 100);
        assert!(packets.windows(2).all(|w| w[0].time_secs < w[1].time_secs));
        assert!(packets.last().unwrap().time_secs < 10.0);
        assert!(packets.last().unwrap().time_secs > 9.0);
    }

    #[test]
    fn sizes_and_gaps_come_from_the_model_support() {
        let mut generator = FlowGenerator::new(model(1.0, 0.0), SimRng::new(2));
        let packets = generator.generate(20.0);
        for p in &packets {
            assert!((600..=900).contains(&p.bytes), "size {}", p.bytes);
        }
        for w in packets.windows(2) {
            let gap = w[1].time_secs - w[0].time_secs;
            assert!((0.039..=0.071).contains(&gap), "gap {gap}");
        }
    }

    #[test]
    fn burst_phase_runs_at_the_buffering_ratio() {
        let mut generator = FlowGenerator::new(model(3.0, 5.0), SimRng::new(3));
        let packets = generator.generate(30.0);
        let burst: Vec<_> = packets.iter().filter(|p| p.buffering).collect();
        let steady: Vec<_> = packets.iter().filter(|p| !p.buffering).collect();
        assert!(!burst.is_empty() && !steady.is_empty());
        // Packets per second in the burst ≈ 3× steady.
        let burst_rate = burst.len() as f64 / 5.0;
        let steady_rate = steady.len() as f64 / 25.0;
        let ratio = burst_rate / steady_rate;
        assert!((2.3..=3.7).contains(&ratio), "ratio = {ratio}");
    }

    #[test]
    fn ns_trace_export_format() {
        let packets = vec![
            SyntheticPacket {
                time_secs: 0.0,
                bytes: 100,
                buffering: false,
            },
            SyntheticPacket {
                time_secs: 0.125,
                bytes: 1514,
                buffering: false,
            },
        ];
        let trace = FlowGenerator::export_ns_trace(&packets);
        assert_eq!(trace, "0.000000 100\n0.125000 1514\n");
    }

    #[test]
    fn replay_app_delivers_the_schedule() {
        use bytes::Bytes;
        use std::sync::{Arc, Mutex};
        use turb_netsim::prelude::*;

        let mut generator = FlowGenerator::new(model(1.0, 0.0), SimRng::new(4));
        let schedule = generator.generate(5.0);
        let expected = schedule.len();

        let mut sim = Simulation::new(4);
        let a = sim.add_host("src", Ipv4Addr::new(10, 0, 0, 1));
        let b = sim.add_host("dst", Ipv4Addr::new(10, 0, 0, 2));
        let (ab, ba) = sim.add_duplex(a, b, LinkConfig::ethernet_10m(SimDuration::from_millis(1)));
        sim.core_mut().node_mut(a).default_route = Some(ab);
        sim.core_mut().node_mut(b).default_route = Some(ba);

        struct Sink {
            count: Arc<Mutex<usize>>,
        }
        impl Application for Sink {
            fn on_udp(
                &mut self,
                _ctx: &mut Ctx<'_>,
                _from: (Ipv4Addr, u16),
                _dst_port: u16,
                _payload: Bytes,
            ) {
                *self.count.lock().unwrap() += 1;
            }
        }
        let count = Arc::new(Mutex::new(0));
        sim.add_app(
            b,
            Box::new(Sink {
                count: count.clone(),
            }),
            Some(9000),
            false,
        );
        sim.add_app(
            a,
            Box::new(SyntheticFlowApp::new(
                schedule,
                Ipv4Addr::new(10, 0, 0, 2),
                9000,
                9001,
                PlayerId::RealPlayer,
            )),
            Some(9001),
            false,
        );
        sim.run_to_idle(SimTime::ZERO + SimDuration::from_secs(30));
        assert_eq!(*count.lock().unwrap(), expected);
    }
}
