//! RealTracker: the instrumented RealPlayer client.
//!
//! The plain client core — RealTracker records the same per-second
//! statistics as MediaTracker but exposes no application-layer packet
//! events ("We are not able to gather application packets in
//! RealTracker", §3.G), so there is no interleave batcher here.

use crate::client_core::{ClientCore, TOKEN_RETRY, TOKEN_SECOND};
use crate::config::StreamConfig;
use bytes::Bytes;
use std::net::Ipv4Addr;
use turb_netsim::sim::{Application, Ctx};

/// The RealPlayer client + RealTracker instrumentation.
pub struct RealClient {
    pub(crate) core: ClientCore,
}

impl RealClient {
    /// Build the client with an empty log.
    pub fn new(config: StreamConfig) -> RealClient {
        RealClient {
            core: ClientCore::new(config),
        }
    }
}

impl Application for RealClient {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.core.start(ctx);
    }

    fn on_udp(
        &mut self,
        ctx: &mut Ctx<'_>,
        _from: (Ipv4Addr, u16),
        _dst_port: u16,
        payload: Bytes,
    ) {
        let _ = self.core.on_datagram(ctx, &payload);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        match token {
            TOKEN_SECOND => {
                self.core.on_second(ctx);
            }
            TOKEN_RETRY => self.core.on_retry(ctx),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::calibration::{real_effective_ratio, REAL_OVERHEAD};
    use crate::real_server::RealServer;
    use crate::stats::AppStatsLog;
    use turb_media::{corpus, RateClass};
    use turb_netsim::prelude::*;
    use turb_netsim::rng::SimRng;

    fn run_session(class: RateClass, set: usize, seed: u64) -> AppStatsLog {
        let sets = corpus::table1();
        let pair = sets[set].pair(class).unwrap();
        let server_addr = std::net::Ipv4Addr::new(204, 71, 0, 33);
        let client_addr = std::net::Ipv4Addr::new(130, 215, 36, 10);
        let config = StreamConfig {
            clip: pair.real.clone(),
            server_addr,
            server_port: 554,
            client_addr,
            client_port: 7002,
            bottleneck_bps: 10_000_000,
        };
        let mut sim = Simulation::new(seed);
        let server = sim.add_host("server", server_addr);
        let client = sim.add_host("client", client_addr);
        let (sc, cs) = sim.add_duplex(
            server,
            client,
            LinkConfig::ethernet_10m(SimDuration::from_millis(20)),
        );
        sim.core_mut().node_mut(server).default_route = Some(sc);
        sim.core_mut().node_mut(client).default_route = Some(cs);
        let rng = SimRng::new(seed).fork(1);
        sim.add_app(
            server,
            Box::new(RealServer::new(config.clone(), rng)),
            Some(554),
            false,
        );
        let app = sim.add_app(
            client,
            Box::new(RealClient::new(config.clone())),
            Some(7002),
            false,
        );
        let limit =
            SimTime::ZERO + SimDuration::from_secs_f64(config.clip.duration_secs * 2.0 + 60.0);
        sim.run_to_idle(limit);
        sim.take_app::<RealClient>(app).core.log
    }

    #[test]
    fn full_session_delivers_the_budget_with_no_loss() {
        let log = run_session(RateClass::Low, 0, 7);
        assert!(log.stream_end.is_some());
        assert_eq!(log.packets_lost, 0);
        let expected = log.clip.media_bytes() as f64 * REAL_OVERHEAD;
        let got = log.bytes_total as f64;
        assert!(
            (got - expected).abs() / expected < 0.02,
            "{got} vs {expected}"
        );
    }

    #[test]
    fn playback_rate_exceeds_encoding_rate() {
        // Figure 3: "RealPlayer plays out at a slightly higher average
        // data rate than the encoded data rate".
        let log = run_session(RateClass::High, 0, 8);
        let avg = log.avg_playback_kbps();
        let encoded = log.clip.encoded_kbps;
        assert!(avg > encoded * 1.04, "{avg} vs {encoded}");
        assert!(avg < encoded * 1.15, "{avg} vs {encoded}");
    }

    #[test]
    fn buffering_ratio_matches_figure11() {
        // Low rate: ratio near 3.
        let low = run_session(RateClass::Low, 0, 9); // 36 Kbit/s
        let r_low = low.buffering_ratio().unwrap();
        assert!((2.3..=3.3).contains(&r_low), "low ratio = {r_low}");
        // High rate: lower ratio.
        let high = run_session(RateClass::High, 0, 9); // 284 Kbit/s
        let r_high = high.buffering_ratio().unwrap();
        assert!((1.2..=2.2).contains(&r_high), "high ratio = {r_high}");
        assert!(r_low > r_high);
    }

    #[test]
    fn streaming_ends_before_the_clip_does() {
        // §3.F: "The streaming duration is shorter for RealPlayer than
        // for MediaPlayer since RealPlayer transmits more of the
        // encoded clip during the buffering phase."
        let log = run_session(RateClass::High, 3, 10); // set 4: 245 s clip
        let streamed = log.streaming_duration_secs().unwrap();
        let clip = log.clip.duration_secs;
        assert!(streamed < clip - 15.0, "streamed {streamed} vs clip {clip}");
    }

    #[test]
    fn burst_duration_is_near_20s_for_low_rate_clips() {
        // §IV: the elevated rate lasts ≈20 s for low-rate clips.
        let log = run_session(RateClass::Low, 3, 11); // 26 Kbit/s, 245 s clip
        let last_burst = log
            .net_events
            .iter()
            .filter(|e| e.buffering)
            .map(|e| e.time_ns)
            .max()
            .unwrap();
        let first = log.net_events[0].time_ns;
        let burst_secs = (last_burst - first) as f64 / 1e9;
        assert!((12.0..=30.0).contains(&burst_secs), "burst = {burst_secs}s");
    }

    #[test]
    fn no_real_packet_ever_fragments() {
        // §3.C: "IP fragments were not observed in any of the
        // RealPlayer traces" — every UDP payload fits the MTU.
        let log = run_session(RateClass::VeryHigh, 5, 12);
        assert!(!log.net_events.is_empty());
        for e in &log.net_events {
            assert!(e.bytes as usize <= 1472, "payload {}", e.bytes);
        }
    }

    #[test]
    fn real_low_rate_frame_rate_beats_wmp() {
        // §3.H: Real's low-rate clip plays significantly faster than
        // the MediaPlayer clip of the same pair.
        let log = run_session(RateClass::Low, 4, 13); // 22 Kbit/s
        let avg = log.avg_frame_rate();
        assert!(avg > 16.0, "fps = {avg}");
    }

    #[test]
    fn no_app_batches_for_realtracker() {
        let log = run_session(RateClass::Low, 0, 14);
        assert!(log.app_batches.is_empty());
    }

    #[test]
    fn bottleneck_caps_the_measured_ratio() {
        // Very-high clip behind a T1: measured ratio ≈ 1 (Figure 11's
        // right-most point).
        let sets = corpus::table1();
        let pair = sets[5].pair(RateClass::VeryHigh).unwrap();
        let beta = real_effective_ratio(pair.real.encoded_kbps, 1_544_000);
        assert!(beta < 1.3);
    }
}
