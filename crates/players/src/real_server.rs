//! The RealPlayer server model: variable packets, buffering burst.
//!
//! Behaviour reproduced (all §3):
//!
//! * Packet payloads drawn from a wide truncated-normal distribution
//!   (Figures 6–7: sizes spread ≈0.6–1.8× the mean), always below the
//!   MTU — "RealServers break application layer frames into packets
//!   that are smaller than the MTU, thus avoiding IP fragmentation".
//! * Variable inter-packet pacing (Figures 8–9): send intervals are
//!   `size·8/rate` scaled by mean-one log-normal jitter, giving the
//!   gradual interarrival CDF.
//! * A buffering phase at β× the playout rate (Figures 10–11), where β
//!   falls from ≈3 at modem rates to ≈1 at 637 Kbit/s and is capped by
//!   the path bottleneck, until the server is
//!   [`crate::calibration::REAL_AHEAD_TARGET_SECS`] of media ahead of real
//!   time; then a steady phase at [`crate::calibration::REAL_OVERHEAD`]× the
//!   encoding rate (Figure 3's above-the-diagonal trend). The server
//!   therefore finishes streaming before the clip ends (Figure 10).

use crate::calibration::{
    real_effective_ratio, END_FRAME_MARKER, END_MARKER_REPEATS, REAL_MAX_PAYLOAD, REAL_OVERHEAD,
    REAL_PACING_SIGMA, REAL_SIZE_REL_MAX, REAL_SIZE_REL_MIN, REAL_SIZE_REL_STD,
};
use crate::config::{StreamConfig, START_REQUEST};
use bytes::Bytes;
use std::net::Ipv4Addr;
use turb_media::codec;
use turb_netsim::rng::SimRng;
use turb_netsim::sim::{Application, Ctx};
use turb_netsim::{PacketizeMeta, SimDuration, SimTime};
use turb_wire::media::{MediaHeader, PlayerId, MEDIA_HEADER_LEN};

const TOKEN_SEND: u64 = 1;

/// Which phase the server is in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Burst,
    Steady,
}

/// The RealPlayer streaming server.
pub struct RealServer {
    config: StreamConfig,
    client: Option<(Ipv4Addr, u16)>,
    rng: SimRng,
    fps: f64,
    mean_payload: f64,
    beta: f64,
    seq: u32,
    sent_bytes: u64,
    /// Total bytes to send: media × overhead.
    budget: u64,
    start_time: SimTime,
    phase: Phase,
    done: bool,
}

impl RealServer {
    /// Build a server for one clip. `rng` should be a forked stream so
    /// the packet-size draws are independent of other components.
    pub fn new(config: StreamConfig, rng: SimRng) -> RealServer {
        let kbps = config.clip.encoded_kbps;
        let beta = real_effective_ratio(kbps, config.bottleneck_bps);
        let budget = (config.media_bytes() as f64 * REAL_OVERHEAD) as u64;
        RealServer {
            fps: codec::nominal_fps(PlayerId::RealPlayer, kbps),
            mean_payload: crate::calibration::real_mean_payload(kbps),
            beta,
            config,
            client: None,
            rng,
            seq: 0,
            sent_bytes: 0,
            budget,
            start_time: SimTime::ZERO,
            phase: Phase::Burst,
            done: false,
        }
    }

    /// The effective buffering ratio in use (post-bottleneck-cap).
    pub fn effective_beta(&self) -> f64 {
        self.beta
    }

    /// Begin streaming to `client` on its UDP START datagram.
    fn begin_streaming(&mut self, ctx: &mut Ctx<'_>, client: (Ipv4Addr, u16)) {
        if self.client.is_some() {
            return;
        }
        self.client = Some(client);
        self.start_time = ctx.now();
        self.send_packet(ctx);
    }

    /// Media progress in seconds corresponding to the bytes sent.
    fn media_secs(&self) -> f64 {
        self.sent_bytes as f64 / self.budget as f64 * self.config.clip.duration_secs
    }

    /// Current target send rate, bits per second.
    fn target_rate_bps(&mut self, now: SimTime) -> f64 {
        let encoded = self.config.encoded_bps();
        if self.phase == Phase::Burst {
            let elapsed = now.since(self.start_time).as_secs_f64();
            let ahead = self.media_secs() - elapsed;
            // Settle once enough media is buffered ahead, or once the
            // startup window expires (β ≈ 1 would otherwise burst
            // forever without ever reaching the target).
            if ahead >= crate::calibration::real_ahead_target(self.config.clip.duration_secs)
                || elapsed >= crate::calibration::REAL_MAX_BURST_SECS
            {
                self.phase = Phase::Steady;
            }
        }
        match self.phase {
            Phase::Burst => self.beta * encoded,
            Phase::Steady => REAL_OVERHEAD * encoded,
        }
    }

    /// Draw one packet payload length from the calibrated size
    /// distribution (public so calibration property tests can sample
    /// the exact distribution the server uses).
    pub fn draw_payload(&mut self) -> usize {
        let mean = self.mean_payload;
        let draw = self.rng.normal(mean, REAL_SIZE_REL_STD * mean);
        let clamped = draw
            .clamp(REAL_SIZE_REL_MIN * mean, REAL_SIZE_REL_MAX * mean)
            .min(REAL_MAX_PAYLOAD as f64);
        (clamped.round() as usize).max(MEDIA_HEADER_LEN)
    }

    /// Mean-one log-normal pacing factor (public for the same reason
    /// as [`RealServer::draw_payload`]).
    pub fn pacing_jitter(&mut self) -> f64 {
        let sigma = REAL_PACING_SIGMA;
        self.rng.log_normal(-sigma * sigma / 2.0, sigma)
    }

    fn send_packet(&mut self, ctx: &mut Ctx<'_>) {
        let Some((addr, port)) = self.client else {
            return;
        };
        let payload_len = self.draw_payload();
        let media_secs = self.media_secs();
        let header = MediaHeader {
            player: PlayerId::RealPlayer,
            sequence: self.seq,
            frame_number: (media_secs * self.fps) as u32,
            media_time_ms: (media_secs * 1000.0) as u32,
            buffering: self.phase == Phase::Burst,
        };
        self.seq += 1;
        if ctx.sessions_enabled() {
            ctx.session_packetize(crate::REAL_SESSION_ID, payload_len as u32);
        }
        if ctx.lineage_enabled() {
            ctx.lineage_packetize(PacketizeMeta {
                player: turb_media::player_code(PlayerId::RealPlayer),
                sequence: header.sequence,
                media_time_ms: header.media_time_ms,
            });
        }
        ctx.send_udp_with(self.config.server_port, addr, port, payload_len, |buf| {
            header.write_with_padding(buf)
        });
        self.sent_bytes += payload_len as u64;

        if self.sent_bytes >= self.budget {
            self.send_end_markers(ctx);
            self.done = true;
            return;
        }
        // Pace the next packet for the target rate, with jitter.
        let rate = self.target_rate_bps(ctx.now());
        let gap = payload_len as f64 * 8.0 / rate * self.pacing_jitter();
        ctx.set_timer_after(SimDuration::from_secs_f64(gap), TOKEN_SEND);
    }

    fn send_end_markers(&mut self, ctx: &mut Ctx<'_>) {
        let Some((addr, port)) = self.client else {
            return;
        };
        for _ in 0..END_MARKER_REPEATS {
            let header = MediaHeader {
                player: PlayerId::RealPlayer,
                sequence: self.seq,
                frame_number: END_FRAME_MARKER,
                media_time_ms: (self.config.clip.duration_secs * 1000.0) as u32,
                buffering: false,
            };
            self.seq += 1;
            if ctx.sessions_enabled() {
                ctx.session_packetize(crate::REAL_SESSION_ID, MEDIA_HEADER_LEN as u32);
            }
            if ctx.lineage_enabled() {
                ctx.lineage_packetize(PacketizeMeta {
                    player: turb_media::player_code(PlayerId::RealPlayer),
                    sequence: header.sequence,
                    media_time_ms: header.media_time_ms,
                });
            }
            ctx.send_udp_with(
                self.config.server_port,
                addr,
                port,
                MEDIA_HEADER_LEN,
                |buf| header.write_with_padding(buf),
            );
        }
    }
}

impl Application for RealServer {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: (Ipv4Addr, u16), _dst_port: u16, payload: Bytes) {
        if payload.as_ref() == START_REQUEST {
            self.begin_streaming(ctx, from);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token == TOKEN_SEND && !self.done {
            self.send_packet(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turb_media::{corpus, RateClass};

    fn config_for(class: RateClass, set: usize, bottleneck: u64) -> StreamConfig {
        let sets = corpus::table1();
        let pair = sets[set].pair(class).unwrap();
        StreamConfig {
            clip: pair.real.clone(),
            server_addr: Ipv4Addr::new(204, 71, 0, 33),
            server_port: 554,
            client_addr: Ipv4Addr::new(130, 215, 36, 10),
            client_port: 7002,
            bottleneck_bps: bottleneck,
        }
    }

    #[test]
    fn payload_draws_respect_figure7_support() {
        let mut s = RealServer::new(config_for(RateClass::Low, 0, 10_000_000), SimRng::new(1));
        let mean = s.mean_payload;
        let draws: Vec<usize> = (0..5000).map(|_| s.draw_payload()).collect();
        for &d in &draws {
            assert!(d as f64 >= REAL_SIZE_REL_MIN * mean - 1.0);
            assert!(d as f64 <= REAL_SIZE_REL_MAX * mean + 1.0);
            assert!(d <= REAL_MAX_PAYLOAD);
        }
        // The distribution is genuinely spread: both tails occupied.
        assert!(draws.iter().any(|&d| (d as f64) < 0.7 * mean));
        assert!(draws.iter().any(|&d| (d as f64) > 1.4 * mean));
        // Empirical mean close to the configured mean.
        let avg = draws.iter().sum::<usize>() as f64 / draws.len() as f64;
        assert!((avg - mean).abs() / mean < 0.05, "avg {avg} vs mean {mean}");
    }

    #[test]
    fn pacing_jitter_is_mean_one_and_spread() {
        let mut s = RealServer::new(config_for(RateClass::Low, 0, 10_000_000), SimRng::new(2));
        let draws: Vec<f64> = (0..20_000).map(|_| s.pacing_jitter()).collect();
        let mean = draws.iter().sum::<f64>() / draws.len() as f64;
        assert!((mean - 1.0).abs() < 0.02, "mean = {mean}");
        assert!(draws.iter().any(|&j| j < 0.7));
        assert!(draws.iter().any(|&j| j > 1.4));
        assert!(draws.iter().all(|&j| j > 0.0));
    }

    #[test]
    fn low_rate_beta_is_near_three_high_rate_near_two() {
        let low = RealServer::new(config_for(RateClass::Low, 0, 10_000_000), SimRng::new(3));
        assert!(low.effective_beta() > 2.7, "{}", low.effective_beta());
        let high = RealServer::new(config_for(RateClass::High, 0, 10_000_000), SimRng::new(3));
        assert!(
            (1.4..=2.2).contains(&high.effective_beta()),
            "{}",
            high.effective_beta()
        );
    }

    #[test]
    fn very_high_rate_on_t1_bottleneck_hugs_ratio_one() {
        let vh = {
            let sets = corpus::table1();
            let pair = sets[5].pair(RateClass::VeryHigh).unwrap();
            StreamConfig {
                clip: pair.real.clone(),
                server_addr: Ipv4Addr::new(204, 71, 5, 33),
                server_port: 554,
                client_addr: Ipv4Addr::new(130, 215, 36, 10),
                client_port: 7002,
                bottleneck_bps: 1_544_000,
            }
        };
        let s = RealServer::new(vh, SimRng::new(4));
        assert!(s.effective_beta() < 1.3, "{}", s.effective_beta());
    }

    #[test]
    fn budget_includes_the_overhead() {
        let cfg = config_for(RateClass::High, 0, 10_000_000);
        let media = cfg.media_bytes();
        let s = RealServer::new(cfg, SimRng::new(5));
        assert_eq!(s.budget, (media as f64 * REAL_OVERHEAD) as u64);
    }
}
