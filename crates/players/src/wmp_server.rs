//! The Windows MediaPlayer server model: strictly CBR.
//!
//! Behaviour reproduced (all §3):
//!
//! * One application frame handed to the OS every 100 ms
//!   ([`crate::calibration::WMP_TICK_MS`]); its size is whatever 100 ms of the
//!   encoded rate amounts to, so at rates above ≈118 Kbit/s the frame
//!   exceeds the MTU and the sending stack fragments it into the
//!   1514-byte trains of Figures 4 and 5.
//! * At low rates the server pins the frame at ~880 bytes and widens
//!   the tick instead, producing Figure 6's 800–1000-byte packets with
//!   near-constant spacing.
//! * "MediaPlayer always buffers at the same rate as it plays back the
//!   clip" (§3.F) — there is no burst phase, so the server streams for
//!   the entire clip duration (Figure 10).

use crate::calibration::{END_FRAME_MARKER, END_MARKER_REPEATS, WMP_MIN_UNIT_BYTES, WMP_TICK_MS};
use crate::config::{StreamConfig, START_REQUEST};
use bytes::Bytes;
use std::net::Ipv4Addr;
use turb_media::codec;
use turb_netsim::sim::{Application, Ctx};
use turb_netsim::{PacketizeMeta, SimDuration};
use turb_wire::media::{MediaHeader, PlayerId, MEDIA_HEADER_LEN};

const TOKEN_TICK: u64 = 1;

/// The CBR streaming server.
pub struct WmpServer {
    config: StreamConfig,
    client: Option<(Ipv4Addr, u16)>,
    /// Application data unit per tick, bytes (media header included).
    unit_bytes: usize,
    /// Inter-frame tick.
    tick: SimDuration,
    fps: f64,
    seq: u32,
    media_sent: u64,
    done: bool,
}

impl WmpServer {
    /// Build a server for one clip.
    pub fn new(config: StreamConfig) -> WmpServer {
        let rate_bps = config.encoded_bps();
        let raw_unit = rate_bps * (WMP_TICK_MS as f64 / 1000.0) / 8.0;
        let (unit_bytes, tick) = if raw_unit < WMP_MIN_UNIT_BYTES as f64 {
            // Low-rate mode: fixed ~880-byte unit, stretched interval.
            let unit = WMP_MIN_UNIT_BYTES;
            let tick = SimDuration::from_secs_f64(unit as f64 * 8.0 / rate_bps);
            (unit, tick)
        } else {
            (
                raw_unit.round() as usize,
                SimDuration::from_millis(WMP_TICK_MS),
            )
        };
        let fps = codec::nominal_fps(PlayerId::MediaPlayer, config.clip.encoded_kbps);
        WmpServer {
            config,
            client: None,
            unit_bytes,
            tick,
            fps,
            seq: 0,
            media_sent: 0,
            done: false,
        }
    }

    /// The data-unit size this clip streams with (useful in tests).
    pub fn unit_bytes(&self) -> usize {
        self.unit_bytes
    }

    /// The inter-frame tick this clip streams with.
    pub fn tick(&self) -> SimDuration {
        self.tick
    }

    /// Begin streaming to `client` on its UDP START datagram.
    fn begin_streaming(&mut self, ctx: &mut Ctx<'_>, client: (Ipv4Addr, u16)) {
        if self.client.is_some() {
            return;
        }
        self.client = Some(client);
        self.send_unit(ctx);
        ctx.set_timer_after(self.tick, TOKEN_TICK);
    }

    fn media_time_ms(&self) -> u32 {
        let rate_bytes_per_sec = self.config.encoded_bps() / 8.0;
        ((self.media_sent as f64 / rate_bytes_per_sec) * 1000.0).round() as u32
    }

    fn send_unit(&mut self, ctx: &mut Ctx<'_>) {
        let Some((addr, port)) = self.client else {
            return;
        };
        let media_time_ms = self.media_time_ms();
        // "MediaPlayer always buffers at the same rate as it plays
        // back": the buffering flag marks only the pre-roll window so
        // the analysis can form the same two phases it forms for Real.
        let buffering = f64::from(media_time_ms) / 1000.0 < crate::calibration::PREROLL_SECS;
        let header = MediaHeader {
            player: PlayerId::MediaPlayer,
            sequence: self.seq,
            frame_number: (f64::from(media_time_ms) / 1000.0 * self.fps) as u32,
            media_time_ms,
            buffering,
        };
        self.seq += 1;
        if ctx.sessions_enabled() {
            ctx.session_packetize(
                crate::WMP_SESSION_ID,
                self.unit_bytes.max(MEDIA_HEADER_LEN) as u32,
            );
        }
        if ctx.lineage_enabled() {
            ctx.lineage_packetize(PacketizeMeta {
                player: turb_media::player_code(PlayerId::MediaPlayer),
                sequence: header.sequence,
                media_time_ms: header.media_time_ms,
            });
        }
        let payload_len = self.unit_bytes.max(MEDIA_HEADER_LEN);
        ctx.send_udp_with(self.config.server_port, addr, port, payload_len, |buf| {
            header.write_with_padding(buf)
        });
        self.media_sent += self.unit_bytes as u64;
    }

    fn send_end_markers(&mut self, ctx: &mut Ctx<'_>) {
        let Some((addr, port)) = self.client else {
            return;
        };
        for _ in 0..END_MARKER_REPEATS {
            let header = MediaHeader {
                player: PlayerId::MediaPlayer,
                sequence: self.seq,
                frame_number: END_FRAME_MARKER,
                media_time_ms: (self.config.clip.duration_secs * 1000.0) as u32,
                buffering: false,
            };
            self.seq += 1;
            if ctx.sessions_enabled() {
                ctx.session_packetize(crate::WMP_SESSION_ID, MEDIA_HEADER_LEN as u32);
            }
            if ctx.lineage_enabled() {
                ctx.lineage_packetize(PacketizeMeta {
                    player: turb_media::player_code(PlayerId::MediaPlayer),
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

impl Application for WmpServer {
    fn on_udp(&mut self, ctx: &mut Ctx<'_>, from: (Ipv4Addr, u16), _dst_port: u16, payload: Bytes) {
        if payload.as_ref() == START_REQUEST {
            self.begin_streaming(ctx, from);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, token: u64) {
        if token != TOKEN_TICK || self.done {
            return;
        }
        if self.media_sent >= self.config.media_bytes() {
            self.send_end_markers(ctx);
            self.done = true;
            return;
        }
        self.send_unit(ctx);
        ctx.set_timer_after(self.tick, TOKEN_TICK);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use turb_media::corpus;
    use turb_media::RateClass;

    fn config_for(kbps_class: RateClass, set: usize) -> StreamConfig {
        let sets = corpus::table1();
        let pair = sets[set].pair(kbps_class).unwrap();
        StreamConfig {
            clip: pair.wmp.clone(),
            server_addr: Ipv4Addr::new(204, 71, 0, 33),
            server_port: 1755,
            client_addr: Ipv4Addr::new(130, 215, 36, 10),
            client_port: 7000,
            bottleneck_bps: 10_000_000,
        }
    }

    #[test]
    fn high_rate_clips_use_100ms_ticks_with_large_units() {
        // Set 1 high: 323.1 Kbit/s → ≈4039-byte units every 100 ms.
        let s = WmpServer::new(config_for(RateClass::High, 0));
        assert_eq!(s.tick(), SimDuration::from_millis(100));
        assert!((4000..4100).contains(&s.unit_bytes()), "{}", s.unit_bytes());
        // Such a unit fragments into 3 on-the-wire packets at MTU 1500.
        assert!(s.unit_bytes() + 8 > 2 * 1480);
    }

    #[test]
    fn low_rate_clips_pin_the_unit_and_stretch_the_tick() {
        // Set 1 low: 49.8 Kbit/s → 880-byte units every ≈141 ms.
        let s = WmpServer::new(config_for(RateClass::Low, 0));
        assert_eq!(s.unit_bytes(), WMP_MIN_UNIT_BYTES);
        let tick_ms = s.tick().as_millis_f64();
        assert!((135.0..150.0).contains(&tick_ms), "tick = {tick_ms}");
    }

    #[test]
    fn unit_rate_product_preserves_the_encoding_rate() {
        for set in 0..6 {
            for class in [RateClass::Low, RateClass::High] {
                let cfg = config_for(class, set);
                let s = WmpServer::new(cfg.clone());
                let rate = s.unit_bytes() as f64 * 8.0 / s.tick().as_secs_f64();
                let encoded = cfg.encoded_bps();
                assert!(
                    (rate - encoded).abs() / encoded < 0.01,
                    "set {set} {class:?}: {rate} vs {encoded}"
                );
            }
        }
    }

    #[test]
    fn very_high_clip_fragments_into_seven() {
        let sets = corpus::table1();
        let pair = sets[5].pair(RateClass::VeryHigh).unwrap();
        let cfg = StreamConfig {
            clip: pair.wmp.clone(),
            server_addr: Ipv4Addr::new(204, 71, 5, 33),
            server_port: 1755,
            client_addr: Ipv4Addr::new(130, 215, 36, 10),
            client_port: 7000,
            bottleneck_bps: 10_000_000,
        };
        let s = WmpServer::new(cfg);
        // 731.3 Kbit/s × 100 ms / 8 ≈ 9141 bytes (+8 UDP) → 7 fragments.
        let frags = (s.unit_bytes() + 8).div_ceil(1480);
        assert_eq!(frags, 7);
    }

    #[test]
    fn the_fragmentation_threshold_sits_near_118_kbps() {
        // Below: the 102.3 Kbit/s clip must NOT fragment (§3.C: "no IP
        // fragmentation for clips encoded at a rate below 100 Kbps",
        // and the 102.3 clips show none either).
        let s = WmpServer::new(config_for(RateClass::Low, 1)); // 102.3
        assert!(s.unit_bytes() + 8 <= 1480, "unit = {}", s.unit_bytes());
    }
}
