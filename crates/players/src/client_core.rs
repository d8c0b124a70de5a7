//! Shared client machinery: START handshake, sequence accounting,
//! pre-roll buffering, playout clock, per-second statistics.
//!
//! Both tracker clients ([`crate::wmp_client::WmpClient`] and
//! [`crate::real_client::RealClient`]) embed a [`ClientCore`]; the WMP
//! client adds the once-per-second interleave batcher of §3.G on top.

use crate::calibration::{END_FRAME_MARKER, PREROLL_SECS};
use crate::config::{StreamConfig, START_REQUEST};
use crate::stats::{AppStatsLog, NetEvent, SecondStats};
use bytes::Bytes;
use turb_media::codec;
use turb_netsim::sim::Ctx;
use turb_netsim::{SimDuration, SimTime};
use turb_wire::media::{MediaHeader, PlayerId};

/// Timer token: per-second statistics tick.
pub const TOKEN_SECOND: u64 = 1;
/// Timer token: START-request retransmission.
pub const TOKEN_RETRY: u64 = 2;
/// Timer token: interleave batch release (WMP only).
pub const TOKEN_BATCH: u64 = 3;

/// The common client state machine.
pub struct ClientCore {
    /// Session parameters.
    pub config: StreamConfig,
    /// The tracker's statistics log, filled in as the session runs.
    pub log: AppStatsLog,
    fps: f64,
    started_at: Option<SimTime>,
    next_seq: u32,
    /// Highest media timestamp seen (the buffer's fill level proxy).
    max_media_ms: u32,
    playout_start: Option<SimTime>,
    ended: bool,
    cur_second: u64,
    sec_bytes: u64,
    sec_packets: u32,
    sec_lost: u32,
    finished_logging: bool,
    /// Buffered-but-not-yet-played lineage spans:
    /// `(span, media_time_ms, buffered_ns)`. Only populated when the
    /// simulation records packet lineage; always empty otherwise.
    lineage_pending: Vec<(u64, u32, u64)>,
}

impl ClientCore {
    /// Build the core with an empty log.
    pub fn new(config: StreamConfig) -> ClientCore {
        let log = AppStatsLog::new(config.clip.clone());
        let fps = codec::nominal_fps(config.clip.player, config.clip.encoded_kbps);
        ClientCore {
            config,
            log,
            fps,
            started_at: None,
            next_seq: 0,
            max_media_ms: 0,
            playout_start: None,
            ended: false,
            cur_second: 0,
            sec_bytes: 0,
            sec_packets: 0,
            sec_lost: 0,
            finished_logging: false,
            lineage_pending: Vec::new(),
        }
    }

    /// Kick off the session: send START, arm the retry and stats timers.
    pub fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.started_at = Some(ctx.now());
        self.send_start(ctx);
        ctx.set_timer_after(SimDuration::from_secs(2), TOKEN_RETRY);
        ctx.set_timer_after(SimDuration::from_secs(1), TOKEN_SECOND);
    }

    fn send_start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.send_udp(
            self.config.client_port,
            self.config.server_addr,
            self.config.server_port,
            Bytes::from_static(START_REQUEST),
        );
    }

    /// Handle one received datagram. Returns the parsed header for the
    /// embedding client (None for END markers, junk, or duplicates of
    /// the end).
    pub fn on_datagram(&mut self, ctx: &mut Ctx<'_>, payload: &Bytes) -> Option<MediaHeader> {
        let header = MediaHeader::decode(payload).ok()?;
        let now = ctx.now();
        if header.frame_number == END_FRAME_MARKER {
            if !self.ended {
                self.ended = true;
                self.log.stream_end = Some(now);
            }
            return None;
        }
        let log = &mut self.log;
        if log.first_packet.is_none() {
            log.first_packet = Some(now);
        }
        log.last_packet = Some(now);
        log.bytes_total += payload.len() as u64;
        log.net_events.push(NetEvent {
            time_ns: now.as_nanos(),
            seq: header.sequence,
            bytes: payload.len() as u32,
            media_time_ms: header.media_time_ms,
            buffering: header.buffering,
        });
        // Sequence accounting: a jump forward counts the gap as lost;
        // reordered (late) packets are not re-counted.
        if header.sequence > self.next_seq {
            let gap = header.sequence - self.next_seq;
            log.packets_lost += gap;
            self.sec_lost += gap;
        }
        if header.sequence >= self.next_seq {
            self.next_seq = header.sequence + 1;
        }
        self.sec_bytes += payload.len() as u64;
        self.sec_packets += 1;
        self.max_media_ms = self.max_media_ms.max(header.media_time_ms);

        // Pre-roll: playout starts once PREROLL seconds of media are
        // buffered.
        if self.playout_start.is_none() && f64::from(self.max_media_ms) / 1000.0 >= PREROLL_SECS {
            self.playout_start = Some(now);
            self.log.playout_start = Some(now);
        }
        if let Some(span) = ctx.lineage_current_span() {
            ctx.lineage_buffered(span, header.media_time_ms);
            self.lineage_pending
                .push((span, header.media_time_ms, now.as_nanos()));
        }
        Some(header)
    }

    /// Emit `Played` lineage events for every buffered span whose
    /// playout deadline has passed (all of them when `force` is set,
    /// used once the clip has fully played out). The played timestamp
    /// is the deadline itself — when the media was due — clamped to be
    /// no earlier than the packet entered the buffer.
    fn flush_played(&mut self, ctx: &mut Ctx<'_>, force: bool) {
        if self.lineage_pending.is_empty() {
            return;
        }
        let Some(t0) = self.playout_start else {
            return;
        };
        let now_ns = ctx.now().as_nanos();
        let t0_ns = t0.as_nanos();
        let mut keep = Vec::new();
        for (span, media_ms, buffered_ns) in std::mem::take(&mut self.lineage_pending) {
            let deadline = t0_ns + u64::from(media_ms) * 1_000_000;
            if deadline <= now_ns || force {
                ctx.lineage_played(span, buffered_ns.max(deadline.min(now_ns)), media_ms);
            } else {
                keep.push((span, media_ms, buffered_ns));
            }
        }
        self.lineage_pending = keep;
    }

    /// Playback position (seconds of media) at `now`, if playing.
    pub fn position_secs(&self, now: SimTime) -> Option<f64> {
        self.playout_start.map(|t0| {
            now.since(t0)
                .as_secs_f64()
                .min(self.config.clip.duration_secs)
        })
    }

    /// Frames played during the second ending at `now`: the nominal
    /// frame count for the media window, reduced proportionally by any
    /// loss observed in the same second.
    fn frames_this_second(&self, now: SimTime) -> u32 {
        let Some(end) = self.position_secs(now) else {
            return 0;
        };
        let start = (end - 1.0).max(0.0);
        if end <= start {
            return 0;
        }
        let nominal = (end * self.fps).floor() - (start * self.fps).floor();
        let delivered = self.sec_packets + self.sec_lost;
        let loss_frac = if delivered == 0 {
            0.0
        } else {
            f64::from(self.sec_lost) / f64::from(delivered)
        };
        (nominal * (1.0 - loss_frac)).round().max(0.0) as u32
    }

    /// Per-second statistics tick. Returns `true` while the timer
    /// should stay armed.
    pub fn on_second(&mut self, ctx: &mut Ctx<'_>) -> bool {
        if self.finished_logging {
            return false;
        }
        let now = ctx.now();
        self.flush_played(ctx, false);
        let frames = self.frames_this_second(now);
        // Windowed buffer-occupancy gauge: decoded media sitting ahead
        // of the playout clock, in ms. A cold 1 Hz sample, labelled by
        // player so the watch view separates the two streams.
        let component = match self.config.clip.player {
            PlayerId::RealPlayer => "player:real",
            PlayerId::MediaPlayer => "player:wmp",
        };
        let position_ms = self
            .position_secs(now)
            .map_or(0u32, |p| (p * 1000.0) as u32);
        let occupancy_ms = self.max_media_ms.saturating_sub(position_ms);
        ctx.ts_gauge("player_buffer_ms", component, u64::from(occupancy_ms));
        // Underrun check: playing, clip not finished, but the playout
        // clock has caught up with everything buffered so far.
        if let Some(position) = self.position_secs(now) {
            let buffered_secs = f64::from(self.max_media_ms) / 1000.0;
            if !self.ended && position < self.config.clip.duration_secs && position >= buffered_secs
            {
                self.log.buffer_underruns += 1;
            }
        }
        self.log.per_second.push(SecondStats {
            t_sec: self.cur_second,
            bytes_received: self.sec_bytes,
            kbps: self.sec_bytes as f64 * 8.0 / 1000.0,
            frames_played: frames,
            packets_received: self.sec_packets,
        });
        self.cur_second += 1;
        self.sec_bytes = 0;
        self.sec_packets = 0;
        self.sec_lost = 0;

        // Stop once the clip has fully played out (or a hard cap, so a
        // dead stream can't tick forever).
        let played_out = self
            .position_secs(now)
            .is_some_and(|p| p >= self.config.clip.duration_secs)
            && self.ended;
        let hard_cap = self.started_at.is_some_and(|t0| {
            now.since(t0).as_secs_f64() > self.config.clip.duration_secs * 3.0 + 120.0
        });
        if played_out || hard_cap {
            // A fully played clip flushes every remaining span; a dead
            // stream does not (unplayed media stays unplayed).
            self.flush_played(ctx, played_out);
            self.finished_logging = true;
            return false;
        }
        ctx.set_timer_after(SimDuration::from_secs(1), TOKEN_SECOND);
        true
    }

    /// Retry tick: resend START while no data has arrived.
    pub fn on_retry(&mut self, ctx: &mut Ctx<'_>) {
        if self.log.first_packet.is_none() && !self.ended {
            self.send_start(ctx);
            ctx.set_timer_after(SimDuration::from_secs(2), TOKEN_RETRY);
        }
    }

    /// Whether the END marker has been seen.
    pub fn ended(&self) -> bool {
        self.ended
    }

    /// Whether per-second logging has wound down.
    pub fn finished(&self) -> bool {
        self.finished_logging
    }
}

#[cfg(test)]
mod tests {
    // ClientCore needs a live Ctx, so its behaviour is exercised
    // through the full client tests in `wmp_client`/`real_client` and
    // the integration tests; here we only cover the pure helpers.
    use super::*;
    use std::net::Ipv4Addr;
    use turb_media::corpus;

    fn core() -> ClientCore {
        let clip = corpus::all_clips().remove(0);
        let config = StreamConfig {
            clip,
            server_addr: Ipv4Addr::new(204, 71, 0, 33),
            server_port: 554,
            client_addr: Ipv4Addr::new(130, 215, 36, 10),
            client_port: 7002,
            bottleneck_bps: 10_000_000,
        };
        ClientCore::new(config)
    }

    #[test]
    fn position_is_none_before_playout() {
        let c = core();
        assert_eq!(c.position_secs(SimTime(5_000_000_000)), None);
    }

    #[test]
    fn position_clamps_at_clip_end() {
        let mut c = core();
        c.playout_start = Some(SimTime::ZERO);
        let far = SimTime(10_000_000_000_000);
        assert_eq!(c.position_secs(far), Some(c.config.clip.duration_secs));
    }

    #[test]
    fn frames_zero_before_playout() {
        let c = core();
        assert_eq!(c.frames_this_second(SimTime(3_000_000_000)), 0);
    }

    #[test]
    fn frames_match_nominal_fps_while_playing() {
        let mut c = core();
        c.playout_start = Some(SimTime::ZERO);
        c.sec_packets = 10;
        let f = c.frames_this_second(SimTime(10_000_000_000));
        let fps = codec::nominal_fps(c.config.clip.player, c.config.clip.encoded_kbps);
        assert!((f64::from(f) - fps).abs() <= 1.0, "{f} vs {fps}");
    }

    #[test]
    fn loss_reduces_frames_proportionally() {
        let mut c = core();
        c.playout_start = Some(SimTime::ZERO);
        c.sec_packets = 5;
        c.sec_lost = 5; // 50 % loss this second
        let f = c.frames_this_second(SimTime(10_000_000_000));
        let fps = codec::nominal_fps(c.config.clip.player, c.config.clip.encoded_kbps);
        assert!(
            (f64::from(f) - fps / 2.0).abs() <= 1.0,
            "{f} vs {}",
            fps / 2.0
        );
    }
}
