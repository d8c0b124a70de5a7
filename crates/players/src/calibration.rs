//! Every behavioural constant of the player models, each pinned to the
//! paper sentence it reproduces. This is the single auditable seam
//! between "the paper measured it" and "we assumed it".

/// MediaPlayer server pacing tick, milliseconds.
///
/// §3.G / Figure 12: "The operating system receives packets in regular
/// intervals of 100 ms" — one application frame is handed to the
/// kernel every tick; at high rates that frame exceeds the MTU and the
/// kernel fragments it (§3.C).
pub const WMP_TICK_MS: u64 = 100;

/// Minimum MediaPlayer application data unit, bytes (including the
/// 20-byte media header).
///
/// §3.D / Figure 6: at low rates "over 80 % of MediaPlayer packets
/// have a size between 800 bytes and 1000 bytes" — when a 100 ms tick
/// would produce a smaller frame, the server instead emits a fixed
/// ~880-byte unit and stretches the interval, keeping the stream CBR
/// with near-constant packet sizes (942 bytes on the wire).
pub const WMP_MIN_UNIT_BYTES: usize = 880;

/// MediaPlayer client interleave period, milliseconds.
///
/// §3.G / Figure 12: "the MediaPlayer application receives packets in
/// groups of 10, once per second" — received datagrams are batched and
/// released to the application layer once per second (interleaving,
/// \[PHH98\]).
pub const WMP_INTERLEAVE_MS: u64 = 1000;

/// Client pre-roll buffer target, seconds of media, both players.
///
/// §3.F describes delay buffering qualitatively; neither player's
/// startup threshold is measured, so we use a 2002-typical 5 s
/// pre-roll for both.
pub const PREROLL_SECS: f64 = 5.0;

/// RealPlayer bandwidth overhead: playback rate / encoding rate.
///
/// §3.B / Figure 3: "RealPlayer plays out at a slightly higher average
/// data rate than the encoded data rate … RealPlayer needs a higher
/// average bandwidth than its encoding data rate for playback". The
/// trend curve sits ≈5–10 % above y = x; we use 8 %.
pub const REAL_OVERHEAD: f64 = 1.08;

/// RealPlayer buffering-phase target: how much media (seconds) the
/// server pushes ahead of real time before settling to the playout
/// rate.
///
/// Derived from §IV: the burst lasts "the first 20 seconds (for low
/// data rate clips) to 40 seconds (for high data rate clips)". With a
/// burst ratio β the ahead-accumulation rate is (β/overhead − 1) per
/// second, so a 35 s ahead target yields ≈17 s of burst at β = 3.24
/// (low) and ≈45 s at β ≈ 1.9 (high) — bracketing both of the paper's
/// numbers.
pub const REAL_AHEAD_TARGET_SECS: f64 = 35.0;

/// Per-clip ahead target: a server cannot usefully buffer more than a
/// fraction of a short clip ahead, so the target shrinks with the clip
/// (otherwise the 39 s commercial would stream entirely in its burst).
pub fn real_ahead_target(duration_secs: f64) -> f64 {
    REAL_AHEAD_TARGET_SECS.min(duration_secs / 3.0)
}

/// Hard upper bound on the burst duration. When β is close to 1 the
/// ahead target would take unbounded time to reach (the 637 Kbit/s
/// clip); real players give up and settle after their startup window.
/// §IV puts the longest observed burst at ≈40 s.
pub const REAL_MAX_BURST_SECS: f64 = 45.0;

/// RealPlayer buffering ratio β as a function of the encoding rate,
/// before the bottleneck cap.
///
/// Figure 11: "for the low data rate clips (less than 56 Kbps), the
/// ratio of buffering rate to playout rate is as high as 3, while for
/// the very high data rate clip (637 Kbps), the ratio … is close
/// to 1", decreasing with encoding rate in between; Figure 10 shows
/// the 284 Kbit/s clip bursting at roughly 2× its steady rate. The
/// *measured* ratio is arrival-rate over arrival-rate, i.e. β divided
/// by [`REAL_OVERHEAD`], so the cap of 3.24 yields the paper's
/// measured 3.0 at modem rates. A clamped logarithmic fit:
/// β(36) → cap, β(84) ≈ 3.0, β(284) ≈ 1.9, β(637) ≈ 1.1.
pub fn real_buffering_ratio(encoded_kbps: f64) -> f64 {
    let r = encoded_kbps.max(1.0);
    (4.4 - 0.95 * (r / 20.0).ln()).clamp(1.0, 3.24)
}

/// Cap the buffering ratio by the path's bottleneck: "possibly because
/// the bottleneck bandwidth is insufficiently small for a higher
/// buffering rate" (§3.F). The server leaves 10 % headroom.
pub fn real_effective_ratio(encoded_kbps: f64, bottleneck_bps: u64) -> f64 {
    let cap = 0.9 * bottleneck_bps as f64 / (encoded_kbps * 1000.0);
    real_buffering_ratio(encoded_kbps).min(cap).max(1.0)
}

/// Mean RealPlayer packet payload (bytes, including the media header)
/// as a function of encoding rate.
///
/// Figure 6: the 36 Kbit/s clip's packet sizes spread over roughly
/// 200–1200 bytes; higher-rate clips use larger (but always sub-MTU)
/// packets since "RealServers break application layer frames into
/// packets that are smaller than the MTU" (§3.C).
pub fn real_mean_payload(encoded_kbps: f64) -> f64 {
    (550.0 + 0.9 * encoded_kbps).clamp(500.0, 1000.0)
}

/// Relative standard deviation of RealPlayer packet sizes.
///
/// Figure 7: normalised sizes "spread more widely over a range from
/// 0.6 to 1.8 of the mean" — a truncated normal with σ = 0.3·mean
/// reproduces that support.
pub const REAL_SIZE_REL_STD: f64 = 0.30;

/// Truncation bounds on RealPlayer packet sizes, relative to the mean
/// (matching Figure 7's 0.6–1.8 support, with a hard sub-MTU cap).
pub const REAL_SIZE_REL_MIN: f64 = 0.55;
/// Upper relative bound (see [`REAL_SIZE_REL_MIN`]).
pub const REAL_SIZE_REL_MAX: f64 = 1.85;

/// Hard cap on RealPlayer application payload so no packet ever
/// fragments: MTU 1500 − 20 IP − 8 UDP = 1472 bytes of UDP payload.
/// "IP fragments were not observed in any of the RealPlayer traces"
/// (§3.C).
pub const REAL_MAX_PAYLOAD: usize = 1472;

/// Log-normal σ of RealPlayer inter-packet pacing jitter (mean-one).
///
/// Figures 8 and 9: RealPlayer interarrivals "have a much wider range"
/// with a gradual CDF over 0–3× the mean, versus MediaPlayer's step.
pub const REAL_PACING_SIGMA: f64 = 0.35;

/// How many END-of-stream marker packets the servers send (loss
/// redundancy).
pub const END_MARKER_REPEATS: u32 = 3;

/// Frame number value marking an END packet.
pub const END_FRAME_MARKER: u32 = u32::MAX;

/// Well-known simulated server ports: 1755 is the historical MMS port,
/// 554 the RTSP port RealServer used.
pub const WMP_SERVER_PORT: u16 = 1755;
/// RealServer control/data port.
pub const REAL_SERVER_PORT: u16 = 554;

/// Windows Media encoding tiers a fleet session draws its nominal
/// rate from, Kbit/s, highest first: Table 1's clips run from
/// 28.8 Kbit/s up to 1128 Kbit/s. Population harnesses index this with
/// a seeded draw so the wmp/real mix skews like the measured corpus.
pub const WMP_SESSION_TIERS_KBPS: [f64; 6] = [1128.0, 548.0, 282.0, 109.0, 56.0, 28.8];

/// RealPlayer SureStream tiers a fleet session draws from, Kbit/s,
/// highest first: Table 1's clips run from 20 Kbit/s up to
/// 637 Kbit/s.
pub const REAL_SESSION_TIERS_KBPS: [f64; 6] = [637.0, 284.0, 150.0, 80.0, 44.0, 20.0];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buffering_ratio_matches_figure11_anchors() {
        // "as high as 3" below 56 Kbit/s:
        assert!(real_buffering_ratio(22.0) > 2.8);
        assert!(real_buffering_ratio(36.0) > 2.7);
        // mid rates in between:
        let mid = real_buffering_ratio(180.9);
        assert!((1.5..=2.5).contains(&mid), "β(180.9) = {mid}");
        // "close to 1" at 637 Kbit/s:
        let vh = real_buffering_ratio(636.9);
        assert!((1.0..=1.2).contains(&vh), "β(636.9) = {vh}");
    }

    #[test]
    fn buffering_ratio_is_monotone_decreasing() {
        let mut last = f64::INFINITY;
        for kbps in (10..800).step_by(5) {
            let b = real_buffering_ratio(kbps as f64);
            assert!(b <= last + 1e-12);
            assert!((1.0..=3.24).contains(&b));
            last = b;
        }
    }

    #[test]
    fn bottleneck_caps_the_ratio() {
        // A 1.5 Mbit/s bottleneck cannot sustain 3× of 600 Kbit/s.
        let capped = real_effective_ratio(600.0, 1_544_000);
        assert!(capped < 2.4);
        assert!(capped >= 1.0);
        // A 10 Mbit/s path doesn't bind at low rates.
        assert_eq!(
            real_effective_ratio(36.0, 10_000_000),
            real_buffering_ratio(36.0)
        );
        // Ratio never drops below 1 even on a hopeless bottleneck.
        assert_eq!(real_effective_ratio(600.0, 100_000), 1.0);
    }

    #[test]
    fn burst_durations_match_section_iv() {
        // T_burst = AHEAD / (β/overhead − 1): ≈20 s at low rates,
        // ≈40 s at high (both capped at REAL_MAX_BURST_SECS).
        let beta_low = real_buffering_ratio(36.0);
        let t_low = REAL_AHEAD_TARGET_SECS / (beta_low / REAL_OVERHEAD - 1.0);
        assert!((14.0..=25.0).contains(&t_low), "t_low = {t_low}");
        let beta_high = real_buffering_ratio(268.0);
        let t_high =
            (REAL_AHEAD_TARGET_SECS / (beta_high / REAL_OVERHEAD - 1.0)).min(REAL_MAX_BURST_SECS);
        assert!((35.0..=46.0).contains(&t_high), "t_high = {t_high}");
    }

    #[test]
    fn ahead_target_shrinks_for_short_clips() {
        assert_eq!(real_ahead_target(240.0), REAL_AHEAD_TARGET_SECS);
        assert_eq!(real_ahead_target(39.0), 13.0);
        assert!(real_ahead_target(60.0) < REAL_AHEAD_TARGET_SECS);
    }

    #[test]
    fn real_payloads_never_fragment() {
        for kbps in [22.0, 36.0, 84.0, 180.9, 284.0, 636.9] {
            let upper = real_mean_payload(kbps) * REAL_SIZE_REL_MAX;
            assert!(upper.min(REAL_MAX_PAYLOAD as f64) <= 1472.0);
        }
    }

    #[test]
    fn session_tiers_span_the_paper_encodings() {
        for tiers in [WMP_SESSION_TIERS_KBPS, REAL_SESSION_TIERS_KBPS] {
            assert!(tiers.windows(2).all(|w| w[0] > w[1]), "{tiers:?}");
        }
        assert_eq!(WMP_SESSION_TIERS_KBPS[0], 1128.0);
        assert_eq!(WMP_SESSION_TIERS_KBPS[5], 28.8);
        assert_eq!(REAL_SESSION_TIERS_KBPS[0], 637.0);
        assert_eq!(REAL_SESSION_TIERS_KBPS[5], 20.0);
    }

    #[test]
    fn wmp_low_rate_unit_gives_800_to_1000_byte_packets() {
        // Wire size = unit + 8 (UDP) + 20 (IP) + 14 (Ethernet).
        let wire = WMP_MIN_UNIT_BYTES + 8 + 20 + 14;
        assert!((800..=1000).contains(&wire), "wire = {wire}");
    }
}
