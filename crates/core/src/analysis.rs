//! Shared analysis helpers over pair-run results.

use crate::experiment::PairRunResult;
use turb_capture::{Filter, FragmentGroups};
use turb_media::PlayerId;

/// The fragment-group view of one player's stream within a run. The
/// run's capture is grouped once, on the first call for either player;
/// later calls borrow the same groups.
pub fn stream_groups(run: &PairRunResult, player: PlayerId) -> &FragmentGroups {
    let [real, wmp] = run.stream_groups.get_or_init(|| {
        let records = run.capture.filtered(&Filter::stream_from(run.server_addr));
        FragmentGroups::build(records).into_players()
    });
    match player {
        PlayerId::RealPlayer => real,
        PlayerId::MediaPlayer => wmp,
    }
}

/// Wire packet sizes (bytes, Ethernet framing included) of one
/// player's stream, fragments included — the paper's packet-size
/// samples (Figures 6–7).
pub fn wire_sizes(run: &PairRunResult, player: PlayerId) -> Vec<f64> {
    let groups = stream_groups(run, player);
    groups
        .groups()
        .iter()
        .flat_map(|g| groups.frames(g).iter().map(|f| f.len as f64))
        .collect()
}

/// Per-datagram wire sizes: total bytes of each application packet
/// (Ethereal displays the reassembled UDP length on the frame that
/// completes a fragment group, which is the size view under which
/// "the sizes of MediaPlayer packets are concentrated around the mean
/// packet size" holds for fragmented high-rate clips too). Identical
/// to [`wire_sizes`] for unfragmented streams.
pub fn datagram_sizes(run: &PairRunResult, player: PlayerId) -> Vec<f64> {
    stream_groups(run, player)
        .groups()
        .iter()
        .map(|g| g.wire_bytes as f64)
        .collect()
}

/// Per-wire-packet arrival times (seconds since stream start) of one
/// player's stream, in arrival order.
pub fn wire_times(run: &PairRunResult, player: PlayerId) -> Vec<f64> {
    let t0 = run.stream_start.as_secs_f64();
    let groups = stream_groups(run, player);
    let mut times: Vec<f64> = groups
        .groups()
        .iter()
        .flat_map(|g| groups.frames(g).iter().map(|f| f.time - t0))
        .collect();
    times.sort_by(f64::total_cmp);
    times
}

/// Raw per-packet interarrival gaps (seconds) — Figure 8's samples.
pub fn raw_interarrivals(run: &PairRunResult, player: PlayerId) -> Vec<f64> {
    let times = wire_times(run, player);
    times.windows(2).map(|w| w[1] - w[0]).collect()
}

/// Group-leader interarrival gaps (seconds) — Figure 9's samples,
/// "consider\[ing\] only the first UDP packet in each packet group" to
/// remove fragment noise.
pub fn leader_interarrivals(run: &PairRunResult, player: PlayerId) -> Vec<f64> {
    stream_groups(run, player).group_interarrivals()
}

/// Burstiness of one player's stream: index of dispersion and
/// peak-to-mean ratio of per-second packet counts — quantifying §3.F's
/// "RealPlayer generates burstier traffic that may be more difficult
/// for the network to manage".
pub fn burstiness(run: &PairRunResult, player: PlayerId) -> Option<(f64, f64)> {
    let times = wire_times(run, player);
    Some((
        turb_stats::index_of_dispersion(&times, 1.0)?,
        turb_stats::peak_to_mean(&times, 1.0)?,
    ))
}

/// The tracker log for one player within a run.
pub fn log_for(run: &PairRunResult, player: PlayerId) -> &turb_players::AppStatsLog {
    match player {
        PlayerId::RealPlayer => &run.real,
        PlayerId::MediaPlayer => &run.wmp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{run_pair, PairRunConfig};
    use turb_media::{corpus, RateClass};

    fn short_run() -> PairRunResult {
        let sets = corpus::table1();
        let pair = sets[1].pair(RateClass::High).unwrap().clone(); // 39 s, 307.2 K WMP
        run_pair(&PairRunConfig::new(2024, 2, pair))
    }

    #[test]
    fn the_two_streams_separate_cleanly() {
        let run = short_run();
        let real_sizes = wire_sizes(&run, PlayerId::RealPlayer);
        let wmp_sizes = wire_sizes(&run, PlayerId::MediaPlayer);
        assert!(real_sizes.len() > 100);
        assert!(wmp_sizes.len() > 100);
        // Real: all sub-MTU. WMP at 307.2 K: full-MTU fragments present.
        assert!(real_sizes.iter().all(|&s| s < 1514.0));
        assert!(wmp_sizes.contains(&1514.0));
    }

    #[test]
    fn wmp_leader_gaps_are_the_100ms_tick() {
        let run = short_run();
        let gaps = leader_interarrivals(&run, PlayerId::MediaPlayer);
        assert!(gaps.len() > 100);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        assert!((mean - 0.1).abs() < 0.01, "mean gap = {mean}");
        // And essentially constant: standard deviation tiny.
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        assert!(var.sqrt() < 0.01, "std = {}", var.sqrt());
    }

    #[test]
    fn real_raw_gaps_are_spread() {
        let run = short_run();
        let gaps = raw_interarrivals(&run, PlayerId::RealPlayer);
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Coefficient of variation well above the WMP stream's.
        assert!(var.sqrt() / mean > 0.2, "cv = {}", var.sqrt() / mean);
    }

    #[test]
    fn real_is_burstier_than_wmp() {
        // §3.F: the buffering burst plus pacing jitter make Real's
        // packet process far more dispersed than WMP's metronome.
        let run = short_run();
        let (real_iod, real_ptm) = burstiness(&run, PlayerId::RealPlayer).unwrap();
        let (wmp_iod, wmp_ptm) = burstiness(&run, PlayerId::MediaPlayer).unwrap();
        assert!(real_iod > 2.0 * wmp_iod, "{real_iod} vs {wmp_iod}");
        assert!(real_ptm > wmp_ptm, "{real_ptm} vs {wmp_ptm}");
        assert!(wmp_iod < 0.6, "WMP should be CBR-smooth: {wmp_iod}");
    }

    #[test]
    fn wire_times_are_sorted_and_start_near_zero() {
        let run = short_run();
        for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
            let times = wire_times(&run, player);
            assert!(times.windows(2).all(|w| w[0] <= w[1]));
            assert!(times[0] >= 0.0 && times[0] < 5.0, "first = {}", times[0]);
        }
    }
}
