//! Regeneration of every figure in the paper's evaluation (§3–§4).
//!
//! Each `figNN` function consumes a [`CorpusResult`] and returns the
//! same rows/series the corresponding figure plots. `turbulence
//! figures` prints them; EXPERIMENTS.md records paper-vs-measured.

use crate::analysis::{
    datagram_sizes, leader_interarrivals, log_for, raw_interarrivals, stream_groups, wire_sizes,
    wire_times,
};
use crate::experiment::PairRunResult;
use crate::runner::CorpusResult;
use turb_media::{PlayerId, RateClass};
use turb_netsim::rng::SimRng;
use turb_stats::{normalize_by_mean, polyfit, Cdf, Pdf, Polynomial, Summary, TimeSeries};

/// A labelled x/y series.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

/// Figure 1: CDF of round-trip times (ms) across all runs' ping checks.
pub fn fig01_rtt_cdf(corpus: &CorpusResult) -> Cdf {
    let mut ms = Vec::new();
    for run in &corpus.runs {
        for report in [&run.ping_before, &run.ping_after] {
            ms.extend(report.rtts.iter().map(|r| r.as_millis_f64()));
        }
    }
    Cdf::from_samples(&ms)
}

/// Figure 2: CDF of hop counts across all runs' tracert checks.
pub fn fig02_hops_cdf(corpus: &CorpusResult) -> Cdf {
    let mut hops = Vec::new();
    for run in &corpus.runs {
        for report in [&run.tracert_before, &run.tracert_after] {
            if let Some(h) = report.hop_count() {
                hops.push(h as f64);
            }
        }
    }
    Cdf::from_samples(&hops)
}

/// Figure 3's content: per-clip (encoding rate, avg playback rate)
/// points plus the 2nd-order polynomial trend per player.
#[derive(Debug, Clone)]
pub struct Fig3 {
    /// RealPlayer clips.
    pub real_points: Vec<(f64, f64)>,
    /// MediaPlayer clips.
    pub wmp_points: Vec<(f64, f64)>,
    /// RealPlayer trend curve.
    pub real_fit: Polynomial,
    /// MediaPlayer trend curve.
    pub wmp_fit: Polynomial,
}

/// Figure 3: average playback data rate vs. encoding data rate.
pub fn fig03_playback_vs_encoding(corpus: &CorpusResult) -> Fig3 {
    let mut real_points = Vec::new();
    let mut wmp_points = Vec::new();
    for run in &corpus.runs {
        real_points.push((run.real.clip.encoded_kbps, run.real.avg_playback_kbps()));
        wmp_points.push((run.wmp.clip.encoded_kbps, run.wmp.avg_playback_kbps()));
    }
    Fig3 {
        real_fit: polyfit(&real_points, 2).expect("13 points, degree 2"),
        wmp_fit: polyfit(&wmp_points, 2).expect("13 points, degree 2"),
        real_points,
        wmp_points,
    }
}

/// Figure 4: packet arrivals (sequence index vs. time) for the data
/// set 5 high pair in a one-second window starting 30 s into the
/// stream — MediaPlayer shows stepped fragment groups, RealPlayer a
/// spread staircase.
pub fn fig04_packet_arrivals(corpus: &CorpusResult) -> Vec<Series> {
    let run = corpus
        .run(5, RateClass::High)
        .expect("data set 5 high pair present");
    packet_arrival_window(run, 30.0, 31.0)
}

/// The Figure 4 extraction for any run/window (used by ablations too).
pub fn packet_arrival_window(run: &PairRunResult, from: f64, to: f64) -> Vec<Series> {
    [PlayerId::RealPlayer, PlayerId::MediaPlayer]
        .into_iter()
        .map(|player| {
            let times = wire_times(run, player);
            let points = times
                .iter()
                .enumerate()
                .filter(|(_, t)| (from..to).contains(*t))
                .map(|(i, &t)| (t, i as f64))
                .collect();
            Series {
                label: format!(
                    "{} ({:.0}K)",
                    player.label(),
                    log_for(run, player).clip.encoded_kbps
                ),
                points,
            }
        })
        .collect()
}

/// Figure 5: MediaPlayer IP-fragmentation share vs. encoded rate, one
/// point per WMP clip.
pub fn fig05_fragmentation(corpus: &CorpusResult) -> Vec<(f64, f64)> {
    let mut points: Vec<(f64, f64)> = corpus
        .runs
        .iter()
        .map(|run| {
            let stats = stream_groups(run, PlayerId::MediaPlayer).stats();
            (run.wmp.clip.encoded_kbps, stats.fragment_fraction())
        })
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    points
}

/// A PDF pair (Real, WMP) for the single-experiment distribution plots.
#[derive(Debug, Clone)]
pub struct PdfPair {
    /// RealPlayer's distribution.
    pub real: Pdf,
    /// MediaPlayer's distribution.
    pub wmp: Pdf,
}

/// Figure 6: PDF of packet size for data set 1, low bandwidth.
pub fn fig06_pktsize_pdf(corpus: &CorpusResult) -> PdfPair {
    let run = corpus
        .run(1, RateClass::Low)
        .expect("data set 1 low pair present");
    PdfPair {
        real: Pdf::from_samples(&wire_sizes(run, PlayerId::RealPlayer), 0.0, 1600.0, 80),
        wmp: Pdf::from_samples(&wire_sizes(run, PlayerId::MediaPlayer), 0.0, 1600.0, 80),
    }
}

/// Figure 7: PDF of packet sizes normalised by each clip's mean, all
/// data sets pooled. Sizes are per application datagram (Ethereal's
/// reassembled display length), so the fragmented high-rate
/// MediaPlayer clips still read as constant-size — the view under
/// which the paper's "concentrated around the mean" holds.
pub fn fig07_pktsize_norm_pdf(corpus: &CorpusResult) -> PdfPair {
    let mut real = Vec::new();
    let mut wmp = Vec::new();
    for run in &corpus.runs {
        real.extend(normalize_by_mean(&datagram_sizes(
            run,
            PlayerId::RealPlayer,
        )));
        wmp.extend(normalize_by_mean(&datagram_sizes(
            run,
            PlayerId::MediaPlayer,
        )));
    }
    PdfPair {
        real: Pdf::from_samples(&real, 0.0, 2.0, 40),
        wmp: Pdf::from_samples(&wmp, 0.0, 2.0, 40),
    }
}

/// Figure 8: PDF of raw packet interarrival times (s) for data set 1,
/// low bandwidth.
pub fn fig08_interarrival_pdf(corpus: &CorpusResult) -> PdfPair {
    let run = corpus
        .run(1, RateClass::Low)
        .expect("data set 1 low pair present");
    PdfPair {
        real: Pdf::from_samples(&raw_interarrivals(run, PlayerId::RealPlayer), 0.0, 0.3, 60),
        wmp: Pdf::from_samples(&raw_interarrivals(run, PlayerId::MediaPlayer), 0.0, 0.3, 60),
    }
}

/// A CDF pair (Real, WMP).
#[derive(Debug, Clone)]
pub struct CdfPair {
    /// RealPlayer's distribution.
    pub real: Cdf,
    /// MediaPlayer's distribution.
    pub wmp: Cdf,
}

/// Figure 9: CDF of group-leader interarrival times normalised by each
/// clip's mean, all data sets pooled. For high-rate MediaPlayer clips
/// only the first packet of each fragment group counts (§3.E).
pub fn fig09_interarrival_cdf(corpus: &CorpusResult) -> CdfPair {
    let mut real = Vec::new();
    let mut wmp = Vec::new();
    for run in &corpus.runs {
        real.extend(normalize_by_mean(&leader_interarrivals(
            run,
            PlayerId::RealPlayer,
        )));
        wmp.extend(normalize_by_mean(&leader_interarrivals(
            run,
            PlayerId::MediaPlayer,
        )));
    }
    CdfPair {
        real: Cdf::from_samples(&real),
        wmp: Cdf::from_samples(&wmp),
    }
}

/// Figure 10: bandwidth (Kbit/s, 1-second buckets) vs. time for every
/// clip of data set 1 — the buffering-burst picture.
pub fn fig10_bandwidth_timeseries(corpus: &CorpusResult) -> Vec<Series> {
    let mut series = Vec::new();
    for class in [RateClass::High, RateClass::Low] {
        let Some(run) = corpus.run(1, class) else {
            continue;
        };
        for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
            let groups = stream_groups(run, player);
            let t0 = run.stream_start.as_secs_f64();
            let mut ts = TimeSeries::new(1.0);
            for g in groups.groups() {
                for f in groups.frames(g) {
                    ts.add((f.time - t0).max(0.0), f.len as f64 * 8.0 / 1000.0);
                }
            }
            series.push(Series {
                label: format!(
                    "{} ({:.0}K)",
                    player.label(),
                    log_for(run, player).clip.encoded_kbps
                ),
                points: ts.rates().into_iter().collect(),
            });
        }
    }
    series
}

/// Figure 11: RealPlayer buffering-rate / playout-rate vs. encoding
/// rate, one point per Real clip.
pub fn fig11_buffering_ratio(corpus: &CorpusResult) -> Vec<(f64, f64)> {
    let mut points: Vec<(f64, f64)> = corpus
        .runs
        .iter()
        .filter_map(|run| {
            run.real
                .buffering_ratio()
                .map(|ratio| (run.real.clip.encoded_kbps, ratio))
        })
        .collect();
    points.sort_by(|a, b| a.0.total_cmp(&b.0));
    points
}

/// Figure 12's content: network-layer and application-layer packet
/// receipt times for one MediaPlayer clip.
#[derive(Debug, Clone)]
pub struct Fig12 {
    /// (arrival time s, network-layer datagram sequence).
    pub network: Vec<(f64, u32)>,
    /// (release time s, application-layer packet sequence) — batched.
    pub app: Vec<(f64, u32)>,
}

/// Figure 12: OS-level vs. application-level packet receipt for the
/// data set 5 high MediaPlayer clip, over a 4-second window starting
/// 32 s into the stream.
pub fn fig12_app_vs_net(corpus: &CorpusResult) -> Fig12 {
    let run = corpus
        .run(5, RateClass::High)
        .expect("data set 5 high pair present");
    let t0 = run.stream_start.as_secs_f64();
    let window = 32.0..36.0;
    let network = run
        .wmp
        .net_events
        .iter()
        .map(|e| (e.time_ns as f64 / 1e9 - t0, e.seq))
        .filter(|(t, _)| window.contains(t))
        .collect();
    let mut app = Vec::new();
    let mut app_seq = 0u32;
    for batch in &run.wmp.app_batches {
        let t = batch.time_ns as f64 / 1e9 - t0;
        for _ in &batch.seqs {
            app_seq += 1;
            if window.contains(&t) {
                app.push((t, app_seq));
            }
        }
    }
    Fig12 { network, app }
}

/// Figure 13: frame rate vs. time for every clip of data set 5.
pub fn fig13_framerate_timeseries(corpus: &CorpusResult) -> Vec<Series> {
    let mut series = Vec::new();
    for class in [RateClass::High, RateClass::Low] {
        let Some(run) = corpus.run(5, class) else {
            continue;
        };
        for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
            let log = log_for(run, player);
            series.push(Series {
                label: format!("{} ({:.0}K)", player.label(), log.clip.encoded_kbps),
                points: log
                    .per_second
                    .iter()
                    .map(|s| (s.t_sec as f64, f64::from(s.frames_played)))
                    .collect(),
            });
        }
    }
    series
}

/// Figures 14/15 content: per-clip scatter plus per-(player, class)
/// mean ± standard error.
#[derive(Debug, Clone)]
pub struct FrameRateFigure {
    /// Per-Real-clip (x, avg fps).
    pub real_points: Vec<(f64, f64)>,
    /// Per-WMP-clip (x, avg fps).
    pub wmp_points: Vec<(f64, f64)>,
    /// Per-class (mean x, fps summary) for Real, ordered low→very high.
    pub real_classes: Vec<(f64, Summary)>,
    /// Per-class (mean x, fps summary) for WMP.
    pub wmp_classes: Vec<(f64, Summary)>,
}

fn framerate_figure(
    corpus: &CorpusResult,
    x_of: impl Fn(&PairRunResult, PlayerId) -> f64,
) -> FrameRateFigure {
    let mut real_points = Vec::new();
    let mut wmp_points = Vec::new();
    for run in &corpus.runs {
        real_points.push((x_of(run, PlayerId::RealPlayer), run.real.avg_frame_rate()));
        wmp_points.push((x_of(run, PlayerId::MediaPlayer), run.wmp.avg_frame_rate()));
    }
    let classes = |player: PlayerId| -> Vec<(f64, Summary)> {
        [RateClass::Low, RateClass::High, RateClass::VeryHigh]
            .into_iter()
            .filter_map(|class| {
                let (xs, fps): (Vec<f64>, Vec<f64>) = corpus
                    .runs
                    .iter()
                    .filter(|r| r.class == class)
                    .map(|r| (x_of(r, player), log_for(r, player).avg_frame_rate()))
                    .unzip();
                let summary = Summary::of(&fps)?;
                let mean_x = xs.iter().sum::<f64>() / xs.len() as f64;
                Some((mean_x, summary))
            })
            .collect()
    };
    FrameRateFigure {
        real_points,
        wmp_points,
        real_classes: classes(PlayerId::RealPlayer),
        wmp_classes: classes(PlayerId::MediaPlayer),
    }
}

/// Figure 14: frame rate vs. average encoding rate.
pub fn fig14_framerate_vs_encoding(corpus: &CorpusResult) -> FrameRateFigure {
    framerate_figure(corpus, |run, player| log_for(run, player).clip.encoded_kbps)
}

/// Figure 15: frame rate vs. average playout bandwidth.
pub fn fig15_framerate_vs_bandwidth(corpus: &CorpusResult) -> FrameRateFigure {
    framerate_figure(corpus, |run, player| {
        log_for(run, player).avg_playback_kbps()
    })
}

/// Section IV: fit turbulence models from the data set 1 captures,
/// generate synthetic flows, and validate them against the fitted
/// distributions. Returns one (label, report) per fitted stream.
pub fn sec4_flowgen_validation(
    corpus: &CorpusResult,
    seed: u64,
) -> Vec<(String, turb_flowgen::ValidationReport)> {
    let mut out = Vec::new();
    for class in [RateClass::Low, RateClass::High] {
        let Some(run) = corpus.run(1, class) else {
            continue;
        };
        for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
            let log = log_for(run, player);
            let Some(model) = turb_flowgen::TurbulenceModel::fit(
                &run.capture,
                run.server_addr,
                player,
                log.clip.encoded_kbps,
            ) else {
                continue;
            };
            let mut generator = turb_flowgen::FlowGenerator::new(
                model.clone(),
                SimRng::new(seed).fork(out.len() as u64),
            );
            let packets = generator.generate(log.clip.duration_secs);
            let report = turb_flowgen::validate_against_model(&model, &packets);
            out.push((log.clip.name(), report));
        }
    }
    out
}

/// A stable digest of the figure data derived from a corpus — two
/// corpora with equal digests plotted the same paper. Restricted to
/// the figures that accept a partial corpus, so `--quick` and
/// single-set runs work too. Debug formatting is exact for f64, so
/// equal digests mean byte-identical figure data.
pub fn digest(corpus: &CorpusResult) -> String {
    format!(
        "{:?}|{:?}|{:?}|{:?}",
        fig01_rtt_cdf(corpus),
        fig02_hops_cdf(corpus),
        fig05_fragmentation(corpus),
        fig11_buffering_ratio(corpus),
    )
}

/// [`digest`] extended with Figures 3 and 14, which need more runs
/// than a single data set has (Figure 3's polynomial fits). Together
/// that is Figures 1, 2, 3, 5, 11 and 14, not every figure;
/// `tests/figures_golden.rs` pins all fifteen.
pub fn full_digest(corpus: &CorpusResult) -> String {
    format!(
        "{}|{:?}|{:?}",
        digest(corpus),
        fig03_playback_vs_encoding(corpus),
        fig14_framerate_vs_encoding(corpus),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{corpus_configs_for_sets, run_configs};
    use std::sync::OnceLock;

    /// Sets 1 and 5 cover every figure's specific-run requirement
    /// (set 1 low for Figures 6/8/10, set 5 high for Figures 4/12/13);
    /// computed once and shared across the tests in this module.
    fn mini_corpus() -> &'static CorpusResult {
        static CORPUS: OnceLock<CorpusResult> = OnceLock::new();
        CORPUS.get_or_init(|| run_configs(&corpus_configs_for_sets(7, &[1, 5])))
    }

    #[test]
    fn fig01_rtt_cdf_has_calibrated_shape() {
        let cdf = fig01_rtt_cdf(mini_corpus());
        assert!(cdf.len() >= 16); // 4 runs × (before+after) × 4 probes... 2 sets only
        let median = cdf.median().unwrap();
        assert!((15.0..=170.0).contains(&median), "median = {median}");
        assert!(cdf.max().unwrap() <= 200.0);
    }

    #[test]
    fn fig02_hop_cdf_within_range() {
        let cdf = fig02_hops_cdf(mini_corpus());
        assert!(cdf.min().unwrap() >= 10.0);
        assert!(cdf.max().unwrap() <= 30.0);
    }

    #[test]
    fn fig03_real_above_diagonal_wmp_on_it() {
        let fig = fig03_playback_vs_encoding(mini_corpus());
        for (x, y) in &fig.real_points {
            assert!(y > x, "Real point ({x}, {y}) not above y=x");
        }
        for (x, y) in &fig.wmp_points {
            assert!(
                (y - x).abs() / x < 0.05,
                "WMP point ({x}, {y}) off the diagonal"
            );
        }
    }

    #[test]
    fn fig04_wmp_shows_fragment_groups_real_a_staircase() {
        let series = fig04_packet_arrivals(mini_corpus());
        assert_eq!(series.len(), 2);
        let wmp = series.iter().find(|s| s.label.starts_with("WMP")).unwrap();
        // 250.4 Kbit/s WMP: ~10 groups of 3 packets in the window.
        assert!(
            (20..=40).contains(&wmp.points.len()),
            "{}",
            wmp.points.len()
        );
        // Grouped arrivals: within each fragment group the gaps are
        // sub-5-ms, so at least a third of consecutive gaps are tiny.
        let tiny_gaps = wmp
            .points
            .windows(2)
            .filter(|w| w[1].0 - w[0].0 < 0.005)
            .count();
        assert!(
            tiny_gaps * 3 >= wmp.points.len(),
            "{tiny_gaps} tiny gaps of {}",
            wmp.points.len()
        );
    }

    #[test]
    fn fig05_fragmentation_shape() {
        let points = fig05_fragmentation(mini_corpus());
        for (kbps, frac) in &points {
            if *kbps < 110.0 {
                assert_eq!(*frac, 0.0, "no fragmentation below ~110 Kbps");
            }
            if (240.0..340.0).contains(kbps) {
                assert!((0.6..0.7).contains(frac), "≈66 % at {kbps}: {frac}");
            }
        }
    }

    #[test]
    fn fig06_wmp_peaked_800_to_1000_real_spread() {
        let pair = fig06_pktsize_pdf(mini_corpus());
        // WMP (49.8 K): ≥80 % of packets between 800 and 1000 bytes.
        assert!(
            pair.wmp.mass_within(800.0, 1000.0) > 0.8,
            "wmp mass = {}",
            pair.wmp.mass_within(800.0, 1000.0)
        );
        // Real (36 K): support spans several hundred bytes.
        let (lo, hi) = pair.real.support_above(0.005).unwrap();
        assert!(hi - lo > 300.0, "real support = [{lo}, {hi}]");
    }

    #[test]
    fn fig07_normalized_sizes() {
        let pair = fig07_pktsize_norm_pdf(mini_corpus());
        // WMP concentrated at 1.
        assert!(pair.wmp.mass_within(0.85, 1.15) > 0.6);
        // Real spread over ≈0.6-1.8.
        let (lo, hi) = pair.real.support_above(0.005).unwrap();
        assert!(lo < 0.75 && hi > 1.5, "real support = [{lo}, {hi}]");
    }

    #[test]
    fn fig08_interarrival_pdfs() {
        let pair = fig08_interarrival_pdf(mini_corpus());
        // WMP's mode near its ~141 ms tick.
        let mode = pair.wmp.mode();
        assert!((0.12..0.16).contains(&mode), "wmp mode = {mode}");
        // Real's gaps spread.
        let (lo, hi) = pair.real.support_above(0.004).unwrap();
        assert!(hi - lo > 0.05, "real gap support = [{lo}, {hi}]");
    }

    #[test]
    fn fig09_wmp_step_at_one_real_gradual() {
        let pair = fig09_interarrival_cdf(mini_corpus());
        // WMP: ≥80 % of normalised gaps within [0.9, 1.1].
        let wmp_step = pair.wmp.eval(1.1) - pair.wmp.eval(0.9);
        assert!(wmp_step > 0.8, "wmp step = {wmp_step}");
        // Real: gradual — the same window holds well under half.
        let real_step = pair.real.eval(1.1) - pair.real.eval(0.9);
        assert!(real_step < 0.6, "real step = {real_step}");
    }

    #[test]
    fn fig10_real_bursts_then_settles_wmp_flat() {
        let series = fig10_bandwidth_timeseries(mini_corpus());
        assert_eq!(series.len(), 4);
        let real_low = series
            .iter()
            .find(|s| s.label.starts_with("Real (36"))
            .unwrap();
        // Burst window rate vs steady rate.
        let rate_between = |s: &Series, a: f64, b: f64| -> f64 {
            let window: Vec<f64> = s
                .points
                .iter()
                .filter(|(t, _)| (a..b).contains(t))
                .map(|(_, v)| *v)
                .collect();
            window.iter().sum::<f64>() / window.len().max(1) as f64
        };
        let burst = rate_between(real_low, 2.0, 14.0);
        let steady = rate_between(real_low, 40.0, 120.0);
        assert!(burst > steady * 2.0, "burst {burst} vs steady {steady}");
        // WMP high stays flat throughout.
        let wmp_high = series
            .iter()
            .find(|s| s.label.starts_with("WMP (323"))
            .unwrap();
        let early = rate_between(wmp_high, 2.0, 20.0);
        let late = rate_between(wmp_high, 100.0, 200.0);
        assert!(
            (early - late).abs() / late < 0.1,
            "early {early} late {late}"
        );
    }

    #[test]
    fn fig11_ratio_declines_with_rate() {
        let points = fig11_buffering_ratio(mini_corpus());
        assert!(points.len() >= 3);
        let low = points.first().unwrap();
        let high = points.last().unwrap();
        assert!(low.0 < high.0);
        assert!(low.1 > high.1, "ratio should fall with rate: {points:?}");
        assert!(low.1 > 2.3, "low-rate ratio = {}", low.1);
    }

    #[test]
    fn fig12_app_batches_of_ten_once_per_second() {
        let fig = fig12_app_vs_net(mini_corpus());
        // 4-second window, 250.4 Kbit/s: ~40 network datagrams.
        assert!(
            (30..=50).contains(&fig.network.len()),
            "{}",
            fig.network.len()
        );
        assert!(!fig.app.is_empty());
        // App releases cluster into ≈4 distinct instants.
        let mut times: Vec<f64> = fig.app.iter().map(|(t, _)| *t).collect();
        times.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
        assert!(
            (3..=5).contains(&times.len()),
            "{} release instants",
            times.len()
        );
    }

    #[test]
    fn fig13_framerates_match_section_3h() {
        let series = fig13_framerate_timeseries(mini_corpus());
        assert_eq!(series.len(), 4);
        let steady_mean = |s: &Series| -> f64 {
            let vals: Vec<f64> = s
                .points
                .iter()
                .filter(|(t, v)| (20.0..80.0).contains(t) && *v > 0.0)
                .map(|(_, v)| *v)
                .collect();
            vals.iter().sum::<f64>() / vals.len().max(1) as f64
        };
        let wmp_low = series
            .iter()
            .find(|s| s.label.starts_with("WMP (39"))
            .unwrap();
        let real_low = series
            .iter()
            .find(|s| s.label.starts_with("Real (22"))
            .unwrap();
        let wmp_high = series
            .iter()
            .find(|s| s.label.starts_with("WMP (250"))
            .unwrap();
        let real_high = series
            .iter()
            .find(|s| s.label.starts_with("Real (218"))
            .unwrap();
        assert!(
            (12.0..14.5).contains(&steady_mean(wmp_low)),
            "{}",
            steady_mean(wmp_low)
        );
        assert!(steady_mean(real_low) > steady_mean(wmp_low) + 3.0);
        assert!((24.0..26.0).contains(&steady_mean(wmp_high)));
        assert!((24.0..26.0).contains(&steady_mean(real_high)));
    }

    #[test]
    fn fig14_fig15_real_never_below_wmp_per_class() {
        for fig in [
            fig14_framerate_vs_encoding(mini_corpus()),
            fig15_framerate_vs_bandwidth(mini_corpus()),
        ] {
            for ((_, real), (_, wmp)) in fig.real_classes.iter().zip(&fig.wmp_classes) {
                assert!(real.mean + 0.5 >= wmp.mean, "{} < {}", real.mean, wmp.mean);
            }
            // Low class: Real clearly ahead.
            let real_low = fig.real_classes.first().unwrap().1.mean;
            let wmp_low = fig.wmp_classes.first().unwrap().1.mean;
            assert!(real_low > wmp_low + 3.0, "{real_low} vs {wmp_low}");
        }
    }

    #[test]
    fn sec4_generated_flows_validate() {
        let reports = sec4_flowgen_validation(mini_corpus(), 5);
        assert_eq!(reports.len(), 4, "both players, both set-1 classes");
        for (label, report) in &reports {
            assert!(
                report.passes(0.1),
                "{label}: sizes K-S {} gaps K-S {}",
                report.ks_sizes,
                report.ks_gaps
            );
        }
    }
}
