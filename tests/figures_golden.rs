//! Pins the data of all fifteen figures. `figures::full_digest`
//! (pinned by `benchmark/golden.txt`) covers only Figures 1, 2, 3, 5,
//! 11 and 14; this file hashes the Debug rendering of every `figNN`
//! on data sets 1 and 5 — the smallest corpus every figure accepts —
//! at two seeds. Debug formatting is exact for f64, so an equal hash
//! means byte-identical figure data.

use turb_media::PlayerId;
use turbulence::analysis::stream_groups;
use turbulence::figures::*;
use turbulence::runner::{corpus_configs_for_sets, run_configs, CorpusResult};
use turbulence::scale::fnv1a;

/// FNV-1a of the fifteen figures' Debug strings joined by newlines.
fn figures_hash(c: &CorpusResult) -> u64 {
    let figures = [
        format!("{:?}", fig01_rtt_cdf(c)),
        format!("{:?}", fig02_hops_cdf(c)),
        format!("{:?}", fig03_playback_vs_encoding(c)),
        format!("{:?}", fig04_packet_arrivals(c)),
        format!("{:?}", fig05_fragmentation(c)),
        format!("{:?}", fig06_pktsize_pdf(c)),
        format!("{:?}", fig07_pktsize_norm_pdf(c)),
        format!("{:?}", fig08_interarrival_pdf(c)),
        format!("{:?}", fig09_interarrival_cdf(c)),
        format!("{:?}", fig10_bandwidth_timeseries(c)),
        format!("{:?}", fig11_buffering_ratio(c)),
        format!("{:?}", fig12_app_vs_net(c)),
        format!("{:?}", fig13_framerate_timeseries(c)),
        format!("{:?}", fig14_framerate_vs_encoding(c)),
        format!("{:?}", fig15_framerate_vs_bandwidth(c)),
    ];
    fnv1a(figures.join("\n").as_bytes())
}

fn assert_pinned(seed: u64, expected: u64) {
    let corpus = run_configs(&corpus_configs_for_sets(seed, &[1, 5]));
    let got = figures_hash(&corpus);
    assert_eq!(
        got, expected,
        "figure data changed at seed {seed}: {got:016x}, pinned {expected:016x}"
    );
}

#[test]
fn every_figure_is_pinned_at_seed_7() {
    assert_pinned(7, 0x0419_a4ef_43fa_85a9);
}

#[test]
fn every_figure_is_pinned_at_seed_42() {
    assert_pinned(42, 0x7fbd_559f_9569_cf91);
}

/// A run's capture is grouped once: every later `stream_groups` call,
/// for either player, borrows the groups the first call built.
#[test]
fn stream_groups_are_built_once_per_run() {
    let corpus = run_configs(&corpus_configs_for_sets(42, &[2]));
    for run in &corpus.runs {
        for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
            let first = stream_groups(run, player);
            assert!(!first.groups().is_empty());
            assert!(std::ptr::eq(first, stream_groups(run, player)));
        }
    }
}
