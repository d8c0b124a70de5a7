//! The paper's data as text: Table 1, Figures 1–15 and the §IV
//! flow-generation validation, each one headed block computed from a
//! corpus result, then the ablations, which run their own fixed-seed
//! scenarios. `turbulence figures` prints every block, or with `--sets`
//! the subset any choice of data sets supports, through the same
//! renderers.
//! EXPERIMENTS.md records these blocks at seed 42, and
//! `crates/cli/tests/experiments_doc.rs` checks that it does.

use crate::ablations;
use std::fmt::Write as _;
use turbulence::{figures, report, tables, CorpusResult};

/// One printed block: a heading that states the paper's claim, and the
/// renderer for the measured rows. Renderers take the corpus and its
/// base seed; only §IV, which draws synthetic flows, reads the seed.
pub struct Block {
    heading: &'static str,
    render: fn(&CorpusResult, u64) -> String,
}

/// Render `blocks` as `===== heading =====` sections.
pub fn render(blocks: &[Block], corpus: &CorpusResult, seed: u64) -> String {
    let mut out = String::new();
    for block in blocks {
        let _ = writeln!(
            out,
            "\n===== {} =====\n{}",
            block.heading,
            (block.render)(corpus, seed)
        );
    }
    out
}

/// Every block, in paper order.
pub const ALL: [Block; 17] = [
    TABLE1, FIG01, FIG02, FIG03, FIG04, FIG05, FIG06, FIG07, FIG08, FIG09, FIG10, FIG11, FIG12,
    FIG13, FIG14, FIG15, SEC4,
];

/// The blocks any subset of data sets supports: none needs a
/// particular clip.
pub const SUBSET: [Block; 5] = [TABLE1, FIG01, FIG02, FIG05, FIG11];

const TABLE1: Block = Block {
    heading: "Table 1: experiment data sets (configured vs measured)",
    render: |c, _| table1(c),
};

const FIG01: Block = Block {
    heading: "Figure 1: CDF of RTT (paper: median 40 ms, max 160 ms)",
    render: |c, _| report::cdf_quantiles("", &figures::fig01_rtt_cdf(c), "ms"),
};

const FIG02: Block = Block {
    heading: "Figure 2: CDF of hop count (paper: most sites 15-20, range 10-30)",
    render: |c, _| report::cdf_quantiles("", &figures::fig02_hops_cdf(c), "hops"),
};

const FIG03: Block = Block {
    heading: "Figure 3: avg playback vs encoding rate (paper: Real above y=x, WMP on it)",
    render: |c, _| fig03(c),
};

const FIG04: Block = Block {
    heading: "Figure 4: packet arrivals vs time, set 5 high, 30-31 s (paper: WMP fragment trains, Real staircase)",
    render: |c, _| report::series_digest("", &figures::fig04_packet_arrivals(c), 12),
};

const FIG05: Block = Block {
    heading: "Figure 5: WMP fragmentation vs encoded rate (paper: 0% <100K, 66% @300K, ~80% @731K)",
    render: |c, _| {
        report::scatter(
            "",
            "encoded Kbps",
            "fragment fraction",
            &figures::fig05_fragmentation(c),
        )
    },
};

const FIG06: Block = Block {
    heading: "Figure 6: packet-size PDF, set 1 low (paper: WMP 80% within 800-1000B, Real spread)",
    render: |c, _| {
        let pair = figures::fig06_pktsize_pdf(c);
        format!(
            "{}  WMP mass within 800-1000 B: {:.2}\n",
            pdf_digest(&pair),
            pair.wmp.mass_within(800.0, 1000.0)
        )
    },
};

const FIG07: Block = Block {
    heading: "Figure 7: normalised size PDF, all sets (paper: WMP at 1, Real 0.6-1.8)",
    render: |c, _| pdf_digest(&figures::fig07_pktsize_norm_pdf(c)),
};

const FIG08: Block = Block {
    heading: "Figure 8: interarrival PDF, set 1 low (paper: WMP constant, Real wide)",
    render: |c, _| pdf_digest(&figures::fig08_interarrival_pdf(c)),
};

const FIG09: Block = Block {
    heading: "Figure 9: normalised interarrival CDF (paper: WMP step at 1, Real gradual over 0-3)",
    render: |c, _| fig09(c),
};

const FIG10: Block = Block {
    heading: "Figure 10: bandwidth vs time, set 1 (paper: Real bursts then settles and ends early; WMP flat)",
    render: |c, _| report::series_digest("", &figures::fig10_bandwidth_timeseries(c), 8),
};

const FIG11: Block = Block {
    heading: "Figure 11: Real buffering/playout ratio vs encoding rate (paper: ~3 at <56K falling to ~1 at 637K)",
    render: |c, _| report::scatter("", "encoded Kbps", "ratio", &figures::fig11_buffering_ratio(c)),
};

const FIG12: Block = Block {
    heading: "Figure 12: network vs app receipt, set 5 high WMP (paper: OS every 100 ms, app batches of ~10 per second)",
    render: |c, _| fig12(c),
};

const FIG13: Block = Block {
    heading: "Figure 13: frame rate vs time, set 5 (paper: high pairs 25 fps; WMP 39K at 13 fps; Real 22K higher)",
    render: |c, _| report::series_digest("", &figures::fig13_framerate_timeseries(c), 6),
};

const FIG14: Block = Block {
    heading:
        "Figure 14: frame rate vs encoding rate (paper: WMP below Real at low rates, equal at high)",
    render: |c, _| framerate_digest(&figures::fig14_framerate_vs_encoding(c)),
};

const FIG15: Block = Block {
    heading:
        "Figure 15: frame rate vs playout bandwidth (paper: Real higher fps for the same bandwidth)",
    render: |c, _| framerate_digest(&figures::fig15_framerate_vs_bandwidth(c)),
};

const SEC4: Block = Block {
    heading: "Section IV: synthetic flow generation validated against fitted distributions",
    render: sec4,
};

/// The ablations, in the order `figures` prints them after §IV. Each
/// ignores the corpus and the seed.
pub const ABLATIONS: [Block; 6] = [
    Block {
        heading: "Ablation: access loss vs delivered goodput (set 2 high)",
        render: |_, _| ablations::loss_vs_goodput(),
    },
    Block {
        heading: "Ablation: bottleneck vs RealServer buffering ratio (637 Kbit/s clip)",
        render: |_, _| ablations::bottleneck_vs_beta(),
    },
    Block {
        heading: "Ablation: link jitter vs interarrival spread (CBR source)",
        render: |_, _| ablations::jitter_vs_interarrival_spread(),
    },
    Block {
        heading: "Ablation: RED vs drop-tail (greedy TCP vs 600 Kbit/s firehose, 1 Mbit/s link)",
        render: |_, _| ablations::red_vs_droptail(),
    },
    Block {
        heading: "Ablation: interleaving vs app-layer burstiness (set 5 high WMP)",
        render: |_, _| ablations::interleaving_burstiness(),
    },
    Block {
        heading: "Ablation: independent vs bursty loss on fragmented WMP (set 2 high)",
        render: |_, _| ablations::burst_loss_vs_fragmentation(),
    },
];

fn table1(corpus: &CorpusResult) -> String {
    let rows: Vec<Vec<String>> = tables::table1_measured(corpus)
        .iter()
        .map(|r| {
            vec![
                r.set.to_string(),
                r.label.clone(),
                format!("{:.1}/{:.1}", r.real_encoded, r.wmp_encoded),
                match (r.real_measured, r.wmp_measured) {
                    (Some(a), Some(b)) => format!("{a:.1}/{b:.1}"),
                    _ => "-".into(),
                },
                r.content.to_string(),
                format!("{:.0}s", r.duration_secs),
            ]
        })
        .collect();
    report::table(
        "",
        &[
            "set",
            "pair",
            "encoded R/M (Kbps)",
            "measured R/M (Kbps)",
            "content",
            "len",
        ],
        &rows,
    )
}

fn fig03(corpus: &CorpusResult) -> String {
    let fig = figures::fig03_playback_vs_encoding(corpus);
    let mut out = report::scatter("RealPlayer", "encoded", "playback", &fig.real_points);
    out.push_str(&report::scatter(
        "MediaPlayer",
        "encoded",
        "playback",
        &fig.wmp_points,
    ));
    let _ = writeln!(
        out,
        "Real trend:  {:?}\nWMP trend:   {:?}",
        fig.real_fit.coeffs, fig.wmp_fit.coeffs
    );
    for x in [50.0, 150.0, 300.0, 600.0] {
        let _ = writeln!(
            out,
            "  at {x:>5.0} Kbps: Real fit {:.1}, WMP fit {:.1} (y=x: {x:.1})",
            fig.real_fit.eval(x),
            fig.wmp_fit.eval(x)
        );
    }
    out
}

fn pdf_digest(pair: &figures::PdfPair) -> String {
    let mut out = String::new();
    for (label, pdf) in [("Real", &pair.real), ("WMP ", &pair.wmp)] {
        let _ = writeln!(
            out,
            "  {label}: mode {:.3}, support>{:.3} = {:?}",
            pdf.mode(),
            0.004,
            pdf.support_above(0.004)
        );
    }
    out
}

fn fig09(corpus: &CorpusResult) -> String {
    let pair = figures::fig09_interarrival_cdf(corpus);
    let mut out = report::cdf_quantiles("Real", &pair.real, "x mean");
    out.push_str(&report::cdf_quantiles("WMP", &pair.wmp, "x mean"));
    let _ = writeln!(
        out,
        "WMP mass within [0.9,1.1]: {:.2}; Real: {:.2}",
        pair.wmp.eval(1.1) - pair.wmp.eval(0.9),
        pair.real.eval(1.1) - pair.real.eval(0.9),
    );
    out
}

fn fig12(corpus: &CorpusResult) -> String {
    let fig = figures::fig12_app_vs_net(corpus);
    let mut releases: Vec<f64> = fig.app.iter().map(|(t, _)| *t).collect();
    releases.dedup_by(|a, b| (*a - *b).abs() < 1e-9);
    format!(
        "  network events in window: {}\n  app deliveries in window: {} across {} release instants\n",
        fig.network.len(),
        fig.app.len(),
        releases.len()
    )
}

fn framerate_digest(fig: &figures::FrameRateFigure) -> String {
    let table = |classes: &[(f64, turb_stats::Summary)], label: &str| {
        let rows: Vec<Vec<String>> = classes
            .iter()
            .map(|(x, s)| {
                vec![
                    format!("{x:.1}"),
                    format!("{:.1}", s.mean),
                    format!("±{:.2}", s.std_err),
                ]
            })
            .collect();
        report::table(label, &["x", "fps", "stderr"], &rows)
    };
    let mut out = table(&fig.real_classes, "RealPlayer (low/high/very-high)");
    out.push_str(&table(&fig.wmp_classes, "MediaPlayer (low/high/very-high)"));
    out
}

fn sec4(corpus: &CorpusResult, seed: u64) -> String {
    let rows: Vec<Vec<String>> = figures::sec4_flowgen_validation(corpus, seed)
        .iter()
        .map(|(label, r)| {
            vec![
                label.clone(),
                format!("{:.3}", r.ks_sizes),
                format!("{:.3}", r.ks_gaps),
                format!("{:.4}", r.q_err_sizes),
                format!("{:.4}", r.q_err_gaps),
                format!("{:.2}", r.measured_ratio),
                r.passes(0.1).to_string(),
            ]
        })
        .collect();
    report::table(
        "",
        &[
            "clip",
            "KS sizes",
            "KS gaps",
            "qerr sizes",
            "qerr gaps",
            "ratio",
            "pass",
        ],
        &rows,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use turbulence::runner;

    #[test]
    fn figures_output_has_every_table_figure_and_section() {
        // Sets 1 and 5 carry every single-clip figure (set 1 low for
        // Figures 6, 8 and 10; set 5 high for 4, 12 and 13).
        let seed = 42;
        let configs = runner::corpus_configs_for_sets(seed, &[1, 5]);
        let corpus = runner::run_configs_parallel(&configs, 0);
        let out = render(&ALL, &corpus, seed);
        assert!(out.contains("===== Table 1: "), "Table 1 missing");
        for n in 1..=15 {
            assert!(
                out.contains(&format!("===== Figure {n}: ")),
                "Figure {n} missing"
            );
        }
        assert!(out.contains("===== Section IV: "), "Section IV missing");
    }
}
