//! Quickstart: run one of the paper's experiments end to end.
//!
//! Streams the RealPlayer and MediaPlayer encodings of data set 5
//! (the 1:47 news clip, high rate) simultaneously over a simulated
//! Internet path — ping/tracert before and after, Ethereal-style
//! capture at the client — then prints what each tracker measured.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use turb_media::{corpus, RateClass};
use turbulence::{run_pair, PairRunConfig};

fn main() {
    let sets = corpus::table1();
    let pair = sets[4].pair(RateClass::High).unwrap().clone();
    println!(
        "Streaming {} ({} Kbit/s) and {} ({} Kbit/s) simultaneously...",
        pair.real.name(),
        pair.real.encoded_kbps,
        pair.wmp.name(),
        pair.wmp.encoded_kbps
    );

    let result = run_pair(&PairRunConfig::new(42, 5, pair));

    println!("\n-- network conditions (§3.A) --");
    println!(
        "ping: median {:.1} ms, max {:.1} ms, loss {:.1}%",
        result
            .ping_before
            .median_rtt()
            .map(|r| r.as_millis_f64())
            .unwrap_or(f64::NAN),
        result
            .ping_before
            .max_rtt()
            .map(|r| r.as_millis_f64())
            .unwrap_or(f64::NAN),
        result.ping_before.loss_rate() * 100.0
    );
    println!(
        "tracert: {} hops to {}; route stable across the run: {}",
        result
            .tracert_before
            .hop_count()
            .map(|h| h.to_string())
            .unwrap_or_else(|| "?".into()),
        result.server_addr,
        result.route_stable()
    );

    println!("\n-- what the trackers recorded (§2.B) --");
    for log in [&result.real, &result.wmp] {
        println!(
            "{:>7}: encoded {:.1} Kbit/s | avg playback {:.1} Kbit/s | avg {:.1} fps | \
             streamed {:.1}s of a {:.0}s clip | {} datagrams, {} lost",
            log.clip.name(),
            log.clip.encoded_kbps,
            log.avg_playback_kbps(),
            log.avg_frame_rate(),
            log.streaming_duration_secs().unwrap_or(f64::NAN),
            log.clip.duration_secs,
            log.net_events.len(),
            log.packets_lost,
        );
    }

    println!("\n-- what the sniffer saw (§3.C-§3.E) --");
    use turb_capture::{Filter, FragmentGroups};
    let stream = Filter::stream_from(result.server_addr);
    let records = result.capture.filtered(&stream);
    let players = [
        turb_media::PlayerId::RealPlayer,
        turb_media::PlayerId::MediaPlayer,
    ];
    for (player, groups) in players
        .into_iter()
        .zip(FragmentGroups::build(records).into_players())
    {
        let stats = groups.stats();
        println!(
            "{:>7}: {} wire packets in {} datagrams, {:.0}% IP fragments",
            player.label(),
            stats.total_packets,
            stats.groups,
            stats.fragment_fraction() * 100.0
        );
    }
    println!(
        "\ncapture: {} packets total (both directions, ICMP included)",
        result.capture.len()
    );
}
