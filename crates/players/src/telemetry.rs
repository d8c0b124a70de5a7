//! Harvesting player-side telemetry into the `turb-obs` types.
//!
//! Everything here is a pure read of logs the trackers keep anyway;
//! nothing is recorded during the simulation, so telemetry cannot
//! perturb playback behaviour.

use crate::stats::AppStatsLog;
use turb_obs::{MetricsRegistry, PlayerReport};

/// Summarise a tracker log as a [`PlayerReport`].
pub fn player_report(component: &str, log: &AppStatsLog) -> PlayerReport {
    PlayerReport {
        component: component.to_string(),
        buffer_underruns: u64::from(log.buffer_underruns),
        batch_flushes: log.app_batches.len() as u64,
        packets_received: log.net_events.len() as u64,
    }
}

/// Harvest a tracker log's counters into `registry` under `component`.
pub fn collect_metrics(component: &str, log: &AppStatsLog, registry: &mut MetricsRegistry) {
    registry.counter_add(
        "player_packets_received_total",
        component,
        log.net_events.len() as u64,
    );
    registry.counter_add(
        "player_packets_lost_total",
        component,
        u64::from(log.packets_lost),
    );
    registry.counter_add("player_bytes_total", component, log.bytes_total);
    registry.counter_add(
        "player_buffer_underruns_total",
        component,
        u64::from(log.buffer_underruns),
    );
    registry.counter_add(
        "player_batch_flushes_total",
        component,
        log.app_batches.len() as u64,
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::AppBatch;
    use turb_media::corpus;

    fn log() -> AppStatsLog {
        AppStatsLog::new(corpus::all_clips().remove(0))
    }

    #[test]
    fn report_mirrors_the_log() {
        let mut l = log();
        l.buffer_underruns = 3;
        l.app_batches.push(AppBatch {
            time_ns: 0,
            seqs: vec![1, 2],
        });
        let report = player_report("player:wmp", &l);
        assert_eq!(report.buffer_underruns, 3);
        assert_eq!(report.batch_flushes, 1);
    }

    #[test]
    fn metrics_harvest_counts_everything() {
        let mut l = log();
        l.packets_lost = 2;
        l.bytes_total = 999;
        let mut reg = MetricsRegistry::new();
        collect_metrics("player:real", &l, &mut reg);
        assert_eq!(reg.counter("player_packets_lost_total", "player:real"), 2);
        assert_eq!(reg.counter("player_bytes_total", "player:real"), 999);
    }
}
