//! What the benchmark promises: its workloads and metrics (which must
//! match `BENCHMARK.json`, compiled in), the golden digests of
//! `golden.txt`, and the host fingerprint stamped on every result.

use crate::json::{quote, Json};
use turbulence::scale::fnv1a;

/// The benchmark's contract file, compiled in so every result can be
/// tied to the exact metric set and bounds it was measured under.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// Golden digests per (workload, seed).
const GOLDEN_TXT: &str = include_str!("../golden.txt");

/// Workloads in round-robin order.
pub const WORKLOADS: [&str; 5] = [
    "paper_corpus",
    "corpus_lossy_observed",
    "fleet_sessions",
    "fleet_sharded",
    "fleet_hybrid",
];

/// End-to-end metrics: measured untraced, one value per child run.
pub const END_TO_END: [(&str, &str); 3] =
    [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MiB")];

/// Per-layer metrics: measured by one traced child per workload. Every
/// workload reports every metric; a count of 0 means the workload never
/// reaches that layer, and the two `*_tax` ratios are 0 except on the
/// workload that carries the observer they price.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("runner.pair_run_s", "s"),
    ("runner.pair_run_max_s", "s"),
    ("figures.render_s", "s"),
    ("population.generate_s", "s"),
    ("flowgen.lower_s", "s"),
    ("fluid.plan_s", "s"),
    ("fluid.recomputes", "count"),
    ("fluid.updates", "count"),
    ("sim.engine_s", "s"),
    ("sim.events", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.fastpath_share", "ratio"),
    ("sim.queue_high_water", "count"),
    ("wheel.hold_ns", "ns/op"),
    ("wheel.heap_hold_ns", "ns/op"),
    ("wheel.cascades", "count"),
    ("wheel.overflow_events", "count"),
    ("shard.speedup", "ratio"),
    ("shard.barriers", "count"),
    ("shard.transits", "count"),
    ("shard.max_batch", "count"),
    ("shard.event_imbalance", "ratio"),
    ("link.tx_packets", "count"),
    ("link.drops_fault", "count"),
    ("link.drops_queue", "count"),
    ("reassembly.reassembled", "count"),
    ("reassembly.timed_out", "count"),
    ("wire.checksum_ns", "ns/op"),
    ("wire.ipv4_encode_ns", "ns/op"),
    ("wire.ipv4_decode_ns", "ns/op"),
    ("wire.view_ns", "ns/op"),
    ("wire.fragment_ns", "ns/op"),
    ("wire.reassemble_ns", "ns/op"),
    ("capture.records", "count"),
    ("capture.bytes_held", "MiB"),
    ("capture.fraggroups_ns", "ns/record"),
    ("capture.filter_ns", "ns/record"),
    ("obs.session_tax", "ratio"),
    ("obs.session_bytes", "B/session"),
    ("obs.lineage_tax", "ratio"),
    ("obs.lineage_events", "count"),
    ("obs.lineage_evicted", "count"),
    ("obs.series_windows", "count"),
    ("process.cpu_s", "s"),
    ("process.cpu_util", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_s", "s"),
];

/// The per-layer metric the parent computes (traced wall minus the
/// untraced median); children report every other one.
pub const TRACE_OVERHEAD: &str = "trace.overhead_s";

/// Unit of a metric in either table.
pub fn unit_of(name: &str) -> &'static str {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map_or("", |(_, u)| u)
}

/// Golden digest of `workload` at `seed`, if one is recorded.
pub fn golden(workload: &str, seed: u64) -> Option<u64> {
    parse_golden(GOLDEN_TXT)
        .into_iter()
        .find(|(w, s, _)| w == workload && *s == seed)
        .map(|(_, _, d)| d)
}

/// `workload seed digest-hex` lines; `#` starts a comment.
pub fn parse_golden(text: &str) -> Vec<(String, u64, u64)> {
    text.lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .filter(|l| !l.is_empty())
        .map(|l| {
            let f: Vec<&str> = l.split_whitespace().collect();
            let parsed = match f.as_slice() {
                [w, s, d] => s
                    .parse()
                    .ok()
                    .zip(u64::from_str_radix(d, 16).ok())
                    .map(|(s, d)| (w.to_string(), s, d)),
                _ => None,
            };
            parsed.unwrap_or_else(|| panic!("malformed golden.txt line: {l:?}"))
        })
        .collect()
}

/// Where and how a result was measured. Results whose fingerprints
/// differ are not comparable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    pub nproc: usize,
    pub profile: &'static str,
    pub seed: u64,
    pub repeats: usize,
    /// FNV-1a of the compiled-in `BENCHMARK.json`, hex.
    pub bench_hash: String,
}

impl Fingerprint {
    pub fn here(seed: u64, repeats: usize) -> Fingerprint {
        Fingerprint {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
            repeats,
            bench_hash: format!("{:016x}", fnv1a(BENCHMARK_JSON.as_bytes())),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"profile\":{},\"seed\":{},\"repeats\":{},\"bench_hash\":{}}}",
            self.nproc,
            quote(self.profile),
            self.seed,
            self.repeats,
            quote(&self.bench_hash)
        )
    }

    pub fn from_json(j: &Json) -> Option<Fingerprint> {
        Some(Fingerprint {
            nproc: j.get("nproc")?.as_f64()? as usize,
            profile: match j.get("profile")?.as_str()? {
                "release" => "release",
                "debug" => "debug",
                _ => return None,
            },
            seed: j.get("seed")?.as_f64()? as u64,
            repeats: j.get("repeats")?.as_f64()? as usize,
            bench_hash: j.get("bench_hash")?.as_str()?.to_string(),
        })
    }

    pub fn describe(&self) -> String {
        format!(
            "nproc={} profile={} seed={} repeats={} benchmark.json={}",
            self.nproc, self.profile, self.seed, self.repeats, self.bench_hash
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(j: &Json, key: &str) -> Vec<(String, String)> {
        j.get(key)
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                (field("name"), field("unit"))
            })
            .collect()
    }

    fn pairs(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn emitted_metrics_and_workloads_equal_benchmark_json() {
        let spec = Json::parse(BENCHMARK_JSON).unwrap();
        assert_eq!(names(&spec, "end_to_end"), pairs(&END_TO_END));
        assert_eq!(names(&spec, "per_layer"), pairs(&PER_LAYER));
        let workloads: Vec<&str> = spec
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        let valid = |s: &str| {
            !s.is_empty()
                && s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        for (name, _) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid(name), "{name}");
        }
        for w in WORKLOADS {
            assert!(valid(w), "{w}");
        }
        assert!(PER_LAYER.iter().any(|(n, _)| *n == TRACE_OVERHEAD));
    }

    #[test]
    fn every_workload_has_goldens_for_the_default_and_held_out_seeds() {
        for w in WORKLOADS {
            for seed in [42, 7] {
                assert!(golden(w, seed).is_some(), "{w} @ {seed}");
            }
        }
        // The sharded fleet is byte-identical to the sequential one.
        for seed in [42, 7] {
            assert_eq!(
                golden("fleet_sharded", seed),
                golden("fleet_sessions", seed)
            );
        }
    }

    #[test]
    fn golden_lines_parse_and_comments_are_skipped() {
        let parsed = parse_golden("# header\nfleet_hybrid 7 00ff  # trailing\n\n");
        assert_eq!(parsed, vec![("fleet_hybrid".to_string(), 7, 0xff)]);
    }

    #[test]
    fn fingerprint_round_trips_through_json() {
        let f = Fingerprint::here(42, 5);
        let back = Fingerprint::from_json(&Json::parse(&f.to_json()).unwrap()).unwrap();
        assert_eq!(back, f);
    }
}
