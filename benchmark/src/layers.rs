//! The traced pass's per-layer numbers for one workload. Counts come
//! from what the run itself returned; queue depth and shard figures from
//! a one-domain sharded twin of the run; per-operation times from
//! replays of real workload inputs through public functions:
//!
//! * `wire.*` and `capture.*` replay the paper corpus capture's own
//!   packets (the seed's `paper_corpus`, re-run when the traced
//!   workload is another one);
//! * `wheel.*` is a hold model at the workload's measured queue depth;
//! * `population.*`, `flowgen.*` and `fluid.*` replay `fleet_hybrid`'s
//!   set-up on the seed's population.

use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{
    corpus_workload_configs, fleet_setup, fleet_workload_config, render_figures, run_corpus, Check,
    Output,
};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use turb_capture::{Filter, FragmentGroups};
use turb_netsim::{FluidDiag, ShardDiag, ShardKind, SimRng, SimTime, TimingWheel};
use turb_wire::frag::{fragment, Reassembler};
use turb_wire::{checksum, Ipv4Packet, PacketView, DEFAULT_MTU};
use turbulence::experiment::WMP_CLIENT_PORT;
use turbulence::{run_fleet, CorpusResult, FleetRunConfig};

/// Passes over the replay inputs; the median pass is reported.
const REPLAY_PASSES: usize = 3;
/// Hold-model operations (one pop plus one push) per pass.
const HOLD_OPS: usize = 300_000;
/// Hold-model increments are exponential with mean `depth ×` this: the
/// pending events then spread about as thinly over the wheel as in the
/// real runs (ms-scale residence at depth ~20, seconds at ~1e5).
const HOLD_MEAN_NS_PER_PENDING: f64 = 100_000.0;
/// On/off pairs behind each observability tax.
const TAX_PAIRS: usize = 3;

pub type Metrics = BTreeMap<&'static str, f64>;

/// Sum of every `name{...} value` line in a Prometheus text render.
pub fn metric_total(text: &str, name: &str) -> u64 {
    text.lines()
        .filter(|l| l.split('{').next() == Some(name))
        .filter_map(|l| l.rsplit(' ').next()?.parse::<u64>().ok())
        .sum()
}

/// Per-layer metrics for the traced run `out` of `workload`. `root` is
/// the span around the run, `setup_root` the span around its set-up.
pub fn measure(
    workload: &str,
    seed: u64,
    out: &Output,
    plan: Option<FluidDiag>,
    (root, setup_root): (usize, usize),
    t: &mut Tracer,
    checks: &mut Vec<Check>,
) -> Metrics {
    let mut m = run_counts(out);

    let twin = t.span("twin.one_domain", |t| {
        one_domain_twin(workload, seed, out, t)
    });
    checks.push(twin.identical.clone());
    m.insert("sim.queue_high_water", twin.depth as f64);
    m.insert("wheel.cascades", twin.cascades as f64);
    m.insert("wheel.overflow_events", twin.overflow as f64);
    let (seq_s, sharded, sharded_s) = match out {
        Output::Fleet(r) if r.diag.is_some() => {
            let seq = t.span("twin.sequential", |t| {
                let config = FleetRunConfig {
                    shards: ShardKind::Sequential,
                    ..fleet_workload_config(workload, seed)
                };
                t.span("population::run_fleet", |_| run_fleet(&config))
            });
            checks.push(Check {
                name: "shard.digest_matches_sequential".to_string(),
                ok: seq.digest == r.digest,
                detail: format!(
                    "sharded {:016x} vs sequential {:016x}",
                    r.digest, seq.digest
                ),
            });
            let diag = r.diag.clone().expect("matched a sharded run");
            (
                seq.wall_ns as f64 / 1e9,
                ShardView::of(&[diag]),
                m["sim.engine_s"],
            )
        }
        _ => (m["sim.engine_s"], twin.shards, twin.engine_s),
    };
    m.insert("shard.speedup", seq_s / sharded_s);
    m.insert("shard.barriers", sharded.barriers as f64);
    m.insert("shard.transits", sharded.transits as f64);
    m.insert("shard.max_batch", sharded.max_batch as f64);
    m.insert("shard.event_imbalance", sharded.imbalance);

    let (wheel_ns, heap_ns, same_order) = t.span("wheel.hold_model", |t| hold(twin.depth, seed, t));
    checks.push(Check {
        name: "wheel.pops_in_heap_order".to_string(),
        ok: same_order,
        detail: "the wheel and the heap popped different sequences".to_string(),
    });
    m.insert("wheel.hold_ns", wheel_ns);
    m.insert("wheel.heap_hold_ns", heap_ns);

    // The paper corpus: this run's own when it is that workload.
    let replayed;
    let (corpus, corpus_root) = match out {
        Output::Corpus { corpus, .. } if workload == "paper_corpus" => (corpus, root),
        _ => {
            replayed = t.span("replay.paper_corpus", |t| {
                let configs = corpus_workload_configs("paper_corpus", seed, true);
                let corpus = run_corpus(&configs, t);
                black_box(render_figures(&corpus, t));
                corpus
            });
            (&replayed, last_span(t, "replay.paper_corpus"))
        }
    };
    let pair_runs = t.child_seconds(corpus_root, "experiment::run_pair");
    m.insert("runner.pair_run_s", median(&pair_runs));
    m.insert(
        "runner.pair_run_max_s",
        pair_runs.iter().copied().fold(0.0, f64::max),
    );
    m.insert(
        "figures.render_s",
        t.child_seconds(corpus_root, "figures::fig").iter().sum(),
    );
    t.span("replay.wire_capture", |t| {
        replay_wire_capture(corpus, t, &mut m, checks)
    });

    // fleet_hybrid's set-up: this run's own when it is that workload.
    let (plan, setup_parent) = match plan {
        Some(plan) => (plan, setup_root),
        None => {
            let plan = t.span("replay.fleet_hybrid_setup", |t| {
                fleet_setup(&fleet_workload_config("fleet_hybrid", seed), t)
            });
            (plan, last_span(t, "replay.fleet_hybrid_setup"))
        }
    };
    let seconds =
        |t: &Tracer, name: &str| -> f64 { t.child_seconds(setup_parent, name).iter().sum() };
    m.insert(
        "population.generate_s",
        seconds(t, "population::generate_sessions"),
    );
    m.insert(
        "flowgen.lower_s",
        seconds(t, "flowgen::aggregate_session_schedule"),
    );
    m.insert("fluid.plan_s", seconds(t, "fluid::plan_updates"));
    m.insert("fluid.recomputes", plan.recomputes as f64);
    m.insert("fluid.updates", plan.updates_scheduled as f64);

    let (session_tax, lineage_tax) = match workload {
        "fleet_sessions" => (t.span("tax.sessions", |t| session_tax(seed, t)), 0.0),
        "corpus_lossy_observed" => (0.0, t.span("tax.lineage", |t| lineage_tax(seed, t))),
        _ => (0.0, 0.0),
    };
    m.insert("obs.session_tax", session_tax);
    m.insert("obs.lineage_tax", lineage_tax);
    m
}

/// Nanoseconds per operation in the median of the last
/// [`REPLAY_PASSES`] spans named `name`, each covering `ops` operations.
fn per_op_ns(t: &Tracer, name: &str, ops: usize) -> f64 {
    let passes: Vec<f64> = t
        .spans()
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect();
    median(&passes[passes.len() - REPLAY_PASSES..]) / ops.max(1) as f64
}

/// Index of the most recent span named `name`.
fn last_span(t: &Tracer, name: &str) -> usize {
    t.spans()
        .iter()
        .rposition(|s| s.name == name)
        .expect("span was just recorded")
}

/// Counts the run returned about itself.
fn run_counts(out: &Output) -> Metrics {
    let mut m = Metrics::new();
    let (fast, slow) = match out {
        Output::Corpus { corpus, .. } => {
            let tel: Vec<_> = corpus
                .runs
                .iter()
                .map(|r| {
                    r.telemetry
                        .as_ref()
                        .expect("traced corpus runs carry telemetry")
                })
                .collect();
            let sum = |f: &dyn Fn(&turbulence::RunTelemetry) -> u64| -> f64 {
                tel.iter().map(|t| f(t)).sum::<u64>() as f64
            };
            m.insert("sim.events", sum(&|t| t.report.sim_events_processed));
            m.insert("sim.engine_s", sum(&|t| t.report.wall_ns) / 1e9);
            m.insert(
                "link.tx_packets",
                sum(&|t| t.report.links.iter().map(|l| l.tx_packets).sum()),
            );
            m.insert(
                "link.drops_fault",
                sum(&|t| t.report.links.iter().map(|l| l.dropped_fault).sum()),
            );
            m.insert(
                "link.drops_queue",
                sum(&|t| t.report.links.iter().map(|l| l.dropped_queue).sum()),
            );
            m.insert(
                "reassembly.reassembled",
                sum(&|t| t.report.frag.reassembled),
            );
            m.insert("reassembly.timed_out", sum(&|t| t.report.frag.timed_out));
            m.insert("capture.records", sum(&|t| t.report.capture_records));
            let held: usize = corpus
                .runs
                .iter()
                .flat_map(|r| r.capture.records())
                .map(|rec| rec.packet.total_len())
                .sum();
            m.insert("capture.bytes_held", held as f64 / (1024.0 * 1024.0));
            let lineage = || tel.iter().filter_map(|t| t.lineage.as_ref());
            m.insert(
                "obs.lineage_events",
                lineage().map(|l| l.events.len()).sum::<usize>() as f64,
            );
            m.insert(
                "obs.lineage_evicted",
                lineage().map(|l| l.dropped).sum::<u64>() as f64,
            );
            m.insert(
                "obs.series_windows",
                tel.iter()
                    .filter_map(|t| t.series.as_ref())
                    .map(|s| s.window_count())
                    .sum::<usize>() as f64,
            );
            m.insert("obs.session_bytes", 0.0);
            (
                sum(&|t| t.report.transit_fastpath),
                sum(&|t| t.report.transit_slowpath),
            )
        }
        Output::Fleet(r) => {
            let total = |name: &str| metric_total(&r.metrics, name) as f64;
            m.insert("sim.events", r.events_processed as f64);
            m.insert("sim.engine_s", r.wall_ns as f64 / 1e9);
            m.insert("link.tx_packets", total("link_tx_packets_total"));
            m.insert("link.drops_fault", total("link_dropped_fault_total"));
            m.insert("link.drops_queue", total("link_dropped_queue_total"));
            m.insert(
                "reassembly.reassembled",
                total("reassembly_reassembled_total"),
            );
            m.insert("reassembly.timed_out", total("reassembly_timed_out_total"));
            m.insert("capture.records", 0.0);
            m.insert("capture.bytes_held", 0.0);
            let lineage = r.lineage.as_ref();
            m.insert(
                "obs.lineage_events",
                lineage.map_or(0, |l| l.events.len()) as f64,
            );
            m.insert(
                "obs.lineage_evicted",
                lineage.map_or(0, |l| l.dropped) as f64,
            );
            m.insert("obs.series_windows", 0.0);
            m.insert(
                "obs.session_bytes",
                r.session_memory_bytes as f64 / r.sessions.max(1) as f64,
            );
            (
                total("sim_transit_fastpath_total"),
                total("sim_transit_slowpath_total"),
            )
        }
    };
    m.insert("sim.events_per_s", m["sim.events"] / m["sim.engine_s"]);
    m.insert("sim.fastpath_share", fast / (fast + slow).max(1.0));
    m
}

/// Shard-engine figures, summed (or maxed) over one or more runs.
#[derive(Debug, Clone, Copy)]
struct ShardView {
    barriers: u64,
    transits: u64,
    max_batch: u64,
    /// Busiest domain's events over the mean domain's.
    imbalance: f64,
}

impl ShardView {
    fn of(diags: &[ShardDiag]) -> ShardView {
        let imbalance = |d: &ShardDiag| {
            let events: Vec<u64> = d.per_domain.iter().map(|p| p.events_processed).collect();
            let mean = events.iter().sum::<u64>() as f64 / events.len().max(1) as f64;
            events.iter().copied().max().unwrap_or(0) as f64 / mean.max(1.0)
        };
        ShardView {
            barriers: diags.iter().map(|d| d.barriers).sum(),
            transits: diags.iter().map(|d| d.transits).sum(),
            max_batch: diags
                .iter()
                .map(|d| d.max_exchange_depth)
                .max()
                .unwrap_or(0),
            imbalance: diags.iter().map(imbalance).fold(0.0, f64::max),
        }
    }
}

/// What the one-domain sharded twin of a run measured.
struct Twin {
    depth: u64,
    cascades: u64,
    overflow: u64,
    engine_s: f64,
    shards: ShardView,
    identical: Check,
}

/// Re-run the workload as one shard domain. Its diagnostics expose the
/// event queue's high-water mark and scheduler statistics, which a
/// sequential run does not return; the shard-equivalence suite shows it
/// computes exactly what the sequential run did, which is checked here
/// on the output digest.
fn one_domain_twin(workload: &str, seed: u64, out: &Output, t: &mut Tracer) -> Twin {
    let (diags, engine_s, identical) = match out {
        Output::Corpus { corpus, .. } => {
            let configs: Vec<_> = corpus_workload_configs(workload, seed, true)
                .into_iter()
                .map(|c| c.with_shards(1))
                .collect();
            let twin = run_corpus(&configs, t);
            let telemetry = || twin.runs.iter().filter_map(|r| r.telemetry.as_ref());
            let diags: Vec<ShardDiag> = telemetry().filter_map(|t| t.shards.clone()).collect();
            let engine_ns: u64 = telemetry().map(|t| t.report.wall_ns).sum();
            let same = turbulence::figures::digest(corpus) == turbulence::figures::digest(&twin);
            (diags, engine_ns as f64 / 1e9, same)
        }
        Output::Fleet(r) => {
            let config = FleetRunConfig {
                shards: ShardKind::Sharded(1),
                ..fleet_workload_config(workload, seed)
            };
            let twin = t.span("population::run_fleet", |_| run_fleet(&config));
            let diags = twin.diag.clone().into_iter().collect();
            (diags, twin.wall_ns as f64 / 1e9, twin.digest == r.digest)
        }
    };
    let domains = || diags.iter().flat_map(|d| d.per_domain.iter());
    Twin {
        depth: domains().map(|d| d.max_queue_depth).max().unwrap_or(0),
        cascades: domains().map(|d| d.sched.cascades).sum(),
        overflow: domains().map(|d| d.sched.overflow_events).sum(),
        engine_s,
        shards: ShardView::of(&diags),
        identical: Check {
            name: "twin.identical".to_string(),
            ok: identical && !diags.is_empty(),
            detail: "the one-domain twin's output differs from the run's".to_string(),
        },
    }
}

/// The classic hold model: a queue held at `depth` pending events,
/// each operation popping the earliest and pushing one at a random
/// later time. Returns ns/op for the timing wheel and for a std
/// `BinaryHeap` on the same increments, plus whether both popped the
/// same sequence.
fn hold(depth: u64, seed: u64, t: &mut Tracer) -> (f64, f64, bool) {
    let depth = depth.max(1) as usize;
    let mut rng = SimRng::new(seed ^ 0x686f_6c64);
    let mean = depth as f64 * HOLD_MEAN_NS_PER_PENDING;
    let initial: Vec<u64> = (0..depth).map(|_| rng.exponential(mean) as u64).collect();
    let steps: Vec<u64> = (0..HOLD_OPS)
        .map(|_| rng.exponential(mean) as u64 + 1)
        .collect();

    let wheel_pass = |t: &mut Tracer| {
        let mut wheel = TimingWheel::with_capacity(depth);
        for (seq, &at) in initial.iter().enumerate() {
            wheel.push(SimTime(at), seq as u64, ());
        }
        t.span("wheel::TimingWheel::hold", |_| {
            let mut popped = 0u64;
            for (i, &step) in steps.iter().enumerate() {
                let (now, _, ()) = wheel.pop().expect("held at constant depth");
                popped = popped.wrapping_mul(31).wrapping_add(now.0);
                wheel.push(SimTime(now.0 + step), (depth + i) as u64, ());
            }
            black_box(popped)
        })
    };
    let heap_pass = |t: &mut Tracer| {
        let mut heap = BinaryHeap::with_capacity(depth + 1);
        for (seq, &at) in initial.iter().enumerate() {
            heap.push(Reverse((at, seq as u64)));
        }
        t.span("std::BinaryHeap::hold", |_| {
            let mut popped = 0u64;
            for (i, &step) in steps.iter().enumerate() {
                let Reverse((now, _)) = heap.pop().expect("held at constant depth");
                popped = popped.wrapping_mul(31).wrapping_add(now);
                heap.push(Reverse((now + step, (depth + i) as u64)));
            }
            black_box(popped)
        })
    };
    let mut same = true;
    for _ in 0..REPLAY_PASSES {
        same &= wheel_pass(t) == heap_pass(t);
    }
    (
        per_op_ns(t, "wheel::TimingWheel::hold", HOLD_OPS),
        per_op_ns(t, "std::BinaryHeap::hold", HOLD_OPS),
        same,
    )
}

/// Replay the corpus capture through the wire codecs, fragmentation,
/// reassembly and the capture analysis, recording ns per operation.
fn replay_wire_capture(
    corpus: &CorpusResult,
    t: &mut Tracer,
    m: &mut Metrics,
    checks: &mut Vec<Check>,
) {
    let packets: Vec<&Ipv4Packet> = corpus
        .runs
        .iter()
        .flat_map(|r| r.capture.records().iter().map(|rec| &rec.packet))
        .collect();
    let encoded: Vec<_> = t.span("replay.prepare", |_| {
        packets
            .iter()
            .map(|p| p.encode().expect("captured packets re-encode"))
            .collect()
    });
    // Whole datagrams larger than the MTU, rebuilt from each run's own
    // fragments: the inputs the sender's fragmentation saw.
    let datagrams: Vec<Ipv4Packet> = t.span("replay.prepare", |_| {
        corpus
            .runs
            .iter()
            .flat_map(|r| {
                let mut reassembler = Reassembler::new(u64::MAX);
                r.capture
                    .records()
                    .iter()
                    .filter_map(|rec| reassembler.push(rec.packet.clone(), 0))
                    .filter(|d| d.total_len() > DEFAULT_MTU)
                    .collect::<Vec<_>>()
            })
            .collect()
    });
    let records: usize = corpus.runs.iter().map(|r| r.capture.len()).sum();

    let mut decode_ok = true;
    let mut reassembled = Vec::new();
    for _ in 0..REPLAY_PASSES {
        t.span("wire::checksum", |_| {
            let mut acc = 0u64;
            for e in &encoded {
                acc += u64::from(checksum::checksum(e));
            }
            black_box(acc)
        });
        t.span("wire::Ipv4Packet::encode", |_| {
            for p in &packets {
                black_box(p.encode().expect("captured packets re-encode"));
            }
        });
        decode_ok &= t.span("wire::Ipv4Packet::decode", |_| {
            let mut ok = true;
            for (e, p) in encoded.iter().zip(&packets) {
                let d = Ipv4Packet::decode(e);
                ok &= d
                    .as_ref()
                    .is_ok_and(|d| d.payload == p.payload && d.src == p.src);
                black_box(d.ok());
            }
            ok
        });
        t.span("wire::PacketView", |_| {
            for e in &encoded {
                let view = PacketView::new(e.clone()).expect("captured packets parse");
                black_box((view.udp_ports(), view.total_len()));
            }
        });
        t.span("wire::fragment", |_| {
            for d in &datagrams {
                black_box(fragment(d.clone(), DEFAULT_MTU).expect("fragmentable"));
            }
        });
        reassembled.push(t.span("wire::Reassembler::push", |_| {
            let mut done = 0u64;
            for r in &corpus.runs {
                let mut reassembler = Reassembler::new(u64::MAX);
                for rec in r.capture.records() {
                    done += u64::from(reassembler.push(rec.packet.clone(), 0).is_some());
                }
            }
            done
        }));
        t.span("capture::FragmentGroups::build", |_| {
            for r in &corpus.runs {
                black_box(FragmentGroups::build(r.capture.records().iter()).stats());
            }
        });
        t.span("capture::Capture::filtered", |_| {
            for r in &corpus.runs {
                let filter =
                    Filter::stream_from(r.server_addr).and(Filter::PortIs(WMP_CLIENT_PORT));
                black_box(r.capture.filtered(&filter).len());
            }
        });
    }
    checks.push(Check {
        name: "wire.decode_round_trip".to_string(),
        ok: decode_ok,
        detail: "a captured packet did not decode back to itself".to_string(),
    });
    checks.push(Check {
        name: "wire.reassembly_repeatable".to_string(),
        ok: reassembled.windows(2).all(|w| w[0] == w[1]) && !datagrams.is_empty(),
        detail: format!(
            "reassembled {reassembled:?}, {} oversize datagrams",
            datagrams.len()
        ),
    });
    for (metric, span, ops) in [
        ("wire.checksum_ns", "wire::checksum", packets.len()),
        (
            "wire.ipv4_encode_ns",
            "wire::Ipv4Packet::encode",
            packets.len(),
        ),
        (
            "wire.ipv4_decode_ns",
            "wire::Ipv4Packet::decode",
            packets.len(),
        ),
        ("wire.view_ns", "wire::PacketView", packets.len()),
        ("wire.fragment_ns", "wire::fragment", datagrams.len()),
        ("wire.reassemble_ns", "wire::Reassembler::push", records),
        (
            "capture.fraggroups_ns",
            "capture::FragmentGroups::build",
            records,
        ),
        ("capture.filter_ns", "capture::Capture::filtered", records),
    ] {
        m.insert(metric, per_op_ns(t, span, ops));
    }
}

/// Median wall of `on` over median wall of `off` across alternating
/// pairs, each side's run timed by `run`.
fn tax(t: &mut Tracer, run: impl Fn(&mut Tracer, bool)) -> f64 {
    let mut walls = [Vec::new(), Vec::new()];
    for pair in 0..TAX_PAIRS {
        for on in if pair % 2 == 0 {
            [true, false]
        } else {
            [false, true]
        } {
            let name = if on { "tax.on" } else { "tax.off" };
            let started = std::time::Instant::now();
            t.span(name, |t| run(t, on));
            walls[usize::from(on)].push(started.elapsed().as_secs_f64());
        }
    }
    median(&walls[1]) / median(&walls[0])
}

/// Session rollups plus sampled lineage, on vs off, on `fleet_sessions`.
fn session_tax(seed: u64, t: &mut Tracer) -> f64 {
    tax(t, |t, on| {
        let config = FleetRunConfig {
            rollups: on,
            ..fleet_workload_config("fleet_sessions", seed)
        };
        black_box(
            t.span("population::run_fleet", |_| run_fleet(&config))
                .digest,
        );
    })
}

/// Lineage plus time-series, on vs off, on `corpus_lossy_observed`.
fn lineage_tax(seed: u64, t: &mut Tracer) -> f64 {
    tax(t, |t, on| {
        let configs: Vec<_> = corpus_workload_configs("corpus_lossy_observed", seed, false)
            .into_iter()
            .map(|mut c| {
                if !on {
                    (c.lineage, c.timeseries, c.telemetry) = (false, false, false);
                }
                c
            })
            .collect();
        black_box(run_corpus(&configs, t).runs.len());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_totals_sum_every_component_of_one_name() {
        let text = "link_tx_packets_total{component=\"link:0\"} 5\nlink_tx_packets_total{component=\"link:1\"} 7\nlink_tx_bytes_total{component=\"link:0\"} 900\n";
        assert_eq!(metric_total(text, "link_tx_packets_total"), 12);
        assert_eq!(metric_total(text, "link_tx"), 0);
    }
}
