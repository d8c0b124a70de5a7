//! The five workloads, as a child process runs them: set-up calls timed
//! standalone, the timed run through public entry points only, and the
//! structural checks on what the run returned.

use crate::trace::Tracer;
use std::hint::black_box;
use turb_netsim::fluid::plan_updates;
use turb_netsim::topology::{ScaleConfig, ScaleScenario};
use turb_netsim::{
    DropCause, EngineKind, FluidDiag, FluidFlow, InternetScenario, ScenarioConfig, ShardKind,
    SimDuration, SimRng, SimTime, Simulation, Stage,
};
use turbulence::figures;
use turbulence::runner::corpus_configs;
use turbulence::scale::fnv1a;
use turbulence::{
    generate_sessions, run_fleet, run_pair, CorpusResult, FleetRunConfig, FleetRunResult,
    PairRunConfig,
};

/// Sessions in every fleet workload.
pub const FLEET_SESSIONS: usize = 100_000;
/// Bernoulli loss on the client access link of `corpus_lossy_observed`.
const LOSSY_ACCESS_LOSS: f64 = 0.03;
/// Time-series window of `corpus_lossy_observed`: 1 s.
const LOSSY_WINDOW_NS: u64 = 1_000_000_000;
/// Domains of `fleet_sharded`: one per CPU of the 2-CPU reference host.
const SHARDED_DOMAINS: u16 = 2;
/// Fluid flows `fleet_hybrid` must lower its background class to: one
/// per ring group.
const HYBRID_FLOWS: u64 = 8;
/// XOR salt `run_pair` derives its topology RNG with.
const TOPOLOGY_SALT: u64 = 0x7075_6c73_6172;

/// Does the workload stream the paper corpus (else: a fleet)?
pub fn is_corpus(workload: &str) -> bool {
    workload.starts_with("paper_") || workload.starts_with("corpus_")
}

/// The pair-run configs of a corpus workload. Telemetry adds the
/// counts a traced run reports; it never changes results.
pub fn corpus_workload_configs(workload: &str, seed: u64, telemetry: bool) -> Vec<PairRunConfig> {
    let configs = corpus_configs(seed);
    match workload {
        "paper_corpus" if telemetry => configs.into_iter().map(|c| c.with_telemetry()).collect(),
        "paper_corpus" => configs,
        "corpus_lossy_observed" => configs
            .into_iter()
            .map(|mut c| {
                c.access_loss = LOSSY_ACCESS_LOSS;
                c.with_lineage().with_timeseries(LOSSY_WINDOW_NS)
            })
            .collect(),
        other => panic!("{other} is not a corpus workload"),
    }
}

/// The fleet config of a fleet workload.
pub fn fleet_workload_config(workload: &str, seed: u64) -> FleetRunConfig {
    let base = FleetRunConfig {
        sessions: FLEET_SESSIONS,
        rollups: true,
        ..FleetRunConfig::new(seed)
    };
    match workload {
        "fleet_sessions" => base,
        "fleet_sharded" => FleetRunConfig {
            shards: ShardKind::Sharded(SHARDED_DOMAINS),
            ..base
        },
        "fleet_hybrid" => FleetRunConfig {
            engine: EngineKind::Hybrid,
            rollups: false,
            ..base
        },
        other => panic!("{other} is not a fleet workload"),
    }
}

/// The workload's set-up calls, as the run itself makes them: configs
/// plus topology builds, and for the hybrid fleet the background
/// lowering and fluid plan. Returns the plan's diagnostics, if any.
pub fn setup(workload: &str, seed: u64, t: &mut Tracer) -> Option<FluidDiag> {
    if is_corpus(workload) {
        let configs = t.span("runner::corpus_configs", |_| {
            corpus_workload_configs(workload, seed, false)
        });
        for c in &configs {
            t.span("topology::InternetScenario::build", |_| {
                let mut sim = Simulation::with_scheduler(c.seed, c.scheduler);
                let mut rng = SimRng::new(c.seed ^ TOPOLOGY_SALT);
                black_box(InternetScenario::build(
                    &mut sim,
                    &mut rng,
                    &ScenarioConfig::default(),
                ));
            });
        }
        return None;
    }
    let config = fleet_workload_config(workload, seed);
    let plan = fleet_setup(&config, t);
    (config.engine == EngineKind::Hybrid).then_some(plan)
}

/// `generate_sessions` plus the ring `run_fleet` builds; under the
/// hybrid engine also the per-group lowering and the fluid plan.
pub fn fleet_setup(config: &FleetRunConfig, t: &mut Tracer) -> FluidDiag {
    let specs = t.span("population::generate_sessions", |_| {
        generate_sessions(config)
    });
    let (sim, base) = t.span("topology::ScaleScenario::build", |_| {
        let mut sim = Simulation::new(config.seed);
        sim.enable_telemetry();
        sim.set_shards(config.shards);
        let base = ScaleScenario::build(
            &mut sim,
            &ScaleConfig {
                groups: config.groups,
                clients_per_group: 1,
                packets_per_client: 0,
                background_flows: 0,
                ..ScaleConfig::default()
            },
        );
        (sim, base)
    });
    if config.engine != EngineKind::Hybrid {
        return FluidDiag::default();
    }
    let mut flows = Vec::new();
    for g in 0..config.groups {
        let schedule = t.span("flowgen::aggregate_session_schedule", |_| {
            let rows: Vec<(SimTime, SimTime, u64)> = specs
                .iter()
                .filter(|s| s.background && usize::from(s.group) == g)
                .map(|s| (SimTime(s.start_ns), SimTime(s.end_ns), s.rate_bps))
                .collect();
            (!rows.is_empty()).then(|| {
                turb_flowgen::lower::aggregate_session_schedule(&rows, SimDuration::from_secs(1))
            })
        });
        if let Some(schedule) = schedule {
            flows.push(FluidFlow {
                route: vec![base.ring[g]],
                schedule,
            });
        }
    }
    t.span("fluid::plan_updates", |_| {
        plan_updates(&flows, |id| sim.link(id).config.rate_bps).diag
    })
}

/// What a workload run returned.
pub enum Output {
    Corpus {
        corpus: CorpusResult,
        /// Rendered figures (`paper_corpus`) or `figures::digest`
        /// (`corpus_lossy_observed`): the run's last output.
        rendered: Vec<String>,
    },
    Fleet(Box<FleetRunResult>),
}

/// Renders one figure of the paper to text.
type Render = fn(&CorpusResult) -> String;

/// The paper's figures.
const FIGURES: [(&str, Render); 15] = [
    ("figures::fig01", |c| {
        format!("{:?}", figures::fig01_rtt_cdf(c))
    }),
    ("figures::fig02", |c| {
        format!("{:?}", figures::fig02_hops_cdf(c))
    }),
    ("figures::fig03", |c| {
        format!("{:?}", figures::fig03_playback_vs_encoding(c))
    }),
    ("figures::fig04", |c| {
        format!("{:?}", figures::fig04_packet_arrivals(c))
    }),
    ("figures::fig05", |c| {
        format!("{:?}", figures::fig05_fragmentation(c))
    }),
    ("figures::fig06", |c| {
        format!("{:?}", figures::fig06_pktsize_pdf(c))
    }),
    ("figures::fig07", |c| {
        format!("{:?}", figures::fig07_pktsize_norm_pdf(c))
    }),
    ("figures::fig08", |c| {
        format!("{:?}", figures::fig08_interarrival_pdf(c))
    }),
    ("figures::fig09", |c| {
        format!("{:?}", figures::fig09_interarrival_cdf(c))
    }),
    ("figures::fig10", |c| {
        format!("{:?}", figures::fig10_bandwidth_timeseries(c))
    }),
    ("figures::fig11", |c| {
        format!("{:?}", figures::fig11_buffering_ratio(c))
    }),
    ("figures::fig12", |c| {
        format!("{:?}", figures::fig12_app_vs_net(c))
    }),
    ("figures::fig13", |c| {
        format!("{:?}", figures::fig13_framerate_timeseries(c))
    }),
    ("figures::fig14", |c| {
        format!("{:?}", figures::fig14_framerate_vs_encoding(c))
    }),
    ("figures::fig15", |c| {
        format!("{:?}", figures::fig15_framerate_vs_bandwidth(c))
    }),
];

/// Every pair run of `configs`, in order, one span each: what
/// `runner::run_configs` does, with the calls visible to the tracer.
pub fn run_corpus(configs: &[PairRunConfig], t: &mut Tracer) -> CorpusResult {
    CorpusResult {
        runs: configs
            .iter()
            .map(|c| t.span("experiment::run_pair", |_| run_pair(c)))
            .collect(),
        threads: 1,
    }
}

/// Render every figure of the paper from `corpus`.
pub fn render_figures(corpus: &CorpusResult, t: &mut Tracer) -> Vec<String> {
    FIGURES
        .iter()
        .map(|(name, render)| t.span(name, |_| render(corpus)))
        .collect()
}

/// The timed run: from the first public call to the last output.
pub fn run(workload: &str, seed: u64, telemetry: bool, t: &mut Tracer) -> Output {
    if is_corpus(workload) {
        let configs = t.span("runner::corpus_configs", |_| {
            corpus_workload_configs(workload, seed, telemetry)
        });
        let corpus = run_corpus(&configs, t);
        let rendered = if workload == "paper_corpus" {
            render_figures(&corpus, t)
        } else {
            vec![t.span("figures::digest", |_| figures::digest(&corpus))]
        };
        return Output::Corpus { corpus, rendered };
    }
    let config = fleet_workload_config(workload, seed);
    Output::Fleet(Box::new(
        t.span("population::run_fleet", |_| run_fleet(&config)),
    ))
}

/// One structural check's verdict.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

fn check(checks: &mut Vec<Check>, name: &str, ok: bool, detail: impl FnOnce() -> String) {
    checks.push(Check {
        name: name.to_string(),
        ok,
        detail: if ok { String::new() } else { detail() },
    });
}

/// The output digest the goldens pin, plus the structural checks that
/// hold at any seed.
pub fn verify(workload: &str, out: &Output, plan: Option<&FluidDiag>) -> (u64, Vec<Check>) {
    let mut checks = Vec::new();
    match out {
        Output::Corpus { corpus, rendered } => {
            check(&mut checks, "corpus.runs", corpus.runs.len() == 13, || {
                format!("{} pair runs, expected 13", corpus.runs.len())
            });
            check(
                &mut checks,
                "figures.rendered",
                rendered.iter().all(|r| !r.is_empty()),
                || "an empty figure".to_string(),
            );
            let empty = corpus.runs.iter().filter(|r| r.capture.is_empty()).count();
            check(&mut checks, "capture.nonempty", empty == 0, || {
                format!("{empty} runs captured nothing")
            });
            if workload == "corpus_lossy_observed" {
                verify_lossy(corpus, &mut checks);
                (fnv1a(rendered[0].as_bytes()), checks)
            } else {
                let ended = corpus
                    .runs
                    .iter()
                    .filter(|r| r.real.stream_end.is_some() && r.wmp.stream_end.is_some())
                    .count();
                check(&mut checks, "streams.ended", ended == 13, || {
                    format!("{ended} of 13 pair runs finished both streams")
                });
                (fnv1a(figures::full_digest(corpus).as_bytes()), checks)
            }
        }
        Output::Fleet(r) => {
            verify_fleet(workload, r, plan, &mut checks);
            (r.digest, checks)
        }
    }
}

/// Lineage and time-series reconcile with the always-on counters.
fn verify_lossy(corpus: &CorpusResult, checks: &mut Vec<Check>) {
    let mut mismatches = Vec::new();
    let mut drops = 0u64;
    for run in &corpus.runs {
        let label = format!("set{}/{:?}", run.set_id, run.class);
        let Some(t) = &run.telemetry else {
            mismatches.push(format!("{label}: no telemetry"));
            continue;
        };
        let Some(lineage) = &t.lineage else {
            mismatches.push(format!("{label}: no lineage"));
            continue;
        };
        if lineage.dropped != 0 {
            mismatches.push(format!(
                "{label}: {} lineage events evicted",
                lineage.dropped
            ));
        }
        let mut per_cause = [0u64; DropCause::ALL.len()];
        let mut sniffed = 0u64;
        for e in &lineage.events {
            match e.stage {
                Stage::Dropped(cause) => {
                    per_cause[DropCause::ALL.iter().position(|c| *c == cause).unwrap()] += 1
                }
                Stage::Sniffed => sniffed += 1,
                _ => {}
            }
        }
        for (cause, events) in DropCause::ALL.iter().zip(per_cause) {
            let counted = t.metrics.counter_total(cause.counter());
            if events != counted {
                mismatches.push(format!(
                    "{label}: {events} {} events vs {} = {counted}",
                    cause.label(),
                    cause.counter()
                ));
            }
            drops += counted;
        }
        if sniffed != t.report.capture_records {
            mismatches.push(format!(
                "{label}: {sniffed} sniffed events vs {} capture records",
                t.report.capture_records
            ));
        }
        if t.series.as_ref().is_none_or(|s| s.window_count() == 0) {
            mismatches.push(format!("{label}: no time-series windows"));
        }
    }
    check(checks, "lineage.reconciles", mismatches.is_empty(), || {
        mismatches.join("; ")
    });
    check(checks, "loss.injected", drops > 0, || {
        "3% access loss dropped nothing".to_string()
    });
}

fn verify_fleet(
    workload: &str,
    r: &FleetRunResult,
    plan: Option<&FluidDiag>,
    checks: &mut Vec<Check>,
) {
    check(
        checks,
        "fleet.sessions",
        r.sessions == FLEET_SESSIONS,
        || format!("{} sessions", r.sessions),
    );
    if workload == "fleet_hybrid" {
        let fluid = r.fluid.unwrap_or_default();
        check(checks, "hybrid.flows", fluid.flows == HYBRID_FLOWS, || {
            format!("{} fluid flows, expected {HYBRID_FLOWS}", fluid.flows)
        });
        check(checks, "hybrid.bg_delivered", r.bg_delivered == 0, || {
            format!("{} background datagrams delivered", r.bg_delivered)
        });
        if let Some(plan) = plan {
            let same = plan.recomputes == fluid.recomputes
                && plan.updates_scheduled == fluid.updates_scheduled;
            check(checks, "hybrid.plan_matches_setup", same, || {
                format!("set-up plan {plan:?} vs run {fluid:?}")
            });
        }
        return;
    }
    let Some(dump) = &r.rollups else {
        check(checks, "rollups.present", false, || {
            "no rollups".to_string()
        });
        return;
    };
    let totals = dump.totals();
    check(
        checks,
        "rollups.offered",
        totals.datagrams_sent == r.fg_offered + r.bg_offered,
        || {
            format!(
                "{} sent vs {} offered",
                totals.datagrams_sent,
                r.fg_offered + r.bg_offered
            )
        },
    );
    check(
        checks,
        "rollups.delivered",
        totals.datagrams_delivered == r.fg_delivered + r.bg_delivered,
        || {
            format!(
                "{} delivered vs {} in the ledger",
                totals.datagrams_delivered,
                r.fg_delivered + r.bg_delivered
            )
        },
    );
    check(
        checks,
        "rollups.unknown_sessions",
        dump.unknown_session_events == 0,
        || format!("{} unknown-session events", dump.unknown_session_events),
    );
    let evicted = r.lineage.as_ref().map(|l| l.dropped);
    check(checks, "lineage.no_evictions", evicted == Some(0), || {
        format!("sampled lineage evicted {evicted:?}")
    });
    if workload == "fleet_sharded" {
        let shards = r.diag.as_ref().map(|d| d.shards);
        check(
            checks,
            "shard.domains",
            shards == Some(SHARDED_DOMAINS),
            || format!("ran {shards:?} domains"),
        );
    }
}
