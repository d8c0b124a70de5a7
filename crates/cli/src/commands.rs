//! The CLI subcommand implementations.

use crate::{paper, spec::RunSpec};
use turb_media::PlayerId;
use turb_netsim::{EngineKind, FluidDiag, ShardKind};
use turbulence::{report, runner};

/// `turbulence pair`: one run with telemetry on — the human summary,
/// an optional pcap, then the run report.
pub fn pair(spec: &RunSpec) -> Result<(), String> {
    let mut config = spec.pair_configs().remove(0).with_telemetry();
    config.sessions = spec.switch("rollups");
    let result = turbulence::run_pair(&config);

    outln!(
        "path: {} hops to {}, ping median {:.1} ms, route stable: {}",
        result
            .tracert_before
            .hop_count()
            .map(|h| h.to_string())
            .unwrap_or_else(|| "?".into()),
        result.server_addr,
        result
            .ping_before
            .median_rtt()
            .map(|r| r.as_millis_f64())
            .unwrap_or(f64::NAN),
        result.route_stable(),
    );
    for log in [&result.real, &result.wmp] {
        outln!(
            "{:>7}: encoded {:>6.1}K | playback {:>6.1}K | {:>4.1} fps | streamed {:>5.1}s/{:>3.0}s | lost {}",
            log.clip.name(),
            log.clip.encoded_kbps,
            log.avg_playback_kbps(),
            log.avg_frame_rate(),
            log.streaming_duration_secs().unwrap_or(f64::NAN),
            log.clip.duration_secs,
            log.packets_lost,
        );
    }
    for player in [PlayerId::RealPlayer, PlayerId::MediaPlayer] {
        let stats = turbulence::analysis::stream_groups(&result, player).stats();
        outln!(
            "{:>7}: {} wire packets, {} datagrams, {:.0}% IP fragments",
            player.label(),
            stats.total_packets,
            stats.groups,
            stats.fragment_fraction() * 100.0
        );
    }
    if let Some(path) = spec.text("pcap") {
        let mut file = std::fs::File::create(path).map_err(|e| format!("create {path}: {e}"))?;
        turb_capture::pcap::write_pcap(&mut file, result.capture.records())
            .map_err(|e| format!("write {path}: {e}"))?;
        outln!(
            "capture: {} packets written to {path}",
            result.capture.len()
        );
    }

    let telemetry = result
        .telemetry
        .as_ref()
        .expect("telemetry was requested for this run");
    outln!("{}", telemetry.report.render_table());
    if let Some(sessions) = &telemetry.sessions {
        outln!("per-class session QoE (rollups):");
        out!("{}", sessions.summary_table());
    }
    let sched = telemetry.sched;
    outln!(
        "  scheduler       {:>12} ({} slots touched / {} cascades / {} overflow entries)",
        telemetry.scheduler.name(),
        sched.slots_touched,
        sched.cascades,
        sched.overflow_events,
    );
    if let Some(diag) = &telemetry.fluid {
        out!("{}", render_fluid_diag(diag));
    }
    if spec.switch("metrics") {
        outln!("{}", telemetry.metrics.render_text());
    }
    Ok(())
}

/// `turbulence figures`: every table and figure's data rows, then the
/// ablation tables. With `--sets`, only the blocks any subset of data
/// sets supports; with `--telemetry`, the per-run wall clock and the
/// aggregate run report after them.
pub fn figures_cmd(spec: &RunSpec) -> Result<(), String> {
    let result = runner::run_configs_parallel(&spec.pair_configs(), spec.threads);
    if spec.sets.is_some() {
        out!("{}", paper::render(&paper::SUBSET, &result, spec.seed));
    } else {
        out!("{}", paper::render(&paper::ALL, &result, spec.seed));
        out!("{}", paper::render(&paper::ABLATIONS, &result, spec.seed));
    }
    if !spec.switch("telemetry") {
        return Ok(());
    }
    // Per-run wall clock first: which pairs dominate the corpus time.
    let rows: Vec<Vec<String>> = result
        .runs
        .iter()
        .filter_map(|run| {
            let t = run.telemetry.as_ref()?;
            Some(vec![
                t.report.label.clone(),
                format!("{:.1}", t.report.wall_ns as f64 / 1e6),
                format!("{:.0}", t.report.events_per_sec()),
            ])
        })
        .collect();
    outln!(
        "{}",
        report::table(
            "Per-run wall clock",
            &["run", "wall ms", "events/sec"],
            &rows
        )
    );
    if let Some(report) = result.aggregate_report() {
        outln!("{}", report.render_table());
    }
    Ok(())
}

/// Render a [`FluidDiag`] in the run report's indent style.
fn render_fluid_diag(diag: &FluidDiag) -> String {
    format!(
        "  fluid           {:>12} flows ({} breakpoints / {} recomputes / {} updates applied of {} scheduled / peak {:.3} Mbit/s on one link)\n",
        diag.flows,
        diag.breakpoints,
        diag.recomputes,
        diag.updates_applied,
        diag.updates_scheduled,
        diag.peak_link_fluid_bps as f64 / 1e6,
    )
}

/// `turbulence scale`: the replicated-client scale scenario, run once.
/// With hybrid background flows it also runs the all-packet twin, so
/// the fluid engine's speedup is measured, not asserted. Lines carrying
/// wall-clock time are the only host-dependent output.
pub fn scale(spec: &RunSpec) -> Result<(), String> {
    use turb_netsim::topology::ScaleConfig;
    use turbulence::scale::{run_scale, ScaleRunConfig};

    let mut scenario = ScaleConfig::default();
    scenario.clients_per_group = spec.number("clients", scenario.clients_per_group, 1..=60_000)?;
    scenario.groups = spec.groups.unwrap_or(scenario.groups);
    scenario.packets_per_client =
        spec.number("packets", scenario.packets_per_client, 0..=u32::MAX)?;
    scenario.background_flows = spec.background as usize;
    scenario.engine = spec.engine;
    let run = |scenario: ScaleConfig, progress| {
        run_scale(&ScaleRunConfig {
            seed: spec.seed,
            scenario,
            shards: ShardKind::Sequential,
            progress,
        })
    };
    let result = run(scenario.clone(), spec.progress);

    outln!(
        "scale: {} groups x {} clients, {} datagrams offered, {} background flows ({} engine)",
        scenario.groups,
        scenario.clients_per_group,
        scenario.groups as u64
            * scenario.clients_per_group as u64
            * u64::from(scenario.packets_per_client),
        scenario.background_flows,
        scenario.engine.name(),
    );
    outln!(
        "scale: {:<10} {:>10} events | digest {:016x}",
        scenario.engine.name(),
        result.events_processed,
        result.digest,
    );
    if let Some(diag) = &result.fluid {
        out!("{}", render_fluid_diag(diag));
    }
    // The same scenario with the background as real datagram streams.
    let packet_twin = (scenario.engine == EngineKind::Hybrid && scenario.background_flows > 0)
        .then(|| {
            run(
                ScaleConfig {
                    engine: EngineKind::Packet,
                    ..scenario.clone()
                },
                false,
            )
        });
    if let Some(twin) = &packet_twin {
        outln!(
            "scale: {:<10} {:>10} events | {} background datagrams delivered",
            "all-packet",
            twin.events_processed,
            twin.background_datagrams,
        );
    }
    // Host-dependent from here on.
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    outln!(
        "scale: wall-clock {:.1} ms | {cpus} cpus available",
        result.wall_ns as f64 / 1e6
    );
    if let Some(twin) = &packet_twin {
        outln!(
            "scale: all-packet wall-clock {:.1} ms | hybrid speedup {:.2}x at {} background flows",
            twin.wall_ns as f64 / 1e6,
            twin.wall_ns as f64 / result.wall_ns.max(1) as f64,
            scenario.background_flows,
        );
    }
    Ok(())
}

/// `turbulence fleet`: a session population — Poisson/MMPP arrivals,
/// heavy-tailed lifetimes — multiplexed over the scale ring, with the
/// heavy-traffic figures printed.
pub fn fleet(spec: &RunSpec) -> Result<(), String> {
    use turbulence::population::run_fleet;
    let config = spec.fleet_config()?;
    let result = run_fleet(&config);
    outln!(
        "fleet: {} sessions over {} groups | {:?} arrivals | {:?} lifetimes{} | {} engine",
        result.sessions,
        config.groups,
        config.arrival,
        config.duration,
        if config.diurnal { " | diurnal" } else { "" },
        config.engine.name(),
    );
    outln!(
        "fleet: {} events | digest {:016x}",
        result.events_processed,
        result.digest,
    );
    outln!("fleet: {}", render_fleet_memory(&result));
    let loss = |delivered: u64, offered: u64| 1.0 - delivered as f64 / offered.max(1) as f64;
    let fg_loss = loss(result.fg_delivered, result.fg_offered);
    // Fluid-carried background sends no datagrams, so it has no loss
    // to report; say how it was carried and what it would have sent.
    let (bg, bg_loss) = if result.fluid.as_ref().is_some_and(|d| d.flows > 0) {
        (
            format!("carried=fluid ({} would-be)", result.bg_offered),
            String::new(),
        )
    } else {
        (
            format!("{}/{}", result.bg_delivered, result.bg_offered),
            format!(" bg {:.4}", loss(result.bg_delivered, result.bg_offered)),
        )
    };
    outln!(
        "fleet: fg {}/{} datagrams delivered | bg {bg} | loss fg {fg_loss:.4}{bg_loss}",
        result.fg_delivered,
        result.fg_offered,
    );
    if let Some(diag) = &result.fluid {
        out!("{}", render_fluid_diag(diag));
    }
    outln!();
    out!("{}", result.figures);
    if let Some(dump) = &result.rollups {
        outln!("\n## per-class session QoE (rollups)");
        out!("{}", dump.summary_table());
    }
    if spec.switch("metrics") {
        outln!();
        out!("{}", result.metrics);
    }
    // Host-dependent, so last and on a line of its own.
    outln!("fleet: wall-clock {:.1} ms", result.wall_ns as f64 / 1e6);
    Ok(())
}

/// A fleet run's measured memory rows: the session rollups (when on),
/// the event queue and the drivers' send slots, in KiB and bytes per
/// session.
fn render_fleet_memory(result: &turbulence::population::FleetRunResult) -> String {
    let per_session = |bytes: u64| bytes as f64 / result.sessions.max(1) as f64;
    let queue = format!(
        "event queue {} KiB ({:.1} B/session) | {} send slots {} KiB ({:.1} B/session)",
        result.queue_memory_bytes / 1024,
        per_session(result.queue_memory_bytes),
        result.send_slots,
        result.slot_memory_bytes / 1024,
        per_session(result.slot_memory_bytes),
    );
    match result.rollups {
        Some(_) => format!(
            "rollups {} KiB ({:.1} B/session) | {queue}",
            result.session_memory_bytes / 1024,
            per_session(result.session_memory_bytes),
        ),
        None => queue,
    }
}

/// `turbulence sessions`: the fleet-scale QoE view. Runs the fleet
/// scenario with rollups forced on and renders the per-class summary,
/// per-class QoE CDFs (startup, rebuffer, loss, goodput), and the
/// top-K worst sessions under a composable `--by` badness key.
/// `--session ID` drills into a sampled session's lineage timeline;
/// `--jsonl`/`--csv` export the full rollup table deterministically.
pub fn sessions(spec: &RunSpec) -> Result<(), String> {
    use turb_obs::lineage::{SpanOutcome, Stage};
    use turb_obs::BadnessKey;
    use turb_stats::Cdf;
    use turbulence::population::run_fleet;

    let mut config = spec.fleet_config()?;
    config.rollups = true;
    let by = match spec.text("by") {
        None => BadnessKey::default(),
        Some(raw) => BadnessKey::parse(raw)?,
    };
    let top = spec.number("top", 10, 0..=usize::MAX)?;
    let last = u32::try_from(config.sessions - 1).unwrap_or(u32::MAX);
    let drill = spec.opt_number("session", 0..=last)?;
    // The drill-down target is a function of the config alone, so a
    // bad one fails before the fleet runs.
    let sampler = (config.sample_permille > 0 && !config.lineage)
        .then(|| turb_obs::SessionSampler::new(config.seed, config.sample_permille));
    if let Some(sid) = drill {
        if !(config.lineage || sampler.as_ref().is_some_and(|s| s.admits(sid))) {
            let examples: Vec<String> = sampler
                .as_ref()
                .map(|s| {
                    (0..config.sessions as u32)
                        .filter(|&id| s.admits(id))
                        .take(8)
                        .map(|id| id.to_string())
                        .collect()
                })
                .unwrap_or_default();
            return Err(format!(
                "session {sid} is not in the sampled set; sampled ids start {:?} \
                 (raise --sample-permille, up to 1000, to widen the set)",
                examples,
            ));
        }
    }

    let result = run_fleet(&config);
    let dump = result
        .rollups
        .as_ref()
        .expect("rollups are forced on for this command");

    // Exports first: the files are the machine-readable contract; the
    // rendering below is for humans.
    if let Some(path) = spec.text("jsonl") {
        std::fs::write(path, dump.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        outln!("sessions: rollup JSONL written to {path}");
    }
    if let Some(path) = spec.text("csv") {
        std::fs::write(path, dump.to_csv()).map_err(|e| format!("write {path}: {e}"))?;
        outln!("sessions: rollup CSV written to {path}");
    }

    // Rollups are accumulated at event time from the same callbacks
    // that feed the always-on counters, so they must reconcile 1:1.
    let totals = dump.totals();
    if totals.datagrams_sent != result.fg_offered + result.bg_offered {
        return Err(format!(
            "rollups sent {} datagrams but the offered-load counters say {}",
            totals.datagrams_sent,
            result.fg_offered + result.bg_offered,
        ));
    }
    if totals.datagrams_delivered != result.fg_delivered + result.bg_delivered {
        return Err(format!(
            "rollups delivered {} datagrams but the ledger says {}",
            totals.datagrams_delivered,
            result.fg_delivered + result.bg_delivered,
        ));
    }
    if dump.unknown_session_events != 0 {
        return Err(format!(
            "{} events carried an unregistered session id",
            dump.unknown_session_events,
        ));
    }

    outln!(
        "sessions: {} sessions | digest {:016x} | {} | counters reconcile 1:1",
        result.sessions,
        result.digest,
        render_fleet_memory(&result),
    );
    match &result.lineage {
        Some(lin) => {
            let status = if lin.dropped == 0 {
                "recorder never evicted".to_string()
            } else {
                format!("recorder evicted {} events", lin.dropped)
            };
            outln!(
                "sessions: sampled lineage on {} spans / {} events ({}‰ of sessions, seed-keyed) | {status}",
                lin.origins.len(),
                lin.events.len(),
                if config.lineage { 1000 } else { config.sample_permille },
            );
            if lin.dropped > 0 {
                return Err(format!(
                    "lineage recorder evicted {} events; lower --sample-permille",
                    lin.dropped,
                ));
            }
        }
        None => outln!("sessions: lineage sampling off (--sample-permille 0)"),
    }

    outln!("\n## per-class session QoE (rollups)");
    out!("{}", dump.summary_table());

    // Per-class QoE CDFs from the individual rollups. Startup and
    // rebuffer could also come from the class sketches; sampling the
    // rollups directly keeps all four metrics on one exact footing.
    for (c, name) in dump.class_names.iter().enumerate() {
        let members = || {
            dump.rollups
                .iter()
                .zip(&dump.class_of)
                .filter(move |(_, &rc)| usize::from(rc) == c)
                .map(|(r, _)| r)
        };
        if members().next().is_none() {
            continue;
        }
        let startup_ms: Vec<f64> = members()
            .filter_map(|r| r.startup_ns())
            .map(|ns| ns as f64 / 1e6)
            .collect();
        let rebuffer_ms: Vec<f64> = members().map(|r| r.rebuffer_ns as f64 / 1e6).collect();
        let loss_pct: Vec<f64> = members().map(|r| r.loss_fraction() * 100.0).collect();
        let goodput_kbps: Vec<f64> = members()
            .filter_map(|r| r.mean_rate_bps())
            .map(|bps| bps as f64 / 1e3)
            .collect();
        for (what, unit, values) in [
            ("startup", "ms", &startup_ms),
            ("rebuffer", "ms", &rebuffer_ms),
            ("loss", "%", &loss_pct),
            ("goodput", "kbit/s", &goodput_kbps),
        ] {
            if values.is_empty() {
                continue;
            }
            outln!(
                "{}",
                report::cdf_quantiles(
                    &format!("{name}: {what} CDF"),
                    &Cdf::from_samples(values),
                    unit,
                )
            );
        }
    }

    // Top-K worst sessions under the badness key — the triage list.
    let worst = dump.worst(top, &by);
    let rows: Vec<Vec<String>> = worst
        .iter()
        .map(|&(id, score)| {
            let r = &dump.rollups[id as usize];
            let sampled = config.lineage || sampler.as_ref().is_some_and(|s| s.admits(id));
            vec![
                id.to_string(),
                dump.class_names[usize::from(dump.class_of[id as usize])].clone(),
                format!("{score:.3}"),
                format!("{:.3}", r.loss_fraction() * 100.0),
                format!("{:.1}", r.rebuffer_ns as f64 / 1e6),
                r.startup_ns()
                    .map_or("-".to_string(), |ns| format!("{:.1}", ns as f64 / 1e6)),
                r.mean_rate_bps()
                    .map_or("-".to_string(), |bps| format!("{:.1}", bps as f64 / 1e3)),
                if sampled { "yes" } else { "" }.to_string(),
            ]
        })
        .collect();
    outln!(
        "{}",
        report::table(
            &format!("Top {} worst sessions by {}", worst.len(), by.spec()),
            &[
                "id",
                "class",
                "score",
                "loss %",
                "rebuf ms",
                "startup ms",
                "kbit/s",
                "sampled"
            ],
            &rows,
        )
    );

    // Drill-down: the sampled session's full per-packet lineage.
    if let Some(sid) = drill {
        let lin = result
            .lineage
            .as_ref()
            .expect("sampled sessions carry lineage");
        outln!("\n## session {sid} lineage timeline");
        let mut printed = 0usize;
        for (span, origin) in lin.origins.iter().enumerate() {
            let meta = match origin.meta {
                Some(meta) if meta.sequence == sid => meta,
                _ => continue,
            };
            let tl = lin.timeline(span);
            let outcome = match tl.outcome {
                SpanOutcome::Dropped(cause) => format!("dropped:{}", cause.label()),
                other => other.label().to_string(),
            };
            let e2e = tl
                .first_time(|s| s == Stage::Delivered)
                .map_or("      -".to_string(), |t| {
                    format!("{:>7.3}", (t - origin.time_ns) as f64 / 1e6)
                });
            outln!(
                "  pkt {:>6} @ {:>10.3} ms  e2e {e2e} ms  {} hops  {}",
                meta.media_time_ms,
                origin.time_ns as f64 / 1e6,
                tl.hops(),
                outcome,
            );
            for ev in &tl.events {
                outln!(
                    "      {:>10.3} ms  {:<11} {}",
                    ev.time_ns as f64 / 1e6,
                    ev.stage.label(),
                    lin.component(ev.comp),
                );
            }
            printed += 1;
        }
        if printed == 0 {
            outln!("  (session sent no packets inside the horizon)");
        } else {
            outln!("  {printed} packets");
        }
    }
    // Host-dependent, so last and on a line of its own.
    outln!("sessions: wall-clock {:.1} ms", result.wall_ns as f64 / 1e6);
    Ok(())
}

/// `turbulence flowgen`: fit → generate → validate → export.
pub fn flowgen(spec: &RunSpec) -> Result<(), String> {
    let seed = spec.seed;
    let player = match spec.text("player") {
        None | Some("real") => PlayerId::RealPlayer,
        Some("wmp") | Some("media") => PlayerId::MediaPlayer,
        Some(other) => return Err(format!("unknown player {other:?} (real|wmp)")),
    };
    let config = spec.pair_configs().remove(0);
    let clip = match player {
        PlayerId::RealPlayer => config.pair.real.clone(),
        PlayerId::MediaPlayer => config.pair.wmp.clone(),
    };
    let result = turbulence::run_pair(&config);
    let model = turb_flowgen::TurbulenceModel::fit(
        &result.capture,
        result.server_addr,
        player,
        clip.encoded_kbps,
    )
    .ok_or("not enough captured data to fit a model")?;
    eprintln!(
        "fitted {}: median size {:.0} B, median gap {:.1} ms, frag {:.1}%, burst ratio {:.2} over {:.1}s",
        clip.name(),
        model.datagram_sizes.sample(0.5),
        model.interarrivals.sample(0.5) * 1000.0,
        model.fragment_fraction * 100.0,
        model.buffering_ratio,
        model.burst_secs,
    );
    let mut generator =
        turb_flowgen::FlowGenerator::new(model.clone(), turb_netsim::SimRng::new(seed ^ 0x9e37));
    let packets = generator.generate(clip.duration_secs);
    let validation = turb_flowgen::validate_against_model(&model, &packets);
    eprintln!(
        "generated {} packets; K-S sizes {:.3}, gaps {:.3}, pass {}",
        packets.len(),
        validation.ks_sizes,
        validation.ks_gaps,
        validation.passes(0.1)
    );
    let trace = turb_flowgen::FlowGenerator::export_ns_trace(&packets);
    match spec.text("out") {
        Some(path) => {
            std::fs::write(path, trace).map_err(|e| format!("write {path}: {e}"))?;
            eprintln!("trace written to {path}");
        }
        None => out!("{trace}"),
    }
    Ok(())
}

/// `turbulence friendly`: the §VI sweep.
pub fn friendly(spec: &RunSpec) -> Result<(), String> {
    use turbulence::followup::{run_tcp_friendliness, FriendlinessConfig};
    let sweep = spec
        .numbers("kbps", 1..=u64::MAX / 1000)?
        .unwrap_or_else(|| vec![300, 400, 600, 1000, 2000]);
    let clip = turb_media::corpus::table1()[4]
        .pair(spec.class)
        .ok_or("set 5 lacks that class")?
        .wmp
        .clone();
    outln!(
        "{:>12} {:>10} {:>8} {:>12} {:>12} {:>8}",
        "bottleneck",
        "offered",
        "loss",
        "tcp alone",
        "tcp shared",
        "index"
    );
    for kbps in sweep {
        let result = run_tcp_friendliness(&FriendlinessConfig {
            seed: spec.seed,
            clip: clip.clone(),
            bottleneck_bps: kbps * 1000,
            propagation: turb_netsim::SimDuration::from_millis(20),
            observe_secs: 45.0,
        });
        outln!(
            "{:>10}K {:>9.1}K {:>7.1}% {:>11.1}K {:>11.1}K {:>8.2}",
            kbps,
            result.stream_send_kbps,
            result.stream_loss * 100.0,
            result.tcp_alone_kbps,
            result.tcp_shared_kbps,
            result.stream_share_index(),
        );
    }
    Ok(())
}

/// `turbulence check`: the wire-layer fuzz/differential campaign, or a
/// single-case replay with `--replay`.
pub fn check(spec: &RunSpec) -> Result<(), String> {
    use std::path::Path;
    use turb_check::{runner, Case, CheckConfig};

    if let Some(path) = spec.text("replay") {
        let case = Case::load(Path::new(path))?;
        outln!(
            "replaying {} (prop {}, seed {:#x}{})",
            path,
            case.property,
            case.seed,
            match &case.data {
                Some(d) => format!(", {} data bytes", d.len()),
                None => String::new(),
            }
        );
        return match runner::replay(&case) {
            Ok(()) => {
                outln!("case passes");
                Ok(())
            }
            Err(detail) => Err(format!("case still fails: {detail}")),
        };
    }

    let iterations = spec.number("iterations", 1000, 0..=u64::MAX)?;
    let only = spec
        .text("props")
        .map(|raw| raw.split(',').map(str::to_string).collect::<Vec<_>>());
    if let Some(names) = &only {
        for name in names {
            if turb_check::props::by_name(name).is_none() {
                let known: Vec<_> = turb_check::props::all().iter().map(|p| p.name).collect();
                return Err(format!(
                    "unknown property {name:?} (known: {})",
                    known.join(", ")
                ));
            }
        }
    }

    let config = CheckConfig {
        seed: spec.seed,
        iterations,
        only,
    };
    let (report, failures) = runner::run(&config);
    out!("{}", report.render_table());

    if failures.is_empty() {
        return Ok(());
    }
    // Persist every failure as a replayable case file.
    let dir = spec.text("write-failures").unwrap_or("check-failures");
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {dir}: {e}"))?;
    for failure in &failures {
        let case = failure.to_case();
        let path = Path::new(dir).join(case.file_name());
        std::fs::write(&path, case.to_text())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        outln!(
            "FAIL {} seed {:#x}: {}",
            failure.property,
            failure.case_seed,
            failure.detail
        );
        outln!("     saved {}", path.display());
    }
    Err(format!(
        "{} failing case(s); replay with `turbulence check --replay <file>`",
        failures.len()
    ))
}

/// `turbulence timeline`: reconstruct per-packet lifecycles from a
/// lineage-recorded run — top-K slowest media packets, per-stage
/// latency CDFs in the paper's figure style, a drop post-mortem
/// reconciled against the always-on drop counters, and an optional
/// Perfetto-loadable trace export.
pub fn timeline(spec: &RunSpec) -> Result<(), String> {
    use std::collections::BTreeMap;
    use turb_obs::lineage::{self, DropCause, SpanOutcome, Stage};
    use turb_stats::Cdf;

    let top = spec.number("top", 10, 0..=usize::MAX)?;
    let mut configs = spec.pair_configs();
    for config in &mut configs {
        config.telemetry = true;
        config.lineage = true;
    }

    // Aggregates across runs (one run unless --corpus). Lineage dumps
    // are large, so runs go sequentially and each dump is freed before
    // the next run starts.
    let mut samples = lineage::StageSamples::default();
    // (e2e_ns, run, player, seq, media_ms, hops, outcome)
    let mut slowest: Vec<(u64, String, &'static str, u32, u32, usize, String)> = Vec::new();
    let mut drops: BTreeMap<(&'static str, String), u64> = BTreeMap::new();
    let mut mismatches: Vec<String> = Vec::new();
    let (mut spans, mut events, mut ring_dropped) = (0u64, 0u64, 0u64);
    let mut outcomes = (0u64, 0u64, 0u64, 0u64);

    for config in &configs {
        let result = turbulence::run_pair(config);
        let telemetry = result
            .telemetry
            .as_ref()
            .expect("telemetry was requested for this run");
        let label = telemetry.report.label.clone();
        let dump = telemetry
            .lineage
            .as_ref()
            .expect("lineage was requested for this run");
        dump.validate()
            .map_err(|e| format!("{label}: lineage dump inconsistent: {e}"))?;

        spans += dump.origins.len() as u64;
        events += dump.events.len() as u64;
        ring_dropped += dump.dropped;
        let (p, c, d, t) = dump.outcome_counts();
        outcomes = (
            outcomes.0 + p,
            outcomes.1 + c,
            outcomes.2 + d,
            outcomes.3 + t,
        );
        outln!(
            "{label}: {} spans, {} events | {p} played / {c} completed / {d} dropped / {t} truncated",
            dump.origins.len(),
            dump.events.len(),
        );

        let run = lineage::stage_samples(dump);
        samples.hop_ns.extend(run.hop_ns);
        samples.reasm_ns.extend(run.reasm_ns);
        samples.residency_ns.extend(run.residency_ns);
        samples.e2e_ns.extend(run.e2e_ns);

        for (span, origin) in dump.origins.iter().enumerate() {
            let Some(meta) = origin.meta else { continue };
            let tl = dump.timeline(span);
            let Some(end) = tl
                .first_time(|s| s == Stage::Buffered)
                .or_else(|| tl.first_time(|s| s == Stage::Delivered))
            else {
                continue;
            };
            let outcome = match tl.outcome {
                SpanOutcome::Dropped(cause) => format!("dropped:{}", cause.label()),
                other => other.label().to_string(),
            };
            slowest.push((
                end - origin.time_ns,
                label.clone(),
                turb_media::player_label(meta.player),
                meta.sequence,
                meta.media_time_ms,
                tl.hops(),
                outcome,
            ));
        }
        // Deterministic order: slowest first, run label and sequence
        // as tie-breakers; only the global top K is kept per run so
        // corpus mode stays bounded.
        slowest.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)).then(a.3.cmp(&b.3)));
        slowest.truncate(top);

        // The post-mortem must reconcile exactly: every cause's
        // Dropped events against its always-on simulator counter, and
        // every capture record against a Sniffed event. A dump whose
        // recorder cap evicted events can no longer account for
        // everything, so the reconciliation is only enforced on
        // complete dumps (the warning below calls this out).
        let pm = lineage::post_mortem(dump);
        for (cause, comp, n) in &pm.entries {
            *drops
                .entry((cause.label(), dump.component(*comp).to_string()))
                .or_insert(0) += n;
        }
        if dump.dropped == 0 {
            for cause in DropCause::ALL {
                let attributed = pm.cause_total(cause);
                let counted = telemetry.metrics.counter_total(cause.counter());
                if attributed != counted {
                    mismatches.push(format!(
                        "{label}: {} attributed {attributed} drops but {} counted {counted}",
                        cause.label(),
                        cause.counter(),
                    ));
                }
            }
            let sniffed = dump
                .events
                .iter()
                .filter(|e| e.stage == Stage::Sniffed)
                .count() as u64;
            if sniffed != telemetry.report.capture_records {
                mismatches.push(format!(
                    "{label}: {sniffed} sniffed lineage events vs {} capture records",
                    telemetry.report.capture_records,
                ));
            }
        }

        if let Some(path) = spec.text("perfetto") {
            let trace = lineage::to_chrome_trace(dump);
            std::fs::write(path, &trace).map_err(|e| format!("write {path}: {e}"))?;
            outln!(
                "perfetto: {} spans / {} events written to {path} (load at ui.perfetto.dev)",
                dump.origins.len(),
                dump.events.len(),
            );
        }
    }

    outln!(
        "\ntimeline: {spans} spans, {events} events | {} played / {} completed / {} dropped / {} truncated",
        outcomes.0, outcomes.1, outcomes.2, outcomes.3,
    );
    if ring_dropped > 0 {
        outln!(
            "warning: {ring_dropped} lineage events evicted by the recorder cap; \
             accounting below is partial and was not cross-checked"
        );
    }

    let rows: Vec<Vec<String>> = slowest
        .iter()
        .map(|(e2e, run, player, seq, media_ms, hops, outcome)| {
            vec![
                run.clone(),
                player.to_string(),
                seq.to_string(),
                media_ms.to_string(),
                format!("{:.3}", *e2e as f64 / 1e6),
                hops.to_string(),
                outcome.clone(),
            ]
        })
        .collect();
    if !rows.is_empty() {
        outln!(
            "{}",
            report::table(
                &format!("Top {} slowest media packets (send -> buffer)", rows.len()),
                &["run", "player", "seq", "media ms", "e2e ms", "hops", "outcome"],
                &rows
            )
        );
    }

    for (title, values) in [
        ("Per-hop latency CDF", &samples.hop_ns),
        ("Reassembly latency CDF", &samples.reasm_ns),
        ("Playback buffer residency CDF", &samples.residency_ns),
        ("End-to-end (send -> buffer) CDF", &samples.e2e_ns),
    ] {
        if values.is_empty() {
            continue;
        }
        let ms: Vec<f64> = values.iter().map(|ns| ns / 1e6).collect();
        outln!(
            "{}",
            report::cdf_quantiles(title, &Cdf::from_samples(&ms), "ms")
        );
    }

    let attributed: u64 = drops.values().sum();
    if drops.is_empty() {
        outln!("Drop post-mortem: no wire packets were dropped.");
    } else {
        let rows: Vec<Vec<String>> = drops
            .iter()
            .map(|((cause, comp), n)| vec![cause.to_string(), comp.clone(), n.to_string()])
            .collect();
        outln!(
            "{}",
            report::table(
                "Drop post-mortem",
                &["cause", "component", "packets"],
                &rows
            )
        );
        outln!("post-mortem: {attributed} dropped wire packets attributed");
    }
    if mismatches.is_empty() {
        outln!("cross-check: every drop cause and capture record reconciles with its counter");
        Ok(())
    } else {
        Err(format!(
            "drop post-mortem failed to reconcile:\n  {}",
            mismatches.join("\n  ")
        ))
    }
}

/// Render `values` as a sparkline at most `width` cells wide. Longer
/// series are downsampled by chunking, keeping each chunk's maximum so
/// short spikes stay visible at any zoom level.
fn sparkline(values: &[u64], width: usize) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    if values.is_empty() {
        return String::new();
    }
    let cells = width.min(values.len()).max(1);
    let mut chunks = Vec::with_capacity(cells);
    for i in 0..cells {
        let lo = i * values.len() / cells;
        let hi = (((i + 1) * values.len()) / cells).max(lo + 1);
        chunks.push(values[lo..hi].iter().copied().max().unwrap_or(0));
    }
    let max = chunks.iter().copied().max().unwrap_or(0);
    chunks
        .iter()
        .map(|&v| {
            if v == 0 || max == 0 {
                BARS[0]
            } else {
                // Ceiling-scale 1..=max onto 1..=8 so any non-zero
                // window is visibly above the baseline.
                let idx = ((v as u128 * 8).div_ceil(max as u128) as usize).min(8);
                BARS[idx - 1]
            }
        })
        .collect()
}

/// `turbulence watch`: per-window time-series view of a pair run or
/// the corpus — bandwidth in and out, loss by cause, queue depth,
/// playback buffer occupancy, and reassembly backlog as sparkline
/// curves over simulated time, with deterministic JSONL/CSV exports.
/// Windowed loss totals are cross-checked 1:1 against the always-on
/// drop counters before anything is printed.
pub fn watch(spec: &RunSpec) -> Result<(), String> {
    use turb_obs::lineage::DropCause;
    use turb_obs::timeseries::SeriesKind;

    // Absent means the recorder's default 1 s window; `max(1)` keeps the
    // shortest accepted width from truncating into that default.
    let window_ns = spec
        .opt_number("window", 1e-9..=1e9)?
        .map_or(0, |secs: f64| ((secs * 1e9) as u64).max(1));
    // A bare `--metrics` parses as "true" (the flag doubles as the
    // `pair` exposition switch); treat it as "no filter".
    let metric_filter: Vec<String> = spec
        .text("metrics")
        .filter(|list| *list != "true")
        .map(|list| {
            list.split(',')
                .map(|m| m.trim().to_string())
                .filter(|m| !m.is_empty())
                .collect()
        })
        .unwrap_or_default();

    let mut configs = spec.pair_configs();
    for config in &mut configs {
        config.telemetry = true;
        config.timeseries = true;
        config.ts_window_ns = window_ns;
    }
    let result = runner::run_configs_parallel(&configs, spec.threads);
    let metrics = result.aggregate_metrics();
    let mut dump = result
        .aggregate_series()
        .ok_or("no time-series were recorded")?;

    // Reconcile before any filtering: per-cause windowed loss totals
    // (which survive ring eviction) must match the always-on drop
    // counters exactly, and likewise for the bandwidth counters. A
    // mismatch means an event path bypassed its windowed hook.
    let mut mismatches: Vec<String> = Vec::new();
    for cause in DropCause::ALL {
        let windowed = dump.total_of(cause.counter());
        let counted = metrics.counter_total(cause.counter());
        if windowed != counted {
            mismatches.push(format!(
                "{}: windowed total {windowed} vs always-on counter {counted}",
                cause.counter(),
            ));
        }
    }
    for metric in ["link_tx_bytes_total", "node_rx_bytes_total"] {
        let windowed = dump.total_of(metric);
        let counted = metrics.counter_total(metric);
        if windowed != counted {
            mismatches.push(format!(
                "{metric}: windowed total {windowed} vs always-on counter {counted}"
            ));
        }
    }
    if !mismatches.is_empty() {
        return Err(format!(
            "windowed series failed to reconcile with always-on counters:\n  {}",
            mismatches.join("\n  ")
        ));
    }

    // `--metrics` narrows the view (substring match on metric names);
    // exports below carry the same narrowed view.
    if !metric_filter.is_empty() {
        dump.series
            .retain(|s| metric_filter.iter().any(|f| s.metric.contains(f)));
        if dump.series.is_empty() {
            return Err(format!(
                "--metrics {:?} matched no recorded series",
                metric_filter.join(",")
            ));
        }
    }

    // Exports carry the (possibly narrowed) view and happen before any
    // table rendering, so piping the report through `head` can never
    // truncate the files.
    if let Some(path) = spec.text("jsonl") {
        std::fs::write(path, dump.to_jsonl()).map_err(|e| format!("write {path}: {e}"))?;
        outln!(
            "watch: wrote {} series to {path} (JSONL)",
            dump.series.len()
        );
    }
    if let Some(path) = spec.text("csv") {
        std::fs::write(path, dump.to_csv()).map_err(|e| format!("write {path}: {e}"))?;
        outln!(
            "watch: wrote {} windows to {path} (CSV)",
            dump.window_count()
        );
    }

    let window_secs = dump.window_ns as f64 / 1e9;
    outln!(
        "watch: {} pair run{} (seed {}, {} worker thread{}) | {window_secs}s windows | {} series, {} retained windows (~{} KiB)",
        result.runs.len(),
        if result.runs.len() == 1 { "" } else { "s" },
        spec.seed,
        result.threads,
        if result.threads == 1 { "" } else { "s" },
        dump.series.len(),
        dump.window_count(),
        dump.memory_bytes() / 1024,
    );
    outln!("cross-check: every windowed loss and bandwidth total reconciles with its counter\n");

    let rows: Vec<Vec<String>> = dump
        .series
        .iter()
        .map(|s| {
            let peak = s.values.iter().copied().max().unwrap_or(0);
            let total = match s.kind {
                SeriesKind::Counter => s.total.to_string(),
                SeriesKind::Gauge => format!("max {}", s.total),
            };
            let evicted = if s.evicted > 0 {
                format!(" (+{} evicted)", s.evicted)
            } else {
                String::new()
            };
            vec![
                s.metric.clone(),
                s.component.clone(),
                total,
                format!("{peak}{evicted}"),
                sparkline(&s.values, 48),
            ]
        })
        .collect();
    outln!(
        "{}",
        report::table(
            &format!("Per-window series ({window_secs}s windows, newest right)"),
            &["metric", "component", "total", "peak/win", "curve"],
            &rows
        )
    );

    Ok(())
}
