//! `turbulence` — the workspace's command-line interface.
//!
//! ```text
//! turbulence corpus     [--seed N] [--sets 1,2,5]     full corpus: Table 1 and
//!                       [--threads N] [--telemetry]   the headline figures
//! turbulence pair       --set N --class low|high|vh   one pair run, summarised
//!                       [--seed N] [--pcap FILE] [--loss P] [--telemetry]
//! turbulence obs        --set N [--class C] [--seed N] [--loss P]
//!                       [--metrics] [--trace FILE]    one pair run, telemetry report
//! turbulence figures    [--seed N] [--threads N]      Table 1, Figures 1-15, §IV
//!                                                     and the ablations: every data row
//! turbulence flowgen    --set N --class C --player real|wmp
//!                       [--seed N] [--out FILE]       fit, generate, validate, export
//! turbulence friendly   [--kbps N,...] [--seed N]     §VI TCP-friendliness sweep
//! turbulence ping       [--seed N]                    path check against all six sites
//! turbulence check      [--iterations N] [--seed N]   wire-layer fuzz/differential campaign
//!                       [--props a,b] [--replay FILE]
//!                       [--write-failures DIR]
//! turbulence timeline   --set N [--class C] | --corpus
//!                       [--seed N] [--loss P] [--top K] per-packet lifecycle analysis:
//!                       [--perfetto FILE]             slowest packets, stage CDFs,
//!                                                     drop post-mortem, trace export
//! turbulence watch      --set N [--class C] | --corpus
//!                       [--seed N] [--loss P]         per-window tables + sparklines:
//!                       [--window SECS] [--metrics M,M] bandwidth, loss by cause,
//!                       [--jsonl FILE] [--csv FILE]   queue depth, buffer occupancy,
//!                       [--threads N] [--sets 1,2]    reassembly backlog
//! turbulence scale      [--seed N] [--shards N]       replicated-client scale run,
//!                       [--clients N] [--groups N]    sequential vs sharded, with
//!                       [--packets N] [--background N] byte-identity check + speedup;
//!                       [--engine packet|hybrid]      fluid background population
//! turbulence fleet      [--sessions N] [--arrival A]  session population over the
//!                       [--duration-dist D] [--diurnal] scale ring: Poisson/MMPP
//!                       [--groups N] [--background N] arrivals, Pareto lifetimes,
//!                       [--engine E] [--shards N]     heavy-traffic figures
//!                       [--threads N] [--lineage]
//!                       [--rollups] [--progress]
//! turbulence sessions   [fleet options] [--top K]     fleet-scale session QoE:
//!                       [--by loss,rebuffer,...]      per-class CDFs, top-K worst
//!                       [--session ID]                sessions, sampled-lineage
//!                       [--jsonl FILE] [--csv FILE]   drill-down, rollup export
//!                       [--sample-permille N]
//! ```
//!
//! Each command accepts only the flags it reads; any other flag is an
//! error. Performance is measured by the separate `turb-bench` harness
//! (`benchmark/README.md`).

use std::collections::HashMap;
use std::process::ExitCode;
use turb_media::{corpus, RateClass};
use turb_netsim::{EngineKind, ShardKind};

/// `print!` for command output. A reader that closes stdout early
/// (`| head`, `| true`) ends the output quietly instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!($($arg)*))
    };
}

/// `println!` counterpart of [`out!`].
macro_rules! outln {
    () => {
        $crate::write_stdout(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(format_args!("{}\n", format_args!($($arg)*)))
    };
}

mod ablations;
mod commands;
mod paper;

type Flags = HashMap<String, String>;

fn usage() -> &'static str {
    "turbulence — reproduce 'MediaPlayer vs RealPlayer: A Comparison of Network Turbulence'

USAGE:
    turbulence <command> [options]

COMMANDS:
    corpus      run the full 26-clip corpus and print Table 1 and the
                headline figures
    pair        run one clip pair and summarise what both trackers measured
    obs         run one clip pair with telemetry and print the run report
    figures     run the corpus and print Table 1, Figures 1-15 and §IV,
                then the ablation tables
    flowgen     fit a Section-IV turbulence model and export an ns-style trace
    friendly    run the §VI TCP-friendliness sweep
    ping        check the simulated paths to all six server sites
    check       run the seeded wire-layer fuzz/differential campaign
    timeline    trace per-packet lifecycles: slowest packets, stage CDFs,
                drop post-mortem, Perfetto export
    watch       per-window time-series view of a pair run or the corpus:
                bandwidth, loss by cause, queue depth, buffer occupancy
    scale       run the replicated-client scale scenario sequentially and
                sharded, assert byte-identity, report the speedup
    fleet       multiplex a session population (Poisson/MMPP arrivals,
                heavy-tailed lifetimes) over the scale ring and print
                the heavy-traffic figures
    sessions    the fleet's session-level QoE view: per-class rollup
                summary and CDFs, top-K worst sessions, sampled-lineage
                drill-down, deterministic JSONL/CSV export
    help        print this text

OPTIONS (per command):
    --seed N            deterministic seed (default 42)
    --sets 1,2,5        corpus/watch: restrict to these data sets
    --set N             pair/obs/flowgen: data set number (1-6)
    --class C           pair/obs/flowgen: low | high | vh (default high)
    --player P          flowgen: real | wmp (default real)
    --pcap FILE         pair: write the client capture as a pcap file
    --loss P            pair/obs: Bernoulli loss (0..=1) on the access link
    --telemetry         pair/corpus: collect and print the telemetry report
    --threads N         corpus/figures/watch: worker threads fanning
                        *whole pair runs* across a pool (default 0 = auto:
                        min(available cores, runs); 1 runs sequentially);
                        fleet/sessions: threads generating the population
    --shards N          scale/fleet/sessions: parallelise
                        inside one simulation by partitioning it into N
                        shard domains, one worker thread per domain
                        (default: sequential, or one domain per ring
                        group for scale; results are byte-identical at
                        every N; N may not exceed the node count)
    --metrics           obs: also print Prometheus-style metrics exposition
    --trace FILE        obs: record lineage and write it as Perfetto
                        (Chrome-trace) JSON, as timeline --perfetto does
    --out FILE          flowgen: trace output path (default stdout)
    --kbps N,N,...      friendly: bottleneck sweep in Kbit/s
    --set N, --class C  timeline: one pair run (or --corpus for all)
    --corpus            timeline: trace every corpus run sequentially
    --top N             timeline: slowest-packet table size (default 10)
    --perfetto FILE     timeline: write the Chrome-trace JSON export
                        (single-run mode only)
    --window SECS       watch: window width in simulated seconds
                        (default 1; fractions allowed)
    --metrics M,M       watch: restrict the view to these metric names
                        (substring match; default: all recorded series)
    --jsonl FILE        watch: export the raw series as JSON Lines
    --csv FILE          watch: export the long-format per-window CSV
    --clients N         scale: client hosts per group (default 256)
    --groups N          scale/fleet: site groups on the ring (default 8)
    --packets N         scale: datagrams each client sends (default 40)
    --sessions N        fleet/sessions: population size (default 1000)
    --arrival A         fleet: arrival process, poisson:RATE or
                        mmpp:FAST,SLOW,DWELL in sessions/s (default
                        poisson:200)
    --duration-dist D   fleet: session lifetimes, pareto:XM,ALPHA or
                        fixed:SECS (default pareto:2,1.5)
    --diurnal           fleet: thin arrivals by the compressed diurnal
                        load curve (one cycle per 10 simulated minutes)
    --wmp-permille N    fleet: MediaPlayer share per 1000 sessions
                        (default 500; the rest are RealPlayer-like)
    --lineage           fleet/sessions: record full packet lineage for
                        every session (figures are identical either way;
                        overrides the sampler)
    --rollups           fleet/obs: accumulate per-session QoE rollups
                        (≤128 B/session) and print the per-class summary
    --sample-permille N fleet/sessions: sessions per 1000 whose packets
                        get full lineage, hash-selected from the seed
                        (default 10; thread/shard/engine invariant)
    --progress          fleet/sessions/scale/corpus/obs: heartbeat
                        line on stderr every few seconds (sim time,
                        events/s, sessions live/done, RSS, ETA); stderr
                        only — never part of the byte-identity set
    --top K             sessions: worst-session table size (default 10)
    --by TERMS          sessions: badness ranking key — comma-separated
                        loss|rebuffer|startup|goodput, each optionally
                        =weight (default loss,rebuffer,startup)
    --session ID        sessions: print the sampled session's per-packet
                        lineage timeline
    --jsonl FILE        sessions: export every rollup as JSON Lines
    --csv FILE          sessions: export every rollup as CSV
    --engine E          corpus/pair/obs/figures/watch/scale/fleet: how
                        background flows are simulated, packet | hybrid
                        (default packet; hybrid lowers them onto the
                        fluid max-min solver — zero events per flow,
                        and with --background 0 results stay
                        byte-identical to the packet engine)
    --background N      corpus/pair/obs/figures/watch/scale/fleet:
                        background flows sharing the path (default 0;
                        scale: bulk flows over the backbone ring;
                        fleet: background-class sessions per 1000)
    --iterations N      check: cases per property (default 1000)
    --props a,b         check: restrict to these properties
    --replay FILE       check: re-run one stored .case file instead
    --write-failures D  check: directory for failing-case files
                        (default check-failures)
"
}

/// Flags that stand alone (no value); parsed as `flag=true`.
const BOOLEAN_FLAGS: &[&str] = &[
    "telemetry",
    "corpus",
    "diurnal",
    "lineage",
    "rollups",
    "progress",
];

/// Flags that take a value when one follows but also stand alone:
/// `obs --metrics` prints the full exposition, while
/// `watch --metrics tx,loss` narrows the view to matching series.
const OPTIONAL_VALUE_FLAGS: &[&str] = &["metrics"];

/// Minimal flag parser: `--key value` pairs after the subcommand, plus
/// the bare boolean flags in [`BOOLEAN_FLAGS`]. Fails closed on any
/// flag outside `command`'s list, so a typo or a retired knob never
/// runs silently on the defaults.
fn parse_flags(args: &[String], command: &Command) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        if !command.flags.contains(&key) {
            return Err(format!("unknown flag --{key} for {}", command.name));
        }
        if BOOLEAN_FLAGS.contains(&key) {
            flags.insert(key.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        if OPTIONAL_VALUE_FLAGS.contains(&key) {
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    flags.insert(key.to_string(), value.clone());
                    i += 2;
                }
                None => {
                    flags.insert(key.to_string(), "true".to_string());
                    i += 1;
                }
            }
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn seed_of(flags: &Flags) -> Result<u64, String> {
    match flags.get("seed") {
        None => Ok(42),
        Some(s) => s.parse().map_err(|_| format!("bad seed {s:?}")),
    }
}

/// `--threads N`, defaulting to `0` = auto: the runner resolves it to
/// `min(available cores, jobs)`, so a 13-run corpus never spawns more
/// workers than it has runs to fill them with.
fn threads_of(flags: &Flags) -> Result<usize, String> {
    match flags.get("threads") {
        None => Ok(0),
        Some(s) => s.parse().map_err(|_| format!("bad --threads {s:?}")),
    }
}

/// `--shards N` (scale, fleet, sessions): partition the simulation into
/// N shard domains with one worker thread per domain. Absent means
/// sequential; `--shards 1` runs the partitioned engine with a single
/// domain, which is useful for overhead measurements.
fn shards_of(flags: &Flags) -> Result<ShardKind, String> {
    match flags.get("shards") {
        None => Ok(ShardKind::Sequential),
        Some(s) => {
            let n: u16 = s.parse().map_err(|_| format!("bad --shards {s:?}"))?;
            if n == 0 {
                return Err("--shards must be at least 1 (omit it to run sequentially)".into());
            }
            Ok(ShardKind::Sharded(n))
        }
    }
}

/// `--engine packet|hybrid`: how background flows are simulated. The
/// all-packet engine is the default; the hybrid engine lowers
/// background flows onto the fluid max-min solver.
fn engine_of(flags: &Flags) -> Result<EngineKind, String> {
    match flags.get("engine") {
        None => Ok(EngineKind::Packet),
        Some(s) => {
            EngineKind::parse(s).ok_or_else(|| format!("unknown engine {s:?} (packet|hybrid)"))
        }
    }
}

/// `--background N`: background flows sharing the foreground's path.
fn background_of(flags: &Flags) -> Result<u32, String> {
    match flags.get("background") {
        None => Ok(0),
        Some(s) => s.parse().map_err(|_| format!("bad --background {s:?}")),
    }
}

fn class_of(flags: &Flags) -> Result<RateClass, String> {
    match flags.get("class").map(String::as_str) {
        None | Some("high") => Ok(RateClass::High),
        Some("low") => Ok(RateClass::Low),
        Some("vh") | Some("veryhigh") | Some("very-high") => Ok(RateClass::VeryHigh),
        Some(other) => Err(format!("unknown class {other:?} (low|high|vh)")),
    }
}

fn pair_of(flags: &Flags) -> Result<(u8, turb_media::ClipPair), String> {
    let set: u8 = flags
        .get("set")
        .ok_or("--set is required")?
        .parse()
        .map_err(|_| "bad --set".to_string())?;
    let class = class_of(flags)?;
    let sets = corpus::table1();
    let data_set = sets
        .iter()
        .find(|s| s.id == set)
        .ok_or_else(|| format!("data set {set} does not exist (1-6)"))?;
    let pair = data_set
        .pair(class)
        .ok_or_else(|| format!("set {set} has no {class:?} pair"))?;
    Ok((set, pair.clone()))
}

/// A subcommand: its handler and every flag the handler reads.
struct Command {
    name: &'static str,
    run: fn(&Flags) -> Result<(), String>,
    flags: &'static [&'static str],
}

const COMMANDS: &[Command] = &[
    Command {
        name: "corpus",
        run: commands::corpus,
        flags: &[
            "seed",
            "sets",
            "threads",
            "telemetry",
            "engine",
            "background",
            "progress",
        ],
    },
    Command {
        name: "pair",
        run: commands::pair,
        flags: &[
            "seed",
            "set",
            "class",
            "loss",
            "telemetry",
            "engine",
            "background",
            "pcap",
        ],
    },
    Command {
        name: "obs",
        run: commands::obs,
        flags: &[
            "seed",
            "set",
            "class",
            "loss",
            "engine",
            "background",
            "rollups",
            "progress",
            "metrics",
            "trace",
        ],
    },
    Command {
        name: "figures",
        run: commands::figures_cmd,
        flags: &["seed", "threads", "engine", "background"],
    },
    Command {
        name: "flowgen",
        run: commands::flowgen,
        flags: &["seed", "set", "class", "player", "out"],
    },
    Command {
        name: "friendly",
        run: commands::friendly,
        flags: &["seed", "kbps", "class"],
    },
    Command {
        name: "ping",
        run: commands::ping,
        flags: &["seed"],
    },
    Command {
        name: "check",
        run: commands::check,
        flags: &["seed", "iterations", "props", "replay", "write-failures"],
    },
    Command {
        name: "timeline",
        run: commands::timeline,
        flags: &["seed", "set", "class", "corpus", "loss", "top", "perfetto"],
    },
    Command {
        name: "watch",
        run: commands::watch,
        flags: &[
            "seed",
            "set",
            "class",
            "corpus",
            "sets",
            "threads",
            "loss",
            "window",
            "metrics",
            "jsonl",
            "csv",
            "engine",
            "background",
        ],
    },
    Command {
        name: "scale",
        run: commands::scale,
        flags: &[
            "seed",
            "clients",
            "groups",
            "packets",
            "background",
            "engine",
            "shards",
            "progress",
        ],
    },
    Command {
        name: "fleet",
        run: commands::fleet,
        flags: &[
            "seed",
            "sessions",
            "arrival",
            "duration-dist",
            "diurnal",
            "groups",
            "wmp-permille",
            "background",
            "engine",
            "shards",
            "threads",
            "lineage",
            "rollups",
            "sample-permille",
            "progress",
            "metrics",
        ],
    },
    Command {
        name: "sessions",
        run: commands::sessions,
        flags: &[
            "seed",
            "sessions",
            "arrival",
            "duration-dist",
            "diurnal",
            "groups",
            "wmp-permille",
            "background",
            "engine",
            "shards",
            "threads",
            "lineage",
            "sample-permille",
            "progress",
            "top",
            "by",
            "session",
            "jsonl",
            "csv",
        ],
    },
];

/// Unwind payload for a stdout whose reader has gone; `main` turns it
/// into a clean exit.
struct StdoutClosed;

/// Write command output to stdout. A broken pipe unwinds with
/// [`StdoutClosed`] through `resume_unwind`, which skips the panic
/// hook, so the shell sees neither panic text nor an error.
fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    match std::io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::BrokenPipe => {
            std::panic::resume_unwind(Box::new(StdoutClosed))
        }
        Err(e) => panic!("failed printing to stdout: {e}"),
    }
}

/// Run the command named by `args[0]` with the flags that follow it.
fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(name) = args.first() else {
        out!("{}", usage());
        return Ok(());
    };
    if matches!(name.as_str(), "help" | "--help" | "-h") {
        out!("{}", usage());
        return Ok(());
    }
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `turbulence help`"))?;
    let flags = parse_flags(&args[1..], command)?;
    (command.run)(&flags)
}

fn main() -> ExitCode {
    // A panic anywhere below (simulator invariant violation, slice
    // index, poisoned lock) must still leave the shell a nonzero exit
    // code and a readable message, not a raw backtrace dump.
    let args: Vec<String> = std::env::args().skip(1).collect();
    match std::panic::catch_unwind(|| dispatch(&args)) {
        Ok(Ok(())) => ExitCode::SUCCESS,
        Ok(Err(message)) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
        Err(panic) if panic.is::<StdoutClosed>() => ExitCode::SUCCESS,
        Err(panic) => {
            let message = panic
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| panic.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "unknown internal error".to_string());
            eprintln!("error: internal failure: {message}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(pairs: &[(&str, &str)]) -> Flags {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    /// A command that reads every flag the parser tests use.
    const TEST: Command = Command {
        name: "test",
        run: |_| Ok(()),
        flags: &["seed", "set", "telemetry", "metrics", "trace"],
    };

    #[test]
    fn parse_flags_accepts_key_value_pairs() {
        let parsed = parse_flags(&args(&["--seed", "7", "--set", "3"]), &TEST).unwrap();
        assert_eq!(parsed.get("seed").map(String::as_str), Some("7"));
        assert_eq!(parsed.get("set").map(String::as_str), Some("3"));
    }

    #[test]
    fn parse_flags_rejects_bare_values_and_dangling_flags() {
        assert!(parse_flags(&args(&["seed"]), &TEST).is_err());
        assert!(parse_flags(&args(&["--seed"]), &TEST).is_err());
    }

    #[test]
    fn flags_a_command_does_not_read_are_errors() {
        assert_eq!(
            dispatch(&args(&["pair", "--set", "2", "--scheduler", "heap"])),
            Err("unknown flag --scheduler for pair".to_string())
        );
        assert_eq!(
            dispatch(&args(&["watch", "--set", "2", "--shards", "4"])),
            Err("unknown flag --shards for watch".to_string())
        );
        assert_eq!(
            dispatch(&args(&["corpus", "--sheds", "4"])),
            Err("unknown flag --sheds for corpus".to_string())
        );
    }

    #[test]
    fn bench_is_not_a_command() {
        let err = dispatch(&args(&["bench", "--quick"])).unwrap_err();
        assert!(err.starts_with("unknown command \"bench\""), "{err}");
    }

    #[test]
    fn seed_defaults_to_42() {
        assert_eq!(seed_of(&flags(&[])).unwrap(), 42);
        assert_eq!(seed_of(&flags(&[("seed", "9")])).unwrap(), 9);
        assert!(seed_of(&flags(&[("seed", "x")])).is_err());
    }

    #[test]
    fn class_parses_all_spellings() {
        assert_eq!(class_of(&flags(&[])).unwrap(), RateClass::High);
        assert_eq!(
            class_of(&flags(&[("class", "low")])).unwrap(),
            RateClass::Low
        );
        for vh in ["vh", "veryhigh", "very-high"] {
            assert_eq!(
                class_of(&flags(&[("class", vh)])).unwrap(),
                RateClass::VeryHigh
            );
        }
        assert!(class_of(&flags(&[("class", "medium")])).is_err());
    }

    #[test]
    fn pair_of_validates_set_and_class() {
        let (set, pair) = pair_of(&flags(&[("set", "5"), ("class", "low")])).unwrap();
        assert_eq!(set, 5);
        assert_eq!(pair.real.encoded_kbps, 22.0);
        assert!(pair_of(&flags(&[])).is_err(), "--set required");
        assert!(pair_of(&flags(&[("set", "9")])).is_err(), "no set 9");
        assert!(
            pair_of(&flags(&[("set", "1"), ("class", "vh")])).is_err(),
            "set 1 has no very-high pair"
        );
    }

    #[test]
    fn usage_names_every_command_and_flag() {
        for command in COMMANDS {
            assert!(
                usage().contains(command.name),
                "{} missing from usage",
                command.name
            );
            for flag in command.flags {
                assert!(
                    usage().contains(&format!("--{flag}")),
                    "--{flag} ({}) missing from usage",
                    command.name
                );
            }
        }
    }

    #[test]
    fn shards_defaults_to_sequential_and_rejects_zero() {
        assert_eq!(shards_of(&flags(&[])).unwrap(), ShardKind::Sequential);
        assert_eq!(
            shards_of(&flags(&[("shards", "4")])).unwrap(),
            ShardKind::Sharded(4)
        );
        assert_eq!(
            shards_of(&flags(&[("shards", "1")])).unwrap(),
            ShardKind::Sharded(1)
        );
        assert!(shards_of(&flags(&[("shards", "0")])).is_err());
        assert!(shards_of(&flags(&[("shards", "many")])).is_err());
    }

    #[test]
    fn usage_disambiguates_threads_from_shards() {
        // The two parallelism axes must each explain themselves in
        // terms of the other.
        assert!(usage().contains("whole pair runs"));
        assert!(usage().contains("inside one simulation"));
    }

    #[test]
    fn threads_defaults_to_auto_and_accepts_explicit_counts() {
        // 0 = auto; the runner resolves it against the job count so a
        // 13-run corpus on a 4-core host gets 4 workers, not 1.
        assert_eq!(threads_of(&flags(&[])).unwrap(), 0);
        assert_eq!(threads_of(&flags(&[("threads", "0")])).unwrap(), 0);
        assert_eq!(threads_of(&flags(&[("threads", "4")])).unwrap(), 4);
        assert!(threads_of(&flags(&[("threads", "lots")])).is_err());
    }

    #[test]
    fn engine_parses_both_engines_and_defaults_to_packet() {
        assert_eq!(engine_of(&flags(&[])).unwrap(), EngineKind::Packet);
        assert_eq!(
            engine_of(&flags(&[("engine", "packet")])).unwrap(),
            EngineKind::Packet
        );
        assert_eq!(
            engine_of(&flags(&[("engine", "hybrid")])).unwrap(),
            EngineKind::Hybrid
        );
        assert!(engine_of(&flags(&[("engine", "fluid")])).is_err());
    }

    #[test]
    fn background_defaults_to_zero() {
        assert_eq!(background_of(&flags(&[])).unwrap(), 0);
        assert_eq!(
            background_of(&flags(&[("background", "10000")])).unwrap(),
            10_000
        );
        assert!(background_of(&flags(&[("background", "-3")])).is_err());
    }

    #[test]
    fn boolean_flags_need_no_value() {
        let parsed =
            parse_flags(&args(&["--telemetry", "--seed", "7", "--metrics"]), &TEST).unwrap();
        assert_eq!(parsed.get("telemetry").map(String::as_str), Some("true"));
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("true"));
        assert_eq!(parsed.get("seed").map(String::as_str), Some("7"));
    }

    #[test]
    fn metrics_flag_takes_an_optional_value() {
        // `watch --metrics tx,loss` consumes the list as a value...
        let parsed = parse_flags(&args(&["--metrics", "tx,loss", "--seed", "7"]), &TEST).unwrap();
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("tx,loss"));
        assert_eq!(parsed.get("seed").map(String::as_str), Some("7"));
        // ...while `obs --metrics --trace t.jsonl` stays a bare switch.
        let parsed = parse_flags(&args(&["--metrics", "--trace", "t.jsonl"]), &TEST).unwrap();
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("true"));
        assert_eq!(parsed.get("trace").map(String::as_str), Some("t.jsonl"));
    }
}
