//! `turbulence` — the workspace's command-line interface.
//!
//! `turbulence help` lists every command and flag; both come from the
//! tables in this file and [`spec::FLAGS`]. Each command accepts only
//! the flags it reads; any other flag is an error. Performance is
//! measured by the separate `turb-bench` harness
//! (`benchmark/README.md`).

use spec::{parse_flags, RunSpec, Shape, FLAGS};
use std::process::ExitCode;

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
mod spec;

/// A subcommand: its handler, one-line summary and every flag the
/// handler reads.
struct Command {
    name: &'static str,
    summary: &'static str,
    run: fn(&RunSpec) -> Result<(), String>,
    flags: &'static [&'static str],
}

/// Every command, in help order.
#[rustfmt::skip]
const COMMANDS: &[Command] = &[
    Command {
        name: "pair",
        summary: "run one clip pair with telemetry, summarise what both trackers measured and \
            print the run report",
        run: commands::pair,
        flags: &["seed", "set", "class", "loss", "engine", "background", "pcap", "rollups",
            "progress", "metrics"],
    },
    Command {
        name: "figures",
        summary: "run the corpus and print Table 1, Figures 1-15 and §IV, then the ablation \
            tables; with --sets, only the blocks any subset of data sets supports",
        run: commands::figures_cmd,
        flags: &["seed", "sets", "threads", "telemetry", "engine", "background", "progress"],
    },
    Command {
        name: "flowgen",
        summary: "fit a Section-IV turbulence model and export an ns-style trace",
        run: commands::flowgen,
        flags: &["seed", "set", "class", "player", "out"],
    },
    Command {
        name: "friendly",
        summary: "run the §VI TCP-friendliness sweep",
        run: commands::friendly,
        flags: &["seed", "kbps", "class"],
    },
    Command {
        name: "check",
        summary: "run the seeded wire-layer fuzz/differential campaign",
        run: commands::check,
        flags: &["seed", "iterations", "props", "replay", "write-failures"],
    },
    Command {
        name: "timeline",
        summary: "trace per-packet lifecycles: slowest packets, stage CDFs, drop post-mortem, \
            Perfetto export",
        run: commands::timeline,
        flags: &["seed", "set", "class", "corpus", "loss", "top", "perfetto"],
    },
    Command {
        name: "watch",
        summary: "per-window time-series view of a pair run or the corpus: bandwidth, loss by \
            cause, queue depth, buffer occupancy",
        run: commands::watch,
        flags: &["seed", "set", "class", "corpus", "sets", "threads", "loss", "window", "metrics",
            "jsonl", "csv", "engine", "background"],
    },
    Command {
        name: "scale",
        summary: "run the replicated-client scale scenario once and print its events and \
            digest; with hybrid background flows, also time the all-packet twin",
        run: commands::scale,
        flags: &["seed", "clients", "groups", "packets", "background", "engine", "progress"],
    },
    Command {
        name: "fleet",
        summary: "multiplex a session population (Poisson/MMPP arrivals, heavy-tailed lifetimes) \
            over the scale ring and print the heavy-traffic figures",
        run: commands::fleet,
        flags: &["seed", "sessions", "arrival", "duration-dist", "diurnal", "groups",
            "wmp-permille", "background", "engine", "lineage", "rollups", "sample-permille",
            "progress", "metrics"],
    },
    Command {
        name: "sessions",
        summary: "the fleet's session-level QoE view: per-class rollup summary and CDFs, top-K \
            worst sessions, sampled-lineage drill-down, deterministic JSONL/CSV export",
        run: commands::sessions,
        flags: &["seed", "sessions", "arrival", "duration-dist", "diurnal", "groups",
            "wmp-permille", "background", "engine", "lineage", "sample-permille", "progress",
            "top", "by", "session", "jsonl", "csv"],
    },
];

/// `head`, then `text` word-wrapped to 78 columns in a column of its
/// own (starting on the next line when `head` reaches into it).
fn wrap(out: &mut String, head: &str, text: &str) {
    let indent = " ".repeat(23);
    let mut line = format!("{head:<23}");
    if line.len() > 23 {
        out.push_str(&line);
        out.push('\n');
        line.clone_from(&indent);
    }
    for word in text.split_whitespace() {
        if line.len() > 23 && line.chars().count() + 1 + word.chars().count() > 78 {
            out.push_str(&line);
            out.push('\n');
            line.clone_from(&indent);
        }
        line.push(' ');
        line.push_str(word);
    }
    out.push_str(&line);
    out.push('\n');
}

/// `turbulence help`, generated from [`COMMANDS`] and [`FLAGS`].
fn usage() -> String {
    let mut out = String::from(
        "turbulence — reproduce 'MediaPlayer vs RealPlayer: A Comparison of Network Turbulence'\n\n\
         USAGE:\n    turbulence <command> [options]\n\nCOMMANDS:\n",
    );
    for command in COMMANDS {
        wrap(&mut out, &format!("    {}", command.name), command.summary);
    }
    wrap(&mut out, "    help", "print this text");
    out.push_str("\nOPTIONS (each with the commands that accept it):\n");
    for flag in FLAGS {
        let head = match flag.shape {
            Shape::Switch => format!("    --{}", flag.name),
            Shape::Value(v) => format!("    --{} {v}", flag.name),
            Shape::OptionalValue(v, _) => format!("    --{} [{v}]", flag.name),
        };
        let users: Vec<&str> = COMMANDS
            .iter()
            .filter(|c| c.flags.contains(&flag.name))
            .map(|c| c.name)
            .collect();
        wrap(
            &mut out,
            &head,
            &format!("{} [{}]", flag.help, users.join(" ")),
        );
    }
    out
}

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

/// Run the command named by `args[0]` with the flags that follow it:
/// parse them once into a [`RunSpec`], then hand that to the handler.
fn dispatch(args: &[String]) -> Result<(), String> {
    let Some(name) = args
        .first()
        .filter(|n| !matches!(n.as_str(), "help" | "--help" | "-h"))
    else {
        out!("{}", usage());
        return Ok(());
    };
    let command = COMMANDS
        .iter()
        .find(|c| c.name == name)
        .ok_or_else(|| format!("unknown command {name:?}; try `turbulence help`"))?;
    let spec = RunSpec::parse(command, parse_flags(&args[1..], command)?)?;
    (command.run)(&spec)
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
    use turb_media::RateClass;
    use turb_netsim::EngineKind;

    fn args(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    /// A command that reads every flag the parser tests use.
    const TEST: Command = Command {
        name: "test",
        summary: "",
        run: |_| Ok(()),
        flags: &["seed", "set", "telemetry", "metrics"],
    };

    /// Parse `argv` as `dispatch` does, without running the command.
    fn spec(argv: &str) -> Result<RunSpec, String> {
        let words = args(&argv.split_whitespace().collect::<Vec<_>>());
        let command = COMMANDS.iter().find(|c| c.name == words[0]).unwrap();
        RunSpec::parse(command, parse_flags(&words[1..], command)?)
    }

    /// An argv and what its parsed `RunSpec` must satisfy.
    type Case = (&'static str, fn(&RunSpec) -> bool);

    /// Table-driven check of the `RunSpec` parser: each accepted argv
    /// must satisfy its predicate, each rejected one must be an error.
    fn assert_spec(accepted: &[Case], rejected: &[&str]) {
        for (argv, holds) in accepted {
            let parsed = spec(argv).unwrap_or_else(|e| panic!("{argv}: {e}"));
            assert!(holds(&parsed), "{argv}: parsed to the wrong value");
        }
        for argv in rejected {
            assert!(spec(argv).is_err(), "{argv}: accepted");
        }
    }

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
        // No command partitions its simulation, so none takes --shards.
        for (argv, command) in [
            (&["watch", "--set", "2", "--shards", "4"][..], "watch"),
            (&["scale", "--shards", "8"], "scale"),
            (&["fleet", "--shards", "2"], "fleet"),
            (&["sessions", "--shards", "2"], "sessions"),
        ] {
            assert_eq!(
                dispatch(&args(argv)),
                Err(format!("unknown flag --shards for {command}"))
            );
        }
        assert_eq!(
            dispatch(&args(&["figures", "--sheds", "4"])),
            Err("unknown flag --sheds for figures".to_string())
        );
        // `pair` always collects telemetry, and the Perfetto export has
        // one way in, `timeline --perfetto`.
        assert_eq!(
            dispatch(&args(&["pair", "--set", "2", "--telemetry"])),
            Err("unknown flag --telemetry for pair".to_string())
        );
        assert_eq!(
            dispatch(&args(&["timeline", "--set", "2", "--trace", "t.json"])),
            Err("unknown flag --trace for timeline".to_string())
        );
    }

    #[test]
    fn bench_is_not_a_command() {
        let err = dispatch(&args(&["bench", "--quick"])).unwrap_err();
        assert!(err.starts_with("unknown command \"bench\""), "{err}");
        // Retired: `figures` and `pair` do their work.
        for name in ["corpus", "obs", "ping"] {
            let err = dispatch(&args(&[name, "--seed", "7"])).unwrap_err();
            assert!(
                err.starts_with(&format!("unknown command {name:?}")),
                "{err}"
            );
        }
    }

    #[test]
    fn seed_defaults_to_42() {
        assert_spec(
            &[
                ("figures", |s| s.seed == 42),
                ("figures --seed 9", |s| s.seed == 9),
            ],
            &["figures --seed x", "figures --seed -1"],
        );
    }

    #[test]
    fn class_parses_all_spellings() {
        assert_spec(
            &[
                ("friendly", |s| s.class == RateClass::High),
                ("friendly --class low", |s| s.class == RateClass::Low),
                ("friendly --class vh", |s| s.class == RateClass::VeryHigh),
                ("friendly --class veryhigh", |s| {
                    s.class == RateClass::VeryHigh
                }),
                ("friendly --class very-high", |s| {
                    s.class == RateClass::VeryHigh
                }),
            ],
            &["friendly --class medium"],
        );
    }

    #[test]
    fn pair_of_validates_set_and_class() {
        assert_spec(
            &[
                ("pair --set 5 --class low", |s| {
                    s.pair
                        .as_ref()
                        .is_some_and(|(set, pair)| *set == 5 && pair.real.encoded_kbps == 22.0)
                }),
                ("watch --corpus", |s| s.pair.is_none() && s.corpus),
                ("figures --sets 1,2", |s| s.sets == Some(vec![1, 2])),
            ],
            &[
                "pair",
                "pair --set 9",
                "pair --set 0",
                "pair --set 1 --class vh",
                "watch --set 2 --sets 3",
                "figures --sets 1,7",
                "timeline --corpus --perfetto t.json",
            ],
        );
    }

    #[test]
    fn loss_and_groups_are_range_checked() {
        assert_spec(
            &[
                ("pair --set 2", |s| s.loss.is_none()),
                ("watch --set 2 --loss 0.05", |s| s.loss == Some(0.05)),
                ("timeline --set 2 --loss 1", |s| s.loss == Some(1.0)),
                ("fleet --groups 2", |s| s.groups == Some(2)),
                ("scale --groups 64", |s| s.groups == Some(64)),
            ],
            &[
                "pair --set 2 --loss 1.5",
                "pair --set 2 --loss -0.1",
                "pair --set 2 --loss NaN",
                "fleet --groups 1",
                "scale --groups 65",
            ],
        );
    }

    #[test]
    fn every_accepted_flag_has_one_table_entry_and_every_entry_is_accepted() {
        for command in COMMANDS {
            for name in command.flags {
                let entries = FLAGS.iter().filter(|f| f.name == *name).count();
                assert_eq!(
                    entries, 1,
                    "--{name} ({}) needs one FLAGS entry",
                    command.name
                );
            }
        }
        for flag in FLAGS {
            assert!(
                COMMANDS.iter().any(|c| c.flags.contains(&flag.name)),
                "--{} is accepted by no command",
                flag.name
            );
        }
    }

    /// The commands `turbulence help` lists under `--flag`.
    fn listed_commands(flag: &str) -> Vec<String> {
        let usage = usage();
        let section: String = usage
            .lines()
            .skip_while(|l| l.split_whitespace().next() != Some(&format!("--{flag}")))
            .enumerate()
            .take_while(|(i, l)| *i == 0 || !l.starts_with("    --"))
            .map(|(_, l)| format!("{l} "))
            .collect();
        let open = section.rfind('[').expect("a command list");
        let close = section.rfind(']').expect("a command list");
        section[open + 1..close]
            .split_whitespace()
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn help_lists_exactly_the_commands_that_accept_each_flag() {
        for flag in FLAGS {
            let accepting: Vec<String> = COMMANDS
                .iter()
                .filter(|c| c.flags.contains(&flag.name))
                .map(|c| c.name.to_string())
                .collect();
            assert_eq!(listed_commands(flag.name), accepting, "--{}", flag.name);
        }
        // Only the commands that fan whole pair runs out read --threads.
        assert_eq!(listed_commands("threads"), ["figures", "watch"]);
        // Commands a hand-written help once left out for these flags.
        for (flag, command) in [
            ("metrics", "fleet"),
            ("class", "friendly"),
            ("loss", "watch"),
            ("loss", "timeline"),
            ("set", "watch"),
        ] {
            assert!(
                listed_commands(flag).iter().any(|c| c == command),
                "help omits {command} under --{flag}"
            );
        }
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
    fn threads_defaults_to_auto_and_accepts_explicit_counts() {
        // 0 = auto; the runner resolves it against the job count so a
        // 13-run corpus on a 4-core host gets 4 workers, not 1.
        assert_spec(
            &[
                ("figures", |s| s.threads == 0),
                ("figures --threads 0", |s| s.threads == 0),
                ("figures --threads 4", |s| s.threads == 4),
            ],
            &["figures --threads lots"],
        );
    }

    #[test]
    fn engine_parses_both_engines_and_defaults_to_packet() {
        assert_spec(
            &[
                ("scale", |s| s.engine == EngineKind::Packet),
                ("scale --engine packet", |s| s.engine == EngineKind::Packet),
                ("fleet --engine hybrid", |s| s.engine == EngineKind::Hybrid),
            ],
            &["fleet --engine fluid"],
        );
    }

    #[test]
    fn background_defaults_to_zero() {
        assert_spec(
            &[
                ("figures", |s| s.background == 0),
                ("figures --background 10000", |s| s.background == 10_000),
            ],
            &["figures --background -3"],
        );
        // The fleet reads it as a per-1000 share of the population.
        let fleet = |argv| spec(argv).and_then(|s| s.fleet_config());
        assert_eq!(fleet("fleet").unwrap().background_permille, 250);
        assert_eq!(
            fleet("fleet --background 0").unwrap().background_permille,
            0
        );
        assert!(fleet("fleet --background 1001").is_err());
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
        let command = |name| COMMANDS.iter().find(|c| c.name == name).unwrap();
        // `watch --metrics tx,loss` consumes the list as a value...
        let watch = args(&["--metrics", "tx,loss", "--seed", "7"]);
        let parsed = parse_flags(&watch, command("watch")).unwrap();
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("tx,loss"));
        assert_eq!(parsed.get("seed").map(String::as_str), Some("7"));
        // ...while `pair --metrics --pcap t.pcap` stays a bare switch...
        let pair = args(&["--metrics", "--pcap", "t.pcap"]);
        let parsed = parse_flags(&pair, command("pair")).unwrap();
        assert_eq!(parsed.get("metrics").map(String::as_str), Some("true"));
        assert_eq!(parsed.get("pcap").map(String::as_str), Some("t.pcap"));
        // ...and a command that reads no value rejects one.
        assert_eq!(
            parse_flags(&args(&["--metrics", "dropped"]), command("pair")),
            Err("--metrics takes no value for pair, got \"dropped\"".to_string())
        );
    }
}
