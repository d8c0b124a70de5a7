//! The one way in: every flag's entry in [`FLAGS`], the fail-closed
//! parser that reads it, and [`RunSpec`], the typed, range-checked
//! run parameters each command handler receives.

use std::collections::HashMap;
use std::fmt::Display;
use std::ops::RangeInclusive;
use std::str::FromStr;
use turb_media::{corpus, ClipPair, RateClass};
use turb_netsim::EngineKind;
use turbulence::{runner, FleetRunConfig, PairRunConfig};

use crate::Command;

/// Raw `--key value` pairs as parsed, before any value is checked.
pub type Flags = HashMap<String, String>;

/// How a flag takes its value.
#[derive(Clone, Copy)]
pub enum Shape {
    /// Stands alone; parsed as `flag=true`.
    Switch,
    /// Always followed by a value, shown in help as the given name.
    Value(&'static str),
    /// Stands alone, or on the listed commands takes a value when one
    /// follows: `pair --metrics` prints the full exposition, while
    /// `watch --metrics tx,loss` narrows the view to matching series.
    OptionalValue(&'static str, &'static [&'static str]),
}

/// One flag: its name, value shape and help text. Which commands
/// accept it is their own [`Command::flags`] list.
pub struct Flag {
    pub name: &'static str,
    pub shape: Shape,
    pub help: &'static str,
}

const fn flag(name: &'static str, shape: Shape, help: &'static str) -> Flag {
    Flag { name, shape, help }
}

use Shape::{OptionalValue, Switch, Value};

/// Every flag any command accepts, in help order.
#[rustfmt::skip]
pub const FLAGS: &[Flag] = &[
    flag("seed", Value("N"), "deterministic seed (default 42)"),
    flag("set", Value("N"), "data set (1-6) of the one pair run"),
    flag("class", Value("C"), "rate class of the pair: low | high | vh (default high; friendly \
        streams set 5's MediaPlayer clip of this class)"),
    flag("corpus", Switch, "run every corpus pair instead of one --set (timeline traces them \
        sequentially)"),
    flag("sets", Value("1,2,5"), "restrict the corpus to these data sets (figures: prints only the \
        blocks any subset supports; watch: with --corpus)"),
    flag("loss", Value("P"), "Bernoulli loss (0..=1) on the access link"),
    flag("threads", Value("N"), "worker threads fanning *whole pair runs* across a pool \
        (default 0 = auto: min(available cores, runs); 1 runs sequentially)"),
    flag("engine", Value("E"), "how background flows are simulated, packet | hybrid (default \
        packet; hybrid lowers them onto the fluid max-min solver — zero events per flow, and with \
        --background 0 results stay byte-identical to the packet engine)"),
    flag("background", Value("N"), "background flows sharing the path (default 0); scale: bulk \
        flows over the backbone ring; fleet/sessions: background-class sessions per 1000 \
        (0..=1000, default 250)"),
    flag("groups", Value("N"), "site groups on the scale ring (2..=64, default 8)"),
    flag("progress", Switch, "heartbeat line on stderr every few seconds (sim time, events/s, \
        sessions live/done, RSS, ETA); stderr only — never part of the byte-identity set"),
    flag("telemetry", Switch, "collect telemetry and print the per-run wall clock and the \
        aggregate run report"),
    flag("rollups", Switch, "accumulate per-session QoE rollups (≤128 B/session) and print the \
        per-class summary"),
    flag("metrics", OptionalValue("M,M", &["watch"]), "bare: also print the Prometheus-style \
        metrics exposition; watch: restrict the view to metric names containing any M (default: \
        all recorded series)"),
    flag("pcap", Value("FILE"), "write the client capture as a pcap file"),
    flag("player", Value("P"), "real | wmp (default real)"),
    flag("out", Value("FILE"), "trace output path (default stdout)"),
    flag("kbps", Value("N,N,..."), "bottleneck sweep in Kbit/s (default 300,400,600,1000,2000)"),
    flag("iterations", Value("N"), "cases per property (default 1000)"),
    flag("props", Value("a,b"), "restrict to these properties"),
    flag("replay", Value("FILE"), "re-run one stored .case file instead"),
    flag("write-failures", Value("DIR"), "directory for failing-case files (default \
        check-failures)"),
    flag("top", Value("K"), "rows in timeline's slowest-packet or sessions' worst-session table \
        (default 10)"),
    flag("perfetto", Value("FILE"), "write the Chrome-trace JSON export (one --set run only)"),
    flag("window", Value("SECS"), "window width in simulated seconds (default 1; fractions \
        allowed)"),
    flag("jsonl", Value("FILE"), "export as JSON Lines: watch's raw series, sessions' every \
        rollup"),
    flag("csv", Value("FILE"), "export as CSV: watch's per-window long format, sessions' every \
        rollup"),
    flag("clients", Value("N"), "client hosts per group (1..=60000, default 256)"),
    flag("packets", Value("N"), "datagrams each client sends (default 40)"),
    flag("sessions", Value("N"), "population size (default 1000)"),
    flag("arrival", Value("A"), "arrival process, poisson:RATE or mmpp:FAST,SLOW,DWELL in \
        sessions/s (default poisson:200)"),
    flag("duration-dist", Value("D"), "session lifetimes, pareto:XM,ALPHA or fixed:SECS (default \
        pareto:2,1.5)"),
    flag("diurnal", Switch, "thin arrivals by the compressed diurnal load curve (one cycle per 10 \
        simulated minutes)"),
    flag("wmp-permille", Value("N"), "MediaPlayer share per 1000 sessions (default 500; the rest \
        are RealPlayer-like)"),
    flag("lineage", Switch, "record full packet lineage for every session (figures are identical \
        either way; overrides the sampler)"),
    flag("sample-permille", Value("N"), "sessions per 1000 whose packets get full lineage, \
        hash-selected from the seed (default 10; engine invariant)"),
    flag("by", Value("TERMS"), "badness ranking key — comma-separated \
        loss|rebuffer|startup|goodput, each optionally =weight (default loss,rebuffer,startup)"),
    flag("session", Value("ID"), "print the sampled session's per-packet lineage timeline"),
];

/// Minimal flag parser: `--key value` pairs after the subcommand, with
/// each flag's [`Shape`] taken from [`FLAGS`]. Fails closed on any flag
/// outside `command`'s list, so a typo or a retired knob never runs
/// silently on the defaults.
pub fn parse_flags(args: &[String], command: &Command) -> Result<Flags, String> {
    let mut flags = HashMap::new();
    let mut i = 0;
    while i < args.len() {
        let key = args[i]
            .strip_prefix("--")
            .ok_or_else(|| format!("expected --flag, got {:?}", args[i]))?;
        if !command.flags.contains(&key) {
            return Err(format!("unknown flag --{key} for {}", command.name));
        }
        let shape = FLAGS
            .iter()
            .find(|f| f.name == key)
            .map(|f| f.shape)
            .expect("every accepted flag has a FLAGS entry");
        let value = match shape {
            Switch => None,
            OptionalValue(_, valued) => match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(v) if !valued.contains(&command.name) => {
                    return Err(format!(
                        "--{key} takes no value for {}, got {v:?}",
                        command.name
                    ))
                }
                next => next,
            },
            Value(_) => Some(
                args.get(i + 1)
                    .ok_or_else(|| format!("--{key} needs a value"))?,
            ),
        };
        i += 1 + usize::from(value.is_some());
        let value = value.map_or("true", String::as_str);
        flags.insert(key.to_string(), value.to_string());
    }
    Ok(flags)
}

/// `raw` as a number in `range`, with the one error shape every
/// numeric flag shares.
fn parse_in<T>(name: &str, raw: &str, range: &RangeInclusive<T>) -> Result<T, String>
where
    T: FromStr + PartialOrd + Display,
{
    raw.trim()
        .parse()
        .ok()
        .filter(|v| range.contains(v))
        .ok_or_else(|| {
            format!(
                "--{name} wants a number in {}..={}, got {raw:?}",
                range.start(),
                range.end()
            )
        })
}

/// `--name N` checked against `range`; `None` when absent.
fn opt_number<T>(flags: &Flags, name: &str, range: RangeInclusive<T>) -> Result<Option<T>, String>
where
    T: FromStr + PartialOrd + Display,
{
    flags
        .get(name)
        .map(|raw| parse_in(name, raw, &range))
        .transpose()
}

/// `--name N,N,...`, every element checked against `range`.
fn numbers<T>(flags: &Flags, name: &str, range: RangeInclusive<T>) -> Result<Option<Vec<T>>, String>
where
    T: FromStr + PartialOrd + Display,
{
    flags
        .get(name)
        .map(|list| {
            list.split(',')
                .map(|raw| parse_in(name, raw, &range))
                .collect()
        })
        .transpose()
}

/// Table 1's data set ids.
const SETS: RangeInclusive<u8> = 1..=6;

/// A command's run parameters, parsed once from argv. Knobs more than
/// one command reads are typed fields; the rest are read through the
/// getters, which check the name against the command's accepted flags.
pub struct RunSpec {
    flags: Flags,
    accepted: &'static [&'static str],
    pub seed: u64,
    /// `0` = auto: the runner resolves it to `min(available cores,
    /// jobs)`, so a 13-run corpus never spawns more workers than it has
    /// runs to fill them with.
    pub threads: usize,
    pub engine: EngineKind,
    /// Background flows (pair runs, scale); the fleet reads the flag as
    /// a per-1000 share instead (see [`RunSpec::fleet_config`]).
    pub background: u32,
    pub loss: Option<f64>,
    pub class: RateClass,
    /// `--set N` resolved against Table 1 at `--class`.
    pub pair: Option<(u8, ClipPair)>,
    /// `--corpus`: run every pair instead of one `--set`.
    pub corpus: bool,
    pub sets: Option<Vec<u8>>,
    pub groups: Option<usize>,
    pub progress: bool,
}

impl RunSpec {
    /// Type and range-check every shared knob of `command`'s `flags`.
    pub fn parse(command: &Command, flags: Flags) -> Result<RunSpec, String> {
        let accepts = |name| command.flags.contains(&name);
        let class = match flags.get("class").map(String::as_str) {
            None | Some("high") => RateClass::High,
            Some("low") => RateClass::Low,
            Some("vh" | "veryhigh" | "very-high") => RateClass::VeryHigh,
            Some(other) => return Err(format!("unknown class {other:?} (low|high|vh)")),
        };
        let pair = match opt_number(&flags, "set", SETS)? {
            None => None,
            Some(set) => {
                let pair = corpus::table1()
                    .into_iter()
                    .find(|s| s.id == set)
                    .and_then(|s| s.pair(class).cloned())
                    .ok_or_else(|| format!("set {set} has no {class:?} pair"))?;
                Some((set, pair))
            }
        };
        let corpus = flags.contains_key("corpus");
        if accepts("set") && !corpus && pair.is_none() {
            return Err("--set is required".into());
        }
        if accepts("corpus") && !corpus && flags.contains_key("sets") {
            return Err("--sets needs --corpus (use --set N for one pair run)".into());
        }
        if corpus && flags.contains_key("perfetto") {
            return Err("--perfetto exports one run; drop --corpus or pick a --set".into());
        }
        let engine = match flags.get("engine") {
            None => EngineKind::Packet,
            Some(s) => EngineKind::parse(s)
                .ok_or_else(|| format!("unknown engine {s:?} (packet|hybrid)"))?,
        };
        Ok(RunSpec {
            seed: opt_number(&flags, "seed", 0..=u64::MAX)?.unwrap_or(42),
            threads: opt_number(&flags, "threads", 0..=usize::MAX)?.unwrap_or(0),
            engine,
            background: opt_number(&flags, "background", 0..=u32::MAX)?.unwrap_or(0),
            loss: opt_number(&flags, "loss", 0.0..=1.0)?,
            class,
            pair,
            corpus,
            sets: numbers(&flags, "sets", SETS)?,
            groups: opt_number(&flags, "groups", 2..=64)?,
            progress: flags.contains_key("progress"),
            accepted: command.flags,
            flags,
        })
    }

    /// The raw flags, for reading `name`, which `command` must accept.
    fn flags(&self, name: &str) -> &Flags {
        debug_assert!(self.accepted.contains(&name), "--{name} is not accepted");
        &self.flags
    }

    /// Whether `--name` was given.
    pub fn switch(&self, name: &str) -> bool {
        self.flags(name).contains_key(name)
    }

    /// `--name`'s value as given (`"true"` for a bare switch).
    pub fn text(&self, name: &str) -> Option<&str> {
        self.flags(name).get(name).map(String::as_str)
    }

    /// `--name N` checked against `range`; `None` when absent.
    pub fn opt_number<T>(&self, name: &str, range: RangeInclusive<T>) -> Result<Option<T>, String>
    where
        T: FromStr + PartialOrd + Display,
    {
        opt_number(self.flags(name), name, range)
    }

    /// `--name N` checked against `range`, `default` when absent.
    pub fn number<T>(&self, name: &str, default: T, range: RangeInclusive<T>) -> Result<T, String>
    where
        T: FromStr + PartialOrd + Display,
    {
        Ok(self.opt_number(name, range)?.unwrap_or(default))
    }

    /// `--name N,N,...`, every element checked against `range`.
    pub fn numbers<T>(&self, name: &str, range: RangeInclusive<T>) -> Result<Option<Vec<T>>, String>
    where
        T: FromStr + PartialOrd + Display,
    {
        numbers(self.flags(name), name, range)
    }

    /// The pair runs this spec names: the one `--set` pair, or with
    /// `--corpus` (or on a command without `--set`) the corpus
    /// restricted to `--sets`; the shared run knobs applied to each.
    pub fn pair_configs(&self) -> Vec<PairRunConfig> {
        let mut configs = match (&self.pair, &self.sets) {
            (Some((set, pair)), _) if !self.corpus => {
                vec![PairRunConfig::new(self.seed, *set, pair.clone())]
            }
            (_, Some(sets)) => runner::corpus_configs_for_sets(self.seed, sets),
            (_, None) => runner::corpus_configs(self.seed),
        };
        for config in &mut configs {
            if let Some(loss) = self.loss {
                config.access_loss = loss;
            }
            config.telemetry = self.flags.contains_key("telemetry");
            config.engine = self.engine;
            config.background_flows = self.background;
            config.progress = self.progress;
        }
        configs
    }

    /// The `fleet`/`sessions` population config.
    pub fn fleet_config(&self) -> Result<FleetRunConfig, String> {
        use turbulence::{ArrivalProcess, DurationDist};
        let mut config = FleetRunConfig::new(self.seed);
        config.sessions = self.number("sessions", config.sessions, 1..=usize::MAX)?;
        if let Some(raw) = self.text("arrival") {
            config.arrival = ArrivalProcess::parse(raw)?;
        }
        if let Some(raw) = self.text("duration-dist") {
            config.duration = DurationDist::parse(raw)?;
        }
        config.diurnal = self.switch("diurnal");
        config.groups = self.groups.unwrap_or(config.groups);
        config.wmp_permille = self.number("wmp-permille", config.wmp_permille, 0..=1000)?;
        // For the fleet, `--background` is the background-class share
        // of the population, per 1000 sessions.
        config.background_permille =
            self.number("background", config.background_permille, 0..=1000)?;
        config.engine = self.engine;
        config.lineage = self.switch("lineage");
        // `sessions` forces rollups on and does not accept the flag.
        config.rollups = self.flags.contains_key("rollups");
        config.sample_permille =
            self.number("sample-permille", config.sample_permille, 0..=1000)?;
        config.progress = self.progress;
        Ok(config)
    }
}
