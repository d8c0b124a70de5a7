//! `turb-bench`: the repository's one benchmark. Every workload run is
//! a fresh child process of this binary; the parent repeats, checks and
//! summarises. See `README.md` for the workloads and metrics.
//!
//! ```text
//! turb-bench [--seed N] [--repeats N] [--trace FILE] [--out FILE]
//! turb-bench --workload W --seed N --seconds S --trace 0|1
//! turb-bench compare --base A.json[,A2.json...] --new B.json[,B2.json...]
//! ```

mod child;
mod json;
mod layers;
mod parent;
mod procfs;
mod spec;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;

const USAGE: &str = "usage:
  turb-bench [--seed N] [--repeats N] [--trace FILE] [--out FILE]
      every workload, round-robin, each repeat in its own child process;
      --trace adds one traced child per workload and writes a Chrome trace
  turb-bench --workload W --seed N --seconds S --trace 0|1
      one workload for S seconds; the last line is the JSON result
  turb-bench compare --base A.json[,...] --new B.json[,...]
      alternating --out results of two builds, pair by pair";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &[String]) -> Result<i32, String> {
    let (compare, rest) = match args.first().map(String::as_str) {
        Some("compare") => (true, &args[1..]),
        _ => (false, args),
    };
    let flags = parse_flags(rest)?;
    let get = |k: &str| flags.get(k).map(String::as_str);
    let list = |k: &str| -> Vec<String> {
        get(k)
            .map(|v| v.split(',').map(str::to_string).collect())
            .unwrap_or_default()
    };
    if compare {
        let (base, new) = (list("base"), list("new"));
        if base.is_empty() || new.is_empty() {
            return Err("compare needs --base and --new".to_string());
        }
        return Ok(parent::compare(&base, &new));
    }
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; build with --release".to_string());
    }
    let number = |k: &str, default: u64| -> Result<u64, String> {
        get(k).map_or(Ok(default), |v| {
            v.parse()
                .map_err(|_| format!("--{k} wants a whole number, got {v:?}"))
        })
    };
    let seed = number("seed", 42)?;
    let known = |w: &str| -> Result<(), String> {
        if spec::WORKLOADS.contains(&w) {
            Ok(())
        } else {
            Err(format!(
                "unknown workload {w:?}; known: {}",
                spec::WORKLOADS.join(", ")
            ))
        }
    };

    if let Some(w) = get("child") {
        known(w)?;
        let line = child::run(w, seed, flags.contains_key("traced"))?;
        println!("{line}");
        return Ok(0);
    }
    if let Some(w) = get("workload") {
        known(w)?;
        let seconds: f64 = get("seconds")
            .ok_or("--workload needs --seconds")?
            .parse()
            .map_err(|_| "--seconds wants a number".to_string())?;
        let traced = match get("trace") {
            None | Some("0") => false,
            Some("1") => true,
            Some(other) => return Err(format!("--trace wants 0 or 1 here, got {other:?}")),
        };
        return Ok(parent::fixed_duration(w, seed, seconds, traced));
    }
    let repeats = number("repeats", 5)? as usize;
    if repeats == 0 {
        return Err("--repeats must be at least 1".to_string());
    }
    Ok(parent::suite(seed, repeats, get("trace"), get("out")))
}

/// `--key value` pairs; `--traced` is the one bare switch.
fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let key = arg
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {arg:?}"))?;
        let value = if key == "traced" {
            String::new()
        } else {
            it.next()
                .ok_or_else(|| format!("--{key} needs a value"))?
                .clone()
        };
        if flags.insert(key.to_string(), value).is_some() {
            return Err(format!("--{key} given twice"));
        }
    }
    Ok(flags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn flags_parse_and_malformed_command_lines_are_errors() {
        let f = parse_flags(&args("--workload fleet_hybrid --seed 7 --traced")).unwrap();
        assert_eq!(f["workload"], "fleet_hybrid");
        assert_eq!(f["seed"], "7");
        assert!(f.contains_key("traced"));
        assert!(parse_flags(&args("--seed")).is_err());
        assert!(parse_flags(&args("seed 7")).is_err());
        assert!(parse_flags(&args("--seed 1 --seed 2")).is_err());
        assert!(run(&args("--workload nope --seconds 1")).is_err());
        assert!(run(&args("compare --base a.json")).is_err());
    }
}
