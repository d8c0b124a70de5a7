//! The parent: runs every repeat of every workload in a fresh child
//! process of its own binary, one at a time, and reports each metric's
//! median, quartiles and count with the host fingerprint.

use crate::child::{self, ChildResult};
use crate::json::{num, quote, Json};
use crate::spec::{self, Fingerprint, END_TO_END, PER_LAYER, TRACE_OVERHEAD};
use crate::stats::{median, Summary};
use crate::trace::{chrome_trace, self_times_ns};
use std::collections::BTreeMap;
use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// A child that runs longer than this is killed and counted as failed.
const CHILD_TIMEOUT: Duration = Duration::from_secs(60);
/// Fewest untraced children a fixed-duration run makes, however long
/// they take.
const MIN_RUNS: usize = 3;
/// Span self times must account for this share of a traced wall.
const MIN_COVERAGE: f64 = 0.95;

/// One child run as the parent judged it.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub workload: String,
    pub seed: u64,
    pub result: Option<ChildResult>,
    /// Why the run counts as failed; empty when it passed.
    pub failures: Vec<String>,
}

impl Outcome {
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    fn passed(&self) -> Option<&ChildResult> {
        self.result.as_ref().filter(|_| self.ok())
    }
}

/// Run `workload` in a child process and judge the result.
pub fn spawn(workload: &str, seed: u64, traced: bool) -> Outcome {
    judge(
        workload,
        seed,
        run_child(workload, seed, traced),
        spec::golden(workload, seed),
    )
}

/// The seed of the `i`th untraced child of a fixed-duration run: the
/// run's own seed first, then a fixed sequence derived from it. Each
/// corpus seed draws 13 random topologies whose path lengths set how
/// much work a run does, so spreading one run's children over many
/// draws keeps its median from hinging on a single draw.
pub fn child_seed(seed: u64, i: usize) -> u64 {
    seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Judge a child's run: a nonzero exit, a panic, a timeout, a failed
/// check or a digest that differs from its golden value all fail it.
fn judge(
    workload: &str,
    seed: u64,
    stdout: Result<String, String>,
    golden: Option<u64>,
) -> Outcome {
    let failed = |why: String| Outcome {
        workload: workload.to_string(),
        seed,
        result: None,
        failures: vec![why],
    };
    let stdout = match stdout {
        Ok(stdout) => stdout,
        Err(e) => return failed(e),
    };
    let last = stdout.lines().last().unwrap_or("");
    let result = match child::parse(last) {
        Ok(result) => result,
        Err(e) => return failed(format!("unreadable result line ({e}): {last:?}")),
    };
    let mut failures: Vec<String> = result
        .checks
        .iter()
        .filter(|c| !c.ok)
        .map(|c| format!("check {} failed: {}", c.name, c.detail))
        .collect();
    if let Some(golden) = golden.filter(|g| *g != result.digest) {
        failures.push(format!(
            "digest {:016x} differs from golden {golden:016x}",
            result.digest
        ));
    }
    Outcome {
        workload: workload.to_string(),
        seed,
        result: Some(result),
        failures,
    }
}

/// Failed runs over attempted runs.
pub fn fail_rate(outcomes: &[&Outcome]) -> f64 {
    outcomes.iter().filter(|o| !o.ok()).count() as f64 / outcomes.len().max(1) as f64
}

/// The process exit code for a set of runs: 1 when any failed.
pub fn exit_code(outcomes: &[&Outcome]) -> i32 {
    i32::from(outcomes.iter().any(|o| !o.ok()))
}

/// Spawn the child, wait for it (killing it past the timeout) and
/// return its standard output.
fn run_child(workload: &str, seed: u64, traced: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own binary: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", workload, "--seed", &seed.to_string()]);
    if traced {
        cmd.arg("--traced");
    }
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn child: {e}"))?;
    // Drain both pipes on their own threads so a chatty child can never
    // block on a full pipe while the parent waits for it to exit.
    let drain = |pipe: Option<Box<dyn Read + Send>>| {
        std::thread::spawn(move || {
            let mut text = String::new();
            if let Some(mut p) = pipe {
                let _ = p.read_to_string(&mut text);
            }
            text
        })
    };
    let stdout = drain(child.stdout.take().map(|p| Box::new(p) as _));
    let stderr = drain(child.stderr.take().map(|p| Box::new(p) as _));
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child
            .try_wait()
            .map_err(|e| format!("wait for child: {e}"))?
        {
            Some(status) => break Some(status),
            None if Instant::now() >= deadline => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let stdout = stdout.join().unwrap_or_default();
    let stderr = stderr.join().unwrap_or_default();
    match status {
        None => Err(format!("timed out after {} s", CHILD_TIMEOUT.as_secs())),
        Some(s) if !s.success() => {
            let tail: Vec<&str> = stderr.lines().rev().take(5).collect();
            let tail: Vec<&str> = tail.into_iter().rev().collect();
            Err(format!("child exited with {s}: {}", tail.join(" | ")))
        }
        Some(_) => Ok(stdout),
    }
}

/// `fleet_sharded` must compute exactly what `fleet_sessions` computes.
/// Where no golden digest pins both at `seed`, compare its runs at
/// `seed` against a passing `fleet_sessions` run among `outcomes` or,
/// failing that, a reference child.
fn check_sharded_matches_sequential(seed: u64, outcomes: &mut [Outcome]) {
    let sharded = |o: &Outcome| o.workload == "fleet_sharded" && o.seed == seed;
    if spec::golden("fleet_sharded", seed).is_some() || !outcomes.iter().any(sharded) {
        return;
    }
    let from = |os: &[Outcome]| {
        os.iter()
            .filter(|o| o.workload == "fleet_sessions" && o.seed == seed)
            .find_map(|o| o.passed().map(|r| r.digest))
    };
    let reference = from(outcomes).or_else(|| from(&[spawn("fleet_sessions", seed, false)]));
    for o in outcomes.iter_mut().filter(|o| sharded(o)) {
        match (reference, o.result.as_ref().map(|r| r.digest)) {
            (Some(want), Some(got)) if want != got => o.failures.push(format!(
                "digest {got:016x} differs from fleet_sessions' {want:016x}"
            )),
            (None, _) => o
                .failures
                .push("no passing fleet_sessions run to compare against".to_string()),
            _ => {}
        }
    }
}

/// End-to-end values of the passing runs, by metric.
fn e2e_values(outcomes: &[&Outcome]) -> BTreeMap<&'static str, Vec<f64>> {
    let passed: Vec<&ChildResult> = outcomes.iter().filter_map(|o| o.passed()).collect();
    END_TO_END
        .iter()
        .map(|(name, _)| {
            let values = passed
                .iter()
                .map(|r| match *name {
                    "wall_s" => r.wall_s,
                    "setup_s" => r.setup_s,
                    "peak_rss_mb" => r.peak_rss_mb,
                    other => unreachable!("unknown end-to-end metric {other}"),
                })
                .collect();
            (*name, values)
        })
        .collect()
}

fn fmt_num(x: f64) -> String {
    match x.abs() {
        a if a == 0.0 || !a.is_finite() => format!("{x}"),
        a if a >= 1e4 || x.fract() == 0.0 => format!("{x:.0}"),
        a if a >= 0.01 => format!("{x:.4}"),
        _ => format!("{x:.3e}"),
    }
}

fn print_failures(outcomes: &[&Outcome]) {
    for o in outcomes.iter().filter(|o| !o.ok()) {
        for f in &o.failures {
            println!("  FAIL {}: {f}", o.workload);
        }
    }
}

/// Run `workload` for `seconds` (at least [`MIN_RUNS`] children) and
/// print the contract's one-line JSON result last: the end-to-end
/// metrics untraced, or with `traced` the per-layer metrics of one
/// traced child plus its overhead against the untraced median.
pub fn fixed_duration(workload: &str, seed: u64, seconds: f64, traced: bool) -> i32 {
    let started = Instant::now();
    let fp = Fingerprint::here(seed, 0);
    println!("turb-bench: {workload} for {seconds} s | {}", fp.describe());
    let traced_run = traced.then(|| spawn(workload, seed, true));
    let min_runs = if traced { MIN_RUNS - 1 } else { MIN_RUNS };
    let mut runs = Vec::new();
    while runs.len() < min_runs || started.elapsed().as_secs_f64() < seconds {
        // The traced pass compares against untraced runs of its own seed.
        let run_seed = if traced {
            seed
        } else {
            child_seed(seed, runs.len())
        };
        runs.push(spawn(workload, run_seed, false));
    }
    check_sharded_matches_sequential(seed, &mut runs);

    let all: Vec<&Outcome> = runs.iter().chain(traced_run.iter()).collect();
    let failed = all.iter().filter(|o| !o.ok()).count();
    print_failures(&all);
    let untraced: Vec<&Outcome> = runs.iter().collect();
    let e2e = e2e_values(&untraced);
    for (name, values) in &e2e {
        let s = Summary::of(values);
        println!(
            "  {name:<12} median {} q1 {} q3 {} n {} {}",
            fmt_num(s.median),
            fmt_num(s.q1),
            fmt_num(s.q3),
            s.n,
            spec::unit_of(name)
        );
    }
    let walls: Vec<String> = e2e["wall_s"].iter().map(|w| format!("{w:.4}")).collect();
    println!("  wall_s runs  {}", walls.join(" "));
    println!(
        "  fail_rate    {failed}/{} = {}",
        all.len(),
        fail_rate(&all)
    );
    let metrics: Vec<(String, f64)> = match &traced_run {
        None => e2e
            .iter()
            .map(|(name, v)| (name.to_string(), median(v)))
            .collect(),
        Some(o) => {
            let layer = o.passed().map(|r| r.metrics.clone()).unwrap_or_default();
            let overhead = o
                .passed()
                .map_or(f64::NAN, |r| r.wall_s - median(&e2e["wall_s"]));
            PER_LAYER
                .iter()
                .map(|(name, _)| {
                    let v = if *name == TRACE_OVERHEAD {
                        overhead
                    } else {
                        layer.get(*name).copied().unwrap_or(f64::NAN)
                    };
                    println!("  {name:<24} {} {}", fmt_num(v), spec::unit_of(name));
                    (name.to_string(), v)
                })
                .collect()
        }
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                num(*v),
                quote(spec::unit_of(name))
            )
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        failed == 0,
        all.len(),
        body.join(",")
    );
    exit_code(&all)
}

/// Every repeat of every workload, round-robin, then (with
/// `trace_file`) one traced child per workload. Prints every metric
/// and every verdict; exits 1 when any run failed or any verdict did.
pub fn suite(seed: u64, repeats: usize, trace_file: Option<&str>, out_file: Option<&str>) -> i32 {
    let workloads = &spec::WORKLOADS[..];
    let fp = Fingerprint::here(seed, repeats);
    println!("turb-bench: {}", fp.describe());
    let mut outcomes: Vec<Outcome> = Vec::new();
    for rep in 0..repeats {
        for w in workloads {
            let o = spawn(w, seed, false);
            let wall = o.result.as_ref().map_or(f64::NAN, |r| r.wall_s);
            let verdict = if o.ok() { "ok" } else { "FAILED" };
            eprintln!("  [{}/{repeats}] {w:<22} {wall:.3} s {verdict}", rep + 1);
            outcomes.push(o);
        }
    }
    check_sharded_matches_sequential(seed, &mut outcomes);
    let summary = summarize(workloads, &outcomes);
    let mut failed = outcomes.iter().filter(|o| !o.ok()).count();

    if let Some(path) = trace_file {
        failed += traced_pass(seed, workloads, &outcomes, path);
    }
    if let Some(path) = out_file {
        if let Err(e) = std::fs::write(path, results_json(&fp, workloads, &outcomes)) {
            println!("  FAIL write {path}: {e}");
            failed += 1;
        }
    }
    println!(
        "turb-bench: {} | {}",
        if failed == 0 {
            "all verdicts pass"
        } else {
            "FAILED"
        },
        summary
    );
    i32::from(failed > 0)
}

/// The end-to-end table; returns a one-line digest summary.
fn summarize(workloads: &[&str], outcomes: &[Outcome]) -> String {
    println!(
        "{:<22} {:<12} {:>10} {:>10} {:>10} {:>3}  unit",
        "workload", "metric", "median", "q1", "q3", "n"
    );
    let mut digests = Vec::new();
    for w in workloads {
        let mine: Vec<&Outcome> = outcomes.iter().filter(|o| o.workload == *w).collect();
        for (name, values) in e2e_values(&mine) {
            let s = Summary::of(&values);
            println!(
                "{w:<22} {name:<12} {:>10} {:>10} {:>10} {:>3}  {}",
                fmt_num(s.median),
                fmt_num(s.q1),
                fmt_num(s.q3),
                s.n,
                spec::unit_of(name)
            );
        }
        let failed = mine.iter().filter(|o| !o.ok()).count();
        println!(
            "{w:<22} {:<12} {:>10} {:>10} {:>10} {:>3}  ratio ({failed}/{} failed)",
            "fail_rate",
            fmt_num(fail_rate(&mine)),
            "",
            "",
            mine.len(),
            mine.len()
        );
        if let Some(d) = mine
            .iter()
            .find_map(|o| o.result.as_ref().map(|r| r.digest))
        {
            digests.push(format!("{w}={d:016x}"));
        }
        print_failures(&mine);
    }
    format!("digests {}", digests.join(" "))
}

/// One traced child per workload: prints the per-layer table, the
/// tracing overhead and each coverage verdict, and writes the Chrome
/// trace. Returns the number of failed runs and verdicts.
fn traced_pass(seed: u64, workloads: &[&str], untraced: &[Outcome], path: &str) -> usize {
    let mut failed = 0;
    let mut columns = Vec::new();
    let mut processes = Vec::new();
    for w in workloads {
        let o = spawn(w, seed, true);
        let walls: Vec<f64> = untraced
            .iter()
            .filter(|u| u.workload == *w)
            .filter_map(|u| u.passed().map(|r| r.wall_s))
            .collect();
        let Some(r) = o.passed() else {
            print_failures(&[&o]);
            failed += 1;
            columns.push(BTreeMap::new());
            continue;
        };
        let mut metrics = r.metrics.clone();
        metrics.insert(TRACE_OVERHEAD.to_string(), r.wall_s - median(&walls));
        let coverage = metrics.get("trace.coverage").copied().unwrap_or(0.0);
        let verdict = coverage >= MIN_COVERAGE;
        failed += usize::from(!verdict);
        println!(
            "  {} {w}: span self times cover {:.1}% of the traced wall (need {:.0}%)",
            if verdict { "PASS" } else { "FAIL" },
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        );
        print_self_times(&r.spans);
        processes.push((w.to_string(), r.spans.clone()));
        columns.push(metrics);
    }
    print!("{:<24}", "per-layer metric");
    for w in workloads {
        print!(" {:>14}", &w[..w.len().min(14)]);
    }
    println!("  unit");
    for (name, unit) in PER_LAYER {
        print!("{name:<24}");
        for c in &columns {
            print!(
                " {:>14}",
                c.get(name).map_or("-".to_string(), |v| fmt_num(*v))
            );
        }
        println!("  {unit}");
    }
    match std::fs::write(path, chrome_trace(&processes)) {
        Ok(()) => println!(
            "  wrote Chrome trace {path} ({} workloads)",
            processes.len()
        ),
        Err(e) => {
            println!("  FAIL write {path}: {e}");
            failed += 1;
        }
    }
    failed
}

/// The largest self times of a traced child, summed by span name.
fn print_self_times(spans: &[crate::trace::Span]) {
    let self_ns = self_times_ns(spans);
    let mut by_name: BTreeMap<&str, u64> = BTreeMap::new();
    for s in spans {
        *by_name.entry(&s.name).or_default() += self_ns[s.id];
    }
    let mut top: Vec<(&str, u64)> = by_name.into_iter().collect();
    top.sort_by_key(|(_, ns)| std::cmp::Reverse(*ns));
    let line: Vec<String> = top
        .iter()
        .take(6)
        .map(|(n, ns)| format!("{n} {:.3}s", *ns as f64 / 1e9))
        .collect();
    println!("       self time: {}", line.join(", "));
}

/// A suite's results, for `compare`.
fn results_json(fp: &Fingerprint, workloads: &[&str], outcomes: &[Outcome]) -> String {
    let rows: Vec<String> = workloads
        .iter()
        .map(|w| {
            let mine: Vec<&Outcome> = outcomes.iter().filter(|o| o.workload == *w).collect();
            let values: Vec<String> = e2e_values(&mine)
                .iter()
                .map(|(name, v)| {
                    let v: Vec<String> = v.iter().map(|x| num(*x)).collect();
                    format!("{}:[{}]", quote(name), v.join(","))
                })
                .collect();
            format!(
                "{}:{{\"attempted\":{},\"failed\":{},{}}}",
                quote(w),
                mine.len(),
                mine.iter().filter(|o| !o.ok()).count(),
                values.join(",")
            )
        })
        .collect();
    format!(
        "{{\"fingerprint\":{},\"workloads\":{{{}}}}}\n",
        fp.to_json(),
        rows.join(",")
    )
}

/// Compare alternating runs of two builds: `base[i]` and `new[i]` form
/// pair `i` (each a `--out` file). Refuses results whose fingerprints
/// differ. A gain needs the new side to win at least 9 of 10 pairs and
/// the medians to differ by more than the base's own interquartile
/// range; a regression is a median worse by more than the metric's
/// bound. Exits 2 when not comparable, 1 on any regression.
pub fn compare(base: &[String], new: &[String]) -> i32 {
    let load = |path: &String| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        Json::parse(&text).map_err(|e| format!("parse {path}: {e}"))
    };
    let (base, new): (Vec<Json>, Vec<Json>) = match (
        base.iter().map(load).collect::<Result<_, _>>(),
        new.iter().map(load).collect::<Result<_, _>>(),
    ) {
        (Ok(b), Ok(n)) => (b, n),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("error: {e}");
            return 2;
        }
    };
    let prints: Vec<Option<Fingerprint>> = base
        .iter()
        .chain(&new)
        .map(|j| j.get("fingerprint").and_then(Fingerprint::from_json))
        .collect();
    if prints.iter().any(|p| p.is_none() || *p != prints[0]) {
        println!("not comparable: results come from different fingerprints");
        for p in prints.iter().flatten() {
            println!("  {}", p.describe());
        }
        return 2;
    }
    let bounds = spec_bounds();
    let pairs = base.len().min(new.len());
    println!(
        "{pairs} pairs | {}",
        prints[0].as_ref().expect("checked above").describe()
    );
    let mut regressions = 0;
    let workloads = base[0].get("workloads").and_then(Json::as_object);
    for w in workloads.into_iter().flat_map(|m| m.keys()) {
        for (name, _) in END_TO_END {
            let medians = |side: &[Json]| -> Vec<f64> {
                side.iter()
                    .map(|j| {
                        let values: Vec<f64> = j
                            .get("workloads")
                            .and_then(|ws| ws.get(w))
                            .and_then(|r| r.get(name))
                            .and_then(Json::as_array)
                            .map(|a| a.iter().filter_map(Json::as_f64).collect())
                            .unwrap_or_default();
                        median(&values)
                    })
                    .collect()
            };
            let (b, n) = (medians(&base[..pairs]), medians(&new[..pairs]));
            let wins = b.iter().zip(&n).filter(|(b, n)| n < b).count();
            let (bs, ns) = (Summary::of(&b), Summary::of(&n));
            let change = ns.median / bs.median - 1.0;
            let bound = bounds.get(name).copied().unwrap_or(0.0);
            let verdict = if change > bound {
                regressions += 1;
                "REGRESSION"
            } else if pairs >= 10 && wins * 10 >= pairs * 9 && bs.median - ns.median > bs.q3 - bs.q1
            {
                "gain"
            } else {
                "no claim"
            };
            println!(
                "{w:<22} {name:<12} base {} new {} ({:+.2}%, bound {:.0}%) wins {wins}/{pairs} base IQR {} -> {verdict}",
                fmt_num(bs.median),
                fmt_num(ns.median),
                change * 100.0,
                bound * 100.0,
                fmt_num(bs.q3 - bs.q1),
            );
        }
    }
    i32::from(regressions > 0)
}

/// Each end-to-end metric's regression bound from `BENCHMARK.json`.
fn spec_bounds() -> BTreeMap<String, f64> {
    let spec = Json::parse(spec::BENCHMARK_JSON).expect("BENCHMARK.json parses");
    spec.get("end_to_end")
        .and_then(Json::as_array)
        .into_iter()
        .flatten()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::Check;

    fn line(digest: u64) -> String {
        child::to_json(&ChildResult {
            workload: "fleet_hybrid".to_string(),
            wall_s: 1.0,
            setup_s: 0.01,
            peak_rss_mb: 40.0,
            digest,
            checks: vec![Check {
                name: "hybrid.flows".to_string(),
                ok: true,
                detail: String::new(),
            }],
            metrics: BTreeMap::new(),
            spans: Vec::new(),
        })
    }

    #[test]
    fn a_wrong_golden_digest_fails_every_run_and_the_exit_code() {
        let golden = spec::golden("fleet_hybrid", 42).unwrap();
        let runs = |digest: u64| -> Vec<Outcome> {
            (0..3)
                .map(|_| judge("fleet_hybrid", 42, Ok(line(digest)), Some(golden)))
                .collect()
        };
        let (wrong, right) = (runs(golden ^ 1), runs(golden));
        let wrong: Vec<&Outcome> = wrong.iter().collect();
        let right: Vec<&Outcome> = right.iter().collect();
        assert_eq!((fail_rate(&wrong), exit_code(&wrong)), (1.0, 1));
        assert_eq!((fail_rate(&right), exit_code(&right)), (0.0, 0));
        // Failed runs contribute no end-to-end values.
        assert!(e2e_values(&wrong)["wall_s"].is_empty());
        assert_eq!(e2e_values(&right)["wall_s"].len(), 3);
    }

    #[test]
    fn a_crashed_or_garbled_child_counts_as_failed() {
        let crashed = judge("fleet_hybrid", 1, Err("exited with 101".to_string()), None);
        let garbled = judge("fleet_hybrid", 1, Ok("not json".to_string()), None);
        assert_eq!(fail_rate(&[&crashed, &garbled]), 1.0);
    }

    #[test]
    fn results_files_round_trip_their_fingerprint() {
        let fp = Fingerprint::here(7, 2);
        let outcomes = vec![judge("fleet_hybrid", 7, Ok(line(1)), None)];
        let json = Json::parse(&results_json(&fp, &["fleet_hybrid"], &outcomes)).unwrap();
        assert_eq!(
            Fingerprint::from_json(json.get("fingerprint").unwrap()),
            Some(fp)
        );
        let row = json
            .get("workloads")
            .and_then(|w| w.get("fleet_hybrid"))
            .unwrap();
        assert_eq!(row.get("wall_s").and_then(Json::as_array).unwrap().len(), 1);
    }

    #[test]
    fn child_seeds_start_at_the_run_seed_and_never_repeat() {
        assert_eq!(child_seed(42, 0), 42);
        let mut seeds: Vec<u64> = (0..1000).map(|i| child_seed(42, i)).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), 1000);
    }

    #[test]
    fn bounds_come_from_benchmark_json() {
        let bounds = spec_bounds();
        for (name, _) in END_TO_END {
            assert!((0.0..=0.25).contains(&bounds[name]), "{name}");
        }
    }
}
