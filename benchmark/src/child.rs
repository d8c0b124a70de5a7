//! One workload run in a process of its own, so its peak RSS and its
//! caches belong to that run alone. The child prints exactly one line:
//! a JSON object the parent parses.

use crate::json::{num, quote, Json};
use crate::stats::median;
use crate::trace::{coverage, spans_json, Span, Tracer};
use crate::workloads::{self, Check};
use crate::{layers, procfs};
use std::collections::BTreeMap;
use std::time::Instant;

/// Times the set-up calls are repeated before the run; the median is
/// reported, since one set-up takes only milliseconds.
const SETUP_REPEATS: usize = 9;

/// What a child reports.
#[derive(Debug, Clone, PartialEq)]
pub struct ChildResult {
    pub workload: String,
    pub wall_s: f64,
    pub setup_s: f64,
    pub peak_rss_mb: f64,
    pub digest: u64,
    pub checks: Vec<Check>,
    /// Per-layer metrics; traced runs only.
    pub metrics: BTreeMap<String, f64>,
    /// The harness's spans; traced runs only.
    pub spans: Vec<Span>,
}

/// Run `workload` once and return the result line.
pub fn run(workload: &str, seed: u64, traced: bool) -> Result<String, String> {
    let mut t = Tracer::new(traced);
    let mut setups = Vec::new();
    let mut plan = None;
    for _ in 0..if traced { 1 } else { SETUP_REPEATS } {
        let started = Instant::now();
        plan = t.span("setup", |t| workloads::setup(workload, seed, t));
        setups.push(started.elapsed().as_secs_f64());
    }

    let cpu_before = procfs::cpu_seconds()?;
    let started = Instant::now();
    let out = t.span("workload", |t| workloads::run(workload, seed, traced, t));
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = procfs::cpu_seconds()? - cpu_before;
    let peak_rss_mb = procfs::peak_rss_mb()?;

    let (digest, mut checks) = t.span("check", |_| {
        workloads::verify(workload, &out, plan.as_ref())
    });
    let mut metrics = BTreeMap::new();
    if traced {
        let index = |name: &str| t.spans().iter().position(|s| s.name == name);
        let roots = (index("workload").unwrap(), index("setup").unwrap());
        let layer = t.span("layers", |t| {
            layers::measure(workload, seed, &out, plan, roots, t, &mut checks)
        });
        metrics.extend(layer.into_iter().map(|(k, v)| (k.to_string(), v)));
        metrics.insert("process.cpu_s".to_string(), cpu_s);
        metrics.insert("process.cpu_util".to_string(), cpu_s / wall_s);
        metrics.insert("trace.coverage".to_string(), coverage(t.spans(), roots.0));
    }
    Ok(to_json(&ChildResult {
        workload: workload.to_string(),
        wall_s,
        setup_s: median(&setups),
        peak_rss_mb,
        digest,
        checks,
        metrics,
        spans: t.spans().to_vec(),
    }))
}

/// The result line for `r`.
pub fn to_json(r: &ChildResult) -> String {
    let checks: Vec<String> = r
        .checks
        .iter()
        .map(|c| {
            format!(
                "{{\"name\":{},\"ok\":{},\"detail\":{}}}",
                quote(&c.name),
                c.ok,
                quote(&c.detail)
            )
        })
        .collect();
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(k, v)| format!("{}:{}", quote(k), num(*v)))
        .collect();
    format!(
        "{{\"workload\":{},\"wall_s\":{},\"setup_s\":{},\"peak_rss_mb\":{},\"digest\":\"{:016x}\",\"checks\":[{}],\"metrics\":{{{}}},\"spans\":{}}}",
        quote(&r.workload),
        num(r.wall_s),
        num(r.setup_s),
        num(r.peak_rss_mb),
        r.digest,
        checks.join(","),
        metrics.join(","),
        spans_json(&r.spans)
    )
}

/// Parse a child's result line.
pub fn parse(line: &str) -> Result<ChildResult, String> {
    let j = Json::parse(line)?;
    let f = |k: &str| {
        j.get(k)
            .and_then(Json::as_f64)
            .ok_or(format!("missing {k}"))
    };
    let checks = j
        .get("checks")
        .and_then(Json::as_array)
        .ok_or("missing checks")?
        .iter()
        .map(|c| {
            Some(Check {
                name: c.get("name")?.as_str()?.to_string(),
                ok: c.get("ok")?.as_bool()?,
                detail: c.get("detail")?.as_str()?.to_string(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed check")?;
    let metrics = j
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or("missing metrics")?
        .iter()
        .map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect::<Option<BTreeMap<_, _>>>()
        .ok_or("non-numeric metric")?;
    let spans = j
        .get("spans")
        .and_then(Json::as_array)
        .ok_or("missing spans")?
        .iter()
        .map(|row| {
            let row = row.as_array()?;
            let parent = row.get(1)?.as_f64()?;
            Some(Span {
                id: row.first()?.as_f64()? as usize,
                parent: (parent >= 0.0).then_some(parent as usize),
                start_ns: row.get(2)?.as_f64()? as u64,
                end_ns: row.get(3)?.as_f64()? as u64,
                name: row.get(4)?.as_str()?.to_string(),
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or("malformed span")?;
    let digest = j
        .get("digest")
        .and_then(Json::as_str)
        .and_then(|d| u64::from_str_radix(d, 16).ok())
        .ok_or("missing digest")?;
    Ok(ChildResult {
        workload: j
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("missing workload")?
            .to_string(),
        wall_s: f("wall_s")?,
        setup_s: f("setup_s")?,
        peak_rss_mb: f("peak_rss_mb")?,
        digest,
        checks,
        metrics,
        spans,
    })
}
