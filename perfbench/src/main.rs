//! `perfbench`: runs one workload of the smart-meter symbolic stack and
//! prints its metrics. `perfbench/run.py` builds and invokes it:
//!
//! ```text
//! perfbench --root <checkout> --work <dir> --workload live|backfill|query
//!           --seed <n> --seconds <s> --trace 0|1
//! ```
//!
//! With `--trace 0` the last line holds the end-to-end metrics of the
//! workload. With `--trace 1` the workload runs once untraced and once
//! traced, and the other two workloads run traced too, so every layer's
//! metrics are measured; the last line holds the per-layer metrics, and
//! the ledger of the requested workload is printed above it.
//!
//! `BENCHMARK.json` lists `live` and `backfill`. `query` runs in every
//! traced run, for the `segstore` and recovery layers, but its own
//! end-to-end figures are too noisy on a shared host to gate (NOTES.md).

mod backfill;
mod common;
mod gen;
mod live;
mod query;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use sms_core::json::{self, JsonWriter};

use common::{peak_rss_mb, Ctx, Outcome, Spec, TIMED};
use stats::ledger;
use trace::{Profile, Tracer};

const WORKLOADS: [&str; 3] = ["live", "backfill", "query"];
/// Layers whose self time the traced run reports.
const LAYERS: [&str; 5] = ["gateway", "ingest", "shard", "durable", "segstore"];

struct Args {
    root: PathBuf,
    work: PathBuf,
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(k) = it.next() {
        let v = it.next().ok_or_else(|| format!("{k} needs a value"))?;
        kv.insert(k, v);
    }
    let get = |k: &str| kv.get(k).cloned().ok_or_else(|| format!("missing {k}"));
    let num = |k: &str| get(k)?.parse::<u64>().map_err(|e| format!("{k}: {e}"));
    let workload = get("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    let seconds = num("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    let trace = match num("--trace")? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Args {
        root: PathBuf::from(get("--root")?),
        work: PathBuf::from(get("--work")?),
        workload,
        seed: num("--seed")?,
        seconds,
        trace,
    })
}

/// The `(name, unit)` pairs `BENCHMARK.json` declares under `key`.
fn declared(root: &Path, key: &str) -> Result<Vec<(String, String)>, String> {
    let path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text)?;
    let list = doc.get(key).and_then(|v| v.as_array()).ok_or(format!("no {key} list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(|v| v.as_str()).map(str::to_string);
            field("name").zip(field("unit")).ok_or_else(|| format!("malformed {key} entry"))
        })
        .collect()
}

/// The commit the checkout was made from, when it carries git metadata.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r)).map(|s| s.trim().to_string()).ok(),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    }
    .unwrap_or_else(|| "unknown".to_string())
}

fn run_leg(workload: &str, ctx: &Ctx, tracer: &Tracer) -> Result<Outcome, String> {
    std::fs::remove_dir_all(&ctx.work).ok();
    std::fs::create_dir_all(&ctx.work).map_err(|e| format!("{}: {e}", ctx.work.display()))?;
    let out = match workload {
        "live" => live::run(ctx, tracer),
        "backfill" => backfill::run(ctx, tracer),
        _ => query::run(ctx, tracer),
    };
    std::fs::remove_dir_all(&ctx.work).ok();
    out.map_err(|e| format!("{workload}: {e}"))
}

/// Picks every declared metric out of `values`, failing on any missing
/// or non-finite one.
fn select(
    declared: &[(String, String)],
    values: &BTreeMap<String, f64>,
) -> Result<Vec<(String, String, f64)>, String> {
    declared
        .iter()
        .map(|(name, unit)| match values.get(name) {
            Some(v) if v.is_finite() => Ok((name.clone(), unit.clone(), *v)),
            Some(v) => Err(format!("metric {name} is {v}")),
            None => Err(format!("metric {name} was not measured")),
        })
        .collect()
}

fn metrics_json(metrics: &[(String, String, f64)]) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    for (name, unit, value) in metrics {
        w.key(name).begin_object();
        w.key("value").f64(*value);
        w.key("unit").string(unit);
        w.end_object();
    }
    w.end_object();
    w.finish()
}

fn real_main() -> Result<bool, String> {
    let args = parse_args()?;
    let spec = Spec::load(&args.root.join("perfbench/spec.json")).map_err(|e| e.to_string())?;
    let ctx = |w: &str, setups: usize| Ctx {
        spec: &spec,
        seed: args.seed,
        work: args.work.join(w),
        seconds: args.seconds as f64,
        setups,
    };

    let mut legs: Vec<(String, Outcome)> = Vec::new();
    let (key, values) = if !args.trace {
        let w = args.workload.as_str();
        let setups = spec.count(w, "setup_repeats").map_err(|e| e.to_string())?;
        let mut out = run_leg(w, &ctx(w, setups), &Tracer::new(false))?;
        out.e2e.insert("peak_rss_mb", peak_rss_mb());
        let values = out.e2e.iter().map(|(k, v)| (k.to_string(), *v)).collect();
        legs.push((args.workload.clone(), out));
        ("end_to_end", values)
    } else {
        let w = args.workload.as_str();
        let untraced = run_leg(w, &ctx(w, 1), &Tracer::new(false))?;
        let traced = run_leg(w, &ctx(w, 1), &Tracer::new(true))?;
        let mut values = BTreeMap::new();
        let l = ledger(&traced.spans, TIMED);
        let per_op = untraced.timed_s / untraced.ops as f64;
        values.insert("ledger.coverage".to_string(), l.coverage());
        values.insert("ledger.remainder_s".to_string(), l.remainder_ns as f64 / 1e9);
        values.insert("trace.overhead_s".to_string(), traced.timed_s - traced.ops as f64 * per_op);
        let mut lines = vec![format!(
            "ledger {w}: timed wall {:.4} s over {} ops (untraced {:.4} s over {} ops)",
            l.wall_ns as f64 / 1e9,
            traced.ops,
            untraced.timed_s,
            untraced.ops
        )];
        for (layer, ns) in &l.layers {
            lines.push(format!(
                "ledger {w}: {layer:<9} self {:.4} s  {:5.1}%",
                *ns as f64 / 1e9,
                *ns as f64 * 100.0 / l.wall_ns.max(1) as f64
            ));
        }
        lines.push(format!(
            "ledger {w}: remainder {:.4} s  {:5.1}%  (coverage {:.1}%; tracing overhead {:.4} s)",
            l.remainder_ns as f64 / 1e9,
            l.remainder_ns as f64 * 100.0 / l.wall_ns.max(1) as f64,
            l.coverage() * 100.0,
            values["trace.overhead_s"]
        ));
        legs.push((format!("{w} (untraced)"), untraced));
        legs.push((w.to_string(), traced));
        for other in WORKLOADS.iter().filter(|o| **o != w) {
            legs.push((other.to_string(), run_leg(other, &ctx(other, 1), &Tracer::new(true))?));
        }
        // A layer's metrics come from the requested workload when it
        // exercises the layer, else from the first other workload that does.
        for (_, out) in legs.iter().skip(1) {
            let profile = Profile::of(&out.spans);
            for layer in LAYERS {
                if let Some(ns) = profile.layer_self_ns.get(layer) {
                    values.entry(format!("{layer}.self_s")).or_insert(*ns as f64 / 1e9);
                }
            }
            for (k, v) in &out.layers {
                values.entry(k.clone()).or_insert(*v);
            }
        }
        legs[1].1.lines.extend(lines);
        ("per_layer", values)
    };

    let declared = declared(&args.root, key)?;
    let metrics = select(&declared, &values)?;
    // Measured but not gated: their run-to-run spread on a shared host is
    // wider than any bound BENCHMARK.json may set (see NOTES.md).
    for (name, value) in &values {
        if !args.trace && !declared.iter().any(|(n, _)| n == name) {
            println!("not gated: {name} = {value}");
        }
    }
    let (mut attempted, mut failed) = (0, 0);
    for (name, out) in &legs {
        for line in &out.lines {
            println!("{line}");
        }
        for e in &out.tally.errors {
            println!("{name}: FAILED: {e}");
        }
        println!("{name}: attempted {} failed {}", out.tally.attempted, out.tally.failed);
        attempted += out.tally.attempted;
        failed += out.tally.failed;
    }
    let metrics_json = metrics_json(&metrics);
    println!(
        "record: {{\"bench\":\"perfbench\",\"host_cores\":{},\"git_rev\":\"{}\",\
         \"workload\":\"{}\",\"seed\":{},\"layers\":{metrics_json}}}",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        git_rev(&args.root),
        args.workload,
        args.seed
    );
    for (name, unit, value) in &metrics {
        println!("{name:<40} {value:>16.6} {unit}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics_json}}}",
        failed == 0
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
