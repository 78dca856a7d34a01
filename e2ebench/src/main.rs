//! `fastt-e2ebench`: the end-to-end placement benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <paper_models|deep_stack|fleet|chaos> --seed N --seconds S --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs whole passes of the workload (closed loop, one
//! thread of load) until `--seconds` have elapsed, checks every output and
//! prints the end-to-end metrics. With `--trace 1` it runs one untraced and
//! one traced pass, times each layer's public function on the workload's
//! inputs, writes the spans and profile tree to `.bench_trace/`, and prints
//! the per-layer metrics. The last stdout line is the JSON result; see
//! README.md for the metrics.

mod checks;
mod layers;
mod stats;
mod trace;
mod workloads;

use fastt_telemetry::{Collector, MetricValue};
use layers::{LayerInput, LayerMetrics};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{run_pass, setup_only, Pass, Workload};

/// Set-up samples per run: at least `MIN_SETUPS`, and more (up to
/// `MAX_SETUPS`) until they add up to `SETUP_SECONDS`; `setup_s` is their
/// median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 200;
const SETUP_SECONDS: f64 = 2.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str =
    "usage: fastt-e2ebench --workload <paper_models|deep_stack|fleet|chaos> --seed N --seconds S --trace <0|1>";

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut kv = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(k) = it.next() {
        let key = k
            .strip_prefix("--")
            .filter(|k| ["workload", "seed", "seconds", "trace"].contains(k))
            .ok_or_else(|| format!("unknown argument `{k}`"))?;
        let v = it.next().ok_or_else(|| format!("`{k}` needs a value"))?;
        kv.insert(key, v.as_str());
    }
    let get = |k: &str| kv.get(k).copied().ok_or_else(|| format!("missing --{k}"));
    let workload = get("workload")?;
    Ok(Args {
        workload: Workload::parse(workload)
            .ok_or_else(|| format!("unknown workload `{workload}`"))?,
        seed: get("seed")?
            .parse()
            .map_err(|_| "--seed must be an integer")?,
        seconds: get("seconds")?
            .parse()
            .ok()
            .filter(|&s| s > 0)
            .ok_or("--seconds must be a positive integer")?,
        trace: match get("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, got `{other}`")),
        },
    })
}

/// What a run prints as its JSON result.
struct Outcome {
    attempted: u64,
    failures: Vec<String>,
    /// `(name, value, unit)` in output order.
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let out = if args.trace {
        traced(&args)
    } else {
        untraced(&args)
    };
    for f in &out.failures {
        println!("FAILED {f}");
    }
    let metrics: Vec<String> = out
        .metrics
        .iter()
        .map(|(n, v, u)| {
            format!(
                "\"{n}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_num(*v)
            )
        })
        .collect();
    let failed = out.failures.len() as u64;
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        out.attempted.max(1),
        metrics.join(", ")
    );
    if failed > 0 {
        std::process::exit(1);
    }
}

/// A JSON number; a non-finite value (a metric that could not be
/// computed) prints as -1 and is reported as a failure by the caller.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "-1".to_string()
    }
}

/// Passes differ only in wall-clock: any difference in counters or
/// simulated outputs between two same-seed passes is a failure.
fn repeat_check(passes: &[Pass], failures: &mut Vec<String>) {
    for (i, p) in passes.iter().enumerate().skip(1) {
        if p.counters != passes[0].counters || p.simulated != passes[0].simulated {
            failures.push(format!(
                "pass {i}: counters or simulated outputs differ from pass 0 on the same seed"
            ));
        }
    }
}

/// FNV-1a over the counters and simulated outputs: two runs with the same
/// seed must print the same fingerprint.
fn fingerprint(p: &Pass) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |x: u64| {
        for b in x.to_le_bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (k, v) in &p.counters {
        k.bytes().for_each(|b| eat(b as u64));
        eat(*v);
    }
    p.simulated.iter().for_each(|&s| eat(s));
    h
}

fn summary(w: Workload, seed: u64, passes: &[Pass], failures: &[String]) {
    let p = &passes[0];
    println!(
        "workload {} seed {seed}: {} pass(es), fingerprint {:016x}",
        w.name(),
        passes.len(),
        fingerprint(p)
    );
    for (k, v) in &p.counters {
        println!("counter {k} = {v}");
    }
    let mut figures: Vec<(&str, f64)> = p.figures.iter().map(|(k, v)| (*k, *v)).collect();
    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    figures.push((
        "error_rate",
        failures.len() as f64 / attempted.max(1) as f64,
    ));
    for (k, v) in figures {
        println!("figure {k} = {v}");
    }
}

fn untraced(args: &Args) -> Outcome {
    let w = args.workload;
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut tracer = Tracer::new(false);
    let mut passes = Vec::new();
    while passes.is_empty() || start.elapsed() < budget {
        passes.push(run_pass(w, args.seed, None, &mut tracer).0);
    }
    let mut failures: Vec<String> = passes.iter().flat_map(|p| p.failures.clone()).collect();
    repeat_check(&passes, &mut failures);
    let mut setups: Vec<f64> = passes.iter().map(|p| p.setup_s).collect();
    while setups.len() < MIN_SETUPS
        || (setups.len() < MAX_SETUPS && setups.iter().sum::<f64>() < SETUP_SECONDS)
    {
        match setup_only(w, args.seed) {
            Ok(s) => setups.push(s),
            Err(e) => {
                failures.push(e);
                break;
            }
        }
    }
    let mut pretrain: Vec<f64> = passes.iter().map(|p| p.pretrain_s).collect();
    println!("pretrain_s per pass: {pretrain:?}");
    let metrics = vec![
        ("setup_s", stats::median(&mut setups), "s"),
        ("pretrain_s", stats::median(&mut pretrain), "s"),
        (
            "train_samples_per_s",
            stats::geomean(&passes[0].speeds),
            "samples/s",
        ),
        (
            "speedup_vs_dp",
            stats::geomean(&passes[0].dp_speedups),
            "ratio",
        ),
        ("peak_rss_mb", stats::peak_rss_mb(), "MB"),
    ];
    for (n, v, _) in &metrics {
        if !v.is_finite() || *v <= 0.0 {
            failures.push(format!("metric {n} could not be computed ({v})"));
        }
    }
    summary(w, args.seed, &passes, &failures);
    for (n, v, u) in &metrics {
        println!("metric {n} = {v} {u}");
    }
    Outcome {
        attempted: passes.iter().map(|p| p.attempted).sum(),
        failures,
        metrics,
    }
}

/// The per-layer metrics, in `BENCHMARK.json` order, with their units.
const LAYER_METRICS: [(&str, &str); 28] = [
    ("graph.build_s", "s"),
    ("cost.bootstrap_s", "s"),
    ("graph.decompose_s", "s"),
    ("graph.regions", "count"),
    ("rank.upward_s", "s"),
    ("dpos.place_s", "s"),
    ("dpos.ops_placed", "count"),
    ("os_dpos.plan_s", "s"),
    ("os_dpos.splits", "count"),
    ("planner.order_only_s", "s"),
    ("planner.hier_s", "s"),
    ("planner.portfolio_s", "s"),
    ("planner.evals", "count"),
    ("planner.cache_hit_rate", "fraction"),
    ("planner.region_hit_rate", "fraction"),
    ("session.profile_s", "s"),
    ("session.rounds", "count"),
    ("session.activations", "count"),
    ("session.rollbacks", "count"),
    ("session.recovery_events", "count"),
    ("fleet.run_s", "s"),
    ("fleet.events", "count"),
    ("fleet.ticks", "count"),
    ("fleet.preemptions", "count"),
    ("sim.simulate_s", "s"),
    ("sim.trace_records", "count"),
    ("cluster.route_s", "s"),
    ("telemetry.tax", "ratio"),
];

fn traced(args: &Args) -> Outcome {
    let w = args.workload;
    let mut tracer = Tracer::new(true);
    let mut failures = Vec::new();
    // Warm the program's process-wide decompose memo first, so that the
    // untraced and the traced pass below both find it warm and their ratio
    // is the cost of tracing alone.
    match w {
        Workload::Fleet => {
            run_pass(w, args.seed, None, &mut Tracer::new(false));
        }
        _ => match workloads::build_sessions(w, args.seed, None) {
            Ok((units, _)) => units.iter().for_each(|u| {
                fastt::region_tree_for(&u.base);
            }),
            Err(e) => failures.push(e),
        },
    }
    let (plain, _) = run_pass(w, args.seed, None, &mut Tracer::new(false));
    let col = Arc::new(Collector::new());
    let (pass, units) = run_pass(w, args.seed, Some(&col), &mut tracer);
    failures.extend(plain.failures.iter().chain(&pass.failures).cloned());
    // Tracing must not change what the program computes.
    let passes = [plain, pass];
    repeat_check(&passes, &mut failures);
    let [plain, pass] = passes;

    let mut inputs: Vec<LayerInput> = match w {
        Workload::Fleet => LayerInput::fleet().unwrap_or_else(|e| {
            failures.push(e);
            Vec::new()
        }),
        _ => units.into_iter().map(LayerInput::from_session).collect(),
    };
    let mut m = LayerMetrics::new();
    layers::time_layers(&mut inputs, &mut tracer, &mut m);

    let c = |k: &str| pass.counters.get(k).copied().unwrap_or(0) as f64;
    let rate = |hit: f64, miss: f64| {
        if hit + miss > 0.0 {
            hit / (hit + miss)
        } else {
            0.0
        }
    };
    m.insert(
        "planner.cache_hit_rate",
        rate(c("cache_hits"), c("cache_misses")),
    );
    m.insert(
        "planner.region_hit_rate",
        rate(c("region_hits"), c("region_misses")),
    );
    let candidates = match col.metrics().get("planner.candidates") {
        Some(MetricValue::Counter(n)) => n as f64,
        _ => 0.0,
    };
    m.insert("planner.evals", candidates);
    m.insert("session.rounds", c("rounds"));
    m.insert("session.activations", c("activations"));
    m.insert("session.rollbacks", c("rollbacks"));
    m.insert("session.recovery_events", c("recovery_events"));
    if w == Workload::Fleet {
        m.insert("fleet.run_s", pass.pretrain_s);
    }
    m.insert("fleet.events", c("fleet_events"));
    m.insert("fleet.ticks", c("fleet_ticks"));
    m.insert("fleet.preemptions", c("preemptions"));
    m.insert("telemetry.tax", pass.pretrain_s / plain.pretrain_s);

    let path = PathBuf::from(".bench_trace").join(format!("{}-seed{}.json", w.name(), args.seed));
    match tracer.write(&path, col.profiler().to_json()) {
        Ok(()) => println!("trace written to {}", path.display()),
        Err(e) => failures.push(format!("writing {}: {e}", path.display())),
    }
    println!(
        "profile tree of the traced pass:\n{}",
        col.profiler().render()
    );
    summary(w, args.seed, std::slice::from_ref(&pass), &failures);
    let metrics = LAYER_METRICS
        .iter()
        .map(|&(n, u)| (n, m.get(n).copied().unwrap_or(0.0), u))
        .collect::<Vec<_>>();
    for (n, v, u) in &metrics {
        if !v.is_finite() {
            failures.push(format!("layer metric {n} could not be computed"));
        }
        println!("layer {n} = {v} {u}");
    }
    Outcome {
        attempted: plain.attempted + pass.attempted,
        failures,
        metrics,
    }
}
