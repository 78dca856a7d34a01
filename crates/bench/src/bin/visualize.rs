//! Exports visual artifacts for one model's FastT deployment:
//! a Graphviz DOT of the placed graph and a Chrome-trace JSON of one
//! simulated iteration (open in `chrome://tracing` / Perfetto).
//!
//! ```bash
//! cargo run --release -p fastt-bench --bin visualize -- alexnet 2 /tmp/fastt-viz
//! ```

use fastt_bench::{dp_ps_for, per_replica_batch, run_fastt};
use fastt_cluster::Topology;
use fastt_graph::to_dot;
use fastt_sim::{HardwarePerf, SimConfig};
use std::path::PathBuf;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut args = std::env::args().skip(1);
    let model_arg = args.next().unwrap_or_else(|| "alexnet".into());
    let gpus: u16 = args.next().and_then(|s| s.parse().ok()).unwrap_or(2);
    let outdir = PathBuf::from(args.next().unwrap_or_else(|| "viz-out".into()));
    std::fs::create_dir_all(&outdir)?;

    let needle = model_arg.to_lowercase();
    let model = fastt_models::Model::all()
        .into_iter()
        .find(|m| m.name().to_lowercase().contains(&needle))
        .ok_or_else(|| format!("unknown model `{model_arg}`"))?;

    let topo = Topology::single_server(gpus);
    let global = model.paper_batch();
    let prb = per_replica_batch(model, global, gpus as u32);
    let _ = dp_ps_for(model);
    let run = run_fastt(model, &topo, prb, global)?;
    let plan = run.session.current_plan();

    // DOT with device coloring
    let devices: Vec<u16> = plan.placement.iter().map(|(_, d)| d.0).collect();
    let dot = to_dot(&plan.graph, &devices);
    let dot_path = outdir.join(format!("{needle}-{gpus}gpu.dot"));
    std::fs::write(&dot_path, dot)?;

    // Chrome trace of one iteration, with Perfetto track names and
    // per-device memory counter tracks
    let cfg = SimConfig {
        record_mem_timeline: true,
        ..SimConfig::default()
    };
    let trace = plan.simulate(&topo, &HardwarePerf::new(), &cfg)?;
    let names: Vec<String> = plan.graph.iter_ops().map(|(_, o)| o.name.clone()).collect();
    let json_path = outdir.join(format!("{needle}-{gpus}gpu.trace.json"));
    std::fs::write(&json_path, trace.to_chrome_trace_full(&names, &topo))?;

    println!("{model} on {gpus} GPUs:");
    println!("  iteration time : {:.3} ms", trace.makespan * 1e3);
    println!(
        "  utilization    : {:?}",
        trace
            .utilization()
            .iter()
            .map(|u| format!("{:.0}%", u * 100.0))
            .collect::<Vec<_>>()
    );
    println!("  graph          : {}", dot_path.display());
    println!("  chrome trace   : {}", json_path.display());
    Ok(())
}
