//! Head-to-head comparison of deployment strategies on one model — the
//! single-model version of the paper's Fig. 3: data parallelism, greedy
//! model parallelism, a GDP-style one-shot placement, black-box searches
//! (cross-entropy à la Post, MCMC à la FlexFlow), and FastT.
//!
//! ```bash
//! cargo run --release --example compare_strategies
//! ```

use fastt::planner::{Planner, PlanningContext};
use fastt::search::{CemPlanner, GdpPlanner, McmcPlanner};
use fastt::{data_parallel_plan, model_parallel_plan, SessionConfig, TrainingSession};
use fastt_cluster::Topology;
use fastt_cost::CostModels;
use fastt_graph::replicate;
use fastt_models::Model;
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = Model::InceptionV3;
    let gpus = 4u16;
    let global_batch = model.paper_batch();
    let topo = Topology::single_server(gpus);
    let hw = HardwarePerf::new();

    println!("{model} on {gpus} GPUs, global batch {global_batch}\n");
    println!(
        "{:<28} {:>12} {:>14} {:>8}",
        "strategy", "s/iteration", "samples/s", "evals"
    );

    let report = |name: &str, iter: f64, evals: u32| {
        println!(
            "{name:<28} {iter:>12.4} {:>14.1} {evals:>8}",
            global_batch as f64 / iter
        );
    };

    // Data parallelism (per-replica batch = global / gpus).
    let replica = model.training_graph(global_batch / gpus as u64);
    let rep = replicate(&replica, gpus as u32)?;
    let dp = data_parallel_plan(&rep, &topo);
    let dp_iter = dp.simulate(&topo, &hw, &SimConfig::default())?.makespan;
    report("data parallel", dp_iter, 0);

    // Greedy model parallelism on the whole-batch graph.
    let whole = model.training_graph(global_batch);
    let mp = model_parallel_plan(&whole, &topo, &hw);
    let mp_iter = mp.simulate(&topo, &hw, &SimConfig::default())?.makespan;
    report("model parallel (greedy)", mp_iter, 0);

    // GDP-style one-shot rank/EFT placement (needs bootstrapped costs).
    let mut cost = CostModels::new();
    for d in topo.gpu_ids() {
        let p = Placement::uniform(whole.op_count(), d);
        if let Ok(t) = simulate(
            &whole,
            &topo,
            &p,
            &hw,
            ExecPolicy::Fifo,
            &SimConfig::default(),
        ) {
            cost.update_from_trace(&whole, &t);
        }
    }
    let mut ctx = PlanningContext::new(&whole, &topo, &hw, cost);
    let gdp = GdpPlanner.plan(&mut ctx)?;
    report("GDP-style (white box)", gdp.est_finish, ctx.evals_used);

    // Black-box searches over the whole-batch graph (model parallelism
    // only — their published solution space).
    let mut ctx = PlanningContext::new(&whole, &topo, &hw, CostModels::new());
    let post = CemPlanner {
        rounds: 10,
        pop: 10,
        elite_frac: 0.25,
        seed: 7,
    }
    .plan(&mut ctx)?;
    report(
        "Post-style (cross entropy)",
        post.est_finish,
        ctx.evals_used,
    );

    // FlexFlow-style MCMC over the *replicated* graph, seeded from DP.
    let mut ctx = PlanningContext::new(&rep.graph, &topo, &hw, CostModels::new()).with_current(&dp);
    let ff = McmcPlanner {
        evals: 300,
        temp: 0.03,
        seed: 9,
        start_from_current: true,
    }
    .plan(&mut ctx)?;
    report("FlexFlow-style (MCMC)", ff.est_finish, ctx.evals_used);

    // FastT.
    let mut session = TrainingSession::new(&replica, topo.clone(), hw, SessionConfig::default())?;
    let r = session.pre_train()?;
    report("FastT", r.final_iter_time, 0);
    println!(
        "\nFastT strategy computed in {:.2}s of wall clock; the searches above each\n\
         consumed the listed number of full (simulated) training iterations.",
        r.strategy_calc_secs
    );
    Ok(())
}
