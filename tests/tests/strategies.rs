//! Integration tests of the strategy layer: baselines, DPOS plans, OS-DPOS
//! splits, and the comparator searchers — all validated end-to-end against
//! the simulator.

use fastt::planner::{Planner, PlanningContext};
use fastt::search::{CemPlanner, GdpPlanner, McmcPlanner, RandomPlanner, ReinforcePlanner};
use fastt::{data_parallel_plan, dpos, model_parallel_plan, os_dpos, OsDposOptions};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::replicate;
use fastt_models::Model;
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};

fn profiled_costs(graph: &fastt_graph::Graph, topo: &Topology) -> CostModels {
    let hw = HardwarePerf::new();
    let mut cost = CostModels::new();
    for d in topo.gpu_ids() {
        let p = Placement::uniform(graph.op_count(), d);
        if let Ok(tr) = simulate(
            graph,
            topo,
            &p,
            &hw,
            ExecPolicy::Fifo,
            &SimConfig::default(),
        ) {
            cost.update_from_trace(graph, &tr);
        }
    }
    // round-robin run to seed communication costs
    let gpus: Vec<DeviceId> = topo.gpu_ids().collect();
    let mut p = Placement::uniform(graph.op_count(), gpus[0]);
    for (i, op) in graph.op_ids().enumerate() {
        p.set(op, gpus[i % gpus.len()]);
    }
    if let Ok(tr) = simulate(
        graph,
        topo,
        &p,
        &hw,
        ExecPolicy::Fifo,
        &SimConfig::default(),
    ) {
        cost.update_from_trace(graph, &tr);
    }
    cost
}

#[test]
fn dp_plan_matches_manual_expectations() {
    let graph = Model::LeNet.training_graph(16);
    let topo = Topology::single_server(2);
    let rep = replicate(&graph, 2).unwrap();
    let plan = data_parallel_plan(&rep, &topo);
    // variables live on the CPU host
    let host = topo.host_of(0).unwrap();
    let w = rep.graph.by_name("conv1/weights").unwrap();
    assert_eq!(plan.placement.device_of(w), host);
    // replica ops live on their GPUs
    let c0 = rep.graph.by_name("rep0/conv1").unwrap();
    let c1 = rep.graph.by_name("rep1/conv1").unwrap();
    assert_eq!(plan.placement.device_of(c0), DeviceId(0));
    assert_eq!(plan.placement.device_of(c1), DeviceId(1));
}

#[test]
fn dp_single_replica_stays_on_gpu() {
    let graph = Model::LeNet.training_graph(16);
    let topo = Topology::single_server(1);
    let rep = replicate(&graph, 1).unwrap();
    let plan = data_parallel_plan(&rep, &topo);
    for (op, d) in plan.placement.iter() {
        assert!(
            !topo.is_host(d),
            "{} placed on host",
            rep.graph.op_ref(op).name
        );
    }
}

#[test]
fn model_parallel_balances_memory() {
    let graph = Model::BertLarge.training_graph(8);
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let plan = model_parallel_plan(&graph, &topo, &hw);
    plan.placement.validate(&graph, &topo).unwrap();
    let tr = plan
        .simulate(
            &topo,
            &hw,
            &SimConfig {
                check_memory: false,
                ..SimConfig::default()
            },
        )
        .unwrap();
    let peaks: Vec<u64> = topo.gpu_ids().map(|d| tr.peak_mem[d.index()]).collect();
    let max = *peaks.iter().max().unwrap() as f64;
    let min = *peaks.iter().min().unwrap() as f64;
    assert!(max / min.max(1.0) < 4.0, "imbalanced MP peaks: {peaks:?}");
}

#[test]
fn dpos_beats_or_matches_single_device_on_parallel_models() {
    // With full cost models, DPOS over 4 GPUs must beat everything-on-one.
    let graph = Model::InceptionV3.training_graph(8);
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let cost = profiled_costs(&graph, &topo);
    let plan = dpos(&graph, &topo, &cost, &hw).into_plan(&graph);
    let dpos_time = plan
        .simulate(&topo, &hw, &SimConfig::default())
        .unwrap()
        .makespan;
    let single = Placement::uniform(graph.op_count(), DeviceId(0));
    let single_time = simulate(
        &graph,
        &topo,
        &single,
        &hw,
        ExecPolicy::Fifo,
        &SimConfig::default(),
    )
    .unwrap()
    .makespan;
    assert!(
        dpos_time <= single_time,
        "DPOS {dpos_time} vs single-device {single_time}"
    );
}

#[test]
fn os_dpos_split_list_is_replayable() {
    // Every accepted split names an op that existed in the (running) graph,
    // and the final graph contains its parts.
    let graph = Model::Vgg19.training_graph(16);
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let mut cost = profiled_costs(&graph, &topo);
    let plan = os_dpos(
        &graph,
        &topo,
        &mut cost,
        &hw,
        &OsDposOptions::for_topology(&topo),
    );
    for dec in &plan.splits {
        assert!(dec.parts >= 2);
        let part0 = format!("{}.part0", dec.op_name);
        assert!(
            plan.graph.by_name(&part0).is_some()
                // unless a later split split the part again
                || plan.graph.by_name(&format!("{part0}.part0")).is_some(),
            "missing part for {dec}"
        );
    }
    plan.placement.validate(&plan.graph, &topo).unwrap();
}

/// Every searcher plans a valid, finite, GPU-only placement — on a healthy
/// server, after a GPU failure (the searchers must skip the dead GPU) and
/// after a hot-added server whose GPU ids sit after the hosts.
#[test]
fn all_searchers_return_valid_executable_placements() {
    let graph = Model::LeNet.training_graph(16);
    let hw = HardwarePerf::new();
    let mut degraded = Topology::single_server(4);
    degraded.fail_device(DeviceId(1));
    let mut grown = Topology::multi_server(2, 2);
    grown.add_server(2);

    for topo in [Topology::single_server(2), degraded, grown] {
        let cost = profiled_costs(&graph, &topo);
        let planners: [Box<dyn Planner>; 5] = [
            Box::new(RandomPlanner { evals: 6, seed: 1 }),
            Box::new(ReinforcePlanner {
                rounds: 3,
                batch: 4,
                seed: 2,
            }),
            Box::new(CemPlanner {
                rounds: 3,
                pop: 4,
                elite_frac: 0.5,
                seed: 3,
            }),
            Box::new(McmcPlanner {
                evals: 10,
                temp: 0.1,
                seed: 4,
                start_from_current: false,
            }),
            Box::new(GdpPlanner),
        ];
        for planner in planners {
            let name = planner.name();
            let mut ctx = PlanningContext::new(&graph, &topo, &hw, cost.clone());
            let plan = planner
                .plan(&mut ctx)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            plan.placement
                .validate(&graph, &topo)
                .unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(
                plan.est_finish.is_finite(),
                "{name} found no feasible placement on {} GPUs",
                topo.gpu_count()
            );
            assert!(ctx.evals_used >= 1, "{name} reported no evaluations");
            // no searcher may use the CPU host as a compute device
            for (op, d) in plan.placement.iter() {
                assert!(
                    !topo.is_host(d),
                    "{name} placed `{}` on the host",
                    graph.op_ref(op).name
                );
            }
        }
    }
}

#[test]
fn white_box_methods_use_fewer_evaluations() {
    // The paper's core resource argument: FastT/GDP compute strategies
    // without executing candidate deployments; black-box searches burn
    // training iterations.
    let graph = Model::LeNet.training_graph(8);
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let cost = profiled_costs(&graph, &topo);
    let evals = |planner: &dyn Planner| {
        let mut ctx = PlanningContext::new(&graph, &topo, &hw, cost.clone());
        planner.plan(&mut ctx).unwrap();
        ctx.evals_used
    };
    let post = CemPlanner {
        rounds: 5,
        pop: 8,
        elite_frac: 0.25,
        seed: 5,
    };
    let rl = ReinforcePlanner {
        rounds: 5,
        batch: 8,
        seed: 6,
    };
    assert_eq!(evals(&GdpPlanner), 1);
    assert!(evals(&post) >= 40);
    assert!(evals(&rl) >= 40);
}
