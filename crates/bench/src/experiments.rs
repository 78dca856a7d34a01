//! Every table and figure of the paper's evaluation (Sec. 6), plus the
//! ablation and search-budget studies beyond it. Each function returns its
//! rows as a [`Table`]; the `repro` binary chooses the models and renders
//! the tables.

use crate::{
    dp_plan, per_replica_batch, run_dp, run_fastt, Cell, Table, MEASURE_ITERS, STRONG_SCALING,
    WEAK_SCALING,
};
use fastt::planner::{Planner, PlanningContext};
use fastt::search::{CemPlanner, GdpPlanner, McmcPlanner, RandomPlanner, ReinforcePlanner};
use fastt::{
    bootstrap_cost_models, data_parallel_plan, data_parallel_plan_on, dpos, dpos_with, DposOptions,
    FastTError, Portfolio, PortfolioInputs, SessionConfig, TrainingSession,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::{canonical_name, CostModels};
use fastt_graph::{replicate, replicate_grouped, Graph, OpKind, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig, SimError};

/// A simulated number, or the `OOM`/`ERR` cell its error renders as.
fn sim_cell(r: Result<f64, SimError>, prec: usize) -> Cell {
    match r {
        Ok(v) => Cell::Num(v, prec),
        Err(e) if e.is_oom() => Cell::Oom,
        Err(_) => Cell::Err,
    }
}

/// Which of the paper's two scaling tables [`scaling`] builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaling {
    /// Table 1: the global batch stays fixed while GPUs are added.
    Strong,
    /// Table 2: the per-GPU batch stays fixed, so the global batch grows
    /// with the GPU count.
    Weak,
}

/// Tables 1 and 2: training speed (samples/s) of DP vs FastT on 1 GPU, then
/// on every setting of [`STRONG_SCALING`] or [`WEAK_SCALING`]. The final
/// column is the speedup of the best FastT entry over the best DP entry (how
/// the paper computes its bold speedup column).
pub fn scaling(kind: Scaling, models: &[Model]) -> Table {
    let (title, first, settings) = match kind {
        Scaling::Strong => (
            "Table 1: strong scaling, samples/s (global batch fixed)",
            "Model(batch)",
            STRONG_SCALING,
        ),
        Scaling::Weak => (
            "Table 2: weak scaling, samples/s (per-GPU batch fixed)",
            "Model(batch/GPU)",
            WEAK_SCALING,
        ),
    };
    let mut columns = vec![first.to_string(), "1 GPU".to_string()];
    for (label, ..) in settings {
        columns.push(format!("{label} DP"));
        columns.push(format!("{label} FastT"));
    }
    columns.push("Speedup".into());
    let mut table = Table::new(title, &columns);
    table.num_width = 9;

    for &model in models {
        let b = model.paper_batch();
        // single GPU: DP and FastT coincide (one replica, no choices)
        let single = run_dp(model, &Topology::single_server(1), b);
        let mut best_dp = single.as_ref().map_or(0.0, |m| m.samples_per_sec);
        let mut best_ft = best_dp;
        let mut row = vec![
            Cell::Text(format!("{}({b})", model.name())),
            sim_cell(single.map(|m| m.samples_per_sec), 1),
        ];

        for (label, servers, gpus_per_server) in settings {
            let topo = Topology::multi_server(servers, gpus_per_server);
            let n = (servers * gpus_per_server) as u32;
            let prb = match kind {
                Scaling::Strong => per_replica_batch(model, b, n),
                Scaling::Weak => b,
            };
            let dp = run_dp(model, &topo, prb);
            if let Ok(m) = &dp {
                best_dp = best_dp.max(m.samples_per_sec);
            }
            row.push(sim_cell(dp.map(|m| m.samples_per_sec), 1));
            row.push(match run_fastt(model, &topo, prb, prb * n as u64) {
                Ok(ft) => {
                    best_ft = best_ft.max(ft.measurement.samples_per_sec);
                    Cell::Num(ft.measurement.samples_per_sec, 1)
                }
                Err(e) => {
                    eprintln!("[{kind:?} scaling] {model} {label}: {e}");
                    Cell::Err
                }
            });
        }

        let speedup = if best_dp > 0.0 {
            (best_ft / best_dp - 1.0) * 100.0
        } else {
            f64::NAN
        };
        row.push(Cell::Pct(speedup, 1));
        table.rows.push(row);
    }
    table
}

/// Table 3: per-iteration training time (seconds) for BERT-large at growing
/// global batch sizes — single GPU, 2-GPU DP, and 2-GPU FastT. Data
/// parallelism runs out of memory beyond batch 32; FastT keeps training at
/// 40 and 48 by deploying the model across both GPUs.
pub fn table3() -> Table {
    let mut table = Table::new(
        "Table 3: Bert-large per-iteration time (s) vs global batch",
        &["Global batch", "Single GPU", "2GPUs DP", "2GPUs FastT"],
    );
    table.rows = [16, 32, 40, 48].map(table3_row).to_vec();
    table
}

/// One row of [`table3`], at global batch `batch`.
pub fn table3_row(batch: u64) -> Vec<Cell> {
    let model = Model::BertLarge;
    let single = run_dp(model, &Topology::single_server(1), batch).map(|m| m.iter_time);
    let topo2 = Topology::single_server(2);
    let dp = run_dp(model, &topo2, batch / 2).map(|m| m.iter_time);
    let ft = match run_fastt(model, &topo2, batch / 2, batch) {
        Ok(r) => Cell::Num(r.measurement.iter_time, 3),
        Err(FastTError::NoFeasibleStart { .. }) => Cell::Oom,
        Err(FastTError::Sim(e)) if e.is_oom() => Cell::Oom,
        Err(_) => Cell::Err,
    };
    vec![
        Cell::Text(format!("Bert-large({batch})")),
        sim_cell(single, 3),
        sim_cell(dp, 3),
        ft,
    ]
}

/// Table 4: wall-clock time to compute the FastT strategies (Alg. 2) per
/// model and GPU count.
///
/// The paper's numbers (minutes) include profiling iterations and session
/// restarts on real hardware; ours isolate the pure strategy computation
/// (DPOS/OS-DPOS invocations during the whole pre-training workflow), the
/// quantity that actually scales with model size and device count. Relative
/// ordering across models/GPU counts is the reproducible shape. This is the
/// only table whose cells vary from run to run.
pub fn table4(models: &[Model]) -> Table {
    let mut table = Table::new(
        "Table 4: strategy computation time (s, wall clock in Alg.1/Alg.2)",
        &["Model(batch)", "2GPUs", "4GPUs", "8GPUs"],
    );
    for &model in models {
        let global = model.paper_batch();
        let mut row = vec![Cell::Text(format!("{}({global})", model.name()))];
        for gpus in [2u16, 4, 8] {
            let topo = Topology::single_server(gpus);
            let prb = per_replica_batch(model, global, gpus as u32);
            row.push(match run_fastt(model, &topo, prb, global) {
                Ok(r) => Cell::Num(r.report.strategy_calc_secs, 2),
                Err(e) => {
                    eprintln!("[table4] {model} {gpus} GPUs: {e}");
                    Cell::Err
                }
            });
        }
        table.rows.push(row);
    }
    table
}

/// Table 5: split decisions for representative operations in VGG-19
/// (4 GPUs, the paper's best-speedup setting): per-op execution time,
/// weight size, and whether FastT decided to split it.
///
/// The paper's qualitative finding: ops that get split have long execution
/// time and small weights; large-weight ops (fc6) are not split to avoid
/// broadcasting parameters.
pub fn table5() -> Table {
    let model = Model::Vgg19;
    let topo = Topology::single_server(4);
    let prb = per_replica_batch(model, 64, 4);
    let run = run_fastt(model, &topo, prb, 64).expect("vgg fits");
    let plan = run.session.current_plan();
    let cost = &run.session.cost;

    let split_names: Vec<String> = plan
        .splits
        .iter()
        .map(|s| canonical_name(&s.op_name))
        .collect();

    let mut table = Table::new(
        "Table 5: split decisions for representative VGG-19 ops (4 GPUs)",
        &["Operation", "Time(ms)", "Weight(KB)", "Split"],
    );

    let representative = [
        "conv1_1",
        "conv1_2",
        "grad/conv1_2",
        "relu1_2",
        "pool1",
        "fc6",
    ];
    // weights of an op live in its `<name>/weights` variable
    let graph = &plan.graph;
    for name in representative {
        // find any instance (replica 0 by convention, or a part of it)
        let present = graph.iter_ops().any(|(_, o)| {
            canonical_name(&o.name) == name || {
                // split parts keep the parent name plus `.part#`
                canonical_name(&o.name).starts_with(name)
                    && canonical_name(&o.name)[name.len()..].starts_with(".part")
            }
        });
        let time_ms = cost
            .comp
            .max_time(name)
            .map(|t| t * 1e3)
            .unwrap_or(f64::NAN);
        let weight_kb = graph
            .iter_ops()
            .find(|(_, o)| {
                o.kind == OpKind::Variable
                    && canonical_name(&o.name)
                        == format!("{}/weights", name.trim_start_matches("grad/"))
            })
            .map(|(_, o)| o.param_bytes as f64 / 1024.0)
            .unwrap_or(0.0);
        let split = split_names.iter().any(|s| s == name);
        table.rows.push(vec![
            Cell::Text(name.into()),
            Cell::Num(time_ms, 3),
            Cell::Num(weight_kb, 1),
            Cell::Text(if present {
                split.to_string()
            } else {
                format!("{split} (op absent)")
            }),
        ]);
    }

    table
        .notes
        .push(format!("All split decisions: {:?}", plan.splits));
    table
}

/// Table 6: per-iteration training time with and without operation
/// splitting, plus the key split op kinds (the paper's ablation of
/// Alg. 2: conv-heavy CNNs benefit from Conv2D/Conv2DBackprop splits,
/// attention models from MatMul splits, LeNet/AlexNet/LSTMs not at all).
///
/// To isolate the split decision, both plans are computed from the
/// *same* trained cost models (one FastT session with splitting on):
/// "Split" is the OS-DPOS plan, "No split" the plain-DPOS plan, and
/// both are measured in the simulator under order enforcement.
pub fn table6(models: &[Model]) -> Table {
    let mut table = Table::new(
        "Table 6: per-iteration time (s) with/without operation split (8 GPUs)",
        &["Model", "No split", "Split", "Speedup", "Key split op"],
    );
    let failed = |model: Model| {
        vec![
            Cell::Text(model.name().into()),
            Cell::Err,
            Cell::Err,
            Cell::Text("-".into()),
            Cell::Text("-".into()),
        ]
    };

    let hw = HardwarePerf::new();
    for &model in models {
        let topo = Topology::single_server(8);
        let global = model.paper_batch();
        let prb = per_replica_batch(model, global, 8);
        // one session to train the cost models (and the base graph)
        let run = match run_fastt(model, &topo, prb, global) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("[table6] {model}: {e}");
                table.rows.push(failed(model));
                continue;
            }
        };
        let mut session = run.session;
        // candidate A: OS-DPOS (split search enabled)
        let split_plan = session.compute_candidate();
        // candidate B: plain DPOS from the same cost models
        let no_split_plan = session.compute_candidate_no_split();

        let measure = |p: &fastt::Plan| -> Option<f64> {
            p.simulate(&topo, &hw, &SimConfig::default())
                .ok()
                .map(|t| t.makespan)
        };
        let row = match (measure(&no_split_plan), measure(&split_plan)) {
            (Some(t0), Some(t1)) => {
                let mut kinds: Vec<String> = split_plan
                    .splits
                    .iter()
                    .map(|d| {
                        let base = canonical_name(&d.op_name);
                        split_plan
                            .graph
                            .iter_ops()
                            .find(|(_, o)| {
                                canonical_name(&o.name).starts_with(&format!("{base}.part"))
                            })
                            .map(|(_, o)| o.kind.to_string())
                            .unwrap_or(base)
                    })
                    .collect();
                kinds.sort();
                kinds.dedup();
                let key = if kinds.is_empty() {
                    "None".to_string()
                } else {
                    kinds.join(",")
                };
                vec![
                    Cell::Text(model.name().into()),
                    Cell::Num(t0, 3),
                    Cell::Num(t1, 3),
                    Cell::Pct((t0 / t1 - 1.0) * 100.0, 2),
                    Cell::Text(key),
                ]
            }
            _ => failed(model),
        };
        table.rows.push(row);
    }
    table
}

/// Fig. 2: performance gain of order enforcement. Each model runs on 2 GPUs
/// under the default data-parallel placement; we compare TensorFlow's
/// default FIFO execution order against FastT's enforced order computed for
/// the *same* placement (isolating the ordering effect, as the paper does).
pub fn fig2() -> Table {
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let mut table = Table::new(
        "Fig. 2: per-iteration time (s), default FIFO vs order enforcement (2 GPUs, DP placement)",
        &["Model", "Default", "Order enforce", "Reduction"],
    );

    for model in [Model::AlexNet, Model::Vgg19, Model::LeNet, Model::ResNet200] {
        let prb = model.paper_batch() / 2;
        let graph = model.training_graph(prb);
        let rep = replicate_grouped(&graph, &[0, 0], ReplicationMode::ParameterServer)
            .expect("replicates");
        let mut plan = dp_plan(model, &rep, &topo);

        // profile under FIFO to learn the cost models and the baseline time
        let mut cost = CostModels::new();
        let mut fifo_time = 0.0;
        for it in 0..MEASURE_ITERS {
            let cfg = SimConfig {
                jitter_pct: 0.02,
                iteration: it as u64,
                ..SimConfig::default()
            };
            let tr = plan.simulate(&topo, &hw, &cfg).expect("DP fits");
            cost.update_from_trace(&rep.graph, &tr);
            fifo_time += tr.makespan;
        }
        let fifo_time = fifo_time / MEASURE_ITERS as f64;

        // enforce the order the strategy calculator derives for the SAME
        // placement
        let opts = DposOptions {
            fixed: Some(&plan.placement),
            ..DposOptions::default()
        };
        let sched = dpos_with(&rep.graph, &topo, &cost, &hw, &opts);
        plan.order = Some(sched.order);
        let mut ord_time = 0.0;
        for it in 0..MEASURE_ITERS {
            let cfg = SimConfig {
                jitter_pct: 0.02,
                iteration: 100 + it as u64,
                ..SimConfig::default()
            };
            ord_time += plan
                .simulate(&topo, &hw, &cfg)
                .expect("same memory")
                .makespan;
        }
        let ord_time = ord_time / MEASURE_ITERS as f64;

        table.rows.push(vec![
            Cell::Text(model.name().into()),
            Cell::Num(fifo_time, 4),
            Cell::Num(ord_time, 4),
            Cell::Pct((1.0 - ord_time / fifo_time) * 100.0, 1),
        ]);
    }
    table
}

/// Fig. 3: normalized training speed (relative to data parallelism) of
/// REINFORCE, GDP, Post, FlexFlow and FastT over 2/4/8 GPUs (the paper uses
/// Inception-v3, ResNet-200, GNMT and RNNLM).
///
/// Unlike the paper — which copies the comparators' numbers out of their
/// papers — every method here runs in the same simulated cluster (see
/// DESIGN.md): REINFORCE/GDP/Post search placements of the **raw** model
/// graph (model parallelism only, their published solution space), FlexFlow
/// (MCMC) searches the **replicated** graph with a large evaluation budget,
/// and FastT runs its full workflow. The expected shape: FastT beats the
/// model-parallel-only searchers everywhere; FlexFlow comes closest.
pub fn fig3(models: &[Model]) -> Table {
    let hw = HardwarePerf::new();
    let mut table = Table::new(
        "Fig. 3: speed normalized to DP (higher is better)",
        &[
            "Model",
            "GPUs",
            "REINFORCE",
            "GDP",
            "Post",
            "FlexFlow",
            "FastT",
        ],
    );

    for &model in models {
        let global = model.paper_batch();
        for gpus in [2u16, 4, 8] {
            let topo = Topology::single_server(gpus);
            let prb = per_replica_batch(model, global, gpus as u32);
            let dp = run_dp(model, &topo, prb).expect("DP fits");
            let norm = |iter: f64| Cell::Num(dp.iter_time / iter, 2);

            // model-parallel-only searchers on the raw graph at the global
            // batch (they cannot replicate, so they process the full batch)
            let raw = model.training_graph(global.min(prb * gpus as u64));
            let cost = bootstrap_cost_models(&raw, &topo, &hw);

            // one portfolio evaluation runs the three raw-graph
            // searchers concurrently; their `est_finish` is the
            // search's own best simulated time
            let raw_portfolio = Portfolio::new()
                .with(Box::new(ReinforcePlanner {
                    rounds: 12,
                    batch: 8,
                    seed: 11,
                }))
                .with(Box::new(GdpPlanner))
                .with(Box::new(CemPlanner {
                    rounds: 10,
                    pop: 10,
                    elite_frac: 0.25,
                    seed: 13,
                }));
            let raw_outcome = raw_portfolio.evaluate(
                &PortfolioInputs {
                    graph: &raw,
                    raw: None,
                    current: None,
                    topo: &topo,
                    hw: &hw,
                    cost: &cost,
                    collector: None,
                    enable_order: true,
                    dp_ps: None,
                    cache_salt: 0,
                    probe: None,
                },
                None,
            );

            // FlexFlow-like MCMC on the replicated graph, seeded from DP
            let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
            let rep = replicate_grouped(
                &model.training_graph(prb),
                &groups,
                ReplicationMode::ParameterServer,
            )
            .expect("replicates");
            let dp_start = dp_plan(model, &rep, &topo);
            let flexflow = Portfolio::new()
                .with(Box::new(McmcPlanner {
                    evals: 400,
                    temp: 0.03,
                    seed: 17,
                    start_from_current: true,
                }))
                .evaluate(
                    &PortfolioInputs {
                        graph: &rep.graph,
                        raw: None,
                        current: Some(&dp_start),
                        topo: &topo,
                        hw: &hw,
                        cost: &cost,
                        collector: None,
                        enable_order: true,
                        dp_ps: None,
                        cache_salt: 0,
                        probe: None,
                    },
                    None,
                )[0]
            .est_finish();

            let fastt = run_fastt(model, &topo, prb, global).expect("fastt runs");

            table.rows.push(vec![
                Cell::Text(model.name().into()),
                Cell::Num(gpus.into(), 0),
                norm(raw_outcome[0].est_finish()),
                norm(raw_outcome[1].est_finish()),
                norm(raw_outcome[2].est_finish()),
                norm(flexflow),
                norm(fastt.measurement.iter_time),
            ]);
        }
    }
    table
}

/// Fig. 4: number of operations placed on each GPU by FastT, for AlexNet,
/// VGG-19 and LeNet on `gpus` GPUs (the paper shows 2 and 4). The paper's
/// observation: FastT does not allocate operations evenly — replicas of
/// large-parameter ops concentrate on one GPU to avoid gradient
/// aggregation, while compute-heavy ops spread.
pub fn fig4(gpus: u16) -> Table {
    let mut table = Table::new(
        format!("Fig. 4: ops per GPU under FastT ({gpus} GPUs)"),
        &["Model", "Ops per GPU (gpu0..)", "Total"],
    );
    for model in [Model::AlexNet, Model::Vgg19, Model::LeNet] {
        let topo = Topology::single_server(gpus);
        let global = model.paper_batch();
        let prb = per_replica_batch(model, global, gpus as u32);
        let name = Cell::Text(model.name().into());
        table.rows.push(match run_fastt(model, &topo, prb, global) {
            Ok(run) => {
                let hist = run.session.current_plan().placement.op_histogram(&topo);
                let gpu_hist: Vec<usize> = topo.gpu_ids().map(|d| hist[d.index()]).collect();
                let host_ops: usize = topo
                    .device_ids()
                    .filter(|d| topo.is_host(*d))
                    .map(|d| hist[d.index()])
                    .sum();
                let total: usize = hist.iter().sum();
                let mut ops = format!("{gpu_hist:?}");
                if host_ops > 0 {
                    ops += &format!(" (+{host_ops} on host)");
                }
                vec![name, Cell::Text(ops), Cell::Num(total as f64, 0)]
            }
            Err(e) => vec![
                name,
                Cell::Text(format!("ERR: {e}")),
                Cell::Text("-".into()),
            ],
        });
    }
    table
}

/// Fig. 5: average computation time, memcpy (tensor transfer) time, and
/// per-iteration time for data parallelism vs FastT on 2 GPUs. The paper's
/// observation: FastT may *increase* computation time (more ops packed on
/// fewer devices) while reducing memcpy time and the per-iteration time.
pub fn fig5() -> Table {
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let mut table = Table::new(
        "Fig. 5: computation / memcpy / per-iteration time (ms), 2 GPUs",
        &[
            "Model",
            "DP comp",
            "DP memcpy",
            "DP iter",
            "FastT comp",
            "FastT memcpy",
            "FastT iter",
        ],
    );

    for model in [Model::Vgg19, Model::ResNet200, Model::AlexNet, Model::LeNet] {
        let global = model.paper_batch();
        let prb = per_replica_batch(model, global, 2);
        let graph = model.training_graph(prb);
        let rep = replicate_grouped(&graph, &[0, 0], ReplicationMode::ParameterServer)
            .expect("replicates");
        let dp_tr = dp_plan(model, &rep, &topo)
            .simulate(&topo, &hw, &SimConfig::default())
            .expect("DP fits");

        let ft = run_fastt(model, &topo, prb, global).expect("fastt runs");
        let ft_tr = ft
            .session
            .current_plan()
            .simulate(&topo, &hw, &SimConfig::default())
            .expect("plan fits");

        table.rows.push(vec![
            Cell::Text(model.name().into()),
            Cell::Num(dp_tr.total_compute_time() * 1e3, 2),
            Cell::Num(dp_tr.total_memcpy_time() * 1e3, 2),
            Cell::Num(dp_tr.makespan * 1e3, 2),
            Cell::Num(ft_tr.total_compute_time() * 1e3, 2),
            Cell::Num(ft_tr.total_memcpy_time() * 1e3, 2),
            Cell::Num(ft_tr.makespan * 1e3, 2),
        ]);
    }
    table
}

fn bootstrapped(graph: &Graph, topo: &Topology) -> CostModels {
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
    let mut p = Placement::uniform(graph.op_count(), DeviceId(0));
    for (i, op) in graph.op_ids().enumerate() {
        p.set(op, DeviceId((i % topo.gpu_count()) as u16));
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

/// Cost models filled directly from the ground truth — the "oracle" the
/// learned models are compared against.
fn oracle(graph: &Graph, topo: &Topology) -> CostModels {
    let hw = HardwarePerf::new();
    let mut cost = CostModels::new();
    for (oid, op) in graph.iter_ops() {
        for d in topo.gpu_ids() {
            cost.comp
                .observe(&op.name, d, hw.exec_time(graph, oid, topo.device(d)));
        }
    }
    for s in topo.device_ids() {
        for d in topo.device_ids() {
            if s == d {
                continue;
            }
            if let Some(l) = topo.link(s, d) {
                for bytes in [1u64 << 12, 1 << 18, 1 << 24] {
                    cost.comm.observe(s, d, bytes, l.transfer_time(bytes));
                }
            }
        }
    }
    cost.comm.refit();
    cost
}

fn sim_time(graph: &Graph, topo: &Topology, s: &fastt::Schedule) -> f64 {
    match simulate(
        graph,
        topo,
        &s.placement,
        &HardwarePerf::new(),
        ExecPolicy::Priority(&s.order),
        &SimConfig::default(),
    ) {
        Ok(t) => t.makespan,
        Err(_) => f64::NAN,
    }
}

/// Ablation of two DPOS design choices: idle-slot insertion vs append-only
/// scheduling (`avail[j]`, Sec. 5.1) and critical-path device grouping vs
/// pure min-EFT, as simulated seconds per iteration on 4 GPUs.
pub fn dpos_ablation() -> Table {
    let mut table = Table::new(
        "Ablation: DPOS design choices (simulated s/iteration, 4 GPUs)",
        &[
            "Model",
            "full DPOS",
            "no insertion",
            "no CP grouping",
            "neither",
        ],
    );
    let hw = HardwarePerf::new();
    for model in [Model::Vgg19, Model::InceptionV3, Model::Gnmt4] {
        let graph = model.training_graph(8);
        let topo = Topology::single_server(4);
        let rep = replicate(&graph, 4).unwrap();
        let cost = bootstrapped(&rep.graph, &topo);
        let mut row = vec![Cell::Text(model.name().into())];
        for (insertion, cp_grouping) in [(true, true), (false, true), (true, false), (false, false)]
        {
            let opts = DposOptions {
                insertion,
                cp_grouping,
                ..DposOptions::default()
            };
            let s = dpos_with(&rep.graph, &topo, &cost, &hw, &opts);
            row.push(Cell::Num(sim_time(&rep.graph, &topo, &s), 4));
        }
        table.rows.push(row);
    }
    table
}

/// Ablation of the learned cost models against an oracle that reads the
/// hardware ground truth: DPOS's estimate and simulated time with each.
pub fn cost_model_ablation() -> Table {
    let mut table = Table::new(
        "Ablation: learned cost models vs ground-truth oracle (4 GPUs)",
        &[
            "Model",
            "learned est",
            "learned sim",
            "oracle est",
            "oracle sim",
        ],
    );
    let hw = HardwarePerf::new();
    for model in [Model::AlexNet, Model::Vgg19] {
        let graph = model.training_graph(8);
        let topo = Topology::single_server(4);
        let rep = replicate(&graph, 4).unwrap();
        let learned = bootstrapped(&rep.graph, &topo);
        let orc = oracle(&rep.graph, &topo);
        let sl = dpos(&rep.graph, &topo, &learned, &hw);
        let so = dpos(&rep.graph, &topo, &orc, &hw);
        table.rows.push(vec![
            Cell::Text(model.name().into()),
            Cell::Num(sl.est_finish, 4),
            Cell::Num(sim_time(&rep.graph, &topo, &sl), 4),
            Cell::Num(so.est_finish, 4),
            Cell::Num(sim_time(&rep.graph, &topo, &so), 4),
        ]);
    }
    table
}

/// Ablation of the DP baseline's parameter-server placement: CPU host vs
/// GPU 0, in simulated seconds per iteration on 2 GPUs.
pub fn ps_placement_ablation() -> Table {
    let mut table = Table::new(
        "Ablation: parameter-server placement for DP (2 GPUs, s/iteration)",
        &["Model", "PS on CPU host", "PS on GPU 0"],
    );
    let hw = HardwarePerf::new();
    for model in [Model::Vgg19, Model::AlexNet, Model::Rnnlm] {
        let graph = model.training_graph(model.paper_batch() / 2);
        let topo = Topology::single_server(2);
        let rep = replicate(&graph, 2).unwrap();
        let t = |p: &fastt::Plan| match p.simulate(&topo, &hw, &SimConfig::default()) {
            Ok(t) => Cell::Num(t.makespan, 4),
            Err(_) => Cell::Oom,
        };
        table.rows.push(vec![
            Cell::Text(model.name().into()),
            t(&data_parallel_plan(&rep, &topo)),
            t(&data_parallel_plan_on(&rep, &topo, DeviceId(0))),
        ]);
    }
    table
}

/// Search-budget study: strategy quality vs the number of full training
/// iterations each method consumes — our measured version of the paper's
/// central resource argument ("REINFORCE and GDP use another big cluster …
/// and spend hours", while FastT "can find excellent device placement and
/// execution order within minutes using the same computing node").
///
/// One row per budget level gives the best simulated iteration time each
/// black-box method found; the notes give the one-shot white-box results
/// (GDP, FastT) and the DP baseline. Table 4 reports how long FastT's
/// strategies take to compute.
pub fn search_budget() -> Table {
    let model = Model::InceptionV3;
    let gpus = 4u16;
    let topo = Topology::single_server(gpus);
    let hw = HardwarePerf::new();
    let global = model.paper_batch();

    // DP reference
    let replica = model.training_graph(global / gpus as u64);
    let rep = replicate(&replica, gpus as u32).unwrap();
    let dp = data_parallel_plan(&rep, &topo);
    let dp_time = dp
        .simulate(&topo, &hw, &SimConfig::default())
        .expect("DP fits")
        .makespan;
    let mut table = Table::new(
        format!("Search budget vs quality — {model}, {gpus} GPUs"),
        &[
            "budget (evals)",
            "random",
            "REINFORCE",
            "Post (CEM)",
            "FlexFlow (MCMC)",
        ],
    );

    let raw = model.training_graph(global);
    // a planner's best simulated time; the black-box searchers ignore the
    // cost models
    let best = |planner: &dyn Planner, graph: &Graph, current: Option<&fastt::Plan>| {
        let mut ctx = PlanningContext::new(graph, &topo, &hw, CostModels::new());
        ctx.current = current;
        Cell::Num(planner.plan(&mut ctx).expect("live GPUs").est_finish, 4)
    };
    for budget in [10u32, 40, 160, 640] {
        let mcmc = McmcPlanner {
            evals: budget,
            temp: 0.03,
            seed: 4,
            start_from_current: true,
        };
        table.rows.push(vec![
            Cell::Num(budget.into(), 0),
            best(
                &RandomPlanner {
                    evals: budget,
                    seed: 1,
                },
                &raw,
                None,
            ),
            best(
                &ReinforcePlanner {
                    rounds: budget / 8,
                    batch: 8,
                    seed: 2,
                },
                &raw,
                None,
            ),
            best(
                &CemPlanner {
                    rounds: budget / 10,
                    pop: 10,
                    elite_frac: 0.25,
                    seed: 3,
                },
                &raw,
                None,
            ),
            best(&mcmc, &rep.graph, Some(&dp)),
        ]);
    }

    // one-shot white-box methods for contrast
    let cost = bootstrap_cost_models(&raw, &topo, &hw);
    let gdp = GdpPlanner
        .plan(&mut PlanningContext::new(&raw, &topo, &hw, cost))
        .expect("live GPUs");
    let mut session =
        TrainingSession::new(&replica, topo.clone(), hw.clone(), SessionConfig::default())
            .expect("feasible");
    let report = session.pre_train().expect("trains");
    table.notes = vec![
        format!("DP baseline: {dp_time:.4} s/iteration"),
        format!("GDP (white box, 1 eval): {:.4} s/iteration", gdp.est_finish),
        format!(
            "FastT (white box + profiling): {:.4} s/iteration",
            report.final_iter_time
        ),
    ];
    table
}
