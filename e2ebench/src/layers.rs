//! Per-layer timings for the traced run: each layer's public function,
//! called once on every unit's own inputs (graph, topology, bootstrapped
//! cost models and adopted plan), timed from here. Nothing inside the
//! program is instrumented by this file.

use crate::trace::Tracer;
use crate::workloads::{fleet_templates, fleet_topology, GraphBuilder, SessionUnit};
use fastt::{
    bootstrap_cost_models, dpos, os_dpos, upward_ranks, DposPlanner, HierarchicalPlanner,
    OrderOnlyPlanner, OsDposOptions, OsDposPlanner, Plan, PlanCache, Planner, PlanningContext,
    Portfolio, PortfolioInputs, SessionConfig, TrainingSession,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{decompose_with, DecomposeOptions, Graph};
use fastt_sim::{HardwarePerf, SimConfig};
use std::collections::BTreeMap;

/// Route sweeps per unit; `cluster.route_s` is their median.
const ROUTE_SWEEPS: usize = 9;

/// The inputs every layer is timed on.
pub struct LayerInput {
    pub label: String,
    pub build: GraphBuilder,
    pub batch: u64,
    /// The graph the workload's sessions plan from.
    pub base: Graph,
    pub raw: Graph,
    pub topo: Topology,
    /// The plan the workload adopted.
    pub plan: Plan,
    /// The session that adopted it (profiled once more for `session.profile_s`).
    pub session: TrainingSession,
    /// Whether the workload's planner splits operations (OS-DPOS).
    pub split: bool,
    pub dp_ps: Option<DeviceId>,
}

impl LayerInput {
    /// The layer inputs of a finished session unit: its start graph, the
    /// topology it ended on and the plan it adopted.
    pub fn from_session(unit: SessionUnit) -> Self {
        LayerInput {
            label: unit.label,
            build: unit.build,
            batch: unit.batch,
            base: unit.base,
            raw: unit.raw,
            topo: unit.session.topology().clone(),
            plan: unit.session.current_plan().clone(),
            split: unit.config.enable_split,
            dp_ps: unit.config.dp_ps,
            session: unit.session,
        }
    }

    /// The layer inputs of the fleet: each template admitted on the whole
    /// shared cluster, its start plan standing in as the adopted plan (fleet
    /// jobs are profiled and re-planned on admission, preemption and
    /// growth, never pre-trained).
    pub fn fleet() -> Result<Vec<Self>, String> {
        fleet_templates()
            .into_iter()
            .map(|(model, batch, name, raw)| {
                let config = SessionConfig {
                    dp_ps: fastt_bench::dp_ps_for(model),
                    ..SessionConfig::default()
                };
                let split = config.enable_split;
                let session =
                    TrainingSession::new(&raw, fleet_topology(), HardwarePerf::new(), config)
                        .map_err(|e| format!("{name}: TrainingSession::new: {e}"))?;
                Ok(LayerInput {
                    label: name,
                    build: Box::new(move |b| model.training_graph(b)),
                    batch,
                    base: session.current_plan().graph.clone(),
                    raw,
                    topo: fleet_topology(),
                    plan: session.current_plan().clone(),
                    split,
                    dp_ps: fastt_bench::dp_ps_for(model),
                    session,
                })
            })
            .collect()
    }
}

/// Sums of each layer metric over the units.
pub type LayerMetrics = BTreeMap<&'static str, f64>;

/// Times every layer on every unit, adding into `out`.
pub fn time_layers(units: &mut [LayerInput], tracer: &mut Tracer, out: &mut LayerMetrics) {
    let hw = HardwarePerf::new();
    let mut add = |name: &'static str, v: f64| *out.entry(name).or_insert(0.0) += v;
    for u in units.iter_mut() {
        let l = u.label.clone();
        let (_, s) = tracer.time(&l, "graph.build", || (u.build)(u.batch));
        add("graph.build_s", s);
        let (cost, s) = tracer.time(&l, "cost.bootstrap", || {
            bootstrap_cost_models(&u.base, &u.topo, &hw)
        });
        add("cost.bootstrap_s", s);
        // The options the hierarchical planner decomposes with.
        let (tree, s) = tracer.time(&l, "graph.decompose", || {
            decompose_with(&u.base, DecomposeOptions::for_graph(&u.base))
        });
        add("graph.decompose_s", s);
        add("graph.regions", tree.len() as f64);
        let (_, s) = tracer.time(&l, "rank.upward", || upward_ranks(&u.base, &cost));
        add("rank.upward_s", s);
        let (sched, s) = tracer.time(&l, "dpos.place", || dpos(&u.base, &u.topo, &cost, &hw));
        add("dpos.place_s", s);
        add("dpos.ops_placed", sched.order.len() as f64);
        if u.split {
            let mut c = cost.clone();
            let opts = OsDposOptions::for_topology(&u.topo);
            let (plan, s) = tracer.time(&l, "os_dpos.plan", || {
                os_dpos(&u.base, &u.topo, &mut c, &hw, &opts)
            });
            add("os_dpos.plan_s", s);
            add("os_dpos.splits", plan.splits.len() as f64);
        }
        let ctx = || PlanningContext::new(&u.base, &u.topo, &hw, cost.clone());
        let (_, s) = tracer.time(&l, "planner.order_only", || {
            OrderOnlyPlanner.plan(&mut ctx().with_current(&u.plan))
        });
        add("planner.order_only_s", s);
        let (_, s) = tracer.time(&l, "planner.hier", || {
            HierarchicalPlanner::default().plan(&mut ctx())
        });
        add("planner.hier_s", s);
        // The pre-training round's portfolio, on a cold cache.
        let main: Box<dyn Planner> = if u.split {
            Box::new(OsDposPlanner::default())
        } else {
            Box::new(DposPlanner)
        };
        let portfolio = Portfolio::new()
            .with(main)
            .with(Box::new(HierarchicalPlanner::default()))
            .with(Box::new(OrderOnlyPlanner));
        let inputs = PortfolioInputs {
            graph: &u.base,
            raw: Some(&u.raw),
            current: Some(&u.plan),
            topo: &u.topo,
            hw: &hw,
            cost: &cost,
            collector: None,
            enable_order: true,
            dp_ps: u.dp_ps,
            cache_salt: 0,
            probe: None,
        };
        let cache = PlanCache::default();
        let (_, s) = tracer.time(&l, "planner.portfolio", || {
            portfolio.evaluate(&inputs, Some(&cache))
        });
        add("planner.portfolio_s", s);
        let (_, s) = tracer.time(&l, "session.profile", || u.session.profile(1));
        add("session.profile_s", s);
        let (trace, s) = tracer.time(&l, "sim.simulate", || {
            u.plan.simulate(&u.topo, &hw, &SimConfig::default())
        });
        add("sim.simulate_s", s);
        if let Ok(t) = trace {
            add(
                "sim.trace_records",
                (t.op_records.len() + t.transfers.len() + t.collectives.len()) as f64,
            );
        }
        add("cluster.route_s", route_sweep(&l, &u.topo, tracer));
    }
}

/// Median time of `Topology::route` over every device pair, on the healthy
/// topology and again with one inter-GPU link degraded.
fn route_sweep(unit: &str, topo: &Topology, tracer: &mut Tracer) -> f64 {
    let ids: Vec<DeviceId> = topo.device_ids().collect();
    let gpus: Vec<DeviceId> = topo.gpu_ids().collect();
    let mut degraded = topo.clone();
    if let [a, b, ..] = gpus[..] {
        degraded.degrade_link(a, b, 4.0);
    }
    let mut times: Vec<f64> = (0..ROUTE_SWEEPS)
        .map(|_| {
            let (_, s) = tracer.time(unit, "cluster.route", || {
                let mut hops = 0usize;
                for t in [topo, &degraded] {
                    for &a in &ids {
                        for &b in &ids {
                            if a != b {
                                hops += t.route(a, b).len();
                            }
                        }
                    }
                }
                hops
            });
            s
        })
        .collect();
    crate::stats::median(&mut times)
}
