//! GDP-style white-box placement (Zhou et al. \[48\]): a one-shot
//! rank-ordered min-EFT assignment over the raw model graph. Like FastT it
//! needs no search, but its solution space is model parallelism only — no
//! data parallelism, no operation splitting, no order enforcement — which is
//! why FastT dominates it in the paper's Fig. 3.

use super::{fifo_time, placement_plan};
use crate::planner::{Planner, PlannerKind, PlanningContext};
use crate::rank::upward_ranks_with;
use crate::timeline::DeviceTimeline;
use crate::{FastTError, Plan};
use fastt_cluster::DeviceId;
use fastt_sim::Placement;

/// Places every op by minimal EFT in rank order (no critical-path device
/// grouping, no ordering output) and evaluates the result once. White-box
/// like DPOS (it reads the cost models), so its cached plans are
/// invalidated by cost-model updates.
#[derive(Debug, Clone, Copy, Default)]
pub struct GdpPlanner;

impl Planner for GdpPlanner {
    fn name(&self) -> &'static str {
        "gdp"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::WhiteBox
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let (graph, topo, cost, hw) = (ctx.graph, ctx.topo, &ctx.cost, ctx.hw);
        let n = graph.op_count();
        let comp = cost.comp.table(graph);
        let ranks = upward_ranks_with(graph, &comp, &cost.comm);
        let topo_order = graph.topo_order().expect("DAG");
        let mut topo_pos = vec![0usize; n];
        for (i, &o) in topo_order.iter().enumerate() {
            topo_pos[o.index()] = i;
        }
        let mut queue: Vec<_> = graph.op_ids().collect();
        queue.sort_by(|a, b| {
            ranks[b.index()]
                .total_cmp(&ranks[a.index()])
                .then(topo_pos[a.index()].cmp(&topo_pos[b.index()]))
        });

        let n_dev = topo.device_count();
        let mut timelines: Vec<DeviceTimeline> =
            (0..n_dev).map(|_| DeviceTimeline::new()).collect();
        let mut mem_used = vec![0u64; n_dev];
        let mut ft = vec![0.0f64; n];
        let mut placement = Placement::uniform(n, DeviceId(0));
        let mut forced: Vec<Option<DeviceId>> = vec![None; n];
        let mut placed = vec![false; n];

        for &o in &queue {
            let need = hw.planning_bytes(graph.op_ref(o));
            let candidates: Vec<DeviceId> = if let Some(d) = forced[o.index()] {
                vec![d]
            } else {
                let fitting: Vec<DeviceId> = topo
                    .gpu_ids()
                    .filter(|d| mem_used[d.index()] + need <= topo.device(*d).mem_bytes)
                    .collect();
                if fitting.is_empty() {
                    vec![topo
                        .gpu_ids()
                        .max_by_key(|d| {
                            topo.device(*d)
                                .mem_bytes
                                .saturating_sub(mem_used[d.index()])
                        })
                        .expect("non-empty topology")]
                } else {
                    fitting
                }
            };
            let mut best = (candidates[0], f64::INFINITY, 0.0);
            for &d in &candidates {
                let w = comp.time(o, d);
                let mut ready = 0.0f64;
                for e in graph.in_edges(o) {
                    let dp = placement.device_of(e.src);
                    let c = if dp == d {
                        0.0
                    } else {
                        // unprofiled links cost their analytic route time, not 0
                        cost.comm
                            .predict(dp, d, e.bytes)
                            .unwrap_or_else(|| topo.transfer_time_routed(dp, d, e.bytes))
                    };
                    ready = ready.max(ft[e.src.index()] + c);
                }
                let est = timelines[d.index()].earliest_slot(ready, w);
                if est + w < best.1 {
                    best = (d, est + w, est);
                }
            }
            let (d, eft, est) = best;
            let w = comp.time(o, d);
            timelines[d.index()].reserve(est, w);
            ft[o.index()] = eft;
            placement.set(o, d);
            placed[o.index()] = true;
            mem_used[d.index()] += need;
            if let Some(grp) = graph.colocation_group(o) {
                for &m in grp {
                    if !placed[m.index()] {
                        forced[m.index()] = Some(d);
                    }
                }
            }
        }

        ctx.evals_used += 1;
        let est_finish = fifo_time(graph, topo, hw, &placement);
        Ok(placement_plan(graph, placement, est_finish))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_cluster::Topology;
    use fastt_cost::CostModels;
    use fastt_graph::{Graph, OpKind, Operation};
    use fastt_sim::HardwarePerf;

    /// GDP's plan with these cost models, and the evaluations it used.
    fn gdp(g: &Graph, topo: &Topology, cost: CostModels) -> (Plan, u32) {
        let hw = HardwarePerf::new();
        let mut ctx = PlanningContext::new(g, topo, &hw, cost);
        let plan = GdpPlanner.plan(&mut ctx).unwrap();
        (plan, ctx.evals_used)
    }

    #[test]
    fn produces_valid_placement_with_one_eval() {
        let g = fastt_models::Model::LeNet.training_graph(16);
        let topo = Topology::single_server(2);
        let mut cost = CostModels::new();
        // profile both devices coarsely so EFT has signal
        for (_, o) in g.iter_ops() {
            for d in topo.gpu_ids() {
                cost.comp.observe(&o.name, d, 1e-4);
            }
        }
        let (plan, evals) = gdp(&g, &topo, cost);
        plan.placement.validate(&g, &topo).unwrap();
        assert_eq!(evals, 1);
        assert!(plan.est_finish.is_finite());
    }

    #[test]
    fn parallelizes_independent_chains_when_profiled() {
        let mut g = Graph::new();
        let mut cost = CostModels::new();
        let topo = Topology::single_server(2);
        for c in 0..2 {
            let a = g
                .add_op(Operation::new(format!("a{c}"), OpKind::MatMul, [4]))
                .unwrap();
            let b = g
                .add_op(Operation::new(format!("b{c}"), OpKind::MatMul, [4]))
                .unwrap();
            g.connect(a, b).unwrap();
            for d in topo.gpu_ids() {
                cost.comp.observe(&format!("a{c}"), d, 1.0);
                cost.comp.observe(&format!("b{c}"), d, 1.0);
            }
        }
        for s in topo.gpu_ids() {
            for d in topo.gpu_ids() {
                if s != d {
                    cost.comm.observe(s, d, 16, 1e-5);
                }
            }
        }
        cost.comm.refit();
        let (plan, _) = gdp(&g, &topo, cost);
        assert_eq!(plan.placement.devices_used().len(), 2);
    }
}
