//! White-box re-implementations of the *essence* of the approaches FastT is
//! compared against in the paper's Fig. 3 — all driven by the same simulated
//! cluster, which makes the comparison honest (the paper itself compares
//! against numbers copied from the other systems' papers). Each is a
//! [`Planner`](crate::planner::Planner):
//!
//! * [`ReinforcePlanner`] — REINFORCE \[32\]: a softmax placement policy
//!   updated by policy gradients over measured runtimes;
//! * [`CemPlanner`] — Post \[18\]: cross-entropy minimization over placement
//!   distributions;
//! * [`McmcPlanner`] — FlexFlow \[27\]: Metropolis–Hastings search over
//!   placements (run it on the replicated graph to give it FlexFlow's larger
//!   solution space);
//! * [`GdpPlanner`] — GDP \[48\]: a one-shot rank-ordered min-EFT placement
//!   without operation splitting or order enforcement;
//! * [`RandomPlanner`] — the sanity-check baseline.
//!
//! The black-box methods *execute* candidate placements to obtain rewards
//! (here: one simulated iteration per candidate), which is exactly why they
//! need orders of magnitude more compute than FastT's white-box heuristics —
//! the paper's core argument. Each adds its evaluations to
//! [`PlanningContext::evals_used`] and reports its best simulated time as
//! the plan's `est_finish`.

mod cem;
mod gdp;
mod mcmc;
mod random;
mod reinforce;

pub use cem::CemPlanner;
pub use gdp::GdpPlanner;
pub use mcmc::McmcPlanner;
pub use random::RandomPlanner;
pub use reinforce::ReinforcePlanner;

use crate::error::FastTError;
use crate::planner::PlanningContext;
use crate::strategy::Plan;
use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{Graph, OpId};
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, Placement, SimConfig};
use rand::rngs::StdRng;
use rand::Rng;

/// Simulated FIFO iteration time of a placement (`f64::INFINITY` on OOM or
/// other failures, so searchers steer away from infeasible points).
fn fifo_time(graph: &Graph, topo: &Topology, hw: &HardwarePerf, p: &Placement) -> f64 {
    match simulate(graph, topo, p, hw, ExecPolicy::Fifo, &SimConfig::default()) {
        Ok(t) => t.makespan,
        Err(_) => f64::INFINITY,
    }
}

/// A searched placement as a [`Plan`]: no splits, no enforced order (the
/// searchers place, they do not sequence), its simulated time as estimate.
fn placement_plan(graph: &Graph, placement: Placement, est_finish: f64) -> Plan {
    Plan {
        graph: graph.clone(),
        splits: Vec::new(),
        placement,
        order: None,
        est_finish,
    }
}

/// Draws an index from a categorical distribution.
fn sample(probs: &[f64], rng: &mut StdRng) -> u16 {
    let x: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &p) in probs.iter().enumerate() {
        acc += p;
        if x <= acc {
            return i as u16;
        }
    }
    (probs.len() - 1) as u16
}

/// The genome codec and evaluation loop the black-box searchers share.
///
/// A genome has one gene per movable unit — a colocation group moves as
/// one, every other op alone — so no genome breaks colocation. Gene `g`
/// places its unit on `targets[g]`: the live GPUs in id order, then any
/// other device a warm-start placement uses, in id order. On a healthy
/// topology gene = device id.
struct Search<'a> {
    graph: &'a Graph,
    topo: &'a Topology,
    hw: &'a HardwarePerf,
    /// Each unit's member ops.
    units: Vec<Vec<OpId>>,
    targets: Vec<DeviceId>,
    /// The first `gpus` targets are the live GPUs searchers draw from.
    gpus: usize,
    evals: u32,
    /// The best genome so far: the first one evaluated, then any strictly
    /// faster one.
    best: Option<(Vec<u16>, f64)>,
}

impl<'a> Search<'a> {
    /// Fails with [`FastTError::ClusterExhausted`] when no GPU is live.
    fn new(ctx: &PlanningContext<'a>) -> Result<Self, FastTError> {
        let graph = ctx.graph;
        let targets: Vec<DeviceId> = ctx.topo.gpu_ids().collect();
        if targets.is_empty() {
            return Err(FastTError::ClusterExhausted);
        }
        let mut units: Vec<Vec<OpId>> = Vec::new();
        let mut seen = vec![false; graph.op_count()];
        for op in graph.op_ids() {
            if seen[op.index()] {
                continue;
            }
            let members = graph
                .colocation_group(op)
                .map_or_else(|| vec![op], |g| g.to_vec());
            for &m in &members {
                seen[m.index()] = true;
            }
            units.push(members);
        }
        Ok(Search {
            graph,
            topo: ctx.topo,
            hw: ctx.hw,
            units,
            gpus: targets.len(),
            targets,
            evals: 0,
            best: None,
        })
    }

    /// A uniform genome over the live GPUs.
    fn random_genome(&self, rng: &mut StdRng) -> Vec<u16> {
        let n = self.gpus as u16;
        (0..self.units.len()).map(|_| rng.gen_range(0..n)).collect()
    }

    /// Encodes a warm-start placement (a unit's first member decides),
    /// first appending the devices it uses that are not targets yet.
    fn encode(&mut self, p: &Placement) -> Vec<u16> {
        let devices: Vec<DeviceId> = self.units.iter().map(|u| p.device_of(u[0])).collect();
        let mut extra: Vec<DeviceId> = devices
            .iter()
            .copied()
            .filter(|d| !self.targets.contains(d))
            .collect();
        extra.sort();
        extra.dedup();
        self.targets.extend(extra);
        devices
            .iter()
            .map(|d| {
                let g = self.targets.iter().position(|t| t == d);
                g.expect("every device the placement uses is a target") as u16
            })
            .collect()
    }

    fn decode(&self, genome: &[u16]) -> Placement {
        let mut p = Placement::uniform(self.graph.op_count(), self.targets[0]);
        for (ops, &g) in self.units.iter().zip(genome) {
            for &o in ops {
                p.set(o, self.targets[g as usize]);
            }
        }
        p
    }

    /// Simulates one iteration of the genome's placement, counting it and
    /// keeping the best genome.
    fn eval(&mut self, genome: &[u16]) -> f64 {
        self.evals += 1;
        let t = fifo_time(self.graph, self.topo, self.hw, &self.decode(genome));
        if self.best.as_ref().is_none_or(|b| t < b.1) {
            self.best = Some((genome.to_vec(), t));
        }
        t
    }

    /// The best placement as a plan; its evaluations go into the context.
    fn finish(self, ctx: &mut PlanningContext<'_>) -> Plan {
        ctx.evals_used += self.evals;
        // no evaluation at all: everything on the first live GPU
        let (genome, t) = self
            .best
            .as_ref()
            .map_or((&[][..], f64::INFINITY), |(g, t)| (g.as_slice(), *t));
        placement_plan(self.graph, self.decode(genome), t)
    }
}

#[cfg(test)]
/// Runs `planner` on a fresh context: its plan and its evaluation count.
pub(crate) fn plan_on(
    planner: &dyn crate::planner::Planner,
    graph: &Graph,
    topo: &Topology,
) -> (Plan, u32) {
    let hw = HardwarePerf::new();
    let mut ctx = PlanningContext::new(graph, topo, &hw, fastt_cost::CostModels::new());
    let plan = planner.plan(&mut ctx).unwrap();
    (plan, ctx.evals_used)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_cost::CostModels;
    use fastt_graph::{OpKind, Operation};

    #[test]
    fn units_group_colocated_ops() {
        let mut g = Graph::new();
        let a = g
            .add_op(Operation::new("a", OpKind::Variable, [1]))
            .unwrap();
        let b = g
            .add_op(Operation::new("b", OpKind::ApplyGradient, [1]))
            .unwrap();
        let c = g.add_op(Operation::new("c", OpKind::Relu, [1])).unwrap();
        g.connect(a, b).unwrap();
        g.connect(a, c).unwrap();
        g.colocate(&[a, b]);
        let topo = Topology::single_server(2);
        let hw = HardwarePerf::new();
        let ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new());
        let mut s = Search::new(&ctx).unwrap();
        assert_eq!(s.units.len(), 2);
        let p = s.decode(&[1, 0]);
        assert_eq!(p.device_of(a), p.device_of(b));
        assert_eq!(p.device_of(c), DeviceId(0));
        assert_eq!(s.encode(&p), vec![1, 0]);
    }

    #[test]
    fn genes_skip_dead_gpus_and_extend_to_warm_start_devices() {
        let mut g = Graph::new();
        for i in 0..3 {
            g.add_op(Operation::new(format!("o{i}"), OpKind::Relu, [1]))
                .unwrap();
        }
        let mut topo = Topology::single_server(3);
        topo.fail_device(DeviceId(1));
        let host = DeviceId(3);
        assert!(topo.is_host(host));
        let hw = HardwarePerf::new();
        let ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new());
        let mut s = Search::new(&ctx).unwrap();
        assert_eq!(s.targets, [DeviceId(0), DeviceId(2)]);
        let warm = Placement::new(vec![host, DeviceId(2), DeviceId(0)]);
        assert_eq!(s.encode(&warm), vec![2, 1, 0]);
        assert_eq!(s.decode(&[2, 1, 0]), warm);
        assert_eq!(s.gpus, 2, "searchers draw only live GPUs");
    }

    #[test]
    fn evaluator_counts_and_handles_failures() {
        let mut g = Graph::new();
        g.add_op(Operation::new("w", OpKind::Variable, [1]).with_param_bytes(1 << 62))
            .unwrap();
        let topo = Topology::single_server(1);
        let hw = HardwarePerf::new();
        let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new());
        let mut s = Search::new(&ctx).unwrap();
        assert!(s.eval(&[0]).is_infinite());
        assert_eq!(s.evals, 1);
        let plan = s.finish(&mut ctx);
        assert!(plan.est_finish.is_infinite());
        assert_eq!(ctx.evals_used, 1);
    }
}
