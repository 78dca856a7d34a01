//! Metropolis–Hastings placement search — the essence of FlexFlow's
//! execution-simulator-guided MCMC (Jia et al. \[27\]). Run it on the
//! data-parallel replicated graph to give it (part of) FlexFlow's larger
//! SOAP search space; with a large evaluation budget it can find placements
//! FastT's one-shot heuristic misses, at orders of magnitude higher search
//! cost — matching the paper's Fig. 3 relationship.

use super::Search;
use crate::planner::{hash_params, Planner, PlannerKind, PlanningContext};
use crate::{FastTError, Plan};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Runs `evals` MCMC steps, proposing single-unit moves to a live GPU and
/// accepting by the Metropolis rule at temperature `temp`. When
/// `start_from_current` is set and the context carries a current plan over
/// the *same* graph, the chain starts from that placement (FlexFlow's
/// warm-started search, which may keep a parameter server on the host);
/// otherwise it starts from a seeded random point.
#[derive(Debug, Clone, Copy)]
pub struct McmcPlanner {
    /// MCMC steps (each one simulated evaluation).
    pub evals: u32,
    /// Metropolis temperature, in relative runtime units.
    pub temp: f64,
    /// RNG seed — explicit, so same-seed runs are bit-identical.
    pub seed: u64,
    /// Warm-start from the context's current plan when its graph matches.
    pub start_from_current: bool,
}

impl Default for McmcPlanner {
    fn default() -> Self {
        McmcPlanner {
            evals: 400,
            temp: 0.03,
            seed: fastt_sim::seed::planner_roots::MCMC,
            start_from_current: true,
        }
    }
}

impl Planner for McmcPlanner {
    fn name(&self) -> &'static str {
        "mcmc"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::Search
    }

    fn cacheable(&self) -> bool {
        // the warm start depends on the current plan, which the
        // fingerprint does not capture
        !self.start_from_current
    }

    fn fingerprint_extra(&self) -> u64 {
        hash_params(&[self.evals as u64, self.temp.to_bits(), self.seed])
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let mut search = Search::new(ctx)?;
        let n_dev = search.gpus as u16;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let warm = ctx
            .current
            .filter(|c| self.start_from_current && c.graph.op_count() == ctx.graph.op_count());
        let mut genome = match warm {
            Some(c) => search.encode(&c.placement),
            None => search.random_genome(&mut rng),
        };
        let mut cur_time = search.eval(&genome);

        for _ in 1..self.evals {
            let u = rng.gen_range(0..genome.len());
            let old = genome[u];
            let mut new = rng.gen_range(0..n_dev);
            if new == old {
                new = (new + 1) % n_dev;
            }
            genome[u] = new;
            let t = search.eval(&genome);
            let accept = if t <= cur_time {
                true
            } else if cur_time.is_finite() && t.is_finite() {
                let delta = (t - cur_time) / cur_time;
                rng.gen::<f64>() < (-delta / self.temp).exp()
            } else {
                false
            };
            if accept {
                cur_time = t;
            } else {
                genome[u] = old;
            }
        }
        Ok(search.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::super::{fifo_time, plan_on};
    use super::*;
    use crate::strategy::Plan;
    use fastt_cluster::{DeviceId, Topology};
    use fastt_cost::CostModels;
    use fastt_graph::{Graph, OpKind, Operation};
    use fastt_sim::{HardwarePerf, Placement};

    #[test]
    fn improves_from_a_bad_start() {
        let mut g = Graph::new();
        for c in 0..4 {
            g.add_op(Operation::new(format!("m{c}"), OpKind::MatMul, [64]).with_flops(1 << 33))
                .unwrap();
        }
        let topo = Topology::single_server(4);
        let hw = HardwarePerf::new();
        let all_on_zero = Placement::uniform(4, DeviceId(0));
        let start = Plan {
            graph: g.clone(),
            splits: Vec::new(),
            placement: all_on_zero.clone(),
            order: None,
            est_finish: f64::NAN,
        };
        let planner = McmcPlanner {
            evals: 60,
            temp: 0.05,
            seed: 9,
            start_from_current: true,
        };
        let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new()).with_current(&start);
        let best = planner.plan(&mut ctx).unwrap().est_finish;
        let start_time = fifo_time(&g, &topo, &hw, &all_on_zero);
        assert!(
            best < start_time,
            "mcmc {best} should beat serial {start_time}"
        );
    }

    #[test]
    fn respects_colocation_groups() {
        let mut g = Graph::new();
        let v = g
            .add_op(Operation::new("v", OpKind::Variable, [1]))
            .unwrap();
        let u = g
            .add_op(Operation::new("u", OpKind::ApplyGradient, [1]))
            .unwrap();
        g.connect(v, u).unwrap();
        g.colocate(&[v, u]);
        let topo = Topology::single_server(4);
        let planner = McmcPlanner {
            evals: 20,
            temp: 0.1,
            seed: 5,
            start_from_current: false,
        };
        let (plan, _) = plan_on(&planner, &g, &topo);
        plan.placement.validate(&g, &topo).unwrap();
    }
}
