//! Uniform random placement search — the sanity-check baseline every
//! learned method must beat.

use super::Search;
use crate::planner::{hash_params, Planner, PlannerKind, PlanningContext};
use crate::{FastTError, Plan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Samples `evals` uniform placements over the live GPUs and keeps the
/// best.
#[derive(Debug, Clone, Copy)]
pub struct RandomPlanner {
    /// Random placements to evaluate (at least one is).
    pub evals: u32,
    /// RNG seed — explicit, so same-seed runs are bit-identical.
    pub seed: u64,
}

impl Default for RandomPlanner {
    fn default() -> Self {
        RandomPlanner {
            evals: 64,
            seed: fastt_sim::seed::planner_roots::RANDOM,
        }
    }
}

impl Planner for RandomPlanner {
    fn name(&self) -> &'static str {
        "random"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::Search
    }

    fn fingerprint_extra(&self) -> u64 {
        hash_params(&[self.evals as u64, self.seed])
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let mut search = Search::new(ctx)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        for _ in 0..self.evals.max(1) {
            let genome = search.random_genome(&mut rng);
            search.eval(&genome);
        }
        Ok(search.finish(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::super::plan_on;
    use super::*;
    use fastt_cluster::Topology;
    use fastt_graph::{Graph, OpKind, Operation};

    #[test]
    fn finds_a_finite_placement() {
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Relu, [64])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [64])).unwrap();
        g.connect(a, b).unwrap();
        let topo = Topology::single_server(2);
        let (plan, evals) = plan_on(&RandomPlanner { evals: 8, seed: 42 }, &g, &topo);
        assert!(plan.est_finish.is_finite());
        assert_eq!(evals, 8);
        plan.placement.validate(&g, &topo).unwrap();
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mut g = Graph::new();
        for i in 0..6 {
            g.add_op(Operation::new(format!("o{i}"), OpKind::Relu, [64]))
                .unwrap();
        }
        let topo = Topology::single_server(4);
        let planner = RandomPlanner { evals: 5, seed: 1 };
        let (a, _) = plan_on(&planner, &g, &topo);
        let (b, _) = plan_on(&planner, &g, &topo);
        assert_eq!(a.placement, b.placement);
    }
}
