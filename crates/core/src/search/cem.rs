//! Cross-entropy method over placements — the essence of Post (Gao et al.
//! \[18\], "device placement with cross-entropy minimization and proximal
//! policy optimization"): keep a per-unit categorical distribution, sample a
//! population, refit the distribution to the elite fraction.

use super::{sample, Search};
use crate::planner::{hash_params, Planner, PlannerKind, PlanningContext};
use crate::{FastTError, Plan};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `rounds` CEM rounds with `pop` samples per round, refitting to the
/// best `elite_frac` of each population.
#[derive(Debug, Clone, Copy)]
pub struct CemPlanner {
    /// CEM rounds.
    pub rounds: u32,
    /// Samples per round.
    pub pop: u32,
    /// Elite fraction each round refits to, in `[0, 1]`.
    pub elite_frac: f64,
    /// RNG seed — explicit, so same-seed runs are bit-identical.
    pub seed: u64,
}

impl Default for CemPlanner {
    fn default() -> Self {
        CemPlanner {
            rounds: 10,
            pop: 10,
            elite_frac: 0.25,
            seed: fastt_sim::seed::planner_roots::CEM,
        }
    }
}

impl Planner for CemPlanner {
    fn name(&self) -> &'static str {
        "cem"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::Search
    }

    fn fingerprint_extra(&self) -> u64 {
        hash_params(&[
            self.rounds as u64,
            self.pop as u64,
            self.elite_frac.to_bits(),
            self.seed,
        ])
    }

    /// # Panics
    ///
    /// Panics if `elite_frac` is outside `[0, 1]`.
    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        assert!(
            (0.0..=1.0).contains(&self.elite_frac),
            "elite_frac in [0,1]"
        );
        let mut search = Search::new(ctx)?;
        let n_dev = search.gpus;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let smoothing = 0.1;

        let mut probs = vec![vec![1.0 / n_dev as f64; n_dev]; search.units.len()];
        for _ in 0..self.rounds {
            let mut scored: Vec<(Vec<u16>, f64)> = Vec::with_capacity(self.pop as usize);
            for _ in 0..self.pop {
                let genome: Vec<u16> = probs.iter().map(|p| sample(p, &mut rng)).collect();
                let t = search.eval(&genome);
                scored.push((genome, t));
            }
            scored.sort_by(|a, b| a.1.total_cmp(&b.1));
            let k = ((self.pop as f64 * self.elite_frac).ceil() as usize).max(1);
            let elite = &scored[..k.min(scored.len())];
            for (u, item) in probs.iter_mut().enumerate() {
                let mut counts = vec![0usize; n_dev];
                for (genome, _) in elite {
                    counts[genome[u] as usize] += 1;
                }
                for (d, c) in counts.iter().enumerate() {
                    let freq = *c as f64 / elite.len() as f64;
                    item[d] = (1.0 - smoothing) * freq + smoothing * item[d];
                }
                // renormalize against drift
                let z: f64 = item.iter().sum();
                for q in item.iter_mut() {
                    *q /= z;
                }
            }
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
    fn converges_on_parallel_split() {
        let mut g = Graph::new();
        for c in 0..2 {
            g.add_op(Operation::new(format!("m{c}"), OpKind::MatMul, [64]).with_flops(1 << 33))
                .unwrap();
        }
        let topo = Topology::single_server(2);
        let planner = CemPlanner {
            rounds: 6,
            pop: 10,
            elite_frac: 0.3,
            seed: 11,
        };
        let (plan, _) = plan_on(&planner, &g, &topo);
        assert!(plan.est_finish.is_finite());
        let d0 = plan.placement.device_of(fastt_graph::OpId(0));
        let d1 = plan.placement.device_of(fastt_graph::OpId(1));
        assert_ne!(d0, d1);
    }

    #[test]
    #[should_panic(expected = "elite_frac")]
    fn rejects_bad_elite_fraction() {
        let planner = CemPlanner {
            rounds: 1,
            pop: 1,
            elite_frac: 2.0,
            seed: 0,
        };
        plan_on(&planner, &Graph::new(), &Topology::single_server(1));
    }
}
