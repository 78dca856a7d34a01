//! REINFORCE-style placement policy (Mirhoseini et al. \[32\]): a per-unit
//! softmax distribution over devices, updated by policy gradients with a
//! moving-average baseline. Each sampled placement costs one full (simulated)
//! training iteration — the expensive black-box loop the paper contrasts
//! FastT's white-box heuristics against.

use super::{sample, Search};
use crate::planner::{hash_params, Planner, PlannerKind, PlanningContext};
use crate::{FastTError, Plan};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn softmax(logits: &[f64]) -> Vec<f64> {
    let m = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - m).exp()).collect();
    let z: f64 = exps.iter().sum();
    exps.iter().map(|e| e / z).collect()
}

/// Runs `rounds` policy-gradient rounds with `batch` sampled placements per
/// round (total budget `rounds · batch` simulated iterations).
#[derive(Debug, Clone, Copy)]
pub struct ReinforcePlanner {
    /// Policy-gradient rounds.
    pub rounds: u32,
    /// Sampled placements per round.
    pub batch: u32,
    /// RNG seed — explicit, so same-seed runs are bit-identical.
    pub seed: u64,
}

impl Default for ReinforcePlanner {
    fn default() -> Self {
        ReinforcePlanner {
            rounds: 12,
            batch: 8,
            seed: fastt_sim::seed::planner_roots::REINFORCE,
        }
    }
}

impl Planner for ReinforcePlanner {
    fn name(&self) -> &'static str {
        "reinforce"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::Search
    }

    fn fingerprint_extra(&self) -> u64 {
        hash_params(&[self.rounds as u64, self.batch as u64, self.seed])
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        let mut search = Search::new(ctx)?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        let lr = 0.5;

        let mut logits = vec![vec![0.0f64; search.gpus]; search.units.len()];
        for _ in 0..self.rounds {
            let mut samples: Vec<(Vec<u16>, f64)> = Vec::with_capacity(self.batch as usize);
            for _ in 0..self.batch {
                let genome: Vec<u16> = logits
                    .iter()
                    .map(|l| sample(&softmax(l), &mut rng))
                    .collect();
                let t = search.eval(&genome);
                samples.push((genome, t));
            }
            // baseline: mean finite runtime (infeasible samples get a fixed
            // large penalty so their gradient pushes probability away)
            let finite: Vec<f64> = samples
                .iter()
                .map(|s| s.1)
                .filter(|t| t.is_finite())
                .collect();
            let baseline = if finite.is_empty() {
                1.0
            } else {
                finite.iter().sum::<f64>() / finite.len() as f64
            };
            let penalty = baseline * 4.0;
            for (genome, t) in &samples {
                let r = if t.is_finite() { *t } else { penalty };
                // advantage of low runtime is positive
                let adv = (baseline - r) / baseline.max(1e-12);
                for (u, &d) in genome.iter().enumerate() {
                    let probs = softmax(&logits[u]);
                    for (k, item) in logits[u].iter_mut().enumerate() {
                        let indicator = if k == d as usize { 1.0 } else { 0.0 };
                        *item += lr * adv * (indicator - probs[k]) / self.batch as f64;
                    }
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
    fn softmax_normalizes() {
        let p = softmax(&[0.0, 0.0, 0.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        let q = softmax(&[100.0, 0.0]);
        assert!(q[0] > 0.99);
    }

    #[test]
    fn improves_over_first_guess_on_parallel_work() {
        // two heavy independent chains: any single-device placement is 2x
        // slower than the split one, so the policy should find a split
        let mut g = Graph::new();
        for c in 0..2 {
            let a = g
                .add_op(Operation::new(format!("a{c}"), OpKind::MatMul, [64]).with_flops(1 << 33))
                .unwrap();
            let b = g
                .add_op(Operation::new(format!("b{c}"), OpKind::MatMul, [64]).with_flops(1 << 33))
                .unwrap();
            g.connect(a, b).unwrap();
        }
        let topo = Topology::single_server(2);
        let planner = ReinforcePlanner {
            rounds: 8,
            batch: 8,
            seed: 3,
        };
        let (plan, _) = plan_on(&planner, &g, &topo);
        assert!(plan.est_finish.is_finite());
        // the two chains should end up on different devices
        let d0 = plan.placement.device_of(fastt_graph::OpId(0));
        let d2 = plan.placement.device_of(fastt_graph::OpId(2));
        assert_ne!(d0, d2, "chains should be parallelized");
    }
}
