//! Acceptance tests for the unified planner layer: portfolio concurrency
//! and deterministic ranking, fingerprint-keyed plan caching (and its
//! invalidation on blacklists and cost-model refits), seeded search
//! determinism, and the traced no-split candidate path.

use fastt::planner::{Planner, PlannerKind, PlanningContext};
use fastt::search::{CemPlanner, GdpPlanner, McmcPlanner, RandomPlanner, ReinforcePlanner};
use fastt::{
    bootstrap_cost_models, ranked, CandidateOutcome, DposPlanner, FastTError, Plan, PlanCache,
    Portfolio, PortfolioInputs, SessionConfig, TrainingSession,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::CostModels;
use fastt_graph::Graph;
use fastt_models::Model;
use fastt_sim::{FaultSchedule, HardwarePerf, SimConfig};
use fastt_telemetry::{Collector, MemorySink};
use std::sync::{Arc, Mutex};

fn inputs<'a>(
    graph: &'a Graph,
    topo: &'a Topology,
    hw: &'a HardwarePerf,
    cost: &'a CostModels,
) -> PortfolioInputs<'a> {
    PortfolioInputs {
        graph,
        raw: None,
        current: None,
        topo,
        hw,
        cost,
        collector: None,
        enable_order: true,
        dp_ps: None,
        cache_salt: 0,
        probe: None,
    }
}

#[test]
fn cache_hits_on_unchanged_fingerprint_and_misses_on_blacklist_or_refit() {
    let graph = Model::LeNet.training_graph(32);
    let mut topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    // bootstrap seeds analytic priors without bumping the generation —
    // a fresh identical run must land on the same fingerprint
    let mut cost = bootstrap_cost_models(&graph, &topo, &hw);
    let portfolio = Portfolio::new().with(Box::new(DposPlanner));
    let cache = PlanCache::default();

    let first = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(!first[0].cached);
    assert_eq!(cache.misses(), 1);
    let first_plan = first[0].plan.as_ref().unwrap();

    // identical inputs: served from the cache, bit-identical plan
    let second = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(second[0].cached);
    assert_eq!(cache.hits(), 1);
    let second_plan = second[0].plan.as_ref().unwrap();
    assert_eq!(first_plan.placement, second_plan.placement);
    assert_eq!(first_plan.order, second_plan.order);

    // blacklisting a device changes the failed mask: miss
    topo.fail_device(DeviceId(3));
    let after_fail = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(
        !after_fail[0].cached,
        "a blacklisted device must invalidate the cached plan"
    );

    // a comm-model refit bumps the generation counter: miss again
    let gen_before = cost.generation();
    for s in topo.gpu_ids().collect::<Vec<_>>() {
        for d in topo.gpu_ids().collect::<Vec<_>>() {
            if s != d {
                cost.comm.observe(s, d, 1 << 20, 1e-4);
            }
        }
    }
    cost.comm.refit();
    assert!(cost.generation() > gen_before);
    let after_refit = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), Some(&cache));
    assert!(
        !after_refit[0].cached,
        "a cost-model refit must invalidate the cached plan"
    );
}

/// A planner that records which OS thread ran it, then delegates to DPOS.
#[derive(Debug)]
struct ThreadProbe {
    ids: Arc<Mutex<Vec<std::thread::ThreadId>>>,
}

impl Planner for ThreadProbe {
    fn name(&self) -> &'static str {
        "thread_probe"
    }

    fn kind(&self) -> PlannerKind {
        PlannerKind::WhiteBox
    }

    fn cacheable(&self) -> bool {
        false
    }

    fn plan(&self, ctx: &mut PlanningContext<'_>) -> Result<Plan, FastTError> {
        self.ids.lock().unwrap().push(std::thread::current().id());
        DposPlanner.plan(ctx)
    }
}

#[test]
fn portfolio_evaluates_candidates_on_separate_threads() {
    let graph = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);

    let ids = Arc::new(Mutex::new(Vec::new()));
    let mut portfolio = Portfolio::new();
    for _ in 0..3 {
        portfolio.push(Box::new(ThreadProbe { ids: ids.clone() }));
    }
    let outcome = portfolio.evaluate(&inputs(&graph, &topo, &hw, &cost), None);
    assert_eq!(outcome.len(), 3);
    assert!(outcome.iter().all(|c| c.plan.is_some()));

    let ids = ids.lock().unwrap();
    assert_eq!(ids.len(), 3);
    let main = std::thread::current().id();
    assert!(
        ids.iter().all(|&id| id != main),
        "planners must not run on the caller's thread"
    );
    let distinct: std::collections::HashSet<_> = ids.iter().collect();
    assert_eq!(distinct.len(), 3, "each planner gets its own thread");
}

#[test]
fn portfolio_arbitration_is_deterministic_under_fixed_seeds() {
    let graph = Model::LeNet.training_graph(16);
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);

    let portfolio = || {
        Portfolio::new()
            .with(Box::new(RandomPlanner { evals: 32, seed: 5 }))
            .with(Box::new(CemPlanner {
                rounds: 4,
                pop: 8,
                elite_frac: 0.25,
                seed: 13,
            }))
            .with(Box::new(McmcPlanner {
                evals: 60,
                temp: 0.05,
                seed: 17,
                start_from_current: false,
            }))
    };
    let a = portfolio().evaluate(&inputs(&graph, &topo, &hw, &cost), None);
    let b = portfolio().evaluate(&inputs(&graph, &topo, &hw, &cost), None);
    let by_est = |c: &CandidateOutcome| Some(c.est_finish());
    assert_eq!(
        ranked(&a, by_est)[0],
        ranked(&b, by_est)[0],
        "same seeds must rank the same candidate first"
    );
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(
            ca.est_finish().to_bits(),
            cb.est_finish().to_bits(),
            "{} estimate drifted",
            ca.planner
        );
        assert_eq!(
            ca.simulated.map(f64::to_bits),
            cb.simulated.map(f64::to_bits),
            "{} probe drifted",
            ca.planner
        );
        assert_eq!(
            ca.plan.as_ref().unwrap().placement,
            cb.plan.as_ref().unwrap().placement,
            "{} must be deterministic",
            ca.planner
        );
        assert_eq!(ca.evals_used, cb.evals_used);
    }
}

#[test]
fn every_search_baseline_is_deterministic_for_the_same_seed() {
    let graph = Model::LeNet.training_graph(16);
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);

    let planners: [Box<dyn Planner>; 5] = [
        Box::new(RandomPlanner { evals: 16, seed: 3 }),
        Box::new(McmcPlanner {
            evals: 40,
            temp: 0.05,
            seed: 9,
            start_from_current: false,
        }),
        Box::new(CemPlanner {
            rounds: 3,
            pop: 6,
            elite_frac: 0.3,
            seed: 11,
        }),
        Box::new(ReinforcePlanner {
            rounds: 3,
            batch: 4,
            seed: 7,
        }),
        Box::new(GdpPlanner),
    ];
    let run = |planner: &dyn Planner| {
        let mut ctx = PlanningContext::new(&graph, &topo, &hw, cost.clone());
        let plan = planner.plan(&mut ctx).unwrap();
        (plan, ctx.evals_used)
    };
    for planner in &planners {
        let (a, a_evals) = run(planner.as_ref());
        let (b, b_evals) = run(planner.as_ref());
        assert_eq!(a.placement, b.placement);
        assert_eq!(a_evals, b_evals);
        assert!(a.est_finish == b.est_finish || (a.est_finish.is_nan() && b.est_finish.is_nan()));
    }
}

#[test]
fn session_serves_repeated_candidates_from_the_plan_cache() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let mut s =
        TrainingSession::new(&g, topo, HardwarePerf::new(), SessionConfig::default()).unwrap();
    s.profile(2).unwrap();
    let first = s.compute_candidate();
    let hits_before = s.plan_cache().hits();
    // no profiling in between: the fingerprint is unchanged
    let second = s.compute_candidate();
    assert_eq!(s.plan_cache().hits(), hits_before + 1);
    assert_eq!(first.placement, second.placement);
    // profiling bumps the cost generation: the next candidate recomputes
    s.profile(1).unwrap();
    let misses_before = s.plan_cache().misses();
    s.compute_candidate();
    assert_eq!(s.plan_cache().misses(), misses_before + 1);
}

#[test]
fn no_split_candidate_emits_dpos_trace_events() {
    let g = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let mut s =
        TrainingSession::new(&g, topo, HardwarePerf::new(), SessionConfig::default()).unwrap();
    let sink = Arc::new(MemorySink::with_default_capacity());
    s.attach_collector(Arc::new(Collector::new().with_sink(sink.clone())));
    s.profile(1).unwrap();
    sink.clear();

    s.compute_candidate_no_split();
    assert!(
        !sink.events_of("dpos.place").is_empty(),
        "the no-split candidate must trace its placement decisions"
    );
    assert!(!sink.events_of("planner.candidate").is_empty());
}

#[test]
fn same_seed_sessions_choose_identical_plans_through_recovery() {
    // Extends the PR-2 determinism suite to the portfolio: two sessions
    // with the same seed, config, and fault schedule must not only take the
    // same recovery decisions but deploy bit-identical plans.
    let run = || {
        let g = Model::LeNet.training_graph(32);
        let topo = Topology::single_server(4);
        let cfg = SessionConfig {
            profile_iters: 2,
            max_rounds: 3,
            faults: Some(Arc::new(FaultSchedule::seeded(21, 4, 40, true))),
            ..SessionConfig::default()
        };
        let mut s = TrainingSession::new(&g, topo, HardwarePerf::new(), cfg).unwrap();
        s.pre_train().unwrap();
        s.train_normal(30, 5).unwrap();
        s
    };
    let a = run();
    let b = run();
    assert_eq!(a.recovery_log(), b.recovery_log());
    assert_eq!(a.current_plan().placement, b.current_plan().placement);
    assert_eq!(a.current_plan().order, b.current_plan().order);
    assert_eq!(
        a.plan_cache().hits() + a.plan_cache().misses(),
        b.plan_cache().hits() + b.plan_cache().misses(),
        "cache traffic itself must be deterministic"
    );
}

#[test]
fn cached_plans_are_probed_before_deployment() {
    // A cache-served plan must still be probed: stale plans that no longer
    // fit the cluster carry a probe error instead of being deployed blind.
    let graph = Model::LeNet.training_graph(32);
    let topo = Topology::single_server(2);
    let hw = HardwarePerf::new();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);
    let portfolio = Portfolio::new().with(Box::new(DposPlanner));
    let cache = PlanCache::default();

    let mut with_probe = inputs(&graph, &topo, &hw, &cost);
    with_probe.probe = Some(SimConfig::default());
    let first = portfolio.evaluate(&with_probe, Some(&cache));
    assert!(first[0].simulated.is_some());
    let second = portfolio.evaluate(&with_probe, Some(&cache));
    assert!(second[0].cached);
    assert!(
        second[0].simulated.is_some(),
        "cached candidates are re-probed under the current conditions"
    );
}
