//! Hierarchical placement smoke tests (CI `hierarchical` step): the
//! decomposition collapses stacked models by an order of magnitude and is
//! pinned, region trees are memoized per plan cache, the expanded placement
//! passes the flat planners' checker, candidate ranking stays deterministic
//! under a fixed seed, and depth-siblings reuse region-level sub-plans from
//! the shared cache.

use fastt::{
    ranked, DposPlanner, HierarchicalPlanner, PlanCache, Planner, PlanningContext, Portfolio,
    PortfolioInputs,
};
use fastt_cluster::Topology;
use fastt_cost::CostModels;
use fastt_graph::{build_training_graph, decompose, replicate, RegionKind};
use fastt_models::{stacked_transformer, Model};
use fastt_sim::{HardwarePerf, SimConfig};
use std::sync::Arc;

#[test]
fn stacked_transformer_decomposes_an_order_of_magnitude() {
    let g = build_training_graph(&stacked_transformer(64, 8)).unwrap();
    let t = decompose(&g);
    let n = g.op_count();
    eprintln!(
        "ops={} regions={} rounds={} residual={} kinds: leaf={} chain={} bundle={} mixed={}",
        n,
        t.len(),
        t.rounds(),
        t.residual_regions().len(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Leaf)
            .count(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Chain)
            .count(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Bundle)
            .count(),
        t.regions()
            .filter(|(_, r)| r.kind == RegionKind::Mixed)
            .count(),
    );
    assert!(t.len() < n / 10, "regions {} !< ops/10 {}", t.len(), n / 10);
}

/// Pinned decompositions: `(op_count, regions, rounds, canonical_hash)` of
/// two replicated Table-1 training graphs and an unreplicated stacked
/// Transformer. The endpoint pass's reachability probe is a hot path; a
/// faster probe must make exactly the same merge decisions.
#[test]
fn decompositions_are_pinned() {
    let replicated = |m: Model| replicate(&m.training_graph(8), 4).unwrap().graph;
    let cases = [
        (
            "ResNet200 x4",
            replicated(Model::ResNet200),
            (5992, 1605, 5, 0x2684_7737_9347_cd46),
        ),
        (
            "Bert-large x4",
            replicated(Model::BertLarge),
            (5877, 875, 4, 0x7ec5_321b_ed3c_d491),
        ),
        (
            "stacked_transformer(64, 8)",
            build_training_graph(&stacked_transformer(64, 8)).unwrap(),
            (429, 34, 5, 0x33d7_918c_4bf7_c809),
        ),
    ];
    for (name, g, want) in cases {
        let t = decompose(&g);
        let got = (t.op_count(), t.len(), t.rounds(), t.canonical_hash());
        assert_eq!(got, want, "{name} decomposition moved");
    }
}

/// The region-tree memo belongs to its plan cache: repeated reads share
/// one tree, another cache (another session or fleet) decomposes its own,
/// `clear()` drops it, and the planner still plans without any cache.
#[test]
fn region_trees_are_scoped_to_their_plan_cache() {
    let g = build_training_graph(&stacked_transformer(64, 2)).unwrap();
    let a = PlanCache::default();
    let b = PlanCache::default();
    let tree = a.region_tree(&g);
    assert!(
        Arc::ptr_eq(&tree, &a.region_tree(&g)),
        "one cache, one tree"
    );
    let other = b.region_tree(&g);
    assert!(!Arc::ptr_eq(&tree, &other), "caches must not share trees");
    assert_eq!(tree.canonical_hash(), other.canonical_hash());
    a.clear();
    assert!(
        !Arc::ptr_eq(&tree, &a.region_tree(&g)),
        "clear() drops trees"
    );

    let topo = Topology::multi_server(2, 2);
    let hw = HardwarePerf::new();
    let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new());
    assert!(ctx.region_cache.is_none());
    let plan = HierarchicalPlanner.plan(&mut ctx).unwrap();
    plan.placement.validate(&g, &topo).unwrap();
}

/// `decompose_secs` on the `hier.plan` event and the `hier.decompose_secs`
/// gauge report what this call spent: a plan whose tree the cache already
/// holds reports less than the plan that decomposed.
#[test]
fn decompose_secs_reports_this_call() {
    use fastt_telemetry::{Collector, MemorySink, MetricValue};

    let g = build_training_graph(&stacked_transformer(64, 8)).unwrap();
    let topo = Topology::multi_server(2, 2);
    let hw = HardwarePerf::new();
    let cache = PlanCache::default();
    let sink = Arc::new(MemorySink::new(4096));
    let col = Arc::new(Collector::new().with_sink(sink.clone()));
    for _ in 0..2 {
        let mut ctx = PlanningContext::new(&g, &topo, &hw, CostModels::new())
            .with_region_cache(&cache, 0)
            .with_collector(col.clone());
        HierarchicalPlanner.plan(&mut ctx).unwrap();
    }
    let secs: Vec<f64> = sink
        .events_of("hier.plan")
        .iter()
        .map(|e| e.field("decompose_secs").as_f64().unwrap())
        .collect();
    assert_eq!(secs.len(), 2);
    assert!(
        secs[1] < secs[0],
        "a cache-served tree must report less than a decomposition: {secs:?}"
    );
    match col.metrics().get("hier.decompose_secs") {
        Some(MetricValue::Gauge(v)) => assert_eq!(v, secs[1]),
        other => panic!("hier.decompose_secs gauge missing: {other:?}"),
    }
}

/// The CI smoke: a seeded decompose + plan on the stacked Transformer.
/// The expanded placement must validate, and racing hierarchical against
/// flat DPOS with one probed iteration each must rank the same candidate
/// first, with bit-equal estimates, probes and placements, on every
/// same-seed run.
#[test]
fn hierarchical_plan_validates_and_arbitration_is_deterministic() {
    let g = build_training_graph(&stacked_transformer(64, 8)).unwrap();
    let topo = Topology::multi_server(2, 2);
    let hw = HardwarePerf::new();
    let cost = fastt::bootstrap_cost_models(&g, &topo, &hw);

    let run = || {
        let portfolio = Portfolio::new()
            .with(Box::new(DposPlanner))
            .with(Box::new(HierarchicalPlanner));
        let inputs = PortfolioInputs {
            graph: &g,
            raw: Some(&g),
            current: None,
            topo: &topo,
            hw: &hw,
            cost: &cost,
            collector: None,
            enable_order: true,
            dp_ps: None,
            cache_salt: 0,
            probe: Some(SimConfig {
                seed: 7,
                ..SimConfig::default()
            }),
        };
        portfolio.evaluate(&inputs, None)
    };

    let mut a = run();
    let b = run();
    assert_eq!(
        ranked(&a, |c| c.simulated)[0],
        ranked(&b, |c| c.simulated)[0],
        "same-seed ranking must agree"
    );
    for (ca, cb) in a.iter().zip(&b) {
        assert_eq!(ca.planner, cb.planner);
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
        let (pa, pb) = (ca.plan.as_ref().unwrap(), cb.plan.as_ref().unwrap());
        assert_eq!(
            pa.placement, pb.placement,
            "{} placement drifted across same-seed runs",
            ca.planner
        );
    }

    // The hierarchical candidate is present, probed, and valid.
    let hier = a
        .iter_mut()
        .find(|c| c.planner == "hierarchical")
        .expect("hierarchical raced");
    assert!(hier.simulated.is_some(), "hierarchical probe must succeed");
    let plan = hier.plan.take().unwrap();
    plan.placement.validate(&plan.graph, &topo).unwrap();
}

/// Region-granular cache reuse: two stacked Transformers differing only in
/// depth share no whole-plan fingerprint, but their repeated layers hash to
/// the same regions — the second plan is served region sub-plans recorded
/// by the first.
#[test]
fn depth_siblings_share_region_sub_plans() {
    let g4 = build_training_graph(&stacked_transformer(64, 4)).unwrap();
    let g6 = build_training_graph(&stacked_transformer(64, 6)).unwrap();
    let topo = Topology::multi_server(1, 4);
    let hw = HardwarePerf::new();
    let cache = PlanCache::new(512);

    let mut ctx4 =
        PlanningContext::new(&g4, &topo, &hw, CostModels::new()).with_region_cache(&cache, 0);
    HierarchicalPlanner.plan(&mut ctx4).unwrap();
    assert!(
        cache.region_misses() > 0,
        "first plan must record region sub-plans"
    );
    let hits_before = cache.region_hits();

    let mut ctx6 =
        PlanningContext::new(&g6, &topo, &hw, CostModels::new()).with_region_cache(&cache, 0);
    HierarchicalPlanner.plan(&mut ctx6).unwrap();
    assert!(
        cache.region_hits() > hits_before,
        "depth sibling must be served from region sub-plans \
         (hits {} -> {}, misses {})",
        hits_before,
        cache.region_hits(),
        cache.region_misses(),
    );

    // Region traffic is accounted separately: the whole-plan counters the
    // fleet's pinned twin-admission invariant reads stay untouched.
    assert_eq!(cache.hits(), 0);
    assert_eq!(cache.misses(), 0);
}
