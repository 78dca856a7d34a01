//! Test-only reference implementations the fast planner paths are checked
//! against: the `HashMap<(String, DeviceId), Stat>` computation cost model
//! and the upward-rank scan over it, as they were before the cost model
//! was interned and read through a dense per-run table.

use crate::bootstrap_cost_models;
use crate::profiling::probe_placements;
use crate::rank::upward_ranks;
use fastt_cluster::{DeviceId, Topology};
use fastt_cost::{canonical_name, CompCostModel, CompCostTable, CostModels};
use fastt_graph::{build_training_graph, replicate, split_operation, Graph, OpId};
use fastt_sim::{simulate, ExecPolicy, HardwarePerf, SimConfig};
use std::collections::HashMap;

#[derive(Debug, Clone, Copy, Default)]
struct Stat {
    sum: f64,
    count: u64,
    seeded: bool,
}

impl Stat {
    fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }
}

/// The computation cost model keyed by `(canonical name, device)`.
#[derive(Debug, Default)]
struct RefComp {
    stats: HashMap<(String, DeviceId), Stat>,
    snapshot: HashMap<(String, DeviceId), f64>,
}

impl RefComp {
    fn observe(&mut self, name: &str, device: DeviceId, secs: f64) {
        let s = self
            .stats
            .entry((canonical_name(name), device))
            .or_default();
        if s.seeded {
            *s = Stat::default();
        }
        let secs = if s.count >= 3 {
            let m = s.mean();
            if m > 0.0 {
                secs.clamp(m / 8.0, m * 8.0)
            } else {
                secs
            }
        } else {
            secs
        };
        s.sum += secs;
        s.count += 1;
    }

    fn update_from_trace(&mut self, graph: &Graph, trace: &fastt_sim::RunTrace) {
        for r in &trace.op_records {
            self.observe(&graph.op_ref(r.op).name, r.device, r.duration());
        }
    }

    fn get(&self, name: &str, device: DeviceId) -> Option<f64> {
        self.stats
            .get(&(canonical_name(name), device))
            .filter(|s| s.count > 0)
            .map(|s| s.mean())
    }

    fn max_time(&self, name: &str) -> Option<f64> {
        let key = canonical_name(name);
        let mut best: Option<f64> = None;
        for ((n, _), s) in &self.stats {
            if *n == key && s.count > 0 {
                let m = s.mean();
                best = Some(best.map_or(m, |b: f64| b.max(m)));
            }
        }
        best
    }

    fn covers(&self, graph: &Graph) -> bool {
        graph
            .iter_ops()
            .all(|(_, o)| self.max_time(&o.name).is_some())
    }

    fn seed(&mut self, name: &str, devices: &[DeviceId], secs: f64) {
        for &d in devices {
            let s = self.stats.entry((canonical_name(name), d)).or_default();
            if s.count == 0 || s.seeded {
                *s = Stat {
                    sum: secs,
                    count: 1,
                    seeded: true,
                };
            }
        }
    }

    fn snapshot(&mut self) {
        self.snapshot = self
            .stats
            .iter()
            .map(|(k, s)| (k.clone(), s.mean()))
            .collect();
    }

    fn max_drift(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (k, s) in &self.stats {
            let now = s.mean();
            match self.snapshot.get(k) {
                Some(&then) if then > 0.0 => {
                    worst = worst.max((now - then).abs() / then);
                }
                _ => worst = worst.max(1.0),
            }
        }
        worst
    }

    /// The upward-rank scan, reading `w_i` from [`RefComp::max_time`].
    fn upward_ranks(&self, graph: &Graph, cost: &CostModels) -> Vec<f64> {
        let topo = graph.topo_order().expect("rank needs a DAG");
        let mut rank = vec![0.0f64; graph.op_count()];
        for &o in topo.iter().rev() {
            let w = self.max_time(&graph.op_ref(o).name).unwrap_or(0.0);
            let tail = graph
                .out_edges(o)
                .map(|e| cost.comm.max_comm(e.bytes) + rank[e.dst.index()])
                .fold(0.0f64, f64::max);
            rank[o.index()] = w + tail;
        }
        rank
    }
}

/// Feeds `reference` the same profiled runs [`bootstrap_cost_models`] uses.
fn ref_bootstrap(graph: &Graph, topo: &Topology, hw: &HardwarePerf) -> RefComp {
    let mut reference = RefComp::default();
    for p in probe_placements(graph, topo) {
        if let Ok(tr) = simulate(graph, topo, &p, hw, ExecPolicy::Fifo, &SimConfig::default()) {
            reference.update_from_trace(graph, &tr);
        }
    }
    reference
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

/// Every read of `fast` (and of its dense table over `graph`) equals the
/// reference, bit for bit, on every op name of `graph` plus `extra` names.
fn assert_same(fast: &CompCostModel, reference: &RefComp, graph: &Graph, extra: &[&str]) {
    let devices: Vec<DeviceId> = (0..8).map(DeviceId).collect();
    let names = graph
        .iter_ops()
        .map(|(_, o)| o.name.as_str())
        .chain(extra.iter().copied());
    for name in names {
        assert_eq!(
            bits(fast.max_time(name)),
            bits(reference.max_time(name)),
            "max_time({name})"
        );
        for &d in &devices {
            assert_eq!(
                bits(fast.get(name, d)),
                bits(reference.get(name, d)),
                "get({name}, {d:?})"
            );
        }
    }
    assert_eq!(fast.covers(graph), reference.covers(graph), "covers");
    assert_eq!(fast.key_count(), reference.stats.len(), "key_count");
    assert_eq!(
        fast.max_drift().to_bits(),
        reference.max_drift().to_bits(),
        "max_drift"
    );
    let table: CompCostTable = fast.table(graph);
    for (o, op) in graph.iter_ops() {
        let name = op.name.as_str();
        assert_eq!(
            table.max_time(o).to_bits(),
            reference.max_time(name).unwrap_or(0.0).to_bits(),
            "table max_time({name})"
        );
        for &d in &devices {
            assert_eq!(
                table.time(o, d).to_bits(),
                reference.get(name, d).unwrap_or(0.0).to_bits(),
                "table time({name}, {d:?})"
            );
        }
    }
}

#[test]
fn interned_cost_model_matches_keyed_reference() {
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let training = fastt_models::Model::LeNet.training_graph(16);
    let mut graph = replicate(&training, 4).unwrap().graph;
    let cost = bootstrap_cost_models(&graph, &topo, &hw);
    let mut fast = cost.comp;
    let mut reference = ref_bootstrap(&graph, &topo, &hw);
    let absent = ["missing", "rep0/missing", "rep9/conv1"];
    assert_same(&fast, &reference, &graph, &absent);

    // Split a few replica ops and seed their parts as OS-DPOS does:
    // `parent_time / n` per device the parent was profiled on.
    let mut parts: Vec<String> = Vec::new();
    for (count, n) in [(0, 2u32), (1, 4), (2, 2)] {
        let target = graph
            .iter_ops()
            .filter(|(_, o)| o.name.starts_with("rep") && !o.kind.split_dims().is_empty())
            .nth(count * 3)
            .map(|(id, o)| (id, o.kind.split_dims().to_vec(), o.name.clone()));
        let Some((op, dims, name)) = target else {
            continue;
        };
        let Some(res) = dims
            .iter()
            .find_map(|&dim| split_operation(&graph, op, dim, n).ok())
        else {
            continue;
        };
        for d in topo.gpu_ids() {
            if let Some(t) = fast.get(&name, d) {
                for &p in &res.parts {
                    let part = &res.graph.op_ref(p).name;
                    fast.seed(part, &[d], t / n as f64);
                    reference.seed(part, &[d], t / n as f64);
                }
            }
        }
        parts.extend(res.parts.iter().map(|&p| res.graph.op_ref(p).name.clone()));
        graph = res.graph;
    }
    assert!(!parts.is_empty(), "no replica op could be split");
    assert_same(&fast, &reference, &graph, &absent);

    // Seed-then-measure: a measurement replaces a seed, a later seed
    // replaces seeds but not measurements.
    fast.snapshot();
    reference.snapshot();
    let first = parts[0].clone();
    fast.observe(&first, DeviceId(0), 0.5);
    reference.observe(&first, DeviceId(0), 0.5);
    for part in &parts {
        fast.seed(part, &[DeviceId(0), DeviceId(1)], 0.125);
        reference.seed(part, &[DeviceId(0), DeviceId(1)], 0.125);
    }
    assert_same(&fast, &reference, &graph, &absent);

    // Winsorized samples: from the third sample on, spikes are clamped.
    let other = parts.last().unwrap().clone();
    for secs in [1.0, 1.0, 1.0, 100.0, 1e-4, 2.0] {
        fast.observe(&other, DeviceId(2), secs);
        reference.observe(&other, DeviceId(2), secs);
    }
    // A brand-new key after the snapshot (and on a device beyond the
    // topology's GPUs) counts as full drift.
    fast.observe("rep3/fresh", DeviceId(6), 0.25);
    reference.observe("rep3/fresh", DeviceId(6), 0.25);
    assert_same(&fast, &reference, &graph, &["rep0/fresh", "fresh"]);
    assert!(fast.max_drift() >= 1.0);
}

#[test]
fn upward_ranks_match_keyed_scan_bit_for_bit() {
    let topo = Topology::single_server(4);
    let hw = HardwarePerf::new();
    let graph = build_training_graph(&fastt_models::stacked_transformer(64, 8)).unwrap();
    let cost = bootstrap_cost_models(&graph, &topo, &hw);
    let reference = ref_bootstrap(&graph, &topo, &hw);
    let fast = upward_ranks(&graph, &cost);
    let slow = reference.upward_ranks(&graph, &cost);
    assert_eq!(fast.len(), slow.len());
    for (o, (f, s)) in fast.iter().zip(&slow).enumerate() {
        assert_eq!(f.to_bits(), s.to_bits(), "rank of {:?}", OpId(o as u32));
    }
}
