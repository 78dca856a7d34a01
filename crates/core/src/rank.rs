//! Operation prioritization: the upward-rank computation and critical-path
//! extraction of Sec. 5.1.
//!
//! `rank_u(o_i) = w_i + max_{o_j ∈ succ(o_i)} (c̄_{i,j} + rank_u(o_j))`
//!
//! where `w_i` is the op's maximal execution time over devices (from the
//! computation cost model) and `c̄_{i,j}` the maximal transmission time of
//! the tensor between them (from the communication cost model). Missing
//! costs count as 0, which makes the algorithms explore unprofiled
//! placements (Sec. 4).

use fastt_cluster::Topology;
use fastt_cost::{CommCostModel, CompCostTable, CostModels};
use fastt_graph::{Graph, OpId};
use fastt_sim::Placement;

/// Upward ranks for every op, indexed by `OpId`.
///
/// # Panics
///
/// Panics if `graph` contains a cycle (model builders and rewrites always
/// produce DAGs; validate untrusted graphs first).
pub fn upward_ranks(graph: &Graph, cost: &CostModels) -> Vec<f64> {
    upward_ranks_with(graph, &cost.comp.table(graph), &cost.comm)
}

/// [`upward_ranks`] over a per-run computation cost table.
pub(crate) fn upward_ranks_with(
    graph: &Graph,
    comp: &CompCostTable,
    comm: &CommCostModel,
) -> Vec<f64> {
    let topo = graph.topo_order().expect("rank needs a DAG");
    let mut rank = vec![0.0f64; graph.op_count()];
    for &o in topo.iter().rev() {
        let tail = graph
            .out_edges(o)
            .map(|e| comm.max_comm(e.bytes) + rank[e.dst.index()])
            .fold(0.0f64, f64::max);
        rank[o.index()] = comp.max_time(o) + tail;
    }
    rank
}

/// The critical path implied by the ranks: start from the entry op with the
/// largest rank, then repeatedly step to the successor with the largest rank
/// (Sec. 5.1 "to compute the critical path, the entry operation is selected,
/// and then we recursively select the operation with the largest rank among
/// the successors of the previous operation").
pub fn critical_path(graph: &Graph, ranks: &[f64]) -> Vec<OpId> {
    let mut cur = match graph
        .entry_ops()
        .into_iter()
        .max_by(|a, b| ranks[a.index()].total_cmp(&ranks[b.index()]))
    {
        Some(e) => e,
        None => return Vec::new(),
    };
    let mut path = vec![cur];
    while let Some(next) = graph
        .succs(cur)
        .max_by(|a, b| ranks[a.index()].total_cmp(&ranks[b.index()]))
    {
        path.push(next);
        cur = next;
    }
    path
}

/// The critical path of a *placed* graph: the longest path weighing each op
/// by its execution time on its assigned device and each edge by the
/// predicted transfer time between the assigned devices (0 when colocated;
/// the topology's analytic route time when the link is unprofiled — a free
/// unprofiled edge would hide real critical paths).
/// Used by OS-DPOS to pick split candidates ("calculates the new critical
/// path based on the placement strategy", Sec. 5.2).
///
/// # Panics
///
/// Panics if `graph` contains a cycle.
pub fn critical_path_placed(
    graph: &Graph,
    placement: &Placement,
    cost: &CostModels,
    cluster: &Topology,
) -> Vec<OpId> {
    critical_path_placed_with(
        graph,
        placement,
        &cost.comp.table(graph),
        &cost.comm,
        cluster,
    )
}

/// [`critical_path_placed`] over a per-run computation cost table.
pub(crate) fn critical_path_placed_with(
    graph: &Graph,
    placement: &Placement,
    comp: &CompCostTable,
    comm: &CommCostModel,
    cluster: &Topology,
) -> Vec<OpId> {
    let topo = graph.topo_order().expect("needs a DAG");
    let n = graph.op_count();
    // longest-path-to-exit per op, and the successor achieving it
    let mut dist = vec![0.0f64; n];
    let mut next: Vec<Option<OpId>> = vec![None; n];
    for &o in topo.iter().rev() {
        let d_o = placement.device_of(o);
        let w = comp.time(o, d_o);
        let mut best = f64::NEG_INFINITY;
        let mut best_next = None;
        for e in graph.out_edges(o) {
            let d_s = placement.device_of(e.dst);
            let c = comm
                .predict(d_o, d_s, e.bytes)
                .unwrap_or_else(|| cluster.transfer_time_routed(d_o, d_s, e.bytes));
            let cand = c + dist[e.dst.index()];
            if cand > best {
                best = cand;
                best_next = Some(e.dst);
            }
        }
        dist[o.index()] = w + if best_next.is_some() { best } else { 0.0 };
        next[o.index()] = best_next;
    }
    // start from the entry with the longest distance
    let mut cur = match graph
        .entry_ops()
        .into_iter()
        .max_by(|a, b| dist[a.index()].total_cmp(&dist[b.index()]))
    {
        Some(e) => e,
        None => return Vec::new(),
    };
    let mut path = vec![cur];
    while let Some(nxt) = next[cur.index()] {
        path.push(nxt);
        cur = nxt;
    }
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastt_cluster::DeviceId;
    use fastt_graph::{OpKind, Operation};

    const D0: DeviceId = DeviceId(0);

    /// a -> b -> d and a -> c -> d with b slower than c.
    fn diamond(cost: &mut CostModels) -> Graph {
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Input, [1])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [1])).unwrap();
        let c = g.add_op(Operation::new("c", OpKind::Relu, [1])).unwrap();
        let d = g.add_op(Operation::new("d", OpKind::Add, [1])).unwrap();
        g.connect(a, b).unwrap();
        g.connect(a, c).unwrap();
        g.connect(b, d).unwrap();
        g.connect(c, d).unwrap();
        cost.comp.observe("a", D0, 1.0);
        cost.comp.observe("b", D0, 10.0);
        cost.comp.observe("c", D0, 2.0);
        cost.comp.observe("d", D0, 1.0);
        g
    }

    #[test]
    fn ranks_accumulate_along_longest_path() {
        let mut cost = CostModels::new();
        let g = diamond(&mut cost);
        let r = upward_ranks(&g, &cost);
        // rank(d)=1, rank(b)=11, rank(c)=3, rank(a)=1+11=12
        assert_eq!(r[3], 1.0);
        assert_eq!(r[1], 11.0);
        assert_eq!(r[2], 3.0);
        assert_eq!(r[0], 12.0);
    }

    #[test]
    fn critical_path_follows_max_rank() {
        let mut cost = CostModels::new();
        let g = diamond(&mut cost);
        let r = upward_ranks(&g, &cost);
        let cp = critical_path(&g, &r);
        let names: Vec<&str> = cp.iter().map(|&o| g.op_ref(o).name.as_str()).collect();
        assert_eq!(names, vec!["a", "b", "d"]);
    }

    #[test]
    fn missing_costs_treated_as_zero() {
        let cost = CostModels::new();
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Relu, [1])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [1])).unwrap();
        g.connect(a, b).unwrap();
        let r = upward_ranks(&g, &cost);
        assert_eq!(r, vec![0.0, 0.0]);
    }

    #[test]
    fn comm_cost_included_in_rank() {
        let mut cost = CostModels::new();
        let mut g = Graph::new();
        let a = g.add_op(Operation::new("a", OpKind::Relu, [256])).unwrap();
        let b = g.add_op(Operation::new("b", OpKind::Relu, [256])).unwrap();
        g.connect(a, b).unwrap();
        cost.comp.observe("a", D0, 1.0);
        cost.comp.observe("b", D0, 1.0);
        // a slow profiled link makes max_comm large
        cost.comm.observe(D0, DeviceId(1), 1024, 0.5);
        cost.comm.refit();
        let r = upward_ranks(&g, &cost);
        assert!(r[0] > 2.0, "rank(a) should include comm: {}", r[0]);
    }

    #[test]
    fn placed_critical_path_uses_actual_devices() {
        let mut cost = CostModels::new();
        let g = diamond(&mut cost);
        // on the assigned device, c is slower than b
        cost.comp.observe("b", DeviceId(1), 1.0);
        cost.comp.observe("c", DeviceId(1), 20.0);
        let mut p = Placement::uniform(g.op_count(), D0);
        p.set(OpId(1), DeviceId(1));
        p.set(OpId(2), DeviceId(1));
        let cp = critical_path_placed(&g, &p, &cost, &fastt_cluster::Topology::single_server(2));
        let names: Vec<&str> = cp.iter().map(|&o| g.op_ref(o).name.as_str()).collect();
        assert_eq!(names, vec!["a", "c", "d"]);
    }

    #[test]
    fn empty_graph_has_empty_path() {
        let g = Graph::new();
        let cost = CostModels::new();
        assert!(critical_path(&g, &[]).is_empty());
        let p = Placement::uniform(0, D0);
        let topo = fastt_cluster::Topology::single_server(1);
        assert!(critical_path_placed(&g, &p, &cost, &topo).is_empty());
    }
}
