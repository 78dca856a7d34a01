//! Structural DAG decomposition: collapse a training graph into a tree of
//! regions so placement can run over the (much smaller) quotient graph.
//!
//! The reduction is in the style of a CFS/series-parallel contraction: we
//! iteratively apply a small grammar of provably acyclicity-preserving
//! contractions until a fixpoint —
//!
//! * **series**: contract an edge `u → v` when `v` has a single predecessor
//!   or `u` has a single successor (straight-line chains, the bulk of a
//!   layer's forward/backward body);
//! * **parallel**: merge regions with identical predecessor *and* successor
//!   sets (fan-out/fan-in diamonds: attention heads, tower branches);
//! * **endpoint absorption**: fold a source (e.g. a `Variable`) into one of
//!   its successors, or a sink (e.g. an `ApplyGradient`) into one of its
//!   predecessors, when a reachability check proves the contraction cannot
//!   create a cycle.
//!
//! Contracting an edge `(u, v)` of a DAG creates a cycle iff some other
//! path `u ⇝ v` of length ≥ 2 exists. The series rules exclude such a path
//! structurally (it would need a second predecessor of `v` / successor of
//! `u`); the parallel rule merges mutually non-adjacent twins with equal
//! frontiers; endpoint absorption verifies the condition directly with a
//! bounded DFS over the live quotient. Every pass iterates regions in
//! ascending minimum-op-id order, so the decomposition is deterministic.
//!
//! Region growth is capped ([`DecomposeOptions::max_region_ops`]) so the
//! result is a *partition* into mid-sized regions rather than one giant
//! region — the quotient stays meaningful for cross-region placement.
//!
//! Region hashes are **order-canonical and name-free**: a region hashes the
//! sorted multiset of its ops' structural signatures (kind, shape, flops,
//! parameter bytes, collective, internal degrees) plus its sorted internal
//! edges. Two isomorphic regions — repeated layers of a stacked model, twin
//! fleet jobs built in different insertion orders — hash identically even
//! though [`Graph::structure_hash`] (deliberately id-sensitive, see its
//! docs) does not.

use crate::graph::Graph;
use crate::op::OpId;
use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};

/// Tuning knobs for [`decompose_with`].
#[derive(Debug, Clone, Copy)]
pub struct DecomposeOptions {
    /// Hard cap on ops per region; merges that would exceed it are skipped.
    pub max_region_ops: usize,
    /// Safety bound on collapse rounds (fixpoint normally arrives first).
    pub max_rounds: usize,
    /// Node budget for each endpoint-absorption reachability DFS; a probe
    /// that exhausts the budget conservatively reports "reachable" and the
    /// merge is skipped.
    pub dfs_budget: usize,
}

impl DecomposeOptions {
    /// Defaults scaled to the graph: aim for a quotient of roughly 32
    /// top-level regions, with regions between 16 and 1024 ops.
    pub fn for_graph(g: &Graph) -> Self {
        DecomposeOptions {
            max_region_ops: (g.op_count() / 32).clamp(16, 1024),
            max_rounds: 64,
            dfs_budget: 4096,
        }
    }
}

/// Identifier of a region within one [`RegionTree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RegionId(pub u32);

impl RegionId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// How a region was formed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RegionKind {
    /// A single op nothing could absorb — a residual, irreducible region.
    Leaf,
    /// Built from series contractions only (a straight-line chain).
    Chain,
    /// Built from parallel merges only (a fan-out/fan-in bundle).
    Bundle,
    /// Built from both series and parallel steps (a reduced composite).
    Mixed,
}

/// One region of the decomposition: a connected-by-construction set of ops
/// that the hierarchical planner treats as a unit.
#[derive(Debug, Clone)]
pub struct Region {
    /// How the region was formed.
    pub kind: RegionKind,
    /// Member ops, ascending by id.
    pub ops: Vec<OpId>,
    /// Order-canonical, name-free hash of the region's internal structure.
    /// Isomorphic regions (repeated layers, twin jobs) hash identically.
    pub hash: u64,
}

impl Region {
    /// Number of ops in the region.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Whether the region is empty (never true for a built tree).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

/// The result of decomposing a graph: a partition of its ops into regions,
/// plus the quotient graph those regions induce.
#[derive(Debug, Clone)]
pub struct RegionTree {
    regions: Vec<Region>,
    op_region: Vec<u32>,
    /// Aggregated region-level edges `(src, dst, total bytes)`, sorted.
    quotient_edges: Vec<(RegionId, RegionId, u64)>,
    /// Op-level edges that cross a region boundary `(src, dst, bytes)`.
    boundary: Vec<(OpId, OpId, u64)>,
    rounds: usize,
    canonical: u64,
}

impl RegionTree {
    /// Number of regions.
    pub fn len(&self) -> usize {
        self.regions.len()
    }

    /// Whether the tree has no regions (only for an empty graph).
    pub fn is_empty(&self) -> bool {
        self.regions.is_empty()
    }

    /// Total ops across all regions (equals the source graph's op count).
    pub fn op_count(&self) -> usize {
        self.op_region.len()
    }

    /// The region containing `op`.
    pub fn region_of(&self, op: OpId) -> RegionId {
        RegionId(self.op_region[op.index()])
    }

    /// A region by id.
    pub fn region(&self, id: RegionId) -> &Region {
        &self.regions[id.index()]
    }

    /// All regions, in id order (ascending minimum member op id).
    pub fn regions(&self) -> impl Iterator<Item = (RegionId, &Region)> + '_ {
        self.regions
            .iter()
            .enumerate()
            .map(|(i, r)| (RegionId(i as u32), r))
    }

    /// Member ops of a region, ascending.
    pub fn ops(&self, id: RegionId) -> &[OpId] {
        &self.regions[id.index()].ops
    }

    /// Aggregated region-level edges `(src, dst, total bytes)`, sorted by
    /// `(src, dst)`. The quotient graph these edges induce is acyclic.
    pub fn quotient_edges(&self) -> &[(RegionId, RegionId, u64)] {
        &self.quotient_edges
    }

    /// Op-level edges crossing a region boundary, in source-graph order.
    pub fn boundary_edges(&self) -> &[(OpId, OpId, u64)] {
        &self.boundary
    }

    /// Residual, irreducible regions: singleton ops nothing could absorb.
    pub fn residual_regions(&self) -> Vec<RegionId> {
        self.regions()
            .filter(|(_, r)| r.kind == RegionKind::Leaf)
            .map(|(id, _)| id)
            .collect()
    }

    /// Collapse rounds run before the fixpoint (or round cap) was reached.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Order-canonical hash of the whole decomposition: the sorted multiset
    /// of region hashes plus the quotient edges expressed over them. Equal
    /// for graphs that differ only in op insertion order or names.
    pub fn canonical_hash(&self) -> u64 {
        self.canonical
    }
}

/// Decomposes `g` with [`DecomposeOptions::for_graph`] defaults.
pub fn decompose(g: &Graph) -> RegionTree {
    decompose_with(g, DecomposeOptions::for_graph(g))
}

const CHAIN_BIT: u8 = 1;
const BUNDLE_BIT: u8 = 2;

/// Union-find over ops with live quotient adjacency, the working state of
/// the contraction loop.
struct Builder {
    parent: Vec<u32>,
    size: Vec<u32>,
    bits: Vec<u8>,
    preds: Vec<BTreeSet<u32>>,
    succs: Vec<BTreeSet<u32>>,
    cap: usize,
    /// Visit stamps for [`Builder::reaches`]: `seen[x] == stamp` marks `x`
    /// as visited by the current probe.
    seen: Vec<u32>,
    stamp: u32,
}

impl Builder {
    /// One singleton region per op of `g`, joined by `g`'s edges.
    fn new(g: &Graph, cap: usize) -> Self {
        let n = g.op_count();
        let mut b = Builder {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
            bits: vec![0; n],
            preds: vec![BTreeSet::new(); n],
            succs: vec![BTreeSet::new(); n],
            cap,
            seen: vec![0; n],
            stamp: 0,
        };
        for e in g.iter_edges() {
            let (s, d) = (e.src.index() as u32, e.dst.index() as u32);
            if s != d {
                b.succs[s as usize].insert(d);
                b.preds[d as usize].insert(s);
            }
        }
        b
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let p = self.parent[x as usize];
            self.parent[x as usize] = self.parent[p as usize];
            x = self.parent[x as usize];
        }
        x
    }

    fn reps(&self) -> Vec<u32> {
        (0..self.parent.len() as u32)
            .filter(|&i| self.parent[i as usize] == i)
            .collect()
    }

    fn fits(&self, a: u32, b: u32) -> bool {
        (self.size[a as usize] + self.size[b as usize]) as usize <= self.cap
    }

    /// Merges representative regions `a` and `b`; the smaller op id stays
    /// the representative (which keeps iteration order deterministic).
    fn merge(&mut self, a: u32, b: u32, bit: u8) {
        debug_assert!(a != b);
        let (r, o) = if a < b { (a, b) } else { (b, a) };
        self.parent[o as usize] = r;
        self.size[r as usize] += self.size[o as usize];
        self.bits[r as usize] |= self.bits[o as usize] | bit;
        let op = std::mem::take(&mut self.preds[o as usize]);
        let os = std::mem::take(&mut self.succs[o as usize]);
        self.preds[r as usize].remove(&o);
        self.succs[r as usize].remove(&o);
        for p in op {
            if p == r {
                continue;
            }
            self.succs[p as usize].remove(&o);
            self.succs[p as usize].insert(r);
            self.preds[r as usize].insert(p);
        }
        for s in os {
            if s == r {
                continue;
            }
            self.preds[s as usize].remove(&o);
            self.preds[s as usize].insert(r);
            self.succs[r as usize].insert(s);
        }
        self.preds[r as usize].remove(&r);
        self.succs[r as usize].remove(&r);
    }

    /// Series pass: contract single-pred / single-succ edges.
    fn series_pass(&mut self) -> bool {
        let mut changed = false;
        for v in self.reps() {
            if self.parent[v as usize] != v {
                continue; // merged earlier this pass
            }
            if self.preds[v as usize].len() == 1 {
                let p = *self.preds[v as usize].iter().next().unwrap();
                if self.fits(p, v) {
                    self.merge(p, v, CHAIN_BIT);
                    changed = true;
                    continue;
                }
            }
            if self.succs[v as usize].len() == 1 {
                let s = *self.succs[v as usize].iter().next().unwrap();
                if self.fits(v, s) {
                    self.merge(v, s, CHAIN_BIT);
                    changed = true;
                }
            }
        }
        changed
    }

    /// Parallel pass: merge regions with identical pred and succ sets.
    /// Members of a group are mutually non-adjacent (a member adjacent to
    /// another would appear in its own frontier), and intra-pass merges
    /// rewrite every group key by the same substitution, so grouping
    /// computed at pass start stays valid.
    fn bundle_pass(&mut self) -> bool {
        let mut groups: BTreeMap<(Vec<u32>, Vec<u32>), Vec<u32>> = BTreeMap::new();
        for r in self.reps() {
            let key = (
                self.preds[r as usize].iter().copied().collect::<Vec<_>>(),
                self.succs[r as usize].iter().copied().collect::<Vec<_>>(),
            );
            groups.entry(key).or_default().push(r);
        }
        let mut changed = false;
        for ((preds, succs), members) in groups {
            if members.len() < 2 || (preds.is_empty() && succs.is_empty()) {
                continue;
            }
            let mut base = members[0];
            for &m in &members[1..] {
                if self.fits(base, m) {
                    self.merge(base, m, BUNDLE_BIT);
                    // base has the smaller id, so it stays the rep.
                    changed = true;
                } else {
                    base = m;
                }
            }
        }
        changed
    }

    /// Bounded multi-source DFS on the live quotient: does any of `from`
    /// reach `target`? Exhausting the budget reports `true` (pessimistic).
    fn reaches(&mut self, from: &[u32], target: u32, budget: usize) -> bool {
        self.stamp = self.stamp.wrapping_add(1);
        if self.stamp == 0 {
            self.seen.fill(0);
            self.stamp = 1;
        }
        let stamp = self.stamp;
        let mut stack: Vec<u32> = from.to_vec();
        let mut visited = 0usize;
        while let Some(x) = stack.pop() {
            if x == target {
                return true;
            }
            if self.seen[x as usize] == stamp {
                continue;
            }
            self.seen[x as usize] = stamp;
            visited += 1;
            if visited > budget {
                return true;
            }
            for &s in &self.succs[x as usize] {
                if self.seen[s as usize] != stamp {
                    stack.push(s);
                }
            }
        }
        false
    }

    /// Endpoint pass: absorb sources into a successor (and sinks into a
    /// predecessor) when a live reachability probe proves the contraction
    /// acyclic — no other successor of the source may reach the chosen
    /// target (symmetrically for sinks).
    fn endpoint_pass(&mut self, budget: usize) -> bool {
        let mut changed = false;
        for r in self.reps() {
            if self.parent[r as usize] != r {
                continue;
            }
            let (is_source, frontier) =
                if self.preds[r as usize].is_empty() && !self.succs[r as usize].is_empty() {
                    (
                        true,
                        self.succs[r as usize].iter().copied().collect::<Vec<_>>(),
                    )
                } else if self.succs[r as usize].is_empty() && !self.preds[r as usize].is_empty() {
                    (
                        false,
                        self.preds[r as usize].iter().copied().collect::<Vec<_>>(),
                    )
                } else {
                    continue;
                };
            if frontier.len() == 1 {
                continue; // series pass already owns this case
            }
            for &cand in &frontier {
                if !self.fits(r, cand) {
                    continue;
                }
                let safe = if is_source {
                    let others: Vec<u32> =
                        frontier.iter().copied().filter(|&x| x != cand).collect();
                    !self.reaches(&others, cand, budget)
                } else {
                    !frontier
                        .iter()
                        .filter(|&&t| t != cand)
                        .any(|&t| self.reaches(&[cand], t, budget))
                };
                if safe {
                    self.merge(r, cand, CHAIN_BIT);
                    changed = true;
                    break;
                }
            }
        }
        changed
    }
}

/// Decomposes `g` into a [`RegionTree`] under explicit options.
///
/// The result is deterministic for a given graph and options: every pass
/// iterates in ascending region-representative order and all working sets
/// are ordered.
pub fn decompose_with(g: &Graph, opts: DecomposeOptions) -> RegionTree {
    let n = g.op_count();
    let mut b = Builder::new(g, opts.max_region_ops.max(1));

    let mut rounds = 0usize;
    while rounds < opts.max_rounds {
        rounds += 1;
        let mut changed = b.series_pass();
        changed |= b.bundle_pass();
        changed |= b.endpoint_pass(opts.dfs_budget);
        if !changed {
            break;
        }
    }

    // Compact representatives into dense region ids (ascending min op id).
    let reps = b.reps();
    let mut region_index: BTreeMap<u32, u32> = BTreeMap::new();
    for (i, &r) in reps.iter().enumerate() {
        region_index.insert(r, i as u32);
    }
    let mut op_region = vec![0u32; n];
    let mut ops_per: Vec<Vec<OpId>> = vec![Vec::new(); reps.len()];
    for i in 0..n as u32 {
        let r = b.find(i);
        let idx = region_index[&r];
        op_region[i as usize] = idx;
        ops_per[idx as usize].push(OpId(i));
    }

    // Internal degrees (per op, counting only same-region edges) feed the
    // op signatures; quotient and boundary edges fall out of the same scan.
    let mut int_in = vec![0u32; n];
    let mut int_out = vec![0u32; n];
    let mut internal_edges: Vec<Vec<(usize, usize, u64)>> = vec![Vec::new(); reps.len()];
    let mut quotient: BTreeMap<(u32, u32), u64> = BTreeMap::new();
    let mut boundary: Vec<(OpId, OpId, u64)> = Vec::new();
    for e in g.iter_edges() {
        let (rs, rd) = (op_region[e.src.index()], op_region[e.dst.index()]);
        if rs == rd {
            int_in[e.dst.index()] += 1;
            int_out[e.src.index()] += 1;
            internal_edges[rs as usize].push((e.src.index(), e.dst.index(), e.bytes));
        } else {
            *quotient.entry((rs, rd)).or_insert(0) += e.bytes;
            boundary.push((e.src, e.dst, e.bytes));
        }
    }

    let mut regions = Vec::with_capacity(reps.len());
    for (idx, (rep, ops)) in reps.iter().zip(ops_per).enumerate() {
        let kind = match (
            b.bits[*rep as usize] & CHAIN_BIT,
            b.bits[*rep as usize] & BUNDLE_BIT,
        ) {
            (0, 0) => RegionKind::Leaf,
            (_, 0) => RegionKind::Chain,
            (0, _) => RegionKind::Bundle,
            _ => RegionKind::Mixed,
        };
        let hash = region_hash(g, &ops, &internal_edges[idx], &int_in, &int_out);
        regions.push(Region { kind, ops, hash });
    }

    let quotient_edges: Vec<(RegionId, RegionId, u64)> = quotient
        .into_iter()
        .map(|((s, d), bytes)| (RegionId(s), RegionId(d), bytes))
        .collect();

    let canonical = canonical_hash(&regions, &quotient_edges, n);

    RegionTree {
        regions,
        op_region,
        quotient_edges,
        boundary,
        rounds,
        canonical,
    }
}

/// Name- and id-free structural signature of one op inside its region.
fn op_sig(g: &Graph, op: OpId, int_in: &[u32], int_out: &[u32]) -> u64 {
    let o = g.op_ref(op);
    let mut h = std::collections::hash_map::DefaultHasher::new();
    o.kind.hash(&mut h);
    o.out_shape.hash(&mut h);
    o.flops.hash(&mut h);
    o.param_bytes.hash(&mut h);
    o.collective.hash(&mut h);
    int_in[op.index()].hash(&mut h);
    int_out[op.index()].hash(&mut h);
    h.finish()
}

/// Order-canonical region hash: sorted op signatures plus sorted internal
/// edges expressed over those signatures. Internal-only on purpose, so
/// repeated layers hash identically regardless of what they connect to.
fn region_hash(
    g: &Graph,
    ops: &[OpId],
    internal: &[(usize, usize, u64)],
    int_in: &[u32],
    int_out: &[u32],
) -> u64 {
    let mut sig_of: BTreeMap<usize, u64> = BTreeMap::new();
    let mut sigs: Vec<u64> = ops
        .iter()
        .map(|&op| {
            let s = op_sig(g, op, int_in, int_out);
            sig_of.insert(op.index(), s);
            s
        })
        .collect();
    sigs.sort_unstable();
    let mut edges: Vec<(u64, u64, u64)> = internal
        .iter()
        .map(|&(s, d, bytes)| (sig_of[&s], sig_of[&d], bytes))
        .collect();
    edges.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ops.len().hash(&mut h);
    for s in sigs {
        s.hash(&mut h);
    }
    edges.len().hash(&mut h);
    for e in edges {
        e.hash(&mut h);
    }
    h.finish()
}

/// Whole-tree canonical hash: sorted region-hash multiset plus the quotient
/// edges rewritten over region hashes.
fn canonical_hash(regions: &[Region], quotient: &[(RegionId, RegionId, u64)], ops: usize) -> u64 {
    let mut rh: Vec<u64> = regions.iter().map(|r| r.hash).collect();
    rh.sort_unstable();
    let mut qe: Vec<(u64, u64, u64)> = quotient
        .iter()
        .map(|&(s, d, bytes)| (regions[s.index()].hash, regions[d.index()].hash, bytes))
        .collect();
    qe.sort_unstable();
    let mut h = std::collections::hash_map::DefaultHasher::new();
    ops.hash(&mut h);
    rh.len().hash(&mut h);
    for x in rh {
        x.hash(&mut h);
    }
    for e in qe {
        e.hash(&mut h);
    }
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::{OpKind, Operation};

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new();
        let mut prev = None;
        for i in 0..n {
            let id = g
                .add_op(Operation::new(format!("op{i}"), OpKind::Relu, [4, 4]).with_flops(16))
                .unwrap();
            if let Some(p) = prev {
                g.connect_bytes(p, id, 64).unwrap();
            }
            prev = Some(id);
        }
        g
    }

    fn diamond(names: [&str; 4]) -> Graph {
        let mut g = Graph::new();
        let a = g
            .add_op(Operation::new(names[0], OpKind::Input, [4, 4]))
            .unwrap();
        let b = g
            .add_op(Operation::new(names[1], OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let c = g
            .add_op(Operation::new(names[2], OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let d = g
            .add_op(Operation::new(names[3], OpKind::Add, [4, 4]).with_flops(16))
            .unwrap();
        g.connect_bytes(a, b, 64).unwrap();
        g.connect_bytes(a, c, 64).unwrap();
        g.connect_bytes(b, d, 64).unwrap();
        g.connect_bytes(c, d, 64).unwrap();
        g
    }

    fn quotient_is_acyclic(t: &RegionTree) -> bool {
        let n = t.len();
        let mut indeg = vec![0usize; n];
        let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(s, d, _) in t.quotient_edges() {
            indeg[d.index()] += 1;
            succs[s.index()].push(d.index());
        }
        let mut ready: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(x) = ready.pop() {
            seen += 1;
            for &s in &succs[x] {
                indeg[s] -= 1;
                if indeg[s] == 0 {
                    ready.push(s);
                }
            }
        }
        seen == n
    }

    #[test]
    fn straight_chain_collapses_to_one_region() {
        let g = chain(16); // for_graph caps tiny graphs at 16 ops/region
        let t = decompose(&g);
        assert_eq!(t.len(), 1);
        assert_eq!(t.region(RegionId(0)).kind, RegionKind::Chain);
        assert_eq!(t.op_count(), 16);
        assert!(t.quotient_edges().is_empty());
        assert!(t.boundary_edges().is_empty());
    }

    #[test]
    fn diamond_collapses_fully() {
        let g = diamond(["a", "b", "c", "d"]);
        let t = decompose(&g);
        assert_eq!(t.len(), 1, "diamond should reduce to one region");
        assert!(quotient_is_acyclic(&t));
    }

    #[test]
    fn partition_covers_every_op_exactly_once() {
        let g = diamond(["a", "b", "c", "d"]);
        let t = decompose_with(
            &g,
            DecomposeOptions {
                max_region_ops: 2,
                max_rounds: 64,
                dfs_budget: 4096,
            },
        );
        let total: usize = t.regions().map(|(_, r)| r.len()).sum();
        assert_eq!(total, g.op_count());
        let mut seen = BTreeSet::new();
        for (_, r) in t.regions() {
            for &op in &r.ops {
                assert!(seen.insert(op), "op {op:?} in two regions");
            }
        }
        for (id, _) in g.iter_ops() {
            assert!(seen.contains(&id));
            let r = t.region_of(id);
            assert!(t.ops(r).contains(&id));
        }
        // Boundary + internal edges together cover the whole edge set.
        let internal: usize = g
            .iter_edges()
            .filter(|e| t.region_of(e.src) == t.region_of(e.dst))
            .count();
        assert_eq!(internal + t.boundary_edges().len(), g.edge_count());
        assert!(quotient_is_acyclic(&t));
    }

    #[test]
    fn cap_is_respected() {
        let g = chain(32);
        let t = decompose_with(
            &g,
            DecomposeOptions {
                max_region_ops: 5,
                max_rounds: 64,
                dfs_budget: 4096,
            },
        );
        assert!(t.len() > 1);
        for (_, r) in t.regions() {
            assert!(r.len() <= 5, "region of {} ops exceeds cap", r.len());
        }
        assert!(quotient_is_acyclic(&t));
    }

    #[test]
    fn decomposition_is_deterministic() {
        let g = diamond(["a", "b", "c", "d"]);
        let t1 = decompose(&g);
        let t2 = decompose(&g);
        assert_eq!(t1.canonical_hash(), t2.canonical_hash());
        for ((_, r1), (_, r2)) in t1.regions().zip(t2.regions()) {
            assert_eq!(r1.ops, r2.ops);
            assert_eq!(r1.hash, r2.hash);
        }
        assert_eq!(t1.rounds(), t2.rounds());
    }

    /// Pinned: region hashes are order-canonical — the same diamond built
    /// with its parallel arms inserted in opposite orders (so op ids and
    /// `structure_hash` differ) decomposes to the same canonical hash.
    #[test]
    fn permuted_insertion_orders_share_canonical_hashes() {
        let mut g1 = Graph::new();
        let a = g1
            .add_op(Operation::new("a", OpKind::Input, [4, 4]))
            .unwrap();
        let b = g1
            .add_op(Operation::new("b", OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let c = g1
            .add_op(Operation::new("c", OpKind::Softmax, [4, 4]).with_flops(32))
            .unwrap();
        let d = g1
            .add_op(Operation::new("d", OpKind::Add, [4, 4]).with_flops(16))
            .unwrap();
        g1.connect_bytes(a, b, 64).unwrap();
        g1.connect_bytes(a, c, 64).unwrap();
        g1.connect_bytes(b, d, 64).unwrap();
        g1.connect_bytes(c, d, 64).unwrap();

        // Same shape, arms inserted in the other order and renamed.
        let mut g2 = Graph::new();
        let a2 = g2
            .add_op(Operation::new("x", OpKind::Input, [4, 4]))
            .unwrap();
        let c2 = g2
            .add_op(Operation::new("y", OpKind::Softmax, [4, 4]).with_flops(32))
            .unwrap();
        let b2 = g2
            .add_op(Operation::new("z", OpKind::Relu, [4, 4]).with_flops(16))
            .unwrap();
        let d2 = g2
            .add_op(Operation::new("w", OpKind::Add, [4, 4]).with_flops(16))
            .unwrap();
        g2.connect_bytes(a2, b2, 64).unwrap();
        g2.connect_bytes(b2, d2, 64).unwrap();
        g2.connect_bytes(a2, c2, 64).unwrap();
        g2.connect_bytes(c2, d2, 64).unwrap();

        assert_ne!(
            g1.structure_hash(),
            g2.structure_hash(),
            "structure_hash is id-sensitive by design"
        );
        let t1 = decompose(&g1);
        let t2 = decompose(&g2);
        assert_eq!(t1.canonical_hash(), t2.canonical_hash());
    }

    /// Repeated identical blocks produce identical region hashes even with
    /// distinct op names — the property region-granular caching rides on.
    #[test]
    fn repeated_blocks_share_region_hashes() {
        let mut g = Graph::new();
        let mut prev = None;
        for blk in 0..3 {
            for i in 0..4 {
                let id = g
                    .add_op(
                        Operation::new(format!("blk{blk}/op{i}"), OpKind::Relu, [8, 8])
                            .with_flops(64),
                    )
                    .unwrap();
                if let Some(p) = prev {
                    g.connect_bytes(p, id, 256).unwrap();
                }
                prev = Some(id);
            }
        }
        let t = decompose_with(
            &g,
            DecomposeOptions {
                max_region_ops: 4,
                max_rounds: 64,
                dfs_budget: 4096,
            },
        );
        let hashes: Vec<u64> = t.regions().map(|(_, r)| r.hash).collect();
        assert!(hashes.len() >= 3);
        let distinct: BTreeSet<u64> = hashes.iter().copied().collect();
        assert!(
            distinct.len() < hashes.len(),
            "repeated blocks must share at least one region hash: {hashes:?}"
        );
    }

    #[test]
    fn empty_graph_decomposes_to_empty_tree() {
        let g = Graph::new();
        let t = decompose(&g);
        assert!(t.is_empty());
        assert_eq!(t.op_count(), 0);
    }

    /// The reachability probe before visit stamps: a fresh `BTreeSet` per
    /// probe. [`Builder::reaches`] must answer every probe exactly as this
    /// does, budget exhaustion included.
    fn reaches_reference(b: &Builder, from: &[u32], target: u32, budget: usize) -> bool {
        let mut seen: BTreeSet<u32> = BTreeSet::new();
        let mut stack: Vec<u32> = from.to_vec();
        let mut visited = 0usize;
        while let Some(x) = stack.pop() {
            if x == target {
                return true;
            }
            if !seen.insert(x) {
                continue;
            }
            visited += 1;
            if visited > budget {
                return true;
            }
            for &s in &b.succs[x as usize] {
                if !seen.contains(&s) {
                    stack.push(s);
                }
            }
        }
        false
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A seeded random DAG: every edge points from a lower to a higher id.
    fn random_dag(n: usize, seed: u64) -> Graph {
        let mut rng = seed;
        let mut g = Graph::new();
        let ids: Vec<OpId> = (0..n)
            .map(|i| {
                g.add_op(Operation::new(format!("op{i}"), OpKind::Relu, [4, 4]).with_flops(16))
                    .unwrap()
            })
            .collect();
        for j in 1..n {
            for _ in 0..1 + splitmix(&mut rng) % 3 {
                let i = (splitmix(&mut rng) % j as u64) as usize;
                g.connect_bytes(ids[i], ids[j], 64).unwrap();
            }
        }
        g
    }

    /// A 4-way replicated training graph with the layer shape of the models
    /// crate's stacked Transformer (which sits above this crate): per layer,
    /// q/k/v projections with weight variables fan out into attention heads
    /// that a concat gathers, then an output projection and a residual add.
    fn replicated_attention_stack(layers: usize, heads: usize) -> Graph {
        let mut g = Graph::new();
        let fc = |g: &mut Graph, name: String, input: OpId| {
            let w = g
                .add_op(
                    Operation::new(format!("{name}/w"), OpKind::Variable, [8, 8])
                        .with_param_bytes(256),
                )
                .unwrap();
            let op = g
                .add_op(Operation::new(name, OpKind::MatMul, [4, 8]).with_flops(512))
                .unwrap();
            g.connect_bytes(input, op, 128).unwrap();
            g.connect_bytes(w, op, 256).unwrap();
            op
        };
        let mut x = g
            .add_op(Operation::new("ids", OpKind::Input, [4, 8]))
            .unwrap();
        for l in 0..layers {
            let q = fc(&mut g, format!("l{l}/q"), x);
            let k = fc(&mut g, format!("l{l}/k"), x);
            let v = fc(&mut g, format!("l{l}/v"), x);
            let cat = g
                .add_op(Operation::new(format!("l{l}/cat"), OpKind::Concat, [4, 8]))
                .unwrap();
            for h in 0..heads {
                let at = g
                    .add_op(
                        Operation::new(format!("l{l}/head{h}"), OpKind::Attention, [4, 2])
                            .with_flops(64),
                    )
                    .unwrap();
                for p in [q, k, v] {
                    g.connect_bytes(p, at, 32).unwrap();
                }
                g.connect_bytes(at, cat, 32).unwrap();
            }
            let out = fc(&mut g, format!("l{l}/out"), cat);
            let res = g
                .add_op(Operation::new(format!("l{l}/res"), OpKind::Add, [4, 8]).with_flops(32))
                .unwrap();
            g.connect_bytes(x, res, 128).unwrap();
            g.connect_bytes(out, res, 128).unwrap();
            x = res;
        }
        let loss = g.add_op(Operation::new("loss", OpKind::Loss, [1])).unwrap();
        g.connect_bytes(x, loss, 4).unwrap();
        let training = crate::build_training_graph(&g).unwrap();
        crate::replicate(&training, 4).unwrap().graph
    }

    /// Interleaves seeded probes with the contraction passes on one
    /// builder, so stamps are reused across probes and across a changing
    /// quotient. Returns how many probes ran out of budget.
    fn check_probes_against_reference(g: &Graph, seed: u64, first_stamp: u32) -> usize {
        let mut rng = seed;
        let mut b = Builder::new(g, DecomposeOptions::for_graph(g).max_region_ops);
        b.stamp = first_stamp;
        let mut exhausted = 0;
        for round in 0..3 {
            let reps = b.reps();
            let pick = |rng: &mut u64| reps[(splitmix(rng) % reps.len() as u64) as usize];
            for probe in 0..400 {
                let from: Vec<u32> = (0..1 + splitmix(&mut rng) % 3)
                    .map(|_| pick(&mut rng))
                    .collect();
                let target = pick(&mut rng);
                let budget = [1, 2, 4, 16, 64, 4096][(splitmix(&mut rng) % 6) as usize];
                let want = reaches_reference(&b, &from, target, budget);
                assert_eq!(
                    b.reaches(&from, target, budget),
                    want,
                    "round {round} probe {probe}: {from:?} -> {target} (budget {budget})"
                );
                if want && !reaches_reference(&b, &from, target, usize::MAX) {
                    exhausted += 1;
                }
            }
            b.series_pass();
            b.bundle_pass();
            b.endpoint_pass(4096);
        }
        exhausted
    }

    #[test]
    fn stamped_reaches_matches_the_set_based_reference() {
        let mut exhausted = 0;
        for seed in 0..6 {
            exhausted += check_probes_against_reference(&random_dag(300, seed), seed, 0);
        }
        let stack = replicated_attention_stack(4, 8);
        exhausted += check_probes_against_reference(&stack, 99, 0);
        // Start just below the wrap so the stamp reset path runs too.
        exhausted += check_probes_against_reference(&stack, 7, u32::MAX - 5);
        assert!(exhausted > 0, "no probe exhausted its budget");
    }
}
