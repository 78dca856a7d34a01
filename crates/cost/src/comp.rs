//! The computation cost model: execution time of a (sub-)operation on a
//! device, keyed by op name + device (Sec. 4 "The computation cost model
//! provides the execution time of a (sub-)operation on a device, using the
//! operation's name and device as the key").

use fastt_cluster::DeviceId;
use fastt_graph::{Graph, OpId};
use fastt_sim::RunTrace;
use std::collections::HashMap;

/// Canonicalizes an op name for cost-model keying: data-parallel replicas
/// (`rep3/conv1_1` → `conv1_1`) and split parts (`conv.part2` → `conv.part#`)
/// perform identical work, so their measurements share one key. This is what
/// makes the paper's bootstrap fast: "we use data parallelism as the starting
/// strategy … by which each operation is replicated to different GPUs and
/// their execution time on different devices is learned" (Sec. 4).
pub fn canonical_name(name: &str) -> String {
    let mut s = name;
    // strip a leading replica prefix
    if let Some(rest) = s.strip_prefix("rep") {
        if let Some(slash) = rest.find('/') {
            if rest[..slash].chars().all(|c| c.is_ascii_digit()) && slash > 0 {
                s = &rest[slash + 1..];
            }
        }
    }
    // merge part indices
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(pos) = rest.find(".part") {
        out.push_str(&rest[..pos + 5]);
        rest = &rest[pos + 5..];
        let digits = rest.chars().take_while(|c| c.is_ascii_digit()).count();
        if digits > 0 {
            out.push('#');
            rest = &rest[digits..];
        }
    }
    out.push_str(rest);
    out
}

/// Running mean of observed execution times for one (op, device) key.
#[derive(Debug, Clone, Copy, Default)]
struct Stat {
    sum: f64,
    count: u64,
    /// True when the value is an analytic seed rather than a measurement;
    /// seeds may be replaced by later seeds, measurements may not.
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

/// Profiled per-(op, device) execution times with running averages.
///
/// Canonical op names are interned to dense ids once; each id owns a row
/// of running means indexed by device. A lookup is one [`canonical_name`],
/// one hash and an index, and [`CompCostModel::max_time`] scans one row
/// instead of every key of the model.
#[derive(Debug, Clone, Default)]
pub struct CompCostModel {
    /// Canonical name → row index into `stats`.
    ids: HashMap<String, u32>,
    /// Per-name stats, indexed by `DeviceId::index()`; a cell with
    /// `count == 0` is not a key.
    stats: Vec<Vec<Stat>>,
    /// Number of keys (cells with `count > 0`).
    keys: usize,
    /// Means at the last [`CompCostModel::snapshot`], shaped like `stats`;
    /// a cell that was not a key then holds 0 (counts as fully drifted).
    snapshot: Vec<Vec<f64>>,
    /// Monotonic counter bumped on every real measurement; plan-cache
    /// fingerprints use it to detect that predictions may have moved.
    generation: u64,
}

impl CompCostModel {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// The row of `name`, if it was ever observed or seeded.
    fn row(&self, name: &str) -> Option<&[Stat]> {
        self.ids
            .get(&canonical_name(name))
            .map(|&id| self.stats[id as usize].as_slice())
    }

    /// The cell of (`name`, `device`), created empty if absent.
    fn cell_mut(&mut self, name: &str, device: DeviceId) -> &mut Stat {
        let key = canonical_name(name);
        let id = match self.ids.get(&key) {
            Some(&id) => id as usize,
            None => {
                self.ids.insert(key, self.stats.len() as u32);
                self.stats.push(Vec::new());
                self.stats.len() - 1
            }
        };
        let row = &mut self.stats[id];
        if row.len() <= device.index() {
            row.resize(device.index() + 1, Stat::default());
        }
        let s = &mut row[device.index()];
        if s.count == 0 {
            // every caller leaves the cell with `count ≥ 1`
            self.keys += 1;
        }
        s
    }

    /// Records one observed execution of `name` on `device`. The first real
    /// measurement discards any analytic seed for the key. Names are
    /// canonicalized (see [`canonical_name`]).
    ///
    /// Once a key has a few real measurements (≥ 3), new samples are
    /// winsorized to within 8x of the running mean: a straggler window or a
    /// faulty re-executed op then nudges the average instead of poisoning
    /// it, while genuine hardware drift (which arrives as a stream of
    /// consistent samples, not one spike) still moves the mean past the
    /// drift threshold.
    pub fn observe(&mut self, name: &str, device: DeviceId, secs: f64) {
        self.generation += 1;
        let s = self.cell_mut(name, device);
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

    /// Ingests every op record of a profiled iteration
    /// (the paper's `RunMetadata` consumption).
    pub fn update_from_trace(&mut self, graph: &Graph, trace: &RunTrace) {
        for r in &trace.op_records {
            let name = &graph.op_ref(r.op).name;
            self.observe(name, r.device, r.duration());
        }
    }

    /// Mean observed execution time of `name` on `device`, if any.
    pub fn get(&self, name: &str, device: DeviceId) -> Option<f64> {
        self.row(name)?
            .get(device.index())
            .filter(|s| s.count > 0)
            .map(|s| s.mean())
    }

    /// Maximal mean execution time of `name` over all profiled devices —
    /// the `w_i` of the rank computation (Sec. 5.1).
    pub fn max_time(&self, name: &str) -> Option<f64> {
        row_max(self.row(name)?)
    }

    /// Number of distinct (op, device) keys profiled.
    pub fn key_count(&self) -> usize {
        self.keys
    }

    /// Monotonic measurement generation: bumped once per [`observe`] call
    /// (including trace ingestion), never by [`seed`] — analytic priors do
    /// not invalidate cached plans.
    ///
    /// [`observe`]: CompCostModel::observe
    /// [`seed`]: CompCostModel::seed
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Whether every op of `graph` has at least one profiled device.
    pub fn covers(&self, graph: &Graph) -> bool {
        graph
            .iter_ops()
            .all(|(_, o)| self.max_time(&o.name).is_some())
    }

    /// Seeds an estimate for `name` on every device in `devices` (used to
    /// give freshly created sub-operations an analytic prior of
    /// `parent_time / n` before they have ever run; refined by profiling).
    ///
    /// A seed never overwrites real measurements, but a newer seed replaces
    /// an older one (split candidates with different part counts reuse
    /// sub-op names).
    pub fn seed(&mut self, name: &str, devices: &[DeviceId], secs: f64) {
        for &d in devices {
            let s = self.cell_mut(name, d);
            if s.count == 0 || s.seeded {
                *s = Stat {
                    sum: secs,
                    count: 1,
                    seeded: true,
                };
            }
        }
    }

    /// Remembers the current means; [`CompCostModel::max_drift`] compares
    /// against them.
    pub fn snapshot(&mut self) {
        self.snapshot = self
            .stats
            .iter()
            .map(|row| row.iter().map(Stat::mean).collect())
            .collect();
    }

    /// Largest relative change of any key's mean since the last snapshot
    /// (keys unseen at snapshot time count as fully drifted). The paper
    /// finishes pre-training "when the average time of the same
    /// (sub-)operation(s) on the same device(s) does not vary much".
    pub fn max_drift(&self) -> f64 {
        let mut worst: f64 = 0.0;
        for (id, row) in self.stats.iter().enumerate() {
            for (d, s) in row.iter().enumerate().filter(|(_, s)| s.count > 0) {
                let now = s.mean();
                let then = self
                    .snapshot
                    .get(id)
                    .and_then(|r| r.get(d))
                    .copied()
                    .unwrap_or(0.0);
                if then > 0.0 {
                    worst = worst.max((now - then).abs() / then);
                } else {
                    worst = worst.max(1.0);
                }
            }
        }
        worst
    }

    /// The dense `ops × devices` view of this model over `graph`, for one
    /// planning run: one [`canonical_name`] per op, after which every read
    /// is an index. Unprofiled cells read 0, as do ops with no profiled
    /// device at all (Sec. 4: missing costs count as zero).
    pub fn table(&self, graph: &Graph) -> CompCostTable {
        let rows: Vec<Option<&[Stat]>> = graph.iter_ops().map(|(_, o)| self.row(&o.name)).collect();
        let width = rows.iter().flatten().map(|r| r.len()).max().unwrap_or(0);
        let mut times = vec![0.0; rows.len() * width];
        let mut max = vec![0.0; rows.len()];
        for (i, row) in rows.iter().enumerate() {
            let Some(row) = row else { continue };
            for (d, s) in row.iter().enumerate().filter(|(_, s)| s.count > 0) {
                times[i * width + d] = s.mean();
            }
            max[i] = row_max(row).unwrap_or(0.0);
        }
        CompCostTable { width, times, max }
    }
}

/// Maximal mean over the profiled cells of one row.
fn row_max(row: &[Stat]) -> Option<f64> {
    row.iter()
        .filter(|s| s.count > 0)
        .map(Stat::mean)
        .reduce(f64::max)
}

/// A dense snapshot of a [`CompCostModel`] over one graph, indexed by
/// [`OpId`] and [`DeviceId`]; see [`CompCostModel::table`]. It does not
/// follow later updates of the model.
#[derive(Debug, Clone)]
pub struct CompCostTable {
    /// Columns per op: the widest device row among the graph's ops.
    width: usize,
    /// Op-major mean times, 0 where unprofiled.
    times: Vec<f64>,
    /// Per-op maximum over profiled devices, 0 where none.
    max: Vec<f64>,
}

impl CompCostTable {
    /// Mean execution time of `op` on `device`, 0 if unprofiled.
    #[inline]
    pub fn time(&self, op: OpId, device: DeviceId) -> f64 {
        if device.index() < self.width {
            self.times[op.index() * self.width + device.index()]
        } else {
            0.0
        }
    }

    /// Maximal mean execution time of `op` over all profiled devices, 0 if
    /// none — the `w_i` of the rank computation (Sec. 5.1).
    #[inline]
    pub fn max_time(&self, op: OpId) -> f64 {
        self.max[op.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const D0: DeviceId = DeviceId(0);
    const D1: DeviceId = DeviceId(1);

    #[test]
    fn observe_and_average() {
        let mut m = CompCostModel::new();
        m.observe("conv", D0, 1.0);
        m.observe("conv", D0, 3.0);
        assert_eq!(m.get("conv", D0), Some(2.0));
        assert_eq!(m.get("conv", D1), None);
    }

    #[test]
    fn max_time_over_devices() {
        let mut m = CompCostModel::new();
        m.observe("conv", D0, 1.0);
        m.observe("conv", D1, 5.0);
        assert_eq!(m.max_time("conv"), Some(5.0));
        assert_eq!(m.max_time("missing"), None);
    }

    #[test]
    fn seed_does_not_overwrite_observations() {
        let mut m = CompCostModel::new();
        m.observe("x", D0, 2.0);
        m.seed("x", &[D0, D1], 9.0);
        assert_eq!(m.get("x", D0), Some(2.0));
        assert_eq!(m.get("x", D1), Some(9.0));
    }

    #[test]
    fn drift_detection() {
        let mut m = CompCostModel::new();
        m.observe("a", D0, 1.0);
        m.snapshot();
        assert_eq!(m.max_drift(), 0.0);
        m.observe("a", D0, 1.0); // mean unchanged
        assert_eq!(m.max_drift(), 0.0);
        m.observe("a", D0, 7.0); // mean 3.0 → drift 2.0
        assert!(m.max_drift() > 1.9);
        // a brand-new key counts as full drift
        m.snapshot();
        m.observe("b", D0, 1.0);
        assert!(m.max_drift() >= 1.0);
    }

    #[test]
    fn winsorized_observe_bounds_straggler_spikes() {
        let mut m = CompCostModel::new();
        for _ in 0..4 {
            m.observe("conv", D0, 1.0);
        }
        // a 100x spike (op re-executed under faults) is clamped to 8x ...
        m.observe("conv", D0, 100.0);
        let after_spike = m.get("conv", D0).unwrap();
        assert!(
            (after_spike - (4.0 + 8.0) / 5.0).abs() < 1e-9,
            "mean {after_spike}"
        );
        // ... while early samples (count < 3) are taken at face value
        let mut fresh = CompCostModel::new();
        fresh.observe("x", D0, 1.0);
        fresh.observe("x", D0, 100.0);
        assert_eq!(fresh.get("x", D0), Some(50.5));
    }

    #[test]
    fn canonical_name_strips_replicas_and_part_indices() {
        assert_eq!(canonical_name("rep3/conv1_1"), "conv1_1");
        assert_eq!(canonical_name("rep12/grad/fc6"), "grad/fc6");
        assert_eq!(canonical_name("conv.part2"), "conv.part#");
        assert_eq!(canonical_name("rep0/conv.part7"), "conv.part#");
        assert_eq!(canonical_name("conv.part0.part1"), "conv.part#.part#");
        // names that merely resemble the patterns are left alone
        assert_eq!(canonical_name("repository/x"), "repository/x");
        assert_eq!(canonical_name("agg/apply/w"), "agg/apply/w");
        assert_eq!(canonical_name("conv.partial"), "conv.partial");
    }

    #[test]
    fn replicas_share_cost_entries() {
        let mut m = CompCostModel::new();
        m.observe("rep0/conv", D0, 2.0);
        assert_eq!(m.get("rep1/conv", D0), Some(2.0));
        assert_eq!(m.max_time("rep7/conv"), Some(2.0));
    }

    #[test]
    fn coverage_check() {
        use fastt_graph::{Graph, OpKind, Operation};
        let mut g = Graph::new();
        g.add_op(Operation::new("a", OpKind::Relu, [1])).unwrap();
        g.add_op(Operation::new("b", OpKind::Relu, [1])).unwrap();
        let mut m = CompCostModel::new();
        m.observe("a", D0, 1.0);
        assert!(!m.covers(&g));
        m.observe("b", D1, 1.0);
        assert!(m.covers(&g));
    }
}
