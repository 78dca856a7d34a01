//! # fastt-bench
//!
//! Benchmark harness reproducing every table and figure of the FastT paper's
//! evaluation (Sec. 6). Each function in [`experiments`] returns its rows as
//! a [`Table`]; the `repro` binary runs them all and renders every table as
//! Markdown. This library holds the shared experiment drivers.
//!
//! Scaling modes follow Sec. 6.2: **strong** scaling keeps the global batch
//! fixed as GPUs are added (each replica gets `global / n`); **weak** scaling
//! fixes the per-GPU batch (the global batch grows with `n`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use fastt::{
    data_parallel_plan, data_parallel_plan_on, Plan, PreTrainReport, SessionConfig, TrainingSession,
};
use fastt_cluster::{DeviceId, Topology};
use fastt_graph::{replicate_grouped, ReplicatedGraph, ReplicationMode};
use fastt_models::Model;
use fastt_sim::{HardwarePerf, SimConfig, SimError};

/// The multi-GPU settings of Table 1 (strong scaling) as `(label, servers,
/// gpus_per_server)`: 2/4/8 GPUs on one server plus 8 GPUs over two servers.
pub const STRONG_SCALING: [(&str, u16, u16); 4] = [
    ("2GPUs", 1, 2),
    ("4GPUs", 1, 4),
    ("8GPUs", 1, 8),
    ("8GPUs(2srv)", 2, 4),
];

/// The multi-GPU settings of Table 2 (weak scaling) as `(label, servers,
/// gpus_per_server)`: up to 16 GPUs over two servers.
pub const WEAK_SCALING: [(&str, u16, u16); 4] = [
    ("2GPUs", 1, 2),
    ("4GPUs", 1, 4),
    ("8GPUs", 1, 8),
    ("16GPUs(2srv)", 2, 8),
];

/// Where the DP baseline keeps its shared variables for a model family:
/// TF-slim (the CNN benchmarks) defaults to the CPU host; the NMT/attention
/// baselines keep variables on GPU 0.
pub fn dp_ps_for(model: Model) -> Option<DeviceId> {
    if model.is_cnn() {
        None // slim default: CPU host
    } else {
        Some(DeviceId(0))
    }
}

/// Number of measurement iterations (after the paper's warm-up idea,
/// shrunk from 500 to keep the harness fast — the simulator's jitter is
/// only ±2%).
pub const MEASURE_ITERS: u32 = 5;

/// Result of one measured configuration.
#[derive(Debug, Clone)]
pub struct Measurement {
    /// Average per-iteration time in seconds.
    pub iter_time: f64,
    /// Training speed in samples/second at the *global* batch size.
    pub samples_per_sec: f64,
}

/// Runs the DP baseline: per-replica graphs at `per_replica_batch`,
/// replicated over all GPUs of `topo`, PS placement per model family.
///
/// # Errors
///
/// Propagates simulator errors — an `Err(Oom)` here is the paper's "OOM"
/// table entry.
pub fn run_dp(
    model: Model,
    topo: &Topology,
    per_replica_batch: u64,
) -> Result<Measurement, SimError> {
    let n = topo.gpu_count() as u32;
    let graph = model.training_graph(per_replica_batch);
    let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
    let rep = replicate_grouped(&graph, &groups, ReplicationMode::ParameterServer)
        .expect("model graphs replicate");
    let plan = dp_plan(model, &rep, topo);
    let mut total = 0.0;
    for it in 0..MEASURE_ITERS {
        let cfg = SimConfig {
            jitter_pct: 0.02,
            iteration: it as u64,
            ..SimConfig::default()
        };
        total += plan.simulate(topo, &HardwarePerf::new(), &cfg)?.makespan;
    }
    let iter_time = total / MEASURE_ITERS as f64;
    Ok(Measurement {
        iter_time,
        samples_per_sec: (per_replica_batch * n as u64) as f64 / iter_time,
    })
}

/// Result of a FastT run: the measurement plus the session artifacts
/// (consumed by the analysis experiments).
pub struct FastTRun {
    /// Speed measurement at the global batch size.
    pub measurement: Measurement,
    /// The pre-training report (strategy-calculation time, rollbacks, …).
    pub report: PreTrainReport,
    /// The finished session (owning the final plan and cost models).
    pub session: TrainingSession,
}

/// Runs the full FastT workflow on a model.
///
/// `per_replica_batch` is the batch the model graph is built with; when the
/// model fits, FastT starts from the DP-replicated graph, so the global batch
/// is `per_replica_batch × gpus` — matching how [`run_dp`] is driven.
///
/// # Errors
///
/// Returns an error when no start strategy fits in memory.
pub fn run_fastt(
    model: Model,
    topo: &Topology,
    per_replica_batch: u64,
    global_batch: u64,
) -> Result<FastTRun, fastt::FastTError> {
    let graph = model.training_graph(per_replica_batch);
    let config = SessionConfig {
        dp_ps: dp_ps_for(model),
        ..SessionConfig::default()
    };
    let mut session =
        TrainingSession::new(&graph, topo.clone(), HardwarePerf::new(), config.clone())?;
    if !session.started_data_parallel() && per_replica_batch != global_batch {
        // Data parallelism cannot host this model, so the paper's rule
        // applies: FastT deploys the *whole-batch* model DAG (Sec. 5.2) —
        // rebuild at the global batch so the reported speed is honest.
        let graph = model.training_graph(global_batch);
        session = TrainingSession::new(&graph, topo.clone(), HardwarePerf::new(), config)?;
    }
    let report = session.pre_train()?;
    let iter_time = report.final_iter_time;
    Ok(FastTRun {
        measurement: Measurement {
            iter_time,
            samples_per_sec: global_batch as f64 / iter_time,
        },
        report,
        session,
    })
}

/// Splits a global batch across `n` replicas, clamping at the model's
/// minimum buildable batch (strong scaling at high GPU counts).
pub fn per_replica_batch(model: Model, global: u64, n: u32) -> u64 {
    (global / n as u64).max(model.min_batch())
}

/// The DP baseline's plan for a replicated `model` graph, with the
/// parameter server where [`dp_ps_for`] keeps it.
pub fn dp_plan(model: Model, rep: &ReplicatedGraph, topo: &Topology) -> Plan {
    match dp_ps_for(model) {
        Some(d) => data_parallel_plan_on(rep, topo, d),
        None => data_parallel_plan(rep, topo),
    }
}

/// One cell of a [`Table`].
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A number printed with the given count of decimals.
    Num(f64, usize),
    /// A percentage printed with the given count of decimals.
    Pct(f64, usize),
    /// Free text.
    Text(String),
    /// The configuration does not fit in device memory.
    Oom,
    /// The configuration failed for another reason.
    Err,
}

impl Cell {
    fn render(&self, width: usize) -> String {
        match self {
            Cell::Num(v, prec) => format!("{v:>width$.prec$}"),
            Cell::Pct(v, prec) => format!("{v:.prec$}%"),
            Cell::Text(s) => s.clone(),
            Cell::Oom => format!("{:>width$}", "OOM"),
            Cell::Err => format!("{:>width$}", "ERR"),
        }
    }
}

/// One table or figure series of the evaluation, as data.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    /// Heading, e.g. `"Table 3: Bert-large per-iteration time (s) vs global batch"`.
    pub title: String,
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows, one cell per column.
    pub rows: Vec<Vec<Cell>>,
    /// Width that [`Cell::Num`], [`Cell::Oom`] and [`Cell::Err`] cells are
    /// right-aligned to (0: no padding).
    pub num_width: usize,
    /// Lines printed after the rows.
    pub notes: Vec<String>,
}

impl Table {
    /// An empty table with the given heading and column headers.
    pub fn new<S: ToString>(title: impl Into<String>, columns: &[S]) -> Self {
        Table {
            title: title.into(),
            columns: columns.iter().map(S::to_string).collect(),
            rows: Vec::new(),
            num_width: 0,
            notes: Vec::new(),
        }
    }

    /// The number in `row` under the header `column`, if that cell is one.
    pub fn num(&self, row: usize, column: &str) -> Option<f64> {
        let col = self.columns.iter().position(|c| c == column)?;
        match self.rows[row][col] {
            Cell::Num(v, _) => Some(v),
            _ => None,
        }
    }

    /// Renders the table as Markdown: a `##` heading, the rows, then the
    /// notes after a blank line.
    pub fn render(&self) -> String {
        let mut out = format!(
            "## {}\n\n| {} |\n|{}|\n",
            self.title,
            self.columns.join(" | "),
            vec!["---"; self.columns.len()].join("|")
        );
        for row in &self.rows {
            let cells: Vec<String> = row.iter().map(|c| c.render(self.num_width)).collect();
            out += &format!("| {} |\n", cells.join(" | "));
        }
        if !self.notes.is_empty() {
            out += &format!("\n{}\n", self.notes.join("\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn settings_cover_the_papers_columns() {
        let (_, servers, gpus_per_server) = STRONG_SCALING[3];
        assert_eq!((servers, servers * gpus_per_server), (2, 8));
        let (_, servers, gpus_per_server) = WEAK_SCALING[3];
        assert_eq!((servers, servers * gpus_per_server), (2, 16));
    }

    #[test]
    fn per_replica_batch_clamps() {
        assert_eq!(per_replica_batch(Model::Vgg19, 64, 4), 16);
        assert_eq!(per_replica_batch(Model::Transformer, 4096, 8), 512);
        // transformer needs at least one 64-token sequence per replica
        assert_eq!(per_replica_batch(Model::Transformer, 64, 8), 64);
    }

    #[test]
    fn dp_runs_on_small_model() {
        let topo = Topology::single_server(2);
        let m = run_dp(Model::LeNet, &topo, 32).unwrap();
        assert!(m.iter_time > 0.0);
        assert!(m.samples_per_sec > 0.0);
    }

    #[test]
    fn fastt_beats_or_matches_dp_on_lenet() {
        let topo = Topology::single_server(2);
        let dp = run_dp(Model::LeNet, &topo, 32).unwrap();
        let ft = run_fastt(Model::LeNet, &topo, 32, 64).unwrap();
        assert!(
            ft.measurement.iter_time <= dp.iter_time * 1.05,
            "FastT {} vs DP {}",
            ft.measurement.iter_time,
            dp.iter_time
        );
    }

    #[test]
    fn ps_family_rule() {
        assert_eq!(dp_ps_for(Model::Vgg19), None);
        assert_eq!(dp_ps_for(Model::BertLarge), Some(DeviceId(0)));
    }
}

pub mod experiments;
