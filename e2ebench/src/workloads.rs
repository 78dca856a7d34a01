//! The four seeded workloads. Each pass builds its inputs from the seed
//! (timed as set-up), runs them one after another (a closed loop: the next
//! session, job stream or fault scenario starts when the previous one has
//! finished), checks the outputs and records work counters.

use crate::checks;
use crate::trace::Tracer;
use fastt::{
    data_parallel_plan, data_parallel_plan_on, seeded_workload, ClusterManager, FleetReport, Plan,
    SessionConfig, TrainingSession,
};
use fastt_bench::{dp_ps_for, per_replica_batch, MEASURE_ITERS};
use fastt_cluster::{Allocation, AllocationId, DeviceId, Topology};
use fastt_graph::{build_training_graph, replicate_grouped, Graph, ReplicationMode};
use fastt_models::{stacked_transformer, Model};
use fastt_sim::{FaultSchedule, HardwarePerf, SeedStream, SimConfig};
use fastt_telemetry::Collector;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// The workloads, by the names `BENCHMARK.json` uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// The nine Table-1 models on one 4-GPU server, splitting on.
    PaperModels,
    /// A 64-layer stacked Transformer on 2x2 with splitting off.
    DeepStack,
    /// Seeded multi-tenant job streams on 2x4 sharing one plan cache.
    Fleet,
    /// Three models on 2x2 under seeded device, network and churn faults.
    Chaos,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::PaperModels,
        Workload::DeepStack,
        Workload::Fleet,
        Workload::Chaos,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::PaperModels => "paper_models",
            Workload::DeepStack => "deep_stack",
            Workload::Fleet => "fleet",
            Workload::Chaos => "chaos",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Job streams per fleet pass: `seeded_workload` streams 0..8.
const FLEET_STREAMS: u64 = 8;
/// `train_normal(iters, reprofile_every)` of every chaos scenario.
const CHAOS_TRAIN: (u32, u32) = (60, 5);

/// Everything one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall-clock of input construction plus session/manager construction.
    pub setup_s: f64,
    /// Wall-clock of the workload's calls after set-up (see README).
    pub pretrain_s: f64,
    /// Simulated samples/s delivered, one per session, job or scenario.
    pub speeds: Vec<f64>,
    /// Simulated DP iteration time over delivered iteration time.
    pub dp_speedups: Vec<f64>,
    /// Workload-specific figures for the summary lines.
    pub figures: BTreeMap<&'static str, f64>,
    /// Deterministic work counters.
    pub counters: BTreeMap<&'static str, u64>,
    /// Bit patterns of every simulated output, for the repeat check.
    pub simulated: Vec<u64>,
    /// Calls made (session, job stream or scenario runs).
    pub attempted: u64,
    /// One line per failed call or failed output check.
    pub failures: Vec<String>,
}

impl Pass {
    fn count(&mut self, name: &'static str, n: u64) {
        *self.counters.entry(name).or_insert(0) += n;
    }

    fn fail(&mut self, unit: &str, what: impl std::fmt::Display) {
        self.failures.push(format!("{unit}: {what}"));
    }
}

/// One session unit: its inputs and, after set-up, the session itself.
pub struct SessionUnit {
    pub label: String,
    /// Builds the unit's training graph at a batch size.
    pub build: GraphBuilder,
    /// The batch `raw` was built with: per replica when the session starts
    /// data-parallel, else the whole batch.
    pub batch: u64,
    pub raw: Graph,
    pub session: TrainingSession,
    /// The graph the session plans from (its start plan's graph).
    pub base: Graph,
    /// Noise seed of the adopted plan's measurement.
    pub measure_seed: u64,
    /// The cluster the session was created on.
    pub topo: Topology,
    pub config: SessionConfig,
}

/// Builds a training graph at a batch size.
pub type GraphBuilder = Box<dyn Fn(u64) -> Graph>;

/// The sessions of one pass, built from the seed, with the set-up
/// wall-clock: graph construction plus `TrainingSession::new`.
pub fn build_sessions(
    w: Workload,
    seed: u64,
    collector: Option<&Arc<Collector>>,
) -> Result<(Vec<SessionUnit>, f64), String> {
    let mut units = Vec::new();
    let mut setup = 0.0;
    for spec in session_specs(w, seed) {
        let t0 = Instant::now();
        let new_session = |raw: &Graph| {
            TrainingSession::new(
                raw,
                spec.topo.clone(),
                HardwarePerf::new(),
                spec.config.clone(),
            )
            .map_err(|e| format!("{}: TrainingSession::new: {e}", spec.label))
        };
        let mut raw = (spec.build)(spec.batch);
        let mut batch = spec.batch;
        let mut session = new_session(&raw)?;
        if !session.started_data_parallel() && spec.global_batch != spec.batch {
            // Table 1's rule: without DP, FastT deploys the whole-batch DAG.
            batch = spec.global_batch;
            raw = (spec.build)(batch);
            session = new_session(&raw)?;
        }
        setup += t0.elapsed().as_secs_f64();
        if let Some(col) = collector {
            session.attach_collector(col.clone());
        }
        units.push(SessionUnit {
            label: spec.label,
            build: spec.build,
            batch,
            base: session.current_plan().graph.clone(),
            raw,
            session,
            measure_seed: spec.measure_seed,
            topo: spec.topo,
            config: spec.config,
        });
    }
    Ok((units, setup))
}

struct SessionSpec {
    label: String,
    build: GraphBuilder,
    batch: u64,
    /// The batch deployed when data parallelism does not fit.
    global_batch: u64,
    topo: Topology,
    config: SessionConfig,
    /// Noise seed of the adopted plan's measurement, drawn from the run seed.
    measure_seed: u64,
}

fn model_spec(model: Model, topo: Topology, config: SessionConfig) -> SessionSpec {
    let n = topo.gpu_count() as u32;
    let batch = per_replica_batch(model, model.paper_batch(), n);
    SessionSpec {
        label: model.name().to_string(),
        build: Box::new(move |b| model.training_graph(b)),
        batch,
        global_batch: batch * n as u64,
        topo,
        config: SessionConfig {
            dp_ps: dp_ps_for(model),
            ..config
        },
        measure_seed: 0,
    }
}

/// The session inputs of a session workload, in run order. Every session
/// uses the default configuration's noise stream, so a session does the
/// same planning work under every run seed; the seed rotates the order the
/// sessions run in and draws the noise of each adopted plan's measurement.
fn session_specs(w: Workload, seed: u64) -> Vec<SessionSpec> {
    let mut specs: Vec<SessionSpec> = match w {
        Workload::PaperModels => Model::all()
            .into_iter()
            .map(|m| model_spec(m, Topology::single_server(4), SessionConfig::default()))
            .collect(),
        Workload::DeepStack => vec![SessionSpec {
            label: "stack64".to_string(),
            build: Box::new(deep_stack_graph),
            batch: 64,
            global_batch: 64,
            topo: Topology::multi_server(2, 2),
            config: SessionConfig {
                enable_split: false,
                ..SessionConfig::default()
            },
            measure_seed: 0,
        }],
        Workload::Chaos => {
            // Nine fixed fault scenarios, one schedule seed each.
            let models = [Model::AlexNet, Model::InceptionV3, Model::Gnmt4];
            let kinds = ["device", "network", "churn"];
            models
                .into_iter()
                .flat_map(|m| kinds.map(|k| (m, k)))
                .enumerate()
                .map(|(scenario, (model, kind))| {
                    let s = scenario as u64;
                    let faults = match kind {
                        "device" => FaultSchedule::seeded(s, 4, 60, true),
                        "network" => FaultSchedule::seeded_network(s, 4, 2, 40),
                        _ => FaultSchedule::seeded_churn(s, 4, 2, 60),
                    };
                    let config = SessionConfig {
                        faults: Some(Arc::new(faults)),
                        ..SessionConfig::default()
                    };
                    let mut spec = model_spec(model, Topology::multi_server(2, 2), config);
                    spec.label = format!("{}/{kind}", model.name());
                    spec
                })
                .collect()
        }
        Workload::Fleet => Vec::new(),
    };
    for (i, spec) in specs.iter_mut().enumerate() {
        spec.measure_seed = SeedStream::new(seed).subseed(100 + i as u64);
    }
    let shift = SeedStream::new(seed).pick(1, specs.len() as u64);
    specs.rotate_left(shift as usize);
    specs
}

/// The `deep_stack` graph: 64 stacked Transformer layers (3341 ops).
pub fn deep_stack_graph(batch: u64) -> Graph {
    build_training_graph(&stacked_transformer(batch, 64)).expect("stacked transformer trains")
}

/// Samples one iteration of a graph built at `batch` trains: the batch
/// times the data-parallel replicas the graph holds (ops named `repN/`,
/// the replication rule the session itself counts replicas by).
fn samples_per_iteration(batch: u64, graph: &Graph) -> u64 {
    let replicas = graph
        .op_ids()
        .filter_map(|id| {
            let rest = graph.op_ref(id).name.strip_prefix("rep")?;
            rest.split_once('/')?.0.parse::<u64>().ok()
        })
        .max()
        .map_or(1, |n| n + 1);
    batch * replicas
}

/// Mean simulated iteration time of `plan` over `MEASURE_ITERS`
/// iterations with 2% execution-time noise drawn from `seed`, as the
/// paper experiments measure; `None` when it does not run (e.g. OOM).
fn measure(plan: &Plan, topo: &Topology, seed: u64) -> Option<f64> {
    let hw = HardwarePerf::new();
    let mut total = 0.0;
    for iteration in 0..MEASURE_ITERS as u64 {
        let cfg = SimConfig {
            jitter_pct: 0.02,
            seed,
            iteration,
            ..SimConfig::default()
        };
        total += plan.simulate(topo, &hw, &cfg).ok()?.makespan;
    }
    Some(total / MEASURE_ITERS as f64)
}

/// Measured iteration time of the data-parallel baseline: replicas over
/// every GPU of `topo`, parameter server per model family.
fn dp_baseline(raw: &Graph, topo: &Topology, ps: Option<DeviceId>, seed: u64) -> Option<f64> {
    let groups: Vec<u16> = topo.gpu_ids().map(|d| topo.server_of(d)).collect();
    let rep = replicate_grouped(raw, &groups, ReplicationMode::ParameterServer).ok()?;
    let plan = match ps {
        Some(d) => data_parallel_plan_on(&rep, topo, d),
        None => data_parallel_plan(&rep, topo),
    };
    measure(&plan, topo, seed)
}

/// Runs one pass of a workload. With a collector, sessions and fleets
/// report to it (the traced run); otherwise tracing is off. The finished
/// session units are returned for the per-layer timings.
pub fn run_pass(
    w: Workload,
    seed: u64,
    collector: Option<&Arc<Collector>>,
    tracer: &mut Tracer,
) -> (Pass, Vec<SessionUnit>) {
    match w {
        Workload::Fleet => (fleet_pass(seed, collector, tracer), Vec::new()),
        _ => session_pass(w, seed, collector, tracer),
    }
}

/// Set-up alone (inputs, sessions or managers and submissions), timed.
pub fn setup_only(w: Workload, seed: u64) -> Result<f64, String> {
    match w {
        Workload::Fleet => {
            let t0 = Instant::now();
            let named = fleet_named_templates();
            for (stream, noise) in fleet_streams(seed) {
                let mut fleet = ClusterManager::new(fleet_topology(), HardwarePerf::new(), noise);
                for job in seeded_workload(stream, &named, fleet_topology().gpu_count()) {
                    fleet.submit(job);
                }
            }
            Ok(t0.elapsed().as_secs_f64())
        }
        _ => build_sessions(w, seed, None).map(|(_, s)| s),
    }
}

fn session_pass(
    w: Workload,
    seed: u64,
    collector: Option<&Arc<Collector>>,
    tracer: &mut Tracer,
) -> (Pass, Vec<SessionUnit>) {
    let mut pass = Pass::default();
    let (mut units, setup) = match build_sessions(w, seed, collector) {
        Ok(u) => u,
        Err(e) => {
            pass.attempted = 1;
            pass.fail(w.name(), e);
            return (pass, Vec::new());
        }
    };
    pass.setup_s = setup;
    let mut goodputs = Vec::new();
    for unit in &mut units {
        pass.attempted += 1;
        let faulted = unit.config.faults.is_some();
        let t0 = Instant::now();
        let report = match unit.session.pre_train() {
            Ok(r) => r,
            Err(e) => {
                pass.fail(&unit.label, format_args!("pre_train: {e}"));
                continue;
            }
        };
        let t1 = Instant::now();
        tracer.record(&unit.label, "session.pre_train", t0, t1);
        pass.pretrain_s += (t1 - t0).as_secs_f64();
        pass.count("rounds", report.rounds as u64);
        pass.count("activations", report.activations as u64);
        pass.count("rollbacks", report.rollbacks as u64);
        pass.simulated.push(report.final_iter_time.to_bits());
        if faulted {
            let train = unit.session.train_normal(CHAOS_TRAIN.0, CHAOS_TRAIN.1);
            let t2 = Instant::now();
            tracer.record(&unit.label, "session.train_normal", t1, t2);
            match train {
                Ok(mean) => {
                    let train_s = (t2 - t1).as_secs_f64();
                    pass.pretrain_s += train_s;
                    *pass.figures.entry("chaos_train_s").or_insert(0.0) += train_s;
                    pass.simulated.push(mean.to_bits());
                    let samples = samples_per_iteration(unit.batch, &unit.base);
                    goodputs.push(samples as f64 / mean);
                }
                Err(e) => {
                    pass.fail(&unit.label, format_args!("train_normal: {e}"));
                    continue;
                }
            }
            pass.count("recovery_events", unit.session.recovery_log().len() as u64);
        }
        let plan = unit.session.current_plan();
        pass.count("ops_placed", plan.graph.op_count() as u64);
        pass.count("splits", plan.splits.len() as u64);
        let cache = unit.session.plan_cache();
        pass.count("cache_hits", cache.hits());
        pass.count("cache_misses", cache.misses());
        pass.count("region_hits", cache.region_hits());
        pass.count("region_misses", cache.region_misses());
        let reported = (!faulted).then_some(report.final_iter_time);
        match checks::check_session(&unit.session, &unit.config, reported) {
            Ok(records) => pass.count("sim_trace_records", records),
            Err(e) => {
                pass.fail(&unit.label, e);
                continue;
            }
        }
        let Some(iter) = measure(plan, unit.session.topology(), unit.measure_seed) else {
            pass.fail(&unit.label, "the adopted plan does not run");
            continue;
        };
        pass.simulated.push(iter.to_bits());
        pass.speeds
            .push(samples_per_iteration(unit.batch, &plan.graph) as f64 / iter);
        if unit.session.started_data_parallel() {
            if let Some(dp) =
                dp_baseline(&unit.raw, &unit.topo, unit.config.dp_ps, unit.measure_seed)
            {
                pass.simulated.push(dp.to_bits());
                pass.dp_speedups.push(dp / iter);
            }
        }
    }
    if w == Workload::Chaos {
        let goodput = crate::stats::geomean(&goodputs);
        pass.figures.insert("chaos_goodput_samples_per_s", goodput);
    }
    (pass, units)
}

/// The fleet's model templates at per-GPU batch on the 8-GPU cluster.
pub fn fleet_templates() -> Vec<(Model, u64, String, Graph)> {
    [
        Model::AlexNet,
        Model::Rnnlm,
        Model::Transformer,
        Model::InceptionV3,
    ]
    .into_iter()
    .map(|m| {
        let b = per_replica_batch(m, m.paper_batch(), 8);
        let name = format!("{}{b}", m.name().to_lowercase().replace(['-', '_'], ""));
        (m, b, name, m.training_graph(b))
    })
    .collect()
}

/// The shared cluster of the fleet workload.
pub fn fleet_topology() -> Topology {
    Topology::multi_server(2, 4)
}

/// The job streams of one fleet pass: `(stream, manager seed)`. The
/// streams are fixed; the run seed picks each manager's noise stream.
pub fn fleet_streams(seed: u64) -> Vec<(u64, u64)> {
    (0..FLEET_STREAMS)
        .map(|i| (i, SeedStream::new(seed).subseed(3000 + i)))
        .collect()
}

/// The templates as `seeded_workload` takes them.
fn fleet_named_templates() -> Vec<(String, Graph)> {
    fleet_templates()
        .into_iter()
        .map(|(_, _, n, g)| (n, g))
        .collect()
}

fn fleet_pass(seed: u64, collector: Option<&Arc<Collector>>, tracer: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let t0 = Instant::now();
    let templates = fleet_templates();
    let named: Vec<(String, Graph)> = templates
        .iter()
        .map(|(_, _, n, g)| (n.clone(), g.clone()))
        .collect();
    pass.setup_s += t0.elapsed().as_secs_f64();
    let total = fleet_topology().gpu_count();
    let mut dp_cache: BTreeMap<(usize, usize), Option<f64>> = BTreeMap::new();
    let (mut events, mut run_s) = (0u64, 0.0);
    let (mut waits, mut iters, mut util) = (Vec::new(), Vec::new(), Vec::new());
    for (stream, noise) in fleet_streams(seed) {
        pass.attempted += 1;
        let t1 = Instant::now();
        let mut fleet = ClusterManager::new(fleet_topology(), HardwarePerf::new(), noise);
        if let Some(col) = collector {
            fleet = fleet.with_collector(col.clone());
        }
        let jobs = seeded_workload(stream, &named, total);
        // (job, GPUs requested, template index) of every submitted job.
        let specs: Vec<(String, usize, Option<usize>)> = jobs
            .iter()
            .map(|j| {
                let h = j.graph.structure_hash();
                let tpl = templates.iter().position(|t| t.3.structure_hash() == h);
                (j.name.clone(), j.gpus, tpl)
            })
            .collect();
        for job in jobs {
            fleet.submit(job);
        }
        pass.setup_s += t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        let report = fleet.run();
        let dt = t2.elapsed().as_secs_f64();
        tracer.record(&format!("stream{stream}"), "fleet.run", t2, Instant::now());
        let report = match report {
            Ok(r) => r,
            Err(e) => {
                pass.fail("fleet", format_args!("run: {e}"));
                continue;
            }
        };
        run_s += dt;
        if let Err(e) = checks::check_fleet(&report, specs.len()) {
            pass.fail("fleet", e);
            continue;
        }
        events += report.events.len() as u64;
        pass.count("fleet_events", report.events.len() as u64);
        pass.count("fleet_ticks", report.ticks);
        pass.count("preemptions", report.preemptions);
        pass.count("cache_hits", report.cache_hits);
        pass.count("cache_misses", report.cache_misses);
        pass.count("region_hits", fleet.plan_cache().region_hits());
        pass.count("region_misses", fleet.plan_cache().region_misses());
        pass.simulated.push(fleet_log_hash(&report));
        for job in &report.jobs {
            waits.push(job.queue_wait as f64);
            iters.push(job.mean_iter_time * 1e3);
            pass.simulated.push(job.mean_iter_time.to_bits());
            let Some(&(_, gpus, Some(tpl))) = specs.iter().find(|s| s.0 == job.name) else {
                pass.fail(
                    "fleet",
                    format_args!("job {} matches no template", job.name),
                );
                continue;
            };
            let (model, batch, _, graph) = &templates[tpl];
            pass.speeds
                .push((batch * gpus as u64) as f64 / job.mean_iter_time);
            let dp = *dp_cache.entry((tpl, gpus)).or_insert_with(|| {
                let members: Vec<DeviceId> = (0..gpus as u16).map(DeviceId).collect();
                let view = Allocation::new(AllocationId(0), &fleet_topology(), &members);
                dp_baseline(graph, view.topo(), dp_ps_for(*model), seed)
            });
            if let Some(dp) = dp {
                pass.dp_speedups.push(dp / job.mean_iter_time);
            }
        }
        util.push(report.mean_utilization());
    }
    pass.pretrain_s = run_s;
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let figures = [
        ("fleet_decisions_per_s", events as f64 / run_s.max(1e-9)),
        ("fleet_queue_wait_ticks", mean(&waits)),
        ("fleet_utilization", mean(&util)),
        ("fleet_mean_iter_ms", mean(&iters)),
    ];
    pass.figures.extend(figures);
    pass
}

/// FNV-1a over the rendered decision log: equal logs give equal hashes.
fn fleet_log_hash(report: &FleetReport) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in report.event_log().bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}
