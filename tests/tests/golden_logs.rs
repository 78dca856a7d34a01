//! Golden recovery and fleet logs for the seed-21 LeNet scenarios that CI's
//! `report` smokes run. The same-seed tests elsewhere compare two runs of
//! one build; these pin the logs across builds, so a change to planning or
//! recovery that moves a single event shows up as a diff against
//! `tests/golden/`.
//!
//! Each scenario mirrors `report lenet <topo> <dir> <mode>:21`. A change
//! that moves a log on purpose copies the printed `--- got ---` block into
//! `tests/golden/<name>.txt` and says why the log moved.

use fastt::fleet::{seeded_workload, ClusterManager};
use fastt::{SessionConfig, TrainingSession};
use fastt_cluster::Topology;
use fastt_models::Model;
use fastt_sim::{FaultSchedule, HardwarePerf};
use std::path::PathBuf;
use std::sync::Arc;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{name}.txt"))
}

/// Compares `got` with the committed golden file.
fn check_golden(name: &str, got: &str) {
    let path = golden_path(name);
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert!(
        got == want,
        "{name}: log differs from {}\n--- got ---\n{got}--- want ---\n{want}",
        path.display()
    );
}

/// LeNet at the paper batch split over four GPUs, as `report` sizes it.
fn lenet_graph(gpus: u64) -> fastt_graph::Graph {
    let m = Model::LeNet;
    m.training_graph((m.paper_batch() / gpus).max(m.min_batch()))
}

/// One recovery-log line per event, in `{:?}` form.
fn session_log(topo: Topology, faults: FaultSchedule, iters: u32) -> String {
    let graph = lenet_graph(topo.gpu_count() as u64);
    let config = SessionConfig {
        faults: Some(Arc::new(faults)),
        ..SessionConfig::default()
    };
    let mut s = TrainingSession::new(&graph, topo, HardwarePerf::new(), config).unwrap();
    s.pre_train().unwrap();
    s.train_normal(iters, 5).unwrap();
    let log = s.recovery_log();
    assert!(!log.is_empty(), "the scenario must exercise recovery");
    log.iter().map(|e| format!("{e:?}\n")).collect()
}

#[test]
fn chaos_recovery_log_matches_golden() {
    let log = session_log(
        Topology::single_server(4),
        FaultSchedule::seeded(21, 4, 60, true),
        40,
    );
    check_golden("chaos", &log);
}

#[test]
fn netchaos_recovery_log_matches_golden() {
    let log = session_log(
        Topology::multi_server(2, 2),
        FaultSchedule::seeded_network(21, 4, 2, 40),
        40,
    );
    check_golden("netchaos", &log);
}

#[test]
fn elastic_recovery_log_matches_golden() {
    let log = session_log(
        Topology::multi_server(2, 2),
        FaultSchedule::seeded_churn(21, 4, 2, 60),
        60,
    );
    check_golden("elastic", &log);
}

#[test]
fn fleet_event_log_matches_golden() {
    // `report`'s two templates on 8 GPUs: the per-replica batch and half
    let templates = vec![
        ("lenet32".to_string(), Model::LeNet.training_graph(32)),
        ("lenet16".to_string(), Model::LeNet.training_graph(16)),
    ];
    let mut fleet = ClusterManager::new(Topology::multi_server(2, 4), HardwarePerf::new(), 21);
    for spec in seeded_workload(21, &templates, 8) {
        fleet.submit(spec);
    }
    check_golden("fleet", &fleet.run().unwrap().event_log());
}
