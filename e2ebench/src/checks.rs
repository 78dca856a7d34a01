//! Output checks. A check that fails is a failed call: it counts in
//! `failed`, makes `correct` false and the run exit non-zero.

use fastt::{FleetEvent, FleetReport, SessionConfig, TrainingSession};
use fastt_sim::{CommPlan, HardwarePerf, RunTrace, SimConfig};

/// Checks a session's adopted plan: the placement is valid for its graph
/// on the session's topology, its communication lowers and validates, and
/// (for fault-free sessions) re-simulating the last profiled iterations
/// reproduces the iteration time the session reported.
///
/// Returns the trace records (ops, transfers, collectives) of the
/// re-simulated iterations.
pub fn check_session(
    session: &TrainingSession,
    config: &SessionConfig,
    reported: Option<f64>,
) -> Result<u64, String> {
    let plan = session.current_plan();
    let topo = session.topology();
    plan.placement
        .validate(&plan.graph, topo)
        .map_err(|e| format!("placement invalid: {e}"))?;
    let iteration = session.iterations_run();
    CommPlan::lower(&plan.graph, &plan.placement, topo)
        .and_then(|c| c.validate(topo, iteration))
        .map_err(|e| format!("comm plan invalid: {e}"))?;
    let hw = HardwarePerf::new();
    let sim = |iteration: u64| -> Result<RunTrace, String> {
        let cfg = SimConfig {
            jitter_pct: config.jitter_pct,
            seed: config.seed,
            iteration,
            ..SimConfig::default()
        };
        plan.simulate(topo, &hw, &cfg)
            .map_err(|e| format!("re-simulation failed: {e}"))
    };
    let Some(reported) = reported else {
        let t = sim(iteration)?;
        return Ok(records(&t));
    };
    // pre_train's final figure is the mean of the last `profile_iters`
    // iterations, all of them run on the adopted plan.
    let n = config.profile_iters as u64;
    let mut total = 0.0;
    let mut recs = 0;
    for it in iteration - n..iteration {
        let t = sim(it)?;
        total += t.makespan;
        recs += records(&t);
    }
    let mean = total / n as f64;
    if (mean - reported).abs() > 1e-9 * reported.abs() {
        return Err(format!(
            "re-simulated iteration {mean:.9}s differs from reported {reported:.9}s"
        ));
    }
    Ok(recs)
}

fn records(t: &RunTrace) -> u64 {
    (t.op_records.len() + t.transfers.len() + t.collectives.len()) as u64
}

/// Checks a fleet run: no scheduling deadlock, no rejected job, and every
/// submitted job departed.
pub fn check_fleet(report: &FleetReport, submitted: usize) -> Result<(), String> {
    if report.deadlocks > 0 {
        return Err(format!("{} scheduling deadlocks", report.deadlocks));
    }
    if let Some(FleetEvent::Rejected { job, reason, .. }) = report
        .events
        .iter()
        .find(|e| matches!(e, FleetEvent::Rejected { .. }))
    {
        return Err(format!("job {job} rejected: {reason}"));
    }
    if report.jobs.len() != submitted {
        return Err(format!(
            "{} of {submitted} jobs departed",
            report.jobs.len()
        ));
    }
    Ok(())
}
