//! The failure-recovery ladder: blacklisting, stranded-capacity drops,
//! and graceful degradation (re-plan → ring all-reduce → PS funnel →
//! model parallelism), all scoped to the session's allocation view.

use super::{LadderRung, RecoveryEvent, TrainingSession};
use crate::error::FastTError;
use crate::planner::{
    ranked, CandidateOutcome, DataParallelPlanner, HierarchicalPlanner, ModelParallelPlanner,
    PlannerKind, Portfolio,
};
use crate::strategy::Plan;
use fastt_cluster::DeviceId;
use fastt_sim::{SimConfig, SimError};
use fastt_telemetry::{jobj, Value};

impl TrainingSession {
    /// Restores `previous` as the active plan after a measured regression —
    /// unless a device failed while the candidate was being measured, in
    /// which case `previous` may reference blacklisted devices and the
    /// recovery plan installed by [`Self::replan_and_degrade`] stays active.
    pub(super) fn roll_back_to(&mut self, previous: Plan) {
        let stale = previous
            .placement
            .devices_used()
            .iter()
            .any(|d| self.alloc.topo().is_failed(*d));
        if !stale {
            self.current = previous;
        }
    }

    /// Re-planning (tentpole (b)): blacklists `device`, then rebuilds the
    /// plan over the surviving topology.
    pub(super) fn recover_from_failure(
        &mut self,
        device: DeviceId,
        iteration: u64,
    ) -> Result<(), FastTError> {
        self.alloc.topo_mut().fail_device(device);
        // Routes change when a device (especially a host) dies: rebind so
        // route-composed predictions stop staging through the corpse.
        self.cost.bind_topology(self.alloc.topo());
        self.alloc.health_mut().mark_failed(device);
        self.recovery_log
            .push(RecoveryEvent::DeviceFailed { device, iteration });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.device_failures");
        }
        if self.alloc.topo().gpu_count() == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        self.replan_and_degrade(iteration, "device_failed")
    }

    /// Re-planning for link death: a hop that flapped past the simulator's
    /// retry budget is blacklisted in both directions (the session treats a
    /// persistent flap exactly like a crashed device), GPUs the surviving
    /// wiring can no longer reach are dropped, and the plan is rebuilt —
    /// [`fastt_cluster::Topology::try_route`] steers the new plan's
    /// transfers around the corpse.
    pub(super) fn recover_from_link_failure(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
        iteration: u64,
    ) -> Result<(), FastTError> {
        self.alloc.topo_mut().fail_link(src, dst);
        self.alloc.topo_mut().fail_link(dst, src);
        self.alloc.health_mut().mark_link_failed(src, dst);
        self.alloc.health_mut().mark_link_failed(dst, src);
        // Routes change when a link dies: rebind so route-composed
        // predictions price the detour, not the dead hop.
        self.cost.bind_topology(self.alloc.topo());
        self.recovery_log.push(RecoveryEvent::LinkFailed {
            src,
            dst,
            iteration,
        });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.link_failures");
        }
        self.emit(
            "health.link_failed",
            jobj! {
                "src" => src.0 as u64,
                "dst" => dst.0 as u64,
                "iteration" => iteration,
            },
        );
        self.drop_stranded_gpus(iteration);
        if self.alloc.topo().gpu_count() == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        self.replan_and_degrade(iteration, "link_failed")
    }

    /// Re-planning for a host partition: from the survivors' point of view
    /// a partitioned server is indistinguishable from a crashed rack, so
    /// every device it hosts is blacklisted and the plan is rebuilt over
    /// the remaining servers.
    pub(super) fn recover_from_partition(
        &mut self,
        server: u16,
        iteration: u64,
    ) -> Result<(), FastTError> {
        self.recovery_log
            .push(RecoveryEvent::Partitioned { server, iteration });
        if let Some(col) = &self.collector {
            col.metrics().inc("session.partitions");
        }
        self.emit(
            "session.partition",
            jobj! {
                "server" => server as u64,
                "iteration" => iteration,
            },
        );
        let victims: Vec<DeviceId> = self
            .alloc
            .topo()
            .device_ids()
            .filter(|&d| {
                self.alloc.topo().server_of(d) == server && !self.alloc.topo().is_failed(d)
            })
            .collect();
        for d in victims {
            self.alloc.topo_mut().fail_device(d);
            self.alloc.health_mut().mark_failed(d);
            self.recovery_log.push(RecoveryEvent::DeviceFailed {
                device: d,
                iteration,
            });
        }
        self.cost.bind_topology(self.alloc.topo());
        if self.alloc.topo().gpu_count() == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        self.replan_and_degrade(iteration, "partition")
    }

    /// Re-planning when no live route exists between two placed devices:
    /// drops whatever the surviving wiring stranded (keeping the largest
    /// mutually-reachable GPU component) and re-plans; surfaces
    /// [`FastTError::ClusterExhausted`] when nothing plannable remains.
    pub(super) fn recover_from_unreachable(
        &mut self,
        src: DeviceId,
        dst: DeviceId,
    ) -> Result<(), FastTError> {
        let iteration = self.iteration;
        self.emit(
            "session.unreachable",
            jobj! {
                "src" => src.0 as u64,
                "dst" => dst.0 as u64,
                "iteration" => iteration,
            },
        );
        let dropped = self.drop_stranded_gpus(iteration);
        if dropped.is_empty() {
            // The unroutable endpoint is not a stranded GPU (e.g. a host
            // the plan still stages variables through): blacklist the
            // destination so the next plan routes around it.
            let victim = if self.alloc.topo().is_failed(dst) {
                src
            } else {
                dst
            };
            if self.alloc.topo().is_failed(victim) {
                return Err(FastTError::ClusterExhausted);
            }
            self.alloc.topo_mut().fail_device(victim);
            self.alloc.health_mut().mark_failed(victim);
            self.recovery_log.push(RecoveryEvent::DeviceFailed {
                device: victim,
                iteration,
            });
            self.cost.bind_topology(self.alloc.topo());
        }
        if self.alloc.topo().gpu_count() == 0 {
            return Err(FastTError::ClusterExhausted);
        }
        self.replan_and_degrade(iteration, "unreachable")
    }

    /// Blacklists every live GPU outside the largest mutually-reachable
    /// component (ties go to the component holding the lowest device id) —
    /// after link failures or partitions, stranded GPUs cannot participate
    /// in any plan. Returns the devices dropped, in id order.
    pub(super) fn drop_stranded_gpus(&mut self, iteration: u64) -> Vec<DeviceId> {
        let gpus: Vec<DeviceId> = self.alloc.topo().gpu_ids().collect();
        let n = gpus.len();
        let mut comp = vec![usize::MAX; n];
        let mut comps = 0usize;
        for i in 0..n {
            if comp[i] != usize::MAX {
                continue;
            }
            comp[i] = comps;
            let mut stack = vec![i];
            while let Some(u) = stack.pop() {
                for v in 0..n {
                    if comp[v] == usize::MAX
                        && self.alloc.topo().try_route(gpus[u], gpus[v]).is_some()
                        && self.alloc.topo().try_route(gpus[v], gpus[u]).is_some()
                    {
                        comp[v] = comps;
                        stack.push(v);
                    }
                }
            }
            comps += 1;
        }
        if comps <= 1 {
            return Vec::new();
        }
        let mut sizes = vec![0usize; comps];
        for &c in &comp {
            sizes[c] += 1;
        }
        // Largest component wins; ties go to the earliest component, which
        // holds the lowest GPU id since `gpus` is id-ordered.
        let keep = (0..comps)
            .max_by_key(|&c| (sizes[c], std::cmp::Reverse(c)))
            .unwrap_or(0);
        let mut dropped = Vec::new();
        for (i, d) in gpus.iter().enumerate() {
            if comp[i] != keep {
                self.alloc.topo_mut().fail_device(*d);
                self.alloc.health_mut().mark_failed(*d);
                self.recovery_log.push(RecoveryEvent::DeviceFailed {
                    device: *d,
                    iteration,
                });
                dropped.push(*d);
            }
        }
        if !dropped.is_empty() {
            self.cost.bind_topology(self.alloc.topo());
            self.emit(
                "session.stranded",
                jobj! {
                    "iteration" => iteration,
                    "dropped" => Value::arr(
                        dropped.iter().map(|d| d.0 as u64).collect::<Vec<_>>()
                    ),
                },
            );
        }
        dropped
    }

    /// Graceful degradation (tentpole (d)): recomputes a planner candidate
    /// over the current (possibly shrunken) topology, probes it against the
    /// start-strategy fallbacks — data parallelism when it still fits, else
    /// model parallelism (a single-device plan in the 1-GPU limit) — and
    /// adopts whichever *measures* fastest; choosing a fallback over the
    /// candidate is this path's rollback. [`ranked`] by probed time, the
    /// merged set keeps the ladder's preference order — re-plan, then ring
    /// all-reduce over the survivors, then the PS funnel, then model
    /// parallelism — on ties.
    pub(super) fn replan_and_degrade(
        &mut self,
        iteration: u64,
        reason: &'static str,
    ) -> Result<(), FastTError> {
        let survivors = self.alloc.topo().gpu_count();
        self.emit(
            "session.replan",
            jobj! {
                "iteration" => iteration,
                "reason" => reason,
                "survivors" => survivors as u64,
                "failed" => Value::arr(
                    self.alloc
                        .topo()
                        .failed_devices()
                        .iter()
                        .map(|d| d.0 as u64)
                        .collect::<Vec<_>>()
                ),
            },
        );
        if let Some(col) = &self.collector {
            col.metrics().inc("session.replans");
        }

        let probe = self.probe_config();
        let (mut merged, last_err) = self.plan_candidates_over_survivors(probe);
        let (plan, kind, probe_measured) = match ranked(&merged, |c| c.simulated).first() {
            Some(&i) => {
                let c = &mut merged[i];
                let kind = match c.kind {
                    PlannerKind::StartStrategy => c.planner,
                    _ => "replan",
                };
                (
                    c.plan.take().expect("probed plan"),
                    kind,
                    c.simulated.expect("probed time"),
                )
            }
            None => {
                // A plan that cannot be routed at all is not a planning
                // failure to retry — the cluster is out of usable wiring.
                return Err(match last_err {
                    Some(FastTError::Sim(SimError::Unreachable { .. })) => {
                        FastTError::ClusterExhausted
                    }
                    Some(e) => e,
                    None => FastTError::ClusterExhausted,
                });
            }
        };
        if kind != "replan" {
            if let Some(col) = &self.collector {
                col.metrics().inc("session.fallbacks");
                col.metrics().inc("session.degraded_mode");
            }
            self.emit(
                "session.fallback",
                jobj! {
                    "iteration" => iteration,
                    "kind" => kind,
                    "reason" => reason,
                    "measured" => probe_measured,
                },
            );
            // The ladder stepped below a fresh DPOS/OS-DPOS plan: the
            // session is in a degraded operating mode (shrunk ring, PS
            // funnel, or single-server fallback).
            self.emit(
                "session.degraded_mode",
                jobj! {
                    "iteration" => iteration,
                    "mode" => kind,
                    "reason" => reason,
                    "survivors" => survivors as u64,
                },
            );
            self.recovery_log.push(RecoveryEvent::Fallback { kind });
        }
        self.recovery_log
            .push(RecoveryEvent::Replanned { survivors, kind });
        self.rung = LadderRung::of_kind(kind);
        self.current = plan;
        self.measured = probe_measured;
        if let Some(col) = &self.collector {
            col.metrics().inc("session.recoveries");
        }
        self.emit(
            "session.recovered",
            jobj! {
                "iteration" => iteration,
                "kind" => kind,
                "survivors" => survivors as u64,
                "measured" => probe_measured,
            },
        );
        self.recovery_log
            .push(RecoveryEvent::Recovered { iteration });
        Ok(())
    }

    /// Plans the full candidate ladder over the current survivor set.
    /// Stage 1 probes both data-parallel modes — the ring all-reduce over
    /// whoever is live and the PS funnel — whose feasibility picks the
    /// base graph exactly as session construction does (Sec. 5.2's rule).
    /// Stage 2 adds the fresh DPOS/OS-DPOS candidate, plus model
    /// parallelism as the last resort when DP no longer fits. Returns the
    /// merged candidates in ladder-preference order (re-plan, ring, PS,
    /// MP) along with the last non-DP planning error.
    pub(super) fn plan_candidates_over_survivors(
        &mut self,
        probe: SimConfig,
    ) -> (Vec<CandidateOutcome>, Option<FastTError>) {
        let dp_portfolio = Portfolio::new()
            .with(Box::new(DataParallelPlanner::all_reduce()))
            .with(Box::new(DataParallelPlanner::default()));
        let mut dp_outcome = self.run_portfolio(&dp_portfolio, Some(probe.clone()));
        let ps_out = dp_outcome.pop().expect("portfolio of two");
        let ar_out = dp_outcome.pop().expect("portfolio of two");
        let dp_ok = ar_out.simulated.is_some() || ps_out.simulated.is_some();
        self.base_graph = [&ar_out, &ps_out]
            .iter()
            .find(|c| c.simulated.is_some())
            .and_then(|c| c.plan.as_ref())
            .map(|p| p.graph.clone())
            .unwrap_or_else(|| self.training_graph.clone());

        let mut portfolio = Portfolio::new().with(self.main_planner());
        // The hierarchical planner re-plans over survivors too: its region
        // tree is structure-keyed, so after a failure it reuses the
        // decomposition (and any cached region sub-plans) and only re-runs
        // the cheap quotient pass over the shrunken topology.
        portfolio.push(Box::new(HierarchicalPlanner));
        if !dp_ok {
            portfolio.push(Box::new(ModelParallelPlanner));
        }
        let mut outcome = self.run_portfolio(&portfolio, Some(probe));
        self.adopt_candidate_cost(&mut outcome);
        let mut merged: Vec<CandidateOutcome> = Vec::with_capacity(4);
        let mut rest = outcome.drain(..);
        merged.push(rest.next().expect("main candidate"));
        merged.push(ar_out);
        merged.push(ps_out);
        merged.extend(rest);

        let mut last_err: Option<FastTError> = None;
        for c in merged.iter_mut() {
            // dp probe failures are expected (that is what mp is for) and
            // were never reported by the pre-portfolio recovery loop
            if !c.planner.starts_with("data_parallel") {
                if let Some(e) = c.error.take() {
                    last_err = Some(e);
                }
            }
        }
        (merged, last_err)
    }
}
