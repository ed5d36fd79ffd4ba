//! Faults: persistent-fault counting, node quarantine (fencing), and
//! probation probes that restore a fenced node's budget.

use super::displace::Displacement;
use super::{
    JobScheduler, QuarantineSample, RestoreSample, RunState, Step, CHAIN_NONE, EV_PROBE, F_FAULT,
};
use crate::job::{JobId, JobState};
use northup::NodeId;
use northup_sim::{SimDur, SimTime};

impl JobScheduler {
    /// A persistent fault on `node` (observed by `id`'s current stage):
    /// count it toward the node's quarantine threshold, fence the node
    /// when the threshold is reached, and displace the faulted job.
    pub(super) fn on_persistent_fault(
        &mut self,
        st: &mut RunState,
        id: JobId,
        node: NodeId,
        t: SimTime,
    ) -> Step {
        st.node_persistent[node.0] += 1;
        if st.node_persistent[node.0] >= self.cfg.quarantine_after
            && !st.quarantined.contains(&node)
        {
            self.quarantine(st, node, t);
        }
        self.displace(st, id, t, Displacement::Fault)
    }

    /// Fence `node`: zero its budget, reject queued jobs whose
    /// reservation can never fit the surviving envelope, and mark
    /// in-flight jobs whose chain passes through the node so they
    /// re-route to a surviving leaf at their next chunk boundary.
    fn quarantine(&mut self, st: &mut RunState, node: NodeId, t: SimTime) {
        st.quarantined.insert(node);
        st.quarantine_log.push(QuarantineSample {
            at: t,
            node,
            faults: st.node_persistent[node.0],
        });
        st.pre_fence_budget[node.0] = self.budgets.get(node);
        self.budgets.zero(node);
        self.schedule_probe(st, node, t);
        self.reject_infeasible_waiters(st, t);
        // A chain's precompiled run list has one entry per failure domain.
        let chains = &st.chains;
        for h in st.hot.iter_mut() {
            if matches!(h.state, JobState::Admitted | JobState::Running)
                && h.chain != CHAIN_NONE
                && chains.get(h.chain).runs.iter().any(|r| r.node == node)
            {
                h.flags |= F_FAULT;
            }
        }
    }

    /// Schedule the fenced node's next probation probe, if the policy
    /// grants it one: the `n`-th probe of a node waits
    /// `window × backoff^n` (hysteresis — a flapping node waits
    /// exponentially longer each time), and after `max_restores` probes
    /// the fence is permanent.
    fn schedule_probe(&mut self, st: &mut RunState, node: NodeId, t: SimTime) {
        let Some(p) = self.cfg.probation else {
            return;
        };
        let attempts = st.node_probes[node.0];
        if attempts >= p.max_restores {
            return; // out of chances: fenced for good
        }
        st.node_probes[node.0] = attempts + 1;
        let mult = u64::from(p.backoff.max(1)).saturating_pow(attempts.min(16));
        let window = SimDur(p.window.0.saturating_mul(mult)).max(SimDur::from_micros(1));
        st.events.push((t + window, EV_PROBE, node.0 as u64, 0));
    }

    /// A probation window elapsed: probe the fenced node by consulting
    /// the fault plan at fresh ordinals. All-clean restores the node —
    /// budget back to its pre-fence value, fresh quarantine threshold —
    /// and re-runs admission; any fault re-schedules the next (longer)
    /// probe instead.
    pub(super) fn on_probe(&mut self, st: &mut RunState, node: NodeId, t: SimTime) -> Step {
        if !st.quarantined.contains(&node) {
            return Ok(()); // stale probe (already restored)
        }
        let Some(p) = self.cfg.probation else {
            return Ok(());
        };
        // `all` stops at the first fault: later ordinals stay unconsumed,
        // so the next probe re-tests the stream where this one gave up.
        let clean = match &self.cfg.fault_plan {
            Some(plan) => (0..p.probes.max(1)).all(|_| {
                let ord = st.fault_ordinals[node.0];
                st.fault_ordinals[node.0] += 1;
                plan.decide(node, ord).is_none()
            }),
            None => true,
        };
        if !clean {
            self.schedule_probe(st, node, t);
            return Ok(());
        }
        let budget = st.pre_fence_budget[node.0];
        self.budgets.set(node, budget);
        st.quarantined.remove(&node);
        st.node_persistent[node.0] = 0;
        st.restore_log.push(RestoreSample {
            at: t,
            node,
            attempt: st.node_probes[node.0],
            budget,
        });
        self.admit_pass(st, t)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{free_job, tree};
    use super::super::{AdmissionEventKind, Probation, SchedulerConfig};
    use super::*;
    use crate::job::{JobSpec, JobWork};
    use crate::reserve::Reservation;
    use northup::fault::{FaultKind, FaultPlan, RetryPolicy};
    use northup::presets;

    #[test]
    fn persistent_faults_quarantine_the_node_and_reroute_chains() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1); // the CPU/DRAM leaf of subtree 1
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    fault_plan: Some(FaultPlan::new(7).persistent_rate(65536).on_nodes([sick])),
                    quarantine_after: 2,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..5 {
                s.submit(free_job(&format!("j{i}"), 3));
            }
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        assert_eq!(report.quarantine_log[0].faults, 2);
        // Every job completed on a surviving leaf — graceful degradation,
        // not mass failure.
        assert_eq!(report.count(JobState::Done), 5, "{}", report.summary());
        for j in &report.jobs {
            assert_ne!(j.leaf, Some(sick), "{} still on the fenced leaf", j.name);
        }
        // At least one chain was displaced and re-targeted by build_chain.
        assert!(report.jobs.iter().any(|j| j.fault.reroutes > 0));
        assert!(report.jobs_recovered() > 0);
        // Chunks still execute exactly once each across the re-routes.
        for j in &report.jobs {
            let mut idx: Vec<u32> = report
                .chunk_log
                .iter()
                .filter(|c| c.job == j.id)
                .map(|c| c.index)
                .collect();
            idx.sort_unstable();
            assert_eq!(idx, (0..j.chunks_done).collect::<Vec<_>>());
        }
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn quarantine_rejects_and_fails_jobs_bound_to_the_fenced_node() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let bytes = tree.node(sick).mem.capacity / 4;
        let mut s = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                fault_plan: Some(FaultPlan::new(3).persistent_rate(65536).on_nodes([sick])),
                quarantine_after: 2,
                ..SchedulerConfig::default()
            },
        );
        // Holds capacity on the node that dies: displaced by its own
        // faults, then failed when the fence zeroes the budget.
        let doomed = s.submit(JobSpec::new(
            "doomed",
            Reservation::new().with(sick, bytes),
            JobWork::new(4).read(16 << 20).xfer(16 << 20),
        ));
        // Arrives long after the quarantine: rejected at arrival because
        // the surviving envelope cannot ever hold its reservation.
        let late = s.submit(
            JobSpec::new(
                "late",
                Reservation::new().with(sick, bytes),
                JobWork::new(1).read(1 << 20),
            )
            .arrival(SimTime::from_secs_f64(30.0)),
        );
        // A bystander with no stake in the sick node sails through.
        let fine = s.submit(free_job("fine", 2));
        let report = s.run().unwrap();
        assert!(report.all_terminal());
        assert_eq!(report.job(doomed).state, JobState::Failed);
        assert!(report.job(doomed).fault.persistent > 0);
        assert_eq!(report.job(late).state, JobState::Rejected);
        assert_eq!(report.job(fine).state, JobState::Done);
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        // Fault accounting is visible in the one-line summary.
        assert!(report.summary().contains("quarantined"));
    }

    #[test]
    fn root_quarantine_fails_the_remaining_trace_gracefully() {
        let tree = tree();
        let root = tree.root();
        let mut s = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                // The very first root booking (job 0's first Read) is a
                // persistent fault and the threshold is 1: the root — for
                // which no sibling exists — is fenced immediately.
                fault_plan: Some(FaultPlan::new(0).script(root, 0, FaultKind::Persistent)),
                quarantine_after: 1,
                ..SchedulerConfig::default()
            },
        );
        for i in 0..3 {
            s.submit(free_job(&format!("j{i}"), 2));
        }
        let report = s.run().unwrap();
        assert!(report.all_terminal(), "no stuck jobs even with a dead root");
        assert_eq!(report.quarantined_nodes(), vec![root]);
        assert_eq!(report.count(JobState::Done), 0);
        assert!(report.count(JobState::Failed) >= 1);
    }

    #[test]
    fn retry_exhaustion_escalates_to_the_persistent_path() {
        let tree = tree();
        let root = tree.root();
        // Script a transient fault at every early root ordinal: with a
        // no-retry policy the first fault escalates immediately.
        let mut plan = FaultPlan::new(5);
        for ord in 0..8 {
            plan = plan.script(root, ord, FaultKind::Transient);
        }
        let mut s = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                fault_plan: Some(plan),
                retry: RetryPolicy::none(),
                quarantine_after: u32::MAX, // never fence: exercise max_job_faults
                max_job_faults: 2,
                ..SchedulerConfig::default()
            },
        );
        let id = s.submit(free_job("unlucky", 2));
        let report = s.run().unwrap();
        assert!(report.all_terminal());
        assert_eq!(report.job(id).state, JobState::Failed);
        assert_eq!(report.job(id).fault.retries, 0, "no-retry policy");
        assert!(report.job(id).fault.reroutes > 2, "displaced past the cap");
        // The admission log balances: every commit is matched by exactly
        // one release-like event (Released / Preempted / FaultEvicted).
        let count =
            |k: AdmissionEventKind| report.admission_log.iter().filter(|e| e.kind == k).count();
        assert_eq!(
            count(AdmissionEventKind::Admitted),
            count(AdmissionEventKind::Released)
                + count(AdmissionEventKind::Preempted)
                + count(AdmissionEventKind::FaultEvicted)
        );
    }

    #[test]
    fn probation_restores_a_fenced_node_after_a_fault_free_window() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let bytes = tree.node(sick).mem.capacity / 4;
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    // Exactly two persistent faults (ordinals 0 and 1);
                    // every later consultation — the probes included —
                    // is clean.
                    fault_plan: Some(
                        FaultPlan::new(11)
                            .script(sick, 0, FaultKind::Persistent)
                            .script(sick, 1, FaultKind::Persistent),
                    ),
                    quarantine_after: 2,
                    probation: Some(Probation {
                        window: SimDur::from_millis(10),
                        probes: 4,
                        backoff: 2,
                        max_restores: 3,
                    }),
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..4 {
                s.submit(free_job(&format!("j{i}"), 3));
            }
            // Arrives long after the restore and needs the once-fenced
            // node's capacity: only a genuinely restored budget admits it.
            s.submit(
                JobSpec::new(
                    "late",
                    Reservation::new().with(sick, bytes),
                    JobWork::new(1).read(1 << 20),
                )
                .arrival(SimTime::from_secs_f64(5.0)),
            );
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        assert_eq!(report.restored_nodes(), vec![sick]);
        let restore = report.restore_log[0];
        assert_eq!(restore.attempt, 1, "first probe was already clean");
        assert!(restore.budget > 0, "pre-fence budget came back");
        assert!(restore.at > report.quarantine_log[0].at);
        assert_eq!(report.count(JobState::Done), 5, "{}", report.summary());
        assert!(report.summary().contains("restored"));
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn probation_hysteresis_keeps_an_unstable_node_fenced_for_good() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let bytes = tree.node(sick).mem.capacity / 4;
        let mut s = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                // Every consultation faults: each probe finds the node
                // still dirty, and after `max_restores` probes the fence
                // is permanent — the run still terminates.
                fault_plan: Some(FaultPlan::new(7).persistent_rate(65536).on_nodes([sick])),
                quarantine_after: 2,
                probation: Some(Probation {
                    window: SimDur::from_millis(10),
                    probes: 2,
                    backoff: 4,
                    max_restores: 3,
                }),
                ..SchedulerConfig::default()
            },
        );
        for i in 0..4 {
            s.submit(free_job(&format!("j{i}"), 3));
        }
        let late = s.submit(
            JobSpec::new(
                "late",
                Reservation::new().with(sick, bytes),
                JobWork::new(1).read(1 << 20),
            )
            .arrival(SimTime::from_secs_f64(30.0)),
        );
        let report = s.run().unwrap();
        assert!(report.all_terminal(), "bounded probes: no infinite probing");
        assert_eq!(report.quarantined_nodes(), vec![sick]);
        assert!(report.restored_nodes().is_empty(), "never flapped back in");
        assert_eq!(report.job(late).state, JobState::Rejected);
        assert!(report.events > 0);
    }
}
