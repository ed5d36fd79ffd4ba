//! Displacement: taking capacity back from running jobs. Priority
//! preemption and budget-shrink evictions mark victims here; the marks
//! are honored at the victim's next chunk boundary by [`displace`],
//! which fault evictions share.
//!
//! [`displace`]: JobScheduler::displace

use super::{
    class_index, AdmissionEvent, AdmissionEventKind, JobScheduler, ResizeDrain, ResizeSample,
    RunState, Step, CHAIN_NONE, F_CANCEL, F_FAULT, F_PREEMPT, F_RESIZE,
};
use crate::job::{JobId, JobState};
use crate::slo::RejectReason;
use northup::NodeId;
use northup_sim::SimTime;
use std::cmp::Reverse;

/// Why a running job loses its placement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum Displacement {
    /// Capacity reclaimed — by a higher-priority arrival or a budget
    /// shrink. Counts as a preemption; a job that can never fit again is
    /// rejected.
    Preempt,
    /// The job's chain lost a device (a persistent fault, exhausted
    /// retries, or a fenced node). Counts as a re-route, bounded by
    /// [`SchedulerConfig::max_job_faults`]; a job that can never fit
    /// again has failed.
    ///
    /// [`SchedulerConfig::max_job_faults`]: super::SchedulerConfig::max_job_faults
    Fault,
}

impl JobScheduler {
    /// Displace a running job: release the reservation, keep the
    /// checkpoint, and re-queue it at the front of its class so it
    /// resumes — re-placed by `build_chain`, on a surviving leaf after a
    /// fault — as soon as capacity returns.
    pub(super) fn displace(
        &mut self,
        st: &mut RunState,
        id: JobId,
        t: SimTime,
        cause: Displacement,
    ) -> Step {
        st.hot[id.0 as usize].flags &= !(F_PREEMPT | F_RESIZE | F_FAULT);
        self.jobs[id.0 as usize].stage_attempts = 0;
        if cause == Displacement::Fault {
            self.jobs[id.0 as usize].reroutes += 1;
            if self.jobs[id.0 as usize].reroutes > self.cfg.max_job_faults {
                return self.finish(st, id, JobState::Failed, t);
            }
        }
        self.release_capacity(st, id, t);
        let rec = &mut self.jobs[id.0 as usize];
        let requested = rec.preempt_requested_at.take();
        let kind = match cause {
            Displacement::Preempt => {
                if let Some(at) = requested {
                    st.preemption_latencies.push(t - at);
                }
                rec.preemptions += 1;
                AdmissionEventKind::Preempted
            }
            Displacement::Fault => AdmissionEventKind::FaultEvicted,
        };
        if let Some(leaf) = rec.leaf.take() {
            let released = st.wq.complete(leaf);
            debug_assert!(released, "job {id:?} released an empty slot");
        }
        let h = &mut st.hot[id.0 as usize];
        h.state = JobState::Preempted;
        h.stage_idx = 0;
        h.chain = CHAIN_NONE;
        st.admission_log.push(AdmissionEvent {
            at: t,
            job: id,
            kind,
        });
        st.active -= 1;
        if self.budgets.feasible(&rec.spec.reservation) {
            st.queues.push_front(id, class_index(rec.spec.priority));
        } else if cause == Displacement::Fault {
            // Its reserved node was fenced: the job lost its device.
            st.hot[id.0 as usize].state = JobState::Failed;
            rec.finished_at = Some(t);
        } else {
            // Evicted by a shrink below its own reservation: it can never
            // be re-admitted, so reject rather than queue forever.
            self.reject(st, id, t, RejectReason::Infeasible);
        }
        self.admit_pass(st, t)
    }

    /// Revalidation at the boundary: is some strictly-higher-priority
    /// queued job still blocked on capacity? If not, the pressure that
    /// marked this victim has passed and the eviction is cancelled.
    pub(super) fn eviction_still_needed(&self, st: &RunState, victim: JobId) -> bool {
        let vw = self.jobs[victim.0 as usize].spec.priority.weight();
        st.queues.fifo_live().any(|q| {
            let r = &self.jobs[q.0 as usize];
            r.spec.priority.weight() > vw && !self.budgets.fits(&st.committed, &r.spec.reservation)
        })
    }

    /// The eviction plan shared by preemption and resize: committed
    /// bytes per node once every pending eviction has landed, and the
    /// running, unmarked jobs lighter than `below` that may still be
    /// marked, in victim order — lowest priority first, most recently
    /// admitted first.
    fn eviction_plan(&self, st: &RunState, below: u64) -> (Vec<u64>, Vec<JobId>) {
        let mut eff = st.committed.clone();
        let mut cands = Vec::new();
        for (i, h) in st.hot.iter().enumerate() {
            if !matches!(h.state, JobState::Admitted | JobState::Running) {
                continue;
            }
            let spec = &self.jobs[i].spec;
            if h.flags & (F_PREEMPT | F_RESIZE) != 0 {
                for (n, b) in spec.reservation.iter() {
                    eff[n.0] = eff[n.0].saturating_sub(b);
                }
            } else if h.flags & F_CANCEL == 0 && spec.priority.weight() < below {
                cands.push(JobId(i as u64));
            }
        }
        cands.sort_by_key(|&j| {
            let r = &self.jobs[j.0 as usize];
            (r.spec.priority.weight(), Reverse(r.admitted_at), Reverse(j))
        });
        (eff, cands)
    }

    /// Set eviction mark `flag` on `victim` and deduct its reservation
    /// from the projected commitment `eff`.
    fn mark_victim(
        &mut self,
        st: &mut RunState,
        victim: JobId,
        flag: u8,
        eff: &mut [u64],
        t: SimTime,
    ) {
        st.hot[victim.0 as usize].flags |= flag;
        let rec = &mut self.jobs[victim.0 as usize];
        rec.preempt_requested_at = Some(t);
        for (n, b) in rec.spec.reservation.iter() {
            eff[n.0] = eff[n.0].saturating_sub(b);
        }
    }

    /// A queued arrival that does not fit marks strictly-lower-priority
    /// running jobs (lowest priority first, most recently admitted first)
    /// for eviction at their next chunk boundary, until the projected
    /// released capacity makes room. If even evicting every candidate
    /// would not make room, nothing is marked.
    pub(super) fn try_preempt(&mut self, st: &mut RunState, id: JobId, t: SimTime) {
        let (res, my_w) = {
            let r = &self.jobs[id.0 as usize];
            (r.spec.reservation.clone(), r.spec.priority.weight())
        };
        let (mut eff, cands) = self.eviction_plan(st, my_w);
        if self.budgets.fits(&eff, &res) {
            return; // pending evictions already make room
        }
        let mut marked = Vec::new();
        for v in cands {
            // Targeted placement: skip victims whose eviction frees no
            // byte on any node that is actually blocking this arrival.
            // The old first-lower-class choice evicted in pure class
            // order and could displace a job on an uncontended node
            // while the arrival stayed stuck (and the bystander's
            // eviction was wasted work).
            let helps = self.jobs[v.0 as usize]
                .spec
                .reservation
                .iter()
                .any(|(n, b)| b > 0 && eff[n.0].saturating_add(res.get(n)) > self.budgets.get(n));
            if !helps {
                continue;
            }
            self.mark_victim(st, v, F_PREEMPT, &mut eff, t);
            marked.push(v);
            if self.budgets.fits(&eff, &res) {
                return;
            }
        }
        // Insufficient even after marking everything that helps: undo,
        // the job must wait for same-or-higher-priority releases anyway.
        for v in marked {
            st.hot[v.0 as usize].flags &= !F_PREEMPT;
            self.jobs[v.0 as usize].preempt_requested_at = None;
        }
    }

    /// After a shrink with [`ResizeDrain::Preempt`]: mark running jobs
    /// (lowest priority first, most recently admitted first) whose
    /// reservation touches an over-budget node, until the projected
    /// commitment fits everywhere.
    fn mark_for_resize(&mut self, st: &mut RunState, t: SimTime) {
        let (mut eff, cands) = self.eviction_plan(st, u64::MAX);
        let over = |eff: &[u64], s: &Self| {
            eff.iter()
                .enumerate()
                .any(|(n, &c)| c > s.budgets.get(NodeId(n)))
        };
        for v in cands {
            if !over(&eff, self) {
                break;
            }
            let helps = self.jobs[v.0 as usize]
                .spec
                .reservation
                .iter()
                .any(|(n, _)| eff[n.0] > self.budgets.get(n));
            if helps {
                self.mark_victim(st, v, F_RESIZE, &mut eff, t);
            }
        }
    }

    /// A budget reconfiguration takes effect.
    pub(super) fn on_resize(&mut self, st: &mut RunState, idx: usize, t: SimTime) -> Step {
        self.budgets = self.pending_resizes[idx].1.clone();
        // Quarantine outlives resizes: a fenced node stays at zero even
        // when the incoming budget vector would resurrect it. The
        // incoming value becomes the node's restore target, so a later
        // probation restore honors the reconfiguration.
        for &n in &st.quarantined {
            st.pre_fence_budget[n.0] = self.budgets.get(n);
            self.budgets.zero(n);
        }
        st.resize_log.push(ResizeSample {
            at: t,
            budgets: self.budgets.snapshot(),
        });
        self.reject_infeasible_waiters(st, t);
        if self.cfg.resize_drain == ResizeDrain::Preempt {
            self.mark_for_resize(st, t);
        }
        self.admit_pass(st, t) // a growth may admit immediately
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{small_job, tree};
    use super::super::SchedulerConfig;
    use super::*;
    use crate::job::{JobSpec, JobWork, Priority};
    use crate::reserve::{NodeBudgets, Reservation};
    use northup_sim::SimDur;

    #[test]
    fn interactive_arrival_evicts_batch_at_a_chunk_boundary() {
        let tree = tree();
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                preempt: true,
                ..SchedulerConfig::default()
            },
        );
        let hog = sched.submit(small_job("batch-hog", &tree, 0.9, 16).priority(Priority::Batch));
        let vip = sched.submit(
            small_job("vip", &tree, 0.9, 2)
                .priority(Priority::Interactive)
                .arrival(SimTime::from_secs_f64(0.01)),
        );
        let report = sched.run().unwrap();
        // The interactive job ran *before* the batch hog drained...
        let vip_admit = report.job(vip).admitted_at.unwrap();
        let hog_finish = report.job(hog).finished_at.unwrap();
        assert!(
            vip_admit < hog_finish,
            "vip admitted at {vip_admit:?} must precede hog finish {hog_finish:?}"
        );
        assert_eq!(report.job(vip).state, JobState::Done);
        // ...and the evicted batch job still completed every chunk,
        // exactly once.
        assert_eq!(report.job(hog).state, JobState::Done);
        assert!(report.job(hog).preemptions >= 1);
        assert_eq!(report.job(hog).chunks_done, 16);
        let mut hog_chunks: Vec<u32> = report
            .chunk_log
            .iter()
            .filter(|c| c.job == hog)
            .map(|c| c.index)
            .collect();
        hog_chunks.sort_unstable();
        assert_eq!(hog_chunks, (0..16).collect::<Vec<_>>());
        assert!(!report.preemption_latencies.is_empty());
        assert!(report.all_terminal());
    }

    #[test]
    fn preemption_off_leaves_the_schedule_untouched() {
        let tree = tree();
        let build = |preempt| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    preempt,
                    ..SchedulerConfig::default()
                },
            );
            // Everything co-fits: preemption never triggers, so the flag
            // must not change the schedule.
            for i in 0..6 {
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.2, 3)
                        .priority(Priority::ALL[i % 3])
                        .arrival(SimTime::from_secs_f64(0.001 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let off = build(false);
        let on = build(true);
        assert_eq!(off.admission_order, on.admission_order);
        assert_eq!(off.makespan, on.makespan);
        assert_eq!(off.capacity_trace, on.capacity_trace);
        assert_eq!(on.total_preemptions(), 0);
    }

    #[test]
    fn budget_shrink_with_drain_tightens_new_admissions_only() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let a = sched.submit(small_job("a", &tree, 0.8, 8));
        // Arrives after the shrink: 0.8 of DRAM no longer feasible.
        let b = sched.submit(small_job("b", &tree, 0.8, 2).arrival(SimTime::from_secs_f64(0.2)));
        sched.resize_budgets(SimTime::from_secs_f64(0.01), full.scaled(0.5));
        let report = sched.run().unwrap();
        assert_eq!(report.job(a).state, JobState::Done, "drain lets a finish");
        assert_eq!(
            report.job(b).state,
            JobState::Rejected,
            "b infeasible under the shrunk budget"
        );
        assert_eq!(report.resize_log.len(), 1);
        assert!(report.resize_log[0].budgets[dram.0] < full.get(dram));
        assert!(report.all_terminal());
    }

    #[test]
    fn budget_shrink_with_preempt_evicts_until_it_fits() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                resize_drain: ResizeDrain::Preempt,
                ..SchedulerConfig::default()
            },
        );
        let full = NodeBudgets::from_tree(&tree, 1.0);
        let a = sched.submit(small_job("a", &tree, 0.4, 12));
        let shrink_at = SimTime::from_secs_f64(0.05);
        sched.resize_budgets(shrink_at, full.scaled(0.25));
        let report = sched.run().unwrap();
        // a (0.4 of DRAM) exceeds the 0.25 budget: evicted at a boundary,
        // then rejected on re-admission (its reservation is infeasible) —
        // unless it was already infeasible-queued at resize time.
        assert!(report.all_terminal());
        let a_out = report.job(a);
        assert!(a_out.preemptions >= 1, "must be evicted by the shrink");
        assert_eq!(a_out.state, JobState::Rejected);
        // After the eviction, committed bytes on DRAM fit the new budget.
        let new_budget = report.resize_log[0].budgets[dram.0];
        let after_shrink: Vec<_> = report
            .capacity_trace
            .iter()
            .filter(|s| s.node == dram && s.at > shrink_at)
            .collect();
        assert!(!after_shrink.is_empty());
        assert!(after_shrink.iter().all(|s| s.committed <= new_budget));
    }

    #[test]
    fn preemption_targets_victims_on_the_blocking_nodes() {
        // Two Batch victims on *different* nodes: `bystander` holds root
        // storage bytes, `blocker` holds the DRAM bytes the Interactive
        // arrival needs. The old first-lower-class choice marked in pure
        // (class, recency) order — `bystander`, admitted most recently,
        // was displaced first even though evicting it frees nothing the
        // arrival can use. Targeted preemption skips it.
        let tree = tree();
        let root = tree.root();
        let dram = tree.children(root)[0];
        let root_bytes = (tree.node(root).mem.capacity as f64 * 0.6) as u64;
        let dram_bytes = (tree.node(dram).mem.capacity as f64 * 0.6) as u64;
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                preempt: true,
                ..SchedulerConfig::default()
            },
        );
        // The right victim: chunky, on DRAM, admitted at t=0.
        let blocker = sched.submit(
            JobSpec::new(
                "blocker",
                Reservation::new().with(dram, dram_bytes),
                JobWork::new(8)
                    .read(32 << 20)
                    .xfer(32 << 20)
                    .compute(SimDur::from_millis(2)),
            )
            .priority(Priority::Batch),
        );
        // The wrong victim: compute-only quick chunks (no root-storage
        // contention) holding a *root* reservation, admitted after
        // `blocker` (so the recency-ordered scan visits it first) and
        // hitting chunk boundaries long before `blocker` does (so a
        // spurious mark would actually evict it — the unfiltered scan
        // measurably did, preemptions = 1).
        let bystander = sched.submit(
            JobSpec::new(
                "bystander",
                Reservation::new().with(root, root_bytes),
                JobWork::new(64).compute(SimDur::from_micros(100)),
            )
            .priority(Priority::Batch)
            .arrival(SimTime::from_secs_f64(0.001)),
        );
        let hi = sched.submit(
            JobSpec::new(
                "interactive",
                Reservation::new().with(dram, dram_bytes),
                JobWork::new(2)
                    .read(8 << 20)
                    .xfer(8 << 20)
                    .compute(SimDur::from_millis(1)),
            )
            .priority(Priority::Interactive)
            .arrival(SimTime::from_secs_f64(0.004)),
        );
        let report = sched.run().unwrap();
        assert!(report.all_terminal());
        assert_eq!(report.job(hi).state, JobState::Done);
        assert!(
            report.job(blocker).preemptions >= 1,
            "the DRAM holder must be displaced for the Interactive arrival"
        );
        assert_eq!(
            report.job(bystander).preemptions,
            0,
            "evicting the root-node job frees nothing the arrival needs"
        );
        assert_eq!(report.job(bystander).state, JobState::Done);
        assert_eq!(report.job(blocker).state, JobState::Done);
    }
}
