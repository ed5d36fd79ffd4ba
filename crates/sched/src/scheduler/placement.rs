//! Placement and stage booking: committing an admitted job's
//! reservation, choosing its leaf, compiling its chain, booking its
//! stages one per event (consulting the fault plan), and releasing the
//! reservation at a terminal transition.

use super::displace::Displacement;
use super::{
    class_index, AdmissionEvent, AdmissionEventKind, CapacitySample, ChunkSample, FaultSample,
    JobScheduler, RunState, Step, CHAIN_NONE, EV_RETRY, F_CANCEL, F_FAULT, F_PREEMPT, F_RESIZE,
};
use crate::error::SchedError;
use crate::job::{JobId, JobState};
use crate::slo::DegradeLevel;
use northup::fabric::{build_chain, ChainStage, ChunkChain, ChunkWork};
use northup::fault::FaultKind;
use northup::{NodeId, Tree};
use northup_sim::SimTime;
use std::collections::BTreeMap;

/// Interned compiled chains, keyed by (leaf, per-chunk work shape). A
/// trace has a handful of work shapes and a tree has a handful of
/// leaves, so a million admissions resolve to a few dozen compiled
/// chains instead of a `build_chain` allocation each. The scheduler
/// walks `stages`/`nodes` and reads chunk counts from the job itself,
/// so the shared chains compile with `chunks = 1`.
pub(super) struct ChainArena {
    chains: Vec<ChunkChain>,
    index: BTreeMap<(usize, u64, u64, u64, u64), u32>,
}

impl ChainArena {
    pub(super) fn new() -> Self {
        ChainArena {
            chains: Vec::new(),
            index: BTreeMap::new(),
        }
    }

    /// The arena index of the chain for `work` on `leaf`, compiling and
    /// caching it on first use.
    pub(super) fn intern(&mut self, tree: &Tree, leaf: NodeId, work: ChunkWork) -> u32 {
        let key = (
            leaf.0,
            work.read_bytes,
            work.xfer_bytes,
            work.compute.0,
            work.write_bytes,
        );
        if let Some(&idx) = self.index.get(&key) {
            return idx;
        }
        let idx = self.chains.len() as u32;
        self.chains.push(build_chain(tree, leaf, work, 1));
        self.index.insert(key, idx);
        idx
    }

    pub(super) fn get(&self, idx: u32) -> &ChunkChain {
        &self.chains[idx as usize]
    }
}

impl JobScheduler {
    /// Commit the reservation, place the job, and start its next chunk
    /// (the first for fresh admissions, the checkpoint for resumed ones).
    pub(super) fn admit(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Step {
        debug_assert!(matches!(
            st.hot[id.0 as usize].state,
            JobState::Queued | JobState::Preempted
        ));
        let rec = &mut self.jobs[id.0 as usize];
        // Reservation nodes are bounded by the tree (anything beyond it
        // has zero budget and was rejected as infeasible at arrival), so
        // the dense commit vectors index directly.
        for (n, b) in rec.spec.reservation.iter() {
            let e = &mut st.committed[n.0];
            *e += b;
            st.max_committed[n.0] = st.max_committed[n.0].max(*e);
            st.capacity_trace.push(CapacitySample {
                at: t,
                node: n,
                committed: *e,
            });
        }
        rec.admitted_at = Some(t);
        st.hot[id.0 as usize].state = JobState::Admitted;
        st.admission_order.push(id);
        st.admission_log.push(AdmissionEvent {
            at: t,
            job: id,
            kind: AdmissionEventKind::Admitted,
        });
        st.active += 1;

        let done = {
            let h = &st.hot[id.0 as usize];
            h.chunks_done >= h.chunks_total
        };

        // Placement: the leaf whose subtree (child-of-root anchor) has the
        // shallowest work queues; ties break toward the lowest leaf id.
        // A resumed job is re-placed — only its checkpoint survives
        // eviction, not its slot. Quarantined nodes are avoided; when the
        // fences leave no usable leaf the job fails (graceful, terminal)
        // instead of erroring the whole run.
        let leaf = match self.place(st) {
            Ok(leaf) => leaf,
            Err(SchedError::NoLeaf) if !st.quarantined.is_empty() => {
                return self.finish(st, id, JobState::Failed, t);
            }
            Err(e) => return Err(e),
        };
        let task = st.wq.enqueue(leaf, 0);
        // Brownout: while the degradation tier is engaged, non-guaranteed
        // admissions compile a shrunken chain. Distinct degrade levels
        // produce distinct work shapes, so the arena interns them as
        // separate chains — no cross-contamination with full fidelity.
        let degrade = match &st.slo {
            Some(s) => s.degrade_for(self.jobs[id.0 as usize].spec.effective_slo()),
            None => DegradeLevel::None,
        };
        let work = degrade
            .apply(&self.jobs[id.0 as usize].spec.work)
            .chunk_work();
        let chain = st.chains.intern(&self.tree, leaf, work);
        let chain_len = st.chains.get(chain).stages.len() as u16;
        let rec = &mut self.jobs[id.0 as usize];
        rec.leaf = Some(leaf);
        rec.task = Some(task);
        rec.degrade = rec.degrade.max(degrade.rank());
        let h = &mut st.hot[id.0 as usize];
        h.chain = chain;
        h.chain_len = chain_len;
        h.stage_idx = 0;

        if done {
            self.finish(st, id, JobState::Done, t)
        } else {
            self.issue_chunk(st, id, t)
        }
    }

    /// Placement: the least fault-pressured leaf (with
    /// [`SchedulerConfig::fault_aware_placement`]; pressure is zero for
    /// every leaf otherwise) whose subtree has the shallowest work
    /// queues; ties break toward the lowest leaf id. Pressure dominates
    /// depth so chains drift off a sickening node *before* its
    /// quarantine threshold trips.
    fn place(&self, st: &RunState) -> Result<NodeId, SchedError> {
        let mut best: Option<(u64, usize, NodeId)> = None;
        for leaf in self.tree.leaves() {
            let path = std::iter::successors(Some(leaf.id), |&n| self.tree.parent(n));
            // A fenced node anywhere on the root→leaf path blocks the leaf
            // (the root carries Read/WriteBack, so a fenced root blocks all).
            if !st.quarantined.is_empty() && path.clone().any(|n| st.quarantined.contains(&n)) {
                continue;
            }
            // The §V-E status check reads the child-of-root subtree.
            let root = Some(self.tree.root());
            let anchor = path.clone().find(|&n| self.tree.parent(n) == root);
            let depth = st.wq.subtree_depth(&self.tree, anchor.unwrap_or(leaf.id));
            // Sub-threshold persistent faults on every node a chain placed
            // on this leaf would book stages on.
            let pressure = if self.cfg.fault_aware_placement {
                path.map(|n| u64::from(st.node_persistent[n.0])).sum()
            } else {
                0
            };
            let key = (pressure, depth, leaf.id);
            if best.is_none_or(|b| key < b) {
                best = Some(key);
            }
        }
        best.map(|(_, _, leaf)| leaf).ok_or(SchedError::NoLeaf)
    }

    /// A stage of the current chunk finished: book the next stage at its
    /// actual ready time, or close the chunk and decide at the boundary —
    /// cancel > done > fault-evict > resize-evict > preempt > next chunk.
    pub(super) fn on_stage_done(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Step {
        let h = &mut st.hot[id.0 as usize];
        if h.chain == CHAIN_NONE {
            return Err(SchedError::MissingChain(id));
        }
        h.stage_idx += 1;
        if h.stage_idx < h.chain_len {
            return self.book_stage(st, id, t);
        }
        h.chunks_done += 1;
        h.stage_idx = 0;
        let (chunks_done, flags) = (h.chunks_done, h.flags);
        let done = h.chunks_done >= h.chunks_total;
        st.chunk_log.push(ChunkSample {
            at: t,
            job: id,
            index: chunks_done - 1,
        });
        if flags == 0 && !done {
            return self.issue_chunk(st, id, t);
        }
        if flags & F_CANCEL != 0 {
            self.finish(st, id, JobState::Cancelled, t)
        } else if done {
            self.finish(st, id, JobState::Done, t)
        } else if flags & F_FAULT != 0 {
            self.displace(st, id, t, Displacement::Fault)
        } else if flags & F_RESIZE != 0
            || (flags & F_PREEMPT != 0 && self.eviction_still_needed(st, id))
        {
            self.displace(st, id, t, Displacement::Preempt)
        } else {
            if flags & F_PREEMPT != 0 {
                // The pressure passed (e.g. another release already made
                // room); keep running.
                st.hot[id.0 as usize].flags &= !F_PREEMPT;
                self.jobs[id.0 as usize].preempt_requested_at = None;
            }
            self.issue_chunk(st, id, t)
        }
    }

    /// Start the next chunk by booking only its FIRST stage — later
    /// stages are booked as their predecessors complete, so concurrent
    /// jobs interleave on every shared resource instead of one job
    /// reserving the whole chain up front.
    pub(super) fn issue_chunk(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Step {
        let h = &mut st.hot[id.0 as usize];
        h.state = JobState::Running;
        if h.chain == CHAIN_NONE {
            return Err(SchedError::MissingChain(id));
        }
        if h.chain_len == 0 {
            // All-zero work shape: every chunk completes instantly.
            let (first, total, flags) = (h.chunks_done, h.chunks_total, h.flags);
            h.chunks_done = total;
            let chunks = (first..total).map(|index| ChunkSample {
                at: t,
                job: id,
                index,
            });
            st.chunk_log.extend(chunks);
            let end_state = if flags & F_CANCEL != 0 {
                JobState::Cancelled
            } else {
                JobState::Done
            };
            return self.finish(st, id, end_state, t);
        }
        self.book_stage(st, id, t)
    }

    /// Book the job's current stage (`stage_idx`) at `t`, consulting the
    /// fault plan when one is configured. A clean booking schedules
    /// `EV_STAGE_DONE` at the fabric's completion; a transient fault
    /// within the retry budget schedules `EV_RETRY` after a seeded
    /// backoff; a persistent fault (or exhausted retries, or a stage on
    /// an already-quarantined node) goes through the persistent path:
    /// count toward quarantine, then displace the job for re-placement.
    fn book_stage(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Step {
        let (stage, node): (ChainStage, NodeId) = {
            let h = &st.hot[id.0 as usize];
            if h.chain == CHAIN_NONE {
                return Err(SchedError::MissingChain(id));
            }
            let chain = st.chains.get(h.chain);
            // The serving node comes from the chain's precompiled dense
            // node vector — no per-event failure-domain re-derivation.
            (
                chain.stages[h.stage_idx as usize],
                chain.nodes[h.stage_idx as usize],
            )
        };
        let Some(plan) = &self.cfg.fault_plan else {
            let end = st.fabric.serve(&stage, t);
            st.schedule_stage_done(end, id);
            return Ok(());
        };
        if st.quarantined.contains(&node) {
            // The device is fenced mid-chunk: the stage cannot be served,
            // so the job moves off at once (its in-flight chunk restarts
            // from the checkpoint on the new leaf — no chunk runs twice).
            return self.displace(st, id, t, Displacement::Fault);
        }
        let ord = st.fault_ordinals[node.0];
        st.fault_ordinals[node.0] += 1;
        let rec = &mut self.jobs[id.0 as usize];
        let Some(kind) = plan.decide(node, ord) else {
            rec.stage_attempts = 0;
            let end = st.fabric.serve(&stage, t);
            st.schedule_stage_done(end, id);
            return Ok(());
        };
        st.fault_log.push(FaultSample {
            at: t,
            node,
            job: id,
            kind,
            ordinal: ord,
        });
        if kind == FaultKind::Transient {
            rec.faults_transient += 1;
            rec.stage_attempts += 1;
            if rec.stage_attempts < self.cfg.retry.max_attempts {
                let jitter = plan.jitter(node, ord, rec.stage_attempts);
                let delay = self.cfg.retry.backoff(rec.stage_attempts, jitter);
                rec.retries += 1;
                rec.backoff_total += delay;
                st.events.push((t + delay, EV_RETRY, id.0, 0));
                return Ok(());
            }
            // Bounded attempts exhausted: the fault is as good as
            // persistent for this placement.
        } else {
            rec.faults_persistent += 1;
        }
        self.on_persistent_fault(st, id, node, t)
    }

    /// A backed-off stage retries: re-book the same stage. The plan is
    /// consulted again at a fresh ordinal, so persistent trouble on the
    /// node eventually escalates instead of retrying forever.
    pub(super) fn on_retry(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Step {
        let h = &st.hot[id.0 as usize];
        if h.state != JobState::Running || h.chain == CHAIN_NONE {
            return Ok(()); // displaced or cancelled while backing off
        }
        self.book_stage(st, id, t)
    }

    /// Credit the reservation back and sample the capacity trace (shared
    /// by terminal release and eviction).
    pub(super) fn release_capacity(&mut self, st: &mut RunState, id: JobId, t: SimTime) {
        let (tenant, held, since) = {
            let rec = &self.jobs[id.0 as usize];
            (
                rec.spec.tenant,
                rec.spec.reservation.total(),
                rec.admitted_at,
            )
        };
        if let Some(since) = since {
            // Post-paid quota: byte-seconds of held capacity this residency.
            let byte_secs = held as f64 * (t - since).as_secs_f64();
            self.quota_charge(st, tenant, byte_secs, t);
        }
        let rec = &mut self.jobs[id.0 as usize];
        for (n, b) in rec.spec.reservation.iter() {
            let e = &mut st.committed[n.0];
            *e = e.saturating_sub(b);
            st.capacity_trace.push(CapacitySample {
                at: t,
                node: n,
                committed: *e,
            });
        }
    }

    /// Settle a job in terminal `state`: release its reservation and
    /// work-queue slot, feed the SLO sampler, and run admission.
    pub(super) fn finish(
        &mut self,
        st: &mut RunState,
        id: JobId,
        state: JobState,
        t: SimTime,
    ) -> Step {
        debug_assert!(state.is_terminal());
        self.release_capacity(st, id, t);
        st.hot[id.0 as usize].state = state;
        let rec = &mut self.jobs[id.0 as usize];
        rec.finished_at = Some(t);
        if let (Some(leaf), Some(task)) = (rec.leaf, rec.task.take()) {
            st.wq.complete(leaf, task);
        }
        // Feed the SLO sampler: completion latency in virtual time,
        // arrival-to-done (what the submitter experiences).
        if state == JobState::Done {
            let class = class_index(rec.spec.priority);
            let latency = t - rec.spec.arrival;
            if let Some(slo) = st.slo.as_mut() {
                slo.on_completion(class, latency);
            }
        }
        st.admission_log.push(AdmissionEvent {
            at: t,
            job: id,
            kind: AdmissionEventKind::Released,
        });
        st.active -= 1;
        self.admit_pass(st, t)
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{free_job, small_job, tree};
    use super::super::{JobScheduler, SchedulerConfig};
    use crate::job::{JobSpec, JobState, JobWork};
    use crate::reserve::Reservation;
    use northup::fault::FaultPlan;
    use northup::{presets, NodeId};
    use northup_sim::{SimDur, SimTime};

    #[test]
    fn transient_faults_retry_and_recover_every_job() {
        let tree = tree();
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    // ~4.6% per booking: plenty of faults, yet 4 bounded
                    // attempts make an exhaustion astronomically unlikely.
                    fault_plan: Some(FaultPlan::new(42).transient_rate(3000)),
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..6 {
                s.submit(small_job(&format!("j{i}"), &tree, 0.3, 6));
            }
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert_eq!(report.count(JobState::Done), 6, "{}", report.summary());
        assert!(!report.fault_log.is_empty(), "the plan must inject");
        assert!(report.total_retries() > 0);
        assert!(report.total_backoff() > SimDur::ZERO);
        assert!(report.jobs_recovered() > 0);
        assert!(report.quarantine_log.is_empty(), "transient-only plan");
        // Bit-identical chaos: the whole report, field for field.
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn inactive_fault_plan_leaves_the_schedule_untouched() {
        let tree = tree();
        let build = |plan| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    fault_plan: plan,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..5 {
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.35, 3)
                        .arrival(SimTime::from_secs_f64(0.0002 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let off = build(None);
        let on = build(Some(FaultPlan::new(9))); // zero rates, no scripts
        assert_eq!(off.admission_order, on.admission_order);
        assert_eq!(off.makespan, on.makespan);
        assert_eq!(off.capacity_trace, on.capacity_trace);
        assert_eq!(off.chunk_log, on.chunk_log);
        assert!(on.fault_log.is_empty());
    }

    #[test]
    fn fault_aware_placement_steers_off_a_sickening_leaf_before_quarantine() {
        let tree = presets::asymmetric_fig2();
        let sick = NodeId(1);
        let build = || {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    // The node faults on every booking but the threshold is
                    // unreachable: only the placement bias can save the jobs.
                    fault_plan: Some(FaultPlan::new(3).persistent_rate(65536).on_nodes([sick])),
                    quarantine_after: u32::MAX,
                    fault_aware_placement: true,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..5 {
                s.submit(
                    free_job(&format!("j{i}"), 3).arrival(SimTime::from_secs_f64(0.02 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let report = build();
        assert!(report.all_terminal());
        assert!(report.quarantine_log.is_empty(), "threshold never tripped");
        // The bias signal only exists because something faulted first…
        assert!(report.fault_log.iter().any(|f| f.node == sick));
        assert!(*report.node_fault_pressure().get(&sick).unwrap_or(&0) >= 1);
        // …after which every chain drifted to (or re-routed onto) a
        // healthy leaf and completed — no job stuck on the sick one.
        assert_eq!(report.count(JobState::Done), 5, "{}", report.summary());
        for j in &report.jobs {
            assert_ne!(j.leaf, Some(sick), "{} ended on the sick leaf", j.name);
        }
        let again = build();
        assert_eq!(format!("{report:?}"), format!("{again:?}"));
    }

    #[test]
    fn resume_from_skips_checkpointed_chunks_exactly() {
        let tree = tree();
        let mut s = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        // Migrated in with 2 of 4 chunks already done elsewhere: only
        // chunks 2 and 3 run here, with their original indices.
        let resumed = s.submit(
            JobSpec::new(
                "resumed",
                Reservation::new(),
                JobWork::new(4).read(8 << 20).xfer(8 << 20),
            )
            .resume_from(2),
        );
        // A stale checkpoint claiming more chunks than the work declares
        // is clamped: nothing runs, the job completes at admission.
        let ghost = s.submit(
            JobSpec::new("ghost", Reservation::new(), JobWork::new(3).read(8 << 20)).resume_from(9),
        );
        let report = s.run().unwrap();
        assert!(report.all_terminal());
        assert_eq!(report.job(resumed).state, JobState::Done);
        assert_eq!(report.job(resumed).chunks_done, 4);
        let mut idx: Vec<u32> = report
            .chunk_log
            .iter()
            .filter(|c| c.job == resumed)
            .map(|c| c.index)
            .collect();
        idx.sort_unstable();
        assert_eq!(idx, vec![2, 3], "checkpointed chunks never re-run");
        assert_eq!(report.job(ghost).state, JobState::Done);
        assert_eq!(report.job(ghost).chunks_done, 3, "clamped to the work");
        assert!(!report.chunk_log.iter().any(|c| c.job == ghost));
        assert!(report.events > 0);
    }
}
