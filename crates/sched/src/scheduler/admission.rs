//! Admission: arrivals and their rejection, weighted fair queueing with
//! the starvation guard, the strict-FIFO baseline, per-tenant
//! token-bucket quotas, and the SLO controller's control tick.

use super::{
    class_index, AdmissionPolicy, JobScheduler, ResizeSample, RunState, Step, EV_CONTROL, EV_QUOTA,
};
use crate::job::{JobId, JobState, Priority, SloClass, TenantId};
use crate::slo::{RejectReason, ShedOutcome};
use northup::NodeId;
use northup_sim::{SimDur, SimTime};
use std::cmp::Reverse;

/// Per-tenant token-bucket state (lazy refill).
#[derive(Debug, Clone, Copy)]
pub(super) struct QuotaState {
    tokens: f64,
    last: SimTime,
}

impl JobScheduler {
    pub(super) fn on_arrival(&mut self, st: &mut RunState, id: JobId, t: SimTime) -> Step {
        if st.hot[id.0 as usize].state.is_terminal() {
            return Ok(()); // e.g. cancelled before arrival
        }
        let spec = &self.jobs[id.0 as usize].spec;
        let class = class_index(spec.priority);
        if let Some(slo) = st.slo.as_mut() {
            slo.on_arrival(class);
        }
        // Tier-1 backpressure: while the controller's dynamic cap is in
        // force, best-effort arrivals bounce off their own class queue
        // before they can poison it.
        let capped = st
            .slo
            .as_ref()
            .and_then(|s| s.batch_cap)
            .is_some_and(|cap| {
                spec.effective_slo() == SloClass::BestEffort
                    && st.queues.class_live(class) >= cap as usize
            });
        let rejected = if !self.budgets.feasible(&spec.reservation) {
            Some(RejectReason::Infeasible)
        } else if st.queues.len() >= self.cfg.max_queue || capped {
            Some(RejectReason::QueueFull)
        } else {
            None
        };
        if let Some(reason) = rejected {
            self.reject(st, id, t, reason);
            return Ok(());
        }
        st.queues.push_back(id, class);
        self.admit_pass(st, t)?;
        if self.cfg.preempt && st.hot[id.0 as usize].state == JobState::Queued {
            self.try_preempt(st, id, t);
        }
        Ok(())
    }

    /// Settle a job `Rejected` with its typed reason, dropping it from
    /// the wait queues if it was waiting. Every rejection goes through
    /// here: arrivals, sheds, infeasible waiters, and evicted jobs that
    /// can never fit again.
    pub(super) fn reject(
        &mut self,
        st: &mut RunState,
        id: JobId,
        t: SimTime,
        reason: RejectReason,
    ) {
        st.queues.remove(id);
        st.hot[id.0 as usize].state = JobState::Rejected;
        let rec = &mut self.jobs[id.0 as usize];
        rec.finished_at = Some(t);
        rec.reject_reason = Some(reason);
    }

    /// Reject every waiting job whose reservation can never fit the
    /// budgets now in force (after a resize or a quarantine), so the
    /// trace still totals out.
    pub(super) fn reject_infeasible_waiters(&mut self, st: &mut RunState, t: SimTime) {
        let infeasible: Vec<JobId> = st
            .queues
            .fifo_live()
            .filter(|id| {
                !self
                    .budgets
                    .feasible(&self.jobs[id.0 as usize].spec.reservation)
            })
            .collect();
        for id in infeasible {
            self.reject(st, id, t, RejectReason::Infeasible);
        }
    }

    /// One SLO control tick: sample p99-so-far, decide the tier, apply
    /// backpressure/shed/degrade/autoscale, and re-arm the next tick
    /// while the run still has pending events.
    pub(super) fn on_control(&mut self, st: &mut RunState, t: SimTime) -> Step {
        // Sheddable backlog: live waiters outside the guaranteed class.
        let backlog = (st.queues.class_live(1) + st.queues.class_live(2)) as u32;
        let Some(slo) = st.slo.as_mut() else {
            return Ok(());
        };
        let tick = slo.cfg.tick.max(SimDur::from_micros(1));
        let decision = slo.tick(t, backlog);

        // Tier 4 — autoscale: grow every un-fenced node's budget to the
        // projected percentage of its original value. Growth-only, so no
        // feasibility re-check or eviction is ever needed; fenced nodes
        // keep their zero budget but their restore target scales, so a
        // later probation restore honors the new capacity.
        if decision.scale_pct > st.slo_scale_applied {
            st.slo_scale_applied = decision.scale_pct;
            let pct = u64::from(decision.scale_pct);
            for (n, &base) in st.slo_base_budgets.clone().iter().enumerate() {
                let scaled = base.saturating_mul(pct) / 100;
                let node = NodeId(n);
                if st.quarantined.contains(&node) {
                    st.pre_fence_budget[node.0] = scaled;
                } else {
                    self.budgets.set(node, scaled.max(self.budgets.get(node)));
                }
            }
            st.resize_log.push(ResizeSample {
                at: t,
                budgets: self.budgets.snapshot(),
            });
        }

        // Tier 2 — shed queued sheddable work, newest first, best-effort
        // before standard, never the guaranteed class (class 0 is never
        // scanned and `sheddable()` re-checks the per-job class).
        if decision.shed > 0 {
            let mut victims: Vec<JobId> = Vec::new();
            for want in [SloClass::BestEffort, SloClass::Standard] {
                for class in [2usize, 1] {
                    if victims.len() >= decision.shed as usize {
                        break;
                    }
                    let quota = decision.shed as usize - victims.len();
                    victims.extend(
                        st.queues
                            .class_live_rev(class)
                            .filter(|id| {
                                let spec = &self.jobs[id.0 as usize].spec;
                                spec.effective_slo() == want && spec.effective_slo().sheddable()
                            })
                            .take(quota),
                    );
                }
            }
            for id in victims {
                let reason = if self.over_quota(st, id, t) {
                    RejectReason::QuotaExceeded
                } else {
                    RejectReason::Shed
                };
                self.reject(st, id, t, reason);
                let outcome = ShedOutcome {
                    job: id,
                    at: t,
                    class: self.jobs[id.0 as usize].spec.priority,
                    reason,
                };
                if let Some(slo) = st.slo.as_mut() {
                    slo.record_shed(outcome);
                }
            }
        }

        // A scale-up may admit immediately.
        if decision.scale_pct > 100 {
            self.admit_pass(st, t)?;
        }

        // Re-arm while anything can still happen. When both the calendar
        // and the inline slot are empty, no future event exists, nothing
        // can ever complete or arrive again, and the run is about to
        // end — re-arming then would spin forever.
        if st.events.peek().is_some() || st.inline_next.is_some() {
            let ord = st.control_ticks;
            st.control_ticks += 1;
            st.events.push((t + tick, EV_CONTROL, ord, 0));
        }
        Ok(())
    }

    /// A throttled tenant's bucket has refilled past zero: retry admission.
    pub(super) fn on_quota(&mut self, st: &mut RunState, tenant: TenantId, t: SimTime) -> Step {
        st.quota_wake.remove(&tenant);
        self.admit_pass(st, t)
    }

    // ---- per-tenant token-bucket quotas ------------------------------

    /// Refresh and return the tenant's byte-second balance at `t`.
    fn quota_balance(&self, st: &mut RunState, tenant: TenantId, t: SimTime) -> f64 {
        let Some(q) = self.cfg.tenant_quota else {
            return 0.0;
        };
        let qs = st.quota.entry(tenant).or_insert(QuotaState {
            tokens: q.burst,
            last: SimTime::ZERO,
        });
        let dt = (t - qs.last).as_secs_f64();
        qs.tokens = (qs.tokens + dt * q.refill).min(q.burst);
        qs.last = t;
        qs.tokens
    }

    /// Whether `id`'s tenant has overdrawn its quota at `t`.
    fn over_quota(&self, st: &mut RunState, id: JobId, t: SimTime) -> bool {
        let tenant = self.jobs[id.0 as usize].spec.tenant;
        self.cfg.tenant_quota.is_some() && self.quota_balance(st, tenant, t) < 0.0
    }

    /// Deduct `byte_secs` from the tenant's bucket (post-paid: the
    /// balance may go negative, throttling future admissions).
    pub(super) fn quota_charge(
        &self,
        st: &mut RunState,
        tenant: TenantId,
        byte_secs: f64,
        t: SimTime,
    ) {
        if self.cfg.tenant_quota.is_none() {
            return;
        }
        self.quota_balance(st, tenant, t);
        if let Some(qs) = st.quota.get_mut(&tenant) {
            qs.tokens -= byte_secs;
        }
    }

    /// [`over_quota`](Self::over_quota), and if so schedule
    /// (deduplicated) the virtual time at which the tenant's balance
    /// refills past zero, so admission retries exactly then instead of
    /// busy-polling.
    fn throttled(&self, st: &mut RunState, id: JobId, t: SimTime) -> bool {
        let Some(q) = self.cfg.tenant_quota else {
            return false;
        };
        let tenant = self.jobs[id.0 as usize].spec.tenant;
        let bal = self.quota_balance(st, tenant, t);
        if bal >= 0.0 {
            return false;
        }
        // `refill` is clamped ≥ 1 byte-sec/s, so the wait is finite; the
        // floor keeps rounding from producing a same-instant event loop.
        let wait = SimDur::from_secs_f64(-bal / q.refill).max(SimDur::from_micros(1));
        let wake = t + wait;
        if st
            .quota_wake
            .get(&tenant)
            .is_none_or(|&pending| pending > wake)
        {
            st.quota_wake.insert(tenant, wake);
            st.events.push((wake, EV_QUOTA, tenant.0 as u64, 0));
        }
        true
    }

    // ---- admission passes ---------------------------------------------

    /// One admission pass at virtual time `t`: admit every queued job the
    /// policy allows until nothing more fits.
    pub(super) fn admit_pass(&mut self, st: &mut RunState, t: SimTime) -> Step {
        match self.cfg.policy {
            AdmissionPolicy::Fifo => {
                // Strict serialization: whole machine to one job at a time.
                while st.active == 0 {
                    let Some(id) = st.queues.fifo_head() else {
                        break;
                    };
                    if self.throttled(st, id, t) {
                        break;
                    }
                    st.queues.remove(id);
                    self.admit(st, id, t)?;
                }
                Ok(())
            }
            AdmissionPolicy::WeightedFair => self.fair_pass(st, t),
        }
    }

    fn fair_pass(&mut self, st: &mut RunState, t: SimTime) -> Step {
        // Refresh credits once per pass for classes with waiters.
        for (c, p) in Priority::ALL.iter().enumerate() {
            if st.queues.class_head(c).is_some() {
                st.credits[c] += p.weight();
            }
        }
        loop {
            // Candidate classes by (credits desc, class rank asc).
            let mut order: Vec<usize> = (0..Priority::ALL.len())
                .filter(|&c| st.queues.class_head(c).is_some())
                .collect();
            if order.is_empty() {
                return Ok(());
            }
            order.sort_by_key(|&c| (Reverse(st.credits[c]), c));

            // Starvation guard: once a class head has been bypassed
            // `aging_limit` times, only it may admit until it does.
            if let Some(b) = st.blocked_class {
                match st.queues.class_head(b) {
                    None => st.blocked_class = None,
                    Some(id) => {
                        if self
                            .budgets
                            .fits(&st.committed, &self.jobs[id.0 as usize].spec.reservation)
                        {
                            if self.throttled(st, id, t) {
                                if self.cfg.quota_fair {
                                    // The head is held back by its tenant's
                                    // quota, not by class starvation: drop
                                    // the block (and the aging it banked)
                                    // so the rest of the machine keeps
                                    // admitting while the bucket refills.
                                    st.blocked_class = None;
                                    st.starve[b] = 0;
                                    continue;
                                }
                                return Ok(()); // throttled; retry at the wake
                            }
                            st.queues.remove(id);
                            st.credits[b] = 0;
                            st.starve[b] = 0;
                            st.blocked_class = None;
                            self.admit(st, id, t)?;
                            continue;
                        }
                        return Ok(()); // must wait for the blocked class's head
                    }
                }
            }

            let mut admitted = false;
            for (rank, &c) in order.iter().enumerate() {
                let id = match st.queues.class_head(c) {
                    Some(id) => id,
                    None => continue,
                };
                if !self
                    .budgets
                    .fits(&st.committed, &self.jobs[id.0 as usize].spec.reservation)
                {
                    continue;
                }
                if self.throttled(st, id, t) {
                    continue; // the class is throttled, not blocked
                }
                if rank > 0 {
                    // Overtook the head of every higher-credit class.
                    for &hc in &order[..rank] {
                        // With `quota_fair`, a class whose head is
                        // quota-throttled was not starved of capacity — it
                        // spent its own budget. Don't let it bank aging
                        // credit (and eventually block the machine) while
                        // throttled.
                        if self.cfg.quota_fair
                            && st
                                .queues
                                .class_head(hc)
                                .is_some_and(|hid| self.over_quota(st, hid, t))
                        {
                            continue;
                        }
                        st.starve[hc] += 1;
                        if st.starve[hc] >= self.cfg.aging_limit {
                            st.blocked_class = Some(hc);
                        }
                    }
                }
                st.queues.remove(id);
                st.credits[c] = 0;
                st.starve[c] = 0;
                self.admit(st, id, t)?;
                admitted = true;
                break;
            }
            if !admitted {
                return Ok(());
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::tests::{small_job, tree};
    use super::super::{AdmissionEventKind, SchedReport, SchedulerConfig};
    use super::*;
    use crate::job::{JobSpec, JobWork};
    use crate::reserve::{Reservation, TenantQuota};
    use crate::slo::SloConfig;

    #[test]
    fn oversized_reservations_serialize() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        let a = sched.submit(small_job("a", &tree, 0.6, 4));
        let b = sched.submit(small_job("b", &tree, 0.6, 4));
        let report = sched.run().unwrap();

        assert_eq!(report.job(a).state, JobState::Done);
        assert_eq!(report.job(b).state, JobState::Done);
        // b admitted only after a released.
        let a_release = report
            .admission_log
            .iter()
            .find(|e| e.job == a && e.kind == AdmissionEventKind::Released)
            .unwrap()
            .at;
        let b_admit = report.job(b).admitted_at.unwrap();
        assert!(b_admit >= a_release, "0.6+0.6 > 1.0 must serialize");
        // Committed bytes never exceed the budget at any sample.
        for s in &report.capacity_trace {
            assert!(s.committed <= budget, "sample {s:?} exceeds budget");
        }
        assert!(report.max_committed[dram.0] <= budget);
    }

    #[test]
    fn co_fitting_jobs_run_concurrently_and_beat_fifo() {
        let tree = tree();
        let make = |policy| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    policy,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..6 {
                s.submit(small_job(&format!("j{i}"), &tree, 0.3, 3));
            }
            s.run().unwrap()
        };
        let fair = make(AdmissionPolicy::WeightedFair);
        let fifo = make(AdmissionPolicy::Fifo);
        assert!(fair.all_terminal() && fifo.all_terminal());
        assert_eq!(fair.count(JobState::Done), 6);
        assert_eq!(fifo.count(JobState::Done), 6);
        assert!(
            fair.throughput > fifo.throughput,
            "concurrent admission ({:.2} jobs/s) must beat strict FIFO ({:.2} jobs/s)",
            fair.throughput,
            fifo.throughput
        );
    }

    #[test]
    fn backpressure_rejects_when_queue_is_full() {
        let tree = tree();
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                max_queue: 2,
                ..SchedulerConfig::default()
            },
        );
        // One hog admitted immediately, then many waiters at the same time.
        sched.submit(small_job("hog", &tree, 0.9, 8));
        for i in 0..5 {
            sched.submit(small_job(&format!("w{i}"), &tree, 0.9, 1));
        }
        let report = sched.run().unwrap();
        assert!(
            report.count(JobState::Rejected) >= 3,
            "{}",
            report.summary()
        );
        assert!(report.all_terminal());
    }

    #[test]
    fn infeasible_reservation_is_rejected_at_arrival() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let too_big = tree.node(dram).mem.capacity + 1;
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        let id = sched.submit(JobSpec::new(
            "whale",
            Reservation::new().with(dram, too_big),
            JobWork::new(1).read(1 << 20),
        ));
        let report = sched.run().unwrap();
        assert_eq!(report.job(id).state, JobState::Rejected);
    }

    #[test]
    fn interactive_class_is_favored_but_batch_not_starved() {
        let tree = tree();
        let mut sched = JobScheduler::new(
            tree.clone(),
            SchedulerConfig {
                aging_limit: 4,
                ..SchedulerConfig::default()
            },
        );
        // A stream where everything co-fits two-at-a-time.
        for i in 0..4 {
            sched.submit(small_job(&format!("b{i}"), &tree, 0.45, 2).priority(Priority::Batch));
        }
        for i in 0..4 {
            sched.submit(
                small_job(&format!("i{i}"), &tree, 0.45, 2).priority(Priority::Interactive),
            );
        }
        let report = sched.run().unwrap();
        assert_eq!(report.count(JobState::Done), 8);
        // Every batch job finished — no starvation.
        for j in &report.jobs {
            assert_eq!(j.state, JobState::Done, "{} starved", j.name);
        }
    }

    #[test]
    fn tenant_quota_throttles_heavy_tenant() {
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        // Two jobs that cannot co-fit: q2 normally starts the instant q1
        // releases. The post-paid charge at q1's release overdraws the
        // small bucket, so with a quota q2 must additionally wait for the
        // refill.
        let bytes = (tree.node(dram).mem.capacity as f64 * 0.6) as u64;
        let build = |quota| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    tenant_quota: quota,
                    ..SchedulerConfig::default()
                },
            );
            let t0 = TenantId(7);
            let mk = |name: &str| {
                JobSpec::new(
                    name,
                    Reservation::new().with(dram, bytes),
                    JobWork::new(4)
                        .read(32 << 20)
                        .xfer(32 << 20)
                        .compute(SimDur::from_millis(2)),
                )
                .tenant(t0)
            };
            s.submit(mk("q1"));
            s.submit(mk("q2"));
            s.run().unwrap()
        };
        let free = build(None);
        let quota = build(Some(TenantQuota::new(
            bytes as f64 * 0.01,
            bytes as f64 * 0.1,
        )));
        assert!(free.all_terminal() && quota.all_terminal());
        assert_eq!(quota.count(JobState::Done), 2);
        assert!(
            quota.makespan > free.makespan,
            "throttled tenant ({:?}) must finish later than unthrottled ({:?})",
            quota.makespan,
            free.makespan
        );
    }

    #[test]
    fn quota_fair_keeps_batch_flowing_past_a_throttled_head() {
        // A heavy interactive tenant overdraws its token bucket; its next
        // job sits at the head of the interactive class while the bucket
        // refills. Without `quota_fair` the throttled head banks aging
        // credit, trips the starvation guard, and the guard then stalls
        // *every* class until the quota wake. With `quota_fair` the
        // throttled head is recognised as quota-limited rather than
        // starved, so the batch tenant keeps admitting through the
        // refill window and finishes strictly earlier.
        let tree = tree();
        let dram = tree.children(tree.root())[0];
        let cap = tree.node(dram).mem.capacity as f64;
        let heavy = (cap * 0.6) as u64;
        let light = (cap * 0.25) as u64;
        let t_heavy = TenantId(7);
        let build = |quota_fair| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    aging_limit: 2,
                    // Tiny bucket, slow refill: the heavy job's post-paid
                    // release charge overdraws it for a long stretch of
                    // virtual time, while each light batch job's charge
                    // stays well inside its own tenant's bucket.
                    tenant_quota: Some(TenantQuota::new(cap * 0.01, cap * 0.05)),
                    quota_fair,
                    ..SchedulerConfig::default()
                },
            );
            let mk_heavy = |name: &str| {
                JobSpec::new(
                    name,
                    Reservation::new().with(dram, heavy),
                    JobWork::new(6)
                        .read(32 << 20)
                        .xfer(32 << 20)
                        .compute(SimDur::from_millis(2)),
                )
                .tenant(t_heavy)
                .priority(Priority::Interactive)
            };
            s.submit(mk_heavy("hog"));
            s.submit(mk_heavy("throttled").arrival(SimTime::from_secs_f64(0.0001)));
            for i in 0..5 {
                s.submit(
                    JobSpec::new(
                        format!("b{i}"),
                        Reservation::new().with(dram, light),
                        JobWork::new(1)
                            .read(16 << 20)
                            .xfer(16 << 20)
                            .compute(SimDur::from_millis(1)),
                    )
                    .priority(Priority::Batch)
                    .arrival(SimTime::from_secs_f64(0.0002)),
                );
            }
            s.run().unwrap()
        };
        let fair = build(true);
        let strict = build(false);
        assert!(fair.all_terminal() && strict.all_terminal());
        assert_eq!(fair.count(JobState::Done), 7, "{}", fair.summary());
        assert_eq!(strict.count(JobState::Done), 7, "{}", strict.summary());
        let last_batch = |r: &SchedReport| {
            r.jobs
                .iter()
                .filter(|j| j.priority == Priority::Batch)
                .filter_map(|j| j.finished_at)
                .max()
                .unwrap()
        };
        assert!(
            last_batch(&fair) < last_batch(&strict),
            "quota-fair batch tail {:?} must beat strict batch tail {:?}",
            last_batch(&fair),
            last_batch(&strict)
        );
    }

    #[test]
    fn idle_slo_controller_never_perturbs_the_schedule() {
        // A controller whose targets are never breached observes but
        // must not act: the schedule is identical to a controller-free
        // run (the control tick only reads completions).
        let tree = tree();
        let build = |slo: Option<SloConfig>| {
            let mut s = JobScheduler::new(
                tree.clone(),
                SchedulerConfig {
                    slo,
                    ..SchedulerConfig::default()
                },
            );
            for i in 0..8 {
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.3, 3)
                        .priority(Priority::ALL[i % 3])
                        .arrival(SimTime::from_secs_f64(0.002 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let off = build(None);
        let on = build(Some(
            SloConfig::default().interactive_target(SimDur::from_secs_f64(3600.0)),
        ));
        assert_eq!(off.admission_order, on.admission_order);
        assert_eq!(off.makespan, on.makespan);
        assert_eq!(off.capacity_trace, on.capacity_trace);
        assert!(on.slo_log.iter().all(|s| s.tier == 0 && s.shed_now == 0));
        assert!(on.shed_log.is_empty());
        assert_eq!(on.capacity_needed_pct, 100);
        assert!(off.slo_log.is_empty(), "no controller, no samples");
    }
}
