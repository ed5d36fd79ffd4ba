//! The report a run produces: per-job outcomes, aggregate service
//! metrics, and the audit trails the acceptance tests inspect.

use super::{JobScheduler, RunState};
use crate::job::{JobId, JobState, Priority, TenantId};
use crate::reserve::Reservation;
use crate::slo::{percentile_of, RejectReason, ShedOutcome, SloSample};
use northup::fault::FaultKind;
use northup::NodeId;
use northup_sim::{SimDur, SimTime};
use std::collections::BTreeMap;

/// One checkpoint spill: a displaced job's in-flight staging ring written
/// back to the root store at its eviction boundary.
///
/// Checkpoint-spill accounting has been removed, so no run records one:
/// [`SchedReport::spill_log`] is always empty. The type and the log are
/// kept only so existing readers of the report (the benchmark) still
/// compile and old report digests still fold the same stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpillSample {
    /// Virtual time the writeback was booked (the eviction boundary).
    pub at: SimTime,
    /// The displaced job whose staging ring spilled.
    pub job: JobId,
    /// Bytes written back (the job's per-chunk transfer footprint).
    pub bytes: u64,
    /// Virtual time the root store finished absorbing the writeback.
    pub done: SimTime,
}

/// One admission-log entry: capacity committed or released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionEvent {
    /// Virtual time of the transition.
    pub at: SimTime,
    /// The job whose reservation moved.
    pub job: JobId,
    /// Committed (admission) or credited back (terminal transition or
    /// eviction).
    pub kind: AdmissionEventKind,
}

/// Direction of an [`AdmissionEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionEventKind {
    /// The job's reservation was committed against the budgets.
    Admitted,
    /// The job's reservation was credited back at a terminal transition.
    Released,
    /// The job was evicted at a chunk boundary; its reservation was
    /// credited back and it re-queued with its checkpoint.
    Preempted,
    /// The job was displaced by a fault (persistent fault, exhausted
    /// retries, or a quarantined node on its chain); its reservation was
    /// credited back and it re-queued for re-placement on a surviving
    /// leaf, keeping its checkpoint.
    FaultEvicted,
}

/// Committed bytes on one node right after an admission-log transition —
/// the raw series behind the "never exceeds budget" acceptance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacitySample {
    /// Virtual time of the sample.
    pub at: SimTime,
    /// Sampled node.
    pub node: NodeId,
    /// Committed bytes on `node` after the transition.
    pub committed: u64,
}

/// One completed chunk: the raw series behind the "every chunk executes
/// exactly once across evictions" acceptance check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkSample {
    /// Virtual completion time of the chunk.
    pub at: SimTime,
    /// The job the chunk belongs to.
    pub job: JobId,
    /// Chunk index within the job (0-based).
    pub index: u32,
}

/// One injected fault: the raw series behind the chaos acceptance
/// checks (and the bit-identity comparison between seeded runs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSample {
    /// Virtual time the fault was observed (at stage booking).
    pub at: SimTime,
    /// The faulted node (the stage's failure domain).
    pub node: NodeId,
    /// The job whose stage faulted.
    pub job: JobId,
    /// Transient (retryable) or persistent (counts toward quarantine).
    pub kind: FaultKind,
    /// The per-node operation ordinal the plan keyed the decision on.
    pub ordinal: u64,
}

/// One node quarantine: after [`SchedulerConfig::quarantine_after`](super::SchedulerConfig::quarantine_after)
/// persistent faults the node is fenced — budget zeroed, in-flight
/// chains re-routed, reservations touching it rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QuarantineSample {
    /// Virtual time the node was fenced.
    pub at: SimTime,
    /// The quarantined node.
    pub node: NodeId,
    /// Persistent faults observed on the node when it was fenced.
    pub faults: u32,
}

/// One probation restore: a fenced node survived its fault-free window
/// and got its pre-fence budget back.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RestoreSample {
    /// Virtual time the node was restored.
    pub at: SimTime,
    /// The restored node.
    pub node: NodeId,
    /// Which probe (1-based, across the node's lifetime) succeeded —
    /// later attempts mean the node flapped and waited through longer
    /// hysteresis windows.
    pub attempt: u32,
    /// Budget bytes given back.
    pub budget: u64,
}

/// Per-job fault accounting in the [`JobOutcome`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultOutcome {
    /// Transient faults the job's stages observed.
    pub transient: u32,
    /// Persistent faults the job's stages observed (including transient
    /// faults that exhausted their retries).
    pub persistent: u32,
    /// Retries performed (each after a backoff).
    pub retries: u32,
    /// Total virtual time spent backing off.
    pub backoff: SimDur,
    /// Fault-driven displacements: evictions that re-placed the job on a
    /// surviving leaf (checkpoint intact — no chunk ran twice).
    pub reroutes: u32,
}

impl FaultOutcome {
    /// True when the job observed any fault at all.
    pub fn affected(&self) -> bool {
        self.transient > 0 || self.persistent > 0 || self.reroutes > 0
    }
}

/// One applied budget reconfiguration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResizeSample {
    /// Virtual time the new budgets took effect.
    pub at: SimTime,
    /// The per-node budgets now in force (index = `NodeId.0`).
    pub budgets: Vec<u64>,
}

/// Final per-job record in the [`SchedReport`].
#[derive(Debug, Clone)]
pub struct JobOutcome {
    /// Job id (submission order).
    pub id: JobId,
    /// Submitter-chosen name.
    pub name: String,
    /// Owning tenant.
    pub tenant: TenantId,
    /// Admission class.
    pub priority: Priority,
    /// Terminal state (always terminal after `run`).
    pub state: JobState,
    /// Arrival time from the trace.
    pub arrival: SimTime,
    /// When the reservation was (last) committed, if ever.
    pub admitted_at: Option<SimTime>,
    /// When the job reached its terminal state.
    pub finished_at: Option<SimTime>,
    /// Leaf the job was (last) placed on, if admitted.
    pub leaf: Option<NodeId>,
    /// The reservation the job declared (and held while admitted).
    pub reservation: Reservation,
    /// Chunks the job completed (equals the spec's chunk count for
    /// `Done` jobs, a strict prefix otherwise).
    pub chunks_done: u32,
    /// How many times the job was evicted and later resumed.
    pub preemptions: u32,
    /// Fault accounting: faults observed, retries, backoff, re-routes.
    pub fault: FaultOutcome,
    /// Why the job was rejected (`None` for every other terminal state):
    /// the typed split of backpressure vs. shed vs. infeasible that the
    /// bare rejection count used to hide.
    pub reject_reason: Option<RejectReason>,
    /// Deepest [`DegradeLevel`](crate::slo::DegradeLevel) rank any of this job's admissions
    /// compiled at (0 = always full fidelity).
    pub degrade: u8,
}

impl JobOutcome {
    /// Arrival→finish latency for completed jobs.
    pub fn latency(&self) -> Option<SimDur> {
        match (self.state, self.finished_at) {
            (JobState::Done, Some(end)) => Some(end - self.arrival),
            _ => None,
        }
    }

    /// For jobs that were admitted: the reservation as a runtime lease.
    /// Install it with `Runtime::install_lease` so the job's `Ctx::alloc`
    /// calls draw from the admitted capacity.
    pub fn lease(&self) -> Option<std::sync::Arc<northup::CapacityLease>> {
        self.admitted_at?;
        Some(self.reservation.to_lease())
    }
}

/// Everything `run` learned: per-job outcomes plus aggregate service
/// metrics and the audit trails the acceptance tests inspect.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// One record per submitted job, in `JobId` order.
    pub jobs: Vec<JobOutcome>,
    /// Last terminal transition (virtual time of the full trace).
    pub makespan: SimDur,
    /// Completed jobs per virtual second.
    pub throughput: f64,
    /// Median arrival→finish latency over completed jobs.
    pub p50_latency: SimDur,
    /// 99th-percentile arrival→finish latency over completed jobs.
    pub p99_latency: SimDur,
    /// Rejected jobs / submitted jobs.
    pub rejection_rate: f64,
    /// Jobs in the order their reservations were committed (re-admissions
    /// after eviction appear again).
    pub admission_order: Vec<JobId>,
    /// Every commit/release/evict transition.
    pub admission_log: Vec<AdmissionEvent>,
    /// Committed bytes per touched node after every transition.
    pub capacity_trace: Vec<CapacitySample>,
    /// Peak committed bytes ever observed per node, dense by `NodeId.0`
    /// (zero for nodes no reservation ever touched).
    pub max_committed: Vec<u64>,
    /// Every completed chunk, in completion order.
    pub chunk_log: Vec<ChunkSample>,
    /// Every applied budget reconfiguration, in effect order.
    pub resize_log: Vec<ResizeSample>,
    /// Eviction-request → eviction-effect delay of every preemption (how
    /// long the victim's in-flight chunk kept the capacity occupied).
    pub preemption_latencies: Vec<SimDur>,
    /// Every injected fault, in observation order (empty without a
    /// [`SchedulerConfig::fault_plan`](super::SchedulerConfig::fault_plan)).
    pub fault_log: Vec<FaultSample>,
    /// Every node quarantine, in fencing order.
    pub quarantine_log: Vec<QuarantineSample>,
    /// Every probation restore, in restore order (empty without a
    /// [`SchedulerConfig::probation`](super::SchedulerConfig::probation) policy).
    pub restore_log: Vec<RestoreSample>,
    /// Always empty: kept only for existing readers and old digests
    /// (see [`SpillSample`]).
    pub spill_log: Vec<SpillSample>,
    /// Scheduler events processed by the run loop — the raw unit of the
    /// event-engine throughput metric (events/sec) tracked by the bench
    /// harness.
    pub events: u64,
    /// Every job the SLO controller shed, in shed order (empty without
    /// [`SchedulerConfig::slo`](super::SchedulerConfig::slo)).
    pub shed_log: Vec<ShedOutcome>,
    /// One observation per control tick: p99s, pressure, tier, brownout
    /// level, cap, and applied scale (empty without
    /// [`SchedulerConfig::slo`](super::SchedulerConfig::slo)).
    pub slo_log: Vec<SloSample>,
    /// The controller's capacity-planning answer: the peak projected
    /// capacity this trace needed to meet the guaranteed-class SLO, in
    /// percent of the configured budgets (100 = they sufficed; always
    /// 100 without [`SchedulerConfig::slo`](super::SchedulerConfig::slo)).
    pub capacity_needed_pct: u32,
}

impl SchedReport {
    /// Outcome of one job.
    pub fn job(&self, id: JobId) -> &JobOutcome {
        &self.jobs[id.0 as usize]
    }

    /// Peak committed bytes per *touched* node, as `(node, peak)` pairs
    /// in node order. A touched node's peak is always ≥ 1 byte (empty
    /// reservation entries never exist), so the pair stream is
    /// independent of how the engine stores the accounting — the
    /// representation [`report_digest`](crate::digest::report_digest)
    /// folds.
    pub fn max_committed_pairs(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.max_committed
            .iter()
            .enumerate()
            .filter(|(_, &b)| b > 0)
            .map(|(n, &b)| (NodeId(n), b))
    }

    /// Count of jobs that ended in `state`.
    pub fn count(&self, state: JobState) -> usize {
        self.jobs.iter().filter(|j| j.state == state).count()
    }

    /// True when every submitted job reached a terminal state.
    pub fn all_terminal(&self) -> bool {
        self.jobs.iter().all(|j| j.state.is_terminal())
    }

    /// Total evictions across all jobs.
    pub fn total_preemptions(&self) -> usize {
        self.jobs.iter().map(|j| j.preemptions as usize).sum()
    }

    /// Mean eviction-request → eviction-effect delay (zero when nothing
    /// was preempted).
    pub fn mean_preemption_latency(&self) -> SimDur {
        if self.preemption_latencies.is_empty() {
            return SimDur::ZERO;
        }
        let total: f64 = self
            .preemption_latencies
            .iter()
            .map(|d| d.as_secs_f64())
            .sum();
        SimDur::from_secs_f64(total / self.preemption_latencies.len() as f64)
    }

    /// Total transient-fault retries across all jobs.
    pub fn total_retries(&self) -> u64 {
        self.jobs.iter().map(|j| u64::from(j.fault.retries)).sum()
    }

    /// Total virtual time all jobs spent backing off.
    pub fn total_backoff(&self) -> SimDur {
        let secs: f64 = self
            .jobs
            .iter()
            .map(|j| j.fault.backoff.as_secs_f64())
            .sum();
        SimDur::from_secs_f64(secs)
    }

    /// Jobs that completed despite observing at least one fault — the
    /// headline number of a chaos run.
    pub fn jobs_recovered(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.state == JobState::Done && j.fault.affected())
            .count()
    }

    /// Nodes quarantined during the run, in fencing order.
    pub fn quarantined_nodes(&self) -> Vec<NodeId> {
        self.quarantine_log.iter().map(|q| q.node).collect()
    }

    /// Nodes restored by probation during the run, in restore order.
    pub fn restored_nodes(&self) -> Vec<NodeId> {
        self.restore_log.iter().map(|r| r.node).collect()
    }

    /// Sub-threshold fault pressure per node: persistent faults observed
    /// on each node over the run. This is the same signal fault-aware
    /// placement biases on, exposed so a federation router can fold one
    /// shard's accumulated trouble into its cross-shard scoring.
    pub fn node_fault_pressure(&self) -> BTreeMap<NodeId, u32> {
        let mut pressure: BTreeMap<NodeId, u32> = BTreeMap::new();
        for f in &self.fault_log {
            if f.kind == FaultKind::Persistent {
                *pressure.entry(f.node).or_insert(0) += 1;
            }
        }
        pressure
    }

    /// Rejected jobs whose typed reason is `reason`.
    pub fn rejected_for(&self, reason: RejectReason) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.reject_reason == Some(reason))
            .count()
    }

    /// Sorted arrival→finish latencies of completed jobs in `class`.
    pub fn class_latencies(&self, class: Priority) -> Vec<SimDur> {
        let mut lats: Vec<SimDur> = self
            .jobs
            .iter()
            .filter(|j| j.priority == class)
            .filter_map(JobOutcome::latency)
            .collect();
        lats.sort_unstable();
        lats
    }

    /// 99th-percentile completion latency of `class` (integer-index
    /// percentile; `SimDur::ZERO` with no completions).
    pub fn class_p99(&self, class: Priority) -> SimDur {
        percentile_of(&self.class_latencies(class), 99)
    }

    /// Jobs that ran at least one admission below full fidelity
    /// (brownout degradation).
    pub fn degraded_jobs(&self) -> usize {
        self.jobs.iter().filter(|j| j.degrade > 0).count()
    }

    /// One-line human summary for drivers and examples.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "{} jobs: {} done, {} rejected, {} cancelled | makespan {:.3} s | \
             {:.2} jobs/s | p50 {:.3} s | p99 {:.3} s | reject {:.1}% | {} preemptions",
            self.jobs.len(),
            self.count(JobState::Done),
            self.count(JobState::Rejected),
            self.count(JobState::Cancelled),
            self.makespan.as_secs_f64(),
            self.throughput,
            self.p50_latency.as_secs_f64(),
            self.p99_latency.as_secs_f64(),
            self.rejection_rate * 100.0,
            self.total_preemptions(),
        );
        if !self.fault_log.is_empty() || !self.quarantine_log.is_empty() {
            s.push_str(&format!(
                " | {} faults, {} retries ({:.3} s backoff), {} recovered, \
                 {} failed, {} quarantined, {} restored",
                self.fault_log.len(),
                self.total_retries(),
                self.total_backoff().as_secs_f64(),
                self.jobs_recovered(),
                self.count(JobState::Failed),
                self.quarantine_log.len(),
                self.restore_log.len(),
            ));
        }
        if !self.slo_log.is_empty() {
            s.push_str(&format!(
                " | slo: {} ticks, {} shed, {} degraded, capacity needed {}%",
                self.slo_log.len(),
                self.shed_log.len(),
                self.degraded_jobs(),
                self.capacity_needed_pct,
            ));
        }
        s
    }
}

impl JobScheduler {
    /// Consume the run's state into the report.
    pub(super) fn into_report(self, mut st: RunState) -> SchedReport {
        // Pull the controller's logs out before `st.hot` is borrowed by
        // the outcome map below.
        let (shed_log, slo_log, capacity_needed_pct) = match st.slo.take() {
            Some(slo) => (slo.sheds, slo.log, slo.needed_pct),
            None => (Vec::new(), Vec::new(), 100),
        };
        let jobs: Vec<JobOutcome> = self
            .jobs
            .into_iter()
            .zip(&st.hot)
            .enumerate()
            .map(|(i, (rec, h))| JobOutcome {
                id: JobId(i as u64),
                name: rec.spec.name,
                tenant: rec.spec.tenant,
                priority: rec.spec.priority,
                state: h.state,
                arrival: rec.spec.arrival,
                admitted_at: rec.admitted_at,
                finished_at: rec.finished_at,
                leaf: rec.leaf,
                reservation: rec.spec.reservation,
                chunks_done: h.chunks_done,
                preemptions: rec.preemptions,
                fault: FaultOutcome {
                    transient: rec.faults_transient,
                    persistent: rec.faults_persistent,
                    retries: rec.retries,
                    backoff: rec.backoff_total,
                    reroutes: rec.reroutes,
                },
                reject_reason: rec.reject_reason,
                degrade: rec.degrade,
            })
            .collect();

        let makespan = jobs
            .iter()
            .filter_map(|j| j.finished_at)
            .max()
            .map(|end| end - SimTime::ZERO)
            .unwrap_or(SimDur::ZERO);
        let count = |s: JobState| jobs.iter().filter(|j| j.state == s).count() as f64;
        let secs = makespan.as_secs_f64();
        let throughput = if secs > 0.0 {
            count(JobState::Done) / secs
        } else {
            0.0
        };
        let rejection_rate = count(JobState::Rejected) / jobs.len().max(1) as f64;
        let lats: Vec<SimDur> = jobs.iter().filter_map(JobOutcome::latency).collect();

        SchedReport {
            makespan,
            throughput,
            p50_latency: percentile_of(&lats, 50),
            p99_latency: percentile_of(&lats, 99),
            rejection_rate,
            admission_order: st.admission_order,
            admission_log: st.admission_log,
            capacity_trace: st.capacity_trace,
            max_committed: st.max_committed,
            chunk_log: st.chunk_log,
            resize_log: st.resize_log,
            preemption_latencies: st.preemption_latencies,
            fault_log: st.fault_log,
            quarantine_log: st.quarantine_log,
            restore_log: st.restore_log,
            spill_log: Vec::new(),
            shed_log,
            slo_log,
            capacity_needed_pct,
            events: st.events_processed,
            jobs,
        }
    }
}
