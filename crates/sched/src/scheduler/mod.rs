//! The multi-tenant job scheduler: admission control, weighted fair
//! queueing, placement, chunk-granular preemption, live budget
//! reconfiguration, and the deterministic virtual-time co-simulation.
//!
//! [`JobScheduler`] accepts a batch of [`JobSpec`]s (an arrival trace),
//! then [`JobScheduler::run`] replays it event by event in virtual time:
//!
//! 1. **Arrival** — infeasible reservations and queue overflow are
//!    rejected (backpressure); everything else queues in its priority
//!    class. With [`SchedulerConfig::preempt`] enabled, an arrival that
//!    cannot fit may mark strictly-lower-priority running jobs for
//!    eviction at their next chunk boundary.
//! 2. **Admission** — a weighted-fair pass over the class queues commits
//!    each admitted job's [`Reservation`] against the [`NodeBudgets`];
//!    the invariant `committed(node) ≤ budget(node)` holds at every
//!    virtual instant (for the budgets in force — see resize below). A
//!    starvation guard blocks further bypasses once a class head has
//!    been overtaken `aging_limit` times. Per-tenant token-bucket quotas
//!    ([`SchedulerConfig::tenant_quota`]) throttle tenants that have
//!    overdrawn their byte-second allowance.
//! 3. **Execution** — admitted jobs issue sequential chunks on the shared
//!    [`SimFabric`]; each chunk is the compiled stage chain of
//!    [`northup::fabric::build_chain`], so contention on root storage and
//!    links is visible in completion times. Placement picks the leaf
//!    whose subtree has the shallowest work queues (the paper's §V-E
//!    subtree-status check).
//! 4. **Release** — at a job's terminal transition its reservation is
//!    credited back and another admission pass runs. A *preempted* job
//!    releases too, but keeps its [`Checkpoint`]: completed chunks are
//!    never re-run; the job re-queues at the front of its class and
//!    resumes from its next unprocessed chunk when capacity returns.
//! 5. **Resize** — [`JobScheduler::resize_budgets`] swaps the budgets in
//!    force at a chosen virtual time. [`ResizeDrain::Drain`] lets
//!    over-committed jobs finish (committed bytes may transiently exceed
//!    a *shrunk* budget, never grow); [`ResizeDrain::Preempt`] evicts
//!    running jobs at their chunk boundaries until the commitment fits.
//!    Queued jobs whose reservation can never fit under the new budgets
//!    are rejected, preserving terminal totality.
//! 6. **Faults** — with a [`SchedulerConfig::fault_plan`] installed,
//!    every stage booking first consults the seeded plan (DESIGN.md
//!    §10). A *transient* fault re-books the same stage after an
//!    exponential [`RetryPolicy`] backoff charged in virtual time; a
//!    *persistent* fault (or an exhausted retry budget) counts the
//!    node toward [`SchedulerConfig::quarantine_after`], after which
//!    the node is fenced: budget zeroed, infeasible queued jobs
//!    rejected, and in-flight chains fault-evicted at the next chunk
//!    boundary to re-place on a surviving leaf from their checkpoint —
//!    bounded per job by [`SchedulerConfig::max_job_faults`]. All of it
//!    is accounted in [`SchedReport::fault_log`],
//!    [`SchedReport::quarantine_log`], and each job's [`FaultOutcome`].
//!
//! Everything is keyed on ordered integers (`SimTime`, event kind,
//! `JobId`), so one trace + one config ⇒ one schedule, bit for bit —
//! including chaos runs: fault decisions and backoff jitter are pure
//! hashes of (plan seed, node, booking ordinal), never OS entropy.
//! Preemption, quotas, resizes, and fault plans are all off by default
//! and leave the schedule untouched when unused.
//!
//! This file holds the configuration, the job arenas, and the run loop;
//! each other concern has its own file (DESIGN.md §8 maps them).
//!
//! [`Checkpoint`]: northup::fabric::Checkpoint

mod admission;
mod displace;
mod faults;
mod placement;
mod queues;
mod report;

pub use report::{
    AdmissionEvent, AdmissionEventKind, CapacitySample, ChunkSample, FaultOutcome, FaultSample,
    JobOutcome, QuarantineSample, ResizeSample, RestoreSample, SchedReport, SpillSample,
};

use crate::calendar::{CalendarQueue, Event};
use crate::error::SchedError;
use crate::fabric::SimFabric;
use crate::job::{JobId, JobSpec, JobState, Priority, TenantId};
use crate::reserve::{NodeBudgets, Reservation, TenantQuota};
use crate::slo::{RejectReason, SloConfig, SloState};
use admission::QuotaState;
use northup::fault::{FaultPlan, RetryPolicy};
use northup::{NodeId, Tree, WorkQueues};
use northup_sim::{SimDur, SimTime};
use placement::ChainArena;
use queues::JobQueues;
use std::collections::{BTreeMap, BTreeSet};

/// How the scheduler decides which queued job to admit next.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionPolicy {
    /// Weighted fair admission across priority classes with a starvation
    /// guard; concurrent jobs share the machine whenever their
    /// reservations co-fit.
    WeightedFair,
    /// Strict serial FIFO: one job owns the whole machine at a time
    /// (admitted only when nothing else is admitted or running). The
    /// baseline the bench compares against.
    Fifo,
}

/// What a budget *shrink* does to jobs already over the new line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResizeDrain {
    /// Let over-committed running jobs finish; only new admissions see
    /// the tighter budgets. Committed bytes may transiently exceed a
    /// shrunk budget but never grow past the old one.
    Drain,
    /// Evict running jobs (lowest priority, most recently admitted
    /// first) at their next chunk boundary until the commitment fits
    /// under the new budgets. Evicted jobs resume from their checkpoint.
    Preempt,
}

/// Node recovery policy: how a quarantined node earns its budget back.
///
/// A fence is not forever — transient environmental trouble (a flaky
/// cable, a thermal excursion) clears, and a long fleet replay that
/// never recovers capacity drifts ever further from reality. With a
/// probation policy installed, fencing a node schedules a *probe* after
/// a probation window: the probe consults the fault plan [`Self::probes`]
/// times at fresh ordinals, and only if **every** decision comes back
/// clean is the node restored — budget back to its pre-fence value,
/// persistent-fault count reset (the node must accumulate
/// [`SchedulerConfig::quarantine_after`] fresh faults to be fenced
/// again). A dirty probe re-schedules with hysteresis: each successive
/// probe (and each restore-then-re-fence flap) multiplies the next
/// window by [`Self::backoff`], and after [`Self::max_restores`] probes
/// the node stays fenced for good — so an unstable node cannot flap
/// between fenced and live.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probation {
    /// Virtual-time window between the fence (or a failed probe) and the
    /// next probe.
    pub window: SimDur,
    /// Fault-plan consultations per probe; all must be clean to restore.
    pub probes: u32,
    /// Window multiplier per successive probe of the same node
    /// (hysteresis; clamped to ≥ 1).
    pub backoff: u32,
    /// Total probes (and hence restores) one node may ever get; after
    /// this the fence is permanent.
    pub max_restores: u32,
}

impl Default for Probation {
    fn default() -> Self {
        Probation {
            window: SimDur::from_millis(50),
            probes: 8,
            backoff: 4,
            max_restores: 3,
        }
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Fraction of each node's capacity the scheduler may commit
    /// (see [`NodeBudgets::from_tree`]).
    pub headroom: f64,
    /// Maximum jobs waiting across all class queues before arrivals are
    /// rejected (backpressure).
    pub max_queue: usize,
    /// Admission policy.
    pub policy: AdmissionPolicy,
    /// After a class head has been bypassed this many times, no
    /// lower-credit class may overtake it again until it admits.
    pub aging_limit: u32,
    /// Chunk-granular preemption: a queued arrival that does not fit may
    /// evict strictly-lower-priority running jobs at their next chunk
    /// boundary. Off by default (schedules are unchanged when off).
    pub preempt: bool,
    /// What a live budget shrink does to jobs already over the new line.
    pub resize_drain: ResizeDrain,
    /// Per-tenant byte-second admission quota; `None` disables quotas.
    pub tenant_quota: Option<TenantQuota>,
    /// Deterministic fault injection: the seeded plan consulted at every
    /// stage booking. `None` (the default) injects nothing and leaves
    /// the schedule bit-identical to a fault-free run.
    pub fault_plan: Option<FaultPlan>,
    /// Retry policy for transiently faulted stages (bounded attempts,
    /// exponential virtual-time backoff with jitter from the plan).
    pub retry: RetryPolicy,
    /// After this many persistent faults a node is quarantined: its
    /// budget drops to zero, in-flight chains re-route to surviving
    /// leaves, and reservations touching it become infeasible.
    pub quarantine_after: u32,
    /// How many fault-driven displacements one job tolerates before it
    /// is failed (bounds chaos runs: every job stays terminal).
    pub max_job_faults: u32,
    /// Node recovery: probation window restoring a fenced node's budget
    /// after a fault-free interval, with hysteresis against flapping.
    /// `None` (the default) keeps quarantine permanent.
    pub probation: Option<Probation>,
    /// Fault-aware placement: bias leaf choice away from nodes
    /// accumulating sub-threshold persistent faults, so chains migrate
    /// *before* quarantine trips. Off by default — with no observed
    /// faults the bias is zero and schedules are untouched either way.
    pub fault_aware_placement: bool,
    /// Quota-aware fair queueing: blend each tenant's token-bucket debt
    /// into the admission pass so a throttled tenant's jobs stop
    /// consuming their class's aging budget — a throttled head neither
    /// accrues starvation counts against other classes nor blocks them
    /// via the aging guard. Off by default (and a no-op without
    /// [`SchedulerConfig::tenant_quota`]); schedules are unchanged when
    /// off.
    pub quota_fair: bool,
    /// SLO overload control: a deterministic feedback controller samples
    /// per-class completion latency on a virtual-time `EV_CONTROL` tick
    /// and defends the guaranteed class's p99 in escalating tiers —
    /// backpressure, shedding, brownout degradation, and (optionally)
    /// budget autoscaling (DESIGN.md §15). `None` (the default)
    /// schedules no control event and leaves every schedule
    /// bit-identical to the pre-SLO engine.
    pub slo: Option<SloConfig>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            headroom: 1.0,
            max_queue: 64,
            policy: AdmissionPolicy::WeightedFair,
            aging_limit: 8,
            preempt: false,
            resize_drain: ResizeDrain::Drain,
            tenant_quota: None,
            fault_plan: None,
            retry: RetryPolicy::default(),
            quarantine_after: 3,
            max_job_faults: 8,
            probation: None,
            fault_aware_placement: false,
            quota_fair: false,
            slo: None,
        }
    }
}

/// What an event handler, and everything it calls, returns: `Err` only
/// when an engine invariant breaks.
type Step = Result<(), SchedError>;

/// Event kinds, in processing order at equal virtual time: completions
/// free capacity first, then backed-off stages retry; cancellations and
/// budget/quota changes take effect before new arrivals are considered.
const EV_STAGE_DONE: u8 = 0;
const EV_RETRY: u8 = 1;
const EV_CANCEL: u8 = 2;
const EV_RESIZE: u8 = 3;
const EV_QUOTA: u8 = 4;
const EV_ARRIVAL: u8 = 5;
/// Probation probe of a fenced node (after arrivals at the same instant,
/// so a restore at time t serves queued work from t onward, not a
/// same-instant arrival race).
const EV_PROBE: u8 = 6;
/// SLO control tick (last at equal time, so the controller observes the
/// instant's completions and arrivals before it reacts). Scheduled only
/// with [`SchedulerConfig::slo`]; the handler re-arms the next tick.
const EV_CONTROL: u8 = 7;

/// Sentinel chain index of a job that currently has no placement.
const CHAIN_NONE: u32 = u32::MAX;

/// Eviction/cancellation marks carried in [`HotJob::flags`].
///
/// `F_CANCEL` — cancellation honored at the chunk boundary.
/// `F_PREEMPT` — marked by a higher-priority arrival; revalidated at the
/// boundary (the pressure may have passed).
/// `F_RESIZE` — marked by a budget shrink; unconditional at the boundary.
/// `F_FAULT` — a fenced node lies on the job's chain; displaced at the
/// boundary (or at the next stage booking, whichever comes first).
const F_CANCEL: u8 = 1 << 0;
const F_PREEMPT: u8 = 1 << 1;
const F_RESIZE: u8 = 1 << 2;
const F_FAULT: u8 = 1 << 3;

/// The per-event job state, packed dense so the run loop's random access
/// per `EV_STAGE_DONE` touches one 20-byte record instead of a fat
/// [`JobRec`]. At 10^6-job scale hundreds of thousands of jobs are
/// resident at once; the event loop visits them in arbitrary order, so
/// the working set of this array (not the cold spec/accounting records)
/// decides the cache and TLB hit rate of the whole engine.
#[derive(Debug, Clone, Copy)]
struct HotJob {
    /// Index of the job's compiled chain in the run's [`ChainArena`]
    /// ([`CHAIN_NONE`] while unplaced). Chains are interned by (leaf,
    /// work shape), so a million admissions share a handful of compiled
    /// chains instead of allocating stage vectors each.
    chain: u32,
    chunks_done: u32,
    /// Cached `spec.work.chunks` (hot-loop bound).
    chunks_total: u32,
    stage_idx: u16,
    /// Cached `stages.len()` of the interned chain (hot-loop bound).
    chain_len: u16,
    state: JobState,
    /// `F_CANCEL | F_PREEMPT | F_RESIZE | F_FAULT` marks, honored at the
    /// chunk boundary.
    flags: u8,
}

/// The cold per-job record: the spec plus accounting touched only at
/// admission, displacement, and terminal transitions — never on the
/// per-stage hot path (that state lives in [`HotJob`]).
#[derive(Debug)]
struct JobRec {
    spec: JobSpec,
    admitted_at: Option<SimTime>,
    finished_at: Option<SimTime>,
    leaf: Option<NodeId>,
    task: Option<northup::TaskId>,
    /// When an eviction was requested (for the latency report).
    preempt_requested_at: Option<SimTime>,
    preemptions: u32,
    /// Failed serve attempts of the current stage (reset on a clean
    /// booking and on displacement).
    stage_attempts: u32,
    /// Fault accounting, reported as the job's [`FaultOutcome`].
    faults_transient: u32,
    faults_persistent: u32,
    retries: u32,
    backoff_total: SimDur,
    reroutes: u32,
    /// Typed reason if the job was rejected (arrival backpressure,
    /// controller shed, or infeasibility).
    reject_reason: Option<RejectReason>,
    /// Deepest brownout rank any admission of this job compiled at.
    degrade: u8,
}

/// The multi-tenant scheduler. Submit jobs, then [`run`](Self::run) the
/// deterministic co-simulation to a [`SchedReport`].
#[derive(Debug)]
pub struct JobScheduler {
    tree: Tree,
    cfg: SchedulerConfig,
    budgets: NodeBudgets,
    pending_resizes: Vec<(SimTime, NodeBudgets)>,
    jobs: Vec<JobRec>,
}

impl JobScheduler {
    /// A scheduler over `tree` with budgets derived from its device
    /// capacities scaled by `cfg.headroom`.
    pub fn new(tree: Tree, cfg: SchedulerConfig) -> Self {
        let budgets = NodeBudgets::from_tree(&tree, cfg.headroom);
        JobScheduler {
            tree,
            cfg,
            budgets,
            pending_resizes: Vec::new(),
            jobs: Vec::new(),
        }
    }

    /// The admission budgets in force (before `run`, the initial ones).
    pub fn budgets(&self) -> &NodeBudgets {
        &self.budgets
    }

    /// Submit a job; returns its id. Jobs may be submitted in any order —
    /// `run` replays them by arrival time.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.jobs.len() as u64);
        self.jobs.push(JobRec {
            spec,
            admitted_at: None,
            finished_at: None,
            leaf: None,
            task: None,
            preempt_requested_at: None,
            preemptions: 0,
            stage_attempts: 0,
            faults_transient: 0,
            faults_persistent: 0,
            retries: 0,
            backoff_total: SimDur::ZERO,
            reroutes: 0,
            reject_reason: None,
            degrade: 0,
        });
        id
    }

    /// Request cancellation of `id` at virtual time `at` (same effect as
    /// submitting the spec with [`JobSpec::cancel_at`]).
    pub fn cancel(&mut self, id: JobId, at: SimTime) {
        if let Some(rec) = self.jobs.get_mut(id.0 as usize) {
            rec.spec.cancel_at = Some(at);
        }
    }

    /// Schedule a live budget reconfiguration: at virtual time `at` the
    /// given budgets replace the ones in force. Shrinks follow
    /// [`SchedulerConfig::resize_drain`]; growths simply admit more.
    /// Queued jobs whose reservation can never fit under the new budgets
    /// are rejected when the resize lands.
    pub fn resize_budgets(&mut self, at: SimTime, budgets: NodeBudgets) {
        self.pending_resizes.push((at, budgets));
    }

    /// Replay the submitted trace in virtual time and consume the
    /// scheduler. Deterministic: same trace + same config ⇒ same report.
    /// Errors surface violated internal invariants as [`SchedError`]
    /// instead of panicking the embedding service.
    pub fn run(mut self) -> Result<SchedReport, SchedError> {
        let mut st = RunState::new(&self.tree, &self.cfg, &self.jobs);

        // Seed arrivals (and standalone cancellations of queued jobs).
        for (i, rec) in self.jobs.iter().enumerate() {
            let id = i as u64;
            st.events.push((rec.spec.arrival, EV_ARRIVAL, id, 0));
            if let Some(t) = rec.spec.cancel_at {
                st.events.push((t, EV_CANCEL, id, 0));
            }
        }
        for (i, (at, _)) in self.pending_resizes.iter().enumerate() {
            st.events.push((*at, EV_RESIZE, i as u64, 0));
        }
        // Seed the first SLO control tick only when the controller is
        // configured: with `slo: None` no control event ever exists and
        // the schedule is bit-identical to the pre-SLO engine.
        if let Some(slo) = &self.cfg.slo {
            st.slo_base_budgets = self.budgets.snapshot();
            st.events.push((SimTime::ZERO + slo.tick, EV_CONTROL, 0, 0));
            st.control_ticks = 1;
        }

        // The dispatch loop pops the global minimum each iteration. The
        // one-slot `inline_next` holds the stage-done event the previous
        // dispatch produced: when it is still the minimum (the common
        // case — a booked stage usually completes before anything else
        // fires) the calendar queue is bypassed entirely, but the order
        // dispatched is *exactly* the heap-era order because the slot is
        // re-checked against the queue head every iteration. Coexisting
        // events are never fully equal (a job has at most one in-flight
        // event per kind), so `<` is a total order here.
        loop {
            let ev = match st.inline_next.take() {
                Some(iv) => match st.events.peek() {
                    Some(head) if head < iv => {
                        st.events.push(iv);
                        match st.events.pop() {
                            Some(e) => e,
                            None => break, // unreachable: just pushed
                        }
                    }
                    _ => iv,
                },
                None => match st.events.pop() {
                    Some(e) => e,
                    None => break,
                },
            };
            let (t, kind, id, _) = ev;
            st.events_processed += 1;
            match kind {
                EV_STAGE_DONE => self.on_stage_done(&mut st, JobId(id), t)?,
                EV_RETRY => self.on_retry(&mut st, JobId(id), t)?,
                EV_CANCEL => self.on_cancel(&mut st, JobId(id), t),
                EV_RESIZE => self.on_resize(&mut st, id as usize, t)?,
                EV_QUOTA => self.on_quota(&mut st, TenantId(id as u32), t)?,
                EV_ARRIVAL => self.on_arrival(&mut st, JobId(id), t)?,
                EV_PROBE => self.on_probe(&mut st, NodeId(id as usize), t)?,
                EV_CONTROL => self.on_control(&mut st, t)?,
                other => return Err(SchedError::UnknownEvent(other)),
            }
        }

        Ok(self.into_report(st))
    }

    fn on_cancel(&mut self, st: &mut RunState, id: JobId, t: SimTime) {
        match st.hot[id.0 as usize].state {
            JobState::Queued | JobState::Preempted => {
                st.queues.remove(id);
                st.hot[id.0 as usize].state = JobState::Cancelled;
                self.jobs[id.0 as usize].finished_at = Some(t);
            }
            JobState::Admitted | JobState::Running => {
                // Honored at the chunk boundary.
                st.hot[id.0 as usize].flags |= F_CANCEL;
            }
            _ => {}
        }
    }
}

/// Per-run mutable state, kept out of `JobScheduler` so `run` borrows
/// stay simple.
struct RunState {
    /// (time, kind, job, seq) pending events, popped in ascending order.
    events: CalendarQueue,
    /// One-slot successor buffer: the stage-done event the latest
    /// booking produced, held out of the calendar while it is a
    /// candidate minimum. The run loop re-checks it against the queue
    /// head before dispatching, so the schedule is exactly the heap
    /// engine's order with most push+pop pairs elided.
    inline_next: Option<Event>,
    /// Dense per-event job state ([`HotJob`]), indexed by `JobId.0` —
    /// the only per-job array the stage-done hot path touches.
    hot: Vec<HotJob>,
    queues: JobQueues,
    credits: [u64; 3],
    starve: [u32; 3],
    blocked_class: Option<usize>,
    /// Committed / peak committed bytes per node, dense by `NodeId.0`.
    committed: Vec<u64>,
    max_committed: Vec<u64>,
    chains: ChainArena,
    capacity_trace: Vec<CapacitySample>,
    admission_order: Vec<JobId>,
    admission_log: Vec<AdmissionEvent>,
    chunk_log: Vec<ChunkSample>,
    resize_log: Vec<ResizeSample>,
    preemption_latencies: Vec<SimDur>,
    quota: BTreeMap<TenantId, QuotaState>,
    quota_wake: BTreeMap<TenantId, SimTime>,
    active: usize,
    fabric: SimFabric,
    wq: WorkQueues,
    /// Per-node operation ordinals the fault plan keys its decisions on
    /// (index = `NodeId.0`). Advance only when a plan is configured, so
    /// fault-free runs stay byte-identical to pre-fault schedules.
    fault_ordinals: Vec<u64>,
    /// Persistent faults observed per node (index = `NodeId.0`).
    node_persistent: Vec<u32>,
    /// Fenced nodes: zero budget, no placements, no stage bookings.
    quarantined: BTreeSet<NodeId>,
    fault_log: Vec<FaultSample>,
    quarantine_log: Vec<QuarantineSample>,
    /// Probation probes granted per node so far (index = `NodeId.0`);
    /// bounds restores and drives the hysteresis window growth.
    node_probes: Vec<u32>,
    /// Budget each fenced node gets back if probation restores it
    /// (index = `NodeId.0`, meaningful only while the node is fenced).
    pre_fence_budget: Vec<u64>,
    restore_log: Vec<RestoreSample>,
    /// SLO feedback-controller state, `Some` only when
    /// [`SchedulerConfig::slo`] is configured.
    slo: Option<SloState>,
    /// Control ticks scheduled so far (the `EV_CONTROL` event id, so
    /// tick events are unique and ordered in the calendar).
    control_ticks: u64,
    /// Budgets at run start — the 100% reference the autoscale tier
    /// scales from (empty when no controller is configured).
    slo_base_budgets: Vec<u64>,
    /// Capacity scale currently applied by the autoscale tier, percent.
    slo_scale_applied: u32,
    /// Events the run loop processed (the events/sec numerator).
    events_processed: u64,
}

impl RunState {
    fn new(tree: &Tree, cfg: &SchedulerConfig, jobs: &[JobRec]) -> Self {
        RunState {
            events: CalendarQueue::new(),
            inline_next: None,
            hot: jobs
                .iter()
                .map(|rec| HotJob {
                    chain: CHAIN_NONE,
                    // The migration hook: a job checkpointed elsewhere
                    // starts past its already-completed chunks (clamped
                    // so a stale checkpoint cannot promise more chunks
                    // than the work declares).
                    chunks_done: rec.spec.start_chunk.min(rec.spec.work.chunks),
                    chunks_total: rec.spec.work.chunks,
                    stage_idx: 0,
                    chain_len: 0,
                    state: JobState::Queued,
                    flags: 0,
                })
                .collect(),
            queues: JobQueues::new(jobs.len()),
            credits: [0; 3],
            starve: [0; 3],
            blocked_class: None,
            committed: vec![0; tree.len()],
            max_committed: vec![0; tree.len()],
            chains: ChainArena::new(),
            capacity_trace: Vec::new(),
            admission_order: Vec::new(),
            admission_log: Vec::new(),
            chunk_log: Vec::new(),
            resize_log: Vec::new(),
            preemption_latencies: Vec::new(),
            quota: BTreeMap::new(),
            quota_wake: BTreeMap::new(),
            active: 0,
            fabric: SimFabric::new(tree),
            // One queue per node: placement reads only subtree depths,
            // which sum every queue of a node.
            wq: WorkQueues::new(tree, 1),
            fault_ordinals: vec![0; tree.len()],
            node_persistent: vec![0; tree.len()],
            quarantined: BTreeSet::new(),
            fault_log: Vec::new(),
            quarantine_log: Vec::new(),
            node_probes: vec![0; tree.len()],
            pre_fence_budget: vec![0; tree.len()],
            restore_log: Vec::new(),
            slo: cfg.slo.clone().map(SloState::new),
            control_ticks: 0,
            slo_base_budgets: Vec::new(),
            slo_scale_applied: 100,
            events_processed: 0,
        }
    }

    /// Enqueue a stage completion through the one-slot inline buffer:
    /// keep the smaller of (slot, new event) inline, push the other.
    /// The run loop's head re-check makes the dispatch order identical
    /// to a global min-heap — this only elides the queue round-trip in
    /// the common case where the freshly booked stage fires next.
    fn schedule_stage_done(&mut self, end: SimTime, id: JobId) {
        let ev = (end, EV_STAGE_DONE, id.0, 0);
        match self.inline_next {
            None => self.inline_next = Some(ev),
            Some(cur) if ev < cur => {
                self.events.push(cur);
                self.inline_next = Some(ev);
            }
            Some(_) => self.events.push(ev),
        }
    }
}

/// The class-queue index of a priority. Total by construction — the
/// match mirrors `Priority::ALL`'s order, so no lookup can fail.
fn class_index(p: Priority) -> usize {
    match p {
        Priority::Interactive => 0,
        Priority::Normal => 1,
        Priority::Batch => 2,
    }
}

/// Helper used by jobs that want "a chunk reservation on the staging
/// level": reserve `bytes` on the first level-1 node along the root's
/// first child (convenience for examples and tests).
pub fn staging_reservation(tree: &Tree, bytes: u64) -> Reservation {
    match tree.children(tree.root()).first() {
        Some(&c) => Reservation::new().with(c, bytes),
        None => Reservation::new().with(tree.root(), bytes),
    }
}

#[cfg(test)]
mod tests {
    //! Run-loop tests, plus the fixtures every concern's tests share.

    use super::*;
    use crate::job::JobWork;
    use northup::presets;
    use northup_hw::catalog;

    pub(super) fn tree() -> Tree {
        presets::apu_two_level(catalog::ssd_hyperx_predator())
    }

    pub(super) fn small_job(name: &str, tree: &Tree, frac_of_dram: f64, chunks: u32) -> JobSpec {
        let dram = tree.children(tree.root())[0];
        let budget = tree.node(dram).mem.capacity;
        let bytes = (budget as f64 * frac_of_dram) as u64;
        JobSpec::new(
            name,
            Reservation::new().with(dram, bytes),
            JobWork::new(chunks)
                .read(32 << 20)
                .xfer(32 << 20)
                .compute(SimDur::from_millis(2)),
        )
    }

    /// A chunky job with no reservation (always admissible) — fault
    /// tests exercise placement/re-routing, not capacity.
    pub(super) fn free_job(name: &str, chunks: u32) -> JobSpec {
        JobSpec::new(
            name,
            Reservation::new(),
            JobWork::new(chunks)
                .read(16 << 20)
                .xfer(16 << 20)
                .compute(SimDur::from_millis(1))
                .write(8 << 20),
        )
    }

    #[test]
    fn cancellation_from_queue_and_at_chunk_boundary() {
        let tree = tree();
        let mut sched = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        let hog = sched.submit(small_job("hog", &tree, 0.9, 16));
        let waiter = sched.submit(small_job("waiter", &tree, 0.9, 4));
        sched.cancel(waiter, SimTime::from_secs_f64(0.001));
        sched.cancel(hog, SimTime::from_secs_f64(0.05));
        let report = sched.run().unwrap();
        assert_eq!(report.job(waiter).state, JobState::Cancelled);
        assert_eq!(report.job(hog).state, JobState::Cancelled);
        assert!(report.all_terminal());
    }

    #[test]
    fn same_trace_same_schedule() {
        let tree = tree();
        let build = || {
            let mut s = JobScheduler::new(tree.clone(), SchedulerConfig::default());
            for i in 0..8 {
                let p = Priority::ALL[i % 3];
                s.submit(
                    small_job(&format!("j{i}"), &tree, 0.25 + 0.05 * (i % 3) as f64, 2)
                        .priority(p)
                        .arrival(SimTime::from_secs_f64(0.0001 * i as f64)),
                );
            }
            s.run().unwrap()
        };
        let r1 = build();
        let r2 = build();
        assert_eq!(r1.admission_order, r2.admission_order);
        assert_eq!(r1.makespan, r2.makespan);
        assert_eq!(r1.capacity_trace, r2.capacity_trace);
        assert_eq!(r1.chunk_log, r2.chunk_log);
    }
}
