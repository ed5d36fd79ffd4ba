//! Timed replays through `JobScheduler::{new, submit, run}` and
//! `report_digest`, plus the end-to-end, layer and accounting figures
//! the scheduler-backed workloads derive from their `SchedReport`s.

use crate::trace::{SpanId, Tracer};
use crate::{median, pct, Outcome};
use northup::Tree;
use northup_sched::{
    percentile_of, report_digest, AdmissionEventKind, JobScheduler, JobSpec, JobState, Priority,
    RejectReason, SchedReport, SchedulerConfig,
};
use northup_sim::SimDur;
use std::ops::AddAssign;
use std::time::Instant;

/// Host times of one replay (or the sum over several), in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Times {
    /// Tree build + trace generation + `JobScheduler::new`.
    pub setup: f64,
    /// Trace generation alone.
    pub trace: f64,
    /// `JobScheduler::new` alone.
    pub new: f64,
    pub submit: f64,
    pub run: f64,
    pub digest: f64,
}

impl Times {
    /// Submit through digest: the span `jobs_per_s` divides by.
    pub fn measured(&self) -> f64 {
        self.submit + self.run + self.digest
    }
}

impl AddAssign for Times {
    fn add_assign(&mut self, o: Times) {
        self.setup += o.setup;
        self.trace += o.trace;
        self.new += o.new;
        self.submit += o.submit;
        self.run += o.run;
        self.digest += o.digest;
    }
}

/// One replay's result: the report (`None` when `run` returned `Err`),
/// its digest, and the host times.
pub struct Replay {
    pub jobs: usize,
    pub report: Option<SchedReport>,
    pub digest: u64,
    pub times: Times,
}

/// A scheduler with its trace, built and ready to replay.
pub struct Prepared {
    span: SpanId,
    sched: JobScheduler,
    specs: Vec<JobSpec>,
    pub times: Times,
}

/// Set-up: build the tree, generate the trace, construct the
/// scheduler. Spans: `sched.replay` under `parent`, holding `setup`
/// (with `apps.trace` and `sched.new`) and, from [`replay`],
/// `sched.submit`, `sched.run` and `sched.digest`.
pub fn prepare(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    tree: impl FnOnce() -> Tree,
    trace: impl FnOnce(&Tree) -> Vec<JobSpec>,
    cfg: SchedulerConfig,
) -> Prepared {
    let span = tr.open("sched.replay", parent, None);
    let mut t = Times::default();
    let t0 = Instant::now();
    let s = tr.open("setup", Some(span), None);
    let tree = tree();
    let g = tr.open("apps.trace", Some(s), None);
    let tg = Instant::now();
    let specs = trace(&tree);
    t.trace = tg.elapsed().as_secs_f64();
    tr.close(g);
    let n = tr.open("sched.new", Some(s), None);
    let tn = Instant::now();
    let sched = JobScheduler::new(tree, cfg);
    t.new = tn.elapsed().as_secs_f64();
    tr.close(n);
    tr.close(s);
    t.setup = t0.elapsed().as_secs_f64();
    Prepared {
        span,
        sched,
        specs,
        times: t,
    }
}

/// The measured part: submit every job, run, digest the report.
pub fn replay(tr: &mut Tracer, p: Prepared) -> Replay {
    let Prepared {
        span,
        mut sched,
        specs,
        times: mut t,
    } = p;
    let jobs = specs.len();
    let sp = tr.open("sched.submit", Some(span), None);
    let t1 = Instant::now();
    for spec in specs {
        sched.submit(spec);
    }
    t.submit = t1.elapsed().as_secs_f64();
    tr.close(sp);

    let sp = tr.open("sched.run", Some(span), None);
    let t2 = Instant::now();
    let result = sched.run();
    t.run = t2.elapsed().as_secs_f64();
    tr.close(sp);

    let sp = tr.open("sched.digest", Some(span), None);
    let t3 = Instant::now();
    let digest = result.as_ref().map_or(0, report_digest);
    t.digest = t3.elapsed().as_secs_f64();
    tr.close(sp);
    tr.close(span);

    let report = match result {
        Ok(r) => Some(r),
        Err(e) => {
            println!("run failed: {e}");
            None
        }
    };
    Replay {
        jobs,
        report,
        digest,
        times: t,
    }
}

/// Count one replay of `jobs` jobs into `out` and check the
/// accounting: every job terminal, done + failed + rejected + cancelled
/// = submitted, and the typed reasons partitioning the rejections. A
/// run that returned `Err` (`report` is `None`) counts all its jobs as
/// failed.
pub fn account(jobs: usize, report: Option<&SchedReport>, out: &mut Outcome) {
    out.attempted += jobs as u64;
    let Some(r) = report else {
        out.failed += jobs as u64;
        return;
    };
    out.failed += r.count(JobState::Failed) as u64;
    let settled = [
        JobState::Done,
        JobState::Failed,
        JobState::Rejected,
        JobState::Cancelled,
    ]
    .iter()
    .map(|&s| r.count(s))
    .sum::<usize>();
    out.check(r.all_terminal() && settled == jobs, || {
        format!("{settled} of {jobs} jobs settled")
    });
    let typed: usize = RejectReason::ALL.iter().map(|&x| r.rejected_for(x)).sum();
    out.check(typed == r.count(JobState::Rejected), || {
        format!(
            "typed reasons cover {typed} of {} rejections",
            r.count(JobState::Rejected)
        )
    });
}

/// Figures pooled over the reports of one rep, folded in one report at
/// a time so a rep of many replays never holds more than one report.
#[derive(Default)]
pub struct Pooled {
    /// Jobs submitted, including those of runs that returned `Err`.
    jobs: usize,
    settled: usize,
    failed: usize,
    rejected: usize,
    reasons: [usize; 4],
    latencies: Vec<SimDur>,
    interactive: Vec<SimDur>,
    interactive_submitted: usize,
    interactive_met: usize,
    events: u64,
    commits: usize,
    waits: Vec<f64>,
    peak_admitted: u64,
    chunks: usize,
    ticks: usize,
    sheds: usize,
    degraded: usize,
    records: usize,
}

/// The typed rejection reasons with their per-layer metric names.
pub const REASONS: [(&str, RejectReason); 4] = [
    ("sched.reject.queue_full", RejectReason::QueueFull),
    ("sched.reject.shed", RejectReason::Shed),
    ("sched.reject.quota_exceeded", RejectReason::QuotaExceeded),
    ("sched.reject.infeasible", RejectReason::Infeasible),
];

impl Pooled {
    /// Fold in one replay of `jobs` jobs (`report` is `None` when the
    /// run returned `Err`). `target` is the Interactive latency target
    /// behind `slo_attain_frac`; with none configured every Interactive
    /// completion counts as attained.
    pub fn add(&mut self, jobs: usize, report: Option<&SchedReport>, target: Option<SimDur>) {
        self.jobs += jobs;
        let Some(r) = report else { return };
        self.settled += r.jobs.len();
        self.failed += r.count(JobState::Failed);
        self.rejected += r.count(JobState::Rejected);
        for (n, (_, reason)) in self.reasons.iter_mut().zip(REASONS) {
            *n += r.rejected_for(reason);
        }
        for j in &r.jobs {
            let lat = j.latency();
            self.latencies.extend(lat);
            if let Some(at) = j.admitted_at {
                self.waits.push((at - j.arrival).as_secs_f64());
            }
            if j.priority == Priority::Interactive {
                self.interactive_submitted += 1;
                if let Some(l) = lat {
                    self.interactive.push(l);
                    self.interactive_met += usize::from(target.is_none_or(|t| l <= t));
                }
            }
        }
        self.events += r.events;
        self.commits += r
            .admission_log
            .iter()
            .filter(|e| e.kind == AdmissionEventKind::Admitted)
            .count();
        self.peak_admitted = self.peak_admitted.max(peak_admitted(r));
        self.chunks += r.chunk_log.len();
        self.ticks += r.slo_log.len();
        self.sheds += r.shed_log.len();
        self.degraded += r.degraded_jobs();
        self.records += r.admission_log.len()
            + r.capacity_trace.len()
            + r.chunk_log.len()
            + r.resize_log.len()
            + r.fault_log.len()
            + r.quarantine_log.len()
            + r.restore_log.len()
            + r.spill_log.len()
            + r.shed_log.len()
            + r.slo_log.len()
            + r.preemption_latencies.len();
    }

    /// Host-independent end-to-end figures. Shed, rejected and lost
    /// Interactive jobs count as misses.
    pub fn end_to_end(&self, out: &mut Outcome) {
        out.metric(
            "sim_p50_s",
            percentile_of(&self.latencies, 50).as_secs_f64(),
        );
        out.metric(
            "sim_p99_s",
            percentile_of(&self.latencies, 99).as_secs_f64(),
        );
        out.metric(
            "sim_interactive_p99_s",
            percentile_of(&self.interactive, 99).as_secs_f64(),
        );
        out.metric(
            "slo_attain_frac",
            self.interactive_met as f64 / self.interactive_submitted.max(1) as f64,
        );
        out.metric(
            "done_frac",
            self.latencies.len() as f64 / self.jobs.max(1) as f64,
        );
    }

    /// Per-layer counts: admission, booking, SLO controller, rejections,
    /// report size, and the accounting fractions (jobs of runs that
    /// returned `Err` count as errors).
    pub fn layer_counts(&self, out: &mut Outcome) {
        let n = self.jobs.max(1) as f64;
        out.metric("rejected_frac", self.rejected as f64 / n);
        out.metric(
            "error_frac",
            (self.failed + self.jobs - self.settled) as f64 / n,
        );
        out.metric("sched.run.events", self.events as f64);
        out.metric("sched.admission.commits", self.commits as f64);
        let queued = self.waits.iter().filter(|&&w| w > 0.0).count();
        out.metric(
            "sched.admission.queued_frac",
            queued as f64 / self.waits.len().max(1) as f64,
        );
        out.metric("sched.admission.wait_p99_s", pct(&self.waits, 99));
        out.metric("sched.admission.peak_admitted", self.peak_admitted as f64);
        out.metric("sched.booking.chunks", self.chunks as f64);
        out.metric("sched.slo.ticks", self.ticks as f64);
        out.metric("sched.slo.sheds", self.sheds as f64);
        out.metric("sched.slo.degraded", self.degraded as f64);
        for (&count, (name, _)) in self.reasons.iter().zip(REASONS) {
            out.metric(name, count as f64);
        }
        out.metric("sched.report.records", self.records as f64);
    }
}

/// Maximum number of jobs holding a reservation at once, replayed from
/// the admission log.
fn peak_admitted(r: &SchedReport) -> u64 {
    let (mut now, mut peak) = (0i64, 0i64);
    for e in &r.admission_log {
        now += match e.kind {
            AdmissionEventKind::Admitted => 1,
            _ => -1,
        };
        peak = peak.max(now);
    }
    peak as u64
}

/// What one rep keeps after its reports are dropped: jobs and events
/// replayed, and host times, summed over the rep's replays.
#[derive(Debug, Clone, Copy, Default)]
pub struct RepStat {
    pub jobs: usize,
    pub events: u64,
    pub times: Times,
}

impl RepStat {
    pub fn add(&mut self, rp: &Replay) {
        self.jobs += rp.jobs;
        self.events += rp.report.as_ref().map_or(0, |r| r.events);
        self.times += rp.times;
    }

    pub fn jobs_per_s(&self) -> f64 {
        self.jobs as f64 / self.times.measured()
    }

    pub fn ns_per_event(&self) -> f64 {
        self.times.run * 1e9 / self.events.max(1) as f64
    }
}

/// Median of `f` over `reps`.
pub fn med(reps: &[RepStat], f: impl Fn(&RepStat) -> f64) -> f64 {
    median(&reps.iter().map(f).collect::<Vec<_>>())
}

/// Per-layer host times: medians over the traced reps.
pub fn layer_times(reps: &[RepStat], out: &mut Outcome) {
    out.metric("apps.trace.s", med(reps, |r| r.times.trace));
    out.metric("sched.new.s", med(reps, |r| r.times.new));
    out.metric(
        "sched.submit.ns_per_job",
        med(reps, |r| r.times.submit * 1e9 / r.jobs.max(1) as f64),
    );
    out.metric("sched.run.s", med(reps, |r| r.times.run));
    out.metric(
        "sched.run.events_per_s",
        med(reps, |r| r.events as f64 / r.times.run),
    );
    out.metric("sched.run.ns_per_event", med(reps, RepStat::ns_per_event));
    out.metric("sched.digest.s", med(reps, |r| r.times.digest));
}
