//! `engine-saturated`: the `sched_engine` clean profile (`fleet_shard`
//! tree, `synthetic_trace` at a 7,000 µs mean gap and scale 32,
//! `max_queue` 8192) on one scheduler, at 4·10^5 jobs. Hundreds of
//! thousands of jobs hold reservations at once and no job waits for
//! admission, so the run times the event loop, stage booking and
//! work-queue bookkeeping, and leaves admission out.

use crate::sched::{self, Pooled, RepStat};
use crate::trace::{SpanId, Tracer};
use crate::{median, more_setups, repeat, Opts, Outcome};
use northup::presets;
use northup_apps::{synthetic_trace, TraceConfig};
use northup_sched::{JobState, SchedulerConfig};

/// The `sched_engine` gate's seed.
pub const DEFAULT_SEED: u64 = 2026_0807;
const JOBS: usize = 400_000;
/// The traced run also replays the first `JOBS / 4` jobs, for
/// `sched.run.superlinearity`.
const QUARTER: usize = JOBS / 4;
/// `sched_engine`'s pinned 10^5-job clean digest (`JOBS / 4` at the
/// default seed is exactly that profile).
const PIN_QUARTER: u64 = 0x7a1b_3a70_5162_4de3;
/// The 4·10^5-job digest at the default seed.
const PIN_FULL: u64 = 0xcc3f_f5bb_02cb_7667;

fn prepare(tr: &mut Tracer, parent: Option<SpanId>, jobs: usize, seed: u64) -> sched::Prepared {
    sched::prepare(
        tr,
        parent,
        presets::fleet_shard,
        |tree| {
            synthetic_trace(
                tree,
                &TraceConfig {
                    jobs,
                    seed,
                    mean_gap_us: 7_000,
                    scale: 32,
                },
            )
        },
        SchedulerConfig {
            max_queue: 8192,
            ..SchedulerConfig::default()
        },
    )
}

/// One rep: set up and replay `jobs` jobs under a `rep` span.
fn rep(tr: &mut Tracer, i: u64, jobs: usize, seed: u64) -> sched::Replay {
    let span = tr.open("rep", None, Some(i));
    let p = prepare(tr, Some(span), jobs, seed);
    let rp = sched::replay(tr, p);
    tr.close(span);
    rp
}

pub fn run(o: &Opts, tr: &mut Tracer, out: &mut Outcome) -> u64 {
    let seed = o.seed_or(DEFAULT_SEED);
    let mut digests = Vec::new();
    let mut setups = Vec::new();
    let mut traced: Vec<RepStat> = Vec::new();
    let mut plain: Vec<RepStat> = Vec::new();
    let mut quarter: Vec<RepStat> = Vec::new();
    let mut qdigests = Vec::new();
    repeat(o, tr, |i, tr| {
        let rp = rep(tr, i as u64, JOBS, seed);
        sched::account(rp.jobs, rp.report.as_ref(), out);
        if let (0, Some(r)) = (i, &rp.report) {
            let mut pool = Pooled::default();
            pool.add(rp.jobs, rp.report.as_ref(), None);
            pool.end_to_end(out);
            pool.layer_counts(out);
            let done = r.count(JobState::Done);
            out.check(done * 10 >= JOBS * 9, || {
                format!("only {done}/{JOBS} jobs done: the trace no longer saturates sensibly")
            });
        }
        let mut stat = RepStat::default();
        stat.add(&rp);
        println!(
            "rep {i}{}: setup {:.3}s submit {:.3}s run {:.3}s digest {:.3}s events {} digest {:016x}",
            if tr.is_on() { " (traced)" } else { "" },
            rp.times.setup,
            rp.times.submit,
            rp.times.run,
            rp.times.digest,
            stat.events,
            rp.digest,
        );
        digests.push(rp.digest);
        setups.push(rp.times.setup);
        if !tr.is_on() {
            plain.push(stat);
            return;
        }
        traced.push(stat);
        // Superlinearity compares ns/event at JOBS with JOBS / 4 (the
        // quarter trace is the full trace's prefix). Each quarter replay
        // follows a traced full one, so both sizes see the same host.
        let q = rep(tr, 1000 + i as u64, QUARTER, seed);
        sched::account(q.jobs, q.report.as_ref(), out);
        qdigests.push(q.digest);
        let mut qs = RepStat::default();
        qs.add(&q);
        quarter.push(qs);
    });
    out.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("digest differs between same-seed reps: {digests:016x?}")
    });
    if o.pinned(DEFAULT_SEED) {
        out.check(digests[0] == PIN_FULL, || {
            format!("digest {:016x} != pinned {PIN_FULL:016x}", digests[0])
        });
    }

    if !o.trace {
        more_setups(&mut setups, || prepare(tr, None, JOBS, seed).times.setup);
        out.metric("jobs_per_s", sched::med(&plain, RepStat::jobs_per_s));
        out.metric("setup_s", median(&setups));
        return seed;
    }

    sched::layer_times(&traced, out);
    out.metric(
        "trace.overhead_frac",
        sched::med(&plain, RepStat::jobs_per_s) / sched::med(&traced, RepStat::jobs_per_s) - 1.0,
    );
    out.check(qdigests.iter().all(|&d| d == qdigests[0]), || {
        format!("quarter-size digest differs between reps: {qdigests:016x?}")
    });
    if o.pinned(DEFAULT_SEED) {
        out.check(qdigests[0] == PIN_QUARTER, || {
            format!(
                "{QUARTER}-job digest {:016x} != sched_engine's pinned {PIN_QUARTER:016x}",
                qdigests[0]
            )
        });
    }
    let (full_ns, quarter_ns) = (
        sched::med(&traced, RepStat::ns_per_event),
        sched::med(&quarter, RepStat::ns_per_event),
    );
    out.metric("sched.run.superlinearity", full_ns / quarter_ns);
    println!(
        "superlinearity: {full_ns:.1} ns/event at {JOBS} jobs / {quarter_ns:.1} ns/event at {QUARTER} jobs"
    );
    seed
}
