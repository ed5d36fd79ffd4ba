//! CI event-engine gate: replay seeded single-scheduler traces through
//! the calendar-queue engine, pin the schedules against the digests the
//! pre-rewrite `BinaryHeap` engine produced, and measure sustained
//! events/s on a 10^6-job trace and how the engine scales to it.
//!
//! ```text
//! cargo run --release -p northup-bench --bin sched_engine
//! cargo run --release -p northup-bench --bin sched_engine -- out.json BENCH_sched.json
//! cargo run --release -p northup-bench --bin sched_engine -- --capture
//! ```
//!
//! Exit code is non-zero when the acceptance criteria fail:
//!
//! * schedule digests at 32/1k/100k-job scale (plus a 1k chaos profile
//!   exercising retry, probation, quota, resize, and preemption events)
//!   must equal the **pre-rewrite** engine's digests, pinned below —
//!   the engine rewrite must not move a single event;
//! * two same-seed 10^6-job runs must produce identical digests;
//! * the run loop's ns/event at 10^6 jobs must stay within
//!   [`MAX_SUPERLINEARITY`] times its ns/event at 10^5 jobs: an engine
//!   that is O(1) amortized per event keeps the ratio near 1 on any
//!   host, whatever its absolute speed;
//! * with a committed baseline (second argument), events/s must not drop
//!   more than 20% below the baseline's `events_per_sec`.
//!
//! `--capture` prints the digests without comparing (used once, against
//! the old engine, to pin the constants).

use northup::{FaultPlan, Tree};
use northup_apps::{synthetic_trace, TraceConfig};
use northup_bench::artifact::{field_f64, Artifact, Host};
use northup_sched::{
    report_digest, JobScheduler, JobState, NodeBudgets, Probation, SchedReport, SchedulerConfig,
    TenantQuota,
};
use northup_sim::SimTime;
use std::time::Instant;

const SEED: u64 = 2026_0807;
/// Mean inter-arrival gap (µs of virtual time) keeping one fleet-shard
/// scheduler near saturation. Reservations mostly do not bind: at 10^6
/// jobs the admission queue is non-empty in only about 14% of samples
/// (short bursts up to the `max_queue` cap, every rejection `QueueFull`),
/// and the rest of the time hundreds of thousands of admitted jobs pile
/// onto the shared FIFO resources. So the perf run mostly times stage
/// booking, not the admission pass.
const MEAN_GAP_US: u64 = 7_000;
const PERF_JOBS: usize = 1_000_000;
/// The scaling curve: the clean profile at these sizes and then at
/// `PERF_JOBS` (the perf run), each timed phase by phase.
const CURVE_JOBS: [usize; 3] = [100_000, 200_000, 400_000];
/// Bound on run-loop ns/event at 10^6 jobs over ns/event at 10^5.
const MAX_SUPERLINEARITY: f64 = 2.0;

/// Schedule digests of the pre-rewrite `BinaryHeap` engine (captured
/// with `--capture` at the commit introducing this gate, before the
/// calendar-queue engine replaced it). The rewrite contract is that
/// these never change.
const EXPECT_CLEAN: [(usize, u64); 3] = [
    (32, 0x5888_a823_8b27_8f64),
    (1_000, 0x3d7e_9686_2fc1_8207),
    (100_000, 0x7a1b_3a70_5162_4de3),
];
const EXPECT_CHAOS: (usize, u64) = (1_000, 0x96ef_3603_8234_e5c4);

fn tree() -> Tree {
    northup::presets::fleet_shard()
}

fn trace_cfg(jobs: usize) -> TraceConfig {
    TraceConfig {
        jobs,
        seed: SEED,
        mean_gap_us: MEAN_GAP_US,
        scale: 32,
    }
}

fn clean_cfg() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 8192,
        ..SchedulerConfig::default()
    }
}

/// The chaos profile: every optional event source switched on, so the
/// digest pins retry (EV_RETRY), probation probes (EV_PROBE), quota
/// wakes (EV_QUOTA), a live resize (EV_RESIZE), and preemption paths on
/// the calendar queue — not just arrivals and stage completions.
fn chaos_cfg() -> SchedulerConfig {
    SchedulerConfig {
        max_queue: 8192,
        preempt: true,
        tenant_quota: Some(TenantQuota::new(48e9, 24e9)),
        fault_plan: Some(FaultPlan::new(SEED).transient_rate(400).persistent_rate(24)),
        quarantine_after: 3,
        probation: Some(Probation::default()),
        ..SchedulerConfig::default()
    }
}

/// Wall seconds of each phase of one replay.
struct Phases {
    trace: f64,
    submit: f64,
    run: f64,
    digest: f64,
}

/// Replay `jobs` jobs of the seeded trace and digest the schedule,
/// timing each phase.
fn timed_replay(jobs: usize, cfg: SchedulerConfig, resize: bool) -> (SchedReport, u64, Phases) {
    let tree = tree();
    let clock = Instant::now();
    let trace = synthetic_trace(&tree, &trace_cfg(jobs));
    let trace_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let mut sched = JobScheduler::new(tree.clone(), cfg);
    for spec in trace {
        sched.submit(spec);
    }
    if resize {
        // One mid-trace shrink-and-recover so EV_RESIZE is on the queue.
        let full = NodeBudgets::from_tree(&tree, 1.0);
        sched.resize_budgets(SimTime::from_secs_f64(0.5), full.scaled(0.6));
        sched.resize_budgets(SimTime::from_secs_f64(1.5), full);
    }
    let submit_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let report = sched.run().unwrap_or_else(|e| {
        eprintln!("sched_engine: run failed: {e}");
        std::process::exit(2);
    });
    let run_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let digest = report_digest(&report);
    let phases = Phases {
        trace: trace_s,
        submit: submit_s,
        run: run_s,
        digest: clock.elapsed().as_secs_f64(),
    };
    (report, digest, phases)
}

fn main() {
    let mut args = std::env::args().skip(1);
    let first = args.next();
    let capture = first.as_deref() == Some("--capture");
    let bench_path = if capture { None } else { first };
    let baseline_path = args.next();

    let mut failures = Vec::new();

    println!("== sched engine gate: seed {SEED}, gap {MEAN_GAP_US} µs ==");
    let mut digests = Vec::new();
    for (jobs, expect) in EXPECT_CLEAN {
        let (r, d, _) = timed_replay(jobs, clean_cfg(), false);
        digests.push((format!("clean_{jobs}"), d));
        println!(
            "  clean {jobs:>7} jobs: digest {d:016x}  events {:>9}  done {:>7}  {}",
            r.events,
            r.count(JobState::Done),
            if capture {
                "captured".to_string()
            } else if d == expect {
                "ok".to_string()
            } else {
                format!("DRIFT (pinned {expect:016x})")
            },
        );
        if !capture && d != expect {
            failures.push(format!(
                "schedule digest drift at {jobs}-job scale: {d:016x} != pinned {expect:016x}"
            ));
        }
    }
    {
        let (jobs, expect) = EXPECT_CHAOS;
        let (r, d, _) = timed_replay(jobs, chaos_cfg(), true);
        digests.push((format!("chaos_{jobs}"), d));
        println!(
            "  chaos {jobs:>7} jobs: digest {d:016x}  events {:>9}  faults {:>5}  {}",
            r.events,
            r.fault_log.len(),
            if capture {
                "captured".to_string()
            } else if d == expect {
                "ok".to_string()
            } else {
                format!("DRIFT (pinned {expect:016x})")
            },
        );
        if r.fault_log.is_empty() {
            failures.push("chaos profile injected nothing".to_string());
        }
        if !capture && d != expect {
            failures.push(format!(
                "chaos digest drift at {jobs}-job scale: {d:016x} != pinned {expect:016x}"
            ));
        }
    }
    if capture {
        println!("-- capture mode: pin these in sched_engine.rs --");
        for (name, d) in &digests {
            println!("  {name}: 0x{d:016x}");
        }
        return;
    }

    // The scaling curve, ending in the 10^6-job perf run, which is then
    // replayed for determinism at scale.
    println!("== scaling curve (seconds per phase; run-loop ns/event) ==");
    println!(
        "  {:>9} {:>7} {:>7} {:>7} {:>7} {:>10} {:>9} {:>12}",
        "jobs", "trace", "submit", "run", "digest", "events", "ns/event", "events/s"
    );
    let mut curve = Vec::new();
    let mut point = |jobs: usize| {
        let (r, d, t) = timed_replay(jobs, clean_cfg(), false);
        let ns_per_event = t.run * 1e9 / r.events as f64;
        println!(
            "  {jobs:>9} {:>7.3} {:>7.3} {:>7.3} {:>7.3} {:>10} {ns_per_event:>9.1} {:>12.0}",
            t.trace,
            t.submit,
            t.run,
            t.digest,
            r.events,
            1e9 / ns_per_event,
        );
        curve.push((jobs, ns_per_event));
        (r, d, t)
    };
    for jobs in CURVE_JOBS {
        point(jobs);
    }
    let (report, digest, t) = point(PERF_JOBS);
    let superlinearity = curve[curve.len() - 1].1 / curve[0].1;
    println!(
        "superlinearity: {superlinearity:.2} (run-loop ns/event at {PERF_JOBS} jobs over {} jobs; bound {MAX_SUPERLINEARITY})",
        CURVE_JOBS[0],
    );
    if superlinearity > MAX_SUPERLINEARITY {
        failures.push(format!(
            "engine cost per event grows with the trace: ns/event ratio {superlinearity:.2} > {MAX_SUPERLINEARITY}"
        ));
    }
    // The absolute gate's wall clock: trace generation through the run
    // loop, as the committed baseline measured it.
    let wall_s = t.trace + t.submit + t.run;
    let events_per_sec = report.events as f64 / wall_s;
    println!("{}", report.summary());
    println!(
        "{:>10.2}s wall  {:>10.0} jobs/s  {:>12.0} events/s  {} events  digest {digest:016x}",
        wall_s,
        PERF_JOBS as f64 / wall_s,
        events_per_sec,
        report.events,
    );
    let done = report.count(JobState::Done);
    if done * 10 < PERF_JOBS * 9 {
        failures.push(format!(
            "only {done}/{PERF_JOBS} jobs done — the trace no longer saturates sensibly"
        ));
    }

    let (_, replay_digest, _) = timed_replay(PERF_JOBS, clean_cfg(), false);
    if replay_digest != digest {
        failures.push("10^6-job replay diverged between same-seed runs".to_string());
    }

    if let Some(path) = &baseline_path {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                if let Some(base_host) = Host::of_artifact(&text) {
                    println!("host {}; baseline host {base_host}", Host::current());
                }
                match field_f64(&text, "events_per_sec") {
                    Some(base) if events_per_sec < base * 0.8 => failures.push(format!(
                        "events/s regression: {events_per_sec:.0} < 80% of baseline {base:.0}"
                    )),
                    Some(base) => println!(
                        "baseline {base:.0} events/s: {:.1}% of baseline",
                        100.0 * events_per_sec / base
                    ),
                    None => failures.push(format!("baseline {path} has no events_per_sec")),
                }
            }
            Err(e) => failures.push(format!("cannot read baseline {path}: {e}")),
        }
    }

    if let Some(path) = &bench_path {
        let mut a = Artifact::new("sched-engine")
            .num("seed", SEED)
            .num("jobs", PERF_JOBS as u64)
            .num("done", done as u64)
            .num("rejected", report.count(JobState::Rejected) as u64)
            .num("events", report.events)
            .float("makespan_s", report.makespan.as_secs_f64(), 9)
            .float("wall_s", wall_s, 3)
            .float("jobs_per_sec", PERF_JOBS as f64 / wall_s, 0)
            .float("events_per_sec", events_per_sec, 0)
            .digest("digest_perf", digest);
        for (jobs, ns_per_event) in &curve {
            a = a.float(
                &format!("curve_{jobs}_events_per_sec"),
                1e9 / ns_per_event,
                0,
            );
        }
        a = a.float("superlinearity", superlinearity, 3);
        for (name, d) in &digests {
            a = a.digest(&format!("digest_{name}"), *d);
        }
        let json = a.flag("replay_identical", true).finish();
        std::fs::write(path, &json).unwrap_or_else(|e| {
            eprintln!("sched_engine: cannot write {path}: {e}");
            std::process::exit(2);
        });
        println!("wrote {path}");
    }

    if failures.is_empty() {
        println!("sched engine gate: OK ({events_per_sec:.0} events/s)");
    } else {
        for f in &failures {
            eprintln!("sched engine gate FAILED: {f}");
        }
        std::process::exit(1);
    }
}
