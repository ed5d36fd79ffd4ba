//! `fleet-migrate`: the `fleet_report` configuration — 16 `fleet_shard`
//! shards, 10^5 `fleet_trace` jobs at a 500 µs mean gap, and a scripted
//! quarantine of shard 0's staging node that forces cross-shard
//! migration. The only workload that times the router, migration and
//! the report JSON; it also runs the engine as many small schedulers.

use crate::trace::{SpanId, Tracer};
use crate::{median, more_setups, real, repeat, sched, Opts, Outcome};
use northup::{FaultKind, FaultPlan};
use northup_apps::{fleet_trace, TraceConfig};
use northup_fleet::{chunk_checksum, Fleet, FleetConfig, FleetError, FleetJob, FleetReport};
use northup_sched::{percentile_of, JobState, Priority, RejectReason};
use northup_sim::SimDur;
use std::collections::BTreeSet;
use std::time::Instant;

/// The `fleet_report` gate's seed.
pub const DEFAULT_SEED: u64 = 2026_0807;
const SHARDS: usize = 16;
const JOBS: usize = 100_000;
/// `outcome_digest` at the default seed.
const PIN: u64 = 0xe6fa_0eb1_0c1e_5193;

/// The gate's federation: shard 0 fences its staging node after two
/// scripted persistent faults; fault-aware placement is off so the
/// second scripted fault fires.
fn config(seed: u64) -> FleetConfig {
    let mut cfg = FleetConfig::preset(SHARDS, seed);
    cfg.sched.quarantine_after = 2;
    cfg.sched.fault_aware_placement = false;
    let staging = cfg.tree.children(cfg.tree.root())[0];
    cfg.shard_overrides.insert(
        0,
        FaultPlan::new(seed)
            .script(staging, 0, FaultKind::Persistent)
            .script(staging, 1, FaultKind::Persistent),
    );
    cfg
}

#[derive(Debug, Clone, Copy, Default)]
struct Times {
    setup: f64,
    trace: f64,
    new: f64,
    submit: f64,
    run: f64,
    json: f64,
    json_bytes: usize,
}

impl Times {
    fn measured(&self) -> f64 {
        self.submit + self.run + self.json
    }
}

struct Rep {
    report: Option<FleetReport>,
    json: String,
    interactive: BTreeSet<u64>,
    times: Times,
}

/// A fleet with its trace, built and ready to replay (`fleet` is the
/// `Fleet::new` result).
struct Prepared {
    root: SpanId,
    fleet: Result<Fleet, FleetError>,
    jobs: Vec<FleetJob>,
    times: Times,
}

/// Set-up: build the configuration, generate the trace, construct the
/// fleet.
fn prepare(tr: &mut Tracer, rep: u64, seed: u64) -> Prepared {
    let root = tr.open("rep", None, Some(rep));
    let mut t = Times::default();
    let t0 = Instant::now();
    let s = tr.open("setup", Some(root), None);
    let cfg = config(seed);
    let g = tr.open("apps.trace", Some(s), None);
    let tg = Instant::now();
    let jobs = fleet_trace(
        &cfg,
        &TraceConfig {
            jobs: JOBS,
            seed,
            mean_gap_us: 500,
            scale: 32,
        },
    );
    t.trace = tg.elapsed().as_secs_f64();
    tr.close(g);
    let n = tr.open("fleet.new", Some(s), None);
    let tn = Instant::now();
    let fleet = Fleet::new(cfg);
    t.new = tn.elapsed().as_secs_f64();
    tr.close(n);
    tr.close(s);
    t.setup = t0.elapsed().as_secs_f64();
    Prepared {
        root,
        fleet,
        jobs,
        times: t,
    }
}

/// The measured part: submit every job, run, render the report JSON.
fn replay(tr: &mut Tracer, p: Prepared) -> Rep {
    let Prepared {
        root,
        fleet,
        jobs,
        times: mut t,
    } = p;
    let mut interactive = BTreeSet::new();
    let mut fleet = match fleet {
        Ok(f) => f,
        Err(e) => {
            println!("bad fleet config: {e}");
            tr.close(root);
            return Rep {
                report: None,
                json: String::new(),
                interactive,
                times: t,
            };
        }
    };
    let sp = tr.open("fleet.submit", Some(root), None);
    let t1 = Instant::now();
    for job in jobs {
        let p = job.priority;
        let uid = fleet.submit(job);
        if p == Priority::Interactive {
            interactive.insert(uid);
        }
    }
    t.submit = t1.elapsed().as_secs_f64();
    tr.close(sp);

    let sp = tr.open("fleet.run", Some(root), None);
    let t2 = Instant::now();
    let result = fleet.run();
    t.run = t2.elapsed().as_secs_f64();
    tr.close(sp);

    let sp = tr.open("fleet.report.json", Some(root), None);
    let t3 = Instant::now();
    let json = result.as_ref().map_or(String::new(), FleetReport::to_json);
    t.json = t3.elapsed().as_secs_f64();
    t.json_bytes = json.len();
    tr.close(sp);
    tr.close(root);

    let report = match result {
        Ok(r) => Some(r),
        Err(e) => {
            println!("fleet run failed: {e}");
            None
        }
    };
    Rep {
        report,
        json,
        interactive,
        times: t,
    }
}

/// The `fleet_report` guarantees, plus job accounting.
fn check(r: &FleetReport, out: &mut Outcome) {
    out.check(r.capacity_ok, || "fleet capacity invariant violated".into());
    out.check(r.exactly_once(), || {
        "a chunk ran twice or was skipped".into()
    });
    out.check(r.shards[0].quarantines > 0, || {
        "scripted plan fenced nothing on shard 0".into()
    });
    out.check(!r.migrations.is_empty(), || {
        "quarantine displaced no jobs".into()
    });
    let mut migrated_done = 0;
    for m in &r.migrations {
        out.check(m.from == 0, || {
            format!("job {} exported from clean shard {}", m.uid, m.from)
        });
        let Some(o) = r.outcome(m.uid) else {
            out.check(false, || format!("migrated job {} never settled", m.uid));
            continue;
        };
        if o.state == JobState::Done {
            migrated_done += 1;
            let single = chunk_checksum(m.uid, 0..o.chunks_done);
            out.check(o.checksum == single && o.exactly_once, || {
                format!(
                    "job {} checksum {:016x} != single-shard {single:016x}",
                    m.uid, o.checksum
                )
            });
        }
    }
    out.check(migrated_done > 0, || {
        "no migrated job completed on a surviving shard".into()
    });
    let settled: usize = [
        JobState::Done,
        JobState::Failed,
        JobState::Rejected,
        JobState::Cancelled,
    ]
    .iter()
    .map(|&s| r.count(s))
    .sum();
    out.check(settled == r.outcomes.len() && settled == JOBS, || {
        format!("{settled} of {JOBS} jobs settled")
    });
    let typed: usize = RejectReason::ALL.iter().map(|&x| r.rejected_for(x)).sum();
    out.check(typed == r.count(JobState::Rejected), || {
        format!(
            "typed reasons cover {typed} of {} rejections",
            r.count(JobState::Rejected)
        )
    });
}

fn end_to_end(rep: &Rep, r: &FleetReport, out: &mut Outcome) {
    let lat: Vec<SimDur> = r.outcomes.iter().filter_map(|o| o.latency).collect();
    out.metric("sim_p50_s", percentile_of(&lat, 50).as_secs_f64());
    out.metric("sim_p99_s", percentile_of(&lat, 99).as_secs_f64());
    let ilat: Vec<SimDur> = r
        .outcomes
        .iter()
        .filter(|o| rep.interactive.contains(&o.uid))
        .filter_map(|o| o.latency)
        .collect();
    out.metric(
        "sim_interactive_p99_s",
        percentile_of(&ilat, 99).as_secs_f64(),
    );
    // No latency target is configured, so every Interactive completion
    // counts as attained; rejections still count as misses.
    let met = ilat.len();
    out.metric(
        "slo_attain_frac",
        met as f64 / rep.interactive.len().max(1) as f64,
    );
    out.metric("done_frac", r.count(JobState::Done) as f64 / JOBS as f64);
}

fn layer_counts(r: &FleetReport, out: &mut Outcome) {
    out.metric(
        "rejected_frac",
        r.count(JobState::Rejected) as f64 / JOBS as f64,
    );
    out.metric("error_frac", r.count(JobState::Failed) as f64 / JOBS as f64);
    out.metric("fleet.run.events", r.events as f64);
    out.metric("fleet.router.migrations", r.migrations.len() as f64);
    out.metric("fleet.router.rounds", f64::from(r.rounds));
    out.metric("fleet.router.rejected", r.router_rejected() as f64);
    let ev: Vec<f64> = r.shards.iter().map(|s| s.events as f64).collect();
    let mean = ev.iter().sum::<f64>() / ev.len().max(1) as f64;
    let max = ev.iter().copied().fold(0.0, f64::max);
    out.metric("fleet.shard_events_max_over_mean", max / mean.max(1.0));
    for (name, reason) in sched::REASONS {
        out.metric(name, r.rejected_for(reason) as f64);
    }
}

pub fn run(o: &Opts, tr: &mut Tracer, out: &mut Outcome) -> u64 {
    let seed = o.seed_or(DEFAULT_SEED);
    let mut first_json: Option<String> = None;
    let mut setups = Vec::new();
    let mut traced: Vec<Times> = Vec::new();
    let mut plain: Vec<Times> = Vec::new();
    repeat(o, tr, |i, tr| {
        let p = prepare(tr, i as u64, seed);
        setups.push(p.times.setup);
        let rep = replay(tr, p);
        out.attempted += JOBS as u64;
        match &rep.report {
            None => out.failed += JOBS as u64,
            Some(r) => {
                out.failed += r.count(JobState::Failed) as u64;
                if i == 0 {
                    check(r, out);
                    end_to_end(&rep, r, out);
                    layer_counts(r, out);
                    println!(
                        "digest {:016x}  migrations {}  rounds {}",
                        r.outcome_digest,
                        r.migrations.len(),
                        r.rounds
                    );
                    if o.pinned(DEFAULT_SEED) {
                        out.check(r.outcome_digest == PIN, || {
                            format!(
                                "outcome digest {:016x} != pinned {PIN:016x}",
                                r.outcome_digest
                            )
                        });
                    }
                }
            }
        }
        let t = rep.times;
        println!(
            "rep {i}{}: setup {:.3}s submit {:.3}s run {:.3}s json {:.3}s",
            if tr.is_on() { " (traced)" } else { "" },
            t.setup,
            t.submit,
            t.run,
            t.json,
        );
        match &first_json {
            None => first_json = Some(rep.json),
            Some(j) => out.check(*j == rep.json, || {
                "report JSON differs between same-seed reps".into()
            }),
        }
        if tr.is_on() {
            traced.push(t);
        } else {
            plain.push(t);
        }
    });

    let med =
        |reps: &[Times], f: &dyn Fn(&Times) -> f64| median(&reps.iter().map(f).collect::<Vec<_>>());
    let jobs_per_s = |reps: &[Times]| med(reps, &|t| JOBS as f64 / t.measured());
    if !o.trace {
        more_setups(&mut setups, || prepare(tr, 0, seed).times.setup);
        out.metric("jobs_per_s", jobs_per_s(&plain));
        out.metric("setup_s", median(&setups));
        return seed;
    }
    out.metric(
        "trace.overhead_frac",
        jobs_per_s(&plain) / jobs_per_s(&traced) - 1.0,
    );
    out.metric("apps.trace.s", med(&traced, &|t| t.trace));
    out.metric("fleet.new.s", med(&traced, &|t| t.new));
    out.metric("fleet.run.s", med(&traced, &|t| t.run));
    out.metric("fleet.report.json_s", med(&traced, &|t| t.json));
    out.metric(
        "fleet.report.json_bytes",
        med(&traced, &|t| t.json_bytes as f64),
    );
    // Real mode has no workload of its own in BENCHMARK.json; its layers
    // are measured here, on the same shard tree.
    real::layers(o, tr, out);
    seed
}
