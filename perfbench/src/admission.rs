//! `admission-overload`: the SLO gate's set-up at scale — `apu_two_level`
//! tree, `overload_trace` open-loop at 200% of estimated capacity with
//! concurrency 3, replayed under `run_service_slo`'s configuration with
//! `overload_slo()`. At most three jobs hold reservations at once, so
//! work queues stay shallow and admission, fair queueing and the SLO
//! controller do the work.
//!
//! A rep is 800 independent 500-job overload episodes (4·10^5 jobs), each
//! on a fresh scheduler, with latencies pooled over all of them. On one
//! long trace the controller's operating point depends on the seed: over
//! 10^5 jobs its time in brownout ranged from 16% to 99% of ticks across
//! seeds 1–10, moving the completed fraction between 0.46 and 0.65 and
//! the p99 between 64 and 442 ms. Pooling many episodes measures the
//! controller's typical behaviour instead of one seed's trajectory.

use crate::sched::{self, Pooled, RepStat};
use crate::trace::{SpanId, Tracer};
use crate::{median, more_setups, repeat, Opts, Outcome};
use northup::{presets, Tree};
use northup_apps::{overload_slo, overload_trace, OverloadConfig};
use northup_hw::catalog;
use northup_sched::{
    AdmissionPolicy, NodeBudgets, Priority, SchedReport, SchedulerConfig, SloConfig,
};

/// The `slo_report` gate's seed.
pub const DEFAULT_SEED: u64 = 11;
const EPISODES: u64 = 800;
const EPISODE_JOBS: usize = 500;
const LOAD_PCT: u32 = 200;
/// The folded episode digests at the default seed.
const PIN: u64 = 0x1383_098b_2ca0_0064;

fn tree() -> Tree {
    presets::apu_two_level(catalog::ssd_hyperx_predator())
}

/// `run_service_slo`'s configuration.
fn config(slo: Option<SloConfig>) -> SchedulerConfig {
    SchedulerConfig {
        policy: AdmissionPolicy::WeightedFair,
        preempt: false,
        slo,
        ..SchedulerConfig::default()
    }
}

/// Episode `e` of seed `seed` replays the trace of seed `1000·seed + e`.
fn prepare(
    tr: &mut Tracer,
    parent: Option<SpanId>,
    seed: u64,
    e: u64,
    slo: Option<SloConfig>,
) -> sched::Prepared {
    sched::prepare(
        tr,
        parent,
        tree,
        |tree| {
            overload_trace(
                tree,
                &OverloadConfig {
                    jobs: EPISODE_JOBS,
                    seed: seed.wrapping_mul(1000).wrapping_add(e),
                    load_pct: LOAD_PCT,
                    ..OverloadConfig::default()
                },
            )
        },
        config(slo),
    )
}

/// One rep: every episode, under a `rep` span. Returns the summed
/// stats and the folded digest; folds each report into `pool` when
/// given.
fn rep(
    tr: &mut Tracer,
    i: u64,
    seed: u64,
    slo: Option<SloConfig>,
    mut pool: Option<&mut Pooled>,
    out: &mut Outcome,
) -> (RepStat, u64) {
    let span = tr.open("rep", None, Some(i));
    let target = slo.as_ref().map(|s| s.targets[0]);
    let mut stat = RepStat::default();
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for e in 0..EPISODES {
        let p = prepare(tr, Some(span), seed, e, slo.clone());
        let rp = sched::replay(tr, p);
        sched::account(rp.jobs, rp.report.as_ref(), out);
        stat.add(&rp);
        digest = (digest ^ rp.digest).wrapping_mul(0x0100_0000_01b3);
        if let Some(r) = &rp.report {
            check(r, out);
        }
        if let Some(pool) = pool.as_deref_mut() {
            pool.add(rp.jobs, rp.report.as_ref(), target);
        }
    }
    tr.close(span);
    (stat, digest)
}

/// The capacity envelope: no node's committed bytes ever exceed the
/// largest budget in force up to then (initial budgets, then every
/// applied resize).
fn envelope_holds(r: &SchedReport) -> bool {
    let mut cap = NodeBudgets::from_tree(&tree(), config(None).headroom).snapshot();
    let mut resizes = r.resize_log.iter().peekable();
    for s in &r.capacity_trace {
        while let Some(rs) = resizes.next_if(|rs| rs.at <= s.at) {
            for (c, &b) in cap.iter_mut().zip(&rs.budgets) {
                *c = (*c).max(b);
            }
        }
        if s.committed > cap[s.node.0] {
            return false;
        }
    }
    true
}

fn check(r: &SchedReport, out: &mut Outcome) {
    out.check(envelope_holds(r), || {
        "capacity envelope violated".to_string()
    });
    let shed = r
        .shed_log
        .iter()
        .filter(|s| s.class == Priority::Interactive)
        .count();
    out.check(shed == 0, || format!("{shed} Interactive jobs shed"));
}

pub fn run(o: &Opts, tr: &mut Tracer, out: &mut Outcome) -> u64 {
    let seed = o.seed_or(DEFAULT_SEED);
    let mut digests = Vec::new();
    let mut setups = Vec::new();
    let mut traced: Vec<RepStat> = Vec::new();
    let mut plain: Vec<RepStat> = Vec::new();
    let mut off: Vec<RepStat> = Vec::new();
    repeat(o, tr, |i, tr| {
        let mut pool = Pooled::default();
        let first = (i == 0).then_some(&mut pool);
        let (stat, digest) = rep(tr, i as u64, seed, Some(overload_slo()), first, out);
        if i == 0 {
            pool.end_to_end(out);
            pool.layer_counts(out);
        }
        let t = stat.times;
        println!(
            "rep {i}{}: setup {:.3}s submit {:.3}s run {:.3}s digest {:.3}s events {} digest {digest:016x}",
            if tr.is_on() { " (traced)" } else { "" },
            t.setup,
            t.submit,
            t.run,
            t.digest,
            stat.events,
        );
        digests.push(digest);
        setups.push(t.setup);
        if !tr.is_on() {
            plain.push(stat);
            return;
        }
        traced.push(stat);
        // Controller cost: the same episodes with the controller off,
        // traced and run right after the controller-on rep.
        off.push(rep(tr, 1000 + i as u64, seed, None, None, out).0);
    });
    out.check(digests.iter().all(|&d| d == digests[0]), || {
        format!("digest differs between same-seed reps: {digests:016x?}")
    });
    if o.pinned(DEFAULT_SEED) {
        out.check(digests[0] == PIN, || {
            format!("digest {:016x} != pinned {PIN:016x}", digests[0])
        });
    }

    if !o.trace {
        more_setups(&mut setups, || {
            (0..EPISODES)
                .map(|e| prepare(tr, None, seed, e, Some(overload_slo())).times.setup)
                .sum()
        });
        out.metric("jobs_per_s", sched::med(&plain, RepStat::jobs_per_s));
        out.metric("setup_s", median(&setups));
        return seed;
    }

    sched::layer_times(&traced, out);
    out.metric(
        "trace.overhead_frac",
        sched::med(&plain, RepStat::jobs_per_s) / sched::med(&traced, RepStat::jobs_per_s) - 1.0,
    );
    let (on_s, off_s) = (
        sched::med(&traced, |r| r.times.run),
        sched::med(&off, |r| r.times.run),
    );
    out.metric("sched.slo.overhead_s", on_s - off_s);
    println!("controller: run {on_s:.3}s on, {off_s:.3}s off");
    seed
}
