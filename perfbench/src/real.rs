//! `real-service`: `synthetic_trace` (`fleet_shard` tree, 2,000 µs mean
//! gap, scale 16, 128 jobs) replayed in virtual time under weighted-fair
//! admission, then every admitted job's chunks executed for real on a
//! pool of `nproc` threads: a `RealFabric` arena per job, its lease
//! installed, its chunks driven in order through `Fabric::run_chunk`.
//!
//! The replay calls the same public functions `run_service_real` does,
//! in the same order, so its per-job checksums must equal
//! `run_service_real`'s; each run checks that.

use crate::sched::{self, Pooled};
use crate::trace::{SpanId, Tracer};
use crate::{median, more_setups, pct, repeat, Opts, Outcome};
use northup::{presets, Tree};
use northup_apps::{run_service_real, run_service_with, synthetic_trace, TraceConfig};
use northup_exec::ThreadPool;
use northup_sched::{
    build_chain, AdmissionPolicy, Fabric, JobSpec, RealFabric, SchedReport, SchedulerConfig,
};
use northup_sim::SimTime;
use std::sync::Arc;
use std::time::Instant;

/// `run_service_real`'s default trace seed.
pub const DEFAULT_SEED: u64 = 7;
const JOBS: usize = 128;
/// The folded per-job (id, chunks, checksum) list at the default seed.
const PIN: u64 = 0x70a5_c755_d252_8e1b;

fn trace(tree: &Tree, seed: u64) -> Vec<JobSpec> {
    synthetic_trace(
        tree,
        &TraceConfig {
            jobs: JOBS,
            seed,
            mean_gap_us: 2_000,
            scale: 16,
        },
    )
}

/// One job's real execution: `(job id, chunks run, checksum)`.
type JobRun = (u64, u32, u64);

#[derive(Debug, Default)]
struct Times {
    setup: f64,
    trace: f64,
    replay: f64,
    arena: f64,
    arenas: usize,
    arena_bytes: u64,
    chunks: Vec<f64>,
    staged_bytes: u64,
    total: f64,
}

impl Times {
    fn chunk_s(&self) -> f64 {
        self.chunks.iter().sum()
    }
}

struct Rep {
    report: Option<SchedReport>,
    jobs: Vec<JobRun>,
    error: Option<String>,
    times: Times,
}

/// The inputs and the pool, built and ready to replay.
struct Prepared {
    root: SpanId,
    tree: Tree,
    specs: Vec<JobSpec>,
    pool: Arc<ThreadPool>,
    times: Times,
}

/// Set-up: build the tree, generate the trace, start the pool.
fn prepare(tr: &mut Tracer, rep: u64, seed: u64, threads: usize) -> Prepared {
    let root = tr.open("rep", None, Some(rep));
    let mut t = Times::default();
    let t0 = Instant::now();
    let s = tr.open("setup", Some(root), None);
    let tree = presets::fleet_shard();
    let g = tr.open("apps.trace", Some(s), None);
    let tg = Instant::now();
    let specs = trace(&tree, seed);
    t.trace = tg.elapsed().as_secs_f64();
    tr.close(g);
    let pool = Arc::new(ThreadPool::new(threads));
    tr.close(s);
    t.setup = t0.elapsed().as_secs_f64();
    Prepared {
        root,
        tree,
        specs,
        pool,
        times: t,
    }
}

/// The measured part, as `run_service_real` does it. Spans under the
/// rep: `real.replay` (`run_service_with`), then per job `real.job`
/// (tagged with the job id) → `real.arena` (`RealFabric::new` +
/// `install_lease`) and one `real.chunk` per `run_chunk`.
fn replay(tr: &mut Tracer, p: Prepared) -> Rep {
    let Prepared {
        root,
        tree,
        specs,
        pool,
        times: mut t,
    } = p;
    let t1 = Instant::now();
    let sp = tr.open("real.replay", Some(root), None);
    let tm = Instant::now();
    let result = run_service_with(
        &tree,
        specs.clone(),
        SchedulerConfig {
            policy: AdmissionPolicy::WeightedFair,
            ..SchedulerConfig::default()
        },
    );
    t.replay = tm.elapsed().as_secs_f64();
    tr.close(sp);
    let report = match result {
        Ok(r) => r,
        Err(e) => {
            tr.close(root);
            return Rep {
                report: None,
                jobs: Vec::new(),
                error: Some(format!("modeled replay failed: {e}")),
                times: t,
            };
        }
    };

    let mut jobs = Vec::new();
    let mut error = None;
    for (outcome, spec) in report.jobs.iter().zip(&specs) {
        let Some(leaf) = outcome.leaf else { continue };
        if outcome.chunks_done == 0 {
            continue;
        }
        let job = tr.open("real.job", Some(root), Some(outcome.id.0));
        let chain = build_chain(&tree, leaf, spec.work.chunk_work(), spec.work.chunks);
        let w = &spec.work;
        let file_bytes = w
            .read_bytes
            .max(w.xfer_bytes)
            .max(w.write_bytes)
            .max(4 << 10)
            * 2;
        let sp = tr.open("real.arena", Some(job), Some(outcome.id.0));
        let ta = Instant::now();
        let fab = RealFabric::new(&tree, Arc::clone(&pool), file_bytes);
        if let (Ok(fab), Some(lease)) = (&fab, outcome.lease()) {
            fab.install_lease(lease);
        }
        t.arena += ta.elapsed().as_secs_f64();
        tr.close(sp);
        let mut fab = match fab {
            Ok(f) => f,
            Err(e) => {
                tr.close(job);
                error = Some(format!("job {}: RealFabric::new failed: {e}", outcome.id.0));
                break;
            }
        };
        t.arenas += 1;
        t.arena_bytes += file_bytes;
        let mut at = SimTime::ZERO;
        let mut ran = 0;
        for i in 0..outcome.chunks_done {
            let sp = tr.open("real.chunk", Some(job), Some(outcome.id.0));
            let tc = Instant::now();
            let r = fab.run_chunk(&chain, i, at);
            t.chunks.push(tc.elapsed().as_secs_f64());
            tr.close(sp);
            match r {
                Ok(end) => {
                    at = end;
                    ran += 1;
                    t.staged_bytes += chain.work.xfer_bytes.max(chain.work.write_bytes);
                }
                Err(e) => {
                    error = Some(format!("job {} chunk {i}: {e}", outcome.id.0));
                    break;
                }
            }
        }
        tr.close(job);
        jobs.push((outcome.id.0, ran, fab.checksum()));
        if error.is_some() {
            break;
        }
    }
    t.total = t1.elapsed().as_secs_f64();
    tr.close(root);
    Rep {
        report: Some(report),
        jobs,
        error,
        times: t,
    }
}

fn account(rep: &Rep, out: &mut Outcome) {
    sched::account(JOBS, rep.report.as_ref(), out);
    if rep.report.is_some() && rep.error.is_some() {
        // Jobs lost to a real-mode error count as failed too.
        out.failed += JOBS as u64;
    }
}

/// `run_service_real` itself, untimed: each job's (id, chunks, checksum)
/// and the total retries. Checks that every job ran exactly the chunks
/// the model completed and, at the default seed, the pinned digest.
fn reference(o: &Opts, seed: u64, threads: usize, out: &mut Outcome) -> (Vec<JobRun>, u64) {
    let tree = presets::fleet_shard();
    let mut retries = 0u64;
    let reference: Vec<JobRun> = match run_service_real(
        &tree,
        trace(&tree, seed),
        AdmissionPolicy::WeightedFair,
        threads,
    ) {
        Ok(run) => {
            retries = run.jobs.iter().map(|j| u64::from(j.retries)).sum();
            for j in &run.jobs {
                let modeled = run.report.job(j.id).chunks_done;
                out.check(j.chunks_run == modeled, || {
                    format!(
                        "job {}: {} chunks run, model says {modeled}",
                        j.id.0, j.chunks_run
                    )
                });
            }
            run.jobs
                .iter()
                .map(|j| (j.id.0, j.chunks_run, j.checksum))
                .collect()
        }
        Err(e) => {
            out.failures.push(format!("run_service_real failed: {e}"));
            Vec::new()
        }
    };
    let digest = reference
        .iter()
        .flat_map(|&(id, n, c)| [id, u64::from(n), c])
        .fold(0xcbf2_9ce4_8422_2325u64, |h, x| {
            (h ^ x).wrapping_mul(0x0100_0000_01b3)
        });
    println!(
        "reference: {} jobs ran chunks, digest {digest:016x}, {threads} threads",
        reference.len()
    );
    if o.pinned(DEFAULT_SEED) {
        out.check(digest == PIN, || {
            format!("digest {digest:016x} != pinned {PIN:016x}")
        });
    }
    (reference, retries)
}

/// Account one replay and check it against the reference.
fn check_rep(rep: &Rep, label: &str, reference: &[JobRun], out: &mut Outcome) {
    account(rep, out);
    if let Some(e) = &rep.error {
        out.failures.push(format!("{label}: {e}"));
    }
    out.check(rep.jobs == reference, || {
        format!("{label}: per-job checksums differ from run_service_real")
    });
}

fn jobs_per_s(reps: &[Times]) -> f64 {
    median(
        &reps
            .iter()
            .map(|t| JOBS as f64 / t.total)
            .collect::<Vec<_>>(),
    )
}

/// The `real.*` layer metrics from traced `nproc`-thread and 1-thread
/// replays.
fn real_metrics(traced: &[Times], single: &[Times], retries: u64, out: &mut Outcome) {
    out.metric(
        "real.thread_scaling",
        jobs_per_s(traced) / jobs_per_s(single),
    );
    let med = |f: &dyn Fn(&Times) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
    out.metric("real.replay.s", med(&|t| t.replay));
    out.metric("real.arena.s", med(&|t| t.arena));
    out.metric("real.arena.count", med(&|t| t.arenas as f64));
    out.metric("real.arena.bytes", med(&|t| t.arena_bytes as f64));
    out.metric("real.chunk.s", med(&|t| t.chunk_s()));
    out.metric("real.chunk.count", med(&|t| t.chunks.len() as f64));
    let all: Vec<f64> = traced
        .iter()
        .flat_map(|t| t.chunks.iter().copied())
        .collect();
    out.metric("real.chunk.p50_us", pct(&all, 50) * 1e6);
    out.metric("real.chunk.p99_us", pct(&all, 99) * 1e6);
    out.metric(
        "real.chunk.staged_mb_per_s",
        med(&|t| t.staged_bytes as f64 / 1e6 / t.chunk_s()),
    );
    out.metric("real.retries", retries as f64);
}

/// The real-mode layer metrics alone, for another workload's traced
/// run: one traced replay on `nproc` threads and one on a single
/// thread, both checked against `run_service_real`. Real mode's wall
/// time swings too much with the host to gate it end to end (see
/// README.md), so no workload of `BENCHMARK.json` replays it for
/// `jobs_per_s`; its layers are still measured here.
pub fn layers(o: &Opts, tr: &mut Tracer, out: &mut Outcome) {
    let seed = o.seed_or(DEFAULT_SEED);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (reference, retries) = reference(o, seed, threads, out);
    tr.set_on(true);
    let mut runs = [Vec::new(), Vec::new()];
    for (runs, n) in runs.iter_mut().zip([threads, 1]) {
        let p = prepare(tr, 2000 + n as u64, seed, n);
        let rep = replay(tr, p);
        check_rep(
            &rep,
            &format!("real-mode replay on {n} threads"),
            &reference,
            out,
        );
        runs.push(rep.times);
    }
    tr.set_on(false);
    real_metrics(&runs[0], &runs[1], retries, out);
}

pub fn run(o: &Opts, tr: &mut Tracer, out: &mut Outcome) -> u64 {
    let seed = o.seed_or(DEFAULT_SEED);
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (reference, retries) = reference(o, seed, threads, out);

    let mut setups = Vec::new();
    let mut traced: Vec<Times> = Vec::new();
    let mut plain: Vec<Times> = Vec::new();
    let mut single: Vec<Times> = Vec::new();
    repeat(o, tr, |i, tr| {
        let p = prepare(tr, i as u64, seed, threads);
        setups.push(p.times.setup);
        let rep = replay(tr, p);
        check_rep(&rep, &format!("rep {i}"), &reference, out);
        if i == 0 {
            let mut pool = Pooled::default();
            pool.add(JOBS, rep.report.as_ref(), None);
            pool.end_to_end(out);
            pool.layer_counts(out);
        }
        let t = &rep.times;
        println!(
            "rep {i}{}: setup {:.4}s replay {:.3}s arena {:.3}s chunks {:.3}s ({}) total {:.3}s",
            if tr.is_on() { " (traced)" } else { "" },
            t.setup,
            t.replay,
            t.arena,
            t.chunk_s(),
            t.chunks.len(),
            t.total,
        );
        if !tr.is_on() {
            plain.push(rep.times);
            return;
        }
        traced.push(rep.times);
        // Thread scaling: the same traced replay on a one-thread pool,
        // run right after the `nproc`-thread one.
        let p = prepare(tr, 1000 + i as u64, seed, 1);
        let rep = replay(tr, p);
        check_rep(&rep, "1-thread rep", &reference, out);
        single.push(rep.times);
    });

    if !o.trace {
        more_setups(&mut setups, || prepare(tr, 0, seed, threads).times.setup);
        out.metric("jobs_per_s", jobs_per_s(&plain));
        out.metric("setup_s", median(&setups));
        return seed;
    }

    out.metric(
        "trace.overhead_frac",
        jobs_per_s(&plain) / jobs_per_s(&traced) - 1.0,
    );
    out.metric(
        "apps.trace.s",
        median(&traced.iter().map(|t| t.trace).collect::<Vec<_>>()),
    );
    real_metrics(&traced, &single, retries, out);
    seed
}
