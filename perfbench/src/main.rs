//! Benchmark binary for the Northup scheduler, fleet and real mode.
//!
//! Replays one seeded workload for a time budget, checks the program's
//! outputs, and prints one JSON result line. `run.py` builds and
//! launches it; see `README.md` for the workloads and metrics.
//!
//! ```text
//! northup-perfbench --workload <name> [--seed <n>] --seconds <s> --trace <0|1> [--out <dir>]
//! ```
//!
//! With `--trace 0` the result holds the end-to-end metrics, measured
//! with span recording off. With `--trace 1` it holds the per-layer
//! metrics: reps alternate between recording on and off, layer numbers
//! come from the recorded reps, and the gap between the two halves is
//! reported as `trace.overhead_frac`. Spans are written to
//! `<out>/spans-<workload>-<seed>.jsonl` at exit.

mod admission;
mod engine;
mod fleet;
mod real;
mod sched;
mod trace;

use std::path::PathBuf;
use std::time::Instant;
use trace::Tracer;

/// End-to-end metrics every untraced run reports, with units.
pub const END_TO_END: &[(&str, &str)] = &[
    ("jobs_per_s", "jobs/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sim_p50_s", "s"),
    ("sim_p99_s", "s"),
    ("sim_interactive_p99_s", "s"),
    ("slo_attain_frac", "ratio"),
    ("done_frac", "ratio"),
];

/// Per-layer metrics every traced run reports, with units. A layer the
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("trace.overhead_frac", "ratio"),
    ("rejected_frac", "ratio"),
    ("error_frac", "ratio"),
    ("apps.trace.s", "s"),
    ("sched.new.s", "s"),
    ("sched.submit.ns_per_job", "ns"),
    ("sched.run.s", "s"),
    ("sched.run.events", "count"),
    ("sched.run.events_per_s", "1/s"),
    ("sched.run.ns_per_event", "ns"),
    ("sched.run.superlinearity", "ratio"),
    ("sched.admission.commits", "count"),
    ("sched.admission.queued_frac", "ratio"),
    ("sched.admission.wait_p99_s", "s"),
    ("sched.admission.peak_admitted", "count"),
    ("sched.booking.chunks", "count"),
    ("sched.slo.ticks", "count"),
    ("sched.slo.sheds", "count"),
    ("sched.slo.degraded", "count"),
    ("sched.slo.overhead_s", "s"),
    ("sched.reject.queue_full", "count"),
    ("sched.reject.shed", "count"),
    ("sched.reject.quota_exceeded", "count"),
    ("sched.reject.infeasible", "count"),
    ("sched.report.records", "count"),
    ("sched.digest.s", "s"),
    ("fleet.new.s", "s"),
    ("fleet.run.s", "s"),
    ("fleet.run.events", "count"),
    ("fleet.router.migrations", "count"),
    ("fleet.router.rounds", "count"),
    ("fleet.router.rejected", "count"),
    ("fleet.shard_events_max_over_mean", "ratio"),
    ("fleet.report.json_s", "s"),
    ("fleet.report.json_bytes", "bytes"),
    ("real.replay.s", "s"),
    ("real.arena.s", "s"),
    ("real.arena.count", "count"),
    ("real.arena.bytes", "bytes"),
    ("real.chunk.s", "s"),
    ("real.chunk.count", "count"),
    ("real.chunk.p50_us", "us"),
    ("real.chunk.p99_us", "us"),
    ("real.chunk.staged_mb_per_s", "MB/s"),
    ("real.thread_scaling", "ratio"),
    ("real.retries", "count"),
];

/// Parsed command line.
pub struct Opts {
    pub workload: String,
    /// `None` ⇒ the workload's default seed (where pinned digests apply).
    pub seed: Option<u64>,
    pub seconds: f64,
    pub trace: bool,
    pub out: PathBuf,
}

impl Opts {
    /// The seed in effect for a workload whose default is `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Whether pinned digests apply: the seed in effect is the default.
    pub fn pinned(&self, default: u64) -> bool {
        self.seed_or(default) == default
    }
}

/// What one run measured and checked.
#[derive(Default)]
pub struct Outcome {
    /// Jobs submitted, over every rep.
    pub attempted: u64,
    /// Jobs that ended `Failed` or were lost to a run error.
    pub failed: u64,
    /// Failed output checks (any entry ⇒ `correct: false`).
    pub failures: Vec<String>,
    metrics: Vec<(String, f64)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.failures.push(what());
        }
    }

    pub fn metric(&mut self, name: &str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|(n, _)| *n == name),
            "unlisted metric {name}"
        );
        self.metrics.retain(|(n, _)| n != name);
        self.metrics.push((name.to_string(), value));
    }

    /// The result line: exactly `correct`, `attempted`, `failed`,
    /// `metrics`, the latter holding `names` in order.
    fn to_json(&self, names: &[(&str, &str)]) -> String {
        let mut m = Vec::new();
        for (name, unit) in names {
            let v = self
                .metrics
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0.0, |(_, v)| *v);
            let v = if v.is_finite() { v } else { 0.0 };
            m.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            ));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failed,
            m.join(", ")
        )
    }
}

/// A finite f64 as a JSON number with every digit Rust's shortest
/// round-trip formatting gives.
fn json_num(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Median of `v` (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// Integer-index percentile of `v` (the program's own convention).
pub fn pct(v: &[f64], p: usize) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[(s.len() - 1) * p.min(100) / 100]
}

/// Run `rep(i, tracer)` until the time budget is spent, and at least
/// three times — three traced and three untraced reps in traced mode,
/// which alternates traced and untraced reps starting with a traced one.
pub fn repeat(o: &Opts, tr: &mut Tracer, mut rep: impl FnMut(usize, &mut Tracer)) {
    let start = Instant::now();
    let min = if o.trace { 6 } else { 3 };
    let mut i = 0;
    loop {
        let t = Instant::now();
        tr.set_on(o.trace && i % 2 == 0);
        rep(i, tr);
        tr.set_on(false);
        let last = t.elapsed().as_secs_f64();
        i += 1;
        if i >= min && start.elapsed().as_secs_f64() + last > o.seconds {
            return;
        }
    }
}

/// Top `setups` up with set-up-only samples: at least 9 in all, and
/// more (up to 1000) while their total stays under a second, so a cheap
/// set-up still gets a steady median.
pub fn more_setups(setups: &mut Vec<f64>, mut setup: impl FnMut() -> f64) {
    let mut spent: f64 = setups.iter().sum();
    while setups.len() < 9 || (spent < 1.0 && setups.len() < 1000) {
        let s = setup();
        spent += s;
        setups.push(s);
    }
}

/// Peak resident set of this process in MB (VmHWM), 0 where unknown.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn parse_args() -> Result<Opts, String> {
    let mut o = Opts {
        workload: String::new(),
        seed: None,
        seconds: 10.0,
        trace: false,
        out: PathBuf::from(".bench_out"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => o.workload = val,
            "--seed" => o.seed = Some(val.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => o.seconds = val.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => o.trace = val == "1",
            "--out" => o.out = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(o)
}

fn main() {
    let o = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut tr = Tracer::new();
    let mut out = Outcome::default();
    let seed = match o.workload.as_str() {
        "engine-saturated" => engine::run(&o, &mut tr, &mut out),
        "admission-overload" => admission::run(&o, &mut tr, &mut out),
        "fleet-migrate" => fleet::run(&o, &mut tr, &mut out),
        "real-service" => real::run(&o, &mut tr, &mut out),
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    if !o.trace {
        out.metric("peak_rss_mb", peak_rss_mb());
    }
    if tr.len() > 0 {
        println!(
            "{:<20} {:>8} {:>12} {:>12}",
            "span", "count", "total_s", "self_s"
        );
        for (name, n, total, own) in tr.summary() {
            println!("{name:<20} {n:>8} {total:>12.6} {own:>12.6}");
        }
        let path = o.out.join(format!("spans-{}-{seed}.jsonl", o.workload));
        if let Err(e) =
            std::fs::create_dir_all(&o.out).and_then(|_| std::fs::write(&path, tr.to_jsonl()))
        {
            out.failures
                .push(format!("cannot write {}: {e}", path.display()));
        } else {
            println!("spans: {} written to {}", tr.len(), path.display());
        }
    }
    // A broken invariant fails in every episode of every rep; the first
    // few messages say what broke.
    for f in out.failures.iter().take(20) {
        println!("CHECK FAILED: {f}");
    }
    if out.failures.len() > 20 {
        println!("CHECK FAILED: ... and {} more", out.failures.len() - 20);
    }
    println!(
        "{}",
        out.to_json(if o.trace { PER_LAYER } else { END_TO_END })
    );
}
