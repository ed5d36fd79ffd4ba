//! Canonical schedule digest: one `u64` summarizing everything
//! deterministic a [`SchedReport`] contains.
//!
//! The engine-rewrite contract (DESIGN.md §12) is *bit-identical
//! schedules*: swapping the event queue or the job-state layout must not
//! move a single admission, chunk, fault, or capacity sample. Comparing
//! whole reports across processes is awkward, so this module folds the
//! report's full deterministic content — per-job outcomes, the admission
//! order and log, the capacity trace, peak commitments, the chunk log,
//! resizes, preemption latencies, and the three fault logs — into one
//! number with a splitmix64-style mixer. Two reports share a digest
//! exactly when their deterministic content is identical; the
//! `sched_engine` bench gate pins the digests the pre-rewrite engine
//! produced and fails on any drift.
//!
//! Derived floating-point aggregates (`throughput`, percentile
//! latencies, `rejection_rate`) are deliberately excluded: they are pure
//! functions of the folded content, and folding re-derived floats would
//! only add formatting hazards, not coverage.

use crate::job::JobState;
use crate::scheduler::{AdmissionEventKind, SchedReport};
use northup::fault::FaultKind;

/// Sentinel folded for `None` optionals (`Option<SimTime>`,
/// `Option<NodeId>`); real times are nanoseconds and real node ids are
/// tiny, so the sentinel cannot collide.
const NONE: u64 = u64::MAX;

/// Incremental splitmix64-style mixer. Order-sensitive: `mix(a); mix(b)`
/// differs from `mix(b); mix(a)`, which is exactly what an event-order
/// digest needs.
#[derive(Debug, Clone, Copy)]
struct Mixer(u64);

impl Mixer {
    fn new() -> Self {
        // Arbitrary non-zero seed so a leading zero contributes.
        Mixer(0x243F_6A88_85A3_08D3)
    }

    fn mix(&mut self, v: u64) {
        let mut z = self.0 ^ v.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// Stable numeric code of a terminal (or not) job state.
fn state_code(s: JobState) -> u64 {
    match s {
        JobState::Queued => 0,
        JobState::Admitted => 1,
        JobState::Running => 2,
        JobState::Preempted => 3,
        JobState::Done => 4,
        JobState::Failed => 5,
        JobState::Rejected => 6,
        JobState::Cancelled => 7,
    }
}

/// Stable numeric code of an admission-log transition.
fn admission_code(k: AdmissionEventKind) -> u64 {
    match k {
        AdmissionEventKind::Admitted => 0,
        AdmissionEventKind::Released => 1,
        AdmissionEventKind::Preempted => 2,
        AdmissionEventKind::FaultEvicted => 3,
    }
}

/// Stable numeric code of a fault kind.
fn fault_code(k: FaultKind) -> u64 {
    match k {
        FaultKind::Transient => 0,
        FaultKind::Persistent => 1,
    }
}

/// Fold the report's full deterministic content into one `u64`.
///
/// Equal digests ⇔ equal schedules (up to 64-bit hash collisions): the
/// fold covers every per-job outcome field and every audit-trail series
/// in order, so any reordering, retiming, or recounting anywhere in the
/// run changes the result.
pub fn report_digest(r: &SchedReport) -> u64 {
    let mut m = Mixer::new();

    m.mix(r.jobs.len() as u64);
    for j in &r.jobs {
        m.mix(state_code(j.state));
        m.mix(j.arrival.0);
        m.mix(j.admitted_at.map_or(NONE, |t| t.0));
        m.mix(j.finished_at.map_or(NONE, |t| t.0));
        m.mix(j.leaf.map_or(NONE, |n| n.0 as u64));
        m.mix(u64::from(j.chunks_done));
        m.mix(u64::from(j.preemptions));
        m.mix(u64::from(j.fault.transient));
        m.mix(u64::from(j.fault.persistent));
        m.mix(u64::from(j.fault.retries));
        m.mix(j.fault.backoff.0);
        m.mix(u64::from(j.fault.reroutes));
        m.mix(0); // was `spilled_bytes`: kept so old digests still match
    }

    m.mix(r.makespan.0);
    m.mix(r.events);

    m.mix(r.admission_order.len() as u64);
    for id in &r.admission_order {
        m.mix(id.0);
    }

    m.mix(r.admission_log.len() as u64);
    for e in &r.admission_log {
        m.mix(e.at.0);
        m.mix(e.job.0);
        m.mix(admission_code(e.kind));
    }

    m.mix(r.capacity_trace.len() as u64);
    for s in &r.capacity_trace {
        m.mix(s.at.0);
        m.mix(s.node.0 as u64);
        m.mix(s.committed);
    }

    // Peak commitments: (node, peak) pairs in node order. Only touched
    // nodes appear (a touched node's peak is ≥ 1 byte, because empty
    // reservation entries never exist), so the folded stream is
    // independent of how the engine stores the accounting.
    for (n, peak) in r.max_committed_pairs() {
        m.mix(n.0 as u64);
        m.mix(peak);
    }

    m.mix(r.chunk_log.len() as u64);
    for c in &r.chunk_log {
        m.mix(c.at.0);
        m.mix(c.job.0);
        m.mix(u64::from(c.index));
    }

    m.mix(r.resize_log.len() as u64);
    for s in &r.resize_log {
        m.mix(s.at.0);
        for &b in &s.budgets {
            m.mix(b);
        }
    }

    m.mix(r.preemption_latencies.len() as u64);
    for d in &r.preemption_latencies {
        m.mix(d.0);
    }

    m.mix(r.fault_log.len() as u64);
    for f in &r.fault_log {
        m.mix(f.at.0);
        m.mix(f.node.0 as u64);
        m.mix(f.job.0);
        m.mix(fault_code(f.kind));
        m.mix(f.ordinal);
    }

    m.mix(r.quarantine_log.len() as u64);
    for q in &r.quarantine_log {
        m.mix(q.at.0);
        m.mix(q.node.0 as u64);
        m.mix(u64::from(q.faults));
    }

    m.mix(r.restore_log.len() as u64);
    for s in &r.restore_log {
        m.mix(s.at.0);
        m.mix(s.node.0 as u64);
        m.mix(u64::from(s.attempt));
        m.mix(s.budget);
    }

    m.mix(r.spill_log.len() as u64);
    for s in &r.spill_log {
        m.mix(s.at.0);
        m.mix(s.job.0);
        m.mix(s.bytes);
        m.mix(s.done.0);
    }

    m.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobSpec, JobWork};
    use crate::reserve::Reservation;
    use crate::scheduler::{JobScheduler, SchedulerConfig};
    use northup::presets;
    use northup_hw::catalog;
    use northup_sim::SimDur;

    fn run(n: usize) -> SchedReport {
        let tree = presets::apu_two_level(catalog::ssd_hyperx_predator());
        let mut s = JobScheduler::new(tree.clone(), SchedulerConfig::default());
        for i in 0..n {
            let dram = tree.children(tree.root())[0];
            let bytes = tree.node(dram).mem.capacity / 4;
            s.submit(JobSpec::new(
                format!("j{i}"),
                Reservation::new().with(dram, bytes),
                JobWork::new(2)
                    .read(16 << 20)
                    .xfer(16 << 20)
                    .compute(SimDur::from_millis(1)),
            ));
        }
        s.run().unwrap()
    }

    #[test]
    fn same_schedule_same_digest() {
        assert_eq!(report_digest(&run(6)), report_digest(&run(6)));
    }

    #[test]
    fn different_schedules_different_digests() {
        assert_ne!(report_digest(&run(5)), report_digest(&run(6)));
    }

    #[test]
    fn digest_is_sensitive_to_event_count() {
        let a = run(4);
        let mut b = a.clone();
        b.events += 1;
        assert_ne!(report_digest(&a), report_digest(&b));
    }
}
