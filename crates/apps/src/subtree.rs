//! Scheduling across asymmetric subtrees (paper §V-E and §VII).
//!
//! "The system is subject to load imbalance when uneven workloads are
//! assigned to different subtrees. Northup's topological tree structure is
//! able to naturally support dynamic load balancing when tree nodes store
//! information such as on-going tasks at different subtrees."
//!
//! This module runs a batch of independent stencil jobs over the Fig. 2
//! asymmetric tree: every leaf (a CPU DRAM leaf, a GPU behind an NVM
//! subtree, a PIM unit and an FPGA under a shared DRAM node) is a branch
//! target with its own path from the root and its own throughput. Two
//! dispatch policies are compared:
//!
//! * [`Dispatch::RoundRobin`] — static, topology-blind;
//! * [`Dispatch::EarliestFinish`] — dynamic: each job goes to the branch
//!   whose leaf processor frees up first (the queue-status query the paper
//!   describes: "examining the status of a subsystem can be easily
//!   accomplished by checking the queue associated with the root of a
//!   subtree").

use crate::calibration::model_for;
use crate::report::AppRun;
use northup::{ExecMode, NodeId, ProcKind, Result, Runtime, Tree};
use northup_sim::SimTime;
use serde::{Deserialize, Serialize};

/// Job dispatch policy across subtrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Dispatch {
    /// Jobs rotate across branches regardless of their speed.
    RoundRobin,
    /// Each job goes to the branch whose leaf frees up first.
    EarliestFinish,
    /// Each job goes to the branch whose subtree work queue is shallowest —
    /// the paper's literal queue-status mechanism (Listing 1 work queues +
    /// §V-E subsystem checks). Tracks pending jobs with
    /// [`northup::WorkQueues`] and completes them as their virtual
    /// completion times pass.
    ShortestQueue,
}

/// One branch: the path from the root to a compute leaf.
#[derive(Debug, Clone)]
pub struct Branch {
    /// Nodes from the first level below the root down to the leaf.
    pub path: Vec<NodeId>,
    /// The leaf's processor kind.
    pub proc: ProcKind,
    /// The leaf's processor name (cost-model key).
    pub proc_name: String,
}

/// Enumerate the branches (root-to-leaf paths) of a tree.
pub fn branches(tree: &Tree) -> Vec<Branch> {
    let mut out = Vec::new();
    for leaf in tree.leaves() {
        let Some(proc_) = leaf.procs.first() else {
            continue;
        };
        let mut path = vec![leaf.id];
        let mut cur = leaf.id;
        while let Some(p) = tree.parent(cur) {
            if p == tree.root() {
                break;
            }
            path.push(p);
            cur = p;
        }
        path.reverse();
        out.push(Branch {
            path,
            proc: proc_.kind,
            proc_name: proc_.name.clone(),
        });
    }
    out
}

/// Outcome of a batch run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SubtreeOutcome {
    /// The run report.
    pub run: AppRun,
    /// Jobs executed per branch leaf.
    pub per_leaf: Vec<(NodeId, usize)>,
}

/// Run `jobs` identical stencil chunks (`block x block`, `steps` deep)
/// over the branches of `tree` under the given dispatch policy.
pub fn run_batch(
    tree: Tree,
    jobs: usize,
    block: usize,
    steps: u64,
    dispatch: Dispatch,
) -> Result<SubtreeOutcome> {
    let rt = Runtime::new(tree, ExecMode::Modeled)?;
    let branches = branches(rt.tree());
    assert!(!branches.is_empty(), "tree has no compute leaves");
    let bytes = (block * block * 4) as u64;
    let cells = (block * block) as u64;

    let input = rt.alloc(bytes * jobs as u64, rt.tree().root())?;
    // Results land in a separate root region: writing back into `input`
    // would make every job's first read wait on the previous job's final
    // write (dependencies are tracked per buffer, not per byte range).
    let output = rt.alloc(bytes * jobs as u64, rt.tree().root())?;
    let mut counts = vec![0usize; branches.len()];
    let mut pending: Vec<(u64, Vec<northup::BufferHandle>)> = Vec::new();
    let mut wq = northup::WorkQueues::new(rt.tree(), 1);
    // (completion time, branch head node, task id) for ShortestQueue.
    let mut inflight: Vec<(SimTime, NodeId, northup::TaskId)> = Vec::new();

    for j in 0..jobs as u64 {
        let b = match dispatch {
            Dispatch::RoundRobin => (j as usize) % branches.len(),
            Dispatch::ShortestQueue => {
                // Bounded admission: a real dispatcher hands out work as
                // completions free slots. Block (advance virtual "now" to
                // the earliest completion) while the in-flight window is
                // full, retiring finished tasks from their queues — this is
                // what lets queue depths reflect per-branch backlog rather
                // than a mere assignment count.
                let window = 2 * branches.len();
                while inflight.len() >= window {
                    let (pos, &(done, head, id)) = inflight
                        .iter()
                        .enumerate()
                        .min_by_key(|(_, &(done, _, _))| done)
                        .expect("non-empty inflight");
                    let _ = done;
                    wq.complete(head, id);
                    inflight.remove(pos);
                }
                // The SV-E query: shallowest subtree queue wins.
                let mut best = 0usize;
                let mut best_depth = usize::MAX;
                for (i, br) in branches.iter().enumerate() {
                    let depth = wq.subtree_depth(rt.tree(), br.path[0]);
                    if depth < best_depth {
                        best_depth = depth;
                        best = i;
                    }
                }
                best
            }
            Dispatch::EarliestFinish => {
                // The §V-E subsystem-status query: pick the branch whose
                // leaf processor frees up first.
                let mut best = 0usize;
                let mut best_t = SimTime(u64::MAX);
                for (i, br) in branches.iter().enumerate() {
                    let leaf = *br.path.last().expect("non-empty path");
                    let t = rt.proc_busy_until(leaf, br.proc)?;
                    if t < best_t {
                        best_t = t;
                        best = i;
                    }
                }
                best
            }
        };
        let branch = &branches[b];
        counts[b] += 1;

        // Move the job down the branch, compute at its leaf, release.
        let mut stages = Vec::with_capacity(branch.path.len());
        let mut cur = input;
        let mut cur_off = j * bytes;
        for &node in &branch.path {
            let stage = rt.alloc(bytes, node)?;
            rt.move_data(stage, 0, cur, cur_off, bytes)?;
            stages.push(stage);
            cur = stage;
            cur_off = 0;
        }
        let leaf = *branch.path.last().expect("non-empty path");
        let dur = model_for(&branch.proc_name).stencil_time(cells, steps);
        let served =
            rt.charge_compute(leaf, branch.proc, dur, &[cur], &[cur], &format!("job {j}"))?;
        if dispatch == Dispatch::ShortestQueue {
            let id = wq.enqueue(branch.path[0], 0);
            inflight.push((served.end, branch.path[0], id));
        }
        pending.push((j, stages));
    }

    // Write-behind: results return along their paths after all loads are
    // issued, so result writes do not head-of-line-block later jobs' loads
    // on the shared root device (the §III-C multi-stage queues let loads
    // overtake queued writes the same way).
    for (j, stages) in pending {
        for w in (1..stages.len()).rev() {
            rt.move_data(stages[w - 1], 0, stages[w], 0, bytes)?;
        }
        rt.move_data(output, j * bytes, stages[0], 0, bytes)?;
        for s in stages {
            rt.release(s)?;
        }
    }

    let per_leaf = branches
        .iter()
        .zip(&counts)
        .map(|(br, &n)| (*br.path.last().unwrap(), n))
        .collect();
    Ok(SubtreeOutcome {
        run: AppRun {
            name: format!("subtree-batch/{dispatch:?}"),
            report: rt.report(),
            verified: None,
            checksum: None,
        },
        per_leaf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use northup::presets;

    #[test]
    fn fig2_tree_has_four_branches() {
        let brs = branches(&presets::asymmetric_fig2());
        assert_eq!(brs.len(), 4);
        // Depths differ (asymmetry).
        let depths: Vec<usize> = brs.iter().map(|b| b.path.len()).collect();
        assert!(depths.iter().max().unwrap() > depths.iter().min().unwrap());
    }

    #[test]
    fn both_policies_execute_every_job() {
        for d in [Dispatch::RoundRobin, Dispatch::EarliestFinish] {
            let out = run_batch(presets::asymmetric_fig2(), 40, 256, 8, d).unwrap();
            let total: usize = out.per_leaf.iter().map(|(_, n)| n).sum();
            assert_eq!(total, 40, "{d:?}");
        }
    }

    /// Fig. 2 tree with an SSD root, so the shared storage does not
    /// bottleneck the batch and the dispatch policy is what matters.
    fn fig2_ssd() -> northup::Tree {
        presets::asymmetric_fig2_with(northup_hw::catalog::ssd_hyperx_predator())
    }

    #[test]
    fn earliest_finish_beats_round_robin_on_the_asymmetric_tree() {
        // Compute-heavy jobs: the leaves' 25x throughput spread dominates.
        let rr = run_batch(fig2_ssd(), 60, 512, 256, Dispatch::RoundRobin).unwrap();
        let ef = run_batch(fig2_ssd(), 60, 512, 256, Dispatch::EarliestFinish).unwrap();
        let (t_rr, t_ef) = (rr.run.makespan(), ef.run.makespan());
        assert!(
            t_ef.as_secs_f64() < 0.6 * t_rr.as_secs_f64(),
            "dynamic {t_ef} should beat static {t_rr} clearly"
        );
    }

    #[test]
    fn earliest_finish_loads_fast_leaves_more() {
        let out = run_batch(fig2_ssd(), 80, 512, 256, Dispatch::EarliestFinish).unwrap();
        let min = out.per_leaf.iter().map(|(_, n)| *n).min().unwrap();
        let max = out.per_leaf.iter().map(|(_, n)| *n).max().unwrap();
        assert!(
            max > 2 * min.max(1),
            "heterogeneous branches should get very uneven shares: {:?}",
            out.per_leaf
        );
    }

    #[test]
    fn shared_slow_root_equalizes_policies() {
        // With the paper's HDD at the root, the storage serializes the
        // batch and the dispatch policy stops mattering — the scheduling
        // insight cuts both ways.
        let rr = run_batch(
            presets::asymmetric_fig2(),
            30,
            512,
            16,
            Dispatch::RoundRobin,
        )
        .unwrap();
        let ef = run_batch(
            presets::asymmetric_fig2(),
            30,
            512,
            16,
            Dispatch::EarliestFinish,
        )
        .unwrap();
        let ratio = rr.run.makespan().as_secs_f64() / ef.run.makespan().as_secs_f64();
        assert!((0.9..1.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn single_branch_tree_degenerates_gracefully() {
        let tree = presets::apu_two_level(northup_hw::catalog::ssd_hyperx_predator());
        let out = run_batch(tree, 10, 128, 4, Dispatch::EarliestFinish).unwrap();
        assert_eq!(out.per_leaf.len(), 1);
        assert_eq!(out.per_leaf[0].1, 10);
    }

    #[test]
    fn shortest_queue_dispatch_also_balances() {
        // The paper's literal queue-depth mechanism performs comparably to
        // earliest-finish on the heterogeneous tree.
        let rr = run_batch(fig2_ssd(), 60, 512, 256, Dispatch::RoundRobin).unwrap();
        let sq = run_batch(fig2_ssd(), 60, 512, 256, Dispatch::ShortestQueue).unwrap();
        let ef = run_batch(fig2_ssd(), 60, 512, 256, Dispatch::EarliestFinish).unwrap();
        let (t_rr, t_sq, t_ef) = (
            rr.run.makespan().as_secs_f64(),
            sq.run.makespan().as_secs_f64(),
            ef.run.makespan().as_secs_f64(),
        );
        assert!(
            t_sq < 0.7 * t_rr,
            "queue depths beat round-robin: {t_sq} vs {t_rr}"
        );
        // Depth is a weaker signal than projected finish times (it ignores
        // branch service rates), so SQ lands between RR and EF.
        assert!(
            t_sq <= t_ef * 2.0,
            "within 2x of earliest-finish: {t_sq} vs {t_ef}"
        );
        assert!(t_ef <= t_sq, "finish-time projection dominates depth-only");
        let total: usize = sq.per_leaf.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 60);
    }

    #[test]
    fn cluster_batch_distributes_across_nodes() {
        // §VII future work: the same dispatch machinery drives a whole
        // cluster — a PFS root, InfiniBand links, per-node NVM chains.
        let tree = presets::cluster(3, 1);
        let out = run_batch(tree, 48, 512, 64, Dispatch::EarliestFinish).unwrap();
        let total: usize = out.per_leaf.iter().map(|(_, n)| n).sum();
        assert_eq!(total, 48);
        // Every GPU node gets real work; the lone CPU node gets least.
        let counts: Vec<usize> = out.per_leaf.iter().map(|(_, n)| *n).collect();
        let min = *counts.iter().min().unwrap();
        let max = *counts.iter().max().unwrap();
        assert!(max >= min, "{counts:?}");
        assert!(counts.iter().filter(|&&c| c > 0).count() >= 3, "{counts:?}");
    }

    #[test]
    fn deterministic() {
        let a = run_batch(
            presets::asymmetric_fig2(),
            30,
            256,
            8,
            Dispatch::EarliestFinish,
        )
        .unwrap();
        let b = run_batch(
            presets::asymmetric_fig2(),
            30,
            256,
            8,
            Dispatch::EarliestFinish,
        )
        .unwrap();
        assert_eq!(a.run.makespan(), b.run.makespan());
        assert_eq!(a.per_leaf, b.per_leaf);
    }
}
