//! Per-node work queues (paper Listing 1: `list *work_queue[numQueues]`).
//!
//! "The tree node can also store the links to work queues which keep track
//! of the recursive tasks; and this allows for the implementation of load
//! balancing across different tree branches" (§III-B), and §V-E:
//! "examining the status of a subsystem can be easily accomplished by
//! checking the queue that \[is\] associated with the root of a subtree."
//!
//! [`WorkQueues`] is that bookkeeping, reduced to what is read: the §V-E
//! depth query is its only reader, so each node keeps one counter of
//! pending tasks instead of a list of them. The paper's `numQueues > 1`
//! has no caller in this reproduction; it is one queue per node.
//! Schedulers enqueue a task against a node, complete it as the work
//! retires, and dispatchers read per-subtree depths to steer new work.

use crate::topology::{NodeId, Tree};

/// Work-queue state for every node of a tree.
#[derive(Debug, Clone)]
pub struct WorkQueues {
    /// Pending tasks per node.
    pending: Vec<usize>,
    /// Total ever enqueued per node.
    spawned: Vec<u64>,
}

impl WorkQueues {
    /// One empty queue on every node of `tree`.
    pub fn new(tree: &Tree) -> Self {
        WorkQueues {
            pending: vec![0; tree.len()],
            spawned: vec![0; tree.len()],
        }
    }

    /// Enqueue a task on `node`.
    pub fn enqueue(&mut self, node: NodeId) {
        self.pending[node.0] += 1;
        self.spawned[node.0] += 1;
    }

    /// Complete one pending task on `node`. Returns false, and changes
    /// nothing, when `node` has nothing pending.
    pub fn complete(&mut self, node: NodeId) -> bool {
        match self.pending[node.0].checked_sub(1) {
            Some(left) => {
                self.pending[node.0] = left;
                true
            }
            None => false,
        }
    }

    /// Pending tasks on a node.
    pub fn depth(&self, node: NodeId) -> usize {
        self.pending[node.0]
    }

    /// Pending tasks in the whole subtree rooted at `node` — the §V-E
    /// subsystem-status query.
    pub fn subtree_depth(&self, tree: &Tree, node: NodeId) -> usize {
        let mut total = self.depth(node);
        for &c in tree.children(node) {
            total += self.subtree_depth(tree, c);
        }
        total
    }

    /// Total tasks ever enqueued on a node.
    pub fn spawned(&self, node: NodeId) -> u64 {
        self.spawned[node.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;
    use northup_hw::catalog;

    fn tree() -> Tree {
        presets::asymmetric_fig2_with(catalog::ssd_hyperx_predator())
    }

    #[test]
    fn enqueue_complete_roundtrip() {
        let t = tree();
        let mut wq = WorkQueues::new(&t);
        wq.enqueue(NodeId(1));
        assert_eq!(wq.depth(NodeId(1)), 1);
        assert!(wq.complete(NodeId(1)));
        assert!(!wq.complete(NodeId(1)), "double-complete is false");
        assert_eq!(wq.depth(NodeId(1)), 0);
        assert_eq!(wq.spawned(NodeId(1)), 1);
    }

    #[test]
    fn subtree_depth_aggregates_branches() {
        let t = tree();
        let mut wq = WorkQueues::new(&t);
        // Fig. 2 subtree 2: n2 (nvm) -> n3 (dram) -> n4 (gpu leaf).
        wq.enqueue(NodeId(2));
        wq.enqueue(NodeId(3));
        wq.enqueue(NodeId(4));
        wq.enqueue(NodeId(1));
        assert_eq!(wq.subtree_depth(&t, NodeId(2)), 3);
        assert_eq!(wq.subtree_depth(&t, NodeId(1)), 1);
        assert_eq!(wq.subtree_depth(&t, t.root()), 4);
    }

    /// Seeded random enqueue/complete sequences against a plain list of
    /// pending tasks: every node's depth and subtree depth, and every
    /// `complete` result (false exactly when the node has none pending).
    #[test]
    fn counters_match_a_pending_list_model() {
        let t = tree();
        let nodes: Vec<NodeId> = t.nodes().map(|n| n.id).collect();
        for seed in 1..=32u64 {
            let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let mut next = || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            let mut wq = WorkQueues::new(&t);
            let mut model: Vec<NodeId> = Vec::new();
            let mut empty_completes = 0;
            for _ in 0..400 {
                let node = nodes[(next() % nodes.len() as u64) as usize];
                if next() % 2 == 0 {
                    wq.enqueue(node);
                    model.push(node);
                } else {
                    let pos = model.iter().position(|&n| n == node);
                    assert_eq!(wq.complete(node), pos.is_some(), "seed {seed}");
                    match pos {
                        Some(p) => {
                            model.remove(p);
                        }
                        None => empty_completes += 1,
                    }
                }
                for &n in &nodes {
                    let in_subtree = |m: NodeId| {
                        std::iter::successors(Some(m), |&x| t.parent(x)).any(|x| x == n)
                    };
                    let depth = model.iter().filter(|&&m| m == n).count();
                    let subtree = model.iter().filter(|&&m| in_subtree(m)).count();
                    assert_eq!(wq.depth(n), depth, "seed {seed}, node {n:?}");
                    assert_eq!(wq.subtree_depth(&t, n), subtree, "seed {seed}, node {n:?}");
                }
            }
            assert!(
                empty_completes > 0,
                "seed {seed} never completed on an empty node"
            );
        }
    }
}
