//! Per-node work queues (paper Listing 1: `list *work_queue[numQueues]`).
//!
//! "The tree node can also store the links to work queues which keep track
//! of the recursive tasks; and this allows for the implementation of load
//! balancing across different tree branches" (§III-B), and §V-E:
//! "examining the status of a subsystem can be easily accomplished by
//! checking the queue that \[is\] associated with the root of a subtree."
//!
//! [`WorkQueues`] is that bookkeeping: schedulers enqueue chunk-task tags
//! against (node, queue) slots, mark them done as the work retires, and
//! dispatchers read per-queue and per-subtree depths to steer new work.

use crate::topology::{NodeId, Tree};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// Identifier of an enqueued task.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TaskId(pub u64);

/// One tracked chunk task.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskTag {
    /// Id.
    pub id: TaskId,
}

/// Work-queue state for every node of a tree.
#[derive(Debug, Clone)]
pub struct WorkQueues {
    /// `queues[node][q]` = pending tasks of queue `q` at `node`.
    queues: Vec<Vec<VecDeque<TaskTag>>>,
    /// Total ever enqueued per node.
    enqueued: Vec<u64>,
    /// Total completed per node.
    completed: Vec<u64>,
    next_id: u64,
}

impl WorkQueues {
    /// Queues for `tree`, `per_node` queues on every node (the paper's
    /// `numQueues`; Fig. 10 uses one per consumer).
    pub fn new(tree: &Tree, per_node: usize) -> Self {
        let per_node = per_node.max(1);
        WorkQueues {
            queues: (0..tree.len())
                .map(|_| (0..per_node).map(|_| VecDeque::new()).collect())
                .collect(),
            enqueued: vec![0; tree.len()],
            completed: vec![0; tree.len()],
            next_id: 0,
        }
    }

    /// Number of queues per node.
    pub fn queues_per_node(&self) -> usize {
        self.queues[0].len()
    }

    /// Enqueue a task on `(node, queue)`; returns its id.
    ///
    /// # Panics
    /// Panics on an out-of-range queue index.
    pub fn enqueue(&mut self, node: NodeId, queue: usize) -> TaskId {
        let id = TaskId(self.next_id);
        self.next_id += 1;
        self.queues[node.0][queue].push_back(TaskTag { id });
        self.enqueued[node.0] += 1;
        id
    }

    /// Complete (remove) a task wherever it sits. Returns true if found.
    pub fn complete(&mut self, node: NodeId, id: TaskId) -> bool {
        for q in &mut self.queues[node.0] {
            if let Some(pos) = q.iter().position(|t| t.id == id) {
                q.remove(pos);
                self.completed[node.0] += 1;
                return true;
            }
        }
        false
    }

    /// Pending tasks on one queue.
    pub fn depth(&self, node: NodeId, queue: usize) -> usize {
        self.queues[node.0][queue].len()
    }

    /// Pending tasks on a node (all queues).
    pub fn node_depth(&self, node: NodeId) -> usize {
        self.queues[node.0].iter().map(VecDeque::len).sum()
    }

    /// Pending tasks in the whole subtree rooted at `node` — the §V-E
    /// subsystem-status query.
    pub fn subtree_depth(&self, tree: &Tree, node: NodeId) -> usize {
        let mut total = self.node_depth(node);
        for &c in tree.children(node) {
            total += self.subtree_depth(tree, c);
        }
        total
    }

    /// The least-loaded queue index on a node (ties -> lowest index).
    pub fn shortest_queue(&self, node: NodeId) -> usize {
        self.queues[node.0]
            .iter()
            .enumerate()
            .min_by_key(|(i, q)| (q.len(), *i))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Totals (enqueued, completed) for a node.
    pub fn totals(&self, node: NodeId) -> (u64, u64) {
        (self.enqueued[node.0], self.completed[node.0])
    }

    /// Oldest pending task of a queue (what a consumer would pop — head —
    /// or a thief would steal).
    pub fn front(&self, node: NodeId, queue: usize) -> Option<&TaskTag> {
        self.queues[node.0][queue].front()
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
        let mut wq = WorkQueues::new(&t, 2);
        let id = wq.enqueue(NodeId(1), 0);
        assert_eq!(wq.depth(NodeId(1), 0), 1);
        assert_eq!(wq.node_depth(NodeId(1)), 1);
        assert!(wq.complete(NodeId(1), id));
        assert!(!wq.complete(NodeId(1), id), "double-complete is false");
        assert_eq!(wq.node_depth(NodeId(1)), 0);
        assert_eq!(wq.totals(NodeId(1)), (1, 1));
    }

    #[test]
    fn subtree_depth_aggregates_branches() {
        let t = tree();
        let mut wq = WorkQueues::new(&t, 1);
        // Fig. 2 subtree 2: n2 (nvm) -> n3 (dram) -> n4 (gpu leaf).
        wq.enqueue(NodeId(2), 0);
        wq.enqueue(NodeId(3), 0);
        wq.enqueue(NodeId(4), 0);
        wq.enqueue(NodeId(1), 0);
        assert_eq!(wq.subtree_depth(&t, NodeId(2)), 3);
        assert_eq!(wq.subtree_depth(&t, NodeId(1)), 1);
        assert_eq!(wq.subtree_depth(&t, t.root()), 4);
    }

    #[test]
    fn shortest_queue_balances() {
        let t = tree();
        let mut wq = WorkQueues::new(&t, 3);
        // Deal 7 tasks always to the shortest queue: depths end 3/2/2.
        for _ in 0..7 {
            let q = wq.shortest_queue(NodeId(1));
            wq.enqueue(NodeId(1), q);
        }
        let depths: Vec<usize> = (0..3).map(|q| wq.depth(NodeId(1), q)).collect();
        assert_eq!(depths.iter().sum::<usize>(), 7);
        assert!(depths.iter().max().unwrap() - depths.iter().min().unwrap() <= 1);
    }

    #[test]
    fn front_is_fifo_order() {
        let t = tree();
        let mut wq = WorkQueues::new(&t, 1);
        let first = wq.enqueue(NodeId(1), 0);
        let second = wq.enqueue(NodeId(1), 0);
        assert_eq!(wq.front(NodeId(1), 0).unwrap().id, first);
        wq.complete(NodeId(1), first);
        assert_eq!(wq.front(NodeId(1), 0).unwrap().id, second);
    }
}
