//! The waiting-job queues: one deque per priority class, with O(1)
//! removal and the global FIFO order derived from the class deques.

use crate::job::JobId;
use std::collections::VecDeque;

/// Sentinel key of a job with no live queue entry.
const NOT_QUEUED: u64 = u64::MAX;

/// The first back-push key. Back pushes count up from here and front
/// requeues count down from just below it, so the two ranges never meet.
const FIRST_BACK: u64 = 1 << 63;

/// The waiting-job queues with O(1) removal. Each class is a deque of
/// `(job, key)` entries; a job's live key sits in a dense per-job slot.
/// Removing a job just bumps its slot to [`NOT_QUEUED`] — stale entries
/// are skipped lazily and pruned when they reach a head. This replaces
/// the heap-era engine's O(queue-depth) `retain` scans on every
/// admission (see DESIGN.md §12).
///
/// Back pushes take rising keys and front requeues take falling keys,
/// so every class deque stays sorted by key and the global FIFO order —
/// arrivals at the back, evicted jobs at the front — is the merge of
/// the three deques by key.
pub(super) struct JobQueues {
    class: [VecDeque<(JobId, u64)>; 3],
    /// `slot[job]` = key of the job's live entry, [`NOT_QUEUED`] if none.
    slot: Vec<u64>,
    /// `cls[job]` = class of the job's live entry (valid only while
    /// queued; lets `remove` keep the per-class counts without a lookup).
    cls: Vec<u8>,
    next_back: u64,
    next_front: u64,
    waiting: usize,
    /// Live waiters per class (the controller's backpressure counts).
    live: [usize; 3],
}

impl JobQueues {
    pub(super) fn new(jobs: usize) -> Self {
        JobQueues {
            class: [VecDeque::new(), VecDeque::new(), VecDeque::new()],
            slot: vec![NOT_QUEUED; jobs],
            cls: vec![0; jobs],
            next_back: FIRST_BACK,
            next_front: FIRST_BACK,
            waiting: 0,
            live: [0; 3],
        }
    }

    /// Live waiters (the backpressure count).
    pub(super) fn len(&self) -> usize {
        self.waiting
    }

    /// Live waiters in class `c`.
    pub(super) fn class_live(&self, c: usize) -> usize {
        self.live[c]
    }

    fn enqueue(&mut self, id: JobId, class: usize, key: u64) {
        debug_assert_eq!(self.slot[id.0 as usize], NOT_QUEUED, "job double-queued");
        self.slot[id.0 as usize] = key;
        self.cls[id.0 as usize] = class as u8;
        self.waiting += 1;
        self.live[class] += 1;
    }

    pub(super) fn push_back(&mut self, id: JobId, class: usize) {
        let key = self.next_back;
        self.next_back += 1;
        self.enqueue(id, class, key);
        self.class[class].push_back((id, key));
    }

    /// Front-of-class requeue (evicted jobs keep their seniority).
    pub(super) fn push_front(&mut self, id: JobId, class: usize) {
        self.next_front -= 1;
        let key = self.next_front;
        self.enqueue(id, class, key);
        self.class[class].push_front((id, key));
    }

    /// Remove the job from the queues — O(1), lazy.
    pub(super) fn remove(&mut self, id: JobId) {
        if self.slot[id.0 as usize] != NOT_QUEUED {
            self.slot[id.0 as usize] = NOT_QUEUED;
            self.waiting -= 1;
            self.live[usize::from(self.cls[id.0 as usize])] -= 1;
        }
    }

    fn is_live(&self, &(id, key): &(JobId, u64)) -> bool {
        self.slot[id.0 as usize] == key
    }

    /// Live jobs of class `c`, newest first (the shed victim order:
    /// the most recent arrival has the least sunk queueing investment).
    pub(super) fn class_live_rev(&self, c: usize) -> impl Iterator<Item = JobId> + '_ {
        self.class[c]
            .iter()
            .rev()
            .filter(|e| self.is_live(e))
            .map(|&(id, _)| id)
    }

    /// Prune stale entries, then peek the head entry of class `c`.
    fn live_front(&mut self, c: usize) -> Option<(JobId, u64)> {
        while let Some(&e) = self.class[c].front() {
            if self.is_live(&e) {
                return Some(e);
            }
            self.class[c].pop_front();
        }
        None
    }

    /// Prune stale entries, then peek the head of class `c`.
    pub(super) fn class_head(&mut self, c: usize) -> Option<JobId> {
        self.live_front(c).map(|(id, _)| id)
    }

    /// Prune stale entries, then peek the global FIFO head: the class
    /// head with the smallest key.
    pub(super) fn fifo_head(&mut self) -> Option<JobId> {
        (0..3)
            .filter_map(|c| self.live_front(c))
            .min_by_key(|&(_, key)| key)
            .map(|(id, _)| id)
    }

    /// Live jobs in FIFO order (stale entries skipped, not pruned): a
    /// three-way merge of the class deques by key.
    pub(super) fn fifo_live(&self) -> impl Iterator<Item = JobId> + '_ {
        let mut next = [0usize; 3];
        std::iter::from_fn(move || {
            let mut best: Option<(u64, usize)> = None;
            for (c, i) in next.iter_mut().enumerate() {
                while let Some(e) = self.class[c].get(*i) {
                    if self.is_live(e) {
                        if best.is_none_or(|(key, _)| e.1 < key) {
                            best = Some((e.1, c));
                        }
                        break;
                    }
                    *i += 1;
                }
            }
            let (_, c) = best?;
            let (id, _) = self.class[c][next[c]];
            next[c] += 1;
            Some(id)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The reference model: one plain deque in global FIFO order, pushed
    /// and removed in step with the queues under test.
    #[derive(Default)]
    struct Model {
        fifo: VecDeque<(JobId, usize)>,
    }

    impl Model {
        fn queued(&self, id: JobId) -> bool {
            self.fifo.iter().any(|&(j, _)| j == id)
        }

        fn class_ids(&self, c: usize) -> Vec<JobId> {
            self.fifo
                .iter()
                .filter(|&&(_, k)| k == c)
                .map(|&(j, _)| j)
                .collect()
        }
    }

    /// SplitMix64: a tiny deterministic generator for the op sequence.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        }
    }

    fn check(q: &mut JobQueues, m: &Model, step: usize) {
        // Lazy views first, before any head read prunes a stale front.
        let live: Vec<JobId> = q.fifo_live().collect();
        let want: Vec<JobId> = m.fifo.iter().map(|&(j, _)| j).collect();
        assert_eq!(live, want, "fifo_live at step {step}");
        assert_eq!(q.len(), m.fifo.len(), "len at step {step}");
        for c in 0..3 {
            let ids = m.class_ids(c);
            assert_eq!(q.class_live(c), ids.len(), "class_live({c}) at step {step}");
            let rev: Vec<JobId> = q.class_live_rev(c).collect();
            assert!(
                rev.iter().eq(ids.iter().rev()),
                "class_live_rev({c}) at step {step}"
            );
        }
        assert_eq!(
            q.fifo_head(),
            want.first().copied(),
            "fifo_head at step {step}"
        );
        for c in 0..3 {
            let head = m.class_ids(c).first().copied();
            assert_eq!(q.class_head(c), head, "class_head({c}) at step {step}");
        }
    }

    #[test]
    fn class_deques_reproduce_the_mirrored_fifo_order() {
        // A small job pool forces frequent requeues of the same ids, so
        // stale entries of earlier residencies pile up in every deque.
        const JOBS: u64 = 12;
        for seed in 0..64u64 {
            let mut rng = Rng(seed);
            let mut q = JobQueues::new(JOBS as usize);
            let mut m = Model::default();
            for step in 0..400 {
                let id = JobId(rng.below(JOBS));
                let class = rng.below(3) as usize;
                match rng.below(4) {
                    0 | 1 if !m.queued(id) => {
                        q.push_back(id, class);
                        m.fifo.push_back((id, class));
                    }
                    2 if !m.queued(id) => {
                        q.push_front(id, class);
                        m.fifo.push_front((id, class));
                    }
                    _ => {
                        // Remove, usually a live job (a head, as the
                        // admission passes do, or any waiter, as sheds
                        // and cancels do); removing an idle id is a no-op.
                        let victim = match rng.below(3) {
                            0 => q.fifo_head().unwrap_or(id),
                            1 => q.class_head(class).unwrap_or(id),
                            _ => id,
                        };
                        q.remove(victim);
                        m.fifo.retain(|&(j, _)| j != victim);
                    }
                }
                check(&mut q, &m, step);
            }
        }
    }
}
