//! Property tests for the calendar event queue: against a `BinaryHeap`
//! oracle, [`CalendarQueue`] must be a drop-in replacement — every
//! interleaving of pushes and pops yields the heap's exact pop order,
//! regardless of how the events land in ring buckets, the overflow
//! tier, or the past-time clamp path.

use northup_sched::CalendarQueue;
use northup_sim::SimTime;
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

type Ev = (SimTime, u8, u64, u64);

/// (µs offset, kind, id) — compressed so shrinking stays readable.
/// Offsets span six decades so cases hit the active bucket, the ring,
/// and the overflow tier; kinds/ids supply tie-breaking dimensions.
fn event_strategy() -> impl Strategy<Value = (u64, u8, u64)> {
    (0u64..3_000_000, 0u8..7, 0u64..50)
}

/// An op script: `Push(ev)` or `Pop` (pop on an empty queue is a no-op
/// on both sides).
#[derive(Debug, Clone)]
enum Op {
    Push((u64, u8, u64)),
    Pop,
}

fn ops_strategy() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            event_strategy().prop_map(Op::Push),
            event_strategy().prop_map(Op::Push),
            event_strategy().prop_map(Op::Push),
            Just(Op::Pop),
            Just(Op::Pop),
        ],
        0..400,
    )
}

fn ev(raw: (u64, u8, u64), seq: u64) -> Ev {
    (
        SimTime::from_secs_f64(raw.0 as f64 * 1e-6),
        raw.1,
        raw.2,
        seq,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any interleaving of pushes and pops matches the heap, pop for pop.
    #[test]
    fn pop_order_matches_binary_heap(ops in ops_strategy()) {
        let mut cal = CalendarQueue::new();
        let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Push(raw) => {
                    // The seq component makes every event unique, so the
                    // orders are fully determined and comparable.
                    let e = ev(*raw, i as u64);
                    cal.push(e);
                    heap.push(Reverse(e));
                }
                Op::Pop => {
                    prop_assert_eq!(cal.pop(), heap.pop().map(|Reverse(e)| e));
                }
            }
            prop_assert_eq!(cal.len(), heap.len());
        }
        while let Some(Reverse(e)) = heap.pop() {
            prop_assert_eq!(cal.pop(), Some(e));
        }
        prop_assert!(cal.is_empty());
    }

    /// `peek` agrees with the next `pop` and disturbs nothing.
    #[test]
    fn peek_is_consistent_with_pop(raws in prop::collection::vec(event_strategy(), 1..200)) {
        let mut cal = CalendarQueue::new();
        for (i, raw) in raws.iter().enumerate() {
            cal.push(ev(*raw, i as u64));
        }
        let mut last = None;
        while !cal.is_empty() {
            let peeked = cal.peek();
            let popped = cal.pop();
            prop_assert_eq!(peeked, popped);
            if let (Some(prev), Some(cur)) = (last, popped) {
                prop_assert!(prev <= cur, "pops went backwards: {prev:?} then {cur:?}");
            }
            last = popped;
        }
    }
}

/// The event engine's shape, at a scale the short scripts above never
/// reach. Each arrival schedules the next arrival (about 1 ms later, or
/// after an idle spell of up to 100 ms for one in 32), a chain of dense
/// near-future stage completions, and a completion on a saturated FIFO
/// resource whose backlog grows over the run (mean service 2.7 ms
/// against a mean gap of about 2.5 ms). Every push lies at or after the
/// last pop, as in the engine. Counted with an instrumented queue, the
/// four cases below went through 2 to 8 refills and 208 to 249 overdue
/// merges each, where the short scripts above average about two refills
/// and a tenth of a merge per case.
fn engine_stream_matches_heap(seed: u64, pushes: usize) -> Result<(), TestCaseError> {
    const ARRIVAL: u8 = 5;
    const STAGE: u8 = 0;
    const BACKLOG: u8 = 1;
    let mut rng = TestRng::from_seed(seed);
    let mut cal = CalendarQueue::new();
    let mut heap: BinaryHeap<Reverse<Ev>> = BinaryHeap::new();
    let (mut backlog_end, mut pushed) = (0u64, 0usize);
    let mut next: Vec<(u64, u8)> = vec![(0, ARRIVAL)];
    loop {
        for (t, kind) in next.drain(..) {
            // The push count doubles as a unique id, so orders compare.
            pushed += 1;
            let e = (SimTime(t), kind, pushed as u64, 0);
            cal.push(e);
            heap.push(Reverse(e));
        }
        prop_assert_eq!(cal.len(), heap.len());
        if pushed >= pushes {
            break;
        }
        let want = heap.pop().map(|Reverse(e)| e);
        prop_assert_eq!(cal.pop(), want);
        let Some((SimTime(now), kind, _, _)) = want else {
            break;
        };
        match kind {
            ARRIVAL => {
                let gap = if rng.below(32) == 0 {
                    rng.below(100_000_000)
                } else {
                    rng.below(2_000_000)
                };
                backlog_end = backlog_end.max(now) + rng.below(5_400_000);
                next.push((now + gap, ARRIVAL));
                next.push((now + rng.below(2_000_000), STAGE));
                next.push((backlog_end, BACKLOG));
            }
            // A stage completion schedules the next stage, sometimes at
            // this very instant; one in ten ends its chain.
            STAGE if rng.below(10) != 0 => {
                next.push((now + rng.below(2_000_000) * rng.below(2), STAGE));
            }
            _ => {}
        }
    }
    while let Some(Reverse(e)) = heap.pop() {
        prop_assert_eq!(cal.pop(), Some(e));
    }
    prop_assert!(cal.is_empty());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 1.5·10^5 engine-shaped pushes, and as many pops, per case match
    /// the heap pop for pop.
    #[test]
    fn engine_shaped_stream_matches_binary_heap(seed in any::<u64>()) {
        engine_stream_matches_heap(seed, 150_000)?;
    }
}
