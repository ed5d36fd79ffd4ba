//! Bucketed calendar queue: the event engine's priority queue for
//! million-job traces (DESIGN.md §12).
//!
//! A Brown-style calendar queue replaces the former
//! `BinaryHeap<Reverse<(SimTime, u8, u64, u64)>>`: a ring of
//! power-of-two-width *buckets* covers the near future, and everything
//! beyond the ring's horizon waits in an unsorted *overflow* pile.
//! Pushes into the horizon are O(1) bucket appends and pushes past it
//! O(1) pile appends; pops sort one small bucket at a time instead of
//! sifting a million-entry heap, so the hot path touches a few
//! contiguous cache lines rather than log₂(n) scattered ones.
//!
//! **The pile is never sorted.** When the ring runs dry, a refill
//! re-anchors it at the pile's earliest event in two linear passes. The
//! first fills a histogram of each event's distance from that minimum,
//! binned by bit length, and takes as the horizon the smallest
//! power-of-two span that holds a quarter of the pile (and at least
//! `RING_BUCKETS · TARGET_PER_BUCKET` events; a smaller pile moves
//! whole). The second moves every event under the new horizon into its
//! bucket and compacts the rest in place. Every refill thus moves at
//! least a quarter of the pile, and the moved events pay for both scans.
//! When the sliding window overtakes the pile's minimum, the same
//! in-place partition merges the overtaken events back; afterwards the
//! pile lies a whole horizon ahead, so that happens at most once per
//! ring revolution. Both keep the queue O(1) amortized per event,
//! however many events wait in the pile.
//!
//! **Ordering contract.** [`CalendarQueue::pop`] yields events in
//! ascending `(SimTime, kind, id, seq)` order — the exact tuple order the
//! heap produced, tie-broken by the same `(kind, id)` fields — so a run
//! driven by the calendar queue is *bit-identical* to a heap-driven run.
//! Identical tuples are interchangeable (the engine never distinguishes
//! two equal events), which is why the per-bucket `sort_unstable` is
//! safe. The property tests in `crates/sched/tests/calendar_props.rs`
//! drain random interleaved push/pop streams against a `BinaryHeap`
//! oracle and require equality element for element.
//!
//! **Packed storage.** Internally every event lives as a 16-byte
//! `(time_ns, kind·2⁵⁶ | id·2¹⁶ | seq)` pair rather than the 32-byte
//! public tuple, halving the bytes every bucket sort and overflow
//! pass has to move. Packing is order-preserving — lexicographic
//! order on the pair equals tuple order on `(SimTime, kind, id, seq)` —
//! provided `id < 2⁴⁰` and `seq < 2¹⁶`, which the engine guarantees
//! (ids are dense job/node/tenant indices and `seq` is always 0 there)
//! and `push` enforces with debug assertions.
//!
//! **Monotonicity.** The simulation only schedules into the future, so
//! pushes at or after the current head time are the fast path. A push
//! *behind* the head (possible only for same-instant work during event
//! dispatch) is clamped into the active bucket, which the pop path keeps
//! sorted — exactly matching heap semantics, where a pop always returns
//! the minimum of whatever remains.
//!
//! Determinism: bucket geometry adapts only to event *times* already in
//! the queue (integer arithmetic, no clocks, no randomness), and it
//! never changes which event pops next, so one event stream ⇒ one pop
//! order, bit for bit.

use northup_sim::SimTime;

/// One engine event: `(time, kind, id, seq)`, compared lexicographically.
/// `id` must fit in 40 bits and `seq` in 16 (see the packed-storage note
/// in the module docs); both hold by construction for every engine event.
pub type Event = (SimTime, u8, u64, u64);

/// Internal 16-byte representation: `(time_ns, key)` with
/// `key = kind << 56 | id << 16 | seq`. Natural tuple order on the pair
/// equals [`Event`] tuple order within the documented field bounds.
type Packed = (u64, u64);

#[inline]
fn pack(ev: Event) -> Packed {
    let (t, kind, id, seq) = ev;
    debug_assert!(id < 1 << 40, "event id {id} overflows the 40-bit pack");
    debug_assert!(seq < 1 << 16, "event seq {seq} overflows the 16-bit pack");
    (t.0, (kind as u64) << 56 | id << 16 | seq)
}

#[inline]
fn unpack(p: Packed) -> Event {
    let (t, key) = p;
    (
        SimTime(t),
        (key >> 56) as u8,
        (key >> 16) & ((1 << 40) - 1),
        key & 0xFFFF,
    )
}

/// log₂ of the number of ring buckets.
const RING_LOG2: u32 = 12;

/// Number of ring buckets. Power of two so the slot math stays shifts;
/// 4096 buckets × a few events each keeps per-pop sorts tiny while the
/// horizon stays wide enough that steady-state traffic rarely lands in
/// overflow.
const RING_BUCKETS: usize = 1 << RING_LOG2;

/// A refill moves at least `RING_BUCKETS · TARGET_PER_BUCKET` events
/// (or the whole pile, when smaller), so even a small pile fills the
/// ring a few events per bucket.
const TARGET_PER_BUCKET: usize = 4;

/// A bucketed calendar queue over [`Event`]s, drop-in for a min-heap.
#[derive(Debug)]
pub struct CalendarQueue {
    /// The near-future ring; slot `(head + k) % RING_BUCKETS` covers
    /// virtual nanoseconds `[floor + k·width, floor + (k+1)·width)`.
    ring: Vec<Vec<Packed>>,
    /// Index of the active (earliest) bucket.
    head: usize,
    /// Start of the active bucket's window, in virtual nanoseconds.
    floor: u64,
    /// log₂ of the bucket width in nanoseconds (`width = 1 << shift`).
    shift: u32,
    /// Whether the active bucket is currently sorted (descending, so
    /// pops take the minimum from the back in O(1)).
    active_sorted: bool,
    /// Events at or beyond the ring's horizon, in no particular order.
    overflow: Vec<Packed>,
    /// Earliest time waiting in `overflow` (`u64::MAX` when empty). The
    /// pop path compares it against the active window: as the ring
    /// slides forward its horizon can overtake overflow events, and
    /// those must be merged back in *before* the active bucket is
    /// trusted — otherwise a later ring event would pop first.
    overflow_min: u64,
    /// Total events stored, in the ring and in `overflow`.
    len: usize,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl CalendarQueue {
    /// An empty queue anchored at virtual time zero.
    pub fn new() -> Self {
        CalendarQueue {
            ring: (0..RING_BUCKETS).map(|_| Vec::new()).collect(),
            head: 0,
            floor: 0,
            shift: 12, // 4.096 µs buckets: re-derived at the first refill
            active_sorted: true,
            overflow: Vec::new(),
            overflow_min: u64::MAX,
            len: 0,
        }
    }

    /// Events stored.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Buckets between the active one and the bucket holding time `t`
    /// (0 for times behind the head, which clamp into the active
    /// bucket). `RING_BUCKETS` or more means past the horizon.
    #[inline]
    fn offset(&self, t: u64) -> u64 {
        t.saturating_sub(self.floor) >> self.shift
    }

    /// Insert an event. O(1) for future events (the overwhelming case); a
    /// same-instant push behind the head clamps into the active bucket in
    /// sorted position.
    pub fn push(&mut self, ev: Event) {
        let p = pack(ev);
        self.len += 1;
        let k = self.offset(p.0);
        if k >= RING_BUCKETS as u64 {
            // Past the horizon: pile it up for a later refill or merge.
            self.overflow_min = self.overflow_min.min(p.0);
            self.overflow.push(p);
        } else if k == 0 && self.active_sorted && !self.ring[self.head].is_empty() {
            // Active bucket (including clamped past-time pushes): keep it
            // pop-ready. Descending order: find where `p` belongs so the
            // back stays the minimum.
            let bucket = &mut self.ring[self.head];
            let pos = bucket.partition_point(|e| *e > p);
            bucket.insert(pos, p);
        } else {
            let slot = (self.head + k as usize) % RING_BUCKETS;
            self.ring[slot].push(p);
            if k == 0 {
                self.active_sorted = self.ring[slot].len() == 1;
            }
        }
    }

    /// Remove and return the minimum event, or `None` when empty.
    pub fn pop(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        let ev = self.active_bucket().pop();
        debug_assert!(ev.is_some(), "len accounting out of sync");
        self.len -= 1;
        ev.map(unpack)
    }

    /// The minimum event without removing it, or `None` when empty.
    /// Advances/sorts internally (amortized against the matching pop).
    pub fn peek(&mut self) -> Option<Event> {
        if self.len == 0 {
            return None;
        }
        self.active_bucket().last().copied().map(unpack)
    }

    /// The first non-empty bucket, sorted descending so its back is the
    /// queue's minimum. Callers guarantee `self.len > 0`.
    fn active_bucket(&mut self) -> &mut Vec<Packed> {
        self.advance_to_nonempty();
        let bucket = &mut self.ring[self.head];
        if !self.active_sorted {
            bucket.sort_unstable_by(|a, b| b.cmp(a));
            self.active_sorted = true;
        }
        bucket
    }

    /// Advance `head` to the first non-empty bucket, refilling the ring
    /// from overflow when the ring runs dry. Callers guarantee
    /// `self.len > 0`.
    fn advance_to_nonempty(&mut self) {
        loop {
            if self.overflow.len() == self.len {
                self.refill_from_overflow();
            }
            // The window slides forward as `head` walks, so its horizon
            // can overtake events parked in overflow. Merge them back
            // before trusting the active bucket: without this, a ring
            // event later than the overflow minimum would pop first.
            if self.offset(self.overflow_min) == 0 {
                self.partition_overflow();
            }
            if !self.ring[self.head].is_empty() {
                return;
            }
            // The ring holds *something*, so this walk terminates within
            // one revolution; each step is a pointer compare.
            self.head = (self.head + 1) % RING_BUCKETS;
            self.floor = self.floor.saturating_add(1 << self.shift);
            self.active_sorted = false;
        }
    }

    /// The ring ran dry: re-anchor it at the earliest overflow event,
    /// size the buckets so the horizon holds at least a quarter of the
    /// pile, and move those events into the ring. Two linear passes,
    /// no sort.
    fn refill_from_overflow(&mut self) {
        debug_assert!(!self.overflow.is_empty(), "refill with nothing queued");
        let floor = self.overflow_min;
        // Bin `b` counts events whose distance from `floor` has bit
        // length `b`, i.e. lies in `[2^(b-1), 2^b)` (bin 0: distance 0).
        let mut bins = [0usize; 65];
        for p in &self.overflow {
            bins[(64 - (p.0 - floor).leading_zeros()) as usize] += 1;
        }
        // The horizon spans `2^span_log2` ns: the smallest power of two
        // holding `want` events, or the whole of a smaller pile.
        let want = (RING_BUCKETS * TARGET_PER_BUCKET).max(self.overflow.len() / 4);
        let (mut held, mut span_log2) = (0, 0);
        for (b, &n) in bins.iter().enumerate().filter(|(_, &n)| n > 0) {
            held += n;
            span_log2 = b as u32;
            if held >= want {
                break;
            }
        }
        self.shift = span_log2.saturating_sub(RING_LOG2);
        self.head = 0;
        self.floor = floor;
        self.active_sorted = false;
        self.partition_overflow();
    }

    /// Move every overflow event under the horizon into its ring bucket
    /// and keep the rest, compacted in place: one pass, no sort, no
    /// second buffer. Recomputes `overflow_min` on the way.
    fn partition_overflow(&mut self) {
        let (head, floor, shift) = (self.head, self.floor, self.shift);
        let active_len = self.ring[head].len();
        let ring = &mut self.ring;
        let mut min = u64::MAX;
        self.overflow.retain(|&p| {
            let k = p.0.saturating_sub(floor) >> shift;
            if k >= RING_BUCKETS as u64 {
                min = min.min(p.0);
                return true;
            }
            ring[(head + k as usize) % RING_BUCKETS].push(p);
            false
        });
        self.overflow_min = min;
        if self.ring[head].len() != active_len {
            self.active_sorted = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn ev(t: u64, kind: u8, id: u64) -> Event {
        (SimTime(t), kind, id, 0)
    }

    /// splitmix64: a deterministic pseudo-random stream for test data.
    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A queue holding `times` in its overflow pile only: every time lies
    /// past the initial horizon (2²⁴ ns), so the first pop refills.
    fn piled(times: impl Iterator<Item = u64>) -> CalendarQueue {
        let mut q = CalendarQueue::new();
        for (i, t) in times.enumerate() {
            assert!(t >= 1 << 24, "time {t} would land in the ring");
            q.push(ev(t, 5, i as u64));
        }
        assert_eq!(q.overflow.len(), q.len);
        q
    }

    #[test]
    fn pack_preserves_tuple_order_and_roundtrips() {
        let samples = [
            ev(0, 0, 0),
            ev(0, 0, 1),
            ev(0, 6, (1 << 40) - 1),
            (SimTime(0), 6, (1 << 40) - 1, (1 << 16) - 1),
            ev(7, 3, 12),
            (SimTime(7), 3, 12, 9),
            ev(u64::MAX, 6, 42),
        ];
        for &a in &samples {
            assert_eq!(unpack(pack(a)), a, "roundtrip");
            for &b in &samples {
                assert_eq!(pack(a).cmp(&pack(b)), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn drains_in_tuple_order() {
        let mut q = CalendarQueue::new();
        q.push(ev(500, 5, 2));
        q.push(ev(10, 0, 9));
        q.push(ev(10, 0, 1));
        q.push(ev(10, 1, 0));
        q.push(ev(1 << 40, 6, 3)); // far future: overflow
        q.push(ev(0, 5, 0));
        let mut out = Vec::new();
        while let Some(e) = q.pop() {
            out.push(e);
        }
        assert_eq!(
            out,
            vec![
                ev(0, 5, 0),
                ev(10, 0, 1),
                ev(10, 0, 9),
                ev(10, 1, 0),
                ev(500, 5, 2),
                ev(1 << 40, 6, 3),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_pushes_match_heap_order() {
        // Deterministic pseudo-random stream (splitmix64), interleaving
        // pushes and pops, with pushes always at/after the current time —
        // the engine's monotone future-event property.
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut q = CalendarQueue::new();
        let mut state = 0x1234_5678_u64;
        let mut rnd = move || splitmix(&mut state);
        let mut now = 0u64;
        for i in 0..50_000u64 {
            let r = rnd();
            if r % 3 != 0 || q.is_empty() {
                let dt = r % 100_000; // near future and far future mixed
                let dt = if r % 17 == 0 { dt * 1000 } else { dt };
                let e = (SimTime(now + dt), (r % 7) as u8, i, 0);
                heap.push(Reverse(e));
                q.push(e);
            } else {
                let a = heap.pop().map(|Reverse(e)| e);
                let b = q.pop();
                assert_eq!(a, b, "divergence mid-stream");
                if let Some(e) = a {
                    now = e.0 .0;
                }
            }
        }
        loop {
            let a = heap.pop().map(|Reverse(e)| e);
            let b = q.pop();
            assert_eq!(a, b, "divergence in the drain");
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn past_time_push_still_pops_first() {
        let mut q = CalendarQueue::new();
        q.push(ev(1000, 0, 1));
        assert_eq!(q.pop(), Some(ev(1000, 0, 1)));
        // Behind the head now — clamped, but still the minimum remaining.
        q.push(ev(2000, 0, 2));
        q.push(ev(500, 0, 3));
        assert_eq!(q.pop(), Some(ev(500, 0, 3)));
        assert_eq!(q.pop(), Some(ev(2000, 0, 2)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_overtaken_by_sliding_window_pops_in_order() {
        // Regression for a bug the property tests caught: an event
        // beyond the initial horizon waits in overflow; popping a deep
        // ring event slides the window forward so a *later* push lands
        // in the ring. The overflow event must still pop first.
        let mut q = CalendarQueue::new();
        q.push(ev(16_384_000, 0, 1)); // deep in the ring
        q.push(ev(17_000_000, 0, 2)); // beyond the initial horizon
        assert_eq!(q.pop(), Some(ev(16_384_000, 0, 1)));
        q.push(ev(20_000_000, 0, 3)); // inside the slid horizon
        assert_eq!(q.pop(), Some(ev(17_000_000, 0, 2)));
        assert_eq!(q.pop(), Some(ev(20_000_000, 0, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = CalendarQueue::new();
        for t in [7u64, 3, 900_000, 3, 12] {
            q.push(ev(t, 2, t));
        }
        while !q.is_empty() {
            let p = q.peek();
            assert_eq!(p, q.pop());
        }
        assert_eq!(q.peek(), None);
    }

    #[test]
    fn million_distant_arrivals_drain_sorted() {
        // Mimics the seeded-arrival shape of a million-job trace: all
        // pushes up front, spanning hours of virtual time, then a full
        // drain through repeated overflow refills.
        let mut q = CalendarQueue::new();
        let mut state = 9u64;
        let n = 200_000u64;
        for i in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            q.push((SimTime(state % (1 << 42)), 5, i, 0));
        }
        assert_eq!(q.len(), n as usize);
        let mut prev: Option<Event> = None;
        let mut count = 0usize;
        while let Some(e) = q.pop() {
            if let Some(p) = prev {
                assert!(p <= e, "out of order: {p:?} then {e:?}");
            }
            prev = Some(e);
            count += 1;
        }
        assert_eq!(count, n as usize);
    }

    #[test]
    fn refill_moves_at_least_a_quarter_of_the_pile() {
        // The amortization argument: each refill scans the whole pile
        // twice, so it must move a constant fraction of it, whatever the
        // shape of the times.
        const N: u64 = 100_000;
        const BASE: u64 = 1 << 25;
        type Shape = fn(u64) -> u64;
        let shapes: [(&str, Shape); 3] = [
            ("uniform", |r| BASE + r % 100_000_000_000),
            ("bimodal", |r| {
                if r % 2 == 0 {
                    BASE + r % 1_000_000
                } else {
                    1_000_000_000_000 + r % 1_000_000_000_000
                }
            }),
            ("geometric", |r| BASE + (r >> (24 + r % 40))),
        ];
        for (name, shape) in shapes {
            let mut state = 7u64;
            let mut q = piled((0..N).map(|_| shape(splitmix(&mut state))));
            assert!(q.pop().is_some());
            let in_ring = q.len - q.overflow.len();
            assert!(
                in_ring >= q.len / 4,
                "{name}: refill moved {in_ring} of {} events",
                q.len
            );
        }
    }

    #[test]
    fn far_outlier_does_not_widen_the_buckets() {
        // One event ~11 days out must not stretch the bucket width over
        // the dense second of work in front of it: a width taken from
        // the mean spacing of the whole pile would put nearly everything
        // in one bucket.
        let mut state = 11u64;
        let dense = (0..100_000).map(|_| 20_000_000 + splitmix(&mut state) % 1_000_000_000);
        let mut q = piled(dense.chain([1_000_000_000_000_000]));
        assert!(q.pop().is_some());
        let largest = q.ring.iter().map(Vec::len).max().unwrap_or(0);
        assert!(largest <= 64, "largest bucket holds {largest} events");
    }
}
