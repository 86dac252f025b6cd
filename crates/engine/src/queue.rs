//! The pending-event queue (future-event list).
//!
//! Two interchangeable implementations live here:
//!
//! * `BucketQueue` — one FIFO buffer per cycle of a sliding
//!   power-of-two window, found through an occupancy bitmap. An event
//!   inside the window is one `Vec::push` onto its cycle's buffer, and
//!   the earliest buffer is handed to the run loop whole
//!   ([`EventQueue::swap_batch`]). Events at or beyond the window wait
//!   in an `overflow` heap; events behind it (allowed by the API, never
//!   done by the machine) in an `early` heap.
//! * `KeyedHeap` — the original `BinaryHeap` future-event list, kept
//!   as the reference implementation for differential testing.
//!
//! Both obey the same determinism contract: events come out in
//! increasing time, and equal-time events in the order they were
//! scheduled (FIFO), never in heap-internal order. The heap keys every
//! entry by `(time, sequence)`; the bucket list needs sequence numbers
//! only in its two heaps, because a cycle's buffer is FIFO by
//! construction (see `BucketQueue::advance`).

use amo_types::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One heap entry: firing time, tie-break sequence, payload.
struct Entry<E> {
    when: Cycle,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn key(&self) -> (Cycle, u64) {
        (self.when, self.seq)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest (when, seq)
        // is at the top.
        other.key().cmp(&self.key())
    }
}

/// A min-heap of events by `(when, seq)`, numbering its own entries.
struct KeyedHeap<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> KeyedHeap<E> {
    fn with_capacity(cap: usize) -> Self {
        KeyedHeap {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
        }
    }

    fn push(&mut self, when: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { when, seq, event });
    }

    fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.when)
    }

    fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.when, e.event))
    }

    /// Move every event at the earliest time into `out`, in `(when,
    /// seq)` order; returns that time and how many moved.
    fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<(Cycle, usize)> {
        let when = self.peek_time()?;
        let mut n = 0;
        while self.peek_time() == Some(when) {
            out.push(self.heap.pop().expect("peeked entry").event);
            n += 1;
        }
        Some((when, n))
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

/// Which future-event-list implementation an [`EventQueue`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The per-cycle bucket list (default; fast path). The name is the
    /// calendar queue's it replaced.
    Calendar,
    /// The reference binary heap (differential testing, perf baseline).
    Heap,
}

/// Smallest and largest window, in cycles. The machine sizes its window
/// from its pending-event bound; 8,192 cycles covers the directory
/// backlog of a 256-processor LL/SC lock, which schedules up to that far
/// ahead.
const MIN_WINDOW: usize = 1 << 10;
const MAX_WINDOW: usize = 1 << 13;

/// One FIFO buffer per cycle of the window `base .. base + window`.
///
/// Buffers come from a pool and go back to it when their cycle is
/// taken, so a warmed-up queue neither allocates nor frees. The pool
/// hands a buffer to a new cycle with at least the capacity of the
/// widest batch taken so far, so a steady run never grows one either.
struct BucketQueue<E> {
    /// Per window cycle (`when & mask`): 0 = no bucket, else 1 + the
    /// index of its buffer in `bufs`.
    slot: Vec<u32>,
    /// One bit per window cycle, set while it has a bucket.
    occupied: Vec<u64>,
    /// Window length − 1 (the window is a power of two).
    mask: usize,
    /// First cycle of the window.
    base: Cycle,
    /// Every buffer ever made; a bucket or the pool holds each.
    bufs: Vec<Vec<E>>,
    /// Indices into `bufs` of the buffers no bucket holds.
    pool: Vec<u32>,
    /// Largest batch taken so far.
    widest: usize,
    /// Events at or beyond the window's end.
    overflow: KeyedHeap<E>,
    /// Events before the window's start.
    early: KeyedHeap<E>,
    /// Events that were scheduled into `overflow` (a diagnostic).
    overflowed: u64,
    /// Pending events in all three places.
    len: usize,
}

impl<E> BucketQueue<E> {
    fn with_window(window: usize) -> Self {
        assert!(window.is_power_of_two() && window >= 64);
        BucketQueue {
            slot: vec![0; window],
            occupied: vec![0; window / 64],
            mask: window - 1,
            base: 0,
            bufs: Vec::new(),
            pool: Vec::new(),
            widest: 0,
            overflow: KeyedHeap::with_capacity(0),
            early: KeyedHeap::with_capacity(0),
            overflowed: 0,
            len: 0,
        }
    }

    #[inline]
    fn schedule(&mut self, when: Cycle, event: E) {
        self.len += 1;
        // `when - base` wraps for a time behind the window, so the common
        // case is one compare.
        if when.wrapping_sub(self.base) <= self.mask as u64 {
            self.bucket(when).push(event);
        } else if when > self.base {
            self.overflowed += 1;
            self.overflow.push(when, event);
        } else if self.len == 1 {
            // Nothing else is pending, so the window may move back.
            self.base = when;
            self.bucket(when).push(event);
        } else {
            self.early.push(when, event);
        }
    }

    /// The buffer of window cycle `when`, drawn from the pool if the
    /// cycle has none yet.
    #[inline]
    fn bucket(&mut self, when: Cycle) -> &mut Vec<E> {
        let s = when as usize & self.mask;
        if self.slot[s] == 0 {
            let b = self.pool.pop().unwrap_or_else(|| {
                self.bufs.push(Vec::new());
                (self.bufs.len() - 1) as u32
            });
            self.bufs[b as usize].reserve(self.widest);
            self.slot[s] = b + 1;
            self.occupied[s >> 6] |= 1 << (s & 63);
        }
        &mut self.bufs[self.slot[s] as usize - 1]
    }

    /// First occupied window slot in time order: the wrapped scan from
    /// `base`'s slot, since every bucket lies in `base .. base + window`.
    fn next_occupied(&self) -> Option<usize> {
        let start = self.base as usize & self.mask;
        let (sw, words) = (start >> 6, self.occupied.len());
        let high = self.occupied[sw] & (!0u64 << (start & 63));
        if high != 0 {
            return Some(sw << 6 | high.trailing_zeros() as usize);
        }
        // The last step revisits `sw` whole: its low bits are the
        // window's final cycles.
        (1..=words).find_map(|step| {
            let wi = (sw + step) % words;
            let w = self.occupied[wi];
            (w != 0).then(|| wi << 6 | w.trailing_zeros() as usize)
        })
    }

    /// The cycle window slot `s` stands for.
    #[inline]
    fn time_of(&self, s: usize) -> Cycle {
        self.base + (s.wrapping_sub(self.base as usize) & self.mask) as u64
    }

    /// Time and slot of the earliest bucket, first moving the window to
    /// the overflow when every bucket is empty.
    fn earliest(&mut self) -> Option<(Cycle, usize)> {
        if self.len == self.early.len() {
            return None;
        }
        let s = match self.next_occupied() {
            Some(s) => s,
            None => {
                let first = self.overflow.peek_time().expect("pending events");
                self.advance(first);
                self.next_occupied()
                    .expect("the overflow's head has a bucket")
            }
        };
        Some((self.time_of(s), s))
    }

    /// Start the window at `to` and move every overflow event it now
    /// covers into its bucket.
    ///
    /// This is what keeps each bucket FIFO without sequence numbers. An
    /// event is in the overflow only if its cycle was beyond the window
    /// when it was scheduled, so it precedes every event scheduled
    /// straight into that cycle's bucket — and those can only be
    /// scheduled once the cycle is inside the window, i.e. after this
    /// move, which runs before the queue returns to its caller. The
    /// overflow yields its events in `(when, seq)` order, so the moved
    /// ones keep theirs. The window never moves back while events are
    /// pending, so a cycle enters it once.
    fn advance(&mut self, to: Cycle) {
        self.base = to;
        let span = self.mask as u64;
        while self.overflow.peek_time().is_some_and(|t| t - to <= span) {
            let (when, event) = self.overflow.pop().expect("peeked entry");
            self.bucket(when).push(event);
        }
    }

    /// Take the earliest cycle if it is no later than `until`: the early
    /// heap's head time moves into `out` and `None` comes back with it,
    /// or the earliest bucket leaves the window (the window then starts
    /// at its cycle) and the index of its buffer comes back — the caller
    /// empties it and calls [`release`](Self::release).
    fn take(&mut self, out: &mut Vec<E>, until: Cycle) -> Option<(Cycle, Option<usize>)> {
        if let Some(when) = self.early.peek_time() {
            if when > until {
                return None;
            }
            let (_, n) = self.early.pop_batch_into(out)?;
            self.len -= n;
            return Some((when, None));
        }
        let (when, s) = self.earliest()?;
        if when > until {
            return None;
        }
        let b = self.slot[s] as usize - 1;
        self.slot[s] = 0;
        self.occupied[s >> 6] &= !(1 << (s & 63));
        self.advance(when);
        Some((when, Some(b)))
    }

    /// Return buffer `b` to the pool after its `n` events left.
    fn release(&mut self, b: usize, n: usize) {
        self.len -= n;
        self.widest = self.widest.max(n);
        self.pool.push(b as u32);
    }

    fn swap_batch(&mut self, out: &mut Vec<E>, until: Cycle) -> Option<Cycle> {
        let (when, b) = self.take(out, until)?;
        if let Some(b) = b {
            std::mem::swap(out, &mut self.bufs[b]);
            self.release(b, out.len());
        }
        Some(when)
    }

    fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        let (when, b) = self.take(out, Cycle::MAX)?;
        if let Some(b) = b {
            let n = self.bufs[b].len();
            out.append(&mut self.bufs[b]);
            self.release(b, n);
        }
        Some(when)
    }

    /// One event at a time: the front of the earliest bucket, which
    /// leaves the window once its last event is gone.
    fn pop(&mut self) -> Option<(Cycle, E)> {
        if let Some(first) = self.early.pop() {
            self.len -= 1;
            return Some(first);
        }
        let (when, s) = self.earliest()?;
        self.advance(when);
        let b = self.slot[s] as usize - 1;
        let event = self.bufs[b].remove(0);
        self.len -= 1;
        if self.bufs[b].is_empty() {
            self.slot[s] = 0;
            self.occupied[s >> 6] &= !(1 << (s & 63));
            self.pool.push(b as u32);
        }
        Some((when, event))
    }

    fn peek_time(&self) -> Option<Cycle> {
        if let Some(when) = self.early.peek_time() {
            return Some(when);
        }
        match self.next_occupied() {
            Some(s) => Some(self.time_of(s)),
            None => self.overflow.peek_time(),
        }
    }
}

enum Imp<E> {
    Bucket(BucketQueue<E>),
    /// The reference implementation: every event in one keyed heap.
    Heap(KeyedHeap<E>),
}

/// A deterministic future-event list.
///
/// ```
/// use amo_engine::EventQueue;
/// let mut q = EventQueue::new();
/// q.schedule(10, "b");
/// q.schedule(5, "a");
/// q.schedule(10, "c");
/// assert_eq!(q.pop(), Some((5, "a")));
/// assert_eq!(q.pop(), Some((10, "b"))); // FIFO among ties
/// assert_eq!(q.pop(), Some((10, "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    imp: Imp<E>,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue using the default (bucket-list) implementation.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// An empty queue using the chosen implementation.
    pub fn with_kind(kind: QueueKind) -> Self {
        Self::with_capacity_and_kind(0, kind)
    }

    /// An empty queue sized for `cap` concurrently pending events.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_kind(cap, QueueKind::Calendar)
    }

    /// An empty queue sized for `cap` concurrently pending events, with
    /// an explicit implementation choice. The bucket list's window is
    /// `cap` cycles rounded up to a power of two, clamped to
    /// 1,024 ..= 8,192: a machine with more pending events schedules
    /// further ahead.
    pub fn with_capacity_and_kind(cap: usize, kind: QueueKind) -> Self {
        let imp = match kind {
            QueueKind::Calendar => Imp::Bucket(BucketQueue::with_window(
                cap.next_power_of_two().clamp(MIN_WINDOW, MAX_WINDOW),
            )),
            QueueKind::Heap => Imp::Heap(KeyedHeap::with_capacity(cap)),
        };
        EventQueue {
            imp,
            scheduled_total: 0,
        }
    }

    /// Schedule `event` to fire at absolute cycle `when`.
    #[inline]
    pub fn schedule(&mut self, when: Cycle, event: E) {
        self.scheduled_total += 1;
        match &mut self.imp {
            Imp::Bucket(q) => q.schedule(when, event),
            Imp::Heap(q) => q.push(when, event),
        }
    }

    /// Remove and return the earliest event, with its firing time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        match &mut self.imp {
            Imp::Bucket(q) => q.pop(),
            Imp::Heap(q) => q.pop(),
        }
    }

    /// Take every event at the earliest pending time, if that time is
    /// no later than `until`, into `out` — which must be empty — in
    /// exactly the order a sequence of [`pop`](Self::pop) calls would
    /// yield them; returns that time. `None` when the queue is empty or
    /// its earliest event lies after `until`.
    ///
    /// On the bucket list this moves no event: `out` and the cycle's
    /// buffer trade places, and `out`'s old buffer goes to the pool for
    /// a later cycle. Events scheduled while the batch is out — even at
    /// its time — go into a fresh bucket and come back as the next
    /// batch, which is exactly where per-event popping would see them.
    #[inline]
    pub fn swap_batch(&mut self, out: &mut Vec<E>, until: Cycle) -> Option<Cycle> {
        debug_assert!(out.is_empty(), "swap_batch takes an empty buffer");
        match &mut self.imp {
            Imp::Bucket(q) => q.swap_batch(out, until),
            Imp::Heap(q) => {
                if q.peek_time()? > until {
                    return None;
                }
                q.pop_batch_into(out).map(|(when, _)| when)
            }
        }
    }

    /// Remove every event at the earliest pending time, appending them
    /// to `out` in [`pop`](Self::pop) order; returns that time, or
    /// `None` when the queue is empty. `out` is *appended to*, not
    /// cleared, so the caller can reuse one buffer across batches.
    #[inline]
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        match &mut self.imp {
            Imp::Bucket(q) => q.pop_batch_into(out),
            Imp::Heap(q) => q.pop_batch_into(out).map(|(when, _)| when),
        }
    }

    /// Firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        match &self.imp {
            Imp::Bucket(q) => q.peek_time(),
            Imp::Heap(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            Imp::Bucket(q) => q.len,
            Imp::Heap(q) => q.len(),
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (monotonic; used as a runaway guard by
    /// the machine's run loop).
    pub fn scheduled_total(&self) -> u64 {
        self.scheduled_total
    }

    /// Events the bucket list scheduled beyond its window, into the
    /// overflow heap (0 on the reference heap). A diagnostic: tests use
    /// it to show an input exercised the overflow move.
    pub fn overflowed(&self) -> u64 {
        match &self.imp {
            Imp::Bucket(q) => q.overflowed,
            Imp::Heap(_) => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn kinds() -> [QueueKind; 2] {
        [QueueKind::Calendar, QueueKind::Heap]
    }

    #[test]
    fn orders_by_time() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(30, 3);
            q.schedule(10, 1);
            q.schedule(20, 2);
            assert_eq!(q.pop(), Some((10, 1)));
            assert_eq!(q.pop(), Some((20, 2)));
            assert_eq!(q.pop(), Some((30, 3)));
        }
    }

    #[test]
    fn fifo_among_equal_times() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            for i in 0..100 {
                q.schedule(7, i);
            }
            for i in 0..100 {
                assert_eq!(q.pop(), Some((7, i)));
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(10, "x");
            assert_eq!(q.pop(), Some((10, "x")));
            q.schedule(5, "y");
            q.schedule(20, "z");
            assert_eq!(q.pop(), Some((5, "y")));
            q.schedule(15, "w");
            assert_eq!(q.pop(), Some((15, "w")));
            assert_eq!(q.pop(), Some((20, "z")));
            assert!(q.is_empty());
            assert_eq!(q.scheduled_total(), 4);
        }
    }

    #[test]
    fn schedule_behind_an_advanced_window() {
        // Pop far ahead, then schedule before the window start: the
        // early path must deliver in global order.
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        q.schedule(1_000_000, "far");
        assert_eq!(q.pop(), Some((1_000_000, "far")));
        q.schedule(999_000, "behind"); // moves the window back (queue was empty)
        q.schedule(1_000_500, "near"); // beyond the 1,024-cycle window
        q.schedule(5, "way-behind");
        q.schedule(5, "way-behind-2");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, "way-behind")));
        assert_eq!(q.pop(), Some((5, "way-behind-2")));
        assert_eq!(q.pop(), Some((999_000, "behind")));
        assert_eq!(q.pop(), Some((1_000_500, "near")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_events_cross_multiple_windows() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        // Spread events far beyond a single window.
        let times: Vec<u64> = (0..50).map(|i| i * 100_000).collect();
        for (i, &t) in times.iter().enumerate().rev() {
            q.schedule(t, i);
        }
        for (i, &t) in times.iter().enumerate() {
            assert_eq!(q.pop(), Some((t, i)));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn peek_time_matches_pop_everywhere() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            for &t in &[40_000u64, 3, 3, 17, 9_000, 200_000] {
                q.schedule(t, t);
            }
            while let Some(t) = q.peek_time() {
                let (pt, _) = q.pop().unwrap();
                assert_eq!(t, pt);
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn with_capacity_behaves_identically() {
        let mut a = EventQueue::with_capacity(10_000);
        let mut b = EventQueue::new();
        for t in [5u64, 1, 9, 1, 80_000, 4] {
            a.schedule(t, t);
            b.schedule(t, t);
        }
        while let Some(x) = a.pop() {
            assert_eq!(Some(x), b.pop());
        }
        assert!(b.is_empty());
    }

    #[test]
    fn windows_are_sized_from_capacity_and_clamped() {
        // (capacity, window): the last in-window cycle stays in a
        // bucket, the next one goes to the overflow.
        for (cap, window) in [(0, 1024), (1500, 2048), (3072, 4096), (1 << 20, 8192)] {
            let mut q = EventQueue::with_capacity(cap);
            q.schedule(0, 0);
            q.schedule(window - 1, 1);
            assert_eq!(q.overflowed(), 0, "capacity {cap}");
            q.schedule(window, 2);
            assert_eq!(q.overflowed(), 1, "capacity {cap}");
            let popped: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
            assert_eq!(popped, [(0, 0), (window - 1, 1), (window, 2)]);
        }
    }

    #[test]
    fn batch_drains_exactly_the_tied_run() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(20, 3);
            q.schedule(10, 1);
            q.schedule(10, 2);
            q.schedule(20, 4);
            let mut out = Vec::new();
            assert_eq!(q.pop_batch_into(&mut out), Some(10));
            assert_eq!(out, vec![1, 2]);
            out.clear();
            assert_eq!(q.pop_batch_into(&mut out), Some(20));
            assert_eq!(out, vec![3, 4]);
            out.clear();
            assert_eq!(q.pop_batch_into(&mut out), None);
            assert!(out.is_empty() && q.is_empty());
        }
    }

    #[test]
    fn batch_crosses_window_advances_and_early_inserts() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            // Two ties far beyond the window force a window move, then a
            // behind-window insert exercises the early heap.
            q.schedule(1_000_000, 1);
            q.schedule(1_000_000, 2);
            q.schedule(2_000_000, 3);
            let mut out = Vec::new();
            assert_eq!(q.pop_batch_into(&mut out), Some(1_000_000));
            assert_eq!(out, vec![1, 2]);
            q.schedule(5, 4); // behind the advanced window
            q.schedule(5, 5);
            out.clear();
            assert_eq!(q.pop_batch_into(&mut out), Some(5));
            assert_eq!(out, vec![4, 5]);
            out.clear();
            assert_eq!(q.pop_batch_into(&mut out), Some(2_000_000));
            assert_eq!(out, vec![3]);
        }
    }

    #[test]
    fn a_batch_out_takes_same_time_schedules_as_the_next_batch() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(10, 1);
            q.schedule(10, 2);
            q.schedule(11, 3);
            let mut batch = Vec::new();
            assert_eq!(q.swap_batch(&mut batch, Cycle::MAX), Some(10));
            assert_eq!(batch, [1, 2]);
            assert_eq!(q.len(), 1, "the batch out is not pending");
            // Dispatching the batch schedules at its own cycle.
            q.schedule(10, 4);
            q.schedule(10, 5);
            batch.clear();
            assert_eq!(q.swap_batch(&mut batch, Cycle::MAX), Some(10));
            assert_eq!(batch, [4, 5]);
            batch.clear();
            assert_eq!(q.swap_batch(&mut batch, 10), None, "11 is after the limit");
            assert!(batch.is_empty() && q.len() == 1);
            assert_eq!(q.swap_batch(&mut batch, 11), Some(11));
            assert_eq!(batch, [3]);
        }
    }

    #[test]
    fn overflow_events_precede_direct_schedules_at_their_cycle() {
        for kind in kinds() {
            // Window 1,024: cycle 1,500 is beyond it until cycle 600 is
            // taken; the two overflow events were scheduled first, so
            // they lead the bucket the direct schedule lands in.
            let mut q = EventQueue::with_kind(kind);
            q.schedule(0, "start");
            q.schedule(1_500, "o1");
            q.schedule(1_500, "o2");
            let mut batch = Vec::new();
            assert_eq!(q.swap_batch(&mut batch, Cycle::MAX), Some(0));
            q.schedule(600, "mid");
            batch.clear();
            assert_eq!(q.swap_batch(&mut batch, Cycle::MAX), Some(600));
            q.schedule(1_500, "direct");
            q.schedule(700, "between");
            batch.clear();
            assert_eq!(q.swap_batch(&mut batch, Cycle::MAX), Some(700));
            batch.clear();
            assert_eq!(q.swap_batch(&mut batch, Cycle::MAX), Some(1_500));
            assert_eq!(batch, ["o1", "o2", "direct"]);
            assert_eq!(
                q.overflowed(),
                if kind == QueueKind::Calendar { 2 } else { 0 }
            );
        }
    }

    proptest! {
        /// Batch draining must yield the identical event sequence to
        /// per-event popping, batch boundaries must coincide with time
        /// changes, and both implementations must agree.
        #[test]
        fn batch_matches_pop_sequence(times in proptest::collection::vec(0u64..50, 1..200)) {
            for kind in kinds() {
                let mut by_pop = EventQueue::with_kind(kind);
                let mut by_batch = EventQueue::with_kind(kind);
                for (i, &t) in times.iter().enumerate() {
                    by_pop.schedule(t, i);
                    by_batch.schedule(t, i);
                }
                let mut batch = Vec::new();
                while let Some(when) = by_batch.pop_batch_into(&mut batch) {
                    prop_assert!(!batch.is_empty());
                    for &i in &batch {
                        prop_assert_eq!(by_pop.pop(), Some((when, i)));
                    }
                    // The next pending time must differ — the batch took
                    // the whole tied run.
                    prop_assert_ne!(by_batch.peek_time(), Some(when));
                    batch.clear();
                }
                prop_assert_eq!(by_pop.pop(), None);
            }
        }

        /// Popping must always yield non-decreasing times, and equal times
        /// must preserve scheduling order.
        #[test]
        fn pops_sorted_stable(times in proptest::collection::vec(0u64..50, 1..200)) {
            for kind in kinds() {
                let mut q = EventQueue::with_kind(kind);
                for (i, &t) in times.iter().enumerate() {
                    q.schedule(t, i);
                }
                let mut last: Option<(u64, usize)> = None;
                while let Some((t, i)) = q.pop() {
                    if let Some((lt, li)) = last {
                        prop_assert!(t > lt || (t == lt && i > li),
                            "out of order: ({lt},{li}) then ({t},{i})");
                    }
                    last = Some((t, i));
                }
            }
        }

        /// Differential test: the bucket list and the reference heap must
        /// agree on every output across randomized interleavings of
        /// `schedule`, `pop`, `swap_batch` (with and without a limit) and
        /// appending `pop_batch_into`, at the smallest and the largest
        /// window. Times are drawn relative to the last cycle taken out:
        /// that very cycle (the batch is out), near, straddling the
        /// window's end, just beyond it (the overflow moves in while
        /// direct schedules keep arriving), far future, and behind.
        #[test]
        fn calendar_matches_heap_differentially(
            largest in any::<bool>(),
            ops in proptest::collection::vec((0u8..9, 0u8..6, 0u64..100_000), 1..400),
        ) {
            let window: u64 = if largest { 8192 } else { 1024 };
            let mut cal = EventQueue::with_capacity_and_kind(window as usize, QueueKind::Calendar);
            let mut heap = EventQueue::with_kind(QueueKind::Heap);
            let (mut tag, mut now) = (0u64, 0u64);
            for (action, class, off) in ops {
                match action {
                    0..=3 => {
                        let when = match class {
                            0 => now,
                            1 => now + off % 512,
                            2 => now + window - 16 + off % 32,
                            3 => now + window + off % 4096,
                            4 => 1_000_000_000 + off,
                            _ => now.saturating_sub(1 + off % 2_000),
                        };
                        tag += 1;
                        cal.schedule(when, tag);
                        heap.schedule(when, tag);
                    }
                    4 => {
                        let (a, b) = (cal.pop(), heap.pop());
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            now = t;
                        }
                    }
                    5 | 6 => {
                        let until = if class == 0 { now + off % 64 } else { Cycle::MAX };
                        let (mut a, mut b) = (Vec::new(), Vec::new());
                        let t = cal.swap_batch(&mut a, until);
                        prop_assert_eq!(t, heap.swap_batch(&mut b, until));
                        prop_assert_eq!(&a, &b);
                        if let Some(t) = t {
                            now = t;
                        }
                    }
                    7 => {
                        let (mut a, mut b) = (vec![0], vec![0]);
                        let t = cal.pop_batch_into(&mut a);
                        prop_assert_eq!(t, heap.pop_batch_into(&mut b));
                        prop_assert_eq!(&a, &b);
                        if let Some(t) = t {
                            now = t;
                        }
                    }
                    _ => prop_assert_eq!(cal.peek_time(), heap.peek_time()),
                }
                prop_assert_eq!(cal.len(), heap.len());
            }
            // Drain both: every remaining event must match too.
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                let done = a.is_none();
                prop_assert_eq!(a, b);
                if done {
                    break;
                }
            }
        }

        /// The run loop's pattern: take a batch whole, and while it is
        /// out schedule each event's successors — at the batch's own
        /// cycle, nearby, across the window's end, and beyond it. The
        /// bucket list must hand out exactly the heap's batches, and a
        /// successor at the batch's own cycle must come back as the very
        /// next batch.
        #[test]
        fn dispatch_loop_batches_match_heap(
            largest in any::<bool>(),
            fanout in proptest::collection::vec((0u8..5, 0u64..10_000), 8..64),
        ) {
            let window: u64 = if largest { 8192 } else { 1024 };
            let mut cal = EventQueue::with_capacity_and_kind(window as usize, QueueKind::Calendar);
            let mut heap = EventQueue::with_kind(QueueKind::Heap);
            for (i, &(_, off)) in fanout.iter().enumerate() {
                cal.schedule(off % 100, i as u64);
                heap.schedule(off % 100, i as u64);
            }
            let (mut a, mut b) = (Vec::new(), Vec::new());
            let mut budget = 4_000u64;
            while let Some(now) = cal.swap_batch(&mut a, Cycle::MAX) {
                prop_assert_eq!(heap.swap_batch(&mut b, Cycle::MAX), Some(now));
                prop_assert_eq!(&a, &b);
                let mut same_cycle = false;
                for &ev in &a {
                    if budget == 0 {
                        break;
                    }
                    let (class, off) = fanout[(ev as usize) % fanout.len()];
                    let when = now + match class {
                        0 => 0,
                        1 => off % 300,
                        2 => window - 2 + off % 4,
                        3 => window + off,
                        _ => 100 * (off % 3),
                    };
                    same_cycle |= when == now;
                    budget -= 1;
                    cal.schedule(when, ev + 1);
                    heap.schedule(when, ev + 1);
                }
                if same_cycle {
                    prop_assert_eq!(cal.peek_time(), Some(now));
                }
                a.clear();
                b.clear();
            }
            prop_assert!(heap.is_empty());
        }
    }
}
