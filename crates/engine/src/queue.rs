//! The pending-event queue (future-event list).
//!
//! Two interchangeable implementations live here:
//!
//! * `BucketQueue` — one FIFO chain per cycle of a sliding
//!   power-of-two window, found through an occupancy bitmap, over one
//!   arena of nodes that holds every pending event. An event inside the
//!   window is one node appended at its cycle's tail, and
//!   [`EventQueue::pop_until`] takes the head of the earliest chain. The
//!   nodes of events at or beyond the window wait in an `overflow` heap;
//!   those of events behind it (allowed by the API, never done by the
//!   machine) in an `early` heap.
//! * `KeyedHeap` — the original `BinaryHeap` future-event list, kept
//!   as the reference implementation for differential testing.
//!
//! Both obey the same determinism contract: events come out in
//! increasing time, and equal-time events in the order they were
//! scheduled (FIFO), never in heap-internal order. The heap keys every
//! entry by `(time, sequence)`; the bucket list needs sequence numbers
//! only in its two heaps, because a cycle's chain is FIFO by
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

    /// Inlined into [`EventQueue::schedule`] beside the bucket list's
    /// path: were the event's address passed to a call on either arm, an
    /// inlined caller could not build it in place.
    #[inline(always)]
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

    /// Entries at `when` (a scan of the whole heap).
    fn count_at(&self, when: Cycle) -> usize {
        self.heap.iter().filter(|e| e.when == when).count()
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

/// End of a chain, and of the free list.
const NIL: u32 = u32::MAX;

/// One arena node: full, holding a pending event, or free. `next` is
/// the following node of the event's chain, or of the free list.
/// `repr(u8)` lays a node out as tag, `next`, event, so an event is
/// stored and taken out aligned and whole (an `Option`'s niche would
/// split it from its tag).
#[repr(u8)]
enum Node<E> {
    Free { next: u32 },
    Full { next: u32, event: E },
}

impl<E> Node<E> {
    #[inline(always)]
    fn next(&mut self) -> &mut u32 {
        match self {
            Node::Free { next } | Node::Full { next, .. } => next,
        }
    }
}

/// One FIFO chain per cycle of the window `base .. base + window`.
///
/// Every pending event sits in a node of one arena: the chains link the
/// nodes of the window's cycles, and the two heaps hold the indices of
/// the rest. A node freed by a pop joins a LIFO free list threaded
/// through `next`, so a queue sized for its peak number of pending
/// events allocates nothing after construction.
struct BucketQueue<E> {
    /// Per window cycle (`when & mask`): the first node of its chain.
    head: Vec<u32>,
    /// Per window cycle: the last node of its chain.
    tail: Vec<u32>,
    /// One bit per window cycle, set while it has a chain; `head` and
    /// `tail` are stale while it is clear (zeroed pages stay untouched).
    occupied: Vec<u64>,
    /// Window length − 1 (the window is a power of two).
    mask: usize,
    /// First cycle of the window.
    base: Cycle,
    /// Every node ever made; a chain, a heap or the free list holds each.
    nodes: Vec<Node<E>>,
    /// The most recently freed node: head of the free list.
    free: u32,
    /// Nodes of the events at or beyond the window's end.
    overflow: KeyedHeap<u32>,
    /// Nodes of the events before the window's start.
    early: KeyedHeap<u32>,
    /// Events that were scheduled into `overflow` (a diagnostic).
    overflowed: u64,
    /// Pending events in all three places.
    len: usize,
}

impl<E> BucketQueue<E> {
    fn with_window(window: usize, nodes: usize) -> Self {
        assert!(window.is_power_of_two() && window >= 64);
        BucketQueue {
            head: vec![0; window],
            tail: vec![0; window],
            occupied: vec![0; window / 64],
            mask: window - 1,
            base: 0,
            nodes: Vec::with_capacity(nodes),
            free: NIL,
            overflow: KeyedHeap::with_capacity(0),
            early: KeyedHeap::with_capacity(0),
            overflowed: 0,
            len: 0,
        }
    }

    /// The event goes into a node first, wherever it then waits: its only
    /// use is that one store, so an inlined caller can build it in place.
    #[inline(always)]
    fn schedule(&mut self, when: Cycle, event: E) {
        self.len += 1;
        let n = self.store(event);
        // `when - base` wraps for a time behind the window, so the common
        // case is one compare.
        if when.wrapping_sub(self.base) <= self.mask as u64 {
            self.link(when, n);
        } else {
            self.schedule_outside(when, n);
        }
    }

    /// [`schedule`](Self::schedule) at a time outside the window.
    #[inline(never)]
    fn schedule_outside(&mut self, when: Cycle, n: u32) {
        if when > self.base {
            self.overflowed += 1;
            self.overflow.push(when, n);
        } else if self.len == 1 {
            // Nothing else is pending, so the window may move back.
            self.base = when;
            self.link(when, n);
        } else {
            self.early.push(when, n);
        }
    }

    /// Put `event` in a node — the free list's head, or a new one.
    #[inline(always)]
    fn store(&mut self, event: E) -> u32 {
        let n = if self.free == NIL {
            self.nodes.push(Node::Free { next: NIL });
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            self.free = *self.nodes[n as usize].next();
            n
        };
        self.nodes[n as usize] = Node::Full { next: NIL, event };
        n
    }

    /// Link node `n` in at the tail of window cycle `when`'s chain.
    #[inline(always)]
    fn link(&mut self, when: Cycle, n: u32) {
        let s = when as usize & self.mask;
        if self.is_occupied(s) {
            *self.nodes[self.tail[s] as usize].next() = n;
        } else {
            self.head[s] = n;
            self.occupied[s >> 6] |= 1 << (s & 63);
        }
        self.tail[s] = n;
    }

    /// True while window slot `s` has a chain.
    #[inline(always)]
    fn is_occupied(&self, s: usize) -> bool {
        self.occupied[s >> 6] >> (s & 63) & 1 != 0
    }

    /// Free node `n`, returning the `next` it held and its event.
    #[inline(always)]
    fn release(&mut self, n: u32) -> (u32, E) {
        let free = Node::Free { next: self.free };
        let Node::Full { next, event } = std::mem::replace(&mut self.nodes[n as usize], free)
        else {
            unreachable!("only a full node is released")
        };
        self.free = n;
        (next, event)
    }

    /// Take the event at the head of window slot `s`'s (non-empty)
    /// chain. The node's successor comes back from its release; the
    /// slot's bit clears with its last event.
    #[inline(always)]
    fn unlink(&mut self, s: usize) -> E {
        let (next, event) = self.release(self.head[s]);
        self.head[s] = next;
        if next == NIL {
            self.occupied[s >> 6] &= !(1 << (s & 63));
        }
        event
    }

    /// First occupied window slot in time order: the wrapped scan from
    /// `base`'s slot, since every chain lies in `base .. base + window`.
    #[inline(always)]
    fn next_occupied(&self) -> Option<usize> {
        let start = self.base as usize & self.mask;
        let (sw, words) = (start >> 6, self.occupied.len());
        let high = self.occupied[sw] & (!0u64 << (start & 63));
        if high != 0 {
            return Some(sw << 6 | high.trailing_zeros() as usize);
        }
        // The last step revisits `sw` whole: its low bits are the
        // window's final cycles. `words` is a power of two.
        (1..=words).find_map(|step| {
            let wi = (sw + step) & (words - 1);
            let w = self.occupied[wi];
            (w != 0).then(|| wi << 6 | w.trailing_zeros() as usize)
        })
    }

    /// The cycle window slot `s` stands for.
    #[inline]
    fn time_of(&self, s: usize) -> Cycle {
        self.base + (s.wrapping_sub(self.base as usize) & self.mask) as u64
    }

    /// Time and slot of the earliest chain, first moving the window to
    /// the overflow when every chain is empty.
    #[inline(always)]
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
                    .expect("the overflow's head has a chain")
            }
        };
        Some((self.time_of(s), s))
    }

    /// Start the window at `to` and link every overflow node it now
    /// covers in at the tail of its chain.
    ///
    /// This is what keeps each chain FIFO without sequence numbers. An
    /// event is in the overflow only if its cycle was beyond the window
    /// when it was scheduled, so it precedes every event appended
    /// straight to that cycle's chain — and those can only be scheduled
    /// once the cycle is inside the window, i.e. after this move, which
    /// runs before the queue returns to its caller. The overflow yields
    /// its events in `(when, seq)` order, so the moved ones keep theirs.
    /// A pop takes a chain's head and a schedule appends at its tail, so
    /// an event scheduled at the cycle being popped — even right after
    /// its last event left — comes out behind every event already there.
    /// The window never moves back while events are pending, so a cycle
    /// enters it once.
    #[inline(always)]
    fn advance(&mut self, to: Cycle) {
        self.base = to;
        let span = self.mask as u64;
        while self.overflow.peek_time().is_some_and(|t| t - to <= span) {
            let (when, n) = self.overflow.pop().expect("peeked entry");
            self.link(when, n);
        }
    }

    /// The earliest event if it fires no later than `until`: the early
    /// heap's head, or the head of the earliest chain, the window first
    /// moving to that chain's cycle.
    #[inline(always)]
    fn pop_until(&mut self, until: Cycle) -> Option<(Cycle, E)> {
        if let Some(when) = self.early.peek_time() {
            if when > until {
                return None;
            }
            self.len -= 1;
            let (_, n) = self.early.pop().expect("peeked entry");
            return Some((when, self.release(n).1));
        }
        let (when, s) = self.earliest()?;
        if when > until {
            return None;
        }
        if when != self.base {
            self.advance(when);
        }
        self.len -= 1;
        Some((when, self.unlink(s)))
    }

    #[cfg(test)]
    fn peek_time(&self) -> Option<Cycle> {
        if let Some(when) = self.early.peek_time() {
            return Some(when);
        }
        match self.next_occupied() {
            Some(s) => Some(self.time_of(s)),
            None => self.overflow.peek_time(),
        }
    }

    /// Pending events at `when`: its chain's length while it is inside
    /// the window, plus any in the two heaps.
    fn len_at(&self, when: Cycle) -> usize {
        let mut n = self.early.count_at(when) + self.overflow.count_at(when);
        let s = when as usize & self.mask;
        if when.wrapping_sub(self.base) <= self.mask as u64 && self.is_occupied(s) {
            let mut i = self.head[s];
            while i != NIL {
                n += 1;
                i = match self.nodes[i as usize] {
                    Node::Free { next } | Node::Full { next, .. } => next,
                };
            }
        }
        n
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
    /// an explicit implementation choice. The bucket list reserves `cap`
    /// nodes, so it allocates only at construction while no more are
    /// pending, and its window is `cap` cycles rounded up to a power of
    /// two, clamped to 1,024 ..= 8,192: a machine with more pending
    /// events schedules further ahead.
    pub fn with_capacity_and_kind(cap: usize, kind: QueueKind) -> Self {
        let imp = match kind {
            QueueKind::Calendar => Imp::Bucket(BucketQueue::with_window(
                cap.next_power_of_two().clamp(MIN_WINDOW, MAX_WINDOW),
                cap,
            )),
            QueueKind::Heap => Imp::Heap(KeyedHeap::with_capacity(cap)),
        };
        EventQueue { imp }
    }

    /// Schedule `event` to fire at absolute cycle `when`.
    #[inline(always)]
    pub fn schedule(&mut self, when: Cycle, event: E) {
        match &mut self.imp {
            Imp::Bucket(q) => q.schedule(when, event),
            Imp::Heap(q) => q.push(when, event),
        }
    }

    /// Remove and return the earliest event, with its firing time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_until(Cycle::MAX)
    }

    /// Remove and return the earliest event, with its firing time, if
    /// that time is no later than `until`; `None` when the queue is
    /// empty or its earliest event lies after `until`. An event
    /// scheduled at the time just popped comes out after every event
    /// already pending at that time.
    #[inline(always)]
    pub fn pop_until(&mut self, until: Cycle) -> Option<(Cycle, E)> {
        match &mut self.imp {
            Imp::Bucket(q) => q.pop_until(until),
            Imp::Heap(q) => {
                q.peek_time().filter(|&t| t <= until)?;
                q.pop()
            }
        }
    }

    /// Remove every event at the earliest pending time, appending them
    /// to `out` in [`pop`](Self::pop) order; returns that time, or
    /// `None` when the queue is empty. `out` is *appended to*, not
    /// cleared, so the caller can reuse one buffer across batches.
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        let (when, first) = self.pop()?;
        out.push(first);
        while let Some((_, event)) = self.pop_until(when) {
            out.push(event);
        }
        Some(when)
    }

    /// Firing time of the earliest pending event, if any.
    #[cfg(test)]
    pub(crate) fn peek_time(&self) -> Option<Cycle> {
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

    /// Number of pending events that fire at `when`. It walks a chain or
    /// scans a heap: meant for occasional use, such as sampling.
    pub fn len_at(&self, when: Cycle) -> usize {
        match &self.imp {
            Imp::Bucket(q) => q.len_at(when),
            Imp::Heap(q) => q.count_at(when),
        }
    }

    /// True when nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        // (capacity, window): the last in-window cycle is linked into
        // its chain, the next one goes to the overflow.
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
            assert_eq!(q.pop_batch_into(&mut batch), Some(10));
            assert_eq!(batch, [1, 2]);
            assert_eq!(q.len(), 1, "the batch out is not pending");
            // Dispatching the batch schedules at its own cycle.
            q.schedule(10, 4);
            q.schedule(10, 5);
            batch.clear();
            assert_eq!(q.pop_batch_into(&mut batch), Some(10));
            assert_eq!(batch, [4, 5]);
            assert_eq!(q.pop_until(10), None, "11 is after the limit");
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop_until(11), Some((11, 3)));
        }
    }

    #[test]
    fn a_schedule_at_the_popped_cycle_lands_behind_its_remaining_events() {
        for kind in kinds() {
            let mut q = EventQueue::with_kind(kind);
            q.schedule(10, 1);
            q.schedule(10, 2);
            q.schedule(12, 9);
            assert_eq!(q.pop_until(10), Some((10, 1)));
            q.schedule(10, 3); // behind 2, which is still pending
            assert_eq!(q.len_at(10), 2);
            assert_eq!(q.pop_until(10), Some((10, 2)));
            assert_eq!(q.pop_until(10), Some((10, 3)));
            // The cycle's last event has left; a schedule at it reopens it.
            q.schedule(10, 4);
            q.schedule(10, 5);
            assert_eq!(q.peek_time(), Some(10));
            assert_eq!(q.pop_until(10), Some((10, 4)));
            assert_eq!(q.pop_until(10), Some((10, 5)));
            assert_eq!(q.pop_until(11), None, "12 is after the limit");
            assert_eq!((q.len(), q.len_at(10), q.len_at(12)), (1, 0, 1));
            assert_eq!(q.pop(), Some((12, 9)));
        }
    }

    #[test]
    fn overflow_events_precede_direct_schedules_at_their_cycle() {
        for kind in kinds() {
            // Window 1,024: cycle 1,500 is beyond it until cycle 600 is
            // taken; the two overflow events were scheduled first, so
            // they lead the chain the direct schedule lands in.
            let mut q = EventQueue::with_kind(kind);
            q.schedule(0, "start");
            q.schedule(1_500, "o1");
            q.schedule(1_500, "o2");
            assert_eq!(q.pop(), Some((0, "start")));
            q.schedule(600, "mid");
            assert_eq!(q.pop(), Some((600, "mid")));
            q.schedule(1_500, "direct");
            q.schedule(700, "between");
            assert_eq!(q.pop(), Some((700, "between")));
            assert_eq!(q.len_at(1_500), 3);
            let mut batch = Vec::new();
            assert_eq!(q.pop_batch_into(&mut batch), Some(1_500));
            assert_eq!(batch, ["o1", "o2", "direct"]);
            assert_eq!(
                q.overflowed(),
                if kind == QueueKind::Calendar { 2 } else { 0 }
            );
        }
    }

    #[test]
    fn freed_nodes_are_reused_before_the_arena_grows() {
        // Sixty-four pending at most, in many rounds: the arena reserved
        // at construction serves them all.
        let mut q = EventQueue::with_capacity(64);
        for round in 0..100u64 {
            for i in 0..64 {
                q.schedule(round * 10 + i % 7, i);
            }
            let mut last = None;
            while let Some((t, i)) = q.pop_until(round * 10 + 6) {
                assert!(last < Some((t, i)), "({t}, {i}) after {last:?}");
                last = Some((t, i));
            }
        }
        let Imp::Bucket(b) = &q.imp else {
            unreachable!()
        };
        assert_eq!(b.nodes.len(), 64);
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
        /// `schedule`, `pop`, `pop_until` (with and without a limit),
        /// appending `pop_batch_into`, `peek_time` and `len_at`, at the
        /// smallest and the largest window. Times are drawn relative to
        /// the last cycle taken out: that very cycle (behind its
        /// remaining events, or reopening it once its last event left),
        /// near, the window's last cycle and the first one beyond it
        /// (the window starts at the cycle taken, so only the second
        /// overflows), further beyond (the overflow moves in while
        /// direct schedules keep arriving), far future, and behind.
        #[test]
        fn calendar_matches_heap_differentially(
            largest in any::<bool>(),
            ops in proptest::collection::vec((0u8..10, 0u8..8, 0u64..100_000), 1..400),
        ) {
            let window: u64 = if largest { 8192 } else { 1024 };
            let mut cal = EventQueue::with_capacity_and_kind(window as usize, QueueKind::Calendar);
            let mut heap = EventQueue::with_kind(QueueKind::Heap);
            let (mut tag, mut now) = (0u64, 0u64);
            // True while the window starts behind `now`: a schedule into
            // an empty queue moved it back, and no pop has moved it on.
            let mut moved_back = false;
            for (action, class, off) in ops {
                match action {
                    0..=3 => {
                        let when = match class {
                            0 => now,
                            1 => now + off % 512,
                            2 => now + window - 1,
                            3 => now + window,
                            4 => now + window + off % 4096,
                            5 => 1_000_000_000 + off,
                            _ => now.saturating_sub(1 + off % 2_000),
                        };
                        tag += 1;
                        moved_back |= heap.is_empty() && when < now;
                        let overflowed = cal.overflowed();
                        cal.schedule(when, tag);
                        heap.schedule(when, tag);
                        if class == 2 && !moved_back {
                            prop_assert_eq!(cal.overflowed(), overflowed, "the window's last cycle");
                        }
                    }
                    4 | 5 => {
                        let (a, b) = (cal.pop(), heap.pop());
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            (now, moved_back) = (t, false);
                        }
                    }
                    6 => {
                        let until = match class {
                            0 => now,
                            1 | 2 => now + off % 64,
                            _ => Cycle::MAX,
                        };
                        let (a, b) = (cal.pop_until(until), heap.pop_until(until));
                        prop_assert_eq!(a, b);
                        if let Some((t, _)) = a {
                            (now, moved_back) = (t, false);
                        }
                    }
                    7 => {
                        let (mut a, mut b) = (vec![0], vec![0]);
                        let t = cal.pop_batch_into(&mut a);
                        prop_assert_eq!(t, heap.pop_batch_into(&mut b));
                        prop_assert_eq!(&a, &b);
                        if let Some(t) = t {
                            (now, moved_back) = (t, false);
                        }
                    }
                    8 => {
                        let when = if class == 0 { now + off % 4 } else { now + window };
                        prop_assert_eq!(cal.len_at(when), heap.len_at(when));
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

        /// The run loop's pattern: pop one event, schedule its
        /// successors — at its own cycle, nearby, across the window's
        /// end, and beyond it — and pop the next. The bucket list must
        /// pop exactly the heap's events, and a successor at the popped
        /// cycle must keep that cycle earliest.
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
            let mut budget = 4_000u64;
            while let Some((now, ev)) = cal.pop_until(Cycle::MAX) {
                prop_assert_eq!(heap.pop_until(Cycle::MAX), Some((now, ev)));
                if budget == 0 {
                    continue;
                }
                budget -= 1;
                let (class, off) = fanout[(ev as usize) % fanout.len()];
                let when = now + match class {
                    0 => 0,
                    1 => off % 300,
                    2 => window - 2 + off % 4,
                    3 => window + off,
                    _ => 100 * (off % 3),
                };
                cal.schedule(when, ev + 1);
                heap.schedule(when, ev + 1);
                if when == now {
                    prop_assert_eq!(cal.peek_time(), Some(now));
                }
            }
            prop_assert!(heap.is_empty());
        }
    }
}
