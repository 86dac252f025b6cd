//! The pending-event queue (future-event list).
//!
//! Two interchangeable implementations live here:
//!
//! * [`CalendarQueue`] — a two-level calendar/ladder queue: an array of
//!   timing-wheel buckets covers a sliding "near" window of simulated
//!   time, an unsorted overflow list holds far-future events, and a
//!   small sorted list catches events scheduled before the window
//!   (allowed by the API, exercised by tests). Schedule and pop are
//!   amortized O(1) for the event distributions a machine simulation
//!   produces (most events land within a few hundred cycles of now).
//! * [`HeapQueue`] — the original `BinaryHeap` future-event list, kept
//!   as the reference implementation for differential testing.
//!
//! Both obey the same determinism contract: events pop in strictly
//! increasing `(time, sequence)` order, where the sequence number is
//! assigned at schedule time — so equal-time events pop FIFO, never in
//! heap-internal or bucket-internal order.

use amo_types::Cycle;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// One scheduled entry: firing time, tie-break sequence, payload.
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

/// Which future-event-list implementation an [`EventQueue`] uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueueKind {
    /// The calendar/ladder queue (default; fast path).
    Calendar,
    /// The reference binary heap (differential testing, perf baseline).
    Heap,
}

// ---------------------------------------------------------------------
// Reference implementation: binary heap.
// ---------------------------------------------------------------------

/// The original `BinaryHeap`-based future-event list.
struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
}

impl<E> HeapQueue<E> {
    fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
        }
    }

    #[inline]
    fn schedule(&mut self, when: Cycle, seq: u64, event: E) {
        self.heap.push(Entry { when, seq, event });
    }

    #[inline]
    fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|e| (e.when, e.event))
    }

    fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.when)
    }

    /// Drain every event at the earliest pending time into `out`, in
    /// `(when, seq)` order; returns that time.
    fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        let first = self.heap.pop()?;
        let when = first.when;
        out.push(first.event);
        while self.heap.peek().is_some_and(|e| e.when == when) {
            out.push(self.heap.pop().expect("peeked entry").event);
        }
        Some(when)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------
// Calendar/ladder queue.
// ---------------------------------------------------------------------

/// Cycles per bucket, as a shift: bucket width is `1 << WIDTH_SHIFT`.
/// Sixteen cycles sits between the machine's shortest latencies (bus:
/// ~10 cycles) and its common ones (hop: 100, DRAM: ~60), so a typical
/// dispatch schedules into a nearby — but usually distinct — bucket.
const WIDTH_SHIFT: u32 = 4;

/// Default bucket count (power of two). With 16-cycle buckets this
/// covers an 8192-cycle near window — beyond the machine's end-to-end
/// round trips, so the overflow list stays cold except for timeouts.
const DEFAULT_BUCKETS: usize = 512;

/// Sentinel slab index: end of a chain / empty bucket / empty free list.
const NIL: u32 = u32::MAX;

/// One slab slot: a scheduled entry threaded into a bucket chain, or —
/// when `event` is `None` — a recycled slot threaded into the free list.
struct Slot<E> {
    when: Cycle,
    seq: u64,
    /// Next slot in this bucket's chain (or in the free list).
    next: u32,
    event: Option<E>,
}

impl<E> Slot<E> {
    #[inline]
    fn key(&self) -> (Cycle, u64) {
        (self.when, self.seq)
    }
}

/// A two-level calendar/ladder future-event list.
///
/// In-window entries live in one shared slab and each bucket is an
/// intrusive singly-linked chain of slab indices (head/tail per bucket).
/// The slab's length tracks the *peak* pending-event count and freed
/// slots recycle through a free list, so once a workload has warmed the
/// queue, steady-state schedule/pop traffic never touches the
/// allocator — per-bucket growable storage would instead re-grow
/// whenever the window's tick→bucket mapping shifted load onto a
/// previously cold bucket.
struct CalendarQueue<E> {
    /// Entry slab; bucket chains and the free list index into it.
    slots: Vec<Slot<E>>,
    /// Head of the free-slot list (`NIL` when empty).
    free: u32,
    /// Per-bucket chain head (slab index, `NIL` when the bucket is
    /// empty). Chains are sorted ascending by `(when, seq)`.
    head: Vec<u32>,
    /// Per-bucket chain tail, for O(1) appends (the common case:
    /// sequence numbers grow monotonically).
    tail: Vec<u32>,
    /// One bit per bucket: set while the bucket has live entries. Pop
    /// finds the earliest bucket with a wrapped find-next-set scan
    /// (≤ `buckets/64` word reads) instead of walking empty buckets.
    occupied: Vec<u64>,
    /// `nbuckets - 1`; bucket count is a power of two.
    mask: usize,
    /// First tick (`when >> WIDTH_SHIFT`) of the near window.
    win_start_tick: u64,
    /// Offset (in buckets) of the lowest possibly-occupied bucket —
    /// a scan-start hint so the common pop reads one bitmap word.
    /// Pops move it forward; an insert behind it rewinds it.
    cursor: usize,
    /// Events before the window, sorted *descending* by `(when, seq)`
    /// so the earliest is `last()`. Rare: only API users scheduling
    /// behind an already-advanced window land here.
    early: Vec<Entry<E>>,
    /// Events at or beyond the window end, unsorted.
    far: Vec<Entry<E>>,
    /// Minimum `when` in `far` (`Cycle::MAX` when empty).
    far_min_when: Cycle,
    /// Live entries across all three regions.
    len: usize,
}

impl<E> CalendarQueue<E> {
    fn with_buckets(nbuckets: usize) -> Self {
        assert!(nbuckets.is_power_of_two() && nbuckets >= 64);
        CalendarQueue {
            slots: Vec::new(),
            free: NIL,
            head: vec![NIL; nbuckets],
            tail: vec![NIL; nbuckets],
            occupied: vec![0; nbuckets / 64],
            mask: nbuckets - 1,
            win_start_tick: 0,
            cursor: 0,
            early: Vec::new(),
            far: Vec::new(),
            far_min_when: Cycle::MAX,
            len: 0,
        }
    }

    /// Claim a slab slot for `entry`, recycling a freed one if possible.
    #[inline]
    fn alloc_slot(&mut self, entry: Entry<E>) -> u32 {
        let Entry { when, seq, event } = entry;
        if self.free != NIL {
            let i = self.free;
            let s = &mut self.slots[i as usize];
            self.free = s.next;
            s.when = when;
            s.seq = seq;
            s.next = NIL;
            s.event = Some(event);
            i
        } else {
            let i = u32::try_from(self.slots.len()).expect("slab indices fit in u32");
            self.slots.push(Slot {
                when,
                seq,
                next: NIL,
                event: Some(event),
            });
            i
        }
    }

    /// Release slot `i` to the free list, returning its event.
    #[inline]
    fn free_slot(&mut self, i: u32) -> E {
        let s = &mut self.slots[i as usize];
        let event = s.event.take().expect("freeing an occupied slot");
        s.next = self.free;
        self.free = i;
        event
    }

    /// Thread slot `i` into bucket `idx`'s chain, preserving `(when,
    /// seq)` order. The common schedule-at-now case appends at the tail.
    fn chain_insert(&mut self, idx: usize, i: u32) {
        let key = self.slots[i as usize].key();
        let t = self.tail[idx];
        if t == NIL {
            self.head[idx] = i;
            self.tail[idx] = i;
            return;
        }
        if self.slots[t as usize].key() < key {
            self.slots[t as usize].next = i;
            self.tail[idx] = i;
            return;
        }
        // Out-of-order within the bucket (an earlier in-tick time
        // arriving after a later one): walk to the insertion point.
        let mut prev = NIL;
        let mut cur = self.head[idx];
        while cur != NIL && self.slots[cur as usize].key() < key {
            prev = cur;
            cur = self.slots[cur as usize].next;
        }
        self.slots[i as usize].next = cur;
        if prev == NIL {
            self.head[idx] = i;
        } else {
            self.slots[prev as usize].next = i;
        }
        // The tail is unchanged: the tail key compared >= `key`, so the
        // walk stopped at or before it.
    }

    /// Unlink and free bucket `idx`'s earliest entry.
    #[inline]
    fn chain_take_front(&mut self, idx: usize) -> (Cycle, E) {
        let i = self.head[idx];
        debug_assert_ne!(i, NIL, "take_front on an empty bucket");
        let next = self.slots[i as usize].next;
        self.head[idx] = next;
        if next == NIL {
            self.tail[idx] = NIL;
        }
        let when = self.slots[i as usize].when;
        (when, self.free_slot(i))
    }

    #[inline]
    fn tick_of(when: Cycle) -> u64 {
        when >> WIDTH_SHIFT
    }

    #[inline]
    fn bucket_index(&self, tick: u64) -> usize {
        (tick as usize) & self.mask
    }

    #[inline]
    fn set_occupied(&mut self, idx: usize) {
        self.occupied[idx >> 6] |= 1u64 << (idx & 63);
    }

    #[inline]
    fn clear_occupied(&mut self, idx: usize) {
        self.occupied[idx >> 6] &= !(1u64 << (idx & 63));
    }

    /// First occupied bucket at or after `start` in wrapped bucket
    /// order. Because the window maps ticks to buckets bijectively and
    /// all occupied buckets belong to the window, scanning from the
    /// window's own start position yields the earliest-tick bucket.
    fn next_occupied_from(&self, start: usize) -> Option<usize> {
        let words = self.occupied.len();
        let sw = start >> 6;
        let high = self.occupied[sw] & (!0u64 << (start & 63));
        if high != 0 {
            return Some((sw << 6) | high.trailing_zeros() as usize);
        }
        for step in 1..words {
            let wi = (sw + step) % words;
            let w = self.occupied[wi];
            if w != 0 {
                return Some((wi << 6) | w.trailing_zeros() as usize);
            }
        }
        let low = self.occupied[sw] & !(!0u64 << (start & 63));
        if low != 0 {
            return Some((sw << 6) | low.trailing_zeros() as usize);
        }
        None
    }

    fn schedule(&mut self, when: Cycle, seq: u64, event: E) {
        let tick = Self::tick_of(when);
        if self.len == 0 {
            // Empty queue: snap the window to the new event so a drain
            // between workload phases never forces a far-list detour.
            self.win_start_tick = tick;
            self.cursor = 0;
        }
        self.len += 1;
        let entry = Entry { when, seq, event };
        if tick < self.win_start_tick {
            let key = entry.key();
            let pos = self.early.partition_point(|e| e.key() > key);
            self.early.insert(pos, entry);
        } else if tick - self.win_start_tick <= self.mask as u64 {
            let off = (tick - self.win_start_tick) as usize;
            if off < self.cursor {
                self.cursor = off;
            }
            let idx = self.bucket_index(tick);
            let slot = self.alloc_slot(entry);
            self.chain_insert(idx, slot);
            self.set_occupied(idx);
        } else {
            self.far_min_when = self.far_min_when.min(when);
            self.far.push(entry);
        }
    }

    fn pop(&mut self) -> Option<(Cycle, E)> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.early.pop() {
            self.len -= 1;
            return Some((e.when, e.event));
        }
        loop {
            let start = self.bucket_index(self.win_start_tick + self.cursor as u64);
            if let Some(idx) = self.next_occupied_from(start) {
                self.cursor = idx.wrapping_sub(self.bucket_index(self.win_start_tick)) & self.mask;
                let (when, event) = self.chain_take_front(idx);
                if self.head[idx] == NIL {
                    self.clear_occupied(idx);
                }
                self.len -= 1;
                return Some((when, event));
            }
            // Near window exhausted: jump it to the earliest far event
            // and redistribute whatever now fits.
            debug_assert!(!self.far.is_empty(), "len > 0 but every region empty");
            self.advance_window();
        }
    }

    /// Batched variant of [`pop`](Self::pop): drain *every* event at the
    /// earliest pending time into `out` (in `(when, seq)` order) and
    /// return that time. One bitmap scan serves the whole batch instead
    /// of one scan per event.
    ///
    /// Correctness of the single-bucket drain: a tick maps to exactly one
    /// bucket, so all in-window entries sharing a `when` live in the same
    /// bucket, contiguously at its sorted head once the head entry is the
    /// minimum. The early list holds only strictly-earlier times than any
    /// bucket (its ticks precede the window) and the far list only
    /// strictly-later ones, so neither can split a same-time batch.
    fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if let Some(last) = self.early.last() {
            let when = last.when;
            while self.early.last().is_some_and(|e| e.when == when) {
                out.push(self.early.pop().expect("checked early entry").event);
                self.len -= 1;
            }
            return Some(when);
        }
        loop {
            let start = self.bucket_index(self.win_start_tick + self.cursor as u64);
            if let Some(idx) = self.next_occupied_from(start) {
                self.cursor = idx.wrapping_sub(self.bucket_index(self.win_start_tick)) & self.mask;
                let (when, event) = self.chain_take_front(idx);
                out.push(event);
                self.len -= 1;
                while self.head[idx] != NIL && self.slots[self.head[idx] as usize].when == when {
                    out.push(self.chain_take_front(idx).1);
                    self.len -= 1;
                }
                if self.head[idx] == NIL {
                    self.clear_occupied(idx);
                }
                return Some(when);
            }
            debug_assert!(!self.far.is_empty(), "len > 0 but every region empty");
            self.advance_window();
        }
    }

    /// Jump the window to the earliest far event and move newly-near
    /// events into buckets. `swap_remove` visits entries in arbitrary
    /// order, but bucket insertion sorts by the full `(when, seq)` key,
    /// so the resulting pop order is deterministic regardless.
    fn advance_window(&mut self) {
        self.win_start_tick = Self::tick_of(self.far_min_when);
        self.cursor = 0;
        let win_start = self.win_start_tick;
        let span = self.mask as u64;
        let mut next_min = Cycle::MAX;
        let mut i = 0;
        while i < self.far.len() {
            let tick = Self::tick_of(self.far[i].when);
            debug_assert!(tick >= win_start, "far entry earlier than far_min_when");
            if tick - win_start <= span {
                let entry = self.far.swap_remove(i);
                let idx = self.bucket_index(tick);
                let slot = self.alloc_slot(entry);
                self.chain_insert(idx, slot);
                self.set_occupied(idx);
            } else {
                next_min = next_min.min(self.far[i].when);
                i += 1;
            }
        }
        self.far_min_when = next_min;
    }

    fn peek_time(&self) -> Option<Cycle> {
        if self.len == 0 {
            return None;
        }
        if let Some(e) = self.early.last() {
            return Some(e.when);
        }
        let start = self.bucket_index(self.win_start_tick + self.cursor as u64);
        if let Some(idx) = self.next_occupied_from(start) {
            return Some(self.slots[self.head[idx] as usize].when);
        }
        debug_assert!(self.far_min_when != Cycle::MAX);
        Some(self.far_min_when)
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------
// Public wrapper.
// ---------------------------------------------------------------------

enum Imp<E> {
    Calendar(CalendarQueue<E>),
    Heap(HeapQueue<E>),
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
    next_seq: u64,
    scheduled_total: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue using the default (calendar) implementation.
    pub fn new() -> Self {
        Self::with_kind(QueueKind::Calendar)
    }

    /// An empty queue using the chosen implementation.
    pub fn with_kind(kind: QueueKind) -> Self {
        Self::with_capacity_and_kind(0, kind)
    }

    /// An empty queue pre-sized for `cap` concurrently pending events,
    /// so steady-state operation never reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_kind(cap, QueueKind::Calendar)
    }

    /// Pre-sized queue with an explicit implementation choice.
    pub fn with_capacity_and_kind(cap: usize, kind: QueueKind) -> Self {
        let imp = match kind {
            QueueKind::Calendar => {
                // More pending events want more buckets so bucket
                // chains stay short; clamp to keep per-machine memory
                // bounded during wide parallel sweeps.
                let nbuckets = (cap / 4).next_power_of_two().clamp(DEFAULT_BUCKETS, 4096);
                let mut q = CalendarQueue::with_buckets(nbuckets);
                // Pre-size the slab for the expected pending-event peak
                // so even the first pass through a workload rarely grows.
                q.slots.reserve(cap);
                Imp::Calendar(q)
            }
            QueueKind::Heap => Imp::Heap(HeapQueue::with_capacity(cap)),
        };
        EventQueue {
            imp,
            next_seq: 0,
            scheduled_total: 0,
        }
    }

    /// Which implementation this queue runs on.
    pub fn kind(&self) -> QueueKind {
        match &self.imp {
            Imp::Calendar(_) => QueueKind::Calendar,
            Imp::Heap(_) => QueueKind::Heap,
        }
    }

    /// Schedule `event` to fire at absolute cycle `when`.
    #[inline]
    pub fn schedule(&mut self, when: Cycle, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.scheduled_total += 1;
        match &mut self.imp {
            Imp::Calendar(q) => q.schedule(when, seq, event),
            Imp::Heap(q) => q.schedule(when, seq, event),
        }
    }

    /// Remove and return the earliest event, with its firing time.
    #[inline]
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        match &mut self.imp {
            Imp::Calendar(q) => q.pop(),
            Imp::Heap(q) => q.pop(),
        }
    }

    /// Remove every event at the earliest pending time, appending them
    /// to `out` in exactly the order a sequence of [`pop`](Self::pop)
    /// calls would yield them (`(when, seq)` FIFO); returns that time,
    /// or `None` when the queue is empty. `out` is *appended to*, not
    /// cleared, so the caller can reuse one buffer across batches.
    ///
    /// Events scheduled *during* batch processing — even at the same
    /// time — get later sequence numbers and therefore land in a later
    /// batch, which is exactly where per-event popping would see them.
    #[inline]
    pub fn pop_batch_into(&mut self, out: &mut Vec<E>) -> Option<Cycle> {
        match &mut self.imp {
            Imp::Calendar(q) => q.pop_batch_into(out),
            Imp::Heap(q) => q.pop_batch_into(out),
        }
    }

    /// Firing time of the earliest pending event, if any.
    pub fn peek_time(&self) -> Option<Cycle> {
        match &self.imp {
            Imp::Calendar(q) => q.peek_time(),
            Imp::Heap(q) => q.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            Imp::Calendar(q) => q.len(),
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
        q.schedule(999_000, "behind"); // snaps window (queue was empty)
        q.schedule(1_000_500, "near");
        q.schedule(5, "way-behind");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, "way-behind")));
        assert_eq!(q.pop(), Some((999_000, "behind")));
        assert_eq!(q.pop(), Some((1_000_500, "near")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_events_cross_multiple_windows() {
        let mut q = EventQueue::with_kind(QueueKind::Calendar);
        // Spread events far beyond a single near window (8192 cycles).
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
            // Two ties far beyond the near window force advance_window,
            // then a behind-window insert exercises the early list.
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

        /// Differential test: the calendar queue and the reference heap
        /// must agree on every pop across randomized schedule/pop
        /// interleavings that mix near, far-future, and behind-window
        /// times — including runs of equal times (FIFO stability).
        #[test]
        fn calendar_matches_heap_differentially(
            ops in proptest::collection::vec(
                // (action, time-class, offset): action 0..3 schedules,
                // 3.. pops; time classes pick near / equal / far / huge.
                (0u8..5, 0u8..4, 0u64..100_000),
                1..400,
            ),
        ) {
            let mut cal = EventQueue::with_kind(QueueKind::Calendar);
            let mut heap = EventQueue::with_kind(QueueKind::Heap);
            let mut tag = 0u64;
            for (action, class, off) in ops {
                if action < 3 {
                    let when = match class {
                        0 => off % 512,              // near, dense
                        1 => 64,                     // equal-time pile-up
                        2 => 8_192 + off,            // just past the window
                        _ => 1_000_000_000 + off,    // far future
                    };
                    tag += 1;
                    cal.schedule(when, tag);
                    heap.schedule(when, tag);
                } else {
                    prop_assert_eq!(cal.pop(), heap.pop());
                    prop_assert_eq!(cal.peek_time(), heap.peek_time());
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
    }
}
