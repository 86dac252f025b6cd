//! Allocation claim of the event queue, checked with
//! [`amo_obs::CountingAlloc`] as this test binary's global allocator: a
//! queue sized for its peak number of pending events allocates when it
//! is built and never after. One test, because the counters are
//! process-wide.

use amo_engine::EventQueue;
use amo_obs::{alloc_counters, CountingAlloc};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn event_queue_allocates_only_when_built() {
    // The queue takes its node arena with its chain and bitmap vectors
    // when it is built. Then 20 rounds fill it with 1,000 events across
    // 700 cycles of its window and pop it empty, scheduling again at
    // every third cycle just popped: no call reaches the allocator. A
    // queue whose per-cycle buffers came from a pool made one buffer per
    // cycle pending at once, ≈ 700 here.
    const PENDING: u64 = 1_000;
    let before = alloc_counters().0;
    let mut q = EventQueue::with_capacity(PENDING as usize);
    let built = alloc_counters().0;
    for round in 0..20 {
        let start = round * 1_000;
        for i in 0..PENDING {
            q.schedule(start + i % 700, i);
        }
        while let Some((t, i)) = q.pop() {
            if i % 3 == 0 {
                q.schedule(t, i + 1);
            }
        }
    }
    let after = alloc_counters().0;
    assert!(
        built - before <= 4,
        "building the queue made {} allocations",
        built - before
    );
    assert_eq!(after - built, 0, "scheduling and popping allocated");
    assert_eq!(q.overflowed(), 0, "every event stayed inside the window");
}
