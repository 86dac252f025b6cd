//! Size-regression guards for the hot-path memory layout.
//!
//! Every scheduled event is written by value into a node of the event
//! queue's arena and read back from there by the pop that hands it to
//! dispatch, and every cache access scans a set's way records, so type
//! growth is a throughput regression that no functional test catches.
//! These `const` assertions pin the budgets: adding a fat enum variant
//! (or an inline array) fails the build here with a named number to
//! renegotiate rather than silently taxing every simulated message.

use amo_types::{Payload, Slab, SlotId};

/// `Payload` is parked once per message in the machine's payload slab.
/// The widest variants carry a `ReqId` + `BlockAddr` + `BlockData`
/// (8+8+16 plus tag); the once-fattest variant, `ActiveMsg`, boxes its
/// 64-byte `HandlerKind` instead of doubling every other message's
/// footprint.
const _: () = assert!(std::mem::size_of::<Payload>() <= 64);

/// The machine's event type: tag + ids, with a message's payload behind
/// a `SlotId`. One event is one write into a queue node and one read at
/// its pop; the widest variants (`ProcTimeout`, `ProcWordUpdate`,
/// `WordUpdateToHub`, which carries a word update's node, address and
/// value instead of a parked payload, and `AmuMemValue`) set this number.
const _: () = assert!(amo_sim::EVENT_SIZE <= 24);

/// One way record of a set-associative cache: tag, LRU tick, state and
/// the index of the line's run of words. A set's ways are contiguous, so
/// a lookup scans `ways` of these.
const _: () = assert!(amo_sim::cache::WAY_SIZE <= 24);

/// A directory-entry slab slot: protocol state + sharer bitmap +
/// optional open transaction (the `Txn` dominates: block data handle,
/// ack counts, flags) + request queue + generation tag.
const _: () = assert!(amo_sim::directory::ENTRY_SLOT_SIZE <= 144);

/// One directory action, written into the machine's pooled action
/// buffer per side effect. `ToProc` (a processor id beside a `Payload`)
/// sets this number; a put's word-update fan-out is one action carrying
/// the sharer set, not one per destination node.
const _: () = assert!(std::mem::size_of::<amo_sim::directory::DirAction>() <= 72);

/// Slab bookkeeping overhead: a slot stores the value, its generation
/// tag, and the `Option` presence bit. For a word-sized payload that
/// must stay within one 24-byte slot — more means the free-list
/// encoding regressed.
const _: () = assert!(Slab::<u64>::slot_size() <= 24);

/// Slot ids are handed around instead of hash keys and ride inside
/// events; they must stay register-sized.
const _: () = assert!(std::mem::size_of::<SlotId>() == 8);

/// `Option<SlotId>` must use a niche (no extra discriminant word) so
/// optional slots in per-node tables stay 8 bytes... it does not today
/// (both halves are plain `u32`), so the budget documents the real
/// cost: 12 bytes, padded.
const _: () = assert!(std::mem::size_of::<Option<SlotId>>() <= 12);

#[test]
fn report_layout_sizes() {
    // The const asserts above are the guard; this test names the actual
    // numbers in `--nocapture` output so budget renegotiation starts
    // from facts.
    println!(
        "Payload            = {:>3} bytes",
        std::mem::size_of::<Payload>()
    );
    println!(
        "Slab<Payload> slot = {:>3} bytes",
        Slab::<Payload>::slot_size()
    );
    println!("sim Event          = {:>3} bytes", amo_sim::EVENT_SIZE);
    println!("cache way          = {:>3} bytes", amo_sim::cache::WAY_SIZE);
    println!(
        "DirAction          = {:>3} bytes",
        std::mem::size_of::<amo_sim::directory::DirAction>()
    );
    println!(
        "dir Entry slot     = {:>3} bytes",
        amo_sim::directory::ENTRY_SLOT_SIZE
    );
    println!("Slab<u64> slot     = {:>3} bytes", Slab::<u64>::slot_size());
    println!(
        "SlotId             = {:>3} bytes",
        std::mem::size_of::<SlotId>()
    );
}
