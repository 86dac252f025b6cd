//! The home-node directory controller.
//!
//! A home-centric invalidation protocol in the style of the SGI Origin's
//! SN2 protocol, extended with the AMO paper's *fine-grained get/put*
//! mechanism (Sec. 3.2):
//!
//! * **fine-grained get** — the local AMU reads the coherent value of one
//!   word; the block moves to `Shared` and the AMU joins the sharer list,
//!   but (unlike an ordinary sharer) it may modify the word without first
//!   acquiring exclusive ownership;
//! * **fine-grained put** — the AMU writes a word back; the directory
//!   updates home memory and pushes a word-granularity update to every
//!   node holding a copy of the containing block, *without invalidating
//!   anyone*.
//!
//! The directory is a passive, per-block-serialized state machine: the
//! hub feeds it messages and executes the [`DirAction`]s it emits (send a
//! message, start a DRAM read, flush the AMU, ...). Requests that arrive
//! for a block with an open transaction are queued and drained in order,
//! which is exactly the home-node serialization that makes centralized
//! synchronization hot spots hot.

pub use crate::protocol::{DirAction, DirRequest, Directory, ENTRY_SLOT_SIZE};
