//! Directory state machine: states, transactions, actions.

use amo_types::FxHashMap;
use amo_types::{
    Addr, BlockAddr, BlockData, InterventionKind, InterventionResp, NodeId, Payload, ProcId,
    ProcSet, ReqId, Slab, SlotId, Stats, Word,
};
use std::collections::VecDeque;

/// Stable directory state of one block.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum DirState {
    /// No cached copies; memory is the only copy.
    Uncached,
    /// Read-only copies at `sharers` (and possibly the home AMU).
    Shared,
    /// A single processor owns the block (Exclusive or Modified there).
    Exclusive(ProcId),
}

/// A request the directory serializes per block.
#[derive(Clone, Debug, PartialEq)]
pub enum DirRequest {
    /// Processor wants a Shared copy.
    GetS {
        /// Request tag echoed in the reply.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
    },
    /// Processor wants an Exclusive copy (with data).
    GetX {
        /// Request tag echoed in the reply.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
    },
    /// Processor holds Shared and wants Exclusive (no data needed).
    Upgrade {
        /// Request tag echoed in the reply.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
    },
    /// Home AMU wants the coherent value of a word (fine-grained get).
    FineGet {
        /// Opaque token the AMU uses to match the value delivery.
        token: u64,
        /// The word being read.
        addr: Addr,
    },
    /// Home AMU writes a word back (fine-grained put).
    FinePut {
        /// The word being written.
        addr: Addr,
        /// New value.
        value: Word,
        /// Causal flow of the AMU operation that produced the put
        /// (`ReqId::flow`; 0 for background evictions). Echoed on the
        /// word-update fanout so traces can attribute NoC traffic.
        flow: u64,
    },
}

/// Side effects the hub must execute, in order.
#[derive(Clone, Debug, PartialEq)]
pub enum DirAction {
    /// Send a protocol message to a processor (via its node's hub).
    ToProc {
        /// Destination processor.
        proc: ProcId,
        /// Message.
        payload: Payload,
    },
    /// Push one word update to a node holding a copy of the block.
    WordUpdateToNode {
        /// Destination node.
        node: NodeId,
        /// Updated word.
        addr: Addr,
        /// New value.
        value: Word,
        /// Causal flow of the put that triggered the update (0 = none).
        flow: u64,
    },
    /// Start a timed DRAM block read; call [`Directory::dram_done_into`] with
    /// the data when it completes.
    ReadDram {
        /// Block to read.
        block: BlockAddr,
    },
    /// Write one word to home memory (posted, untimed at the directory).
    WriteDramWord {
        /// Word address.
        addr: Addr,
        /// Value.
        value: Word,
    },
    /// Write a whole block back to home memory (posted).
    WriteDramBlock {
        /// Block to write.
        block: BlockAddr,
        /// Data.
        data: BlockData,
    },
    /// Synchronously flush (and drop) the AMU's words of this block into
    /// home memory — issued before granting exclusive ownership.
    FlushAmu {
        /// Block whose words must leave the AMU cache.
        block: BlockAddr,
    },
    /// Deliver a fine-grained-get value to the AMU. The block transaction
    /// stays open until `Directory::fine_complete_into` is called.
    FineValue {
        /// Token from the originating [`DirRequest::FineGet`].
        token: u64,
        /// The word read.
        addr: Addr,
        /// Its coherent value.
        value: Word,
    },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TxnKind {
    Read { req: ReqId, requester: ProcId },
    Write { req: ReqId, requester: ProcId },
    UpgradeWait { req: ReqId, requester: ProcId },
    FineGet { token: u64, addr: Addr },
}

#[derive(Debug)]
struct Txn {
    kind: TxnKind,
    pending_acks: usize,
    mem_pending: bool,
    owner_pending: bool,
    waiting_writeback: bool,
    data: Option<BlockData>,
    dirty_data: bool,
    downgraded_owner: Option<ProcId>,
    /// FineGet only: value delivered, waiting for `fine_complete`.
    fine_open: bool,
}

impl Txn {
    fn new(kind: TxnKind) -> Self {
        Txn {
            kind,
            pending_acks: 0,
            mem_pending: false,
            owner_pending: false,
            waiting_writeback: false,
            data: None,
            dirty_data: false,
            downgraded_owner: None,
            fine_open: false,
        }
    }

    fn needs_data(&self) -> bool {
        !matches!(self.kind, TxnKind::UpgradeWait { .. })
    }

    fn ready(&self) -> bool {
        self.pending_acks == 0
            && !self.mem_pending
            && !self.owner_pending
            && !self.waiting_writeback
            && (!self.needs_data() || self.data.is_some())
            && !self.fine_open
    }
}

#[derive(Debug)]
struct Entry {
    state: DirState,
    sharers: ProcSet,
    amu_shared: bool,
    txn: Option<Txn>,
    queue: VecDeque<DirRequest>,
}

impl Entry {
    fn new() -> Self {
        Entry {
            state: DirState::Uncached,
            sharers: ProcSet::new(),
            amu_shared: false,
            txn: None,
            queue: VecDeque::new(),
        }
    }

    /// An entry indistinguishable from a freshly created one: safe to
    /// release back to the arena and recreate on the next touch.
    fn is_idle(&self) -> bool {
        self.state == DirState::Uncached
            && self.sharers.is_empty()
            && !self.amu_shared
            && self.txn.is_none()
            && self.queue.is_empty()
    }
}

/// Size of one directory-entry slab slot in bytes. `Entry` is
/// private; the slot size is exported so the layout-guard tests can pin
/// the arena's per-block memory budget.
pub const ENTRY_SLOT_SIZE: usize = amo_types::Slab::<Entry>::slot_size();

/// The directory controller of one home node.
///
/// Entries live in a dense [`Slab`] arena; a hash index maps block
/// addresses to slots only on the miss path. Sync workloads hammer a
/// handful of blocks, so a one-entry MRU cache in front of the index
/// turns the common `entry()` call into a compare plus an array access —
/// no hashing on the hot path.
pub struct Directory {
    node: NodeId,
    procs_per_node: u16,
    entries: Slab<Entry>,
    index: FxHashMap<u64, SlotId>,
    /// Most recently touched block and its slot.
    mru: Option<(u64, SlotId)>,
    /// When [`Self::set_log_reclaims`] is on, every entry removal is
    /// recorded here as `(block, was_idle)` for the machine to drain
    /// into the trace stream. The idle flag is recomputed at the
    /// removal site, so the directory-sanity monitor checks a real
    /// invariant (no entry reclaimed mid-transaction) rather than a
    /// tautology. Off by default: untraced runs pay one branch.
    reclaim_log: Vec<(BlockAddr, bool)>,
    log_reclaims: bool,
}

impl Directory {
    /// Directory for `node`'s local memory.
    pub fn new(node: NodeId, procs_per_node: u16) -> Self {
        Directory {
            node,
            procs_per_node,
            entries: Slab::new(),
            index: FxHashMap::default(),
            mru: None,
            reclaim_log: Vec::new(),
            log_reclaims: false,
        }
    }

    /// Record idle-entry reclaims for the trace stream (see
    /// `reclaim_log`).
    pub(crate) fn set_log_reclaims(&mut self, on: bool) {
        self.log_reclaims = on;
    }

    /// Drain recorded reclaims into `out`, oldest first. Each record is
    /// `(block, was_idle_at_removal)`.
    pub(crate) fn drain_reclaims_into(&mut self, out: &mut Vec<(BlockAddr, bool)>) {
        out.append(&mut self.reclaim_log);
    }

    fn slot(&mut self, block: BlockAddr) -> SlotId {
        if let Some((b, id)) = self.mru {
            if b == block.0 {
                return id;
            }
        }
        let id = match self.index.get(&block.0) {
            Some(&id) => id,
            None => {
                let id = self.entries.insert(Entry::new());
                self.index.insert(block.0, id);
                id
            }
        };
        self.mru = Some((block.0, id));
        id
    }

    fn entry(&mut self, block: BlockAddr) -> &mut Entry {
        let id = self.slot(block);
        self.entries.get_mut(id).expect("indexed entry is live")
    }

    /// Read-only lookup that never allocates (diagnostics/observability).
    fn peek(&self, block: BlockAddr) -> Option<&Entry> {
        let id = *self.index.get(&block.0)?;
        self.entries.get(id)
    }

    /// Return a fully idle entry to the arena. Called at the end of the
    /// public entry points so long runs over many blocks (table sweeps,
    /// uncached workloads) keep the arena dense instead of accreting
    /// dead `Uncached` entries.
    fn release_if_idle(&mut self, block: BlockAddr) {
        let mru = self.mru.filter(|&(b, _)| b == block.0).map(|(_, id)| id);
        let id = mru.or_else(|| self.index.get(&block.0).copied());
        if let Some(id) = id.filter(|&id| self.entries.get(id).is_some_and(Entry::is_idle)) {
            self.reclaim(block, id);
        }
    }

    /// Remove an entry from the arena, recording `(block, was_idle)` —
    /// every removal path must come through here so the sanity monitor
    /// sees any future reclaim of a non-idle entry.
    fn reclaim(&mut self, block: BlockAddr, id: SlotId) {
        let idle = self.entries.get(id).is_some_and(Entry::is_idle);
        self.entries.remove(id);
        self.index.remove(&block.0);
        if self.mru.is_some_and(|(b, _)| b == block.0) {
            self.mru = None;
        }
        if self.log_reclaims {
            self.reclaim_log.push((block, idle));
        }
    }

    /// Feed a request. If the block has an open transaction the request is
    /// queued; otherwise it is dispatched immediately.
    /// Actions are appended to `actions`.
    pub fn request_into(
        &mut self,
        block: BlockAddr,
        req: DirRequest,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        debug_assert_eq!(block.home(), self.node, "request routed to wrong home");
        let entry = self.entry(block);
        if entry.txn.is_some() {
            entry.queue.push_back(req);
            stats.dir_queued += 1;
            return;
        }
        self.dispatch(block, req, stats, actions);
        self.release_if_idle(block);
    }

    fn dispatch(
        &mut self,
        block: BlockAddr,
        req: DirRequest,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        match req {
            DirRequest::GetS { req, requester } => {
                self.start_read(block, req, requester, stats, actions);
            }
            DirRequest::GetX { req, requester } => {
                self.start_write(block, req, requester, stats, actions);
            }
            DirRequest::Upgrade { req, requester } => {
                let entry = self.entry(block);
                let holds =
                    matches!(entry.state, DirState::Shared) && entry.sharers.contains(requester);
                // While the AMU shares the block it may hold a silently
                // accumulated word (a dirty `amo.inc` awaiting its test
                // value) that sharers have not seen. An in-place upgrade
                // would let the requester overwrite the flushed value with
                // its stale copy; degrade to a full GetX so it refetches
                // post-flush data.
                if holds && !entry.amu_shared {
                    self.start_upgrade(block, req, requester, stats, actions);
                } else {
                    // The requester lost its copy while the upgrade was in
                    // flight (or the block is AMU-shared): treat as a full
                    // GetX (it will get DataX and know its SC must fail if
                    // its reservation was lost).
                    self.start_write(block, req, requester, stats, actions);
                }
            }
            DirRequest::FineGet { token, addr } => {
                self.start_fine_get(block, token, addr, stats, actions);
            }
            DirRequest::FinePut { addr, value, flow } => {
                self.do_fine_put(block, addr, value, flow, stats, actions);
            }
        }
    }

    fn start_read(
        &mut self,
        block: BlockAddr,
        req: ReqId,
        requester: ProcId,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        let entry = self.entry(block);
        let mut txn = Txn::new(TxnKind::Read { req, requester });
        match entry.state {
            DirState::Uncached | DirState::Shared => {
                txn.mem_pending = true;
                actions.push(DirAction::ReadDram { block });
                stats.dram_reads += 1;
            }
            DirState::Exclusive(owner) if owner == requester => {
                // Owner re-requests: its writeback must be in flight.
                txn.waiting_writeback = true;
            }
            DirState::Exclusive(owner) => {
                txn.owner_pending = true;
                actions.push(DirAction::ToProc {
                    proc: owner,
                    payload: Payload::Intervention {
                        kind: InterventionKind::Shared,
                        block,
                    },
                });
                stats.interventions_sent += 1;
            }
        }
        entry.txn = Some(txn);
        self.try_complete(block, stats, actions);
    }

    fn start_write(
        &mut self,
        block: BlockAddr,
        req: ReqId,
        requester: ProcId,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        // Exclusive ownership is incompatible with an AMU copy: flush the
        // AMU's (possibly dirty) words into memory first.
        self.flush_amu_if_shared(block, actions);
        let entry = self.entry(block);
        let mut txn = Txn::new(TxnKind::Write { req, requester });
        match entry.state {
            DirState::Uncached => {
                txn.mem_pending = true;
                actions.push(DirAction::ReadDram { block });
                stats.dram_reads += 1;
            }
            DirState::Shared => {
                let mut acks = 0;
                for p in entry.sharers.iter() {
                    if p != requester {
                        actions.push(DirAction::ToProc {
                            proc: p,
                            payload: Payload::Inv { block },
                        });
                        acks += 1;
                    }
                }
                stats.invalidations_sent += acks as u64;
                txn.pending_acks = acks;
                txn.mem_pending = true;
                actions.push(DirAction::ReadDram { block });
                stats.dram_reads += 1;
            }
            DirState::Exclusive(owner) if owner == requester => {
                txn.waiting_writeback = true;
            }
            DirState::Exclusive(owner) => {
                txn.owner_pending = true;
                actions.push(DirAction::ToProc {
                    proc: owner,
                    payload: Payload::Intervention {
                        kind: InterventionKind::Exclusive,
                        block,
                    },
                });
                stats.interventions_sent += 1;
            }
        }
        self.entry(block).txn = Some(txn);
        self.try_complete(block, stats, actions);
    }

    fn start_upgrade(
        &mut self,
        block: BlockAddr,
        req: ReqId,
        requester: ProcId,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        self.flush_amu_if_shared(block, actions);
        let entry = self.entry(block);
        let mut acks = 0;
        for p in entry.sharers.iter() {
            if p != requester {
                actions.push(DirAction::ToProc {
                    proc: p,
                    payload: Payload::Inv { block },
                });
                acks += 1;
            }
        }
        stats.invalidations_sent += acks as u64;
        let mut txn = Txn::new(TxnKind::UpgradeWait { req, requester });
        txn.pending_acks = acks;
        entry.txn = Some(txn);
        self.try_complete(block, stats, actions);
    }

    fn start_fine_get(
        &mut self,
        block: BlockAddr,
        token: u64,
        addr: Addr,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        let entry = self.entry(block);
        let mut txn = Txn::new(TxnKind::FineGet { token, addr });
        match entry.state {
            DirState::Uncached | DirState::Shared => {
                txn.mem_pending = true;
                actions.push(DirAction::ReadDram { block });
                stats.dram_reads += 1;
            }
            DirState::Exclusive(owner) => {
                txn.owner_pending = true;
                actions.push(DirAction::ToProc {
                    proc: owner,
                    payload: Payload::Intervention {
                        kind: InterventionKind::Shared,
                        block,
                    },
                });
                stats.interventions_sent += 1;
            }
        }
        entry.txn = Some(txn);
        self.try_complete(block, stats, actions);
    }

    fn do_fine_put(
        &mut self,
        block: BlockAddr,
        addr: Addr,
        value: Word,
        flow: u64,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        let procs_per_node = self.procs_per_node;
        let entry = self.entry(block);
        if !entry.amu_shared {
            // The AMU's copy was flushed by an intervening GetX; its value
            // already reached memory via FlushAmu, so this put is stale.
            return;
        }
        actions.push(DirAction::WriteDramWord { addr, value });
        stats.dram_writes += 1;
        stats.puts += 1;
        // One update per *node* holding a copy; the hub fans it out to its
        // local processors' caches.
        let mut last: Option<NodeId> = None;
        for p in entry.sharers.iter() {
            let n = p.node(procs_per_node);
            if last != Some(n) {
                actions.push(DirAction::WordUpdateToNode {
                    node: n,
                    addr,
                    value,
                    flow,
                });
                stats.word_updates_sent += 1;
                last = Some(n);
            }
        }
        stats.dir_transactions += 1;
    }

    fn flush_amu_if_shared(&mut self, block: BlockAddr, actions: &mut Vec<DirAction>) {
        let entry = self.entry(block);
        if entry.amu_shared {
            entry.amu_shared = false;
            actions.push(DirAction::FlushAmu { block });
        }
    }

    /// An invalidation acknowledgement arrived.
    /// Actions are appended to `actions`.
    pub fn inv_ack_into(
        &mut self,
        block: BlockAddr,
        from: ProcId,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        let entry = self.entry(block);
        entry.sharers.remove(from);
        let txn = entry.txn.as_mut().expect("inv-ack without transaction");
        assert!(txn.pending_acks > 0, "unexpected inv-ack");
        txn.pending_acks -= 1;
        self.try_complete(block, stats, actions);
        self.release_if_idle(block);
    }

    /// The (former) owner answered an intervention.
    /// Actions are appended to `actions`.
    pub(crate) fn intervention_reply_into(
        &mut self,
        block: BlockAddr,
        from: ProcId,
        resp: InterventionResp,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        let entry = self.entry(block);
        let txn = entry
            .txn
            .as_mut()
            .expect("intervention reply without transaction");
        assert!(txn.owner_pending, "unexpected intervention reply");
        txn.owner_pending = false;
        let keep_owner_as_sharer =
            matches!(txn.kind, TxnKind::Read { .. } | TxnKind::FineGet { .. });
        match resp {
            InterventionResp::Dirty(data) => {
                txn.data = Some(data);
                txn.dirty_data = true;
                if keep_owner_as_sharer {
                    txn.downgraded_owner = Some(from);
                }
            }
            InterventionResp::Clean => {
                if keep_owner_as_sharer {
                    txn.downgraded_owner = Some(from);
                }
                if txn.data.is_none() && !txn.mem_pending {
                    txn.mem_pending = true;
                    actions.push(DirAction::ReadDram { block });
                    stats.dram_reads += 1;
                }
            }
            InterventionResp::Gone => {
                // Data arrives with the in-flight writeback.
                if txn.data.is_none() {
                    txn.waiting_writeback = true;
                }
            }
        }
        self.try_complete(block, stats, actions);
        self.release_if_idle(block);
    }

    /// A writeback arrived from an owner eviction.
    /// Actions are appended to `actions`.
    pub fn writeback_into(
        &mut self,
        block: BlockAddr,
        from: ProcId,
        data: BlockData,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        let entry = self.entry(block);
        if let Some(txn) = entry.txn.as_mut() {
            // The open transaction was waiting for exactly this data.
            txn.data = Some(data);
            txn.dirty_data = true;
            txn.waiting_writeback = false;
            self.try_complete(block, stats, actions);
            self.release_if_idle(block);
            return;
        }
        // Standalone eviction.
        if entry.state == DirState::Exclusive(from) {
            entry.state = DirState::Uncached;
            actions.push(DirAction::WriteDramBlock { block, data });
            stats.dram_writes += 1;
            stats.dir_transactions += 1;
        }
        // Otherwise: stale writeback from a superseded owner — drop it.
        self.release_if_idle(block);
    }

    /// A DRAM read started by [`DirAction::ReadDram`] finished.
    /// Actions are appended to `actions`.
    pub fn dram_done_into(
        &mut self,
        block: BlockAddr,
        data: BlockData,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        let entry = self.entry(block);
        let txn = entry.txn.as_mut().expect("dram data without transaction");
        assert!(txn.mem_pending, "unexpected dram completion");
        txn.mem_pending = false;
        if txn.data.is_none() {
            txn.data = Some(data);
        }
        self.try_complete(block, stats, actions);
        self.release_if_idle(block);
    }

    /// The AMU finished the operation a fine-grained get fed; `put` is the
    /// word it writes back immediately (an `amo.fetchadd`, or an `amo.inc`
    /// whose test value matched). `flow` is the causal flow of the AMU
    /// operation, echoed on any word-update fanout.
    /// Actions are appended to `actions`.
    pub(crate) fn fine_complete_into(
        &mut self,
        block: BlockAddr,
        put: Option<(Addr, Word)>,
        flow: u64,
        stats: &mut Stats,
        actions: &mut Vec<DirAction>,
    ) {
        {
            let entry = self.entry(block);
            let txn = entry.txn.take().expect("fine_complete without transaction");
            assert!(
                matches!(txn.kind, TxnKind::FineGet { .. }) && txn.fine_open,
                "fine_complete on a non-fine transaction"
            );
            stats.dir_transactions += 1;
        }
        if let Some((addr, value)) = put {
            self.do_fine_put(block, addr, value, flow, stats, actions);
        }
        self.pump(block, stats, actions);
        self.release_if_idle(block);
    }

    fn try_complete(&mut self, block: BlockAddr, stats: &mut Stats, actions: &mut Vec<DirAction>) {
        let entry = self.entry(block);
        let Some(txn) = entry.txn.as_mut() else {
            return;
        };
        if !txn.ready() {
            return;
        }
        let txn = entry.txn.take().expect("checked above");
        if txn.dirty_data {
            let data = txn.data.clone().expect("dirty data present");
            actions.push(DirAction::WriteDramBlock { block, data });
            stats.dram_writes += 1;
        }
        match txn.kind {
            TxnKind::Read { req, requester } => {
                let data = txn.data.expect("read completes with data");
                entry.state = DirState::Shared;
                if let Some(o) = txn.downgraded_owner {
                    entry.sharers.insert(o);
                }
                entry.sharers.insert(requester);
                actions.push(DirAction::ToProc {
                    proc: requester,
                    payload: Payload::DataS { req, block, data },
                });
                stats.dir_transactions += 1;
            }
            TxnKind::Write { req, requester } => {
                let data = txn.data.expect("write completes with data");
                entry.state = DirState::Exclusive(requester);
                entry.sharers = ProcSet::new();
                actions.push(DirAction::ToProc {
                    proc: requester,
                    payload: Payload::DataX { req, block, data },
                });
                stats.dir_transactions += 1;
            }
            TxnKind::UpgradeWait { req, requester } => {
                entry.state = DirState::Exclusive(requester);
                entry.sharers = ProcSet::new();
                actions.push(DirAction::ToProc {
                    proc: requester,
                    payload: Payload::UpgradeAck { req, block },
                });
                stats.dir_transactions += 1;
            }
            TxnKind::FineGet { token, addr } => {
                // Deliver the word, keep the transaction open until the
                // AMU calls back with `fine_complete` — this makes the
                // whole AMO atomic with respect to this block.
                let data = txn.data.expect("fine get completes with data");
                let value = data.word(addr.word_in_block(data.len() as u64 * 8));
                entry.state = DirState::Shared;
                if let Some(o) = txn.downgraded_owner {
                    entry.sharers.insert(o);
                }
                entry.amu_shared = true;
                let mut reopened = Txn::new(TxnKind::FineGet { token, addr });
                reopened.fine_open = true;
                entry.txn = Some(reopened);
                actions.push(DirAction::FineValue { token, addr, value });
                return; // don't pump: the block transaction is still open
            }
        }
        self.pump(block, stats, actions);
    }

    fn pump(&mut self, block: BlockAddr, stats: &mut Stats, actions: &mut Vec<DirAction>) {
        loop {
            let entry = self.entry(block);
            if entry.txn.is_some() {
                return;
            }
            let Some(req) = entry.queue.pop_front() else {
                return;
            };
            self.dispatch(block, req, stats, actions);
        }
    }

    /// Current proc sharer count of a block (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn sharer_count(&self, block: BlockAddr) -> usize {
        self.peek(block).map_or(0, |e| e.sharers.len())
    }

    /// Whether the home AMU is registered as a sharer (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn amu_shares(&self, block: BlockAddr) -> bool {
        self.peek(block).is_some_and(|e| e.amu_shared)
    }

    /// Whether the block currently has an open transaction.
    pub fn is_busy(&self, block: BlockAddr) -> bool {
        self.peek(block).is_some_and(|e| e.txn.is_some())
    }

    /// Queued request count for a block (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn queue_len(&self, block: BlockAddr) -> usize {
        self.peek(block).map_or(0, |e| e.queue.len())
    }

    /// Total requests queued across every block of this directory
    /// (observability sampling). Idle entries are released eagerly, so
    /// this walks only blocks with live protocol state.
    pub(crate) fn queued_requests(&self) -> usize {
        self.entries.iter().map(|(_, e)| e.queue.len()).sum()
    }

    /// Protocol transactions currently open at this directory.
    pub fn open_transactions(&self) -> usize {
        self.entries.iter().filter(|(_, e)| e.txn.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::NodeId;

    /// Collecting forms of the `*_into` entry points, so a test can match
    /// on what one call produced.
    impl Directory {
        fn request(
            &mut self,
            block: BlockAddr,
            req: DirRequest,
            stats: &mut Stats,
        ) -> Vec<DirAction> {
            let mut actions = Vec::new();
            self.request_into(block, req, stats, &mut actions);
            actions
        }

        fn inv_ack(&mut self, block: BlockAddr, from: ProcId, stats: &mut Stats) -> Vec<DirAction> {
            let mut actions = Vec::new();
            self.inv_ack_into(block, from, stats, &mut actions);
            actions
        }

        fn intervention_reply(
            &mut self,
            block: BlockAddr,
            from: ProcId,
            resp: InterventionResp,
            stats: &mut Stats,
        ) -> Vec<DirAction> {
            let mut actions = Vec::new();
            self.intervention_reply_into(block, from, resp, stats, &mut actions);
            actions
        }

        fn writeback(
            &mut self,
            block: BlockAddr,
            from: ProcId,
            data: BlockData,
            stats: &mut Stats,
        ) -> Vec<DirAction> {
            let mut actions = Vec::new();
            self.writeback_into(block, from, data, stats, &mut actions);
            actions
        }

        fn dram_done(
            &mut self,
            block: BlockAddr,
            data: BlockData,
            stats: &mut Stats,
        ) -> Vec<DirAction> {
            let mut actions = Vec::new();
            self.dram_done_into(block, data, stats, &mut actions);
            actions
        }

        fn fine_complete(
            &mut self,
            block: BlockAddr,
            put: Option<(Addr, Word)>,
            flow: u64,
            stats: &mut Stats,
        ) -> Vec<DirAction> {
            let mut actions = Vec::new();
            self.fine_complete_into(block, put, flow, stats, &mut actions);
            actions
        }
    }

    const HOME: NodeId = NodeId(0);
    const LINE_WORDS: usize = 16;

    fn dir() -> (Directory, Stats) {
        (Directory::new(HOME, 2), Stats::new())
    }

    fn blk() -> BlockAddr {
        Addr::on_node(HOME, 0x1000).block(128)
    }

    fn data(vals: &[(usize, Word)]) -> BlockData {
        let mut d = BlockData::zeroed(LINE_WORDS);
        for &(i, v) in vals {
            d.set_word(i, v);
        }
        d
    }

    fn to_proc(actions: &[DirAction]) -> Vec<(ProcId, &Payload)> {
        actions
            .iter()
            .filter_map(|a| match a {
                DirAction::ToProc { proc, payload } => Some((*proc, payload)),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn gets_on_uncached_reads_dram_and_replies() {
        let (mut d, mut s) = dir();
        let a = d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(2),
            },
            &mut s,
        );
        assert_eq!(a, vec![DirAction::ReadDram { block: blk() }]);
        assert!(d.is_busy(blk()));
        let a = d.dram_done(blk(), data(&[(0, 5)]), &mut s);
        match &a[..] {
            [DirAction::ToProc {
                proc,
                payload: Payload::DataS { req, data, .. },
            }] => {
                assert_eq!(*proc, ProcId(2));
                assert_eq!(*req, ReqId(1));
                assert_eq!(data.word(0), 5);
            }
            other => panic!("unexpected actions {other:?}"),
        }
        assert!(!d.is_busy(blk()));
        assert_eq!(d.sharer_count(blk()), 1);
    }

    #[test]
    fn getx_on_shared_invalidates_and_collects_acks() {
        let (mut d, mut s) = dir();
        // Two sharers: P0, P1.
        for p in [0u16, 1] {
            d.request(
                blk(),
                DirRequest::GetS {
                    req: ReqId(p as u64),
                    requester: ProcId(p),
                },
                &mut s,
            );
            d.dram_done(blk(), data(&[]), &mut s);
        }
        assert_eq!(d.sharer_count(blk()), 2);
        // P2 wants exclusive.
        let a = d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(9),
                requester: ProcId(2),
            },
            &mut s,
        );
        let invs: Vec<ProcId> = to_proc(&a)
            .into_iter()
            .filter(|(_, p)| matches!(p, Payload::Inv { .. }))
            .map(|(p, _)| p)
            .collect();
        assert_eq!(invs, vec![ProcId(0), ProcId(1)]);
        assert!(a.contains(&DirAction::ReadDram { block: blk() }));
        // DRAM returns but acks still pending: no reply yet.
        assert!(d.dram_done(blk(), data(&[]), &mut s).is_empty());
        assert!(d.inv_ack(blk(), ProcId(0), &mut s).is_empty());
        let a = d.inv_ack(blk(), ProcId(1), &mut s);
        assert!(matches!(
            to_proc(&a)[..],
            [(ProcId(2), Payload::DataX { .. })]
        ));
        assert_eq!(d.sharer_count(blk()), 0);
        assert_eq!(s.invalidations_sent, 2);
    }

    #[test]
    fn upgrade_with_no_other_sharers_completes_instantly() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(0),
                requester: ProcId(3),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        let a = d.request(
            blk(),
            DirRequest::Upgrade {
                req: ReqId(1),
                requester: ProcId(3),
            },
            &mut s,
        );
        assert!(matches!(
            to_proc(&a)[..],
            [(ProcId(3), Payload::UpgradeAck { .. })]
        ));
        assert!(!d.is_busy(blk()));
    }

    #[test]
    fn upgrade_after_losing_copy_becomes_getx() {
        let (mut d, mut s) = dir();
        // P0 shares; P1 takes exclusive; P0's late upgrade must be a GetX.
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(1),
                requester: ProcId(1),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        d.inv_ack(blk(), ProcId(0), &mut s);
        // Now P0 upgrades: it is no longer a sharer → full write txn with
        // an intervention to P1.
        let a = d.request(
            blk(),
            DirRequest::Upgrade {
                req: ReqId(2),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert!(matches!(
            to_proc(&a)[..],
            [(
                ProcId(1),
                Payload::Intervention {
                    kind: InterventionKind::Exclusive,
                    ..
                }
            )]
        ));
        let a = d.intervention_reply(
            blk(),
            ProcId(1),
            InterventionResp::Dirty(data(&[(1, 7)])),
            &mut s,
        );
        // Dirty data goes back to memory and P0 gets DataX with it.
        assert!(matches!(a[0], DirAction::WriteDramBlock { .. }));
        match &a[1] {
            DirAction::ToProc {
                proc,
                payload: Payload::DataX { data, .. },
            } => {
                assert_eq!(*proc, ProcId(0));
                assert_eq!(data.word(1), 7);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn gets_on_exclusive_downgrades_owner() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        let a = d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(1),
            },
            &mut s,
        );
        assert!(matches!(
            to_proc(&a)[..],
            [(
                ProcId(0),
                Payload::Intervention {
                    kind: InterventionKind::Shared,
                    ..
                }
            )]
        ));
        let a = d.intervention_reply(
            blk(),
            ProcId(0),
            InterventionResp::Dirty(data(&[(0, 9)])),
            &mut s,
        );
        // Both the old owner and the reader end up sharers.
        assert!(a
            .iter()
            .any(|x| matches!(x, DirAction::WriteDramBlock { .. })));
        assert!(to_proc(&a)
            .iter()
            .any(|(p, pl)| *p == ProcId(1) && matches!(pl, Payload::DataS { .. })));
        assert_eq!(d.sharer_count(blk()), 2);
    }

    #[test]
    fn clean_owner_causes_memory_read() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[(2, 4)]), &mut s);
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(1),
            },
            &mut s,
        );
        let a = d.intervention_reply(blk(), ProcId(0), InterventionResp::Clean, &mut s);
        assert_eq!(a, vec![DirAction::ReadDram { block: blk() }]);
        let a = d.dram_done(blk(), data(&[(2, 4)]), &mut s);
        assert!(to_proc(&a)
            .iter()
            .any(|(p, pl)| *p == ProcId(1) && matches!(pl, Payload::DataS { .. })));
    }

    #[test]
    fn gone_owner_waits_for_writeback() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(1),
            },
            &mut s,
        );
        let a = d.intervention_reply(blk(), ProcId(0), InterventionResp::Gone, &mut s);
        assert!(a.is_empty());
        let a = d.writeback(blk(), ProcId(0), data(&[(3, 3)]), &mut s);
        assert!(to_proc(&a)
            .iter()
            .any(|(p, pl)| *p == ProcId(1) && matches!(pl, Payload::DataS { .. })));
    }

    #[test]
    fn writeback_arriving_before_gone_reply_also_works() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(1),
            },
            &mut s,
        );
        // Writeback crosses the intervention.
        let a = d.writeback(blk(), ProcId(0), data(&[(3, 3)]), &mut s);
        assert!(a.is_empty(), "still waiting for the intervention reply");
        let a = d.intervention_reply(blk(), ProcId(0), InterventionResp::Gone, &mut s);
        assert!(to_proc(&a)
            .iter()
            .any(|(p, pl)| *p == ProcId(1) && matches!(pl, Payload::DataS { .. })));
    }

    #[test]
    fn standalone_writeback_returns_block_to_memory() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        let a = d.writeback(blk(), ProcId(0), data(&[(0, 1)]), &mut s);
        assert!(matches!(a[..], [DirAction::WriteDramBlock { .. }]));
        // Next reader goes straight to memory.
        let a = d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(1),
            },
            &mut s,
        );
        assert_eq!(a, vec![DirAction::ReadDram { block: blk() }]);
    }

    #[test]
    fn requests_queue_behind_open_transaction() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        let a = d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(1),
            },
            &mut s,
        );
        assert!(a.is_empty());
        assert_eq!(d.queue_len(blk()), 1);
        assert_eq!(s.dir_queued, 1);
        // Completing the first drains the queue: the second starts its own
        // DRAM read.
        let a = d.dram_done(blk(), data(&[]), &mut s);
        assert!(to_proc(&a).iter().any(|(p, _)| *p == ProcId(0)));
        assert!(a.contains(&DirAction::ReadDram { block: blk() }));
        let a = d.dram_done(blk(), data(&[]), &mut s);
        assert!(to_proc(&a).iter().any(|(p, _)| *p == ProcId(1)));
        assert_eq!(d.sharer_count(blk()), 2);
    }

    #[test]
    fn fine_get_registers_amu_and_stays_open_until_complete() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(2);
        let a = d.request(blk(), DirRequest::FineGet { token: 7, addr: w }, &mut s);
        assert_eq!(a, vec![DirAction::ReadDram { block: blk() }]);
        let a = d.dram_done(blk(), data(&[(2, 41)]), &mut s);
        assert_eq!(
            a,
            vec![DirAction::FineValue {
                token: 7,
                addr: w,
                value: 41
            }]
        );
        assert!(d.is_busy(blk()), "fine txn stays open for the AMU");
        assert!(d.amu_shares(blk()));
        // AMU computes 41+1 and puts because its test matched.
        let a = d.fine_complete(blk(), Some((w, 42)), 0, &mut s);
        assert!(a.contains(&DirAction::WriteDramWord { addr: w, value: 42 }));
        assert!(!d.is_busy(blk()));
        assert_eq!(s.puts, 1);
        // No processor sharers yet → no word updates.
        assert_eq!(s.word_updates_sent, 0);
    }

    #[test]
    fn fine_put_updates_every_sharing_node_once() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(0);
        // Sharers: P0, P1 (node 0) and P2 (node 1).
        for p in [0u16, 1, 2] {
            d.request(
                blk(),
                DirRequest::GetS {
                    req: ReqId(p as u64),
                    requester: ProcId(p),
                },
                &mut s,
            );
            d.dram_done(blk(), data(&[]), &mut s);
        }
        // AMU joins via fine get.
        d.request(blk(), DirRequest::FineGet { token: 1, addr: w }, &mut s);
        d.dram_done(blk(), data(&[]), &mut s);
        let a = d.fine_complete(blk(), Some((w, 3)), 0, &mut s);
        let updates: Vec<NodeId> = a
            .iter()
            .filter_map(|x| match x {
                DirAction::WordUpdateToNode { node, value: 3, .. } => Some(*node),
                _ => None,
            })
            .collect();
        assert_eq!(
            updates,
            vec![NodeId(0), NodeId(1)],
            "one update per node, deduped"
        );
        assert_eq!(s.word_updates_sent, 2);
        // Sharers keep their copies: no invalidations.
        assert_eq!(s.invalidations_sent, 0);
        assert_eq!(d.sharer_count(blk()), 3);
    }

    #[test]
    fn getx_flushes_amu_before_granting_ownership() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(0);
        d.request(blk(), DirRequest::FineGet { token: 1, addr: w }, &mut s);
        d.dram_done(blk(), data(&[]), &mut s);
        d.fine_complete(blk(), None, 0, &mut s); // amo.inc mid-count: no put yet
        assert!(d.amu_shares(blk()));
        let a = d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(5),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert_eq!(a[0], DirAction::FlushAmu { block: blk() });
        assert!(!d.amu_shares(blk()));
        // Subsequent stale FinePut from the AMU is dropped.
        d.dram_done(blk(), data(&[]), &mut s);
        let a = d.request(
            blk(),
            DirRequest::FinePut {
                addr: w,
                value: 9,
                flow: 0,
            },
            &mut s,
        );
        assert!(a.is_empty(), "stale put dropped: {a:?}");
        assert_eq!(s.puts, 0);
    }

    #[test]
    fn upgrade_on_amu_shared_block_degrades_to_getx() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(0);
        // P0 holds the block Shared...
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        assert_eq!(d.sharer_count(blk()), 1);
        // ...and the AMU checks the word out (a silent amo.inc may now be
        // accumulating a value P0 has never seen).
        d.request(blk(), DirRequest::FineGet { token: 1, addr: w }, &mut s);
        d.dram_done(blk(), data(&[]), &mut s);
        d.fine_complete(blk(), None, 0, &mut s);
        assert!(d.amu_shares(blk()));
        // P0's upgrade must not be satisfied in place: the directory
        // degrades it to a full GetX, flushing the AMU and re-reading
        // memory so P0's fill carries the post-flush value.
        let a = d.request(
            blk(),
            DirRequest::Upgrade {
                req: ReqId(7),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert_eq!(a[0], DirAction::FlushAmu { block: blk() });
        assert!(
            a.contains(&DirAction::ReadDram { block: blk() }),
            "degraded upgrade must refetch memory: {a:?}"
        );
        assert!(!d.amu_shares(blk()));
        let a = d.dram_done(blk(), data(&[]), &mut s);
        assert!(
            a.iter().any(|x| matches!(
                x,
                DirAction::ToProc {
                    proc: ProcId(0),
                    payload: Payload::DataX { .. },
                }
            )),
            "requester must receive data, not a bare UpgradeAck: {a:?}"
        );
    }

    #[test]
    fn upgrade_queued_behind_fine_get_also_degrades() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(0);
        // P0 holds the block Shared.
        d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        // A fine get opens the block; P0's upgrade arrives while it is
        // open and queues.
        d.request(blk(), DirRequest::FineGet { token: 1, addr: w }, &mut s);
        d.dram_done(blk(), data(&[]), &mut s);
        d.request(
            blk(),
            DirRequest::Upgrade {
                req: ReqId(3),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert_eq!(d.queue_len(blk()), 1);
        // The AMU finishes with no put (a silent amo.inc). The pumped
        // upgrade must see amu_shared and degrade: flush + memory read,
        // not an instant UpgradeAck built on P0's stale copy.
        let a = d.fine_complete(blk(), None, 0, &mut s);
        assert!(
            a.contains(&DirAction::FlushAmu { block: blk() }),
            "pumped upgrade must flush the AMU: {a:?}"
        );
        assert!(
            a.contains(&DirAction::ReadDram { block: blk() }),
            "pumped upgrade must refetch memory: {a:?}"
        );
        assert!(!a.iter().any(|x| matches!(
            x,
            DirAction::ToProc {
                payload: Payload::UpgradeAck { .. },
                ..
            }
        )));
    }

    #[test]
    fn fine_get_queued_behind_getx_sees_fresh_data() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(0);
        // P0 takes exclusive ownership and dirties the word...
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        // ...the AMU's fine get queues behind nothing (block idle), but
        // must intervene on the owner and return the dirty value.
        let a = d.request(blk(), DirRequest::FineGet { token: 9, addr: w }, &mut s);
        assert!(matches!(
            to_proc(&a)[..],
            [(
                ProcId(0),
                Payload::Intervention {
                    kind: InterventionKind::Shared,
                    ..
                }
            )]
        ));
        let a = d.intervention_reply(
            blk(),
            ProcId(0),
            InterventionResp::Dirty(data(&[(0, 77)])),
            &mut s,
        );
        assert!(a.contains(&DirAction::FineValue {
            token: 9,
            addr: w,
            value: 77
        }));
        // Old owner stays a sharer; AMU registered.
        assert!(d.amu_shares(blk()));
        assert_eq!(d.sharer_count(blk()), 1);
        d.fine_complete(blk(), None, 0, &mut s);
        assert!(!d.is_busy(blk()));
    }

    #[test]
    fn requests_queued_behind_open_fine_transaction_drain_after_complete() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(0);
        d.request(blk(), DirRequest::FineGet { token: 1, addr: w }, &mut s);
        d.dram_done(blk(), data(&[]), &mut s);
        // The fine txn is open (waiting for the AMU); a processor GetS
        // must queue, not interleave.
        let a = d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(3),
                requester: ProcId(2),
            },
            &mut s,
        );
        assert!(a.is_empty());
        assert_eq!(d.queue_len(blk()), 1);
        // Completing the AMO drains the queue: the GetS starts its read.
        let a = d.fine_complete(blk(), Some((w, 5)), 0, &mut s);
        assert!(a.contains(&DirAction::ReadDram { block: blk() }));
        let a = d.dram_done(blk(), data(&[(0, 5)]), &mut s);
        assert!(to_proc(&a)
            .iter()
            .any(|(p, pl)| *p == ProcId(2) && matches!(pl, Payload::DataS { .. })));
    }

    #[test]
    fn fine_put_queued_behind_write_txn_is_dropped_as_stale() {
        let (mut d, mut s) = dir();
        let w = blk().word_addr(0);
        // AMU holds the word...
        d.request(blk(), DirRequest::FineGet { token: 1, addr: w }, &mut s);
        d.dram_done(blk(), data(&[]), &mut s);
        d.fine_complete(blk(), None, 0, &mut s);
        assert!(d.amu_shares(blk()));
        // ...P0's GetX opens a write txn (flushing the AMU) while the
        // AMU's put is already queued behind it.
        let a = d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(1),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert!(a.contains(&DirAction::FlushAmu { block: blk() }));
        let a = d.request(
            blk(),
            DirRequest::FinePut {
                addr: w,
                value: 3,
                flow: 0,
            },
            &mut s,
        );
        assert!(a.is_empty(), "queued behind the write");
        // Write completes; the stale put drains as a no-op.
        let a = d.dram_done(blk(), data(&[]), &mut s);
        assert!(to_proc(&a)
            .iter()
            .any(|(p, pl)| *p == ProcId(0) && matches!(pl, Payload::DataX { .. })));
        assert_eq!(s.puts, 0, "flushed AMU's put must be dropped");
        assert!(!d.is_busy(blk()));
    }

    #[test]
    fn interleaved_reads_and_writes_keep_directory_state_consistent() {
        let (mut d, mut s) = dir();
        // A stress script: readers and writers in a fixed order; at the
        // end the directory must settle to a consistent Shared state.
        for round in 0..3u64 {
            for p in [0u16, 1, 2] {
                d.request(
                    blk(),
                    DirRequest::GetS {
                        req: ReqId(round * 10 + p as u64),
                        requester: ProcId(p),
                    },
                    &mut s,
                );
                while d.is_busy(blk()) {
                    // The only possible pending action is the DRAM read
                    // of the head transaction.
                    let actions = d.dram_done(blk(), data(&[]), &mut s);
                    // Drain interventions/invalidations synchronously.
                    for act in actions {
                        if let DirAction::ToProc { proc, payload } = act {
                            match payload {
                                Payload::Inv { .. } => {
                                    d.inv_ack(blk(), proc, &mut s);
                                }
                                Payload::Intervention { .. } => {
                                    d.intervention_reply(
                                        blk(),
                                        proc,
                                        InterventionResp::Clean,
                                        &mut s,
                                    );
                                }
                                _ => {}
                            }
                        }
                    }
                }
            }
        }
        assert_eq!(d.sharer_count(blk()), 3);
        assert!(!d.is_busy(blk()));
        assert_eq!(d.queue_len(blk()), 0);
    }

    #[test]
    fn owner_rerequest_waits_for_its_own_writeback() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        // P0 evicts (writeback in flight) and immediately re-requests.
        let a = d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(1),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert!(a.is_empty(), "must wait for the writeback");
        let a = d.writeback(blk(), ProcId(0), data(&[(0, 8)]), &mut s);
        match to_proc(&a)[..] {
            [(ProcId(0), Payload::DataX { data, .. })] => assert_eq!(data.word(0), 8),
            ref other => panic!("unexpected {other:?}"),
        }
    }

    /// The read form of the race above: an owner that evicted the block
    /// and reads it again before its writeback lands is served the
    /// written-back data, not a stale memory copy.
    #[test]
    fn owner_reread_waits_for_its_own_writeback() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(0),
                requester: ProcId(0),
            },
            &mut s,
        );
        d.dram_done(blk(), data(&[]), &mut s);
        let a = d.request(
            blk(),
            DirRequest::GetS {
                req: ReqId(1),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert!(a.is_empty(), "must wait for the writeback");
        assert_eq!(s.dram_reads, 1, "no memory read for a stale copy");
        let a = d.writeback(blk(), ProcId(0), data(&[(0, 8)]), &mut s);
        match to_proc(&a)[..] {
            [(ProcId(0), Payload::DataS { data, .. })] => assert_eq!(data.word(0), 8),
            ref other => panic!("unexpected {other:?}"),
        }
        assert!(!d.is_busy(blk()));
    }

    #[test]
    fn dup_guard_off_keeps_strict_behaviour() {
        let (mut d, mut s) = dir();
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(1),
                requester: ProcId(0),
            },
            &mut s,
        );
        // A re-received request queues like any other: coherence
        // requests ride the reliable channel, so a duplicate is a
        // protocol bug the run should surface, not swallow.
        d.request(
            blk(),
            DirRequest::GetX {
                req: ReqId(1),
                requester: ProcId(0),
            },
            &mut s,
        );
        assert_eq!(d.queue_len(blk()), 1);
        assert_eq!(s.dup_suppressed, 0);
    }
}
