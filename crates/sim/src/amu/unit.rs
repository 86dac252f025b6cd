//! AMU state machine.

use amo_types::{Addr, AmoKind, BlockAddr, Cycle, Payload, ProcId, ReqId, Stats, Word};
use std::collections::VecDeque;

/// A command submitted to the AMU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmuOp {
    /// Coherent active memory operation.
    Amo {
        /// Request tag for the reply.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Operation.
        kind: AmoKind,
        /// Target word.
        addr: Addr,
        /// Operand (`FetchAdd`).
        operand: Word,
        /// Delayed-put trigger: put when the result equals this.
        test: Option<Word>,
    },
    /// Uncached memory-side atomic (the MAO baseline).
    Mao {
        /// Request tag for the reply.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Operation.
        kind: AmoKind,
        /// Target word (uncached space by software convention).
        addr: Addr,
        /// Operand.
        operand: Word,
    },
    /// Uncached word read (MAO-style remote spinning).
    UncachedRead {
        /// Request tag for the reply.
        req: ReqId,
        /// Requesting processor.
        requester: ProcId,
        /// Target word.
        addr: Addr,
    },
}

/// Side effects the hub must execute. Timestamped effects are scheduled;
/// immediate ones are executed on the spot.
#[derive(Clone, Debug, PartialEq)]
pub enum AmuEffect {
    /// Send a reply to a processor at `when` (compute latency included).
    ReplyAt {
        /// Completion time.
        when: Cycle,
        /// Destination processor.
        proc: ProcId,
        /// Reply payload.
        payload: Payload,
    },
    /// Issue a fine-grained get to the local directory for `addr`,
    /// tagged with `token`. Feed the result to [`Amu::fine_value_into`].
    FineGet {
        /// Token to echo.
        token: u64,
        /// Word to fetch coherently.
        addr: Addr,
        /// Causal flow of the operation that missed (`ReqId::flow`).
        flow: u64,
    },
    /// Issue a fine-grained put (cache-hit path or dirty eviction).
    FinePut {
        /// Word to write back.
        addr: Addr,
        /// Value.
        value: Word,
        /// Causal flow of the triggering operation (`ReqId::flow`; 0
        /// for background dirty evictions, which belong to no request).
        flow: u64,
    },
    /// Close the directory's open fine-get transaction for `block`,
    /// performing `put` as part of it.
    FineComplete {
        /// Block whose fine transaction closes.
        block: BlockAddr,
        /// Optional immediate put.
        put: Option<(Addr, Word)>,
        /// Causal flow of the operation that opened the transaction.
        flow: u64,
    },
    /// Read a word from (uncached) home memory; feed the result to
    /// `Amu::mem_value_into`.
    ReadMemWord {
        /// Token to echo.
        token: u64,
        /// Word to read.
        addr: Addr,
    },
    /// Write a word straight to home memory (MAO write-through path).
    WriteMemWord {
        /// Word to write.
        addr: Addr,
        /// Value.
        value: Word,
    },
    /// The AMU wants [`Amu::advance_into`] called at `when` to start its next
    /// queued command.
    WakeAt {
        /// Wake-up time.
        when: Cycle,
    },
}

/// A protocol violation observed by the AMU: the hub fed it a value it
/// was not waiting for. These used to be `panic!`s; they are now typed
/// so a poisoned run can report instead of aborting the process.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AmuError {
    /// A fine-get or memory value arrived while the AMU was idle/busy.
    NotWaiting {
        /// Token the stray value carried.
        token: u64,
    },
    /// The delivered token does not match the outstanding one.
    TokenMismatch {
        /// Token the AMU is waiting on.
        expected: u64,
        /// Token that arrived.
        got: u64,
    },
    /// The value kind does not fit the waiting operation (e.g. a
    /// fine-get result for a MAO).
    WrongOp {
        /// Token of the waiting operation.
        token: u64,
    },
    /// A fine-get result named a different address than the waiting AMO.
    AddrMismatch {
        /// Address the waiting operation targets.
        expected: Addr,
        /// Address the value claims.
        got: Addr,
    },
}

impl std::fmt::Display for AmuError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AmuError::NotWaiting { token } => {
                write!(f, "value with token {token} arrived while not waiting")
            }
            AmuError::TokenMismatch { expected, got } => {
                write!(f, "token mismatch: waiting on {expected}, got {got}")
            }
            AmuError::WrongOp { token } => {
                write!(f, "value kind does not match waiting op (token {token})")
            }
            AmuError::AddrMismatch { expected, got } => {
                write!(f, "address mismatch: waiting on {expected:?}, got {got:?}")
            }
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct CacheEntry {
    addr: Addr,
    value: Word,
    /// Not yet put back (a delayed `amo.inc` mid-count).
    dirty: bool,
    lru: u64,
}

#[derive(Clone, Copy, Debug)]
enum State {
    Idle,
    /// Function unit busy until the given cycle.
    Busy(Cycle),
    /// Waiting for a fine-get or memory read tagged with the token.
    Waiting {
        token: u64,
        op: AmuOp,
    },
}

/// Identity of an AMU command for at-most-once dedup: the request tag
/// plus its requester (tags are per-processor, so the pair is unique
/// machine-wide).
fn op_tag(op: &AmuOp) -> (ReqId, ProcId) {
    match *op {
        AmuOp::Amo { req, requester, .. }
        | AmuOp::Mao { req, requester, .. }
        | AmuOp::UncachedRead { req, requester, .. } => (req, requester),
    }
}

/// One node's Active Memory Unit.
pub struct Amu {
    cache: Vec<CacheEntry>,
    cache_words: usize,
    op_latency: Cycle,
    line_bytes: u64,
    queue: VecDeque<AmuOp>,
    queue_cap: usize,
    state: State,
    tick: u64,
    next_token: u64,
    /// The last reply served to each requester — the at-most-once
    /// table consulted on submit when delivery faults can retransmit
    /// an already-applied request. Keyed **per requester**: a
    /// processor has at most one retransmittable request outstanding
    /// and its tags are monotone, so one cached reply per requester is
    /// exact — a retransmission matches the slot (replay the reply)
    /// while anything older than the slot is a floating duplicate
    /// whose reply was already consumed (swallow). An operation-count
    /// FIFO cannot provide this guarantee: under load, more ops than
    /// the window holds complete within one end-to-end backoff
    /// interval, the entry ages out, and the retransmission re-applies
    /// (observed as a double fetch-and-add corrupting a 64-proc
    /// barrier at 1000 ppm drop). LRU-bounded to `served_cap` distinct
    /// requesters; capacity 0 = dedup off (the default; clean runs pay
    /// nothing).
    served: VecDeque<(ProcId, ReqId, Payload)>,
    served_cap: usize,
    /// When [`Self::set_log_applies`] is on, every *true* apply of an
    /// AMO/MAO — never a dedup-suppressed replay — is recorded here as
    /// `(request, requester, address, pre-apply value)` for the machine
    /// to drain into the trace stream. Off (and unallocated) by
    /// default, so untraced runs pay nothing.
    apply_log: Vec<(ReqId, ProcId, Addr, Word)>,
    log_applies: bool,
    /// Test-only planted bug: when set, the dedup-replay path *also*
    /// logs an apply record, making the at-most-once monitor see a
    /// double apply on any schedule that retransmits a completed
    /// request. The protocol state itself is untouched — only the
    /// observation stream lies — so this exercises the monitors and
    /// explorer without corrupting unrelated invariants.
    planted_double_apply: bool,
}

impl Amu {
    /// Build an AMU. `op_latency` is in CPU cycles (the paper's 2 hub
    /// cycles × the hub clock divisor); `line_bytes` is the coherence
    /// block size (used to map words to directory blocks).
    pub fn new(cache_words: usize, op_latency: Cycle, queue_cap: usize, line_bytes: u64) -> Self {
        assert!(cache_words >= 1);
        Amu {
            cache: Vec::with_capacity(cache_words),
            cache_words,
            op_latency,
            line_bytes,
            queue: VecDeque::new(),
            queue_cap,
            state: State::Idle,
            tick: 0,
            next_token: 0,
            served: VecDeque::new(),
            served_cap: 0,
            apply_log: Vec::new(),
            log_applies: false,
            planted_double_apply: false,
        }
    }

    /// Record true applies for the trace stream (see `apply_log`).
    pub(crate) fn set_log_applies(&mut self, on: bool) {
        self.log_applies = on;
    }

    /// Plant the observation-stream double-apply bug (test hook; see
    /// `planted_double_apply`).
    pub(crate) fn plant_double_apply(&mut self) {
        self.planted_double_apply = true;
    }

    /// Drain recorded applies (request, requester, address, pre-apply
    /// value) into `out`, oldest first.
    pub(crate) fn drain_applies_into(&mut self, out: &mut Vec<(ReqId, ProcId, Addr, Word)>) {
        out.append(&mut self.apply_log);
    }

    #[inline]
    fn log_apply(&mut self, req: ReqId, proc: ProcId, addr: Addr, pre: Word) {
        if self.log_applies {
            self.apply_log.push((req, proc, addr, pre));
        }
    }

    /// Enable at-most-once duplicate suppression: remember the last
    /// reply served to each of up to `window` distinct requesters, so
    /// a retransmitted command that already executed re-emits its
    /// cached reply instead of applying twice. Used when delivery
    /// faults (drop/dup/reorder) are enabled; a window of 0 disables
    /// dedup. Suppression is exact while `window` covers every
    /// processor that can issue faultable requests to this node.
    pub(crate) fn with_dedup(mut self, window: u32) -> Self {
        self.served_cap = window as usize;
        self
    }

    /// Record a completed request's reply in the requester's dedup
    /// slot (allocating one, LRU-evicting if the table is full).
    fn record_served(&mut self, proc: ProcId, payload: &Payload) {
        if self.served_cap == 0 {
            return;
        }
        let req = match *payload {
            Payload::AmoReply { req, .. }
            | Payload::MaoReply { req, .. }
            | Payload::UncachedReadReply { req, .. } => req,
            _ => return,
        };
        if let Some(idx) = self.served.iter().position(|(p, ..)| *p == proc) {
            self.served.remove(idx);
        } else if self.served.len() == self.served_cap {
            self.served.pop_front();
        }
        self.served.push_back((proc, req, payload.clone()));
    }

    /// Emit a reply, recording it in the dedup window first.
    fn reply_at(
        &mut self,
        when: Cycle,
        proc: ProcId,
        payload: Payload,
        effects: &mut Vec<AmuEffect>,
    ) {
        self.record_served(proc, &payload);
        effects.push(AmuEffect::ReplyAt {
            when,
            proc,
            payload,
        });
    }

    fn lookup(&mut self, addr: Addr) -> Option<usize> {
        self.tick += 1;
        let tick = self.tick;
        let idx = self.cache.iter().position(|e| e.addr == addr)?;
        self.cache[idx].lru = tick;
        Some(idx)
    }

    /// Install a word (clean); evicting the LRU entry if full. A dirty
    /// victim produces a put.
    fn install(
        &mut self,
        addr: Addr,
        value: Word,
        stats: &mut Stats,
        effects: &mut Vec<AmuEffect>,
    ) -> usize {
        self.tick += 1;
        let tick = self.tick;
        if let Some(idx) = self.cache.iter().position(|e| e.addr == addr) {
            self.cache[idx] = CacheEntry {
                addr,
                value,
                dirty: false,
                lru: tick,
            };
            return idx;
        }
        if self.cache.len() == self.cache_words {
            let victim = self
                .cache
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.lru)
                .map(|(i, _)| i)
                .expect("full cache has victim");
            let v = self.cache.swap_remove(victim);
            stats.amu_evictions += 1;
            if v.dirty {
                effects.push(AmuEffect::FinePut {
                    addr: v.addr,
                    value: v.value,
                    flow: 0,
                });
            }
        }
        self.cache.push(CacheEntry {
            addr,
            value,
            dirty: false,
            lru: tick,
        });
        self.cache.len() - 1
    }

    /// Submit a command at time `now`. Returns false (and drops the
    /// command) if the dispatch queue is full.
    /// Effects are appended to `effects`.
    pub fn submit_into(
        &mut self,
        op: AmuOp,
        now: Cycle,
        stats: &mut Stats,
        effects: &mut Vec<AmuEffect>,
    ) -> bool {
        if self.served_cap > 0 {
            let (req, requester) = op_tag(&op);
            match self.served.iter().find(|(p, ..)| *p == requester) {
                // Already executed: re-emit the cached reply (the
                // original one may have been dropped in flight)
                // without re-applying.
                Some((_, served, payload)) if *served == req => {
                    stats.dup_suppressed += 1;
                    let payload = payload.clone();
                    if self.planted_double_apply {
                        // Planted bug: report the replay as if it were a
                        // fresh apply (see `planted_double_apply`).
                        let addr = match op {
                            AmuOp::Amo { addr, .. }
                            | AmuOp::Mao { addr, .. }
                            | AmuOp::UncachedRead { addr, .. } => addr,
                        };
                        self.log_apply(req, requester, addr, 0);
                    }
                    effects.push(AmuEffect::ReplyAt {
                        when: now + self.op_latency,
                        proc: requester,
                        payload,
                    });
                    return true;
                }
                // Older than the requester's last served tag: the
                // requester has since issued newer requests, so the
                // original reply was delivered and this copy is a
                // floating duplicate — swallow it.
                Some((_, served, _)) if served.0 > req.0 => {
                    stats.dup_suppressed += 1;
                    return true;
                }
                _ => {}
            }
            let tag = (req, requester);
            // Already queued or executing: the first copy will reply;
            // swallow this one.
            let pending = self.queue.iter().any(|q| op_tag(q) == tag)
                || matches!(self.state, State::Waiting { op: w, .. } if op_tag(&w) == tag);
            if pending {
                stats.dup_suppressed += 1;
                return true;
            }
        }
        if self.queue.len() >= self.queue_cap {
            return false;
        }
        self.queue.push_back(op);
        if matches!(self.state, State::Idle) {
            self.try_start(now, stats, effects);
        }
        true
    }

    /// The function unit finished a computation (scheduled via
    /// [`AmuEffect::WakeAt`]); start the next queued command if any.
    /// Effects are appended to `effects`.
    pub fn advance_into(&mut self, now: Cycle, stats: &mut Stats, effects: &mut Vec<AmuEffect>) {
        if let State::Busy(until) = self.state {
            if now >= until {
                self.state = State::Idle;
            }
        }
        if matches!(self.state, State::Idle) {
            self.try_start(now, stats, effects);
        }
    }

    /// Start the next queued command: run it on a cached word, or fetch
    /// the word (a fine get for an AMO, a memory read otherwise) and run
    /// it when the value arrives.
    fn try_start(&mut self, now: Cycle, stats: &mut Stats, effects: &mut Vec<AmuEffect>) {
        let Some(op) = self.queue.pop_front() else {
            return;
        };
        let (addr, counted) = match op {
            AmuOp::Amo { addr, .. } => {
                stats.amo_ops += 1;
                (addr, true)
            }
            AmuOp::Mao { addr, .. } => {
                stats.mao_ops += 1;
                (addr, true)
            }
            AmuOp::UncachedRead { addr, .. } => (addr, false),
        };
        match self.lookup(addr) {
            Some(idx) => {
                stats.amu_hits += counted as u64;
                self.execute(op, Some(idx), self.cache[idx].value, false, now, effects);
            }
            None => {
                stats.amu_misses += counted as u64;
                let token = self.next_token;
                self.next_token += 1;
                self.state = State::Waiting { token, op };
                effects.push(match op {
                    AmuOp::Amo { req, .. } => AmuEffect::FineGet {
                        token,
                        addr,
                        flow: req.flow(),
                    },
                    _ => AmuEffect::ReadMemWord { token, addr },
                });
            }
        }
    }

    /// Run `op` on `old`, the word at cache entry `idx` (`None` only for
    /// an uncached-read miss, which allocates no entry); `fetched` says a
    /// fine get brought it in, so an AMO's put closes that transaction.
    /// Emits the put or write-through, the reply and the wake, and keeps
    /// the function unit busy for the operation latency.
    fn execute(
        &mut self,
        op: AmuOp,
        idx: Option<usize>,
        old: Word,
        fetched: bool,
        now: Cycle,
        effects: &mut Vec<AmuEffect>,
    ) {
        let done = now + self.op_latency;
        let (requester, payload) = match op {
            AmuOp::Amo {
                req,
                requester,
                kind,
                addr,
                operand,
                test,
            } => {
                let new = kind.apply(old, operand);
                let put = Self::should_put(kind, test, old, new);
                let entry = &mut self.cache[idx.expect("an AMO runs on a cached word")];
                entry.value = new;
                entry.dirty = !put;
                self.log_apply(req, requester, addr, old);
                let flow = req.flow();
                if fetched {
                    effects.push(AmuEffect::FineComplete {
                        block: addr.block(self.line_bytes),
                        put: put.then_some((addr, new)),
                        flow,
                    });
                } else if put {
                    effects.push(AmuEffect::FinePut {
                        addr,
                        value: new,
                        flow,
                    });
                }
                (requester, Payload::AmoReply { req, old })
            }
            AmuOp::Mao {
                req,
                requester,
                kind,
                addr,
                operand,
            } => {
                let new = kind.apply(old, operand);
                self.cache[idx.expect("a MAO runs on a cached word")].value = new;
                self.log_apply(req, requester, addr, old);
                // MAO is non-coherent: write through to memory, nobody is
                // updated or invalidated.
                effects.push(AmuEffect::WriteMemWord { addr, value: new });
                (requester, Payload::MaoReply { req, old })
            }
            AmuOp::UncachedRead { req, requester, .. } => {
                (requester, Payload::UncachedReadReply { req, value: old })
            }
        };
        self.reply_at(done, requester, payload, effects);
        self.state = State::Busy(done);
        effects.push(AmuEffect::WakeAt { when: done });
    }

    fn should_put(kind: AmoKind, test: Option<Word>, old: Word, new: Word) -> bool {
        match test {
            // The delayed update: put only when the result reaches the
            // test value.
            Some(t) => new == t,
            // Without a test, the kind's default applies: amo.inc
            // accumulates silently, everything else publishes any change
            // immediately (the paper's amo.fetchadd behaviour).
            None => kind.eager_put(old, new),
        }
    }

    /// The operation waiting on `token`'s value.
    fn waiting(&self, token: u64) -> Result<AmuOp, AmuError> {
        match self.state {
            State::Waiting { token: t, op } if t == token => Ok(op),
            State::Waiting { token: t, .. } => Err(AmuError::TokenMismatch {
                expected: t,
                got: token,
            }),
            _ => Err(AmuError::NotWaiting { token }),
        }
    }

    /// A fine-grained get completed: the directory delivered the coherent
    /// word. Computes the waiting operation and closes the transaction.
    /// Effects are appended to `effects`.
    pub fn fine_value_into(
        &mut self,
        token: u64,
        addr: Addr,
        value: Word,
        now: Cycle,
        stats: &mut Stats,
        effects: &mut Vec<AmuEffect>,
    ) -> Result<(), AmuError> {
        let op = self.waiting(token)?;
        let AmuOp::Amo { addr: expected, .. } = op else {
            return Err(AmuError::WrongOp { token });
        };
        if addr != expected {
            return Err(AmuError::AddrMismatch {
                expected,
                got: addr,
            });
        }
        let idx = self.install(addr, value, stats, effects);
        self.execute(op, Some(idx), value, true, now, effects);
        Ok(())
    }

    /// An uncached memory read completed (MAO / uncached-read miss path).
    /// Effects are appended to `effects`.
    pub(crate) fn mem_value_into(
        &mut self,
        token: u64,
        value: Word,
        now: Cycle,
        stats: &mut Stats,
        effects: &mut Vec<AmuEffect>,
    ) -> Result<(), AmuError> {
        let op = self.waiting(token)?;
        let idx = match op {
            AmuOp::Amo { .. } => return Err(AmuError::WrongOp { token }),
            AmuOp::Mao { addr, .. } => Some(self.install(addr, value, stats, effects)),
            AmuOp::UncachedRead { .. } => None,
        };
        self.execute(op, idx, value, true, now, effects);
        Ok(())
    }

    /// The directory granted someone exclusive ownership of `block`: drop
    /// every cached word of it, returning the dirty ones so the hub can
    /// write them into home memory before the grant proceeds.
    pub fn flush_block(&mut self, block: BlockAddr) -> Vec<(Addr, Word)> {
        let line = self.line_bytes;
        let mut dirty = Vec::new();
        self.cache.retain(|e| {
            if e.addr.block(line) == block {
                if e.dirty {
                    dirty.push((e.addr, e.value));
                }
                false
            } else {
                true
            }
        });
        dirty
    }

    /// Number of cached words.
    #[cfg(test)]
    fn cached_words(&self) -> usize {
        self.cache.len()
    }

    /// Operations waiting in the input queue, excluding the one in
    /// flight (observability sampling).
    pub(crate) fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Current cached value of `addr`, if present (diagnostics/tests).
    #[cfg(test)]
    pub(crate) fn peek(&self, addr: Addr) -> Option<Word> {
        self.cache.iter().find(|e| e.addr == addr).map(|e| e.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::NodeId;

    /// Collecting forms of the `*_into` entry points, so a test can match
    /// on what one call produced.
    impl Amu {
        fn submit(&mut self, op: AmuOp, now: Cycle, stats: &mut Stats) -> (bool, Vec<AmuEffect>) {
            let mut effects = Vec::new();
            let ok = self.submit_into(op, now, stats, &mut effects);
            (ok, effects)
        }

        fn advance(&mut self, now: Cycle, stats: &mut Stats) -> Vec<AmuEffect> {
            let mut effects = Vec::new();
            self.advance_into(now, stats, &mut effects);
            effects
        }

        fn fine_value(
            &mut self,
            token: u64,
            addr: Addr,
            value: Word,
            now: Cycle,
            stats: &mut Stats,
        ) -> Result<Vec<AmuEffect>, AmuError> {
            let mut effects = Vec::new();
            self.fine_value_into(token, addr, value, now, stats, &mut effects)?;
            Ok(effects)
        }

        fn mem_value(
            &mut self,
            token: u64,
            value: Word,
            now: Cycle,
            stats: &mut Stats,
        ) -> Result<Vec<AmuEffect>, AmuError> {
            let mut effects = Vec::new();
            self.mem_value_into(token, value, now, stats, &mut effects)?;
            Ok(effects)
        }
    }

    const LAT: Cycle = 8; // 2 hub cycles x 4

    fn amu() -> (Amu, Stats) {
        (Amu::new(8, LAT, 64, 128), Stats::new())
    }

    fn w(off: u64) -> Addr {
        Addr::on_node(NodeId(0), 0x1000 + off * 8)
    }

    fn amo_inc(req: u64, p: u16, addr: Addr, test: Option<Word>) -> AmuOp {
        AmuOp::Amo {
            req: ReqId(req),
            requester: ProcId(p),
            kind: AmoKind::Inc,
            addr,
            operand: 0,
            test,
        }
    }

    #[test]
    fn miss_then_hits() {
        let (mut a, mut s) = amu();
        let (ok, eff) = a.submit(amo_inc(1, 0, w(0), Some(3)), 100, &mut s);
        assert!(ok);
        assert_eq!(
            eff,
            vec![AmuEffect::FineGet {
                token: 0,
                addr: w(0),
                flow: 1
            }]
        );
        // Directory returns 0; inc → 1, test=3 not reached: no put.
        let eff = a.fine_value(0, w(0), 0, 200, &mut s).unwrap();
        assert!(eff
            .iter()
            .any(|e| matches!(e, AmuEffect::FineComplete { put: None, .. })));
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                when: 208,
                payload: Payload::AmoReply { old: 0, .. },
                ..
            }
        )));
        assert_eq!(a.peek(w(0)), Some(1));
        assert_eq!(s.amu_misses, 1);

        // Second op hits (after the WakeAt(208) the hub would deliver).
        a.advance(208, &mut s);
        let (_, eff) = a.submit(amo_inc(2, 1, w(0), Some(3)), 300, &mut s);
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                when: 308,
                payload: Payload::AmoReply { old: 1, .. },
                ..
            }
        )));
        assert_eq!(s.amu_hits, 1);
        assert_eq!(a.peek(w(0)), Some(2));
    }

    #[test]
    fn test_value_triggers_put_exactly_at_target() {
        let (mut a, mut s) = amu();
        a.submit(amo_inc(1, 0, w(0), Some(3)), 0, &mut s);
        a.fine_value(0, w(0), 0, 10, &mut s).unwrap(); // -> 1
        a.advance(18, &mut s);
        let (_, eff) = a.submit(amo_inc(2, 1, w(0), Some(3)), 20, &mut s); // -> 2
        assert!(!eff.iter().any(|e| matches!(e, AmuEffect::FinePut { .. })));
        a.advance(28, &mut s);
        let (_, eff) = a.submit(amo_inc(3, 2, w(0), Some(3)), 30, &mut s); // -> 3: put!
        assert!(eff.contains(&AmuEffect::FinePut {
            addr: w(0),
            value: 3,
            flow: 3
        }));
        assert_eq!(a.peek(w(0)), Some(3));
    }

    #[test]
    fn fetchadd_without_test_puts_every_time() {
        let (mut a, mut s) = amu();
        let op = AmuOp::Amo {
            req: ReqId(1),
            requester: ProcId(0),
            kind: AmoKind::FetchAdd,
            addr: w(1),
            operand: 5,
            test: None,
        };
        a.submit(op, 0, &mut s);
        let eff = a.fine_value(0, w(1), 10, 50, &mut s).unwrap();
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::FineComplete {
                put: Some((_, 15)),
                ..
            }
        )));
    }

    #[test]
    fn queue_serializes_ops() {
        let (mut a, mut s) = amu();
        // Prime the cache.
        a.submit(amo_inc(1, 0, w(0), None), 0, &mut s);
        a.fine_value(0, w(0), 0, 10, &mut s).unwrap(); // busy until 18
                                                       // Two more arrive while busy: queued.
        let (_, eff) = a.submit(amo_inc(2, 1, w(0), None), 12, &mut s);
        assert!(eff.is_empty());
        let (_, eff) = a.submit(amo_inc(3, 2, w(0), None), 13, &mut s);
        assert!(eff.is_empty());
        // Wake at 18: op 2 computes 18..26.
        let eff = a.advance(18, &mut s);
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                when: 26,
                payload: Payload::AmoReply { old: 1, .. },
                ..
            }
        )));
        let eff = a.advance(26, &mut s);
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                when: 34,
                payload: Payload::AmoReply { old: 2, .. },
                ..
            }
        )));
        assert_eq!(a.peek(w(0)), Some(3));
    }

    #[test]
    fn mao_writes_through_without_puts() {
        let (mut a, mut s) = amu();
        let op = AmuOp::Mao {
            req: ReqId(1),
            requester: ProcId(0),
            kind: AmoKind::FetchAdd,
            addr: w(2),
            operand: 1,
        };
        let (_, eff) = a.submit(op, 0, &mut s);
        assert_eq!(
            eff,
            vec![AmuEffect::ReadMemWord {
                token: 0,
                addr: w(2)
            }]
        );
        let eff = a.mem_value(0, 7, 20, &mut s).unwrap();
        assert!(eff.contains(&AmuEffect::WriteMemWord {
            addr: w(2),
            value: 8
        }));
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                payload: Payload::MaoReply { old: 7, .. },
                ..
            }
        )));
        assert!(!eff.iter().any(|e| matches!(
            e,
            AmuEffect::FinePut { .. } | AmuEffect::FineComplete { .. }
        )));
        assert_eq!(s.mao_ops, 1);
    }

    #[test]
    fn uncached_read_does_not_allocate() {
        let (mut a, mut s) = amu();
        let op = AmuOp::UncachedRead {
            req: ReqId(1),
            requester: ProcId(0),
            addr: w(3),
        };
        let (_, eff) = a.submit(op, 0, &mut s);
        assert_eq!(
            eff,
            vec![AmuEffect::ReadMemWord {
                token: 0,
                addr: w(3)
            }]
        );
        let eff = a.mem_value(0, 42, 10, &mut s).unwrap();
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                payload: Payload::UncachedReadReply { value: 42, .. },
                ..
            }
        )));
        assert_eq!(a.cached_words(), 0);
    }

    #[test]
    fn uncached_read_hits_amu_cache() {
        let (mut a, mut s) = amu();
        // MAO allocates the word.
        a.submit(
            AmuOp::Mao {
                req: ReqId(1),
                requester: ProcId(0),
                kind: AmoKind::Inc,
                addr: w(4),
                operand: 0,
            },
            0,
            &mut s,
        );
        a.mem_value(0, 0, 10, &mut s).unwrap(); // value now 1
        a.advance(18, &mut s);
        let (_, eff) = a.submit(
            AmuOp::UncachedRead {
                req: ReqId(2),
                requester: ProcId(1),
                addr: w(4),
            },
            20,
            &mut s,
        );
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                payload: Payload::UncachedReadReply { value: 1, .. },
                ..
            }
        )));
    }

    #[test]
    fn flush_returns_dirty_words_and_drops_block() {
        let (mut a, mut s) = amu();
        a.submit(amo_inc(1, 0, w(0), None), 0, &mut s);
        a.fine_value(0, w(0), 5, 10, &mut s).unwrap(); // 6, dirty (no test)
        let flushed = a.flush_block(w(0).block(128));
        assert_eq!(flushed, vec![(w(0), 6)]);
        assert_eq!(a.cached_words(), 0);
        // Clean words flush silently.
        a.advance(18, &mut s);
        a.submit(
            AmuOp::Amo {
                req: ReqId(2),
                requester: ProcId(0),
                kind: AmoKind::FetchAdd,
                addr: w(1),
                operand: 1,
                test: None,
            },
            20,
            &mut s,
        );
        a.fine_value(1, w(1), 0, 30, &mut s).unwrap(); // put issued → clean
        let flushed = a.flush_block(w(1).block(128));
        assert!(flushed.is_empty());
    }

    #[test]
    fn eviction_of_dirty_word_forces_put() {
        let (mut a, mut s) = amu();
        let mut t = 0u64;
        // Fill all 8 slots with dirty words (inc without test).
        for i in 0..8u64 {
            // Each word in a different block so flushes don't interfere.
            let addr = Addr::on_node(NodeId(0), 0x10000 + i * 256);
            a.submit(amo_inc(i, 0, addr, None), t, &mut s);
            let eff = a.fine_value(i, addr, 0, t + 10, &mut s).unwrap();
            assert!(!eff.iter().any(|e| matches!(e, AmuEffect::FinePut { .. })));
            t += 100;
            a.advance(t, &mut s);
        }
        assert_eq!(a.cached_words(), 8);
        // A ninth word evicts the LRU (the first).
        let ninth = Addr::on_node(NodeId(0), 0x20000);
        a.submit(amo_inc(99, 0, ninth, None), t, &mut s);
        let eff = a.fine_value(8, ninth, 0, t + 10, &mut s).unwrap();
        let first = Addr::on_node(NodeId(0), 0x10000);
        assert!(eff.contains(&AmuEffect::FinePut {
            addr: first,
            value: 1,
            flow: 0
        }));
        assert_eq!(s.amu_evictions, 1);
    }

    #[test]
    fn stray_values_report_typed_errors() {
        let (mut a, mut s) = amu();
        // Idle AMU: any value is a protocol violation, not a panic.
        assert_eq!(
            a.fine_value(0, w(0), 0, 10, &mut s).unwrap_err(),
            AmuError::NotWaiting { token: 0 }
        );
        assert_eq!(
            a.mem_value(3, 0, 10, &mut s).unwrap_err(),
            AmuError::NotWaiting { token: 3 }
        );
        // Waiting on a fine get (token 0): wrong token / kind / address.
        a.submit(amo_inc(1, 0, w(0), None), 0, &mut s);
        assert_eq!(
            a.fine_value(9, w(0), 0, 10, &mut s).unwrap_err(),
            AmuError::TokenMismatch {
                expected: 0,
                got: 9
            }
        );
        assert_eq!(
            a.mem_value(0, 0, 10, &mut s).unwrap_err(),
            AmuError::WrongOp { token: 0 }
        );
        assert_eq!(
            a.fine_value(0, w(5), 0, 10, &mut s).unwrap_err(),
            AmuError::AddrMismatch {
                expected: w(0),
                got: w(5)
            }
        );
        // The AMU is still intact: the correct value completes the op.
        let eff = a.fine_value(0, w(0), 0, 20, &mut s).unwrap();
        assert!(eff.iter().any(|e| matches!(e, AmuEffect::ReplyAt { .. })));
    }

    #[test]
    fn dedup_window_replays_cached_reply_without_reapplying() {
        let mut s = Stats::new();
        let mut a = Amu::new(8, LAT, 64, 128).with_dedup(4);
        // Execute a fetch-add to completion.
        let op = AmuOp::Amo {
            req: ReqId(7),
            requester: ProcId(2),
            kind: AmoKind::FetchAdd,
            addr: w(0),
            operand: 5,
            test: None,
        };
        a.submit(op, 0, &mut s);
        a.fine_value(0, w(0), 10, 10, &mut s).unwrap(); // 10 -> 15
        a.advance(18, &mut s);
        assert_eq!(a.peek(w(0)), Some(15));
        // A retransmitted copy of the same request must not add again;
        // it re-emits the original reply (old = 10).
        let (ok, eff) = a.submit(op, 100, &mut s);
        assert!(ok);
        assert_eq!(a.peek(w(0)), Some(15), "no double-apply");
        assert_eq!(s.dup_suppressed, 1);
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                proc: ProcId(2),
                payload: Payload::AmoReply {
                    req: ReqId(7),
                    old: 10
                },
                ..
            }
        )));
        // A *different* request from the same processor still executes.
        let (ok, _) = a.submit(amo_inc(8, 2, w(0), None), 200, &mut s);
        assert!(ok);
        a.advance(300, &mut s);
        assert_eq!(a.peek(w(0)), Some(16));
        assert_eq!(s.dup_suppressed, 1);
    }

    #[test]
    fn dedup_swallows_duplicate_of_inflight_request() {
        let mut s = Stats::new();
        let mut a = Amu::new(8, LAT, 64, 128).with_dedup(4);
        // First copy goes to Waiting on a fine get.
        a.submit(amo_inc(1, 0, w(0), None), 0, &mut s);
        // Duplicate arrives while the original is still in flight: no
        // second execution, no reply (the in-flight one will reply).
        let (ok, eff) = a.submit(amo_inc(1, 0, w(0), None), 5, &mut s);
        assert!(ok);
        assert!(eff.is_empty());
        assert_eq!(s.dup_suppressed, 1);
        // Queue a second distinct op, then duplicate it too.
        a.submit(amo_inc(2, 1, w(0), None), 6, &mut s);
        let (ok, eff) = a.submit(amo_inc(2, 1, w(0), None), 7, &mut s);
        assert!(ok);
        assert!(eff.is_empty());
        assert_eq!(s.dup_suppressed, 2);
        // The original completes exactly once.
        let eff = a.fine_value(0, w(0), 0, 20, &mut s).unwrap();
        assert_eq!(
            eff.iter()
                .filter(|e| matches!(e, AmuEffect::ReplyAt { .. }))
                .count(),
            1
        );
        assert_eq!(a.peek(w(0)), Some(1));
    }

    #[test]
    fn dedup_suppression_survives_unbounded_intervening_traffic() {
        // The scenario that broke the old operation-count FIFO: many
        // ops from *other* requesters complete between a request and
        // its retransmission (an e2e backoff spans thousands of
        // cycles). Per-requester keying keeps suppression exact no
        // matter how much traffic intervenes.
        let mut s = Stats::new();
        let mut a = Amu::new(8, LAT, 64, 128).with_dedup(8);
        // Proc 7 executes req 1 (counter 0 -> 1).
        a.submit(amo_inc(1, 7, w(0), None), 0, &mut s);
        a.fine_value(0, w(0), 0, 10, &mut s).unwrap();
        let mut t = 100;
        a.advance(t, &mut s);
        // 30 intervening ops from other procs — far more than any
        // plausible FIFO window.
        for i in 0..30u64 {
            a.submit(amo_inc(i + 1, (i % 6) as u16, w(0), None), t, &mut s);
            t += 100;
            a.advance(t, &mut s);
        }
        assert_eq!(a.peek(w(0)), Some(31));
        // Proc 7's retransmission of req 1 still replays old = 0.
        let (_, eff) = a.submit(amo_inc(1, 7, w(0), None), t, &mut s);
        assert_eq!(s.dup_suppressed, 1);
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                proc: ProcId(7),
                payload: Payload::AmoReply { old: 0, .. },
                ..
            }
        )));
        assert_eq!(a.peek(w(0)), Some(31), "no double-apply");
    }

    #[test]
    fn dedup_swallows_stale_request_from_same_requester() {
        let mut s = Stats::new();
        let mut a = Amu::new(8, LAT, 64, 128).with_dedup(4);
        // Proc 3 executes req 1, then req 2.
        a.submit(amo_inc(1, 3, w(0), None), 0, &mut s);
        a.fine_value(0, w(0), 0, 10, &mut s).unwrap();
        a.advance(100, &mut s);
        a.submit(amo_inc(2, 3, w(0), None), 100, &mut s);
        a.advance(200, &mut s);
        assert_eq!(a.peek(w(0)), Some(2));
        // A floating duplicate of req 1 arrives late. The slot holds
        // req 2 — proc 3 could only have issued it after consuming
        // req 1's reply — so the copy is swallowed: no re-apply, no
        // reply.
        let (ok, eff) = a.submit(amo_inc(1, 3, w(0), None), 300, &mut s);
        assert!(ok);
        assert!(eff.is_empty());
        assert_eq!(s.dup_suppressed, 1);
        assert_eq!(a.peek(w(0)), Some(2));
    }

    #[test]
    fn dedup_table_is_bounded_by_distinct_requesters() {
        let mut s = Stats::new();
        let mut a = Amu::new(8, LAT, 64, 128).with_dedup(2);
        let mut t = 0;
        for p in 0..3u16 {
            a.submit(amo_inc(1, p, w(0), None), t, &mut s);
            if p == 0 {
                a.fine_value(0, w(0), 0, t + 10, &mut s).unwrap();
            }
            t += 100;
            a.advance(t, &mut s);
        }
        // The table holds the last 2 requesters (procs 1, 2); proc 0's
        // slot was LRU-evicted, so its retransmission re-executes
        // (counter 3 -> 4) — the cost of undersizing the window below
        // the requester count.
        let (_, eff) = a.submit(amo_inc(1, 0, w(0), None), t, &mut s);
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                payload: Payload::AmoReply { old: 3, .. },
                ..
            }
        )));
        assert_eq!(s.dup_suppressed, 0);
        assert_eq!(a.peek(w(0)), Some(4));
        // Proc 2's slot survives: suppressed, replaying old = 2.
        t += 100;
        a.advance(t, &mut s);
        let (_, eff) = a.submit(amo_inc(1, 2, w(0), None), t, &mut s);
        assert_eq!(s.dup_suppressed, 1);
        assert!(eff.iter().any(|e| matches!(
            e,
            AmuEffect::ReplyAt {
                payload: Payload::AmoReply { old: 2, .. },
                ..
            }
        )));
        assert_eq!(a.peek(w(0)), Some(4));
    }

    #[test]
    fn full_queue_rejects() {
        let mut s = Stats::new();
        let mut a = Amu::new(8, LAT, 2, 128);
        // First submit starts immediately (queue drains), then fill.
        a.submit(amo_inc(1, 0, w(0), None), 0, &mut s); // waiting on fine get
        assert!(a.submit(amo_inc(2, 0, w(0), None), 0, &mut s).0);
        assert!(a.submit(amo_inc(3, 0, w(0), None), 0, &mut s).0);
        assert!(
            !a.submit(amo_inc(4, 0, w(0), None), 0, &mut s).0,
            "queue full"
        );
    }

    /// A miss is a fetch followed by a hit: for every op class the reply,
    /// the apply record and the word left behind are the same whether the
    /// word was cached or fetched. The effects differ only in the fetch
    /// and in how a put leaves: a `FinePut` on a hit, inside the
    /// `FineComplete` after a fine get.
    #[test]
    fn a_miss_is_a_fetch_followed_by_a_hit() {
        let (req, requester, addr) = (ReqId(5), ProcId(1), w(0));
        let fetch_add = AmuOp::Amo {
            req,
            requester,
            kind: AmoKind::FetchAdd,
            addr,
            operand: 5,
            test: None,
        };
        let mao = AmuOp::Mao {
            req,
            requester,
            kind: AmoKind::FetchAdd,
            addr,
            operand: 2,
        };
        let read = AmuOp::UncachedRead {
            req,
            requester,
            addr,
        };
        let cases = [
            (amo_inc(5, 1, addr, Some(3)), 0), // short of the test: dirty
            (amo_inc(5, 1, addr, Some(3)), 2), // reaches the test: put
            (amo_inc(5, 1, addr, None), 4),    // amo.inc accumulates silently
            (fetch_add, 7),                    // publishes every change
            (mao, 4),
            (read, 9),
        ];
        let put_of = |e: &AmuEffect| match *e {
            AmuEffect::FinePut { addr, value, flow } => Some((Some((addr, value)), flow)),
            AmuEffect::FineComplete { block, put, flow } => {
                assert_eq!(block, addr.block(128));
                Some((put, flow))
            }
            _ => None,
        };
        for (op, word) in cases {
            let (mut miss, mut ms) = amu();
            miss.set_log_applies(true);
            let (_, fetch) = miss.submit(op, 100, &mut ms);
            let miss_eff = match fetch.as_slice() {
                &[AmuEffect::FineGet { token, addr, .. }] => {
                    miss.fine_value(token, addr, word, 100, &mut ms)
                }
                &[AmuEffect::ReadMemWord { token, .. }] => {
                    miss.mem_value(token, word, 100, &mut ms)
                }
                other => panic!("{op:?}: fetch {other:?}"),
            }
            .expect("the fetched value is awaited");

            let (mut hit, mut hs) = amu();
            hit.set_log_applies(true);
            hit.install(addr, word, &mut hs, &mut Vec::new());
            let (_, hit_eff) = hit.submit(op, 100, &mut hs);

            let puts = |eff: &[AmuEffect]| eff.iter().filter_map(put_of).collect::<Vec<_>>();
            let rest = |eff: &[AmuEffect]| {
                let rest = eff.iter().filter(|e| put_of(e).is_none());
                rest.cloned().collect::<Vec<_>>()
            };
            let (miss_put, hit_put) = (puts(&miss_eff), puts(&hit_eff));
            if matches!(op, AmuOp::Amo { .. }) {
                assert_eq!(miss_put.len(), 1, "{op:?}: one FineComplete");
                // A hit without a put emits no `FinePut` at all.
                let put = miss_put[0].0.map(|_| miss_put[0]);
                assert_eq!(hit_put, Vec::from_iter(put), "{op:?}");
            } else {
                assert!(miss_put.is_empty() && hit_put.is_empty(), "{op:?}");
            }
            assert_eq!(rest(&miss_eff), rest(&hit_eff), "{op:?}");

            let (mut miss_log, mut hit_log) = (Vec::new(), Vec::new());
            miss.drain_applies_into(&mut miss_log);
            hit.drain_applies_into(&mut hit_log);
            assert_eq!(miss_log, hit_log, "{op:?}");
            if matches!(op, AmuOp::UncachedRead { .. }) {
                // An uncached-read miss allocates no entry.
                assert_eq!((miss.peek(addr), hit.peek(addr)), (None, Some(word)));
            } else {
                assert_eq!(miss.peek(addr), hit.peek(addr), "{op:?}");
            }
            let block = addr.block(128);
            assert_eq!(miss.flush_block(block), hit.flush_block(block), "{op:?}");
            assert_eq!((ms.amo_ops, ms.mao_ops), (hs.amo_ops, hs.mao_ops));
            assert_eq!((ms.amu_misses, ms.amu_hits), (hs.amu_hits, hs.amu_misses));
        }
    }
}
