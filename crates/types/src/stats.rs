//! Statistics counters shared by every component.
//!
//! One [`Stats`] instance lives in the machine; components increment it as
//! they act. The benchmark harness reads message/byte counts to regenerate
//! the paper's Figure 7 (network traffic) and sanity metrics (SC failure
//! rates, active-message retransmissions, AMU hit rates), and the
//! observability layer (`amo-obs`) serializes the whole structure through
//! [`Stats::to_json`].
//!
//! The struct is declared through the `define_stats!` macro so that `merge`,
//! counter enumeration, and JSON emission are *generated* from the single
//! field list: adding a counter automatically adds it to merged reports
//! (the old hand-written `merge` silently dropped fields it did not know
//! about) and to every serialized artifact.
//!
//! # Message locality
//!
//! Messages whose source and destination node coincide (`hops == 0`) fall
//! into two distinct kinds that the fabric alone cannot tell apart, so
//! [`Stats::record_msg`] takes a [`MsgEndpoint`] discriminator from the
//! caller:
//!
//! * [`MsgEndpoint::Proc`] — one end of the transfer is a *processor* on
//!   the node (request from a local CPU to its own hub/directory, or a
//!   reply/active message delivered to a local CPU). These cross the
//!   processor bus and the hub crossbar even though they never enter the
//!   network; counted in `intra_node_msgs`.
//! * [`MsgEndpoint::Hub`] — both ends are the hub itself (a directory or
//!   AMU sending to its own node, e.g. the word-update fanout including
//!   the home node). Pure loopback through the network interface; counted
//!   in `loopback_msgs`.
//!
//! `local_msgs()` (the pre-split aggregate) remains available as the sum.

use crate::histogram::LatHist;
use crate::ids::NodeId;
use crate::json::JsonWriter;
use crate::jsonv::Json;
use std::fmt;

/// Coarse classification of wire messages for traffic accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum MsgClass {
    /// GetS / GetX / Upgrade requests.
    Request,
    /// Data-carrying replies and writebacks.
    Data,
    /// Control acknowledgements (upgrade acks).
    Ack,
    /// Invalidation requests.
    Inv,
    /// Invalidation acknowledgements.
    InvAck,
    /// Interventions and their replies.
    Intervention,
    /// Fine-grained word updates (the AMO "put" fanout).
    WordUpdate,
    /// AMO commands and replies.
    Amo,
    /// MAO commands/replies and uncached reads/writes.
    Mao,
    /// Active messages and their acks.
    ActMsg,
}

/// Number of [`MsgClass`] variants.
pub const MSG_CLASSES: usize = 10;

/// All [`MsgClass`] variants, in discriminant order.
pub const ALL_MSG_CLASSES: [MsgClass; MSG_CLASSES] = [
    MsgClass::Request,
    MsgClass::Data,
    MsgClass::Ack,
    MsgClass::Inv,
    MsgClass::InvAck,
    MsgClass::Intervention,
    MsgClass::WordUpdate,
    MsgClass::Amo,
    MsgClass::Mao,
    MsgClass::ActMsg,
];

impl MsgClass {
    /// Stable index for array-backed counters.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            MsgClass::Request => "request",
            MsgClass::Data => "data",
            MsgClass::Ack => "ack",
            MsgClass::Inv => "inv",
            MsgClass::InvAck => "inv-ack",
            MsgClass::Intervention => "intervention",
            MsgClass::WordUpdate => "word-update",
            MsgClass::Amo => "amo",
            MsgClass::Mao => "mao",
            MsgClass::ActMsg => "actmsg",
        }
    }
}

/// Classification of kernel operations for latency accounting.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum OpClass {
    /// Coherent loads (including LL).
    Load,
    /// Coherent stores (including SC).
    Store,
    /// Processor-side atomic RMW.
    Atomic,
    /// AMO command round trips.
    Amo,
    /// MAO / uncached operations.
    Mao,
    /// Active-message exchanges.
    ActMsg,
    /// Spin waits (from first probe to satisfaction).
    Spin,
}

/// Number of [`OpClass`] variants.
pub const OP_CLASSES: usize = 7;

/// All [`OpClass`] variants, in discriminant order.
pub const ALL_OP_CLASSES: [OpClass; OP_CLASSES] = [
    OpClass::Load,
    OpClass::Store,
    OpClass::Atomic,
    OpClass::Amo,
    OpClass::Mao,
    OpClass::ActMsg,
    OpClass::Spin,
];

impl OpClass {
    /// Stable index for array-backed counters.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Load => "load",
            OpClass::Store => "store",
            OpClass::Atomic => "atomic",
            OpClass::Amo => "amo",
            OpClass::Mao => "mao",
            OpClass::ActMsg => "actmsg",
            OpClass::Spin => "spin",
        }
    }
}

/// Which non-fabric endpoint a transfer has, for node-local message
/// classification; see the module docs on message locality.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum MsgEndpoint {
    /// Hub-to-hub transfer (directory/AMU fanout to its own node).
    Hub,
    /// A processor sends or receives this transfer over its bus.
    Proc,
}

/// A field type that can live inside [`Stats`]: mergeable, enumerable as
/// flat named counters, fillable with distinct values for round-trip
/// tests, and JSON-serializable.
pub(crate) trait StatField {
    /// Add `other` into `self`, element-wise.
    fn merge_field(&mut self, other: &Self);
    /// Call `f(name, value)` for every underlying additive counter.
    /// (Non-additive state such as a histogram's exact `max` is excluded:
    /// it does not double under self-merge.)
    #[cfg(test)]
    fn visit_counters(&self, path: &str, f: &mut dyn FnMut(&str, u64));
    /// Overwrite every additive counter with the next generator value
    /// (test aid for the merge round-trip).
    #[cfg(test)]
    fn fill_distinct(&mut self, next: &mut dyn FnMut() -> u64);
    /// Emit this field as a JSON value.
    fn write_json(&self, w: &mut JsonWriter);
    /// Overwrite this field from the JSON value
    /// [`write_json`](Self::write_json) emitted — the exact inverse, so
    /// counters cached on disk decode bit-identically.
    fn read_json(&mut self, v: &Json) -> Result<(), String>;
}

impl StatField for u64 {
    fn merge_field(&mut self, other: &Self) {
        *self += *other;
    }
    #[cfg(test)]
    fn visit_counters(&self, path: &str, f: &mut dyn FnMut(&str, u64)) {
        f(path, *self);
    }
    #[cfg(test)]
    fn fill_distinct(&mut self, next: &mut dyn FnMut() -> u64) {
        *self = next();
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.u64_val(*self);
    }
    fn read_json(&mut self, v: &Json) -> Result<(), String> {
        *self = v.as_u64().ok_or("expected an unsigned integer")?;
        Ok(())
    }
}

impl<const N: usize> StatField for [u64; N] {
    fn merge_field(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other.iter()) {
            *a += *b;
        }
    }
    #[cfg(test)]
    fn visit_counters(&self, path: &str, f: &mut dyn FnMut(&str, u64)) {
        for (i, v) in self.iter().enumerate() {
            f(&format!("{path}[{i}]"), *v);
        }
    }
    #[cfg(test)]
    fn fill_distinct(&mut self, next: &mut dyn FnMut() -> u64) {
        for v in self.iter_mut() {
            *v = next();
        }
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_arr();
        for v in self.iter() {
            w.u64_val(*v);
        }
        w.end_arr();
    }
    fn read_json(&mut self, v: &Json) -> Result<(), String> {
        let arr = v.as_arr().ok_or("expected an array")?;
        if arr.len() != N {
            return Err(format!("expected {N} elements, got {}", arr.len()));
        }
        for (slot, e) in self.iter_mut().zip(arr) {
            slot.read_json(e)?;
        }
        Ok(())
    }
}

impl StatField for Vec<[u64; MSG_CLASSES]> {
    fn merge_field(&mut self, other: &Self) {
        if self.len() < other.len() {
            self.resize(other.len(), [0; MSG_CLASSES]);
        }
        for (a, b) in self.iter_mut().zip(other.iter()) {
            a.merge_field(b);
        }
    }
    #[cfg(test)]
    fn visit_counters(&self, path: &str, f: &mut dyn FnMut(&str, u64)) {
        for (n, row) in self.iter().enumerate() {
            row.visit_counters(&format!("{path}[{n}]"), f);
        }
    }
    #[cfg(test)]
    fn fill_distinct(&mut self, next: &mut dyn FnMut() -> u64) {
        if self.is_empty() {
            self.resize(2, [0; MSG_CLASSES]);
        }
        for row in self.iter_mut() {
            row.fill_distinct(next);
        }
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_arr();
        for row in self.iter() {
            row.write_json(w);
        }
        w.end_arr();
    }
    fn read_json(&mut self, v: &Json) -> Result<(), String> {
        let arr = v.as_arr().ok_or("expected an array")?;
        self.clear();
        self.resize(arr.len(), [0; MSG_CLASSES]);
        for (row, e) in self.iter_mut().zip(arr) {
            row.read_json(e)?;
        }
        Ok(())
    }
}

impl StatField for LatHist {
    fn merge_field(&mut self, other: &Self) {
        self.merge(other);
    }
    #[cfg(test)]
    fn visit_counters(&self, path: &str, f: &mut dyn FnMut(&str, u64)) {
        // `max` is deliberately excluded: it is not additive.
        f(&format!("{path}.count"), self.count);
        f(&format!("{path}.sum"), self.sum);
        for (i, v) in self.buckets.iter().enumerate() {
            f(&format!("{path}.buckets[{i}]"), *v);
        }
    }
    #[cfg(test)]
    fn fill_distinct(&mut self, next: &mut dyn FnMut() -> u64) {
        self.count = next();
        self.sum = next();
        self.max = next();
        for v in self.buckets.iter_mut() {
            *v = next();
        }
    }
    fn write_json(&self, w: &mut JsonWriter) {
        LatHist::write_json(self, w);
    }
    fn read_json(&mut self, v: &Json) -> Result<(), String> {
        *self = LatHist::from_json(v)?;
        Ok(())
    }
}

impl<const N: usize> StatField for [LatHist; N] {
    fn merge_field(&mut self, other: &Self) {
        for (a, b) in self.iter_mut().zip(other.iter()) {
            a.merge(b);
        }
    }
    #[cfg(test)]
    fn visit_counters(&self, path: &str, f: &mut dyn FnMut(&str, u64)) {
        for (i, h) in self.iter().enumerate() {
            h.visit_counters(&format!("{path}[{i}]"), f);
        }
    }
    #[cfg(test)]
    fn fill_distinct(&mut self, next: &mut dyn FnMut() -> u64) {
        for h in self.iter_mut() {
            h.fill_distinct(next);
        }
    }
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_arr();
        for h in self.iter() {
            h.write_json(w);
        }
        w.end_arr();
    }
    fn read_json(&mut self, v: &Json) -> Result<(), String> {
        let arr = v.as_arr().ok_or("expected an array")?;
        if arr.len() != N {
            return Err(format!("expected {N} histograms, got {}", arr.len()));
        }
        for (h, e) in self.iter_mut().zip(arr) {
            h.read_json(e)?;
        }
        Ok(())
    }
}

/// Declares the [`Stats`] struct plus generated `merge`,
/// `for_each_counter`, `fill_distinct`, and per-field JSON emission, all
/// driven by the one field list — a field cannot be forgotten by any of
/// them.
macro_rules! define_stats {
    (
        $(#[$smeta:meta])*
        pub struct Stats {
            $( $(#[$fmeta:meta])* pub $field:ident : $ty:ty, )*
        }
    ) => {
        $(#[$smeta])*
        #[derive(Clone, Default, Debug)]
        pub struct Stats {
            $( $(#[$fmeta])* pub $field: $ty, )*
        }

        impl Stats {
            /// Add another set of counters into this one. Generated from
            /// the field list: every field participates.
            pub fn merge(&mut self, other: &Stats) {
                $( StatField::merge_field(&mut self.$field, &other.$field); )*
            }

            /// Visit every additive counter as a `(flat name, value)`
            /// pair, in declaration order.
            #[cfg(test)]
            pub(crate) fn for_each_counter(&self, f: &mut dyn FnMut(&str, u64)) {
                $( StatField::visit_counters(&self.$field, stringify!($field), f); )*
            }

            /// Overwrite every additive counter with successive generator
            /// values (test aid for the merge round-trip).
            #[cfg(test)]
            pub(crate) fn fill_distinct(&mut self, next: &mut dyn FnMut() -> u64) {
                $( StatField::fill_distinct(&mut self.$field, next); )*
            }

            /// Emit every field as a member of the currently open JSON
            /// object.
            fn write_fields_json(&self, w: &mut JsonWriter) {
                $(
                    w.key(stringify!($field));
                    StatField::write_json(&self.$field, w);
                )*
            }

            /// Reconstruct counters from a document produced by
            /// [`Stats::to_json`] / [`Stats::write_json`]. Exact inverse
            /// for every field — the campaign result cache relies on
            /// `from_json(parse(to_json(s))).to_json() == s.to_json()`.
            /// Every declared field must be present; unknown members of
            /// `counters` are rejected so schema drift is caught, not
            /// silently dropped.
            pub fn from_json(v: &Json) -> Result<Stats, String> {
                match v.get("schema").and_then(Json::as_str) {
                    Some("amo-stats-v1") => {}
                    other => return Err(format!("stats: bad schema {other:?}")),
                }
                let counters = v.get("counters").ok_or("stats: missing `counters`")?;
                let Json::Obj(members) = counters else {
                    return Err("stats: `counters` is not an object".into());
                };
                let known: &[&str] = &[$(stringify!($field)),*];
                for (k, _) in members {
                    if !known.contains(&k.as_str()) {
                        return Err(format!("stats: unknown counter `{k}`"));
                    }
                }
                let mut s = Stats::default();
                $(
                    let field = counters
                        .get(stringify!($field))
                        .ok_or_else(|| format!("stats: missing `{}`", stringify!($field)))?;
                    StatField::read_json(&mut s.$field, field)
                        .map_err(|e| format!("stats: `{}`: {e}", stringify!($field)))?;
                )*
                Ok(s)
            }
        }
    };
}

define_stats! {
    /// Machine-wide counters. All fields are public: components update
    /// them directly and tests assert on them.
    pub struct Stats {
        /// Messages injected into the fabric, by class.
        pub msgs: [u64; MSG_CLASSES],
        /// Bytes injected into the fabric, by class.
        pub bytes: [u64; MSG_CLASSES],
        /// Sum over messages of `bytes * hops` (link occupancy measure).
        pub byte_hops: u64,
        /// Sum over messages of their hop counts.
        pub hops: u64,
        /// Node-local hub-to-hub loopbacks (e.g. word updates to the home
        /// node itself); see the module docs on message locality.
        pub loopback_msgs: u64,
        /// Node-local transfers with a processor endpoint: they cross the
        /// processor bus and hub crossbar but not the network.
        pub intra_node_msgs: u64,

        /// Messages sent, per source node x class (grown on demand).
        pub node_sent: Vec<[u64; MSG_CLASSES]>,
        /// Messages received, per destination node x class.
        pub node_recv: Vec<[u64; MSG_CLASSES]>,

        /// Load-linked operations issued.
        pub ll_issued: u64,
        /// Store-conditionals that succeeded.
        pub sc_successes: u64,
        /// Store-conditionals that failed (lost reservation).
        pub sc_failures: u64,

        /// Processor-side atomic RMWs performed.
        pub atomic_ops: u64,
        /// AMO commands executed by AMUs.
        pub amo_ops: u64,
        /// MAO commands executed by AMUs' uncached port.
        pub mao_ops: u64,
        /// AMO/MAO operations that hit in an AMU cache.
        pub amu_hits: u64,
        /// AMO/MAO operations that missed and fetched via fine-grained get.
        pub amu_misses: u64,
        /// AMU-cache evictions that forced a put.
        pub amu_evictions: u64,

        /// Fine-grained puts performed (each fans out word updates).
        pub puts: u64,
        /// Word-update messages sent to sharers.
        pub word_updates_sent: u64,
        /// Invalidation messages sent by directories.
        pub invalidations_sent: u64,
        /// Interventions sent by directories.
        pub interventions_sent: u64,
        /// Requests a directory had to queue because the block was busy.
        pub dir_queued: u64,
        /// Protocol transactions completed by directories.
        pub dir_transactions: u64,

        /// L1 hits across all processors.
        pub l1_hits: u64,
        /// L1 misses.
        pub l1_misses: u64,
        /// L2 hits.
        pub l2_hits: u64,
        /// L2 misses.
        pub l2_misses: u64,

        /// DRAM block reads.
        pub dram_reads: u64,
        /// DRAM block writes (writebacks and put word-writes).
        pub dram_writes: u64,

        /// Active-message handlers executed.
        pub handlers_run: u64,
        /// CPU cycles home processors spent in handler invocation + body.
        pub handler_busy_cycles: u64,
        /// Active messages dropped at a full handler queue.
        pub actmsg_drops: u64,
        /// Active-message retransmissions after timeout.
        pub actmsg_retransmissions: u64,

        /// Processor spin-loop reloads after an invalidation woke a spinner.
        pub spin_reloads: u64,

        /// Remote packets whose transmission was corrupted (CRC error
        /// detected at the receiving link interface).
        pub link_crc_errors: u64,
        /// Link-level replay retransmissions (>= `link_crc_errors` when
        /// a replay itself gets corrupted).
        pub link_retransmissions: u64,
        /// Extra cycles packets spent in link-level replay + backoff.
        pub link_replay_cycles: u64,
        /// Extra cycles packets spent in injected delay jitter.
        pub link_jitter_cycles: u64,
        /// AMO/MAO dispatches NACKed at a full AMU queue.
        pub amu_nacks: u64,
        /// AMO/MAO dispatches NACKed by a browned-out AMU.
        pub amu_brownout_nacks: u64,
        /// Processor resends of an AMO/MAO after an AMU NACK.
        pub amu_nack_retries: u64,
        /// AMO/MAO/ActMsg packets silently dropped at the destination
        /// interface (delivery fault).
        pub msgs_dropped: u64,
        /// AMO/MAO/ActMsg packets duplicated at the destination
        /// interface (both copies delivered).
        pub msgs_duplicated: u64,
        /// Deliveries that picked up nonzero reorder skew (and so could
        /// be overtaken by a later packet).
        pub msgs_reordered: u64,
        /// Duplicate requests/replies suppressed by a dedup window
        /// (AMU served-window hits, directory same-txn re-requests,
        /// stale replies ignored at the requester).
        pub dup_suppressed: u64,
        /// Requester-side end-to-end timeouts that fired on a still
        /// outstanding AMO/MAO/uncached request.
        pub e2e_timeouts: u64,
        /// End-to-end retransmissions issued after those timeouts.
        pub e2e_retransmissions: u64,

        /// Per-operation-class completion latency: total cycles, by
        /// [`OpClass`] index.
        pub op_lat_sum: [u64; OP_CLASSES],
        /// Per-operation-class completion counts.
        pub op_lat_cnt: [u64; OP_CLASSES],
        /// Per-operation-class latency distribution (log2 buckets).
        pub op_hist: [LatHist; OP_CLASSES],
    }
}

fn node_row(v: &mut Vec<[u64; MSG_CLASSES]>, n: usize) -> &mut [u64; MSG_CLASSES] {
    if v.len() <= n {
        v.resize(n + 1, [0; MSG_CLASSES]);
    }
    &mut v[n]
}

impl Stats {
    /// Fresh, zeroed counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one kernel operation's completion latency.
    #[inline]
    pub fn record_op(&mut self, class: OpClass, latency: u64) {
        self.op_lat_sum[class.index()] += latency;
        self.op_lat_cnt[class.index()] += 1;
        self.op_hist[class.index()].record(latency);
    }

    /// Mean completion latency of an operation class, if any completed.
    pub fn mean_op_latency(&self, class: OpClass) -> Option<f64> {
        let n = self.op_lat_cnt[class.index()];
        (n > 0).then(|| self.op_lat_sum[class.index()] as f64 / n as f64)
    }

    /// Record a message entering the fabric. `far_end` classifies
    /// node-local (`hops == 0`) transfers; see the module docs.
    #[inline]
    pub fn record_msg(
        &mut self,
        class: MsgClass,
        bytes: u64,
        hops: u64,
        src: NodeId,
        dst: NodeId,
        far_end: MsgEndpoint,
    ) {
        let i = class.index();
        self.msgs[i] += 1;
        self.bytes[i] += bytes;
        self.byte_hops += bytes * hops;
        self.hops += hops;
        if hops == 0 {
            match far_end {
                MsgEndpoint::Proc => self.intra_node_msgs += 1,
                MsgEndpoint::Hub => self.loopback_msgs += 1,
            }
        }
        node_row(&mut self.node_sent, src.0 as usize)[i] += 1;
        node_row(&mut self.node_recv, dst.0 as usize)[i] += 1;
    }

    /// Total messages injected (all classes).
    pub fn total_msgs(&self) -> u64 {
        self.msgs.iter().sum()
    }

    /// All node-local messages: loopbacks plus intra-node transfers.
    pub fn local_msgs(&self) -> u64 {
        self.loopback_msgs + self.intra_node_msgs
    }

    /// Total network messages (excluding node-local transfers).
    pub fn network_msgs(&self) -> u64 {
        self.total_msgs() - self.local_msgs()
    }

    /// Total bytes injected (all classes).
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Serialize everything as a stable JSON document:
    /// `{"schema": "amo-stats-v1", "counters": {<every field>},
    /// "derived": {messages, msgs_by_class, per_node, op_latency}}`.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        self.write_json(&mut w);
        w.finish()
    }

    /// Like [`to_json`](Self::to_json), but writes into an open writer so
    /// the document can embed inside a larger report.
    pub fn write_json(&self, w: &mut JsonWriter) {
        w.begin_obj();
        w.kv_str("schema", "amo-stats-v1");

        w.key("counters");
        w.begin_obj();
        self.write_fields_json(w);
        w.end_obj();

        w.key("derived");
        w.begin_obj();

        w.key("messages");
        w.begin_obj();
        w.kv_u64("total", self.total_msgs());
        w.kv_u64("network", self.network_msgs());
        w.kv_u64("loopback", self.loopback_msgs);
        w.kv_u64("intra_node", self.intra_node_msgs);
        w.kv_u64("bytes", self.total_bytes());
        w.kv_u64("byte_hops", self.byte_hops);
        w.end_obj();

        w.key("msgs_by_class");
        w.begin_obj();
        for c in ALL_MSG_CLASSES {
            let i = c.index();
            w.key(c.label());
            w.begin_obj();
            w.kv_u64("msgs", self.msgs[i]);
            w.kv_u64("bytes", self.bytes[i]);
            w.end_obj();
        }
        w.end_obj();

        w.key("per_node");
        w.begin_arr();
        let nodes = self.node_sent.len().max(self.node_recv.len());
        let zero = [0u64; MSG_CLASSES];
        for n in 0..nodes {
            let sent = self.node_sent.get(n).unwrap_or(&zero);
            let recv = self.node_recv.get(n).unwrap_or(&zero);
            w.begin_obj();
            w.kv_u64("node", n as u64);
            w.kv_u64("sent_total", sent.iter().sum());
            w.kv_u64("recv_total", recv.iter().sum());
            w.key("sent");
            w.begin_obj();
            for c in ALL_MSG_CLASSES {
                w.kv_u64(c.label(), sent[c.index()]);
            }
            w.end_obj();
            w.key("recv");
            w.begin_obj();
            for c in ALL_MSG_CLASSES {
                w.kv_u64(c.label(), recv[c.index()]);
            }
            w.end_obj();
            w.end_obj();
        }
        w.end_arr();

        w.key("op_latency");
        w.begin_obj();
        for c in ALL_OP_CLASSES {
            let h = &self.op_hist[c.index()];
            if h.count == 0 {
                continue;
            }
            w.key(c.label());
            h.write_json(w);
        }
        w.end_obj();

        w.end_obj(); // derived
        w.end_obj();
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "messages: {} total ({} network, {} loopback, {} intra-node), {} bytes, {} byte-hops",
            self.total_msgs(),
            self.network_msgs(),
            self.loopback_msgs,
            self.intra_node_msgs,
            self.total_bytes(),
            self.byte_hops
        )?;
        for c in ALL_MSG_CLASSES {
            let i = c.index();
            if self.msgs[i] > 0 {
                writeln!(
                    f,
                    "  {:>12}: {:>8} msgs {:>10} B",
                    c.label(),
                    self.msgs[i],
                    self.bytes[i]
                )?;
            }
        }
        writeln!(
            f,
            "ll/sc: {} LL, {} SC ok, {} SC fail; atomics: {}; amo: {} (amu {}h/{}m); mao: {}",
            self.ll_issued,
            self.sc_successes,
            self.sc_failures,
            self.atomic_ops,
            self.amo_ops,
            self.amu_hits,
            self.amu_misses,
            self.mao_ops
        )?;
        writeln!(
            f,
            "puts: {} ({} word updates); inv: {}; interventions: {}",
            self.puts, self.word_updates_sent, self.invalidations_sent, self.interventions_sent
        )?;
        write!(
            f,
            "actmsg: {} handlers, {} drops, {} retransmissions; spin reloads: {}",
            self.handlers_run, self.actmsg_drops, self.actmsg_retransmissions, self.spin_reloads
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_totals() {
        let mut s = Stats::new();
        let (a, b) = (NodeId(0), NodeId(1));
        s.record_msg(MsgClass::Request, 32, 4, a, b, MsgEndpoint::Proc);
        s.record_msg(MsgClass::Data, 160, 4, b, a, MsgEndpoint::Proc);
        s.record_msg(MsgClass::WordUpdate, 32, 0, a, a, MsgEndpoint::Hub);
        s.record_msg(MsgClass::Amo, 32, 0, a, a, MsgEndpoint::Proc);
        assert_eq!(s.total_msgs(), 4);
        assert_eq!(s.network_msgs(), 2);
        assert_eq!(s.total_bytes(), 256);
        assert_eq!(s.byte_hops, 32 * 4 + 160 * 4);
        assert_eq!(s.loopback_msgs, 1);
        assert_eq!(s.intra_node_msgs, 1);
        assert_eq!(s.local_msgs(), 2);
        assert_eq!(s.node_sent[0][MsgClass::Request.index()], 1);
        assert_eq!(s.node_recv[1][MsgClass::Request.index()], 1);
        assert_eq!(s.node_sent[0].iter().sum::<u64>(), 3);
        assert_eq!(s.node_recv[0].iter().sum::<u64>(), 3);
    }

    #[test]
    fn merge_adds_everything() {
        let mut a = Stats::new();
        a.record_msg(
            MsgClass::Amo,
            32,
            2,
            NodeId(0),
            NodeId(1),
            MsgEndpoint::Proc,
        );
        a.sc_failures = 5;
        let mut b = Stats::new();
        b.record_msg(
            MsgClass::Amo,
            32,
            3,
            NodeId(1),
            NodeId(0),
            MsgEndpoint::Proc,
        );
        b.sc_failures = 7;
        a.merge(&b);
        assert_eq!(a.msgs[MsgClass::Amo.index()], 2);
        assert_eq!(a.sc_failures, 12);
        assert_eq!(a.hops, 5);
        assert_eq!(a.node_sent[0][MsgClass::Amo.index()], 1);
        assert_eq!(a.node_sent[1][MsgClass::Amo.index()], 1);
    }

    /// The forgotten-field regression guard: fill *every* counter the
    /// macro knows about with a distinct nonzero value, self-merge, and
    /// require each one to have exactly doubled. A counter added to the
    /// struct but dropped from `merge` is impossible by construction
    /// (merge is generated), and this test additionally proves the
    /// generated enumeration covers every field with nonzero payloads.
    #[test]
    fn merge_round_trip_doubles_every_counter() {
        let mut s = Stats::new();
        let mut seq = 0u64;
        s.fill_distinct(&mut || {
            seq += 1;
            seq
        });
        let mut before = Vec::new();
        s.for_each_counter(&mut |name, v| {
            assert!(v > 0, "fill_distinct left `{name}` zero");
            before.push((name.to_string(), v));
        });
        assert!(
            before.len() > 100,
            "expected a rich counter inventory, got {}",
            before.len()
        );
        let other = s.clone();
        s.merge(&other);
        let mut i = 0;
        s.for_each_counter(&mut |name, v| {
            let (ref n0, v0) = before[i];
            assert_eq!(name, n0, "counter order changed across merge");
            assert_eq!(v, 2 * v0, "merge failed to double `{name}`");
            i += 1;
        });
        assert_eq!(i, before.len(), "merge changed the counter inventory");
    }

    #[test]
    fn class_indices_match_all_array() {
        for (i, c) in ALL_MSG_CLASSES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, c) in ALL_OP_CLASSES.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
    }

    #[test]
    fn record_op_feeds_histogram() {
        let mut s = Stats::new();
        s.record_op(OpClass::Amo, 100);
        s.record_op(OpClass::Amo, 300);
        assert_eq!(s.mean_op_latency(OpClass::Amo), Some(200.0));
        let h = &s.op_hist[OpClass::Amo.index()];
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 300);
        assert!(h.p99() <= 300);
    }

    #[test]
    fn json_has_schema_shape() {
        let mut s = Stats::new();
        s.record_msg(
            MsgClass::Amo,
            32,
            2,
            NodeId(0),
            NodeId(1),
            MsgEndpoint::Proc,
        );
        s.record_op(OpClass::Amo, 250);
        let j = s.to_json();
        for needle in [
            r#""schema":"amo-stats-v1""#,
            r#""counters":{"#,
            r#""msgs":["#,
            r#""loopback_msgs":0"#,
            r#""intra_node_msgs":0"#,
            r#""derived":{"#,
            r#""messages":{"total":1,"network":1"#,
            r#""msgs_by_class":{"#,
            r#""per_node":[{"node":0,"sent_total":1,"recv_total":0"#,
            r#""op_latency":{"amo":{"count":1,"sum":250,"max":250"#,
        ] {
            assert!(j.contains(needle), "missing `{needle}` in:\n{j}");
        }
        // Balanced braces: a cheap structural sanity check (full parsing
        // is covered by amo-obs's JSON parser tests).
        let opens = j.matches(['{', '[']).count();
        let closes = j.matches(['}', ']']).count();
        assert_eq!(opens, closes);
    }

    /// `from_json` must invert `to_json` for every field the macro
    /// declares — including grown per-node vectors and histograms with
    /// trimmed bucket arrays.
    #[test]
    fn json_round_trip_is_exact() {
        let mut s = Stats::new();
        let mut seq = 0u64;
        s.fill_distinct(&mut || {
            seq += 1;
            seq
        });
        // Make histogram `max` consistent-ish and exercise record paths.
        s.record_op(OpClass::Spin, 1 << 22);
        s.record_msg(MsgClass::Mao, 48, 3, NodeId(1), NodeId(0), MsgEndpoint::Hub);
        let j = s.to_json();
        let back = Stats::from_json(&Json::parse(&j).unwrap()).unwrap();
        assert_eq!(back.to_json(), j, "round trip changed the document");

        // Schema drift is rejected, not silently dropped.
        let tampered = j.replacen(r#""msgs":"#, r#""msgsX":"#, 1);
        assert!(Stats::from_json(&Json::parse(&tampered).unwrap()).is_err());
    }

    #[test]
    fn display_does_not_panic() {
        let mut s = Stats::new();
        s.record_msg(
            MsgClass::ActMsg,
            32,
            1,
            NodeId(0),
            NodeId(1),
            MsgEndpoint::Proc,
        );
        let _ = s.to_string();
    }
}
