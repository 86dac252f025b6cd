//! The fabric: turns (source, destination, message) into a delivery time
//! while accounting traffic.
//!
//! # Link-level fault recovery
//!
//! Real NUMALink-class interconnects detect transient wire errors with a
//! per-packet CRC and recover by replaying the packet from the sender's
//! replay buffer. With a [`FaultPlan`] attached (see
//! [`Fabric::with_faults`]), each remote transmission consults the plan:
//! a corrupted attempt costs one extra serialization plus an
//! exponentially backed-off replay delay, then the replay itself is
//! re-checked, up to the plan's retry budget. Exhausting the budget
//! marks the fabric failed ([`Fabric::take_failure`]) — the machine
//! surfaces that as a typed error instead of delivering the packet.
//! The zero-rate plan skips this path entirely, adding exactly zero
//! cycles, so an unfaulted configuration is timing-identical to a
//! machine built without fault support.

use super::topology::Topology;
use crate::faults::{FaultPlan, ScheduleOracle};
use amo_types::{Cycle, MsgClass, MsgEndpoint, NetworkConfig, NodeId, Payload, SharedTape, Stats};

/// An unrecoverable link fault: one packet exhausted its replay budget.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct LinkFailure {
    /// Sending node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Replay attempts consumed before giving up.
    pub attempts: u32,
    /// Cycle at which the packet first departed.
    pub at: Cycle,
}

/// What the delivery-fault layer did to one send. The link-level CRC
/// machinery saw a clean (or replayed-to-clean) transmission either
/// way; delivery faults happen *after* that, at the destination
/// interface, which is why they are invisible to link replay and must
/// be healed end to end by the protocol.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Delivery {
    /// The message reaches its handler once, at this cycle (the only
    /// outcome when delivery faults are off or the class is exempt).
    One(Cycle),
    /// The message was silently dropped at the destination interface;
    /// carries the cycle it would have been delivered (for tracing).
    Dropped(Cycle),
    /// The message was duplicated at the destination interface: both
    /// copies reach the handler, at these cycles.
    Dup(Cycle, Cycle),
}

impl Delivery {
    /// The primary delivery cycle (or would-be cycle, for a drop).
    pub(crate) fn primary(self) -> Cycle {
        match self {
            Delivery::One(t) | Delivery::Dropped(t) | Delivery::Dup(t, _) => t,
        }
    }
}

/// Is this message class exposed to delivery faults? Only the AMO-layer
/// request/reply channel (AMO, MAO/uncached, active messages) — the
/// traffic the protocol can heal end to end with idempotent
/// retransmission. Coherence traffic and the word-update fanout ride
/// the link-layer CRC+replay-protected channel: the paper's directory
/// protocol is specified over reliable ordered delivery, and a dropped
/// invalidation or word update has no requester-side timer to notice it.
fn delivery_faultable(class: MsgClass) -> bool {
    matches!(class, MsgClass::Amo | MsgClass::Mao | MsgClass::ActMsg)
}

/// Per-node network-interface state: when the egress and ingress links
/// next become free.
#[derive(Clone, Copy, Debug, Default)]
struct NodeIface {
    egress_free: Cycle,
    ingress_free: Cycle,
}

/// The interconnect. `send` is the single entry point: it computes the
/// delivery time of a message, advances the endpoint link reservations,
/// and records global and per-node traffic statistics. The caller (the
/// machine) schedules the actual delivery event at the returned time.
pub struct Fabric {
    topo: Topology,
    cfg: NetworkConfig,
    /// `serialize(cfg.min_packet_bytes)`: every control packet's cost.
    ctl_ser: Cycle,
    ifaces: Vec<NodeIface>,
    /// Per-directed-link reservations, indexed by dense link id
    /// (router-contention mode only; empty otherwise).
    link_free: Vec<Cycle>,
    /// Precomputed one-way hop counts, indexed `src * n + dst`. The fat
    /// tree's hop count needs a divide-by-radix loop per query; on the
    /// hot path that becomes one byte load (the diameter of any
    /// realistic tree fits in a `u8` with room to spare).
    hop_tab: Vec<u8>,
    /// Flattened per-pair link paths in CSR form: the links of the
    /// `src→dst` route occupy
    /// `path_links[path_offsets[src*n+dst]..path_offsets[src*n+dst+1]]`.
    /// Built only in router-contention mode (empty otherwise), so
    /// `send`'s wormhole walk is a table slice with zero route
    /// arithmetic.
    path_offsets: Vec<u32>,
    path_links: Vec<u32>,
    /// Fault oracle for link errors and jitter.
    faults: FaultPlan,
    /// Remote-transmission sequence number; part of each fault-plan key.
    fault_seq: u64,
    /// Monotonic sequence number keying the delivery-fault oracle; only
    /// advanced while delivery faults are enabled for an eligible class.
    delivery_seq: u64,
    /// Who answers delivery-schedule questions: the plan's keyed hash
    /// (default) or an attached choice tape (the schedule explorer).
    oracle: ScheduleOracle,
    /// First unrecoverable link fault, if one occurred.
    pending_failure: Option<LinkFailure>,
}

impl Fabric {
    /// Build a fabric over `num_nodes` nodes with the given parameters
    /// and no fault injection.
    pub fn new(num_nodes: u16, cfg: NetworkConfig) -> Self {
        Self::with_faults(num_nodes, cfg, FaultPlan::none())
    }

    /// Build a fabric whose remote transmissions consult `faults` for
    /// CRC errors and delay jitter.
    pub(crate) fn with_faults(num_nodes: u16, cfg: NetworkConfig, faults: FaultPlan) -> Self {
        let topo = Topology::new(num_nodes, cfg.router_radix);
        let link_free = if cfg.model_router_contention {
            vec![0; topo.num_links()]
        } else {
            Vec::new()
        };
        // Precompute the routing tables once, at machine construction:
        // hop counts for every ordered pair, and (in contention mode)
        // the flattened link paths. O(n² · diameter) setup buys a
        // zero-arithmetic hot path.
        let n = num_nodes as usize;
        let mut hop_tab = vec![0u8; n * n];
        for s in 0..n {
            for d in 0..n {
                let h = topo.hops(NodeId(s as u16), NodeId(d as u16));
                hop_tab[s * n + d] = u8::try_from(h).expect("tree diameter fits u8");
            }
        }
        let (path_offsets, path_links) = if cfg.model_router_contention {
            let mut offsets = Vec::with_capacity(n * n + 1);
            let mut links = Vec::new();
            offsets.push(0u32);
            for s in 0..n {
                for d in 0..n {
                    topo.path_links_into(NodeId(s as u16), NodeId(d as u16), &mut links);
                    offsets.push(u32::try_from(links.len()).expect("path table fits u32"));
                }
            }
            (offsets, links)
        } else {
            (Vec::new(), Vec::new())
        };
        Fabric {
            topo,
            ctl_ser: cfg.min_packet_bytes.div_ceil(cfg.ni_bytes_per_cycle).max(1),
            cfg,
            ifaces: vec![NodeIface::default(); num_nodes as usize],
            link_free,
            hop_tab,
            path_offsets,
            path_links,
            faults,
            fault_seq: 0,
            delivery_seq: 0,
            oracle: ScheduleOracle::Hashed,
            pending_failure: None,
        }
    }

    /// Route delivery-schedule choices through `tape` instead of the
    /// fault plan's keyed hash. While attached, the delivery layer is
    /// active for every eligible class even with all fault rates at
    /// zero: the tape decides reorder skew (and, when its config says
    /// so, duplication) per message. Drops are never taped.
    pub(crate) fn set_schedule_tape(&mut self, tape: SharedTape) {
        self.oracle = ScheduleOracle::Taped(tape);
    }

    /// Cycles needed to serialize `bytes` through one endpoint link.
    fn serialize(&self, bytes: u64) -> Cycle {
        if bytes == self.cfg.min_packet_bytes {
            return self.ctl_ser;
        }
        bytes.div_ceil(self.cfg.ni_bytes_per_cycle).max(1)
    }

    /// The uncontended latency of a `src → dst` transfer of `bytes`:
    /// egress + ingress serialization plus the pure hop pipeline, with
    /// no queueing, jitter, or replays. Pure function of the topology —
    /// it reserves nothing and records nothing. The tracer stores this
    /// per send so the critical-path engine can split a send span into
    /// serialization vs contention; router-contention mode has the same
    /// zero-load latency by construction (see the tests).
    pub(crate) fn zero_load_latency(&self, src: NodeId, dst: NodeId, bytes: u64) -> Cycle {
        let ser = self.serialize(bytes);
        if src == dst {
            // Loopback: crossbar in + out.
            return 2 * ser;
        }
        let n = self.ifaces.len();
        let hops = self.hop_tab[src.index() * n + dst.index()] as u64;
        2 * ser + hops * self.cfg.hop_latency
    }

    /// Send `payload` from `src` to `dst` at time `now`; returns the cycle
    /// at which the destination hub receives it.
    ///
    /// Local messages (`src == dst`) skip the network entirely — they loop
    /// back inside the hub after one serialization delay — but are still
    /// counted (with zero hops) so message censuses match the paper's
    /// "one-way message" accounting. `far_end` says whether the transfer
    /// has a processor endpoint (request from / delivery to a local CPU)
    /// or is hub-to-hub; the fabric cannot tell these apart on its own,
    /// and [`Stats`] splits node-local counts by it (`intra_node_msgs`
    /// vs `loopback_msgs`).
    pub fn send(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        payload: &Payload,
        far_end: MsgEndpoint,
        stats: &mut Stats,
    ) -> Cycle {
        let bytes = payload.size_bytes(&self.cfg);
        let ser = self.serialize(bytes);
        let n = self.ifaces.len();
        let hops = self.hop_tab[src.index() * n + dst.index()] as u64;
        debug_assert_eq!(hops, self.topo.hops(src, dst));
        stats.record_msg(payload.class(), bytes, hops, src, dst, far_end);

        if src == dst {
            // Local loopback through the hub crossbar: no hops, but it
            // still serializes through the node's ingress port so that a
            // small control message can never overtake an earlier data
            // reply to the same destination (protocol correctness depends
            // on per-destination FIFO delivery).
            let ingress = &mut self.ifaces[dst.index()];
            let deliver = (now + ser).max(ingress.ingress_free) + ser;
            ingress.ingress_free = deliver;
            return deliver;
        }

        // Link-level faults: delay jitter plus CRC-error replay with
        // exponential backoff. Gated on the plan so the zero-rate case
        // adds exactly zero cycles (fault-free timing is bit-identical
        // to a fabric built without a plan).
        let mut extra: Cycle = 0;
        if self.faults.link_faults_enabled() {
            self.fault_seq += 1;
            let seq = self.fault_seq;
            let jitter = self.faults.jitter(src.0, dst.0, seq);
            stats.link_jitter_cycles += jitter;
            extra += jitter;
            let mut attempt = 0u32;
            while self.faults.corrupts(src.0, dst.0, now, seq, attempt) {
                stats.link_crc_errors += 1;
                if attempt >= self.faults.max_link_retries() {
                    // Replay budget exhausted: the packet is undeliverable.
                    // Record the first such failure; the machine aborts
                    // with a typed error before acting on the delivery.
                    self.pending_failure.get_or_insert(LinkFailure {
                        src,
                        dst,
                        attempts: attempt,
                        at: now,
                    });
                    break;
                }
                let cost = ser + self.faults.replay_backoff(attempt);
                stats.link_retransmissions += 1;
                stats.link_replay_cycles += cost;
                extra += cost;
                attempt += 1;
            }
        }

        // Egress: wait for the source link, then occupy it (replays hold
        // the sender's replay buffer and link for the whole recovery).
        let egress = &mut self.ifaces[src.index()];
        let depart = now.max(egress.egress_free);
        egress.egress_free = depart + ser + extra;

        // Flight time through the tree: pure pipeline latency, or
        // per-link wormhole reservations when router contention is
        // modelled (zero-load latency is identical either way).
        let arrive = if self.cfg.model_router_contention {
            let mut t = depart + ser + extra;
            let pair = src.index() * n + dst.index();
            let (lo, hi) = (
                self.path_offsets[pair] as usize,
                self.path_offsets[pair + 1] as usize,
            );
            for &link in &self.path_links[lo..hi] {
                let free = &mut self.link_free[link as usize];
                let start = t.max(*free);
                *free = start + ser;
                t = start + self.cfg.hop_latency;
            }
            t
        } else {
            depart + ser + extra + hops * self.cfg.hop_latency
        };

        // Ingress: the destination link delivers one packet at a time;
        // this is the home-node serialization point under sync storms.
        let ingress = &mut self.ifaces[dst.index()];
        let deliver = arrive.max(ingress.ingress_free) + ser;
        ingress.ingress_free = deliver;
        deliver
    }

    /// [`send`](Self::send) through the delivery-fault layer: the
    /// message physically traverses the fabric exactly as `send`
    /// computes (all reservations, link replays, and traffic counters
    /// apply), then the destination interface may drop it, duplicate
    /// it, or skew its hand-off to the handler. The caller schedules
    /// zero, one, or two delivery events per the returned [`Delivery`].
    ///
    /// Reorder skew is added *after* the ingress reservation and does
    /// not advance the reservation clock, so a later packet with less
    /// skew overtakes this one — bounded reordering within
    /// `link_reorder_window` cycles. Node-local loopback is exempt
    /// (it never crosses a network interface), as is every class the
    /// protocol cannot heal end to end (see `delivery_faultable`).
    pub(crate) fn send_delivery(
        &mut self,
        now: Cycle,
        src: NodeId,
        dst: NodeId,
        payload: &Payload,
        far_end: MsgEndpoint,
        stats: &mut Stats,
    ) -> Delivery {
        let deliver = self.send(now, src, dst, payload, far_end, stats);
        if src == dst
            || !self.oracle.delivery_active(&self.faults)
            || !delivery_faultable(payload.class())
        {
            return Delivery::One(deliver);
        }
        self.delivery_seq += 1;
        let seq = self.delivery_seq;
        let skew = self.oracle.reorder_skew(&self.faults, src.0, dst.0, seq);
        if skew > 0 {
            stats.msgs_reordered += 1;
        }
        let deliver = deliver + skew;
        if self.oracle.drops(&self.faults, src.0, dst.0, now, seq) {
            stats.msgs_dropped += 1;
            return Delivery::Dropped(deliver);
        }
        if self.oracle.duplicates(&self.faults, src.0, dst.0, now, seq) {
            stats.msgs_duplicated += 1;
            let ser = self.serialize(payload.size_bytes(&self.cfg));
            return Delivery::Dup(deliver, deliver + ser);
        }
        Delivery::One(deliver)
    }

    /// Cycles until `node`'s egress link is free (0 when idle) — the
    /// observability sampler's view of outbound congestion.
    pub(crate) fn egress_backlog(&self, node: NodeId, now: Cycle) -> Cycle {
        self.ifaces[node.index()].egress_free.saturating_sub(now)
    }

    /// Cycles until `node`'s ingress link is free (0 when idle); under a
    /// sync storm this is the home-node serialization queue.
    pub(crate) fn ingress_backlog(&self, node: NodeId, now: Cycle) -> Cycle {
        self.ifaces[node.index()].ingress_free.saturating_sub(now)
    }

    /// True if some packet has exhausted its link-replay budget. Checked
    /// by the machine after every dispatched event; kept `#[inline]` and
    /// branch-predictable so the fault-free hot path pays one load.
    #[inline]
    pub(crate) fn has_failure(&self) -> bool {
        self.pending_failure.is_some()
    }

    /// Consume the recorded unrecoverable link fault, if any.
    pub(crate) fn take_failure(&mut self) -> Option<LinkFailure> {
        self.pending_failure.take()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use amo_types::{BlockAddr, ProcId, ReqId, SystemConfig};

    fn fabric(nodes: u16) -> Fabric {
        Fabric::new(nodes, SystemConfig::default().network)
    }

    fn gets() -> Payload {
        Payload::GetS {
            req: ReqId(0),
            requester: ProcId(0),
            block: BlockAddr(0),
        }
    }

    #[test]
    fn remote_latency_is_hops_times_latency_plus_serialization() {
        let mut f = fabric(16);
        let mut s = Stats::new();
        // 32B control packet at 8 B/cycle = 4 cycles serialization.
        // 2 hops between neighbours under one leaf router.
        let t = f.send(
            1000,
            NodeId(0),
            NodeId(1),
            &gets(),
            MsgEndpoint::Proc,
            &mut s,
        );
        assert_eq!(t, 1000 + 4 + 2 * 100 + 4);
        assert_eq!(s.hops, 2);
        assert_eq!(s.total_bytes(), 32);
    }

    #[test]
    fn local_send_is_serialization_only() {
        let mut f = fabric(4);
        let mut s = Stats::new();
        // Crossbar in + out: two 4-cycle serializations, no hops.
        let t = f.send(
            500,
            NodeId(2),
            NodeId(2),
            &gets(),
            MsgEndpoint::Proc,
            &mut s,
        );
        assert_eq!(t, 508);
        assert_eq!(s.intra_node_msgs, 1);
        assert_eq!(s.local_msgs(), 1);
        assert_eq!(s.hops, 0);
    }

    #[test]
    fn local_sends_keep_fifo_order_per_destination() {
        let mut f = fabric(4);
        let mut s = Stats::new();
        // A big data reply followed by a small control message to the
        // same destination must be delivered in send order.
        let data = Payload::DataS {
            req: ReqId(0),
            block: BlockAddr(0),
            data: amo_types::BlockData::zeroed(16),
        };
        let t1 = f.send(0, NodeId(2), NodeId(2), &data, MsgEndpoint::Hub, &mut s);
        let t2 = f.send(0, NodeId(2), NodeId(2), &gets(), MsgEndpoint::Hub, &mut s);
        assert!(
            t2 > t1,
            "control message must not overtake data: {t1} vs {t2}"
        );
    }

    #[test]
    fn ingress_contention_serializes_arrivals() {
        let mut f = fabric(16);
        let mut s = Stats::new();
        // Two different sources target node 0 at the same cycle; the
        // second delivery must queue behind the first at node 0's ingress.
        let t1 = f.send(0, NodeId(1), NodeId(0), &gets(), MsgEndpoint::Proc, &mut s);
        let t2 = f.send(0, NodeId(2), NodeId(0), &gets(), MsgEndpoint::Proc, &mut s);
        assert_eq!(t1, 4 + 200 + 4);
        assert_eq!(t2, t1 + 4, "second packet serializes behind the first");
    }

    #[test]
    fn egress_contention_serializes_departures() {
        let mut f = fabric(16);
        let mut s = Stats::new();
        let t1 = f.send(0, NodeId(0), NodeId(1), &gets(), MsgEndpoint::Proc, &mut s);
        let t2 = f.send(0, NodeId(0), NodeId(2), &gets(), MsgEndpoint::Proc, &mut s);
        assert_eq!(
            t2,
            t1 + 4,
            "same source link: second departs 4 cycles later"
        );
    }

    #[test]
    fn zero_load_latency_matches_an_uncontended_send() {
        let mut f = fabric(16);
        let mut s = Stats::new();
        let bytes = gets().size_bytes(&SystemConfig::default().network);
        // Remote: exactly what a send on idle links costs.
        let t = f.send(
            1000,
            NodeId(0),
            NodeId(1),
            &gets(),
            MsgEndpoint::Proc,
            &mut s,
        );
        assert_eq!(
            f.zero_load_latency(NodeId(0), NodeId(1), bytes),
            t - 1000,
            "uncontended remote send is pure zero-load latency"
        );
        // Local loopback: two serializations.
        let mut f2 = fabric(4);
        let t2 = f2.send(
            500,
            NodeId(2),
            NodeId(2),
            &gets(),
            MsgEndpoint::Proc,
            &mut s,
        );
        assert_eq!(f2.zero_load_latency(NodeId(2), NodeId(2), bytes), t2 - 500);
        // Pure: no reservations were made by the queries above.
        assert_eq!(f.egress_backlog(NodeId(0), 2000), 0);
    }

    #[test]
    fn router_contention_mode_has_identical_zero_load_latency() {
        let mut cfg = SystemConfig::default().network;
        let mut plain = Fabric::new(16, cfg);
        cfg.model_router_contention = true;
        let mut modeled = Fabric::new(16, cfg);
        let mut s = Stats::new();
        assert_eq!(
            plain.send(0, NodeId(0), NodeId(9), &gets(), MsgEndpoint::Proc, &mut s),
            modeled.send(0, NodeId(0), NodeId(9), &gets(), MsgEndpoint::Proc, &mut s),
        );
    }

    #[test]
    fn router_contention_queues_on_shared_links() {
        let mut cfg = SystemConfig::default().network;
        cfg.model_router_contention = true;
        let mut f = Fabric::new(16, cfg);
        let mut s = Stats::new();
        // Two packets from the same source to different far nodes share
        // the source's injection and uplink: the second is delayed on
        // the shared segment beyond pure egress serialization.
        let mut plain = Fabric::new(16, SystemConfig::default().network);
        let p1 = plain.send(0, NodeId(0), NodeId(9), &gets(), MsgEndpoint::Proc, &mut s);
        let p2 = plain.send(0, NodeId(0), NodeId(10), &gets(), MsgEndpoint::Proc, &mut s);
        let c1 = f.send(0, NodeId(0), NodeId(9), &gets(), MsgEndpoint::Proc, &mut s);
        let c2 = f.send(0, NodeId(0), NodeId(10), &gets(), MsgEndpoint::Proc, &mut s);
        assert_eq!(p1, c1, "first packet sees zero load either way");
        assert!(c2 >= p2, "link contention can only add delay: {p2} vs {c2}");
    }

    #[test]
    fn zero_rate_fault_plan_is_timing_identical() {
        let cfg = SystemConfig::default();
        let mut plain = Fabric::new(8, cfg.network);
        let mut faulted = Fabric::with_faults(8, cfg.network, FaultPlan::new(cfg.faults));
        let mut s1 = Stats::new();
        let mut s2 = Stats::new();
        for i in 0..50u64 {
            let src = NodeId((i % 8) as u16);
            let dst = NodeId(((i + 3) % 8) as u16);
            let a = plain.send(i * 13, src, dst, &gets(), MsgEndpoint::Proc, &mut s1);
            let b = faulted.send(i * 13, src, dst, &gets(), MsgEndpoint::Proc, &mut s2);
            assert_eq!(a, b, "send {i}: zero-rate plan must add zero cycles");
        }
        assert_eq!(s1.to_json(), s2.to_json());
        assert_eq!(s2.link_crc_errors, 0);
        assert_eq!(s2.link_jitter_cycles, 0);
    }

    #[test]
    fn link_errors_delay_and_are_counted() {
        let mut fc = amo_types::FaultConfig::none();
        fc.link_error_ppm = 300_000; // 30%: plenty of hits in 200 sends
        fc.seed = 5;
        let mut f = Fabric::with_faults(16, SystemConfig::default().network, FaultPlan::new(fc));
        let mut s = Stats::new();
        let mut delayed = 0u64;
        for i in 0..200u64 {
            let t = f.send(
                i * 1_000,
                NodeId(0),
                NodeId(1),
                &gets(),
                MsgEndpoint::Proc,
                &mut s,
            );
            if t > i * 1_000 + 4 + 200 + 4 {
                delayed += 1;
            }
        }
        assert!(s.link_crc_errors > 0, "30% rate must corrupt something");
        assert_eq!(
            s.link_retransmissions, s.link_crc_errors,
            "every error within budget is replayed"
        );
        assert!(delayed > 0, "replays must show up in delivery times");
        assert!(s.link_replay_cycles >= s.link_retransmissions * (4 + 64));
        assert!(
            !f.has_failure(),
            "30% rate never exhausts an 8-replay budget here"
        );
    }

    #[test]
    fn same_seed_same_deliveries() {
        let mut fc = amo_types::FaultConfig::none();
        fc.link_error_ppm = 200_000;
        fc.jitter_max = 16;
        fc.seed = 77;
        let net = SystemConfig::default().network;
        let run = || {
            let mut f = Fabric::with_faults(8, net, FaultPlan::new(fc));
            let mut s = Stats::new();
            let times: Vec<Cycle> = (0..100u64)
                .map(|i| {
                    f.send(
                        i * 37,
                        NodeId((i % 8) as u16),
                        NodeId(((i + 1) % 8) as u16),
                        &gets(),
                        MsgEndpoint::Proc,
                        &mut s,
                    )
                })
                .collect();
            (times, s)
        };
        let (t1, s1) = run();
        let (t2, s2) = run();
        assert_eq!(t1, t2);
        assert_eq!(s1.to_json(), s2.to_json());
    }

    #[test]
    fn exhausted_replay_budget_reports_failure() {
        let mut fc = amo_types::FaultConfig::none();
        fc.link_error_ppm = 1_000_000; // every transmission corrupted
        fc.max_link_retries = 3;
        let mut f = Fabric::with_faults(4, SystemConfig::default().network, FaultPlan::new(fc));
        let mut s = Stats::new();
        f.send(0, NodeId(0), NodeId(1), &gets(), MsgEndpoint::Proc, &mut s);
        assert!(f.has_failure());
        let fail = f.take_failure().unwrap();
        assert_eq!(fail.src, NodeId(0));
        assert_eq!(fail.dst, NodeId(1));
        assert_eq!(fail.attempts, 3);
        assert!(f.take_failure().is_none(), "failure is consumed once");
        assert_eq!(s.link_retransmissions, 3, "budget bounds the replays");
        assert_eq!(
            s.link_crc_errors, 4,
            "original + three replays all corrupted"
        );
    }

    #[test]
    fn loopback_sends_never_fault() {
        let mut fc = amo_types::FaultConfig::none();
        fc.link_error_ppm = 1_000_000;
        fc.jitter_max = 100;
        let mut f = Fabric::with_faults(4, SystemConfig::default().network, FaultPlan::new(fc));
        let mut s = Stats::new();
        let t = f.send(
            500,
            NodeId(2),
            NodeId(2),
            &gets(),
            MsgEndpoint::Proc,
            &mut s,
        );
        assert_eq!(t, 508, "node-local crossbar transfers bypass the links");
        assert_eq!(s.link_crc_errors, 0);
        assert_eq!(s.link_jitter_cycles, 0);
    }

    #[test]
    fn precomputed_tables_match_on_the_fly_routing() {
        let mut cfg = SystemConfig::default().network;
        cfg.model_router_contention = true;
        let f = Fabric::new(128, cfg);
        let n = 128usize;
        for s in 0..n {
            for d in 0..n {
                let (s_id, d_id) = (NodeId(s as u16), NodeId(d as u16));
                assert_eq!(
                    f.hop_tab[s * n + d] as u64,
                    f.topo.hops(s_id, d_id),
                    "hop table wrong for {s}->{d}"
                );
                let (lo, hi) = (
                    f.path_offsets[s * n + d] as usize,
                    f.path_offsets[s * n + d + 1] as usize,
                );
                assert_eq!(
                    &f.path_links[lo..hi],
                    f.topo.path_links(s_id, d_id).as_slice(),
                    "path table wrong for {s}->{d}"
                );
            }
        }
        // Without contention modelling the path tables stay empty.
        let plain = Fabric::new(128, SystemConfig::default().network);
        assert!(plain.path_offsets.is_empty() && plain.path_links.is_empty());
        assert_eq!(plain.hop_tab.len(), n * n);
    }

    #[test]
    fn data_payloads_serialize_longer() {
        let mut f = fabric(4);
        let mut s = Stats::new();
        let data = Payload::DataS {
            req: ReqId(0),
            block: BlockAddr(0),
            data: amo_types::BlockData::zeroed(16),
        };
        // 160 B / 8 B-per-cycle = 20-cycle serialization each end.
        let t = f.send(0, NodeId(0), NodeId(1), &data, MsgEndpoint::Proc, &mut s);
        assert_eq!(t, 20 + 200 + 20);
    }

    /// Only the AMO layer (AMO, MAO, active messages) is healed end to
    /// end, so only it is dropped, duplicated or skewed. Every coherence
    /// class reaches its handler exactly once, when an unfaulted fabric
    /// delivers it, under a hashed plan that duplicates every faultable
    /// delivery (and drops and reorders too) and under a tape that picks
    /// "duplicate" at every choice point.
    #[test]
    fn only_the_amo_layer_is_delivery_faulted() {
        use amo_types::stats::ALL_MSG_CLASSES;
        use amo_types::tape::{TapeConfig, TapeState};
        use amo_types::{Addr, BlockData, InterventionKind};
        let (req, block) = (ReqId(1), BlockAddr(64));
        let payloads = [
            gets(),
            Payload::DataS {
                req,
                block,
                data: BlockData::zeroed(16),
            },
            Payload::UpgradeAck { req, block },
            Payload::Inv { block },
            Payload::InvAck {
                block,
                from: ProcId(2),
            },
            Payload::Intervention {
                kind: InterventionKind::Exclusive,
                block,
            },
            Payload::WordUpdate {
                addr: Addr(8),
                value: 1,
            },
            Payload::AmoReply { req, old: 0 },
            Payload::MaoReply { req, old: 0 },
            Payload::ActMsgAck { req, result: 0 },
        ];
        assert_eq!(payloads.clone().map(|p| p.class()), ALL_MSG_CLASSES);
        let mut fc = amo_types::FaultConfig::none();
        fc.link_dup_ppm = 1_000_000;
        fc.link_drop_ppm = 500_000;
        fc.link_reorder_window = 64;
        let net = SystemConfig::default().network;
        let hashed = Fabric::with_faults(16, net, FaultPlan::new(fc));
        let mut taped = Fabric::with_faults(16, net, FaultPlan::new(fc));
        let dups = TapeConfig {
            explore_dups: true,
            ..TapeConfig::default()
        };
        taped.set_schedule_tape(TapeState::with_prefix(dups, vec![1; 64]).shared());
        for mut faulted in [hashed, taped] {
            let mut plain = Fabric::new(16, net);
            let mut s = Stats::new();
            for round in 0..8 {
                for payload in &payloads {
                    let (src, dst) = (NodeId(round), NodeId(15 - round));
                    let want = plain.send(0, src, dst, payload, MsgEndpoint::Hub, &mut s);
                    let got = faulted.send_delivery(0, src, dst, payload, MsgEndpoint::Hub, &mut s);
                    let class = payload.class();
                    if matches!(class, MsgClass::Amo | MsgClass::Mao | MsgClass::ActMsg) {
                        assert!(!matches!(got, Delivery::One(_)), "{class:?}: {got:?}");
                    } else {
                        assert_eq!(got, Delivery::One(want), "{class:?}");
                    }
                }
            }
        }
    }
}
